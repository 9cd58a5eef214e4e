//! Concurrent queries on one shared `QuokkaSession`.
//!
//! The session is the intended unit of sharing: the catalog lives behind an
//! `Arc`, every execution builds its own cluster state, and per-query
//! metrics must not bleed between concurrent runs. These tests hammer one
//! session from many threads with a mix of frontends (DataFrame, SQL,
//! hand-built plans), with and without fault injection, and assert
//! result correctness plus metrics isolation for every query.

use quokka::dataframe::tpch::query as df_query;
use quokka::tpch::queries::sql::sql_text;
use quokka::{
    results_match, AdmissionConfig, Batch, ChaosPlan, EngineConfig, QueryMetrics, QuokkaError,
    QuokkaSession,
};
use std::sync::Arc;

/// The mixed workload: every frontend, several plan shapes.
const QUERIES: [usize; 6] = [1, 3, 6, 10, 12, 14];

fn expected_results(session: &QuokkaSession) -> Vec<(usize, Batch)> {
    QUERIES
        .iter()
        .map(|&q| (q, session.tpch_query(q).unwrap().collect_reference().unwrap()))
        .collect()
}

/// Run query `q` through a frontend chosen by `thread_id`, so concurrent
/// threads exercise different entry points against the same session.
fn run_query(
    session: &QuokkaSession,
    q: usize,
    thread_id: usize,
    config: Option<&EngineConfig>,
) -> (Batch, QueryMetrics) {
    let outcome = match thread_id % 3 {
        0 => {
            let handle = session.tpch_query(q).unwrap();
            match config {
                Some(c) => handle.collect_with(c).unwrap(),
                None => handle.collect().unwrap(),
            }
        }
        1 => {
            let handle = session.sql(sql_text(q).unwrap()).unwrap();
            match config {
                Some(c) => handle.collect_with(c).unwrap(),
                None => handle.collect().unwrap(),
            }
        }
        _ => {
            let frame = df_query(session, q).unwrap();
            match config {
                Some(c) => frame.collect_with(c).unwrap(),
                None => frame.collect().unwrap(),
            }
        }
    };
    (outcome.batch, outcome.metrics)
}

#[test]
fn mixed_tpch_queries_run_concurrently_on_one_session() {
    let session = Arc::new(QuokkaSession::tpch(0.002, 2).unwrap());
    let expected = Arc::new(expected_results(&session));

    let handles: Vec<_> = (0..QUERIES.len())
        .map(|i| {
            let session = Arc::clone(&session);
            let expected = Arc::clone(&expected);
            std::thread::spawn(move || {
                let (q, oracle) = &expected[i];
                let (batch, metrics) = run_query(&session, *q, i, None);
                assert!(
                    results_match(&batch, oracle),
                    "Q{q} diverged from the oracle under concurrency (thread {i})"
                );
                // Metrics isolation: each execution's counters describe
                // exactly its own result, not a neighbour's.
                assert_eq!(
                    metrics.output_rows,
                    batch.num_rows() as u64,
                    "Q{q}: output_rows leaked across concurrent queries"
                );
                assert_eq!(metrics.failures, 0, "Q{q}: phantom failure recorded");
                assert!(metrics.tasks_executed > 0);
                metrics
            })
        })
        .collect();

    let all_metrics: Vec<QueryMetrics> =
        handles.into_iter().map(|h| h.join().expect("query thread panicked")).collect();
    // Distinct queries must produce distinct task counts somewhere — a
    // shared/global metrics registry would make them identical.
    let distinct: std::collections::BTreeSet<u64> =
        all_metrics.iter().map(|m| m.tasks_executed).collect();
    assert!(distinct.len() > 1, "per-query task counts look shared: {distinct:?}");
}

#[test]
fn concurrent_queries_with_fault_injection_stay_isolated() {
    let session = Arc::new(QuokkaSession::tpch(0.002, 3).unwrap());
    let expected = Arc::new(expected_results(&session));
    // Worker 1 dies at its first commit that leaves operator state behind,
    // so every faulty query has state to recover however the six
    // concurrent queries are scheduled (a kill at a fixed input fraction
    // can land after the victim's channels have all finished).
    let faulty = EngineConfig::quokka(3).with_chaos(ChaosPlan::kill_holding_state(1));

    let handles: Vec<_> = (0..QUERIES.len())
        .map(|i| {
            let session = Arc::clone(&session);
            let expected = Arc::clone(&expected);
            let faulty = faulty.clone();
            std::thread::spawn(move || {
                let (q, oracle) = &expected[i];
                // Odd threads run under fault injection, even threads run
                // clean — on the same shared session, at the same time.
                let config = if i % 2 == 1 { Some(&faulty) } else { None };
                let (batch, metrics) = run_query(&session, *q, i, config);
                assert!(
                    results_match(&batch, oracle),
                    "Q{q} diverged under concurrent fault injection (thread {i})"
                );
                if i % 2 == 1 {
                    assert_eq!(
                        metrics.failures, 1,
                        "Q{q}: the injected failure must appear in its own metrics"
                    );
                    assert!(metrics.recovery_tasks > 0, "Q{q}: recovery did not replay");
                } else {
                    // Cross-talk check: a clean query must never observe a
                    // neighbour's injected failure or recovery work.
                    assert_eq!(metrics.failures, 0, "Q{q}: failure leaked from another query");
                    assert_eq!(metrics.recovery_tasks, 0, "Q{q}: recovery leaked");
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("query thread panicked");
    }
}

/// Overload on a shared session: with both admission slots held and the
/// bounded queue saturated, late arrivals get a typed `Overloaded` error —
/// never a hang — and every admitted query still streams its exact result
/// (no batch lost to, or duplicated by, the queueing machinery).
#[test]
fn overloaded_session_rejects_excess_queries_without_losing_results() {
    let session = Arc::new(
        QuokkaSession::tpch(0.002, 2)
            .unwrap()
            .with_config(EngineConfig::quokka(2).with_admission(AdmissionConfig::bounded(2, 2))),
    );
    let expected = Arc::new(session.tpch_query(6).unwrap().collect_reference().unwrap());

    // Pin both admission slots so the eight client threads below contend
    // deterministically: the first two to arrive occupy the queue, the
    // other six must be turned away immediately.
    let slots =
        vec![session.admission().acquire(0).unwrap(), session.admission().acquire(0).unwrap()];

    let clients = 8;
    let threads: Vec<_> = (0..clients)
        .map(|i| {
            let session = Arc::clone(&session);
            let expected = Arc::clone(&expected);
            std::thread::spawn(move || {
                // Mixed frontends: even threads collect via SQL, odd threads
                // stream via the DataFrame API. Both must surface the same
                // typed rejection.
                let result = if i % 2 == 0 {
                    session
                        .sql(sql_text(6).unwrap())
                        .unwrap()
                        .collect()
                        .map(|outcome| outcome.batch)
                } else {
                    df_query(&session, 6).unwrap().stream().and_then(|mut stream| {
                        let mut batches = Vec::new();
                        while let Some(batch) = stream.next_batch()? {
                            batches.push(batch);
                        }
                        Batch::concat(&batches)
                    })
                };
                match result {
                    Ok(batch) => {
                        assert!(
                            results_match(&batch, &expected),
                            "thread {i}: an admitted query lost or duplicated batches"
                        );
                        true
                    }
                    Err(QuokkaError::Overloaded { queued, queue_limit, .. }) => {
                        assert_eq!(
                            (queued, queue_limit),
                            (2, 2),
                            "thread {i}: rejection must report a saturated queue"
                        );
                        false
                    }
                    Err(other) => panic!("thread {i}: expected Overloaded, got {other}"),
                }
            })
        })
        .collect();

    // Every client has resolved once two are parked in the queue and six
    // were rejected; only then release the pinned slots.
    while session.admission().queue_depth() < 2
        || session.admission().stats().rejected < (clients - 2) as u64
    {
        std::thread::yield_now();
    }
    drop(slots);

    let completed = threads
        .into_iter()
        .map(|t| t.join().expect("client panicked"))
        .filter(|&admitted| admitted)
        .count();
    assert_eq!(completed, 2, "exactly the queued clients must complete");
    let stats = session.admission().stats();
    assert_eq!(stats.rejected, (clients - 2) as u64);
    assert_eq!(stats.peak_running, 2, "pinned slots bound concurrency");
    assert_eq!(session.admission().running(), 0, "drained session must hold no slots");
    assert_eq!(session.admission().queue_depth(), 0);
    // The session is healthy after the storm: a fresh query just runs.
    let after = session.run_tpch(6).unwrap();
    assert!(results_match(&after.batch, &expected));
}

#[test]
fn cloned_sessions_share_the_catalog_but_not_the_config() {
    let base = QuokkaSession::tpch(0.002, 2).unwrap();
    let tuned = base.clone().with_config(EngineConfig::quokka(4));
    // Same catalog behind both...
    assert_eq!(base.table_names(), tuned.table_names());
    // ...but independent configurations.
    assert_eq!(base.config().cluster.workers, 2);
    assert_eq!(tuned.config().cluster.workers, 4);
    let a = base.run_tpch(6).unwrap();
    let b = tuned.run_tpch(6).unwrap();
    assert!(results_match(&a.batch, &b.batch));
}

#[test]
fn concurrent_streams_interleave_without_crosstalk() {
    let session = Arc::new(QuokkaSession::tpch(0.002, 2).unwrap());
    let handles: Vec<_> = (0..4)
        .map(|i| {
            let session = Arc::clone(&session);
            std::thread::spawn(move || {
                let q = [1, 6, 12, 14][i];
                let frame = df_query(&session, q).unwrap();
                let expected = frame.collect_reference().unwrap();
                let mut stream = frame.stream().unwrap();
                let mut batches = Vec::new();
                while let Some(batch) = stream.next_batch().unwrap() {
                    assert_eq!(
                        batch.schema(),
                        expected.schema(),
                        "Q{q}: a foreign query's batch leaked into this stream"
                    );
                    batches.push(batch);
                }
                let streamed = Batch::concat(&batches).unwrap();
                assert!(results_match(&streamed, &expected), "Q{q} diverged while streaming");
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("stream thread panicked");
    }
}
