//! Multi-process cluster tests: real `quokka-workerd` OS processes shuffle
//! over real TCP sockets, and SIGKILLing one mid-query must leave the
//! result batch-exact — the paper's machine-failure experiment (§V-D) run
//! against actual process death instead of simulated worker kills.

use quokka::engine::cluster::{run_process_query, KillPlan, ProcessQuery};
use quokka::process::tpch_process_inputs;
use quokka::{results_match, EngineConfig, QuokkaSession, TransportConfig};
use std::time::Duration;

fn workerd_bin() -> std::path::PathBuf {
    std::path::PathBuf::from(env!("CARGO_BIN_EXE_quokka-workerd"))
}

fn process_config(workers: u32, suspicion_ms: u64) -> EngineConfig {
    let mut config = EngineConfig::quokka(workers)
        .with_transport(TransportConfig::tcp())
        .with_watchdog(Duration::from_secs(20));
    config.cluster.suspicion_timeout = Duration::from_millis(suspicion_ms);
    config
}

fn run(
    query: usize,
    sf: f64,
    workers: u32,
    processes: u32,
    suspicion_ms: u64,
    kill: Option<KillPlan>,
) -> quokka::QueryOutcome {
    let config = process_config(workers, suspicion_ms);
    let inputs = tpch_process_inputs(query, sf, &config).expect("plan the query");
    run_process_query(ProcessQuery {
        config,
        graph: inputs.graph,
        output_schema: inputs.output_schema,
        tables: inputs.tables,
        workerd: workerd_bin(),
        workerd_args: vec![
            "--query".into(),
            query.to_string(),
            "--sf".into(),
            sf.to_string(),
            "--workers".into(),
            workers.to_string(),
            "--suspicion-ms".into(),
            suspicion_ms.to_string(),
        ],
        processes,
        kill,
    })
    .expect("process-mode query")
}

/// Clean run: a query split over two worker processes matches the
/// single-threaded reference executor, and the per-peer wire stats prove
/// the shuffle actually crossed process boundaries.
#[test]
fn two_process_cluster_matches_reference() {
    let sf = 0.002;
    let session = QuokkaSession::tpch(sf, 3).expect("generate TPC-H data");
    let plan = quokka::tpch::query(3).unwrap();
    let expected = session.run_reference(&plan).unwrap();

    // Three workers over two processes: the ranges are uneven (2 + 1), so
    // this also exercises the remainder-spreading worker placement.
    let outcome = run(3, sf, 3, 2, 1_000, None);
    assert!(
        results_match(&expected, &outcome.batch),
        "Q3 across two worker processes diverged from the reference executor"
    );
    let peers = &outcome.metrics.transport_peers;
    assert!(!peers.is_empty(), "cross-process shuffle must report wire traffic");
    let bytes: u64 = peers.iter().map(|p| p.bytes_sent).sum();
    assert!(bytes > 0, "cross-process shuffle sent no bytes");
}

/// SIGKILL one worker process mid-query. The driver's failure detector
/// notices the silence, escalates suspicion to a kill, reassigns the dead
/// process's channels and replays from lineage — and the answer is still
/// batch-exact. The kill point is derived from a printed seed, so any
/// failure reproduces by rerunning with that seed.
#[test]
fn sigkill_worker_process_mid_query_recovers_exactly() {
    let sf = 0.005;
    let (workers, processes) = (4u32, 2u32);
    let session = QuokkaSession::tpch(sf, workers).expect("generate TPC-H data");
    let plan = quokka::tpch::query(3).unwrap();
    let expected = session.run_reference(&plan).unwrap();

    let seed: u64 = match std::env::var("QUOKKA_PROC_SEED") {
        Ok(v) => v.parse().expect("QUOKKA_PROC_SEED must be an integer"),
        Err(_) => 42,
    };
    // Deterministic mapping from seed to the kill point: which process dies
    // and after how many GCS commits. Progress-based, so the kill lands at
    // the same logical point on every run with this seed.
    let victim_process = (seed % processes as u64) as usize;
    let after_transactions = 5 + seed % 16;
    println!(
        "process chaos case: QUOKKA_PROC_SEED={seed} -> victim_process={victim_process} \
         after_transactions={after_transactions}"
    );

    let outcome =
        run(3, sf, workers, processes, 150, Some(KillPlan { victim_process, after_transactions }));
    assert!(
        results_match(&expected, &outcome.batch),
        "Q3 diverged after SIGKILLing worker process {victim_process}; \
         reproduce with QUOKKA_PROC_SEED={seed}"
    );
    assert!(
        outcome.metrics.failures >= 1,
        "the detector never registered the killed process (seed {seed})"
    );
    assert!(
        outcome.metrics.recovery_tasks > 0,
        "recovery replayed nothing after a process kill (seed {seed})"
    );
}
