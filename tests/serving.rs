//! Integration tests: concurrent serving — plan cache and admission control.
//!
//! The serving path adds two shared pieces to a session: a plan cache
//! (repeated SQL skips parse → bind → decorrelate → optimize) and an
//! admission controller (bounded concurrency, bounded FIFO queue, typed
//! `Overloaded` rejection). This suite proves:
//!
//! * hit/miss/invalidation semantics — including the two soundness hinges:
//!   a catalog change (new generation) and a planning-config change (new
//!   fingerprint) must both miss, and a catalog change must re-plan against
//!   the *new* data;
//! * cached-plan parity on all 22 TPC-H queries: cache-on results are
//!   batch-for-batch identical to cache-off and to the reference executor,
//!   including under chaos (a worker kill must neither poison the cache nor
//!   strand an admission slot);
//! * admission fairness, overload rejection, and permit release on every
//!   exit path.

use quokka::plan::Catalog;
use quokka::tpch::queries::sql::{sql_text, SQL_QUERIES};
use quokka::{
    results_match, AdmissionConfig, Batch, ChaosPlan, Column, DataType, EngineConfig,
    PlanCacheConfig, QuokkaError, QuokkaSession, Schema,
};
use std::sync::Arc;

fn tpch_session(workers: u32) -> QuokkaSession {
    QuokkaSession::tpch(0.002, workers).expect("generate TPC-H data")
}

/// A tiny session with one integer table `t` whose contents the tests can
/// swap out to exercise catalog invalidation.
fn tiny_session(values: &[i64]) -> QuokkaSession {
    let session = QuokkaSession::new(EngineConfig::quokka(2));
    register_t(&session, values);
    session
}

fn register_t(session: &QuokkaSession, values: &[i64]) {
    let schema = Schema::from_pairs(&[("x", DataType::Int64)]);
    let batch = Batch::try_new(schema.clone(), vec![Column::Int64(values.to_vec())]).unwrap();
    session.register_table("t", schema, vec![batch]);
}

// ---------------------------------------------------------------------------
// Plan cache: hit / miss / invalidation
// ---------------------------------------------------------------------------

#[test]
fn repeated_sql_hits_the_cache_and_stamps_metrics() {
    let session = tiny_session(&[1, 2, 3]);
    let first = session.sql("SELECT sum(x) AS s FROM t").unwrap();
    assert!(!first.is_plan_cache_hit(), "a fresh statement cannot hit");
    let second = session.sql("SELECT sum(x) AS s FROM t").unwrap();
    assert!(second.is_plan_cache_hit(), "the repeat must hit");
    // Whitespace, case and comments are insignificant to the key.
    let variant = session.sql("select SUM(X) as S\n FROM t -- same query\n;").unwrap();
    assert!(variant.is_plan_cache_hit(), "normalized variant must hit");

    let miss = first.collect().unwrap();
    let hit = second.collect().unwrap();
    assert!(!miss.metrics.plan_cache_hit);
    assert!(hit.metrics.plan_cache_hit, "the executed metrics must record the hit");
    assert!(results_match(&miss.batch, &hit.batch));

    let stats = session.plan_cache().stats();
    assert_eq!(stats.hits, 2);
    assert_eq!(stats.misses, 1);
}

#[test]
fn literal_variants_share_a_template_but_replan() {
    let session = tiny_session(&(0..50).collect::<Vec<_>>());
    session.sql("SELECT count(*) AS n FROM t WHERE x < 10").unwrap();
    let other = session.sql("SELECT count(*) AS n FROM t WHERE x < 40").unwrap();
    assert!(!other.is_plan_cache_hit(), "different literals must re-plan");
    assert_eq!(session.plan_cache().stats().literal_misses, 1, "but only literals missed");
    // Both literal vectors are now cached variants of one template.
    assert!(session.sql("SELECT count(*) AS n FROM t WHERE x < 10").unwrap().is_plan_cache_hit());
    assert!(session.sql("SELECT count(*) AS n FROM t WHERE x < 40").unwrap().is_plan_cache_hit());
    assert_eq!(session.plan_cache().len(), 1, "one template holds both variants");
    // And the literals were honoured, not swapped: the results differ.
    let ten = session.sql("SELECT count(*) AS n FROM t WHERE x < 10").unwrap().collect().unwrap();
    let forty = session.sql("SELECT count(*) AS n FROM t WHERE x < 40").unwrap().collect().unwrap();
    assert!(!results_match(&ten.batch, &forty.batch), "cached variants must keep their literals");
}

#[test]
fn catalog_changes_invalidate_and_replan_against_new_data() {
    let session = tiny_session(&[1, 2, 3]);
    let before = session.sql("SELECT sum(x) AS s FROM t").unwrap().collect().unwrap();
    assert!(session.sql("SELECT sum(x) AS s FROM t").unwrap().is_plan_cache_hit());

    // Swap the table's contents: the generation advances, so the cached
    // plan is stale and the next statement must re-plan.
    register_t(&session, &[10, 20, 30, 40]);
    let handle = session.sql("SELECT sum(x) AS s FROM t").unwrap();
    assert!(!handle.is_plan_cache_hit(), "a catalog change must invalidate");
    let after = handle.collect().unwrap();
    assert!(
        !results_match(&before.batch, &after.batch),
        "the re-planned query must see the new data (100, not 6)"
    );
    assert!(session.plan_cache().stats().invalidations > 0, "stale entries must be purged");
    // The re-planned entry is cached again under the new generation.
    assert!(session.sql("SELECT sum(x) AS s FROM t").unwrap().is_plan_cache_hit());
}

#[test]
fn planning_config_changes_miss_by_fingerprint() {
    let session = tiny_session(&[1, 2, 3]);
    session.sql("SELECT sum(x) AS s FROM t").unwrap();
    assert!(session.sql("SELECT sum(x) AS s FROM t").unwrap().is_plan_cache_hit());
    // Toggling the optimizer changes the planning fingerprint; the cache is
    // shared (same Arc) but the old entry must not satisfy the new config.
    let naive = session.clone().with_config(EngineConfig::quokka(2).with_optimize(false));
    assert!(Arc::ptr_eq(session.plan_cache(), naive.plan_cache()), "cache section unchanged");
    let handle = naive.sql("SELECT sum(x) AS s FROM t").unwrap();
    assert!(!handle.is_plan_cache_hit(), "a different planning config must miss");
    let outcome = handle.collect().unwrap();
    assert_eq!(outcome.batch.value(0, 0), quokka::ScalarValue::Int64(6));
    // Each config now has its own entry; both hit.
    assert!(session.sql("SELECT sum(x) AS s FROM t").unwrap().is_plan_cache_hit());
    assert!(naive.sql("SELECT sum(x) AS s FROM t").unwrap().is_plan_cache_hit());
}

#[test]
fn explain_and_disabled_cache_bypass_caching() {
    let session = tiny_session(&[1]);
    let explain = session.sql("EXPLAIN SELECT sum(x) AS s FROM t").unwrap();
    assert!(explain.is_explain());
    assert!(!explain.is_plan_cache_hit());
    assert!(session.plan_cache().is_empty(), "EXPLAIN must not populate the cache");
    // EXPLAIN output still renders through the cached-plan-free path.
    let rendering = explain.collect().unwrap();
    assert_eq!(rendering.batch.schema().column_names(), vec!["plan"]);

    let disabled = session
        .clone()
        .with_config(EngineConfig::quokka(2).with_plan_cache(PlanCacheConfig::disabled()));
    disabled.sql("SELECT sum(x) AS s FROM t").unwrap();
    let repeat = disabled.sql("SELECT sum(x) AS s FROM t").unwrap();
    assert!(!repeat.is_plan_cache_hit(), "a disabled cache never hits");
    assert!(disabled.plan_cache().is_empty());
    // The original session's cache was rebuilt away, not shared.
    assert!(!Arc::ptr_eq(session.plan_cache(), disabled.plan_cache()));
}

// ---------------------------------------------------------------------------
// Cached-plan parity: all 22 TPC-H queries, cache on vs off
// ---------------------------------------------------------------------------

/// Cache-off and warmed cache-on runs of the same statement must be
/// batch-for-batch identical (and match the reference executor).
fn check_cached_parity(queries: &[usize]) {
    let on = tpch_session(2);
    let off = on
        .clone()
        .with_config(EngineConfig::quokka(2).with_plan_cache(PlanCacheConfig::disabled()));
    for &q in queries {
        let text = sql_text(q).unwrap();
        let expected = on.sql(text).unwrap().collect_reference().unwrap(); // also warms
        let handle = on.sql(text).unwrap();
        assert!(handle.is_plan_cache_hit(), "Q{q}: warm statement must hit");
        let hit = handle.collect().unwrap();
        assert!(hit.metrics.plan_cache_hit, "Q{q}: executed metrics must record the hit");
        let cold = off.sql(text).unwrap().collect().unwrap();
        assert!(!cold.metrics.plan_cache_hit, "Q{q}: cache-off run must not hit");
        assert!(
            results_match(&hit.batch, &cold.batch),
            "Q{q}: cached plan diverged from the uncached run"
        );
        assert!(
            results_match(&hit.batch, &expected),
            "Q{q}: cached plan diverged from the reference executor"
        );
    }
}

#[test]
fn cached_plan_parity_q1_to_q8() {
    check_cached_parity(&SQL_QUERIES[0..8]);
}

#[test]
fn cached_plan_parity_q9_to_q15() {
    check_cached_parity(&SQL_QUERIES[8..15]);
}

#[test]
fn cached_plan_parity_q16_to_q22() {
    check_cached_parity(&SQL_QUERIES[15..22]);
}

/// A worker kill mid-query must not poison the cache (the next hit still
/// returns the right answer) and must not strand an admission slot.
#[test]
fn chaos_kills_neither_poison_the_cache_nor_strand_admission() {
    let session = tpch_session(3)
        .with_config(EngineConfig::quokka(3).with_admission(AdmissionConfig::bounded(2, 8)));
    for q in [3usize, 6, 12] {
        let text = sql_text(q).unwrap();
        let expected = session.sql(text).unwrap().collect_reference().unwrap(); // warms
        let handle = session.sql(text).unwrap();
        assert!(handle.is_plan_cache_hit(), "Q{q}: warm statement must hit");
        // Kill a worker at the first task-commit boundary of the cached run.
        let chaos_config = EngineConfig::quokka(3)
            .with_admission(AdmissionConfig::bounded(2, 8))
            .with_chaos(ChaosPlan::kill_at_commits(1, 3));
        let outcome = handle.collect_with(&chaos_config).unwrap();
        assert!(outcome.metrics.plan_cache_hit, "Q{q}: chaos run started from the cache");
        assert!(outcome.metrics.chaos_events > 0, "Q{q}: the kill must actually fire");
        assert!(
            results_match(&outcome.batch, &expected),
            "Q{q}: cached plan diverged under a chaos worker kill"
        );
        // The cache survives the crash: the next hit is still correct.
        let again = session.sql(text).unwrap();
        assert!(again.is_plan_cache_hit(), "Q{q}: chaos must not poison the cache");
        assert!(results_match(&again.collect().unwrap().batch, &expected));
    }
    assert_eq!(session.admission().running(), 0, "chaos must not strand admission slots");
    assert_eq!(session.admission().queue_depth(), 0);
}

// ---------------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------------

#[test]
fn every_session_query_reports_its_admission_estimate() {
    let session = tpch_session(2);
    let outcome = session.sql(sql_text(6).unwrap()).unwrap().collect().unwrap();
    // Q6 reads exactly one table; the admitted estimate is its footprint.
    let lineitem = session.catalog().table_bytes("lineitem").unwrap();
    assert_eq!(outcome.metrics.admitted_memory_bytes, lineitem);
    assert!(lineitem > 0);
}

#[test]
fn overload_is_a_typed_rejection_not_a_timeout() {
    let session = tiny_session(&[1, 2, 3])
        .with_config(EngineConfig::quokka(2).with_admission(AdmissionConfig::bounded(1, 0)));
    // Occupy the only slot directly, then submit a query: with a zero-length
    // queue it must be rejected immediately with the typed error.
    let slot = session.admission().acquire(0).unwrap();
    let err = session.sql("SELECT sum(x) AS s FROM t").unwrap().collect().unwrap_err();
    match &err {
        QuokkaError::Overloaded { running, queued, queue_limit } => {
            assert_eq!((*running, *queued, *queue_limit), (1, 0, 0));
        }
        other => panic!("expected Overloaded, got {other}"),
    }
    assert!(err.to_string().contains("retry later"), "{err}");
    assert!(err.is_fatal(), "overload is the client's back-off signal, not a retry");
    drop(slot);
    // Capacity freed: the same statement now runs to completion.
    let outcome = session.sql("SELECT sum(x) AS s FROM t").unwrap().collect().unwrap();
    assert_eq!(outcome.batch.value(0, 0), quokka::ScalarValue::Int64(6));
    assert_eq!(session.admission().stats().rejected, 1);
}

/// With one slot and a deep queue, every concurrent query completes, they
/// are serialized (peak concurrency 1), and waiters are admitted in arrival
/// order — no newcomer overtakes the queue.
#[test]
fn bounded_queue_serializes_fairly_under_contention() {
    let session = Arc::new(
        tpch_session(2)
            .with_config(EngineConfig::quokka(2).with_admission(AdmissionConfig::bounded(1, 8))),
    );
    let expected = Arc::new(session.tpch_query(6).unwrap().collect_reference().unwrap());
    let threads: Vec<_> = (0..5)
        .map(|i| {
            let session = Arc::clone(&session);
            let expected = Arc::clone(&expected);
            std::thread::spawn(move || {
                let outcome = session.sql(sql_text(6).unwrap()).unwrap().collect().unwrap();
                assert!(results_match(&outcome.batch, &expected), "thread {i} diverged");
                outcome.metrics
            })
        })
        .collect();
    let all: Vec<_> = threads.into_iter().map(|t| t.join().unwrap()).collect();
    assert_eq!(all.len(), 5);
    let stats = session.admission().stats();
    assert_eq!(stats.admitted, 5, "every query must eventually be admitted");
    assert_eq!(stats.rejected, 0, "the queue was deep enough for everyone");
    assert_eq!(stats.peak_running, 1, "one slot must serialize execution");
    assert!(stats.queued >= 1, "contention must actually queue someone");
    assert!(
        all.iter().any(|m| m.admission_wait > std::time::Duration::ZERO),
        "queued queries must report their admission wait"
    );
    assert_eq!(session.admission().running(), 0);
    assert_eq!(session.admission().queue_depth(), 0);
}

/// Admission slots are released on *failure* paths too: queries that die
/// under fault injection (and recover, or restart) never leak their permit.
#[test]
fn failed_and_recovered_queries_release_their_slots() {
    let session = tpch_session(3)
        .with_config(EngineConfig::quokka(3).with_admission(AdmissionConfig::bounded(2, 8)));
    let faulty = EngineConfig::quokka(3)
        .with_admission(AdmissionConfig::bounded(2, 8))
        .with_chaos(ChaosPlan::kill_at_progress(1, 0.5));
    let expected = session.tpch_query(12).unwrap().collect_reference().unwrap();
    let outcome = session.sql(sql_text(12).unwrap()).unwrap().collect_with(&faulty).unwrap();
    assert_eq!(outcome.metrics.failures, 1, "the injected failure must fire");
    assert!(results_match(&outcome.batch, &expected));
    assert!(outcome.metrics.admitted_memory_bytes > 0);
    assert_eq!(session.admission().running(), 0, "recovered query leaked its slot");
    // A follow-up query finds the full capacity available again.
    let again = session.sql(sql_text(12).unwrap()).unwrap().collect().unwrap();
    assert!(results_match(&again.batch, &expected));
    assert_eq!(session.admission().running(), 0);
}

#[test]
fn memory_budget_admits_oversized_queries_only_alone() {
    // A budget below any single table forces serialization but must never
    // starve: the work-conserving rule admits an oversized query when the
    // controller is idle.
    let session = tiny_session(&(0..1000).collect::<Vec<_>>()).with_config(
        EngineConfig::quokka(2).with_admission(AdmissionConfig {
            max_concurrent: None,
            max_queued: 8,
            memory_budget_bytes: Some(1),
        }),
    );
    let outcome = session.sql("SELECT sum(x) AS s FROM t").unwrap().collect().unwrap();
    assert!(outcome.metrics.admitted_memory_bytes > 1, "estimate exceeds the whole budget");
    assert_eq!(session.admission().running(), 0);
    let stats = session.admission().stats();
    assert_eq!(stats.admitted, 1);
    assert_eq!(stats.rejected, 0, "oversized-but-alone must be admitted, not rejected");
}
