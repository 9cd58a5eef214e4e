//! Integration tests: failure injection. A worker is killed at various
//! points of the query and the result must still be exactly the reference
//! result, with the engine's invariants intact.

use quokka::{
    results_match, ChaosEvent, ChaosPlan, ChaosTrigger, EngineConfig, FaultStrategy, QuokkaSession,
};

fn session() -> QuokkaSession {
    QuokkaSession::tpch(0.002, 3).expect("generate TPC-H data")
}

#[test]
fn wal_recovers_a_join_query_from_a_midway_failure() {
    let session = session();
    let plan = quokka::tpch::query(3).unwrap();
    let expected = session.run_reference(&plan).unwrap();
    // Killed at its first commit that leaves join/aggregate state behind,
    // the worker always takes state with it that recovery must rebuild (a
    // kill at 50% progress can land after its channels have all finished;
    // `wal_recovers_at_every_failure_point` covers fixed fractions).
    let config = EngineConfig::quokka(3).with_chaos(ChaosPlan::kill_holding_state(1));
    let outcome = session.run_with(&plan, &config).unwrap();
    assert!(results_match(&expected, &outcome.batch));
    assert_eq!(outcome.metrics.failures, 1);
    assert!(outcome.metrics.recovery_tasks > 0, "recovery must replay or rewind tasks");
}

#[test]
fn wal_recovers_at_every_failure_point() {
    // The Fig. 10b case-study shape: kill a worker at several progress
    // fractions; the answer never changes.
    let session = session();
    let plan = quokka::tpch::query(10).unwrap();
    let expected = session.run_reference(&plan).unwrap();
    for fraction in [0.2, 0.5, 0.8] {
        let config = EngineConfig::quokka(3).with_chaos(ChaosPlan::kill_at_progress(2, fraction));
        let outcome = session.run_with(&plan, &config).unwrap();
        assert!(results_match(&expected, &outcome.batch), "diverged when failing at {fraction}");
        assert_eq!(outcome.metrics.failures, 1);
    }
}

#[test]
fn wal_recovers_every_worker_identity() {
    let session = session();
    let plan = quokka::tpch::query(5).unwrap();
    let expected = session.run_reference(&plan).unwrap();
    for worker in 0..3 {
        let config = EngineConfig::quokka(3).with_chaos(ChaosPlan::kill_at_progress(worker, 0.5));
        let outcome = session.run_with(&plan, &config).unwrap();
        assert!(results_match(&expected, &outcome.batch), "diverged when killing worker {worker}");
    }
}

#[test]
fn wal_recovers_a_multi_join_pipeline() {
    let session = session();
    let plan = quokka::tpch::query(9).unwrap();
    let expected = session.run_reference(&plan).unwrap();
    let config = EngineConfig::quokka(3).with_chaos(ChaosPlan::kill_at_progress(0, 0.6));
    let outcome = session.run_with(&plan, &config).unwrap();
    assert!(results_match(&expected, &outcome.batch));
}

#[test]
fn stagewise_mode_also_recovers() {
    let session = session();
    let plan = quokka::tpch::query(3).unwrap();
    let expected = session.run_reference(&plan).unwrap();
    let config = EngineConfig::sparklike(3).with_chaos(ChaosPlan::kill_at_progress(1, 0.5));
    let outcome = session.run_with(&plan, &config).unwrap();
    assert!(results_match(&expected, &outcome.batch));
}

#[test]
fn restart_baseline_reruns_and_still_answers_correctly() {
    let session = session();
    let plan = quokka::tpch::query(6).unwrap();
    let expected = session.run_reference(&plan).unwrap();
    let config = EngineConfig::quokka(3)
        .with_fault(FaultStrategy::None)
        .with_chaos(ChaosPlan::kill_at_progress(1, 0.4));
    let outcome = session.run_with(&plan, &config).unwrap();
    assert!(results_match(&expected, &outcome.batch));
    assert_eq!(outcome.metrics.failures, 1);
}

#[test]
fn aggregation_only_queries_survive_failures() {
    let session = session();
    for q in [1usize, 6] {
        let plan = quokka::tpch::query(q).unwrap();
        let expected = session.run_reference(&plan).unwrap();
        let config = EngineConfig::quokka(3).with_chaos(ChaosPlan::kill_at_progress(0, 0.5));
        let outcome = session.run_with(&plan, &config).unwrap();
        assert!(results_match(&expected, &outcome.batch), "Q{q} diverged after failure");
    }
}

#[test]
fn two_sequential_failures_are_survived() {
    let session = session();
    let plan = quokka::tpch::query(3).unwrap();
    let expected = session.run_reference(&plan).unwrap();
    let config = EngineConfig::quokka(4).with_chaos(
        ChaosPlan::kill_at_progress(1, 0.3)
            .with(ChaosTrigger::Progress(0.7), ChaosEvent::KillWorker { worker: 2 }),
    );
    let outcome = session.run_with(&plan, &config).unwrap();
    assert!(results_match(&expected, &outcome.batch));
    assert_eq!(outcome.metrics.failures, 2);
}

#[test]
fn wal_normal_execution_writes_no_durable_shuffle_data() {
    let session = session();
    let plan = quokka::tpch::query(12).unwrap();
    let outcome = session.run(&plan).unwrap();
    assert_eq!(outcome.metrics.durable_bytes, 0);
    assert!(outcome.metrics.backup_bytes > 0);
    assert!(outcome.metrics.lineage_bytes > 0);
    // The KB-vs-MB claim of the paper: lineage is orders of magnitude
    // smaller than the shuffled/backed-up data it describes (measured in
    // plain column bytes — backups themselves ship compressed encodings).
    assert!(outcome.metrics.lineage_bytes * 10 < outcome.metrics.backup_raw_bytes);
    assert!(
        outcome.metrics.backup_bytes < outcome.metrics.backup_raw_bytes,
        "column encodings should shrink backups: {} encoded vs {} raw",
        outcome.metrics.backup_bytes,
        outcome.metrics.backup_raw_bytes
    );
}
