//! Integration tests: the deterministic chaos engine.
//!
//! Where `tests/fault_tolerance.rs` kills a worker at one progress fraction,
//! this suite drives the full [`ChaosPlan`] surface: crash-at-every-boundary
//! sweeps, randomized-but-reproducible multi-event plans, second kills
//! mid-recovery, wiped backups (forcing deeper lineage replay), dropped and
//! delayed pushes, false suspicion, stragglers, per-query deadlines, and
//! quiescence after the consumer walks away. Every surviving run must be
//! batch-for-batch identical to the reference result.

use quokka::{
    results_match, ChaosEvent, ChaosPlan, ChaosTrigger, EngineConfig, QuokkaError, QuokkaSession,
};
use std::time::Duration;

fn session(workers: u32) -> QuokkaSession {
    QuokkaSession::tpch(0.002, workers).expect("generate TPC-H data")
}

/// The tentpole proof: kill worker 1 at every task-commit boundary (sampled
/// with a stride when the query has many tasks) across three differently
/// shaped TPC-H queries. The answer never changes.
#[test]
fn crash_at_every_task_commit_boundary_preserves_parity() {
    let session = session(3);
    for query in [1, 3, 12] {
        let plan = quokka::tpch::query(query).unwrap();
        let expected = session.run_reference(&plan).unwrap();

        // Clean run first: count the task-commit boundaries to sweep.
        let clean = session.run_with(&plan, &EngineConfig::quokka(3)).unwrap();
        assert!(results_match(&expected, &clean.batch), "clean Q{query} diverged");
        let total = clean.metrics.tasks_executed;
        assert!(total > 0, "Q{query} executed no tasks");

        let stride = (total / 8).max(1);
        let mut fired = 0;
        let mut boundary = 1;
        while boundary <= total {
            let config =
                EngineConfig::quokka(3).with_chaos(ChaosPlan::kill_at_commits(1, boundary));
            let outcome = session.run_with(&plan, &config).unwrap_or_else(|e| {
                panic!("Q{query} failed when killed at commit boundary {boundary}: {e}")
            });
            assert!(
                results_match(&expected, &outcome.batch),
                "Q{query} diverged when worker 1 was killed at commit boundary {boundary}/{total}"
            );
            fired += outcome.metrics.chaos_events;
            boundary += stride;
        }
        assert!(fired > 0, "no injection ever fired while sweeping Q{query}");
    }
}

/// Seeded multi-event chaos: the same `(seed, workers)` pair always produces
/// the same plan, so any failure here is reproduced from the seed printed in
/// the panic message alone.
#[test]
fn randomized_chaos_is_survivable_and_reproducible_from_seed() {
    let session = session(4);
    let plan = quokka::tpch::query(3).unwrap();
    let expected = session.run_reference(&plan).unwrap();
    for seed in [1u64, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233] {
        let chaos = ChaosPlan::randomized(seed, 4);
        assert_eq!(
            format!("{chaos:?}"),
            format!("{:?}", ChaosPlan::randomized(seed, 4)),
            "ChaosPlan::randomized({seed}, 4) is not deterministic"
        );
        let config = EngineConfig::quokka(4)
            .with_chaos(chaos)
            .with_suspicion_timeout(Duration::from_millis(50));
        let outcome = session.run_with(&plan, &config).unwrap_or_else(|e| {
            panic!(
                "query failed under randomized chaos; reproduce with \
                 ChaosPlan::randomized({seed}, 4): {e}"
            )
        });
        assert!(
            results_match(&expected, &outcome.batch),
            "diverged under randomized chaos; reproduce with ChaosPlan::randomized({seed}, 4)"
        );
    }
}

/// A second worker dies while the first failure is still being repaired —
/// the paper's pipeline-parallel recovery must absorb both.
#[test]
fn a_second_kill_mid_recovery_still_converges() {
    let session = session(3);
    let plan = quokka::tpch::query(5).unwrap();
    let expected = session.run_reference(&plan).unwrap();
    let chaos = ChaosPlan::new()
        .with(ChaosTrigger::Progress(0.4), ChaosEvent::KillWorker { worker: 1 })
        .with(ChaosTrigger::RecoveryTasks(1), ChaosEvent::KillWorker { worker: 2 });
    let outcome = session.run_with(&plan, &EngineConfig::quokka(3).with_chaos(chaos)).unwrap();
    assert!(results_match(&expected, &outcome.batch), "diverged after a kill during recovery");
    assert_eq!(outcome.metrics.failures, 2, "both kills must be detected");
    assert!(outcome.metrics.recovery_tasks > 0);
}

/// Wiping a survivor's local backups before the kill forces recovery to
/// rewind past the missing partitions — a deeper lineage replay than the
/// happy path, with the same answer.
#[test]
fn wiped_backups_force_deeper_replay_and_still_converge() {
    let session = session(3);
    let plan = quokka::tpch::query(3).unwrap();
    let expected = session.run_reference(&plan).unwrap();
    let chaos = ChaosPlan::new()
        .with(ChaosTrigger::TaskCommits(2), ChaosEvent::LoseBackups { worker: 0 })
        .with(ChaosTrigger::Progress(0.5), ChaosEvent::KillWorker { worker: 1 });
    let outcome = session.run_with(&plan, &EngineConfig::quokka(3).with_chaos(chaos)).unwrap();
    assert!(results_match(&expected, &outcome.batch), "diverged after backups were wiped");
    assert_eq!(outcome.metrics.failures, 1);
}

/// Dropped pushes surface as transient errors; the bounded-backoff publish
/// loop must absorb them without changing the result.
#[test]
fn dropped_and_delayed_pushes_are_retried_transparently() {
    let session = session(3);
    let plan = quokka::tpch::query(12).unwrap();
    let expected = session.run_reference(&plan).unwrap();
    let chaos = ChaosPlan::new()
        .with(ChaosTrigger::TaskCommits(1), ChaosEvent::DropPushes { destination: 1, count: 3 })
        .with(
            ChaosTrigger::TaskCommits(2),
            ChaosEvent::DelayPushes { destination: 2, count: 2, delay: Duration::from_millis(2) },
        );
    let outcome = session.run_with(&plan, &EngineConfig::quokka(3).with_chaos(chaos)).unwrap();
    assert!(results_match(&expected, &outcome.batch), "diverged under push faults");
    assert_eq!(outcome.metrics.failures, 0, "push faults are not worker failures");
    assert!(
        outcome.metrics.push_retries >= 1,
        "dropped pushes must be visible as retries, got {}",
        outcome.metrics.push_retries
    );
}

/// Suppressing a live worker's heartbeats makes the detector suspect it.
/// Suspicion reconciles the worker's channels without killing it; the
/// commit-time channel CAS keeps any in-flight work from double-counting.
#[test]
fn a_false_suspicion_never_corrupts_the_result() {
    let session = session(3);
    let plan = quokka::tpch::query(6).unwrap();
    let expected = session.run_reference(&plan).unwrap();
    let chaos = ChaosPlan::new()
        .with(ChaosTrigger::TaskCommits(2), ChaosEvent::SuspectWorker { worker: 1 })
        .with(
            ChaosTrigger::TaskCommits(2),
            ChaosEvent::Straggler { worker: 1, count: 3, delay: Duration::from_millis(30) },
        );
    let config =
        EngineConfig::quokka(3).with_chaos(chaos).with_suspicion_timeout(Duration::from_millis(20));
    let outcome = session.run_with(&plan, &config).unwrap();
    assert!(results_match(&expected, &outcome.batch), "diverged after a false suspicion");
    assert_eq!(outcome.metrics.failures, 0, "a suspected worker must not be declared failed");
    assert!(
        outcome.metrics.suspicions >= 1,
        "the silent worker was never suspected (suspicions = {})",
        outcome.metrics.suspicions
    );
}

/// Stragglers only stretch the runtime; they never change the answer.
#[test]
fn stragglers_only_slow_the_query_down() {
    let session = session(3);
    let plan = quokka::tpch::query(1).unwrap();
    let expected = session.run_reference(&plan).unwrap();
    let chaos = ChaosPlan::new().with(
        ChaosTrigger::TaskCommits(1),
        ChaosEvent::Straggler { worker: 2, count: 4, delay: Duration::from_millis(5) },
    );
    let outcome = session.run_with(&plan, &EngineConfig::quokka(3).with_chaos(chaos)).unwrap();
    assert!(results_match(&expected, &outcome.batch));
    assert!(outcome.metrics.chaos_events >= 1, "the straggler injection never fired");
}

/// A query that cannot finish inside its deadline fails with the typed
/// [`QuokkaError::Timeout`] instead of hanging or panicking.
#[test]
fn a_tight_deadline_fails_with_a_typed_timeout() {
    let session = session(3);
    let plan = quokka::tpch::query(3).unwrap();
    let chaos = ChaosPlan::new().with(
        ChaosTrigger::TaskCommits(1),
        ChaosEvent::Straggler { worker: 0, count: 8, delay: Duration::from_millis(40) },
    );
    let config =
        EngineConfig::quokka(3).with_chaos(chaos).with_query_timeout(Duration::from_millis(1));
    match session.run_with(&plan, &config) {
        Err(QuokkaError::Timeout { elapsed, limit }) => {
            assert_eq!(limit, Duration::from_millis(1));
            assert!(elapsed >= limit, "reported {elapsed:?} elapsed under a {limit:?} limit");
        }
        Err(other) => panic!("expected a typed Timeout, got: {other}"),
        Ok(_) => panic!("a 1ms deadline cannot be met under 320ms of injected straggle"),
    }
}

/// The effective failure-detection settings travel with the metrics, so an
/// operator can see what a run actually used (builder values here; the
/// `QUOKKA_WATCHDOG_SECS` override path is covered in `tests/watchdog_env.rs`).
#[test]
fn effective_failure_detection_settings_are_reported() {
    let session = session(3);
    let plan = quokka::tpch::query(6).unwrap();
    let config = EngineConfig::quokka(3)
        .with_watchdog(Duration::from_secs(77))
        .with_suspicion_timeout(Duration::from_millis(123));
    let outcome = session.run_with(&plan, &config).unwrap();
    assert_eq!(outcome.metrics.effective_watchdog, Duration::from_secs(77));
    assert_eq!(outcome.metrics.effective_suspicion_timeout, Duration::from_millis(123));
}

/// The four decorrelated DataFrame twins (semi/anti-join shapes) survive a
/// combined kill + dropped-push plan with batch-level parity against the
/// reference executor.
#[test]
fn dataframe_twins_survive_a_chaos_plan() {
    let session = session(3);
    let chaos = ChaosPlan::new()
        .with(ChaosTrigger::Progress(0.5), ChaosEvent::KillWorker { worker: 1 })
        .with(ChaosTrigger::TaskCommits(2), ChaosEvent::DropPushes { destination: 2, count: 2 });
    let config = EngineConfig::quokka(3).with_chaos(chaos);
    for q in [4, 16, 18, 22] {
        let df = quokka::dataframe::tpch::query(&session, q).unwrap();
        let expected = df.collect_reference().unwrap();
        let outcome = df
            .collect_with(&config)
            .unwrap_or_else(|e| panic!("DataFrame Q{q} failed under chaos: {e}"));
        assert!(
            results_match(&expected, &outcome.batch),
            "DataFrame Q{q} diverged under the chaos plan"
        );
    }
}

/// Count the live engine threads whose name starts with `prefix`.
///
/// Thread names land in `/proc/self/task/<tid>/comm` (worker threads are
/// named `quokka-w{worker}-s{stage}`); this suite is the only binary using a
/// 5-worker cluster, so `quokka-w4-` threads can only come from the test
/// below.
fn live_threads_with_prefix(prefix: &str) -> usize {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else { return 0 };
    tasks
        .filter_map(|entry| entry.ok())
        .filter(|entry| {
            std::fs::read_to_string(entry.path().join("comm"))
                .map(|comm| comm.trim().starts_with(prefix))
                .unwrap_or(false)
        })
        .count()
}

/// Dropping the [`BatchStream`](quokka::BatchStream) while recovery is in
/// flight cancels the query: every worker thread must exit instead of
/// spinning on a result nobody will read.
#[test]
fn dropping_the_stream_mid_recovery_quiesces_the_workers() {
    let session = session(5);
    // Slow the query down so it is still mid-recovery when we walk away.
    let chaos = ChaosPlan::new()
        .with(ChaosTrigger::TaskCommits(1), ChaosEvent::KillWorker { worker: 1 })
        .with(
            ChaosTrigger::TaskCommits(2),
            ChaosEvent::Straggler { worker: 0, count: 16, delay: Duration::from_millis(10) },
        );
    let config = EngineConfig::quokka(5).with_chaos(chaos);
    let handle = session.tpch_query(3).unwrap();
    {
        let stream = handle.stream_with(&config).unwrap();
        // Worker threads spawn asynchronously; wait for the cluster to come
        // up (and keep the stream alive meanwhile) before walking away.
        let startup = std::time::Instant::now() + Duration::from_secs(5);
        while live_threads_with_prefix("quokka-w4-") == 0 && !stream.is_finished() {
            assert!(std::time::Instant::now() < startup, "the 5-worker cluster never started");
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(stream);
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while live_threads_with_prefix("quokka-w4-") > 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "worker threads still alive 10s after the stream was dropped"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}
