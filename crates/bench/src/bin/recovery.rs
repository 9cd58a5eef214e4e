//! Recovery-vs-restart harness: what intra-query fault tolerance buys.
//!
//! For each query, four timed runs on the same data set:
//!
//! * **wal clean** — write-ahead lineage, no failure (WAL's baseline cost).
//! * **wal kill** — write-ahead lineage with a worker killed at 50% of the
//!   query; Algorithm 2 rewinds and replays only what the failure lost.
//! * **restart clean** — the no-recovery baseline, no failure.
//! * **restart kill** — the no-recovery baseline with the same kill; the
//!   whole query reruns from scratch.
//!
//! The gated comparison is the **time lost to the failure** — kill-run
//! minus clean-run, each strategy against its own failure-free baseline,
//! the paper's Fig. 10 framing. Comparing raw totals instead would mostly
//! measure WAL's per-partition backup cost (which the simulated cost model
//! deliberately taxes), not the recovery path. The four runs repeat
//! `QUOKKA_REPS` times; the gated loss is the **median of the per-rep
//! paired differences** (each kill run diffed against the clean run right
//! next to it, so drifting machine load cancels within the pair), while
//! the reported totals are each configuration's fastest rep.
//!
//! Results go to `BENCH_recovery.json`. The run **fails** (non-zero exit)
//! if, for any gated query, recovering from a 50%-progress kill does not
//! lose strictly less time than restarting from scratch does.
//!
//! Run with: `cargo run --release -p quokka-bench --bin recovery`
//!
//! Environment knobs: `QUOKKA_SF` (default 0.01), `QUOKKA_WORKERS` (default
//! 4), `QUOKKA_QUERIES` (default 3,9), `QUOKKA_REPS` (default 5),
//! `QUOKKA_BENCH_OUT` (default `BENCH_recovery.json`).

use quokka::FaultStrategy;
use quokka_bench::{env_or, queries_from_env, workers_from_env, Harness};

/// Queries whose recovery must strictly beat a restart.
const GATED: [usize; 2] = [3, 9];

/// The progress fraction at which the worker is killed.
const KILL_AT: f64 = 0.5;

struct Entry {
    query: usize,
    wal_clean: f64,
    wal_kill: f64,
    restart_clean: f64,
    restart_kill: f64,
    /// Per-repetition `kill - clean` differences, one pair per rep.
    recovery_diffs: Vec<f64>,
    restart_diffs: Vec<f64>,
    recovery_tasks: u64,
}

/// The median of a set of paired timing differences. Each difference is
/// taken between a kill run and a clean run executed back-to-back, so
/// drifting machine load cancels within the pair; the median then shrugs
/// off the occasional rep where the scheduler hiccuped anyway. (Comparing
/// mins of independently-sampled totals instead lets one lucky/unlucky
/// rep understate a strategy's loss and flake the gate.)
fn median(diffs: &[f64]) -> f64 {
    let mut sorted = diffs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

impl Entry {
    /// Wall-clock cost of the failure under intra-query recovery.
    fn recovery_lost(&self) -> f64 {
        median(&self.recovery_diffs)
    }

    /// Wall-clock cost of the failure under restart-from-scratch.
    fn restart_lost(&self) -> f64 {
        median(&self.restart_diffs)
    }
}

/// One full measurement of a query: `reps` back-to-back (clean, kill)
/// pairs for each strategy, paired differences recorded per rep.
fn measure(
    harness: &Harness,
    q: usize,
    wal: &quokka::EngineConfig,
    none: &quokka::EngineConfig,
    reps: usize,
) -> quokka::Result<Entry> {
    let mut e = Entry {
        query: q,
        wal_clean: f64::INFINITY,
        wal_kill: f64::INFINITY,
        restart_clean: f64::INFINITY,
        restart_kill: f64::INFINITY,
        recovery_diffs: Vec::new(),
        restart_diffs: Vec::new(),
        recovery_tasks: 0,
    };
    for _ in 0..reps.max(1) {
        let wal_clean = harness.run("wal-clean", q, wal)?.seconds;
        let m = harness.run_with_failure("wal-kill", q, wal, 1, KILL_AT)?;
        assert_eq!(m.metrics.failures, 1, "Q{q}: the kill never fired");
        e.wal_clean = e.wal_clean.min(wal_clean);
        if m.seconds < e.wal_kill {
            e.wal_kill = m.seconds;
            e.recovery_tasks = m.metrics.recovery_tasks;
        }
        e.recovery_diffs.push(m.seconds - wal_clean);

        let restart_clean = harness.run("restart-clean", q, none)?.seconds;
        let restart_kill = harness.run_with_failure("restart-kill", q, none, 1, KILL_AT)?.seconds;
        e.restart_clean = e.restart_clean.min(restart_clean);
        e.restart_kill = e.restart_kill.min(restart_kill);
        e.restart_diffs.push(restart_kill - restart_clean);
    }
    eprintln!(
        "Q{q:<3} wal {:>7.3}s +{:>6.3}s on kill   restart {:>7.3}s +{:>6.3}s on kill",
        e.wal_clean,
        e.recovery_lost(),
        e.restart_clean,
        e.restart_lost(),
    );
    Ok(e)
}

fn main() -> quokka::Result<()> {
    let harness = Harness::from_env()?;
    let workers = workers_from_env(&[4])[0];
    let queries = queries_from_env(&[3, 9]);
    let reps: usize = env_or("QUOKKA_REPS", 5);
    let out_path = env_or("QUOKKA_BENCH_OUT", "BENCH_recovery.json".to_string());

    let wal = harness.quokka_config(workers);
    let none = harness.quokka_config(workers).with_fault(FaultStrategy::None);

    let mut entries = Vec::new();
    for &q in &queries {
        entries.push(measure(&harness, q, &wal, &none, reps)?);
    }

    // A gated query whose medians land the wrong way round gets one full
    // re-measurement before the verdict counts: a genuine regression fails
    // both rounds, while a scheduler hiccup on an oversubscribed CI box
    // (the margins here are tenths of a second) almost never strikes the
    // same query twice in a row.
    for q in GATED {
        let idx = entries.iter().position(|e| e.query == q).unwrap_or_else(|| {
            panic!("Q{q} is gated but was not run; include it in QUOKKA_QUERIES")
        });
        if entries[idx].recovery_lost() >= entries[idx].restart_lost() {
            eprintln!("Q{q}: gate margin inverted; re-measuring once to confirm");
            entries[idx] = measure(&harness, q, &wal, &none, reps * 2)?;
        }
    }

    // Hand-rolled JSON (no serde in this environment).
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"scale_factor\": {},\n", harness.scale_factor));
    json.push_str(&format!("  \"workers\": {workers},\n"));
    json.push_str(&format!("  \"kill_at_progress\": {KILL_AT},\n"));
    json.push_str(&format!("  \"repetitions\": {reps},\n"));
    json.push_str("  \"queries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"query\": {}, \"wal_clean_seconds\": {:.6}, \"wal_kill_seconds\": {:.6}, \
             \"restart_clean_seconds\": {:.6}, \"restart_kill_seconds\": {:.6}, \
             \"recovery_lost_seconds\": {:.6}, \"restart_lost_seconds\": {:.6}, \
             \"recovery_overhead\": {:.4}, \"restart_overhead\": {:.4}, \"recovery_tasks\": {}}}{}\n",
            e.query,
            e.wal_clean,
            e.wal_kill,
            e.restart_clean,
            e.restart_kill,
            e.recovery_lost(),
            e.restart_lost(),
            e.wal_kill / e.wal_clean,
            e.restart_kill / e.restart_clean,
            e.recovery_tasks,
            if i + 1 < entries.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write benchmark results");
    eprintln!("wrote {out_path}");

    // Regression gate: recovering a half-done query must waste strictly
    // less time than rerunning it from scratch. A gated query missing from
    // the run set is itself a failure — the gate must never pass vacuously.
    for q in GATED {
        let e = entries.iter().find(|e| e.query == q).unwrap_or_else(|| {
            panic!("Q{q} is gated but was not run; include it in QUOKKA_QUERIES")
        });
        assert!(
            e.recovery_lost() < e.restart_lost(),
            "Q{q}: recovery from a 50% kill lost {:.3}s, restarting lost only {:.3}s",
            e.recovery_lost(),
            e.restart_lost()
        );
        assert!(e.recovery_tasks > 0, "Q{q}: recovery replayed no tasks — was the kill injected?");
    }
    eprintln!(
        "[recovery] gate passed: a 50% kill costs less under intra-query recovery \
         than under restart-from-scratch (Q3/Q9)"
    );
    Ok(())
}
