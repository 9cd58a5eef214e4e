//! Deterministic chaos plans: reproducible schedules of injectable faults.
//!
//! The paper's failure experiment (§V-D) has one fault shape — "kill worker
//! W once a fraction of the input has been consumed". The chaos vocabulary
//! here generalises that into a [`ChaosPlan`]: an ordered set of
//! [`ChaosInjection`]s, each pairing a counter-based [`ChaosTrigger`] with a
//! [`ChaosEvent`]. Triggers fire on *engine counters* (input progress, task
//! commits, recovery tasks) rather than wall-clock time, so a plan injects
//! the same faults at the same logical points on every run — and a failing
//! randomized plan can be reproduced from nothing but its seed.

use crate::ids::WorkerId;
use crate::rng::DetRng;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// When an injection fires. All triggers are monotone counters over task
/// commits, so "at" means "at the commit that first makes the counter reach
/// the threshold" — never twice, never on a clock. That commit raises the
/// recovery barrier in its own transaction, so no later commit lands before
/// the event has been applied.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ChaosTrigger {
    /// Fire once this fraction of the query's source splits has been
    /// consumed (0.0 ..= 1.0; splits re-read by recovery count again). The
    /// trigger of the paper's kill experiment.
    Progress(f64),
    /// Fire once the engine has committed this many tasks in total. This is
    /// the "kill at a task-commit boundary" trigger: sweeping the threshold
    /// over `1..=total_tasks` crashes the engine at every boundary.
    TaskCommits(u64),
    /// Fire once this many *recovery* tasks (replays + rewinds) have
    /// executed — i.e. while recovery from an earlier fault is still in
    /// flight. Used to inject a second failure mid-recovery.
    RecoveryTasks(u64),
    /// Fire once `worker` has made this many commits that leave operator
    /// state behind: commits of a stateful stage (join, aggregate, sort)
    /// whose channel is not finished yet. Killing `worker` at that commit
    /// provably loses state that recovery must rebuild by lineage replay.
    StatefulCommits { worker: WorkerId, commits: u64 },
}

/// What happens when a trigger fires.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ChaosEvent {
    /// Kill a worker: flight server, backup disk and task threads all die.
    KillWorker { worker: WorkerId },
    /// Suppress a worker's heartbeats without killing it. The failure
    /// detector must eventually suspect the worker and reconcile its
    /// channels away — and the query must still answer correctly even
    /// though the "failed" worker is alive and mid-task.
    SuspectWorker { worker: WorkerId },
    /// Wipe a worker's local backup store without killing the worker. The
    /// GCS still believes those partitions are backed up, so a later replay
    /// request fails at read time and recovery must fall back to deeper
    /// lineage replay (rewinding the producer).
    LoseBackups { worker: WorkerId },
    /// Make the next `count` data-plane pushes *to* `destination` fail with
    /// a retryable transport error, exercising the push retry path.
    DropPushes { destination: WorkerId, count: u32 },
    /// Delay the next `count` data-plane pushes *to* `destination` by
    /// `delay` each (a slow network path / transient congestion).
    DelayPushes { destination: WorkerId, count: u32, delay: Duration },
    /// Make the next `count` tasks executed *by* `worker` each take at
    /// least `delay` longer (a straggler node). Stresses the failure
    /// detector's ability to distinguish slow from dead.
    Straggler { worker: WorkerId, count: u32, delay: Duration },
}

impl ChaosEvent {
    /// Short human label used in logs and panic messages.
    pub fn label(&self) -> &'static str {
        match self {
            ChaosEvent::KillWorker { .. } => "kill-worker",
            ChaosEvent::SuspectWorker { .. } => "suspect-worker",
            ChaosEvent::LoseBackups { .. } => "lose-backups",
            ChaosEvent::DropPushes { .. } => "drop-pushes",
            ChaosEvent::DelayPushes { .. } => "delay-pushes",
            ChaosEvent::Straggler { .. } => "straggler",
        }
    }
}

/// One scheduled fault: fire `event` when `at` triggers.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChaosInjection {
    pub at: ChaosTrigger,
    pub event: ChaosEvent,
}

/// A reproducible schedule of faults for one query run.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ChaosPlan {
    pub injections: Vec<ChaosInjection>,
}

impl ChaosPlan {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn is_empty(&self) -> bool {
        self.injections.is_empty()
    }

    /// Builder: add one injection.
    pub fn with(mut self, at: ChaosTrigger, event: ChaosEvent) -> Self {
        self.injections.push(ChaosInjection { at, event });
        self
    }

    /// Kill `worker` once `commits` tasks have committed — the sweep
    /// primitive ("crash at the k-th task-commit boundary").
    pub fn kill_at_commits(worker: WorkerId, commits: u64) -> Self {
        Self::new().with(ChaosTrigger::TaskCommits(commits), ChaosEvent::KillWorker { worker })
    }

    /// Kill `worker` at an input-progress fraction (the paper's experiment
    /// kills one at 0.5). Add a second kill with [`ChaosPlan::with`].
    pub fn kill_at_progress(worker: WorkerId, fraction: f64) -> Self {
        Self::new().with(ChaosTrigger::Progress(fraction), ChaosEvent::KillWorker { worker })
    }

    /// Kill `worker` at its first commit that leaves operator state behind
    /// (see [`ChaosTrigger::StatefulCommits`]): recovery then always has
    /// state to rebuild, however fast the query runs.
    pub fn kill_holding_state(worker: WorkerId) -> Self {
        Self::new().with(
            ChaosTrigger::StatefulCommits { worker, commits: 1 },
            ChaosEvent::KillWorker { worker },
        )
    }

    /// A randomized-but-reproducible plan: the same `(seed, workers)` pair
    /// always yields the same plan, so a failing run is reproduced from its
    /// printed seed alone.
    ///
    /// The generated plan is always *survivable* for a strategy with
    /// intra-query recovery: at most `workers - 1` distinct workers are
    /// killed (at least one survivor keeps the query schedulable), delays
    /// are bounded to tens of milliseconds, and drop counts are small enough
    /// that bounded retries clear them.
    pub fn randomized(seed: u64, workers: u32) -> Self {
        assert!(workers >= 2, "randomized chaos needs at least 2 workers");
        let mut rng = DetRng::derive(seed, 0xC4A0_5EED);
        let mut plan = Self::new();
        let events = 1 + rng.next_below(3); // 1..=3 injections
        let mut kills: Vec<WorkerId> = Vec::new();
        for _ in 0..events {
            let worker = rng.next_below(workers as u64) as WorkerId;
            let trigger = match rng.next_below(3) {
                0 => ChaosTrigger::Progress(rng.range_f64(0.1, 0.9)),
                1 => ChaosTrigger::TaskCommits(1 + rng.next_below(64)),
                _ => ChaosTrigger::RecoveryTasks(1 + rng.next_below(4)),
            };
            let event = match rng.next_below(7) {
                0 | 1 if (kills.len() as u32) < workers - 1 && !kills.contains(&worker) => {
                    kills.push(worker);
                    ChaosEvent::KillWorker { worker }
                }
                2 => ChaosEvent::SuspectWorker { worker },
                3 => ChaosEvent::LoseBackups { worker },
                4 => ChaosEvent::DropPushes {
                    destination: worker,
                    count: 1 + rng.next_below(8) as u32,
                },
                5 => ChaosEvent::DelayPushes {
                    destination: worker,
                    count: 1 + rng.next_below(8) as u32,
                    delay: Duration::from_millis(1 + rng.next_below(10)),
                },
                // 6, or a kill roll whose guard failed (dead / too many kills).
                _ => ChaosEvent::Straggler {
                    worker,
                    count: 1 + rng.next_below(6) as u32,
                    delay: Duration::from_millis(1 + rng.next_below(15)),
                },
            };
            plan = plan.with(trigger, event);
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn randomized_plans_are_reproducible_from_the_seed() {
        for seed in 0..64 {
            let a = ChaosPlan::randomized(seed, 4);
            let b = ChaosPlan::randomized(seed, 4);
            assert_eq!(a, b, "seed {seed} must reproduce the same plan");
            assert!(!a.is_empty());
            assert!(a.injections.len() <= 3);
        }
        assert_ne!(ChaosPlan::randomized(1, 4), ChaosPlan::randomized(2, 4));
    }

    #[test]
    fn randomized_plans_leave_a_survivor() {
        for seed in 0..256 {
            let plan = ChaosPlan::randomized(seed, 3);
            let killed: Vec<_> = plan
                .injections
                .iter()
                .filter_map(|i| match i.event {
                    ChaosEvent::KillWorker { worker } => Some(worker),
                    _ => None,
                })
                .collect();
            assert!(killed.len() <= 2, "seed {seed} kills too many workers: {killed:?}");
            let mut unique = killed.clone();
            unique.sort_unstable();
            unique.dedup();
            assert_eq!(unique.len(), killed.len(), "seed {seed} kills a worker twice");
        }
    }

    #[test]
    fn builders_compose() {
        let plan = ChaosPlan::kill_at_commits(0, 7)
            .with(ChaosTrigger::RecoveryTasks(2), ChaosEvent::KillWorker { worker: 1 })
            .with(ChaosTrigger::Progress(0.3), ChaosEvent::DropPushes { destination: 2, count: 4 });
        assert_eq!(plan.injections.len(), 3);
        assert_eq!(plan.injections[0].at, ChaosTrigger::TaskCommits(7));
        assert_eq!(plan.injections[1].event.label(), "kill-worker");
        assert_eq!(plan.injections[2].event.label(), "drop-pushes");
    }
}
