//! The chaos engine: applies a [`ChaosPlan`] to a running query.
//!
//! Triggers count task commits (input splits consumed, tasks committed,
//! recovery tasks, a worker's state-holding commits). Every commit of an
//! armed query goes through [`ChaosEngine::commit`], which counts it and,
//! when it crosses a pending trigger, raises the recovery barrier in the
//! commit's own GCS transaction. No other task can commit until the
//! coordinator has applied the fired events ([`ChaosEngine::take_fired`],
//! [`apply`]) and lowered the barrier, so an injection lands at exactly the
//! commit its trigger names, whatever the thread scheduling.

use crate::worker::Services;
use parking_lot::Mutex;
use quokka_common::chaos::{ChaosEvent, ChaosInjection, ChaosPlan, ChaosTrigger};
use quokka_common::config::EngineConfig;
use quokka_common::ids::WorkerId;
use quokka_common::Result;
use std::sync::atomic::{AtomicBool, Ordering};

/// What one task commit adds to the trigger counters.
#[derive(Debug, Clone, Copy)]
pub struct CommitTally {
    pub worker: WorkerId,
    /// Source splits the task consumed.
    pub splits: u64,
    /// The task re-executed logged lineage (a recovery task).
    pub recovery: bool,
    /// The commit leaves operator state on `worker`: its stage is stateful
    /// and its channel is not finished.
    pub holds_state: bool,
}

/// Running totals over the commits of one execution.
#[derive(Debug, Clone, Default)]
struct Counts {
    commits: u64,
    recovery: u64,
    splits: u64,
    /// State-holding commits per worker.
    stateful: Vec<u64>,
}

impl Counts {
    fn add(&mut self, tally: &CommitTally) {
        self.commits += 1;
        self.recovery += u64::from(tally.recovery);
        self.splits += tally.splits;
        if tally.holds_state {
            self.stateful[tally.worker as usize] += 1;
        }
    }

    fn reached(&self, trigger: ChaosTrigger, total_splits: u64) -> bool {
        match trigger {
            ChaosTrigger::Progress(fraction) => {
                total_splits == 0 || self.splits as f64 / total_splits as f64 >= fraction
            }
            ChaosTrigger::TaskCommits(n) => self.commits >= n,
            ChaosTrigger::RecoveryTasks(n) => self.recovery >= n,
            ChaosTrigger::StatefulCommits { worker, commits } => {
                self.stateful.get(worker as usize).copied().unwrap_or(0) >= commits
            }
        }
    }
}

#[derive(Debug)]
struct ChaosState {
    pending: Vec<ChaosInjection>,
    /// Events whose trigger was crossed, waiting for the coordinator.
    fired: Vec<ChaosEvent>,
    counts: Counts,
    total_splits: u64,
}

impl ChaosState {
    /// Move every pending injection whose trigger the counts reach to
    /// `fired`, keeping plan order.
    fn fire_reached(&mut self) {
        let (counts, total) = (&self.counts, self.total_splits);
        let (due, pending): (Vec<_>, Vec<_>) =
            self.pending.drain(..).partition(|i| counts.reached(i.at, total));
        self.pending = pending;
        self.fired.extend(due.into_iter().map(|i| i.event));
    }
}

/// Counts commits against a chaos plan's triggers and fires its injections.
#[derive(Debug)]
pub struct ChaosEngine {
    /// Whether injections are still pending; commits skip the lock once
    /// every injection has fired (and always, for plans without any).
    armed: AtomicBool,
    state: Mutex<ChaosState>,
}

impl ChaosEngine {
    /// Build the engine from a query's configuration: the legacy
    /// `FailureSpec` list is folded into chaos injections so the engine has
    /// exactly one injection path, then the configured [`ChaosPlan`] is
    /// appended. Triggers already reached before any commit (a zero
    /// threshold) fire at once.
    pub fn new(config: &EngineConfig, total_splits: u64) -> Self {
        let mut plan = ChaosPlan::from_failures(&config.failures);
        plan.injections.extend(config.chaos.injections.iter().copied());
        let mut state = ChaosState {
            pending: plan.injections,
            fired: Vec::new(),
            counts: Counts {
                stateful: vec![0; config.cluster.workers as usize],
                ..Counts::default()
            },
            total_splits,
        };
        state.fire_reached();
        ChaosEngine { armed: AtomicBool::new(!state.pending.is_empty()), state: Mutex::new(state) }
    }

    /// Whether fired events are waiting for the coordinator. Before any
    /// commit, these are the triggers reached at zero; the runtime raises
    /// the barrier for them before a worker starts.
    pub fn has_fired(&self) -> bool {
        !self.state.lock().fired.is_empty()
    }

    /// Commit one task through `commit`, passing it whether its transaction
    /// must also raise the recovery barrier (the commit crosses a pending
    /// trigger). The counts advance only if the commit succeeds, and
    /// commits of an armed query are serialized so exactly one crosses.
    pub fn commit(
        &self,
        tally: &CommitTally,
        commit: impl FnOnce(bool) -> Result<()>,
    ) -> Result<()> {
        if !self.armed.load(Ordering::SeqCst) {
            return commit(false);
        }
        let mut state = self.state.lock();
        let mut counts = state.counts.clone();
        counts.add(tally);
        let crossing = state.pending.iter().any(|i| counts.reached(i.at, state.total_splits));
        commit(crossing)?;
        state.counts = counts;
        if crossing {
            state.fire_reached();
            self.armed.store(!state.pending.is_empty(), Ordering::SeqCst);
        }
        Ok(())
    }

    /// The events that fired since the last call, in plan order. While any
    /// are outstanding the barrier they raised stays up.
    pub fn take_fired(&self) -> Vec<ChaosEvent> {
        std::mem::take(&mut self.state.lock().fired)
    }
}

/// Apply one fired event. Events that only degrade the run take effect here;
/// a kill returns its worker for the coordinator, which owns the recovery
/// protocol.
pub fn apply(event: ChaosEvent, services: &Services) -> Option<WorkerId> {
    services.metrics.add_chaos_event();
    let live = |worker: WorkerId| worker < services.layout.workers() && !services.is_killed(worker);
    match event {
        ChaosEvent::KillWorker { worker } => return live(worker).then_some(worker),
        ChaosEvent::SuspectWorker { worker } if live(worker) => {
            services.suppress_heartbeats(worker, true)
        }
        ChaosEvent::LoseBackups { worker } if live(worker) => {
            services.backups[worker as usize].lose_contents()
        }
        ChaosEvent::DropPushes { destination, count } => {
            services.plane.inject_drop_pushes(destination, count)
        }
        ChaosEvent::DelayPushes { destination, count, delay } => {
            services.plane.inject_delay_pushes(destination, count, delay)
        }
        ChaosEvent::Straggler { worker, count, delay } if live(worker) => {
            services.set_straggler(worker, count, delay)
        }
        ChaosEvent::SuspectWorker { .. }
        | ChaosEvent::LoseBackups { .. }
        | ChaosEvent::Straggler { .. } => {}
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use quokka_common::QuokkaError;

    fn tally(worker: WorkerId, holds_state: bool) -> CommitTally {
        CommitTally { worker, splits: 1, recovery: false, holds_state }
    }

    fn engine(plan: ChaosPlan, total_splits: u64) -> ChaosEngine {
        ChaosEngine::new(&EngineConfig::quokka(3).with_chaos(plan), total_splits)
    }

    /// Commit one task; whether its transaction was asked to raise the
    /// barrier.
    fn raises(chaos: &ChaosEngine, tally: CommitTally) -> bool {
        let mut raised = false;
        chaos
            .commit(&tally, |raise| {
                raised = raise;
                Ok(())
            })
            .unwrap();
        raised
    }

    #[test]
    fn exactly_the_crossing_commit_raises_the_barrier() {
        let chaos = engine(ChaosPlan::kill_at_commits(1, 3), 10);
        let raised: Vec<bool> = (0..5).map(|_| raises(&chaos, tally(0, false))).collect();
        assert_eq!(raised, vec![false, false, true, false, false]);
        assert_eq!(chaos.take_fired(), vec![ChaosEvent::KillWorker { worker: 1 }]);
        assert!(chaos.take_fired().is_empty(), "an injection fires once");
    }

    #[test]
    fn aborted_commits_are_not_counted() {
        let chaos = engine(ChaosPlan::kill_at_progress(2, 0.5), 4);
        let abort = |_| Err(QuokkaError::TransactionAborted("barrier".to_string()));
        assert!(chaos.commit(&tally(0, false), abort).is_err());
        assert!(!raises(&chaos, tally(0, false)));
        assert!(raises(&chaos, tally(0, false)), "the second counted split is half of four");
        assert_eq!(chaos.take_fired(), vec![ChaosEvent::KillWorker { worker: 2 }]);
    }

    #[test]
    fn stateful_commits_count_only_the_named_worker() {
        let trigger = ChaosTrigger::StatefulCommits { worker: 1, commits: 2 };
        let chaos = engine(ChaosPlan::new().with(trigger, ChaosEvent::KillWorker { worker: 1 }), 8);
        for (worker, holds_state) in [(0, true), (1, false), (1, true), (2, true)] {
            assert!(!raises(&chaos, tally(worker, holds_state)));
        }
        assert!(raises(&chaos, tally(1, true)));
    }

    #[test]
    fn triggers_reached_before_any_commit_fire_at_once() {
        let chaos = engine(ChaosPlan::kill_at_commits(0, 0), 4);
        assert!(chaos.has_fired());
        assert!(!engine(ChaosPlan::kill_at_commits(0, 1), 4).has_fired());
        // A query without source splits is complete progress from the start.
        assert!(engine(ChaosPlan::kill_at_progress(0, 0.5), 0).has_fired());
    }
}
