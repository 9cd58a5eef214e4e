//! The coordinator: chaos injection, failure detection and Algorithm 2.
//!
//! The coordinator never talks to TaskManagers directly (§IV-B/C): every
//! action is an edit of the GCS. On failure it raises the pause barrier,
//! reconciles the GCS to a consistent state — rewinding the channels that
//! lived on the failed worker, scheduling replay of the partitions they need
//! that still exist on live workers' disks (or in the durable store under
//! the spooling strategy), and rewinding producers whose partitions are
//! gone — then lowers the barrier and lets the TaskManagers carry on.
//! Rewound stateful channels of different stages land on different workers:
//! pipeline-parallel recovery (§III-B).
//!
//! The coordinator makes a supervision pass whenever its wakeup is
//! notified — a sink commit or, in process mode, a sink partition reaching
//! the driver; a commit that crossed a chaos trigger; a worker failing the
//! query or reporting a lost partition — and at least every
//! `heartbeat_interval`.
//!
//! Beyond deaths injected by the chaos plan, the coordinator runs a
//! heartbeat-based **failure detector**: every stage thread bumps its
//! worker's liveness counter on every pass, and a worker whose counter
//! stalls for longer than the configured suspicion timeout is *suspected*.
//! Suspicion is conservative — the worker is not killed (it may merely be
//! partitioned or slow); its channels are reconciled onto trusted workers,
//! and a compare-and-swap guard in the task commit ensures a suspect that
//! was alive all along cannot clobber the reconciled state. The coordinator
//! also enforces the per-query deadline (`EngineConfig::query_timeout`) and
//! repairs partitions reported lost by replay reads (deeper lineage replay).

use crate::chaos;
use crate::worker::Services;
use quokka_common::ids::{ChannelAddr, WorkerId};
use quokka_common::{QuokkaError, Result};
use quokka_gcs::tables::{ChannelState, ReplayRequest};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How the coordinator's supervision of one query ended.
#[derive(Debug, Clone, PartialEq)]
pub enum CoordinatorOutcome {
    /// The sink stage finished; every result batch has been streamed.
    Completed,
    /// The query failed with an unrecoverable (typed) error.
    Failed(QuokkaError),
    /// A worker died and the configured strategy has no intra-query
    /// recovery; the caller should restart the query on the surviving
    /// workers (the paper's restart baseline).
    NeedsRestart { failed: Vec<WorkerId> },
}

/// Per-worker failure-detector bookkeeping.
struct DetectorEntry {
    last_count: u64,
    last_change: Instant,
    /// Consecutive suspicions without a heartbeat in between. The first
    /// strike reconciles conservatively (the worker may be partitioned);
    /// a worker still silent after that is declared dead — the only way a
    /// worker whose *process* was killed (process mode) ever gets its
    /// lost backups converted into producer rewinds.
    strikes: u32,
}

/// The coordinator for one query execution.
pub struct Coordinator {
    services: Arc<Services>,
    /// Abort the query if it makes no progress for this long (defensive
    /// watchdog so a scheduling bug cannot hang the benchmark harness).
    /// Comes from `EngineConfig::watchdog`; `QUOKKA_WATCHDOG_SECS` is
    /// resolved into the config — loudly rejecting malformed values — before
    /// the coordinator is built.
    pub watchdog: Duration,
}

impl Coordinator {
    pub fn new(services: Arc<Services>) -> Self {
        let watchdog = services.config.watchdog;
        Coordinator { services, watchdog }
    }

    fn sink_done(&self) -> bool {
        self.services
            .layout
            .channels_of(self.services.layout.sink())
            .iter()
            .all(|&c| self.services.gcs.get_channel(c).map(|s| s.done).unwrap_or(false))
    }

    /// Supervise the query until completion, failure or restart.
    pub fn run(&self) -> CoordinatorOutcome {
        let mut injected: Vec<WorkerId> = Vec::new();
        let heartbeat = self.services.config.cluster.heartbeat_interval;
        let suspicion_timeout = self.services.config.cluster.suspicion_timeout;
        let deadline = self.services.config.query_timeout;
        let start = Instant::now();
        let mut last_progress = (0u64, Instant::now());
        // Process mode: when the sinks look done but emissions are missing,
        // when the wait for them started (see the completion check below).
        let mut sink_wait: Option<Instant> = None;
        let mut detector: Vec<DetectorEntry> = (0..self.services.layout.workers())
            .map(|w| DetectorEntry {
                last_count: self.services.heartbeat_count(w),
                last_change: Instant::now(),
                strikes: 0,
            })
            .collect();

        let wakeup = &self.services.wakeups.coordinator;
        loop {
            // Read before supervising: a notification from here on ends
            // this pass's wait at once.
            let seen = wakeup.generation();
            if let Some(error) = self.services.gcs.query_error() {
                return CoordinatorOutcome::Failed(QuokkaError::Internal(error));
            }
            if self.services.is_cancelled() {
                // The consuming stream was dropped; stop computing a result
                // nobody will read. Workers exit on the done flag.
                self.services.gcs.set_query_done();
                return CoordinatorOutcome::Failed(QuokkaError::Cancelled(
                    "result stream dropped".to_string(),
                ));
            }

            // Apply the chaos events whose trigger a commit crossed. That
            // commit raised the barrier, so nothing has committed since;
            // every fired kill lands before it is lowered (by the kills'
            // recovery, or right here). This happens *before* the
            // completion check: the crossing commit may be the query's last,
            // and an injection the configuration promised must still land
            // (killing a worker whose channels all finished is harmless —
            // recovery finds nothing to rewind).
            let fired = self.services.chaos.take_fired();
            let kills: Vec<WorkerId> =
                fired.iter().filter_map(|&event| chaos::apply(event, &self.services)).collect();
            for &worker in &kills {
                self.services.kill_worker(worker);
                injected.push(worker);
            }
            if !kills.is_empty() && !self.services.config.fault.supports_intra_query_recovery() {
                self.services
                    .gcs
                    .set_query_error("worker failed and the strategy has no intra-query recovery");
                return CoordinatorOutcome::NeedsRestart { failed: injected };
            }
            for worker in kills {
                // Failure detection (the heartbeat round trip), then recovery.
                std::thread::sleep(heartbeat);
                if let Err(e) = self.recover(worker) {
                    let error = QuokkaError::Internal(format!("recovery failed: {e}"));
                    self.services.gcs.set_query_error(&error.to_string());
                    return CoordinatorOutcome::Failed(error);
                }
            }
            if !fired.is_empty() {
                self.lower_barrier();
            }

            // Failure detector: suspect workers whose heartbeats stalled.
            if !self.services.gcs.is_paused() {
                for worker in 0..self.services.layout.workers() {
                    if self.services.is_killed(worker) || self.services.is_suspected(worker) {
                        continue;
                    }
                    let entry = &mut detector[worker as usize];
                    let count = self.services.heartbeat_count(worker);
                    if count != entry.last_count {
                        entry.last_count = count;
                        entry.last_change = Instant::now();
                        entry.strikes = 0;
                    } else if count > 0 && entry.last_change.elapsed() > suspicion_timeout {
                        let strikes = entry.strikes + 1;
                        detector[worker as usize] = DetectorEntry {
                            last_count: self.services.heartbeat_count(worker),
                            last_change: Instant::now(),
                            strikes,
                        };
                        if strikes >= 2
                            && self.services.config.fault.supports_intra_query_recovery()
                        {
                            // Silent straight through a suspicion-reconcile:
                            // a partition would have healed (suspicion lifts
                            // the heartbeat suppression), so the process is
                            // gone. Declare it dead — its local backups died
                            // with it, and only the kill path turns those
                            // into producer rewinds.
                            self.services.kill_worker(worker);
                            if let Err(e) = self.recover(worker) {
                                let error = QuokkaError::Internal(format!("recovery failed: {e}"));
                                self.services.gcs.set_query_error(&error.to_string());
                                return CoordinatorOutcome::Failed(error);
                            }
                        } else if let Err(e) = self.suspect(worker) {
                            let error =
                                QuokkaError::Internal(format!("suspicion recovery failed: {e}"));
                            self.services.gcs.set_query_error(&error.to_string());
                            return CoordinatorOutcome::Failed(error);
                        }
                    }
                }
            }

            // Lost-partition repair: a replay read that found its backup
            // gone (e.g. chaos-wiped disk) flags the partition; rewind the
            // producers so the data is regenerated from lineage.
            let lost = self.services.gcs.take_lost_partitions();
            if !lost.is_empty() {
                let seeds: BTreeSet<ChannelAddr> = lost.iter().map(|p| p.channel_addr()).collect();
                if let Err(e) = self.reconcile(seeds) {
                    let error = QuokkaError::Internal(format!("lost-partition repair failed: {e}"));
                    self.services.gcs.set_query_error(&error.to_string());
                    return CoordinatorOutcome::Failed(error);
                }
            }

            if self.sink_done() {
                match self.missing_sink_emissions() {
                    Some(missing) if !missing.is_empty() => {
                        // Process mode: a sink commit becomes visible in the
                        // GCS before its emitted partition crosses back to
                        // the driver, so completion must wait for the
                        // results themselves. Give in-flight emissions a
                        // grace period; if one never arrives (a SIGKILLed
                        // worker committed and died before emitting), rewind
                        // its channel — only a lineage replay can regenerate
                        // the partition.
                        match sink_wait {
                            None => sink_wait = Some(Instant::now()),
                            Some(since) if since.elapsed() > suspicion_timeout => {
                                sink_wait = None;
                                if let Err(e) = self.reconcile(missing) {
                                    let error = QuokkaError::Internal(format!(
                                        "sink emission repair failed: {e}"
                                    ));
                                    self.services.gcs.set_query_error(&error.to_string());
                                    return CoordinatorOutcome::Failed(error);
                                }
                            }
                            Some(_) => {}
                        }
                    }
                    _ => {
                        self.services.gcs.set_query_done();
                        return CoordinatorOutcome::Completed;
                    }
                }
            } else {
                sink_wait = None;
            }

            // Per-query deadline: cancel cleanly with a typed error.
            if let Some(limit) = deadline {
                let elapsed = start.elapsed();
                if elapsed > limit {
                    let error = QuokkaError::Timeout { elapsed, limit };
                    self.services.gcs.set_query_error(&error.to_string());
                    return CoordinatorOutcome::Failed(error);
                }
            }

            // Watchdog: abort if the task counter stops moving for too long.
            let tasks = self.services.metrics.snapshot(Duration::ZERO).tasks_executed;
            if tasks != last_progress.0 {
                last_progress = (tasks, Instant::now());
            } else if last_progress.1.elapsed() > self.watchdog {
                let message = format!(
                    "watchdog: no task progress for {:?} (elapsed {:?})",
                    self.watchdog,
                    start.elapsed()
                );
                self.dump_stuck_state();
                self.services.gcs.set_query_error(&message);
                return CoordinatorOutcome::Failed(QuokkaError::Internal(message));
            }
            wakeup.wait(seen, heartbeat);
        }
    }

    /// Process mode only (`Services::delivered_sinks` is `Some`): the sink
    /// channels with committed partitions that have not reached the driver's
    /// result stream yet. `None` in-process, where emission is synchronous
    /// with the commit.
    fn missing_sink_emissions(&self) -> Option<BTreeSet<ChannelAddr>> {
        let delivered = self.services.delivered_sinks.as_ref()?;
        let delivered = delivered.lock();
        let sink = self.services.layout.sink();
        let mut missing = BTreeSet::new();
        for channel in self.services.layout.channels_of(sink) {
            let Some(state) = self.services.gcs.get_channel(channel) else { continue };
            let Some(committed) = state.committed_seq else { continue };
            for seq in 0..=committed {
                if !delivered.contains(&channel.task(seq)) {
                    missing.insert(channel);
                    break;
                }
            }
        }
        Some(missing)
    }

    /// Handle a suspected worker: reconcile its channels onto trusted
    /// workers *without* declaring it dead. If the worker was alive all
    /// along (false suspicion), the commit-time compare-and-swap on the
    /// channel state stops it from clobbering the reconciled assignment;
    /// if it really is unresponsive, its work continues elsewhere.
    fn suspect(&self, worker: WorkerId) -> Result<()> {
        let services = &self.services;
        services.set_suspected(worker, true);
        services.metrics.add_suspicion();
        let seeds: BTreeSet<ChannelAddr> = services
            .gcs
            .all_channels()
            .into_iter()
            .filter(|c| c.worker == worker && !c.done)
            .map(|c| c.addr)
            .collect();
        let result = if seeds.is_empty() { Ok(()) } else { self.reconcile(seeds) };
        // The simulated partition heals once reconciliation is through:
        // stop suppressing the worker's heartbeats (a chaos injection may
        // have silenced them) and trust it again for future placement.
        services.suppress_heartbeats(worker, false);
        services.set_suspected(worker, false);
        result
    }

    /// Algorithm 2: reconcile the GCS after `failed` died. The worker must
    /// already have been killed ([`Services::kill_worker`]).
    pub fn recover(&self, failed: WorkerId) -> Result<()> {
        let start = Instant::now();
        let gcs = &self.services.gcs;
        gcs.set_paused(true);
        gcs.mark_worker_failed(failed);
        // Give in-flight commits a moment to abort against the barrier.
        std::thread::sleep(Duration::from_millis(2));
        // R: channels that must be rewound. Start with every unfinished
        // channel hosted by the failed worker.
        let mut seeds: BTreeSet<ChannelAddr> = gcs
            .all_channels()
            .into_iter()
            .filter(|c| c.worker == failed && !c.done)
            .map(|c| c.addr)
            .collect();
        // Replays an earlier recovery routed to this worker can never be
        // served now (its backup disk died with it). Drain them and rewind
        // their consumers so reconciliation re-plans each partition from
        // whatever copies remain — this is how a single failure that takes
        // out several workers at once (a whole process) stays recoverable.
        for stranded in gcs.replays_for_worker(failed) {
            gcs.remove_replay(&stranded);
            seeds.insert(stranded.consumer);
        }
        let result = self.reconcile_locked(seeds);
        self.resume(start);
        result
    }

    /// Reconcile a set of channels without declaring any worker dead
    /// (suspicion handling and lost-partition repair).
    pub fn reconcile(&self, seeds: BTreeSet<ChannelAddr>) -> Result<()> {
        let start = Instant::now();
        let gcs = &self.services.gcs;
        gcs.set_paused(true);
        std::thread::sleep(Duration::from_millis(2));
        let result = self.reconcile_locked(seeds);
        self.resume(start);
        result
    }

    /// End a recovery that began at `start`: charge its time to recovery
    /// planning, then lower the barrier. Lowering wakes every stage thread,
    /// which on a small host can keep the coordinator off the CPU for
    /// milliseconds while the threads resume; that time is execution, not
    /// planning.
    fn resume(&self, start: Instant) {
        self.services.metrics.add_recovery_planning(start.elapsed());
        self.lower_barrier();
    }

    /// Lower the pause barrier and wake every stage thread, unless a commit
    /// that landed just before it was raised crossed a chaos trigger: that
    /// barrier stays up until the next supervision pass has applied the
    /// fired events. (While the barrier is up no commit can cross another
    /// trigger.)
    fn lower_barrier(&self) {
        if !self.services.chaos.has_fired() {
            self.services.gcs.set_paused(false);
            self.services.wakeups.wake_all();
        }
    }

    /// The core of Algorithm 2, run under the raised pause barrier: rewind
    /// the seed channels, schedule replays of the partitions they need that
    /// still exist somewhere, and transitively rewind producers whose
    /// partitions are gone.
    fn reconcile_locked(&self, mut rewind: BTreeSet<ChannelAddr>) -> Result<()> {
        let services = &self.services;
        let layout = &services.layout;
        let gcs = &services.gcs;

        // Placement excludes suspects (they may be partitioned away); replay
        // owners only need their backup disk alive.
        let pool = services.placement_pool();
        if pool.is_empty() {
            return Err(QuokkaError::Unschedulable(ChannelAddr::new(0, 0)));
        }
        let live = services.live_workers();

        // Walk the stages in reverse topological order, scheduling replays
        // for the inputs every rewound channel needs, and rewinding the
        // producers whose partitions no longer exist anywhere.
        let mut replays: Vec<ReplayRequest> = Vec::new();
        for stage in layout.graph.reverse_topological() {
            for channel in layout.channels_of(stage) {
                if !rewind.contains(&channel) {
                    continue;
                }
                for (_, upstream) in layout.upstream_channels(stage) {
                    if rewind.contains(upstream) {
                        // The producer itself is being rewound; it will
                        // re-push everything.
                        continue;
                    }
                    let Some(upstream_state) = gcs.get_channel(*upstream) else { continue };
                    let mut lost_producer = false;
                    for seq in 0..upstream_state.outputs_produced() {
                        let partition = upstream.task(seq);
                        let entry = gcs.get_partition(partition);
                        match entry {
                            Some(e) if e.spooled => replays.push(ReplayRequest::new(
                                live[(seq as usize) % live.len()],
                                partition,
                                channel,
                            )),
                            Some(e) if e.backed_up && !services.is_killed(e.owner) => {
                                replays.push(ReplayRequest::new(e.owner, partition, channel))
                            }
                            _ => {
                                lost_producer = true;
                            }
                        }
                    }
                    if lost_producer {
                        rewind.insert(*upstream);
                    }
                }
            }
        }

        // Reassign and reset every rewound channel. Stateful channels of
        // different stages go to different workers — the degree of recovery
        // parallelism is therefore bounded by the number of stages
        // (pipeline-parallel recovery), exactly as §III-B describes.
        for channel in &rewind {
            let previous = gcs
                .get_channel(*channel)
                .ok_or_else(|| QuokkaError::NotFound(format!("channel {channel}")))?;
            let new_worker = pool[(channel.stage as usize + channel.channel as usize) % pool.len()];
            let mut state = ChannelState::new(
                *channel,
                new_worker,
                layout.upstream_channels(channel.stage).len(),
            );
            // A channel that dies *mid-replay* (a second failure during
            // recovery) must keep its original rewind target: its consumers'
            // logged lineage references the task boundaries of the first
            // incarnation, and a shorter rewind would let the channel resume
            // dynamic batching early and never regenerate those partitions.
            state.rewind_until = match (previous.rewind_until, previous.committed_seq) {
                (Some(rewind), Some(committed)) => Some(rewind.max(committed)),
                (Some(rewind), None) => Some(rewind),
                (None, committed) => committed,
            };
            gcs.put_channel(&state);
        }

        // Replays only matter for partitions feeding rewound channels; they
        // can be served concurrently by their owner workers ("replay tasks
        // are pushed to TaskManagers that hold them").
        for replay in &replays {
            // Skip replays whose producer ended up rewound after all.
            if rewind.contains(&replay.partition.channel_addr()) {
                continue;
            }
            gcs.add_replay(replay);
        }

        Ok(())
    }

    /// Dump the stuck state when the watchdog fires: which channels are
    /// unfinished, where they are assigned, and what their watermarks look
    /// like.
    fn dump_stuck_state(&self) {
        eprintln!("[watchdog] paused={}", self.services.gcs.is_paused());
        let beats: Vec<u64> =
            (0..self.services.layout.workers()).map(|w| self.services.heartbeat_count(w)).collect();
        eprintln!("[watchdog] heartbeats={beats:?}");
        for state in self.services.gcs.all_channels() {
            if !state.done {
                eprintln!(
                    "[watchdog] stuck channel {} worker={} committed={:?} \
                     consumed={:?} splits={} rewind={:?} killed={}",
                    state.addr,
                    state.worker,
                    state.committed_seq,
                    state.consumed,
                    state.splits_consumed,
                    state.rewind_until,
                    self.services.is_killed(state.worker),
                );
                for (flat, (_, upstream)) in
                    self.services.layout.upstream_channels(state.addr.stage).iter().enumerate()
                {
                    let up = self.services.gcs.get_channel(*upstream);
                    let produced = up.as_ref().map(|u| u.outputs_produced()).unwrap_or(0);
                    let consumed = state.consumed.get(flat).copied().unwrap_or(0);
                    if consumed < produced {
                        let inbox = self
                            .services
                            .plane
                            .server(state.worker)
                            .map(|s| s.available_from(state.addr, *upstream, consumed).len())
                            .unwrap_or(0);
                        eprintln!(
                            "[watchdog]   waiting on {} ({}/{} consumed, {} in inbox, \
                             up done={:?})",
                            upstream,
                            consumed,
                            produced,
                            inbox,
                            up.map(|u| u.done),
                        );
                        for seq in consumed..produced {
                            let name = upstream.task(seq);
                            let in_inbox = self
                                .services
                                .plane
                                .server(state.worker)
                                .map(|s| s.has_slice(state.addr, name))
                                .unwrap_or(false);
                            let lineage = self.services.gcs.lineage_committed(name);
                            if !in_inbox || !lineage {
                                eprintln!(
                                    "[watchdog]     seq {seq}: in_inbox={in_inbox} \
                                     lineage_committed={lineage}"
                                );
                            }
                        }
                    }
                }
            }
        }
        for w in 0..self.services.layout.workers() {
            for r in self.services.gcs.replays_for_worker(w) {
                eprintln!(
                    "[watchdog] pending replay owner={} partition={} consumer={} attempts={} \
                     owner_killed={}",
                    w,
                    r.partition,
                    r.consumer,
                    r.attempts,
                    self.services.is_killed(w)
                );
            }
        }
    }
}
