//! The TaskManager side of the engine: Algorithm 1.
//!
//! Each worker machine runs one [`StageWorker`] thread per stage. On every
//! pass the thread serves the replays addressed to its worker, then reads
//! the GCS for the channels of its stage currently assigned to its worker
//! and, for each, tries to execute the channel's outstanding task (task
//! [`ChannelState::next_seq`] of a channel that is not done):
//!
//! 1. pick the task's inputs — dynamically under
//!    [`SchedulePolicy::Dynamic`], in fixed batches under
//!    [`SchedulePolicy::StaticBatch`], or by following the previously logged
//!    lineage when the channel is being rewound during recovery;
//! 2. only consume upstream outputs whose lineage is already committed in
//!    the GCS (the core write-ahead-lineage invariant);
//! 3. run the channel's stateful operator, push the resulting slices to the
//!    downstream flight servers, back them up to local disk (and/or spool
//!    them durably, depending on the fault-tolerance strategy);
//! 4. commit the lineage, the partition-directory entry and the new channel
//!    state (watermarks and committed sequence number, which also name the
//!    next task) **in a single GCS transaction**; if the
//!    push failed or the recovery barrier was raised, nothing is committed
//!    and the task is retried later.
//!
//! A pass that runs nothing ends in a wait on the thread's
//! [`Wakeup`](crate::wake::Wakeup), not a sleep. The wait ends when work
//! arrives: a commit that gave one of the thread's channels rows (or
//! finished an upstream channel), a served replay, a slice arriving off the
//! wire, or the lowered recovery barrier. The idle backoff only bounds the
//! wait, so a missed or cross-process event costs what a sleep-poll did.
//!
//! Under [`SchedulePolicy::Dynamic`] a channel runs no task on a run of
//! committed inputs whose slices are all empty. The run stays in the inbox
//! until a slice with rows joins it, it fills `max_inputs_per_task`, or it
//! reaches the upstream channel's last output. Most shuffle slices of a
//! selective query are empty, and each task would otherwise pay a GCS
//! commit plus a push and a backup per consumer channel to move nothing.

use crate::chaos::{ChaosEngine, CommitTally};
use crate::layout::QueryLayout;
use crate::stream::StreamEvent;
use crate::wake::Wakeups;
use parking_lot::Mutex;
use quokka_batch::compute::hash_partition;
use quokka_batch::{Batch, Column, Slice};
use quokka_common::config::{EngineConfig, ExecutionMode, FaultStrategy, SchedulePolicy};
use quokka_common::ids::{ChannelAddr, SeqNo, StageId, TaskName, WorkerId};
use quokka_common::metrics::{MetricsRegistry, QueryMetrics};
use quokka_common::retry::RetryPolicy;
use quokka_common::{QuokkaError, Result};
use quokka_gcs::tables::{
    ChannelState, LineageRecord, LineageSource, PartitionEntry, ReplayRequest, TaskCommit,
};
use quokka_gcs::Gcs;
use quokka_net::DataPlane;
use quokka_plan::physical::StageOperator;
use quokka_storage::{CostModel, LocalBackupStore, ObjectStore};
use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Number of input splits a scan task reads at a time.
const SPLITS_PER_TASK: usize = 2;

/// Longest wait of a stage thread while the recovery barrier is raised;
/// lowering the barrier ends it sooner.
const PAUSED_WAIT: Duration = Duration::from_micros(100);

/// Row cap for coalesced output slices: partition fragments are merged up
/// to this size before boundary encoding, so each shuffle frame amortizes
/// its schema header over long column runs without unbounding batch memory.
const COALESCE_ROWS: usize = 16_384;

/// Everything shared between the worker threads, the coordinator and the
/// runtime for one query execution.
pub struct Services {
    pub config: EngineConfig,
    pub layout: Arc<QueryLayout>,
    pub gcs: Arc<Gcs>,
    pub plane: Arc<DataPlane>,
    pub backups: Vec<Arc<LocalBackupStore>>,
    /// The durable store, which also serves the base-table splits scans
    /// read. In-process clusters hand every worker the real
    /// [`DurableObjectStore`](quokka_storage::DurableObjectStore); process
    /// mode substitutes a proxy that reaches the driver's store over the
    /// control connection.
    pub durable: Arc<dyn ObjectStore>,
    /// Result sink: committed sink-stage partitions are sent here the moment
    /// their lineage commits, tagged with the task name so the consuming
    /// [`BatchStream`](crate::stream::BatchStream) can recognise a replayed
    /// emission as a duplicate. Nothing is buffered engine-side.
    pub sink: Mutex<std::sync::mpsc::Sender<StreamEvent>>,
    pub metrics: Arc<MetricsRegistry>,
    pub killed: Vec<AtomicBool>,
    /// Raised when the consuming stream is dropped; workers and the
    /// coordinator wind the query down at their next pass.
    pub cancelled: Arc<std::sync::atomic::AtomicBool>,
    pub cost: CostModel,
    /// Per-worker liveness counters bumped by every stage thread on every
    /// pass; the coordinator's failure detector suspects a worker whose
    /// counter stops moving for longer than the suspicion timeout.
    pub heartbeats: Vec<AtomicU64>,
    /// Chaos injection: while set, the worker's heartbeats are swallowed,
    /// simulating a network partition between a healthy worker and the
    /// coordinator (suspicion without death).
    pub heartbeat_suppressed: Vec<AtomicBool>,
    /// Workers the failure detector currently suspects. Suspects are
    /// avoided when placing reconciled channels but are *not* killed.
    pub suspected: Vec<AtomicBool>,
    /// Chaos injection: number of upcoming tasks on this worker to slow
    /// down, and the extra delay (µs) each one sleeps before executing.
    pub straggler_tasks: Vec<AtomicU32>,
    pub straggler_micros: Vec<AtomicU64>,
    /// Process mode only: the sink task names whose output partitions have
    /// actually reached the driver's result stream. In-process this is
    /// `None` — emission is an in-memory send right after the commit, so a
    /// committed-but-undelivered window cannot exist. Across processes the
    /// emission is an RPC that a SIGKILL (or plain scheduling) can separate
    /// from the commit; the coordinator holds query completion until every
    /// committed sink partition is accounted for here, rewinding the
    /// channels of the ones that never arrive.
    pub delivered_sinks: Option<Arc<Mutex<HashSet<TaskName>>>>,
    /// The query's chaos plan; every task commit is counted against it.
    pub chaos: ChaosEngine,
    /// What the stage threads and the coordinator wait on between passes.
    pub wakeups: Arc<Wakeups>,
}

fn per_worker<T: Default>(workers: u32) -> Vec<T> {
    (0..workers).map(|_| T::default()).collect()
}

impl Services {
    /// Wire one execution's services. Per-worker state (liveness, backups,
    /// chaos knobs) starts clean; the query is not cancelled and, outside
    /// process mode, sink delivery needs no tracking.
    pub fn new(
        config: EngineConfig,
        layout: Arc<QueryLayout>,
        gcs: Arc<Gcs>,
        plane: Arc<DataPlane>,
        durable: Arc<dyn ObjectStore>,
        sink: std::sync::mpsc::Sender<StreamEvent>,
        metrics: Arc<MetricsRegistry>,
    ) -> Self {
        let workers = config.cluster.workers;
        let cost = CostModel::new(config.cost);
        let chaos = ChaosEngine::new(&config, layout.total_splits());
        let wakeups = Arc::new(Wakeups::new(layout.workers(), layout.graph.stages.len()));
        // A slice arriving off the wire wakes the thread hosting its
        // consumer channel (in-process pushes land before their commit,
        // which does the waking).
        for worker in 0..layout.workers() {
            if let Ok(server) = plane.server(worker) {
                let wakeups = Arc::clone(&wakeups);
                server.set_arrival_hook(Arc::new(move |consumer: ChannelAddr| {
                    wakeups.thread(worker, consumer.stage).notify()
                }));
            }
        }
        Services {
            backups: (0..workers)
                .map(|w| Arc::new(LocalBackupStore::new(w, cost, Arc::clone(&metrics))))
                .collect(),
            killed: per_worker(workers),
            cancelled: Arc::default(),
            heartbeats: per_worker(workers),
            heartbeat_suppressed: per_worker(workers),
            suspected: per_worker(workers),
            straggler_tasks: per_worker(workers),
            straggler_micros: per_worker(workers),
            delivered_sinks: None,
            sink: Mutex::new(sink),
            config,
            layout,
            gcs,
            plane,
            durable,
            metrics,
            cost,
            chaos,
            wakeups,
        }
    }

    /// Register every channel, and with it its first task, in the GCS,
    /// before any worker starts. Chaos events due before the first commit
    /// raise the barrier here, so they too land before any task commits.
    pub fn register_channels(&self) {
        for addr in self.layout.all_channels() {
            let worker = self.layout.initial_worker(addr);
            let upstream = self.layout.upstream_channels(addr.stage).len();
            self.gcs.put_channel(&ChannelState::new(addr, worker, upstream));
        }
        if self.chaos.has_fired() {
            self.gcs.set_paused(true);
        }
    }

    /// Whether a worker has been killed by fault injection.
    pub fn is_killed(&self, worker: WorkerId) -> bool {
        self.killed[worker as usize].load(Ordering::SeqCst)
    }

    /// Kill a worker: its threads stop, its flight server and local backups
    /// are wiped.
    pub fn kill_worker(&self, worker: WorkerId) {
        self.killed[worker as usize].store(true, Ordering::SeqCst);
        let _ = self.plane.fail_worker(worker);
        self.backups[worker as usize].fail();
        self.metrics.add_failure();
    }

    /// Workers that have not been killed.
    pub fn live_workers(&self) -> Vec<WorkerId> {
        (0..self.layout.workers()).filter(|&w| !self.is_killed(w)).collect()
    }

    /// Durable key of one spooled slice.
    pub fn spool_key(partition: TaskName, consumer: ChannelAddr) -> String {
        format!(
            "spool/{:04}/{:04}/{:08}/{:04}/{:04}",
            partition.stage, partition.channel, partition.seq, consumer.stage, consumer.channel
        )
    }

    /// Fail the query with `message` and wake the coordinator to report it.
    pub fn fail_query(&self, message: &str) {
        self.gcs.set_query_error(message);
        self.wakeups.coordinator.notify();
    }

    /// Whether the consuming result stream has been dropped.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::SeqCst)
    }

    /// Record one liveness beat for `worker` (dropped while suppressed).
    pub fn heartbeat(&self, worker: WorkerId) {
        if !self.heartbeat_suppressed[worker as usize].load(Ordering::Relaxed) {
            self.heartbeats[worker as usize].fetch_add(1, Ordering::Relaxed);
        }
    }

    pub fn heartbeat_count(&self, worker: WorkerId) -> u64 {
        self.heartbeats[worker as usize].load(Ordering::Relaxed)
    }

    pub fn suppress_heartbeats(&self, worker: WorkerId, suppressed: bool) {
        self.heartbeat_suppressed[worker as usize].store(suppressed, Ordering::SeqCst);
    }

    pub fn set_suspected(&self, worker: WorkerId, suspected: bool) {
        self.suspected[worker as usize].store(suspected, Ordering::SeqCst);
    }

    pub fn is_suspected(&self, worker: WorkerId) -> bool {
        self.suspected[worker as usize].load(Ordering::SeqCst)
    }

    /// Workers eligible to receive reconciled channels: live and not
    /// currently under suspicion. Falls back to every live worker if the
    /// detector suspects all of them.
    pub fn placement_pool(&self) -> Vec<WorkerId> {
        let live = self.live_workers();
        let trusted: Vec<WorkerId> =
            live.iter().copied().filter(|&w| !self.is_suspected(w)).collect();
        if trusted.is_empty() {
            live
        } else {
            trusted
        }
    }

    /// Chaos injection: make the next `tasks` tasks on `worker` sleep an
    /// extra `delay` before executing.
    pub fn set_straggler(&self, worker: WorkerId, tasks: u32, delay: Duration) {
        self.straggler_micros[worker as usize].store(delay.as_micros() as u64, Ordering::SeqCst);
        self.straggler_tasks[worker as usize].fetch_add(tasks, Ordering::SeqCst);
    }

    /// Consume one straggler-task token for `worker`, returning the delay to
    /// apply, if any.
    pub fn take_straggler_delay(&self, worker: WorkerId) -> Option<Duration> {
        self.straggler_tasks[worker as usize]
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .ok()
            .map(|_| {
                Duration::from_micros(self.straggler_micros[worker as usize].load(Ordering::SeqCst))
            })
    }

    /// The metrics of an attempt that completed after `elapsed`: the
    /// registry's snapshot plus the GCS's lineage bytes and transaction
    /// count, and the effective robustness settings, so tests (and callers)
    /// can assert what the run actually used.
    pub fn finished_metrics(&self, elapsed: Duration) -> QueryMetrics {
        let mut snapshot = self.metrics.snapshot(elapsed);
        snapshot.lineage_bytes = self.gcs.lineage_bytes();
        snapshot.gcs_transactions = self.gcs.transactions();
        snapshot.effective_watchdog = self.config.watchdog;
        snapshot.effective_suspicion_timeout = self.config.cluster.suspicion_timeout;
        snapshot
    }

    /// Emit one committed sink partition to the result stream. A send
    /// failure means the consumer is gone; the cancellation flag (set by the
    /// stream's drop) winds the query down separately, so it is ignored.
    pub fn emit_result(&self, name: TaskName, batches: Vec<Batch>) {
        let _ = self.sink.lock().send(StreamEvent::Batch { name, batches });
    }
}

/// Per-channel local execution state owned by a [`StageWorker`].
struct ChannelRuntime {
    op: Box<dyn StageOperator>,
    expected_seq: SeqNo,
    finished_inputs: HashSet<usize>,
    finalized: bool,
}

/// What a task is about to consume.
enum TaskInputs {
    /// Read these source splits from the durable store.
    Splits(Vec<u64>),
    /// Consume `partitions` (already peeked from the flight inbox) produced
    /// by `upstream`, advancing watermark slot `flat_index`.
    Upstream {
        input_index: usize,
        flat_index: usize,
        upstream: ChannelAddr,
        start_seq: SeqNo,
        partitions: Vec<(TaskName, Vec<Batch>)>,
    },
    /// Consume nothing; fire end-of-stream notifications / finalize only.
    FinalizeOnly,
    /// Nothing can be done right now; try again later.
    NotReady,
    /// A committed run of inputs waits in the inbox because all of its
    /// slices are empty (see the module docs). Nothing is missing.
    Deferred,
}

/// One worker's executor thread for one stage.
pub struct StageWorker {
    worker: WorkerId,
    stage: StageId,
    services: Arc<Services>,
    channels: BTreeMap<ChannelAddr, ChannelRuntime>,
}

impl StageWorker {
    pub fn new(worker: WorkerId, stage: StageId, services: Arc<Services>) -> Self {
        StageWorker { worker, stage, services, channels: BTreeMap::new() }
    }

    /// Main loop: runs until the query finishes, fails, or this worker is
    /// killed.
    ///
    /// A pass that finds no work waits on the thread's wakeup, which the
    /// events that bring work end early. The wait's timeout backs off
    /// exponentially (`poll_interval` up to ~5ms) so that a thread nobody
    /// wakes still looks again, without spinning: with one thread per
    /// (worker, stage) pair, constant-rate polling starves busy threads on
    /// small machines.
    pub fn run(mut self) {
        let services = Arc::clone(&self.services);
        let wakeup = services.wakeups.thread(self.worker, self.stage);
        let poll = services.config.cluster.poll_interval;
        // Idle backoff shares the configured retry policy's shape but waits
        // from `poll_interval` up to ~5ms; jitter decorrelates the stage
        // threads so they do not thunder against the GCS in lockstep.
        let idle_policy = RetryPolicy {
            base_delay: poll,
            max_delay: Duration::from_millis(5).max(poll),
            ..services.config.retry
        };
        let idle_seed = self
            .services
            .config
            .seed
            .wrapping_add(self.worker as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(self.stage as u64);
        let mut idle = idle_policy.backoff_unbounded(idle_seed);
        loop {
            // Read the generation before looking for work: any notification
            // from here on ends this pass's wait at once.
            let seen = wakeup.generation();
            services.heartbeat(self.worker);
            if services.is_killed(self.worker) {
                return;
            }
            let gcs = &services.gcs;
            if gcs.is_query_done() || gcs.query_error().is_some() || services.is_cancelled() {
                return;
            }
            if gcs.is_paused() {
                wakeup.wait(seen, PAUSED_WAIT);
                continue;
            }
            let mut progressed = self.handle_replays();
            for addr in services.layout.channels_of(self.stage) {
                if services.is_killed(self.worker) {
                    return;
                }
                if gcs.is_paused() {
                    break;
                }
                let Some(state) = gcs.get_channel(addr) else { continue };
                if state.worker != self.worker || state.done {
                    continue;
                }
                match self.try_task(&state) {
                    Ok(true) => progressed = true,
                    Ok(false) => {}
                    Err(e) if e.is_retryable() => {}
                    Err(e) => {
                        services.fail_query(&format!(
                            "worker {} stage {}: {e}",
                            self.worker, self.stage
                        ));
                        return;
                    }
                }
            }
            if progressed {
                idle.reset();
            } else {
                wakeup.wait(seen, idle.next_delay().unwrap_or(idle_policy.max_delay));
            }
        }
    }

    /// Serve replay requests addressed to this worker (recovery): re-push a
    /// backed-up (or spooled) slice to the consumer's current worker. The
    /// stored payload is pushed as it is; it is decoded once, for a
    /// delivery that hands batches over, and never re-encoded.
    ///
    /// Failure handling is typed, not best-effort: an unreadable slice is
    /// reported to the coordinator as a lost partition (it rewinds the
    /// producer for a deeper lineage replay), a retryable push failure
    /// re-queues the request against a bounded attempt budget, and a fatal
    /// push error — or an exhausted budget — fails the query instead of
    /// re-queueing forever.
    fn handle_replays(&mut self) -> bool {
        let services = &self.services;
        let requests = services.gcs.replays_for_worker(self.worker);
        let mut progressed = false;
        for request in requests {
            // Atomically claim the request so only one of this worker's
            // stage threads serves it.
            if !services.gcs.remove_replay(&request) {
                continue;
            }
            let payload = services.backups[self.worker as usize]
                .get(request.partition, request.consumer)
                .or_else(|_| {
                    services.durable.get(&Services::spool_key(request.partition, request.consumer))
                });
            let slice = match payload.and_then(Slice::decode) {
                Ok(slice) => slice,
                Err(_) => {
                    // The slice is gone (e.g. a chaos-wiped backup store).
                    // Flag it so the coordinator rewinds the producer and
                    // regenerates it from lineage.
                    services.gcs.mark_partition_lost(request.partition);
                    services.wakeups.coordinator.notify();
                    continue;
                }
            };
            let Some(consumer_state) = services.gcs.get_channel(request.consumer) else { continue };
            if consumer_state.done {
                // The consumer finished while the request was queued; the
                // slice is no longer needed (and its worker may be dead).
                continue;
            }
            let pushed = services.plane.push(
                self.worker,
                consumer_state.worker,
                request.consumer,
                request.partition,
                &slice,
            );
            match pushed {
                Ok(()) => {
                    services.wakeups.thread(consumer_state.worker, request.consumer.stage).notify();
                    progressed = true;
                }
                Err(e) if e.is_retryable() => {
                    // Re-queue, charging the bounded attempt budget — unless
                    // the failure is one the coordinator is already
                    // repairing (barrier raised, or the destination worker
                    // killed and about to be reconciled away).
                    // A typed WorkerFailed also waits uncharged: the dead
                    // destination will be detected (heartbeat stall) and the
                    // consumer reassigned, but detection takes a suspicion
                    // window while retries burn in microseconds — charging
                    // here would exhaust the budget before the coordinator
                    // can act. The stall watchdog bounds the wait. In
                    // process mode the coordinator's kill list lives in
                    // another OS process, so also consult the authoritative
                    // GCS failure markers the commit barrier uses.
                    let repair_pending = services.gcs.is_paused()
                        || services.is_killed(consumer_state.worker)
                        || services.gcs.is_worker_failed(consumer_state.worker)
                        || matches!(e, QuokkaError::WorkerFailed(_));
                    let attempts = request.attempts + u32::from(!repair_pending);
                    if attempts > services.config.retry.max_attempts {
                        services.fail_query(
                            &QuokkaError::RetriesExhausted {
                                operation: format!("replay of {}", request.partition),
                                attempts,
                                last: Box::new(e),
                            }
                            .to_string(),
                        );
                        return progressed;
                    }
                    services.gcs.add_replay(&ReplayRequest { attempts, ..request });
                    services.metrics.add_replay_requeue();
                }
                Err(e) => {
                    // A non-retryable destination failure: give up loudly
                    // instead of spinning on the request.
                    services.fail_query(&format!(
                        "replay of {} to {} failed fatally: {e}",
                        request.partition, request.consumer
                    ));
                    return progressed;
                }
            }
        }
        progressed
    }

    /// Try to execute the outstanding task of one channel, whose `state`
    /// the caller read from the GCS: it is hosted on this worker and not
    /// done. Returns whether a task was committed.
    fn try_task(&mut self, state: &ChannelState) -> Result<bool> {
        let services = Arc::clone(&self.services);
        let layout = &services.layout;
        let addr = state.addr;

        // Stagewise (blocking) execution: a non-scan stage may only run once
        // every upstream channel has finished.
        if services.config.mode == ExecutionMode::Stagewise && layout.num_inputs(self.stage) > 0 {
            let all_done = layout
                .upstream_channels(self.stage)
                .iter()
                .all(|(_, up)| services.gcs.get_channel(*up).map(|s| s.done).unwrap_or(false));
            if !all_done {
                return Ok(false);
            }
        }

        let seq = state.next_seq();

        // Synchronise the local operator instance with the GCS's view of the
        // channel (handles first contact, rewinds and reassignment).
        if !self.channels.contains_key(&addr) || self.channels[&addr].expected_seq != seq {
            if seq == 0 || !self.channels.contains_key(&addr) {
                let op = layout.graph.stage(self.stage).op.instantiate()?;
                self.channels.insert(
                    addr,
                    ChannelRuntime {
                        op,
                        expected_seq: seq,
                        finished_inputs: HashSet::new(),
                        finalized: false,
                    },
                );
            } else {
                // A stateless channel picked up at a non-zero sequence number
                // (only stateless channels are ever resumed without rewind).
                let rt = self.channels.get_mut(&addr).expect("checked above");
                rt.expected_seq = seq;
            }
        }

        let replay_mode = state.rewind_until.map(|until| seq <= until).unwrap_or(false);
        let (inputs, mut to_finish, mut finalize) =
            if replay_mode { self.replay_inputs(state, seq)? } else { self.dynamic_inputs(state)? };
        let mut inputs = match inputs {
            TaskInputs::NotReady => {
                // If the channel is starved of a partition its upstream has
                // already committed, pull it back from its backup owner.
                self.request_missing_inputs(state);
                return Ok(false);
            }
            // A deferred run waits for its upstream's next commit. It is
            // not a missing input; a gap on another upstream is pulled once
            // the run resolves, which it does by that upstream's last output.
            TaskInputs::Deferred => return Ok(false),
            other => other,
        };

        // ----- execute the operator ---------------------------------------
        // Chaos injection: a straggling worker sleeps before each of its
        // next few tasks, exercising the schedulers' tolerance to skew.
        if let Some(delay) = services.take_straggler_delay(self.worker) {
            std::thread::sleep(delay);
        }
        let rt = self.channels.get_mut(&addr).expect("runtime inserted above");
        let mut outputs: Vec<Batch> = Vec::new();
        let lineage_source = match &mut inputs {
            TaskInputs::Splits(splits) => {
                let scan = layout
                    .graph
                    .stage(self.stage)
                    .scan
                    .clone()
                    .ok_or_else(|| QuokkaError::internal("split inputs on a non-scan stage"))?;
                for split in splits.iter() {
                    // A scan narrowed by projection pruning reads only its
                    // column subset of the shared split.
                    let batch = services.durable.read_split(&scan.table, *split, &scan.schema)?;
                    outputs.extend(rt.op.push(0, batch)?);
                }
                LineageSource::InputSplits { splits: splits.clone() }
            }
            TaskInputs::Upstream { input_index, upstream, start_seq, partitions, .. } => {
                // The operator takes the batches; the names stay for the
                // commit and the post-commit inbox cleanup.
                for (_, batches) in partitions.iter_mut() {
                    for batch in std::mem::take(batches) {
                        outputs.extend(rt.op.push(*input_index, batch)?);
                    }
                }
                LineageSource::Upstream {
                    upstream: *upstream,
                    start_seq: *start_seq,
                    count: partitions.len() as u32,
                }
            }
            TaskInputs::FinalizeOnly => LineageSource::Finalize,
            TaskInputs::NotReady | TaskInputs::Deferred => unreachable!("handled above"),
        };

        if !replay_mode {
            // Which end-of-stream notifications become true after this task?
            to_finish = self.newly_finished_inputs(state, &inputs)?;
            // Scan stages finalize based on split exhaustion (decided when
            // the inputs were chosen), not on upstream end-of-stream.
            if !layout.graph.stage(self.stage).is_scan() {
                finalize = self.should_finalize(addr, &to_finish);
            }
        }
        let rt = self.channels.get_mut(&addr).expect("runtime present");
        for &input_index in &to_finish {
            if rt.finished_inputs.insert(input_index as usize) {
                outputs.extend(rt.op.finish_input(input_index as usize)?);
            }
        }
        if finalize && !rt.finalized {
            outputs.extend(rt.op.finish()?);
            rt.finalized = true;
        }

        // ----- slice, back up, publish, commit -------------------------------
        let out_name = addr.task(seq);
        let consumer = layout.consumer_of(self.stage);
        let output_rows: u64 = outputs.iter().map(|b| b.num_rows() as u64).sum();
        let strategy = services.config.fault;

        // Slice the output for the consuming stage, encoding each slice
        // once, and write the upstream backup / durable spool copies (both
        // idempotent) before publishing.
        let (slices, result) = match consumer {
            Some((consumer_stage, _)) => (self.slice_outputs(outputs, consumer_stage)?, Vec::new()),
            // Sink stage: the output is the query result.
            None => (Vec::new(), outputs),
        };
        for (consumer_addr, slice) in &slices {
            if strategy.upstream_backup() {
                // The backup store only sees encoded bytes; record the plain
                // footprint here where the batches exist.
                services.metrics.add_backup_raw_bytes(slice.raw_bytes());
                services.backups[self.worker as usize].put(
                    out_name,
                    *consumer_addr,
                    slice.payload().clone(),
                )?;
            }
            if strategy.spools() {
                services
                    .durable
                    .put(Services::spool_key(out_name, *consumer_addr), slice.payload().clone());
            }
        }

        // Periodic state checkpointing (the expensive strategy of §II-B3,
        // included for the checkpoint-overhead ablation).
        if let FaultStrategy::Checkpointing { interval_tasks } = strategy {
            let rt = self.channels.get_mut(&addr).expect("runtime present");
            if layout.graph.stage(self.stage).is_stateful()
                && interval_tasks > 0
                && seq.is_multiple_of(interval_tasks)
            {
                let state_bytes = rt.op.state_bytes();
                services.metrics.add_checkpoint_bytes(state_bytes as u64);
                services.durable.put(
                    format!("ckpt/{:04}/{:04}/{:08}", addr.stage, addr.channel, seq),
                    bytes::Bytes::from(vec![0u8; state_bytes]),
                );
            }
        }

        // ----- single-transaction commit ------------------------------------
        let mut new_state = state.clone();
        new_state.committed_seq = Some(seq);
        match &inputs {
            TaskInputs::Splits(splits) => {
                new_state.splits_consumed += splits.len() as u32;
            }
            TaskInputs::Upstream { flat_index, partitions, .. } => {
                new_state.consumed[*flat_index] += partitions.len() as u32;
            }
            TaskInputs::FinalizeOnly | TaskInputs::NotReady | TaskInputs::Deferred => {}
        }
        let scan_done = layout.graph.stage(self.stage).is_scan()
            && new_state.splits_consumed as usize >= layout.splits_for(addr).len();
        new_state.done = finalize || scan_done;
        if let Some(until) = new_state.rewind_until {
            if seq >= until {
                new_state.rewind_until = None;
            }
        }
        let tally = CommitTally {
            worker: self.worker,
            splits: u64::from(new_state.splits_consumed - state.splits_consumed),
            recovery: replay_mode,
            holds_state: layout.graph.stage(self.stage).is_stateful() && !new_state.done,
        };
        let commit = TaskCommit {
            worker: self.worker,
            lineage: LineageRecord {
                task: out_name,
                source: lineage_source,
                finished_inputs: to_finish.clone(),
                finalize,
            },
            partition: PartitionEntry {
                name: out_name,
                owner: self.worker,
                backed_up: strategy.upstream_backup() && consumer.is_some(),
                spooled: strategy.spools() && consumer.is_some(),
            },
            channel_state: new_state.clone(),
            prev_channel: Some(state.clone()),
        };

        // The channel's operator has already absorbed this task's inputs, so
        // the task must eventually commit; silently dropping it and
        // re-executing later would apply the same inputs to the state
        // variable twice. The publish loop therefore retries pushing and
        // committing until it succeeds — giving up only when the recovery
        // coordinator has rewound or reassigned this channel (at which point
        // the local operator instance is discarded and rebuilt from the
        // logged lineage), this worker itself has been killed, or the push
        // failed with a fatal (non-retryable) error. Waits between attempts
        // back off exponentially with jitter rather than sleeping a fixed
        // interval.
        let mut publish_backoff = services.config.retry.backoff_unbounded(
            services.config.seed ^ out_name.seq as u64 ^ (self.worker as u64) << 32,
        );
        // Where the committed attempt pushed each slice, and whether the
        // slice had rows: the threads to wake once the commit lands.
        let mut destinations: Vec<(WorkerId, bool)> = Vec::with_capacity(slices.len());
        // Whether the commit crossed a chaos trigger.
        let mut crossed = false;
        loop {
            services.heartbeat(self.worker);
            if services.is_killed(self.worker)
                || services.gcs.is_query_done()
                || services.gcs.query_error().is_some()
            {
                self.channels.remove(&addr);
                return Ok(false);
            }
            // Give the task up once recovery has rewound or moved the
            // channel; the commit's compare-and-swap on `prev_channel`
            // guards the commit itself.
            let channel_untouched = services.gcs.get_channel(addr).is_some_and(|c| {
                c.worker == self.worker
                    && c.committed_seq == state.committed_seq
                    && c.rewind_until == state.rewind_until
            });
            if !channel_untouched {
                self.channels.remove(&addr);
                return Ok(false);
            }
            if services.gcs.is_paused() {
                std::thread::sleep(Duration::from_micros(200));
                continue;
            }
            // Push every slice (possibly empty) so downstream watermarks can
            // always advance. Consumers may have been reassigned since the
            // previous attempt, so the destination worker is re-resolved.
            let mut push_failed = false;
            destinations.clear();
            for (consumer_addr, slice) in &slices {
                let Some(consumer_state) = services.gcs.get_channel(*consumer_addr) else {
                    push_failed = true;
                    break;
                };
                if consumer_state.done {
                    // A finished consumer never takes more input. Its state
                    // may still name a long-dead worker (recovery only
                    // repairs unfinished channels), so pushing would fail
                    // retryably forever — e.g. a replaying producer whose
                    // other consumers already completed.
                    continue;
                }
                match services.plane.push(
                    self.worker,
                    consumer_state.worker,
                    *consumer_addr,
                    out_name,
                    slice,
                ) {
                    Ok(()) => destinations.push((
                        consumer_state.worker,
                        slice.batches().iter().any(|b| b.num_rows() > 0),
                    )),
                    Err(e) if e.is_retryable() => {
                        push_failed = true;
                        break;
                    }
                    Err(e) => {
                        // A fatal push error cannot be repaired by the
                        // coordinator; retrying would spin forever.
                        self.channels.remove(&addr);
                        return Err(e);
                    }
                }
            }
            if push_failed {
                // Algorithm 1: "if push results failed ... do not commit".
                // Wait (with backoff) for the coordinator to repair the
                // destination.
                services.metrics.add_push_retry();
                publish_backoff.sleep();
                continue;
            }
            if services
                .chaos
                .commit(&tally, |raise| {
                    crossed = raise;
                    services.gcs.commit_task(&commit, raise)
                })
                .is_ok()
            {
                break;
            }
            services.metrics.add_push_retry();
            publish_backoff.sleep();
        }

        // ----- post-commit bookkeeping --------------------------------------
        if let TaskInputs::Upstream { partitions, .. } = &inputs {
            let server = services.plane.server(self.worker)?;
            for (name, _) in partitions {
                let _ = server.take(addr, *name);
            }
        }
        if consumer.is_none() {
            // A replayed sink task re-emits a partition the stream already
            // saw (and deduplicates by name); only first-time emissions
            // count toward the result metrics.
            if !replay_mode {
                services.metrics.add_output_rows(output_rows);
                if output_rows > 0 {
                    services.metrics.add_result_batch();
                }
            }
            services.emit_result(out_name, result);
        }
        services.metrics.add_task(replay_mode);

        // Wake whoever this commit gave work. Consumers wake for slices with
        // rows; all of them wake when this channel finished (its last output
        // closes their input) or when static batching counts empty slices
        // towards its batches. The coordinator wakes for a sink commit (the
        // query may be complete) and for a crossed chaos trigger.
        if let Some((consumer_stage, _)) = consumer {
            let wake_every_consumer = new_state.done
                || !matches!(services.config.schedule, SchedulePolicy::Dynamic { .. });
            let mut woken: Vec<WorkerId> = destinations
                .iter()
                .filter(|(_, rows)| *rows || wake_every_consumer)
                .map(|(worker, _)| *worker)
                .collect();
            woken.sort_unstable();
            woken.dedup();
            for worker in woken {
                services.wakeups.thread(worker, consumer_stage).notify();
            }
        }
        if consumer.is_none() || crossed {
            services.wakeups.coordinator.notify();
        }
        let rt = self.channels.get_mut(&addr).expect("runtime present");
        rt.expected_seq = seq + 1;
        if new_state.done {
            self.channels.remove(&addr);
        }
        Ok(true)
    }

    /// Hash-partition output batches into one slice per consumer channel,
    /// each encoded once: every later use of a slice (backup, spool, push,
    /// replay) shares that payload.
    fn slice_outputs(
        &self,
        outputs: Vec<Batch>,
        consumer_stage: StageId,
    ) -> Result<Vec<(ChannelAddr, Slice)>> {
        let layout = &self.services.layout;
        let consumer_channels = layout.channel_count(consumer_stage) as usize;
        let partition_by = &layout.graph.stage(self.stage).partition_by;
        let mut slices: Vec<Vec<Batch>> = vec![Vec::new(); consumer_channels];
        if consumer_channels == 1 || partition_by.is_empty() {
            slices[0] = outputs;
        } else {
            for batch in &outputs {
                for (channel, piece) in
                    hash_partition(batch, partition_by, consumer_channels)?.into_iter().enumerate()
                {
                    if piece.num_rows() > 0 {
                        slices[channel].push(piece);
                    }
                }
            }
        }
        // Boundary compression: everything leaving this worker (shuffle
        // pushes, upstream backups, durable spools) ships these slices, so
        // coalesce the per-batch partition fragments (each batch frame
        // carries a full schema header, and column encodings only pay off
        // over long runs) and re-encode plain columns here where the win is
        // paid for once. Both steps are deterministic, keeping replayed
        // partitions byte-identical to the originals.
        slices
            .into_iter()
            .enumerate()
            .map(|(c, mut batches)| {
                if batches.len() > 1 {
                    batches = Batch::concat(&batches)?.chunks(COALESCE_ROWS);
                }
                let batches = batches
                    .into_iter()
                    .map(|batch| {
                        let columns = batch.columns().iter().map(Column::encode_auto).collect();
                        Batch::try_new(batch.schema().clone(), columns)
                    })
                    .collect::<Result<Vec<_>>>()?;
                Ok((ChannelAddr::new(consumer_stage, c as u32), Slice::new(batches)))
            })
            .collect()
    }

    /// Re-request replays for committed upstream partitions this channel
    /// needs but cannot find in its local inbox.
    ///
    /// Recovery normally schedules every replay a rewound channel needs, but
    /// a slice can still be lost to rare races — e.g. a pre-rewind task
    /// incarnation committing, getting descheduled, and then running its
    /// post-commit inbox cleanup *after* recovery re-delivered the same
    /// slice for the rewound incarnation on the same worker. A producer that
    /// has committed a partition never re-pushes it spontaneously, so
    /// without this pull path the channel would starve forever (watchdog
    /// abort). The `has_slice` guard keeps the common case write-free: a
    /// request is only issued while the slice is genuinely absent, and a
    /// served replay makes it present again.
    fn request_missing_inputs(&self, state: &ChannelState) {
        let services = &self.services;
        let Ok(server) = services.plane.server(self.worker) else { return };
        for (flat_index, (_, upstream)) in
            services.layout.upstream_channels(self.stage).iter().enumerate()
        {
            let Some(upstream_state) = services.gcs.get_channel(*upstream) else { continue };
            if upstream_state.rewind_until.is_some() {
                // The producer is itself rewinding; it will re-push.
                continue;
            }
            let consumed = state.consumed.get(flat_index).copied().unwrap_or(0);
            if consumed >= upstream_state.outputs_produced() {
                continue;
            }
            let name = upstream.task(consumed);
            if server.has_slice(state.addr, name) || !services.gcs.lineage_committed(name) {
                continue;
            }
            let Some(entry) = services.gcs.get_partition(name) else { continue };
            let owner = if entry.backed_up && !services.is_killed(entry.owner) {
                Some(entry.owner)
            } else if entry.spooled {
                services.live_workers().first().copied()
            } else {
                None
            };
            if let Some(owner) = owner {
                services.gcs.add_replay(&ReplayRequest::new(owner, name, state.addr));
                services.wakeups.thread(owner, self.stage).notify();
            }
        }
    }

    /// Inputs for a task executed in replay mode: follow the logged lineage
    /// exactly (§IV-C: a rewound task "is no longer free to dynamically
    /// choose its input data partitions").
    fn replay_inputs(
        &self,
        state: &ChannelState,
        seq: SeqNo,
    ) -> Result<(TaskInputs, Vec<u32>, bool)> {
        let services = &self.services;
        let record = services.gcs.get_lineage(state.addr.task(seq)).ok_or_else(|| {
            QuokkaError::internal(format!(
                "missing lineage for rewound task {}",
                state.addr.task(seq)
            ))
        })?;
        let inputs = match &record.source {
            LineageSource::InputSplits { splits } => TaskInputs::Splits(splits.clone()),
            LineageSource::Finalize => TaskInputs::FinalizeOnly,
            LineageSource::Upstream { upstream, start_seq, count } => {
                let server = services.plane.server(self.worker)?;
                let mut partitions = Vec::with_capacity(*count as usize);
                for s in *start_seq..(*start_seq + *count) {
                    let name = upstream.task(s);
                    match server.peek(state.addr, name) {
                        Some(batches) => partitions.push((name, batches)),
                        None => return Ok((TaskInputs::NotReady, vec![], false)),
                    }
                }
                let flat_index = services.layout.watermark_index(self.stage, *upstream)?;
                let input_index = services
                    .layout
                    .upstream_channels(self.stage)
                    .iter()
                    .find(|(_, addr)| addr == upstream)
                    .map(|(idx, _)| *idx)
                    .unwrap_or(0);
                TaskInputs::Upstream {
                    input_index,
                    flat_index,
                    upstream: *upstream,
                    start_seq: *start_seq,
                    partitions,
                }
            }
        };
        Ok((inputs, record.finished_inputs.clone(), record.finalize))
    }

    /// Inputs for a task executed normally, under the configured scheduling
    /// policy.
    fn dynamic_inputs(&self, state: &ChannelState) -> Result<(TaskInputs, Vec<u32>, bool)> {
        let services = &self.services;
        let layout = &services.layout;
        let addr = state.addr;

        // Scan stages read splits from the durable store.
        if layout.graph.stage(self.stage).is_scan() {
            let assigned = layout.splits_for(addr);
            let consumed = state.splits_consumed as usize;
            if consumed < assigned.len() {
                let take = SPLITS_PER_TASK.min(assigned.len() - consumed);
                return Ok((
                    TaskInputs::Splits(assigned[consumed..consumed + take].to_vec()),
                    vec![],
                    false,
                ));
            }
            // No splits left (possibly none were assigned at all): emit a
            // final empty partition so downstream watermarks can complete.
            let already_finalized =
                self.channels.get(&addr).map(|rt| rt.finalized).unwrap_or(false);
            if !already_finalized {
                return Ok((TaskInputs::FinalizeOnly, vec![], true));
            }
            return Ok((TaskInputs::NotReady, vec![], false));
        }

        let max_inputs = match services.config.schedule {
            SchedulePolicy::Dynamic { max_inputs_per_task } => max_inputs_per_task,
            SchedulePolicy::StaticBatch { batch } => batch,
        };
        let server = services.plane.server(self.worker)?;
        let mut deferred = false;
        for (flat_index, (input_index, upstream)) in
            layout.upstream_channels(self.stage).iter().enumerate()
        {
            let consumed = state.consumed[flat_index];
            // Committed, contiguous, locally available outputs starting at
            // the watermark (the set I of Algorithm 1).
            let available = server.available_from(addr, *upstream, consumed);
            let mut count = 0u32;
            for expected in 0..max_inputs {
                let name = upstream.task(consumed + expected);
                if available.binary_search(&name).is_ok() && services.gcs.lineage_committed(name) {
                    count += 1;
                } else {
                    break;
                }
            }
            if count == 0 {
                continue;
            }
            // Static lineage: always take exactly `batch` inputs, except for
            // the final partial batch of a finished upstream channel.
            if let SchedulePolicy::StaticBatch { batch } = services.config.schedule {
                if count < batch {
                    let upstream_state = services.gcs.get_channel(*upstream);
                    let is_final_partial = upstream_state
                        .map(|s| s.done && consumed + count >= s.outputs_produced())
                        .unwrap_or(false);
                    if !is_final_partial {
                        continue;
                    }
                }
            }
            let mut partitions = Vec::with_capacity(count as usize);
            for s in consumed..consumed + count {
                let name = upstream.task(s);
                match server.peek(addr, name) {
                    Some(batches) => partitions.push((name, batches)),
                    None => return Ok((TaskInputs::NotReady, vec![], false)),
                }
            }
            // Dynamic lineage: leave a short run of empty slices in the
            // inbox while its upstream may still commit more outputs onto
            // it. Once the upstream has committed past the run (the next
            // slice is in flight or lost) the run is taken as before, so
            // the missing-input pull path still sees the gap.
            if matches!(services.config.schedule, SchedulePolicy::Dynamic { .. })
                && count < max_inputs
                && partitions.iter().all(|(_, batches)| batches.iter().all(|b| b.num_rows() == 0))
                && services
                    .gcs
                    .get_channel(*upstream)
                    .is_some_and(|up| !up.done && up.outputs_produced() <= consumed + count)
            {
                deferred = true;
                continue;
            }
            return Ok((
                TaskInputs::Upstream {
                    input_index: *input_index,
                    flat_index,
                    upstream: *upstream,
                    start_seq: consumed,
                    partitions,
                },
                vec![],
                false,
            ));
        }

        if deferred {
            // A deferred run's upstream is unfinished, so the channel
            // cannot finalize either.
            return Ok((TaskInputs::Deferred, vec![], false));
        }
        // Nothing to consume: maybe every upstream is exhausted and it is
        // time to finalize the channel.
        if self.all_inputs_exhausted(state)? {
            let already_finalized =
                self.channels.get(&addr).map(|rt| rt.finalized).unwrap_or(false);
            if !already_finalized {
                return Ok((TaskInputs::FinalizeOnly, vec![], true));
            }
        }
        Ok((TaskInputs::NotReady, vec![], false))
    }

    /// End-of-stream notifications that become true once `inputs` has been
    /// consumed: operator input indices whose upstream channels are all done
    /// and fully consumed.
    fn newly_finished_inputs(&self, state: &ChannelState, inputs: &TaskInputs) -> Result<Vec<u32>> {
        let layout = &self.services.layout;
        let num_inputs = layout.num_inputs(self.stage);
        let mut fired = Vec::new();
        let already =
            self.channels.get(&state.addr).map(|rt| rt.finished_inputs.clone()).unwrap_or_default();
        for input_index in 0..num_inputs {
            if already.contains(&input_index) {
                continue;
            }
            if self.input_exhausted(state, inputs, input_index)? {
                fired.push(input_index as u32);
            }
        }
        Ok(fired)
    }

    /// Whether operator input `input_index` is fully consumed after applying
    /// `inputs` on top of `state`.
    fn input_exhausted(
        &self,
        state: &ChannelState,
        inputs: &TaskInputs,
        input_index: usize,
    ) -> Result<bool> {
        let layout = &self.services.layout;
        for (flat, (idx, upstream)) in layout.upstream_channels(self.stage).iter().enumerate() {
            if *idx != input_index {
                continue;
            }
            let mut consumed = state.consumed[flat];
            if let TaskInputs::Upstream { flat_index, partitions, .. } = inputs {
                if *flat_index == flat {
                    consumed += partitions.len() as u32;
                }
            }
            match self.services.gcs.get_channel(*upstream) {
                Some(up) if up.done && consumed >= up.outputs_produced() => {}
                _ => return Ok(false),
            }
        }
        Ok(true)
    }

    /// Whether the channel can finalize after this task: every operator input
    /// is finished, by an earlier task or by this one (`to_finish`). This
    /// must not re-read the GCS: an upstream that a rewind had reset could
    /// finish in between, and the channel would finalize an operator whose
    /// input it never closed (a join finishing without its build side
    /// emits nothing).
    fn should_finalize(&self, addr: ChannelAddr, to_finish: &[u32]) -> bool {
        let already = self.channels.get(&addr).map(|rt| &rt.finished_inputs);
        (0..self.services.layout.num_inputs(self.stage)).all(|input| {
            to_finish.contains(&(input as u32)) || already.is_some_and(|f| f.contains(&input))
        })
    }

    fn all_inputs_exhausted(&self, state: &ChannelState) -> Result<bool> {
        for input_index in 0..self.services.layout.num_inputs(self.stage) {
            if !self.input_exhausted(state, &TaskInputs::FinalizeOnly, input_index)? {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

/// Spawn every stage thread for every worker. Returns the join handles.
pub fn spawn_workers(services: &Arc<Services>) -> Vec<std::thread::JoinHandle<()>> {
    spawn_workers_for(services, 0..services.layout.workers())
}

/// Spawn stage threads for a subset of the cluster's workers. This is how a
/// process-mode worker process hosts only its assigned worker range while
/// the layout still describes the whole cluster.
pub fn spawn_workers_for(
    services: &Arc<Services>,
    workers: std::ops::Range<WorkerId>,
) -> Vec<std::thread::JoinHandle<()>> {
    let mut handles = Vec::new();
    for worker in workers {
        for stage in 0..services.layout.graph.stages.len() as StageId {
            let services = Arc::clone(services);
            let handle = std::thread::Builder::new()
                .name(format!("quokka-w{worker}-s{stage}"))
                .spawn(move || StageWorker::new(worker, stage, services).run())
                .expect("failed to spawn worker thread");
            handles.push(handle);
        }
    }
    handles
}

#[cfg(test)]
mod tests {
    use super::*;
    use quokka_batch::{DataType, Schema};
    use quokka_plan::aggregate::sum;
    use quokka_plan::expr::col;
    use quokka_plan::logical::PlanBuilder;
    use quokka_plan::stage::StageGraph;
    use quokka_storage::DurableObjectStore;
    use std::sync::mpsc::{channel, Receiver};

    /// The scan channel, driven by hand, and the aggregate channel under
    /// test (the sink) of `scan(t) -> aggregate` on one worker.
    const SCAN: ChannelAddr = ChannelAddr::new(0, 0);
    const AGG: ChannelAddr = ChannelAddr::new(1, 0);

    fn harness(schedule: SchedulePolicy) -> (Arc<Services>, Receiver<StreamEvent>) {
        let schema = Schema::from_pairs(&[("k", DataType::Int64), ("v", DataType::Int64)]);
        let plan = PlanBuilder::scan("t", schema)
            .aggregate(vec![(col("k"), "k")], vec![sum(col("v"), "total")])
            .build()
            .unwrap();
        let config = EngineConfig::quokka(1).with_schedule(schedule);
        let graph = StageGraph::compile(&plan).unwrap();
        let splits = BTreeMap::from([("t".to_string(), 0)]);
        let layout = Arc::new(QueryLayout::new(graph, &config.cluster, &splits).unwrap());
        let (cost, metrics) = (CostModel::free(), MetricsRegistry::new());
        let (tx, rx) = channel();
        let services = Services::new(
            config,
            layout,
            Arc::new(Gcs::default()),
            Arc::new(DataPlane::new(1, cost, Arc::clone(&metrics))),
            Arc::new(DurableObjectStore::new(cost, Arc::clone(&metrics), BTreeMap::new())),
            tx,
            metrics,
        );
        services.register_channels();
        (Arc::new(services), rx)
    }

    /// Push scan output `seq` (rows of `(k, v)`) to the aggregate's inbox.
    fn push(services: &Services, seq: SeqNo, rows: &[(i64, i64)]) {
        let schema = services.layout.graph.stage(SCAN.stage).output_schema().unwrap();
        let batch = Batch::try_new(
            schema,
            vec![
                Column::Int64(rows.iter().map(|r| r.0).collect()),
                Column::Int64(rows.iter().map(|r| r.1).collect()),
            ],
        )
        .unwrap();
        services.plane.push(0, 0, AGG, SCAN.task(seq), &Slice::new(vec![batch])).unwrap();
    }

    /// Commit scan output `seq`: its lineage, its partition and the scan
    /// channel's new state.
    fn commit(services: &Services, seq: SeqNo, last: bool) {
        let mut state = services.gcs.get_channel(SCAN).unwrap();
        state.committed_seq = Some(seq);
        state.done = last;
        let commit = TaskCommit {
            worker: 0,
            lineage: LineageRecord {
                task: SCAN.task(seq),
                source: LineageSource::InputSplits { splits: vec![] },
                finished_inputs: vec![],
                finalize: last,
            },
            partition: PartitionEntry {
                name: SCAN.task(seq),
                owner: 0,
                backed_up: false,
                spooled: false,
            },
            channel_state: state,
            prev_channel: None,
        };
        services.gcs.commit_task(&commit, false).unwrap();
    }

    fn produce(services: &Services, seq: SeqNo, rows: &[(i64, i64)], last: bool) {
        push(services, seq, rows);
        commit(services, seq, last);
    }

    /// Try the aggregate channel's outstanding task; whether it committed.
    fn step(worker: &mut StageWorker) -> bool {
        let state = worker.services.gcs.get_channel(AGG).unwrap();
        worker.try_task(&state).unwrap()
    }

    /// The scan outputs the aggregate's task `seq` consumed.
    fn consumed(services: &Services, seq: SeqNo) -> (SeqNo, u32) {
        match services.gcs.get_lineage(AGG.task(seq)).unwrap().source {
            LineageSource::Upstream { start_seq, count, .. } => (start_seq, count),
            other => panic!("task {seq} consumed {other:?}"),
        }
    }

    #[test]
    fn empty_runs_wait_for_rows_a_full_run_or_the_last_output() {
        let (services, _results) = harness(SchedulePolicy::Dynamic { max_inputs_per_task: 4 });
        let mut worker = StageWorker::new(0, AGG.stage, Arc::clone(&services));

        produce(&services, 0, &[], false);
        produce(&services, 1, &[], false);
        assert!(!step(&mut worker), "two empty slices wait in the inbox");
        produce(&services, 2, &[(1, 10)], false);
        assert!(step(&mut worker));
        assert_eq!(consumed(&services, 0), (0, 3), "rows take the empty run along");

        for seq in 3..7 {
            produce(&services, seq, &[], false);
        }
        assert!(step(&mut worker), "a full run of empty slices runs");
        assert_eq!(consumed(&services, 1), (3, 4));

        produce(&services, 7, &[], false);
        assert!(!step(&mut worker));
        // The upstream commits output 8 before its slice arrives (in flight,
        // or lost): the run stops waiting, so the gap becomes the watermark
        // the missing-input pull path repairs.
        commit(&services, 8, false);
        assert!(step(&mut worker));
        assert_eq!(consumed(&services, 2), (7, 1));

        push(&services, 8, &[]);
        produce(&services, 9, &[], true);
        assert!(step(&mut worker), "the upstream's last output closes the run");
        assert_eq!(consumed(&services, 3), (8, 2));
        let last = services.gcs.get_lineage(AGG.task(3)).unwrap();
        assert_eq!((last.finished_inputs, last.finalize), (vec![0], true));
        assert!(services.gcs.get_channel(AGG).unwrap().done);
        assert_eq!(services.metrics.snapshot(Duration::ZERO).tasks_executed, 4);
        assert!(services.gcs.replays_for_worker(0).is_empty(), "a deferred run is not missing");
    }

    #[test]
    fn static_batches_still_take_empty_slices() {
        let (services, _results) = harness(SchedulePolicy::StaticBatch { batch: 2 });
        let mut worker = StageWorker::new(0, AGG.stage, Arc::clone(&services));
        produce(&services, 0, &[], false);
        assert!(!step(&mut worker), "half a batch waits");
        produce(&services, 1, &[], false);
        assert!(step(&mut worker));
        assert_eq!(consumed(&services, 0), (0, 2));
    }

    #[test]
    fn replaying_lineage_over_empty_partitions_reproduces_the_output() {
        let (services, results) = harness(SchedulePolicy::Dynamic { max_inputs_per_task: 4 });
        let inputs: [&[(i64, i64)]; 6] = [&[], &[(1, 10), (2, 5)], &[], &[(1, 7)], &[], &[(3, 1)]];
        let last = inputs.len() as SeqNo - 1;
        let mut worker = StageWorker::new(0, AGG.stage, Arc::clone(&services));
        for (seq, rows) in inputs.iter().enumerate() {
            produce(&services, seq as SeqNo, rows, seq as SeqNo == last);
            step(&mut worker);
        }
        while !services.gcs.get_channel(AGG).unwrap().done {
            assert!(step(&mut worker), "the aggregate must finish");
        }
        let emitted = |results: &Receiver<StreamEvent>| -> Vec<(TaskName, Vec<Batch>)> {
            results
                .try_iter()
                .filter_map(|event| match event {
                    StreamEvent::Batch { name, batches } => Some((name, batches)),
                    _ => None,
                })
                .collect()
        };
        let original = emitted(&results);
        let ranges: Vec<_> = (0..original.len() as SeqNo).map(|s| consumed(&services, s)).collect();
        assert!(
            ranges.iter().any(|&(start, count)| (start..start + count)
                .any(|seq| inputs[seq as usize].is_empty())
                && count > 1),
            "some logged range must span empty partitions: {ranges:?}"
        );

        // Rewind the channel as recovery does, and re-deliver its inputs.
        let committed = services.gcs.get_channel(AGG).unwrap().committed_seq;
        let mut rewound = ChannelState::new(AGG, 0, 1);
        rewound.rewind_until = committed;
        services.gcs.put_channel(&rewound);
        for (seq, rows) in inputs.iter().enumerate() {
            push(&services, seq as SeqNo, rows);
        }
        let mut replayer = StageWorker::new(0, AGG.stage, Arc::clone(&services));
        while !services.gcs.get_channel(AGG).unwrap().done {
            assert!(step(&mut replayer), "every replayed task has its inputs");
        }
        assert_eq!(emitted(&results), original, "the replay must re-emit the same partitions");
        let replayed: Vec<_> =
            (0..original.len() as SeqNo).map(|s| consumed(&services, s)).collect();
        assert_eq!(replayed, ranges);
        let metrics = services.metrics.snapshot(Duration::ZERO);
        assert_eq!(metrics.recovery_tasks, original.len() as u64);
    }

    /// One cross-worker slice over TCP is the same bytes three times: the
    /// payload backed up, the bytes charged to the shuffle metrics, and the
    /// body of the frame the receiving worker decodes.
    #[test]
    fn a_shuffled_slice_is_backed_up_charged_and_shipped_as_one_payload() {
        let schema = Schema::from_pairs(&[("k", DataType::Int64), ("v", DataType::Int64)]);
        let plan = PlanBuilder::scan("t", schema.clone())
            .aggregate(vec![(col("k"), "k")], vec![sum(col("v"), "total")])
            .build()
            .unwrap();
        let table = Batch::try_new(
            schema,
            vec![
                Column::Int64((0..400).map(|i| i % 50).collect()),
                Column::Int64((0..400).collect()),
            ],
        )
        .unwrap();
        let config = EngineConfig::quokka(2);
        let graph = StageGraph::compile(&plan).unwrap();
        let layout = Arc::new(
            QueryLayout::new(graph, &config.cluster, &BTreeMap::from([("t".to_string(), 4)]))
                .unwrap(),
        );
        let (cost, metrics) = (CostModel::free(), MetricsRegistry::new());
        // Worker 1's lane leads to this test's listener instead of a worker:
        // the test reads the frame the receiver would.
        let receiver = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let servers: Vec<_> = (0..2).map(|w| Arc::new(quokka_net::FlightServer::new(w))).collect();
        let transport = quokka_net::TcpTransport::bind(
            2,
            &config.transport,
            Arc::clone(&metrics),
            DataPlane::deliver_into(servers.clone()),
        )
        .unwrap();
        transport.connect_peer(1, receiver.local_addr().unwrap()).unwrap();
        let plane = DataPlane::from_parts(servers, cost, Arc::clone(&metrics), Box::new(transport));
        let tables = BTreeMap::from([("t".to_string(), table.chunks(100).into())]);
        let (tx, _results) = channel();
        let services = Arc::new(Services::new(
            config,
            layout,
            Arc::new(Gcs::default()),
            Arc::new(plane),
            Arc::new(DurableObjectStore::new(cost, Arc::clone(&metrics), tables)),
            tx,
            metrics,
        ));
        services.register_channels();

        // The scan channel on worker 0 feeds aggregate channel 0, hosted on
        // worker 1, and channel 1, hosted on worker 0.
        let mut scan = StageWorker::new(0, SCAN.stage, Arc::clone(&services));
        assert!(scan.try_task(&services.gcs.get_channel(SCAN).unwrap()).unwrap());
        let (mut wire, _) = receiver.accept().unwrap();
        let frame = quokka_batch::wire::read_frame(&mut wire).unwrap().unwrap();
        let (header, body) = quokka_net::tcp::PushHeader::decode(&frame).unwrap();
        assert_eq!((header.destination, header.consumer), (1, AGG));

        let backup = services.backups[0].get(SCAN.task(0), AGG).unwrap();
        assert_eq!(body, &backup[..], "the receiver decodes the backed-up payload");
        let shipped = quokka_batch::wire::decode_partition(body).unwrap();
        assert!(shipped.iter().any(|b| b.num_rows() > 0), "the slice carries rows");
        let snap = services.metrics.snapshot(Duration::ZERO);
        assert_eq!(snap.shuffle_bytes, backup.len() as u64, "the shuffle charge is the payload");
        assert_eq!(snap.shuffle_edges.len(), 1);
        assert_eq!(snap.shuffle_edges[0].bytes, backup.len() as u64);
    }
}
