//! The TaskManager side of the engine: Algorithm 1.
//!
//! Each worker machine runs one [`StageWorker`] thread per stage. The thread
//! polls the GCS for the channels of its stage that are currently assigned
//! to its worker and, for each, tries to execute the channel's outstanding
//! task:
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
//! 4. commit the lineage, the partition-directory entry, the new channel
//!    watermarks and the next task **in a single GCS transaction**; if the
//!    push failed or the recovery barrier was raised, nothing is committed
//!    and the task is retried later.

use crate::chaos::{ChaosEngine, CommitTally};
use crate::layout::QueryLayout;
use crate::stream::StreamEvent;
use parking_lot::Mutex;
use quokka_batch::codec::{decode_partition, encode_partition};
use quokka_batch::compute::hash_partition;
use quokka_batch::{Batch, Column};
use quokka_common::config::{EngineConfig, ExecutionMode, FaultStrategy, SchedulePolicy};
use quokka_common::ids::{ChannelAddr, SeqNo, StageId, TaskName, WorkerId};
use quokka_common::metrics::MetricsRegistry;
use quokka_common::retry::RetryPolicy;
use quokka_common::{QuokkaError, Result};
use quokka_gcs::tables::{
    ChannelState, LineageRecord, LineageSource, PartitionEntry, ReplayRequest, TaskCommit,
    TaskEntry,
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
    /// coordinator wind the query down at their next poll.
    pub cancelled: Arc<std::sync::atomic::AtomicBool>,
    pub cost: CostModel,
    /// Per-worker liveness counters bumped by every stage thread on every
    /// poll; the coordinator's failure detector suspects a worker whose
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
        }
    }

    /// Register every channel and its first task in the GCS, before any
    /// worker starts. Chaos events due before the first commit raise the
    /// barrier here, so they too land before any task commits.
    pub fn register_channels(&self) {
        for addr in self.layout.all_channels() {
            let worker = self.layout.initial_worker(addr);
            let upstream = self.layout.upstream_channels(addr.stage).len();
            self.gcs.put_channel(&ChannelState::new(addr, worker, upstream));
            self.gcs.put_task(&TaskEntry { task: addr.task(0), worker });
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
    /// Idle polling backs off exponentially (`poll_interval` up to ~5ms):
    /// a stage whose inputs are not flowing should not spin at kHz rates.
    /// With one thread per (worker, stage) pair, constant-rate polling
    /// starves busy threads on small machines — enough to stall a query
    /// outright when several engines share a core.
    pub fn run(mut self) {
        let poll = self.services.config.cluster.poll_interval;
        // Idle backoff shares the configured retry policy's shape but polls
        // from `poll_interval` up to ~5ms; jitter decorrelates the stage
        // threads so they do not thunder against the GCS in lockstep.
        let idle_policy = RetryPolicy {
            base_delay: poll,
            max_delay: Duration::from_millis(5).max(poll),
            ..self.services.config.retry
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
            self.services.heartbeat(self.worker);
            if self.services.is_killed(self.worker) {
                return;
            }
            let gcs = &self.services.gcs;
            if gcs.is_query_done() || gcs.query_error().is_some() || self.services.is_cancelled() {
                return;
            }
            if gcs.is_paused() {
                std::thread::sleep(Duration::from_micros(100));
                continue;
            }
            let mut progressed = self.handle_replays();
            for addr in self.services.layout.channels_of(self.stage) {
                if self.services.is_killed(self.worker) {
                    return;
                }
                if self.services.gcs.is_paused() {
                    break;
                }
                let Some(state) = self.services.gcs.get_channel(addr) else { continue };
                if state.worker != self.worker || state.done {
                    continue;
                }
                match self.try_task(&state) {
                    Ok(true) => progressed = true,
                    Ok(false) => {}
                    Err(e) if e.is_retryable() => {}
                    Err(e) => {
                        self.services.gcs.set_query_error(&format!(
                            "worker {} stage {}: {e}",
                            self.worker, self.stage
                        ));
                        return;
                    }
                }
            }
            if !progressed {
                idle.sleep();
            } else {
                idle.reset();
            }
        }
    }

    /// Serve replay requests addressed to this worker (recovery): re-push a
    /// backed-up (or spooled) slice to the consumer's current worker.
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
            let batches = match payload.and_then(|p| decode_partition(&p)) {
                Ok(batches) => batches,
                Err(_) => {
                    // The slice is gone (e.g. a chaos-wiped backup store).
                    // Flag it so the coordinator rewinds the producer and
                    // regenerates it from lineage.
                    services.gcs.mark_partition_lost(request.partition);
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
                batches,
            );
            match pushed {
                Ok(()) => progressed = true,
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
                        services.gcs.set_query_error(
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
                    services.gcs.set_query_error(&format!(
                        "replay of {} to {} failed fatally: {e}",
                        request.partition, request.consumer
                    ));
                    return progressed;
                }
            }
        }
        progressed
    }

    /// Try to execute the outstanding task of one channel. Returns whether a
    /// task was committed.
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

        let Some(task) = services.gcs.get_task(addr) else {
            if std::env::var_os("QUOKKA_TRACE").is_some() && state.rewind_until.is_some() {
                eprintln!("[trace] {} rewinding but has no task entry", addr);
            }
            return Ok(false);
        };
        if task.worker != self.worker {
            if std::env::var_os("QUOKKA_TRACE").is_some() && state.rewind_until.is_some() {
                eprintln!(
                    "[trace] {} rewinding on worker {} but task {} points at worker {}",
                    addr, self.worker, task.task, task.worker
                );
            }
            return Ok(false);
        }
        let seq = task.task.seq;

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
        let inputs = match inputs {
            TaskInputs::NotReady => {
                // If the channel is starved of a partition its upstream has
                // already committed, pull it back from its backup owner.
                self.request_missing_inputs(state);
                return Ok(false);
            }
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
        let lineage_source = match &inputs {
            TaskInputs::Splits(splits) => {
                let scan = layout
                    .graph
                    .stage(self.stage)
                    .scan
                    .clone()
                    .ok_or_else(|| QuokkaError::internal("split inputs on a non-scan stage"))?;
                for split in splits {
                    // A scan narrowed by projection pruning reads only its
                    // column subset of the shared split.
                    let batch = services.durable.read_split(&scan.table, *split, &scan.schema)?;
                    outputs.extend(rt.op.push(0, &batch)?);
                }
                LineageSource::InputSplits { splits: splits.clone() }
            }
            TaskInputs::Upstream { input_index, upstream, start_seq, partitions, .. } => {
                for (_, batches) in partitions {
                    for batch in batches {
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
            TaskInputs::NotReady => unreachable!("handled above"),
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

        // Slice the output for the consuming stage and write the upstream
        // backup / durable spool copies (both idempotent) before publishing.
        let slices = match consumer {
            Some((consumer_stage, _)) => self.slice_outputs(&outputs, consumer_stage)?,
            None => Vec::new(),
        };
        let mut partition_bytes = 0u64;
        if consumer.is_some() {
            for (consumer_addr, batches) in &slices {
                if strategy.upstream_backup() || strategy.spools() {
                    let payload = encode_partition(batches);
                    partition_bytes += payload.len() as u64;
                    if strategy.upstream_backup() {
                        // The backup store only sees encoded bytes; record
                        // the plain footprint here where the batches exist.
                        services.metrics.add_backup_raw_bytes(
                            batches.iter().map(|b| b.byte_size() as u64).sum(),
                        );
                        services.backups[self.worker as usize].put(
                            out_name,
                            *consumer_addr,
                            payload.clone(),
                        )?;
                    }
                    if strategy.spools() {
                        services
                            .durable
                            .put(Services::spool_key(out_name, *consumer_addr), payload);
                    }
                } else {
                    partition_bytes += batches.iter().map(|b| b.byte_size() as u64).sum::<u64>();
                }
            }
        } else {
            // Sink stage: the output is the query result.
            partition_bytes = outputs.iter().map(|b| b.byte_size() as u64).sum();
        }

        // Periodic state checkpointing (the expensive strategy of §II-B3,
        // included for the checkpoint-overhead ablation).
        if let FaultStrategy::Checkpointing { interval_tasks } = strategy {
            let rt = self.channels.get_mut(&addr).expect("runtime present");
            if layout.graph.stage(self.stage).is_stateful()
                && interval_tasks > 0
                && seq % interval_tasks == 0
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
            TaskInputs::FinalizeOnly | TaskInputs::NotReady => {}
        }
        let scan_done = layout.graph.stage(self.stage).is_scan()
            && new_state.splits_consumed as usize >= layout.splits_for(addr).len();
        new_state.done = finalize || scan_done;
        if let Some(until) = new_state.rewind_until {
            if seq >= until {
                new_state.rewind_until = None;
            }
        }
        let next_task = if new_state.done {
            None
        } else {
            Some(TaskEntry { task: addr.task(seq + 1), worker: self.worker })
        };
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
                output_rows,
                output_bytes: partition_bytes,
            },
            partition: PartitionEntry {
                name: out_name,
                owner: self.worker,
                backed_up: strategy.upstream_backup() && consumer.is_some(),
                spooled: strategy.spools() && consumer.is_some(),
                bytes: partition_bytes,
            },
            channel_state: new_state.clone(),
            prev_channel: Some(state.clone()),
            next_task,
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
        loop {
            services.heartbeat(self.worker);
            if services.is_killed(self.worker)
                || services.gcs.is_query_done()
                || services.gcs.query_error().is_some()
            {
                self.channels.remove(&addr);
                return Ok(false);
            }
            let channel_untouched = services
                .gcs
                .get_channel(addr)
                .map(|c| {
                    c.worker == self.worker
                        && c.committed_seq == state.committed_seq
                        && c.rewind_until == state.rewind_until
                })
                .unwrap_or(false)
                && services
                    .gcs
                    .get_task(addr)
                    .map(|t| t.task.seq == seq && t.worker == self.worker)
                    .unwrap_or(false);
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
            for (consumer_addr, batches) in &slices {
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
                    batches.clone(),
                ) {
                    Ok(()) => {}
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
                if std::env::var_os("QUOKKA_TRACE").is_some() {
                    eprintln!("[trace] {} push retry for task {seq}", addr);
                }
                publish_backoff.sleep();
                continue;
            }
            if services
                .chaos
                .commit(&tally, |raise| services.gcs.commit_task(&commit, raise))
                .is_ok()
            {
                break;
            }
            services.metrics.add_push_retry();
            if std::env::var_os("QUOKKA_TRACE").is_some() {
                eprintln!("[trace] {} commit abort for task {seq}", addr);
            }
            publish_backoff.sleep();
        }
        if std::env::var_os("QUOKKA_TRACE").is_some() {
            eprintln!(
                "[trace] worker={} task={} source={:?} finish={:?} finalize={} rows={} done={}",
                self.worker,
                out_name,
                commit.lineage.source,
                to_finish,
                finalize,
                output_rows,
                new_state.done
            );
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
            services.emit_result(out_name, outputs);
        }
        services.metrics.add_task(replay_mode);
        let rt = self.channels.get_mut(&addr).expect("runtime present");
        rt.expected_seq = seq + 1;
        if new_state.done {
            self.channels.remove(&addr);
        }
        Ok(true)
    }

    /// Hash-partition output batches into one slice per consumer channel.
    fn slice_outputs(
        &self,
        outputs: &[Batch],
        consumer_stage: StageId,
    ) -> Result<Vec<(ChannelAddr, Vec<Batch>)>> {
        let layout = &self.services.layout;
        let consumer_channels = layout.channel_count(consumer_stage) as usize;
        let partition_by = &layout.graph.stage(self.stage).partition_by;
        let mut slices: Vec<Vec<Batch>> = vec![Vec::new(); consumer_channels];
        if consumer_channels == 1 || partition_by.is_empty() {
            slices[0] = outputs.to_vec();
        } else {
            for batch in outputs {
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
        // coalesce the per-batch partition fragments (each wire frame
        // carries a full schema header, and column encodings only pay off
        // over long runs) and re-encode plain columns here where the win is
        // paid for once. Both steps are deterministic, keeping replayed
        // partitions byte-identical to the originals.
        for batches in &mut slices {
            if batches.len() > 1 {
                *batches = Batch::concat(batches)?.chunks(COALESCE_ROWS);
            }
            for batch in batches.iter_mut() {
                *batch = Batch::try_new(
                    batch.schema().clone(),
                    batch.columns().iter().map(Column::encode_auto).collect(),
                )?;
            }
        }
        Ok(slices
            .into_iter()
            .enumerate()
            .map(|(c, batches)| (ChannelAddr::new(consumer_stage, c as u32), batches))
            .collect())
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
            if std::env::var_os("QUOKKA_TRACE").is_some() {
                eprintln!("[trace] missing-input {} for {} owner={owner:?}", name, state.addr);
            }
            if let Some(owner) = owner {
                services.gcs.add_replay(&ReplayRequest::new(owner, name, state.addr));
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
                        None => {
                            if std::env::var_os("QUOKKA_TRACE").is_some() {
                                eprintln!(
                                    "[trace] replay {} task {seq} missing input {name}",
                                    state.addr
                                );
                            }
                            return Ok((TaskInputs::NotReady, vec![], false));
                        }
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
