//! Execution metrics collected during a query run.
//!
//! The experiments in the paper report *ratios* of runtimes (overhead,
//! speedup, recovery overhead). The engine additionally records the raw
//! quantities that explain those ratios — bytes spooled durably, bytes backed
//! up locally, lineage bytes logged, GCS transactions, tasks executed,
//! recovery time — so the benchmark harness can print the "why" next to the
//! "what".

use crate::ids::{StageId, WorkerId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Bytes shuffled across one stage edge (producer stage → consumer stage)
/// over the simulated network. The per-edge breakdown is what makes
/// optimizer wins measurable: predicate pushdown and projection pruning
/// shrink specific scan→join edges, and the shuffle-volume bench asserts on
/// exactly that.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShuffleEdge {
    /// Stage that produced the shuffled slices.
    pub from_stage: StageId,
    /// Stage that consumed them.
    pub to_stage: StageId,
    /// Total bytes pushed across workers on this edge, as they ship on the
    /// wire (compressed column encodings included).
    pub bytes: u64,
    /// The same traffic measured in plain (decoded) column bytes. The gap
    /// between `raw_bytes` and `bytes` is what the columnar encodings saved
    /// on this edge.
    pub raw_bytes: u64,
}

/// Wire-level transport counters towards one peer, as seen from this
/// process: frames/bytes handed to the peer's send queue, frames/bytes
/// received from it, and the deepest its bounded send queue ever got (the
/// backpressure high-water mark). All zeros under the in-process transport,
/// which has no wire.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PeerWireStats {
    /// The peer worker these counters are towards/from.
    pub peer: WorkerId,
    /// Frames enqueued for sending to this peer.
    pub frames_sent: u64,
    /// Encoded bytes enqueued for sending to this peer.
    pub bytes_sent: u64,
    /// Frames received from this peer.
    pub frames_received: u64,
    /// Encoded bytes received from this peer.
    pub bytes_received: u64,
    /// Deepest observed occupancy of the bounded send queue to this peer.
    pub send_queue_peak: u64,
}

/// A snapshot of the counters for one query run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct QueryMetrics {
    /// Wall-clock runtime of the query.
    pub runtime: Duration,
    /// Number of tasks executed (including replays and rewinds).
    pub tasks_executed: u64,
    /// Number of tasks executed purely for recovery (replay + rewind).
    pub recovery_tasks: u64,
    /// Bytes of shuffle data pushed over the (simulated) network, measured
    /// in wire-encoded form (compressed column encodings included).
    pub shuffle_bytes: u64,
    /// The same shuffle traffic measured in plain (decoded) column bytes;
    /// `shuffle_raw_bytes / shuffle_bytes` is the network compression ratio.
    pub shuffle_raw_bytes: u64,
    /// Per-edge breakdown of `shuffle_bytes`, sorted by (from, to) stage.
    pub shuffle_edges: Vec<ShuffleEdge>,
    /// Bytes written to the durable object store (spooling / checkpoints).
    pub durable_bytes: u64,
    /// Bytes written to workers' local disks (upstream backup), in encoded
    /// form as stored.
    pub backup_bytes: u64,
    /// Plain (decoded) column bytes of the batches behind `backup_bytes`.
    pub backup_raw_bytes: u64,
    /// Bytes of operator state written as checkpoints (subset of
    /// `durable_bytes` when checkpointing is enabled).
    pub checkpoint_bytes: u64,
    /// Bytes of lineage records committed to the GCS, in the records'
    /// binary encoding.
    pub lineage_bytes: u64,
    /// Number of GCS transactions committed.
    pub gcs_transactions: u64,
    /// Number of worker failures injected during the run.
    pub failures: u64,
    /// Number of chaos events fired (kills, suspicions, lost backups,
    /// dropped/delayed pushes, stragglers).
    pub chaos_events: u64,
    /// Number of times the failure detector suspected a live worker and
    /// reconciled its channels without killing it.
    pub suspicions: u64,
    /// Number of retries spent publishing task results (push + commit
    /// attempts beyond the first).
    pub push_retries: u64,
    /// Number of times a replay request was re-queued after a failed
    /// delivery attempt.
    pub replay_requeues: u64,
    /// Time spent between failure detection and resumption of normal
    /// execution (coordinator-side recovery planning + rescheduling).
    pub recovery_planning: Duration,
    /// Number of output rows produced by the query.
    pub output_rows: u64,
    /// Number of (non-empty) result emissions the sink stage produced.
    pub result_batches: u64,
    /// Time from query start until the sink emitted its first result batch.
    /// `None` when the query produced no results (or predates streaming).
    /// For a blocking sink (sort/global aggregate) this approaches
    /// `runtime`; for a pipelined sink it is the time-to-first-row the
    /// streaming API delivers on.
    pub time_to_first_batch: Option<Duration>,
    /// The stall watchdog the run actually used, after environment
    /// overrides. Surfaced so tests can assert the effective setting.
    pub effective_watchdog: Duration,
    /// The failure detector's effective suspicion timeout.
    pub effective_suspicion_timeout: Duration,
    /// Whether this execution reused a cached plan (parse, bind,
    /// decorrelation and optimization were all skipped). Stamped by the
    /// facade's plan cache; always `false` for non-SQL frontends.
    pub plan_cache_hit: bool,
    /// Time this query spent waiting in the admission queue before it was
    /// allowed to execute (zero when admission is unlimited or the query
    /// was admitted immediately).
    pub admission_wait: Duration,
    /// The memory estimate (from catalog statistics) this query was
    /// admitted under; zero when admission control is unlimited.
    pub admitted_memory_bytes: u64,
    /// Per-peer wire counters (bytes/frames on the wire, send-queue
    /// high-water marks), sorted by peer. Empty under the in-process
    /// transport.
    pub transport_peers: Vec<PeerWireStats>,
}

impl QueryMetrics {
    /// Overhead of this run relative to a baseline runtime, as defined in
    /// the paper (ratio of runtimes); returns `f64::NAN` for a zero baseline.
    pub fn overhead_vs(&self, baseline: Duration) -> f64 {
        if baseline.is_zero() {
            f64::NAN
        } else {
            self.runtime.as_secs_f64() / baseline.as_secs_f64()
        }
    }
}

/// Thread-safe counters shared by workers, the coordinator, the data plane
/// and the storage layer during one query run.
#[derive(Debug)]
pub struct MetricsRegistry {
    /// Origin of the first-batch clock. Created at registry construction
    /// and reset by the runtime when workers actually start, so
    /// `time_to_first_batch` and `runtime` share one origin (table loading
    /// is excluded from both).
    started: Mutex<std::time::Instant>,
    tasks_executed: AtomicU64,
    recovery_tasks: AtomicU64,
    shuffle_bytes: AtomicU64,
    shuffle_raw_bytes: AtomicU64,
    /// Per-edge `(encoded bytes, raw bytes)` pairs.
    shuffle_edges: Mutex<BTreeMap<(StageId, StageId), (u64, u64)>>,
    wire_peers: Mutex<BTreeMap<WorkerId, PeerWireStats>>,
    durable_bytes: AtomicU64,
    backup_bytes: AtomicU64,
    backup_raw_bytes: AtomicU64,
    checkpoint_bytes: AtomicU64,
    failures: AtomicU64,
    chaos_events: AtomicU64,
    suspicions: AtomicU64,
    push_retries: AtomicU64,
    replay_requeues: AtomicU64,
    recovery_planning_nanos: AtomicU64,
    output_rows: AtomicU64,
    result_batches: AtomicU64,
    /// Nanoseconds from `started` to the first sink emission; 0 = not yet.
    first_batch_nanos: AtomicU64,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry {
            started: Mutex::new(std::time::Instant::now()),
            tasks_executed: AtomicU64::new(0),
            recovery_tasks: AtomicU64::new(0),
            shuffle_bytes: AtomicU64::new(0),
            shuffle_raw_bytes: AtomicU64::new(0),
            shuffle_edges: Mutex::new(BTreeMap::new()),
            wire_peers: Mutex::new(BTreeMap::new()),
            durable_bytes: AtomicU64::new(0),
            backup_bytes: AtomicU64::new(0),
            backup_raw_bytes: AtomicU64::new(0),
            checkpoint_bytes: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            chaos_events: AtomicU64::new(0),
            suspicions: AtomicU64::new(0),
            push_retries: AtomicU64::new(0),
            replay_requeues: AtomicU64::new(0),
            recovery_planning_nanos: AtomicU64::new(0),
            output_rows: AtomicU64::new(0),
            result_batches: AtomicU64::new(0),
            first_batch_nanos: AtomicU64::new(0),
        }
    }
}

impl MetricsRegistry {
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    pub fn add_task(&self, recovery: bool) {
        self.tasks_executed.fetch_add(1, Ordering::Relaxed);
        if recovery {
            self.recovery_tasks.fetch_add(1, Ordering::Relaxed);
        }
    }
    /// Record one shuffle push: `bytes` as shipped on the wire (encoded) and
    /// `raw_bytes` as the plain column footprint of the same batches.
    pub fn add_shuffle_bytes(&self, bytes: u64, raw_bytes: u64) {
        self.shuffle_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.shuffle_raw_bytes.fetch_add(raw_bytes, Ordering::Relaxed);
    }
    /// Record shuffled bytes against the (producer stage, consumer stage)
    /// edge, in addition to the `shuffle_bytes` total the caller records.
    pub fn add_shuffle_edge(&self, from_stage: StageId, to_stage: StageId, bytes: u64, raw: u64) {
        let mut edges = self.shuffle_edges.lock().expect("shuffle edge map poisoned");
        let entry = edges.entry((from_stage, to_stage)).or_insert((0, 0));
        entry.0 += bytes;
        entry.1 += raw;
    }
    /// Record one frame handed to `peer`'s send queue, and fold the queue
    /// occupancy observed at enqueue time into the high-water mark.
    pub fn add_wire_send(&self, peer: WorkerId, bytes: u64, queue_depth: u64) {
        let mut peers = self.wire_peers.lock().expect("wire peer map poisoned");
        let stats = peers.entry(peer).or_insert(PeerWireStats { peer, ..Default::default() });
        stats.frames_sent += 1;
        stats.bytes_sent += bytes;
        stats.send_queue_peak = stats.send_queue_peak.max(queue_depth);
    }

    /// Record one frame received from `peer`.
    pub fn add_wire_recv(&self, peer: WorkerId, bytes: u64) {
        let mut peers = self.wire_peers.lock().expect("wire peer map poisoned");
        let stats = peers.entry(peer).or_insert(PeerWireStats { peer, ..Default::default() });
        stats.frames_received += 1;
        stats.bytes_received += bytes;
    }

    /// Fold another snapshot's per-peer wire counters into this registry
    /// (used in process mode, where each worker process reports its own
    /// counters to the driver at exit).
    pub fn merge_wire_peers(&self, other: &[PeerWireStats]) {
        let mut peers = self.wire_peers.lock().expect("wire peer map poisoned");
        for s in other {
            let stats =
                peers.entry(s.peer).or_insert(PeerWireStats { peer: s.peer, ..Default::default() });
            stats.frames_sent += s.frames_sent;
            stats.bytes_sent += s.bytes_sent;
            stats.frames_received += s.frames_received;
            stats.bytes_received += s.bytes_received;
            stats.send_queue_peak = stats.send_queue_peak.max(s.send_queue_peak);
        }
    }

    pub fn add_durable_bytes(&self, bytes: u64) {
        self.durable_bytes.fetch_add(bytes, Ordering::Relaxed);
    }
    pub fn add_backup_bytes(&self, bytes: u64) {
        self.backup_bytes.fetch_add(bytes, Ordering::Relaxed);
    }
    /// Record the plain column footprint behind a backup write (the backup
    /// store itself only sees the encoded payload).
    pub fn add_backup_raw_bytes(&self, bytes: u64) {
        self.backup_raw_bytes.fetch_add(bytes, Ordering::Relaxed);
    }
    pub fn add_checkpoint_bytes(&self, bytes: u64) {
        self.checkpoint_bytes.fetch_add(bytes, Ordering::Relaxed);
    }
    pub fn add_failure(&self) {
        self.failures.fetch_add(1, Ordering::Relaxed);
    }
    pub fn add_chaos_event(&self) {
        self.chaos_events.fetch_add(1, Ordering::Relaxed);
    }
    pub fn add_suspicion(&self) {
        self.suspicions.fetch_add(1, Ordering::Relaxed);
    }
    pub fn add_push_retry(&self) {
        self.push_retries.fetch_add(1, Ordering::Relaxed);
    }
    pub fn add_replay_requeue(&self) {
        self.replay_requeues.fetch_add(1, Ordering::Relaxed);
    }
    pub fn add_recovery_planning(&self, d: Duration) {
        self.recovery_planning_nanos.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }
    pub fn add_output_rows(&self, rows: u64) {
        self.output_rows.fetch_add(rows, Ordering::Relaxed);
    }
    /// Restart the first-batch clock (called by the runtime when worker
    /// execution begins, so setup work is excluded from the measurement).
    pub fn restart_clock(&self) {
        *self.started.lock().expect("metrics clock poisoned") = std::time::Instant::now();
    }

    /// Record one (non-empty) sink emission, stamping the time-to-first-batch
    /// on the first call.
    pub fn add_result_batch(&self) {
        self.result_batches.fetch_add(1, Ordering::Relaxed);
        if self.first_batch_nanos.load(Ordering::Relaxed) == 0 {
            let started = *self.started.lock().expect("metrics clock poisoned");
            // `max(1)` so an emission in the first nanosecond still counts
            // as "seen" (0 is the unset sentinel).
            let nanos = (started.elapsed().as_nanos() as u64).max(1);
            let _ = self.first_batch_nanos.compare_exchange(
                0,
                nanos,
                Ordering::Relaxed,
                Ordering::Relaxed,
            );
        }
    }

    /// Produce an immutable snapshot, attaching the measured wall-clock
    /// runtime of the query.
    pub fn snapshot(&self, runtime: Duration) -> QueryMetrics {
        QueryMetrics {
            runtime,
            tasks_executed: self.tasks_executed.load(Ordering::Relaxed),
            recovery_tasks: self.recovery_tasks.load(Ordering::Relaxed),
            shuffle_bytes: self.shuffle_bytes.load(Ordering::Relaxed),
            shuffle_raw_bytes: self.shuffle_raw_bytes.load(Ordering::Relaxed),
            shuffle_edges: self
                .shuffle_edges
                .lock()
                .expect("shuffle edge map poisoned")
                .iter()
                .map(|(&(from_stage, to_stage), &(bytes, raw_bytes))| ShuffleEdge {
                    from_stage,
                    to_stage,
                    bytes,
                    raw_bytes,
                })
                .collect(),
            durable_bytes: self.durable_bytes.load(Ordering::Relaxed),
            backup_bytes: self.backup_bytes.load(Ordering::Relaxed),
            backup_raw_bytes: self.backup_raw_bytes.load(Ordering::Relaxed),
            checkpoint_bytes: self.checkpoint_bytes.load(Ordering::Relaxed),
            // Both come from the GCS; the runtime fills them in.
            lineage_bytes: 0,
            gcs_transactions: 0,
            failures: self.failures.load(Ordering::Relaxed),
            chaos_events: self.chaos_events.load(Ordering::Relaxed),
            suspicions: self.suspicions.load(Ordering::Relaxed),
            push_retries: self.push_retries.load(Ordering::Relaxed),
            replay_requeues: self.replay_requeues.load(Ordering::Relaxed),
            recovery_planning: Duration::from_nanos(
                self.recovery_planning_nanos.load(Ordering::Relaxed),
            ),
            output_rows: self.output_rows.load(Ordering::Relaxed),
            result_batches: self.result_batches.load(Ordering::Relaxed),
            time_to_first_batch: match self.first_batch_nanos.load(Ordering::Relaxed) {
                0 => None,
                nanos => Some(Duration::from_nanos(nanos)),
            },
            // Effective settings and serving provenance are configuration,
            // not counters; the runtime stamps them onto the snapshot after
            // the run.
            effective_watchdog: Duration::ZERO,
            effective_suspicion_timeout: Duration::ZERO,
            plan_cache_hit: false,
            admission_wait: Duration::ZERO,
            admitted_memory_bytes: 0,
            transport_peers: self
                .wire_peers
                .lock()
                .expect("wire peer map poisoned")
                .values()
                .copied()
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_accumulates_and_snapshots() {
        let reg = MetricsRegistry::new();
        reg.add_task(false);
        reg.add_task(true);
        reg.add_shuffle_bytes(100, 160);
        reg.add_shuffle_edge(0, 2, 60, 100);
        reg.add_shuffle_edge(1, 2, 30, 30);
        reg.add_shuffle_edge(0, 2, 10, 30);
        reg.add_durable_bytes(50);
        reg.add_backup_bytes(25);
        reg.add_backup_raw_bytes(40);
        reg.add_failure();
        reg.add_output_rows(7);
        reg.add_recovery_planning(Duration::from_millis(3));
        reg.add_result_batch();
        reg.add_result_batch();

        let snap = reg.snapshot(Duration::from_secs(2));
        assert_eq!(snap.tasks_executed, 2);
        assert_eq!(snap.recovery_tasks, 1);
        assert_eq!(snap.shuffle_bytes, 100);
        assert_eq!(snap.shuffle_raw_bytes, 160);
        assert_eq!(
            snap.shuffle_edges,
            vec![
                ShuffleEdge { from_stage: 0, to_stage: 2, bytes: 70, raw_bytes: 130 },
                ShuffleEdge { from_stage: 1, to_stage: 2, bytes: 30, raw_bytes: 30 },
            ]
        );
        assert_eq!(snap.durable_bytes, 50);
        assert_eq!(snap.backup_bytes, 25);
        assert_eq!(snap.backup_raw_bytes, 40);
        assert_eq!(snap.failures, 1);
        assert_eq!(snap.output_rows, 7);
        assert_eq!(snap.recovery_planning, Duration::from_millis(3));
        assert_eq!(snap.runtime, Duration::from_secs(2));
        assert_eq!(snap.result_batches, 2);
        assert!(snap.time_to_first_batch.is_some());
    }

    #[test]
    fn wire_peer_stats_accumulate_and_merge() {
        let reg = MetricsRegistry::new();
        reg.add_wire_send(1, 100, 3);
        reg.add_wire_send(1, 50, 7);
        reg.add_wire_send(2, 10, 1);
        reg.add_wire_recv(1, 40);
        let snap = reg.snapshot(Duration::ZERO);
        assert_eq!(snap.transport_peers.len(), 2);
        let p1 = snap.transport_peers[0];
        assert_eq!(p1.peer, 1);
        assert_eq!(p1.frames_sent, 2);
        assert_eq!(p1.bytes_sent, 150);
        assert_eq!(p1.frames_received, 1);
        assert_eq!(p1.bytes_received, 40);
        assert_eq!(p1.send_queue_peak, 7);

        // Merging a remote process's counters sums totals and takes the max
        // of the queue peaks.
        let other = MetricsRegistry::new();
        other.merge_wire_peers(&snap.transport_peers);
        other.add_wire_send(1, 5, 9);
        let merged = other.snapshot(Duration::ZERO);
        assert_eq!(merged.transport_peers[0].frames_sent, 3);
        assert_eq!(merged.transport_peers[0].bytes_sent, 155);
        assert_eq!(merged.transport_peers[0].send_queue_peak, 9);
        // The in-process transport records nothing.
        let quiet = MetricsRegistry::new();
        assert!(quiet.snapshot(Duration::ZERO).transport_peers.is_empty());
    }

    #[test]
    fn first_batch_time_is_unset_without_emissions() {
        let reg = MetricsRegistry::new();
        reg.add_output_rows(3);
        let snap = reg.snapshot(Duration::from_secs(1));
        assert_eq!(snap.result_batches, 0);
        assert_eq!(snap.time_to_first_batch, None);
    }

    #[test]
    fn overhead_and_speedup_ratios() {
        let m = QueryMetrics { runtime: Duration::from_secs(3), ..Default::default() };
        assert!((m.overhead_vs(Duration::from_secs(2)) - 1.5).abs() < 1e-9);
        assert!(m.overhead_vs(Duration::ZERO).is_nan());
    }
}
