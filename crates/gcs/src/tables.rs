//! Typed views over the GCS key space.
//!
//! The paper's GCS (§IV-B) is "the single source of truth for the execution
//! state of the entire system". The key spaces used here mirror what the
//! paper describes:
//!
//! | prefix       | contents                                                        |
//! |--------------|-----------------------------------------------------------------|
//! | `lineage/`   | committed lineage records, `G.L` in Algorithms 1 and 2           |
//! | `task/`      | outstanding tasks (one per channel), `G.T`                        |
//! | `chan/`      | channel registry: worker placement, watermarks, completion       |
//! | `part/`      | partition directory: which outputs exist on which machines       |
//! | `replay/`    | replay requests created by the recovery coordinator               |
//! | `ctrl/`      | control flags: pause barrier, failed workers, query completion    |
//!
//! Values are encoded as compact ASCII strings (the store is Redis-like, and
//! keeping the encoding printable makes the GCS easy to dump when debugging
//! a recovery). The encoded size of the lineage records is what the
//! `lineage_bytes` metric measures — the paper's point is that this stays in
//! the KB range for an entire query.

use crate::kv::KvStore;
use bytes::Bytes;
use quokka_common::ids::{ChannelAddr, SeqNo, TaskName, WorkerId};
use quokka_common::{QuokkaError, Result};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// What a task consumed — the lineage proper (§III-A).
///
/// Thanks to the naming scheme, a consumer task's lineage is just "the next
/// `count` outputs of upstream channel `(stage, channel)` starting at
/// `start_seq`", and an input-reader task's lineage is the list of input
/// splits it read. Either fits in a few bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LineageSource {
    /// Consumed `count` outputs of `upstream`, beginning at `start_seq`.
    Upstream { upstream: ChannelAddr, start_seq: SeqNo, count: u32 },
    /// Read these input splits of the source table.
    InputSplits { splits: Vec<u64> },
    /// A finalize task that consumed nothing new (e.g. an aggregation
    /// emitting its state once every upstream channel finished).
    Finalize,
}

/// A committed lineage record for one task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineageRecord {
    pub task: TaskName,
    pub source: LineageSource,
    /// Operator input indices whose end-of-stream notification fired during
    /// this task. Recording this makes replay deterministic: a rewound
    /// channel fires the notifications at exactly the same task boundaries
    /// as the original execution, so re-generated output partitions are
    /// identical to the originals.
    pub finished_inputs: Vec<u32>,
    /// Whether this task finalized the channel (emitted the operator's final
    /// output and marked the channel done).
    pub finalize: bool,
    /// Rows in the task's output partition (diagnostics only).
    pub output_rows: u64,
    /// Encoded bytes of the task's output partition (diagnostics only).
    pub output_bytes: u64,
}

impl LineageRecord {
    fn encode(&self) -> String {
        let src = match &self.source {
            LineageSource::Upstream { upstream, start_seq, count } => {
                format!("U {} {} {} {}", upstream.stage, upstream.channel, start_seq, count)
            }
            LineageSource::InputSplits { splits } => {
                let list: Vec<String> = splits.iter().map(u64::to_string).collect();
                format!("I {}", list.join(","))
            }
            LineageSource::Finalize => "F".to_string(),
        };
        let finished: Vec<String> = self.finished_inputs.iter().map(u32::to_string).collect();
        format!(
            "{};{};{};{};{}",
            src,
            finished.join(","),
            self.finalize as u8,
            self.output_rows,
            self.output_bytes
        )
    }

    fn decode(task: TaskName, data: &str) -> Result<Self> {
        let parts: Vec<&str> = data.split(';').collect();
        if parts.len() != 5 {
            return Err(QuokkaError::Storage(format!("malformed lineage record: {data}")));
        }
        let src_tokens: Vec<&str> = parts[0].split(' ').collect();
        let source = match src_tokens[0] {
            "U" => {
                if src_tokens.len() != 5 {
                    return Err(QuokkaError::Storage(format!("malformed lineage source: {data}")));
                }
                LineageSource::Upstream {
                    upstream: ChannelAddr::new(parse(src_tokens[1])?, parse(src_tokens[2])?),
                    start_seq: parse(src_tokens[3])?,
                    count: parse(src_tokens[4])?,
                }
            }
            "I" => {
                let splits = if src_tokens.len() < 2 || src_tokens[1].is_empty() {
                    Vec::new()
                } else {
                    src_tokens[1]
                        .split(',')
                        .map(|s| s.parse::<u64>().map_err(|_| bad_num(s)))
                        .collect::<Result<Vec<u64>>>()?
                };
                LineageSource::InputSplits { splits }
            }
            "F" => LineageSource::Finalize,
            other => return Err(QuokkaError::Storage(format!("unknown lineage tag {other}"))),
        };
        let finished_inputs: Vec<u32> = if parts[1].is_empty() {
            Vec::new()
        } else {
            parts[1]
                .split(',')
                .map(|s| s.parse::<u32>().map_err(|_| bad_num(s)))
                .collect::<Result<_>>()?
        };
        Ok(LineageRecord {
            task,
            source,
            finished_inputs,
            finalize: parts[2] == "1",
            output_rows: parts[3].parse().map_err(|_| bad_num(parts[3]))?,
            output_bytes: parts[4].parse().map_err(|_| bad_num(parts[4]))?,
        })
    }
}

fn bad_num(s: &str) -> QuokkaError {
    QuokkaError::Storage(format!("malformed number '{s}' in GCS record"))
}

fn parse<T: std::str::FromStr>(s: &str) -> Result<T> {
    s.parse::<T>().map_err(|_| bad_num(s))
}

/// Registry entry for one channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelState {
    pub addr: ChannelAddr,
    /// Worker currently hosting this channel.
    pub worker: WorkerId,
    /// Sequence number of the last committed task, or `None` if no task of
    /// this channel has committed yet.
    pub committed_seq: Option<SeqNo>,
    /// For every upstream channel (in the order given by the stage graph),
    /// how many of its outputs this channel has consumed — the watermark
    /// vector of §III-A.
    pub consumed: Vec<u32>,
    /// For input-reader channels: how many of its assigned splits have been
    /// consumed.
    pub splits_consumed: u32,
    /// Set once the channel has produced its final output.
    pub done: bool,
    /// When `Some(upto)`, the channel is being rewound by the recovery
    /// coordinator: tasks with `seq <= upto` must follow the logged lineage
    /// exactly instead of choosing inputs dynamically.
    pub rewind_until: Option<SeqNo>,
}

impl ChannelState {
    /// A fresh channel hosted on `worker` with `upstream_count` upstream
    /// channels feeding it.
    pub fn new(addr: ChannelAddr, worker: WorkerId, upstream_count: usize) -> Self {
        ChannelState {
            addr,
            worker,
            committed_seq: None,
            consumed: vec![0; upstream_count],
            splits_consumed: 0,
            done: false,
            rewind_until: None,
        }
    }

    /// Sequence number of the next task to run in this channel.
    pub fn next_seq(&self) -> SeqNo {
        self.committed_seq.map(|s| s + 1).unwrap_or(0)
    }

    /// Number of output partitions this channel has produced so far.
    pub fn outputs_produced(&self) -> u32 {
        self.committed_seq.map(|s| s + 1).unwrap_or(0)
    }

    fn encode(&self) -> String {
        let consumed: Vec<String> = self.consumed.iter().map(u32::to_string).collect();
        format!(
            "{} {} {} {} {} {} {}",
            self.worker,
            self.committed_seq.map(|s| s as i64).unwrap_or(-1),
            consumed.join(","),
            self.splits_consumed,
            self.done as u8,
            self.rewind_until.map(|s| s as i64).unwrap_or(-1),
            self.consumed.len(),
        )
    }

    fn decode(addr: ChannelAddr, data: &str) -> Result<Self> {
        let t: Vec<&str> = data.split(' ').collect();
        if t.len() != 7 {
            return Err(QuokkaError::Storage(format!("malformed channel state: {data}")));
        }
        let committed: i64 = parse(t[1])?;
        let upstreams: usize = parse(t[6])?;
        let consumed: Vec<u32> = if upstreams == 0 || t[2].is_empty() {
            vec![0; upstreams]
        } else {
            t[2].split(',')
                .map(|s| s.parse::<u32>().map_err(|_| bad_num(s)))
                .collect::<Result<_>>()?
        };
        let rewind: i64 = parse(t[5])?;
        Ok(ChannelState {
            addr,
            worker: parse(t[0])?,
            committed_seq: if committed < 0 { None } else { Some(committed as SeqNo) },
            consumed,
            splits_consumed: parse(t[3])?,
            done: t[4] == "1",
            rewind_until: if rewind < 0 { None } else { Some(rewind as SeqNo) },
        })
    }
}

/// An outstanding task (`G.T`). There is at most one per channel because
/// tasks within a channel execute sequentially.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskEntry {
    pub task: TaskName,
    /// Worker the task is assigned to (the worker hosting its channel).
    pub worker: WorkerId,
}

impl TaskEntry {
    fn encode(&self) -> String {
        format!("{} {}", self.task.seq, self.worker)
    }
    fn decode(addr: ChannelAddr, data: &str) -> Result<Self> {
        let t: Vec<&str> = data.split(' ').collect();
        if t.len() != 2 {
            return Err(QuokkaError::Storage(format!("malformed task entry: {data}")));
        }
        Ok(TaskEntry { task: addr.task(parse(t[0])?), worker: parse(t[1])? })
    }
}

/// Directory entry describing where one output partition lives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionEntry {
    /// The producer task (partitions share their producer's name).
    pub name: TaskName,
    /// Worker that produced the partition and holds its upstream backup.
    pub owner: WorkerId,
    /// Whether the owner's local disk holds a backup copy.
    pub backed_up: bool,
    /// Whether a durable copy exists in the object store (spooling mode).
    pub spooled: bool,
    /// Encoded size in bytes (all consumers' slices combined).
    pub bytes: u64,
}

impl PartitionEntry {
    fn encode(&self) -> String {
        format!("{} {} {} {}", self.owner, self.backed_up as u8, self.spooled as u8, self.bytes)
    }
    fn decode(name: TaskName, data: &str) -> Result<Self> {
        let t: Vec<&str> = data.split(' ').collect();
        if t.len() != 4 {
            return Err(QuokkaError::Storage(format!("malformed partition entry: {data}")));
        }
        Ok(PartitionEntry {
            name,
            owner: parse(t[0])?,
            backed_up: t[1] == "1",
            spooled: t[2] == "1",
            bytes: parse(t[3])?,
        })
    }
}

/// A replay request: `owner` should re-push its backed-up slice of partition
/// `partition` destined for `consumer`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayRequest {
    pub owner: WorkerId,
    pub partition: TaskName,
    pub consumer: ChannelAddr,
    /// Delivery attempts already charged against this request. A worker
    /// that re-queues a failed replay increments this; once the bounded
    /// retry budget is spent the query fails with a typed error instead of
    /// spinning until the watchdog fires.
    pub attempts: u32,
}

impl ReplayRequest {
    pub fn new(owner: WorkerId, partition: TaskName, consumer: ChannelAddr) -> Self {
        ReplayRequest { owner, partition, consumer, attempts: 0 }
    }
}

/// Everything the Algorithm-1 commit writes in a single transaction: the
/// lineage record, the partition directory entry, the updated channel state,
/// and the removal/insertion of entries in the task table.
#[derive(Debug, Clone)]
pub struct TaskCommit {
    /// Worker performing the commit; the transaction aborts if this worker
    /// has been declared failed (a dead machine cannot write to Redis).
    pub worker: WorkerId,
    pub lineage: LineageRecord,
    pub partition: PartitionEntry,
    pub channel_state: ChannelState,
    /// The channel state the task's inputs were chosen from. When `Some`,
    /// the transaction aborts unless the stored channel state still equals
    /// it — a compare-and-swap that makes a commit racing with a concurrent
    /// reconciliation (recovery rewinding or reassigning this channel
    /// between the worker's ownership check and its commit) abort instead
    /// of clobbering the coordinator's writes.
    pub prev_channel: Option<ChannelState>,
    /// The next task to enqueue for this channel, or `None` if the channel
    /// is done.
    pub next_task: Option<TaskEntry>,
}

// ---------------------------------------------------------------------------
// Key construction
// ---------------------------------------------------------------------------

fn lineage_key(t: TaskName) -> String {
    format!("lineage/{:08}/{:08}/{:08}", t.stage, t.channel, t.seq)
}
fn lineage_prefix(ch: ChannelAddr) -> String {
    format!("lineage/{:08}/{:08}/", ch.stage, ch.channel)
}
fn chan_key(ch: ChannelAddr) -> String {
    format!("chan/{:08}/{:08}", ch.stage, ch.channel)
}
fn task_key(ch: ChannelAddr) -> String {
    format!("task/{:08}/{:08}", ch.stage, ch.channel)
}
fn part_key(t: TaskName) -> String {
    format!("part/{:08}/{:08}/{:08}", t.stage, t.channel, t.seq)
}
fn replay_key(r: &ReplayRequest) -> String {
    format!(
        "replay/{:08}/{:08}/{:08}/{:08}/{:08}/{:08}",
        r.owner,
        r.partition.stage,
        r.partition.channel,
        r.partition.seq,
        r.consumer.stage,
        r.consumer.channel
    )
}

fn parse_task_from_key(key: &str, prefix: &str) -> Result<TaskName> {
    let rest = &key[prefix.len()..];
    let parts: Vec<&str> = rest.split('/').collect();
    if parts.len() != 3 {
        return Err(QuokkaError::Storage(format!("malformed key {key}")));
    }
    Ok(TaskName::new(parse(parts[0])?, parse(parts[1])?, parse(parts[2])?))
}

fn parse_channel_from_key(key: &str, prefix: &str) -> Result<ChannelAddr> {
    let rest = &key[prefix.len()..];
    let parts: Vec<&str> = rest.split('/').collect();
    if parts.len() != 2 {
        return Err(QuokkaError::Storage(format!("malformed key {key}")));
    }
    Ok(ChannelAddr::new(parse(parts[0])?, parse(parts[1])?))
}

// ---------------------------------------------------------------------------
// The GCS facade
// ---------------------------------------------------------------------------

/// The Global Control Store used by TaskManagers and the coordinator.
#[derive(Debug)]
pub struct Gcs {
    kv: KvStore,
    lineage_bytes: AtomicU64,
}

impl Default for Gcs {
    fn default() -> Self {
        Self::new(Duration::ZERO)
    }
}

impl Gcs {
    /// Create a GCS whose every operation costs `op_latency` (use zero in
    /// tests).
    pub fn new(op_latency: Duration) -> Self {
        Gcs { kv: KvStore::new(op_latency), lineage_bytes: AtomicU64::new(0) }
    }

    /// Wrap an existing KV store — how worker processes build their GCS view
    /// over a [`KvStore::remote`] proxy in process mode.
    pub fn with_kv(kv: KvStore) -> Self {
        Gcs { kv, lineage_bytes: AtomicU64::new(0) }
    }

    /// Access to the raw KV store (used by tests and diagnostics).
    pub fn kv(&self) -> &KvStore {
        &self.kv
    }

    /// Bytes of lineage committed so far.
    pub fn lineage_bytes(&self) -> u64 {
        self.lineage_bytes.load(Ordering::Relaxed)
    }

    /// Committed GCS transactions so far.
    pub fn transactions(&self) -> u64 {
        self.kv.committed_transactions()
    }

    /// Remove all state (used when a cluster object is reused for another
    /// query).
    pub fn clear(&self) {
        self.kv.clear();
        self.lineage_bytes.store(0, Ordering::Relaxed);
    }

    // -- lineage table ------------------------------------------------------

    /// Whether the lineage of `task`'s output has been committed — the test
    /// at the heart of Algorithm 1 ("tasks consume only objects with
    /// committed lineage").
    pub fn lineage_committed(&self, task: TaskName) -> bool {
        self.kv.contains(&lineage_key(task))
    }

    /// Fetch one lineage record.
    pub fn get_lineage(&self, task: TaskName) -> Option<LineageRecord> {
        self.kv
            .get_value(&lineage_key(task))
            .and_then(|v| LineageRecord::decode(task, std::str::from_utf8(&v).ok()?).ok())
    }

    /// All committed lineage records of one channel, in sequence order.
    pub fn channel_lineage(&self, ch: ChannelAddr) -> Vec<LineageRecord> {
        let prefix = lineage_prefix(ch);
        self.kv
            .scan_prefix(&prefix)
            .into_iter()
            .filter_map(|(k, v)| {
                let task = parse_task_from_key(&k, "lineage/").ok()?;
                LineageRecord::decode(task, std::str::from_utf8(&v).ok()?).ok()
            })
            .collect()
    }

    /// Directly insert a lineage record outside a task commit (used by tests
    /// and by the recovery planner when reconstructing state).
    pub fn put_lineage(&self, record: &LineageRecord) {
        let encoded = record.encode();
        self.lineage_bytes.fetch_add(encoded.len() as u64, Ordering::Relaxed);
        self.kv.put(lineage_key(record.task), Bytes::from(encoded));
    }

    // -- channel registry ---------------------------------------------------

    pub fn put_channel(&self, state: &ChannelState) {
        self.kv.put(chan_key(state.addr), Bytes::from(state.encode()));
    }

    pub fn get_channel(&self, addr: ChannelAddr) -> Option<ChannelState> {
        self.kv
            .get_value(&chan_key(addr))
            .and_then(|v| ChannelState::decode(addr, std::str::from_utf8(&v).ok()?).ok())
    }

    /// Every registered channel.
    pub fn all_channels(&self) -> Vec<ChannelState> {
        self.kv
            .scan_prefix("chan/")
            .into_iter()
            .filter_map(|(k, v)| {
                let addr = parse_channel_from_key(&k, "chan/").ok()?;
                ChannelState::decode(addr, std::str::from_utf8(&v).ok()?).ok()
            })
            .collect()
    }

    // -- task table ---------------------------------------------------------

    pub fn put_task(&self, entry: &TaskEntry) {
        self.kv.put(task_key(entry.task.channel_addr()), Bytes::from(entry.encode()));
    }

    pub fn get_task(&self, ch: ChannelAddr) -> Option<TaskEntry> {
        self.kv
            .get_value(&task_key(ch))
            .and_then(|v| TaskEntry::decode(ch, std::str::from_utf8(&v).ok()?).ok())
    }

    pub fn remove_task(&self, ch: ChannelAddr) {
        self.kv.delete(&task_key(ch));
    }

    /// Every outstanding task, across all channels.
    pub fn all_tasks(&self) -> Vec<TaskEntry> {
        self.kv
            .scan_prefix("task/")
            .into_iter()
            .filter_map(|(k, v)| {
                let addr = parse_channel_from_key(&k, "task/").ok()?;
                TaskEntry::decode(addr, std::str::from_utf8(&v).ok()?).ok()
            })
            .collect()
    }

    /// Outstanding tasks assigned to one worker — the set `A` of Algorithm 2.
    pub fn tasks_on_worker(&self, worker: WorkerId) -> Vec<TaskEntry> {
        self.all_tasks().into_iter().filter(|t| t.worker == worker).collect()
    }

    // -- partition directory -------------------------------------------------

    pub fn put_partition(&self, entry: &PartitionEntry) {
        self.kv.put(part_key(entry.name), Bytes::from(entry.encode()));
    }

    pub fn get_partition(&self, name: TaskName) -> Option<PartitionEntry> {
        self.kv
            .get_value(&part_key(name))
            .and_then(|v| PartitionEntry::decode(name, std::str::from_utf8(&v).ok()?).ok())
    }

    /// Every partition entry in the directory.
    pub fn all_partitions(&self) -> Vec<PartitionEntry> {
        self.kv
            .scan_prefix("part/")
            .into_iter()
            .filter_map(|(k, v)| {
                let name = parse_task_from_key(&k, "part/").ok()?;
                PartitionEntry::decode(name, std::str::from_utf8(&v).ok()?).ok()
            })
            .collect()
    }

    // -- replay requests ------------------------------------------------------

    /// Enqueue a replay request (recovery coordinator → owner worker). The
    /// attempt count lives in the *value* so a re-queue of the same request
    /// (same key) overwrites rather than duplicates.
    pub fn add_replay(&self, request: &ReplayRequest) {
        self.kv.put(replay_key(request), Bytes::from(request.attempts.to_string()));
    }

    /// Replay requests assigned to `worker`.
    pub fn replays_for_worker(&self, worker: WorkerId) -> Vec<ReplayRequest> {
        let prefix = format!("replay/{worker:08}/");
        self.kv
            .scan_prefix(&prefix)
            .into_iter()
            .filter_map(|(k, v)| {
                let rest = &k[prefix.len()..];
                let p: Vec<&str> = rest.split('/').collect();
                if p.len() != 5 {
                    return None;
                }
                Some(ReplayRequest {
                    owner: worker,
                    partition: TaskName::new(
                        p[0].parse().ok()?,
                        p[1].parse().ok()?,
                        p[2].parse().ok()?,
                    ),
                    consumer: ChannelAddr::new(p[3].parse().ok()?, p[4].parse().ok()?),
                    attempts: std::str::from_utf8(&v)
                        .ok()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or(0),
                })
            })
            .collect()
    }

    /// Remove a completed replay request. Returns whether it was present —
    /// workers use this as an atomic claim so two threads of the same worker
    /// never replay the same request twice.
    pub fn remove_replay(&self, request: &ReplayRequest) -> bool {
        self.kv.delete(&replay_key(request))
    }

    // -- control flags --------------------------------------------------------

    /// Raise or clear the recovery barrier. While raised, TaskManagers abort
    /// their current work and wait, giving the coordinator exclusive
    /// read-write access to the GCS (§IV-B).
    pub fn set_paused(&self, paused: bool) {
        if paused {
            self.kv.put("ctrl/pause", Bytes::from_static(b"1"));
        } else {
            self.kv.delete("ctrl/pause");
        }
    }

    pub fn is_paused(&self) -> bool {
        self.kv.contains("ctrl/pause")
    }

    /// Record that a worker has failed.
    pub fn mark_worker_failed(&self, worker: WorkerId) {
        self.kv.put(format!("ctrl/failed/{worker:08}"), Bytes::from_static(b"1"));
    }

    pub fn is_worker_failed(&self, worker: WorkerId) -> bool {
        self.kv.contains(&format!("ctrl/failed/{worker:08}"))
    }

    pub fn failed_workers(&self) -> Vec<WorkerId> {
        self.kv
            .scan_prefix("ctrl/failed/")
            .into_iter()
            .filter_map(|(k, _)| k["ctrl/failed/".len()..].parse().ok())
            .collect()
    }

    /// Mark the whole query as finished (all sink channels done).
    pub fn set_query_done(&self) {
        self.kv.put("ctrl/done", Bytes::from_static(b"1"));
    }

    pub fn is_query_done(&self) -> bool {
        self.kv.contains("ctrl/done")
    }

    /// Record a fatal query error; workers stop when they observe it.
    pub fn set_query_error(&self, message: &str) {
        self.kv.put("ctrl/error", Bytes::from(message.to_string()));
    }

    pub fn query_error(&self) -> Option<String> {
        self.kv.get_value("ctrl/error").map(|v| String::from_utf8_lossy(&v).into_owned())
    }

    /// Flag a committed output partition whose backing bytes turned out to
    /// be unreadable (chaos-wiped backup store, for example). The recovery
    /// coordinator polls these and rewinds the producing channel so the
    /// partition is regenerated from lineage.
    pub fn mark_partition_lost(&self, partition: TaskName) {
        self.kv.put(
            format!(
                "ctrl/lost/{:08}/{:08}/{:08}",
                partition.stage, partition.channel, partition.seq
            ),
            Bytes::from_static(b"1"),
        );
    }

    /// Drain and return all partitions currently flagged as lost.
    pub fn take_lost_partitions(&self) -> Vec<TaskName> {
        let lost: Vec<TaskName> = self
            .kv
            .scan_prefix("ctrl/lost/")
            .into_iter()
            .filter_map(|(k, _)| parse_task_from_key(&k, "ctrl/lost/").ok())
            .collect();
        for p in &lost {
            self.kv.delete(&format!("ctrl/lost/{:08}/{:08}/{:08}", p.stage, p.channel, p.seq));
        }
        lost
    }

    // -- the Algorithm-1 commit ----------------------------------------------

    /// Atomically commit a finished task: write its lineage, register its
    /// output partition, update the channel state (watermarks, committed
    /// sequence number, done flag) and replace the channel's outstanding
    /// task with the next one. The transaction aborts if the recovery
    /// barrier is raised or the committing worker has been marked failed.
    /// With `raise_barrier` the same transaction raises the barrier: the
    /// commit crossed a chaos trigger, and no other task may commit until
    /// the coordinator has applied the fault and lowered it again.
    pub fn commit_task(&self, commit: &TaskCommit, raise_barrier: bool) -> Result<()> {
        let lineage_encoded = commit.lineage.encode();
        let lineage_len = lineage_encoded.len() as u64;
        let channel = commit.channel_state.addr;
        self.kv.with_transaction(0, |txn| {
            if txn.get("ctrl/pause").is_some() {
                return Err(QuokkaError::TransactionAborted(
                    "recovery barrier is raised".to_string(),
                ));
            }
            if txn.get(&format!("ctrl/failed/{:08}", commit.worker)).is_some() {
                return Err(QuokkaError::TransactionAborted(format!(
                    "worker {} has been marked failed",
                    commit.worker
                )));
            }
            if let Some(prev) = &commit.prev_channel {
                let stored = txn.get(&chan_key(channel));
                if stored.as_deref() != Some(prev.encode().as_bytes()) {
                    return Err(QuokkaError::TransactionAborted(format!(
                        "channel {channel} was reconciled since the task started",
                    )));
                }
            }
            txn.put(lineage_key(commit.lineage.task), Bytes::from(lineage_encoded.clone()));
            txn.put(part_key(commit.partition.name), Bytes::from(commit.partition.encode()));
            txn.put(chan_key(channel), Bytes::from(commit.channel_state.encode()));
            match &commit.next_task {
                Some(next) => txn.put(task_key(channel), Bytes::from(next.encode())),
                None => txn.delete(task_key(channel)),
            }
            if raise_barrier {
                txn.put("ctrl/pause", Bytes::from_static(b"1"));
            }
            Ok(())
        })?;
        self.lineage_bytes.fetch_add(lineage_len, Ordering::Relaxed);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lineage(task: TaskName) -> LineageRecord {
        LineageRecord {
            task,
            source: LineageSource::Upstream {
                upstream: ChannelAddr::new(0, 2),
                start_seq: 3,
                count: 4,
            },
            finished_inputs: vec![0],
            finalize: false,
            output_rows: 100,
            output_bytes: 2048,
        }
    }

    #[test]
    fn lineage_record_roundtrip() {
        let t = TaskName::new(1, 2, 3);
        for source in [
            LineageSource::Upstream { upstream: ChannelAddr::new(0, 1), start_seq: 0, count: 7 },
            LineageSource::InputSplits { splits: vec![4, 9, 11] },
            LineageSource::InputSplits { splits: vec![] },
            LineageSource::Finalize,
        ] {
            let rec = LineageRecord {
                task: t,
                source,
                finished_inputs: vec![1, 0],
                finalize: true,
                output_rows: 5,
                output_bytes: 9,
            };
            let decoded = LineageRecord::decode(t, &rec.encode()).unwrap();
            assert_eq!(decoded, rec);
        }
        assert!(LineageRecord::decode(t, "garbage").is_err());
        assert!(LineageRecord::decode(t, "X 1 2;3;4").is_err());
    }

    #[test]
    fn channel_state_roundtrip() {
        let addr = ChannelAddr::new(2, 5);
        let mut st = ChannelState::new(addr, 3, 4);
        st.committed_seq = Some(7);
        st.consumed = vec![1, 0, 9, 2];
        st.splits_consumed = 6;
        st.done = true;
        st.rewind_until = Some(4);
        let decoded = ChannelState::decode(addr, &st.encode()).unwrap();
        assert_eq!(decoded, st);
        assert_eq!(decoded.next_seq(), 8);
        assert_eq!(decoded.outputs_produced(), 8);

        let fresh = ChannelState::new(addr, 0, 0);
        let decoded = ChannelState::decode(addr, &fresh.encode()).unwrap();
        assert_eq!(decoded, fresh);
        assert_eq!(decoded.next_seq(), 0);
    }

    #[test]
    fn task_and_partition_roundtrip() {
        let addr = ChannelAddr::new(1, 1);
        let entry = TaskEntry { task: addr.task(9), worker: 2 };
        assert_eq!(TaskEntry::decode(addr, &entry.encode()).unwrap(), entry);

        let part = PartitionEntry {
            name: TaskName::new(1, 1, 9),
            owner: 2,
            backed_up: true,
            spooled: false,
            bytes: 4096,
        };
        assert_eq!(PartitionEntry::decode(part.name, &part.encode()).unwrap(), part);
    }

    #[test]
    fn gcs_lineage_table() {
        let gcs = Gcs::default();
        let t = TaskName::new(1, 0, 0);
        assert!(!gcs.lineage_committed(t));
        gcs.put_lineage(&lineage(t));
        gcs.put_lineage(&lineage(TaskName::new(1, 0, 1)));
        gcs.put_lineage(&lineage(TaskName::new(1, 1, 0)));
        assert!(gcs.lineage_committed(t));
        assert_eq!(gcs.get_lineage(t).unwrap().output_rows, 100);
        assert_eq!(gcs.channel_lineage(ChannelAddr::new(1, 0)).len(), 2);
        assert_eq!(gcs.channel_lineage(ChannelAddr::new(1, 1)).len(), 1);
        assert!(gcs.lineage_bytes() > 0);
    }

    #[test]
    fn gcs_channel_and_task_tables() {
        let gcs = Gcs::default();
        let a = ChannelAddr::new(0, 0);
        let b = ChannelAddr::new(1, 0);
        gcs.put_channel(&ChannelState::new(a, 0, 0));
        gcs.put_channel(&ChannelState::new(b, 1, 2));
        assert_eq!(gcs.all_channels().len(), 2);
        assert_eq!(gcs.get_channel(b).unwrap().worker, 1);

        gcs.put_task(&TaskEntry { task: a.task(0), worker: 0 });
        gcs.put_task(&TaskEntry { task: b.task(0), worker: 1 });
        assert_eq!(gcs.all_tasks().len(), 2);
        assert_eq!(gcs.tasks_on_worker(1).len(), 1);
        gcs.remove_task(a);
        assert!(gcs.get_task(a).is_none());
        assert_eq!(gcs.all_tasks().len(), 1);
    }

    #[test]
    fn gcs_partition_directory_and_replay() {
        let gcs = Gcs::default();
        let p = PartitionEntry {
            name: TaskName::new(0, 1, 4),
            owner: 1,
            backed_up: true,
            spooled: false,
            bytes: 10,
        };
        gcs.put_partition(&p);
        assert_eq!(gcs.get_partition(p.name).unwrap(), p);
        assert_eq!(gcs.all_partitions().len(), 1);

        let r = ReplayRequest::new(1, p.name, ChannelAddr::new(1, 2));
        gcs.add_replay(&r);
        assert_eq!(gcs.replays_for_worker(1), vec![r.clone()]);
        assert!(gcs.replays_for_worker(2).is_empty());

        // Re-queueing the same request with a higher attempt count
        // overwrites (same key) rather than duplicating.
        let charged = ReplayRequest { attempts: 3, ..r.clone() };
        gcs.add_replay(&charged);
        assert_eq!(gcs.replays_for_worker(1), vec![charged.clone()]);
        gcs.remove_replay(&r);
        assert!(gcs.replays_for_worker(1).is_empty());
    }

    #[test]
    fn lost_partitions_are_drained_once() {
        let gcs = Gcs::default();
        assert!(gcs.take_lost_partitions().is_empty());
        gcs.mark_partition_lost(TaskName::new(0, 1, 2));
        gcs.mark_partition_lost(TaskName::new(0, 1, 2)); // idempotent
        gcs.mark_partition_lost(TaskName::new(3, 0, 7));
        let mut lost = gcs.take_lost_partitions();
        lost.sort();
        assert_eq!(lost, vec![TaskName::new(0, 1, 2), TaskName::new(3, 0, 7)]);
        assert!(gcs.take_lost_partitions().is_empty());
    }

    #[test]
    fn gcs_control_flags() {
        let gcs = Gcs::default();
        assert!(!gcs.is_paused());
        gcs.set_paused(true);
        assert!(gcs.is_paused());
        gcs.set_paused(false);
        assert!(!gcs.is_paused());

        gcs.mark_worker_failed(3);
        assert!(gcs.is_worker_failed(3));
        assert!(!gcs.is_worker_failed(1));
        assert_eq!(gcs.failed_workers(), vec![3]);

        assert!(!gcs.is_query_done());
        gcs.set_query_done();
        assert!(gcs.is_query_done());

        assert!(gcs.query_error().is_none());
        gcs.set_query_error("boom");
        assert_eq!(gcs.query_error().unwrap(), "boom");
    }

    #[test]
    fn commit_task_is_atomic_and_respects_barriers() {
        let gcs = Gcs::default();
        let channel = ChannelAddr::new(1, 0);
        let mut state = ChannelState::new(channel, 0, 1);
        state.committed_seq = Some(0);
        state.consumed = vec![4];
        let commit = TaskCommit {
            worker: 0,
            lineage: lineage(channel.task(0)),
            partition: PartitionEntry {
                name: channel.task(0),
                owner: 0,
                backed_up: true,
                spooled: false,
                bytes: 2048,
            },
            channel_state: state.clone(),
            prev_channel: None,
            next_task: Some(TaskEntry { task: channel.task(1), worker: 0 }),
        };
        gcs.commit_task(&commit, false).unwrap();
        assert!(gcs.lineage_committed(channel.task(0)));
        assert_eq!(gcs.get_channel(channel).unwrap().consumed, vec![4]);
        assert_eq!(gcs.get_task(channel).unwrap().task.seq, 1);
        assert!(gcs.get_partition(channel.task(0)).unwrap().backed_up);

        // A commit carrying a stale prev-channel snapshot aborts: the
        // channel was reconciled (here: simply advanced) since the task
        // chose its inputs.
        let mut stale = commit.clone();
        stale.lineage.task = channel.task(1);
        stale.partition.name = channel.task(1);
        stale.prev_channel = Some(ChannelState::new(channel, 0, 1));
        assert!(gcs.commit_task(&stale, false).is_err());
        assert!(!gcs.lineage_committed(channel.task(1)));
        // With the snapshot matching what is stored, the same commit lands.
        stale.prev_channel = Some(state.clone());
        gcs.commit_task(&stale, false).unwrap();
        assert!(gcs.lineage_committed(channel.task(1)));

        // Barrier raised -> commit aborts and writes nothing.
        gcs.set_paused(true);
        let mut second = commit.clone();
        second.lineage.task = channel.task(2);
        second.partition.name = channel.task(2);
        assert!(gcs.commit_task(&second, false).is_err());
        assert!(!gcs.lineage_committed(channel.task(2)));
        gcs.set_paused(false);

        // Worker declared failed -> commit aborts.
        gcs.mark_worker_failed(0);
        assert!(gcs.commit_task(&second, false).is_err());
        assert!(!gcs.lineage_committed(channel.task(2)));
    }

    #[test]
    fn a_barrier_raising_commit_lands_and_blocks_the_next() {
        let gcs = Gcs::default();
        let channel = ChannelAddr::new(1, 0);
        let commit = |seq| TaskCommit {
            worker: 0,
            lineage: lineage(channel.task(seq)),
            partition: PartitionEntry {
                name: channel.task(seq),
                owner: 0,
                backed_up: true,
                spooled: false,
                bytes: 64,
            },
            channel_state: ChannelState::new(channel, 0, 1),
            prev_channel: None,
            next_task: Some(TaskEntry { task: channel.task(seq + 1), worker: 0 }),
        };
        gcs.commit_task(&commit(0), true).unwrap();
        assert!(gcs.lineage_committed(channel.task(0)));
        assert!(gcs.is_paused(), "the crossing commit raises the barrier atomically");
        assert!(gcs.commit_task(&commit(1), false).is_err());
        gcs.set_paused(false);
        gcs.commit_task(&commit(1), false).unwrap();
    }

    #[test]
    fn commit_with_no_next_task_marks_channel_done() {
        let gcs = Gcs::default();
        let channel = ChannelAddr::new(2, 1);
        gcs.put_task(&TaskEntry { task: channel.task(5), worker: 1 });
        let mut state = ChannelState::new(channel, 1, 1);
        state.committed_seq = Some(5);
        state.done = true;
        let commit = TaskCommit {
            worker: 1,
            lineage: LineageRecord {
                task: channel.task(5),
                source: LineageSource::Finalize,
                finished_inputs: vec![],
                finalize: true,
                output_rows: 1,
                output_bytes: 10,
            },
            partition: PartitionEntry {
                name: channel.task(5),
                owner: 1,
                backed_up: false,
                spooled: false,
                bytes: 10,
            },
            channel_state: state,
            prev_channel: None,
            next_task: None,
        };
        gcs.commit_task(&commit, false).unwrap();
        assert!(gcs.get_task(channel).is_none());
        assert!(gcs.get_channel(channel).unwrap().done);
    }
}
