//! The GCS: typed tables under one lock.
//!
//! The paper's GCS (§IV-B) is "the single source of truth for the execution
//! state of the entire system". [`Gcs`] keeps each of its key spaces as a
//! typed map, and all of them sit behind one mutex:
//!
//! | table        | key                              | contents                                                   |
//! |--------------|----------------------------------|------------------------------------------------------------|
//! | lineage      | [`TaskName`]                     | committed lineage records, `G.L` in Algorithms 1 and 2      |
//! | channels     | [`ChannelAddr`]                  | channel registry: placement, watermarks, completion, `G.T`  |
//! | partitions   | [`TaskName`]                     | partition directory: which outputs exist on which machines  |
//! | replays      | `(owner, partition, consumer)`   | replay requests created by the recovery coordinator          |
//! | lost         | [`TaskName`]                     | committed partitions whose backing bytes proved unreadable  |
//! | flags        | —                                | pause barrier, failed workers, query completion and error   |
//!
//! The paper's task table `G.T` holds one outstanding task per channel.
//! Here it is no table of its own: a channel's outstanding task is
//! [`ChannelState::next_seq`] on [`ChannelState::worker`], and a `done`
//! channel has none. Every write of a channel state therefore also writes
//! its task, and the two cannot disagree.
//!
//! Every call takes the lock once. [`Gcs::commit_task`], the single
//! transaction of Algorithm 1, checks its three abort conditions and applies
//! all of its writes (lineage, partition entry, channel state) under that
//! one lock.
//!
//! [`Gcs::transactions`] counts committed writes: every call that writes
//! counts one, a removal counts one per entry it removes (so removing an
//! absent entry counts none), and an aborted commit counts none. The
//! process-mode chaos arm fires on this count.
//!
//! A worker process holds a [`Gcs::remote`] handle instead of tables: each
//! call travels as one control frame to the driver, which answers it by
//! calling the same method on its own tables ([`Gcs::serve`]). The record
//! codec that frame uses lives in [`remote`].

use crate::remote::{self, ControlClient, Decode, Encode};
use parking_lot::Mutex;
use quokka_batch::wire::WireReader;
use quokka_common::ids::{ChannelAddr, SeqNo, TaskName, WorkerId};
use quokka_common::{QuokkaError, Result};
use std::collections::{BTreeMap, BTreeSet};
use std::net::SocketAddr;
use std::sync::Arc;
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

    /// Sequence number of the channel's outstanding task, the paper's `G.T`
    /// entry: it runs on [`worker`](Self::worker) unless the channel is
    /// `done`.
    pub fn next_seq(&self) -> SeqNo {
        self.committed_seq.map(|s| s + 1).unwrap_or(0)
    }

    /// Number of output partitions this channel has produced so far.
    pub fn outputs_produced(&self) -> u32 {
        self.committed_seq.map(|s| s + 1).unwrap_or(0)
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
/// lineage record, the partition directory entry and the updated channel
/// state, which also names the channel's next task.
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
}

// ---------------------------------------------------------------------------
// The tables
// ---------------------------------------------------------------------------

/// Every table of the GCS; one lock guards them all.
#[derive(Debug, Default)]
struct Tables {
    lineage: BTreeMap<TaskName, LineageRecord>,
    channels: BTreeMap<ChannelAddr, ChannelState>,
    partitions: BTreeMap<TaskName, PartitionEntry>,
    /// Replay requests by `(owner, partition, consumer)`. The attempt count
    /// is the value, so re-queuing a request overwrites rather than
    /// duplicates it.
    replays: BTreeMap<(WorkerId, TaskName, ChannelAddr), u32>,
    lost: BTreeSet<TaskName>,
    failed: BTreeSet<WorkerId>,
    /// Process mode: where each worker process's shuffle listener is.
    processes: BTreeMap<u32, SocketAddr>,
    paused: bool,
    done: bool,
    error: Option<String>,
    transactions: u64,
    lineage_bytes: u64,
}

/// The call byte that follows [`OP_GCS`](remote::OP_GCS) in a control
/// frame: one per [`Gcs`] method.
pub(crate) mod call {
    pub const TRANSACTIONS: u8 = 1;
    pub const LINEAGE_BYTES: u8 = 2;
    pub const LINEAGE_COMMITTED: u8 = 3;
    pub const GET_LINEAGE: u8 = 4;
    pub const PUT_CHANNEL: u8 = 6;
    pub const GET_CHANNEL: u8 = 7;
    pub const ALL_CHANNELS: u8 = 8;
    pub const GET_PARTITION: u8 = 11;
    pub const ADD_REPLAY: u8 = 12;
    pub const REPLAYS_FOR_WORKER: u8 = 13;
    pub const REMOVE_REPLAY: u8 = 14;
    pub const SET_PAUSED: u8 = 15;
    pub const IS_PAUSED: u8 = 16;
    pub const MARK_WORKER_FAILED: u8 = 17;
    pub const IS_WORKER_FAILED: u8 = 18;
    pub const SET_QUERY_DONE: u8 = 19;
    pub const IS_QUERY_DONE: u8 = 20;
    pub const SET_QUERY_ERROR: u8 = 21;
    pub const QUERY_ERROR: u8 = 22;
    pub const MARK_PARTITION_LOST: u8 = 23;
    pub const TAKE_LOST_PARTITIONS: u8 = 24;
    pub const COMMIT_TASK: u8 = 25;
    pub const PUBLISH_PROCESS: u8 = 26;
    pub const PROCESS_ADDR: u8 = 27;
}

fn aborted(reason: String) -> Result<()> {
    Err(QuokkaError::TransactionAborted(reason))
}

// ---------------------------------------------------------------------------
// The GCS facade
// ---------------------------------------------------------------------------

/// The Global Control Store used by TaskManagers and the coordinator.
#[derive(Debug)]
pub struct Gcs {
    backend: Backend,
}

#[derive(Debug)]
enum Backend {
    /// The authoritative tables. Every call sleeps `op_latency` first, the
    /// simulated round trip to the head node.
    Local { tables: Box<Mutex<Tables>>, op_latency: Duration },
    /// A worker process's handle: every call is one control frame to the
    /// driver, which pays the real round trip.
    Remote(Arc<ControlClient>),
}

impl Default for Gcs {
    fn default() -> Self {
        Self::new(Duration::ZERO)
    }
}

impl Gcs {
    /// Create an authoritative GCS whose every call costs `op_latency` (use
    /// zero in tests).
    pub fn new(op_latency: Duration) -> Self {
        Gcs { backend: Backend::Local { tables: Box::default(), op_latency } }
    }

    /// A worker process's GCS: every call is answered by the driver's
    /// tables over `client`.
    pub fn remote(client: Arc<ControlClient>) -> Self {
        Gcs { backend: Backend::Remote(client) }
    }

    /// Run one call: `apply` under the table lock, or, on a remote handle,
    /// one control frame carrying `call` and `arg` that the driver answers
    /// by running the same method on its tables.
    fn try_call<A: Encode + ?Sized, R: Decode>(
        &self,
        call: u8,
        arg: &A,
        apply: impl FnOnce(&mut Tables) -> Result<R>,
    ) -> Result<R> {
        match &self.backend {
            Backend::Local { tables, op_latency } => {
                if !op_latency.is_zero() {
                    std::thread::sleep(*op_latency);
                }
                apply(&mut tables.lock())
            }
            Backend::Remote(client) => remote::call(client, call, arg),
        }
    }

    /// [`Self::try_call`] for a call that cannot fail. A worker process
    /// whose driver is unreachable is dead, like a Ray worker that loses
    /// its GCS connection: it panics, which tears the process down and lets
    /// the driver's failure detector reconcile its workers.
    fn call<A: Encode + ?Sized, R: Decode>(
        &self,
        call: u8,
        arg: &A,
        apply: impl FnOnce(&mut Tables) -> R,
    ) -> R {
        self.try_call(call, arg, |t| Ok(apply(t)))
            .unwrap_or_else(|e| panic!("GCS connection lost: {e}"))
    }

    /// Committed GCS transactions so far (see the module docs).
    pub fn transactions(&self) -> u64 {
        self.call(call::TRANSACTIONS, &(), |t| t.transactions)
    }

    /// Bytes of lineage committed so far: the binary encoding of every
    /// record.
    pub fn lineage_bytes(&self) -> u64 {
        self.call(call::LINEAGE_BYTES, &(), |t| t.lineage_bytes)
    }

    // -- lineage table ------------------------------------------------------

    /// Whether the lineage of `task`'s output has been committed — the test
    /// at the heart of Algorithm 1 ("tasks consume only objects with
    /// committed lineage").
    pub fn lineage_committed(&self, task: TaskName) -> bool {
        self.call(call::LINEAGE_COMMITTED, &task, |t| t.lineage.contains_key(&task))
    }

    /// Fetch one lineage record.
    pub fn get_lineage(&self, task: TaskName) -> Option<LineageRecord> {
        self.call(call::GET_LINEAGE, &task, |t| t.lineage.get(&task).cloned())
    }

    // -- channel registry ---------------------------------------------------

    pub fn put_channel(&self, state: &ChannelState) {
        self.call(call::PUT_CHANNEL, state, |t| {
            t.channels.insert(state.addr, state.clone());
            t.transactions += 1;
        })
    }

    pub fn get_channel(&self, addr: ChannelAddr) -> Option<ChannelState> {
        self.call(call::GET_CHANNEL, &addr, |t| t.channels.get(&addr).cloned())
    }

    /// Every registered channel, in address order.
    pub fn all_channels(&self) -> Vec<ChannelState> {
        self.call(call::ALL_CHANNELS, &(), |t| t.channels.values().cloned().collect())
    }

    // -- partition directory -------------------------------------------------

    pub fn get_partition(&self, name: TaskName) -> Option<PartitionEntry> {
        self.call(call::GET_PARTITION, &name, |t| t.partitions.get(&name).cloned())
    }

    // -- replay requests ------------------------------------------------------

    /// Enqueue a replay request (recovery coordinator → owner worker). A
    /// re-queue of the same request with a new attempt count overwrites it.
    pub fn add_replay(&self, request: &ReplayRequest) {
        self.call(call::ADD_REPLAY, request, |t| {
            let key = (request.owner, request.partition, request.consumer);
            t.replays.insert(key, request.attempts);
            t.transactions += 1;
        })
    }

    /// Replay requests assigned to `worker`.
    pub fn replays_for_worker(&self, worker: WorkerId) -> Vec<ReplayRequest> {
        self.call(call::REPLAYS_FOR_WORKER, &worker, |t| {
            let first = (worker, TaskName::new(0, 0, 0), ChannelAddr::new(0, 0));
            t.replays
                .range(first..)
                .take_while(|((owner, ..), _)| *owner == worker)
                .map(|(&(owner, partition, consumer), &attempts)| ReplayRequest {
                    owner,
                    partition,
                    consumer,
                    attempts,
                })
                .collect()
        })
    }

    /// Remove a replay request. Returns whether it was present — workers
    /// use this as an atomic claim so two threads of the same worker never
    /// replay the same request twice.
    pub fn remove_replay(&self, request: &ReplayRequest) -> bool {
        self.call(call::REMOVE_REPLAY, request, |t| {
            let key = (request.owner, request.partition, request.consumer);
            let removed = t.replays.remove(&key).is_some();
            t.transactions += u64::from(removed);
            removed
        })
    }

    // -- control flags --------------------------------------------------------

    /// Raise or clear the recovery barrier. While raised, TaskManagers abort
    /// their current work and wait, giving the coordinator exclusive
    /// read-write access to the GCS (§IV-B).
    pub fn set_paused(&self, paused: bool) {
        self.call(call::SET_PAUSED, &paused, |t| {
            // Lowering a barrier that is not raised removes nothing.
            t.transactions += u64::from(paused || t.paused);
            t.paused = paused;
        })
    }

    pub fn is_paused(&self) -> bool {
        self.call(call::IS_PAUSED, &(), |t| t.paused)
    }

    /// Record that a worker has failed.
    pub fn mark_worker_failed(&self, worker: WorkerId) {
        self.call(call::MARK_WORKER_FAILED, &worker, |t| {
            t.failed.insert(worker);
            t.transactions += 1;
        })
    }

    pub fn is_worker_failed(&self, worker: WorkerId) -> bool {
        self.call(call::IS_WORKER_FAILED, &worker, |t| t.failed.contains(&worker))
    }

    /// Mark the whole query as finished (all sink channels done).
    pub fn set_query_done(&self) {
        self.call(call::SET_QUERY_DONE, &(), |t| {
            t.done = true;
            t.transactions += 1;
        })
    }

    pub fn is_query_done(&self) -> bool {
        self.call(call::IS_QUERY_DONE, &(), |t| t.done)
    }

    /// Record a fatal query error; workers stop when they observe it.
    pub fn set_query_error(&self, message: &str) {
        self.call(call::SET_QUERY_ERROR, message, |t| {
            t.error = Some(message.to_string());
            t.transactions += 1;
        })
    }

    pub fn query_error(&self) -> Option<String> {
        self.call(call::QUERY_ERROR, &(), |t| t.error.clone())
    }

    /// Flag a committed output partition whose backing bytes turned out to
    /// be unreadable (chaos-wiped backup store, for example). The recovery
    /// coordinator polls these and rewinds the producing channel so the
    /// partition is regenerated from lineage.
    pub fn mark_partition_lost(&self, partition: TaskName) {
        self.call(call::MARK_PARTITION_LOST, &partition, |t| {
            t.lost.insert(partition);
            t.transactions += 1;
        })
    }

    /// Drain and return all partitions currently flagged as lost.
    pub fn take_lost_partitions(&self) -> Vec<TaskName> {
        self.call(call::TAKE_LOST_PARTITIONS, &(), |t| {
            let lost: Vec<TaskName> = std::mem::take(&mut t.lost).into_iter().collect();
            t.transactions += lost.len() as u64;
            lost
        })
    }

    // -- process-mode rendezvous ---------------------------------------------

    /// Publish where worker process `process` accepts shuffle connections.
    pub fn publish_process(&self, process: u32, addr: SocketAddr) {
        self.call(call::PUBLISH_PROCESS, &(process, addr), |t| {
            t.processes.insert(process, addr);
            t.transactions += 1;
        })
    }

    /// Where worker process `process` accepts shuffle connections, once it
    /// has published that.
    pub fn process_addr(&self, process: u32) -> Option<SocketAddr> {
        self.call(call::PROCESS_ADDR, &process, |t| t.processes.get(&process).copied())
    }

    // -- the Algorithm-1 commit ----------------------------------------------

    /// Atomically commit a finished task: write its lineage, register its
    /// output partition and update the channel state (watermarks, committed
    /// sequence number, done flag), which also advances the channel's
    /// outstanding task. The transaction aborts if the recovery
    /// barrier is raised, if the committing worker has been marked failed,
    /// or if the stored channel state no longer equals `prev_channel`.
    /// With `raise_barrier` the same transaction raises the barrier: the
    /// commit crossed a chaos trigger, and no other task may commit until
    /// the coordinator has applied the fault and lowered it again.
    pub fn commit_task(&self, commit: &TaskCommit, raise_barrier: bool) -> Result<()> {
        self.try_call(call::COMMIT_TASK, &(commit, raise_barrier), |t| {
            let channel = commit.channel_state.addr;
            if t.paused {
                return aborted("recovery barrier is raised".to_string());
            }
            if t.failed.contains(&commit.worker) {
                return aborted(format!("worker {} has been marked failed", commit.worker));
            }
            if let Some(prev) = &commit.prev_channel {
                if t.channels.get(&channel) != Some(prev) {
                    return aborted(format!(
                        "channel {channel} was reconciled since the task started"
                    ));
                }
            }
            t.lineage_bytes += commit.lineage.encoded_len();
            t.lineage.insert(commit.lineage.task, commit.lineage.clone());
            t.partitions.insert(commit.partition.name, commit.partition.clone());
            t.channels.insert(channel, commit.channel_state.clone());
            t.paused |= raise_barrier;
            t.transactions += 1;
            Ok(())
        })
    }

    // -- the driver's side of a remote call ----------------------------------

    /// Answer one GCS control frame, positioned after its
    /// [`OP_GCS`](remote::OP_GCS) byte, by calling the same method on this
    /// GCS; returns the response frame. The argument is decoded in full
    /// before the method runs, so a truncated or garbage frame changes
    /// nothing and gets a typed error.
    pub fn serve(&self, frame: &mut WireReader<'_>) -> Result<Vec<u8>> {
        fn arg<A: Decode>(frame: &mut WireReader<'_>) -> Result<A> {
            let arg = A::get(frame)?;
            frame.expect_end()?;
            Ok(arg)
        }
        fn answer<A: Decode, R: Encode>(
            frame: &mut WireReader<'_>,
            method: impl FnOnce(A) -> R,
        ) -> Result<Vec<u8>> {
            let result = method(arg(frame)?);
            Ok(remote::ok_frame(|out| result.put(out)))
        }
        match frame.u8()? {
            call::TRANSACTIONS => answer(frame, |()| self.transactions()),
            call::LINEAGE_BYTES => answer(frame, |()| self.lineage_bytes()),
            call::LINEAGE_COMMITTED => answer(frame, |task| self.lineage_committed(task)),
            call::GET_LINEAGE => answer(frame, |task| self.get_lineage(task)),
            call::PUT_CHANNEL => answer(frame, |state| self.put_channel(&state)),
            call::GET_CHANNEL => answer(frame, |addr| self.get_channel(addr)),
            call::ALL_CHANNELS => answer(frame, |()| self.all_channels()),
            call::GET_PARTITION => answer(frame, |name| self.get_partition(name)),
            call::ADD_REPLAY => answer(frame, |request| self.add_replay(&request)),
            call::REPLAYS_FOR_WORKER => answer(frame, |worker| self.replays_for_worker(worker)),
            call::REMOVE_REPLAY => answer(frame, |request| self.remove_replay(&request)),
            call::SET_PAUSED => answer(frame, |paused| self.set_paused(paused)),
            call::IS_PAUSED => answer(frame, |()| self.is_paused()),
            call::MARK_WORKER_FAILED => answer(frame, |worker| self.mark_worker_failed(worker)),
            call::IS_WORKER_FAILED => answer(frame, |worker| self.is_worker_failed(worker)),
            call::SET_QUERY_DONE => answer(frame, |()| self.set_query_done()),
            call::IS_QUERY_DONE => answer(frame, |()| self.is_query_done()),
            call::SET_QUERY_ERROR => {
                answer(frame, |message: String| self.set_query_error(&message))
            }
            call::QUERY_ERROR => answer(frame, |()| self.query_error()),
            call::MARK_PARTITION_LOST => answer(frame, |name| self.mark_partition_lost(name)),
            call::TAKE_LOST_PARTITIONS => answer(frame, |()| self.take_lost_partitions()),
            call::PUBLISH_PROCESS => {
                answer(frame, |(process, addr)| self.publish_process(process, addr))
            }
            call::PROCESS_ADDR => answer(frame, |process| self.process_addr(process)),
            call::COMMIT_TASK => {
                let (commit, raise_barrier): (TaskCommit, bool) = arg(frame)?;
                self.commit_task(&commit, raise_barrier)?;
                Ok(remote::ok_frame(|_| {}))
            }
            other => Err(QuokkaError::Storage(format!("unknown GCS call {other}"))),
        }
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
        }
    }

    /// A commit of task `seq` of `channel` on worker 0.
    fn commit_of(channel: ChannelAddr, seq: SeqNo) -> TaskCommit {
        let mut state = ChannelState::new(channel, 0, 1);
        state.committed_seq = Some(seq);
        TaskCommit {
            worker: 0,
            lineage: lineage(channel.task(seq)),
            partition: PartitionEntry {
                name: channel.task(seq),
                owner: 0,
                backed_up: true,
                spooled: false,
            },
            channel_state: state,
            prev_channel: None,
        }
    }

    /// Encode `value` as a control frame carries it, and decode it back;
    /// every strict prefix of the encoding must fail to decode.
    fn roundtrip<T: Encode + Decode>(value: &T) -> T {
        let mut buf = Vec::new();
        value.put(&mut buf);
        for cut in 0..buf.len() {
            assert!(T::get(&mut WireReader::new(&buf[..cut])).is_err(), "prefix of {cut} bytes");
        }
        let mut r = WireReader::new(&buf);
        let decoded = T::get(&mut r).unwrap();
        r.expect_end().unwrap();
        decoded
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
            let rec =
                LineageRecord { task: t, source, finished_inputs: vec![1, 0], finalize: true };
            assert_eq!(roundtrip(&rec), rec);
            assert_eq!(rec.encoded_len() as usize, {
                let mut buf = Vec::new();
                rec.put(&mut buf);
                buf.len()
            });
        }
        // An unknown source tag is garbage, not a panic.
        let mut buf = Vec::new();
        t.put(&mut buf);
        buf.push(9);
        assert!(LineageRecord::get(&mut WireReader::new(&buf)).is_err());
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
        let decoded = roundtrip(&st);
        assert_eq!(decoded, st);
        assert_eq!(decoded.next_seq(), 8);
        assert_eq!(decoded.outputs_produced(), 8);

        let fresh = ChannelState::new(addr, 0, 0);
        let decoded = roundtrip(&fresh);
        assert_eq!(decoded, fresh);
        assert_eq!(decoded.next_seq(), 0);
    }

    #[test]
    fn task_and_partition_roundtrip() {
        let addr = ChannelAddr::new(1, 1);
        let part = PartitionEntry {
            name: TaskName::new(1, 1, 9),
            owner: 2,
            backed_up: true,
            spooled: false,
        };
        assert_eq!(roundtrip(&part), part);

        let replay = ReplayRequest { attempts: 2, ..ReplayRequest::new(1, part.name, addr) };
        assert_eq!(roundtrip(&replay), replay);

        let commit =
            TaskCommit { prev_channel: Some(ChannelState::new(addr, 2, 1)), ..commit_of(addr, 9) };
        let decoded = roundtrip(&commit);
        assert_eq!(
            (decoded.worker, decoded.lineage, decoded.partition),
            (commit.worker, commit.lineage, commit.partition)
        );
        assert_eq!(
            (decoded.channel_state, decoded.prev_channel),
            (commit.channel_state, commit.prev_channel)
        );
    }

    #[test]
    fn gcs_lineage_table() {
        let gcs = Gcs::default();
        let t = TaskName::new(1, 0, 0);
        assert!(!gcs.lineage_committed(t));
        for (channel, seq) in
            [(t.channel_addr(), 0), (t.channel_addr(), 1), (ChannelAddr::new(1, 1), 0)]
        {
            gcs.commit_task(&commit_of(channel, seq), false).unwrap();
        }
        assert!(gcs.lineage_committed(t));
        assert!(gcs.lineage_committed(TaskName::new(1, 1, 0)));
        assert!(!gcs.lineage_committed(TaskName::new(1, 1, 1)));
        assert_eq!(gcs.get_lineage(t), Some(lineage(t)));
        assert!(gcs.get_lineage(TaskName::new(2, 0, 0)).is_none());
        assert_eq!(gcs.lineage_bytes(), 3 * lineage(t).encoded_len());
    }

    #[test]
    fn gcs_channel_and_task_tables() {
        let gcs = Gcs::default();
        let a = ChannelAddr::new(0, 0);
        let b = ChannelAddr::new(1, 0);
        gcs.put_channel(&ChannelState::new(b, 1, 2));
        gcs.put_channel(&ChannelState::new(a, 0, 0));
        let all = gcs.all_channels();
        assert_eq!(all.iter().map(|c| c.addr).collect::<Vec<_>>(), vec![a, b]);
        assert_eq!(gcs.get_channel(b).unwrap().worker, 1);

        // The channel table is the task table: a channel's outstanding task
        // is its next sequence number, on the worker hosting it.
        let task = |addr| gcs.get_channel(addr).map(|c| (c.next_seq(), c.worker));
        assert_eq!((task(a), task(b)), (Some((0, 0)), Some((0, 1))));
        gcs.commit_task(&commit_of(a, 0), false).unwrap();
        assert_eq!((task(a), task(b)), (Some((1, 0)), Some((0, 1))));
        let mut moved = gcs.get_channel(a).unwrap();
        moved.worker = 2;
        gcs.put_channel(&moved);
        assert_eq!(task(a), Some((1, 2)));
    }

    #[test]
    fn gcs_partition_directory_and_replay() {
        let gcs = Gcs::default();
        let channel = ChannelAddr::new(0, 1);
        let commit = commit_of(channel, 4);
        assert!(gcs.get_partition(commit.partition.name).is_none());
        gcs.commit_task(&commit, false).unwrap();
        let p = commit.partition;
        assert_eq!(gcs.get_partition(p.name).unwrap(), p);

        let r = ReplayRequest::new(1, p.name, ChannelAddr::new(1, 2));
        gcs.add_replay(&r);
        gcs.add_replay(&ReplayRequest::new(2, p.name, ChannelAddr::new(1, 0)));
        gcs.add_replay(&ReplayRequest::new(0, p.name, ChannelAddr::new(1, 0)));
        assert_eq!(gcs.replays_for_worker(1), vec![r.clone()]);
        assert!(gcs.replays_for_worker(3).is_empty());

        // Re-queueing the same request with a higher attempt count
        // overwrites (same key) rather than duplicating.
        let charged = ReplayRequest { attempts: 3, ..r.clone() };
        gcs.add_replay(&charged);
        assert_eq!(gcs.replays_for_worker(1), vec![charged.clone()]);
        assert!(gcs.remove_replay(&r));
        assert!(!gcs.remove_replay(&r), "a request is claimed once");
        assert!(gcs.replays_for_worker(1).is_empty());
        assert_eq!(gcs.replays_for_worker(2).len(), 1);
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

        assert!(!gcs.is_query_done());
        gcs.set_query_done();
        assert!(gcs.is_query_done());

        assert!(gcs.query_error().is_none());
        gcs.set_query_error("boom");
        assert_eq!(gcs.query_error().unwrap(), "boom");

        let addr: SocketAddr = "127.0.0.1:4242".parse().unwrap();
        assert!(gcs.process_addr(1).is_none());
        gcs.publish_process(1, addr);
        assert_eq!(gcs.process_addr(1), Some(addr));
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
            },
            channel_state: state.clone(),
            prev_channel: None,
        };
        gcs.commit_task(&commit, false).unwrap();
        assert!(gcs.lineage_committed(channel.task(0)));
        assert_eq!(gcs.get_channel(channel).unwrap().consumed, vec![4]);
        assert_eq!(gcs.get_channel(channel).unwrap().next_seq(), 1);
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
        gcs.commit_task(&commit_of(channel, 0), true).unwrap();
        assert!(gcs.lineage_committed(channel.task(0)));
        assert!(gcs.is_paused(), "the crossing commit raises the barrier atomically");
        assert!(gcs.commit_task(&commit_of(channel, 1), false).is_err());
        gcs.set_paused(false);
        gcs.commit_task(&commit_of(channel, 1), false).unwrap();
    }

    #[test]
    fn commit_with_no_next_task_marks_channel_done() {
        let gcs = Gcs::default();
        let channel = ChannelAddr::new(2, 1);
        gcs.put_channel(&ChannelState::new(channel, 1, 1));
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
            },
            partition: PartitionEntry {
                name: channel.task(5),
                owner: 1,
                backed_up: false,
                spooled: false,
            },
            channel_state: state,
            prev_channel: None,
        };
        gcs.commit_task(&commit, false).unwrap();
        // A done channel has no outstanding task.
        assert!(gcs.get_channel(channel).unwrap().done);
        assert!(gcs.lineage_committed(channel.task(5)));
        assert!(!gcs.get_partition(channel.task(5)).unwrap().backed_up);
    }

    #[test]
    fn transactions_count_writes_but_not_aborts_or_absent_removals() {
        let gcs = Gcs::default();
        let channel = ChannelAddr::new(1, 0);
        let replay = ReplayRequest::new(0, channel.task(0), ChannelAddr::new(2, 0));
        let counted = |step: &dyn Fn(&Gcs)| {
            let before = gcs.transactions();
            step(&gcs);
            gcs.transactions() - before
        };
        assert_eq!(counted(&|g| g.put_channel(&ChannelState::new(channel, 0, 1))), 1);
        assert_eq!(counted(&|g| g.commit_task(&commit_of(channel, 0), false).unwrap()), 1);
        assert_eq!(counted(&|g| g.add_replay(&replay)), 1);
        assert_eq!(counted(&|g| g.add_replay(&replay)), 1, "a re-queue writes");
        assert_eq!(counted(&|g| assert!(g.remove_replay(&replay))), 1);
        assert_eq!(counted(&|g| assert!(!g.remove_replay(&replay))), 0, "absent");
        assert_eq!(counted(&|g| g.set_paused(false)), 0, "no barrier to lower");
        assert_eq!(counted(&|g| g.set_paused(true)), 1);
        let blocked = |g: &Gcs| assert!(g.commit_task(&commit_of(channel, 1), false).is_err());
        assert_eq!(counted(&blocked), 0, "aborted by the barrier");
        assert_eq!(counted(&|g| g.set_paused(false)), 1);
        assert_eq!(counted(&|g| g.mark_worker_failed(0)), 1);
        assert_eq!(counted(&blocked), 0, "aborted by the failed mark");
        gcs.mark_partition_lost(channel.task(0));
        gcs.mark_partition_lost(channel.task(1));
        assert_eq!(counted(&|g| assert_eq!(g.take_lost_partitions().len(), 2)), 2);
        assert_eq!(counted(&|g| assert!(g.take_lost_partitions().is_empty())), 0);
        let addr: SocketAddr = "127.0.0.1:1".parse().unwrap();
        assert_eq!(counted(&|g| g.publish_process(0, addr)), 1);
        assert_eq!(counted(&|g| g.set_query_error("boom")), 1);
        assert_eq!(counted(&|g| g.set_query_done()), 1);
        let reads = |g: &Gcs| {
            let _ = (g.get_channel(channel), g.all_channels());
            let _ = (g.lineage_committed(channel.task(0)), g.get_lineage(channel.task(0)));
            let _ = (g.get_partition(channel.task(0)), g.replays_for_worker(0));
            let _ = (g.is_paused(), g.is_worker_failed(0), g.is_query_done());
            let _ = (g.query_error(), g.process_addr(0), g.lineage_bytes());
        };
        assert_eq!(counted(&reads), 0);
    }

    #[test]
    fn op_latency_is_charged_once_per_call() {
        let latency = Duration::from_millis(25);
        let gcs = Gcs::new(latency);
        let channel = ChannelAddr::new(1, 0);
        let start = std::time::Instant::now();
        gcs.commit_task(&commit_of(channel, 0), false).unwrap();
        let _ = gcs.get_channel(channel);
        let elapsed = start.elapsed();
        assert!(elapsed >= 2 * latency, "each call pays the round trip: {elapsed:?}");
        assert!(elapsed < 4 * latency, "a commit is one call: {elapsed:?}");
    }
}
