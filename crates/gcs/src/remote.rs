//! The control protocol between worker processes and the driver.
//!
//! In the paper's deployment the GCS is a Redis instance on the head node
//! and every TaskManager process talks to it over the network. Process-mode
//! clusters reproduce that shape: the driver owns the one real
//! [`Gcs`](crate::Gcs), and each worker process holds a
//! [`Gcs::remote`](crate::Gcs::remote) handle that sends every call as one
//! frame over a pooled TCP connection. The driver answers a frame by calling
//! the same method on its own tables ([`Gcs::serve`](crate::Gcs::serve)), so
//! the local and the remote GCS share one implementation of every operation,
//! and a remote [`Gcs::commit_task`](crate::Gcs::commit_task) is one round
//! trip.
//!
//! Framing is the data plane's: [`wire::write_frame`] / [`wire::read_frame`]
//! under one size limit, around a payload built with [`quokka_batch::wire`]
//! primitives. The first payload byte is the opcode; a GCS call
//! ([`OP_GCS`]) is followed by its call byte and its argument in the record
//! codec below (`Encode`, `Decode`).
//! Responses start with a status byte (0 = ok, 1 = typed error). The opcode
//! space is shared with the engine's control server, which also serves
//! durable-store access, sink forwarding and heartbeats.

use crate::tables::{
    ChannelState, LineageRecord, LineageSource, PartitionEntry, ReplayRequest, TaskCommit,
};
use quokka_batch::wire::{self, WireReader};
use quokka_common::ids::{ChannelAddr, TaskName};
use quokka_common::{QuokkaError, Result};
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;

// --- opcodes -------------------------------------------------------------

/// One call of a [`Gcs`](crate::Gcs) method, answered by
/// [`Gcs::serve`](crate::Gcs::serve).
pub const OP_GCS: u8 = 1;
/// Durable-object-store access (served by the engine's control server).
pub const OP_DURABLE_GET: u8 = 20;
pub const OP_DURABLE_PUT: u8 = 21;
/// Read one base-table split, projected to the requested columns.
pub const OP_DURABLE_READ_SPLIT: u8 = 24;
/// Forward one committed sink partition to the driver's result stream.
pub const OP_SINK_EMIT: u8 = 30;
/// Report the liveness counters of a process's hosted workers.
pub const OP_HEARTBEAT: u8 = 31;
/// Report per-peer wire statistics when a worker process exits.
pub const OP_WIRE_STATS: u8 = 32;

/// Error kinds carried in error responses (status byte 1).
const ERR_GENERIC: u8 = 0;
const ERR_ABORTED: u8 = 1;
const ERR_NOT_FOUND: u8 = 2;

/// Build an ok response: status byte then `build`'s payload.
pub fn ok_frame(build: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut out = vec![0u8];
    build(&mut out);
    out
}

/// Build an error response carrying a typed error. Aborts and misses keep
/// their message, so they read the same on both sides of the socket.
pub fn err_frame(error: &QuokkaError) -> Vec<u8> {
    let mut out = vec![1u8];
    let (kind, message) = match error {
        QuokkaError::TransactionAborted(message) => (ERR_ABORTED, message.clone()),
        QuokkaError::NotFound(message) => (ERR_NOT_FOUND, message.clone()),
        other => (ERR_GENERIC, other.to_string()),
    };
    wire::put_u8(&mut out, kind);
    wire::put_str(&mut out, &message);
    out
}

fn decode_response(resp: Vec<u8>) -> Result<Vec<u8>> {
    let mut r = WireReader::new(&resp);
    match r.u8()? {
        0 => {
            let at = r.position();
            Ok(resp[at..].to_vec())
        }
        1 => {
            let kind = r.u8()?;
            let message = r.str()?;
            Err(match kind {
                ERR_ABORTED => QuokkaError::TransactionAborted(message),
                ERR_NOT_FOUND => QuokkaError::NotFound(message),
                _ => QuokkaError::Transient(format!("control rpc: {message}")),
            })
        }
        other => Err(QuokkaError::Transient(format!("control rpc: bad status byte {other}"))),
    }
}

// --- client --------------------------------------------------------------

/// A pooled synchronous TCP client for the driver's control server. One
/// request occupies one connection; concurrent callers each draw their own
/// connection from the pool (dialing a fresh one when empty), so worker
/// threads never serialize behind each other.
pub struct ControlClient {
    addr: SocketAddr,
    pool: Mutex<Vec<TcpStream>>,
}

impl std::fmt::Debug for ControlClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ControlClient").field("addr", &self.addr).finish()
    }
}

impl ControlClient {
    /// Connect to the driver's control server, failing fast if it is not
    /// reachable.
    pub fn connect(addr: SocketAddr) -> Result<Self> {
        let probe = TcpStream::connect(addr)
            .map_err(|e| QuokkaError::Transient(format!("control connect to {addr}: {e}")))?;
        let _ = probe.set_nodelay(true);
        Ok(ControlClient { addr, pool: Mutex::new(vec![probe]) })
    }

    /// The driver address this client talks to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    fn checkout(&self) -> Result<TcpStream> {
        if let Some(conn) = self.pool.lock().expect("control pool poisoned").pop() {
            return Ok(conn);
        }
        let conn = TcpStream::connect(self.addr).map_err(|e| {
            QuokkaError::Transient(format!("control connect to {}: {e}", self.addr))
        })?;
        let _ = conn.set_nodelay(true);
        Ok(conn)
    }

    /// Send one request frame and await its response frame. The opcode is
    /// the first payload byte.
    pub fn request(&self, payload: &[u8]) -> Result<Vec<u8>> {
        let mut conn = self.checkout()?;
        let io = |e: std::io::Error| QuokkaError::Transient(format!("control rpc: {e}"));
        wire::write_frame(&mut conn, &[payload]).map_err(io)?;
        let resp = wire::read_frame(&mut conn)
            .map_err(io)?
            .ok_or_else(|| QuokkaError::Transient("control rpc: server closed".to_string()))?;
        self.pool.lock().expect("control pool poisoned").push(conn);
        decode_response(resp)
    }
}

/// Send one GCS call — its call byte and argument — and decode the answer.
pub(crate) fn call<A: Encode + ?Sized, R: Decode>(
    client: &ControlClient,
    call: u8,
    arg: &A,
) -> Result<R> {
    let mut req = vec![OP_GCS, call];
    arg.put(&mut req);
    let resp = client.request(&req)?;
    let mut r = WireReader::new(&resp);
    let answer = R::get(&mut r)?;
    r.expect_end()?;
    Ok(answer)
}

// --- the record codec ----------------------------------------------------

/// A value a GCS control frame carries, written with the [`wire`]
/// primitives.
pub(crate) trait Encode {
    fn put(&self, out: &mut Vec<u8>);

    /// Bytes of this value's encoding.
    fn encoded_len(&self) -> u64 {
        let mut out = Vec::new();
        self.put(&mut out);
        out.len() as u64
    }
}

/// A value read back from a GCS control frame. Truncation and garbage are
/// typed errors, and no allocation is sized from an unchecked count.
pub(crate) trait Decode: Sized {
    fn get(r: &mut WireReader<'_>) -> Result<Self>;
}

impl<T: Encode + ?Sized> Encode for &T {
    fn put(&self, out: &mut Vec<u8>) {
        (**self).put(out)
    }
}

macro_rules! primitive {
    ($ty:ty, $put:ident, $get:ident) => {
        impl Encode for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                wire::$put(out, *self)
            }
        }
        impl Decode for $ty {
            fn get(r: &mut WireReader<'_>) -> Result<Self> {
                r.$get()
            }
        }
    };
}
primitive!(bool, put_bool, bool);
primitive!(u32, put_u32, u32);
primitive!(u64, put_u64, u64);

impl Encode for () {
    fn put(&self, _: &mut Vec<u8>) {}
}
impl Decode for () {
    fn get(_: &mut WireReader<'_>) -> Result<Self> {
        Ok(())
    }
}

impl Encode for str {
    fn put(&self, out: &mut Vec<u8>) {
        wire::put_str(out, self)
    }
}
impl Encode for String {
    fn put(&self, out: &mut Vec<u8>) {
        wire::put_str(out, self)
    }
}
impl Decode for String {
    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        r.str()
    }
}

impl Encode for SocketAddr {
    fn put(&self, out: &mut Vec<u8>) {
        wire::put_str(out, &self.to_string())
    }
}
impl Decode for SocketAddr {
    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        let text = r.str()?;
        text.parse().map_err(|e| QuokkaError::Storage(format!("bad socket address {text:?}: {e}")))
    }
}

impl<T: Encode> Encode for Option<T> {
    fn put(&self, out: &mut Vec<u8>) {
        wire::put_bool(out, self.is_some());
        if let Some(value) = self {
            value.put(out);
        }
    }
}
impl<T: Decode> Decode for Option<T> {
    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        Ok(if r.bool()? { Some(T::get(r)?) } else { None })
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn put(&self, out: &mut Vec<u8>) {
        wire::put_u32(out, self.len() as u32);
        self.iter().for_each(|item| item.put(out));
    }
}
impl<T: Decode> Decode for Vec<T> {
    /// Collecting grows the vector item by item, so a garbage count fails
    /// on the truncation it causes instead of sizing an allocation.
    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        let count = r.u32()?;
        (0..count).map(|_| T::get(r)).collect()
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }
}
impl<A: Decode, B: Decode> Decode for (A, B) {
    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

/// Encode a struct as its fields in the listed order; decoding fails to
/// compile if a field is left out.
macro_rules! record {
    ($ty:ident { $($field:ident),* }) => {
        impl Encode for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                $(self.$field.put(out);)*
            }
        }
        impl Decode for $ty {
            fn get(r: &mut WireReader<'_>) -> Result<Self> {
                Ok($ty { $($field: Decode::get(r)?),* })
            }
        }
    };
}
record!(ChannelAddr { stage, channel });
record!(TaskName { stage, channel, seq });
record!(LineageRecord { task, source, finished_inputs, finalize });
record!(ChannelState {
    addr,
    worker,
    committed_seq,
    consumed,
    splits_consumed,
    done,
    rewind_until
});
record!(PartitionEntry { name, owner, backed_up, spooled });
record!(ReplayRequest { owner, partition, consumer, attempts });
record!(TaskCommit { worker, lineage, partition, channel_state, prev_channel });

const SOURCE_UPSTREAM: u8 = 0;
const SOURCE_SPLITS: u8 = 1;
const SOURCE_FINALIZE: u8 = 2;

impl Encode for LineageSource {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            LineageSource::Upstream { upstream, start_seq, count } => {
                wire::put_u8(out, SOURCE_UPSTREAM);
                (upstream, (*start_seq, *count)).put(out);
            }
            LineageSource::InputSplits { splits } => {
                wire::put_u8(out, SOURCE_SPLITS);
                splits.put(out);
            }
            LineageSource::Finalize => wire::put_u8(out, SOURCE_FINALIZE),
        }
    }
}
impl Decode for LineageSource {
    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        Ok(match r.u8()? {
            SOURCE_UPSTREAM => {
                let (upstream, (start_seq, count)) = Decode::get(r)?;
                LineageSource::Upstream { upstream, start_seq, count }
            }
            SOURCE_SPLITS => LineageSource::InputSplits { splits: Decode::get(r)? },
            SOURCE_FINALIZE => LineageSource::Finalize,
            other => return Err(QuokkaError::Storage(format!("unknown lineage source {other}"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tables::call;
    use crate::Gcs;
    use std::io::Write;
    use std::net::TcpListener;
    use std::sync::Arc;

    /// A minimal driver: accept connections and answer each frame with
    /// [`Gcs::serve`] on one authoritative GCS, the call the engine's
    /// control server hands `OP_GCS` frames to.
    fn spawn_server(gcs: Arc<Gcs>) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        std::thread::spawn(move || {
            for conn in listener.incoming() {
                let Ok(mut conn) = conn else { break };
                let _ = conn.set_nodelay(true);
                let gcs = Arc::clone(&gcs);
                std::thread::spawn(move || {
                    while let Ok(Some(req)) = wire::read_frame(&mut conn) {
                        let mut r = WireReader::new(&req);
                        let resp = match r.u8() {
                            Ok(OP_GCS) => gcs.serve(&mut r),
                            _ => Err(QuokkaError::Internal("not a GCS frame".into())),
                        };
                        let resp = resp.unwrap_or_else(|e| err_frame(&e));
                        if wire::write_frame(&mut conn, &[&resp]).is_err() {
                            break;
                        }
                    }
                });
            }
        });
        addr
    }

    fn remote_to(authority: &Arc<Gcs>) -> Gcs {
        let addr = spawn_server(Arc::clone(authority));
        Gcs::remote(Arc::new(ControlClient::connect(addr).expect("connect")))
    }

    fn commit_of(channel: ChannelAddr, prev: Option<ChannelState>) -> TaskCommit {
        let seq = prev.as_ref().map_or(0, ChannelState::next_seq);
        let mut state = ChannelState::new(channel, 0, 1);
        state.committed_seq = Some(seq);
        TaskCommit {
            worker: 0,
            lineage: LineageRecord {
                task: channel.task(seq),
                source: LineageSource::Finalize,
                finished_inputs: vec![],
                finalize: false,
            },
            partition: PartitionEntry {
                name: channel.task(seq),
                owner: 0,
                backed_up: true,
                spooled: false,
            },
            channel_state: state,
            prev_channel: prev,
        }
    }

    #[test]
    fn remote_store_mirrors_local_semantics() {
        let authority = Arc::new(Gcs::default());
        let gcs = remote_to(&authority);
        let channel = ChannelAddr::new(1, 0);
        let replay = ReplayRequest::new(2, channel.task(0), ChannelAddr::new(2, 1));

        // Writes through the remote handle land in the driver's tables and
        // read back identically through either handle.
        let commit = commit_of(channel, None);
        gcs.put_channel(&ChannelState::new(channel, 0, 1));
        gcs.commit_task(&commit, false).unwrap();
        gcs.add_replay(&replay);
        gcs.mark_partition_lost(channel.task(0));
        gcs.set_query_error("boom");
        for handle in [&gcs, &*authority] {
            assert_eq!(handle.get_channel(channel).unwrap().next_seq(), 1);
            assert_eq!(handle.get_lineage(channel.task(0)).as_ref(), Some(&commit.lineage));
            assert_eq!(handle.get_partition(channel.task(0)).as_ref(), Some(&commit.partition));
            assert_eq!(handle.replays_for_worker(2), vec![replay.clone()]);
            assert_eq!(handle.query_error().as_deref(), Some("boom"));
            assert_eq!(handle.all_channels().len(), 1);
        }
        assert_eq!(gcs.transactions(), authority.transactions());
        assert_eq!(gcs.lineage_bytes(), authority.lineage_bytes());
        assert_eq!(gcs.take_lost_partitions(), vec![channel.task(0)]);
        assert!(authority.take_lost_partitions().is_empty());
    }

    #[test]
    fn remote_transactions_validate_versions_on_the_driver() {
        let authority = Arc::new(Gcs::default());
        let gcs = remote_to(&authority);
        let channel = ChannelAddr::new(1, 0);
        authority.put_channel(&ChannelState::new(channel, 0, 1));
        let first = commit_of(channel, Some(ChannelState::new(channel, 0, 1)));
        gcs.commit_task(&first, false).expect("commit");
        let before = authority.transactions();

        // Each abort travels back as a typed error and writes nothing.
        let stale = commit_of(channel, Some(ChannelState::new(channel, 0, 1)));
        let aborted = |result: Result<()>| {
            assert!(matches!(result, Err(QuokkaError::TransactionAborted(_))), "{result:?}")
        };
        aborted(gcs.commit_task(&stale, false));
        let next = commit_of(channel, Some(first.channel_state.clone()));
        authority.set_paused(true);
        aborted(gcs.commit_task(&next, false));
        authority.set_paused(false);
        authority.mark_worker_failed(0);
        aborted(gcs.commit_task(&next, false));
        assert_eq!(authority.transactions(), before + 3, "only the barrier and mark counted");
        assert!(!authority.lineage_committed(channel.task(1)));

        // A replay request is claimed exactly once.
        let replay = ReplayRequest::new(0, channel.task(0), ChannelAddr::new(2, 0));
        authority.add_replay(&replay);
        assert!(gcs.remove_replay(&replay));
        assert!(!gcs.remove_replay(&replay));
        assert!(!authority.remove_replay(&replay));
    }

    #[test]
    fn concurrent_remote_writers_serialize_through_commits() {
        let authority = Arc::new(Gcs::default());
        let addr = spawn_server(Arc::clone(&authority));
        let channel = ChannelAddr::new(1, 0);
        authority.put_channel(&ChannelState::new(channel, 0, 1));
        // 4 remote handles (one per simulated worker process) race to
        // advance one channel, each commit a compare-and-swap on the state
        // it read; every one of the 100 commits lands exactly once.
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let client = Arc::new(ControlClient::connect(addr).expect("connect"));
                std::thread::spawn(move || {
                    let gcs = Gcs::remote(client);
                    let mut aborts = 0;
                    let mut landed = 0;
                    while landed < 25 {
                        let seen = gcs.get_channel(channel).unwrap();
                        match gcs.commit_task(&commit_of(channel, Some(seen)), false) {
                            Ok(()) => landed += 1,
                            Err(QuokkaError::TransactionAborted(_)) => aborts += 1,
                            Err(e) => panic!("{e}"),
                        }
                    }
                    aborts
                })
            })
            .collect();
        let aborts: u64 = threads.into_iter().map(|t| t.join().unwrap()).sum();
        assert_eq!(authority.get_channel(channel).unwrap().committed_seq, Some(99));
        assert!((0..100).all(|seq| authority.lineage_committed(channel.task(seq))));
        assert_eq!(authority.transactions(), 1 + 100, "aborts count nothing ({aborts} of them)");
    }

    #[test]
    fn truncated_or_garbage_frames_get_typed_errors() {
        let gcs = Gcs::default();
        let channel = ChannelAddr::new(1, 0);
        // Every strict prefix of a valid call is rejected without effect.
        let mut frame = vec![call::COMMIT_TASK];
        (&commit_of(channel, None), false).put(&mut frame);
        for cut in 0..frame.len() {
            let result = gcs.serve(&mut WireReader::new(&frame[..cut]));
            assert!(matches!(result, Err(QuokkaError::Storage(_))), "prefix {cut}: {result:?}");
        }
        // So are trailing bytes, an unknown call, and a list whose count
        // claims four billion entries.
        let mut long = frame.clone();
        long.push(0);
        let mut huge = vec![call::COMMIT_TASK];
        (0u32, channel.task(0)).put(&mut huge);
        huge.push(SOURCE_FINALIZE);
        huge.extend_from_slice(&u32::MAX.to_be_bytes());
        for garbage in [&long[..], &[200], &huge] {
            let result = gcs.serve(&mut WireReader::new(garbage));
            assert!(matches!(result, Err(QuokkaError::Storage(_))), "{garbage:?}: {result:?}");
        }
        assert!(!gcs.lineage_committed(channel.task(0)));
        assert_eq!(gcs.transactions(), 0);
        // The valid frame still applies.
        assert_eq!(gcs.serve(&mut WireReader::new(&frame)).unwrap(), ok_frame(|_| {}));
        assert!(gcs.lineage_committed(channel.task(0)));
    }

    #[test]
    fn a_frame_shorter_than_its_length_prefix_is_an_error() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut server, _) = listener.accept().unwrap();
        // Claims a 1 GiB frame, delivers four bytes, hangs up.
        client.write_all(&wire::MAX_FRAME_BYTES.to_be_bytes()).unwrap();
        client.write_all(b"oops").unwrap();
        drop(client);
        let err = wire::read_frame(&mut server).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }
}
