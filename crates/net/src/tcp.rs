//! The TCP transport: shuffle pushes over real sockets.
//!
//! Modelled on timely-dataflow's communication stack: every push is handed
//! to the destination peer's *send lane* — one dedicated send thread behind
//! a bounded queue — as a small [`PushHeader`] plus the slice's payload,
//! which its producer encoded once ([`Slice`]). The lane writes the two as
//! one length-prefixed frame ([`wire::write_frame`]); nothing on the send
//! path encodes a batch. A full queue blocks the producer in
//! [`Transport::send`], which is the end-to-end backpressure story: a
//! stalled consumer stops reading, the peer's TCP window fills, the send
//! thread blocks in `write`, the queue fills, and producers stall instead of
//! buffering without bound.
//!
//! One listener serves the whole process; a recv thread per accepted
//! connection reads frames with [`wire::read_frame`] (the control plane's
//! reader too), decodes each payload and hands the batches to the delivery
//! callback (in the engine: an insert into the destination worker's
//! [`FlightServer`](crate::FlightServer) inbox — idempotent, so duplicate
//! frames from publish retries are harmless).
//!
//! Sends are fire-and-forget: `send` returns once the frame is queued.
//! That is safe under write-ahead lineage because a frame that is queued on
//! a live connection always arrives (TCP is reliable), and frames lost with
//! a dying peer are exactly the slices the recovery machinery replays from
//! lineage and local backups. Connection teardown surfaces as the typed
//! [`QuokkaError::WorkerFailed`] the retry/suspicion machinery already
//! understands.
//!
//! [`QuokkaError::WorkerFailed`]: quokka_common::QuokkaError::WorkerFailed

use crate::transport::Transport;
use bytes::Bytes;
use parking_lot::RwLock;
use quokka_batch::{wire, Batch, Slice};
use quokka_common::ids::{ChannelAddr, PartitionName, TaskName, WorkerId};
use quokka_common::metrics::MetricsRegistry;
use quokka_common::{QuokkaError, Result, TransportConfig};
use std::io::{BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

/// Frame tag for a shuffle push (the data plane's only frame type; the tag
/// byte keeps the framing extensible).
const FRAME_PUSH: u8 = 1;

/// Delivery callback invoked by recv threads for every reassembled frame:
/// `(source, destination, consumer, producer, batches)`.
pub type DeliverFn =
    Arc<dyn Fn(WorkerId, WorkerId, ChannelAddr, PartitionName, Vec<Batch>) + Send + Sync>;

/// The header ahead of a push frame's payload: which worker sent the slice
/// to which, for which consumer channel, and which task produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PushHeader {
    pub source: WorkerId,
    pub destination: WorkerId,
    pub consumer: ChannelAddr,
    pub producer: PartitionName,
}

impl PushHeader {
    fn encode(&self) -> Vec<u8> {
        let mut head = Vec::with_capacity(1 + 7 * 4);
        wire::put_u8(&mut head, FRAME_PUSH);
        for field in [
            self.source,
            self.destination,
            self.consumer.stage,
            self.consumer.channel,
            self.producer.stage,
            self.producer.channel,
            self.producer.seq,
        ] {
            wire::put_u32(&mut head, field);
        }
        head
    }

    /// Split a push frame into its header and the slice payload after it.
    pub fn decode(frame: &[u8]) -> Result<(PushHeader, &[u8])> {
        let mut r = wire::WireReader::new(frame);
        let tag = r.u8()?;
        if tag != FRAME_PUSH {
            return Err(QuokkaError::Storage(format!("unknown transport frame tag {tag}")));
        }
        let header = PushHeader {
            source: r.u32()?,
            destination: r.u32()?,
            consumer: ChannelAddr::new(r.u32()?, r.u32()?),
            producer: TaskName::new(r.u32()?, r.u32()?, r.u32()?),
        };
        Ok((header, &frame[r.position()..]))
    }
}

/// The per-peer send side: a bounded queue of (header, payload) frames
/// drained by one send thread.
#[derive(Clone)]
struct SendLane {
    queue: SyncSender<(Vec<u8>, Bytes)>,
    /// Current queue occupancy (incremented at enqueue, decremented by the
    /// send thread), used for the backpressure high-water mark.
    depth: Arc<AtomicU64>,
}

struct TcpInner {
    queue_frames: usize,
    metrics: Arc<MetricsRegistry>,
    deliver: DeliverFn,
    /// Send lane per worker; `None` means the worker is local to this
    /// process (delivery is a direct call) or its lane was torn down.
    lanes: RwLock<Vec<Option<SendLane>>>,
    /// Workers whose connections were torn down; sends fail immediately.
    dead: Vec<AtomicBool>,
    shutdown: AtomicBool,
    listen_addr: SocketAddr,
    threads: Mutex<Vec<thread::JoinHandle<()>>>,
    /// Clones of every live socket, so shutdown can abort transport threads
    /// blocked in `read`/`write` by shutting the sockets down hard.
    socks: Mutex<Vec<TcpStream>>,
}

/// TCP transport handle. Dropping it tears down every connection and joins
/// all transport threads.
pub struct TcpTransport {
    inner: Arc<TcpInner>,
}

impl std::fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpTransport")
            .field("listen_addr", &self.inner.listen_addr)
            .field("workers", &self.inner.dead.len())
            .finish()
    }
}

impl TcpTransport {
    /// Bind a listener for this process and start accepting connections.
    /// No send lanes exist yet; wire peers up with
    /// [`connect_peer`](Self::connect_peer) (or use
    /// [`loopback`](Self::loopback) for the single-process case).
    pub fn bind(
        workers: u32,
        config: &TransportConfig,
        metrics: Arc<MetricsRegistry>,
        deliver: DeliverFn,
    ) -> Result<Self> {
        let listener = TcpListener::bind(("127.0.0.1", 0))
            .map_err(|e| QuokkaError::Transient(format!("transport bind failed: {e}")))?;
        let listen_addr = listener
            .local_addr()
            .map_err(|e| QuokkaError::Transient(format!("transport local_addr failed: {e}")))?;
        let inner = Arc::new(TcpInner {
            queue_frames: config.send_queue_frames.max(1),
            metrics,
            deliver,
            lanes: RwLock::new((0..workers).map(|_| None).collect()),
            dead: (0..workers).map(|_| AtomicBool::new(false)).collect(),
            shutdown: AtomicBool::new(false),
            listen_addr,
            threads: Mutex::new(Vec::new()),
            socks: Mutex::new(Vec::new()),
        });
        let accept_inner = Arc::clone(&inner);
        let accept = thread::Builder::new()
            .name("quokka-tcp-accept".into())
            .spawn(move || accept_loop(listener, accept_inner))
            .map_err(|e| QuokkaError::Transient(format!("transport accept spawn failed: {e}")))?;
        inner.threads.lock().expect("transport thread list poisoned").push(accept);
        Ok(TcpTransport { inner })
    }

    /// A fully wired single-process transport: every worker's lane connects
    /// back to this process's own listener, so all cross-worker pushes
    /// travel over real loopback sockets.
    pub fn loopback(
        workers: u32,
        config: &TransportConfig,
        metrics: Arc<MetricsRegistry>,
        deliver: DeliverFn,
    ) -> Result<Self> {
        let t = Self::bind(workers, config, metrics, deliver)?;
        let addr = t.local_addr();
        for w in 0..workers {
            t.connect_peer(w, addr)?;
        }
        Ok(t)
    }

    /// The address of this process's listener (hand it to peer processes).
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.listen_addr
    }

    /// Open the send lane towards `worker`, hosted at `addr`: one TCP
    /// connection, one bounded queue, one send thread.
    pub fn connect_peer(&self, worker: WorkerId, addr: SocketAddr) -> Result<()> {
        let stream = TcpStream::connect(addr).map_err(|e| {
            QuokkaError::Transient(format!("transport connect to worker {worker} failed: {e}"))
        })?;
        let _ = stream.set_nodelay(true);
        if let Ok(clone) = stream.try_clone() {
            self.inner.socks.lock().expect("transport sock list poisoned").push(clone);
        }
        let (tx, rx) = sync_channel::<(Vec<u8>, Bytes)>(self.inner.queue_frames);
        let depth = Arc::new(AtomicU64::new(0));
        let lane = SendLane { queue: tx, depth: Arc::clone(&depth) };
        let send_inner = Arc::clone(&self.inner);
        let handle = thread::Builder::new()
            .name(format!("quokka-tcp-send-{worker}"))
            .spawn(move || {
                // Buffered, so a small frame's prefix, header and payload
                // leave in one write; a large payload bypasses the buffer.
                let mut stream = BufWriter::new(stream);
                while let Ok((head, payload)) = rx.recv() {
                    depth.fetch_sub(1, Ordering::SeqCst);
                    let sent = wire::write_frame(&mut stream, &[&head, &payload])
                        .and_then(|()| stream.flush());
                    if sent.is_err() {
                        // The peer's end of the wire is gone: poison the
                        // lane so producers see WorkerFailed, and drain the
                        // queue so blocked producers wake up.
                        send_inner.dead[worker as usize].store(true, Ordering::SeqCst);
                        break;
                    }
                }
                // Dropping `rx` disconnects the queue; producers blocked in
                // send() observe SendError and map it to WorkerFailed.
            })
            .map_err(|e| QuokkaError::Transient(format!("transport send spawn failed: {e}")))?;
        self.inner.threads.lock().expect("transport thread list poisoned").push(handle);
        let mut lanes = self.inner.lanes.write();
        if (worker as usize) < lanes.len() {
            lanes[worker as usize] = Some(lane);
        }
        Ok(())
    }

    fn shutdown(&self) {
        if self.inner.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Drop every lane: send threads drain and exit, closing their
        // sockets, which EOFs the matching recv threads.
        for lane in self.inner.lanes.write().iter_mut() {
            *lane = None;
        }
        // Abort any transport thread blocked in a socket read or write: a
        // hard shutdown on every connection errors those calls out.
        for sock in self.inner.socks.lock().expect("transport sock list poisoned").drain(..) {
            let _ = sock.shutdown(std::net::Shutdown::Both);
        }
        // Poke the listener so the accept loop observes the flag.
        let _ = TcpStream::connect(self.inner.listen_addr);
        loop {
            let handles =
                std::mem::take(&mut *self.inner.threads.lock().expect("thread list poisoned"));
            if handles.is_empty() {
                break;
            }
            for h in handles {
                let _ = h.join();
            }
        }
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Transport for TcpTransport {
    fn send(
        &self,
        source: WorkerId,
        destination: WorkerId,
        consumer: ChannelAddr,
        producer: PartitionName,
        slice: &Slice,
    ) -> Result<()> {
        let inner = &self.inner;
        if inner.shutdown.load(Ordering::SeqCst) {
            return Err(QuokkaError::Transient("transport is shut down".into()));
        }
        if inner.dead.get(destination as usize).is_some_and(|d| d.load(Ordering::SeqCst)) {
            return Err(QuokkaError::WorkerFailed(destination));
        }
        // Same-worker transfers never touch the wire (the paper's
        // same-machine flight path), and neither do workers local to this
        // process (no lane).
        let lane = if source == destination {
            None
        } else {
            inner.lanes.read().get(destination as usize).and_then(|l| l.clone())
        };
        let Some(lane) = lane else {
            (inner.deliver)(source, destination, consumer, producer, slice.batches().to_vec());
            return Ok(());
        };
        let head = PushHeader { source, destination, consumer, producer }.encode();
        let frame_bytes = (head.len() + slice.payload().len()) as u64;
        // Depth is sampled *before* the (possibly blocking) enqueue, so the
        // high-water mark records how full the bounded queue got.
        let depth = lane.depth.fetch_add(1, Ordering::SeqCst) + 1;
        inner.metrics.add_wire_send(destination, frame_bytes, depth);
        if lane.queue.send((head, slice.payload().clone())).is_err() {
            lane.depth.fetch_sub(1, Ordering::SeqCst);
            inner.dead[destination as usize].store(true, Ordering::SeqCst);
            return Err(QuokkaError::WorkerFailed(destination));
        }
        Ok(())
    }

    fn fail_peer(&self, worker: WorkerId) {
        if let Some(d) = self.inner.dead.get(worker as usize) {
            d.store(true, Ordering::SeqCst);
        }
        // Dropping the lane disconnects the queue: the send thread drains
        // and exits, closing the connection towards the dead worker.
        if let Some(lane) = self.inner.lanes.write().get_mut(worker as usize) {
            *lane = None;
        }
    }

    fn kind(&self) -> &'static str {
        "tcp"
    }
}

fn accept_loop(listener: TcpListener, inner: Arc<TcpInner>) {
    loop {
        let Ok((stream, _)) = listener.accept() else {
            if inner.shutdown.load(Ordering::SeqCst) {
                return;
            }
            thread::sleep(Duration::from_millis(1));
            continue;
        };
        if inner.shutdown.load(Ordering::SeqCst) {
            return;
        }
        if let Ok(clone) = stream.try_clone() {
            inner.socks.lock().expect("transport sock list poisoned").push(clone);
        }
        let recv_inner = Arc::clone(&inner);
        let handle = thread::Builder::new()
            .name("quokka-tcp-recv".into())
            .spawn(move || recv_loop(stream, recv_inner));
        if let Ok(handle) = handle {
            inner.threads.lock().expect("transport thread list poisoned").push(handle);
        }
    }
}

/// Read frames off one connection until EOF (the peer closed or died), a
/// frame cut short or a malformed one, delivering each frame's batches to
/// the callback. Each of those ends the connection, never the process.
fn recv_loop(mut stream: TcpStream, inner: Arc<TcpInner>) {
    while let Ok(Some(frame)) = wire::read_frame(&mut stream) {
        let Ok((push, payload)) = PushHeader::decode(&frame) else { return };
        let Ok(batches) = wire::decode_partition(payload) else { return };
        inner.metrics.add_wire_recv(push.source, frame.len() as u64);
        (inner.deliver)(push.source, push.destination, push.consumer, push.producer, batches);
        if inner.shutdown.load(Ordering::SeqCst) {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quokka_batch::{Column, DataType, Schema};
    use std::sync::Condvar;

    fn big_batch(tag: i64, rows: usize) -> Batch {
        Batch::try_new(
            Schema::from_pairs(&[("x", DataType::Int64)]),
            vec![Column::Int64((0..rows as i64).map(|i| i ^ tag).collect())],
        )
        .unwrap()
    }

    type SeenDeliveries = Arc<Mutex<Vec<(WorkerId, PartitionName, Vec<Batch>)>>>;

    fn collecting_deliver() -> (DeliverFn, SeenDeliveries) {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let deliver: DeliverFn = Arc::new(move |_src, dest, _consumer, producer, batches| {
            sink.lock().unwrap().push((dest, producer, batches));
        });
        (deliver, seen)
    }

    #[test]
    fn frames_cross_the_wire_and_arrive_intact() {
        let (deliver, seen) = collecting_deliver();
        let t = TcpTransport::loopback(3, &TransportConfig::tcp(), MetricsRegistry::new(), deliver)
            .unwrap();
        let consumer = ChannelAddr::new(1, 2);
        let batch = big_batch(7, 100);
        for seq in 0..4u32 {
            t.send(0, 2, consumer, TaskName::new(0, 0, seq), &Slice::new(vec![batch.clone()]))
                .unwrap();
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while seen.lock().unwrap().len() < 4 {
            assert!(std::time::Instant::now() < deadline, "frames never arrived");
            thread::sleep(Duration::from_millis(1));
        }
        let got = seen.lock().unwrap();
        assert!(got.iter().all(|(dest, _, b)| *dest == 2 && b[0] == batch));
        let seqs: Vec<u32> = got.iter().map(|(_, p, _)| p.seq).collect();
        assert_eq!(seqs.len(), 4);
    }

    #[test]
    fn same_worker_pushes_skip_the_wire() {
        let (deliver, seen) = collecting_deliver();
        let metrics = MetricsRegistry::new();
        let t = TcpTransport::loopback(2, &TransportConfig::tcp(), Arc::clone(&metrics), deliver)
            .unwrap();
        let slice = Slice::new(vec![big_batch(1, 10)]);
        t.send(1, 1, ChannelAddr::new(0, 0), TaskName::new(0, 0, 0), &slice).unwrap();
        // Delivered synchronously, and no wire counters moved.
        assert_eq!(seen.lock().unwrap().len(), 1);
        assert!(metrics.snapshot(Duration::ZERO).transport_peers.is_empty());
    }

    #[test]
    fn failed_peer_rejects_sends_with_typed_error() {
        let (deliver, _) = collecting_deliver();
        let t = TcpTransport::loopback(2, &TransportConfig::tcp(), MetricsRegistry::new(), deliver)
            .unwrap();
        t.fail_peer(1);
        let empty = Slice::new(vec![]);
        let err = t.send(0, 1, ChannelAddr::new(0, 0), TaskName::new(0, 0, 0), &empty);
        assert!(matches!(err, Err(QuokkaError::WorkerFailed(1))));
        // Unrelated peers still work.
        t.send(1, 0, ChannelAddr::new(0, 0), TaskName::new(0, 0, 0), &empty).unwrap();
    }

    #[test]
    fn corrupt_frames_drop_the_connection_not_the_process() {
        let (deliver, seen) = collecting_deliver();
        let t = TcpTransport::loopback(2, &TransportConfig::tcp(), MetricsRegistry::new(), deliver)
            .unwrap();
        // Raw connections spraying garbage at the listener must each be torn
        // down without affecting real lanes: a malformed frame (a typed
        // decode error), and a prefix claiming ~1 GiB followed by a few
        // bytes and EOF (read as it arrives, never zero-filled up front).
        let mut rogue = TcpStream::connect(t.local_addr()).unwrap();
        rogue.write_all(&8u32.to_be_bytes()).unwrap();
        rogue.write_all(&[0xFF; 8]).unwrap();
        rogue.flush().unwrap();
        let mut liar = TcpStream::connect(t.local_addr()).unwrap();
        liar.write_all(&(wire::MAX_FRAME_BYTES - 1).to_be_bytes()).unwrap();
        liar.write_all(b"few").unwrap();
        drop(liar);
        let slice = Slice::new(vec![big_batch(3, 5)]);
        t.send(0, 1, ChannelAddr::new(0, 0), TaskName::new(0, 0, 9), &slice).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while seen.lock().unwrap().is_empty() {
            assert!(std::time::Instant::now() < deadline, "legit frame never arrived");
            thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(seen.lock().unwrap()[0].1, TaskName::new(0, 0, 9));
    }

    /// The acceptance-criteria backpressure test: with the delivery side
    /// stalled, producers block once the bounded queue (plus the frames a
    /// loopback socket can absorb) is full — the send-queue depth never
    /// exceeds its configured limit and nothing is buffered without bound.
    /// Releasing the consumer drains every frame without loss.
    #[test]
    fn bounded_queue_blocks_producers_and_drains_without_loss() {
        const QUEUE_FRAMES: usize = 2;
        const TOTAL: usize = 10;
        // ~8MB per frame: larger than anything the loopback socket buffers
        // can absorb (tcp_wmem caps at a few MB and a never-reading
        // receiver's window stays small), so the bounded queue is what
        // producers feel.
        const ROWS: usize = 1_000_000;

        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let delivered = Arc::new(Mutex::new(Vec::<(PartitionName, Vec<Batch>)>::new()));
        let deliver: DeliverFn = {
            let gate = Arc::clone(&gate);
            let delivered = Arc::clone(&delivered);
            Arc::new(move |_src, _dest, _consumer, producer, batches| {
                let (open, cv) = &*gate;
                let mut open = open.lock().unwrap();
                while !*open {
                    open = cv.wait(open).unwrap();
                }
                drop(open);
                delivered.lock().unwrap().push((producer, batches));
            })
        };
        let config = TransportConfig {
            send_queue_frames: QUEUE_FRAMES,
            ..quokka_common::TransportConfig::tcp()
        };
        let metrics = MetricsRegistry::new();
        let t =
            Arc::new(TcpTransport::loopback(2, &config, Arc::clone(&metrics), deliver).unwrap());
        // If an assertion below fails, the unwind must open the gate before
        // the transport's Drop joins its threads, or a recv thread parked
        // in the stalled deliver callback would deadlock the teardown.
        struct GateOpener(Arc<(Mutex<bool>, Condvar)>);
        impl Drop for GateOpener {
            fn drop(&mut self) {
                let (open, cv) = &*self.0;
                *open.lock().unwrap() = true;
                cv.notify_all();
            }
        }
        let opener = GateOpener(Arc::clone(&gate));

        let completed = Arc::new(AtomicU64::new(0));
        let producer = {
            let t = Arc::clone(&t);
            let completed = Arc::clone(&completed);
            thread::spawn(move || {
                for seq in 0..TOTAL as u32 {
                    let slice = Slice::new(vec![big_batch(seq as i64, ROWS)]);
                    t.send(0, 1, ChannelAddr::new(2, 0), TaskName::new(1, 0, seq), &slice).unwrap();
                    completed.fetch_add(1, Ordering::SeqCst);
                }
            })
        };

        // With the consumer stalled, the producer must wedge well short of
        // TOTAL: the queue holds QUEUE_FRAMES, the send thread one more,
        // and the socket a bounded few. Wait until progress stops.
        let mut last = u64::MAX;
        let mut stable = 0;
        for _ in 0..500 {
            let now = completed.load(Ordering::SeqCst);
            stable = if now == last { stable + 1 } else { 0 };
            last = now;
            if stable >= 20 {
                break;
            }
            thread::sleep(Duration::from_millis(5));
        }
        assert!(
            last < TOTAL as u64,
            "producer never blocked: all {TOTAL} sends completed with the consumer stalled"
        );
        assert!(delivered.lock().unwrap().is_empty());

        // Release the consumer: everything drains, nothing is lost, and
        // the recorded queue high-water mark respected the bound.
        drop(opener);
        producer.join().unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(20);
        while delivered.lock().unwrap().len() < TOTAL {
            assert!(std::time::Instant::now() < deadline, "frames lost after release");
            thread::sleep(Duration::from_millis(2));
        }
        let got = delivered.lock().unwrap();
        let mut seqs: Vec<u32> = got.iter().map(|(p, _)| p.seq).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (0..TOTAL as u32).collect::<Vec<_>>());
        for (p, batches) in got.iter() {
            assert_eq!(batches[0], big_batch(p.seq as i64, ROWS), "frame {p} corrupted");
        }
        let snap = metrics.snapshot(Duration::ZERO);
        let peer = snap.transport_peers.iter().find(|s| s.peer == 1).unwrap();
        assert_eq!(peer.frames_sent, TOTAL as u64);
        assert!(
            peer.send_queue_peak <= QUEUE_FRAMES as u64 + 1,
            "queue depth {} exceeded its bound {}",
            peer.send_queue_peak,
            QUEUE_FRAMES
        );
    }

    #[test]
    fn push_frame_roundtrip() {
        let slice = Slice::new(vec![big_batch(42, 17)]);
        let header = PushHeader {
            source: 3,
            destination: 5,
            consumer: ChannelAddr::new(2, 1),
            producer: TaskName::new(1, 4, 9),
        };
        let mut frame = header.encode();
        frame.extend_from_slice(slice.payload());
        let (got, payload) = PushHeader::decode(&frame).unwrap();
        assert_eq!(got, header);
        assert_eq!(payload, &slice.payload()[..], "the frame body is the slice's payload");
        assert_eq!(wire::decode_partition(payload).unwrap(), slice.batches());
        // Truncated and mis-tagged frames are typed errors.
        assert!(PushHeader::decode(&frame[..10]).is_err());
        assert!(wire::decode_partition(&payload[..payload.len() - 1]).is_err());
        let mut bad = frame.clone();
        bad[0] = 99;
        assert!(PushHeader::decode(&bad).is_err());
    }
}
