//! The cluster-wide data plane: routing pushes between workers.
//!
//! `DataPlane` owns the *policy* of a push — destination liveness, chaos
//! injection, network cost charging, shuffle accounting — and delegates the
//! actual delivery to a pluggable [`Transport`] backend: the in-process
//! [`InprocTransport`] by default, or the socket-backed
//! [`TcpTransport`] when configured with
//! [`TransportKind::Tcp`]. Everything layered on top (chaos suites, retry
//! loops, recovery) is backend-agnostic.

use crate::flight::FlightServer;
use crate::tcp::{DeliverFn, TcpTransport};
use crate::transport::{InprocTransport, Transport};
use quokka_batch::Slice;
use quokka_common::ids::{ChannelAddr, PartitionName, WorkerId};
use quokka_common::metrics::MetricsRegistry;
use quokka_common::{QuokkaError, Result, TransportConfig, TransportKind};
use quokka_storage::CostModel;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Per-destination chaos injection state: the next `drops` pushes to a
/// destination fail with a transient error, and queued `(count, delay)`
/// entries slow down upcoming pushes.
#[derive(Debug, Default)]
struct InjectedFaults {
    drops: AtomicU32,
    /// FIFO of `(remaining pushes, delay)` injections. A queue — not a
    /// single shared duration — so overlapping injections towards the same
    /// destination each keep their own delay instead of clobbering one
    /// another.
    delays: Mutex<VecDeque<(u32, Duration)>>,
}

impl InjectedFaults {
    fn take(counter: &AtomicU32) -> bool {
        counter.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1)).is_ok()
    }

    /// Enqueue `count` delayed pushes of `delay` each.
    fn push_delay(&self, count: u32, delay: Duration) {
        if count == 0 {
            return;
        }
        self.delays.lock().expect("delay queue poisoned").push_back((count, delay));
    }

    /// Consume one delayed push, if any are queued.
    fn take_delay(&self) -> Option<Duration> {
        let mut delays = self.delays.lock().expect("delay queue poisoned");
        let (remaining, delay) = delays.front_mut()?;
        let delay = *delay;
        *remaining -= 1;
        if *remaining == 0 {
            delays.pop_front();
        }
        Some(delay)
    }
}

/// Registry of every worker's flight server plus the network cost model.
#[derive(Debug)]
pub struct DataPlane {
    servers: Vec<Arc<FlightServer>>,
    faults: Vec<InjectedFaults>,
    cost: CostModel,
    metrics: Arc<MetricsRegistry>,
    transport: Box<dyn Transport>,
}

impl DataPlane {
    /// Create a data plane for `workers` workers on the default in-process
    /// transport.
    pub fn new(workers: u32, cost: CostModel, metrics: Arc<MetricsRegistry>) -> Self {
        Self::with_config(workers, cost, metrics, &TransportConfig::inproc())
            .expect("in-process transport construction is infallible")
    }

    /// Create a data plane with an explicit transport configuration:
    /// `TransportKind::Inproc` delivers pushes as direct inbox calls,
    /// `TransportKind::Tcp` routes every cross-worker push through real
    /// loopback sockets.
    pub fn with_config(
        workers: u32,
        cost: CostModel,
        metrics: Arc<MetricsRegistry>,
        config: &TransportConfig,
    ) -> Result<Self> {
        let servers: Vec<Arc<FlightServer>> =
            (0..workers).map(|w| Arc::new(FlightServer::new(w))).collect();
        let transport: Box<dyn Transport> = match config.kind {
            TransportKind::Inproc => Box::new(InprocTransport::new(servers.clone())),
            TransportKind::Tcp => {
                let deliver = Self::deliver_into(servers.clone());
                Box::new(TcpTransport::loopback(workers, config, Arc::clone(&metrics), deliver)?)
            }
        };
        Ok(Self::from_parts(servers, cost, metrics, transport))
    }

    /// Assemble a data plane from pre-built flight servers and an already
    /// wired transport. This is the process-mode entry point: a worker
    /// process builds its servers, binds a [`TcpTransport`], exchanges peer
    /// addresses through the GCS, and only then owns a routable plane.
    pub fn from_parts(
        servers: Vec<Arc<FlightServer>>,
        cost: CostModel,
        metrics: Arc<MetricsRegistry>,
        transport: Box<dyn Transport>,
    ) -> Self {
        DataPlane {
            faults: (0..servers.len()).map(|_| InjectedFaults::default()).collect(),
            servers,
            cost,
            metrics,
            transport,
        }
    }

    /// The delivery callback a socket transport needs: deliver every
    /// reassembled frame straight into the destination worker's inbox,
    /// running its arrival hook. Fire-and-forget — a push racing a kill is
    /// dropped here, exactly the slice loss lineage replay repairs.
    pub fn deliver_into(inboxes: Vec<Arc<FlightServer>>) -> DeliverFn {
        Arc::new(move |_source, destination, consumer, producer, batches| {
            if let Some(server) = inboxes.get(destination as usize) {
                let _ = server.deliver(consumer, producer, batches);
            }
        })
    }

    /// Which transport backend delivers pushes ("inproc" or "tcp").
    pub fn transport_kind(&self) -> &'static str {
        self.transport.kind()
    }

    /// Chaos injection: make the next `count` pushes towards `destination`
    /// fail with a retryable [`QuokkaError::Transient`] error.
    pub fn inject_drop_pushes(&self, destination: WorkerId, count: u32) {
        if let Some(f) = self.faults.get(destination as usize) {
            f.drops.fetch_add(count, Ordering::SeqCst);
        }
    }

    /// Chaos injection: delay the next `count` pushes towards `destination`
    /// by `delay` before delivering them. Injections queue up: overlapping
    /// calls for the same destination are applied in FIFO order, each with
    /// its own delay.
    pub fn inject_delay_pushes(&self, destination: WorkerId, count: u32, delay: Duration) {
        if let Some(f) = self.faults.get(destination as usize) {
            f.push_delay(count, delay);
        }
    }

    /// The flight server of one worker.
    pub fn server(&self, worker: WorkerId) -> Result<&Arc<FlightServer>> {
        self.servers
            .get(worker as usize)
            .ok_or_else(|| QuokkaError::NotFound(format!("worker {worker}")))
    }

    /// Push a slice from `source` worker to the worker hosting the consumer
    /// channel. Cross-worker pushes are charged to the network cost model
    /// and counted as shuffle bytes; local pushes are free, like the paper's
    /// same-machine flight transfers. Delivery itself is the transport's
    /// job: synchronous for `inproc`, queued onto the peer's send lane for
    /// `tcp`.
    pub fn push(
        &self,
        source: WorkerId,
        destination: WorkerId,
        consumer: ChannelAddr,
        producer: PartitionName,
        slice: &Slice,
    ) -> Result<()> {
        let server = self.server(destination)?;
        if server.is_failed() {
            return Err(QuokkaError::WorkerFailed(destination));
        }
        let faults = &self.faults[destination as usize];
        if let Some(delay) = faults.take_delay() {
            std::thread::sleep(delay);
        }
        if InjectedFaults::take(&faults.drops) {
            return Err(QuokkaError::Transient(format!(
                "injected push drop towards worker {destination}"
            )));
        }
        if source != destination {
            // Charge what crosses the network: the slice's encoded payload
            // (compressed column encodings included), which is the frame
            // body a wire transport ships. The plain in-memory footprint is
            // recorded alongside so the encoded-vs-raw gap is observable
            // per edge.
            let (bytes, raw) = (slice.payload().len() as u64, slice.raw_bytes());
            self.cost.charge_network(bytes);
            self.metrics.add_shuffle_bytes(bytes, raw);
            self.metrics.add_shuffle_edge(producer.stage, consumer.stage, bytes, raw);
        }
        self.transport.send(source, destination, consumer, producer, slice)
    }

    /// Kill a worker: its flight server rejects all traffic and loses its
    /// inbox, and the transport tears down any connection state towards it.
    pub fn fail_worker(&self, worker: WorkerId) -> Result<()> {
        self.server(worker)?.fail();
        self.transport.fail_peer(worker);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quokka_batch::{Batch, Column, DataType, Schema};
    use quokka_common::ids::TaskName;

    fn plane() -> DataPlane {
        DataPlane::new(3, CostModel::free(), MetricsRegistry::new())
    }

    fn batch() -> Batch {
        Batch::try_new(
            Schema::from_pairs(&[("x", DataType::Int64)]),
            vec![Column::Int64(vec![1, 2, 3])],
        )
        .unwrap()
    }

    fn slice() -> Slice {
        Slice::new(vec![batch()])
    }

    #[test]
    fn push_routes_to_destination_server() {
        let p = plane();
        assert_eq!(p.transport_kind(), "inproc");
        let consumer = ChannelAddr::new(1, 2);
        let producer = TaskName::new(0, 0, 0);
        p.push(0, 2, consumer, producer, &slice()).unwrap();
        assert!(p.server(2).unwrap().has_slice(consumer, producer));
        assert!(!p.server(0).unwrap().has_slice(consumer, producer));
        assert!(p.server(9).is_err());
    }

    #[test]
    fn cross_worker_pushes_count_as_shuffle_bytes() {
        let metrics = MetricsRegistry::new();
        let p = DataPlane::new(2, CostModel::free(), Arc::clone(&metrics));
        let consumer = ChannelAddr::new(1, 0);
        p.push(0, 0, consumer, TaskName::new(0, 0, 0), &slice()).unwrap();
        let local_only = metrics.snapshot(std::time::Duration::ZERO).shuffle_bytes;
        assert_eq!(local_only, 0, "local pushes are not shuffled over the network");
        p.push(0, 1, consumer, TaskName::new(0, 0, 1), &slice()).unwrap();
        let snap = metrics.snapshot(std::time::Duration::ZERO);
        assert_eq!(snap.shuffle_bytes, slice().payload().len() as u64);
        assert_eq!(snap.shuffle_raw_bytes, batch().byte_size() as u64);
        assert_eq!(snap.shuffle_edges.len(), 1);
        assert_eq!(snap.shuffle_edges[0].bytes, snap.shuffle_bytes);
        assert_eq!(snap.shuffle_edges[0].raw_bytes, snap.shuffle_raw_bytes);
    }

    #[test]
    fn injected_drops_and_delays_are_consumed_then_clear() {
        let p = plane();
        let consumer = ChannelAddr::new(1, 0);
        p.inject_drop_pushes(2, 2);
        for _ in 0..2 {
            let err = p.push(0, 2, consumer, TaskName::new(0, 0, 0), &slice());
            assert!(matches!(err, Err(QuokkaError::Transient(_))));
            assert!(err.unwrap_err().is_retryable());
        }
        // Budget consumed: pushes flow again, and other destinations were
        // never affected.
        p.push(0, 2, consumer, TaskName::new(0, 0, 0), &slice()).unwrap();
        p.push(0, 1, consumer, TaskName::new(0, 0, 1), &slice()).unwrap();

        p.inject_delay_pushes(1, 1, Duration::from_micros(50));
        let start = std::time::Instant::now();
        p.push(0, 1, consumer, TaskName::new(0, 0, 2), &slice()).unwrap();
        assert!(start.elapsed() >= Duration::from_micros(50));
    }

    #[test]
    fn overlapping_delay_injections_queue_instead_of_clobbering() {
        // Regression test: the delay duration used to live in one shared
        // cell per destination, so a second injection overwrote the first.
        let f = InjectedFaults::default();
        f.push_delay(2, Duration::from_micros(100));
        f.push_delay(1, Duration::from_micros(7));
        assert_eq!(f.take_delay(), Some(Duration::from_micros(100)));
        assert_eq!(f.take_delay(), Some(Duration::from_micros(100)));
        assert_eq!(f.take_delay(), Some(Duration::from_micros(7)));
        assert_eq!(f.take_delay(), None);
        f.push_delay(0, Duration::from_micros(9));
        assert_eq!(f.take_delay(), None, "zero-count injections are ignored");

        // And end-to-end: both injections apply with their own budgets.
        let p = plane();
        let consumer = ChannelAddr::new(1, 0);
        p.inject_delay_pushes(1, 1, Duration::from_micros(300));
        p.inject_delay_pushes(1, 1, Duration::from_micros(50));
        let start = std::time::Instant::now();
        p.push(0, 1, consumer, TaskName::new(0, 0, 0), &slice()).unwrap();
        p.push(0, 1, consumer, TaskName::new(0, 0, 1), &slice()).unwrap();
        assert!(start.elapsed() >= Duration::from_micros(350));
        // The queue is drained; a third push is not delayed.
        let start = std::time::Instant::now();
        p.push(0, 1, consumer, TaskName::new(0, 0, 2), &slice()).unwrap();
        assert!(start.elapsed() < Duration::from_micros(300));
    }

    #[test]
    fn failed_worker_rejects_pushes_and_leaves_cluster() {
        let p = plane();
        p.fail_worker(1).unwrap();
        let alive: Vec<bool> = (0..3).map(|w| !p.server(w).unwrap().is_failed()).collect();
        assert_eq!(alive, vec![true, false, true]);
        let err = p.push(0, 1, ChannelAddr::new(1, 0), TaskName::new(0, 0, 0), &Slice::new(vec![]));
        assert!(matches!(err, Err(QuokkaError::WorkerFailed(1))));
        p.push(0, 2, ChannelAddr::new(1, 0), TaskName::new(0, 0, 0), &Slice::new(vec![])).unwrap();
    }

    #[test]
    fn tcp_plane_delivers_cross_worker_pushes_over_the_wire() {
        let metrics = MetricsRegistry::new();
        let p = DataPlane::with_config(
            3,
            CostModel::free(),
            Arc::clone(&metrics),
            &TransportConfig::tcp(),
        )
        .unwrap();
        assert_eq!(p.transport_kind(), "tcp");
        let consumer = ChannelAddr::new(1, 2);
        let producer = TaskName::new(0, 1, 0);
        p.push(0, 2, consumer, producer, &slice()).unwrap();
        // Delivery is asynchronous on the wire: poll the inbox.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !p.server(2).unwrap().has_slice(consumer, producer) {
            assert!(std::time::Instant::now() < deadline, "tcp push never arrived");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(p.server(2).unwrap().peek(consumer, producer).unwrap(), vec![batch()]);
        // Shuffle accounting and per-peer wire stats both observed it.
        let snap = metrics.snapshot(Duration::ZERO);
        assert_eq!(snap.shuffle_bytes, slice().payload().len() as u64);
        let peer = snap.transport_peers.iter().find(|s| s.peer == 2).expect("wire stats");
        assert_eq!(peer.frames_sent, 1);
        assert!(peer.bytes_sent > 0);

        // Failing a worker tears down its lane and rejects further pushes.
        p.fail_worker(2).unwrap();
        let err = p.push(0, 2, consumer, TaskName::new(0, 1, 1), &slice());
        assert!(matches!(err, Err(QuokkaError::WorkerFailed(2))));
    }
}
