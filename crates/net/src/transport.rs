//! The pluggable transport behind [`DataPlane`](crate::DataPlane).
//!
//! `DataPlane` keeps everything that is *policy* — fault injection, cost
//! charging, shuffle accounting, liveness — and delegates the actual
//! delivery of a push to a [`Transport`]. Two backends exist:
//!
//! * [`InprocTransport`] (default): delivery is a direct call into the
//!   destination worker's in-process [`FlightServer`] inbox. Zero copies,
//!   no sockets; the backend every unit test and chaos suite runs on.
//! * [`TcpTransport`](crate::tcp::TcpTransport): each slice's encoded
//!   payload is shipped over real TCP sockets with one send thread and a
//!   bounded queue per peer, so a stalled consumer blocks its producers.

use crate::flight::FlightServer;
use quokka_batch::Slice;
use quokka_common::ids::{ChannelAddr, PartitionName, WorkerId};
use quokka_common::Result;
use std::sync::Arc;

/// Delivery backend for the data plane.
///
/// `send` must deliver the slice into the destination worker's inbox —
/// either synchronously (in-process) or eventually (a wire transport may
/// return once the frame is queued; the engine's lineage gate plus the
/// pull-based repair path tolerate in-flight frames). Failures surface as
/// the engine's typed errors: [`QuokkaError::WorkerFailed`] for a dead
/// peer, [`QuokkaError::Transient`] for retryable delivery problems, so
/// the existing retry/suspicion machinery applies to every backend
/// unchanged.
///
/// [`QuokkaError::WorkerFailed`]: quokka_common::QuokkaError::WorkerFailed
/// [`QuokkaError::Transient`]: quokka_common::QuokkaError::Transient
pub trait Transport: Send + Sync + std::fmt::Debug {
    /// Deliver one pushed slice from `source` to `destination`.
    fn send(
        &self,
        source: WorkerId,
        destination: WorkerId,
        consumer: ChannelAddr,
        producer: PartitionName,
        slice: &Slice,
    ) -> Result<()>;

    /// Tear down any connection state towards a dead worker. Subsequent
    /// sends to it must fail with `WorkerFailed`.
    fn fail_peer(&self, worker: WorkerId);

    /// Short name for logs, metrics and bench output.
    fn kind(&self) -> &'static str;
}

/// The default in-process backend: a push is a method call on the
/// destination's [`FlightServer`].
pub struct InprocTransport {
    servers: Vec<Arc<FlightServer>>,
}

impl InprocTransport {
    pub fn new(servers: Vec<Arc<FlightServer>>) -> Self {
        InprocTransport { servers }
    }
}

impl std::fmt::Debug for InprocTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InprocTransport").field("workers", &self.servers.len()).finish()
    }
}

impl Transport for InprocTransport {
    fn send(
        &self,
        _source: WorkerId,
        destination: WorkerId,
        consumer: ChannelAddr,
        producer: PartitionName,
        slice: &Slice,
    ) -> Result<()> {
        // The plane validated the destination before delegating; a racing
        // kill still surfaces here as the server's own WorkerFailed.
        self.servers[destination as usize].push(consumer, producer, slice.batches().to_vec())
    }

    fn fail_peer(&self, _worker: WorkerId) {
        // No connections to tear down; the plane already failed the server.
    }

    fn kind(&self) -> &'static str {
        "inproc"
    }
}
