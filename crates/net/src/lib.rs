//! The data plane.
//!
//! In the paper's implementation every worker machine runs an Apache Arrow
//! Flight server; producer tasks push their output slices directly to the
//! flight servers of all downstream consumer channels (§IV-A). This crate
//! reproduces that push-based shuffle behind a pluggable transport:
//!
//! * [`flight::FlightServer`] — one worker's inbox of pushed partition
//!   slices, keyed by the consuming channel and the producing task. Killing
//!   a worker drops its inbox (those cached slices are part of what recovery
//!   must reconstruct — Fig. 5's pink boxes).
//! * [`plane::DataPlane`] — the cluster-wide registry of flight servers plus
//!   the network cost model: pushes between different workers are charged to
//!   the network path and to the `shuffle_bytes` metric. Delivery is routed
//!   through a [`transport::Transport`] backend.
//! * [`transport`] — the [`transport::Transport`] trait and the default
//!   in-process backend ([`transport::InprocTransport`]).
//! * [`tcp`] — the socket backend ([`tcp::TcpTransport`]): length-prefixed
//!   frames encoded into pooled byte slabs, one send thread and a bounded
//!   queue per peer (backpressure), a recv loop per connection. Also the
//!   substrate for multi-process workers.
//! * [`slab`] — the reusable byte-slab pool the TCP send path draws from,
//!   so steady-state shuffle traffic allocates nothing per push.

pub mod flight;
pub mod plane;
pub mod slab;
pub mod tcp;
pub mod transport;

pub use flight::{ArrivalHook, FlightServer, SliceKey};
pub use plane::DataPlane;
pub use slab::SlabPool;
pub use tcp::{DeliverFn, TcpTransport};
pub use transport::{InprocTransport, Transport};
