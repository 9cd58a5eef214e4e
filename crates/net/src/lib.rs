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
//!   the network cost model: a push between different workers charges its
//!   slice's encoded payload to the network path and to the `shuffle_bytes`
//!   metric. Delivery is routed through a [`transport::Transport`] backend.
//! * [`transport`] — the [`transport::Transport`] trait and the default
//!   in-process backend ([`transport::InprocTransport`]), which hands the
//!   slice's batches over without touching its payload.
//! * [`tcp`] — the socket backend ([`tcp::TcpTransport`]): each push is a
//!   small header plus the slice's payload, written as one length-prefixed
//!   frame by one send thread behind a bounded queue per peer
//!   (backpressure), and decoded by a recv loop per connection. Also the
//!   substrate for multi-process workers.
//!
//! A slice ([`quokka_batch::Slice`]) is encoded once, by its producer; no
//! push encodes anything.

pub mod flight;
pub mod plane;
pub mod tcp;
pub mod transport;

pub use flight::{ArrivalHook, FlightServer, SliceKey};
pub use plane::DataPlane;
pub use tcp::{DeliverFn, TcpTransport};
pub use transport::{InprocTransport, Transport};
