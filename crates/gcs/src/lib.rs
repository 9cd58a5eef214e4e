//! The Global Control Store (GCS).
//!
//! The paper's Quokka implementation uses a Redis server on the head node as
//! a persistent, transactional data store (§IV-B): it holds the committed
//! lineage, the outstanding task table, the location of data partitions, and
//! control flags, and it is the *single source of truth* for the execution
//! state of the whole system. Individual TaskManagers are stateless and
//! poll the GCS; the coordinator performs fault recovery purely by editing
//! the GCS ("reconciliation", §IV-C).
//!
//! Here the task table `G.T` is part of the channel registry: a channel's
//! outstanding task is its `(next_seq, worker)`, so an Algorithm 1 commit
//! writes exactly a lineage record, a partition entry and a channel state.
//!
//! This crate provides:
//!
//! * [`tables`] — the [`Gcs`]: one typed table per key space (lineage,
//!   channels, partitions, replays, control flags) behind one lock.
//!   Algorithm 1's commit checks and applies everything under that lock. A
//!   configurable per-call latency models the head-node round trip.
//! * [`remote`] — the process-mode protocol: a pooled TCP client, the
//!   opcode/framing vocabulary, and the binary record codec with which a
//!   worker process's [`Gcs::remote`] handle sends each call to the driver's
//!   tables, mirroring how TaskManagers reach the head-node Redis over the
//!   network.
//!
//! The GCS is assumed not to fail (it lives on the head node, like the
//! paper's Redis), which is why committing lineage to it counts as
//! "persistent" in the write-ahead-lineage protocol.

#[cfg(test)]
mod codec_fuzz;
pub mod remote;
pub mod tables;

pub use remote::ControlClient;
pub use tables::{
    ChannelState, Gcs, LineageRecord, LineageSource, PartitionEntry, ReplayRequest, TaskCommit,
};
