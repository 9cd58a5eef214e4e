//! The Quokka distributed pipelined query engine with write-ahead lineage.
//!
//! This crate is the paper's contribution plus its immediate runtime: a
//! push-based, dynamically scheduled, pipelined query engine executing over
//! a simulated cluster, with intra-query fault tolerance provided by
//! **write-ahead lineage** (Algorithm 1) and **pipeline-parallel recovery**
//! (Algorithm 2), alongside the baseline strategies the paper compares
//! against (restart, spooling, checkpointing) and the baseline execution
//! modes (stagewise/blocking execution, static task dependencies).
//!
//! Module map:
//!
//! * [`layout`] — how a compiled [`StageGraph`](quokka_plan::stage::StageGraph)
//!   is laid out onto a cluster: channels per stage, initial worker
//!   placement, input-split assignment and the watermark indexing used by
//!   the lineage naming scheme.
//! * [`worker`] — the TaskManager side: each worker runs one thread per
//!   stage, executing Algorithm 1 for the channels currently assigned to it
//!   and serving replay requests during recovery.
//! * [`wake`] — the per-thread wakeups those threads and the coordinator
//!   wait on: commits, replays, wire arrivals and the recovery barrier
//!   notify them, and the idle backoff only bounds the wait.
//! * [`recovery`] — the coordinator side: heartbeat-based failure
//!   detection with suspicion, per-query deadlines, and the Algorithm 2
//!   reconciliation that rewinds lost channels and schedules replays.
//! * [`chaos`] — the chaos engine: applies a deterministic
//!   [`ChaosPlan`](quokka_common::ChaosPlan) (kills, suspicions, lost
//!   backups, dropped/delayed pushes, stragglers) at counter-based trigger
//!   points.
//! * [`runtime`] — [`QueryRunner`]: wires the GCS,
//!   data plane, storage and threads together and runs one query under an
//!   [`EngineConfig`](quokka_common::EngineConfig). Execution is streaming:
//!   [`QueryRunner::stream`] returns a [`BatchStream`] that yields result
//!   batches as the sink stage commits them, and
//!   [`QueryRunner::run`] is the blocking convenience that drains it into a
//!   single batch plus [`QueryMetrics`](quokka_common::QueryMetrics).
//! * [`stream`] — [`BatchStream`]: the consuming end of a running query,
//!   including the replay-deduplication and restart semantics that make
//!   incremental delivery safe under fault injection.
//! * [`admission`] — [`AdmissionController`]: bounded concurrency, FIFO
//!   queueing and memory budgeting for concurrent serving; queries past the
//!   queue bound are rejected with a typed
//!   [`Overloaded`](quokka_common::QuokkaError::Overloaded) error instead
//!   of timing out.

pub mod admission;
pub mod chaos;
pub mod cluster;
pub mod layout;
pub mod recovery;
pub mod runtime;
pub mod stream;
pub mod wake;
pub mod worker;

pub use admission::{estimate_query_memory, AdmissionController, AdmissionPermit, AdmissionStats};
pub use chaos::ChaosEngine;
pub use cluster::{
    run_process_query, run_workerd, KillPlan, ProcessQuery, RemoteDurable, WorkerdOpts,
};
pub use layout::QueryLayout;
pub use runtime::{QueryOutcome, QueryRunner, StreamOptions};
pub use stream::BatchStream;
