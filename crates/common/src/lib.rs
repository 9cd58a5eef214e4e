//! Shared foundations for the Quokka write-ahead-lineage query engine.
//!
//! This crate contains the vocabulary types used by every other crate in the
//! workspace:
//!
//! * [`ids`] — the `(stage, channel, sequence-number)` naming scheme the
//!   paper uses for tasks and their output partitions (§III-A of the paper),
//!   plus worker identifiers.
//! * [`error`] — the unified [`QuokkaError`] type and
//!   `Result` alias.
//! * [`config`] — cluster, engine, cost-model and failure-injection
//!   configuration.
//! * [`chaos`] — deterministic chaos plans: reproducible schedules of
//!   kills, suspicions, lost backups, dropped/delayed pushes and
//!   stragglers, the engine's one fault-injection API.
//! * [`retry`] — bounded exponential backoff with deterministic jitter,
//!   shared by every retry loop in the engine.
//! * [`metrics`] — counters collected during query execution (bytes spooled,
//!   bytes backed up, GCS transactions, recovery time, ...).
//! * [`rng`] — small deterministic pseudo-random-number helpers so every
//!   experiment and test is reproducible from a seed.
//!
//! Nothing in this crate knows about batches, plans or the distributed
//! runtime; it exists so the substrate crates (`quokka-batch`, `quokka-gcs`,
//! `quokka-storage`, `quokka-net`) do not depend on each other.

pub mod chaos;
pub mod config;
pub mod error;
pub mod ids;
pub mod metrics;
pub mod retry;
pub mod rng;

pub use chaos::{ChaosEvent, ChaosInjection, ChaosPlan, ChaosTrigger};
pub use config::{
    AdmissionConfig, ClusterConfig, CostModelConfig, EngineConfig, ExecutionMode, FaultStrategy,
    PlanCacheConfig, SchedulePolicy, TransportConfig, TransportKind,
};
pub use error::{QuokkaError, Result};
pub use ids::{ChannelAddr, ChannelId, PartitionName, SeqNo, StageId, TaskName, WorkerId};
pub use metrics::{MetricsRegistry, PeerWireStats, QueryMetrics};
pub use retry::{Backoff, RetryPolicy};
