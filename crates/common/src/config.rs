//! Configuration for the cluster simulation, the execution engine and the
//! fault-tolerance strategies.
//!
//! Every experiment in the paper is a point in this configuration space:
//!
//! * Fig. 6 / 11a compare `ExecutionMode::Pipelined + FaultStrategy::WriteAheadLineage`
//!   ("Quokka") against `ExecutionMode::Stagewise` ("SparkSQL-like") and
//!   `ExecutionMode::Pipelined + FaultStrategy::Spooling` ("Trino-like").
//! * Fig. 7 toggles [`ExecutionMode`].
//! * Fig. 8 toggles [`SchedulePolicy`].
//! * Fig. 9 toggles [`FaultStrategy`].
//! * Fig. 10 / 11b add a worker kill ([`ChaosPlan::kill_at_progress`]).

use crate::chaos::ChaosPlan;
use crate::error::{QuokkaError, Result};
use crate::retry::RetryPolicy;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// How stages are driven relative to one another.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ExecutionMode {
    /// All stages execute concurrently; a task's outputs can be consumed by
    /// downstream tasks as soon as their lineage is committed. This is the
    /// execution model the paper targets (§II-A).
    Pipelined,
    /// One stage runs to completion before the next starts, mimicking
    /// SparkSQL's bulk-synchronous model. Used as the "SparkSQL" comparator
    /// and in the Fig. 7 ablation.
    Stagewise,
}

/// How a task decides how many upstream outputs to consume (§II-A, Fig. 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SchedulePolicy {
    /// Dynamic task dependencies: each task greedily consumes every upstream
    /// output that is currently available (up to `max_inputs_per_task`),
    /// which is the simple strategy the paper evaluates.
    Dynamic {
        /// Upper bound on inputs bundled into a single task. The paper's
        /// strategy is effectively unbounded; the bound exists so a single
        /// task cannot starve the pipeline.
        max_inputs_per_task: u32,
    },
    /// Static lineage: every task consumes exactly `batch` upstream outputs
    /// (the last task of a channel may take fewer). Fig. 8 evaluates batch
    /// sizes 8 and 128.
    StaticBatch { batch: u32 },
}

impl SchedulePolicy {
    /// The paper's default dynamic strategy.
    pub const fn dynamic() -> Self {
        SchedulePolicy::Dynamic { max_inputs_per_task: 64 }
    }
}

/// Intra-query fault-tolerance strategy (Table I / §II-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultStrategy {
    /// No intra-query fault tolerance: a worker failure aborts the query and
    /// it is restarted from scratch on the surviving workers (the paper's
    /// "restart baseline", ~1.5x overhead for a failure at 50%).
    None,
    /// The paper's contribution: lineage is committed to the GCS before an
    /// output may be consumed; outputs are backed up (unreliably) on the
    /// producer's local disk; recovery is pipeline-parallel lineage replay.
    WriteAheadLineage,
    /// Trino-style spooling: every shuffle partition is durably written to
    /// the object store before downstream consumption. State variables are
    /// *not* persisted, so a failed stateful channel restarts from scratch
    /// (paper Fig. 2).
    Spooling,
    /// Periodic durable checkpoints of operator state in addition to
    /// spooling, as in Flink/Kafka-Streams. Included for the §V-C remarks.
    Checkpointing {
        /// Checkpoint every `interval_tasks` tasks per channel.
        interval_tasks: u32,
    },
}

impl FaultStrategy {
    /// Whether this strategy persists lineage (Table I row "Lineage").
    pub fn tracks_lineage(&self) -> bool {
        !matches!(self, FaultStrategy::None)
    }

    /// Whether shuffle partitions are durably spooled (Table I row "Spooling").
    pub fn spools(&self) -> bool {
        matches!(self, FaultStrategy::Spooling | FaultStrategy::Checkpointing { .. })
    }

    /// Whether operator state is checkpointed (Table I row "State Checkpoint").
    pub fn checkpoints_state(&self) -> bool {
        matches!(self, FaultStrategy::Checkpointing { .. })
    }

    /// Whether task outputs are backed up on the producer's local disk.
    pub fn upstream_backup(&self) -> bool {
        matches!(self, FaultStrategy::WriteAheadLineage)
    }

    /// Whether intra-query recovery is supported at all.
    pub fn supports_intra_query_recovery(&self) -> bool {
        !matches!(self, FaultStrategy::None)
    }
}

/// Bandwidth/latency model for the simulated data paths.
///
/// All costs are charged as real (scaled) sleeps by `quokka-storage` and
/// `quokka-net`, so differences in *bytes moved* between fault-tolerance
/// strategies translate into differences in wall-clock runtime with the same
/// shape the paper observes on a real cluster. Setting `time_scale` to zero
/// disables all simulated delays (useful in unit tests).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModelConfig {
    /// Network bandwidth per worker for shuffle pushes, bytes/second.
    pub network_bandwidth: f64,
    /// Fixed latency per network push.
    pub network_latency: Duration,
    /// Local instance-attached disk bandwidth (upstream backup), bytes/second.
    pub local_disk_bandwidth: f64,
    /// Fixed latency per local disk write.
    pub local_disk_latency: Duration,
    /// Durable object store (S3/HDFS stand-in) bandwidth, bytes/second.
    pub durable_bandwidth: f64,
    /// Fixed latency per durable PUT/GET request.
    pub durable_latency: Duration,
    /// Latency of one GCS operation (the head-node Redis round trip).
    pub gcs_latency: Duration,
    /// Multiplier applied to every simulated delay. `0.0` disables delays,
    /// `1.0` charges them at face value.
    pub time_scale: f64,
}

impl CostModelConfig {
    /// Cost model loosely calibrated to the paper's r6id instances:
    /// ~1.2 GB/s NVMe, ~10 Gb/s network, ~100 MB/s effective per-worker
    /// durable-store throughput with multi-millisecond request latency, and
    /// sub-millisecond GCS round trips.
    pub fn realistic() -> Self {
        CostModelConfig {
            network_bandwidth: 1.25e9,
            network_latency: Duration::from_micros(300),
            local_disk_bandwidth: 1.2e9,
            local_disk_latency: Duration::from_micros(80),
            durable_bandwidth: 100.0e6,
            durable_latency: Duration::from_millis(4),
            gcs_latency: Duration::from_micros(150),
            time_scale: 1.0,
        }
    }

    /// No simulated delays at all; used by unit tests and by callers that
    /// only care about correctness.
    pub fn zero() -> Self {
        CostModelConfig { time_scale: 0.0, ..Self::realistic() }
    }

    /// The realistic model with every delay scaled by `scale`. Benchmarks use
    /// small scales so a full TPC-H run completes quickly while preserving
    /// the *relative* cost of each data path.
    pub fn scaled(scale: f64) -> Self {
        CostModelConfig { time_scale: scale, ..Self::realistic() }
    }
}

impl Default for CostModelConfig {
    fn default() -> Self {
        Self::zero()
    }
}

/// Shape of the simulated cluster.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Number of worker machines. The paper evaluates 4, 16 and 32.
    pub workers: u32,
    /// Number of channels per data-parallel stage. The paper assigns one
    /// channel of every stage to each TaskManager, so this defaults to the
    /// worker count.
    pub channels_per_stage: u32,
    /// The first timeout of an idle TaskManager's wait for work; it doubles
    /// up to ~5ms while the thread stays idle. Work arriving ends the wait
    /// sooner.
    pub poll_interval: Duration,
    /// The longest wait between two supervision passes of the coordinator,
    /// which check worker heartbeats among other things.
    pub heartbeat_interval: Duration,
    /// How long a worker's heartbeat may stall before the failure detector
    /// *suspects* it and reconciles its channels onto other workers without
    /// killing it. Workers heartbeat every scheduling-loop iteration
    /// (sub-millisecond to a few ms), so one second is a very conservative
    /// default; chaos tests shrink it to exercise the suspicion path.
    pub suspicion_timeout: Duration,
}

impl ClusterConfig {
    /// A cluster with `workers` workers and one channel per worker per stage.
    pub fn with_workers(workers: u32) -> Self {
        ClusterConfig {
            workers,
            channels_per_stage: workers,
            poll_interval: Duration::from_micros(200),
            heartbeat_interval: Duration::from_millis(2),
            suspicion_timeout: Duration::from_secs(1),
        }
    }
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self::with_workers(4)
    }
}

/// Admission control for concurrent serving: how many queries may execute
/// at once, how many may wait, and how much memory the admitted set may
/// claim. The controller enforcing this lives in `quokka-engine`; a session
/// shares one controller across all of its clones, so the limits are
/// per-serving-process, not per-query.
///
/// The state machine per query is: **admit** (slots and memory available,
/// nobody queued ahead) → run; **queue** (FIFO, bounded by `max_queued`) →
/// admit when capacity frees up; **reject** (queue full) with a typed
/// [`QuokkaError::Overloaded`](crate::QuokkaError) — overload
/// degrades into fast, explicit rejection instead of unbounded queueing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AdmissionConfig {
    /// Maximum queries executing concurrently; `None` = unlimited (the
    /// default — admission becomes a no-op).
    pub max_concurrent: Option<u32>,
    /// Maximum queries waiting for admission once `max_concurrent` is
    /// saturated. An arrival finding the queue full is rejected.
    pub max_queued: u32,
    /// Total memory budget (bytes) across all admitted queries, compared
    /// against per-query estimates derived from catalog statistics; `None`
    /// = unlimited. A query whose estimate alone exceeds the budget is
    /// still admitted when nothing else runs (work-conserving), so a big
    /// query degrades to serial execution instead of starving forever.
    pub memory_budget_bytes: Option<u64>,
}

impl AdmissionConfig {
    /// No limits: every query is admitted immediately.
    pub const fn unlimited() -> Self {
        AdmissionConfig { max_concurrent: None, max_queued: 16, memory_budget_bytes: None }
    }

    /// Bound concurrent execution at `max_concurrent` with a wait queue of
    /// `max_queued`.
    pub const fn bounded(max_concurrent: u32, max_queued: u32) -> Self {
        AdmissionConfig {
            max_concurrent: Some(max_concurrent),
            max_queued,
            memory_budget_bytes: None,
        }
    }
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self::unlimited()
    }
}

/// Plan-cache sizing. The cache itself lives in the `quokka` facade (it
/// keys on normalized SQL text); this only configures it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlanCacheConfig {
    /// Whether `QuokkaSession::sql` consults the cache at all.
    pub enabled: bool,
    /// Maximum number of cached statement templates (LRU-evicted). Each
    /// template additionally holds a small bounded set of literal variants.
    pub capacity: usize,
}

impl PlanCacheConfig {
    pub const fn disabled() -> Self {
        PlanCacheConfig { enabled: false, capacity: 0 }
    }
}

impl Default for PlanCacheConfig {
    fn default() -> Self {
        PlanCacheConfig { enabled: true, capacity: 64 }
    }
}

/// Which wire carries shuffle pushes between workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TransportKind {
    /// Deliver pushes by calling straight into the destination worker's
    /// in-process inbox (the default; zero-copy, no sockets).
    Inproc,
    /// Ship pushes over real TCP sockets: each slice's encoded payload is
    /// sent by one dedicated thread per peer through a bounded queue, so a
    /// slow consumer back-pressures its producers.
    Tcp,
}

/// Transport data-plane tuning. Only read when [`TransportKind::Tcp`] is
/// selected; the in-process backend has no queues.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransportConfig {
    pub kind: TransportKind,
    /// Per-peer bounded send-queue capacity in frames. A producer pushing
    /// into a full queue blocks until the send thread drains it — this is
    /// the end-to-end backpressure bound.
    pub send_queue_frames: usize,
}

impl TransportConfig {
    /// The default in-process transport.
    pub const fn inproc() -> Self {
        TransportConfig { kind: TransportKind::Inproc, send_queue_frames: 32 }
    }

    /// The TCP transport with the default queue sizing.
    pub const fn tcp() -> Self {
        TransportConfig { kind: TransportKind::Tcp, ..Self::inproc() }
    }
}

impl Default for TransportConfig {
    fn default() -> Self {
        Self::inproc()
    }
}

/// Top-level engine configuration: one value of this type fully describes a
/// run of one query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineConfig {
    pub cluster: ClusterConfig,
    pub mode: ExecutionMode,
    pub schedule: SchedulePolicy,
    pub fault: FaultStrategy,
    pub cost: CostModelConfig,
    /// Faults to inject (empty for normal-execution experiments): kills,
    /// suspicions, lost backups, dropped or delayed pushes, stragglers. The
    /// paper's experiment kills a worker halfway through the query (§V-D):
    /// `ChaosPlan::kill_at_progress(worker, 0.5)`. See [`ChaosPlan`].
    pub chaos: ChaosPlan,
    /// Stall watchdog: if no task commits for this long the coordinator
    /// aborts the run with a diagnostic dump. The `QUOKKA_WATCHDOG_SECS`
    /// environment variable *overrides* this value (see
    /// [`EngineConfig::resolve_env`]); a malformed value is a hard
    /// configuration error, not a silent fallback.
    pub watchdog: Duration,
    /// Optional per-query deadline. When the query runs longer than this,
    /// the coordinator cancels it and the stream yields a typed
    /// [`QuokkaError::Timeout`].
    pub query_timeout: Option<Duration>,
    /// Backoff policy for every retry loop in the engine (task polling,
    /// result publication, replay requests).
    pub retry: RetryPolicy,
    /// Seed for any randomised decision (worker placement during recovery).
    pub seed: u64,
    /// Whether the rule-based logical optimizer rewrites plans before stage
    /// compilation (on by default; disable to execute plans exactly as
    /// written, e.g. for optimized-vs-naive parity and shuffle-volume
    /// comparisons).
    pub optimize: bool,
    /// Admission control limits for concurrent serving (unlimited by
    /// default, so single-query workloads are unaffected).
    pub admission: AdmissionConfig,
    /// Plan-cache sizing for `QuokkaSession::sql` (enabled by default).
    pub plan_cache: PlanCacheConfig,
    /// Which transport carries shuffle pushes, and its send-queue sizing.
    /// The `QUOKKA_TRANSPORT` environment variable (`inproc` | `tcp`)
    /// overrides the kind (see [`EngineConfig::resolve_env`]).
    pub transport: TransportConfig,
}

impl EngineConfig {
    /// Quokka's defaults: pipelined execution, dynamic task dependencies,
    /// write-ahead lineage, no simulated delays, no injected failures.
    pub fn quokka(workers: u32) -> Self {
        EngineConfig {
            cluster: ClusterConfig::with_workers(workers),
            mode: ExecutionMode::Pipelined,
            schedule: SchedulePolicy::dynamic(),
            fault: FaultStrategy::WriteAheadLineage,
            cost: CostModelConfig::zero(),
            chaos: ChaosPlan::new(),
            watchdog: Duration::from_secs(120),
            query_timeout: None,
            retry: RetryPolicy::engine_default(),
            seed: 0x5eed,
            optimize: true,
            admission: AdmissionConfig::default(),
            plan_cache: PlanCacheConfig::default(),
            transport: TransportConfig::default(),
        }
    }

    /// The SparkSQL-like comparator: stagewise execution with upstream
    /// backup and data-parallel recovery.
    pub fn sparklike(workers: u32) -> Self {
        EngineConfig {
            mode: ExecutionMode::Stagewise,
            fault: FaultStrategy::WriteAheadLineage,
            ..Self::quokka(workers)
        }
    }

    /// The Trino-like comparator: pipelined execution with durable spooling
    /// of shuffle partitions and static task dependencies.
    pub fn trinolike(workers: u32) -> Self {
        EngineConfig {
            mode: ExecutionMode::Pipelined,
            schedule: SchedulePolicy::StaticBatch { batch: 16 },
            fault: FaultStrategy::Spooling,
            ..Self::quokka(workers)
        }
    }

    /// Builder-style helpers.
    pub fn with_mode(mut self, mode: ExecutionMode) -> Self {
        self.mode = mode;
        self
    }
    pub fn with_schedule(mut self, schedule: SchedulePolicy) -> Self {
        self.schedule = schedule;
        self
    }
    pub fn with_fault(mut self, fault: FaultStrategy) -> Self {
        self.fault = fault;
        self
    }
    pub fn with_cost(mut self, cost: CostModelConfig) -> Self {
        self.cost = cost;
        self
    }
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
    pub fn with_channels_per_stage(mut self, channels: u32) -> Self {
        self.cluster.channels_per_stage = channels;
        self
    }
    pub fn with_optimize(mut self, optimize: bool) -> Self {
        self.optimize = optimize;
        self
    }
    pub fn with_chaos(mut self, plan: ChaosPlan) -> Self {
        self.chaos = plan;
        self
    }
    pub fn with_watchdog(mut self, watchdog: Duration) -> Self {
        self.watchdog = watchdog;
        self
    }
    pub fn with_query_timeout(mut self, timeout: Duration) -> Self {
        self.query_timeout = Some(timeout);
        self
    }
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }
    pub fn with_suspicion_timeout(mut self, timeout: Duration) -> Self {
        self.cluster.suspicion_timeout = timeout;
        self
    }
    pub fn with_admission(mut self, admission: AdmissionConfig) -> Self {
        self.admission = admission;
        self
    }
    pub fn with_plan_cache(mut self, plan_cache: PlanCacheConfig) -> Self {
        self.plan_cache = plan_cache;
        self
    }
    pub fn with_transport(mut self, transport: TransportConfig) -> Self {
        self.transport = transport;
        self
    }

    /// Fingerprint of the configuration fields that influence how a SQL
    /// statement is *planned* (as opposed to how the plan is executed).
    /// Two configurations with equal fingerprints produce identical lowered
    /// logical plans for the same statement and catalog, so a plan cached
    /// under one may be reused under the other. Today the only such field
    /// is [`optimize`](EngineConfig::optimize): everything else (cluster
    /// shape, fault strategy, chaos, cost model) affects stage layout and
    /// runtime behaviour, which are derived per-execution from the logical
    /// plan. Catalog contents are covered separately by the catalog
    /// generation in the cache key.
    pub fn planning_fingerprint(&self) -> u64 {
        self.optimize as u64
    }

    /// Apply environment overrides, rejecting malformed values loudly.
    ///
    /// `QUOKKA_WATCHDOG_SECS` overrides [`EngineConfig::watchdog`]. Before
    /// this existed the variable was parsed with `.ok()` deep inside the
    /// coordinator, so `QUOKKA_WATCHDOG_SECS=five` silently fell back to
    /// the default — the one failure mode a watchdog must not have. The
    /// runtime calls this once per query, before any worker is spawned, so
    /// a bad override fails the query with [`QuokkaError::Config`] instead
    /// of being ignored.
    pub fn resolve_env(&mut self) -> Result<()> {
        self.resolve_env_from(|name| std::env::var(name).ok())
    }

    /// [`resolve_env`](Self::resolve_env) over an arbitrary variable
    /// lookup, so callers (and tests) can resolve overrides without
    /// touching the process environment.
    pub fn resolve_env_from(&mut self, lookup: impl Fn(&str) -> Option<String>) -> Result<()> {
        if let Some(raw) = lookup("QUOKKA_WATCHDOG_SECS") {
            let secs: u64 = raw.parse().map_err(|_| {
                QuokkaError::config(format!(
                    "QUOKKA_WATCHDOG_SECS must be a whole number of seconds, got {raw:?}"
                ))
            })?;
            if secs == 0 {
                return Err(QuokkaError::config(
                    "QUOKKA_WATCHDOG_SECS must be positive (unset it to use the default)",
                ));
            }
            self.watchdog = Duration::from_secs(secs);
        }
        if let Some(raw) = lookup("QUOKKA_TRANSPORT") {
            self.transport.kind = match raw.as_str() {
                "inproc" => TransportKind::Inproc,
                "tcp" => TransportKind::Tcp,
                other => {
                    return Err(QuokkaError::config(format!(
                        "QUOKKA_TRANSPORT must be 'inproc' or 'tcp', got {other:?}"
                    )))
                }
            };
        }
        Ok(())
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self::quokka(4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_strategy_capability_matrix_matches_table1() {
        // Table I of the paper, restricted to the strategies we implement.
        let wal = FaultStrategy::WriteAheadLineage;
        assert!(wal.tracks_lineage());
        assert!(!wal.spools());
        assert!(!wal.checkpoints_state());
        assert!(wal.upstream_backup());

        let spool = FaultStrategy::Spooling;
        assert!(spool.tracks_lineage());
        assert!(spool.spools());
        assert!(!spool.checkpoints_state());

        let ckpt = FaultStrategy::Checkpointing { interval_tasks: 8 };
        assert!(ckpt.spools());
        assert!(ckpt.checkpoints_state());

        let none = FaultStrategy::None;
        assert!(!none.supports_intra_query_recovery());
    }

    #[test]
    fn default_configs_are_consistent() {
        let q = EngineConfig::quokka(16);
        assert_eq!(q.cluster.workers, 16);
        assert_eq!(q.cluster.channels_per_stage, 16);
        assert_eq!(q.mode, ExecutionMode::Pipelined);
        assert_eq!(q.fault, FaultStrategy::WriteAheadLineage);

        let s = EngineConfig::sparklike(4);
        assert_eq!(s.mode, ExecutionMode::Stagewise);

        let t = EngineConfig::trinolike(4);
        assert_eq!(t.fault, FaultStrategy::Spooling);
    }

    #[test]
    fn cost_model_zero_disables_delays() {
        let z = CostModelConfig::zero();
        assert_eq!(z.time_scale, 0.0);
        let r = CostModelConfig::realistic();
        assert!(r.durable_bandwidth < r.local_disk_bandwidth);
        assert!(r.durable_latency > r.local_disk_latency);
    }

    #[test]
    fn builder_helpers_compose() {
        let cfg = EngineConfig::quokka(4)
            .with_mode(ExecutionMode::Stagewise)
            .with_schedule(SchedulePolicy::StaticBatch { batch: 8 })
            .with_fault(FaultStrategy::None)
            .with_chaos(ChaosPlan::kill_at_progress(2, 0.5))
            .with_seed(7);
        assert_eq!(cfg.mode, ExecutionMode::Stagewise);
        assert_eq!(cfg.schedule, SchedulePolicy::StaticBatch { batch: 8 });
        assert_eq!(cfg.fault, FaultStrategy::None);
        assert_eq!(cfg.chaos.injections.len(), 1);
        assert_eq!(cfg.seed, 7);
    }

    #[test]
    fn robustness_builders_compose() {
        let cfg = EngineConfig::quokka(4)
            .with_chaos(ChaosPlan::kill_at_commits(1, 5))
            .with_watchdog(Duration::from_secs(30))
            .with_query_timeout(Duration::from_secs(10))
            .with_suspicion_timeout(Duration::from_millis(250))
            .with_retry(RetryPolicy { max_attempts: 3, ..RetryPolicy::engine_default() });
        assert_eq!(cfg.chaos.injections.len(), 1);
        assert_eq!(cfg.watchdog, Duration::from_secs(30));
        assert_eq!(cfg.query_timeout, Some(Duration::from_secs(10)));
        assert_eq!(cfg.cluster.suspicion_timeout, Duration::from_millis(250));
        assert_eq!(cfg.retry.max_attempts, 3);
        // Defaults: no deadline, 120s watchdog, conservative suspicion.
        let d = EngineConfig::quokka(2);
        assert_eq!(d.query_timeout, None);
        assert_eq!(d.watchdog, Duration::from_secs(120));
        assert!(d.chaos.is_empty());
    }

    #[test]
    fn serving_config_defaults_and_builders() {
        let d = EngineConfig::quokka(4);
        assert_eq!(d.admission, AdmissionConfig::unlimited());
        assert!(d.plan_cache.enabled);
        assert!(d.plan_cache.capacity > 0);

        let cfg = EngineConfig::quokka(4)
            .with_admission(AdmissionConfig::bounded(2, 8))
            .with_plan_cache(PlanCacheConfig::disabled());
        assert_eq!(cfg.admission.max_concurrent, Some(2));
        assert_eq!(cfg.admission.max_queued, 8);
        assert!(!cfg.plan_cache.enabled);

        // The planning fingerprint tracks exactly the fields that change
        // the lowered logical plan: `optimize` today, nothing else.
        let base = EngineConfig::quokka(4);
        assert_eq!(base.planning_fingerprint(), base.clone().with_seed(9).planning_fingerprint());
        assert_eq!(base.planning_fingerprint(), EngineConfig::trinolike(16).planning_fingerprint());
        assert_ne!(
            base.planning_fingerprint(),
            base.clone().with_optimize(false).planning_fingerprint()
        );
    }

    #[test]
    fn transport_config_defaults_and_env_override() {
        let d = EngineConfig::quokka(4);
        assert_eq!(d.transport.kind, TransportKind::Inproc);
        assert!(d.transport.send_queue_frames > 0);

        let cfg = EngineConfig::quokka(4).with_transport(TransportConfig::tcp());
        assert_eq!(cfg.transport.kind, TransportKind::Tcp);
        assert_eq!(cfg.transport.send_queue_frames, TransportConfig::inproc().send_queue_frames);

        // Env override: valid values switch the kind, garbage is rejected
        // loudly. The overrides come from a map, not the process
        // environment, so sibling tests cannot observe them.
        let mut cfg = EngineConfig::quokka(2);
        cfg.resolve_env_from(env(&[("QUOKKA_TRANSPORT", "tcp")])).expect("valid override");
        assert_eq!(cfg.transport.kind, TransportKind::Tcp);

        cfg.resolve_env_from(env(&[("QUOKKA_TRANSPORT", "inproc")])).expect("valid override");
        assert_eq!(cfg.transport.kind, TransportKind::Inproc);

        let err = cfg
            .resolve_env_from(env(&[("QUOKKA_TRANSPORT", "carrier-pigeon")]))
            .expect_err("malformed override must be rejected");
        assert!(matches!(err, QuokkaError::Config(_)), "got {err}");
        assert!(err.to_string().contains("QUOKKA_TRANSPORT"));

        let mut fresh = EngineConfig::quokka(2);
        fresh.resolve_env_from(env(&[])).expect("no override");
        assert_eq!(fresh.transport.kind, TransportKind::Inproc);
    }

    #[test]
    fn watchdog_env_override_is_validated_loudly() {
        let mut cfg = EngineConfig::quokka(2);
        cfg.resolve_env_from(env(&[("QUOKKA_WATCHDOG_SECS", "45")])).expect("valid override");
        assert_eq!(cfg.watchdog, Duration::from_secs(45));

        let err = cfg
            .resolve_env_from(env(&[("QUOKKA_WATCHDOG_SECS", "five")]))
            .expect_err("malformed override must be rejected");
        assert!(matches!(err, QuokkaError::Config(_)), "got {err}");
        assert!(err.to_string().contains("QUOKKA_WATCHDOG_SECS"));

        assert!(
            cfg.resolve_env_from(env(&[("QUOKKA_WATCHDOG_SECS", "0")])).is_err(),
            "zero disables the watchdog; reject it"
        );

        let mut fresh = EngineConfig::quokka(2);
        fresh.resolve_env_from(env(&[])).expect("no override");
        assert_eq!(fresh.watchdog, Duration::from_secs(120));
    }

    /// A variable lookup over fixed `(name, value)` pairs.
    fn env(vars: &[(&str, &str)]) -> impl Fn(&str) -> Option<String> {
        let vars: std::collections::BTreeMap<String, String> =
            vars.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
        move |name| vars.get(name).cloned()
    }
}
