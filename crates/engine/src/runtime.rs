//! The query runner: wiring, streaming execution and the restart baseline.

use crate::admission::{estimate_query_memory, AdmissionController, AdmissionPermit};
use crate::layout::QueryLayout;
use crate::recovery::{Coordinator, CoordinatorOutcome};
use crate::stream::{BatchStream, StreamEvent};
use crate::worker::{spawn_workers, Services};
use quokka_batch::Batch;
use quokka_common::chaos::ChaosPlan;
use quokka_common::config::{ClusterConfig, EngineConfig};
use quokka_common::ids::WorkerId;
use quokka_common::metrics::{MetricsRegistry, QueryMetrics};
use quokka_common::{QuokkaError, Result};
use quokka_gcs::Gcs;
use quokka_net::DataPlane;
use quokka_plan::catalog::{Catalog, TableSplits};
use quokka_plan::logical::LogicalPlan;
use quokka_plan::optimizer::Optimizer;
use quokka_plan::stage::StageGraph;
use quokka_storage::{CostModel, DurableObjectStore};
use std::collections::BTreeMap;
use std::sync::atomic::AtomicBool;
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The result of one query execution.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// Query result rows (concatenated sink output).
    pub batch: Batch,
    /// Execution metrics, including recovery statistics.
    pub metrics: QueryMetrics,
}

/// Runs logical plans on a simulated cluster under one [`EngineConfig`].
#[derive(Debug, Clone)]
pub struct QueryRunner {
    config: EngineConfig,
}

/// Serving-path options for [`QueryRunner::stream_opts`]. The default is
/// exactly [`QueryRunner::stream`]: lower the plan here, no admission.
#[derive(Debug, Default, Clone)]
pub struct StreamOptions {
    /// The plan is already lowered (optimized/decorrelated) — e.g. it came
    /// out of a plan cache. Skip both the optimizer and the mandatory
    /// decorrelation pass and compile it as-is.
    pub prelowered: bool,
    /// Stamped onto [`QueryMetrics::plan_cache_hit`] so callers can observe
    /// which plans skipped the frontend.
    pub plan_cache_hit: bool,
    /// When set, the query must be admitted before any cluster state is
    /// built: [`AdmissionController::acquire`] blocks in FIFO order while
    /// the queue has room and fails with
    /// [`QuokkaError::Overloaded`](quokka_common::QuokkaError) when it
    /// does not — synchronously, from `stream_opts` itself. The
    /// permit is released when the query finishes, however it finishes
    /// (success, failure, cancellation, chaos-induced restart).
    pub admission: Option<Arc<AdmissionController>>,
}

/// How one execution attempt ended, as seen by the supervisor loop.
enum AttemptOutcome {
    Completed(Box<QueryMetrics>),
    /// The fault strategy has no intra-query recovery; rerun from scratch.
    NeedsRestart {
        failed: Vec<WorkerId>,
        elapsed: Duration,
    },
    Failed(QuokkaError),
}

impl QueryRunner {
    pub fn new(config: EngineConfig) -> Self {
        QueryRunner { config }
    }

    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Execute `plan` to completion and return the full result — a
    /// convenience wrapper that drains [`stream`](Self::stream).
    pub fn run(&self, plan: &LogicalPlan, catalog: &dyn Catalog) -> Result<QueryOutcome> {
        self.stream(plan, catalog)?.collect()
    }

    /// Execute `plan` against the base tables provided by `catalog`,
    /// streaming result batches as the sink stage commits them.
    ///
    /// Unless [`EngineConfig::optimize`] is disabled, the plan first runs
    /// through the rule-based logical optimizer (with the catalog supplying
    /// row-count estimates for build-side selection), so the stage graph is
    /// compiled from the optimized plan.
    ///
    /// Plan errors (unknown tables/columns, uncompilable stages) surface
    /// here, before any worker thread starts; the returned [`BatchStream`]
    /// only reports runtime failures.
    pub fn stream(&self, plan: &LogicalPlan, catalog: &dyn Catalog) -> Result<BatchStream> {
        self.stream_opts(plan, catalog, StreamOptions::default())
    }

    /// [`stream`](Self::stream) with explicit serving-path options: a
    /// prelowered (cached) plan, cache-hit stamping, and admission control.
    pub fn stream_opts(
        &self,
        plan: &LogicalPlan,
        catalog: &dyn Catalog,
        opts: StreamOptions,
    ) -> Result<BatchStream> {
        // Resolve environment overrides up front, rejecting malformed values
        // loudly instead of silently falling back to defaults.
        let mut config = self.config.clone();
        config.resolve_env()?;
        let plan = if opts.prelowered {
            plan.clone()
        } else if self.config.optimize {
            Optimizer::with_catalog(catalog).optimize(plan)?
        } else {
            // Subquery decorrelation is a mandatory lowering, not an
            // optimization: even a "naive" run must turn the frontends'
            // subquery expressions into joins before stage compilation.
            quokka_plan::optimizer::decorrelate(plan.clone())?
        };
        let output_schema = plan.schema()?;
        // Fail fast on plans the stage compiler rejects; attempts reuse the
        // compiled graph instead of recompiling.
        let graph = StageGraph::compile(&plan)?;
        // Admission happens after planning (cheap, and errors should surface
        // as plan errors) but before any cluster state is built. An
        // Overloaded rejection propagates from here synchronously; a queued
        // query blocks its caller right here.
        let permit = match &opts.admission {
            Some(controller) => Some(controller.acquire(estimate_query_memory(&plan, catalog))?),
            None => None,
        };
        // Snapshot the referenced base tables so the query (and a potential
        // restart-baseline rerun) no longer needs the caller's catalog. The
        // snapshot shares the catalog's immutable splits; it copies nothing.
        let mut tables = BTreeMap::new();
        for table in plan.referenced_tables() {
            tables.insert(table.clone(), catalog.table_batches(&table)?);
        }

        let (tx, rx) = std::sync::mpsc::channel();
        let cancel = Arc::new(AtomicBool::new(false));
        let stream = BatchStream::new(output_schema, rx, Arc::clone(&cancel));
        let plan_cache_hit = opts.plan_cache_hit;
        std::thread::Builder::new()
            .name("quokka-query".to_string())
            .spawn(move || supervise(config, graph, tables, tx, cancel, permit, plan_cache_hit))
            .expect("failed to spawn query supervisor thread");
        Ok(stream)
    }
}

/// Drive the query to completion on this (background) thread, rerunning it
/// on the surviving workers if the restart baseline demands it.
///
/// The admission permit (when admission control is active) lives here for
/// the whole supervision — across restarts of the same query — and is
/// released before the final event is announced, whatever the exit path. A
/// chaos-killed or failed query therefore can never strand its slot, and a
/// client that has observed its result can immediately admit a follow-up.
fn supervise(
    config: EngineConfig,
    graph: StageGraph,
    tables: BTreeMap<String, TableSplits>,
    tx: Sender<StreamEvent>,
    cancel: Arc<AtomicBool>,
    permit: Option<AdmissionPermit>,
    plan_cache_hit: bool,
) {
    let final_event =
        supervise_inner(config, graph, &tables, &tx, &cancel, permit.as_ref(), plan_cache_hit);
    drop(permit);
    let _ = tx.send(final_event);
}

/// The supervision loop proper; returns the stream's final event (sent by
/// [`supervise`] only after the admission slot is freed).
fn supervise_inner(
    mut config: EngineConfig,
    graph: StageGraph,
    tables: &BTreeMap<String, TableSplits>,
    tx: &Sender<StreamEvent>,
    cancel: &Arc<AtomicBool>,
    permit: Option<&AdmissionPermit>,
    plan_cache_hit: bool,
) -> StreamEvent {
    let mut restarts_left = 1u32;
    // The restart baseline charges the failed attempt's runtime and
    // failures on top of the rerun's metrics.
    let mut carried_runtime = Duration::ZERO;
    let mut carried_failures = 0u64;
    loop {
        match run_attempt(&config, graph.clone(), tables, tx, cancel) {
            Ok(AttemptOutcome::Completed(mut metrics)) => {
                metrics.runtime += carried_runtime;
                metrics.failures += carried_failures;
                // `time_to_first_batch` shares `runtime`'s origin, so the
                // failed attempt's elapsed time is charged to both.
                if let Some(first) = metrics.time_to_first_batch.as_mut() {
                    *first += carried_runtime;
                }
                metrics.plan_cache_hit = plan_cache_hit;
                if let Some(permit) = permit {
                    metrics.admission_wait = permit.wait();
                    metrics.admitted_memory_bytes = permit.estimate();
                }
                return StreamEvent::Finished(metrics);
            }
            Ok(AttemptOutcome::NeedsRestart { failed, elapsed }) => {
                if restarts_left == 0 {
                    return StreamEvent::Failed(QuokkaError::Internal(
                        "query failed and the restart budget is exhausted".to_string(),
                    ));
                }
                restarts_left -= 1;
                carried_runtime += elapsed;
                carried_failures += failed.len() as u64;
                // Rerun the whole query on the surviving workers, without
                // re-injecting the faults that already fired.
                let survivors = config.cluster.workers.saturating_sub(failed.len() as u32).max(1);
                config.failures.clear();
                config.chaos = ChaosPlan::new();
                config.cluster = ClusterConfig {
                    workers: survivors,
                    channels_per_stage: config.cluster.channels_per_stage,
                    ..config.cluster
                };
                let _ = tx.send(StreamEvent::Restarted);
            }
            Ok(AttemptOutcome::Failed(error)) | Err(error) => {
                return StreamEvent::Failed(error);
            }
        }
    }
}

/// One end-to-end execution attempt: wire the cluster, run the coordinator,
/// join every worker thread, and report how it ended.
fn run_attempt(
    config: &EngineConfig,
    graph: StageGraph,
    tables: &BTreeMap<String, TableSplits>,
    tx: &Sender<StreamEvent>,
    cancel: &Arc<AtomicBool>,
) -> Result<AttemptOutcome> {
    let cost = CostModel::new(config.cost);
    let metrics = MetricsRegistry::new();
    // The durable store serves the base tables as the catalog's own splits
    // — the data lake the paper's queries read from S3, already in place
    // when the query starts.
    let durable = DurableObjectStore::new(cost, Arc::clone(&metrics), tables.clone());
    let table_splits =
        tables.iter().map(|(table, splits)| (table.clone(), splits.len() as u64)).collect();

    let layout = Arc::new(QueryLayout::new(graph, &config.cluster, &table_splits)?);
    let gcs = Arc::new(Gcs::new(cost.gcs_delay()));
    let plane = Arc::new(DataPlane::with_config(
        config.cluster.workers,
        cost,
        Arc::clone(&metrics),
        &config.transport,
    )?);
    let services = Arc::new(Services {
        cancelled: Arc::clone(cancel),
        ..Services::new(
            config.clone(),
            layout,
            Arc::clone(&gcs),
            plane,
            Arc::new(durable),
            tx.clone(),
            Arc::clone(&metrics),
        )
    });
    services.register_channels();

    let start = Instant::now();
    // Align the first-batch clock with `start`, so `time_to_first_batch`
    // and `runtime` measure from the same origin (excluding table loading).
    metrics.restart_clock();
    let handles = spawn_workers(&services);
    let outcome = Coordinator::new(Arc::clone(&services)).run();
    // Whatever happened, make every thread exit before we inspect state.
    if services.gcs.query_error().is_none() && !services.gcs.is_query_done() {
        services.gcs.set_query_done();
    }
    for handle in handles {
        let _ = handle.join();
    }
    let elapsed = start.elapsed();

    Ok(match outcome {
        CoordinatorOutcome::Completed => {
            let mut snapshot = metrics.snapshot(elapsed);
            snapshot.lineage_bytes = gcs.lineage_bytes();
            snapshot.gcs_transactions = gcs.transactions();
            // Surface the effective robustness settings so tests (and
            // callers) can assert what the run actually used.
            snapshot.effective_watchdog = config.watchdog;
            snapshot.effective_suspicion_timeout = config.cluster.suspicion_timeout;
            AttemptOutcome::Completed(Box::new(snapshot))
        }
        CoordinatorOutcome::Failed(error) => AttemptOutcome::Failed(error),
        CoordinatorOutcome::NeedsRestart { failed } => {
            AttemptOutcome::NeedsRestart { failed, elapsed }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use quokka_batch::{Column, DataType, Schema};
    use quokka_common::config::{ExecutionMode, FailureSpec, FaultStrategy, SchedulePolicy};
    use quokka_plan::aggregate::{count, sum};
    use quokka_plan::catalog::MemoryCatalog;
    use quokka_plan::expr::{col, lit};
    use quokka_plan::logical::{JoinType, PlanBuilder};
    use quokka_plan::reference::{same_result, ReferenceExecutor};

    /// A small synthetic catalog: a fact table and a dimension table, split
    /// into several batches so scans produce multiple input partitions.
    fn catalog(rows: i64) -> MemoryCatalog {
        let catalog = MemoryCatalog::new();
        let dim = Schema::from_pairs(&[("d_key", DataType::Int64), ("d_name", DataType::Utf8)]);
        let dim_batch = Batch::try_new(
            dim.clone(),
            vec![
                Column::Int64((0..10).collect()),
                Column::Utf8((0..10).map(|i| format!("group-{}", i % 3)).collect()),
            ],
        )
        .unwrap();
        catalog.register("dim", dim.clone(), dim_batch.chunks(4));

        let fact =
            Schema::from_pairs(&[("f_key", DataType::Int64), ("f_value", DataType::Float64)]);
        let fact_batch = Batch::try_new(
            fact.clone(),
            vec![
                Column::Int64((0..rows).map(|i| i % 10).collect()),
                Column::Float64((0..rows).map(|i| i as f64 * 0.5).collect()),
            ],
        )
        .unwrap();
        catalog.register("fact", fact.clone(), fact_batch.chunks(64));
        catalog
    }

    fn join_plan() -> quokka_plan::logical::LogicalPlan {
        let dim = Schema::from_pairs(&[("d_key", DataType::Int64), ("d_name", DataType::Utf8)]);
        let fact =
            Schema::from_pairs(&[("f_key", DataType::Int64), ("f_value", DataType::Float64)]);
        PlanBuilder::scan("dim", dim)
            .join(
                PlanBuilder::scan("fact", fact).filter(col("f_value").gt_eq(lit(1.0f64))),
                vec![("d_key", "f_key")],
                JoinType::Inner,
            )
            .aggregate(
                vec![(col("d_name"), "d_name")],
                vec![sum(col("f_value"), "total"), count(col("f_key"), "n")],
            )
            .sort(vec![("d_name", true)])
            .build()
            .unwrap()
    }

    fn check_against_reference(config: EngineConfig, rows: i64) {
        let catalog = catalog(rows);
        let plan = join_plan();
        let expected = ReferenceExecutor::new(&catalog).execute(&plan).unwrap();
        let outcome = QueryRunner::new(config).run(&plan, &catalog).unwrap();
        assert!(
            same_result(&expected, &outcome.batch),
            "distributed result diverged from the reference\nexpected: {expected:?}\nactual: {:?}",
            outcome.batch
        );
        assert!(outcome.metrics.tasks_executed > 0);
    }

    #[test]
    fn queries_share_the_catalogs_splits() {
        let catalog = catalog(300);
        let fact = catalog.table_batches("fact").unwrap();
        let held = Arc::strong_count(&fact);
        let stream = QueryRunner::new(EngineConfig::quokka(2)).stream(&join_plan(), &catalog);
        assert!(
            Arc::strong_count(&fact) > held,
            "the query's snapshot must hold the catalog's own splits"
        );
        assert!(stream.unwrap().collect().unwrap().metrics.tasks_executed > 0);
    }

    #[test]
    fn pipelined_wal_matches_reference() {
        check_against_reference(EngineConfig::quokka(3), 500);
    }

    #[test]
    fn stagewise_execution_matches_reference() {
        check_against_reference(EngineConfig::sparklike(3), 300);
    }

    #[test]
    fn static_batch_scheduling_matches_reference() {
        check_against_reference(
            EngineConfig::quokka(2).with_schedule(SchedulePolicy::StaticBatch { batch: 3 }),
            300,
        );
    }

    #[test]
    fn spooling_strategy_matches_reference_and_spools_bytes() {
        let catalog = catalog(300);
        let plan = join_plan();
        let expected = ReferenceExecutor::new(&catalog).execute(&plan).unwrap();
        let outcome = QueryRunner::new(EngineConfig::trinolike(3)).run(&plan, &catalog).unwrap();
        assert!(same_result(&expected, &outcome.batch));
        assert!(outcome.metrics.durable_bytes > 0, "spooling must write durable bytes");
        assert_eq!(outcome.metrics.backup_bytes, 0, "spooling does not use local backup");
    }

    #[test]
    fn wal_overhead_is_lineage_not_durable_bytes() {
        let catalog = catalog(300);
        let plan = join_plan();
        let outcome = QueryRunner::new(EngineConfig::quokka(3)).run(&plan, &catalog).unwrap();
        assert_eq!(outcome.metrics.durable_bytes, 0, "WAL never writes shuffle data durably");
        assert!(outcome.metrics.backup_bytes > 0, "WAL backs partitions up locally");
        assert!(outcome.metrics.lineage_bytes > 0);
        assert!(
            outcome.metrics.lineage_bytes < outcome.metrics.backup_bytes,
            "lineage must be far smaller than the data it describes"
        );
    }

    #[test]
    fn failure_with_wal_recovers_and_matches_reference() {
        let catalog = catalog(600);
        let plan = join_plan();
        let expected = ReferenceExecutor::new(&catalog).execute(&plan).unwrap();
        // Killed at its first commit that leaves join/aggregate state
        // behind, the worker always takes state with it that recovery must
        // replay (a kill at a fixed input fraction can land after the
        // victim's channels have all finished).
        let config = EngineConfig::quokka(3).with_chaos(ChaosPlan::kill_holding_state(1));
        let outcome = QueryRunner::new(config).run(&plan, &catalog).unwrap();
        assert!(
            same_result(&expected, &outcome.batch),
            "result after fault recovery diverged\nexpected: {expected:?}\nactual: {:?}",
            outcome.batch
        );
        assert_eq!(outcome.metrics.failures, 1);
        assert!(outcome.metrics.recovery_tasks > 0, "recovery should replay some tasks");
    }

    #[test]
    fn failure_with_restart_baseline_recovers_by_rerunning() {
        let catalog = catalog(400);
        let plan = join_plan();
        let expected = ReferenceExecutor::new(&catalog).execute(&plan).unwrap();
        let config = EngineConfig::quokka(3)
            .with_fault(FaultStrategy::None)
            .with_failure(FailureSpec::new(2, 0.3));
        let outcome = QueryRunner::new(config).run(&plan, &catalog).unwrap();
        assert!(same_result(&expected, &outcome.batch));
        assert_eq!(outcome.metrics.failures, 1);
    }

    #[test]
    fn stagewise_failure_recovers() {
        let catalog = catalog(400);
        let plan = join_plan();
        let expected = ReferenceExecutor::new(&catalog).execute(&plan).unwrap();
        let config = EngineConfig::sparklike(3).with_failure(FailureSpec::halfway(0));
        let outcome = QueryRunner::new(config).run(&plan, &catalog).unwrap();
        assert!(same_result(&expected, &outcome.batch));
    }

    #[test]
    fn single_stage_scan_query_works() {
        let catalog = catalog(100);
        let fact =
            Schema::from_pairs(&[("f_key", DataType::Int64), ("f_value", DataType::Float64)]);
        let plan = PlanBuilder::scan("fact", fact)
            .filter(col("f_key").eq(lit(3i64)))
            .project(vec![(col("f_value"), "v")])
            .build()
            .unwrap();
        let expected = ReferenceExecutor::new(&catalog).execute(&plan).unwrap();
        let outcome = QueryRunner::new(EngineConfig::quokka(2)).run(&plan, &catalog).unwrap();
        assert!(same_result(&expected, &outcome.batch));
    }

    #[test]
    fn checkpointing_strategy_writes_checkpoints() {
        let catalog = catalog(400);
        let plan = join_plan();
        let config =
            EngineConfig::quokka(2).with_fault(FaultStrategy::Checkpointing { interval_tasks: 2 });
        let outcome = QueryRunner::new(config).run(&plan, &catalog).unwrap();
        assert!(outcome.metrics.checkpoint_bytes > 0);
        assert!(outcome.metrics.durable_bytes > 0);
    }

    #[test]
    fn execution_modes_agree_with_each_other() {
        let catalog = catalog(500);
        let plan = join_plan();
        let pipelined = QueryRunner::new(EngineConfig::quokka(3)).run(&plan, &catalog).unwrap();
        let stagewise =
            QueryRunner::new(EngineConfig::quokka(3).with_mode(ExecutionMode::Stagewise))
                .run(&plan, &catalog)
                .unwrap();
        assert!(same_result(&pipelined.batch, &stagewise.batch));
    }
}
