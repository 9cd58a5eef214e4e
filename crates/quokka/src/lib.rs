//! High-level facade for the Quokka write-ahead-lineage query engine.
//!
//! [`QuokkaSession`] bundles a table catalog with an [`EngineConfig`] and is
//! the single place queries enter the system. All three frontends — the lazy
//! [`DataFrame`] API, SQL, and raw [`LogicalPlan`]s built with
//! [`PlanBuilder`] — lower to the same [`QueryHandle`], which executes
//! either incrementally ([`QueryHandle::stream`]) or to completion
//! ([`QueryHandle::collect`]):
//!
//! ```
//! use quokka::dataframe::{col, sum};
//! use quokka::QuokkaSession;
//!
//! // A tiny TPC-H data set on a 4-worker simulated cluster.
//! let session = QuokkaSession::tpch(0.002, 4).unwrap();
//! let outcome = session
//!     .table("lineitem").unwrap()
//!     .filter(col("l_quantity").lt(quokka::dataframe::lit(25.0f64))).unwrap()
//!     .group_by([col("l_returnflag")]).unwrap()
//!     .agg([sum(col("l_extendedprice")).alias("revenue")]).unwrap()
//!     .sort([(col("revenue"), false)]).unwrap()
//!     .collect().unwrap();
//! assert!(outcome.metrics.tasks_executed > 0);
//! ```
//!
//! Sessions are cheap to clone and safe to share: wrap one in an
//! [`Arc`] — or just clone one — and run queries from as many
//! threads as you like — each execution gets its own metrics and cluster
//! state.

pub use quokka_batch as batch;
pub use quokka_common as common;
pub use quokka_engine as engine;
pub use quokka_gcs as gcs;
pub use quokka_net as net;
pub use quokka_plan as plan;
pub use quokka_sql as sql;
pub use quokka_storage as storage;
pub use quokka_tpch as tpch;

pub mod dataframe;
pub mod plan_cache;
pub mod process;

pub use dataframe::DataFrame;
pub use plan_cache::{CachedPlan, PlanCache, PlanCacheStats};
pub use quokka_batch::{Batch, Column, DataType, ScalarValue, Schema};
pub use quokka_common::{
    AdmissionConfig, Backoff, ChaosEvent, ChaosInjection, ChaosPlan, ChaosTrigger, ClusterConfig,
    CostModelConfig, EngineConfig, ExecutionMode, FaultStrategy, PeerWireStats, PlanCacheConfig,
    QueryMetrics, QuokkaError, Result, RetryPolicy, SchedulePolicy, TransportConfig, TransportKind,
};
pub use quokka_engine::{
    AdmissionController, AdmissionStats, BatchStream, QueryOutcome, QueryRunner, StreamOptions,
};
pub use quokka_plan::logical::{JoinType, LogicalPlan, PlanBuilder};
pub use quokka_plan::reference::{canonical_rows, results_match, same_result, ReferenceExecutor};
pub use quokka_sql::SqlError;
pub use quokka_tpch::TpchGenerator;

use quokka_plan::catalog::{Catalog, MemoryCatalog};
use std::sync::Arc;

/// The shared rendering for a plan that fails schema validation (used by
/// both the raw-plan entry point and the DataFrame frontend).
pub(crate) fn invalid_plan_error(error: QuokkaError, plan: &LogicalPlan) -> QuokkaError {
    QuokkaError::PlanError(format!("invalid plan: {error}\n{}", plan.display_indent()))
}

/// A session: a catalog of registered tables plus an engine configuration.
///
/// Cloning is cheap (the catalog, plan cache and admission controller are
/// shared behind [`Arc`]s) and clones are fully independent query entry
/// points, so one session can serve concurrent queries from many threads —
/// all of them hitting one plan cache and admitted by one controller.
/// [`with_config`](Self::with_config) affects only the clone it is called
/// on (rebuilding the cache/controller when their config sections change).
#[derive(Clone)]
pub struct QuokkaSession {
    catalog: Arc<MemoryCatalog>,
    config: EngineConfig,
    plan_cache: Arc<PlanCache>,
    admission: Arc<AdmissionController>,
}

impl QuokkaSession {
    /// An empty session with the given configuration.
    pub fn new(config: EngineConfig) -> Self {
        let plan_cache = PlanCache::new(config.plan_cache);
        let admission = AdmissionController::new(config.admission);
        QuokkaSession { catalog: Arc::new(MemoryCatalog::new()), config, plan_cache, admission }
    }

    /// A session pre-populated with a generated TPC-H data set at scale
    /// factor `sf` on a `workers`-worker cluster, using Quokka's defaults
    /// (pipelined execution, dynamic task dependencies, write-ahead lineage).
    pub fn tpch(sf: f64, workers: u32) -> Result<Self> {
        let session = QuokkaSession::new(EngineConfig::quokka(workers));
        TpchGenerator::new(sf, 0xC0FFEE).register_all(&session.catalog)?;
        Ok(session)
    }

    /// Replace the engine configuration (builder style).
    ///
    /// The shared plan cache and admission controller are rebuilt only when
    /// their config sections actually changed, so tuning unrelated knobs
    /// (fault strategy, chaos plans) keeps the warmed cache. Clones made
    /// *before* this call keep the previous cache/controller.
    pub fn with_config(mut self, config: EngineConfig) -> Self {
        if config.plan_cache != self.config.plan_cache {
            self.plan_cache = PlanCache::new(config.plan_cache);
        }
        if config.admission != self.config.admission {
            self.admission = AdmissionController::new(config.admission);
        }
        self.config = config;
        self
    }

    /// The current engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The session's shared plan cache (one per session and its clones).
    pub fn plan_cache(&self) -> &Arc<PlanCache> {
        &self.plan_cache
    }

    /// The session's shared admission controller.
    pub fn admission(&self) -> &Arc<AdmissionController> {
        &self.admission
    }

    /// Register a table.
    pub fn register_table(&self, name: &str, schema: Schema, batches: Vec<Batch>) {
        self.catalog.register(name, schema, batches);
    }

    /// The underlying catalog.
    pub fn catalog(&self) -> &MemoryCatalog {
        &self.catalog
    }

    /// Names of the registered tables.
    pub fn table_names(&self) -> Vec<String> {
        self.catalog.table_names()
    }

    /// Start a lazy [`DataFrame`] over a registered table.
    ///
    /// Every transformation on the frame is validated against the catalog's
    /// schemas as it is added (unknown names and type errors surface at
    /// build time with "did you mean" suggestions), and nothing executes
    /// until [`DataFrame::collect`] or [`DataFrame::stream`] is called.
    ///
    /// ```
    /// use quokka::QuokkaSession;
    ///
    /// let session = QuokkaSession::tpch(0.002, 2).unwrap();
    /// let err = session.table("lineitems").unwrap_err();
    /// assert!(err.to_string().contains("did you mean 'lineitem'"));
    /// ```
    pub fn table(&self, name: &str) -> Result<DataFrame> {
        DataFrame::table(self.clone(), name)
    }

    /// Wrap an already-built logical plan in a [`QueryHandle`] — the common
    /// entry point the DataFrame and SQL frontends also lower to. The plan
    /// is schema-checked here, so the handle's failure modes are runtime
    /// ones.
    pub fn query(&self, plan: LogicalPlan) -> Result<QueryHandle> {
        plan.schema().map_err(|e| invalid_plan_error(e, &plan))?;
        Ok(QueryHandle { session: self.clone(), plan, explain: false, prepared: None })
    }

    /// A handle over a plan that is already known to be schema-valid
    /// (used by the DataFrame frontend, which validates at every step).
    pub(crate) fn query_validated(&self, plan: LogicalPlan) -> QueryHandle {
        QueryHandle { session: self.clone(), plan, explain: false, prepared: None }
    }

    /// The hand-built logical plan of TPC-H query `number` (1-22), as a
    /// [`QueryHandle`].
    pub fn tpch_query(&self, number: usize) -> Result<QueryHandle> {
        self.query(quokka_tpch::query(number)?)
    }

    /// Execute a logical plan on the simulated cluster. Like every
    /// session-level execution path, the query passes through the session's
    /// admission controller first.
    pub fn run(&self, plan: &LogicalPlan) -> Result<QueryOutcome> {
        self.run_with(plan, &self.config)
    }

    /// Execute a plan under an explicit configuration (without mutating the
    /// session's default).
    pub fn run_with(&self, plan: &LogicalPlan, config: &EngineConfig) -> Result<QueryOutcome> {
        let opts =
            StreamOptions { admission: Some(Arc::clone(&self.admission)), ..Default::default() };
        QueryRunner::new(config.clone()).stream_opts(plan, self.catalog.as_ref(), opts)?.collect()
    }

    /// Execute TPC-H query `number` (1-22) to completion.
    pub fn run_tpch(&self, number: usize) -> Result<QueryOutcome> {
        self.tpch_query(number)?.collect()
    }

    /// Execute a plan on the single-threaded reference executor (the
    /// correctness oracle / restart baseline).
    pub fn run_reference(&self, plan: &LogicalPlan) -> Result<Batch> {
        ReferenceExecutor::new(self.catalog.as_ref()).execute(plan)
    }

    /// Parse and bind a SQL `SELECT` statement against the session's
    /// catalog, returning a [`QueryHandle`] that can be executed on the
    /// simulated cluster or the reference executor.
    ///
    /// Malformed SQL returns a positioned error (line and column of the
    /// offending token) rather than panicking:
    ///
    /// ```
    /// use quokka::{EngineConfig, QuokkaSession};
    ///
    /// let session = QuokkaSession::tpch(0.002, 2).unwrap();
    /// let handle = session
    ///     .sql("SELECT count(*) AS orders FROM orders WHERE o_orderdate >= DATE '1995-01-01'")
    ///     .unwrap();
    /// let outcome = handle.collect().unwrap();
    /// assert_eq!(outcome.batch.schema().column_names(), vec!["orders"]);
    ///
    /// let err = session.sql("SELECT o_orderkey FROM oders").unwrap_err();
    /// assert!(err.to_string().contains("line 1"));
    /// ```
    /// When the session's plan cache is enabled, a repeated statement
    /// (modulo whitespace, case and comments — and, for re-planning
    /// purposes, literal values) skips parse, bind, decorrelation and
    /// optimization entirely; the executed query stamps
    /// [`QueryMetrics::plan_cache_hit`]. `EXPLAIN` statements and
    /// statements the cache cannot normalize fall through to the regular
    /// path.
    pub fn sql(&self, query: &str) -> Result<QueryHandle> {
        if !self.plan_cache.is_enabled() {
            let (explain, plan) = quokka_sql::plan_statement(query, self.catalog.as_ref())?;
            return Ok(QueryHandle { session: self.clone(), plan, explain, prepared: None });
        }
        // Normalization fails only where the lexer fails; let the regular
        // path report that identical, positioned error.
        let normalized = match quokka_sql::normalize(query) {
            Ok(n) if !n.is_explain() => n,
            _ => {
                let (explain, plan) = quokka_sql::plan_statement(query, self.catalog.as_ref())?;
                return Ok(QueryHandle { session: self.clone(), plan, explain, prepared: None });
            }
        };
        let generation = self.catalog.generation();
        let fingerprint = self.config.planning_fingerprint();
        if let Some(cached) = self.plan_cache.lookup(
            &normalized.template,
            generation,
            fingerprint,
            &normalized.literals,
        ) {
            return Ok(QueryHandle {
                session: self.clone(),
                plan: cached.naive.as_ref().clone(),
                explain: false,
                prepared: Some(PreparedPlan {
                    lowered: cached.lowered,
                    fingerprint,
                    cache_hit: true,
                }),
            });
        }
        let plan = quokka_sql::plan_query(query, self.catalog.as_ref())?;
        let lowered = Arc::new(self.lower(&plan)?);
        let naive = Arc::new(plan);
        self.plan_cache.insert(
            &normalized.template,
            generation,
            fingerprint,
            normalized.literals,
            CachedPlan { naive: Arc::clone(&naive), lowered: Arc::clone(&lowered) },
        );
        Ok(QueryHandle {
            session: self.clone(),
            plan: naive.as_ref().clone(),
            explain: false,
            // The lowering work is already done — the miss uses it too.
            prepared: Some(PreparedPlan { lowered, fingerprint, cache_hit: false }),
        })
    }

    /// Lower a bound plan exactly as the engine would before compiling it:
    /// the full optimizer when [`EngineConfig::optimize`] is on, otherwise
    /// just the mandatory subquery decorrelation.
    fn lower(&self, plan: &LogicalPlan) -> Result<LogicalPlan> {
        if self.config.optimize {
            quokka_plan::Optimizer::with_catalog(self.catalog.as_ref()).optimize(plan)
        } else {
            quokka_plan::optimizer::decorrelate(plan.clone())
        }
    }

    /// Optimize a plan with the session's catalog statistics (the same
    /// rewrite [`run`](Self::run) applies before execution unless
    /// [`EngineConfig::optimize`] is disabled).
    pub fn optimize(&self, plan: &LogicalPlan) -> Result<LogicalPlan> {
        quokka_plan::Optimizer::with_catalog(self.catalog.as_ref()).optimize(plan)
    }

    /// Render a SQL statement's logical plan before and after optimization
    /// (a leading `EXPLAIN` keyword is accepted and ignored).
    ///
    /// ```
    /// use quokka::QuokkaSession;
    ///
    /// let session = QuokkaSession::tpch(0.002, 2).unwrap();
    /// let text = session
    ///     .explain("SELECT o_orderpriority FROM orders WHERE o_orderkey < 100")
    ///     .unwrap();
    /// assert!(text.contains("== Logical plan =="));
    /// assert!(text.contains("== Optimized plan =="));
    /// ```
    pub fn explain(&self, query: &str) -> Result<String> {
        let (_, plan) = quokka_sql::plan_statement(query, self.catalog.as_ref())?;
        self.explain_plan(&plan)
    }

    fn explain_plan(&self, plan: &LogicalPlan) -> Result<String> {
        let optimized = self.optimize(plan)?;
        Ok(format!(
            "== Logical plan ==\n{}== Optimized plan ==\n{}",
            plan.display_indent(),
            optimized.display_indent()
        ))
    }
}

impl std::fmt::Debug for QuokkaSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QuokkaSession")
            .field("tables", &self.table_names())
            .field("config", &self.config)
            .finish()
    }
}

/// A bound query attached to its session, ready to execute.
///
/// Every frontend produces one: [`QuokkaSession::sql`],
/// [`QuokkaSession::query`] (raw plans / [`PlanBuilder`]),
/// [`QuokkaSession::tpch_query`], and [`DataFrame::handle`]. The plan has
/// already been parsed, name-resolved, and type-checked, so the remaining
/// failure modes are runtime ones (fault injection, storage errors).
///
/// The handle owns a (cheap) clone of its session, so it is `'static`:
/// it can outlive the binding it was created from, move across threads, and
/// back a long-lived [`BatchStream`]. A handle for an `EXPLAIN`-prefixed
/// statement does not execute: collecting or streaming it returns the plan
/// rendering (before and after optimization) as a one-column batch.
pub struct QueryHandle {
    session: QuokkaSession,
    plan: LogicalPlan,
    explain: bool,
    /// The already-lowered plan, when the SQL path planned (or cache-hit)
    /// this statement. Used iff the executing config's planning fingerprint
    /// still matches; otherwise the naive plan is lowered afresh.
    prepared: Option<PreparedPlan>,
}

/// A lowered plan carried by a [`QueryHandle`], with the fingerprint of the
/// planning-relevant config it was lowered under.
struct PreparedPlan {
    lowered: Arc<LogicalPlan>,
    fingerprint: u64,
    cache_hit: bool,
}

impl std::fmt::Debug for QueryHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryHandle").field("plan", &self.plan).finish_non_exhaustive()
    }
}

impl QueryHandle {
    /// The bound logical plan.
    pub fn plan(&self) -> &LogicalPlan {
        &self.plan
    }

    /// The session this handle executes against.
    pub fn session(&self) -> &QuokkaSession {
        &self.session
    }

    /// Whether the statement carried an `EXPLAIN` prefix.
    pub fn is_explain(&self) -> bool {
        self.explain
    }

    /// The plan rendered before and after optimization.
    pub fn explain(&self) -> String {
        self.session.explain_plan(&self.plan).unwrap_or_else(|e| {
            // A bound plan always renders; optimization errors are bugs but
            // must not panic an EXPLAIN. Show the naive plan and the error.
            format!(
                "== Logical plan ==\n{}== Optimizer error ==\n{e}\n",
                self.plan.display_indent()
            )
        })
    }

    /// The EXPLAIN rendering as a one-column result batch.
    fn explain_batch(&self) -> Batch {
        let lines: Vec<String> = self.explain().lines().map(|l| l.to_string()).collect();
        let schema = Schema::from_pairs(&[("plan", DataType::Utf8)]);
        Batch::try_new(schema.clone(), vec![Column::Utf8(lines)])
            .unwrap_or_else(|_| Batch::empty(schema))
    }

    /// Execute on the simulated cluster, streaming result batches as the
    /// sink stage commits them. The first batch is available while upstream
    /// stages are still running; [`BatchStream::metrics`] carries the final
    /// counters once the stream is exhausted.
    pub fn stream(&self) -> Result<BatchStream> {
        self.stream_with(&self.session.config)
    }

    /// Whether executing this handle will skip planning because the
    /// session's plan cache already held the lowered plan.
    pub fn is_plan_cache_hit(&self) -> bool {
        self.prepared.as_ref().is_some_and(|p| p.cache_hit)
    }

    /// Stream under an explicit engine configuration.
    pub fn stream_with(&self, config: &EngineConfig) -> Result<BatchStream> {
        if self.explain {
            let batch = self.explain_batch();
            let schema = batch.schema().clone();
            return Ok(BatchStream::ready(schema, vec![batch], QueryMetrics::default()));
        }
        let mut opts = StreamOptions {
            admission: Some(Arc::clone(&self.session.admission)),
            ..Default::default()
        };
        // A prepared plan is only valid under the config it was lowered
        // for; a different fingerprint (e.g. `collect_with` an
        // optimize-toggled config) falls back to lowering the naive plan.
        let plan = match &self.prepared {
            Some(prepared) if prepared.fingerprint == config.planning_fingerprint() => {
                opts.prelowered = true;
                opts.plan_cache_hit = prepared.cache_hit;
                prepared.lowered.as_ref()
            }
            _ => &self.plan,
        };
        QueryRunner::new(config.clone()).stream_opts(plan, self.session.catalog.as_ref(), opts)
    }

    /// Execute on the simulated cluster with the session's configuration,
    /// materializing the full result (a drained [`stream`](Self::stream)).
    /// For an `EXPLAIN` statement, return the plan rendering instead.
    pub fn collect(&self) -> Result<QueryOutcome> {
        self.collect_with(&self.session.config)
    }

    /// Execute under an explicit engine configuration.
    pub fn collect_with(&self, config: &EngineConfig) -> Result<QueryOutcome> {
        if self.explain {
            return Ok(QueryOutcome {
                batch: self.explain_batch(),
                metrics: QueryMetrics::default(),
            });
        }
        self.stream_with(config)?.collect()
    }

    /// Execute on the single-threaded reference executor.
    pub fn collect_reference(&self) -> Result<Batch> {
        if self.explain {
            return Ok(self.explain_batch());
        }
        self.session.run_reference(&self.plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_registers_and_lists_tables() {
        let session = QuokkaSession::new(EngineConfig::quokka(2));
        assert!(session.table_names().is_empty());
        let schema = Schema::from_pairs(&[("x", DataType::Int64)]);
        session.register_table(
            "t",
            schema.clone(),
            vec![Batch::try_new(schema, vec![Column::Int64(vec![1, 2, 3])]).unwrap()],
        );
        assert_eq!(session.table_names(), vec!["t".to_string()]);
        assert_eq!(session.config().cluster.workers, 2);
    }

    #[test]
    fn tpch_session_runs_a_simple_query() {
        let session = QuokkaSession::tpch(0.002, 2).unwrap();
        let outcome = session.run_tpch(6).unwrap();
        let expected = session.run_reference(&quokka_tpch::query(6).unwrap()).unwrap();
        assert!(results_match(&outcome.batch, &expected));
    }

    #[test]
    fn query_handles_outlive_their_session_binding() {
        let handle = {
            let session = QuokkaSession::tpch(0.002, 2).unwrap();
            session.sql("SELECT count(*) AS n FROM orders").unwrap()
        };
        // The original binding is gone; the handle's session clone keeps the
        // catalog alive.
        let outcome = handle.collect().unwrap();
        assert_eq!(outcome.batch.schema().column_names(), vec!["n"]);
    }

    #[test]
    fn all_frontends_share_one_handle_type() {
        let session = QuokkaSession::tpch(0.002, 2).unwrap();
        let from_plan = session.tpch_query(6).unwrap();
        let from_sql = session.sql(tpch::queries::sql::sql_text(6).unwrap()).unwrap();
        let from_df = dataframe::tpch::query(&session, 6).unwrap().handle();
        let a = from_plan.collect_reference().unwrap();
        let b = from_sql.collect_reference().unwrap();
        let c = from_df.collect_reference().unwrap();
        assert!(results_match(&a, &b));
        assert!(results_match(&b, &c));
    }
}
