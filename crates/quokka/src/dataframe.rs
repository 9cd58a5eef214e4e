//! The lazy DataFrame API: composable, schema-checked query building.
//!
//! A [`DataFrame`] is a cheap, cloneable description of a computation over
//! the session's tables — nothing executes until [`collect`](DataFrame::collect)
//! or [`stream`](DataFrame::stream) is called. Every transformation is
//! validated eagerly against the frame's schema (reusing the same
//! name-resolution and type machinery the SQL binder uses, including
//! "did you mean" suggestions), so a typo fails at the call that introduced
//! it rather than at execution time.
//!
//! ```
//! use quokka::dataframe::{col, date, lit, sum};
//! use quokka::QuokkaSession;
//!
//! let session = QuokkaSession::tpch(0.002, 2).unwrap();
//! let revenue = session
//!     .table("lineitem").unwrap()
//!     .filter(col("l_shipdate").lt_eq(date(1998, 9, 2))).unwrap()
//!     .group_by([col("l_returnflag")]).unwrap()
//!     .agg([sum(col("l_extendedprice")).alias("rev")]).unwrap()
//!     .sort([(col("rev"), false)]).unwrap();
//! let outcome = revenue.collect().unwrap();
//! assert_eq!(outcome.batch.schema().column_names(), vec!["l_returnflag", "rev"]);
//! ```
//!
//! Frames lower to the engine's [`LogicalPlan`], so they flow through the
//! same optimizer, stage compiler, and distributed runtime as SQL; the two
//! frontends are parity-tested against each other on the TPC-H workload
//! (see [`tpch`]).

pub mod tpch;

use crate::{BatchStream, QueryHandle, QueryOutcome, QuokkaSession};
use quokka_batch::datatype::date_to_days;
use quokka_batch::{Batch, DataType, ScalarValue, Schema};
use quokka_common::{QuokkaError, Result};
use quokka_plan::aggregate::{AggExpr, AggFunc};
use quokka_plan::catalog::Catalog;
use quokka_plan::logical::{sort_by_exprs, JoinType, LogicalPlan};
use quokka_sql::suggest;

pub use quokka_plan::expr::{col, lit, Expr, NamedExpr};

/// A date literal from a calendar (year, month, day).
pub fn date(year: i64, month: i64, day: i64) -> Expr {
    Expr::Literal(ScalarValue::Date(date_to_days(year, month, day)))
}

/// `SUM(expr)`; name the output with [`Agg::alias`].
pub fn sum(expr: Expr) -> Agg {
    Agg::new(AggFunc::Sum, "sum", expr)
}
/// `AVG(expr)`.
pub fn avg(expr: Expr) -> Agg {
    Agg::new(AggFunc::Avg, "avg", expr)
}
/// `MIN(expr)`.
pub fn min(expr: Expr) -> Agg {
    Agg::new(AggFunc::Min, "min", expr)
}
/// `MAX(expr)`.
pub fn max(expr: Expr) -> Agg {
    Agg::new(AggFunc::Max, "max", expr)
}
/// `COUNT(expr)` (the engine has no NULLs, so this counts rows).
pub fn count(expr: Expr) -> Agg {
    Agg::new(AggFunc::Count, "count", expr)
}
/// `COUNT(DISTINCT expr)`.
pub fn count_distinct(expr: Expr) -> Agg {
    Agg::new(AggFunc::CountDistinct, "count_distinct", expr)
}

/// An aggregate call under construction: a function, its input expression,
/// and an optional output alias. Produced by [`sum`], [`avg`], [`min`],
/// [`max`], [`count`] and [`count_distinct`].
#[derive(Debug, Clone)]
pub struct Agg {
    func: AggFunc,
    display: &'static str,
    expr: Expr,
    alias: Option<String>,
}

impl Agg {
    fn new(func: AggFunc, display: &'static str, expr: Expr) -> Self {
        Agg { func, display, expr, alias: None }
    }

    /// Name the aggregate's output column (SQL `AS`).
    pub fn alias(mut self, name: impl Into<String>) -> Self {
        self.alias = Some(name.into());
        self
    }

    fn into_agg_expr(self, index: usize) -> AggExpr {
        let alias = self.alias.unwrap_or_else(|| match &self.expr {
            Expr::Column(name) => format!("{}({name})", self.display),
            _ => format!("{}_{index}", self.display),
        });
        AggExpr { func: self.func, expr: self.expr, alias }
    }
}

/// A lazy, composable query over a session's tables.
///
/// See the [module documentation](self) for the programming model. Frames
/// are cheap to clone (useful for sharing a common prefix between several
/// derived queries) and every method returns a *new* frame, leaving the
/// receiver untouched.
#[derive(Debug, Clone)]
pub struct DataFrame {
    session: QuokkaSession,
    plan: LogicalPlan,
    schema: Schema,
}

impl DataFrame {
    /// Start from a registered table (the `session.table(name)` entry
    /// point).
    pub(crate) fn table(session: QuokkaSession, name: &str) -> Result<DataFrame> {
        let schema = session.catalog().table_schema(name).map_err(|_| {
            let names = session.table_names();
            QuokkaError::PlanError(format!(
                "unknown table '{name}'{}",
                suggest(name, names.iter().map(String::as_str).collect())
            ))
        })?;
        let plan = LogicalPlan::Scan { table: name.to_string(), schema: schema.clone() };
        Ok(DataFrame { session, plan, schema })
    }

    /// Wrap an existing logical plan (escape hatch for plans built by hand
    /// or produced by the SQL frontend).
    pub fn from_plan(session: QuokkaSession, plan: LogicalPlan) -> Result<DataFrame> {
        let schema = plan.schema().map_err(|e| crate::invalid_plan_error(e, &plan))?;
        Ok(DataFrame { session, plan, schema })
    }

    /// The output schema of this frame.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The logical plan this frame lowers to.
    pub fn plan(&self) -> &LogicalPlan {
        &self.plan
    }

    /// The session this frame executes against.
    pub fn session(&self) -> &QuokkaSession {
        &self.session
    }

    /// Keep rows satisfying `predicate` (must be a boolean expression over
    /// this frame's columns).
    pub fn filter(self, predicate: Expr) -> Result<DataFrame> {
        self.check_expr(&predicate, "filter")?;
        let dtype = predicate.data_type(&self.schema)?;
        if dtype != DataType::Bool {
            return Err(QuokkaError::TypeError(format!(
                "filter predicate must be Bool, got {dtype} (columns: [{}])",
                predicate.referenced_columns().join(", ")
            )));
        }
        let plan = LogicalPlan::Filter { input: Box::new(self.plan), predicate };
        DataFrame::from_plan(self.session, plan)
    }

    /// Compute named expressions (SQL `SELECT`). Accepts bare expressions
    /// (a column keeps its name; anonymous computations become `col{i}`) or
    /// aliased ones built with [`Expr::alias`].
    pub fn select<I>(self, exprs: I) -> Result<DataFrame>
    where
        I: IntoIterator,
        I::Item: Into<NamedExpr>,
    {
        let mut projected = Vec::new();
        for (i, item) in exprs.into_iter().enumerate() {
            let named: NamedExpr = item.into();
            self.check_expr(&named.expr, "select")?;
            let name = named.resolve_name(i);
            projected.push((named.expr, name));
        }
        if projected.is_empty() {
            return Err(QuokkaError::PlanError("select of zero expressions".to_string()));
        }
        check_unique(projected.iter().map(|(_, n)| n.as_str()))?;
        let plan = LogicalPlan::Project { input: Box::new(self.plan), exprs: projected };
        DataFrame::from_plan(self.session, plan)
    }

    /// Hash-join with `right`; `self` is the build side, `right` the probe
    /// side, and `on` pairs are `(left column, right column)` equalities.
    /// The engine's column namespace is flat, so the two frames must not
    /// share column names.
    pub fn join(
        self,
        right: DataFrame,
        on: &[(&str, &str)],
        join_type: JoinType,
    ) -> Result<DataFrame> {
        for (left_key, right_key) in on {
            let left_type = self.schema.data_type(left_key).map_err(|_| {
                QuokkaError::PlanError(format!(
                    "join key '{left_key}' is not a column of the left frame{}",
                    suggest(left_key, self.schema.column_names())
                ))
            })?;
            let right_type = right.schema.data_type(right_key).map_err(|_| {
                QuokkaError::PlanError(format!(
                    "join key '{right_key}' is not a column of the right frame{}",
                    suggest(right_key, right.schema.column_names())
                ))
            })?;
            if left_type != right_type {
                return Err(QuokkaError::TypeError(format!(
                    "join key type mismatch: '{left_key}' is {left_type} but \
                     '{right_key}' is {right_type}"
                )));
            }
        }
        if matches!(join_type, JoinType::Inner | JoinType::Left) {
            if let Some(dup) =
                right.schema.column_names().into_iter().find(|n| self.schema.index_of(n).is_ok())
            {
                return Err(QuokkaError::PlanError(format!(
                    "joining would duplicate column '{dup}'; the engine's namespace is flat, \
                     so select/rename columns apart before joining"
                )));
            }
        }
        let plan = LogicalPlan::Join {
            build: Box::new(self.plan),
            probe: Box::new(right.plan),
            on: on.iter().map(|(l, r)| (l.to_string(), r.to_string())).collect(),
            join_type,
        };
        DataFrame::from_plan(self.session, plan)
    }

    /// Keep this frame's rows that have at least one match in `right` — a
    /// decorrelated `WHERE EXISTS` / `IN (SELECT ...)`. `on` pairs are
    /// `(this frame's column, right's column)` equalities; the output
    /// schema is exactly this frame's schema (no columns of `right`
    /// survive), so column names may overlap freely.
    pub fn semi_join(self, right: DataFrame, on: &[(&str, &str)]) -> Result<DataFrame> {
        self.existence_join(right, on, JoinType::Semi)
    }

    /// Keep this frame's rows with *no* match in `right` — a decorrelated
    /// `WHERE NOT EXISTS` / `NOT IN (SELECT ...)`. Same key convention and
    /// schema behavior as [`semi_join`](Self::semi_join).
    pub fn anti_join(self, right: DataFrame, on: &[(&str, &str)]) -> Result<DataFrame> {
        self.existence_join(right, on, JoinType::Anti)
    }

    fn existence_join(
        self,
        right: DataFrame,
        on: &[(&str, &str)],
        join_type: JoinType,
    ) -> Result<DataFrame> {
        for (left_key, right_key) in on {
            let left_type = self.schema.data_type(left_key).map_err(|_| {
                QuokkaError::PlanError(format!(
                    "join key '{left_key}' is not a column of this frame{}",
                    suggest(left_key, self.schema.column_names())
                ))
            })?;
            let right_type = right.schema.data_type(right_key).map_err(|_| {
                QuokkaError::PlanError(format!(
                    "join key '{right_key}' is not a column of the right frame{}",
                    suggest(right_key, right.schema.column_names())
                ))
            })?;
            if left_type != right_type {
                return Err(QuokkaError::TypeError(format!(
                    "join key type mismatch: '{left_key}' is {left_type} but \
                     '{right_key}' is {right_type}"
                )));
            }
        }
        // The engine's semi/anti join emits *probe* rows matched (or not)
        // against the build side, so this frame is the probe and `right`
        // the build.
        let plan = LogicalPlan::Join {
            build: Box::new(right.plan),
            probe: Box::new(self.plan),
            on: on.iter().map(|(l, r)| (r.to_string(), l.to_string())).collect(),
            join_type,
        };
        DataFrame::from_plan(self.session, plan)
    }

    /// Group by key expressions, yielding a [`GroupedDataFrame`] whose
    /// [`agg`](GroupedDataFrame::agg) produces the aggregated frame. Keys
    /// accept the same bare-or-aliased forms as [`select`](Self::select).
    pub fn group_by<I>(self, keys: I) -> Result<GroupedDataFrame>
    where
        I: IntoIterator,
        I::Item: Into<NamedExpr>,
    {
        let mut group_by = Vec::new();
        for (i, item) in keys.into_iter().enumerate() {
            let named: NamedExpr = item.into();
            self.check_expr(&named.expr, "group_by")?;
            let name = named.resolve_name(i);
            group_by.push((named.expr, name));
        }
        Ok(GroupedDataFrame { frame: self, group_by })
    }

    /// Aggregate the whole frame into a single row (grouping by nothing).
    pub fn agg<I>(self, aggs: I) -> Result<DataFrame>
    where
        I: IntoIterator<Item = Agg>,
    {
        self.group_by(Vec::<NamedExpr>::new())?.agg(aggs)
    }

    /// Deduplicate rows (SQL `SELECT DISTINCT`): an aggregation over every
    /// column with no aggregate calls.
    pub fn distinct(self) -> Result<DataFrame> {
        let group_by = self
            .schema
            .column_names()
            .iter()
            .map(|n| (Expr::Column(n.to_string()), n.to_string()))
            .collect();
        let plan =
            LogicalPlan::Aggregate { input: Box::new(self.plan), group_by, aggregates: vec![] };
        DataFrame::from_plan(self.session, plan)
    }

    /// Sort by key expressions (`true` = ascending). Plain column keys sort
    /// directly; computed keys are lowered through hidden sort columns and
    /// projected away again, so the output schema is unchanged. This is the
    /// same lowering the SQL frontend's `ORDER BY` uses.
    pub fn sort<I>(self, keys: I) -> Result<DataFrame>
    where
        I: IntoIterator<Item = (Expr, bool)>,
    {
        self.sort_inner(keys, None)
    }

    /// Sort with a top-k limit (`ORDER BY ... LIMIT n`).
    pub fn sort_limit<I>(self, keys: I, limit: usize) -> Result<DataFrame>
    where
        I: IntoIterator<Item = (Expr, bool)>,
    {
        self.sort_inner(keys, Some(limit))
    }

    fn sort_inner(
        self,
        keys: impl IntoIterator<Item = (Expr, bool)>,
        limit: Option<usize>,
    ) -> Result<DataFrame> {
        let keys: Vec<(Expr, bool)> = keys.into_iter().collect();
        for (key, _) in &keys {
            self.check_expr(key, "sort")?;
        }
        let plan = sort_by_exprs(self.plan, keys, limit)?;
        DataFrame::from_plan(self.session, plan)
    }

    /// Keep the first `n` rows.
    pub fn limit(self, n: usize) -> Result<DataFrame> {
        let plan = LogicalPlan::Limit { input: Box::new(self.plan), n };
        DataFrame::from_plan(self.session, plan)
    }

    /// Add a computed column named `name`, keeping every existing column.
    /// If a column of that name already exists, it is replaced in place
    /// (same position, new value) rather than duplicated.
    ///
    /// ```
    /// use quokka::dataframe::{col, lit};
    /// # let session = quokka::QuokkaSession::tpch(0.002, 2).unwrap();
    /// let frame = session
    ///     .table("lineitem").unwrap()
    ///     .with_column("net", col("l_extendedprice").mul(lit(1.0f64).sub(col("l_discount"))))
    ///     .unwrap();
    /// assert!(frame.schema().column_names().contains(&"net"));
    /// ```
    pub fn with_column(self, name: impl Into<String>, expr: Expr) -> Result<DataFrame> {
        let name = name.into();
        self.check_expr(&expr, "with_column")?;
        let mut projected: Vec<(Expr, String)> = Vec::with_capacity(self.schema.len() + 1);
        let mut replaced = false;
        for existing in self.schema.column_names() {
            if existing == name {
                projected.push((expr.clone(), name.clone()));
                replaced = true;
            } else {
                projected.push((Expr::Column(existing.to_string()), existing.to_string()));
            }
        }
        if !replaced {
            projected.push((expr, name));
        }
        let plan = LogicalPlan::Project { input: Box::new(self.plan), exprs: projected };
        DataFrame::from_plan(self.session, plan)
    }

    /// Rename a column, keeping its position and every other column
    /// unchanged. The typical use is pulling the column namespaces of two
    /// frames apart before a [`join`](Self::join) (the engine's namespace
    /// is flat, so inner/left joins reject overlapping names).
    ///
    /// ```
    /// use quokka::dataframe::col;
    /// use quokka::JoinType;
    /// # let session = quokka::QuokkaSession::tpch(0.002, 2).unwrap();
    /// let left = session.table("nation").unwrap();
    /// let right = session
    ///     .table("nation").unwrap()
    ///     .rename("n_nationkey", "r_nationkey").unwrap()
    ///     .rename("n_name", "r_name").unwrap()
    ///     .rename("n_regionkey", "r_regionkey").unwrap()
    ///     .rename("n_comment", "r_comment").unwrap();
    /// let joined = left.join(right, &[("n_regionkey", "r_regionkey")], JoinType::Inner).unwrap();
    /// assert_eq!(joined.schema().len(), 8);
    /// ```
    pub fn rename(self, from: &str, to: impl Into<String>) -> Result<DataFrame> {
        let to = to.into();
        if self.schema.index_of(from).is_err() {
            return Err(QuokkaError::PlanError(format!(
                "rename: unknown column '{from}'{} (columns: [{}])",
                suggest(from, self.schema.column_names()),
                self.schema.column_names().join(", ")
            )));
        }
        if to != from && self.schema.index_of(&to).is_ok() {
            return Err(QuokkaError::PlanError(format!(
                "rename: target '{to}' already names a column; drop or rename it first"
            )));
        }
        let projected = self
            .schema
            .column_names()
            .iter()
            .map(|&existing| {
                let output = if existing == from { to.clone() } else { existing.to_string() };
                (Expr::Column(existing.to_string()), output)
            })
            .collect();
        let plan = LogicalPlan::Project { input: Box::new(self.plan), exprs: projected };
        DataFrame::from_plan(self.session, plan)
    }

    /// Finish building: the frame as an executable [`QueryHandle`] (the
    /// same handle type SQL statements produce). The plan was validated at
    /// every builder step, so this cannot fail.
    pub fn handle(&self) -> QueryHandle {
        self.session.query_validated(self.plan.clone())
    }

    /// Execute on the simulated cluster, streaming result batches as they
    /// are produced.
    pub fn stream(&self) -> Result<BatchStream> {
        self.handle().stream()
    }

    /// Execute on the simulated cluster and materialize the full result.
    pub fn collect(&self) -> Result<QueryOutcome> {
        self.handle().collect()
    }

    /// Execute under an explicit engine configuration.
    pub fn collect_with(&self, config: &crate::EngineConfig) -> Result<QueryOutcome> {
        self.handle().collect_with(config)
    }

    /// Execute on the single-threaded reference executor.
    pub fn collect_reference(&self) -> Result<Batch> {
        self.handle().collect_reference()
    }

    /// The plan rendered before and after optimization.
    pub fn explain(&self) -> Result<String> {
        Ok(self.handle().explain())
    }

    /// Validate that `expr` only references this frame's columns, with a
    /// "did you mean" suggestion on the first unknown name.
    fn check_expr(&self, expr: &Expr, context: &str) -> Result<()> {
        for name in expr.referenced_columns() {
            if self.schema.index_of(&name).is_err() {
                return Err(QuokkaError::PlanError(format!(
                    "{context}: unknown column '{name}'{} (columns: [{}])",
                    suggest(&name, self.schema.column_names()),
                    self.schema.column_names().join(", ")
                )));
            }
        }
        Ok(())
    }
}

/// A [`DataFrame`] with grouping keys attached, waiting for its aggregates.
#[derive(Debug, Clone)]
pub struct GroupedDataFrame {
    frame: DataFrame,
    group_by: Vec<(Expr, String)>,
}

impl GroupedDataFrame {
    /// Apply aggregate functions, producing one row per group (one row
    /// total when grouping by nothing).
    pub fn agg<I>(self, aggs: I) -> Result<DataFrame>
    where
        I: IntoIterator<Item = Agg>,
    {
        let mut aggregates = Vec::new();
        for (i, agg) in aggs.into_iter().enumerate() {
            self.frame.check_expr(&agg.expr, "agg")?;
            aggregates.push(agg.into_agg_expr(i));
        }
        if aggregates.is_empty() && self.group_by.is_empty() {
            return Err(QuokkaError::PlanError(
                "aggregation needs at least one group key or aggregate".to_string(),
            ));
        }
        check_unique(
            self.group_by
                .iter()
                .map(|(_, n)| n.as_str())
                .chain(aggregates.iter().map(|a| a.alias.as_str())),
        )?;
        let plan = LogicalPlan::Aggregate {
            input: Box::new(self.frame.plan),
            group_by: self.group_by,
            aggregates,
        };
        DataFrame::from_plan(self.frame.session, plan)
    }
}

/// The output namespace must be duplicate-free: resolution by name would
/// otherwise silently read the first occurrence.
fn check_unique<'a>(names: impl Iterator<Item = &'a str>) -> Result<()> {
    let mut seen = std::collections::BTreeSet::new();
    for name in names {
        if !seen.insert(name) {
            return Err(QuokkaError::PlanError(format!(
                "duplicate output column '{name}'; disambiguate with .alias(..)"
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{results_match, EngineConfig};
    use quokka_batch::Column;

    fn session() -> QuokkaSession {
        let session = QuokkaSession::new(EngineConfig::quokka(2));
        let schema = Schema::from_pairs(&[
            ("k", DataType::Int64),
            ("v", DataType::Float64),
            ("tag", DataType::Utf8),
        ]);
        let batch = Batch::try_new(
            schema.clone(),
            vec![
                Column::Int64((0..100).collect()),
                Column::Float64((0..100).map(|i| i as f64 * 0.5).collect()),
                Column::Utf8((0..100).map(|i| format!("t{}", i % 3)).collect()),
            ],
        )
        .unwrap();
        session.register_table("events", schema, batch.chunks(16));
        session
    }

    #[test]
    fn errors_surface_at_build_time_with_suggestions() {
        let s = session();
        let err = s.table("event").unwrap_err();
        assert!(err.to_string().contains("did you mean 'events'"), "{err}");

        let err = s.table("events").unwrap().filter(col("vv").gt(lit(1.0f64))).unwrap_err();
        assert!(err.to_string().contains("did you mean 'v'"), "{err}");

        // A non-boolean filter is a type error, not a runtime failure.
        let err = s.table("events").unwrap().filter(col("v").add(lit(1.0f64))).unwrap_err();
        assert!(err.to_string().contains("must be Bool"), "{err}");

        // Duplicate output names are rejected.
        let err =
            s.table("events").unwrap().select([col("k").into(), col("v").alias("k")]).unwrap_err();
        assert!(err.to_string().contains("duplicate output column"), "{err}");
    }

    #[test]
    fn frames_are_lazy_and_composable() {
        let s = session();
        let base = s.table("events").unwrap().filter(col("k").lt(lit(50i64))).unwrap();
        // Shared prefix, two derived queries.
        let by_tag = base
            .clone()
            .group_by([col("tag")])
            .unwrap()
            .agg([sum(col("v")).alias("total"), count(col("k")).alias("n")])
            .unwrap()
            .sort([(col("tag"), true)])
            .unwrap();
        let top =
            base.select([col("k"), col("v")]).unwrap().sort_limit([(col("v"), false)], 3).unwrap();

        let by_tag_result = by_tag.collect().unwrap();
        assert_eq!(by_tag_result.batch.schema().column_names(), vec!["tag", "total", "n"]);
        assert_eq!(by_tag_result.batch.num_rows(), 3);
        assert!(results_match(&by_tag_result.batch, &by_tag.collect_reference().unwrap()));

        let top_result = top.collect().unwrap();
        assert_eq!(top_result.batch.num_rows(), 3);
        assert!(results_match(&top_result.batch, &top.collect_reference().unwrap()));
    }

    #[test]
    fn computed_sort_keys_and_distinct() {
        let s = session();
        let frame = s
            .table("events")
            .unwrap()
            .select([col("tag")])
            .unwrap()
            .distinct()
            .unwrap()
            .sort([(Expr::case_when(col("tag").eq(lit("t1")), lit(0i64), lit(1i64)), true)])
            .unwrap();
        let batch = frame.collect().unwrap().batch;
        assert_eq!(batch.num_rows(), 3);
        assert_eq!(batch.schema().column_names(), vec!["tag"]);
        // t1 sorts first through the hidden CASE key.
        assert_eq!(batch.value(0, 0), ScalarValue::Utf8("t1".into()));
    }

    #[test]
    fn join_validation_matches_binder_rules() {
        let s = session();
        let dims = Schema::from_pairs(&[("d_k", DataType::Int64), ("d_name", DataType::Utf8)]);
        s.register_table(
            "dims",
            dims.clone(),
            vec![Batch::try_new(
                dims,
                vec![
                    Column::Int64((0..3).collect()),
                    Column::Utf8((0..3).map(|i| format!("d{i}")).collect()),
                ],
            )
            .unwrap()],
        );
        let joined = s
            .table("dims")
            .unwrap()
            .join(s.table("events").unwrap(), &[("d_k", "k")], JoinType::Inner)
            .unwrap();
        assert_eq!(joined.schema().len(), 5);
        let outcome = joined.collect().unwrap();
        assert!(results_match(&outcome.batch, &joined.collect_reference().unwrap()));

        let err = s
            .table("dims")
            .unwrap()
            .join(s.table("events").unwrap(), &[("d_k", "kk")], JoinType::Inner)
            .unwrap_err();
        assert!(err.to_string().contains("did you mean 'k'"), "{err}");

        let err = s
            .table("dims")
            .unwrap()
            .join(s.table("events").unwrap(), &[("d_name", "k")], JoinType::Inner)
            .unwrap_err();
        assert!(err.to_string().contains("type mismatch"), "{err}");

        let err = s
            .table("events")
            .unwrap()
            .join(s.table("events").unwrap(), &[("k", "k")], JoinType::Inner)
            .unwrap_err();
        assert!(err.to_string().contains("duplicate column"), "{err}");
    }

    #[test]
    fn semi_and_anti_joins_keep_this_frames_schema() {
        let s = session();
        let dims = Schema::from_pairs(&[("d_k", DataType::Int64), ("d_name", DataType::Utf8)]);
        s.register_table(
            "dims",
            dims.clone(),
            vec![Batch::try_new(
                dims,
                vec![
                    Column::Int64((0..3).collect()),
                    Column::Utf8((0..3).map(|i| format!("d{i}")).collect()),
                ],
            )
            .unwrap()],
        );
        // events.k in 0..100; dims.d_k in 0..3.
        let semi = s
            .table("events")
            .unwrap()
            .semi_join(s.table("dims").unwrap(), &[("k", "d_k")])
            .unwrap();
        assert_eq!(semi.schema().column_names(), vec!["k", "v", "tag"]);
        let semi_result = semi.collect().unwrap();
        assert_eq!(semi_result.batch.num_rows(), 3);
        assert!(results_match(&semi_result.batch, &semi.collect_reference().unwrap()));

        let anti = s
            .table("events")
            .unwrap()
            .anti_join(s.table("dims").unwrap(), &[("k", "d_k")])
            .unwrap();
        assert_eq!(anti.collect().unwrap().batch.num_rows(), 97);

        // Key validation matches the inner-join rules.
        let err = s
            .table("events")
            .unwrap()
            .semi_join(s.table("dims").unwrap(), &[("kk", "d_k")])
            .unwrap_err();
        assert!(err.to_string().contains("did you mean 'k'"), "{err}");
        let err = s
            .table("events")
            .unwrap()
            .anti_join(s.table("dims").unwrap(), &[("tag", "d_k")])
            .unwrap_err();
        assert!(err.to_string().contains("type mismatch"), "{err}");
    }

    #[test]
    fn with_column_adds_replaces_and_validates() {
        let s = session();
        let frame =
            s.table("events").unwrap().with_column("double_v", col("v").mul(lit(2.0f64))).unwrap();
        assert_eq!(frame.schema().column_names(), vec!["k", "v", "tag", "double_v"]);
        let batch = frame.clone().sort([(col("k"), true)]).unwrap().collect().unwrap().batch;
        assert_eq!(batch.value(1, 3), ScalarValue::Float64(1.0));
        assert!(results_match(
            &batch,
            &frame.sort([(col("k"), true)]).unwrap().collect_reference().unwrap()
        ));

        // Replacing keeps the column's position.
        let replaced =
            s.table("events").unwrap().with_column("v", col("v").add(lit(1.0f64))).unwrap();
        assert_eq!(replaced.schema().column_names(), vec!["k", "v", "tag"]);
        let batch = replaced.sort([(col("k"), true)]).unwrap().collect().unwrap().batch;
        assert_eq!(batch.value(0, 1), ScalarValue::Float64(1.0));

        let err =
            s.table("events").unwrap().with_column("x", col("vv").add(lit(1.0f64))).unwrap_err();
        assert!(err.to_string().contains("did you mean 'v'"), "{err}");
    }

    #[test]
    fn rename_unblocks_overlapping_join_namespaces() {
        let s = session();
        let renamed = s.table("events").unwrap().rename("k", "k2").unwrap();
        assert_eq!(renamed.schema().column_names(), vec!["k2", "v", "tag"]);

        // A self-join is possible once every shared column is renamed apart.
        let right = renamed.rename("v", "v2").unwrap().rename("tag", "tag2").unwrap();
        let joined =
            s.table("events").unwrap().join(right, &[("k", "k2")], JoinType::Inner).unwrap();
        assert_eq!(joined.schema().len(), 6);
        let outcome = joined.collect().unwrap();
        assert_eq!(outcome.batch.num_rows(), 100);
        assert!(results_match(&outcome.batch, &joined.collect_reference().unwrap()));

        let err = s.table("events").unwrap().rename("kk", "x").unwrap_err();
        assert!(err.to_string().contains("did you mean 'k'"), "{err}");
        let err = s.table("events").unwrap().rename("k", "v").unwrap_err();
        assert!(err.to_string().contains("already names a column"), "{err}");
    }

    #[test]
    fn date_helper_matches_parsed_dates() {
        assert_eq!(
            date(1998, 9, 2),
            Expr::Literal(ScalarValue::Date(quokka_batch::datatype::parse_date("1998-09-02")))
        );
    }
}
