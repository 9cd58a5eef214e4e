//! Rule-based logical optimizer.
//!
//! Both frontends — the [`PlanBuilder`](crate::logical::PlanBuilder) DSL and
//! the SQL binder — emit plans exactly as written: `WHERE` filters above the
//! join tree, scans that materialize every column, and whatever build/probe
//! order the query author happened to choose. This module rewrites those
//! naive plans into the shape a columnar, shuffle-based engine wants to
//! execute: selections evaluated at (or fused into) the scans, scans that
//! read only the columns the query references, equi-joins recovered from
//! cross joins, the smaller input on the build side of each hash join, and
//! top-k limits folded into their sorts.
//!
//! Every rule preserves the plan's output schema and its result multiset —
//! the optimized and unoptimized plan of any query must be observationally
//! identical on the reference executor and on the distributed runtime
//! (including under fault injection). [`Optimizer::optimize`] re-derives the
//! output schema after rewriting and fails loudly if a rule ever broke that
//! contract.
//!
//! The rules, in pipeline order:
//!
//! 0. **Subquery decorrelation** — subquery expressions produced by the SQL
//!    binder ([`Expr::Exists`], [`Expr::InSubquery`], [`Expr::ScalarSubquery`])
//!    are rewritten into the join shapes the hand-built TPC-H plans use:
//!    `EXISTS`/`IN` become semi joins, `NOT EXISTS`/`NOT IN` become anti
//!    joins, uncorrelated scalar aggregates become constant-key joins, and
//!    correlated scalar aggregates become group-by + join. This is a
//!    *lowering*, not an optional optimization: the engine runs it even when
//!    [`EngineConfig::optimize`](quokka_common::EngineConfig) is disabled,
//!    so no subquery node ever reaches stage compilation.
//! 1. **Constant folding** — fold column-free subexpressions into literals
//!    (through the same columnar evaluator the runtime uses) and apply the
//!    boolean identities; `Filter(true)` nodes disappear.
//! 2. **Filter merging** — adjacent filters collapse into one conjunction.
//! 3. **Predicate pushdown** — filters sink below projections (with
//!    column-reference substitution), below sorts, into the matching side of
//!    inner joins (probe side only for the outer-ish variants), through
//!    group-key columns of aggregations, and down to the scans, where stage
//!    fusion evaluates them inside the scan tasks.
//! 4. **Filter → join conversion** — an equality conjunct relating the two
//!    sides of an inner join becomes a hash-join key; a cross join (as
//!    lowered from a comma-separated `FROM` list) plus `WHERE` equality
//!    becomes an ordinary equi-join.
//! 5. **Build-side selection** — using catalog row counts, the smaller
//!    estimated input of an inner join becomes the build (hash-table) side;
//!    a reordering projection keeps the output schema identical.
//! 6. **Top-k pushdown** — `Limit` over `Sort` becomes a top-k sort.
//! 7. **Projection pruning** — scans are narrowed to the columns the rest of
//!    the plan actually references (re-derived *after* pushdown, so pushed
//!    predicates keep their columns alive at the scan but nowhere above it),
//!    and filters and joins get a projection onto the columns their parent
//!    reads, so a column only a predicate or a join key needs is dropped in
//!    that node's stage instead of shuffled onward.

use crate::catalog::Catalog;
use crate::expr::{CmpOpKind, Expr};
use crate::logical::{JoinType, LogicalPlan};
use quokka_batch::datatype::ScalarValue;
use quokka_batch::Schema;
use quokka_common::{QuokkaError, Result};
use std::collections::BTreeSet;

/// Default row-count estimate for tables the statistics source cannot
/// answer for.
const DEFAULT_TABLE_ROWS: f64 = 1000.0;

/// Fraction of rows assumed to survive a filter when estimating join input
/// sizes. The exact value matters little: build-side selection only compares
/// the two sides of one join.
const FILTER_SELECTIVITY: f64 = 0.25;

/// The rule names, in pipeline order (EXPLAIN and docs reference these).
pub const RULE_NAMES: [&str; 8] = [
    "decorrelate_subqueries",
    "fold_constants",
    "merge_filters",
    "push_down_filters",
    "filter_to_join",
    "choose_build_side",
    "push_down_topk",
    "prune_scan_columns",
];

/// Rule-based plan rewriter. Construct with [`Optimizer::new`] (no
/// statistics: build-side selection is skipped) or
/// [`Optimizer::with_catalog`] (row counts drive build-side selection).
pub struct Optimizer<'a> {
    catalog: Option<&'a dyn Catalog>,
}

impl Default for Optimizer<'_> {
    fn default() -> Self {
        Self::new()
    }
}

impl<'a> Optimizer<'a> {
    /// An optimizer without table statistics.
    pub fn new() -> Self {
        Optimizer { catalog: None }
    }

    /// An optimizer that reads row-count estimates from `catalog`.
    pub fn with_catalog(catalog: &'a dyn Catalog) -> Self {
        Optimizer { catalog: Some(catalog) }
    }

    /// Run the full rule pipeline over `plan`.
    ///
    /// The output schema is guaranteed identical to the input plan's; a rule
    /// that would change it is a bug and reported as a `PlanError`.
    pub fn optimize(&self, plan: &LogicalPlan) -> Result<LogicalPlan> {
        let original_schema = plan.schema()?;
        let mut optimized = decorrelate(plan.clone())?;
        optimized = fold_constants(optimized)?;
        optimized = merge_filters(optimized)?;
        optimized = push_down_filters(optimized)?;
        optimized = filter_to_join(optimized)?;
        // Conversion can leave a filter directly above a join whose conjuncts
        // now all belong to one side; give them a second chance to sink.
        optimized = push_down_filters(optimized)?;
        optimized = self.choose_build_side(optimized)?;
        optimized = push_down_topk(optimized)?;
        let required: BTreeSet<String> =
            original_schema.column_names().iter().map(|s| s.to_string()).collect();
        optimized = prune_scan_columns(optimized, &required)?;
        let new_schema = optimized.schema()?;
        if new_schema != original_schema {
            return Err(QuokkaError::PlanError(format!(
                "optimizer changed the output schema from {original_schema} to {new_schema}\n{}",
                optimized.display_indent()
            )));
        }
        Ok(optimized)
    }

    /// Apply a single rule from [`RULE_NAMES`] (tests use this to check
    /// that every rule independently preserves schemas and results).
    pub fn apply_rule(&self, name: &str, plan: &LogicalPlan) -> Result<LogicalPlan> {
        let plan = plan.clone();
        match name {
            "decorrelate_subqueries" => decorrelate(plan),
            "fold_constants" => fold_constants(plan),
            "merge_filters" => merge_filters(plan),
            "push_down_filters" => push_down_filters(plan),
            "filter_to_join" => filter_to_join(plan),
            "choose_build_side" => self.choose_build_side(plan),
            "push_down_topk" => push_down_topk(plan),
            "prune_scan_columns" => {
                let required: BTreeSet<String> =
                    plan.schema()?.column_names().iter().map(|s| s.to_string()).collect();
                prune_scan_columns(plan, &required)
            }
            other => Err(QuokkaError::PlanError(format!("unknown optimizer rule '{other}'"))),
        }
    }

    // -- rule 5: build-side selection ---------------------------------------

    /// Swap the sides of an inner join when the probe input is estimated to
    /// be smaller than the build input, so the hash table is built over the
    /// smaller side. A projection restores the original column order.
    fn choose_build_side(&self, plan: LogicalPlan) -> Result<LogicalPlan> {
        let Some(catalog) = self.catalog else { return Ok(plan) };
        plan.transform_up(&mut |node| {
            let LogicalPlan::Join { build, probe, on, join_type: JoinType::Inner } = node else {
                return Ok(node);
            };
            let build_schema = build.schema()?;
            let probe_schema = probe.schema()?;
            // Reordering needs name-based resolution over the join output,
            // which duplicate names across sides would make ambiguous.
            let distinct_names =
                build_schema.column_names().iter().all(|n| probe_schema.index_of(n).is_err());
            // 1.5x hysteresis: near-equal sides keep the author's order.
            let should_swap = distinct_names
                && estimate_rows(&build, catalog) > 1.5 * estimate_rows(&probe, catalog);
            if !should_swap {
                return Ok(LogicalPlan::Join { build, probe, on, join_type: JoinType::Inner });
            }
            let swapped = LogicalPlan::Join {
                build: probe,
                probe: build,
                on: on.into_iter().map(|(b, p)| (p, b)).collect(),
                join_type: JoinType::Inner,
            };
            let reorder = build_schema
                .column_names()
                .iter()
                .chain(probe_schema.column_names().iter())
                .map(|name| (Expr::Column(name.to_string()), name.to_string()))
                .collect();
            Ok(LogicalPlan::Project { input: Box::new(swapped), exprs: reorder })
        })
    }
}

/// Row-count estimate for a subplan, from catalog statistics plus coarse
/// per-operator selectivities. Only the *relative* order of the two sides of
/// a join matters, so the constants are deliberately crude.
fn estimate_rows(plan: &LogicalPlan, catalog: &dyn Catalog) -> f64 {
    match plan {
        LogicalPlan::Scan { table, .. } => {
            catalog.table_rows(table).map(|r| r as f64).unwrap_or(DEFAULT_TABLE_ROWS).max(1.0)
        }
        LogicalPlan::Filter { input, .. } => FILTER_SELECTIVITY * estimate_rows(input, catalog),
        LogicalPlan::Project { input, .. } => estimate_rows(input, catalog),
        LogicalPlan::Join { build, probe, join_type, .. } => {
            let b = estimate_rows(build, catalog);
            let p = estimate_rows(probe, catalog);
            match join_type {
                // A foreign-key equi-join produces about as many rows as its
                // larger (fact) side.
                JoinType::Inner | JoinType::Left => b.max(p),
                JoinType::Semi | JoinType::Anti => 0.5 * p,
            }
        }
        LogicalPlan::Aggregate { input, group_by, .. } => {
            if group_by.is_empty() {
                1.0
            } else {
                0.25 * estimate_rows(input, catalog)
            }
        }
        LogicalPlan::Sort { input, limit, .. } => {
            let rows = estimate_rows(input, catalog);
            limit.map(|n| rows.min(n as f64)).unwrap_or(rows)
        }
        LogicalPlan::Limit { input, n } => estimate_rows(input, catalog).min(*n as f64),
    }
}

// -- rule 0: subquery decorrelation ------------------------------------------

/// Whether the plan still holds subquery expressions or correlated outer
/// references anywhere (used to skip the rewrite on plain plans and to
/// verify the rewrite left none behind).
pub fn contains_subqueries(plan: &LogicalPlan) -> bool {
    fn expr_has_subquery_or_outer(e: &Expr) -> bool {
        if e.contains_subquery() {
            return true;
        }
        let mut outer = Vec::new();
        e.collect_outer_refs(&mut outer);
        !outer.is_empty()
    }
    plan.expressions().iter().any(|e| expr_has_subquery_or_outer(e))
        || plan.children().iter().any(|c| contains_subqueries(c))
}

/// Rewrite every subquery expression in the plan into joins. This is the
/// mandatory lowering between the frontends (which may emit
/// [`Expr::Exists`] / [`Expr::InSubquery`] / [`Expr::ScalarSubquery`]) and
/// everything downstream: the stage compiler and the reference executor
/// only ever see plans without subquery nodes.
///
/// The rewrites mirror the decorrelations the hand-built TPC-H plans
/// perform by hand:
///
/// * `EXISTS (sq)` as a WHERE conjunct, with equality correlation
///   `inner = outer` inside `sq`, becomes `Join(build: sq', probe: input,
///   on: [(inner, outer)], Semi)` (`Anti` for `NOT EXISTS`).
/// * `col [NOT] IN (sq)` over a one-column subquery becomes a semi (anti)
///   join keyed on `(sq output column, col)` plus any correlation pairs.
/// * A correlated scalar aggregate `cmp(x, (SELECT agg(..) WHERE inner =
///   outer))` turns the subquery's global aggregate into a group-by over
///   the correlation columns and joins it in on `(key, outer)`; the
///   subquery expression is replaced by a reference to the joined value
///   column.
/// * An uncorrelated scalar aggregate is attached through a constant-key
///   join (both sides project a literal `1` key), keeping the join
///   hash-partitionable.
///
/// Rows whose correlated aggregate has no group (SQL: scalar subquery over
/// an empty set yields NULL, and any comparison with NULL is false) are
/// dropped by the inner join — the same semantics the hand-built plans
/// encode.
pub fn decorrelate(plan: LogicalPlan) -> Result<LogicalPlan> {
    if !contains_subqueries(&plan) {
        return Ok(plan);
    }
    let mut counter = 0usize;
    let rewritten = decorrelate_node(plan, &mut counter)?;
    if contains_subqueries(&rewritten) {
        return Err(QuokkaError::PlanError(format!(
            "decorrelation left subquery expressions behind (subqueries are only \
             supported as WHERE/HAVING conjuncts, with equality correlation)\n{}",
            rewritten.display_indent()
        )));
    }
    Ok(rewritten)
}

fn decorrelate_node(plan: LogicalPlan, counter: &mut usize) -> Result<LogicalPlan> {
    plan.transform_up(&mut |node| match node {
        LogicalPlan::Filter { input, predicate } if predicate.contains_subquery() => {
            rewrite_subquery_filter(*input, predicate, counter)
        }
        other => Ok(other),
    })
}

/// Rewrite one `Filter` whose predicate contains subquery expressions.
fn rewrite_subquery_filter(
    input: LogicalPlan,
    predicate: Expr,
    counter: &mut usize,
) -> Result<LogicalPlan> {
    let original_schema = input.schema()?;
    let mut plan = input;
    let mut residual: Vec<Expr> = Vec::new();
    let mut widened = false;
    for conjunct in predicate.split_conjuncts() {
        // Normalize `NOT EXISTS` / `NOT (x IN sq)` written through Expr::Not.
        let conjunct = match conjunct {
            Expr::Not(inner) => match *inner {
                Expr::Exists { plan, negated } => Expr::Exists { plan, negated: !negated },
                Expr::InSubquery { expr, plan, negated } => {
                    Expr::InSubquery { expr, plan, negated: !negated }
                }
                other => Expr::Not(Box::new(other)),
            },
            other => other,
        };
        match conjunct {
            Expr::Exists { plan: sq, negated } => {
                plan = apply_exists(plan, *sq, negated, Vec::new(), counter)?;
            }
            Expr::InSubquery { expr, plan: sq, negated } => {
                let Expr::Column(outer_col) = *expr else {
                    return Err(QuokkaError::PlanError(
                        "IN (SELECT ...) is only supported on a plain column".to_string(),
                    ));
                };
                let sq_schema = sq.schema()?;
                if sq_schema.len() != 1 {
                    return Err(QuokkaError::PlanError(format!(
                        "IN subquery must produce exactly one column, got {}",
                        sq_schema.len()
                    )));
                }
                let inner_col = sq_schema.field(0).name.clone();
                plan = apply_exists(plan, *sq, negated, vec![(inner_col, outer_col)], counter)?;
            }
            other if other.contains_subquery() => {
                let (rewritten, new_plan) = rewrite_scalar_subqueries(other, plan, counter)?;
                plan = new_plan;
                widened = true;
                residual.push(rewritten);
            }
            other => residual.push(other),
        }
    }
    if let Some(p) = Expr::conjoin(residual) {
        plan = LogicalPlan::Filter { input: Box::new(plan), predicate: p };
    }
    if widened {
        // Scalar rewrites joined extra columns in front of the input's; a
        // projection restores the pre-rewrite schema for everything above.
        let passthrough = original_schema
            .column_names()
            .iter()
            .map(|n| (Expr::Column(n.to_string()), n.to_string()))
            .collect();
        plan = LogicalPlan::Project { input: Box::new(plan), exprs: passthrough };
    }
    Ok(plan)
}

/// Attach `sq` to `plan` as a semi (anti) join: `extra_keys` are
/// `(subquery column, outer column)` pairs from an IN test, and `sq`'s own
/// correlated equalities contribute further pairs.
fn apply_exists(
    plan: LogicalPlan,
    sq: LogicalPlan,
    negated: bool,
    extra_keys: Vec<(String, String)>,
    counter: &mut usize,
) -> Result<LogicalPlan> {
    let sq = decorrelate_node(sq, counter)?;
    let (sq, mut pairs) = strip_correlation(sq)?;
    pairs.extend(extra_keys);
    // A row limit inside a *correlated* subquery applies per outer row in
    // SQL, but the decorrelated join would apply it globally — reject
    // rather than silently change which rows exist. (Uncorrelated limits
    // are fine: only emptiness matters to a semi/anti join.)
    if !pairs.is_empty() && has_row_limit(&sq) {
        return Err(QuokkaError::PlanError(
            "LIMIT inside a correlated EXISTS/IN subquery is not supported: the \
             decorrelated limit would apply globally instead of per outer row"
                .to_string(),
        ));
    }
    if pairs.is_empty() {
        // An uncorrelated EXISTS degenerates to a keyless semi/anti join
        // ("keep all rows iff the subquery is non-empty"), which the join
        // operator executes single-channel.
        let join_type = if negated { JoinType::Anti } else { JoinType::Semi };
        return Ok(LogicalPlan::Join {
            build: Box::new(sq),
            probe: Box::new(plan),
            on: vec![],
            join_type,
        });
    }
    let sq_schema = sq.schema()?;
    let plan_schema = plan.schema()?;
    for (inner, outer) in &pairs {
        let inner_type = sq_schema.data_type(inner).map_err(|_| {
            QuokkaError::PlanError(format!(
                "correlated column '{inner}' is not visible in the subquery's output \
                 (it may have been projected away); cannot decorrelate"
            ))
        })?;
        let outer_type = plan_schema.data_type(outer)?;
        if inner_type != outer_type {
            return Err(QuokkaError::PlanError(format!(
                "correlated join key type mismatch: '{inner}' is {inner_type} but \
                 '{outer}' is {outer_type}"
            )));
        }
    }
    let join_type = if negated { JoinType::Anti } else { JoinType::Semi };
    Ok(LogicalPlan::Join { build: Box::new(sq), probe: Box::new(plan), on: pairs, join_type })
}

/// Replace every [`Expr::ScalarSubquery`] inside `expr` with a column
/// reference to the subquery's joined-in value, extending `plan` with the
/// join that carries it.
fn rewrite_scalar_subqueries(
    expr: Expr,
    plan: LogicalPlan,
    counter: &mut usize,
) -> Result<(Expr, LogicalPlan)> {
    match expr {
        Expr::ScalarSubquery(sq) => {
            let id = *counter;
            *counter += 1;
            let sq = decorrelate_node(*sq, counter)?;
            let (sq, pairs) = strip_correlation(sq)?;
            let value_name = format!("__sq{id}_val");
            if pairs.is_empty() {
                let plan = attach_uncorrelated_scalar(plan, sq, id, &value_name)?;
                Ok((Expr::Column(value_name), plan))
            } else {
                let plan = attach_correlated_scalar(plan, sq, pairs, id, &value_name)?;
                Ok((Expr::Column(value_name), plan))
            }
        }
        Expr::Exists { .. } | Expr::InSubquery { .. } => Err(QuokkaError::PlanError(
            "EXISTS / IN subqueries are only supported as top-level WHERE or HAVING \
             conjuncts (not nested under OR, CASE, or other operators)"
                .to_string(),
        )),
        // The inner-join rewrite drops rows whose correlated aggregate has
        // no group *before* the predicate runs — sound only when the whole
        // conjunct is false without the value. Under OR (the other disjunct
        // could keep the row) or CASE (the ELSE branch could) that would
        // silently return wrong rows, so fail loudly instead.
        Expr::Or(l, r) if l.contains_subquery() || r.contains_subquery() => {
            Err(QuokkaError::PlanError(
                "scalar subqueries under OR are not supported: rows without a matching \
                 subquery value would be dropped before the other disjunct could keep them"
                    .to_string(),
            ))
        }
        e @ Expr::Case { .. } if e.contains_subquery() => Err(QuokkaError::PlanError(
            "scalar subqueries inside CASE are not supported: rows without a matching \
             subquery value would be dropped instead of taking another branch"
                .to_string(),
        )),
        other => {
            // Rebuild this node with each child rewritten, threading the
            // growing plan through.
            let mut plan = Some(plan);
            let mut error = None;
            let rewritten = other.map_children(&mut |child| {
                if error.is_some() {
                    return child;
                }
                match rewrite_scalar_subqueries(child, plan.take().expect("plan threaded"), counter)
                {
                    Ok((e, p)) => {
                        plan = Some(p);
                        e
                    }
                    Err(e) => {
                        error = Some(e);
                        Expr::Literal(ScalarValue::Bool(false))
                    }
                }
            });
            match error {
                Some(e) => Err(e),
                None => Ok((rewritten, plan.expect("plan threaded"))),
            }
        }
    }
}

/// Constant-key join for an uncorrelated scalar subquery: both sides gain a
/// literal `1` key column, so the value lands on every input row while the
/// join stays an ordinary hash join.
fn attach_uncorrelated_scalar(
    plan: LogicalPlan,
    sq: LogicalPlan,
    id: usize,
    value_name: &str,
) -> Result<LogicalPlan> {
    let sq_schema = sq.schema()?;
    if sq_schema.len() != 1 {
        return Err(QuokkaError::PlanError(format!(
            "scalar subquery must produce exactly one column, got {}",
            sq_schema.len()
        )));
    }
    let build_key = format!("__sq{id}_jkb");
    let probe_key = format!("__sq{id}_jkp");
    let build = LogicalPlan::Project {
        input: Box::new(sq),
        exprs: vec![
            (Expr::Column(sq_schema.field(0).name.clone()), value_name.to_string()),
            (Expr::Literal(ScalarValue::Int64(1)), build_key.clone()),
        ],
    };
    let plan_schema = plan.schema()?;
    let mut probe_exprs: Vec<(Expr, String)> = plan_schema
        .column_names()
        .iter()
        .map(|n| (Expr::Column(n.to_string()), n.to_string()))
        .collect();
    probe_exprs.push((Expr::Literal(ScalarValue::Int64(1)), probe_key.clone()));
    let probe = LogicalPlan::Project { input: Box::new(plan), exprs: probe_exprs };
    Ok(LogicalPlan::Join {
        build: Box::new(build),
        probe: Box::new(probe),
        on: vec![(build_key, probe_key)],
        join_type: JoinType::Inner,
    })
}

/// Group-by + join for a correlated scalar aggregate: the subquery's global
/// aggregate gains the correlation columns as group keys (fresh-named), the
/// single output value is renamed, and the result joins onto the outer plan
/// keyed on `(fresh key, outer column)`.
fn attach_correlated_scalar(
    plan: LogicalPlan,
    sq: LogicalPlan,
    pairs: Vec<(String, String)>,
    id: usize,
    value_name: &str,
) -> Result<LogicalPlan> {
    let sq_schema = sq.schema()?;
    if sq_schema.len() != 1 {
        return Err(QuokkaError::PlanError(format!(
            "scalar subquery must produce exactly one column, got {}",
            sq_schema.len()
        )));
    }
    let keys: Vec<(String, String, String)> = pairs
        .iter()
        .enumerate()
        .map(|(i, (inner, outer))| (inner.clone(), outer.clone(), format!("__sq{id}_k{i}")))
        .collect();
    let grouped = push_group_keys(sq, &keys, value_name)?;
    let grouped_schema = grouped.schema()?;
    let plan_schema = plan.schema()?;
    let mut on = Vec::with_capacity(keys.len());
    for (inner, outer, fresh) in &keys {
        let build_type = grouped_schema.data_type(fresh)?;
        let probe_type = plan_schema.data_type(outer).map_err(|_| {
            QuokkaError::PlanError(format!(
                "correlated scalar subquery references outer column '{outer}', which is \
                 not visible where the subquery appears"
            ))
        })?;
        if build_type != probe_type {
            return Err(QuokkaError::PlanError(format!(
                "correlated join key type mismatch: '{inner}' is {build_type} but \
                 '{outer}' is {probe_type}"
            )));
        }
        on.push((fresh.clone(), outer.clone()));
    }
    Ok(LogicalPlan::Join {
        build: Box::new(grouped),
        probe: Box::new(plan),
        on,
        join_type: JoinType::Inner,
    })
}

/// Turn the subquery's global aggregate into a group-by over the correlation
/// columns, threading the fresh key columns through any projection above the
/// aggregate and renaming the single value column to `value_name`.
///
/// Supported shapes (exactly what the SQL binder emits for a single-item
/// aggregate SELECT): `Aggregate` or `Project(Aggregate)`.
fn push_group_keys(
    sq: LogicalPlan,
    keys: &[(String, String, String)],
    value_name: &str,
) -> Result<LogicalPlan> {
    let group_by = |input: &LogicalPlan| -> Result<Vec<(Expr, String)>> {
        let input_schema = input.schema()?;
        keys.iter()
            .map(|(inner, _, fresh)| {
                input_schema.data_type(inner).map_err(|_| {
                    QuokkaError::PlanError(format!(
                        "correlated column '{inner}' is not visible at the subquery's \
                         aggregate input; cannot decorrelate"
                    ))
                })?;
                Ok((Expr::Column(inner.clone()), fresh.clone()))
            })
            .collect()
    };
    match sq {
        LogicalPlan::Aggregate { input, group_by: old, mut aggregates } if old.is_empty() => {
            if aggregates.len() != 1 {
                return Err(QuokkaError::PlanError(
                    "correlated scalar subquery must compute exactly one aggregate".to_string(),
                ));
            }
            let group_by = group_by(&input)?;
            aggregates[0].alias = value_name.to_string();
            Ok(LogicalPlan::Aggregate { input, group_by, aggregates })
        }
        LogicalPlan::Project { input, exprs } => {
            let LogicalPlan::Aggregate { input: agg_input, group_by: old, aggregates } = *input
            else {
                return Err(QuokkaError::PlanError(
                    "correlated scalar subqueries must be a single aggregate (optionally \
                     under one projection); cannot decorrelate this shape"
                        .to_string(),
                ));
            };
            if !old.is_empty() {
                return Err(QuokkaError::PlanError(
                    "correlated scalar subqueries cannot already have GROUP BY".to_string(),
                ));
            }
            if exprs.len() != 1 {
                return Err(QuokkaError::PlanError(format!(
                    "scalar subquery must produce exactly one column, got {}",
                    exprs.len()
                )));
            }
            let group_by = group_by(&agg_input)?;
            let aggregate =
                LogicalPlan::Aggregate { input: agg_input, group_by: group_by.clone(), aggregates };
            let mut projected: Vec<(Expr, String)> = group_by
                .iter()
                .map(|(_, fresh)| (Expr::Column(fresh.clone()), fresh.clone()))
                .collect();
            let (value_expr, _) = exprs.into_iter().next().expect("one expression");
            projected.push((value_expr, value_name.to_string()));
            Ok(LogicalPlan::Project { input: Box::new(aggregate), exprs: projected })
        }
        other => Err(QuokkaError::PlanError(format!(
            "correlated scalar subqueries must be a single aggregate (optionally under \
             one projection), got {} at the subquery root",
            other.name()
        ))),
    }
}

/// Whether the plan limits its row count anywhere (a `Limit` node or a
/// top-k sort).
fn has_row_limit(plan: &LogicalPlan) -> bool {
    match plan {
        LogicalPlan::Limit { .. } | LogicalPlan::Sort { limit: Some(_), .. } => true,
        other => other.children().iter().any(|c| has_row_limit(c)),
    }
}

/// Remove equality conjuncts of the form `inner_column = OuterRef(outer)`
/// (either operand order) from the plan's filters, returning the stripped
/// plan and the `(inner, outer)` pairs. Any other use of an outer reference
/// is left in place and reported by [`decorrelate`]'s final check.
fn strip_correlation(plan: LogicalPlan) -> Result<(LogicalPlan, Vec<(String, String)>)> {
    let mut pairs: Vec<(String, String)> = Vec::new();
    let plan = plan.transform_up(&mut |node| {
        let LogicalPlan::Filter { input, predicate } = node else { return Ok(node) };
        let mut kept = Vec::new();
        for conjunct in predicate.split_conjuncts() {
            match as_correlation_pair(&conjunct) {
                Some(pair) => {
                    if !pairs.contains(&pair) {
                        pairs.push(pair);
                    }
                }
                None => kept.push(conjunct),
            }
        }
        Ok(match Expr::conjoin(kept) {
            Some(p) => LogicalPlan::Filter { input, predicate: p },
            None => *input,
        })
    })?;
    Ok((plan, pairs))
}

/// `(inner column, outer column)` if the conjunct is an equality between a
/// plain column and an outer reference.
fn as_correlation_pair(conjunct: &Expr) -> Option<(String, String)> {
    let Expr::Cmp { op: CmpOpKind::Eq, left, right } = conjunct else { return None };
    match (&**left, &**right) {
        (Expr::Column(inner), Expr::OuterRef { name, .. })
        | (Expr::OuterRef { name, .. }, Expr::Column(inner)) => Some((inner.clone(), name.clone())),
        _ => None,
    }
}

// -- rule 1: constant folding ------------------------------------------------

/// Fold constant subexpressions in every node; drop filters whose predicate
/// folded to `true`.
fn fold_constants(plan: LogicalPlan) -> Result<LogicalPlan> {
    plan.transform_up(&mut |node| {
        let node = node.map_expressions(&mut |e| e.fold_constants());
        Ok(match node {
            LogicalPlan::Filter { input, predicate: Expr::Literal(ScalarValue::Bool(true)) } => {
                *input
            }
            other => other,
        })
    })
}

// -- rule 2: filter merging --------------------------------------------------

/// Collapse `Filter(Filter(x, a), b)` into `Filter(x, a AND b)`.
fn merge_filters(plan: LogicalPlan) -> Result<LogicalPlan> {
    plan.transform_up(&mut |node| match node {
        LogicalPlan::Filter { input, predicate } => match *input {
            LogicalPlan::Filter { input: inner, predicate: first } => {
                Ok(LogicalPlan::Filter { input: inner, predicate: first.and(predicate) })
            }
            other => Ok(LogicalPlan::Filter { input: Box::new(other), predicate }),
        },
        other => Ok(other),
    })
}

// -- rule 3: predicate pushdown ----------------------------------------------

/// Sink every filter as far toward the scans as semantics allow. A single
/// top-down pass suffices: a filter that sinks one level is revisited when
/// the traversal descends into its new position.
fn push_down_filters(plan: LogicalPlan) -> Result<LogicalPlan> {
    plan.transform_down(&mut sink_filter)
}

/// Repeatedly push the filter at the top of `node` one level down, until it
/// stops being the top node or cannot sink further.
fn sink_filter(mut node: LogicalPlan) -> Result<LogicalPlan> {
    loop {
        let LogicalPlan::Filter { input, predicate } = node else { return Ok(node) };
        let (pushed, changed) = push_filter_step(*input, predicate)?;
        if !changed {
            return Ok(pushed);
        }
        node = pushed;
    }
}

/// One pushdown step for `Filter { input, predicate }`. Returns the new
/// subtree and whether anything moved.
fn push_filter_step(input: LogicalPlan, predicate: Expr) -> Result<(LogicalPlan, bool)> {
    let keep = |input: LogicalPlan, predicate: Expr| {
        (LogicalPlan::Filter { input: Box::new(input), predicate }, false)
    };
    Ok(match input {
        // Merge filter stacks as they sink.
        LogicalPlan::Filter { input, predicate: first } => {
            (LogicalPlan::Filter { input, predicate: first.and(predicate) }, true)
        }
        // Below a projection, with output-column references replaced by the
        // expressions that compute them.
        LogicalPlan::Project { input, exprs } => {
            let substituted = predicate
                .substitute(&|name| exprs.iter().find(|(_, n)| n == name).map(|(e, _)| e.clone()));
            let filtered = LogicalPlan::Filter { input, predicate: substituted };
            (LogicalPlan::Project { input: Box::new(filtered), exprs }, true)
        }
        // Below a full sort (a top-k sort must see all rows first).
        LogicalPlan::Sort { input, keys, limit: None } => {
            let filtered = LogicalPlan::Filter { input, predicate };
            (LogicalPlan::Sort { input: Box::new(filtered), keys, limit: None }, true)
        }
        // Into the join side(s) each conjunct references.
        LogicalPlan::Join { build, probe, on, join_type } => {
            let build_schema = build.schema()?;
            let probe_schema = probe.schema()?;
            let mut to_build = Vec::new();
            let mut to_probe = Vec::new();
            let mut residual = Vec::new();
            for conjunct in predicate.split_conjuncts() {
                let has_refs = !conjunct.referenced_columns().is_empty();
                let in_build = has_refs && conjunct.references_only(&build_schema);
                let in_probe = has_refs && conjunct.references_only(&probe_schema);
                // Build-side pushdown is unsound for Left (filtering the
                // build side turns matches into default-filled rows) and
                // meaningless for Semi/Anti (the filter sees probe columns
                // only). A name in both schemas is ambiguous: keep above.
                match (in_build && !in_probe, in_probe && !in_build, join_type) {
                    (true, false, JoinType::Inner) => to_build.push(conjunct),
                    (false, true, _) => to_probe.push(conjunct),
                    _ => residual.push(conjunct),
                }
            }
            let changed = !to_build.is_empty() || !to_probe.is_empty();
            let build = match Expr::conjoin(to_build) {
                Some(p) => Box::new(LogicalPlan::Filter { input: build, predicate: p }),
                None => build,
            };
            let probe = match Expr::conjoin(to_probe) {
                Some(p) => Box::new(LogicalPlan::Filter { input: probe, predicate: p }),
                None => probe,
            };
            let join = LogicalPlan::Join { build, probe, on, join_type };
            match Expr::conjoin(residual) {
                Some(p) => (LogicalPlan::Filter { input: Box::new(join), predicate: p }, changed),
                None => (join, changed),
            }
        }
        // Through an aggregation when every referenced column is a group
        // key: filtering whole groups by a key value is the same as
        // filtering their input rows by the key expression.
        LogicalPlan::Aggregate { input, group_by, aggregates } => {
            let key_names: BTreeSet<&str> = group_by.iter().map(|(_, n)| n.as_str()).collect();
            let refs = predicate.referenced_columns();
            if refs.is_empty() || !refs.iter().all(|c| key_names.contains(c.as_str())) {
                keep(LogicalPlan::Aggregate { input, group_by, aggregates }, predicate)
            } else {
                let substituted = predicate.substitute(&|name| {
                    group_by.iter().find(|(_, n)| n == name).map(|(e, _)| e.clone())
                });
                let filtered = LogicalPlan::Filter { input, predicate: substituted };
                (LogicalPlan::Aggregate { input: Box::new(filtered), group_by, aggregates }, true)
            }
        }
        other => keep(other, predicate),
    })
}

// -- rule 4: filter -> join conversion ---------------------------------------

/// Turn equality conjuncts relating the two sides of an inner join into
/// hash-join keys. A cross join (empty key list, as lowered from a
/// comma-separated FROM list) followed by `WHERE a = b` becomes a plain
/// equi-join; joins that already have keys gain extra ones (e.g. Q5's
/// `s_nationkey = c_nationkey` "local supplier" condition).
fn filter_to_join(plan: LogicalPlan) -> Result<LogicalPlan> {
    plan.transform_up(&mut |node| {
        let LogicalPlan::Filter { input, predicate } = node else { return Ok(node) };
        let LogicalPlan::Join { build, probe, mut on, join_type: JoinType::Inner } = *input else {
            return Ok(LogicalPlan::Filter { input, predicate });
        };
        let build_schema = build.schema()?;
        let probe_schema = probe.schema()?;
        let mut residual = Vec::new();
        for conjunct in predicate.split_conjuncts() {
            match as_join_key(&conjunct, &build_schema, &probe_schema) {
                Some(pair) => on.push(pair),
                None => residual.push(conjunct),
            }
        }
        let join = LogicalPlan::Join { build, probe, on, join_type: JoinType::Inner };
        Ok(match Expr::conjoin(residual) {
            Some(p) => LogicalPlan::Filter { input: Box::new(join), predicate: p },
            None => join,
        })
    })
}

/// If `conjunct` is `a = b` with one plain column per join side (and equal
/// types, so hash equality matches comparison equality), the key pair in
/// `(build column, probe column)` order.
fn as_join_key(
    conjunct: &Expr,
    build_schema: &Schema,
    probe_schema: &Schema,
) -> Option<(String, String)> {
    let Expr::Cmp { op: CmpOpKind::Eq, left, right } = conjunct else { return None };
    let (Expr::Column(a), Expr::Column(b)) = (&**left, &**right) else { return None };
    // Each name must resolve on exactly one side, or hashing would read a
    // different column than the comparison did.
    let side = |name: &str| {
        match (build_schema.index_of(name).is_ok(), probe_schema.index_of(name).is_ok()) {
            (true, false) => Some(true),  // build
            (false, true) => Some(false), // probe
            _ => None,
        }
    };
    let (build_col, probe_col) = match (side(a)?, side(b)?) {
        (true, false) => (a.clone(), b.clone()),
        (false, true) => (b.clone(), a.clone()),
        _ => return None,
    };
    let same_type =
        build_schema.data_type(&build_col).ok()? == probe_schema.data_type(&probe_col).ok()?;
    same_type.then_some((build_col, probe_col))
}

// -- rule 6: top-k pushdown --------------------------------------------------

/// Fold `Limit` over `Sort` into a top-k sort, and collapse limit stacks.
fn push_down_topk(plan: LogicalPlan) -> Result<LogicalPlan> {
    plan.transform_up(&mut |node| {
        let LogicalPlan::Limit { input, n } = node else { return Ok(node) };
        Ok(match *input {
            LogicalPlan::Sort { input, keys, limit } => {
                let k = limit.map_or(n, |l| l.min(n));
                LogicalPlan::Sort { input, keys, limit: Some(k) }
            }
            LogicalPlan::Limit { input, n: m } => LogicalPlan::Limit { input, n: n.min(m) },
            other => LogicalPlan::Limit { input: Box::new(other), n },
        })
    })
}

// -- rule 7: projection pruning ----------------------------------------------

/// Narrow every scan to the columns required above it, and every filter and
/// join whose output carries more with a projection on top. `required` is
/// the set of output column names the parent needs from `plan`.
fn prune_scan_columns(plan: LogicalPlan, required: &BTreeSet<String>) -> Result<LogicalPlan> {
    Ok(match plan {
        LogicalPlan::Scan { table, schema } => {
            let kept: Vec<usize> = (0..schema.len())
                .filter(|&i| required.contains(schema.field(i).name.as_str()))
                .collect();
            // A scan that feeds pure row counting (e.g. COUNT(*)) references
            // no columns at all; keep one so batches still carry row counts.
            let narrowed =
                if kept.is_empty() { schema.project(&[0]) } else { schema.project(&kept) };
            LogicalPlan::Scan { table, schema: narrowed }
        }
        LogicalPlan::Filter { input, predicate } => {
            let mut child = required.clone();
            child.extend(predicate.referenced_columns());
            let input = Box::new(prune_scan_columns(*input, &child)?);
            select_required(LogicalPlan::Filter { input, predicate }, required)?
        }
        LogicalPlan::Project { input, exprs } => {
            // Drop expressions nothing above needs (at the root, `required`
            // is the full output schema, so the final projection is kept
            // whole). This matters most for the reordering projections
            // build-side selection inserts, which would otherwise reference
            // every column and keep the whole subtree wide.
            let mut kept: Vec<(Expr, String)> =
                exprs.iter().filter(|(_, n)| required.contains(n)).cloned().collect();
            if kept.is_empty() {
                kept.push(exprs[0].clone());
            }
            let mut child = BTreeSet::new();
            for (e, _) in &kept {
                child.extend(e.referenced_columns());
            }
            LogicalPlan::Project {
                input: Box::new(prune_scan_columns(*input, &child)?),
                exprs: kept,
            }
        }
        LogicalPlan::Join { build, probe, on, join_type } => {
            let build_schema = build.schema()?;
            let probe_schema = probe.schema()?;
            // The probe side keeps its keys plus whatever the parent needs;
            // the build side of a semi/anti join contributes no output
            // columns, so only its keys stay alive.
            let mut build_req: BTreeSet<String> = on.iter().map(|(b, _)| b.clone()).collect();
            let mut probe_req: BTreeSet<String> = on.iter().map(|(_, p)| p.clone()).collect();
            if matches!(join_type, JoinType::Inner | JoinType::Left) {
                for name in required {
                    if build_schema.index_of(name).is_ok() {
                        build_req.insert(name.clone());
                    }
                    if probe_schema.index_of(name).is_ok() {
                        probe_req.insert(name.clone());
                    }
                }
            } else {
                probe_req.extend(required.iter().cloned());
            }
            let join = LogicalPlan::Join {
                build: Box::new(prune_scan_columns(*build, &build_req)?),
                probe: Box::new(prune_scan_columns(*probe, &probe_req)?),
                on,
                join_type,
            };
            select_required(join, required)?
        }
        LogicalPlan::Aggregate { input, group_by, aggregates } => {
            let mut child = BTreeSet::new();
            for (e, _) in &group_by {
                child.extend(e.referenced_columns());
            }
            for a in &aggregates {
                child.extend(a.expr.referenced_columns());
            }
            LogicalPlan::Aggregate {
                input: Box::new(prune_scan_columns(*input, &child)?),
                group_by,
                aggregates,
            }
        }
        // Sort and Limit pass their input columns through; at the root,
        // `required` already names the full output schema, so nothing a
        // caller can observe is dropped.
        LogicalPlan::Sort { input, keys, limit } => {
            let mut child = required.clone();
            child.extend(keys.iter().map(|(k, _)| k.clone()));
            LogicalPlan::Sort { input: Box::new(prune_scan_columns(*input, &child)?), keys, limit }
        }
        LogicalPlan::Limit { input, n } => {
            LogicalPlan::Limit { input: Box::new(prune_scan_columns(*input, required)?), n }
        }
    })
}

/// Put a projection onto the `required` columns above `plan` when its
/// output carries others, so a column only a filter or a join key reads
/// stops there instead of riding the shuffles above (stage compilation fuses
/// the projection into the node's stage). Left alone when the output names
/// are not distinct, since a projection selects by name.
fn select_required(plan: LogicalPlan, required: &BTreeSet<String>) -> Result<LogicalPlan> {
    let schema = plan.schema()?;
    let names = schema.column_names();
    let distinct = names.iter().collect::<BTreeSet<_>>().len() == names.len();
    let mut kept: Vec<&str> = names.iter().copied().filter(|n| required.contains(*n)).collect();
    if kept.is_empty() {
        // Nothing above reads a column (e.g. COUNT(*)); keep one so batches
        // still carry row counts.
        kept.push(names[0]);
    }
    if !distinct || kept.len() == names.len() {
        return Ok(plan);
    }
    let exprs = kept.iter().map(|n| (Expr::Column(n.to_string()), n.to_string())).collect();
    Ok(LogicalPlan::Project { input: Box::new(plan), exprs })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::{count, sum};
    use crate::catalog::MemoryCatalog;
    use crate::expr::{col, lit};
    use crate::logical::PlanBuilder;
    use crate::reference::{results_match, ReferenceExecutor};
    use quokka_batch::{Batch, Column, DataType};

    /// A small two-table catalog: a wide fact table and a narrow dim table.
    fn catalog() -> MemoryCatalog {
        let catalog = MemoryCatalog::new();
        let fact = Schema::from_pairs(&[
            ("f_key", DataType::Int64),
            ("f_val", DataType::Float64),
            ("f_tag", DataType::Utf8),
            ("f_pad", DataType::Utf8),
        ]);
        catalog.register(
            "fact",
            fact.clone(),
            vec![Batch::try_new(
                fact,
                vec![
                    Column::Int64((0..100).map(|i| i % 7).collect()),
                    Column::Float64((0..100).map(|i| i as f64 * 0.5).collect()),
                    Column::Utf8((0..100).map(|i| format!("t{}", i % 3)).collect()),
                    Column::Utf8((0..100).map(|_| "padding-padding".to_string()).collect()),
                ],
            )
            .unwrap()],
        );
        let dim = Schema::from_pairs(&[("d_key", DataType::Int64), ("d_name", DataType::Utf8)]);
        catalog.register(
            "dim",
            dim.clone(),
            vec![Batch::try_new(
                dim,
                vec![
                    Column::Int64((0..7).collect()),
                    Column::Utf8((0..7).map(|i| format!("dim-{i}")).collect()),
                ],
            )
            .unwrap()],
        );
        catalog
    }

    fn fact_scan(catalog: &MemoryCatalog) -> PlanBuilder {
        PlanBuilder::scan("fact", catalog.table_schema("fact").unwrap())
    }

    fn dim_scan(catalog: &MemoryCatalog) -> PlanBuilder {
        PlanBuilder::scan("dim", catalog.table_schema("dim").unwrap())
    }

    /// Optimize with stats and assert schema + reference-result parity.
    fn optimize_checked(catalog: &MemoryCatalog, plan: &LogicalPlan) -> LogicalPlan {
        let optimized = Optimizer::with_catalog(catalog).optimize(plan).unwrap();
        assert_eq!(optimized.schema().unwrap(), plan.schema().unwrap());
        let exec = ReferenceExecutor::new(catalog);
        let naive = exec.execute(plan).unwrap();
        let rewritten = exec.execute(&optimized).unwrap();
        assert!(
            results_match(&naive, &rewritten),
            "optimized plan diverged\nnaive:\n{}\noptimized:\n{}",
            plan.display_indent(),
            optimized.display_indent()
        );
        optimized
    }

    /// Collect every scan node's (table, column names).
    fn scans(plan: &LogicalPlan) -> Vec<(String, Vec<String>)> {
        let mut out = Vec::new();
        fn walk(plan: &LogicalPlan, out: &mut Vec<(String, Vec<String>)>) {
            if let LogicalPlan::Scan { table, schema } = plan {
                out.push((
                    table.clone(),
                    schema.column_names().iter().map(|s| s.to_string()).collect(),
                ));
            }
            for child in plan.children() {
                walk(child, out);
            }
        }
        walk(plan, &mut out);
        out
    }

    fn first_filter_predicate(plan: &LogicalPlan) -> Option<&Expr> {
        if let LogicalPlan::Filter { predicate, .. } = plan {
            return Some(predicate);
        }
        plan.children().iter().find_map(|c| first_filter_predicate(c))
    }

    #[test]
    fn constant_expressions_fold_to_literals() {
        let catalog = catalog();
        let plan = fact_scan(&catalog)
            .filter(col("f_val").gt(lit(1.0f64).add(lit(2.0f64))))
            .build()
            .unwrap();
        let optimized = optimize_checked(&catalog, &plan);
        let predicate = first_filter_predicate(&optimized).expect("filter kept");
        assert_eq!(*predicate, col("f_val").gt(lit(3.0f64)));
    }

    #[test]
    fn always_true_filters_disappear() {
        let catalog = catalog();
        let plan = fact_scan(&catalog).filter(lit(1i64).lt(lit(2i64))).build().unwrap();
        let optimized = optimize_checked(&catalog, &plan);
        assert!(first_filter_predicate(&optimized).is_none(), "{}", optimized.display_indent());
    }

    #[test]
    fn adjacent_filters_merge() {
        let catalog = catalog();
        let plan = fact_scan(&catalog)
            .filter(col("f_val").gt(lit(1.0f64)))
            .filter(col("f_key").gt(lit(2i64)))
            .build()
            .unwrap();
        let optimized = optimize_checked(&catalog, &plan);
        // One Filter directly above the scan, containing both conjuncts.
        match &optimized {
            LogicalPlan::Filter { input, predicate } => {
                assert!(matches!(**input, LogicalPlan::Scan { .. }));
                assert_eq!(predicate.referenced_columns(), vec!["f_val", "f_key"]);
            }
            other => panic!("expected Filter(Scan), got {}", other.display_indent()),
        }
    }

    #[test]
    fn filters_push_below_projections_with_substitution() {
        let catalog = catalog();
        let plan = fact_scan(&catalog)
            .project(vec![(col("f_val").mul(lit(2.0f64)), "double"), (col("f_key"), "k")])
            .filter(col("double").gt(lit(50.0f64)))
            .build()
            .unwrap();
        let optimized = optimize_checked(&catalog, &plan);
        // Project on top, filter (over the substituted expression) below.
        match &optimized {
            LogicalPlan::Project { input, .. } => match &**input {
                LogicalPlan::Filter { predicate, input } => {
                    assert_eq!(*predicate, col("f_val").mul(lit(2.0f64)).gt(lit(50.0f64)));
                    assert!(matches!(**input, LogicalPlan::Scan { .. }));
                }
                other => panic!("expected Filter below Project, got {}", other.name()),
            },
            other => panic!("expected Project on top, got {}", other.name()),
        }
    }

    #[test]
    fn filters_split_into_inner_join_sides() {
        let catalog = catalog();
        let plan = dim_scan(&catalog)
            .join(fact_scan(&catalog), vec![("d_key", "f_key")], JoinType::Inner)
            .filter(col("d_name").like("dim-%").and(col("f_val").gt(lit(3.0f64))))
            .build()
            .unwrap();
        let optimized = optimize_checked(&catalog, &plan);
        // No filter above the join any more; each side got its conjunct.
        match &optimized {
            LogicalPlan::Join { build, probe, .. } => {
                assert!(
                    matches!(**build, LogicalPlan::Filter { .. }),
                    "build side should be filtered: {}",
                    optimized.display_indent()
                );
                assert!(
                    matches!(**probe, LogicalPlan::Filter { .. }),
                    "probe side should be filtered: {}",
                    optimized.display_indent()
                );
            }
            other => panic!("expected bare Join on top, got {}", other.name()),
        }
    }

    #[test]
    fn left_join_build_side_is_not_filtered() {
        let catalog = catalog();
        // Probe (fact) rows must survive even when their dim match would be
        // filtered out; the predicate has to stay above the join.
        let plan = dim_scan(&catalog)
            .join(fact_scan(&catalog), vec![("d_key", "f_key")], JoinType::Left)
            .filter(col("d_name").like("dim-1%"))
            .build()
            .unwrap();
        let optimized = optimize_checked(&catalog, &plan);
        match &optimized {
            LogicalPlan::Filter { input, .. } => {
                assert!(matches!(**input, LogicalPlan::Join { .. }));
            }
            other => panic!("expected Filter to stay above Left join, got {}", other.name()),
        }
    }

    #[test]
    fn group_key_filters_push_through_aggregates() {
        let catalog = catalog();
        let plan = fact_scan(&catalog)
            .aggregate(vec![(col("f_tag"), "tag")], vec![sum(col("f_val"), "total")])
            .filter(col("tag").eq(lit("t1")))
            .build()
            .unwrap();
        let optimized = optimize_checked(&catalog, &plan);
        // The filter lands below the aggregate, rewritten over f_tag.
        match &optimized {
            LogicalPlan::Aggregate { input, .. } => match &**input {
                LogicalPlan::Filter { predicate, .. } => {
                    assert_eq!(*predicate, col("f_tag").eq(lit("t1")));
                }
                other => panic!("expected Filter below Aggregate, got {}", other.name()),
            },
            other => panic!("expected Aggregate on top, got {}", other.name()),
        }
    }

    #[test]
    fn cross_join_plus_equality_becomes_equi_join() {
        let catalog = catalog();
        let plan = dim_scan(&catalog)
            .join(fact_scan(&catalog), vec![], JoinType::Inner)
            .filter(col("d_key").eq(col("f_key")).and(col("f_val").gt(lit(10.0f64))))
            .build()
            .unwrap();
        let optimized = optimize_checked(&catalog, &plan);
        fn find_join(plan: &LogicalPlan) -> Option<&LogicalPlan> {
            if matches!(plan, LogicalPlan::Join { .. }) {
                return Some(plan);
            }
            plan.children().iter().find_map(|c| find_join(c))
        }
        let join = find_join(&optimized).expect("join survives");
        match join {
            LogicalPlan::Join { on, .. } => {
                assert_eq!(on, &vec![("d_key".to_string(), "f_key".to_string())]);
            }
            _ => unreachable!(),
        }
        // The non-equality conjunct was pushed into the fact side.
        assert!(first_filter_predicate(&optimized).is_some());
    }

    #[test]
    fn build_side_selection_puts_the_small_table_on_the_build_side() {
        let catalog = catalog();
        // fact (100 rows) as build, dim (7 rows) as probe: should swap, and
        // a projection must restore the original column order.
        let plan = fact_scan(&catalog)
            .join(dim_scan(&catalog), vec![("f_key", "d_key")], JoinType::Inner)
            .build()
            .unwrap();
        let optimized = optimize_checked(&catalog, &plan);
        match &optimized {
            LogicalPlan::Project { input, .. } => match &**input {
                LogicalPlan::Join { build, on, .. } => {
                    assert_eq!(build.referenced_tables(), vec!["dim"]);
                    assert_eq!(on, &vec![("d_key".to_string(), "f_key".to_string())]);
                }
                other => panic!("expected swapped Join, got {}", other.name()),
            },
            other => panic!("expected reordering Project, got {}", other.name()),
        }
    }

    #[test]
    fn near_equal_sides_are_not_swapped() {
        let catalog = catalog();
        let plan = dim_scan(&catalog)
            .join(fact_scan(&catalog), vec![("d_key", "f_key")], JoinType::Inner)
            .build()
            .unwrap();
        // dim (7) is already the build side; nothing to do.
        let optimized = optimize_checked(&catalog, &plan);
        assert!(matches!(optimized, LogicalPlan::Join { .. }));
    }

    #[test]
    fn limit_over_sort_becomes_top_k() {
        let catalog = catalog();
        let plan = fact_scan(&catalog).sort(vec![("f_val", false)]).limit(5).build().unwrap();
        let optimized = optimize_checked(&catalog, &plan);
        match &optimized {
            LogicalPlan::Sort { limit, .. } => assert_eq!(*limit, Some(5)),
            other => panic!("expected top-k Sort, got {}", other.name()),
        }
        // And the result really is 5 rows.
        let exec = ReferenceExecutor::new(&catalog);
        assert_eq!(exec.execute(&optimized).unwrap().num_rows(), 5);
    }

    #[test]
    fn scans_read_only_referenced_columns() {
        let catalog = catalog();
        let plan = dim_scan(&catalog)
            .join(fact_scan(&catalog), vec![("d_key", "f_key")], JoinType::Inner)
            .filter(col("f_val").gt(lit(3.0f64)))
            .aggregate(vec![(col("d_name"), "d_name")], vec![sum(col("f_val"), "total")])
            .build()
            .unwrap();
        let optimized = optimize_checked(&catalog, &plan);
        let scans = scans(&optimized);
        let fact_cols = &scans.iter().find(|(t, _)| t == "fact").unwrap().1;
        // f_tag and f_pad are never referenced; f_key (join) and f_val
        // (filter + aggregate) are.
        assert_eq!(fact_cols, &vec!["f_key".to_string(), "f_val".to_string()]);
    }

    #[test]
    fn count_star_scans_keep_one_column() {
        let catalog = catalog();
        let plan =
            fact_scan(&catalog).aggregate(vec![], vec![count(lit(1i64), "n")]).build().unwrap();
        let optimized = optimize_checked(&catalog, &plan);
        let scans = scans(&optimized);
        assert_eq!(scans[0].1.len(), 1, "a row-count scan still needs one column");
    }

    #[test]
    fn semi_join_build_side_keeps_only_its_keys() {
        let catalog = catalog();
        let plan = dim_scan(&catalog)
            .join(fact_scan(&catalog), vec![("d_key", "f_key")], JoinType::Semi)
            .build()
            .unwrap();
        let optimized = optimize_checked(&catalog, &plan);
        let scans = scans(&optimized);
        let dim_cols = &scans.iter().find(|(t, _)| t == "dim").unwrap().1;
        assert_eq!(dim_cols, &vec!["d_key".to_string()]);
    }

    #[test]
    fn optimizer_without_stats_skips_build_side_selection() {
        let catalog = catalog();
        let plan = fact_scan(&catalog)
            .join(dim_scan(&catalog), vec![("f_key", "d_key")], JoinType::Inner)
            .build()
            .unwrap();
        let optimized = Optimizer::new().optimize(&plan).unwrap();
        // No stats: no swap, no reordering projection.
        assert!(matches!(optimized, LogicalPlan::Join { .. }));
        assert_eq!(optimized.schema().unwrap(), plan.schema().unwrap());
    }

    #[test]
    fn rule_names_match_pipeline_length() {
        assert_eq!(RULE_NAMES.len(), 8);
    }

    // -- decorrelation -------------------------------------------------------

    /// `EXISTS (SELECT * FROM fact WHERE f_key = d_key)` over dim.
    #[test]
    fn correlated_exists_becomes_semi_join() {
        let catalog = catalog();
        let subquery = fact_scan(&catalog)
            .filter(
                col("f_key")
                    .eq(Expr::OuterRef { name: "d_key".into(), dtype: DataType::Int64 })
                    .and(col("f_val").gt(lit(10.0f64))),
            )
            .build()
            .unwrap();
        let plan = dim_scan(&catalog)
            .filter(Expr::Exists { plan: Box::new(subquery), negated: false })
            .build()
            .unwrap();
        let lowered = decorrelate(plan.clone()).unwrap();
        match &lowered {
            LogicalPlan::Join { on, join_type: JoinType::Semi, probe, .. } => {
                assert_eq!(on, &vec![("f_key".to_string(), "d_key".to_string())]);
                assert!(matches!(**probe, LogicalPlan::Scan { .. }));
            }
            other => panic!("expected Semi join, got {}", other.display_indent()),
        }
        // Schema unchanged and equivalent to the hand-decorrelated twin.
        assert_eq!(lowered.schema().unwrap(), plan.schema().unwrap());
        let twin = fact_scan(&catalog)
            .filter(col("f_val").gt(lit(10.0f64)))
            .join(dim_scan(&catalog), vec![("f_key", "d_key")], JoinType::Semi)
            .build()
            .unwrap();
        let exec = ReferenceExecutor::new(&catalog);
        assert!(results_match(&exec.execute(&lowered).unwrap(), &exec.execute(&twin).unwrap()));
        // The full pipeline accepts the subquery plan end to end.
        optimize_checked(&catalog, &plan);
    }

    /// `NOT EXISTS` (via Expr::Not) becomes an anti join.
    #[test]
    fn negated_exists_becomes_anti_join() {
        let catalog = catalog();
        let subquery = fact_scan(&catalog)
            .filter(
                col("f_key").eq(Expr::OuterRef { name: "d_key".into(), dtype: DataType::Int64 }),
            )
            .build()
            .unwrap();
        let plan = dim_scan(&catalog)
            .filter(Expr::Exists { plan: Box::new(subquery), negated: false }.not())
            .build()
            .unwrap();
        let lowered = decorrelate(plan.clone()).unwrap();
        assert!(
            matches!(&lowered, LogicalPlan::Join { join_type: JoinType::Anti, .. }),
            "{}",
            lowered.display_indent()
        );
        let twin = fact_scan(&catalog)
            .join(dim_scan(&catalog), vec![("f_key", "d_key")], JoinType::Anti)
            .build()
            .unwrap();
        let exec = ReferenceExecutor::new(&catalog);
        assert!(results_match(&exec.execute(&lowered).unwrap(), &exec.execute(&twin).unwrap()));
    }

    /// `d_key IN (SELECT f_key FROM fact WHERE f_val > 10)`.
    #[test]
    fn in_subquery_becomes_semi_join_on_the_output_column() {
        let catalog = catalog();
        let subquery = fact_scan(&catalog)
            .filter(col("f_val").gt(lit(10.0f64)))
            .project(vec![(col("f_key"), "f_key")])
            .build()
            .unwrap();
        let plan = dim_scan(&catalog)
            .filter(Expr::InSubquery {
                expr: Box::new(col("d_key")),
                plan: Box::new(subquery),
                negated: false,
            })
            .build()
            .unwrap();
        let lowered = decorrelate(plan.clone()).unwrap();
        match &lowered {
            LogicalPlan::Join { on, join_type: JoinType::Semi, .. } => {
                assert_eq!(on, &vec![("f_key".to_string(), "d_key".to_string())]);
            }
            other => panic!("expected Semi join, got {}", other.display_indent()),
        }
        optimize_checked(&catalog, &plan);
    }

    /// Uncorrelated scalar aggregate: constant-key join, schema restored.
    #[test]
    fn uncorrelated_scalar_subquery_becomes_constant_key_join() {
        let catalog = catalog();
        let subquery = fact_scan(&catalog)
            .aggregate(vec![], vec![crate::aggregate::avg(col("f_val"), "avg_val")])
            .build()
            .unwrap();
        let plan = fact_scan(&catalog)
            .filter(col("f_val").gt(Expr::ScalarSubquery(Box::new(subquery))))
            .build()
            .unwrap();
        let lowered = decorrelate(plan.clone()).unwrap();
        assert_eq!(lowered.schema().unwrap(), plan.schema().unwrap());
        // Equivalent hand-built constant-key join.
        let threshold = fact_scan(&catalog)
            .aggregate(vec![], vec![crate::aggregate::avg(col("f_val"), "avg_val")])
            .project(vec![(col("avg_val"), "avg_val"), (lit(1i64), "jk_b")]);
        let twin = threshold
            .join(
                fact_scan(&catalog).project(vec![
                    (col("f_key"), "f_key"),
                    (col("f_val"), "f_val"),
                    (col("f_tag"), "f_tag"),
                    (col("f_pad"), "f_pad"),
                    (lit(1i64), "jk_p"),
                ]),
                vec![("jk_b", "jk_p")],
                JoinType::Inner,
            )
            .filter(col("f_val").gt(col("avg_val")))
            .project(vec![
                (col("f_key"), "f_key"),
                (col("f_val"), "f_val"),
                (col("f_tag"), "f_tag"),
                (col("f_pad"), "f_pad"),
            ])
            .build()
            .unwrap();
        let exec = ReferenceExecutor::new(&catalog);
        assert!(results_match(&exec.execute(&lowered).unwrap(), &exec.execute(&twin).unwrap()));
        optimize_checked(&catalog, &plan);
    }

    /// Correlated scalar aggregate: per-key group-by + join (the Q17 shape).
    #[test]
    fn correlated_scalar_aggregate_becomes_group_by_plus_join() {
        let catalog = catalog();
        // f_val < 2 * (SELECT avg(f_val) FROM fact WHERE f_key = outer f_key)
        let subquery = LogicalPlan::Project {
            input: Box::new(
                fact_scan(&catalog)
                    .filter(
                        col("f_key")
                            .eq(Expr::OuterRef { name: "f_key".into(), dtype: DataType::Int64 }),
                    )
                    .aggregate(vec![], vec![crate::aggregate::avg(col("f_val"), "a")])
                    .build()
                    .unwrap(),
            ),
            exprs: vec![(lit(2.0f64).mul(col("a")), "doubled".to_string())],
        };
        let plan = fact_scan(&catalog)
            .filter(col("f_val").lt(Expr::ScalarSubquery(Box::new(subquery))))
            .build()
            .unwrap();
        let lowered = decorrelate(plan.clone()).unwrap();
        assert_eq!(lowered.schema().unwrap(), plan.schema().unwrap());
        // Equivalent hand decorrelation.
        let thresholds = fact_scan(&catalog)
            .aggregate(
                vec![(col("f_key"), "t_key")],
                vec![crate::aggregate::avg(col("f_val"), "a")],
            )
            .project(vec![(col("t_key"), "t_key"), (lit(2.0f64).mul(col("a")), "doubled")]);
        let twin = thresholds
            .join(fact_scan(&catalog), vec![("t_key", "f_key")], JoinType::Inner)
            .filter(col("f_val").lt(col("doubled")))
            .project(vec![
                (col("f_key"), "f_key"),
                (col("f_val"), "f_val"),
                (col("f_tag"), "f_tag"),
                (col("f_pad"), "f_pad"),
            ])
            .build()
            .unwrap();
        let exec = ReferenceExecutor::new(&catalog);
        assert!(results_match(&exec.execute(&lowered).unwrap(), &exec.execute(&twin).unwrap()));
        optimize_checked(&catalog, &plan);
    }

    /// A scalar subquery under OR cannot be rewritten soundly (the inner
    /// join would drop rows the other disjunct should keep) — fail loudly.
    #[test]
    fn scalar_subquery_under_or_is_rejected() {
        let catalog = catalog();
        let subquery = fact_scan(&catalog)
            .filter(
                col("f_key").eq(Expr::OuterRef { name: "f_key".into(), dtype: DataType::Int64 }),
            )
            .aggregate(vec![], vec![crate::aggregate::avg(col("f_val"), "a")])
            .build()
            .unwrap();
        let plan = fact_scan(&catalog)
            .filter(
                col("f_key")
                    .gt_eq(lit(0i64))
                    .or(col("f_val").gt(Expr::ScalarSubquery(Box::new(subquery)))),
            )
            .build()
            .unwrap();
        let err = decorrelate(plan).unwrap_err();
        assert!(err.to_string().contains("under OR"), "{err}");
    }

    /// A row limit inside a *correlated* existence subquery would apply
    /// globally after decorrelation instead of per outer row — rejected.
    /// Uncorrelated limits are fine (only emptiness matters): LIMIT 0
    /// makes EXISTS false and NOT EXISTS keep everything.
    #[test]
    fn limits_in_existence_subqueries() {
        let catalog = catalog();
        let correlated = fact_scan(&catalog)
            .filter(
                col("f_key").eq(Expr::OuterRef { name: "d_key".into(), dtype: DataType::Int64 }),
            )
            .limit(1)
            .build()
            .unwrap();
        let plan = dim_scan(&catalog)
            .filter(Expr::Exists { plan: Box::new(correlated), negated: false })
            .build()
            .unwrap();
        let err = decorrelate(plan).unwrap_err();
        assert!(err.to_string().contains("LIMIT inside a correlated"), "{err}");

        let empty = fact_scan(&catalog).limit(0).build().unwrap();
        let plan = dim_scan(&catalog)
            .filter(Expr::Exists { plan: Box::new(empty), negated: false })
            .build()
            .unwrap();
        let exec = ReferenceExecutor::new(&catalog);
        assert_eq!(exec.execute(&plan).unwrap().num_rows(), 0, "EXISTS over LIMIT 0 is false");
    }

    /// Unsupported correlation (non-equality) fails loudly instead of
    /// executing wrong.
    #[test]
    fn non_equality_correlation_is_rejected() {
        let catalog = catalog();
        let subquery = fact_scan(&catalog)
            .filter(
                col("f_key").gt(Expr::OuterRef { name: "d_key".into(), dtype: DataType::Int64 }),
            )
            .build()
            .unwrap();
        let plan = dim_scan(&catalog)
            .filter(Expr::Exists { plan: Box::new(subquery), negated: false })
            .build()
            .unwrap();
        let err = decorrelate(plan).unwrap_err();
        assert!(err.to_string().contains("equality"), "{err}");
    }

    /// Subquery plans execute directly on the reference oracle (it lowers
    /// them itself) and never reach stage compilation undecorrelated.
    #[test]
    fn reference_executor_accepts_subquery_plans() {
        let catalog = catalog();
        let subquery = fact_scan(&catalog)
            .filter(
                col("f_key").eq(Expr::OuterRef { name: "d_key".into(), dtype: DataType::Int64 }),
            )
            .build()
            .unwrap();
        let plan = dim_scan(&catalog)
            .filter(Expr::Exists { plan: Box::new(subquery), negated: false })
            .build()
            .unwrap();
        assert!(contains_subqueries(&plan));
        let exec = ReferenceExecutor::new(&catalog);
        let direct = exec.execute(&plan).unwrap();
        let lowered = decorrelate(plan.clone()).unwrap();
        assert!(!contains_subqueries(&lowered));
        assert!(results_match(&direct, &exec.execute(&lowered).unwrap()));
    }
}
