//! A single-threaded reference executor.
//!
//! This executor evaluates a [`LogicalPlan`] directly against a [`Catalog`],
//! one operator at a time, with deliberately simple row-oriented join and
//! aggregation implementations. It serves two purposes:
//!
//! 1. **Correctness oracle** — every distributed execution mode and every
//!    fault-injection scenario must produce exactly the rows this executor
//!    produces (integration tests in `tests/` assert this for the TPC-H
//!    queries).
//! 2. **Restart baseline** — the paper's "restart the query from scratch"
//!    baseline (overhead ≈ 1.5x for a failure at 50%) is modelled by running
//!    a query once, discarding the work at the failure point, and running it
//!    again; the reference executor provides the single-machine runtime used
//!    in that model.

use crate::catalog::Catalog;
use crate::logical::{JoinType, LogicalPlan};
use crate::physical::{CoreOp, OperatorSpec};
use quokka_batch::compute::{sort_batch, SortKey};
use quokka_batch::datatype::ScalarValue;
use quokka_batch::{Batch, Schema};
use quokka_common::Result;
use std::cmp::Ordering;
use std::collections::HashMap;

/// Executes logical plans on a single thread.
pub struct ReferenceExecutor<'a> {
    catalog: &'a dyn Catalog,
}

impl<'a> ReferenceExecutor<'a> {
    pub fn new(catalog: &'a dyn Catalog) -> Self {
        ReferenceExecutor { catalog }
    }

    /// Run the plan to completion, returning a single batch of results.
    ///
    /// Plans that still carry subquery expressions (as bound by the SQL
    /// frontend) are decorrelated first — the same mandatory lowering the
    /// distributed runtime applies — so the oracle accepts exactly the
    /// plans every frontend produces.
    pub fn execute(&self, plan: &LogicalPlan) -> Result<Batch> {
        if crate::optimizer::contains_subqueries(plan) {
            let lowered = crate::optimizer::decorrelate(plan.clone())?;
            return self.execute_node(&lowered);
        }
        self.execute_node(plan)
    }

    fn execute_node(&self, plan: &LogicalPlan) -> Result<Batch> {
        match plan {
            LogicalPlan::Scan { table, schema } => {
                // The scan schema may be a column subset of the stored table
                // (projection pruning); read only those columns.
                let batches = self.catalog.table_batches(table)?;
                if batches.is_empty() {
                    Ok(Batch::empty(schema.clone()))
                } else {
                    Batch::concat(&batches)?.select_to(schema)
                }
            }
            LogicalPlan::Filter { input, predicate } => {
                let batch = self.execute_node(input)?;
                let mask = predicate.evaluate_mask(&batch)?;
                batch.filter(&mask)
            }
            LogicalPlan::Project { input, exprs } => {
                let batch = self.execute_node(input)?;
                let schema = plan.schema()?;
                let columns =
                    exprs.iter().map(|(e, _)| e.evaluate(&batch)).collect::<Result<Vec<_>>>()?;
                Batch::try_new(schema, columns)
            }
            LogicalPlan::Join { build, probe, on, join_type } => {
                let build_batch = self.execute_node(build)?;
                let probe_batch = self.execute_node(probe)?;
                self.join(plan, &build_batch, &probe_batch, on, *join_type)
            }
            LogicalPlan::Aggregate { input, group_by, aggregates } => {
                let batch = self.execute_node(input)?;
                // Reuse the aggregate operator's logic through the spec (the
                // reference's independence matters most for joins, whose
                // distributed implementation involves partitioning; the
                // accumulator arithmetic is shared either way).
                let spec = OperatorSpec::new(CoreOp::HashAggregate {
                    input_schema: batch.schema().clone(),
                    group_by: group_by.clone(),
                    aggregates: aggregates.clone(),
                });
                let mut op = spec.instantiate()?;
                op.push(0, batch)?;
                let out = op.finish()?;
                Batch::concat(&out)
            }
            LogicalPlan::Sort { input, keys, limit } => {
                let batch = self.execute_node(input)?;
                let schema = batch.schema().clone();
                let sort_keys = keys
                    .iter()
                    .map(|(name, asc)| {
                        Ok(SortKey { column: schema.index_of(name)?, ascending: *asc })
                    })
                    .collect::<Result<Vec<_>>>()?;
                let sorted = sort_batch(&batch, &sort_keys)?;
                Ok(match limit {
                    Some(n) if *n < sorted.num_rows() => sorted.slice(0, *n),
                    _ => sorted,
                })
            }
            LogicalPlan::Limit { input, n } => {
                let batch = self.execute_node(input)?;
                Ok(if batch.num_rows() > *n { batch.slice(0, *n) } else { batch })
            }
        }
    }

    /// Row-oriented hash join keyed on stringified key values — an
    /// implementation deliberately different from the columnar, hash-
    /// partitioned operator the distributed engine uses.
    fn join(
        &self,
        plan: &LogicalPlan,
        build: &Batch,
        probe: &Batch,
        on: &[(String, String)],
        join_type: JoinType,
    ) -> Result<Batch> {
        let build_keys: Vec<usize> =
            on.iter().map(|(b, _)| build.schema().index_of(b)).collect::<Result<Vec<_>>>()?;
        let probe_keys: Vec<usize> =
            on.iter().map(|(_, p)| probe.schema().index_of(p)).collect::<Result<Vec<_>>>()?;

        let key_of = |batch: &Batch, row: usize, cols: &[usize]| -> String {
            let mut key = String::new();
            for &c in cols {
                // Render numerics through f64 so Int64 and Float64 keys that
                // compare equal also join equal.
                let value = batch.value(row, c);
                match value.as_f64() {
                    Ok(f) => key.push_str(&format!("{f:.6}")),
                    Err(_) => key.push_str(&value.to_string()),
                }
                key.push('\u{1}');
            }
            key
        };

        let mut table: HashMap<String, Vec<usize>> = HashMap::new();
        for row in 0..build.num_rows() {
            table.entry(key_of(build, row, &build_keys)).or_default().push(row);
        }

        let output_schema = plan.schema()?;
        match join_type {
            JoinType::Inner | JoinType::Left => {
                let mut build_rows: Vec<usize> = Vec::new();
                let mut probe_rows: Vec<usize> = Vec::new();
                let mut unmatched_probe: Vec<usize> = Vec::new();
                for row in 0..probe.num_rows() {
                    match table.get(&key_of(probe, row, &probe_keys)) {
                        Some(matches) => {
                            for &b in matches {
                                build_rows.push(b);
                                probe_rows.push(row);
                            }
                        }
                        None => unmatched_probe.push(row),
                    }
                }
                let build_taken = build.take(&build_rows)?;
                let probe_taken = probe.take(&probe_rows)?;
                let mut columns = build_taken.columns().to_vec();
                columns.extend(probe_taken.columns().iter().cloned());
                let mut result = Batch::try_new(output_schema.clone(), columns)?;
                if join_type == JoinType::Left && !unmatched_probe.is_empty() {
                    let defaults = default_row(&build.schema().clone());
                    let probe_unmatched = probe.take(&unmatched_probe)?;
                    let mut columns = Vec::new();
                    for (i, default) in defaults.iter().enumerate() {
                        let values: Vec<ScalarValue> =
                            unmatched_probe.iter().map(|_| default.clone()).collect();
                        columns.push(quokka_batch::Column::from_scalars(
                            build.schema().field(i).data_type,
                            &values,
                        )?);
                    }
                    columns.extend(probe_unmatched.columns().iter().cloned());
                    let filler = Batch::try_new(output_schema, columns)?;
                    result = Batch::concat(&[result, filler])?;
                }
                Ok(result)
            }
            JoinType::Semi | JoinType::Anti => {
                let want = join_type == JoinType::Semi;
                let mask: Vec<bool> = (0..probe.num_rows())
                    .map(|row| table.contains_key(&key_of(probe, row, &probe_keys)) == want)
                    .collect();
                probe.filter(&mask)
            }
        }
    }
}

fn default_row(schema: &Schema) -> Vec<ScalarValue> {
    schema
        .fields()
        .iter()
        .map(|f| match f.data_type {
            quokka_batch::DataType::Int64 => ScalarValue::Int64(0),
            quokka_batch::DataType::Float64 => ScalarValue::Float64(0.0),
            quokka_batch::DataType::Utf8 => ScalarValue::Utf8(String::new()),
            quokka_batch::DataType::Bool => ScalarValue::Bool(false),
            quokka_batch::DataType::Date => ScalarValue::Date(0),
        })
        .collect()
}

/// Canonicalise a result batch for comparison: rows are rendered to strings
/// (floats rounded to 4 decimal places) and sorted, so two executions can be
/// compared regardless of row order and of tiny floating-point differences
/// introduced by different summation orders.
pub fn canonical_rows(batch: &Batch) -> Vec<String> {
    let mut rows: Vec<String> = (0..batch.num_rows())
        .map(|r| {
            let row: Vec<String> = (0..batch.num_columns())
                .map(|c| match batch.value(r, c) {
                    ScalarValue::Float64(f) => format!("{:.3}", round_for_compare(f)),
                    other => other.to_string(),
                })
                .collect();
            row.join("|")
        })
        .collect();
    rows.sort();
    rows
}

fn round_for_compare(f: f64) -> f64 {
    // Large aggregates accumulate floating-point error across different
    // summation orders (and fault recovery deliberately changes the order in
    // which partitions are folded into accumulators), so results are
    // compared with a relative tolerance: round to 8 significant digits.
    if f == 0.0 || !f.is_finite() {
        return 0.0;
    }
    let magnitude = f.abs().log10().floor();
    let scale = 10f64.powf(7.0 - magnitude);
    (f * scale).round() / scale
}

/// Assert-style helper: whether two result batches contain the same multiset
/// of rows (after canonicalisation).
pub fn same_result(a: &Batch, b: &Batch) -> bool {
    canonical_rows(a) == canonical_rows(b)
}

/// Relative tolerance for floats in [`results_match`] (absolute below
/// magnitude 1). Summation order differs between executors, partial
/// aggregation and recovery replays, which moves a sum of N values by about
/// N x 1e-16 of its magnitude; a lost or duplicated row moves it by far more.
const FLOAT_TOLERANCE: f64 = 1e-9;

/// Whether two result batches hold the same multiset of rows, compared
/// positionally by column, floats within a relative 1e-9.
///
/// Unlike [`same_result`], which rounds floats to 8 significant digits and
/// so can call two sums 1e-11 apart different when they straddle a rounding
/// boundary (a half cent), this is stricter everywhere except at those
/// boundaries. Two NaNs (a MIN or MAX over no rows) match.
pub fn results_match(a: &Batch, b: &Batch) -> bool {
    if a.num_columns() != b.num_columns() || a.num_rows() != b.num_rows() {
        return false;
    }
    let (a, b) = (sorted_rows(a), sorted_rows(b));
    a.iter().zip(&b).all(|(x, y)| {
        x.iter().zip(y).all(|(x, y)| match (x, y) {
            (ScalarValue::Float64(x), ScalarValue::Float64(y)) => floats_match(*x, *y),
            _ => x == y,
        })
    })
}

/// Rows sorted by their exact columns first and their floats last, so float
/// noise cannot reorder rows whose other columns differ.
fn sorted_rows(batch: &Batch) -> Vec<Vec<ScalarValue>> {
    let mut rows: Vec<Vec<ScalarValue>> = (0..batch.num_rows()).map(|r| batch.row(r)).collect();
    let is_float = |v: &ScalarValue| matches!(v, ScalarValue::Float64(_));
    rows.sort_by(|a, b| {
        let exact = a.iter().zip(b).filter(|(x, _)| !is_float(x));
        let floats = a.iter().zip(b).filter(|(x, _)| is_float(x));
        exact
            .chain(floats)
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| o.is_ne())
            .unwrap_or(Ordering::Equal)
    });
    rows
}

fn floats_match(a: f64, b: f64) -> bool {
    a == b
        || (a.is_nan() && b.is_nan())
        || (a - b).abs() <= FLOAT_TOLERANCE * a.abs().max(b.abs()).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::{count, sum};
    use crate::catalog::MemoryCatalog;
    use crate::expr::{col, lit};
    use crate::logical::PlanBuilder;
    use quokka_batch::{Column, DataType};

    fn catalog() -> MemoryCatalog {
        let catalog = MemoryCatalog::new();
        let customer =
            Schema::from_pairs(&[("c_custkey", DataType::Int64), ("c_name", DataType::Utf8)]);
        catalog.register(
            "customer",
            customer.clone(),
            vec![Batch::try_new(
                customer,
                vec![
                    Column::Int64(vec![1, 2, 3]),
                    Column::Utf8(vec!["alice".into(), "bob".into(), "carol".into()]),
                ],
            )
            .unwrap()],
        );
        let orders = Schema::from_pairs(&[
            ("o_orderkey", DataType::Int64),
            ("o_custkey", DataType::Int64),
            ("o_total", DataType::Float64),
        ]);
        catalog.register(
            "orders",
            orders.clone(),
            vec![Batch::try_new(
                orders,
                vec![
                    Column::Int64(vec![10, 11, 12, 13]),
                    Column::Int64(vec![1, 1, 2, 9]),
                    Column::Float64(vec![100.0, 50.0, 75.0, 20.0]),
                ],
            )
            .unwrap()],
        );
        catalog
    }

    #[test]
    fn scan_filter_project() {
        let catalog = catalog();
        let exec = ReferenceExecutor::new(&catalog);
        let plan = PlanBuilder::scan("orders", catalog.table_schema("orders").unwrap())
            .filter(col("o_total").gt_eq(lit(50.0f64)))
            .project(vec![(col("o_orderkey"), "key")])
            .build()
            .unwrap();
        let result = exec.execute(&plan).unwrap();
        assert_eq!(result.num_rows(), 3);
        assert_eq!(result.schema().column_names(), vec!["key"]);
    }

    #[test]
    fn inner_join_and_aggregate() {
        let catalog = catalog();
        let exec = ReferenceExecutor::new(&catalog);
        let plan = PlanBuilder::scan("customer", catalog.table_schema("customer").unwrap())
            .join(
                PlanBuilder::scan("orders", catalog.table_schema("orders").unwrap()),
                vec![("c_custkey", "o_custkey")],
                JoinType::Inner,
            )
            .aggregate(
                vec![(col("c_name"), "c_name")],
                vec![sum(col("o_total"), "revenue"), count(col("o_orderkey"), "orders")],
            )
            .sort(vec![("revenue", false)])
            .build()
            .unwrap();
        let result = exec.execute(&plan).unwrap();
        assert_eq!(result.num_rows(), 2);
        assert_eq!(result.value(0, 0), ScalarValue::Utf8("alice".into()));
        assert_eq!(result.value(0, 1), ScalarValue::Float64(150.0));
        assert_eq!(result.value(0, 2), ScalarValue::Int64(2));
        assert_eq!(result.value(1, 0), ScalarValue::Utf8("bob".into()));
    }

    #[test]
    fn semi_anti_and_left_joins() {
        let catalog = catalog();
        let exec = ReferenceExecutor::new(&catalog);
        // customers that have orders (semi): 1, 2
        let semi = PlanBuilder::scan("orders", catalog.table_schema("orders").unwrap())
            .join(
                PlanBuilder::scan("customer", catalog.table_schema("customer").unwrap()),
                vec![("o_custkey", "c_custkey")],
                JoinType::Semi,
            )
            .build()
            .unwrap();
        assert_eq!(exec.execute(&semi).unwrap().num_rows(), 2);

        // customers with no orders (anti): 3
        let anti = PlanBuilder::scan("orders", catalog.table_schema("orders").unwrap())
            .join(
                PlanBuilder::scan("customer", catalog.table_schema("customer").unwrap()),
                vec![("o_custkey", "c_custkey")],
                JoinType::Anti,
            )
            .build()
            .unwrap();
        let result = exec.execute(&anti).unwrap();
        assert_eq!(result.num_rows(), 1);
        assert_eq!(result.value(0, 1), ScalarValue::Utf8("carol".into()));

        // left join preserving all customers
        let left = PlanBuilder::scan("orders", catalog.table_schema("orders").unwrap())
            .join(
                PlanBuilder::scan("customer", catalog.table_schema("customer").unwrap()),
                vec![("o_custkey", "c_custkey")],
                JoinType::Left,
            )
            .build()
            .unwrap();
        let result = exec.execute(&left).unwrap();
        assert_eq!(result.num_rows(), 4); // 3 matches + carol unmatched
    }

    #[test]
    fn limit_and_sort_limit() {
        let catalog = catalog();
        let exec = ReferenceExecutor::new(&catalog);
        let plan = PlanBuilder::scan("orders", catalog.table_schema("orders").unwrap())
            .sort_limit(vec![("o_total", false)], 2)
            .build()
            .unwrap();
        let result = exec.execute(&plan).unwrap();
        assert_eq!(result.num_rows(), 2);
        assert_eq!(result.value(0, 2), ScalarValue::Float64(100.0));

        let plan = PlanBuilder::scan("orders", catalog.table_schema("orders").unwrap())
            .limit(3)
            .build()
            .unwrap();
        assert_eq!(exec.execute(&plan).unwrap().num_rows(), 3);
    }

    #[test]
    fn canonical_rows_ignore_order_and_float_jitter() {
        let schema = Schema::from_pairs(&[("k", DataType::Int64), ("v", DataType::Float64)]);
        let a = Batch::try_new(
            schema.clone(),
            vec![Column::Int64(vec![1, 2]), Column::Float64(vec![1.0, 2.0000000001])],
        )
        .unwrap();
        let b = Batch::try_new(
            schema,
            vec![Column::Int64(vec![2, 1]), Column::Float64(vec![2.0, 1.0])],
        )
        .unwrap();
        assert!(same_result(&a, &b));
        assert_eq!(canonical_rows(&a).len(), 2);
    }

    #[test]
    fn results_match_within_a_relative_tolerance_in_any_row_order() {
        let batch = |names: &[&str], values: &[f64]| {
            let schema = Schema::from_pairs(&[("name", DataType::Utf8), ("v", DataType::Float64)]);
            let names = names.iter().map(|n| n.to_string()).collect();
            Batch::try_new(schema, vec![Column::Utf8(names), Column::Float64(values.to_vec())])
                .unwrap()
        };
        // Two summation orders of one money sum, straddling the half cent:
        // 8-digit rounding calls them different, the tolerance does not.
        let engine = batch(&["a", "b"], &[187376.75499999998, 10.0]);
        let oracle = batch(&["b", "a"], &[10.0, 187376.755]);
        assert!(!same_result(&engine, &oracle));
        assert!(results_match(&engine, &oracle));
        // A lost row's worth of difference, a different key, a missing row
        // or a missing column all differ; NaNs (MIN over no rows) match.
        assert!(!results_match(&engine, &batch(&["a", "b"], &[187376.0, 10.0])));
        assert!(!results_match(&engine, &batch(&["a", "c"], &[187376.755, 10.0])));
        assert!(!results_match(&engine, &batch(&["a"], &[187376.755])));
        assert!(!results_match(&engine, &engine.project(&[0])));
        assert!(results_match(&batch(&["a"], &[f64::NAN]), &batch(&["a"], &[f64::NAN])));
    }
}
