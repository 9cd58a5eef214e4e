//! Compilation of a logical plan into a DAG of pipeline stages.
//!
//! This is the structure the paper's execution model is built around: a
//! query is a sequence of **stages**, each executed by data-parallel
//! **channels**, connected by hash-partitioned shuffles. Stateless
//! filter/project work is fused into the producing stage; every stateful
//! operator (join, aggregation, sort, limit) becomes its own stage.
//!
//! An aggregation runs in two phases where it can ([`TwoPhase`]): the stage
//! feeding it ends in a partial aggregate, so the shuffle carries partial
//! states instead of input rows, and the aggregate stage merges them.
//!
//! Tasks are later named `(stage, channel, sequence)` by the engine, so the
//! stage ids assigned here are the first component of every lineage record.

use crate::aggregate::TwoPhase;
use crate::expr::Expr;
use crate::logical::LogicalPlan;
use crate::physical::{CoreOp, OperatorSpec, Transform};
use quokka_batch::Schema;
use quokka_common::ids::StageId;
use quokka_common::{QuokkaError, Result};

/// How many channels a stage runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parallelism {
    /// One channel per configured slot (the cluster decides the number).
    DataParallel,
    /// Exactly one channel (global aggregates, sorts, limits).
    Single,
}

/// A base-table scan feeding a stage.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanSpec {
    pub table: String,
    pub schema: Schema,
}

/// One stage of the compiled query.
#[derive(Debug, Clone)]
pub struct StageSpec {
    pub id: StageId,
    /// Upstream stage ids in operator-input order (for a join: `[build,
    /// probe]`).
    pub inputs: Vec<StageId>,
    /// The operator every channel of this stage runs.
    pub op: OperatorSpec,
    /// For leaf stages, the table being scanned.
    pub scan: Option<ScanSpec>,
    /// Column indices (into this stage's output schema) used to hash-
    /// partition output for the consuming stage. Empty means "everything to
    /// the consumer's channel 0" (the consumer is single-channel).
    pub partition_by: Vec<usize>,
    pub parallelism: Parallelism,
}

impl StageSpec {
    /// Output schema of this stage.
    pub fn output_schema(&self) -> Result<Schema> {
        self.op.output_schema()
    }

    /// Whether this stage reads a base table.
    pub fn is_scan(&self) -> bool {
        self.scan.is_some()
    }

    /// Whether the stage's operator carries state across tasks.
    pub fn is_stateful(&self) -> bool {
        self.op.is_stateful()
    }
}

/// The compiled stage DAG. Stages are stored in topological order (every
/// stage appears after all of its inputs); the last stage is the sink whose
/// output is the query result.
#[derive(Debug, Clone)]
pub struct StageGraph {
    pub stages: Vec<StageSpec>,
    pub sink: StageId,
}

impl StageGraph {
    /// Compile a logical plan.
    pub fn compile(plan: &LogicalPlan) -> Result<StageGraph> {
        let mut planner = Planner { stages: Vec::new() };
        let sink = planner.build(plan)?;
        Ok(StageGraph { stages: planner.stages, sink })
    }

    pub fn stage(&self, id: StageId) -> &StageSpec {
        &self.stages[id as usize]
    }

    pub fn num_stages(&self) -> usize {
        self.stages.len()
    }

    /// Stage ids that consume the output of `id` (0 or 1 for tree plans).
    pub fn consumers(&self, id: StageId) -> Vec<StageId> {
        self.stages.iter().filter(|s| s.inputs.contains(&id)).map(|s| s.id).collect()
    }

    /// The input position (operator input index) at which `producer` feeds
    /// `consumer`.
    pub fn input_index(&self, consumer: StageId, producer: StageId) -> Result<usize> {
        self.stage(consumer).inputs.iter().position(|&i| i == producer).ok_or_else(|| {
            QuokkaError::internal(format!("stage {producer} does not feed stage {consumer}"))
        })
    }

    /// Ids of stages in reverse topological order (sink first) — the order
    /// the paper's recovery algorithm (Algorithm 2) walks the stages in.
    pub fn reverse_topological(&self) -> Vec<StageId> {
        (0..self.stages.len() as StageId).rev().collect()
    }

    /// Number of stages whose operator is stateful — the paper's bound on
    /// pipeline-parallel recovery parallelism (§III-B).
    pub fn stateful_stage_count(&self) -> usize {
        self.stages.iter().filter(|s| s.is_stateful()).count()
    }

    /// An EXPLAIN-style rendering of the stage DAG.
    pub fn display(&self) -> String {
        let mut out = String::new();
        for stage in &self.stages {
            let kind = match &stage.op.core {
                CoreOp::Map { .. } => "Map",
                CoreOp::HashJoin { .. } => "HashJoin",
                CoreOp::HashAggregate { .. } => "HashAggregate",
                CoreOp::Sort { .. } => "Sort",
                CoreOp::Limit { .. } => "Limit",
            };
            let scan =
                stage.scan.as_ref().map(|s| format!(" scan={}", s.table)).unwrap_or_default();
            out.push_str(&format!(
                "stage {}: {}{} inputs={:?} partition_by={:?} parallelism={:?} post={}\n",
                stage.id,
                kind,
                scan,
                stage.inputs,
                stage.partition_by,
                stage.parallelism,
                stage.op.post.len(),
            ));
        }
        out
    }
}

struct Planner {
    stages: Vec<StageSpec>,
}

impl Planner {
    /// End the child stage in a partial aggregate and return the operator
    /// that merges its partial states. The partial evaluates the group keys,
    /// so the merge groups on the plain columns that lead its output.
    fn partial_then_merge(
        &mut self,
        child: StageId,
        group_by: &[(Expr, String)],
        keys: Vec<String>,
        split: TwoPhase,
    ) -> Result<OperatorSpec> {
        let producer = &mut self.stages[child as usize];
        producer.op.post.push(Transform::PartialAggregate {
            group_by: group_by.to_vec(),
            aggregates: split.partial,
        });
        let mut op = OperatorSpec::new(CoreOp::HashAggregate {
            input_schema: producer.output_schema()?,
            group_by: keys.into_iter().map(|name| (Expr::Column(name.clone()), name)).collect(),
            aggregates: split.merge,
        });
        op.post.extend(split.finish.map(Transform::Project));
        Ok(op)
    }

    fn push_stage(
        &mut self,
        inputs: Vec<StageId>,
        op: OperatorSpec,
        scan: Option<ScanSpec>,
        parallelism: Parallelism,
    ) -> StageId {
        let id = self.stages.len() as StageId;
        self.stages.push(StageSpec { id, inputs, op, scan, partition_by: Vec::new(), parallelism });
        id
    }

    fn build(&mut self, plan: &LogicalPlan) -> Result<StageId> {
        match plan {
            LogicalPlan::Scan { table, schema } => Ok(self.push_stage(
                vec![],
                OperatorSpec::new(CoreOp::Map { input_schema: schema.clone() }),
                Some(ScanSpec { table: table.clone(), schema: schema.clone() }),
                Parallelism::DataParallel,
            )),
            LogicalPlan::Filter { input, predicate } => {
                let child = self.build(input)?;
                self.stages[child as usize].op.post.push(Transform::Filter(predicate.clone()));
                Ok(child)
            }
            LogicalPlan::Project { input, exprs } => {
                let child = self.build(input)?;
                self.stages[child as usize].op.post.push(Transform::Project(exprs.clone()));
                Ok(child)
            }
            LogicalPlan::Join { build, probe, on, join_type } => {
                let build_stage = self.build(build)?;
                let probe_stage = self.build(probe)?;
                let build_schema = self.stages[build_stage as usize].output_schema()?;
                let probe_schema = self.stages[probe_stage as usize].output_schema()?;
                let mut build_keys = Vec::with_capacity(on.len());
                let mut probe_keys = Vec::with_capacity(on.len());
                for (b, p) in on {
                    build_keys.push(build_schema.index_of(b)?);
                    probe_keys.push(probe_schema.index_of(p)?);
                }
                self.stages[build_stage as usize].partition_by = build_keys.clone();
                self.stages[probe_stage as usize].partition_by = probe_keys.clone();
                // A keyless (cross) join cannot hash-partition its inputs:
                // every probe row must see every build row, so the join runs
                // on a single channel and both producers send it everything.
                let parallelism =
                    if on.is_empty() { Parallelism::Single } else { Parallelism::DataParallel };
                Ok(self.push_stage(
                    vec![build_stage, probe_stage],
                    OperatorSpec::new(CoreOp::HashJoin {
                        build_schema,
                        probe_schema,
                        build_keys,
                        probe_keys,
                        join_type: *join_type,
                    }),
                    None,
                    parallelism,
                ))
            }
            LogicalPlan::Aggregate { input, group_by, aggregates } => {
                let child = self.build(input)?;
                let input_schema = self.stages[child as usize].output_schema()?;
                // Data-parallel aggregation hash-partitions the child's
                // output on the group keys, so it needs every key to be a
                // plain column; otherwise the aggregate runs on a single
                // channel. A two-phase merge could partition on the partial's
                // evaluated keys instead, but TPC-H's expression keys (years)
                // have a handful of groups: spreading their merge over every
                // channel only multiplied small tasks and slowed Q9.
                let key_indices: Option<Vec<usize>> = group_by
                    .iter()
                    .map(|(e, _)| match e {
                        Expr::Column(name) => input_schema.index_of(name).ok(),
                        _ => None,
                    })
                    .collect();
                let mut partition_by = key_indices.unwrap_or_default();
                let parallelism = if partition_by.is_empty() {
                    Parallelism::Single
                } else {
                    Parallelism::DataParallel
                };
                let keys: Vec<String> = group_by.iter().map(|(_, name)| name.clone()).collect();
                let op = match TwoPhase::split(&keys, aggregates) {
                    Some(split) => {
                        // The partial's output leads with the keys.
                        partition_by = (0..partition_by.len()).collect();
                        self.partial_then_merge(child, group_by, keys, split)?
                    }
                    None => OperatorSpec::new(CoreOp::HashAggregate {
                        input_schema,
                        group_by: group_by.clone(),
                        aggregates: aggregates.clone(),
                    }),
                };
                self.stages[child as usize].partition_by = partition_by;
                Ok(self.push_stage(vec![child], op, None, parallelism))
            }
            LogicalPlan::Sort { input, keys, limit } => {
                let child = self.build(input)?;
                let input_schema = self.stages[child as usize].output_schema()?;
                self.stages[child as usize].partition_by = Vec::new();
                Ok(self.push_stage(
                    vec![child],
                    OperatorSpec::new(CoreOp::Sort {
                        input_schema,
                        keys: keys.clone(),
                        limit: *limit,
                    }),
                    None,
                    Parallelism::Single,
                ))
            }
            LogicalPlan::Limit { input, n } => {
                let child = self.build(input)?;
                let input_schema = self.stages[child as usize].output_schema()?;
                self.stages[child as usize].partition_by = Vec::new();
                Ok(self.push_stage(
                    vec![child],
                    OperatorSpec::new(CoreOp::Limit { input_schema, n: *n }),
                    None,
                    Parallelism::Single,
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::{avg, count, count_distinct, max, min, sum, AggExpr, AggFunc};
    use crate::catalog::MemoryCatalog;
    use crate::expr::{col, lit};
    use crate::logical::{JoinType, PlanBuilder};
    use crate::reference::{results_match, ReferenceExecutor};
    use quokka_batch::datatype::ScalarValue;
    use quokka_batch::{Batch, Column, DataType, DictColumn};

    fn lineitem() -> Schema {
        Schema::from_pairs(&[
            ("l_orderkey", DataType::Int64),
            ("l_extendedprice", DataType::Float64),
            ("l_discount", DataType::Float64),
        ])
    }

    fn orders() -> Schema {
        Schema::from_pairs(&[("o_orderkey", DataType::Int64), ("o_orderdate", DataType::Date)])
    }

    #[test]
    fn scan_filter_project_fuse_into_one_stage() {
        let plan = PlanBuilder::scan("lineitem", lineitem())
            .filter(col("l_discount").gt(lit(0.05f64)))
            .project(vec![(col("l_extendedprice"), "p")])
            .build()
            .unwrap();
        let graph = StageGraph::compile(&plan).unwrap();
        assert_eq!(graph.num_stages(), 1);
        let stage = graph.stage(0);
        assert!(stage.is_scan());
        assert!(!stage.is_stateful());
        assert_eq!(stage.op.post.len(), 2);
        assert_eq!(stage.output_schema().unwrap().column_names(), vec!["p"]);
    }

    #[test]
    fn join_creates_three_stages_with_key_partitioning() {
        let plan = PlanBuilder::scan("orders", orders())
            .join(
                PlanBuilder::scan("lineitem", lineitem()),
                vec![("o_orderkey", "l_orderkey")],
                JoinType::Inner,
            )
            .build()
            .unwrap();
        let graph = StageGraph::compile(&plan).unwrap();
        assert_eq!(graph.num_stages(), 3);
        assert_eq!(graph.sink, 2);
        // Build side (orders) partitions on o_orderkey (index 0), probe side
        // on l_orderkey (index 0).
        assert_eq!(graph.stage(0).partition_by, vec![0]);
        assert_eq!(graph.stage(1).partition_by, vec![0]);
        assert_eq!(graph.stage(2).inputs, vec![0, 1]);
        assert_eq!(graph.input_index(2, 0).unwrap(), 0);
        assert_eq!(graph.input_index(2, 1).unwrap(), 1);
        assert!(graph.input_index(1, 0).is_err());
        assert_eq!(graph.consumers(0), vec![2]);
        assert_eq!(graph.consumers(2), Vec::<StageId>::new());
        assert_eq!(graph.stateful_stage_count(), 1);
        assert_eq!(graph.reverse_topological(), vec![2, 1, 0]);
        assert!(graph.display().contains("HashJoin"));
    }

    #[test]
    fn aggregate_on_columns_is_data_parallel() {
        let plan = PlanBuilder::scan("lineitem", lineitem())
            .aggregate(
                vec![(col("l_orderkey"), "l_orderkey")],
                vec![sum(col("l_extendedprice"), "rev")],
            )
            .build()
            .unwrap();
        let graph = StageGraph::compile(&plan).unwrap();
        assert_eq!(graph.num_stages(), 2);
        assert_eq!(graph.stage(1).parallelism, Parallelism::DataParallel);
        assert_eq!(graph.stage(0).partition_by, vec![0]);

        // The producer partitions its partial states, whose keys lead.
        let plan = PlanBuilder::scan("lineitem", lineitem())
            .aggregate(
                vec![(col("l_discount"), "d"), (col("l_orderkey"), "k")],
                vec![sum(col("l_extendedprice"), "rev")],
            )
            .build()
            .unwrap();
        let graph = StageGraph::compile(&plan).unwrap();
        assert_eq!(graph.stage(1).parallelism, Parallelism::DataParallel);
        assert_eq!(graph.stage(0).output_schema().unwrap().column_names(), vec!["d", "k", "rev"]);
        assert_eq!(graph.stage(0).partition_by, vec![0, 1]);
    }

    #[test]
    fn global_aggregate_and_sort_are_single_channel() {
        let plan = PlanBuilder::scan("lineitem", lineitem())
            .aggregate(vec![], vec![sum(col("l_extendedprice"), "rev")])
            .sort(vec![("rev", false)])
            .build()
            .unwrap();
        let graph = StageGraph::compile(&plan).unwrap();
        assert_eq!(graph.num_stages(), 3);
        assert_eq!(graph.stage(1).parallelism, Parallelism::Single);
        assert_eq!(graph.stage(2).parallelism, Parallelism::Single);
        assert!(graph.stage(0).partition_by.is_empty());
    }

    #[test]
    fn expression_group_keys_force_single_channel() {
        let plan = PlanBuilder::scan("orders", orders())
            .aggregate(vec![(col("o_orderdate").year(), "year")], vec![sum(col("o_orderkey"), "s")])
            .build()
            .unwrap();
        let graph = StageGraph::compile(&plan).unwrap();
        assert_eq!(graph.stage(1).parallelism, Parallelism::Single);
        // The partial at the end of the scan stage still evaluates
        // `year(o_orderdate)`, so the merge groups by a plain column.
        assert!(graph.stage(0).partition_by.is_empty());
        assert!(matches!(graph.stage(0).op.post.last(), Some(Transform::PartialAggregate { .. })));
        assert_eq!(graph.stage(0).output_schema().unwrap().column_names(), vec!["year", "s"]);
        assert_eq!(graph.stage(1).output_schema().unwrap(), plan.schema().unwrap());
    }

    #[test]
    fn count_distinct_stays_single_phase() {
        for (key, parallelism) in [
            (col("o_orderdate").year(), Parallelism::Single),
            (col("o_orderdate"), Parallelism::DataParallel),
        ] {
            let plan = PlanBuilder::scan("orders", orders())
                .aggregate(
                    vec![(key, "k")],
                    vec![sum(col("o_orderkey"), "s"), count_distinct(col("o_orderkey"), "d")],
                )
                .build()
                .unwrap();
            let graph = StageGraph::compile(&plan).unwrap();
            assert!(graph.stage(0).op.post.is_empty(), "no partial aggregate");
            assert_eq!(graph.stage(1).parallelism, parallelism);
            let CoreOp::HashAggregate { aggregates, input_schema, .. } = &graph.stage(1).op.core
            else {
                panic!("stage 1 is the aggregate");
            };
            assert_eq!(input_schema, &orders());
            assert_eq!(aggregates[1].func, AggFunc::CountDistinct);
        }
    }

    /// The table the two-phase tests aggregate: a string key, an integer
    /// key and one column per value type.
    fn sales() -> Schema {
        Schema::from_pairs(&[
            ("region", DataType::Utf8),
            ("store", DataType::Int64),
            ("units", DataType::Int64),
            ("price", DataType::Float64),
            ("day", DataType::Date),
        ])
    }

    /// Three batches: a dictionary-keyed one and a narrow-key one the
    /// partial pre-aggregates, and a plain-string one it passes row by row.
    fn sales_batches() -> Vec<Batch> {
        let regions = |names: &[&str]| names.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let batch = |region: Column, store: Vec<i64>, units: Vec<i64>, price: Vec<f64>| {
            let days = (0..store.len() as i32).map(|d| 9000 + d * 7).collect();
            Batch::try_new(
                sales(),
                vec![
                    region,
                    Column::Int64(store),
                    Column::Int64(units),
                    Column::Float64(price),
                    Column::Date(days),
                ],
            )
            .unwrap()
        };
        vec![
            batch(
                Column::Dict(DictColumn::from_plain(&regions(&[
                    "east", "west", "east", "east", "west", "north",
                ]))),
                vec![1, 1, 2, 2, 1, 2],
                vec![3, 5, 7, 1, 2, 4],
                vec![1.25, 0.1, 7.5, 3.0, 0.2, 0.7],
            ),
            batch(
                Column::Utf8(regions(&["west", "south", "east"])),
                vec![40, 7, 1],
                vec![9, 6, 8],
                vec![2.5, 0.3, 1.1],
            ),
            batch(
                Column::Utf8(regions(&["east", "east", "west", "west"])),
                vec![2, 2, 1, 1],
                vec![1, 1, 1, 1],
                vec![0.01, 0.02, 0.03, 0.04],
            ),
        ]
    }

    fn every_aggregate() -> Vec<AggExpr> {
        vec![
            sum(col("units"), "sum_units"),
            sum(col("price"), "sum_price"),
            sum(col("day"), "sum_day"),
            avg(col("units"), "avg_units"),
            avg(col("price"), "avg_price"),
            min(col("price"), "min_price"),
            max(col("units"), "max_units"),
            min(col("region"), "min_region"),
            max(col("day"), "max_day"),
            count(col("price"), "n"),
        ]
    }

    /// Run a compiled scan -> aggregate graph as the engine would, with one
    /// channel per stage: each batch through the scan stage's operator and
    /// its output through the aggregate stage's.
    fn run_scan_then_aggregate(graph: &StageGraph, batches: &[Batch]) -> Batch {
        assert_eq!(graph.num_stages(), 2);
        let mut producer = graph.stage(0).op.instantiate().unwrap();
        let mut merge = graph.stage(1).op.instantiate().unwrap();
        for batch in batches {
            for partial in producer.push(0, batch.clone()).unwrap() {
                assert_eq!(partial.schema(), &graph.stage(0).output_schema().unwrap());
                merge.push(0, partial).unwrap();
            }
        }
        Batch::concat(&merge.finish().unwrap()).unwrap()
    }

    #[test]
    fn two_phase_matches_the_reference_for_every_aggregate() {
        let keys: [Vec<(Expr, &str)>; 3] = [
            vec![(col("region"), "region")],
            vec![(col("region"), "region"), (col("store"), "store")],
            vec![],
        ];
        for group_by in keys {
            let grouped = !group_by.is_empty();
            for batches in [sales_batches(), vec![Batch::empty(sales())], vec![]] {
                let catalog = MemoryCatalog::new();
                catalog.register("sales", sales(), batches.clone());
                let plan = PlanBuilder::scan("sales", sales())
                    .aggregate(group_by.clone(), every_aggregate())
                    .build()
                    .unwrap();
                let graph = StageGraph::compile(&plan).unwrap();
                assert!(matches!(
                    graph.stage(0).op.post.last(),
                    Some(Transform::PartialAggregate { .. })
                ));
                let two_phase = run_scan_then_aggregate(&graph, &batches);
                let one_phase = ReferenceExecutor::new(&catalog).execute(&plan).unwrap();
                assert_eq!(two_phase.schema(), one_phase.schema());
                assert!(
                    results_match(&two_phase, &one_phase),
                    "two-phase {two_phase:?}\none-phase {one_phase:?}"
                );
                let empty = batches.iter().all(|b| b.num_rows() == 0);
                if empty && !grouped {
                    // A global aggregate over no input still yields one row.
                    assert_eq!(two_phase.num_rows(), 1);
                    let value = |name: &str| two_phase.column_by_name(name).unwrap().get(0);
                    assert_eq!(value("n"), ScalarValue::Int64(0));
                    assert_eq!(value("sum_units"), ScalarValue::Int64(0));
                    assert_eq!(value("sum_price"), ScalarValue::Float64(0.0));
                    assert_eq!(value("avg_units"), ScalarValue::Float64(0.0));
                    assert_eq!(value("avg_price"), ScalarValue::Float64(0.0));
                } else if empty {
                    assert_eq!(two_phase.num_rows(), 0);
                }
            }
        }
    }
}
