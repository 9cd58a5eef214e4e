//! Optimized-vs-unoptimized parity: the rule-based logical optimizer must
//! never change what a query *returns*, only how it executes.
//!
//! * Every TPC-H plan, optimized and naive, must agree on the reference
//!   executor and on the distributed runtime (including under fault
//!   injection).
//! * Property tests: every individual rewrite rule — and the full pipeline —
//!   preserves `plan.schema()` and the reference-executor result multiset on
//!   randomized plans over generated data.

use proptest::prelude::*;
use quokka::plan::aggregate::{avg, count, max, min, sum};
use quokka::plan::expr::{col, lit, Expr};
use quokka::plan::optimizer::{Optimizer, RULE_NAMES};
use quokka::plan::physical::{CoreOp, Transform};
use quokka::plan::stage::{StageGraph, StageSpec};
use quokka::plan::Catalog;
use quokka::{
    results_match, Batch, ChaosPlan, Column, DataType, EngineConfig, JoinType, LogicalPlan,
    PlanBuilder, QuokkaSession, ScalarValue, Schema,
};
use std::collections::BTreeSet;

fn session() -> QuokkaSession {
    QuokkaSession::tpch(0.002, 3).expect("generate TPC-H data")
}

/// Reference-executor parity for every TPC-H query: the optimized plan has
/// the same schema and the same result multiset as the plan as written.
#[test]
fn all_22_tpch_plans_are_reference_identical_after_optimization() {
    let session = session();
    for q in quokka::tpch::ALL_QUERIES {
        let plan = quokka::tpch::query(q).unwrap();
        let optimized = session.optimize(&plan).unwrap_or_else(|e| panic!("Q{q}: {e}"));
        assert_eq!(
            optimized.schema().unwrap(),
            plan.schema().unwrap(),
            "Q{q}: optimizer changed the schema"
        );
        let naive = session.run_reference(&plan).unwrap();
        let rewritten = session.run_reference(&optimized).unwrap();
        assert!(
            results_match(&naive, &rewritten),
            "Q{q}: optimized plan diverged on the reference executor\n{}",
            optimized.display_indent()
        );
    }
}

/// Distributed parity: run each query twice on the simulated cluster — once
/// with the optimizer disabled, once enabled — and compare. Split across
/// tests so the suite parallelizes.
fn check_distributed_parity(queries: &[usize]) {
    let session = session();
    let naive_config = EngineConfig::quokka(3).with_optimize(false);
    let optimized_config = EngineConfig::quokka(3).with_optimize(true);
    for &q in queries {
        let plan = quokka::tpch::query(q).unwrap();
        let naive = session.run_with(&plan, &naive_config).unwrap();
        let optimized = session.run_with(&plan, &optimized_config).unwrap();
        assert!(
            results_match(&naive.batch, &optimized.batch),
            "Q{q}: optimized and unoptimized distributed runs disagree"
        );
    }
}

#[test]
fn distributed_parity_q1_to_q6() {
    check_distributed_parity(&[1, 2, 3, 4, 5, 6]);
}

#[test]
fn distributed_parity_q7_to_q12() {
    check_distributed_parity(&[7, 8, 9, 10, 11, 12]);
}

#[test]
fn distributed_parity_q13_to_q17() {
    check_distributed_parity(&[13, 14, 15, 16, 17]);
}

#[test]
fn distributed_parity_q18_to_q22() {
    check_distributed_parity(&[18, 19, 20, 21, 22]);
}

/// Fault injection on optimized plans: killing a worker halfway through must
/// still produce exactly the naive reference result.
#[test]
fn optimized_plans_survive_fault_injection() {
    let session = session();
    for q in [3usize, 5, 12] {
        let plan = quokka::tpch::query(q).unwrap();
        let expected = session.run_reference(&plan).unwrap();
        let config = EngineConfig::quokka(3)
            .with_optimize(true)
            .with_chaos(ChaosPlan::kill_at_progress(1, 0.5));
        let outcome = session.run_with(&plan, &config).unwrap();
        assert!(
            results_match(&expected, &outcome.batch),
            "Q{q}: optimized plan diverged under fault injection"
        );
        assert_eq!(outcome.metrics.failures, 1);
    }
}

/// The optimizer must reduce shuffle volume on join-heavy queries (the
/// shuffle bench gates Q3/Q5/Q9 at a larger scale; this is the in-suite
/// smoke version).
#[test]
fn optimization_reduces_shuffle_bytes_on_q3() {
    let session = session();
    let plan = quokka::tpch::query(3).unwrap();
    let naive = session.run_with(&plan, &EngineConfig::quokka(3).with_optimize(false)).unwrap();
    let optimized = session.run_with(&plan, &EngineConfig::quokka(3).with_optimize(true)).unwrap();
    assert!(
        optimized.metrics.shuffle_bytes < naive.metrics.shuffle_bytes,
        "optimized Q3 shuffled {} bytes, naive {}",
        optimized.metrics.shuffle_bytes,
        naive.metrics.shuffle_bytes
    );
    assert!(!optimized.metrics.shuffle_edges.is_empty(), "per-edge counters must be recorded");
    let edge_total: u64 = optimized.metrics.shuffle_edges.iter().map(|e| e.bytes).sum();
    assert_eq!(edge_total, optimized.metrics.shuffle_bytes, "edges must sum to the total");
}

// ---------------------------------------------------------------------------
// Randomized-plan properties
// ---------------------------------------------------------------------------

/// Dead-column pruning plus partial aggregation, checked on the compiled
/// stage graph of every TPC-H SQL query: no stage ships a column that its
/// consuming stage never reads. The sink's output is the result, so it is
/// exempt.
#[test]
fn tpch_stages_ship_only_columns_their_consumers_read() {
    let session = session();
    for q in quokka::tpch::ALL_QUERIES {
        let sql = quokka::tpch::queries::sql::sql_text(q).unwrap();
        let plan = quokka::sql::plan_query(sql, session.catalog()).unwrap();
        let optimized = session.optimize(&plan).unwrap_or_else(|e| panic!("Q{q}: {e}"));
        let graph = StageGraph::compile(&optimized).unwrap();
        for stage in graph.stages.iter().filter(|s| s.id != graph.sink) {
            let consumer = graph.stage(graph.consumers(stage.id)[0]);
            let side = graph.input_index(consumer.id, stage.id).unwrap();
            let read = columns_read(consumer, side);
            for name in stage.output_schema().unwrap().column_names() {
                assert!(
                    read.contains(name),
                    "Q{q}: stage {} ships '{name}' to stage {}, which never reads it\n{}",
                    stage.id,
                    consumer.id,
                    graph.display()
                );
            }
        }
    }
}

/// The columns of input `side` that `stage` reads: its keys and aggregate
/// inputs, and whatever of that input reaches its output through its
/// transforms (the output itself counts as read; the next edge checks it).
fn columns_read(stage: &StageSpec, side: usize) -> BTreeSet<String> {
    let names = |exprs: &mut dyn Iterator<Item = &Expr>| -> BTreeSet<String> {
        exprs.flat_map(Expr::referenced_columns).collect()
    };
    let schema = stage.output_schema().unwrap();
    let mut needed: BTreeSet<String> =
        schema.column_names().into_iter().map(String::from).collect();
    for transform in stage.op.post.iter().rev() {
        needed = match transform {
            Transform::Filter(predicate) => {
                needed.extend(predicate.referenced_columns());
                needed
            }
            Transform::Project(exprs) => {
                names(&mut exprs.iter().filter(|(_, n)| needed.contains(n)).map(|(e, _)| e))
            }
            Transform::PartialAggregate { group_by, aggregates } => names(
                &mut group_by.iter().map(|(e, _)| e).chain(aggregates.iter().map(|a| &a.expr)),
            ),
        };
    }
    match &stage.op.core {
        CoreOp::HashJoin { build_schema, probe_schema, build_keys, probe_keys, join_type } => {
            let (input, keys) =
                if side == 0 { (build_schema, build_keys) } else { (probe_schema, probe_keys) };
            let mut read: BTreeSet<String> =
                keys.iter().map(|&k| input.field(k).name.clone()).collect();
            if side == 1 || matches!(join_type, JoinType::Inner | JoinType::Left) {
                read.extend(
                    input
                        .column_names()
                        .into_iter()
                        .filter(|n| needed.contains(*n))
                        .map(String::from),
                );
            }
            read
        }
        CoreOp::HashAggregate { group_by, aggregates, .. } => {
            names(&mut group_by.iter().map(|(e, _)| e).chain(aggregates.iter().map(|a| &a.expr)))
        }
        CoreOp::Sort { keys, .. } => {
            needed.extend(keys.iter().map(|(k, _)| k.clone()));
            needed
        }
        CoreOp::Limit { .. } | CoreOp::Map { .. } => needed,
    }
}

/// Deterministic mini-rng for plan generation (the proptest shim hands us a
/// seed; everything else is derived).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }
    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

/// A randomized catalog: an `items` fact table and a `groups` dim table with
/// seed-dependent contents (including empty-table and skewed-key cases).
fn random_catalog(rng: &mut Rng, session: &QuokkaSession) {
    let rows = rng.below(200) as usize; // may be zero
    let items = Schema::from_pairs(&[
        ("i_key", DataType::Int64),
        ("i_qty", DataType::Int64),
        ("i_price", DataType::Float64),
        ("i_tag", DataType::Utf8),
        ("i_flag", DataType::Bool),
    ]);
    let key_spread = 1 + rng.below(20) as i64;
    let mut keys = Vec::with_capacity(rows);
    let mut qtys = Vec::with_capacity(rows);
    let mut prices = Vec::with_capacity(rows);
    let mut tags = Vec::with_capacity(rows);
    let mut flags = Vec::with_capacity(rows);
    for _ in 0..rows {
        keys.push((rng.below(20) as i64) % key_spread);
        qtys.push(rng.below(50) as i64);
        prices.push(rng.below(10_000) as f64 / 100.0);
        tags.push(format!("tag-{}", rng.below(5)));
        flags.push(rng.chance(50));
    }
    let batch = Batch::try_new(
        items.clone(),
        vec![
            Column::Int64(keys),
            Column::Int64(qtys),
            Column::Float64(prices),
            Column::Utf8(tags),
            Column::Bool(flags),
        ],
    )
    .unwrap();
    session.register_table("items", items, batch.chunks(32));

    let dim_rows = rng.below(12) as usize;
    let groups = Schema::from_pairs(&[("g_key", DataType::Int64), ("g_name", DataType::Utf8)]);
    let batch = Batch::try_new(
        groups.clone(),
        vec![
            Column::Int64((0..dim_rows as i64).collect()),
            Column::Utf8((0..dim_rows).map(|i| format!("group-{i}")).collect()),
        ],
    )
    .unwrap();
    session.register_table("groups", groups, vec![batch]);
}

/// A random boolean predicate over the columns of `schema`.
fn random_predicate(rng: &mut Rng, schema: &Schema) -> Expr {
    let int_cols: Vec<&str> = schema
        .fields()
        .iter()
        .filter(|f| f.data_type == DataType::Int64)
        .map(|f| f.name.as_str())
        .collect();
    let base = if int_cols.is_empty() {
        lit(true)
    } else {
        let column = col(int_cols[rng.below(int_cols.len() as u64) as usize]);
        match rng.below(4) {
            0 => column.gt(lit(rng.below(30) as i64)),
            1 => column.lt_eq(lit(rng.below(30) as i64)),
            2 => column.eq(lit(rng.below(10) as i64)),
            _ => column.between(
                ScalarValue::Int64(rng.below(10) as i64),
                ScalarValue::Int64(10 + rng.below(20) as i64),
            ),
        }
    };
    match rng.below(4) {
        // Constant-foldable decoration around the real predicate.
        0 => lit(1i64).lt(lit(2i64)).and(base),
        1 => base.clone().or(lit(false)),
        2 => base.clone().and(lit(3i64).add(lit(4i64)).gt(lit(5i64))),
        _ => base,
    }
}

/// A random valid plan over the random catalog. Tracks the current output
/// schema so every generated expression resolves.
fn random_plan(rng: &mut Rng, session: &QuokkaSession) -> LogicalPlan {
    let items_schema = session.catalog().table_schema("items").unwrap();
    let groups_schema = session.catalog().table_schema("groups").unwrap();
    let mut builder = PlanBuilder::scan("items", items_schema.clone());

    // Maybe join the dim table: equi-join, semi/anti, or a cross join whose
    // equality lives in a WHERE above (exercising filter-to-join).
    match rng.below(5) {
        0 => {
            builder = PlanBuilder::scan("groups", groups_schema).join(
                builder,
                vec![("g_key", "i_key")],
                JoinType::Inner,
            );
        }
        1 => {
            builder = PlanBuilder::scan("groups", groups_schema).join(
                builder,
                vec![("g_key", "i_key")],
                JoinType::Semi,
            );
        }
        2 => {
            builder = PlanBuilder::scan("groups", groups_schema).join(
                builder,
                vec![("g_key", "i_key")],
                JoinType::Anti,
            );
        }
        3 => {
            builder = PlanBuilder::scan("groups", groups_schema)
                .join(builder, vec![], JoinType::Inner)
                .filter(col("g_key").eq(col("i_key")));
        }
        _ => {}
    }

    // A few random stacked operators.
    let schema = builder.clone().build().unwrap().schema().unwrap();
    let has_items = schema.index_of("i_price").is_ok();
    for _ in 0..rng.below(3) {
        let schema = builder.clone().build().unwrap().schema().unwrap();
        builder = builder.filter(random_predicate(rng, &schema));
    }
    if has_items && rng.chance(50) {
        builder = builder.project(vec![
            (col("i_key"), "k"),
            (col("i_price").mul(lit(1.1f64)), "gross"),
            (col("i_qty"), "q"),
        ]);
        if rng.chance(50) {
            builder = builder.filter(col("gross").gt(lit(5.0f64)));
        }
        if rng.chance(50) {
            builder = builder.aggregate(
                vec![(col("k"), "k")],
                vec![
                    sum(col("gross"), "total"),
                    count(col("q"), "n"),
                    avg(col("q"), "avg_q"),
                    min(col("gross"), "lo"),
                    max(col("gross"), "hi"),
                ],
            );
        }
    }
    let schema = builder.clone().build().unwrap().schema().unwrap();
    if rng.chance(40) {
        let key = schema.column_names()[0].to_string();
        builder = builder.sort(vec![(key.as_str(), rng.chance(50))]);
        if rng.chance(50) {
            builder = builder.limit(1 + rng.below(20) as usize);
        }
    } else if rng.chance(30) {
        builder = builder.limit(1 + rng.below(20) as usize);
    }
    builder.build().unwrap()
}

/// Result comparison that tolerates row-order differences (plans without a
/// total order may legitimately reorder under rewriting, and `Limit` keeps
/// an arbitrary subset — those plans are compared by row count only).
fn plans_agree(plan: &LogicalPlan, a: &Batch, b: &Batch) -> bool {
    fn has_nondeterministic_subset(plan: &LogicalPlan) -> bool {
        match plan {
            // A limit keeps whichever rows arrive first — and even above a
            // sort, ties on the sort key make the kept subset depend on the
            // (scheduling-dependent) order rows reached the sort buffer.
            LogicalPlan::Limit { .. } => true,
            LogicalPlan::Sort { input, limit, .. } => {
                // Top-k with ties can keep different tied rows.
                limit.is_some() || has_nondeterministic_subset(input)
            }
            _ => plan.children().iter().any(|c| has_nondeterministic_subset(c)),
        }
    }
    if has_nondeterministic_subset(plan) {
        a.num_rows() == b.num_rows()
    } else {
        results_match(a, b)
    }
}

// ---------------------------------------------------------------------------
// Decorrelation rule properties
// ---------------------------------------------------------------------------

/// A randomized subquery-bearing plan plus an independently hand-built
/// decorrelated twin (the join shape the rewrite is specified to produce).
/// Comparing the decorrelated plan's result against the twin pins each
/// decorrelation rule without going through the rewrite under test twice.
fn random_subquery_case(rng: &mut Rng, session: &QuokkaSession) -> (LogicalPlan, LogicalPlan) {
    let items = session.catalog().table_schema("items").unwrap();
    let groups = session.catalog().table_schema("groups").unwrap();
    let items_scan = || PlanBuilder::scan("items", items.clone());
    let groups_scan = || PlanBuilder::scan("groups", groups.clone());
    let items_passthrough =
        || items.column_names().iter().map(|n| (col(*n), *n)).collect::<Vec<_>>();
    let negated = rng.chance(50);
    let semi_or_anti = if negated { JoinType::Anti } else { JoinType::Semi };
    match rng.below(4) {
        // [NOT] EXISTS (SELECT * FROM items WHERE i_key = g_key AND pred).
        0 => {
            let pred = random_predicate(rng, &items);
            let subquery = items_scan()
                .filter(
                    col("i_key")
                        .eq(Expr::OuterRef { name: "g_key".into(), dtype: DataType::Int64 })
                        .and(pred.clone()),
                )
                .build()
                .unwrap();
            let plan = groups_scan()
                .filter(Expr::Exists { plan: Box::new(subquery), negated })
                .build()
                .unwrap();
            let twin = items_scan()
                .filter(pred)
                .join(groups_scan(), vec![("i_key", "g_key")], semi_or_anti)
                .build()
                .unwrap();
            (plan, twin)
        }
        // i_key [NOT] IN (SELECT g_key FROM groups WHERE g_key <= k).
        1 => {
            let bound = rng.below(12) as i64;
            let subquery = groups_scan()
                .filter(col("g_key").lt_eq(lit(bound)))
                .project(vec![(col("g_key"), "g_key")])
                .build()
                .unwrap();
            let plan = items_scan()
                .filter(Expr::InSubquery {
                    expr: Box::new(col("i_key")),
                    plan: Box::new(subquery),
                    negated,
                })
                .build()
                .unwrap();
            let twin = groups_scan()
                .filter(col("g_key").lt_eq(lit(bound)))
                .project(vec![(col("g_key"), "g_key")])
                .join(items_scan(), vec![("g_key", "i_key")], semi_or_anti)
                .build()
                .unwrap();
            (plan, twin)
        }
        // Uncorrelated scalar: i_price > (SELECT avg(i_price) WHERE pred)
        // — must become a constant-key join.
        2 => {
            let pred = random_predicate(rng, &items);
            let subquery = items_scan()
                .filter(pred.clone())
                .aggregate(vec![], vec![avg(col("i_price"), "threshold")])
                .build()
                .unwrap();
            let plan = items_scan()
                .filter(col("i_price").gt(Expr::ScalarSubquery(Box::new(subquery))))
                .build()
                .unwrap();
            let mut probe_exprs = items_passthrough();
            probe_exprs.push((lit(1i64), "jk_p"));
            let twin = items_scan()
                .filter(pred)
                .aggregate(vec![], vec![avg(col("i_price"), "threshold")])
                .project(vec![(col("threshold"), "threshold"), (lit(1i64), "jk_b")])
                .join(items_scan().project(probe_exprs), vec![("jk_b", "jk_p")], JoinType::Inner)
                .filter(col("i_price").gt(col("threshold")))
                .project(items_passthrough())
                .build()
                .unwrap();
            (plan, twin)
        }
        // Correlated scalar aggregate: i_price > (SELECT avg(i_price) FROM
        // items i2 WHERE i2.i_key = i_key) — must become group-by + join.
        _ => {
            let subquery = items_scan()
                .filter(
                    col("i_key")
                        .eq(Expr::OuterRef { name: "i_key".into(), dtype: DataType::Int64 }),
                )
                .aggregate(vec![], vec![avg(col("i_price"), "threshold")])
                .build()
                .unwrap();
            let plan = items_scan()
                .filter(col("i_price").gt(Expr::ScalarSubquery(Box::new(subquery))))
                .build()
                .unwrap();
            let twin = items_scan()
                .aggregate(vec![(col("i_key"), "t_key")], vec![avg(col("i_price"), "threshold")])
                .join(items_scan(), vec![("t_key", "i_key")], JoinType::Inner)
                .filter(col("i_price").gt(col("threshold")))
                .project(items_passthrough())
                .build()
                .unwrap();
            (plan, twin)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Each decorrelation rule (EXISTS/IN → semi, NOT → anti, scalar →
    /// constant-key or group-by join) preserves the plan schema and agrees
    /// with an independently hand-decorrelated twin on randomized data —
    /// through the standalone rule, the full optimizer pipeline, and the
    /// mandatory lowering the naive distributed path applies.
    #[test]
    fn decorrelation_rules_preserve_schema_and_match_hand_decorrelated_twins(
        seed in any::<i64>()
    ) {
        let mut rng = Rng(seed as u64);
        let session = QuokkaSession::new(EngineConfig::quokka(2));
        random_catalog(&mut rng, &session);
        let (plan, twin) = random_subquery_case(&mut rng, &session);
        let schema = plan.schema().unwrap();
        let expected = session.run_reference(&twin).unwrap();

        let optimizer = Optimizer::with_catalog(session.catalog());
        let lowered = optimizer.apply_rule("decorrelate_subqueries", &plan).unwrap();
        prop_assert!(
            !quokka::plan::optimizer::contains_subqueries(&lowered),
            "decorrelation left a subquery behind:\n{}",
            lowered.display_indent()
        );
        prop_assert_eq!(lowered.schema().unwrap(), schema.clone(), "rule changed the schema");
        let lowered_result = session.run_reference(&lowered).unwrap();
        prop_assert!(
            plans_agree(&plan, &expected, &lowered_result),
            "decorrelated plan diverged from the hand-built twin\nsubquery plan:\n{}\n\
             lowered:\n{}\ntwin:\n{}",
            plan.display_indent(),
            lowered.display_indent(),
            twin.display_indent()
        );

        let optimized = optimizer.optimize(&plan).unwrap();
        prop_assert_eq!(optimized.schema().unwrap(), schema, "pipeline changed the schema");
        let optimized_result = session.run_reference(&optimized).unwrap();
        prop_assert!(
            plans_agree(&plan, &expected, &optimized_result),
            "optimized subquery plan diverged from the hand-built twin\n{}",
            optimized.display_indent()
        );
    }

    /// Every individual rule, and the full pipeline, preserves the output
    /// schema and the reference-executor result on randomized plans.
    #[test]
    fn every_rule_preserves_schema_and_results(seed in any::<i64>()) {
        let mut rng = Rng(seed as u64);
        let session = QuokkaSession::new(EngineConfig::quokka(2));
        random_catalog(&mut rng, &session);
        let plan = random_plan(&mut rng, &session);
        let schema = plan.schema().unwrap();
        let baseline = session.run_reference(&plan).unwrap();

        let optimizer = Optimizer::with_catalog(session.catalog());
        for rule in RULE_NAMES {
            let rewritten = optimizer
                .apply_rule(rule, &plan)
                .unwrap_or_else(|e| panic!("rule {rule} failed: {e}\n{}", plan.display_indent()));
            prop_assert_eq!(
                rewritten.schema().unwrap(),
                schema.clone(),
                "rule {} changed the schema of\n{}",
                rule,
                plan.display_indent()
            );
            let result = session.run_reference(&rewritten).unwrap();
            prop_assert!(
                plans_agree(&plan, &baseline, &result),
                "rule {} changed the result of\n{}\ninto\n{}",
                rule,
                plan.display_indent(),
                rewritten.display_indent()
            );
        }

        let optimized = optimizer.optimize(&plan).unwrap();
        prop_assert_eq!(optimized.schema().unwrap(), schema);
        let result = session.run_reference(&optimized).unwrap();
        prop_assert!(
            plans_agree(&plan, &baseline, &result),
            "full pipeline changed the result of\n{}\ninto\n{}",
            plan.display_indent(),
            optimized.display_indent()
        );
    }

    /// Randomized plans also agree between the naive distributed run and the
    /// optimized distributed run (smaller case count: each case spins up a
    /// simulated cluster).
    #[test]
    fn distributed_runs_agree_on_random_plans(seed in any::<i64>()) {
        // Subsample: each case spins up a simulated cluster twice.
        if seed % 4 == 0 {
            let mut rng = Rng(seed as u64);
            let session = QuokkaSession::new(EngineConfig::quokka(2));
            random_catalog(&mut rng, &session);
            let plan = random_plan(&mut rng, &session);
            let naive = session
                .run_with(&plan, &EngineConfig::quokka(2).with_optimize(false))
                .unwrap();
            let optimized = session
                .run_with(&plan, &EngineConfig::quokka(2).with_optimize(true))
                .unwrap();
            prop_assert!(
                plans_agree(&plan, &naive.batch, &optimized.batch),
                "distributed naive and optimized disagree on\n{}",
                plan.display_indent()
            );
        }
    }
}
