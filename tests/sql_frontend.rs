//! End-to-end tests for the SQL frontend through the session facade:
//! SQL text → parse → bind → logical plan → distributed execution on the
//! simulated cluster, verified against the reference executor and against
//! the hand-built TPC-H plans.

use quokka::{results_match, QuokkaSession, SqlError};

/// A small TPC-H session; each test generates its own (SF 0.002 is cheap).
fn tpch_session() -> QuokkaSession {
    QuokkaSession::tpch(0.002, 3).unwrap()
}

#[test]
fn sql_tpch_queries_run_distributed_and_match_hand_built_plans() {
    let session = tpch_session();
    // Aggregation, multi-join, and the new decorrelated shapes: EXISTS →
    // semi (Q4), LEFT JOIN + NOT LIKE (Q13), correlated scalar (Q17), and
    // the derived-table self-join pipeline (Q21). The full 22-query parity
    // sweep runs on the reference executor in quokka-tpch's unit tests and
    // in `all_22_sql_queries_parse_bind_optimize_and_match_reference`.
    for q in [1, 6, 3, 4, 13, 17, 21] {
        let sql = quokka::tpch::queries::sql::sql_text(q).unwrap();
        let handle = session.sql(sql).unwrap();
        let outcome = handle.collect().unwrap_or_else(|e| panic!("Q{q} failed: {e}"));
        let hand = session.run_reference(&quokka::tpch::query(q).unwrap()).unwrap();
        assert!(
            results_match(&outcome.batch, &hand),
            "Q{q}: distributed SQL result diverges from the hand-built plan"
        );
        assert!(outcome.metrics.tasks_executed > 0);
    }
}

/// The CI gate for the 22/22 SQL surface: every TPC-H query parses, binds,
/// optimizes (decorrelation included — no subquery node survives), and
/// matches its hand-built `PlanBuilder` twin on the reference executor,
/// both before and after optimization.
#[test]
fn all_22_sql_queries_parse_bind_optimize_and_match_reference() {
    let session = tpch_session();
    assert_eq!(quokka::tpch::queries::sql::SQL_QUERIES.len(), 22);
    for q in quokka::tpch::queries::sql::SQL_QUERIES {
        let sql = quokka::tpch::queries::sql::sql_text(q).unwrap();
        let handle = session.sql(sql).unwrap_or_else(|e| panic!("Q{q} failed to plan: {e}"));
        let optimized = session
            .optimize(handle.plan())
            .unwrap_or_else(|e| panic!("Q{q} failed to optimize: {e}"));
        assert!(
            !quokka::plan::optimizer::contains_subqueries(&optimized),
            "Q{q}: a subquery expression survived optimization"
        );
        let hand = session.run_reference(&quokka::tpch::query(q).unwrap()).unwrap();
        let bound = handle
            .collect_reference()
            .unwrap_or_else(|e| panic!("Q{q} failed on the reference executor: {e}"));
        assert!(results_match(&bound, &hand), "Q{q}: bound SQL plan diverges from the hand plan");
        let optimized_result = session.run_reference(&optimized).unwrap();
        assert!(
            results_match(&optimized_result, &hand),
            "Q{q}: optimized SQL plan diverges from the hand plan"
        );
    }
}

/// The newly decorrelated queries also recover from injected worker
/// failures (the satellite fault-injection requirement: Q4, Q21, Q22).
#[test]
fn decorrelated_sql_queries_survive_fault_injection() {
    use quokka::{ChaosPlan, EngineConfig};

    let session = tpch_session();
    for q in [4usize, 21, 22] {
        let handle = session.sql(quokka::tpch::queries::sql::sql_text(q).unwrap()).unwrap();
        let expected = handle.collect_reference().unwrap();
        let config = EngineConfig::quokka(3).with_chaos(ChaosPlan::kill_at_progress(1, 0.5));
        let outcome = handle
            .collect_with(&config)
            .unwrap_or_else(|e| panic!("Q{q} failed under fault injection: {e}"));
        assert!(
            results_match(&outcome.batch, &expected),
            "Q{q}: result diverged after worker failure"
        );
        assert_eq!(outcome.metrics.failures, 1, "Q{q}: the failure must have been injected");
    }
}

/// LEFT JOIN preserves left rows with type-default fill, and an ON
/// predicate on the joined table filters before the join (spec Q13 shape).
#[test]
fn left_join_runs_distributed_with_on_filters() {
    let session = tpch_session();
    let handle = session
        .sql(
            "SELECT c_custkey, sum(CASE WHEN o_orderkey > 0 THEN 1 ELSE 0 END) AS n \
             FROM customer LEFT JOIN orders \
               ON c_custkey = o_custkey AND o_comment NOT LIKE '%special%requests%' \
             GROUP BY c_custkey ORDER BY n DESC, c_custkey LIMIT 5",
        )
        .unwrap();
    let reference = handle.collect_reference().unwrap();
    let distributed = handle.collect().unwrap();
    assert!(results_match(&reference, &distributed.batch));
    assert_eq!(reference.num_rows(), 5);
}

#[test]
fn query_handle_exposes_plan_and_reference_execution() {
    let session = tpch_session();
    let handle = session
        .sql(
            "SELECT l_shipmode, count(*) AS n FROM lineitem \
             GROUP BY l_shipmode ORDER BY l_shipmode",
        )
        .unwrap();
    assert!(handle.explain().contains("Aggregate"));
    assert_eq!(handle.plan().schema().unwrap().column_names(), vec!["l_shipmode", "n"]);
    let reference = handle.collect_reference().unwrap();
    let distributed = handle.collect().unwrap();
    assert!(results_match(&reference, &distributed.batch));
    assert!(reference.num_rows() > 0);
}

#[test]
fn malformed_sql_returns_positioned_errors_not_panics() {
    let session = tpch_session();
    // (sql, expected substring) — parse and bind failures, all positioned.
    for (sql, needle) in [
        ("SELEC l_orderkey FROM lineitem", "expected SELECT"),
        ("SELECT l_orderkey FROM", "expected a table name"),
        ("SELECT l_orderkey FROM lineitem WHERE", "expected an expression"),
        ("SELECT l_orderkey FROM lineitems", "did you mean 'lineitem'"),
        ("SELECT l_orderkeyy FROM lineitem", "did you mean 'l_orderkey'"),
        ("SELECT l_orderkey FROM lineitem WHERE l_shipdate > 'nope'", "not a valid date"),
        ("SELECT sum(l_comment) AS s FROM lineitem", "numeric"),
        ("SELECT l_orderkey FROM lineitem ORDER BY missing_col", "not in the output"),
        ("SELECT * FROM lineitem RIGHT JOIN orders ON a = b", "RIGHT and FULL"),
        ("SELECT (SELECT max(o_totalprice) FROM orders) AS m FROM orders", "WHERE and HAVING"),
        (
            "SELECT o_orderkey FROM orders GROUP BY (SELECT max(o_orderkey) FROM orders)",
            "WHERE and HAVING",
        ),
        (
            "SELECT o_orderkey FROM orders WHERE o_totalprice > (SELECT o_totalprice FROM orders)",
            "must compute an aggregate",
        ),
        ("SELECT o_orderkey FROM orders WHERE EXISTS (l_quantity > 5)", "EXISTS requires"),
        ("SELECT o_orderkey FROM (SELECT o_orderkey FROM orders)", "requires an alias"),
    ] {
        let err = session.sql(sql).expect_err(sql);
        let message = err.to_string();
        assert!(message.contains(needle), "{sql}: {message}");
        assert!(message.contains("line "), "{sql}: no position in: {message}");
    }
}

#[test]
fn sql_error_type_carries_structured_position() {
    let session = tpch_session();
    let err = quokka::sql::plan_query("SELECT nope FROM lineitem", session.catalog())
        .expect_err("should not bind");
    assert_eq!(err.kind, quokka::sql::SqlErrorKind::Bind);
    assert_eq!((err.pos.line, err.pos.column), (1, 8));
    let _: SqlError = err; // the structured type is part of the facade API
}

#[test]
fn select_distinct_deduplicates_on_the_cluster() {
    let session = tpch_session();
    let handle =
        session.sql("SELECT DISTINCT l_shipmode FROM lineitem ORDER BY l_shipmode").unwrap();
    let distributed = handle.collect().unwrap();
    let reference = handle.collect_reference().unwrap();
    assert!(results_match(&distributed.batch, &reference));
    // TPC-H has exactly 7 ship modes; DISTINCT must collapse to them.
    assert_eq!(reference.num_rows(), 7);
}

#[test]
fn comma_from_lists_match_their_join_twins() {
    let session = tpch_session();
    let comma = session
        .sql(
            "SELECT n_name, count(*) AS suppliers FROM nation, supplier \
             WHERE n_nationkey = s_nationkey GROUP BY n_name ORDER BY n_name",
        )
        .unwrap();
    let joined = session
        .sql(
            "SELECT n_name, count(*) AS suppliers FROM nation \
             JOIN supplier ON n_nationkey = s_nationkey GROUP BY n_name ORDER BY n_name",
        )
        .unwrap();
    let comma_result = comma.collect().unwrap();
    let join_result = joined.collect().unwrap();
    assert!(results_match(&comma_result.batch, &join_result.batch));
    assert!(comma_result.batch.num_rows() > 0);
    // The optimizer's filter-to-join rule must also make the comma form run
    // as cheaply: with optimization disabled the cross join shuffles the
    // cartesian product through a single channel.
    let naive = comma.collect_with(&quokka::EngineConfig::quokka(3).with_optimize(false)).unwrap();
    assert!(results_match(&naive.batch, &comma_result.batch));
}

#[test]
fn explain_prints_plans_instead_of_executing() {
    let session = tpch_session();
    // Session-level explain: before and after optimization.
    let text = session
        .explain(
            "SELECT l_orderkey, o_orderdate FROM orders \
             JOIN lineitem ON o_orderkey = l_orderkey WHERE l_quantity > 30",
        )
        .unwrap();
    assert!(text.contains("== Logical plan =="), "{text}");
    assert!(text.contains("== Optimized plan =="), "{text}");
    // The optimized rendering must show the narrowed lineitem scan.
    let optimized_section = text.split("== Optimized plan ==").nth(1).unwrap();
    assert!(
        !optimized_section.contains("l_comment"),
        "projection pruning should drop l_comment from the scan:\n{text}"
    );

    // An EXPLAIN-prefixed statement collects as a plan-text batch.
    let handle = session.sql("EXPLAIN SELECT count(*) AS n FROM orders").unwrap();
    assert!(handle.is_explain());
    let outcome = handle.collect().unwrap();
    assert_eq!(outcome.batch.schema().column_names(), vec!["plan"]);
    assert!(outcome.batch.num_rows() > 2);
    assert_eq!(outcome.metrics.tasks_executed, 0, "EXPLAIN must not execute");
}

#[test]
fn sql_runs_under_fault_injection() {
    use quokka::{ChaosPlan, EngineConfig};

    let session = tpch_session();
    let handle = session.sql(quokka::tpch::queries::sql::sql_text(6).unwrap()).unwrap();
    let expected = handle.collect_reference().unwrap();
    // Kill a worker mid-query; recovery must still produce the right rows.
    let config = EngineConfig::quokka(3).with_chaos(ChaosPlan::kill_at_progress(1, 0.5));
    let outcome = handle.collect_with(&config).unwrap();
    assert!(results_match(&outcome.batch, &expected));
}
