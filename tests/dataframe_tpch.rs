//! Batch-level parity between the DataFrame-built TPC-H queries and their
//! SQL twins, on both the reference executor and the distributed runtime.
//!
//! Three frontends lower to the engine's `LogicalPlan` — hand-built
//! `PlanBuilder` trees, SQL text, and the lazy DataFrame API. The SQL twins
//! are already parity-tested against the hand-built plans
//! (`tests/sql_frontend.rs`), so DataFrame == SQL here closes the triangle:
//! any frontend disagreeing with any other fails a test.

use quokka::dataframe::tpch::{query as df_query, DATAFRAME_QUERIES};
use quokka::tpch::queries::sql::sql_text;
use quokka::{results_match, ChaosPlan, EngineConfig, QuokkaSession};

/// Reference-executor parity runs on a larger data set (both sides are
/// deterministic); the distributed runs use the same scale the other
/// integration suites use, inside the float tolerance `results_match` allows
/// for differing summation orders.
fn session() -> QuokkaSession {
    QuokkaSession::tpch(0.005, 3).unwrap()
}

fn distributed_session() -> QuokkaSession {
    QuokkaSession::tpch(0.002, 3).unwrap()
}

#[test]
fn dataframe_queries_are_a_subset_of_the_sql_surface() {
    // SQL now covers the full benchmark (22/22); every DataFrame query has
    // a SQL twin to compare against, and the DataFrame surface includes
    // the semi/anti-join shapes (Q4, Q16, Q18, Q22) on top of the original
    // nine subquery-free queries.
    for q in DATAFRAME_QUERIES {
        assert!(
            quokka::tpch::queries::sql::SQL_QUERIES.contains(&q),
            "Q{q} has no SQL twin to compare against"
        );
    }
    assert_eq!(quokka::tpch::queries::sql::SQL_QUERIES.len(), 22);
    for q in [4, 16, 18, 22] {
        assert!(DATAFRAME_QUERIES.contains(&q), "decorrelated Q{q} missing a DataFrame twin");
    }
    assert!(DATAFRAME_QUERIES.len() >= 12);
}

#[test]
fn dataframe_matches_sql_on_the_reference_executor() {
    let session = session();
    for q in DATAFRAME_QUERIES {
        let frame = df_query(&session, q).unwrap();
        let sql = session.sql(sql_text(q).unwrap()).unwrap();
        assert_eq!(
            frame.schema().column_names(),
            sql.plan().schema().unwrap().column_names(),
            "Q{q}: output columns diverge between DataFrame and SQL"
        );
        let df_result = frame
            .collect_reference()
            .unwrap_or_else(|e| panic!("Q{q} (DataFrame) failed on the reference executor: {e}"));
        let sql_result = sql.collect_reference().unwrap();
        assert!(
            results_match(&df_result, &sql_result),
            "Q{q}: DataFrame result ({} rows) != SQL result ({} rows)\nDataFrame plan:\n{}",
            df_result.num_rows(),
            sql_result.num_rows(),
            frame.plan().display_indent(),
        );
    }
}

#[test]
fn dataframe_matches_sql_on_the_distributed_runtime() {
    let session = distributed_session();
    for q in DATAFRAME_QUERIES {
        let frame = df_query(&session, q).unwrap();
        let distributed = frame
            .collect()
            .unwrap_or_else(|e| panic!("Q{q} (DataFrame) failed on the cluster: {e}"));
        let sql_result = session.sql(sql_text(q).unwrap()).unwrap().collect_reference().unwrap();
        assert!(
            results_match(&distributed.batch, &sql_result),
            "Q{q}: distributed DataFrame result diverged from the SQL oracle"
        );
        assert!(distributed.metrics.tasks_executed > 0);
        assert_eq!(
            distributed.metrics.output_rows,
            distributed.batch.num_rows() as u64,
            "Q{q}: metrics must count exactly the delivered rows"
        );
    }
}

/// The optimizer must not change DataFrame results either (frames flow
/// through the same rewrite pipeline as SQL).
#[test]
fn dataframe_results_survive_the_optimizer() {
    let session = distributed_session();
    let naive = EngineConfig::quokka(3).with_optimize(false);
    for q in [3, 9, 12] {
        let frame = df_query(&session, q).unwrap();
        let optimized = frame.collect().unwrap();
        let unoptimized = frame.collect_with(&naive).unwrap();
        assert!(
            results_match(&optimized.batch, &unoptimized.batch),
            "Q{q}: optimized and naive DataFrame runs disagree"
        );
    }
}

/// DataFrame queries recover from injected worker failures like any other
/// frontend (they share the whole execution stack).
#[test]
fn dataframe_queries_recover_from_worker_failure() {
    let session = distributed_session();
    let faulty = EngineConfig::quokka(3).with_chaos(ChaosPlan::kill_at_progress(1, 0.5));
    for q in [3, 12] {
        let frame = df_query(&session, q).unwrap();
        let expected = frame.collect_reference().unwrap();
        let outcome = frame.collect_with(&faulty).unwrap();
        assert!(
            results_match(&outcome.batch, &expected),
            "Q{q}: result after fault recovery diverged"
        );
        assert_eq!(outcome.metrics.failures, 1);
    }
}
