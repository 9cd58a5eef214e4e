//! Integration tests: the distributed engine must produce exactly the same
//! results as the single-threaded reference executor on the TPC-H workload,
//! under every execution mode.

use quokka::{results_match, EngineConfig, ExecutionMode, QuokkaSession};

fn session() -> QuokkaSession {
    QuokkaSession::tpch(0.002, 3).expect("generate TPC-H data")
}

fn check(session: &QuokkaSession, query: usize, config: &EngineConfig) {
    let plan = quokka::tpch::query(query).unwrap();
    let expected = session.run_reference(&plan).unwrap();
    let outcome = session.run_with(&plan, config).unwrap();
    assert!(
        results_match(&expected, &outcome.batch),
        "Q{query} diverged under {config:?}: expected {} rows, got {} rows",
        expected.num_rows(),
        outcome.batch.num_rows()
    );
}

#[test]
fn representative_queries_match_reference_pipelined() {
    let session = session();
    for &q in &quokka::tpch::REPRESENTATIVE {
        check(&session, q, &EngineConfig::quokka(3));
    }
}

#[test]
fn representative_queries_match_reference_stagewise() {
    let session = session();
    for &q in &quokka::tpch::REPRESENTATIVE {
        check(&session, q, &EngineConfig::sparklike(3));
    }
}

#[test]
fn join_heavy_queries_match_reference_with_spooling() {
    let session = session();
    for q in [3usize, 5, 10, 12] {
        check(&session, q, &EngineConfig::trinolike(3));
    }
}

#[test]
fn subquery_and_semi_anti_join_queries_match_reference() {
    let session = session();
    for q in [4usize, 11, 13, 14, 16, 22] {
        check(&session, q, &EngineConfig::quokka(3));
    }
}

#[test]
fn remaining_queries_match_reference() {
    let session = session();
    for q in [2usize, 15, 17, 18, 19, 20, 21] {
        check(&session, q, &EngineConfig::quokka(2));
    }
}

#[test]
fn results_are_stable_across_cluster_sizes() {
    let session = session();
    let plan = quokka::tpch::query(3).unwrap();
    let small = session.run_with(&plan, &EngineConfig::quokka(2)).unwrap();
    let large = session.run_with(&plan, &EngineConfig::quokka(5)).unwrap();
    assert!(results_match(&small.batch, &large.batch));
    assert_eq!(small.metrics.failures, 0);
}

#[test]
fn pipelined_and_stagewise_agree_on_every_mode_pair() {
    let session = session();
    let plan = quokka::tpch::query(10).unwrap();
    let pipelined = session
        .run_with(&plan, &EngineConfig::quokka(3).with_mode(ExecutionMode::Pipelined))
        .unwrap();
    let stagewise = session
        .run_with(&plan, &EngineConfig::quokka(3).with_mode(ExecutionMode::Stagewise))
        .unwrap();
    assert!(results_match(&pipelined.batch, &stagewise.batch));
}
