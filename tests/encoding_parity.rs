//! Integration tests: compressed column encodings must be invisible to
//! query results.
//!
//! The TPC-H generator emits dictionary/bit-packed/XOR-encoded tables by
//! default; `with_encoding(false)` produces the same data in plain columns.
//! Every query must return batch-identical results either way — on the
//! reference executor, on the distributed engine (both transports), and
//! under fault injection, where recovery replays encoded backups.

use quokka::{
    results_match, ChaosPlan, EngineConfig, QuokkaSession, TpchGenerator, TransportConfig,
};

const SF: f64 = 0.002;
const SEED: u64 = 0xC0FFEE;

/// The default session: generator encodes every table column it can.
fn encoded_session(workers: u32) -> QuokkaSession {
    QuokkaSession::tpch(SF, workers).expect("generate encoded TPC-H data")
}

/// Same data, same seed, plain columns only.
fn plain_session(workers: u32) -> QuokkaSession {
    let session = QuokkaSession::new(EngineConfig::quokka(workers));
    TpchGenerator::new(SF, SEED)
        .with_encoding(false)
        .register_all(session.catalog())
        .expect("generate plain TPC-H data");
    session
}

/// All 22 queries agree between an encoded and a plain catalog on the
/// reference executor — the encodings change representation, never content.
#[test]
fn all_queries_match_reference_with_and_without_encoding() {
    let encoded = encoded_session(3);
    let plain = plain_session(3);
    for q in 1..=22usize {
        let query = quokka::tpch::query(q).unwrap();
        let with_encoding = encoded.run_reference(&query).unwrap();
        let without = plain.run_reference(&query).unwrap();
        assert!(
            results_match(&with_encoding, &without),
            "Q{q} diverged between encoded and plain catalogs: {} vs {} rows",
            with_encoding.num_rows(),
            without.num_rows()
        );
    }
}

/// The distributed engine produces the same batches from encoded tables as
/// from plain ones (encoded columns flow through scans, shuffles,
/// aggregations and joins end to end).
#[test]
fn distributed_results_are_independent_of_encoding() {
    let encoded = encoded_session(3);
    let plain = plain_session(3);
    let config = EngineConfig::quokka(3);
    for &q in &quokka::tpch::REPRESENTATIVE {
        let query = quokka::tpch::query(q).unwrap();
        let with_encoding = encoded.run_with(&query, &config).unwrap();
        let without = plain.run_with(&query, &config).unwrap();
        assert!(
            results_match(&with_encoding.batch, &without.batch),
            "Q{q} diverged between encoded and plain catalogs on the cluster"
        );
    }
}

/// The TCP transport ships encoded frames natively; results must still be
/// identical to the plain catalog over the in-process transport.
#[test]
fn tcp_transport_is_encoding_agnostic() {
    let encoded = encoded_session(3);
    let plain = plain_session(3);
    let tcp = EngineConfig::quokka(3).with_transport(TransportConfig::tcp());
    for q in [1usize, 3, 9] {
        let query = quokka::tpch::query(q).unwrap();
        let over_tcp = encoded.run_with(&query, &tcp).unwrap();
        let inproc = plain.run_with(&query, &EngineConfig::quokka(3)).unwrap();
        assert!(
            results_match(&over_tcp.batch, &inproc.batch),
            "Q{q} over tcp with encoded tables diverged from plain inproc"
        );
    }
}

/// Fault recovery replays durable backups of *encoded* partitions; the
/// replayed query must still match the plain-catalog reference.
#[test]
fn fault_recovery_replays_encoded_backups_exactly() {
    let encoded = encoded_session(3);
    let plain = plain_session(3);
    for q in [3usize, 12] {
        let query = quokka::tpch::query(q).unwrap();
        let expected = plain.run_reference(&query).unwrap();
        let config = EngineConfig::quokka(3).with_chaos(ChaosPlan::kill_at_progress(1, 0.5));
        let outcome = encoded.run_with(&query, &config).unwrap();
        assert_eq!(outcome.metrics.failures, 1, "Q{q}: the injected failure must fire");
        assert!(
            results_match(&expected, &outcome.batch),
            "Q{q} diverged after failure recovery over encoded tables"
        );
    }
}

/// The encodings actually engage: the encoded catalog's lineitem footprint
/// is measurably smaller than the plain one's (this is what admission
/// control and the shuffle savings are built on).
#[test]
fn encoded_catalog_is_smaller_than_plain() {
    use quokka::plan::catalog::Catalog;
    let encoded = encoded_session(2);
    let plain = plain_session(2);
    let small = encoded.catalog().table_bytes("lineitem").unwrap();
    let big = plain.catalog().table_bytes("lineitem").unwrap();
    assert!(small * 3 < big * 2, "expected >=1.5x compression on lineitem: {small} vs {big}");
}
