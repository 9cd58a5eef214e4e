//! Integration tests: the TCP transport backend must be invisible to query
//! semantics. Every TPC-H query answered over real loopback sockets must
//! match both the single-threaded reference executor and the in-process
//! transport, and the fault-tolerance machinery must recover identically
//! when shuffle traffic travels over the wire.

use quokka::{
    results_match, ChaosPlan, EngineConfig, QuokkaSession, TransportConfig, TransportKind,
};

fn session() -> QuokkaSession {
    QuokkaSession::tpch(0.002, 3).expect("generate TPC-H data")
}

fn tcp(workers: u32) -> EngineConfig {
    EngineConfig::quokka(workers).with_transport(TransportConfig::tcp())
}

/// The CI parity gate: all 22 TPC-H queries over the TCP backend agree with
/// the reference executor and with the in-process backend batch-for-batch.
#[test]
fn all_queries_match_reference_and_inproc_over_tcp() {
    let session = session();
    for q in quokka::tpch::ALL_QUERIES {
        let plan = quokka::tpch::query(q).unwrap();
        let expected = session.run_reference(&plan).unwrap();
        let inproc = session.run_with(&plan, &EngineConfig::quokka(3)).unwrap();
        let tcp = session.run_with(&plan, &tcp(3)).unwrap();
        assert!(
            results_match(&expected, &tcp.batch),
            "Q{q} over tcp diverged from the reference executor"
        );
        assert!(
            results_match(&inproc.batch, &tcp.batch),
            "Q{q} over tcp diverged from the inproc transport"
        );
    }
}

/// Cross-worker shuffle really leaves the process: the per-peer wire stats
/// must show frames on the wire for a distributed join, and roughly agree
/// with the shuffle accounting.
#[test]
fn tcp_shuffle_is_visible_in_per_peer_wire_stats() {
    let session = session();
    let plan = quokka::tpch::query(3).unwrap();
    let outcome = session.run_with(&plan, &tcp(3)).unwrap();
    let peers = &outcome.metrics.transport_peers;
    assert!(!peers.is_empty(), "a 3-worker join must ship frames between peers");
    let frames: u64 = peers.iter().map(|p| p.frames_sent).sum();
    let bytes: u64 = peers.iter().map(|p| p.bytes_sent).sum();
    assert!(frames > 0 && bytes > 0);
    // Framing adds headers, so wire bytes exceed the payload accounting;
    // they may also exceed it further through publish retries.
    assert!(
        bytes >= outcome.metrics.shuffle_bytes,
        "wire bytes {bytes} below shuffle accounting {}",
        outcome.metrics.shuffle_bytes
    );
    // The inproc backend reports no wire traffic at all.
    let inproc = session.run_with(&plan, &EngineConfig::quokka(3)).unwrap();
    assert!(inproc.metrics.transport_peers.is_empty());
}

/// Killing a worker mid-query with shuffle on the wire drives the same
/// lineage-replay recovery to the exact answer: in-flight frames towards
/// the dead peer are lost, the reconcile/replay path repairs them.
#[test]
fn worker_failure_recovers_exactly_over_tcp() {
    let session = session();
    let plan = quokka::tpch::query(10).unwrap();
    let expected = session.run_reference(&plan).unwrap();
    for fraction in [0.3, 0.7] {
        let config = tcp(3).with_chaos(ChaosPlan::kill_at_progress(1, fraction));
        let outcome = session.run_with(&plan, &config).unwrap();
        assert!(
            results_match(&expected, &outcome.batch),
            "tcp recovery diverged when failing at {fraction}"
        );
        assert_eq!(outcome.metrics.failures, 1);
    }
}

/// The `QUOKKA_TRANSPORT` env override steers the engine (how CI runs the
/// existing suites under both backends without code changes). Env vars are
/// process-global, so exercise every case in one test.
#[test]
fn transport_env_override_applies_to_runs() {
    let session = session();
    let plan = quokka::tpch::query(6).unwrap();
    let expected = session.run_reference(&plan).unwrap();

    std::env::set_var("QUOKKA_TRANSPORT", "tcp");
    let outcome = session.run_with(&plan, &EngineConfig::quokka(3)).unwrap();
    assert!(results_match(&expected, &outcome.batch));
    assert!(
        !outcome.metrics.transport_peers.is_empty(),
        "QUOKKA_TRANSPORT=tcp must route shuffle over the wire"
    );

    std::env::set_var("QUOKKA_TRANSPORT", "inproc");
    let outcome = session.run_with(&plan, &EngineConfig::quokka(3)).unwrap();
    assert!(results_match(&expected, &outcome.batch));
    assert!(outcome.metrics.transport_peers.is_empty());

    std::env::set_var("QUOKKA_TRANSPORT", "carrier-pigeon");
    let err = session.run_with(&plan, &EngineConfig::quokka(3));
    assert!(err.is_err(), "malformed transport override must be rejected");

    std::env::remove_var("QUOKKA_TRANSPORT");
    let outcome = session.run_with(&plan, &EngineConfig::quokka(3)).unwrap();
    assert_eq!(outcome.metrics.transport_peers.len(), 0, "default stays inproc");

    // The explicit config constructor agrees with the env spelling.
    assert_eq!(TransportConfig::tcp().kind, TransportKind::Tcp);
    assert_eq!(TransportConfig::default().kind, TransportKind::Inproc);
}
