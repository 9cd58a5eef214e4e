//! Transport data-plane harness: in-process inbox calls vs real TCP.
//!
//! Two measurements per transport backend:
//!
//! 1. **Raw shuffle throughput** — push a stream of Int64 slices from one
//!    worker to another through a [`DataPlane`] (cost model disabled) and
//!    time until the destination inbox holds every slice. Each slice is
//!    encoded once, as the engine's producers do. For `tcp` this covers the
//!    whole pipeline the engine uses: the per-peer send thread with its
//!    bounded queue, frame reassembly and decoding, and inbox delivery over
//!    a real loopback socket.
//! 2. **End-to-end query wall clock** — TPC-H Q3 and Q9 on the distributed
//!    runtime under each transport, with results cross-checked against each
//!    other and the reference executor.
//!
//! Results go to `BENCH_transport.json`. The run **fails** (non-zero exit)
//! if a slice is lost or reordered in the microbenchmark, or if the two
//! transports ever disagree on a query result — TCP is only a valid
//! backend if it is indistinguishable from the in-process one.
//!
//! Run with: `cargo run --release -p quokka-bench --bin transport`
//!
//! Environment knobs: `QUOKKA_SF` (default 0.01), `QUOKKA_WORKERS` (default
//! 4), `QUOKKA_BENCH_SLICES` (default 256), `QUOKKA_BENCH_ROWS` (rows per
//! slice, default 8192), `QUOKKA_COST_SCALE` (default 0.02, queries only),
//! `QUOKKA_BENCH_OUT` (default `BENCH_transport.json`).

use quokka::batch::{Batch, Column, DataType, Schema, Slice};
use quokka::common::{ChannelAddr, MetricsRegistry, TransportConfig};
use quokka::net::DataPlane;
use quokka::storage::CostModel;
use quokka::{results_match, CostModelConfig, EngineConfig, QuokkaSession};
use quokka_bench::env_or;
use std::sync::Arc;
use std::time::{Duration, Instant};

struct MicroResult {
    transport: &'static str,
    slices: usize,
    rows_per_slice: usize,
    seconds: f64,
    bytes: u64,
}

impl MicroResult {
    fn rows_per_sec(&self) -> f64 {
        (self.slices * self.rows_per_slice) as f64 / self.seconds
    }
    fn bytes_per_sec(&self) -> f64 {
        self.bytes as f64 / self.seconds
    }
}

struct QueryResult {
    query: usize,
    transport: &'static str,
    seconds: f64,
    shuffle_bytes: u64,
    /// Logical (decoded) bytes behind `shuffle_bytes` — the same shuffles
    /// priced in plain columns. The gap is the wire encodings' saving.
    shuffle_raw_bytes: u64,
    backup_bytes: u64,
    backup_raw_bytes: u64,
}

fn slice(seq: usize, rows: usize) -> Batch {
    let tag = seq as i64;
    Batch::try_new(
        Schema::from_pairs(&[("x", DataType::Int64)]),
        vec![Column::Int64((0..rows as i64).map(|i| i ^ tag).collect())],
    )
    .expect("build bench slice")
}

/// Push `slices` cross-worker slices through a fresh data plane on the
/// given transport and time until they are all sitting in the destination
/// inbox. Panics if anything is lost — throughput of a lossy transport is
/// not a number worth reporting.
fn run_micro(
    config: &TransportConfig,
    label: &'static str,
    slices: usize,
    rows: usize,
) -> MicroResult {
    let metrics = Arc::new(MetricsRegistry::new());
    let plane = DataPlane::with_config(
        2,
        CostModel::new(CostModelConfig::zero()),
        Arc::clone(&metrics),
        config,
    )
    .expect("build data plane");
    let producer = ChannelAddr::new(0, 0);
    let consumer = ChannelAddr::new(1, 0);

    let mut bytes = 0u64;
    let start = Instant::now();
    for seq in 0..slices {
        let batch = slice(seq, rows);
        bytes += batch.byte_size() as u64;
        plane
            .push(0, 1, consumer, producer.task(seq as u32), &Slice::new(vec![batch]))
            .expect("push bench slice");
    }
    // TCP delivery is asynchronous (send thread + reassembly); wait for the
    // last frame to land before stopping the clock.
    let inbox = plane.server(1).expect("destination server");
    let deadline = Instant::now() + Duration::from_secs(60);
    while inbox.available_from(consumer, producer, 0).len() < slices {
        assert!(Instant::now() < deadline, "{label}: slices never all arrived");
        std::thread::yield_now();
    }
    let seconds = start.elapsed().as_secs_f64();

    // Integrity gate: every slice arrived exactly once, contents intact.
    for seq in 0..slices {
        let got = inbox
            .peek(consumer, producer.task(seq as u32))
            .unwrap_or_else(|| panic!("{label}: slice {seq} missing from inbox"));
        let want = slice(seq, rows);
        assert!(
            got.len() == 1 && results_match(&want, &got[0]),
            "{label}: slice {seq} corrupted in flight"
        );
    }

    MicroResult { transport: label, slices, rows_per_slice: rows, seconds, bytes }
}

fn main() {
    let scale_factor = env_or("QUOKKA_SF", 0.01);
    let cost_scale = env_or("QUOKKA_COST_SCALE", 0.02);
    let workers = env_or("QUOKKA_WORKERS", 4usize) as u32;
    let slices = env_or("QUOKKA_BENCH_SLICES", 256usize).max(1);
    let rows = env_or("QUOKKA_BENCH_ROWS", 8192usize).max(1);
    let out_path = env_or("QUOKKA_BENCH_OUT", "BENCH_transport.json".to_string());

    let backends: [(&'static str, TransportConfig); 2] =
        [("inproc", TransportConfig::inproc()), ("tcp", TransportConfig::tcp())];

    let mut micro = Vec::new();
    for (label, config) in &backends {
        let m = run_micro(config, label, slices, rows);
        eprintln!(
            "[micro] {label:<6} {slices} x {rows} rows in {:.3}s  ({:.2} Mrows/s, {:.1} MB/s)",
            m.seconds,
            m.rows_per_sec() / 1e6,
            m.bytes_per_sec() / 1e6,
        );
        micro.push(m);
    }

    eprintln!("[transport] generating TPC-H data at SF {scale_factor} ...");
    let session = QuokkaSession::tpch(scale_factor, workers).expect("generate TPC-H data");
    let mut queries = Vec::new();
    for q in [3usize, 9] {
        let plan = quokka::tpch::query(q).expect("TPC-H plan");
        let expected = session.run_reference(&plan).expect("reference run");
        for (label, transport) in &backends {
            let config = EngineConfig::quokka(workers)
                .with_cost(CostModelConfig::scaled(cost_scale))
                .with_transport(*transport);
            let start = Instant::now();
            let outcome = session.run_with(&plan, &config).expect("distributed run");
            let seconds = start.elapsed().as_secs_f64();
            assert!(
                results_match(&expected, &outcome.batch),
                "Q{q} under {label} diverged from the reference executor"
            );
            eprintln!(
                "[query] Q{q} {label:<6} {seconds:.3}s  shuffle {} B (raw {} B)",
                outcome.metrics.shuffle_bytes, outcome.metrics.shuffle_raw_bytes
            );
            queries.push(QueryResult {
                query: q,
                transport: label,
                seconds,
                shuffle_bytes: outcome.metrics.shuffle_bytes,
                shuffle_raw_bytes: outcome.metrics.shuffle_raw_bytes,
                backup_bytes: outcome.metrics.backup_bytes,
                backup_raw_bytes: outcome.metrics.backup_raw_bytes,
            });
        }
    }

    // Hand-rolled JSON (no serde in this environment).
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"scale_factor\": {scale_factor},\n"));
    json.push_str(&format!("  \"workers\": {workers},\n"));
    json.push_str("  \"micro\": [\n");
    for (i, m) in micro.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"transport\": \"{}\", \"slices\": {}, \"rows_per_slice\": {}, \
             \"seconds\": {:.6}, \"rows_per_sec\": {:.1}, \"bytes_per_sec\": {:.1}}}{}\n",
            m.transport,
            m.slices,
            m.rows_per_slice,
            m.seconds,
            m.rows_per_sec(),
            m.bytes_per_sec(),
            if i + 1 < micro.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"queries\": [\n");
    for (i, q) in queries.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"query\": {}, \"transport\": \"{}\", \"seconds\": {:.6}, \
             \"shuffle_bytes\": {}, \"shuffle_raw_bytes\": {}, \
             \"backup_bytes\": {}, \"backup_raw_bytes\": {}}}{}\n",
            q.query,
            q.transport,
            q.seconds,
            q.shuffle_bytes,
            q.shuffle_raw_bytes,
            q.backup_bytes,
            q.backup_raw_bytes,
            if i + 1 < queries.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write benchmark results");
    eprintln!("wrote {out_path}");
}
