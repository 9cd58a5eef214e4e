//! Streaming smoke bench: time-to-first-batch vs time-to-last-batch.
//!
//! Runs TPC-H Q1 at SF 0.01 through the streaming API and records when the
//! first result batch reaches the client versus when the last one does.
//! Q1's sink is an ORDER BY (a blocking operator), so its first batch
//! necessarily arrives at the end — it is the honest baseline. The same
//! bench also runs Q1's *pre-aggregation scan* (the lineitem filter feeding
//! Q1), whose sink is the pipelined scan stage: there the first batch lands
//! in a small fraction of the total runtime, which is the streaming win
//! this harness quantifies and gates.
//!
//! Results go to `BENCH_streaming.json`. The run **fails** (non-zero exit)
//! if the pipelined query's time-to-first-batch is not well below its
//! time-to-last-batch, or if streamed rows diverge from the reference
//! executor.
//!
//! Run with: `cargo run --release -p quokka-bench --bin streaming`
//!
//! Environment knobs: `QUOKKA_SF` (default 0.01), `QUOKKA_WORKERS` (default
//! 4), `QUOKKA_BENCH_OUT` (default `BENCH_streaming.json`).

use quokka::dataframe::{col, date, NamedExpr};
use quokka::{CostModelConfig, DataFrame, EngineConfig, QuokkaSession};
use quokka_bench::env_or;
use std::time::{Duration, Instant};

struct Entry {
    name: &'static str,
    first_batch: Duration,
    last_batch: Duration,
    batches: u64,
    rows: u64,
    engine_first_batch: Duration,
    runtime: Duration,
}

impl Entry {
    /// Fraction of the total stream duration spent before the first batch.
    fn first_fraction(&self) -> f64 {
        if self.last_batch.is_zero() {
            1.0
        } else {
            self.first_batch.as_secs_f64() / self.last_batch.as_secs_f64()
        }
    }
}

fn measure(name: &'static str, frame: &DataFrame) -> Entry {
    let expected_rows = frame.collect_reference().expect("reference run").num_rows() as u64;
    let start = Instant::now();
    let mut stream = frame.stream().expect("start streaming");
    let mut first_batch = Duration::ZERO;
    let mut last_batch = Duration::ZERO;
    let mut batches = 0u64;
    let mut rows = 0u64;
    while let Some(batch) = stream.next_batch().expect("stream batch") {
        let at = start.elapsed();
        if batches == 0 {
            first_batch = at;
        }
        last_batch = at;
        batches += 1;
        rows += batch.num_rows() as u64;
    }
    assert_eq!(rows, expected_rows, "{name}: streamed rows diverge from the reference");
    let metrics = stream.metrics().expect("finished stream").clone();
    Entry {
        name,
        first_batch,
        last_batch,
        batches,
        rows,
        engine_first_batch: metrics.time_to_first_batch.unwrap_or(metrics.runtime),
        runtime: metrics.runtime,
    }
}

fn main() {
    let scale_factor = env_or("QUOKKA_SF", 0.01);
    let workers = env_or("QUOKKA_WORKERS", 4);
    let out_path = env_or("QUOKKA_BENCH_OUT", "BENCH_streaming.json".to_string());

    eprintln!("[streaming] generating TPC-H data at SF {scale_factor} ...");
    // A scaled cost model charges realistic (shrunk) data-path delays, so
    // the first/last spread reflects actual pipelining rather than noise;
    // smaller input splits give the scan stage enough tasks to stream over.
    let config = EngineConfig::quokka(workers).with_cost(CostModelConfig::scaled(0.5));
    let session = QuokkaSession::new(config);
    quokka::TpchGenerator::new(scale_factor, 0xC0FFEE)
        .with_batch_rows(2048)
        .register_all(session.catalog())
        .expect("generate TPC-H data");

    // Q1 as written: ORDER BY sink, fully blocking.
    let q1 = quokka::dataframe::tpch::query(&session, 1).expect("Q1 frame");
    // Q1's pre-aggregation scan: the same lineitem filter, but the sink is
    // the pipelined scan stage — every committed scan task streams out.
    let q1_scan = session
        .table("lineitem")
        .expect("lineitem")
        .filter(col("l_shipdate").lt_eq(date(1998, 9, 2)))
        .expect("filter")
        .select(
            ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice"]
                .map(|c| NamedExpr::from(col(c))),
        )
        .expect("select");

    let entries =
        [measure("q1_sorted (blocking sink)", &q1), measure("q1_scan (pipelined sink)", &q1_scan)];
    for e in &entries {
        eprintln!(
            "{:<26} first {:>9.3?}  last {:>9.3?}  ({:>5.1}% of stream)  batches {:>4}  rows {:>7}",
            e.name,
            e.first_batch,
            e.last_batch,
            e.first_fraction() * 100.0,
            e.batches,
            e.rows,
        );
    }

    // Hand-rolled JSON (no serde in this environment).
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"scale_factor\": {scale_factor},\n"));
    json.push_str(&format!("  \"workers\": {workers},\n"));
    json.push_str("  \"queries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"time_to_first_batch_ms\": {:.3}, \
             \"time_to_last_batch_ms\": {:.3}, \"first_fraction\": {:.4}, \
             \"batches\": {}, \"rows\": {}, \"engine_first_batch_ms\": {:.3}, \
             \"engine_runtime_ms\": {:.3}}}{}\n",
            e.name,
            e.first_batch.as_secs_f64() * 1e3,
            e.last_batch.as_secs_f64() * 1e3,
            e.first_fraction(),
            e.batches,
            e.rows,
            e.engine_first_batch.as_secs_f64() * 1e3,
            e.runtime.as_secs_f64() * 1e3,
            if i + 1 < entries.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write benchmark results");
    eprintln!("wrote {out_path}");

    // Regression gates.
    let scan = &entries[1];
    assert!(scan.batches >= 4, "pipelined sink must stream multiple batches, got {}", scan.batches);
    assert!(
        scan.first_fraction() < 0.5,
        "streaming win regressed: first batch at {:.1}% of the stream (expected < 50%)",
        scan.first_fraction() * 100.0
    );
    assert!(
        scan.engine_first_batch < scan.runtime,
        "engine-side first emission must precede completion"
    );
    eprintln!(
        "[streaming] gate passed: pipelined first batch at {:.1}% of the stream \
         (blocking baseline: {:.1}%)",
        scan.first_fraction() * 100.0,
        entries[0].first_fraction() * 100.0
    );
}
