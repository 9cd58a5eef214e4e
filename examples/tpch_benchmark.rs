//! Run a selection of TPC-H queries with Quokka (pipelined + write-ahead
//! lineage) and with the SparkSQL-like baseline (stagewise execution), and
//! print the speedups — a miniature of the paper's Fig. 6.
//!
//! Run with: `cargo run --release --example tpch_benchmark`
//! Environment: `QUOKKA_SF` overrides the scale factor (default 0.01).

use quokka::{EngineConfig, QuokkaSession};
use std::time::Instant;

fn main() -> quokka::Result<()> {
    let scale_factor = std::env::var("QUOKKA_SF").ok().and_then(|v| v.parse().ok()).unwrap_or(0.01);
    let workers = 4;
    println!("generating TPC-H data at scale factor {scale_factor} ...");
    let session = QuokkaSession::tpch(scale_factor, workers)?;

    let queries = [1usize, 3, 5, 6, 9, 10, 12, 14, 18];
    println!("{:<6} {:>12} {:>14} {:>9}", "query", "quokka (s)", "stagewise (s)", "speedup");
    for q in queries {
        let plan = quokka::tpch::query(q)?;

        let start = Instant::now();
        let quokka_outcome = session.run(&plan)?;
        let quokka_time = start.elapsed();

        let start = Instant::now();
        let stagewise_outcome = session.run_with(&plan, &EngineConfig::sparklike(workers))?;
        let stagewise_time = start.elapsed();

        assert!(
            quokka::results_match(&quokka_outcome.batch, &stagewise_outcome.batch),
            "Q{q}: execution modes disagree"
        );
        println!(
            "Q{:<5} {:>12.3} {:>14.3} {:>8.2}x",
            q,
            quokka_time.as_secs_f64(),
            stagewise_time.as_secs_f64(),
            stagewise_time.as_secs_f64() / quokka_time.as_secs_f64().max(1e-9),
        );
    }
    Ok(())
}
