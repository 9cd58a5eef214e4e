//! Compare the normal-execution cost of the fault-tolerance strategies the
//! paper discusses (§II-B, Fig. 9): no fault tolerance, write-ahead lineage,
//! Trino-style durable spooling, and periodic state checkpointing.
//!
//! The run uses the calibrated cost model (scaled down so it finishes
//! quickly) so that bytes written to the durable store actually cost time,
//! exactly like S3/HDFS writes cost time on a real cluster.
//!
//! Run with: `cargo run --release --example strategy_comparison`

use quokka::{CostModelConfig, EngineConfig, FaultStrategy, QuokkaSession};

fn main() -> quokka::Result<()> {
    let workers = 4;
    let session = QuokkaSession::tpch(0.01, workers)?;
    let plan = quokka::tpch::query(5)?; // a multi-join pipeline
    let expected = session.run_reference(&plan)?;
    let cost = CostModelConfig::scaled(0.05);

    let strategies: [(&str, FaultStrategy); 4] = [
        ("none (restart on failure)", FaultStrategy::None),
        ("write-ahead lineage", FaultStrategy::WriteAheadLineage),
        ("durable spooling", FaultStrategy::Spooling),
        ("checkpointing (every 4 tasks)", FaultStrategy::Checkpointing { interval_tasks: 4 }),
    ];

    println!(
        "{:<30} {:>10} {:>14} {:>14} {:>12}",
        "strategy", "time (s)", "durable bytes", "backup bytes", "lineage B"
    );
    let mut baseline = None;
    for (name, strategy) in strategies {
        let config = EngineConfig::quokka(workers).with_fault(strategy).with_cost(cost);
        let outcome = session.run_with(&plan, &config)?;
        assert!(quokka::results_match(&expected, &outcome.batch), "{name}: wrong result");
        let seconds = outcome.metrics.runtime.as_secs_f64();
        let overhead = match baseline {
            None => {
                baseline = Some(seconds);
                String::from("   (baseline)")
            }
            Some(base) => format!("   ({:.2}x)", seconds / base),
        };
        println!(
            "{:<30} {:>10.3} {:>14} {:>14} {:>12}{}",
            name,
            seconds,
            outcome.metrics.durable_bytes,
            outcome.metrics.backup_bytes,
            outcome.metrics.lineage_bytes,
            overhead
        );
    }
    println!("\nKB-sized lineage vs MB-sized spooling is the paper's core argument (Fig. 9).");
    Ok(())
}
