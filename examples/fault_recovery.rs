//! Kill a worker halfway through a TPC-H join query and watch write-ahead
//! lineage recover it — then compare against the restart-from-scratch
//! baseline (paper §V-D / Fig. 10).
//!
//! Run with: `cargo run --release --example fault_recovery`

use quokka::{ChaosPlan, EngineConfig, FaultStrategy, QuokkaSession};

fn main() -> quokka::Result<()> {
    let workers = 4;
    let session = QuokkaSession::tpch(0.01, workers)?;
    let query = 3; // customer ⨝ orders ⨝ lineitem with an aggregation on top
    let plan = quokka::tpch::query(query)?;
    let expected = session.run_reference(&plan)?;

    // 1. Normal execution (no failure) to establish the baseline runtime.
    let normal = session.run(&plan)?;
    assert!(quokka::results_match(&expected, &normal.batch));
    println!("normal execution          : {:?}", normal.metrics.runtime);

    // 2. Kill worker 1 once half of the input splits have been consumed;
    //    write-ahead lineage rewinds only the lost channels.
    let failing = EngineConfig::quokka(workers).with_chaos(ChaosPlan::kill_at_progress(1, 0.5));
    let recovered = session.run_with(&plan, &failing)?;
    assert!(quokka::results_match(&expected, &recovered.batch), "recovered result differs!");
    println!(
        "with failure + WAL        : {:?}  (overhead {:.2}x, {} recovery tasks, planning {:?})",
        recovered.metrics.runtime,
        recovered.metrics.overhead_vs(normal.metrics.runtime),
        recovered.metrics.recovery_tasks,
        recovered.metrics.recovery_planning,
    );

    // 3. The same failure without intra-query fault tolerance: the query is
    //    restarted from scratch on the surviving workers.
    let restart = EngineConfig::quokka(workers)
        .with_fault(FaultStrategy::None)
        .with_chaos(ChaosPlan::kill_at_progress(1, 0.5));
    let restarted = session.run_with(&plan, &restart)?;
    assert!(quokka::results_match(&expected, &restarted.batch));
    println!(
        "with failure + restart    : {:?}  (overhead {:.2}x)",
        restarted.metrics.runtime,
        restarted.metrics.overhead_vs(normal.metrics.runtime),
    );

    println!("\nTPC-H Q{query}: all three executions returned identical results");
    Ok(())
}
