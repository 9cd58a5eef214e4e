//! Quickstart: register your own tables, run a query on the simulated
//! cluster, and inspect the fault-tolerance metrics.
//!
//! Run with: `cargo run --release --example quickstart`

use quokka::plan::aggregate::{count, sum};
use quokka::plan::expr::{col, lit};
use quokka::{Batch, Column, DataType, EngineConfig, JoinType, PlanBuilder, QuokkaSession, Schema};

fn main() -> quokka::Result<()> {
    // A session is a catalog plus an engine configuration. Quokka's default
    // is pipelined execution, dynamic task dependencies and write-ahead
    // lineage on a simulated cluster.
    let session = QuokkaSession::new(EngineConfig::quokka(4));

    // Register a dimension table and a fact table.
    let products = Schema::from_pairs(&[("p_id", DataType::Int64), ("p_category", DataType::Utf8)]);
    session.register_table(
        "products",
        products.clone(),
        vec![Batch::try_new(
            products.clone(),
            vec![
                Column::Int64((0..100).collect()),
                Column::Utf8((0..100).map(|i| format!("category-{}", i % 5)).collect()),
            ],
        )?],
    );

    let sales =
        Schema::from_pairs(&[("s_product", DataType::Int64), ("s_amount", DataType::Float64)]);
    let rows = 20_000i64;
    let sales_batch = Batch::try_new(
        sales.clone(),
        vec![
            Column::Int64((0..rows).map(|i| i % 100).collect()),
            Column::Float64((0..rows).map(|i| (i % 37) as f64 + 0.5).collect()),
        ],
    )?;
    // Several batches = several input splits = several scan tasks.
    session.register_table("sales", sales.clone(), sales_batch.chunks(1024));

    // Revenue per category for sales above a threshold, largest first.
    let plan = PlanBuilder::scan("products", products)
        .join(
            PlanBuilder::scan("sales", sales).filter(col("s_amount").gt(lit(5.0f64))),
            vec![("p_id", "s_product")],
            JoinType::Inner,
        )
        .aggregate(
            vec![(col("p_category"), "category")],
            vec![sum(col("s_amount"), "revenue"), count(col("s_product"), "sales")],
        )
        .sort(vec![("revenue", false)])
        .build()?;

    let outcome = session.run(&plan)?;
    println!("category        revenue      sales");
    for row in 0..outcome.batch.num_rows() {
        println!(
            "{:<14} {:>10}  {:>9}",
            outcome.batch.value(row, 0),
            outcome.batch.value(row, 1),
            outcome.batch.value(row, 2)
        );
    }

    let m = &outcome.metrics;
    println!();
    println!("runtime              : {:?}", m.runtime);
    println!("tasks executed       : {}", m.tasks_executed);
    println!("shuffle bytes        : {} (raw {})", m.shuffle_bytes, m.shuffle_raw_bytes);
    println!("upstream backup bytes: {} (raw {})", m.backup_bytes, m.backup_raw_bytes);
    println!("lineage bytes logged : {}", m.lineage_bytes);
    println!("GCS transactions     : {}", m.gcs_transactions);

    // The distributed result matches the single-threaded reference executor.
    let expected = session.run_reference(&plan)?;
    assert!(quokka::results_match(&expected, &outcome.batch));
    println!("\nresult verified against the reference executor");

    // The same query as SQL text: parsed, bound against the session's
    // catalog, and executed on the same simulated cluster.
    let handle = session.sql(
        "SELECT p_category AS category, sum(s_amount) AS revenue, count(*) AS sales \
         FROM products JOIN sales ON p_id = s_product \
         WHERE s_amount > 5 \
         GROUP BY p_category \
         ORDER BY revenue DESC",
    )?;
    println!("\nSQL plan:\n{}", handle.explain());
    let sql_outcome = handle.collect()?;
    assert!(quokka::results_match(&sql_outcome.batch, &outcome.batch));
    println!("SQL result matches the hand-built plan");

    // Malformed SQL fails with a positioned error instead of panicking.
    let err = session.sql("SELECT revenu FROM sales").unwrap_err();
    println!("error example: {err}");

    // The same query once more through the lazy DataFrame API — the third
    // frontend, sharing the engine (and the error ergonomics) with the
    // other two. See `examples/dataframe_streaming.rs` for the full tour,
    // including incremental result streaming.
    use quokka::dataframe::{col as dcol, count as dcount, lit as dlit, sum as dsum};
    let frame = session
        .table("products")?
        .join(
            session.table("sales")?.filter(dcol("s_amount").gt(dlit(5.0f64)))?,
            &[("p_id", "s_product")],
            JoinType::Inner,
        )?
        .group_by([dcol("p_category").alias("category")])?
        .agg([dsum(dcol("s_amount")).alias("revenue"), dcount(dcol("s_product")).alias("sales")])?
        .sort([(dcol("revenue"), false)])?;
    let df_outcome = frame.collect()?;
    assert!(quokka::results_match(&df_outcome.batch, &outcome.batch));
    println!("DataFrame result matches the hand-built plan and the SQL text");
    Ok(())
}
