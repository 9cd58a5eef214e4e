//! Streaming result delivery: the first batch of a multi-batch query is
//! observable before the query completes, `collect()` stays equivalent to
//! the old materialize-then-return behavior, and fault tolerance composes
//! with incremental delivery (replay deduplication, restart semantics).

use quokka::dataframe::{col, lit};
use quokka::{
    results_match, Batch, ChaosPlan, Column, CostModelConfig, DataType, EngineConfig,
    FaultStrategy, QuokkaSession, Schema,
};

/// A session whose `events` table has many input splits, so the scan-shaped
/// queries below emit many sink partitions over time.
fn session(workers: u32) -> QuokkaSession {
    let session = QuokkaSession::new(EngineConfig::quokka(workers));
    let schema = Schema::from_pairs(&[("k", DataType::Int64), ("v", DataType::Float64)]);
    let rows = 20_000i64;
    let batch = Batch::try_new(
        schema.clone(),
        vec![
            Column::Int64((0..rows).collect()),
            Column::Float64((0..rows).map(|i| (i % 97) as f64).collect()),
        ],
    )
    .unwrap();
    session.register_table("events", schema, batch.chunks(512));
    session
}

/// The sink of this query is the (fused) scan+filter stage itself, so every
/// scan task that commits emits a result partition — the streaming-friendly
/// shape.
fn scan_query(session: &QuokkaSession) -> quokka::DataFrame {
    session.table("events").unwrap().filter(col("v").lt(lit(90.0f64))).unwrap()
}

#[test]
fn first_batch_arrives_before_the_query_completes() {
    let session = session(2);
    let frame = scan_query(&session);
    let expected = frame.collect_reference().unwrap();

    let mut stream = frame.stream().unwrap();
    let first = stream.next_batch().unwrap().expect("query has results");
    // The finish event has not been seen yet: the stream handed us rows
    // while, from the consumer's perspective, the query was still running.
    assert!(!stream.is_finished());
    assert!(stream.metrics().is_none());
    assert!(first.num_rows() > 0);

    // More batches follow the first one. The engine's event channel is
    // FIFO, so a second batch *after* the first proves the first was
    // emitted strictly before the query completed.
    let mut rows = first.num_rows() as u64;
    let mut batches = 1u64;
    while let Some(batch) = stream.next_batch().unwrap() {
        rows += batch.num_rows() as u64;
        batches += 1;
    }
    assert!(batches >= 2, "a multi-split scan must stream multiple batches, got {batches}");
    assert_eq!(rows, expected.num_rows() as u64);
    assert!(stream.is_finished());

    // The engine's own clock agrees: the first sink emission landed before
    // the query's total runtime elapsed.
    let metrics = stream.metrics().unwrap();
    // One sink emission may carry several batches; the engine counts
    // emissions, the stream counts batches.
    assert!(metrics.result_batches >= 2 && metrics.result_batches <= batches);
    let first_at = metrics.time_to_first_batch.expect("sink emitted batches");
    assert!(
        first_at < metrics.runtime,
        "first batch at {first_at:?} must precede completion at {:?}",
        metrics.runtime
    );
}

/// With simulated data-path delays the gap is macroscopic: the first batch
/// lands in a fraction of the total runtime (the quantity the streaming
/// bench tracks for TPC-H Q1).
#[test]
fn time_to_first_batch_beats_time_to_last_batch_under_realistic_costs() {
    let config = EngineConfig::quokka(2).with_cost(CostModelConfig::scaled(0.2));
    let session = session(2).with_config(config);
    let outcome = scan_query(&session).collect().unwrap();
    let first = outcome.metrics.time_to_first_batch.unwrap();
    assert!(outcome.metrics.result_batches >= 4);
    assert!(
        first.as_secs_f64() < outcome.metrics.runtime.as_secs_f64() * 0.75,
        "first batch ({first:?}) should land well before completion ({:?})",
        outcome.metrics.runtime
    );
}

#[test]
fn collect_refuses_a_partially_consumed_stream() {
    // Batches handed out by next_batch() cannot be reclaimed, so collect()
    // on a used stream would silently lose rows — it must error instead.
    let session = session(2);
    let mut stream = scan_query(&session).stream().unwrap();
    let _first = stream.next_batch().unwrap().expect("query has results");
    let err = stream.collect().unwrap_err();
    assert!(err.to_string().contains("unconsumed"), "{err}");
}

#[test]
fn collect_is_equivalent_to_draining_the_stream() {
    let session = session(3);
    let frame = scan_query(&session);
    let collected = frame.collect().unwrap();
    let mut streamed_rows = Vec::new();
    for batch in frame.stream().unwrap() {
        streamed_rows.push(batch.unwrap());
    }
    let streamed = Batch::concat(&streamed_rows).unwrap();
    assert!(results_match(&collected.batch, &streamed));
    assert!(results_match(&collected.batch, &frame.collect_reference().unwrap()));
}

#[test]
fn streaming_deduplicates_replayed_sink_partitions_under_failure() {
    // Kill a worker halfway; write-ahead-lineage recovery rewinds channels
    // and replays sink emissions under their original task names. The
    // stream must not double-deliver them.
    let session = session(3)
        .with_config(EngineConfig::quokka(3).with_chaos(ChaosPlan::kill_at_progress(1, 0.4)));
    let frame = scan_query(&session);
    let expected = frame.collect_reference().unwrap();

    let mut stream = frame.stream().unwrap();
    let mut rows = 0u64;
    while let Some(batch) = stream.next_batch().unwrap() {
        rows += batch.num_rows() as u64;
    }
    assert_eq!(rows, expected.num_rows() as u64, "recovery must not duplicate streamed rows");
    assert_eq!(stream.metrics().unwrap().failures, 1);
}

#[test]
fn restart_baseline_collects_but_refuses_mid_stream_restart() {
    let config = EngineConfig::quokka(3)
        .with_fault(FaultStrategy::None)
        .with_chaos(ChaosPlan::kill_at_progress(1, 0.3));
    let session = session(3).with_config(config);
    let frame = scan_query(&session);
    let expected = frame.collect_reference().unwrap();

    // collect() owns every batch until the end, so the restart baseline can
    // discard the first attempt and rerun transparently — exactly the old
    // blocking behavior.
    let outcome = frame.collect().unwrap();
    assert!(results_match(&outcome.batch, &expected));
    assert_eq!(outcome.metrics.failures, 1);

    // The incremental path cannot retract rows it already handed out: once
    // a batch has been delivered, a restart surfaces as an error.
    let mut stream = frame.stream().unwrap();
    let mut delivered = 0u64;
    let error = loop {
        match stream.next_batch() {
            Ok(Some(batch)) => delivered += batch.num_rows() as u64,
            Ok(None) => panic!("restart after {delivered} delivered rows must surface an error"),
            Err(e) => break e,
        }
    };
    assert!(error.to_string().contains("restart"), "{error}");
    // A failure is reported exactly once; after that the stream is fused,
    // so iterator-style consumers terminate instead of looping on the
    // stored error.
    assert!(stream.next_batch().unwrap().is_none());
    assert!(stream.next().is_none());
}

#[test]
fn dropping_a_stream_cancels_the_query_and_the_session_stays_usable() {
    // Slow the data paths down so the query is certainly still running when
    // the stream is dropped.
    let config = EngineConfig::quokka(2).with_cost(CostModelConfig::scaled(0.2));
    let session = session(2).with_config(config);
    let frame = scan_query(&session);

    let mut stream = frame.stream().unwrap();
    let _first = stream.next_batch().unwrap();
    drop(stream);

    // The session (and its catalog) are unaffected; later queries run
    // normally, including on the same table.
    let outcome = session
        .table("events")
        .unwrap()
        .filter(col("k").lt(lit(100i64)))
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(outcome.batch.num_rows(), 100);
}

#[test]
fn sql_and_tpch_handles_stream_too() {
    let session = QuokkaSession::tpch(0.002, 2).unwrap();
    // SQL handle.
    let mut stream = session
        .sql("SELECT o_orderpriority FROM orders WHERE o_orderkey < 500")
        .unwrap()
        .stream()
        .unwrap();
    let mut rows = 0;
    while let Some(batch) = stream.next_batch().unwrap() {
        assert_eq!(batch.schema().column_names(), vec!["o_orderpriority"]);
        rows += batch.num_rows();
    }
    assert!(rows > 0);

    // Hand-built TPC-H plan handle: Q1's sink is a sort, so the whole
    // result arrives as one batch — but through the same streaming path.
    let mut stream = session.tpch_query(1).unwrap().stream().unwrap();
    let batch = stream.next_batch().unwrap().expect("Q1 has rows");
    assert!(stream.next_batch().unwrap().is_none());
    let expected = session.tpch_query(1).unwrap().collect_reference().unwrap();
    assert!(results_match(&batch, &expected));

    // EXPLAIN statements stream their rendering.
    let mut stream =
        session.sql("EXPLAIN SELECT count(*) AS n FROM orders").unwrap().stream().unwrap();
    let rendering = stream.next_batch().unwrap().unwrap();
    assert!(rendering.as_strs("plan").unwrap().iter().any(|l| l.contains("Optimized plan")));
}
