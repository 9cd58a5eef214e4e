//! Integration tests for the facade API plus property-based tests on the
//! invariants the engine's correctness rests on (wire partition round-trips,
//! hash-partition completeness, canonical result comparison).

use proptest::prelude::*;
use quokka::batch::compute::hash_partition;
use quokka::batch::wire::{decode_partition, encode_partition};
use quokka::{
    canonical_rows, results_match, same_result, Batch, Column, DataType, EngineConfig,
    QuokkaSession, Schema,
};

#[test]
fn session_round_trip_on_custom_tables() {
    use quokka::plan::aggregate::count;
    use quokka::plan::expr::col;
    use quokka::PlanBuilder;

    let session = QuokkaSession::new(EngineConfig::quokka(2));
    let schema = Schema::from_pairs(&[("k", DataType::Int64), ("tag", DataType::Utf8)]);
    let batch = Batch::try_new(
        schema.clone(),
        vec![
            Column::Int64((0..1000).collect()),
            Column::Utf8((0..1000).map(|i| format!("t{}", i % 7)).collect()),
        ],
    )
    .unwrap();
    session.register_table("events", schema.clone(), batch.chunks(128));

    let plan = PlanBuilder::scan("events", schema)
        .aggregate(vec![(col("tag"), "tag")], vec![count(col("k"), "n")])
        .sort(vec![("tag", true)])
        .build()
        .unwrap();
    let outcome = session.run(&plan).unwrap();
    assert_eq!(outcome.batch.num_rows(), 7);
    let expected = session.run_reference(&plan).unwrap();
    assert!(results_match(&expected, &outcome.batch));
    assert!(outcome.metrics.output_rows >= 7);
}

/// Two-phase aggregation on the distributed engine: grouped and global
/// aggregates of every mergeable kind, over inputs that keep every row,
/// some rows and no row at all, keyed so that both the pre-aggregated
/// (`bucket`: four values per batch) and the row-by-row (`tag`: plain
/// strings) partial branches run. A global aggregate over no rows still
/// returns its single row (count 0, sum 0, avg 0.0), which the merge stage
/// makes since the partials of empty batches emit nothing.
#[test]
fn two_phase_aggregates_match_the_reference_on_the_engine() {
    let session = QuokkaSession::new(EngineConfig::quokka(3));
    let schema = Schema::from_pairs(&[
        ("k", DataType::Int64),
        ("bucket", DataType::Int64),
        ("tag", DataType::Utf8),
        ("v", DataType::Float64),
    ]);
    let batch = Batch::try_new(
        schema.clone(),
        vec![
            Column::Int64((0..2000).collect()),
            Column::Int64((0..2000).map(|i| i % 4).collect()),
            Column::Utf8((0..2000).map(|i| format!("t{}", i % 5)).collect()),
            Column::Float64((0..2000).map(|i| f64::from(i) * 0.37).collect()),
        ],
    )
    .unwrap();
    session.register_table("facts", schema, batch.chunks(256));
    let aggregates = "count(v) AS n, sum(k) AS sk, sum(v) AS sv, avg(v) AS av, \
                      min(v) AS lo, max(k) AS hi";
    for filter in ["k >= 0", "k < 700", "k > 5000"] {
        for key in ["", "bucket", "tag"] {
            let sql = if key.is_empty() {
                format!("SELECT {aggregates} FROM facts WHERE {filter}")
            } else {
                format!("SELECT {key}, {aggregates} FROM facts WHERE {filter} GROUP BY {key}")
            };
            let handle = session.sql(&sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
            let outcome = handle.collect().unwrap();
            let expected = handle.collect_reference().unwrap();
            assert!(results_match(&expected, &outcome.batch), "{sql}\n{:?}", outcome.batch);
            if key.is_empty() && filter == "k > 5000" {
                let row = outcome.batch.row(0);
                assert_eq!(outcome.batch.num_rows(), 1);
                assert_eq!(row[0], quokka::ScalarValue::Int64(0));
                assert_eq!(row[1], quokka::ScalarValue::Int64(0));
                assert_eq!(row[2], quokka::ScalarValue::Float64(0.0));
                assert_eq!(row[3], quokka::ScalarValue::Float64(0.0));
            }
        }
    }
}

#[test]
fn tpch_session_exposes_all_tables() {
    let session = QuokkaSession::tpch(0.002, 2).unwrap();
    let mut names = session.table_names();
    names.sort();
    assert_eq!(
        names,
        vec!["customer", "lineitem", "nation", "orders", "part", "partsupp", "region", "supplier"]
    );
}

fn arbitrary_batch() -> impl Strategy<Value = Batch> {
    (1usize..60).prop_flat_map(|rows| {
        (
            proptest::collection::vec(any::<i64>(), rows),
            proptest::collection::vec(any::<f64>(), rows),
            proptest::collection::vec("[a-z]{0,12}", rows),
            proptest::collection::vec(any::<bool>(), rows),
        )
            .prop_map(|(ints, floats, strings, bools)| {
                let schema = Schema::from_pairs(&[
                    ("id", DataType::Int64),
                    ("value", DataType::Float64),
                    ("name", DataType::Utf8),
                    ("flag", DataType::Bool),
                ]);
                Batch::try_new(
                    schema,
                    vec![
                        Column::Int64(ints),
                        Column::Float64(floats),
                        Column::Utf8(strings),
                        Column::Bool(bools),
                    ],
                )
                .unwrap()
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The wire partition every slice is backed up, spooled and shipped as
    /// must round-trip every batch exactly: a replayed partition has to be
    /// bit-identical.
    #[test]
    fn partition_codec_round_trips(batch in arbitrary_batch()) {
        let payload = encode_partition(std::slice::from_ref(&batch));
        let decoded = decode_partition(&payload).unwrap();
        prop_assert_eq!(decoded.len(), 1);
        prop_assert_eq!(&decoded[0], &batch);
        // Deterministic encoding (same bytes every time).
        prop_assert_eq!(encode_partition(std::slice::from_ref(&batch)), payload);
    }

    /// Hash partitioning (the shuffle) must neither lose nor duplicate rows,
    /// and equal keys must land in the same partition.
    #[test]
    fn hash_partitioning_is_a_partition(batch in arbitrary_batch(), parts in 1usize..6) {
        let pieces = hash_partition(&batch, &[0], parts).unwrap();
        prop_assert_eq!(pieces.len(), parts);
        let total: usize = pieces.iter().map(Batch::num_rows).sum();
        prop_assert_eq!(total, batch.num_rows());
        // Multiset of rows is preserved.
        let mut original = canonical_rows(&batch);
        let mut scattered: Vec<String> = pieces.iter().flat_map(canonical_rows).collect();
        original.sort();
        scattered.sort();
        prop_assert_eq!(original, scattered);
        // Same key -> same partition.
        for (i, piece) in pieces.iter().enumerate() {
            for row in 0..piece.num_rows() {
                let key = piece.value(row, 0);
                for (j, other) in pieces.iter().enumerate() {
                    if i == j { continue; }
                    for other_row in 0..other.num_rows() {
                        prop_assert_ne!(&key, &other.value(other_row, 0));
                    }
                }
            }
        }
    }

    /// Result comparison must be insensitive to row order.
    #[test]
    fn canonical_rows_ignore_row_order(batch in arbitrary_batch()) {
        let reversed: Vec<usize> = (0..batch.num_rows()).rev().collect();
        let shuffled = batch.take(&reversed).unwrap();
        prop_assert!(same_result(&batch, &shuffled));
        prop_assert!(results_match(&batch, &shuffled));
    }

    /// Chunking and re-concatenating a batch is the identity.
    #[test]
    fn chunk_concat_round_trips(batch in arbitrary_batch(), chunk in 1usize..40) {
        let chunks = batch.chunks(chunk);
        let rebuilt = Batch::concat(&chunks).unwrap();
        prop_assert_eq!(rebuilt, batch);
    }
}
