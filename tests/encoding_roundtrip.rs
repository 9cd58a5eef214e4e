//! Property tests for the compressed column encodings.
//!
//! Each encoding (dictionary strings, bit-packed integers/dates, XOR floats)
//! must survive two independent journeys without changing logical content:
//! in-memory encode -> decode, and the wire partition every output slice is
//! backed up, shipped and replayed as. Edge shapes — empty columns, single values, all-equal
//! columns — are covered both by dedicated tests and by the random
//! generators (which are biased towards runs and repeats so the encodings
//! actually engage).

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use quokka::batch::wire::{decode_partition, encode_partition};
use quokka::batch::{
    Batch, Column, DictColumn, Field, PackedIntColumn, PackedLogical, Schema, XorFloatColumn,
};

/// Wrap one column into a single-column batch.
fn batch_of(name: &str, col: Column) -> Batch {
    let field = Field::new(name, col.data_type());
    Batch::try_new(Schema::new(vec![field]), vec![col]).unwrap()
}

/// Assert one column survives the wire partition with its logical content
/// intact, and that re-encoding the decode is byte-exact (replayed
/// partitions must be indistinguishable from the originals).
fn assert_roundtrips(col: &Column) {
    let plain = col.decoded().into_owned();
    assert_eq!(col, &plain, "decode must preserve logical content");

    let b = batch_of("c", col.clone());
    let payload = encode_partition(std::slice::from_ref(&b));
    let decoded = decode_partition(&payload).unwrap();
    assert_eq!(decoded, vec![b], "wire round-trip changed the column");
    assert_eq!(encode_partition(&decoded), payload, "wire re-encode must be byte-exact");
}

fn random_dict(rng: &mut TestRng, rows: usize) -> Column {
    const POOL: [&str; 7] =
        ["", "TRUCK", "AIR", "RAIL", "unicode ✓ß", "a longer repeated string", "MAIL"];
    let strings: Vec<String> =
        (0..rows).map(|_| POOL[rng.below(POOL.len() as u64) as usize].to_string()).collect();
    Column::Dict(DictColumn::from_plain(&strings))
}

fn random_packed(rng: &mut TestRng, rows: usize, logical: PackedLogical) -> Column {
    // Narrow ranges around a random (possibly negative) base so bit-packing
    // engages with widths from 0 to ~17 bits.
    let base = match logical {
        PackedLogical::Int64 => rng.next_u64() as i64 / 4,
        PackedLogical::Date => (rng.next_u64() as i32 / 4) as i64,
    };
    let span = 1 + rng.below(100_000);
    let values: Vec<i64> = (0..rows).map(|_| base + rng.below(span) as i64).collect();
    Column::Packed(PackedIntColumn::from_values(logical, &values))
}

fn random_xor(rng: &mut TestRng, rows: usize) -> Column {
    // Runs of repeated values with occasional jumps: the shape XOR
    // compression is built for.
    let mut values = Vec::with_capacity(rows);
    let mut current = (rng.below(1000) as f64) * 0.25;
    for _ in 0..rows {
        if rng.below(8) == 0 {
            current = (rng.below(1000) as f64) * 0.25;
        }
        values.push(current);
    }
    Column::Xor(XorFloatColumn::from_values(&values))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn dict_columns_roundtrip(rows in 0usize..300, seed in any::<i64>()) {
        let mut rng = TestRng::for_case(seed as u64);
        assert_roundtrips(&random_dict(&mut rng, rows));
    }

    #[test]
    fn packed_int_columns_roundtrip(rows in 0usize..300, seed in any::<i64>()) {
        let mut rng = TestRng::for_case(seed as u64);
        assert_roundtrips(&random_packed(&mut rng, rows, PackedLogical::Int64));
    }

    #[test]
    fn packed_date_columns_roundtrip(rows in 0usize..300, seed in any::<i64>()) {
        let mut rng = TestRng::for_case(seed as u64);
        assert_roundtrips(&random_packed(&mut rng, rows, PackedLogical::Date));
    }

    #[test]
    fn xor_float_columns_roundtrip(rows in 0usize..300, seed in any::<i64>()) {
        let mut rng = TestRng::for_case(seed as u64);
        assert_roundtrips(&random_xor(&mut rng, rows));
    }

    /// `encode_auto` output — whatever representation it picks — always
    /// round-trips and stays logically equal to its plain source.
    #[test]
    fn encode_auto_roundtrips(rows in 0usize..200, seed in any::<i64>()) {
        let mut rng = TestRng::for_case(seed as u64);
        for col in [
            random_dict(&mut rng, rows).decoded().into_owned(),
            random_packed(&mut rng, rows, PackedLogical::Int64).decoded().into_owned(),
            random_xor(&mut rng, rows).decoded().into_owned(),
        ] {
            let encoded = col.encode_auto();
            assert_eq!(encoded, col);
            assert_roundtrips(&encoded);
            prop_assert!(encoded.memory_bytes() <= col.memory_bytes());
        }
    }
}

#[test]
fn empty_columns_roundtrip() {
    assert_roundtrips(&Column::Dict(DictColumn::from_plain(&[])));
    assert_roundtrips(&Column::Packed(PackedIntColumn::from_values(PackedLogical::Int64, &[])));
    assert_roundtrips(&Column::Packed(PackedIntColumn::from_values(PackedLogical::Date, &[])));
    assert_roundtrips(&Column::Xor(XorFloatColumn::from_values(&[])));
}

#[test]
fn single_value_columns_roundtrip() {
    assert_roundtrips(&Column::Dict(DictColumn::from_plain(&["only".to_string()])));
    assert_roundtrips(&Column::Packed(PackedIntColumn::from_values(
        PackedLogical::Int64,
        &[i64::MIN],
    )));
    assert_roundtrips(&Column::Packed(PackedIntColumn::from_values(
        PackedLogical::Date,
        &[i32::MAX as i64],
    )));
    assert_roundtrips(&Column::Xor(XorFloatColumn::from_values(&[-0.0])));
}

#[test]
fn all_equal_columns_roundtrip_at_width_zero() {
    let dict = DictColumn::from_plain(&vec!["same".to_string(); 1000]);
    assert_eq!(dict.code_width(), 0, "one dictionary entry needs zero bits per code");
    assert_roundtrips(&Column::Dict(dict));

    let packed = PackedIntColumn::from_values(PackedLogical::Int64, &vec![-42; 1000]);
    assert_eq!(packed.width, 0, "all-equal integers pack at width zero");
    assert_roundtrips(&Column::Packed(packed));

    let xor = XorFloatColumn::from_values(&vec![3.25; 1000]);
    assert!(
        xor.memory_bytes() < 1000,
        "all-equal floats compress to ~1 bit/value, got {} bytes",
        xor.memory_bytes()
    );
    assert_roundtrips(&Column::Xor(xor));
}

#[test]
fn extreme_integer_ranges_roundtrip() {
    // i64::MIN..=i64::MAX spans more than u64 can hold in one delta; the
    // packer must fall back to width 64 without overflow.
    let col = Column::Packed(PackedIntColumn::from_values(
        PackedLogical::Int64,
        &[i64::MIN, 0, i64::MAX, -1, 1],
    ));
    assert_roundtrips(&col);

    let dates = Column::Packed(PackedIntColumn::from_values(
        PackedLogical::Date,
        &[i32::MIN as i64, i32::MAX as i64, 0],
    ));
    assert_roundtrips(&dates);
}

#[test]
fn nonfinite_floats_roundtrip_through_xor() {
    let col = Column::Xor(XorFloatColumn::from_values(&[
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        -0.0,
        0.0,
        f64::MIN_POSITIVE,
    ]));
    // NaN != NaN under logical comparison, so check bits instead.
    let decoded = match col.decoded().into_owned() {
        Column::Float64(v) => v,
        other => panic!("expected plain floats, got {other:?}"),
    };
    assert_eq!(decoded.len(), 6);
    assert!(decoded[2].is_nan());
    assert_eq!(decoded[0], f64::INFINITY);
    assert_eq!(decoded[3].to_bits(), (-0.0f64).to_bits());

    let payload = encode_partition(&[batch_of("f", col)]);
    let back = decode_partition(&payload).unwrap();
    assert_eq!(encode_partition(&back), payload);
}

/// Dictionary-encoded and plain string columns that hold the same values
/// must group/join identically: their row keys and hashes agree.
#[test]
fn dict_and_plain_agree_on_hashes_and_keys() {
    let strings: Vec<String> = (0..64).map(|i| ["x", "yy", "zzz"][i % 3].to_string()).collect();
    let plain = Column::Utf8(strings.clone());
    let dict = Column::Dict(DictColumn::from_plain(&strings));
    assert_eq!(plain, dict);

    let mut h_plain = vec![0u64; 64];
    let mut h_dict = vec![0u64; 64];
    plain.hash_into(&mut h_plain);
    dict.hash_into(&mut h_dict);
    assert_eq!(h_plain, h_dict, "hash partitioning must not depend on representation");
}
