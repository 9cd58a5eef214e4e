//! Property tests for the wire format, the engine's one batch format.
//!
//! Every output slice is backed up, shipped and replayed as a wire
//! partition, so the encoding must round-trip *byte-exactly* (a replayed
//! partition has to be indistinguishable from the original) and must treat
//! any corrupted or truncated payload as a typed error — a malformed frame
//! from a half-dead peer must surface as a retryable failure, never a panic
//! in the recv loop, and never an allocation sized from a count the decoder
//! has not checked.
//!
//! Randomized batches cover all five `DataType`s, empty columns, edge
//! values (extreme integers, NaN payloads, signed zeros, empty and
//! multi-byte UTF-8 strings), frames beyond 64KB, and every column encoding
//! the wire ships: dictionaries, bit-packed integers and dates, XOR float
//! streams, scaled decimals and packed bools. The fuzz tests mutate
//! partitions of such batches (truncations, flipped and inserted bytes,
//! huge counts) under an allocator that records the largest allocation.

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use quokka::batch::wire::{
    decode_batch, decode_partition, encode_batch_into, encode_partition, encoded_batch_len,
    MAX_SMALL_FRAME_ROWS,
};
use quokka::batch::{
    Batch, Column, DataType, DictColumn, Field, PackedIntColumn, PackedLogical, Schema,
    XorFloatColumn,
};
use quokka::QuokkaError;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// The largest single allocation this thread asked for since the last
    /// reset (see [`largest_allocation`]).
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, recording each thread's largest request.
struct RecordingAllocator;

fn record(size: usize) {
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so the
// caller's guarantees are exactly the ones `System` needs; recording a size
// only touches a const-initialized thread-local `Cell`, which neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for RecordingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: RecordingAllocator = RecordingAllocator;

/// Run `f`, returning its result and the largest single allocation it made.
fn largest_allocation<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|largest| largest.set(0));
    let out = f();
    (out, LARGEST.with(Cell::get))
}

/// What decoding `len` bytes may allocate at once: a decoded value takes at
/// most 64 times the bits it was packed into, plus a fixed allowance.
fn bytes_bound(len: usize) -> usize {
    64 * len + 4096
}

/// A column packed at width zero expands to at most `MAX_SMALL_FRAME_ROWS`
/// values of at most 8 bytes, whatever the payload's size.
const ZERO_WIDTH_BOUND: usize = 8 * MAX_SMALL_FRAME_ROWS;

/// Decode a (mutated) partition payload: it decodes, or fails with a typed
/// Storage error — never a panic — and no allocation exceeds `bound`.
fn decode_checked(payload: &[u8], bound: usize) -> Option<Vec<Batch>> {
    let (result, largest) = largest_allocation(|| decode_partition(payload));
    assert!(largest <= bound, "decoding {} bytes allocated {largest} at once", payload.len());
    match result {
        Ok(batches) => Some(batches),
        Err(QuokkaError::Storage(_)) => None,
        Err(other) => panic!("decoding produced the untyped error {other:?}"),
    }
}

/// Deterministically build a randomized batch from the test RNG: random
/// column count/types/names, shared row count, values drawn from a pool of
/// adversarial edge cases mixed with uniform randoms.
fn random_batch(rng: &mut TestRng, rows: usize, cols: usize) -> Batch {
    const I64_EDGES: [i64; 5] = [i64::MIN, -1, 0, 1, i64::MAX];
    const F64_EDGES: [f64; 6] =
        [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN, f64::MIN_POSITIVE];
    const I32_EDGES: [i32; 4] = [i32::MIN, -1, 0, i32::MAX];
    const STR_POOL: [&str; 6] =
        ["", "a", "hello world", "unicode ✓ß", "emoji 🦘", "newline\nand\ttab"];
    let mut fields = Vec::with_capacity(cols);
    let mut columns = Vec::with_capacity(cols);
    for c in 0..cols {
        let dtype = match rng.below(5) {
            0 => DataType::Int64,
            1 => DataType::Float64,
            2 => DataType::Utf8,
            3 => DataType::Bool,
            _ => DataType::Date,
        };
        fields.push(Field::new(format!("col{c}_✓"), dtype));
        columns.push(match dtype {
            DataType::Int64 => Column::Int64(
                (0..rows)
                    .map(|_| {
                        if rng.below(4) == 0 {
                            I64_EDGES[rng.below(I64_EDGES.len() as u64) as usize]
                        } else {
                            rng.next_u64() as i64
                        }
                    })
                    .collect(),
            ),
            DataType::Float64 => Column::Float64(
                (0..rows)
                    .map(|_| {
                        if rng.below(4) == 0 {
                            F64_EDGES[rng.below(F64_EDGES.len() as u64) as usize]
                        } else {
                            f64::from_bits(rng.next_u64())
                        }
                    })
                    .collect(),
            ),
            DataType::Utf8 => Column::Utf8(
                (0..rows)
                    .map(|_| {
                        let base = STR_POOL[rng.below(STR_POOL.len() as u64) as usize];
                        base.repeat(rng.below(4) as usize)
                    })
                    .collect(),
            ),
            DataType::Bool => Column::Bool((0..rows).map(|_| rng.below(2) == 1).collect()),
            DataType::Date => Column::Date(
                (0..rows)
                    .map(|_| {
                        if rng.below(4) == 0 {
                            I32_EDGES[rng.below(I32_EDGES.len() as u64) as usize]
                        } else {
                            rng.next_u64() as i32
                        }
                    })
                    .collect(),
            ),
        });
    }
    Batch::try_new(Schema::new(fields), columns).expect("generated columns are equal length")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// encode -> decode -> re-encode reproduces the exact frame bytes for
    /// arbitrary batches, including zero-row batches (empty columns).
    #[test]
    fn roundtrip_is_byte_exact(rows in 0usize..200, cols in 1usize..7, seed in any::<i64>()) {
        let mut rng = TestRng::for_case(seed as u64);
        let batch = random_batch(&mut rng, rows, cols);
        let mut frame = Vec::new();
        encode_batch_into(&batch, &mut frame);
        // `encoded_batch_len` is an upper bound: the encoder may shrink a
        // plain column opportunistically (bit-packing, XOR) when that wins.
        prop_assert!(frame.len() <= encoded_batch_len(&batch));
        let decoded = decode_batch(&frame).unwrap();
        prop_assert_eq!(decoded.num_rows(), rows);
        prop_assert_eq!(decoded.schema(), batch.schema());
        let mut again = Vec::new();
        encode_batch_into(&decoded, &mut again);
        prop_assert_eq!(frame, again);
    }

    /// Multi-batch partitions (the payload a slice is backed up and
    /// shipped as) round-trip, and re-encoding reproduces them.
    #[test]
    fn multi_batch_frames_roundtrip(count in 0usize..4, rows in 0usize..80, seed in any::<i64>()) {
        let mut rng = TestRng::for_case(seed as u64);
        let batches: Vec<Batch> =
            (0..count)
                .map(|_| {
                    let cols = 1 + rng.below(4) as usize;
                    random_batch(&mut rng, rows, cols)
                })
                .collect();
        let payload = encode_partition(&batches);
        let decoded = decode_partition(&payload).unwrap();
        prop_assert_eq!(decoded.len(), count);
        for (orig, got) in batches.iter().zip(&decoded) {
            let (mut a, mut b) = (Vec::new(), Vec::new());
            encode_batch_into(orig, &mut a);
            encode_batch_into(got, &mut b);
            prop_assert_eq!(a, b);
        }
        prop_assert_eq!(encode_partition(&decoded), payload);
    }

    /// Every strict prefix of a frame is rejected with a typed Storage
    /// error — truncation anywhere must never panic or mis-decode.
    #[test]
    fn truncations_yield_typed_errors(rows in 1usize..40, seed in any::<i64>()) {
        let mut rng = TestRng::for_case(seed as u64);
        let cols = 1 + rng.below(4) as usize;
        let batch = random_batch(&mut rng, rows, cols);
        let mut frame = Vec::new();
        encode_batch_into(&batch, &mut frame);
        for cut in 0..frame.len() {
            match decode_batch(&frame[..cut]) {
                Err(QuokkaError::Storage(_)) => {}
                other => panic!("truncation at {cut}/{} produced {other:?}", frame.len()),
            }
        }
    }

    /// Arbitrary single-byte corruption either decodes (the flip landed in
    /// value bytes) or fails with a typed Storage error — never a panic,
    /// never an unbounded allocation.
    #[test]
    fn corruption_never_panics(rows in 1usize..60, seed in any::<i64>(), flips in 1usize..8) {
        let mut rng = TestRng::for_case(seed as u64);
        let cols = 1 + rng.below(3) as usize;
        let batch = random_batch(&mut rng, rows, cols);
        let mut frame = Vec::new();
        encode_batch_into(&batch, &mut frame);
        for _ in 0..flips {
            let mut bad = frame.clone();
            let pos = rng.below(bad.len() as u64) as usize;
            bad[pos] ^= (1 + rng.below(255)) as u8;
            match decode_batch(&bad) {
                Ok(_) => {}
                Err(QuokkaError::Storage(_)) => {}
                Err(other) => panic!("corrupted frame produced unexpected error {other:?}"),
            }
        }
    }
}

/// Frames larger than 64KB (beyond any single read buffer) round-trip
/// byte-exactly.
#[test]
fn large_frames_roundtrip() {
    let mut rng = TestRng::for_case(0x51_4B);
    let batch = random_batch(&mut rng, 6000, 5);
    let mut frame = Vec::new();
    encode_batch_into(&batch, &mut frame);
    assert!(frame.len() > 64 * 1024, "frame only {} bytes", frame.len());
    let decoded = decode_batch(&frame).unwrap();
    let mut again = Vec::new();
    encode_batch_into(&decoded, &mut again);
    assert_eq!(frame, again);
}

/// One of `n` values, or always the first when `same` (so the column is
/// all-equal and its packed encodings ship at width zero).
fn draw(rng: &mut TestRng, same: bool, n: u64) -> u64 {
    if same {
        0
    } else {
        rng.below(n)
    }
}

/// A batch with one column per wire encoding: a dictionary, bit-packed
/// integers and dates, an XOR float stream, scaled two-decimal floats,
/// packed bools, and plain strings.
fn every_encoding(rng: &mut TestRng, rows: usize) -> Batch {
    const POOL: [&str; 5] = ["", "AIR", "TRUCK", "unicode ✓ß", "a longer repeated string"];
    let same = rng.below(4) == 0;
    let base = rng.next_u64() as i64 / 4;
    let strings: Vec<String> =
        (0..rows).map(|_| POOL[draw(rng, same, 5) as usize].to_string()).collect();
    let ints: Vec<i64> = (0..rows).map(|_| base + draw(rng, same, 1000) as i64).collect();
    let days: Vec<i64> = (0..rows).map(|_| 9000 + draw(rng, same, 3000) as i64).collect();
    // Runs of irrational values: XOR-friendly, not scaled decimals.
    let mut root = 2.0f64.sqrt();
    let roots: Vec<f64> = (0..rows)
        .map(|_| {
            if draw(rng, same, 8) == 7 {
                root = ((2 + rng.below(40)) as f64).sqrt();
            }
            root
        })
        .collect();
    let prices: Vec<f64> = (0..rows).map(|_| draw(rng, same, 100_000) as f64 / 100.0).collect();
    let flags: Vec<bool> = (0..rows).map(|_| draw(rng, same, 2) == 1).collect();
    let columns = vec![
        Column::Dict(DictColumn::from_plain(&strings)),
        Column::Packed(PackedIntColumn::from_values(PackedLogical::Int64, &ints)),
        Column::Packed(PackedIntColumn::from_values(PackedLogical::Date, &days)),
        Column::Xor(XorFloatColumn::from_values(&roots)),
        Column::Float64(prices),
        Column::Bool(flags),
        Column::Utf8(strings),
    ];
    let fields = ["mode", "qty", "day", "ratio", "price", "flag", "note"]
        .iter()
        .zip(&columns)
        .map(|(name, col)| Field::new(*name, col.data_type()))
        .collect();
    Batch::try_new(Schema::new(fields), columns).expect("generated columns are equal length")
}

/// One to three batches of [`every_encoding`] and their partition payload.
fn random_partition(seed: i64) -> (Vec<Batch>, Vec<u8>) {
    let mut rng = TestRng::for_case(seed as u64);
    let count = 1 + rng.below(3) as usize;
    let batches: Vec<Batch> = (0..count)
        .map(|_| {
            let rows = rng.below(40) as usize;
            every_encoding(&mut rng, rows)
        })
        .collect();
    let payload = encode_partition(&batches).to_vec();
    (batches, payload)
}

fn frame_len(batch: &Batch) -> usize {
    let mut frame = Vec::new();
    encode_batch_into(batch, &mut frame);
    frame.len()
}

/// Offsets in a partition payload of each batch's row count and of each
/// dictionary's entry count. A column's payload depends on the column
/// alone, so its length is a one-column frame's minus that frame's header.
fn count_offsets(batches: &[Batch]) -> (Vec<usize>, Vec<usize>) {
    let header = |fields: &[Field]| 16 + fields.iter().map(|f| 5 + f.name.len()).sum::<usize>();
    let (mut rows, mut dicts) = (Vec::new(), Vec::new());
    let mut start = 4; // past the batch count
    for batch in batches {
        rows.push(start + 8); // past the magic and the column count
        let mut at = start + header(batch.schema().fields());
        for (field, col) in batch.schema().fields().iter().zip(batch.columns()) {
            if matches!(col, Column::Dict(_)) {
                dicts.push(at + 1); // past the encoding tag
            }
            let alone =
                Batch::try_new(Schema::new(vec![field.clone()]), vec![col.clone()]).unwrap();
            at += frame_len(&alone) - header(std::slice::from_ref(field));
        }
        start += frame_len(batch);
    }
    (rows, dicts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A partition of every encoding decodes to its batches, and every
    /// strict prefix of it is a typed error.
    #[test]
    fn every_truncation_of_a_partition_is_a_typed_error(seed in any::<i64>()) {
        let (batches, payload) = random_partition(seed);
        prop_assert_eq!(decode_checked(&payload, bytes_bound(payload.len())), Some(batches));
        for cut in 0..payload.len() {
            let decoded = decode_checked(&payload[..cut], bytes_bound(cut));
            prop_assert!(decoded.is_none(), "the prefix of {cut}/{} bytes decoded", payload.len());
        }
    }

    /// Flipped and inserted bytes decode or fail cleanly. A flip may leave
    /// a plausible row count, which a zero-width column expands to.
    #[test]
    fn flipped_and_inserted_bytes_decode_or_fail_cleanly(seed in any::<i64>()) {
        let (_, payload) = random_partition(seed);
        let mut rng = TestRng::for_case(!seed as u64);
        for _ in 0..64 {
            let mut bad = payload.clone();
            if rng.below(2) == 0 {
                for _ in 0..1 + rng.below(4) {
                    let at = rng.below(bad.len() as u64) as usize;
                    bad[at] ^= 1 + rng.below(255) as u8;
                }
            } else {
                let at = rng.below(bad.len() as u64 + 1) as usize;
                for _ in 0..1 + rng.below(4) {
                    bad.insert(at, rng.next_u64() as u8);
                }
            }
            decode_checked(&bad, bytes_bound(bad.len()).max(ZERO_WIDTH_BOUND));
        }
    }

    /// Batch, row and dictionary counts overwritten with huge values are
    /// rejected before they size an allocation.
    #[test]
    fn huge_counts_are_rejected_before_they_size_an_allocation(seed in any::<i64>()) {
        let (batches, payload) = random_partition(seed);
        let (rows, dicts) = count_offsets(&batches);
        let mut cases: Vec<(usize, Vec<u8>)> = Vec::new();
        for huge in [u32::MAX, 1 << 31, payload.len() as u32] {
            cases.push((0, huge.to_be_bytes().to_vec()));
        }
        for &at in &rows {
            for huge in [u64::MAX, 1 << 40, u64::from(u32::MAX)] {
                cases.push((at, huge.to_be_bytes().to_vec()));
            }
        }
        for &at in &dicts {
            for huge in [u32::MAX, 1 << 30] {
                cases.push((at, huge.to_be_bytes().to_vec()));
            }
        }
        prop_assert_eq!(dicts.len(), batches.len(), "every batch has a dictionary");
        for (at, huge) in cases {
            let mut bad = payload.clone();
            bad[at..at + huge.len()].copy_from_slice(&huge);
            let decoded = decode_checked(&bad, bytes_bound(bad.len()));
            prop_assert!(decoded.is_none(), "the count at {at} set to {huge:?} decoded");
        }
    }
}
