//! Compressed column encodings: dictionary strings, bit-packed integers,
//! and XOR-compressed floats.
//!
//! Every encoding is *lossless* over the logical column it represents and
//! carries enough metadata to decode without external context:
//!
//! * [`DictColumn`] — logical `Utf8`. Row values are `u32` codes into a
//!   **sorted, deduplicated** dictionary, so code order equals lexicographic
//!   order and equality/ordering kernels can work on codes directly. The
//!   dictionary lives behind an `Arc`: slicing, filtering and scattering a
//!   dictionary column shares the dictionary instead of copying it, and
//!   `Arc::ptr_eq` lets kernels detect "same dictionary" in O(1).
//! * [`PackedIntColumn`] — logical `Int64` or `Date`. Values are stored as
//!   `value - base` deltas bit-packed at a fixed width, giving O(1) random
//!   access. A width of 0 encodes an all-equal column in one `i64`.
//! * [`XorFloatColumn`] — logical `Float64`. Gorilla-style XOR compression
//!   of consecutive IEEE-754 bit patterns. Sequential access only: kernels
//!   must decode it once per batch (see `Column::decoded`), never index it
//!   row-by-row.
//!
//! The `encode_*` constructors are pure functions of the input values, so
//! re-encoding a decoded column reproduces identical bytes — the wire
//! format's byte-exact round-trip property depends on this.

use std::sync::Arc;

// ---------------------------------------------------------------------------
// Bit-level primitives
// ---------------------------------------------------------------------------

/// Append-only bit stream over `u64` words, LSB-first within each word.
/// Unwritten trailing bits are always zero, which keeps serialisation of a
/// partially-filled last word deterministic.
#[derive(Debug, Default)]
pub struct BitWriter {
    words: Vec<u64>,
    bits: u64,
}

impl BitWriter {
    pub fn new() -> Self {
        BitWriter { words: Vec::new(), bits: 0 }
    }

    /// Append the low `width` bits of `value`. `width` must be ≤ 64 and
    /// `value` must already be masked to `width` bits.
    pub fn put(&mut self, value: u64, width: u8) {
        debug_assert!(width as u32 <= 64);
        debug_assert!(width == 64 || value < (1u64 << width));
        if width == 0 {
            return;
        }
        let word = (self.bits / 64) as usize;
        let offset = (self.bits % 64) as u32;
        if word == self.words.len() {
            self.words.push(0);
        }
        self.words[word] |= value << offset;
        if offset + width as u32 > 64 {
            self.words.push(value >> (64 - offset));
        }
        self.bits += width as u64;
    }

    pub fn finish(self) -> (Vec<u64>, u64) {
        (self.words, self.bits)
    }
}

/// Bounds-checked reader over a bit stream written by [`BitWriter`].
#[derive(Debug)]
pub struct BitReader<'a> {
    words: &'a [u64],
    bits: u64,
    cursor: u64,
}

impl<'a> BitReader<'a> {
    pub fn new(words: &'a [u64], bits: u64) -> Self {
        BitReader { words, bits, cursor: 0 }
    }

    /// Read `width` bits, or `None` if the stream is exhausted. Never
    /// panics on corrupt lengths.
    pub fn take(&mut self, width: u8) -> Option<u64> {
        if width == 0 {
            return Some(0);
        }
        if self.cursor + width as u64 > self.bits {
            return None;
        }
        let word = (self.cursor / 64) as usize;
        let offset = (self.cursor % 64) as u32;
        let mut value = *self.words.get(word)? >> offset;
        if offset + width as u32 > 64 {
            value |= self.words.get(word + 1)? << (64 - offset);
        }
        self.cursor += width as u64;
        Some(value & mask(width))
    }
}

/// Bit mask of the low `width` bits (`width` ≤ 64).
pub fn mask(width: u8) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// Minimum width able to represent every value in `0..=delta`.
pub fn width_for(delta: u64) -> u8 {
    (64 - delta.leading_zeros()) as u8
}

/// Random access into a packed stream laid out by repeated
/// `BitWriter::put(value, width)` calls of one fixed width.
fn packed_get(words: &[u64], width: u8, index: usize) -> u64 {
    if width == 0 {
        return 0;
    }
    let bit = index as u64 * width as u64;
    let word = (bit / 64) as usize;
    let offset = (bit % 64) as u32;
    let mut value = words[word] >> offset;
    if offset + width as u32 > 64 {
        value |= words[word + 1] << (64 - offset);
    }
    value & mask(width)
}

// ---------------------------------------------------------------------------
// Dictionary-encoded strings
// ---------------------------------------------------------------------------

/// Logical `Utf8` column stored as codes into a sorted dictionary.
#[derive(Debug, Clone)]
pub struct DictColumn {
    /// One code per row; every code is `< values.len()`.
    pub codes: Vec<u32>,
    /// Sorted, strictly-deduplicated dictionary. Shared across slices,
    /// filters and scatters of the same source column.
    pub values: Arc<Vec<String>>,
}

impl DictColumn {
    /// Dictionary-encode a plain string column. The dictionary is sorted
    /// and deduplicated, so equal inputs always produce identical output.
    pub fn from_plain(strings: &[String]) -> Self {
        let mut values: Vec<String> = strings.to_vec();
        values.sort_unstable();
        values.dedup();
        let codes = strings
            .iter()
            .map(|s| values.binary_search(s).expect("value present in its own dictionary") as u32)
            .collect();
        DictColumn { codes, values: Arc::new(values) }
    }

    /// Assemble from already-validated parts (wire decode). The caller must
    /// have checked that `values` is strictly ascending and every code is
    /// in range.
    pub fn from_parts(codes: Vec<u32>, values: Arc<Vec<String>>) -> Self {
        DictColumn { codes, values }
    }

    pub fn len(&self) -> usize {
        self.codes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// The string a row decodes to.
    pub fn str_at(&self, row: usize) -> &str {
        &self.values[self.codes[row] as usize]
    }

    /// Decode into a plain string vector.
    pub fn to_plain(&self) -> Vec<String> {
        self.codes.iter().map(|&c| self.values[c as usize].clone()).collect()
    }

    /// Bit width of a packed code for a dictionary of this size.
    pub fn code_width(&self) -> u8 {
        width_for((self.values.len() as u64).saturating_sub(1))
    }

    /// Whether two dictionary columns share the same dictionary allocation
    /// (codes are then directly comparable).
    pub fn same_dict(&self, other: &DictColumn) -> bool {
        Arc::ptr_eq(&self.values, &other.values)
    }

    /// Encoded in-memory footprint in bytes: the codes plus the whole
    /// dictionary.
    pub fn memory_bytes(&self) -> usize {
        self.codes_bytes() + self.dictionary_bytes()
    }

    /// Footprint of the codes alone.
    pub fn codes_bytes(&self) -> usize {
        4 * self.codes.len()
    }

    /// Footprint of the dictionary alone, which slices of one column share.
    pub fn dictionary_bytes(&self) -> usize {
        self.values.iter().map(|v| v.len() + 4).sum()
    }
}

// ---------------------------------------------------------------------------
// Bit-packed integers
// ---------------------------------------------------------------------------

/// The logical type a [`PackedIntColumn`] decodes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PackedLogical {
    Int64,
    Date,
}

/// Logical `Int64`/`Date` column stored as `base + delta` with fixed-width
/// bit-packed deltas. O(1) random access.
#[derive(Debug, Clone)]
pub struct PackedIntColumn {
    pub logical: PackedLogical,
    pub base: i64,
    pub width: u8,
    len: usize,
    words: Vec<u64>,
}

impl PackedIntColumn {
    /// Pack `values` at the minimal width (`base` = min value). Returns the
    /// canonical packing: a pure function of the values, so decode+re-encode
    /// is bit-identical.
    pub fn from_values(logical: PackedLogical, values: &[i64]) -> Self {
        let base = values.iter().copied().min().unwrap_or(0);
        let max = values.iter().copied().max().unwrap_or(0);
        // The spread can exceed i64 (e.g. MIN..MAX); compute it in u64.
        let delta = (max as i128 - base as i128) as u64;
        let width = width_for(delta);
        Self::pack(logical, base, width, values)
    }

    /// Pack `values` at a caller-chosen `base`/`width` (every value must
    /// satisfy `0 <= value - base < 2^width`). Used by filter/take/scatter
    /// to keep a column's packing stable across row-subset operations.
    pub fn pack(logical: PackedLogical, base: i64, width: u8, values: &[i64]) -> Self {
        let mut w = BitWriter::new();
        for &v in values {
            w.put((v as i128 - base as i128) as u64 & mask(width), width);
        }
        let (words, _) = w.finish();
        PackedIntColumn { logical, base, width, len: values.len(), words }
    }

    /// Assemble from wire parts. The caller validates `width <= 64` and,
    /// for `Date`, that every decoded value fits in `i32`.
    pub fn from_parts(
        logical: PackedLogical,
        base: i64,
        width: u8,
        len: usize,
        words: Vec<u64>,
    ) -> Self {
        PackedIntColumn { logical, base, width, len, words }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The logical value at `row` (O(1)).
    pub fn get(&self, row: usize) -> i64 {
        debug_assert!(row < self.len);
        (self.base as i128 + packed_get(&self.words, self.width, row) as i128) as i64
    }

    /// Sequentially iterate the logical values.
    pub fn iter(&self) -> impl Iterator<Item = i64> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    pub fn to_vec(&self) -> Vec<i64> {
        self.iter().collect()
    }

    /// The packed words backing this column (for serialisation).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Encoded in-memory footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        8 * self.words.len() + 16
    }
}

// ---------------------------------------------------------------------------
// XOR-compressed floats
// ---------------------------------------------------------------------------

/// Logical `Float64` column compressed by XOR-ing consecutive bit patterns
/// (the Gorilla scheme): repeats cost one bit, values sharing a "meaningful
/// bits" window with their predecessor cost only that window.
#[derive(Debug, Clone)]
pub struct XorFloatColumn {
    len: usize,
    bits: u64,
    words: Vec<u64>,
}

impl XorFloatColumn {
    /// Compress `values`. A pure function of the input bit patterns
    /// (NaN payloads and signed zeros round-trip exactly).
    pub fn from_values(values: &[f64]) -> Self {
        let mut w = BitWriter::new();
        let mut prev = 0u64;
        let mut window: Option<(u8, u8)> = None; // (leading, meaningful)
        for (i, &v) in values.iter().enumerate() {
            let bits = v.to_bits();
            if i == 0 {
                w.put(bits, 64);
                prev = bits;
                continue;
            }
            let x = bits ^ prev;
            prev = bits;
            if x == 0 {
                w.put(0, 1);
                continue;
            }
            w.put(1, 1);
            let lead = x.leading_zeros().min(63) as u8;
            let trail = x.trailing_zeros() as u8;
            let fits_window = window
                .map(|(wl, wm)| {
                    let wt = 64 - wl - wm;
                    lead >= wl && trail >= wt
                })
                .unwrap_or(false);
            if fits_window {
                let (wl, wm) = window.expect("window checked above");
                let wt = 64 - wl - wm;
                w.put(0, 1);
                w.put(x >> wt, wm);
            } else {
                let meaningful = 64 - lead - trail;
                w.put(1, 1);
                w.put(lead as u64, 6);
                w.put(meaningful as u64 - 1, 6);
                w.put(x >> trail, meaningful);
                window = Some((lead, meaningful));
            }
        }
        let (words, bits) = w.finish();
        XorFloatColumn { len: values.len(), bits, words }
    }

    /// Assemble from wire parts. Call [`XorFloatColumn::validate`] before
    /// trusting the stream.
    pub fn from_parts(len: usize, bits: u64, words: Vec<u64>) -> Self {
        XorFloatColumn { len, bits, words }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn bit_len(&self) -> u64 {
        self.bits
    }

    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Decode the full column. O(n); the only supported access pattern.
    pub fn to_vec(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.len);
        let mut it = self.decoder();
        for _ in 0..self.len {
            // `validate` ran at every untrusted boundary, so exhaustion here
            // would be an internal logic error; fail soft with zeros rather
            // than panic.
            out.push(it.next().unwrap_or(0.0));
        }
        out
    }

    /// The value at row `i` by walking the stream — O(i). Exists only so
    /// row-at-a-time fallbacks stay correct; batch kernels must decode once
    /// with [`XorFloatColumn::to_vec`] instead.
    pub fn get_slow(&self, i: usize) -> f64 {
        self.decoder().nth(i).unwrap_or(0.0)
    }

    /// Whether the stream cleanly decodes exactly `len` values. Used at the
    /// wire boundary so corrupt frames surface as typed errors, not garbage.
    pub fn validate(&self) -> bool {
        let mut it = self.decoder();
        for _ in 0..self.len {
            if it.next().is_none() {
                return false;
            }
        }
        true
    }

    fn decoder(&self) -> XorDecoder<'_> {
        XorDecoder {
            reader: BitReader::new(&self.words, self.bits),
            first: true,
            prev: 0,
            window: (0, 64),
        }
    }

    /// Encoded in-memory footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        8 * self.words.len() + 16
    }
}

struct XorDecoder<'a> {
    reader: BitReader<'a>,
    first: bool,
    prev: u64,
    /// (leading, meaningful) of the current window.
    window: (u8, u8),
}

impl Iterator for XorDecoder<'_> {
    type Item = f64;

    fn next(&mut self) -> Option<f64> {
        if self.first {
            self.first = false;
            self.prev = self.reader.take(64)?;
            return Some(f64::from_bits(self.prev));
        }
        if self.reader.take(1)? == 0 {
            return Some(f64::from_bits(self.prev));
        }
        if self.reader.take(1)? == 1 {
            let lead = self.reader.take(6)? as u8;
            let meaningful = self.reader.take(6)? as u8 + 1;
            if lead as u32 + meaningful as u32 > 64 {
                return None;
            }
            self.window = (lead, meaningful);
        }
        let (lead, meaningful) = self.window;
        let trail = 64 - lead - meaningful;
        let x = self.reader.take(meaningful)? << trail;
        self.prev ^= x;
        Some(f64::from_bits(self.prev))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_writer_reader_roundtrip_across_word_boundaries() {
        let mut w = BitWriter::new();
        let values: Vec<(u64, u8)> = (1..=64u8).map(|width| (mask(width), width)).collect();
        for &(v, width) in &values {
            w.put(v, width);
        }
        let (words, bits) = w.finish();
        let mut r = BitReader::new(&words, bits);
        for &(v, width) in &values {
            assert_eq!(r.take(width), Some(v), "width {width}");
        }
        assert_eq!(r.take(1), None, "stream exhausted");
    }

    #[test]
    fn dict_is_sorted_and_codes_resolve() {
        let strings: Vec<String> =
            ["MAIL", "AIR", "MAIL", "SHIP", "AIR"].iter().map(|s| s.to_string()).collect();
        let d = DictColumn::from_plain(&strings);
        assert_eq!(*d.values, vec!["AIR".to_string(), "MAIL".into(), "SHIP".into()]);
        assert_eq!(d.to_plain(), strings);
        assert_eq!(d.str_at(3), "SHIP");
        assert_eq!(d.code_width(), 2);
    }

    #[test]
    fn packed_int_extremes_roundtrip() {
        for values in [
            vec![],
            vec![42],
            vec![7, 7, 7, 7],
            vec![i64::MIN, i64::MAX, 0, -1],
            (0..1000).map(|i| i * 3 - 500).collect::<Vec<_>>(),
        ] {
            let p = PackedIntColumn::from_values(PackedLogical::Int64, &values);
            assert_eq!(p.to_vec(), values);
            for (i, &v) in values.iter().enumerate() {
                assert_eq!(p.get(i), v);
            }
        }
    }

    #[test]
    fn packed_all_equal_is_width_zero() {
        let p = PackedIntColumn::from_values(PackedLogical::Date, &[9131, 9131, 9131]);
        assert_eq!(p.width, 0);
        assert_eq!(p.words().len(), 0);
        assert_eq!(p.to_vec(), vec![9131, 9131, 9131]);
    }

    #[test]
    fn xor_float_roundtrips_edge_patterns() {
        for values in [
            vec![],
            vec![1.5],
            vec![0.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY],
            vec![3.25; 100],
            (0..500).map(|i| (i % 13) as f64 * 0.01).collect::<Vec<_>>(),
        ] {
            let x = XorFloatColumn::from_values(&values);
            assert!(x.validate());
            let back = x.to_vec();
            assert_eq!(back.len(), values.len());
            for (a, b) in values.iter().zip(&back) {
                assert_eq!(a.to_bits(), b.to_bits(), "bit-exact including NaN payloads");
            }
        }
    }

    #[test]
    fn xor_float_compresses_repetitive_data() {
        // Runs of equal values cost one bit each; small-integer floats share
        // their trailing-zero window. Both shapes must compress well.
        let runs: Vec<f64> = (0..4096).map(|i| ((i / 512) as f64) * 0.25).collect();
        let x = XorFloatColumn::from_values(&runs);
        assert!(x.memory_bytes() < 8 * runs.len() / 8, "runs compress at least 8x");
        let quantities: Vec<f64> = (0..4096).map(|i| (i % 50 + 1) as f64).collect();
        let x = XorFloatColumn::from_values(&quantities);
        assert!(x.memory_bytes() < 8 * quantities.len() / 2, "small ints compress at least 2x");
    }

    #[test]
    fn xor_truncated_stream_fails_validation() {
        let values: Vec<f64> = (0..64).map(|i| i as f64 * 1.7).collect();
        let x = XorFloatColumn::from_values(&values);
        let cut = XorFloatColumn::from_parts(x.len(), x.bit_len() / 2, x.words().to_vec());
        assert!(!cut.validate());
    }
}
