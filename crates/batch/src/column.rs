//! A single column of values.

use crate::datatype::{DataType, ScalarValue};
use crate::encoding::{DictColumn, PackedIntColumn, PackedLogical, XorFloatColumn};
use quokka_common::rng::{fnv1a, mix64};
use quokka_common::{QuokkaError, Result};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// A contiguous, homogeneously-typed column of values.
///
/// The five plain variants are simple `Vec`s; the engine cares about the
/// relational semantics and the byte volume of data movement, not about
/// SIMD-level layout. The three encoded variants (`Dict`, `Packed`, `Xor`)
/// are compressed *representations* of the plain types — `data_type()`
/// always reports the logical type, and every kernel either computes on the
/// encoded form directly or decodes once per batch via [`Column::decoded`].
///
/// Dispatch rules:
/// * `Dict` (logical Utf8) and `Packed` (logical Int64/Date) support O(1)
///   random access and are first-class in the hot paths (hashing, keys,
///   comparisons, filters).
/// * `Xor` (logical Float64) is sequential-only; any kernel that needs
///   random access must decode it once, and row-subset operations re-encode
///   their output so compression survives the pipeline.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Column {
    Int64(Vec<i64>),
    Float64(Vec<f64>),
    Utf8(Vec<String>),
    Bool(Vec<bool>),
    Date(Vec<i32>),
    /// Dictionary-encoded strings: u32 codes into a sorted dictionary.
    Dict(DictColumn),
    /// Bit-packed integers: `base + fixed-width delta`, logical Int64/Date.
    Packed(PackedIntColumn),
    /// XOR-compressed floats (Gorilla); sequential access only.
    Xor(XorFloatColumn),
}

/// Columns compare by *logical* content: a dictionary column equals the
/// plain string column it decodes to. Plain same-type comparisons keep Vec
/// semantics (so `NaN != NaN`, exactly as before encodings existed).
impl PartialEq for Column {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Column::Int64(a), Column::Int64(b)) => a == b,
            (Column::Float64(a), Column::Float64(b)) => a == b,
            (Column::Utf8(a), Column::Utf8(b)) => a == b,
            (Column::Bool(a), Column::Bool(b)) => a == b,
            (Column::Date(a), Column::Date(b)) => a == b,
            (Column::Dict(a), Column::Dict(b)) if a.same_dict(b) => a.codes == b.codes,
            (a, b) => {
                a.data_type() == b.data_type() && *a.decoded().as_ref() == *b.decoded().as_ref()
            }
        }
    }
}

impl Column {
    pub fn data_type(&self) -> DataType {
        match self {
            Column::Int64(_) => DataType::Int64,
            Column::Float64(_) => DataType::Float64,
            Column::Utf8(_) => DataType::Utf8,
            Column::Bool(_) => DataType::Bool,
            Column::Date(_) => DataType::Date,
            Column::Dict(_) => DataType::Utf8,
            Column::Packed(p) => match p.logical {
                PackedLogical::Int64 => DataType::Int64,
                PackedLogical::Date => DataType::Date,
            },
            Column::Xor(_) => DataType::Float64,
        }
    }

    pub fn len(&self) -> usize {
        match self {
            Column::Int64(v) => v.len(),
            Column::Float64(v) => v.len(),
            Column::Utf8(v) => v.len(),
            Column::Bool(v) => v.len(),
            Column::Date(v) => v.len(),
            Column::Dict(d) => d.len(),
            Column::Packed(p) => p.len(),
            Column::Xor(x) => x.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether this column is stored in a compressed encoding.
    pub fn is_encoded(&self) -> bool {
        matches!(self, Column::Dict(_) | Column::Packed(_) | Column::Xor(_))
    }

    /// The encoding this column is stored in, for metrics and benchmarks.
    pub fn encoding_name(&self) -> &'static str {
        match self {
            Column::Dict(_) => "dict",
            Column::Packed(_) => "packed",
            Column::Xor(_) => "xor",
            _ => "plain",
        }
    }

    /// An empty column of the given type.
    pub fn empty(data_type: DataType) -> Column {
        match data_type {
            DataType::Int64 => Column::Int64(Vec::new()),
            DataType::Float64 => Column::Float64(Vec::new()),
            DataType::Utf8 => Column::Utf8(Vec::new()),
            DataType::Bool => Column::Bool(Vec::new()),
            DataType::Date => Column::Date(Vec::new()),
        }
    }

    /// Decode to the plain representation: borrowed for plain columns,
    /// owned for encoded ones. Kernels without an encoding-aware fast path
    /// call this once per batch — decode-on-demand, never per row.
    pub fn decoded(&self) -> Cow<'_, Column> {
        match self {
            Column::Dict(d) => Cow::Owned(Column::Utf8(d.to_plain())),
            Column::Packed(p) => Cow::Owned(match p.logical {
                PackedLogical::Int64 => Column::Int64(p.to_vec()),
                PackedLogical::Date => Column::Date(p.iter().map(|v| v as i32).collect()),
            }),
            Column::Xor(x) => Cow::Owned(Column::Float64(x.to_vec())),
            plain => Cow::Borrowed(plain),
        }
    }

    /// Replace an encoded representation with its plain decoding in place.
    pub fn make_plain(&mut self) {
        if self.is_encoded() {
            *self = self.decoded().into_owned();
        }
    }

    /// Re-encode into the most compact representation, or return a plain
    /// clone when no encoding is strictly smaller. Already-encoded columns
    /// and Bools pass through unchanged (Bools are bit-packed on the wire
    /// instead).
    pub fn encode_auto(&self) -> Column {
        match self {
            Column::Utf8(v) => {
                let d = DictColumn::from_plain(v);
                if d.memory_bytes() < self.byte_size() {
                    Column::Dict(d)
                } else {
                    self.clone()
                }
            }
            Column::Int64(v) => {
                let p = PackedIntColumn::from_values(PackedLogical::Int64, v);
                if p.memory_bytes() < v.len() * 8 {
                    Column::Packed(p)
                } else {
                    self.clone()
                }
            }
            Column::Date(v) => {
                let as_i64: Vec<i64> = v.iter().map(|&x| x as i64).collect();
                let p = PackedIntColumn::from_values(PackedLogical::Date, &as_i64);
                if p.memory_bytes() < v.len() * 4 {
                    Column::Packed(p)
                } else {
                    self.clone()
                }
            }
            Column::Float64(v) => xor_or_plain_ref(v),
            other => other.clone(),
        }
    }

    /// The value at row `i`. O(1) for every representation except `Xor`,
    /// which walks its stream (prefer [`Column::decoded`] in loops).
    pub fn get(&self, i: usize) -> ScalarValue {
        match self {
            Column::Int64(v) => ScalarValue::Int64(v[i]),
            Column::Float64(v) => ScalarValue::Float64(v[i]),
            Column::Utf8(v) => ScalarValue::Utf8(v[i].clone()),
            Column::Bool(v) => ScalarValue::Bool(v[i]),
            Column::Date(v) => ScalarValue::Date(v[i]),
            Column::Dict(d) => ScalarValue::Utf8(d.str_at(i).to_string()),
            Column::Packed(p) => match p.logical {
                PackedLogical::Int64 => ScalarValue::Int64(p.get(i)),
                PackedLogical::Date => ScalarValue::Date(p.get(i) as i32),
            },
            Column::Xor(x) => ScalarValue::Float64(x.get_slow(i)),
        }
    }

    /// Build a column of `data_type` from scalar values, coercing compatible
    /// numeric scalars (Int64 <-> Float64) where needed.
    pub fn from_scalars(data_type: DataType, values: &[ScalarValue]) -> Result<Column> {
        let mut col = Column::empty(data_type);
        for v in values {
            col.push(v)?;
        }
        Ok(col)
    }

    /// Append one scalar, coercing Int64 <-> Float64. Appending to an
    /// encoded column decodes it in place first.
    pub fn push(&mut self, value: &ScalarValue) -> Result<()> {
        self.make_plain();
        match (self, value) {
            (Column::Int64(v), ScalarValue::Int64(x)) => v.push(*x),
            (Column::Int64(v), ScalarValue::Float64(x)) => v.push(*x as i64),
            (Column::Float64(v), ScalarValue::Float64(x)) => v.push(*x),
            (Column::Float64(v), ScalarValue::Int64(x)) => v.push(*x as f64),
            (Column::Utf8(v), ScalarValue::Utf8(x)) => v.push(x.clone()),
            (Column::Bool(v), ScalarValue::Bool(x)) => v.push(*x),
            (Column::Date(v), ScalarValue::Date(x)) => v.push(*x),
            (Column::Date(v), ScalarValue::Int64(x)) => v.push(*x as i32),
            (col, val) => {
                return Err(QuokkaError::TypeError(format!(
                    "cannot push {:?} into {} column",
                    val,
                    col.data_type()
                )))
            }
        }
        Ok(())
    }

    /// Append row `row` of `src` to this column without materializing a
    /// `ScalarValue`. Both columns must have the same logical data type;
    /// encoded sources are read through their encoding.
    pub fn push_from(&mut self, src: &Column, row: usize) -> Result<()> {
        self.make_plain();
        match (self, src) {
            (Column::Int64(out), Column::Int64(v)) => out.push(v[row]),
            (Column::Float64(out), Column::Float64(v)) => out.push(v[row]),
            (Column::Utf8(out), Column::Utf8(v)) => out.push(v[row].clone()),
            (Column::Bool(out), Column::Bool(v)) => out.push(v[row]),
            (Column::Date(out), Column::Date(v)) => out.push(v[row]),
            (Column::Utf8(out), Column::Dict(d)) => out.push(d.str_at(row).to_string()),
            (Column::Int64(out), Column::Packed(p)) if p.logical == PackedLogical::Int64 => {
                out.push(p.get(row))
            }
            (Column::Date(out), Column::Packed(p)) if p.logical == PackedLogical::Date => {
                out.push(p.get(row) as i32)
            }
            (Column::Float64(out), Column::Xor(x)) => out.push(x.get_slow(row)),
            (out, src) => {
                return Err(QuokkaError::TypeError(format!(
                    "cannot append {} row to {} column",
                    src.data_type(),
                    out.data_type()
                )))
            }
        }
        Ok(())
    }

    /// A column of `len` default values ("zero" of each type), used to pad
    /// the build side of unmatched left-join rows.
    pub fn default_of(data_type: DataType, len: usize) -> Column {
        match data_type {
            DataType::Int64 => Column::Int64(vec![0; len]),
            DataType::Float64 => Column::Float64(vec![0.0; len]),
            DataType::Utf8 => Column::Utf8(vec![String::new(); len]),
            DataType::Bool => Column::Bool(vec![false; len]),
            DataType::Date => Column::Date(vec![0; len]),
        }
    }

    /// Keep the rows where `mask` is true. `mask.len()` must equal
    /// `self.len()`. Encoded columns stay encoded: dictionary columns keep
    /// their (shared) dictionary, packed columns keep their base/width, and
    /// XOR columns are re-compressed from the surviving rows.
    pub fn filter(&self, mask: &[bool]) -> Column {
        debug_assert_eq!(mask.len(), self.len());
        fn keep<T: Clone>(values: &[T], mask: &[bool]) -> Vec<T> {
            values
                .iter()
                .zip(mask.iter())
                .filter_map(|(v, &m)| if m { Some(v.clone()) } else { None })
                .collect()
        }
        match self {
            Column::Int64(v) => Column::Int64(keep(v, mask)),
            Column::Float64(v) => Column::Float64(keep(v, mask)),
            Column::Utf8(v) => Column::Utf8(keep(v, mask)),
            Column::Bool(v) => Column::Bool(keep(v, mask)),
            Column::Date(v) => Column::Date(keep(v, mask)),
            Column::Dict(d) => {
                Column::Dict(DictColumn::from_parts(keep(&d.codes, mask), d.values.clone()))
            }
            Column::Packed(p) => {
                let kept: Vec<i64> = (0..p.len())
                    .zip(mask.iter())
                    .filter_map(|(i, &m)| if m { Some(p.get(i)) } else { None })
                    .collect();
                Column::Packed(PackedIntColumn::pack(p.logical, p.base, p.width, &kept))
            }
            Column::Xor(x) => xor_or_plain(keep(&x.to_vec(), mask)),
        }
    }

    /// Gather the rows at `indices` (indices may repeat or be out of order).
    /// Preserves encodings the same way [`Column::filter`] does.
    pub fn take(&self, indices: &[usize]) -> Column {
        fn gather<T: Clone>(values: &[T], indices: &[usize]) -> Vec<T> {
            indices.iter().map(|&i| values[i].clone()).collect()
        }
        match self {
            Column::Int64(v) => Column::Int64(gather(v, indices)),
            Column::Float64(v) => Column::Float64(gather(v, indices)),
            Column::Utf8(v) => Column::Utf8(gather(v, indices)),
            Column::Bool(v) => Column::Bool(gather(v, indices)),
            Column::Date(v) => Column::Date(gather(v, indices)),
            Column::Dict(d) => {
                Column::Dict(DictColumn::from_parts(gather(&d.codes, indices), d.values.clone()))
            }
            Column::Packed(p) => {
                let taken: Vec<i64> = indices.iter().map(|&i| p.get(i)).collect();
                Column::Packed(PackedIntColumn::pack(p.logical, p.base, p.width, &taken))
            }
            Column::Xor(x) => xor_or_plain(gather(&x.to_vec(), indices)),
        }
    }

    /// Rows `start .. start + len`.
    pub fn slice(&self, start: usize, len: usize) -> Column {
        fn cut<T: Clone>(values: &[T], start: usize, len: usize) -> Vec<T> {
            values[start..start + len].to_vec()
        }
        match self {
            Column::Int64(v) => Column::Int64(cut(v, start, len)),
            Column::Float64(v) => Column::Float64(cut(v, start, len)),
            Column::Utf8(v) => Column::Utf8(cut(v, start, len)),
            Column::Bool(v) => Column::Bool(cut(v, start, len)),
            Column::Date(v) => Column::Date(cut(v, start, len)),
            Column::Dict(d) => {
                Column::Dict(DictColumn::from_parts(cut(&d.codes, start, len), d.values.clone()))
            }
            Column::Packed(p) => {
                let vals: Vec<i64> = (start..start + len).map(|i| p.get(i)).collect();
                Column::Packed(PackedIntColumn::pack(p.logical, p.base, p.width, &vals))
            }
            Column::Xor(x) => xor_or_plain(cut(&x.to_vec(), start, len)),
        }
    }

    /// [`slice`](Column::slice) for every `(start, len)` range, equal piece
    /// for piece. An XOR column decodes once for all the ranges instead of
    /// once per range.
    pub fn slices(&self, ranges: &[(usize, usize)]) -> Vec<Column> {
        match self {
            Column::Xor(x) => {
                let values = x.to_vec();
                ranges
                    .iter()
                    .map(|&(start, len)| xor_or_plain_ref(&values[start..start + len]))
                    .collect()
            }
            other => ranges.iter().map(|&(start, len)| other.slice(start, len)).collect(),
        }
    }

    /// Concatenate columns of the same logical type. Dictionary columns
    /// sharing one dictionary concatenate without decoding; any other
    /// encoded input decodes to plain (concatenation crosses encoding
    /// contexts, so the combined packing would have to be recomputed
    /// anyway).
    pub fn concat(columns: &[&Column]) -> Result<Column> {
        let first = columns.first().ok_or_else(|| QuokkaError::internal("concat of 0 columns"))?;
        for col in columns {
            if col.data_type() != first.data_type() {
                return Err(QuokkaError::TypeError(format!(
                    "concat type mismatch: {} vs {}",
                    first.data_type(),
                    col.data_type()
                )));
            }
        }
        if let Column::Dict(head) = first {
            if columns.iter().all(|c| matches!(c, Column::Dict(d) if d.same_dict(head))) {
                let mut codes = Vec::with_capacity(columns.iter().map(|c| c.len()).sum());
                for col in columns {
                    if let Column::Dict(d) = col {
                        codes.extend_from_slice(&d.codes);
                    }
                }
                return Ok(Column::Dict(DictColumn::from_parts(codes, head.values.clone())));
            }
        }
        let mut out = Column::empty(first.data_type());
        for col in columns {
            let plain = col.decoded();
            match (&mut out, plain.as_ref()) {
                (Column::Int64(o), Column::Int64(v)) => o.extend_from_slice(v),
                (Column::Float64(o), Column::Float64(v)) => o.extend_from_slice(v),
                (Column::Utf8(o), Column::Utf8(v)) => o.extend(v.iter().cloned()),
                (Column::Bool(o), Column::Bool(v)) => o.extend_from_slice(v),
                (Column::Date(o), Column::Date(v)) => o.extend_from_slice(v),
                _ => unreachable!("logical type checked above"),
            }
        }
        Ok(out)
    }

    /// Mix this column's row-wise hash into `hashes` (one u64 per row),
    /// used for hash partitioning and hash joins. Int64/Date/Float64 values
    /// that compare equal hash identically so cross-type joins on numeric
    /// keys behave — and every encoded representation hashes bit-identically
    /// to its plain decoding, so a dictionary column on one side of a
    /// shuffle partitions exactly like the plain strings on the other.
    pub fn hash_into(&self, hashes: &mut [u64]) {
        debug_assert_eq!(hashes.len(), self.len());
        match self {
            Column::Int64(v) => {
                for (h, x) in hashes.iter_mut().zip(v) {
                    *h = mix64(*h ^ mix64(*x as u64));
                }
            }
            Column::Date(v) => {
                for (h, x) in hashes.iter_mut().zip(v) {
                    *h = mix64(*h ^ mix64(*x as i64 as u64));
                }
            }
            Column::Float64(v) => {
                for (h, x) in hashes.iter_mut().zip(v) {
                    // Hash the value as i64 when it is integral so that a
                    // Float64 join key equal to an Int64 key hashes the same.
                    let bits = if x.fract() == 0.0 { *x as i64 as u64 } else { x.to_bits() };
                    *h = mix64(*h ^ mix64(bits));
                }
            }
            Column::Utf8(v) => {
                for (h, x) in hashes.iter_mut().zip(v) {
                    *h = mix64(*h ^ fnv1a(x.as_bytes()));
                }
            }
            Column::Bool(v) => {
                for (h, x) in hashes.iter_mut().zip(v) {
                    *h = mix64(*h ^ (*x as u64 + 1));
                }
            }
            Column::Dict(d) => {
                // Hash each dictionary entry once, then fan out over codes.
                let lut: Vec<u64> = d.values.iter().map(|s| fnv1a(s.as_bytes())).collect();
                for (h, &c) in hashes.iter_mut().zip(&d.codes) {
                    *h = mix64(*h ^ lut[c as usize]);
                }
            }
            Column::Packed(p) => {
                for (i, h) in hashes.iter_mut().enumerate() {
                    *h = mix64(*h ^ mix64(p.get(i) as u64));
                }
            }
            Column::Xor(x) => {
                for (h, v) in hashes.iter_mut().zip(x.to_vec()) {
                    let bits = if v.fract() == 0.0 { v as i64 as u64 } else { v.to_bits() };
                    *h = mix64(*h ^ mix64(bits));
                }
            }
        }
    }

    /// The *logical* (decoded) size in bytes — what the column would occupy
    /// as a plain `Vec`. This is the "raw" side of every raw-vs-encoded
    /// metric; [`Column::memory_bytes`] is the encoded side.
    pub fn byte_size(&self) -> usize {
        match self {
            Column::Int64(v) => v.len() * 8,
            Column::Float64(v) => v.len() * 8,
            Column::Date(v) => v.len() * 4,
            Column::Bool(v) => v.len(),
            Column::Utf8(v) => v.iter().map(|s| s.len() + 4).sum(),
            Column::Dict(d) => d.codes.iter().map(|&c| d.values[c as usize].len() + 4).sum(),
            Column::Packed(p) => match p.logical {
                PackedLogical::Int64 => p.len() * 8,
                PackedLogical::Date => p.len() * 4,
            },
            Column::Xor(x) => x.len() * 8,
        }
    }

    /// The encoded in-memory footprint in bytes: what this column actually
    /// costs to hold, ship, or back up. Equal to [`Column::byte_size`] for
    /// plain columns, smaller for encoded ones. Admission control and the
    /// shuffle accounting charge this.
    pub fn memory_bytes(&self) -> usize {
        match self {
            Column::Dict(d) => d.memory_bytes(),
            Column::Packed(p) => p.memory_bytes(),
            Column::Xor(x) => x.memory_bytes(),
            plain => plain.byte_size(),
        }
    }

    /// Borrow as `&[i64]`, failing for other representations.
    pub fn as_i64(&self) -> Result<&[i64]> {
        match self {
            Column::Int64(v) => Ok(v),
            other => {
                Err(QuokkaError::TypeError(format!("expected Int64, got {}", other.describe())))
            }
        }
    }

    /// Borrow as `&[f64]`, failing for other representations.
    pub fn as_f64(&self) -> Result<&[f64]> {
        match self {
            Column::Float64(v) => Ok(v),
            other => {
                Err(QuokkaError::TypeError(format!("expected Float64, got {}", other.describe())))
            }
        }
    }

    /// Borrow as `&[bool]`, failing for other representations.
    pub fn as_bool(&self) -> Result<&[bool]> {
        match self {
            Column::Bool(v) => Ok(v),
            other => {
                Err(QuokkaError::TypeError(format!("expected Bool, got {}", other.describe())))
            }
        }
    }

    /// Borrow as `&[String]`, failing for other representations.
    pub fn as_utf8(&self) -> Result<&[String]> {
        match self {
            Column::Utf8(v) => Ok(v),
            other => {
                Err(QuokkaError::TypeError(format!("expected Utf8, got {}", other.describe())))
            }
        }
    }

    /// Borrow as `&[i32]` (dates), failing for other representations.
    pub fn as_date(&self) -> Result<&[i32]> {
        match self {
            Column::Date(v) => Ok(v),
            other => {
                Err(QuokkaError::TypeError(format!("expected Date, got {}", other.describe())))
            }
        }
    }

    /// The column's values as f64, coercing Int64/Date (used by aggregates
    /// and arithmetic). Encoded numeric columns decode on demand.
    pub fn to_f64_vec(&self) -> Result<Vec<f64>> {
        match self {
            Column::Float64(v) => Ok(v.clone()),
            Column::Int64(v) => Ok(v.iter().map(|&x| x as f64).collect()),
            Column::Date(v) => Ok(v.iter().map(|&x| x as f64).collect()),
            Column::Packed(p) => Ok(p.iter().map(|x| x as f64).collect()),
            Column::Xor(x) => Ok(x.to_vec()),
            other => {
                Err(QuokkaError::TypeError(format!("cannot coerce {} to f64", other.describe())))
            }
        }
    }

    /// Logical type plus encoding, for error messages.
    fn describe(&self) -> String {
        if self.is_encoded() {
            format!("{} ({})", self.data_type(), self.encoding_name())
        } else {
            self.data_type().to_string()
        }
    }
}

/// XOR-compress `values`, or keep them plain when compression would not
/// shrink them (pathological streams can exceed 8 bytes/value).
pub(crate) fn xor_or_plain(values: Vec<f64>) -> Column {
    let x = XorFloatColumn::from_values(&values);
    if x.memory_bytes() < values.len() * 8 {
        Column::Xor(x)
    } else {
        Column::Float64(values)
    }
}

fn xor_or_plain_ref(values: &[f64]) -> Column {
    let x = XorFloatColumn::from_values(values);
    if x.memory_bytes() < values.len() * 8 {
        Column::Xor(x)
    } else {
        Column::Float64(values.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_accessors() {
        let c = Column::Int64(vec![1, 2, 3]);
        assert_eq!(c.len(), 3);
        assert_eq!(c.data_type(), DataType::Int64);
        assert_eq!(c.get(1), ScalarValue::Int64(2));
        assert!(!c.is_empty());
        assert!(Column::empty(DataType::Utf8).is_empty());
    }

    #[test]
    fn filter_take_slice() {
        let c = Column::Utf8(vec!["a".into(), "b".into(), "c".into(), "d".into()]);
        assert_eq!(
            c.filter(&[true, false, true, false]),
            Column::Utf8(vec!["a".into(), "c".into()])
        );
        assert_eq!(c.take(&[3, 3, 0]), Column::Utf8(vec!["d".into(), "d".into(), "a".into()]));
        assert_eq!(c.slice(1, 2), Column::Utf8(vec!["b".into(), "c".into()]));
    }

    #[test]
    fn concat_and_type_mismatch() {
        let a = Column::Int64(vec![1, 2]);
        let b = Column::Int64(vec![3]);
        assert_eq!(Column::concat(&[&a, &b]).unwrap(), Column::Int64(vec![1, 2, 3]));
        let c = Column::Float64(vec![1.0]);
        assert!(Column::concat(&[&a, &c]).is_err());
        assert!(Column::concat(&[]).is_err());
    }

    #[test]
    fn push_coerces_numeric() {
        let mut c = Column::Float64(vec![]);
        c.push(&ScalarValue::Int64(2)).unwrap();
        c.push(&ScalarValue::Float64(1.5)).unwrap();
        assert_eq!(c, Column::Float64(vec![2.0, 1.5]));
        assert!(c.push(&ScalarValue::Utf8("x".into())).is_err());
    }

    #[test]
    fn from_scalars_roundtrip() {
        let vals = vec![ScalarValue::Date(5), ScalarValue::Date(9)];
        let c = Column::from_scalars(DataType::Date, &vals).unwrap();
        assert_eq!(c, Column::Date(vec![5, 9]));
    }

    #[test]
    fn hashing_is_consistent_for_equal_numeric_values() {
        let ints = Column::Int64(vec![42, 7]);
        let floats = Column::Float64(vec![42.0, 7.0]);
        let mut h1 = vec![0u64; 2];
        let mut h2 = vec![0u64; 2];
        ints.hash_into(&mut h1);
        floats.hash_into(&mut h2);
        assert_eq!(h1, h2);
        // and different values produce different hashes
        assert_ne!(h1[0], h1[1]);
    }

    #[test]
    fn byte_size_estimates() {
        assert_eq!(Column::Int64(vec![1, 2]).byte_size(), 16);
        assert_eq!(Column::Date(vec![1, 2, 3]).byte_size(), 12);
        assert_eq!(Column::Bool(vec![true]).byte_size(), 1);
        assert_eq!(Column::Utf8(vec!["ab".into()]).byte_size(), 6);
    }

    #[test]
    fn push_from_appends_typed_rows() {
        let src = Column::Utf8(vec!["x".into(), "y".into()]);
        let mut dst = Column::empty(DataType::Utf8);
        dst.push_from(&src, 1).unwrap();
        dst.push_from(&src, 0).unwrap();
        assert_eq!(dst, Column::Utf8(vec!["y".into(), "x".into()]));
        let mut wrong = Column::empty(DataType::Int64);
        assert!(wrong.push_from(&src, 0).is_err());
    }

    #[test]
    fn default_columns_per_type() {
        assert_eq!(Column::default_of(DataType::Int64, 2), Column::Int64(vec![0, 0]));
        assert_eq!(Column::default_of(DataType::Float64, 1), Column::Float64(vec![0.0]));
        assert_eq!(Column::default_of(DataType::Utf8, 1), Column::Utf8(vec!["".into()]));
        assert_eq!(Column::default_of(DataType::Bool, 1), Column::Bool(vec![false]));
        assert_eq!(Column::default_of(DataType::Date, 1), Column::Date(vec![0]));
    }

    #[test]
    fn typed_accessors() {
        assert!(Column::Int64(vec![1]).as_i64().is_ok());
        assert!(Column::Int64(vec![1]).as_f64().is_err());
        assert_eq!(Column::Int64(vec![1, 2]).to_f64_vec().unwrap(), vec![1.0, 2.0]);
        assert!(Column::Utf8(vec![]).to_f64_vec().is_err());
        assert!(Column::Bool(vec![true]).as_bool().is_ok());
        assert!(Column::Date(vec![1]).as_date().is_ok());
        assert!(Column::Utf8(vec!["a".into()]).as_utf8().is_ok());
    }

    // ----- encoding-aware behaviour -----

    fn dict_col() -> Column {
        Column::Utf8(vec!["MAIL".into(), "AIR".into(), "MAIL".into(), "AIR".into(), "AIR".into()])
            .encode_auto()
    }

    #[test]
    fn encode_auto_picks_each_encoding() {
        assert_eq!(dict_col().encoding_name(), "dict");
        let ints = Column::Int64((0..64).collect()).encode_auto();
        assert_eq!(ints.encoding_name(), "packed");
        let dates = Column::Date(vec![9131; 50]).encode_auto();
        assert_eq!(dates.encoding_name(), "packed");
        let floats = Column::Float64(vec![0.25; 100]).encode_auto();
        assert_eq!(floats.encoding_name(), "xor");
        // High-entropy data stays plain.
        let random: Vec<String> = (0..32).map(|i| format!("unique-{i}")).collect();
        assert_eq!(Column::Utf8(random).encode_auto().encoding_name(), "plain");
    }

    #[test]
    fn encoded_columns_compare_logically_equal_to_plain() {
        let plain = Column::Utf8(vec![
            "MAIL".into(),
            "AIR".into(),
            "MAIL".into(),
            "AIR".into(),
            "AIR".into(),
        ]);
        assert_eq!(dict_col(), plain);
        assert_eq!(plain, dict_col());
        let ints = Column::Int64(vec![5, 6, 7]);
        assert_eq!(ints.encode_auto(), ints);
        let floats = Column::Float64(vec![1.5; 9]);
        assert_eq!(floats.encode_auto(), floats);
        assert_ne!(dict_col(), ints);
    }

    #[test]
    fn encoded_filter_take_slice_match_plain() {
        let plain = Column::Utf8(vec![
            "MAIL".into(),
            "AIR".into(),
            "MAIL".into(),
            "AIR".into(),
            "AIR".into(),
        ]);
        let enc = dict_col();
        let mask = [true, false, true, true, false];
        assert_eq!(enc.filter(&mask), plain.filter(&mask));
        assert!(enc.filter(&mask).is_encoded(), "filter keeps the dictionary");
        assert_eq!(enc.take(&[4, 0, 0]), plain.take(&[4, 0, 0]));
        assert_eq!(enc.slice(1, 3), plain.slice(1, 3));

        let ints = Column::Int64(vec![100, 104, 101, 180, 100]);
        let penc = ints.encode_auto();
        assert_eq!(penc.filter(&mask), ints.filter(&mask));
        assert!(penc.filter(&mask).is_encoded(), "filter keeps the packing");
        assert_eq!(penc.take(&[3, 3]), ints.take(&[3, 3]));
        assert_eq!(penc.slice(2, 2), ints.slice(2, 2));
    }

    #[test]
    fn encoded_hashes_match_plain_hashes() {
        let strings: Vec<String> =
            (0..64).map(|i| ["TRUCK", "AIRMAIL", "RAIL"][i % 3].to_string()).collect();
        let ints: Vec<i64> = (0..64).map(|i| (i % 9) as i64 + 100).collect();
        let floats: Vec<f64> = (0..64).map(|i| (i % 5) as f64 * 0.25).collect();
        for (plain, encoded) in [
            (Column::Utf8(strings.clone()), Column::Utf8(strings).encode_auto()),
            (Column::Int64(ints.clone()), Column::Int64(ints).encode_auto()),
            (Column::Float64(floats.clone()), Column::Float64(floats).encode_auto()),
        ] {
            assert!(encoded.is_encoded(), "test data must actually encode");
            let mut hp = vec![17u64; plain.len()];
            let mut he = vec![17u64; plain.len()];
            plain.hash_into(&mut hp);
            encoded.hash_into(&mut he);
            assert_eq!(hp, he, "encoded hash must be bit-identical to plain");
        }
    }

    #[test]
    fn memory_bytes_reflects_compression() {
        let enc = dict_col();
        assert!(enc.memory_bytes() < enc.byte_size() * 6 / 5);
        let ints = Column::Int64(vec![1000; 512]).encode_auto();
        assert!(ints.memory_bytes() < ints.byte_size() / 8, "all-equal ints pack to near zero");
        assert_eq!(Column::Int64(vec![1, 2]).memory_bytes(), 16);
    }

    #[test]
    fn push_into_encoded_decodes_in_place() {
        let mut c = Column::Int64(vec![5; 100]).encode_auto();
        assert!(c.is_encoded());
        c.push(&ScalarValue::Int64(9)).unwrap();
        assert_eq!(c.len(), 101);
        assert_eq!(c.get(100), ScalarValue::Int64(9));

        let mut dst = Column::empty(DataType::Utf8);
        let src = dict_col();
        dst.push_from(&src, 1).unwrap();
        assert_eq!(dst, Column::Utf8(vec!["AIR".into()]));
    }

    #[test]
    fn concat_shares_or_decays_dictionaries() {
        let enc = dict_col();
        let left = enc.slice(0, 2);
        let right = enc.slice(2, 3);
        let merged = Column::concat(&[&left, &right]).unwrap();
        assert!(merged.is_encoded(), "same-dictionary concat stays encoded");
        assert_eq!(merged, enc);
        // Different dictionaries decay to plain but stay logically correct.
        let other = Column::Utf8(vec!["ZZZ".into()]).encode_auto();
        let mixed = Column::concat(&[&enc, &other]).unwrap();
        assert_eq!(mixed.len(), 6);
        assert_eq!(mixed.get(5), ScalarValue::Utf8("ZZZ".into()));
    }

    #[test]
    fn decoded_roundtrips_every_encoding() {
        for plain in [
            Column::Utf8(vec!["x".into(), "y".into(), "x".into(), "x".into()]),
            Column::Int64(vec![3, 1, 2, 3]),
            Column::Date(vec![100, 101, 100, 99]),
            Column::Float64(vec![0.5, 0.5, 0.25, 0.5]),
        ] {
            let enc = plain.encode_auto();
            assert_eq!(enc.decoded().as_ref(), &plain);
            assert_eq!(enc.data_type(), plain.data_type());
            assert_eq!(enc.byte_size(), plain.byte_size(), "byte_size stays logical");
        }
    }
}
