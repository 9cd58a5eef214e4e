//! Compute kernels over [`Column`]s and [`Batch`]es.
//!
//! These are the "single-node kernels" the paper's implementation borrows
//! from DuckDB/Polars: element-wise arithmetic and comparisons, boolean
//! logic, LIKE matching, row hashing, hash partitioning (the basis of every
//! shuffle) and multi-key sorting.

use crate::batch::Batch;
use crate::column::{xor_or_plain, Column};
use crate::datatype::{DataType, ScalarValue};
use crate::encoding::{DictColumn, PackedIntColumn, PackedLogical};
use quokka_common::{QuokkaError, Result};
use std::borrow::Cow;
use std::cmp::Ordering;

/// Binary arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
}

/// Binary comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
}

impl CmpOp {
    /// The operator with its operands swapped: `a < b` iff `b > a`.
    pub fn mirror(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::NotEq => CmpOp::NotEq,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::LtEq => CmpOp::GtEq,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::GtEq => CmpOp::LtEq,
        }
    }
}

/// Element-wise arithmetic between two columns of equal length.
///
/// Integer inputs stay integer for `+ - *`; division and any float input
/// produce `Float64`.
pub fn arith(op: ArithOp, left: &Column, right: &Column) -> Result<Column> {
    if left.len() != right.len() {
        return Err(QuokkaError::internal(format!(
            "arith length mismatch: {} vs {}",
            left.len(),
            right.len()
        )));
    }
    // Arithmetic needs the typed Int64/Int64 dispatch below to keep integer
    // results integer, so encoded inputs decode up front rather than falling
    // through `to_f64_vec` into the float path.
    if left.is_encoded() || right.is_encoded() {
        return arith(op, left.decoded().as_ref(), right.decoded().as_ref());
    }
    match (left, right, op) {
        (Column::Int64(a), Column::Int64(b), ArithOp::Add) => {
            Ok(Column::Int64(a.iter().zip(b).map(|(x, y)| x + y).collect()))
        }
        (Column::Int64(a), Column::Int64(b), ArithOp::Sub) => {
            Ok(Column::Int64(a.iter().zip(b).map(|(x, y)| x - y).collect()))
        }
        (Column::Int64(a), Column::Int64(b), ArithOp::Mul) => {
            Ok(Column::Int64(a.iter().zip(b).map(|(x, y)| x * y).collect()))
        }
        _ => {
            let a = left.to_f64_vec()?;
            let b = right.to_f64_vec()?;
            let out: Vec<f64> = a
                .iter()
                .zip(&b)
                .map(|(x, y)| match op {
                    ArithOp::Add => x + y,
                    ArithOp::Sub => x - y,
                    ArithOp::Mul => x * y,
                    ArithOp::Div => x / y,
                })
                .collect();
            Ok(Column::Float64(out))
        }
    }
}

/// Element-wise comparison between two columns of equal length, producing a
/// boolean mask. Numeric types (Int64/Float64/Date) are coerced to f64;
/// strings and booleans compare directly.
pub fn compare(op: CmpOp, left: &Column, right: &Column) -> Result<Column> {
    if left.len() != right.len() {
        return Err(QuokkaError::internal(format!(
            "compare length mismatch: {} vs {}",
            left.len(),
            right.len()
        )));
    }
    let mask: Vec<bool> = match (left, right) {
        // Dictionary columns sharing one sorted dictionary compare by code.
        (Column::Dict(a), Column::Dict(b)) if a.same_dict(b) => {
            a.codes.iter().zip(&b.codes).map(|(x, y)| apply_ord(op, x.cmp(y))).collect()
        }
        (Column::Dict(_), _) | (_, Column::Dict(_)) => {
            return compare(op, left.decoded().as_ref(), right.decoded().as_ref());
        }
        (Column::Utf8(a), Column::Utf8(b)) => {
            a.iter().zip(b).map(|(x, y)| apply_ord(op, x.cmp(y))).collect()
        }
        (Column::Bool(a), Column::Bool(b)) => {
            a.iter().zip(b).map(|(x, y)| apply_ord(op, x.cmp(y))).collect()
        }
        _ => {
            // `to_f64_vec` reads Packed/Xor columns directly, so numeric
            // encodings need no special casing here.
            let a = left.to_f64_vec()?;
            let b = right.to_f64_vec()?;
            a.iter().zip(&b).map(|(x, y)| apply_ord(op, x.total_cmp(y))).collect()
        }
    };
    Ok(Column::Bool(mask))
}

/// Compare a column against one scalar — the shape every TPC-H predicate
/// takes. Encoded columns are handled without decoding: a dictionary column
/// evaluates the comparison once per *dictionary entry* and maps codes
/// through the resulting lookup table; a packed column streams its values.
/// Plain columns fall back to [`broadcast`] + [`compare`], so the result is
/// always identical to the decode-first path.
pub fn compare_scalar(op: CmpOp, col: &Column, value: &ScalarValue) -> Result<Column> {
    match (col, value) {
        (Column::Dict(d), ScalarValue::Utf8(s)) => {
            let lut: Vec<bool> =
                d.values.iter().map(|v| apply_ord(op, v.as_str().cmp(s.as_str()))).collect();
            Ok(Column::Bool(d.codes.iter().map(|&c| lut[c as usize]).collect()))
        }
        (Column::Packed(p), ScalarValue::Int64(x)) if p.logical == PackedLogical::Int64 => {
            // Mirror the generic path's f64 coercion exactly.
            let y = *x as f64;
            Ok(Column::Bool(p.iter().map(|v| apply_ord(op, (v as f64).total_cmp(&y))).collect()))
        }
        (Column::Packed(p), ScalarValue::Date(x)) if p.logical == PackedLogical::Date => {
            let y = *x as f64;
            Ok(Column::Bool(p.iter().map(|v| apply_ord(op, (v as f64).total_cmp(&y))).collect()))
        }
        _ => compare(op, col, &broadcast(value, col.len())),
    }
}

fn apply_ord(op: CmpOp, ord: Ordering) -> bool {
    match op {
        CmpOp::Eq => ord == Ordering::Equal,
        CmpOp::NotEq => ord != Ordering::Equal,
        CmpOp::Lt => ord == Ordering::Less,
        CmpOp::LtEq => ord != Ordering::Greater,
        CmpOp::Gt => ord == Ordering::Greater,
        CmpOp::GtEq => ord != Ordering::Less,
    }
}

/// Broadcast a scalar to a column of length `len`.
pub fn broadcast(value: &ScalarValue, len: usize) -> Column {
    match value {
        ScalarValue::Int64(v) => Column::Int64(vec![*v; len]),
        ScalarValue::Float64(v) => Column::Float64(vec![*v; len]),
        ScalarValue::Utf8(v) => Column::Utf8(vec![v.clone(); len]),
        ScalarValue::Bool(v) => Column::Bool(vec![*v; len]),
        ScalarValue::Date(v) => Column::Date(vec![*v; len]),
    }
}

/// Element-wise logical AND.
pub fn and(left: &Column, right: &Column) -> Result<Column> {
    let a = left.as_bool()?;
    let b = right.as_bool()?;
    Ok(Column::Bool(a.iter().zip(b).map(|(x, y)| *x && *y).collect()))
}

/// Element-wise logical OR.
pub fn or(left: &Column, right: &Column) -> Result<Column> {
    let a = left.as_bool()?;
    let b = right.as_bool()?;
    Ok(Column::Bool(a.iter().zip(b).map(|(x, y)| *x || *y).collect()))
}

/// Element-wise logical NOT.
pub fn not(col: &Column) -> Result<Column> {
    Ok(Column::Bool(col.as_bool()?.iter().map(|x| !x).collect()))
}

/// SQL `LIKE` with `%` (any substring) and `_` (any single char) wildcards.
pub fn like(col: &Column, pattern: &str) -> Result<Column> {
    // Dictionary columns match the pattern once per dictionary entry.
    if let Column::Dict(d) = col {
        let lut: Vec<bool> = d.values.iter().map(|v| like_match(v, pattern)).collect();
        return Ok(Column::Bool(d.codes.iter().map(|&c| lut[c as usize]).collect()));
    }
    let values = col.as_utf8()?;
    Ok(Column::Bool(values.iter().map(|v| like_match(v, pattern)).collect()))
}

/// Whether `value` matches the SQL LIKE `pattern`.
///
/// Iterative two-pointer algorithm: on a mismatch after a `%`, restart the
/// value one character past the position where the `%` last matched, instead
/// of recursing over every split point. Linear-ish in practice and immune to
/// the exponential backtracking the old recursive matcher exhibited on
/// patterns like `%a%a%a%b` against long non-matching strings.
pub fn like_match(value: &str, pattern: &str) -> bool {
    let v = value.as_bytes();
    let p = pattern.as_bytes();
    let (mut vi, mut pi) = (0usize, 0usize);
    // Position of the last `%` seen, and the value index its match resumed at.
    let mut star: Option<usize> = None;
    let mut star_vi = 0usize;
    while vi < v.len() {
        if pi < p.len() && (p[pi] == b'_' || p[pi] == v[vi]) {
            vi += 1;
            pi += 1;
        } else if pi < p.len() && p[pi] == b'%' {
            star = Some(pi);
            star_vi = vi;
            pi += 1;
        } else if let Some(star_pi) = star {
            // Mismatch: let the last `%` swallow one more character.
            pi = star_pi + 1;
            star_vi += 1;
            vi = star_vi;
        } else {
            return false;
        }
    }
    // Value exhausted: remaining pattern must be all `%`.
    p[pi..].iter().all(|&c| c == b'%')
}

/// `value IN (list)` membership test.
///
/// The list is folded into a typed `HashSet` once, so the per-row cost is a
/// single hash probe instead of a `total_cmp` scan of the whole list.
/// Int64/Float64 list items coerce against numeric columns through the same
/// [`crate::rowkey::canonical_i64`] rule the hash operators use, and items of a
/// non-coercible type simply never match. (Like the key encoding, integers
/// beyond 2^53 compare exactly rather than through `total_cmp`'s lossy
/// f64 coercion.)
pub fn in_list(col: &Column, list: &[ScalarValue]) -> Result<Column> {
    use std::collections::HashSet;

    // Integral list items (Int64, or Float64 holding an exact integer) as
    // i64; used by Int64 columns and by integral values of Float64 columns.
    let int_items = || -> HashSet<i64> {
        list.iter()
            .filter_map(|item| match item {
                ScalarValue::Int64(x) => Some(*x),
                ScalarValue::Float64(x) => crate::rowkey::canonical_i64(*x),
                _ => None,
            })
            .collect()
    };

    let mask: Vec<bool> = match col {
        Column::Utf8(values) => {
            let set: HashSet<&str> = list
                .iter()
                .filter_map(|item| match item {
                    ScalarValue::Utf8(s) => Some(s.as_str()),
                    _ => None,
                })
                .collect();
            values.iter().map(|v| set.contains(v.as_str())).collect()
        }
        Column::Int64(values) => {
            let set = int_items();
            values.iter().map(|v| set.contains(v)).collect()
        }
        Column::Date(values) => {
            let set: HashSet<i32> = list
                .iter()
                .filter_map(|item| match item {
                    ScalarValue::Date(d) => Some(*d),
                    _ => None,
                })
                .collect();
            values.iter().map(|v| set.contains(v)).collect()
        }
        Column::Float64(values) => {
            // Split the list into exact-integer items (compared after the
            // same canonicalization) and everything else by bit pattern;
            // total_cmp equality on floats is bit equality.
            let ints = int_items();
            let bits: HashSet<u64> = list
                .iter()
                .filter_map(|item| match item {
                    ScalarValue::Float64(x) => Some(x.to_bits()),
                    _ => None,
                })
                .collect();
            values
                .iter()
                .map(|v| {
                    let as_int = crate::rowkey::canonical_i64(*v);
                    as_int.is_some_and(|i| ints.contains(&i)) || bits.contains(&v.to_bits())
                })
                .collect()
        }
        Column::Bool(values) => {
            let set: HashSet<bool> = list
                .iter()
                .filter_map(|item| match item {
                    ScalarValue::Bool(b) => Some(*b),
                    _ => None,
                })
                .collect();
            values.iter().map(|v| set.contains(v)).collect()
        }
        Column::Dict(d) => {
            // Membership is decided once per dictionary entry, then fanned
            // out over the codes.
            let set: HashSet<&str> = list
                .iter()
                .filter_map(|item| match item {
                    ScalarValue::Utf8(s) => Some(s.as_str()),
                    _ => None,
                })
                .collect();
            let lut: Vec<bool> = d.values.iter().map(|v| set.contains(v.as_str())).collect();
            d.codes.iter().map(|&c| lut[c as usize]).collect()
        }
        Column::Packed(_) | Column::Xor(_) => {
            return in_list(col.decoded().as_ref(), list);
        }
    };
    Ok(Column::Bool(mask))
}

/// Row-wise hash of the key columns at `key_indices`.
pub fn hash_rows(batch: &Batch, key_indices: &[usize]) -> Vec<u64> {
    let mut hashes = vec![0xA5A5_5A5A_DEAD_BEEFu64; batch.num_rows()];
    for &k in key_indices {
        batch.column(k).hash_into(&mut hashes);
    }
    hashes
}

/// Partition a batch into `partitions` output batches by hashing the key
/// columns. Every input row lands in exactly one output batch; rows keep
/// their relative order within a partition (important for determinism of
/// lineage replay).
///
/// Single-pass: each column is scattered directly into per-partition typed
/// builders sized from a count pass over the hashes, instead of building
/// per-partition row-index lists and `take`-ing each partition separately.
pub fn hash_partition(
    batch: &Batch,
    key_indices: &[usize],
    partitions: usize,
) -> Result<Vec<Batch>> {
    assert!(partitions > 0);
    if partitions == 1 {
        return Ok(vec![batch.clone()]);
    }
    let hashes = hash_rows(batch, key_indices);
    let part_of: Vec<u32> = hashes.iter().map(|h| (h % partitions as u64) as u32).collect();
    let mut counts = vec![0usize; partitions];
    for &p in &part_of {
        counts[p as usize] += 1;
    }

    fn scatter<T: Clone>(values: &[T], part_of: &[u32], counts: &[usize]) -> Vec<Vec<T>> {
        let mut out: Vec<Vec<T>> = counts.iter().map(|&c| Vec::with_capacity(c)).collect();
        for (value, &p) in values.iter().zip(part_of) {
            out[p as usize].push(value.clone());
        }
        out
    }

    let mut columns_per_part: Vec<Vec<Column>> =
        (0..partitions).map(|_| Vec::with_capacity(batch.num_columns())).collect();
    for col in batch.columns() {
        let scattered: Vec<Column> = match col {
            Column::Int64(v) => {
                scatter(v, &part_of, &counts).into_iter().map(Column::Int64).collect()
            }
            Column::Float64(v) => {
                scatter(v, &part_of, &counts).into_iter().map(Column::Float64).collect()
            }
            Column::Utf8(v) => {
                scatter(v, &part_of, &counts).into_iter().map(Column::Utf8).collect()
            }
            Column::Bool(v) => {
                scatter(v, &part_of, &counts).into_iter().map(Column::Bool).collect()
            }
            Column::Date(v) => {
                scatter(v, &part_of, &counts).into_iter().map(Column::Date).collect()
            }
            // Encoded columns scatter without losing their encoding: codes
            // keep sharing the dictionary Arc, packed values repack at the
            // same base/width, and floats re-compress per partition.
            Column::Dict(d) => scatter(&d.codes, &part_of, &counts)
                .into_iter()
                .map(|codes| Column::Dict(DictColumn::from_parts(codes, d.values.clone())))
                .collect(),
            Column::Packed(p) => {
                let values: Vec<i64> = p.iter().collect();
                scatter(&values, &part_of, &counts)
                    .into_iter()
                    .map(|v| Column::Packed(PackedIntColumn::pack(p.logical, p.base, p.width, &v)))
                    .collect()
            }
            Column::Xor(x) => {
                scatter(&x.to_vec(), &part_of, &counts).into_iter().map(xor_or_plain).collect()
            }
        };
        for (part, piece) in columns_per_part.iter_mut().zip(scattered) {
            part.push(piece);
        }
    }
    columns_per_part
        .into_iter()
        .map(|columns| Batch::try_new(batch.schema().clone(), columns))
        .collect()
}

/// A sort key: column index plus direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SortKey {
    pub column: usize,
    pub ascending: bool,
}

impl SortKey {
    pub fn asc(column: usize) -> Self {
        SortKey { column, ascending: true }
    }
    pub fn desc(column: usize) -> Self {
        SortKey { column, ascending: false }
    }
}

/// Compare `left[a]` with `right[b]` directly on the typed column storage —
/// no `ScalarValue` is materialized (the old path cloned strings on every
/// comparison). The ordering mirrors [`ScalarValue::total_cmp`], including
/// the Int64/Float64 coercion and the type-rank fallback for non-coercible
/// type pairs.
/// A borrowed view of one cell, used to compare across representations
/// without materializing a `ScalarValue`.
enum ValView<'a> {
    B(bool),
    I(i64),
    F(f64),
    D(i32),
    S(&'a str),
}

fn view(col: &Column, i: usize) -> ValView<'_> {
    match col {
        Column::Int64(v) => ValView::I(v[i]),
        Column::Float64(v) => ValView::F(v[i]),
        Column::Utf8(v) => ValView::S(&v[i]),
        Column::Bool(v) => ValView::B(v[i]),
        Column::Date(v) => ValView::D(v[i]),
        Column::Dict(d) => ValView::S(d.str_at(i)),
        Column::Packed(p) => match p.logical {
            PackedLogical::Int64 => ValView::I(p.get(i)),
            PackedLogical::Date => ValView::D(p.get(i) as i32),
        },
        // O(i) stream walk — sort/merge callers must pre-decode Xor columns.
        Column::Xor(x) => ValView::F(x.get_slow(i)),
    }
}

pub fn cmp_values(left: &Column, a: usize, right: &Column, b: usize) -> Ordering {
    fn rank(v: &ValView<'_>) -> u8 {
        match v {
            ValView::B(_) => 0,
            ValView::I(_) => 1,
            ValView::F(_) => 2,
            ValView::D(_) => 3,
            ValView::S(_) => 4,
        }
    }
    // Same sorted dictionary: code order is lexicographic order.
    if let (Column::Dict(x), Column::Dict(y)) = (left, right) {
        if x.same_dict(y) {
            return x.codes[a].cmp(&y.codes[b]);
        }
    }
    match (view(left, a), view(right, b)) {
        (ValView::I(x), ValView::I(y)) => x.cmp(&y),
        (ValView::F(x), ValView::F(y)) => x.total_cmp(&y),
        (ValView::S(x), ValView::S(y)) => x.cmp(y),
        (ValView::B(x), ValView::B(y)) => x.cmp(&y),
        (ValView::D(x), ValView::D(y)) => x.cmp(&y),
        (ValView::I(x), ValView::F(y)) => (x as f64).total_cmp(&y),
        (ValView::F(x), ValView::I(y)) => x.total_cmp(&(y as f64)),
        (x, y) => rank(&x).cmp(&rank(&y)),
    }
}

/// Stable argsort of a batch by the given sort keys. Comparisons read the
/// typed column slices directly; no per-comparison allocation. Dictionary
/// key columns sort by code (the dictionary is sorted); XOR float keys are
/// decoded once up front since they have no random access.
pub fn sort_indices(batch: &Batch, keys: &[SortKey]) -> Vec<usize> {
    let mut indices: Vec<usize> = (0..batch.num_rows()).collect();
    let key_columns: Vec<(Cow<'_, Column>, bool)> = keys
        .iter()
        .map(|k| {
            let col = batch.column(k.column);
            let col =
                if matches!(col, Column::Xor(_)) { col.decoded() } else { Cow::Borrowed(col) };
            (col, k.ascending)
        })
        .collect();
    indices.sort_by(|&a, &b| {
        for (col, ascending) in &key_columns {
            let ord = cmp_values(col, a, col, b);
            let ord = if *ascending { ord } else { ord.reverse() };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    });
    indices
}

/// Sort a batch by the given keys.
pub fn sort_batch(batch: &Batch, keys: &[SortKey]) -> Result<Batch> {
    let idx = sort_indices(batch, keys);
    batch.take(&idx)
}

/// Cast a column to another data type. Supports the numeric/date coercions
/// the TPC-H plans need.
pub fn cast(col: &Column, to: DataType) -> Result<Column> {
    if col.data_type() == to {
        return Ok(col.clone());
    }
    // Encoded inputs decode on demand so mixed-encoding batches can't hit
    // the unsupported-cast error below.
    if col.is_encoded() {
        return cast(col.decoded().as_ref(), to);
    }
    match (col, to) {
        (Column::Int64(v), DataType::Float64) => {
            Ok(Column::Float64(v.iter().map(|&x| x as f64).collect()))
        }
        (Column::Float64(v), DataType::Int64) => {
            Ok(Column::Int64(v.iter().map(|&x| x as i64).collect()))
        }
        (Column::Date(v), DataType::Int64) => {
            Ok(Column::Int64(v.iter().map(|&x| x as i64).collect()))
        }
        (Column::Int64(v), DataType::Date) => {
            Ok(Column::Date(v.iter().map(|&x| x as i32).collect()))
        }
        (from, to) => {
            Err(QuokkaError::TypeError(format!("unsupported cast {} -> {}", from.data_type(), to)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    fn batch() -> Batch {
        let schema = Schema::from_pairs(&[
            ("k", DataType::Int64),
            ("v", DataType::Float64),
            ("s", DataType::Utf8),
        ]);
        Batch::try_new(
            schema,
            vec![
                Column::Int64(vec![3, 1, 2, 1]),
                Column::Float64(vec![1.0, 4.0, 2.0, 3.0]),
                Column::Utf8(vec!["c".into(), "a".into(), "b".into(), "a".into()]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn arithmetic_integer_and_float() {
        let a = Column::Int64(vec![4, 9]);
        let b = Column::Int64(vec![2, 3]);
        assert_eq!(arith(ArithOp::Add, &a, &b).unwrap(), Column::Int64(vec![6, 12]));
        assert_eq!(arith(ArithOp::Mul, &a, &b).unwrap(), Column::Int64(vec![8, 27]));
        assert_eq!(arith(ArithOp::Div, &a, &b).unwrap(), Column::Float64(vec![2.0, 3.0]));
        let f = Column::Float64(vec![0.5, 0.5]);
        assert_eq!(arith(ArithOp::Sub, &a, &f).unwrap(), Column::Float64(vec![3.5, 8.5]));
        assert!(arith(ArithOp::Add, &a, &Column::Int64(vec![1])).is_err());
    }

    #[test]
    fn comparisons_and_boolean_logic() {
        let a = Column::Int64(vec![1, 2, 3]);
        let b = Column::Float64(vec![2.0, 2.0, 2.0]);
        assert_eq!(compare(CmpOp::Lt, &a, &b).unwrap(), Column::Bool(vec![true, false, false]));
        assert_eq!(compare(CmpOp::GtEq, &a, &b).unwrap(), Column::Bool(vec![false, true, true]));
        let s1 = Column::Utf8(vec!["x".into(), "y".into()]);
        let s2 = Column::Utf8(vec!["x".into(), "z".into()]);
        assert_eq!(compare(CmpOp::Eq, &s1, &s2).unwrap(), Column::Bool(vec![true, false]));

        let t = Column::Bool(vec![true, false]);
        let f = Column::Bool(vec![true, true]);
        assert_eq!(and(&t, &f).unwrap(), Column::Bool(vec![true, false]));
        assert_eq!(or(&t, &f).unwrap(), Column::Bool(vec![true, true]));
        assert_eq!(not(&t).unwrap(), Column::Bool(vec![false, true]));
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("PROMO BRUSHED STEEL", "PROMO%"));
        assert!(like_match("small shiny gold", "%shiny%"));
        assert!(!like_match("ECONOMY ANODIZED", "PROMO%"));
        assert!(like_match("abc", "a_c"));
        assert!(!like_match("abc", "a_d"));
        assert!(like_match("", "%"));
        assert!(like_match("anything at all", "%"));
        let col = Column::Utf8(vec!["MEDIUM POLISHED".into(), "SMALL PLATED".into()]);
        assert_eq!(like(&col, "MEDIUM%").unwrap(), Column::Bool(vec![true, false]));
        // Multi-wildcard patterns where later literals force re-matching.
        assert!(like_match("xayazb", "%a%b"));
        assert!(!like_match("xayaz", "%a%b"));
        assert!(like_match("aab", "a%b"));
        assert!(like_match("ab", "a%%b"));
        assert!(!like_match("a", "a_"));
        assert!(like_match("abc", "%c"));
        assert!(!like_match("abc", "%d"));
    }

    #[test]
    fn like_pathological_pattern_completes_instantly() {
        // The old recursive matcher was exponential in the number of `%`s on
        // non-matching inputs: each `%` tried every split point. The
        // two-pointer matcher must dispatch this in well under a second.
        let value = "a".repeat(2000);
        let pattern = "%a%a%a%a%a%b";
        let start = std::time::Instant::now();
        assert!(!like_match(&value, pattern));
        assert!(like_match(&format!("{value}b"), pattern));
        assert!(
            start.elapsed() < std::time::Duration::from_secs(1),
            "pathological LIKE pattern took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn in_list_membership() {
        let col = Column::Utf8(vec!["MAIL".into(), "SHIP".into(), "AIR".into()]);
        let list = vec![ScalarValue::from("MAIL"), ScalarValue::from("SHIP")];
        assert_eq!(in_list(&col, &list).unwrap(), Column::Bool(vec![true, true, false]));
        let nums = Column::Int64(vec![1, 5, 9]);
        let list = vec![ScalarValue::Int64(5)];
        assert_eq!(in_list(&nums, &list).unwrap(), Column::Bool(vec![false, true, false]));
    }

    #[test]
    fn in_list_coerces_numerics_like_total_cmp() {
        // Int64 column against Float64 list items: integral floats match,
        // fractional ones never do.
        let ints = Column::Int64(vec![2, 3, 4]);
        let list = vec![ScalarValue::Float64(2.0), ScalarValue::Float64(3.5)];
        assert_eq!(in_list(&ints, &list).unwrap(), Column::Bool(vec![true, false, false]));

        // Float64 column against mixed Int64/Float64 items.
        let floats = Column::Float64(vec![2.0, 2.5, -0.0, 7.25]);
        let list = vec![ScalarValue::Int64(2), ScalarValue::Int64(0), ScalarValue::Float64(7.25)];
        // -0.0 != Int64(0) under total_cmp; 2.0 == Int64(2); 7.25 matches by bits.
        assert_eq!(in_list(&floats, &list).unwrap(), Column::Bool(vec![true, false, false, true]));

        // Dates only match Date items, never numerically-equal Int64s.
        let dates = Column::Date(vec![10, 20]);
        let list = vec![ScalarValue::Int64(10), ScalarValue::Date(20)];
        assert_eq!(in_list(&dates, &list).unwrap(), Column::Bool(vec![false, true]));

        // A string column ignores non-string items entirely.
        let tags = Column::Utf8(vec!["5".into()]);
        assert_eq!(in_list(&tags, &[ScalarValue::Int64(5)]).unwrap(), Column::Bool(vec![false]));
    }

    #[test]
    fn in_list_scales_past_linear_scans() {
        // 20k rows against a 1k-item string list; the per-row HashSet probe
        // keeps this far under a second even in debug builds.
        let items: Vec<ScalarValue> =
            (0..1000).map(|i| ScalarValue::from(format!("tag-{i}"))).collect();
        let col = Column::Utf8((0..20_000).map(|i| format!("tag-{}", i % 2000)).collect());
        let start = std::time::Instant::now();
        let mask = in_list(&col, &items).unwrap();
        assert!(start.elapsed() < std::time::Duration::from_secs(2));
        let hits = mask.as_bool().unwrap().iter().filter(|&&b| b).count();
        assert_eq!(hits, 10_000);
    }

    #[test]
    fn hash_partition_is_complete_and_disjoint() {
        let b = batch();
        let parts = hash_partition(&b, &[0], 3).unwrap();
        assert_eq!(parts.len(), 3);
        let total: usize = parts.iter().map(Batch::num_rows).sum();
        assert_eq!(total, b.num_rows());
        // Equal keys land in the same partition.
        let key_part: Vec<Option<usize>> = (0..4)
            .map(|row| {
                let key = b.value(row, 0);
                parts.iter().position(|p| {
                    (0..p.num_rows())
                        .any(|r| p.value(r, 0) == key && p.value(r, 2) == b.value(row, 2))
                })
            })
            .collect();
        assert_eq!(key_part[1], key_part[3], "rows with key=1 must co-locate");
    }

    #[test]
    fn single_partition_shortcut() {
        let b = batch();
        let parts = hash_partition(&b, &[0], 1).unwrap();
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0], b);
    }

    #[test]
    fn sorting_multi_key() {
        let b = batch();
        let sorted = sort_batch(&b, &[SortKey::asc(0), SortKey::desc(1)]).unwrap();
        assert_eq!(sorted.column(0), &Column::Int64(vec![1, 1, 2, 3]));
        assert_eq!(sorted.column(1), &Column::Float64(vec![4.0, 3.0, 2.0, 1.0]));
        let idx = sort_indices(&b, &[SortKey::desc(2)]);
        assert_eq!(idx[0], 0); // "c" first
    }

    #[test]
    fn cast_kernels() {
        assert_eq!(
            cast(&Column::Int64(vec![1, 2]), DataType::Float64).unwrap(),
            Column::Float64(vec![1.0, 2.0])
        );
        assert_eq!(
            cast(&Column::Float64(vec![1.9]), DataType::Int64).unwrap(),
            Column::Int64(vec![1])
        );
        assert_eq!(cast(&Column::Date(vec![3]), DataType::Int64).unwrap(), Column::Int64(vec![3]));
        assert!(cast(&Column::Utf8(vec![]), DataType::Int64).is_err());
        // identity cast
        assert_eq!(
            cast(&Column::Bool(vec![true]), DataType::Bool).unwrap(),
            Column::Bool(vec![true])
        );
    }

    #[test]
    fn broadcast_scalar() {
        assert_eq!(broadcast(&ScalarValue::Int64(7), 3), Column::Int64(vec![7, 7, 7]));
        assert_eq!(broadcast(&ScalarValue::from("x"), 2).len(), 2);
    }
}
