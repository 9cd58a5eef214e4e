//! The result check: engine output against the single-threaded oracle.
//!
//! `quokka::same_result` rounds floats to 8 significant digits before
//! comparing, so a money sum that lands on a half cent (194536.195) can
//! round up on one side and down on the other although the two values
//! differ by 1e-11. This comparator instead sorts both results into one
//! canonical row order and compares cell by cell, floats with a relative
//! tolerance, and reports the first rows that differ.

use quokka::{Batch, ScalarValue};
use std::cmp::Ordering;

/// Relative tolerance for floats (absolute below magnitude 1). Summation
/// order differs between the engine, the oracle and a recovery replay, which
/// moves a sum of N values by about N × 1e-16 of its magnitude; a lost or
/// duplicated row moves it by far more.
const FLOAT_TOLERANCE: f64 = 1e-9;

/// How many differing row pairs a mismatch report keeps.
const REPORTED_ROWS: usize = 3;

/// Why two results differ.
#[derive(Debug, Clone, PartialEq)]
pub struct Mismatch {
    /// One line per difference: a shape difference, or a pair of rows.
    pub details: Vec<String>,
}

impl std::fmt::Display for Mismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.details.join("; "))
    }
}

/// Compare `actual` with `expected` as multisets of rows, positionally by
/// column, floats within [`FLOAT_TOLERANCE`].
pub fn compare(actual: &Batch, expected: &Batch) -> Result<(), Mismatch> {
    if actual.num_columns() != expected.num_columns() {
        return Err(Mismatch {
            details: vec![format!(
                "{} columns, expected {}",
                actual.num_columns(),
                expected.num_columns()
            )],
        });
    }
    let got = canonical(actual);
    let want = canonical(expected);
    let mut details = Vec::new();
    if got.len() != want.len() {
        details.push(format!("{} rows, expected {}", got.len(), want.len()));
    }
    for (g, w) in got.iter().zip(&want) {
        if !rows_match(g, w) {
            if details.len() >= REPORTED_ROWS {
                details.push("...".to_string());
                break;
            }
            details.push(format!("got [{}] expected [{}]", render(g), render(w)));
        }
    }
    if details.is_empty() {
        Ok(())
    } else {
        Err(Mismatch { details })
    }
}

/// Rows sorted by their exact columns first and their floats last, so that
/// float noise cannot reorder rows whose other columns differ.
fn canonical(batch: &Batch) -> Vec<Vec<ScalarValue>> {
    let mut rows: Vec<Vec<ScalarValue>> = (0..batch.num_rows())
        .map(|r| (0..batch.num_columns()).map(|c| batch.value(r, c)).collect())
        .collect();
    rows.sort_by(|a, b| {
        let exact = a.iter().zip(b).filter(|(x, _)| !is_float(x));
        let floats = a.iter().zip(b).filter(|(x, _)| is_float(x));
        exact
            .chain(floats)
            .map(|(x, y)| cmp_scalar(x, y))
            .find(|o| o.is_ne())
            .unwrap_or(Ordering::Equal)
    });
    rows
}

fn is_float(value: &ScalarValue) -> bool {
    matches!(value, ScalarValue::Float64(_))
}

fn cmp_scalar(a: &ScalarValue, b: &ScalarValue) -> Ordering {
    match (a, b) {
        (ScalarValue::Int64(x), ScalarValue::Int64(y)) => x.cmp(y),
        (ScalarValue::Float64(x), ScalarValue::Float64(y)) => x.total_cmp(y),
        (ScalarValue::Utf8(x), ScalarValue::Utf8(y)) => x.cmp(y),
        (ScalarValue::Bool(x), ScalarValue::Bool(y)) => x.cmp(y),
        (ScalarValue::Date(x), ScalarValue::Date(y)) => x.cmp(y),
        // Mixed types only meet when the schemas differ; any fixed order
        // keeps the sort total and the cell comparison reports the row.
        _ => a.to_string().cmp(&b.to_string()),
    }
}

fn rows_match(a: &[ScalarValue], b: &[ScalarValue]) -> bool {
    a.iter().zip(b).all(|(x, y)| match (x, y) {
        (ScalarValue::Float64(x), ScalarValue::Float64(y)) => floats_match(*x, *y),
        _ => x == y,
    })
}

fn floats_match(a: f64, b: f64) -> bool {
    a == b || (a - b).abs() <= FLOAT_TOLERANCE * a.abs().max(b.abs()).max(1.0)
}

fn render(row: &[ScalarValue]) -> String {
    row.iter().map(|v| v.to_string()).collect::<Vec<_>>().join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use quokka::{same_result, Column, DataType, Schema};

    fn batch(names: &[&str], revenue: &[f64]) -> Batch {
        let schema =
            Schema::from_pairs(&[("c_name", DataType::Utf8), ("revenue", DataType::Float64)]);
        Batch::try_new(
            schema,
            vec![
                Column::Utf8(names.iter().map(|n| n.to_string()).collect()),
                Column::Float64(revenue.to_vec()),
            ],
        )
        .unwrap()
    }

    #[test]
    fn half_cent_sums_match_within_tolerance() {
        // Two summation orders of the same money sum, straddling the half
        // cent: 8-significant-digit rounding reads 194536.19 against
        // 194536.20 and calls them different.
        let engine = batch(&["Customer#1", "Customer#2"], &[194536.194999999, 10.0]);
        let oracle = batch(&["Customer#2", "Customer#1"], &[10.0, 194536.195000001]);
        assert!(!same_result(&engine, &oracle));
        assert_eq!(compare(&engine, &oracle), Ok(()));
    }

    #[test]
    fn real_differences_are_reported_with_rows() {
        let engine = batch(&["Customer#1", "Customer#2"], &[194536.19, 10.0]);
        // A sum 0.1% off, the size of a lost row.
        let oracle = batch(&["Customer#1", "Customer#2"], &[194730.73, 10.0]);
        let mismatch = compare(&engine, &oracle).unwrap_err();
        assert_eq!(mismatch.details.len(), 1);
        assert!(mismatch.details[0].contains("194536.19"), "{mismatch}");
        assert!(mismatch.details[0].contains("194730.73"), "{mismatch}");
    }

    #[test]
    fn row_count_and_exact_columns_must_agree() {
        let engine = batch(&["Customer#1"], &[1.0]);
        let oracle = batch(&["Customer#1", "Customer#2"], &[1.0, 2.0]);
        let mismatch = compare(&engine, &oracle).unwrap_err();
        assert_eq!(mismatch.details[0], "1 rows, expected 2");
        assert!(compare(&batch(&["a"], &[1.0]), &batch(&["b"], &[1.0])).is_err());
    }
}
