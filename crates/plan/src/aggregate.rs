//! Aggregate functions and their accumulators.
//!
//! Two accumulator representations live here:
//!
//! * [`Accumulator`] — one value of running state per (group, aggregate),
//!   updated a `ScalarValue` at a time. Kept as the simple reference
//!   implementation (and for partial-aggregation merging in tests).
//! * [`AggState`] — the vectorized representation the hash-aggregate
//!   operator uses: one typed vector per aggregate, indexed by dense group
//!   id, updated a batch at a time with no per-row `ScalarValue`.

use crate::expr::{col, lit, Expr};
use quokka_batch::datatype::{DataType, ScalarValue};
use quokka_batch::{Column, Schema};
use quokka_common::{QuokkaError, Result};
use std::collections::BTreeSet;

/// Supported aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    Sum,
    Avg,
    Min,
    Max,
    Count,
    /// `COUNT(DISTINCT expr)`.
    CountDistinct,
}

/// One aggregate in an `Aggregate` plan node: a function applied to an input
/// expression, with an output column name.
#[derive(Debug, Clone, PartialEq)]
pub struct AggExpr {
    pub func: AggFunc,
    pub expr: Expr,
    pub alias: String,
}

impl AggExpr {
    pub fn new(func: AggFunc, expr: Expr, alias: impl Into<String>) -> Self {
        AggExpr { func, expr, alias: alias.into() }
    }

    /// Output data type of this aggregate given the input schema.
    pub fn data_type(&self, input: &Schema) -> Result<DataType> {
        Ok(match self.func {
            AggFunc::Count | AggFunc::CountDistinct => DataType::Int64,
            AggFunc::Sum => {
                let t = self.expr.data_type(input)?;
                if t == DataType::Int64 {
                    DataType::Int64
                } else {
                    DataType::Float64
                }
            }
            AggFunc::Avg => DataType::Float64,
            AggFunc::Min | AggFunc::Max => self.expr.data_type(input)?,
        })
    }
}

/// Convenience constructors mirroring SQL.
pub fn sum(expr: Expr, alias: &str) -> AggExpr {
    AggExpr::new(AggFunc::Sum, expr, alias)
}
pub fn avg(expr: Expr, alias: &str) -> AggExpr {
    AggExpr::new(AggFunc::Avg, expr, alias)
}
pub fn min(expr: Expr, alias: &str) -> AggExpr {
    AggExpr::new(AggFunc::Min, expr, alias)
}
pub fn max(expr: Expr, alias: &str) -> AggExpr {
    AggExpr::new(AggFunc::Max, expr, alias)
}
pub fn count(expr: Expr, alias: &str) -> AggExpr {
    AggExpr::new(AggFunc::Count, expr, alias)
}
pub fn count_distinct(expr: Expr, alias: &str) -> AggExpr {
    AggExpr::new(AggFunc::CountDistinct, expr, alias)
}

/// An aggregation split into two phases (eager aggregation: Yan & Larson,
/// "Eager Aggregation and Lazy Aggregation", VLDB 1995). The stage feeding
/// the aggregate folds each output batch into [`partial`](Self::partial)
/// states keyed by the evaluated group keys, so it ships one row per group
/// instead of every input row; the aggregate stage [`merge`](Self::merge)s
/// those states.
#[derive(Debug, Clone, PartialEq)]
pub struct TwoPhase {
    /// The partial aggregates: SUM, MIN and MAX as written, COUNT as a
    /// count, AVG as a sum (`<alias>#sum`) plus a count (`<alias>#count`).
    pub partial: Vec<AggExpr>,
    /// One merge per partial column, named after it: the SUM of sums and of
    /// counts, the MIN of minima and the MAX of maxima.
    pub merge: Vec<AggExpr>,
    /// The projection from merged states to the original output columns
    /// when the two differ, which only AVG needs: sum / count, and 0.0 over
    /// no rows as in the single-phase aggregate.
    pub finish: Option<Vec<(Expr, String)>>,
}

impl TwoPhase {
    /// Split an aggregation with group keys named `keys`; `None` when some
    /// aggregate has no mergeable partial state (COUNT DISTINCT).
    pub fn split(keys: &[String], aggregates: &[AggExpr]) -> Option<TwoPhase> {
        let mut partial = Vec::with_capacity(aggregates.len());
        let mut merge = Vec::with_capacity(aggregates.len());
        let mut finish: Vec<(Expr, String)> =
            keys.iter().map(|name| (col(name), name.clone())).collect();
        let mut averages = false;
        for agg in aggregates {
            let alias = &agg.alias;
            match agg.func {
                AggFunc::CountDistinct => return None,
                AggFunc::Avg => {
                    let (sum_name, count_name) = (format!("{alias}#sum"), format!("{alias}#count"));
                    partial.push(sum(agg.expr.clone(), &sum_name));
                    partial.push(count(agg.expr.clone(), &count_name));
                    merge.push(sum(col(&sum_name), &sum_name));
                    merge.push(sum(col(&count_name), &count_name));
                    let mean = Expr::case_when(
                        col(&count_name).eq(lit(0i64)),
                        lit(0.0f64),
                        col(&sum_name).div(col(&count_name)),
                    );
                    finish.push((mean, alias.clone()));
                    averages = true;
                }
                func => {
                    partial.push(agg.clone());
                    let merged = if func == AggFunc::Count { AggFunc::Sum } else { func };
                    merge.push(AggExpr::new(merged, col(alias), alias));
                    finish.push((col(alias), alias.clone()));
                }
            }
        }
        Some(TwoPhase { partial, merge, finish: averages.then_some(finish) })
    }
}

/// Running state of one aggregate for one group.
#[derive(Debug, Clone, PartialEq)]
pub enum Accumulator {
    Sum { total: f64, integer: bool, seen: bool },
    Avg { total: f64, count: u64 },
    Min(Option<ScalarValue>),
    Max(Option<ScalarValue>),
    Count(u64),
    CountDistinct(BTreeSet<String>),
}

impl Accumulator {
    pub fn new(func: AggFunc, input_type: DataType) -> Self {
        match func {
            AggFunc::Sum => {
                Accumulator::Sum { total: 0.0, integer: input_type == DataType::Int64, seen: false }
            }
            AggFunc::Avg => Accumulator::Avg { total: 0.0, count: 0 },
            AggFunc::Min => Accumulator::Min(None),
            AggFunc::Max => Accumulator::Max(None),
            AggFunc::Count => Accumulator::Count(0),
            AggFunc::CountDistinct => Accumulator::CountDistinct(BTreeSet::new()),
        }
    }

    /// Fold one value into the accumulator.
    pub fn update(&mut self, value: &ScalarValue) -> Result<()> {
        match self {
            Accumulator::Sum { total, seen, .. } => {
                *total += value.as_f64()?;
                *seen = true;
            }
            Accumulator::Avg { total, count } => {
                *total += value.as_f64()?;
                *count += 1;
            }
            Accumulator::Min(current) => {
                let replace = match current {
                    Some(c) => value.total_cmp(c) == std::cmp::Ordering::Less,
                    None => true,
                };
                if replace {
                    *current = Some(value.clone());
                }
            }
            Accumulator::Max(current) => {
                let replace = match current {
                    Some(c) => value.total_cmp(c) == std::cmp::Ordering::Greater,
                    None => true,
                };
                if replace {
                    *current = Some(value.clone());
                }
            }
            Accumulator::Count(n) => *n += 1,
            Accumulator::CountDistinct(set) => {
                set.insert(value.to_string());
            }
        }
        Ok(())
    }

    /// Merge another accumulator of the same kind (partial aggregation).
    pub fn merge(&mut self, other: &Accumulator) -> Result<()> {
        match (self, other) {
            (
                Accumulator::Sum { total, seen, .. },
                Accumulator::Sum { total: t2, seen: s2, .. },
            ) => {
                *total += t2;
                *seen = *seen || *s2;
            }
            (Accumulator::Avg { total, count }, Accumulator::Avg { total: t2, count: c2 }) => {
                *total += t2;
                *count += c2;
            }
            (Accumulator::Min(a), Accumulator::Min(Some(b))) => {
                let replace = match a {
                    Some(c) => b.total_cmp(c) == std::cmp::Ordering::Less,
                    None => true,
                };
                if replace {
                    *a = Some(b.clone());
                }
            }
            (Accumulator::Min(_), Accumulator::Min(None)) => {}
            (Accumulator::Max(a), Accumulator::Max(Some(b))) => {
                let replace = match a {
                    Some(c) => b.total_cmp(c) == std::cmp::Ordering::Greater,
                    None => true,
                };
                if replace {
                    *a = Some(b.clone());
                }
            }
            (Accumulator::Max(_), Accumulator::Max(None)) => {}
            (Accumulator::Count(a), Accumulator::Count(b)) => *a += b,
            (Accumulator::CountDistinct(a), Accumulator::CountDistinct(b)) => {
                a.extend(b.iter().cloned());
            }
            (a, b) => {
                return Err(QuokkaError::internal(format!(
                    "cannot merge accumulators {a:?} and {b:?}"
                )))
            }
        }
        Ok(())
    }

    /// Produce the final value.
    pub fn finalize(&self) -> ScalarValue {
        match self {
            Accumulator::Sum { total, integer, .. } => {
                if *integer {
                    ScalarValue::Int64(*total as i64)
                } else {
                    ScalarValue::Float64(*total)
                }
            }
            Accumulator::Avg { total, count } => {
                if *count == 0 {
                    ScalarValue::Float64(0.0)
                } else {
                    ScalarValue::Float64(total / *count as f64)
                }
            }
            Accumulator::Min(v) => v.clone().unwrap_or(ScalarValue::Float64(f64::NAN)),
            Accumulator::Max(v) => v.clone().unwrap_or(ScalarValue::Float64(f64::NAN)),
            Accumulator::Count(n) => ScalarValue::Int64(*n as i64),
            Accumulator::CountDistinct(set) => ScalarValue::Int64(set.len() as i64),
        }
    }

    /// Approximate in-memory footprint, used to size state checkpoints.
    pub fn state_bytes(&self) -> usize {
        match self {
            Accumulator::Sum { .. } => 16,
            Accumulator::Avg { .. } => 16,
            Accumulator::Min(v) | Accumulator::Max(v) => {
                16 + v.as_ref().map(|s| s.to_string().len()).unwrap_or(0)
            }
            Accumulator::Count(_) => 8,
            Accumulator::CountDistinct(set) => 16 + set.iter().map(|s| s.len() + 8).sum::<usize>(),
        }
    }
}

// ---------------------------------------------------------------------------
// Vectorized accumulator state
// ---------------------------------------------------------------------------

/// Typed per-group minimum/maximum storage, one slot per group id.
#[derive(Debug, Clone, PartialEq)]
pub enum MinMaxValues {
    I64(Vec<i64>),
    F64(Vec<f64>),
    Str(Vec<String>),
    Bool(Vec<bool>),
    Date(Vec<i32>),
}

impl MinMaxValues {
    fn new(input_type: DataType) -> Self {
        match input_type {
            DataType::Int64 => MinMaxValues::I64(Vec::new()),
            DataType::Float64 => MinMaxValues::F64(Vec::new()),
            DataType::Utf8 => MinMaxValues::Str(Vec::new()),
            DataType::Bool => MinMaxValues::Bool(Vec::new()),
            DataType::Date => MinMaxValues::Date(Vec::new()),
        }
    }

    fn resize(&mut self, len: usize) {
        match self {
            MinMaxValues::I64(v) => v.resize(len, 0),
            MinMaxValues::F64(v) => v.resize(len, f64::NAN),
            MinMaxValues::Str(v) => v.resize(len, String::new()),
            MinMaxValues::Bool(v) => v.resize(len, false),
            MinMaxValues::Date(v) => v.resize(len, 0),
        }
    }
}

/// Typed per-group distinct-value sets for `COUNT(DISTINCT ...)`.
///
/// Unlike the scalar [`Accumulator`], values are deduplicated on their typed
/// representation (floats by bit pattern) instead of their display string,
/// so no formatting or allocation happens on the update path; only a
/// first-seen string value is cloned into its set.
#[derive(Debug, Clone, PartialEq)]
pub enum DistinctSets {
    I64(Vec<BTreeSet<i64>>),
    Bits(Vec<BTreeSet<u64>>),
    Str(Vec<BTreeSet<String>>),
}

/// Vectorized running state of one aggregate across all groups; the group id
/// (dense, assigned by the operator's key table) indexes every vector.
#[derive(Debug, Clone, PartialEq)]
pub enum AggState {
    Sum { totals: Vec<f64>, integer: bool },
    Avg { totals: Vec<f64>, counts: Vec<u64> },
    Min { values: MinMaxValues, seen: Vec<bool> },
    Max { values: MinMaxValues, seen: Vec<bool> },
    Count { counts: Vec<u64> },
    CountDistinct { sets: DistinctSets },
}

impl AggState {
    pub fn new(func: AggFunc, input_type: DataType) -> Self {
        match func {
            AggFunc::Sum => {
                AggState::Sum { totals: Vec::new(), integer: input_type == DataType::Int64 }
            }
            AggFunc::Avg => AggState::Avg { totals: Vec::new(), counts: Vec::new() },
            AggFunc::Min => {
                AggState::Min { values: MinMaxValues::new(input_type), seen: Vec::new() }
            }
            AggFunc::Max => {
                AggState::Max { values: MinMaxValues::new(input_type), seen: Vec::new() }
            }
            AggFunc::Count => AggState::Count { counts: Vec::new() },
            AggFunc::CountDistinct => {
                let sets = match input_type {
                    DataType::Utf8 => DistinctSets::Str(Vec::new()),
                    DataType::Float64 => DistinctSets::Bits(Vec::new()),
                    _ => DistinctSets::I64(Vec::new()),
                };
                AggState::CountDistinct { sets }
            }
        }
    }

    /// Number of groups currently tracked.
    pub fn num_groups(&self) -> usize {
        match self {
            AggState::Sum { totals, .. } => totals.len(),
            AggState::Avg { totals, .. } => totals.len(),
            AggState::Min { seen, .. } | AggState::Max { seen, .. } => seen.len(),
            AggState::Count { counts } => counts.len(),
            AggState::CountDistinct { sets } => match sets {
                DistinctSets::I64(v) => v.len(),
                DistinctSets::Bits(v) => v.len(),
                DistinctSets::Str(v) => v.len(),
            },
        }
    }

    /// Grow to `num_groups` group slots (new groups start empty).
    pub fn resize(&mut self, num_groups: usize) {
        match self {
            AggState::Sum { totals, .. } => totals.resize(num_groups, 0.0),
            AggState::Avg { totals, counts } => {
                totals.resize(num_groups, 0.0);
                counts.resize(num_groups, 0);
            }
            AggState::Min { values, seen } | AggState::Max { values, seen } => {
                values.resize(num_groups);
                seen.resize(num_groups, false);
            }
            AggState::Count { counts } => counts.resize(num_groups, 0),
            AggState::CountDistinct { sets } => match sets {
                DistinctSets::I64(v) => v.resize(num_groups, BTreeSet::new()),
                DistinctSets::Bits(v) => v.resize(num_groups, BTreeSet::new()),
                DistinctSets::Str(v) => v.resize(num_groups, BTreeSet::new()),
            },
        }
    }

    /// Fold a whole column into the state: row `i` updates group
    /// `group_ids[i]`. `num_groups` is the group count after key interning
    /// for this batch (the state grows to it before updating).
    pub fn update_batch(
        &mut self,
        column: &Column,
        group_ids: &[u32],
        num_groups: usize,
    ) -> Result<()> {
        // One decode per batch per aggregate: the typed fold loops below
        // then run on plain slices regardless of the input encoding.
        let column = column.decoded();
        let column = column.as_ref();
        self.resize(num_groups);
        let type_err = |what: &str, col: &Column| {
            Err(QuokkaError::TypeError(format!("{what} aggregate over {} column", col.data_type())))
        };
        match self {
            AggState::Sum { totals, .. } => match column {
                Column::Int64(v) => {
                    for (x, &g) in v.iter().zip(group_ids) {
                        totals[g as usize] += *x as f64;
                    }
                }
                Column::Float64(v) => {
                    for (x, &g) in v.iter().zip(group_ids) {
                        totals[g as usize] += *x;
                    }
                }
                Column::Date(v) => {
                    for (x, &g) in v.iter().zip(group_ids) {
                        totals[g as usize] += *x as f64;
                    }
                }
                other => return type_err("Sum", other),
            },
            AggState::Avg { totals, counts } => match column {
                Column::Int64(v) => {
                    for (x, &g) in v.iter().zip(group_ids) {
                        totals[g as usize] += *x as f64;
                        counts[g as usize] += 1;
                    }
                }
                Column::Float64(v) => {
                    for (x, &g) in v.iter().zip(group_ids) {
                        totals[g as usize] += *x;
                        counts[g as usize] += 1;
                    }
                }
                Column::Date(v) => {
                    for (x, &g) in v.iter().zip(group_ids) {
                        totals[g as usize] += *x as f64;
                        counts[g as usize] += 1;
                    }
                }
                other => return type_err("Avg", other),
            },
            AggState::Min { values, seen } => update_minmax(values, seen, column, group_ids, true)?,
            AggState::Max { values, seen } => {
                update_minmax(values, seen, column, group_ids, false)?
            }
            AggState::Count { counts } => {
                for &g in group_ids {
                    counts[g as usize] += 1;
                }
            }
            AggState::CountDistinct { sets } => match (sets, column) {
                (DistinctSets::I64(sets), Column::Int64(v)) => {
                    for (x, &g) in v.iter().zip(group_ids) {
                        sets[g as usize].insert(*x);
                    }
                }
                (DistinctSets::I64(sets), Column::Date(v)) => {
                    for (x, &g) in v.iter().zip(group_ids) {
                        sets[g as usize].insert(*x as i64);
                    }
                }
                (DistinctSets::I64(sets), Column::Bool(v)) => {
                    for (x, &g) in v.iter().zip(group_ids) {
                        sets[g as usize].insert(*x as i64);
                    }
                }
                (DistinctSets::Bits(sets), Column::Float64(v)) => {
                    for (x, &g) in v.iter().zip(group_ids) {
                        sets[g as usize].insert(x.to_bits());
                    }
                }
                (DistinctSets::Str(sets), Column::Utf8(v)) => {
                    for (x, &g) in v.iter().zip(group_ids) {
                        let set = &mut sets[g as usize];
                        if !set.contains(x.as_str()) {
                            set.insert(x.clone());
                        }
                    }
                }
                (_, other) => return type_err("CountDistinct", other),
            },
        }
        Ok(())
    }

    /// Produce the final values for all groups as one typed column.
    pub fn finalize_column(&self) -> Column {
        match self {
            AggState::Sum { totals, integer } => {
                if *integer {
                    Column::Int64(totals.iter().map(|&t| t as i64).collect())
                } else {
                    Column::Float64(totals.clone())
                }
            }
            AggState::Avg { totals, counts } => Column::Float64(
                totals
                    .iter()
                    .zip(counts)
                    .map(|(&t, &c)| if c == 0 { 0.0 } else { t / c as f64 })
                    .collect(),
            ),
            AggState::Min { values, .. } | AggState::Max { values, .. } => match values {
                MinMaxValues::I64(v) => Column::Int64(v.clone()),
                MinMaxValues::F64(v) => Column::Float64(v.clone()),
                MinMaxValues::Str(v) => Column::Utf8(v.clone()),
                MinMaxValues::Bool(v) => Column::Bool(v.clone()),
                MinMaxValues::Date(v) => Column::Date(v.clone()),
            },
            AggState::Count { counts } => Column::Int64(counts.iter().map(|&c| c as i64).collect()),
            AggState::CountDistinct { sets } => Column::Int64(match sets {
                DistinctSets::I64(v) => v.iter().map(|s| s.len() as i64).collect(),
                DistinctSets::Bits(v) => v.iter().map(|s| s.len() as i64).collect(),
                DistinctSets::Str(v) => v.iter().map(|s| s.len() as i64).collect(),
            }),
        }
    }

    /// Approximate in-memory footprint, used to size state checkpoints.
    pub fn state_bytes(&self) -> usize {
        match self {
            AggState::Sum { totals, .. } => totals.len() * 16,
            AggState::Avg { totals, .. } => totals.len() * 16,
            AggState::Min { values, .. } | AggState::Max { values, .. } => match values {
                MinMaxValues::Str(v) => v.iter().map(|s| 16 + s.len()).sum(),
                MinMaxValues::Bool(v) => v.len() * 2,
                MinMaxValues::Date(v) => v.len() * 5,
                MinMaxValues::I64(v) => v.len() * 9,
                MinMaxValues::F64(v) => v.len() * 9,
            },
            AggState::Count { counts } => counts.len() * 8,
            AggState::CountDistinct { sets } => match sets {
                DistinctSets::I64(v) => v.iter().map(|s| 16 + s.len() * 8).sum(),
                DistinctSets::Bits(v) => v.iter().map(|s| 16 + s.len() * 8).sum(),
                DistinctSets::Str(v) => {
                    v.iter().map(|s| 16 + s.iter().map(|x| x.len() + 8).sum::<usize>()).sum()
                }
            },
        }
    }
}

fn update_minmax(
    values: &mut MinMaxValues,
    seen: &mut [bool],
    column: &Column,
    group_ids: &[u32],
    is_min: bool,
) -> Result<()> {
    // One macro-free typed loop per (storage, column) pairing; `is_min`
    // selects the comparison direction.
    match (values, column) {
        (MinMaxValues::I64(slots), Column::Int64(v)) => {
            for (x, &g) in v.iter().zip(group_ids) {
                let g = g as usize;
                if !seen[g] || (is_min && *x < slots[g]) || (!is_min && *x > slots[g]) {
                    slots[g] = *x;
                    seen[g] = true;
                }
            }
        }
        (MinMaxValues::F64(slots), Column::Float64(v)) => {
            for (x, &g) in v.iter().zip(group_ids) {
                let g = g as usize;
                let better = if is_min {
                    x.total_cmp(&slots[g]) == std::cmp::Ordering::Less
                } else {
                    x.total_cmp(&slots[g]) == std::cmp::Ordering::Greater
                };
                if !seen[g] || better {
                    slots[g] = *x;
                    seen[g] = true;
                }
            }
        }
        (MinMaxValues::Str(slots), Column::Utf8(v)) => {
            for (x, &g) in v.iter().zip(group_ids) {
                let g = g as usize;
                let better = if is_min {
                    x.as_str() < slots[g].as_str()
                } else {
                    x.as_str() > slots[g].as_str()
                };
                if !seen[g] || better {
                    slots[g].clear();
                    slots[g].push_str(x);
                    seen[g] = true;
                }
            }
        }
        (MinMaxValues::Bool(slots), Column::Bool(v)) => {
            for (x, &g) in v.iter().zip(group_ids) {
                let g = g as usize;
                if !seen[g] || (is_min && !*x & slots[g]) || (!is_min && *x & !slots[g]) {
                    slots[g] = *x;
                    seen[g] = true;
                }
            }
        }
        (MinMaxValues::Date(slots), Column::Date(v)) => {
            for (x, &g) in v.iter().zip(group_ids) {
                let g = g as usize;
                if !seen[g] || (is_min && *x < slots[g]) || (!is_min && *x > slots[g]) {
                    slots[g] = *x;
                    seen[g] = true;
                }
            }
        }
        (_, other) => {
            return Err(QuokkaError::TypeError(format!(
                "Min/Max aggregate input type changed mid-stream to {}",
                other.data_type()
            )))
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::col;

    #[test]
    fn sum_int_and_float() {
        let mut int_sum = Accumulator::new(AggFunc::Sum, DataType::Int64);
        int_sum.update(&ScalarValue::Int64(3)).unwrap();
        int_sum.update(&ScalarValue::Int64(4)).unwrap();
        assert_eq!(int_sum.finalize(), ScalarValue::Int64(7));

        let mut float_sum = Accumulator::new(AggFunc::Sum, DataType::Float64);
        float_sum.update(&ScalarValue::Float64(1.5)).unwrap();
        float_sum.update(&ScalarValue::Float64(2.5)).unwrap();
        assert_eq!(float_sum.finalize(), ScalarValue::Float64(4.0));
    }

    #[test]
    fn avg_min_max_count() {
        let mut a = Accumulator::new(AggFunc::Avg, DataType::Float64);
        for v in [2.0, 4.0, 6.0] {
            a.update(&ScalarValue::Float64(v)).unwrap();
        }
        assert_eq!(a.finalize(), ScalarValue::Float64(4.0));

        let mut mn = Accumulator::new(AggFunc::Min, DataType::Utf8);
        let mut mx = Accumulator::new(AggFunc::Max, DataType::Utf8);
        for s in ["banana", "apple", "cherry"] {
            mn.update(&ScalarValue::from(s)).unwrap();
            mx.update(&ScalarValue::from(s)).unwrap();
        }
        assert_eq!(mn.finalize(), ScalarValue::from("apple"));
        assert_eq!(mx.finalize(), ScalarValue::from("cherry"));

        let mut c = Accumulator::new(AggFunc::Count, DataType::Int64);
        c.update(&ScalarValue::Int64(9)).unwrap();
        c.update(&ScalarValue::Int64(9)).unwrap();
        assert_eq!(c.finalize(), ScalarValue::Int64(2));
    }

    #[test]
    fn count_distinct_dedups() {
        let mut c = Accumulator::new(AggFunc::CountDistinct, DataType::Utf8);
        for s in ["a", "b", "a", "c", "b"] {
            c.update(&ScalarValue::from(s)).unwrap();
        }
        assert_eq!(c.finalize(), ScalarValue::Int64(3));
        assert!(c.state_bytes() > 16);
    }

    #[test]
    fn merge_partials() {
        let mut a = Accumulator::new(AggFunc::Avg, DataType::Float64);
        a.update(&ScalarValue::Float64(1.0)).unwrap();
        let mut b = Accumulator::new(AggFunc::Avg, DataType::Float64);
        b.update(&ScalarValue::Float64(3.0)).unwrap();
        a.merge(&b).unwrap();
        assert_eq!(a.finalize(), ScalarValue::Float64(2.0));

        let mut m = Accumulator::new(AggFunc::Min, DataType::Int64);
        m.merge(&Accumulator::Min(Some(ScalarValue::Int64(5)))).unwrap();
        m.merge(&Accumulator::Min(None)).unwrap();
        assert_eq!(m.finalize(), ScalarValue::Int64(5));

        let mut bad = Accumulator::new(AggFunc::Count, DataType::Int64);
        assert!(bad.merge(&Accumulator::Min(None)).is_err());
    }

    #[test]
    fn agg_expr_output_types() {
        let schema = Schema::from_pairs(&[
            ("qty", DataType::Int64),
            ("price", DataType::Float64),
            ("name", DataType::Utf8),
        ]);
        assert_eq!(sum(col("qty"), "s").data_type(&schema).unwrap(), DataType::Int64);
        assert_eq!(sum(col("price"), "s").data_type(&schema).unwrap(), DataType::Float64);
        assert_eq!(avg(col("qty"), "a").data_type(&schema).unwrap(), DataType::Float64);
        assert_eq!(count(col("name"), "c").data_type(&schema).unwrap(), DataType::Int64);
        assert_eq!(min(col("name"), "m").data_type(&schema).unwrap(), DataType::Utf8);
        assert_eq!(max(col("qty"), "m").data_type(&schema).unwrap(), DataType::Int64);
        assert_eq!(count_distinct(col("name"), "cd").data_type(&schema).unwrap(), DataType::Int64);
    }

    #[test]
    fn empty_group_finalizers() {
        assert_eq!(
            Accumulator::new(AggFunc::Count, DataType::Int64).finalize(),
            ScalarValue::Int64(0)
        );
        assert_eq!(
            Accumulator::new(AggFunc::Avg, DataType::Float64).finalize(),
            ScalarValue::Float64(0.0)
        );
        assert_eq!(
            Accumulator::new(AggFunc::Sum, DataType::Int64).finalize(),
            ScalarValue::Int64(0)
        );
    }
}
