//! [`Batch`]: the unit of data flowing between tasks.

use crate::column::Column;
use crate::datatype::ScalarValue;
use crate::schema::Schema;
use quokka_common::{QuokkaError, Result};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// An immutable bundle of equal-length columns with a schema.
///
/// A task's output "data partition" (paper terminology) is a sequence of
/// batches destined for one downstream channel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Batch {
    schema: Schema,
    columns: Vec<Column>,
    rows: usize,
}

impl Batch {
    /// Create a batch, validating that the columns match the schema.
    pub fn try_new(schema: Schema, columns: Vec<Column>) -> Result<Self> {
        if schema.len() != columns.len() {
            return Err(QuokkaError::SchemaMismatch {
                expected: schema.to_string(),
                actual: format!("{} columns", columns.len()),
            });
        }
        let rows = columns.first().map(Column::len).unwrap_or(0);
        for (field, col) in schema.fields().iter().zip(&columns) {
            if field.data_type != col.data_type() {
                return Err(QuokkaError::SchemaMismatch {
                    expected: schema.to_string(),
                    actual: format!("column '{}' has type {}", field.name, col.data_type()),
                });
            }
            if col.len() != rows {
                return Err(QuokkaError::SchemaMismatch {
                    expected: format!("{rows} rows"),
                    actual: format!("column '{}' has {} rows", field.name, col.len()),
                });
            }
        }
        Ok(Batch { schema, columns, rows })
    }

    /// An empty batch with the given schema.
    pub fn empty(schema: Schema) -> Self {
        let columns = schema.fields().iter().map(|f| Column::empty(f.data_type)).collect();
        Batch { schema, columns, rows: 0 }
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn num_rows(&self) -> usize {
        self.rows
    }

    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    pub fn column(&self, index: usize) -> &Column {
        &self.columns[index]
    }

    /// The column named `name`.
    pub fn column_by_name(&self, name: &str) -> Result<&Column> {
        Ok(&self.columns[self.schema.index_of(name)?])
    }

    /// The `Int64` column named `name` as a typed slice.
    ///
    /// Unlike indexing + pattern matching, the typed accessors return a
    /// `Result` for both failure modes (unknown name, wrong type), so test
    /// and application code never needs a panicking downcast path.
    pub fn as_i64s(&self, name: &str) -> Result<&[i64]> {
        self.column_by_name(name)?.as_i64()
    }

    /// The `Float64` column named `name` as a typed slice.
    pub fn as_f64s(&self, name: &str) -> Result<&[f64]> {
        self.column_by_name(name)?.as_f64()
    }

    /// The `Utf8` column named `name` as a typed slice.
    pub fn as_strs(&self, name: &str) -> Result<&[String]> {
        self.column_by_name(name)?.as_utf8()
    }

    /// The `Bool` column named `name` as a typed slice.
    pub fn as_bools(&self, name: &str) -> Result<&[bool]> {
        self.column_by_name(name)?.as_bool()
    }

    /// The `Date` column named `name` as a typed slice (days since epoch).
    pub fn as_dates(&self, name: &str) -> Result<&[i32]> {
        self.column_by_name(name)?.as_date()
    }

    /// The value at (`row`, `col`).
    pub fn value(&self, row: usize, col: usize) -> ScalarValue {
        self.columns[col].get(row)
    }

    /// One full row as scalars (used by tests and the reference executor).
    pub fn row(&self, row: usize) -> Vec<ScalarValue> {
        self.columns.iter().map(|c| c.get(row)).collect()
    }

    /// Keep the rows where `mask` is true.
    pub fn filter(&self, mask: &[bool]) -> Result<Batch> {
        if mask.len() != self.rows {
            return Err(QuokkaError::internal(format!(
                "filter mask has {} entries for {} rows",
                mask.len(),
                self.rows
            )));
        }
        let columns: Vec<Column> = self.columns.iter().map(|c| c.filter(mask)).collect();
        Batch::try_new(self.schema.clone(), columns)
    }

    /// Gather the rows at `indices`.
    pub fn take(&self, indices: &[usize]) -> Result<Batch> {
        let columns: Vec<Column> = self.columns.iter().map(|c| c.take(indices)).collect();
        Batch::try_new(self.schema.clone(), columns)
    }

    /// Rows `[offset, offset+len)`.
    pub fn slice(&self, offset: usize, len: usize) -> Batch {
        let columns: Vec<Column> = self.columns.iter().map(|c| c.slice(offset, len)).collect();
        Batch { schema: self.schema.clone(), columns, rows: len }
    }

    /// Project columns by index, producing a batch with the projected schema.
    pub fn project(&self, indices: &[usize]) -> Batch {
        let schema = self.schema.project(indices);
        let columns = indices.iter().map(|&i| self.columns[i].clone()).collect();
        Batch { schema, columns, rows: self.rows }
    }

    /// Project this batch down to the columns of `target` (a subset of this
    /// batch's schema, matched by name). Scans narrowed by the optimizer's
    /// projection pruning use this to drop unreferenced table columns at
    /// read time; a batch already shaped like `target` moves through
    /// untouched (by value, so the unpruned fast path copies nothing).
    pub fn select_to(self, target: &Schema) -> Result<Batch> {
        if self.schema() == target {
            return Ok(self);
        }
        self.project_to(target)
    }

    /// [`select_to`](Batch::select_to) by reference: clone only the columns
    /// of `target`. Scans read shared base-table splits this way.
    pub fn project_to(&self, target: &Schema) -> Result<Batch> {
        let indices = target
            .fields()
            .iter()
            .map(|f| self.schema.index_of(&f.name))
            .collect::<Result<Vec<_>>>()?;
        Ok(self.project(&indices))
    }

    /// Concatenate batches that share a schema. An empty slice produces an
    /// error (there is no schema to give the result).
    pub fn concat(batches: &[Batch]) -> Result<Batch> {
        let first =
            batches.first().ok_or_else(|| QuokkaError::internal("concat of zero batches"))?;
        let schema = first.schema().clone();
        let mut columns = Vec::with_capacity(schema.len());
        for i in 0..schema.len() {
            let cols: Vec<&Column> = batches.iter().map(|b| b.column(i)).collect();
            columns.push(Column::concat(&cols)?);
        }
        Batch::try_new(schema, columns)
    }

    /// Approximate in-memory footprint in bytes.
    pub fn byte_size(&self) -> usize {
        self.columns.iter().map(Column::byte_size).sum()
    }

    /// Actual in-memory footprint of this batch's columns, compressed
    /// encodings included. At most [`byte_size`](Batch::byte_size); smaller
    /// whenever columns are dictionary-, bit-pack- or XOR-encoded.
    pub fn memory_bytes(&self) -> usize {
        self.columns.iter().map(Column::memory_bytes).sum()
    }

    /// Joint in-memory footprint of `batches`, counting a dictionary that
    /// several columns or batches share (the chunks of one encoded table
    /// column) once instead of once per column.
    pub fn shared_memory_bytes(batches: &[Batch]) -> usize {
        let mut dictionaries = std::collections::HashSet::new();
        let mut bytes = 0;
        for column in batches.iter().flat_map(|b| b.columns.iter()) {
            bytes += match column {
                Column::Dict(d) if !dictionaries.insert(Arc::as_ptr(&d.values)) => d.codes_bytes(),
                other => other.memory_bytes(),
            };
        }
        bytes
    }

    /// Split this batch into chunks of at most `chunk_rows` rows. Returns at
    /// least one (possibly empty) batch.
    pub fn chunks(&self, chunk_rows: usize) -> Vec<Batch> {
        assert!(chunk_rows > 0, "chunk_rows must be positive");
        if self.rows == 0 {
            return vec![self.clone()];
        }
        let mut out = Vec::with_capacity(self.rows.div_ceil(chunk_rows));
        let mut offset = 0;
        while offset < self.rows {
            let len = chunk_rows.min(self.rows - offset);
            out.push(self.slice(offset, len));
            offset += len;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatype::DataType;

    fn sample() -> Batch {
        let schema = Schema::from_pairs(&[("id", DataType::Int64), ("name", DataType::Utf8)]);
        Batch::try_new(
            schema,
            vec![
                Column::Int64(vec![1, 2, 3, 4]),
                Column::Utf8(vec!["a".into(), "b".into(), "c".into(), "d".into()]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_validates_schema() {
        let schema = Schema::from_pairs(&[("id", DataType::Int64)]);
        assert!(Batch::try_new(schema.clone(), vec![Column::Utf8(vec![])]).is_err());
        assert!(Batch::try_new(schema.clone(), vec![]).is_err());
        let mismatched_len = Batch::try_new(
            Schema::from_pairs(&[("a", DataType::Int64), ("b", DataType::Int64)]),
            vec![Column::Int64(vec![1]), Column::Int64(vec![1, 2])],
        );
        assert!(mismatched_len.is_err());
        assert!(Batch::try_new(schema, vec![Column::Int64(vec![5])]).is_ok());
    }

    #[test]
    fn row_and_value_access() {
        let b = sample();
        assert_eq!(b.num_rows(), 4);
        assert_eq!(b.num_columns(), 2);
        assert_eq!(b.value(2, 0), ScalarValue::Int64(3));
        assert_eq!(b.row(1), vec![ScalarValue::Int64(2), ScalarValue::Utf8("b".into())]);
        assert_eq!(b.column_by_name("name").unwrap().len(), 4);
        assert!(b.column_by_name("missing").is_err());
    }

    #[test]
    fn typed_accessors_return_errors_not_panics() {
        let b = sample();
        assert_eq!(b.as_i64s("id").unwrap(), &[1, 2, 3, 4]);
        assert_eq!(b.as_strs("name").unwrap()[0], "a");
        // Unknown name and wrong type are both plain errors.
        assert!(b.as_i64s("missing").is_err());
        assert!(b.as_f64s("id").is_err());
        assert!(b.as_bools("name").is_err());
        assert!(b.as_dates("id").is_err());
    }

    #[test]
    fn filter_take_slice_project() {
        let b = sample();
        let f = b.filter(&[true, false, false, true]).unwrap();
        assert_eq!(f.num_rows(), 2);
        assert_eq!(f.value(1, 1), ScalarValue::Utf8("d".into()));

        let t = b.take(&[2, 2]).unwrap();
        assert_eq!(t.column(0), &Column::Int64(vec![3, 3]));

        let s = b.slice(1, 2);
        assert_eq!(s.column(0), &Column::Int64(vec![2, 3]));

        let p = b.project(&[1]);
        assert_eq!(p.schema().column_names(), vec!["name"]);
        assert_eq!(p.num_rows(), 4);

        assert!(b.filter(&[true]).is_err());
    }

    #[test]
    fn concat_and_chunks() {
        let b = sample();
        let joined = Batch::concat(&[b.clone(), b.clone()]).unwrap();
        assert_eq!(joined.num_rows(), 8);

        let chunks = joined.chunks(3);
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks.iter().map(Batch::num_rows).sum::<usize>(), 8);
        assert_eq!(chunks[2].num_rows(), 2);

        let empty = Batch::empty(b.schema().clone());
        assert_eq!(empty.chunks(10).len(), 1);
        assert!(Batch::concat(&[]).is_err());
    }

    #[test]
    fn byte_size_sums_columns() {
        let b = sample();
        assert_eq!(b.byte_size(), 4 * 8 + 4 * (1 + 4));
    }
}
