//! Table providers.

use parking_lot::RwLock;
use quokka_batch::{Batch, Schema};
use quokka_common::{QuokkaError, Result};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A base table's splits: immutable and shared. Every query that scans the
/// table holds the same allocation; a snapshot is a reference-count bump.
pub type TableSplits = Arc<[Batch]>;

/// A source of base tables.
///
/// Both the reference executor and the distributed engine resolve `Scan`
/// nodes through this trait; the distributed engine additionally serves
/// each table's splits as the input partitions of its scan stages.
pub trait Catalog: Send + Sync {
    /// Schema of the named table.
    fn table_schema(&self, name: &str) -> Result<Schema>;
    /// All data of the named table: its splits, shared with the catalog.
    fn table_batches(&self, name: &str) -> Result<TableSplits>;
    /// Names of every registered table.
    fn table_names(&self) -> Vec<String>;
    /// Total number of rows in the named table.
    fn table_rows(&self, name: &str) -> Result<usize> {
        Ok(self.table_batches(name)?.iter().map(Batch::num_rows).sum())
    }
    /// Approximate in-memory footprint of the named table, in bytes. Used
    /// by admission control to estimate a query's memory demand from the
    /// tables it reads.
    fn table_bytes(&self, name: &str) -> Result<u64> {
        Ok(self.table_batches(name)?.iter().map(|b| b.byte_size() as u64).sum())
    }
    /// A counter that advances whenever the set of tables (or any table's
    /// contents) changes. Plan caches key on it: a bumped generation means
    /// every previously planned statement is stale. The default (always 0)
    /// suits immutable catalogs.
    fn generation(&self) -> u64 {
        0
    }
}

/// One registered table with the statistics planning and admission read.
#[derive(Debug)]
struct Table {
    schema: Schema,
    splits: TableSplits,
    rows: usize,
    /// Encoded footprint, each shared dictionary counted once.
    bytes: u64,
}

/// A simple in-memory catalog.
#[derive(Debug, Default)]
pub struct MemoryCatalog {
    tables: RwLock<BTreeMap<String, Table>>,
    /// Bumped on every registration so dependent caches can detect change.
    generation: std::sync::atomic::AtomicU64,
}

impl MemoryCatalog {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or replace) a table, advancing the catalog generation. The
    /// splits are stored as given (no re-chunking or re-encoding); the row
    /// count and footprint are computed here, once.
    pub fn register(&self, name: impl Into<String>, schema: Schema, batches: Vec<Batch>) {
        let rows = batches.iter().map(Batch::num_rows).sum();
        let bytes = Batch::shared_memory_bytes(&batches) as u64;
        let table = Table { schema, splits: batches.into(), rows, bytes };
        let mut tables = self.tables.write();
        tables.insert(name.into(), table);
        // Bumped under the write lock so a reader never observes new data
        // with an old generation.
        self.generation.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
    }

    fn lookup<T>(&self, name: &str, read: impl FnOnce(&Table) -> T) -> Result<T> {
        self.tables
            .read()
            .get(name)
            .map(read)
            .ok_or_else(|| QuokkaError::PlanError(format!("unknown table '{name}'")))
    }
}

impl Catalog for MemoryCatalog {
    fn table_schema(&self, name: &str) -> Result<Schema> {
        self.lookup(name, |t| t.schema.clone())
    }

    fn table_batches(&self, name: &str) -> Result<TableSplits> {
        self.lookup(name, |t| Arc::clone(&t.splits))
    }

    fn table_names(&self) -> Vec<String> {
        self.tables.read().keys().cloned().collect()
    }

    fn table_rows(&self, name: &str) -> Result<usize> {
        self.lookup(name, |t| t.rows)
    }

    /// The *encoded* footprint: a dictionary/bit-packed table admits more
    /// concurrent queries than its plain decoding would.
    fn table_bytes(&self, name: &str) -> Result<u64> {
        self.lookup(name, |t| t.bytes)
    }

    fn generation(&self) -> u64 {
        self.generation.load(std::sync::atomic::Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quokka_batch::{Column, DataType};

    #[test]
    fn register_and_lookup() {
        let catalog = MemoryCatalog::new();
        let schema = Schema::from_pairs(&[("id", DataType::Int64)]);
        let batch = Batch::try_new(schema.clone(), vec![Column::Int64(vec![1, 2, 3])]).unwrap();
        catalog.register("t", schema.clone(), vec![batch.clone(), batch]);
        assert_eq!(catalog.table_schema("t").unwrap(), schema);
        assert_eq!(catalog.table_batches("t").unwrap().len(), 2);
        assert_eq!(catalog.table_rows("t").unwrap(), 6);
        assert_eq!(catalog.table_names(), vec!["t".to_string()]);
        assert!(catalog.table_schema("missing").is_err());
        assert!(catalog.table_batches("missing").is_err());
    }

    #[test]
    fn generation_advances_on_registration_and_bytes_are_estimated() {
        let catalog = MemoryCatalog::new();
        assert_eq!(catalog.generation(), 0);
        let schema = Schema::from_pairs(&[("id", DataType::Int64)]);
        let batch = Batch::try_new(schema.clone(), vec![Column::Int64(vec![1, 2, 3])]).unwrap();
        catalog.register("t", schema.clone(), vec![batch.clone()]);
        assert_eq!(catalog.generation(), 1);
        assert_eq!(catalog.table_bytes("t").unwrap(), batch.byte_size() as u64);
        assert!(catalog.table_bytes("missing").is_err());
        // Re-registering the *same* name still bumps: contents may differ.
        catalog.register("t", schema, vec![batch]);
        assert_eq!(catalog.generation(), 2);
    }

    #[test]
    fn table_bytes_reflects_encoded_footprint() {
        let catalog = MemoryCatalog::new();
        let schema = Schema::from_pairs(&[("mode", DataType::Utf8)]);
        let plain = Column::Utf8(
            (0..256).map(|i| ["TRUCK", "AIRMAIL", "RAIL"][i % 3].to_string()).collect(),
        );
        let encoded = plain.encode_auto();
        assert!(encoded.is_encoded(), "repetitive strings must dictionary-encode");
        let batch = Batch::try_new(schema.clone(), vec![encoded]).unwrap();
        catalog.register("t", schema, vec![batch.clone()]);
        let bytes = catalog.table_bytes("t").unwrap();
        assert_eq!(bytes, batch.memory_bytes() as u64);
        assert!(
            bytes < batch.byte_size() as u64,
            "admission estimate should see the encoded footprint ({bytes} vs {})",
            batch.byte_size()
        );
    }

    #[test]
    fn table_batches_share_one_allocation() {
        let catalog = MemoryCatalog::new();
        let schema = Schema::from_pairs(&[("id", DataType::Int64)]);
        let batch = Batch::try_new(schema.clone(), vec![Column::Int64(vec![1, 2, 3])]).unwrap();
        catalog.register("t", schema, batch.chunks(2));
        let first = catalog.table_batches("t").unwrap();
        let second = catalog.table_batches("t").unwrap();
        assert!(Arc::ptr_eq(&first, &second), "a snapshot must not copy the table");
        assert_eq!(first.len(), 2);
    }

    #[test]
    fn table_bytes_counts_a_shared_dictionary_once() {
        let catalog = MemoryCatalog::new();
        let schema = Schema::from_pairs(&[("comment", DataType::Utf8)]);
        let plain =
            Column::Utf8((0..1000).map(|i| format!("comment number {}", i % 300)).collect());
        let encoded = plain.encode_auto();
        let Column::Dict(dict) = &encoded else {
            panic!("repetitive strings must dictionary-encode")
        };
        let dictionary = dict.dictionary_bytes();
        let splits = Batch::try_new(schema.clone(), vec![encoded.clone()]).unwrap().chunks(100);
        assert_eq!(splits.len(), 10);
        catalog.register("t", schema, splits.clone());
        let codes: usize = 4 * 1000;
        assert_eq!(catalog.table_bytes("t").unwrap(), (codes + dictionary) as u64);
        // Summing per split would count the one dictionary ten times.
        let per_split: usize = splits.iter().map(Batch::memory_bytes).sum();
        assert_eq!(per_split, codes + 10 * dictionary);
        assert_eq!(catalog.table_rows("t").unwrap(), 1000);
    }
}
