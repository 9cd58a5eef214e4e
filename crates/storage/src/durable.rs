//! The durable object store (the S3/HDFS stand-in).

use crate::cost::CostModel;
use bytes::Bytes;
use parking_lot::RwLock;
use quokka_batch::{Batch, Schema};
use quokka_common::metrics::MetricsRegistry;
use quokka_common::{QuokkaError, Result};
use std::collections::BTreeMap;
use std::sync::Arc;

/// What the engine needs from a durable store, as an object-safe trait.
///
/// The default implementation is the in-process [`DurableObjectStore`]. In
/// process mode each worker process substitutes a proxy that forwards these
/// calls to the driver's store over the control connection — the engine
/// holds an `Arc<dyn ObjectStore>` and cannot tell the difference, just as
/// TaskManagers in the paper are indifferent to where S3 actually is.
pub trait ObjectStore: Send + Sync + std::fmt::Debug {
    /// PUT an object, charging the durable write path.
    fn put(&self, key: String, payload: Bytes);
    /// GET an object, charging the durable read path.
    fn get(&self, key: &str) -> Result<Bytes>;
    /// Whether an object exists.
    fn contains(&self, key: &str) -> bool;
    /// Keys starting with `prefix`, in order.
    fn list_prefix(&self, prefix: &str) -> Vec<String>;
    /// Read split `split` of base table `table`, projected to the columns
    /// of `schema` (a scan's pruned schema), charging the durable read
    /// path for the bytes returned.
    fn read_split(&self, table: &str, split: u64, schema: &Schema) -> Result<Batch>;
}

impl ObjectStore for DurableObjectStore {
    fn put(&self, key: String, payload: Bytes) {
        DurableObjectStore::put(self, key, payload);
    }

    fn get(&self, key: &str) -> Result<Bytes> {
        DurableObjectStore::get(self, key)
    }

    fn contains(&self, key: &str) -> bool {
        DurableObjectStore::contains(self, key)
    }

    fn list_prefix(&self, prefix: &str) -> Vec<String> {
        DurableObjectStore::list_prefix(self, prefix)
    }

    fn read_split(&self, table: &str, split: u64, schema: &Schema) -> Result<Batch> {
        DurableObjectStore::read_split(self, table, split, schema)
    }
}

/// A cluster-wide, reliable object store.
///
/// Contents survive worker failures (this is where the TPC-H source tables
/// live, where Trino-style spooling writes shuffle partitions, and where the
/// checkpointing strategy writes operator state). Every request is charged
/// to the durable-path cost model, which is why spooling and checkpointing
/// show up as normal-execution overhead in the Fig. 9 reproduction.
///
/// Base tables are not objects: the store holds handles to the catalog's
/// immutable splits (the paper's input already sits in S3 when a query
/// starts), so loading them copies and encodes nothing.
#[derive(Debug)]
pub struct DurableObjectStore {
    objects: RwLock<BTreeMap<String, Bytes>>,
    tables: BTreeMap<String, Arc<[Batch]>>,
    cost: CostModel,
    metrics: Arc<MetricsRegistry>,
}

impl DurableObjectStore {
    /// A store whose base tables are `tables` (shared, not copied).
    pub fn new(
        cost: CostModel,
        metrics: Arc<MetricsRegistry>,
        tables: BTreeMap<String, Arc<[Batch]>>,
    ) -> Self {
        DurableObjectStore { objects: RwLock::new(BTreeMap::new()), tables, cost, metrics }
    }

    /// A store with no tables, no simulated delays and throw-away metrics
    /// (tests).
    pub fn in_memory() -> Self {
        Self::new(CostModel::free(), MetricsRegistry::new(), BTreeMap::new())
    }

    /// PUT an object, charging the durable write path and the
    /// `durable_bytes` metric.
    pub fn put(&self, key: impl Into<String>, payload: Bytes) {
        self.cost.charge_durable(payload.len() as u64);
        self.metrics.add_durable_bytes(payload.len() as u64);
        self.objects.write().insert(key.into(), payload);
    }

    /// GET an object, charging the durable read path.
    pub fn get(&self, key: &str) -> Result<Bytes> {
        let payload = self
            .objects
            .read()
            .get(key)
            .cloned()
            .ok_or_else(|| QuokkaError::NotFound(format!("durable object '{key}'")))?;
        self.cost.charge_durable(payload.len() as u64);
        Ok(payload)
    }

    /// GET without charging (used by test assertions).
    pub fn get_unmetered(&self, key: &str) -> Option<Bytes> {
        self.objects.read().get(key).cloned()
    }

    /// Read one base-table split, projected to `schema`'s columns. Only
    /// those columns are cloned; nothing is decoded. The read is charged
    /// like a GET of the bytes it returns.
    pub fn read_split(&self, table: &str, split: u64, schema: &Schema) -> Result<Batch> {
        let batch = self
            .tables
            .get(table)
            .and_then(|splits| splits.get(split as usize))
            .ok_or_else(|| QuokkaError::NotFound(format!("split {split} of table '{table}'")))?
            .project_to(schema)?;
        self.cost.charge_durable(batch.memory_bytes() as u64);
        Ok(batch)
    }

    pub fn contains(&self, key: &str) -> bool {
        self.objects.read().contains_key(key)
    }

    pub fn delete(&self, key: &str) -> bool {
        self.objects.write().remove(key).is_some()
    }

    /// Keys starting with `prefix`, in order.
    pub fn list_prefix(&self, prefix: &str) -> Vec<String> {
        self.objects
            .read()
            .range(prefix.to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, _)| k.clone())
            .collect()
    }

    pub fn len(&self) -> usize {
        self.objects.read().len()
    }

    pub fn is_empty(&self) -> bool {
        self.objects.read().is_empty()
    }

    /// Total bytes stored.
    pub fn byte_size(&self) -> u64 {
        self.objects.read().values().map(|v| v.len() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quokka_batch::{Column, DataType};
    use std::time::Duration;

    #[test]
    fn put_get_list_delete() {
        let s = DurableObjectStore::in_memory();
        s.put("spool/q1/a", Bytes::from_static(b"one"));
        s.put("spool/q1/b", Bytes::from_static(b"two"));
        s.put("tables/lineitem/0", Bytes::from_static(b"data"));
        assert_eq!(s.get("spool/q1/a").unwrap(), Bytes::from_static(b"one"));
        assert!(s.get("missing").is_err());
        assert_eq!(s.list_prefix("spool/"), vec!["spool/q1/a", "spool/q1/b"]);
        assert_eq!(s.len(), 3);
        assert!(s.contains("tables/lineitem/0"));
        assert!(s.delete("spool/q1/a"));
        assert!(!s.delete("spool/q1/a"));
        assert_eq!(s.byte_size(), 3 + 4);
    }

    #[test]
    fn contents_survive_everything_short_of_delete() {
        // Unlike LocalBackupStore there is no fail(); durability is the point.
        let s = DurableObjectStore::in_memory();
        s.put("k", Bytes::from_static(b"v"));
        assert_eq!(s.get_unmetered("k").unwrap(), Bytes::from_static(b"v"));
        assert!(!s.is_empty());
    }

    fn table() -> Arc<[Batch]> {
        let schema = Schema::from_pairs(&[("id", DataType::Int64), ("name", DataType::Utf8)]);
        let batch = Batch::try_new(
            schema,
            vec![
                Column::Int64((0..6).collect()),
                Column::Utf8((0..6).map(|i| format!("n{i}")).collect()),
            ],
        )
        .unwrap();
        batch.chunks(4).into()
    }

    #[test]
    fn metered_and_unmetered_puts() {
        // Preloaded base tables are never metered as durable writes; only
        // puts made while the query runs are.
        let metrics = MetricsRegistry::new();
        let tables = BTreeMap::from([("t".to_string(), table())]);
        let s = DurableObjectStore::new(CostModel::free(), Arc::clone(&metrics), tables);
        s.put("spooled", Bytes::from(vec![0u8; 64]));
        let snap = metrics.snapshot(Duration::ZERO);
        assert_eq!(snap.durable_bytes, 64);
        assert!(s.read_split("t", 0, table()[0].schema()).is_ok());
    }

    #[test]
    fn split_reads_project_the_shared_split() {
        let tables = BTreeMap::from([("t".to_string(), table())]);
        let s = DurableObjectStore::new(CostModel::free(), MetricsRegistry::new(), tables);
        let names = Schema::from_pairs(&[("name", DataType::Utf8)]);
        let split = s.read_split("t", 1, &names).unwrap();
        assert_eq!(split.schema(), &names);
        assert_eq!(split.as_strs("name").unwrap(), vec!["n4", "n5"]);
        assert!(matches!(s.read_split("t", 2, &names), Err(QuokkaError::NotFound(_))));
        assert!(matches!(s.read_split("u", 0, &names), Err(QuokkaError::NotFound(_))));
        let missing = Schema::from_pairs(&[("nope", DataType::Utf8)]);
        assert!(s.read_split("t", 0, &missing).is_err());
    }
}
