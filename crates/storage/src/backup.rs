//! Per-worker local-disk upstream backup.

use crate::cost::CostModel;
use bytes::Bytes;
use parking_lot::RwLock;
use quokka_common::ids::{ChannelAddr, PartitionName, WorkerId};
use quokka_common::metrics::MetricsRegistry;
use quokka_common::{QuokkaError, Result};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Key of one backed-up slice: the producer task plus the downstream channel
/// the slice is destined for.
pub type BackupKey = (PartitionName, ChannelAddr);

/// One worker's instance-attached disk used for upstream backup.
///
/// A task's output is hash-partitioned into one slice per downstream
/// channel; every slice is written here before the task's lineage commits
/// (Algorithm 1: "Store results locally on disk"). The store is *unreliable*:
/// [`fail`](LocalBackupStore::fail) wipes it, modelling the loss of the
/// instance and its NVMe drive.
#[derive(Debug)]
pub struct LocalBackupStore {
    worker: WorkerId,
    slices: RwLock<BTreeMap<BackupKey, Bytes>>,
    failed: AtomicBool,
    cost: CostModel,
    metrics: Arc<MetricsRegistry>,
}

impl LocalBackupStore {
    pub fn new(worker: WorkerId, cost: CostModel, metrics: Arc<MetricsRegistry>) -> Self {
        LocalBackupStore {
            worker,
            slices: RwLock::new(BTreeMap::new()),
            failed: AtomicBool::new(false),
            cost,
            metrics,
        }
    }

    /// Write one slice. Charges the local-disk cost model and fails if the
    /// worker has already been killed.
    pub fn put(
        &self,
        partition: PartitionName,
        consumer: ChannelAddr,
        payload: Bytes,
    ) -> Result<()> {
        if self.failed.load(Ordering::SeqCst) {
            return Err(QuokkaError::WorkerFailed(self.worker));
        }
        self.cost.charge_local_disk(payload.len() as u64);
        self.metrics.add_backup_bytes(payload.len() as u64);
        self.slices.write().insert((partition, consumer), payload);
        Ok(())
    }

    /// Read one slice back (used to replay a partition during recovery).
    pub fn get(&self, partition: PartitionName, consumer: ChannelAddr) -> Result<Bytes> {
        if self.failed.load(Ordering::SeqCst) {
            return Err(QuokkaError::WorkerFailed(self.worker));
        }
        self.slices
            .read()
            .get(&(partition, consumer))
            .cloned()
            .ok_or_else(|| QuokkaError::NotFound(format!("backup slice {partition}->{consumer}")))
    }

    /// Simulate the loss of this worker: every backed-up slice disappears
    /// and all future operations fail.
    pub fn fail(&self) {
        self.failed.store(true, Ordering::SeqCst);
        self.slices.write().clear();
    }

    /// Chaos injection: silently wipe every backed-up slice while the worker
    /// itself stays alive. Subsequent replay reads hit `NotFound`, forcing
    /// the lost-partition repair path (deeper lineage replay) instead of a
    /// simple backup re-push.
    pub fn lose_contents(&self) {
        self.slices.write().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quokka_common::ids::TaskName;

    fn store() -> LocalBackupStore {
        LocalBackupStore::new(0, CostModel::free(), MetricsRegistry::new())
    }

    #[test]
    fn put_get_contains() {
        let s = store();
        let part = TaskName::new(0, 1, 2);
        let consumer = ChannelAddr::new(1, 0);
        assert!(matches!(s.get(part, consumer), Err(QuokkaError::NotFound(_))));
        s.put(part, consumer, Bytes::from_static(b"abc")).unwrap();
        assert_eq!(s.get(part, consumer).unwrap(), Bytes::from_static(b"abc"));
        assert!(s.get(part, ChannelAddr::new(1, 1)).is_err());
    }

    #[test]
    fn failure_wipes_contents_and_rejects_operations() {
        let s = store();
        let part = TaskName::new(0, 1, 2);
        let consumer = ChannelAddr::new(1, 0);
        s.put(part, consumer, Bytes::from_static(b"abc")).unwrap();
        s.fail();
        assert!(matches!(s.get(part, consumer), Err(QuokkaError::WorkerFailed(0))));
        assert!(matches!(
            s.put(part, consumer, Bytes::from_static(b"x")),
            Err(QuokkaError::WorkerFailed(0))
        ));
    }

    #[test]
    fn losing_contents_keeps_the_store_alive() {
        let s = store();
        let part = TaskName::new(0, 1, 2);
        let consumer = ChannelAddr::new(1, 0);
        s.put(part, consumer, Bytes::from_static(b"abc")).unwrap();
        s.lose_contents();
        // Reads fail with NotFound (retry/repair), not WorkerFailed.
        assert!(matches!(s.get(part, consumer), Err(QuokkaError::NotFound(_))));
        // The store still accepts new writes.
        s.put(part, consumer, Bytes::from_static(b"xyz")).unwrap();
        assert_eq!(s.get(part, consumer).unwrap(), Bytes::from_static(b"xyz"));
    }

    #[test]
    fn metrics_count_backup_bytes() {
        let metrics = MetricsRegistry::new();
        let s = LocalBackupStore::new(3, CostModel::free(), Arc::clone(&metrics));
        s.put(TaskName::new(0, 0, 0), ChannelAddr::new(1, 0), Bytes::from(vec![0u8; 100])).unwrap();
        s.put(TaskName::new(0, 0, 1), ChannelAddr::new(1, 0), Bytes::from(vec![0u8; 50])).unwrap();
        let snap = metrics.snapshot(std::time::Duration::ZERO);
        assert_eq!(snap.backup_bytes, 150);
    }
}
