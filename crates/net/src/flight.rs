//! One worker's flight server (push inbox).

use parking_lot::RwLock;
use quokka_batch::Batch;
use quokka_common::ids::{ChannelAddr, PartitionName, SeqNo, WorkerId};
use quokka_common::{QuokkaError, Result};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Called with the consumer channel of every slice that arrives off the
/// wire ([`FlightServer::deliver`]); the engine wakes the thread hosting
/// that channel.
pub type ArrivalHook = Arc<dyn Fn(ChannelAddr) + Send + Sync>;

/// Key of one pushed slice: which channel it is for, and which task produced
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SliceKey {
    pub consumer: ChannelAddr,
    pub producer: PartitionName,
}

/// A worker's inbox of pushed partition slices.
///
/// The slices live here until the consuming task takes them; when the worker
/// is killed the inbox is dropped, so any slice that had not been consumed
/// (or that the consumer will need again after being rewound) has to be
/// replayed from the producer's local backup or regenerated.
pub struct FlightServer {
    worker: WorkerId,
    inbox: RwLock<BTreeMap<SliceKey, Vec<Batch>>>,
    failed: AtomicBool,
    arrival: RwLock<Option<ArrivalHook>>,
}

impl std::fmt::Debug for FlightServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightServer")
            .field("worker", &self.worker)
            .field("slices", &self.len())
            .field("failed", &self.is_failed())
            .finish()
    }
}

impl FlightServer {
    pub fn new(worker: WorkerId) -> Self {
        FlightServer {
            worker,
            inbox: RwLock::new(BTreeMap::new()),
            failed: AtomicBool::new(false),
            arrival: RwLock::new(None),
        }
    }

    /// Run `hook` after every slice [`deliver`](Self::deliver) accepts.
    pub fn set_arrival_hook(&self, hook: ArrivalHook) {
        *self.arrival.write() = Some(hook);
    }

    /// Accept a pushed slice. Fails if this worker has been killed.
    pub fn push(
        &self,
        consumer: ChannelAddr,
        producer: PartitionName,
        batches: Vec<Batch>,
    ) -> Result<()> {
        if self.failed.load(Ordering::SeqCst) {
            return Err(QuokkaError::WorkerFailed(self.worker));
        }
        self.inbox.write().insert(SliceKey { consumer, producer }, batches);
        Ok(())
    }

    /// Accept a slice that arrived over a wire transport, then run the
    /// arrival hook. In-process pushes use [`push`](Self::push): their
    /// producer wakes the consumer itself once the lineage commits.
    pub fn deliver(
        &self,
        consumer: ChannelAddr,
        producer: PartitionName,
        batches: Vec<Batch>,
    ) -> Result<()> {
        self.push(consumer, producer, batches)?;
        if let Some(hook) = self.arrival.read().as_ref() {
            hook(consumer);
        }
        Ok(())
    }

    /// Whether a slice from `producer` for `consumer` is waiting in the inbox.
    pub fn has_slice(&self, consumer: ChannelAddr, producer: PartitionName) -> bool {
        !self.failed.load(Ordering::SeqCst)
            && self.inbox.read().contains_key(&SliceKey { consumer, producer })
    }

    /// Producer tasks from `upstream` whose slices for `consumer` are
    /// currently available, restricted to sequence numbers `>= start_seq`,
    /// in sequence order. This is the set `A ∩ B` of Algorithm 1 before the
    /// committed-lineage filter is applied.
    pub fn available_from(
        &self,
        consumer: ChannelAddr,
        upstream: ChannelAddr,
        start_seq: u32,
    ) -> Vec<PartitionName> {
        if self.failed.load(Ordering::SeqCst) {
            return Vec::new();
        }
        // Keys order by consumer, then producer stage, channel and sequence
        // number, so the slices wanted are one contiguous, sorted range.
        let from = SliceKey { consumer, producer: upstream.task(start_seq) };
        let to = SliceKey { consumer, producer: upstream.task(SeqNo::MAX) };
        self.inbox.read().range(from..=to).map(|(k, _)| k.producer).collect()
    }

    /// Remove and return a slice (the consuming task takes ownership).
    pub fn take(&self, consumer: ChannelAddr, producer: PartitionName) -> Result<Vec<Batch>> {
        if self.failed.load(Ordering::SeqCst) {
            return Err(QuokkaError::WorkerFailed(self.worker));
        }
        self.inbox
            .write()
            .remove(&SliceKey { consumer, producer })
            .ok_or_else(|| QuokkaError::NotFound(format!("slice {producer} for {consumer}")))
    }

    /// Read a slice without removing it.
    pub fn peek(&self, consumer: ChannelAddr, producer: PartitionName) -> Option<Vec<Batch>> {
        if self.failed.load(Ordering::SeqCst) {
            return None;
        }
        self.inbox.read().get(&SliceKey { consumer, producer }).cloned()
    }

    /// Number of slices waiting.
    pub fn len(&self) -> usize {
        self.inbox.read().len()
    }

    pub fn is_empty(&self) -> bool {
        self.inbox.read().is_empty()
    }

    /// Simulate the worker being killed: the inbox is lost and future pushes
    /// are rejected.
    pub fn fail(&self) {
        self.failed.store(true, Ordering::SeqCst);
        self.inbox.write().clear();
    }

    pub fn is_failed(&self) -> bool {
        self.failed.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quokka_batch::{Column, DataType, Schema};
    use quokka_common::ids::TaskName;

    fn batch(v: Vec<i64>) -> Batch {
        Batch::try_new(Schema::from_pairs(&[("x", DataType::Int64)]), vec![Column::Int64(v)])
            .unwrap()
    }

    #[test]
    fn push_take_peek() {
        let fs = FlightServer::new(0);
        let consumer = ChannelAddr::new(1, 0);
        let producer = TaskName::new(0, 0, 0);
        fs.push(consumer, producer, vec![batch(vec![1, 2])]).unwrap();
        assert!(fs.has_slice(consumer, producer));
        assert_eq!(fs.peek(consumer, producer).unwrap()[0].num_rows(), 2);
        let taken = fs.take(consumer, producer).unwrap();
        assert_eq!(taken.len(), 1);
        assert!(!fs.has_slice(consumer, producer));
        assert!(fs.take(consumer, producer).is_err());
    }

    #[test]
    fn available_from_orders_and_filters() {
        let fs = FlightServer::new(0);
        let consumer = ChannelAddr::new(2, 0);
        let upstream = ChannelAddr::new(1, 3);
        for seq in [4u32, 1, 2, 7] {
            fs.push(consumer, upstream.task(seq), vec![batch(vec![seq as i64])]).unwrap();
        }
        // A slice from a different upstream channel must not appear.
        fs.push(consumer, ChannelAddr::new(1, 1).task(1), vec![]).unwrap();
        // A slice for a different consumer must not appear.
        fs.push(ChannelAddr::new(2, 1), upstream.task(3), vec![]).unwrap();

        let avail = fs.available_from(consumer, upstream, 2);
        assert_eq!(avail, vec![upstream.task(2), upstream.task(4), upstream.task(7)]);
        assert_eq!(fs.available_from(consumer, upstream, 8), vec![]);
    }

    #[test]
    fn only_wire_deliveries_run_the_arrival_hook() {
        let fs = FlightServer::new(0);
        let arrived = Arc::new(RwLock::new(Vec::new()));
        let log = Arc::clone(&arrived);
        fs.set_arrival_hook(Arc::new(move |consumer| log.write().push(consumer)));
        let consumer = ChannelAddr::new(1, 0);
        fs.push(consumer, TaskName::new(0, 0, 0), vec![]).unwrap();
        assert!(arrived.read().is_empty(), "a local push does not run the hook");
        fs.deliver(consumer, TaskName::new(0, 0, 1), vec![]).unwrap();
        assert_eq!(*arrived.read(), vec![consumer]);
        assert!(fs.has_slice(consumer, TaskName::new(0, 0, 1)));
        fs.fail();
        assert!(fs.deliver(consumer, TaskName::new(0, 0, 2), vec![]).is_err());
        assert_eq!(arrived.read().len(), 1, "a rejected delivery wakes nobody");
    }

    #[test]
    fn failure_drops_inbox_and_rejects_pushes() {
        let fs = FlightServer::new(5);
        let consumer = ChannelAddr::new(1, 0);
        fs.push(consumer, TaskName::new(0, 0, 0), vec![batch(vec![1])]).unwrap();
        fs.fail();
        assert!(fs.is_failed());
        assert!(fs.is_empty());
        assert!(matches!(
            fs.push(consumer, TaskName::new(0, 0, 1), vec![]),
            Err(QuokkaError::WorkerFailed(5))
        ));
        assert!(fs.peek(consumer, TaskName::new(0, 0, 0)).is_none());
        assert!(fs.available_from(consumer, ChannelAddr::new(0, 0), 0).is_empty());
    }
}
