//! Placement of a compiled stage graph onto a cluster.

use quokka_common::config::ClusterConfig;
use quokka_common::ids::{ChannelAddr, StageId, WorkerId};
use quokka_common::{QuokkaError, Result};
use quokka_plan::stage::{Parallelism, StageGraph};
use std::collections::BTreeMap;

/// The concrete layout of one query on one cluster: how many channels every
/// stage runs, which worker initially hosts each channel, which input splits
/// each scan channel owns, and the flattened upstream-channel ordering used
/// by the watermark vectors in the GCS.
#[derive(Debug, Clone)]
pub struct QueryLayout {
    pub graph: StageGraph,
    workers: u32,
    /// Channels per stage.
    channel_counts: Vec<u32>,
    /// Scan stages: per channel, the split ids it owns.
    splits: Vec<Vec<Vec<u64>>>,
    /// For each stage, the consuming stage and the operator-input index this
    /// stage feeds (None for the sink).
    consumer: Vec<Option<(StageId, usize)>>,
    /// For each stage, its upstream channels in watermark order.
    upstream_channels: Vec<Vec<(usize, ChannelAddr)>>,
}

impl QueryLayout {
    /// Lay out `graph` on a cluster, given the number of splits available
    /// for each scanned table.
    pub fn new(
        graph: StageGraph,
        cluster: &ClusterConfig,
        table_splits: &BTreeMap<String, u64>,
    ) -> Result<Self> {
        let workers = cluster.workers.max(1);
        let data_parallel = cluster.channels_per_stage.max(1);
        let mut channel_counts = Vec::with_capacity(graph.stages.len());
        for stage in &graph.stages {
            let channels = match stage.parallelism {
                Parallelism::DataParallel => data_parallel,
                Parallelism::Single => 1,
            };
            channel_counts.push(channels);
        }

        let mut splits = vec![Vec::new(); graph.stages.len()];
        for stage in &graph.stages {
            if let Some(scan) = &stage.scan {
                let total = *table_splits.get(&scan.table).ok_or_else(|| {
                    QuokkaError::PlanError(format!("table '{}' has not been loaded", scan.table))
                })?;
                let channels = channel_counts[stage.id as usize] as u64;
                let mut per_channel = vec![Vec::new(); channels as usize];
                for split in 0..total {
                    per_channel[(split % channels) as usize].push(split);
                }
                splits[stage.id as usize] = per_channel;
            }
        }

        let mut consumer = vec![None; graph.stages.len()];
        for stage in &graph.stages {
            for (input_index, &input) in stage.inputs.iter().enumerate() {
                consumer[input as usize] = Some((stage.id, input_index));
            }
        }

        let mut upstream_channels = Vec::with_capacity(graph.stages.len());
        for stage in &graph.stages {
            let mut flattened = Vec::new();
            for (input_index, &input) in stage.inputs.iter().enumerate() {
                for channel in 0..channel_counts[input as usize] {
                    flattened.push((input_index, ChannelAddr::new(input, channel)));
                }
            }
            upstream_channels.push(flattened);
        }

        Ok(QueryLayout { graph, workers, channel_counts, splits, consumer, upstream_channels })
    }

    pub fn workers(&self) -> u32 {
        self.workers
    }

    /// Number of channels of `stage`.
    pub fn channel_count(&self, stage: StageId) -> u32 {
        self.channel_counts[stage as usize]
    }

    /// Every channel of `stage`.
    pub fn channels_of(&self, stage: StageId) -> Vec<ChannelAddr> {
        (0..self.channel_count(stage)).map(|c| ChannelAddr::new(stage, c)).collect()
    }

    /// Every channel of the query.
    pub fn all_channels(&self) -> Vec<ChannelAddr> {
        (0..self.graph.stages.len() as StageId).flat_map(|s| self.channels_of(s)).collect()
    }

    /// Initial worker placement: channel `c` of stage `s` starts on worker
    /// `(s + c) mod workers`, staggering single-channel stages across the
    /// cluster (each TaskManager then hosts one channel from every
    /// data-parallel stage, as in the paper's §IV-A).
    pub fn initial_worker(&self, addr: ChannelAddr) -> WorkerId {
        (addr.stage + addr.channel) % self.workers
    }

    /// Input splits owned by a scan channel.
    pub fn splits_for(&self, addr: ChannelAddr) -> &[u64] {
        let per_stage = &self.splits[addr.stage as usize];
        if per_stage.is_empty() {
            &[]
        } else {
            &per_stage[addr.channel as usize]
        }
    }

    /// Total number of input splits across every scan stage (used as the
    /// progress denominator for fault injection).
    pub fn total_splits(&self) -> u64 {
        self.splits.iter().flat_map(|per_channel| per_channel.iter().map(|v| v.len() as u64)).sum()
    }

    /// The consuming stage and operator-input index fed by `stage`, or
    /// `None` for the sink stage.
    pub fn consumer_of(&self, stage: StageId) -> Option<(StageId, usize)> {
        self.consumer[stage as usize]
    }

    /// The sink stage (whose output is the query result).
    pub fn sink(&self) -> StageId {
        self.graph.sink
    }

    /// Upstream channels of `stage` in watermark order, together with the
    /// operator-input index each one feeds.
    pub fn upstream_channels(&self, stage: StageId) -> &[(usize, ChannelAddr)] {
        &self.upstream_channels[stage as usize]
    }

    /// Flat watermark index of `upstream` within `stage`'s consumed vector.
    pub fn watermark_index(&self, stage: StageId, upstream: ChannelAddr) -> Result<usize> {
        self.upstream_channels[stage as usize]
            .iter()
            .position(|(_, addr)| *addr == upstream)
            .ok_or_else(|| {
                QuokkaError::internal(format!("channel {upstream} does not feed stage {stage}"))
            })
    }

    /// Number of operator inputs of `stage`.
    pub fn num_inputs(&self, stage: StageId) -> usize {
        self.graph.stage(stage).inputs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quokka_batch::{DataType, Schema};
    use quokka_plan::aggregate::sum;
    use quokka_plan::expr::col;
    use quokka_plan::logical::{JoinType, PlanBuilder};
    use quokka_plan::stage::StageGraph;

    fn layout(workers: u32) -> QueryLayout {
        let orders = Schema::from_pairs(&[("o_orderkey", DataType::Int64)]);
        let lineitem =
            Schema::from_pairs(&[("l_orderkey", DataType::Int64), ("l_price", DataType::Float64)]);
        let plan = PlanBuilder::scan("orders", orders)
            .join(
                PlanBuilder::scan("lineitem", lineitem),
                vec![("o_orderkey", "l_orderkey")],
                JoinType::Inner,
            )
            .aggregate(vec![(col("o_orderkey"), "k")], vec![sum(col("l_price"), "rev")])
            .sort(vec![("rev", false)])
            .build()
            .unwrap();
        let graph = StageGraph::compile(&plan).unwrap();
        let mut table_splits = BTreeMap::new();
        table_splits.insert("orders".to_string(), 10);
        table_splits.insert("lineitem".to_string(), 7);
        QueryLayout::new(graph, &ClusterConfig::with_workers(workers), &table_splits).unwrap()
    }

    #[test]
    fn channel_counts_follow_parallelism() {
        let l = layout(4);
        assert_eq!(l.channel_count(0), 4); // orders scan
        assert_eq!(l.channel_count(1), 4); // lineitem scan
        assert_eq!(l.channel_count(2), 4); // join
        assert_eq!(l.channel_count(3), 4); // aggregate on plain column
        assert_eq!(l.channel_count(4), 1); // sort is single channel
        assert_eq!(l.all_channels().len(), 17);
        assert_eq!(l.sink(), 4);
        assert_eq!(l.workers(), 4);
    }

    #[test]
    fn splits_are_partitioned_round_robin_and_complete() {
        let l = layout(4);
        let mut seen = Vec::new();
        for channel in l.channels_of(0) {
            seen.extend_from_slice(l.splits_for(channel));
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..10).collect::<Vec<u64>>());
        assert_eq!(l.total_splits(), 17);
        assert!(l.splits_for(ChannelAddr::new(2, 0)).is_empty());
    }

    #[test]
    fn consumer_and_watermark_indexing() {
        let l = layout(2);
        assert_eq!(l.consumer_of(0), Some((2, 0)));
        assert_eq!(l.consumer_of(1), Some((2, 1)));
        assert_eq!(l.consumer_of(2), Some((3, 0)));
        assert_eq!(l.consumer_of(4), None);
        // Join has upstream channels: 2 from the build stage then 2 from the
        // probe stage.
        let ups = l.upstream_channels(2);
        assert_eq!(ups.len(), 4);
        assert_eq!(ups[0], (0, ChannelAddr::new(0, 0)));
        assert_eq!(ups[3], (1, ChannelAddr::new(1, 1)));
        assert_eq!(l.watermark_index(2, ChannelAddr::new(1, 0)).unwrap(), 2);
        assert!(l.watermark_index(2, ChannelAddr::new(3, 0)).is_err());
        assert_eq!(l.num_inputs(2), 2);
        assert_eq!(l.num_inputs(0), 0);
    }

    #[test]
    fn worker_placement_spreads_channels() {
        let l = layout(4);
        assert_eq!(l.initial_worker(ChannelAddr::new(0, 0)), 0);
        assert_eq!(l.initial_worker(ChannelAddr::new(0, 3)), 3);
        assert_eq!(l.initial_worker(ChannelAddr::new(1, 3)), 0);
        // The single-channel sort stage is staggered by stage id.
        assert_eq!(l.initial_worker(ChannelAddr::new(4, 0)), 0);
        let single = layout(3);
        assert_eq!(single.initial_worker(ChannelAddr::new(4, 0)), 1);
    }

    #[test]
    fn missing_table_split_counts_error() {
        let schema = Schema::from_pairs(&[("x", DataType::Int64)]);
        let plan = PlanBuilder::scan("ghost", schema).build().unwrap();
        let graph = StageGraph::compile(&plan).unwrap();
        let err = QueryLayout::new(graph, &ClusterConfig::with_workers(2), &BTreeMap::new());
        assert!(err.is_err());
    }
}
