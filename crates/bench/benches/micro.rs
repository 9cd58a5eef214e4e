//! Criterion micro-benchmarks for the mechanisms whose costs the paper's
//! argument rests on:
//!
//! * committing a write-ahead lineage record to the GCS (the per-task cost
//!   Quokka adds to normal execution),
//! * encoding a shuffle partition for upstream backup / spooling (the cost
//!   the competing strategies add),
//! * hash partitioning (the shuffle itself),
//! * the hash-join and aggregation kernels.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use quokka::batch::codec::encode_partition;
use quokka::batch::compute::{hash_partition, in_list, like, sort_batch, SortKey};
use quokka::common::ids::ChannelAddr;
use quokka::gcs::tables::{
    ChannelState, Gcs, LineageRecord, LineageSource, PartitionEntry, TaskCommit, TaskEntry,
};
use quokka::plan::aggregate::sum;
use quokka::plan::expr::col;
use quokka::plan::logical::JoinType;
use quokka::plan::physical::{CoreOp, OperatorSpec};
use quokka::ScalarValue;
use quokka::{Batch, Column, DataType, Schema};

fn sample_batch(rows: usize) -> Batch {
    let schema = Schema::from_pairs(&[
        ("key", DataType::Int64),
        ("value", DataType::Float64),
        ("tag", DataType::Utf8),
    ]);
    Batch::try_new(
        schema,
        vec![
            Column::Int64((0..rows as i64).map(|i| i % 1024).collect()),
            Column::Float64((0..rows).map(|i| i as f64 * 0.25).collect()),
            Column::Utf8((0..rows).map(|i| format!("tag-{}", i % 97)).collect()),
        ],
    )
    .unwrap()
}

fn bench_lineage_commit(c: &mut Criterion) {
    let gcs = Gcs::default();
    let channel = ChannelAddr::new(1, 0);
    gcs.put_channel(&ChannelState::new(channel, 0, 4));
    let mut seq = 0u32;
    c.bench_function("gcs_commit_task_lineage", |b| {
        b.iter(|| {
            let task = channel.task(seq);
            let mut state = ChannelState::new(channel, 0, 4);
            state.committed_seq = Some(seq);
            let commit = TaskCommit {
                worker: 0,
                lineage: LineageRecord {
                    task,
                    source: LineageSource::Upstream {
                        upstream: ChannelAddr::new(0, 3),
                        start_seq: seq,
                        count: 8,
                    },
                    finished_inputs: vec![],
                    finalize: false,
                    output_rows: 8192,
                    output_bytes: 1 << 20,
                },
                partition: PartitionEntry {
                    name: task,
                    owner: 0,
                    backed_up: true,
                    spooled: false,
                    bytes: 1 << 20,
                },
                channel_state: state,
                prev_channel: None,
                next_task: Some(TaskEntry { task: channel.task(seq + 1), worker: 0 }),
            };
            gcs.commit_task(&commit, false).unwrap();
            seq += 1;
        })
    });
}

fn bench_partition_encode(c: &mut Criterion) {
    let batch = sample_batch(8192);
    let bytes = batch.byte_size() as u64;
    let mut group = c.benchmark_group("partition_encode");
    group.throughput(Throughput::Bytes(bytes));
    group.bench_function("encode_8k_rows", |b| {
        b.iter(|| encode_partition(std::slice::from_ref(&batch)))
    });
    group.finish();
}

fn bench_hash_partition(c: &mut Criterion) {
    let batch = sample_batch(8192);
    let mut group = c.benchmark_group("hash_partition");
    group.throughput(Throughput::Elements(batch.num_rows() as u64));
    for parts in [4usize, 16] {
        group.bench_function(format!("8k_rows_into_{parts}"), |b| {
            b.iter(|| hash_partition(&batch, &[0], parts).unwrap())
        });
    }
    group.finish();
}

fn bench_join_and_aggregate(c: &mut Criterion) {
    let build = sample_batch(1024);
    let probe = sample_batch(8192);
    let spec = OperatorSpec::new(CoreOp::HashJoin {
        build_schema: build.schema().clone(),
        probe_schema: probe.schema().clone(),
        build_keys: vec![0],
        probe_keys: vec![0],
        join_type: JoinType::Inner,
    });
    c.bench_function("hash_join_build_and_probe", |b| {
        b.iter(|| {
            let mut op = spec.instantiate().unwrap();
            op.push(0, &build).unwrap();
            op.finish_input(0).unwrap();
            op.push(1, &probe).unwrap()
        })
    });

    let agg_spec = OperatorSpec::new(CoreOp::HashAggregate {
        input_schema: probe.schema().clone(),
        group_by: vec![(col("tag"), "tag".to_string())],
        aggregates: vec![sum(col("value"), "total")],
    });
    c.bench_function("hash_aggregate_8k_rows", |b| {
        b.iter(|| {
            let mut op = agg_spec.instantiate().unwrap();
            op.push(0, &probe).unwrap();
            op.finish().unwrap()
        })
    });
}

fn bench_scalar_free_kernels(c: &mut Criterion) {
    let batch = sample_batch(8192);
    c.bench_function("sort_8k_rows_two_keys", |b| {
        b.iter(|| sort_batch(&batch, &[SortKey::asc(0), SortKey::desc(2)]).unwrap())
    });
    let tags = batch.column_by_name("tag").unwrap();
    c.bench_function("like_8k_rows", |b| b.iter(|| like(tags, "tag-1%").unwrap()));
    let list: Vec<ScalarValue> = (0..64).map(|i| ScalarValue::from(format!("tag-{i}"))).collect();
    c.bench_function("in_list_8k_rows_64_items", |b| b.iter(|| in_list(tags, &list).unwrap()));
}

criterion_group!(
    benches,
    bench_lineage_commit,
    bench_partition_encode,
    bench_hash_partition,
    bench_join_and_aggregate,
    bench_scalar_free_kernels
);
criterion_main!(benches);
