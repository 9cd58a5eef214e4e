//! Kernel micro-benchmarks: scalar baseline vs vectorized hot paths.
//!
//! Measures the operators rewritten around typed key encoding and columnar
//! accumulators (group-by, join probe, sort, hash partition) against
//! self-contained replicas of the scalar-at-a-time implementations they
//! replaced (`BTreeMap<String, _>` group state, per-row `ScalarValue`
//! probe/stitch). Results go to `BENCH_kernels.json` so future PRs have a
//! perf trajectory to compare against.
//!
//! Run with: `cargo run --release -p quokka-bench --bin kernels`
//!
//! Environment knobs: `QUOKKA_BENCH_ROWS` (default 1_000_000),
//! `QUOKKA_BENCH_OUT` (default `BENCH_kernels.json`).

use quokka::batch::compute::{self, SortKey};
use quokka::plan::aggregate::{sum, Accumulator, AggFunc};
use quokka::plan::expr::col;
use quokka::plan::logical::JoinType;
use quokka::plan::physical::{CoreOp, OperatorSpec};
use quokka::{Batch, Column, DataType, ScalarValue, Schema};
use quokka_bench::env_or;
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// Best-of-N wall-clock seconds for one closure.
fn time_best<F: FnMut() -> u64>(runs: usize, mut f: F) -> (f64, u64) {
    let mut best = f64::INFINITY;
    let mut checksum = 0u64;
    for _ in 0..runs {
        let start = Instant::now();
        checksum = std::hint::black_box(f());
        best = best.min(start.elapsed().as_secs_f64());
    }
    (best, checksum)
}

fn group_by_input(rows: usize, groups: usize) -> Batch {
    let schema = Schema::from_pairs(&[("k", DataType::Int64), ("v", DataType::Float64)]);
    Batch::try_new(
        schema,
        vec![
            Column::Int64((0..rows as i64).map(|i| (i * 2_654_435_761) % groups as i64).collect()),
            Column::Float64((0..rows).map(|i| (i % 1000) as f64 * 0.25).collect()),
        ],
    )
    .unwrap()
}

/// The pre-rewrite group-by inner loop: stringified keys into a BTreeMap,
/// one `ScalarValue` per row for the key and one per row per aggregate.
fn scalar_group_by(batch: &Batch) -> u64 {
    let mut groups: BTreeMap<String, (Vec<ScalarValue>, Vec<Accumulator>)> = BTreeMap::new();
    for row in 0..batch.num_rows() {
        let key_values: Vec<ScalarValue> = vec![batch.column(0).get(row)];
        let mut key = String::new();
        for v in &key_values {
            key.push_str(&v.to_string());
            key.push('\u{1}');
        }
        let entry = groups.entry(key).or_insert_with(|| {
            (key_values.clone(), vec![Accumulator::new(AggFunc::Sum, DataType::Float64)])
        });
        entry.1[0].update(&batch.column(1).get(row)).expect("sum update");
    }
    groups.len() as u64
}

fn vectorized_group_by(spec: &OperatorSpec, batch: Batch) -> u64 {
    let mut op = spec.instantiate().expect("instantiate aggregate");
    op.push(0, batch).expect("push");
    let out = op.finish().expect("finish");
    out.iter().map(|b| b.num_rows() as u64).sum()
}

fn join_inputs(build_rows: usize, probe_rows: usize) -> (Batch, Batch) {
    let build_schema =
        Schema::from_pairs(&[("b_key", DataType::Int64), ("b_val", DataType::Float64)]);
    let build = Batch::try_new(
        build_schema,
        vec![
            Column::Int64((0..build_rows as i64).collect()),
            Column::Float64((0..build_rows).map(|i| i as f64).collect()),
        ],
    )
    .unwrap();
    let probe_schema =
        Schema::from_pairs(&[("p_key", DataType::Int64), ("p_val", DataType::Float64)]);
    let probe = Batch::try_new(
        probe_schema,
        vec![
            Column::Int64(
                (0..probe_rows as i64).map(|i| (i * 48_271) % (build_rows as i64 * 2)).collect(),
            ),
            Column::Float64((0..probe_rows).map(|i| i as f64 * 0.5).collect()),
        ],
    )
    .unwrap();
    (build, probe)
}

/// The pre-rewrite probe loop: row-hash table with `ScalarValue` equality
/// checks per candidate and a `from_scalars` stitch of the build columns.
fn scalar_join_probe(build: &Batch, probe: &Batch) -> u64 {
    let build_hashes = compute::hash_rows(build, &[0]);
    let mut table: HashMap<u64, Vec<usize>> = HashMap::new();
    for (row, h) in build_hashes.iter().enumerate() {
        table.entry(*h).or_default().push(row);
    }
    let probe_hashes = compute::hash_rows(probe, &[0]);
    let mut build_rows: Vec<usize> = Vec::new();
    let mut probe_rows: Vec<usize> = Vec::new();
    for (row, h) in probe_hashes.iter().enumerate() {
        if let Some(candidates) = table.get(h) {
            for &b in candidates {
                let equal = build.column(0).get(b).total_cmp(&probe.column(0).get(row))
                    == std::cmp::Ordering::Equal;
                if equal {
                    build_rows.push(b);
                    probe_rows.push(row);
                }
            }
        }
    }
    let mut columns: Vec<Column> = Vec::new();
    for col_idx in 0..build.num_columns() {
        let dtype = build.schema().field(col_idx).data_type;
        let values: Vec<ScalarValue> =
            build_rows.iter().map(|&b| build.column(col_idx).get(b)).collect();
        columns.push(Column::from_scalars(dtype, &values).expect("stitch"));
    }
    let probe_taken = probe.take(&probe_rows).expect("take");
    columns.extend(probe_taken.columns().iter().cloned());
    columns.iter().map(|c| c.len() as u64).sum()
}

fn vectorized_join_probe(spec: &OperatorSpec, build: Batch, probe: Batch) -> u64 {
    let mut op = spec.instantiate().expect("instantiate join");
    op.push(0, build).expect("push build");
    op.finish_input(0).expect("seal build");
    let out = op.push(1, probe).expect("probe");
    out.iter().map(|b| b.num_rows() as u64).sum()
}

fn sort_input(rows: usize) -> Batch {
    let schema = Schema::from_pairs(&[("k", DataType::Int64), ("s", DataType::Utf8)]);
    Batch::try_new(
        schema,
        vec![
            Column::Int64((0..rows as i64).map(|i| (i * 2_654_435_761) % 100_000).collect()),
            Column::Utf8((0..rows).map(|i| format!("tag-{}", i % 977)).collect()),
        ],
    )
    .unwrap()
}

struct Entry {
    name: &'static str,
    rows: usize,
    scalar_s: f64,
    vectorized_s: f64,
}

impl Entry {
    fn speedup(&self) -> f64 {
        self.scalar_s / self.vectorized_s
    }
}

fn main() {
    let rows = env_or("QUOKKA_BENCH_ROWS", 1_000_000usize).max(1);
    let out_path = env_or("QUOKKA_BENCH_OUT", "BENCH_kernels.json".to_string());
    let runs = 3;
    let mut entries: Vec<Entry> = Vec::new();

    // Group-by: SUM over 10k integer groups.
    let batch = group_by_input(rows, 10_000);
    let agg_spec = OperatorSpec::new(CoreOp::HashAggregate {
        input_schema: batch.schema().clone(),
        group_by: vec![(col("k"), "k".to_string())],
        aggregates: vec![sum(col("v"), "total")],
    });
    let (scalar_s, scalar_groups) = time_best(runs, || scalar_group_by(&batch));
    // The operators take their input: each run's copy is made untimed.
    let mut copies = vec![batch.clone(); runs];
    let (vector_s, vector_groups) =
        time_best(runs, || vectorized_group_by(&agg_spec, copies.pop().expect("a copy per run")));
    assert_eq!(scalar_groups, vector_groups, "group counts must agree");
    entries.push(Entry { name: "group_by_sum_1m", rows, scalar_s, vectorized_s: vector_s });
    eprintln!(
        "group_by:    scalar {scalar_s:.3}s  vectorized {vector_s:.3}s  ({:.1}x)",
        scalar_s / vector_s
    );

    // Join probe: 100k build rows, `rows` probe rows, ~50% hit rate.
    let (build, probe) = join_inputs(100_000, rows);
    let join_spec = OperatorSpec::new(CoreOp::HashJoin {
        build_schema: build.schema().clone(),
        probe_schema: probe.schema().clone(),
        build_keys: vec![0],
        probe_keys: vec![0],
        join_type: JoinType::Inner,
    });
    let (scalar_s, scalar_out) = time_best(runs, || scalar_join_probe(&build, &probe));
    let mut copies = vec![(build.clone(), probe.clone()); runs];
    let (vector_s, vector_out) = time_best(runs, || {
        let (build, probe) = copies.pop().expect("a copy per run");
        vectorized_join_probe(&join_spec, build, probe)
    });
    // The scalar checksum counts output column cells; normalize both to rows.
    assert_eq!(scalar_out / 4, vector_out, "join cardinalities must agree");
    entries.push(Entry { name: "join_probe_1m", rows, scalar_s, vectorized_s: vector_s });
    eprintln!(
        "join_probe:  scalar {scalar_s:.3}s  vectorized {vector_s:.3}s  ({:.1}x)",
        scalar_s / vector_s
    );

    // Sort: typed comparators vs per-comparison ScalarValue clones. The
    // scalar baseline is the old compare path (ScalarValue::get per key).
    let sortable = sort_input(rows.min(300_000));
    let keys = [SortKey::asc(0), SortKey::desc(1)];
    let (scalar_s, a) = time_best(runs, || {
        let mut indices: Vec<usize> = (0..sortable.num_rows()).collect();
        indices.sort_by(|&x, &y| {
            for key in &keys {
                let vx = sortable.column(key.column).get(x);
                let vy = sortable.column(key.column).get(y);
                let ord = vx.total_cmp(&vy);
                let ord = if key.ascending { ord } else { ord.reverse() };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        indices[0] as u64
    });
    let (vector_s, b) = time_best(runs, || compute::sort_indices(&sortable, &keys)[0] as u64);
    assert_eq!(a, b, "sort orders must agree");
    entries.push(Entry {
        name: "sort_two_keys_300k",
        rows: sortable.num_rows(),
        scalar_s,
        vectorized_s: vector_s,
    });
    eprintln!(
        "sort:        scalar {scalar_s:.3}s  vectorized {vector_s:.3}s  ({:.1}x)",
        scalar_s / vector_s
    );

    // Hash partition: index-list + take baseline vs single-pass scatter.
    let (scalar_s, a) = time_best(runs, || {
        let hashes = compute::hash_rows(&batch, &[0]);
        let mut indices: Vec<Vec<usize>> = vec![Vec::new(); 16];
        for (row, h) in hashes.iter().enumerate() {
            indices[(h % 16) as usize].push(row);
        }
        indices.into_iter().map(|idx| batch.take(&idx).expect("take").num_rows() as u64).sum()
    });
    let (vector_s, b) = time_best(runs, || {
        compute::hash_partition(&batch, &[0], 16)
            .expect("partition")
            .iter()
            .map(|p| p.num_rows() as u64)
            .sum()
    });
    assert_eq!(a, b, "partition cardinalities must agree");
    entries.push(Entry { name: "hash_partition_16_1m", rows, scalar_s, vectorized_s: vector_s });
    eprintln!(
        "partition:   scalar {scalar_s:.3}s  vectorized {vector_s:.3}s  ({:.1}x)",
        scalar_s / vector_s
    );

    // Hand-rolled JSON (no serde in this environment).
    let mut json = String::from("{\n  \"benchmarks\": [\n");
    for (i, e) in entries.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"rows\": {}, \"scalar_seconds\": {:.6}, \
             \"vectorized_seconds\": {:.6}, \"speedup\": {:.2}}}{}\n",
            e.name,
            e.rows,
            e.scalar_s,
            e.vectorized_s,
            e.speedup(),
            if i + 1 < entries.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write benchmark results");
    eprintln!("wrote {out_path}");

    let group_by = entries.iter().find(|e| e.name.starts_with("group_by")).unwrap();
    let join = entries.iter().find(|e| e.name.starts_with("join_probe")).unwrap();
    assert!(
        group_by.speedup() >= 3.0 && join.speedup() >= 3.0,
        "vectorized kernels must be >= 3x the scalar baseline (group_by {:.2}x, join {:.2}x)",
        group_by.speedup(),
        join.speedup()
    );
}
