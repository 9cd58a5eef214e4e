//! Encoding harness: encoded-column execution vs a decode-first baseline.
//!
//! The generator ships TPC-H tables with dictionary, bit-packed and
//! XOR-compressed columns. This harness measures (a) how much smaller each
//! column gets, per table, and (b) how much faster the hot operators run
//! when they consume the encoded representation directly instead of
//! decoding every batch to plain columns first — the strategy a
//! non-encoding-aware engine would be forced into.
//!
//! Three kernels are timed over the same batches, encoded vs decode-first:
//!
//! * `dict_group_by` — hash aggregation grouped on a dictionary string
//!   column (the per-Arc code->group LUT vs per-row string hashing).
//! * `dict_filter` — `l_shipmode = 'TRUCK'` (one comparison per dictionary
//!   entry vs one per row).
//! * `packed_join` — orders x lineitem on bit-packed integer keys.
//!
//! Results go to `BENCH_encoding.json`. The run **fails** (non-zero exit)
//! if grouping on the dictionary representation is not at least 2x faster
//! than the decode-first baseline — that speedup is the core claim of the
//! encoding-aware execution path.
//!
//! Run with: `cargo run --release -p quokka-bench --bin encoding`
//!
//! Environment knobs: `QUOKKA_SF` (default 0.01), `QUOKKA_BENCH_OUT`
//! (default `BENCH_encoding.json`).

use quokka::batch::compute::{self, CmpOp};
use quokka::batch::{Batch, Column, ScalarValue, Schema};
use quokka::plan::physical::{CoreOp, OperatorSpec};
use quokka::plan::{AggExpr, AggFunc, Catalog, Expr, JoinType};
use quokka::QuokkaSession;
use quokka_bench::env_or;
use std::time::Instant;

/// Repetitions per kernel; the best (minimum) time is reported.
const REPS: usize = 5;

struct Kernel {
    name: &'static str,
    encoded_ms: f64,
    decode_first_ms: f64,
    rows: usize,
}

impl Kernel {
    fn speedup(&self) -> f64 {
        if self.encoded_ms == 0.0 {
            f64::INFINITY
        } else {
            self.decode_first_ms / self.encoded_ms
        }
    }
}

struct ColumnStat {
    table: String,
    column: String,
    encoding: &'static str,
    plain_bytes: u64,
    encoded_bytes: u64,
}

impl ColumnStat {
    fn ratio(&self) -> f64 {
        if self.encoded_bytes == 0 {
            1.0
        } else {
            self.plain_bytes as f64 / self.encoded_bytes as f64
        }
    }
}

/// Decode every column of every batch to its plain representation.
fn decode_all(batches: &[Batch]) -> Vec<Batch> {
    batches
        .iter()
        .map(|b| {
            Batch::try_new(
                b.schema().clone(),
                b.columns().iter().map(|c| c.decoded().into_owned()).collect(),
            )
            .expect("decoding preserves shape")
        })
        .collect()
}

/// Best-of-REPS wall time of `f`, in milliseconds.
fn time_ms(mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// Drive a fresh instance of `spec` over `inputs` (one `Vec<Batch>` per
/// operator input) and return the total output rows, so the optimizer
/// cannot discard the work.
fn drive(spec: &OperatorSpec, inputs: Vec<Vec<Batch>>) -> usize {
    let mut op = spec.instantiate().expect("instantiate operator");
    let mut rows = 0;
    for (input, batches) in inputs.into_iter().enumerate() {
        for batch in batches {
            rows += op
                .push(input, batch)
                .expect("push batch")
                .iter()
                .map(Batch::num_rows)
                .sum::<usize>();
        }
        rows += op
            .finish_input(input)
            .expect("finish input")
            .iter()
            .map(Batch::num_rows)
            .sum::<usize>();
    }
    rows + op.finish().expect("finish").iter().map(Batch::num_rows).sum::<usize>()
}

/// Project the named columns out of each batch.
fn project(batches: &[Batch], names: &[&str]) -> (Schema, Vec<Batch>) {
    let schema = batches[0].schema();
    let indices: Vec<usize> =
        names.iter().map(|n| schema.index_of(n).expect("known column")).collect();
    let projected: Vec<Batch> = batches.iter().map(|b| b.project(&indices)).collect();
    (projected[0].schema().clone(), projected)
}

fn main() {
    let scale_factor = env_or("QUOKKA_SF", 0.01);
    let out_path = env_or("QUOKKA_BENCH_OUT", "BENCH_encoding.json".to_string());

    eprintln!("[encoding] generating TPC-H data at SF {scale_factor} ...");
    let session = QuokkaSession::tpch(scale_factor, 4).expect("generate TPC-H data");
    let catalog = session.catalog();

    // ---- per-column compression ratios --------------------------------
    let mut stats = Vec::new();
    for table in catalog.table_names() {
        let batches = catalog.table_batches(&table).expect("table batches");
        if batches.is_empty() {
            continue;
        }
        let schema = batches[0].schema().clone();
        for (i, field) in schema.fields().iter().enumerate() {
            let plain: u64 = batches.iter().map(|b| b.column(i).byte_size() as u64).sum();
            let encoded: u64 = batches.iter().map(|b| b.column(i).memory_bytes() as u64).sum();
            stats.push(ColumnStat {
                table: table.clone(),
                column: field.name.clone(),
                encoding: batches[0].column(i).encoding_name(),
                plain_bytes: plain,
                encoded_bytes: encoded,
            });
        }
    }
    stats.sort_by(|a, b| b.ratio().partial_cmp(&a.ratio()).unwrap());
    eprintln!("[encoding] top compressed columns:");
    for s in stats.iter().filter(|s| s.ratio() > 1.01).take(12) {
        eprintln!(
            "  {:<10} {:<16} {:<8} {:>10} -> {:>9} B  ({:.2}x)",
            s.table,
            s.column,
            s.encoding,
            s.plain_bytes,
            s.encoded_bytes,
            s.ratio()
        );
    }

    // ---- kernel: dictionary group-by ----------------------------------
    let lineitem = catalog.table_batches("lineitem").expect("lineitem");
    let rows: usize = lineitem.iter().map(Batch::num_rows).sum();
    let (agg_schema, agg_encoded) = project(&lineitem, &["l_shipmode", "l_extendedprice"]);
    let agg_plain = decode_all(&agg_encoded);
    assert!(
        matches!(agg_encoded[0].column(0), Column::Dict(_)),
        "l_shipmode must arrive dictionary-encoded"
    );
    let agg_spec = OperatorSpec::new(CoreOp::HashAggregate {
        input_schema: agg_schema,
        group_by: vec![(Expr::Column("l_shipmode".into()), "l_shipmode".into())],
        aggregates: vec![AggExpr::new(
            AggFunc::Sum,
            Expr::Column("l_extendedprice".into()),
            "revenue",
        )],
    });
    let expected = drive(&agg_spec, vec![agg_plain]);
    assert_eq!(expected, drive(&agg_spec, vec![agg_encoded.clone()]), "group-by results diverged");
    // The operator takes its input; the encoded runs' copies are made
    // untimed, while decode-first builds its own input inside the timing.
    let mut copies = vec![vec![agg_encoded.clone()]; REPS];
    let mut kernels = vec![Kernel {
        name: "dict_group_by",
        encoded_ms: time_ms(|| {
            drive(&agg_spec, copies.pop().expect("a copy per rep"));
        }),
        decode_first_ms: time_ms(|| {
            drive(&agg_spec, vec![decode_all(&agg_encoded)]);
        }),
        rows,
    }];

    // ---- kernel: dictionary filter ------------------------------------
    let truck = ScalarValue::Utf8("TRUCK".into());
    let dict_cols: Vec<&Column> = agg_encoded.iter().map(|b| b.column(0)).collect();
    let count_true = |col: &Column| match compute::compare_scalar(CmpOp::Eq, col, &truck) {
        Ok(Column::Bool(mask)) => mask.iter().filter(|&&m| m).count(),
        other => panic!("comparison produced {other:?}"),
    };
    let expected: usize = dict_cols.iter().map(|c| count_true(c)).sum();
    kernels.push(Kernel {
        name: "dict_filter",
        encoded_ms: time_ms(|| {
            let n: usize = dict_cols.iter().map(|c| count_true(c)).sum();
            assert_eq!(n, expected);
        }),
        decode_first_ms: time_ms(|| {
            let n: usize = dict_cols.iter().map(|c| count_true(c.decoded().as_ref())).sum();
            assert_eq!(n, expected);
        }),
        rows,
    });

    // ---- kernel: join on bit-packed keys ------------------------------
    let orders = catalog.table_batches("orders").expect("orders");
    let (build_schema, build_encoded) = project(&orders, &["o_orderkey", "o_orderpriority"]);
    let (probe_schema, probe_encoded) = project(&lineitem, &["l_orderkey", "l_extendedprice"]);
    assert!(
        matches!(build_encoded[0].column(0), Column::Packed(_)),
        "o_orderkey must arrive bit-packed"
    );
    let join_spec = OperatorSpec::new(CoreOp::HashJoin {
        build_schema,
        probe_schema,
        build_keys: vec![0],
        probe_keys: vec![0],
        join_type: JoinType::Inner,
    });
    let join_inputs = [build_encoded, probe_encoded];
    let join_plain = [decode_all(&join_inputs[0]), decode_all(&join_inputs[1])];
    let expected = drive(&join_spec, join_plain.into());
    assert_eq!(expected, drive(&join_spec, join_inputs.to_vec()), "join results diverged");
    let mut copies = vec![join_inputs.to_vec(); REPS];
    kernels.push(Kernel {
        name: "packed_join",
        encoded_ms: time_ms(|| {
            drive(&join_spec, copies.pop().expect("a copy per rep"));
        }),
        decode_first_ms: time_ms(|| {
            drive(&join_spec, vec![decode_all(&join_inputs[0]), decode_all(&join_inputs[1])]);
        }),
        rows,
    });

    for k in &kernels {
        eprintln!(
            "{:<14} encoded {:>8.3} ms   decode-first {:>8.3} ms   ({:.2}x)",
            k.name,
            k.encoded_ms,
            k.decode_first_ms,
            k.speedup()
        );
    }

    // ---- JSON output --------------------------------------------------
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"scale_factor\": {scale_factor},\n"));
    json.push_str("  \"kernels\": [\n");
    for (i, k) in kernels.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"rows\": {}, \"encoded_ms\": {:.3}, \
             \"decode_first_ms\": {:.3}, \"speedup\": {:.2}}}{}\n",
            k.name,
            k.rows,
            k.encoded_ms,
            k.decode_first_ms,
            k.speedup(),
            if i + 1 < kernels.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"columns\": [\n");
    let compressed: Vec<&ColumnStat> = stats.iter().filter(|s| s.ratio() > 1.01).collect();
    for (i, s) in compressed.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"table\": \"{}\", \"column\": \"{}\", \"encoding\": \"{}\", \
             \"plain_bytes\": {}, \"encoded_bytes\": {}, \"ratio\": {:.2}}}{}\n",
            s.table,
            s.column,
            s.encoding,
            s.plain_bytes,
            s.encoded_bytes,
            s.ratio(),
            if i + 1 < compressed.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write benchmark results");
    eprintln!("wrote {out_path}");

    // Regression gate: grouping on dictionary codes must beat the
    // decode-first baseline by at least 2x.
    let group_by = kernels.iter().find(|k| k.name == "dict_group_by").expect("gated kernel ran");
    assert!(
        group_by.speedup() >= 2.0,
        "dict_group_by speedup {:.2}x is below the 2x gate \
         ({:.3} ms encoded vs {:.3} ms decode-first)",
        group_by.speedup(),
        group_by.encoded_ms,
        group_by.decode_first_ms
    );
    eprintln!("[encoding] gate passed: dict group-by >=2x over decode-first");
}
