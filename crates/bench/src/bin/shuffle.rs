//! Shuffle-volume harness: optimized vs unoptimized TPC-H plans.
//!
//! Runs each query twice on the distributed runtime — once with the logical
//! optimizer disabled (the plan exactly as written) and once with it enabled
//! — and compares the bytes pushed across workers, in total and per stage
//! edge. Predicate pushdown and projection pruning shrink the scan→join
//! edges; this harness is where that win is measured and regression-gated.
//!
//! Plans are built from the TPC-H **SQL texts** (the same path a user's
//! query takes), so the run also measures the decorrelated queries: Q4's
//! `EXISTS` and Q21's derived-table pipeline arrive as subquery-bearing
//! plans, the "unoptimized" run applies only the mandatory decorrelation
//! lowering, and the optimized run applies the full rule pipeline on top.
//!
//! Results go to `BENCH_shuffle.json`. The run **fails** (non-zero exit) if
//! the optimized plan of any gated query (Q3, Q5, Q9 — the join-heavy
//! representatives) does not shuffle strictly fewer bytes than its
//! unoptimized twin, if the two plans ever disagree on the result rows, or
//! if the optimized raw bytes of Q1 (aggregation-bound) and Q13 (a column
//! only a filter reads) are not at least halved against the engine before
//! partial aggregation and dead-column pruning.
//!
//! Run with: `cargo run --release -p quokka-bench --bin shuffle`
//!
//! Environment knobs: `QUOKKA_SF` (default 0.01), `QUOKKA_WORKERS` (default
//! 4), `QUOKKA_QUERIES` (default 1,3,4,5,6,9,10,12,13,21), `QUOKKA_BENCH_OUT`
//! (default `BENCH_shuffle.json`).

use quokka::{results_match, EngineConfig, QuokkaSession};
use quokka_bench::{env_or, queries_from_env};

/// Queries whose shuffle volume must strictly shrink under optimization.
const GATED: [usize; 3] = [3, 5, 9];

/// Optimized shuffle bytes before column encodings shipped on the wire
/// (the committed `BENCH_shuffle.json` of the plain-column engine). The
/// encoded engine must push at least 30% fewer bytes on each of these.
const PRE_ENCODING: [(usize, u64); 3] = [(1, 1_969_832), (3, 895_188), (9, 3_956_769)];

/// Optimized raw (decoded) shuffle bytes at SF 0.01 on 4 workers before
/// map-side partial aggregation and dead-column pruning: every filtered
/// lineitem row of Q1 crossed the shuffle, and Q13 carried `o_comment`
/// through two shuffles after its filter. The engine must ship at most half.
const PRE_PARTIAL_AGGREGATION: [(usize, u64); 2] = [(1, 1_969_832), (13, 2_468_458)];

struct Entry {
    query: usize,
    naive_bytes: u64,
    optimized_bytes: u64,
    /// Logical (decoded) bytes behind `optimized_bytes`: what the same
    /// shuffles would have cost with plain columns and no wire encoding.
    optimized_raw_bytes: u64,
    optimized_edges: Vec<(u32, u32, u64, u64)>,
    /// Per-peer wire traffic of the optimized run, summed over peers.
    /// Zero under the in-process transport; real frame/byte counts when
    /// the run is steered onto TCP via `QUOKKA_TRANSPORT=tcp`.
    wire_frames_sent: u64,
    wire_bytes_sent: u64,
    send_queue_peak: u64,
}

impl Entry {
    fn reduction(&self) -> f64 {
        if self.naive_bytes == 0 {
            0.0
        } else {
            1.0 - self.optimized_bytes as f64 / self.naive_bytes as f64
        }
    }
}

fn main() {
    let scale_factor = env_or("QUOKKA_SF", 0.01);
    let workers = env_or("QUOKKA_WORKERS", 4u32);
    let queries = queries_from_env(&[1, 3, 4, 5, 6, 9, 10, 12, 13, 21]);
    let out_path = env_or("QUOKKA_BENCH_OUT", "BENCH_shuffle.json".to_string());

    eprintln!("[shuffle] generating TPC-H data at SF {scale_factor} ...");
    let session = QuokkaSession::tpch(scale_factor, workers).expect("generate TPC-H data");
    let naive_config = EngineConfig::quokka(workers).with_optimize(false);
    let optimized_config = EngineConfig::quokka(workers).with_optimize(true);

    let mut entries = Vec::new();
    for &q in &queries {
        let sql = quokka::tpch::queries::sql::sql_text(q).expect("TPC-H SQL text");
        let plan = quokka::sql::plan_query(sql, session.catalog()).expect("TPC-H plan from SQL");
        let naive = session.run_with(&plan, &naive_config).expect("unoptimized run");
        let optimized = session.run_with(&plan, &optimized_config).expect("optimized run");
        assert!(
            results_match(&naive.batch, &optimized.batch),
            "Q{q}: optimized and unoptimized plans disagree on the result"
        );
        let peers = &optimized.metrics.transport_peers;
        let entry = Entry {
            query: q,
            naive_bytes: naive.metrics.shuffle_bytes,
            optimized_bytes: optimized.metrics.shuffle_bytes,
            optimized_raw_bytes: optimized.metrics.shuffle_raw_bytes,
            optimized_edges: optimized
                .metrics
                .shuffle_edges
                .iter()
                .map(|e| (e.from_stage, e.to_stage, e.bytes, e.raw_bytes))
                .collect(),
            wire_frames_sent: peers.iter().map(|p| p.frames_sent).sum(),
            wire_bytes_sent: peers.iter().map(|p| p.bytes_sent).sum(),
            send_queue_peak: peers.iter().map(|p| p.send_queue_peak).max().unwrap_or(0),
        };
        eprintln!(
            "Q{q:<3} naive {:>12} B   optimized {:>12} B   (-{:.1}%, raw {:>12} B)",
            entry.naive_bytes,
            entry.optimized_bytes,
            entry.reduction() * 100.0,
            entry.optimized_raw_bytes
        );
        entries.push(entry);
    }

    // Hand-rolled JSON (no serde in this environment).
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"scale_factor\": {scale_factor},\n"));
    json.push_str(&format!("  \"workers\": {workers},\n"));
    json.push_str("  \"queries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let edges: Vec<String> = e
            .optimized_edges
            .iter()
            .map(|(from, to, bytes, raw)| {
                format!(
                    "{{\"from_stage\": {from}, \"to_stage\": {to}, \
                     \"bytes\": {bytes}, \"raw_bytes\": {raw}}}"
                )
            })
            .collect();
        json.push_str(&format!(
            "    {{\"query\": {}, \"naive_shuffle_bytes\": {}, \"optimized_shuffle_bytes\": {}, \
             \"optimized_raw_bytes\": {}, \"reduction\": {:.4}, \"wire_frames_sent\": {}, \
             \"wire_bytes_sent\": {}, \"send_queue_peak\": {}, \"optimized_edges\": [{}]}}{}\n",
            e.query,
            e.naive_bytes,
            e.optimized_bytes,
            e.optimized_raw_bytes,
            e.reduction(),
            e.wire_frames_sent,
            e.wire_bytes_sent,
            e.send_queue_peak,
            edges.join(", "),
            if i + 1 < entries.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write benchmark results");
    eprintln!("wrote {out_path}");

    // Regression gate: the join-heavy queries must shuffle strictly less.
    // A gated query missing from the run set is itself a failure — the gate
    // must never pass vacuously (e.g. a trimmed QUOKKA_QUERIES override).
    for q in GATED {
        let e = entries.iter().find(|e| e.query == q).unwrap_or_else(|| {
            panic!("Q{q} is gated but was not run; include it in QUOKKA_QUERIES")
        });
        assert!(
            e.optimized_bytes < e.naive_bytes,
            "Q{q}: optimizer did not reduce shuffle volume \
             ({} optimized vs {} naive bytes)",
            e.optimized_bytes,
            e.naive_bytes
        );
    }
    eprintln!(
        "[shuffle] gate passed: optimized Q3/Q5/Q9 shuffle strictly fewer bytes than naive twins"
    );

    // Encoding gate: shipping encoded columns must cut the optimized
    // shuffle volume by at least 30% against the plain-column engine's
    // committed numbers. Same vacuous-pass rule as above.
    for (q, before) in PRE_ENCODING {
        let e = entries.iter().find(|e| e.query == q).unwrap_or_else(|| {
            panic!("Q{q} is encoding-gated but was not run; include it in QUOKKA_QUERIES")
        });
        let ceiling = before * 7 / 10;
        assert!(
            e.optimized_bytes <= ceiling,
            "Q{q}: encoded shuffle volume {} exceeds 70% of the pre-encoding \
             baseline {} (ceiling {})",
            e.optimized_bytes,
            before,
            ceiling
        );
    }
    eprintln!(
        "[shuffle] gate passed: encoded Q1/Q3/Q9 shuffles are >=30% below pre-encoding volumes"
    );

    // Partial-aggregation and pruning gate, on raw bytes so that encoding
    // changes cannot move it. Same vacuous-pass rule as above.
    for (q, before) in PRE_PARTIAL_AGGREGATION {
        let e = entries.iter().find(|e| e.query == q).unwrap_or_else(|| {
            panic!(
                "Q{q} is gated on raw shuffle bytes but was not run; include it in QUOKKA_QUERIES"
            )
        });
        assert!(
            e.optimized_raw_bytes <= before / 2,
            "Q{q}: optimized raw shuffle bytes {} exceed half of the {} shipped before \
             partial aggregation and pruning",
            e.optimized_raw_bytes,
            before
        );
    }
    eprintln!("[shuffle] gate passed: Q1/Q13 raw shuffle bytes are at least halved");
}
