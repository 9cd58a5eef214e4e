//! From what a run measured to named metrics.
//!
//! End-to-end metrics describe what a user of the engine sees; per-layer
//! metrics, from the traced run, say which layer the time and bytes went to.
//! Every metric has a value on every benchmark workload; where a layer does
//! no work on a workload (no kill, no admission queue) its value is 0. Wire
//! metrics exist only for the TCP transport, which no benchmark workload
//! uses.

use crate::stats::{geomean, mean, median, percentile};
use crate::workload::{Kind, Op, OpKind, Probe, Round, RunData, Workload, WORKERS};
use std::collections::BTreeMap;
use std::time::Duration;

/// One named value with its unit and the number of samples behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
}

fn metric(name: &'static str, unit: &'static str, value: Option<f64>, samples: usize) -> Metric {
    Metric { name, unit, value: value.unwrap_or(0.0), samples }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

const MIB: f64 = 1024.0 * 1024.0;

/// A float sum that is +0 when empty (`Iterator::sum` gives -0, which
/// would print as "-0").
fn sum(values: impl Iterator<Item = f64>) -> f64 {
    values.fold(0.0, |a, b| a + b)
}

/// An op is quiet when the host stole less than this share of CPU time
/// while it ran.
const QUIET_STEAL: f64 = 0.01;

/// The ops every timing is taken over: for each statement, its successful
/// headline ops that ran quiet, or, when fewer than half of them did, its
/// least-stolen half. Steal on a shared VM comes in bursts of a fraction of
/// a second and stalls every engine thread on the stolen CPU, so a run that
/// met a burst would otherwise read slow whatever the program did. Every op
/// is still checked and counted.
fn timed(data: &RunData) -> Vec<&Op> {
    quiet(data.headline().filter(|op| !op.failed))
}

/// Each statement's quiet ops, or its least-stolen half.
fn quiet<'a>(ops: impl Iterator<Item = &'a Op>) -> Vec<&'a Op> {
    let mut by_query: BTreeMap<usize, Vec<&Op>> = BTreeMap::new();
    for op in ops {
        by_query.entry(op.query).or_default().push(op);
    }
    by_query
        .into_values()
        .flat_map(|mut ops| {
            ops.sort_by(|a, b| a.steal.total_cmp(&b.steal));
            let quiet = ops.iter().take_while(|op| op.steal < QUIET_STEAL).count();
            ops.truncate(quiet.max(ops.len().div_ceil(2)));
            ops
        })
        .collect()
}

/// Each query's median latency (ms) over the given ops.
fn median_latency_by_query<'a>(ops: impl IntoIterator<Item = &'a Op>) -> BTreeMap<usize, f64> {
    let mut by_query: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for op in ops {
        by_query.entry(op.query).or_default().push(ms(op.latency));
    }
    by_query.into_iter().filter_map(|(q, v)| Some((q, median(&v)?))).collect()
}

/// Per statement: headline latency median (ms), its sample count, and the
/// oracle's median time (ms).
pub fn per_query(data: &RunData) -> Vec<(usize, f64, usize, f64)> {
    let ops = timed(data);
    median_latency_by_query(ops.iter().copied())
        .into_iter()
        .map(|(q, engine)| {
            let samples = ops.iter().filter(|op| op.query == q).count();
            let reference = data.reference.get(&q).map(|v| v.iter().map(|d| ms(*d)).collect());
            (q, engine, samples, reference.and_then(|v: Vec<f64>| median(&v)).unwrap_or(0.0))
        })
        .collect()
}

pub fn end_to_end(workload: &Workload, data: &RunData) -> Vec<Metric> {
    let ops = timed(data);
    let medians: Vec<f64> = median_latency_by_query(ops.iter().copied()).into_values().collect();
    // Serve's percentiles pool its requests. Batch and recover run each
    // statement once a round, so theirs are over the per-statement medians,
    // which one slow round cannot move.
    let latencies: Vec<f64> = match workload.kind {
        Kind::Serve => ops.iter().map(|op| ms(op.latency)).collect(),
        Kind::Batch | Kind::Recover => medians.clone(),
    };
    // Closed loops keep `concurrency` ops in flight, so throughput is
    // concurrency over mean latency; each op's CPU window also holds the
    // CPU of the ops running alongside it.
    let concurrency = workload.concurrency() as f64;
    let busy = sum(ops.iter().map(|op| op.latency.as_secs_f64()));
    let qps = (!ops.is_empty()).then(|| ops.len() as f64 * concurrency / busy.max(1e-9));
    let cpu = mean(&ops.iter().map(|op| ms(op.cpu) / concurrency).collect::<Vec<_>>());
    let setups: Vec<f64> = data.rounds.iter().map(|r| r.setup.as_secs_f64()).collect();
    let rounds = data.rounds.len();
    vec![
        metric("setup_s", "s", median(&setups), rounds),
        metric("geomean_ms", "ms", geomean(&medians), ops.len()),
        metric("total_s", "s", Some(sum(medians.iter().copied()) / 1e3), ops.len()),
        metric("qps", "1/s", qps, ops.len()),
        metric("p50_ms", "ms", median(&latencies), latencies.len()),
        metric("p99_ms", "ms", percentile(&latencies, 0.99), latencies.len()),
        metric("cpu_ms", "ms", cpu, ops.len()),
        metric(
            "peak_rss_mb",
            "MiB",
            median(&data.rounds.iter().map(|r| r.peak_rss_mib).collect::<Vec<_>>()),
            rounds,
        ),
    ]
}

pub fn per_layer(workload: &Workload, data: &RunData) -> Vec<Metric> {
    let ops = timed(data);
    let n = ops.len();
    let counters: Vec<_> = ops.iter().filter_map(|op| op.metrics.as_ref()).collect();
    let per_op = |f: &dyn Fn(&quokka::QueryMetrics) -> f64| {
        mean(&counters.iter().map(|m| f(m)).collect::<Vec<_>>())
    };
    let med_op = |f: &dyn Fn(&Op) -> f64| median(&ops.iter().map(|op| f(op)).collect::<Vec<_>>());
    let rounds = |f: &dyn Fn(&Round) -> f64| median(&data.rounds.iter().map(f).collect::<Vec<_>>());
    let probes = |f: &dyn Fn(&Probe) -> f64| median(&data.probes.iter().map(f).collect::<Vec<_>>());
    let stages: BTreeMap<usize, usize> = data.probes.iter().map(|p| (p.query, p.stages)).collect();

    // The engine against the oracle, query by query.
    let engine = median_latency_by_query(ops.iter().copied());
    let reference: BTreeMap<usize, f64> = data
        .reference
        .iter()
        .filter_map(|(q, v)| Some((*q, median(&v.iter().map(|d| ms(*d)).collect::<Vec<_>>())?)))
        .collect();
    let ratios: Vec<f64> =
        engine.iter().filter_map(|(q, e)| Some(e / reference.get(q)?.max(1e-6))).collect();

    // Time a kill costs: each query's kill median minus its clean median.
    let twins = |kind| quiet(data.ops.iter().filter(move |op| op.kind == kind && !op.failed));
    let clean = median_latency_by_query(twins(OpKind::Clean));
    let kill = median_latency_by_query(twins(OpKind::Kill));
    let lost = sum(kill.iter().filter_map(|(q, k)| Some(k - clean.get(q)?)));

    let tasks = sum(counters.iter().map(|m| m.tasks_executed as f64));
    let recovery_tasks = sum(counters.iter().map(|m| m.recovery_tasks as f64));
    let lookups = data.cache_hits + data.cache_misses;
    let codec_rate = |pick: fn(&(f64, Duration, Duration)) -> Duration| {
        median(
            &data.codec.iter().map(|c| c.0 / pick(c).as_secs_f64().max(1e-9)).collect::<Vec<_>>(),
        )
    };

    let mut metrics = vec![
        metric("tpch.generate_s", "s", rounds(&|s| s.generate.as_secs_f64()), data.rounds.len()),
        metric("quokka.register_ms", "ms", rounds(&|s| ms(s.register)), data.rounds.len()),
        metric(
            "quokka.sql_us",
            "us",
            median(&data.sql_calls.iter().map(|d| d.as_secs_f64() * 1e6).collect::<Vec<_>>()),
            data.sql_calls.len(),
        ),
        metric(
            "quokka.plan_cache_hit_ratio",
            "ratio",
            Some(data.cache_hits as f64 / lookups.max(1) as f64),
            lookups as usize,
        ),
        metric("sql.plan_us", "us", probes(&|p| p.plan.as_secs_f64() * 1e6), data.probes.len()),
        metric(
            "plan.optimize_us",
            "us",
            probes(&|p| p.optimize.as_secs_f64() * 1e6),
            data.probes.len(),
        ),
        metric(
            "plan.compile_us",
            "us",
            probes(&|p| p.compile.as_secs_f64() * 1e6),
            data.probes.len(),
        ),
        metric("plan.stages", "count", probes(&|p| p.stages as f64), data.probes.len()),
        metric(
            "plan.reference_ms",
            "ms",
            geomean(&reference.values().copied().collect::<Vec<_>>()),
            data.reference.values().map(Vec::len).sum(),
        ),
        metric("plan.engine_over_reference", "ratio", geomean(&ratios), ratios.len()),
        metric("engine.submit_ms", "ms", med_op(&|op| ms(op.submit)), n),
        metric(
            "engine.staging_ms",
            "ms",
            med_op(&|op| ms(op.drain) - op.metrics.as_ref().map_or(0.0, |m| ms(m.runtime))),
            n,
        ),
        metric(
            "engine.runtime_ms",
            "ms",
            med_op(&|op| op.metrics.as_ref().map_or(0.0, |m| ms(m.runtime))),
            n,
        ),
        metric("engine.first_batch_ms", "ms", med_op(&|op| ms(op.first_batch)), n),
        metric(
            "engine.threads_per_query",
            "count",
            mean(
                &ops.iter()
                    .filter_map(|op| Some((stages.get(&op.query)? * WORKERS as usize) as f64))
                    .collect::<Vec<_>>(),
            ),
            n,
        ),
        metric("engine.tasks", "count", per_op(&|m| m.tasks_executed as f64), n),
        metric("engine.push_retries", "count", per_op(&|m| m.push_retries as f64), n),
        metric("admission.wait_ms", "ms", per_op(&|m| ms(m.admission_wait)), n),
        metric("recovery.lost_ms", "ms", Some(lost), kill.len()),
        metric("recovery.tasks", "count", per_op(&|m| m.recovery_tasks as f64), n),
        metric("recovery.redo_ratio", "ratio", Some(recovery_tasks / tasks.max(1.0)), n),
        metric("recovery.planning_ms", "ms", per_op(&|m| ms(m.recovery_planning)), n),
        metric("recovery.replay_requeues", "count", per_op(&|m| m.replay_requeues as f64), n),
        metric("gcs.transactions", "count", per_op(&|m| m.gcs_transactions as f64), n),
        metric("gcs.lineage_kb", "KiB", per_op(&|m| m.lineage_bytes as f64 / 1024.0), n),
        metric("net.shuffle_mb", "MiB", per_op(&|m| m.shuffle_bytes as f64 / MIB), n),
        metric("net.shuffle_raw_mb", "MiB", per_op(&|m| m.shuffle_raw_bytes as f64 / MIB), n),
        metric("storage.backup_mb", "MiB", per_op(&|m| m.backup_bytes as f64 / MIB), n),
        metric("storage.backup_raw_mb", "MiB", per_op(&|m| m.backup_raw_bytes as f64 / MIB), n),
        metric("batch.encode_mb_s", "MiB/s", codec_rate(|c| c.1), data.codec.len()),
        metric("batch.decode_mb_s", "MiB/s", codec_rate(|c| c.2), data.codec.len()),
    ];
    // Only the TCP transport puts bytes on a wire.
    if workload.tcp {
        metrics.extend([
            metric(
                "net.wire_mb",
                "MiB",
                per_op(&|m| sum(m.transport_peers.iter().map(|p| p.bytes_sent as f64)) / MIB),
                n,
            ),
            metric(
                "net.send_queue_peak",
                "count",
                counters
                    .iter()
                    .flat_map(|m| m.transport_peers.iter().map(|p| p.send_queue_peak as f64))
                    .reduce(f64::max),
                n,
            ),
        ]);
    }
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(query: usize, steal: f64) -> Op {
        Op { query, steal, ..Op::default() }
    }

    #[test]
    fn timings_keep_quiet_ops_or_the_least_stolen_half() {
        let ops = [op(1, 0.0), op(1, 0.3), op(1, 0.005), op(2, 0.2), op(2, 0.05), op(2, 0.1)];
        let kept: Vec<(usize, f64)> =
            quiet(ops.iter()).iter().map(|o| (o.query, o.steal)).collect();
        // Query 1 has two quiet ops of three; query 2 has none, so its two
        // least-stolen ops stand in.
        assert_eq!(kept, vec![(1, 0.0), (1, 0.005), (2, 0.05), (2, 0.1)]);
    }
}
