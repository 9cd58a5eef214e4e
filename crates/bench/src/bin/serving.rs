//! Concurrent serving bench: plan cache and admission control under load.
//!
//! A pool of client threads fires a mixed TPC-H workload — SQL statements
//! and DataFrame-built queries — at one shared [`QuokkaSession`], in three
//! phases:
//!
//! * **cold** — plan cache disabled: every statement pays the full
//!   parse → bind → decorrelate → optimize path.
//! * **warm** — plan cache enabled and pre-warmed: repeated statements
//!   skip planning entirely (observable via `QueryMetrics::plan_cache_hit`).
//! * **overload** — tight admission limits (few slots, short queue) under
//!   more clients than capacity: excess arrivals must be *rejected* with a
//!   typed `Overloaded` error, never lost or timed out, while every
//!   admitted query still returns correct results.
//!
//! Each phase reports p50/p99 end-to-end latency, p50/p99 **plan-path**
//! latency (the time `session.sql` takes — the piece the cache removes),
//! and QPS, all written to `BENCH_serving.json`. The run **fails**
//! (non-zero exit) if the warm plan path is not well below the cold one, if
//! the overload phase fails to reject gracefully, or if any result diverges
//! from the reference executor. The plan-path gate re-measures once before
//! failing, so a scheduler hiccup does not flake CI.
//!
//! Run with: `cargo run --release -p quokka-bench --bin serving`
//!
//! Environment knobs: `QUOKKA_SF` (default 0.005), `QUOKKA_WORKERS`
//! (default 2), `QUOKKA_CLIENTS` (default 4), `QUOKKA_SERVING_ITERS`
//! (default 3), `QUOKKA_BENCH_OUT` (default `BENCH_serving.json`).

use quokka::{
    results_match, AdmissionConfig, Batch, EngineConfig, PlanCacheConfig, QuokkaError,
    QuokkaSession,
};
use quokka_bench::env_or;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The serving mix: moderate TPC-H queries spanning scans, joins,
/// semi-joins and aggregation, each answerable in tens of milliseconds at
/// the bench scale factor.
const WORKLOAD: &[usize] = &[1, 3, 6, 12, 14];

#[derive(Default)]
struct PhaseTallies {
    /// End-to-end latency of every completed query.
    latencies: Vec<Duration>,
    /// `session.sql` latency of every SQL-frontend query (the plan path).
    plan_times: Vec<Duration>,
    completed: u64,
    rejected: u64,
    cache_hits: u64,
    /// Queries that failed with anything other than `Overloaded`.
    errors: Vec<String>,
    /// Queries whose rows diverged from the reference executor.
    divergences: u64,
    /// Wire traffic summed over every completed query's transport peers.
    /// Zero on the in-process transport; real counts under
    /// `QUOKKA_TRANSPORT=tcp`.
    wire_bytes_sent: u64,
    /// Highest per-peer send-queue depth seen across the phase — how close
    /// the load came to engaging backpressure.
    send_queue_peak: u64,
}

struct PhaseResult {
    name: &'static str,
    wall: Duration,
    tallies: PhaseTallies,
}

impl PhaseResult {
    fn qps(&self) -> f64 {
        if self.wall.is_zero() {
            0.0
        } else {
            self.tallies.completed as f64 / self.wall.as_secs_f64()
        }
    }
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

fn sorted(mut v: Vec<Duration>) -> Vec<Duration> {
    v.sort();
    v
}

/// Run `clients` threads, each firing `iters` passes over the workload at
/// `session`. Even-numbered clients use the SQL frontend (these exercise
/// the plan cache); odd-numbered ones build the same queries through the
/// DataFrame API.
fn run_phase(
    name: &'static str,
    session: &QuokkaSession,
    clients: usize,
    iters: usize,
    expected: &Arc<BTreeMap<usize, Batch>>,
) -> PhaseResult {
    let tallies = Arc::new(Mutex::new(PhaseTallies::default()));
    let start = Instant::now();
    let mut handles = Vec::new();
    for client in 0..clients {
        let session = session.clone();
        let tallies = Arc::clone(&tallies);
        let expected = Arc::clone(expected);
        handles.push(std::thread::spawn(move || {
            for iter in 0..iters {
                for step in 0..WORKLOAD.len() {
                    // Stagger the starting point so clients do not run in
                    // lockstep over the same statement.
                    let number = WORKLOAD[(step + client + iter) % WORKLOAD.len()];
                    let t0 = Instant::now();
                    let built = if client % 2 == 0 {
                        let text = quokka::tpch::queries::sql::sql_text(number)
                            .expect("workload query has SQL text");
                        let handle = session.sql(text);
                        let plan_time = t0.elapsed();
                        if let Ok(h) = &handle {
                            let mut t = tallies.lock().unwrap();
                            t.plan_times.push(plan_time);
                            if h.is_plan_cache_hit() {
                                t.cache_hits += 1;
                            }
                        }
                        handle
                    } else {
                        quokka::dataframe::tpch::query(&session, number).map(|f| f.handle())
                    };
                    let outcome = built.and_then(|h| h.collect());
                    let latency = t0.elapsed();
                    let mut t = tallies.lock().unwrap();
                    match outcome {
                        Ok(outcome) => {
                            t.completed += 1;
                            t.latencies.push(latency);
                            let peers = &outcome.metrics.transport_peers;
                            t.wire_bytes_sent += peers.iter().map(|p| p.bytes_sent).sum::<u64>();
                            t.send_queue_peak = t
                                .send_queue_peak
                                .max(peers.iter().map(|p| p.send_queue_peak).max().unwrap_or(0));
                            if !results_match(&outcome.batch, &expected[&number]) {
                                t.divergences += 1;
                            }
                        }
                        Err(QuokkaError::Overloaded { .. }) => t.rejected += 1,
                        Err(other) => t.errors.push(format!("q{number}: {other}")),
                    }
                }
            }
        }));
    }
    for handle in handles {
        handle.join().expect("client thread panicked");
    }
    let wall = start.elapsed();
    let tallies = Arc::try_unwrap(tallies).ok().expect("clients joined").into_inner().unwrap();
    PhaseResult { name, wall, tallies }
}

fn phase_json(r: &PhaseResult) -> String {
    let lat = sorted(r.tallies.latencies.clone());
    let plan = sorted(r.tallies.plan_times.clone());
    format!(
        "    {{\"name\": \"{}\", \"completed\": {}, \"rejected\": {}, \"qps\": {:.2}, \
         \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \"plan_p50_us\": {:.1}, \"plan_p99_us\": {:.1}, \
         \"cache_hits\": {}, \"wire_bytes_sent\": {}, \"send_queue_peak\": {}, \
         \"wall_ms\": {:.1}}}",
        r.name,
        r.tallies.completed,
        r.tallies.rejected,
        r.qps(),
        percentile(&lat, 0.50).as_secs_f64() * 1e3,
        percentile(&lat, 0.99).as_secs_f64() * 1e3,
        percentile(&plan, 0.50).as_secs_f64() * 1e6,
        percentile(&plan, 0.99).as_secs_f64() * 1e6,
        r.tallies.cache_hits,
        r.tallies.wire_bytes_sent,
        r.tallies.send_queue_peak,
        r.wall.as_secs_f64() * 1e3,
    )
}

fn report(r: &PhaseResult) {
    let lat = sorted(r.tallies.latencies.clone());
    let plan = sorted(r.tallies.plan_times.clone());
    eprintln!(
        "[serving] {:<9} {:>4} ok {:>3} rejected  {:>7.1} qps  e2e p50 {:>8.3?} p99 {:>8.3?}  \
         plan p50 {:>9.3?} p99 {:>9.3?}  cache hits {:>3}",
        r.name,
        r.tallies.completed,
        r.tallies.rejected,
        r.qps(),
        percentile(&lat, 0.50),
        percentile(&lat, 0.99),
        percentile(&plan, 0.50),
        percentile(&plan, 0.99),
        r.tallies.cache_hits,
    );
}

fn check_clean(r: &PhaseResult) {
    assert!(
        r.tallies.errors.is_empty(),
        "[serving] {}: unexpected errors: {:?}",
        r.name,
        r.tallies.errors
    );
    assert_eq!(
        r.tallies.divergences, 0,
        "[serving] {}: {} queries diverged from the reference",
        r.name, r.tallies.divergences
    );
}

fn main() {
    let scale_factor = env_or("QUOKKA_SF", 0.005);
    let workers = env_or("QUOKKA_WORKERS", 2);
    let clients: usize = env_or("QUOKKA_CLIENTS", 4);
    let iters: usize = env_or("QUOKKA_SERVING_ITERS", 3);
    let out_path = env_or("QUOKKA_BENCH_OUT", "BENCH_serving.json".to_string());

    eprintln!("[serving] generating TPC-H data at SF {scale_factor} ...");
    let config = EngineConfig::quokka(workers);
    let session = QuokkaSession::new(config.clone());
    quokka::TpchGenerator::new(scale_factor, 0xC0FFEE)
        .register_all(session.catalog())
        .expect("generate TPC-H data");

    // Reference answers, computed once and shared by every phase's checks.
    let mut expected = BTreeMap::new();
    for &number in WORKLOAD {
        let batch = session
            .tpch_query(number)
            .expect("workload plan")
            .collect_reference()
            .expect("reference run");
        expected.insert(number, batch);
    }
    let expected = Arc::new(expected);

    // Phase sessions: cold planning (cache off), warm serving (cache on,
    // pre-warmed), and an overloaded deployment (2 slots, 2 queue spots).
    let cold_session =
        session.clone().with_config(config.clone().with_plan_cache(PlanCacheConfig::disabled()));
    let warm_session = session.clone();
    for &number in WORKLOAD {
        let text = quokka::tpch::queries::sql::sql_text(number).expect("workload SQL");
        warm_session.sql(text).expect("pre-warm planning");
    }
    let overload_clients = (clients * 2).max(6);
    let overload_session =
        session.clone().with_config(config.clone().with_admission(AdmissionConfig::bounded(2, 2)));

    // The plan-path gate re-measures once before failing: the speedup is
    // orders of magnitude (hashmap hit vs full frontend), so one retry is
    // only ever needed when the first run hit a scheduler hiccup.
    let mut attempt = 0;
    let (cold, warm) = loop {
        attempt += 1;
        let cold = run_phase("cold", &cold_session, clients, iters, &expected);
        let warm = run_phase("warm", &warm_session, clients, iters, &expected);
        report(&cold);
        report(&warm);
        check_clean(&cold);
        check_clean(&warm);
        let cold_plan = percentile(&sorted(cold.tallies.plan_times.clone()), 0.50);
        let warm_plan = percentile(&sorted(warm.tallies.plan_times.clone()), 0.50);
        if warm_plan.as_secs_f64() < cold_plan.as_secs_f64() * 0.5 {
            break (cold, warm);
        }
        assert!(
            attempt < 2,
            "[serving] plan-path gate failed twice: warm p50 {warm_plan:?} vs cold p50 \
             {cold_plan:?} (expected < 50%)"
        );
        eprintln!("[serving] plan-path gate missed on attempt {attempt}; re-measuring once");
    };
    let overload = run_phase("overload", &overload_session, overload_clients, iters, &expected);
    report(&overload);
    check_clean(&overload);

    let phases = [&cold, &warm, &overload];
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"scale_factor\": {scale_factor},\n"));
    json.push_str(&format!("  \"workers\": {workers},\n"));
    json.push_str(&format!("  \"clients\": {clients},\n"));
    json.push_str(&format!("  \"overload_clients\": {overload_clients},\n"));
    json.push_str(&format!(
        "  \"workload\": [{}],\n",
        WORKLOAD.iter().map(|n| n.to_string()).collect::<Vec<_>>().join(", ")
    ));
    json.push_str("  \"phases\": [\n");
    for (i, phase) in phases.iter().enumerate() {
        json.push_str(&phase_json(phase));
        json.push_str(if i + 1 < phases.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    let cache = warm_session.plan_cache().stats();
    json.push_str(&format!(
        "  \"plan_cache\": {{\"hits\": {}, \"misses\": {}, \"evictions\": {}}},\n",
        cache.hits, cache.misses, cache.evictions
    ));
    let admission = overload_session.admission().stats();
    json.push_str(&format!(
        "  \"admission\": {{\"admitted\": {}, \"rejected\": {}, \"queued\": {}, \
         \"peak_running\": {}, \"peak_queued\": {}}}\n",
        admission.admitted,
        admission.rejected,
        admission.queued,
        admission.peak_running,
        admission.peak_queued
    ));
    json.push_str("}\n");
    std::fs::write(&out_path, &json).expect("write benchmark results");
    eprintln!("wrote {out_path}");

    // Regression gates beyond the warm-vs-cold plan path (checked above).
    assert_eq!(cold.tallies.cache_hits, 0, "cold phase must never hit the cache");
    assert!(
        warm.tallies.cache_hits == warm.tallies.plan_times.len() as u64,
        "every warm SQL statement must hit the cache ({}/{} hit)",
        warm.tallies.cache_hits,
        warm.tallies.plan_times.len()
    );
    assert!(
        overload.tallies.rejected > 0,
        "overload phase must reject some arrivals (got {} completions, 0 rejections)",
        overload.tallies.completed
    );
    assert!(overload.tallies.completed > 0, "overload phase must still serve admitted queries");
    let stats = overload_session.admission().stats();
    assert!(stats.peak_running <= 2, "admission cap of 2 exceeded: {}", stats.peak_running);
    assert!(stats.peak_queued <= 2, "queue bound of 2 exceeded: {}", stats.peak_queued);
    assert_eq!(
        overload_session.admission().running(),
        0,
        "all admission slots must be released when the phase drains"
    );
    eprintln!("[serving] gates passed: warm plan path beats cold, overload rejects gracefully");
}
