//! Shared experiment harness for reproducing the paper's tables and figures.
//!
//! Every `fig*` binary in `src/bin/` drives the same machinery: generate a
//! TPC-H data set, run the relevant configurations (Quokka, the
//! SparkSQL-like stagewise baseline, the Trino-like spooling baseline,
//! static scheduling variants, failure injections), and print the series the
//! corresponding paper figure plots. Absolute numbers differ from the paper
//! — the substrate is a simulated cluster, not 16 EC2 instances — but the
//! comparisons (who wins, by roughly what factor) are the reproduction
//! target.
//!
//! Environment knobs shared by all binaries (each bin reads its own with
//! [`env_or`]):
//!
//! * `QUOKKA_SF` — TPC-H scale factor (default 0.01).
//! * `QUOKKA_WORKERS` — comma-separated cluster sizes to run (default
//!   depends on the figure, e.g. "4,16").
//! * `QUOKKA_QUERIES` — comma-separated query numbers (default depends on
//!   the figure).
//! * `QUOKKA_COST_SCALE` — time-scale of the simulated cost model (default
//!   0.02; 0 disables simulated I/O delays entirely).

use quokka::{
    ChaosEvent, ChaosTrigger, CostModelConfig, EngineConfig, LogicalPlan, QueryMetrics,
    QuokkaSession,
};
use std::collections::BTreeMap;
use std::time::Instant;

/// One measured run.
#[derive(Debug, Clone)]
pub struct Measurement {
    pub label: String,
    pub query: usize,
    pub workers: u32,
    pub seconds: f64,
    pub metrics: QueryMetrics,
}

/// Harness: a TPC-H data set plus helpers for timing configurations.
pub struct Harness {
    session: QuokkaSession,
    pub scale_factor: f64,
    pub cost_scale: f64,
    plans: BTreeMap<usize, LogicalPlan>,
}

impl Harness {
    /// Build the harness from the environment knobs.
    pub fn from_env() -> quokka::Result<Self> {
        let scale_factor = env_or("QUOKKA_SF", 0.01);
        let cost_scale = env_or("QUOKKA_COST_SCALE", 0.02);
        eprintln!("[harness] generating TPC-H data at SF {scale_factor} ...");
        // The catalog is worker-count independent; EngineConfig decides the
        // cluster shape per run.
        let session = QuokkaSession::tpch(scale_factor, 4)?;
        let mut plans = BTreeMap::new();
        for q in quokka::tpch::ALL_QUERIES {
            plans.insert(q, quokka::tpch::query(q)?);
        }
        Ok(Harness { session, scale_factor, cost_scale, plans })
    }

    /// The engine configuration used for the "Quokka" series.
    pub fn quokka_config(&self, workers: u32) -> EngineConfig {
        EngineConfig::quokka(workers).with_cost(CostModelConfig::scaled(self.cost_scale))
    }

    /// The SparkSQL-like comparator (stagewise execution).
    pub fn spark_config(&self, workers: u32) -> EngineConfig {
        EngineConfig::sparklike(workers).with_cost(CostModelConfig::scaled(self.cost_scale))
    }

    /// The Trino-like comparator (pipelined + durable spooling).
    pub fn trino_config(&self, workers: u32) -> EngineConfig {
        EngineConfig::trinolike(workers).with_cost(CostModelConfig::scaled(self.cost_scale))
    }

    /// The logical plan of a TPC-H query.
    pub fn plan(&self, query: usize) -> &LogicalPlan {
        &self.plans[&query]
    }

    /// Time one query under one configuration.
    pub fn run(
        &self,
        label: &str,
        query: usize,
        config: &EngineConfig,
    ) -> quokka::Result<Measurement> {
        let start = Instant::now();
        let outcome = self.session.run_with(self.plan(query), config)?;
        let seconds = start.elapsed().as_secs_f64();
        Ok(Measurement {
            label: label.to_string(),
            query,
            workers: config.cluster.workers,
            seconds,
            metrics: outcome.metrics,
        })
    }

    /// Time one query under one configuration with a worker killed at the
    /// given progress fraction, on top of the configuration's own chaos plan.
    pub fn run_with_failure(
        &self,
        label: &str,
        query: usize,
        config: &EngineConfig,
        worker: u32,
        at_progress: f64,
    ) -> quokka::Result<Measurement> {
        let kill = ChaosEvent::KillWorker { worker };
        let chaos = config.chaos.clone().with(ChaosTrigger::Progress(at_progress), kill);
        self.run(label, query, &config.clone().with_chaos(chaos))
    }
}

/// Geometric mean of a non-empty slice.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Queries to run: the `QUOKKA_QUERIES` env var or the given default.
pub fn queries_from_env(default: &[usize]) -> Vec<usize> {
    match std::env::var("QUOKKA_QUERIES") {
        Ok(value) => value
            .split(',')
            .filter_map(|s| s.trim().parse().ok())
            .filter(|q| (1..=22).contains(q))
            .collect(),
        Err(_) => default.to_vec(),
    }
}

/// Cluster sizes to run: the `QUOKKA_WORKERS` env var or the given default.
pub fn workers_from_env(default: &[u32]) -> Vec<u32> {
    match std::env::var("QUOKKA_WORKERS") {
        Ok(value) => value.split(',').filter_map(|s| s.trim().parse().ok()).collect(),
        Err(_) => default.to_vec(),
    }
}

/// Environment variable `name` parsed as a `T`, or `default` when it is
/// unset or does not parse.
pub fn env_or<T: std::str::FromStr>(name: &str, default: T) -> T {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Print a labelled series as an aligned table row.
pub fn print_header(title: &str, columns: &[&str]) {
    println!("\n=== {title} ===");
    print!("{:<10}", "query");
    for c in columns {
        print!("{c:>18}");
    }
    println!();
}

/// Print one row of a results table.
pub fn print_row(query: usize, values: &[f64]) {
    print!("Q{query:<9}");
    for v in values {
        print!("{v:>18.3}");
    }
    println!();
}

/// Print a geometric-mean summary row.
pub fn print_geomean(label: &str, series: &[Vec<f64>]) {
    print!("{label:<10}");
    for column in series {
        print!("{:>18.3}", geomean(column));
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
        assert!((geomean(&[3.0]) - 3.0).abs() < 1e-9);
        assert!(geomean(&[]).is_nan());
    }

    #[test]
    fn env_parsers_fall_back_to_defaults() {
        std::env::remove_var("QUOKKA_QUERIES");
        std::env::remove_var("QUOKKA_WORKERS");
        assert_eq!(queries_from_env(&[1, 6]), vec![1, 6]);
        assert_eq!(workers_from_env(&[4, 16]), vec![4, 16]);

        let knob = "QUOKKA_BENCH_ENV_OR_TEST";
        std::env::remove_var(knob);
        assert_eq!(env_or(knob, 0.5), 0.5);
        std::env::set_var(knob, "nope");
        assert_eq!(env_or(knob, 7u32), 7);
        std::env::set_var(knob, "12");
        assert_eq!(env_or(knob, 7u32), 12);
        assert_eq!(env_or(knob, String::new()), "12");
        std::env::remove_var(knob);
    }
}
