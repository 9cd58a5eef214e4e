//! The cost model that turns bytes moved into simulated time.

use quokka_common::CostModelConfig;
use std::time::Duration;

/// Converts data-movement volumes into wall-clock delays.
///
/// Each `charge_*` method sleeps for `(fixed latency + bytes / bandwidth) *
/// time_scale`. With `time_scale == 0` the methods return immediately, which
/// is what correctness tests use; benchmarks use a small positive scale so
/// that the *relative* costs of the local-disk, network and durable paths
/// shape the results the same way they do on a real cluster.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    config: CostModelConfig,
}

impl CostModel {
    pub fn new(config: CostModelConfig) -> Self {
        CostModel { config }
    }

    /// A cost model that never sleeps.
    pub fn free() -> Self {
        CostModel { config: CostModelConfig::zero() }
    }

    pub fn config(&self) -> &CostModelConfig {
        &self.config
    }

    fn scaled(&self, latency: Duration, bytes: u64, bandwidth: f64) -> Duration {
        if self.config.time_scale <= 0.0 {
            return Duration::ZERO;
        }
        let transfer = if bandwidth > 0.0 { bytes as f64 / bandwidth } else { 0.0 };
        let total = (latency.as_secs_f64() + transfer) * self.config.time_scale;
        Duration::from_secs_f64(total)
    }

    fn charge(duration: Duration) {
        if !duration.is_zero() {
            std::thread::sleep(duration);
        }
    }

    /// Delay for pushing `bytes` over the network to another worker.
    pub fn network_delay(&self, bytes: u64) -> Duration {
        self.scaled(self.config.network_latency, bytes, self.config.network_bandwidth)
    }

    /// Delay for writing `bytes` to the worker's local disk.
    pub fn local_disk_delay(&self, bytes: u64) -> Duration {
        self.scaled(self.config.local_disk_latency, bytes, self.config.local_disk_bandwidth)
    }

    /// Delay for one durable-store request moving `bytes`.
    pub fn durable_delay(&self, bytes: u64) -> Duration {
        self.scaled(self.config.durable_latency, bytes, self.config.durable_bandwidth)
    }

    /// Delay of one GCS round trip.
    pub fn gcs_delay(&self) -> Duration {
        self.scaled(self.config.gcs_latency, 0, 1.0)
    }

    /// Sleep for a network push of `bytes`.
    pub fn charge_network(&self, bytes: u64) {
        Self::charge(self.network_delay(bytes));
    }

    /// Sleep for a local-disk write of `bytes`.
    pub fn charge_local_disk(&self, bytes: u64) {
        Self::charge(self.local_disk_delay(bytes));
    }

    /// Sleep for a durable PUT/GET of `bytes`.
    pub fn charge_durable(&self, bytes: u64) {
        Self::charge(self.durable_delay(bytes));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_model_charges_nothing() {
        let m = CostModel::free();
        assert_eq!(m.network_delay(1 << 30), Duration::ZERO);
        assert_eq!(m.durable_delay(1 << 30), Duration::ZERO);
        assert_eq!(m.gcs_delay(), Duration::ZERO);
        // Must return instantly.
        let start = std::time::Instant::now();
        m.charge_durable(u64::MAX / 2);
        assert!(start.elapsed() < Duration::from_millis(5));
    }

    #[test]
    fn durable_path_is_much_more_expensive_than_local_disk() {
        let m = CostModel::new(CostModelConfig::realistic());
        let mb = 1 << 20;
        assert!(m.durable_delay(mb) > m.local_disk_delay(mb) * 5);
        assert!(m.durable_delay(mb) > m.network_delay(mb));
    }

    #[test]
    fn delays_scale_linearly_with_bytes_and_time_scale() {
        let full = CostModel::new(CostModelConfig::scaled(1.0));
        let tenth = CostModel::new(CostModelConfig::scaled(0.1));
        let big = full.durable_delay(10 << 20);
        let small = full.durable_delay(1 << 20);
        assert!(big > small);
        let ratio = tenth.durable_delay(10 << 20).as_secs_f64() / big.as_secs_f64();
        assert!((ratio - 0.1).abs() < 0.01);
    }

    #[test]
    fn charging_actually_sleeps() {
        let mut cfg = CostModelConfig::realistic();
        cfg.durable_latency = Duration::from_millis(5);
        cfg.time_scale = 1.0;
        let m = CostModel::new(cfg);
        let start = std::time::Instant::now();
        m.charge_durable(0);
        assert!(start.elapsed() >= Duration::from_millis(4));
    }
}
