//! The analytic "ideal" far-memory model of §3.1.
//!
//! The ideal system incurs only data-movement costs: each major fault
//! adds exactly one best-case RDMA latency `L` to the faulting thread.
//! With per-core fault counts `F_c` and an all-local runtime `T₀`, the
//! slowest core sets the job's runtime:
//!
//! ```text
//! T_ideal(x) = T₀ + L · max_c F_{c,x}
//! ```
//!
//! The benchmark harness uses this model two ways: as an analytic curve
//! computed from fault counts measured on the zero-overhead simulation,
//! and as the `SystemConfig::ideal()` configuration that actually runs
//! the engine with all software costs zeroed.

use mage_sim::time::Nanos;

/// The analytic ideal model.
#[derive(Clone, Copy, Debug)]
pub struct IdealModel {
    /// Best-case remote access latency `L` (ns); 3.9 µs in the paper.
    pub rdma_latency_ns: Nanos,
}

impl IdealModel {
    /// The paper's testbed latency.
    pub fn paper() -> Self {
        IdealModel {
            rdma_latency_ns: 3_900,
        }
    }

    /// Ideal runtime (ns) of a job given its all-local runtime and the
    /// per-core major-fault counts.
    pub fn runtime_ns(&self, local_runtime_ns: u64, faults_per_core: &[u64]) -> u64 {
        let worst = faults_per_core.iter().copied().max().unwrap_or(0);
        local_runtime_ns + self.rdma_latency_ns * worst
    }

    /// The fault-throughput ceiling of the fabric in pages/second: one
    /// page per serialization slot. For 24 B/ns and 4 KiB pages this is
    /// the paper's 5.8 M ops/s "ideal limit" (Fig. 5).
    pub fn fault_rate_ceiling(bandwidth_bytes_per_ns: f64, page_bytes: u64) -> f64 {
        bandwidth_bytes_per_ns * 1e9 / page_bytes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_faults_means_no_drop() {
        let m = IdealModel::paper();
        assert_eq!(m.runtime_ns(1_000_000, &[0, 0]), 1_000_000);
    }

    #[test]
    fn slowest_core_bounds_throughput() {
        let m = IdealModel::paper();
        let rt = m.runtime_ns(1_000_000_000, &[10, 1_000, 100]);
        assert_eq!(rt, 1_000_000_000 + 3_900 * 1_000);
    }

    #[test]
    fn fault_ceiling_matches_paper() {
        // 24 B/ns (192 Gbps practical) / 4 KiB = 5.86 M pages/s; the paper
        // quotes 5.83 M ops/s as the ideal limit (Fig. 5).
        let ceiling = IdealModel::fault_rate_ceiling(24.0, 4096);
        assert!((ceiling / 1e6 - 5.86).abs() < 0.05, "ceiling {ceiling}");
    }
}
