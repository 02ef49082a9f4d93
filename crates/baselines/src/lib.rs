//! Baseline platform models for the DPU-v2 evaluation (§V-C, Fig. 1(c),
//! Fig. 3(c), Fig. 14, Table III).
//!
//! The paper benchmarks DPU-v2 against measured hardware: an 18-core Xeon
//! running GRAPHOPT-parallelized DAGs, an RTX 2080Ti running layer-wise
//! kernels, the DPU (v1) ASIP, and the SPU accelerator (itself *estimated*
//! by the paper from its published speedups). Without that hardware, this
//! crate models each platform analytically from its published
//! characteristics, calibrated so the absolute throughputs land on the
//! paper's Table III anchors (CPU ≈ 1.2 GOPS, GPU ≈ 0.4 GOPS on the small
//! suite; CPU ≈ 1.8, GPU ≈ 4.6 GOPS on the large PCs); the per-workload
//! *shape* then comes from each DAG's measured size and critical path.
//! See DESIGN.md §1 for the substitution rationale.
//!
//! [`spatial`] implements the Fig. 3(c) peak-utilization study: a cone
//! mapper for tree datapaths and a greedy wavefront mapper for systolic
//! arrays.

pub mod cpu;
pub mod dpu_v1;
pub mod exec;
pub mod gpu;
pub mod spatial;
pub mod spu;

pub use exec::BaselineModel;

/// A platform measurement for one workload (one bar of Fig. 14).
#[derive(Debug, Clone, PartialEq)]
pub struct PlatformResult {
    /// Platform name as used in Table III.
    pub platform: &'static str,
    /// Throughput in GOPS (DAG operations per nanosecond).
    pub throughput_gops: f64,
    /// Average power in watts.
    pub power_w: f64,
}

impl PlatformResult {
    /// Energy-delay product per operation in pJ·ns, the Table III metric:
    /// `(power / throughput) × (1 / throughput)`.
    pub fn edp_pj_ns(&self) -> f64 {
        let energy_per_op_pj = self.power_w / self.throughput_gops * 1e3;
        let latency_per_op_ns = 1.0 / self.throughput_gops;
        energy_per_op_pj * latency_per_op_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edp_definition() {
        let r = PlatformResult {
            platform: "x",
            throughput_gops: 2.0,
            power_w: 0.2,
        };
        // energy/op = 0.1 nJ/op? 0.2 W / 2 GOPS = 0.1 nJ = 100 pJ; latency
        // = 0.5 ns; EDP = 50 pJ·ns.
        assert!((r.edp_pj_ns() - 50.0).abs() < 1e-9);
    }
}
