//! Design-space exploration (§V-B, Fig. 11/12).
//!
//! The paper sweeps the architecture template over `D ∈ {1,2,3}`,
//! `B ∈ {8,16,32,64}`, `R ∈ {16,32,64,128}` — 48 configurations — compiles
//! the whole benchmark suite onto each, simulates, and reports latency,
//! energy and energy-delay product per operation averaged over the
//! workloads. The minimum-EDP design is `(D=3, B=64, R=32)`.
//!
//! This crate reproduces that sweep with the real compiler + simulator +
//! energy model, fanning configurations out over threads (std scoped
//! threads; compilation dominates the cost).

use dpu_compiler::{compile, CompileOptions};
use dpu_dag::Dag;
use dpu_energy::Metrics;
use dpu_isa::ArchConfig;

/// The paper's sweep grid.
pub fn paper_grid() -> Vec<ArchConfig> {
    let mut v = Vec::with_capacity(48);
    for d in [1u32, 2, 3] {
        for b in [8u32, 16, 32, 64] {
            for r in [16u32, 32, 64, 128] {
                v.push(ArchConfig::new(d, b, r).expect("grid configs are valid"));
            }
        }
    }
    v
}

/// One evaluated design point (averaged over the workload set).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DsePoint {
    /// Tree depth.
    pub depth: u32,
    /// Bank count.
    pub banks: u32,
    /// Registers per bank.
    pub regs: u32,
    /// Mean latency per operation (ns).
    pub latency_per_op_ns: f64,
    /// Mean energy per operation (pJ).
    pub energy_per_op_pj: f64,
    /// Mean energy-delay product (pJ·ns).
    pub edp: f64,
    /// Total area (mm²).
    pub area_mm2: f64,
}

/// Errors from [`explore`] / [`evaluate_config`].
#[derive(Debug, Clone, PartialEq)]
pub enum DseError {
    /// A workload failed to compile on some configuration.
    Compile(String),
    /// A workload failed to simulate.
    Sim(String),
}

impl std::fmt::Display for DseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DseError::Compile(e) => write!(f, "compile: {e}"),
            DseError::Sim(e) => write!(f, "simulate: {e}"),
        }
    }
}

impl std::error::Error for DseError {}

/// Compiles + simulates every `(dag, inputs)` workload on `cfg` and
/// averages the Fig. 11 metrics.
///
/// # Errors
///
/// See [`DseError`].
pub fn evaluate_config(
    cfg: &ArchConfig,
    workloads: &[(Dag, Vec<f32>)],
) -> Result<DsePoint, DseError> {
    let opts = CompileOptions::default();
    let mut lat = 0.0f64;
    let mut en = 0.0f64;
    let mut edp = 0.0f64;
    for (dag, inputs) in workloads {
        let compiled = compile(dag, cfg, &opts).map_err(|e| DseError::Compile(e.to_string()))?;
        let run = dpu_sim::execute(&compiled, inputs).map_err(|e| DseError::Sim(e.to_string()))?;
        let m: Metrics = dpu_energy::metrics(cfg, &run);
        lat += m.latency_per_op_ns;
        en += m.energy_per_op_pj;
        edp += m.edp;
    }
    let k = workloads.len().max(1) as f64;
    Ok(DsePoint {
        depth: cfg.depth,
        banks: cfg.banks,
        regs: cfg.regs_per_bank,
        latency_per_op_ns: lat / k,
        energy_per_op_pj: en / k,
        edp: edp / k,
        area_mm2: dpu_energy::area_mm2(cfg),
    })
}

/// Runs the full sweep over `grid` with up to `threads` worker threads.
///
/// # Errors
///
/// Fails on the first configuration that cannot be compiled or simulated.
pub fn explore(
    grid: &[ArchConfig],
    workloads: &[(Dag, Vec<f32>)],
    threads: usize,
) -> Result<Vec<DsePoint>, DseError> {
    let threads = threads.clamp(1, grid.len().max(1));
    let chunks: Vec<&[ArchConfig]> = grid.chunks(grid.len().div_ceil(threads)).collect();
    let results = std::thread::scope(|s| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| {
                s.spawn(move || {
                    chunk
                        .iter()
                        .map(|cfg| evaluate_config(cfg, workloads))
                        .collect::<Result<Vec<_>, _>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect::<Result<Vec<Vec<DsePoint>>, DseError>>()
    })?;
    Ok(results.into_iter().flatten().collect())
}

/// The three optima the paper highlights in Fig. 11.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Optima {
    /// Minimum latency-per-op point.
    pub min_latency: DsePoint,
    /// Minimum energy-per-op point.
    pub min_energy: DsePoint,
    /// Minimum EDP point (the paper's selected design).
    pub min_edp: DsePoint,
}

/// Finds the optima of a sweep.
///
/// # Panics
///
/// Panics if `points` is empty.
pub fn optima(points: &[DsePoint]) -> Optima {
    assert!(!points.is_empty(), "empty sweep");
    let pick = |key: fn(&DsePoint) -> f64| {
        *points
            .iter()
            .min_by(|a, b| key(a).partial_cmp(&key(b)).expect("finite metrics"))
            .expect("non-empty")
    };
    Optima {
        min_latency: pick(|p| p.latency_per_op_ns),
        min_energy: pick(|p| p.energy_per_op_pj),
        min_edp: pick(|p| p.edp),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpu_workloads::pc::{generate_pc, pc_inputs, PcParams};

    fn tiny_workloads() -> Vec<(Dag, Vec<f32>)> {
        let dag = generate_pc(&PcParams::with_targets(600, 10), 9);
        let inputs = pc_inputs(&dag, 3);
        vec![(dag, inputs)]
    }

    #[test]
    fn grid_has_48_points() {
        assert_eq!(paper_grid().len(), 48);
    }

    #[test]
    fn evaluate_one_config() {
        let cfg = ArchConfig::new(2, 8, 32).unwrap();
        let p = evaluate_config(&cfg, &tiny_workloads()).unwrap();
        assert!(p.latency_per_op_ns > 0.0);
        assert!(p.energy_per_op_pj > 0.0);
        assert!((p.edp - p.latency_per_op_ns * p.energy_per_op_pj).abs() / p.edp < 0.5);
    }

    #[test]
    fn explore_small_grid_parallel() {
        let grid = vec![
            ArchConfig::new(1, 8, 32).unwrap(),
            ArchConfig::new(2, 8, 32).unwrap(),
            ArchConfig::new(3, 8, 32).unwrap(),
            ArchConfig::new(3, 16, 32).unwrap(),
        ];
        let pts = explore(&grid, &tiny_workloads(), 4).unwrap();
        assert_eq!(pts.len(), 4);
        let opt = optima(&pts);
        // Deeper trees and more banks should not hurt latency.
        assert!(opt.min_latency.banks >= 8);
        assert!(opt.min_edp.edp <= pts[0].edp);
    }
}
