//! Shared harness for the experiment binaries.
//!
//! Every table and figure of the paper's evaluation is one entry of
//! [`experiments::experiments`], run by name through the `all_experiments`
//! binary (see DESIGN.md §3 for the index); this library holds the
//! common plumbing: suite loading at a configurable scale, DPU-v2
//! compile+simulate+measure runs, baseline evaluation, and plain-text
//! table/series rendering.
//!
//! ## Scale
//!
//! The published workload sizes (9k–79k nodes, large PCs up to 3.3M) make
//! some sweeps slow in a test setting. The `DPU_SCALE` environment
//! variable (default `1.0` for per-workload figures, smaller inside the
//! 48-point DSE) scales node counts; every binary prints the scale it ran
//! at so EXPERIMENTS.md can record it.

pub mod experiments;
pub mod report;

use dpu_core::prelude::*;
use dpu_core::sim;
use dpu_core::workloads::pc::pc_inputs;
use dpu_core::workloads::suite::{self, BenchmarkSpec, WorkloadClass};

/// Reads the workload scale from `DPU_SCALE` (clamped to `(0, 1]`).
pub fn env_scale(default: f64) -> f64 {
    std::env::var("DPU_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .unwrap_or(default)
        .clamp(0.01, 1.0)
}

/// A generated workload ready to run: DAG plus matching inputs.
pub struct Workload {
    /// Benchmark metadata.
    pub spec: BenchmarkSpec,
    /// The DAG at the requested scale.
    pub dag: Dag,
    /// Input values appropriate for the workload class.
    pub inputs: Vec<f32>,
}

/// Generates inputs appropriate for a workload class.
pub fn inputs_for(spec: &BenchmarkSpec, dag: &Dag) -> Vec<f32> {
    match spec.class {
        // Log-probabilities for PCs.
        WorkloadClass::Pc | WorkloadClass::LargePc => pc_inputs(dag, spec.seed),
        // SpTRSV DAG inputs are b values then matrix values; a smooth
        // deterministic pattern keeps the solve well conditioned.
        WorkloadClass::SpTrsv => (0..dag.input_count())
            .map(|i| 0.6 + 0.8 * ((i as f32 * 0.7).sin().abs()))
            .collect(),
    }
}

/// Loads the small suite (Table I(a)+(b)) at `scale`.
pub fn load_small_suite(scale: f64) -> Vec<Workload> {
    suite::small_suite()
        .into_iter()
        .map(|spec| {
            let dag = spec.generate_scaled(scale);
            let inputs = inputs_for(&spec, &dag);
            Workload { spec, dag, inputs }
        })
        .collect()
}

/// Loads the large-PC suite (Table I(c)) at `scale`.
pub fn load_large_suite(scale: f64) -> Vec<Workload> {
    suite::large_pc_suite()
        .into_iter()
        .map(|spec| {
            let dag = spec.generate_scaled(scale);
            let inputs = inputs_for(&spec, &dag);
            Workload { spec, dag, inputs }
        })
        .collect()
}

/// One DPU-v2 measurement of a workload.
pub struct DpuRun {
    /// Compiler output (stats, layout, program).
    pub compiled: Compiled,
    /// Simulator result.
    pub run: RunResult,
    /// Derived metrics.
    pub metrics: Metrics,
}

/// Compiles and simulates one workload on `dpu`, panicking with context on
/// failure (experiment binaries want loud failures).
pub fn measure(dpu: &Dpu, w: &Workload) -> DpuRun {
    let compiled = dpu
        .compile(&w.dag)
        .unwrap_or_else(|e| panic!("{}: compile failed: {e}", w.spec.name));
    let run = dpu
        .execute(&compiled, &w.inputs)
        .unwrap_or_else(|e| panic!("{}: simulation failed: {e}", w.spec.name));
    let metrics = dpu.metrics(&run);
    DpuRun {
        compiled,
        run,
        metrics,
    }
}

/// Throughput in GOPS for a simulated run at the calibrated frequency.
pub fn gops(run: &RunResult) -> f64 {
    sim::throughput_ops(run, dpu_core::energy::calib::FREQ_HZ) / 1e9
}

/// Renders a plain-text table: a header row and aligned columns.
pub fn render_table(title: &str, header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = format!("== {title} ==\n");
    let line = |cells: Vec<String>, widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect::<Vec<_>>()
            .join("  ")
    };
    out.push_str(&line(
        header.iter().map(|s| s.to_string()).collect(),
        &widths,
    ));
    out.push('\n');
    for row in rows {
        out.push_str(&line(row.clone(), &widths));
        out.push('\n');
    }
    out
}

/// Formats a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a float with 1 decimal.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rendering_aligns() {
        let t = render_table(
            "t",
            &["name", "x"],
            &[
                vec!["a".into(), "1.00".into()],
                vec!["longer".into(), "2.50".into()],
            ],
        );
        assert!(t.contains("== t =="));
        assert!(t.contains("longer  2.50"));
    }

    #[test]
    fn tiny_workload_measures() {
        let spec = suite::tiny_suite().remove(0);
        let dag = spec.generate();
        let inputs = inputs_for(&spec, &dag);
        let w = Workload { spec, dag, inputs };
        let dpu = Dpu::new(ArchConfig::new(2, 8, 32).unwrap());
        let r = measure(&dpu, &w);
        assert!(r.run.cycles > 0);
        assert!(gops(&r.run) > 0.0);
    }
}
