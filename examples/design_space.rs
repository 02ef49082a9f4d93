//! Miniature design-space exploration (§V-B) over a reduced grid.
//!
//! Sweeps tree depth, bank count and register-file size on a small PC
//! workload, printing latency / energy / EDP per operation and the chosen
//! optimum — the same methodology as Fig. 11 at toy scale (the full
//! 48-point sweep lives in `cargo run -p dpu-bench --bin all_experiments
//! fig11_dse`).
//!
//! Run with `cargo run --release --example design_space`.

use dpu_core::dse;
use dpu_core::prelude::*;
use dpu_core::workloads::pc::{generate_pc, pc_inputs, PcParams};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dag = generate_pc(&PcParams::with_targets(3_000, 20), 5);
    let inputs = pc_inputs(&dag, 11);
    let workloads = vec![(dag, inputs)];

    let grid: Vec<ArchConfig> = [
        (1u32, 8u32, 32u32),
        (2, 8, 32),
        (2, 16, 32),
        (3, 16, 32),
        (3, 32, 32),
        (3, 64, 32),
        (3, 64, 64),
    ]
    .into_iter()
    .map(|(d, b, r)| ArchConfig::new(d, b, r).expect("valid grid"))
    .collect();

    println!(
        "{:>3} {:>4} {:>4}  {:>8} {:>8} {:>8} {:>7}",
        "D", "B", "R", "ns/op", "pJ/op", "EDP", "mm2"
    );
    let points = dse::explore(&grid, &workloads, 4)?;
    for p in &points {
        println!(
            "{:>3} {:>4} {:>4}  {:>8.2} {:>8.1} {:>8.1} {:>7.2}",
            p.depth, p.banks, p.regs, p.latency_per_op_ns, p.energy_per_op_pj, p.edp, p.area_mm2
        );
    }
    let opt = dse::optima(&points);
    println!(
        "\nmin-EDP design: D={}, B={}, R={} (EDP {:.1} pJ*ns)",
        opt.min_edp.depth, opt.min_edp.banks, opt.min_edp.regs, opt.min_edp.edp
    );
    println!("paper's full-sweep optimum: D=3, B=64, R=32");
    Ok(())
}
