//! Serving demo: stand up a `dpu-runtime` engine on the paper's DPU-v2
//! (L) configuration and serve a mixed stream of probabilistic-circuit
//! and SpTRSV requests, printing cache behavior and both clocks
//! (simulated-hardware GOPS and host wall-clock).
//!
//! Run with `cargo run --release --example serving`.

use dpu_core::prelude::*;
use dpu_core::workloads::pc::{generate_pc, pc_inputs, PcParams};
use dpu_core::workloads::sparse::{generate_lower_triangular, LowerTriangularParams};
use dpu_core::workloads::sptrsv::SptrsvDag;
use dpu_core::{energy, runtime};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A persistent engine on DPU-v2 (L): the cache stays warm across
    // batches, and each batch runs on a dispatcher of four shards, each
    // owning one reusable machine.
    let dpu = Dpu::large();
    let engine = dpu.engine(EngineOptions {
        workers: 4,
        cores: runtime::DPU_V2_L_CORES,
        spill_dir: None,
    });

    // Register a small fleet of DAGs: two PCs and one SpTRSV.
    let pc_small = generate_pc(&PcParams::with_targets(2_000, 16), 7);
    let pc_wide = generate_pc(&PcParams::with_targets(4_000, 12), 8);
    let l = generate_lower_triangular(&LowerTriangularParams::for_target_path(120, 2.0, 20), 9);
    let trsv = SptrsvDag::build(&l);

    let k_pc_small = engine.register(pc_small.clone());
    let k_pc_wide = engine.register(pc_wide.clone());
    let k_trsv = engine.register(trsv.dag.clone());
    println!("registered: {k_pc_small}, {k_pc_wide}, {k_trsv}");

    // A mixed request stream: 300 requests, fresh inputs per request.
    let b_vec: Vec<f32> = (0..l.dim)
        .map(|i| 1.0 + (i as f32 * 0.3).sin().abs())
        .collect();
    let trsv_inputs = trsv.inputs(&l, &b_vec);
    let requests: Vec<Request> = (0..300)
        .map(|i| match i % 3 {
            0 => Request::new(k_pc_small, pc_inputs(&pc_small, i as u64)),
            1 => Request::new(k_pc_wide, pc_inputs(&pc_wide, i as u64)),
            _ => Request::new(k_trsv, trsv_inputs.clone()),
        })
        .collect();

    let report = engine.serve(&requests);
    assert!(report.failures.is_empty(), "no request failed");

    let freq = energy::calib::FREQ_HZ;
    println!("\n== serving report ==");
    println!("requests served      : {}", report.results.len());
    println!("dispatcher shards    : {}", report.workers);
    println!("host wall-clock      : {:.1} ms", report.host_seconds * 1e3);
    println!(
        "host throughput      : {:.0} req/s",
        report.host_requests_per_sec()
    );
    println!(
        "cache                : {} compiles, {} hits ({:.1}% hit rate)",
        report.cache.misses,
        report.cache.hits,
        report.cache.hit_rate() * 100.0
    );
    println!(
        "batch plan           : {} rounds on {} modelled cores, {} cycles",
        report.plan.rounds.len(),
        report.plan.cores,
        report.plan.total_cycles
    );
    println!("DAG operations       : {}", report.total_dag_ops);
    println!(
        "simulated throughput : {:.2} GOPS @ {:.0} MHz",
        report.gops(freq),
        freq / 1e6
    );

    // Serving again with a warm cache: zero compiles.
    let before = report.cache.misses;
    let warm = engine.serve(&requests);
    assert_eq!(warm.cache.misses, before, "warm batch must not compile");
    println!(
        "\nwarm second batch    : {:.1} ms ({} new compiles)",
        warm.host_seconds * 1e3,
        warm.cache.misses - before
    );
    Ok(())
}
