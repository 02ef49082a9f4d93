//! Warm restart and peer pre-warm: cache persistence end to end.
//!
//! Compiled programs are content-addressed by (DAG fingerprint,
//! architecture config), so an engine given a spill directory persists
//! every compile to disk and reloads it instead of recompiling — across
//! restarts, and across *processes*: a brand-new engine pointed at a
//! peer's spill directory pre-warms before taking its first request.
//! (Within one dispatcher nothing needs warming shard to shard: its engine
//! shards serve from one program store.)
//!
//! Run with: `cargo run --release --example warm_restart`

use dpu_core::prelude::*;
use dpu_core::runtime::engine_shards;
use dpu_core::workloads::pc::{generate_pc, pc_inputs, PcParams};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dpu = Dpu::large();
    let spill_dir = std::env::temp_dir().join("dpu_warm_restart_example");
    let _ = std::fs::remove_dir_all(&spill_dir); // start genuinely cold
    let options = EngineOptions {
        spill_dir: Some(spill_dir.clone()),
        ..Default::default()
    };

    // Two probabilistic-circuit families, 200 requests.
    let fams: Vec<Dag> = vec![
        generate_pc(&PcParams::with_targets(1_200, 11), 41),
        generate_pc(&PcParams::with_targets(800, 9), 42),
    ];
    let serve = |engine: &Engine| {
        let keys: Vec<DagKey> = fams.iter().map(|d| engine.register(d.clone())).collect();
        let stream: Vec<Request> = (0..200)
            .map(|i| Request::new(keys[i % 2], pc_inputs(&fams[i % 2], i as u64)))
            .collect();
        engine.serve(&stream)
    };

    // 1. Cold engine: compiles each family once, spills each program.
    let cold = dpu.engine(options.clone());
    let report = serve(&cold);
    let s = cold.cache_stats();
    println!(
        "cold    : {} requests, {} compiles, {} spilled, hit rate {:.3}",
        report.results.len(),
        s.misses,
        s.spill_writes,
        s.hit_rate()
    );
    drop(cold); // "process exit"

    // 2. Restarted engine over the same directory: zero compiles — every
    //    first touch back-fills from the spill and still counts as a hit.
    let warm = dpu.engine(options.clone());
    let report = serve(&warm);
    let s = warm.cache_stats();
    println!(
        "restart : {} requests, {} compiles, {} reloaded, hit rate {:.3}",
        report.results.len(),
        s.misses,
        s.spill_hits,
        s.hit_rate()
    );
    assert_eq!(s.misses, 0, "a warm restart never compiles");
    drop(warm);

    // 3. Scale-out: a brand-new engine pre-warms from the peer spill
    //    *before* taking traffic; so does a sharded dispatcher over the
    //    same directory — each program loaded once into the store its
    //    shards share, not once per shard.
    let new_shard = dpu.engine(options.clone());
    let loaded = new_shard.prewarm();
    println!("pre-warm: {loaded} programs loaded before the first request");

    let shards = engine_shards(&[dpu.config; 2], dpu.options.clone(), &options);
    let dispatcher = Dispatcher::new(shards, DispatchOptions::default());
    let keys: Vec<DagKey> = fams
        .iter()
        .map(|d| dispatcher.register(d.clone()))
        .collect();
    let warmed = dispatcher.prewarm();
    assert_eq!(
        warmed,
        fams.len(),
        "each program loaded once for both shards"
    );
    let submitter = dispatcher.submitter();
    let tickets: Vec<Ticket> = (0..100)
        .map(|i| {
            submitter
                .submit(Request::new(keys[i % 2], pc_inputs(&fams[i % 2], i as u64)))
                .expect("accepted")
        })
        .collect();
    for t in tickets {
        t.wait().expect("no deadlines set, nothing can be shed");
    }
    let report = dispatcher.shutdown();
    let totals = report.cache_totals();
    println!(
        "sharded : {} served over {} shards, {} pre-warmed programs, {} compiles, \
         serving window {:.1} ms",
        report.served,
        report.shards.len(),
        warmed,
        totals.misses,
        report.host_seconds * 1e3
    );
    assert_eq!(totals.misses, 0, "the whole fleet rode the spill");

    let _ = std::fs::remove_dir_all(&spill_dir);
    Ok(())
}
