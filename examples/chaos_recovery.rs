//! Chaos-mode failure injection demo: a scripted [`ChaosPlan`] kills
//! one of three engine shards mid-stream and drags a second one on
//! every round, while the dispatcher requeues the dead
//! shard's rounds onto survivors, reclaims stalled leases, and hedges
//! slow rounds onto idle peers — without losing or double-fulfilling a
//! single ticket.
//!
//! The same request stream is first served by an identical but unharmed
//! dispatcher; every chaos-mode result is then verified byte-identical
//! against that reference, so "recovered" means *recovered*, not
//! "recomputed differently".
//!
//! Run with `cargo run --release --example chaos_recovery`.

use std::time::Duration;

use dpu_core::prelude::*;
use dpu_core::runtime::home_shard;
use dpu_core::workloads::pc::{generate_pc, pc_inputs, PcParams};
use dpu_core::workloads::sparse::{generate_lower_triangular, LowerTriangularParams, SpmvDag};
use dpu_core::workloads::sptrsv::SptrsvDag;

const REQUESTS: usize = 300;
const SHARDS: usize = 3;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Three workload families (same trio as the serving demos).
    let dpu = Dpu::large();
    let pc = generate_pc(&PcParams::with_targets(2_000, 14), 31);
    let l = generate_lower_triangular(&LowerTriangularParams::for_target_path(100, 2.0, 18), 32);
    let trsv = SptrsvDag::build(&l);
    let a = generate_lower_triangular(
        &LowerTriangularParams {
            dim: 120,
            avg_nnz_per_row: 4.0,
            band_fraction: 0.7,
            band: 10,
        },
        33,
    );
    let spmv = SpmvDag::build(&a);
    let inputs_for = |family: usize, seq: usize| -> Vec<f32> {
        match family {
            0 => pc_inputs(&pc, seq as u64),
            1 => {
                let b: Vec<f32> = (0..l.dim)
                    .map(|j| 1.0 + 0.5 * (((seq + j) as f32) * 0.37).sin())
                    .collect();
                trsv.inputs(&l, &b)
            }
            _ => {
                let x: Vec<f32> = (0..a.dim)
                    .map(|j| 0.5 + 0.3 * (((2 * seq + j) as f32) * 0.23).cos())
                    .collect();
                spmv.inputs(&a, &x)
            }
        }
    };

    // 2. Reference pass: an identical dispatcher, no faults. Its results
    // are the ground truth the recovered run must match byte for byte.
    let serve = |options: DispatchOptions| -> Result<Vec<RunResult>, Box<dyn std::error::Error>> {
        let dispatcher = dpu.dispatcher(options);
        let keys = [
            dispatcher.register(pc.clone()),
            dispatcher.register(trsv.dag.clone()),
            dispatcher.register(spmv.dag.clone()),
        ];
        let submitter = dispatcher.submitter();
        let tickets: Vec<Ticket> = (0..REQUESTS)
            .map(|i| {
                let family = i % keys.len();
                submitter.submit(Request::new(keys[family], inputs_for(family, i)))
            })
            .collect::<Result<_, _>>()?;
        dispatcher.drain();
        let results = tickets
            .into_iter()
            .map(|t| t.wait().expect("every request must complete"))
            .collect();
        let report = dispatcher.shutdown();
        println!(
            "  recovered {:>3} jobs | hedged {:>2} rounds ({:>2} hedge wins) | failed {}",
            report.recovered,
            report.hedged,
            report.hedge_wins,
            report.classes.iter().map(|c| c.failed).sum::<u64>()
        );
        Ok(results)
    };
    let base = DispatchOptions {
        shards: SHARDS,
        max_batch: 8,
        max_wait: Duration::from_micros(500),
        ..Default::default()
    };
    println!("== reference pass (no faults) ==");
    let reference = serve(base.clone())?;

    // 3. Chaos pass: the home shard of the pc family dies after its
    // second round (mid-backlog), the next shard over drags every round
    // by a seed-stable pseudo-random stall, overdue leases are reclaimed
    // after 50 ms, and rounds waiting past the observed p95 are hedged
    // onto idle peers.
    let pc_key = dpu.engine(EngineOptions::default()).register(pc.clone());
    let victim = home_shard(pc_key, SHARDS);
    let straggler = (victim + 1) % SHARDS;
    println!("== chaos pass (kill shard {victim} after 2 rounds, stall shard {straggler}) ==");
    let recovered = serve(DispatchOptions {
        chaos: Some(
            ChaosPlan::new(42)
                .kill_shard(victim, 2)
                .stall_shard(straggler, Duration::from_millis(2)),
        ),
        hedge: Some(HedgeOptions::default()),
        stall_timeout: Some(Duration::from_millis(50)),
        ..base
    })?;

    // 4. Every ticket resolved exactly once, and every surviving result
    // is byte-identical to the unharmed run.
    assert_eq!(recovered.len(), reference.len());
    for (i, (got, want)) in recovered.iter().zip(&reference).enumerate() {
        assert_eq!(got.outputs, want.outputs, "request {i}: outputs diverged");
        assert_eq!(got.cycles, want.cycles, "request {i}: cycles diverged");
    }
    println!("all {REQUESTS} results byte-identical to the unharmed run — loss-free recovery");
    Ok(())
}
