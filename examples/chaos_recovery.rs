//! Chaos-mode failure injection demo: a scripted [`ChaosPlan`] kills
//! one of three engine shards mid-stream and drags a second one on
//! every round, while the dispatcher requeues the dead shard's queued
//! rounds onto survivors, reclaims stalled leases, and hedges slow rounds
//! onto idle peers — without double-fulfilling a single ticket. The kill
//! is a panic where the victim's round executes, contained like an
//! engine's own: the jobs it had in hand — one round at most — fail
//! `ShardLost`, and nothing else does.
//!
//! The same request stream is first served by an identical but unharmed
//! dispatcher; every other chaos-mode result is then verified
//! byte-identical against that reference, so "recovered" means
//! *recovered*, not "recomputed differently".
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
const MAX_BATCH: usize = 8;

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
    let serve = |options: DispatchOptions| -> Result<_, Box<dyn std::error::Error>> {
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
        let outcomes: Vec<Outcome> = tickets.into_iter().map(Ticket::wait).collect();
        let report = dispatcher.shutdown();
        println!(
            "  recovered {:>3} jobs | hedged {:>2} rounds ({:>2} hedge wins) | failed {}",
            report.recovered,
            report.hedged,
            report.hedge_wins,
            report.classes.iter().map(|c| c.failed).sum::<u64>()
        );
        for c in &report.classes {
            assert_eq!(c.offered, c.completed + c.failed + c.shed + c.rejected);
        }
        Ok((outcomes, report))
    };
    let base = DispatchOptions {
        shards: SHARDS,
        max_batch: MAX_BATCH,
        max_wait: Duration::from_micros(500),
        ..Default::default()
    };
    println!("== reference pass (no faults) ==");
    let (reference, _) = serve(base.clone())?;
    let reference: Vec<RunResult> = reference
        .into_iter()
        .map(|o| o.expect("every unharmed request completes"))
        .collect();

    // 3. Chaos pass: the home shard of the pc family dies on its third
    // round (mid-backlog), the next shard over drags every round
    // by a seed-stable pseudo-random stall, overdue leases are reclaimed
    // after 50 ms, and rounds waiting past the observed p95 are hedged
    // onto idle peers.
    let pc_key = dpu.engine(EngineOptions::default()).register(pc.clone());
    let victim = home_shard(pc_key, SHARDS);
    let straggler = (victim + 1) % SHARDS;
    println!("== chaos pass (kill shard {victim} on its third round, stall shard {straggler}) ==");
    let (outcomes, report) = serve(DispatchOptions {
        chaos: Some(
            ChaosPlan::new(42)
                .kill_shard(victim, 2)
                .stall_shard(straggler, Duration::from_millis(2)),
        ),
        hedge: true,
        stall_timeout: Some(Duration::from_millis(50)),
        ..base
    })?;

    // 4. Every ticket resolved exactly once: the victim's in-hand round —
    // at most one round — failed `ShardLost`, those failures are all the
    // ledger counts, and every other result is byte-identical to the
    // unharmed run.
    assert_eq!(outcomes.len(), reference.len());
    let mut lost = 0;
    for (i, (got, want)) in outcomes.into_iter().zip(&reference).enumerate() {
        match got {
            Outcome::Completed(got) => {
                assert_eq!(got.outputs, want.outputs, "request {i}: outputs diverged");
                assert_eq!(got.cycles, want.cycles, "request {i}: cycles diverged");
            }
            Outcome::Failed(ServeError::ShardLost { shard }) if shard == victim => lost += 1,
            other => panic!("request {i}: {other:?}"),
        }
    }
    let failed: u64 = report.classes.iter().map(|c| c.failed).sum();
    assert_eq!(lost, failed, "ShardLost tickets vs the ledger");
    assert!(lost <= MAX_BATCH as u64, "{lost} lost: more than one round");
    println!(
        "{} of {REQUESTS} results byte-identical to the unharmed run; {lost} in the killed shard's hand failed ShardLost",
        REQUESTS as u64 - lost
    );
    Ok(())
}
