//! Baseline comparison demo: one live request stream served on DPU-v2,
//! every other platform of the paper's §V-C comparison priced on it.
//!
//! Two DPU-v2 engine shards serve a seeded open-loop stream (tickets,
//! byte-identical to a serial pass). The CPU, GPU, DPU-v1 and SPU models
//! from `dpu-baselines` are pure functions of DAG shape, so their rows are
//! computed from how many times each DAG completed
//! ([`PlatformSummary::modelled`]) — Table III, on *your* traffic instead
//! of the paper's offline suite — with no second execution of anything.
//!
//! Run with `cargo run --release --example multi_backend`.

use std::time::Duration;

use dpu_core::energy;
use dpu_core::prelude::*;
use dpu_core::workloads::pc::{generate_pc, pc_inputs, PcParams};
use dpu_core::workloads::sparse::{generate_lower_triangular, LowerTriangularParams, SpmvDag};
use dpu_core::workloads::traffic::{open_loop_schedule, ArrivalPattern, TrafficParams};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dpu = Dpu::large();
    let freq = energy::calib::FREQ_HZ;

    // Two workload families and a seeded open-loop schedule over them.
    let pc = generate_pc(&PcParams::with_targets(1_500, 12), 90);
    let a = generate_lower_triangular(
        &LowerTriangularParams {
            dim: 140,
            avg_nnz_per_row: 4.0,
            band_fraction: 0.7,
            band: 10,
        },
        91,
    );
    let spmv = SpmvDag::build(&a);
    let schedule = open_loop_schedule(&TrafficParams {
        requests: 400,
        rate_per_sec: 4_000.0,
        pattern: ArrivalPattern::Poisson,
        families: 2,
        skew: 0.3,
        seed: 93,
        ..Default::default()
    });
    let inputs_for = |family: usize, seq: usize| -> Vec<f32> {
        if family == 0 {
            pc_inputs(&pc, seq as u64)
        } else {
            let x: Vec<f32> = (0..a.dim)
                .map(|j| 0.5 + 0.3 * (((2 * seq + j) as f32) * 0.23).cos())
                .collect();
            spmv.inputs(&a, &x)
        }
    };

    let dispatcher = dpu.dispatcher(DispatchOptions {
        shards: 2,
        max_batch: 24,
        max_wait: Duration::from_micros(500),
        ..Default::default()
    });
    let dags = [pc.clone(), spmv.dag.clone()];
    let keys = dags.clone().map(|dag| dispatcher.register(dag));
    let requests: Vec<Request> = schedule
        .iter()
        .map(|arr| Request::new(keys[arr.family], inputs_for(arr.family, arr.seq)))
        .collect();
    let submitter = dispatcher.submitter();
    let tickets: Vec<Ticket> = requests
        .iter()
        .map(|r| submitter.submit(r.clone()))
        .collect::<Result<_, _>>()?;
    dispatcher.drain();

    // Every reply is byte-identical to a serial pass over the same stream.
    let serial = dpu.engine(EngineOptions::default());
    for dag in &dags {
        serial.register(dag.clone());
    }
    let reference = serial.serve_serial(&requests)?.results;
    let mut completed = [0u64; 2];
    let mut total_cycles = 0u64;
    let mut total_pj = 0.0f64;
    for ((t, want), arr) in tickets.into_iter().zip(&reference).zip(&schedule) {
        let r = t.wait().expect("no deadlines set, nothing can be shed");
        let bits = |r: &RunResult| r.outputs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&r), bits(want), "request {}", arr.seq);
        assert_eq!(r.cycles, want.cycles, "request {}", arr.seq);
        completed[arr.family] += 1;
        total_pj += energy::energy_pj(&dpu.config, &r.activity, r.cycles);
        total_cycles += r.cycles;
    }
    let report = dispatcher.shutdown();

    // The DPU row is the run's own. Its power is activity-dependent;
    // derive the average from the energy model so it gets an EDP like the
    // flat-power baselines.
    let mut rows = vec![PlatformSummary {
        platform: "dpu_v2",
        requests: report.served,
        dag_ops: report.total_dag_ops(),
        modelled_cycles: report.modelled_cycles(),
        power_w: total_pj * 1e-12 / (total_cycles as f64 / freq).max(1e-30),
    }];
    let served = [(&dags[0], completed[0]), (&dags[1], completed[1])];
    for model in [
        BaselineModel::cpu(),
        BaselineModel::gpu(),
        BaselineModel::dpu_v1(),
        BaselineModel::spu(),
    ] {
        rows.push(PlatformSummary::modelled(&model, &served, freq));
    }

    println!("== DPU-v2 served, baselines priced on the same traffic ==");
    println!(
        "submitted / served : {} / {}",
        report.submitted, report.served
    );
    println!("total DPU request cycles : {total_cycles}");
    println!(
        "\n{:<8} {:>9} {:>12} {:>10} {:>9}",
        "platform", "requests", "GOPS", "power W", "EDP"
    );
    for p in &rows {
        // Every platform divides the same work by its own time.
        assert_eq!(p.dag_ops, report.total_dag_ops(), "{}", p.platform);
        let edp = p
            .edp_pj_ns(freq)
            .map_or("-".to_string(), |e| format!("{e:.1}"));
        println!(
            "{:<8} {:>9} {:>12.3} {:>10.2} {:>9}",
            p.platform,
            p.requests,
            p.gops(freq),
            p.power_w,
            edp
        );
    }
    Ok(())
}
