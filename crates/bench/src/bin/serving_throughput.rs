//! Serving-throughput benchmark of the `dpu-runtime` engine (the
//! production-serving counterpart of the paper's §V-C2 batch mode).
//!
//! Serves ≥ 1000 requests drawn from three workload families — sparse
//! (SpMV), SpTRSV, and probabilistic circuits — through `Engine::serve`,
//! on a dispatcher of ≥ 4 shards, on the DPU-v2 (L) configuration,
//! verifies the aggregate outputs are byte-identical to a serial
//! reference pass, and emits one
//! JSON perf line with cache hit rate, simulated GOPS, and host
//! wall-clock.
//!
//! Run with `cargo run --release -p dpu-bench --bin serving_throughput --
//! [--json <path>]` — the `--json` flag additionally writes the perf line
//! to a file (see `dpu_bench::report`).

use dpu_bench::report::{emit, json_path_flag, Json};
use dpu_core::prelude::*;
use dpu_core::workloads::pc::{generate_pc, pc_inputs, PcParams};
use dpu_core::workloads::sparse::{generate_lower_triangular, LowerTriangularParams, SpmvDag};
use dpu_core::workloads::sptrsv::SptrsvDag;
use dpu_core::{energy, runtime};

const REQUESTS: usize = 1200;
const WORKERS: usize = 4;

struct Family {
    name: &'static str,
    dag: Dag,
    /// Fresh inputs per request index.
    inputs: Box<dyn Fn(usize) -> Vec<f32>>,
}

fn families() -> Vec<Family> {
    let mut out = Vec::new();
    // Family 1: probabilistic circuits (two sizes).
    for (nodes, depth, seed) in [(1_500usize, 12usize, 21u64), (2_500, 16, 22)] {
        let dag = generate_pc(&PcParams::with_targets(nodes, depth), seed);
        let d = dag.clone();
        out.push(Family {
            name: "pc",
            dag,
            inputs: Box::new(move |i| pc_inputs(&d, i as u64)),
        });
    }
    // Family 2: SpTRSV forward substitution (two matrices).
    for (dim, path, seed) in [(100usize, 18usize, 23u64), (160, 24, 24)] {
        let l = generate_lower_triangular(
            &LowerTriangularParams::for_target_path(dim, 2.0, path),
            seed,
        );
        let trsv = SptrsvDag::build(&l);
        let dag = trsv.dag.clone();
        out.push(Family {
            name: "sptrsv",
            dag,
            inputs: Box::new(move |i| {
                let b: Vec<f32> = (0..l.dim)
                    .map(|j| 1.0 + 0.5 * (((i + j) as f32) * 0.37).sin())
                    .collect();
                trsv.inputs(&l, &b)
            }),
        });
    }
    // Family 3: sparse matrix-vector products (two matrices).
    for (dim, seed) in [(120usize, 25u64), (200, 26)] {
        let a = generate_lower_triangular(
            &LowerTriangularParams {
                dim,
                avg_nnz_per_row: 4.0,
                band_fraction: 0.7,
                band: 10,
            },
            seed,
        );
        let spmv = SpmvDag::build(&a);
        let dag = spmv.dag.clone();
        out.push(Family {
            name: "sparse",
            dag,
            inputs: Box::new(move |i| {
                let x: Vec<f32> = (0..a.dim)
                    .map(|j| 0.5 + 0.3 * (((2 * i + j) as f32) * 0.23).cos())
                    .collect();
                spmv.inputs(&a, &x)
            }),
        });
    }
    out
}

fn build_stream(engine: &Engine, fams: &[Family]) -> Vec<Request> {
    let keys: Vec<DagKey> = fams
        .iter()
        .map(|f| engine.register(f.dag.clone()))
        .collect();
    (0..REQUESTS)
        .map(|i| {
            let which = i % fams.len();
            Request::new(keys[which], (fams[which].inputs)(i))
        })
        .collect()
}

fn main() {
    let dpu = Dpu::large();
    let opts = EngineOptions {
        workers: WORKERS,
        cores: runtime::DPU_V2_L_CORES,
        spill_dir: None,
    };
    let fams = families();
    let family_names: Vec<&str> = {
        let mut n: Vec<&str> = fams.iter().map(|f| f.name).collect();
        n.dedup();
        n
    };

    // Dispatcher-backed serving pass.
    let engine = dpu.engine(opts.clone());
    let stream = build_stream(&engine, &fams);
    let report = engine.serve(&stream);
    assert!(report.failures.is_empty(), "serving succeeds");

    // Serial reference pass on a fresh engine; aggregate outputs must be
    // byte-identical.
    let ref_engine = dpu.engine(opts);
    let ref_stream = build_stream(&ref_engine, &fams);
    assert_eq!(stream, ref_stream, "request streams must be identical");
    let reference = ref_engine
        .serve_serial(&ref_stream)
        .expect("serial reference succeeds");
    let mut verified = report.results.len() == reference.results.len();
    for (got, want) in report.results.iter().zip(reference.results.iter()) {
        let got_bits: Vec<u32> = got.outputs.iter().map(|v| v.to_bits()).collect();
        let want_bits: Vec<u32> = want.outputs.iter().map(|v| v.to_bits()).collect();
        verified &= got_bits == want_bits && got.cycles == want.cycles;
    }
    assert!(verified, "served outputs differ from serial reference");
    assert!(
        report.cache.hit_rate() > 0.9,
        "cache hit rate {:.3} not > 0.9",
        report.cache.hit_rate()
    );

    let freq = energy::calib::FREQ_HZ;
    // One machine-readable perf line, built through `dpu_bench::report`.
    let line = Json::obj()
        .field("bench", "serving_throughput")
        .field("requests", report.results.len())
        .field("workers", report.workers)
        .field(
            "host_cpus",
            std::thread::available_parallelism().map_or(0, |n| n.get()),
        )
        .field(
            "families",
            Json::Arr(family_names.iter().map(|&n| n.into()).collect()),
        )
        .field("distinct_dags", fams.len())
        .field("cache_hit_rate", report.cache.hit_rate())
        .field("compiles", report.cache.misses)
        .field("batch_rounds", report.plan.rounds.len())
        .field("modelled_cores", report.plan.cores)
        .field("batch_cycles", report.plan.total_cycles)
        .field("simulated_gops", report.gops(freq))
        .field(
            "core_utilization",
            report
                .plan
                .core_utilization(&report.results.iter().map(|r| r.cycles).collect::<Vec<_>>()),
        )
        .field("host_seconds", report.host_seconds)
        .field("host_rps", report.host_requests_per_sec())
        .field("serial_host_seconds", reference.host_seconds)
        .field(
            "speedup",
            reference.host_seconds / report.host_seconds.max(1e-9),
        )
        .field("verified", verified);
    emit(&line, json_path_flag().as_deref());
}
