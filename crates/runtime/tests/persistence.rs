//! End-to-end tests of cache persistence and warm start: spill → restart
//! → byte-identical serving, hostile spill files, and concurrent
//! warm-start of a sharded dispatcher over one spill directory.

use std::path::{Path, PathBuf};
use std::time::Duration;

use dpu_compiler::CompileOptions;
use dpu_dag::Dag;
use dpu_isa::ArchConfig;
use dpu_runtime::{
    engine_shards, DispatchOptions, Dispatcher, Engine, EngineOptions, Request, SpillStore, Ticket,
};
use dpu_workloads::pc::{generate_pc, pc_inputs, PcParams};
use dpu_workloads::sparse::{generate_lower_triangular, LowerTriangularParams, SpmvDag};
use dpu_workloads::sptrsv::SptrsvDag;

fn arch() -> ArchConfig {
    ArchConfig::new(2, 8, 32).unwrap()
}

/// A dispatcher of `options.shards` replica shards of [`arch`], over one
/// program store spilling into `dir`.
fn dispatcher(dir: &Path, options: DispatchOptions) -> Dispatcher {
    let configs = vec![arch(); options.shards];
    let spilling = EngineOptions {
        spill_dir: Some(dir.to_path_buf()),
        ..Default::default()
    };
    Dispatcher::new(
        engine_shards(&configs, CompileOptions::default(), &spilling),
        options,
    )
}

/// A unique, initially empty spill directory per test.
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dpu-persist-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn engine_over(dir: &Path) -> Engine {
    Engine::new(
        arch(),
        CompileOptions::default(),
        EngineOptions {
            workers: 2,
            cores: 8,
            spill_dir: Some(dir.to_path_buf()),
        },
    )
}

/// Three real workload families — the PR 1 serving mix.
fn workload_dags() -> Vec<Dag> {
    let pc = generate_pc(&PcParams::with_targets(400, 8), 81);
    let l = generate_lower_triangular(&LowerTriangularParams::for_target_path(40, 1.5, 8), 82);
    let trsv = SptrsvDag::build(&l).dag;
    let a = generate_lower_triangular(
        &LowerTriangularParams {
            dim: 50,
            avg_nnz_per_row: 3.0,
            band_fraction: 0.6,
            band: 6,
        },
        83,
    );
    let spmv = SpmvDag::build(&a).dag;
    vec![pc, trsv, spmv]
}

fn inputs_for(dag: &Dag, i: usize) -> Vec<f32> {
    pc_inputs(dag, i as u64)
}

fn stream(engine: &Engine, dags: &[Dag], n: usize) -> Vec<Request> {
    let keys: Vec<_> = dags.iter().map(|d| engine.register(d.clone())).collect();
    (0..n)
        .map(|i| {
            let which = i % dags.len();
            Request::new(keys[which], inputs_for(&dags[which], i))
        })
        .collect()
}

fn assert_identical(got: &dpu_sim::RunResult, want: &dpu_sim::RunResult, ctx: &str) {
    let got_bits: Vec<u32> = got.outputs.iter().map(|v| v.to_bits()).collect();
    let want_bits: Vec<u32> = want.outputs.iter().map(|v| v.to_bits()).collect();
    assert_eq!(got_bits, want_bits, "{ctx}: outputs differ");
    assert_eq!(got.cycles, want.cycles, "{ctx}: cycles differ");
}

/// Acceptance: a restarted engine over a populated spill directory serves
/// the workload with **zero compiles**, and spilled-then-reloaded
/// programs are byte-identical to freshly compiled ones under
/// `serve_serial`.
#[test]
fn restart_over_spill_serves_with_zero_compiles_byte_identically() {
    let dir = temp_dir("restart");
    let dags = workload_dags();

    // Cold run: compiles once per family, spills each program.
    let cold = engine_over(&dir);
    let requests = stream(&cold, &dags, 45);
    let cold_report = cold.serve_serial(&requests).expect("cold pass succeeds");
    let s = cold.cache_stats();
    assert_eq!(s.misses, dags.len() as u64, "one compile per family");
    assert_eq!(s.spill_writes, dags.len() as u64, "every compile spilled");
    drop(cold);

    // Restart: same directory, fresh process state. Zero compiles, every
    // program back-filled from disk, results byte-identical.
    let warm = engine_over(&dir);
    let requests = stream(&warm, &dags, 45);
    let warm_report = warm.serve_serial(&requests).expect("warm pass succeeds");
    let s = warm.cache_stats();
    assert_eq!(s.misses, 0, "warm restart must not compile");
    assert_eq!(s.spill_hits, dags.len() as u64);
    assert!((s.hit_rate() - 1.0).abs() < 1e-12, "warm hit rate is 1.0");
    assert_eq!(warm_report.results.len(), cold_report.results.len());
    for (i, (got, want)) in warm_report
        .results
        .iter()
        .zip(&cold_report.results)
        .enumerate()
    {
        assert_identical(got, want, &format!("request {i}"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Hostile spill files — corrupted, truncated, version-bumped — are
/// rejected gracefully: the engine recompiles, serves correctly, and
/// counts the rejections. No panic anywhere.
#[test]
fn corrupt_truncated_and_stale_spills_fall_back_to_compile() {
    let dir = temp_dir("hostile");
    let dags = workload_dags();

    let cold = engine_over(&dir);
    let requests = stream(&cold, &dags, 30);
    let want = cold.serve_serial(&requests).expect("cold pass succeeds");
    drop(cold);

    // Vandalize all three spill files differently.
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("dpuc"))
        .collect();
    files.sort();
    assert_eq!(files.len(), 3, "one spill file per family");
    // File 0: flip a byte deep in the compiled payload (checksum trips).
    let mut bytes = std::fs::read(&files[0]).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x5a;
    std::fs::write(&files[0], &bytes).unwrap();
    // File 1: truncate to half.
    let bytes = std::fs::read(&files[1]).unwrap();
    std::fs::write(&files[1], &bytes[..bytes.len() / 2]).unwrap();
    // File 2: bump the spill wrapper version.
    let mut bytes = std::fs::read(&files[2]).unwrap();
    bytes[4] = bytes[4].wrapping_add(1);
    std::fs::write(&files[2], &bytes).unwrap();

    let warm = engine_over(&dir);
    let requests = stream(&warm, &dags, 30);
    let got = warm
        .serve_serial(&requests)
        .expect("fallback pass succeeds");
    let s = warm.cache_stats();
    assert_eq!(s.misses, 3, "every vandalized program recompiled");
    assert_eq!(s.spill_rejects, 3, "every vandalized file rejected");
    assert_eq!(s.spill_hits, 0);
    for (i, (g, w)) in got.results.iter().zip(&want.results).enumerate() {
        assert_identical(g, w, &format!("request {i}"));
    }
    // The fallback compiles re-spilled clean files: a third engine is
    // warm again.
    let healed = engine_over(&dir);
    let requests = stream(&healed, &dags, 6);
    healed.serve_serial(&requests).expect("healed pass");
    assert_eq!(healed.cache_stats().misses, 0, "store healed by recompiles");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Concurrent warm start: a 4-shard dispatcher over one populated spill
/// directory serves the stream with zero compiles — whichever shard
/// touches a family first back-fills the shared store from its file —
/// and byte-identically to serial.
#[test]
fn four_shards_warm_start_concurrently_from_one_spill_dir() {
    let dir = temp_dir("shards");
    let dags = workload_dags();

    // Populate the directory once.
    let seed_engine = engine_over(&dir);
    let requests = stream(&seed_engine, &dags, len_for_shard_test());
    let want = seed_engine.serve_serial(&requests).expect("seed pass");
    drop(seed_engine);

    let d = dispatcher(
        &dir,
        DispatchOptions {
            shards: 4,
            max_batch: 8,
            max_wait: Duration::from_micros(200),
            work_stealing: true,
            ..Default::default()
        },
    );
    let keys: Vec<_> = dags.iter().map(|dag| d.register(dag.clone())).collect();
    let submitter = d.submitter();
    let tickets: Vec<Ticket> = (0..len_for_shard_test())
        .map(|i| {
            let which = i % dags.len();
            submitter
                .submit(Request::new(keys[which], inputs_for(&dags[which], i)))
                .expect("accepted")
        })
        .collect();
    for (i, t) in tickets.into_iter().enumerate() {
        let got = t.wait().expect("request succeeds");
        assert_identical(&got, &want.results[i], &format!("request {i}"));
    }
    let report = d.shutdown();
    let totals = report.cache_totals();
    assert_eq!(totals.misses, 0, "no shard compiled anything");
    assert_eq!(
        totals.spill_hits,
        dags.len() as u64,
        "each family back-filled from the spill once, not once per shard"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

fn len_for_shard_test() -> usize {
    120
}

/// Scale-out pre-warm: a brand-new shard built over a peer's spill
/// directory loads every program **before** taking traffic
/// (`Engine::prewarm` / `Dispatcher::prewarm`), then joins a dispatcher
/// and serves without a single compile.
#[test]
fn new_shard_prewarms_from_peer_spill_before_taking_traffic() {
    let dir = temp_dir("peer");
    let dags = workload_dags();

    // The "peer fleet" has already paid the compiles.
    let peer = engine_over(&dir);
    let requests = stream(&peer, &dags, 30);
    let want = peer.serve_serial(&requests).expect("peer pass");
    drop(peer);

    // Scale-out: two fresh engines over the peer's spill. Pre-warm pulls
    // every program into memory up front.
    let shard_a = engine_over(&dir);
    let shard_b = engine_over(&dir);
    assert_eq!(shard_a.prewarm(), dags.len());
    assert_eq!(shard_b.prewarm(), dags.len());
    assert_eq!(shard_a.cache_stats().entries, dags.len());

    let d = Dispatcher::new(
        vec![shard_a, shard_b],
        DispatchOptions {
            max_batch: 8,
            max_wait: Duration::from_micros(200),
            ..Default::default()
        },
    );
    // Idempotent: everything is already resident.
    assert_eq!(d.prewarm(), 0);
    let keys: Vec<_> = dags.iter().map(|dag| d.register(dag.clone())).collect();
    let submitter = d.submitter();
    let tickets: Vec<Ticket> = (0..30)
        .map(|i| {
            let which = i % dags.len();
            submitter
                .submit(Request::new(keys[which], inputs_for(&dags[which], i)))
                .expect("accepted")
        })
        .collect();
    for (i, t) in tickets.into_iter().enumerate() {
        let got = t.wait().expect("request succeeds");
        assert_identical(&got, &want.results[i], &format!("request {i}"));
    }
    let report = d.shutdown();
    let totals = report.cache_totals();
    assert_eq!(totals.misses, 0, "pre-warmed shards never compile");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `Dispatcher::prewarm` over a filled spill directory: the shards of a
/// dispatcher share one program store, so each program is loaded once —
/// not once per shard — and a second call finds everything resident.
#[test]
fn dispatcher_prewarm_loads_each_program_once_for_all_shards() {
    let dir = temp_dir("prewarm-once");
    let dags = workload_dags();
    let peer = engine_over(&dir);
    let requests = stream(&peer, &dags, 30);
    let want = peer.serve_serial(&requests).expect("peer pass");
    drop(peer);

    let d = dispatcher(
        &dir,
        DispatchOptions {
            shards: 4,
            max_batch: 8,
            max_wait: Duration::from_micros(200),
            ..Default::default()
        },
    );
    assert_eq!(d.prewarm(), dags.len(), "once per program, not per shard");
    assert_eq!(d.prewarm(), 0, "everything is already resident");
    let keys: Vec<_> = dags.iter().map(|dag| d.register(dag.clone())).collect();
    let submitter = d.submitter();
    let tickets: Vec<Ticket> = (0..30)
        .map(|i| {
            let which = i % dags.len();
            submitter
                .submit(Request::new(keys[which], inputs_for(&dags[which], i)))
                .expect("accepted")
        })
        .collect();
    for (i, t) in tickets.into_iter().enumerate() {
        let got = t.wait().expect("request succeeds");
        assert_identical(&got, &want.results[i], &format!("request {i}"));
    }
    let report = d.shutdown();
    assert_eq!(report.stores.len(), 1);
    let totals = report.cache_totals();
    assert_eq!(
        (totals.misses, totals.spill_hits, totals.entries),
        (0, dags.len() as u64, dags.len())
    );
    assert_eq!(totals.hits, 30, "every request hit the prewarmed store");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The spill store API itself: keys() scans only matching options, and a
/// foreign (non-spill) file in the directory is ignored.
#[test]
fn spill_store_scan_ignores_foreign_files() {
    let dir = temp_dir("scan");
    let dags = workload_dags();
    let engine = engine_over(&dir);
    let requests = stream(&engine, &dags, 3);
    engine.serve_serial(&requests).expect("pass");
    drop(engine);

    // Drop junk into the directory.
    std::fs::write(dir.join("README.txt"), b"not a spill").unwrap();
    std::fs::write(dir.join("junk.dpuc"), b"way too short").unwrap();

    let store = SpillStore::new(&dir, &CompileOptions::default()).unwrap();
    let keys = store.keys();
    assert_eq!(keys.len(), dags.len(), "only valid spill files scanned");
    for k in &keys {
        assert_eq!(k.config, arch());
    }
    // And an engine over the polluted directory still warm-starts fine.
    let warm = engine_over(&dir);
    assert_eq!(warm.prewarm(), dags.len());
    let _ = std::fs::remove_dir_all(&dir);
}
