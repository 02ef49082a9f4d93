//! Allocation pins: host costs that a wall clock cannot resolve, counted
//! exactly. A counting global allocator tallies every `alloc`,
//! `alloc_zeroed` and `realloc`, in the process and per thread, so the
//! phases below run one after another inside one test: a second test
//! running beside them would add its allocations to theirs. The phases
//! whose code runs on the calling thread alone count that thread's
//! allocations, so the test harness's own thread, which can still be
//! finishing its bookkeeping for this test when the first phases run on a
//! loaded host, cannot add to their exact counts; the dispatcher's phase
//! counts every thread.
//!
//! - The decoded walk on a warm machine allocates nothing, and a group
//!   run allocates only what it returns.
//! - A warm `Engine::execute_round` over rounds of 32 allocates an exact
//!   count, a formula in the round's requests and groups.
//! - The dispatcher's submit → flush → wait path stays under a pinned
//!   allocations-per-request bound (round composition depends on thread
//!   timing, so it is a bound, not an equality).
//! - A warm restart — `Compiled::from_bytes`, the verification a spill
//!   load runs, then `DecodedProgram::decode` — allocates an exact count
//!   per program.
//!
//! A change that adds an allocation per request edits a literal here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use dpu_compiler::{compile, CompileOptions, Compiled};
use dpu_dag::{Dag, DagBuilder, Op};
use dpu_isa::ArchConfig;
use dpu_runtime::{
    engine_shards, DispatchOptions, Dispatcher, Engine, EngineOptions, Request, Ticket,
};
use dpu_sim::{run_decoded_group, DecodedProgram, Machine};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation, in the process and on the calling thread.
fn note() {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    // A thread being torn down has no slot left; its allocations still
    // count in the process total.
    let _ = THREAD_ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; the counters are a
// relaxed atomic and a const-initialised thread-local `Cell` without a
// destructor, neither of which allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made (by any thread) while `f` runs, and its result. The
/// result is dropped by the caller, outside the count.
fn counted<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let result = f();
    (ALLOCATIONS.load(Ordering::SeqCst) - before, result)
}

/// Allocations the calling thread made while `f` runs, and its result,
/// for code that runs on the calling thread alone. The result is dropped
/// by the caller, outside the count.
fn counted_here<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = THREAD_ALLOCATIONS.with(Cell::get);
    let result = f();
    (THREAD_ALLOCATIONS.with(Cell::get) - before, result)
}

fn arch() -> ArchConfig {
    ArchConfig::new(2, 8, 32).unwrap()
}

/// `(x + y)²` followed by `salt` more additions: distinct salts are
/// distinct families with distinct keys.
fn salted_dag(salt: usize) -> Dag {
    let mut b = DagBuilder::new();
    let x = b.input();
    let y = b.input();
    let s = b.node(Op::Add, &[x, y]).unwrap();
    let mut m = b.node(Op::Mul, &[s, s]).unwrap();
    for _ in 0..salt {
        m = b.node(Op::Add, &[m, s]).unwrap();
    }
    b.finish().unwrap()
}

/// Every phase, in order (see the module docs for why this is one test).
#[test]
fn allocation_pins() {
    warm_decoded_runs_allocate_only_their_results();
    warm_execute_round_allocates_a_fixed_count_per_round();
    dispatcher_round_trip_stays_under_its_per_request_bound();
    warm_restart_allocates_a_fixed_count_per_program();
}

/// `Machine::run_decoded` allocates nothing on a warm machine, and
/// `run_decoded_group` allocates its result vector plus one output vector
/// per lane it runs: eight per eight-lane pass (a padded pass reads back
/// its spare lanes too) and one for a lone input.
fn warm_decoded_runs_allocate_only_their_results() {
    let dag = salted_dag(3);
    let compiled = compile(&dag, &arch(), &CompileOptions::default()).unwrap();
    let decoded = DecodedProgram::decode(&compiled.program).unwrap();
    let mut machine = Machine::new(arch());
    let inputs: Vec<Vec<f32>> = (0..17).map(|i| vec![i as f32, 0.5]).collect();
    // Warm-up: the first wide pass builds the eight-lane state, the first
    // runs size the slot and data arrays.
    drop(run_decoded_group(
        &mut machine,
        &compiled,
        &decoded,
        &inputs,
    ));
    machine.run_decoded(&decoded);

    let (walk, ()) = counted_here(|| machine.run_decoded(&decoded));
    assert_eq!(walk, 0, "the decoded walk allocates nothing");

    for (n, want) in [
        (1, 1 + 1),
        (3, 1 + 8),
        (8, 1 + 8),
        (9, 1 + 8 + 1),
        (17, 1 + 16 + 1),
    ] {
        let (got, runs) =
            counted_here(|| run_decoded_group(&mut machine, &compiled, &decoded, &inputs[..n]));
        assert_eq!(runs.len(), n);
        assert_eq!(got, want, "run_decoded_group over {n} inputs");
    }
}

/// Warm `Engine::execute_round` over rounds of 32 requests in 1, 2 and 4
/// same-DAG groups (every group a whole number of eight-lane passes):
/// one output vector per request, two per round (the outcome table and
/// the group list) and per group its input-slice list, its
/// `run_decoded_group` results and its index list, which starts at one
/// member and grows by doubling as members are pushed. That reads 41
/// allocations for a round of one group: 1.28 per request.
fn warm_execute_round_allocates_a_fixed_count_per_round() {
    let engine = Engine::new(
        arch(),
        CompileOptions::default(),
        EngineOptions {
            workers: 1,
            cores: 8,
            ..Default::default()
        },
    );
    let keys: Vec<_> = (0..4).map(|s| engine.register(salted_dag(s))).collect();
    let mut machine = Machine::new(arch());
    for families in [1usize, 2, 4] {
        let round: Vec<Request> = (0..32)
            .map(|i| Request::new(keys[i % families], vec![i as f32, 1.5]))
            .collect();
        let refs: Vec<&Request> = round.iter().collect();
        // Warm-up: compile, decode and the machine's lane state.
        drop(engine.execute_round(&mut machine, &refs));
        let (got, outcomes) = counted_here(|| engine.execute_round(&mut machine, &refs));
        assert!(outcomes.iter().all(Result::is_ok));
        let members = 32 / families;
        let want = 32 + 2 + families as u64 * (2 + pushed_vec_allocations(members));
        assert_eq!(
            got, want,
            "execute_round over 32 requests in {families} groups"
        );
    }
}

/// Allocations of a `Vec` built as `vec![x]` and then pushed to `len`
/// elements: the first, then one per capacity growth (1 → 4 → 8 → 16 …
/// for word-sized elements).
fn pushed_vec_allocations(len: usize) -> u64 {
    let (mut capacity, mut allocations) = (1, 1);
    while capacity < len {
        capacity = (capacity * 2).max(4);
        allocations += 1;
    }
    allocations
}

/// Submit → flush → wait through a two-shard dispatcher whose rounds close
/// by size (32) or flush only, over four families: the per-request count
/// covers the submission, the pending lists and round, the shard's
/// execution and the ticket.
fn dispatcher_round_trip_stays_under_its_per_request_bound() {
    const REQUESTS: usize = 512;
    let options = DispatchOptions {
        shards: 2,
        max_batch: 32,
        max_wait: Duration::from_secs(3600),
        ..Default::default()
    };
    let engines = engine_shards(
        &[arch(); 2],
        CompileOptions::default(),
        &EngineOptions::default(),
    );
    let d = Dispatcher::new(engines, options);
    let keys: Vec<_> = (0..4).map(|s| d.register(salted_dag(s))).collect();
    let requests: Vec<Request> = (0..REQUESTS)
        .map(|i| Request::new(keys[i % keys.len()], vec![i as f32, 2.0]))
        .collect();
    let submitter = d.submitter();
    let round_trip = |requests: Vec<Request>| {
        let tickets: Vec<Ticket> = requests
            .into_iter()
            .map(|r| submitter.submit(r).expect("accepted"))
            .collect();
        d.flush();
        tickets
            .into_iter()
            .map(|t| t.wait().expect("request succeeds"))
            .collect::<Vec<_>>()
    };
    // Warm-up: compiles, decodes, lane state and queue capacity.
    drop(round_trip(requests.clone()));
    let (got, replies) = counted(|| round_trip(requests));
    assert_eq!(replies.len(), REQUESTS);
    let per_request = got as f64 / REQUESTS as f64;
    eprintln!("dispatcher: {got} allocations, {per_request:.3} per request");
    assert!(
        per_request <= DISPATCH_ALLOCS_PER_REQUEST,
        "{per_request:.3} allocations per request through the dispatcher"
    );
    d.shutdown();
}

/// Measured at 2.740–2.781 per request (1403–1424 for 512) over 44 debug
/// and release runs on a 2-vCPU x86-64 Linux VM, idle and beside two busy
/// loops; the bound sits just above.
const DISPATCH_ALLOCS_PER_REQUEST: f64 = 2.8;

/// The restart side of the spill cache for four families, from the bytes
/// `Compiled::to_bytes` writes (the spill directory itself stays out of
/// the count, and with it every filesystem allocation): parse, verify as
/// `SpillStore::load` does, decode — counted per stage. Decode's count
/// includes its tape's runs vector, which grows by doubling: these
/// programs have 5–16 runs, so two or three of decode's allocations.
fn warm_restart_allocates_a_fixed_count_per_program() {
    let mut counts = Vec::new();
    for salt in 0..4 {
        let compiled = compile(&salted_dag(salt), &arch(), &CompileOptions::default());
        let bytes = compiled.unwrap().to_bytes();
        let (parse, compiled) = counted_here(|| Compiled::from_bytes(&bytes).expect("round-trips"));
        let (verify, report) = counted_here(|| compiled.verify().expect("verifies"));
        assert!(report.facts.admits(&arch()));
        let (decode, decoded) = counted_here(|| DecodedProgram::decode(&compiled.program));
        decoded.expect("decodes");
        counts.push([parse, verify, decode]);
    }
    eprintln!("warm restart (from_bytes, verify, decode): {counts:?}");
    assert_eq!(
        counts,
        [[17, 7, 14], [20, 7, 15], [20, 7, 15], [23, 7, 16]],
        "allocations of a warm restart per program: (from_bytes, verify, decode)"
    );
}
