//! Source-level lint enforcing architectural invariants that the type
//! system cannot: the simulator stays deterministic (no wall-clock
//! reads), the one per-request loop — the walk of a decoded program's
//! value tape — allocates nothing, touches no register file and counts
//! nothing, groups run through it eight lanes at a time, the runtime's
//! backpressure story stays intact (no unbounded channel: overload is
//! refused at admission), a condvar is signalled only when
//! a thread waits on it, the oracle interpreter stays off
//! every production path, the dispatcher keeps one path that shares
//! rounds instead of copying them and is the runtime's one serving stack
//! (the only place it spawns threads, one worker per shard), a shard dies at
//! one contained site, a ticket resolves at one site, its scheduling
//! core reads no clock and takes no lock, a dispatcher's engine shards are
//! built in one place over one program store, the register file's write policy
//! stays stated once, the compiler's passes keep no table whose order
//! depends on the process and no ordered map on their hot path,
//! FNV-1a and the batch-mode price are each implemented once, no
//! production type derives a serde trait, and the dispatcher, engine and
//! compiler options keep their pinned number of knobs.
//!
//! Plain text scanning is crude but cheap, runs in the ordinary test
//! suite, and fails with the offending file + line so violations are
//! one glance to fix.

use std::fs;
use std::path::{Path, PathBuf};

fn rust_sources(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in fs::read_dir(&d).expect("crate source dir exists") {
            let path = entry.expect("readable dir entry").path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

/// Lines matching `pattern` in any `.rs` file under `dir`, excluding
/// files whose name is in `exempt`, formatted as `path:line: text`.
fn offenders(dir: &Path, pattern: &str, exempt: &[&str]) -> Vec<String> {
    let mut hits = Vec::new();
    for path in rust_sources(dir) {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if exempt.contains(&name) {
            continue;
        }
        let text = fs::read_to_string(&path).expect("source file is UTF-8");
        for (idx, line) in text.lines().enumerate() {
            if line.contains(pattern) {
                hits.push(format!("{}:{}: {}", path.display(), idx + 1, line.trim()));
            }
        }
    }
    hits
}

/// Lines of `files` containing any of `patterns`, except inside a
/// sanctioned `(file name, fn header)` — the function a line belongs to
/// being, crudely, the last `fn` header seen above it.
fn offenders_outside_fns(
    files: &[PathBuf],
    patterns: &[&str],
    allowed: &[(&str, &str)],
) -> Vec<String> {
    let mut hits = Vec::new();
    for path in files {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        let text = fs::read_to_string(path).expect("source file is UTF-8");
        let mut enclosing_fn = "";
        for (idx, line) in text.lines().enumerate() {
            let code = line.trim_start();
            if ["fn ", "pub fn ", "pub(crate) fn "]
                .iter()
                .any(|h| code.starts_with(h))
            {
                enclosing_fn = code;
            }
            let sanctioned = allowed
                .iter()
                .any(|(file, header)| *file == name && enclosing_fn.contains(header));
            if !sanctioned && patterns.iter().any(|p| code.contains(p)) {
                hits.push(format!("{}:{}: {}", path.display(), idx + 1, code));
            }
        }
    }
    hits
}

fn repo_root() -> PathBuf {
    // This test lives in the workspace root package.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn sim_never_reads_the_wall_clock() {
    // The simulator is a cycle-accurate model: its notion of time is the
    // cycle counter, and identical inputs must give identical traces.
    // Wall-clock latency measurement belongs to the runtime layer.
    let hits = offenders(&repo_root().join("crates/sim/src"), "Instant::now", &[]);
    assert!(
        hits.is_empty(),
        "dpu-sim must not read wall-clock time:\n{}",
        hits.join("\n")
    );
}

#[test]
fn run_decoded_cycle_loop_never_allocates() {
    // The whole point of the pre-decoded pipeline is that everything a
    // run decides apart from the values — register addresses, valid
    // bits, landings, cycles, `Activity`, every fault — is resolved once,
    // at decode, and the per-request loop only moves values along a flat
    // tape. A heap allocation in that loop (a `Vec`, a `Box`, a
    // `collect`, a `format!`, a `.clone()` of owned data), a register-file
    // call, a counter bumped or a cycle ended there silently
    // re-introduces the per-request bookkeeping the decoder exists to
    // remove, so the loop is fenced with markers and scanned for those
    // idioms.
    //
    // There is one such loop, generic over the lane count: the fence must
    // sit inside `impl<const L: usize> Lanes<L>`, and a second marker
    // anywhere under `crates/sim/src` is a second executor.
    const BEGIN: &str = "BEGIN run_decoded cycle loop";
    let sim_src = repo_root().join("crates/sim/src");
    let markers = offenders(&sim_src, BEGIN, &[]);
    assert_eq!(markers.len(), 1, "one cycle loop:\n{}", markers.join("\n"));
    let path = sim_src.join("decoded.rs");
    let text = fs::read_to_string(&path).expect("decoded.rs exists and is UTF-8");
    let start = text
        .find(BEGIN)
        .expect("decoded.rs keeps the BEGIN marker on the cycle loop");
    let end = text
        .find("END run_decoded cycle loop")
        .expect("decoded.rs keeps the END marker on the cycle loop");
    assert!(start < end, "cycle-loop markers are out of order");
    let enclosing_impl = text[..start]
        .lines()
        .rev()
        .find(|l| l.starts_with("impl"))
        .expect("the cycle loop is inside an impl");
    assert_eq!(
        enclosing_impl, "impl<const L: usize> Lanes<L> {",
        "the fenced loop is the lane-generic one"
    );
    let before = text[..start].lines().count();
    let mut hits = Vec::new();
    for (idx, line) in text[start..end].lines().enumerate() {
        for pattern in [
            "Vec::new",
            "vec![",
            "to_vec",
            "collect(",
            "Box::new",
            "format!",
            "with_capacity",
            ".clone()",
            "regs.",
            "RegFile",
            "activity.",
            "end_cycle",
        ] {
            if line.contains(pattern) {
                hits.push(format!(
                    "{}:{}: {}",
                    path.display(),
                    before + idx + 1,
                    line.trim()
                ));
            }
        }
    }
    assert!(
        hits.is_empty(),
        "run_decoded's loop walks values only — no allocation, register file or counters:\n{}",
        hits.join("\n")
    );
}

#[test]
fn runtime_builds_unbounded_channels_only_in_the_test_watchdog() {
    // Every queue in dpu-runtime is bounded so overload sheds at the
    // admission gate instead of accumulating memory: submitters admit
    // under the queues lock, so no channel sits behind the gate either.
    // The one `mpsc` channel is the test-only watchdog's one-shot reply.
    // Importing the constructor (`mpsc::channel`, `mpsc::{..}`) counts as
    // building one, so an unqualified `channel()` cannot slip past.
    const SANCTIONED: [(&str, &str); 1] = [("wake.rs", "fn within<")];
    let files = rust_sources(&repo_root().join("crates/runtime/src"));
    let unbounded = ["mpsc::channel", "mpsc::{"];
    let hits = offenders_outside_fns(&files, &unbounded, &SANCTIONED);
    assert!(
        hits.is_empty(),
        "dpu-runtime must not construct unbounded channels outside the test watchdog:\n{}",
        hits.join("\n")
    );
}

#[test]
fn condvars_are_signalled_only_behind_a_waiter_count() {
    // `std`'s futex `Condvar` makes a `FUTEX_WAKE` system call on every
    // `notify_*`, whether or not a thread waits, and a request crosses
    // two hand-offs (submit → shard, shard → ticket). The runtime's
    // condvars signal through `wake::Waiters::wake_all`, which reads its
    // waiter count under the state's mutex. Anywhere else — or not
    // directly under an `if` on that count — a bare notify is back.
    const SANCTIONED: [(&str, &str); 1] = [("wake.rs", "fn wake_all<")];
    let files = rust_sources(&repo_root().join("crates/runtime/src"));
    let notify = ["notify_one(", "notify_all("];
    let mut hits = offenders_outside_fns(&files, &notify, &SANCTIONED);
    let mut signals = 0;
    for path in &files {
        let text = fs::read_to_string(path).expect("source file is UTF-8");
        let lines: Vec<&str> = text.lines().map(str::trim).collect();
        for (idx, line) in lines.iter().enumerate() {
            if !notify.iter().any(|p| line.contains(p)) {
                continue;
            }
            signals += 1;
            if !(idx > 0 && lines[idx - 1] == "if waiting {") {
                hits.push(format!("{}:{}: {line}", path.display(), idx + 1));
            }
        }
    }
    assert_eq!(signals, 1, "the helper's one signal");
    assert!(
        hits.is_empty(),
        "signal a condvar only behind a waiter count (`wake::Waiters`):\n{}",
        hits.join("\n")
    );
}

#[test]
fn production_code_never_calls_the_oracle_interpreter() {
    // There is one production executor: decode -> `run_decoded`. The
    // `step` interpreter (`Machine::step` / `run_program`, `sim::run`,
    // `run_on`) is the reference the differential tests compare it
    // against; a production caller would quietly bring back the second
    // path. Two sites are sanctioned: `Engine::serve_serial` *is* the
    // reference pass, and the Fig. 10 occupancy sampler needs a machine
    // it can single-step to sample per-cycle state.
    const ORACLE_CALLS: [&str; 4] = ["run_on(", "run_program(", "sim::run(", ".step("];
    const ALLOWED: [(&str, &str); 2] = [
        ("pool.rs", "fn serve_serial("),
        ("experiments.rs", "fn fig10_occupancy("),
    ];
    let root = repo_root();
    let mut files = vec![
        root.join("crates/bench/src/lib.rs"),
        root.join("crates/bench/src/experiments.rs"),
    ];
    for krate in ["runtime", "core", "dse", "energy", "baselines"] {
        files.extend(rust_sources(&root.join("crates").join(krate).join("src")));
    }
    let hits = offenders_outside_fns(&files, &ORACLE_CALLS, &ALLOWED);
    assert!(
        hits.is_empty(),
        "production code must execute through decode -> run_decoded, not the oracle:\n{}",
        hits.join("\n")
    );
}

#[test]
fn groups_run_as_lane_chunks_not_one_request_at_a_time() {
    // A round's group and a batch share one program: they go through
    // `run_decoded_group`, which walks it once per eight input sets. A
    // `run_decoded_on` call in the runtime (`pool.rs` held the loop) or
    // in `run_batch` is the per-request loop coming back. And a batch
    // shares one price with a round: the paper's batch mode (`cores`
    // runs side by side, a round lasting as long as its longest member)
    // is `dpu_sim::plan_rounds`, defined once, and `run_batch` prices
    // through it instead of restating the rule.
    let root = repo_root();
    let mut sources = Vec::new();
    for dir in ["crates", "src", "tests", "examples", "perfbench/src"] {
        sources.extend(rust_sources(&root.join(dir)));
    }
    // Spelt in pieces so this file does not match.
    let definition = concat!("fn plan", "_rounds(");
    let definitions = offenders_outside_fns(&sources, &[definition], &[]);
    assert!(
        definitions.len() == 1 && definitions[0].contains("crates/sim/src/"),
        "the batch model is one function, `plan_rounds` in crates/sim/src: {definitions:?}"
    );
    let mut hits = offenders(&root.join("crates/runtime/src"), "run_decoded_on(", &[]);
    let sim_lib = root.join("crates/sim/src/lib.rs");
    let text = fs::read_to_string(&sim_lib).expect("sim lib.rs is UTF-8");
    let body = text
        .split("pub fn run_batch(")
        .nth(1)
        .and_then(|rest| rest.split("\n}\n").next())
        .expect("dpu-sim keeps run_batch");
    assert!(
        body.contains("run_decoded_group("),
        "run_batch runs its batch as a group"
    );
    assert!(
        body.contains("plan_rounds("),
        "run_batch prices its batch through plan_rounds"
    );
    if body.contains("run_decoded_on(") {
        hits.push(format!(
            "{}: run_batch calls run_decoded_on",
            sim_lib.display()
        ));
    }
    assert!(
        hits.is_empty(),
        "one program over many inputs goes through run_decoded_group:\n{}",
        hits.join("\n")
    );
}

#[test]
fn runtime_shares_rounds_and_keeps_one_dispatch_path() {
    // A closed round is immutable and shared by `Arc`: a lease, a hedge
    // or a recovery requeue is another handle to it, never a copy of its
    // request payloads. One payload copy is sanctioned: `Engine::serve`
    // borrows its stream while `submit` takes each request by value, one
    // copy per request at the edge; ingestion moves each request into
    // exactly one job. Claims and leases are always on: the names the
    // supervised/default fork was built from must not come back. And
    // every shard is an `Engine`, held as one: a shard trait object, a
    // second constructor that takes one, or a type-erased per-worker
    // scratch with a downcast is the test seam or the analytic-shard seam
    // growing back.
    let files = rust_sources(&repo_root().join("crates/runtime/src"));
    let mut hits = offenders_outside_fns(
        &files,
        &["request.clone()"],
        &[("pool.rs", "pub fn serve(")],
    );
    hits.extend(offenders_outside_fns(
        &files,
        &[
            "clone_shared",
            "fn supervised",
            "Option<Arc<AtomicBool>>",
            "Box<dyn Any",
            "downcast_mut",
            "dyn Backend",
            "trait Backend",
            "with_backends",
        ],
        &[],
    ));
    assert!(
        hits.is_empty(),
        "dpu-runtime must not copy a round's payloads or re-grow the dispatch fork:\n{}",
        hits.join("\n")
    );
}

#[test]
fn runtime_spawns_threads_only_in_the_dispatcher() {
    // There is one serving stack: the `Dispatcher`'s one worker per shard,
    // spawned at exactly one `thread::Builder` site in `dispatch.rs`;
    // admission runs on the submitting thread, so there is no ingest
    // thread. `Engine::serve` submits to a dispatcher instead of
    // running a pool of its own (it had a `thread::scope` one, with every
    // request run alone, one lane wide), and stall reclaim and hedging run
    // in the scheduling core's sweep at a worker's checkout (they had a
    // supervisor thread). Any other spawn in the runtime's production code
    // is a second stack or a second scheduler growing back. Unit tests
    // below a file's `#[cfg(test)]` may spawn what they like.
    let spawns = ["thread::scope", "thread::spawn", "thread::Builder"];
    let mut hits = Vec::new();
    let mut dispatcher_spawns = Vec::new();
    for path in rust_sources(&repo_root().join("crates/runtime/src")) {
        let text = fs::read_to_string(&path).expect("source file is UTF-8");
        let production = text.lines().take_while(|l| l.trim() != "#[cfg(test)]");
        for (idx, line) in production.enumerate() {
            if spawns.iter().any(|p| line.contains(p)) {
                let at = format!("{}:{}: {}", path.display(), idx + 1, line.trim());
                if path.ends_with("dispatch.rs") && line.contains("thread::Builder") {
                    dispatcher_spawns.push(at);
                } else {
                    hits.push(at);
                }
            }
        }
    }
    assert!(
        hits.is_empty(),
        "dpu-runtime spawns threads in dispatch.rs only, with thread::Builder:\n{}",
        hits.join("\n")
    );
    assert_eq!(
        dispatcher_spawns.len(),
        1,
        "the dispatcher spawns the shard workers, nothing else: {dispatcher_spawns:?}"
    );
}

/// Lines of the runtime's `file` production code (cut at `#[cfg(test)]`,
/// comments stripped) that call `pattern` — a `fn` line declares, it does
/// not call.
fn runtime_call_sites(file: &str, pattern: &str) -> Vec<String> {
    let path = repo_root().join("crates/runtime/src").join(file);
    let text = fs::read_to_string(&path).expect("source file is UTF-8");
    text.lines()
        .take_while(|l| l.trim() != "#[cfg(test)]")
        .map(|l| l.split("//").next().unwrap_or(""))
        .enumerate()
        .filter(|(_, line)| line.contains(pattern) && !line.contains("fn "))
        .map(|(idx, line)| format!("{}:{}: {}", path.display(), idx + 1, line.trim()))
        .collect()
}

#[test]
fn a_shard_dies_at_one_contained_site() {
    // A shard has one way to die: a panic where its round executes,
    // caught by the one `catch_unwind` around the engine call — a
    // scripted chaos kill raises its unwind there too — after which the
    // in-hand jobs fail and `abandon_shard` recovers the backlog. A second
    // catch site or a second caller of `abandon_shard` (a kill at checkout
    // was one) is a second death path for the failure tests to miss.
    for pattern in ["catch_unwind(", "abandon_shard("] {
        let hits = runtime_call_sites("dispatch.rs", pattern);
        assert_eq!(
            hits.len(),
            1,
            "dispatch.rs has one `{pattern}` call, at the execute site: {hits:?}"
        );
    }
}

#[test]
fn a_ticket_resolves_at_one_site() {
    // Every accepted ticket resolves exactly once, and one function does
    // it for a shed at ingestion, a shed at execute time, a completion and
    // a failure alike: it claims the job, stamps completion, writes the
    // ledger entry, releases the home shard's depth slot (the in-flight
    // count `drain` waits on) and fulfils the ticket. A second claim or
    // fulfilment is a second copy of that sequence, free to drift from it.
    for pattern in [".fulfill(", ".claim()"] {
        let hits = runtime_call_sites("dispatch.rs", pattern);
        assert_eq!(
            hits.len(),
            1,
            "dispatch.rs has one `{pattern}` call, in `resolve`: {hits:?}"
        );
    }
    // Every depth decrement — a resolution's, and a submit's giving back
    // a slot it claimed — goes through `Admission::release`, the one that
    // wakes a `drain` when a slot reaches zero; a silent decrement can be
    // the last one and leave the drain asleep.
    let hits = runtime_call_sites("ingest.rs", "fetch_sub(");
    assert_eq!(
        hits.len(),
        1,
        "ingest.rs decrements a depth slot only in `Admission::release`: {hits:?}"
    );
}

#[test]
fn dispatch_core_reads_no_clock_and_takes_no_lock() {
    // Every scheduling decision — round closing, pop, steal, lease,
    // recovery, stall reclaim, hedging — lives in `sched.rs` as plain state
    // machines that take `now_ns` and return what to do, so a
    // single-threaded test can replay any schedule on a virtual clock. A
    // clock read, a lock, a thread, a condvar, an engine call or a ticket
    // fulfilment in there ties a decision back to real time and real
    // threads. Its unit tests below `#[cfg(test)]` are exempt.
    let path = repo_root().join("crates/runtime/src/sched.rs");
    let text = fs::read_to_string(&path).expect("source file is UTF-8");
    let banned = [
        "Instant",
        "SystemTime",
        "thread::",
        "Mutex",
        "RwLock",
        "Condvar",
        "Waiters",
        "execute_round",
        "fulfill(",
    ];
    let production = text.lines().take_while(|l| l.trim() != "#[cfg(test)]");
    let hits: Vec<String> = production
        .enumerate()
        .filter(|(_, line)| banned.iter().any(|p| line.contains(p)))
        .map(|(idx, line)| format!("{}:{}: {}", path.display(), idx + 1, line.trim()))
        .collect();
    assert!(
        text.contains("#[cfg(test)]"),
        "sched.rs keeps its single-threaded tests"
    );
    assert!(
        hits.is_empty(),
        "the dispatch core takes `now_ns` and returns decisions; the threads in dispatch.rs do the rest:\n{}",
        hits.join("\n")
    );
}

#[test]
fn engine_shards_are_built_in_one_place() {
    // The engine shards of a dispatcher share one program store: one
    // `Engine::new`, then `Engine::sharing` siblings, all built by
    // `engine_shards` from the caller's `EngineOptions`. Engines own their
    // settings, so the dispatcher and the facade spell out no
    // `EngineOptions { .. }` literal of their own: one is an engine setting
    // copied into, or overridden by, a second home. An `Engine::new` per
    // shard is a store, a registry and a compile per shard coming back.
    // Unit tests below a file's `#[cfg(test)]` may build what they like.
    let mut hits = Vec::new();
    for rel in ["crates/runtime/src/dispatch.rs", "crates/core/src/lib.rs"] {
        let path = repo_root().join(rel);
        let text = fs::read_to_string(&path).expect("source file is UTF-8");
        let production = text.lines().take_while(|l| l.trim() != "#[cfg(test)]");
        let mut in_iterator = false;
        for (idx, line) in production.enumerate() {
            let code = line.trim_start();
            if code.starts_with("fn ") || code.starts_with("pub fn ") {
                in_iterator = false;
            }
            in_iterator |= code.contains(".iter()") || code.contains(".map(");
            let at = format!("{}:{}: {}", path.display(), idx + 1, code);
            if code.contains("EngineOptions {") || (in_iterator && code.contains("Engine::new(")) {
                hits.push(at);
            }
            in_iterator &= !code.contains(".collect()");
        }
    }
    assert!(
        hits.is_empty(),
        "engine shards are made by `engine_shards` from the caller's `EngineOptions`: one `Engine::new`, then siblings:\n{}",
        hits.join("\n")
    );
}

#[test]
fn register_write_policy_is_stated_once() {
    // Lowest-free write, the `D+1`-slot writeback ring and one write per
    // bank per cycle are `dpu_isa::RegFile`; the compiler's address
    // replay, the static verifier, the simulator's decode and its oracle
    // instantiate it. A priority-encoder search or ring-slot arithmetic
    // anywhere else under `crates/*/src` is another copy of the policy.
    // (`emit.rs` searches for a free *bank*, `.position(|&u| !u)` — a
    // different decision.)
    const POLICY: [&str; 7] = [
        ".position(Option::is_none)",
        ".position(|v| !v)",
        ".position(|v| !*v)",
        "% self.pending.len()",
        "% replay.pending.len()",
        "pending.entry(cycle",
        "struct Replay",
    ];
    let crates = repo_root().join("crates");
    let mut files = Vec::new();
    for entry in fs::read_dir(&crates).expect("crates/ exists") {
        let src = entry.expect("readable dir entry").path().join("src");
        if src.is_dir() {
            files.extend(rust_sources(&src));
        }
    }
    files.retain(|f| !f.ends_with("crates/isa/src/regfile.rs"));
    let hits = offenders_outside_fns(&files, &POLICY, &[]);
    assert!(
        hits.is_empty(),
        "the register write policy lives in crates/isa/src/regfile.rs only:\n{}",
        hits.join("\n")
    );
}

/// Lines above the first `#[cfg(test)]` of each file under
/// `crates/compiler/src` containing any of `patterns`.
fn compiler_production_offenders(patterns: &[&str]) -> Vec<String> {
    let mut hits = Vec::new();
    for path in rust_sources(&repo_root().join("crates/compiler/src")) {
        let text = fs::read_to_string(&path).expect("source file is UTF-8");
        let production = text.lines().take_while(|l| l.trim() != "#[cfg(test)]");
        for (idx, line) in production.enumerate() {
            if patterns.iter().any(|p| line.contains(p)) {
                hits.push(format!("{}:{}: {}", path.display(), idx + 1, line.trim()));
            }
        }
    }
    hits
}

#[test]
fn compiler_passes_use_no_randomly_seeded_maps() {
    // `std`'s `HashMap`/`HashSet` are seeded per process (`RandomState`),
    // so anything that iterates one — or breaks a tie by its order — can
    // emit a different program from run to run: the spiller did, twice.
    // The passes key their tables by `NodeId`, bank or instruction index
    // (plain vectors) and by `(bank, value)` (`ir::Residency`), whose order
    // is a property of the input. Unit tests below a file's `#[cfg(test)]`
    // may use what they like.
    let hits = compiler_production_offenders(&["HashMap", "HashSet"]);
    assert!(
        hits.is_empty(),
        "dpu-compiler must not keep state in a randomly seeded map:\n{}",
        hits.join("\n")
    );
}

#[test]
fn compiler_passes_keep_no_ordered_maps() {
    // A `BTreeMap`/`BTreeSet` is deterministic but slow where the passes
    // need order: step 1's candidate buckets and the reorderer's ready set
    // were a third of a compile. What the passes keep in order is a set of
    // positions in an order fixed once (`ir::PosSet`: candidates by
    // locality key, instructions by original position); per-key lists are
    // `ir::Csr`. The reference-model tests below `#[cfg(test)]` keep the
    // ordered maps they are checked against.
    let hits = compiler_production_offenders(&["BTreeMap", "BTreeSet"]);
    assert!(
        hits.is_empty(),
        "dpu-compiler's passes keep no ordered map (use ir::PosSet):\n{}",
        hits.join("\n")
    );
}

#[test]
fn fnv_is_implemented_once() {
    // `dpu_isa::Fnv1a` folds zero runs into one multiply and is checked
    // against the byte-serial definition in its own tests; a second
    // hand-rolled loop elsewhere would be the slow one, and could drift.
    // The prime is spelt here in pieces so this file does not match.
    let patterns = [
        concat!("0100", "_0000_01b3"),
        concat!("10000", "0001b3"),
        concat!("10995", "11628211"),
    ];
    let root = repo_root();
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples", "perfbench/src"] {
        files.extend(rust_sources(&root.join(dir)));
    }
    // The simulator's golden anchors pin hashes of `f32` bit patterns
    // folded a word at a time: another function of those bytes, whose
    // pinned values are the record.
    files.retain(|f| {
        !f.ends_with("crates/isa/src/fnv.rs") && !f.ends_with("crates/sim/tests/golden_anchors.rs")
    });
    let hits = offenders_outside_fns(&files, &patterns, &[]);
    assert!(
        hits.is_empty(),
        "FNV-1a is dpu_isa::Fnv1a, in crates/isa/src/fnv.rs only:\n{}",
        hits.join("\n")
    );
}

#[test]
fn production_code_derives_no_serde_traits() {
    // The vendored serde stub's derives expand to nothing and nothing in
    // the workspace serializes through them: a `Serialize`/`Deserialize`
    // derive or import is a claim of a wire format that does not exist.
    // The byte formats that do exist are hand-written and tested
    // (`Compiled::to_bytes`, `LatencyHistogram::to_bytes`).
    let mut hits = Vec::new();
    for entry in fs::read_dir(repo_root().join("crates")).expect("crates/ exists") {
        let src = entry.expect("readable dir entry").path().join("src");
        if !src.is_dir() {
            continue;
        }
        for path in rust_sources(&src) {
            let text = fs::read_to_string(&path).expect("source file is UTF-8");
            let production = text.lines().take_while(|l| l.trim() != "#[cfg(test)]");
            for (idx, line) in production.enumerate() {
                let code = line.split("//").next().unwrap_or("");
                if ["Serialize", "Deserialize", "serde::"]
                    .iter()
                    .any(|p| code.contains(p))
                {
                    hits.push(format!("{}:{}: {}", path.display(), idx + 1, line.trim()));
                }
            }
        }
    }
    assert!(
        hits.is_empty(),
        "no serde derives or imports under crates/*/src:\n{}",
        hits.join("\n")
    );
}

/// The `pub` fields of `pub struct {name}` in `file`, one per line that
/// opens with `pub ` between the struct's header and its closing brace.
fn pub_fields(file: &str, name: &str) -> Vec<String> {
    let text = fs::read_to_string(repo_root().join(file)).expect("source file is UTF-8");
    let header = format!("pub struct {name} {{");
    let mut lines = text.lines().skip_while(|l| l.trim() != header).skip(1);
    let body = lines.by_ref().take_while(|l| l.trim() != "}");
    body.map(str::trim)
        .filter(|l| l.starts_with("pub "))
        .map(str::to_string)
        .collect()
}

#[test]
fn option_structs_keep_their_knob_count() {
    // Every field of these structs is a knob a caller can set, and each
    // one doubles the configurations tests and benchmarks must cover. A
    // knob earns its place when two callers need different values; a new
    // field is a deliberate change that updates the count here and
    // ROADMAP's knob census.
    let pinned = [
        ("crates/runtime/src/dispatch.rs", "DispatchOptions", 9),
        ("crates/runtime/src/pool.rs", "EngineOptions", 3),
        ("crates/compiler/src/driver.rs", "CompileOptions", 5),
    ];
    for (file, name, want) in pinned {
        let fields = pub_fields(file, name);
        assert_eq!(
            fields.len(),
            want,
            "{name} in {file} has {} settable fields, pinned at {want}: ROADMAP's house rule is \
             \"no new option ... that adds a second way of doing something\" — replace the old \
             way instead, or update this count and the knob census together:\n{}",
            fields.len(),
            fields.join("\n")
        );
    }
}
