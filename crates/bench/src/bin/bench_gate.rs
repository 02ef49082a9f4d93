//! CI bench-regression gate: compares a freshly produced
//! `BENCH_serving.json` against the committed `bench/baseline.json` and
//! exits non-zero on a regression beyond the tolerance.
//!
//! Only **machine-independent** fields are gated — the `async_serving`
//! benchmark's gated phase is deterministic (fixed schedule, fixed
//! routing, no stealing, no timer closes), so `simulated_gops`, the
//! cache miss rate, and the multi-backend `baseline_compare` section are
//! bit-stable on every machine; a drop can only mean a real change in
//! compiler output, simulator timing, dispatch packing, or the analytic
//! platform models. Host wall-clock fields vary by machine and are
//! deliberately ignored.
//!
//! Gating rules:
//!
//! - `simulated_gops` and each `baseline_compare` platform's
//!   `throughput_gops`: fail on a relative drop beyond the tolerance; a
//!   non-zero baseline collapsing to zero always fails.
//! - Cache health is gated on the **miss rate** (`1 − cache_hit_rate`),
//!   not the hit rate: hit rates sit so close to 1.0 that a relative
//!   tolerance on them is meaningless — 0.995 → 0.90 is a 20× miss
//!   increase yet under a 10% hit-rate change. A perfect baseline
//!   (zero misses) fails on *any* current miss.
//! - The persistence phase's `cache_persist.warm_restart_hit_rate` is
//!   gated the same way: the committed baseline is a perfect 1.0 (a
//!   restarted engine recompiles nothing), so any compile on a warm
//!   restart fails the gate.
//! - The `latency.deterministic` section (per-request modelled service
//!   time in simulated cycles — deterministic, merge-invariant across
//!   shard counts) is gated **lower-is-better** on `p50` and `p99`: fail
//!   on a relative increase beyond the tolerance, and fail outright when
//!   a non-zero baseline tail collapses to zero — a p99 of zero does not
//!   mean the system got infinitely fast, it means the accounting broke
//!   (the same hardening the cache miss-rate gate applies to hit rates).
//!   Host-time latency (the open-loop section) varies by machine and is
//!   recorded, not gated.
//! - The decoded-execution phase (`decoded_exec`) must report
//!   `verified` (every decoded run byte-identical to the oracle), and
//!   its `round_grouping_ratio` (jobs per program group per round) is a
//!   pure function of the stream and ratchets at the normal tolerance.
//! - The overload phase (`graceful_degradation`, 2× saturation with a
//!   priority mix) is gated on **honesty and goodput**, not raw counts:
//!   the admission ledger must balance exactly (per class and in total,
//!   `offered == completed + failed + shed + rejected` — recomputed
//!   here, not trusted from the bench's own `honest` flag), interactive
//!   p99 must stay inside the phase's declared latency budget, at least
//!   one interactive request must actually complete (so "shed
//!   everything" can't fake a pass), and `interactive_goodput_ratio` —
//!   of the interactive requests served, the fraction inside the budget
//!   — ratchets higher-is-better. Raw shed/reject counts are host-load
//!   dependent and are recorded, never gated.
//! - The chaos phase (`chaos`, scripted kill + stall + hedging at 2×
//!   saturation) is gated on **loss-freedom**: `lost_tickets` and
//!   `failed` must be exactly zero, `recovered` must be at least one
//!   (the dead shard's rounds provably moved through the lease/requeue
//!   path), `hedge_wins ≤ hedged` (a hedge can only win where one was
//!   placed), `completed` must equal the offered request count, and the
//!   per-class ledger must balance exactly — recomputed here. Hedge
//!   counts themselves are timing dependent and are recorded, never
//!   ratcheted (`served` counts executions, so losing hedge copies may
//!   push it past the request count by design).
//!
//! Usage:
//! `cargo run --release -p dpu-bench --bin bench_gate -- \
//!    [--current BENCH_serving.json] [--baseline bench/baseline.json] \
//!    [--tolerance-pct 10]`
//!
//! When a gated metric *improves* past the tolerance the gate passes but
//! prints a reminder to refresh the baseline, so the ratchet moves up.

use std::process::ExitCode;

use dpu_bench::report::Json;

struct Args {
    current: String,
    baseline: String,
    tolerance_pct: f64,
}

fn parse_args() -> Args {
    let mut args = Args {
        current: "BENCH_serving.json".into(),
        baseline: "bench/baseline.json".into(),
        tolerance_pct: 10.0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut take = || it.next().unwrap_or_else(|| panic!("{arg} needs a value"));
        match arg.as_str() {
            "--current" => args.current = take(),
            "--baseline" => args.baseline = take(),
            "--tolerance-pct" => args.tolerance_pct = take().parse().expect("numeric tolerance"),
            other => panic!("unknown argument `{other}`"),
        }
    }
    args
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn num(doc: &Json, key: &str, path: &str) -> Result<f64, String> {
    doc.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("{path}: missing numeric field `{key}`"))
}

/// Recomputes a section's per-class admission ledger and errors on any
/// imbalance: every offered request must be accounted for as completed,
/// failed, shed, or rejected — exactly, per class. Returns the summed
/// `(offered, settled)` totals for the caller's aggregate check.
fn class_ledger(section: &Json, name: &str, path: &str) -> Result<(f64, f64), String> {
    let classes = section
        .get("classes")
        .ok_or_else(|| format!("{path}: {name}.classes missing"))?;
    let Json::Obj(class_entries) = classes else {
        return Err(format!("{path}: {name}.classes is not an object"));
    };
    let (mut offered_sum, mut settled_sum) = (0.0, 0.0);
    for (class, entry) in class_entries {
        let field = |key: &str| {
            entry
                .get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{path}: {name}.classes.{class}.{key} missing"))
        };
        let offered = field("offered")?;
        let settled = field("completed")? + field("failed")? + field("shed")? + field("rejected")?;
        if offered != settled {
            return Err(format!(
                "{path}: {name} ledger imbalance for class `{class}`: offered {offered} \
                 != completed + failed + shed + rejected {settled}"
            ));
        }
        offered_sum += offered;
        settled_sum += settled;
    }
    Ok((offered_sum, settled_sum))
}

/// One ratchet check; `higher_better` picks the regression direction
/// (throughput metrics ratchet up, latency quantiles ratchet down).
/// Returns `true` on failure.
fn gate_metric(key: &str, current: f64, baseline: f64, tol: f64, higher_better: bool) -> bool {
    let (failed, verdict): (bool, String) = if baseline == 0.0 {
        // Nothing to regress from; a non-zero current is a new signal.
        (
            false,
            if current > 0.0 {
                "pass (new signal — consider refreshing bench/baseline.json)".into()
            } else {
                "pass (both zero)".into()
            },
        )
    } else if current == 0.0 {
        // A non-zero → zero collapse always fails, in either direction:
        // a throughput of zero means the metric vanished, and a latency
        // of exactly zero means the accounting vanished — not that
        // serving became instantaneous.
        (true, "FAIL (collapsed to zero)".into())
    } else {
        let change = (current - baseline) / baseline;
        let regression = if higher_better { -change } else { change };
        let v: &str = if regression > tol {
            "FAIL"
        } else if regression < -tol {
            "pass (improved — consider refreshing bench/baseline.json)"
        } else {
            "pass"
        };
        (v == "FAIL", format!("({:+.1}%) … {v}", change * 100.0))
    };
    println!("bench-gate: {key}: current {current:.4} vs baseline {baseline:.4} {verdict}");
    failed
}

/// One higher-is-better ratchet check. Returns `true` on failure.
fn gate_higher_better(key: &str, current: f64, baseline: f64, tol: f64) -> bool {
    gate_metric(key, current, baseline, tol, true)
}

/// One lower-is-better ratchet check (latency quantiles). Returns `true`
/// on failure.
fn gate_lower_better(key: &str, current: f64, baseline: f64, tol: f64) -> bool {
    gate_metric(key, current, baseline, tol, false)
}

/// A cache-health check, on miss rate (lower is better). Returns `true`
/// on failure. `key` names the metric in the output (the in-memory cache
/// and the warm-restart persistence phase are both gated this way).
fn gate_miss_rate(key: &str, current_hit: f64, baseline_hit: f64, tol: f64) -> bool {
    let (mc, mb) = (1.0 - current_hit, 1.0 - baseline_hit);
    let (failed, verdict) = if mb <= 0.0 {
        // The baseline cache was perfect; any miss is a collapse from
        // perfect, not a tolerable drift (the relative form would have
        // divided by zero and auto-passed).
        if mc > 0.0 {
            (true, "FAIL (perfect baseline now misses)".to_string())
        } else {
            (false, "pass (still perfect)".to_string())
        }
    } else {
        let change = (mc - mb) / mb;
        let v = if change > tol {
            "FAIL"
        } else if change < -tol {
            "pass (improved — consider refreshing bench/baseline.json)"
        } else {
            "pass"
        };
        (v == "FAIL", format!("({:+.1}%) … {v}", change * 100.0))
    };
    println!(
        "bench-gate: {key}: current {mc:.4} vs baseline {mb:.4} \
         (hit {current_hit:.4} vs {baseline_hit:.4}) {verdict}"
    );
    failed
}

fn run() -> Result<(), String> {
    let args = parse_args();
    let current = load(&args.current)?;
    let baseline = load(&args.baseline)?;
    let tol = args.tolerance_pct / 100.0;

    // The bench itself must have verified its outputs against serial.
    if current.get("verified").and_then(Json::as_bool) != Some(true) {
        return Err(format!("{}: `verified` is not true", args.current));
    }
    // Same experiment shape, otherwise the comparison is meaningless.
    for key in ["requests", "shards"] {
        let (c, b) = (
            num(&current, key, &args.current)?,
            num(&baseline, key, &args.baseline)?,
        );
        if c != b {
            return Err(format!(
                "experiment shape changed: `{key}` is {c} but baseline has {b} \
                 — refresh bench/baseline.json in the same commit"
            ));
        }
    }

    let mut failed = false;

    // The throughput ratchet.
    failed |= gate_higher_better(
        "simulated_gops",
        num(&current, "simulated_gops", &args.current)?,
        num(&baseline, "simulated_gops", &args.baseline)?,
        tol,
    );

    // Cache health, gated on miss rate (see module docs).
    failed |= gate_miss_rate(
        "cache_miss_rate",
        num(&current, "cache_hit_rate", &args.current)?,
        num(&baseline, "cache_hit_rate", &args.baseline)?,
        tol,
    );

    // Cache persistence: the warm-restart phase is deterministic, so its
    // hit rate is gated exactly like the in-memory cache — and since the
    // committed baseline is perfect (1.0), *any* compile on a warm
    // restart fails the gate.
    if let Some(base_persist) = baseline.get("cache_persist") {
        let cur_persist = current.get("cache_persist").ok_or_else(|| {
            format!(
                "{}: cache_persist section missing (baseline has it)",
                args.current
            )
        })?;
        if cur_persist.get("verified").and_then(Json::as_bool) != Some(true) {
            return Err(format!(
                "{}: cache_persist.verified is not true",
                args.current
            ));
        }
        failed |= gate_miss_rate(
            "cache_persist.warm_restart_miss_rate",
            num(cur_persist, "warm_restart_hit_rate", &args.current)?,
            num(base_persist, "warm_restart_hit_rate", &args.baseline)?,
            tol,
        );
    }

    // Tail latency: the deterministic phase's modelled service-time
    // quantiles are machine-independent, so p50/p99 ratchet exactly like
    // throughput — just lower-is-better, with the zero-collapse guard.
    if let Some(base_lat) = baseline.get("latency").and_then(|l| l.get("deterministic")) {
        let cur_lat = current
            .get("latency")
            .and_then(|l| l.get("deterministic"))
            .ok_or_else(|| {
                format!(
                    "{}: latency.deterministic section missing (baseline has it)",
                    args.current
                )
            })?;
        if cur_lat.get("verified").and_then(Json::as_bool) != Some(true) {
            return Err(format!(
                "{}: latency.deterministic.verified is not true",
                args.current
            ));
        }
        if cur_lat.get("merge_invariant").and_then(Json::as_bool) != Some(true) {
            return Err(format!(
                "{}: latency.deterministic.merge_invariant is not true — merged \
                 per-shard histograms diverged across shard counts",
                args.current
            ));
        }
        for q in ["p50", "p99"] {
            failed |= gate_lower_better(
                &format!("latency.deterministic.{q}"),
                num(cur_lat, q, &args.current)?,
                num(base_lat, q, &args.baseline)?,
                tol,
            );
        }
    }

    // Multi-backend comparison: every platform the baseline knows must
    // still be reported, with its deterministic throughput intact.
    if let Some(base_cmp) = baseline.get("baseline_compare") {
        let platforms = base_cmp
            .get("platforms")
            .ok_or_else(|| format!("{}: baseline_compare.platforms missing", args.baseline))?;
        let Json::Obj(entries) = platforms else {
            return Err(format!(
                "{}: baseline_compare.platforms is not an object",
                args.baseline
            ));
        };
        let cur_platforms = current
            .get("baseline_compare")
            .and_then(|c| c.get("platforms"))
            .ok_or_else(|| {
                format!(
                    "{}: baseline_compare.platforms missing (baseline has it)",
                    args.current
                )
            })?;
        if current
            .get("baseline_compare")
            .and_then(|c| c.get("verified"))
            .and_then(Json::as_bool)
            != Some(true)
        {
            return Err(format!(
                "{}: baseline_compare.verified is not true",
                args.current
            ));
        }
        for (name, bval) in entries {
            let b = bval
                .get("throughput_gops")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{}: {name}: missing throughput_gops", args.baseline))?;
            let c = cur_platforms
                .get(name)
                .and_then(|v| v.get("throughput_gops"))
                .and_then(Json::as_f64)
                .ok_or_else(|| {
                    format!("{}: baseline_compare lost platform `{name}`", args.current)
                })?;
            failed |= gate_higher_better(&format!("baseline_compare.{name}.gops"), c, b, tol);
        }
    }

    // Decoded execution: `round_grouping_ratio` (jobs per program group
    // per round) is a pure function of the stream and ratchets at the
    // normal tolerance; a collapse to 1.0 would mean round grouping
    // silently stopped sharing decoded forms.
    if let Some(base_dec) = baseline.get("decoded_exec") {
        let cur_dec = current.get("decoded_exec").ok_or_else(|| {
            format!(
                "{}: decoded_exec section missing (baseline has it)",
                args.current
            )
        })?;
        if cur_dec.get("verified").and_then(Json::as_bool) != Some(true) {
            return Err(format!(
                "{}: decoded_exec.verified is not true",
                args.current
            ));
        }
        failed |= gate_higher_better(
            "decoded_exec.round_grouping_ratio",
            num(cur_dec, "round_grouping_ratio", &args.current)?,
            num(base_dec, "round_grouping_ratio", &args.baseline)?,
            tol,
        );
    }

    // Overload behavior: the graceful-degradation phase is gated on
    // honesty (the admission ledger must balance exactly — recomputed
    // here from the per-class counts, not taken on faith), on the
    // interactive tail staying inside the phase's declared budget, and on
    // the goodput ratio ratcheting up. Raw shed/reject counts vary with
    // host load and are recorded, never gated.
    if let Some(base_deg) = baseline.get("graceful_degradation") {
        let cur_deg = current.get("graceful_degradation").ok_or_else(|| {
            format!(
                "{}: graceful_degradation section missing (baseline has it)",
                args.current
            )
        })?;
        for flag in ["verified", "honest"] {
            if cur_deg.get(flag).and_then(Json::as_bool) != Some(true) {
                return Err(format!(
                    "{}: graceful_degradation.{flag} is not true",
                    args.current
                ));
            }
        }
        // Recompute the honesty equation from the per-class ledger: every
        // offered request must be accounted for as completed, failed,
        // shed, or rejected — exactly, per class and in aggregate. A
        // bench that loses track of work must not pass by setting its own
        // flag.
        let (offered_sum, settled_sum) =
            class_ledger(cur_deg, "graceful_degradation", &args.current)?;
        let offered_total = num(cur_deg, "offered", &args.current)?;
        if offered_sum != offered_total || settled_sum != offered_total {
            return Err(format!(
                "{}: graceful_degradation ledger imbalance in aggregate: \
                 offered {offered_total}, class offered sum {offered_sum}, \
                 class settled sum {settled_sum}",
                args.current
            ));
        }
        // The interactive tail must stay inside the budget the phase
        // itself declared, and shedding everything must not count as a
        // pass — goodput is only meaningful over actual completions.
        let p99 = num(cur_deg, "interactive_p99_ms", &args.current)?;
        let budget = num(cur_deg, "p99_budget_ms", &args.current)?;
        if p99 > budget {
            println!(
                "bench-gate: graceful_degradation.interactive_p99_ms: \
                 current {p99:.4} vs budget {budget:.4} FAIL (over budget)"
            );
            failed = true;
        } else {
            println!(
                "bench-gate: graceful_degradation.interactive_p99_ms: \
                 current {p99:.4} vs budget {budget:.4} pass"
            );
        }
        if num(cur_deg, "interactive_completed", &args.current)? < 1.0 {
            println!(
                "bench-gate: graceful_degradation.interactive_completed: \
                 0 FAIL (no interactive request completed — shedding \
                 everything is not graceful degradation)"
            );
            failed = true;
        }
        failed |= gate_higher_better(
            "graceful_degradation.interactive_goodput_ratio",
            num(cur_deg, "interactive_goodput_ratio", &args.current)?,
            num(base_deg, "interactive_goodput_ratio", &args.baseline)?,
            tol,
        );
    }

    // Chaos recovery: loss-freedom is absolute, not a ratchet. A single
    // lost ticket, a single failure with survivors available, a recovery
    // count of zero (the kill never exercised the lease/requeue path), a
    // hedge win without a hedge, or an unbalanced ledger all hard-fail
    // regardless of tolerance. Hedge counts vary with timing and are
    // recorded, never ratcheted.
    if baseline.get("chaos").is_some() {
        let cur_chaos = current
            .get("chaos")
            .ok_or_else(|| format!("{}: chaos section missing (baseline has it)", args.current))?;
        if cur_chaos.get("verified").and_then(Json::as_bool) != Some(true) {
            return Err(format!("{}: chaos.verified is not true", args.current));
        }
        let lost = num(cur_chaos, "lost_tickets", &args.current)?;
        if lost != 0.0 {
            return Err(format!(
                "{}: chaos.lost_tickets is {lost} — recovery must be loss-free",
                args.current
            ));
        }
        println!("bench-gate: chaos.lost_tickets: 0 pass");
        let chaos_failed = num(cur_chaos, "failed", &args.current)?;
        if chaos_failed != 0.0 {
            return Err(format!(
                "{}: chaos.failed is {chaos_failed} — surviving shards must absorb \
                 every round of a dead peer",
                args.current
            ));
        }
        println!("bench-gate: chaos.failed: 0 pass");
        let recovered = num(cur_chaos, "recovered", &args.current)?;
        if recovered < 1.0 {
            return Err(format!(
                "{}: chaos.recovered is {recovered} — the scripted kill never \
                 exercised the lease/requeue recovery path",
                args.current
            ));
        }
        println!("bench-gate: chaos.recovered: {recovered} pass (>= 1)");
        let hedged = num(cur_chaos, "hedged", &args.current)?;
        let hedge_wins = num(cur_chaos, "hedge_wins", &args.current)?;
        if hedge_wins > hedged {
            return Err(format!(
                "{}: chaos.hedge_wins {hedge_wins} exceeds chaos.hedged {hedged}",
                args.current
            ));
        }
        println!("bench-gate: chaos.hedge_wins: {hedge_wins} of {hedged} hedged pass");
        let (offered_sum, settled_sum) = class_ledger(cur_chaos, "chaos", &args.current)?;
        let requests = num(cur_chaos, "requests", &args.current)?;
        let completed = num(cur_chaos, "completed", &args.current)?;
        // `served` counts executions (losing hedge copies included) and
        // may exceed the request count; the ticket ledger may not.
        if offered_sum != requests || settled_sum != requests || completed != requests {
            return Err(format!(
                "{}: chaos ledger imbalance in aggregate: requests {requests}, \
                 completed {completed}, class offered sum {offered_sum}, class \
                 settled sum {settled_sum}",
                args.current
            ));
        }
        println!("bench-gate: chaos ledger: offered == completed == {requests} pass");
    }

    if failed {
        return Err(format!(
            "gated metric regressed more than {:.0}% — investigate, or update \
             bench/baseline.json if the regression is intended",
            args.tolerance_pct
        ));
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => {
            println!("bench-gate: OK");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("bench-gate: {msg}");
            ExitCode::FAILURE
        }
    }
}
