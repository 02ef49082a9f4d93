//! `perfbench`: end-to-end and per-layer benchmark of the whole compile →
//! cache → decode → dispatch → simulate stack, from outside, through
//! `dpu_core`'s public API only. See `README.md` beside `Cargo.toml`.

mod cold;
mod compare;
mod items;
mod json;
mod layers;
mod rng;
mod run;
mod serve;
mod spec;
mod stats;
mod sweep;
mod trace;

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

use run::{Report, RunConfig, Scale};
use spec::{Workload, END_TO_END, PER_LAYER, RUN_SECONDS};

const USAGE: &str = "usage:
  perfbench [--workload <name|all>] [--seed <n>] [--seconds <s>] [--trace <0|1>]
            [--out <dir>] [--scale <full|smoke>]
  perfbench --list [json]
  perfbench compare <a.jsonl> <b.jsonl>";

/// Runs one workload in this process.
pub fn run_workload(cfg: &RunConfig) -> Report {
    let mut report = match cfg.workload {
        Workload::ServeHeavy | Workload::ServeTiny | Workload::OpenLoop => serve::run(cfg),
        Workload::ColdStart => cold::run(cfg),
        Workload::DseSweep => sweep::run(cfg),
    };
    if cfg.trace {
        let share = report.failed as f64 / report.attempted.max(1) as f64;
        report.layers.set("bench.failed_share", share);
    }
    report
}

struct Args {
    /// `None` = every workload, each in a process of its own.
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    out: PathBuf,
    scale: Scale,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: None,
        out: PathBuf::from("perfbench/out"),
        scale: Scale::Full,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" if value == "all" => out.workload = None,
            "--workload" => out.workload = Some(Workload::by_name(value).ok_or_else(bad)?),
            "--seed" => out.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                out.seconds = value.parse().map_err(|_| bad())?;
                if !(out.seconds > 0.0 && out.seconds.is_finite()) {
                    return Err(bad());
                }
            }
            "--trace" => {
                out.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--out" => out.out = PathBuf::from(value),
            "--scale" => {
                out.scale = match value.as_str() {
                    "full" => Scale::Full,
                    "smoke" => Scale::Smoke,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(out)
}

fn list(json: bool) {
    if json {
        println!("{}", spec::benchmark_json().encode());
        return;
    }
    println!("workloads (one operation = what rps, p50_us and p90_us count):");
    for w in Workload::ALL {
        println!(
            "  {:<12} operation: {}\n  {:<12} {}",
            w.name(),
            spec::operation(w),
            "",
            w.why()
        );
    }
    println!("\nend-to-end metrics (--trace 0), reported by every workload:");
    for m in END_TO_END {
        println!(
            "  {:<16} {:<6} {:<6} better, bound {:>4.0} %  {}",
            m.name,
            m.unit,
            m.better.name(),
            m.bound * 100.0,
            m.what
        );
    }
    println!("\nper-layer metrics (--trace 1); 0 = the workload does not exercise the layer:");
    for m in PER_LAYER {
        let moves = if m.moves.is_empty() {
            "none today"
        } else {
            m.moves
        };
        println!(
            "  {:<44} {:<8} {:<6} better  moves: {moves}",
            m.name,
            m.unit,
            m.better.name()
        );
    }
}

/// Runs one workload here: the table for a person, the record appended to
/// `runs.jsonl`, and the contract line last on standard output.
fn run_one(cfg: &RunConfig) -> ExitCode {
    let report = run_workload(cfg);
    print!("{}", report.table());
    let appended = std::fs::create_dir_all(&cfg.out).and_then(|()| {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(cfg.out.join("runs.jsonl"))?;
        writeln!(f, "{}", report.detail_line())
    });
    if let Err(e) = appended {
        eprintln!("perfbench: {}: {e}", cfg.out.display());
        return ExitCode::FAILURE;
    }
    println!("{}", report.contract_line());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {} of {} operations failed",
            report.failed, report.attempted
        );
        ExitCode::FAILURE
    }
}

/// Runs every workload, untraced then traced, each in a fresh process so
/// peak memory and allocator state are per workload.
fn run_all(args: &Args, raw: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Pass the caller's flags through, minus the workload and trace ones.
    let mut passed: Vec<&String> = Vec::new();
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next();
        if flag != "--workload" && flag != "--trace" {
            passed.push(flag);
            passed.extend(value);
        }
    }
    let traces: &[&str] = match args.trace {
        None => &["0", "1"],
        Some(false) => &["0"],
        Some(true) => &["1"],
    };
    let mut ok = true;
    for w in Workload::ALL {
        for trace in traces {
            let status = std::process::Command::new(&exe)
                .args(["--workload", w.name(), "--trace", trace])
                .args(&passed)
                .status();
            match status {
                Ok(s) if s.success() => {}
                Ok(s) => {
                    eprintln!("perfbench: {} --trace {trace}: {s}", w.name());
                    ok = false;
                }
                Err(e) => {
                    eprintln!("perfbench: {} --trace {trace}: {e}", w.name());
                    ok = false;
                }
            }
        }
    }
    if ok {
        println!(
            "every workload ran and every output was correct; records in {}",
            args.out.join("runs.jsonl").display()
        );
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match raw.first().map(String::as_str) {
        Some("--list") => {
            list(raw.get(1).is_some_and(|a| a == "json"));
            ExitCode::SUCCESS
        }
        Some("compare") => {
            let [_, a, b] = raw.as_slice() else {
                eprintln!("{USAGE}");
                return ExitCode::from(2);
            };
            let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
            match read(a)
                .and_then(|a| Ok((a, read(b)?)))
                .and_then(|(a, b)| compare::compare(&a, &b))
            {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::FAILURE,
                Err(e) => {
                    eprintln!("perfbench compare: {e}");
                    ExitCode::from(2)
                }
            }
        }
        _ => match parse_args(&raw) {
            Err(e) => {
                eprintln!("perfbench: {e}\n{USAGE}");
                ExitCode::from(2)
            }
            Ok(args) => match args.workload {
                None => run_all(&args, &raw),
                Some(workload) => run_one(&RunConfig {
                    workload,
                    seed: args.seed,
                    seconds: args.seconds,
                    trace: args.trace.unwrap_or(false),
                    out: args.out,
                    scale: args.scale,
                    corrupt_attempt: None,
                }),
            },
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A traced run spends a quarter of its time in each timed region and
    /// traces every 16th request, so it needs the longer run to see one.
    fn smoke(workload: Workload, trace: bool, corrupt_attempt: Option<u64>) -> Report {
        let out = std::env::temp_dir().join(format!(
            "perfbench-test-{}-{}-{}",
            std::process::id(),
            workload.name(),
            u8::from(trace)
        ));
        let report = run_workload(&RunConfig {
            workload,
            seed: 3,
            seconds: if trace { 0.4 } else { 0.05 },
            trace,
            out: out.clone(),
            scale: Scale::Smoke,
            corrupt_attempt,
        });
        let _ = std::fs::remove_file(out.join(format!("trace-{}.jsonl", workload.name())));
        let _ = std::fs::remove_dir(&out);
        report
    }

    #[test]
    fn smoke_run_of_every_workload_is_correct() {
        for w in Workload::ALL {
            let report = smoke(w, false, None);
            assert!(report.correct(), "{}: {report:?}", w.name());
            assert_eq!(report.end_to_end.len(), END_TO_END.len());
            let line = json::Json::parse(&report.contract_line()).unwrap();
            let keys: Vec<&str> = line
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let metrics = line.get("metrics").unwrap().as_obj().unwrap();
            assert_eq!(metrics.len(), END_TO_END.len());
        }
    }

    #[test]
    fn smoke_traced_run_of_every_workload_reports_every_layer_metric() {
        for w in Workload::ALL {
            let report = smoke(w, true, None);
            assert!(report.correct(), "{}: {report:?}", w.name());
            let line = json::Json::parse(&report.contract_line()).unwrap();
            let metrics = line.get("metrics").unwrap().as_obj().unwrap();
            assert_eq!(metrics.len(), PER_LAYER.len());
            assert!(report.layers.get("compiler.compile_ns_per_node") > 0.0);
            let share = report.layers.get("bench.layer_sum_share");
            assert!(
                (0.5..=1.5).contains(&share),
                "{}: layer sum {share}",
                w.name()
            );
        }
    }

    #[test]
    fn a_corrupted_reply_raises_the_failed_share() {
        for w in Workload::ALL {
            let report = smoke(w, false, Some(2));
            assert!(
                report.failed >= 1,
                "{}: corruption went unnoticed",
                w.name()
            );
            assert!(!report.correct());
        }
    }

    #[test]
    fn arguments_parse_as_the_driver_passes_them() {
        let args: Vec<String> = "--workload open_loop --seed 9 --seconds 2 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let parsed = parse_args(&args).unwrap();
        assert_eq!(parsed.workload, Some(Workload::OpenLoop));
        assert_eq!(
            (parsed.seed, parsed.seconds, parsed.trace),
            (9, 2.0, Some(true))
        );
        assert!(parse_args(&["--workload".into(), "nope".into()]).is_err());
        assert!(parse_args(&["--seconds".into(), "0".into()]).is_err());
        assert!(parse_args(&["--frobnicate".into(), "1".into()]).is_err());
    }
}
