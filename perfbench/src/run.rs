//! What every workload shares: the run configuration, the timed-region
//! summary, and the assembly of the reported metrics.

use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::items::Checker;
use crate::json::Json;
use crate::layers::{Metrics, Simulated};
use crate::spec::{Workload, END_TO_END, PER_LAYER};
use crate::stats::{highest_percentile, percentile, sorted, Measured};
use crate::trace::Tracer;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the bounds in `BENCHMARK.json` were measured at.
    Full,
    /// Tiny DAGs and tens of operations: exercises every code path and
    /// correctness check in well under a second. Its numbers mean nothing.
    Smoke,
}

#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Spill directories, the trace and `runs.jsonl` go here.
    pub out: PathBuf,
    pub scale: Scale,
    /// Test hook, see [`Checker::corrupt_attempt`].
    pub corrupt_attempt: Option<u64>,
}

impl RunConfig {
    /// A directory of this process's own under `out`.
    pub fn scratch_dir(&self, purpose: &str) -> PathBuf {
        self.out.join(format!(
            "{purpose}-{}-{}",
            self.workload.name(),
            std::process::id()
        ))
    }

    pub fn checker(&self) -> Checker {
        Checker {
            corrupt_attempt: self.corrupt_attempt,
            ..Checker::default()
        }
    }
}

/// Deletes the spill files of `dir` (only `*.dpuc` and `.tmp-*` are ever
/// deleted) and then the directory if that left it empty.
pub fn remove_spill_dir(dir: &Path) {
    clear_spill_dir(dir);
    let _ = std::fs::remove_dir(dir);
}

/// Deletes the spill files of `dir`, leaving the directory.
pub fn clear_spill_dir(dir: &Path) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.ends_with(".dpuc") || name.starts_with(".tmp-") {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

/// Seconds of one call.
pub fn seconds<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// The seconds of every set-up of a run: `first_s` of the one the timed
/// region ran on, then of the further ones made here only to be timed, so
/// that the median is steady. They come after the timed region, and after
/// `peak_rss_mb` is read: memory is that of one set-up and one timed
/// region, whatever the repeats leave behind in the allocator.
pub fn further_setups<S>(
    cfg: &RunConfig,
    first_s: f64,
    mut setup: impl FnMut() -> S,
    mut discard: impl FnMut(S),
) -> Vec<f64> {
    // A fixed count, so two runs do the same work: enough for a steady
    // median, fewer where a set-up takes a third of a second.
    let count = match (cfg.scale, cfg.workload) {
        (Scale::Smoke, _) => 1,
        (Scale::Full, Workload::ServeHeavy | Workload::OpenLoop) => 5,
        (Scale::Full, Workload::ColdStart) => 7,
        (Scale::Full, Workload::ServeTiny | Workload::DseSweep) => 31,
    };
    let mut parts = vec![first_s];
    while parts.len() < count {
        let (state, s) = seconds(&mut setup);
        parts.push(s);
        discard(state);
    }
    parts
}

/// The timed region of one run, cut into parts (segments of equal length,
/// rounds or sweeps).
#[derive(Debug, Default)]
pub struct Timed {
    /// Operations per second of each part.
    pub rates: Vec<f64>,
    /// Host nanoseconds of each operation, by part.
    pub latencies_ns: Vec<Vec<u64>>,
    /// Every part runs the same operations in the same order (the cells of
    /// a sweep, the DAGs of a cold/warm cycle). Percentiles are then taken
    /// over each operation's median across the parts: pooled, a percentile
    /// that falls between two operations of different cost jumps from one
    /// to the other on a single slow sample.
    pub same_operations: bool,
    pub checker: Checker,
}

impl Timed {
    pub fn rate(&self) -> Measured {
        Measured::median_of(&self.rates)
    }

    /// Each of the `ps` percentiles of an operation's host time, in
    /// microseconds, with the spread of the per-part percentiles. Parts of
    /// a stream of requests give the median of their own percentiles, so a
    /// stall of the machine in one part cannot set the result.
    pub fn latencies_us(&self, ps: &[f64]) -> Vec<Measured> {
        let parts: Vec<Vec<u64>> = self
            .latencies_ns
            .iter()
            .filter(|part| !part.is_empty())
            .map(|part| sorted(part.clone()))
            .collect();
        if parts.is_empty() {
            return vec![Measured::exact(0.0); ps.len()];
        }
        let per_operation = self.same_operations.then(|| {
            sorted(
                (0..self.latencies_ns[0].len())
                    .map(|i| {
                        let of_parts =
                            sorted(self.latencies_ns.iter().map(|part| part[i]).collect());
                        of_parts[of_parts.len() / 2]
                    })
                    .collect(),
            )
        });
        let us = |v: &[u64], p: f64| percentile(v, p) as f64 / 1e3;
        ps.iter()
            .map(|&p| {
                let of_parts: Vec<f64> = parts.iter().map(|part| us(part, p)).collect();
                match &per_operation {
                    Some(all) => Measured::around(us(all, p), &of_parts),
                    None => Measured::median_of(&of_parts),
                }
            })
            .collect()
    }

    /// Samples behind each reported percentile: the operations of a part
    /// (every part of a stream holds about as many).
    pub fn samples(&self) -> usize {
        let parts = self.latencies_ns.len().max(1);
        self.latencies_ns.iter().map(Vec::len).sum::<usize>() / parts
    }
}

/// `VmHWM` of this process in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What one invocation reports.
#[derive(Debug)]
pub struct Report {
    pub config: RunConfig,
    pub attempted: u64,
    pub failed: u64,
    /// `--trace 0`: every end-to-end metric, in `END_TO_END` order.
    pub end_to_end: Vec<Measured>,
    /// `--trace 1`: the per-layer metrics.
    pub layers: Metrics,
    /// Set when the run cannot support a verdict (an open-loop generator
    /// that ran late).
    pub unresolved: bool,
    pub notes: Vec<String>,
}

impl Report {
    pub fn new(config: &RunConfig) -> Report {
        Report {
            config: config.clone(),
            attempted: 0,
            failed: 0,
            end_to_end: Vec::new(),
            layers: Metrics::default(),
            unresolved: false,
            notes: Vec::new(),
        }
    }

    pub fn count(&mut self, checker: &Checker) {
        self.attempted += checker.attempted;
        self.failed += checker.failed;
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Fills the end-to-end metrics of an untraced run.
    pub fn set_end_to_end(
        &mut self,
        timed: &Timed,
        sim: [Measured; 3],
        setup_parts: &[f64],
        peak_rss_mb: f64,
    ) {
        let [gops, edp, speedup] = sim;
        let samples = timed.samples();
        let highest = highest_percentile(samples);
        let latency = timed.latencies_us(&[50.0, 90.0, highest.unwrap_or(50.0)]);
        self.end_to_end = vec![
            timed.rate(),
            latency[0],
            latency[1],
            gops,
            edp,
            speedup,
            Measured::median_of(setup_parts),
            Measured::exact(peak_rss_mb),
        ];
        assert_eq!(self.end_to_end.len(), END_TO_END.len());
        if let Some(p) = highest {
            self.notes.push(format!(
                "{samples} latency samples a part; highest percentile with ten beyond it: p{p} = {:.1} us",
                latency[2].value
            ));
        }
    }

    /// The line the driver reads: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    pub fn contract_line(&self) -> String {
        let metrics = self.metrics_json(false);
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", metrics),
        ])
        .encode()
    }

    /// The line appended to `runs.jsonl`: the contract line plus what
    /// `compare` needs.
    pub fn detail_line(&self) -> String {
        Json::obj([
            ("workload", Json::str(self.config.workload.name())),
            ("seed", Json::Num(self.config.seed as f64)),
            ("seconds", Json::Num(self.config.seconds)),
            ("trace", Json::Num(f64::from(u8::from(self.config.trace)))),
            ("correct", Json::Bool(self.correct())),
            ("unresolved", Json::Bool(self.unresolved)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", self.metrics_json(true)),
            (
                "notes",
                Json::Arr(self.notes.iter().map(Json::str).collect()),
            ),
            ("machine", machine_json()),
        ])
        .encode()
    }

    fn metrics_json(&self, with_spread: bool) -> Json {
        let entry = |value: f64, unit: &str, spread: Option<(f64, f64)>| {
            let mut fields = vec![("value", Json::Num(value)), ("unit", Json::str(unit))];
            if let Some((min, max)) = spread {
                fields.push(("min", Json::Num(min)));
                fields.push(("max", Json::Num(max)));
            }
            Json::obj(fields)
        };
        if self.config.trace {
            Json::obj(
                PER_LAYER
                    .iter()
                    .map(|m| (m.name, entry(self.layers.get(m.name), m.unit, None))),
            )
        } else {
            Json::obj(END_TO_END.iter().zip(&self.end_to_end).map(|(m, v)| {
                let spread = with_spread.then_some((v.min, v.max));
                (m.name, entry(v.value, m.unit, spread))
            }))
        }
    }

    /// Writes the spans of a traced run beside the other outputs and notes
    /// where.
    pub fn write_trace(&mut self, tracer: &Tracer) {
        let out = &self.config.out;
        let path = out.join(format!("trace-{}.jsonl", self.config.workload.name()));
        match std::fs::create_dir_all(out).and_then(|()| tracer.write(&path)) {
            Ok(()) => self.notes.push(format!(
                "{} spans in {}",
                tracer.spans().len(),
                path.display()
            )),
            Err(e) => self.notes.push(format!("trace not written: {e}")),
        }
    }

    /// Every metric by name with its unit, for a person.
    pub fn table(&self) -> String {
        let mut out = format!(
            "{} seed {} ({} s, trace {}): {} attempted, {} failed{}\n",
            self.config.workload.name(),
            self.config.seed,
            self.config.seconds,
            u8::from(self.config.trace),
            self.attempted,
            self.failed,
            if self.unresolved { ", UNRESOLVED" } else { "" },
        );
        if self.config.trace {
            for m in PER_LAYER {
                out.push_str(&format!(
                    "  {:<44} {:>16.4} {}\n",
                    m.name,
                    self.layers.get(m.name),
                    m.unit
                ));
            }
        } else {
            for (m, v) in END_TO_END.iter().zip(&self.end_to_end) {
                out.push_str(&format!(
                    "  {:<16} {:>14.4} {:<6} (parts {:.4} .. {:.4})\n",
                    m.name, v.value, m.unit, v.min, v.max
                ));
            }
        }
        for note in &self.notes {
            out.push_str(&format!("  note: {note}\n"));
        }
        out
    }
}

/// The machine a result was measured on; thread-dependent results mean
/// nothing without it.
pub fn machine_json() -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    Json::obj([("nproc", Json::Num(nproc as f64)), ("cpu", Json::str(cpu))])
}

/// The three simulated end-to-end metrics of a deterministic summary.
pub fn exact_sim(s: &Simulated) -> [Measured; 3] {
    [
        Measured::exact(s.gops),
        Measured::exact(s.edp_pj_ns),
        Measured::exact(s.speedup_vs_cpu),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_over_same_operations_use_each_operation_s_median() {
        // Two operations, three parts; one slow sample of the cheap one.
        let mut timed = Timed {
            latencies_ns: vec![vec![1_000, 9_000], vec![1_100, 9_100], vec![20_000, 9_200]],
            ..Timed::default()
        };
        assert_eq!(
            timed.latencies_us(&[50.0])[0].value,
            1.1,
            "median of the parts' own medians [1.0, 1.1, 9.2]"
        );
        timed.same_operations = true;
        let p50 = timed.latencies_us(&[50.0])[0];
        assert_eq!(p50.value, 1.1, "first of the medians [1.1, 9.1]");
        assert_eq!((p50.min, p50.max), (1.0, 9.2));
    }
}
