//! `perfbench compare <a.jsonl> <b.jsonl>`: applies each end-to-end
//! metric's direction and bound to two sets of runs.

use crate::json::Json;
use crate::spec::{Better, EndToEnd, Workload, END_TO_END};
use crate::stats::{iqr_share, median, Measured};

/// The untraced runs of one workload in one set.
#[derive(Debug, Default)]
struct Side {
    /// Every run's end-to-end metrics, in `END_TO_END` order.
    runs: Vec<Vec<Measured>>,
    attempted: f64,
    failed: f64,
    /// Runs that said they cannot support a verdict (an open-loop
    /// generator that ran late); their metrics are left out.
    flagged: usize,
}

impl Side {
    fn values(&self, metric: usize) -> Vec<f64> {
        self.runs.iter().map(|r| r[metric].value).collect()
    }

    /// Run-to-run spread as a share of the median: the interquartile
    /// distance over four or more runs, else the widest spread any single
    /// run saw between its own parts.
    fn spread(&self, metric: usize) -> f64 {
        let values = self.values(metric);
        if values.len() >= 4 {
            return iqr_share(&values);
        }
        self.runs
            .iter()
            .map(|r| r[metric].spread())
            .fold(0.0, f64::max)
    }

    fn failed_share(&self) -> f64 {
        self.failed / self.attempted.max(1.0)
    }
}

fn parse_set(text: &str) -> Result<Vec<(Workload, Side)>, String> {
    let mut sides: Vec<(Workload, Side)> = Workload::ALL.map(|w| (w, Side::default())).into();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let doc = Json::parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        let field = |k: &str| doc.get(k).ok_or(format!("line {}: no `{k}`", n + 1));
        if field("trace")?.as_f64() != Some(0.0) {
            continue;
        }
        let name = field("workload")?.as_str().unwrap_or_default();
        let Some((_, side)) = sides.iter_mut().find(|(w, _)| w.name() == name) else {
            return Err(format!("line {}: unknown workload `{name}`", n + 1));
        };
        side.attempted += field("attempted")?.as_f64().unwrap_or(0.0);
        side.failed += field("failed")?.as_f64().unwrap_or(0.0);
        if field("unresolved")?.as_bool().unwrap_or(false) {
            side.flagged += 1;
            continue;
        }
        let metrics = field("metrics")?;
        let mut run = Vec::new();
        for m in END_TO_END {
            let entry =
                metrics
                    .get(m.name)
                    .ok_or(format!("line {}: no metric `{}`", n + 1, m.name))?;
            let num = |k: &str| entry.get(k).and_then(Json::as_f64);
            let value = num("value").ok_or(format!("line {}: `{}` has no value", n + 1, m.name))?;
            run.push(Measured {
                value,
                min: num("min").unwrap_or(value),
                max: num("max").unwrap_or(value),
            });
        }
        side.runs.push(run);
    }
    Ok(sides)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By how much `b` is worse than `a`, as a share of `a` (negative =
/// better).
fn worsening(m: &EndToEnd, a: f64, b: f64) -> f64 {
    let base = a.abs().max(f64::MIN_POSITIVE);
    match m.better {
        Better::Lower => (b - a) / base,
        Better::Higher => (a - b) / base,
    }
}

fn judge(m: &EndToEnd, a: &[f64], b: &[f64], spread: f64) -> Verdict {
    if spread > m.bound {
        // Too noisy for the bound to mean anything, unless the change wins
        // outright.
        let every_b_beats_every_a = b
            .iter()
            .all(|&y| a.iter().all(|&x| worsening(m, x, y) < 0.0));
        return if every_b_beats_every_a {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    if worsening(m, median(a), median(b)) > m.bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// Prints one row per metric and workload; `Ok(true)` when nothing is
/// worse and no failed share rose.
pub fn compare(a_text: &str, b_text: &str) -> Result<bool, String> {
    let (a, b) = (parse_set(a_text)?, parse_set(b_text)?);
    let mut clean = true;
    println!(
        "{:<12} {:<15} {:>14} {:>14} {:>9} {:>7} {:>8}  verdict",
        "workload", "metric", "a (median)", "b (median)", "worse by", "bound", "spread"
    );
    for ((w, sa), (_, sb)) in a.iter().zip(&b) {
        if sa.flagged + sb.flagged > 0 {
            println!(
                "{:<12} left out: {} run(s) of a and {} of b flagged themselves unresolved",
                w.name(),
                sa.flagged,
                sb.flagged
            );
        }
        if sa.runs.is_empty() || sb.runs.is_empty() {
            println!(
                "{:<12} unresolved: no usable untraced run in {}",
                w.name(),
                if sa.runs.is_empty() { "a" } else { "b" }
            );
            continue;
        }
        for (i, m) in END_TO_END.iter().enumerate() {
            let (va, vb) = (sa.values(i), sb.values(i));
            let spread = sa.spread(i).max(sb.spread(i));
            let verdict = judge(m, &va, &vb, spread);
            clean &= verdict != Verdict::Worse;
            println!(
                "{:<12} {:<15} {:>14.4} {:>14.4} {:>8.1}% {:>6.1}% {:>7.1}%  {}",
                w.name(),
                m.name,
                median(&va),
                median(&vb),
                worsening(m, median(&va), median(&vb)) * 100.0,
                m.bound * 100.0,
                spread * 100.0,
                verdict.name()
            );
        }
        let (fa, fb) = (sa.failed_share(), sb.failed_share());
        let rose = fb > fa;
        clean &= !rose;
        println!(
            "{:<12} {:<15} {:>14.6} {:>14.6} {:>26}  {}",
            w.name(),
            "failed_share",
            fa,
            fb,
            "",
            if rose { "worse" } else { "ok" }
        );
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(better: Better) -> EndToEnd {
        EndToEnd {
            name: "m",
            unit: "u",
            better,
            bound: 0.1,
            what: "",
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let rate = &metric(Better::Higher);
        assert_eq!(judge(rate, &[100.0], &[95.0], 0.01), Verdict::Ok);
        assert_eq!(judge(rate, &[100.0], &[80.0], 0.01), Verdict::Worse);
        assert_eq!(judge(rate, &[100.0], &[130.0], 0.01), Verdict::Ok);
        // Spread wider than the bound: unresolved, unless b wins outright.
        assert_eq!(judge(rate, &[100.0], &[80.0], 0.5), Verdict::Unresolved);
        assert_eq!(judge(rate, &[100.0], &[100.0], 0.5), Verdict::Unresolved);
        let (a, b) = ([100.0, 101.0], [130.0, 140.0]);
        assert_eq!(judge(rate, &a, &b, 0.5), Verdict::Ok);
        let time = &metric(Better::Lower);
        assert_eq!(judge(time, &[100.0], &[130.0], 0.01), Verdict::Worse);
        assert_eq!(judge(time, &[100.0], &[90.0], 0.01), Verdict::Ok);
    }

    /// One record of `runs.jsonl` with every metric at 1 but `rps`.
    fn line(workload: &str, rps: f64, failed: u64, flagged: bool) -> String {
        let metrics: Vec<String> = END_TO_END
            .iter()
            .map(|m| {
                let v = if m.name == "rps" { rps } else { 1.0 };
                format!(
                    r#""{}":{{"value":{v},"unit":"{}","min":{v},"max":{v}}}"#,
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            r#"{{"workload":"{workload}","trace":0,"unresolved":{flagged},"attempted":100,"failed":{failed},"metrics":{{{}}}}}"#,
            metrics.join(",")
        )
    }

    #[test]
    fn compare_fails_on_a_regression_or_a_rise_in_failures() {
        let a = line("serve_tiny", 1000.0, 0, false);
        let b = |rps, failed| line("serve_tiny", rps, failed, false);
        assert_eq!(compare(&a, &b(990.0, 0)), Ok(true));
        assert_eq!(compare(&a, &b(500.0, 0)), Ok(false));
        assert_eq!(compare(&a, &b(1000.0, 1)), Ok(false));
        assert!(compare(&a, "not json").is_err());
    }

    #[test]
    fn a_run_that_flagged_itself_is_left_out() {
        let a = line("open_loop", 1000.0, 0, false);
        let late = line("open_loop", 100.0, 0, true);
        let b = format!("{late}\n{}", line("open_loop", 1000.0, 0, false));
        assert_eq!(compare(&a, &b), Ok(true));
        // Nothing usable left: no verdict, and nothing counted as worse.
        assert_eq!(compare(&a, &late), Ok(true));
    }
}
