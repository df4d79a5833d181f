//! `compare A.json B.json`: hold two result files of full sets against
//! the bounds in `BENCHMARK.json`, one row per workload and end-to-end
//! metric. `A` is the baseline (the parent commit, or the first of two
//! sets of one commit), `B` the candidate.

use crate::json::{self, Value};
use crate::metrics::EXACT_PER_SEED;
use std::fmt::Write as _;
use std::path::Path;

/// How one (workload, metric) pairing came out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `B` is no worse than `A` by more than the bound.
    Ok,
    /// `B` is worse than `A` by more than the bound.
    Regressed,
    /// The spread over iterations inside a run is wider than the bound:
    /// the two values cannot be told apart at this resolution.
    Unresolved,
}

/// By how much `b` is worse than `a`, as a share of `a` (negative when
/// `b` is better).
pub fn worsening(a: f64, b: f64, higher_is_better: bool) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    let change = (b - a) / a.abs();
    // `+ 0.0` turns the -0.0 of an unchanged higher-is-better metric into 0.0.
    if higher_is_better {
        -change + 0.0
    } else {
        change
    }
}

/// The rule of the choosing-metrics guide: a spread wider than the
/// bound is unresolved, not unchanged; otherwise worse-by-more-than-the-
/// bound is a regression.
pub fn verdict(worse_by: f64, run_spread: f64, bound: f64) -> Verdict {
    if run_spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn metric_field(set: &Value, workload: &str, metric: &str, field: &str) -> Option<f64> {
    set.get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?
        .get(field)?
        .as_f64()
}

/// Compare two result files under the bounds of `benchmark_json`.
/// Returns the rendered table and whether anything regressed.
pub fn compare(benchmark_json: &Path, a: &Path, b: &Path) -> Result<(String, bool), String> {
    let decl = load(benchmark_json)?;
    let (set_a, set_b) = (load(a)?, load(b)?);
    let workloads = decl
        .get("workloads")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json: no workloads")?;
    let metrics = decl
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json: no end_to_end")?;
    let same_inputs = ["seed", "quick"]
        .iter()
        .all(|k| set_a.get(k).is_some() && set_a.get(k) == set_b.get(k));
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} seed: simulated metrics are held to {}",
        if same_inputs { "same" } else { "different" },
        if same_inputs {
            "a bound of 0"
        } else {
            "the bounds of BENCHMARK.json"
        }
    );
    let _ = writeln!(
        out,
        "{:<12} {:<22} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    let mut regressed = false;
    for w in workloads {
        let workload = w
            .get("name")
            .and_then(Value::as_str)
            .ok_or("workload without a name")?;
        for (label, set) in [("A", &set_a), ("B", &set_b)] {
            let gate = set
                .get("workloads")
                .and_then(|ws| ws.get(workload))
                .and_then(|x| x.get("correct"))
                .and_then(Value::as_bool);
            if gate != Some(true) {
                let _ = writeln!(
                    out,
                    "{workload:<12} set {label} did not pass the correctness gate"
                );
                regressed = true;
            }
        }
        for m in metrics {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or("metric without a name")?;
            let declared = m
                .get("bound")
                .and_then(Value::as_f64)
                .ok_or("metric without a bound")?;
            let bound = if same_inputs && EXACT_PER_SEED.contains(&name) {
                0.0
            } else {
                declared
            };
            let higher = m.get("better").and_then(Value::as_str) == Some("higher");
            let (Some(va), Some(vb)) = (
                metric_field(&set_a, workload, name, "value"),
                metric_field(&set_b, workload, name, "value"),
            ) else {
                let _ = writeln!(out, "{workload:<12} {name:<22} missing from a result file");
                regressed = true;
                continue;
            };
            let run_spread = metric_field(&set_a, workload, name, "spread")
                .unwrap_or(0.0)
                .max(metric_field(&set_b, workload, name, "spread").unwrap_or(0.0));
            let worse_by = worsening(va, vb, higher);
            let v = verdict(worse_by, run_spread, bound);
            regressed |= v == Verdict::Regressed;
            let word = match v {
                Verdict::Ok => "ok".to_string(),
                Verdict::Regressed => "REGRESSED".to_string(),
                Verdict::Unresolved => format!("unresolved (spread {:.1} %)", run_spread * 100.0),
            };
            let _ = writeln!(
                out,
                "{workload:<12} {name:<22} {va:>16.6} {vb:>16.6} {:>8.2}% {:>6.1}%  {word}",
                worse_by * 100.0,
                bound * 100.0
            );
        }
    }
    Ok((out, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(100.0, 110.0, false) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, true) + 0.10).abs() < 1e-12);
        assert!((worsening(10.0, 8.0, true) - 0.20).abs() < 1e-12);
        assert_eq!(worsening(0.0, 5.0, false), 0.0);
    }

    #[test]
    fn verdict_rule() {
        assert_eq!(verdict(0.05, 0.01, 0.10), Verdict::Ok);
        assert_eq!(
            verdict(-0.30, 0.01, 0.10),
            Verdict::Ok,
            "an improvement is never a regression"
        );
        assert_eq!(verdict(0.11, 0.01, 0.10), Verdict::Regressed);
        assert_eq!(verdict(0.00, 0.12, 0.10), Verdict::Unresolved);
        assert_eq!(verdict(0.50, 0.12, 0.10), Verdict::Unresolved);
        assert_eq!(
            verdict(0.0, 0.0, 0.0),
            Verdict::Ok,
            "exact metrics: equal is ok"
        );
        assert_eq!(
            verdict(1e-9, 0.0, 0.0),
            Verdict::Regressed,
            "exact metrics: any change is not"
        );
    }
}
