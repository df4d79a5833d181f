//! Everything a run prints or writes: the human-readable tables, the
//! one-line JSON object the driver reads, the result file of a full
//! set, and the environment record inside it.

use crate::json::{number, quote};
use crate::runner::RunResult;
use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

/// The last line of a single-workload run: exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`, every value with all its digits.
pub fn contract_line(r: &RunResult) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(def, v)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(def.name),
                number(*v),
                quote(def.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted.max(1),
        r.failed,
        metrics.join(", ")
    )
}

/// The metrics of one run as an aligned table, with its notes and, if
/// the gate failed, the reasons.
pub fn table(r: &RunResult) -> String {
    let mut out = String::new();
    let kind = if r.traced {
        "per-layer (traced run)"
    } else {
        "end-to-end"
    };
    let _ = writeln!(
        out,
        "== {} · {kind} · {} timed iteration(s) · calibration {:.1} Mops/s (spread {:.1} %)",
        r.workload,
        r.attempted,
        r.cal_ops_per_s / 1e6,
        r.cal_spread * 100.0
    );
    for (def, v) in &r.metrics {
        // Layers that did no work on this workload would only add noise.
        if r.traced && *v == 0.0 {
            continue;
        }
        let dir = if def.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        let spread = r.spreads.get(def.name).map_or(String::new(), |s| {
            format!("  (spread over iterations {:.1} %)", s * 100.0)
        });
        let _ = writeln!(
            out,
            "  {:<34} {:>18} {:<12} {dir} is better{spread}",
            def.name,
            short(*v),
            def.unit
        );
    }
    for n in &r.notes {
        let _ = writeln!(out, "  note: {n}");
    }
    if r.correct {
        let _ = writeln!(out, "  correctness gate: passed");
    } else {
        let _ = writeln!(
            out,
            "  correctness gate: FAILED — the numbers above are not valid"
        );
        for e in &r.errors {
            let _ = writeln!(out, "    - {e}");
        }
    }
    out
}

/// A value for the eye: six significant digits.
fn short(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if (1e-3..1e9).contains(&v.abs()) {
        let digits = (5 - v.abs().max(1e-3).log10().floor() as i32).clamp(0, 9) as usize;
        format!("{v:.digits$}")
    } else {
        format!("{v:.5e}")
    }
}

fn first_line(cmd: &str, args: &[&str], cwd: &Path) -> String {
    Command::new(cmd)
        .args(args)
        .current_dir(cwd)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The environment a result was measured in, as JSON object members.
pub fn environment(repo_root: &Path) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "\"nproc\": {}, \"cpu_model\": {}, \"rustc\": {}, \"git_commit\": {}",
        std::thread::available_parallelism().map_or(1, |p| p.get()),
        quote(&cpu),
        quote(&first_line("rustc", &["-V"], repo_root)),
        quote(&first_line("git", &["rev-parse", "HEAD"], repo_root)),
    )
}

/// One workload's pair of runs as a member of the result file.
pub fn result_member(e2e: &RunResult, traced: &RunResult) -> String {
    let list = |r: &RunResult| -> String {
        r.metrics
            .iter()
            .map(|(def, v)| {
                format!(
                    "        {}: {{\"value\": {}, \"unit\": {}, \"spread\": {}}}",
                    quote(def.name),
                    number(*v),
                    quote(def.unit),
                    number(r.spreads.get(def.name).copied().unwrap_or(0.0))
                )
            })
            .collect::<Vec<_>>()
            .join(",\n")
    };
    let errors: Vec<String> = e2e
        .errors
        .iter()
        .chain(&traced.errors)
        .map(|e| quote(e))
        .collect();
    format!(
        "    {}: {{\n      \"correct\": {},\n      \"errors\": [{}],\n      \"iterations\": {},\n      \"traced_iterations\": {},\n      \"calibration_mops\": {},\n      \"calibration_spread\": {},\n      \"end_to_end\": {{\n{}\n      }},\n      \"per_layer\": {{\n{}\n      }}\n    }}",
        quote(&e2e.workload),
        e2e.correct && traced.correct,
        errors.join(", "),
        e2e.attempted,
        traced.attempted,
        number(e2e.cal_ops_per_s / 1e6),
        number(e2e.cal_spread),
        list(e2e),
        list(traced),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use crate::metrics::END_TO_END;
    use std::collections::BTreeMap;

    fn sample(correct: bool) -> RunResult {
        RunResult {
            workload: "ag188".into(),
            traced: false,
            correct,
            errors: if correct {
                Vec::new()
            } else {
                vec!["a \"quoted\" reason".into()]
            },
            attempted: 21,
            failed: !correct as u64,
            metrics: END_TO_END
                .iter()
                .enumerate()
                .map(|(i, d)| (*d, 1.5 + i as f64))
                .collect(),
            spreads: BTreeMap::from([("jobs_per_mcalop", 0.0123)]),
            notes: vec!["n".into()],
            spans: Vec::new(),
            cal_ops_per_s: 5.0e7,
            cal_spread: 0.02,
        }
    }

    /// The driver's contract: one object, exactly four keys, every
    /// end-to-end metric with a value and its unit.
    #[test]
    fn contract_line_has_exactly_the_contract_shape() {
        let line = contract_line(&sample(true));
        assert!(!line.contains('\n'));
        let v = json::parse(&line).unwrap();
        let keys: Vec<&String> = v.as_object().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(v.get("correct").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("attempted").and_then(Value::as_u64), Some(21));
        assert_eq!(v.get("failed").and_then(Value::as_u64), Some(0));
        let metrics = v.get("metrics").and_then(Value::as_object).unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        for def in END_TO_END {
            let m = &metrics[def.name];
            assert_eq!(m.as_object().unwrap().len(), 2);
            assert!(m.get("value").and_then(Value::as_f64).is_some());
            assert_eq!(m.get("unit").and_then(Value::as_str), Some(def.unit));
        }
    }

    #[test]
    fn result_member_is_valid_json_and_carries_failures() {
        let doc = format!("{{\n{}\n}}", result_member(&sample(true), &sample(false)));
        let v = json::parse(&doc).unwrap();
        let w = v.get("ag188").unwrap();
        assert_eq!(w.get("correct").and_then(Value::as_bool), Some(false));
        assert_eq!(w.get("errors").and_then(Value::as_array).unwrap().len(), 1);
        let m = w
            .get("end_to_end")
            .and_then(|e| e.get("jobs_per_mcalop"))
            .unwrap();
        assert_eq!(m.get("spread").and_then(Value::as_f64), Some(0.0123));
        assert!(table(&sample(false)).contains("FAILED"));
    }

    #[test]
    fn short_keeps_six_significant_digits() {
        assert_eq!(short(0.0), "0");
        assert_eq!(short(10.0634), "10.0634");
        assert_eq!(short(0.0028612), "0.00286120");
        assert_eq!(short(49020928.0), "49020928");
    }
}
