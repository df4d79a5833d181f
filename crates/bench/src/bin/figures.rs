//! Regenerate the paper's tables and figures.
//!
//! ```text
//! figures [ids…] [--ablations] [--jobs N] [--csv DIR] [--trace PATH]
//! ```
//!
//! With no ids, every artifact is produced in paper order. `--jobs N`
//! bounds the concurrent simulations inside each sweep generator
//! (default: the host's available parallelism); tables are byte-identical
//! for every `N` — the fork-join executor slots outputs by input index —
//! so `--jobs` only moves wall clock. `--csv DIR` additionally writes one
//! CSV per figure plus a `timings.csv` whose rows are uniformly
//! `<fig>[:<job>],<jobs>,<wall_ms>` (per-generator summaries and the
//! per-job cost-skew detail share one format — see
//! `mcag_bench::data::timing_row`). `--trace PATH` exports the reference
//! traced fat-tree-512 Allgather as Chrome trace-event JSON, ready to
//! open at <https://ui.perfetto.dev>. Studies (`simcore`, `faultfigs`,
//! …) return a machine-readable baseline with their table; this binary
//! writes it to its `BENCH_*.json` path in the working directory — the
//! only place the harness writes files. Every run ends with a wall-clock
//! summary table so perf PRs can diff generator runtime, not just
//! simulated-time results.

use mcag_bench::data::{timing_row, TIMINGS_CSV_HEADER};
use mcag_bench::{generate_with, tracefigs, ABLATIONS, ALL_FIGS, STUDIES};
use std::io::Write;

fn main() {
    let mut ids: Vec<String> = Vec::new();
    let mut csv_dir: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut jobs = mcag_exec::default_jobs();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--csv" => {
                csv_dir = Some(args.next().expect("--csv needs a directory"));
            }
            "--trace" => {
                trace_path = Some(args.next().expect("--trace needs an output path"));
            }
            "--jobs" => {
                jobs = args
                    .next()
                    .expect("--jobs needs a worker count")
                    .parse()
                    .expect("--jobs takes a positive integer");
                assert!(jobs >= 1, "--jobs takes a positive integer");
            }
            "--ablations" => {
                ids.extend(ABLATIONS.iter().map(|s| s.to_string()));
            }
            "--help" | "-h" => {
                let studies: Vec<&str> = STUDIES.iter().map(|(s, _)| *s).collect();
                println!(
                    "usage: figures [ids…] [--ablations] [--jobs N] [--csv DIR] [--trace PATH]\nids: {}\nablations: {}\nstudies (append _smoke for the CI variant): {}",
                    ALL_FIGS.join(" "),
                    ABLATIONS.join(" "),
                    studies.join(" ")
                );
                return;
            }
            id => ids.push(id.to_string()),
        }
    }
    if let Some(path) = &trace_path {
        let doc = tracefigs::reference_chrome_trace();
        std::fs::write(path, &doc).expect("write trace export");
        let bytes = doc.len();
        println!("wrote {bytes}-byte Chrome trace to {path} (open at https://ui.perfetto.dev)");
        if ids.is_empty() {
            return;
        }
    }
    if ids.is_empty() {
        ids = ALL_FIGS.iter().map(|s| s.to_string()).collect();
    }
    if let Some(dir) = &csv_dir {
        std::fs::create_dir_all(dir).expect("create csv dir");
    }
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let mut timings: Vec<(String, f64)> = Vec::with_capacity(ids.len());
    let mut job_timings: Vec<(String, Vec<(String, f64)>)> = Vec::new();
    for id in &ids {
        let t0 = std::time::Instant::now();
        let fig = generate_with(id, jobs);
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        writeln!(out, "{}", fig.render()).unwrap();
        writeln!(out, "  [generated in {wall_ms:.1} ms]\n").unwrap();
        if let Some(b) = &fig.baseline {
            std::fs::write(&b.path, &b.json).unwrap_or_else(|e| panic!("write {}: {e}", b.path));
        }
        if let Some(dir) = &csv_dir {
            let path = format!("{dir}/{id}.csv");
            std::fs::write(&path, fig.to_csv()).expect("write csv");
        }
        if !fig.job_wall_ms.is_empty() {
            job_timings.push((id.clone(), fig.job_wall_ms));
        }
        timings.push((id.clone(), wall_ms));
    }
    // Wall-clock summary: the generator-runtime trajectory of this tree.
    writeln!(out, "== generator wall-clock ({jobs} jobs)").unwrap();
    let total: f64 = timings.iter().map(|(_, ms)| ms).sum();
    for (id, ms) in &timings {
        writeln!(out, "  {id:<24} {ms:>10.1} ms").unwrap();
    }
    writeln!(out, "  {:<24} {total:>10.1} ms", "total").unwrap();
    if let Some(dir) = &csv_dir {
        let mut csv = format!("{TIMINGS_CSV_HEADER}\n");
        for (id, ms) in &timings {
            csv.push_str(&timing_row(id, None, jobs, *ms));
            csv.push('\n');
        }
        // Per-job wall times from sweep generators that measure their
        // individual simulations (`FigData::job_wall_ms`), as
        // `<figure>:<job>` rows — the cost-skew data behind
        // largest-first scheduling. Same helper, same shape.
        for (id, per_job) in &job_timings {
            for (label, ms) in per_job {
                csv.push_str(&timing_row(id, Some(label), jobs, *ms));
                csv.push('\n');
            }
        }
        std::fs::write(format!("{dir}/timings.csv"), csv).expect("write timings csv");
    }
}
