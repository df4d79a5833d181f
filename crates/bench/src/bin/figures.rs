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
//! so `--jobs` only changes how long a run takes. `--csv DIR`
//! additionally writes one CSV per figure. `--trace PATH` exports the
//! reference traced fat-tree-512 Allgather as Chrome trace-event JSON,
//! ready to open at <https://ui.perfetto.dev>. Studies (`simcore`,
//! `faultfigs`, …) return a machine-readable baseline with their table;
//! this binary writes it to its `BENCH_*.json` path in the working
//! directory — the only place the harness writes files. Output holds
//! simulated-time results only; host timing is measured by the
//! benchmark in `benchmark/`.

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
    for id in &ids {
        let fig = generate_with(id, jobs);
        writeln!(out, "{}", fig.render()).unwrap();
        if let Some(b) = &fig.baseline {
            std::fs::write(&b.path, &b.json).unwrap_or_else(|e| panic!("write {}: {e}", b.path));
        }
        if let Some(dir) = &csv_dir {
            let path = format!("{dir}/{id}.csv");
            std::fs::write(&path, fig.to_csv()).expect("write csv");
        }
    }
}
