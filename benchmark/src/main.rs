//! The repository's performance benchmark. See `README.md` beside this
//! crate for the metric definitions and the method.
//!
//! ```text
//! benchmark --workload W --seed N --seconds T --trace 0|1   one run; last stdout line is the result object
//! benchmark [--seed N] [--seconds T] [--quick]              a full set: every workload, both runs, result file
//! benchmark compare A.json B.json                           hold two result files against the bounds
//! ```

mod alloc;
mod calib;
mod compare;
mod json;
mod metrics;
mod report;
mod runner;
mod spans;
mod stats;
mod workloads;

use runner::{RunResult, RunSpec};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Default length of a timed loop, the `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 15.0;

const USAGE: &str = "usage:
  benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
  benchmark [--seed <n>] [--seconds <s>] [--quick]
  benchmark compare <A.json> <B.json>";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        traced: false,
        quick: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.clone()),
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?
            }
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| (0.0..=600.0).contains(s))
                    .ok_or("--seconds takes a number from 0 to 600")?
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--quick" => args.quick = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// The checkout this binary was built in: the parent of the package.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the package sits in a directory of the repository")
        .to_path_buf()
}

fn write_spans(root: &Path, r: &RunResult) {
    let dir = root.join("benchmark/out");
    let path = dir.join(format!("{}.spans.json", r.workload));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, spans::to_chrome_json(&r.spans)));
    match written {
        Ok(()) => println!("  spans: {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

fn run_spec(args: &Args, workload: &str, traced: bool, root: &Path) -> RunSpec {
    RunSpec {
        workload: workload.to_string(),
        seed: args.seed,
        seconds: args.seconds,
        traced,
        quick: args.quick,
        repo_root: root.to_path_buf(),
    }
}

/// One workload, one run; the driver's entry point.
fn single(args: &Args, workload: &str, started: Instant) -> ExitCode {
    let root = repo_root();
    let spec = run_spec(args, workload, args.traced, &root);
    let result = runner::run(&spec, &mut calib::Kernel::new(), started);
    print!("{}", report::table(&result));
    if result.traced {
        write_spans(&root, &result);
    }
    if !result.correct {
        // A failed gate prints no result object: nothing is valid.
        return ExitCode::FAILURE;
    }
    println!("{}", report::contract_line(&result));
    ExitCode::SUCCESS
}

/// Every workload, end-to-end run then traced run, and the result file.
fn full_set(args: &Args) -> ExitCode {
    let root = repo_root();
    let set_start = Instant::now();
    let mut kernel = calib::Kernel::new();
    let mut members = Vec::new();
    let mut all_correct = true;
    let mut traced_tables = String::new();
    println!(
        "full set · seed {} · {} · load: closed loop, one client, one thread; runtime arrivals are open-loop on the virtual clock (generator lateness 0 by construction)\n",
        args.seed,
        if args.quick { "quick (2 iterations per run)".to_string() } else { format!("{} s per timed loop", args.seconds) }
    );
    for workload in workloads::NAMES {
        let mut run = |traced: bool| {
            let spec = run_spec(args, workload, traced, &root);
            runner::run(&spec, &mut kernel, Instant::now())
        };
        let e2e = run(false);
        print!("{}", report::table(&e2e));
        let traced = run(true);
        traced_tables.push_str(&report::table(&traced));
        write_spans(&root, &traced);
        all_correct &= e2e.correct && traced.correct;
        members.push(report::result_member(&e2e, &traced));
    }
    println!("\n{traced_tables}");
    let set_wall_s = set_start.elapsed().as_secs_f64();
    let doc = format!(
        "{{\n  \"environment\": {{{}}},\n  \"seed\": {},\n  \"seconds\": {},\n  \"quick\": {},\n  \"set_wall_s\": {},\n  \"correct\": {},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        report::environment(&root),
        args.seed,
        json::number(args.seconds),
        args.quick,
        json::number(set_wall_s),
        all_correct,
        members.join(",\n"),
    );
    let dir = root.join("benchmark/out");
    let path = dir.join(format!("result-seed{}.json", args.seed));
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, doc)) {
        eprintln!("could not write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!(
        "set wall time {set_wall_s:.1} s · correctness gate {} · result file {}",
        if all_correct { "passed" } else { "FAILED" },
        path.display()
    );
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = argv.as_slice() else {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        };
        let decl = repo_root().join("BENCHMARK.json");
        return match compare::compare(&decl, Path::new(a), Path::new(b)) {
            Ok((table, regressed)) => {
                print!("{table}");
                if regressed {
                    println!("result: REGRESSED");
                    ExitCode::FAILURE
                } else {
                    println!("result: no regression beyond the bounds");
                    ExitCode::SUCCESS
                }
            }
            Err(e) => {
                eprintln!("compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match &args.workload {
        Some(w) => single(&args, w, started),
        None => full_set(&args),
    }
}
