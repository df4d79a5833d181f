//! Smoke tests for the figure harness: every generator must produce a
//! well-formed table. Fig. 12's four 188-node runs take about a second
//! in a debug build, so plain `cargo test` checks its savings band; the
//! 188-node Fig. 10 and 11 sweeps are `#[ignore]`d to keep it short, and
//! CI runs them in release with
//! `cargo test --release --test figures_smoke -- --ignored`.

mod common;

use mcag_bench::{generate, FigData};

fn check(f: &FigData) {
    assert!(!f.rows.is_empty(), "{}: empty table", f.id);
    for row in &f.rows {
        assert_eq!(row.len(), f.columns.len(), "{}: ragged row", f.id);
    }
    let rendered = f.render();
    assert!(rendered.contains(&f.id));
    let csv = f.to_csv();
    assert_eq!(csv.lines().count(), f.rows.len() + 1);
}

/// A study's returned baseline: it names its smoke file, records its
/// gates, and hashes to the pinned FNV-1a digest. The digest pins the
/// bytes themselves, which CI's run-twice-and-`cmp` check cannot: a
/// change that is deterministic but wrong passes that check. The
/// generator returns the document instead of writing it, so the test
/// leaves the checkout clean.
fn check_baseline(f: &FigData, path: &str, gates: &[&str], fnv: u64) {
    let b = f.baseline.as_ref().expect("studies return their baseline");
    assert_eq!(b.path, path);
    for gate in gates {
        let line = format!("\"{gate}\": true,");
        assert!(
            b.json.lines().any(|l| l.trim() == line),
            "{path}: {line} missing"
        );
    }
    assert_eq!(common::fnv64(&b.json), fnv, "{path} bytes moved");
}

#[test]
fn fig2_shape() {
    check(&generate("fig2"));
}

#[test]
fn fig3_shape() {
    check(&generate("fig3"));
}

#[test]
fn fig5_shape() {
    let f = generate("fig5");
    check(&f);
    // The DPA column must dominate both CPU columns at 8 MiB.
    let last = f.rows.last().unwrap();
    let ucx: f64 = last[1].parse().unwrap();
    let rc: f64 = last[2].parse().unwrap();
    let dpa: f64 = last[3].parse().unwrap();
    assert!(dpa > rc && rc > ucx, "fig5 ordering broken: {last:?}");
}

#[test]
fn fig7_shape() {
    check(&generate("fig7"));
}

#[test]
fn table1_shape() {
    check(&generate("table1"));
}

#[test]
fn fig13_and_fig14_shapes() {
    check(&generate("fig13"));
    check(&generate("fig14"));
}

#[test]
fn fig15_shape() {
    let f = generate("fig15");
    check(&f);
    // 64 KiB chunks reach line rate with one thread.
    let last = f.rows.last().unwrap();
    let one_thr: f64 = last[1].parse().unwrap();
    assert!(one_thr > 185.0, "fig15 64KiB single-thread: {one_thr}");
}

#[test]
fn fig16_shape() {
    check(&generate("fig16"));
}

#[test]
fn appb_shape() {
    check(&generate("appb"));
}

#[test]
fn faultfigs_smoke_shape() {
    let f = generate("faultfigs_smoke");
    check(&f);
    // One row per (model, rate, cutoff) cell; all three models present.
    assert_eq!(f.rows.len(), 6);
    for model in ["degraded", "flapping", "switch"] {
        assert!(f.rows.iter().any(|r| r[0] == model), "{model} missing");
    }
    // Quantiles are ordered within every cell.
    for r in &f.rows {
        let p50: f64 = r[3].parse().unwrap();
        let p99: f64 = r[4].parse().unwrap();
        let p999: f64 = r[5].parse().unwrap();
        assert!(p50 <= p99 && p99 <= p999, "tail out of order: {r:?}");
    }
    check_baseline(
        &f,
        "BENCH_faults_smoke.json",
        &["results_identical"],
        0xe002_488b_12e2_7180,
    );
}

#[test]
fn simcore_smoke_shape() {
    let f = generate("simcore_smoke");
    check(&f);
    // Both engines on the 188-node Allgather, the wheel on the fat-tree.
    assert_eq!(f.rows.len(), 3);
    check_baseline(
        &f,
        "BENCH_simcore_smoke.json",
        &["results_identical", "engines_identical"],
        0x2743_119e_4d33_ea17,
    );
}

#[test]
fn recoveryfigs_smoke_shape() {
    let f = generate("recoveryfigs_smoke");
    check(&f);
    // One oblivious + one reactive row per (model, rate) pair, and the
    // headline inequality holds in the rendered table too.
    assert_eq!(f.rows.len() % 2, 0);
    for pair in f.rows.chunks(2) {
        let [obl, rea] = pair else { unreachable!() };
        assert_eq!(obl[2], "oblivious");
        assert_eq!(rea[2], "reactive");
        assert_eq!((&obl[0], &obl[1]), (&rea[0], &rea[1]), "pairs misaligned");
        let p999 = |r: &Vec<String>| r[10].parse::<f64>().unwrap();
        assert!(p999(rea) < p999(obl), "reactive tail must win: {pair:?}");
    }
    for model in ["flapping", "switch"] {
        assert!(f.rows.iter().any(|r| r[0] == model), "{model} missing");
    }
    check_baseline(
        &f,
        "BENCH_recovery_smoke.json",
        &["results_identical", "reactive_p999_beats_oblivious"],
        0x2f3e_16bf_b129_0cf5,
    );
}

#[test]
#[ignore = "188-node breakdown sweep (~2 s in release); run with --ignored"]
fn fig10_shape() {
    check(&generate("fig10"));
}

#[test]
#[ignore = "188-node throughput sweep (~7 s in release); run with --ignored"]
fn fig11_shape() {
    check(&generate("fig11"));
}

#[test]
fn fig12_shape() {
    let f = generate("fig12");
    check(&f);
    // The headline: both savings ratios in the paper's 1.5-2x band.
    for row in f.rows.iter().filter(|r| r[1].contains("ours")) {
        let ratio: f64 = row[3].trim_end_matches('x').parse().unwrap();
        assert!((1.5..=2.2).contains(&ratio), "savings {ratio}");
    }
}
