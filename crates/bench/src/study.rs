//! The study harness every `BENCH_*.json` generator runs on.
//!
//! A study is one `fn(smoke: bool) -> FigData`: build its cells, run them
//! through [`sweep`] (every pass at a different worker count, digests
//! asserted equal), assert its named gates while building the baseline
//! document ([`Obj::gate`]), then render the table and attach the
//! document with [`attach`]. Nothing here touches the file system: the
//! `figures` binary writes [`Baseline`]s next to the tables it prints.

use crate::data::{Baseline, FigData};
use mcag_exec::par_map_ordered;
use std::fmt::Write as _;

/// A study generator: the recorded baseline, or with `smoke` its
/// bounded CI variant.
pub type Study = fn(smoke: bool) -> FigData;

/// Worker counts of the two-pass determinism check.
pub const PASSES: &[usize] = &[1, 4];

/// `"smoke"` or `"full"`: the `mode` every baseline and table records.
pub fn mode(smoke: bool) -> &'static str {
    if smoke {
        "smoke"
    } else {
        "full"
    }
}

/// Checked-in baseline path of study `stem`: `BENCH_{stem}.json`, or the
/// gitignored `BENCH_{stem}_smoke.json` in smoke mode.
fn baseline_path(stem: &str, smoke: bool) -> String {
    let suffix = if smoke { "_smoke" } else { "" };
    format!("BENCH_{stem}{suffix}.json")
}

/// Render `doc` as study `stem`'s baseline and attach it to `f`, with a
/// note naming the file the `figures` binary writes it to.
pub fn attach(f: &mut FigData, stem: &str, smoke: bool, doc: &Obj) {
    let path = baseline_path(stem, smoke);
    f.note(format!("machine-readable baseline: {path}"));
    f.baseline = Some(Baseline {
        path,
        json: doc.render(),
    });
}

/// What [`sweep`] computed.
#[derive(Debug, Clone)]
pub struct Sweep<D> {
    /// Per-item digests in input order, equal in every pass.
    pub digests: Vec<D>,
    /// Worker count of every pass, in the order they ran.
    pub passes: Vec<usize>,
}

impl<D> Sweep<D> {
    /// Whether more than one pass ran, so the digests were compared.
    pub fn cross_checked(&self) -> bool {
        self.passes.len() > 1
    }

    /// The digests grouped by the `key` of their item (`items` is what
    /// the sweep ran), groups in first-appearance order.
    pub fn group_by<I, K: PartialEq>(
        &self,
        items: &[I],
        key: impl Fn(&I) -> K,
    ) -> Vec<(K, Vec<&D>)> {
        let mut groups: Vec<(K, Vec<&D>)> = Vec::new();
        for (item, d) in items.iter().zip(&self.digests) {
            let k = key(item);
            match groups.iter_mut().find(|(g, _)| *g == k) {
                Some((_, ds)) => ds.push(d),
                None => groups.push((k, vec![d])),
            }
        }
        groups
    }

    /// A table note naming the worker counts whose results were
    /// asserted identical.
    pub fn note_passes(&self, f: &mut FigData) {
        let jobs: Vec<String> = self.passes.iter().map(|w| format!("jobs={w}")).collect();
        f.note(format!(
            "passes {}: results asserted identical across passes",
            jobs.join(", ")
        ));
    }
}

/// Run `items` once per entry of `workers` through
/// [`mcag_exec::par_map_ordered`] (heaviest `weight` claimed first) and
/// assert every pass's digests equal the first pass's.
pub fn sweep<I, D>(
    workers: &[usize],
    items: &[I],
    weight: impl Fn(&I) -> u64,
    run: impl Fn(&I) -> D + Sync,
) -> Sweep<D>
where
    I: Sync,
    D: Send + PartialEq,
{
    let mut out = Sweep {
        digests: Vec::new(),
        passes: Vec::new(),
    };
    for &w in workers {
        let digests = par_map_ordered(w, items, |_, item| weight(item), &run);
        out.passes.push(w);
        if out.passes.len() == 1 {
            out.digests = digests;
        } else {
            assert!(
                digests == out.digests,
                "jobs={w} produced different results than jobs={} — determinism broken",
                workers[0]
            );
        }
    }
    out
}

/// One JSON object under construction: fields in insertion order,
/// rendered in the layout every checked-in baseline uses — one field a
/// line, two spaces an indent level, row arrays one `{ … }` a line.
#[derive(Debug, Clone, Default)]
pub struct Obj(Vec<(&'static str, Val)>);

#[derive(Debug, Clone)]
enum Val {
    /// Already-rendered scalar (string, number, bool, null, int list).
    Scalar(String),
    Obj(Obj),
    /// Array of objects written on one line each.
    Rows(Vec<Obj>),
    /// Array of objects written one field a line.
    Blocks(Vec<Obj>),
}

impl Obj {
    /// An empty object.
    pub fn new() -> Obj {
        Obj::default()
    }

    fn push(mut self, key: &'static str, v: Val) -> Obj {
        self.0.push((key, v));
        self
    }

    fn scalar(self, key: &'static str, v: String) -> Obj {
        self.push(key, Val::Scalar(v))
    }

    /// A string field (`"` and `\` escaped).
    pub fn str(self, key: &'static str, v: &str) -> Obj {
        let escaped = v.replace('\\', "\\\\").replace('"', "\\\"");
        self.scalar(key, format!("\"{escaped}\""))
    }

    /// An integer field.
    pub fn int(self, key: &'static str, v: u64) -> Obj {
        self.scalar(key, v.to_string())
    }

    /// A float field with `decimals` fixed decimals.
    pub fn float(self, key: &'static str, v: f64, decimals: usize) -> Obj {
        self.scalar(key, format!("{v:.decimals$}"))
    }

    /// A boolean field.
    pub fn bool(self, key: &'static str, v: bool) -> Obj {
        self.scalar(key, v.to_string())
    }

    /// A `null` field.
    pub fn null(self, key: &'static str) -> Obj {
        self.scalar(key, "null".into())
    }

    /// An integer array on one line: `[1, 4]`.
    pub fn ints(self, key: &'static str, v: &[u64]) -> Obj {
        let items: Vec<String> = v.iter().map(u64::to_string).collect();
        self.scalar(key, format!("[{}]", items.join(", ")))
    }

    /// A named acceptance gate: panics unless `ok`, so a baseline is
    /// never rendered past a failed gate, and records `"name": true`.
    pub fn gate(self, name: &'static str, ok: bool) -> Obj {
        assert!(ok, "gate {name} failed");
        self.bool(name, true)
    }

    /// A nested object, one field a line.
    pub fn obj(self, key: &'static str, v: Obj) -> Obj {
        self.push(key, Val::Obj(v))
    }

    /// An array of objects, each on one line.
    pub fn rows(self, key: &'static str, rows: impl IntoIterator<Item = Obj>) -> Obj {
        self.push(key, Val::Rows(rows.into_iter().collect()))
    }

    /// An array of objects, each one field a line.
    pub fn blocks(self, key: &'static str, blocks: impl IntoIterator<Item = Obj>) -> Obj {
        self.push(key, Val::Blocks(blocks.into_iter().collect()))
    }

    /// The document, newline-terminated.
    pub fn render(&self) -> String {
        let mut s = String::new();
        self.write_block(&mut s, 0);
        s.push('\n');
        s
    }

    fn write_block(&self, s: &mut String, indent: usize) {
        s.push_str("{\n");
        for (i, (key, v)) in self.0.iter().enumerate() {
            let _ = write!(s, "{:indent$}\"{key}\": ", "", indent = indent + 2);
            v.write(s, indent + 2);
            s.push_str(if i + 1 < self.0.len() { ",\n" } else { "\n" });
        }
        let _ = write!(s, "{:indent$}}}", "");
    }

    fn write_line(&self, s: &mut String) {
        s.push_str("{ ");
        for (i, (key, v)) in self.0.iter().enumerate() {
            let _ = write!(s, "{}\"{key}\": ", if i > 0 { ", " } else { "" });
            v.write(s, 0);
        }
        s.push_str(" }");
    }
}

impl Val {
    fn write(&self, s: &mut String, indent: usize) {
        let items = match self {
            Val::Scalar(v) => return s.push_str(v),
            Val::Obj(o) => return o.write_block(s, indent),
            Val::Rows(items) | Val::Blocks(items) => items,
        };
        s.push_str("[\n");
        for (i, o) in items.iter().enumerate() {
            let _ = write!(s, "{:w$}", "", w = indent + 2);
            match self {
                Val::Rows(_) => o.write_line(s),
                _ => o.write_block(s, indent + 2),
            }
            s.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
        }
        let _ = write!(s, "{:indent$}]", "");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_pins_every_shape() {
        let row = |jobs: u64, speedup: f64| {
            Obj::new()
                .int("jobs", jobs)
                .float("speedup", speedup, 3)
                .bool("ok", true)
        };
        let doc = Obj::new()
            .str("generator", "figures \"x\"")
            .float("rate", 0.2, 2)
            .null("overhead")
            .ints("jobs_compared", &[1, 4])
            .gate("results_identical", true)
            .rows("passes", [row(1, 1.0), row(4, 2.0)])
            .blocks("scenarios", [Obj::new().str("name", "a").null("speedup")])
            .obj("nested", Obj::new().int("bytes", 10).rows("empty", []));
        let json = doc.render();
        assert_eq!(
            json,
            r#"{
  "generator": "figures \"x\"",
  "rate": 0.20,
  "overhead": null,
  "jobs_compared": [1, 4],
  "results_identical": true,
  "passes": [
    { "jobs": 1, "speedup": 1.000, "ok": true },
    { "jobs": 4, "speedup": 2.000, "ok": true }
  ],
  "scenarios": [
    {
      "name": "a",
      "speedup": null
    }
  ],
  "nested": {
    "bytes": 10,
    "empty": [
    ]
  }
}
"#
        );
        mcag_trace::validate_json(&json).expect("writer output parses");
    }

    #[test]
    #[should_panic(expected = "gate sharp_wins failed")]
    fn failed_gate_panics() {
        let _ = Obj::new().gate("sharp_wins", false);
    }

    #[test]
    fn baseline_paths_follow_the_stem() {
        assert_eq!(baseline_path("faults", false), "BENCH_faults.json");
        assert_eq!(baseline_path("faults", true), "BENCH_faults_smoke.json");
    }

    #[test]
    #[should_panic(expected = "jobs=4 produced different results than jobs=1")]
    fn sweep_catches_worker_dependent_digests() {
        let calls = std::sync::atomic::AtomicU64::new(0);
        let _ = sweep(
            PASSES,
            &[0u8],
            |_| 0,
            |_| calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
        );
    }
}
