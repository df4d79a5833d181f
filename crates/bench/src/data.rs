//! Tabular results: the common output format of every figure generator.

use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// One regenerated table/figure.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FigData {
    /// Generator id (`fig11`, `table1`, …).
    pub id: String,
    /// Human title (what the paper's caption says).
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Rows of formatted cells.
    pub rows: Vec<Vec<String>>,
    /// Free-form notes: calibration caveats, expected shapes.
    pub notes: Vec<String>,
    /// Per-job wall times `(label, ms)` for sweep generators that
    /// measure individual simulations (cost-skew analysis). The
    /// `figures` binary appends these to `timings.csv` as
    /// `<id>:<label>` rows; they never enter rendered tables or
    /// determinism digests.
    pub job_wall_ms: Vec<(String, f64)>,
    /// The machine-readable baseline of a study generator, which the
    /// `figures` binary writes next to the table it prints.
    pub baseline: Option<Baseline>,
}

/// A study's machine-readable baseline: the JSON document and the path,
/// relative to the working directory, it belongs at.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Baseline {
    /// `BENCH_<stem>.json`, or `BENCH_<stem>_smoke.json` in smoke mode.
    pub path: String,
    /// The document.
    pub json: String,
}

impl FigData {
    /// Start a table.
    pub fn new(id: &str, title: &str, columns: &[&str]) -> FigData {
        FigData {
            id: id.to_string(),
            title: title.to_string(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
            job_wall_ms: Vec::new(),
            baseline: None,
        }
    }

    /// Record one job's wall time (see [`FigData::job_wall_ms`]).
    pub fn job_timing(&mut self, label: impl Into<String>, wall_ms: f64) {
        self.job_wall_ms.push((label.into(), wall_ms));
    }

    /// Append a row (must match the column count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.columns.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Append a note line.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} — {}", self.id, self.title);
        let header: Vec<String> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
            .collect();
        let _ = writeln!(out, "  {}", header.join("  "));
        let _ = writeln!(
            out,
            "  {}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  ")
        );
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect();
            let _ = writeln!(out, "  {}", line.join("  "));
        }
        for n in &self.notes {
            let _ = writeln!(out, "  note: {n}");
        }
        out
    }

    /// Render as CSV.
    pub fn to_csv(&self) -> String {
        let esc = |s: &str| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.columns
                .iter()
                .map(|c| esc(c))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }
}

/// Header of the `timings.csv` the `figures` binary writes under
/// `--csv`. Every row — per-generator summary and per-job detail alike —
/// comes from [`timing_row`], so the file stays uniform.
pub const TIMINGS_CSV_HEADER: &str = "figure,jobs,wall_ms";

/// One `timings.csv` row: `<fig>,<jobs>,<wall_ms>` for a generator
/// summary, `<fig>:<job>,<jobs>,<wall_ms>` for a per-job detail row
/// (the [`FigData::job_wall_ms`] cost-skew data).
pub fn timing_row(fig: &str, job: Option<&str>, jobs: usize, wall_ms: f64) -> String {
    match job {
        Some(j) => format!("{fig}:{j},{jobs},{wall_ms:.3}"),
        None => format!("{fig},{jobs},{wall_ms:.3}"),
    }
}

/// Format bytes with binary units.
pub fn human_bytes(b: u64) -> String {
    const U: &[&str] = &["B", "KiB", "MiB", "GiB", "TiB"];
    let mut v = b as f64;
    let mut u = 0;
    while v >= 1024.0 && u + 1 < U.len() {
        v /= 1024.0;
        u += 1;
    }
    if u == 0 {
        format!("{b}B")
    } else {
        format!("{v:.1}{}", U[u])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut f = FigData::new("x", "t", &["a", "long-header"]);
        f.row(vec!["1".into(), "2".into()]);
        f.note("hello");
        let r = f.render();
        assert!(r.contains("long-header"));
        assert!(r.contains("note: hello"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        let mut f = FigData::new("x", "t", &["a"]);
        f.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn csv_escapes() {
        let mut f = FigData::new("x", "t", &["a,b", "c"]);
        f.row(vec!["v\"1".into(), "2".into()]);
        let csv = f.to_csv();
        assert!(csv.starts_with("\"a,b\",c"));
        assert!(csv.contains("\"v\"\"1\""));
    }

    #[test]
    fn timing_rows_are_uniform() {
        assert_eq!(timing_row("fig11", None, 4, 12.3456), "fig11,4,12.346");
        assert_eq!(
            timing_row("faultfigs", Some("seed7"), 1, 0.5),
            "faultfigs:seed7,1,0.500"
        );
        // Both row shapes parse under the one header.
        assert_eq!(TIMINGS_CSV_HEADER.split(',').count(), 3);
    }

    #[test]
    fn bytes_formatting() {
        assert_eq!(human_bytes(512), "512B");
        assert_eq!(human_bytes(64 << 10), "64.0KiB");
        assert_eq!(human_bytes(8 << 20), "8.0MiB");
    }
}
