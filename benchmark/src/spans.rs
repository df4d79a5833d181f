//! Benchmark-side tracing: spans recorded in memory around each public
//! call into a layer crate, written out once at exit.
//!
//! This is *not* the product's flight recorder (`mcag-trace`, the
//! subject of the `load_traced` workload): these spans live entirely in
//! the benchmark and measure host time, never simulated time. A span's
//! name is `<layer>.<call>`; the layer is the crate the call enters.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Iteration number carried by spans recorded outside the timed loop
/// (the layer probes).
pub const PROBE_ITERATION: i64 = -1;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Timed-loop iteration the span belongs to, or [`PROBE_ITERATION`].
    pub iteration: i64,
}

impl Span {
    /// The crate the call entered: the name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// Wall duration.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder. Disabled, [`Recorder::span`] only calls the
/// closure, so the end-to-end run and the traced run share one code
/// path through every workload.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    iteration: i64,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder that records nothing until [`Recorder::set_enabled`].
    pub fn new() -> Recorder {
        Recorder {
            enabled: false,
            origin: Instant::now(),
            iteration: PROBE_ITERATION,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Turn recording on or off (between spans only).
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "toggled inside an open span");
        self.enabled = enabled;
    }

    /// Tag the spans that follow with `iteration`.
    pub fn set_iteration(&mut self, iteration: i64) {
        self.iteration = iteration;
    }

    /// Run `f` inside a span called `name`; spans opened by `f` through
    /// the recorder it is handed become this span's children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            iteration: self.iteration,
        });
        self.open.push(index);
        self.spans[index].start_ns = self.origin.elapsed().as_nanos() as u64;
        let out = f(self);
        self.spans[index].end_ns = self.origin.elapsed().as_nanos() as u64;
        self.open.pop();
        out
    }

    /// Everything recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The finished recording.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the part its direct
/// children cover. Index-aligned with `spans`.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Per iteration, the summed duration of the spans called `name`
/// (probe spans excluded). Iterations without such a span are absent.
pub fn totals_by_iteration(spans: &[Span], name: &str) -> Vec<f64> {
    let mut by_iter: BTreeMap<i64, u64> = BTreeMap::new();
    for s in spans {
        if s.name == name && s.iteration != PROBE_ITERATION {
            *by_iter.entry(s.iteration).or_default() += s.dur_ns();
        }
    }
    by_iter.into_values().map(|ns| ns as f64).collect()
}

/// Durations of the probe spans called `name`.
pub fn probe_durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name && s.iteration == PROBE_ITERATION)
        .map(|s| s.dur_ns() as f64)
        .collect()
}

/// Render `spans` as a Chrome trace-event document (`ph: "X"` complete
/// events, microsecond timestamps; loads in Perfetto and
/// `chrome://tracing`).
pub fn to_chrome_json(spans: &[Span]) -> String {
    let own = self_times_ns(spans);
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or(-1, |p| p as i64);
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"iteration\":{},\"self_ns\":{}}}}}",
            s.name,
            s.layer(),
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            i,
            parent,
            s.iteration,
            own[i],
        );
        out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>, it: i64) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            iteration: it,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("bench.iteration", 0, 100, None, 0),
            span("runtime.new", 10, 40, Some(0), 0),
            span("simnet.topology_build", 15, 25, Some(1), 0),
            span("runtime.run_open_loop", 40, 90, Some(0), 0),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 20, 10, 50]);
        let total: u64 = self_times_ns(&spans).iter().sum();
        assert_eq!(total, 100, "self times partition the root span");
    }

    #[test]
    fn recorder_nests_and_tags() {
        let mut rec = Recorder::new();
        rec.span("off.ignored", |_| ());
        assert!(rec.spans().is_empty(), "disabled recorder records nothing");
        rec.set_enabled(true);
        rec.set_iteration(3);
        let v = rec.span("bench.iteration", |r| r.span("core.run_collective", |_| 7));
        assert_eq!(v, 7);
        let s = rec.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].parent, s[1].parent), (None, Some(0)));
        assert_eq!(s[1].layer(), "core");
        assert_eq!(s[1].iteration, 3);
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    }

    #[test]
    fn totals_group_by_iteration_and_skip_probes() {
        let spans = vec![
            span("faults.compile", 0, 5, None, 0),
            span("faults.compile", 5, 12, None, 0),
            span("faults.compile", 20, 23, None, 1),
            span("faults.compile", 30, 99, None, PROBE_ITERATION),
        ];
        assert_eq!(
            totals_by_iteration(&spans, "faults.compile"),
            vec![12.0, 3.0]
        );
        assert_eq!(probe_durations(&spans, "faults.compile"), vec![69.0]);
    }

    #[test]
    fn chrome_export_parses_and_keeps_every_span() {
        let spans = vec![
            span("bench.iteration", 0, 2_000, None, 0),
            span("core.run_collective", 500, 1_500, Some(0), 0),
        ];
        let doc = crate::json::parse(&to_chrome_json(&spans)).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("cat").and_then(|c| c.as_str()), Some("core"));
        assert_eq!(
            events[0]
                .get("args")
                .and_then(|a| a.get("self_ns"))
                .and_then(|v| v.as_f64()),
            Some(1_000.0)
        );
    }
}
