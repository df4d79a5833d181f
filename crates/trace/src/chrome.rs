//! Chrome trace-event JSON export (the format Perfetto and
//! `chrome://tracing` open directly) plus a dependency-free JSON
//! validator for round-trip tests.
//!
//! Layout of the exported document:
//!
//! * **pid 1 "fabric links"** — one track (tid) per directed link;
//!   `Inject`/`Egress` busy intervals as complete (`"X"`) slices, drops
//!   and fault transitions as instants (`"i"`).
//! * **pid 2 "engine"** — `Deliver` instants per rank and the sampled
//!   event-queue depth as a counter (`"C"`) series.
//! * **pid 3 "scheduler"** — one track per fabric partition; batch
//!   lifecycle slices.
//! * **pid 4 "tenants"** — one track per tenant; job execution slices,
//!   with flow arrows (`"s"`/`"f"`) from submit to dispatch so queueing
//!   is visible, and admission-reject instants.
//!
//! Timestamps are simulated nanoseconds rendered as microseconds with
//! integer math (`ns/1000 . ns%1000`), so the export is byte-identical
//! across hosts.
//!
//! ## One pass, one buffer
//!
//! A traced run exports hundreds of thousands of elements, so the
//! renderer allocates exactly once. `render` is one forward pass over
//! the trace that hands literal fragments, integers, timestamps and
//! names to an `Out`. [`export_chrome`] drives it twice: first into a
//! `Len`, which only adds up what each piece *would* occupy (a literal's
//! length, a number's digit count, a name's escaped length), then into a
//! `Doc`, whose buffer is reserved to that sum and becomes the returned
//! `String` without a copy. Because both walks are the same code the
//! capacity is not an estimate but the document's exact length — a
//! worst-case bound per element kind would over-reserve by half (a `u64`
//! timestamp may take 21 bytes, a real one takes 10) — so the buffer
//! never reallocates and peak memory is the document itself.
//!
//! ## One record per element
//!
//! The writing pass stages each element in a fixed record on the stack
//! and appends the finished record to the buffer with one copy. Inside
//! the record a literal fragment is a copy of constant length, which
//! compiles to a few moves where a copy into the buffer is a `memcpy`
//! call per fragment; an integer's length comes from a leading-zeros
//! estimate and one compare, and its digits are written back to front,
//! two at a time, from a table of digit pairs. A name or reason too
//! long for the record spills it and goes to the buffer directly.

use crate::event::TraceEvent;
use crate::span::RuntimeTrace;

/// Optional display names for the export. Indexes are link / tenant ids;
/// anything beyond the provided names falls back to a numeric label.
#[derive(Debug, Clone, Default)]
pub struct ChromeOptions {
    /// `link_names[link]` labels that link's track.
    pub link_names: Vec<String>,
    /// `tenant_names[tenant]` labels that tenant's track.
    pub tenant_names: Vec<String>,
}

/// Where the renderer's pieces go: a byte count ([`Len`], the sizing
/// pass) or the document ([`Doc`], the writing pass).
trait Out {
    /// A fragment that is already valid JSON text.
    fn lit(&mut self, s: &str);

    /// An unsigned integer in decimal.
    fn num(&mut self, v: u64);

    /// Simulated nanoseconds as a Chrome `ts`/`dur` microsecond value,
    /// integer math only (`123456` ns → `123.456`).
    fn us(&mut self, ns: u64);

    /// The body of a JSON string literal: `s`, escaped in place.
    fn esc(&mut self, s: &str) {
        let mut from = 0;
        for (i, b) in s.bytes().enumerate() {
            if let Some(escape) = escape_of(b) {
                // Escaped bytes are ASCII, so `from..i` lies on
                // character boundaries.
                self.lit(&s[from..i]);
                self.lit(escape);
                from = i + 1;
            }
        }
        self.lit(&s[from..]);
    }

    /// Start the next array element: separator, then its leading
    /// fragment. The first element belongs to [`HEADER`], so every
    /// element written through here has a predecessor.
    fn open(&mut self, head: &str) {
        self.lit(",\n");
        self.lit(head);
    }
}

/// The JSON escape of `b` inside a string literal; `None` when the byte
/// stands for itself (every byte of a multi-byte character does).
fn escape_of(b: u8) -> Option<&'static str> {
    const CONTROL: [&str; 0x20] = [
        "\\u0000", "\\u0001", "\\u0002", "\\u0003", "\\u0004", "\\u0005", "\\u0006", "\\u0007",
        "\\u0008", "\\t", "\\n", "\\u000b", "\\u000c", "\\r", "\\u000e", "\\u000f", "\\u0010",
        "\\u0011", "\\u0012", "\\u0013", "\\u0014", "\\u0015", "\\u0016", "\\u0017", "\\u0018",
        "\\u0019", "\\u001a", "\\u001b", "\\u001c", "\\u001d", "\\u001e", "\\u001f",
    ];
    match b {
        b'"' => Some("\\\""),
        b'\\' => Some("\\\\"),
        0..=0x1f => Some(CONTROL[usize::from(b)]),
        _ => None,
    }
}

/// The sizing pass: the number of bytes the same calls append to the
/// document buffer.
struct Len(usize);

/// `10^i` for every `i` a `u64` can reach.
const POW10: [u64; 20] = {
    let mut t = [1u64; 20];
    let mut i = 1;
    while i < 20 {
        t[i] = t[i - 1] * 10;
        i += 1;
    }
    t
};

/// The number of decimal digits of `v`. `bits · 1233 / 4096` rounds
/// `bits · log10 2` down, so it is the digit count or one short of it,
/// and one compare with a power of ten settles which.
fn decimal_digits(v: u64) -> usize {
    let v = v | 1;
    let guess = (((u64::BITS - v.leading_zeros()) * 1233) >> 12) as usize;
    guess + usize::from(v >= POW10[guess])
}

impl Out for Len {
    fn lit(&mut self, s: &str) {
        self.0 += s.len();
    }

    fn num(&mut self, v: u64) {
        self.0 += decimal_digits(v);
    }

    fn us(&mut self, ns: u64) {
        self.0 += decimal_digits(ns / 1000) + ".000".len();
    }
}

/// `"00"`, `"01"`, …, `"99"`: two digits per table read.
const PAIRS: [u8; 200] = {
    let mut t = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        t[2 * i] = b'0' + (i / 10) as u8;
        t[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    t
};

/// Fill `out` with `v` in decimal, back to front two digits at a time;
/// `out` is exactly `decimal_digits(v)` long.
fn decimal_into(out: &mut [u8], mut v: u64) {
    let mut at = out.len();
    while v >= 100 {
        let pair = (v % 100) as usize * 2;
        v /= 100;
        at -= 2;
        out[at..at + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
    }
    if v >= 10 {
        let pair = v as usize * 2;
        out[..2].copy_from_slice(&PAIRS[pair..pair + 2]);
    } else {
        out[0] = b'0' + v as u8;
    }
}

/// Bytes of one element staged on the stack. An element that outgrows
/// it (a long name or reject reason) is flushed part-way, and a piece
/// longer than the record goes to the buffer directly.
const RECORD: usize = 256;

/// The writing pass: each element is staged in the first `len` bytes of
/// `rec` and appended to `doc` when the next element opens.
struct Doc {
    doc: Vec<u8>,
    rec: [u8; RECORD],
    len: usize,
}

impl Doc {
    fn with_capacity(capacity: usize) -> Doc {
        Doc {
            doc: Vec::with_capacity(capacity),
            rec: [0; RECORD],
            len: 0,
        }
    }

    /// Append the staged record to the document.
    fn flush(&mut self) {
        self.doc.extend_from_slice(&self.rec[..self.len]);
        self.len = 0;
    }

    /// Make room for `n` more bytes in the record and return where they
    /// end; `n` is at most [`RECORD`].
    #[inline(always)]
    fn room(&mut self, n: usize) -> usize {
        if self.len + n > RECORD {
            self.flush();
        }
        self.len + n
    }

    /// The finished document. Every piece appended is a whole `&str` or
    /// ASCII digits, so its bytes are UTF-8.
    fn finish(mut self) -> Vec<u8> {
        self.flush();
        self.doc
    }
}

// Each call is inlined into `render`, where a literal's length is a
// constant: without that the copies are calls again (≈ 30 % slower).
impl Out for Doc {
    #[inline(always)]
    fn lit(&mut self, s: &str) {
        let s = s.as_bytes();
        if s.len() > RECORD {
            self.flush();
            self.doc.extend_from_slice(s);
            return;
        }
        let end = self.room(s.len());
        self.rec[self.len..end].copy_from_slice(s);
        self.len = end;
    }

    #[inline(always)]
    fn num(&mut self, v: u64) {
        let end = self.room(decimal_digits(v));
        decimal_into(&mut self.rec[self.len..end], v);
        self.len = end;
    }

    #[inline(always)]
    fn us(&mut self, ns: u64) {
        // The integer digits, the point, three fraction digits.
        let end = self.room(decimal_digits(ns / 1000) + 4);
        decimal_into(&mut self.rec[self.len..end - 4], ns / 1000);
        let frac = (ns % 1000) as usize;
        self.rec[end - 4] = b'.';
        self.rec[end - 3] = b'0' + (frac / 100) as u8;
        let pair = frac % 100 * 2;
        self.rec[end - 2..end].copy_from_slice(&PAIRS[pair..pair + 2]);
        self.len = end;
    }

    #[inline(always)]
    fn open(&mut self, head: &str) {
        self.flush();
        self.lit(",\n");
        self.lit(head);
    }
}

/// Everything before the first data element: the document opening and
/// the four process-name records (pids as in the module docs).
const HEADER: &str = r#"{"displayTimeUnit":"ns","traceEvents":[
{"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"fabric links"}},
{"ph":"M","pid":2,"tid":0,"name":"process_name","args":{"name":"engine"}},
{"ph":"M","pid":3,"tid":0,"name":"process_name","args":{"name":"scheduler"}},
{"ph":"M","pid":4,"tid":0,"name":"process_name","args":{"name":"tenants"}}"#;

/// Render a [`RuntimeTrace`] as a Chrome trace-event JSON document.
/// Open the result in [Perfetto](https://ui.perfetto.dev) or
/// `chrome://tracing`.
pub fn export_chrome(trace: &RuntimeTrace, opts: &ChromeOptions) -> String {
    let mut len = Len(0);
    render(&mut len, trace, opts);
    let mut doc = Doc::with_capacity(len.0);
    render(&mut doc, trace, opts);
    let doc = doc.finish();
    debug_assert_eq!(doc.len(), len.0, "sizing and writing passes disagree");
    String::from_utf8(doc).expect("the renderer appends only `&str`s and ASCII digits")
}

/// The document, front to back, as a sequence of [`Out`] calls.
fn render<O: Out>(o: &mut O, trace: &RuntimeTrace, opts: &ChromeOptions) {
    o.lit(HEADER);
    for (pid, names) in [(1, &opts.link_names), (4, &opts.tenant_names)] {
        for (tid, name) in names.iter().enumerate() {
            o.open(r#"{"ph":"M","pid":"#);
            o.num(pid);
            o.lit(r#","tid":"#);
            o.num(tid as u64);
            o.lit(r#","name":"thread_name","args":{"name":""#);
            o.esc(name);
            o.lit(r#""}}"#);
        }
    }

    for ev in &trace.fabric {
        match *ev {
            TraceEvent::Inject {
                start_ns,
                ser_ns,
                link,
                src,
                bytes,
            } => {
                o.open(r#"{"ph":"X","pid":1,"tid":"#);
                o.num(link.into());
                o.lit(r#","ts":"#);
                o.us(start_ns);
                o.lit(r#","dur":"#);
                o.us(ser_ns);
                o.lit(r#","name":"inject r"#);
                o.num(src.into());
                o.lit(r#"","args":{"bytes":"#);
                o.num(bytes.into());
                o.lit("}}");
            }
            TraceEvent::Egress {
                start_ns,
                ser_ns,
                link,
                bytes,
            } => {
                o.open(r#"{"ph":"X","pid":1,"tid":"#);
                o.num(link.into());
                o.lit(r#","ts":"#);
                o.us(start_ns);
                o.lit(r#","dur":"#);
                o.us(ser_ns);
                o.lit(r#","name":"tx","args":{"bytes":"#);
                o.num(bytes.into());
                o.lit("}}");
            }
            TraceEvent::Deliver {
                at_ns,
                rank,
                qp,
                bytes,
            } => {
                o.open(r#"{"ph":"i","pid":2,"tid":"#);
                o.num(rank.into());
                o.lit(r#","ts":"#);
                o.us(at_ns);
                o.lit(r#","s":"t","name":"deliver","args":{"qp":"#);
                o.num(qp.into());
                o.lit(r#","bytes":"#);
                o.num(bytes.into());
                o.lit("}}");
            }
            TraceEvent::Drop { at_ns, link, cause } => {
                o.open(r#"{"ph":"i","pid":1,"tid":"#);
                o.num(link.into());
                o.lit(r#","ts":"#);
                o.us(at_ns);
                o.lit(r#","s":"t","name":"drop:"#);
                o.lit(cause.label());
                o.lit(r#""}"#);
            }
            TraceEvent::Fault { at_ns, link, up } => {
                o.open(r#"{"ph":"i","pid":1,"tid":"#);
                o.num(link.into());
                o.lit(r#","ts":"#);
                o.us(at_ns);
                o.lit(if up {
                    r#","s":"t","name":"fault-up"}"#
                } else {
                    r#","s":"t","name":"fault-down"}"#
                });
            }
            TraceEvent::QueueDepth { at_ns, depth } => {
                o.open(r#"{"ph":"C","pid":2,"tid":0,"ts":"#);
                o.us(at_ns);
                o.lit(r#","name":"queue-depth","args":{"depth":"#);
                o.num(depth.into());
                o.lit("}}");
            }
        }
    }

    for b in &trace.batches {
        o.open(r#"{"ph":"X","pid":3,"tid":"#);
        o.num(b.partition.into());
        o.lit(r#","ts":"#);
        o.us(b.start_ns);
        o.lit(r#","dur":"#);
        o.us(b.end_ns.saturating_sub(b.start_ns));
        o.lit(r#","name":"batch "#);
        o.num(b.batch);
        o.lit(r#"","args":{"jobs":"#);
        o.num(b.jobs.into());
        o.lit(r#","setup_ns":"#);
        o.num(b.setup_ns);
        o.lit("}}");
    }

    for j in &trace.jobs {
        o.open(r#"{"ph":"X","pid":4,"tid":"#);
        o.num(j.tenant.into());
        o.lit(r#","ts":"#);
        o.us(j.started_ns);
        o.lit(r#","dur":"#);
        o.us(j.finished_ns.saturating_sub(j.started_ns));
        o.lit(r#","name":"job "#);
        o.num(j.job);
        o.lit(r#"","args":{"batch":"#);
        o.num(j.batch);
        o.lit(r#","partition":"#);
        o.num(j.partition.into());
        o.lit(r#","pool_hits":"#);
        o.num(j.pool_hits.into());
        o.lit(r#","pool_builds":"#);
        o.num(j.pool_builds.into());
        o.lit(r#","pool_rebuilds":"#);
        o.num(j.pool_rebuilds.into());
        o.lit("}}");
        // Flow arrow submit → dispatch: queueing made visible.
        for (head, at_ns) in [
            (r#"{"ph":"s","pid":4,"tid":"#, j.submitted_ns),
            (r#"{"ph":"f","bp":"e","pid":4,"tid":"#, j.started_ns),
        ] {
            o.open(head);
            o.num(j.tenant.into());
            o.lit(r#","ts":"#);
            o.us(at_ns);
            o.lit(r#","cat":"job","id":"#);
            o.num(j.job);
            o.lit(r#","name":"sojourn"}"#);
        }
    }

    for m in &trace.markers {
        o.open(r#"{"ph":"i","pid":4,"tid":"#);
        o.num(if m.tenant == u32::MAX { 0 } else { m.tenant }.into());
        o.lit(r#","ts":"#);
        o.us(m.at_ns);
        // Retry markers are recovery actions, not admission decisions.
        if m.reason == "job-retry" {
            o.lit(r#","s":"t","name":"job-retry"}"#);
        } else {
            o.lit(r#","s":"t","name":"reject:"#);
            o.esc(m.reason);
            o.lit(r#""}"#);
        }
    }

    for r in &trace.rebuilds {
        o.open(r#"{"ph":"i","pid":3,"tid":"#);
        o.num(r.partition.into());
        o.lit(r#","ts":"#);
        o.us(r.at_ns);
        o.lit(r#","s":"p","name":"sm-rebuild","args":{"batch":"#);
        o.num(r.batch);
        o.lit(r#","groups":"#);
        o.num(r.groups.into());
        o.lit("}}");
    }

    o.lit("\n]}\n");
}

/// Containers may nest this deep (the Chrome document is 4 deep). The
/// validator recurses once per level, so without a cap a long run of
/// `[` would overflow the stack instead of returning an error.
const MAX_DEPTH: usize = 128;

/// Validate that `s` is one well-formed JSON value (the whole string,
/// modulo surrounding whitespace) nested at most `MAX_DEPTH` deep.
/// Dependency-free recursive-descent check used by the round-trip tests
/// and the smoke generator.
pub fn validate_json(s: &str) -> Result<(), String> {
    let b = s.as_bytes();
    let mut pos = skip_ws(b, 0);
    pos = value(b, pos, 0)?;
    pos = skip_ws(b, pos);
    if pos != b.len() {
        return Err(format!("trailing bytes at offset {pos}"));
    }
    Ok(())
}

fn skip_ws(b: &[u8], mut pos: usize) -> usize {
    while pos < b.len() && matches!(b[pos], b' ' | b'\t' | b'\n' | b'\r') {
        pos += 1;
    }
    pos
}

/// `depth` is the number of containers already open around `pos`.
fn value(b: &[u8], pos: usize, depth: usize) -> Result<usize, String> {
    match b.get(pos) {
        Some(b'{' | b'[') if depth == MAX_DEPTH => {
            Err(format!("nesting deeper than {MAX_DEPTH} at offset {pos}"))
        }
        Some(b'{') => object(b, pos, depth + 1),
        Some(b'[') => array(b, pos, depth + 1),
        Some(b'"') => string(b, pos),
        Some(b't') => literal(b, pos, b"true"),
        Some(b'f') => literal(b, pos, b"false"),
        Some(b'n') => literal(b, pos, b"null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => number(b, pos),
        Some(c) => Err(format!("unexpected byte {c:?} at offset {pos}")),
        None => Err("unexpected end of input".into()),
    }
}

fn literal(b: &[u8], pos: usize, lit: &[u8]) -> Result<usize, String> {
    if b[pos..].starts_with(lit) {
        Ok(pos + lit.len())
    } else {
        Err(format!("bad literal at offset {pos}"))
    }
}

/// `-? (0 | [1-9][0-9]*) frac? exp?` — a leading zero ends the integer
/// part, so `01` stops after `0` and the caller rejects the `1`.
fn number(b: &[u8], mut pos: usize) -> Result<usize, String> {
    let start = pos;
    if b.get(pos) == Some(&b'-') {
        pos += 1;
    }
    let digits = |b: &[u8], mut p: usize| -> (usize, bool) {
        let s = p;
        while p < b.len() && b[p].is_ascii_digit() {
            p += 1;
        }
        (p, p > s)
    };
    pos = match b.get(pos) {
        Some(b'0') => pos + 1,
        Some(b'1'..=b'9') => digits(b, pos).0,
        _ => return Err(format!("bad number at offset {start}")),
    };
    if b.get(pos) == Some(&b'.') {
        let (p, ok) = digits(b, pos + 1);
        if !ok {
            return Err(format!("bad fraction at offset {pos}"));
        }
        pos = p;
    }
    if matches!(b.get(pos), Some(b'e') | Some(b'E')) {
        let mut p = pos + 1;
        if matches!(b.get(p), Some(b'+') | Some(b'-')) {
            p += 1;
        }
        let (p, ok) = digits(b, p);
        if !ok {
            return Err(format!("bad exponent at offset {pos}"));
        }
        pos = p;
    }
    Ok(pos)
}

fn string(b: &[u8], mut pos: usize) -> Result<usize, String> {
    debug_assert_eq!(b[pos], b'"');
    pos += 1;
    while pos < b.len() {
        match b[pos] {
            b'"' => return Ok(pos + 1),
            b'\\' => {
                match b.get(pos + 1) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => pos += 2,
                    Some(b'u') => {
                        let hex = b
                            .get(pos + 2..pos + 6)
                            .ok_or_else(|| format!("short \\u escape at offset {pos}"))?;
                        if !hex.iter().all(|c| c.is_ascii_hexdigit()) {
                            return Err(format!("bad \\u escape at offset {pos}"));
                        }
                        pos += 6;
                    }
                    _ => return Err(format!("bad escape at offset {pos}")),
                };
            }
            c if c < 0x20 => return Err(format!("raw control byte in string at offset {pos}")),
            _ => pos += 1,
        }
    }
    Err("unterminated string".into())
}

fn object(b: &[u8], mut pos: usize, depth: usize) -> Result<usize, String> {
    debug_assert_eq!(b[pos], b'{');
    pos = skip_ws(b, pos + 1);
    if b.get(pos) == Some(&b'}') {
        return Ok(pos + 1);
    }
    loop {
        if b.get(pos) != Some(&b'"') {
            return Err(format!("expected object key at offset {pos}"));
        }
        pos = string(b, pos)?;
        pos = skip_ws(b, pos);
        if b.get(pos) != Some(&b':') {
            return Err(format!("expected ':' at offset {pos}"));
        }
        pos = skip_ws(b, pos + 1);
        pos = value(b, pos, depth)?;
        pos = skip_ws(b, pos);
        match b.get(pos) {
            Some(b',') => pos = skip_ws(b, pos + 1),
            Some(b'}') => return Ok(pos + 1),
            _ => return Err(format!("expected ',' or '}}' at offset {pos}")),
        }
    }
}

fn array(b: &[u8], mut pos: usize, depth: usize) -> Result<usize, String> {
    debug_assert_eq!(b[pos], b'[');
    pos = skip_ws(b, pos + 1);
    if b.get(pos) == Some(&b']') {
        return Ok(pos + 1);
    }
    loop {
        pos = value(b, pos, depth)?;
        pos = skip_ws(b, pos);
        match b.get(pos) {
            Some(b',') => pos = skip_ws(b, pos + 1),
            Some(b']') => return Ok(pos + 1),
            _ => return Err(format!("expected ',' or ']' at offset {pos}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::DropCause;
    use crate::span::{BatchSpan, JobSpan, Marker, RebuildSpan};
    use proptest::prelude::*;

    /// The `format!`-per-element renderer the one-pass writer replaced,
    /// kept as the byte-for-byte reference (the role `QueueBackend::Heap`
    /// plays for the timer wheel).
    mod oracle {
        use super::super::{ChromeOptions, RuntimeTrace, TraceEvent};

        fn us(ns: u64) -> String {
            format!("{}.{:03}", ns / 1000, ns % 1000)
        }

        fn esc(s: &str) -> String {
            let mut out = String::with_capacity(s.len());
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out
        }

        const PID_FABRIC: u32 = 1;
        const PID_ENGINE: u32 = 2;
        const PID_SCHED: u32 = 3;
        const PID_TENANTS: u32 = 4;

        pub fn export_chrome(trace: &RuntimeTrace, opts: &ChromeOptions) -> String {
            let mut evs: Vec<String> = Vec::new();
            for (pid, name) in [
                (PID_FABRIC, "fabric links"),
                (PID_ENGINE, "engine"),
                (PID_SCHED, "scheduler"),
                (PID_TENANTS, "tenants"),
            ] {
                evs.push(format!(
                    r#"{{"ph":"M","pid":{pid},"tid":0,"name":"process_name","args":{{"name":"{name}"}}}}"#
                ));
            }
            for (link, name) in opts.link_names.iter().enumerate() {
                evs.push(format!(
                    r#"{{"ph":"M","pid":{PID_FABRIC},"tid":{link},"name":"thread_name","args":{{"name":"{}"}}}}"#,
                    esc(name)
                ));
            }
            for (tenant, name) in opts.tenant_names.iter().enumerate() {
                evs.push(format!(
                    r#"{{"ph":"M","pid":{PID_TENANTS},"tid":{tenant},"name":"thread_name","args":{{"name":"{}"}}}}"#,
                    esc(name)
                ));
            }

            for ev in &trace.fabric {
                match *ev {
                    TraceEvent::Inject {
                        start_ns,
                        ser_ns,
                        link,
                        src,
                        bytes,
                    } => evs.push(format!(
                        r#"{{"ph":"X","pid":{PID_FABRIC},"tid":{link},"ts":{},"dur":{},"name":"inject r{src}","args":{{"bytes":{bytes}}}}}"#,
                        us(start_ns),
                        us(ser_ns)
                    )),
                    TraceEvent::Egress {
                        start_ns,
                        ser_ns,
                        link,
                        bytes,
                    } => evs.push(format!(
                        r#"{{"ph":"X","pid":{PID_FABRIC},"tid":{link},"ts":{},"dur":{},"name":"tx","args":{{"bytes":{bytes}}}}}"#,
                        us(start_ns),
                        us(ser_ns)
                    )),
                    TraceEvent::Deliver {
                        at_ns,
                        rank,
                        qp,
                        bytes,
                    } => evs.push(format!(
                        r#"{{"ph":"i","pid":{PID_ENGINE},"tid":{rank},"ts":{},"s":"t","name":"deliver","args":{{"qp":{qp},"bytes":{bytes}}}}}"#,
                        us(at_ns)
                    )),
                    TraceEvent::Drop { at_ns, link, cause } => evs.push(format!(
                        r#"{{"ph":"i","pid":{PID_FABRIC},"tid":{link},"ts":{},"s":"t","name":"drop:{}"}}"#,
                        us(at_ns),
                        cause.label()
                    )),
                    TraceEvent::Fault { at_ns, link, up } => evs.push(format!(
                        r#"{{"ph":"i","pid":{PID_FABRIC},"tid":{link},"ts":{},"s":"t","name":"{}"}}"#,
                        us(at_ns),
                        if up { "fault-up" } else { "fault-down" }
                    )),
                    TraceEvent::QueueDepth { at_ns, depth } => evs.push(format!(
                        r#"{{"ph":"C","pid":{PID_ENGINE},"tid":0,"ts":{},"name":"queue-depth","args":{{"depth":{depth}}}}}"#,
                        us(at_ns)
                    )),
                }
            }

            for b in &trace.batches {
                evs.push(format!(
                    r#"{{"ph":"X","pid":{PID_SCHED},"tid":{},"ts":{},"dur":{},"name":"batch {}","args":{{"jobs":{},"setup_ns":{}}}}}"#,
                    b.partition,
                    us(b.start_ns),
                    us(b.end_ns.saturating_sub(b.start_ns)),
                    b.batch,
                    b.jobs,
                    b.setup_ns
                ));
            }

            for j in &trace.jobs {
                evs.push(format!(
                    r#"{{"ph":"X","pid":{PID_TENANTS},"tid":{},"ts":{},"dur":{},"name":"job {}","args":{{"batch":{},"partition":{},"pool_hits":{},"pool_builds":{},"pool_rebuilds":{}}}}}"#,
                    j.tenant,
                    us(j.started_ns),
                    us(j.finished_ns.saturating_sub(j.started_ns)),
                    j.job,
                    j.batch,
                    j.partition,
                    j.pool_hits,
                    j.pool_builds,
                    j.pool_rebuilds
                ));
                // Flow arrow submit → dispatch: queueing made visible.
                evs.push(format!(
                    r#"{{"ph":"s","pid":{PID_TENANTS},"tid":{},"ts":{},"cat":"job","id":{},"name":"sojourn"}}"#,
                    j.tenant,
                    us(j.submitted_ns),
                    j.job
                ));
                evs.push(format!(
                    r#"{{"ph":"f","bp":"e","pid":{PID_TENANTS},"tid":{},"ts":{},"cat":"job","id":{},"name":"sojourn"}}"#,
                    j.tenant,
                    us(j.started_ns),
                    j.job
                ));
            }

            for m in &trace.markers {
                let tid = if m.tenant == u32::MAX { 0 } else { m.tenant };
                // Retry markers are recovery actions, not admission decisions.
                let name = if m.reason == "job-retry" {
                    "job-retry".to_string()
                } else {
                    format!("reject:{}", esc(m.reason))
                };
                evs.push(format!(
                    r#"{{"ph":"i","pid":{PID_TENANTS},"tid":{tid},"ts":{},"s":"t","name":"{name}"}}"#,
                    us(m.at_ns)
                ));
            }

            for r in &trace.rebuilds {
                evs.push(format!(
                    r#"{{"ph":"i","pid":{PID_SCHED},"tid":{},"ts":{},"s":"p","name":"sm-rebuild","args":{{"batch":{},"groups":{}}}}}"#,
                    r.partition,
                    us(r.at_ns),
                    r.batch,
                    r.groups
                ));
            }

            let mut out =
                String::with_capacity(evs.iter().map(|e| e.len() + 2).sum::<usize>() + 64);
            out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
            out.push_str(&evs.join(",\n"));
            out.push_str("\n]}\n");
            out
        }
    }

    fn sample_trace() -> RuntimeTrace {
        let mut tr = RuntimeTrace::from_fabric(
            vec![
                TraceEvent::Inject {
                    start_ns: 1000,
                    ser_ns: 512,
                    link: 0,
                    src: 3,
                    bytes: 4096,
                },
                TraceEvent::Egress {
                    start_ns: 1512,
                    ser_ns: 512,
                    link: 7,
                    bytes: 4096,
                },
                TraceEvent::Deliver {
                    at_ns: 2500,
                    rank: 5,
                    qp: 1,
                    bytes: 4096,
                },
                TraceEvent::Drop {
                    at_ns: 2600,
                    link: 7,
                    cause: DropCause::Rnr,
                },
                TraceEvent::Fault {
                    at_ns: 3000,
                    link: 7,
                    up: false,
                },
                TraceEvent::QueueDepth {
                    at_ns: 3100,
                    depth: 42,
                },
            ],
            2,
        );
        tr.batches.push(BatchSpan {
            batch: 0,
            partition: 1,
            jobs: 2,
            start_ns: 500,
            setup_ns: 200,
            end_ns: 4000,
        });
        tr.jobs.push(JobSpan {
            job: 0,
            tenant: 2,
            partition: 1,
            batch: 0,
            submitted_ns: 100,
            started_ns: 500,
            finished_ns: 3900,
            pool_hits: 1,
            pool_builds: 1,
            pool_rebuilds: 0,
        });
        tr.markers.push(Marker {
            at_ns: 4100,
            tenant: 0,
            reason: "throttled",
        });
        tr.markers.push(Marker {
            at_ns: 4200,
            tenant: 1,
            reason: "job-retry",
        });
        tr.rebuilds.push(RebuildSpan {
            at_ns: 4300,
            partition: 1,
            batch: 0,
            groups: 3,
        });
        tr
    }

    #[test]
    fn export_round_trips_through_validator() {
        let opts = ChromeOptions {
            link_names: vec!["h0.up".into()],
            tenant_names: vec!["t0".into(), "t1".into(), "t\"2\"".into()],
        };
        let doc = export_chrome(&sample_trace(), &opts);
        validate_json(&doc).expect("export must be valid JSON");
        assert!(doc.contains(r#""ts":1.000"#), "integer-µs inject ts");
        assert!(doc.contains("queue-depth"));
        assert!(doc.contains("reject:throttled"));
        assert!(doc.contains(r#""name":"job-retry""#), "retry marker");
        assert!(!doc.contains("reject:job-retry"), "retries are not rejects");
        assert!(doc.contains(r#""name":"sm-rebuild""#));
        assert!(doc.contains(r#""groups":3"#));
        assert!(doc.contains(r#"t\"2\""#), "names are escaped");
    }

    #[test]
    fn export_is_deterministic() {
        let opts = ChromeOptions::default();
        assert_eq!(
            export_chrome(&sample_trace(), &opts),
            export_chrome(&sample_trace(), &opts)
        );
    }

    #[test]
    fn microsecond_formatting_is_integer_math() {
        for (ns, text) in [
            (0, "0.000"),
            (999, "0.999"),
            (1000, "1.000"),
            (123_456, "123.456"),
            (1_000_000_007, "1000000.007"),
            (u64::MAX, "18446744073709551.615"),
        ] {
            let (mut doc, mut len) = (Doc::with_capacity(0), Len(0));
            doc.us(ns);
            len.us(ns);
            assert_eq!(doc.finish(), text.as_bytes());
            assert_eq!(len.0, text.len());
        }
    }

    #[test]
    fn integers_are_sized_and_written_at_every_digit_count_edge() {
        let powers = (0..20).map(|p| 10u64.pow(p));
        let bits = (0..64).map(|b| 1u64 << b);
        let edges = powers.chain(bits).flat_map(|v| [v - 1, v, v + 1]);
        for v in edges.chain([u64::MAX - 1, u64::MAX]) {
            let text = v.to_string();
            assert_eq!(decimal_digits(v), text.len(), "{v}");
            let mut doc = Doc::with_capacity(0);
            doc.num(v);
            assert_eq!(doc.finish(), text.as_bytes());
        }
    }

    #[test]
    fn empty_trace_matches_the_oracle() {
        let (trace, opts) = (RuntimeTrace::default(), ChromeOptions::default());
        let doc = export_chrome(&trace, &opts);
        assert_eq!(doc, oracle::export_chrome(&trace, &opts));
        validate_json(&doc).expect("export must be valid JSON");
    }

    /// Timestamps at the formatting edges, then anywhere.
    fn ts() -> impl Strategy<Value = u64> {
        (0u8..6, any::<u64>()).prop_map(|(pick, raw)| match pick {
            0 => 0,
            1 => 999,
            2 => 1000,
            3 => u64::MAX,
            4 => raw % 100_000_000,
            _ => raw,
        })
    }

    /// Ids at the edges (`u32::MAX` is also the unknown-tenant marker).
    fn id() -> impl Strategy<Value = u32> {
        (0u8..4, any::<u32>()).prop_map(|(pick, raw)| match pick {
            0 => 0,
            1 => u32::MAX,
            2 => raw % 64,
            _ => raw,
        })
    }

    /// A track-name piece longer than the writer's stack record, with
    /// nothing to escape: it goes to the document in one piece.
    const LONG_NAME: &str = concat!(
        "spine0.port17->leaf3.port2 (a track name that outgrows the record) ",
        "spine0.port18->leaf3.port3 (a track name that outgrows the record) ",
        "spine1.port17->leaf4.port2 (a track name that outgrows the record) ",
        "spine1.port18->leaf4.port3 (a track name that outgrows the record) ",
    );

    /// A reject reason longer than the writer's stack record, escaped
    /// every few dozen bytes, so the element fills its record mid-way.
    const LONG_REASON: &str = concat!(
        "admission refused: the \"tenant\" queue is full \\ backlog\n",
        "admission refused: the \"tenant\" queue is full \\ backlog\t",
        "admission refused: the \"tenant\" queue is full \\ backlog\r",
        "admission refused: the \"tenant\" queue is full \\ backlog\u{1}",
        "admission refused: the \"tenant\" queue is full \\ backlog é→",
        "admission refused: the \"tenant\" queue is full \\ backlog\u{1f}",
    );

    const _: () = assert!(LONG_NAME.len() > RECORD && LONG_REASON.len() > RECORD);

    /// Track names built from everything `esc` treats specially plus
    /// plain, multi-byte and DEL characters and one piece longer than
    /// the stack record; may be empty.
    fn name() -> impl Strategy<Value = String> {
        const PIECES: [&str; 13] = [
            "\"", "\\", "\n", "\r", "\t", "\u{1}", "\u{1f}", "\u{7f}", "h0.up", "é→", " ", "t",
            LONG_NAME,
        ];
        prop::collection::vec(0usize..PIECES.len(), 0..6)
            .prop_map(|picks| picks.into_iter().map(|p| PIECES[p]).collect())
    }

    fn fabric_event() -> impl Strategy<Value = TraceEvent> {
        (0u8..9, ts(), ts(), id(), id(), id()).prop_map(|(kind, t, ser_ns, a, b, c)| match kind {
            0 => TraceEvent::Inject {
                start_ns: t,
                ser_ns,
                link: a,
                src: b,
                bytes: c,
            },
            1 => TraceEvent::Egress {
                start_ns: t,
                ser_ns,
                link: a,
                bytes: c,
            },
            2 => TraceEvent::Deliver {
                at_ns: t,
                rank: a,
                qp: b,
                bytes: c,
            },
            3 => TraceEvent::Fault {
                at_ns: t,
                link: a,
                up: b % 2 == 0,
            },
            4 => TraceEvent::QueueDepth { at_ns: t, depth: a },
            cause => TraceEvent::Drop {
                at_ns: t,
                link: a,
                cause: [
                    DropCause::Corruption,
                    DropCause::FaultDown,
                    DropCause::Rnr,
                    DropCause::Forced,
                ][usize::from(cause - 5)],
            },
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The one-pass writer reproduces the `format!` renderer byte
        /// for byte, sizes its buffer exactly, and emits valid JSON —
        /// over every element kind, the formatting edges, names that
        /// need escaping and elements that outgrow the stack record.
        #[test]
        fn writer_matches_the_oracle(
            fabric in prop::collection::vec(fabric_event(), 0..24),
            batches in prop::collection::vec((ts(), ts(), ts(), id(), id()), 0..4),
            jobs in prop::collection::vec((ts(), ts(), ts(), id(), id(), id()), 0..4),
            markers in prop::collection::vec((ts(), id(), 0usize..5), 0..6),
            rebuilds in prop::collection::vec((ts(), ts(), id(), id()), 0..3),
            link_names in prop::collection::vec(name(), 0..4),
            tenant_names in prop::collection::vec(name(), 0..4),
        ) {
            let mut trace = RuntimeTrace::from_fabric(fabric, 0);
            // Independent start/end draws: `end < start` (a censored
            // span) must saturate to a zero duration, not wrap.
            trace.batches.extend(batches.into_iter().map(
                |(start_ns, end_ns, batch, partition, jobs)| BatchSpan {
                    batch,
                    partition,
                    jobs,
                    start_ns,
                    setup_ns: end_ns / 3,
                    end_ns,
                },
            ));
            trace.jobs.extend(jobs.into_iter().map(
                |(submitted_ns, started_ns, finished_ns, tenant, partition, pool)| JobSpan {
                    job: submitted_ns ^ finished_ns,
                    tenant,
                    partition,
                    batch: started_ns / 7,
                    submitted_ns,
                    started_ns,
                    finished_ns,
                    pool_hits: pool,
                    pool_builds: partition,
                    pool_rebuilds: tenant,
                },
            ));
            trace.markers.extend(markers.into_iter().map(|(at_ns, tenant, reason)| Marker {
                at_ns,
                tenant,
                reason: [
                    "throttled",
                    "queue-full",
                    "job-retry",
                    "odd \"reason\"\\\n\u{2}",
                    LONG_REASON,
                ][reason],
            }));
            trace.rebuilds.extend(rebuilds.into_iter().map(
                |(at_ns, batch, partition, groups)| RebuildSpan {
                    at_ns,
                    partition,
                    batch,
                    groups,
                },
            ));
            let opts = ChromeOptions {
                link_names,
                tenant_names,
            };
            let doc = export_chrome(&trace, &opts);
            prop_assert_eq!(&doc, &oracle::export_chrome(&trace, &opts));
            prop_assert_eq!(doc.capacity(), doc.len(), "buffer sized exactly, never regrown");
            validate_json(&doc).expect("export must be valid JSON");
        }
    }

    #[test]
    fn validator_accepts_json_shapes() {
        for ok in [
            "{}",
            "[]",
            r#"{"a":[1,2.5,-3e4,true,false,null,"s\"xA"]}"#,
            " { \"k\" : { } } ",
            "0",
            "-0",
            "0.5",
            "10",
            "[0,-0.0e+1,100]",
        ] {
            validate_json(ok).unwrap_or_else(|e| panic!("{ok:?} should parse: {e}"));
        }
    }

    #[test]
    fn validator_rejects_malformed_json() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\":1} extra",
            "{'a':1}",
            "[01x]",
            "[01]",
            "-012",
            "00",
            "-",
            "1.",
            "\"unterminated",
        ] {
            assert!(validate_json(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn validator_bounds_nesting_instead_of_overflowing_the_stack() {
        let nested = |n: usize| "[".repeat(n) + &"]".repeat(n);
        validate_json(&nested(MAX_DEPTH)).expect("the cap itself is allowed");
        let err = validate_json(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        // A million brackets on the default test-thread stack.
        assert!(validate_json(&nested(1_000_000)).is_err());
        assert!(validate_json(&"{\"k\":".repeat(1_000_000)).is_err());
    }
}
