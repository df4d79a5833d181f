//! # mcag-trace — the flight recorder
//!
//! Time-resolved observability for the DES fabric and the multi-tenant
//! runtime: every other crate reports end-of-run aggregates
//! (`TrafficReport`, `RuntimeReport`); this one records *when* things
//! happened on the simulated clock, so a p999 stall or an idle multicast
//! tree can be seen rather than inferred — the time-resolved view behind
//! the paper's Fig. 10–12 arguments about link occupancy and pipeline
//! overlap.
//!
//! The crate sits **below** the simulator in the dependency graph: events
//! carry raw link/rank/tenant ids (`u32`) and simulated nanoseconds
//! (`u64`), never simulator types, so `mcag-simnet`, `mcag-core`,
//! `mcag-runtime`, and `mcag-bench` can all depend on it without cycles.
//!
//! ## Pieces
//!
//! * [`TraceSpec`] — plain-data configuration (ring capacity, queue-depth
//!   sample period) that lives on `FabricConfig`/`RuntimeConfig`; configs
//!   keep their `Clone + PartialEq + Serialize` derives because the live
//!   recorder never touches them.
//! * [`TraceSink`] — the flight recorder proper: a bounded ring buffer of
//!   [`TraceEvent`]s with a drop counter. Memory is flat at
//!   `capacity × size_of::<TraceEvent>()`; overflow overwrites the oldest
//!   events (a flight recorder keeps the most recent window) and counts
//!   what it lost. Recording never perturbs simulation results.
//! * [`RuntimeTrace`] — merged per-run document: fabric events shifted
//!   onto the runtime's virtual clock plus batch/job spans and
//!   admission markers, committed in deterministic order so the trace is
//!   byte-identical at any worker count. Each batch's events arrive as a
//!   [`TraceRun`], sorted once on the batch's clock and shared with
//!   replays of the batch; [`merge_runs`] orders the committed runs in
//!   one pass.
//! * [`LinkTimeline`] — per-link busy fraction over fixed windows
//!   (integer permille — byte-stable across hosts), the compact form the
//!   bench baselines digest.
//! * [`chrome`] — Chrome trace-event JSON export (opens directly in
//!   Perfetto: links as tracks, jobs as flows, faults as instants) and a
//!   dependency-free JSON validator for round-trip tests.
//!
//! ## Determinism contract
//!
//! Everything recorded is simulated time or integer ids; exporters use
//! integer-only formatting. Two runs with the same seeds produce
//! byte-identical traces on any host, and the runtime merge commits
//! worker results in virtual-time order, so traces are byte-identical
//! for every `jobs` value.

#![warn(missing_docs)]

pub mod chrome;
pub mod event;
pub mod sink;
pub mod span;
pub mod timeline;

pub use chrome::{export_chrome, validate_json, ChromeOptions};
pub use event::{DropCause, TraceEvent};
pub use sink::{TraceSink, TraceSpec};
pub use span::{merge_runs, BatchSpan, JobSpan, Marker, RebuildSpan, RuntimeTrace, TraceRun};
pub use timeline::LinkTimeline;
