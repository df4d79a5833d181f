//! # mcag-runtime — the multi-tenant collective runtime
//!
//! The paper's protocol leans on a scarce hardware resource: switch
//! multicast groups, programmed by the subnet manager at a cost of
//! hundreds of microseconds each and stored in a bounded table. The
//! one-shot drivers in `mcag-core` build a fresh world per call; a
//! production service instead keeps a **long-lived runtime** that many
//! logical tenants submit Broadcast / Allgather / AG+RS jobs to. This
//! crate provides that layer:
//!
//! * [`McastGroupPool`] — the bounded group table with LRU reuse,
//!   pinning for in-flight batches, and build/rebuild costs charged on
//!   the simulated clock;
//! * [`JobQueue`] + [`Runtime`] — admission control at submit time
//!   (queue depth, per-tenant quota, message size, group demand) and
//!   fair round-robin batching, at most one job per tenant per batch;
//! * [`RuntimeReport`] — per-job lifecycle records, per-tenant latency
//!   and queueing aggregates, offered-load and reject attribution,
//!   per-partition occupancy, pool hit rates, and sustained Tbit/s;
//! * [`arrivals`] — seeded open-loop workload generators (Poisson,
//!   modulated-rate ramps, trace replay) feeding [`Runtime::submit_at`]
//!   on the virtual clock, so latency-vs-offered-load curves can be
//!   measured instead of replayed.
//!
//! Batches run over the real `mcag-core` protocol state machines on one
//! shared `mcag-simnet` fabric per batch, so tenants contend for NIC
//! injection bandwidth and fabric links exactly as concurrent
//! communicators do in Section V-C of the paper. Everything is
//! deterministic: identical submission sequences produce identical
//! reports.
//!
//! ```
//! use mcag_runtime::{JobKind, Runtime, RuntimeConfig};
//! use mcag_simnet::Topology;
//! use mcag_verbs::LinkRate;
//!
//! let topo = Topology::single_switch(4, LinkRate::CX3_56G, 100);
//! let mut rt = Runtime::new(topo, RuntimeConfig::default());
//! let tenant = rt.register_tenant("trainer-a");
//! rt.submit(tenant, JobKind::Allgather, 32 << 10).unwrap();
//! let report = rt.run_open_loop();
//! assert_eq!(report.completed_jobs(), 1);
//! assert!(report.makespan_ns > 0);
//! ```

#![warn(missing_docs)]

pub mod arrivals;
pub mod job;
pub mod pool;
pub mod sched;
pub mod stats;

pub use arrivals::{
    merge_arrivals, nccl_style_trace, Arrival, OpMix, RatePhase, RateProcess, Workload,
};
pub use job::{JobId, JobKind, JobQueue, JobSpec, RejectReason, TenantId};
pub use mcag_trace::{BatchSpan, JobSpan, Marker, RebuildSpan, RuntimeTrace, TraceSpec};
pub use pool::{AcquireOutcome, GroupKey, McastGroupPool, PoolConfig, PoolStats};
pub use sched::{MemoStats, ReactivePolicy, Runtime, RuntimeConfig};
pub use stats::{JobRecord, PartitionStats, RejectCounts, RetryStats, RuntimeReport, TenantStats};
