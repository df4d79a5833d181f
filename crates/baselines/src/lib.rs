//! # mcag-baselines — point-to-point collective algorithms
//!
//! The unicast baselines the paper compares against (Section VI-B): the
//! bandwidth-optimized P2P algorithms of the UCC/UCX stack — the ring
//! Allgather, k-nomial (binomial at `k = 2`), binary-tree,
//! pipelined-chain and scatter-allgather Broadcasts, and the ring
//! Reduce-Scatter.
//!
//! Algorithms are expressed as per-rank [`schedule::Schedule`]s (steps of
//! sends and receives, annotated with the logical blocks they carry) and
//! executed on the discrete-event fabric by [`executor::ScheduleApp`].
//! The block annotations let tests verify the *semantics* of each
//! algorithm (every rank ends holding every block) independently of the
//! timing model.

#![warn(missing_docs)]

pub mod executor;
pub mod schedule;

pub use executor::{run_p2p, run_p2p_concurrent, P2POutcome};
pub use schedule::{
    binary_tree_broadcast, knomial_broadcast, pipelined_chain_broadcast, ring_allgather,
    ring_reduce_scatter, scatter_allgather_broadcast, validate_allgather, validate_bcast_blocks,
    validate_broadcast, RecvOp, Schedule, SendOp, Step,
};
