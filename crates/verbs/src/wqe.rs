//! Completions.
//!
//! These mirror the Verbs completion-queue-entry structure closely enough that the DPA kernel
//! code in the paper's Appendix C maps one-to-one onto our simulated
//! handlers (`flexio_dev_cqe_get_opcode`, `cqe_get_imm_data`, ...).

use crate::imm::ImmData;
use crate::types::{QpNum, Rank};
use serde::{Deserialize, Serialize};

/// Completion opcode, matching the subset of `ibv_wc_opcode` /
/// `flexio_dev_cqe_get_opcode` values the protocol dispatches on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CqeOpcode {
    /// Incoming two-sided message landed in a pre-posted receive slot.
    Recv,
    /// Local RDMA Read completed; fetched data is in the local region.
    RdmaReadDone,
}

/// Completion queue entry. Every entry reports a success: real NICs
/// report errors only on reliable transports and unreliable drops are
/// silent, so the protocol learns of a loss only through its chunk
/// bitmaps and the cutoff timer, never from a completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Cqe {
    /// What completed.
    pub opcode: CqeOpcode,
    /// The local QP this completion belongs to.
    pub qp: QpNum,
    /// Immediate data carried by the packet (PSN lives here).
    pub imm: Option<ImmData>,
    /// Payload bytes received/sent.
    pub byte_len: usize,
    /// User-chosen work-request identifier (e.g. staging slot index).
    pub wr_id: u64,
    /// The rank whose packet surfaced this completion: the sender of a
    /// receive (from the UD address vector), the responder of a read.
    pub src: Rank,
}
