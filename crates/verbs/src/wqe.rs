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
    /// Incoming RDMA Write-with-immediate (the `DPA_CQE_RESPONDER_WRITE_W_IMM`
    /// case in Appendix C, Listing 1).
    RecvRdmaWriteImm,
    /// Local send completed (last WQE of a batch when send batching is on).
    Send,
    /// Local RDMA Read completed; fetched data is in the local region.
    RdmaReadDone,
    /// Local RDMA Write completed.
    RdmaWriteDone,
}

/// Completion status. Real NICs only report errors on reliable transports;
/// unreliable drops are silent — the simulators keep these variants for
/// test observability, and protocol code must *not* rely on seeing them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CompletionStatus {
    /// Operation completed successfully.
    Success,
    /// Receiver-not-ready: no pre-posted receive slot was available.
    RnrDrop,
    /// Packet lost in the fabric (link-layer corruption).
    FabricDrop,
    /// Work request flushed (QP destroyed mid-operation).
    Flushed,
}

/// Completion queue entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Cqe {
    /// What completed.
    pub opcode: CqeOpcode,
    /// Outcome.
    pub status: CompletionStatus,
    /// The local QP this completion belongs to.
    pub qp: QpNum,
    /// Immediate data carried by the packet (PSN lives here).
    pub imm: Option<ImmData>,
    /// Payload bytes received/sent.
    pub byte_len: usize,
    /// User-chosen work-request identifier (e.g. staging slot index).
    pub wr_id: u64,
    /// Source rank for receive completions (from the UD address vector).
    pub src: Option<Rank>,
}

impl Cqe {
    /// True if this CQE is a successful inbound data completion.
    #[inline]
    pub fn is_recv_success(&self) -> bool {
        self.status == CompletionStatus::Success
            && matches!(self.opcode, CqeOpcode::Recv | CqeOpcode::RecvRdmaWriteImm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(opcode: CqeOpcode, status: CompletionStatus) -> Cqe {
        Cqe {
            opcode,
            status,
            qp: QpNum(0),
            imm: None,
            byte_len: 0,
            wr_id: 0,
            src: None,
        }
    }

    #[test]
    fn recv_success_predicate() {
        assert!(mk(CqeOpcode::Recv, CompletionStatus::Success).is_recv_success());
        assert!(mk(CqeOpcode::RecvRdmaWriteImm, CompletionStatus::Success).is_recv_success());
        assert!(!mk(CqeOpcode::Send, CompletionStatus::Success).is_recv_success());
        assert!(!mk(CqeOpcode::Recv, CompletionStatus::FabricDrop).is_recv_success());
        assert!(!mk(CqeOpcode::Recv, CompletionStatus::RnrDrop).is_recv_success());
    }
}
