//! A shared analytic model of deep-pipelined spatial datapaths.
//!
//! FPGA SmartNIC lanes and switch aggregation units share one shape:
//! no instruction stream, a fixed-function pipeline that accepts one
//! bus-width word per cycle, a fill latency, and several parallel
//! lanes chunks round-robin across. The initiation interval — not an
//! IPC — sets throughput, which is why these devices hold a high
//! *fixed* rate where the DPA's barrel threads bend sub-linear.

use mcag_dpa::{ArrivalModel, DatapathMetrics};

/// Fixed-function pipeline: `lanes` parallel datapaths, each moving
/// `bytes_per_cycle` per cycle at `freq_ghz`, with `fill_cycles` of
/// latency through the stages and `overhead_cycles` of per-chunk
/// header/CQE work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PipelineModel {
    /// Parallel lanes (chunk `i` goes to lane `i mod lanes`).
    pub(crate) lanes: u32,
    /// Bus width: payload bytes accepted per cycle per lane.
    pub(crate) bytes_per_cycle: u32,
    /// Pipeline clock in GHz.
    pub(crate) freq_ghz: f64,
    /// Stages between ingress and CQE visibility (fill latency).
    pub(crate) fill_cycles: u64,
    /// Fixed per-chunk cycles (header parse, descriptor, CQE emit).
    pub(crate) overhead_cycles: u64,
}

impl PipelineModel {
    /// Initiation interval of one chunk on one lane, in cycles, for
    /// `passes` bus traversals (UC placement is one pass; a UD
    /// staging→user copy is a second).
    fn chunk_cycles(&self, passes: u32, chunk_bytes: usize) -> u64 {
        let words = (chunk_bytes as u64).div_ceil(self.bytes_per_cycle as u64);
        self.overhead_cycles + passes as u64 * words
    }

    /// Run `chunks` chunks of `chunk_bytes` across `threads` lanes
    /// (clamped to the model's lane count) under `arrival`, returning
    /// Table-I-style metrics. Deterministic pure f64, like
    /// [`mcag_dpa::run_datapath`]; a spatial pipeline retires no
    /// instructions, so `instr_per_cqe` and `ipc` report 0.
    pub(crate) fn run(
        &self,
        passes: u32,
        threads: u32,
        chunk_bytes: usize,
        chunks: u64,
        arrival: ArrivalModel,
    ) -> DatapathMetrics {
        assert!(threads >= 1, "need at least one lane");
        assert!(chunks >= 1);
        let lanes = threads.clamp(1, self.lanes) as usize;
        let cyc_ns = 1.0 / self.freq_ghz;
        let occ_cycles = self.chunk_cycles(passes, chunk_bytes);
        let occ_ns = occ_cycles as f64 * cyc_ns;
        let interval_ns = match arrival {
            ArrivalModel::Saturated => 0.0,
            ArrivalModel::LinkRate { gbps, header_bytes } => {
                (chunk_bytes + header_bytes) as f64 * 8.0 / gbps
            }
        };
        let mut lane_free = vec![0.0f64; lanes];
        let mut wall = 0.0f64;
        for i in 0..chunks {
            let lane = (i as usize) % lanes;
            let start = lane_free[lane].max(i as f64 * interval_ns);
            let done = start + occ_ns;
            lane_free[lane] = done;
            wall = wall.max(done);
        }
        // The last chunk still drains through the remaining stages.
        wall += self.fill_cycles as f64 * cyc_ns;
        let total_bytes = chunks as f64 * chunk_bytes as f64;
        DatapathMetrics {
            chunks,
            chunk_bytes,
            threads: lanes as u32,
            wall_ns: wall,
            goodput_gbps: total_bytes * 8.0 / wall,
            gib_per_s: total_bytes / (wall * 1e-9) / (1u64 << 30) as f64,
            chunks_per_sec: chunks as f64 / (wall * 1e-9),
            instr_per_cqe: 0.0,
            cycles_per_cqe: occ_cycles as f64,
            ipc: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> PipelineModel {
        PipelineModel {
            lanes: 4,
            bytes_per_cycle: 64,
            freq_ghz: 0.35,
            fill_cycles: 512,
            overhead_cycles: 16,
        }
    }

    #[test]
    fn saturated_throughput_scales_with_lanes() {
        let m = model();
        let one = m.run(1, 1, 4096, 4_000, ArrivalModel::Saturated);
        let four = m.run(1, 4, 4096, 4_000, ArrivalModel::Saturated);
        assert!(four.goodput_gbps > 3.5 * one.goodput_gbps);
        // II-bound sanity: one lane moves 64 B/cycle at 350 MHz, and
        // 16 overhead cycles on 64 payload words cap efficiency at
        // 64/80 = 0.8 of the bus bound.
        let bound = 64.0 * 0.35 * 8.0; // Gbit/s
        assert!(one.goodput_gbps < 0.8 * bound);
        assert!(one.goodput_gbps > 0.75 * bound);
    }

    #[test]
    fn link_rate_caps_the_pipeline() {
        let m = model();
        let rate = ArrivalModel::LinkRate {
            gbps: 100.0,
            header_bytes: 64,
        };
        let out = m.run(1, 4, 4096, 4_000, rate);
        assert!(out.goodput_gbps <= 100.0);
        assert!(out.goodput_gbps > 90.0);
    }

    #[test]
    fn deterministic() {
        let m = model();
        let a = m.run(2, 3, 1024, 2_000, ArrivalModel::Saturated);
        let b = m.run(2, 3, 1024, 2_000, ArrivalModel::Saturated);
        assert_eq!(a, b);
    }
}
