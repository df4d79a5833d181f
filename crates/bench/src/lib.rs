//! # mcag-bench — the evaluation harness
//!
//! One generator per table/figure of the paper's evaluation section.
//! Each returns a [`data::FigData`] (column headers + rows + notes) that
//! the `figures` binary prints (and optionally dumps as CSV).
//! `tests/figures_smoke.rs` checks every table's shape. Wall-clock speed
//! claims belong to the gated benchmark in `benchmark/`, not here.
//!
//! | id     | paper artifact                                              |
//! |--------|-------------------------------------------------------------|
//! | fig2   | theoretical traffic savings on the 1024-node fat-tree        |
//! | fig3   | node-boundary data movement of {AG, RS} pairs                |
//! | fig5   | single CPU core vs one multithreaded DPA core                |
//! | fig7   | PSN bits vs receive buffer / bitmap footprint                |
//! | fig10  | protocol critical-path breakdown                             |
//! | fig11  | 188-node throughput: mcast vs P2P Broadcast/Allgather        |
//! | fig12  | switch-counter traffic reduction (18 switches)               |
//! | table1 | DPA single-thread datapath metrics                           |
//! | fig13  | DPA thread scaling, absolute throughput                      |
//! | fig14  | DPA thread scaling, fraction of 200 Gbit/s                   |
//! | fig15  | UC multi-packet chunk sizes                                  |
//! | fig16  | 64 B chunk rate toward 1.6 Tbit/s                            |
//! | appb   | measured {AG,RS} concurrent speedup vs `2 − 2/P`             |
//!
//! Beyond the paper, six studies write machine-readable baselines
//! through one harness ([`study`]): each is one `fn(smoke: bool) ->
//! FigData`, the id with a `_smoke` suffix runs its bounded CI variant
//! (baseline `BENCH_<stem>_smoke.json`, gitignored), and every named gate
//! is asserted before the document is rendered.
//!
//! | study id         | baseline              | gates                                    |
//! |------------------|-----------------------|------------------------------------------|
//! | simcore          | `BENCH_simcore.json`  | `results_identical`, `engines_identical` |
//! | faultfigs        | `BENCH_faults.json`   | `results_identical`                      |
//! | loadfigs         | `BENCH_load.json`     | `results_identical`; knee, pipe, shed    |
//! | tracefigs        | `BENCH_trace.json`    | `identical` (runtime), `json_round_trip` |
//! | recoveryfigs     | `BENCH_recovery.json` | `results_identical`, `reactive_p999_beats_oblivious` |
//! | backendfigs      | `BENCH_backends.json` | `results_identical`, `dpa_table1_identical`, `sharp_agrs_busbw_advantage` |
//!
//! `results_identical` is [`study::sweep`]'s check: the sweep runs at
//! jobs = 1 and 4 and the digests must match. Every baseline holds
//! simulated-time integers and digests only, so it regenerates byte for
//! byte on any host. Generators never write files: the baseline rides
//! on [`FigData::baseline`] and the `figures` binary writes it.
//!
//! The paper-figure and ablation generators take a `jobs` worker count
//! and fan their independent simulations out through
//! [`mcag_exec::par_map`]; outputs are slot-ordered, so tables are
//! byte-identical for every `jobs` value. [`generate`] runs serially;
//! the `figures` binary passes `--jobs` through [`generate_with`].

#![warn(missing_docs)]

pub mod ablations;
pub mod backendfigs;
pub mod data;
pub mod dpafigs;
pub mod faultfigs;
pub mod loadfigs;
pub mod modelfigs;
pub mod netfigs;
pub mod recoveryfigs;
pub mod runtimefigs;
pub mod simcore;
pub mod study;
pub mod tracefigs;

pub use data::FigData;

/// All generator ids in paper order.
pub const ALL_FIGS: &[&str] = &[
    "fig2", "fig3", "fig5", "fig7", "fig10", "fig11", "fig12", "table1", "fig13", "fig14", "fig15",
    "fig16", "appb",
];

/// Ablation studies beyond the paper's figures: design-choice sweeps
/// (chains, subgroups, cutoff, receive-queue depth, communicators,
/// multi-tenant runtime). Run with `figures --ablations` or by id.
pub const ABLATIONS: &[&str] = &[
    "ablation_chains",
    "ablation_subgroups",
    "ablation_cutoff",
    "ablation_rq_depth",
    "ablation_multicomm",
    "runtime_multitenant",
];

/// The studies by id (see the table above); `<id>_smoke` runs one in
/// smoke mode.
pub const STUDIES: &[(&str, study::Study)] = &[
    ("simcore", simcore::simcore),
    ("faultfigs", faultfigs::faultfigs),
    ("loadfigs", loadfigs::loadfigs),
    ("tracefigs", tracefigs::tracefigs),
    ("recoveryfigs", recoveryfigs::recoveryfigs),
    ("backendfigs", backendfigs::backendfigs),
];

/// Run one generator by id, serially (`jobs = 1`).
pub fn generate(id: &str) -> FigData {
    generate_with(id, 1)
}

/// Run one generator by id with up to `jobs` simulations in flight.
/// Sweep outputs are slot-ordered by [`mcag_exec::par_map`], so every
/// table is byte-identical to the serial run.
/// Studies run their own fixed passes; `<study>_smoke` runs the same
/// study in smoke mode.
pub fn generate_with(id: &str, jobs: usize) -> FigData {
    let (stem, smoke) = id.strip_suffix("_smoke").map_or((id, false), |s| (s, true));
    if let Some((_, run)) = STUDIES.iter().find(|(s, _)| *s == stem) {
        return run(smoke);
    }
    match id {
        "fig2" => modelfigs::fig2(),
        "fig3" => modelfigs::fig3(),
        "fig5" => dpafigs::fig5(jobs),
        "fig7" => modelfigs::fig7(),
        "fig10" => netfigs::fig10(jobs),
        "fig11" => netfigs::fig11(jobs),
        "fig12" => netfigs::fig12(jobs),
        "table1" => dpafigs::table1(),
        "fig13" => dpafigs::fig13(jobs),
        "fig14" => dpafigs::fig14(jobs),
        "fig15" => dpafigs::fig15(jobs),
        "fig16" => dpafigs::fig16(jobs),
        "appb" => netfigs::appb(jobs),
        "ablation_chains" => ablations::ablation_chains(jobs),
        "ablation_subgroups" => ablations::ablation_subgroups(jobs),
        "ablation_cutoff" => ablations::ablation_cutoff(jobs),
        "ablation_rq_depth" => ablations::ablation_rq_depth(jobs),
        "ablation_multicomm" => ablations::ablation_multicomm(jobs),
        "runtime_multitenant" => runtimefigs::runtime_multitenant(jobs),
        other => {
            let studies: Vec<&str> = STUDIES.iter().map(|(s, _)| *s).collect();
            panic!("unknown figure id {other:?} (known: {ALL_FIGS:?} + {ABLATIONS:?} + {studies:?}, each optionally _smoke)")
        }
    }
}
