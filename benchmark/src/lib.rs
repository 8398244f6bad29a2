//! The repository's benchmark: five named workloads, end-to-end metrics
//! anchored on the COST of a tuned single thread, and a per-layer budget
//! measured from outside the crates.
//!
//! `BENCHMARK.json` at the repository root is the contract; `README.md`
//! beside this crate explains the workloads, the metrics and how they
//! interact. The crates are called only through [`surface`] (workloads)
//! and `src/bin/cells.rs` (deep-API micro cells).

#![warn(missing_docs)]

pub mod agree;
pub mod fingerprint;
pub mod harness;
pub mod inputs;
pub mod json;
pub mod layers;
pub mod stats;
pub mod surface;
pub mod trace;
pub mod workloads;

/// One workload of `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadDef {
    /// Name; later issues cite it.
    pub name: &'static str,
    /// Why it exists, in one line.
    pub why: &'static str,
    /// `benchmark.op_tail_ms` is reported at this percentile when at least ten
    /// samples lie beyond it (see [`stats::tail_percentile`]).
    pub tail_percentile: u32,
}

/// The five workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [WorkloadDef; 5] = [
    WorkloadDef {
        name: "pr_dense",
        why: "PageRank x5 on R-MAT via Engine::run: every edge read, decoded, emitted, sent and folded each superstep; the barrier does almost nothing",
        tail_percentile: 80,
    },
    WorkloadDef {
        name: "bfs_grid",
        why: "BFS to quiescence on a grid: ~600 supersteps with a frontier under 1 %, so per-superstep fixed cost is the time and decode speed must not matter",
        tail_percentile: 90,
    },
    WorkloadDef {
        name: "serve_mix",
        why: "Seeded BFS/CC/SSSP/PageRank jobs, 30 % repeats, 25 % streamed, 2 closed-loop clients on a durable server: admission, journal, queue, codec around short runs",
        tail_percentile: 95,
    },
    WorkloadDef {
        name: "live_cc",
        why: "Append a 256-edge batch (fsync), apply to the overlay, re-converge CC incrementally; no compaction, so the merged-cursor path gets steadily more work",
        tail_percentile: 95,
    },
    WorkloadDef {
        name: "dist_pr",
        why: "The pr_dense graph and program via Cluster::run, 2 nodes x 1 worker: the only run of the distributed actors and the cluster barrier commit",
        tail_percentile: 75,
    },
];

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Run one workload as `ctx` asks.
pub fn run(ctx: &harness::Ctx) -> harness::Res<harness::Outcome> {
    match ctx.workload.name {
        "pr_dense" => harness::run::<workloads::PrDense>(ctx),
        "bfs_grid" => harness::run::<workloads::BfsGrid>(ctx),
        "serve_mix" => harness::run::<workloads::ServeMix>(ctx),
        "live_cc" => harness::run::<workloads::LiveCc>(ctx),
        "dist_pr" => harness::run::<workloads::DistPr>(ctx),
        other => Err(format!("unknown workload {other}")),
    }
}
