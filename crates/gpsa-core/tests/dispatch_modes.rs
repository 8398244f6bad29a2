//! Frontier-aware selective dispatch parity: Dense, Sparse and Auto
//! dispatch modes must be *bit-identical* to each other and agree with
//! the sequential-phase oracle, across a seeded matrix of random graphs
//! and programs — including an `always_dispatch` program (PageRank),
//! whose sparse request must quietly fall back to a dense sweep.
//!
//! Why bit-identity is the right bar: the sparse path changes *which CSR
//! words are read*, never *which vertices dispatch*. The active bitmap is
//! a superset of the flag-clear set and the dispatcher keeps the per-slot
//! flag check, so both paths emit the same ascending vertex sequence and
//! every downstream fold sees the same message order.

use gpsa::programs::{Bfs, ConnectedComponents, PageRank, Sssp};
use gpsa::{
    DispatchMode, Engine, EngineConfig, IntervalStrategy, RunReport, SyncEngine, Termination,
};
use gpsa_graph::{generate, EdgeList};
use std::path::PathBuf;

const MODES: [DispatchMode; 3] = [
    DispatchMode::Dense,
    DispatchMode::Sparse,
    DispatchMode::Auto,
];

fn workdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("gpsa-modes-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn quiesce() -> Termination {
    Termination::Quiescence {
        max_supersteps: 2000,
    }
}

fn run_mode<P: gpsa::VertexProgram>(
    tag: &str,
    el: &EdgeList,
    program: P,
    term: Termination,
    mode: DispatchMode,
) -> RunReport<P::Value> {
    let config = EngineConfig::small(workdir(tag))
        .with_termination(term)
        .with_dispatch_mode(mode);
    Engine::new(config)
        .run_edge_list(el.clone(), tag, program)
        .unwrap()
}

fn seeded_graphs() -> Vec<(String, EdgeList)> {
    let mut graphs: Vec<(String, EdgeList)> = [7u64, 23, 61]
        .iter()
        .map(|&seed| {
            let el = generate::symmetrize(&generate::rmat(
                220,
                1100,
                generate::RmatParams::default(),
                seed,
            ));
            (format!("rmat{seed}"), el)
        })
        .collect();
    // A grid keeps BFS frontiers narrow for many supersteps — the shape
    // sparse dispatch exists for.
    graphs.push(("grid".to_string(), generate::grid(12, 13)));
    graphs
}

#[test]
fn sparse_and_auto_match_dense_and_the_oracle_bit_for_bit() {
    for (tag, el) in seeded_graphs() {
        let oracle_bfs = SyncEngine::new(quiesce()).run(&el, Bfs { root: 0 }).values;
        let oracle_cc = SyncEngine::new(quiesce())
            .run(&el, ConnectedComponents)
            .values;
        let oracle_sssp = SyncEngine::new(quiesce()).run(&el, Sssp { root: 0 }).values;
        for mode in MODES {
            let bfs = run_mode(
                &format!("bfs-{tag}-{mode:?}"),
                &el,
                Bfs { root: 0 },
                quiesce(),
                mode,
            );
            assert_eq!(bfs.values, oracle_bfs, "bfs {tag} {mode:?}");

            let cc = run_mode(
                &format!("cc-{tag}-{mode:?}"),
                &el,
                ConnectedComponents,
                quiesce(),
                mode,
            );
            assert_eq!(cc.values, oracle_cc, "cc {tag} {mode:?}");

            let sssp = run_mode(
                &format!("sssp-{tag}-{mode:?}"),
                &el,
                Sssp { root: 0 },
                quiesce(),
                mode,
            );
            assert_eq!(sssp.values, oracle_sssp, "sssp {tag} {mode:?}");

            // The report must carry one density sample per superstep.
            assert_eq!(
                bfs.frontier_density.len(),
                bfs.supersteps as usize,
                "bfs {tag} {mode:?}: density samples"
            );
        }
    }
}

#[test]
fn always_dispatch_program_is_mode_invariant_bit_for_bit() {
    // PageRank declares always_dispatch: its frontier is every vertex, so
    // Sparse must fall back to the dense sweep rather than consult the
    // bitmap. One dispatcher + one computer pins the f32 fold order, so
    // the three modes must agree on exact bit patterns.
    let el = generate::symmetrize(&generate::erdos_renyi(180, 900, 17));
    let term = Termination::Supersteps(5);
    let runs: Vec<RunReport<f32>> = MODES
        .iter()
        .map(|&mode| {
            let config = EngineConfig::small(workdir(&format!("pr-{mode:?}")))
                .with_termination(term)
                .with_actors(1, 1)
                .with_dispatch_mode(mode);
            Engine::new(config)
                .run_edge_list(el.clone(), "pr", PageRank::default())
                .unwrap()
        })
        .collect();
    let dense_bits: Vec<u32> = runs[0].values.iter().map(|v| v.to_bits()).collect();
    for (run, mode) in runs.iter().zip(MODES).skip(1) {
        let bits: Vec<u32> = run.values.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, dense_bits, "{mode:?} diverged from Dense");
        // Fallback means the I/O profile is dense too: nothing skipped.
        assert_eq!(run.edges_skipped, 0, "{mode:?} skipped edges");
        assert_eq!(
            run.edges_streamed, runs[0].edges_streamed,
            "{mode:?} streamed a different volume than Dense"
        );
    }
}

#[test]
fn sparse_mode_streams_fewer_words_and_conserves_the_interval() {
    // BFS on a grid: the frontier is a thin diagonal wave, so a sparse
    // dispatcher should seek past almost every record. Dense reads the
    // whole interval every superstep; sparse must read strictly less, and
    // what it reads plus what it skips must add back up to exactly the
    // dense volume (same supersteps, same intervals).
    let el = generate::grid(40, 41);
    let dense = run_mode(
        "io-dense",
        &el,
        Bfs { root: 0 },
        quiesce(),
        DispatchMode::Dense,
    );
    let sparse = run_mode(
        "io-sparse",
        &el,
        Bfs { root: 0 },
        quiesce(),
        DispatchMode::Sparse,
    );
    assert_eq!(sparse.values, dense.values);
    assert_eq!(sparse.supersteps, dense.supersteps);
    assert_eq!(dense.edges_skipped, 0, "dense sweeps skip nothing");
    assert!(
        sparse.edges_streamed < dense.edges_streamed,
        "sparse streamed {} vs dense {}",
        sparse.edges_streamed,
        dense.edges_streamed
    );
    assert!(sparse.edges_skipped > 0);
    assert_eq!(
        sparse.edges_streamed + sparse.edges_skipped,
        dense.edges_streamed,
        "streamed + skipped must cover the dense interval volume"
    );
}

#[test]
fn sub_one_percent_frontiers_stream_ten_times_fewer_words() {
    // The headline claim of selective dispatch, as a counted fact: BFS
    // across a 138x138 grid keeps a wavefront frontier whose mean density
    // is under 1%, and there a seek-based pass must read at least 10x
    // fewer CSR words than the dense sweep, with bit-identical values.
    let el = generate::grid(138, 138);
    let dense = run_mode(
        "wave-dense",
        &el,
        Bfs { root: 0 },
        quiesce(),
        DispatchMode::Dense,
    );
    let density = dense.mean_frontier_density();
    assert!(density < 0.01, "mean frontier {density} is not sub-1%");
    for mode in [DispatchMode::Sparse, DispatchMode::Auto] {
        let r = run_mode(
            &format!("wave-{mode:?}"),
            &el,
            Bfs { root: 0 },
            quiesce(),
            mode,
        );
        assert_eq!(r.values, dense.values, "{mode:?} diverged from dense");
        assert!(
            r.edges_streamed * 10 <= dense.edges_streamed,
            "{mode:?} streamed {} words vs dense {}: under 10x fewer",
            r.edges_streamed,
            dense.edges_streamed
        );
    }
}

#[test]
fn strided_assignments_fall_back_to_dense_under_every_mode() {
    // Strided intervals interleave vertices from the whole id space; the
    // seek cursor's sequential-window optimization does not apply, so a
    // sparse request must degrade to the strided dense walk — and still
    // agree with the oracle.
    let el = generate::symmetrize(&generate::rmat(
        200,
        1000,
        generate::RmatParams::default(),
        41,
    ));
    let oracle = SyncEngine::new(quiesce())
        .run(&el, ConnectedComponents)
        .values;
    for mode in MODES {
        let mut config = EngineConfig::small(workdir(&format!("strided-{mode:?}")))
            .with_termination(quiesce())
            .with_dispatch_mode(mode);
        config.intervals = IntervalStrategy::Strided;
        let report = Engine::new(config)
            .run_edge_list(el.clone(), "strided", ConnectedComponents)
            .unwrap();
        assert_eq!(report.values, oracle, "strided {mode:?}");
        assert_eq!(report.edges_skipped, 0, "strided {mode:?} reported skips");
    }
}

#[test]
fn auto_threshold_extremes_pin_the_mode_choice() {
    let el = generate::grid(30, 31);
    // Threshold 0: no frontier is ever below it — Auto must behave
    // exactly like Dense, including the I/O profile.
    let pinned_dense = {
        let config = EngineConfig::small(workdir("auto-0"))
            .with_termination(quiesce())
            .with_dispatch_mode(DispatchMode::Auto)
            .with_sparse_density_threshold(0.0);
        Engine::new(config)
            .run_edge_list(el.clone(), "auto0", Bfs { root: 0 })
            .unwrap()
    };
    assert_eq!(pinned_dense.edges_skipped, 0);
    // Threshold 1: every frontier qualifies — Auto must skip words like
    // Sparse does on this wavefront workload.
    let pinned_sparse = {
        let config = EngineConfig::small(workdir("auto-1"))
            .with_termination(quiesce())
            .with_dispatch_mode(DispatchMode::Auto)
            .with_sparse_density_threshold(1.0);
        Engine::new(config)
            .run_edge_list(el.clone(), "auto1", Bfs { root: 0 })
            .unwrap()
    };
    assert!(pinned_sparse.edges_skipped > 0);
    assert_eq!(pinned_dense.values, pinned_sparse.values);
}
