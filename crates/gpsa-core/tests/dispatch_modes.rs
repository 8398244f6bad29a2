//! Frontier-aware selective dispatch parity. Each dispatcher picks, per
//! superstep, a dense sweep of its interval or sparse bitmap-driven seeks
//! (sparse when fewer than 5% of its vertices are active). Every run here
//! must take both kinds of superstep and stay *bit-identical* to the
//! sequential-phase oracle, across a seeded matrix of random graphs and
//! programs; an `always_dispatch` program must sweep dense every
//! superstep, whatever its frontier.
//!
//! Why bit-identity is the right bar: the sparse path changes *which CSR
//! words are read*, never *which vertices dispatch*. The active bitmap is
//! a superset of the flag-clear set and the dispatcher keeps the per-slot
//! flag check, so both paths emit the same ascending vertex sequence and
//! every downstream fold sees the same message order.

use gpsa::programs::{Bfs, ConnectedComponents, Sssp};
use gpsa::{
    Engine, EngineConfig, GraphMeta, IntervalStrategy, RunReport, SyncEngine, Termination,
    VertexProgram,
};
use gpsa_graph::{generate, preprocess, DiskCsr, EdgeList, VertexId};
use std::path::{Path, PathBuf};

/// The density at and above which an interval is swept dense.
const SPARSE_DENSITY: f64 = 0.05;

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

/// Write `el` as a CSR under `tag`; returns its path and the CSR words
/// one dense sweep of the whole graph reads.
fn materialize(tag: &str, el: &EdgeList) -> (PathBuf, u64) {
    let path = workdir(tag).join("graph.gcsr");
    preprocess::edges_to_csr(el.clone(), &path, &preprocess::PreprocessOptions::default()).unwrap();
    let csr = DiskCsr::open(&path).unwrap();
    let sweep = csr.words_in_range(0..csr.n_vertices() as VertexId);
    (path, sweep)
}

fn run<P: VertexProgram>(tag: &str, path: &Path, program: P) -> RunReport<P::Value> {
    let config = EngineConfig::small(workdir(tag)).with_termination(quiesce());
    Engine::new(config).run(path, program).unwrap()
}

/// Assert the run swept some interval dense (a superstep whose frontier
/// was at least [`SPARSE_DENSITY`] of the graph leaves at least one
/// interval at that density) and seeked sparse in another (words skipped).
fn assert_took_both_paths<V>(r: &RunReport<V>, what: &str) {
    assert!(r.edges_skipped > 0, "{what}: no sparse superstep");
    assert!(
        r.frontier_density.iter().any(|&d| d >= SPARSE_DENSITY),
        "{what}: no dense superstep in {:?}",
        r.frontier_density
    );
}

/// `P` with `always_dispatch` set: every vertex dispatches every
/// superstep, so every superstep is a dense sweep whatever the frontier
/// holds. For the monotone min-fold programs here it is the dense
/// reference run: a re-sent message never lowers a value, so it reaches
/// the same values in the same supersteps.
struct AlwaysDispatch<P>(P);

impl<P: VertexProgram> VertexProgram for AlwaysDispatch<P> {
    type Value = P::Value;
    type MsgVal = P::MsgVal;
    fn init(&self, v: VertexId, meta: &GraphMeta) -> (P::Value, bool) {
        self.0.init(v, meta)
    }
    fn gen_msg(
        &self,
        src: VertexId,
        value: P::Value,
        d: u32,
        meta: &GraphMeta,
    ) -> Option<P::MsgVal> {
        self.0.gen_msg(src, value, d, meta)
    }
    fn compute(
        &self,
        v: VertexId,
        acc: Option<P::Value>,
        basis: P::Value,
        msg: P::MsgVal,
        meta: &GraphMeta,
    ) -> P::Value {
        self.0.compute(v, acc, basis, msg, meta)
    }
    fn changed(&self, basis: P::Value, new: P::Value) -> bool {
        self.0.changed(basis, new)
    }
    fn freshest(&self, dispatch_copy: P::Value, update_copy: P::Value) -> P::Value {
        self.0.freshest(dispatch_copy, update_copy)
    }
    fn always_dispatch(&self) -> bool {
        true
    }
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
        let (path, sweep) = materialize(&tag, &el);
        let oracle_bfs = SyncEngine::new(quiesce()).run(&el, Bfs { root: 0 }).values;
        let oracle_cc = SyncEngine::new(quiesce())
            .run(&el, ConnectedComponents)
            .values;
        let oracle_sssp = SyncEngine::new(quiesce()).run(&el, Sssp { root: 0 }).values;

        let bfs = run(&format!("bfs-{tag}"), &path, Bfs { root: 0 });
        assert_eq!(bfs.values, oracle_bfs, "bfs {tag}");
        let cc = run(&format!("cc-{tag}"), &path, ConnectedComponents);
        assert_eq!(cc.values, oracle_cc, "cc {tag}");
        let sssp = run(&format!("sssp-{tag}"), &path, Sssp { root: 0 });
        assert_eq!(sssp.values, oracle_sssp, "sssp {tag}");

        for (what, r) in [("bfs", &bfs), ("cc", &cc), ("sssp", &sssp)] {
            let what = format!("{what} {tag}");
            assert_took_both_paths(r, &what);
            // The report carries one density sample per superstep, and
            // every superstep reads or skips each interval word once.
            assert_eq!(r.frontier_density.len(), r.supersteps as usize, "{what}");
            assert_eq!(
                r.edges_streamed + r.edges_skipped,
                r.supersteps * sweep,
                "{what}: streamed + skipped must cover every superstep's sweep"
            );
        }
    }
}

#[test]
fn always_dispatch_program_is_mode_invariant_bit_for_bit() {
    // BFS across a grid keeps its frontier under 5%, so the plain program
    // seeks sparse; the same program with `always_dispatch` must ignore
    // the bitmap and sweep dense every superstep — and reach the same
    // values in the same supersteps.
    let el = generate::grid(30, 31);
    let (path, sweep) = materialize("always", &el);
    let mixed = run("always-mixed", &path, Bfs { root: 0 });
    let dense = run("always-dense", &path, AlwaysDispatch(Bfs { root: 0 }));
    assert!(mixed.edges_skipped > 0, "plain BFS never went sparse");
    assert!(
        dense.frontier_density.iter().all(|&d| d < SPARSE_DENSITY),
        "the frontier must be sparse for the fallback to mean anything: {:?}",
        dense.frontier_density
    );
    assert_eq!(dense.values, mixed.values);
    assert_eq!(dense.supersteps, mixed.supersteps);
    assert_eq!(dense.edges_skipped, 0, "always_dispatch skipped words");
    assert_eq!(dense.edges_streamed, dense.supersteps * sweep);
}

#[test]
fn sparse_mode_streams_fewer_words_and_conserves_the_interval() {
    // BFS on a grid: the frontier is a thin diagonal wave, so a sparse
    // dispatcher should seek past almost every record. A dense run reads
    // the whole interval every superstep; the engine's run must read
    // strictly less, and what it reads plus what it skips must add back
    // up to exactly the dense volume (same supersteps, same intervals).
    let el = generate::grid(40, 41);
    let (path, _) = materialize("io", &el);
    let dense = run("io-dense", &path, AlwaysDispatch(Bfs { root: 0 }));
    let sparse = run("io-sparse", &path, Bfs { root: 0 });
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
    // is under 1%, and there the seek-based pass must read at least 10x
    // fewer CSR words than the dense sweep, with bit-identical values.
    let el = generate::grid(138, 138);
    let (path, sweep) = materialize("wave", &el);
    let r = run("wave", &path, Bfs { root: 0 });
    let density = r.mean_frontier_density();
    assert!(density < 0.01, "mean frontier {density} is not sub-1%");
    let oracle = SyncEngine::new(quiesce()).run(&el, Bfs { root: 0 }).values;
    assert_eq!(r.values, oracle, "diverged from the oracle");
    let dense_words = r.supersteps * sweep;
    assert!(
        r.edges_streamed * 10 <= dense_words,
        "streamed {} words vs dense {dense_words}: under 10x fewer",
        r.edges_streamed,
    );
}

#[test]
fn strided_assignments_fall_back_to_dense_under_every_mode() {
    // Strided intervals interleave vertices from the whole id space; the
    // seek cursor's sequential-window optimization does not apply, so a
    // sub-5% frontier must still take the strided dense walk — and agree
    // with the oracle.
    let el = generate::symmetrize(&generate::rmat(
        200,
        1000,
        generate::RmatParams::default(),
        41,
    ));
    let oracle = SyncEngine::new(quiesce()).run(&el, Bfs { root: 0 }).values;
    let mut config = EngineConfig::small(workdir("strided")).with_termination(quiesce());
    config.intervals = IntervalStrategy::Strided;
    let report = Engine::new(config)
        .run_edge_list(el.clone(), "strided", Bfs { root: 0 })
        .unwrap();
    assert_eq!(report.values, oracle, "strided");
    assert!(
        report.frontier_density.iter().any(|&d| d < SPARSE_DENSITY),
        "no sparse frontier: {:?}",
        report.frontier_density
    );
    assert_eq!(report.edges_skipped, 0, "strided reported skips");
}
