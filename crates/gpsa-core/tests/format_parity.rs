//! v1/v2 edge-format parity: the delta-varint compressed format must be a
//! pure representation change. For every program, an engine run over a
//! v2 graph must be *bit-identical* to the same run over the v1
//! word-array encoding of the same edge list — and both must match the
//! sequential-phase oracle — on inputs whose runs take both sparse
//! (bitmap-driven seek) and dense (sweep) supersteps. The formats may
//! differ only in the I/O profile: fewer bytes under v2, and a different
//! logical word count (v2 records carry no separator/degree words).

use std::path::{Path, PathBuf};

use gpsa::programs::{Bfs, ConnectedComponents, Sssp};
use gpsa::{Engine, EngineConfig, RunReport, SyncEngine, Termination};
use gpsa_graph::{generate, preprocess, DiskCsr, EdgeList, VertexId};

/// The density at and above which an interval is swept dense.
const SPARSE_DENSITY: f64 = 0.05;

fn workdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("gpsa-fmt-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn quiesce() -> Termination {
    Termination::Quiescence {
        max_supersteps: 2000,
    }
}

/// Materialize `el` in both formats; returns `(v1_path, v2_path)`.
fn both_formats(tag: &str, el: &EdgeList) -> (PathBuf, PathBuf) {
    let dir = workdir(tag);
    let v1 = dir.join("graph-v1.gcsr");
    let v2 = dir.join("graph-v2.gcsr");
    preprocess::edges_to_csr(
        el.clone(),
        &v1,
        &preprocess::PreprocessOptions::uncompressed(),
    )
    .unwrap();
    preprocess::edges_to_csr(el.clone(), &v2, &preprocess::PreprocessOptions::default()).unwrap();
    (v1, v2)
}

/// `(words, bytes)` one dense sweep of the whole CSR at `path` reads.
fn sweep(path: &Path) -> (u64, u64) {
    let csr = DiskCsr::open(path).unwrap();
    let all = 0..csr.n_vertices() as VertexId;
    (csr.words_in_range(all.clone()), csr.bytes_in_range(all))
}

fn run_path<P: gpsa::VertexProgram>(tag: &str, path: &Path, program: P) -> RunReport<P::Value> {
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

fn seeded_graphs() -> Vec<(String, EdgeList)> {
    let mut graphs: Vec<(String, EdgeList)> = [5u64, 29]
        .iter()
        .map(|&seed| {
            let el = generate::symmetrize(&generate::rmat(
                200,
                1000,
                generate::RmatParams::default(),
                seed,
            ));
            (format!("rmat{seed}"), el)
        })
        .collect();
    // The grid drives long sparse-frontier runs — the regime where the
    // seek path decodes individual varint records.
    graphs.push(("grid".to_string(), generate::grid(12, 13)));
    graphs
}

#[test]
fn v2_matches_v1_and_the_oracle_across_modes_and_programs() {
    for (tag, el) in seeded_graphs() {
        let (v1, v2) = both_formats(&tag, &el);
        let oracle_bfs = SyncEngine::new(quiesce()).run(&el, Bfs { root: 0 }).values;
        let oracle_cc = SyncEngine::new(quiesce())
            .run(&el, ConnectedComponents)
            .values;
        let oracle_sssp = SyncEngine::new(quiesce()).run(&el, Sssp { root: 0 }).values;
        for (fmt, path) in [("v1", &v1), ("v2", &v2)] {
            let bfs = run_path(&format!("bfs-{fmt}-{tag}"), path, Bfs { root: 0 });
            assert_eq!(bfs.values, oracle_bfs, "bfs {fmt} {tag}");
            let cc = run_path(&format!("cc-{fmt}-{tag}"), path, ConnectedComponents);
            assert_eq!(cc.values, oracle_cc, "cc {fmt} {tag}");
            let sssp = run_path(&format!("sssp-{fmt}-{tag}"), path, Sssp { root: 0 });
            assert_eq!(sssp.values, oracle_sssp, "sssp {fmt} {tag}");
            for (what, r) in [("bfs", &bfs), ("cc", &cc), ("sssp", &sssp)] {
                assert_took_both_paths(r, &format!("{what} {fmt} {tag}"));
            }
        }
    }
}

#[test]
fn each_format_conserves_its_interval_volume_under_sparse_dispatch() {
    // Within one format, a run's streamed + skipped words must add back
    // up to the dense sweep's volume every superstep — the conservation
    // law that makes the I/O counters trustworthy. It must hold per
    // format even though the two formats count different logical words
    // per record.
    let el = generate::grid(30, 31);
    let (v1, v2) = both_formats("conserve", &el);
    for (fmt, path) in [("v1", &v1), ("v2", &v2)] {
        let (words, bytes) = sweep(path);
        let r = run_path(&format!("cons-{fmt}"), path, Bfs { root: 0 });
        let dense_words = r.supersteps * words;
        assert!(r.edges_skipped > 0, "{fmt}: no sparse superstep");
        assert!(
            r.edges_streamed < dense_words,
            "{fmt}: streamed {} vs dense {dense_words}",
            r.edges_streamed,
        );
        assert_eq!(
            r.edges_streamed + r.edges_skipped,
            dense_words,
            "{fmt}: streamed + skipped must cover the dense interval volume"
        );
        // Bytes move with words: a sparse run cannot touch more bytes
        // than the dense sweep of the same file.
        assert!(
            r.edge_bytes_streamed < r.supersteps * bytes,
            "{fmt}: sparse bytes {} vs dense bytes {}",
            r.edge_bytes_streamed,
            r.supersteps * bytes
        );
    }
}

#[test]
fn v2_streams_fewer_bytes_than_v1_for_the_same_run() {
    // The compressed format's whole point: identical supersteps, identical
    // values, strictly fewer bytes through the dispatchers. The skewed
    // R-MAT degree distribution gives varint runs their advantage. CC
    // starts from a full frontier (dense sweeps), BFS from one vertex
    // (sparse seeks).
    let el = generate::symmetrize(&generate::rmat(
        300,
        2400,
        generate::RmatParams::default(),
        97,
    ));
    let (v1, v2) = both_formats("bytes", &el);
    let check = |what: &str, r1: &RunReport<u32>, r2: &RunReport<u32>| {
        assert_eq!(r1.values, r2.values, "{what}");
        assert_eq!(r1.supersteps, r2.supersteps, "{what}");
        assert!(r1.edge_bytes_streamed > 0, "{what}");
        assert!(
            r2.edge_bytes_streamed < r1.edge_bytes_streamed,
            "{what}: v2 streamed {} bytes, v1 {}",
            r2.edge_bytes_streamed,
            r1.edge_bytes_streamed
        );
        // v1 words are 4 bytes each, exactly.
        assert_eq!(r1.edge_bytes_streamed, 4 * r1.edges_streamed, "{what}");
        // v2 encodes the same records in fewer bytes than a word layout
        // would take (mean varint target < 4 bytes on small-id graphs).
        assert!(
            r2.edge_bytes_streamed < 4 * r2.edges_streamed,
            "{what}: v2 bytes {} not below 4x its {} logical words",
            r2.edge_bytes_streamed,
            r2.edges_streamed
        );
    };
    let cc = (
        run_path("bytes1-cc", &v1, ConnectedComponents),
        run_path("bytes2-cc", &v2, ConnectedComponents),
    );
    check("cc", &cc.0, &cc.1);
    let bfs = (
        run_path("bytes1-bfs", &v1, Bfs { root: 0 }),
        run_path("bytes2-bfs", &v2, Bfs { root: 0 }),
    );
    check("bfs", &bfs.0, &bfs.1);
    assert!(bfs.1.edges_skipped > 0, "bfs never went sparse");
}

#[test]
fn strided_assignments_read_v2_records_correctly() {
    // Strided dispatch exercises `record_into` (point lookups into the
    // byte-offset index) rather than the streaming cursor.
    let el = generate::symmetrize(&generate::rmat(
        150,
        800,
        generate::RmatParams::default(),
        53,
    ));
    let (v1, v2) = both_formats("strided", &el);
    let oracle = SyncEngine::new(quiesce())
        .run(&el, ConnectedComponents)
        .values;
    for (fmt, path) in [("v1", &v1), ("v2", &v2)] {
        let mut config =
            EngineConfig::small(workdir(&format!("strided-run-{fmt}"))).with_termination(quiesce());
        config.intervals = gpsa::IntervalStrategy::Strided;
        let report = Engine::new(config).run(path, ConnectedComponents).unwrap();
        assert_eq!(report.values, oracle, "{fmt}");
        assert_eq!(report.edges_skipped, 0, "{fmt}: strided reports no skips");
    }
}
