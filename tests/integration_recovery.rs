//! Fault-tolerance integration: crash injection at various superstep
//! boundaries, across algorithms, always converging to the crash-free
//! fixpoint (paper §IV-G). Crashes are the chaos fault plan's simulated
//! ones (`FaultSpec::CrashAfterDispatch` / `CrashInCompute`); this test
//! target builds `gpsa-core` with its `chaos` feature (see
//! `crates/gpsa-cli/Cargo.toml`).

use std::sync::Arc;

use gpsa::fault::{FaultPlan, FaultSpec};
use gpsa::programs::{Bfs, ConnectedComponents, PageRank};
use gpsa::{Engine, EngineConfig, RunOutcome, Termination, ValueFile};
use gpsa_algorithms::reference;
use gpsa_graph::{generate, preprocess, EdgeList};
use std::path::PathBuf;

fn workdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("gpsa-rec-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn materialize(dir: &std::path::Path, el: &EdgeList) -> PathBuf {
    let p = dir.join("graph.gcsr");
    preprocess::edges_to_csr(el.clone(), &p, &preprocess::PreprocessOptions::default()).unwrap();
    p
}

fn with_crash(mut c: EngineConfig, crash: FaultSpec) -> EngineConfig {
    c.durable = true;
    c.fault_plan = Some(Arc::new(FaultPlan::new(0).with(crash)));
    c
}

fn crash_config(dir: &std::path::Path, at: u64) -> EngineConfig {
    with_crash(
        EngineConfig::small(dir),
        FaultSpec::CrashAfterDispatch { superstep: at },
    )
}

fn crash_compute_config(dir: &std::path::Path, at: u64) -> EngineConfig {
    with_crash(
        EngineConfig::small(dir),
        FaultSpec::CrashInCompute { superstep: at },
    )
}

fn resume_config(dir: &std::path::Path) -> EngineConfig {
    let mut c = EngineConfig::small(dir);
    c.resume = true;
    c
}

#[test]
fn cc_recovers_from_crashes_at_every_early_superstep() {
    let el = generate::symmetrize(&generate::rmat(
        300,
        1500,
        generate::RmatParams::default(),
        41,
    ));
    let expect = reference::connected_components(&el);
    for crash_at in [0u64, 1, 2, 3] {
        let dir = workdir(&format!("cc-{crash_at}"));
        let path = materialize(&dir, &el);
        let crashed = Engine::new(crash_config(&dir, crash_at))
            .run(&path, ConnectedComponents)
            .unwrap();
        assert_eq!(crashed.outcome, RunOutcome::Crashed, "crash at {crash_at}");

        let recovered = Engine::new(resume_config(&dir))
            .run(&path, ConnectedComponents)
            .unwrap();
        assert_eq!(recovered.outcome, RunOutcome::Completed);
        assert_eq!(recovered.values, expect, "crash at {crash_at}");
    }
}

#[test]
fn bfs_recovers_mid_traversal() {
    let el = generate::symmetrize(&generate::grid(12, 12));
    let expect = reference::bfs(&el, 0);
    let dir = workdir("bfs");
    let path = materialize(&dir, &el);
    let crashed = Engine::new(crash_config(&dir, 4))
        .run(&path, Bfs { root: 0 })
        .unwrap();
    assert_eq!(crashed.outcome, RunOutcome::Crashed);
    let recovered = Engine::new(resume_config(&dir))
        .run(&path, Bfs { root: 0 })
        .unwrap();
    assert_eq!(recovered.values, expect);
}

#[test]
fn pagerank_recovers_with_fixed_superstep_budget() {
    // A PR run crashed at superstep 3 of 8 must, after recovery, complete
    // the remaining supersteps and land on the 8-step power iteration.
    let el = generate::symmetrize(&generate::erdos_renyi(150, 900, 3));
    let dir = workdir("pr");
    let path = materialize(&dir, &el);
    let steps = 8u64;

    let mut c = crash_config(&dir, 3);
    c.termination = Termination::Supersteps(steps);
    let crashed = Engine::new(c).run(&path, PageRank::default()).unwrap();
    assert_eq!(crashed.outcome, RunOutcome::Crashed);

    let mut c = resume_config(&dir);
    c.termination = Termination::Supersteps(steps);
    let recovered = Engine::new(c).run(&path, PageRank::default()).unwrap();
    assert_eq!(recovered.outcome, RunOutcome::Completed);
    // 3 committed before the crash + the re-run remainder.
    assert_eq!(recovered.supersteps, steps - 3);

    let expect = reference::pagerank(&el, 0.85, steps as usize);
    let diff = reference::max_abs_diff(&recovered.values, &expect);
    assert!(diff < 1e-5, "recovered PR diverges: {diff}");
}

#[test]
fn cc_recovers_from_mid_compute_crashes() {
    // A mid-compute crash is messier than the post-dispatch one: the
    // update column holds partial folds from the computers that already
    // reported, and the dispatch column is fully invalidated. Recovery
    // must discard all of it and replay from the last commit.
    // Same graph as the post-dispatch test above: known to run well past
    // superstep 2, so every crash point actually fires.
    let el = generate::symmetrize(&generate::rmat(
        300,
        1500,
        generate::RmatParams::default(),
        41,
    ));
    let expect = reference::connected_components(&el);
    for crash_at in [0u64, 1, 2] {
        let dir = workdir(&format!("cc-mid-{crash_at}"));
        let path = materialize(&dir, &el);
        let crashed = Engine::new(crash_compute_config(&dir, crash_at))
            .run(&path, ConnectedComponents)
            .unwrap();
        assert_eq!(
            crashed.outcome,
            RunOutcome::Crashed,
            "mid-compute crash at {crash_at}"
        );

        let recovered = Engine::new(resume_config(&dir))
            .run(&path, ConnectedComponents)
            .unwrap();
        assert_eq!(recovered.outcome, RunOutcome::Completed);
        assert_eq!(recovered.values, expect, "mid-compute crash at {crash_at}");
    }
}

#[test]
fn mid_compute_crash_leaves_header_stale_by_one() {
    let el = generate::cycle(50);
    let dir = workdir("mid-stale");
    let path = materialize(&dir, &el);
    let crashed = Engine::new(crash_compute_config(&dir, 2))
        .run(&path, ConnectedComponents)
        .unwrap();
    assert_eq!(crashed.outcome, RunOutcome::Crashed);
    let vf =
        ValueFile::open(Engine::new(EngineConfig::small(&dir)).value_file_path(&path)).unwrap();
    // Superstep 2 died before its commit, so the header still names 1.
    assert_eq!(vf.header().committed_superstep, Some(1));
}

#[test]
fn value_file_header_reflects_commits() {
    let el = generate::cycle(50);
    let dir = workdir("header");
    let path = materialize(&dir, &el);
    let mut c = EngineConfig::small(&dir);
    c.durable = true;
    c.termination = Termination::Supersteps(4);
    let engine = Engine::new(c);
    engine.run(&path, ConnectedComponents).unwrap();

    let vf = ValueFile::open(engine.value_file_path(&path)).unwrap();
    let h = vf.header();
    assert_eq!(h.n_vertices, 50);
    assert_eq!(h.committed_superstep, Some(3), "supersteps 0..=3 committed");
    // 4 supersteps: columns flip each commit, so the next dispatch column
    // is back to 0.
    assert_eq!(h.next_dispatch_col, 0);
}

#[test]
fn crashed_value_file_header_is_stale_by_one() {
    let el = generate::cycle(50);
    let dir = workdir("stale");
    let path = materialize(&dir, &el);
    let crashed = Engine::new(crash_config(&dir, 2))
        .run(&path, ConnectedComponents)
        .unwrap();
    assert_eq!(crashed.outcome, RunOutcome::Crashed);
    let vf =
        ValueFile::open(Engine::new(EngineConfig::small(&dir)).value_file_path(&path)).unwrap();
    // Superstep 2 crashed before commit, so the header still names 1.
    assert_eq!(vf.header().committed_superstep, Some(1));
}

#[test]
fn double_crash_then_recover() {
    // Crash, resume-and-crash-again later, resume to completion.
    let el = generate::symmetrize(&generate::rmat(
        200,
        1000,
        generate::RmatParams::default(),
        55,
    ));
    let expect = reference::connected_components(&el);
    let dir = workdir("double");
    let path = materialize(&dir, &el);

    let crashed = Engine::new(crash_config(&dir, 1))
        .run(&path, ConnectedComponents)
        .unwrap();
    assert_eq!(crashed.outcome, RunOutcome::Crashed);

    let c = with_crash(
        resume_config(&dir),
        FaultSpec::CrashAfterDispatch { superstep: 3 },
    );
    let crashed_again = Engine::new(c).run(&path, ConnectedComponents).unwrap();
    assert_eq!(crashed_again.outcome, RunOutcome::Crashed);

    let recovered = Engine::new(resume_config(&dir))
        .run(&path, ConnectedComponents)
        .unwrap();
    assert_eq!(recovered.values, expect);
}
