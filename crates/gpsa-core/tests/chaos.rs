//! Seeded chaos runs (`--features chaos`): scripted fault plans inject
//! actor panics, msync failures and torn commit headers into real engine
//! runs, and every run must still land on final values **bit-identical**
//! to a fault-free run of the same configuration — the paper's §IV-G
//! recovery claim, tested end to end instead of trusted. Simulated
//! crashes (`FaultSpec::CrashAfterDispatch` / `CrashInCompute`) are the
//! exception: they end the run as `RunOutcome::Crashed`, and a resumed run
//! must then finish on the fault-free values.
//!
//! Determinism ground rules (see also `FaultPlan`): plans fire each point
//! at most once, so a plan of `n` points costs at most `n` in-process
//! recovery attempts; the retry budget is sized accordingly. PageRank is
//! run with one dispatcher and one computer because its f32 fold order is
//! part of the bit pattern; BFS and CC min-folds are exact under any
//! actor layout.

#![cfg(feature = "chaos")]

use std::path::PathBuf;
use std::sync::Arc;

use gpsa::fault::{FaultPlan, FaultSpec};
use gpsa::programs::{Bfs, ConnectedComponents, PageRank};
use gpsa::{Engine, EngineConfig, RunOutcome, Termination, ValueFile};
use gpsa_graph::{generate, preprocess, EdgeList};

fn workdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("gpsa-chaos-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn materialize(dir: &std::path::Path, el: &EdgeList) -> PathBuf {
    let p = dir.join("graph.gcsr");
    preprocess::edges_to_csr(el.clone(), &p, &preprocess::PreprocessOptions::default()).unwrap();
    p
}

/// Durable config with a retry budget sized to the plan: each injection
/// point fires at most once, so `n_points` bounds the failed attempts.
fn chaos_config(dir: &std::path::Path, plan: &FaultPlan) -> EngineConfig {
    let mut c = EngineConfig::small(dir);
    c.durable = true;
    c.max_superstep_retries = plan.n_points() as u32 + 2;
    c
}

fn fault_free_config(dir: &std::path::Path) -> EngineConfig {
    let mut c = EngineConfig::small(dir);
    c.durable = true;
    c
}

fn cc_graph(seed: u64) -> EdgeList {
    generate::symmetrize(&generate::rmat(
        250,
        1200,
        generate::RmatParams::default(),
        seed,
    ))
}

#[test]
fn cc_is_bit_identical_across_a_seed_matrix() {
    let el = cc_graph(90);
    let baseline = {
        let dir = workdir("cc-base");
        let path = materialize(&dir, &el);
        Engine::new(fault_free_config(&dir))
            .run(&path, ConnectedComponents)
            .unwrap()
            .values
    };
    for seed in [11u64, 29, 47] {
        let plan = Arc::new(FaultPlan::scripted(seed, 4, 4));
        let dir = workdir(&format!("cc-{seed}"));
        let path = materialize(&dir, &el);
        let mut c = chaos_config(&dir, &plan);
        c.fault_plan = Some(plan);
        let report = Engine::new(c).run(&path, ConnectedComponents).unwrap();
        assert_eq!(report.outcome, RunOutcome::Completed, "seed {seed}");
        assert_eq!(report.values, baseline, "seed {seed} diverged");
    }
}

#[test]
fn bfs_is_bit_identical_across_a_seed_matrix() {
    let el = generate::symmetrize(&generate::grid(14, 14));
    let baseline = {
        let dir = workdir("bfs-base");
        let path = materialize(&dir, &el);
        Engine::new(fault_free_config(&dir))
            .run(&path, Bfs { root: 0 })
            .unwrap()
            .values
    };
    for seed in [5u64, 17] {
        let plan = Arc::new(FaultPlan::scripted(seed, 4, 6));
        let dir = workdir(&format!("bfs-{seed}"));
        let path = materialize(&dir, &el);
        let mut c = chaos_config(&dir, &plan);
        c.fault_plan = Some(plan);
        let report = Engine::new(c).run(&path, Bfs { root: 0 }).unwrap();
        assert_eq!(report.outcome, RunOutcome::Completed, "seed {seed}");
        assert_eq!(report.values, baseline, "seed {seed} diverged");
    }
}

#[test]
fn pagerank_is_bit_identical_across_a_seed_matrix() {
    // One dispatcher, one computer: the f32 fold order is fixed, so a
    // replayed superstep reproduces the exact bit pattern of the
    // original — the strongest form of the recovery claim.
    let el = cc_graph(91);
    let steps = 6u64;
    let baseline: Vec<u32> = {
        let dir = workdir("pr-base");
        let path = materialize(&dir, &el);
        let c = fault_free_config(&dir)
            .with_actors(1, 1)
            .with_termination(Termination::Supersteps(steps));
        let r = Engine::new(c).run(&path, PageRank::default()).unwrap();
        r.values.iter().map(|v| v.to_bits()).collect()
    };
    for seed in [3u64, 13] {
        let plan = Arc::new(FaultPlan::scripted(seed, 3, steps));
        let dir = workdir(&format!("pr-{seed}"));
        let path = materialize(&dir, &el);
        let mut c = chaos_config(&dir, &plan)
            .with_actors(1, 1)
            .with_termination(Termination::Supersteps(steps));
        c.fault_plan = Some(plan);
        let report = Engine::new(c).run(&path, PageRank::default()).unwrap();
        assert_eq!(report.outcome, RunOutcome::Completed, "seed {seed}");
        let bits: Vec<u32> = report.values.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, baseline, "seed {seed}: ranks not bit-identical");
    }
}

#[test]
fn every_actor_role_panic_is_survived() {
    // One run, every panic flavor: a dispatcher mid-chunk, a computer
    // mid-fold, a computer at its flush barrier, the manager at a
    // superstep kickoff.
    let el = cc_graph(92);
    let baseline = {
        let dir = workdir("roles-base");
        let path = materialize(&dir, &el);
        Engine::new(fault_free_config(&dir))
            .run(&path, ConnectedComponents)
            .unwrap()
            .values
    };
    let plan = Arc::new(
        FaultPlan::new(0)
            .with(FaultSpec::DispatcherPanic {
                superstep: 0,
                after_messages: 64,
            })
            .with(FaultSpec::ComputerPanic { after_messages: 32 })
            .with(FaultSpec::ComputerFlushPanic { superstep: 2 })
            .with(FaultSpec::ManagerPanic { superstep: 3 }),
    );
    let dir = workdir("roles");
    let path = materialize(&dir, &el);
    let mut c = chaos_config(&dir, &plan);
    c.fault_plan = Some(plan);
    let report = Engine::new(c).run(&path, ConnectedComponents).unwrap();
    assert_eq!(report.outcome, RunOutcome::Completed);
    assert_eq!(report.values, baseline);
    assert!(
        report.retry_attempts >= 1,
        "at least one injection must have fired"
    );
}

#[test]
fn sparse_dispatch_survives_mid_superstep_recovery() {
    // The active-vertex bitmap is in-memory only; recovery rebuilds it
    // from the recovered column (fill the good column, clear the other).
    // If the rebuild under-filled it, a sparse dispatcher would silently
    // skip live vertices and the final values would diverge from the
    // fault-free baseline — so bit-identity here is exactly the claim
    // that the bitmap is restored consistently with the recovered column.
    //
    // A 64x8 grid keeps BFS's wavefront at most 8 vertices wide, under
    // 5% of either dispatcher's ~256-vertex interval, so every superstep
    // of the fault-free schedule — each faulted superstep's first attempt
    // included — is dispatched sparse. (A replay is dense: recovery makes
    // every vertex of the surviving column active.)
    let el = generate::symmetrize(&generate::grid(64, 8));
    let baseline = {
        let dir = workdir("sparse-base");
        let path = materialize(&dir, &el);
        let report = Engine::new(fault_free_config(&dir))
            .run(&path, Bfs { root: 0 })
            .unwrap();
        assert!(
            report.frontier_density.iter().all(|&d| d <= 8.0 / 512.0),
            "frontier wider than the wave: {:?}",
            report.frontier_density
        );
        report.values
    };
    for seed in [7u64, 31] {
        let plan = Arc::new(FaultPlan::scripted(seed, 4, 6));
        let dir = workdir(&format!("sparse-{seed}"));
        let path = materialize(&dir, &el);
        let mut c = chaos_config(&dir, &plan);
        c.fault_plan = Some(plan);
        let report = Engine::new(c).run(&path, Bfs { root: 0 }).unwrap();
        assert_eq!(report.outcome, RunOutcome::Completed, "seed {seed}");
        assert_eq!(
            report.values, baseline,
            "seed {seed}: sparse recovery diverged"
        );
        assert!(report.retry_attempts >= 1, "seed {seed}: no fault fired");
        assert!(report.edges_skipped > 0, "seed {seed}: no sparse superstep");
    }
    // Same plan shape under a mid-compute torn commit: the replayed
    // superstep dispatches from a conservatively refilled bitmap, which
    // must only ever widen the frontier, never narrow it.
    let plan = Arc::new(FaultPlan::new(0).with(FaultSpec::TornCommit { superstep: 1 }));
    let dir = workdir("sparse-torn");
    let path = materialize(&dir, &el);
    let mut c = chaos_config(&dir, &plan);
    c.fault_plan = Some(plan);
    let report = Engine::new(c).run(&path, Bfs { root: 0 }).unwrap();
    assert_eq!(report.outcome, RunOutcome::Completed);
    assert_eq!(
        report.values, baseline,
        "torn-commit sparse recovery diverged"
    );
    assert_eq!(report.retry_attempts, 1, "{:?}", report.retry_causes);
    assert!(report.edges_skipped > 0, "torn commit: no sparse superstep");
}

#[test]
fn recovery_is_format_agnostic() {
    // `materialize` writes the default (v2 delta-varint) format, so every
    // test above already chaoses v2. This one pins the claim explicitly:
    // the same scripted fault plan over the v1 word-array layout and the
    // v2 compressed layout of the same graph must both recover to the
    // fault-free fixpoint — replayed supersteps re-decode their interval
    // from scratch, so the edge encoding cannot leak into recovery.
    let el = cc_graph(93);
    let baseline = {
        let dir = workdir("fmt-base");
        let path = materialize(&dir, &el);
        Engine::new(fault_free_config(&dir))
            .run(&path, ConnectedComponents)
            .unwrap()
            .values
    };
    for (fmt, opts) in [
        ("v1", preprocess::PreprocessOptions::uncompressed()),
        ("v2", preprocess::PreprocessOptions::default()),
    ] {
        let plan = Arc::new(FaultPlan::scripted(19, 4, 4));
        let dir = workdir(&format!("fmt-{fmt}"));
        let path = dir.join("graph.gcsr");
        preprocess::edges_to_csr(el.clone(), &path, &opts).unwrap();
        let mut c = chaos_config(&dir, &plan);
        c.fault_plan = Some(plan);
        let report = Engine::new(c).run(&path, ConnectedComponents).unwrap();
        assert_eq!(report.outcome, RunOutcome::Completed, "{fmt}");
        assert_eq!(report.values, baseline, "{fmt} recovery diverged");
        assert!(
            report.retry_attempts >= 1,
            "{fmt}: at least one injection must have fired"
        );
    }
}

#[test]
fn torn_commit_header_rolls_back_one_superstep() {
    // The commit of superstep 2 writes a torn (bad-CRC) slot and dies.
    // Recovery must reject that slot, resume from superstep 1's commit,
    // and the re-run must land on the fault-free fixpoint.
    let el = generate::cycle(60);
    let baseline = {
        let dir = workdir("torn-base");
        let path = materialize(&dir, &el);
        Engine::new(fault_free_config(&dir))
            .run(&path, ConnectedComponents)
            .unwrap()
            .values
    };
    let plan = Arc::new(FaultPlan::new(0).with(FaultSpec::TornCommit { superstep: 2 }));
    let dir = workdir("torn");
    let path = materialize(&dir, &el);
    let mut c = chaos_config(&dir, &plan);
    c.fault_plan = Some(plan);
    let report = Engine::new(c).run(&path, ConnectedComponents).unwrap();
    assert_eq!(report.outcome, RunOutcome::Completed);
    assert_eq!(report.values, baseline);
    assert_eq!(report.retry_attempts, 1, "{:?}", report.retry_causes);
    assert!(
        report.retry_causes[0].contains("Manager"),
        "a failed commit escalates through the manager: {:?}",
        report.retry_causes[0]
    );
}

#[test]
fn msync_failure_is_survived() {
    let el = generate::cycle(60);
    let baseline = {
        let dir = workdir("msync-base");
        let path = materialize(&dir, &el);
        Engine::new(fault_free_config(&dir))
            .run(&path, ConnectedComponents)
            .unwrap()
            .values
    };
    let plan = Arc::new(FaultPlan::new(0).with(FaultSpec::MsyncFail { superstep: 1 }));
    let dir = workdir("msync");
    let path = materialize(&dir, &el);
    let mut c = chaos_config(&dir, &plan);
    c.fault_plan = Some(plan);
    let report = Engine::new(c).run(&path, ConnectedComponents).unwrap();
    assert_eq!(report.outcome, RunOutcome::Completed);
    assert_eq!(report.values, baseline);
    assert_eq!(report.retry_attempts, 1, "{:?}", report.retry_causes);
}

// ---------- simulated crashes: the run ends, a resume finishes it ----------

/// Durable config that crashes once at `crash`.
fn crash_config(dir: &std::path::Path, crash: FaultSpec) -> EngineConfig {
    let mut c = fault_free_config(dir);
    c.fault_plan = Some(Arc::new(FaultPlan::new(0).with(crash)));
    c
}

fn resume_config(dir: &std::path::Path) -> EngineConfig {
    let mut c = EngineConfig::small(dir);
    c.resume = true;
    c
}

#[test]
fn crash_and_recover_reaches_same_fixpoint() {
    let el = generate::symmetrize(&generate::rmat(
        400,
        2000,
        generate::RmatParams::default(),
        77,
    ));
    let clean = {
        let dir = workdir("recover-clean");
        let path = materialize(&dir, &el);
        Engine::new(EngineConfig::small(&dir))
            .run(&path, ConnectedComponents)
            .unwrap()
    };

    // Crashing run: durable commits, killed after the dispatch phase of
    // superstep 1 (mid-superstep: compute actors never flushed).
    let dir = workdir("recover");
    let path = materialize(&dir, &el);
    let crash = FaultSpec::CrashAfterDispatch { superstep: 1 };
    let crashed = Engine::new(crash_config(&dir, crash))
        .run(&path, ConnectedComponents)
        .unwrap();
    assert_eq!(crashed.outcome, RunOutcome::Crashed);
    assert!(crashed.values.is_empty());

    // Recovery run resumes from the last committed superstep and finishes.
    let recovered = Engine::new(resume_config(&dir))
        .run(&path, ConnectedComponents)
        .unwrap();
    assert_eq!(recovered.outcome, RunOutcome::Completed);
    assert_eq!(recovered.values, clean.values);
}

#[test]
fn crash_at_superstep_zero_recovers_too() {
    let el = generate::two_components(20, 30);
    let dir = workdir("recover0");
    let path = materialize(&dir, &el);
    let crash = FaultSpec::CrashAfterDispatch { superstep: 0 };
    let crashed = Engine::new(crash_config(&dir, crash))
        .run(&path, ConnectedComponents)
        .unwrap();
    assert_eq!(crashed.outcome, RunOutcome::Crashed);

    let recovered = Engine::new(resume_config(&dir))
        .run(&path, ConnectedComponents)
        .unwrap();
    assert_eq!(recovered.outcome, RunOutcome::Completed);
    let mut expect = vec![0u32; 50];
    for e in expect.iter_mut().skip(20) {
        *e = 20;
    }
    assert_eq!(recovered.values, expect);
}

#[test]
fn each_crash_variant_fires_once_and_resume_is_bit_identical() {
    // Per variant: the plan's crash ends the first run with no in-process
    // retry and the header one commit behind; resuming with the *same*
    // plan replays the crashed superstep without crashing again (the
    // point already fired) and lands on the clean run's exact bits.
    let el = cc_graph(94);
    let baseline = {
        let dir = workdir("crash-once-base");
        let path = materialize(&dir, &el);
        Engine::new(fault_free_config(&dir))
            .run(&path, ConnectedComponents)
            .unwrap()
    };
    assert!(baseline.supersteps > 3, "the crash points must be reached");
    for (tag, crash) in [
        ("dispatch", FaultSpec::CrashAfterDispatch { superstep: 2 }),
        ("compute", FaultSpec::CrashInCompute { superstep: 2 }),
    ] {
        let plan = Arc::new(FaultPlan::new(0).with(crash));
        let dir = workdir(&format!("crash-once-{tag}"));
        let path = materialize(&dir, &el);
        let mut c = fault_free_config(&dir);
        c.fault_plan = Some(plan.clone());
        let engine = Engine::new(c.clone());
        let crashed = engine.run(&path, ConnectedComponents).unwrap();
        assert_eq!(crashed.outcome, RunOutcome::Crashed, "{tag}");
        assert_eq!(crashed.retry_attempts, 0, "{tag}: a crash is not retried");
        assert_eq!(crashed.supersteps, 2, "{tag}: supersteps 0 and 1 committed");
        let vf = ValueFile::open(engine.value_file_path(&path)).unwrap();
        assert_eq!(vf.header().committed_superstep, Some(1), "{tag}");
        drop(vf);

        c.resume = true;
        let resumed = Engine::new(c).run(&path, ConnectedComponents).unwrap();
        assert_eq!(resumed.outcome, RunOutcome::Completed, "{tag}");
        assert_eq!(resumed.retry_attempts, 0, "{tag}");
        assert_eq!(resumed.values, baseline.values, "{tag}: resume diverged");
        assert!(
            !plan.take_crash_after_dispatch(2) && !plan.take_crash_in_compute(2),
            "{tag}: the point fired exactly once"
        );
    }
}
