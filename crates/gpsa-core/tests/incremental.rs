//! Incremental recompute (`Engine::run_incremental`) vs the full-recompute
//! oracle: re-converging BFS / CC / SSSP from a prior run's values after an
//! additions-only delta must land on values bit-identical to a scratch
//! `run_snapshot` over the same merged snapshot — after one batch and on
//! every prefix of a long batch sequence — while seeding exactly the
//! sources of the added edges the prior violates.

use std::collections::{BTreeSet, HashSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use gpsa::programs::{Bfs, ConnectedComponents, PageRank, Sssp};
use gpsa::{Engine, EngineConfig, GraphMeta, RunOutcome, Termination, VertexProgram};
use gpsa_graph::{generate, preprocess, DeltaBatch, DeltaOverlay, DiskCsr, Edge, GraphSnapshot};
use rand::{Rng, SeedableRng};

fn test_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("gpsa-incr-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn engine(dir: &PathBuf) -> Engine {
    let mut cfg = EngineConfig::small(dir).with_actors(2, 2);
    cfg.termination = Termination::Quiescence {
        max_supersteps: 10_000,
    };
    Engine::new(cfg)
}

/// Independent count of the seeds: the distinct sources of the snapshot's
/// added edges (its pairs minus the base's) that `prior` violates —
/// relaxing the edge with the program's hooks changes its destination.
/// Vertices past `prior` hold their `init` value.
fn violated_sources<P: VertexProgram<Value = u32>>(
    program: &P,
    snap: &GraphSnapshot,
    base_pairs: &HashSet<(u32, u32)>,
    prior: &[u32],
) -> u64 {
    let meta = GraphMeta {
        n_vertices: snap.n_vertices() as u64,
        n_edges: snap.n_edges() as u64,
    };
    let value = |v: u32| {
        prior
            .get(v as usize)
            .copied()
            .unwrap_or_else(|| program.init(v, &meta).0)
    };
    let mut sources = BTreeSet::new();
    for e in snap.to_edge_list().edges {
        if base_pairs.contains(&(e.src, e.dst)) {
            continue;
        }
        let Some(msg) = program.gen_msg(e.src, value(e.src), snap.degree(e.src), &meta) else {
            continue;
        };
        let basis = value(e.dst);
        if program.changed(basis, program.compute(e.dst, None, basis, msg, &meta)) {
            sources.insert(e.src);
        }
    }
    sources.len() as u64
}

fn pairs(base: &DiskCsr) -> HashSet<(u32, u32)> {
    let mut out = HashSet::new();
    for v in 0..base.n_vertices() as u32 {
        for t in base.targets(v) {
            out.insert((v, t));
        }
    }
    out
}

/// Base graph + a mutated snapshot: ~1% added edges, including edges out
/// of likely-unreached vertices, a chain of additions (reachable only
/// through each other), and a brand-new vertex past the base id range.
fn base_and_mutated(dir: &Path) -> (Arc<GraphSnapshot>, Arc<GraphSnapshot>) {
    let csr = dir.join("g.gcsr");
    preprocess::edges_to_csr(
        generate::erdos_renyi(600, 3000, 42),
        &csr,
        &preprocess::PreprocessOptions::default(),
    )
    .unwrap();
    let base = Arc::new(DiskCsr::open(&csr).unwrap());
    let frozen = Arc::new(GraphSnapshot::from_csr(base.clone()));

    let mut added = Vec::new();
    for i in 0..20u32 {
        added.push(Edge::new((i * 13) % 600, (i * 37 + 5) % 600));
    }
    // Chain through otherwise-dark territory: 7 → 601 → 602 → 3. The new
    // vertex 602 only becomes reachable via another added edge, so its
    // outgoing added edge must be discovered by propagation, not seeding.
    added.push(Edge::new(7, 601));
    added.push(Edge::new(601, 602));
    added.push(Edge::new(602, 3));
    let mut overlay = DeltaOverlay::new();
    overlay.apply(&base, &DeltaBatch::Add(added));
    let mutated = Arc::new(GraphSnapshot::new(base, Arc::new(overlay)));
    (frozen, mutated)
}

#[test]
fn incremental_bfs_matches_full_recompute() {
    let dir = test_dir("bfs");
    let (frozen, mutated) = base_and_mutated(&dir);
    let eng = engine(&dir);
    let prior = eng
        .run_snapshot(&frozen, &dir.join("prior.gval"), Bfs { root: 0 })
        .unwrap();
    assert_eq!(prior.seeded_frontier, 0, "full runs seed nothing");
    let incr = eng
        .run_incremental(
            &mutated,
            &dir.join("incr.gval"),
            Bfs { root: 0 },
            &prior.values,
        )
        .unwrap();
    let full = eng
        .run_snapshot(&mutated, &dir.join("full.gval"), Bfs { root: 0 })
        .unwrap();
    let base_pairs = pairs(frozen.base());
    let want = violated_sources(&Bfs { root: 0 }, &mutated, &base_pairs, &prior.values);
    assert_eq!(incr.seeded_frontier, want);
    assert!(want > 0 && want <= 2 * mutated.overlay().added_edges());
    assert_eq!(incr.values, full.values);
    // The chain vertices exist and were reached through the delta.
    assert_eq!(full.values.len(), 603);
    assert!(full.values[602] < gpsa::programs::UNREACHED);
}

#[test]
fn incremental_cc_matches_full_recompute() {
    let dir = test_dir("cc");
    let (frozen, mutated) = base_and_mutated(&dir);
    let eng = engine(&dir);
    let prior = eng
        .run_snapshot(&frozen, &dir.join("prior.gval"), ConnectedComponents)
        .unwrap();
    let incr = eng
        .run_incremental(
            &mutated,
            &dir.join("incr.gval"),
            ConnectedComponents,
            &prior.values,
        )
        .unwrap();
    let full = eng
        .run_snapshot(&mutated, &dir.join("full.gval"), ConnectedComponents)
        .unwrap();
    let base_pairs = pairs(frozen.base());
    let want = violated_sources(&ConnectedComponents, &mutated, &base_pairs, &prior.values);
    assert_eq!(incr.seeded_frontier, want);
    assert!(want > 0 && want <= 2 * mutated.overlay().added_edges());
    assert_eq!(incr.values, full.values);
}

#[test]
fn incremental_sssp_matches_full_recompute() {
    let dir = test_dir("sssp");
    let (frozen, mutated) = base_and_mutated(&dir);
    let eng = engine(&dir);
    let prior = eng
        .run_snapshot(&frozen, &dir.join("prior.gval"), Sssp { root: 0 })
        .unwrap();
    let incr = eng
        .run_incremental(
            &mutated,
            &dir.join("incr.gval"),
            Sssp { root: 0 },
            &prior.values,
        )
        .unwrap();
    let full = eng
        .run_snapshot(&mutated, &dir.join("full.gval"), Sssp { root: 0 })
        .unwrap();
    let base_pairs = pairs(frozen.base());
    let want = violated_sources(&Sssp { root: 0 }, &mutated, &base_pairs, &prior.values);
    assert_eq!(incr.seeded_frontier, want);
    assert!(want > 0 && want <= 2 * mutated.overlay().added_edges());
    assert_eq!(incr.values, full.values);
}

#[test]
fn incremental_rejects_always_dispatch_removals_and_bad_prior() {
    let dir = test_dir("reject");
    let (frozen, mutated) = base_and_mutated(&dir);
    let eng = engine(&dir);
    let prior = eng
        .run_snapshot(&frozen, &dir.join("prior.gval"), Bfs { root: 0 })
        .unwrap();

    // PageRank re-dispatches every vertex every superstep; warm-starting
    // it from a seed set is unsound, so it must be refused.
    let pr_prior = vec![0.1f32; frozen.n_vertices()];
    let e = eng
        .run_incremental(
            &mutated,
            &dir.join("pr.gval"),
            PageRank { damping: 0.85 },
            &pr_prior,
        )
        .unwrap_err();
    assert!(e.to_string().contains("always-dispatch"), "{e}");

    // A delta containing removals invalidates monotone warm starts.
    let mut overlay = DeltaOverlay::new();
    overlay.apply(frozen.base(), &DeltaBatch::Remove(vec![Edge::new(0, 1)]));
    let removed = Arc::new(GraphSnapshot::new(frozen.base().clone(), Arc::new(overlay)));
    let e = eng
        .run_incremental(
            &removed,
            &dir.join("rm.gval"),
            Bfs { root: 0 },
            &prior.values,
        )
        .unwrap_err();
    assert!(e.to_string().contains("additions-only"), "{e}");

    // Prior values from a *larger* graph cannot be mapped onto this one.
    let too_long = vec![0u32; mutated.n_vertices() + 1];
    let e = eng
        .run_incremental(&mutated, &dir.join("long.gval"), Bfs { root: 0 }, &too_long)
        .unwrap_err();
    assert!(e.to_string().contains("prior values cover"), "{e}");
}

/// 300 batches, each re-converged incrementally from the previous batch's
/// result and checked against a scratch run on that prefix: random pairs
/// in both directions, pairs into territory the prior left at its initial
/// value, and pairs that add vertices past the base.
fn batch_sequence<P: VertexProgram<Value = u32> + Copy>(tag: &str, program: P) {
    let dir = test_dir(tag);
    let csr = dir.join("g.gcsr");
    let base_n = 300u32;
    preprocess::edges_to_csr(
        generate::erdos_renyi(base_n as usize, 330, 7),
        &csr,
        &preprocess::PreprocessOptions::default(),
    )
    .unwrap();
    let base = Arc::new(DiskCsr::open(&csr).unwrap());
    let base_pairs = pairs(&base);
    let eng = engine(&dir);
    let (incr_vf, full_vf) = (dir.join("incr.gval"), dir.join("full.gval"));
    let mut overlay = DeltaOverlay::new();
    let mut values = eng
        .run_snapshot(
            &Arc::new(GraphSnapshot::from_csr(base.clone())),
            &full_vf,
            program,
        )
        .unwrap()
        .values;
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5EED ^ base_n as u64);
    let (mut quiet, mut ran) = (0, 0);
    for i in 0..300 {
        let n = values.len() as u32;
        let meta = GraphMeta {
            n_vertices: u64::from(n),
            n_edges: 0,
        };
        let untouched: Vec<u32> = (0..n)
            .filter(|&v| values[v as usize] == program.init(v, &meta).0)
            .collect();
        let mut edges = Vec::new();
        for _ in 0..rng.gen_range(1..4) {
            let (a, b) = match i % 3 {
                0 => (rng.gen_range(0..n), rng.gen_range(0..n)),
                1 if !untouched.is_empty() => (
                    rng.gen_range(0..n),
                    untouched[rng.gen_range(0..untouched.len())],
                ),
                _ => (rng.gen_range(0..n), n + rng.gen_range(0..3)),
            };
            edges.push(Edge::new(a, b));
            edges.push(Edge::new(b, a));
        }
        overlay.apply(&base, &DeltaBatch::Add(edges.clone()));
        let snap = Arc::new(GraphSnapshot::new(base.clone(), Arc::new(overlay.clone())));
        let incr = eng
            .run_incremental(&snap, &incr_vf, program, &values)
            .unwrap();
        let full = eng.run_snapshot(&snap, &full_vf, program).unwrap();
        assert_eq!(incr.outcome, RunOutcome::Completed);
        assert_eq!(incr.values, full.values, "{tag}: batch {i}");
        let want = violated_sources(&program, &snap, &base_pairs, &values);
        assert_eq!(incr.seeded_frontier, want, "{tag}: batch {i} seeds");
        assert!(
            incr.seeded_frontier <= 2 * edges.len() as u64,
            "{tag}: batch {i}"
        );
        if incr.supersteps == 0 {
            quiet += 1;
            assert_eq!(incr.seeded_frontier, 0, "{tag}: batch {i}");
            assert!(!incr_vf.exists(), "{tag}: batch {i} left a value file");
        } else {
            ran += 1;
        }
        values = incr.values;
    }
    assert!(quiet > 0, "{tag}: no batch took the empty-frontier path");
    assert!(ran > 0, "{tag}: every batch took the empty-frontier path");
}

#[test]
fn bfs_stays_bit_identical_over_300_batches() {
    batch_sequence("seq-bfs", Bfs { root: 0 });
}

#[test]
fn cc_stays_bit_identical_over_300_batches() {
    batch_sequence("seq-cc", ConnectedComponents);
}

#[test]
fn sssp_stays_bit_identical_over_300_batches() {
    batch_sequence("seq-sssp", Sssp { root: 0 });
}

#[test]
fn empty_frontier_runs_no_superstep_and_clears_the_value_file() {
    let dir = test_dir("quiet");
    let (frozen, _) = base_and_mutated(&dir);
    let eng = engine(&dir);
    let prior = eng
        .run_snapshot(&frozen, &dir.join("prior.gval"), Bfs { root: 0 })
        .unwrap();
    // Re-adding a pair the base already holds changes nothing: an empty
    // frontier, so no superstep, and the stale file at the path is gone.
    let (u, v) = (0..600u32)
        .find_map(|u| frozen.targets(u).first().map(|&v| (u, v)))
        .unwrap();
    let mut overlay = DeltaOverlay::new();
    overlay.apply(frozen.base(), &DeltaBatch::Add(vec![Edge::new(u, v)]));
    let same = Arc::new(GraphSnapshot::new(frozen.base().clone(), Arc::new(overlay)));
    let stale = dir.join("stale.gval");
    std::fs::write(&stale, b"an older run").unwrap();
    let r = eng
        .run_incremental(&same, &stale, Bfs { root: 0 }, &prior.values)
        .unwrap();
    assert_eq!((r.supersteps, r.seeded_frontier), (0, 0));
    assert_eq!(r.outcome, RunOutcome::Completed);
    assert_eq!(r.values, prior.values);
    assert!(!stale.exists());

    // The refusals a fleet run makes still come first.
    let mut cfg = eng.config().clone();
    cfg.termination = Termination::Supersteps(0);
    std::fs::write(&stale, b"an older run").unwrap();
    let e = Engine::new(cfg)
        .run_incremental(&same, &stale, Bfs { root: 0 }, &prior.values)
        .unwrap_err();
    assert!(e.to_string().contains("Supersteps(0)"), "{e}");
    assert!(stale.exists(), "a refused run touches nothing");
}
