//! Batch fold kernels vs the scalar per-message oracle.
//!
//! The contract of [`gpsa::VertexProgram::fold_batch`] is *bit identity*:
//! for any slab of message runs, the kernel override must leave the value
//! file (both columns), the frontier bitmap and the dirty list exactly as
//! the scalar replay through `compute()` would — including the
//! first-message seeding protocol. The evidence is property-tested
//! adversarial slabs: hand-built slabs with duplicate destinations within
//! and across runs, folded through the kernel on one value file and the
//! scalar oracle ([`gpsa::FoldCtx::fold_scalar_slab`]) on a twin, starting
//! from arbitrary mid-superstep slot states. The engine always folds
//! through the kernels; `sync_vs_actor.rs` holds it bit-identical to the
//! `SyncEngine` oracle end to end.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use gpsa::programs::{Bfs, ConnectedComponents, PageRank, Sssp, UNREACHED};
use gpsa::{
    set_flag, FoldCtx, GraphMeta, MsgSlab, ValueFile, VertexProgram, VertexValue, FLAG_BIT,
};
use gpsa_graph::VertexId;
use proptest::prelude::*;

static CASE: AtomicU64 = AtomicU64::new(0);

fn workdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("gpsa-foldk-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

// ---------------------------------------------------------------------
// Adversarial slab layer: kernel vs scalar on twin value files.
// ---------------------------------------------------------------------

const N: usize = 32;

/// One generated update-slot pre-state: `None` = still flagged with the
/// given stale payload (no message yet), `Some` = already accumulated.
type SlotState = (u32, Option<u32>);

/// Strategy for one u32 update-slot pre-state (the shim has no
/// `prop::option::of`; a bool draw picks the variant).
fn u32_slot() -> impl Strategy<Value = SlotState> {
    (0u32..UNREACHED, any::<bool>(), 0u32..UNREACHED)
        .prop_map(|(stale, has_acc, acc)| (stale, has_acc.then_some(acc)))
}

/// Strategy for one f32 update-slot pre-state, as bit patterns
/// (`any::<f32>()` draws from `[0, 1)` — positive, so flag-bit-free).
fn f32_slot() -> impl Strategy<Value = SlotState> {
    (any::<f32>(), any::<bool>(), any::<f32>())
        .prop_map(|(stale, has_acc, acc)| (stale.to_bits(), has_acc.then_some(acc.to_bits())))
}

fn twin_files<V: VertexValue>(
    tag: &str,
    dispatch: &[u32],
    update: &[SlotState],
) -> (ValueFile, ValueFile) {
    let dir = workdir(tag);
    let case = CASE.fetch_add(1, Ordering::Relaxed);
    let mk = |name: &str| {
        let vf = ValueFile::create(dir.join(format!("{name}-{case}.gval")), N, |v| {
            (V::from_bits(dispatch[v as usize]), true)
        })
        .unwrap();
        for v in 0..N as u32 {
            // Column 0 dispatches, column 1 is mid-fold.
            vf.store(0, v, dispatch[v as usize]);
            match update[v as usize] {
                (stale, None) => vf.store(1, v, set_flag(stale)),
                (_, Some(acc)) => {
                    vf.store(1, v, acc);
                    vf.frontier().mark(1, v);
                }
            }
        }
        vf
    };
    (mk("kernel"), mk("scalar"))
}

fn frontier_set(vf: &ValueFile, col: u32) -> Vec<VertexId> {
    vf.frontier().iter_set(col, 0..N as VertexId).collect()
}

/// Fold `slab` through the program's kernel on one file and the scalar
/// oracle on its twin; every observable output must match bit-for-bit.
fn assert_kernel_matches_scalar<P: VertexProgram>(
    program: &P,
    slab: &MsgSlab<P::MsgVal>,
    kernel_vf: &ValueFile,
    scalar_vf: &ValueFile,
) {
    let meta = GraphMeta {
        n_vertices: N as u64,
        n_edges: 0,
    };
    let mut kernel_dirty: Vec<(VertexId, P::Value)> = Vec::new();
    let mut ctx = FoldCtx::new(kernel_vf, &meta, 1, &mut kernel_dirty);
    program.fold_batch(slab, &mut ctx);

    let mut scalar_dirty: Vec<(VertexId, P::Value)> = Vec::new();
    let mut ctx = FoldCtx::new(scalar_vf, &meta, 1, &mut scalar_dirty);
    ctx.fold_scalar_slab(program, slab);

    for col in 0..2 {
        for v in 0..N as u32 {
            assert_eq!(
                kernel_vf.load(col, v),
                scalar_vf.load(col, v),
                "slot ({col}, {v}) diverges"
            );
        }
    }
    let k: Vec<(VertexId, u32)> = kernel_dirty
        .iter()
        .map(|&(v, x)| (v, x.to_bits()))
        .collect();
    let s: Vec<(VertexId, u32)> = scalar_dirty
        .iter()
        .map(|&(v, x)| (v, x.to_bits()))
        .collect();
    assert_eq!(k, s, "dirty lists diverge");
    assert_eq!(
        frontier_set(kernel_vf, 1),
        frontier_set(scalar_vf, 1),
        "frontier marks diverge"
    );
}

/// Runs with duplicate destinations *within* a run (parallel edges) and
/// *across* runs (many sources hitting the same hub) — the worst case
/// for any kernel tempted to cache or reorder per-destination state.
fn slab_from_runs<M: Copy>(runs: &[(Vec<VertexId>, M)]) -> MsgSlab<M> {
    let mut slab = MsgSlab::new();
    for (targets, msg) in runs {
        slab.extend_run(targets, *msg);
    }
    slab
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn min_kernel_survives_adversarial_duplicates(
        dispatch in prop::collection::vec(0u32..UNREACHED, N..=N),
        update in prop::collection::vec(u32_slot(), N..=N),
        runs in prop::collection::vec(
            (
                prop::collection::vec(0u32..N as u32, 0..12),
                1u32..(UNREACHED - 1),
            ),
            0..10,
        ),
    ) {
        let (kernel_vf, scalar_vf) = twin_files::<u32>("amin", &dispatch, &update);
        let slab = slab_from_runs(&runs);
        assert_kernel_matches_scalar(&Bfs { root: 0 }, &slab, &kernel_vf, &scalar_vf);

        let (kernel_vf, scalar_vf) = twin_files::<u32>("amin-cc", &dispatch, &update);
        assert_kernel_matches_scalar(&ConnectedComponents, &slab, &kernel_vf, &scalar_vf);
    }

    #[test]
    fn sssp_kernel_survives_adversarial_duplicates(
        dispatch in prop::collection::vec(0u32..UNREACHED, N..=N),
        update in prop::collection::vec(u32_slot(), N..=N),
        runs in prop::collection::vec(
            (
                prop::collection::vec(0u32..N as u32, 0..12),
                (0u32..UNREACHED, 0u32..N as u32),
            ),
            0..10,
        ),
    ) {
        let (kernel_vf, scalar_vf) = twin_files::<u32>("asssp", &dispatch, &update);
        let slab = slab_from_runs(&runs);
        assert_kernel_matches_scalar(&Sssp { root: 0 }, &slab, &kernel_vf, &scalar_vf);
    }

    #[test]
    fn sum_kernel_survives_adversarial_duplicates(
        dispatch_f in prop::collection::vec(any::<f32>(), N..=N),
        update in prop::collection::vec(f32_slot(), N..=N),
        runs in prop::collection::vec(
            (
                prop::collection::vec(0u32..N as u32, 0..12),
                any::<f32>(),
            ),
            0..10,
        ),
    ) {
        let dispatch: Vec<u32> = dispatch_f.iter().map(|f| f.to_bits()).collect();
        prop_assert!(dispatch.iter().all(|&b| b < FLAG_BIT));
        let (kernel_vf, scalar_vf) = twin_files::<f32>("asum", &dispatch, &update);
        let slab = slab_from_runs(&runs);
        assert_kernel_matches_scalar(&PageRank::default(), &slab, &kernel_vf, &scalar_vf);
    }
}
