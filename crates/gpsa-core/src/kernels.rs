//! Batch fold kernels — the compute side of the batch-native hot path.
//!
//! The computer actor used to pull one `(VertexId, MsgVal)` tuple at a
//! time through [`crate::VertexProgram::compute`], paying a virtual-ish
//! hook call, two value-file loads, and full first-message bookkeeping
//! per *message*. With struct-of-arrays slabs ([`crate::MsgSlab`]) the
//! fold becomes a pass over a flat destination column, and the common
//! algebraic shapes collapse into tight inner loops:
//!
//! * **u32 min** (BFS, CC, SSSP): the flag bit makes flagged words
//!   (`>= 0x8000_0000`) strictly greater than any payload
//!   (`<= 0x7FFF_FFFF`), so one unsigned compare both detects the
//!   first-message slow path *and* decides the min. The unflagged hot
//!   path is load → compare → conditional store; min-`compute` ignores
//!   `basis` once an accumulator exists and storing an unchanged min is
//!   a no-op, so eliding the store is bit-identical.
//! * **f32 damped sum** (PageRank): values are non-negative, so payload
//!   bits never carry the sign/flag bit and the same `< FLAG_BIT` test
//!   splits hot and slow paths; the hot path is load → add → store.
//!
//! Both kernels software-prefetch the value-file cache line a few
//! destinations ahead ([`crate::value_file::ValueFile::prefetch`]) —
//! destination order is CSR order, effectively random in the value file.
//!
//! Run order is preserved exactly: integer min is order-independent, and
//! the f32 kernel performs the same per-destination add sequence as the
//! scalar replay, which is what keeps engine results bit-identical to
//! the [`crate::SyncEngine`] oracle.

use gpsa_graph::VertexId;

use crate::program::{GraphMeta, VertexProgram};
use crate::slab::MsgSlab;
use crate::value::VertexValue;
use crate::value_file::ValueFile;
use crate::word::{clear_flag, is_flagged, FLAG_BIT};

/// How far ahead of the fold position to prefetch value slots. One
/// cache line holds 8 consecutive slot words (4 vertices' slot pairs);
/// a small fixed distance keeps the prefetch inside the run without a
/// second pass.
const PREFETCH_AHEAD: usize = 8;

/// The per-batch fold state handed to
/// [`VertexProgram::fold_batch`]: the value file, update column, and the
/// computer's first-message bookkeeping (dirty list + frontier marks).
/// Kernels read destinations straight off the slab and go through
/// [`FoldCtx::first_message_basis`] exactly once per newly-touched
/// vertex, so the flush pass downstream sees the same state the scalar
/// path would produce.
pub struct FoldCtx<'a, P: VertexProgram> {
    values: &'a ValueFile,
    meta: &'a GraphMeta,
    update_col: u32,
    dirty: &'a mut Vec<(VertexId, P::Value)>,
}

impl<'a, P: VertexProgram> FoldCtx<'a, P> {
    /// Bundle the fold state for one batch. `dirty` accumulates
    /// `(vertex, basis)` pairs for every vertex whose first message of
    /// the superstep arrives in this batch.
    pub fn new(
        values: &'a ValueFile,
        meta: &'a GraphMeta,
        update_col: u32,
        dirty: &'a mut Vec<(VertexId, P::Value)>,
    ) -> Self {
        FoldCtx {
            values,
            meta,
            update_col,
            dirty,
        }
    }

    /// The value file under fold.
    #[inline(always)]
    pub fn values(&self) -> &'a ValueFile {
        self.values
    }

    /// Graph facts for `compute`.
    #[inline(always)]
    pub fn meta(&self) -> &'a GraphMeta {
        self.meta
    }

    /// The column this batch folds into.
    #[inline(always)]
    pub fn update_col(&self) -> u32 {
        self.update_col
    }

    /// First-message slow path: seed the basis from the freshest of the
    /// two buffered copies, record the vertex on the dirty list, and mark
    /// it in the update-column frontier. `u_bits` is the still-flagged
    /// update-column word the caller already loaded.
    #[inline]
    pub fn first_message_basis(&mut self, program: &P, v: VertexId, u_bits: u32) -> P::Value {
        debug_assert!(is_flagged(u_bits));
        let d = P::Value::from_bits(clear_flag(self.values.load(1 - self.update_col, v)));
        let u = P::Value::from_bits(clear_flag(u_bits));
        let basis = program.freshest(d, u);
        self.dirty.push((v, basis));
        self.values.frontier().mark(self.update_col, v);
        basis
    }

    /// Fold one message through the full scalar protocol — exactly the
    /// per-tuple path the computer ran before batching.
    #[inline]
    pub fn fold_one(&mut self, program: &P, v: VertexId, msg: P::MsgVal) {
        let u_bits = self.values.load(self.update_col, v);
        let new = if is_flagged(u_bits) {
            let basis = self.first_message_basis(program, v, u_bits);
            program.compute(v, None, basis, msg, self.meta)
        } else {
            let acc = P::Value::from_bits(u_bits);
            let basis = P::Value::from_bits(clear_flag(self.values.load(1 - self.update_col, v)));
            program.compute(v, Some(acc), basis, msg, self.meta)
        };
        self.values.store(self.update_col, v, new.to_bits());
    }

    /// Replay a slab run-by-run through [`FoldCtx::fold_one`] — the
    /// default [`VertexProgram::fold_batch`] body and the correctness
    /// oracle every kernel override is tested against.
    pub fn fold_scalar_slab(&mut self, program: &P, slab: &MsgSlab<P::MsgVal>) {
        for (run, msg) in slab.runs() {
            for &v in run {
                self.fold_one(program, v, msg);
            }
        }
    }

    /// The COMPUTE_OVER pass that ends a computer's superstep, shared by
    /// the engine's and the cluster's compute actors. Returns the
    /// `(activated, delta)` tallies and empties the dirty list.
    ///
    /// `owned` lists the vertices an always-dispatch (dense) program must
    /// re-evaluate even without messages; it is empty for sparse
    /// programs. Those vertices go first: a still-flagged update slot
    /// got no message, so it takes its no-message value (PageRank's base
    /// term). The dirty pass runs after it, so dirty-but-unchanged
    /// vertices (re-flagged there) are not mistaken for message-less
    /// ones. A dirty vertex whose final accumulator does not count as
    /// changed against its saved basis is re-flagged, so the next
    /// superstep's dispatcher skips it and its first message re-seeds,
    /// and its frontier bit is lowered to keep the bitmap exact.
    pub fn flush(self, program: &P, owned: &[VertexId]) -> (u64, f64) {
        let (values, meta, update_col) = (self.values, self.meta, self.update_col);
        let mut activated = 0u64;
        let mut delta = 0.0f64;
        for &v in owned {
            let u_bits = values.load(update_col, v);
            if !is_flagged(u_bits) {
                continue;
            }
            let d = P::Value::from_bits(clear_flag(values.load(1 - update_col, v)));
            let u = P::Value::from_bits(clear_flag(u_bits));
            let basis = program.freshest(d, u);
            let new = program.no_message_value(v, basis, meta);
            if program.changed(basis, new) {
                values.store(update_col, v, new.to_bits());
                values.frontier().mark(update_col, v);
                activated += 1;
                delta += program.delta(basis, new);
            } else {
                values.store(update_col, v, crate::word::set_flag(new.to_bits()));
            }
        }
        for &(v, basis) in self.dirty.iter() {
            let final_v = P::Value::from_bits(clear_flag(values.load(update_col, v)));
            if program.changed(basis, final_v) {
                activated += 1;
                delta += program.delta(basis, final_v);
            } else {
                values.invalidate(update_col, v);
                values.frontier().unmark(update_col, v);
            }
        }
        self.dirty.clear();
        (activated, delta)
    }
}

/// u32 min-fold kernel with a per-message candidate function: folds
/// `candidate(v, msg)` into each destination by unsigned min. `candidate`
/// must return flag-free payloads (`< 0x8000_0000`), and the program's
/// `compute` must equal `acc.unwrap_or(basis).min(candidate(v, msg))` —
/// BFS/CC (identity candidate, see [`fold_min_u32`]) and SSSP
/// (edge-weight relaxation) all have this shape.
pub fn fold_min_u32_by<P, F>(
    program: &P,
    slab: &MsgSlab<P::MsgVal>,
    ctx: &mut FoldCtx<'_, P>,
    mut candidate: F,
) where
    P: VertexProgram<Value = u32>,
    F: FnMut(VertexId, P::MsgVal) -> u32,
{
    let values = ctx.values;
    let update_col = ctx.update_col;
    for (run, msg) in slab.runs() {
        for (i, &v) in run.iter().enumerate() {
            if let Some(&ahead) = run.get(i + PREFETCH_AHEAD) {
                values.prefetch(update_col, ahead);
            }
            let cand = candidate(v, msg);
            debug_assert!(cand < FLAG_BIT, "min candidates must be flag-free");
            let u_bits = values.load(update_col, v);
            if u_bits < FLAG_BIT {
                // Accumulator present: min-compute ignores basis, and
                // storing an unchanged min would be a no-op — elide it.
                if cand < u_bits {
                    values.store(update_col, v, cand);
                }
            } else {
                let basis = ctx.first_message_basis(program, v, u_bits);
                values.store(update_col, v, VertexValue::to_bits(basis.min(cand)));
            }
        }
    }
}

/// u32 min-fold kernel for programs whose message *is* the candidate
/// (BFS distance+1, CC labels).
pub fn fold_min_u32<P>(program: &P, slab: &MsgSlab<u32>, ctx: &mut FoldCtx<'_, P>)
where
    P: VertexProgram<Value = u32, MsgVal = u32>,
{
    fold_min_u32_by(program, slab, ctx, |_, m| m);
}

/// f32 damped-sum kernel (PageRank): folds `damping * msg` into each
/// destination's accumulator, seeding first messages with
/// `(1 - damping) / n_vertices` — the same expressions as
/// `PageRank::compute`, evaluated in the same order, so results are
/// bit-identical to the scalar replay.
pub fn fold_sum_f32<P>(program: &P, slab: &MsgSlab<f32>, ctx: &mut FoldCtx<'_, P>, damping: f32)
where
    P: VertexProgram<Value = f32, MsgVal = f32>,
{
    let values = ctx.values;
    let update_col = ctx.update_col;
    let base = (1.0 - damping) / ctx.meta.n_vertices.max(1) as f32;
    for (run, msg) in slab.runs() {
        for (i, &v) in run.iter().enumerate() {
            if let Some(&ahead) = run.get(i + PREFETCH_AHEAD) {
                values.prefetch(update_col, ahead);
            }
            let add = damping * msg;
            let u_bits = values.load(update_col, v);
            let new = if u_bits < FLAG_BIT {
                <f32 as VertexValue>::from_bits(u_bits) + add
            } else {
                // First message: seed bookkeeping; the damped sum starts
                // from the teleport base, not the basis.
                let _ = ctx.first_message_basis(program, v, u_bits);
                base + add
            };
            values.store(update_col, v, VertexValue::to_bits(new));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs::{Bfs, ConnectedComponents, PageRank, Sssp, UNREACHED};
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gpsa-kernels-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    const N: usize = 16;

    /// Twin value files in mid-superstep state: some vertices already
    /// accumulated (unflagged), the rest untouched (flagged), with
    /// diverging dispatch/update copies so `freshest` matters.
    fn twin_files<V: VertexValue>(
        tag: &str,
        dispatch_val: impl Fn(u32) -> V,
        update_val: impl Fn(u32) -> V,
        accumulated: impl Fn(u32) -> bool,
    ) -> (ValueFile, ValueFile) {
        let mk = |name: String| {
            let vf = ValueFile::create(tmp(&name), N, |v| (dispatch_val(v), true)).unwrap();
            for v in 0..N as u32 {
                let bits = VertexValue::to_bits(update_val(v));
                if accumulated(v) {
                    vf.store(1, v, bits);
                    vf.frontier().mark(1, v);
                } else {
                    vf.store(1, v, crate::word::set_flag(bits));
                }
            }
            vf
        };
        (mk(format!("{tag}-a.gval")), mk(format!("{tag}-b.gval")))
    }

    /// Adversarial slab: duplicate destinations across runs, within a
    /// run, singleton and long runs, empty-adjacent patterns.
    fn adversarial_dsts() -> Vec<(Vec<u32>, u32)> {
        vec![
            (vec![3, 3, 3, 7, 1], 0),
            (vec![1], 1),
            (
                vec![0, 2, 4, 6, 8, 10, 12, 14, 15, 13, 11, 9, 7, 5, 3, 1],
                2,
            ),
            (vec![15, 15], 3),
            (vec![3], 4),
        ]
    }

    fn assert_files_identical(a: &ValueFile, b: &ValueFile, tag: &str) {
        for col in 0..2 {
            for v in 0..N as u32 {
                assert_eq!(
                    a.load(col, v),
                    b.load(col, v),
                    "{tag}: col {col} vertex {v}"
                );
            }
        }
        for v in 0..N as u32 {
            assert_eq!(
                a.frontier().is_marked(1, v),
                b.frontier().is_marked(1, v),
                "{tag}: frontier {v}"
            );
        }
    }

    fn run_kernel_vs_scalar<Pg: VertexProgram>(
        program: &Pg,
        slab: &MsgSlab<Pg::MsgVal>,
        files: (ValueFile, ValueFile),
        tag: &str,
    ) where
        Pg::MsgVal: Copy,
    {
        let meta = GraphMeta {
            n_vertices: N as u64,
            n_edges: 64,
        };
        let (kf, sf) = files;
        let mut kd: Vec<(VertexId, Pg::Value)> = Vec::new();
        let mut sd: Vec<(VertexId, Pg::Value)> = Vec::new();
        program.fold_batch(slab, &mut FoldCtx::new(&kf, &meta, 1, &mut kd));
        FoldCtx::new(&sf, &meta, 1, &mut sd).fold_scalar_slab(program, slab);
        assert_files_identical(&kf, &sf, tag);
        let k_dirty: Vec<(u32, u32)> = kd
            .iter()
            .map(|&(v, x)| (v, VertexValue::to_bits(x)))
            .collect();
        let s_dirty: Vec<(u32, u32)> = sd
            .iter()
            .map(|&(v, x)| (v, VertexValue::to_bits(x)))
            .collect();
        assert_eq!(k_dirty, s_dirty, "{tag}: dirty lists");
    }

    #[test]
    fn min_kernel_matches_scalar_for_bfs_labels() {
        let mut slab = MsgSlab::new();
        for (run, k) in adversarial_dsts() {
            slab.extend_run(&run, 2 + k);
        }
        let files = twin_files::<u32>(
            "bfs",
            |v| if v % 3 == 0 { v } else { UNREACHED },
            |v| if v % 2 == 0 { v / 2 } else { UNREACHED },
            |v| v % 4 == 0,
        );
        run_kernel_vs_scalar(&Bfs { root: 0 }, &slab, files, "bfs");
    }

    #[test]
    fn min_kernel_matches_scalar_for_cc() {
        let mut slab = MsgSlab::new();
        for (run, k) in adversarial_dsts() {
            slab.extend_run(&run, k);
        }
        let files = twin_files::<u32>("cc", |v| v, |v| v.saturating_sub(1), |v| v % 3 == 1);
        run_kernel_vs_scalar(&ConnectedComponents, &slab, files, "cc");
    }

    #[test]
    fn min_by_kernel_matches_scalar_for_sssp() {
        let mut slab = MsgSlab::<(u32, VertexId)>::new();
        for (run, k) in adversarial_dsts() {
            slab.extend_run(&run, (3 * k + 1, k));
        }
        let files = twin_files::<u32>(
            "sssp",
            |v| if v < 8 { 5 * v } else { UNREACHED },
            |v| if v % 2 == 1 { 4 * v } else { UNREACHED },
            |v| v % 5 == 2,
        );
        run_kernel_vs_scalar(&Sssp { root: 0 }, &slab, files, "sssp");
    }

    #[test]
    fn sum_kernel_matches_scalar_for_pagerank() {
        let mut slab = MsgSlab::<f32>::new();
        for (run, k) in adversarial_dsts() {
            slab.extend_run(&run, 0.01 * (k + 1) as f32);
        }
        let files = twin_files::<f32>(
            "pr",
            |v| 1.0 / (v + 1) as f32,
            |v| 0.25 + 0.001 * v as f32,
            |v| v % 2 == 0,
        );
        run_kernel_vs_scalar(&PageRank::default(), &slab, files, "pr");
    }
}
