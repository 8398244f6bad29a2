//! Built-in vertex programs: the paper's three benchmarks (PageRank,
//! BFS, Connected Components) plus SSSP and in-degree counting.

use gpsa_graph::VertexId;

use crate::kernels::{self, FoldCtx};
use crate::program::{GraphMeta, VertexProgram};
use crate::slab::MsgSlab;

/// PageRank with damping factor `d` (default 0.85):
/// `rank(v) = (1 - d)/N + d * Σ rank(u)/deg(u)` over in-neighbors `u`.
///
/// A *dense* program: every vertex dispatches every superstep
/// ([`VertexProgram::always_dispatch`]); run it with
/// [`crate::Termination::Supersteps`] (the paper times 5 supersteps) or
/// [`crate::Termination::Delta`].
#[derive(Debug, Clone, Copy)]
pub struct PageRank {
    /// Damping factor, conventionally 0.85.
    pub damping: f32,
}

impl Default for PageRank {
    fn default() -> Self {
        PageRank { damping: 0.85 }
    }
}

impl VertexProgram for PageRank {
    type Value = f32;
    type MsgVal = f32;

    fn init(&self, _v: VertexId, meta: &GraphMeta) -> (f32, bool) {
        (1.0 / meta.n_vertices.max(1) as f32, true)
    }

    fn gen_msg(
        &self,
        _src: VertexId,
        value: f32,
        out_degree: u32,
        _meta: &GraphMeta,
    ) -> Option<f32> {
        if out_degree == 0 {
            None // sinks keep their mass (simplified PR, as in GraphChi's example)
        } else {
            Some(value / out_degree as f32)
        }
    }

    fn compute(
        &self,
        _v: VertexId,
        acc: Option<f32>,
        _basis: f32,
        msg: f32,
        meta: &GraphMeta,
    ) -> f32 {
        let base = (1.0 - self.damping) / meta.n_vertices.max(1) as f32;
        match acc {
            None => base + self.damping * msg,
            Some(a) => a + self.damping * msg,
        }
    }

    fn changed(&self, _basis: f32, _new: f32) -> bool {
        true // rank sums are rebuilt every superstep; never deactivate
    }

    fn no_message_value(&self, _v: VertexId, _basis: f32, meta: &GraphMeta) -> f32 {
        // No in-contribution this superstep: the rank is the base term.
        (1.0 - self.damping) / meta.n_vertices.max(1) as f32
    }

    fn delta(&self, basis: f32, new: f32) -> f64 {
        (new - basis).abs() as f64
    }

    fn always_dispatch(&self) -> bool {
        true
    }

    fn fold_batch(&self, slab: &MsgSlab<f32>, ctx: &mut FoldCtx<'_, Self>) {
        kernels::fold_sum_f32(self, slab, ctx, self.damping);
    }
}

/// Level value used for unreached vertices (largest 31-bit payload).
pub const UNREACHED: u32 = 0x7FFF_FFFF;

/// Breadth-first search from `root`: computes hop distance per vertex
/// ([`UNREACHED`] for unreachable vertices).
#[derive(Debug, Clone, Copy)]
pub struct Bfs {
    /// Source vertex.
    pub root: VertexId,
}

impl VertexProgram for Bfs {
    type Value = u32;
    type MsgVal = u32;

    fn init(&self, v: VertexId, _meta: &GraphMeta) -> (u32, bool) {
        if v == self.root {
            (0, true)
        } else {
            (UNREACHED, false)
        }
    }

    fn gen_msg(&self, _src: VertexId, value: u32, _d: u32, _meta: &GraphMeta) -> Option<u32> {
        if value >= UNREACHED {
            None
        } else {
            Some(value + 1)
        }
    }

    fn compute(
        &self,
        _v: VertexId,
        acc: Option<u32>,
        basis: u32,
        msg: u32,
        _meta: &GraphMeta,
    ) -> u32 {
        acc.unwrap_or(basis).min(msg)
    }

    fn changed(&self, basis: u32, new: u32) -> bool {
        new < basis
    }

    fn freshest(&self, a: u32, b: u32) -> u32 {
        a.min(b)
    }

    fn fold_batch(&self, slab: &MsgSlab<u32>, ctx: &mut FoldCtx<'_, Self>) {
        kernels::fold_min_u32(self, slab, ctx);
    }
}

/// Connected components by label propagation: every vertex converges to
/// the minimum vertex id reachable along (directed) edges. Run on a
/// symmetrized graph for undirected components, as the paper's CC does.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConnectedComponents;

impl VertexProgram for ConnectedComponents {
    type Value = u32;
    type MsgVal = u32;

    fn init(&self, v: VertexId, _meta: &GraphMeta) -> (u32, bool) {
        (v, true)
    }

    fn gen_msg(&self, _src: VertexId, value: u32, _d: u32, _meta: &GraphMeta) -> Option<u32> {
        Some(value)
    }

    fn compute(
        &self,
        _v: VertexId,
        acc: Option<u32>,
        basis: u32,
        msg: u32,
        _meta: &GraphMeta,
    ) -> u32 {
        acc.unwrap_or(basis).min(msg)
    }

    fn changed(&self, basis: u32, new: u32) -> bool {
        new < basis
    }

    fn freshest(&self, a: u32, b: u32) -> u32 {
        a.min(b)
    }

    fn fold_batch(&self, slab: &MsgSlab<u32>, ctx: &mut FoldCtx<'_, Self>) {
        kernels::fold_min_u32(self, slab, ctx);
    }
}

/// Single-source shortest paths with deterministic synthetic edge weights
/// `w(u, v) = 1 + ((u ^ v) & 7)` — the graphs are unweighted, so weights
/// are derived on the fly; this exercises a non-unit-distance relaxation
/// path distinct from BFS.
#[derive(Debug, Clone, Copy)]
pub struct Sssp {
    /// Source vertex.
    pub root: VertexId,
}

impl Sssp {
    /// The synthetic weight of edge `(u, v)`.
    #[inline]
    pub fn weight(u: VertexId, v: VertexId) -> u32 {
        1 + ((u ^ v) & 7)
    }
}

impl VertexProgram for Sssp {
    type Value = u32;
    /// `(distance at source, source id)` — the weight is applied at the
    /// destination, which knows both endpoints.
    type MsgVal = (u32, VertexId);

    fn init(&self, v: VertexId, _meta: &GraphMeta) -> (u32, bool) {
        if v == self.root {
            (0, true)
        } else {
            (UNREACHED, false)
        }
    }

    fn gen_msg(
        &self,
        src: VertexId,
        value: u32,
        _d: u32,
        _meta: &GraphMeta,
    ) -> Option<(u32, VertexId)> {
        if value >= UNREACHED {
            None
        } else {
            Some((value, src))
        }
    }

    fn compute(
        &self,
        v: VertexId,
        acc: Option<u32>,
        basis: u32,
        (dist, src): (u32, VertexId),
        _meta: &GraphMeta,
    ) -> u32 {
        let candidate = dist.saturating_add(Self::weight(src, v)).min(UNREACHED);
        acc.unwrap_or(basis).min(candidate)
    }

    fn changed(&self, basis: u32, new: u32) -> bool {
        new < basis
    }

    fn freshest(&self, a: u32, b: u32) -> u32 {
        a.min(b)
    }

    fn fold_batch(&self, slab: &MsgSlab<(u32, VertexId)>, ctx: &mut FoldCtx<'_, Self>) {
        kernels::fold_min_u32_by(self, slab, ctx, |v, (dist, src)| {
            dist.saturating_add(Self::weight(src, v)).min(UNREACHED)
        });
    }
}

/// In-degree counting: every vertex sends `1` to each out-neighbor in
/// superstep 0; sums arrive in one superstep. Run with
/// [`crate::Termination::Supersteps`]`(1)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct InDegree;

impl VertexProgram for InDegree {
    type Value = u32;
    type MsgVal = u32;

    fn init(&self, _v: VertexId, _meta: &GraphMeta) -> (u32, bool) {
        (0, true)
    }

    fn gen_msg(&self, _src: VertexId, _value: u32, _d: u32, _meta: &GraphMeta) -> Option<u32> {
        Some(1)
    }

    fn compute(
        &self,
        _v: VertexId,
        acc: Option<u32>,
        _basis: u32,
        msg: u32,
        _meta: &GraphMeta,
    ) -> u32 {
        acc.unwrap_or(0) + msg
    }

    // In-degree accumulates from zero each superstep; the previous value
    // is irrelevant.
    fn freshest(&self, _a: u32, b: u32) -> u32 {
        b
    }
}

/// K-core decomposition membership by iterative peeling (an extension
/// beyond the paper's three benchmarks, showing the message-driven model
/// handles *retraction*-style algorithms too).
///
/// Run on a **symmetrized** graph. Vertex state encodes
/// `residual_degree + 1` while alive and `0` once removed; a vertex whose
/// residual degree drops below `k` is peeled and sends one decrement to
/// each neighbor. At quiescence, exactly the `k`-core has non-zero state.
///
/// Degrees must be supplied up front (the engine's `init` hook does not
/// see the graph): build with [`KCore::new`].
#[derive(Debug, Clone)]
pub struct KCore {
    /// Core parameter.
    pub k: u32,
    degrees: std::sync::Arc<Vec<u32>>,
}

impl KCore {
    /// A `k`-core program for a graph with the given per-vertex
    /// (out-)degrees — equal to undirected degrees on a symmetrized graph.
    pub fn new(k: u32, degrees: Vec<u32>) -> Self {
        KCore {
            k,
            degrees: std::sync::Arc::new(degrees),
        }
    }

    /// Decode an engine result value: `Some(residual_degree)` for members
    /// of the k-core, `None` for peeled vertices.
    pub fn decode(value: u32) -> Option<u32> {
        value.checked_sub(1)
    }
}

/// Encoded "peeled" state.
const REMOVED: u32 = 0;

impl VertexProgram for KCore {
    type Value = u32;
    /// Number of removed in-neighbors (decrement amount).
    type MsgVal = u32;

    fn init(&self, v: VertexId, _meta: &GraphMeta) -> (u32, bool) {
        let d = self.degrees[v as usize];
        if d < self.k {
            (REMOVED, true) // peeled immediately; dispatches its decrements
        } else {
            (d + 1, false)
        }
    }

    fn gen_msg(&self, _src: VertexId, value: u32, _d: u32, _meta: &GraphMeta) -> Option<u32> {
        // Only vertices that just transitioned to REMOVED announce; alive
        // vertices whose residual merely shrank stay silent.
        if value == REMOVED {
            Some(1)
        } else {
            None
        }
    }

    fn compute(
        &self,
        _v: VertexId,
        acc: Option<u32>,
        basis: u32,
        msg: u32,
        _meta: &GraphMeta,
    ) -> u32 {
        let cur = acc.unwrap_or(basis);
        if cur == REMOVED {
            return REMOVED; // decrements to a peeled vertex are moot
        }
        let residual = (cur - 1).saturating_sub(msg);
        if residual < self.k {
            REMOVED
        } else {
            residual + 1
        }
    }

    fn changed(&self, basis: u32, new: u32) -> bool {
        new < basis
    }

    // Residuals only decrease, so min picks the freshest copy — and keeps
    // REMOVED (0) absorbing.
    fn freshest(&self, a: u32, b: u32) -> u32 {
        a.min(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const META: GraphMeta = GraphMeta {
        n_vertices: 4,
        n_edges: 5,
    };

    #[test]
    fn pagerank_fold_accumulates_damped_sum() {
        let pr = PageRank::default();
        let (v0, active) = pr.init(0, &META);
        assert!(active);
        assert!((v0 - 0.25).abs() < 1e-6);
        let m = pr.gen_msg(0, 0.25, 2, &META).unwrap();
        assert!((m - 0.125).abs() < 1e-6);
        assert_eq!(pr.gen_msg(0, 0.25, 0, &META), None);
        let base = 0.15 / 4.0;
        let a = pr.compute(1, None, 0.25, 0.125, &META);
        assert!((a - (base + 0.85 * 0.125)).abs() < 1e-6);
        let b = pr.compute(1, Some(a), 0.25, 0.1, &META);
        assert!((b - (a + 0.085)).abs() < 1e-6);
        assert!(pr.always_dispatch());
        assert!(pr.changed(0.5, 0.5));
        assert!((pr.delta(0.5, 0.75) - 0.25).abs() < 1e-9);
    }

    #[test]
    fn bfs_relaxes_min_levels() {
        let bfs = Bfs { root: 2 };
        assert_eq!(bfs.init(2, &META), (0, true));
        assert_eq!(bfs.init(0, &META), (UNREACHED, false));
        assert_eq!(bfs.gen_msg(2, 0, 3, &META), Some(1));
        assert_eq!(bfs.gen_msg(0, UNREACHED, 3, &META), None);
        assert_eq!(bfs.compute(1, None, UNREACHED, 1, &META), 1);
        assert_eq!(bfs.compute(1, Some(1), UNREACHED, 3, &META), 1);
        assert!(bfs.changed(UNREACHED, 1));
        assert!(!bfs.changed(1, 1));
        assert_eq!(bfs.freshest(5, 3), 3);
    }

    #[test]
    fn cc_propagates_min_label() {
        let cc = ConnectedComponents;
        assert_eq!(cc.init(3, &META), (3, true));
        assert_eq!(cc.gen_msg(3, 3, 1, &META), Some(3));
        assert_eq!(cc.compute(1, None, 7, 3, &META), 3);
        assert_eq!(cc.compute(1, Some(3), 7, 5, &META), 3);
    }

    #[test]
    fn sssp_weights_are_deterministic_and_bounded() {
        for u in 0..20u32 {
            for v in 0..20u32 {
                let w = Sssp::weight(u, v);
                assert!((1..=8).contains(&w));
                assert_eq!(w, Sssp::weight(u, v));
            }
        }
        let p = Sssp { root: 0 };
        let msg = p.gen_msg(0, 0, 2, &META).unwrap();
        assert_eq!(msg, (0, 0));
        let d = p.compute(3, None, UNREACHED, msg, &META);
        assert_eq!(d, Sssp::weight(0, 3));
    }

    #[test]
    fn sssp_saturates_at_unreached() {
        let p = Sssp { root: 0 };
        let d = p.compute(1, None, UNREACHED, (UNREACHED - 1, 0), &META);
        assert_eq!(d, UNREACHED);
    }

    #[test]
    fn indegree_counts_messages() {
        let p = InDegree;
        let a = p.compute(1, None, 0, 1, &META);
        let b = p.compute(1, Some(a), 0, 1, &META);
        assert_eq!(b, 2);
        assert_eq!(p.freshest(9, 4), 4);
    }
}
