//! The user-facing vertex program API (the paper's `initialize`,
//! `genMsg` and `compute` hooks, §IV-E/F).

use gpsa_graph::VertexId;

use crate::kernels::FoldCtx;
use crate::slab::MsgSlab;
use crate::value::VertexValue;

/// Static facts about the graph, available to every hook.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphMeta {
    /// Number of vertices.
    pub n_vertices: u64,
    /// Number of edges.
    pub n_edges: u64,
}

/// A vertex-centric program executed by the GPSA engine.
///
/// The engine drives the program as follows, per superstep:
///
/// 1. **Dispatch**: for every vertex whose value was updated in the
///    previous superstep, [`gen_msg`](Self::gen_msg) produces the message
///    value sent along each of the vertex's out-edges.
/// 2. **Compute** (overlapping with dispatch): for every arriving message,
///    [`compute`](Self::compute) folds it into the destination vertex's
///    accumulator in the update column. On the vertex's first message of
///    the superstep the accumulator is empty (`acc == None`) and `basis`
///    carries the vertex's freshest previous value.
/// 3. After each fold the engine stores the result and marks the vertex
///    updated iff [`changed`](Self::changed)`(basis, new)`.
///
/// Messages are uniform across a vertex's out-edges (the graph is
/// unweighted, as in all the paper's benchmarks); the out-degree is passed
/// so programs like PageRank can scale by it.
pub trait VertexProgram: Send + Sync + 'static {
    /// The per-vertex state, stored in the value file.
    type Value: VertexValue;
    /// The message payload.
    type MsgVal: Copy + Send + Sync + 'static;

    /// Initial value of `v`, and whether `v` starts active (dispatches in
    /// superstep 0).
    fn init(&self, v: VertexId, meta: &GraphMeta) -> (Self::Value, bool);

    /// Message value the active vertex `src` with value `value` and
    /// `out_degree` out-edges sends to **each** of its neighbors; `None`
    /// sends nothing.
    fn gen_msg(
        &self,
        src: VertexId,
        value: Self::Value,
        out_degree: u32,
        meta: &GraphMeta,
    ) -> Option<Self::MsgVal>;

    /// Fold `msg` into the accumulator of destination vertex `v`. `acc`
    /// is `None` on the first message `v` receives in a superstep; `basis`
    /// is the vertex's freshest value from previous supersteps.
    fn compute(
        &self,
        v: VertexId,
        acc: Option<Self::Value>,
        basis: Self::Value,
        msg: Self::MsgVal,
        meta: &GraphMeta,
    ) -> Self::Value;

    /// Does `new` count as an update relative to `basis`? Controls both
    /// the flag bit (whether the vertex dispatches next superstep) and the
    /// engine's quiescence detection. Default: plain inequality, as in
    /// paper Algorithm 3 (`if newVal != val then update()`).
    fn changed(&self, basis: Self::Value, new: Self::Value) -> bool {
        new != basis
    }

    /// Pick the fresher of the two buffered copies of a vertex's value.
    ///
    /// The two value-file columns hold the vertex's last two written
    /// values; for a vertex that skipped a superstep, the *older* column
    /// is the freshest (the paper's protocol glosses over this). Monotone
    /// programs (BFS, CC) should return the better value; programs that
    /// update every active vertex every superstep (PageRank) can keep the
    /// default, which trusts the dispatch-column copy as the paper does.
    fn freshest(&self, dispatch_copy: Self::Value, _update_copy: Self::Value) -> Self::Value {
        dispatch_copy
    }

    /// Contribution of one vertex update to the superstep's convergence
    /// metric (used by [`crate::Termination::Delta`]). Default `0`.
    fn delta(&self, _basis: Self::Value, _new: Self::Value) -> f64 {
        0.0
    }

    /// New value of a vertex that received **no** messages in a superstep.
    ///
    /// Only consulted for always-dispatch programs (see
    /// [`always_dispatch`](Self::always_dispatch)), where every vertex must
    /// be re-evaluated every superstep even without input: PageRank's rank
    /// of an in-degree-zero vertex is `(1-d)/N`, not its previous value.
    /// Sparse programs never see this called.
    fn no_message_value(&self, _v: VertexId, basis: Self::Value, _meta: &GraphMeta) -> Self::Value {
        basis
    }

    /// Fold one whole message slab into the update column — the batch
    /// hot path. The default replays the slab through the scalar
    /// per-message [`compute`](Self::compute) protocol via
    /// [`FoldCtx::fold_scalar_slab`] (always correct; also the oracle the
    /// kernel overrides are proptested against). Programs whose fold is
    /// a u32 min (BFS, CC, SSSP) or an f32 damped sum (PageRank) override
    /// this with the tight kernels in [`crate::kernels`]; overrides must
    /// be **bit-identical** to the scalar replay, including the
    /// first-message bookkeeping (`basis` seeding, dirty list, frontier
    /// mark) and run order (f32 folds are order-sensitive).
    fn fold_batch(&self, slab: &MsgSlab<Self::MsgVal>, ctx: &mut FoldCtx<'_, Self>)
    where
        Self: Sized,
    {
        ctx.fold_scalar_slab(self, slab);
    }

    /// Dispatch every vertex every superstep, ignoring the updated flag.
    ///
    /// Message-driven accumulators rebuild a vertex's value from the
    /// messages of one superstep, so a *dense* program like PageRank —
    /// where each rank is a sum over **all** in-neighbors — must keep all
    /// sources sending every superstep; selective scheduling would
    /// silently drop the contribution of any in-neighbor that went quiet.
    /// Sparse, monotone programs (BFS, CC) keep the default `false` and
    /// get the paper's inactive-vertex skipping.
    fn always_dispatch(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct MinLabel;
    impl VertexProgram for MinLabel {
        type Value = u32;
        type MsgVal = u32;
        fn init(&self, v: VertexId, _m: &GraphMeta) -> (u32, bool) {
            (v, true)
        }
        fn gen_msg(&self, _src: VertexId, value: u32, _d: u32, _m: &GraphMeta) -> Option<u32> {
            Some(value)
        }
        fn compute(
            &self,
            _v: VertexId,
            acc: Option<u32>,
            basis: u32,
            msg: u32,
            _m: &GraphMeta,
        ) -> u32 {
            acc.unwrap_or(basis).min(msg)
        }
        fn freshest(&self, a: u32, b: u32) -> u32 {
            a.min(b)
        }
    }

    #[test]
    fn default_changed_is_inequality() {
        let p = MinLabel;
        assert!(p.changed(5, 3));
        assert!(!p.changed(5, 5));
    }

    #[test]
    fn fold_sequence_behaves_like_min() {
        let p = MinLabel;
        let meta = GraphMeta {
            n_vertices: 10,
            n_edges: 0,
        };
        let a = p.compute(0, None, 7, 9, &meta);
        assert_eq!(a, 7);
        let b = p.compute(0, Some(a), 7, 2, &meta);
        assert_eq!(b, 2);
    }
}
