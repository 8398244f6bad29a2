//! The compute actor (paper Algorithm 3).
//!
//! A compute actor owns a disjoint set of vertices (computer `i` of `k`
//! owns every `v` with `v % k == i`, the paper's default routing) and is
//! the only writer of their update-column slots.
//! It is purely message-driven: updates begin as soon as the first batch
//! arrives, while dispatchers are still streaming — the overlap that
//! motivates the paper.
//!
//! ## First-message protocol
//!
//! At superstep start every update-column slot is flagged ("no update
//! yet"). On a vertex's first message the accumulator is seeded from
//! [`crate::VertexProgram::freshest`] over the two buffered copies; from
//! then on the slot holds the running accumulator, written flag-clear.
//! When the COMPUTE_OVER token arrives (FIFO mailboxes guarantee it
//! follows every batch), the actor walks its dirty list, re-flags vertices
//! whose final value does not count as changed, and reports its tallies to
//! the manager. Deferring the changed/flag decision to the flush keeps
//! accumulation correct even when an intermediate fold lands exactly on
//! the old value — a case the paper's per-message re-flagging would
//! mis-handle as a fresh first message.

use std::sync::Arc;
use std::time::Instant;

use actor::{Actor, Addr, Ctx};
use gpsa_graph::VertexId;

use crate::kernels::FoldCtx;
use crate::manager::{Manager, ManagerMsg};
use crate::program::{GraphMeta, VertexProgram};
use crate::slab::{MsgSlab, MsgSlabPool, OverlapStats};
use crate::value_file::ValueFile;

/// Mailbox protocol of a compute actor.
pub(crate) enum ComputeCmd<M> {
    /// A slab of message runs targeting the given update column. The
    /// buffer is on loan from the shared pool; the computer releases it
    /// back after folding.
    Batch { update_col: u32, slab: MsgSlab<M> },
    /// COMPUTE_OVER token: finalize the superstep, report to the manager.
    Flush { superstep: u64, update_col: u32 },
    /// SYSTEM_OVER.
    Shutdown,
}

pub(crate) struct Computer<P: VertexProgram> {
    pub program: Arc<P>,
    pub values: Arc<ValueFile>,
    pub meta: GraphMeta,
    pub manager: Addr<Manager<P>>,
    /// Vertices that received their first message this superstep, with
    /// the basis (freshest prior value) they were seeded from. The flush
    /// pass compares the final accumulator against this saved basis —
    /// comparing against the raw dispatch-column payload instead would
    /// use a possibly-stale copy and let two neighbors reactivate each
    /// other forever.
    pub dirty: Vec<(VertexId, P::Value)>,
    /// Messages folded this superstep.
    pub messages: u64,
    /// All vertices routed to this actor — only populated for
    /// always-dispatch (dense) programs, which must re-evaluate every
    /// owned vertex each superstep even if no message arrived.
    pub owned: Vec<VertexId>,
    /// Slab free-list shared with the dispatchers; folded batches are
    /// returned here.
    pub pool: Arc<MsgSlabPool<P::MsgVal>>,
    /// Superstep overlap statistics (time-to-first-batch).
    pub stats: Arc<OverlapStats>,
    /// Wall-clock µs spent folding this superstep (reported with
    /// COMPUTE_OVER for the phase breakdown).
    pub fold_us: u64,
    /// Chaos harness: scripted computer panics (per-batch and at flush).
    #[cfg(feature = "chaos")]
    pub fault: Option<Arc<crate::fault::FaultPlan>>,
}

impl<P: VertexProgram> Computer<P> {
    pub fn new(
        program: Arc<P>,
        values: Arc<ValueFile>,
        meta: GraphMeta,
        manager: Addr<Manager<P>>,
        owned: Vec<VertexId>,
        pool: Arc<MsgSlabPool<P::MsgVal>>,
        stats: Arc<OverlapStats>,
    ) -> Self {
        Computer {
            program,
            values,
            meta,
            manager,
            dirty: Vec::new(),
            messages: 0,
            owned,
            pool,
            stats,
            fold_us: 0,
            #[cfg(feature = "chaos")]
            fault: None,
        }
    }

    /// Fold one slab of runs into the update column through the program's
    /// batch kernel ([`VertexProgram::fold_batch`]) — the per-message
    /// first-message protocol itself lives in [`FoldCtx`], shared between
    /// the kernels and the scalar oracle they are tested against.
    fn fold_slab(&mut self, update_col: u32, slab: &MsgSlab<P::MsgVal>) {
        let fold_start = Instant::now();
        let mut ctx = FoldCtx::new(&self.values, &self.meta, update_col, &mut self.dirty);
        self.program.fold_batch(slab, &mut ctx);
        self.messages += slab.len() as u64;
        self.fold_us += fold_start.elapsed().as_micros() as u64;
    }

    fn flush(&mut self, superstep: u64, update_col: u32) {
        let (activated, delta) =
            FoldCtx::new(&self.values, &self.meta, update_col, &mut self.dirty)
                .flush(&*self.program, &self.owned);
        let messages = std::mem::take(&mut self.messages);
        let _ = self.manager.send(ManagerMsg::ComputeOver {
            superstep,
            activated,
            delta,
            messages,
            fold_us: std::mem::take(&mut self.fold_us),
        });
    }
}

impl<P: VertexProgram> Actor for Computer<P> {
    type Msg = ComputeCmd<P::MsgVal>;

    fn handle(&mut self, msg: ComputeCmd<P::MsgVal>, ctx: &mut Ctx<'_, Self>) {
        match msg {
            ComputeCmd::Batch { update_col, slab } => {
                self.stats.record_first_batch();
                self.fold_slab(update_col, &slab);
                self.pool.release(slab);
                // Batch boundary: the update column now holds a partial
                // fold that recovery must throw away.
                #[cfg(feature = "chaos")]
                if let Some(plan) = &self.fault {
                    plan.panic_if_due(crate::fault::FaultRole::Computer, 0, self.messages);
                }
            }
            ComputeCmd::Flush {
                superstep,
                update_col,
            } => {
                #[cfg(feature = "chaos")]
                if let Some(plan) = &self.fault {
                    plan.panic_if_due(
                        crate::fault::FaultRole::Computer,
                        superstep,
                        crate::fault::FaultPlan::AT_FLUSH,
                    );
                }
                self.flush(superstep, update_col)
            }
            ComputeCmd::Shutdown => ctx.stop(),
        }
    }
}
