//! The dispatch actor (paper Algorithm 2), chunked.
//!
//! Each dispatcher owns a vertex-id interval of the mmap'ed CSR edge
//! file. On ITERATION_START it streams its interval: skips vertices whose
//! dispatch-column value carries the not-updated flag, otherwise generates
//! one message value via the program's `genMsg` and routes a copy to the
//! compute actor owning each out-neighbor, batching per destination actor.
//! After a vertex is dispatched its dispatch-column slot is invalidated
//! (flag set) — pre-clearing the slot for its next life as the update
//! column.
//!
//! ## Chunked dispatch
//!
//! The interval is not scanned in one activation. Each activation covers a
//! slice of roughly `dispatch_chunk` edges and then self-sends a
//! [`DispatchCmd::Chunk`] for the remainder, so (a) the actor scheduler's
//! fairness batch and work stealing apply to dispatch work, (b) compute
//! batches interleave with later chunks for deeper dispatch/compute
//! overlap, and (c) a long interval cannot monopolize a worker thread.
//! DISPATCH_OVER is only reported after the final chunk. Chunk
//! self-messages never interleave with the next superstep's START: the
//! manager does not start superstep `s+1` until every dispatcher reported
//! DISPATCH_OVER for `s` and every computer flushed.
//!
//! ## Run emission
//!
//! Messages within one source's record are *uniform* (`gen_msg` is called
//! once per vertex), so outgoing buffers are struct-of-arrays
//! [`MsgSlab`]s: each dispatched record appends its destination ids as one
//! *run* sharing a single message value, instead of pushing a
//! `(dst, msg)` tuple per edge. On the dense single-computer path the CSR
//! record is decoded **directly into the slab's destination column**
//! (`take_rec_into`), and flagged records are skipped without decoding at
//! all (`skip_rec`). Buffers are recycled through the shared
//! [`MsgSlabPool`](crate::MsgSlabPool) rather than allocated per flush.
//! Same-destination messages are not combined here: run emission plus
//! the batch fold kernels made the duplicate folds cheaper than any
//! per-destination merge at push time (EXPERIMENTS.md, "fold_kernels").
//!
//! ## Sparse (frontier-driven) dispatch
//!
//! When the superstep's frontier is sparse, sweeping the whole interval
//! reads mostly-skippable records. In **sparse mode** the dispatcher
//! instead iterates the set bits of the active-vertex bitmap
//! ([`crate::Frontier`]) and *seeks* to each active vertex's edge run via
//! the CSR word-offset index, with adjacent active vertices coalesced into
//! one contiguous read ([`gpsa_graph::SeekCursor`]); the touched window is
//! `madvise(Random)`d instead of the whole map. The mode is chosen per
//! dispatcher per superstep from the interval's bitmap popcount carried on
//! START: sparse below [`SPARSE_DENSITY`] of the interval, dense otherwise
//! ([`choose_sparse`]); dense sweeps re-advise `Sequential`.
//! Because the bitmap is a superset of the flag-clear set and both modes
//! visit candidates in ascending id order with the same flag check, the
//! two modes dispatch byte-identical message streams. Programs with
//! `always_dispatch` and strided assignments always use the dense path
//! (their frontier is the whole interval / non-contiguous).

use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use actor::{Actor, Addr, Ctx};
use gpsa_graph::{GraphSnapshot, VertexId};
use gpsa_mmap::Advice;

use crate::computer::{ComputeCmd, Computer};
use crate::manager::{Manager, ManagerMsg};
use crate::partition::DispatchAssignment;
use crate::program::{GraphMeta, VertexProgram};
use crate::slab::{split_run, MsgSlab, MsgSlabPool};
use crate::value_file::ValueFile;
use crate::word::{clear_flag, is_flagged};
use crate::VertexValue;

/// Mailbox protocol of a dispatch actor.
#[derive(Debug)]
pub(crate) enum DispatchCmd {
    /// ITERATION_START for `superstep`, reading the given dispatch column.
    /// `active` is the manager's popcount of this dispatcher's assignment
    /// in the frontier bitmap — the density input for the sparse/dense
    /// choice.
    Start {
        superstep: u64,
        dispatch_col: u32,
        active: u64,
    },
    /// Continue the current superstep's scan over `range` (a cooperative
    /// self-message; the first ~chunk's worth of `range` is processed and
    /// the rest re-enqueued). The sparse/dense choice made at START holds
    /// for every chunk of the superstep.
    Chunk {
        superstep: u64,
        dispatch_col: u32,
        range: Range<VertexId>,
    },
    /// SYSTEM_OVER.
    Shutdown,
}

/// Frontier density below which an interval is dispatched sparse.
/// Seeking per vertex beats a full sweep only when most records are
/// skippable; 5% is conservative for 4 KiB pages (Beamer-style direction
/// switching, applied to I/O).
const SPARSE_DENSITY: f64 = 0.05;

/// The sparse/dense decision for one dispatcher's superstep, given the
/// popcount of its interval in the frontier bitmap: sparse when `active`
/// is below [`SPARSE_DENSITY`] of a non-empty interval. Only contiguous
/// (Range) assignments without `always_dispatch` are eligible: a dense
/// program's frontier is its whole interval, and a strided assignment's
/// active set is non-contiguous in the bitmap anyway.
fn choose_sparse(assignment: &DispatchAssignment, always_dispatch: bool, active: u64) -> bool {
    if always_dispatch || !matches!(assignment, DispatchAssignment::Range(_)) {
        return false;
    }
    let len = assignment.len() as f64;
    len > 0.0 && (active as f64) < SPARSE_DENSITY * len
}

pub(crate) struct Dispatcher<P: VertexProgram> {
    /// Index of this dispatcher (stable; used for per-actor statistics).
    pub id: usize,
    pub program: Arc<P>,
    /// The merged live-graph view: the immutable CSR plus any delta
    /// overlay, so dense sweeps and sparse seeks see mutations without
    /// re-preprocessing.
    pub graph: Arc<GraphSnapshot>,
    pub values: Arc<ValueFile>,
    pub meta: GraphMeta,
    pub assignment: DispatchAssignment,
    pub computers: Vec<Addr<Computer<P>>>,
    pub manager: Addr<Manager<P>>,
    /// Per-computer output buffers, flushed at `msg_batch` destinations.
    pub buffers: Vec<MsgSlab<P::MsgVal>>,
    pub msg_batch: usize,
    /// Shared slab free-list backing `buffers` (see [`MsgSlabPool`]).
    pub pool: Arc<MsgSlabPool<P::MsgVal>>,
    /// Edges per cooperative chunk; `u64::MAX` scans the whole interval
    /// in one activation.
    pub chunk_edges: u64,
    /// Messages sent so far in the in-flight superstep (accumulated
    /// across chunks, reported with DISPATCH_OVER).
    pub step_sent: u64,
    /// CSR body words actually read this superstep (accumulated across
    /// chunks, reported with DISPATCH_OVER).
    pub step_streamed: u64,
    /// CSR body *bytes* actually read this superstep. Words measure
    /// logical work; bytes measure physical I/O, which is what the v2
    /// compressed format shrinks.
    pub step_bytes: u64,
    /// Wall-clock µs spent inside this superstep's chunks (accumulated,
    /// reported with DISPATCH_OVER for the phase breakdown).
    pub step_dispatch_us: u64,
    /// Of that, µs spent waiting on [`MsgSlabPool::acquire`] during
    /// flushes — backpressure from computers still holding slabs.
    pub step_slab_wait_us: u64,
    /// Scratch buffer for random-access record decodes on the strided
    /// path (reused across vertices; v2 decodes into it, v1 borrows the
    /// map directly).
    pub scratch: Vec<VertexId>,
    /// The sparse/dense choice made at START, sticky across this
    /// superstep's chunks.
    pub sparse_now: bool,
    /// Whether the last madvise issued for our window was `Random` (so a
    /// dense superstep after a sparse one restores `Sequential`).
    pub advised_random: bool,
    /// Dispatch every vertex regardless of its flag (dense programs like
    /// PageRank; see `VertexProgram::always_dispatch`).
    pub always_dispatch: bool,
    /// Chaos harness: scripted dispatcher panics (per-chunk check).
    #[cfg(feature = "chaos")]
    pub fault: Option<Arc<crate::fault::FaultPlan>>,
}

impl<P: VertexProgram> Dispatcher<P> {
    /// Flush one per-computer buffer, returning how many messages went
    /// out. The buffer is replaced with a recycled slab from the pool;
    /// the computer releases the sent one back after folding it.
    fn flush_buffer(&mut self, owner: usize, update_col: u32) -> u64 {
        if self.buffers[owner].is_empty() {
            return 0;
        }
        debug_assert!(
            !self.buffers[owner].has_open_run(),
            "flush with an unsealed run"
        );
        let wait = Instant::now();
        let fresh = self.pool.acquire();
        self.step_slab_wait_us += wait.elapsed().as_micros() as u64;
        let slab = std::mem::replace(&mut self.buffers[owner], fresh);
        let sent = slab.len() as u64;
        let _ = self.computers[owner].send(ComputeCmd::Batch { update_col, slab });
        sent
    }

    /// Append one dispatched record's messages to the outgoing buffers:
    /// one run per owner, target `dst` going to computer `dst % k`.
    fn emit(&mut self, targets: &[VertexId], msg: P::MsgVal, update_col: u32, sent: &mut u64) {
        if self.computers.len() == 1 {
            self.buffers[0].extend_run(targets, msg);
            if self.buffers[0].len() >= self.msg_batch {
                *sent += self.flush_buffer(0, update_col);
            }
        } else {
            let k = self.computers.len() as VertexId;
            split_run(&mut self.buffers, targets, msg, |dst| (dst % k) as usize);
            for owner in 0..self.buffers.len() {
                if self.buffers[owner].len() >= self.msg_batch {
                    *sent += self.flush_buffer(owner, update_col);
                }
            }
        }
    }

    /// Process one vertex record: skip-or-dispatch, then invalidate
    /// (Algorithm 2's loop body). Used by the sparse and strided paths,
    /// which materialize [`gpsa_graph::VertexEdges`] records; the dense
    /// sequential path is fused into [`run_chunk`](Self::run_chunk).
    #[inline]
    fn dispatch_vertex(
        &mut self,
        rec: gpsa_graph::VertexEdges<'_>,
        dispatch_col: u32,
        update_col: u32,
        sent: &mut u64,
    ) {
        let bits = self.values.load(dispatch_col, rec.vid);
        if !self.always_dispatch && is_flagged(bits) {
            return; // not updated last superstep — skip (Alg. 2 l.8)
        }
        let value = P::Value::from_bits(clear_flag(bits));
        if let Some(msg) = self.program.gen_msg(rec.vid, value, rec.degree, &self.meta) {
            self.emit(rec.targets, msg, update_col, sent);
        }
        // Invalidate after dispatching (Alg. 2 l.20): the slot is now
        // "no update yet" for its next role as update column.
        self.values.invalidate(dispatch_col, rec.vid);
    }

    /// The id range the whole superstep must cover for this assignment.
    /// For strided assignments this is the global `offset..n_vertices`
    /// span; the per-chunk loop applies the stride.
    fn full_range(&self) -> Range<VertexId> {
        match &self.assignment {
            DispatchAssignment::Range(interval) => interval.clone(),
            DispatchAssignment::Strided {
                offset, n_vertices, ..
            } => (*offset).min(*n_vertices)..*n_vertices,
        }
    }

    /// Issue the superstep's madvise: `Random` over just the seek window
    /// (sparse and strided paths), `Sequential` over the interval when a
    /// dense sweep follows a sparse superstep. Advice is a hint; failures
    /// are ignored.
    fn apply_advice(&mut self, dispatch_col: u32) {
        match &self.assignment {
            DispatchAssignment::Strided { .. } => {
                // Hops between records every superstep — advise `Random`
                // over our span once instead of demoting the whole map.
                if !self.advised_random {
                    let _ = self
                        .graph
                        .advise_vertex_range(self.full_range(), Advice::Random);
                    self.advised_random = true;
                }
            }
            DispatchAssignment::Range(interval) => {
                if self.sparse_now {
                    if let Some(window) = self
                        .values
                        .frontier()
                        .bounds(dispatch_col, interval.clone())
                    {
                        let _ = self.graph.advise_vertex_range(window, Advice::Random);
                        self.advised_random = true;
                    }
                } else if self.advised_random {
                    let _ = self
                        .graph
                        .advise_vertex_range(interval.clone(), Advice::Sequential);
                    self.advised_random = false;
                }
            }
        }
    }

    /// Where the current chunk of `range` should stop.
    fn chunk_end(&self, range: &Range<VertexId>) -> VertexId {
        if self.chunk_edges == u64::MAX || range.start >= range.end {
            return range.end;
        }
        match &self.assignment {
            DispatchAssignment::Range(_) => self.graph.chunk_end(range.clone(), self.chunk_edges),
            DispatchAssignment::Strided { stride, .. } => {
                // Random-access path: per-chunk edge counts would cost an
                // index lookup per vertex, so budget by vertex count at the
                // graph's mean degree instead.
                let n = self.graph.n_vertices().max(1) as u64;
                let mean_degree = (self.graph.n_edges() as u64 / n).max(1);
                let vertices = (self.chunk_edges / mean_degree).max(1);
                let span = vertices.saturating_mul(u64::from(*stride));
                (u64::from(range.start).saturating_add(span)).min(u64::from(range.end)) as VertexId
            }
        }
    }

    /// Run one cooperative chunk: scan `[range.start, chunk_end)`, then
    /// either self-send the remainder or finish the superstep (flush all
    /// buffers, report DISPATCH_OVER).
    fn run_chunk(
        &mut self,
        superstep: u64,
        dispatch_col: u32,
        range: Range<VertexId>,
        ctx: &mut Ctx<'_, Self>,
    ) {
        let chunk_start = Instant::now();
        let update_col = 1 - dispatch_col;
        let mut sent = 0u64;
        let graph = self.graph.clone();
        // Remainder to re-enqueue, `None` when this chunk ends the
        // superstep.
        let mut remainder: Option<Range<VertexId>> = None;
        if self.sparse_now {
            // Frontier-driven seeks: visit only bitmap-set vertices, in
            // the same ascending order the dense sweep would, coalescing
            // adjacent runs. The budget is on words actually read, so a
            // sparse chunk does about as much I/O as a dense one.
            let values = self.values.clone();
            let mut cursor = graph.seek_cursor();
            for v in values.frontier().iter_set(dispatch_col, range.clone()) {
                if self.chunk_edges != u64::MAX && cursor.words_read() >= self.chunk_edges {
                    remainder = Some(v..range.end);
                    break;
                }
                let rec = cursor.record(v);
                self.dispatch_vertex(rec, dispatch_col, update_col, &mut sent);
            }
            self.step_streamed += cursor.words_read();
            self.step_bytes += cursor.bytes_read();
        } else {
            let end = self.chunk_end(&range);
            match self.assignment.clone() {
                // Sequential streaming over a contiguous interval — the
                // hot path, fused with the slab: the flag is checked
                // *before* the record is decoded (`skip_rec` advances the
                // cursor without touching edge bytes beyond the index),
                // and a dispatched record's targets decode straight into
                // the outgoing slab's destination column.
                DispatchAssignment::Range(_) => {
                    let values = self.values.clone();
                    let single = self.computers.len() == 1;
                    let mut cursor = graph.cursor(range.start..end);
                    while let Some(vid) = cursor.peek_vid() {
                        let bits = values.load(dispatch_col, vid);
                        if !self.always_dispatch && is_flagged(bits) {
                            cursor.skip_rec(); // Alg. 2 l.8, sans decode
                            continue;
                        }
                        let value = P::Value::from_bits(clear_flag(bits));
                        let degree = graph.degree(vid);
                        match self.program.gen_msg(vid, value, degree, &self.meta) {
                            None => cursor.skip_rec(),
                            Some(msg) if single => {
                                cursor.take_rec_into(self.buffers[0].dst_buf_mut());
                                self.buffers[0].close_run(msg);
                                if self.buffers[0].len() >= self.msg_batch {
                                    sent += self.flush_buffer(0, update_col);
                                }
                            }
                            Some(msg) => {
                                let mut scratch = std::mem::take(&mut self.scratch);
                                scratch.clear();
                                cursor.take_rec_into(&mut scratch);
                                self.emit(&scratch, msg, update_col, &mut sent);
                                self.scratch = scratch;
                            }
                        }
                        values.invalidate(dispatch_col, vid);
                    }
                    self.step_streamed += cursor.words_read();
                    self.step_bytes += cursor.bytes_read();
                }
                // The paper's "simple mod algorithm": random-access reads of
                // every stride-th vertex record. Chunk boundaries are always
                // `offset + k*stride`, so `range.start` stays on-stride.
                DispatchAssignment::Strided { stride, .. } => {
                    let rec_overhead = graph.record_overhead_words();
                    let mut scratch = std::mem::take(&mut self.scratch);
                    let mut v = range.start;
                    while v < end {
                        self.step_streamed += u64::from(graph.degree(v)) + rec_overhead;
                        self.step_bytes += graph.bytes_in_range(v..v + 1);
                        let rec = graph.record_into(v, &mut scratch);
                        self.dispatch_vertex(rec, dispatch_col, update_col, &mut sent);
                        v = match v.checked_add(stride) {
                            Some(next) => next,
                            None => break,
                        };
                    }
                    self.scratch = scratch;
                }
            }
            if end < range.end {
                remainder = Some(end..range.end);
            }
        }
        self.step_sent += sent;
        // Chunk boundary: a panic here leaves the interval part-scanned
        // and part-invalidated — the messiest mid-superstep state the
        // recovery path must absorb.
        #[cfg(feature = "chaos")]
        if let Some(plan) = &self.fault {
            plan.panic_if_due(
                crate::fault::FaultRole::Dispatcher,
                superstep,
                self.step_sent,
            );
        }
        if let Some(rest) = remainder {
            self.step_dispatch_us += chunk_start.elapsed().as_micros() as u64;
            let _ = ctx.addr().send(DispatchCmd::Chunk {
                superstep,
                dispatch_col,
                range: rest,
            });
        } else {
            for owner in 0..self.buffers.len() {
                self.step_sent += self.flush_buffer(owner, update_col);
            }
            self.step_dispatch_us += chunk_start.elapsed().as_micros() as u64;
            let streamed = std::mem::take(&mut self.step_streamed);
            let skipped = match &self.assignment {
                // What a full sweep of the interval would have read,
                // minus what we did read. Zero for dense supersteps.
                DispatchAssignment::Range(interval) => graph
                    .words_in_range(interval.clone())
                    .saturating_sub(streamed),
                // A strided assignment's skipped records interleave other
                // dispatchers' — "skipped" has no per-actor meaning there.
                DispatchAssignment::Strided { .. } => 0,
            };
            let _ = self.manager.send(ManagerMsg::DispatchOver {
                superstep,
                dispatcher: self.id,
                sent: std::mem::take(&mut self.step_sent),
                streamed,
                bytes: std::mem::take(&mut self.step_bytes),
                skipped,
                dispatch_us: std::mem::take(&mut self.step_dispatch_us),
                slab_wait_us: std::mem::take(&mut self.step_slab_wait_us),
            });
        }
    }
}

impl<P: VertexProgram> Actor for Dispatcher<P> {
    type Msg = DispatchCmd;

    fn handle(&mut self, msg: DispatchCmd, ctx: &mut Ctx<'_, Self>) {
        match msg {
            DispatchCmd::Start {
                superstep,
                dispatch_col,
                active,
            } => {
                self.step_sent = 0;
                self.step_streamed = 0;
                self.step_bytes = 0;
                self.step_dispatch_us = 0;
                self.step_slab_wait_us = 0;
                self.sparse_now = choose_sparse(&self.assignment, self.always_dispatch, active);
                self.apply_advice(dispatch_col);
                let full = self.full_range();
                self.run_chunk(superstep, dispatch_col, full, ctx);
            }
            DispatchCmd::Chunk {
                superstep,
                dispatch_col,
                range,
            } => self.run_chunk(superstep, dispatch_col, range, ctx),
            DispatchCmd::Shutdown => ctx.stop(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn choose_sparse_switches_below_five_percent_of_the_interval() {
        let interval = DispatchAssignment::Range(100..300); // 200 vertices: 5% = 10
        assert!(!choose_sparse(&DispatchAssignment::Range(7..7), false, 0));
        assert!(!choose_sparse(&interval, false, 10));
        assert!(choose_sparse(&interval, false, 9));
        assert!(choose_sparse(&interval, false, 0));
        assert!(!choose_sparse(&interval, true, 0));
        let strided = DispatchAssignment::Strided {
            offset: 0,
            stride: 2,
            n_vertices: 400,
        };
        assert!(!choose_sparse(&strided, false, 0));
    }
}
