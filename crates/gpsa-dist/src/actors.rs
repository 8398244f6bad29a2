//! The distributed variants of the GPSA actors. Protocol identical to
//! `gpsa-core` (paper Algorithms 1–3); the differences are that every
//! actor knows which *node* it lives on, state accesses go to that node's
//! value-file shard, and cross-node sends are tallied in the
//! [`TrafficMatrix`].
//!
//! The hot path is the engine's own: dispatchers emit each record as
//! runs into one [`MsgSlab`] per computer ([`gpsa::split_run`], the
//! engine dispatcher's multi-computer path), slabs cycle through the
//! cluster's [`MsgSlabPool`], computers fold a slab with the
//! program's [`VertexProgram::fold_batch`] kernel and end the superstep
//! with [`FoldCtx::flush`] — the same function the engine's computer
//! calls. Nothing is combined at push time.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use actor::{Actor, Addr, Ctx};
use gpsa::{
    clear_flag, is_flagged, split_run, FoldCtx, GraphMeta, MsgSlab, MsgSlabPool, Termination,
    ValueFile, VertexProgram, VertexValue,
};
use gpsa_graph::{DiskCsr, VertexId};

use crate::manifest::{BarrierRecord, ClusterManifest};
use crate::recovery::{AttemptEvent, SharedStats};
use crate::traffic::TrafficMatrix;

/// Global routing: vertex → (node, compute actor).
///
/// Node `i` owns the contiguous id range between its cut points. The cut
/// balances out-edges (see [`crate::cluster`]), so a range may be empty
/// when a hub vertex holds more than `1/n` of the edges.
#[derive(Debug, Clone)]
pub(crate) struct DistRouter {
    /// The `n_nodes - 1` interior cut points, ascending: node `i` owns
    /// `bounds[i - 1]..bounds[i]`, with `0` and `n_vertices` at the ends.
    pub bounds: Vec<VertexId>,
    pub n_vertices: VertexId,
    pub computers_per_node: usize,
}

impl DistRouter {
    /// The node whose range holds `v`; ids past the vertex space go to
    /// the last node.
    #[inline]
    pub fn node_of_vertex(&self, v: VertexId) -> usize {
        self.bounds.partition_point(|&b| b <= v)
    }

    /// Index into the global computer list.
    #[inline]
    pub fn computer_of_vertex(&self, v: VertexId) -> usize {
        self.node_of_vertex(v) * self.computers_per_node
            + (v % self.computers_per_node as VertexId) as usize
    }

    #[inline]
    pub fn node_of_computer(&self, idx: usize) -> usize {
        idx / self.computers_per_node
    }

    /// Vertex range owned by `node`.
    pub fn node_range(&self, node: usize) -> Range<VertexId> {
        let lo = if node == 0 { 0 } else { self.bounds[node - 1] };
        let hi = self.bounds.get(node).copied().unwrap_or(self.n_vertices);
        lo..hi
    }
}

pub(crate) enum DispatchCmd {
    Start { superstep: u64, dispatch_col: u32 },
    Shutdown,
}

pub(crate) enum ComputeCmd<M> {
    /// A slab of message runs on loan from the run's pool; the computer
    /// releases it back after folding.
    Batch {
        update_col: u32,
        slab: MsgSlab<M>,
    },
    Flush {
        superstep: u64,
        update_col: u32,
    },
    Shutdown,
}

pub(crate) enum CoordinatorMsg<P: VertexProgram> {
    Wire {
        dispatchers: Vec<Addr<DistDispatcher<P>>>,
        computers: Vec<Addr<DistComputer<P>>>,
    },
    DispatchOver {
        superstep: u64,
    },
    ComputeOver {
        superstep: u64,
        activated: u64,
        delta: f64,
        messages: u64,
    },
}

pub(crate) struct DistDispatcher<P: VertexProgram> {
    pub node: usize,
    pub program: Arc<P>,
    pub graph: Arc<DiskCsr>,
    pub values: Arc<ValueFile>,
    pub meta: GraphMeta,
    pub interval: Range<VertexId>,
    pub router: Arc<DistRouter>,
    pub computers: Vec<Addr<DistComputer<P>>>,
    pub coordinator: Addr<Coordinator<P>>,
    pub traffic: Arc<TrafficMatrix>,
    /// One outgoing slab per global computer, flushed at `msg_batch`
    /// destinations.
    pub buffers: Vec<MsgSlab<P::MsgVal>>,
    /// Slab free-list shared by every actor (kept by the `Cluster`).
    pub pool: Arc<MsgSlabPool<P::MsgVal>>,
    /// Decode buffer for a record's targets before they are split.
    pub scratch: Vec<VertexId>,
    pub msg_batch: usize,
    pub always_dispatch: bool,
    /// Superstep currently being dispatched (chaos batch faults key on it).
    pub superstep: u64,
    /// Cluster recovery epoch: bumped by the recovery loop when this
    /// fleet is abandoned. A zombie worker (e.g. one sleeping through a
    /// chaos-injected network delay) re-checks it and bails before
    /// touching shared state the resumed fleet now owns.
    pub epoch: Arc<AtomicU64>,
    pub my_epoch: u64,
    #[cfg(feature = "chaos")]
    pub fault: Option<Arc<gpsa::fault::FaultPlan>>,
}

impl<P: VertexProgram> DistDispatcher<P> {
    /// True when the recovery loop moved on without this fleet — this
    /// worker is a zombie and must stop touching shared state.
    #[inline]
    fn abandoned(&self) -> bool {
        self.epoch.load(Ordering::Relaxed) != self.my_epoch
    }

    fn flush_buffer(&mut self, owner: usize, update_col: u32) {
        if self.buffers[owner].is_empty() {
            return;
        }
        #[cfg(feature = "chaos")]
        if self.router.node_of_computer(owner) != self.node {
            if let Some(plan) = &self.fault {
                match plan.take_batch_fault(self.node as u32, self.superstep) {
                    // A dropped batch is a *detected* link failure: the
                    // sender dies and the barrier rolls back. Silently
                    // losing it would let the cluster quiesce on wrong
                    // values.
                    Some(gpsa::fault::BatchFault::Drop) => panic!(
                        "chaos-injected network drop: node {} superstep {}",
                        self.node, self.superstep
                    ),
                    Some(gpsa::fault::BatchFault::Delay(ms)) => {
                        std::thread::sleep(std::time::Duration::from_millis(ms));
                        if self.abandoned() {
                            return;
                        }
                    }
                    None => {}
                }
            }
        }
        let slab = std::mem::replace(&mut self.buffers[owner], self.pool.acquire());
        // Tally the (simulated) wire: messages leaving this node.
        self.traffic.record(
            self.node,
            self.router.node_of_computer(owner),
            slab.len() as u64,
        );
        let _ = self.computers[owner].send(ComputeCmd::Batch { update_col, slab });
    }

    fn run_superstep(&mut self, superstep: u64, dispatch_col: u32) {
        self.superstep = superstep;
        #[cfg(feature = "chaos")]
        if let Some(plan) = &self.fault {
            // Node kill: the plan fires once, so exactly one dispatcher
            // of the target node panics; its system's failure escalation
            // takes the whole simulated node down.
            if plan.take_node_kill(self.node as u32, superstep) {
                panic!(
                    "chaos-injected node kill: node {} at superstep {superstep}",
                    self.node
                );
            }
        }
        let update_col = 1 - dispatch_col;
        let graph = self.graph.clone();
        let values = self.values.clone();
        let mut cursor = graph.cursor(self.interval.clone());
        // The engine dispatcher's dense sweep: the flag is checked before
        // the record is decoded, and a dispatched record's targets are
        // split into one run per owning computer.
        while let Some(vid) = cursor.peek_vid() {
            if self.abandoned() {
                return;
            }
            let bits = values.load(dispatch_col, vid);
            if !self.always_dispatch && is_flagged(bits) {
                cursor.skip_rec();
                continue;
            }
            let value = P::Value::from_bits(clear_flag(bits));
            match self
                .program
                .gen_msg(vid, value, graph.degree(vid), &self.meta)
            {
                None => cursor.skip_rec(),
                Some(msg) => {
                    self.scratch.clear();
                    cursor.take_rec_into(&mut self.scratch);
                    let router = &self.router;
                    split_run(&mut self.buffers, &self.scratch, msg, |dst| {
                        router.computer_of_vertex(dst)
                    });
                    for owner in 0..self.buffers.len() {
                        if self.buffers[owner].len() >= self.msg_batch {
                            self.flush_buffer(owner, update_col);
                        }
                    }
                }
            }
            values.invalidate(dispatch_col, vid);
        }
        for owner in 0..self.buffers.len() {
            self.flush_buffer(owner, update_col);
        }
        let _ = self
            .coordinator
            .send(CoordinatorMsg::DispatchOver { superstep });
    }
}

impl<P: VertexProgram> Actor for DistDispatcher<P> {
    type Msg = DispatchCmd;
    fn handle(&mut self, msg: DispatchCmd, ctx: &mut Ctx<'_, Self>) {
        match msg {
            DispatchCmd::Start {
                superstep,
                dispatch_col,
            } => self.run_superstep(superstep, dispatch_col),
            DispatchCmd::Shutdown => ctx.stop(),
        }
    }
}

pub(crate) struct DistComputer<P: VertexProgram> {
    /// Node this computer lives on (chaos targeting).
    #[cfg_attr(not(feature = "chaos"), allow(dead_code))]
    pub node: usize,
    pub program: Arc<P>,
    /// This node's value-file shard; every vertex routed here is in its
    /// range.
    pub values: Arc<ValueFile>,
    pub meta: GraphMeta,
    pub coordinator: Addr<Coordinator<P>>,
    /// First-message bookkeeping handed to [`FoldCtx`] (see the engine's
    /// computer).
    pub dirty: Vec<(VertexId, P::Value)>,
    /// Vertices an always-dispatch program re-evaluates every superstep.
    pub owned: Vec<VertexId>,
    /// Slab free-list shared by every actor (kept by the `Cluster`).
    pub pool: Arc<MsgSlabPool<P::MsgVal>>,
    pub messages: u64,
    /// Cluster recovery epoch (see [`DistDispatcher::epoch`]).
    pub epoch: Arc<AtomicU64>,
    pub my_epoch: u64,
    #[cfg(feature = "chaos")]
    pub fault: Option<Arc<gpsa::fault::FaultPlan>>,
}

impl<P: VertexProgram> DistComputer<P> {
    #[inline]
    fn abandoned(&self) -> bool {
        self.epoch.load(Ordering::Relaxed) != self.my_epoch
    }

    /// Fold one slab through the program's batch kernel, then hand the
    /// slab back to the pool. The chaos computer panic fires here, at
    /// the batch boundary, once the superstep's folds reach its count.
    fn fold_slab(&mut self, update_col: u32, slab: MsgSlab<P::MsgVal>) {
        let mut ctx = FoldCtx::new(&self.values, &self.meta, update_col, &mut self.dirty);
        self.program.fold_batch(&slab, &mut ctx);
        self.messages += slab.len() as u64;
        self.pool.release(slab);
        #[cfg(feature = "chaos")]
        if let Some(plan) = &self.fault {
            plan.panic_if_due_on_node(self.node as u32, self.messages);
        }
    }

    fn flush(&mut self, superstep: u64, update_col: u32) {
        let (activated, delta) =
            FoldCtx::new(&self.values, &self.meta, update_col, &mut self.dirty)
                .flush(&*self.program, &self.owned);
        let messages = std::mem::take(&mut self.messages);
        let _ = self.coordinator.send(CoordinatorMsg::ComputeOver {
            superstep,
            activated,
            delta,
            messages,
        });
    }
}

impl<P: VertexProgram> Actor for DistComputer<P> {
    type Msg = ComputeCmd<P::MsgVal>;
    fn handle(&mut self, msg: ComputeCmd<P::MsgVal>, ctx: &mut Ctx<'_, Self>) {
        if self.abandoned() {
            // Zombie after an abandon(): the resumed fleet owns the
            // shard now; drain silently.
            if matches!(msg, ComputeCmd::Shutdown) {
                ctx.stop();
            }
            return;
        }
        match msg {
            ComputeCmd::Batch { update_col, slab } => self.fold_slab(update_col, slab),
            ComputeCmd::Flush {
                superstep,
                update_col,
            } => self.flush(superstep, update_col),
            ComputeCmd::Shutdown => ctx.stop(),
        }
    }
}

/// The global barrier coordinator (paper Algorithm 1 across nodes),
/// extended with the cluster commit: at every barrier it drives each
/// node's dual-slot value-file commit and then appends one CRC'd record
/// to the [`ClusterManifest`] — in that order, so the manifest never
/// names a barrier some node has not committed. A failed commit or
/// append *panics*: the master system's failure escalation hands the
/// error to the recovery loop, which rolls the cluster back.
pub(crate) struct Coordinator<P: VertexProgram> {
    pub value_files: Vec<Arc<ValueFile>>,
    pub termination: Termination,
    pub report_tx: Sender<AttemptEvent>,
    pub dispatchers: Vec<Addr<DistDispatcher<P>>>,
    pub computers: Vec<Addr<DistComputer<P>>>,
    pub superstep: u64,
    pub dispatch_col: u32,
    pub pending_dispatch: usize,
    pub pending_compute: usize,
    pub step_started: Option<Instant>,
    pub step_activated: u64,
    pub step_delta: f64,
    pub step_messages: u64,
    /// Whether barrier commits fsync (value pages before headers).
    pub durable: bool,
    pub manifest: Arc<ClusterManifest>,
    /// Committed-superstep stats, shared with the recovery loop so they
    /// survive attempts (see [`SharedStats`]).
    pub stats: Arc<Mutex<SharedStats>>,
    /// `last started superstep + 1`, watched by the per-superstep
    /// watchdog and used to count rolled-back work.
    pub progress: Arc<AtomicU64>,
    /// Cluster recovery epoch (see [`DistDispatcher::epoch`]): an
    /// abandoned coordinator must not keep committing barriers — it
    /// shares the manifest handle and the value files with the fleet
    /// that replaced it.
    pub epoch: Arc<AtomicU64>,
    pub my_epoch: u64,
    #[cfg(feature = "chaos")]
    pub fault: Option<Arc<gpsa::fault::FaultPlan>>,
}

impl<P: VertexProgram> Coordinator<P> {
    fn start_superstep(&mut self) {
        self.pending_dispatch = self.dispatchers.len();
        self.pending_compute = self.computers.len();
        self.step_activated = 0;
        self.step_delta = 0.0;
        self.step_messages = 0;
        self.step_started = Some(Instant::now());
        self.progress.store(self.superstep + 1, Ordering::Relaxed);
        for d in &self.dispatchers {
            let _ = d.send(DispatchCmd::Start {
                superstep: self.superstep,
                dispatch_col: self.dispatch_col,
            });
        }
    }

    /// The cluster commit at a completed barrier. Records the superstep's
    /// stats only after the manifest append succeeds — a barrier that
    /// rolls back leaves no trace here, so replayed supersteps count
    /// exactly once.
    fn commit_barrier(&mut self, step_elapsed: std::time::Duration) {
        let next_dispatch = 1 - self.dispatch_col;
        let commit_t0 = Instant::now();
        let mut node_seqs = Vec::with_capacity(self.value_files.len());
        for (node, vf) in self.value_files.iter().enumerate() {
            if let Err(e) = vf.commit(self.superstep, next_dispatch, self.durable) {
                panic!(
                    "node {node} value-file commit failed at superstep {}: {e}",
                    self.superstep
                );
            }
            node_seqs.push(vf.commit_seq());
        }
        let rec = BarrierRecord {
            superstep: self.superstep,
            next_dispatch_col: next_dispatch,
            node_seqs,
        };
        #[cfg(feature = "chaos")]
        if let Some(plan) = &self.fault {
            if plan.take_torn_manifest(self.superstep) {
                self.manifest.append_torn(&rec);
                panic!(
                    "chaos-injected torn manifest tail at superstep {}",
                    self.superstep
                );
            }
        }
        if let Err(e) = self.manifest.append(&rec, self.durable) {
            panic!(
                "cluster manifest append failed at superstep {}: {e}",
                self.superstep
            );
        }
        let commit_elapsed = commit_t0.elapsed();
        let mut stats = self.stats.lock().expect("stats lock poisoned");
        stats.steps_run += 1;
        stats.step_times.push(step_elapsed);
        stats.commit_times.push(commit_elapsed);
        stats.activated.push(self.step_activated);
        stats.deltas.push(self.step_delta);
        stats.messages += self.step_messages;
        drop(stats);
        self.dispatch_col = next_dispatch;
    }

    fn finish(&mut self, ctx: &mut Ctx<'_, Self>) {
        for d in &self.dispatchers {
            let _ = d.send(DispatchCmd::Shutdown);
        }
        for c in &self.computers {
            let _ = c.send(ComputeCmd::Shutdown);
        }
        let _ = self.report_tx.send(AttemptEvent::Done {
            final_dispatch_col: self.dispatch_col,
        });
        ctx.stop();
    }

    fn wants_more(&self) -> bool {
        let next = self.superstep + 1;
        match self.termination {
            Termination::Supersteps(n) => next < n,
            Termination::Quiescence { max_supersteps } => {
                self.step_activated > 0 && next < max_supersteps
            }
            Termination::Delta {
                epsilon,
                max_supersteps,
            } => self.step_delta > epsilon && next < max_supersteps,
        }
    }
}

impl<P: VertexProgram> Actor for Coordinator<P> {
    type Msg = CoordinatorMsg<P>;
    fn handle(&mut self, msg: CoordinatorMsg<P>, ctx: &mut Ctx<'_, Self>) {
        if self.epoch.load(Ordering::Relaxed) != self.my_epoch {
            // Zombie after an abandon(): the recovery loop moved on; do
            // not commit barriers against state the new fleet owns.
            ctx.stop();
            return;
        }
        match msg {
            CoordinatorMsg::Wire {
                dispatchers,
                computers,
            } => {
                self.dispatchers = dispatchers;
                self.computers = computers;
                self.start_superstep();
            }
            CoordinatorMsg::DispatchOver { superstep } => {
                debug_assert_eq!(superstep, self.superstep);
                self.pending_dispatch -= 1;
                if self.pending_dispatch == 0 {
                    let update_col = 1 - self.dispatch_col;
                    for c in &self.computers {
                        let _ = c.send(ComputeCmd::Flush {
                            superstep: self.superstep,
                            update_col,
                        });
                    }
                }
            }
            CoordinatorMsg::ComputeOver {
                superstep,
                activated,
                delta,
                messages,
            } => {
                debug_assert_eq!(superstep, self.superstep);
                self.step_activated += activated;
                self.step_delta += delta;
                self.step_messages += messages;
                self.pending_compute -= 1;
                if self.pending_compute == 0 {
                    let step_elapsed = self
                        .step_started
                        .take()
                        .map(|t| t.elapsed())
                        .unwrap_or_default();
                    self.commit_barrier(step_elapsed);
                    if self.wants_more() {
                        self.superstep += 1;
                        self.start_superstep();
                    } else {
                        self.finish(ctx);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod router_tests {
    use super::*;

    fn router(bounds: &[VertexId], n: VertexId, computers_per_node: usize) -> DistRouter {
        DistRouter {
            bounds: bounds.to_vec(),
            n_vertices: n,
            computers_per_node,
        }
    }

    #[test]
    fn routing_is_total_and_consistent() {
        let r = router(&[10, 20], 30, 2);
        for v in 0..30u32 {
            let node = r.node_of_vertex(v);
            assert!(node < 3);
            let c = r.computer_of_vertex(v);
            assert_eq!(
                r.node_of_computer(c),
                node,
                "computer lives on the vertex's node"
            );
            assert!(r.node_range(node).contains(&v));
        }
        // Overflow ids clamp to the last node.
        assert_eq!(r.node_of_vertex(1000), 2);
    }

    #[test]
    fn computers_within_a_node_partition_its_vertices() {
        let r = router(&[8], 16, 3);
        // Same vertex always routes to the same computer; computers of a
        // node cover exactly the node's vertices.
        let mut seen = std::collections::HashMap::new();
        for v in 0..16u32 {
            let c = r.computer_of_vertex(v);
            assert_eq!(r.computer_of_vertex(v), c);
            *seen.entry(c).or_insert(0) += 1;
        }
        assert!(seen.keys().all(|&c| c < 6));
        assert_eq!(seen.values().sum::<i32>(), 16);
    }

    #[test]
    fn node_ranges_tile_the_vertex_space() {
        // Even, skewed, empty-middle, empty-tail and single-node cuts.
        let cases: [(&[VertexId], VertexId); 6] = [
            (&[10, 20], 30),
            (&[3, 29], 31),
            (&[1, 1, 5], 7),
            (&[1, 7, 7], 7),
            (&[0], 4),
            (&[], 9),
        ];
        for (bounds, n) in cases {
            let r = router(bounds, n, 1);
            let mut expect_start = 0;
            for node in 0..=bounds.len() {
                let range = r.node_range(node);
                assert_eq!(range.start, expect_start, "{bounds:?} node {node}");
                assert!(range.start <= range.end);
                expect_start = range.end;
            }
            assert_eq!(expect_start, n, "{bounds:?}");
        }
    }

    #[test]
    fn routing_agrees_with_the_node_ranges() {
        for bounds in [&[10u32, 20][..], &[1, 1, 5], &[0, 0], &[6, 6]] {
            let r = router(bounds, 7.max(bounds[bounds.len() - 1]), 2);
            for node in 0..=bounds.len() {
                for v in r.node_range(node) {
                    assert_eq!(r.node_of_vertex(v), node, "{bounds:?} v {v}");
                    let c = r.computer_of_vertex(v);
                    assert_eq!(r.node_of_computer(c), node, "computer on the vertex's node");
                    assert_eq!(c % 2, v as usize % 2, "v mod k inside the node");
                }
            }
            // Ids past the vertex space go to the last node.
            assert_eq!(r.node_of_vertex(1000), bounds.len());
        }
    }
}
