//! The manager actor (paper Algorithm 1): superstep coordination,
//! termination, commit points, and the chaos harness's simulated-crash
//! points.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::time::{Duration, Instant};

use actor::{Actor, Addr, Ctx};

use crate::computer::{ComputeCmd, Computer};
use crate::config::Termination;
use crate::dispatcher::{DispatchCmd, Dispatcher};
use crate::partition::DispatchAssignment;
use crate::program::VertexProgram;
use crate::report::PhaseBreakdown;
use crate::slab::OverlapStats;
use crate::value_file::ValueFile;

/// Final report sent from the manager back to the blocking engine caller.
#[derive(Debug, Clone)]
pub(crate) struct ManagerReport {
    pub crashed: bool,
    pub supersteps_run: u64,
    pub step_times: Vec<Duration>,
    pub activated: Vec<u64>,
    pub deltas: Vec<f64>,
    pub messages: u64,
    /// Messages sent per dispatcher over the whole run (load balance).
    pub dispatcher_messages: Vec<u64>,
    /// Per superstep: time from ITERATION_START until the first compute
    /// batch was folded (`None` if the superstep produced no messages).
    pub first_batch: Vec<Option<Duration>>,
    /// CSR body words dispatchers actually read over the whole run.
    pub edges_streamed: u64,
    /// CSR body bytes dispatchers actually read over the whole run.
    pub edge_bytes_streamed: u64,
    /// CSR body words a full sweep would have read but sparse dispatch
    /// skipped over.
    pub edges_skipped: u64,
    /// Per superstep: frontier bitmap popcount / vertex count at
    /// superstep start.
    pub frontier_density: Vec<f64>,
    /// Per superstep: where the time went (dispatch / fold / commit /
    /// slab wait), summed across actors.
    pub phases: Vec<PhaseBreakdown>,
    /// Column holding the results of the last completed superstep.
    pub final_dispatch_col: u32,
}

/// What the engine's wait loop receives during one attempt, all on one
/// channel: the manager's final report, or the cause of an actor's death
/// from the actor system's failure handler.
pub(crate) enum AttemptEvent {
    Report(ManagerReport),
    Failed(String),
}

/// Mailbox protocol of the manager.
pub(crate) enum ManagerMsg<P: VertexProgram> {
    /// Wiring + kick-off, sent by the engine once all actors exist.
    /// `assignments[i]` is dispatcher `i`'s vertex set, kept by the
    /// manager for per-interval frontier popcounts at superstep start.
    Wire {
        dispatchers: Vec<Addr<Dispatcher<P>>>,
        computers: Vec<Addr<Computer<P>>>,
        assignments: Vec<DispatchAssignment>,
    },
    /// DISPATCH_OVER from one dispatcher, with its message count for the
    /// superstep (per-actor load statistics) and its edge-word I/O
    /// counters (selective-dispatch effectiveness).
    DispatchOver {
        superstep: u64,
        dispatcher: usize,
        sent: u64,
        streamed: u64,
        bytes: u64,
        skipped: u64,
        dispatch_us: u64,
        slab_wait_us: u64,
    },
    /// COMPUTE_OVER reply from one compute actor.
    ComputeOver {
        superstep: u64,
        activated: u64,
        delta: f64,
        messages: u64,
        fold_us: u64,
    },
}

pub(crate) struct Manager<P: VertexProgram> {
    pub values: Arc<ValueFile>,
    pub termination: Termination,
    pub durable: bool,
    pub report_tx: Sender<AttemptEvent>,
    /// Shared with the computers; the manager owns the superstep epoch.
    pub overlap: Arc<OverlapStats>,
    /// Bumped once per committed superstep; the engine's watchdog reads
    /// it to tell "slow" from "wedged".
    pub progress: Arc<AtomicU64>,
    /// Chaos harness: scripted manager panics (superstep start) and
    /// simulated crashes (after dispatch, mid-compute).
    #[cfg(feature = "chaos")]
    pub fault: Option<Arc<crate::fault::FaultPlan>>,

    pub dispatchers: Vec<Addr<Dispatcher<P>>>,
    pub computers: Vec<Addr<Computer<P>>>,
    pub assignments: Vec<DispatchAssignment>,

    pub superstep: u64,
    pub dispatch_col: u32,
    pub pending_dispatch: usize,
    pub pending_compute: usize,
    pub step_started: Option<Instant>,

    pub step_times: Vec<Duration>,
    pub activated: Vec<u64>,
    pub deltas: Vec<f64>,
    pub messages: u64,
    pub dispatcher_messages: Vec<u64>,
    pub first_batch: Vec<Option<Duration>>,
    pub edges_streamed: u64,
    pub edge_bytes_streamed: u64,
    pub edges_skipped: u64,
    pub frontier_density: Vec<f64>,
    pub phases: Vec<PhaseBreakdown>,
    pub step_phase: PhaseBreakdown,
    pub step_activated: u64,
    pub step_delta: f64,
    pub steps_run: u64,
}

impl<P: VertexProgram> Manager<P> {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        values: Arc<ValueFile>,
        termination: Termination,
        durable: bool,
        report_tx: Sender<AttemptEvent>,
        overlap: Arc<OverlapStats>,
        resume_superstep: u64,
        dispatch_col: u32,
        progress: Arc<AtomicU64>,
    ) -> Self {
        Manager {
            values,
            termination,
            durable,
            report_tx,
            overlap,
            progress,
            #[cfg(feature = "chaos")]
            fault: None,
            dispatchers: Vec::new(),
            computers: Vec::new(),
            assignments: Vec::new(),
            superstep: resume_superstep,
            dispatch_col,
            pending_dispatch: 0,
            pending_compute: 0,
            step_started: None,
            step_times: Vec::new(),
            activated: Vec::new(),
            deltas: Vec::new(),
            messages: 0,
            dispatcher_messages: Vec::new(),
            first_batch: Vec::new(),
            edges_streamed: 0,
            edge_bytes_streamed: 0,
            edges_skipped: 0,
            frontier_density: Vec::new(),
            phases: Vec::new(),
            step_phase: PhaseBreakdown::default(),
            step_activated: 0,
            step_delta: 0.0,
            steps_run: 0,
        }
    }

    fn start_superstep(&mut self) {
        #[cfg(feature = "chaos")]
        if let Some(plan) = &self.fault {
            plan.panic_if_due(crate::fault::FaultRole::Manager, self.superstep, 0);
        }
        self.pending_dispatch = self.dispatchers.len();
        self.pending_compute = self.computers.len();
        self.step_activated = 0;
        self.step_delta = 0.0;
        self.step_phase = PhaseBreakdown::default();
        // Epoch first: every batch of the superstep must be timed against
        // a stamp taken before any dispatcher starts.
        self.overlap.begin_superstep();
        self.step_started = Some(Instant::now());
        // Frontier popcounts: global for the density trace, per-interval
        // as each dispatcher's sparse/dense input. The bitmap is stable
        // here — computers only mark the *other* column.
        let frontier = self.values.frontier();
        let n = self.values.n_vertices();
        let global_active = frontier.count(self.dispatch_col);
        self.frontier_density.push(if n == 0 {
            0.0
        } else {
            global_active as f64 / n as f64
        });
        for (i, d) in self.dispatchers.iter().enumerate() {
            let active = match self.assignments.get(i) {
                Some(DispatchAssignment::Range(r)) => {
                    frontier.count_range(self.dispatch_col, r.clone())
                }
                // Strided assignments always sweep dense; the global
                // count is only informational for them.
                _ => global_active,
            };
            let _ = d.send(DispatchCmd::Start {
                superstep: self.superstep,
                dispatch_col: self.dispatch_col,
                active,
            });
        }
    }

    fn shutdown_workers(&self) {
        for d in &self.dispatchers {
            let _ = d.send(DispatchCmd::Shutdown);
        }
        for c in &self.computers {
            let _ = c.send(ComputeCmd::Shutdown);
        }
    }

    fn finish(&mut self, crashed: bool, ctx: &mut Ctx<'_, Self>) {
        self.shutdown_workers();
        let _ = self.report_tx.send(AttemptEvent::Report(ManagerReport {
            crashed,
            supersteps_run: self.steps_run,
            step_times: std::mem::take(&mut self.step_times),
            activated: std::mem::take(&mut self.activated),
            deltas: std::mem::take(&mut self.deltas),
            messages: self.messages,
            dispatcher_messages: std::mem::take(&mut self.dispatcher_messages),
            first_batch: std::mem::take(&mut self.first_batch),
            edges_streamed: self.edges_streamed,
            edge_bytes_streamed: self.edge_bytes_streamed,
            edges_skipped: self.edges_skipped,
            frontier_density: std::mem::take(&mut self.frontier_density),
            phases: std::mem::take(&mut self.phases),
            final_dispatch_col: self.dispatch_col,
        }));
        ctx.stop();
    }

    /// Should another superstep run after the one that just completed?
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

    fn superstep_completed(&mut self, ctx: &mut Ctx<'_, Self>) {
        if let Some(t) = self.step_started.take() {
            self.step_times.push(t.elapsed());
        }
        self.activated.push(self.step_activated);
        self.deltas.push(self.step_delta);
        self.first_batch.push(self.overlap.take_first_batch());
        self.steps_run += 1;
        let next_dispatch = 1 - self.dispatch_col;
        // Commit point: the update column of this superstep becomes the
        // authoritative (dispatch) column of the next. A commit failure
        // panics rather than reporting a crash: the panic rides the actor
        // runtime's FailureEvent escalation, so the engine recovers from
        // the last *successful* commit and retries — the header on disk
        // is still the previous slot (dual-slot scheme), so nothing is
        // lost.
        let commit_start = Instant::now();
        if let Err(e) = self
            .values
            .commit(self.superstep, next_dispatch, self.durable)
        {
            panic!("superstep {} commit failed: {e}", self.superstep);
        }
        self.step_phase.commit_us += commit_start.elapsed().as_micros() as u64;
        self.phases.push(std::mem::take(&mut self.step_phase));
        // The just-dispatched column becomes the next superstep's update
        // column: wipe its bitmap so computers mark a fresh frontier into
        // it (its flags are all set too — dispatchers invalidate every
        // vertex they dispatch — keeping bitmap ⊇ flag-clear exact).
        self.values.frontier().clear(self.dispatch_col);
        self.progress.fetch_add(1, Ordering::Relaxed);
        if self.wants_more() {
            self.superstep += 1;
            self.dispatch_col = next_dispatch;
            self.start_superstep();
        } else {
            self.dispatch_col = next_dispatch;
            self.finish(false, ctx);
        }
    }
}

impl<P: VertexProgram> Actor for Manager<P> {
    type Msg = ManagerMsg<P>;

    fn handle(&mut self, msg: ManagerMsg<P>, ctx: &mut Ctx<'_, Self>) {
        match msg {
            ManagerMsg::Wire {
                dispatchers,
                computers,
                assignments,
            } => {
                self.dispatcher_messages = vec![0; dispatchers.len()];
                self.dispatchers = dispatchers;
                self.computers = computers;
                self.assignments = assignments;
                self.start_superstep();
            }
            ManagerMsg::DispatchOver {
                superstep,
                dispatcher,
                sent,
                streamed,
                bytes,
                skipped,
                dispatch_us,
                slab_wait_us,
            } => {
                debug_assert_eq!(superstep, self.superstep);
                if self.dispatcher_messages.len() <= dispatcher {
                    self.dispatcher_messages.resize(dispatcher + 1, 0);
                }
                self.dispatcher_messages[dispatcher] += sent;
                self.edges_streamed += streamed;
                self.edge_bytes_streamed += bytes;
                self.edges_skipped += skipped;
                self.step_phase.dispatch_us += dispatch_us;
                self.step_phase.slab_wait_us += slab_wait_us;
                self.pending_dispatch -= 1;
                if self.pending_dispatch == 0 {
                    #[cfg(feature = "chaos")]
                    if self
                        .fault
                        .as_ref()
                        .is_some_and(|plan| plan.take_crash_after_dispatch(self.superstep))
                    {
                        // Simulated crash: no COMPUTE_OVER flush, no commit.
                        // The update column is left half-written, exactly
                        // the state of paper Fig. 6.
                        self.finish(true, ctx);
                        return;
                    }
                    let update_col = 1 - self.dispatch_col;
                    for c in &self.computers {
                        let _ = c.send(ComputeCmd::Flush {
                            superstep: self.superstep,
                            update_col,
                        });
                    }
                }
            }
            ManagerMsg::ComputeOver {
                superstep,
                activated,
                delta,
                messages,
                fold_us,
            } => {
                debug_assert_eq!(superstep, self.superstep);
                self.step_activated += activated;
                self.step_delta += delta;
                self.messages += messages;
                self.step_phase.fold_us += fold_us;
                #[cfg(feature = "chaos")]
                if self
                    .fault
                    .as_ref()
                    .is_some_and(|plan| plan.take_crash_in_compute(self.superstep))
                {
                    // Simulated crash while sibling computers are still
                    // folding: no commit, update column half-written.
                    self.finish(true, ctx);
                    return;
                }
                self.pending_compute -= 1;
                if self.pending_compute == 0 {
                    self.superstep_completed(ctx);
                }
            }
        }
    }
}
