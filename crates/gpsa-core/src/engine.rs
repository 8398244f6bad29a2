//! Engine front end: wires the actor graph, blocks for the result,
//! extracts final values, and handles crash recovery / resume.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use actor::System;

use crate::computer::Computer;
use crate::config::{EngineConfig, IntervalStrategy, Termination};
use crate::dispatcher::Dispatcher;
use crate::manager::{AttemptEvent, Manager, ManagerMsg, ManagerReport};
use crate::partition::{edge_balanced_intervals, strided_assignments, DispatchAssignment};
use crate::program::{GraphMeta, VertexProgram};
use crate::report::{RunOutcome, RunReport};
use crate::slab::{MsgSlabPool, OverlapStats};
use crate::value_file::ValueFile;
use crate::word::{clear_flag, is_flagged};
use crate::VertexValue;
use gpsa_graph::{DiskCsr, EdgeList, GraphSnapshot};

/// Errors surfaced by [`Engine::run`].
#[derive(Debug)]
pub enum EngineError {
    /// Filesystem / mapping failure.
    Io(std::io::Error),
    /// Inconsistent inputs (e.g. value file does not match the graph).
    Config(String),
    /// The actor pipeline failed to report (worker panic or deadlock).
    Protocol(String),
    /// The self-healing loop exhausted its retry budget; each element is
    /// the cause of one failed attempt, in order.
    RetriesExhausted(Vec<String>),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Io(e) => write!(f, "engine I/O error: {e}"),
            EngineError::Config(m) => write!(f, "engine configuration error: {m}"),
            EngineError::Protocol(m) => write!(f, "engine protocol error: {m}"),
            EngineError::RetriesExhausted(causes) => write!(
                f,
                "self-healing gave up after {} failed attempt(s): [{}]",
                causes.len(),
                causes.join("; ")
            ),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<std::io::Error> for EngineError {
    fn from(e: std::io::Error) -> Self {
        EngineError::Io(e)
    }
}

impl From<crate::value_file::ValueFileError> for EngineError {
    fn from(e: crate::value_file::ValueFileError) -> Self {
        match e {
            crate::value_file::ValueFileError::Io(e) => EngineError::Io(e),
            other => EngineError::Config(other.to_string()),
        }
    }
}

/// The GPSA engine. Construct once with a config, run programs against
/// on-disk CSR graphs.
#[derive(Debug, Clone)]
pub struct Engine {
    config: EngineConfig,
}

/// How long the caller waits for the actor pipeline before declaring a
/// protocol failure (a worker panicked and the manager can never finish).
/// Generous: full-scale datasets legitimately run for minutes; the
/// timeout only exists so a panicked worker cannot hang the caller
/// forever.
const RUN_TIMEOUT: Duration = Duration::from_secs(4 * 3600);

/// Actor-runtime fairness batch: messages an actor handles per activation
/// before yielding its worker.
const ACTOR_BATCH: usize = 64;

impl Engine {
    /// Create an engine with the given configuration.
    pub fn new(config: EngineConfig) -> Self {
        Engine { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Path of the value file used for the CSR at `csr_path`.
    pub fn value_file_path(&self, csr_path: &Path) -> PathBuf {
        let stem = csr_path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "graph".to_string());
        self.config.work_dir.join(format!("{stem}.gval"))
    }

    /// Convenience: materialize `edges` as a CSR in the work dir under
    /// `name`, then [`run`](Self::run) the program on it.
    pub fn run_edge_list<P: VertexProgram>(
        &self,
        edges: EdgeList,
        name: &str,
        program: P,
    ) -> Result<RunReport<P::Value>, EngineError> {
        std::fs::create_dir_all(&self.config.work_dir)?;
        let csr_path = self.config.work_dir.join(format!("{name}.gcsr"));
        gpsa_graph::preprocess::edges_to_csr(
            edges,
            &csr_path,
            &gpsa_graph::preprocess::PreprocessOptions::default(),
        )?;
        self.run(&csr_path, program)
    }

    /// Run `program` over the on-disk CSR at `csr_path` until the
    /// configured termination condition, and return the final values.
    ///
    /// With `config.resume` set and a recoverable value file present, the
    /// run resumes from the last committed superstep (paper §IV-G);
    /// otherwise the value file is (re)initialized from
    /// [`VertexProgram::init`].
    pub fn run<P: VertexProgram>(
        &self,
        csr_path: &Path,
        program: P,
    ) -> Result<RunReport<P::Value>, EngineError> {
        std::fs::create_dir_all(&self.config.work_dir)?;
        let graph = Arc::new(DiskCsr::open(csr_path)?);
        let vf_path = self.value_file_path(csr_path);
        self.run_shared(&graph, &vf_path, program)
    }

    /// Run `program` over a merged live-graph snapshot (CSR ⊕ delta
    /// overlay). This is what [`Engine::run_shared`] wraps; callers that
    /// already hold a [`GraphSnapshot`] (the serving layer, live-graph
    /// benches) come here directly so mutated graphs run without
    /// re-preprocessing.
    pub fn run_snapshot<P: VertexProgram>(
        &self,
        graph: &Arc<GraphSnapshot>,
        value_file: &Path,
        program: P,
    ) -> Result<RunReport<P::Value>, EngineError> {
        self.run_inner(graph, value_file, program, None)
    }

    /// Incrementally re-converge `program` on a mutated snapshot from the
    /// `prior` committed values of a run on the pre-mutation graph,
    /// instead of recomputing from scratch.
    ///
    /// **Seeds.** The initial frontier holds exactly the sources `u` of
    /// added edges `(u, v)` that the prior *violates*: relaxing the edge
    /// with the program's own hooks, `compute(v, None, prior[v],
    /// gen_msg(u, prior[u], degree(u)))`, would be `changed` against
    /// `prior[v]`. Vertices past `prior.len()` (the delta grew the graph)
    /// take their [`VertexProgram::init`] value and activity. Convergence
    /// propagates from the seeds; a vertex the propagation improves
    /// re-dispatches its whole merged edge list through the normal update
    /// path. The seeds are found by one ascending walk of the overlay's
    /// added edges.
    ///
    /// **Precondition.** The rule is exact — bit-identical to a scratch
    /// [`Engine::run_snapshot`] on the same snapshot — when `prior` is the
    /// fixpoint of the same monotone frontier-driven program (BFS / CC /
    /// SSSP: values only improve as edges are added) on a snapshot whose
    /// edges are a subset of this one's, and `gen_msg` does not depend on
    /// the out-degree (no accepted program's does): every edge the prior
    /// satisfies stays satisfied until its source moves. So
    /// `always_dispatch` programs (PageRank) and snapshots whose delta
    /// contains removals are refused, as are priors longer than the
    /// snapshot.
    ///
    /// **Empty frontier.** When nothing is violated and no vertex past
    /// `prior.len()` starts active, no superstep could change a value:
    /// the run returns `prior` padded with `init` values as a
    /// [`RunOutcome::Completed`] report with 0 supersteps, builds no actor
    /// fleet and no value file, and deletes any file left at `value_file`
    /// so a later resume cannot pick up an older run.
    ///
    /// The run's [`RunReport::seeded_frontier`] counts the seeds.
    pub fn run_incremental<P: VertexProgram>(
        &self,
        graph: &Arc<GraphSnapshot>,
        value_file: &Path,
        program: P,
        prior: &[P::Value],
    ) -> Result<RunReport<P::Value>, EngineError> {
        let t0 = Instant::now();
        if program.always_dispatch() {
            return Err(EngineError::Config(
                "incremental recompute needs a frontier-driven program; \
                 always-dispatch programs (PageRank) must recompute in full"
                    .into(),
            ));
        }
        if graph.overlay().has_removals() {
            return Err(EngineError::Config(
                "incremental recompute is additions-only; a delta with \
                 removals needs a full recompute (or compaction first)"
                    .into(),
            ));
        }
        if prior.len() > graph.n_vertices() {
            return Err(EngineError::Config(format!(
                "prior values cover {} vertices but the snapshot has {}",
                prior.len(),
                graph.n_vertices()
            )));
        }
        let meta = GraphMeta {
            n_vertices: graph.n_vertices() as u64,
            n_edges: graph.n_edges() as u64,
        };
        let value = |v: u32| match prior.get(v as usize) {
            Some(&p) => p,
            None => program.init(v, &meta).0,
        };
        let mut seeds = Vec::new();
        for (u, degree, dsts) in graph.added_by_source() {
            let Some(msg) = program.gen_msg(u, value(u), degree, &meta) else {
                continue;
            };
            let violated = |&v: &u32| {
                let basis = value(v);
                program.changed(basis, program.compute(v, None, basis, msg, &meta))
            };
            if dsts.iter().any(violated) {
                seeds.push(u);
            }
        }
        let fresh = prior.len() as u32..graph.n_vertices() as u32;
        if seeds.is_empty() && !fresh.clone().any(|v| program.init(v, &meta).1) {
            self.check_termination()?;
            match std::fs::remove_file(value_file) {
                Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e.into()),
                _ => {}
            }
            let mut values = prior.to_vec();
            values.extend(fresh.map(|v| program.init(v, &meta).0));
            return Ok(RunReport::unchanged(values, t0.elapsed()));
        }
        self.run_inner(graph, value_file, program, Some((prior, seeds)))
    }

    /// Run `program` over an **already-opened, shared** graph, writing the
    /// per-run state to an explicit value-file path.
    ///
    /// This is the serving-layer entry point: a resident [`DiskCsr`] is one
    /// mmap shared read-only by any number of concurrent runs, while each
    /// run keeps its own private scratch state in `value_file`. Callers are
    /// responsible for handing every *concurrent* run a distinct
    /// `value_file` path (e.g. a job-scoped temp dir) — the value file is
    /// mutated in place and two runs sharing one path would corrupt each
    /// other. [`Engine::run`] derives a per-graph path under
    /// `config.work_dir` and delegates here.
    pub fn run_shared<P: VertexProgram>(
        &self,
        graph: &Arc<DiskCsr>,
        value_file: &Path,
        program: P,
    ) -> Result<RunReport<P::Value>, EngineError> {
        let snapshot = Arc::new(GraphSnapshot::from_csr(graph.clone()));
        self.run_inner(&snapshot, value_file, program, None)
    }

    /// Refuse a termination condition no run can meet.
    fn check_termination(&self) -> Result<(), EngineError> {
        if let Termination::Supersteps(0) = self.config.termination {
            return Err(EngineError::Config("Termination::Supersteps(0)".into()));
        }
        Ok(())
    }

    /// The shared run body behind [`run_snapshot`](Self::run_snapshot),
    /// [`run_shared`](Self::run_shared) and
    /// [`run_incremental`](Self::run_incremental). When `incremental` is
    /// set, the value file is created from the prior values with the
    /// ascending seed list as the initial frontier (resume is bypassed —
    /// an incremental run is its own fresh state).
    fn run_inner<P: VertexProgram>(
        &self,
        graph: &Arc<GraphSnapshot>,
        value_file: &Path,
        program: P,
        incremental: Option<(&[P::Value], Vec<u32>)>,
    ) -> Result<RunReport<P::Value>, EngineError> {
        let t0 = Instant::now();
        self.check_termination()?;
        if let Some(parent) = value_file.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let graph = graph.clone();
        // Readahead hint: Range assignments stream the edge file
        // sequentially. Strided dispatch hops between records — each
        // dispatcher advises `Random` over just its own span on its first
        // START (see `Dispatcher::apply_advice`) instead of demoting the
        // whole map here; likewise sparse supersteps advise `Random` over
        // only the seek window they actually touch.
        if !matches!(self.config.intervals, IntervalStrategy::Strided) {
            let _ = graph.advise_sequential();
        }
        if self.config.hugepages {
            // Best-effort THP backing for the big mappings; ignored where
            // the kernel or filesystem can't honor it.
            let _ = graph.advise_hugepage();
        }
        let meta = GraphMeta {
            n_vertices: graph.n_vertices() as u64,
            n_edges: graph.n_edges() as u64,
        };
        let program = Arc::new(program);

        // Create or recover the value file.
        let (values, resume_superstep, dispatch_col) =
            if incremental.is_none() && self.config.resume && value_file.exists() {
                let vf = ValueFile::open(value_file)?;
                if vf.n_vertices() != graph.n_vertices() {
                    return Err(EngineError::Config(format!(
                        "value file has {} vertices, graph has {}",
                        vf.n_vertices(),
                        graph.n_vertices()
                    )));
                }
                let resume = vf.recover();
                let col = vf.header().next_dispatch_col;
                (Arc::new(vf), resume, col)
            } else {
                let p = program.clone();
                let m = meta;
                let vf = match &incremental {
                    Some((prior, seeds)) => {
                        // Warm start: carry the prior run's committed values
                        // and wake only the seeds (plus any new vertex that
                        // starts active). `create` visits ids in ascending
                        // order, so the ascending seeds are consumed in step.
                        let mut seeds = seeds.iter().copied().peekable();
                        ValueFile::create(value_file, graph.n_vertices(), |v| {
                            let seeded = seeds.next_if_eq(&v).is_some();
                            let (value, active) = match prior.get(v as usize) {
                                Some(&value) => (value, false),
                                None => p.init(v, &m),
                            };
                            (value, active || seeded)
                        })?
                    }
                    None => ValueFile::create(value_file, graph.n_vertices(), |v| p.init(v, &m))?,
                };
                (Arc::new(vf), 0, 0)
            };
        if self.config.hugepages {
            let _ = values.advise_hugepage();
        }

        // Vertex ownership is attempt-invariant: computer `v % k` owns `v`.
        assert!(
            self.config.n_computers > 0,
            "need at least one compute actor"
        );
        // Dense programs need each computer to sweep its owned vertices at
        // flush; sparse programs skip the sweep entirely (empty lists).
        let mut owned_template: Vec<Vec<u32>> = vec![Vec::new(); self.config.n_computers];
        if program.always_dispatch() {
            let k = self.config.n_computers as u32;
            for v in 0..graph.n_vertices() as u32 {
                owned_template[(v % k) as usize].push(v);
            }
        }
        let assignments: Vec<DispatchAssignment> = match self.config.intervals {
            IntervalStrategy::EdgeBalanced => {
                edge_balanced_intervals(&graph, self.config.n_dispatchers)
                    .into_iter()
                    .map(DispatchAssignment::Range)
                    .collect()
            }
            IntervalStrategy::Strided => {
                strided_assignments(graph.n_vertices(), self.config.n_dispatchers)
            }
        };

        // Self-healing loop: spin up the actor fleet and wait for its
        // report; if the fleet dies (FailureEvent escalation from the
        // actor runtime) or wedges (no superstep commits within the
        // watchdog deadline), tear it down, roll the value file back to
        // the last committed superstep, and re-run — with exponential
        // backoff, up to `max_superstep_retries` times.
        enum Attempt {
            Done(ManagerReport),
            /// Actors died but their worker threads are healthy (a join
            /// is safe).
            Failed(String),
            /// A worker may be stuck inside a handler; joining could hang.
            Wedged(String),
        }

        let pool = Arc::new(MsgSlabPool::<P::MsgVal>::new(self.config.msg_batch.max(1)));
        let overlap = Arc::new(OverlapStats::new());
        let mut resume_superstep = resume_superstep;
        let mut dispatch_col = dispatch_col;
        let mut retry_causes: Vec<String> = Vec::new();

        let report = 'attempts: loop {
            let system = System::builder()
                .workers(self.config.workers)
                .batch(ACTOR_BATCH)
                .name("gpsa")
                .build();
            // The manager's report and any actor's death arrive on one
            // channel; deaths are sent from the dying actor's worker
            // thread. Unbounded, so no fleet thread ever blocks on it.
            let (report_tx, events) = mpsc::channel();
            let failure_tx = report_tx.clone();
            system.set_failure_handler(move |ev| {
                let restarts = if ev.supervised {
                    format!(" after {} restart(s)", ev.restarts_used)
                } else {
                    String::new()
                };
                let detail = ev
                    .detail
                    .as_deref()
                    .map(|d| format!(": {d}"))
                    .unwrap_or_default();
                let _ = failure_tx.send(AttemptEvent::Failed(format!(
                    "{} died{restarts}{detail}",
                    ev.actor
                )));
            });
            let progress = Arc::new(AtomicU64::new(0));
            #[allow(unused_mut)]
            let mut mgr = Manager::<P>::new(
                values.clone(),
                self.config.termination,
                self.config.durable,
                report_tx,
                overlap.clone(),
                resume_superstep,
                dispatch_col,
                progress.clone(),
            );
            #[cfg(feature = "chaos")]
            {
                mgr.fault = self.config.fault_plan.clone();
                values.set_fault_plan(self.config.fault_plan.clone());
            }
            let manager = system.spawn(mgr);

            let computers: Vec<_> = owned_template
                .iter()
                .map(|owned| {
                    #[allow(unused_mut)]
                    let mut comp = Computer::new(
                        program.clone(),
                        values.clone(),
                        meta,
                        manager.clone(),
                        owned.clone(),
                        pool.clone(),
                        overlap.clone(),
                    );
                    #[cfg(feature = "chaos")]
                    {
                        comp.fault = self.config.fault_plan.clone();
                    }
                    system.spawn(comp)
                })
                .collect();

            let dispatchers: Vec<_> = assignments
                .iter()
                .cloned()
                .enumerate()
                .map(|(id, assignment)| {
                    system.spawn(Dispatcher {
                        id,
                        program: program.clone(),
                        graph: graph.clone(),
                        values: values.clone(),
                        meta,
                        assignment,
                        computers: computers.clone(),
                        manager: manager.clone(),
                        buffers: (0..self.config.n_computers)
                            .map(|_| crate::slab::MsgSlab::new())
                            .collect(),
                        msg_batch: self.config.msg_batch.max(1),
                        pool: pool.clone(),
                        chunk_edges: if self.config.dispatch_chunk
                            == EngineConfig::MONOLITHIC_DISPATCH
                        {
                            u64::MAX
                        } else {
                            self.config.dispatch_chunk.max(1) as u64
                        },
                        step_sent: 0,
                        step_streamed: 0,
                        step_bytes: 0,
                        step_dispatch_us: 0,
                        step_slab_wait_us: 0,
                        scratch: Vec::new(),
                        always_dispatch: program.always_dispatch(),
                        sparse_now: false,
                        advised_random: false,
                        #[cfg(feature = "chaos")]
                        fault: self.config.fault_plan.clone(),
                    })
                })
                .collect();

            let wired = manager
                .send(ManagerMsg::Wire {
                    dispatchers,
                    computers,
                    assignments: assignments.clone(),
                })
                .is_ok();

            let outcome = if !wired {
                Attempt::Failed("manager died before wiring".into())
            } else {
                let mut last_progress = progress.load(Ordering::Relaxed);
                let mut last_commit = Instant::now();
                // The manager's only stop is `finish`, which reports first,
                // and a manager that dies reaches the failure handler: either
                // way the cause arrives here. The handler's sender lives as
                // long as `system`, so the channel cannot disconnect.
                loop {
                    match events.recv_timeout(Duration::from_millis(20)) {
                        Ok(AttemptEvent::Report(rep)) => break Attempt::Done(rep),
                        Ok(AttemptEvent::Failed(cause)) => break Attempt::Failed(cause),
                        Err(_) => {} // timed out
                    }
                    if t0.elapsed() > RUN_TIMEOUT {
                        break Attempt::Wedged("run exceeded the global timeout".into());
                    }
                    if let Some(deadline) = self.config.superstep_deadline {
                        let p = progress.load(Ordering::Relaxed);
                        if p != last_progress {
                            last_progress = p;
                            last_commit = Instant::now();
                        } else if last_commit.elapsed() >= deadline {
                            break Attempt::Wedged(format!(
                                "watchdog: no superstep committed within {deadline:?}",
                            ));
                        }
                    }
                }
            };

            let cause = match outcome {
                Attempt::Done(report) => {
                    system.shutdown();
                    break 'attempts report;
                }
                Attempt::Failed(cause) => {
                    // The dead actor's thread already unwound; the rest of
                    // the fleet is responsive, so a joining shutdown is
                    // safe and leaves no thread touching the value file.
                    system.shutdown();
                    cause
                }
                Attempt::Wedged(cause) => {
                    // A wedged worker cannot be joined without hanging the
                    // caller; signal shutdown and leak the threads. They
                    // may still run actor code briefly, so the deadline
                    // must be set well above the worst-case superstep
                    // time (see EngineConfig::superstep_deadline).
                    system.abandon();
                    cause
                }
            };
            retry_causes.push(cause);
            if retry_causes.len() as u32 > self.config.max_superstep_retries {
                return Err(EngineError::RetriesExhausted(retry_causes));
            }
            // Exponential backoff: 10ms, 20ms, ... capped at 640ms.
            let shift = (retry_causes.len() as u32 - 1).min(6);
            std::thread::sleep(Duration::from_millis(10u64 << shift));
            // Roll back to the last committed superstep and go again.
            resume_superstep = values.recover();
            dispatch_col = values.header().next_dispatch_col;
        };

        // Extract final values: the freshest column is the one the *next*
        // superstep would dispatch from.
        let outcome = if report.crashed {
            RunOutcome::Crashed
        } else {
            RunOutcome::Completed
        };
        let values_out = if report.crashed {
            Vec::new()
        } else {
            let fresh = report.final_dispatch_col;
            let old = 1 - fresh;
            (0..graph.n_vertices() as u32)
                .map(|v| {
                    let f_bits = values.load(fresh, v);
                    let f_val = P::Value::from_bits(clear_flag(f_bits));
                    if !is_flagged(f_bits) {
                        // Updated in the final superstep: authoritative.
                        f_val
                    } else {
                        let o_val = P::Value::from_bits(clear_flag(values.load(old, v)));
                        program.freshest(o_val, f_val)
                    }
                })
                .collect()
        };

        Ok(RunReport {
            values: values_out,
            outcome,
            supersteps: report.supersteps_run,
            step_times: report.step_times,
            activated: report.activated,
            deltas: report.deltas,
            messages: report.messages,
            dispatcher_messages: report.dispatcher_messages,
            edges_streamed: report.edges_streamed,
            edge_bytes_streamed: report.edge_bytes_streamed,
            edges_skipped: report.edges_skipped,
            frontier_density: report.frontier_density,
            seeded_frontier: incremental
                .as_ref()
                .map(|(_, seeds)| seeds.len() as u64)
                .unwrap_or(0),
            pool_hit_bytes: pool.hit_bytes(),
            pool_miss_bytes: pool.miss_bytes(),
            phases: report.phases,
            first_batch: report.first_batch,
            elapsed: t0.elapsed(),
            retry_attempts: retry_causes.len() as u32,
            retry_causes,
        })
    }
}
