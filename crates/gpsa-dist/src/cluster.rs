//! Cluster assembly, the blocking run entry point, and the
//! superstep-granular recovery loop.
//!
//! A run is a sequence of *attempts*. Each attempt builds the whole
//! fleet (one actor system per node + the master), registered with a
//! [`SystemGuard`] so every exit path tears it down, and waits on one
//! channel for the coordinator's report or a failure escalation, with a
//! watchdog for stalls. A failed attempt rolls the cluster back to the
//! last manifest barrier ([`crate::recovery::rollback_cluster`]) —
//! reopening the dead node's on-disk state when a specific node crashed
//! — and retries with exponential backoff, up to
//! [`ClusterConfig::max_node_retries`] times.
//!
//! Node ranges are cut by out-edges, not by vertex ids: node `i` owns a
//! contiguous id range holding about `1/n` of the edges (the paper's
//! "assign vertices ... by the average edges", §V-A, at node scale), and
//! each node cuts its range the same way across its dispatchers. Both
//! cuts are [`gpsa::balanced_cut`]. The node cut comes from the edge
//! list's out-degree prefix, so it is a function of the graph: nothing
//! about it is written to the manifest, and every recovery attempt of a
//! run routes identically.
//!
//! Each node's CSR fragment is written once per graph: a [`Cluster`]
//! keeps the fragments of its last run, and the cut that defines them,
//! and reuses both while the edge list is equal (compared edge by edge,
//! not by hash) and the fragment files are as it wrote them. The node
//! count needs no check of its own: it is fixed by the configuration and
//! the vertex count. A cluster of another size writing into the same
//! directory changes the files, which the file check catches. Value
//! shards and the manifest are created fresh on every run; the
//! message-slab pool is kept too.

use std::any::Any;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::time::{Duration, Instant, SystemTime};

use actor::System;
use gpsa::{
    clear_flag, is_flagged, GraphMeta, MsgSlabPool, Termination, ValueFile, VertexProgram,
    VertexValue,
};
use gpsa_graph::{preprocess, DiskCsr, Edge, EdgeList, VertexId};

use crate::actors::{Coordinator, CoordinatorMsg, DistComputer, DistDispatcher, DistRouter};
use crate::manifest::ClusterManifest;
use crate::recovery::{rollback_cluster, AttemptEvent, NodeShard, SharedStats, SystemGuard};
use crate::traffic::TrafficMatrix;

/// Typed failures from [`Cluster::run`].
#[derive(Debug)]
pub enum ClusterError {
    /// Filesystem / mapping failure.
    Io(std::io::Error),
    /// Inconsistent inputs or corrupt recovery state.
    Config(String),
    /// The run blew [`ClusterConfig::run_deadline`]; the fleet is
    /// abandoned (threads signalled, not joined) and the cause recorded.
    DeadlineExceeded {
        /// The configured deadline.
        deadline: Duration,
        /// What the cluster was doing when time ran out.
        cause: String,
    },
    /// The recovery loop exhausted its retry budget; each element is the
    /// cause of one failed attempt, in order.
    RetriesExhausted(Vec<String>),
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Io(e) => write!(f, "cluster I/O error: {e}"),
            ClusterError::Config(m) => write!(f, "cluster configuration error: {m}"),
            ClusterError::DeadlineExceeded { deadline, cause } => {
                write!(f, "cluster run exceeded its {deadline:?} deadline: {cause}")
            }
            ClusterError::RetriesExhausted(causes) => write!(
                f,
                "cluster recovery gave up after {} failed attempt(s): [{}]",
                causes.len(),
                causes.join("; ")
            ),
        }
    }
}

impl std::error::Error for ClusterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClusterError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ClusterError {
    fn from(e: std::io::Error) -> Self {
        ClusterError::Io(e)
    }
}

impl From<gpsa::ValueFileError> for ClusterError {
    fn from(e: gpsa::ValueFileError) -> Self {
        match e {
            gpsa::ValueFileError::Io(e) => ClusterError::Io(e),
            other => ClusterError::Config(other.to_string()),
        }
    }
}

impl From<ClusterError> for std::io::Error {
    fn from(e: ClusterError) -> Self {
        match e {
            ClusterError::Io(e) => e,
            other => std::io::Error::other(other.to_string()),
        }
    }
}

/// Configuration of the simulated cluster.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of simulated nodes (each gets its own actor system and
    /// state shard).
    pub n_nodes: usize,
    /// Dispatch actors per node.
    pub dispatchers_per_node: usize,
    /// Compute actors per node.
    pub computers_per_node: usize,
    /// Worker threads per node system.
    pub workers_per_node: usize,
    /// Stop condition.
    pub termination: Termination,
    /// Scratch directory (per-node CSR fragments + value shards + the
    /// cluster manifest).
    pub work_dir: PathBuf,
    /// Dispatcher batch size.
    pub msg_batch: usize,
    /// Hard wall-clock budget for the whole run, recovery included. A
    /// run that is still incomplete when it expires fails fast with
    /// [`ClusterError::DeadlineExceeded`] instead of parking the caller.
    pub run_deadline: Duration,
    /// Per-superstep progress watchdog: if no superstep *starts* within
    /// this window, the attempt is declared wedged, the fleet abandoned,
    /// and the cluster rolled back. Must be set well above the
    /// worst-case superstep time — abandoned workers may still run actor
    /// code briefly. `None` disables the watchdog (failures are then
    /// detected only by escalation or the run deadline).
    pub superstep_deadline: Option<Duration>,
    /// Recovery attempts before [`ClusterError::RetriesExhausted`].
    pub max_node_retries: u32,
    /// Fsync barrier commits (each shard's value pages before its
    /// header, the manifest record after all shards).
    pub durable: bool,
    /// Distributed chaos schedule (node kills, computer panics, batch
    /// drops/delays, torn manifests — see `gpsa::fault::FaultSpec`).
    #[cfg(feature = "chaos")]
    pub fault_plan: Option<Arc<gpsa::fault::FaultPlan>>,
}

impl ClusterConfig {
    /// A small cluster suitable for tests: 2 workers and 2+2 actors per
    /// node.
    pub fn new<P: Into<PathBuf>>(n_nodes: usize, work_dir: P) -> Self {
        ClusterConfig {
            n_nodes: n_nodes.max(1),
            dispatchers_per_node: 2,
            computers_per_node: 2,
            workers_per_node: 2,
            termination: Termination::Quiescence {
                max_supersteps: 10_000,
            },
            work_dir: work_dir.into(),
            msg_batch: 1024,
            run_deadline: Duration::from_secs(4 * 3600),
            superstep_deadline: None,
            max_node_retries: 3,
            durable: false,
            #[cfg(feature = "chaos")]
            fault_plan: None,
        }
    }

    /// Builder-style: set the termination mode.
    pub fn with_termination(mut self, t: Termination) -> Self {
        self.termination = t;
        self
    }

    /// Builder-style: set the whole-run wall-clock deadline.
    pub fn with_run_deadline(mut self, d: Duration) -> Self {
        self.run_deadline = d;
        self
    }

    /// Builder-style: arm the per-superstep progress watchdog.
    pub fn with_superstep_deadline(mut self, d: Duration) -> Self {
        self.superstep_deadline = Some(d);
        self
    }

    /// Builder-style: set the recovery retry budget.
    pub fn with_max_node_retries(mut self, n: u32) -> Self {
        self.max_node_retries = n;
        self
    }

    /// Builder-style: fsync barrier commits.
    pub fn with_durable(mut self, durable: bool) -> Self {
        self.durable = durable;
        self
    }

    /// Builder-style: install a distributed chaos schedule.
    #[cfg(feature = "chaos")]
    pub fn with_fault_plan(mut self, plan: Arc<gpsa::fault::FaultPlan>) -> Self {
        self.fault_plan = Some(plan);
        self
    }
}

/// Result of a distributed run.
#[derive(Debug)]
pub struct DistReport<V> {
    /// Final vertex values, stitched across node shards, indexed by
    /// global id.
    pub values: Vec<V>,
    /// Supersteps committed (each counted once, however many times a
    /// fault forced it to re-run).
    pub supersteps: u64,
    /// Wall time per committed superstep (barrier to barrier, excluding
    /// the commit itself).
    pub step_times: Vec<Duration>,
    /// Wall time of each barrier's cluster commit (per-node value-file
    /// commits + the manifest append) — the measurable cost of the
    /// paper's "free checkpoint" claim.
    pub commit_times: Vec<Duration>,
    /// Vertices activated per superstep (cluster-wide).
    pub activated: Vec<u64>,
    /// Convergence deltas per superstep.
    pub deltas: Vec<f64>,
    /// Messages folded cluster-wide.
    pub messages: u64,
    /// Node-to-node message counts; off-diagonal = simulated network.
    pub traffic: Arc<TrafficMatrix>,
    /// Simulated node restarts (a crashed node's CSR fragment and value
    /// shard reopened from disk).
    pub node_restarts: u64,
    /// Supersteps whose work was discarded by rollbacks (started but not
    /// cluster-committed when their attempt died).
    pub supersteps_rolled_back: u64,
    /// Cause of each failed attempt, in order; empty for a fault-free
    /// run.
    pub retry_causes: Vec<String>,
}

/// A simulated GPSA cluster.
#[derive(Debug, Clone)]
pub struct Cluster {
    config: ClusterConfig,
    /// The CSR fragments of the last run, reused by the next run over
    /// the same graph (see the module docs).
    fragments: Arc<Mutex<Option<Fragments>>>,
    /// The last run's slab pool (a `MsgSlabPool<P::MsgVal>`), reused by
    /// the next run whose program has the same message type. A node's
    /// single worker holds every slab it dispatches until its dispatch
    /// ends, so a run fills the pool with megabytes of slabs; freeing
    /// and reallocating them on every run grew RSS by megabytes per run.
    pool: Arc<Mutex<Option<Arc<dyn Any + Send + Sync>>>>,
}

/// Per-node CSR fragments cut from one edge list.
#[derive(Debug)]
struct Fragments {
    /// The edge list they were cut from.
    edges: EdgeList,
    /// Routing over the node cut that defines them.
    router: Arc<DistRouter>,
    graphs: Vec<Arc<DiskCsr>>,
    /// `(length, mtime)` of each fragment file as written.
    stamps: Vec<(u64, SystemTime)>,
}

fn fragment_path(work_dir: &Path, node: usize) -> PathBuf {
    work_dir.join(format!("node{node}.gcsr"))
}

/// The `n_nodes - 1` interior boundaries of the out-edge-balanced node
/// cut of `edges`.
fn node_cut(edges: &EdgeList, n_nodes: usize) -> Vec<VertexId> {
    let mut prefix = Vec::with_capacity(edges.n_vertices + 1);
    prefix.push(0u64);
    let mut below = 0u64;
    for d in edges.out_degrees() {
        below += u64::from(d);
        prefix.push(below);
    }
    let parts = gpsa::balanced_cut(0..edges.n_vertices as VertexId, n_nodes, |v| {
        prefix[v as usize]
    });
    parts[1..].iter().map(|r| r.start).collect()
}

/// Each node's dispatcher intervals: its range cut by its fragment's
/// out-edges, as the engine cuts its own dispatch intervals.
fn dispatch_intervals(
    router: &DistRouter,
    graphs: &[Arc<DiskCsr>],
    dispatchers_per_node: usize,
) -> Vec<Vec<Range<VertexId>>> {
    graphs
        .iter()
        .enumerate()
        .map(|(node, graph)| {
            gpsa::balanced_cut(router.node_range(node), dispatchers_per_node.max(1), |v| {
                graph.edges_in_range(0..v)
            })
        })
        .collect()
}

fn file_stamp(path: &Path) -> std::io::Result<(u64, SystemTime)> {
    let meta = std::fs::metadata(path)?;
    Ok((meta.len(), meta.modified()?))
}

impl Fragments {
    fn fit(&self, edges: &EdgeList, work_dir: &Path) -> bool {
        self.edges.n_vertices == edges.n_vertices
            && self.edges.edges == edges.edges
            && self.stamps.iter().enumerate().all(|(node, stamp)| {
                file_stamp(&fragment_path(work_dir, node)).is_ok_and(|s| s == *stamp)
            })
    }
}

enum Outcome {
    Done(u32),
    Failed { dead: Option<usize>, cause: String },
    Wedged(String),
}

impl Cluster {
    /// Create a cluster with the given configuration.
    pub fn new(config: ClusterConfig) -> Self {
        Cluster {
            config,
            fragments: Arc::default(),
            pool: Arc::default(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Routing over the node cut, and each node's CSR fragment (the
    /// out-edges of its vertex range): the last run's when they fit
    /// `edges`, else a fresh cut and freshly written fragments.
    fn fragments(
        &self,
        edges: &EdgeList,
        n_nodes: usize,
    ) -> Result<(Arc<DistRouter>, Vec<Arc<DiskCsr>>), ClusterError> {
        let work_dir = &self.config.work_dir;
        // A panic mid-rebuild leaves `None` (set below before any file is
        // written), so a poisoned cache is still a valid one.
        let mut cache = self
            .fragments
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(f) = cache.as_ref() {
            if f.fit(edges, work_dir) {
                return Ok((f.router.clone(), f.graphs.clone()));
            }
        }
        *cache = None;
        let n = edges.n_vertices;
        let router = Arc::new(DistRouter {
            bounds: node_cut(edges, n_nodes),
            n_vertices: n as VertexId,
            computers_per_node: self.config.computers_per_node.max(1),
        });
        let mut graphs = Vec::with_capacity(n_nodes);
        let mut stamps = Vec::with_capacity(n_nodes);
        for node in 0..n_nodes {
            let range = router.node_range(node);
            let frag_edges: Vec<Edge> = edges
                .edges
                .iter()
                .copied()
                .filter(|e| range.contains(&e.src))
                .collect();
            let frag = EdgeList::with_vertices(frag_edges, n);
            let csr_path = fragment_path(work_dir, node);
            preprocess::edges_to_csr(frag, &csr_path, &preprocess::PreprocessOptions::default())?;
            graphs.push(Arc::new(DiskCsr::open(&csr_path)?));
            stamps.push(file_stamp(&csr_path)?);
        }
        *cache = Some(Fragments {
            edges: edges.clone(),
            router: router.clone(),
            graphs: graphs.clone(),
            stamps,
        });
        Ok((router, graphs))
    }

    /// The slab pool for a run sending `M` messages: the last run's when
    /// its message type matches, else a fresh one kept for the next run.
    fn slab_pool<M: Send + Sync + 'static>(&self) -> Arc<MsgSlabPool<M>> {
        // Every update replaces the whole `Option`, so a poisoned lock
        // still guards a valid value.
        let mut cached = self.pool.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(pool) = cached.clone().and_then(|p| p.downcast().ok()) {
            return pool;
        }
        let pool = Arc::new(MsgSlabPool::new(self.config.msg_batch.max(1)));
        *cached = Some(pool.clone());
        pool
    }

    /// Run `program` over `edges` across the simulated cluster,
    /// surviving node and actor failure at superstep granularity.
    pub fn run<P: VertexProgram>(
        &self,
        edges: &EdgeList,
        program: P,
    ) -> Result<DistReport<P::Value>, ClusterError> {
        let t0 = Instant::now();
        let cfg = &self.config;
        std::fs::create_dir_all(&cfg.work_dir)?;
        let n = edges.n_vertices;
        let n_nodes = cfg.n_nodes.min(n.max(1));
        let meta = GraphMeta {
            n_vertices: n as u64,
            n_edges: edges.len() as u64,
        };
        let program = Arc::new(program);
        let traffic = Arc::new(TrafficMatrix::new(n_nodes));

        // Attempt-invariant state: the node cut, per-node shards (CSR
        // fragment of this node's out-edges + value shard over its vertex
        // range) and the cluster manifest; the slab pool below also
        // outlives attempts.
        let (router, graphs) = self.fragments(edges, n_nodes)?;
        let intervals = dispatch_intervals(&router, &graphs, cfg.dispatchers_per_node);
        let mut shards: Vec<NodeShard> = Vec::with_capacity(n_nodes);
        for (node, graph) in graphs.into_iter().enumerate() {
            let range = router.node_range(node);
            let csr_path = fragment_path(&cfg.work_dir, node);
            let vf_path = cfg.work_dir.join(format!("node{node}.gval"));
            let p = program.clone();
            let m = meta;
            let values = Arc::new(ValueFile::create_ranged(&vf_path, range, |v| {
                p.init(v, &m)
            })?);
            shards.push(NodeShard {
                graph,
                values,
                csr_path,
                vf_path,
            });
        }
        #[cfg(feature = "chaos")]
        for shard in &shards {
            shard.values.set_fault_plan(cfg.fault_plan.clone());
        }
        let manifest_path = cfg.work_dir.join("cluster.gman");
        let manifest = Arc::new(ClusterManifest::create(&manifest_path, n_nodes)?);
        let stats = Arc::new(Mutex::new(SharedStats::default()));
        let pool = self.slab_pool::<P::MsgVal>();
        // Bumped whenever a fleet is given up on; zombie workers from
        // abandoned attempts check it and stand down (see
        // `DistDispatcher::epoch`).
        let epoch = Arc::new(AtomicU64::new(0));

        let mut resume_superstep = 0u64;
        let mut dispatch_col = 0u32;
        let mut retry_causes: Vec<String> = Vec::new();
        let mut node_restarts = 0u64;
        let mut supersteps_rolled_back = 0u64;

        let final_col = 'attempts: loop {
            let my_epoch = epoch.load(Ordering::Relaxed);
            let mut guard = SystemGuard::new();
            // The coordinator's report and every failure escalation (sent
            // from the dying worker thread, tagged with the node it came
            // from) arrive on one channel. Unbounded, so no fleet thread
            // ever blocks on it.
            let (report_tx, events) = mpsc::channel();
            let mut node_systems: Vec<System> = Vec::with_capacity(n_nodes);
            for node in 0..n_nodes {
                let sys = System::builder()
                    .workers(cfg.workers_per_node)
                    .name(format!("node{node}"))
                    .build();
                let tx = report_tx.clone();
                sys.set_failure_handler(move |ev| {
                    let detail = ev
                        .detail
                        .as_deref()
                        .map(|d| format!(": {d}"))
                        .unwrap_or_default();
                    let _ = tx.send(AttemptEvent::Node {
                        node,
                        cause: format!("node {node}: {} died{detail}", ev.actor),
                    });
                });
                guard.push(sys.clone());
                node_systems.push(sys);
            }
            // The coordinator lives on a dedicated "master" system.
            let master = System::builder().workers(1).name("gpsa-master").build();
            let tx = report_tx.clone();
            master.set_failure_handler(move |ev| {
                let detail = ev
                    .detail
                    .as_deref()
                    .map(|d| format!(": {d}"))
                    .unwrap_or_default();
                let _ = tx.send(AttemptEvent::Master {
                    cause: format!("master: {} died{detail}", ev.actor),
                });
            });
            guard.push(master.clone());

            let progress = Arc::new(AtomicU64::new(resume_superstep));
            let coordinator = master.spawn(Coordinator::<P> {
                value_files: shards.iter().map(|s| s.values.clone()).collect(),
                termination: cfg.termination,
                report_tx,
                dispatchers: Vec::new(),
                computers: Vec::new(),
                superstep: resume_superstep,
                dispatch_col,
                pending_dispatch: 0,
                pending_compute: 0,
                step_started: None,
                step_activated: 0,
                step_delta: 0.0,
                step_messages: 0,
                durable: cfg.durable,
                manifest: manifest.clone(),
                stats: stats.clone(),
                progress: progress.clone(),
                epoch: epoch.clone(),
                my_epoch,
                #[cfg(feature = "chaos")]
                fault: cfg.fault_plan.clone(),
            });

            // Compute actors: global list ordered node-major (the
            // router's index space).
            let mut computers = Vec::with_capacity(n_nodes * cfg.computers_per_node);
            for node in 0..n_nodes {
                let range = router.node_range(node);
                for slot in 0..cfg.computers_per_node {
                    let owned: Vec<u32> = if program.always_dispatch() {
                        range
                            .clone()
                            .filter(|&v| {
                                router.computer_of_vertex(v) % cfg.computers_per_node == slot
                            })
                            .collect()
                    } else {
                        Vec::new()
                    };
                    computers.push(node_systems[node].spawn(DistComputer {
                        node,
                        program: program.clone(),
                        values: shards[node].values.clone(),
                        meta,
                        coordinator: coordinator.clone(),
                        dirty: Vec::new(),
                        owned,
                        pool: pool.clone(),
                        messages: 0,
                        epoch: epoch.clone(),
                        my_epoch,
                        #[cfg(feature = "chaos")]
                        fault: cfg.fault_plan.clone(),
                    }));
                }
            }

            // Dispatch actors, over each node's edge-balanced intervals.
            let mut dispatchers = Vec::with_capacity(n_nodes * cfg.dispatchers_per_node);
            for (node, node_intervals) in intervals.iter().enumerate() {
                for interval in node_intervals {
                    dispatchers.push(node_systems[node].spawn(DistDispatcher {
                        node,
                        program: program.clone(),
                        graph: shards[node].graph.clone(),
                        values: shards[node].values.clone(),
                        meta,
                        interval: interval.clone(),
                        router: router.clone(),
                        computers: computers.clone(),
                        coordinator: coordinator.clone(),
                        traffic: traffic.clone(),
                        buffers: computers.iter().map(|_| pool.acquire()).collect(),
                        pool: pool.clone(),
                        scratch: Vec::new(),
                        msg_batch: cfg.msg_batch.max(1),
                        always_dispatch: program.always_dispatch(),
                        superstep: resume_superstep,
                        epoch: epoch.clone(),
                        my_epoch,
                        #[cfg(feature = "chaos")]
                        fault: cfg.fault_plan.clone(),
                    }));
                }
            }

            let wired = coordinator
                .send(CoordinatorMsg::Wire {
                    dispatchers,
                    computers,
                })
                .is_ok();

            let outcome = if !wired {
                Outcome::Failed {
                    dead: None,
                    cause: "coordinator died before wiring".into(),
                }
            } else {
                let mut last_progress = progress.load(Ordering::Relaxed);
                let mut last_advance = Instant::now();
                // In a live attempt the coordinator's only stop is
                // `finish`, which reports first (its zombie stop needs a
                // bumped epoch), and any actor that dies reaches a failure
                // handler: either way the outcome arrives here. The
                // handlers' senders live as long as the fleet, so the
                // channel cannot disconnect.
                loop {
                    // Checked at loop entry, not just on the idle tick:
                    // a fast release-mode run can finish inside one tick
                    // window, and an expired deadline must still win
                    // over a ready report.
                    if t0.elapsed() > cfg.run_deadline {
                        // Workers may be wedged; joining could hang the
                        // caller past the deadline it just asked us to
                        // respect.
                        epoch.fetch_add(1, Ordering::Relaxed);
                        guard.wedge();
                        return Err(ClusterError::DeadlineExceeded {
                            deadline: cfg.run_deadline,
                            cause: format!(
                                "{} superstep(s) committed, {} recovery attempt(s) spent",
                                stats.lock().map(|s| s.steps_run).unwrap_or(0),
                                retry_causes.len(),
                            ),
                        });
                    }
                    match events.recv_timeout(Duration::from_millis(20)) {
                        Ok(AttemptEvent::Done { final_dispatch_col }) => {
                            break Outcome::Done(final_dispatch_col)
                        }
                        Ok(AttemptEvent::Node { node, cause }) => {
                            break Outcome::Failed {
                                dead: Some(node),
                                cause,
                            }
                        }
                        Ok(AttemptEvent::Master { cause }) => {
                            break Outcome::Failed { dead: None, cause }
                        }
                        Err(_) => {} // timed out
                    }
                    if let Some(deadline) = cfg.superstep_deadline {
                        let p = progress.load(Ordering::Relaxed);
                        if p != last_progress {
                            last_progress = p;
                            last_advance = Instant::now();
                        } else if last_advance.elapsed() >= deadline {
                            break Outcome::Wedged(format!(
                                "watchdog: no superstep progress within {deadline:?}",
                            ));
                        }
                    }
                }
            };

            let (dead, cause) = match outcome {
                Outcome::Done(col) => {
                    drop(guard); // joined shutdown of every node + master
                    break 'attempts col;
                }
                Outcome::Failed { dead, cause } => {
                    // The dead actor's thread already unwound and the
                    // rest of the fleet is responsive: a joining
                    // shutdown is safe and leaves no thread touching the
                    // shards.
                    drop(guard);
                    epoch.fetch_add(1, Ordering::Relaxed);
                    (dead, cause)
                }
                Outcome::Wedged(cause) => {
                    // Fence zombies *before* signalling: a worker stuck
                    // in a long stall re-checks the epoch when it wakes
                    // and stands down instead of mutating shards the
                    // resumed fleet owns.
                    epoch.fetch_add(1, Ordering::Relaxed);
                    guard.wedge();
                    drop(guard);
                    (None, cause)
                }
            };

            retry_causes.push(cause);
            if retry_causes.len() as u32 > cfg.max_node_retries {
                return Err(ClusterError::RetriesExhausted(retry_causes));
            }
            // Exponential backoff: 10ms, 20ms, ... capped at 640ms. Also
            // grace for in-flight zombie handlers to drain.
            let shift = (retry_causes.len() as u32 - 1).min(6);
            std::thread::sleep(Duration::from_millis(10u64 << shift));

            // Roll the whole cluster back to the last manifest barrier,
            // restarting the dead node (fresh mappings from disk) if one
            // crashed.
            let point = rollback_cluster(&mut shards, &manifest_path, dead)?;
            #[cfg(feature = "chaos")]
            for shard in &shards {
                shard.values.set_fault_plan(cfg.fault_plan.clone());
            }
            node_restarts += point.reopened;
            supersteps_rolled_back += progress
                .load(Ordering::Relaxed)
                .saturating_sub(point.resume);
            resume_superstep = point.resume;
            dispatch_col = point.dispatch_col;
        };

        // Stitch the shards into one global value vector.
        let fresh = final_col;
        let old = 1 - fresh;
        let mut values = Vec::with_capacity(n);
        for shard in &shards {
            let vf = &shard.values;
            for v in vf.range() {
                let f_bits = vf.load(fresh, v);
                let f_val = P::Value::from_bits(clear_flag(f_bits));
                values.push(if !is_flagged(f_bits) {
                    f_val
                } else {
                    let o_val = P::Value::from_bits(clear_flag(vf.load(old, v)));
                    program.freshest(o_val, f_val)
                });
            }
        }

        let stats = {
            let mut s = stats.lock().expect("stats lock poisoned");
            std::mem::take(&mut *s)
        };
        Ok(DistReport {
            values,
            supersteps: stats.steps_run,
            step_times: stats.step_times,
            commit_times: stats.commit_times,
            activated: stats.activated,
            deltas: stats.deltas,
            messages: stats.messages,
            traffic,
            node_restarts,
            supersteps_rolled_back,
            retry_causes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpsa_graph::generate;

    #[test]
    fn dispatchers_split_their_node_by_out_edges() {
        // R-MAT piles edges onto low ids inside node 0's range too: an
        // even id split of the range would hand its first dispatcher
        // most of them.
        let el = generate::rmat(4096, 40_000, generate::RmatParams::default(), 3);
        let dir = std::env::temp_dir().join(format!("gpsa-dist-split-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let cluster = Cluster::new(ClusterConfig::new(2, &dir));
        let (router, graphs) = cluster.fragments(&el, 2).unwrap();
        let intervals = dispatch_intervals(&router, &graphs, 2);
        for (node, parts) in intervals.iter().enumerate() {
            let range = router.node_range(node);
            assert_eq!(parts.first().unwrap().start, range.start);
            assert_eq!(parts.last().unwrap().end, range.end);
            let node_edges = graphs[node].edges_in_range(range.clone());
            for part in parts {
                let share = graphs[node].edges_in_range(part.clone()) as f64 / node_edges as f64;
                assert!(share <= 0.55, "node {node} {part:?} holds {share:.3}");
            }
            let mid = range.start + (range.end - range.start).div_ceil(2);
            let even_split = graphs[node].edges_in_range(range.start..mid) as f64;
            if node == 0 {
                assert!(even_split / node_edges as f64 > 0.6, "skew inside node 0");
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
