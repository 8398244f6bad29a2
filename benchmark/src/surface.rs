//! The one module through which the five workloads call the repository.
//!
//! Every call a workload makes into `crates/*` is a function here, wrapped
//! in a span when the op is traced. When a refactor renames an entry point
//! (ROADMAP item 2 plans to fold `Engine::{run, run_snapshot,
//! run_incremental}` into one `run(RunInput)`), this file is the whole
//! benchmark follow-up; workloads, metrics and result files stay as they
//! are. The deep-API micro cells live apart, in `src/bin/cells.rs`.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use gpsa::programs::{Bfs, ConnectedComponents, PageRank};
use gpsa::{Engine, EngineConfig, RunReport, SyncEngine, Termination};
use gpsa_baselines::seq;
use gpsa_dist::{Cluster, ClusterConfig};
use gpsa_graph::{
    generate, preprocess, DeltaBatch, DeltaLog, DeltaOverlay, DiskCsr, GraphSnapshot,
};
use gpsa_serve::{AlgorithmSpec, Client, ServeConfig, ServerHandle, SubmitRequest};

pub use gpsa_graph::{Csr, Edge, EdgeList};

use crate::inputs::{Alg, Job};
use crate::layers::Layers;
use crate::trace::{SpanId, Tracer};

/// Worker threads of every engine under test: the box has two cores, and
/// no workload uses more threads or connections than that.
pub const WORKERS: usize = 2;
/// Supersteps of a PageRank op — the paper's timing methodology.
pub const PR_SUPERSTEPS: u64 = 5;
/// Damping of the `pr_dense` / `dist_pr` PageRank.
pub const PR_DAMPING: f32 = 0.85;
/// BFS/SSSP distance of an unreachable vertex.
const UNREACHED: u32 = gpsa::programs::UNREACHED;

type Res<T> = Result<T, String>;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

// ---------------------------------------------------------------- inputs

/// Seeded R-MAT with the default skewed quadrants.
pub fn rmat(n_vertices: usize, n_edges: usize, seed: u64) -> EdgeList {
    generate::rmat(n_vertices, n_edges, generate::RmatParams::default(), seed)
}

/// `rows × cols` grid, both directions.
pub fn grid(rows: usize, cols: usize) -> EdgeList {
    generate::grid(rows, cols)
}

/// Seeded Erdős–Rényi with every reverse edge added.
pub fn symmetrized_erdos_renyi(n_vertices: usize, n_edges: usize, seed: u64) -> EdgeList {
    generate::symmetrize(&generate::erdos_renyi(n_vertices, n_edges, seed))
}

/// Write `edges` as a v2 (delta-varint) CSR file at `path`.
pub fn edges_to_csr(t: &mut Tracer, edges: EdgeList, path: &Path) -> Res<()> {
    let s = t.begin("gpsa-graph::preprocess::edges_to_csr");
    let r = preprocess::edges_to_csr(edges, path, &preprocess::PreprocessOptions::default());
    t.end(s);
    r.map(drop).map_err(err)
}

/// The flat in-RAM CSR the single-thread baselines run on.
pub fn in_ram(edges: &EdgeList) -> Csr {
    Csr::from_edge_list(edges)
}

// ---------------------------------------------------------------- engine

/// What one engine run reported, reduced to the per-layer quantities.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunSample {
    dispatch_us: f64,
    fold_us: f64,
    commit_total_us: f64,
    slab_wait_us: f64,
    first_batch_us: f64,
    step_fixed_us: Option<f64>,
    run_overhead_ms: f64,
    msgs_per_s: f64,
    messages: f64,
    supersteps: f64,
    edges_streamed: f64,
    edge_bytes_streamed: f64,
    edges_skipped: f64,
    seeded_frontier: f64,
    retry_attempts: f64,
    pool_hit_rate: f64,
    step_residual_share: f64,
    steps_total: Duration,
    setup: Duration,
}

impl RunSample {
    fn from_report<V>(r: &RunReport<V>) -> RunSample {
        let phases = r.phase_totals();
        let steps_total = r.superstep_total();
        let steps_us = steps_total.as_secs_f64() * 1e6;
        // Supersteps that move almost nothing: their time is the fixed
        // cost of a superstep (barrier, commit, wake/park, frontier scan).
        let mut sparse_steps: Vec<f64> = r
            .step_times
            .iter()
            .zip(&r.frontier_density)
            .filter(|(_, &d)| d < 0.01)
            .map(|(t, _)| t.as_secs_f64() * 1e6)
            .collect();
        crate::stats::sort(&mut sparse_steps);
        let covered =
            (phases.dispatch_us + phases.fold_us) as f64 / WORKERS as f64 + phases.commit_us as f64;
        RunSample {
            dispatch_us: phases.dispatch_us as f64,
            fold_us: phases.fold_us as f64,
            commit_total_us: phases.commit_us as f64,
            slab_wait_us: phases.slab_wait_us as f64,
            first_batch_us: r.mean_first_batch().map_or(0.0, |d| d.as_secs_f64() * 1e6),
            step_fixed_us: (!sparse_steps.is_empty())
                .then(|| crate::stats::percentile(&sparse_steps, 50)),
            run_overhead_ms: r.elapsed.saturating_sub(steps_total).as_secs_f64() * 1e3,
            msgs_per_s: r.messages as f64 / r.elapsed.as_secs_f64().max(1e-9),
            messages: r.messages as f64,
            supersteps: r.supersteps as f64,
            edges_streamed: r.edges_streamed as f64,
            edge_bytes_streamed: r.edge_bytes_streamed as f64,
            edges_skipped: r.edges_skipped as f64,
            seeded_frontier: r.seeded_frontier as f64,
            retry_attempts: f64::from(r.retry_attempts),
            pool_hit_rate: r.pool_hit_rate(),
            step_residual_share: if steps_us > 0.0 {
                ((steps_us - covered) / steps_us).max(0.0)
            } else {
                0.0
            },
            steps_total,
            setup: r.elapsed.saturating_sub(steps_total),
        }
    }

    /// Add this run to the per-layer samples.
    pub fn record(&self, l: &mut Layers) {
        l.push("gpsa-core.dispatch_us", self.dispatch_us);
        l.push("gpsa-core.fold_us", self.fold_us);
        l.push("gpsa-core.commit_total_us", self.commit_total_us);
        l.push("gpsa-core.slab_wait_us", self.slab_wait_us);
        l.push("gpsa-core.first_batch_us", self.first_batch_us);
        if let Some(us) = self.step_fixed_us {
            l.push("gpsa-core.step_fixed_us", us);
        }
        l.push("gpsa-core.run_overhead_ms", self.run_overhead_ms);
        l.push("gpsa-core.msgs_per_s", self.msgs_per_s);
        l.push("gpsa-core.messages", self.messages);
        l.push("gpsa-core.supersteps", self.supersteps);
        l.push("gpsa-core.edges_streamed", self.edges_streamed);
        l.push("gpsa-core.edge_bytes_streamed", self.edge_bytes_streamed);
        l.push("gpsa-core.edges_skipped", self.edges_skipped);
        l.push("gpsa-core.seeded_frontier", self.seeded_frontier);
        l.push("gpsa-core.retry_attempts", self.retry_attempts);
        l.push("gpsa-core.pool_hit_rate", self.pool_hit_rate);
        l.push("gpsa-core.step_residual_share", self.step_residual_share);
    }

    /// Children of an engine-run span, synthesised from what the run
    /// returned: set-up (value-file create, `System` spawn, teardown),
    /// then the supersteps, whose children are the phase totals divided by
    /// the worker count. The supersteps' self time is then the residual:
    /// transport, barrier and idle time.
    fn synth_spans(&self, t: &mut Tracer, run: SpanId) {
        let kids = t.synth_children(
            run,
            &[
                ("gpsa-core::run.setup+teardown", self.setup),
                ("gpsa-core::run.supersteps", self.steps_total),
            ],
        );
        let per_worker = |us: f64| Duration::from_secs_f64(us / 1e6 / WORKERS as f64);
        t.synth_children(
            kids[1],
            &[
                (
                    "gpsa-core::superstep.dispatch",
                    per_worker(self.dispatch_us),
                ),
                ("gpsa-core::superstep.fold", per_worker(self.fold_us)),
                (
                    "gpsa-core::superstep.commit",
                    Duration::from_secs_f64(self.commit_total_us / 1e6),
                ),
            ],
        );
    }
}

/// Values and per-layer sample of one engine run.
#[derive(Debug)]
pub struct EngineRun<V> {
    /// Final vertex values.
    pub values: Vec<V>,
    /// Where the run said its time went.
    pub sample: RunSample,
}

fn traced_run<V>(
    t: &mut Tracer,
    name: &'static str,
    run: impl FnOnce() -> Result<RunReport<V>, gpsa::EngineError>,
) -> Res<EngineRun<V>> {
    let s = t.begin(name);
    let r = run();
    t.end(s);
    let r = r.map_err(err)?;
    let sample = RunSample::from_report(&r);
    sample.synth_spans(t, s);
    Ok(EngineRun {
        values: r.values,
        sample,
    })
}

/// An engine with [`WORKERS`] workers, 2 dispatchers + 2 computers, and
/// the repository's defaults otherwise (`DispatchMode::Auto`).
pub fn engine(work_dir: &Path, termination: Termination) -> Engine {
    Engine::new(
        EngineConfig::new(work_dir)
            .with_workers(WORKERS)
            .with_actors(2, 2)
            .with_termination(termination),
    )
}

/// Five PageRank supersteps.
pub fn pagerank_termination() -> Termination {
    Termination::Supersteps(PR_SUPERSTEPS)
}

/// Run until no vertex changes.
pub fn quiescence() -> Termination {
    Termination::Quiescence {
        max_supersteps: 10_000,
    }
}

/// `Engine::run` PageRank over the CSR file at `csr`.
pub fn run_pagerank(t: &mut Tracer, engine: &Engine, csr: &Path) -> Res<EngineRun<f32>> {
    traced_run(t, "gpsa-core::Engine::run", || {
        engine.run(
            csr,
            PageRank {
                damping: PR_DAMPING,
            },
        )
    })
}

/// `Engine::run` BFS from `root` over the CSR file at `csr`.
pub fn run_bfs(t: &mut Tracer, engine: &Engine, csr: &Path, root: u32) -> Res<EngineRun<u32>> {
    traced_run(t, "gpsa-core::Engine::run", || {
        engine.run(csr, Bfs { root })
    })
}

// ------------------------------------------------------------ live graph

/// A CSR with its delta log and in-memory overlay: writes beside reads.
pub struct LiveGraph {
    base: Arc<DiskCsr>,
    overlay: DeltaOverlay,
    log: DeltaLog,
}

impl LiveGraph {
    /// `open_live` on the CSR at `csr` (replays any existing delta log).
    pub fn open(t: &mut Tracer, csr: &Path) -> Res<LiveGraph> {
        let s = t.begin("gpsa-graph::open_live");
        let r = gpsa_graph::open_live(csr);
        t.end(s);
        let (snapshot, log) = r.map_err(err)?;
        Ok(LiveGraph {
            base: snapshot.base().clone(),
            overlay: snapshot.overlay().as_ref().clone(),
            log,
        })
    }

    /// Append one batch to the fsync'd delta log and apply it to the
    /// overlay, as `gpsa mutate` does.
    pub fn add_edges(&mut self, t: &mut Tracer, edges: Vec<Edge>) -> Res<()> {
        let batch = DeltaBatch::Add(edges);
        let s = t.begin("gpsa-graph::DeltaLog::append");
        let r = self.log.append(&batch);
        t.end(s);
        r.map_err(err)?;
        let s = t.begin("gpsa-graph::DeltaOverlay::apply");
        self.overlay.apply(&self.base, &batch);
        t.end(s);
        Ok(())
    }

    /// The merged view as of now.
    pub fn snapshot(&self) -> Arc<GraphSnapshot> {
        Arc::new(GraphSnapshot::new(
            self.base.clone(),
            Arc::new(self.overlay.clone()),
        ))
    }

    /// Edges added since the base was written.
    pub fn added_edges(&self) -> u64 {
        self.overlay.added_edges()
    }
}

/// `Engine::run_snapshot` connected components from scratch.
pub fn run_cc_scratch(
    t: &mut Tracer,
    engine: &Engine,
    graph: &Arc<GraphSnapshot>,
    value_file: &Path,
) -> Res<EngineRun<u32>> {
    traced_run(t, "gpsa-core::Engine::run_snapshot", || {
        engine.run_snapshot(graph, value_file, ConnectedComponents)
    })
}

/// `Engine::run_incremental` connected components from `prior` values.
pub fn run_cc_incremental(
    t: &mut Tracer,
    engine: &Engine,
    graph: &Arc<GraphSnapshot>,
    value_file: &Path,
    prior: &[u32],
) -> Res<EngineRun<u32>> {
    traced_run(t, "gpsa-core::Engine::run_incremental", || {
        engine.run_incremental(graph, value_file, ConnectedComponents, prior)
    })
}

// --------------------------------------------------------------- cluster

/// What one cluster run reported.
#[derive(Debug)]
pub struct DistRun {
    /// Final vertex values.
    pub values: Vec<f32>,
    step_ms_p50: f64,
    commit_ms_p50: f64,
    shard_setup_ms: f64,
    remote_share: f64,
    messages: f64,
    supersteps: f64,
}

impl DistRun {
    /// Add this run to the per-layer samples.
    pub fn record(&self, l: &mut Layers) {
        l.push("gpsa-dist.step_ms_p50", self.step_ms_p50);
        l.push("gpsa-dist.commit_ms_p50", self.commit_ms_p50);
        l.push("gpsa-dist.shard_setup_ms", self.shard_setup_ms);
        l.push("gpsa-dist.remote_share", self.remote_share);
        l.push("gpsa-core.messages", self.messages);
        l.push("gpsa-core.supersteps", self.supersteps);
    }
}

/// Two nodes × one worker (1 dispatcher + 1 computer each), not durable.
pub fn cluster(work_dir: &Path) -> Cluster {
    let mut config = ClusterConfig::new(2, work_dir).with_termination(pagerank_termination());
    config.dispatchers_per_node = 1;
    config.computers_per_node = 1;
    config.workers_per_node = 1;
    Cluster::new(config)
}

/// `Cluster::run` PageRank over `edges` (it re-shards on every run).
pub fn run_dist_pagerank(t: &mut Tracer, cluster: &Cluster, edges: &EdgeList) -> Res<DistRun> {
    let s = t.begin("gpsa-dist::Cluster::run");
    let started = std::time::Instant::now();
    let r = cluster.run(
        edges,
        PageRank {
            damping: PR_DAMPING,
        },
    );
    let elapsed = started.elapsed();
    t.end(s);
    let r = r.map_err(err)?;
    let ms = |ds: &[Duration]| ds.iter().map(|d| d.as_secs_f64() * 1e3).collect::<Vec<_>>();
    let steps_total: Duration = r.step_times.iter().sum();
    let commits_total: Duration = r.commit_times.iter().sum();
    let shard_setup = elapsed
        .saturating_sub(steps_total)
        .saturating_sub(commits_total);
    t.synth_children(
        s,
        &[
            ("gpsa-dist::run.shard_setup", shard_setup),
            ("gpsa-dist::run.supersteps", steps_total),
            ("gpsa-dist::run.barrier_commits", commits_total),
        ],
    );
    Ok(DistRun {
        step_ms_p50: crate::stats::median(&ms(&r.step_times)),
        commit_ms_p50: crate::stats::median(&ms(&r.commit_times)),
        shard_setup_ms: shard_setup.as_secs_f64() * 1e3,
        remote_share: r.traffic.remote() as f64 / r.traffic.total().max(1) as f64,
        messages: r.messages as f64,
        supersteps: r.supersteps as f64,
        values: r.values,
    })
}

// ----------------------------------------------------------------- serve

/// A durable (journal on) in-process server that runs one job at a time on
/// a [`WORKERS`]-worker engine; the repository's defaults otherwise.
pub fn start_server(t: &mut Tracer, work_dir: &Path) -> Res<ServerHandle> {
    let config = ServeConfig::new(work_dir)
        .with_max_concurrent_jobs(1)
        .with_engine(
            EngineConfig::new(work_dir)
                .with_workers(WORKERS)
                .with_actors(2, 2),
        );
    let s = t.begin("gpsa-serve::start");
    let r = gpsa_serve::start(config);
    t.end(s);
    r.map_err(err)
}

/// A blocking client connection, retries disabled.
pub fn connect(addr: SocketAddr) -> Res<Client> {
    Client::connect(addr).map_err(err)
}

/// Make the CSR at `path` resident under `graph_id`.
pub fn register_graph(t: &mut Tracer, client: &mut Client, graph_id: &str, path: &Path) -> Res<()> {
    let path = path.to_str().ok_or("non-UTF-8 path")?;
    let s = t.begin("gpsa-serve::Client::register_graph");
    let r = client.register_graph(graph_id, path);
    t.end(s);
    r.map(drop).map_err(err)
}

/// A served job's reply, reduced to what the benchmark reads.
#[derive(Debug)]
pub struct Reply {
    /// Result as u32 bit patterns (f32 bits for PageRank).
    pub values: Arc<Vec<u32>>,
    /// Answered from the result cache.
    pub cache_hit: bool,
    /// Time the job waited in the scheduler's queues.
    pub queue_wait: Duration,
    /// Time the engine run took (zero for a cache hit).
    pub run_time: Duration,
    /// Engine self-healing retries inside the job.
    pub retry_attempts: u32,
    /// Supersteps the job ran.
    pub supersteps: u64,
    /// Messages the job folded.
    pub messages: u64,
}

fn spec(alg: Alg) -> AlgorithmSpec {
    match alg {
        Alg::Bfs { root } => AlgorithmSpec::Bfs { root },
        Alg::Sssp { root } => AlgorithmSpec::Sssp { root },
        Alg::Cc => AlgorithmSpec::Cc,
        Alg::PageRank { damping } => AlgorithmSpec::PageRank {
            damping,
            supersteps: PR_SUPERSTEPS,
        },
    }
}

/// Graph id of the `index`-th resident graph.
pub fn graph_id(index: usize) -> &'static str {
    ["big", "small"][index]
}

/// `Client::submit`: blocks until the reply. The job span's children are
/// synthesised from the reply's `queue_wait` and `run_time`; its self time
/// is the reply overhead (admission, journal, encode, socket, decode).
pub fn submit(t: &mut Tracer, client: &mut Client, job: &Job) -> Res<Reply> {
    let mut req = SubmitRequest::new(graph_id(job.graph), spec(job.alg));
    if job.stream {
        req = req.with_stream();
    }
    let s = t.begin("gpsa-serve::Client::submit");
    let r = client.submit(&req);
    t.end(s);
    let r = r.map_err(err)?;
    t.synth_children(
        s,
        &[
            ("gpsa-serve::job.queue_wait", r.queue_wait),
            ("gpsa-serve::job.run", r.run_time),
        ],
    );
    Ok(Reply {
        values: r.outcome.values_u32.clone(),
        cache_hit: r.cache_hit,
        queue_wait: r.queue_wait,
        run_time: r.run_time,
        retry_attempts: r.outcome.retry_attempts,
        supersteps: r.outcome.supersteps,
        messages: r.outcome.messages,
    })
}

/// Server-side counters after the measured phase.
#[derive(Debug, Clone, Copy)]
pub struct ServerCounters {
    /// Cache hits ÷ lookups.
    pub cache_hit_rate: f64,
    /// Submissions refused by admission control or a quota.
    pub shed: u64,
    /// Jobs that resolved with an error.
    pub jobs_failed: u64,
}

/// `Client::stats`.
pub fn server_counters(client: &mut Client) -> Res<ServerCounters> {
    let s = client.stats().map_err(err)?;
    Ok(ServerCounters {
        cache_hit_rate: s.cache_hit_rate(),
        shed: s.jobs_rejected + s.jobs_quota_shed + s.conns_shed,
        jobs_failed: s.jobs_failed + s.jobs_deadline,
    })
}

/// The same job without a server: `Engine::run_snapshot` on an opened CSR.
pub struct DirectRunner {
    graphs: [Arc<GraphSnapshot>; 2],
    work_dir: PathBuf,
}

impl DirectRunner {
    /// Open both resident graphs' CSR files.
    pub fn open(paths: &[PathBuf; 2], work_dir: &Path) -> Res<DirectRunner> {
        let open = |p: &PathBuf| -> Res<Arc<GraphSnapshot>> {
            Ok(Arc::new(GraphSnapshot::from_csr(Arc::new(
                DiskCsr::open(p).map_err(err)?,
            ))))
        };
        Ok(DirectRunner {
            graphs: [open(&paths[0])?, open(&paths[1])?],
            work_dir: work_dir.to_path_buf(),
        })
    }

    /// Run `job` directly; returns its values as u32 bit patterns.
    pub fn run(&self, t: &mut Tracer, job: &Job) -> Res<Vec<u32>> {
        let alg = spec(job.alg);
        let engine = engine(&self.work_dir, alg.termination());
        let value_file = self.work_dir.join("direct.gval");
        let s = t.begin("gpsa-serve::run_job (direct)");
        let r = gpsa_serve::job::run_job(&engine, &self.graphs[job.graph], &value_file, &alg);
        t.end(s);
        let outcome = r.map_err(err)?;
        Ok(Arc::try_unwrap(outcome.values_u32).unwrap_or_else(|a| (*a).clone()))
    }
}

// ------------------------------------------------------------- baselines

/// Tuned single-thread BFS on the in-RAM graph: values and relaxations.
pub fn seq_bfs(csr: &Csr, root: u32) -> (Vec<u32>, u64) {
    let (values, stats) = seq::bfs(csr, root);
    (values, stats.messages)
}

/// Tuned single-thread connected components.
pub fn seq_cc(csr: &Csr) -> (Vec<u32>, u64) {
    let (values, stats) = seq::connected_components(csr);
    (values, stats.messages)
}

/// Tuned single-thread PageRank, five supersteps.
pub fn seq_pagerank(csr: &Csr, damping: f32) -> (Vec<f32>, u64) {
    let (values, stats) = seq::pagerank(csr, damping, PR_SUPERSTEPS);
    (values, stats.messages)
}

/// Single-thread SSSP with the engine's synthetic weights: a FIFO
/// label-correcting worklist (the repository's `seq` has no SSSP).
pub fn seq_sssp(csr: &Csr, root: u32) -> (Vec<u32>, u64) {
    let mut dist = vec![UNREACHED; csr.n_vertices()];
    let mut queued = vec![false; csr.n_vertices()];
    let mut queue = std::collections::VecDeque::from([root]);
    let mut relaxations = 0u64;
    dist[root as usize] = 0;
    while let Some(u) = queue.pop_front() {
        queued[u as usize] = false;
        let du = dist[u as usize];
        for &v in csr.neighbors(u) {
            relaxations += 1;
            let cand = du
                .saturating_add(gpsa::programs::Sssp::weight(u, v))
                .min(UNREACHED);
            if cand < dist[v as usize] {
                dist[v as usize] = cand;
                if !std::mem::replace(&mut queued[v as usize], true) {
                    queue.push_back(v);
                }
            }
        }
    }
    (dist, relaxations)
}

/// The `SyncEngine` oracle for five PageRank supersteps.
pub fn oracle_pagerank(edges: &EdgeList) -> Vec<f32> {
    SyncEngine::new(pagerank_termination())
        .run(
            edges,
            PageRank {
                damping: PR_DAMPING,
            },
        )
        .values
}
