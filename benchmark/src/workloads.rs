//! The five workloads. Each calls the repository only through
//! [`crate::surface`].

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc};
use std::time::Instant;

use crate::harness::{closed_loop, Ctx, Measured, Res, SingleCaller, Workload};
use crate::inputs::{self, hash_words, Alg, Job, JobStream};
use crate::layers::Layers;
use crate::stats;
use crate::surface::{self, Csr, EdgeList};
use crate::trace::Tracer;

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Largest relative difference between two PageRank vectors, each
/// difference taken against the larger of the two values and never less
/// than the mean rank `1/n` (so vertices holding almost no rank cannot
/// pass or fail the check on rounding alone).
fn pagerank_error(a: &[f32], b: &[f32]) -> f64 {
    if a.len() != b.len() {
        return f64::INFINITY;
    }
    let floor = 1.0 / a.len().max(1) as f64;
    a.iter()
        .zip(b)
        .map(|(&x, &y)| {
            let (x, y) = (f64::from(x), f64::from(y));
            (x - y).abs() / x.abs().max(y.abs()).max(floor)
        })
        .fold(0.0, f64::max)
}

/// PageRank vectors agree when [`pagerank_error`] is at most this.
const PR_TOLERANCE: f64 = 1e-4;

fn check_pagerank(what: &str, got: &[f32], want: &[f32]) -> Res<()> {
    let err = pagerank_error(got, want);
    if err <= PR_TOLERANCE {
        Ok(())
    } else {
        Err(format!("{what}: PageRank differs by {err:.3e} (relative)"))
    }
}

/// The graph and reference values `pr_dense` and `dist_pr` share.
struct PrGraph {
    edges: EdgeList,
    baseline: Option<BaselineThread>,
    reference: Vec<f32>,
}

/// The single thread's PageRank reps, on a thread of their own.
/// `seq::pagerank` allocates its three vectors on every call. On the main
/// thread they land in whatever holes the engine's result vectors last
/// left in the main malloc arena, and the same kernel on the same graph
/// took 8.7 to 16.9 ms depending on the hole. A thread that does nothing
/// else has an arena where every rep gets the same chunks back. It sleeps
/// on a channel while ops run, so it takes no core from them.
struct BaselineThread {
    // Dropped first: the thread's loop ends when the sender is gone.
    rep: Option<mpsc::Sender<()>>,
    ms: mpsc::Receiver<f64>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl BaselineThread {
    fn start(csr: Csr) -> BaselineThread {
        let (rep, reps) = mpsc::channel::<()>();
        let (out, ms) = mpsc::channel();
        let thread = std::thread::spawn(move || {
            for () in reps {
                let started = Instant::now();
                std::hint::black_box(surface::seq_pagerank(&csr, surface::PR_DAMPING));
                if out.send(ms_since(started)).is_err() {
                    return;
                }
            }
        });
        BaselineThread {
            rep: Some(rep),
            ms,
            thread: Some(thread),
        }
    }

    fn rep(&self) -> f64 {
        let sent = self.rep.as_ref().expect("running").send(());
        sent.expect("the baseline thread is alive");
        self.ms.recv().expect("the baseline thread is alive")
    }
}

impl Drop for BaselineThread {
    fn drop(&mut self) {
        drop(self.rep.take());
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl PrGraph {
    fn generate(ctx: &Ctx) -> PrGraph {
        PrGraph {
            edges: inputs::pr_graph(&ctx.scale, ctx.seed),
            baseline: None,
            reference: Vec::new(),
        }
    }

    /// The single thread's values are what ops are compared against while
    /// measuring; `verify` holds them to the `SyncEngine` oracle.
    fn prepare(&mut self) {
        let csr = surface::in_ram(&self.edges);
        self.reference = surface::seq_pagerank(&csr, surface::PR_DAMPING).0;
        self.baseline = Some(BaselineThread::start(csr));
    }

    fn baseline_rep(&self) -> f64 {
        self.baseline.as_ref().expect("prepared").rep()
    }

    fn verify(&self, m: &Measured, layers: &mut Layers) -> Res<()> {
        layers.push("gpsa-baselines.seq_ms", stats::median(&m.baseline_ms));
        check_pagerank(
            "single-thread reference vs SyncEngine",
            &self.reference,
            &surface::oracle_pagerank(&self.edges),
        )
    }
}

// -------------------------------------------------------------- pr_dense

/// PageRank, five supersteps, through `Engine::run` on the R-MAT twitter
/// stand-in: every edge is read, decoded, emitted, transported and folded
/// every superstep.
pub struct PrDense {
    graph: PrGraph,
    csr_path: PathBuf,
    engine: gpsa::Engine,
}

impl Workload for PrDense {
    fn build(ctx: &Ctx, dir: &Path, t: &mut Tracer) -> Res<Self> {
        let graph = PrGraph::generate(ctx);
        let csr_path = dir.join("graph.gcsr");
        surface::edges_to_csr(t, graph.edges.clone(), &csr_path)?;
        Ok(PrDense {
            graph,
            csr_path,
            engine: surface::engine(&dir.join("work"), surface::pagerank_termination()),
        })
    }

    fn warm_up(&mut self, t: &mut Tracer) -> Res<()> {
        self.op(t, None).map(drop)
    }

    fn prepare(&mut self) {
        self.graph.prepare();
    }

    fn measure(&mut self, ctx: &Ctx, t: &mut Tracer, layers: &mut Layers) -> Measured {
        closed_loop(self, ctx, t, layers)
    }

    fn verify(self, _: &Ctx, m: &mut Measured, _: &mut Tracer, layers: &mut Layers) -> Res<()> {
        self.graph.verify(m, layers)
    }
}

impl SingleCaller for PrDense {
    type Out = Vec<f32>;

    fn op(&mut self, t: &mut Tracer, layers: Option<&mut Layers>) -> Res<Vec<f32>> {
        let run = surface::run_pagerank(t, &self.engine, &self.csr_path)?;
        if let Some(l) = layers {
            run.sample.record(l);
        }
        Ok(run.values)
    }

    fn check(&mut self, out: Vec<f32>) -> Res<()> {
        check_pagerank("Engine::run", &out, &self.graph.reference)
    }

    fn baseline_rep(&mut self) -> f64 {
        self.graph.baseline_rep()
    }
}

// --------------------------------------------------------------- dist_pr

/// The `pr_dense` graph and program through `Cluster::run`, two nodes of
/// one worker each: the only workload that runs the distributed actors
/// and the cluster barrier commit.
pub struct DistPr {
    graph: PrGraph,
    dir: PathBuf,
    cluster: gpsa_dist::Cluster,
}

impl Workload for DistPr {
    fn build(ctx: &Ctx, dir: &Path, _t: &mut Tracer) -> Res<Self> {
        Ok(DistPr {
            graph: PrGraph::generate(ctx),
            dir: dir.to_path_buf(),
            cluster: surface::cluster(&dir.join("cluster")),
        })
    }

    fn warm_up(&mut self, t: &mut Tracer) -> Res<()> {
        self.op(t, None).map(drop)
    }

    fn prepare(&mut self) {
        self.graph.prepare();
    }

    fn measure(&mut self, ctx: &Ctx, t: &mut Tracer, layers: &mut Layers) -> Measured {
        closed_loop(self, ctx, t, layers)
    }

    fn verify(self, ctx: &Ctx, m: &mut Measured, t: &mut Tracer, layers: &mut Layers) -> Res<()> {
        if ctx.trace {
            // ROADMAP item 2's gate: the cluster against the single-machine
            // engine on the same graph, in the same process.
            let csr_path = self.dir.join("graph.gcsr");
            surface::edges_to_csr(t, self.graph.edges.clone(), &csr_path)?;
            let engine = surface::engine(&self.dir.join("work"), surface::pagerank_termination());
            let mut engine_ms = Vec::new();
            for _ in 0..8 {
                let started = Instant::now();
                surface::run_pagerank(t, &engine, &csr_path)?;
                engine_ms.push(ms_since(started));
            }
            layers.push(
                "gpsa-dist.vs_engine_ratio",
                stats::median(&m.op_ms) / stats::median(&engine_ms).max(1e-9),
            );
        }
        self.graph.verify(m, layers)
    }
}

impl SingleCaller for DistPr {
    type Out = Vec<f32>;

    fn op(&mut self, t: &mut Tracer, layers: Option<&mut Layers>) -> Res<Vec<f32>> {
        let run = surface::run_dist_pagerank(t, &self.cluster, &self.graph.edges)?;
        if let Some(l) = layers {
            run.record(l);
        }
        Ok(run.values)
    }

    fn check(&mut self, out: Vec<f32>) -> Res<()> {
        check_pagerank("Cluster::run", &out, &self.graph.reference)
    }

    fn baseline_rep(&mut self) -> f64 {
        self.graph.baseline_rep()
    }
}

// -------------------------------------------------------------- bfs_grid

/// BFS to quiescence on a grid: hundreds of supersteps with a tiny
/// frontier, so per-superstep fixed cost is nearly all of the time.
pub struct BfsGrid {
    edges: EdgeList,
    csr_path: PathBuf,
    engine: gpsa::Engine,
    roots: Vec<u32>,
    next: usize,
    in_ram: Option<Csr>,
    /// `seq::bfs` levels per root.
    oracle: Vec<Vec<u32>>,
}

impl Workload for BfsGrid {
    fn build(ctx: &Ctx, dir: &Path, t: &mut Tracer) -> Res<Self> {
        let edges = inputs::grid_graph(&ctx.scale);
        let csr_path = dir.join("graph.gcsr");
        surface::edges_to_csr(t, edges.clone(), &csr_path)?;
        Ok(BfsGrid {
            edges,
            csr_path,
            engine: surface::engine(&dir.join("work"), surface::quiescence()),
            roots: inputs::grid_roots(&ctx.scale, ctx.seed),
            next: 0,
            in_ram: None,
            oracle: Vec::new(),
        })
    }

    fn warm_up(&mut self, t: &mut Tracer) -> Res<()> {
        self.op(t, None).map(drop)
    }

    fn prepare(&mut self) {
        let csr = surface::in_ram(&self.edges);
        for &root in &self.roots {
            self.oracle.push(surface::seq_bfs(&csr, root).0);
        }
        self.in_ram = Some(csr);
    }

    fn measure(&mut self, ctx: &Ctx, t: &mut Tracer, layers: &mut Layers) -> Measured {
        closed_loop(self, ctx, t, layers)
    }

    fn verify(self, _: &Ctx, m: &mut Measured, _: &mut Tracer, layers: &mut Layers) -> Res<()> {
        layers.push("gpsa-baselines.seq_ms", stats::median(&m.baseline_ms));
        Ok(())
    }
}

impl SingleCaller for BfsGrid {
    /// Which root, and the levels the engine found.
    type Out = (usize, Vec<u32>);

    fn op(&mut self, t: &mut Tracer, layers: Option<&mut Layers>) -> Res<Self::Out> {
        // Ops come in pairs on one root: a traced run records spans on
        // every other op, and the two halves must do the same work.
        let which = (self.next / 2) % self.roots.len();
        self.next += 1;
        let run = surface::run_bfs(t, &self.engine, &self.csr_path, self.roots[which])?;
        if let Some(l) = layers {
            run.sample.record(l);
        }
        Ok((which, run.values))
    }

    fn check(&mut self, (which, levels): Self::Out) -> Res<()> {
        // Warm-up ops run before the oracle exists and are not checked.
        match self.oracle.get(which) {
            Some(want) if *want != levels => Err(format!(
                "BFS from {} differs from seq::bfs",
                self.roots[which]
            )),
            _ => Ok(()),
        }
    }

    fn baseline_rep(&mut self) -> f64 {
        let csr = self.in_ram.as_ref().expect("prepared");
        let root = self.roots[self.next % self.roots.len()];
        let started = Instant::now();
        std::hint::black_box(surface::seq_bfs(csr, root));
        ms_since(started)
    }
}

// --------------------------------------------------------------- live_cc

/// Writes beside reads: each op appends one delta batch (fsync), applies
/// it to the overlay and re-converges connected components incrementally
/// from the previous op's values. No compaction, so the overlay grows.
pub struct LiveCc {
    seed: u64,
    scale: inputs::Scale,
    live: surface::LiveGraph,
    engine: gpsa::Engine,
    value_file: PathBuf,
    prior: Vec<u32>,
    batches: u64,
    /// Base plus everything appended: what the single thread recomputes on.
    all_edges: EdgeList,
    in_ram: Option<(u64, Csr)>,
}

impl Workload for LiveCc {
    fn build(ctx: &Ctx, dir: &Path, t: &mut Tracer) -> Res<Self> {
        let all_edges = inputs::live_base(&ctx.scale);
        let csr_path = dir.join("graph.gcsr");
        surface::edges_to_csr(t, all_edges.clone(), &csr_path)?;
        let live = surface::LiveGraph::open(t, &csr_path)?;
        let engine = surface::engine(&dir.join("work"), surface::quiescence());
        let value_file = dir.join("work").join("cc.gval");
        let prior = surface::run_cc_scratch(t, &engine, &live.snapshot(), &value_file)?.values;
        Ok(LiveCc {
            seed: ctx.seed,
            scale: ctx.scale,
            live,
            engine,
            value_file,
            prior,
            batches: 0,
            all_edges,
            in_ram: None,
        })
    }

    fn warm_up(&mut self, t: &mut Tracer) -> Res<()> {
        self.op(t, None)
    }

    fn measure(&mut self, ctx: &Ctx, t: &mut Tracer, layers: &mut Layers) -> Measured {
        closed_loop(self, ctx, t, layers)
    }

    fn verify(self, _: &Ctx, m: &mut Measured, t: &mut Tracer, layers: &mut Layers) -> Res<()> {
        layers.push("gpsa-baselines.seq_ms", stats::median(&m.baseline_ms));
        t.start_op(u64::MAX, false);
        let scratch =
            surface::run_cc_scratch(t, &self.engine, &self.live.snapshot(), &self.value_file)?;
        if scratch.values != self.prior {
            return Err(format!(
                "incremental CC after {} batches ({} added edges) differs from a scratch run",
                self.batches,
                self.live.added_edges()
            ));
        }
        Ok(())
    }
}

impl SingleCaller for LiveCc {
    type Out = ();

    fn op(&mut self, t: &mut Tracer, layers: Option<&mut Layers>) -> Res<()> {
        let batch = inputs::live_batch(&self.scale, self.seed, self.batches);
        self.batches += 1;
        self.all_edges.edges.extend_from_slice(&batch);
        self.live.add_edges(t, batch)?;
        let run = surface::run_cc_incremental(
            t,
            &self.engine,
            &self.live.snapshot(),
            &self.value_file,
            &self.prior,
        )?;
        if let Some(l) = layers {
            run.sample.record(l);
        }
        self.prior = run.values;
        Ok(())
    }

    /// Checked once, at the end: the final values against a scratch run.
    fn check(&mut self, (): ()) -> Res<()> {
        Ok(())
    }

    /// The single thread has no incremental path: it recomputes components
    /// from scratch on the in-RAM graph as it stands now. Rebuilding that
    /// graph is not timed.
    fn baseline_rep(&mut self) -> f64 {
        if self.in_ram.as_ref().map(|(at, _)| *at) != Some(self.batches) {
            self.in_ram = Some((self.batches, surface::in_ram(&self.all_edges)));
        }
        let (_, csr) = self.in_ram.as_ref().expect("just built");
        let started = Instant::now();
        std::hint::black_box(surface::seq_cc(csr));
        ms_since(started)
    }
}

// ------------------------------------------------------------- serve_mix

/// PageRank replies kept whole per client for the tolerance check; the
/// rest are compared by hash. Keeping every reply would make peak memory
/// grow with the number of ops completed.
const KEPT_PAGERANK_REPLIES: usize = 16;
/// Distinct specs re-run without the server in the traced run.
const DIRECT_RUNS: usize = 48;

/// One served job as the client saw it.
struct Served {
    job: Job,
    traced: bool,
    latency_ms: f64,
    reply: Result<ReplyDigest, String>,
}

struct ReplyDigest {
    hash: u64,
    kept: Option<Arc<Vec<u32>>>,
    cache_hit: bool,
    queue_wait_ms: f64,
    run_ms: f64,
    retry_attempts: u32,
    supersteps: u64,
    messages: u64,
}

/// A seeded job mix sent by two closed-loop clients to a durable
/// in-process server that runs one job at a time.
pub struct ServeMix {
    graphs: [EdgeList; 2],
    csr_paths: [PathBuf; 2],
    dir: PathBuf,
    // Dropped (shut down) with the workload.
    server: gpsa_serve::ServerHandle,
    admin: gpsa_serve::Client,
    warm_ups: JobStream,
    register_ms: Vec<f64>,
    served: Vec<Served>,
}

fn alg_key(job: &Job) -> (usize, u8, u32) {
    match job.alg {
        Alg::Bfs { root } => (job.graph, 0, root),
        Alg::Sssp { root } => (job.graph, 1, root),
        Alg::Cc => (job.graph, 2, 0),
        Alg::PageRank { damping } => (job.graph, 3, damping.to_bits()),
    }
}

/// The tuned single thread's answer to a job spec.
struct Answer {
    hash: u64,
    /// Kept whole only where replies are compared within a tolerance.
    pagerank: Option<Vec<f32>>,
    seq_ms: f64,
}

fn single_thread(csr: &Csr, job: &Job) -> Answer {
    let started = Instant::now();
    let values = match job.alg {
        Alg::Bfs { root } => surface::seq_bfs(csr, root).0,
        Alg::Sssp { root } => surface::seq_sssp(csr, root).0,
        Alg::Cc => surface::seq_cc(csr).0,
        Alg::PageRank { damping } => surface::seq_pagerank(csr, damping)
            .0
            .into_iter()
            .map(f32::to_bits)
            .collect(),
    };
    let seq_ms = ms_since(started);
    Answer {
        hash: hash_words(&values),
        pagerank: matches!(job.alg, Alg::PageRank { .. })
            .then(|| values.iter().map(|b| f32::from_bits(*b)).collect()),
        seq_ms,
    }
}

/// One closed-loop client: its own connection, its own seeded job list.
fn client_loop(
    addr: std::net::SocketAddr,
    graphs: &[EdgeList; 2],
    ctx: &Ctx,
    client: u32,
    t: &mut Tracer,
) -> Res<Vec<Served>> {
    let mut conn = surface::connect(addr)?;
    let mut jobs = JobStream::new(ctx.seed, client, graphs);
    let started = Instant::now();
    let mut served = Vec::new();
    let mut kept = 0;
    loop {
        let n = served.len() as u64;
        match ctx.max_ops {
            Some(max) if n >= max.div_ceil(2) => break,
            None if started.elapsed().as_secs_f64() >= ctx.seconds => break,
            _ => {}
        }
        let job = jobs.next().expect("the job list does not end");
        let traced = ctx.trace && n.is_multiple_of(2);
        t.start_op(2 * n + u64::from(client), traced);
        let span = t.begin("op");
        let op_started = Instant::now();
        let reply = surface::submit(t, &mut conn, &job);
        let latency_ms = ms_since(op_started);
        t.end(span);
        let reply = reply.map(|r| {
            let keep = matches!(job.alg, Alg::PageRank { .. }) && kept < KEPT_PAGERANK_REPLIES;
            kept += usize::from(keep);
            ReplyDigest {
                hash: hash_words(&r.values),
                kept: keep.then_some(r.values),
                cache_hit: r.cache_hit,
                queue_wait_ms: r.queue_wait.as_secs_f64() * 1e3,
                run_ms: r.run_time.as_secs_f64() * 1e3,
                retry_attempts: r.retry_attempts,
                supersteps: r.supersteps,
                messages: r.messages,
            }
        });
        served.push(Served {
            job,
            traced,
            latency_ms,
            reply,
        });
    }
    Ok(served)
}

impl Workload for ServeMix {
    fn build(ctx: &Ctx, dir: &Path, t: &mut Tracer) -> Res<Self> {
        let graphs = inputs::serve_graphs(&ctx.scale, ctx.seed);
        let csr_paths = [0, 1].map(|g| dir.join(format!("{}.gcsr", surface::graph_id(g))));
        for (edges, path) in graphs.iter().zip(&csr_paths) {
            surface::edges_to_csr(t, edges.clone(), path)?;
        }
        let server = surface::start_server(t, &dir.join("serve"))?;
        let mut admin = surface::connect(server.addr())?;
        let mut register_ms = Vec::new();
        for (g, path) in csr_paths.iter().enumerate() {
            let started = Instant::now();
            surface::register_graph(t, &mut admin, surface::graph_id(g), path)?;
            register_ms.push(ms_since(started));
        }
        Ok(ServeMix {
            // Its own list, so warming up does not eat the measured one.
            warm_ups: JobStream::new(ctx.seed, 2, &graphs),
            graphs,
            csr_paths,
            dir: dir.to_path_buf(),
            server,
            admin,
            register_ms,
            served: Vec::new(),
        })
    }

    fn warm_up(&mut self, t: &mut Tracer) -> Res<()> {
        let job = self.warm_ups.next().expect("the job list does not end");
        surface::submit(t, &mut self.admin, &job).map(drop)
    }

    /// Two client threads, one connection each, every client blocking for
    /// its reply before it sends its next job.
    fn measure(&mut self, ctx: &Ctx, t: &mut Tracer, _layers: &mut Layers) -> Measured {
        let mut m = Measured::default();
        let (wall0, cpu0) = (Instant::now(), gpsa_metrics::ProcessCpu::snapshot());
        let (addr, graphs) = (self.server.addr(), &self.graphs);
        let results: Vec<(Res<Vec<Served>>, Tracer)> = std::thread::scope(|scope| {
            let clients: Vec<_> = (0..2)
                .map(|client| {
                    let mut tracer = t.fork();
                    scope.spawn(move || {
                        (client_loop(addr, graphs, ctx, client, &mut tracer), tracer)
                    })
                })
                .collect();
            clients
                .into_iter()
                .map(|c| c.join().expect("client thread panicked"))
                .collect()
        });
        m.busy_s = wall0.elapsed().as_secs_f64();
        if let (Some(a), Some(b)) = (cpu0, gpsa_metrics::ProcessCpu::snapshot()) {
            m.cpu_s = b.cpu_time.saturating_sub(a.cpu_time).as_secs_f64();
        }
        for (served, tracer) in results {
            t.absorb(tracer);
            match served {
                Ok(served) => self.served.extend(served),
                Err(why) => {
                    m.attempted += 1;
                    m.fail(why);
                }
            }
        }
        m.attempted += self.served.len() as u64;
        m
    }

    /// Every reply against the single thread's answer for the same spec
    /// (exact by hash for BFS/CC/SSSP, within tolerance for the PageRank
    /// replies kept); the single thread's times are the COST baseline. The
    /// traced run also re-runs a sample of specs without the server.
    fn verify(
        mut self,
        ctx: &Ctx,
        m: &mut Measured,
        t: &mut Tracer,
        layers: &mut Layers,
    ) -> Res<()> {
        let counters = surface::server_counters(&mut self.admin)?;
        let in_ram = [0, 1].map(|g| surface::in_ram(&self.graphs[g]));
        let mut answers: HashMap<(usize, u8, u32), Answer> = HashMap::new();
        let mut distinct: Vec<Job> = Vec::new();
        let served = std::mem::take(&mut self.served);
        for s in &served {
            let want = answers.entry(alg_key(&s.job)).or_insert_with(|| {
                distinct.push(s.job);
                single_thread(&in_ram[s.job.graph], &s.job)
            });
            m.baseline_ms.push(want.seq_ms);
            let verdict = match &s.reply {
                Err(why) => Err(why.clone()),
                Ok(r) => match (&r.kept, &want.pagerank) {
                    (Some(got), Some(want)) => {
                        let got: Vec<f32> = got.iter().map(|b| f32::from_bits(*b)).collect();
                        check_pagerank("served PageRank", &got, want)
                    }
                    (None, Some(_)) => Ok(()),
                    _ if r.hash == want.hash => Ok(()),
                    _ => Err(format!(
                        "reply to {:?} differs from the single thread",
                        s.job
                    )),
                },
            };
            match verdict {
                Ok(()) => m.op_ms.push(s.latency_ms),
                Err(why) => m.fail(why),
            }
        }
        // COST of a job list: the time the server took to get through it
        // over the time one thread needs for the same jobs, no cache.
        m.cost_ratio = Some(m.busy_s * 1e3 / m.baseline_ms.iter().sum::<f64>().max(1e-9));
        if !ctx.trace {
            return Ok(());
        }

        let ok = || {
            served
                .iter()
                .filter_map(|s| s.reply.as_ref().ok().map(|r| (s, r)))
        };
        for (s, r) in ok() {
            if s.traced {
                m.traced_ms.push(s.latency_ms);
            } else {
                m.untraced_ms.push(s.latency_ms);
            }
            let overhead = s.latency_ms - r.queue_wait_ms - r.run_ms;
            layers.push("gpsa-serve.queue_wait_ms_p50", r.queue_wait_ms);
            layers.push("gpsa-serve.reply_overhead_ms_p50", overhead);
            if r.cache_hit {
                layers.push("gpsa-serve.cache_hit_ms_p50", s.latency_ms);
            } else {
                layers.push("gpsa-serve.run_ms_p50", r.run_ms);
                layers.push("gpsa-core.supersteps", r.supersteps as f64);
                layers.push("gpsa-core.messages", r.messages as f64);
                if s.job.stream {
                    layers.push("gpsa-serve.streamed_overhead_ms_p50", overhead);
                }
            }
        }
        let mut waits: Vec<f64> = ok().map(|(_, r)| r.queue_wait_ms).collect();
        stats::sort(&mut waits);
        let tail = stats::tail_percentile(waits.len(), ctx.workload.tail_percentile);
        layers.push(
            "gpsa-serve.queue_wait_ms_tail",
            stats::percentile(&waits, tail),
        );
        let retries: u32 = ok().map(|(_, r)| r.retry_attempts).sum();
        layers.set("gpsa-serve.retries", f64::from(retries));
        layers.set("gpsa-serve.cache_hit_rate", counters.cache_hit_rate);
        layers.set("gpsa-serve.shed", counters.shed as f64);
        layers.set("gpsa-serve.jobs_failed", counters.jobs_failed as f64);
        for ms in &self.register_ms {
            layers.push("gpsa-serve.register_ms", *ms);
        }
        layers.push("gpsa-baselines.seq_ms", stats::median(&m.baseline_ms));

        // The same specs through `Engine::run_snapshot`, no server around
        // them: what a served job costs beyond its engine run.
        let direct = surface::DirectRunner::open(&self.csr_paths, &self.dir.join("direct"))?;
        let mut first_served_ms: HashMap<(usize, u8, u32), f64> = HashMap::new();
        for (s, _) in ok().filter(|(_, r)| !r.cache_hit) {
            first_served_ms
                .entry(alg_key(&s.job))
                .or_insert(s.latency_ms);
        }
        let (mut direct_ms, mut served_ms) = (Vec::new(), Vec::new());
        t.start_op(u64::MAX, true);
        for job in distinct.iter().take(DIRECT_RUNS) {
            let Some(&served) = first_served_ms.get(&alg_key(job)) else {
                continue;
            };
            let started = Instant::now();
            let got = direct.run(t, job)?;
            direct_ms.push(ms_since(started));
            served_ms.push(served);
            let want = &answers[&alg_key(job)];
            if want.pagerank.is_none() && hash_words(&got) != want.hash {
                return Err(format!(
                    "direct run of {job:?} differs from the single thread"
                ));
            }
        }
        let direct_p50 = stats::median(&direct_ms);
        layers.push("gpsa-serve.direct_run_ms_p50", direct_p50);
        layers.push(
            "gpsa-serve.overhead_ratio",
            stats::median(&served_ms) / direct_p50.max(1e-9),
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pagerank_error_is_relative_with_a_floor_at_the_mean_rank() {
        let a = [0.25f32, 0.25, 0.25, 0.25];
        assert_eq!(pagerank_error(&a, &a), 0.0);
        let b = [0.25f32, 0.25, 0.25, 0.2501];
        assert!((pagerank_error(&a, &b) - 0.0001 / 0.2501).abs() < 1e-6);
        // A vertex holding almost nothing is judged against 1/n.
        let (c, d) = ([1e-9f32, 1.0], [2e-9f32, 1.0]);
        assert!(pagerank_error(&c, &d) < 1e-8);
        assert_eq!(pagerank_error(&a, &a[..3]), f64::INFINITY);
    }
}
