//! Deep-API micro cells: each layer's primitive timed alone, around its
//! public function, on the workload's own graph.
//!
//! `bench run --trace 1` builds and runs this binary and merges what it
//! prints into the per-layer metrics. It is a target of its own because
//! it reaches for internals (`MsgSlab`, `FoldCtx`, `ValueFile`,
//! `SeekCursor`, `JobJournal`, …) that a refactor may remove: when it no
//! longer compiles, the five end-to-end workloads still do.
//!
//! The cells stack: a raw word sum over the mapped file is the floor,
//! decoding sits on it, emission on decoding. Every graph here is LLC- and
//! page-cache resident, so these are compute costs per edge, not disk
//! bandwidth.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use actor::{Actor, Addr, Ctx, System};
use gpsa::programs::{Bfs, ConnectedComponents, PageRank};
use gpsa::{
    FoldCtx, Frontier, GraphMeta, MsgSlab, MsgSlabPool, SyncEngine, ValueFile, VertexProgram,
};
use gpsa_graph::{
    preprocess, DeltaBatch, DeltaLog, DeltaOverlay, DiskCsr, EdgeList, GraphSnapshot,
};
use gpsa_mmap::{Mmap, MmapMut};
use gpsa_serve::json::Json as WireJson;
use gpsa_serve::{
    AlgorithmSpec, JobJournal, JobOutcome, JobResponse, JournalRecord, Priority, ServerStats,
    ValueType,
};

use gpsa_benchmark::inputs::{self, Scale, SplitMix64};
use gpsa_benchmark::json::Json;
use gpsa_benchmark::stats;
use gpsa_benchmark::surface;

/// The engine's default `msg_batch`: destinations per slab.
const MSG_BATCH: usize = 4096;

type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// Median wall time of `reps` calls of `f`.
fn median_time(reps: usize, mut f: impl FnMut()) -> Duration {
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    stats::sort(&mut times);
    Duration::from_secs_f64(stats::percentile(&times, 50))
}

fn ns_per(d: Duration, n: usize) -> f64 {
    d.as_secs_f64() * 1e9 / n.max(1) as f64
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// What the cells measured, by per-layer metric name.
#[derive(Default)]
struct Cells(BTreeMap<String, Json>);

impl Cells {
    fn put(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value.into());
    }
}

fn main() -> Res<()> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let arg = |key: &str| {
        argv.iter()
            .position(|a| a == key)
            .and_then(|i| argv.get(i + 1))
            .cloned()
    };
    let workload = arg("--workload").ok_or("--workload")?;
    let seed: u64 = arg("--seed").ok_or("--seed")?.parse()?;
    let work = PathBuf::from(arg("--work").ok_or("--work")?);
    let scale = Scale::FULL;
    std::fs::create_dir_all(&work)?;

    // The workload's primary graph, and for `live_cc` the delta batches
    // it would have appended by the end of a run.
    let (edges, batches): (EdgeList, usize) = match workload.as_str() {
        "pr_dense" | "dist_pr" => (inputs::pr_graph(&scale, seed), 0),
        "bfs_grid" => (inputs::grid_graph(&scale), 0),
        "serve_mix" => {
            let [big, _] = inputs::serve_graphs(&scale, seed);
            (big, 0)
        }
        "live_cc" => (inputs::live_base(&scale), 300),
        other => return Err(format!("unknown workload {other}").into()),
    };

    let mut cells = Cells::default();
    graph_cells(&mut cells, &workload, &edges, batches, &scale, seed, &work)?;
    core_cells(&mut cells, &workload, &edges, seed, &work)?;
    actor_cells(&mut cells);
    serve_cells(&mut cells, edges.n_vertices, &work)?;
    let _ = std::fs::remove_dir_all(&work);
    println!("{}", Json::Obj(cells.0).encode());
    Ok(())
}

// ------------------------------------------------- gpsa-mmap, gpsa-graph

fn graph_cells(
    cells: &mut Cells,
    workload: &str,
    edges: &EdgeList,
    batches: usize,
    scale: &Scale,
    seed: u64,
    work: &Path,
) -> Res<()> {
    let n_edges = edges.len();
    let (v1, v2) = (work.join("v1.gcsr"), work.join("v2.gcsr"));
    preprocess::edges_to_csr(
        edges.clone(),
        &v1,
        &preprocess::PreprocessOptions::uncompressed(),
    )?;
    let mut clones = (0..3).map(|_| edges.clone()).collect::<Vec<_>>();
    let preprocess_time = median_time(3, || {
        let el = clones.pop().expect("one clone per rep");
        preprocess::edges_to_csr(el, &v2, &preprocess::PreprocessOptions::default())
            .expect("edges_to_csr");
    });
    cells.put(
        "gpsa-graph.preprocess_edges_per_s",
        n_edges as f64 / preprocess_time.as_secs_f64(),
    );

    // The floor of the stack: map the v1 file and add up its words.
    cells.put(
        "gpsa-mmap.open_us",
        us(median_time(50, || {
            black_box(Mmap::open(&v1).expect("Mmap::open"));
        })),
    );
    let map = Mmap::open(&v1)?;
    let words: &[u32] = map.as_slice_of()?;
    let read = median_time(9, || {
        black_box(words.iter().fold(0u32, |a, &w| a.wrapping_add(w)));
    });
    cells.put("gpsa-mmap.seq_read_ns_per_edge", ns_per(read, n_edges));

    // What a durable commit pays: one dirtied page, then msync over a
    // value-file-sized range.
    let mut scratch = MmapMut::create(work.join("flush.bin"), edges.n_vertices.max(1) * 8)?;
    let len = scratch.len();
    let mut tick = 0u8;
    let flush = median_time(20, || {
        tick = tick.wrapping_add(1);
        scratch.as_bytes_mut()[0] = tick;
        scratch.flush_range(0, len).expect("flush_range");
    });
    cells.put("gpsa-mmap.flush_range_us", us(flush));

    // Full-sweep record decode, as the dense dispatcher reads: the loop of
    // the emit cell below without the slab, so the two stack.
    let mut buf: Vec<u32> = Vec::with_capacity(2 * MSG_BATCH);
    for (name, path) in [
        ("gpsa-graph.decode_v1_ns_per_edge", &v1),
        ("gpsa-graph.decode_v2_ns_per_edge", &v2),
    ] {
        let csr = DiskCsr::open(path)?;
        let n = csr.n_vertices() as u32;
        let sweep = median_time(9, || {
            let mut cursor = csr.cursor(0..n);
            for _ in 0..n {
                black_box(cursor.take_rec_into(&mut buf));
                if buf.len() >= MSG_BATCH {
                    buf.clear();
                }
            }
            buf.clear();
        });
        cells.put(name, ns_per(sweep, n_edges));
    }
    let csr = Arc::new(DiskCsr::open(&v2)?);
    cells.put(
        "gpsa-graph.v2_bytes_per_edge",
        csr.file_bytes() as f64 / n_edges.max(1) as f64,
    );

    // Sparse seeks: a seeded 0.2 % of the vertices, strictly ascending, as
    // the frontier bitmap would yield them.
    let n = csr.n_vertices();
    let mut rng = SplitMix64::new(seed, 0x5EE4);
    let mut sample: Vec<u32> = (0..(n / 500).max(16))
        .map(|_| rng.below(n) as u32)
        .collect();
    sample.sort_unstable();
    sample.dedup();
    let seek = median_time(50, || {
        let mut cursor = csr.seek_cursor();
        for &v in &sample {
            black_box(cursor.record(v).targets.len());
        }
    });
    cells.put("gpsa-graph.seek_ns_per_record", ns_per(seek, sample.len()));

    // The live path: append (fsync), apply, and a sweep of the merged view.
    let mut overlay = DeltaOverlay::new();
    let (mut append, mut apply) = (Vec::new(), Vec::new());
    if workload == "live_cc" {
        let _ = std::fs::remove_file(gpsa_graph::delta_path(&v2));
        let (mut log, _) = DeltaLog::open(&v2)?;
        for i in 0..batches {
            let batch = DeltaBatch::Add(inputs::live_batch(scale, seed, i as u64));
            if i < 30 {
                let t = Instant::now();
                log.append(&batch)?;
                append.push(us(t.elapsed()));
            }
            let t = Instant::now();
            overlay.apply(&csr, &batch);
            apply.push(us(t.elapsed()));
        }
    }
    cells.put("gpsa-graph.delta_append_us", stats::median(&append));
    cells.put("gpsa-graph.overlay_apply_us", stats::median(&apply));
    let snapshot = GraphSnapshot::new(csr.clone(), Arc::new(overlay));
    let n = snapshot.n_vertices() as u32;
    let sweep = median_time(5, || {
        let mut cursor = snapshot.cursor(0..n);
        for _ in 0..n {
            buf.clear();
            black_box(cursor.take_rec_into(&mut buf));
        }
    });
    cells.put(
        "gpsa-graph.snapshot_decode_ns_per_edge",
        ns_per(sweep, snapshot.n_edges()),
    );
    Ok(())
}

// -------------------------------------------------- gpsa-core, baselines

/// Emit every record of `csr` into slabs the way the single-computer dense
/// dispatcher does — decode straight into the slab's destination column,
/// close the run, swap slabs through the pool when full — and hand each
/// full slab to `sink`.
fn emit_all<M: Copy>(
    csr: &DiskCsr,
    pool: &MsgSlabPool<M>,
    msg: M,
    mut sink: impl FnMut(MsgSlab<M>),
) {
    let n = csr.n_vertices() as u32;
    let mut cursor = csr.cursor(0..n);
    let mut slab = pool.acquire();
    for _ in 0..n {
        cursor.take_rec_into(slab.dst_buf_mut());
        slab.close_run(msg);
        if slab.len() >= MSG_BATCH {
            sink(std::mem::replace(&mut slab, pool.acquire()));
        }
    }
    sink(slab);
}

/// Time `program.fold_batch` over every message of one dense superstep
/// into a fresh value file; returns ns per message.
fn fold_cell<P: VertexProgram>(
    program: P,
    msg: P::MsgVal,
    csr: &DiskCsr,
    meta: &GraphMeta,
    path: &Path,
) -> Res<f64> {
    let pool = MsgSlabPool::new(MSG_BATCH);
    let mut slabs = Vec::new();
    emit_all(csr, &pool, msg, |s| slabs.push(s));
    let messages: usize = slabs.iter().map(MsgSlab::len).sum();
    let mut times = Vec::new();
    for _ in 0..5 {
        let values = ValueFile::create(path, csr.n_vertices(), |v| program.init(v, meta))?;
        let mut dirty = Vec::new();
        let started = Instant::now();
        let mut ctx = FoldCtx::new(&values, meta, 1, &mut dirty);
        for slab in &slabs {
            program.fold_batch(slab, &mut ctx);
        }
        times.push(started.elapsed().as_secs_f64());
    }
    Ok(stats::median(&times) * 1e9 / messages.max(1) as f64)
}

fn core_cells(
    cells: &mut Cells,
    workload: &str,
    edges: &EdgeList,
    seed: u64,
    work: &Path,
) -> Res<()> {
    let csr = DiskCsr::open(work.join("v2.gcsr"))?;
    let n = csr.n_vertices();
    let meta = GraphMeta {
        n_vertices: n as u64,
        n_edges: csr.n_edges() as u64,
    };

    // Emission alone: no transport (slabs go straight back to the pool),
    // no fold.
    let pool: MsgSlabPool<f32> = MsgSlabPool::new(MSG_BATCH);
    let emit = median_time(9, || emit_all(&csr, &pool, 1.0f32, |s| pool.release(s)));
    cells.put("gpsa-core.emit_ns_per_edge", ns_per(emit, csr.n_edges()));

    let vf_path = work.join("cell.gval");
    cells.put(
        "gpsa-core.fold_sum_ns_per_msg",
        fold_cell(PageRank::default(), 1e-6f32, &csr, &meta, &vf_path)?,
    );
    cells.put(
        "gpsa-core.fold_min_ns_per_msg",
        fold_cell(ConnectedComponents, 7u32, &csr, &meta, &vf_path)?,
    );

    // Per-run and per-superstep fixed costs at this workload's n.
    let create = median_time(9, || {
        black_box(ValueFile::create(&vf_path, n, |v| (v, false)).expect("ValueFile::create"));
    });
    cells.put("gpsa-core.value_create_us", us(create));
    let values = ValueFile::create(&vf_path, n, |v| (v, false))?;
    let mut step = 0u64;
    let commit = median_time(200, || {
        step += 1;
        values
            .commit(step, (step & 1) as u32, false)
            .expect("ValueFile::commit");
    });
    cells.put("gpsa-core.commit_us", us(commit));

    let frontier = Frontier::new(0..n as u32);
    let set = (n / 500).max(16);
    for i in 0..set {
        frontier.mark(0, (i * (n / set)) as u32);
    }
    let iter = median_time(200, || {
        black_box(frontier.iter_set(0, 0..n as u32).count());
    });
    cells.put("gpsa-core.frontier_iter_ns_per_set_bit", ns_per(iter, set));

    // The sequential-BSP loop an inline path would approach, and the tuned
    // single thread, both on this workload's own program.
    let in_ram = surface::in_ram(edges);
    let started = Instant::now();
    let relaxations = match workload {
        "bfs_grid" => {
            let root = inputs::grid_roots(&Scale::FULL, seed)[0];
            black_box(SyncEngine::new(surface::quiescence()).run(edges, Bfs { root }));
            cells.put("gpsa-core.sync_oracle_ms", us(started.elapsed()) / 1e3);
            surface::seq_bfs(&in_ram, root).1
        }
        "live_cc" => {
            black_box(SyncEngine::new(surface::quiescence()).run(edges, ConnectedComponents));
            cells.put("gpsa-core.sync_oracle_ms", us(started.elapsed()) / 1e3);
            surface::seq_cc(&in_ram).1
        }
        _ => {
            black_box(surface::oracle_pagerank(edges));
            cells.put("gpsa-core.sync_oracle_ms", us(started.elapsed()) / 1e3);
            surface::seq_pagerank(&in_ram, surface::PR_DAMPING).1
        }
    };
    // The workload's own pass reports `seq_ms` from its interleaved reps;
    // the exact relaxation count of this graph and program comes from here.
    cells.put("gpsa-baselines.seq_relaxations", relaxations as f64);
    Ok(())
}

// ----------------------------------------------------------------- actor

/// Counts messages down and reports when done.
struct Counter {
    remaining: u64,
    done: mpsc::Sender<()>,
}

impl Actor for Counter {
    type Msg = u64;
    fn handle(&mut self, msg: u64, _ctx: &mut Ctx<'_, Self>) {
        self.remaining = self.remaining.saturating_sub(msg);
        if self.remaining == 0 {
            let _ = self.done.send(());
        }
    }
}

/// Bounces a countdown to its peer: one hop per message.
struct Bouncer {
    peer: Option<Addr<Bouncer>>,
    done: mpsc::Sender<()>,
}

enum Bounce {
    Peer(Addr<Bouncer>),
    Ball(u64),
}

impl Actor for Bouncer {
    type Msg = Bounce;
    fn handle(&mut self, msg: Bounce, _ctx: &mut Ctx<'_, Self>) {
        match msg {
            Bounce::Peer(peer) => self.peer = Some(peer),
            Bounce::Ball(0) => {
                let _ = self.done.send(());
            }
            Bounce::Ball(n) => {
                if let Some(peer) = &self.peer {
                    let _ = peer.send(Bounce::Ball(n - 1));
                }
            }
        }
    }
}

fn actor_cells(cells: &mut Cells) {
    let workers = surface::WORKERS;
    let sys = System::builder().workers(workers).build();

    // One sender, one actor.
    let n = 1_000_000u64;
    let (tx, rx) = mpsc::channel();
    let addr = sys.spawn(Counter {
        remaining: n,
        done: tx,
    });
    let started = Instant::now();
    for _ in 0..n {
        let _ = addr.send(1);
    }
    rx.recv().expect("counter finished");
    cells.put(
        "actor.send_ns_per_msg",
        ns_per(started.elapsed(), n as usize),
    );

    // Two actors, one ball: every hop wakes a parked actor.
    let round_trips = 20_000u64;
    let (tx, rx) = mpsc::channel();
    let a = sys.spawn(Bouncer {
        peer: None,
        done: tx.clone(),
    });
    let b = sys.spawn(Bouncer {
        peer: Some(a.clone()),
        done: tx,
    });
    let _ = a.send(Bounce::Peer(b));
    let started = Instant::now();
    let _ = a.send(Bounce::Ball(2 * round_trips));
    rx.recv().expect("ball came to rest");
    cells.put(
        "actor.pingpong_us",
        us(started.elapsed()) / round_trips as f64,
    );

    // One sender, 64 actors on two workers: the steal path.
    let (actors, per_actor) = (64u64, 4_000u64);
    let (tx, rx) = mpsc::channel();
    let addrs: Vec<_> = (0..actors)
        .map(|_| {
            sys.spawn(Counter {
                remaining: per_actor,
                done: tx.clone(),
            })
        })
        .collect();
    let started = Instant::now();
    for _ in 0..per_actor {
        for a in &addrs {
            let _ = a.send(1);
        }
    }
    for _ in 0..actors {
        rx.recv().expect("fan-out finished");
    }
    cells.put(
        "actor.fanout_ns_per_msg",
        ns_per(started.elapsed(), (actors * per_actor) as usize),
    );

    let m = sys.metrics();
    let load = |c: &std::sync::atomic::AtomicU64| c.load(std::sync::atomic::Ordering::Relaxed);
    cells.put("actor.steals", load(&m.steals) as f64);
    cells.put("actor.parks", load(&m.parks) as f64);
    cells.put(
        "actor.msgs_per_activation",
        load(&m.messages_handled) as f64 / load(&m.activations).max(1) as f64,
    );
    sys.shutdown();

    // What every engine run pays before its first superstep and after its
    // last: a two-worker system, five actors, shutdown.
    let spawn = median_time(50, || {
        let sys = System::builder().workers(workers).build();
        let (tx, _rx) = mpsc::channel();
        for _ in 0..5 {
            sys.spawn(Counter {
                remaining: 1,
                done: tx.clone(),
            });
        }
        sys.shutdown();
    });
    cells.put("actor.spawn_shutdown_us", us(spawn));
}

// ------------------------------------------------------------ gpsa-serve

fn serve_cells(cells: &mut Cells, n_values: usize, work: &Path) -> Res<()> {
    // A reply as large as the workload's graph through the wire codec.
    let response = JobResponse {
        job_id: 1,
        cache_hit: false,
        outcome: Arc::new(JobOutcome {
            value_type: ValueType::U32,
            values_u32: Arc::new(
                (0..n_values as u32)
                    .map(|v| v.wrapping_mul(2_654_435_761))
                    .collect(),
            ),
            supersteps: 5,
            messages: 1,
            edges_streamed: 1,
            edges_skipped: 0,
            mean_frontier_density: 1.0,
            retry_attempts: 0,
            phases: Vec::new(),
        }),
        queue_wait: Duration::from_micros(10),
        run_time: Duration::from_micros(10),
        stats: ServerStats::default(),
    };
    let mut text = String::new();
    let encode = median_time(9, || text = response.to_json().encode());
    cells.put(
        "gpsa-serve.json_encode_ns_per_value",
        ns_per(encode, n_values),
    );
    let decode = median_time(9, || {
        let parsed = WireJson::parse(&text).expect("own encoding parses");
        black_box(JobResponse::from_json(&parsed).expect("own encoding decodes"));
    });
    cells.put(
        "gpsa-serve.json_decode_ns_per_value",
        ns_per(decode, n_values),
    );

    // One fsync'd journal record: three of these bracket every job.
    let (mut journal, _) = JobJournal::open(&work.join("cell.journal"))?;
    let mut job_id = 0;
    let append = median_time(30, || {
        job_id += 1;
        journal
            .append(&JournalRecord::Submitted {
                job_id,
                key: None,
                graph_id: "big".into(),
                algorithm: AlgorithmSpec::Bfs { root: 1 },
                priority: Priority::parse("normal"),
                tenant: "default".into(),
                at_ms: 0,
            })
            .expect("journal append");
    });
    cells.put("gpsa-serve.journal_append_us", us(append));
    Ok(())
}
