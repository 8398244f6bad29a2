//! The PSW execution loop.

use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use gpsa_graph::EdgeList;

use super::program::{PswMeta, PswProgram};
use super::shard::{Record, ShardedGraph};

/// Stop condition for a PSW run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PswTermination {
    /// Run exactly this many iterations.
    Iterations(u64),
    /// Run until no vertex is scheduled, bounded by `max`.
    Quiescence {
        /// Upper bound on iterations.
        max: u64,
    },
}

/// PSW engine configuration.
#[derive(Debug, Clone)]
pub struct PswConfig {
    /// Number of shards / vertex intervals.
    pub n_shards: usize,
    /// Update threads per interval (1 = deterministic sequential order).
    pub threads: usize,
    /// Stop condition.
    pub termination: PswTermination,
    /// Directory for shard files.
    pub work_dir: PathBuf,
}

impl PswConfig {
    /// Defaults: 4 shards, 1 thread, quiescence-bounded.
    pub fn new<P: Into<PathBuf>>(work_dir: P) -> Self {
        PswConfig {
            n_shards: 4,
            threads: 1,
            termination: PswTermination::Quiescence { max: 10_000 },
            work_dir: work_dir.into(),
        }
    }
}

/// Results of a PSW run.
#[derive(Debug, Clone)]
pub struct PswReport {
    /// Final vertex values (raw 32-bit payloads).
    pub values: Vec<u32>,
    /// Iterations executed.
    pub iterations: u64,
    /// Wall time per iteration.
    pub step_times: Vec<Duration>,
    /// Vertex update-function invocations.
    pub updates: u64,
    /// Time spent sharding the input.
    pub build_time: Duration,
}

/// The GraphChi-like engine.
#[derive(Debug, Clone)]
pub struct PswEngine {
    config: PswConfig,
}

/// In-memory image of one loaded shard/window: structure-of-arrays so edge
/// values can be mutated through `&self` during parallel updates.
struct Loaded {
    srcs: Vec<u32>,
    dsts: Vec<u32>,
    vals: Vec<AtomicU32>,
    /// Contiguous source runs `(src, start, end)` — windows are sorted by
    /// source, so each vertex's out-edges form one run.
    runs: Vec<(u32, u32, u32)>,
}

impl Loaded {
    fn from_records(records: Vec<Record>) -> Loaded {
        let mut srcs = Vec::with_capacity(records.len());
        let mut dsts = Vec::with_capacity(records.len());
        let mut vals = Vec::with_capacity(records.len());
        for r in &records {
            srcs.push(r.src);
            dsts.push(r.dst);
            vals.push(AtomicU32::new(r.val));
        }
        let mut runs = Vec::new();
        let mut i = 0;
        while i < srcs.len() {
            let s = srcs[i];
            let start = i;
            while i < srcs.len() && srcs[i] == s {
                i += 1;
            }
            runs.push((s, start as u32, i as u32));
        }
        Loaded {
            srcs,
            dsts,
            vals,
            runs,
        }
    }

    fn to_records(&self, range: std::ops::Range<usize>) -> Vec<Record> {
        range
            .map(|i| Record {
                src: self.srcs[i],
                dst: self.dsts[i],
                val: self.vals[i].load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Edge-index run of `src`'s out-edges in this window, if any.
    fn run_of(&self, src: u32) -> Option<std::ops::Range<usize>> {
        self.runs
            .binary_search_by_key(&src, |&(s, _, _)| s)
            .ok()
            .map(|k| {
                let (_, a, b) = self.runs[k];
                a as usize..b as usize
            })
    }
}

impl PswEngine {
    /// Create an engine.
    pub fn new(config: PswConfig) -> Self {
        PswEngine { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &PswConfig {
        &self.config
    }

    /// Shard `el` and run `program` to termination.
    pub fn run<P: PswProgram>(&self, el: &EdgeList, program: P) -> io::Result<PswReport> {
        let t_build = Instant::now();
        let graph = ShardedGraph::build(
            el,
            self.config.n_shards,
            program.init_edge(&PswMeta {
                n_vertices: el.n_vertices as u64,
                n_edges: el.len() as u64,
            }),
            &self.config.work_dir,
        )?;
        let meta = graph.meta;
        let n = el.n_vertices;
        let p_shards = graph.n_shards();

        // Vertex values and out-degrees (GraphChi keeps a vertex data file;
        // at reproduction scale an in-memory array is equivalent).
        let values: Vec<AtomicU32> = (0..n as u32)
            .map(|v| AtomicU32::new(program.init(v, &meta)))
            .collect();
        let mut out_deg = vec![0u32; n];
        for e in &el.edges {
            out_deg[e.src as usize] += 1;
        }

        // Initial signal pass: every vertex writes its first out-signal so
        // iteration 0 sees real in-edge values (GraphChi initializes edge
        // data the same way).
        for q in 0..p_shards {
            let mut recs = graph.read_shard(q)?;
            for r in &mut recs {
                let init = program.init(r.src, &meta);
                if let Some(sig) =
                    program.out_signal_edge(r.src, r.dst, init, out_deg[r.src as usize], &meta)
                {
                    r.val = sig;
                }
            }
            // Whole-shard writeback = union of all its windows.
            for i in 0..p_shards {
                let range = graph.window_range(q, i);
                graph.write_window(q, i, &recs[range.start as usize..range.end as usize])?;
            }
        }
        let build_time = t_build.elapsed();

        let active: Vec<AtomicBool> = (0..n as u32)
            .map(|v| AtomicBool::new(program.initially_active(v, &meta)))
            .collect();
        let updates = AtomicU64::new(0);
        let mut step_times = Vec::new();
        let mut iterations = 0u64;

        loop {
            let t_step = Instant::now();
            // Snapshot + clear the schedule; updates during this iteration
            // schedule for the next one.
            let current: Vec<bool> = active
                .iter()
                .map(|a| a.swap(false, Ordering::Relaxed))
                .collect();
            // Fixed-iteration mode runs its exact count (timing
            // methodology); quiescence mode stops once nothing is
            // scheduled.
            let any_work = program.always_active() || current.iter().any(|&b| b);
            if !any_work
                && iterations > 0
                && matches!(self.config.termination, PswTermination::Quiescence { .. })
            {
                break;
            }

            let first_iteration = iterations == 0;
            for p in 0..p_shards {
                self.process_interval(
                    &graph,
                    p,
                    &program,
                    &meta,
                    &values,
                    &out_deg,
                    &current,
                    &active,
                    &updates,
                    first_iteration,
                )?;
            }

            step_times.push(t_step.elapsed());
            iterations += 1;
            let more = match self.config.termination {
                PswTermination::Iterations(k) => iterations < k,
                PswTermination::Quiescence { max } => {
                    iterations < max
                        && (program.always_active()
                            || active.iter().any(|a| a.load(Ordering::Relaxed)))
                }
            };
            if !more {
                break;
            }
        }

        Ok(PswReport {
            values: values.iter().map(|v| v.load(Ordering::Relaxed)).collect(),
            iterations,
            step_times,
            updates: updates.load(Ordering::Relaxed),
            build_time,
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn process_interval<P: PswProgram>(
        &self,
        graph: &ShardedGraph,
        p: usize,
        program: &P,
        meta: &PswMeta,
        values: &[AtomicU32],
        out_deg: &[u32],
        current: &[bool],
        next_active: &[AtomicBool],
        updates: &AtomicU64,
        first_iteration: bool,
    ) -> io::Result<()> {
        let interval = graph.intervals[p].clone();
        if interval.is_empty() {
            return Ok(());
        }
        let p_shards = graph.n_shards();

        // Memory shard: the interval's in-edges (plus, inside it, the
        // interval's own window).
        let shard = Loaded::from_records(graph.read_shard(p)?);
        // Sliding windows of every other shard: the interval's out-edges.
        let mut windows: Vec<Option<Loaded>> = Vec::with_capacity(p_shards);
        for q in 0..p_shards {
            if q == p {
                windows.push(None); // aliases the memory shard
            } else {
                windows.push(Some(Loaded::from_records(graph.read_window(q, p)?)));
            }
        }

        // Index the in-edges by destination (counting sort over the
        // interval).
        let base = interval.start;
        let width = (interval.end - interval.start) as usize;
        let mut in_count = vec![0u32; width + 1];
        for &d in &shard.dsts {
            in_count[(d - base) as usize + 1] += 1;
        }
        for i in 1..in_count.len() {
            in_count[i] += in_count[i - 1];
        }
        let in_offsets = in_count.clone();
        let mut cursor = in_count;
        let mut in_edges = vec![0u32; shard.dsts.len()];
        for (rec, &d) in shard.dsts.iter().enumerate() {
            let li = (d - base) as usize;
            in_edges[cursor[li] as usize] = rec as u32;
            cursor[li] += 1;
        }

        // The update sweep (parallel chunks; 1 thread = GraphChi's
        // deterministic sub-interval order).
        let self_window = graph.window_range(p, p);
        let update_vertex = |v: u32| {
            let li = (v - base) as usize;
            if !program.always_active() && !current[v as usize] {
                return;
            }
            let old = values[v as usize].load(Ordering::Relaxed);
            let in_vals: Vec<u32> = in_edges[in_offsets[li] as usize..in_offsets[li + 1] as usize]
                .iter()
                .map(|&rec| shard.vals[rec as usize].load(Ordering::Relaxed))
                .collect();
            let new = program.update(v, old, &in_vals, meta);
            updates.fetch_add(1, Ordering::Relaxed);
            let changed = program.changed(old, new);
            if changed {
                values[v as usize].store(new, Ordering::Relaxed);
            }
            // Broadcast the out-signal; schedule out-neighbors on change,
            // and unconditionally on the very first iteration so seeds
            // planted by the initial signal pass get consumed.
            let schedule = changed || first_iteration;
            let signal_value = if changed { new } else { old };
            let per_edge = program.per_edge_signals();
            let signal = if per_edge {
                None // computed per edge below
            } else {
                program.out_signal(v, signal_value, out_deg[v as usize], meta)
            };
            if !per_edge && signal.is_none() && !schedule {
                return;
            }
            for (q, w) in windows.iter().enumerate() {
                let loaded: &Loaded = match w {
                    Some(l) => l,
                    None => &shard,
                };
                let run = match w {
                    Some(l) => l.run_of(v),
                    None => {
                        // Inside the memory shard, restrict to its own
                        // window region (src-sorted run of v within it).
                        shard.run_of(v).map(|r| {
                            let a = r.start.max(self_window.start as usize);
                            let b = r.end.min(self_window.end as usize);
                            a..b.max(a)
                        })
                    }
                };
                let _ = q;
                if let Some(run) = run {
                    for rec in run {
                        let sig = if per_edge {
                            program.out_signal_edge(
                                v,
                                loaded.dsts[rec],
                                signal_value,
                                out_deg[v as usize],
                                meta,
                            )
                        } else {
                            signal
                        };
                        if let Some(sig) = sig {
                            loaded.vals[rec].store(sig, Ordering::Relaxed);
                        }
                        if schedule {
                            next_active[loaded.dsts[rec] as usize].store(true, Ordering::Relaxed);
                        }
                    }
                }
            }
        };

        let threads = self.config.threads.max(1);
        if threads == 1 || width < 2 * threads {
            for v in interval.clone() {
                update_vertex(v);
            }
        } else {
            let chunk = width.div_ceil(threads);
            std::thread::scope(|s| {
                for t in 0..threads {
                    let lo = interval.start + (t * chunk) as u32;
                    let hi = (lo + chunk as u32).min(interval.end);
                    let f = &update_vertex;
                    s.spawn(move || {
                        for v in lo..hi {
                            f(v);
                        }
                    });
                }
            });
        }

        // Write the windows (and the memory shard's own window) back.
        for (q, w) in windows.iter().enumerate() {
            match w {
                Some(l) => graph.write_window(q, p, &l.to_records(0..l.srcs.len()))?,
                None => graph.write_window(
                    p,
                    p,
                    &shard.to_records(self_window.start as usize..self_window.end as usize),
                )?,
            }
        }
        Ok(())
    }
}
