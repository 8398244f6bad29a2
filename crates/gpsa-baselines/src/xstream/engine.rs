//! The scatter–gather execution loop.

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use gpsa_graph::{EdgeList, VertexId};

use super::buffer::UpdateBuffer;
use super::program::{XsMeta, XsProgram};

/// Lock a shuffle slot, re-entering it if a panicking holder poisoned it:
/// every push and drain leaves the buffer whole.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Stop condition for an X-Stream run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum XsTermination {
    /// Run exactly this many iterations.
    Iterations(u64),
    /// Run until a gather phase changes no vertex, bounded by `max`.
    Quiescence {
        /// Upper bound on iterations.
        max: u64,
    },
}

/// X-Stream engine configuration.
#[derive(Debug, Clone)]
pub struct XsConfig {
    /// Number of streaming partitions.
    pub n_partitions: usize,
    /// Worker threads (clamped to the partition count per phase).
    pub threads: usize,
    /// Keep edge streams in memory instead of files.
    pub in_memory: bool,
    /// In-memory updates per shuffle buffer before spilling to disk
    /// (ignored when `in_memory`).
    pub update_budget: usize,
    /// Stop condition.
    pub termination: XsTermination,
    /// Directory for edge-stream and spill files.
    pub work_dir: PathBuf,
}

impl XsConfig {
    /// Defaults: 4 partitions, 1 thread, out-of-core, quiescence-bounded.
    pub fn new<P: Into<PathBuf>>(work_dir: P) -> Self {
        XsConfig {
            n_partitions: 4,
            threads: 1,
            in_memory: false,
            update_budget: 1 << 20,
            termination: XsTermination::Quiescence { max: 10_000 },
            work_dir: work_dir.into(),
        }
    }
}

/// Results of an X-Stream run.
#[derive(Debug, Clone)]
pub struct XsReport {
    /// Final vertex states (raw 32-bit payloads).
    pub values: Vec<u32>,
    /// Iterations executed.
    pub iterations: u64,
    /// Wall time per iteration.
    pub step_times: Vec<Duration>,
    /// Total edges streamed across all scatter phases — X-Stream pays this
    /// every iteration regardless of how few vertices are still active.
    pub edges_streamed: u64,
    /// Updates emitted by scatter.
    pub updates_emitted: u64,
}

/// The X-Stream-like engine.
#[derive(Debug, Clone)]
pub struct XsEngine {
    config: XsConfig,
}

enum EdgeStore {
    Memory(Vec<Vec<(u32, u32)>>),
    Disk { files: Vec<File>, counts: Vec<u64> },
}

impl EdgeStore {
    /// Stream every edge of partition `k` through `f`.
    fn stream<F: FnMut(u32, u32)>(&mut self, k: usize, mut f: F) -> io::Result<u64> {
        match self {
            EdgeStore::Memory(parts) => {
                for &(s, d) in &parts[k] {
                    f(s, d);
                }
                Ok(parts[k].len() as u64)
            }
            EdgeStore::Disk { files, counts } => {
                files[k].seek(SeekFrom::Start(0))?;
                let mut r = BufReader::new(&files[k]);
                let mut buf = [0u8; 8];
                for _ in 0..counts[k] {
                    r.read_exact(&mut buf)?;
                    f(
                        u32::from_le_bytes(buf[0..4].try_into().unwrap()),
                        u32::from_le_bytes(buf[4..8].try_into().unwrap()),
                    );
                }
                Ok(counts[k])
            }
        }
    }
}

impl XsEngine {
    /// Create an engine.
    pub fn new(config: XsConfig) -> Self {
        XsEngine { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &XsConfig {
        &self.config
    }

    fn partition_of(&self, v: VertexId, per: usize) -> usize {
        (v as usize / per).min(self.config.n_partitions - 1)
    }

    /// Run `program` over `el` to termination.
    pub fn run<P: XsProgram>(&self, el: &EdgeList, program: P) -> io::Result<XsReport> {
        let k_parts = self.config.n_partitions.max(1);
        let n = el.n_vertices;
        let per = n.div_ceil(k_parts).max(1);
        let meta = XsMeta {
            n_vertices: n as u64,
            n_edges: el.len() as u64,
        };
        std::fs::create_dir_all(&self.config.work_dir)?;

        // Partition the edge streams by source (unordered within a
        // partition — X-Stream never sorts).
        let mut edge_store = if self.config.in_memory {
            let mut parts: Vec<Vec<(u32, u32)>> = vec![Vec::new(); k_parts];
            for e in &el.edges {
                parts[self.partition_of(e.src, per)].push((e.src, e.dst));
            }
            EdgeStore::Memory(parts)
        } else {
            let mut writers: Vec<BufWriter<File>> = (0..k_parts)
                .map(|k| {
                    let path = self.config.work_dir.join(format!("edges-{k}.bin"));
                    Ok(BufWriter::new(
                        std::fs::OpenOptions::new()
                            .create(true)
                            .truncate(true)
                            .read(true)
                            .write(true)
                            .open(path)?,
                    ))
                })
                .collect::<io::Result<_>>()?;
            let mut counts = vec![0u64; k_parts];
            for e in &el.edges {
                let k = self.partition_of(e.src, per);
                writers[k].write_all(&e.src.to_le_bytes())?;
                writers[k].write_all(&e.dst.to_le_bytes())?;
                counts[k] += 1;
            }
            let files = writers
                .into_iter()
                .map(|w| w.into_inner().map_err(|e| e.into_error()))
                .collect::<io::Result<Vec<_>>>()?;
            EdgeStore::Disk { files, counts }
        };

        // Vertex state: previous and next iteration copies, plus
        // out-degrees (X-Stream computes degrees in a setup pass).
        let mut prev: Vec<u32> = (0..n as u32).map(|v| program.init(v, &meta)).collect();
        let mut next: Vec<u32> = prev.clone();
        let mut out_deg = vec![0u32; n];
        for e in &el.edges {
            out_deg[e.src as usize] += 1;
        }

        // K×K shuffle buffers; slot (k, j) carries scatter output of
        // partition k destined for partition j. Uncontended mutexes: each
        // slot has exactly one writer (k) in scatter and one reader (j) in
        // gather.
        let outbox: Vec<Mutex<UpdateBuffer>> = (0..k_parts * k_parts)
            .map(|slot| {
                Mutex::new(if self.config.in_memory {
                    UpdateBuffer::in_memory()
                } else {
                    UpdateBuffer::spilling(
                        self.config.work_dir.join(format!("updates-{slot}.bin")),
                        self.config.update_budget,
                    )
                })
            })
            .collect();

        let edges_streamed = AtomicU64::new(0);
        let updates_emitted = AtomicU64::new(0);
        let mut step_times = Vec::new();
        let mut iterations = 0u64;

        loop {
            let t_step = Instant::now();

            // --- scatter phase: stream ALL edges of every partition ---
            // (Partition parallelism: X-Stream keeps one thread per
            // streaming partition busy for the whole phase.)
            let threads = self.config.threads.clamp(1, k_parts);
            if threads == 1 {
                for k in 0..k_parts {
                    let streamed = edge_store.stream(k, |s, d| {
                        if let Some(u) =
                            program.scatter(s, prev[s as usize], out_deg[s as usize], d, &meta)
                        {
                            let j = self.partition_of(d, per);
                            lock(&outbox[k * k_parts + j])
                                .push(d, u)
                                .expect("update push");
                            updates_emitted.fetch_add(1, Ordering::Relaxed);
                        }
                    })?;
                    edges_streamed.fetch_add(streamed, Ordering::Relaxed);
                }
            } else {
                // Parallel scatter needs per-thread edge readers; memory
                // mode shares the slices, disk mode reopens the files.
                let prev_ref = &prev;
                let out_deg_ref = &out_deg;
                let outbox_ref = &outbox;
                let program_ref = &program;
                let updates_ref = &updates_emitted;
                let streamed_ref = &edges_streamed;
                match &edge_store {
                    EdgeStore::Memory(parts) => {
                        std::thread::scope(|s| {
                            for (k, part) in parts.iter().enumerate() {
                                s.spawn(move || {
                                    for &(src, dst) in part {
                                        if let Some(u) = program_ref.scatter(
                                            src,
                                            prev_ref[src as usize],
                                            out_deg_ref[src as usize],
                                            dst,
                                            &meta,
                                        ) {
                                            let j = self.partition_of(dst, per);
                                            lock(&outbox_ref[k * k_parts + j])
                                                .push(dst, u)
                                                .expect("update push");
                                            updates_ref.fetch_add(1, Ordering::Relaxed);
                                        }
                                    }
                                    streamed_ref.fetch_add(part.len() as u64, Ordering::Relaxed);
                                });
                            }
                        });
                    }
                    EdgeStore::Disk { counts, .. } => {
                        std::thread::scope(|s| {
                            for k in 0..k_parts {
                                let count = counts[k];
                                let path = self.config.work_dir.join(format!("edges-{k}.bin"));
                                s.spawn(move || {
                                    let file = File::open(path).expect("edge stream");
                                    let mut r = BufReader::new(file);
                                    let mut buf = [0u8; 8];
                                    for _ in 0..count {
                                        r.read_exact(&mut buf).expect("edge read");
                                        let src = u32::from_le_bytes(buf[0..4].try_into().unwrap());
                                        let dst = u32::from_le_bytes(buf[4..8].try_into().unwrap());
                                        if let Some(u) = program_ref.scatter(
                                            src,
                                            prev_ref[src as usize],
                                            out_deg_ref[src as usize],
                                            dst,
                                            &meta,
                                        ) {
                                            let j = self.partition_of(dst, per);
                                            lock(&outbox_ref[k * k_parts + j])
                                                .push(dst, u)
                                                .expect("update push");
                                            updates_ref.fetch_add(1, Ordering::Relaxed);
                                        }
                                    }
                                    streamed_ref.fetch_add(count, Ordering::Relaxed);
                                });
                            }
                        });
                    }
                }
            }

            // --- gather phase: per destination partition ---
            for (v, slot) in next.iter_mut().enumerate() {
                *slot = program.reset(v as u32, prev[v], &meta);
            }
            let changed = AtomicU64::new(0);
            {
                // Hand each gather thread its contiguous state slice.
                let mut rest: &mut [u32] = &mut next;
                let mut slices: Vec<(usize, &mut [u32])> = Vec::with_capacity(k_parts);
                let mut offset = 0usize;
                for j in 0..k_parts {
                    let hi = ((j + 1) * per).min(n);
                    let take = hi.saturating_sub(offset);
                    let (head, tail) = rest.split_at_mut(take);
                    slices.push((offset, head));
                    rest = tail;
                    offset = hi;
                }
                let outbox_ref = &outbox;
                let program_ref = &program;
                let prev_ref = &prev;
                let changed_ref = &changed;
                std::thread::scope(|s| {
                    for (j, (base, slice)) in slices.into_iter().enumerate() {
                        s.spawn(move || {
                            for k in 0..k_parts {
                                let mut buf = lock(&outbox_ref[k * k_parts + j]);
                                buf.drain(|dst, upd| {
                                    let i = dst as usize - base;
                                    slice[i] = program_ref.gather(dst, slice[i], upd, &meta);
                                })
                                .expect("update drain");
                            }
                            let mut local_changed = 0u64;
                            for (i, v) in slice.iter().enumerate() {
                                if program_ref.changed(prev_ref[base + i], *v) {
                                    local_changed += 1;
                                }
                            }
                            changed_ref.fetch_add(local_changed, Ordering::Relaxed);
                        });
                    }
                });
            }
            std::mem::swap(&mut prev, &mut next);

            step_times.push(t_step.elapsed());
            iterations += 1;
            let more = match self.config.termination {
                XsTermination::Iterations(k) => iterations < k,
                XsTermination::Quiescence { max } => {
                    iterations < max && changed.load(Ordering::Relaxed) > 0
                }
            };
            if !more {
                break;
            }
        }

        Ok(XsReport {
            values: prev,
            iterations,
            step_times,
            edges_streamed: edges_streamed.load(Ordering::Relaxed),
            updates_emitted: updates_emitted.load(Ordering::Relaxed),
        })
    }
}
