//! Ablations of GPSA's individual design choices (DESIGN.md §4):
//!
//! * flag-based inactive-vertex skipping vs dense dispatch (late BFS
//!   supersteps are where the paper's BFS wins come from);
//! * edge-balanced vs strided ("mod") dispatch intervals (paper §V-A);
//! * CSR with inlined degrees vs separate degree lookups (paper Fig. 4);
//! * mmap streaming vs explicit buffered reads (paper §IV-C).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::io::Read;

use gpsa::programs::Bfs;
use gpsa::{Engine, EngineConfig, GraphMeta, IntervalStrategy, Termination, VertexProgram};
use gpsa_graph::datasets::Dataset;
use gpsa_graph::{generate, preprocess, DiskCsr, VertexId};

fn workdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("gpsa-abl-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// BFS with the flag optimization disabled: every vertex is streamed and
/// re-sent every superstep (what GPSA would cost without §IV-F's flag
/// protocol).
struct DenseBfs {
    root: VertexId,
}

impl VertexProgram for DenseBfs {
    type Value = u32;
    type MsgVal = u32;
    fn init(&self, v: VertexId, meta: &GraphMeta) -> (u32, bool) {
        Bfs { root: self.root }.init(v, meta)
    }
    fn gen_msg(&self, src: VertexId, value: u32, d: u32, meta: &GraphMeta) -> Option<u32> {
        Bfs { root: self.root }.gen_msg(src, value, d, meta)
    }
    fn compute(
        &self,
        v: VertexId,
        acc: Option<u32>,
        basis: u32,
        msg: u32,
        meta: &GraphMeta,
    ) -> u32 {
        Bfs { root: self.root }.compute(v, acc, basis, msg, meta)
    }
    fn changed(&self, basis: u32, new: u32) -> bool {
        new < basis
    }
    fn freshest(&self, a: u32, b: u32) -> u32 {
        a.min(b)
    }
    fn always_dispatch(&self) -> bool {
        true // the ablation: no inactive-vertex skipping
    }
}

fn bench_flag_skipping(c: &mut Criterion) {
    let el = gpsa_bench::dataset_edges(Dataset::Google, 1024);
    let root = gpsa_bench::bfs_root(&el);
    let mut g = c.benchmark_group("flag_skipping_bfs");
    g.sample_size(10);
    let term = Termination::Quiescence {
        max_supersteps: 1000,
    };
    g.bench_function("with_flags(sparse)", |b| {
        let engine = Engine::new(EngineConfig::new(workdir("flags-on")).with_termination(term));
        b.iter(|| engine.run_edge_list(el.clone(), "g", Bfs { root }).unwrap());
    });
    g.bench_function("without_flags(dense)", |b| {
        // Fixed superstep count equal to the sparse run's depth, so both
        // traverse the same number of rounds.
        let engine = Engine::new(EngineConfig::new(workdir("flags-off")).with_termination(term));
        b.iter(|| {
            engine
                .run_edge_list(el.clone(), "g", DenseBfs { root })
                .unwrap()
        });
    });
    g.finish();
}

fn bench_partitioning(c: &mut Criterion) {
    let el = gpsa_bench::dataset_edges(Dataset::Google, 1024);
    let root = gpsa_bench::bfs_root(&el);
    let mut g = c.benchmark_group("partitioning");
    g.sample_size(10);
    for (tag, intervals) in [
        ("edge_balanced", IntervalStrategy::EdgeBalanced),
        ("strided", IntervalStrategy::Strided),
    ] {
        g.bench_function(tag, |b| {
            let mut config = EngineConfig::new(workdir(tag));
            config.intervals = intervals;
            let engine = Engine::new(config);
            b.iter(|| engine.run_edge_list(el.clone(), "g", Bfs { root }).unwrap());
        });
    }
    g.finish();
}

fn bench_csr_degree_inlining(c: &mut Criterion) {
    // Paper Fig. 4: storing the out-degree inline avoids a second lookup
    // when generating messages. Measure a full PageRank-style sweep that
    // needs the degree for every active vertex.
    let el = generate::rmat(20_000, 200_000, generate::RmatParams::default(), 5);
    let dir = workdir("csr");
    let with = dir.join("with.gcsr");
    let without = dir.join("without.gcsr");
    preprocess::edges_to_csr(
        el.clone(),
        &with,
        &preprocess::PreprocessOptions {
            with_degrees: true,
            ..preprocess::PreprocessOptions::uncompressed()
        },
    )
    .unwrap();
    preprocess::edges_to_csr(
        el.clone(),
        &without,
        &preprocess::PreprocessOptions {
            with_degrees: false,
            ..preprocess::PreprocessOptions::uncompressed()
        },
    )
    .unwrap();
    let d_with = DiskCsr::open(&with).unwrap();
    let d_without = DiskCsr::open(&without).unwrap();
    // Degrees from a separate array — the "extra lookup" alternative.
    let sep_degrees = el.out_degrees();

    let mut g = c.benchmark_group("csr_degree_inlining");
    g.throughput(Throughput::Elements(el.len() as u64));
    let sweep = |csr: &DiskCsr, degrees: Option<&[u32]>| -> u64 {
        let mut acc = 0u64;
        let mut cursor = csr.cursor(0..csr.n_vertices() as u32);
        while let Some(rec) = cursor.next_rec() {
            let deg = match degrees {
                Some(d) => d[rec.vid as usize],
                None => rec.degree,
            };
            for &t in rec.targets {
                acc = acc.wrapping_add((t as u64).wrapping_mul(deg as u64));
            }
        }
        acc
    };
    g.bench_function("inlined_degrees", |b| {
        b.iter(|| std::hint::black_box(sweep(&d_with, None)))
    });
    g.bench_function("separate_degree_array", |b| {
        b.iter(|| std::hint::black_box(sweep(&d_without, Some(&sep_degrees))))
    });
    g.finish();
}

fn bench_mmap_vs_read(c: &mut Criterion) {
    // Paper §IV-C: GPSA streams the edge file through a memory mapping
    // instead of explicit buffered reads.
    let el = generate::rmat(20_000, 400_000, generate::RmatParams::default(), 9);
    let dir = workdir("mmap");
    let path = dir.join("g.gcsr");
    // v1 layout: the raw-sum and buffered-read variants below assume a
    // word-array body.
    preprocess::edges_to_csr(el, &path, &preprocess::PreprocessOptions::uncompressed()).unwrap();
    let bytes = std::fs::metadata(&path).unwrap().len();

    let mut g = c.benchmark_group("edge_stream_io");
    g.throughput(Throughput::Bytes(bytes));
    // Raw word sum over the mapping — same work as buffered_read, no
    // record parsing, to separate mmap-vs-read() cost from cursor cost.
    g.bench_function("mmap_raw_sum", |b| {
        let map = gpsa_mmap::Mmap::open(&path).unwrap();
        b.iter(|| {
            let words: &[u32] = map.as_slice_of().unwrap();
            let mut acc = 0u64;
            for &w in words {
                acc = acc.wrapping_add(w as u64);
            }
            std::hint::black_box(acc)
        })
    });
    g.bench_function("mmap_cursor", |b| {
        let csr = DiskCsr::open(&path).unwrap();
        b.iter(|| {
            let mut acc = 0u64;
            let mut cursor = csr.cursor(0..csr.n_vertices() as u32);
            while let Some(rec) = cursor.next_rec() {
                for &t in rec.targets {
                    acc = acc.wrapping_add(t as u64);
                }
            }
            std::hint::black_box(acc)
        })
    });
    g.bench_function("buffered_read", |b| {
        b.iter(|| {
            let f = std::fs::File::open(&path).unwrap();
            let mut r = std::io::BufReader::with_capacity(1 << 20, f);
            let mut acc = 0u64;
            let mut buf = [0u8; 4096];
            loop {
                let n = r.read(&mut buf).unwrap();
                if n == 0 {
                    break;
                }
                for w in buf[..n].chunks_exact(4) {
                    acc = acc.wrapping_add(u32::from_le_bytes(w.try_into().unwrap()) as u64);
                }
            }
            std::hint::black_box(acc)
        })
    });
    g.finish();
}

fn bench_overlap(c: &mut Criterion) {
    // The paper's core claim (§III/Fig. 2): decoupling dispatch from
    // compute overlaps the two phases. Three points on the spectrum:
    // the strictly-sequential conventional BSP engine (same VertexProgram
    // trait, Fig. 1 semantics), the actor engine pinned to one worker,
    // and the actor engine with workers to overlap on.
    let el = gpsa_bench::dataset_edges(Dataset::Google, 512);
    let root = gpsa_bench::bfs_root(&el);
    let term = Termination::Quiescence {
        max_supersteps: 1000,
    };
    let mut g = c.benchmark_group("dispatch_compute_overlap");
    g.sample_size(10);
    g.bench_function("sequential_bsp_engine", |b| {
        let engine = gpsa::SyncEngine::new(term);
        b.iter(|| engine.run(&el, Bfs { root }));
    });
    for (tag, workers) in [("actors_1_worker", 1usize), ("actors_4_workers", 4)] {
        g.bench_function(tag, |b| {
            let config = EngineConfig::new(workdir(tag))
                .with_workers(workers)
                .with_actors(2, 2)
                .with_termination(term);
            let engine = Engine::new(config);
            b.iter(|| engine.run_edge_list(el.clone(), "g", Bfs { root }).unwrap());
        });
    }
    g.finish();
}

fn bench_chunked_dispatch(c: &mut Criterion) {
    // Tentpole ablation: cooperative ~N-edge dispatch chunks + recycled
    // message slabs vs one monolithic activation per dispatcher. With more
    // workers than dispatchers, chunking lets freed workers interleave
    // compute batches between chunks (and steal dispatch work); monolithic
    // dispatch caps dispatch parallelism at n_dispatchers.
    use gpsa::programs::PageRank;
    for (ds, scale, tag) in [
        (Dataset::Twitter, 4096u64, "twitter-s"),
        (Dataset::Google, 256, "google-s"),
    ] {
        let el = gpsa_bench::dataset_edges(ds, scale);
        let mut g = c.benchmark_group(format!("chunked_dispatch_{tag}"));
        g.sample_size(10);
        for (sub, chunk) in [
            ("monolithic", EngineConfig::MONOLITHIC_DISPATCH),
            ("chunk64k", 65_536),
            ("chunk16k", 16_384),
        ] {
            g.bench_function(sub, |b| {
                let config = EngineConfig::new(workdir(&format!("cd-{tag}-{sub}")))
                    .with_workers(4)
                    .with_actors(2, 2)
                    .with_termination(Termination::Supersteps(5))
                    .with_dispatch_chunk(chunk);
                let engine = Engine::new(config);
                b.iter(|| {
                    engine
                        .run_edge_list(el.clone(), "g", PageRank::default())
                        .unwrap()
                });
            });
        }
        g.finish();
    }
}

criterion_group!(
    benches,
    bench_flag_skipping,
    bench_partitioning,
    bench_csr_degree_inlining,
    bench_mmap_vs_read,
    bench_overlap,
    bench_chunked_dispatch
);
criterion_main!(benches);
