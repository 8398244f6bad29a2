//! Seeded inputs: graphs, roots, delta batches and the served job list.
//!
//! Everything here is a pure function of `(workload, seed, scale)`. The
//! program under test never sees the seed, only what is generated from it.
//! Inputs are shaped so that the *amount of work* does not depend on the
//! seed (roots of equal eccentricity, a job mix with exact proportions):
//! the driver compares runs made with different seeds, and a seed that
//! picked an easier input would read as a speed-up.

use crate::surface::{self, Edge, EdgeList};

/// SplitMix64: the benchmark's own generator, so that no change to the
/// repository's `rand` stand-in can change the inputs.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> SplitMix64 {
        let mut g = SplitMix64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        g.next_u64();
        g
    }

    /// Next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Input sizes. [`Scale::FULL`] is what `BENCHMARK.json` measures;
/// [`Scale::TINY`] keeps the crate's own tests in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// `pr_dense` / `dist_pr` R-MAT `(vertices, edges)`.
    pub pr: (usize, usize),
    /// `bfs_grid` side length.
    pub grid: usize,
    /// `serve_mix` larger resident R-MAT graph.
    pub serve_big: (usize, usize),
    /// `serve_mix` smaller resident R-MAT graph.
    pub serve_small: (usize, usize),
    /// `live_cc` Erdős–Rényi base before symmetrizing.
    pub live: (usize, usize),
    /// Undirected pairs per `live_cc` delta batch (two edges each).
    pub batch_pairs: usize,
}

impl Scale {
    /// The measured sizes. The twitter stand-in is the paper's graph
    /// divided by 1024 (set-up runs three times per run inside a
    /// 3420-second budget for 114 runs); every graph is LLC-resident on
    /// this box either way.
    pub const FULL: Scale = Scale {
        pr: (40_676, 1_433_950),
        grid: 400,
        serve_big: (40_676, 1_433_950),
        serve_small: (6_400, 120_000),
        live: (200_000, 1_000_000),
        batch_pairs: 128,
    };

    /// Test sizes.
    pub const TINY: Scale = Scale {
        pr: (512, 6_000),
        grid: 24,
        serve_big: (512, 6_000),
        serve_small: (128, 1_200),
        live: (2_000, 8_000),
        batch_pairs: 8,
    };
}

/// The `pr_dense` / `dist_pr` graph.
pub fn pr_graph(scale: &Scale, seed: u64) -> EdgeList {
    surface::rmat(scale.pr.0, scale.pr.1, seed)
}

/// The `bfs_grid` graph (the same for every seed; the seed picks roots).
pub fn grid_graph(scale: &Scale) -> EdgeList {
    surface::grid(scale.grid, scale.grid)
}

/// Eight BFS roots that make the same work: the eight images of one
/// off-diagonal point under the grid's symmetries, in a seed-chosen order.
/// Every one runs the same number of supersteps with the same frontier
/// sizes, so op time does not depend on the seed.
pub fn grid_roots(scale: &Scale, seed: u64) -> Vec<u32> {
    let n = scale.grid;
    let (r, c) = (n / 8, n / 4 + n / 8);
    let (rr, cc) = (n - 1 - r, n - 1 - c);
    let mut roots: Vec<u32> = [
        (r, c),
        (c, r),
        (rr, c),
        (c, rr),
        (r, cc),
        (cc, r),
        (rr, cc),
        (cc, rr),
    ]
    .iter()
    .map(|&(r, c)| (r * n + c) as u32)
    .collect();
    SplitMix64::new(seed, 0xBF5).shuffle(&mut roots);
    roots
}

/// The `live_cc` base graph: symmetrized Erdős–Rényi, the same for every
/// seed (the seed picks the delta batches). How many rounds the single
/// thread's label propagation needs depends on the vertex numbering, and a
/// per-seed base moved `cost_ratio` by ±15 % on that alone.
pub fn live_base(scale: &Scale) -> EdgeList {
    surface::symmetrized_erdos_renyi(scale.live.0, scale.live.1, 0x11FE)
}

/// The `index`-th `live_cc` delta batch: `batch_pairs` random pairs, both
/// directions.
pub fn live_batch(scale: &Scale, seed: u64, index: u64) -> Vec<Edge> {
    let n = scale.live.0;
    let mut rng = SplitMix64::new(seed, 0xDE17A ^ (index << 20));
    let mut edges = Vec::with_capacity(scale.batch_pairs * 2);
    while edges.len() < scale.batch_pairs * 2 {
        let (a, b) = (rng.below(n) as u32, rng.below(n) as u32);
        if a != b {
            edges.push(Edge::new(a, b));
            edges.push(Edge::new(b, a));
        }
    }
    edges
}

/// The two resident `serve_mix` graphs, larger first.
pub fn serve_graphs(scale: &Scale, seed: u64) -> [EdgeList; 2] {
    [
        surface::rmat(scale.serve_big.0, scale.serve_big.1, seed),
        surface::rmat(scale.serve_small.0, scale.serve_small.1, seed ^ 0x5E12),
    ]
}

/// What a served job computes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Alg {
    /// BFS hop distances.
    Bfs {
        /// Source.
        root: u32,
    },
    /// SSSP with the engine's synthetic weights.
    Sssp {
        /// Source.
        root: u32,
    },
    /// Connected components.
    Cc,
    /// PageRank, five supersteps.
    PageRank {
        /// Damping factor; a fresh job gets a value no earlier job used.
        damping: f32,
    },
}

/// One entry of the served job list.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Job {
    /// Index into [`serve_graphs`].
    pub graph: usize,
    /// What to run.
    pub alg: Alg,
    /// Ask for a chunked (streamed) reply.
    pub stream: bool,
    /// The list means this job to repeat an earlier one exactly.
    pub repeat: bool,
}

/// Jobs per block. Each block has the same composition — 30 % repeats,
/// 25 % streamed — in a seed-shuffled order, so the mix a run sees does
/// not depend on where its time ran out by more than one block.
const BLOCK: usize = 20;

/// One client's closed-loop job list, generated lazily so a run of any
/// length draws from the same sequence.
#[derive(Debug, Clone)]
pub struct JobStream {
    rng: SplitMix64,
    /// Per graph: vertices with out-degree of at least 4, which on R-MAT
    /// sit in the giant component; BFS/SSSP from an isolated vertex would
    /// be a one-superstep job.
    roots: [Vec<u32>; 2],
    recent: Vec<Job>,
    block: Vec<Job>,
    fresh_pageranks: u32,
    client: u32,
}

impl JobStream {
    /// The list of client `client` (0 or 1) for `seed`.
    pub fn new(seed: u64, client: u32, graphs: &[EdgeList; 2]) -> JobStream {
        let roots = [0, 1].map(|g| {
            let degrees = graphs[g].out_degrees();
            let eligible: Vec<u32> = (0..degrees.len() as u32)
                .filter(|&v| degrees[v as usize] >= 4)
                .collect();
            assert!(!eligible.is_empty(), "graph {g} has no vertex of degree 4");
            eligible
        });
        JobStream {
            rng: SplitMix64::new(seed, 0x10B5 + u64::from(client)),
            roots,
            recent: Vec::new(),
            block: Vec::new(),
            fresh_pageranks: 0,
            client,
        }
    }

    fn fill_block(&mut self) {
        // 14 fresh jobs: 7 BFS, 3 SSSP, 4 PageRank, graphs alternating.
        let mut jobs = Vec::with_capacity(BLOCK);
        for i in 0..14 {
            let graph = i % 2;
            let alg = match i {
                0..=6 => Alg::Bfs {
                    root: self.roots[graph][self.rng.below(self.roots[graph].len())],
                },
                7..=9 => Alg::Sssp {
                    root: self.roots[graph][self.rng.below(self.roots[graph].len())],
                },
                _ => {
                    self.fresh_pageranks += 1;
                    let k = self.client * 5_000 + self.fresh_pageranks;
                    Alg::PageRank {
                        damping: 0.5 + k as f32 * 1e-5,
                    }
                }
            };
            jobs.push(Job {
                graph,
                alg,
                stream: false,
                repeat: false,
            });
        }
        // 6 repeats: CC on either graph (it has no parameter, so after its
        // first run per graph every CC job is a cache hit), and four exact
        // repeats of jobs from the previous blocks or, in the first block,
        // of this block's fresh jobs.
        for graph in 0..2 {
            jobs.push(Job {
                graph,
                alg: Alg::Cc,
                stream: false,
                repeat: true,
            });
        }
        let first_block = self.recent.is_empty();
        let pool = if first_block {
            jobs[..14].to_vec()
        } else {
            std::mem::take(&mut self.recent)
        };
        for _ in 0..4 {
            let mut job = pool[self.rng.below(pool.len())];
            job.repeat = true;
            jobs.push(job);
        }
        self.recent = jobs[..14].to_vec();
        if first_block {
            // Keep the repeats behind the jobs they repeat.
            self.rng.shuffle(&mut jobs[..14]);
            self.rng.shuffle(&mut jobs[14..]);
        } else {
            self.rng.shuffle(&mut jobs);
        }
        for slot in 0..BLOCK / 4 {
            jobs[slot * 4 + self.rng.below(4)].stream = true;
        }
        // `next` pops from the back.
        jobs.reverse();
        self.block = jobs;
    }
}

impl Iterator for JobStream {
    type Item = Job;

    fn next(&mut self) -> Option<Job> {
        if self.block.is_empty() {
            self.fill_block();
        }
        self.block.pop()
    }
}

/// FNV-1a over little-endian words.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    /// Mix one word in.
    pub fn word(&mut self, w: u32) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Mix a slice in.
    pub fn words(&mut self, ws: &[u32]) {
        for &w in ws {
            self.word(w);
        }
    }

    fn edges(&mut self, el: &EdgeList) {
        self.word(el.n_vertices as u32);
        for e in &el.edges {
            self.word(e.src);
            self.word(e.dst);
        }
    }
}

/// Hash of a result vector, for comparing replies without keeping them.
pub fn hash_words(ws: &[u32]) -> u64 {
    let mut h = Fnv::default();
    h.words(ws);
    h.0
}

/// Jobs per client and delta batches folded into [`input_hash`].
const HASHED_PREFIX: usize = 400;

/// Hash of everything the seed decides for `workload`: edge lists, roots,
/// the first 400 jobs of each client, the first 400 delta batches.
pub fn input_hash(workload: &str, scale: &Scale, seed: u64) -> u64 {
    let mut h = Fnv::default();
    match workload {
        "pr_dense" | "dist_pr" => h.edges(&pr_graph(scale, seed)),
        "bfs_grid" => {
            h.edges(&grid_graph(scale));
            h.words(&grid_roots(scale, seed));
        }
        "live_cc" => {
            h.edges(&live_base(scale));
            for i in 0..HASHED_PREFIX as u64 {
                for e in live_batch(scale, seed, i) {
                    h.word(e.src);
                    h.word(e.dst);
                }
            }
        }
        "serve_mix" => {
            let graphs = serve_graphs(scale, seed);
            graphs.iter().for_each(|g| h.edges(g));
            for client in 0..2 {
                for job in JobStream::new(seed, client, &graphs).take(HASHED_PREFIX) {
                    h.word(job.graph as u32);
                    h.word(u32::from(job.stream));
                    match job.alg {
                        Alg::Bfs { root } => h.words(&[1, root]),
                        Alg::Sssp { root } => h.words(&[2, root]),
                        Alg::Cc => h.word(3),
                        Alg::PageRank { damping } => h.words(&[4, damping.to_bits()]),
                    }
                }
            }
        }
        other => panic!("unknown workload {other}"),
    }
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WORKLOADS;

    #[test]
    fn same_seed_same_inputs_and_another_seed_other_inputs() {
        for w in WORKLOADS {
            let a = input_hash(w.name, &Scale::TINY, 7);
            assert_eq!(a, input_hash(w.name, &Scale::TINY, 7), "{}", w.name);
            assert_ne!(a, input_hash(w.name, &Scale::TINY, 8), "{}", w.name);
        }
    }

    #[test]
    fn grid_roots_are_the_symmetric_images_of_one_point() {
        let n = Scale::TINY.grid;
        let profile = |root: u32| {
            // Distances to the four sides, sorted: equal for symmetric images.
            let (r, c) = (root as usize / n, root as usize % n);
            let mut d = [r.min(n - 1 - r), c.min(n - 1 - c)];
            d.sort_unstable();
            d
        };
        let first = grid_roots(&Scale::TINY, 0);
        for seed in 0..20 {
            let mut roots = grid_roots(&Scale::TINY, seed);
            assert!(roots.iter().all(|&v| profile(v) == profile(first[0])));
            roots.sort_unstable();
            roots.dedup();
            assert_eq!(roots.len(), 8, "seed {seed}");
        }
        assert_ne!(first, grid_roots(&Scale::TINY, 1));
    }

    #[test]
    fn every_block_has_the_same_mix() {
        let graphs = serve_graphs(&Scale::TINY, 3);
        let jobs: Vec<Job> = JobStream::new(3, 1, &graphs).take(10 * BLOCK).collect();
        for block in jobs.chunks(BLOCK) {
            assert_eq!(block.iter().filter(|j| j.repeat).count(), 6);
            assert_eq!(block.iter().filter(|j| j.stream).count(), 5);
            let fresh_pr = block
                .iter()
                .filter(|j| !j.repeat && matches!(j.alg, Alg::PageRank { .. }))
                .count();
            assert_eq!(fresh_pr, 4);
        }
        // Fresh PageRank jobs never share a damping factor, so none of
        // them can be answered from the cache.
        let mut dampings: Vec<u32> = jobs
            .iter()
            .filter(|j| !j.repeat)
            .filter_map(|j| match j.alg {
                Alg::PageRank { damping } => Some(damping.to_bits()),
                _ => None,
            })
            .collect();
        let n = dampings.len();
        dampings.sort_unstable();
        dampings.dedup();
        assert_eq!(dampings.len(), n);
    }
}
