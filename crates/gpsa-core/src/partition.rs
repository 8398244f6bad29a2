//! Work assignment (paper §V-A): vertex intervals for dispatch actors.
//!
//! "The vertices can be read by the dispatching worker with a simple mod
//! algorithm. For efficiency, we can assign vertices to the dispatcher
//! worker by the average edges... The easiest way is an average
//! assignment by mod according to the vertex id." Messages route to
//! compute actor `v mod n_computers`, computed inline where they are sent.

use std::ops::Range;

use gpsa_graph::{GraphSnapshot, VertexId};

/// The set of vertices one dispatch actor owns.
///
/// `Range` is the efficient option (one contiguous streaming read of the
/// CSR file); `Strided` is the paper's "simple mod algorithm" convenience
/// option — dispatcher `offset` of `stride` reads vertices
/// `offset, offset+stride, …`, at the cost of random accesses into the
/// edge file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DispatchAssignment {
    /// A contiguous id interval (streamed sequentially).
    Range(Range<VertexId>),
    /// Every `stride`-th vertex starting at `offset` (random access).
    Strided {
        /// First vertex id.
        offset: u32,
        /// Step between owned vertices (= number of dispatchers).
        stride: u32,
        /// Total vertex count.
        n_vertices: u32,
    },
}

impl DispatchAssignment {
    /// The owned vertex ids, in increasing order.
    pub fn iter(&self) -> Box<dyn Iterator<Item = VertexId> + Send + '_> {
        match self {
            DispatchAssignment::Range(r) => Box::new(r.clone()),
            DispatchAssignment::Strided {
                offset,
                stride,
                n_vertices,
            } => Box::new((*offset..*n_vertices).step_by(*stride as usize)),
        }
    }

    /// Number of owned vertices.
    pub fn len(&self) -> usize {
        match self {
            DispatchAssignment::Range(r) => (r.end - r.start) as usize,
            DispatchAssignment::Strided {
                offset,
                stride,
                n_vertices,
            } => {
                if offset >= n_vertices {
                    0
                } else {
                    ((n_vertices - offset - 1) / stride + 1) as usize
                }
            }
        }
    }

    /// `true` when no vertices are owned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The paper's "simple mod algorithm": dispatcher `i` of `k` owns every
/// vertex `v` with `v % k == i`.
pub fn strided_assignments(n_vertices: usize, k: usize) -> Vec<DispatchAssignment> {
    assert!(k > 0);
    (0..k)
        .map(|i| DispatchAssignment::Strided {
            offset: i as u32,
            stride: k as u32,
            n_vertices: n_vertices as u32,
        })
        .collect()
}

/// Split vertices into `k` contiguous intervals balanced by **edge count**
/// (the paper's "assign vertices to the dispatcher worker by the average
/// edges to ensure that every dispatcher worker sends exactly the same
/// number of messages"). Takes the merged live-graph view so a delta
/// overlay's added/removed edges count toward the balance. The cut is
/// [`balanced_cut`] over prefix edge counts
/// ([`GraphSnapshot::edges_in_range`]).
pub fn edge_balanced_intervals(csr: &GraphSnapshot, k: usize) -> Vec<Range<VertexId>> {
    balanced_cut(0..csr.n_vertices() as VertexId, k, |v| {
        csr.edges_in_range(0..v)
    })
}

/// Cut `range` into `k` contiguous parts balanced by a count over vertex
/// ids: `prefix(v)` is the count below `v` (any monotone prefix, e.g.
/// edges out of `0..v`), so part `a..b` holds `prefix(b) - prefix(a)`.
/// The engine's dispatch intervals, the cluster's node ranges and each
/// node's dispatcher intervals are all cut here.
///
/// Each part but the last ends at the first vertex boundary where it
/// holds at least `⌈total / k⌉` (at least 1), or at `range.end`; parts
/// after a heavy vertex may be empty. The cut is a binary search per
/// part, so the cost is `O(k log n)` prefix lookups, not one per vertex.
pub fn balanced_cut(
    range: Range<VertexId>,
    k: usize,
    prefix: impl Fn(VertexId) -> u64,
) -> Vec<Range<VertexId>> {
    assert!(k > 0);
    let (first, n) = (range.start as usize, range.end as usize);
    let prefix = |v: usize| prefix(v as VertexId);
    let target = (prefix(n) - prefix(first)).div_ceil(k as u64).max(1);
    let mut parts = Vec::with_capacity(k);
    let mut start = first;
    for _ in 1..k {
        let goal = prefix(start) + target;
        // The smallest `end` in `start + 1..=n` with `prefix(end) >= goal`,
        // or `n` when none reaches it.
        let (mut lo, mut hi) = (start + 1, n);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if prefix(mid) < goal {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let end = lo.min(n);
        parts.push(start as VertexId..end as VertexId);
        start = end;
    }
    parts.push(start as VertexId..n as VertexId);
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strided_assignments_partition_the_universe() {
        for (n, k) in [(10usize, 3usize), (0, 2), (7, 7), (100, 1)] {
            let asg = strided_assignments(n, k);
            assert_eq!(asg.len(), k);
            let mut seen = vec![false; n];
            let mut total = 0usize;
            for a in &asg {
                assert_eq!(a.iter().count(), a.len());
                for v in a.iter() {
                    assert!(!seen[v as usize], "vertex {v} owned twice");
                    seen[v as usize] = true;
                    total += 1;
                }
            }
            assert_eq!(total, n, "n={n} k={k}");
        }
    }

    #[test]
    fn assignment_len_and_empty() {
        let r = DispatchAssignment::Range(3..7);
        assert_eq!(r.len(), 4);
        assert!(!r.is_empty());
        let s = DispatchAssignment::Strided {
            offset: 9,
            stride: 4,
            n_vertices: 8,
        };
        assert_eq!(s.len(), 0);
        assert!(s.is_empty());
        let s = DispatchAssignment::Strided {
            offset: 1,
            stride: 3,
            n_vertices: 10,
        };
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![1, 4, 7]);
        assert_eq!(s.len(), 3);
    }
    use gpsa_graph::{generate, preprocess, DiskCsr};
    use std::path::PathBuf;
    use std::sync::Arc;

    fn materialize(name: &str, el: gpsa_graph::EdgeList) -> GraphSnapshot {
        let dir = std::env::temp_dir().join(format!("gpsa-part-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path: PathBuf = dir.join(name);
        preprocess::edges_to_csr(el, &path, &preprocess::PreprocessOptions::default()).unwrap();
        GraphSnapshot::from_csr(Arc::new(DiskCsr::open(&path).unwrap()))
    }

    #[test]
    fn edge_balanced_intervals_balance_skewed_graphs() {
        // A star graph: vertex 0 has all the edges. Equal id ranges would
        // give dispatcher 0 everything; edge-balanced must give later
        // dispatchers nearly-empty ranges too, but the first interval must
        // stop right after the hub.
        let csr = materialize("star.gcsr", generate::star(1000));
        let iv = edge_balanced_intervals(&csr, 4);
        assert_eq!(iv.len(), 4);
        assert_eq!(iv[0], 0..1, "hub alone saturates the first interval");
        // Intervals tile 0..n.
        let mut expect = 0;
        for r in &iv {
            assert_eq!(r.start, expect);
            expect = r.end;
        }
        assert_eq!(expect, 1000);
    }

    #[test]
    fn edge_balanced_intervals_on_uniform_graph_are_roughly_uniform() {
        let csr = materialize("er.gcsr", generate::erdos_renyi(1000, 10_000, 77));
        let iv = edge_balanced_intervals(&csr, 4);
        let loads: Vec<u64> = iv.iter().map(|r| csr.edges_in_range(r.clone())).collect();
        let max = *loads.iter().max().unwrap() as f64;
        let min = *loads.iter().min().unwrap() as f64;
        assert!(
            max / min.max(1.0) < 1.5,
            "loads {loads:?} should be balanced"
        );
    }

    /// The definition the binary search replaces: walk vertex by vertex,
    /// closing an interval once it holds `⌈E / k⌉` edges.
    fn per_vertex_intervals(csr: &GraphSnapshot, k: usize) -> Vec<Range<VertexId>> {
        let n = csr.n_vertices();
        let target = (csr.n_edges() as u64).div_ceil(k as u64).max(1);
        let mut intervals = Vec::with_capacity(k);
        let mut start = 0;
        for _ in 1..k {
            let (mut acc, mut end) = (0, start);
            while end < n && acc < target {
                acc += u64::from(csr.degree(end as VertexId));
                end += 1;
            }
            intervals.push(start as VertexId..end as VertexId);
            start = end;
        }
        intervals.push(start as VertexId..n as VertexId);
        intervals
    }

    /// `edge_balanced_intervals` as it was before the cut moved into
    /// [`balanced_cut`]: the engine's intervals must not change.
    fn pre_balanced_cut_intervals(csr: &GraphSnapshot, k: usize) -> Vec<Range<VertexId>> {
        let n = csr.n_vertices();
        let target = (csr.n_edges() as u64).div_ceil(k as u64).max(1);
        let prefix = |v: usize| csr.edges_in_range(0..v as VertexId);
        let mut intervals = Vec::with_capacity(k);
        let mut start = 0;
        for _ in 1..k {
            let goal = prefix(start) + target;
            let (mut lo, mut hi) = (start + 1, n);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if prefix(mid) < goal {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            let end = lo.min(n);
            intervals.push(start as VertexId..end as VertexId);
            start = end;
        }
        intervals.push(start as VertexId..n as VertexId);
        intervals
    }

    #[test]
    fn the_engine_intervals_are_unchanged_on_the_seeded_graph_matrix() {
        let mut graphs = vec![
            ("star", generate::star(1000)),
            ("chain", generate::chain(300)),
            ("cycle", generate::cycle(17)),
            ("grid", generate::grid(24, 24)),
            ("empty", gpsa_graph::EdgeList::with_vertices(Vec::new(), 50)),
        ];
        for seed in 1..=4 {
            graphs.push((
                "rmat",
                generate::rmat(2000, 20_000, generate::RmatParams::default(), seed),
            ));
            graphs.push(("er", generate::erdos_renyi(1000, 10_000, seed)));
        }
        for (i, (name, el)) in graphs.into_iter().enumerate() {
            let csr = materialize(&format!("matrix-{i}.gcsr"), el);
            for k in [1, 2, 3, 4, 5, 8, 16, 64] {
                assert_eq!(
                    edge_balanced_intervals(&csr, k),
                    pre_balanced_cut_intervals(&csr, k),
                    "{name} #{i} k {k}"
                );
            }
        }
    }

    #[test]
    fn balanced_cut_of_a_sub_range_tiles_it_by_its_own_count() {
        // Weights 0, 1, 2, ... over ids 10..30; the count below `v` is
        // the sum of the weights below it.
        let prefix = |v: VertexId| u64::from(v) * u64::from(v.saturating_sub(1)) / 2;
        for k in [1, 2, 3, 7, 40] {
            let parts = balanced_cut(10..30, k, prefix);
            assert_eq!(parts.len(), k);
            assert_eq!(parts[0].start, 10);
            assert_eq!(parts[k - 1].end, 30);
            for w in parts.windows(2) {
                assert_eq!(w[0].end, w[1].start);
            }
            let total = prefix(30) - prefix(10);
            let target = total.div_ceil(k as u64);
            for p in &parts[..k - 1] {
                let held = prefix(p.end) - prefix(p.start);
                // Each closed part reaches the target, and is the
                // shortest that does (or ran out of vertices).
                assert!(held >= target || p.end == 30, "k {k} {p:?}");
                if !p.is_empty() && p.end > p.start + 1 {
                    assert!(prefix(p.end - 1) - prefix(p.start) < target);
                }
            }
        }
        // An empty range cuts into empty parts.
        assert_eq!(balanced_cut(5..5, 3, prefix), vec![5..5, 5..5, 5..5]);
    }

    #[test]
    fn edge_balanced_cuts_match_the_per_vertex_walk_on_mutated_snapshots() {
        use gpsa_graph::{DeltaBatch, DeltaOverlay, Edge};
        use rand::{Rng, SeedableRng};

        let dir = std::env::temp_dir().join(format!("gpsa-part-mut-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xC075);
        let mut checked_empty = false;
        let mut checked_tail = false;
        for case in 0..60 {
            let base_n = rng.gen_range(1..40u32);
            let base_m = rng.gen_range(0..120usize);
            let edges: Vec<Edge> = (0..base_m)
                .map(|_| Edge::new(rng.gen_range(0..base_n), rng.gen_range(0..base_n)))
                .collect();
            let path = dir.join(format!("case-{case}.gcsr"));
            preprocess::edges_to_csr(
                gpsa_graph::EdgeList::with_vertices(edges, base_n as usize),
                &path,
                &preprocess::PreprocessOptions::default(),
            )
            .unwrap();
            let base = Arc::new(DiskCsr::open(&path).unwrap());
            let mut overlay = DeltaOverlay::new();
            for _ in 0..rng.gen_range(0..5) {
                // Endpoints up to 2x the base range: some records exist
                // only past the base.
                let es: Vec<Edge> = (0..rng.gen_range(1..30))
                    .map(|_| Edge::new(rng.gen_range(0..2 * base_n), rng.gen_range(0..2 * base_n)))
                    .collect();
                let batch = if rng.gen_bool(0.3) {
                    DeltaBatch::Remove(es)
                } else {
                    DeltaBatch::Add(es)
                };
                overlay.apply(&base, &batch);
            }
            let snap = GraphSnapshot::new(base.clone(), Arc::new(overlay));
            for k in [1, 2, 3, 5, 8, 64] {
                let iv = edge_balanced_intervals(&snap, k);
                assert_eq!(iv, per_vertex_intervals(&snap, k), "case {case} k {k}");
                let base_end = base.n_vertices() as VertexId;
                checked_empty |= iv.iter().any(|r| r.is_empty());
                checked_tail |= iv.iter().any(|r| {
                    !r.is_empty() && r.start >= base_end && snap.edges_in_range(r.clone()) > 0
                });
            }
        }
        assert!(checked_empty, "some interval came out empty");
        assert!(checked_tail, "some interval lay wholly past the base");
    }

    #[test]
    fn more_intervals_than_vertices() {
        let csr = materialize("tiny.gcsr", generate::chain(3));
        let iv = edge_balanced_intervals(&csr, 8);
        assert_eq!(iv.len(), 8);
        assert_eq!(
            iv.iter().map(|r| (r.end - r.start) as usize).sum::<usize>(),
            3
        );
    }
}
