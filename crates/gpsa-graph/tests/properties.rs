//! Property tests for the graph substrate: format roundtrips, CSR
//! equivalences, generator and partitioner invariants.

use gpsa_graph::{generate, preprocess, Csr, DiskCsr, Edge, EdgeList, SEPARATOR};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static CASE: AtomicU64 = AtomicU64::new(0);

fn tmpdir() -> PathBuf {
    let case = CASE.fetch_add(1, Ordering::Relaxed);
    let d = std::env::temp_dir().join(format!("gpsa-graph-prop-{}-{case}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn arb_graph() -> impl Strategy<Value = EdgeList> {
    (1usize..60).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..=200).prop_map(move |pairs| {
            EdgeList::with_vertices(pairs.into_iter().map(|(a, b)| Edge::new(a, b)).collect(), n)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn text_format_roundtrips(el in arb_graph()) {
        let mut buf = Vec::new();
        el.write_text(&mut buf).unwrap();
        let back = EdgeList::read_text(&buf[..]).unwrap();
        prop_assert_eq!(back, el);
    }

    #[test]
    fn binary_format_roundtrips_edges(el in arb_graph()) {
        let mut buf = Vec::new();
        el.write_binary(&mut buf).unwrap();
        let back = EdgeList::read_binary(&buf[..]).unwrap();
        prop_assert_eq!(back.edges, el.edges);
    }

    #[test]
    fn csr_preserves_edge_multiset(el in arb_graph()) {
        let csr = Csr::from_edge_list(&el);
        prop_assert_eq!(csr.n_edges(), el.len());
        let mut got: Vec<Edge> = csr.edges().collect();
        let mut want = el.edges.clone();
        got.sort_unstable();
        want.sort_unstable();
        prop_assert_eq!(got, want);
        // Degrees sum to edge count.
        let total: u64 = (0..el.n_vertices as u32).map(|v| csr.out_degree(v) as u64).sum();
        prop_assert_eq!(total as usize, el.len());
    }

    #[test]
    fn transpose_is_involutive_up_to_neighbor_order(el in arb_graph()) {
        let csr = Csr::from_edge_list(&el);
        let tt = csr.transpose().transpose();
        prop_assert_eq!(tt.n_vertices(), csr.n_vertices());
        prop_assert_eq!(tt.n_edges(), csr.n_edges());
        for v in 0..csr.n_vertices() as u32 {
            let mut a = tt.neighbors(v).to_vec();
            let mut b = csr.neighbors(v).to_vec();
            a.sort_unstable();
            b.sort_unstable();
            prop_assert_eq!(a, b, "vertex {}", v);
        }
    }

    #[test]
    fn disk_csr_equals_in_memory_csr(
        el in arb_graph(),
        with_deg in any::<bool>(),
        compress in any::<bool>(),
    ) {
        let dir = tmpdir();
        let path = dir.join("g.gcsr");
        let opts = preprocess::PreprocessOptions {
            with_degrees: with_deg,
            compress,
            ..Default::default()
        };
        preprocess::edges_to_csr(el.clone(), &path, &opts).unwrap();
        let disk = DiskCsr::open(&path).unwrap();
        let mem = Csr::from_edge_list(&el);
        prop_assert_eq!(disk.n_vertices(), mem.n_vertices());
        prop_assert_eq!(disk.n_edges(), mem.n_edges());
        prop_assert_eq!(disk.compressed(), compress);
        if !compress {
            // v1 only: v2 always carries degrees in its index.
            prop_assert_eq!(disk.with_degrees(), with_deg);
        }
        // Cursor streaming and random access agree with the in-memory CSR.
        let mut streamed_edges = 0usize;
        let mut scratch = Vec::new();
        let mut cursor = disk.cursor(0..disk.n_vertices() as u32);
        while let Some(rec) = cursor.next_rec() {
            prop_assert_eq!(rec.targets, mem.neighbors(rec.vid));
            prop_assert_eq!(rec.degree, mem.out_degree(rec.vid));
            let (vid, degree, targets) = (rec.vid, rec.degree, rec.targets.to_vec());
            streamed_edges += targets.len();
            // No separator leaks into targets.
            prop_assert!(targets.iter().all(|&t| t != SEPARATOR));
            let direct = disk.record_into(vid, &mut scratch);
            prop_assert_eq!(direct.vid, vid);
            prop_assert_eq!(direct.degree, degree);
            prop_assert_eq!(direct.targets, &targets[..]);
        }
        prop_assert_eq!(streamed_edges, el.len());
    }

    #[test]
    fn external_sort_agrees_with_in_memory(el in arb_graph(), cap in 1usize..64) {
        let dir = tmpdir();
        let bin = dir.join("g.bin");
        el.write_binary_file(&bin).unwrap();
        let opts = preprocess::PreprocessOptions {
            run_capacity: cap,
            with_degrees: true,
            temp_dir: Some(dir.clone()),
            ..Default::default()
        };
        let ext = dir.join("ext.gcsr");
        preprocess::binary_to_csr(&bin, &ext, &opts).unwrap();
        let disk = DiskCsr::open(&ext).unwrap();
        let mem = Csr::from_edge_list(&el);
        // The binary path derives n from the max id seen, so compare the
        // covered prefix; the tail must be edge-free.
        prop_assert!(disk.n_vertices() <= mem.n_vertices());
        for v in 0..disk.n_vertices() as u32 {
            let mut got = disk.targets(v);
            let mut want = mem.neighbors(v).to_vec();
            got.sort_unstable();
            want.sort_unstable();
            prop_assert_eq!(got, want);
        }
        for v in disk.n_vertices()..mem.n_vertices() {
            prop_assert_eq!(mem.out_degree(v as u32), 0);
        }
    }

    #[test]
    fn uniform_intervals_tile(n in 0usize..500, k in 1usize..20) {
        // Equal-width id ranges tiling 0..n: their edge counts must add
        // up to the whole graph's, which the edge-balanced interval cut
        // and the dispatchers' skipped-word accounting rely on.
        let el = generate::erdos_renyi(n.max(2), n * 2 + 4, 1);
        let dir = tmpdir();
        let path = dir.join("g.gcsr");
        preprocess::edges_to_csr(el, &path, &preprocess::PreprocessOptions::default()).unwrap();
        let disk = DiskCsr::open(&path).unwrap();
        // edges_in_range is additive over a tiling.
        let nv = disk.n_vertices() as u32;
        let step = (nv / k as u32).max(1);
        let mut total = 0u64;
        let mut start = 0u32;
        while start < nv {
            let end = (start + step).min(nv);
            total += disk.edges_in_range(start..end);
            start = end;
        }
        prop_assert_eq!(total as usize, disk.n_edges());
    }

    #[test]
    fn rmat_respects_bounds(nv in 2usize..200, ne in 1usize..500, seed in any::<u64>()) {
        let el = generate::rmat(nv, ne, generate::RmatParams::default(), seed);
        prop_assert_eq!(el.len(), ne);
        prop_assert_eq!(el.n_vertices, nv);
        prop_assert!(el.edges.iter().all(|e| (e.src as usize) < nv && (e.dst as usize) < nv));
        prop_assert!(el.edges.iter().all(|e| e.src != e.dst));
    }

    #[test]
    fn symmetrize_makes_every_edge_bidirectional(el in arb_graph()) {
        let s = generate::symmetrize(&el);
        let set: std::collections::HashSet<(u32, u32)> =
            s.edges.iter().map(|e| (e.src, e.dst)).collect();
        for e in &s.edges {
            if e.src != e.dst {
                prop_assert!(set.contains(&(e.dst, e.src)));
            }
        }
    }
}
