//! Property tests: for arbitrary graphs and cluster shapes, the
//! distributed engine agrees with the sequential oracle and conserves
//! message counts across the traffic matrix. Each program runs its own
//! `fold_batch` kernel in the cluster: the u32 min kernels (CC, BFS,
//! SSSP) must match bit for bit, the f32 damped sum (PageRank) within
//! 1e-6.

use gpsa::programs::{Bfs, ConnectedComponents, PageRank, Sssp};
use gpsa::{SyncEngine, Termination};
use gpsa_dist::{Cluster, ClusterConfig};
use gpsa_graph::{Edge, EdgeList};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static CASE: AtomicU64 = AtomicU64::new(0);

fn workdir(tag: &str) -> PathBuf {
    let case = CASE.fetch_add(1, Ordering::Relaxed);
    let d = std::env::temp_dir().join(format!(
        "gpsa-dist-prop-{}-{tag}-{case}",
        std::process::id()
    ));
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn arb_graph() -> impl Strategy<Value = EdgeList> {
    (2usize..50).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..=150).prop_map(move |pairs| {
            EdgeList::with_vertices(
                pairs
                    .into_iter()
                    .filter(|(a, b)| a != b)
                    .map(|(a, b)| Edge::new(a, b))
                    .collect(),
                n,
            )
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn distributed_cc_matches_oracle(el in arb_graph(), nodes in 1usize..6) {
        let term = Termination::Quiescence { max_supersteps: 2000 };
        let expect = SyncEngine::new(term).run(&el, ConnectedComponents).values;
        let cluster = Cluster::new(
            ClusterConfig::new(nodes, workdir("cc")).with_termination(term),
        );
        let got = cluster.run(&el, ConnectedComponents).unwrap();
        prop_assert_eq!(got.values, expect);
    }

    #[test]
    fn distributed_bfs_matches_oracle(el in arb_graph(), nodes in 1usize..6, root_sel in 0u32..50) {
        let root = root_sel % el.n_vertices as u32;
        let term = Termination::Quiescence { max_supersteps: 2000 };
        let expect = SyncEngine::new(term).run(&el, Bfs { root }).values;
        let cluster = Cluster::new(
            ClusterConfig::new(nodes, workdir("bfs")).with_termination(term),
        );
        let got = cluster.run(&el, Bfs { root }).unwrap();
        prop_assert_eq!(got.values, expect);
    }

    #[test]
    fn distributed_sssp_matches_oracle(el in arb_graph(), nodes in 1usize..6, root_sel in 0u32..50) {
        let root = root_sel % el.n_vertices as u32;
        let term = Termination::Quiescence { max_supersteps: 2000 };
        let expect = SyncEngine::new(term).run(&el, Sssp { root }).values;
        let cluster = Cluster::new(
            ClusterConfig::new(nodes, workdir("sssp")).with_termination(term),
        );
        let got = cluster.run(&el, Sssp { root }).unwrap();
        prop_assert_eq!(got.values, expect);
    }

    #[test]
    fn distributed_pagerank_matches_oracle(el in arb_graph(), nodes in 1usize..6) {
        let term = Termination::Supersteps(5);
        let expect = SyncEngine::new(term).run(&el, PageRank::default()).values;
        let cluster = Cluster::new(
            ClusterConfig::new(nodes, workdir("pr")).with_termination(term),
        );
        let got = cluster.run(&el, PageRank::default()).unwrap();
        prop_assert_eq!(got.supersteps, 5);
        prop_assert_eq!(got.values.len(), expect.len());
        let max_diff = got
            .values
            .iter()
            .zip(&expect)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        prop_assert!(max_diff <= 1e-6, "distributed PR diverged: {}", max_diff);
    }

    #[test]
    fn traffic_matrix_accounts_for_every_message(el in arb_graph(), nodes in 1usize..5) {
        let term = Termination::Quiescence { max_supersteps: 2000 };
        let cluster = Cluster::new(
            ClusterConfig::new(nodes, workdir("traffic")).with_termination(term),
        );
        let got = cluster.run(&el, ConnectedComponents).unwrap();
        // Every message a dispatcher sent was folded by a computer.
        prop_assert_eq!(got.traffic.total(), got.messages);
        // Single-node clusters have no remote traffic.
        if nodes == 1 || el.n_vertices <= 1 {
            prop_assert_eq!(got.traffic.remote(), 0);
        }
    }
}
