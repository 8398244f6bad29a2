//! Distributed correctness: a simulated cluster must compute the same
//! answers as the single-node engine / sequential references, with sane
//! traffic accounting.

use gpsa::programs::{Bfs, ConnectedComponents, PageRank, Sssp, UNREACHED};
use gpsa::{SyncEngine, Termination};
use gpsa_dist::{Cluster, ClusterConfig};
use gpsa_graph::{generate, Edge, EdgeList};
use std::os::unix::fs::MetadataExt;
use std::path::{Path, PathBuf};
use std::time::Duration;

fn workdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("gpsa-dist-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn ref_cc(el: &EdgeList) -> Vec<u32> {
    let csr = gpsa_graph::Csr::from_edge_list(el);
    let mut label: Vec<u32> = (0..el.n_vertices as u32).collect();
    loop {
        let mut changed = false;
        for v in 0..el.n_vertices as u32 {
            for &d in csr.neighbors(v) {
                if label[v as usize] < label[d as usize] {
                    label[d as usize] = label[v as usize];
                    changed = true;
                }
            }
        }
        if !changed {
            return label;
        }
    }
}

#[test]
fn cc_agrees_across_cluster_sizes() {
    let el = generate::symmetrize(&generate::rmat(
        600,
        3000,
        generate::RmatParams::default(),
        5,
    ));
    let expect = ref_cc(&el);
    for nodes in [1usize, 2, 3, 5] {
        let cluster = Cluster::new(ClusterConfig::new(nodes, workdir(&format!("cc-{nodes}"))));
        let report = cluster.run(&el, ConnectedComponents).unwrap();
        assert_eq!(report.values, expect, "{nodes} nodes");
        assert_eq!(report.traffic.n_nodes(), nodes.min(el.n_vertices));
        assert_eq!(*report.activated.last().unwrap(), 0, "quiesced");
    }
}

#[test]
fn bfs_crosses_node_boundaries() {
    // Chain spanning all nodes: the frontier must hop across every
    // node-to-node link.
    let n = 40usize;
    let el = generate::chain(n);
    let cluster = Cluster::new(ClusterConfig::new(4, workdir("bfs-chain")));
    let report = cluster.run(&el, Bfs { root: 0 }).unwrap();
    let expect: Vec<u32> = (0..n as u32).collect();
    assert_eq!(report.values, expect);
    // Node i forwards exactly one chain edge to node i+1.
    assert_eq!(report.traffic.remote(), 3, "three boundary crossings");
    assert_eq!(report.traffic.local() + 3, n as u64 - 1);
}

#[test]
fn pagerank_matches_single_node_trajectory() {
    let el = generate::symmetrize(&generate::erdos_renyi(300, 1500, 9));
    let steps = 6u64;
    // Sequential BSP oracle (same trait, same trajectory).
    let expect = gpsa::SyncEngine::new(Termination::Supersteps(steps))
        .run(&el, PageRank::default())
        .values;
    let cluster = Cluster::new(
        ClusterConfig::new(3, workdir("pr")).with_termination(Termination::Supersteps(steps)),
    );
    let report = cluster.run(&el, PageRank::default()).unwrap();
    assert_eq!(report.supersteps, steps);
    let max_diff = report
        .values
        .iter()
        .zip(&expect)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);
    assert!(max_diff < 1e-6, "distributed PR diverged: {max_diff}");
}

#[test]
fn traffic_depends_on_partition_locality() {
    // Two dense clusters aligned with the node split: almost all traffic
    // stays local. The same graph relabeled to interleave the clusters
    // across nodes forces most traffic remote.
    let k = 200u32;
    let mut aligned = Vec::new();
    let mut interleaved = Vec::new();
    let cluster_edges = generate::symmetrize(&generate::erdos_renyi(k as usize, 800, 2)).edges;
    for e in &cluster_edges {
        // Cluster A: ids [0, k); cluster B: ids [k, 2k).
        aligned.push(*e);
        aligned.push(gpsa_graph::Edge::new(e.src + k, e.dst + k));
        // Interleaved labeling: cluster A -> even ids, B -> odd ids.
        interleaved.push(gpsa_graph::Edge::new(e.src * 2, e.dst * 2));
        interleaved.push(gpsa_graph::Edge::new(e.src * 2 + 1, e.dst * 2 + 1));
    }
    let aligned = EdgeList::with_vertices(aligned, 2 * k as usize);
    let interleaved = EdgeList::with_vertices(interleaved, 2 * k as usize);

    let run = |tag: &str, el: &EdgeList| {
        let cluster = Cluster::new(ClusterConfig::new(2, workdir(tag)));
        cluster.run(el, ConnectedComponents).unwrap()
    };
    let a = run("aligned", &aligned);
    let b = run("interleaved", &interleaved);
    assert_eq!(a.traffic.remote(), 0, "aligned clusters never cross nodes");
    assert!(
        b.traffic.remote() > b.traffic.local(),
        "interleaved labeling should push most traffic over the wire: \
         remote {} local {}",
        b.traffic.remote(),
        b.traffic.local()
    );
    // Same answers regardless of locality (up to the relabeling).
    assert_eq!(a.values[..k as usize], ref_cc(&aligned)[..k as usize]);
}

#[test]
fn more_nodes_than_vertices() {
    let el = generate::cycle(3);
    let cluster = Cluster::new(ClusterConfig::new(8, workdir("tiny")));
    let report = cluster.run(&el, ConnectedComponents).unwrap();
    assert_eq!(report.values, vec![0, 0, 0]);
}

#[test]
fn unreachable_vertices_stay_unreached_across_shards() {
    let el = generate::two_components(30, 30);
    let cluster = Cluster::new(ClusterConfig::new(3, workdir("2c")));
    let report = cluster.run(&el, Bfs { root: 0 }).unwrap();
    assert!(report.values[30..].iter().all(|&l| l == UNREACHED));
    assert!(report.values[..30].iter().all(|&l| l < UNREACHED));
}

#[test]
fn kcore_runs_distributed() {
    let el = generate::symmetrize(&generate::erdos_renyi(200, 1200, 3));
    let program = gpsa::programs::KCore::new(3, el.out_degrees());
    let cluster = Cluster::new(ClusterConfig::new(3, workdir("kcore")));
    let report = cluster.run(&el, program).unwrap();
    // Compare against the single-node actor engine.
    let single = gpsa::Engine::new(gpsa::EngineConfig::small(workdir("kcore-single")))
        .run_edge_list(
            el.clone(),
            "kc",
            gpsa::programs::KCore::new(3, el.out_degrees()),
        )
        .unwrap();
    assert_eq!(report.values, single.values);
}

/// `(inode, mtime in ns)` of each node's CSR fragment file.
fn fragment_stamps(dir: &Path, nodes: usize) -> Vec<(u64, i128)> {
    (0..nodes)
        .map(|node| {
            let m = std::fs::metadata(dir.join(format!("node{node}.gcsr"))).unwrap();
            (
                m.ino(),
                i128::from(m.mtime()) * 1_000_000_000 + i128::from(m.mtime_nsec()),
            )
        })
        .collect()
}

/// File mtimes tick at the kernel's coarse clock; wait past a tick so a
/// rewrite always shows as a new mtime.
fn let_mtime_tick() {
    std::thread::sleep(Duration::from_millis(30));
}

fn cc_oracle(el: &EdgeList) -> Vec<u32> {
    SyncEngine::new(Termination::Quiescence {
        max_supersteps: 10_000,
    })
    .run(el, ConnectedComponents)
    .values
}

#[test]
fn a_repeat_run_reuses_the_node_fragments() {
    let el = generate::symmetrize(&generate::rmat(
        600,
        3000,
        generate::RmatParams::default(),
        7,
    ));
    let dir = workdir("reuse");
    let cluster = Cluster::new(ClusterConfig::new(3, &dir));
    let first = cluster.run(&el, ConnectedComponents).unwrap();
    let stamps = fragment_stamps(&dir, 3);
    let_mtime_tick();
    let second = cluster.run(&el, ConnectedComponents).unwrap();
    assert_eq!(fragment_stamps(&dir, 3), stamps, "fragments rewritten");
    assert_eq!(second.values, first.values);
    assert_eq!(second.values, cc_oracle(&el));

    // A program with another message type (so another slab pool) on the
    // same fragments, then the first program again.
    let sssp = cluster.run(&el, Sssp { root: 0 }).unwrap();
    let expect = SyncEngine::new(Termination::Quiescence {
        max_supersteps: 10_000,
    })
    .run(&el, Sssp { root: 0 })
    .values;
    assert_eq!(sssp.values, expect);
    let third = cluster.run(&el, ConnectedComponents).unwrap();
    assert_eq!(third.values, first.values);
    assert_eq!(fragment_stamps(&dir, 3), stamps, "fragments rewritten");
}

#[test]
fn changing_one_edge_reshards() {
    // Two directed rings; pointing the first ring's closing edge into
    // the second carries label 0 over, with the same vertex and edge
    // counts.
    let el = generate::two_components(40, 40);
    let dir = workdir("reshard-edge");
    let cluster = Cluster::new(ClusterConfig::new(2, &dir));
    let before = cluster.run(&el, ConnectedComponents).unwrap();
    assert_eq!(before.values, cc_oracle(&el));
    let stamps = fragment_stamps(&dir, 2);
    let_mtime_tick();

    let mut changed = el.clone();
    let i = changed.edges.iter().position(|e| e.src == 39).unwrap();
    changed.edges[i] = Edge::new(39, 40);
    assert_eq!(
        (changed.n_vertices, changed.len()),
        (el.n_vertices, el.len())
    );
    let after = cluster.run(&changed, ConnectedComponents).unwrap();
    let expect = cc_oracle(&changed);
    assert_ne!(expect, before.values, "the edge must matter");
    assert_eq!(after.values, expect);
    let restamped = fragment_stamps(&dir, 2);
    assert!(
        restamped.iter().zip(&stamps).all(|(a, b)| a != b),
        "every fragment is rewritten on a miss"
    );
}

#[test]
fn changing_the_node_count_reshards() {
    // A 3-node cluster re-cuts the fragments a 2-node cluster left in
    // the same directory; the 2-node cluster then finds its files
    // rewritten under it and cuts its own again instead of reusing them.
    let el = generate::symmetrize(&generate::erdos_renyi(300, 1200, 4));
    let expect = cc_oracle(&el);
    let dir = workdir("reshard-nodes");
    let two = Cluster::new(ClusterConfig::new(2, &dir));
    assert_eq!(two.run(&el, ConnectedComponents).unwrap().values, expect);
    let stamps_two = fragment_stamps(&dir, 2);
    let_mtime_tick();

    let three = Cluster::new(ClusterConfig::new(3, &dir))
        .run(&el, ConnectedComponents)
        .unwrap();
    assert_eq!(three.values, expect);
    assert_eq!(three.traffic.n_nodes(), 3);
    let stamps_three = fragment_stamps(&dir, 2);
    assert!(stamps_three.iter().zip(&stamps_two).all(|(a, b)| a != b));
    let_mtime_tick();

    let again = two.run(&el, ConnectedComponents).unwrap();
    assert_eq!(again.values, expect);
    assert_eq!(again.traffic.n_nodes(), 2);
    assert!(fragment_stamps(&dir, 2)
        .iter()
        .zip(&stamps_three)
        .all(|(a, b)| a != b));
}

#[cfg(feature = "chaos")]
#[test]
fn node_kill_on_reused_fragments_recovers_bit_identical() {
    use gpsa::fault::{FaultPlan, FaultSpec};
    use std::sync::Arc;

    // A directed chain: BFS from its last vertex ends at once (before
    // the kill's superstep), CC needs a superstep per hop, so only the
    // second run — on reused fragments — meets the kill.
    let n = 60usize;
    let el = generate::chain(n);
    let dir = workdir("reuse-kill");
    let plan = FaultPlan::new(23).with(FaultSpec::NodeKill {
        node: 1,
        superstep: 10,
    });
    let cluster = Cluster::new(ClusterConfig::new(3, &dir).with_fault_plan(Arc::new(plan)));
    let bfs = cluster.run(&el, Bfs { root: n as u32 - 1 }).unwrap();
    assert_eq!(bfs.node_restarts, 0);
    assert!(bfs.supersteps < 10);
    let stamps = fragment_stamps(&dir, 3);
    let_mtime_tick();
    let cc = cluster.run(&el, ConnectedComponents).unwrap();
    assert_eq!(cc.node_restarts, 1, "causes: {:?}", cc.retry_causes);
    assert_eq!(cc.values, cc_oracle(&el));
    assert_eq!(fragment_stamps(&dir, 3), stamps, "fragments rewritten");
}

/// Each node's out-edge count under the cluster's cut rule: the node
/// ranges are [`gpsa::balanced_cut`] over the out-degree prefix.
fn out_edges_per_node(el: &EdgeList, nodes: usize) -> Vec<u64> {
    let mut prefix = vec![0u64];
    for d in el.out_degrees() {
        prefix.push(prefix.last().unwrap() + u64::from(d));
    }
    gpsa::balanced_cut(0..el.n_vertices as u32, nodes, |v| prefix[v as usize])
        .iter()
        .map(|r| prefix[r.end as usize] - prefix[r.start as usize])
        .collect()
}

#[test]
fn node_ranges_balance_out_edges_on_a_skewed_graph() {
    // R-MAT piles edges onto low ids: equal id ranges would hand node 0
    // most of them. PageRank sends one message per out-edge per
    // superstep, so a traffic row over the supersteps is exactly the
    // node's out-edge count.
    let el = generate::rmat(4096, 40_000, generate::RmatParams::default(), 3);
    let e = el.len() as u64;
    let steps = 3u64;
    for nodes in [2usize, 4] {
        let cluster = Cluster::new(
            ClusterConfig::new(nodes, workdir(&format!("balance-{nodes}")))
                .with_termination(Termination::Supersteps(steps)),
        );
        let report = cluster.run(&el, PageRank::default()).unwrap();
        assert_eq!(report.supersteps, steps);
        assert_eq!(report.traffic.total(), report.messages);
        assert_eq!(report.messages, steps * e);
        let rows = report.traffic.snapshot();
        let sent: Vec<u64> = rows.iter().map(|row| row.iter().sum()).collect();
        assert!(sent.iter().all(|s| s % steps == 0), "rows {sent:?}");
        let per_node: Vec<u64> = sent.iter().map(|s| s / steps).collect();
        assert_eq!(per_node, out_edges_per_node(&el, nodes));
        for (node, &edges) in per_node.iter().enumerate() {
            let share = edges as f64 / e as f64;
            assert!(
                share <= 1.1 / nodes as f64,
                "{nodes} nodes: node {node} holds {share:.3} of the out-edges ({per_node:?})"
            );
        }
        let equal_ids = el
            .edges
            .iter()
            .filter(|edge| (edge.src as usize) < el.n_vertices.div_ceil(nodes))
            .count() as f64;
        assert!(
            equal_ids / e as f64 > 1.5 / nodes as f64,
            "the graph must be skewed for the test to mean anything"
        );
    }
}

/// A hub with three quarters of the edges, then a ring over 1..=13:
/// on 3 or 4 nodes the hub overfills node 0's share, the ring fills the
/// next, and the cut leaves the last node an empty range.
fn hub_graph() -> EdgeList {
    let n = 40u32;
    let mut edges: Vec<Edge> = (1..n).map(|v| Edge::new(0, v)).collect();
    edges.extend((1..=13).map(|v| Edge::new(v, v % 13 + 1)));
    EdgeList::with_vertices(edges, n as usize)
}

#[test]
fn a_node_with_an_empty_range_runs_bit_identical() {
    let el = hub_graph();
    for nodes in [3usize, 4] {
        let per_node = out_edges_per_node(&el, nodes);
        assert_eq!(per_node.last(), Some(&0), "{nodes} nodes: {per_node:?}");
        let cluster = Cluster::new(ClusterConfig::new(nodes, workdir(&format!("hub-{nodes}"))));
        let cc = cluster.run(&el, ConnectedComponents).unwrap();
        assert_eq!(cc.values, cc_oracle(&el), "{nodes} nodes");
        let bfs = cluster.run(&el, Bfs { root: 5 }).unwrap();
        let expect = SyncEngine::new(Termination::Quiescence {
            max_supersteps: 10_000,
        })
        .run(&el, Bfs { root: 5 })
        .values;
        assert_eq!(bfs.values, expect, "{nodes} nodes");
    }
}

#[cfg(feature = "chaos")]
#[test]
fn a_node_kill_on_an_empty_range_recovers_bit_identical() {
    use gpsa::fault::{FaultPlan, FaultSpec};
    use std::sync::Arc;

    // BFS from inside the ring takes a superstep per ring hop, so the
    // kill lands mid-run.
    let el = hub_graph();
    let empty = 3;
    assert_eq!(out_edges_per_node(&el, 4)[empty], 0);
    let plan = FaultPlan::new(29).with(FaultSpec::NodeKill {
        node: empty as u32,
        superstep: 3,
    });
    let cluster =
        Cluster::new(ClusterConfig::new(4, workdir("hub-kill")).with_fault_plan(Arc::new(plan)));
    let bfs = cluster.run(&el, Bfs { root: 5 }).unwrap();
    assert_eq!(bfs.node_restarts, 1, "causes: {:?}", bfs.retry_causes);
    assert!(bfs.retry_causes[0].contains(&format!("node {empty}")));
    let expect = SyncEngine::new(Termination::Quiescence {
        max_supersteps: 10_000,
    })
    .run(&el, Bfs { root: 5 })
    .values;
    assert_eq!(bfs.values, expect);
}
