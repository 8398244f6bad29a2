//! End-to-end engine tests: correctness against sequential references,
//! configuration strategies and resumption. Crash recovery lives in
//! `chaos.rs` (`--features chaos`), where crashes are injected.

use gpsa::programs::{Bfs, ConnectedComponents, InDegree, PageRank, Sssp, UNREACHED};
use gpsa::{Engine, EngineConfig, RunOutcome, Termination};
use gpsa_graph::{generate, preprocess, EdgeList};
use std::path::PathBuf;

fn workdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gpsa-engine-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn csr_for(tag: &str, el: &EdgeList) -> PathBuf {
    let dir = workdir(tag);
    let path = dir.join(format!("{tag}.gcsr"));
    preprocess::edges_to_csr(el.clone(), &path, &preprocess::PreprocessOptions::default()).unwrap();
    path
}

// ---------- sequential references ----------

fn ref_bfs(el: &EdgeList, root: u32) -> Vec<u32> {
    let csr = gpsa_graph::Csr::from_edge_list(el);
    let mut level = vec![UNREACHED; el.n_vertices];
    let mut frontier = vec![root];
    level[root as usize] = 0;
    let mut l = 0;
    while !frontier.is_empty() {
        l += 1;
        let mut next = Vec::new();
        for &v in &frontier {
            for &d in csr.neighbors(v) {
                if level[d as usize] == UNREACHED {
                    level[d as usize] = l;
                    next.push(d);
                }
            }
        }
        frontier = next;
    }
    level
}

fn ref_cc(el: &EdgeList) -> Vec<u32> {
    // Min-label propagation along *directed* edges to a fixpoint — the
    // exact semantics of the CC vertex program.
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
            break;
        }
    }
    label
}

fn ref_pagerank(el: &EdgeList, damping: f32, supersteps: usize) -> Vec<f32> {
    let csr = gpsa_graph::Csr::from_edge_list(el);
    let n = el.n_vertices;
    let mut rank = vec![1.0f32 / n as f32; n];
    let base = (1.0 - damping) / n as f32;
    for _ in 0..supersteps {
        let mut next = vec![base; n];
        for v in 0..n as u32 {
            let deg = csr.out_degree(v);
            if deg == 0 {
                continue;
            }
            let share = rank[v as usize] / deg as f32;
            for &d in csr.neighbors(v) {
                next[d as usize] += damping * share;
            }
        }
        rank = next;
    }
    rank
}

fn ref_sssp(el: &EdgeList, root: u32) -> Vec<u32> {
    // Bellman-Ford with the program's synthetic weights.
    let mut dist = vec![UNREACHED; el.n_vertices];
    dist[root as usize] = 0;
    loop {
        let mut changed = false;
        for e in &el.edges {
            let du = dist[e.src as usize];
            if du == UNREACHED {
                continue;
            }
            let cand = du.saturating_add(Sssp::weight(e.src, e.dst)).min(UNREACHED);
            if cand < dist[e.dst as usize] {
                dist[e.dst as usize] = cand;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    dist
}

// ---------- correctness ----------

#[test]
fn bfs_matches_reference_on_rmat() {
    let el = generate::rmat(500, 3000, generate::RmatParams::default(), 21);
    let path = csr_for("bfs-rmat", &el);
    let engine = Engine::new(EngineConfig::small(workdir("bfs-rmat")));
    let report = engine.run(&path, Bfs { root: 0 }).unwrap();
    assert_eq!(report.outcome, RunOutcome::Completed);
    assert_eq!(report.values, ref_bfs(&el, 0));
}

#[test]
fn bfs_on_chain_takes_n_supersteps() {
    let el = generate::chain(30);
    let path = csr_for("bfs-chain", &el);
    let engine = Engine::new(EngineConfig::small(workdir("bfs-chain")));
    let report = engine.run(&path, Bfs { root: 0 }).unwrap();
    let expect: Vec<u32> = (0..30).collect();
    assert_eq!(report.values, expect);
    // Depth-29 chain needs 29 propagating supersteps plus one quiescent one.
    assert!(report.supersteps >= 29, "got {}", report.supersteps);
    assert_eq!(*report.activated.last().unwrap(), 0);
}

#[test]
fn bfs_leaves_unreachable_at_unreached() {
    let el = generate::two_components(10, 10);
    let path = csr_for("bfs-2c", &el);
    let engine = Engine::new(EngineConfig::small(workdir("bfs-2c")));
    let report = engine.run(&path, Bfs { root: 0 }).unwrap();
    assert!(report.values[10..].iter().all(|&v| v == UNREACHED));
    assert_eq!(report.values[..10], *ref_bfs(&el, 0)[..10].to_vec());
}

#[test]
fn cc_matches_reference_on_random_graphs() {
    for seed in [1, 2, 3] {
        let el = generate::symmetrize(&generate::erdos_renyi(200, 600, seed));
        let path = csr_for(&format!("cc-{seed}"), &el);
        let engine = Engine::new(EngineConfig::small(workdir(&format!("cc-{seed}"))));
        let report = engine.run(&path, ConnectedComponents).unwrap();
        assert_eq!(report.values, ref_cc(&el), "seed {seed}");
    }
}

#[test]
fn pagerank_matches_reference_power_iteration() {
    let el = generate::rmat(300, 2400, generate::RmatParams::default(), 33);
    let path = csr_for("pr", &el);
    let steps = 10;
    let config =
        EngineConfig::small(workdir("pr")).with_termination(Termination::Supersteps(steps as u64));
    let engine = Engine::new(config);
    let report = engine.run(&path, PageRank::default()).unwrap();
    let expect = ref_pagerank(&el, 0.85, steps);
    assert_eq!(report.supersteps, steps as u64);
    let mut max_err = 0.0f32;
    for (got, want) in report.values.iter().zip(&expect) {
        max_err = max_err.max((got - want).abs());
    }
    assert!(
        max_err < 1e-5,
        "PageRank diverges from power iteration: max err {max_err}"
    );
    // Mass sanity: total rank stays near 1 (sinks hold their mass).
    let total: f32 = report.values.iter().sum();
    assert!(total > 0.5 && total < 1.5, "total rank {total}");
}

#[test]
fn pagerank_delta_termination_converges() {
    let el = generate::symmetrize(&generate::erdos_renyi(100, 400, 9));
    let path = csr_for("pr-delta", &el);
    let config = EngineConfig::small(workdir("pr-delta")).with_termination(Termination::Delta {
        epsilon: 1e-7,
        max_supersteps: 200,
    });
    let engine = Engine::new(config);
    let report = engine.run(&path, PageRank::default()).unwrap();
    assert!(report.supersteps < 200, "should converge before the cap");
    assert!(*report.deltas.last().unwrap() <= 1e-7);
    // Deltas shrink monotonically-ish: last is far below first.
    assert!(report.deltas[0] > *report.deltas.last().unwrap() * 10.0);
}

#[test]
fn sssp_matches_bellman_ford() {
    let el = generate::rmat(200, 1500, generate::RmatParams::default(), 44);
    let path = csr_for("sssp", &el);
    let engine = Engine::new(EngineConfig::small(workdir("sssp")));
    let report = engine.run(&path, Sssp { root: 0 }).unwrap();
    assert_eq!(report.values, ref_sssp(&el, 0));
}

#[test]
fn indegree_counts_in_one_superstep() {
    let el = generate::rmat(100, 700, generate::RmatParams::default(), 50);
    let path = csr_for("indeg", &el);
    let config = EngineConfig::small(workdir("indeg")).with_termination(Termination::Supersteps(1));
    let engine = Engine::new(config);
    let report = engine.run(&path, InDegree).unwrap();
    let mut expect = vec![0u32; el.n_vertices];
    for e in &el.edges {
        expect[e.dst as usize] += 1;
    }
    assert_eq!(report.values, expect);
}

// ---------- configuration space ----------

#[test]
fn all_strategy_combinations_agree() {
    use gpsa::IntervalStrategy;
    let el = generate::symmetrize(&generate::rmat(
        300,
        1500,
        generate::RmatParams::default(),
        66,
    ));
    let path = csr_for("strategies", &el);
    let expect = ref_cc(&el);
    for intervals in [IntervalStrategy::EdgeBalanced, IntervalStrategy::Strided] {
        for (d, c) in [(1, 1), (2, 3), (4, 2)] {
            let mut config = EngineConfig::small(workdir("strategies")).with_actors(d, c);
            config.intervals = intervals;
            let engine = Engine::new(config);
            let report = engine.run(&path, ConnectedComponents).unwrap();
            assert_eq!(report.values, expect, "intervals {intervals:?} d={d} c={c}");
        }
    }
}

#[test]
fn more_actors_than_vertices_is_fine() {
    let el = generate::cycle(5);
    let path = csr_for("tiny", &el);
    let config = EngineConfig::small(workdir("tiny")).with_actors(8, 8);
    let engine = Engine::new(config);
    let report = engine.run(&path, ConnectedComponents).unwrap();
    assert_eq!(report.values, vec![0; 5]);
}

#[test]
fn empty_and_edgeless_graphs() {
    let el = EdgeList::with_vertices(vec![], 7);
    let path = csr_for("edgeless", &el);
    let engine = Engine::new(EngineConfig::small(workdir("edgeless")));
    let report = engine.run(&path, ConnectedComponents).unwrap();
    assert_eq!(report.values, (0..7).collect::<Vec<u32>>());
    assert_eq!(report.messages, 0);
}

#[test]
fn supersteps_zero_is_a_config_error() {
    let el = generate::cycle(3);
    let path = csr_for("zero", &el);
    let config = EngineConfig::small(workdir("zero")).with_termination(Termination::Supersteps(0));
    let engine = Engine::new(config);
    assert!(engine.run(&path, ConnectedComponents).is_err());
}

#[test]
fn report_statistics_are_consistent() {
    let el = generate::symmetrize(&generate::erdos_renyi(100, 500, 13));
    let path = csr_for("stats", &el);
    let engine = Engine::new(EngineConfig::small(workdir("stats")));
    let report = engine.run(&path, ConnectedComponents).unwrap();
    assert_eq!(report.step_times.len() as u64, report.supersteps);
    assert_eq!(report.activated.len() as u64, report.supersteps);
    // Superstep 0 dispatches all 100 labels; messages flow until quiescence.
    assert!(report.messages >= el.len() as u64);
    assert_eq!(*report.activated.last().unwrap(), 0);
    assert!(report.superstep_total() <= report.elapsed);
    assert!(report.mean_superstep(5) > std::time::Duration::ZERO);
}

// ---------- resume ----------

#[test]
fn resume_without_crash_just_reruns_conservatively() {
    // Completing a run, then resuming it, must not corrupt the fixpoint.
    let el = generate::symmetrize(&generate::erdos_renyi(80, 300, 31));
    let dir = workdir("resume-idem");
    let path = csr_for("resume-idem", &el);
    let first = Engine::new(EngineConfig::small(&dir))
        .run(&path, ConnectedComponents)
        .unwrap();
    let mut config = EngineConfig::small(&dir);
    config.resume = true;
    let second = Engine::new(config).run(&path, ConnectedComponents).unwrap();
    assert_eq!(first.values, second.values);
}

#[test]
fn edge_balanced_intervals_balance_dispatcher_load() {
    // Paper §V-A: assigning vertices "by the average edges" makes every
    // dispatcher send about the same number of messages. Verify via the
    // per-dispatcher counters on a skewed graph where equal id ranges
    // would be badly lopsided.
    let el = generate::rmat(2000, 20_000, generate::RmatParams::default(), 3);
    let path = csr_for("balance", &el);
    let mut config = EngineConfig::small(workdir("balance")).with_actors(4, 2);
    config.termination = Termination::Supersteps(3);
    let balanced = Engine::new(config)
        .run(&path, gpsa::programs::PageRank::default())
        .unwrap();
    assert_eq!(balanced.dispatcher_messages.len(), 4);
    let total: u64 = balanced.dispatcher_messages.iter().sum();
    assert_eq!(
        total, balanced.messages,
        "per-dispatcher counts sum to total"
    );
    let max = *balanced.dispatcher_messages.iter().max().unwrap() as f64;
    let min = *balanced.dispatcher_messages.iter().min().unwrap() as f64;
    assert!(
        max / min.max(1.0) < 2.0,
        "edge-balanced loads should be even: {:?}",
        balanced.dispatcher_messages
    );

    // PageRank sends one message per out-edge per superstep, so four
    // equal id ranges would each send their out-edge count.
    let per = el.n_vertices.div_ceil(4);
    let mut equal_ranges = [0u64; 4];
    for e in &el.edges {
        equal_ranges[e.src as usize / per] += 1;
    }
    let u_max = *equal_ranges.iter().max().unwrap() as f64;
    let u_min = *equal_ranges.iter().min().unwrap() as f64;
    assert!(
        u_max / u_min.max(1.0) > max / min.max(1.0),
        "equal id ranges on a skewed R-MAT should be more lopsided: \
         equal ranges {equal_ranges:?} vs balanced {:?}",
        balanced.dispatcher_messages
    );
}

#[test]
fn chunked_dispatch_matches_monolithic() {
    // The chunk protocol must be invisible to results: a tiny chunk size
    // (many self-messages per superstep) and monolithic dispatch reach
    // the same fixpoint. CC's min-fold is order-independent, so equality
    // is exact even with several dispatchers interleaving.
    let el = generate::symmetrize(&generate::rmat(
        400,
        2400,
        generate::RmatParams::default(),
        91,
    ));
    let path = csr_for("chunked", &el);
    let run = |chunk: usize| {
        let config = EngineConfig::small(workdir(&format!("chunked-{chunk}")))
            .with_actors(3, 2)
            .with_dispatch_chunk(chunk);
        Engine::new(config).run(&path, ConnectedComponents).unwrap()
    };
    let mono = run(EngineConfig::MONOLITHIC_DISPATCH);
    for chunk in [7, 64, 1024] {
        let chunked = run(chunk);
        assert_eq!(chunked.values, mono.values, "chunk={chunk}");
        assert_eq!(chunked.supersteps, mono.supersteps, "chunk={chunk}");
        assert_eq!(chunked.messages, mono.messages, "chunk={chunk}");
    }
}

#[test]
fn slab_pool_recycles_buffers() {
    // After the first few flushes seed the pool, later acquisitions are
    // recycled: hits dominate over a multi-superstep dense run.
    let el = generate::rmat(800, 8000, generate::RmatParams::default(), 17);
    let path = csr_for("slab", &el);
    let mut config =
        EngineConfig::small(workdir("slab")).with_termination(Termination::Supersteps(6));
    config.msg_batch = 256; // many batches per superstep
    let report = Engine::new(config).run(&path, PageRank::default()).unwrap();
    assert!(report.pool_miss_bytes > 0, "first flushes must allocate");
    assert!(report.pool_hit_bytes > 0, "steady state must recycle");
    assert!(
        report.pool_hit_rate() > 0.5,
        "pool should serve most acquisitions after superstep 1: \
         {} hit bytes / {} miss bytes",
        report.pool_hit_bytes,
        report.pool_miss_bytes
    );
    // Overlap statistics: every dense superstep sends messages, so each
    // records a time-to-first-batch.
    assert_eq!(report.first_batch.len() as u64, report.supersteps);
    assert!(report.first_batch.iter().all(|t| t.is_some()));
    assert!(report.mean_first_batch().unwrap() <= report.superstep_total());
}

#[test]
fn cc_quiesces_promptly_on_bidirectional_graphs() {
    // Regression: flush-time `changed` once compared against the raw
    // dispatch-column payload; a stale copy there let adjacent vertices
    // reactivate each other forever, so CC only stopped at max_supersteps.
    let el = generate::symmetrize(&generate::erdos_renyi(500, 2500, 77));
    let path = csr_for("quiesce", &el);
    let engine = Engine::new(EngineConfig::small(workdir("quiesce")));
    let report = engine.run(&path, ConnectedComponents).unwrap();
    assert_eq!(report.values, ref_cc(&el));
    assert!(
        report.supersteps < 60,
        "CC must quiesce in O(diameter) supersteps, took {}",
        report.supersteps
    );
    assert_eq!(*report.activated.last().unwrap(), 0);
}

#[test]
fn run_edge_list_convenience() {
    let engine = Engine::new(EngineConfig::small(workdir("conv")));
    let report = engine
        .run_edge_list(generate::cycle(12), "cyc", ConnectedComponents)
        .unwrap();
    assert_eq!(report.values, vec![0; 12]);
}
