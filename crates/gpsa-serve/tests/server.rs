//! End-to-end acceptance: boot a server, hammer it with overlapping jobs
//! over the wire protocol, and hold every result to byte-for-byte
//! identity with a direct in-process engine run.
//!
//! Bit-identity for PageRank (f32 sums) requires a fixed fold order, so
//! both the server's engine template and the direct baseline run with
//! 1 dispatcher x 1 computer; BFS / CC / SSSP are min-folds and are exact
//! under any schedule.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use gpsa::{Engine, EngineConfig};
use gpsa_graph::{generate, preprocess, DiskCsr, GraphSnapshot};
use gpsa_serve::job::run_job;
use gpsa_serve::{start, AlgorithmSpec, Client, Priority, ServeConfig, SubmitRequest};

fn test_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("gpsa-serve-e2e-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn build_csr(dir: &Path, name: &str, el: gpsa_graph::EdgeList) -> PathBuf {
    let path = dir.join(format!("{name}.gcsr"));
    preprocess::edges_to_csr(el, &path, &preprocess::PreprocessOptions::default()).unwrap();
    path
}

/// The deterministic engine template shared by the server and the direct
/// baseline: identical actor counts, batching, and routing.
fn engine_template(work: &Path) -> EngineConfig {
    EngineConfig::small(work).with_actors(1, 1)
}

/// Run `alg` directly in-process against `csr`, same template as the
/// server, and return the value bits.
fn direct_bits(alg: &AlgorithmSpec, csr: &Path, work: &Path) -> Vec<u32> {
    std::fs::create_dir_all(work).unwrap();
    let mut cfg = engine_template(work);
    cfg.termination = alg.termination();
    let engine = Engine::new(cfg);
    let graph = Arc::new(GraphSnapshot::from_csr(Arc::new(
        DiskCsr::open(csr).unwrap(),
    )));
    let out = run_job(&engine, &graph, &work.join("values.gval"), alg).unwrap();
    out.values_u32.as_ref().clone()
}

#[test]
fn overlapping_jobs_match_direct_runs_bit_for_bit() {
    let dir = test_dir("overlap");
    let g1 = build_csr(&dir, "g1", generate::erdos_renyi(600, 3000, 7));
    let g2 = build_csr(&dir, "g2", generate::cycle(400));

    let serve_work = dir.join("serve");
    let config = ServeConfig::small(&serve_work)
        .with_max_concurrent_jobs(3)
        .with_queue_capacity(16)
        .with_engine(engine_template(&serve_work));
    let handle = start(config).unwrap();
    let addr = handle.addr();

    let mut admin = Client::connect(addr).unwrap();
    admin.ping().unwrap();
    let info = admin.register_graph("g1", g1.to_str().unwrap()).unwrap();
    assert_eq!(info.epoch, 1);
    assert_eq!(info.n_vertices, 600);
    admin.register_graph("g2", g2.to_str().unwrap()).unwrap();
    assert_eq!(admin.list_graphs().unwrap().len(), 2);

    // Ten overlapping jobs: mixed algorithms, both graphs, a deliberate
    // duplicate (jobs 0 and 7), and mixed priorities.
    let jobs: Vec<(&str, AlgorithmSpec)> = vec![
        (
            "g1",
            AlgorithmSpec::PageRank {
                damping: 0.85,
                supersteps: 5,
            },
        ),
        ("g1", AlgorithmSpec::Bfs { root: 0 }),
        ("g1", AlgorithmSpec::Cc),
        ("g1", AlgorithmSpec::Sssp { root: 0 }),
        (
            "g2",
            AlgorithmSpec::PageRank {
                damping: 0.9,
                supersteps: 4,
            },
        ),
        ("g2", AlgorithmSpec::Bfs { root: 3 }),
        ("g2", AlgorithmSpec::Cc),
        (
            "g1",
            AlgorithmSpec::PageRank {
                damping: 0.85,
                supersteps: 5,
            },
        ),
        ("g2", AlgorithmSpec::Sssp { root: 1 }),
        ("g1", AlgorithmSpec::Bfs { root: 5 }),
    ];
    assert!(jobs.len() >= 8, "acceptance requires >= 8 overlapping jobs");

    // One thread + one connection per job, all in flight at once.
    let handles: Vec<_> = jobs
        .iter()
        .enumerate()
        .map(|(i, (graph_id, alg))| {
            let (graph_id, alg, addr) = (graph_id.to_string(), *alg, addr);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut req = SubmitRequest::new(graph_id, alg);
                if i % 3 == 0 {
                    req = req.with_priority(Priority::High);
                }
                client.submit(&req).unwrap()
            })
        })
        .collect();
    let responses: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    // Every response must match its direct baseline bit-for-bit.
    for (i, ((graph_id, alg), resp)) in jobs.iter().zip(&responses).enumerate() {
        let csr = if *graph_id == "g1" { &g1 } else { &g2 };
        let baseline = direct_bits(alg, csr, &dir.join(format!("direct-{i}")));
        assert_eq!(
            *resp.outcome.values_u32,
            baseline,
            "job {i} ({}/{graph_id}) diverged from the direct engine run",
            alg.name()
        );
        assert!(resp.outcome.supersteps > 0 || resp.cache_hit);
        // Counters ride on every response.
        assert!(resp.stats.max_concurrent_jobs == 3);
    }

    // All ten either ran or were answered from cache (the duplicate pair
    // may race; both orderings are legal). Nothing was rejected.
    let stats = admin.stats().unwrap();
    assert_eq!(stats.jobs_rejected, 0);
    assert_eq!(stats.jobs_failed, 0);
    assert_eq!(stats.queue_depth, 0);
    assert_eq!(stats.running, 0);
    assert!(stats.jobs_completed >= 9, "stats: {stats:?}");
    assert_eq!(
        stats.jobs_completed + stats.cache_hits,
        jobs.len() as u64,
        "every job completed or hit the cache: {stats:?}"
    );
}

#[test]
fn cache_hit_answers_without_running_a_superstep() {
    let dir = test_dir("cache");
    let g = build_csr(&dir, "g", generate::grid(12, 12));
    let serve_work = dir.join("serve");
    let config = ServeConfig::small(&serve_work).with_engine(engine_template(&serve_work));
    let handle = start(config).unwrap();

    let mut client = Client::connect(handle.addr()).unwrap();
    client.register_graph("g", g.to_str().unwrap()).unwrap();

    let req = SubmitRequest::new("g", AlgorithmSpec::Bfs { root: 0 });
    let first = client.submit(&req).unwrap();
    assert!(!first.cache_hit);
    assert!(first.outcome.supersteps > 0);
    assert_eq!(first.stats.jobs_completed, 1);

    let before = client.stats().unwrap();
    let second = client.submit(&req).unwrap();
    assert!(
        second.cache_hit,
        "identical resubmission must hit the cache"
    );
    assert_eq!(second.outcome.values_u32, first.outcome.values_u32);
    // No superstep ran: the completion counter did not move, and the
    // cached answer carries zero run time.
    assert_eq!(second.stats.jobs_completed, before.jobs_completed);
    assert_eq!(second.run_time, Duration::ZERO);
    assert_eq!(second.queue_wait, Duration::ZERO);
    assert_eq!(second.stats.cache_hits, before.cache_hits + 1);

    // Same algorithm, different params: a miss, runs for real.
    let other = client
        .submit(&SubmitRequest::new("g", AlgorithmSpec::Bfs { root: 7 }))
        .unwrap();
    assert!(!other.cache_hit);
    assert_ne!(other.outcome.values_u32, first.outcome.values_u32);
}

#[test]
fn unknown_graph_and_bad_algorithm_are_typed_errors() {
    let dir = test_dir("errors");
    let serve_work = dir.join("serve");
    let handle = start(ServeConfig::small(&serve_work)).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    let err = client
        .submit(&SubmitRequest::new("nope", AlgorithmSpec::Cc))
        .unwrap_err();
    match err {
        gpsa_serve::ClientError::Server(gpsa_serve::ServeError::UnknownGraph(_)) => {}
        other => panic!("expected unknown_graph, got {other:?}"),
    }

    let err = client
        .register_graph("g", "/definitely/not/here.gcsr")
        .unwrap_err();
    match err {
        gpsa_serve::ClientError::Server(gpsa_serve::ServeError::BadRequest(_)) => {}
        other => panic!("expected bad_request, got {other:?}"),
    }
    // The connection survives typed errors.
    client.ping().unwrap();
}

/// The reply leaves before the cache entry is written to disk, so a spill
/// that fails — or never happens, the crash-between-the-two case — costs
/// nothing but a re-run after restart: the client already holds the right
/// answer, repeats are served from memory while the server lives, and a
/// restarted server answers the same idempotency key bit-identically.
///
/// The spill is made to fail by putting a regular file where the spill
/// directory belongs, which no privilege overrides (a read-only directory
/// does not stop root, and the tests may run as root).
#[test]
fn a_failed_spill_costs_only_a_rerun_after_restart() {
    let dir = test_dir("spill");
    let csr = build_csr(&dir, "g", generate::erdos_renyi(500, 2500, 5));
    let alg = AlgorithmSpec::PageRank {
        damping: 0.85,
        supersteps: 6,
    };
    let want = direct_bits(&alg, &csr, &dir.join("direct"));
    let work = dir.join("serve");
    let serve_config = || {
        ServeConfig::small(&work)
            .with_max_concurrent_jobs(1)
            .with_engine(engine_template(&work))
    };
    let keyed = SubmitRequest::new("g", alg).with_idempotency_key("spill-k1");

    {
        let spill_dir = serve_config().cache_spill_dir();
        let mut handle = start(serve_config()).unwrap();
        let mut client = Client::connect(handle.addr()).unwrap();
        client.register_graph("g", csr.to_str().unwrap()).unwrap();
        std::fs::remove_dir_all(&spill_dir).unwrap();
        std::fs::write(&spill_dir, b"in the way").unwrap();

        let first = client.submit(&keyed).unwrap();
        assert!(!first.cache_hit);
        assert_eq!(*first.outcome.values_u32, want);
        assert_eq!(
            first.stats.cache_spill_failures, 0,
            "the reply is composed before the spill is attempted"
        );
        // The scheduler handles one message at a time, so by the time it
        // answers `stats` it has finished the job's `Done`, spill included.
        let stats = client.stats().unwrap();
        assert_eq!(stats.cache_spill_failures, 1);
        assert_eq!(stats.jobs_failed, 0);
        assert_eq!(stats.cache_len, 1, "the entry lives in memory");

        let again = client
            .submit(&SubmitRequest::new("g", alg).with_stream())
            .unwrap();
        assert!(again.cache_hit, "an unspilled entry still serves");
        assert_eq!(*again.outcome.values_u32, want);
        handle.shutdown();
    }

    // Second life: the journal says the key committed, no spill file backs
    // it, so the key is re-run — to the same bits.
    let mut handle = start(serve_config()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(
        (stats.graphs_resident, stats.cache_len, stats.jobs_replayed),
        (1, 0, 0)
    );
    let replay = client.submit(&keyed).unwrap();
    assert!(!replay.cache_hit, "nothing survived to hit");
    assert_eq!(*replay.outcome.values_u32, want);
    handle.shutdown();
}
