//! Hostile-network acceptance: slow clients are shed without taking the
//! server down, the client retry loop rides out transient failures, and
//! (with `--features chaos`) seeded serving-layer fault schedules —
//! connections dropped mid-frame, stalled writers, torn journal tails —
//! always leave the server serving and the results bit-identical.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use gpsa::EngineConfig;
use gpsa_serve::json::Json;
use gpsa_serve::wire::{read_frame, write_frame};
use gpsa_serve::{start, Client, RetryPolicy, ServeConfig};

fn test_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("gpsa-serve-net-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

#[cfg(feature = "chaos")]
fn build_csr(dir: &Path, el: gpsa_graph::EdgeList) -> PathBuf {
    use gpsa_graph::preprocess;
    let path = dir.join("g.gcsr");
    preprocess::edges_to_csr(el, &path, &preprocess::PreprocessOptions::default()).unwrap();
    path
}

fn engine_template(work: &Path) -> EngineConfig {
    EngineConfig::small(work).with_actors(1, 1)
}

/// Fast retries for tests: generous attempt budget, millisecond backoff.
fn fast_retries() -> RetryPolicy {
    RetryPolicy {
        max_retries: 8,
        base_delay: Duration::from_millis(5),
        max_delay: Duration::from_millis(100),
        jitter: true,
    }
}

/// A client stalls after sending 2 of the 4 length-prefix bytes. The
/// server must shed it at the frame deadline — and keep serving everyone
/// else the whole time.
#[test]
fn stalled_mid_header_client_is_shed_while_others_are_served() {
    let dir = test_dir("shed");
    let work = dir.join("serve");
    let config = ServeConfig::small(&work)
        .with_engine(engine_template(&work))
        .with_frame_read_timeout(Duration::from_secs(1));
    let handle = start(config).unwrap();
    let addr = handle.addr();

    // The hostile half: a frame that starts and never finishes.
    let mut stalled = TcpStream::connect(addr).unwrap();
    stalled.write_all(&[0u8, 0u8]).unwrap();
    stalled.flush().unwrap();

    // The healthy half is served while the stalled connection is still
    // open: the stats reply is produced before the shed, which a server
    // blocked on the stalled header could not do.
    let mut client = Client::connect(addr).unwrap();
    client.ping().unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(
        stats.conns_shed, 0,
        "healthy client answered only after the shed: {stats:?}"
    );

    // The server shed the stalled connection and counted it.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = client.stats().unwrap();
        if stats.conns_shed >= 1 {
            break;
        }
        assert!(Instant::now() < deadline, "shed never counted: {stats:?}");
        std::thread::sleep(Duration::from_millis(20));
    }

    // The stalled socket got a best-effort slow_client error frame and
    // then the close.
    stalled
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut buf = Vec::new();
    stalled.read_to_end(&mut buf).unwrap();
    let text = String::from_utf8_lossy(&buf);
    assert!(
        text.contains("slow_client"),
        "expected the shed error frame, got {text:?}"
    );
}

/// A fake server that kills its first `drops` connections without
/// answering, then serves ping frames forever. Returns the address and a
/// handle whose join yields how many connections it saw.
fn flaky_listener(drops: usize) -> (std::net::SocketAddr, std::thread::JoinHandle<usize>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = std::thread::spawn(move || {
        let mut seen = 0usize;
        loop {
            let (mut stream, _) = listener.accept().unwrap();
            seen += 1;
            if seen <= drops {
                drop(stream); // reset/EOF for the client mid-conversation
                continue;
            }
            while let Ok(Some(_req)) = read_frame(&mut stream) {
                let resp = Json::obj()
                    .set("ok", Json::Bool(true))
                    .set("pong", Json::Bool(true));
                if write_frame(&mut stream, &resp).is_err() {
                    break;
                }
            }
            return seen;
        }
    });
    (addr, handle)
}

#[test]
fn client_retries_reconnect_through_dropped_connections() {
    let (addr, server) = flaky_listener(2);
    let mut client = Client::connect_with(addr, fast_retries()).unwrap();
    // Connection 1 dies answering this; retries reconnect twice more.
    client
        .ping()
        .expect("retries must ride out dropped connections");
    drop(client);
    assert_eq!(server.join().unwrap(), 3);
}

#[test]
fn retries_disabled_fail_fast() {
    let (addr, server) = flaky_listener(1);
    // Default connect: no retries, the first transport error surfaces.
    let mut client = Client::connect(addr).unwrap();
    client.ping().expect_err("no-retry client must fail fast");
    // A second, fresh client reaches the now-healthy listener and lets
    // the thread exit.
    let mut ok = Client::connect(addr).unwrap();
    ok.ping().unwrap();
    drop(ok);
    assert_eq!(server.join().unwrap(), 2);
}

/// A server that answers `server_busy` (retriable) N times before
/// succeeding — the admission-control shape the backoff exists for.
#[test]
fn client_backs_off_through_server_busy_then_succeeds() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let mut answered = 0usize;
        while let Ok(Some(_req)) = read_frame(&mut stream) {
            answered += 1;
            let resp = if answered <= 3 {
                Json::obj()
                    .set("ok", Json::Bool(false))
                    .set("code", Json::str("server_busy"))
                    .set("message", Json::str("queue full"))
                    .set("retriable", Json::Bool(true))
            } else {
                Json::obj()
                    .set("ok", Json::Bool(true))
                    .set("pong", Json::Bool(true))
            };
            if write_frame(&mut stream, &resp).is_err() {
                break;
            }
        }
        answered
    });
    let mut client = Client::connect_with(addr, fast_retries()).unwrap();
    let t = Instant::now();
    client.ping().expect("busy answers must be retried");
    // Three rejections at 5ms/10ms/20ms base backoff: the retry loop
    // actually waited rather than hammering.
    assert!(t.elapsed() >= Duration::from_millis(15));
    drop(client);
    assert_eq!(server.join().unwrap(), 4);
}

#[test]
fn client_with_exhausted_retries_surfaces_the_busy_error() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let _server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        while let Ok(Some(_req)) = read_frame(&mut stream) {
            let resp = Json::obj()
                .set("ok", Json::Bool(false))
                .set("code", Json::str("server_busy"))
                .set("message", Json::str("always full"))
                .set("retriable", Json::Bool(true));
            if write_frame(&mut stream, &resp).is_err() {
                break;
            }
        }
    });
    let policy = RetryPolicy {
        max_retries: 2,
        base_delay: Duration::from_millis(1),
        max_delay: Duration::from_millis(5),
        jitter: false,
    };
    let mut client = Client::connect_with(addr, policy).unwrap();
    match client.ping() {
        Err(gpsa_serve::ClientError::Server(gpsa_serve::ServeError::ServerBusy(_))) => {}
        other => panic!("expected server_busy after exhausted retries, got {other:?}"),
    }
}

/// Seeded serving-layer chaos: for each seed, script a handful of
/// network/journal faults, drive a retrying client through registration
/// and idempotent submissions, and require (a) every answer bit-identical
/// to the uninterrupted baseline, (b) the plan actually fired, and
/// (c) the server still serving afterwards.
#[cfg(feature = "chaos")]
#[test]
fn scripted_network_faults_leave_the_server_serving() {
    use std::sync::Arc;

    use gpsa::Engine;
    use gpsa_graph::{generate, DiskCsr, GraphSnapshot};
    use gpsa_serve::job::run_job;
    use gpsa_serve::{AlgorithmSpec, ServeFaultPlan, SubmitRequest};

    let dir = test_dir("chaos-net");
    let csr = build_csr(&dir, generate::cycle(512));
    let jobs: Vec<AlgorithmSpec> = vec![
        AlgorithmSpec::Bfs { root: 0 },
        AlgorithmSpec::Cc,
        AlgorithmSpec::Sssp { root: 1 },
        AlgorithmSpec::Bfs { root: 0 }, // duplicate: exercises cached answers
    ];

    // Uninterrupted baselines, once.
    let baselines: Vec<Vec<u32>> = jobs
        .iter()
        .enumerate()
        .map(|(i, alg)| {
            let work = dir.join(format!("direct-{i}"));
            std::fs::create_dir_all(&work).unwrap();
            let mut cfg = engine_template(&work);
            cfg.termination = alg.termination();
            let engine = Engine::new(cfg);
            let graph = Arc::new(GraphSnapshot::from_csr(Arc::new(
                DiskCsr::open(&csr).unwrap(),
            )));
            let out = run_job(&engine, &graph, &work.join("values.gval"), alg).unwrap();
            out.values_u32.as_ref().clone()
        })
        .collect();

    for seed in 1..=4u64 {
        let plan = Arc::new(ServeFaultPlan::scripted(seed, 3));
        let work = dir.join(format!("serve-{seed}"));
        let config = ServeConfig::small(&work)
            .with_engine(engine_template(&work))
            .with_frame_read_timeout(Duration::from_millis(500))
            .with_fault_plan(plan.clone());
        let handle = start(config).unwrap();
        let addr = handle.addr();

        let mut client = Client::connect_with(addr, fast_retries()).unwrap();
        client.register_graph("g", csr.to_str().unwrap()).unwrap();
        for (i, alg) in jobs.iter().enumerate() {
            let req =
                SubmitRequest::new("g", *alg).with_idempotency_key(format!("seed{seed}-job{i}"));
            let resp = client
                .submit(&req)
                .unwrap_or_else(|e| panic!("[seed {seed}] job {i} failed through retries: {e:?}"));
            assert_eq!(
                *resp.outcome.values_u32, baselines[i],
                "[seed {seed}] job {i} diverged under chaos"
            );
        }
        // Flush any response-numbered fault points that haven't come up
        // yet, then require the plan to have done real damage.
        for _ in 0..8 {
            let _ = client.ping();
        }
        assert!(
            plan.fired() >= 1,
            "[seed {seed}] plan never fired: {:?}",
            plan.specs().collect::<Vec<_>>()
        );

        // The server is still healthy: a fresh, no-retry client gets
        // clean answers.
        let mut probe = Client::connect(addr).unwrap();
        probe.ping().unwrap();
        let stats = probe.stats().unwrap();
        assert_eq!(stats.graphs_resident, 1, "[seed {seed}] {stats:?}");
    }
}
