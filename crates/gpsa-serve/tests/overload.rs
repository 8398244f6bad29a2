//! Multi-tenant overload behavior: per-tenant quotas shed only the hog,
//! deficit-weighted round-robin keeps a light tenant responsive under a
//! 10x flood, streamed results are chunked and bit-identical, vanished
//! clients have their jobs reaped, expired idempotency keys are reaped
//! at boot instead of replayed, and churny overlays auto-compact.
//!
//! With `--features chaos` a soak test drives scripted overload waves
//! (burst storms, slow consumers, tenant floods) plus a mid-stream
//! disconnect against one server and proves it stays live, fair, and
//! bit-identical throughout.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gpsa::{Engine, EngineConfig};
use gpsa_graph::{generate, preprocess, DiskCsr, GraphSnapshot};
use gpsa_serve::job::run_job;
#[cfg(feature = "chaos")]
use gpsa_serve::RetryPolicy;
use gpsa_serve::{
    start, AlgorithmSpec, Client, ClientError, JobJournal, JournalRecord, Priority, ServeConfig,
    ServeError, ServerStats, SubmitRequest,
};

fn test_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("gpsa-serve-ovl-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn build_csr(dir: &Path, el: gpsa_graph::EdgeList) -> PathBuf {
    let path = dir.join("g.gcsr");
    preprocess::edges_to_csr(el, &path, &preprocess::PreprocessOptions::default()).unwrap();
    path
}

/// Deterministic 1x1 engine template: pins fold order so servers and the
/// direct baseline agree bit-for-bit.
fn engine_template(work: &Path) -> EngineConfig {
    EngineConfig::small(work).with_actors(1, 1)
}

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

/// Long enough that admission assertions cannot race its completion.
fn slow_job() -> AlgorithmSpec {
    AlgorithmSpec::PageRank {
        damping: 0.85,
        supersteps: 2000,
    }
}

fn wait_for(client: &mut Client, pred: impl Fn(&ServerStats) -> bool, what: &str) -> ServerStats {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let stats = client.stats().unwrap();
        if pred(&stats) {
            return stats;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for {what}: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn expect_quota(result: Result<gpsa_serve::JobResponse, ClientError>, who: &str) {
    match result {
        Err(ClientError::Server(ServeError::QuotaExceeded(_))) => {}
        other => panic!("expected quota_exceeded for {who}, got {other:?}"),
    }
}

/// A tenant at its queued cap is refused with `quota_exceeded` while a
/// different tenant keeps being admitted into the same (non-full) global
/// queue — the global `server_busy` path is untouched.
#[test]
fn queued_quota_sheds_only_the_hog() {
    let dir = test_dir("quota");
    let csr = build_csr(&dir, generate::cycle(4096));
    let work = dir.join("serve");
    let config = ServeConfig::small(&work)
        .with_max_concurrent_jobs(1)
        .with_queue_capacity(16)
        .with_tenant_max_queued(2)
        .with_engine(engine_template(&work));
    let handle = start(config).unwrap();
    let addr = handle.addr();
    let mut admin = Client::connect(addr).unwrap();
    admin.register_graph("g", csr.to_str().unwrap()).unwrap();

    // Occupy the single runner; the running job does not count as queued.
    let running = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.submit(&SubmitRequest::new("g", slow_job()).with_tenant("hog"))
            .unwrap()
    });
    wait_for(&mut admin, |s| s.running == 1, "the slow job to start");

    // Fill the hog's queued quota with two distinct jobs.
    let queued: Vec<_> = [0u32, 1]
        .into_iter()
        .map(|root| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                c.submit(&SubmitRequest::new("g", AlgorithmSpec::Bfs { root }).with_tenant("hog"))
                    .unwrap()
            })
        })
        .collect();
    wait_for(&mut admin, |s| s.queue_depth == 2, "the quota to fill");

    // The hog's third queued job sheds; the global queue had 14 free slots.
    let mut probe = Client::connect(addr).unwrap();
    expect_quota(
        probe.submit(&SubmitRequest::new("g", AlgorithmSpec::Cc).with_tenant("hog")),
        "the hog",
    );
    let stats = admin.stats().unwrap();
    assert_eq!(stats.jobs_quota_shed, 1);
    assert_eq!(stats.jobs_rejected, 0, "no global server_busy involved");
    assert_eq!(stats.tenant("hog").unwrap().shed_quota, 1);

    // A different tenant is still admitted.
    let light = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.submit(&SubmitRequest::new("g", AlgorithmSpec::Cc).with_tenant("light"))
            .unwrap()
    });
    wait_for(&mut admin, |s| s.queue_depth == 3, "the light admit");
    assert_eq!(admin.stats().unwrap().tenant("light").unwrap().queued, 1);

    // Everything admitted still completes.
    assert_eq!(running.join().unwrap().outcome.supersteps, 2000);
    for t in queued {
        assert!(!t.join().unwrap().cache_hit);
    }
    light.join().unwrap();
    let stats = admin.stats().unwrap();
    assert_eq!(stats.jobs_completed, 4);
    assert_eq!(stats.tenant("hog").unwrap().completed, 3);
}

/// The scratch-byte budget bounds a tenant's queued + running footprint
/// and is released when jobs finish.
#[test]
fn scratch_budget_bounds_and_releases() {
    let dir = test_dir("scratch");
    let csr = build_csr(&dir, generate::cycle(4096));
    let work = dir.join("serve");
    // One job charges 4096 vertices x 4 bytes = 16 KiB; the budget fits
    // exactly one at a time.
    let config = ServeConfig::small(&work)
        .with_max_concurrent_jobs(1)
        .with_queue_capacity(16)
        .with_tenant_scratch_budget(20_000)
        .with_engine(engine_template(&work));
    let handle = start(config).unwrap();
    let addr = handle.addr();
    let mut admin = Client::connect(addr).unwrap();
    admin.register_graph("g", csr.to_str().unwrap()).unwrap();

    let running = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.submit(&SubmitRequest::new("g", slow_job()).with_tenant("t"))
            .unwrap()
    });
    wait_for(&mut admin, |s| s.running == 1, "the slow job to start");
    assert_eq!(
        admin.stats().unwrap().tenant("t").unwrap().scratch_bytes,
        4096 * 4
    );

    // A second job would put the tenant at 32 KiB > 20 KB: shed. Another
    // tenant has its own budget and sails through.
    let mut probe = Client::connect(addr).unwrap();
    expect_quota(
        probe.submit(&SubmitRequest::new("g", AlgorithmSpec::Cc).with_tenant("t")),
        "the over-budget tenant",
    );
    let other =
        probe.submit(&SubmitRequest::new("g", AlgorithmSpec::Bfs { root: 0 }).with_tenant("u"));
    running.join().unwrap();
    assert!(other.is_ok(), "other tenants keep their own budget");

    // With the slow job done its charge is released; the same tenant
    // submits again without shedding.
    wait_for(
        &mut admin,
        |s| s.running == 0 && s.queue_depth == 0,
        "drain",
    );
    assert_eq!(admin.stats().unwrap().tenant("t").unwrap().scratch_bytes, 0);
    let again = probe.submit(&SubmitRequest::new("g", AlgorithmSpec::Cc).with_tenant("t"));
    assert!(again.is_ok(), "released budget must re-admit: {again:?}");
}

/// The fairness acceptance test, as a count: under a heavy tenant's 10x
/// flood, each light job waits behind at most `HEAVY_AHEAD_BOUND`
/// heavy jobs — deficit round-robin serves it next-ish, never behind the
/// whole flood backlog, which a FIFO queue would put (>= 24 jobs) ahead
/// of it.
#[test]
fn light_tenant_waits_behind_a_bounded_share_of_a_10x_flood() {
    // One runner, equal weights: the heavy job on the runner when the
    // light job arrives (1), then one DRR quantum for the heavy tenant,
    // which sits ahead of the newly ringed light tenant (2), plus one
    // heavy job that may finish between the `before` snapshot and the
    // submit reaching the scheduler (3).
    const HEAVY_AHEAD_BOUND: u64 = 3;
    let dir = test_dir("fairness");
    let csr = build_csr(&dir, generate::cycle(1024));
    let work = dir.join("serve");
    // Cache off: every submission must genuinely run and queue.
    let config = ServeConfig::small(&work)
        .with_max_concurrent_jobs(1)
        .with_queue_capacity(256)
        .with_tenant_max_queued(64)
        .with_cache_capacity(0)
        .with_engine(engine_template(&work));
    let handle = start(config).unwrap();
    let addr = handle.addr();
    let mut admin = Client::connect(addr).unwrap();
    admin.register_graph("g", csr.to_str().unwrap()).unwrap();

    let spec = || AlgorithmSpec::PageRank {
        damping: 0.85,
        supersteps: 20,
    };
    let heavy_completed = |s: &ServerStats| s.tenant("heavy").map_or(0, |t| t.completed);

    // The flood: 32 heavy connections, 4 jobs each, all one tenant.
    let flood: Vec<_> = (0..32)
        .map(|_| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                for _ in 0..4 {
                    c.submit(&SubmitRequest::new("g", spec()).with_tenant("heavy"))
                        .unwrap();
                }
            })
        })
        .collect();
    wait_for(&mut admin, |s| s.queue_depth >= 24, "the flood to back up");

    // Light tenant under contention: 8 sequential jobs, each counting the
    // heavy jobs that completed between just before its submit and its
    // reply.
    let mut light = Client::connect(addr).unwrap();
    let heavy_ahead: Vec<u64> = (0..8)
        .map(|_| {
            let before = heavy_completed(&admin.stats().unwrap());
            let reply = light
                .submit(&SubmitRequest::new("g", spec()).with_tenant("light"))
                .unwrap();
            heavy_completed(&reply.stats) - before
        })
        .collect();

    let mid = admin.stats().unwrap();
    assert!(
        heavy_ahead.iter().all(|&n| n <= HEAVY_AHEAD_BOUND),
        "light jobs waited behind {heavy_ahead:?} heavy jobs (bound {HEAVY_AHEAD_BOUND})"
    );
    // The flood must still be deep when the measurement ends, or the
    // tail jobs weren't actually contended.
    assert!(
        mid.queue_depth >= 8,
        "flood drained before the light jobs finished: {mid:?}"
    );
    for t in flood {
        t.join().unwrap();
    }
    let stats = admin.stats().unwrap();
    assert_eq!(stats.tenant("light").unwrap().shed_quota, 0);
    assert_eq!(stats.tenant("light").unwrap().completed, 8);
    assert_eq!(stats.tenant("heavy").unwrap().completed, 128);
}

/// Streamed results arrive as CRC'd chunks the client reassembles under
/// a per-frame cap far smaller than the full result, and match both the
/// monolithic reply and a direct engine run bit-for-bit.
#[test]
fn streamed_results_are_bit_identical_under_a_chunk_sized_cap() {
    let dir = test_dir("stream");
    // 16K vertices: the monolithic values frame (~10 bytes/value) is far
    // larger than the ~66 KiB per-frame allowance a 100-value chunk
    // negotiates, so a server that failed to chunk would fail the read.
    let csr = build_csr(&dir, generate::cycle(16384));
    let work = dir.join("serve");
    let config = ServeConfig::small(&work)
        .with_cache_capacity(0)
        .with_stream_chunk_values(100)
        .with_engine(engine_template(&work));
    let handle = start(config).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    client.register_graph("g", csr.to_str().unwrap()).unwrap();

    let alg = AlgorithmSpec::PageRank {
        damping: 0.85,
        supersteps: 20,
    };
    let streamed = client
        .submit(&SubmitRequest::new("g", alg).with_stream())
        .unwrap();
    assert_eq!(streamed.outcome.values_u32.len(), 16384);
    assert!(!streamed.cache_hit);
    assert!(
        streamed.outcome.supersteps > 0,
        "summary survives streaming"
    );

    let monolithic = client.submit(&SubmitRequest::new("g", alg)).unwrap();
    assert_eq!(monolithic.outcome.values_u32, streamed.outcome.values_u32);

    let baseline = direct_bits(&alg, &csr, &dir.join("direct"));
    assert_eq!(*streamed.outcome.values_u32, baseline);

    // The connection is clean after a stream: the same client keeps
    // making ordinary calls.
    client.ping().unwrap();
    assert_eq!(client.stats().unwrap().jobs_completed, 2);
}

/// A client that vanishes while its job is queued has the job reaped —
/// journaled `Failed(cancelled)` — without disturbing the job that was
/// running.
#[test]
fn vanished_client_has_its_queued_job_reaped() {
    use gpsa_serve::json::Json;
    use gpsa_serve::wire::write_frame;

    let dir = test_dir("reap");
    let csr = build_csr(&dir, generate::cycle(4096));
    let work = dir.join("serve");
    let config = ServeConfig::small(&work)
        .with_max_concurrent_jobs(1)
        .with_queue_capacity(8)
        .with_engine(engine_template(&work));
    let handle = start(config).unwrap();
    let addr = handle.addr();
    let mut admin = Client::connect(addr).unwrap();
    admin.register_graph("g", csr.to_str().unwrap()).unwrap();

    let running = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.submit(&SubmitRequest::new("g", slow_job())).unwrap()
    });
    wait_for(&mut admin, |s| s.running == 1, "the slow job to start");

    // A raw connection submits a job and disappears without reading the
    // reply.
    let mut doomed = std::net::TcpStream::connect(addr).unwrap();
    let req = Json::obj()
        .set("op", Json::str("submit"))
        .set("graph_id", Json::str("g"))
        .set("algorithm", Json::str("bfs"))
        .set("params", Json::obj().set("root", Json::num(0)));
    write_frame(&mut doomed, &req).unwrap();
    wait_for(
        &mut admin,
        |s| s.queue_depth == 1,
        "the doomed job to queue",
    );
    drop(doomed);

    // The disconnect poll notices, the sweep reaps, and the queue empties
    // while the slow job is still running.
    let stats = wait_for(
        &mut admin,
        |s| s.jobs_cancelled >= 1 && s.queue_depth == 0,
        "the reap",
    );
    assert_eq!(stats.running, 1, "the running job must be undisturbed");
    assert_eq!(running.join().unwrap().outcome.supersteps, 2000);
    // The reaped job never ran.
    assert_eq!(admin.stats().unwrap().jobs_completed, 1);
}

/// Boot-time journal replay reaps a keyed incomplete job whose
/// submission is older than the idempotency TTL — `Failed` is appended
/// so the next boot sees it terminal — instead of replaying it against a
/// reply channel nobody holds.
#[test]
fn boot_reaps_expired_idempotency_keys_instead_of_replaying() {
    let dir = test_dir("ttl");
    let csr = build_csr(&dir, generate::cycle(256));
    let work = dir.join("serve");
    std::fs::create_dir_all(&work).unwrap();

    // Craft the aftermath of a crash: one keyed job submitted an hour
    // ago (far past the TTL below) that never reached a terminal state.
    let journal_path = work.join("journal.wal");
    {
        let (mut j, existing) = JobJournal::open(&journal_path).unwrap();
        assert!(existing.is_empty());
        let now_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_millis() as u64;
        j.append(&JournalRecord::Submitted {
            job_id: 1,
            key: Some("stale-key".to_string()),
            graph_id: "g".to_string(),
            algorithm: AlgorithmSpec::Bfs { root: 0 },
            priority: Priority::Normal,
            tenant: "default".to_string(),
            at_ms: now_ms.saturating_sub(3_600_000),
        })
        .unwrap();
    }

    let config = || {
        ServeConfig::small(&work)
            .with_idem_key_ttl(Duration::from_secs(60))
            .with_engine(engine_template(&work))
    };
    let handle = start(config()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.jobs_cancelled, 1, "the stale job must be reaped");
    assert_eq!(stats.jobs_replayed, 0, "and must not replay");

    // The key is free again: the same key submits and runs fresh.
    client.register_graph("g", csr.to_str().unwrap()).unwrap();
    let resp = client
        .submit(
            &SubmitRequest::new("g", AlgorithmSpec::Bfs { root: 0 })
                .with_idempotency_key("stale-key"),
        )
        .unwrap();
    assert!(
        !resp.cache_hit,
        "an expired key must not resurrect a result"
    );
    drop(client);
    drop(handle);

    // Next boot sees the reaped job as terminal: nothing reaps or
    // replays again (the fresh job committed).
    let handle = start(config()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.jobs_cancelled, 0, "the reap must be durable");
    assert_eq!(stats.jobs_replayed, 0);
}

/// Regression: a mutation that pushes a live graph's delta/base edge
/// ratio over the configured threshold triggers a compaction on the
/// scheduler's own authority; under the threshold (or disabled) nothing
/// happens.
#[test]
fn churny_overlay_auto_compacts_at_the_threshold() {
    let dir = test_dir("autocompact");
    let csr = build_csr(&dir, generate::chain(64)); // 63 base edges
    let work = dir.join("serve");
    let config = ServeConfig::small(&work)
        .with_auto_compact_ratio(0.5)
        .with_engine(engine_template(&work));
    let handle = start(config).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    client.register_graph("g", csr.to_str().unwrap()).unwrap();

    // 20 delta edges over 63 base: ratio 0.32, under the 0.5 trigger.
    let under: Vec<(u32, u32)> = (0..20).map(|i| (i, 63 - i)).collect();
    let info = client.add_edges("g", &under).unwrap();
    assert_eq!((info.epoch, info.delta_seq), (1, 1));
    std::thread::sleep(Duration::from_millis(100));
    let stats = client.stats().unwrap();
    assert_eq!(
        stats.auto_compactions, 0,
        "under-threshold churn must not compact"
    );
    assert_eq!(client.list_graphs().unwrap()[0].epoch, 1);

    // 14 more (34/63 = 0.54) crosses it: the scheduler compacts by
    // itself and the graph lands on a fresh epoch with an empty overlay.
    // (i, i+32) never collides with a chain edge or the first batch.
    let over: Vec<(u32, u32)> = (20..34).map(|i| (i, (i + 32) % 64)).collect();
    client.add_edges("g", &over).unwrap();
    let stats = wait_for(
        &mut client,
        |s| s.auto_compactions >= 1,
        "the auto-compaction to trigger",
    );
    assert_eq!(stats.auto_compactions, 1);
    let deadline = Instant::now() + Duration::from_secs(30);
    let info = loop {
        let info = client.list_graphs().unwrap().remove(0);
        if info.epoch == 2 {
            break info;
        }
        assert!(Instant::now() < deadline, "compaction never committed");
        std::thread::sleep(Duration::from_millis(10));
    };
    assert_eq!(
        info.delta_seq, 0,
        "the overlay must fold into the new epoch"
    );
    assert_eq!(info.n_edges, 63 + 34);

    // The compacted graph still answers, and the folded edges are there.
    let resp = client
        .submit(&SubmitRequest::new("g", AlgorithmSpec::Cc))
        .unwrap();
    assert_eq!(resp.outcome.values_u32.len(), 64);
}

/// The overload soak (chaos builds): scripted waves of burst storms,
/// slow consumers, and tenant floods hammer one server while a light
/// tenant keeps submitting with retries on — through a scripted
/// mid-stream disconnect. The server must stay live, shed only the
/// flooding tenant's excess, and hand the light tenant bit-identical
/// results every single time.
#[cfg(feature = "chaos")]
#[test]
fn overload_soak_stays_live_fair_and_bit_identical() {
    use gpsa_serve::{OverloadWave, ServeFault, ServeFaultPlan};
    use std::io::Write;

    let dir = test_dir("soak");
    let csr = build_csr(&dir, generate::cycle(2048));
    let work = dir.join("serve");
    let plan =
        Arc::new(ServeFaultPlan::new(11).with(ServeFault::DisconnectMidStream { nth_chunk: 3 }));
    let config = ServeConfig::small(&work)
        .with_max_concurrent_jobs(2)
        .with_queue_capacity(64)
        .with_tenant_max_queued(4)
        .with_stream_chunk_values(64)
        .with_frame_read_timeout(Duration::from_millis(200))
        .with_engine(engine_template(&work))
        .with_fault_plan(plan.clone());
    let handle = start(config).unwrap();
    let addr = handle.addr();
    let mut admin = Client::connect(addr).unwrap();
    admin.register_graph("g", csr.to_str().unwrap()).unwrap();

    let alg = AlgorithmSpec::PageRank {
        damping: 0.85,
        supersteps: 10,
    };
    let baseline = direct_bits(&alg, &csr, &dir.join("direct"));

    // Abusive tenants vary damping per submission so the cache can't
    // absorb the flood — every abusive job really queues and runs.
    let uniq = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let abusive = {
        let uniq = uniq.clone();
        move || AlgorithmSpec::PageRank {
            damping: 0.5 + uniq.fetch_add(1, std::sync::atomic::Ordering::Relaxed) as f32 * 1e-6,
            supersteps: 10,
        }
    };

    // The light tenant: sequential keyed submits, streaming every other
    // one, retries on. Every result must be bit-identical to the direct
    // run — including the one whose stream the fault plan severs.
    let light_alg = alg;
    let light_baseline = baseline.clone();
    let light = std::thread::spawn(move || {
        let mut c = Client::connect_with(addr, RetryPolicy::default_enabled()).unwrap();
        for i in 0..16 {
            let mut req = SubmitRequest::new("g", light_alg)
                .with_tenant("light")
                .with_idempotency_key(format!("soak-{i}"));
            if i % 2 == 0 {
                req = req.with_stream();
            }
            let resp = c
                .submit(&req)
                .unwrap_or_else(|e| panic!("light job {i}: {e}"));
            assert_eq!(
                *resp.outcome.values_u32, light_baseline,
                "light job {i} diverged under load"
            );
        }
    });

    // The abuse: a seeded schedule of overload waves, plus a guaranteed
    // tenant flood at the end (the seed decides whether the schedule
    // itself contains one).
    let waves = OverloadWave::schedule(11, 6)
        .into_iter()
        .chain([OverloadWave::TenantFlood { n: 12 }]);
    for wave in waves {
        match wave {
            OverloadWave::BurstStorm { burst, idle_ms } => {
                let threads: Vec<_> = (0..burst)
                    .map(|_| {
                        let alg = abusive();
                        std::thread::spawn(move || {
                            let mut c = Client::connect(addr).unwrap();
                            // Sheds are expected and fine; panics are not.
                            let _ = c.submit(&SubmitRequest::new("g", alg).with_tenant("burst"));
                        })
                    })
                    .collect();
                for t in threads {
                    t.join().unwrap();
                }
                std::thread::sleep(Duration::from_millis(idle_ms));
            }
            OverloadWave::SlowConsumer { delay_ms } => {
                // Start a frame, stall past the read deadline, vanish.
                let mut s = std::net::TcpStream::connect(addr).unwrap();
                s.write_all(&(64u32).to_be_bytes()).unwrap();
                s.write_all(b"{\"op\":").unwrap();
                std::thread::sleep(Duration::from_millis(delay_ms.max(250)));
                drop(s);
            }
            OverloadWave::TenantFlood { n } => {
                let threads: Vec<_> = (0..n)
                    .map(|_| {
                        let specs: Vec<_> = (0..3).map(|_| abusive()).collect();
                        std::thread::spawn(move || {
                            let mut c = Client::connect(addr).unwrap();
                            let mut sheds = 0u64;
                            for alg in specs {
                                match c.submit(&SubmitRequest::new("g", alg).with_tenant("flood")) {
                                    Ok(_) => {}
                                    Err(ClientError::Server(ServeError::QuotaExceeded(_)))
                                    | Err(ClientError::Server(ServeError::ServerBusy(_))) => {
                                        sheds += 1
                                    }
                                    Err(e) => panic!("flood saw a non-shed failure: {e}"),
                                }
                            }
                            sheds
                        })
                    })
                    .collect();
                let _sheds: u64 = threads.into_iter().map(|t| t.join().unwrap()).sum();
            }
        }
    }

    light.join().unwrap();

    // The server survived the whole campaign.
    admin.ping().unwrap();
    let stats = wait_for(
        &mut admin,
        |s| s.running == 0 && s.queue_depth == 0,
        "the soak to drain",
    );
    assert_eq!(plan.fired(), 1, "the mid-stream disconnect must have fired");
    // Fairness under the flood: only the abusive tenants were shed.
    let light_stats = stats.tenant("light").unwrap();
    assert_eq!(light_stats.shed_quota, 0, "light tenant must never shed");
    assert_eq!(
        light_stats.cancelled, 0,
        "light tenant must never be reaped"
    );
    assert!(
        stats.tenant("flood").map_or(0, |t| t.shed_quota) > 0
            || stats.jobs_quota_shed > 0
            || stats.jobs_rejected > 0,
        "the flood was supposed to overload something: {stats:?}"
    );
    assert!(
        stats.conns_shed >= 1,
        "slow consumers must be shed: {stats:?}"
    );
}
