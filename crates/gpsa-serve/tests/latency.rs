//! Loopback latency regression: a reply must cost what producing it costs,
//! not a transport stall on top.
//!
//! A cache hit runs nothing, so its round trip is the reply path alone:
//! admission, encode, socket, decode. Written as two `write`s on a Nagle
//! socket, a reply's tail segment waits for the peer's delayed ACK, and
//! that wait is quantised — 40 ms on Linux — so the thresholds below sit
//! far from both sides: a healthy loopback round trip for 50 k values is
//! a few milliseconds even in a debug build on a busy 2-core box, and a
//! stalled one can never come in under 40.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use gpsa::EngineConfig;
use gpsa_graph::{generate, preprocess};
use gpsa_serve::{start, AlgorithmSpec, Client, ServeConfig, SubmitRequest};

const N_VERTICES: usize = 50_000;
const REPEATS: usize = 30;
const STALL: Duration = Duration::from_millis(40);
const MEDIAN_BOUND: Duration = Duration::from_millis(15);

fn test_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("gpsa-serve-lat-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn build_csr(dir: &Path) -> PathBuf {
    let path = dir.join("g.gcsr");
    let el = generate::erdos_renyi(N_VERTICES, 4 * N_VERTICES, 11);
    preprocess::edges_to_csr(el, &path, &preprocess::PreprocessOptions::default()).unwrap();
    path
}

/// Round-trip times of `REPEATS` submissions of `req`, sorted.
fn round_trips(client: &mut Client, req: &SubmitRequest, want: &[u32]) -> Vec<Duration> {
    let mut times: Vec<Duration> = (0..REPEATS)
        .map(|_| {
            let t = Instant::now();
            let resp = client.submit(req).unwrap();
            let took = t.elapsed();
            assert!(resp.cache_hit, "a repeat of a cached job must hit");
            assert_eq!(resp.outcome.values_u32.as_slice(), want);
            took
        })
        .collect();
    times.sort();
    times
}

#[test]
fn cache_hit_round_trips_never_pay_a_delayed_ack() {
    let dir = test_dir("hits");
    let csr = build_csr(&dir);
    let work = dir.join("serve");
    let config = ServeConfig::small(&work)
        .with_max_concurrent_jobs(1)
        .with_engine(EngineConfig::small(&work));
    let handle = start(config).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let info = client.register_graph("g", csr.to_str().unwrap()).unwrap();
    assert!(info.n_vertices >= 40_000);

    let bfs = SubmitRequest::new("g", AlgorithmSpec::Bfs { root: 0 });
    let warm = client.submit(&bfs).unwrap();
    assert!(!warm.cache_hit);
    let want = warm.outcome.values_u32.clone();
    assert_eq!(want.len(), info.n_vertices);

    let monolithic = round_trips(&mut client, &bfs, &want);
    let streamed = round_trips(&mut client, &bfs.clone().with_stream(), &want);

    let (median, worst) = (monolithic[REPEATS / 2], monolithic[REPEATS - 1]);
    assert!(
        median < MEDIAN_BOUND,
        "monolithic cache hits: median {median:?}, all {monolithic:?}"
    );
    assert!(
        worst < STALL,
        "a monolithic cache hit took {worst:?}: that is a delayed-ACK stall ({monolithic:?})"
    );
    let median = streamed[REPEATS / 2];
    assert!(
        median < MEDIAN_BOUND,
        "streamed cache hits: median {median:?}, all {streamed:?}"
    );
}
