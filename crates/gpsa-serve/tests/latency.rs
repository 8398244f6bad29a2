//! Loopback latency regression, asserted as counted facts rather than
//! timed: a reply must cost what producing it costs, not a transport
//! stall on top.
//!
//! Written as two `write`s on a Nagle socket, a reply's tail segment waits
//! for the peer's delayed ACK — 40 ms on Linux. The stall needs both a
//! frame split across writes and Nagle left on, so the guard is the pair
//! of facts that rule it out: every frame, here a real 50 k-value
//! cache-hit reply, reaches the writer in exactly one `write`, and both
//! ends of a connection read back `TCP_NODELAY` (the unit test
//! `server::tests::both_ends_of_a_connection_disable_nagle`, which needs
//! the server's accepted socket). What a reply costs in milliseconds is
//! the repository benchmark's `gpsa-serve.cache_hit_ms_p50`, measured in
//! a release build with a noise band.

use std::io::{self, Write};
use std::path::{Path, PathBuf};

use gpsa::EngineConfig;
use gpsa_graph::{generate, preprocess};
use gpsa_serve::wire::{read_frame, write_frame_with_cap, MAX_FRAME_BYTES};
use gpsa_serve::{start, AlgorithmSpec, Client, JobResponse, ServeConfig, SubmitRequest};

const N_VERTICES: usize = 50_000;
const REPEATS: u64 = 10;

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

/// A writer that counts the `write` calls reaching it.
#[derive(Default)]
struct CountingWriter {
    writes: usize,
    bytes: Vec<u8>,
}

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.writes += 1;
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// `resp` framed through the same writer the server replies with: one
/// `write` call, and the bytes decode back to the same response.
fn assert_one_write_per_frame(resp: &JobResponse) {
    let frame = resp.to_json();
    let mut w = CountingWriter::default();
    write_frame_with_cap(&mut w, &frame, MAX_FRAME_BYTES).unwrap();
    assert_eq!(w.writes, 1, "prefix and body left in separate writes");
    // At least a digit and a comma per value.
    assert!(
        w.bytes.len() > 2 * N_VERTICES,
        "the reply carries every value"
    );
    let back = read_frame(&mut io::Cursor::new(w.bytes)).unwrap();
    assert_eq!(back, Some(frame));
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
    let hits_before = client.stats().unwrap().cache_hits;

    for req in [bfs.clone(), bfs.clone().with_stream()] {
        for _ in 0..REPEATS {
            let resp = client.submit(&req).unwrap();
            assert!(resp.cache_hit, "a repeat of a cached job must hit");
            assert_eq!(resp.outcome.values_u32, want);
            assert_one_write_per_frame(&resp);
        }
    }
    assert_eq!(
        client.stats().unwrap().cache_hits - hits_before,
        2 * REPEATS,
        "every repeat, monolithic or streamed, was answered from the cache"
    );
}
