//! The codec's packed `u32` arrays are a representation, not a format:
//! the bytes a response, journal line or cache spill file is made of are
//! the bytes the element-per-node codec wrote, and whatever that codec
//! read, this one reads to the same value.
//!
//! Two instruments. Property tests hold the packed encoder to an
//! independent rendering of the same numbers, and hold the packed parse
//! to the generic array path it short-cuts: one space after the `[` makes
//! the scan decline, and the generic path behind it is the parser as it
//! always was, so the two must agree on every input, well-formed or
//! hostile. Fixtures under `tests/fixtures/` were written by the commit
//! before the packed node existed; they must decode to the values that
//! went in and re-encode to the same bytes.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use gpsa_serve::json::Json;
use gpsa_serve::{
    AlgorithmSpec, CacheKey, JobJournal, JobOutcome, JobResponse, JournalRecord, Priority,
    ResultCache, ServerStats, TenantStats, ValueType,
};
use proptest::prelude::*;

/// Values that sit on every digit-count boundary, mixed with draws from
/// the whole range (f32 bit patterns, NaNs included, are just `u32`s).
fn arb_values() -> impl Strategy<Value = Vec<u32>> {
    let element = (any::<u32>(), 0u32..34).prop_map(|(raw, shift)| match shift {
        32 => u32::MAX,
        33 => f32::NAN.to_bits(),
        s => raw >> s,
    });
    proptest::collection::vec(element, 0..=300)
}

/// Array bodies over the bytes that matter to a number scanner, and over
/// whole tokens that are each nearly a `u32`.
fn arb_hostile_body() -> impl Strategy<Value = String> {
    const ALPHABET: &[u8] = b"0123456789,,,-.eE+ []\"\t";
    const TOKENS: &[&str] = &[
        "0",
        "7",
        "4294967295",
        "4294967296",
        "99999999999",
        "123456789012345678901234567890",
        "00000000001",
        "-1",
        "-0",
        "1.5",
        "1e3",
        "1E+2",
        "1e",
        "1.",
        "-",
        "",
        " 5",
        "5 ",
        "[1,2]",
        "[]",
        "\"9\"",
        "null",
        "true",
    ];
    let bytes = proptest::collection::vec(0..ALPHABET.len(), 0..=24).prop_map(|picks| {
        picks
            .iter()
            .map(|&i| ALPHABET[i] as char)
            .collect::<String>()
    });
    let tokens = proptest::collection::vec(0..TOKENS.len(), 0..=8).prop_map(|picks| {
        let parts: Vec<&str> = picks.iter().map(|&i| TOKENS[i]).collect();
        parts.join(",")
    });
    (any::<bool>(), bytes, tokens).prop_map(|(which, b, t)| if which { b } else { t })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn packed_encode_is_the_plain_rendering_and_parses_back_packed(values in arb_values()) {
        let plain: Vec<String> = values.iter().map(u32::to_string).collect();
        let want = format!("[{}]", plain.join(","));
        let packed = Json::U32s(Arc::new(values.clone()));
        prop_assert_eq!(packed.encode(), want.clone());
        let node_per_value = Json::Arr(values.iter().map(|&v| Json::num(v as u64)).collect());
        prop_assert_eq!(node_per_value.encode(), want.clone());

        let back = Json::parse(&want).unwrap();
        prop_assert!(matches!(&back, Json::U32s(v) if **v == values));
        prop_assert_eq!(back.to_u32s().unwrap().as_slice(), values.as_slice());
        // Inside a frame-shaped object, after and before other fields.
        let frame = Json::obj()
            .set("seq", Json::num(3))
            .set("values_u32", packed)
            .set("ok", Json::Bool(true));
        let reparsed = Json::parse(&frame.encode()).unwrap();
        prop_assert_eq!(
            reparsed.get("values_u32").and_then(Json::to_u32s).unwrap().as_slice(),
            values.as_slice()
        );
        prop_assert_eq!(reparsed, frame);
    }

    #[test]
    fn packed_scan_agrees_with_the_generic_array_path(body in arb_hostile_body()) {
        let fast = Json::parse(&format!("[{body}]"));
        let generic = Json::parse(&format!("[ {body}]"));
        match (fast, generic) {
            (Ok(fast), Ok(generic)) => {
                prop_assert!(matches!(generic, Json::Arr(_)));
                prop_assert_eq!(fast.to_u32s(), generic.to_u32s());
                prop_assert_eq!(fast, generic);
            }
            (Err(_), Err(_)) => {}
            (fast, generic) => prop_assert!(false, "{body:?}: {fast:?} vs {generic:?}"),
        }
    }
}

// ------------------------------------------------------------- fixtures

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("gpsa-serve-codec-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// The value array the fixture writer put in the spill file and the
/// response: digit-count edges, NaN patterns, then an xorshift tail.
fn fixture_values() -> Vec<u32> {
    let mut values = vec![
        0,
        1,
        9,
        10,
        99,
        100,
        4294967295,
        4294967294,
        1000000000,
        999999999,
        f32::NAN.to_bits(),
        (-f32::NAN).to_bits(),
        0.17f32.to_bits(),
        f32::INFINITY.to_bits(),
        0x7fc0_0001,
        0xffff_ffff,
    ];
    let mut s = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..240 {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        values.push(((s >> 11) as u32) >> ((s & 31) as u32));
    }
    values
}

fn fixture_outcome() -> JobOutcome {
    JobOutcome {
        value_type: ValueType::F32,
        values_u32: Arc::new(fixture_values()),
        supersteps: 5,
        messages: 123456,
        edges_streamed: 640,
        edges_skipped: 128,
        mean_frontier_density: 0.8125,
        retry_attempts: 1,
        phases: Vec::new(),
    }
}

fn fixture_key() -> CacheKey {
    CacheKey {
        graph_id: "web".into(),
        algorithm: "pagerank".into(),
        params: "damping_bits=1062836634,supersteps=5".into(),
        epoch: 3,
        delta_seq: 2,
    }
}

#[test]
fn a_pre_packed_cache_spill_file_reloads_and_rewrites_identically() {
    let old_bytes = std::fs::read(fixture("pre_pr13_cache_spill.json")).unwrap();
    let dir = scratch("spill-old");
    std::fs::write(dir.join("restored.json"), &old_bytes).unwrap();
    let mut cache = ResultCache::open(4, dir);
    let got = cache
        .get(&fixture_key())
        .expect("the old spill file restores");
    let want = fixture_outcome();
    assert_eq!(got.values_u32, want.values_u32, "bit-identical values");
    assert_eq!(got.value_type, want.value_type);
    assert_eq!(
        (
            got.supersteps,
            got.messages,
            got.edges_streamed,
            got.edges_skipped
        ),
        (5, 123456, 640, 128)
    );
    assert_eq!(got.mean_frontier_density, 0.8125);
    assert_eq!(got.retry_attempts, 1);

    let dir = scratch("spill-new");
    let mut cache = ResultCache::open(4, dir.clone());
    cache.put(fixture_key(), Arc::new(want));
    cache.spill(&fixture_key());
    assert_eq!(cache.spill_failures(), 0);
    let written = std::fs::read_dir(&dir).unwrap().next().unwrap().unwrap();
    assert_eq!(std::fs::read(written.path()).unwrap(), old_bytes);
}

#[test]
fn a_pre_packed_journal_replays_and_rewrites_identically() {
    let old_bytes = std::fs::read(fixture("pre_pr13_journal.log")).unwrap();
    let want = vec![
        JournalRecord::Submitted {
            job_id: 7,
            key: Some("k-7 \"q\"".into()),
            graph_id: "web".into(),
            algorithm: AlgorithmSpec::PageRank {
                damping: 0.85,
                supersteps: 5,
            },
            priority: Priority::High,
            tenant: "vip".into(),
            at_ms: 1_790_000_000_123,
        },
        JournalRecord::Started { job_id: 7 },
        JournalRecord::Committed {
            job_id: 7,
            epoch: 3,
            delta_seq: 2,
        },
        JournalRecord::Submitted {
            job_id: 8,
            key: None,
            graph_id: "web".into(),
            algorithm: AlgorithmSpec::Bfs { root: u32::MAX },
            priority: Priority::Normal,
            tenant: "default".into(),
            at_ms: 0,
        },
        JournalRecord::Failed {
            job_id: 8,
            reason: Some("deadline_exceeded".into()),
        },
        JournalRecord::Mutated {
            graph_id: "web".into(),
            epoch: 3,
            delta_seq: 3,
        },
    ];
    let dir = scratch("journal");
    let old = dir.join("old.log");
    std::fs::write(&old, &old_bytes).unwrap();
    let (_, records) = JobJournal::open(&old).unwrap();
    assert_eq!(records, want);
    assert_eq!(
        std::fs::read(&old).unwrap(),
        old_bytes,
        "nothing was truncated"
    );

    let new = dir.join("new.log");
    let (mut journal, _) = JobJournal::open(&new).unwrap();
    for rec in &want {
        journal.append(rec).unwrap();
    }
    assert_eq!(std::fs::read(&new).unwrap(), old_bytes);
}

#[test]
fn a_pre_packed_response_frame_decodes_and_reencodes_identically() {
    let old_text = std::fs::read_to_string(fixture("pre_pr13_response.json")).unwrap();
    let resp = JobResponse::from_json(&Json::parse(&old_text).unwrap()).unwrap();
    assert_eq!(*resp.outcome.values_u32, fixture_values());
    assert_eq!(resp.job_id, 42);
    assert!(!resp.cache_hit);
    // One phase row fits the packed node, one (5e9 µs) does not; both
    // decode.
    assert_eq!(
        resp.outcome.phases,
        vec![
            gpsa::PhaseBreakdown {
                dispatch_us: 100,
                fold_us: 40,
                commit_us: 7,
                slab_wait_us: 3,
            },
            gpsa::PhaseBreakdown {
                dispatch_us: 5_000_000_000,
                fold_us: 35,
                commit_us: 6,
                slab_wait_us: 0,
            },
        ]
    );
    assert_eq!(resp.queue_wait, Duration::from_micros(250));
    assert_eq!(resp.run_time, Duration::from_micros(1300));
    assert_eq!(
        resp.stats,
        ServerStats {
            jobs_completed: 1,
            cache_misses: 1,
            cache_len: 1,
            tenants: vec![TenantStats {
                tenant: "conn:127.0.0.1:5".into(),
                weight: 1,
                submitted: 1,
                completed: 1,
                ..TenantStats::default()
            }],
            ..ServerStats::default()
        }
    );
    assert_eq!(resp.to_json().encode(), old_text);
}
