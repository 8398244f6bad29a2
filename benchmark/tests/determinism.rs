//! The same seed gives the same work: exact per-layer counts repeat
//! between two traced passes, every workload verifies its outputs, and a
//! wrong output is counted as a failed op.

use std::path::PathBuf;

use gpsa_benchmark::agree::EXACT_COUNTS;
use gpsa_benchmark::harness::{Ctx, Outcome};
use gpsa_benchmark::inputs::Scale;
use gpsa_benchmark::{workload, WORKLOADS};

fn run_ops(name: &str, seed: u64, trace: bool, tag: &str, ops: u64) -> Outcome {
    let work = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("test-{name}-{tag}-{}", std::process::id()));
    let ctx = Ctx {
        workload: workload(name).unwrap(),
        seed,
        seconds: 60.0,
        max_ops: Some(ops),
        trace,
        scale: Scale::TINY,
        work: work.clone(),
    };
    let outcome = gpsa_benchmark::run(&ctx).unwrap();
    std::fs::remove_dir_all(&work).unwrap();
    outcome
}

fn run(name: &str, seed: u64, trace: bool, tag: &str) -> Outcome {
    run_ops(name, seed, trace, tag, 8)
}

fn value(o: &Outcome, metric: &str) -> f64 {
    o.metrics
        .iter()
        .find(|(d, _)| d.name == metric)
        .map(|(_, v)| *v)
        .unwrap()
}

#[test]
fn exact_counts_repeat_for_a_seed() {
    for (metric, workloads) in EXACT_COUNTS {
        for name in workloads {
            let (a, b) = (run(name, 5, true, "a"), run(name, 5, true, "b"));
            assert!(a.correct && b.correct, "{name}");
            assert_eq!(a.attempted, 8);
            assert!(value(&a, metric) > 0.0, "{name} {metric}");
            assert_eq!(value(&a, metric), value(&b, metric), "{name} {metric}");
        }
    }
}

#[test]
fn every_workload_is_correct_untraced_and_reports_nonzero_metrics() {
    for w in &WORKLOADS {
        let o = run(w.name, 11, false, "e2e");
        assert!(o.correct, "{}: {}", w.name, o.info.encode());
        assert_eq!((o.attempted, o.failed), (8, 0), "{}", w.name);
        for (def, v) in &o.metrics {
            // Process CPU time ticks in 10 ms steps, more than eight tiny
            // ops take.
            assert!(
                *v > 0.0 || def.name == "cpu_s_per_op",
                "{} {} = {v}",
                w.name,
                def.name
            );
        }
    }
}

#[test]
fn traced_passes_record_spans_and_their_layers() {
    let o = run("live_cc", 3, true, "trace");
    assert!(o.correct);
    let trace = o.trace.as_ref().unwrap();
    let names: Vec<&str> = trace
        .get("spans")
        .and_then(|s| s.as_arr())
        .unwrap()
        .iter()
        .filter_map(|s| s.get("name").and_then(|n| n.as_str()))
        .collect();
    for expected in [
        "op",
        "gpsa-graph::DeltaLog::append",
        "gpsa-graph::DeltaOverlay::apply",
        "gpsa-core::Engine::run_incremental",
        "gpsa-core::run.supersteps",
    ] {
        assert!(names.contains(&expected), "no {expected} span");
    }
    assert!(value(&o, "gpsa-core.seeded_frontier") > 0.0);

    // Two blocks per client, so the list reaches its repeats.
    let o = run_ops("serve_mix", 3, true, "trace", 80);
    assert!(o.correct, "{}", o.info.encode());
    // queue_wait + run + reply_overhead = client latency by construction,
    // so the overhead can never be negative.
    assert!(value(&o, "gpsa-serve.reply_overhead_ms_p50") > 0.0);
    assert!(value(&o, "gpsa-serve.cache_hit_rate") > 0.0);
    assert!(value(&o, "gpsa-serve.direct_run_ms_p50") > 0.0);
}
