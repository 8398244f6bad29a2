//! The metric tables — the same names, units and bounds as
//! `BENCHMARK.json`, which a test holds this file to — and the per-layer
//! sample accumulator.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::stats;

/// One metric of `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen;
    /// per-layer metrics have none.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: higher,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: higher,
        bound: None,
    }
}

/// What a user of the system sees, measured with tracing off. Failures
/// are not a metric here because a metric may never read 0: they are the
/// `failed` / `attempted` counts of every result, and any failed op makes
/// the run incorrect. Peak memory is a per-layer metric: with a fresh
/// pair of worker threads per engine run, how many malloc arenas end up
/// holding freed slabs differs by tens of MB between identical runs. The
/// tail latency is a per-layer metric too (`benchmark.op_tail_ms`): a
/// neighbour's burst on this shared host lands in the slowest fifth of the
/// ops and nowhere else, and the quartile spread of ten runs of the same
/// code reached 30 % of the median (`README.md`).
///
/// Every bound is the 0.25 the contract allows at most. On this shared
/// 2-core box the same code drifts by up to 15 % within an hour (ten-seed
/// medians of `bfs_grid` `op_p50_ms`: 57 ms, then 66 ms) and the quartile
/// spread of ten runs reached 11 % in a noisy hour; a tighter bound would
/// reject the machine, not a change. `README.md` has the figures.
pub const END_TO_END: [MetricDef; 5] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("op_p50_ms", "ms", false, 0.25),
    e2e("ops_per_s", "1/s", true, 0.25),
    e2e("cpu_s_per_op", "s", false, 0.25),
    e2e("cost_ratio", "ratio", false, 0.25),
];

/// Metrics of single layers, from the traced run. A workload that does
/// not exercise a layer reports 0 for that layer's run-derived metrics.
pub const PER_LAYER: [MetricDef; 68] = [
    layer("gpsa-mmap.seq_read_ns_per_edge", "ns", false),
    layer("gpsa-mmap.open_us", "us", false),
    layer("gpsa-mmap.flush_range_us", "us", false),
    layer("gpsa-graph.decode_v1_ns_per_edge", "ns", false),
    layer("gpsa-graph.decode_v2_ns_per_edge", "ns", false),
    layer("gpsa-graph.seek_ns_per_record", "ns", false),
    layer("gpsa-graph.snapshot_decode_ns_per_edge", "ns", false),
    layer("gpsa-graph.overlay_apply_us", "us", false),
    layer("gpsa-graph.delta_append_us", "us", false),
    layer("gpsa-graph.preprocess_edges_per_s", "1/s", true),
    layer("gpsa-graph.v2_bytes_per_edge", "B", false),
    layer("gpsa-core.emit_ns_per_edge", "ns", false),
    layer("gpsa-core.fold_sum_ns_per_msg", "ns", false),
    layer("gpsa-core.fold_min_ns_per_msg", "ns", false),
    layer("gpsa-core.value_create_us", "us", false),
    layer("gpsa-core.commit_us", "us", false),
    layer("gpsa-core.frontier_iter_ns_per_set_bit", "ns", false),
    layer("gpsa-core.sync_oracle_ms", "ms", false),
    layer("gpsa-core.dispatch_us", "us", false),
    layer("gpsa-core.fold_us", "us", false),
    layer("gpsa-core.commit_total_us", "us", false),
    layer("gpsa-core.slab_wait_us", "us", false),
    layer("gpsa-core.first_batch_us", "us", false),
    layer("gpsa-core.step_fixed_us", "us", false),
    layer("gpsa-core.run_overhead_ms", "ms", false),
    layer("gpsa-core.msgs_per_s", "1/s", true),
    layer("gpsa-core.messages", "count", false),
    layer("gpsa-core.supersteps", "count", false),
    layer("gpsa-core.edges_streamed", "count", false),
    layer("gpsa-core.edge_bytes_streamed", "B", false),
    layer("gpsa-core.edges_skipped", "count", true),
    layer("gpsa-core.seeded_frontier", "count", false),
    layer("gpsa-core.retry_attempts", "count", false),
    layer("gpsa-core.pool_hit_rate", "ratio", true),
    layer("gpsa-core.step_residual_share", "ratio", false),
    layer("actor.send_ns_per_msg", "ns", false),
    layer("actor.pingpong_us", "us", false),
    layer("actor.fanout_ns_per_msg", "ns", false),
    layer("actor.spawn_shutdown_us", "us", false),
    layer("actor.steals", "count", false),
    layer("actor.parks", "count", false),
    layer("actor.msgs_per_activation", "ratio", true),
    layer("gpsa-baselines.seq_ms", "ms", false),
    layer("gpsa-baselines.seq_relaxations", "count", false),
    layer("gpsa-serve.queue_wait_ms_p50", "ms", false),
    layer("gpsa-serve.queue_wait_ms_tail", "ms", false),
    layer("gpsa-serve.run_ms_p50", "ms", false),
    layer("gpsa-serve.direct_run_ms_p50", "ms", false),
    layer("gpsa-serve.overhead_ratio", "ratio", false),
    layer("gpsa-serve.reply_overhead_ms_p50", "ms", false),
    layer("gpsa-serve.cache_hit_ms_p50", "ms", false),
    layer("gpsa-serve.streamed_overhead_ms_p50", "ms", false),
    layer("gpsa-serve.json_encode_ns_per_value", "ns", false),
    layer("gpsa-serve.json_decode_ns_per_value", "ns", false),
    layer("gpsa-serve.journal_append_us", "us", false),
    layer("gpsa-serve.register_ms", "ms", false),
    layer("gpsa-serve.cache_hit_rate", "ratio", true),
    layer("gpsa-serve.shed", "count", false),
    layer("gpsa-serve.retries", "count", false),
    layer("gpsa-serve.jobs_failed", "count", false),
    layer("gpsa-dist.step_ms_p50", "ms", false),
    layer("gpsa-dist.commit_ms_p50", "ms", false),
    layer("gpsa-dist.shard_setup_ms", "ms", false),
    layer("gpsa-dist.remote_share", "ratio", false),
    layer("gpsa-dist.vs_engine_ratio", "ratio", false),
    layer("benchmark.trace_overhead_share", "ratio", false),
    layer("benchmark.peak_rss_mb", "MB", false),
    layer("benchmark.op_tail_ms", "ms", false),
];

/// Per-layer samples of one traced pass; a metric's value is the median
/// of its samples (counts that repeat exactly stay exact).
#[derive(Debug, Default)]
pub struct Layers {
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Layers {
    /// Add one sample of `name`.
    pub fn push(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not a per-layer metric"
        );
        self.samples.entry(name).or_default().push(value);
    }

    /// Give `name` one value, replacing any samples.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.samples.remove(name);
        self.push(name, value);
    }

    /// Median of what was pushed for `name`, 0 when nothing was.
    pub fn value(&self, name: &str) -> f64 {
        self.samples.get(name).map_or(0.0, |v| stats::median(v))
    }

    /// Every per-layer metric, in table order.
    pub fn metrics(&self) -> Vec<(MetricDef, f64)> {
        PER_LAYER.iter().map(|m| (*m, self.value(m.name))).collect()
    }
}

/// The `metrics` object of a result line.
pub fn metrics_json(values: &[(MetricDef, f64)]) -> Json {
    values.iter().fold(Json::obj(), |obj, (def, value)| {
        obj.set(
            def.name,
            Json::obj().set("value", *value).set("unit", def.unit),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WORKLOADS;

    fn names(list: &[Json]) -> Vec<&str> {
        list.iter()
            .map(|m| m.get("name").and_then(Json::as_str).unwrap())
            .collect()
    }

    /// `BENCHMARK.json` and the tables above say the same thing.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let list = |key: &str| doc.get(key).and_then(Json::as_arr).unwrap().to_vec();

        let workloads = list("workloads");
        assert_eq!(
            names(&workloads),
            WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>()
        );
        for (json, defs) in [
            (list("end_to_end"), &END_TO_END[..]),
            (list("per_layer"), &PER_LAYER[..]),
        ] {
            assert_eq!(
                names(&json),
                defs.iter().map(|d| d.name).collect::<Vec<_>>()
            );
            for (j, d) in json.iter().zip(defs) {
                assert_eq!(j.get("unit").and_then(Json::as_str), Some(d.unit));
                let better = if d.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                assert_eq!(j.get("better").and_then(Json::as_str), Some(better));
                assert_eq!(j.get("bound").and_then(Json::as_f64), d.bound, "{}", d.name);
            }
        }
        assert!(PER_LAYER.len() <= 128);
    }
}
