//! `bench agree`: do two result sets of the same code agree within the
//! benchmark's own bounds?

use crate::json::Json;
use crate::layers::{MetricDef, END_TO_END};
use crate::WORKLOADS;

/// Per-layer counts that must repeat exactly between two sets made with
/// the same seed and op count, and the workloads on which they do (on
/// `live_cc` and `serve_mix` the per-op median depends on how many ops a
/// timed run completed).
pub const EXACT_COUNTS: [(&str, &[&str]); 3] = [
    ("gpsa-core.supersteps", &["pr_dense", "bfs_grid", "dist_pr"]),
    ("gpsa-core.messages", &["pr_dense", "bfs_grid", "dist_pr"]),
    ("gpsa-dist.remote_share", &["dist_pr"]),
];

/// By what share of `first` is `second` worse? Negative when better.
pub fn worsening(def: &MetricDef, first: f64, second: f64) -> f64 {
    if first == 0.0 {
        return if second == 0.0 { 0.0 } else { f64::INFINITY };
    }
    let change = (second - first) / first.abs();
    if def.higher_is_better {
        -change
    } else {
        change
    }
}

/// One comparison that was made.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload.
    pub workload: String,
    /// Metric or check.
    pub what: String,
    /// Value in the first set.
    pub first: f64,
    /// Value in the second set.
    pub second: f64,
    /// Allowed worsening, when the row is a bounded metric.
    pub bound: Option<f64>,
    /// Did the row pass?
    pub ok: bool,
}

fn metric(set: &Json, kind: &str, workload: &str, name: &str) -> Option<f64> {
    set.get(kind)?
        .get(workload)?
        .get("metrics")?
        .get(name)?
        .get("value")?
        .as_f64()
}

/// Compare `second` against `first`. A metric passes when it is worse by
/// no more than its bound *in either direction of time*: two sets of the
/// same code have no parent and no change, so the check is symmetric.
/// Every workload must be present, correct, and free of failed ops.
pub fn compare(first: &Json, second: &Json) -> Vec<Row> {
    let mut rows = Vec::new();
    for w in &WORKLOADS {
        for (which, set) in [("first", first), ("second", second)] {
            let result = set.get("end_to_end").and_then(|e| e.get(w.name));
            let failed = result.and_then(|r| r.get("failed")).and_then(Json::as_f64);
            let correct = result
                .and_then(|r| r.get("correct"))
                .and_then(Json::as_bool);
            rows.push(Row {
                workload: w.name.into(),
                what: format!("{which} set: correct, no failed op"),
                first: failed.unwrap_or(f64::NAN),
                second: 0.0,
                bound: None,
                ok: failed == Some(0.0) && correct == Some(true),
            });
        }
        for def in &END_TO_END {
            let a = metric(first, "end_to_end", w.name, def.name);
            let b = metric(second, "end_to_end", w.name, def.name);
            let bound = def.bound.expect("end-to-end metrics are bounded");
            let ok = match (a, b) {
                (Some(a), Some(b)) => {
                    worsening(def, a, b) <= bound && worsening(def, b, a) <= bound
                }
                _ => false,
            };
            rows.push(Row {
                workload: w.name.into(),
                what: def.name.into(),
                first: a.unwrap_or(f64::NAN),
                second: b.unwrap_or(f64::NAN),
                bound: Some(bound),
                ok,
            });
        }
        for (name, on) in EXACT_COUNTS {
            if !on.contains(&w.name) {
                continue;
            }
            let a = metric(first, "per_layer", w.name, name);
            let b = metric(second, "per_layer", w.name, name);
            // Sets without a traced half have no counts to compare.
            if let (Some(a), Some(b)) = (a, b) {
                rows.push(Row {
                    workload: w.name.into(),
                    what: format!("{name} (exact)"),
                    first: a,
                    second: b,
                    bound: None,
                    ok: a == b,
                });
            }
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::metrics_json;

    fn set(op_p50_ms: f64, ops_per_s: f64, failed: u64) -> Json {
        let metrics: Vec<(MetricDef, f64)> = END_TO_END
            .iter()
            .map(|d| {
                let v = match d.name {
                    "op_p50_ms" => op_p50_ms,
                    "ops_per_s" => ops_per_s,
                    _ => 1.0,
                };
                (*d, v)
            })
            .collect();
        let result = Json::obj()
            .set("correct", failed == 0)
            .set("attempted", 10u64)
            .set("failed", failed)
            .set("metrics", metrics_json(&metrics));
        let per_workload = WORKLOADS
            .iter()
            .fold(Json::obj(), |o, w| o.set(w.name, result.clone()));
        Json::obj().set("end_to_end", per_workload)
    }

    fn bound(name: &str) -> f64 {
        END_TO_END
            .iter()
            .find(|d| d.name == name)
            .and_then(|d| d.bound)
            .unwrap()
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        let lower = END_TO_END.iter().find(|d| d.name == "op_p50_ms").unwrap();
        let higher = END_TO_END.iter().find(|d| d.name == "ops_per_s").unwrap();
        assert!((worsening(lower, 100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!((worsening(lower, 100.0, 90.0) + 0.10).abs() < 1e-12);
        assert!((worsening(higher, 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!((worsening(higher, 100.0, 110.0) + 0.10).abs() < 1e-12);
        assert_eq!(worsening(lower, 0.0, 0.0), 0.0);
        assert_eq!(worsening(lower, 0.0, 1.0), f64::INFINITY);
    }

    #[test]
    fn sets_agree_inside_the_bound_and_not_outside_it() {
        let base = set(100.0, 50.0, 0);
        assert!(compare(&base, &base).iter().all(|r| r.ok));

        let inside = set(100.0 * (1.0 + bound("op_p50_ms") * 0.9), 50.0, 0);
        assert!(compare(&base, &inside).iter().all(|r| r.ok));

        let outside = set(100.0 * (1.0 + bound("op_p50_ms") * 1.1), 50.0, 0);
        let bad: Vec<Row> = compare(&base, &outside)
            .into_iter()
            .filter(|r| !r.ok)
            .collect();
        assert_eq!(bad.len(), WORKLOADS.len());
        assert!(bad.iter().all(|r| r.what == "op_p50_ms"));
        // Symmetric: the slower set first fails just the same.
        assert!(compare(&outside, &base).iter().any(|r| !r.ok));

        let slower = set(100.0, 50.0 * (1.0 - bound("ops_per_s") * 1.1), 0);
        assert!(compare(&base, &slower)
            .iter()
            .any(|r| !r.ok && r.what == "ops_per_s"));
    }

    #[test]
    fn a_failed_op_or_a_missing_workload_never_agrees() {
        let base = set(100.0, 50.0, 0);
        assert!(compare(&base, &set(100.0, 50.0, 1)).iter().any(|r| !r.ok));
        assert!(compare(&base, &Json::obj()).iter().any(|r| !r.ok));
    }

    #[test]
    fn exact_counts_must_repeat_exactly() {
        let with_count = |n: f64| {
            let layer = Json::obj().set(
                "metrics",
                Json::obj().set("gpsa-core.supersteps", Json::obj().set("value", n)),
            );
            set(100.0, 50.0, 0).set("per_layer", Json::obj().set("bfs_grid", layer))
        };
        assert!(compare(&with_count(599.0), &with_count(599.0))
            .iter()
            .all(|r| r.ok));
        let rows = compare(&with_count(599.0), &with_count(600.0));
        assert!(rows
            .iter()
            .any(|r| !r.ok && r.what.starts_with("gpsa-core.supersteps")));
    }
}
