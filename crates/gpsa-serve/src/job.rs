//! Job model: what a client submits, what the server runs, what comes
//! back.
//!
//! Vertex values cross the wire as **u32 bit patterns** (`f32::to_bits`
//! for float-valued programs), so a served result is byte-for-byte
//! identical to a direct in-process [`Engine::run`] — decimal rendering
//! of floats could silently round and the acceptance tests compare bits.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::SyncSender;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gpsa::programs::{Bfs, ConnectedComponents, PageRank, Sssp};
use gpsa::{Engine, EngineError, Termination};
use gpsa_graph::GraphSnapshot;
use gpsa_metrics::timer::Timer;

use crate::error::ServeError;
use crate::json::Json;
use crate::stats::ServerStats;

/// Admission priority. High-priority jobs are popped from the queue
/// before normal ones; within a class the order is FIFO.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Priority {
    /// Jumps the normal queue.
    High,
    /// The default class.
    #[default]
    Normal,
}

impl Priority {
    /// Wire name.
    pub fn as_str(&self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
        }
    }

    /// Parse a wire name; anything but `"high"` is normal.
    pub fn parse(s: &str) -> Priority {
        if s == "high" {
            Priority::High
        } else {
            Priority::Normal
        }
    }
}

/// What kind of value array a job produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueType {
    /// `f32` values shipped as `to_bits()` patterns (PageRank).
    F32,
    /// Plain `u32` values (BFS levels, CC labels, SSSP distances).
    U32,
}

impl ValueType {
    /// Wire name.
    pub fn as_str(&self) -> &'static str {
        match self {
            ValueType::F32 => "f32",
            ValueType::U32 => "u32",
        }
    }

    /// Parse a wire name.
    pub fn parse(s: &str) -> Option<ValueType> {
        match s {
            "f32" => Some(ValueType::F32),
            "u32" => Some(ValueType::U32),
            _ => None,
        }
    }
}

/// A parsed, validated algorithm selection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AlgorithmSpec {
    /// PageRank for a fixed number of supersteps.
    PageRank {
        /// Damping factor.
        damping: f32,
        /// Supersteps to run.
        supersteps: u64,
    },
    /// BFS hop distances from `root`.
    Bfs {
        /// Source vertex.
        root: u32,
    },
    /// Connected components by min-label propagation.
    Cc,
    /// SSSP with the engine's deterministic synthetic weights.
    Sssp {
        /// Source vertex.
        root: u32,
    },
}

/// Quiescence bound applied to BFS / CC / SSSP jobs.
const QUIESCENCE_CAP: u64 = 10_000;

impl AlgorithmSpec {
    /// Wire name of the algorithm.
    pub fn name(&self) -> &'static str {
        match self {
            AlgorithmSpec::PageRank { .. } => "pagerank",
            AlgorithmSpec::Bfs { .. } => "bfs",
            AlgorithmSpec::Cc => "cc",
            AlgorithmSpec::Sssp { .. } => "sssp",
        }
    }

    /// Parse from the wire `algorithm` + `params` fields. Defaults:
    /// PageRank `damping=0.85, supersteps=5`; BFS/SSSP `root=0`.
    pub fn parse(algorithm: &str, params: &Json) -> Result<AlgorithmSpec, ServeError> {
        let f = |k: &str| params.get(k).and_then(Json::as_f64);
        let u = |k: &str| params.get(k).and_then(Json::as_u64);
        match algorithm {
            "pagerank" => {
                let damping = f("damping").unwrap_or(0.85) as f32;
                if !(0.0..=1.0).contains(&damping) {
                    return Err(ServeError::BadRequest(format!(
                        "damping {damping} outside [0, 1]"
                    )));
                }
                Ok(AlgorithmSpec::PageRank {
                    damping,
                    supersteps: u("supersteps").unwrap_or(5),
                })
            }
            "bfs" => Ok(AlgorithmSpec::Bfs {
                root: u("root").unwrap_or(0) as u32,
            }),
            "cc" => Ok(AlgorithmSpec::Cc),
            "sssp" => Ok(AlgorithmSpec::Sssp {
                root: u("root").unwrap_or(0) as u32,
            }),
            other => Err(ServeError::BadRequest(format!(
                "unknown algorithm {other:?} (want pagerank|bfs|cc|sssp)"
            ))),
        }
    }

    /// The wire `params` object for this spec (client-side request
    /// building; the server re-canonicalizes on parse).
    pub fn params_json(&self) -> Json {
        match *self {
            AlgorithmSpec::PageRank {
                damping,
                supersteps,
            } => Json::obj()
                .set("damping", Json::float(damping as f64))
                .set("supersteps", Json::num(supersteps)),
            AlgorithmSpec::Bfs { root } | AlgorithmSpec::Sssp { root } => {
                Json::obj().set("root", Json::num(root as u64))
            }
            AlgorithmSpec::Cc => Json::obj(),
        }
    }

    /// The canonical parameter string used in cache keys. Floats are
    /// rendered by bit pattern so two requests that parse to the same
    /// `f32` always share a key.
    pub fn canonical_params(&self) -> String {
        match *self {
            AlgorithmSpec::PageRank {
                damping,
                supersteps,
            } => {
                format!(
                    "damping_bits={},supersteps={}",
                    damping.to_bits(),
                    supersteps
                )
            }
            AlgorithmSpec::Bfs { root } | AlgorithmSpec::Sssp { root } => format!("root={root}"),
            AlgorithmSpec::Cc => String::new(),
        }
    }

    /// The termination mode this algorithm runs under.
    pub fn termination(&self) -> Termination {
        match *self {
            AlgorithmSpec::PageRank { supersteps, .. } => Termination::Supersteps(supersteps),
            AlgorithmSpec::Bfs { .. } | AlgorithmSpec::Cc | AlgorithmSpec::Sssp { .. } => {
                Termination::Quiescence {
                    max_supersteps: QUIESCENCE_CAP,
                }
            }
        }
    }

    /// The value representation this algorithm produces.
    pub fn value_type(&self) -> ValueType {
        match self {
            AlgorithmSpec::PageRank { .. } => ValueType::F32,
            _ => ValueType::U32,
        }
    }
}

/// The tenant id used when a submission carries none.
pub const DEFAULT_TENANT: &str = "default";

/// A validated submission.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Which resident graph to run against.
    pub graph_id: String,
    /// What to run.
    pub algorithm: AlgorithmSpec,
    /// Queue class.
    pub priority: Priority,
    /// Wall-clock budget from submission to completion, if any.
    pub deadline: Option<Duration>,
    /// Client-supplied idempotency key. Two submissions with the same key
    /// are the same logical job: the second attaches to the first's
    /// in-flight run or is answered from its committed result, even
    /// across a server restart. Keys are journaled with the job.
    pub idempotency_key: Option<String>,
    /// Which tenant this job bills against. Quotas and fair-queue
    /// scheduling key on this; submissions without a `tenant_id` land on
    /// [`DEFAULT_TENANT`].
    pub tenant: String,
}

/// A shared cancellation flag between a connection thread and the
/// scheduler. Set when the submitting client disconnects (or its deadline
/// lapses with nobody waiting); the scheduler reaps the job at the next
/// opportunity — queued jobs immediately, running jobs when they finish.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Flip the token. Idempotent.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether [`CancelToken::cancel`] has been called on any clone.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// What a completed run produced (the cacheable part of a response).
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// How to interpret `values_u32`.
    pub value_type: ValueType,
    /// Final vertex values as u32 bit patterns, shared with the cache.
    pub values_u32: Arc<Vec<u32>>,
    /// Supersteps the run executed.
    pub supersteps: u64,
    /// Messages folded by compute actors.
    pub messages: u64,
    /// CSR body words dispatchers actually read (frontier-aware selective
    /// dispatch; see `RunReport::edges_streamed`). 0 for cached results
    /// parsed from pre-counter journals.
    pub edges_streamed: u64,
    /// CSR body words skipped by sparse seeks.
    pub edges_skipped: u64,
    /// Mean frontier density over the run's supersteps.
    pub mean_frontier_density: f64,
    /// Self-healing retries the run needed (0 for a clean run).
    pub retry_attempts: u32,
    /// Per-superstep phase timings (dispatch/fold/commit/slab-wait µs).
    /// Empty for cached results: timing describes a run, not a value set,
    /// so the cache does not spill it.
    pub phases: Vec<gpsa::PhaseBreakdown>,
}

impl JobOutcome {
    /// Append the six run counters to `j`, in the order every record that
    /// carries them (reply frame, stream end frame, cache spill) uses.
    pub(crate) fn set_counters(&self, j: Json) -> Json {
        j.set("supersteps", Json::num(self.supersteps))
            .set("messages", Json::num(self.messages))
            .set("edges_streamed", Json::num(self.edges_streamed))
            .set("edges_skipped", Json::num(self.edges_skipped))
            .set(
                "mean_frontier_density",
                Json::float(self.mean_frontier_density),
            )
            .set("retry_attempts", Json::num(self.retry_attempts as u64))
    }

    /// Decode a record written by [`set_counters`](Self::set_counters)
    /// around the given values, with no phase timings. A missing counter
    /// reads as 0 (a record from before it existed).
    pub(crate) fn from_counters(
        j: &Json,
        value_type: ValueType,
        values_u32: Arc<Vec<u32>>,
    ) -> JobOutcome {
        let u = |k: &str| j.get(k).and_then(Json::as_u64).unwrap_or(0);
        JobOutcome {
            value_type,
            values_u32,
            supersteps: u("supersteps"),
            messages: u("messages"),
            edges_streamed: u("edges_streamed"),
            edges_skipped: u("edges_skipped"),
            mean_frontier_density: j
                .get("mean_frontier_density")
                .and_then(Json::as_f64)
                .unwrap_or(0.0),
            retry_attempts: u("retry_attempts") as u32,
            phases: Vec::new(),
        }
    }

    /// The values decoded as `f32` (PageRank), if that is their type.
    pub fn values_f32(&self) -> Option<Vec<f32>> {
        match self.value_type {
            ValueType::F32 => Some(self.values_u32.iter().map(|b| f32::from_bits(*b)).collect()),
            ValueType::U32 => None,
        }
    }
}

/// A full response to one submission.
#[derive(Debug, Clone)]
pub struct JobResponse {
    /// Server-assigned job id (also assigned to cache-hit answers).
    pub job_id: u64,
    /// `true` when the result came from the cache and no superstep ran.
    pub cache_hit: bool,
    /// The result payload.
    pub outcome: Arc<JobOutcome>,
    /// Time spent waiting in the admission queue (zero for cache hits).
    pub queue_wait: Duration,
    /// Time spent running the engine (zero for cache hits).
    pub run_time: Duration,
    /// Server counters at reply time.
    pub stats: ServerStats,
}

impl JobResponse {
    /// Append the trailer both reply frames (monolithic and stream end)
    /// close with: queue wait, run time, server stats.
    pub(crate) fn set_trailer(&self, j: Json) -> Json {
        j.set(
            "queue_wait_us",
            Json::num(self.queue_wait.as_micros() as u64),
        )
        .set("run_us", Json::num(self.run_time.as_micros() as u64))
        .set("stats", self.stats.to_json())
    }

    /// Decode a [`set_trailer`](Self::set_trailer) trailer as
    /// `(queue_wait, run_time, stats)`; missing fields read as zero.
    pub(crate) fn trailer_from_json(j: &Json) -> (Duration, Duration, ServerStats) {
        let us = |k: &str| Duration::from_micros(j.get(k).and_then(Json::as_u64).unwrap_or(0));
        let stats = j
            .get("stats")
            .map(ServerStats::from_json)
            .unwrap_or_default();
        (us("queue_wait_us"), us("run_us"), stats)
    }

    /// Render as the protocol's success frame.
    pub fn to_json(&self) -> Json {
        let head = Json::obj()
            .set("ok", Json::Bool(true))
            .set("job_id", Json::num(self.job_id))
            .set("cache_hit", Json::Bool(self.cache_hit))
            .set("value_type", Json::str(self.outcome.value_type.as_str()))
            .set("values_u32", Json::U32s(self.outcome.values_u32.clone()));
        let body = self.outcome.set_counters(head).set(
            "phases",
            Json::Arr(
                self.outcome
                    .phases
                    .iter()
                    .map(|p| {
                        Json::Arr(vec![
                            Json::num(p.dispatch_us),
                            Json::num(p.fold_us),
                            Json::num(p.commit_us),
                            Json::num(p.slab_wait_us),
                        ])
                    })
                    .collect(),
            ),
        );
        self.set_trailer(body)
    }

    /// Parse a success frame (the client-side inverse of
    /// [`JobResponse::to_json`]).
    pub fn from_json(j: &Json) -> Result<JobResponse, ServeError> {
        let bad = |m: &str| ServeError::BadRequest(format!("malformed response: {m}"));
        let value_type = j
            .get("value_type")
            .and_then(Json::as_str)
            .and_then(ValueType::parse)
            .ok_or_else(|| bad("value_type"))?;
        let values_u32 = j
            .get("values_u32")
            .and_then(Json::to_u32s)
            .ok_or_else(|| bad("values_u32"))?;
        let u = |k: &str| j.get(k).and_then(Json::as_u64).unwrap_or(0);
        let phases = j
            .get("phases")
            .and_then(Json::as_arr)
            .map(|rows| {
                rows.iter()
                    .filter_map(|row| {
                        let n = |i: usize| row.u64_at(i);
                        Some(gpsa::PhaseBreakdown {
                            dispatch_us: n(0)?,
                            fold_us: n(1)?,
                            commit_us: n(2)?,
                            slab_wait_us: n(3)?,
                        })
                    })
                    .collect()
            })
            .unwrap_or_default();
        let outcome = JobOutcome::from_counters(j, value_type, values_u32);
        let (queue_wait, run_time, stats) = JobResponse::trailer_from_json(j);
        Ok(JobResponse {
            job_id: u("job_id"),
            cache_hit: j.get("cache_hit").and_then(Json::as_bool).unwrap_or(false),
            outcome: Arc::new(JobOutcome { phases, ..outcome }),
            queue_wait,
            run_time,
            stats,
        })
    }
}

/// What comes back on a ticket's reply channel: the job result plus a
/// stats snapshot taken at reply time. Carrying the snapshot outside the
/// `Result` means **error** frames also ship the server counters, as the
/// protocol promises.
pub type SubmitReply = (Result<JobResponse, ServeError>, ServerStats);

/// A job in flight inside the server: the spec plus its reply channel and
/// the [`Timer`] that slices queue wait from run time.
#[derive(Debug)]
pub struct JobTicket {
    /// Server-assigned id.
    pub job_id: u64,
    /// The validated submission.
    pub spec: JobSpec,
    /// When the scheduler accepted the job.
    pub submitted: Instant,
    /// Phase timer started at acceptance; the runner laps it at run start
    /// ("queue_wait") and completion ("run").
    pub timer: Timer,
    /// Where the final [`JobResponse`] (or error) goes; the connection
    /// thread blocks on the other end.
    pub reply: SyncSender<SubmitReply>,
    /// Set by the connection thread when the submitter goes away; the
    /// scheduler reaps cancelled tickets instead of running them.
    pub cancel: CancelToken,
    /// Scratch bytes this job charges against its tenant's budget while
    /// queued or running (estimated as the graph's value-array size at
    /// admission).
    pub scratch_bytes: u64,
}

impl JobTicket {
    /// Time remaining before this job's deadline, if it has one.
    /// `Some(ZERO)` means already expired.
    pub fn remaining(&self) -> Option<Duration> {
        self.spec
            .deadline
            .map(|d| d.saturating_sub(self.submitted.elapsed()))
    }
}

/// Run one job against a pre-opened shared graph, writing scratch state
/// to `value_file`. This is the only place the serve layer touches the
/// engine; the `engine`'s config must already carry the job's
/// termination, scratch dir and watchdog settings.
pub fn run_job(
    engine: &Engine,
    graph: &Arc<GraphSnapshot>,
    value_file: &Path,
    alg: &AlgorithmSpec,
) -> Result<JobOutcome, EngineError> {
    match *alg {
        AlgorithmSpec::PageRank { damping, .. } => {
            let r = engine.run_snapshot(graph, value_file, PageRank { damping })?;
            Ok(JobOutcome {
                value_type: ValueType::F32,
                values_u32: Arc::new(r.values.iter().map(|v| v.to_bits()).collect()),
                supersteps: r.supersteps,
                messages: r.messages,
                edges_streamed: r.edges_streamed,
                edges_skipped: r.edges_skipped,
                mean_frontier_density: r.mean_frontier_density(),
                retry_attempts: r.retry_attempts,
                phases: r.phases,
            })
        }
        AlgorithmSpec::Bfs { root } => {
            let r = engine.run_snapshot(graph, value_file, Bfs { root })?;
            Ok(u32_outcome(r))
        }
        AlgorithmSpec::Cc => {
            let r = engine.run_snapshot(graph, value_file, ConnectedComponents)?;
            Ok(u32_outcome(r))
        }
        AlgorithmSpec::Sssp { root } => {
            let r = engine.run_snapshot(graph, value_file, Sssp { root })?;
            Ok(u32_outcome(r))
        }
    }
}

fn u32_outcome(r: gpsa::RunReport<u32>) -> JobOutcome {
    let mean_frontier_density = r.mean_frontier_density();
    JobOutcome {
        value_type: ValueType::U32,
        values_u32: Arc::new(r.values),
        supersteps: r.supersteps,
        messages: r.messages,
        edges_streamed: r.edges_streamed,
        edges_skipped: r.edges_skipped,
        mean_frontier_density,
        retry_attempts: r.retry_attempts,
        phases: r.phases,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algorithm_parse_defaults_and_errors() {
        let pr = AlgorithmSpec::parse("pagerank", &Json::obj()).unwrap();
        assert_eq!(
            pr,
            AlgorithmSpec::PageRank {
                damping: 0.85,
                supersteps: 5
            }
        );
        assert_eq!(pr.termination(), Termination::Supersteps(5));
        assert_eq!(pr.value_type(), ValueType::F32);

        let bfs = AlgorithmSpec::parse("bfs", &Json::obj().set("root", Json::num(3))).unwrap();
        assert_eq!(bfs, AlgorithmSpec::Bfs { root: 3 });
        assert!(AlgorithmSpec::parse("pagerankz", &Json::obj()).is_err());
        assert!(
            AlgorithmSpec::parse("pagerank", &Json::obj().set("damping", Json::float(1.5)))
                .is_err()
        );
    }

    #[test]
    fn canonical_params_are_bit_stable() {
        let a = AlgorithmSpec::parse("pagerank", &Json::obj().set("damping", Json::float(0.85)))
            .unwrap();
        let b = AlgorithmSpec::PageRank {
            damping: 0.85,
            supersteps: 5,
        };
        assert_eq!(a.canonical_params(), b.canonical_params());
        assert_eq!(AlgorithmSpec::Cc.canonical_params(), "");
    }

    #[test]
    fn params_json_reparses_to_the_same_spec() {
        let specs = [
            AlgorithmSpec::PageRank {
                damping: 0.9,
                supersteps: 3,
            },
            AlgorithmSpec::Bfs { root: 7 },
            AlgorithmSpec::Cc,
            AlgorithmSpec::Sssp { root: 2 },
        ];
        for s in specs {
            let back = AlgorithmSpec::parse(s.name(), &s.params_json()).unwrap();
            assert_eq!(back, s);
        }
    }

    #[test]
    fn response_json_roundtrips_bit_exact() {
        let resp = JobResponse {
            job_id: 42,
            cache_hit: true,
            outcome: Arc::new(JobOutcome {
                value_type: ValueType::F32,
                values_u32: Arc::new(vec![0.1f32.to_bits(), f32::NAN.to_bits(), u32::MAX]),
                supersteps: 5,
                messages: 17,
                edges_streamed: 120,
                edges_skipped: 36,
                mean_frontier_density: 0.25,
                retry_attempts: 1,
                phases: vec![
                    gpsa::PhaseBreakdown {
                        dispatch_us: 100,
                        fold_us: 40,
                        commit_us: 7,
                        slab_wait_us: 3,
                    },
                    gpsa::PhaseBreakdown {
                        dispatch_us: 80,
                        fold_us: 35,
                        commit_us: 6,
                        slab_wait_us: 0,
                    },
                ],
            }),
            queue_wait: Duration::from_micros(250),
            run_time: Duration::from_micros(1300),
            stats: ServerStats {
                jobs_completed: 1,
                ..ServerStats::default()
            },
        };
        let back = JobResponse::from_json(&resp.to_json()).unwrap();
        assert_eq!(back.job_id, 42);
        assert!(back.cache_hit);
        assert_eq!(back.outcome.values_u32, resp.outcome.values_u32);
        assert_eq!(back.outcome.value_type, ValueType::F32);
        assert_eq!(back.queue_wait, resp.queue_wait);
        assert_eq!(back.run_time, resp.run_time);
        assert_eq!(back.stats.jobs_completed, 1);
        assert_eq!(back.outcome.phases, resp.outcome.phases);
        let decoded = back.outcome.values_f32().unwrap();
        assert_eq!(decoded[0].to_bits(), 0.1f32.to_bits());
        assert!(decoded[1].is_nan());
    }
}
