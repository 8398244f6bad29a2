//! What the five workloads share: timed set-up, the closed measurement
//! loop, and turning samples into the metrics of `BENCHMARK.json`.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use gpsa_metrics::ProcessCpu;

use crate::inputs::Scale;
use crate::json::Json;
use crate::layers::{Layers, MetricDef, END_TO_END};
use crate::stats;
use crate::trace::Tracer;
use crate::WorkloadDef;

/// Result type of everything that can fail an op or a run.
pub type Res<T> = Result<T, String>;

/// Untimed ops run at the end of every set-up; charged to `setup_s`.
const WARM_UP_OPS: u64 = 3;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// The measured phase alternates op segments with single-thread baseline
/// reps this many times, so machine drift hits both alike.
const SEGMENTS: u32 = 24;
/// Baseline reps after each segment.
const BASELINE_REPS: usize = 2;

/// One invocation.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Which workload.
    pub workload: &'static WorkloadDef,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Stop after this many ops instead (tests, count-based comparisons).
    pub max_ops: Option<u64>,
    /// Traced run: per-layer metrics. Otherwise end-to-end metrics.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// Scratch directory of this invocation; removed on success.
    pub work: PathBuf,
}

/// A workload: how to build it, warm it up, measure it and verify it.
pub trait Workload: Sized {
    /// Generate the inputs, write them under `dir`, start what serves
    /// them. Timed: with the warm-up ops this is `setup_s`.
    fn build(ctx: &Ctx, dir: &Path, t: &mut Tracer) -> Res<Self>;
    /// One untimed op.
    fn warm_up(&mut self, t: &mut Tracer) -> Res<()>;
    /// Untimed, after the last set-up: the in-RAM graph and reference
    /// values the measured phase compares against.
    fn prepare(&mut self) {}
    /// The measured phase.
    fn measure(&mut self, ctx: &Ctx, t: &mut Tracer, layers: &mut Layers) -> Measured;
    /// After the measured phase and after peak memory was read: checks too
    /// heavy to run beside the ops, the traced run's extra passes. An
    /// `Err` is a correctness failure.
    fn verify(self, ctx: &Ctx, m: &mut Measured, t: &mut Tracer, layers: &mut Layers) -> Res<()>;
}

/// A workload with one blocking caller, measured by [`closed_loop`].
pub trait SingleCaller {
    /// What an op returns for checking.
    type Out;
    /// The op a user waits for.
    fn op(&mut self, t: &mut Tracer, layers: Option<&mut Layers>) -> Res<Self::Out>;
    /// Is the output right? Runs outside the op's timing.
    fn check(&mut self, out: Self::Out) -> Res<()>;
    /// One rep of the tuned single thread doing the same op on the in-RAM
    /// graph; returns its time in ms.
    fn baseline_rep(&mut self) -> f64;
}

/// Raw samples of one measured phase.
#[derive(Debug, Default)]
pub struct Measured {
    /// Wall time of each correct op, ms.
    pub op_ms: Vec<f64>,
    /// The same, split by whether the op recorded spans (traced run).
    pub traced_ms: Vec<f64>,
    /// Ops of a traced run that recorded no spans.
    pub untraced_ms: Vec<f64>,
    /// Ops started.
    pub attempted: u64,
    /// Ops that errored, were refused, or returned a wrong result.
    pub failed: u64,
    /// Wall time spent in ops (harness gaps excluded), s.
    pub busy_s: f64,
    /// Process CPU spent in ops, s.
    pub cpu_s: f64,
    /// Single-thread baseline reps, ms.
    pub baseline_ms: Vec<f64>,
    /// `cost_ratio`, where it is not `op_p50_ms` ÷ the median baseline rep.
    pub cost_ratio: Option<f64>,
    /// First few failure messages.
    pub errors: Vec<String>,
}

impl Measured {
    /// Count a failed op.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(why);
        }
    }
}

fn cpu_now() -> Duration {
    ProcessCpu::snapshot().map_or(Duration::ZERO, |s| s.cpu_time)
}

/// The closed loop of a single blocking caller: the next op starts when
/// the previous one returned. Runs for `ctx.seconds`, in [`SEGMENTS`]
/// segments of ops, each followed by baseline reps.
pub fn closed_loop<W: SingleCaller>(
    w: &mut W,
    ctx: &Ctx,
    t: &mut Tracer,
    layers: &mut Layers,
) -> Measured {
    let mut m = Measured::default();
    let started = Instant::now();
    let window = Duration::from_secs_f64(ctx.seconds);
    let ops_per_segment = ctx.max_ops.map(|n| n.div_ceil(u64::from(SEGMENTS)).max(1));
    let done = |m: &Measured| match ctx.max_ops {
        Some(n) => m.attempted >= n,
        None => started.elapsed() >= window,
    };
    let mut segment = 0;
    while !done(&m) {
        segment += 1;
        let segment_end = window * segment / SEGMENTS;
        let segment_ops = ops_per_segment.map(|n| m.attempted + n);
        let (wall0, cpu0) = (Instant::now(), cpu_now());
        while !done(&m)
            && match segment_ops {
                Some(n) => m.attempted < n,
                None => started.elapsed() < segment_end,
            }
        {
            let traced = ctx.trace && m.attempted % 2 == 0;
            t.start_op(m.attempted, traced);
            m.attempted += 1;
            let span = t.begin("op");
            let op_started = Instant::now();
            let out = w.op(t, ctx.trace.then_some(&mut *layers));
            let ms = op_started.elapsed().as_secs_f64() * 1e3;
            t.end(span);
            match out.and_then(|out| w.check(out)) {
                Ok(()) => {
                    m.op_ms.push(ms);
                    if ctx.trace {
                        if traced {
                            m.traced_ms.push(ms);
                        } else {
                            m.untraced_ms.push(ms);
                        }
                    }
                }
                Err(why) => m.fail(why),
            }
        }
        m.busy_s += wall0.elapsed().as_secs_f64();
        m.cpu_s += cpu_now().saturating_sub(cpu0).as_secs_f64();
        for _ in 0..BASELINE_REPS {
            m.baseline_ms.push(w.baseline_rep());
        }
    }
    m
}

/// `VmHWM` of this process, MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What one invocation produced.
#[derive(Debug)]
pub struct Outcome {
    /// Every op correct, every check passed.
    pub correct: bool,
    /// Ops started in the measured phase.
    pub attempted: u64,
    /// Ops that failed.
    pub failed: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<(MetricDef, f64)>,
    /// Sample counts, the tail percentile used, errors.
    pub info: Json,
    /// The span file of a traced run.
    pub trace: Option<Json>,
}

/// Run workload `W` as `ctx` asks.
pub fn run<W: Workload>(ctx: &Ctx) -> Res<Outcome> {
    let mut t = Tracer::new();
    let mut layers = Layers::default();

    // Set-up, several times: its median is steadier than one sample, and
    // a later change that moves work into set-up shows here.
    let setups = if ctx.trace { 1 } else { SETUPS };
    let mut setup_s = Vec::with_capacity(setups);
    let mut built: Option<W> = None;
    for k in 0..setups {
        drop(built.take());
        let dir = ctx.work.join(format!("setup-{k}"));
        if k > 0 {
            let _ = std::fs::remove_dir_all(ctx.work.join(format!("setup-{}", k - 1)));
        }
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        t.start_op(u64::MAX, ctx.trace);
        let span = t.begin("setup");
        let started = Instant::now();
        let mut w = W::build(ctx, &dir, &mut t)?;
        for _ in 0..WARM_UP_OPS {
            w.warm_up(&mut t)?;
        }
        setup_s.push(started.elapsed().as_secs_f64());
        t.end(span);
        built = Some(w);
    }
    let mut w = built.expect("at least one set-up ran");
    w.prepare();

    let mut m = w.measure(ctx, &mut t, &mut layers);
    let peak_rss_mb = peak_rss_mb();
    let verified = w.verify(ctx, &mut m, &mut t, &mut layers);
    if let Err(why) = &verified {
        m.errors.push(format!("verify: {why}"));
    }
    if m.attempted == 0 {
        return Err("no op was attempted".into());
    }

    let mut sorted = m.op_ms.clone();
    stats::sort(&mut sorted);
    let tail = stats::tail_percentile(sorted.len(), ctx.workload.tail_percentile);
    let op_p50_ms = stats::percentile(&sorted, 50);
    let baseline_ms = stats::median(&m.baseline_ms);
    let correct_ops = m.op_ms.len() as f64;

    let metrics = if ctx.trace {
        layers.push("benchmark.peak_rss_mb", peak_rss_mb);
        layers.push("benchmark.op_tail_ms", stats::percentile(&sorted, tail));
        let untraced = stats::median(&m.untraced_ms);
        if untraced > 0.0 {
            layers.push(
                "benchmark.trace_overhead_share",
                (stats::median(&m.traced_ms) - untraced) / untraced,
            );
        }
        layers.metrics()
    } else {
        let value = |name: &str| match name {
            "setup_s" => stats::median(&setup_s),
            "op_p50_ms" => op_p50_ms,
            "ops_per_s" => correct_ops / m.busy_s.max(1e-9),
            "cpu_s_per_op" => m.cpu_s / correct_ops.max(1.0),
            "cost_ratio" => m.cost_ratio.unwrap_or(op_p50_ms / baseline_ms.max(1e-9)),
            other => unreachable!("no rule for end-to-end metric {other}"),
        };
        END_TO_END.iter().map(|d| (*d, value(d.name))).collect()
    };

    let info = Json::obj()
        .set("workload", ctx.workload.name)
        .set("seed", ctx.seed)
        .set("seconds", ctx.seconds)
        .set("trace", ctx.trace)
        .set("op_samples", correct_ops)
        .set("op_tail_percentile", u64::from(tail))
        .set(
            "op_tail_samples_beyond",
            stats::samples_beyond(sorted.len(), tail) as u64,
        )
        .set("baseline_samples", m.baseline_ms.len() as u64)
        .set("baseline_ms_p50", baseline_ms)
        .set("setup_samples", setup_s.len() as u64)
        .set(
            "errors",
            Json::Arr(m.errors.iter().map(|e| e.as_str().into()).collect()),
        );
    Ok(Outcome {
        correct: m.failed == 0 && verified.is_ok(),
        attempted: m.attempted,
        failed: m.failed,
        metrics,
        info,
        trace: ctx.trace.then(|| t.to_json()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WORKLOADS;

    /// Every fourth op returns a wrong result.
    struct Flaky(u64);

    impl SingleCaller for Flaky {
        type Out = u64;
        fn op(&mut self, _: &mut Tracer, _: Option<&mut Layers>) -> Res<u64> {
            self.0 += 1;
            Ok(self.0)
        }
        fn check(&mut self, out: u64) -> Res<()> {
            if out.is_multiple_of(4) {
                Err(format!("op {out} is wrong"))
            } else {
                Ok(())
            }
        }
        fn baseline_rep(&mut self) -> f64 {
            1.0
        }
    }

    #[test]
    fn a_wrong_result_is_a_failed_op_and_has_no_latency() {
        let ctx = Ctx {
            workload: &WORKLOADS[0],
            seed: 0,
            seconds: 60.0,
            max_ops: Some(16),
            trace: true,
            scale: Scale::TINY,
            work: PathBuf::new(),
        };
        let m = closed_loop(
            &mut Flaky(0),
            &ctx,
            &mut Tracer::new(),
            &mut Layers::default(),
        );
        assert_eq!((m.attempted, m.failed), (16, 4));
        assert_eq!(m.op_ms.len(), 12);
        assert_eq!(m.traced_ms.len() + m.untraced_ms.len(), 12);
        assert_eq!(m.baseline_ms.len(), 16 * BASELINE_REPS);
        assert_eq!(m.errors[0], "op 4 is wrong");
    }
}
