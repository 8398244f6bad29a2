//! Shared harness for the paper-reproduction benchmarks.
//!
//! Binaries (one per paper table/figure):
//!
//! | target | regenerates |
//! |---|---|
//! | `table1` | Table I (datasets) + §VI-B CSR compression numbers |
//! | `figures` | Figs. 7–10 (PR/CC/BFS × three engines per graph) |
//! | `fig11_cpu` | Fig. 11 (CPU utilization per engine) |
//! | `scalability` | per-superstep time vs worker threads |
//! | `bench_dist_recovery` | distributed recovery latency and barrier-commit overhead (`--features chaos`, self-gating) |
//!
//! Criterion bench (`benches/ablations.rs`): ablations of GPSA's design
//! choices (flag skipping, partitioning strategies, CSR degree inlining,
//! mmap vs explicit reads, dispatch/compute overlap, chunked dispatch).
//!
//! Performance claims are judged by the repository benchmark under
//! `benchmark/` (five workloads, COST-anchored end-to-end metrics), not
//! by these binaries.
//!
//! Knobs (flags on the binaries, env vars for the benches):
//! `--scale N` / `GPSA_SCALE` — dataset divisor vs Table I (default 256);
//! `--runs N` — repetitions averaged (default 3, as in the paper);
//! `--threads N` — worker threads per engine.

use std::path::PathBuf;
use std::time::Duration;

use gpsa::{Engine, EngineConfig, Termination};
use gpsa_algorithms::gpsa_programs::{Bfs, ConnectedComponents, PageRank};
use gpsa_algorithms::psw::{PswBfs, PswCc, PswPageRank};
use gpsa_algorithms::xs::{XsBfs, XsCc, XsPageRank};
use gpsa_baselines::graphchi::{PswConfig, PswEngine, PswTermination};
use gpsa_baselines::xstream::{XsConfig, XsEngine, XsTermination};
use gpsa_graph::datasets::Dataset;
use gpsa_graph::EdgeList;
use gpsa_metrics::CpuReport;

/// Harness-wide configuration.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Dataset divisor vs Table I sizes.
    pub scale: u64,
    /// Repetitions averaged per cell (the paper uses 3).
    pub runs: usize,
    /// Supersteps timed for the per-superstep mean (the paper uses 5).
    pub supersteps: u64,
    /// Worker threads per engine.
    pub threads: usize,
    /// Scratch directory.
    pub data_dir: PathBuf,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        let scale = std::env::var("GPSA_SCALE")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(256);
        HarnessConfig {
            scale,
            runs: 3,
            supersteps: 5,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            data_dir: std::env::temp_dir().join("gpsa-bench"),
        }
    }
}

impl HarnessConfig {
    /// Apply common `--scale/--runs/--threads/--data-dir` flags.
    pub fn apply_flags(mut self, argv: &[String]) -> Result<Self, String> {
        let mut i = 0;
        while i < argv.len() {
            match argv[i].as_str() {
                "--scale" => {
                    self.scale = next_val(argv, &mut i)?;
                }
                "--runs" => {
                    self.runs = next_val(argv, &mut i)?;
                }
                "--supersteps" => {
                    self.supersteps = next_val(argv, &mut i)?;
                }
                "--threads" => {
                    self.threads = next_val(argv, &mut i)?;
                }
                "--data-dir" => {
                    let v: String = next_val(argv, &mut i)?;
                    self.data_dir = PathBuf::from(v);
                }
                _ => i += 1,
            }
        }
        Ok(self)
    }
}

fn next_val<T: std::str::FromStr>(argv: &[String], i: &mut usize) -> Result<T, String> {
    let key = argv[*i].clone();
    let v = argv
        .get(*i + 1)
        .ok_or_else(|| format!("{key} needs a value"))?;
    let parsed = v.parse().map_err(|_| format!("bad value for {key}: {v}"))?;
    *i += 2;
    Ok(parsed)
}

/// The three benchmarked algorithms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// PageRank (5 fixed supersteps).
    PageRank,
    /// Connected components (to quiescence).
    Cc,
    /// BFS from the max-out-degree vertex (to quiescence).
    Bfs,
}

impl Algo {
    /// All three, in the paper's figure order.
    pub const ALL: [Algo; 3] = [Algo::PageRank, Algo::Cc, Algo::Bfs];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Algo::PageRank => "pagerank",
            Algo::Cc => "cc",
            Algo::Bfs => "bfs",
        }
    }
}

/// The three engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// This paper's system.
    Gpsa,
    /// The GraphChi-like PSW baseline.
    GraphChi,
    /// The X-Stream-like scatter-gather baseline.
    XStream,
}

impl EngineKind {
    /// All three, GPSA first.
    pub const ALL: [EngineKind; 3] = [EngineKind::Gpsa, EngineKind::GraphChi, EngineKind::XStream];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Gpsa => "GPSA",
            EngineKind::GraphChi => "GraphChi-like",
            EngineKind::XStream => "X-Stream-like",
        }
    }
}

/// One (engine, algo, dataset) measurement.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Engine measured.
    pub engine: EngineKind,
    /// Algorithm measured.
    pub algo: Algo,
    /// Mean wall time of the first `supersteps` supersteps, averaged over
    /// `runs` repetitions — the paper's headline number.
    pub mean_step: Duration,
    /// Mean total superstep time per repetition.
    pub total: Duration,
    /// Supersteps/iterations per repetition (from the last run).
    pub supersteps: u64,
    /// CPU profile, when sampled.
    pub cpu: Option<CpuReport>,
}

/// Generate (and memoize per process) the scaled dataset.
pub fn dataset_edges(ds: Dataset, scale: u64) -> EdgeList {
    ds.generate(scale)
}

/// Pick the BFS root the way the harness does everywhere: the vertex with
/// the highest out-degree (guarantees a non-trivial traversal on R-MAT).
pub fn bfs_root(el: &EdgeList) -> u32 {
    let deg = el.out_degrees();
    (0..el.n_vertices as u32)
        .max_by_key(|&v| deg[v as usize])
        .unwrap_or(0)
}

/// Run one engine × algo on a dataset, `runs` times; report averages.
pub fn run_one(
    ds: Dataset,
    algo: Algo,
    kind: EngineKind,
    cfg: &HarnessConfig,
    measure_cpu: bool,
) -> std::io::Result<Measurement> {
    let el = dataset_edges(ds, cfg.scale);
    let tag = format!("{}-s{}", ds.name(), cfg.scale);
    std::fs::create_dir_all(&cfg.data_dir)?;
    let root = bfs_root(&el);
    let mut mean_steps = Vec::new();
    let mut totals = Vec::new();
    let mut supersteps = 0u64;
    let mut cpu = None;

    for run in 0..cfg.runs.max(1) {
        let monitor = if measure_cpu && run == 0 {
            gpsa_metrics::CpuMonitor::start(Duration::from_millis(50))
        } else {
            None
        };
        let (times, steps) = match kind {
            EngineKind::Gpsa => run_gpsa(&el, &tag, algo, root, cfg, run)?,
            EngineKind::GraphChi => run_psw(&el, algo, root, cfg, run)?,
            EngineKind::XStream => run_xs(&el, algo, root, cfg, run)?,
        };
        if let Some(m) = monitor {
            cpu = Some(m.finish());
        }
        let k = (cfg.supersteps as usize).min(times.len()).max(1);
        mean_steps.push(times[..k].iter().sum::<Duration>() / k as u32);
        totals.push(times.iter().sum::<Duration>());
        supersteps = steps;
    }
    let avg = |v: &[Duration]| v.iter().sum::<Duration>() / v.len().max(1) as u32;
    Ok(Measurement {
        engine: kind,
        algo,
        mean_step: avg(&mean_steps),
        total: avg(&totals),
        supersteps,
        cpu,
    })
}

fn run_gpsa(
    el: &EdgeList,
    tag: &str,
    algo: Algo,
    root: u32,
    cfg: &HarnessConfig,
    run: usize,
) -> std::io::Result<(Vec<Duration>, u64)> {
    let dir = cfg
        .data_dir
        .join(format!("gpsa-{tag}-{}-{run}", algo.name()));
    let actors = (cfg.threads / 2).max(1);
    let mut config = EngineConfig::new(&dir)
        .with_workers(cfg.threads)
        .with_actors(actors, actors);
    config.termination = match algo {
        Algo::PageRank => Termination::Supersteps(cfg.supersteps),
        _ => Termination::Quiescence {
            max_supersteps: 10_000,
        },
    };
    let engine = Engine::new(config);
    let report = match algo {
        Algo::PageRank => {
            let r = engine
                .run_edge_list(el.clone(), tag, PageRank::default())
                .map_err(io_err)?;
            (r.step_times, r.supersteps)
        }
        Algo::Cc => {
            let r = engine
                .run_edge_list(el.clone(), tag, ConnectedComponents)
                .map_err(io_err)?;
            (r.step_times, r.supersteps)
        }
        Algo::Bfs => {
            let r = engine
                .run_edge_list(el.clone(), tag, Bfs { root })
                .map_err(io_err)?;
            (r.step_times, r.supersteps)
        }
    };
    Ok(report)
}

fn run_psw(
    el: &EdgeList,
    algo: Algo,
    root: u32,
    cfg: &HarnessConfig,
    run: usize,
) -> std::io::Result<(Vec<Duration>, u64)> {
    let mut config = PswConfig::new(cfg.data_dir.join(format!("psw-{}-{run}", algo.name())));
    config.threads = cfg.threads;
    config.termination = match algo {
        Algo::PageRank => PswTermination::Iterations(cfg.supersteps),
        _ => PswTermination::Quiescence { max: 10_000 },
    };
    let engine = PswEngine::new(config);
    let report = match algo {
        Algo::PageRank => engine.run(el, PswPageRank::default())?,
        Algo::Cc => engine.run(el, PswCc)?,
        Algo::Bfs => engine.run(el, PswBfs { root })?,
    };
    Ok((report.step_times, report.iterations))
}

fn run_xs(
    el: &EdgeList,
    algo: Algo,
    root: u32,
    cfg: &HarnessConfig,
    run: usize,
) -> std::io::Result<(Vec<Duration>, u64)> {
    let mut config = XsConfig::new(cfg.data_dir.join(format!("xs-{}-{run}", algo.name())));
    config.threads = cfg.threads;
    config.termination = match algo {
        Algo::PageRank => XsTermination::Iterations(cfg.supersteps),
        _ => XsTermination::Quiescence { max: 10_000 },
    };
    let engine = XsEngine::new(config);
    let report = match algo {
        Algo::PageRank => engine.run(el, XsPageRank::default())?,
        Algo::Cc => engine.run(el, XsCc)?,
        Algo::Bfs => engine.run(el, XsBfs { root })?,
    };
    Ok((report.step_times, report.iterations))
}

fn io_err(e: gpsa::EngineError) -> std::io::Error {
    std::io::Error::other(e.to_string())
}

/// Format a duration in engineering style for tables.
pub fn fmt_dur(d: Duration) -> String {
    if d.as_secs() >= 10 {
        format!("{:.1}s", d.as_secs_f64())
    } else if d.as_millis() >= 10 {
        format!("{}ms", d.as_millis())
    } else {
        format!("{}us", d.as_micros())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_runs_all_cells_on_a_tiny_dataset() {
        let cfg = HarnessConfig {
            scale: 16384,
            runs: 1,
            supersteps: 2,
            threads: 2,
            data_dir: std::env::temp_dir().join(format!("gpsa-hn-{}", std::process::id())),
        };
        for kind in EngineKind::ALL {
            for algo in Algo::ALL {
                let m = run_one(Dataset::Google, algo, kind, &cfg, false).unwrap();
                assert!(m.supersteps >= 1, "{kind:?} {algo:?}");
                assert!(m.mean_step > Duration::ZERO);
            }
        }
    }

    #[test]
    fn flags_parse() {
        let cfg = HarnessConfig::default()
            .apply_flags(&[
                "--scale".into(),
                "128".into(),
                "--runs".into(),
                "2".into(),
                "--threads".into(),
                "3".into(),
            ])
            .unwrap();
        assert_eq!(cfg.scale, 128);
        assert_eq!(cfg.runs, 2);
        assert_eq!(cfg.threads, 3);
        assert!(HarnessConfig::default()
            .apply_flags(&["--scale".into()])
            .is_err());
    }

    #[test]
    fn bfs_root_picks_hub() {
        let el = gpsa_graph::generate::star(10);
        assert_eq!(bfs_root(&el), 0);
    }

    #[test]
    fn fmt_dur_tiers() {
        assert_eq!(fmt_dur(Duration::from_micros(5)), "5us");
        assert_eq!(fmt_dur(Duration::from_millis(50)), "50ms");
        assert_eq!(fmt_dur(Duration::from_secs(12)), "12.0s");
    }
}
