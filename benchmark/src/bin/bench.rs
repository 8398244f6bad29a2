//! `bench run | agree | spread` — see `benchmark/README.md`.
//!
//! The driver appends `--workload <name> --seed <n> --seconds <s>
//! --trace <0|1>` to the command in `BENCHMARK.json`, which ends in
//! `run`; the last line on stdout is then the result object.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use gpsa_benchmark::agree;
use gpsa_benchmark::fingerprint::fingerprint;
use gpsa_benchmark::harness::{Ctx, Outcome, Res};
use gpsa_benchmark::inputs::{input_hash, Scale};
use gpsa_benchmark::json::Json;
use gpsa_benchmark::layers::{metrics_json, END_TO_END};
use gpsa_benchmark::{stats, workload, WORKLOADS};

const USAGE: &str = "\
usage:
  bench run --workload <name|all> --seed <u64> [--seconds <s>] [--trace <0|1>]
            [--ops <n>] [--out <dir>]
      One workload: measure it and print its metrics; the last line of
      stdout is the result object. `--trace 0` gives the end-to-end
      metrics, `--trace 1` the traced run's per-layer metrics (and writes
      trace-<workload>.json). `all` runs every workload, each in its own
      process, untraced and traced unless --trace picks one, and writes
      <dir>/set.json.
  bench agree <set-a> <set-b>
      Do two sets agree within the bounds of BENCHMARK.json?
  bench spread [--runs <n>] [--seconds <s>] --out <file>
      Run every workload untraced on seeds 1..=n and record each
      end-to-end metric's quartile spread beside its bound.";

/// Length of the measured phase when `--seconds` is not given; the
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

struct Args(Vec<String>);

impl Args {
    fn value(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == key)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str) -> Res<Option<T>> {
        self.value(key)
            .map(|v| v.parse().map_err(|_| format!("bad value {v:?} for {key}")))
            .transpose()
    }
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let command = if argv.is_empty() {
        String::new()
    } else {
        argv.remove(0)
    };
    let args = Args(argv);
    let result = match command.as_str() {
        "run" => run(&args),
        "agree" => agree_sets(&args),
        "spread" => spread(&args),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(2),
        Err(why) => {
            eprintln!("bench: {why}");
            ExitCode::FAILURE
        }
    }
}

fn result_json(o: &Outcome) -> Json {
    Json::obj()
        .set("correct", o.correct)
        .set("attempted", o.attempted)
        .set("failed", o.failed)
        .set("metrics", metrics_json(&o.metrics))
}

fn print_metrics(title: &str, o: &Outcome) {
    println!("{title}");
    for (def, value) in &o.metrics {
        println!("  {:<42} {:>16.6} {}", def.name, value, def.unit);
    }
}

fn write_json(path: &Path, doc: &Json) -> Res<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    std::fs::write(path, doc.pretty()).map_err(|e| format!("{}: {e}", path.display()))
}

fn read_json(path: &Path) -> Res<Json> {
    let path = if path.is_dir() {
        path.join("set.json")
    } else {
        path.to_path_buf()
    };
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The last line a child printed, as JSON.
fn last_line_json(stdout: &[u8]) -> Res<Json> {
    let text = String::from_utf8_lossy(stdout);
    let line = text.lines().last().ok_or("child printed nothing")?;
    Json::parse(line)
}

/// The deep-API micro cells live in their own target, so that a removed
/// internal function cannot take the end-to-end numbers down with it; the
/// traced run builds and runs them through cargo.
fn run_cells(ctx: &Ctx) -> Res<Json> {
    let output = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()))
        .args([
            "run",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
        ])
        .arg(manifest_dir().join("Cargo.toml"))
        .args(["--bin", "cells", "--"])
        .args(["--workload", ctx.workload.name])
        .args(["--seed", &ctx.seed.to_string()])
        .arg("--work")
        .arg(ctx.work.join("cells"))
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start cargo for the cells: {e}"))?;
    if !output.status.success() {
        return Err(format!("the cells exited with {}", output.status));
    }
    last_line_json(&output.stdout)
}

fn run(args: &Args) -> Res<bool> {
    let name = args.value("--workload").ok_or(USAGE)?;
    let seed: u64 = args.parsed("--seed")?.ok_or(USAGE)?;
    let seconds: f64 = args.parsed("--seconds")?.unwrap_or(DEFAULT_SECONDS);
    let trace = match args.value("--trace") {
        None => None,
        Some("0") => Some(false),
        Some("1") => Some(true),
        Some(other) => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    let out = args.value("--out").map(PathBuf::from);
    if name == "all" {
        return run_all(args, seed, trace, out);
    }
    let ctx = Ctx {
        workload: workload(name).ok_or_else(|| format!("unknown workload {name:?}\n{USAGE}"))?,
        seed,
        seconds,
        max_ops: args.parsed("--ops")?,
        trace: trace.unwrap_or(false),
        scale: Scale::FULL,
        work: manifest_dir()
            .join("out")
            .join(format!("work-{name}-{}", std::process::id())),
    };
    std::fs::create_dir_all(&ctx.work).map_err(|e| e.to_string())?;

    let mut outcome = gpsa_benchmark::run(&ctx)?;
    if ctx.trace {
        // A refactor that removes an internal the cells call must not take
        // the traced workload pass down too: the cell metrics then read 0
        // and the info object says why.
        match run_cells(&ctx) {
            Ok(cells) => {
                for (def, value) in &mut outcome.metrics {
                    if let Some(v) = cells.get(def.name).and_then(Json::as_f64) {
                        *value = v;
                    }
                }
            }
            Err(why) => {
                eprintln!("bench: micro cells unavailable: {why}");
                outcome.info = outcome.info.set("cells_error", why);
            }
        }
    }

    let kind = if ctx.trace { "per_layer" } else { "end_to_end" };
    print_metrics(&format!("{name} seed {seed} ({kind})"), &outcome);
    println!("  info {}", outcome.info.encode());
    let result = result_json(&outcome);
    let out_dir = out.unwrap_or_else(|| manifest_dir().join("out"));
    if let Some(trace) = &outcome.trace {
        write_json(&out_dir.join(format!("trace-{name}.json")), trace)?;
    }
    if args.value("--out").is_some() {
        let hash = format!("{:016x}", input_hash(name, &ctx.scale, seed));
        let doc = result
            .clone()
            .set("info", outcome.info.clone().set("input_hash", hash))
            .set("fingerprint", fingerprint(seed));
        write_json(&out_dir.join(format!("{name}.{kind}.json")), &doc)?;
    }
    // Scratch is deleted on success and kept for inspection otherwise.
    if outcome.correct {
        let _ = std::fs::remove_dir_all(&ctx.work);
    }
    println!("{}", result.encode());
    Ok(true)
}

/// Run one workload in a child process, so its peak memory is its own, and
/// read back the result file it wrote under `out`.
fn child(args: &Args, name: &str, seed: u64, traced: bool, out: &Path) -> Res<Json> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", name, "--seed", &seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(out);
    for key in ["--seconds", "--ops"] {
        if let Some(v) = args.value(key) {
            cmd.args([key, v]);
        }
    }
    let status = cmd
        .stdout(Stdio::null())
        .status()
        .map_err(|e| e.to_string())?;
    if !status.success() {
        return Err(format!("{name} (trace {traced}) exited with {status}"));
    }
    let kind = if traced { "per_layer" } else { "end_to_end" };
    read_json(&out.join(format!("{name}.{kind}.json")))
}

fn run_all(args: &Args, seed: u64, trace: Option<bool>, out: Option<PathBuf>) -> Res<bool> {
    let out = out.unwrap_or_else(|| manifest_dir().join("out").join(format!("set-seed{seed}")));
    let passes: &[bool] = match trace {
        Some(true) => &[true],
        Some(false) => &[false],
        None => &[false, true],
    };
    let mut set = Json::obj().set("fingerprint", fingerprint(seed));
    let mut all_correct = true;
    for &traced in passes {
        let kind = if traced { "per_layer" } else { "end_to_end" };
        let mut results = Json::obj();
        for w in &WORKLOADS {
            eprintln!("== {} ({kind})", w.name);
            let mut result = child(args, w.name, seed, traced, &out)?;
            if let Json::Obj(m) = &mut result {
                m.remove("fingerprint");
            }
            let correct = result.get("correct").and_then(Json::as_bool) == Some(true);
            let attempted = result
                .get("attempted")
                .and_then(Json::as_f64)
                .unwrap_or(0.0);
            all_correct &= correct && attempted >= 1.0;
            println!(
                "{} ({kind}): correct={correct} attempted={attempted}",
                w.name
            );
            for (name, m) in result
                .get("metrics")
                .and_then(Json::as_obj)
                .into_iter()
                .flatten()
            {
                println!(
                    "  {:<42} {:>16.6} {}",
                    name,
                    m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN),
                    m.get("unit").and_then(Json::as_str).unwrap_or("")
                );
            }
            results = results.set(w.name, result);
        }
        set = set.set(kind, results);
    }
    write_json(&out.join("set.json"), &set)?;
    println!("wrote {}", out.join("set.json").display());
    Ok(all_correct)
}

fn agree_sets(args: &Args) -> Res<bool> {
    let [a, b] = &args.0[..] else {
        return Err(USAGE.to_string());
    };
    let rows = agree::compare(&read_json(Path::new(a))?, &read_json(Path::new(b))?);
    for r in &rows {
        println!(
            "{} {:<10} {:<36} {:>14.6} {:>14.6} {}",
            if r.ok { "ok  " } else { "FAIL" },
            r.workload,
            r.what,
            r.first,
            r.second,
            r.bound.map_or(String::new(), |b| format!("bound {b}")),
        );
    }
    let failures = rows.iter().filter(|r| !r.ok).count();
    println!("{} rows, {failures} outside the bounds", rows.len());
    Ok(failures == 0)
}

/// The driver's acceptance procedure, runnable by hand: ten seeds per
/// workload, the quartile spread of each end-to-end metric as a share of
/// its median, next to the metric's bound.
fn spread(args: &Args) -> Res<bool> {
    let runs: u64 = args.parsed("--runs")?.unwrap_or(10);
    let out = PathBuf::from(args.value("--out").ok_or(USAGE)?);
    let scratch = manifest_dir().join("out").join("spread");
    let mut doc = Json::obj()
        .set("fingerprint", fingerprint(0))
        .set("runs", runs);
    let mut steady = true;
    for w in &WORKLOADS {
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        for seed in 1..=runs {
            eprintln!("== {} seed {seed}", w.name);
            let result = child(args, w.name, seed, false, &scratch)?;
            if result.get("correct").and_then(Json::as_bool) != Some(true) {
                return Err(format!("{} seed {seed} was not correct", w.name));
            }
            for (def, column) in END_TO_END.iter().zip(&mut values) {
                let v = result
                    .get("metrics")
                    .and_then(|m| m.get(def.name))
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("{} did not report {}", w.name, def.name))?;
                column.push(v);
            }
        }
        let mut per_metric = Json::obj();
        for (def, column) in END_TO_END.iter().zip(&values) {
            let spread = stats::quartile_spread(column);
            let bound = def.bound.expect("end-to-end metrics are bounded");
            // `setup_s` is exempt from the driver's spread check.
            let ok = def.name == "setup_s" || spread <= bound / 3.0;
            steady &= ok;
            println!(
                "{} {:<10} {:<14} median {:>12.5} {:<6} spread {:>7.4}  bound {bound}",
                if ok { "ok  " } else { "WIDE" },
                w.name,
                def.name,
                stats::median(column),
                def.unit,
                spread
            );
            per_metric = per_metric.set(
                def.name,
                Json::obj()
                    .set("median", stats::median(column))
                    .set("unit", def.unit)
                    .set("spread", spread)
                    .set("bound", bound)
                    .set(
                        "values",
                        Json::Arr(column.iter().map(|&v| v.into()).collect()),
                    ),
            );
        }
        doc = doc.set(w.name, per_metric);
    }
    write_json(&out, &doc)?;
    println!("wrote {}", out.display());
    Ok(steady)
}
