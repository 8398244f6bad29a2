//! Subcommand implementations.

use std::path::{Path, PathBuf};

use gpsa::programs::{Bfs, ConnectedComponents, PageRank, Sssp, UNREACHED};
use gpsa::{Engine, EngineConfig, Termination, VertexProgram};
use gpsa_graph::datasets::Dataset;
use gpsa_graph::{preprocess, DiskCsr};
use gpsa_metrics::Table;

use crate::args::Args;

const USAGE: &str = "\
gpsa — a graph processing system with actors (GPSA, ICPP'15)

USAGE:
  gpsa generate   --dataset <google|pokec|journal|twitter> [--scale N] [--out DIR]
  gpsa preprocess --input <edges.txt|edges.bin|adj.txt> --output <graph.gcsr>
                  [--format text|binary|adjacency] [--no-degrees]
                  [--no-compress (write the v1 word-array layout)]
                  [--run-capacity N]
  gpsa info       --graph <graph.gcsr>
  gpsa run        --graph <graph.gcsr> --algo <pagerank|bfs|cc|sssp>
                  [--engine gpsa|graphchi|xstream|sync|dist]
                  [--root N] [--supersteps N] [--max-supersteps N]
                  [--dispatchers N] [--computers N] [--workers N]
                  [--nodes N (dist engine)]
                  [--work-dir DIR] [--durable] [--resume] [--top N]
                  [--verbose (per-superstep phase breakdown)]
  gpsa serve      --listen <host:port> [--work-dir DIR] [--max-jobs N]
                  [--queue-capacity N] [--cache-capacity N] [--budget-mb N]
                  [--deadline-ms N] [--graphs id=path[,id=path...]]
                  [--no-durable (skip journaling; no crash recovery)]
                  [--tenant-max-queued N] [--tenant-max-inflight N]
                  [--tenant-scratch-mb N (per-tenant scratch budget)]
                  [--tenant-weights id=w[,id=w...] (fair-queue weights)]
                  [--auto-compact-ratio F (delta/base edges; 0 disables)]
                  [--stream-chunk N (values per streamed result frame)]
  gpsa submit     --addr <host:port> --graph <id> --algo <pagerank|bfs|cc|sssp>
                  [--register PATH (make <id> resident first)]
                  [--root N] [--damping F] [--supersteps N]
                  [--priority normal|high] [--deadline-ms N] [--top N]
                  [--key K (idempotency key; safe resubmission)]
                  [--tenant T (bill the job to tenant T)]
                  [--stream (chunked result frames; bounded memory)]
                  [--no-retry (fail fast instead of backing off)]
                  [--verbose (per-superstep phase breakdown)]
  gpsa mutate     --addr <host:port> --graph <id>
                  [--add \"u:v,u:v,...\"] [--remove \"u:v,u:v,...\"]
                  [--compact (fold the delta log into a fresh CSR epoch)]
  gpsa stats      --addr <host:port> [--tenants (per-tenant breakdown)]
  gpsa help
";

/// Route a command line to its implementation.
pub fn dispatch(argv: &[String]) -> Result<(), String> {
    match argv.first().map(|s| s.as_str()) {
        Some("generate") => generate(&argv[1..]),
        Some("preprocess") => preprocess_cmd(&argv[1..]),
        Some("info") => info(&argv[1..]),
        Some("run") => run(&argv[1..]),
        Some("serve") => serve(&argv[1..]),
        Some("submit") => submit(&argv[1..]),
        Some("mutate") => mutate(&argv[1..]),
        Some("stats") => stats(&argv[1..]),
        Some("help") | None => {
            print!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown command {other:?}\n{USAGE}")),
    }
}

fn generate(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &[])?;
    let ds = Dataset::parse(args.require("dataset")?)
        .ok_or_else(|| "unknown dataset (google|pokec|journal|twitter)".to_string())?;
    let scale: u64 = args.get_parsed("scale", 64)?;
    let out = PathBuf::from(args.get("out").unwrap_or("data"));
    let (path, stats) = ds.materialize(&out, scale).map_err(|e| e.to_string())?;
    println!(
        "generated {} at 1/{scale} scale: {} vertices, {} edges -> {}",
        ds.name(),
        stats.n_vertices,
        stats.n_edges,
        path.display()
    );
    Ok(())
}

fn preprocess_cmd(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &["binary", "no-degrees", "no-compress", "compress"])?;
    let input = PathBuf::from(args.require("input")?);
    let output = PathBuf::from(args.require("output")?);
    let opts = preprocess::PreprocessOptions {
        run_capacity: args.get_parsed("run-capacity", 8usize << 20)?,
        with_degrees: !args.flag("no-degrees"),
        compress: !args.flag("no-compress"),
        temp_dir: None,
    };
    let format = if args.flag("binary") {
        "binary" // legacy alias for --format binary
    } else {
        args.get("format").unwrap_or("text")
    };
    let stats = match format {
        "binary" => preprocess::binary_to_csr(&input, &output, &opts),
        "adjacency" | "adj" => preprocess::adjacency_to_csr(&input, &output, &opts),
        "text" | "edgelist" => preprocess::text_to_csr(&input, &output, &opts),
        other => {
            return Err(format!(
                "unknown --format {other:?} (text|binary|adjacency)"
            ))
        }
    }
    .map_err(|e| e.to_string())?;
    println!(
        "preprocessed {} -> {}: {} vertices, {} edges, {} runs",
        input.display(),
        output.display(),
        stats.n_vertices,
        stats.n_edges,
        stats.runs,
    );
    println!(
        "storage: {} input bytes -> {} edge-file bytes + {} index bytes ({})",
        stats.input_bytes,
        stats.output_bytes,
        stats.index_bytes,
        if stats.compressed {
            format!(
                "v2 delta-varint, {:.2}x smaller than v1",
                stats.compression_ratio()
            )
        } else {
            "v1 word array".to_string()
        }
    );
    Ok(())
}

fn info(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &[])?;
    let path = PathBuf::from(args.require("graph")?);
    let g = DiskCsr::open(&path).map_err(|e| e.to_string())?;
    let mut max_deg = 0u32;
    let mut sinks = 0usize;
    let mut cursor = g.cursor(0..g.n_vertices() as u32);
    while let Some(r) = cursor.next_rec() {
        max_deg = max_deg.max(r.degree);
        if r.degree == 0 {
            sinks += 1;
        }
    }
    let mut t = Table::new(&["property", "value"]);
    t.row(&["file", &path.display().to_string()]);
    t.row(&[
        "format",
        if g.compressed() {
            "v2 (delta-varint)"
        } else {
            "v1 (word array)"
        },
    ]);
    t.row(&["vertices", &g.n_vertices().to_string()]);
    t.row(&["edges", &g.n_edges().to_string()]);
    t.row(&["with degrees", &g.with_degrees().to_string()]);
    t.row(&["file bytes", &g.file_bytes().to_string()]);
    t.row(&["index bytes", &g.index_bytes().to_string()]);
    t.row(&["max out-degree", &max_deg.to_string()]);
    t.row(&["sinks", &sinks.to_string()]);
    print!("{t}");
    Ok(())
}

fn engine_from(args: &Args) -> Result<Engine, String> {
    let work_dir = PathBuf::from(args.get("work-dir").unwrap_or("gpsa-work"));
    let mut config = EngineConfig::new(&work_dir);
    config.n_dispatchers = args.get_parsed("dispatchers", config.n_dispatchers)?;
    config.n_computers = args.get_parsed("computers", config.n_computers)?;
    config.workers = args.get_parsed("workers", config.workers)?;
    config.durable = args.flag("durable");
    config.resume = args.flag("resume");
    let max: u64 = args.get_parsed("max-supersteps", 10_000u64)?;
    config.termination = match args.get("supersteps") {
        Some(s) => Termination::Supersteps(s.parse().map_err(|_| "bad --supersteps".to_string())?),
        None => Termination::Quiescence {
            max_supersteps: max,
        },
    };
    Ok(Engine::new(config))
}

fn run(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &["durable", "resume", "verbose"])?;
    let graph = PathBuf::from(args.require("graph")?);
    let algo = args.require("algo")?.to_string();
    let root: u32 = args.get_parsed("root", 0u32)?;
    let top: usize = args.get_parsed("top", 5usize)?;
    let which = args.get("engine").unwrap_or("gpsa").to_string();
    if which != "gpsa" {
        return run_alternative_engine(&which, &args, &graph, &algo, root, top);
    }
    let engine = engine_from(&args)?;
    match algo.as_str() {
        "pagerank" | "pr" => {
            // PageRank defaults to the paper's 5-superstep methodology.
            let engine = if args.get("supersteps").is_none() {
                let mut c = engine.config().clone();
                c.termination = Termination::Supersteps(5);
                Engine::new(c)
            } else {
                engine
            };
            let report = run_program(&engine, &graph, PageRank::default(), args.flag("verbose"))?;
            print_top_f32("rank", &report, top);
        }
        "bfs" => {
            let report = run_program(&engine, &graph, Bfs { root }, args.flag("verbose"))?;
            print_levels("level", &report, top);
        }
        "cc" => {
            let report = run_program(&engine, &graph, ConnectedComponents, args.flag("verbose"))?;
            let mut sizes = std::collections::BTreeMap::new();
            for &l in &report.values {
                *sizes.entry(l).or_insert(0u64) += 1;
            }
            println!("components: {}", sizes.len());
            let mut by_size: Vec<_> = sizes.into_iter().collect();
            by_size.sort_by_key(|&(_, s)| std::cmp::Reverse(s));
            for (label, size) in by_size.into_iter().take(top) {
                println!("  component {label}: {size} vertices");
            }
        }
        "sssp" => {
            let report = run_program(&engine, &graph, Sssp { root }, args.flag("verbose"))?;
            print_levels("distance", &report, top);
        }
        other => {
            return Err(format!(
                "unknown algorithm {other:?} (pagerank|bfs|cc|sssp)"
            ))
        }
    }
    Ok(())
}

/// Boot a resident-graph job server and block until a client sends the
/// `shutdown` op (or the process is killed).
fn serve(argv: &[String]) -> Result<(), String> {
    use gpsa_serve::{Client, ServeConfig};

    let args = Args::parse(argv, &["no-durable"])?;
    let listen = args.get("listen").unwrap_or("127.0.0.1:7171").to_string();
    let work_dir = PathBuf::from(args.get("work-dir").unwrap_or("gpsa-serve-work"));
    let mut config = ServeConfig::new(&work_dir).with_listen(&listen);
    let (max_jobs, queue_cap, cache_cap) = (
        config.max_concurrent_jobs,
        config.queue_capacity,
        config.cache_capacity,
    );
    config = config
        .with_max_concurrent_jobs(args.get_parsed("max-jobs", max_jobs)?)
        .with_queue_capacity(args.get_parsed("queue-capacity", queue_cap)?)
        .with_cache_capacity(args.get_parsed("cache-capacity", cache_cap)?)
        .with_durable(!args.flag("no-durable"));
    if let Some(mb) = args.get("budget-mb") {
        let mb: u64 = mb.parse().map_err(|_| "bad --budget-mb".to_string())?;
        config = config.with_memory_budget(mb.saturating_mul(1 << 20));
    }
    if let Some(ms) = args.get("deadline-ms") {
        let ms: u64 = ms.parse().map_err(|_| "bad --deadline-ms".to_string())?;
        config = config.with_default_deadline(std::time::Duration::from_millis(ms));
    }
    if let Some(n) = args.get("tenant-max-queued") {
        let n: usize = n
            .parse()
            .map_err(|_| "bad --tenant-max-queued".to_string())?;
        config = config.with_tenant_max_queued(n);
    }
    if let Some(n) = args.get("tenant-max-inflight") {
        let n: usize = n
            .parse()
            .map_err(|_| "bad --tenant-max-inflight".to_string())?;
        config = config.with_tenant_max_inflight(n);
    }
    if let Some(mb) = args.get("tenant-scratch-mb") {
        let mb: u64 = mb
            .parse()
            .map_err(|_| "bad --tenant-scratch-mb".to_string())?;
        config = config.with_tenant_scratch_budget(mb.saturating_mul(1 << 20));
    }
    if let Some(spec) = args.get("tenant-weights") {
        for pair in spec.split(',').filter(|p| !p.is_empty()) {
            let (id, w) = pair
                .split_once('=')
                .ok_or_else(|| format!("--tenant-weights entry {pair:?} is not id=weight"))?;
            let w: u32 = w.parse().map_err(|_| format!("bad weight in {pair:?}"))?;
            config = config.with_tenant_weight(id, w);
        }
    }
    if let Some(r) = args.get("auto-compact-ratio") {
        let r: f64 = r
            .parse()
            .map_err(|_| "bad --auto-compact-ratio".to_string())?;
        config = config.with_auto_compact_ratio(r);
    }
    if let Some(n) = args.get("stream-chunk") {
        let n: usize = n.parse().map_err(|_| "bad --stream-chunk".to_string())?;
        config = config.with_stream_chunk_values(n);
    }
    let max_jobs = config.max_concurrent_jobs;
    let durable = config.durable;
    let mut handle = gpsa_serve::start(config).map_err(|e| e.to_string())?;
    println!(
        "gpsa-serve listening on {} ({} concurrent jobs, work dir {}, {})",
        handle.addr(),
        max_jobs,
        work_dir.display(),
        if durable {
            "durable: crash recovery on"
        } else {
            "NOT durable: no crash recovery"
        }
    );

    // Preload graphs through the wire path, same as any client would.
    if let Some(spec) = args.get("graphs") {
        let mut client = Client::connect(handle.addr()).map_err(|e| e.to_string())?;
        for pair in spec.split(',').filter(|p| !p.is_empty()) {
            let (id, path) = pair
                .split_once('=')
                .ok_or_else(|| format!("--graphs entry {pair:?} is not id=path"))?;
            let info = client.register_graph(id, path).map_err(|e| e.to_string())?;
            println!(
                "  resident {:?}: {} vertices, {} edges, {} bytes (epoch {})",
                info.graph_id, info.n_vertices, info.n_edges, info.bytes, info.epoch
            );
        }
    }

    while !handle.is_shutting_down() {
        std::thread::sleep(std::time::Duration::from_millis(200));
    }
    println!("gpsa-serve: shutdown requested, draining");
    handle.shutdown();
    Ok(())
}

/// Submit one job to a running server and print the result.
fn submit(argv: &[String]) -> Result<(), String> {
    use gpsa_serve::{AlgorithmSpec, Client, Priority, RetryPolicy, SubmitRequest, ValueType};

    let args = Args::parse(argv, &["no-retry", "stream", "verbose"])?;
    let addr = args.require("addr")?;
    let graph_id = args.require("graph")?.to_string();
    let algo = args.require("algo")?;
    let root: u32 = args.get_parsed("root", 0u32)?;
    let top: usize = args.get_parsed("top", 5usize)?;
    let algorithm = match algo {
        "pagerank" | "pr" => AlgorithmSpec::PageRank {
            damping: args.get_parsed("damping", 0.85f32)?,
            supersteps: args.get_parsed("supersteps", 5u64)?,
        },
        "bfs" => AlgorithmSpec::Bfs { root },
        "cc" => AlgorithmSpec::Cc,
        "sssp" => AlgorithmSpec::Sssp { root },
        other => {
            return Err(format!(
                "unknown algorithm {other:?} (pagerank|bfs|cc|sssp)"
            ))
        }
    };

    // Interactive submissions ride out transient trouble (admission
    // bursts, a server mid-restart) by default; --no-retry surfaces the
    // first failure instead.
    let policy = if args.flag("no-retry") {
        RetryPolicy::disabled()
    } else {
        RetryPolicy::default_enabled()
    };
    let mut client = Client::connect_with(addr, policy).map_err(|e| e.to_string())?;
    if let Some(path) = args.get("register") {
        let info = client
            .register_graph(&graph_id, path)
            .map_err(|e| e.to_string())?;
        println!(
            "registered {:?}: {} vertices, {} edges (epoch {})",
            info.graph_id, info.n_vertices, info.n_edges, info.epoch
        );
    }

    let mut req = SubmitRequest::new(&graph_id, algorithm)
        .with_priority(Priority::parse(args.get("priority").unwrap_or("normal")));
    if let Some(ms) = args.get("deadline-ms") {
        let ms: u64 = ms.parse().map_err(|_| "bad --deadline-ms".to_string())?;
        req = req.with_deadline(std::time::Duration::from_millis(ms));
    }
    if let Some(key) = args.get("key") {
        req = req.with_idempotency_key(key);
    }
    if let Some(tenant) = args.get("tenant") {
        req = req.with_tenant(tenant);
    }
    if args.flag("stream") {
        req = req.with_stream();
    }
    let resp = client.submit(&req).map_err(|e| e.to_string())?;
    println!(
        "job {}: {} ({} supersteps, {} messages; queue {:?}, run {:?})",
        resp.job_id,
        if resp.cache_hit {
            "cache hit"
        } else {
            "computed"
        },
        resp.outcome.supersteps,
        resp.outcome.messages,
        resp.queue_wait,
        resp.run_time
    );
    if !resp.cache_hit {
        println!(
            "dispatch I/O: {} edge words streamed, {} skipped ({:.1}% mean frontier density)",
            resp.outcome.edges_streamed,
            resp.outcome.edges_skipped,
            100.0 * resp.outcome.mean_frontier_density
        );
    }
    if args.flag("verbose") {
        print_phases(&resp.outcome.phases);
    }
    match resp.outcome.value_type {
        ValueType::F32 => {
            let ranks = resp.outcome.values_f32().unwrap_or_default();
            let mut idx: Vec<u32> = (0..ranks.len() as u32).collect();
            idx.sort_by(|&a, &b| {
                ranks[b as usize]
                    .partial_cmp(&ranks[a as usize])
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            println!("top {top} vertices by value:");
            for &v in idx.iter().take(top) {
                println!("  v{v}: {:.6}", ranks[v as usize]);
            }
        }
        ValueType::U32 => {
            let values = &resp.outcome.values_u32;
            let reached = values.iter().filter(|&&l| l < UNREACHED).count();
            println!("reached/nontrivial {reached}/{} vertices", values.len());
            for (v, l) in values
                .iter()
                .enumerate()
                .filter(|(_, &l)| l < UNREACHED)
                .take(top)
            {
                println!("  v{v}: {l}");
            }
        }
    }
    let s = &resp.stats;
    println!(
        "server: {} running, {} queued, {} completed, cache {:.0}% of {} lookups",
        s.running,
        s.queue_depth,
        s.jobs_completed,
        100.0 * s.cache_hit_rate(),
        s.cache_hits + s.cache_misses
    );
    Ok(())
}

/// Mutate a resident graph on a running server: append edge additions
/// and removals to its delta log, and optionally compact the log into a
/// fresh CSR epoch.
fn mutate(argv: &[String]) -> Result<(), String> {
    use gpsa_serve::Client;

    let args = Args::parse(argv, &["compact"])?;
    let addr = args.require("addr")?;
    let graph_id = args.require("graph")?.to_string();
    let adds = parse_edge_pairs(args.get("add").unwrap_or(""))?;
    let removes = parse_edge_pairs(args.get("remove").unwrap_or(""))?;
    if adds.is_empty() && removes.is_empty() && !args.flag("compact") {
        return Err("nothing to do: give --add, --remove, or --compact".to_string());
    }

    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    let print_info = |verb: &str, info: &gpsa_serve::GraphInfo| {
        println!(
            "{verb} {:?}: {} vertices, {} edges (epoch {}, delta seq {})",
            info.graph_id, info.n_vertices, info.n_edges, info.epoch, info.delta_seq
        );
    };
    if !adds.is_empty() {
        let info = client
            .add_edges(&graph_id, &adds)
            .map_err(|e| e.to_string())?;
        print_info(&format!("added {} edge(s) to", adds.len()), &info);
    }
    if !removes.is_empty() {
        let info = client
            .remove_edges(&graph_id, &removes)
            .map_err(|e| e.to_string())?;
        print_info(&format!("removed {} edge(s) from", removes.len()), &info);
    }
    if args.flag("compact") {
        let info = client.compact(&graph_id).map_err(|e| e.to_string())?;
        print_info("compacted", &info);
    }
    Ok(())
}

/// Snapshot a running server's counters: global load, cache efficacy,
/// sheds by cause, and (with `--tenants`, or whenever any tenant is
/// known) the per-tenant breakdown operators use to see *who* is
/// loading the server.
fn stats(argv: &[String]) -> Result<(), String> {
    use gpsa_serve::Client;

    let args = Args::parse(argv, &["tenants"])?;
    let addr = args.require("addr")?;
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    let s = client.stats().map_err(|e| e.to_string())?;

    let mut t = Table::new(&["counter", "value"]);
    t.row(&[
        "running / max",
        &format!("{} / {}", s.running, s.max_concurrent_jobs),
    ]);
    t.row(&["queue depth", &s.queue_depth.to_string()]);
    t.row(&["jobs submitted", &s.jobs_submitted.to_string()]);
    t.row(&["jobs completed", &s.jobs_completed.to_string()]);
    t.row(&["shed: server_busy", &s.jobs_rejected.to_string()]);
    t.row(&["shed: quota_exceeded", &s.jobs_quota_shed.to_string()]);
    t.row(&["shed: deadline_exceeded", &s.jobs_deadline.to_string()]);
    t.row(&["shed: slow_client conns", &s.conns_shed.to_string()]);
    t.row(&["jobs cancelled/reaped", &s.jobs_cancelled.to_string()]);
    t.row(&["jobs failed", &s.jobs_failed.to_string()]);
    t.row(&[
        "cache hit rate",
        &format!(
            "{:.1}% of {} lookups ({} entries)",
            100.0 * s.cache_hit_rate(),
            s.cache_hits + s.cache_misses,
            s.cache_len
        ),
    ]);
    t.row(&["cache spill failures", &s.cache_spill_failures.to_string()]);
    t.row(&["idempotent hits", &s.idempotent_hits.to_string()]);
    t.row(&["jobs replayed at boot", &s.jobs_replayed.to_string()]);
    t.row(&["auto-compactions", &s.auto_compactions.to_string()]);
    t.row(&[
        "graphs resident",
        &format!("{} ({} bytes)", s.graphs_resident, s.resident_bytes),
    ]);
    print!("{t}");

    if args.flag("tenants") || !s.tenants.is_empty() {
        let mut t = Table::new(&[
            "tenant",
            "weight",
            "queued",
            "running",
            "scratch B",
            "submitted",
            "completed",
            "shed",
            "cancelled",
        ]);
        for row in &s.tenants {
            t.row(&[
                &row.tenant,
                &row.weight.to_string(),
                &row.queued.to_string(),
                &row.running.to_string(),
                &row.scratch_bytes.to_string(),
                &row.submitted.to_string(),
                &row.completed.to_string(),
                &row.shed_quota.to_string(),
                &row.cancelled.to_string(),
            ]);
        }
        print!("{t}");
    }
    Ok(())
}

/// Parse a `u:v,u:v,...` list into edge pairs (empty input is fine).
fn parse_edge_pairs(spec: &str) -> Result<Vec<(u32, u32)>, String> {
    spec.split(',')
        .filter(|p| !p.trim().is_empty())
        .map(|pair| {
            let (src, dst) = pair
                .trim()
                .split_once(':')
                .ok_or_else(|| format!("edge {pair:?} is not src:dst"))?;
            let src = src.parse().map_err(|_| format!("bad vertex in {pair:?}"))?;
            let dst = dst.parse().map_err(|_| format!("bad vertex in {pair:?}"))?;
            Ok((src, dst))
        })
        .collect()
}

/// Run on one of the non-default engines by bridging the CSR back to an
/// edge list (the baselines and the cluster consume edge lists).
fn run_alternative_engine(
    which: &str,
    args: &Args,
    graph: &Path,
    algo: &str,
    root: u32,
    top: usize,
) -> Result<(), String> {
    use gpsa_algorithms::psw::{PswBfs, PswCc, PswPageRank, PswSssp};
    use gpsa_algorithms::xs::{XsBfs, XsCc, XsPageRank, XsSssp};
    use gpsa_baselines::graphchi::{PswConfig, PswEngine, PswTermination};
    use gpsa_baselines::xstream::{XsConfig, XsEngine, XsTermination};

    let el = DiskCsr::open(graph)
        .map_err(|e| e.to_string())?
        .to_edge_list();
    let work_dir = PathBuf::from(args.get("work-dir").unwrap_or("gpsa-work"));
    let steps: u64 = args.get_parsed("supersteps", 5u64)?;
    let max: u64 = args.get_parsed("max-supersteps", 10_000u64)?;
    let fixed = args.get("supersteps").is_some() || algo == "pagerank" || algo == "pr";

    let print_u32 = |name: &str, values: &[u32], iterations: u64| {
        println!("{which}: {iterations} iterations");
        let reached = values.iter().filter(|&&l| l < UNREACHED).count();
        println!("reached/nontrivial {reached}/{} vertices", values.len());
        for (v, l) in values
            .iter()
            .enumerate()
            .filter(|(_, &l)| l < UNREACHED)
            .take(top)
        {
            println!("  v{v}: {name} {l}");
        }
    };

    match which {
        "graphchi" | "psw" => {
            let mut cfg = PswConfig::new(&work_dir);
            cfg.termination = if fixed {
                PswTermination::Iterations(steps)
            } else {
                PswTermination::Quiescence { max }
            };
            let engine = PswEngine::new(cfg);
            match algo {
                "pagerank" | "pr" => {
                    let r = engine
                        .run(&el, PswPageRank::default())
                        .map_err(|e| e.to_string())?;
                    println!("{which}: {} iterations", r.iterations);
                    print_top_ranks(&r.values, top);
                }
                "bfs" => {
                    let r = engine
                        .run(&el, PswBfs { root })
                        .map_err(|e| e.to_string())?;
                    print_u32("level", &r.values, r.iterations);
                }
                "cc" => {
                    let r = engine.run(&el, PswCc).map_err(|e| e.to_string())?;
                    print_u32("label", &r.values, r.iterations);
                }
                "sssp" => {
                    let r = engine
                        .run(&el, PswSssp { root })
                        .map_err(|e| e.to_string())?;
                    print_u32("distance", &r.values, r.iterations);
                }
                other => return Err(format!("unknown algorithm {other:?}")),
            }
        }
        "xstream" | "xs" => {
            let mut cfg = XsConfig::new(&work_dir);
            cfg.termination = if fixed {
                XsTermination::Iterations(steps)
            } else {
                XsTermination::Quiescence { max }
            };
            let engine = XsEngine::new(cfg);
            match algo {
                "pagerank" | "pr" => {
                    let r = engine
                        .run(&el, XsPageRank::default())
                        .map_err(|e| e.to_string())?;
                    println!("{which}: {} iterations", r.iterations);
                    print_top_ranks(&r.values, top);
                }
                "bfs" => {
                    let r = engine.run(&el, XsBfs { root }).map_err(|e| e.to_string())?;
                    print_u32("level", &r.values, r.iterations);
                }
                "cc" => {
                    let r = engine.run(&el, XsCc).map_err(|e| e.to_string())?;
                    print_u32("label", &r.values, r.iterations);
                }
                "sssp" => {
                    let r = engine
                        .run(&el, XsSssp { root })
                        .map_err(|e| e.to_string())?;
                    print_u32("distance", &r.values, r.iterations);
                }
                other => return Err(format!("unknown algorithm {other:?}")),
            }
        }
        "sync" => {
            let term = if fixed {
                Termination::Supersteps(steps)
            } else {
                Termination::Quiescence {
                    max_supersteps: max,
                }
            };
            let engine = gpsa::SyncEngine::new(term);
            match algo {
                "pagerank" | "pr" => {
                    let r = engine.run(&el, PageRank::default());
                    println!("{which}: {} supersteps", r.supersteps);
                    let mut idx: Vec<u32> = (0..r.values.len() as u32).collect();
                    idx.sort_by(|&a, &b| {
                        r.values[b as usize]
                            .partial_cmp(&r.values[a as usize])
                            .unwrap()
                    });
                    for &v in idx.iter().take(top) {
                        println!("  v{v}: {:.6}", r.values[v as usize]);
                    }
                }
                "bfs" => {
                    let r = engine.run(&el, Bfs { root });
                    print_u32("level", &r.values, r.supersteps);
                }
                "cc" => {
                    let r = engine.run(&el, ConnectedComponents);
                    print_u32("label", &r.values, r.supersteps);
                }
                "sssp" => {
                    let r = engine.run(&el, Sssp { root });
                    print_u32("distance", &r.values, r.supersteps);
                }
                other => return Err(format!("unknown algorithm {other:?}")),
            }
        }
        "dist" | "cluster" => {
            let nodes: usize = args.get_parsed("nodes", 2usize)?;
            let term = if fixed {
                Termination::Supersteps(steps)
            } else {
                Termination::Quiescence {
                    max_supersteps: max,
                }
            };
            let config = gpsa_dist::ClusterConfig::new(nodes, &work_dir).with_termination(term);
            let cluster = gpsa_dist::Cluster::new(config);
            match algo {
                "cc" => {
                    let r = cluster
                        .run(&el, ConnectedComponents)
                        .map_err(|e| e.to_string())?;
                    print_u32("label", &r.values, r.supersteps);
                    println!(
                        "traffic: {} local, {} remote messages across {nodes} nodes",
                        r.traffic.local(),
                        r.traffic.remote()
                    );
                }
                "bfs" => {
                    let r = cluster.run(&el, Bfs { root }).map_err(|e| e.to_string())?;
                    print_u32("level", &r.values, r.supersteps);
                    println!(
                        "traffic: {} local, {} remote messages across {nodes} nodes",
                        r.traffic.local(),
                        r.traffic.remote()
                    );
                }
                "pagerank" | "pr" => {
                    let r = cluster
                        .run(&el, PageRank::default())
                        .map_err(|e| e.to_string())?;
                    println!("{which}: {} supersteps", r.supersteps);
                    println!(
                        "traffic: {} local, {} remote messages across {nodes} nodes",
                        r.traffic.local(),
                        r.traffic.remote()
                    );
                }
                "sssp" => {
                    let r = cluster.run(&el, Sssp { root }).map_err(|e| e.to_string())?;
                    print_u32("distance", &r.values, r.supersteps);
                }
                other => return Err(format!("unknown algorithm {other:?}")),
            }
        }
        other => {
            return Err(format!(
                "unknown engine {other:?} (gpsa|graphchi|xstream|sync|dist)"
            ))
        }
    }
    Ok(())
}

fn print_top_ranks(bits: &[u32], top: usize) {
    let ranks: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
    let mut idx: Vec<u32> = (0..ranks.len() as u32).collect();
    idx.sort_by(|&a, &b| {
        ranks[b as usize]
            .partial_cmp(&ranks[a as usize])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    println!("top {top} vertices by rank:");
    for &v in idx.iter().take(top) {
        println!("  v{v}: {:.6}", ranks[v as usize]);
    }
}

fn run_program<P: VertexProgram>(
    engine: &Engine,
    graph: &Path,
    program: P,
    verbose: bool,
) -> Result<gpsa::RunReport<P::Value>, String> {
    let report = engine.run(graph, program).map_err(|e| e.to_string())?;
    println!(
        "{} supersteps in {:?} ({:?}/superstep avg of first 5); {} messages",
        report.supersteps,
        report.superstep_total(),
        report.mean_superstep(5),
        report.messages
    );
    if report.edges_streamed > 0 {
        println!(
            "dispatch I/O: {} edge words ({} bytes) streamed, {} words skipped",
            report.edges_streamed, report.edge_bytes_streamed, report.edges_skipped
        );
    }
    if verbose {
        print_phases(&report.phases);
    }
    Ok(report)
}

/// Render the per-superstep phase breakdown an engine run recorded, plus
/// the run-wide totals. Slab wait is the slice of dispatch time spent
/// blocked acquiring a message slab from the pool (backpressure).
fn print_phases(phases: &[gpsa::PhaseBreakdown]) {
    if phases.is_empty() {
        return;
    }
    let mut t = Table::new(&[
        "superstep",
        "dispatch us",
        "fold us",
        "commit us",
        "slab wait us",
    ]);
    let mut total = gpsa::PhaseBreakdown::default();
    for (i, p) in phases.iter().enumerate() {
        total.add(p);
        t.row(&[
            &i.to_string(),
            &p.dispatch_us.to_string(),
            &p.fold_us.to_string(),
            &p.commit_us.to_string(),
            &p.slab_wait_us.to_string(),
        ]);
    }
    t.row(&[
        "total",
        &total.dispatch_us.to_string(),
        &total.fold_us.to_string(),
        &total.commit_us.to_string(),
        &total.slab_wait_us.to_string(),
    ]);
    print!("{t}");
}

fn print_top_f32(name: &str, report: &gpsa::RunReport<f32>, top: usize) {
    let mut idx: Vec<u32> = (0..report.values.len() as u32).collect();
    idx.sort_by(|&a, &b| {
        report.values[b as usize]
            .partial_cmp(&report.values[a as usize])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    println!("top {top} vertices by {name}:");
    for &v in idx.iter().take(top) {
        println!("  v{v}: {:.6}", report.values[v as usize]);
    }
}

fn print_levels(name: &str, report: &gpsa::RunReport<u32>, top: usize) {
    let reached = report.values.iter().filter(|&&l| l < UNREACHED).count();
    let max = report
        .values
        .iter()
        .filter(|&&l| l < UNREACHED)
        .max()
        .copied()
        .unwrap_or(0);
    println!(
        "reached {reached}/{} vertices; max {name} {max}",
        report.values.len()
    );
    for (v, l) in report
        .values
        .iter()
        .enumerate()
        .filter(|(_, &l)| l < UNREACHED)
        .take(top)
    {
        println!("  v{v}: {l}");
    }
}
