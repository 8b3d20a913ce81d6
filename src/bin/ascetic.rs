//! `ascetic` — command-line driver for the out-of-core graph framework.
//!
//! ```text
//! ascetic generate --kind social --vertices 100000 --edges 2000000 -o g.beg
//! ascetic info g.beg
//! ascetic run g.beg --algo bfs --system ascetic --mem-frac 0.4
//! ascetic run fk@2000 --algo pr --system subway
//! ascetic compare g.beg --algo cc --mem-frac 0.4
//! ```
//!
//! Graphs are file paths (binary `.beg` from `generate`, or whitespace
//! `src dst [w]` text) or builtin dataset specs `gs|fk|fs|uk@SCALE`
//! (stand-ins for the paper's Table 3 datasets at `1/SCALE` size).
//!
//! `run --mutations FILE` streams JSONL edge insert/delete batches through
//! the session after the base run, delta-patching resident chunks and
//! incrementally repairing the answer after every batch; `--verify` checks
//! each repaired output bit-identically against a cold recompute.

use std::collections::HashMap;
use std::process::ExitCode;

use ascetic::algos::{Algo, AlgoError, AnyProgram, ProgramOpts};
use ascetic::baselines::{AnySystem, PtSystem, SubwaySystem, UvmSystem};
use ascetic::core::{
    run_fleet, AsceticConfig, AsceticSystem, CompressionMode, DirectionMode, FillPolicy,
    FleetConfig, FleetRunReport, OutOfCoreSystem, PrefetchMode, RunReport,
};
use ascetic::graph::datasets::{weighted_variant, Dataset, DatasetId};
use ascetic::graph::generators::{
    rmat_graph, social_graph, uniform_graph, web_graph, RmatConfig, SocialConfig, WebConfig,
};
use ascetic::graph::stats::{degree_histogram, degree_stats};
use ascetic::graph::{edgelist, Csr};
use ascetic::sim::DeviceConfig;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        return usage();
    };
    let r = match cmd.as_str() {
        "generate" => cmd_generate(rest),
        "info" => cmd_info(rest),
        "run" => cmd_run(rest),
        "pipeline" => cmd_pipeline(rest),
        "serve" => cmd_serve(rest),
        "trace" => cmd_trace(rest),
        "compare" => cmd_compare(rest),
        "-h" | "--help" | "help" => {
            usage();
            Ok(())
        }
        other => Err(format!("unknown command '{other}'")),
    };
    match r {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "ascetic — out-of-GPU-memory graph processing (Ascetic, ICPP'21 reproduction)

USAGE:
  ascetic generate --kind social|web|rmat|uniform --vertices N --edges M
                   [--seed S] [--undirected] [--weighted] -o FILE
  ascetic info GRAPH
  ascetic run GRAPH --algo bfs|sssp|cc|pr|kcore|msbfs|closeness|lp|bc
                   [--system ascetic|subway|pt|uvm|memory]
                   [--mem BYTES | --mem-frac F] [--source V] [--k-param F] [--kcore-k K]
                   [--static-ratio R] [--no-overlap] [--fill front|rear|random|lazy]
                   [--chunk BYTES] [--no-adaptive] [--compression off|always|adaptive]
                   [--prefetch off|next-frontier]
                   [--direction push|pull|adaptive] (pull gathers unvisited
                    vertices' in-edges from a chunked CSC mirror; adaptive
                    switches per iteration on frontier density — bfs|cc|pr
                    only, outputs byte-identical to push)
                   [--devices N] [--fabric pcie|nvlink] (N>1: shard across an
                    N-device fleet — ascetic system only; outputs stay
                    byte-identical to one device)
                   [--iter-csv FILE]
                   [--trace-out FILE.json|FILE.jsonl] (hierarchical span trace:
                    .json is Chrome/Perfetto format for ui.perfetto.dev,
                    .jsonl is the compact form `ascetic trace summarize` reads)
                   [--metrics-out FILE.jsonl] [--summary text|json|csv|md]
                   [--pool-metrics] (append host worker-pool telemetry — wall-clock,
                    non-deterministic — as an extra JSONL line / stdout object)
                   [--mutations FILE.jsonl] [--verify] (stream edge insert/delete
                    batches through the session after the base run: resident
                    chunks are delta-patched in place and the answer is
                    incrementally repaired after every batch; lines are
                    {{\"op\":\"insert|delete\",\"src\":..,\"dst\":..[,\"weight\":W][,\"batch\":B]}};
                    --verify recomputes each batch cold and demands bit-identity
                    — ascetic system, single device only)
  ascetic pipeline GRAPH --algos bfs,cc,pr,lp [--mem BYTES | --mem-frac F]
                   (one Ascetic session: the static region is prestored once
                    and reused by every algorithm — paper §4.3)
  ascetic serve GRAPH (--trace FILE.jsonl | --synthetic N [--seed S] [--spacing-ns T])
                   [--mutations M] (with --synthetic: interleave M synthetic edge
                    mutations; trace files may carry their own
                    {{\"mutate\":\"insert|delete\",\"src\":..,\"dst\":..,\"at\":NS}} lines —
                    live sessions are delta-patched at each batch's instant)
                   [--policy fifo|sjf|residency] [--no-batching]
                   [--devices N] [--fabric pcie|nvlink] (route jobs across an
                    N-device fleet with static-region replication)
                   [--mem BYTES | --mem-frac F] [--summary text|json]
                   [--trace-out FILE.json|FILE.jsonl] (per-job lifecycle spans)
                   (multi-query serving: admission control, shared-residency
                    scheduling, BFS/SSSP batching; trace lines are
                    {{\"id\":..,\"algo\":\"bfs\",\"source\":..,\"submit_ns\":..}})
  ascetic trace summarize FILE.jsonl [--top K]
                   (per-track span counts + busy/utilization, top-K longest
                    spans, schema-version check of a --trace-out .jsonl file)
  ascetic compare GRAPH --algo ALGO [--mem BYTES | --mem-frac F]

GRAPH: a file path (.beg binary or 'src dst [w]' text), or a builtin
       dataset spec gs|fk|fs|uk@SCALE (e.g. fk@2000 = friendster-konect
       stand-in at 1/2000 of the paper's size)."
    );
    ExitCode::FAILURE
}

/// Minimal flag parser: positionals plus `--key value` / `--bool-flag`.
struct Opts {
    positional: Vec<String>,
    flags: HashMap<String, String>,
}

const BOOL_FLAGS: [&str; 8] = [
    "undirected",
    "weighted",
    "no-overlap",
    "no-adaptive",
    "quiet",
    "pool-metrics",
    "no-batching",
    "verify",
];

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        positional: Vec::new(),
        flags: HashMap::new(),
    };
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            if BOOL_FLAGS.contains(&name) {
                o.flags.insert(name.to_string(), "true".to_string());
            } else {
                let v = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                o.flags.insert(name.to_string(), v.clone());
            }
        } else if let Some(name) = a.strip_prefix("-") {
            let v = it.next().ok_or_else(|| format!("-{name} needs a value"))?;
            o.flags.insert(name.to_string(), v.clone());
        } else {
            o.positional.push(a.clone());
        }
    }
    Ok(o)
}

impl Opts {
    fn get(&self, k: &str) -> Option<&str> {
        self.flags.get(k).map(|s| s.as_str())
    }
    fn parse<T: std::str::FromStr>(&self, k: &str) -> Result<Option<T>, String> {
        match self.get(k) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("bad value for --{k}: {v}")),
        }
    }
    fn require<T: std::str::FromStr>(&self, k: &str) -> Result<T, String> {
        self.parse(k)?.ok_or_else(|| format!("missing --{k}"))
    }
    fn has(&self, k: &str) -> bool {
        self.flags.contains_key(k)
    }
}

fn cmd_generate(args: &[String]) -> Result<(), String> {
    let o = parse_opts(args)?;
    let kind: String = o.require("kind")?;
    let n: usize = o.require("vertices")?;
    let m: u64 = o.require("edges")?;
    let seed: u64 = o.parse("seed")?.unwrap_or(42);
    let out: String = o
        .parse::<String>("o")?
        .or(o.parse::<String>("out")?)
        .ok_or("missing -o FILE")?;
    let undirected = o.has("undirected");

    eprintln!("generating {kind} graph: {n} vertices, {m} edges, seed {seed} ...");
    let mut g = match kind.as_str() {
        "social" => social_graph(&SocialConfig::new(n, m / 2, seed)),
        "web" => web_graph(&WebConfig::new(n, m, seed)),
        "rmat" => {
            let scale = 64 - (n.max(2) as u64 - 1).leading_zeros();
            rmat_graph(&RmatConfig::new(scale, m, seed).undirected(undirected))
        }
        "uniform" => uniform_graph(n, m, undirected, seed),
        other => return Err(format!("unknown --kind {other}")),
    };
    if o.has("weighted") {
        g = weighted_variant(&g);
    }
    write_graph(&g, &out)?;
    eprintln!(
        "wrote {} ({} vertices, {} edges, {:.1} MB of edge data)",
        out,
        g.num_vertices(),
        g.num_edges(),
        g.edge_bytes() as f64 / 1e6
    );
    Ok(())
}

fn write_graph(g: &Csr, path: &str) -> Result<(), String> {
    if path.ends_with(".txt") || path.ends_with(".el") {
        let f = std::fs::File::create(path).map_err(|e| e.to_string())?;
        edgelist::write_text(g, f).map_err(|e| e.to_string())
    } else {
        edgelist::save_binary(g, path).map_err(|e| e.to_string())
    }
}

/// Load a graph argument: builtin `name@scale` or a file path.
fn load_graph(spec: &str) -> Result<Csr, String> {
    if let Some((name, scale)) = spec.split_once('@') {
        let id = match name.to_lowercase().as_str() {
            "gs" => DatasetId::Gs,
            "fk" => DatasetId::Fk,
            "fs" => DatasetId::Fs,
            "uk" => DatasetId::Uk,
            other => return Err(format!("unknown builtin dataset '{other}'")),
        };
        let scale: u64 = scale
            .parse()
            .map_err(|_| format!("bad scale in '{spec}'"))?;
        eprintln!("building {} stand-in at scale 1/{scale} ...", id.name());
        return Ok(Dataset::build(id, scale).graph);
    }
    if spec.ends_with(".txt") || spec.ends_with(".el") {
        Ok(edgelist::load_text(spec, None)
            .map_err(|e| e.to_string())?
            .build())
    } else {
        edgelist::load_binary(spec).map_err(|e| e.to_string())
    }
}

fn cmd_info(args: &[String]) -> Result<(), String> {
    let o = parse_opts(args)?;
    let spec = o.positional.first().ok_or("missing GRAPH")?;
    let g = load_graph(spec)?;
    let s = degree_stats(&g);
    println!("graph:        {spec}");
    println!("vertices:     {}", s.num_vertices);
    println!("edges:        {}", s.num_edges);
    println!("weighted:     {}", g.is_weighted());
    println!("edge data:    {:.2} MB", g.edge_bytes() as f64 / 1e6);
    println!("mean degree:  {:.2}", s.mean);
    println!("max degree:   {}", s.max);
    println!("isolated:     {}", s.isolated);
    println!("degree gini:  {:.3}", s.gini);
    let hist = degree_histogram(&g);
    if !hist.is_empty() {
        println!("degree histogram (log2 buckets):");
        let max = *hist.iter().max().unwrap() as f64;
        for (k, &count) in hist.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let bar = "#".repeat(((count as f64 / max) * 40.0).ceil() as usize);
            println!("  2^{k:<2} {count:>8} {bar}");
        }
    }
    Ok(())
}

/// Deterministic evenly-spread source sample for msbfs/closeness.
fn sample_sources(g: &Csr, k: usize) -> Vec<u32> {
    let n = g.num_vertices() as u32;
    let mut s: Vec<u32> = (0..k as u32)
        .map(|i| i.wrapping_mul(2_654_435_761) % n.max(1))
        .collect();
    s.sort_unstable();
    s.dedup();
    s
}

/// Resolve the device from `--mem` / `--mem-frac` (default: 40% of the
/// dataset's edge bytes, which oversubscribes like the paper's setup).
fn device_from(o: &Opts, g: &Csr) -> Result<DeviceConfig, String> {
    let mem = if let Some(m) = o.parse::<u64>("mem")? {
        m
    } else {
        let frac: f64 = o.parse("mem-frac")?.unwrap_or(0.4);
        if !(0.01..=100.0).contains(&frac) {
            return Err("--mem-frac out of range".into());
        }
        g.num_vertices() as u64 * 24 + (g.edge_bytes() as f64 * frac) as u64
    };
    Ok(DeviceConfig::p100(mem))
}

/// A mode flag's value through the mode's own parser: `--KEY V` → `Some`,
/// absent → `None`, an unknown `V` → an error listing `choices`.
fn parse_mode<T>(
    o: &Opts,
    key: &str,
    parse: fn(&str) -> Option<T>,
    choices: &str,
) -> Result<Option<T>, String> {
    o.get(key)
        .map(|v| parse(v).ok_or_else(|| format!("unknown --{key} {v} ({choices})")))
        .transpose()
}

fn parse_compression_mode(o: &Opts) -> Result<Option<CompressionMode>, String> {
    parse_mode(
        o,
        "compression",
        CompressionMode::parse,
        "off|always|adaptive",
    )
}

fn parse_direction(o: &Opts) -> Result<Option<DirectionMode>, String> {
    parse_mode(o, "direction", DirectionMode::parse, "push|pull|adaptive")
}

fn ascetic_config(o: &Opts, dev: DeviceConfig) -> Result<AsceticConfig, String> {
    let mut cfg = AsceticConfig::new(dev);
    if let Some(k) = o.parse::<f64>("k-param")? {
        cfg = cfg.with_k(k);
    }
    if let Some(r) = o.parse::<f64>("static-ratio")? {
        cfg = cfg.with_static_ratio(r);
    }
    if let Some(c) = o.parse::<usize>("chunk")? {
        cfg = cfg.with_chunk_bytes(c);
    }
    if o.has("no-overlap") {
        cfg = cfg.with_overlap(false);
    }
    if o.has("no-adaptive") {
        cfg = cfg.with_adaptive(false);
    }
    if let Some(f) = o.get("fill") {
        cfg = cfg.with_fill(match f {
            "front" => FillPolicy::Front,
            "rear" => FillPolicy::Rear,
            "random" => FillPolicy::Random { seed: 7 },
            "lazy" => FillPolicy::Lazy,
            other => return Err(format!("unknown --fill {other}")),
        });
    }
    if let Some(m) = parse_compression_mode(o)? {
        cfg = cfg.with_compression(m);
    }
    if let Some(m) = parse_mode(o, "prefetch", PrefetchMode::parse, "off|next-frontier")? {
        cfg = cfg.with_prefetch(m);
    }
    if let Some(m) = parse_direction(o)? {
        cfg = cfg.with_direction(m);
    }
    // default chunk scaled sensibly for small inputs
    if o.get("chunk").is_none() {
        let budget = dev.mem_bytes;
        if budget < 64 * (16 * 1024) {
            cfg = cfg.with_chunk_bytes(((budget / 64).next_multiple_of(8) as usize).max(64));
        }
    }
    // surface bad knob combinations as a clean CLI error, not a panic
    cfg.build().map_err(|e| e.to_string())
}

/// `cfg`, once `AsceticSystem::prepare` accepts it for `g` — the typed
/// check the subcommands that build sessions themselves (fleet, mutations,
/// pipeline) owe `AsceticSession::new`, whose preconditions panic. As in
/// `run_system`, the unweighted `g` also vouches for its weighted variant.
fn prepared(cfg: AsceticConfig, g: &Csr) -> Result<AsceticConfig, String> {
    AsceticSystem::new(cfg)
        .prepare(g)
        .map_err(|e| e.to_string())?;
    Ok(cfg)
}

/// Instantiate `algo` from the CLI knobs: `--source` roots single-source
/// programs, `--kcore-k` parameterizes kcore, and multi-source programs
/// draw their registry-default sample count from the graph.
fn program_for(o: &Opts, g: &Csr, algo: Algo) -> Result<AnyProgram, String> {
    let source: u32 = o.parse("source")?.unwrap_or(0);
    let k: u32 = o.parse("kcore-k")?.unwrap_or(4);
    let count = algo.default_source_count();
    let sources = if count > 0 {
        sample_sources(g, count)
    } else {
        vec![source]
    };
    Ok(algo.program(&ProgramOpts { source, sources, k }))
}

fn run_system(o: &Opts, system: &str, g: &Csr, algo: Algo) -> Result<RunReport, String> {
    let dev = device_from(o, g)?;
    let tracing = o.get("trace-out").is_some();
    // an event log is only worth recording when it will be exported
    let events = o.get("metrics-out").is_some();
    let sys: AnySystem = match system {
        "ascetic" => {
            let cfg = ascetic_config(o, dev)?
                .with_tracing(tracing)
                .with_events(events);
            AsceticSystem::new(cfg).into()
        }
        "subway" => SubwaySystem::new(dev)
            .with_tracing(tracing)
            .with_events(events)
            .with_compression(parse_compression_mode(o)?.unwrap_or_default())
            .into(),
        "pt" => PtSystem::new(dev)
            .with_tracing(tracing)
            .with_events(events)
            .into(),
        "uvm" => UvmSystem::new(dev)
            .with_tracing(tracing)
            .with_events(events)
            .into(),
        other => return Err(format!("unknown --system {other}")),
    };
    // A weighted program may auto-weight the graph below; the vertex
    // count (what prepare checks) is unchanged by weighting, and the
    // session ships weighted payloads raw, so preparing against `g`
    // stays valid.
    sys.prepare(g).map_err(|e| e.to_string())?;
    let prog = program_for(o, g, algo)?;
    if algo.weighted() && !g.is_weighted() {
        let wg = weighted_variant(g);
        Ok(sys.run(&wg, &prog))
    } else {
        Ok(sys.run(g, &prog))
    }
}

/// Eight-level unicode sparkline of per-iteration activity.
fn sparkline(values: &[u64]) -> String {
    const BARS: [char; 8] = [
        '\u{2581}', '\u{2582}', '\u{2583}', '\u{2584}', '\u{2585}', '\u{2586}', '\u{2587}',
        '\u{2588}',
    ];
    let max = values.iter().copied().max().unwrap_or(0).max(1);
    // downsample to at most 60 columns
    let cols = values.len().min(60);
    let mut out = String::with_capacity(cols * 3);
    for c in 0..cols {
        let lo = c * values.len() / cols;
        let hi = ((c + 1) * values.len() / cols).max(lo + 1);
        let v = values[lo..hi].iter().copied().max().unwrap_or(0);
        let idx = ((v as u128 * 7) / max as u128) as usize;
        out.push(BARS[idx]);
    }
    out
}

fn write_iter_csv(r: &RunReport, path: &str) -> Result<(), String> {
    use std::io::Write;
    let mut f = std::fs::File::create(path).map_err(|e| e.to_string())?;
    writeln!(
        f,
        "iteration,active_vertices,active_edges,static_edges,payload_bytes,time_ns"
    )
    .map_err(|e| e.to_string())?;
    for (i, it) in r.per_iter.iter().enumerate() {
        writeln!(
            f,
            "{},{},{},{},{},{}",
            i, it.active_vertices, it.active_edges, it.static_edges, it.payload_bytes, it.time_ns
        )
        .map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn print_report(r: &RunReport, g: &Csr) {
    // the stable summary lives on the report's Display impl; the CLI adds
    // the graph-relative ratio and the activity sparkline
    print!("{r}");
    println!(
        "xfer/dataset:      {:.2}x",
        r.total_bytes_with_prestore() as f64 / g.edge_bytes() as f64
    );
    if r.per_iter.len() > 1 {
        let activity: Vec<u64> = r.per_iter.iter().map(|i| i.active_edges).collect();
        println!("activity/iter:     {}", sparkline(&activity));
    }
}

/// Write the `--metrics-out` JSONL document: one meta line, one line per
/// recorded event, and one final metrics-snapshot line. With
/// `include_pool`, a `{"kind":"pool",...}` line carrying the host
/// worker-pool telemetry (wall-clock, non-deterministic — deliberately
/// kept out of the run's deterministic metrics) is appended.
fn write_metrics_jsonl(
    r: &RunReport,
    graph: &str,
    path: &str,
    include_pool: bool,
) -> Result<(), String> {
    use ascetic::obs::json;
    let mut out = String::new();
    out.push_str("{\"kind\":\"meta\",");
    json::key_into("schema_version", &mut out);
    out.push_str(&ascetic::core::RUN_REPORT_SCHEMA_VERSION.to_string());
    out.push(',');
    json::key_into("system", &mut out);
    json::string_into(r.system, &mut out);
    out.push(',');
    json::key_into("algorithm", &mut out);
    json::string_into(r.algorithm, &mut out);
    out.push(',');
    json::key_into("graph", &mut out);
    json::string_into(graph, &mut out);
    out.push(',');
    json::key_into("events", &mut out);
    out.push_str(&r.events.as_ref().map_or(0, |e| e.len()).to_string());
    out.push(',');
    json::key_into("events_dropped", &mut out);
    out.push_str(&r.events_dropped.to_string());
    out.push(',');
    json::key_into("first_drop_at", &mut out);
    match r.first_drop_at {
        Some(t) => out.push_str(&t.to_string()),
        None => out.push_str("null"),
    }
    out.push_str("}\n");
    if let Some(events) = &r.events {
        out.push_str(&events.to_jsonl());
    }
    out.push_str("{\"kind\":\"metrics\",\"data\":");
    out.push_str(&r.metrics.to_json());
    out.push_str("}\n");
    if include_pool {
        out.push_str("{\"kind\":\"pool\",\"data\":");
        out.push_str(&ascetic::core::pool_metrics_snapshot().to_json());
        out.push_str("}\n");
    }
    std::fs::write(path, out).map_err(|e| e.to_string())
}

/// Write a hierarchical span trace: `.jsonl` gets the compact form that
/// `ascetic trace summarize` and [`Trace::from_jsonl`] read back; any
/// other extension gets the Chrome/Perfetto JSON array for
/// ui.perfetto.dev / chrome://tracing.
fn write_span_trace(trace: &ascetic::obs::Trace, path: &str) -> Result<(), String> {
    let ver = ascetic::core::RUN_REPORT_SCHEMA_VERSION;
    let text = if path.ends_with(".jsonl") {
        trace.to_jsonl(ver)
    } else {
        trace.to_perfetto_json(ver)
    };
    std::fs::write(path, text).map_err(|e| e.to_string())?;
    eprintln!(
        "wrote {} spans on {} tracks to {path} (open .json in ui.perfetto.dev, \
         or `ascetic trace summarize` a .jsonl)",
        trace.spans().len(),
        trace.tracks().len()
    );
    Ok(())
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let o = parse_opts(args)?;
    let spec = o.positional.first().ok_or("missing GRAPH")?;
    let algo: Algo = o
        .require::<String>("algo")?
        .parse()
        .map_err(|e: ascetic::algos::registry::UnknownAlgo| e.to_string())?;
    let system = o.get("system").unwrap_or("ascetic").to_string();
    // reject a forced pull on a push-only algorithm up front, before any
    // graph loading, with the typed registry error instead of a mid-run
    // panic
    if parse_direction(&o)? == Some(DirectionMode::Pull) && !algo.pull() {
        return Err(AlgoError::PullUnsupported {
            algo: algo.display(),
        }
        .to_string());
    }
    let g = load_graph(spec)?;
    if system == "memory" {
        let prog = program_for(&o, &g, algo)?;
        let res = if algo.weighted() && !g.is_weighted() {
            ascetic::algos::inmemory::run_in_memory(&weighted_variant(&g), &prog)
        } else {
            ascetic::algos::inmemory::run_in_memory(&g, &prog)
        };
        println!("system:            memory (oracle)");
        println!("iterations:        {}", res.iterations);
        println!("edges traversed:   {}", res.total_edges);
        println!(
            "avg active edges:  {:.2} % per iteration",
            res.avg_active_edge_fraction(&g) * 100.0
        );
        return Ok(());
    }
    let devices: usize = o.parse("devices")?.unwrap_or(1);
    if let Some(path) = o.get("mutations") {
        if system != "ascetic" {
            return Err(format!(
                "--mutations patches the ascetic session; --system {system} has none"
            ));
        }
        if devices > 1 {
            return Err("--mutations runs single-device (drop --devices)".into());
        }
        return cmd_run_mutations(&o, &g, algo, path);
    }
    if devices > 1 {
        if system != "ascetic" {
            return Err(format!(
                "--devices {devices} shards the ascetic system; --system {system} is single-device"
            ));
        }
        return cmd_run_fleet(&o, &g, algo, devices);
    }
    let rep = run_system(&o, &system, &g, algo)?;
    match o.get("summary").unwrap_or("text") {
        "text" => print_report(&rep, &g),
        "json" => println!("{}", rep.summary_json()),
        "csv" => print!("{}", rep.summary_csv()),
        "md" | "markdown" => print!("{}", rep.summary_markdown()),
        other => return Err(format!("unknown --summary {other} (text|json|csv|md)")),
    }
    let pool_metrics = o.has("pool-metrics");
    if let Some(path) = o.get("metrics-out") {
        write_metrics_jsonl(&rep, spec, path, pool_metrics)?;
        eprintln!(
            "wrote metrics snapshot + {} events to {path}",
            rep.events.as_ref().map_or(0, |e| e.len())
        );
    } else if pool_metrics {
        println!("{}", ascetic::core::pool_metrics_snapshot().to_json());
    }
    if let Some(path) = o.get("iter-csv") {
        write_iter_csv(&rep, path)?;
        eprintln!("wrote per-iteration log to {path}");
    }
    if let Some(path) = o.get("trace-out") {
        match &rep.span_trace {
            Some(trace) => write_span_trace(trace, path)?,
            None => eprintln!("note: this system ran without span tracing"),
        }
    }
    Ok(())
}

/// The `--mutations FILE` path of `ascetic run`: converge on the base
/// graph, then stream the file's insert/delete batches through the live
/// session — delta-patching resident chunks in place and incrementally
/// repairing the answer after every batch. `--verify` recomputes each
/// batch cold in memory and demands bit-identity; any mismatch is a
/// nonzero exit.
fn cmd_run_mutations(o: &Opts, g: &Csr, algo: Algo, path: &str) -> Result<(), String> {
    use ascetic::mutate::{parse_mutations, run_with_mutations};
    let dev = device_from(o, g)?;
    let cfg = prepared(ascetic_config(o, dev)?, g)?;
    let verify = o.has("verify");
    let weighted_run = algo.weighted() && !g.is_weighted();
    let wg = weighted_run.then(|| weighted_variant(g));
    let run_g = wg.as_ref().unwrap_or(g);
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read mutations {path}: {e}"))?;
    let batches = parse_mutations(&text, Some(run_g.num_vertices()), Some(run_g.is_weighted()))
        .map_err(|e| format!("{path}: {e}"))?;
    if batches.is_empty() {
        return Err(format!("{path}: the mutation file holds no batches"));
    }
    let prog = program_for(o, run_g, algo)?;
    let run = run_with_mutations(cfg, run_g, &prog, &batches, verify)
        .map_err(|(i, e)| format!("{path}: batch {i} is not applicable: {e}"))?;
    println!("system:            Ascetic (streaming mutations)");
    println!("algorithm:         {}", run.base.algorithm);
    println!(
        "base run:          {:>8.2} ms, {} iterations, fp {:016x}",
        run.base.sim_time_ns as f64 / 1e6,
        run.base.iterations,
        run.base.output.fingerprint()
    );
    println!(
        "\n{:>5} {:>6} {:>6} {:<8} {:>7} {:>11} {:>10} {:>6} {:>16} {:>7}",
        "batch",
        "+ins",
        "-del",
        "mode",
        "seeds",
        "patch",
        "repair",
        "iters",
        "fingerprint",
        "verify"
    );
    for b in &run.batches {
        println!(
            "{:>5} {:>6} {:>6} {:<8} {:>7} {:>9.2}KB {:>8.2}ms {:>6} {:016x} {:>7}",
            b.index,
            b.inserts,
            b.deletes,
            format!("{:?}", b.mode).to_lowercase(),
            b.seed_count,
            b.patch_wire_bytes as f64 / 1e3,
            b.repair_ns as f64 / 1e6,
            b.repair_iterations,
            b.fingerprint,
            match b.matches_recompute {
                Some(true) => "ok",
                Some(false) => "FAIL",
                None => "-",
            }
        );
    }
    let total_patch: u64 = run.batches.iter().map(|b| b.patch_wire_bytes).sum();
    let total_repair: u64 = run.batches.iter().map(|b| b.repair_ns).sum();
    println!(
        "\n{} batches: {:.2} KB spliced, {:.2} ms of repair, final fp {:016x}",
        run.batches.len(),
        total_patch as f64 / 1e3,
        total_repair as f64 / 1e6,
        run.final_fingerprint()
    );
    if verify {
        if !run.all_verified() {
            return Err("repaired output diverged from the cold recompute".into());
        }
        println!("every repaired output matches its cold recompute ✓");
    }
    Ok(())
}

/// `--fabric pcie|nvlink` → a [`FleetConfig`] over N devices.
fn fleet_config(o: &Opts, devices: usize) -> Result<FleetConfig, String> {
    match o.get("fabric").unwrap_or("pcie") {
        "pcie" => Ok(FleetConfig::pcie(devices)),
        "nvlink" => Ok(FleetConfig::nvlink(devices)),
        other => Err(format!("unknown --fabric {other} (pcie|nvlink)")),
    }
}

/// The `--devices N` (N>1) path of `ascetic run`: shard the graph across
/// an N-device fleet and run with cross-device frontier exchange. The
/// answer is byte-identical to the single-device run; only the timing
/// model changes.
fn cmd_run_fleet(o: &Opts, g: &Csr, algo: Algo, devices: usize) -> Result<(), String> {
    let dev = device_from(o, g)?;
    let tracing = o.get("trace-out").is_some();
    let cfg = prepared(ascetic_config(o, dev)?.with_tracing(tracing), g)?;
    let fleet = fleet_config(o, devices)?;
    let fabric = o.get("fabric").unwrap_or("pcie").to_string();
    let prog = program_for(o, g, algo)?;
    let rep = if algo.weighted() && !g.is_weighted() {
        let wg = weighted_variant(g);
        run_fleet(cfg, fleet, &wg, &prog)
    } else {
        run_fleet(cfg, fleet, g, &prog)
    };
    print_fleet_report(&rep, &fabric);
    if let Some(path) = o.get("trace-out") {
        match &rep.span_trace {
            Some(trace) => write_span_trace(trace, path)?,
            None => eprintln!("note: fleet ran without span tracing"),
        }
    }
    Ok(())
}

fn print_fleet_report(r: &FleetRunReport, fabric: &str) {
    println!(
        "system:            Ascetic fleet ({} devices, {fabric} fabric)",
        r.devices
    );
    println!("iterations:        {}", r.iterations);
    println!("output fp:         {:016x}", r.output.fingerprint());
    println!("makespan:          {:>8.2} ms", r.makespan_ns as f64 / 1e6);
    println!(
        "frontier exchange: {:>8.2} MB ({} peer / {} staged transfers, {:.2} MB over the wire)",
        r.exchange_bytes as f64 / 1e6,
        r.interconnect.peer_transfers,
        r.interconnect.staged_transfers,
        r.interconnect.total_bytes() as f64 / 1e6
    );
    println!(
        "\n{:<8} {:>10} {:>11} {:>12}",
        "device", "time", "prestore", "steady xfer"
    );
    for (i, d) in r.per_device.iter().enumerate() {
        println!(
            "{:<8} {:>8.2}ms {:>9.2}MB {:>10.2}MB",
            format!("dev{i}"),
            d.sim_time_ns as f64 / 1e6,
            d.prestore_bytes as f64 / 1e6,
            d.steady_bytes() as f64 / 1e6
        );
    }
}

fn cmd_pipeline(args: &[String]) -> Result<(), String> {
    use ascetic::core::session::AsceticSession;
    let o = parse_opts(args)?;
    let spec = o.positional.first().ok_or("missing GRAPH")?;
    let algos: String = o.require("algos")?;
    let g = load_graph(spec)?;
    if g.is_weighted() {
        return Err("pipeline runs unweighted algorithms; use an unweighted graph".into());
    }
    let dev = device_from(&o, &g)?;
    let cfg = prepared(ascetic_config(&o, dev)?, &g)?;

    let mut session = AsceticSession::new(cfg, &g);
    println!(
        "{:<10} {:>10} {:>8} {:>12} {:>11} {:>11}",
        "step", "time", "iters", "steady xfer", "prestore", "static hit"
    );
    for name in algos.split(',') {
        let algo: Algo = name
            .trim()
            .parse()
            .map_err(|e: ascetic::algos::registry::UnknownAlgo| e.to_string())?;
        if algo.weighted() {
            return Err(format!(
                "pipeline runs unweighted algorithms; '{}' needs edge weights",
                algo.name()
            ));
        }
        let rep = session.run(&program_for(&o, &g, algo)?);
        let static_edges: u64 = rep.per_iter.iter().map(|i| i.static_edges).sum();
        let total: u64 = rep.per_iter.iter().map(|i| i.active_edges).sum();
        println!(
            "{:<10} {:>8.2}ms {:>8} {:>10.2}MB {:>9.2}MB {:>10.1}%",
            name.trim(),
            rep.sim_time_ns as f64 / 1e6,
            rep.iterations,
            rep.steady_bytes() as f64 / 1e6,
            rep.prestore_bytes as f64 / 1e6,
            static_edges as f64 / total.max(1) as f64 * 100.0
        );
    }
    println!(
        "\n{} runs over one prestored static region ({:.0}% of chunks resident)",
        session.runs(),
        session.resident_fraction() * 100.0
    );
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    use ascetic::serve::{
        parse_trace_mutating, serve_mutating, synthetic_mixed, synthetic_mutations, Policy,
        ServeConfig, TraceMutation,
    };
    let o = parse_opts(args)?;
    let spec = o.positional.first().ok_or("missing GRAPH")?;
    let g = load_graph(spec)?;
    if g.is_weighted() {
        return Err(
            "serve expects an unweighted graph; sssp jobs run on an auto-weighted variant".into(),
        );
    }
    let policy = match o.get("policy") {
        Some(p) => {
            Policy::parse(p).ok_or_else(|| format!("unknown --policy {p} (fifo|sjf|residency)"))?
        }
        None => Policy::ResidencyAffinity,
    };
    // a trace file (which may interleave mutation records), or the
    // deterministic synthetic mixed workload
    let (jobs, mutations): (Vec<_>, Vec<TraceMutation>) = if let Some(path) = o.get("trace") {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read trace {path}: {e}"))?;
        let t = parse_trace_mutating(&text, Some(g.num_vertices())).map_err(|e| e.to_string())?;
        (t.jobs, t.mutations)
    } else if let Some(n) = o.parse::<usize>("synthetic")? {
        let seed = o.parse::<u64>("seed")?.unwrap_or(7);
        let spacing = o.parse::<u64>("spacing-ns")?.unwrap_or(0);
        let jobs = synthetic_mixed(n, g.num_vertices(), seed, spacing, 1);
        let muts = match o.parse::<usize>("mutations")? {
            Some(m) => synthetic_mutations(m, g.num_vertices(), seed, spacing.max(1)),
            None => Vec::new(),
        };
        (jobs, muts)
    } else {
        return Err("serve needs --trace FILE or --synthetic N".into());
    };
    if jobs.is_empty() {
        return Err("the trace holds no jobs".into());
    }
    // a forced pull with push-only jobs in the trace is handled per-job
    // at admission: those jobs come back rejected with the AlgoError text
    let dev = device_from(&o, &g)?;
    let cfg = ascetic_config(&o, dev)?;
    let mut sc = ServeConfig::new(cfg, policy);
    if o.has("no-batching") {
        sc = sc.without_batching();
    }
    if let Some(n) = o.parse::<usize>("devices")? {
        sc = sc.with_devices(n);
        let ic = match o.get("fabric").unwrap_or("pcie") {
            "pcie" => ascetic::sim::InterconnectConfig::pcie(),
            "nvlink" => ascetic::sim::InterconnectConfig::nvlink(),
            other => return Err(format!("unknown --fabric {other} (pcie|nvlink)")),
        };
        sc = sc.with_interconnect(ic);
    }
    let weighted = jobs
        .iter()
        .any(|j| j.kind.weighted())
        .then(|| weighted_variant(&g));
    let rep =
        serve_mutating(&sc, &g, weighted.as_ref(), &jobs, &mutations).map_err(|e| e.to_string())?;
    match o.get("summary").unwrap_or("text") {
        "text" => {
            println!("{}", rep.summary_text());
            println!(
                "\n{:>5} {:<5} {:>6} {:>5} {:>12} {:>12} {:>9}",
                "job", "algo", "batch", "lanes", "wait", "run", "deadline"
            );
            for j in &rep.jobs {
                println!(
                    "{:>5} {:<5} {:>6} {:>5} {:>10.2}ms {:>10.2}ms {:>9}",
                    j.id,
                    j.algo,
                    j.batch.map_or("-".to_string(), |b| b.to_string()),
                    j.lanes,
                    j.queue_wait_ns as f64 / 1e6,
                    j.run.sim_time_ns as f64 / 1e6,
                    match j.met_deadline {
                        Some(true) => "met",
                        Some(false) => "MISSED",
                        None => "-",
                    }
                );
            }
            for r in &rep.rejected {
                eprintln!("rejected job {} ({}): {}", r.id, r.algo, r.reason);
            }
        }
        "json" => println!("{}", rep.to_json()),
        other => return Err(format!("unknown --summary {other} (text|json)")),
    }
    if let Some(path) = o.get("trace-out") {
        match &rep.span_trace {
            Some(trace) => write_span_trace(trace, path)?,
            None => eprintln!("note: serve ran without span tracing"),
        }
    }
    Ok(())
}

fn cmd_trace(args: &[String]) -> Result<(), String> {
    let o = parse_opts(args)?;
    let sub = o.positional.first().map(|s| s.as_str());
    if sub != Some("summarize") {
        return Err("usage: ascetic trace summarize FILE.jsonl [--top K]".into());
    }
    let path = o
        .positional
        .get(1)
        .ok_or("trace summarize needs a FILE.jsonl (from --trace-out)")?;
    let top: usize = o.parse("top")?.unwrap_or(10);
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read trace {path}: {e}"))?;
    let (trace, version) =
        ascetic::obs::Trace::from_jsonl(&text).map_err(|e| format!("{path}: {e}"))?;
    if version != ascetic::core::RUN_REPORT_SCHEMA_VERSION {
        return Err(format!(
            "{path}: trace schema version {version} does not match this binary's {}",
            ascetic::core::RUN_REPORT_SCHEMA_VERSION
        ));
    }
    let horizon = trace.horizon_ns();
    println!("trace:          {path}");
    println!("schema version: {version}");
    println!("horizon:        {:.3} ms", horizon as f64 / 1e6);
    println!("tracks:         {}", trace.tracks().len());
    println!("spans:          {}", trace.spans().len());
    println!();
    println!(
        "{:<32} {:>6} {:>12} {:>8}",
        "track", "spans", "busy", "util"
    );
    for (i, name) in trace.tracks().iter().enumerate() {
        let spans = trace.track_spans(i).count();
        let busy = trace.busy_ns(i, 0, horizon);
        println!(
            "{:<32} {:>6} {:>10.3}ms {:>7.1}%",
            name,
            spans,
            busy as f64 / 1e6,
            busy as f64 / horizon.max(1) as f64 * 100.0
        );
    }
    println!();
    println!("top {top} longest spans:");
    println!(
        "{:<28} {:<10} {:>12} {:>12} {:<24}",
        "name", "cat", "start", "duration", "track"
    );
    for s in trace.top_spans(top) {
        println!(
            "{:<28} {:<10} {:>10.3}ms {:>10.3}ms {:<24}",
            s.name,
            s.cat,
            s.start_ns as f64 / 1e6,
            s.dur_ns() as f64 / 1e6,
            trace.tracks()[s.track]
        );
    }
    Ok(())
}

fn cmd_compare(args: &[String]) -> Result<(), String> {
    let o = parse_opts(args)?;
    let spec = o.positional.first().ok_or("missing GRAPH")?;
    let algo: Algo = o
        .require::<String>("algo")?
        .parse()
        .map_err(|e: ascetic::algos::registry::UnknownAlgo| e.to_string())?;
    if parse_direction(&o)? == Some(DirectionMode::Pull) && !algo.pull() {
        return Err(AlgoError::PullUnsupported {
            algo: algo.display(),
        }
        .to_string());
    }
    let g = load_graph(spec)?;
    println!(
        "{:<8} {:>12} {:>9} {:>14} {:>10} {:>9}",
        "system", "time", "speedup", "transferred", "xfer/data", "GPU idle"
    );
    let mut base: Option<f64> = None;
    let mut outputs: Vec<RunReport> = Vec::new();
    for system in ["pt", "uvm", "subway", "ascetic"] {
        let rep = run_system(&o, system, &g, algo)?;
        let t = rep.seconds();
        let b = *base.get_or_insert(t);
        println!(
            "{:<8} {:>10.3}ms {:>8.2}X {:>12.2}MB {:>9.2}X {:>8.1}%",
            rep.system,
            t * 1e3,
            b / t,
            rep.total_bytes_with_prestore() as f64 / 1e6,
            rep.total_bytes_with_prestore() as f64 / g.edge_bytes() as f64,
            rep.gpu_idle_fraction() * 100.0
        );
        outputs.push(rep);
    }
    for r in &outputs[1..] {
        if r.output.first_mismatch(&outputs[0].output, 1e-6).is_some() {
            return Err(format!("{} and {} disagree!", r.system, outputs[0].system));
        }
    }
    println!("\nall systems agree on the result ✓");
    Ok(())
}
