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
//! This file is argument wiring (`DESIGN.md` §20). [`CMDS`] is the one
//! table of subcommands and flags: the parser accepts exactly what it
//! declares, `--help` is printed from it, and an [`Opts`] lookup of a name
//! it does not declare panics. [`resolve`] is the one step from
//! `GRAPH --algo … knobs` to the graph a run executes on, its program(s)
//! and a checked [`AsceticConfig`]. A new knob is one table row plus one
//! `knob(…, AsceticConfig::with_*)` line in [`ascetic_config`].

use std::fmt::{Display, Write as _};
use std::io::{self, Write as _};
use std::process::ExitCode;
use std::str::FromStr;

use ascetic::algos::inmemory::run_in_memory;
use ascetic::algos::traits::DEVICE_BYTES_PER_VERTEX;
use ascetic::algos::{Algo, AnyProgram};
use ascetic::baselines::{AnySystem, PtSystem, SubwaySystem, UvmSystem};
use ascetic::core::session::AsceticSession;
use ascetic::core::{
    run_fleet, AsceticConfig, AsceticSystem, FleetConfig, FleetRunReport, OutOfCoreSystem,
    RunReport, MIN_CHUNK_BYTES, RUN_REPORT_SCHEMA_VERSION,
};
use ascetic::graph::datasets::{weighted_variant, Dataset, DatasetId};
use ascetic::graph::generators::{
    rmat_graph, social_graph, uniform_graph, web_graph, RmatConfig, SocialConfig, WebConfig,
};
use ascetic::graph::stats::{degree_histogram, degree_stats};
use ascetic::graph::{edgelist, Csr};
use ascetic::obs::{json, Trace};
use ascetic::sim::{DeviceConfig, InterconnectConfig};

/// Any failure, as the text `main` prints after `error: `. Every `Display`
/// error converts, so `?` is the whole error path.
struct CliError(String);

impl<E: Display> From<E> for CliError {
    fn from(e: E) -> Self {
        CliError(e.to_string())
    }
}

type Res<T = ()> = Result<T, CliError>;

/// Stdout, locked once for the whole command: every report line is
/// written through it. A reader that went away (`ascetic run … | head`)
/// is noted in `.1`, and `main` then ends quietly with exit 0.
struct Out(io::StdoutLock<'static>, bool);

impl io::Write for Out {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let r = self.0.write(buf);
        self.1 |= matches!(&r, Err(e) if e.kind() == io::ErrorKind::BrokenPipe);
        r
    }

    fn flush(&mut self) -> io::Result<()> {
        let r = self.0.flush();
        self.1 |= matches!(&r, Err(e) if e.kind() == io::ErrorKind::BrokenPipe);
        r
    }
}

/// `r`, its error prefixed with `what` (the file or flag it came from).
fn ctx<T, E: Display>(r: Result<T, E>, what: impl Display) -> Res<T> {
    r.map_err(|e| CliError(format!("{what}: {e}")))
}

fn read(path: &str, what: &str) -> Res<String> {
    let text = std::fs::read_to_string(path);
    ctx(text, format_args!("cannot read {what} {path}"))
}

/// One table row, as `--help` prints it: a flag is `"--name VALUE: help"`
/// (`"--name: help"` for a switch), a subcommand `"name ARG..: about"`.
type Row = &'static str;

/// `row` as `(name, VALUE or ARG.. or "", help)`.
fn split(row: Row) -> (&'static str, &'static str, &'static str) {
    let (head, help) = row.split_once(": ").expect("a row carries a help text");
    let (name, value) = head.split_once(' ').unwrap_or((head, ""));
    (name, value, help)
}

/// Flags several subcommands (or several paths of one) share.
type Group = &'static [Row];

const PROG: Group = &["--source V: root vertex of bfs|sssp|bc (default 0)"];
const DEV: Group = &[
    "--mem BYTES: device memory, or:",
    "--mem-frac F: vertex arrays + F x edge bytes (default 0.4)",
];
const COMP: Group =
    &["--compression MODE: off|adaptive delta-varint H2D payloads (ascetic, subway)"];
const KNOBS: Group = &[
    "--k-param F: Eq (2) active-edge fraction K (default 0.1)",
    "--static-ratio R: fixed static-region share, not Eq (2)",
    "--chunk BYTES: edge-chunk size (default 16384; scaled down under 1 MiB)",
    "--fill POLICY: front|rear|random static-region prestore",
    "--no-overlap: serialize static-region compute and on-demand transfer",
    "--no-adaptive: never re-partition (Eq (3) off)",
    "--prefetch MODE: off|next-frontier use of this iteration's link gaps",
    "--direction MODE: push|pull|adaptive traversal (pull: bfs|cc|pr only)",
];
const FLEET: Group = &[
    "--devices N: simulated devices (answers identical to one)",
    "--fabric NAME: pcie|nvlink between them (default pcie)",
];
const TRACE: Group =
    &["--trace-out FILE: spans as Perfetto JSON (ui.perfetto.dev, `trace summarize`)"];
const REPORT: Group = &[
    "--summary FMT: text|json (default text)",
    "--metrics-out FILE: JSONL of meta, every event, final metrics",
    "--iter-csv FILE: one row per iteration",
];
const SYNTH: Group = &[
    "--synthetic N: N deterministic mixed jobs instead of --trace",
    "--seed S: their seed (default 7)",
    "--spacing-ns T: their arrival spacing (default 0: one burst)",
    "--mutations M: interleave M synthetic edge mutations",
];

/// One subcommand: its synopsis row, its own flags, the shared groups it
/// also reads, and the function that runs it.
struct Cmd {
    synopsis: Row,
    flags: &'static [Row],
    groups: &'static [Group],
    run: fn(&Opts, &mut Out) -> Res,
}

const CMDS: &[Cmd] = &[
    Cmd {
        synopsis: "generate: write a synthetic graph",
        flags: &[
            "--kind KIND: social|web|rmat|uniform",
            "--vertices N: vertex count",
            "--edges M: edge count",
            "--seed S: (default 42)",
            "--undirected: rmat|uniform only: add every reverse edge",
            "--weighted: attach deterministic edge weights",
            "-o FILE: .txt|.el get 'src dst [w]' text, anything else .beg binary",
        ],
        groups: &[],
        run: cmd_generate,
    },
    Cmd {
        synopsis: "info GRAPH: size, degree statistics and histogram",
        flags: &[],
        groups: &[],
        run: cmd_info,
    },
    Cmd {
        synopsis: "run GRAPH: one algorithm under one system, on one path of it",
        flags: &[
            "--algo ALGO: bfs|sssp|cc|pr|lp|bc",
            "--system SYSTEM: ascetic|subway|pt|uvm|memory (default ascetic)",
            "--mutations FILE: then stream JSONL edge batches through the live session",
            "--verify: recompute every batch cold and demand bit-identity",
        ],
        groups: &[PROG, DEV, COMP, KNOBS, FLEET, REPORT, TRACE],
        run: cmd_run,
    },
    Cmd {
        synopsis: "pipeline GRAPH: several algorithms, one prestored static region (§4.3)",
        flags: &["--algos A,B,..: unweighted algorithms, in order"],
        groups: &[PROG, DEV, COMP, KNOBS],
        run: cmd_pipeline,
    },
    Cmd {
        synopsis: "compare GRAPH: all four systems; a knob goes to the systems that have it",
        flags: &["--algo ALGO: as for run"],
        groups: &[PROG, DEV, COMP, KNOBS],
        run: cmd_compare,
    },
    Cmd {
        synopsis: "serve GRAPH: a job trace under admission, scheduling and BFS/SSSP batching",
        flags: &[
            "--trace FILE: JSONL jobs, optionally with mutation records",
            "--policy POLICY: fifo|sjf|residency (default residency)",
            "--no-batching: every job runs alone",
            "--summary FMT: text|json (default text)",
        ],
        groups: &[SYNTH, DEV, COMP, KNOBS, FLEET, TRACE],
        run: cmd_serve,
    },
    Cmd {
        synopsis: "trace summarize FILE.json: busy time per track, the longest spans",
        flags: &["--top K: spans listed (default 10)"],
        groups: &[],
        run: cmd_trace,
    },
];

impl Cmd {
    fn name(&self) -> &'static str {
        split(self.synopsis).0
    }

    fn args(&self) -> impl Iterator<Item = &'static str> {
        split(self.synopsis).1.split_whitespace()
    }

    /// `(--name, VALUE or "", help)` of every flag the command declares.
    fn all_flags(&self) -> impl Iterator<Item = (&'static str, &'static str, &'static str)> {
        let shared = self.groups.iter().flat_map(|g| g.iter());
        self.flags.iter().chain(shared).copied().map(split)
    }
}

/// The help text, printed from [`CMDS`].
fn usage() -> String {
    let mut out = String::from(
        "ascetic — out-of-GPU-memory graph processing (Ascetic, ICPP'21 reproduction)\n",
    );
    for c in CMDS {
        let (name, args, about) = split(c.synopsis);
        let synopsis = format!("{name} {args}");
        writeln!(out, "\n  ascetic {}\n      {about}", synopsis.trim_end()).unwrap();
        for (flag, value, help) in c.all_flags() {
            writeln!(out, "      {:<22} {help}", format!("{flag} {value}")).unwrap();
        }
    }
    out.push_str(
        "\nGRAPH: a file path (.beg binary or 'src dst [w]' text), or a builtin\n       \
         dataset spec gs|fk|fs|uk@SCALE (e.g. fk@2000 = friendster-konect\n       \
         stand-in at 1/2000 of the paper's size).\n",
    );
    out
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((name, rest)) = argv.split_first() else {
        eprint!("{}", usage());
        return ExitCode::FAILURE;
    };
    let mut out = Out(io::stdout().lock(), false);
    let r = match CMDS.iter().find(|c| c.name() == name) {
        _ if ["-h", "--help", "help"].contains(&name.as_str()) => {
            write!(out, "{}", usage()).map_err(CliError::from)
        }
        Some(c) => parse_opts(c, rest).and_then(|o| (c.run)(&o, &mut out)),
        None => Err(format!("unknown command '{name}' (see `ascetic --help`)").into()),
    };
    match r.and_then(|()| Ok(out.flush()?)) {
        // a reader that went away has been told all it will read
        Err(CliError(e)) if !out.1 => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
        _ => ExitCode::SUCCESS,
    }
}

/// One parsed command line: `cmd`'s positionals and the flags given, both
/// checked against `cmd`'s row of [`CMDS`].
struct Opts {
    cmd: &'static Cmd,
    args: Vec<String>,
    given: Vec<(&'static str, String)>,
}

/// Parse `argv` by `cmd`'s table: a flag it does not declare, a repeated
/// flag, a missing value and a missing or surplus positional are errors
/// naming the offender.
fn parse_opts(cmd: &'static Cmd, argv: &[String]) -> Res<Opts> {
    let (me, want) = (cmd.name(), cmd.args().collect::<Vec<_>>());
    let (mut args, mut given) = (Vec::new(), Vec::<(&str, String)>::new());
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        if !a.starts_with('-') {
            args.push(a.clone());
            continue;
        }
        let (name, value, _) = cmd
            .all_flags()
            .find(|f| f.0 == a)
            .ok_or_else(|| format!("`ascetic {me}` has no flag {a}"))?;
        if given.iter().any(|g| g.0 == name) {
            return Err(format!("{a} given twice to `ascetic {me}`").into());
        }
        let v = match value {
            "" => String::new(),
            _ => it
                .next()
                .ok_or_else(|| format!("{a} needs a value"))?
                .clone(),
        };
        given.push((name, v));
    }
    match (args.get(want.len()), want.get(args.len())) {
        (Some(extra), _) => Err(format!("unexpected argument '{extra}' for `ascetic {me}`").into()),
        (None, Some(missing)) => Err(format!("missing {missing}").into()),
        (None, None) => Ok(Opts { cmd, args, given }),
    }
}

impl Opts {
    /// The value of flag `k` (`"--name"`; empty for a switch), if given.
    ///
    /// # Panics
    /// If `k` is not in the subcommand's table — a reader and the table
    /// (hence the parser and `--help`) cannot drift apart.
    fn get(&self, k: &str) -> Option<&str> {
        let me = self.cmd.name();
        let declared = self.cmd.all_flags().any(|f| f.0 == k);
        assert!(declared, "`ascetic {me}` reads {k} but does not declare it");
        self.given.iter().find(|g| g.0 == k).map(|g| g.1.as_str())
    }

    fn has(&self, k: &str) -> bool {
        self.get(k).is_some()
    }

    /// Flag `k` through its type's own parser.
    fn parse<T: FromStr<Err: Display>>(&self, k: &str) -> Res<Option<T>> {
        self.get(k)
            .map(|v| ctx(v.parse(), format_args!("{k} {v}")))
            .transpose()
    }

    fn require<T: FromStr<Err: Display>>(&self, k: &str) -> Res<T> {
        self.parse(k)?.ok_or_else(|| format!("missing {k}").into())
    }

    /// Fail if a flag of `groups` was given: `path` cannot honour it.
    fn reject(&self, groups: &[Group], path: &str) -> Res {
        let mut rows = groups.iter().flat_map(|g| g.iter()).copied().map(split);
        match rows.find(|row| self.has(row.0)) {
            Some((name, ..)) => Err(format!("{name} has no effect with {path}").into()),
            None => Ok(()),
        }
    }
}

fn cmd_generate(o: &Opts, _: &mut Out) -> Res {
    let kind: String = o.require("--kind")?;
    let n: usize = o.require("--vertices")?;
    let m: u64 = o.require("--edges")?;
    let seed: u64 = o.parse("--seed")?.unwrap_or(42);
    let out: String = o.require("-o")?;
    let undirected = o.has("--undirected");

    eprintln!("generating {kind} graph: {n} vertices, {m} edges, seed {seed} ...");
    let mut g = match kind.as_str() {
        "social" | "web" if undirected => {
            return Err(format!("--undirected has no effect with --kind {kind}").into())
        }
        "social" | "web" | "uniform" if n < 2 => {
            return Err(format!("--vertices {n}: --kind {kind} needs at least 2").into())
        }
        "social" => social_graph(&SocialConfig::new(n, m / 2, seed)),
        "web" => web_graph(&WebConfig::new(n, m, seed)),
        "rmat" => {
            let scale = 64 - (n.max(2) as u64 - 1).leading_zeros();
            rmat_graph(&RmatConfig::new(scale, m, seed).undirected(undirected))
        }
        "uniform" => uniform_graph(n, m, undirected, seed),
        other => return Err(format!("unknown --kind {other}").into()),
    };
    if o.has("--weighted") {
        g = weighted_variant(&g);
    }
    if is_text(&out) {
        edgelist::write_text(&g, std::fs::File::create(&out)?)?;
    } else {
        edgelist::save_binary(&g, &out)?;
    }
    eprintln!(
        "wrote {} ({} vertices, {} edges, {:.1} MB of edge data)",
        out,
        g.num_vertices(),
        g.num_edges(),
        g.edge_bytes() as f64 / 1e6
    );
    Ok(())
}

fn is_text(path: &str) -> bool {
    path.ends_with(".txt") || path.ends_with(".el")
}

/// Load a graph argument: builtin `name@scale` or a file path.
fn load_graph(spec: &str) -> Res<Csr> {
    if let Some((name, scale)) = spec.split_once('@') {
        let id = DatasetId::ALL
            .into_iter()
            .find(|d| d.abbr().eq_ignore_ascii_case(name))
            .ok_or_else(|| format!("unknown builtin dataset '{name}'"))?;
        let scale: u64 = ctx(scale.parse(), format_args!("bad scale in '{spec}'"))?;
        if scale == 0 {
            return Err(format!("bad scale in '{spec}': the divisor must be at least 1").into());
        }
        eprintln!("building {} stand-in at scale 1/{scale} ...", id.name());
        return Ok(Dataset::build(id, scale).graph);
    }
    let g = if is_text(spec) {
        edgelist::load_text(spec, None)?.build()
    } else {
        edgelist::load_binary(spec)?
    };
    if g.num_vertices() == 0 {
        return Err(format!("{spec}: the graph has no vertices").into());
    }
    Ok(g)
}

fn cmd_info(o: &Opts, out: &mut Out) -> Res {
    let spec = &o.args[0];
    let g = load_graph(spec)?;
    let s = degree_stats(&g);
    writeln!(out, "graph:        {spec}")?;
    writeln!(out, "vertices:     {}", s.num_vertices)?;
    writeln!(out, "edges:        {}", s.num_edges)?;
    writeln!(out, "weighted:     {}", g.is_weighted())?;
    writeln!(out, "edge data:    {:.2} MB", g.edge_bytes() as f64 / 1e6)?;
    writeln!(out, "mean degree:  {:.2}", s.mean)?;
    writeln!(out, "max degree:   {}", s.max)?;
    writeln!(out, "isolated:     {}", s.isolated)?;
    writeln!(out, "degree gini:  {:.3}", s.gini)?;
    let hist = degree_histogram(&g);
    if !hist.is_empty() {
        writeln!(out, "degree histogram (log2 buckets):")?;
        let max = *hist.iter().max().unwrap() as f64;
        for (k, &count) in hist.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let bar = "#".repeat(((count as f64 / max) * 40.0).ceil() as usize);
            writeln!(out, "  2^{k:<2} {count:>8} {bar}")?;
        }
    }
    Ok(())
}

/// `cfg` with `--k VALUE`, when given, applied through `set`.
fn knob<T: FromStr<Err: Display>>(
    o: &Opts,
    k: &str,
    cfg: AsceticConfig,
    set: fn(AsceticConfig, T) -> AsceticConfig,
) -> Res<AsceticConfig> {
    Ok(o.parse(k)?.map_or(cfg, |v| set(cfg, v)))
}

/// The device (`--mem`, or `--mem-frac` of `g`'s edge bytes beside the
/// vertex arrays: the default 0.4 oversubscribes like the paper's setup)
/// and every Ascetic knob, as a `build()`-checked configuration.
fn ascetic_config(o: &Opts, g: &Csr) -> Res<AsceticConfig> {
    let mem = match o.parse::<u64>("--mem")? {
        Some(_) if o.has("--mem-frac") => return Err("give --mem or --mem-frac, not both".into()),
        Some(m) => m,
        None => {
            let frac: f64 = o.parse("--mem-frac")?.unwrap_or(0.4);
            if !(0.01..=100.0).contains(&frac) {
                return Err("--mem-frac out of range".into());
            }
            g.num_vertices() as u64 * DEVICE_BYTES_PER_VERTEX
                + (g.edge_bytes() as f64 * frac) as u64
        }
    };
    let mut cfg = AsceticConfig::new(DeviceConfig::p100(mem))
        .with_overlap(!o.has("--no-overlap"))
        .with_adaptive(!o.has("--no-adaptive"));
    // the paper's 16 KiB chunk, scaled down where a device holds under 64 of them
    if mem < 64 * cfg.chunk_bytes as u64 {
        let chunk = (mem / 64).next_multiple_of(8) as usize;
        cfg = cfg.with_chunk_bytes(chunk.max(MIN_CHUNK_BYTES));
    }
    cfg = knob(o, "--chunk", cfg, AsceticConfig::with_chunk_bytes)?;
    cfg = knob(o, "--k-param", cfg, AsceticConfig::with_k)?;
    cfg = knob(o, "--static-ratio", cfg, AsceticConfig::with_static_ratio)?;
    cfg = knob(o, "--fill", cfg, AsceticConfig::with_fill)?;
    cfg = knob(o, "--compression", cfg, AsceticConfig::with_compression)?;
    cfg = knob(o, "--prefetch", cfg, AsceticConfig::with_prefetch)?;
    cfg = knob(o, "--direction", cfg, AsceticConfig::with_direction)?;
    Ok(cfg.build()?)
}

/// What a subcommand runs on, out of [`resolve`].
struct Resolved {
    /// The graph as executed.
    g: Csr,
    /// Edge bytes of the graph as *given* — what `--mem-frac` and the
    /// reports' transfer-per-dataset ratios are relative to.
    dataset_bytes: u64,
    cfg: AsceticConfig,
    /// One program per requested algorithm.
    progs: Vec<AnyProgram>,
}

/// The one step from `GRAPH`, the requested algorithms and the flags to
/// what actually runs: the graph (its weighted variant when an algorithm
/// reads weights the input lacks), each program (`--source` range-checked
/// by the registry), and a configuration that passed
/// `build()`, each algorithm's `validate_algo()` and `prepare()` on that
/// graph — whose vertex-fit half is all a baseline's own `prepare` checks.
/// `serve` names no algorithm and gets no program or `prepare`: its
/// admission checks each job's.
fn resolve(o: &Opts, algos: &[Algo]) -> Res<Resolved> {
    let mut g = load_graph(&o.args[0])?;
    let cfg = ascetic_config(o, &g)?;
    let dataset_bytes = g.edge_bytes();
    if algos.iter().any(|a| a.weighted()) && !g.is_weighted() {
        g = weighted_variant(&g);
    }
    let mut progs = Vec::new();
    if !algos.is_empty() {
        AsceticSystem::new(cfg).prepare(&g)?;
        let source = o.parse("--source")?.unwrap_or(0);
        for algo in algos {
            cfg.validate_algo(algo.capabilities(), algo.display())?;
            progs.push(algo.program_on(&g, source)?);
        }
    }
    Ok(Resolved {
        g,
        dataset_bytes,
        cfg,
        progs,
    })
}

/// The system `--system name` names, on `r`'s device.
fn system(r: &Resolved, name: &str, tracing: bool) -> Res<AnySystem> {
    let dev = r.cfg.device;
    Ok(match name {
        "ascetic" => AsceticSystem::new(r.cfg.with_tracing(tracing)).into(),
        "subway" => SubwaySystem::new(dev)
            .with_tracing(tracing)
            .with_compression(r.cfg.compression)
            .into(),
        "pt" => PtSystem::new(dev).with_tracing(tracing).into(),
        "uvm" => UvmSystem::new(dev).with_tracing(tracing).into(),
        other => return Err(format!("unknown --system {other}").into()),
    })
}

/// `--devices N --fabric pcie|nvlink` → `(N, fabric name, fabric)`.
fn fleet(o: &Opts) -> Res<(usize, &str, InterconnectConfig)> {
    let name = o.get("--fabric").unwrap_or("pcie");
    let fabric = match name {
        "pcie" => InterconnectConfig::pcie(),
        "nvlink" => InterconnectConfig::nvlink(),
        other => return Err(format!("unknown --fabric {other} (pcie|nvlink)").into()),
    };
    match o.parse("--devices")?.unwrap_or(1) {
        0 => Err("--devices must be at least 1".into()),
        devices => Ok((devices, name, fabric)),
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

fn write_iter_csv(r: &RunReport, path: &str) -> Res {
    let mut out =
        String::from("iteration,active_vertices,active_edges,static_edges,payload_bytes,time_ns\n");
    for (i, it) in r.per_iter.iter().enumerate() {
        writeln!(
            out,
            "{},{},{},{},{},{}",
            i, it.active_vertices, it.active_edges, it.static_edges, it.payload_bytes, it.time_ns
        )?;
    }
    Ok(std::fs::write(path, out)?)
}

fn print_report(r: &RunReport, dataset_bytes: u64, out: &mut Out) -> Res {
    // the stable summary lives on the report's Display impl; the CLI adds
    // the graph-relative ratio and the activity sparkline
    write!(out, "{r}")?;
    writeln!(
        out,
        "xfer/dataset:      {:.2}x",
        r.total_bytes_with_prestore() as f64 / dataset_bytes as f64
    )?;
    if r.per_iter.len() > 1 {
        let activity: Vec<u64> = r.per_iter.iter().map(|i| i.active_edges).collect();
        writeln!(out, "activity/iter:     {}", sparkline(&activity))?;
    }
    Ok(())
}

/// Write the `--metrics-out` JSONL document: one meta line, one line per
/// recorded event, and one final metrics-snapshot line.
fn write_metrics_jsonl(r: &RunReport, graph: &str, path: &str) -> Res {
    let mut out = String::new();
    json::object(&mut out, |o| {
        o.str("kind", "meta");
        o.num("schema_version", RUN_REPORT_SCHEMA_VERSION);
        o.str("system", r.system).str("algorithm", r.algorithm);
        o.str("graph", graph);
        o.num("events", r.events.len());
        o.num("events_dropped", r.events_dropped);
        o.opt("first_drop_at", r.first_drop_at);
    });
    out.push('\n');
    out.push_str(&r.events.to_jsonl());
    json::object(&mut out, |o| {
        o.str("kind", "metrics").raw("data", &r.metrics.to_json());
    });
    out.push('\n');
    Ok(std::fs::write(path, out)?)
}

/// The `--trace-out FILE` epilogue of every traced path: the
/// Chrome/Perfetto JSON array, which `ascetic trace summarize`
/// ([`Trace::from_perfetto_json`]) reads back.
fn write_trace_out(o: &Opts, trace: Option<&Trace>) -> Res {
    let (Some(path), Some(trace)) = (o.get("--trace-out"), trace) else {
        return Ok(());
    };
    std::fs::write(path, trace.to_perfetto_json(RUN_REPORT_SCHEMA_VERSION))?;
    eprintln!(
        "wrote {} spans on {} tracks to {path} (open it in ui.perfetto.dev, \
         or `ascetic trace summarize` it)",
        trace.spans().len(),
        trace.tracks().len()
    );
    Ok(())
}

fn cmd_run(o: &Opts, out: &mut Out) -> Res {
    let algo: Algo = o.require("--algo")?;
    let system_name = o.get("--system").unwrap_or("ascetic");
    let (devices, fabric_name, interconnect) = fleet(o)?;
    let mutations = o.get("--mutations");
    // a flag the chosen path cannot honour is an error, not a silent default
    let path = format!("--system {system_name}");
    match system_name {
        "ascetic" => {}
        "subway" => o.reject(&[KNOBS], &path)?,
        _ => o.reject(&[KNOBS, COMP], &path)?,
    }
    if system_name != "ascetic" && (devices > 1 || mutations.is_some()) {
        let flag = if devices > 1 { "devices" } else { "mutations" };
        return Err(format!("--{flag} drives ascetic sessions; {path} has none").into());
    }
    if mutations.is_some() && devices > 1 {
        return Err("--mutations runs single-device (drop --devices)".into());
    }
    if o.has("--verify") && mutations.is_none() {
        return Err("--verify checks --mutations batches (give --mutations FILE)".into());
    }
    let r = resolve(o, &[algo])?;
    let prog = &r.progs[0];
    if let Some(file) = mutations {
        o.reject(&[REPORT, TRACE], "--mutations (it prints one table)")?;
        return run_mutations(&r, prog, file, o.has("--verify"), out);
    }
    if devices > 1 {
        o.reject(&[REPORT], "--devices N>1 (it prints one table)")?;
        let cfg = r.cfg.with_tracing(o.has("--trace-out"));
        let fleet = FleetConfig {
            devices,
            interconnect,
        };
        let rep = run_fleet(cfg, fleet, &r.g, prog);
        print_fleet_report(&rep, fabric_name, out)?;
        return write_trace_out(o, rep.span_trace.as_ref());
    }
    if system_name == "memory" {
        o.reject(&[REPORT, TRACE], &path)?;
        let res = run_in_memory(&r.g, prog);
        writeln!(out, "system:            memory (oracle)")?;
        writeln!(out, "iterations:        {}", res.iterations)?;
        writeln!(out, "edges traversed:   {}", res.total_edges)?;
        writeln!(
            out,
            "avg active edges:  {:.2} % per iteration",
            res.avg_active_edge_fraction(&r.g) * 100.0
        )?;
        return Ok(());
    }
    let sys = system(&r, system_name, o.has("--trace-out"))?;
    let rep = sys.run(&r.g, prog);
    match o.get("--summary").unwrap_or("text") {
        "text" => print_report(&rep, r.dataset_bytes, out)?,
        "json" => writeln!(out, "{}", rep.summary_json())?,
        other => return Err(format!("unknown --summary {other} (text|json)").into()),
    }
    if let Some(path) = o.get("--metrics-out") {
        write_metrics_jsonl(&rep, &o.args[0], path)?;
        eprintln!(
            "wrote metrics snapshot + {} events to {path}",
            rep.events.len()
        );
    }
    if let Some(path) = o.get("--iter-csv") {
        write_iter_csv(&rep, path)?;
        eprintln!("wrote per-iteration log to {path}");
    }
    write_trace_out(o, rep.span_trace.as_ref())
}

/// The `--mutations FILE` path of `ascetic run`: converge on the base
/// graph, then stream the file's batches through the live session, which
/// patches resident chunks in place and repairs the answer after each. A
/// `verify` mismatch against the cold recompute is a nonzero exit.
fn run_mutations(r: &Resolved, prog: &AnyProgram, path: &str, verify: bool, out: &mut Out) -> Res {
    use ascetic::mutate::{parse_mutations, run_with_mutations};
    let text = read(path, "mutations")?;
    let (n, weighted) = (r.g.num_vertices(), r.g.is_weighted());
    let batches = ctx(parse_mutations(&text, Some(n), Some(weighted)), path)?;
    if batches.is_empty() {
        return Err(format!("{path}: the mutation file holds no batches").into());
    }
    let run = run_with_mutations(r.cfg, &r.g, prog, &batches, verify)
        .map_err(|(i, e)| format!("{path}: batch {i} is not applicable: {e}"))?;
    write!(out, "{run}")?;
    if verify {
        if !run.all_verified() {
            return Err("repaired output diverged from the cold recompute".into());
        }
        writeln!(out, "every repaired output matches its cold recompute ✓")?;
    }
    Ok(())
}

/// The report of the `--devices N` (N>1) path of `ascetic run`: the answer
/// is byte-identical to one device's, only the timing model changes.
fn print_fleet_report(r: &FleetRunReport, fabric: &str, out: &mut Out) -> Res {
    let devices = r.devices;
    writeln!(
        out,
        "system:            Ascetic fleet ({devices} devices, {fabric} fabric)"
    )?;
    writeln!(out, "iterations:        {}", r.iterations)?;
    writeln!(out, "output fp:         {:016x}", r.output.fingerprint())?;
    writeln!(
        out,
        "makespan:          {:>8.2} ms",
        r.makespan_ns as f64 / 1e6
    )?;
    writeln!(
        out,
        "frontier exchange: {:>8.2} MB ({} peer / {} staged transfers, {:.2} MB over the wire)",
        r.exchange_bytes as f64 / 1e6,
        r.interconnect.peer_transfers,
        r.interconnect.staged_transfers,
        r.interconnect.total_bytes() as f64 / 1e6
    )?;
    writeln!(
        out,
        "\n{:<8} {:>10} {:>11} {:>12}",
        "device", "time", "prestore", "steady xfer"
    )?;
    for (i, d) in r.per_device.iter().enumerate() {
        writeln!(
            out,
            "{:<8} {:>8.2}ms {:>9.2}MB {:>10.2}MB",
            format!("dev{i}"),
            d.sim_time_ns as f64 / 1e6,
            d.prestore_bytes as f64 / 1e6,
            d.steady_bytes() as f64 / 1e6
        )?;
    }
    Ok(())
}

fn cmd_pipeline(o: &Opts, out: &mut Out) -> Res {
    let names: String = o.require("--algos")?;
    let algos: Vec<Algo> = ctx(
        names.split(',').map(|n| n.trim().parse()).collect(),
        "--algos",
    )?;
    if let Some(a) = algos.iter().find(|a| a.weighted()) {
        let e = format!("pipeline runs unweighted algorithms; '{a}' needs edge weights");
        return Err(e.into());
    }
    let r = resolve(o, &algos)?;
    if r.g.is_weighted() {
        return Err("pipeline runs unweighted algorithms; use an unweighted graph".into());
    }
    let mut session = AsceticSession::new(r.cfg, &r.g);
    writeln!(
        out,
        "{:<10} {:>10} {:>8} {:>12} {:>11} {:>11}",
        "step", "time", "iters", "steady xfer", "prestore", "static hit"
    )?;
    for (algo, prog) in algos.iter().zip(&r.progs) {
        let rep = session.run(prog);
        writeln!(
            out,
            "{:<10} {:>8.2}ms {:>8} {:>10.2}MB {:>9.2}MB {:>10.1}%",
            algo.name(),
            rep.sim_time_ns as f64 / 1e6,
            rep.iterations,
            rep.steady_bytes() as f64 / 1e6,
            rep.prestore_bytes as f64 / 1e6,
            rep.static_edge_fraction() * 100.0
        )?;
    }
    writeln!(
        out,
        "\n{} runs over one prestored static region ({:.0}% of chunks resident)",
        session.runs(),
        session.resident_fraction() * 100.0
    )?;
    Ok(())
}

fn cmd_serve(o: &Opts, out: &mut Out) -> Res {
    use ascetic::serve::{
        parse_trace_mutating, serve_mutating, synthetic_mixed, synthetic_mutations, Policy,
        ServeConfig, MAX_SUBMIT_NS,
    };
    let policy = o.parse("--policy")?.unwrap_or(Policy::ResidencyAffinity);
    let (devices, _, interconnect) = fleet(o)?;
    let r = resolve(o, &[])?;
    if r.g.is_weighted() {
        let e = "serve expects an unweighted graph; sssp jobs run on an auto-weighted variant";
        return Err(e.into());
    }
    let n = r.g.num_vertices();
    // a trace file (which may interleave mutation records), or the
    // deterministic synthetic mixed workload
    let (jobs, mutations) = if let Some(path) = o.get("--trace") {
        o.reject(&[SYNTH], "--trace FILE")?;
        let t = parse_trace_mutating(&read(path, "trace")?, Some(n))?;
        (t.jobs, t.mutations)
    } else if let Some(count) = o.parse::<usize>("--synthetic")? {
        let seed = o.parse("--seed")?.unwrap_or(7);
        let spacing: u64 = o.parse("--spacing-ns")?.unwrap_or(0);
        let muts: usize = o.parse("--mutations")?.unwrap_or(0);
        // job i arrives at i * spacing, mutation i at i / 3 * max(spacing, 1)
        let last_job = (count.saturating_sub(1) as u64).saturating_mul(spacing);
        let last_mutation = (muts.saturating_sub(1) as u64 / 3).saturating_mul(spacing.max(1));
        if last_job.max(last_mutation) > MAX_SUBMIT_NS {
            let e = format!("--spacing-ns {spacing} puts arrivals past {MAX_SUBMIT_NS} ns");
            return Err(e.into());
        }
        (
            synthetic_mixed(count, n, seed, spacing, 1),
            synthetic_mutations(muts, n, seed, spacing.max(1)),
        )
    } else {
        return Err("serve needs --trace FILE or --synthetic N".into());
    };
    if jobs.is_empty() {
        return Err("the trace holds no jobs".into());
    }
    // a forced pull with push-only jobs in the trace is handled per-job
    // at admission: those jobs come back rejected with the AlgoError text
    let mut sc = ServeConfig::new(r.cfg, policy)
        .with_devices(devices)
        .with_interconnect(interconnect);
    if o.has("--no-batching") {
        sc = sc.without_batching();
    }
    let weighted = jobs.iter().any(|j| j.kind.weighted());
    let weighted = weighted.then(|| weighted_variant(&r.g));
    let rep = serve_mutating(&sc, &r.g, weighted.as_ref(), &jobs, &mutations)?;
    match o.get("--summary").unwrap_or("text") {
        "text" => {
            writeln!(out, "{}", rep.summary_text())?;
            writeln!(
                out,
                "\n{:>5} {:<5} {:>6} {:>5} {:>12} {:>12} {:>9}",
                "job", "algo", "batch", "lanes", "wait", "run", "deadline"
            )?;
            for j in &rep.jobs {
                writeln!(
                    out,
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
                )?;
            }
            for r in &rep.rejected {
                eprintln!("rejected job {} ({}): {}", r.id, r.algo, r.reason);
            }
        }
        "json" => writeln!(out, "{}", rep.to_json())?,
        other => return Err(format!("unknown --summary {other} (text|json)").into()),
    }
    write_trace_out(o, rep.span_trace.as_ref())
}

fn cmd_trace(o: &Opts, out: &mut Out) -> Res {
    if o.args[0] != "summarize" {
        return Err("usage: ascetic trace summarize FILE.json [--top K]".into());
    }
    let path = &o.args[1];
    let top: usize = o.parse("--top")?.unwrap_or(10);
    let (trace, version) = ctx(Trace::from_perfetto_json(&read(path, "trace")?), path)?;
    if version != RUN_REPORT_SCHEMA_VERSION {
        return Err(format!(
            "{path}: trace schema version {version} does not match this binary's \
             {RUN_REPORT_SCHEMA_VERSION}"
        )
        .into());
    }
    ctx(trace.check_nesting(), path)?;
    let horizon = trace.horizon_ns();
    writeln!(out, "trace:          {path}")?;
    writeln!(out, "schema version: {version}")?;
    writeln!(out, "horizon:        {:.3} ms", horizon as f64 / 1e6)?;
    writeln!(out, "tracks:         {}", trace.tracks().len())?;
    writeln!(out, "spans:          {}", trace.spans().len())?;
    writeln!(out)?;
    writeln!(
        out,
        "{:<32} {:>6} {:>12} {:>8}",
        "track", "spans", "busy", "util"
    )?;
    for (i, name) in trace.tracks().iter().enumerate() {
        let spans = trace.track_spans(i).count();
        let busy = trace.busy_ns(i, 0, horizon);
        writeln!(
            out,
            "{:<32} {:>6} {:>10.3}ms {:>7.1}%",
            name,
            spans,
            busy as f64 / 1e6,
            busy as f64 / horizon.max(1) as f64 * 100.0
        )?;
    }
    writeln!(out)?;
    writeln!(out, "top {top} longest spans:")?;
    writeln!(
        out,
        "{:<28} {:<10} {:>12} {:>12} {:<24}",
        "name", "cat", "start", "duration", "track"
    )?;
    for s in trace.top_spans(top) {
        writeln!(
            out,
            "{:<28} {:<10} {:>10.3}ms {:>10.3}ms {:<24}",
            s.name,
            s.cat,
            s.start_ns as f64 / 1e6,
            s.dur_ns() as f64 / 1e6,
            trace.tracks()[s.track]
        )?;
    }
    Ok(())
}

fn cmd_compare(o: &Opts, out: &mut Out) -> Res {
    let r = resolve(o, &[o.require("--algo")?])?;
    writeln!(
        out,
        "{:<8} {:>12} {:>9} {:>14} {:>10} {:>9}",
        "system", "time", "speedup", "transferred", "xfer/data", "GPU idle"
    )?;
    let mut base: Option<f64> = None;
    let mut outputs: Vec<RunReport> = Vec::new();
    for name in ["pt", "uvm", "subway", "ascetic"] {
        let rep = system(&r, name, false)?.run(&r.g, &r.progs[0]);
        let t = rep.seconds();
        let b = *base.get_or_insert(t);
        writeln!(
            out,
            "{:<8} {:>10.3}ms {:>8.2}X {:>12.2}MB {:>9.2}X {:>8.1}%",
            rep.system,
            t * 1e3,
            b / t,
            rep.total_bytes_with_prestore() as f64 / 1e6,
            rep.total_bytes_with_prestore() as f64 / r.dataset_bytes as f64,
            rep.gpu_idle_fraction() * 100.0
        )?;
        outputs.push(rep);
    }
    for r in &outputs[1..] {
        if r.output.first_mismatch(&outputs[0].output, 1e-6).is_some() {
            return Err(format!("{} and {} disagree!", r.system, outputs[0].system).into());
        }
    }
    writeln!(out, "\nall systems agree on the result ✓")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(cmd: &'static Cmd, line: &str) -> Result<(), String> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_opts(cmd, &argv).map(drop).map_err(|e| e.0)
    }

    /// The positionals `cmd` wants, then `rest`.
    fn line(cmd: &Cmd, rest: &str) -> String {
        format!("{} {rest}", cmd.args().collect::<Vec<_>>().join(" "))
    }

    #[test]
    fn every_flag_is_one_row_of_its_subcommand() {
        for c in CMDS {
            let names: Vec<&str> = c.all_flags().map(|f| f.0).collect();
            for (i, n) in names.iter().enumerate() {
                assert!(n.starts_with('-'), "{}: row '{n}' is not a flag", c.name());
                assert!(!names[..i].contains(n), "{}: {n} declared twice", c.name());
            }
        }
    }

    /// For every subcommand: a made-up flag, a repeated flag, a flag only
    /// another subcommand has, a missing value and a surplus positional
    /// are errors naming the offender (and the subcommand, where it is the
    /// subcommand that lacks the flag).
    #[test]
    fn the_parser_is_the_table() {
        for c in CMDS {
            let me = format!("`ascetic {}`", c.name());
            assert!(parse(c, &line(c, "")).is_ok(), "{me}: bare positionals");
            let err = parse(c, &line(c, "--no-such-flag 3")).unwrap_err();
            assert!(err.contains("--no-such-flag") && err.contains(&me), "{err}");
            let err = parse(c, &line(c, "surplus")).unwrap_err();
            assert!(err.contains("'surplus'") && err.contains(&me), "{err}");
            let foreign = CMDS
                .iter()
                .flat_map(|other| other.all_flags())
                .find(|f| c.all_flags().all(|mine| mine.0 != f.0))
                .expect("no subcommand declares every flag");
            let err = parse(c, &line(c, &format!("{} 1", foreign.0))).unwrap_err();
            assert!(err.contains(foreign.0) && err.contains(&me), "{err}");
            for (name, value, _) in c.all_flags() {
                let once = format!("{name} {}", if value.is_empty() { "" } else { "1" });
                assert!(parse(c, &line(c, &once)).is_ok(), "{me} {once}");
                let err = parse(c, &line(c, &format!("{once} {once}"))).unwrap_err();
                assert!(err.contains(name) && err.contains("twice"), "{err}");
                if !value.is_empty() {
                    let err = parse(c, &line(c, name)).unwrap_err();
                    assert!(err.contains(name) && err.contains("needs a value"), "{err}");
                }
            }
            if let Some(first) = c.args().next() {
                let err = parse(c, "").unwrap_err();
                assert_eq!(err, format!("missing {first}"));
            }
        }
    }

    /// `--help` names every row of every table, and nothing that looks like
    /// a flag without being one.
    #[test]
    fn help_is_printed_from_the_table() {
        let help = usage();
        let declared: Vec<&str> = CMDS
            .iter()
            .flat_map(|c| c.all_flags())
            .map(|f| f.0)
            .collect();
        for name in &declared {
            assert!(
                help.contains(&format!("      {name} ")),
                "{name} not in --help"
            );
        }
        let word = |w: &str| {
            w.trim_matches(|ch: char| !ch.is_alphanumeric() && ch != '-')
                .to_string()
        };
        for w in help
            .split_whitespace()
            .map(word)
            .filter(|w| w.starts_with('-'))
        {
            let known = declared.contains(&w.as_str()) || w.chars().all(|ch| ch == '-');
            assert!(known, "--help mentions {w}, which no table declares");
        }
        for c in CMDS {
            let synopsis = format!("\n  ascetic {}", c.name());
            assert!(help.contains(&synopsis), "{}", c.name());
        }
    }

    #[test]
    #[should_panic(expected = "reads --policy but does not declare it")]
    fn reading_a_flag_the_table_does_not_declare_panics() {
        let run = CMDS.iter().find(|c| c.name() == "run").unwrap();
        let o = parse_opts(run, &["g.beg".to_string()]).ok().unwrap();
        o.get("--policy");
    }
}
