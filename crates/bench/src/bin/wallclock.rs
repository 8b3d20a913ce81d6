//! Host wall-clock benchmark for the execution engine (not a paper table).
//!
//! Everything else in `ascetic-bench` measures *simulated* device time,
//! which is bit-identical across machines and host thread counts. This
//! binary is the one place we measure the **host** — the CPU-side cost of
//! actually running the framework — so the persistent worker pool in
//! `ascetic-par` can be judged against the scoped-spawn dispatcher it
//! replaced:
//!
//! 1. *Dispatch microbenchmark*: ns per `parallel_for` dispatch of a small
//!    job, A/B between `DispatchMode::Spawn` and `DispatchMode::Persistent`
//!    in the same process. Acceptance: persistent is ≥ 2× cheaper.
//! 2. *End-to-end wall-clock*: PR / BFS / SSSP on scaled FK at several
//!    host thread counts, recording wall milliseconds (best of
//!    [`WALL_REPS`] cold runs) alongside the (thread-count-independent)
//!    simulated time as a sanity anchor.
//!
//! Output: a markdown table on stdout plus `BENCH_wallclock.json` written
//! to `$ASCETIC_RESULTS` (or the current directory), embedding the pool's
//! telemetry snapshot. Pass `--smoke` for the fast CI variant, and
//! `--before FILE` to carry the `runs` rows of an earlier
//! `BENCH_wallclock.json` (this harness on the previous commit) into the
//! new file as `runs_before`, so a host-side change lands with its
//! before/after rows side by side.

use ascetic_bench::fmt::Table;
use ascetic_bench::setup::{run_algo, Algo, Env};
use ascetic_core::pool_metrics_snapshot;
use ascetic_graph::datasets::DatasetId;
use ascetic_par::{parallel_for, set_dispatch_mode, set_num_threads, DispatchMode};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// Job size for the dispatch microbenchmark: big enough to cross the
/// serial-fallback threshold so every rep exercises the dispatcher, small
/// enough that dispatch overhead dominates the body.
const DISPATCH_LEN: usize = 1024;

/// Cold runs per (algorithm, thread count) cell; the cell reports the
/// fastest, so one descheduled run does not decide a 1-vs-2-thread row.
const WALL_REPS: usize = 3;

struct DispatchAb {
    threads: usize,
    reps: u32,
    spawn_ns: f64,
    persistent_ns: f64,
}

impl DispatchAb {
    fn speedup(&self) -> f64 {
        self.spawn_ns / self.persistent_ns.max(1.0)
    }
}

struct AlgoRun {
    algo: Algo,
    threads: usize,
    wall_ms: f64,
    sim_ms: f64,
    iterations: u32,
}

/// ns/dispatch under `mode`: best of several batches, so a descheduled
/// batch does not masquerade as dispatch cost.
fn measure_dispatch(mode: DispatchMode, threads: usize, reps: u32) -> f64 {
    set_dispatch_mode(mode);
    set_num_threads(threads);
    for _ in 0..(reps / 10).max(8) {
        parallel_for(DISPATCH_LEN, |i| {
            std::hint::black_box(i);
        });
    }
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t0 = Instant::now();
        for _ in 0..reps {
            parallel_for(DISPATCH_LEN, |i| {
                std::hint::black_box(i);
            });
        }
        best = best.min(t0.elapsed().as_nanos() as f64 / f64::from(reps));
    }
    best
}

fn dispatch_ab(smoke: bool) -> DispatchAb {
    let threads = if smoke {
        2
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get().min(8))
            .unwrap_or(4)
            .max(2)
    };
    let reps = if smoke { 300 } else { 2000 };
    // Spawn first so the persistent pool's threads are not yet competing.
    let spawn_ns = measure_dispatch(DispatchMode::Spawn, threads, reps);
    let persistent_ns = measure_dispatch(DispatchMode::Persistent, threads, reps);
    DispatchAb {
        threads,
        reps,
        spawn_ns,
        persistent_ns,
    }
}

fn algo_sweep(smoke: bool) -> Vec<AlgoRun> {
    let env = Env::with_scale(if smoke { 50_000 } else { 4_000 });
    let thread_counts: &[usize] = if smoke { &[1, 2] } else { &[1, 2, 4, 8] };
    let ds = env.dataset(DatasetId::Fk);
    let mut runs = Vec::new();
    for algo in [Algo::Pr, Algo::Bfs, Algo::Sssp] {
        let g = env.graph_for(&ds, algo);
        for &t in thread_counts {
            set_num_threads(t);
            let mut wall_ms = f64::INFINITY;
            let mut last = None;
            for _ in 0..WALL_REPS {
                let t0 = Instant::now();
                let r = run_algo(&env.ascetic(), &g, algo);
                wall_ms = wall_ms.min(t0.elapsed().as_secs_f64() * 1e3);
                last = Some(r);
            }
            let r = last.expect("WALL_REPS > 0");
            runs.push(AlgoRun {
                algo,
                threads: t,
                wall_ms,
                sim_ms: r.sim_time_ns as f64 / 1e6,
                iterations: r.iterations,
            });
        }
    }
    set_num_threads(0);
    runs
}

/// The `runs` rows of an earlier `BENCH_wallclock.json`, verbatim (one
/// object per line, as this binary writes them).
fn rows_of(path: &str) -> Vec<String> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("--before {path}: {e}"));
    let rows: Vec<String> = text
        .lines()
        .map(|l| l.trim().trim_end_matches(','))
        .filter(|l| l.starts_with("{\"system\""))
        .map(str::to_owned)
        .collect();
    assert!(!rows.is_empty(), "--before {path}: no run rows found");
    rows
}

fn json_report(smoke: bool, ab: &DispatchAb, runs: &[AlgoRun], before: &[String]) -> String {
    let mut j = ascetic_bench::output::json_header("wallclock", smoke);
    let _ = writeln!(j, "  \"dispatch\": {{");
    let _ = writeln!(j, "    \"threads\": {},", ab.threads);
    let _ = writeln!(j, "    \"job_len\": {DISPATCH_LEN},");
    let _ = writeln!(j, "    \"reps\": {},", ab.reps);
    let _ = writeln!(j, "    \"spawn_ns_per_dispatch\": {:.1},", ab.spawn_ns);
    let _ = writeln!(
        j,
        "    \"persistent_ns_per_dispatch\": {:.1},",
        ab.persistent_ns
    );
    let _ = writeln!(j, "    \"speedup\": {:.3}", ab.speedup());
    let _ = writeln!(j, "  }},");
    let _ = writeln!(j, "  \"runs\": [");
    for (i, r) in runs.iter().enumerate() {
        let comma = if i + 1 < runs.len() { "," } else { "" };
        let _ = writeln!(
            j,
            "    {{\"system\": \"Ascetic\", \"dataset\": \"FK\", \"algo\": \"{}\", \
             \"threads\": {}, \"wall_ms\": {:.3}, \"sim_ms\": {:.3}, \"iterations\": {}}}{}",
            r.algo.display(),
            r.threads,
            r.wall_ms,
            r.sim_ms,
            r.iterations,
            comma
        );
    }
    let _ = writeln!(j, "  ],");
    if !before.is_empty() {
        let _ = writeln!(j, "  \"runs_before\": [");
        for (i, row) in before.iter().enumerate() {
            let comma = if i + 1 < before.len() { "," } else { "" };
            let _ = writeln!(j, "    {row}{comma}");
        }
        let _ = writeln!(j, "  ],");
    }
    let _ = writeln!(j, "  \"pool\": {}", pool_metrics_snapshot().to_json());
    j.push('}');
    j.push('\n');
    j
}

fn output_path() -> PathBuf {
    match std::env::var("ASCETIC_RESULTS") {
        Ok(dir) if !dir.is_empty() => {
            std::fs::create_dir_all(&dir).expect("create $ASCETIC_RESULTS dir");
            PathBuf::from(dir).join("BENCH_wallclock.json")
        }
        _ => PathBuf::from("BENCH_wallclock.json"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let before = match args.iter().position(|a| a == "--before") {
        Some(i) => rows_of(args.get(i + 1).expect("--before takes a file")),
        None => Vec::new(),
    };
    eprintln!(
        "Host wall-clock bench ({} mode)",
        if smoke { "smoke" } else { "full" }
    );

    let ab = dispatch_ab(smoke);
    let mut dt = Table::new(vec!["dispatch", "ns/job", "speedup"]);
    dt.row(vec![
        "spawn".to_string(),
        format!("{:.0}", ab.spawn_ns),
        "1.00x".to_string(),
    ]);
    dt.row(vec![
        "persistent".to_string(),
        format!("{:.0}", ab.persistent_ns),
        format!("{:.2}x", ab.speedup()),
    ]);
    println!(
        "\nDispatch overhead ({} threads, len {}, {} reps):\n\n{}",
        ab.threads,
        DISPATCH_LEN,
        ab.reps,
        dt.to_markdown()
    );

    // End-to-end sweep runs under the (default) persistent dispatcher.
    set_dispatch_mode(DispatchMode::Persistent);
    let runs = algo_sweep(smoke);
    let mut rt = Table::new(vec!["algo", "threads", "wall ms", "sim ms", "iters"]);
    for r in &runs {
        rt.row(vec![
            r.algo.display().to_string(),
            r.threads.to_string(),
            format!("{:.2}", r.wall_ms),
            format!("{:.2}", r.sim_ms),
            r.iterations.to_string(),
        ]);
    }
    println!("Ascetic on FK, host wall-clock:\n\n{}", rt.to_markdown());

    let json = json_report(smoke, &ab, &runs, &before);
    let path = output_path();
    std::fs::write(&path, &json).expect("write BENCH_wallclock.json");
    println!("wrote {}", path.display());

    if ab.speedup() < 2.0 {
        eprintln!(
            "warning: persistent dispatch speedup {:.2}x below the 2x target \
             (noisy host?)",
            ab.speedup()
        );
    }
}
