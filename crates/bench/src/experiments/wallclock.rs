//! Host wall-clock of the execution engine — the one experiment that
//! measures the *host* rather than the (bit-identical) simulated device.

use std::time::Instant;

use ascetic_core::pool_metrics_snapshot;
use ascetic_graph::datasets::DatasetId;
use ascetic_par::{parallel_for, set_dispatch_mode, set_num_threads, DispatchMode};

use crate::fmt::Table;
use crate::output::{lit, obj, quoted, write_json, Json};
use crate::run::{Ctx, PreparedDataset};
use crate::setup::{run_algo, Algo, Env};

/// Job size for the dispatch microbenchmark: big enough to cross the
/// serial-fallback threshold so every rep exercises the dispatcher, small
/// enough that dispatch overhead dominates the body.
const DISPATCH_LEN: usize = 1024;

/// Cold runs per (algorithm, thread count) cell; the cell reports the
/// fastest, so one descheduled run does not decide a 1-vs-2-thread row.
const WALL_REPS: usize = 3;

/// ns/dispatch under `mode`: best of several batches, so a descheduled
/// batch does not masquerade as dispatch cost.
fn measure_dispatch(mode: DispatchMode, threads: usize, reps: u32) -> f64 {
    set_dispatch_mode(mode);
    set_num_threads(threads);
    let batch = |n: u32| {
        for _ in 0..n {
            parallel_for(DISPATCH_LEN, |i| {
                std::hint::black_box(i);
            });
        }
    };
    batch((reps / 10).max(8));
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t0 = Instant::now();
        batch(reps);
        best = best.min(t0.elapsed().as_nanos() as f64 / f64::from(reps));
    }
    best
}

/// The `runs` rows of an earlier `BENCH_wallclock.json`, verbatim (one
/// object per line, as [`wallclock`] writes them).
fn rows_of(path: &str) -> Vec<Json> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("--before {path}: {e}"));
    let rows = text.lines().map(|l| l.trim().trim_end_matches(','));
    let rows: Vec<Json> = rows
        .filter(|l| l.starts_with("{\"system\""))
        .map(lit)
        .collect();
    assert!(!rows.is_empty(), "--before {path}: no run rows found");
    rows
}

/// Two host measurements, written to `BENCH_wallclock.json` with the
/// pool's telemetry snapshot: (1) ns per `parallel_for` dispatch of a
/// small job, `DispatchMode::Spawn` against `DispatchMode::Persistent` in
/// one process (check: persistent ≥ 2× cheaper); (2) wall milliseconds of
/// PR / BFS / SSSP on FK at several host thread counts (best of
/// [`WALL_REPS`] cold runs) beside the thread-count-independent simulated
/// time. Runs at scale 1/4000 whatever `ASCETIC_SCALE` says, so files
/// stay comparable; `--before FILE` carries the `runs` rows of an earlier
/// file (this harness on the previous commit) along as `runs_before`, so a
/// host-side change lands with its before/after rows side by side.
pub fn wallclock(cx: &mut Ctx) {
    let threads = match cx.smoke {
        true => 2,
        false => std::thread::available_parallelism().map_or(4, |n| n.get().clamp(2, 8)),
    };
    let reps = if cx.smoke { 300 } else { 2000 };
    // Spawn first so the persistent pool's threads are not yet competing.
    let spawn_ns = measure_dispatch(DispatchMode::Spawn, threads, reps);
    let persistent_ns = measure_dispatch(DispatchMode::Persistent, threads, reps);
    let speedup = spawn_ns / persistent_ns.max(1.0);
    let mut dt = Table::new(vec!["dispatch", "ns/job", "speedup"]);
    dt.row(vec![
        "spawn".to_string(),
        format!("{spawn_ns:.0}"),
        "1.00x".to_string(),
    ]);
    dt.row(vec![
        "persistent".to_string(),
        format!("{persistent_ns:.0}"),
        format!("{speedup:.2}x"),
    ]);
    println!(
        "\nDispatch overhead ({threads} threads, len {DISPATCH_LEN}, {reps} reps):\n\n{}",
        dt.to_markdown()
    );

    // the end-to-end sweep runs under the (default) persistent dispatcher
    let env = Env::with_scale(if cx.smoke { 50_000 } else { 4_000 });
    let thread_counts: &[usize] = if cx.smoke { &[1, 2] } else { &[1, 2, 4, 8] };
    let pd = PreparedDataset::build(&env, DatasetId::Fk);
    let mut rt = Table::new(vec!["algo", "threads", "wall ms", "sim ms", "iters"]);
    let mut runs = Vec::new();
    for algo in [Algo::Pr, Algo::Bfs, Algo::Sssp] {
        for &t in thread_counts {
            set_num_threads(t);
            let timed = (0..WALL_REPS).map(|_| {
                let t0 = Instant::now();
                let r = run_algo(&env.ascetic(), pd.graph(algo), algo);
                (t0.elapsed().as_secs_f64() * 1e3, r)
            });
            let (wall_ms, r) = timed
                .min_by(|a, b| a.0.total_cmp(&b.0))
                .expect("WALL_REPS > 0");
            let sim_ms = r.sim_time_ns as f64 / 1e6;
            rt.row(vec![
                algo.display().to_string(),
                t.to_string(),
                format!("{wall_ms:.2}"),
                format!("{sim_ms:.2}"),
                r.iterations.to_string(),
            ]);
            runs.push(obj(vec![
                ("system", quoted("Ascetic")),
                ("dataset", quoted("FK")),
                ("algo", quoted(algo.display())),
                ("threads", lit(t)),
                ("wall_ms", lit(format!("{wall_ms:.3}"))),
                ("sim_ms", lit(format!("{sim_ms:.3}"))),
                ("iterations", lit(r.iterations)),
            ]));
        }
    }
    set_num_threads(0);
    println!("Ascetic on FK, host wall-clock:\n\n{}", rt.to_markdown());

    let dispatch = obj(vec![
        ("threads", lit(threads)),
        ("job_len", lit(DISPATCH_LEN)),
        ("reps", lit(reps)),
        ("spawn_ns_per_dispatch", lit(format!("{spawn_ns:.1}"))),
        (
            "persistent_ns_per_dispatch",
            lit(format!("{persistent_ns:.1}")),
        ),
        ("speedup", lit(format!("{speedup:.3}"))),
    ]);
    let mut fields = vec![("dispatch", dispatch), ("runs", Json::Arr(runs))];
    if let Some(path) = &cx.before {
        fields.push(("runs_before", Json::Arr(rows_of(path))));
    }
    fields.push(("pool", lit(pool_metrics_snapshot().to_json())));
    write_json("wallclock", cx.smoke, fields);
    cx.check(
        "persistent dispatch is cheaper than spawn-per-job (noisy hosts aside)",
        format!("{speedup:.2}x"),
        ">= 2x",
        speedup >= 2.0,
    );
}
