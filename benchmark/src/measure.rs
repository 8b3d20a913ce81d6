//! One measurement process: one workload, one seed, one mode.
//!
//! `--trace 0` measures the end-to-end metrics with every kind of tracing
//! off. `--trace 1` makes the per-layer report: a few untraced reference
//! reps, one rep on one host thread, one rep with the program's own span
//! tracing on, then the *traced pass* under the benchmark's recorder and
//! the layer probes. The two modes never mix: no end-to-end number comes
//! from a process that recorded a span.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use ascetic_core::RunReport;

use crate::layers;
use crate::spans::Spans;
use crate::spec::{MetricSpec, Metrics, END_TO_END, PER_LAYER};
use crate::stats::{iqr, median, nearest_rank};
use crate::workloads::{body, serve_epochs, setup, verify, BodyOut, Inputs, Virt, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Timed reps a run never goes below, however short `--seconds` is.
const MIN_REPS: usize = 5;
/// Reference reps of a `--trace 1` run (they only scale two ratios).
const MIN_REFERENCE_REPS: usize = 3;
const MB: f64 = 1e6;

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a measurement process reports.
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<(&'static MetricSpec, f64)>,
    /// FNV-1a over every simulated statistic of one body execution.
    pub virt_fp: u64,
    /// FNV-1a over the generated inputs: equal for equal seeds, on any host.
    pub inputs_fp: u64,
    /// `(metric, samples, IQR)` of the metrics that are medians.
    pub spreads: Vec<(&'static str, usize, f64)>,
    pub notes: Vec<String>,
}

/// Host threads every measurement runs on: 2, never more than the cores.
pub fn threads() -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    cores.min(2)
}

/// Measure. `Err` when nothing could be measured at all (the body fails
/// every time); partial failures come back as an [`Outcome`] with
/// `correct == false`.
pub fn run(args: &Args) -> Result<Outcome, String> {
    // ASCETIC_POOL is scrubbed from the environment in main; pin the mode
    // anyway so nothing a later crate version reads can move it.
    ascetic_par::set_dispatch_mode(ascetic_par::DispatchMode::Persistent);
    ascetic_par::set_num_threads(threads());
    if args.trace {
        per_layer(args)
    } else {
        end_to_end(args)
    }
}

/// Bookkeeping shared by both modes: operations attempted and failed, and
/// the reference virtual result every later rep must reproduce.
struct Tally {
    ops: usize,
    inputs_fp: u64,
    attempted: usize,
    failed: usize,
    reference: Option<Virt>,
    notes: Vec<String>,
}

impl Tally {
    fn new(inputs: &Inputs) -> Tally {
        Tally {
            ops: inputs.ops(),
            inputs_fp: inputs.fingerprint(),
            attempted: 0,
            failed: 0,
            reference: None,
            notes: Vec::new(),
        }
    }

    /// Run and time the body once. A panic inside the program under test
    /// is a failed rep, not a dead benchmark: `Err` (already noted and
    /// counted as failed operations) if the body panicked or its virtual
    /// numbers are not the reference's.
    fn rep(
        &mut self,
        what: &str,
        inputs: &Inputs,
        tracing: bool,
        spans: &mut Spans,
    ) -> Result<(f64, BodyOut), String> {
        self.attempted += self.ops;
        let fail = |tally: &mut Tally, note: String| {
            tally.failed += tally.ops;
            tally.notes.push(note.clone());
            Err(note)
        };
        let t = Instant::now();
        let Ok(out) = catch_unwind(AssertUnwindSafe(|| body(inputs, tracing, spans))) else {
            return fail(self, format!("{what}: the body panicked"));
        };
        let wall = t.elapsed().as_secs_f64();
        let virt = out.virt();
        match &self.reference {
            None => self.reference = Some(virt),
            Some(r) if *r == virt => {}
            Some(r) => {
                let note = format!(
                    "{what}: virtual numbers differ from the first rep (sim {} vs {} ns, wire {} vs {} B, fp {:016x} vs {:016x})",
                    virt.sim_ns, r.sim_ns, virt.wire_bytes, r.wire_bytes, virt.fp, r.fp
                );
                return fail(self, note);
            }
        }
        Ok((wall, out))
    }

    fn outcome(self, metrics: Metrics, spreads: Vec<(&'static str, usize, f64)>) -> Outcome {
        Outcome {
            attempted: self.attempted,
            failed: self.failed,
            metrics: metrics.finish(),
            virt_fp: self
                .reference
                .expect("an outcome follows at least one rep")
                .fp,
            inputs_fp: self.inputs_fp,
            spreads,
            notes: self.notes,
        }
    }
}

/// Check the reference body's answers against the in-memory oracle and
/// fold the result into the tally.
fn check(
    tally: &mut Tally,
    inputs: &Inputs,
    out: &BodyOut,
    spans: &mut Spans,
) -> crate::workloads::Verdict {
    let epochs = (inputs.workload == Workload::ServeChurn)
        .then(|| spans.scope("mutate.materialize", |_| serve_epochs(inputs)));
    let verdict = verify(inputs, out, epochs.as_ref(), spans);
    tally.failed += verdict.failed;
    tally.notes.extend(verdict.notes.iter().cloned());
    verdict
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("Linux procfs");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|r| r.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line");
    kb * 1024.0 / MB
}

fn end_to_end(args: &Args) -> Result<Outcome, String> {
    let timed_setup = || {
        let t = Instant::now();
        let inputs = setup(args.workload, args.seed, 1).0;
        (t.elapsed().as_secs_f64(), inputs)
    };
    let (first_setup_s, inputs) = timed_setup();
    let mut tally = Tally::new(&inputs);
    let mut off = Spans::off();

    // Warm-up: first-touch page faults, pool start, scratch arenas. Its
    // time is discarded; its answers are the ones checked at the end.
    let (_, reference) = tally.rep("warm-up", &inputs, false, &mut off)?;

    let mut walls = Vec::new();
    let mut bad_reps = 0;
    let start = Instant::now();
    while walls.len() < MIN_REPS || start.elapsed().as_secs_f64() < args.seconds {
        match tally.rep(
            &format!("rep {}", walls.len() + bad_reps),
            &inputs,
            false,
            &mut off,
        ) {
            Ok((wall, _)) => walls.push(wall),
            Err(e) if bad_reps == MIN_REPS => return Err(e), // broken, not noisy
            Err(_) => bad_reps += 1,
        }
    }
    // Peak memory of one set-up plus the timed phase. The remaining
    // set-ups and the oracle come after the reading: repeated generation
    // only adds allocator noise, and the oracle is not the program's cost.
    let rss = peak_rss_mb();
    let mut setup_s = vec![first_setup_s];
    setup_s.extend((1..SETUPS).map(|_| timed_setup().0));
    check(&mut tally, &inputs, &reference, &mut off);

    let virt = tally.reference.as_ref().expect("the warm-up set it");
    let mut m = Metrics::new(END_TO_END);
    m.set("wall_s", median(&walls));
    m.set("setup_s", median(&setup_s));
    m.set("peak_rss_mb", rss);
    m.set("sim_ms", virt.sim_ns as f64 / 1e6);
    m.set("wire_mb", virt.wire_bytes as f64 / MB);
    let spreads = vec![
        ("wall_s", walls.len(), iqr(&walls)),
        ("setup_s", setup_s.len(), iqr(&setup_s)),
    ];
    Ok(tally.outcome(m, spreads))
}

fn per_layer(args: &Args) -> Result<Outcome, String> {
    let mut m = Metrics::new(PER_LAYER);
    let mut spans = Spans::on();
    let mut off = Spans::off();

    let (inputs, times) = spans.scope("setup", |_| setup(args.workload, args.seed, 1));
    m.set("graph.generate_s", times.generate_s);
    m.set("graph.weighted_s", times.weighted_s);
    let mut tally = Tally::new(&inputs);

    // Untraced reference reps: the denominator of the ratios below.
    tally.rep("warm-up", &inputs, false, &mut off)?;
    let mut walls = Vec::new();
    let start = Instant::now();
    let before = ascetic_par::pool_stats();
    while walls.len() < MIN_REFERENCE_REPS || start.elapsed().as_secs_f64() < args.seconds / 3.0 {
        walls.push(tally.rep("reference rep", &inputs, false, &mut off)?.0);
        if walls.len() == 1 {
            let after = ascetic_par::pool_stats();
            m.set(
                "par.jobs_inline",
                (after.jobs_inline - before.jobs_inline) as f64,
            );
            m.set(
                "par.jobs_persistent",
                (after.jobs_persistent - before.jobs_persistent) as f64,
            );
        }
    }
    let wall_ref = median(&walls);

    // One rep on one host thread: same virtual numbers, by contract.
    ascetic_par::set_num_threads(1);
    let one = tally.rep("1-thread rep", &inputs, false, &mut off);
    ascetic_par::set_num_threads(threads());
    m.set("par.speedup_t2", one?.0 / wall_ref);

    // One rep with the program's own span tracing on.
    let traced = tally.rep("tracing-on rep", &inputs, true, &mut off)?;
    obs(&traced, wall_ref, &mut spans, &mut m);

    // The traced pass: the body and the oracle under the benchmark's own
    // recorder. Operator time is the oracle's (the same programs on the
    // same graphs with no transfer engine); the engine's own host time is
    // the rest of the body, so the two add up to the body by construction.
    let (body_s, out) = spans.scope("body", |sp| tally.rep("traced pass", &inputs, false, sp))?;
    let verdict = check(&mut tally, &inputs, &out, &mut spans);
    let edges = verdict.oracle_edges.max(1) as f64;
    let kernel_s = spans.total_s("algos.run_in_memory");
    m.set("algos.kernel_s", kernel_s);
    m.set("algos.kernel_ns_per_edge", kernel_s * 1e9 / edges);
    m.set("core.session_new_s", spans.total_s("core.session_new"));
    // two single measurements: a noise burst during the oracle can push
    // the difference below zero, which would mean nothing
    m.set("core.engine_self_s", (body_s - kernel_s).max(0.0));
    m.set("core.host_ns_per_edge", wall_ref * 1e9 / edges);
    virtual_layers(&out, &traced.1, &mut m);

    // Layer probes on the workload's own inputs.
    layers::graph(&inputs, &mut spans, &mut m);
    layers::par(&inputs, &mut spans, &mut m);
    layers::core_replay(&inputs, &mut spans, &mut m);
    let (dma, launches) = out.runs().iter().fold((0, 0), |(d, k), r| {
        (d + r.xfer.h2d_ops + r.xfer.d2h_ops, k + r.kernels.launches)
    });
    layers::sim_timeline(args.workload, dma, launches, &mut spans, &mut m);
    if args.workload == Workload::ServeChurn {
        m.set(
            "serve.wall_per_job_ms",
            wall_ref * 1e3 / inputs.jobs.len() as f64,
        );
        m.set("mutate.materialize_s", spans.total_s("mutate.materialize"));
        layers::mutate_repair(&inputs, &mut spans, &mut m);
        m.not_applicable("baselines");
    } else {
        let sim_ns = tally.reference.as_ref().expect("the warm-up set it").sim_ns;
        layers::subway(&inputs, sim_ns, &mut spans, &mut m);
        m.not_applicable("serve");
        m.not_applicable("mutate");
    }

    assert!(spans.nest(), "benchmark spans must nest");
    write_trace(args.workload, &spans).map_err(|e| format!("trace file not written: {e}"))?;
    let spreads = vec![("wall_ref_s", walls.len(), iqr(&walls))];
    Ok(tally.outcome(m, spreads))
}

/// `obs.*`: what the program's own tracing costs and what it produces.
fn obs((wall, out): &(f64, BodyOut), wall_ref: f64, spans: &mut Spans, m: &mut Metrics) {
    m.set("obs.trace_overhead_ratio", wall / wall_ref);
    let schema = ascetic_core::RUN_REPORT_SCHEMA_VERSION;
    let mut span_count = 0usize;
    let runs = out.runs();
    let traces = runs
        .iter()
        .filter_map(|r| r.span_trace.as_ref())
        .chain(out.serve.iter().filter_map(|s| s.span_trace.as_ref()));
    for t in traces {
        span_count += t.spans().len();
        spans.scope("obs.to_perfetto_json", |_| {
            std::hint::black_box(t.to_perfetto_json(schema))
        });
    }
    for r in &runs {
        spans.scope("obs.summary_json", |_| {
            std::hint::black_box(r.summary_json())
        });
    }
    m.set("obs.trace_spans", span_count as f64);
    m.set("obs.trace_export_s", spans.total_s("obs.to_perfetto_json"));
    m.set("obs.report_json_s", spans.total_s("obs.summary_json"));
    m.set(
        "obs.events_dropped",
        runs.iter().map(|r| r.events_dropped).sum::<u64>() as f64,
    );
}

/// The per-layer numbers on the virtual clock, read off the reports of the
/// traced pass (`traced` supplies link/compute utilization, which the
/// program only derives when its own tracing is on).
fn virtual_layers(out: &BodyOut, traced: &BodyOut, m: &mut Metrics) {
    let runs = out.runs();
    let sum = |f: &dyn Fn(&RunReport) -> u64| runs.iter().map(|r| f(r)).sum::<u64>() as f64;
    let sim_ns = sum(&|r| r.sim_time_ns).max(1.0);
    let edges = sum(&|r| r.per_iter.iter().map(|i| i.active_edges).sum());

    m.set("sim.dma_ops", sum(&|r| r.xfer.h2d_ops + r.xfer.d2h_ops));
    m.set("sim.kernel_launches", sum(&|r| r.kernels.launches));
    m.set("sim.gpu_idle_fraction", sum(&|r| r.gpu_idle_ns) / sim_ns);
    let traced_runs = traced.runs();
    let util: Vec<_> = traced_runs.iter().flat_map(|r| &r.utilization).collect();
    let window = util.iter().map(|u| u.window_ns()).sum::<u64>().max(1) as f64;
    m.set(
        "sim.link_busy_fraction",
        util.iter().map(|u| u.link_busy_ns).sum::<u64>() as f64 / window,
    );
    m.set(
        "sim.compute_busy_fraction",
        util.iter().map(|u| u.compute_busy_ns).sum::<u64>() as f64 / window,
    );
    m.set(
        "sim.peer_mb",
        out.serve
            .as_ref()
            .map_or(0.0, |s| s.replicated_bytes as f64 / MB),
    );

    m.set("algos.iterations", sum(&|r| r.iterations as u64));
    m.set("algos.active_edges", edges);
    m.set(
        "algos.pull_iterations",
        sum(&|r| r.per_iter.iter().filter(|i| i.pull).count() as u64),
    );

    let static_edges = sum(&|r| r.per_iter.iter().map(|i| i.static_edges).sum());
    m.set("core.static_hit_fraction", static_edges / edges.max(1.0));
    m.set("core.prestore_mb", sum(&|r| r.prestore_wire_bytes) / MB);
    m.set(
        "core.ondemand_mb",
        sum(&|r| r.xfer.h2d_wire_bytes - r.xfer.h2d_prefetch_bytes) / MB,
    );
    m.set("core.refresh_mb", sum(&|r| r.refresh_wire_bytes) / MB);
    m.set("core.prefetch_mb", sum(&|r| r.prefetch_bytes) / MB);
    m.set(
        "core.prefetch_hit_rate",
        sum(&|r| r.prefetch_hits) / sum(&|r| r.prefetch_ops).max(1.0),
    );
    m.set(
        "core.prefetch_wasted_mb",
        sum(&|r| r.prefetch_wasted_bytes) / MB,
    );
    m.set("core.bd_genmap_ms", sum(&|r| r.breakdown.gen_map_ns) / 1e6);
    m.set(
        "core.bd_static_ms",
        sum(&|r| r.breakdown.static_compute_ns) / 1e6,
    );
    m.set("core.bd_gather_ms", sum(&|r| r.breakdown.gather_ns) / 1e6);
    m.set(
        "core.bd_transfer_ms",
        sum(&|r| r.breakdown.transfer_ns) / 1e6,
    );
    m.set(
        "core.bd_ondemand_ms",
        sum(&|r| r.breakdown.ondemand_compute_ns) / 1e6,
    );

    if let Some(s) = &out.serve {
        let latencies: Vec<u64> = s.jobs.iter().map(|j| j.latency_ns()).collect();
        let ms = |ns: u64| ns as f64 / 1e6;
        let parts = s.latency_breakdown();
        m.set("serve.p50_ms", ms(nearest_rank(&latencies, 50)));
        m.set("serve.p90_ms", ms(nearest_rank(&latencies, 90)));
        m.set("serve.sessions_built", s.sessions_built as f64);
        m.set("serve.batches", s.batches as f64);
        m.set("serve.batched_jobs", s.batched_jobs as f64);
        m.set("serve.residency_hit_mb", s.residency_hit_bytes as f64 / MB);
        m.set("serve.replications", s.replications as f64);
        m.set("serve.rejected", s.rejected.len() as f64);
        m.set("serve.queue_p50_ms", ms(parts.queue.p50_ns));
        m.set("serve.admission_p50_ms", ms(parts.admission.p50_ns));
        m.set("serve.h2d_p50_ms", ms(parts.h2d.p50_ns));
        m.set("serve.compute_p50_ms", ms(parts.compute.p50_ns));
        m.set("mutate.batches_applied", s.mutations_applied as f64);
        m.set("mutate.patch_wire_mb", s.mutation_wire_bytes as f64 / MB);
    }
}

/// Where result files go: `results/` beside the harness's manifest.
pub fn results_dir() -> std::path::PathBuf {
    // `cargo run` exports the manifest directory of the package it runs;
    // a binary started by hand falls back to where it was built.
    let manifest =
        std::env::var_os("CARGO_MANIFEST_DIR").unwrap_or_else(|| env!("CARGO_MANIFEST_DIR").into());
    std::path::Path::new(&manifest).join("results")
}

fn write_trace(w: Workload, spans: &Spans) -> std::io::Result<()> {
    let dir = results_dir();
    std::fs::create_dir_all(&dir)?;
    std::fs::write(
        dir.join(format!("{}.trace.json", w.name())),
        spans.to_json(w.name()),
    )
}
