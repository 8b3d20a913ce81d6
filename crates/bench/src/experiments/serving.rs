//! The lanes beyond one run on one device: multi-query serving, fleets,
//! streaming mutations. Each writes a `BENCH_<name>.json`; like the mode
//! sweeps they run on the scale's plain environment.

use ascetic_algos::{AnyProgram, Bfs, Cc, PageRank, Sssp};
use ascetic_core::{run_fleet, AsceticSession, FleetConfig, FleetRunReport, RepairMode};
use ascetic_graph::datasets::DatasetId;
use ascetic_graph::Csr;
use ascetic_mutate::{materialize, run_with_mutations, synthetic_churn};
use ascetic_serve::{
    serve as run_serve, synthetic_mixed, Policy, ServeConfig, ServeReport, ALL_POLICIES,
};
use ascetic_sim::InterconnectConfig;

use crate::fmt::{human_bytes, text, val, Sheet};
use crate::output::emit;
use crate::run::Ctx;
use crate::setup::{bench_program, Algo, Env};

const N_JOBS: usize = 48;
const TRACE_SEED: u64 = 2021;

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Every job of `b` must carry the answer it has in `a`.
fn same_answers(a: &ServeReport, b: &ServeReport, what: &str) {
    for (x, y) in a.jobs.iter().zip(&b.jobs) {
        assert_eq!(x.id, y.id);
        let same = x.output.fingerprint() == y.output.fingerprint();
        assert!(same, "{what} changed job {}'s answer", x.id);
    }
}

/// The multi-query serving layer (`DESIGN.md` §9): one deterministic
/// 48-job mixed trace (BFS/SSSP/CC/PR over GS and its weighted variant)
/// under every scheduling policy. Hard oracles at every scale: every
/// job's answer is byte-identical under every policy, and batched
/// BFS/SSSP answers equal their individual runs. Checks: `residency`
/// beats `fifo` on total virtual makespan *and* on on-demand H2D bytes —
/// grouping jobs by what is already on-device avoids the rebuild
/// prestores FIFO pays whenever the trace alternates graph variants —
/// and records nonzero residency hit bytes.
pub fn serve(cx: &mut Ctx) {
    let env = Env::with_scale(cx.env.scale);
    let pd = cx.dataset(DatasetId::Gs);
    let (g, w) = (&*pd.unweighted, &*pd.weighted);
    let cfg = env.ascetic_cfg();
    // Calibrate the arrival spacing to this scale's run times (one CC pass
    // ≈ a mid-length job) so the trace streams in rather than arriving as
    // one burst: that is what separates the policies — FIFO switches graph
    // variants in arrival order while residency-affinity defers weighted
    // jobs until the unweighted queue drains, merging them into far fewer
    // multi-source passes. One full mix cycle (bfs, sssp, bfs, cc, sssp,
    // pr) arrives per burst, bursts two CC-lengths apart: enough pressure
    // that batching matters, enough spread that FIFO's eager variant
    // switching costs it — the regime a shared device actually serves in.
    let cc_ns = AsceticSession::new(cfg, g).run(&Cc::new()).sim_time_ns;
    let jobs = synthetic_mixed(N_JOBS, g.num_vertices(), TRACE_SEED, cc_ns * 2, 6);

    let reports: Vec<ServeReport> = ALL_POLICIES
        .iter()
        .map(|&policy| {
            eprintln!("policy: {}", policy.name());
            run_serve(&ServeConfig::new(cfg, policy), g, Some(w), &jobs).expect("serve")
        })
        .collect();
    eprintln!("policy: fifo (no batching)");
    let solo_cfg = ServeConfig::new(cfg, Policy::Fifo).without_batching();
    let solo = run_serve(&solo_cfg, g, Some(w), &jobs).expect("serve solo");
    for r in &reports {
        assert!(r.rejected.is_empty(), "trace jobs must all be admissible");
        assert_eq!(r.jobs.len(), N_JOBS);
        // the schedule may not change any answer
        same_answers(&reports[0], r, &format!("policy {}", r.policy));
    }
    same_answers(&reports[0], &solo, "batching");

    let mut sheet = Sheet::new(&[
        ("Policy", "policy"),
        ("Makespan", "makespan_ns"),
        ("Queue wait", "total_queue_wait_ns"),
        ("On-demand H2D", "ondemand_h2d_bytes"),
        ("Prestore", "prestore_bytes"),
        ("Residency hits", "residency_hit_bytes"),
        ("Sessions", "sessions_built"),
        ("", "batches"),
        ("Batched", "batched_jobs"),
    ]);
    let mb = |b: u64| format!("{:.2} MB", b as f64 / 1e6);
    for r in &reports {
        sheet.row(vec![
            text(r.policy),
            val(format!("{:.2} ms", ms(r.makespan_ns)), r.makespan_ns),
            val(
                format!("{:.2} ms", ms(r.total_queue_wait_ns)),
                r.total_queue_wait_ns,
            ),
            val(mb(r.ondemand_h2d_bytes), r.ondemand_h2d_bytes),
            val(mb(r.prestore_bytes), r.prestore_bytes),
            val(mb(r.residency_hit_bytes), r.residency_hit_bytes),
            text(r.sessions_built),
            text(r.batches),
            val(
                format!("{}/{}", r.batched_jobs, r.jobs.len()),
                r.batched_jobs,
            ),
        ]);
    }
    emit("serve", &sheet);

    let (fifo, ra) = (&reports[0], &reports[2]);
    let saved = |f: fn(&ServeReport) -> u64| f(fifo) as i64 - f(ra) as i64;
    let hits = ra.residency_hit_bytes > 0;
    cx.write_json("serve", |o| {
        o.num("jobs", N_JOBS).num("trace_seed", TRACE_SEED);
        o.array("policies", |a| {
            for r in &reports {
                a.object(|p| {
                    p.str("policy", r.policy)
                        .num("makespan_ns", r.makespan_ns)
                        .num("total_queue_wait_ns", r.total_queue_wait_ns)
                        .num("ondemand_h2d_bytes", r.ondemand_h2d_bytes)
                        .num("prestore_bytes", r.prestore_bytes)
                        .num("residency_hit_bytes", r.residency_hit_bytes)
                        .num("sessions_built", r.sessions_built)
                        .num("batches", r.batches)
                        .num("batched_jobs", r.batched_jobs)
                        .num("batch_occupancy_x100", r.batch_occupancy_x100());
                });
            }
        });
        o.object("residency_vs_fifo", |v| {
            v.num("makespan_saved_ns", saved(|r| r.makespan_ns))
                .num("ondemand_h2d_saved_bytes", saved(|r| r.ondemand_h2d_bytes))
                .num("prestores_avoided", saved(|r| r.sessions_built as u64));
        });
        o.object("oracles", |v| {
            v.num("outputs_identical_across_policies", true)
                .num("batched_identical_to_individual", true)
                .num("solo_makespan_ns", solo.makespan_ns)
                .num("residency_hit_bytes_nonzero", hits);
        });
    });
    println!(
        "residency vs fifo: makespan {:.2} ms -> {:.2} ms, on-demand H2D {:.2} MB -> {:.2} MB, \
         {} -> {} sessions",
        ms(fifo.makespan_ns),
        ms(ra.makespan_ns),
        fifo.ondemand_h2d_bytes as f64 / 1e6,
        ra.ondemand_h2d_bytes as f64 / 1e6,
        fifo.sessions_built,
        ra.sessions_built
    );
    cx.check(
        "residency beats fifo on makespan",
        format!("{} vs {} ns", ra.makespan_ns, fifo.makespan_ns),
        "<",
        ra.makespan_ns < fifo.makespan_ns,
    );
    cx.check(
        "residency beats fifo on on-demand H2D",
        format!("{} vs {} B", ra.ondemand_h2d_bytes, fifo.ondemand_h2d_bytes),
        "<",
        ra.ondemand_h2d_bytes < fifo.ondemand_h2d_bytes,
    );
    let hit_bytes = format!("{} B", ra.residency_hit_bytes);
    cx.check(
        "residency records residency hit bytes",
        hit_bytes,
        "> 0",
        hits,
    );
}

fn speedup_x100(base: u64, this: u64) -> u64 {
    base * 100 / this.max(1)
}

/// Multi-device sharded execution and fleet-aware serving, on GS over an
/// NVLink-class fabric. (1) *Serve fleet scaling*: the serve lane's
/// 48-job trace (same seed) arriving as one burst — so the sweep is
/// service-bound and makespan scaling isolates what the fleet buys —
/// under residency-affinity over 1/2/4/8 devices; checks: ≥ 1.7× at 2
/// devices, ≥ 3× at 4. (2) *Algorithm sharding*: each algorithm across
/// 1/2/4 shards with cross-device frontier exchange (owner-computes),
/// reported for the exchange-volume curve. Hard oracles: no fleet size,
/// policy or shard count changes any answer.
pub fn fleet(cx: &mut Ctx) {
    let env = Env::with_scale(cx.env.scale);
    let pd = cx.dataset(DatasetId::Gs);
    let (g, w) = (&*pd.unweighted, &*pd.weighted);
    let cfg = env.ascetic_cfg();
    let jobs = synthetic_mixed(N_JOBS, g.num_vertices(), TRACE_SEED, 0, 1);
    let serve_on = |policy, devices| {
        let sc = ServeConfig::new(cfg, policy)
            .with_devices(devices)
            .with_interconnect(InterconnectConfig::nvlink());
        run_serve(&sc, g, Some(w), &jobs).expect("serve")
    };
    let serve_reps: Vec<ServeReport> = [1usize, 2, 4, 8]
        .iter()
        .map(|&d| {
            eprintln!("serve: {d} device(s)");
            serve_on(Policy::ResidencyAffinity, d)
        })
        .collect();
    for r in &serve_reps {
        assert!(r.rejected.is_empty(), "trace jobs must all be admissible");
        assert_eq!(r.jobs.len(), N_JOBS);
        same_answers(&serve_reps[0], r, &format!("{} devices", r.devices));
    }
    for &policy in ALL_POLICIES.iter() {
        let on_four = format!("policy {} on the 4-device fleet", policy.name());
        same_answers(&serve_reps[0], &serve_on(policy, 4), &on_four);
    }

    eprintln!("algorithm sharding:");
    let programs: [(&str, AnyProgram, &Csr); 4] = [
        ("bfs", AnyProgram::Bfs(Bfs::new(0)), g),
        ("cc", AnyProgram::Cc(Cc::new()), g),
        ("pr", AnyProgram::Pr(PageRank::new()), g),
        ("sssp", AnyProgram::Sssp(Sssp::new(0)), w),
    ];
    let algo_reps: Vec<(&str, Vec<FleetRunReport>)> = programs
        .iter()
        .map(|(name, prog, graph)| {
            eprintln!("  {name}");
            let on = |d| run_fleet(cfg, FleetConfig::nvlink(d), graph, prog);
            let reps: Vec<FleetRunReport> = [1usize, 2, 4].into_iter().map(on).collect();
            for r in &reps[1..] {
                let same = reps[0].output.fingerprint() == r.output.fingerprint();
                assert!(same, "{name} answer changed at {} devices", r.devices);
            }
            (*name, reps)
        })
        .collect();

    let mut sheet = Sheet::new(&[
        ("Lane", "lane"),
        ("Devices", "devices"),
        ("Makespan", "makespan_ns"),
        ("Speedup", "speedup_x100"),
        ("Replications", "replications"),
        ("", "replicated_bytes"),
        ("Exchange", "exchange_bytes"),
    ]);
    let timing = |base: u64, ns: u64| {
        let speedup = format!("{:.2}x", base as f64 / ns.max(1) as f64);
        [
            val(format!("{:.2} ms", ms(ns)), ns),
            val(speedup, speedup_x100(base, ns)),
        ]
    };
    let base = serve_reps[0].makespan_ns;
    for r in &serve_reps {
        let [makespan, speedup] = timing(base, r.makespan_ns);
        sheet.row(vec![
            text("serve"),
            text(r.devices),
            makespan,
            speedup,
            text(r.replications),
            text(r.replicated_bytes),
            val("-", 0),
        ]);
    }
    for (name, reps) in &algo_reps {
        for r in reps {
            let [makespan, speedup] = timing(reps[0].makespan_ns, r.makespan_ns);
            let exchange = format!("{:.2} MB", r.exchange_bytes as f64 / 1e6);
            sheet.row(vec![
                text(name),
                text(r.devices),
                makespan,
                speedup,
                val("-", 0),
                text(0),
                val(exchange, r.exchange_bytes),
            ]);
        }
    }
    emit("fleet", &sheet);

    let (two, four) = (serve_reps[1].makespan_ns, serve_reps[2].makespan_ns);
    cx.write_json("fleet", |o| {
        o.num("jobs", N_JOBS)
            .num("trace_seed", TRACE_SEED)
            .str("fabric", "nvlink");
        o.array("serve", |a| {
            for r in &serve_reps {
                a.object(|s| {
                    s.num("devices", r.devices)
                        .num("makespan_ns", r.makespan_ns)
                        .num("speedup_x100", speedup_x100(base, r.makespan_ns))
                        .num("replications", r.replications)
                        .num("replicated_bytes", r.replicated_bytes)
                        .num("sessions_built", r.sessions_built)
                        .num("total_queue_wait_ns", r.total_queue_wait_ns);
                });
            }
        });
        o.array("algorithms", |a| {
            for (name, reps) in &algo_reps {
                for r in reps {
                    a.object(|s| {
                        s.str("algo", name)
                            .num("devices", r.devices)
                            .num("iterations", r.iterations)
                            .num("makespan_ns", r.makespan_ns)
                            .num("exchange_bytes", r.exchange_bytes)
                            .num("wire_bytes", r.interconnect.total_bytes());
                    });
                }
            }
        });
        o.object("oracles", |v| {
            v.num("outputs_identical_across_fleet_sizes", true)
                .num("serve_speedup_2dev_x100", speedup_x100(base, two))
                .num("serve_speedup_4dev_x100", speedup_x100(base, four));
        });
    });
    let (s2, s4) = (
        base as f64 / two.max(1) as f64,
        base as f64 / four.max(1) as f64,
    );
    println!(
        "serve fleet scaling: {:.2} ms -> {:.2} ms (2 dev, {s2:.2}x) -> {:.2} ms (4 dev, {s4:.2}x)",
        ms(base),
        ms(two),
        ms(four),
    );
    cx.check(
        "2-device fleet speedup on the burst trace",
        format!("{s2:.2}x"),
        ">= 1.7x",
        s2 >= 1.7,
    );
    cx.check(
        "4-device fleet speedup on the burst trace",
        format!("{s4:.2}x"),
        ">= 3x",
        s4 >= 3.0,
    );
}

/// Streaming mutations vs. full recompute (`DESIGN.md` §14): deterministic
/// churn batches through a live session (delta-patch + incremental
/// repair) against the alternative a mutation-oblivious deployment has —
/// tear the session down and recompute cold on the mutated graph. Three
/// batch sizes (0.1 %, 1 %, 5 % of FK's edges) × the five serve-facing
/// programs cover all three repair modes: seeded (BFS/SSSP/CC), restart
/// (PR), full-recompute fallback (LP). Hard oracle: every repaired output
/// is bit-identical to a cold in-memory recompute on the mutated graph.
/// Checks: on batches ≤ 1 % repair beats recompute on simulated time and
/// wire bytes for every program, and no fallback cell is slower than the
/// recompute (the warm session makes the fallback at worst free).
pub fn incremental_repair(cx: &mut Ctx) {
    /// Consecutive batches each cell streams.
    const BATCHES: usize = 3;
    let env = Env::with_scale(cx.env.scale);
    let pd = cx.dataset(DatasetId::Fk);
    let mut sheet = Sheet::new(&[
        ("Algo", "algo"),
        ("Mode", "mode"),
        ("Batch", "batch_frac"),
        ("", "batch_edges"),
        ("Repair", "repair_time_ns"),
        ("Recompute", "recompute_time_ns"),
        ("Speedup", ""),
        ("Repair wire", "repair_wire_bytes"),
        ("Recompute wire", "recompute_wire_bytes"),
        ("", "repair_iterations"),
    ]);
    let mut json_cells = Vec::new();
    let (mut small_wins_time, mut small_wins_wire) = (true, true);
    let (mut small_losses, mut fallback_slower) = (Vec::new(), Vec::new());
    // each cell's churn seed tag is fixed here, not read off the registry
    // order, so the draws stay put when the registry changes
    let tagged = [
        (Algo::Bfs, 0u64),
        (Algo::Sssp, 1),
        (Algo::Cc, 2),
        (Algo::Pr, 3),
        (Algo::Lp, 7),
    ];
    for (algo, tag) in tagged {
        let base = &**pd.graph(algo);
        eprintln!("algo: {}", algo.display());
        let prog = bench_program(base, algo);
        for (frac, frac_label) in [(0.001, "0.1%"), (0.01, "1%"), (0.05, "5%")] {
            let batch_edges = ((base.num_edges() as f64 * frac) as usize).max(1);
            // churn is seeded per (algo, frac) so cells are independent draws
            let seed = 0x5EED ^ (tag << 8) ^ (frac * 1e4) as u64;
            let batches = synthetic_churn(base, BATCHES, batch_edges, seed);
            let run = run_with_mutations(env.ascetic_cfg(), base, &prog, &batches, true)
                .expect("churn batches are always applicable");
            assert!(
                run.all_verified(),
                "{}: a repaired output diverged from the cold recompute",
                algo.display()
            );
            let sum = |f: fn(&ascetic_mutate::BatchOutcome) -> u64| -> u64 {
                run.batches.iter().map(f).sum()
            };
            let repair_ns = sum(|b| b.patch_ns + b.repair_ns);
            let repair_wire = sum(|b| b.patch_wire_bytes + b.repair_wire_bytes);
            let repair_iters = sum(|b| b.repair_iterations as u64);
            // the cold alternative per epoch: a fresh session over the
            // mutated graph, prestore re-paid on both axes — exactly what
            // tearing the session down costs
            let epochs = materialize(base, &batches).expect("same batches, same result");
            let (mut recompute_ns, mut recompute_wire) = (0, 0);
            for version in &epochs.versions[1..] {
                let rep = AsceticSession::new(env.ascetic_cfg(), version).run(&prog);
                recompute_ns += rep.prestore_ns + rep.sim_time_ns;
                recompute_wire += rep.prestore_wire_bytes + rep.xfer.h2d_wire_bytes;
            }
            let mode = match run.batches[0].mode {
                RepairMode::Seeded => "seeded",
                RepairMode::Restart => "restart",
                RepairMode::Fallback => "fallback",
            };
            let speedup = recompute_ns as f64 / repair_ns.max(1) as f64;
            sheet.row(vec![
                text(algo.display()),
                text(mode),
                val(frac_label, frac),
                text(batch_edges),
                val(format!("{:.2}ms", ms(repair_ns)), repair_ns),
                val(format!("{:.2}ms", ms(recompute_ns)), recompute_ns),
                text(format!("{speedup:.2}x")),
                val(human_bytes(repair_wire), repair_wire),
                val(human_bytes(recompute_wire), recompute_wire),
                text(repair_iters),
            ]);
            let repair = [repair_ns, repair_wire, repair_iters];
            let recompute = [recompute_ns, recompute_wire];
            json_cells.push((algo, mode, frac, batch_edges, repair, recompute));
            let (wins_time, wins_wire) = (repair_ns < recompute_ns, repair_wire < recompute_wire);
            let cell = format!("{}/{frac_label}", algo.display());
            if frac <= 0.01 {
                small_wins_time &= wins_time;
                small_wins_wire &= wins_wire;
                if !(wins_time && wins_wire) {
                    small_losses.push(format!(
                        "{cell}: repair {repair_ns} ns / {repair_wire} B vs recompute \
                         {recompute_ns} ns / {recompute_wire} B"
                    ));
                }
            }
            if mode == "fallback" && !wins_time {
                fallback_slower.push(format!("{cell}: {repair_ns} vs {recompute_ns} ns"));
            }
        }
    }
    emit("incremental", &sheet);
    cx.write_json("incremental", |o| {
        o.str("dataset", "fk").num("batches_per_cell", BATCHES);
        o.array("cells", |a| {
            for &(algo, mode, frac, batch_edges, [rn, rw, ri], [cn, cw]) in &json_cells {
                a.object(|c| {
                    c.str("algo", algo.display())
                        .str("mode", mode)
                        .num("batch_frac", frac)
                        .num("batch_edges", batch_edges);
                    c.object("repair", |r| {
                        r.num("time_ns", rn)
                            .num("wire_bytes", rw)
                            .num("iterations", ri);
                    });
                    c.object("recompute", |r| {
                        r.num("time_ns", cn).num("wire_bytes", cw);
                    });
                    c.num("time_speedup_x1000", cn * 1000 / rn.max(1))
                        .num("wire_saved_bytes", cw as i64 - rw as i64);
                });
            }
        });
        o.object("totals", |t| {
            t.num("small_batch_repair_wins_time", small_wins_time)
                .num("small_batch_repair_wins_wire", small_wins_wire)
                .num("fallback_cells_slower", fallback_slower.len());
        });
    });
    let small = "repair beats recompute on time and wire on every batch <= 1% of edges";
    cx.check_none(small, &small_losses);
    cx.check_none(
        "no fallback cell is slower than the recompute",
        &fallback_slower,
    );
}
