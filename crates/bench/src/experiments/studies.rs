//! The §1/§5 studies and the ablations beyond the paper: each one is
//! "configuration variants × a few cells → columns".

use ascetic_algos::{Bfs, Cc, PageRank};
use ascetic_baselines::SubwaySystem;
use ascetic_core::{AsceticConfig, AsceticSession, FillPolicy, ReplacementPolicy, RunReport};
use ascetic_graph::datasets::DatasetId;
use ascetic_graph::transform::relabel_by_degree;

use super::paper::eq2_share;
use crate::fmt::{human_bytes, num, secs, text, val, Sheet, Table};
use crate::output::{emit, emit_pivot, write_csv};
use crate::run::{ascetic, grid, run_cell, Ctx, Variant};
use crate::setup::{run_algo_in_memory, source_vertex, Algo};

const FK: [DatasetId; 1] = [DatasetId::Fk];

/// The §1/§2 numbers the paper's introduction leans on: UVM transfer
/// amplification on PageRank ("an average of 30.4GB per iteration — almost
/// twice the original size"), Subway's GPU idle share on BFS ("68% of GPU
/// time is idle"), and the static-region thought experiment.
pub fn motivation(cx: &mut Ctx) {
    let on_pr: [Variant; 2] = [
        ("UVM".into(), cx.env.uvm().into()),
        ascetic("Ascetic", cx.env.ascetic_cfg()),
    ];
    let on_bfs: [Variant; 1] = [("Subway".into(), cx.env.subway().into())];
    let pr = cx.sweep(&grid(&[Algo::Pr], &FK), &on_pr).remove(0);
    let (uvm, asc) = (&pr.reports[0], &pr.reports[1]);
    let sw = &cx
        .sweep(&grid(&[Algo::Bfs], &FK), &on_bfs)
        .remove(0)
        .reports[0];

    let per_iter = uvm.xfer.h2d_bytes / uvm.iterations.max(1) as u64;
    let amp = per_iter as f64 / pr.graph.edge_bytes() as f64;
    println!(
        "UVM PageRank on FK': {} iterations, {} transferred total,\n\
         {} per iteration = {:.2}x the dataset per iteration.\n\
         Paper: 43 iterations, 1306 GB total, 30.4 GB/iteration ≈ 2x the 15 GB dataset.\n",
        uvm.iterations,
        human_bytes(uvm.xfer.h2d_bytes),
        human_bytes(per_iter),
        amp
    );
    println!(
        "Subway BFS on FK': GPU compute engine idle {:.1}% of the run.\n\
         Paper: 68% GPU idle for Subway BFS on friendster-konect.\n",
        sw.gpu_idle_fraction() * 100.0
    );
    // the §1 thought experiment: pinning a third of the graph cuts
    // UVM-style traffic by ~26 %
    println!(
        "Ascetic PR on FK': {} steady transfer (+ {} prestore) vs UVM's {} — reuse\n\
         eliminates {:.0}% of the traffic.",
        human_bytes(asc.steady_bytes()),
        human_bytes(asc.prestore_bytes),
        human_bytes(uvm.xfer.h2d_bytes),
        (1.0 - asc.total_bytes_with_prestore() as f64 / uvm.xfer.h2d_bytes as f64) * 100.0
    );
    let mut csv = Table::new(vec!["metric", "value"]);
    for (metric, value) in [
        ("uvm_pr_iterations", uvm.iterations.to_string()),
        ("uvm_pr_total_bytes", uvm.xfer.h2d_bytes.to_string()),
        ("uvm_pr_amplification_per_iter", format!("{amp:.4}")),
        (
            "subway_bfs_gpu_idle_frac",
            format!("{:.4}", sw.gpu_idle_fraction()),
        ),
        ("ascetic_pr_steady_bytes", asc.steady_bytes().to_string()),
    ] {
        csv.row(vec![metric.to_string(), value]);
    }
    write_csv("motivation_stats.csv", &csv.to_csv());
}

/// §5, static-region fill policy: "filling up the Static Region with the
/// front portion, the rear portion, and randomly selected data chunks...
/// has negligible impact on the performance (less than 5%)". The `lazy`
/// column (no prestore, chunks adopted on demand) is this repo's.
pub fn fill_policy(cx: &mut Ctx) {
    let policies = [
        ("front", FillPolicy::Front),
        ("rear", FillPolicy::Rear),
        ("random", FillPolicy::Random { seed: 42 }),
        ("lazy", FillPolicy::Lazy),
    ];
    let cfg = cx.env.ascetic_cfg();
    let variants = policies.map(|(name, p)| ascetic(name, cfg.with_fill(p)));
    let mut csv = Table::new(vec!["algo", "policy", "seconds", "total_bytes"]);
    let mut table = Table::new(vec![
        "Algo",
        "Front",
        "Rear",
        "Random",
        "Spread(3)",
        "Lazy",
        "Lazy xfer",
    ]);
    for c in cx.sweep(&grid(&[Algo::Bfs, Algo::Cc, Algo::Pr], &FK), &variants) {
        for ((name, _), rep) in policies.iter().zip(&c.reports) {
            csv.row(vec![
                c.algo.display().to_string(),
                name.to_string(),
                format!("{:.6}", rep.seconds()),
                rep.total_bytes_with_prestore().to_string(),
            ]);
        }
        let s: Vec<f64> = c.reports.iter().map(|r| r.seconds()).collect();
        // spread over the three prefill placements (the paper's experiment)
        let max = s[..3].iter().cloned().fold(f64::MIN, f64::max);
        let min = s[..3].iter().cloned().fold(f64::MAX, f64::min);
        let lazy_bytes = c.reports[3].total_bytes_with_prestore();
        table.row(vec![
            c.algo.display().to_string(),
            format!("{:.4}s", s[0]),
            format!("{:.4}s", s[1]),
            format!("{:.4}s", s[2]),
            format!("{:.1}%", (max / min - 1.0) * 100.0),
            format!("{:.4}s", s[3]),
            format!(
                "{:.2}X data",
                lazy_bytes as f64 / c.graph.edge_bytes() as f64
            ),
        ]);
    }
    emit_pivot("disc_fill_policy", &table, &csv);
    println!(
        "Paper: initial fill placement changes performance by < 5%. The extra 'lazy'\n\
         column is this reproduction's extension (no prestore, chunks adopted on\n\
         demand): at these high-coverage workloads the eager prestore wins —\n\
         lazy pays repeated on-demand shipping while the window-rationed warming\n\
         catches up. It pays off only when the touched working set is small."
    );
}

/// §5, static-region replacement: "does not significantly improve the
/// performance because the time left for On-demand Engine to update the
/// Static Region is quite limited... only 28.40% of time is spent in the
/// On-demand Region, and only about 2% of the total data transfer can be
/// completed during that time." Measures exactly those three quantities.
pub fn replacement(cx: &mut Ctx) {
    let cfg = cx.env.ascetic_cfg();
    let variants = [
        ("disabled", ReplacementPolicy::Disabled),
        ("last-iter", ReplacementPolicy::LastIteration),
        (
            "cumulative",
            ReplacementPolicy::Cumulative { stale_threshold: 3 },
        ),
    ]
    .map(|(name, p)| ascetic(name, cfg.with_replacement(p)));
    let mut sheet = Sheet::new(&[
        ("Algo", "algo"),
        ("Policy", "policy"),
        ("Time", "seconds"),
        ("vs disabled", ""),
        ("Refresh bytes", "refresh_bytes"),
        ("of total xfer", "total_bytes"),
        ("OD-compute share", "od_window_frac"),
    ]);
    for c in cx.sweep(&grid(&[Algo::Pr, Algo::Cc], &FK), &variants) {
        for ((name, _), rep) in variants.iter().zip(&c.reports) {
            let total = rep.total_bytes_with_prestore();
            let refresh_frac = rep.refresh_bytes as f64 / total.max(1) as f64 * 100.0;
            let od = rep.breakdown.ondemand_compute_ns as f64 / rep.sim_time_ns as f64 * 100.0;
            let delta = (c.reports[0].seconds() / rep.seconds() - 1.0) * 100.0;
            sheet.row(vec![
                text(c.algo.display()),
                text(name),
                secs(rep.seconds()),
                text(format!("{delta:+.1}%")),
                text(rep.refresh_bytes),
                val(format!("{refresh_frac:.1}%"), total),
                val(format!("{od:.1}%"), format!("{:.4}", od / 100.0)),
            ]);
        }
    }
    emit("disc_replacement", &sheet);
    println!(
        "Paper: replacement gains are small — only ~28.4% of time is on-demand\n\
         compute and only ~2% of the total transfer fits in that window."
    );
}

/// Static-region chunk size. The paper fixes 16 KiB chunks ("amenable to
/// the PCI-e burst transfer mechanism", §3.4) without studying
/// alternatives: small chunks track vertex boundaries tightly but cost
/// more replacement DMAs per byte; large chunks amortize DMA latency but
/// strand coverage on boundary-straddling vertices.
pub fn chunk_size(cx: &mut Ctx) {
    let cfg = cx.env.ascetic_cfg();
    let sizes = [2usize, 4, 8, 16, 32, 64].map(|kb| kb * 1024);
    let variants = sizes.map(|b| ascetic(format!("{}KB", b / 1024), cfg.with_chunk_bytes(b)));
    let mut sheet = Sheet::new(&[
        ("", "algo"),
        ("Chunk", "chunk_bytes"),
        ("Time", "seconds"),
        ("Static hit", "static_hit_pct"),
        ("Steady transfer", "xfer_bytes"),
        ("Prestore", ""),
    ]);
    for c in cx.sweep(&grid(&[Algo::Bfs, Algo::Pr], &FK), &variants) {
        sheet.section(c.algo.display());
        for ((&bytes, (name, _)), rep) in sizes.iter().zip(&variants).zip(&c.reports) {
            sheet.row(vec![
                text(c.algo.display()),
                val(name, bytes),
                secs(rep.seconds()),
                num(rep.static_edge_fraction() * 100.0, 1, "%", 2),
                val(
                    format!("{:.2}MB", rep.steady_bytes() as f64 / 1e6),
                    rep.steady_bytes(),
                ),
                text(format!("{:.2}MB", rep.prestore_bytes as f64 / 1e6)),
            ]);
        }
    }
    emit("ablation_chunk_size", &sheet);
    println!(
        "Expectation: mild sensitivity — the paper's 16 KiB sits on the flat part of\n\
         the curve (hit-rate loss only matters once chunks approach hub adjacency sizes)."
    );
}

/// Sensitivity of the headline result to the simulator's calibration
/// (`DESIGN.md` §1): does Ascetic-over-Subway survive if the two most
/// influential constants — host gather bandwidth (Subway's bottleneck)
/// and GPU kernel throughput — are off?
pub fn cost_model(cx: &mut Ctx) {
    let env = &cx.env;
    let pair = |tag: String, dev| {
        let cfg = AsceticConfig::new(dev).with_chunk_bytes(env.chunk_bytes());
        let subway: Variant = (format!("subway {tag}"), SubwaySystem::new(dev).into());
        [subway, ascetic(format!("ascetic {tag}"), cfg)]
    };
    let gathers = [4u64, 6, 10, 16, 24];
    let kernels = [1u64, 2, 4, 8, 16];
    let by_gather = gathers.iter().flat_map(|&gbps| {
        let mut dev = env.device();
        dev.gather.bandwidth_bps = gbps * 1_000_000_000;
        pair(format!("{gbps} GB/s"), dev)
    });
    let by_kernel = kernels.iter().flat_map(|&gedges| {
        let mut dev = env.device();
        dev.kernel.edge_fs = 1_000_000 / gedges; // fs per edge at G edges/s
        pair(format!("{gedges} Gedge/s"), dev)
    });
    let variants: Vec<Variant> = by_gather.chain(by_kernel).collect();
    let c = cx.sweep(&grid(&[Algo::Pr], &FK), &variants).remove(0);

    let mut sheet = Sheet::new(&[
        ("Gather BW", "gather_gbps"),
        ("Kernel rate", "kernel_gedges"),
        ("Subway", "subway_s"),
        ("Ascetic", "ascetic_s"),
        ("Ascetic/Subway", "speedup"),
    ]);
    let points = gathers
        .map(|g| (g, 4))
        .into_iter()
        .chain(kernels.map(|k| (10, k)));
    for (i, ((gbps, gedges), pair)) in points.zip(c.reports.chunks(2)).enumerate() {
        match i {
            0 => sheet.section("gather bandwidth sweep (kernel fixed at 4 G edges/s)"),
            5 => sheet.section("kernel throughput sweep (gather fixed at 10 GB/s)"),
            _ => {}
        }
        let (sw, asc) = (pair[0].seconds(), pair[1].seconds());
        // each section's table shows only the knob it sweeps
        let knob = |x: u64, unit: &str, swept: bool| match swept {
            true => val(format!("{x} {unit}"), x),
            false => val("", x),
        };
        sheet.row(vec![
            knob(gbps, "GB/s", i < 5),
            knob(gedges, "Gedge/s", i >= 5),
            secs(sw),
            secs(asc),
            num(sw / asc, 2, "X", 3),
        ]);
    }
    emit("ablation_cost_model", &sheet);
    println!(
        "Expectation: Ascetic stays ahead across the whole grid — the win is\n\
         structural (moving less data, overlapping what remains), not an artifact\n\
         of one calibration point. The margin narrows as kernels slow (compute-\n\
         bound regimes leave less transfer time to hide) and widens as gather\n\
         slows (Subway's serial bottleneck grows)."
    );
}

/// Double-buffering the on-demand region (extension). The paper's
/// on-demand region is a single buffer: batch `i+1` cannot transfer until
/// batch `i` finishes computing. Splitting it into N buffers pipelines
/// transfer against compute at the cost of smaller batches — it matters
/// when iterations span many batches (SSSP/PR at low static coverage).
pub fn double_buffer(cx: &mut Ctx) {
    let cfg = cx.env.ascetic_cfg();
    // a modest static share leaves plenty of on-demand batches to pipeline
    let points: Vec<(f64, usize)> = [0.5, 0.8]
        .iter()
        .flat_map(|&r| [1usize, 2, 4].map(|n| (r, n)))
        .collect();
    let variants: Vec<Variant> = points
        .iter()
        .map(|&(r, n)| {
            ascetic(
                format!("R={r} x{n}"),
                cfg.with_static_ratio(r).with_od_buffers(n),
            )
        })
        .collect();
    let mut sheet = Sheet::new(&[
        ("", "algo"),
        ("", "ratio"),
        ("Buffers", "buffers"),
        ("Time", "seconds"),
        ("vs 1 buffer", ""),
    ]);
    // FS: the biggest social dataset
    for c in cx.sweep(&grid(&[Algo::Sssp, Algo::Pr], &[DatasetId::Fs]), &variants) {
        for (i, (&(ratio, nbuf), rep)) in points.iter().zip(&c.reports).enumerate() {
            if nbuf == 1 {
                sheet.section(format!("{} at R = {ratio}", c.algo.display()));
            }
            let base = c.reports[i / 3 * 3].seconds();
            sheet.row(vec![
                text(c.algo.display()),
                text(format!("{ratio:.1}")),
                text(nbuf),
                secs(rep.seconds()),
                text(format!("{:+.1}%", (base / rep.seconds() - 1.0) * 100.0)),
            ]);
        }
    }
    emit("ablation_double_buffer", &sheet);
    println!(
        "Expectation: a few percent from pipelining transfer under compute when\n\
         iterations span many batches; negligible once the static region absorbs\n\
         most of the traffic."
    );
}

/// Sensitivity to the K parameter of Eq (2). The paper picks K = 10 %
/// ("the percentage of active edges in the data set in each iteration is
/// mostly around 10%, except PR") and claims the resulting split is
/// near-optimal; this sweeps K and reports the share and runtime it gives.
pub fn k_sweep(cx: &mut Ctx) {
    let cfg = cx.env.ascetic_cfg();
    let ks = [0.02, 0.05, 0.10, 0.20, 0.30, 0.45];
    let variants = ks.map(|k| ascetic(format!("K={k}"), cfg.with_k(k)));
    let mut sheet = Sheet::new(&[
        ("", "algo"),
        ("K", "k"),
        ("Eq(2) share", "share"),
        ("Time", "seconds"),
        ("", "true_activity"),
    ]);
    for c in cx.sweep(&grid(&[Algo::Bfs, Algo::Cc, Algo::Pr], &FK), &variants) {
        let truth = run_algo_in_memory(&c.graph, c.algo).avg_active_edge_fraction(&c.graph);
        sheet.section(format!(
            "{} (measured avg activity: {:.1}%)",
            c.algo.display(),
            truth * 100.0
        ));
        for (&k, rep) in ks.iter().zip(&c.reports) {
            sheet.row(vec![
                text(c.algo.display()),
                val(format!("{:.0}%", k * 100.0), format!("{k:.2}")),
                num(eq2_share(&cx.env, &c.graph, k), 2, "", 4),
                secs(rep.seconds()),
                text(format!("{truth:.4}")),
            ]);
        }
    }
    emit("ablation_k_sweep", &sheet);
    println!(
        "Expectation: runtimes vary only mildly across K — Eq (2)'s share moves\n\
         slowly in K when D/M is moderate, which is why the paper's fixed 10%\n\
         works across algorithms with very different true activity."
    );
}

/// Degree-ordered relabeling × front fill (extension). The paper observes
/// (§5) that placement barely matters because chunk access is
/// near-uniform — a property of the vertex numbering: relabel so hubs
/// come first and a front fill pins exactly the hot adjacency lists.
pub fn relabel(cx: &mut Ctx) {
    let variant = [ascetic("Ascetic", cx.env.ascetic_cfg())];
    let pd = cx.dataset(DatasetId::Fk);
    let mut sheet = Sheet::new(&[
        ("Algo", "algo"),
        ("Order", "order"),
        ("Time", "seconds"),
        ("Static hit", "static_hit_pct"),
        ("Steady xfer", "steady_bytes"),
    ]);
    for algo in [Algo::Cc, Algo::Pr] {
        let natural = pd.graph(algo);
        let (relabeled, _map) = relabel_by_degree(natural);
        for (order, g) in [("natural", &**natural), ("degree-desc", &relabeled)] {
            let rep = run_cell(&cx.env, algo, order, g, &variant).remove(0);
            sheet.row(vec![
                text(algo.display()),
                text(order),
                secs(rep.seconds()),
                num(rep.static_edge_fraction() * 100.0, 1, "%", 2),
                val(
                    format!("{:.2}MB", rep.steady_bytes() as f64 / 1e6),
                    rep.steady_bytes(),
                ),
            ]);
        }
    }
    emit("ablation_relabel", &sheet);
    println!(
        "Expectation: with hubs front-loaded, the front-filled static region covers\n\
         a larger share of the *touched* edges, cutting steady transfer — the gain\n\
         is bounded by how skewed the degree distribution is.\n\
         Caveat: CC is confounded — min-label propagation converges faster when\n\
         the hub holds label 0, a separate (also classic) benefit of relabeling;\n\
         PR isolates the locality effect (same iterations, less transfer)."
    );
}

/// Amortizing the prestore across an analytics pipeline (extension).
/// Paper §4.3: "In practice, the Static Region can be reused throughout
/// the graph processing": a BFS → CC → PR pipeline over one
/// [`AsceticSession`] (prestore paid once) versus three one-shot runs.
pub fn session_amortization(cx: &mut Ctx) {
    let cfg = cx.env.ascetic_cfg();
    let oneshot = [ascetic("Ascetic", cfg)];
    let mut sheet = Sheet::new(&[
        ("Dataset", "dataset"),
        ("Pipeline", ""),
        ("Session time", "session_ns"),
        ("One-shot time", "oneshot_ns"),
        ("Session xfer", "session_bytes"),
        ("One-shot xfer", "oneshot_bytes"),
        ("Saved", ""),
    ]);
    let cost = |reps: &[RunReport]| {
        let ns: u64 = reps.iter().map(|r| r.sim_time_ns).sum();
        let bytes: u64 = reps.iter().map(|r| r.total_bytes_with_prestore()).sum();
        (ns, bytes)
    };
    for id in [DatasetId::Fk, DatasetId::Uk] {
        let pd = cx.dataset(id);
        let g = &*pd.unweighted;
        let mut session = AsceticSession::new(cfg, g);
        let (s_ns, s_bytes) = cost(&[
            session.run(&Bfs::new(source_vertex(g))),
            session.run(&Cc::new()),
            session.run(&PageRank::new()),
        ]);
        let cells = cx.sweep(&grid(&[Algo::Bfs, Algo::Cc, Algo::Pr], &[id]), &oneshot);
        let reps: Vec<RunReport> = cells.into_iter().flat_map(|c| c.reports).collect();
        let (o_ns, o_bytes) = cost(&reps);
        let (ms, mb) = (|ns: u64| ns as f64 / 1e6, |b: u64| b as f64 / 1e6);
        sheet.row(vec![
            text(id.abbr()),
            text("BFS,CC,PR"),
            val(format!("{:.2}ms", ms(s_ns)), s_ns),
            val(format!("{:.2}ms", ms(o_ns)), o_ns),
            val(format!("{:.1}MB", mb(s_bytes)), s_bytes),
            val(format!("{:.1}MB", mb(o_bytes)), o_bytes),
            text(format!(
                "{:+.1}ms / {:+.1}MB",
                (o_ns as i64 - s_ns as i64) as f64 / 1e6,
                (o_bytes as i64 - s_bytes as i64) as f64 / 1e6
            )),
        ]);
    }
    emit("session_amortization", &sheet);
    println!(
        "The saving approximates two prestores, in time and in bytes — §4.3's\n\
         point that the prestore is a per-graph cost, not a per-algorithm one.\n\
         Nothing reshapes the warm region between or within runs (DESIGN.md §19),\n\
         so later runs add no replacement traffic. A session that looked faster\n\
         than this before §19 owed it to Eq (3) firing in the BFS: the donated\n\
         tail became an accidental second on-demand buffer for CC and PR —\n\
         pipelining that is `od_buffers`' job (see ablation_double_buffer)."
    );
}
