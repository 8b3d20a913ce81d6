//! The §1/§5 studies and the ablations beyond the paper: each one is
//! "configuration variants × a few cells → columns".

use ascetic_core::FillPolicy;
use ascetic_graph::datasets::DatasetId;

use crate::fmt::{human_bytes, num, secs, text, val, Sheet, Table};
use crate::output::{emit, emit_pivot, write_csv};
use crate::run::{ascetic, grid, pair_on, Ctx, Variant};
use crate::setup::Algo;

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
/// has negligible impact on the performance (less than 5%)".
pub fn fill_policy(cx: &mut Ctx) {
    let policies = [
        ("front", FillPolicy::Front),
        ("rear", FillPolicy::Rear),
        ("random", FillPolicy::Random { seed: 42 }),
    ];
    let cfg = cx.env.ascetic_cfg();
    let variants = policies.map(|(name, p)| ascetic(name, cfg.with_fill(p)));
    let mut csv = Table::new(vec!["algo", "policy", "seconds", "total_bytes"]);
    let mut table = Table::new(vec!["Algo", "Front", "Rear", "Random", "Spread(3)"]);
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
        let max = s.iter().cloned().fold(f64::MIN, f64::max);
        let min = s.iter().cloned().fold(f64::MAX, f64::min);
        table.row(vec![
            c.algo.display().to_string(),
            format!("{:.4}s", s[0]),
            format!("{:.4}s", s[1]),
            format!("{:.4}s", s[2]),
            format!("{:.1}%", (max / min - 1.0) * 100.0),
        ]);
    }
    emit_pivot("disc_fill_policy", &table, &csv);
    println!("Paper: initial fill placement changes performance by < 5%.");
}

/// Static-region chunk size. The paper fixes 16 KiB chunks ("amenable to
/// the PCI-e burst transfer mechanism", §3.4) without studying
/// alternatives: small chunks track vertex boundaries tightly but cost
/// more DMAs per byte; large chunks amortize DMA latency but
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
    let gathers = [4u64, 6, 10, 16, 24];
    let kernels = [1u64, 2, 4, 8, 16];
    let by_gather = gathers.iter().flat_map(|&gbps| {
        let mut dev = env.device();
        dev.gather.bandwidth_bps = gbps * 1_000_000_000;
        pair_on(env, dev, &format!(" {gbps} GB/s"))
    });
    let by_kernel = kernels.iter().flat_map(|&gedges| {
        let mut dev = env.device();
        dev.kernel.edge_fs = 1_000_000 / gedges; // fs per edge at G edges/s
        pair_on(env, dev, &format!(" {gedges} Gedge/s"))
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
