//! The two transfer-mode sweeps over the paper grid — the mechanisms
//! (compression, prefetch) and traversal direction — each writing a
//! `BENCH_<name>.json`. The modes *are* the variants: each column is
//! Ascetic under one edit of the environment's own configuration.

use ascetic_core::{CompressionMode, DirectionMode, PrefetchMode, RunReport};
use ascetic_graph::datasets::DatasetId;
use ascetic_obs::json::Array;

use crate::fmt::{human_bytes, Table};
use crate::run::{ascetic, grid, Cell, Ctx, Variant};
use crate::setup::{Algo, TABLE4_ORDER};

/// One per-run statistic of a mode sweep: its key in the per-mode JSON
/// object and its value.
type Metric = (&'static str, fn(&RunReport) -> String);

fn s(x: impl ToString) -> String {
    x.to_string()
}

/// One cell of the sweep's JSON: identity, `tags`, one object per mode,
/// then `deltas`.
fn json_cell(
    a: &mut Array<'_>,
    c: &Cell,
    (modes, first): (&[&str], usize),
    tags: &[(&str, &str)],
    metrics: &[Metric],
    deltas: &[(&str, i64)],
) {
    a.object(|o| {
        o.str("algo", c.algo.display())
            .str("dataset", c.dataset.abbr());
        for (key, tag) in tags {
            o.str(key, tag);
        }
        for (mode, r) in modes.iter().zip(&c.reports[first..]) {
            o.object(mode, |stats| {
                for (key, value) in metrics {
                    stats.num(key, value(r));
                }
            });
        }
        for &(key, d) in deltas {
            o.num(key, d);
        }
    });
}

fn pct(part: f64, whole: u64) -> f64 {
    100.0 * part / whole.max(1) as f64
}

fn delta(a: u64, b: u64) -> i64 {
    a as i64 - b as i64
}

/// `ALGO/DS[/tag] +x.xx%` for every cell whose mode `treated` is slower
/// than its mode `base`.
fn slower(cells: &[Cell], tag: &str, base: usize, treated: usize) -> Vec<String> {
    let times = |c: &Cell| (c.reports[base].sim_time_ns, c.reports[treated].sim_time_ns);
    let name = |c: &Cell| {
        let (b, t) = times(c);
        let by = pct(delta(t, b) as f64, b);
        format!("{}/{}{tag} {by:+.2}%", c.algo.display(), c.dataset.abbr())
    };
    let slow = cells.iter().filter(|c| times(c).1 > times(c).0);
    slow.map(name).collect()
}

/// The stall time a prefetch can attack: on-demand H2D transfer.
fn stall_ns(r: &RunReport) -> u64 {
    r.breakdown.transfer_ns
}

/// The transfer mechanisms across the Table 5 grid, each a column beside
/// Ascetic under paper defaults (`base`): the compressed transfer path
/// (`compression`: `CompressionMode::Adaptive`, `DESIGN.md` §7) and the
/// cross-iteration prefetch pipeline (`prefetch`:
/// `PrefetchMode::NextFrontier`, `DESIGN.md` §8).
///
/// Adaptive compression must put strictly fewer bytes on the wire than base
/// over the grid (web-locality datasets compress ~3×; the bulk prestore
/// crosses over) and never increase the simulated time of a cell (the
/// chain-aware crossover only ships encoded payloads when copy +
/// decompress beats the raw copy). `next-frontier` must hide ≥ 20 % of the
/// grid's on-demand stall time (Ttransfer — the work a prefetch can hide
/// under compute; the speculative loads ride the second copy stream inside
/// link slack) and never increase the simulated time of a cell (its
/// transfers are budgeted into existing slack and never evict what the
/// next frontier demands).
pub fn mechanisms(cx: &mut Ctx) {
    const COLUMNS: [&str; 3] = ["base", "compression", "prefetch"];
    let cfg = cx.env.ascetic_cfg();
    let variants = [
        ascetic(COLUMNS[0], cfg),
        ascetic(COLUMNS[1], cfg.with_compression(CompressionMode::Adaptive)),
        ascetic(COLUMNS[2], cfg.with_prefetch(PrefetchMode::NextFrontier)),
    ];
    let cells = cx.sweep(&grid(&TABLE4_ORDER, &DatasetId::ALL), &variants);
    let wire = |r: &RunReport| r.total_wire_bytes_with_prestore();
    let metrics: [Metric; 10] = [
        ("sim_ns", |r| s(r.sim_time_ns)),
        ("bytes", |r| s(r.total_bytes_with_prestore())),
        ("wire", |r| s(r.total_wire_bytes_with_prestore())),
        ("stall_ns", |r| s(stall_ns(r))),
        ("transfer_ns", |r| s(r.breakdown.transfer_ns)),
        ("prefetch_bytes", |r| s(r.prefetch_bytes)),
        ("prefetch_ops", |r| s(r.prefetch_ops)),
        ("prefetch_hits", |r| s(r.prefetch_hits)),
        ("prefetch_wasted_bytes", |r| s(r.prefetch_wasted_bytes)),
        ("hit_rate", |r| format!("{:.4}", r.prefetch_hit_rate())),
    ];
    let mut table = Table::new(vec![
        "Algo",
        "Dataset",
        "Wire (base)",
        "Wire (compression)",
        "Saved",
        "Time delta (compression)",
        "Stall (base)",
        "Stall (prefetch)",
        "Hidden",
        "Hit rate",
        "Time delta (prefetch)",
    ]);
    let mut json_cells = Vec::new();
    for c in &cells {
        let [b, co, pf] = [0, 1, 2].map(|i| &c.reports[i]);
        let dt = |r: &RunReport| delta(r.sim_time_ns, b.sim_time_ns);
        let ms = |r: &RunReport| format!("{:.2} ms", stall_ns(r) as f64 / 1e6);
        table.row(vec![
            c.algo.display().to_string(),
            c.dataset.abbr().to_string(),
            human_bytes(wire(b)),
            human_bytes(wire(co)),
            format!("{:.1}%", pct(wire(b) as f64 - wire(co) as f64, wire(b))),
            format!("{:+.2}%", pct(dt(co) as f64, b.sim_time_ns)),
            ms(b),
            ms(pf),
            format!(
                "{:.1}%",
                pct(stall_ns(b) as f64 - stall_ns(pf) as f64, stall_ns(b))
            ),
            format!("{:.0}%", pf.prefetch_hit_rate() * 100.0),
            format!("{:+.2}%", pct(dt(pf) as f64, b.sim_time_ns)),
        ]);
        let deltas = [
            ("wire_saved_bytes", delta(wire(b), wire(co))),
            ("compression_time_delta_ns", dt(co)),
            ("stall_hidden_ns", delta(stall_ns(b), stall_ns(pf))),
            ("prefetch_time_delta_ns", dt(pf)),
        ];
        json_cells.push((c, deltas));
    }
    println!("\n{}", table.to_markdown());

    let total = |i: usize, of: fn(&RunReport) -> u64| -> u64 {
        cells.iter().map(|c| of(&c.reports[i])).sum()
    };
    let (base_wire, comp_wire) = (total(0, wire), total(1, wire));
    let (base_stall, pf_stall) = (total(0, stall_ns), total(2, stall_ns));
    let hidden_pct = pct(base_stall as f64 - pf_stall as f64, base_stall);
    let (comp_slow, pf_slow) = (slower(&cells, "", 0, 1), slower(&cells, "", 0, 2));
    cx.write_json("mechanisms", |o| {
        o.array("cells", |a| {
            for (c, deltas) in &json_cells {
                json_cell(a, c, (&COLUMNS, 0), &[], &metrics, deltas);
            }
        });
        o.object("totals", |t| {
            t.num("base_wire_bytes", base_wire)
                .num("compression_wire_bytes", comp_wire)
                .num("wire_saved_bytes", delta(base_wire, comp_wire))
                .num("compression_saves_wire", comp_wire < base_wire)
                .num("compression_cells_time_regressed", comp_slow.len())
                .num("base_stall_ns", base_stall)
                .num("prefetch_stall_ns", pf_stall)
                .num("stall_hidden_pct", format_args!("{hidden_pct:.2}"))
                .num("prefetch_cells_time_regressed", pf_slow.len());
        });
    });
    println!("next-frontier hides {hidden_pct:.1}% of on-demand stall time");
    cx.check(
        "adaptive puts fewer bytes on the wire than off",
        format!(
            "{:.1}% fewer",
            pct(base_wire as f64 - comp_wire as f64, base_wire)
        ),
        "> 0",
        comp_wire < base_wire,
    );
    cx.check_none("adaptive slows down no cell", &comp_slow);
    cx.check(
        "next-frontier hides the grid's on-demand stall time",
        format!("{hidden_pct:.1}%"),
        ">= 20%",
        hidden_pct >= 20.0,
    );
    cx.check_none("next-frontier slows down no cell", &pf_slow);
}

/// Push vs pull vs density-adaptive traversal over the chunked CSC mirror,
/// on the pull-capable algorithms (BFS, CC, PR — SSSP is push-only and
/// would be rejected) × every dataset, with the on-demand compression
/// chain both off and adaptive. Every direction must answer identically;
/// `adaptive` must never ship more steady-state wire bytes than push-only
/// (strictly fewer on BFS, whose dense mid-phase is where pull wins) and
/// never increase the simulated time of a cell.
pub fn direction(cx: &mut Ctx) {
    const MODES: [&str; 3] = ["push", "pull", "adaptive"];
    use DirectionMode::{Adaptive, Pull, Push};
    let comps = [
        ("off", CompressionMode::Off),
        ("adaptive", CompressionMode::Adaptive),
    ];
    let metrics: [Metric; 4] = [
        ("sim_ns", |r| s(r.sim_time_ns)),
        ("steady_wire_bytes", |r| s(r.steady_wire_bytes())),
        ("h2d_wire_bytes", |r| s(r.xfer.h2d_wire_bytes)),
        ("pull_iterations", |r| s(pull_iters(r))),
    ];
    let mut table = Table::new(vec![
        "Algo",
        "Dataset",
        "Compression",
        "Wire (push)",
        "Wire (adaptive)",
        "Saved",
        "Pull iters",
        "Time delta",
    ]);
    // one sweep of all six direction × compression variants, so the runner
    // holds every one of them to push/off's answer
    let cfg = cx.env.ascetic_cfg();
    let variants: Vec<Variant> = comps
        .iter()
        .flat_map(|&(_, comp)| {
            let mode = move |(name, m)| ascetic(name, cfg.with_direction(m).with_compression(comp));
            MODES.into_iter().zip([Push, Pull, Adaptive]).map(mode)
        })
        .collect();
    let cells = cx.sweep(
        &grid(&[Algo::Bfs, Algo::Cc, Algo::Pr], &DatasetId::ALL),
        &variants,
    );
    let mut json_cells = Vec::new();
    let (mut push_wire, mut adaptive_wire) = (0u64, 0u64);
    let (mut slow, mut not_reduced) = (Vec::new(), Vec::new());
    for (ci, (comp_name, _)) in comps.iter().enumerate() {
        let first = ci * MODES.len();
        let tag = format!("/{comp_name}");
        slow.extend(slower(&cells, &tag, first, first + 2));
        for c in &cells {
            let (p, a) = (&c.reports[first], &c.reports[first + 2]);
            let (pw, aw) = (p.steady_wire_bytes(), a.steady_wire_bytes());
            push_wire += pw;
            adaptive_wire += aw;
            let dt = delta(a.sim_time_ns, p.sim_time_ns);
            table.row(vec![
                c.algo.display().to_string(),
                c.dataset.abbr().to_string(),
                comp_name.to_string(),
                format!("{:.1} KiB", pw as f64 / 1024.0),
                format!("{:.1} KiB", aw as f64 / 1024.0),
                format!("{:.1}%", pct(delta(pw, aw) as f64, pw)),
                pull_iters(a).to_string(),
                format!("{:+.2}%", pct(dt as f64, p.sim_time_ns)),
            ]);
            // strict reduction only where push shipped anything at all —
            // a fully-resident graph has nothing for pull to save
            if aw > pw || (c.algo == Algo::Bfs && pw > 0 && aw >= pw) {
                not_reduced.push(format!("{}/{}{tag}", c.algo.display(), c.dataset.abbr()));
            }
            let deltas = [("wire_saved_bytes", delta(pw, aw)), ("time_delta_ns", dt)];
            json_cells.push((c, first, comp_name, deltas));
        }
    }
    println!("\n{}", table.to_markdown());

    let saved_pct = pct(push_wire as f64 - adaptive_wire as f64, push_wire);
    cx.write_json("direction", |o| {
        o.array("cells", |a| {
            for &(c, first, comp_name, deltas) in &json_cells {
                let tags = [("compression", *comp_name)];
                json_cell(a, c, (&MODES, first), &tags, &metrics, &deltas);
            }
        });
        o.object("totals", |t| {
            t.num("push_wire_bytes", push_wire)
                .num("adaptive_wire_bytes", adaptive_wire)
                .num("wire_saved_pct", format_args!("{saved_pct:.2}"))
                .num("cells_time_regressed", slow.len());
        });
    });
    println!("adaptive ships {saved_pct:.1}% fewer steady-state wire bytes than push-only");
    cx.check_none(
        "adaptive ships no more wire bytes than push (strictly fewer on BFS)",
        &not_reduced,
    );
    cx.check_none("adaptive slows down no cell", &slow);
}

fn pull_iters(r: &RunReport) -> usize {
    r.per_iter.iter().filter(|i| i.pull).count()
}
