//! Ablation — the Eq (3) adaptive re-partitioning rule.
//!
//! The paper's default configuration never triggers the rule ("no
//! partition adjustment is monitored", §4.1), so its value only shows when
//! the static region is deliberately oversized for a high-activity
//! workload: the on-demand region is then too small, batches fragment, and
//! Eq (3) should claw memory back. We force that regime with a large
//! static-ratio override on PR (the densest workload) and compare adaptive
//! on vs off. Under-use is judged on whole completed runs (`DESIGN.md`
//! §19), so one-shot runs are expected to show exactly no difference; the
//! staged scenario is a two-run session.

use ascetic_bench::fmt::Table;
use ascetic_bench::output::emit;
use ascetic_bench::run::PreparedDataset;
use ascetic_bench::setup::{run_algo, source_vertex, Algo, Env};
use ascetic_core::{AsceticSession, AsceticSystem};
use ascetic_graph::datasets::DatasetId;

fn main() {
    let env = Env::from_env();
    eprintln!(
        "Ablation: Eq (3) adaptive re-partitioning (scale 1/{})",
        env.scale
    );
    let pd = PreparedDataset::build(&env, DatasetId::Fk);

    let mut table = Table::new(vec![
        "Algo",
        "Forced R",
        "Adaptive off",
        "Adaptive on",
        "Improvement",
    ]);
    let mut csv = Table::new(vec![
        "algo",
        "ratio",
        "off_seconds",
        "on_seconds",
        "improvement_pct",
    ]);
    for algo in [Algo::Pr, Algo::Cc] {
        let g = pd.graph(algo);
        for ratio in [0.97, 0.99] {
            let base = env.ascetic_cfg().with_static_ratio(ratio);
            let off = run_algo(&AsceticSystem::new(base.with_adaptive(false)), g, algo);
            let on = run_algo(&AsceticSystem::new(base.with_adaptive(true)), g, algo);
            assert_eq!(off.output, on.output, "adaptivity must not change results");
            let improvement = (off.seconds() / on.seconds() - 1.0) * 100.0;
            table.row(vec![
                algo.display().to_string(),
                format!("{ratio:.2}"),
                format!("{:.4}s", off.seconds()),
                format!("{:.4}s", on.seconds()),
                format!("{improvement:+.1}%"),
            ]);
            csv.row(vec![
                algo.display().to_string(),
                format!("{ratio:.2}"),
                format!("{:.6}", off.seconds()),
                format!("{:.6}", on.seconds()),
                format!("{improvement:.2}"),
            ]);
        }
        // default Eq (2) sizing for reference: adaptivity should be a no-op
        let off = run_algo(
            &AsceticSystem::new(env.ascetic_cfg().with_adaptive(false)),
            g,
            algo,
        );
        let on = run_algo(&AsceticSystem::new(env.ascetic_cfg()), g, algo);
        table.row(vec![
            algo.display().to_string(),
            "Eq(2)".to_string(),
            format!("{:.4}s", off.seconds()),
            format!("{:.4}s", on.seconds()),
            format!("{:+.1}%", (off.seconds() / on.seconds() - 1.0) * 100.0),
        ]);
    }
    // The rule demands *both* an on-demand overflow and an under-used
    // static region — with the paper's near-uniform access that second
    // condition never holds, which is exactly why the paper reports "no
    // partition adjustment is monitored". And under-use is judged on whole
    // runs (DESIGN.md §19), so a one-shot run never re-partitions at all.
    // The staged case is therefore a *session*: a rear-filled, oversized
    // static region against BFS on the web graph, whose early frontiers
    // are localized near the (front-resident) source, run twice. Judged
    // one iteration at a time the region looks cold early on and Eq (3)
    // fires (+0.2 % here before §19); over the whole sweep a region
    // holding x % of the edges serves x % of the accesses, so the replay
    // has no case against it either — the declined count is what the
    // paper's rule would have done.
    let uk = PreparedDataset::build(&env, DatasetId::Uk);
    let g = uk.graph(Algo::Bfs);
    let bad = env
        .ascetic_cfg()
        .with_static_ratio(0.995)
        .with_fill(ascetic_core::FillPolicy::Rear);
    let bfs = ascetic_algos::Bfs::new(source_vertex(g));
    let replay = |cfg| {
        let mut session = AsceticSession::new(cfg, g);
        let first = session.run(&bfs);
        let second = session.run(&bfs);
        assert_eq!(first.output, second.output);
        let seconds = first.seconds() + second.seconds();
        let declined =
            |r: &ascetic_core::RunReport| r.metrics.counter("repartitions.declined").unwrap_or(0);
        (
            second.output.clone(),
            seconds,
            first.repartitions + second.repartitions,
            declined(&first) + declined(&second),
        )
    };
    let (off_out, off_s, off_fired, _) = replay(bad.with_adaptive(false));
    let (on_out, on_s, on_fired, declined) = replay(bad.with_adaptive(true));
    assert_eq!(off_out, on_out);
    let improvement = (off_s / on_s - 1.0) * 100.0;
    eprintln!(
        "staged scenario: Eq (3) fired {on_fired} times over a BFS and its replay \
         and declined {declined} one-iteration firings (with adaptivity off: {off_fired})"
    );
    table.row(vec![
        "BFS×2-UK(rear)".to_string(),
        "1.00".to_string(),
        format!("{off_s:.4}s"),
        format!("{on_s:.4}s"),
        format!("{improvement:+.1}%"),
    ]);
    csv.row(vec![
        "BFSx2-UK-rear".to_string(),
        "1.00".to_string(),
        format!("{off_s:.6}"),
        format!("{on_s:.6}"),
        format!("{improvement:.2}"),
    ]);

    emit("ablation_adaptive", &table, &csv);
    println!(
        "Expectation: exactly 0% in one-shot runs (under-use is judged on whole\n\
         runs; the paper saw no triggers at its defaults either), and 0% in the\n\
         staged session too: the region that looks cold iteration by iteration\n\
         serves its share of the whole sweep. Eq (3) fires only when whole runs\n\
         miss the region (core::session's two-island unit test)."
    );
}
