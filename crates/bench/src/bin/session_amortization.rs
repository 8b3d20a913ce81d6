//! Extension study — amortizing the prestore across an analytics pipeline.
//!
//! Paper §4.3: "In practice, the Static Region can be reused throughout the
//! graph processing and benefits the reduction in data transfer." This
//! experiment quantifies that: a BFS → CC → PR pipeline over one
//! [`AsceticSession`] (prestore paid once) versus three independent
//! one-shot runs (prestore paid three times).

use ascetic_bench::fmt::Table;
use ascetic_bench::output::emit;
use ascetic_bench::run::PreparedDataset;
use ascetic_bench::setup::{run_algo, source_vertex, Algo, Env};
use ascetic_core::session::AsceticSession;
use ascetic_core::AsceticSystem;
use ascetic_graph::datasets::DatasetId;

fn main() {
    let env = Env::from_env();
    eprintln!("Extension: session amortization (scale 1/{})", env.scale);

    let mut table = Table::new(vec![
        "Dataset",
        "Pipeline",
        "Session time",
        "One-shot time",
        "Session xfer",
        "One-shot xfer",
        "Saved",
    ]);
    let mut csv = Table::new(vec![
        "dataset",
        "session_ns",
        "oneshot_ns",
        "session_bytes",
        "oneshot_bytes",
    ]);
    for id in [DatasetId::Fk, DatasetId::Uk] {
        let pd = PreparedDataset::build(&env, id);
        let g = pd.graph(Algo::Bfs); // unweighted pipeline
        let src = source_vertex(g);

        let mut session = AsceticSession::new(env.ascetic_cfg(), g);
        let mut s_ns = 0u64;
        let mut s_bytes = 0u64;
        for rep in [
            session.run(&ascetic_algos::Bfs::new(src)),
            session.run(&ascetic_algos::Cc::new()),
            session.run(&ascetic_algos::PageRank::new()),
        ] {
            s_ns += rep.sim_time_ns;
            s_bytes += rep.total_bytes_with_prestore();
        }

        let mut o_ns = 0u64;
        let mut o_bytes = 0u64;
        for algo in [Algo::Bfs, Algo::Cc, Algo::Pr] {
            let rep = run_algo(&AsceticSystem::new(env.ascetic_cfg()), g, algo);
            o_ns += rep.sim_time_ns;
            o_bytes += rep.total_bytes_with_prestore();
        }

        table.row(vec![
            id.abbr().to_string(),
            "BFS,CC,PR".to_string(),
            format!("{:.2}ms", s_ns as f64 / 1e6),
            format!("{:.2}ms", o_ns as f64 / 1e6),
            format!("{:.1}MB", s_bytes as f64 / 1e6),
            format!("{:.1}MB", o_bytes as f64 / 1e6),
            format!(
                "{:+.1}ms / {:+.1}MB",
                (o_ns as i64 - s_ns as i64) as f64 / 1e6,
                (o_bytes as i64 - s_bytes as i64) as f64 / 1e6
            ),
        ]);
        csv.row(vec![
            id.abbr().to_string(),
            s_ns.to_string(),
            o_ns.to_string(),
            s_bytes.to_string(),
            o_bytes.to_string(),
        ]);
    }
    emit("session_amortization", &table, &csv);
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
