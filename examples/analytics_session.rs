//! Amortizing the static region across an analytics pipeline.
//!
//! ```text
//! cargo run --release --example analytics_session
//! ```
//!
//! The paper (§4.3): "In practice, the Static Region can be reused
//! throughout the graph processing". A realistic analytics job runs several
//! algorithms over the same graph — here BFS (reachability), CC
//! (components), label propagation (communities) and PageRank (ranking) —
//! and an [`AsceticSession`] pays the prestore exactly once.

use ascetic::algos::{Bfs, Cc, LabelPropagation, PageRank};
use ascetic::core::session::AsceticSession;
use ascetic::core::{AsceticConfig, AsceticSystem, OutOfCoreSystem};
use ascetic::graph::generators::{social_graph, SocialConfig};
use ascetic::sim::DeviceConfig;

fn main() {
    println!("building graph ...");
    let g = social_graph(&SocialConfig::new(120_000, 2_400_000, 13));
    let device = DeviceConfig::p100(g.num_vertices() as u64 * 24 + g.edge_bytes() / 2);
    println!(
        "graph: {} vertices, {} edges ({:.1} MB); device {:.1} MB\n",
        g.num_vertices(),
        g.num_edges(),
        g.edge_bytes() as f64 / 1e6,
        device.mem_bytes as f64 / 1e6
    );

    // --- pipeline via one session: prestore paid once -------------------
    let mut session = AsceticSession::new(AsceticConfig::new(device), &g);
    println!(
        "{:<10} {:>10} {:>12} {:>12} {:>10}",
        "step", "time", "steady xfer", "prestore", "static hit"
    );
    let mut session_total_ns = 0u64;
    let mut session_total_bytes = 0u64;
    let hub = (0..g.num_vertices() as u32)
        .max_by_key(|&v| g.degree(v))
        .unwrap();
    macro_rules! step {
        ($name:expr, $prog:expr) => {{
            let rep = session.run(&$prog);
            let static_edges: u64 = rep.per_iter.iter().map(|i| i.static_edges).sum();
            let total: u64 = rep.per_iter.iter().map(|i| i.active_edges).sum();
            println!(
                "{:<10} {:>8.2}ms {:>10.2}MB {:>10.2}MB {:>9.1}%",
                $name,
                rep.sim_time_ns as f64 / 1e6,
                rep.steady_bytes() as f64 / 1e6,
                rep.prestore_bytes as f64 / 1e6,
                static_edges as f64 / total.max(1) as f64 * 100.0
            );
            session_total_ns += rep.sim_time_ns;
            session_total_bytes += rep.total_bytes_with_prestore();
        }};
    }
    step!("bfs", Bfs::new(hub));
    step!("cc", Cc::new());
    step!("lp", LabelPropagation::new());
    step!("pagerank", PageRank::new());

    // --- the same pipeline as four independent one-shot runs ------------
    let mut oneshot_total_ns = 0u64;
    let mut oneshot_total_bytes = 0u64;
    macro_rules! oneshot {
        ($prog:expr) => {{
            let rep = AsceticSystem::new(AsceticConfig::new(device)).run(&g, &$prog);
            oneshot_total_ns += rep.sim_time_ns;
            oneshot_total_bytes += rep.total_bytes_with_prestore();
        }};
    }
    oneshot!(Bfs::new(hub));
    oneshot!(Cc::new());
    oneshot!(LabelPropagation::new());
    oneshot!(PageRank::new());

    println!(
        "\npipeline totals: session {:.2} ms / {:.1} MB  vs  four one-shots {:.2} ms / {:.1} MB",
        session_total_ns as f64 / 1e6,
        session_total_bytes as f64 / 1e6,
        oneshot_total_ns as f64 / 1e6,
        oneshot_total_bytes as f64 / 1e6,
    );
    println!(
        "amortization saved {:.2} ms and {:.1} MB of prestore traffic ({} runs, 1 prestore)",
        (oneshot_total_ns - session_total_ns) as f64 / 1e6,
        (oneshot_total_bytes - session_total_bytes) as f64 / 1e6,
        session.runs()
    );
}
