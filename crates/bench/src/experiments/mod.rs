//! The experiment table: every paper table and figure, §5 study, ablation
//! and sweep is one entry, and [`run`] is the only thing that executes
//! them.

pub mod paper;
pub mod serving;
pub mod studies;
pub mod sweeps;

use crate::output::checks_markdown;
use crate::run::Ctx;
use crate::setup::Env;

/// One reproducible result.
pub struct Experiment {
    /// What `ascetic-bench <id>` runs; also the stem of its CSV.
    pub id: &'static str,
    /// Where the result sits in the paper, or what it extends.
    pub paper: &'static str,
    /// One line on what is measured.
    pub what: &'static str,
    /// Runs the cells and emits tables, CSV, JSON and checks.
    pub run: fn(&mut Ctx),
}

/// One row per experiment: `id  paper  function  "what"`.
macro_rules! experiments {
    ($($id:literal $paper:literal $run:path => $what:literal;)*) => {
        [$(Experiment { id: $id, paper: $paper, what: $what, run: $run }),*]
    };
}

/// Every experiment, in `ascetic-bench all` order.
pub const EXPERIMENTS: &[Experiment] = &experiments! {
    "table1_active_edges"    "Table 1"            paper::table1 => "average % of active edges per iteration (FK, UK)";
    "table2_memory_usage"    "Table 2"            paper::table2 => "Subway's per-iteration device payload vs capacity (FK, UK)";
    "table3_datasets"        "Table 3"            paper::table3 => "the paper's catalog beside the scaled stand-ins";
    "table4_performance"     "Table 4"            paper::table4 => "PT time, Subway / Ascetic speedups over PT, 16 cells";
    "table5_data_transfer"   "Table 5"            paper::table5 => "bytes moved / dataset size for PT, Subway, Ascetic, 16 cells";
    "fig2_access_patterns"   "Figure 2"           paper::fig2 => "chunk-granularity access patterns of traced UVM runs on FK";
    "fig7_vs_subway"         "Figure 7"           paper::fig7 => "speedup and transfer volume against Subway, 16 cells";
    "fig8_breakdown"         "Figure 8"           paper::fig8 => "static / overlap / prefetch savings against Subway, 16 cells";
    "fig9_vs_uvm"            "Figure 9"           paper::fig9 => "speedup and transfer volume against UVM, 16 cells";
    "fig10_ratio_sweep"      "Figure 10"          paper::fig10 => "static-region ratio 0..1 on FK, time by component";
    "fig11_memory_sweep"     "Figure 11 (left)"   paper::fig11_memory => "GPU memory at 35-87 % of FK against Subway";
    "fig11_rmat_sweep"       "Figure 11 (right)"  paper::fig11_rmat => "R-MAT graphs of 2.5-12 B paper edges against Subway";
    "disc_fill_policy"       "§5"                 studies::fill_policy => "front / rear / random fill of the static region on FK";
    "motivation_stats"       "§1-§2"              studies::motivation => "UVM transfer amplification and Subway GPU idle on FK";
    "ablation_chunk_size"    "§3.4 (extension)"   studies::chunk_size => "2-64 KiB chunks on FK";
    "ablation_k_sweep"       "Eq (2) (extension)" studies::k_sweep => "K from 2 % to 45 % on FK";
    "ablation_double_buffer" "extension"          studies::double_buffer => "1 / 2 / 4 on-demand buffers on FS";
    "ablation_relabel"       "§5 (extension)"     studies::relabel => "degree-descending relabeling under a front fill on FK";
    "ablation_cost_model"    "extension"          studies::cost_model => "gather bandwidth and kernel rate swept around the P100 point";
    "session_amortization"   "§4.3 (extension)"   studies::session_amortization => "BFS, CC, PR over one session against three one-shot runs";
    "compression"            "extension"          sweeps::compression => "compression off / always / adaptive, 16 cells -> BENCH_compression.json";
    "prefetch"               "extension"          sweeps::prefetch => "prefetch off / next-frontier, 16 cells -> BENCH_prefetch.json";
    "direction"              "extension"          sweeps::direction => "push / pull / adaptive x compression, 12 cells -> BENCH_direction.json";
    "serve"                  "extension"          serving::serve => "48-job trace under fifo / sjf / residency -> BENCH_serve.json";
    "fleet"                  "extension"          serving::fleet => "serving and sharded runs on 1-8 NVLink devices -> BENCH_fleet.json";
    "incremental_repair"     "extension"          serving::incremental_repair => "patch + repair against teardown + recompute -> BENCH_incremental.json";
};

/// The table as `--list` prints it.
pub fn list() -> String {
    let line = |e: &Experiment| format!("{:<24}{:<20}{}\n", e.id, e.paper, e.what);
    EXPERIMENTS.iter().map(line).collect()
}

/// Run `experiments` in order in one shared [`Ctx`]; each one's checks are
/// printed after its own output. Returns the context, checks included.
pub fn run(experiments: &[&Experiment], env: Env, smoke: bool) -> Ctx {
    let mut cx = Ctx::new(env, smoke);
    for e in experiments {
        eprintln!(
            "== {} — {}: {} (scale 1/{})",
            e.id, e.paper, e.what, cx.env.scale
        );
        cx.id = e.id;
        let seen = cx.checks.len();
        (e.run)(&mut cx);
        if cx.checks.len() > seen {
            println!("{}", checks_markdown(&cx.checks[seen..]));
        }
    }
    cx
}

/// Exit status for a finished run: failing checks are fatal at full scale
/// and recorded only under `--smoke`.
pub fn exit_code(cx: &Ctx) -> i32 {
    let failed: Vec<_> = cx.checks.iter().filter(|c| !c.ok).collect();
    for c in &failed {
        let level = if cx.smoke { "warning" } else { "FAILED" };
        eprintln!(
            "{level}: {} — {}: {} (bound {})",
            c.experiment, c.name, c.measured, c.bound
        );
    }
    i32::from(!cx.smoke && !failed.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn failing(cx: &mut Ctx) {
        println!("output of the failing experiment");
        cx.check("always fails", "1".into(), "< 1", false);
    }

    fn after(cx: &mut Ctx) {
        cx.check("still runs", "0".into(), "< 1", true);
    }

    #[test]
    fn a_failing_check_is_recorded_under_smoke_and_fatal_after_all_output_without_it() {
        let table = experiments! {
            "failing" "-" failing => "-";
            "after" "-" after => "-";
        };
        let both: Vec<&Experiment> = table.iter().collect();
        for (smoke, code) in [(true, 0), (false, 1)] {
            let cx = run(&both, Env::with_scale(50_000), smoke);
            // the failure stops nothing: the later experiment still ran
            let seen: Vec<_> = cx.checks.iter().map(|c| (c.experiment, c.ok)).collect();
            assert_eq!(seen, [("failing", false), ("after", true)]);
            assert_eq!(exit_code(&cx), code, "smoke = {smoke}");
        }
    }

    #[test]
    fn ids_are_unique() {
        let mut ids: Vec<_> = EXPERIMENTS.iter().map(|e| e.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), EXPERIMENTS.len());
    }
}
