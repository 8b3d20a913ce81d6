//! The one runner: a list of (algorithm, dataset) cells × a list of system
//! variants → one [`RunReport`] per pair, answers cross-checked.
//!
//! Every table, figure and sweep is a cell list fed through
//! [`Ctx::sweep`]; datasets are built once per process (FK' once, not
//! once per experiment), and each (algorithm, dataset, system) is run once
//! per process however many experiments read it.

use std::collections::HashMap;
use std::rc::Rc;

use ascetic_baselines::{AnySystem, SubwaySystem};
use ascetic_core::{AsceticConfig, AsceticSystem, OutOfCoreSystem, RunReport};
use ascetic_graph::datasets::{Dataset, DatasetId};
use ascetic_graph::Csr;
use ascetic_obs::json::Object;
use ascetic_sim::DeviceConfig;

use crate::output::{write_json, Check};
use crate::setup::{run_algo, Algo, Env, TABLE4_ORDER};

/// One cell's results.
pub struct Cell {
    /// Algorithm.
    pub algo: Algo,
    /// Dataset.
    pub dataset: DatasetId,
    /// The graph variant the algorithm ran on.
    pub graph: Rc<Csr>,
    /// Reports per variant, in the order requested.
    pub reports: Vec<RunReport>,
}

impl Cell {
    /// `ALGO-DS`, the paper's workload label.
    pub fn label(&self) -> String {
        format!("{}-{}", self.algo.display(), self.dataset.abbr())
    }
}

/// The four systems of the paper's evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sys {
    /// Partition-based baseline.
    Pt,
    /// Subway baseline.
    Subway,
    /// UVM baseline.
    Uvm,
    /// Ascetic (paper defaults).
    Ascetic,
}

impl Sys {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Sys::Pt => "PT",
            Sys::Subway => "Subway",
            Sys::Uvm => "UVM",
            Sys::Ascetic => "Ascetic",
        }
    }
}

/// One column of a sweep: a named system (a baseline, or Ascetic under
/// some configuration edit).
pub type Variant = (String, AnySystem);

/// An Ascetic variant under `cfg`.
pub fn ascetic(name: impl Into<String>, cfg: AsceticConfig) -> Variant {
    (name.into(), AsceticSystem::new(cfg).into())
}

/// Subway and Ascetic under paper defaults on `device` (another memory size
/// or cost model than the environment's), as `subway{tag}` /
/// `ascetic{tag}`.
pub fn pair_on(env: &Env, device: DeviceConfig, tag: &str) -> [Variant; 2] {
    let subway = SubwaySystem {
        device,
        ..env.subway()
    };
    let cfg = AsceticConfig {
        device,
        ..env.ascetic_cfg()
    };
    [
        (format!("subway{tag}"), subway.into()),
        ascetic(format!("ascetic{tag}"), cfg),
    ]
}

/// `algos × datasets`, algorithm-major (the paper's table order).
pub fn grid(algos: &[Algo], datasets: &[DatasetId]) -> Vec<(Algo, DatasetId)> {
    let cell = |&a| datasets.iter().map(move |&d| (a, d));
    algos.iter().flat_map(cell).collect()
}

/// Materialized dataset with both graph variants (unweighted + weighted),
/// so the weighted build happens once.
pub struct PreparedDataset {
    /// Dataset identity.
    pub id: DatasetId,
    /// Unweighted graph.
    pub unweighted: Rc<Csr>,
    /// Weighted variant (SSSP).
    pub weighted: Rc<Csr>,
}

impl PreparedDataset {
    /// Build from the environment.
    pub fn build(env: &Env, id: DatasetId) -> PreparedDataset {
        let ds: Dataset = env.dataset(id);
        let weighted = Rc::new(ds.weighted());
        PreparedDataset {
            id,
            unweighted: Rc::new(ds.graph),
            weighted,
        }
    }

    /// The variant `algo` needs.
    pub fn graph(&self, algo: Algo) -> &Rc<Csr> {
        if algo.weighted() {
            &self.weighted
        } else {
            &self.unweighted
        }
    }
}

/// The runs of one cell so far: each system with the report it gave.
pub type Memo = Vec<(AnySystem, RunReport)>;

/// Run every variant of one cell on `g`, with progress to stderr: a system
/// `memo` holds is served from it, any other is run and added to it. Every
/// variant writes its trace under its own name and must give variant 0's
/// answer exactly.
pub fn run_cell(
    env: &Env,
    algo: Algo,
    on: &str,
    g: &Csr,
    variants: &[Variant],
    memo: &mut Memo,
) -> Vec<RunReport> {
    let mut report = |(name, system): &Variant| {
        let rep = match memo.iter().find(|(seen, _)| seen == system) {
            Some((_, rep)) => rep.clone(),
            None => {
                eprintln!("  running {name} / {} / {on} ...", algo.display());
                if let Err(e) = system.prepare(g) {
                    panic!("{name} refuses {} / {on}: {e}", algo.display());
                }
                let rep = run_algo(system, g, algo);
                memo.push((system.clone(), rep.clone()));
                rep
            }
        };
        env.maybe_write_trace(&rep, &format!("{name}_{}_{on}", algo.display()));
        rep
    };
    let reports: Vec<RunReport> = variants.iter().map(&mut report).collect();
    for (r, (name, _)) in reports.iter().zip(variants).skip(1) {
        assert!(
            r.output == reports[0].output,
            "{name} and {} disagree on {} / {on}",
            variants[0].0,
            algo.display()
        );
    }
    reports
}

/// What the experiments of one process share: the environment, the built
/// datasets, every run so far and the checks recorded so far.
pub struct Ctx {
    /// The scaled environment every experiment of this process runs in.
    pub env: Env,
    /// `--smoke`: scale 1/50 000, checks recorded but never fatal.
    pub smoke: bool,
    /// The experiment currently running (stamped on its checks).
    pub id: &'static str,
    /// Every check recorded so far, in order.
    pub checks: Vec<Check>,
    datasets: Vec<Rc<PreparedDataset>>,
    runs: HashMap<(Algo, DatasetId), Memo>,
}

impl Ctx {
    /// A context over `env` with nothing built or checked yet.
    pub fn new(env: Env, smoke: bool) -> Ctx {
        Ctx {
            env,
            smoke,
            id: "",
            checks: Vec::new(),
            datasets: Vec::new(),
            runs: HashMap::new(),
        }
    }

    /// Record that `name` was measured at `measured` against `bound`.
    pub fn check(&mut self, name: &str, measured: String, bound: &str, ok: bool) {
        self.checks.push(Check {
            experiment: self.id,
            name: name.into(),
            measured,
            bound: bound.into(),
            ok,
        });
    }

    /// Record that nothing may be in `offenders` (cells that lost, grew,
    /// slowed down): the measurement is the list itself.
    pub fn check_none(&mut self, name: &str, offenders: &[String]) {
        let measured = match offenders {
            [] => "none".to_string(),
            some => some.join(", "),
        };
        self.check(name, measured, "none", offenders.is_empty());
    }

    /// Write `BENCH_<bench>.json`: this run's `smoke` flag and scale, then
    /// the members `body` writes.
    pub fn write_json(&self, bench: &str, body: impl FnOnce(&mut Object<'_>)) {
        write_json(bench, self.smoke, |o| {
            o.num("scale", self.env.scale);
            body(o);
        });
    }

    /// The stand-in for `id`, built on first use.
    pub fn dataset(&mut self, id: DatasetId) -> Rc<PreparedDataset> {
        if let Some(pd) = self.datasets.iter().find(|pd| pd.id == id) {
            return Rc::clone(pd);
        }
        self.datasets
            .push(Rc::new(PreparedDataset::build(&self.env, id)));
        Rc::clone(self.datasets.last().expect("just pushed"))
    }

    /// Run `variants` on every cell of `cells`, each (algorithm, dataset,
    /// system) at most once per process.
    pub fn sweep(&mut self, cells: &[(Algo, DatasetId)], variants: &[Variant]) -> Vec<Cell> {
        cells
            .iter()
            .map(|&(algo, dataset)| {
                let graph = Rc::clone(self.dataset(dataset).graph(algo));
                let memo = self.runs.entry((algo, dataset)).or_default();
                let reports = run_cell(&self.env, algo, dataset.abbr(), &graph, variants, memo);
                Cell {
                    algo,
                    dataset,
                    graph,
                    reports,
                }
            })
            .collect()
    }

    /// The paper's 16-cell grid (Table 4 order × all datasets) under
    /// `systems`: Tables 2, 4 and 5 and Figures 7 and 9 are readings of the
    /// same runs.
    pub fn paper_grid(&mut self, systems: &[Sys]) -> Vec<Cell> {
        let variant = |&s: &Sys| (s.name().to_string(), self.env.system(s));
        let variants: Vec<Variant> = systems.iter().map(variant).collect();
        self.sweep(&grid(&TABLE4_ORDER, &DatasetId::ALL), &variants)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ascetic_core::CompressionMode;

    #[test]
    fn sweep_runs_and_cross_checks() {
        let mut r = Ctx::new(Env::with_scale(50_000), true);
        let variants = [Sys::Subway, Sys::Ascetic].map(|s| (s.name().to_string(), r.env.system(s)));
        let cells = r.sweep(&grid(&[Algo::Bfs], &[DatasetId::Gs]), &variants);
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].reports.len(), 2);
        assert_eq!(cells[0].reports[0].system, "Subway");
        assert_eq!(cells[0].reports[1].system, "Ascetic");
    }

    const BFS_GS: (Algo, DatasetId) = (Algo::Bfs, DatasetId::Gs);

    #[test]
    fn a_system_asked_under_two_names_runs_once_and_traces_under_both() {
        let dir = std::env::temp_dir().join(format!("ascetic-memo-{}", std::process::id()));
        let mut r = Ctx::new(
            Env {
                scale: 50_000,
                trace: Some(dir.clone()),
            },
            true,
        );
        let (a, b) = (r.env.system(Sys::Ascetic), r.env.ascetic());
        let first = r.sweep(&[BFS_GS], &[("a".into(), a)]);
        let again = r.sweep(&[BFS_GS], &[("b".into(), b.into())]);
        assert_eq!(r.runs[&BFS_GS].len(), 1, "the repeat is served, not re-run");
        let time = |cells: &[Cell]| cells[0].reports[0].sim_time_ns;
        assert_eq!(time(&again), time(&first));
        for name in ["a", "b"] {
            let trace = dir.join(format!("{name}_BFS_GS.json"));
            assert!(trace.is_file(), "{} not written", trace.display());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn systems_that_differ_in_one_field_never_share_a_run() {
        let mut r = Ctx::new(Env::with_scale(50_000), true);
        let (cfg, subway) = (r.env.ascetic_cfg(), r.env.subway());
        let compressed = subway.clone().with_compression(CompressionMode::Adaptive);
        let pairs: [[Variant; 2]; 2] = [
            [ascetic("x1", cfg), ascetic("x2", cfg.with_od_buffers(2))],
            [
                ("off".into(), subway.into()),
                ("on".into(), compressed.into()),
            ],
        ];
        for (n, [one, other]) in pairs.into_iter().enumerate() {
            assert!(one.1 != other.1, "{} == {}", one.0, other.0);
            r.sweep(&[BFS_GS], &[one]);
            r.sweep(&[BFS_GS], &[other]);
            assert_eq!(r.runs[&BFS_GS].len(), 2 * (n + 1), "{n}: a false hit");
        }
    }

    #[test]
    fn prepared_dataset_shares_structure() {
        let env = Env::with_scale(50_000);
        let pd = PreparedDataset::build(&env, DatasetId::Fk);
        assert_eq!(pd.unweighted.num_edges(), pd.weighted.num_edges());
        assert!(pd.graph(Algo::Sssp).is_weighted());
        assert!(!pd.graph(Algo::Pr).is_weighted());
    }
}
