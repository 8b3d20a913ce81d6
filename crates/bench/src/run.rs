//! The one runner: a list of (algorithm, dataset) cells × a list of system
//! variants → one [`RunReport`] per pair, answers cross-checked.
//!
//! Every table, figure and sweep is a cell list fed through
//! [`Ctx::sweep`]; datasets are built once per process (FK' once, not
//! once per experiment), and the paper's 16-cell grid is run once per
//! system however many experiments read it.

use std::rc::Rc;

use ascetic_baselines::AnySystem;
use ascetic_core::{AsceticConfig, AsceticSystem, OutOfCoreSystem, RunReport};
use ascetic_graph::datasets::{Dataset, DatasetId};
use ascetic_graph::Csr;
use ascetic_obs::json::Object;

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

/// Run every variant of one cell on `g`, with progress to stderr; every
/// variant must give variant 0's answer exactly.
pub fn run_cell(env: &Env, algo: Algo, on: &str, g: &Csr, variants: &[Variant]) -> Vec<RunReport> {
    let reports: Vec<RunReport> = variants
        .iter()
        .map(|(name, system)| {
            eprintln!("  running {name} / {} / {on} ...", algo.display());
            if let Err(e) = system.prepare(g) {
                panic!("{name} refuses {} / {on}: {e}", algo.display());
            }
            let rep = run_algo(system, g, algo);
            env.maybe_write_trace(&rep, &format!("{name}_{}_{on}", algo.display()));
            rep
        })
        .collect();
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
/// datasets, the paper-grid reports and the checks recorded so far.
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
    paper_grid: Vec<(Sys, Vec<Cell>)>,
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
            paper_grid: Vec::new(),
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

    /// Run `variants` on every cell of `cells`.
    pub fn sweep(&mut self, cells: &[(Algo, DatasetId)], variants: &[Variant]) -> Vec<Cell> {
        cells
            .iter()
            .map(|&(algo, dataset)| {
                let graph = Rc::clone(self.dataset(dataset).graph(algo));
                let reports = run_cell(&self.env, algo, dataset.abbr(), &graph, variants);
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
    /// `systems`, each system run at most once per process: Tables 4 and
    /// 5 and Figures 7 and 9 are four readings of the same runs.
    pub fn paper_grid(&mut self, systems: &[Sys]) -> Vec<Cell> {
        let cells = grid(&TABLE4_ORDER, &DatasetId::ALL);
        for &sys in systems {
            if self.paper_grid.iter().any(|(s, _)| *s == sys) {
                continue;
            }
            let variant = (sys.name().to_string(), self.env.system(sys));
            let column = self.sweep(&cells, &[variant]);
            if let Some((first, seen)) = self.paper_grid.first() {
                for (c, s) in column.iter().zip(seen) {
                    assert!(
                        c.reports[0].output == s.reports[0].output,
                        "{} and {} disagree on {}",
                        sys.name(),
                        first.name(),
                        c.label()
                    );
                }
            }
            self.paper_grid.push((sys, column));
        }
        let column = |sys: Sys| {
            let found = self.paper_grid.iter().find(|(s, _)| *s == sys);
            &found.expect("run above").1
        };
        let one = |sys: Sys, i: usize| column(sys)[i].reports[0].clone();
        let cell = |(i, c): (usize, &Cell)| Cell {
            algo: c.algo,
            dataset: c.dataset,
            graph: Rc::clone(&c.graph),
            reports: systems.iter().map(|&s| one(s, i)).collect(),
        };
        column(systems[0]).iter().enumerate().map(cell).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn paper_grid_runs_each_system_once_and_serves_any_subset() {
        let mut r = Ctx::new(Env::with_scale(50_000), true);
        let both = r.paper_grid(&[Sys::Subway, Sys::Ascetic]);
        assert_eq!(both.len(), 16);
        let again = r.paper_grid(&[Sys::Ascetic]);
        assert_eq!(r.paper_grid.len(), 2, "a cached system is not re-run");
        assert_eq!(
            again[5].reports[0].sim_time_ns,
            both[5].reports[1].sim_time_ns
        );
        assert_eq!(again[5].label(), both[5].label());
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
