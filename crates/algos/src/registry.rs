//! The one list of shipped algorithms.
//!
//! [`Algo`] is the single source of truth for what this workspace can run:
//! the CLI parses `--algo` through its [`std::str::FromStr`], the serve
//! layer's trace parser and job admission consult its metadata, and the
//! bench harness builds its tables from it. Adding an algorithm means
//! adding a variant here (plus its program module) — every entry point
//! picks it up.
//!
//! [`AnyProgram`] is the type-erased instantiation: a closed enum over the
//! concrete programs, itself implementing [`VertexProgram`] by
//! delegation, so monomorphic engines (`session.run`, `run_fleet`, the
//! baselines) can execute a runtime-chosen algorithm without dynamic
//! dispatch or per-call generics at the call site.

use ascetic_graph::{Csr, GraphPatch, VertexId};
use ascetic_par::{AtomicBitmap, Bitmap};

use crate::betweenness::{BcState, Betweenness};
use crate::bfs::{Bfs, BfsState};
use crate::cc::{Cc, CcState};
use crate::incremental::RepairPlan;
use crate::lp::{LabelPropagation, LpState};
use crate::pr::{PageRank, PrState};
use crate::sssp::{Sssp, SsspState};
use crate::traits::{AlgoError, AlgoOutput, Capabilities, EdgeSlice, VertexProgram};

/// Every algorithm the workspace ships, by CLI name.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Algo {
    /// Breadth-first search (`bfs`).
    Bfs,
    /// Single-source shortest paths (`sssp`).
    Sssp,
    /// Weakly connected components (`cc`).
    Cc,
    /// Residual PageRank (`pr`).
    Pr,
    /// Label-propagation community detection (`lp`).
    Lp,
    /// Brandes betweenness centrality (`bc`).
    Bc,
}

impl Algo {
    /// All shipped algorithms, in declaration order (`Algo::ALL[i] as
    /// usize == i`, which serve's cost model indexes by): the paper's four
    /// first, extensions after.
    pub const ALL: [Algo; 6] = [
        Algo::Bfs,
        Algo::Sssp,
        Algo::Cc,
        Algo::Pr,
        Algo::Lp,
        Algo::Bc,
    ];

    /// Canonical lowercase CLI/trace name.
    pub fn name(self) -> &'static str {
        match self {
            Algo::Bfs => "bfs",
            Algo::Sssp => "sssp",
            Algo::Cc => "cc",
            Algo::Pr => "pr",
            Algo::Lp => "lp",
            Algo::Bc => "bc",
        }
    }

    /// Human/report display name (matches the program's
    /// [`VertexProgram::name`]).
    pub fn display(self) -> &'static str {
        match self {
            Algo::Bfs => "BFS",
            Algo::Sssp => "SSSP",
            Algo::Cc => "CC",
            Algo::Pr => "PR",
            Algo::Lp => "LP",
            Algo::Bc => "BC",
        }
    }

    /// Capability descriptor of the algorithm's program (metadata is
    /// parameter-independent, so a throwaway instantiation answers for
    /// all).
    pub fn capabilities(self) -> Capabilities {
        self.program(&ProgramOpts::default()).capabilities()
    }

    /// Whether the program reads edge weights (wants the weighted graph
    /// variant).
    pub fn weighted(self) -> bool {
        self.capabilities().weights
    }

    /// Whether the program may be scheduled in pull/adaptive direction.
    pub fn pull(self) -> bool {
        self.capabilities().pull
    }

    /// Whether the program is rooted at one source vertex (`--source`
    /// applies; serve jobs carry a per-job source).
    pub fn single_source(self) -> bool {
        matches!(self, Algo::Bfs | Algo::Sssp | Algo::Bc)
    }

    /// Instantiate the program for a run over `g`, rooted at `source`. A
    /// `source` that is no vertex of `g` is the typed error the program
    /// constructors would otherwise panic on mid-run.
    pub fn program_on(self, g: &Csr, source: VertexId) -> Result<AnyProgram, AlgoError> {
        let vertices = g.num_vertices();
        if source as usize >= vertices {
            return Err(AlgoError::SourceOutOfRange { source, vertices });
        }
        Ok(self.program(&ProgramOpts::from_source(source)))
    }

    /// Instantiate the program with `opts`.
    pub fn program(self, opts: &ProgramOpts) -> AnyProgram {
        match self {
            Algo::Bfs => AnyProgram::Bfs(Bfs::new(opts.source)),
            Algo::Sssp => AnyProgram::Sssp(Sssp::new(opts.source)),
            Algo::Cc => AnyProgram::Cc(Cc::new()),
            Algo::Pr => AnyProgram::Pr(PageRank::new()),
            Algo::Lp => AnyProgram::Lp(LabelPropagation::new()),
            Algo::Bc => AnyProgram::Bc(Betweenness::new(opts.source)),
        }
    }
}

impl std::fmt::Display for Algo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Error for an unrecognized algorithm name, listing what is accepted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnknownAlgo(pub String);

impl std::fmt::Display for UnknownAlgo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown algorithm '{}' (expected one of: ", self.0)?;
        for (i, a) in Algo::ALL.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            f.write_str(a.name())?;
        }
        f.write_str(")")
    }
}

impl std::error::Error for UnknownAlgo {}

impl std::str::FromStr for Algo {
    type Err = UnknownAlgo;
    fn from_str(s: &str) -> Result<Self, UnknownAlgo> {
        Algo::ALL
            .iter()
            .copied()
            .find(|a| a.name() == s)
            .ok_or_else(|| UnknownAlgo(s.to_string()))
    }
}

/// Instantiation parameters for [`Algo::program`]. Whole-graph programs
/// ignore the source.
#[derive(Clone, Debug, Default)]
pub struct ProgramOpts {
    /// Root vertex for single-source programs.
    pub source: VertexId,
}

impl ProgramOpts {
    /// Opts for a single-source run from `source`.
    pub fn from_source(source: VertexId) -> Self {
        ProgramOpts { source }
    }
}

/// A runtime-chosen program: closed enum over every registered algorithm,
/// delegating [`VertexProgram`] to the wrapped concrete program.
///
/// The delegation is by hand, and a default-bodied trait hook that is not
/// forwarded here still compiles — the wrapped program's override is then
/// silently dropped. Every hook added to [`VertexProgram`] must be forwarded
/// below; `any_program_matches_concrete_program` runs every registered
/// algorithm both ways to catch one that is not.
#[allow(missing_docs)] // variants mirror `Algo` one-to-one
pub enum AnyProgram {
    Bfs(Bfs),
    Sssp(Sssp),
    Cc(Cc),
    Pr(PageRank),
    Lp(LabelPropagation),
    Bc(Betweenness),
}

/// State for [`AnyProgram`] — the wrapped program's state, same variant.
#[allow(missing_docs)] // variants mirror `Algo` one-to-one
pub enum AnyState {
    Bfs(BfsState),
    Sssp(SsspState),
    Cc(CcState),
    Pr(PrState),
    Lp(LpState),
    Bc(BcState),
}

/// Delegate an expression to the wrapped program (no state involved).
macro_rules! each {
    ($self:expr, $p:ident => $e:expr) => {
        match $self {
            AnyProgram::Bfs($p) => $e,
            AnyProgram::Sssp($p) => $e,
            AnyProgram::Cc($p) => $e,
            AnyProgram::Pr($p) => $e,
            AnyProgram::Lp($p) => $e,
            AnyProgram::Bc($p) => $e,
        }
    };
}

/// Delegate an expression that also needs the matching state variant.
/// A variant mismatch means the state came from a *different* program —
/// a driver bug, so it panics loudly.
macro_rules! each_with_state {
    ($self:expr, $state:expr, $p:ident, $s:ident => $e:expr) => {
        match ($self, $state) {
            (AnyProgram::Bfs($p), AnyState::Bfs($s)) => $e,
            (AnyProgram::Sssp($p), AnyState::Sssp($s)) => $e,
            (AnyProgram::Cc($p), AnyState::Cc($s)) => $e,
            (AnyProgram::Pr($p), AnyState::Pr($s)) => $e,
            (AnyProgram::Lp($p), AnyState::Lp($s)) => $e,
            (AnyProgram::Bc($p), AnyState::Bc($s)) => $e,
            _ => unreachable!("AnyState does not belong to this AnyProgram"),
        }
    };
}

impl VertexProgram for AnyProgram {
    type State = AnyState;

    fn name(&self) -> &'static str {
        each!(self, p => p.name())
    }

    fn capabilities(&self) -> Capabilities {
        each!(self, p => p.capabilities())
    }

    fn new_state(&self, g: &Csr) -> AnyState {
        match self {
            AnyProgram::Bfs(p) => AnyState::Bfs(p.new_state(g)),
            AnyProgram::Sssp(p) => AnyState::Sssp(p.new_state(g)),
            AnyProgram::Cc(p) => AnyState::Cc(p.new_state(g)),
            AnyProgram::Pr(p) => AnyState::Pr(p.new_state(g)),
            AnyProgram::Lp(p) => AnyState::Lp(p.new_state(g)),
            AnyProgram::Bc(p) => AnyState::Bc(p.new_state(g)),
        }
    }

    fn initial_frontier(&self, g: &Csr) -> Bitmap {
        each!(self, p => p.initial_frontier(g))
    }

    fn compute(&self, iteration: u32, active: &Bitmap, state: &AnyState) {
        each_with_state!(self, state, p, s => p.compute(iteration, active, s))
    }

    fn advance_push(
        &self,
        lane: usize,
        src: VertexId,
        edges: EdgeSlice<'_>,
        state: &AnyState,
        next: &AtomicBitmap,
    ) {
        each_with_state!(self, state, p, s => p.advance_push(lane, src, edges, s, next))
    }

    fn settle(&self, state: &AnyState, next: &AtomicBitmap) {
        each_with_state!(self, state, p, s => p.settle(s, next))
    }

    fn pull_targets_into(&self, g: &Csr, active: &Bitmap, state: &AnyState, out: &mut Bitmap) {
        each_with_state!(self, state, p, s => p.pull_targets_into(g, active, s, out))
    }

    fn advance_pull(
        &self,
        v: VertexId,
        in_edges: EdgeSlice<'_>,
        active: &Bitmap,
        state: &AnyState,
        next: &AtomicBitmap,
    ) -> u64 {
        each_with_state!(self, state, p, s => p.advance_pull(v, in_edges, active, s, next))
    }

    fn retain(&self, v: VertexId, state: &AnyState) -> bool {
        each_with_state!(self, state, p, s => p.retain(v, s))
    }

    fn next_phase(&self, finished: u32, g: &Csr, state: &AnyState) -> Option<Bitmap> {
        each_with_state!(self, state, p, s => p.next_phase(finished, g, s))
    }

    fn output(&self, state: &AnyState) -> AlgoOutput {
        each_with_state!(self, state, p, s => p.output(s))
    }

    fn max_iterations(&self) -> u32 {
        each!(self, p => p.max_iterations())
    }

    fn repair(
        &self,
        g_old: &Csr,
        g_new: &Csr,
        csc_new: Option<&Csr>,
        patch: &GraphPatch,
        state: &AnyState,
    ) -> RepairPlan {
        each_with_state!(self, state, p, s => p.repair(g_old, g_new, csc_new, patch, s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inmemory::run_in_memory;
    use crate::reference::pagerank_reference;
    use ascetic_graph::datasets::weighted_variant;
    use ascetic_graph::generators::uniform_graph;

    #[test]
    fn names_round_trip() {
        for a in Algo::ALL {
            assert_eq!(a.name().parse::<Algo>().unwrap(), a);
            assert_eq!(a.to_string(), a.name());
        }
        let err = "pagerank".parse::<Algo>().unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("pagerank") && msg.contains("bfs") && msg.contains("bc"),
            "{msg}"
        );
    }

    #[test]
    fn metadata_is_consistent() {
        assert!(Algo::Sssp.weighted() && !Algo::Bfs.weighted());
        assert!(Algo::Bfs.pull() && Algo::Cc.pull() && Algo::Pr.pull());
        assert!(!Algo::Sssp.pull() && !Algo::Bc.pull());
        assert!(Algo::Bfs.single_source() && Algo::Sssp.single_source());
        assert!(Algo::Bc.single_source() && !Algo::Lp.single_source());
        assert!(!Algo::Cc.single_source() && !Algo::Pr.single_source());
        for a in Algo::ALL {
            // display name agrees with the instantiated program
            assert_eq!(a.display(), a.program(&ProgramOpts::default()).name());
        }
    }

    /// Serve's cost model indexes its per-kind arrays by `kind as usize`.
    #[test]
    fn discriminants_are_positions_in_all() {
        for (i, a) in Algo::ALL.into_iter().enumerate() {
            assert_eq!(a as usize, i, "{a}");
        }
    }

    #[test]
    fn program_on_range_checks_the_source() {
        let g = uniform_graph(300, 2_400, true, 5);
        for a in Algo::ALL {
            assert_eq!(
                a.program_on(&g, 300).err(),
                Some(AlgoError::SourceOutOfRange {
                    source: 300,
                    vertices: 300
                })
            );
            assert!(a.program_on(&g, 299).is_ok());
        }
        let msg = Algo::Bfs.program_on(&g, 99_999).err().unwrap().to_string();
        assert!(
            msg.contains("--source 99999") && msg.contains("300"),
            "{msg}"
        );
    }

    /// Every registered algorithm, erased and concrete, must run the same
    /// run: same answer, same iteration count, same edges per iteration. A
    /// trait hook that [`AnyProgram`] fails to forward shows up here (PR
    /// without its `settle` stops after one iteration).
    #[test]
    fn any_program_matches_concrete_program() {
        use crate::inmemory::InMemoryResult;
        let g = uniform_graph(300, 2_400, true, 5);
        let wg = weighted_variant(&g);
        let opts = ProgramOpts::from_source(1);
        let concrete = |a: Algo| -> InMemoryResult {
            match a {
                Algo::Bfs => run_in_memory(&g, &Bfs::new(opts.source)),
                Algo::Sssp => run_in_memory(&wg, &Sssp::new(opts.source)),
                Algo::Cc => run_in_memory(&g, &Cc::new()),
                Algo::Pr => run_in_memory(&g, &PageRank::new()),
                Algo::Lp => run_in_memory(&g, &LabelPropagation::new()),
                Algo::Bc => run_in_memory(&g, &Betweenness::new(opts.source)),
            }
        };
        for a in Algo::ALL {
            let erased = run_in_memory(if a.weighted() { &wg } else { &g }, &a.program(&opts));
            let concrete = concrete(a);
            assert_eq!(erased.output, concrete.output, "{a}: output");
            assert_eq!(erased.iterations, concrete.iterations, "{a}: iterations");
            assert_eq!(erased.log, concrete.log, "{a}: per-iteration activity");
            assert!(
                erased.iterations > 1,
                "{a}: a one-iteration run proves nothing"
            );
        }
    }

    /// The erased PR against an oracle that shares no code with it.
    #[test]
    fn erased_pagerank_matches_the_power_iteration_reference() {
        let g = uniform_graph(300, 2_400, false, 5);
        let pr = AnyProgram::Pr(PageRank::new().with_eps_frac(1e-6));
        let expect = AlgoOutput::Ranks(pagerank_reference(&g, 0.85, 1e-12, 10_000));
        let got = run_in_memory(&g, &pr).output;
        assert_eq!(got.first_mismatch(&expect, 1e-6), None);
    }

    #[test]
    #[should_panic(expected = "does not belong")]
    fn mismatched_state_is_rejected() {
        let g = uniform_graph(10, 20, false, 1);
        let bfs = Algo::Bfs.program(&ProgramOpts::default());
        let cc_state = Algo::Cc.program(&ProgramOpts::default()).new_state(&g);
        let _ = bfs.output(&cc_state);
    }
}
