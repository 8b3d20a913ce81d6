//! The four workloads: how their inputs are made from a seed, the body
//! that is timed, and the oracle check on what the body returned.
//!
//! Scale is the repo's "full" 1/1000 of the paper's testbed: the device is
//! `DeviceConfig::p100(PAPER_GPU_MEM_BYTES / 1000)` with 16 KiB chunks and
//! the graphs have the catalog's vertex and edge counts divided by 1000
//! (`serve-churn` runs 24 whole jobs per rep and takes 1/2000 of both, which
//! keeps the dataset-to-device ratio). The `--seed` argument is mixed into
//! every generator seed, so two seeds give different graphs, sources and
//! traces of the same size class; the program under test sees only the
//! generated inputs.

use ascetic_algos::{run_in_memory, Algo, AlgoOutput, ProgramOpts};
use ascetic_core::{
    AsceticConfig, AsceticSession, CompressionMode, DirectionMode, PrefetchMode, RunReport,
};
use ascetic_graph::datasets::{weighted_variant, PAPER_GPU_MEM_BYTES};
use ascetic_graph::generators::{social_graph, web_graph, SocialConfig, WebConfig};
use ascetic_graph::{Csr, Mutation, VertexId};
use ascetic_mutate::{materialize, Epochs};
use ascetic_serve::{
    serve_mutating, synthetic_mixed, synthetic_mutations, Job, Policy, ServeConfig, ServeReport,
    TraceMutation,
};
use ascetic_sim::{DeviceConfig, InterconnectConfig};

use crate::spans::Spans;
use crate::stats::{Fnv, SplitMix};

/// BFS runs per `bfs-web` body.
pub const BFS_SOURCES: usize = 32;
/// Jobs and mutation records per `serve-churn` body (three mutation
/// records share an instant, so 60 records are 20 atomic batches).
pub const SERVE_JOBS: usize = 24;
pub const SERVE_MUTATIONS: usize = 60;
const SERVE_JOB_SPACING_NS: u64 = 20_000_000;
const SERVE_JOB_BURST: usize = 6;
const SERVE_MUTATION_SPACING_NS: u64 = 4_000_000;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    PrSocial,
    BfsWeb,
    ModesSocial,
    ServeChurn,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PrSocial,
        Workload::BfsWeb,
        Workload::ModesSocial,
        Workload::ServeChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PrSocial => "pr-social",
            Workload::BfsWeb => "bfs-web",
            Workload::ModesSocial => "modes-social",
            Workload::ServeChurn => "serve-churn",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Divisor of the paper's testbed: graph sizes and device memory.
    pub fn scale(self) -> u64 {
        match self {
            Workload::ServeChurn => 2000,
            _ => 1000,
        }
    }

    /// Catalog-style generator seed of the workload's graph, before the
    /// `--seed` argument is mixed in.
    fn catalog_seed(self) -> u64 {
        match self {
            Workload::PrSocial | Workload::ModesSocial => 0x6A5C_0002, // FK
            Workload::BfsWeb => 0x6A5C_0004,                           // UK
            Workload::ServeChurn => 0x6A5C_0001,                       // GS
        }
    }
}

/// One run a non-serving workload asks of a session.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpSpec {
    /// Index into [`sessions`].
    pub session: usize,
    pub algo: Algo,
    /// Root of the single-source programs (the others ignore it).
    pub source: VertexId,
}

/// What a session of a non-serving workload is built with.
#[derive(Clone, Copy, Debug)]
pub struct SessionSpec {
    pub cfg: AsceticConfig,
    pub weighted: bool,
}

/// Everything set-up produces: the program under test sees only this.
pub struct Inputs {
    pub workload: Workload,
    pub graph: Csr,
    /// Weighted variant of `graph` (workloads with weighted programs).
    pub weighted: Option<Csr>,
    /// Runs of the non-serving workloads, grouped by session in order.
    pub plan: Vec<OpSpec>,
    /// `serve-churn` only.
    pub jobs: Vec<Job>,
    pub mutations: Vec<TraceMutation>,
}

/// Host seconds set-up spent per layer call, for the per-layer report.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    pub generate_s: f64,
    pub weighted_s: f64,
}

/// Paper-default Ascetic on the workload's scaled device.
pub fn base_cfg(w: Workload) -> AsceticConfig {
    AsceticConfig::new(DeviceConfig::p100(PAPER_GPU_MEM_BYTES / w.scale()))
        .with_chunk_bytes(16 * 1024)
}

/// The sessions a non-serving workload builds, in order.
pub fn sessions(w: Workload) -> Vec<SessionSpec> {
    let modes = base_cfg(w)
        .with_compression(CompressionMode::Adaptive)
        .with_prefetch(PrefetchMode::NextFrontier);
    match w {
        Workload::PrSocial | Workload::BfsWeb => vec![SessionSpec {
            cfg: base_cfg(w),
            weighted: false,
        }],
        Workload::ModesSocial => vec![
            SessionSpec {
                cfg: modes.with_direction(DirectionMode::Adaptive),
                weighted: false,
            },
            // On this graph the adaptive policy all but never picks pull
            // (0–2 iterations per run), so one session forces it: without
            // it the CSC mirror and the pull operators would go unmeasured.
            SessionSpec {
                cfg: modes.with_direction(DirectionMode::Pull),
                weighted: false,
            },
            // The weighted graph oversubscribes the device twice over, and
            // whether Eq (3) re-partitions during the SSSP hangs on single
            // iterations' frontier mix: it flips between seeds and moves
            // wire bytes by 40 %. The benchmark has to be steady across
            // seeds, so this one session pins the partition; every other
            // session of the benchmark keeps the re-partition check on.
            SessionSpec {
                cfg: modes.with_adaptive(false),
                weighted: true,
            },
        ],
        Workload::ServeChurn => Vec::new(),
    }
}

/// The serving configuration of `serve-churn`.
pub fn serve_cfg(tracing: bool) -> ServeConfig {
    ServeConfig::new(
        base_cfg(Workload::ServeChurn).with_tracing(tracing),
        Policy::ResidencyAffinity,
    )
    .with_devices(2)
    .with_interconnect(InterconnectConfig::nvlink())
}

/// Make a workload's inputs from `seed`. `shrink` divides the graph sizes
/// further (1 for every measurement; the self-tests use more to stay
/// fast).
pub fn setup(w: Workload, seed: u64, shrink: u64) -> (Inputs, SetupTimes) {
    let mut rng = SplitMix::new(seed ^ w.catalog_seed().rotate_left(32));
    let graph_seed = w.catalog_seed() ^ rng.next();
    let sized = |paper: u64| (paper / w.scale() / shrink).max(64);
    let mut times = SetupTimes::default();

    let t = std::time::Instant::now();
    let graph = match w {
        // FK-class: undirected, so the CSR holds twice the sampled edges
        Workload::PrSocial | Workload::ModesSocial => social_graph(&SocialConfig::new(
            sized(68_350_000) as usize,
            sized(2_590_000_000) / 2,
            graph_seed,
        )),
        // UK-class
        Workload::BfsWeb => web_graph(&WebConfig::new(
            sized(106_860_000) as usize,
            sized(3_790_000_000),
            graph_seed,
        )),
        // GS-class
        Workload::ServeChurn => web_graph(&WebConfig::new(
            sized(68_660_000) as usize,
            sized(1_800_000_000),
            graph_seed,
        )),
    };
    times.generate_s = t.elapsed().as_secs_f64();

    let weighted = matches!(w, Workload::ModesSocial | Workload::ServeChurn).then(|| {
        let t = std::time::Instant::now();
        let g = weighted_variant(&graph);
        times.weighted_s = t.elapsed().as_secs_f64();
        g
    });

    let n = graph.num_vertices();
    let mut plan = Vec::new();
    let (mut jobs, mut mutations) = (Vec::new(), Vec::new());
    match w {
        Workload::PrSocial => plan.push(OpSpec {
            session: 0,
            algo: Algo::Pr,
            source: 0,
        }),
        Workload::BfsWeb => {
            plan.extend(
                stratified_sources(&graph, BFS_SOURCES, &mut rng)
                    .into_iter()
                    .map(|source| OpSpec {
                        session: 0,
                        algo: Algo::Bfs,
                        source,
                    }),
            );
        }
        Workload::ModesSocial => {
            let hub = (0..n as VertexId)
                .max_by_key(|&v| (graph.degree(v), std::cmp::Reverse(v)))
                .expect("graphs are never empty");
            // PageRank first: the same dense run as pr-social, this time
            // through the compressed, prefetching, direction-adaptive path.
            for (algo, session) in [
                (Algo::Pr, 0),
                (Algo::Cc, 0),
                (Algo::Bfs, 0),
                (Algo::Bfs, 1),
                (Algo::Sssp, 2),
            ] {
                plan.push(OpSpec {
                    session,
                    algo,
                    source: hub,
                });
            }
        }
        Workload::ServeChurn => {
            jobs = synthetic_mixed(
                SERVE_JOBS,
                n,
                rng.next(),
                SERVE_JOB_SPACING_NS,
                SERVE_JOB_BURST,
            );
            mutations =
                synthetic_mutations(SERVE_MUTATIONS, n, rng.next(), SERVE_MUTATION_SPACING_NS);
        }
    }
    let inputs = Inputs {
        workload: w,
        graph,
        weighted,
        plan,
        jobs,
        mutations,
    };
    (inputs, times)
}

/// `k` non-isolated vertices, the `i`-th drawn from the `i`-th `1/k` of the
/// id range. The generators lay ids out in crawl/community order, so one
/// source per stratum makes every seed cover the whole graph instead of
/// letting a run's cost hang on how many sources fell into one region.
fn stratified_sources(g: &Csr, k: usize, rng: &mut SplitMix) -> Vec<VertexId> {
    let n = g.num_vertices() as u64;
    (0..k as u64)
        .map(|i| {
            let (lo, hi) = (i * n / k as u64, (i + 1) * n / k as u64);
            let start = lo + rng.next() % (hi - lo);
            // first non-isolated vertex at or after the draw, wrapping
            // inside the stratum
            (start..hi)
                .chain(lo..start)
                .find(|&v| g.degree(v as VertexId) > 0)
                .unwrap_or(start) as VertexId
        })
        .collect()
}

impl Inputs {
    /// The unweighted graph or its weighted variant.
    pub fn graph_for(&self, weighted: bool) -> &Csr {
        if weighted {
            self.weighted
                .as_ref()
                .expect("workload built a weighted variant")
        } else {
            &self.graph
        }
    }

    /// Operations a body attempts: runs, or served jobs.
    pub fn ops(&self) -> usize {
        self.plan.len() + self.jobs.len()
    }

    /// FNV-1a over everything the program under test will see.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        for g in std::iter::once(&self.graph).chain(&self.weighted) {
            h.eat(g.num_vertices() as u64);
            g.offsets().iter().for_each(|&o| h.eat(o));
            g.targets().iter().for_each(|&t| h.eat(t as u64));
            g.weights()
                .into_iter()
                .flatten()
                .for_each(|&w| h.eat(w as u64));
        }
        for op in &self.plan {
            h.eat(op.session as u64);
            h.eat(op.algo as u64);
            h.eat(op.source as u64);
        }
        for j in &self.jobs {
            h.eat(j.id as u64);
            h.eat(j.kind as u64);
            h.eat(j.source.map_or(u64::MAX, u64::from));
            h.eat(j.submit_ns);
        }
        for m in &self.mutations {
            h.eat(m.at_ns);
            match m.mutation {
                Mutation::Insert { src, dst, weight } => {
                    h.eat(1);
                    h.eat(src as u64);
                    h.eat(dst as u64);
                    h.eat(weight.map_or(u64::MAX, u64::from));
                }
                Mutation::Delete { src, dst } => {
                    h.eat(2);
                    h.eat(src as u64);
                    h.eat(dst as u64);
                }
            }
        }
        h.finish()
    }
}

/// What one execution of a workload's body returned.
pub struct BodyOut {
    /// The session runs of a non-serving workload, in plan order.
    session_runs: Vec<RunReport>,
    /// `serve-churn` only.
    pub serve: Option<ServeReport>,
}

/// The timed body. `tracing` switches the *program's* span tracing on
/// (`AsceticConfig::with_tracing`); `spans` is the benchmark's own
/// recorder and is off for every end-to-end rep.
pub fn body(inputs: &Inputs, tracing: bool, spans: &mut Spans) -> BodyOut {
    if inputs.workload == Workload::ServeChurn {
        let sc = serve_cfg(tracing);
        let report = spans
            .scope("serve.serve_mutating", |_| {
                serve_mutating(
                    &sc,
                    &inputs.graph,
                    inputs.weighted.as_ref(),
                    &inputs.jobs,
                    &inputs.mutations,
                )
            })
            .expect("the generated trace is well-formed");
        return BodyOut {
            session_runs: Vec::new(),
            serve: Some(report),
        };
    }
    let mut session_runs = Vec::with_capacity(inputs.plan.len());
    for (si, spec) in sessions(inputs.workload).into_iter().enumerate() {
        let g = inputs.graph_for(spec.weighted);
        let cfg = spec.cfg.with_tracing(tracing);
        let mut session = spans.scope("core.session_new", |_| AsceticSession::new(cfg, g));
        for op in inputs.plan.iter().filter(|op| op.session == si) {
            let prog = op.algo.program(&ProgramOpts::from_source(op.source));
            session_runs.push(spans.scope("core.session_run", |_| session.run(&prog)));
        }
    }
    BodyOut {
        session_runs,
        serve: None,
    }
}

/// Bytes a run put on the host link towards the device, prestore, refresh
/// and prefetch included.
pub fn h2d_wire_bytes(r: &RunReport) -> u64 {
    r.xfer.h2d_wire_bytes + r.prestore_wire_bytes + r.refresh_wire_bytes
}

/// The simulated (virtual-clock) result of one body execution. Two
/// executions of the same inputs must agree on every field, at any host
/// thread count.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Virt {
    /// Σ `sim_time_ns` over the runs; the makespan for `serve-churn`.
    pub sim_ns: u64,
    /// Bytes moved towards devices: host link (prestore, on-demand,
    /// prefetch, refresh, mutation patches) plus peer-link replication.
    pub wire_bytes: u64,
    /// FNV-1a over every run's time, bytes, iterations and output, and
    /// over every served job's schedule.
    pub fp: u64,
}

impl BodyOut {
    /// Every engine run in execution order. A serve reports one per job;
    /// batch members carry copies of their shared run's report, told apart
    /// by `(device, start)`, and are folded here.
    pub fn runs(&self) -> Vec<&RunReport> {
        let Some(report) = &self.serve else {
            return self.session_runs.iter().collect();
        };
        let mut seen = std::collections::BTreeSet::new();
        let mut by_start: Vec<_> = report.jobs.iter().collect();
        by_start.sort_by_key(|j| (j.start_ns, j.device, j.id));
        by_start
            .into_iter()
            .filter(|j| seen.insert((j.device, j.start_ns)))
            .map(|j| &j.run)
            .collect()
    }

    pub fn virt(&self) -> Virt {
        let mut h = Fnv::new();
        let mut wire_bytes = 0;
        let runs = self.runs();
        for r in &runs {
            wire_bytes += h2d_wire_bytes(r);
            h.eat(r.sim_time_ns);
            h.eat(h2d_wire_bytes(r));
            h.eat(r.xfer.d2h_bytes);
            h.eat(r.iterations as u64);
            h.eat(r.output.fingerprint());
        }
        let sim_ns = match &self.serve {
            None => runs.iter().map(|r| r.sim_time_ns).sum(),
            Some(s) => {
                wire_bytes += s.mutation_wire_bytes + s.replicated_bytes;
                h.eat(s.makespan_ns);
                h.eat(s.mutation_wire_bytes);
                h.eat(s.replicated_bytes);
                h.eat(s.rejected.len() as u64);
                for j in &s.jobs {
                    h.eat(j.id as u64);
                    h.eat(j.device as u64);
                    h.eat(j.start_ns);
                    h.eat(j.finish_ns);
                    h.eat(j.output.fingerprint());
                }
                s.makespan_ns
            }
        };
        Virt {
            sim_ns,
            wire_bytes,
            fp: h.finish(),
        }
    }
}

/// Tolerance of the oracle comparison (absolute, PageRank scores only;
/// every other output compares exactly).
const ORACLE_TOL: f64 = 1e-6;

/// Result of checking one body execution against the in-memory oracle.
pub struct Verdict {
    /// Operations whose answer was wrong, plus rejected jobs.
    pub failed: usize,
    /// One line per failure, for the log.
    pub notes: Vec<String>,
    /// Edges the oracle runs traversed (the workload's active edges).
    pub oracle_edges: u64,
}

/// Group a mutation schedule into atomic batches the way `serve_mutating`
/// does (records sharing an instant form a batch, in time order), with the
/// insert weights normalized for one graph variant.
pub fn mutation_batches(
    mutations: &[TraceMutation],
    weighted: bool,
) -> (Vec<u64>, Vec<Vec<Mutation>>) {
    let mut sorted: Vec<&TraceMutation> = mutations.iter().collect();
    sorted.sort_by_key(|m| m.at_ns);
    let mut boundaries: Vec<u64> = Vec::new();
    let mut batches: Vec<Vec<Mutation>> = Vec::new();
    for m in sorted {
        if boundaries.last() != Some(&m.at_ns) {
            boundaries.push(m.at_ns);
            batches.push(Vec::new());
        }
        let normalized = match m.mutation {
            Mutation::Insert { src, dst, weight } => Mutation::Insert {
                src,
                dst,
                weight: weighted.then(|| weight.unwrap_or(1)),
            },
            delete => delete,
        };
        batches.last_mut().expect("just pushed").push(normalized);
    }
    (boundaries, batches)
}

/// The graph epochs of `serve-churn`, both variants, built the public way
/// (`ascetic_mutate::materialize`).
pub struct ServeEpochs {
    pub boundaries: Vec<u64>,
    pub unweighted: Epochs,
    pub weighted: Epochs,
}

pub fn serve_epochs(inputs: &Inputs) -> ServeEpochs {
    let (boundaries, un) = mutation_batches(&inputs.mutations, false);
    let (_, w) = mutation_batches(&inputs.mutations, true);
    ServeEpochs {
        boundaries,
        unweighted: materialize(&inputs.graph, &un).expect("generated mutations are in range"),
        weighted: materialize(inputs.graph_for(true), &w)
            .expect("generated mutations are in range"),
    }
}

/// Check every answer in `out` against `run_in_memory` on the same graph.
/// Served jobs are checked against the epoch graph they started under. The
/// oracle runs are recorded as `algos.run_in_memory` spans: they are the
/// same programs on the same graphs with no transfer engine, which is what
/// the per-layer report calls operator time.
pub fn verify(
    inputs: &Inputs,
    out: &BodyOut,
    epochs: Option<&ServeEpochs>,
    spans: &mut Spans,
) -> Verdict {
    let mut v = Verdict {
        failed: 0,
        notes: Vec::new(),
        oracle_edges: 0,
    };
    let mut oracle = |g: &Csr, algo: Algo, source: VertexId, v: &mut Verdict| -> AlgoOutput {
        let prog = algo.program(&ProgramOpts::from_source(source));
        let r = spans.scope("algos.run_in_memory", |_| run_in_memory(g, &prog));
        v.oracle_edges += r.total_edges;
        r.output
    };
    match &out.serve {
        None => {
            let specs = sessions(inputs.workload);
            let runs = out.runs();
            for (op, run) in inputs.plan.iter().zip(&runs) {
                let g = inputs.graph_for(specs[op.session].weighted);
                let want = oracle(g, op.algo, op.source, &mut v);
                if let Some(at) = run.output.first_mismatch(&want, ORACLE_TOL) {
                    v.failed += 1;
                    v.notes.push(format!(
                        "{} from {} differs from the oracle at vertex {at}",
                        op.algo.name(),
                        op.source
                    ));
                }
            }
            if runs.len() != inputs.plan.len() {
                v.failed += inputs.plan.len().abs_diff(runs.len());
                v.notes.push("run count differs from the plan".into());
            }
        }
        Some(report) => {
            let epochs = epochs.expect("serve-churn is verified against its epochs");
            v.failed += report.rejected.len();
            for r in &report.rejected {
                v.notes.push(format!("job {} rejected: {}", r.id, r.reason));
            }
            if report.jobs.len() + report.rejected.len() != inputs.jobs.len() {
                v.failed += inputs.jobs.len() - report.jobs.len() - report.rejected.len();
                v.notes.push("a job was neither served nor rejected".into());
            }
            for j in &report.jobs {
                let job = inputs
                    .jobs
                    .iter()
                    .find(|x| x.id == j.id)
                    .expect("served jobs come from the trace");
                let versions = if job.kind.weighted() {
                    &epochs.weighted.versions
                } else {
                    &epochs.unweighted.versions
                };
                // The scheduler fixes a job's epoch when it picks it, at
                // some instant in [submit, start]; the report gives only
                // the ends. Take the latest epoch first (exact unless a
                // batch landed while the job's own patches were applied).
                let passed = |t: u64| epochs.boundaries.iter().take_while(|&&b| b <= t).count();
                let (lo, hi) = (passed(job.submit_ns), passed(j.start_ns));
                let source = job.source.unwrap_or(0);
                let ok = (lo..=hi).rev().any(|e| {
                    let want = oracle(&versions[e], job.kind, source, &mut v);
                    j.output.first_mismatch(&want, ORACLE_TOL).is_none()
                });
                if !ok {
                    v.failed += 1;
                    v.notes.push(format!(
                        "job {} ({}) matches no epoch in {lo}..={hi}",
                        j.id,
                        job.kind.name()
                    ));
                }
            }
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Small enough for a debug-build test run.
    const SHRINK: u64 = 40;

    #[test]
    fn same_seed_same_inputs_and_different_seeds_differ() {
        for w in Workload::ALL {
            let a = setup(w, 1, SHRINK).0;
            let b = setup(w, 1, SHRINK).0;
            let c = setup(w, 2, SHRINK).0;
            assert_eq!(a.fingerprint(), b.fingerprint(), "{}", w.name());
            assert_ne!(a.fingerprint(), c.fingerprint(), "{}", w.name());
            assert_ne!(
                a.graph,
                c.graph,
                "{}: the seed reaches the generator",
                w.name()
            );
            assert_eq!(a.graph.num_vertices(), c.graph.num_vertices());
        }
    }

    #[test]
    fn op_counts_match_the_declared_workloads() {
        let ops = |w| setup(w, 3, SHRINK).0.ops();
        assert_eq!(ops(Workload::PrSocial), 1);
        assert_eq!(ops(Workload::BfsWeb), BFS_SOURCES);
        assert_eq!(ops(Workload::ModesSocial), 5);
        assert_eq!(ops(Workload::ServeChurn), SERVE_JOBS);
    }

    #[test]
    fn sources_are_stratified_and_never_isolated() {
        let inputs = setup(Workload::BfsWeb, 5, SHRINK).0;
        let n = inputs.graph.num_vertices() as u64;
        for (i, op) in inputs.plan.iter().enumerate() {
            assert!(inputs.graph.degree(op.source) > 0);
            let (lo, hi) = (i as u64 * n / 32, (i as u64 + 1) * n / 32);
            assert!(
                (lo..hi).contains(&(op.source as u64)),
                "source {i} left its stratum"
            );
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("pr"), None);
    }

    #[test]
    fn mutation_batches_group_by_instant_and_normalize_weights() {
        let m = |at_ns, weight| TraceMutation {
            at_ns,
            mutation: Mutation::Insert {
                src: 0,
                dst: 1,
                weight,
            },
        };
        let trace = [m(8, Some(3)), m(4, None), m(8, None)];
        let (bounds, un) = mutation_batches(&trace, false);
        assert_eq!(bounds, [4, 8]);
        assert_eq!(un.iter().map(Vec::len).collect::<Vec<_>>(), [1, 2]);
        assert!(un
            .iter()
            .flatten()
            .all(|x| matches!(x, Mutation::Insert { weight: None, .. })));
        let (_, w) = mutation_batches(&trace, true);
        let weights: Vec<_> = w
            .iter()
            .flatten()
            .map(|x| match x {
                Mutation::Insert { weight, .. } => weight.unwrap(),
                Mutation::Delete { .. } => unreachable!(),
            })
            .collect();
        assert_eq!(weights, [1, 3, 1]);
    }

    #[test]
    fn a_small_body_passes_its_own_oracle() {
        for w in Workload::ALL {
            let inputs = setup(w, 7, SHRINK).0;
            let out = body(&inputs, false, &mut Spans::off());
            let epochs = (w == Workload::ServeChurn).then(|| serve_epochs(&inputs));
            let verdict = verify(&inputs, &out, epochs.as_ref(), &mut Spans::off());
            assert_eq!(verdict.failed, 0, "{}: {:?}", w.name(), verdict.notes);
            assert_eq!(out.virt(), body(&inputs, false, &mut Spans::off()).virt());
        }
    }
}
