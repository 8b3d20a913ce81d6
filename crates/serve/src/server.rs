//! The serve loop: admission control, policy scheduling, session reuse
//! and query batching on a virtual clock.
//!
//! One simulated device serves a queue of jobs over one graph (and its
//! weighted variant, for SSSP). The scheduler keeps at most one live
//! [`AsceticSession`] — the device model — and decides, job by job:
//!
//! 1. **admission** — each job is checked against its program's
//!    capabilities first (a forced pull direction rejects push-only kinds
//!    with the typed [`AlgoError`](ascetic_algos::AlgoError) text), then
//!    jobs whose graph variant cannot be prepared on the device (vertex
//!    arrays don't fit, config invalid for the graph, edge budget below two
//!    chunks) are rejected with the [`PrepareError`](ascetic_core::PrepareError) text;
//!    rejected jobs never run, the rest of the workload still does;
//! 2. **scheduling** — among arrived jobs, [`Policy`] picks the next one;
//! 3. **batching** — arrived same-kind single-source jobs are folded into
//!    the pick (up to [`MAX_BATCH_LANES`], the MS-BFS mask width) and the
//!    whole batch runs as one multi-source pass;
//! 4. **residency** — if the live session already serves the right graph
//!    variant it is *reused*: the warmed static region and hotness table
//!    carry over and the run pays no prestore. A variant switch tears the
//!    session down and pays a fresh prestore — the cost residency-affinity
//!    scheduling exists to avoid.
//!
//! Time: the serve clock starts at 0 and advances by each run's simulated
//! duration; a job's queue wait is `start - submit`. Everything is
//! integer virtual time, so a trace + policy + config determines the
//! report byte-for-byte regardless of host thread count.
//!
//! **Fleet serving** ([`ServeConfig::with_devices`]): N identically
//! configured devices each carry their own `free_ns` clock and session.
//! Every decision is taken by the earliest-free device (lowest index on
//! ties) — skew self-corrects because a device stuck on a long batch
//! stops winning the argmin. Residency affinity scores candidates against
//! the deciding device's session, and a cold build checks its peers for a
//! warm session of the same variant: when the [`Interconnect`] can ship
//! that donor's static region faster than a host prestore, admission is
//! charged as the device-to-device replica instead. One device reproduces
//! the classic scheduler byte-for-byte.
//!
//! **One loop** (`DESIGN.md` §9): a `Scheduler` owns the devices, the
//! queue, the cost model, the registry and the tracer, and every serve
//! call — plain, mutating, one device or a fleet — is
//! `admit → while let Some(decision) = next_decision() { pick →
//! session_for → run → account } → finish`. Mutations and devices are
//! inputs to that loop (an empty schedule, one device), not second paths.
//! Each serve-level tally is bumped at one site, in the registry;
//! `finish` reads the report's copies back from it.
//!
//! **Mutations** ([`serve_mutating`]): a session owns the epoch it is on
//! and patches its own graph batch by batch; serve keeps the batches, the
//! input graphs and at most one lazily advanced head copy per variant —
//! one graph per live session, never one per epoch.

use ascetic_algos::{AlgoOutput, MsBfsDistances, MsSsspDistances, ProgramOpts, MAX_BATCH_LANES};
use ascetic_core::{AsceticConfig, AsceticSession, AsceticSystem, OutOfCoreSystem, RunReport};
use ascetic_graph::{Csr, Mutation, PatchError};
use ascetic_obs::{Registry, SpanTracer, TrackId};
use ascetic_par::Bitmap;
use ascetic_sim::{Interconnect, InterconnectConfig};

use crate::job::{Algo, Job};
use crate::policy::Policy;
use crate::report::{JobReport, RejectedJob, ServeReport};
use crate::trace::TraceMutation;

/// Serving-layer configuration on top of the device config.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Device + Ascetic knobs every session is built with.
    pub cfg: AsceticConfig,
    /// Scheduling policy.
    pub policy: Policy,
    /// Fold compatible single-source jobs into multi-source batches (of up
    /// to [`MAX_BATCH_LANES`]).
    pub batching: bool,
    /// Devices in the fleet (1 = the classic single-device scheduler;
    /// the default).
    pub devices: usize,
    /// Fabric joining the fleet's devices: cold sessions replicate a warm
    /// peer's static region over it when that beats a host prestore.
    pub interconnect: InterconnectConfig,
}

impl ServeConfig {
    /// Serve `cfg` under `policy` with batching on, one device.
    pub fn new(cfg: AsceticConfig, policy: Policy) -> Self {
        ServeConfig {
            cfg,
            policy,
            batching: true,
            devices: 1,
            interconnect: InterconnectConfig::pcie(),
        }
    }

    /// Disable query batching (every job runs alone).
    pub fn without_batching(mut self) -> Self {
        self.batching = false;
        self
    }

    /// Spread the schedule across `devices` devices (earliest-free
    /// routing; ≥1).
    pub fn with_devices(mut self, devices: usize) -> Self {
        self.devices = devices.max(1);
        self
    }

    /// Use `ic` as the fleet fabric (NVLink peer links make static-region
    /// replication much cheaper than host staging).
    pub fn with_interconnect(mut self, ic: InterconnectConfig) -> Self {
        self.interconnect = ic;
        self
    }
}

/// One fleet device's scheduler state.
struct Device<'g> {
    /// Serve-clock instant the device next goes idle.
    free_ns: u64,
    /// The device's live session, if any, under whether it serves the
    /// weighted graph variant.
    session: Option<(bool, AsceticSession<'g>)>,
    /// How many mutation batches the live session's graph includes (the
    /// session patches its own graph; it borrows the input at epoch 0).
    epoch: usize,
    /// The device's scheduler track in the serve trace.
    track: TrackId,
}

/// Why a serve call could not start at all (per-job problems become
/// [`RejectedJob`]s instead).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// The trace holds weighted jobs but no weighted graph was supplied.
    WeightedGraphMissing,
    /// A mutation batch could not be applied to a graph variant.
    Mutation {
        /// 0-based batch index in the schedule (batches are `at_ns`
        /// groups, in time order).
        batch: usize,
        /// Why the batch was rejected (`Csr::check_batch`, run on every
        /// batch before any job).
        error: PatchError,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::WeightedGraphMissing => {
                write!(
                    f,
                    "trace contains sssp jobs but no weighted graph was provided"
                )
            }
            ServeError::Mutation { batch, error } => {
                write!(f, "mutation batch {batch}: {error}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// Number of registered algorithm kinds the cost model tracks.
const KINDS: usize = Algo::ALL.len();

/// Per-kind running-mean cost model for SJF: seeded from the graph's edge
/// volume (a whole-graph sweep costs more on a bigger edge array, PR the
/// most with its dense iterations), refined with every observed run, and
/// adjusted per job by the source vertex's degree (a high-degree source
/// reaches more of the graph in its first iterations).
struct CostModel {
    sum_ns: [u64; KINDS],
    runs: [u64; KINDS],
    prior: [u64; KINDS],
}

impl CostModel {
    fn new(unweighted: &Csr, weighted: Option<&Csr>) -> CostModel {
        let eb = unweighted.edge_bytes();
        let ebw = weighted.map_or(eb * 2, |g| g.edge_bytes());
        // relative magnitudes only — SJF ranks, it does not predict.
        // Indexed by `kind as usize` (Algo::ALL order): the paper's four
        // keep their seeds, the extensions slot in by workload shape
        // (traversal-like cheap, sweep-like dear).
        let mut prior = [eb; KINDS];
        prior[Algo::Sssp as usize] = ebw * 3;
        prior[Algo::Cc as usize] = eb * 2;
        prior[Algo::Pr as usize] = eb * 8;
        prior[Algo::Lp as usize] = eb * 4;
        prior[Algo::Bc as usize] = eb * 3;
        CostModel {
            sum_ns: [0; KINDS],
            runs: [0; KINDS],
            prior,
        }
    }

    fn observe(&mut self, kind: Algo, run_ns: u64) {
        let i = kind as usize;
        self.sum_ns[i] += run_ns;
        self.runs[i] += 1;
    }

    /// `g` is the job's graph as of the deciding epoch, for sourced jobs.
    fn estimate(&self, job: &Job, g: Option<&Csr>) -> u64 {
        let i = job.kind as usize;
        let base = self.sum_ns[i]
            .checked_div(self.runs[i])
            .unwrap_or(self.prior[i]);
        // a hub source seeds a fatter first frontier
        let degree_term = job
            .source
            .zip(g)
            .map_or(0, |(s, g)| g.degree(s) * g.bytes_per_edge() as u64);
        base + degree_term
    }
}

/// One graph variant under the mutation schedule: the input graph, the
/// batches with weights normalized for it (dropped on the unweighted
/// graph, defaulted to 1 on the weighted one), and a head copy that only a
/// cold build or an SJF estimate past epoch 0 brings into being. Live
/// sessions patch their own graphs; no epoch is kept beside them.
struct Variant<'g> {
    base: &'g Csr,
    batches: Vec<Vec<Mutation>>,
    head: Option<(usize, Csr)>,
}

impl<'g> Variant<'g> {
    /// Normalize `batches` for `base` and check every one against it up
    /// front, so a malformed batch fails the serve before any job runs —
    /// even one no session would ever reach.
    fn new(base: &'g Csr, batches: &[Vec<Mutation>], weighted: bool) -> Result<Self, ServeError> {
        let normalize = |&m| match m {
            Mutation::Insert { src, dst, weight } => Mutation::Insert {
                src,
                dst,
                weight: weighted.then(|| weight.unwrap_or(1)),
            },
            delete => delete,
        };
        let batches: Vec<Vec<Mutation>> = batches
            .iter()
            .map(|b| b.iter().map(normalize).collect())
            .collect();
        for (batch, ops) in batches.iter().enumerate() {
            let check = base.check_batch(ops);
            check.map_err(|error| ServeError::Mutation { batch, error })?;
        }
        Ok(Variant {
            base,
            batches,
            head: None,
        })
    }

    /// Bring the head up to `epoch` (decisions never go back in time).
    fn advance(&mut self, epoch: usize) {
        if epoch > 0 {
            let (at, head) = self.head.get_or_insert_with(|| (0, self.base.clone()));
            for batch in &self.batches[*at..epoch] {
                head.apply(batch).expect("checked when the serve started");
            }
            *at = epoch;
        }
    }

    /// The graph as of `epoch`: the input at 0, else the head, which
    /// [`Variant::advance`] brought there.
    fn at(&self, epoch: usize) -> &Csr {
        match &self.head {
            _ if epoch == 0 => self.base,
            Some((at, head)) if *at == epoch => head,
            _ => unreachable!("the head was not advanced to epoch {epoch}"),
        }
    }
}

/// Serve `jobs` over `unweighted` (and `weighted`, required iff the trace
/// holds SSSP jobs) on one simulated device. Returns the full serve
/// report; per-job problems (inadmissible variants) surface inside it as
/// rejections, not errors.
pub fn serve(
    sc: &ServeConfig,
    unweighted: &Csr,
    weighted: Option<&Csr>,
    jobs: &[Job],
) -> Result<ServeReport, ServeError> {
    serve_mutating(sc, unweighted, weighted, jobs, &[])
}

/// Like [`serve`], but with a schedule of edge mutations interleaved on
/// the serve clock. Records sharing an `at_ns` form one atomic batch;
/// when a device's clock passes a batch boundary its live session is
/// *delta-patched in place* — its own graph patched, resident chunks
/// rewritten, hotness and residency carried — rather than torn down and
/// re-prestored, and every job started at or after the boundary answers
/// over the mutated graph. Both graph variants are mutated in lockstep
/// (insert weights default to 1 on the weighted variant and are dropped on
/// the unweighted one); every batch of both is checked before any job runs.
///
/// One loop (`DESIGN.md` §9): [`serve`] is this with an empty schedule,
/// and `sc.devices` only sets how many devices take decisions.
pub fn serve_mutating(
    sc: &ServeConfig,
    unweighted: &Csr,
    weighted: Option<&Csr>,
    jobs: &[Job],
    mutations: &[TraceMutation],
) -> Result<ServeReport, ServeError> {
    // Group the schedule into atomic batches by time stamp.
    let mut sorted: Vec<&TraceMutation> = mutations.iter().collect();
    sorted.sort_by_key(|m| m.at_ns);
    let mut boundaries: Vec<u64> = Vec::new();
    let mut batches: Vec<Vec<Mutation>> = Vec::new();
    for m in sorted {
        if boundaries.last() != Some(&m.at_ns) {
            boundaries.push(m.at_ns);
            batches.push(Vec::new());
        }
        batches.last_mut().expect("just pushed").push(m.mutation);
    }
    let unweighted = Variant::new(unweighted, &batches, false)?;
    let weighted = match weighted {
        Some(g) => Some(Variant::new(g, &batches, true)?),
        None => None,
    };
    if jobs.iter().any(|j| j.kind.weighted()) && weighted.is_none() {
        return Err(ServeError::WeightedGraphMissing);
    }
    let mut s = Scheduler::new(sc, unweighted, weighted, &boundaries);
    s.admit(jobs);
    while let Some(at) = s.next_decision() {
        let batch = s.pick(&at);
        let admission = s.session_for(&at, batch[0].kind);
        let run = s.run(&at, &batch);
        s.account(&at, &batch, admission, run);
    }
    Ok(s.finish())
}

/// One turn of the loop: which device decides, when on the serve clock,
/// and how many mutation batches that instant has passed — the epoch
/// every estimate, build and run of the turn must see.
struct Decision {
    device: usize,
    now: u64,
    epoch: usize,
}

/// What [`Scheduler::session_for`] did to put the right session on the
/// deciding device.
struct Admission {
    /// The live session served the variant already (and was patched up to
    /// the epoch); otherwise a cold one was built over it.
    reused: bool,
    /// Serve-clock time the catch-up patches took.
    mutate_ns: u64,
    /// A cold build's warm peer of the same variant and epoch, with the
    /// wire bytes of its static region.
    donor: Option<(usize, u64)>,
}

/// Everything one serve call owns. Each serve-level tally lives in `reg`
/// alone; the scheduler keeps beside it only what no counter carries.
struct Scheduler<'a, 'g> {
    sc: &'a ServeConfig,
    /// The unweighted and the weighted graph variant, indexed by
    /// [`Algo::weighted`].
    graphs: [Option<Variant<'g>>; 2],
    /// Serve-clock instants of the mutation batches, ascending.
    boundaries: &'a [u64],
    devs: Vec<Device<'g>>,
    ic: Interconnect,
    cost: CostModel,
    /// Admitted jobs not yet run, in canonical `(submit_ns, id)` order.
    queue: Vec<Job>,
    reg: Registry,
    /// Serve-clock span trace: one scheduler track per device plus one
    /// lifecycle track per job (queued → admitted → running).
    tracer: SpanTracer,
    jobs: Vec<JobReport>,
    rejected: Vec<RejectedJob>,
    prestore_bytes: u64,
    makespan_ns: u64,
    next_batch_id: u32,
}

impl<'a, 'g> Scheduler<'a, 'g> {
    fn new(
        sc: &'a ServeConfig,
        unweighted: Variant<'g>,
        weighted: Option<Variant<'g>>,
        boundaries: &'a [u64],
    ) -> Self {
        let mut reg = Registry::new();
        reg.set_label("layer", "serve");
        reg.set_label("policy", sc.policy.name());
        let mut tracer = SpanTracer::new();
        let devices = sc.devices.max(1);
        // the classic single device's track is plain "scheduler"
        let track_name = |d: usize| match devices {
            1 => "scheduler".to_string(),
            _ => format!("dev{d}/scheduler"),
        };
        let device = |d: usize| Device {
            free_ns: 0,
            session: None,
            epoch: 0,
            track: tracer.track(&track_name(d)),
        };
        Scheduler {
            sc,
            cost: CostModel::new(unweighted.base, weighted.as_ref().map(|v| v.base)),
            graphs: [Some(unweighted), weighted],
            boundaries,
            devs: (0..devices).map(device).collect(),
            ic: Interconnect::new(sc.interconnect, devices),
            queue: Vec::new(),
            reg,
            tracer,
            jobs: Vec::new(),
            rejected: Vec::new(),
            prestore_bytes: 0,
            makespan_ns: 0,
            next_batch_id: 0,
        }
    }

    /// The input graph `kind` runs on: what every epoch-invariant fact
    /// (vertex count, bytes per edge) is read off.
    fn base(&self, kind: Algo) -> &'g Csr {
        let variant = self.graphs[kind.weighted() as usize].as_ref();
        variant.expect("serve_mutating checked the variant").base
    }

    /// Admission: every job is queued or turned away with a reason —
    /// never by a panic mid-run. Kinds the configuration rules out (forced
    /// pull on a push-only program) go per job; each graph variant is
    /// prepared once, over its base epoch, and takes its jobs with it when
    /// it cannot run.
    fn admit(&mut self, jobs: &[Job]) {
        let cfg = self.sc.cfg;
        let refusal = self.graphs.each_ref().map(|variant| {
            let prepared = AsceticSystem::new(cfg).prepare(variant.as_ref()?.base);
            prepared.err().map(|e| e.to_string())
        });
        for job in jobs {
            let kind = job.kind;
            let reason = match cfg.validate_algo(kind.capabilities(), kind.display()) {
                Err(e) => Some(e.to_string()),
                Ok(()) => refusal[kind.weighted() as usize].clone(),
            };
            match reason {
                Some(reason) => self.rejected.push(RejectedJob {
                    id: job.id,
                    algo: kind.name(),
                    reason,
                }),
                None => self.queue.push(*job),
            }
        }
        self.queue.sort_by_key(|j| (j.submit_ns, j.id));
    }

    /// Route: the earliest-free device takes the next decision (lowest
    /// index on ties) — the fleet's rebalance-under-skew mechanism: a
    /// device stuck on a long batch simply stops winning this argmin and
    /// the queue drains through its idle peers. `None` once the queue is
    /// empty.
    fn next_decision(&mut self) -> Option<Decision> {
        // the queue is in `(submit_ns, id)` order: its head arrives first
        while let Some(next_arrival) = self.queue.first().map(|j| j.submit_ns) {
            let free_at = |&d: &usize| (self.devs[d].free_ns, d);
            let device = (0..self.devs.len())
                .min_by_key(free_at)
                .expect("at least one device");
            let now = self.devs[device].free_ns;
            if now < next_arrival {
                // idle device: jump to the next arrival
                self.devs[device].free_ns = next_arrival;
                continue;
            }
            let epoch = self.boundaries.iter().take_while(|&&b| b <= now).count();
            return Some(Decision { device, now, epoch });
        }
        None
    }

    /// Pick and fold: among the jobs that have arrived, [`Policy`] picks
    /// one, and — batching on, kind batchable — arrived jobs of its kind
    /// ride along, up to [`MAX_BATCH_LANES`]. The batch leaves the queue in
    /// lane order (the canonical `(submit, id)`).
    fn pick(&mut self, at: &Decision) -> Vec<Job> {
        if self.sc.policy == Policy::Sjf {
            // the degree term reads a source's row as of this epoch
            for job in self.queue.iter().filter(|j| j.submit_ns <= at.now) {
                if job.source.is_some() {
                    let variant = self.graphs[job.kind.weighted() as usize].as_mut();
                    variant.expect("admitted").advance(at.epoch);
                }
            }
        }
        let queue = &self.queue;
        let arrived = (0..queue.len()).filter(|&i| queue[i].submit_ns <= at.now);
        let graphs = &self.graphs;
        let graph = |kind: Algo| graphs[kind.weighted() as usize].as_ref().expect("admitted");
        // the queue is in canonical order, so the first candidate wins
        // every tie
        let pick = match self.sc.policy {
            Policy::Fifo => arrived.clone().next(),
            Policy::Sjf => arrived.clone().min_by_key(|&i| {
                let job = &queue[i];
                let g = job.source.map(|_| graph(job.kind).at(at.epoch));
                self.cost.estimate(job, g)
            }),
            // highest score against the deciding device's session wins
            Policy::ResidencyAffinity => arrived.clone().min_by_key(|&i| {
                let g = graph(queue[i].kind).base;
                let score = score_affinity(&queue[i], g, &self.devs[at.device].session);
                (std::cmp::Reverse(score), i)
            }),
        }
        .expect("a decision is taken with a job waiting");
        let kind = queue[pick].kind;
        let mut lanes = vec![pick];
        if self.sc.batching && kind.capabilities().batchable {
            let same_kind = arrived.filter(|&i| i != pick && queue[i].kind == kind);
            lanes.extend(same_kind.take(MAX_BATCH_LANES - 1));
            lanes.sort_unstable();
        }
        // out of the queue back to front, so the indices hold
        let mut batch: Vec<Job> = lanes.iter().rev().map(|&i| self.queue.remove(i)).collect();
        batch.reverse();
        batch
    }

    /// Residency: a live session of the right variant is *reused* — the
    /// warmed static region and hotness table carry over — and, if it is
    /// behind the mutation schedule, caught up by patching each passed
    /// batch into its own graph and resident chunks: repaired, not
    /// rebuilt. Anything else is torn down for a cold session over the
    /// current epoch — the input graph itself at epoch 0, else a copy of
    /// the variant's head — which first looks for a warm donor of the same
    /// variant and epoch on another device ([`Scheduler::replicate`]).
    fn session_for(&mut self, at: &Decision, kind: Algo) -> Admission {
        let weighted = kind.weighted();
        let variant = self.graphs[weighted as usize].as_mut().expect("admitted");
        let dev = &mut self.devs[at.device];
        if let Some((_, sess)) = dev.session.as_mut().filter(|(w, _)| *w == weighted) {
            let mut mutate_ns = 0;
            for batch in &variant.batches[dev.epoch..at.epoch] {
                let patched = sess
                    .apply_batch(batch)
                    .expect("checked when the serve started");
                mutate_ns += patched.patch_ns;
                self.reg.counter_add("serve.mutations_applied", 1);
                self.reg
                    .counter_add("serve.mutation_wire_bytes", patched.wire_bytes);
            }
            dev.epoch = at.epoch;
            return Admission {
                reused: true,
                mutate_ns,
                donor: None,
            };
        }
        let donor = self.devs.iter().enumerate().find_map(|(i, dev)| {
            let (w, sess) = dev.session.as_ref()?;
            let warm_peer = i != at.device && dev.epoch == at.epoch && *w == weighted;
            warm_peer.then(|| (i, sess.prestore_wire_bytes()))
        });
        let session = if at.epoch == 0 {
            AsceticSession::new(self.sc.cfg, variant.base)
        } else {
            variant.advance(at.epoch);
            AsceticSession::owning(self.sc.cfg, variant.at(at.epoch).clone())
        };
        // assigning drops the old device state, prestore re-paid
        let dev = &mut self.devs[at.device];
        dev.session = Some((weighted, session));
        dev.epoch = at.epoch;
        self.reg.counter_add("serve.sessions_built", 1);
        Admission {
            reused: false,
            mutate_ns: 0,
            donor,
        }
    }

    /// Run the batch on the deciding device's session: a batched
    /// single-source traversal runs its multi-lane variant, anything else
    /// runs alone.
    fn run(&mut self, at: &Decision, batch: &[Job]) -> RunReport {
        let kind = batch[0].kind;
        let session = self.devs[at.device].session.as_mut();
        let sess = &mut session.expect("session_for put one there").1;
        let sources: Vec<u32> = batch.iter().filter_map(|j| j.source).collect();
        let report = match kind {
            Algo::Bfs if sources.len() > 1 => sess.run(&MsBfsDistances::new(sources)),
            Algo::Sssp if sources.len() > 1 => sess.run(&MsSsspDistances::new(sources)),
            kind => {
                let opts = ProgramOpts::from_source(sources.first().copied().unwrap_or(0));
                sess.run(&kind.program(&opts))
            }
        };
        self.cost.observe(kind, report.sim_time_ns);
        report
    }

    /// A cold build with a warm donor replicates the donor's (possibly
    /// encoded) static region over the interconnect instead of re-paying
    /// the host prestore — but only when the fabric actually wins, probed
    /// against the live link frontiers so concurrent replicas queue
    /// honestly. Returns the replica's duration when it does.
    fn replicate(&mut self, at: &Decision, donor: (usize, u64), prestore_ns: u64) -> Option<u64> {
        let (src, bytes) = donor;
        if prestore_ns == 0 || bytes == 0 {
            return None;
        }
        let mut probe = self.ic.clone();
        let (_, end) = probe.transfer(src, at.device, bytes, at.now);
        let replica_ns = end - at.now;
        if replica_ns >= prestore_ns {
            return None;
        }
        self.ic = probe;
        self.reg.counter_add("serve.replications", 1);
        self.reg.counter_add("serve.replicated_bytes", bytes);
        Some(replica_ns)
    }

    /// Account the run: advance the device's clock, bump the serve-level
    /// tallies, and give each batch member its report — the run's
    /// `RunReport` with its own lane as the output. The latency
    /// decomposition comes from the shared run: admission = the (re)build
    /// prestore (or the replica transfer), H2D = link time on on-demand
    /// transfers, compute = kernel time.
    fn account(&mut self, at: &Decision, batch: &[Job], admission: Admission, mut run: RunReport) {
        let kind = batch[0].kind;
        let lanes = batch.len();
        let track = self.devs[at.device].track;
        let replica_ns = admission
            .donor
            .and_then(|donor| self.replicate(at, donor, run.prestore_ns));
        let admission_ns = replica_ns.unwrap_or(run.prestore_ns);
        let start = at.now + admission.mutate_ns;
        let finish = start + run.sim_time_ns - run.prestore_ns + admission_ns;
        if admission.mutate_ns > 0 {
            let name = format!("mutate to epoch {}", at.epoch);
            self.tracer.span(track, at.now, start, &name, "mutate");
        }
        let name = format!("run {} x{lanes}", kind.name());
        self.tracer.span(track, start, finish, &name, "run");
        self.devs[at.device].free_ns = finish;
        self.makespan_ns = self.makespan_ns.max(finish);

        self.prestore_bytes += run.prestore_bytes;
        if admission.reused {
            // bytes a cold session would have shipped but the carried
            // residency served from device memory
            let static_edges: u64 = run.per_iter.iter().map(|it| it.static_edges).sum();
            let bytes_per_edge = self.base(kind).bytes_per_edge() as u64;
            self.reg
                .counter_add("serve.residency_hit_bytes", static_edges * bytes_per_edge);
        }
        let batch_id = (lanes > 1).then(|| {
            self.reg.counter_add("serve.batches", 1);
            self.reg.counter_add("serve.batched_jobs", lanes as u64);
            self.next_batch_id += 1;
            self.next_batch_id - 1
        });
        self.reg.observe("serve.batch_occupancy", lanes as u64);
        self.reg.counter_add("serve.jobs", lanes as u64);
        self.reg
            .counter_add("serve.ondemand_h2d_bytes", run.xfer.h2d_bytes);

        let h2d_ns = run.breakdown.transfer_ns;
        let compute_ns = run.breakdown.gen_map_ns
            + run.breakdown.static_compute_ns
            + run.breakdown.ondemand_compute_ns;
        // every lane's report shares the run minus its output: take that
        // out once and hand each lane its own
        let mut shared = std::mem::replace(&mut run.output, AlgoOutput::Distances(Vec::new()));
        for (lane, job) in batch.iter().enumerate() {
            let queue_wait_ns = start - job.submit_ns;
            self.reg.observe("serve.queue_wait_ns", queue_wait_ns);
            self.trace_lifecycle(job, start, start + admission_ns, finish, lanes);
            let output = match &mut shared {
                AlgoOutput::MultiDistances(v) => {
                    AlgoOutput::Distances(std::mem::take(&mut v[lane]))
                }
                single => std::mem::replace(single, AlgoOutput::Distances(Vec::new())),
            };
            let mut job_run = run.clone();
            job_run.output = output.clone();
            self.jobs.push(JobReport {
                id: job.id,
                algo: kind.name(),
                device: at.device as u32,
                batch: batch_id,
                lanes: lanes as u32,
                batch_folds: lanes as u32 - 1,
                submit_ns: job.submit_ns,
                start_ns: start,
                finish_ns: finish,
                queue_wait_ns,
                admission_ns,
                h2d_ns,
                compute_ns,
                deadline_ns: job.deadline_ns,
                met_deadline: job.deadline_ns.map(|d| finish <= d),
                output,
                run: job_run,
            });
        }
    }

    /// One job's track: queued → admitted (when the run paid a build) →
    /// running, under a span from submission to finish.
    fn trace_lifecycle(&mut self, job: &Job, start: u64, admitted: u64, finish: u64, lanes: usize) {
        let tr = &mut self.tracer;
        let track = tr.track(&format!("job {}", job.id));
        let lifetime = tr.mark();
        tr.span(track, job.submit_ns, start, "queued", "queue");
        if admitted > start {
            tr.span(track, start, admitted, "admitted", "admission");
        }
        let running = match lanes {
            1 => "running".to_string(),
            _ => format!("running (batched x{lanes})"),
        };
        tr.span(track, admitted, finish, &running, "run");
        let name = format!("job {} ({})", job.id, job.kind.name());
        tr.enclose(track, lifetime, job.submit_ns, finish, &name, "job");
    }

    /// Close the books: the report's tallies are read back from the
    /// registry, which is where they were counted.
    fn finish(mut self) -> ServeReport {
        self.jobs.sort_by_key(|r| r.id);
        self.rejected.sort_by_key(|r| r.id);
        self.reg
            .counter_add("serve.rejected", self.rejected.len() as u64);
        let metrics = self.reg.snapshot();
        let tally = |name: &str| metrics.counter(name).unwrap_or(0);
        // device 0's arena at shutdown (the fleet devices are identically
        // configured, so one is representative)
        let session = self.devs[0].session.as_ref();
        ServeReport {
            policy: self.sc.policy.name(),
            devices: self.devs.len() as u32,
            makespan_ns: self.makespan_ns,
            total_queue_wait_ns: self.jobs.iter().map(|r| r.queue_wait_ns).sum(),
            ondemand_h2d_bytes: tally("serve.ondemand_h2d_bytes"),
            prestore_bytes: self.prestore_bytes,
            residency_hit_bytes: tally("serve.residency_hit_bytes"),
            batches: tally("serve.batches") as u32,
            batched_jobs: tally("serve.batched_jobs") as u32,
            sessions_built: tally("serve.sessions_built") as u32,
            replications: tally("serve.replications") as u32,
            replicated_bytes: tally("serve.replicated_bytes"),
            mutations_applied: tally("serve.mutations_applied") as u32,
            mutation_wire_bytes: tally("serve.mutation_wire_bytes"),
            occupancy: session.map(|(_, s)| s.occupancy()).unwrap_or_default(),
            metrics,
            span_trace: Some(self.tracer.finish()),
            jobs: self.jobs,
            rejected: self.rejected,
        }
    }
}

/// Residency score of a waiting job against the live session: bytes of
/// useful residency a schedule-now would enjoy. Zero when the session
/// would have to be rebuilt (wrong variant or none).
fn score_affinity(job: &Job, g: &Csr, session: &Option<(bool, AsceticSession<'_>)>) -> u64 {
    let Some((weighted, sess)) = session else {
        return 0;
    };
    if *weighted != job.kind.weighted() {
        return 0;
    }
    let base = sess.resident_bytes();
    match job.source {
        Some(s) => {
            let mut frontier = Bitmap::new(g.num_vertices());
            frontier.set(s as usize);
            base + sess.demand_overlap(&frontier).0
        }
        None => base,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::output_fingerprint;
    use crate::trace::synthetic_mixed;
    use ascetic_core::DirectionMode;
    use ascetic_graph::datasets::weighted_variant;
    use ascetic_graph::generators::uniform_graph;
    use ascetic_sim::DeviceConfig;

    fn graphs() -> (Csr, Csr) {
        let g = uniform_graph(2_500, 20_000, false, 31);
        let w = weighted_variant(&g);
        (g, w)
    }

    fn cfg_for(g: &Csr) -> AsceticConfig {
        let dev = DeviceConfig::p100(g.num_vertices() as u64 * 24 + g.edge_bytes() * 2 / 5);
        AsceticConfig::new(dev).with_chunk_bytes(1024)
    }

    fn bfs_job(id: u32, source: u32, submit_ns: u64) -> Job {
        Job {
            id,
            kind: Algo::Bfs,
            source: Some(source),
            submit_ns,
            deadline_ns: None,
        }
    }

    #[test]
    fn fifo_runs_jobs_in_arrival_order_and_answers_them() {
        let (g, _) = graphs();
        let sc = ServeConfig::new(cfg_for(&g), Policy::Fifo).without_batching();
        let jobs = [
            bfs_job(0, 0, 0),
            bfs_job(1, 7, 0),
            Job {
                id: 2,
                kind: Algo::Cc,
                source: None,
                submit_ns: 0,
                deadline_ns: None,
            },
        ];
        let rep = serve(&sc, &g, None, &jobs).unwrap();
        assert_eq!(rep.jobs.len(), 3);
        assert!(rep.rejected.is_empty());
        assert_eq!(rep.sessions_built, 1, "one variant, one session");
        // arrival order: job 0 first, each later job starts when the
        // previous finishes
        assert_eq!(rep.jobs[0].start_ns, 0);
        assert_eq!(rep.jobs[1].start_ns, rep.jobs[0].finish_ns);
        assert_eq!(rep.jobs[2].start_ns, rep.jobs[1].finish_ns);
        assert_eq!(rep.makespan_ns, rep.jobs[2].finish_ns);
        // the answers are the engine's answers
        let mut solo = AsceticSession::new(sc.cfg, &g);
        let d0 = solo.run(&ascetic_algos::Bfs::new(0)).output;
        assert_eq!(
            output_fingerprint(&rep.jobs[0].output),
            output_fingerprint(&d0)
        );
        // only the first run paid the prestore; the rest rode the residency
        assert!(rep.jobs[0].run.prestore_bytes > 0);
        assert_eq!(rep.jobs[1].run.prestore_bytes, 0);
        assert!(rep.residency_hit_bytes > 0);
    }

    #[test]
    fn batched_jobs_match_individual_runs() {
        let (g, w) = graphs();
        let cfg = cfg_for(&g);
        let mut jobs: Vec<Job> = (0..6).map(|i| bfs_job(i, i * 97, 0)).collect();
        jobs.push(Job {
            id: 6,
            kind: Algo::Sssp,
            source: Some(3),
            submit_ns: 0,
            deadline_ns: None,
        });
        jobs.push(Job {
            id: 7,
            kind: Algo::Sssp,
            source: Some(44),
            submit_ns: 0,
            deadline_ns: None,
        });
        let batched = serve(&ServeConfig::new(cfg, Policy::Fifo), &g, Some(&w), &jobs).unwrap();
        let solo = serve(
            &ServeConfig::new(cfg, Policy::Fifo).without_batching(),
            &g,
            Some(&w),
            &jobs,
        )
        .unwrap();
        assert_eq!(batched.batches, 2, "one BFS batch, one SSSP batch");
        assert_eq!(batched.batched_jobs, 8);
        assert_eq!(solo.batches, 0);
        for (b, s) in batched.jobs.iter().zip(&solo.jobs) {
            assert_eq!(b.id, s.id);
            assert_eq!(
                output_fingerprint(&b.output),
                output_fingerprint(&s.output),
                "job {} batched answer differs from its solo answer",
                b.id
            );
            assert_eq!(b.run.output, b.output, "job {}: run report's lane", b.id);
        }
        assert!(
            batched.makespan_ns < solo.makespan_ns,
            "batching should beat serial execution ({} vs {} ns)",
            batched.makespan_ns,
            solo.makespan_ns
        );
    }

    #[test]
    fn residency_affinity_beats_fifo_on_a_mixed_trace() {
        let (g, w) = graphs();
        let cfg = cfg_for(&g);
        let jobs = synthetic_mixed(32, g.num_vertices(), 7, 0, 1);
        let fifo = serve(&ServeConfig::new(cfg, Policy::Fifo), &g, Some(&w), &jobs).unwrap();
        let ra = serve(
            &ServeConfig::new(cfg, Policy::ResidencyAffinity),
            &g,
            Some(&w),
            &jobs,
        )
        .unwrap();
        assert!(
            ra.sessions_built < fifo.sessions_built,
            "affinity groups variants: {} vs {} sessions",
            ra.sessions_built,
            fifo.sessions_built
        );
        assert!(ra.residency_hit_bytes > 0);
        assert!(
            ra.makespan_ns < fifo.makespan_ns,
            "fewer prestores should shorten the makespan ({} vs {} ns)",
            ra.makespan_ns,
            fifo.makespan_ns
        );
        assert!(ra.prestore_bytes < fifo.prestore_bytes);
        // identical answers regardless of schedule
        for (a, b) in ra.jobs.iter().zip(&fifo.jobs) {
            assert_eq!(a.id, b.id);
            assert_eq!(output_fingerprint(&a.output), output_fingerprint(&b.output));
        }
    }

    #[test]
    fn inadmissible_variant_is_rejected_with_the_prepare_error() {
        let (g, _) = graphs();
        // A weighted variant with more vertices than the device holds
        // vertex arrays for (the two variants need not share |V|): SSSP
        // jobs must be turned away at admission while BFS still runs.
        let w = weighted_variant(&uniform_graph(5_000, 20_000, false, 31));
        let cfg = cfg_for(&g);
        let jobs = [
            bfs_job(0, 0, 0),
            Job {
                id: 1,
                kind: Algo::Sssp,
                source: Some(5),
                submit_ns: 0,
                deadline_ns: None,
            },
        ];
        let rep = serve(&ServeConfig::new(cfg, Policy::Fifo), &g, Some(&w), &jobs).unwrap();
        assert_eq!(rep.jobs.len(), 1);
        assert_eq!(rep.jobs[0].id, 0);
        assert_eq!(rep.rejected.len(), 1);
        assert_eq!(rep.rejected[0].id, 1);
        assert!(
            rep.rejected[0].reason.contains("vertex arrays need"),
            "reason should carry the prepare error: {}",
            rep.rejected[0].reason
        );
    }

    #[test]
    fn an_edge_budget_below_two_chunks_rejects_the_variant_with_both_numbers() {
        let (g, w) = graphs();
        // ~32 KB of edge budget against 64 KiB chunks
        let cfg = cfg_for(&g).with_chunk_bytes(65_536);
        let jobs = [bfs_job(0, 0, 0)];
        let rep = serve(&ServeConfig::new(cfg, Policy::Fifo), &g, Some(&w), &jobs).unwrap();
        assert!(rep.jobs.is_empty());
        assert_eq!(rep.rejected.len(), 1);
        let budget = (cfg.device.mem_bytes / 4) * 4 - g.num_vertices() as u64 * 24;
        assert_eq!(
            rep.rejected[0].reason,
            format!("edge budget {budget} B below two 65536-byte chunks")
        );
    }

    #[test]
    fn capability_misfits_are_rejected_per_job_at_admission() {
        let (g, _) = graphs();
        // Forced pull: LP is push-only, BFS has a pull operator — the LP
        // job is rejected with the AlgoError text, BFS still runs.
        let cfg = cfg_for(&g).with_direction(ascetic_core::DirectionMode::Pull);
        let jobs = [
            bfs_job(0, 0, 0),
            Job {
                id: 1,
                kind: Algo::Lp,
                source: None,
                submit_ns: 0,
                deadline_ns: None,
            },
        ];
        let rep = serve(&ServeConfig::new(cfg, Policy::Fifo), &g, None, &jobs).unwrap();
        assert_eq!(rep.jobs.len(), 1);
        assert_eq!(rep.jobs[0].id, 0);
        assert_eq!(rep.rejected.len(), 1);
        assert_eq!(rep.rejected[0].id, 1);
        assert!(
            rep.rejected[0].reason.contains("push-only"),
            "reason should carry the pull mismatch: {}",
            rep.rejected[0].reason
        );
    }

    #[test]
    fn deadlines_are_judged_against_finish_time() {
        let (g, _) = graphs();
        let sc = ServeConfig::new(cfg_for(&g), Policy::Fifo);
        let jobs = [
            Job {
                id: 0,
                kind: Algo::Bfs,
                source: Some(0),
                submit_ns: 0,
                deadline_ns: Some(1),
            },
            Job {
                id: 1,
                kind: Algo::Bfs,
                source: Some(1),
                submit_ns: 0,
                deadline_ns: Some(u64::MAX),
            },
        ];
        let rep = serve(&sc, &g, None, &jobs).unwrap();
        assert_eq!(rep.jobs[0].met_deadline, Some(false));
        assert_eq!(rep.jobs[1].met_deadline, Some(true));
    }

    #[test]
    fn idle_device_jumps_to_the_next_arrival() {
        let (g, _) = graphs();
        let sc = ServeConfig::new(cfg_for(&g), Policy::Fifo);
        let late = 1_000_000_000_000u64;
        let jobs = [bfs_job(0, 0, 0), bfs_job(1, 3, late)];
        let rep = serve(&sc, &g, None, &jobs).unwrap();
        assert_eq!(rep.jobs[1].start_ns, late, "no busy-waiting before arrival");
        assert_eq!(rep.jobs[1].queue_wait_ns, 0);
    }

    #[test]
    fn sssp_without_weighted_graph_is_an_error() {
        let (g, _) = graphs();
        let sc = ServeConfig::new(cfg_for(&g), Policy::Fifo);
        let jobs = [Job {
            id: 0,
            kind: Algo::Sssp,
            source: Some(0),
            submit_ns: 0,
            deadline_ns: None,
        }];
        assert_eq!(
            serve(&sc, &g, None, &jobs).unwrap_err(),
            ServeError::WeightedGraphMissing
        );
    }

    #[test]
    fn serve_report_json_is_valid_and_policy_tagged() {
        let (g, _) = graphs();
        for policy in crate::policy::ALL_POLICIES {
            let sc = ServeConfig::new(cfg_for(&g), policy);
            let jobs = [bfs_job(0, 0, 0), bfs_job(1, 9, 0)];
            let rep = serve(&sc, &g, None, &jobs).unwrap();
            let json = rep.to_json();
            ascetic_obs::json::validate(&json).expect("valid serve JSON");
            assert!(json.contains(&format!("\"policy\":\"{}\"", policy.name())));
            assert!(json.contains("\"schema_version\":3"));
            assert!(json.contains("\"latency\":{"), "{json}");
            assert!(json.contains("\"admission\":{"), "{json}");
        }
    }

    #[test]
    fn job_latency_decomposes_into_components() {
        let (g, _) = graphs();
        let sc = ServeConfig::new(cfg_for(&g), Policy::Fifo).without_batching();
        let jobs = [bfs_job(0, 0, 0), bfs_job(1, 7, 0)];
        let rep = serve(&sc, &g, None, &jobs).unwrap();
        for j in &rep.jobs {
            // components never exceed the end-to-end latency
            assert!(
                j.queue_wait_ns + j.admission_ns <= j.latency_ns(),
                "job {}",
                j.id
            );
            assert!(j.h2d_ns + j.compute_ns > 0, "job {} did work", j.id);
            assert_eq!(j.batch_folds, 0, "batching off");
        }
        // only the cold job pays admission
        assert!(rep.jobs[0].admission_ns > 0);
        assert_eq!(rep.jobs[1].admission_ns, 0);
        let lb = rep.latency_breakdown();
        assert!(lb.total.p50_ns <= lb.total.p99_ns);
        assert!(lb.total.p99_ns <= rep.makespan_ns);
    }

    #[test]
    fn fleet_serve_scales_and_answers_identically() {
        let (g, w) = graphs();
        let cfg = cfg_for(&g);
        let jobs = synthetic_mixed(24, g.num_vertices(), 7, 0, 1);
        let solo = serve(&ServeConfig::new(cfg, Policy::Fifo), &g, Some(&w), &jobs).unwrap();
        let mut prev = solo.makespan_ns;
        for devices in [2, 4] {
            let sc = ServeConfig::new(cfg, Policy::Fifo)
                .with_devices(devices)
                .with_interconnect(InterconnectConfig::nvlink());
            let rep = serve(&sc, &g, Some(&w), &jobs).unwrap();
            assert_eq!(rep.devices, devices as u32);
            assert!(
                rep.makespan_ns < prev,
                "{devices} devices ({} ns) must beat fewer ({prev} ns)",
                rep.makespan_ns
            );
            prev = rep.makespan_ns;
            // answers are device-count-independent
            assert_eq!(rep.jobs.len(), solo.jobs.len());
            for (a, b) in rep.jobs.iter().zip(&solo.jobs) {
                assert_eq!(a.id, b.id);
                assert_eq!(
                    output_fingerprint(&a.output),
                    output_fingerprint(&b.output),
                    "job {} answer changed at {devices} devices",
                    a.id
                );
            }
            // more than one device actually served
            assert!(rep.jobs.iter().any(|j| j.device > 0));
            assert!(rep.jobs.iter().any(|j| j.device == 0));
        }
    }

    #[test]
    fn one_device_fleet_config_is_the_classic_scheduler() {
        let (g, w) = graphs();
        let cfg = cfg_for(&g);
        let jobs = synthetic_mixed(16, g.num_vertices(), 11, 50_000, 2);
        for policy in crate::policy::ALL_POLICIES {
            let classic = serve(&ServeConfig::new(cfg, policy), &g, Some(&w), &jobs).unwrap();
            let fleet1 = serve(
                &ServeConfig::new(cfg, policy).with_devices(1),
                &g,
                Some(&w),
                &jobs,
            )
            .unwrap();
            assert_eq!(classic.to_json(), fleet1.to_json(), "{}", policy.name());
        }
    }

    #[test]
    fn cold_devices_replicate_from_warm_peers_over_nvlink() {
        let (g, _) = graphs();
        let cfg = cfg_for(&g);
        // a burst of same-variant jobs: device 0 warms up first, then the
        // other devices' cold builds should ride replicas of its region
        let jobs: Vec<Job> = (0..8).map(|i| bfs_job(i, i * 131, 0)).collect();
        let sc = ServeConfig::new(cfg, Policy::Fifo)
            .without_batching()
            .with_devices(4)
            .with_interconnect(InterconnectConfig::nvlink());
        let rep = serve(&sc, &g, None, &jobs).unwrap();
        assert!(
            rep.replications > 0,
            "cold peers must replicate instead of prestoring"
        );
        assert!(rep.replicated_bytes > 0);
        assert_eq!(
            rep.metrics.counter("serve.replications"),
            Some(rep.replications as u64)
        );
        // a replicated admission is cheaper than the host prestore it
        // replaced, so the fleet makespan must beat sequential serving
        let solo = serve(
            &ServeConfig::new(cfg, Policy::Fifo).without_batching(),
            &g,
            None,
            &jobs,
        )
        .unwrap();
        assert!(rep.makespan_ns < solo.makespan_ns);
        for (a, b) in rep.jobs.iter().zip(&solo.jobs) {
            assert_eq!(output_fingerprint(&a.output), output_fingerprint(&b.output));
        }
    }

    #[test]
    fn fleet_serve_trace_has_per_device_scheduler_tracks() {
        let (g, _) = graphs();
        let jobs: Vec<Job> = (0..6).map(|i| bfs_job(i, i * 53, 0)).collect();
        let sc = ServeConfig::new(cfg_for(&g), Policy::Fifo)
            .without_batching()
            .with_devices(2);
        let rep = serve(&sc, &g, None, &jobs).unwrap();
        let trace = rep.span_trace.as_ref().expect("serve always traces");
        for d in 0..2 {
            let t = trace
                .track_index(&format!("dev{d}/scheduler"))
                .unwrap_or_else(|| panic!("dev{d} scheduler track"));
            assert!(trace.track_spans(t).count() > 0, "device {d} served");
        }
        assert!(
            trace.track_index("scheduler").is_none(),
            "fleet traces use per-device scheduler names"
        );
    }

    #[test]
    fn serve_span_trace_tracks_job_lifecycles() {
        let (g, _) = graphs();
        let sc = ServeConfig::new(cfg_for(&g), Policy::Fifo);
        let jobs = [bfs_job(0, 0, 0), bfs_job(1, 9, 0), bfs_job(2, 17, 0)];
        let rep = serve(&sc, &g, None, &jobs).unwrap();
        let trace = rep.span_trace.as_ref().expect("serve always traces");
        let sched = trace.track_index("scheduler").expect("scheduler track");
        assert!(trace.track_spans(sched).count() >= 1);
        for j in &rep.jobs {
            let t = trace
                .track_index(&format!("job {}", j.id))
                .unwrap_or_else(|| panic!("job {} track", j.id));
            let spans: Vec<_> = trace.track_spans(t).collect();
            // lifecycle parent + queued + running (+ admitted when cold)
            assert!(spans.len() >= 3, "job {}: {} spans", j.id, spans.len());
            let parent = spans.iter().find(|s| s.depth == 0).expect("lifecycle span");
            assert_eq!(parent.start_ns, j.submit_ns);
            assert_eq!(parent.end_ns, j.finish_ns);
            assert!(spans.iter().any(|s| s.name == "queued"));
        }
        // all three jobs batched into one run -> one admitted span total
        assert_eq!(rep.batches, 1);
        let admitted = trace
            .spans()
            .iter()
            .filter(|s| s.name == "admitted")
            .count();
        assert_eq!(admitted, 3, "every batch member shows the shared prestore");
    }

    #[test]
    fn mutating_serve_with_empty_schedule_matches_plain_serve() {
        let (g, w) = graphs();
        let sc = ServeConfig::new(cfg_for(&g), Policy::Fifo);
        let jobs = synthetic_mixed(8, g.num_vertices(), 3, 50_000, 2);
        let plain = serve(&sc, &g, Some(&w), &jobs).unwrap();
        let mutating = serve_mutating(&sc, &g, Some(&w), &jobs, &[]).unwrap();
        assert_eq!(
            plain.to_json(),
            mutating.to_json(),
            "an empty mutation schedule must be a byte-identical no-op"
        );
        assert_eq!(mutating.mutations_applied, 0);
    }

    #[test]
    fn a_malformed_last_batch_fails_the_serve_before_any_job_runs() {
        use ascetic_graph::patch::PatchErrorKind;
        let (g, w) = graphs();
        let n = g.num_vertices() as u32;
        let sc = ServeConfig::new(cfg_for(&g), Policy::Fifo);
        let insert = |at_ns, src| TraceMutation {
            at_ns,
            mutation: Mutation::Insert {
                src,
                dst: 1,
                weight: None,
            },
        };
        // three good batches, then one landing long after the only job
        // has finished — no session would ever reach it
        let mut mutations: Vec<TraceMutation> = (0..3).map(|k| insert(k * 100, k as u32)).collect();
        let never = 1_000_000_000_000;
        mutations.push(insert(never, 0));
        mutations.push(TraceMutation {
            at_ns: never,
            mutation: Mutation::Delete { src: 2, dst: n },
        });
        let err = serve_mutating(&sc, &g, Some(&w), &[bfs_job(0, 0, 0)], &mutations).unwrap_err();
        let kind = PatchErrorKind::VertexOutOfRange {
            vertex: n,
            num_vertices: n as usize,
        };
        assert_eq!(
            err,
            ServeError::Mutation {
                batch: 3,
                error: PatchError { op: 1, kind }
            }
        );
        assert_eq!(
            err.to_string(),
            format!(
                "mutation batch 3: mutation 1: vertex {n} out of range (graph has {n} vertices)"
            )
        );
    }

    #[test]
    fn mutating_serve_patches_the_session_instead_of_rebuilding() {
        use ascetic_algos::inmemory::run_in_memory;
        let g = uniform_graph(1_200, 9_000, false, 47);
        let sc = ServeConfig::new(cfg_for(&g), Policy::Fifo).without_batching();
        // find a vertex BFS(0) reaches in >= 3 hops (or never), then
        // insert a 0 -> far shortcut so the answer must visibly change
        let base_dist = match run_in_memory(&g, &ascetic_algos::Bfs::new(0)).output {
            AlgoOutput::Distances(d) => d,
            other => panic!("bfs yields distances, got {other:?}"),
        };
        let far = (0..g.num_vertices() as u32)
            .find(|&v| base_dist[v as usize] > 2)
            .expect("a 1200-vertex uniform graph has vertices beyond 2 hops");
        let mutations = [TraceMutation {
            at_ns: 1,
            mutation: Mutation::Insert {
                src: 0,
                dst: far,
                weight: None,
            },
        }];
        // job 0 decides at t=0 (epoch 0), job 1 after it (epoch 1)
        let jobs = [bfs_job(0, 0, 0), bfs_job(1, 0, 1)];
        let rep = serve_mutating(&sc, &g, None, &jobs, &mutations).unwrap();
        assert_eq!(
            rep.sessions_built, 1,
            "the session is repaired, not rebuilt"
        );
        assert_eq!(rep.mutations_applied, 1);
        assert!(
            rep.mutation_wire_bytes > 0,
            "the splice is paid on the wire"
        );
        // the answers bracket the mutation: job 0 over the base graph,
        // job 1 over the patched one — each bit-identical to the oracle
        let mut patched = g.clone();
        patched.apply(&[mutations[0].mutation]).unwrap();
        for (job, version) in rep.jobs.iter().zip([&g, &patched]) {
            assert_eq!(
                output_fingerprint(&job.output),
                output_fingerprint(&run_in_memory(version, &ascetic_algos::Bfs::new(0)).output),
                "job {} diverged from its epoch's recompute",
                job.id
            );
        }
        assert_ne!(
            output_fingerprint(&rep.jobs[0].output),
            output_fingerprint(&rep.jobs[1].output),
            "the shortcut must change the distances"
        );
        // the scheduler trace shows the splice window
        let trace = rep.span_trace.as_ref().expect("serve always traces");
        assert!(
            trace.spans().iter().any(|s| s.name.starts_with("mutate")),
            "patching appears on the scheduler track"
        );
    }

    #[test]
    fn mutating_serve_is_deterministic_and_consistent_under_every_policy() {
        use crate::policy::ALL_POLICIES;
        use crate::trace::synthetic_mutations;
        use ascetic_algos::inmemory::run_in_memory;
        let g = uniform_graph(1_500, 11_000, false, 53);
        let w = weighted_variant(&g);
        let jobs = synthetic_mixed(10, g.num_vertices(), 5, 200_000, 2);
        let mutations = synthetic_mutations(12, g.num_vertices(), 9, 400_000);
        // reconstruct the batches the server will apply, per variant
        let mut batches: Vec<Vec<Mutation>> = Vec::new();
        let mut last_at = None;
        for m in &mutations {
            if last_at != Some(m.at_ns) {
                last_at = Some(m.at_ns);
                batches.push(Vec::new());
            }
            batches.last_mut().unwrap().push(m.mutation);
        }
        let epochs = |base: &Csr, weighted: bool| -> Vec<Csr> {
            let mut variant = Variant::new(base, &batches, weighted).unwrap();
            let mut at = |e: usize| {
                variant.advance(e);
                variant.at(e).clone()
            };
            (0..=batches.len()).map(&mut at).collect()
        };
        let (un, we) = (epochs(&g, false), epochs(&w, true));
        // push sessions build no CSC mirror and are patched without one;
        // adaptive ones swap theirs for the patched transpose at each epoch
        let directions = [DirectionMode::Push, DirectionMode::Adaptive];
        for (policy, direction) in ALL_POLICIES.into_iter().zip(directions.into_iter().cycle()) {
            let sc = ServeConfig::new(cfg_for(&g).with_direction(direction), policy);
            let a = serve_mutating(&sc, &g, Some(&w), &jobs, &mutations).unwrap();
            let b = serve_mutating(&sc, &g, Some(&w), &jobs, &mutations).unwrap();
            assert_eq!(
                a.to_json(),
                b.to_json(),
                "{policy:?}: mutating serve must be deterministic"
            );
            // every answer is bit-identical to a recompute on *some* whole
            // epoch — never a half-patched hybrid graph
            for job in &a.jobs {
                let algo: Algo = job.algo.parse().expect("job algo is registered");
                let source = jobs
                    .iter()
                    .find(|j| j.id == job.id)
                    .and_then(|j| j.source)
                    .unwrap_or(0);
                let opts = ProgramOpts::from_source(source);
                let versions = if algo.weighted() { &we } else { &un };
                let matched = versions
                    .iter()
                    .any(|v| run_in_memory(v, &algo.program(&opts)).output == job.output);
                assert!(
                    matched,
                    "{policy:?}: job {} matches no epoch's recompute",
                    job.id
                );
            }
        }
    }
}
