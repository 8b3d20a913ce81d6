//! Engine timeline: CUDA-stream-like scheduling on the virtual clock.
//!
//! The P100 has independent DMA (copy) and compute engines, so a kernel can
//! execute while the next batch of data streams in — the mechanism behind
//! the paper's overlap optimization (Figure 5). We model three serially-
//! exclusive resources:
//!
//! * [`Engine::Copy`] — the H2D/D2H DMA engine,
//! * [`Engine::Compute`] — the SMs (one kernel at a time, as in a stream),
//! * [`Engine::Cpu`] — the host threads doing gather / on-demand work.
//!
//! An operation is scheduled with a *ready time* (its dependencies' latest
//! finish); it starts at `max(ready, engine_free)` and occupies the engine
//! for its duration. Baseline systems chain every op after the previous one
//! (no overlap); Ascetic hands independent ready-times to different engines
//! and the timeline computes the concurrency automatically.

use crate::time::SimTime;
use ascetic_obs::trace::{SpanTracer, CAT_WAIT};

/// Track-name prefix for per-copy-stream tracks in hierarchical traces
/// (`"PCIe copy stream 0"` is the default stream; consumers find the link
/// tracks by this prefix).
pub const COPY_STREAM_TRACK_PREFIX: &str = "PCIe copy stream";

/// Hierarchical-trace track name for copy stream `i`.
pub fn copy_stream_track_name(i: usize) -> String {
    format!("{COPY_STREAM_TRACK_PREFIX} {i}")
}

/// A FIFO command queue feeding the PCIe copy engine (a CUDA stream whose
/// work is pure DMA). Every timeline starts with one stream,
/// [`CopyStream::DEFAULT`]; more are minted with
/// [`Timeline::add_copy_stream`]. Streams order their own operations
/// FIFO but share the single physical link: an operation starts no
/// earlier than both its stream's frontier and the link's frontier, so
/// concurrent streams serialize on the wire in deterministic issue order
/// (round-robin falls out of alternating issues).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CopyStream(usize);

impl CopyStream {
    /// The stream every plain [`Engine::Copy`] operation runs on.
    pub const DEFAULT: CopyStream = CopyStream(0);
}

/// A serially-exclusive hardware resource.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// PCIe DMA engine.
    Copy,
    /// GPU compute (kernel) engine.
    Compute,
    /// Host CPU worker pool.
    Cpu,
}

const NUM_ENGINES: usize = 3;

impl Engine {
    fn index(self) -> usize {
        match self {
            Engine::Copy => 0,
            Engine::Compute => 1,
            Engine::Cpu => 2,
        }
    }
}

/// The executed interval of a scheduled operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// When the operation began executing.
    pub start: SimTime,
    /// When it finished.
    pub end: SimTime,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end.since(self.start)
    }
}

/// Per-run scheduling state plus busy-time accounting.
#[derive(Clone, Debug)]
pub struct Timeline {
    /// Earliest instant each engine is free. For [`Engine::Copy`] this is
    /// the shared *link* frontier — the latest finish over every stream —
    /// so single-copy-engine idle/overlap accounting stays exact with
    /// multiple streams (the wire is still one serially-exclusive
    /// resource).
    free_at: [SimTime; NUM_ENGINES],
    /// Total busy nanoseconds per engine. `busy_ns[Copy]` is the link
    /// total: the sum over streams (streams serialize on the wire, so the
    /// sum never double-counts an instant).
    busy_ns: [u64; NUM_ENGINES],
    /// Per-stream FIFO frontiers for the copy engine (index 0 = the
    /// default stream).
    stream_free_at: Vec<SimTime>,
    /// Per-stream busy nanoseconds.
    stream_busy_ns: Vec<u64>,
    /// Latest finish time seen so far (the makespan).
    horizon: SimTime,
    /// Hierarchical per-track tracer, when tracing is on — the one span
    /// recorder. Engine and per-stream tracks are fed from `record`;
    /// callers may add their own tracks (session phases, serve jobs) via
    /// [`Timeline::tracer_mut`].
    tracer: Option<SpanTracer>,
}

impl Default for Timeline {
    fn default() -> Self {
        Self::new()
    }
}

impl Timeline {
    /// A fresh timeline at time zero.
    pub fn new() -> Self {
        Timeline {
            free_at: [SimTime::ZERO; NUM_ENGINES],
            busy_ns: [0; NUM_ENGINES],
            stream_free_at: vec![SimTime::ZERO],
            stream_busy_ns: vec![0],
            horizon: SimTime::ZERO,
            tracer: None,
        }
    }

    /// Mint an additional copy stream (FIFO queue on the shared link).
    /// The default stream always exists; this returns a fresh handle
    /// starting free at the current barrier state of the copy engine.
    pub fn add_copy_stream(&mut self) -> CopyStream {
        let id = self.stream_free_at.len();
        // A new stream has issued nothing yet: it is free whenever the
        // link is (barriers already advanced the link frontier).
        self.stream_free_at.push(self.free_at[Engine::Copy.index()]);
        self.stream_busy_ns.push(0);
        if let Some(tr) = self.tracer.as_mut() {
            tr.track(&copy_stream_track_name(id));
        }
        CopyStream(id)
    }

    /// Start recording every scheduled span as hierarchical per-track
    /// spans in a [`SpanTracer`]. Tracks are interned eagerly (one per
    /// existing copy stream, one per compute/CPU engine) so track order
    /// does not depend on which operation happens to run first.
    pub fn enable_tracing(&mut self) {
        let streams = self.stream_free_at.len();
        let tr = self.tracer.get_or_insert_with(SpanTracer::new);
        for s in 0..streams {
            tr.track(&copy_stream_track_name(s));
        }
        tr.track(Engine::Compute.name());
        tr.track(Engine::Cpu.name());
    }

    /// The hierarchical tracer, if tracing is enabled. Callers add their
    /// own tracks (session phases, serve jobs) here; engine and stream
    /// tracks are fed automatically by scheduling.
    pub fn tracer_mut(&mut self) -> Option<&mut SpanTracer> {
        self.tracer.as_mut()
    }

    /// Take ownership of the hierarchical tracer (used when assembling a
    /// run report), leaving a fresh one armed the same way — a traced
    /// timeline keeps tracing its next run.
    pub fn take_tracer(&mut self) -> Option<SpanTracer> {
        let taken = self.tracer.take()?;
        self.enable_tracing();
        Some(taken)
    }

    /// Schedule an operation of `dur_ns` on `engine`, not before `ready`.
    /// Returns the executed span.
    pub fn schedule(&mut self, engine: Engine, ready: SimTime, dur_ns: u64) -> Span {
        self.schedule_labeled(engine, ready, dur_ns, String::new)
    }

    /// [`Timeline::schedule`] with a lazily-built label recorded when
    /// tracing is enabled (the closure never runs otherwise), under the
    /// engine's own span category.
    pub fn schedule_labeled(
        &mut self,
        engine: Engine,
        ready: SimTime,
        dur_ns: u64,
        label: impl FnOnce() -> String,
    ) -> Span {
        self.schedule_as(engine, engine.cat(), ready, dur_ns, label)
    }

    /// [`Timeline::schedule_labeled`] under the span category `cat` — for
    /// the caller that knows its operation is not the engine's usual kind
    /// (a decompression launch on the compute engine). A copy is a `dma`
    /// whatever it carries.
    pub fn schedule_as(
        &mut self,
        engine: Engine,
        cat: &'static str,
        ready: SimTime,
        dur_ns: u64,
        label: impl FnOnce() -> String,
    ) -> Span {
        if engine == Engine::Copy {
            return self.schedule_copy(CopyStream::DEFAULT, ready, dur_ns, label);
        }
        let i = engine.index();
        let start = self.free_at[i].max(ready);
        let end = start.after(dur_ns);
        self.free_at[i] = end;
        self.busy_ns[i] += dur_ns;
        self.horizon = self.horizon.max(end);
        self.record(engine, None, cat, start, end, label);
        Span { start, end }
    }

    /// Schedule a DMA of `dur_ns` on `stream`, not before `ready`. The
    /// operation waits for both the stream's own FIFO frontier and the
    /// shared link; completing it advances both, so streams interleave on
    /// the wire in deterministic issue order.
    pub fn schedule_copy(
        &mut self,
        stream: CopyStream,
        ready: SimTime,
        dur_ns: u64,
        label: impl FnOnce() -> String,
    ) -> Span {
        let i = Engine::Copy.index();
        // The stream's own FIFO would admit the op at `queue_ready`; any
        // extra delay until `start` is time lost arbitrating for the
        // shared link (recorded as a wait span on the stream's track).
        let queue_ready = self.stream_free_at[stream.0].max(ready);
        let start = queue_ready.max(self.free_at[i]);
        let end = start.after(dur_ns);
        self.stream_free_at[stream.0] = end;
        self.free_at[i] = end;
        self.busy_ns[i] += dur_ns;
        self.stream_busy_ns[stream.0] += dur_ns;
        self.horizon = self.horizon.max(end);
        if dur_ns > 0 && start > queue_ready {
            if let Some(tr) = self.tracer.as_mut() {
                let id = tr.track(&copy_stream_track_name(stream.0));
                tr.span(id, queue_ready.0, start.0, "link arbitration", CAT_WAIT);
            }
        }
        let (engine, stream) = (Engine::Copy, Some(stream.0));
        self.record(engine, stream, engine.cat(), start, end, label);
        Span { start, end }
    }

    fn record(
        &mut self,
        engine: Engine,
        stream: Option<usize>,
        cat: &str,
        start: SimTime,
        end: SimTime,
        label: impl FnOnce() -> String,
    ) {
        let Some(tr) = self.tracer.as_mut().filter(|_| end > start) else {
            return;
        };
        let label = label();
        let track = match stream {
            Some(s) => tr.track(&copy_stream_track_name(s)),
            None => tr.track(engine.name()),
        };
        let name = if label.is_empty() {
            "op"
        } else {
            label.as_str()
        };
        tr.span(track, start.0, end.0, name, cat);
    }

    /// The instant `engine` next becomes free. For [`Engine::Copy`] this
    /// is the shared link frontier (the latest finish over all streams).
    pub fn engine_free_at(&self, engine: Engine) -> SimTime {
        self.free_at[engine.index()]
    }

    /// The instant `stream`'s FIFO queue drains (its last op finishes).
    pub fn stream_free_at(&self, stream: CopyStream) -> SimTime {
        self.stream_free_at[stream.0]
    }

    /// Total busy time issued through `stream`, ns. The sum over streams
    /// equals [`Timeline::busy_ns`]`(Engine::Copy)`.
    pub fn stream_busy_ns(&self, stream: CopyStream) -> u64 {
        self.stream_busy_ns[stream.0]
    }

    /// Latest finish over all engines (current makespan).
    pub fn now(&self) -> SimTime {
        self.horizon
    }

    /// Total busy time of `engine`, ns.
    pub fn busy_ns(&self, engine: Engine) -> u64 {
        self.busy_ns[engine.index()]
    }

    /// Idle time of `engine` relative to the makespan, ns. For the GPU
    /// compute engine this is the paper's "GPU idle" metric (§2.2 reports
    /// 68 % idle for Subway BFS on friendster-konect).
    pub fn idle_ns(&self, engine: Engine) -> u64 {
        self.horizon.0.saturating_sub(self.busy_ns(engine))
    }

    /// Fast-forward every engine to at least `t` (an iteration barrier —
    /// the driver synchronizes all streams between iterations).
    pub fn barrier(&mut self, t: SimTime) {
        for f in &mut self.free_at {
            *f = (*f).max(t);
        }
        for f in &mut self.stream_free_at {
            *f = (*f).max(t);
        }
        self.horizon = self.horizon.max(t);
    }

    /// Barrier at the current makespan; returns it. Called at the end of
    /// each iteration (`cudaDeviceSynchronize` equivalent).
    pub fn sync_all(&mut self) -> SimTime {
        let t = self.horizon;
        self.barrier(t);
        t
    }
}

impl Engine {
    /// Display name used in trace exports.
    pub fn name(self) -> &'static str {
        match self {
            Engine::Copy => "PCIe copy engine",
            Engine::Compute => "GPU compute engine",
            Engine::Cpu => "Host CPU",
        }
    }

    /// Category of the spans the engine records for its usual work: the
    /// copy engine moves data, the compute engine runs kernels, the host
    /// CPU gathers and encodes.
    fn cat(self) -> &'static str {
        match self {
            Engine::Copy => "dma",
            Engine::Compute => "kernel",
            Engine::Cpu => "cpu",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_chain_accumulates() {
        let mut tl = Timeline::new();
        let a = tl.schedule(Engine::Cpu, SimTime::ZERO, 100);
        let b = tl.schedule(Engine::Copy, a.end, 50);
        let c = tl.schedule(Engine::Compute, b.end, 200);
        assert_eq!(a.start, SimTime(0));
        assert_eq!(b.start, SimTime(100));
        assert_eq!(c.start, SimTime(150));
        assert_eq!(tl.now(), SimTime(350));
    }

    #[test]
    fn overlap_across_engines() {
        let mut tl = Timeline::new();
        // Kernel and copy issued with the same ready time run concurrently.
        let k = tl.schedule(Engine::Compute, SimTime::ZERO, 300);
        let x = tl.schedule(Engine::Copy, SimTime::ZERO, 200);
        assert_eq!(k.start, x.start);
        assert_eq!(tl.now(), SimTime(300), "makespan = max, not sum");
    }

    #[test]
    fn same_engine_serializes() {
        let mut tl = Timeline::new();
        let a = tl.schedule(Engine::Compute, SimTime::ZERO, 100);
        // ready earlier than engine-free: starts when the engine frees
        let b = tl.schedule(Engine::Compute, SimTime::ZERO, 100);
        assert_eq!(a.end, b.start);
        assert_eq!(tl.now(), SimTime(200));
    }

    #[test]
    fn idle_accounting_matches_overlap() {
        let mut tl = Timeline::new();
        // Baseline-style: gather 300 then compute 100 -> compute idle 300.
        let g = tl.schedule(Engine::Cpu, SimTime::ZERO, 300);
        tl.schedule(Engine::Compute, g.end, 100);
        assert_eq!(tl.idle_ns(Engine::Compute), 300);
        assert_eq!(tl.busy_ns(Engine::Compute), 100);
        assert_eq!(tl.busy_ns(Engine::Cpu), 300);
    }

    #[test]
    fn barrier_advances_engines() {
        let mut tl = Timeline::new();
        tl.schedule(Engine::Copy, SimTime::ZERO, 100);
        tl.barrier(SimTime(500));
        let k = tl.schedule(Engine::Compute, SimTime::ZERO, 10);
        assert_eq!(k.start, SimTime(500), "barrier holds later ops");
        assert_eq!(tl.now(), SimTime(510));
    }

    #[test]
    fn sync_all_is_iteration_boundary() {
        let mut tl = Timeline::new();
        tl.schedule(Engine::Compute, SimTime::ZERO, 120);
        tl.schedule(Engine::Copy, SimTime::ZERO, 80);
        let t = tl.sync_all();
        assert_eq!(t, SimTime(120));
        let next = tl.schedule(Engine::Copy, SimTime::ZERO, 10);
        assert_eq!(next.start, SimTime(120));
    }

    /// Everything `tl`'s tracer recorded, as Perfetto JSON.
    fn perfetto(tl: &mut Timeline) -> String {
        let trace = tl.take_tracer().unwrap().finish();
        trace.to_perfetto_json(1)
    }

    #[test]
    fn tracing_records_labeled_spans() {
        let mut tl = Timeline::new();
        // before tracing: not recorded, and the label closure never runs
        tl.schedule_labeled(Engine::Copy, SimTime::ZERO, 10, || {
            panic!("label built with tracing off")
        });
        tl.enable_tracing();
        tl.schedule_labeled(Engine::Compute, SimTime::ZERO, 100, || "kernel".into());
        tl.schedule_labeled(Engine::Copy, SimTime::ZERO, 0, || "empty".into()); // zero-dur skipped
        let trace = tl.take_tracer().unwrap().finish();
        assert_eq!(trace.spans().len(), 1);
        assert_eq!(trace.spans()[0].name, "kernel");
        let compute = trace.track_index(Engine::Compute.name()).unwrap();
        assert_eq!(trace.spans()[0].track, compute);
    }

    #[test]
    fn perfetto_export_is_well_formed() {
        let mut tl = Timeline::new();
        tl.enable_tracing();
        tl.schedule_labeled(Engine::Cpu, SimTime::ZERO, 2_000, || "gather \"x\"".into());
        tl.schedule_labeled(Engine::Copy, SimTime(2_000), 1_000, || "H2D".into());
        let json = perfetto(&mut tl);
        assert!(json.starts_with('['));
        assert!(json.trim_end().ends_with(']'));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("Host CPU"));
        assert!(json.contains("gather \\\"x\\\"")); // quotes escaped
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        ascetic_obs::json::validate(&json).expect("trace JSON validates");
    }

    #[test]
    fn perfetto_export_escapes_control_characters() {
        let mut tl = Timeline::new();
        tl.enable_tracing();
        tl.schedule_labeled(Engine::Copy, SimTime::ZERO, 100, || {
            "line\nbreak\ttab \\ \u{01}".into()
        });
        let json = perfetto(&mut tl);
        assert!(json.contains("line\\nbreak\\ttab \\\\ \\u0001"));
        ascetic_obs::json::validate(&json).expect("control chars must be escaped");
    }

    #[test]
    fn perfetto_export_of_an_empty_trace_validates() {
        let mut tl = Timeline::new();
        tl.enable_tracing();
        let json = perfetto(&mut tl);
        assert!(
            json.contains("GPU compute engine"),
            "tracks are interned eagerly"
        );
        ascetic_obs::json::validate(&json).expect("metadata-only trace validates");
    }

    #[test]
    fn second_stream_serializes_on_the_shared_link() {
        let mut tl = Timeline::new();
        let pf = tl.add_copy_stream();
        // Default-stream op first, then a prefetch op with the same ready
        // time: the link is one wire, so they serialize in issue order.
        let a = tl.schedule(Engine::Copy, SimTime::ZERO, 100);
        let b = tl.schedule_copy(pf, SimTime::ZERO, 50, String::new);
        assert_eq!(a.end, b.start, "streams share the link FIFO");
        assert_eq!(tl.busy_ns(Engine::Copy), 150, "link busy = sum of streams");
        assert_eq!(tl.stream_busy_ns(CopyStream::DEFAULT), 100);
        assert_eq!(tl.stream_busy_ns(pf), 50);
        assert_eq!(tl.stream_free_at(pf), b.end);
        // Link idle accounting stays exact with two streams (satellite fix):
        // makespan 150, link busy 150 -> zero idle.
        assert_eq!(tl.idle_ns(Engine::Copy), 0);
    }

    #[test]
    fn streams_interleave_round_robin_by_issue_order() {
        let mut tl = Timeline::new();
        let pf = tl.add_copy_stream();
        let a = tl.schedule_copy(CopyStream::DEFAULT, SimTime::ZERO, 10, String::new);
        let b = tl.schedule_copy(pf, SimTime::ZERO, 10, String::new);
        let c = tl.schedule_copy(CopyStream::DEFAULT, SimTime::ZERO, 10, String::new);
        let d = tl.schedule_copy(pf, SimTime::ZERO, 10, String::new);
        assert_eq!(
            (a.start, b.start, c.start, d.start),
            (SimTime(0), SimTime(10), SimTime(20), SimTime(30)),
            "alternating issues alternate on the wire"
        );
    }

    #[test]
    fn default_stream_behaviour_is_unchanged_by_extra_streams() {
        // The same schedule with and without an (unused) second stream must
        // produce identical spans — existing timings cannot shift.
        let mut plain = Timeline::new();
        let mut multi = Timeline::new();
        let _pf = multi.add_copy_stream();
        for tl in [&mut plain, &mut multi] {
            tl.schedule(Engine::Copy, SimTime::ZERO, 70);
            tl.schedule(Engine::Compute, SimTime::ZERO, 100);
        }
        assert_eq!(plain.now(), multi.now());
        assert_eq!(
            plain.engine_free_at(Engine::Copy),
            multi.engine_free_at(Engine::Copy)
        );
        assert_eq!(plain.busy_ns(Engine::Copy), multi.busy_ns(Engine::Copy));
    }

    #[test]
    fn barrier_advances_stream_frontiers() {
        let mut tl = Timeline::new();
        let pf = tl.add_copy_stream();
        tl.schedule_copy(pf, SimTime::ZERO, 10, String::new);
        tl.barrier(SimTime(500));
        let s = tl.schedule_copy(pf, SimTime::ZERO, 10, String::new);
        assert_eq!(s.start, SimTime(500), "barrier holds stream ops too");
        assert_eq!(tl.stream_free_at(CopyStream::DEFAULT), SimTime(500));
    }

    #[test]
    fn new_stream_starts_at_the_link_frontier() {
        let mut tl = Timeline::new();
        tl.schedule(Engine::Copy, SimTime::ZERO, 80);
        let pf = tl.add_copy_stream();
        assert_eq!(tl.stream_free_at(pf), SimTime(80));
        assert_eq!(tl.stream_busy_ns(pf), 0);
    }

    #[test]
    fn tracer_builds_per_track_spans_with_arbitration_waits() {
        let mut tl = Timeline::new();
        tl.enable_tracing();
        let pf = tl.add_copy_stream();
        tl.schedule_labeled(Engine::Copy, SimTime::ZERO, 100, || "H2D a".into());
        // Prefetch issued at t=0 must wait for the link until t=100.
        tl.schedule_copy(pf, SimTime::ZERO, 50, || "prefetch b".into());
        tl.schedule_labeled(Engine::Compute, SimTime(100), 80, || "kernel".into());
        tl.schedule_as(Engine::Compute, "decode", SimTime::ZERO, 20, || {
            "decompress x".into()
        });
        let trace = tl.take_tracer().unwrap().finish();
        // Track order: streams first (creation order), then engines.
        assert_eq!(
            trace.tracks(),
            &[
                copy_stream_track_name(0),
                Engine::Compute.name().to_string(),
                Engine::Cpu.name().to_string(),
                copy_stream_track_name(1),
            ]
        );
        let pf_track = trace.track_index(&copy_stream_track_name(1)).unwrap();
        let pf_spans: Vec<_> = trace.track_spans(pf_track).collect();
        assert_eq!(pf_spans.len(), 2, "wait span + dma span");
        assert_eq!(pf_spans[0].cat, CAT_WAIT);
        assert_eq!((pf_spans[0].start_ns, pf_spans[0].end_ns), (0, 100));
        assert_eq!(pf_spans[1].name, "prefetch b");
        // Wait time is excluded from busy accounting: stream 1 busy = 50.
        assert_eq!(trace.busy_ns(pf_track, 0, 200), 50);
        let k = trace.track_index(Engine::Compute.name()).unwrap();
        let cats: Vec<_> = trace.track_spans(k).map(|s| s.cat.as_str()).collect();
        assert_eq!(cats, ["kernel", "decode"]);
    }

    #[test]
    fn zero_duration_span() {
        let mut tl = Timeline::new();
        let s = tl.schedule(Engine::Cpu, SimTime(42), 0);
        assert_eq!(s.duration(), 0);
        assert_eq!((s.start, s.end), (SimTime(42), SimTime(42)));
    }
}
