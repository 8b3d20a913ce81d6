//! Hierarchical span tracer stamped by the virtual clock.
//!
//! The flat [`crate::event::EventLog`] answers *what happened*; this module
//! answers *where the time went*. A [`SpanTracer`] collects nested spans on
//! named **tracks** — one per copy stream, one per compute engine, one per
//! serve job — and freezes into an immutable [`Trace`] that exports as a
//! Chrome/Perfetto `trace.json` (open in `ui.perfetto.dev`) or a compact
//! JSONL stream, and can answer busy/idle/overlap queries over arbitrary
//! windows (the Fig-8 utilization breakdown, per iteration).
//!
//! Timestamps are plain `u64` virtual nanoseconds supplied by the caller
//! (`ascetic-sim`'s clock, or the serve clock); nothing here reads the wall
//! clock, so a trace is byte-identical across runs and host thread counts.
//!
//! Nesting is enforced at record time: on each track, `begin`/`end` follow
//! a stack discipline, children must lie inside their parent, and siblings
//! may not overlap. Violations return a [`TraceError`] carrying the
//! 1-based index of the offending operation, so a broken instrumentation
//! site is pointed at directly instead of producing a garbled trace.

use crate::json;

/// Category for arbitration/queueing gaps. Spans with this category render
/// in the trace but are *excluded* from busy-time accounting — a stream
/// waiting for the PCIe link is idle time, not work.
pub const CAT_WAIT: &str = "wait";

/// Handle to a named track inside one tracer (index into its track table).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TrackId(usize);

impl TrackId {
    /// Position of the track in [`Trace::tracks`] / [`SpanTracer::tracks`].
    pub fn index(self) -> usize {
        self.0
    }
}

/// What went wrong while recording spans.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceErrorKind {
    /// `end` with no open span on the track.
    EndWithoutBegin,
    /// `end` before the innermost open span's start (or before its last
    /// closed child's end — closing there would orphan the child).
    EndBeforeStart {
        /// Requested end instant.
        at: u64,
        /// Earliest legal end instant.
        min: u64,
    },
    /// `begin` (or `complete`) earlier than allowed: a child must start
    /// inside its parent and after the previous sibling ended.
    BeginBeforeFrontier {
        /// Requested start instant.
        at: u64,
        /// Earliest legal start instant.
        min: u64,
    },
    /// `complete` with `end < start`.
    NegativeSpan {
        /// Requested start instant.
        start: u64,
        /// Requested end instant.
        end: u64,
    },
    /// `finish` while a span was still open (its `begin` op is reported).
    UnclosedSpan,
}

/// A span-nesting violation, pinned to the 1-based index of the recording
/// operation (`begin`/`end`/`complete` each count as one operation) that
/// caused it — the "line number" of the broken instrumentation site.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceError {
    /// 1-based index of the offending operation.
    pub op: u64,
    /// Track the operation targeted.
    pub track: String,
    /// Violation detail.
    pub kind: TraceErrorKind,
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace op {} on track \"{}\": ", self.op, self.track)?;
        match &self.kind {
            TraceErrorKind::EndWithoutBegin => write!(f, "end without begin"),
            TraceErrorKind::EndBeforeStart { at, min } => {
                write!(f, "end at {at} before earliest legal end {min}")
            }
            TraceErrorKind::BeginBeforeFrontier { at, min } => {
                write!(f, "begin at {at} before frontier {min}")
            }
            TraceErrorKind::NegativeSpan { start, end } => {
                write!(f, "span ends ({end}) before it starts ({start})")
            }
            TraceErrorKind::UnclosedSpan => write!(f, "span still open at finish"),
        }
    }
}

impl std::error::Error for TraceError {}

/// One closed span in a finished [`Trace`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TracedSpan {
    /// Owning track (index into [`Trace::tracks`]).
    pub track: usize,
    /// Human-readable label.
    pub name: String,
    /// Category tag (`"dma"`, `"kernel"`, `"phase"`, [`CAT_WAIT`], …).
    pub cat: String,
    /// Start instant, virtual ns.
    pub start_ns: u64,
    /// End instant, virtual ns (`end_ns >= start_ns`).
    pub end_ns: u64,
    /// Nesting depth (0 = top level on its track).
    pub depth: u32,
}

impl TracedSpan {
    /// Span length in virtual ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One still-open span on a track's stack.
#[derive(Clone, Debug)]
struct Open {
    name: String,
    cat: String,
    start_ns: u64,
    /// End of the last closed child; the earliest instant the next child
    /// may begin at, and the earliest instant this span may end at.
    child_frontier: u64,
    /// 1-based op index of the `begin` that opened this span.
    op: u64,
}

/// Per-track mutable state while recording.
#[derive(Clone, Debug, Default)]
struct TrackState {
    stack: Vec<Open>,
    /// End of the last closed top-level span (root sibling frontier).
    root_frontier: u64,
}

/// Collects spans on named tracks; [`SpanTracer::finish`] freezes it into
/// a [`Trace`].
#[derive(Clone, Debug, Default)]
pub struct SpanTracer {
    names: Vec<String>,
    state: Vec<TrackState>,
    spans: Vec<TracedSpan>,
    ops: u64,
}

impl SpanTracer {
    /// An empty tracer with no tracks.
    pub fn new() -> Self {
        SpanTracer::default()
    }

    /// Intern a track by name: returns the existing id if `name` is
    /// already a track, otherwise appends a new one. Track order is
    /// creation order (deterministic — recording happens on the single
    /// orchestration thread).
    pub fn track(&mut self, name: &str) -> TrackId {
        if let Some(i) = self.names.iter().position(|n| n == name) {
            return TrackId(i);
        }
        self.names.push(name.to_string());
        self.state.push(TrackState::default());
        TrackId(self.names.len() - 1)
    }

    /// Track names in creation order.
    pub fn tracks(&self) -> &[String] {
        &self.names
    }

    /// Number of closed spans so far.
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    fn err(&self, track: TrackId, kind: TraceErrorKind) -> TraceError {
        TraceError {
            op: self.ops,
            track: self.names[track.0].clone(),
            kind,
        }
    }

    /// Open a span on `track` at instant `t_ns`. Fails if `t_ns` is
    /// earlier than the innermost open span's child frontier (children
    /// must start inside their parent and after the previous sibling).
    pub fn begin(
        &mut self,
        track: TrackId,
        t_ns: u64,
        name: &str,
        cat: &str,
    ) -> Result<(), TraceError> {
        self.ops += 1;
        let st = &self.state[track.0];
        let min = match st.stack.last() {
            Some(parent) => parent.child_frontier,
            None => st.root_frontier,
        };
        if t_ns < min {
            return Err(self.err(track, TraceErrorKind::BeginBeforeFrontier { at: t_ns, min }));
        }
        let op = self.ops;
        self.state[track.0].stack.push(Open {
            name: name.to_string(),
            cat: cat.to_string(),
            start_ns: t_ns,
            child_frontier: t_ns,
            op,
        });
        Ok(())
    }

    /// Close the innermost open span on `track` at instant `t_ns`.
    pub fn end(&mut self, track: TrackId, t_ns: u64) -> Result<(), TraceError> {
        self.ops += 1;
        let st = &self.state[track.0];
        let Some(top) = st.stack.last() else {
            return Err(self.err(track, TraceErrorKind::EndWithoutBegin));
        };
        let min = top.child_frontier.max(top.start_ns);
        if t_ns < min {
            return Err(self.err(track, TraceErrorKind::EndBeforeStart { at: t_ns, min }));
        }
        let st = &mut self.state[track.0];
        let depth = (st.stack.len() - 1) as u32;
        let top = st.stack.pop().expect("checked non-empty");
        match st.stack.last_mut() {
            Some(parent) => parent.child_frontier = t_ns,
            None => st.root_frontier = t_ns,
        }
        self.spans.push(TracedSpan {
            track: track.0,
            name: top.name,
            cat: top.cat,
            start_ns: top.start_ns,
            end_ns: t_ns,
            depth,
        });
        Ok(())
    }

    /// Record an already-closed span `[start_ns, end_ns]`, nesting under
    /// the innermost open span on `track` (one operation, one error site).
    pub fn complete(
        &mut self,
        track: TrackId,
        start_ns: u64,
        end_ns: u64,
        name: &str,
        cat: &str,
    ) -> Result<(), TraceError> {
        self.ops += 1;
        if end_ns < start_ns {
            return Err(self.err(
                track,
                TraceErrorKind::NegativeSpan {
                    start: start_ns,
                    end: end_ns,
                },
            ));
        }
        let st = &self.state[track.0];
        let min = match st.stack.last() {
            Some(parent) => parent.child_frontier,
            None => st.root_frontier,
        };
        if start_ns < min {
            return Err(self.err(
                track,
                TraceErrorKind::BeginBeforeFrontier { at: start_ns, min },
            ));
        }
        let st = &mut self.state[track.0];
        let depth = st.stack.len() as u32;
        match st.stack.last_mut() {
            Some(parent) => parent.child_frontier = end_ns,
            None => st.root_frontier = end_ns,
        }
        self.spans.push(TracedSpan {
            track: track.0,
            name: name.to_string(),
            cat: cat.to_string(),
            start_ns,
            end_ns,
            depth,
        });
        Ok(())
    }

    /// Freeze into an immutable [`Trace`]. Fails (pointing at the earliest
    /// offending `begin`) if any span is still open.
    pub fn finish(self) -> Result<Trace, TraceError> {
        let mut unclosed: Option<(u64, usize)> = None;
        for (i, st) in self.state.iter().enumerate() {
            for open in &st.stack {
                if unclosed.map(|(op, _)| open.op < op).unwrap_or(true) {
                    unclosed = Some((open.op, i));
                }
            }
        }
        if let Some((op, track)) = unclosed {
            return Err(TraceError {
                op,
                track: self.names[track].clone(),
                kind: TraceErrorKind::UnclosedSpan,
            });
        }
        let mut spans = self.spans;
        // Stable sort: per track in time order, parents before children at
        // equal starts. Insertion order breaks remaining ties stably.
        spans.sort_by_key(|s| (s.track, s.start_ns, s.depth));
        Ok(Trace {
            tracks: self.names,
            spans,
        })
    }
}

/// A finished, immutable span trace.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Trace {
    tracks: Vec<String>,
    /// Sorted by `(track, start_ns, depth)`, stable.
    spans: Vec<TracedSpan>,
}

impl Trace {
    /// Track names; [`TracedSpan::track`] indexes into this.
    pub fn tracks(&self) -> &[String] {
        &self.tracks
    }

    /// All spans, sorted by `(track, start_ns, depth)`.
    pub fn spans(&self) -> &[TracedSpan] {
        &self.spans
    }

    /// Index of the track named `name`, if present.
    pub fn track_index(&self, name: &str) -> Option<usize> {
        self.tracks.iter().position(|n| n == name)
    }

    /// Spans on one track, in time order.
    pub fn track_spans(&self, track: usize) -> impl Iterator<Item = &TracedSpan> {
        self.spans.iter().filter(move |s| s.track == track)
    }

    /// Latest end instant across all spans (0 for an empty trace).
    pub fn horizon_ns(&self) -> u64 {
        self.spans.iter().map(|s| s.end_ns).max().unwrap_or(0)
    }

    /// Merge `other` into this trace, prefixing every incoming track name
    /// with `prefix` (e.g. `"dev1/"`). The fleet layer uses this to fold N
    /// per-device traces — all stamped by the same virtual clock — into
    /// one Perfetto file with `dev0/GPU`, `dev1/GPU`, … tracks. A prefixed
    /// name that already exists merges onto the existing track; span
    /// sort order (`(track, start_ns, depth)`) is restored afterwards.
    pub fn merge_prefixed(&mut self, other: &Trace, prefix: &str) {
        let remap: Vec<usize> = other
            .tracks
            .iter()
            .map(|name| {
                let full = format!("{prefix}{name}");
                self.track_index(&full).unwrap_or_else(|| {
                    self.tracks.push(full);
                    self.tracks.len() - 1
                })
            })
            .collect();
        self.spans.extend(other.spans.iter().map(|s| TracedSpan {
            track: remap[s.track],
            ..s.clone()
        }));
        self.spans
            .sort_by_key(|s| (s.track, s.start_ns, s.depth, s.end_ns));
    }

    /// Top-level (depth 0) work intervals of `track` — the busy intervals
    /// used by utilization queries. [`CAT_WAIT`] spans are skipped: a
    /// stream stalled on link arbitration is idle, not busy. Intervals are
    /// non-overlapping and sorted (guaranteed by the recording rules).
    fn busy_intervals(&self, track: usize) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.spans.iter().filter_map(move |s| {
            (s.track == track && s.depth == 0 && s.cat != CAT_WAIT && s.end_ns > s.start_ns)
                .then_some((s.start_ns, s.end_ns))
        })
    }

    /// Busy nanoseconds of `track` inside the window `[w0, w1)`.
    pub fn busy_ns(&self, track: usize, w0: u64, w1: u64) -> u64 {
        self.busy_intervals(track)
            .map(|(s, e)| clip(s, e, w0, w1))
            .sum()
    }

    /// Busy nanoseconds of the *union* of several tracks inside
    /// `[w0, w1)` — e.g. all copy streams together = PCIe link busy.
    pub fn busy_union_ns(&self, tracks: &[usize], w0: u64, w1: u64) -> u64 {
        let mut iv: Vec<(u64, u64)> = tracks
            .iter()
            .flat_map(|&t| self.busy_intervals(t))
            .map(|(s, e)| (s.max(w0), e.min(w1)))
            .filter(|&(s, e)| s < e)
            .collect();
        iv.sort_unstable();
        merge_intervals(iv).iter().map(|(s, e)| e - s).sum()
    }

    /// Nanoseconds inside `[w0, w1)` where both `a`-union and `b`-union
    /// are busy simultaneously — the transfer/compute *overlap* the paper
    /// optimizes for (Figure 5).
    pub fn overlap_ns(&self, a: &[usize], b: &[usize], w0: u64, w1: u64) -> u64 {
        let collect = |tracks: &[usize]| -> Vec<(u64, u64)> {
            let mut iv: Vec<(u64, u64)> = tracks
                .iter()
                .flat_map(|&t| self.busy_intervals(t))
                .map(|(s, e)| (s.max(w0), e.min(w1)))
                .filter(|&(s, e)| s < e)
                .collect();
            iv.sort_unstable();
            merge_intervals(iv)
        };
        let ia = collect(a);
        let ib = collect(b);
        let (mut i, mut j, mut total) = (0, 0, 0u64);
        while i < ia.len() && j < ib.len() {
            let s = ia[i].0.max(ib[j].0);
            let e = ia[i].1.min(ib[j].1);
            if s < e {
                total += e - s;
            }
            if ia[i].1 <= ib[j].1 {
                i += 1;
            } else {
                j += 1;
            }
        }
        total
    }

    /// The `k` longest spans, ties broken by earlier start, lower track,
    /// shallower depth (deterministic).
    pub fn top_spans(&self, k: usize) -> Vec<&TracedSpan> {
        let mut all: Vec<&TracedSpan> = self.spans.iter().collect();
        all.sort_by_key(|s| (std::cmp::Reverse(s.dur_ns()), s.start_ns, s.track, s.depth));
        all.truncate(k);
        all
    }

    /// Export as a Chrome/Perfetto trace (JSON array of events, one per
    /// line): per-track `thread_name` metadata followed by `ph:"X"`
    /// complete events with microsecond `ts`/`dur` at nanosecond
    /// precision. `schema_version` is stamped in a metadata event so
    /// consumers can detect drift. Open the file in `ui.perfetto.dev` or
    /// `chrome://tracing`.
    pub fn to_perfetto_json(&self, schema_version: u32) -> String {
        let mut out = String::with_capacity(128 + self.spans.len() * 96);
        out.push_str("[\n");
        out.push_str(&format!(
            "{{\"name\":\"ascetic_schema\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
             \"args\":{{\"schema_version\":{schema_version}}}}}"
        ));
        for (i, name) in self.tracks.iter().enumerate() {
            out.push_str(",\n");
            out.push_str(&format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\"args\":{{\"name\":",
                i + 1
            ));
            json::string_into(name, &mut out);
            out.push_str("}}");
        }
        for s in &self.spans {
            out.push_str(",\n{\"name\":");
            json::string_into(&s.name, &mut out);
            out.push_str(",\"cat\":");
            json::string_into(&s.cat, &mut out);
            out.push_str(&format!(
                ",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{}}}",
                s.track + 1,
                us(s.start_ns),
                us(s.dur_ns())
            ));
        }
        out.push_str("\n]\n");
        out
    }

    /// Export as compact JSONL: a meta line (`kind`, `schema_version`,
    /// track table, span count), then one object per span in
    /// `(track, start, depth)` order. This is the form
    /// [`Trace::from_jsonl`] and `ascetic trace summarize` consume.
    pub fn to_jsonl(&self, schema_version: u32) -> String {
        let mut out = String::with_capacity(96 + self.spans.len() * 80);
        out.push_str(&format!(
            "{{\"kind\":\"trace_meta\",\"schema_version\":{schema_version},\"tracks\":["
        ));
        for (i, name) in self.tracks.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::string_into(name, &mut out);
        }
        out.push_str(&format!("],\"spans\":{}}}\n", self.spans.len()));
        for s in &self.spans {
            out.push_str(&format!("{{\"track\":{},\"name\":", s.track));
            json::string_into(&s.name, &mut out);
            out.push_str(",\"cat\":");
            json::string_into(&s.cat, &mut out);
            out.push_str(&format!(
                ",\"start_ns\":{},\"dur_ns\":{},\"depth\":{}}}\n",
                s.start_ns,
                s.dur_ns(),
                s.depth
            ));
        }
        out
    }

    /// Parse the JSONL form back into a trace. Returns the schema version
    /// from the meta line alongside the trace; fails with a line-numbered
    /// message on malformed input.
    pub fn from_jsonl(text: &str) -> Result<(Trace, u32), String> {
        let mut lines = json::numbered_lines(text);
        let (_, meta) = lines
            .next()
            .ok_or_else(|| "trace line 1: empty input".to_string())?;
        json::validate(meta).map_err(|e| format!("trace line 1: {e}"))?;
        if !meta.starts_with("{\"kind\":\"trace_meta\"") {
            return Err("trace line 1: missing trace_meta header".to_string());
        }
        let schema_version = field_u64(meta, "schema_version")
            .ok_or_else(|| "trace line 1: missing schema_version".to_string())?
            as u32;
        let tracks = meta_tracks(meta).ok_or_else(|| "trace line 1: bad tracks".to_string())?;
        let mut spans = Vec::new();
        for (lineno, line) in lines {
            json::validate(line).map_err(|e| format!("trace line {lineno}: {e}"))?;
            let bad = || format!("trace line {lineno}: missing span field");
            let track = field_u64(line, "track").ok_or_else(bad)? as usize;
            if track >= tracks.len() {
                return Err(format!("trace line {lineno}: track {track} out of range"));
            }
            let start_ns = field_u64(line, "start_ns").ok_or_else(bad)?;
            let dur_ns = field_u64(line, "dur_ns").ok_or_else(bad)?;
            let depth = field_u64(line, "depth").ok_or_else(bad)? as u32;
            spans.push(TracedSpan {
                track,
                name: field_str(line, "name").ok_or_else(bad)?,
                cat: field_str(line, "cat").ok_or_else(bad)?,
                start_ns,
                end_ns: start_ns + dur_ns,
                depth,
            });
        }
        spans.sort_by_key(|s| (s.track, s.start_ns, s.depth));
        Ok((Trace { tracks, spans }, schema_version))
    }
}

/// Clip `[s, e)` to `[w0, w1)` and return the remaining length.
fn clip(s: u64, e: u64, w0: u64, w1: u64) -> u64 {
    let s = s.max(w0);
    let e = e.min(w1);
    e.saturating_sub(s)
}

/// Merge sorted intervals into a disjoint cover.
fn merge_intervals(iv: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(iv.len());
    for (s, e) in iv {
        match out.last_mut() {
            Some((_, ce)) if s <= *ce => *ce = (*ce).max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

/// Nanoseconds rendered as microseconds with 3 decimal places (the
/// resolution Chrome's trace viewer expects), exactly.
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

/// Extract an unsigned integer field `"key":123` from a flat JSON object
/// line we emitted ourselves (no nested objects between keys).
fn field_u64(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let at = line.find(&pat)? + pat.len();
    let rest = &line[at..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extract a string field `"key":"..."` (JSON-unescaped) from a flat
/// object line we emitted ourselves.
fn field_str(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":\"");
    let at = line.find(&pat)? + pat.len();
    unescape_prefix(&line[at..])
}

/// Unescape a JSON string up to its closing quote.
fn unescape_prefix(s: &str) -> Option<String> {
    let mut out = String::new();
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                '/' => out.push('/'),
                'n' => out.push('\n'),
                't' => out.push('\t'),
                'r' => out.push('\r'),
                'b' => out.push('\u{8}'),
                'f' => out.push('\u{c}'),
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    let code = u32::from_str_radix(&hex, 16).ok()?;
                    out.push(char::from_u32(code)?);
                }
                _ => return None,
            },
            c => out.push(c),
        }
    }
    None
}

/// Parse the `"tracks":[...]` array from the meta line.
fn meta_tracks(meta: &str) -> Option<Vec<String>> {
    let at = meta.find("\"tracks\":[")? + "\"tracks\":[".len();
    let mut rest = &meta[at..];
    let mut tracks = Vec::new();
    loop {
        match rest.chars().next()? {
            ']' => return Some(tracks),
            ',' => rest = &rest[1..],
            '"' => {
                let name = unescape_prefix(&rest[1..])?;
                // Skip past the escaped representation: re-escape to find
                // the consumed length deterministically.
                let consumed = 1 + json::escape(&name).len() + 1;
                rest = &rest[consumed..];
                tracks.push(name);
            }
            _ => return None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracer_with(ops: &[(&str, u64, u64, &str)]) -> Trace {
        let mut t = SpanTracer::new();
        for &(track, s, e, name) in ops {
            let id = t.track(track);
            t.complete(id, s, e, name, "test").unwrap();
        }
        t.finish().unwrap()
    }

    #[test]
    fn begin_end_nest_and_export() {
        let mut t = SpanTracer::new();
        let a = t.track("engine");
        t.begin(a, 0, "outer", "phase").unwrap();
        t.complete(a, 10, 20, "child", "kernel").unwrap();
        t.begin(a, 30, "grand", "kernel").unwrap();
        t.end(a, 40).unwrap();
        t.end(a, 50).unwrap();
        let trace = t.finish().unwrap();
        assert_eq!(trace.tracks(), &["engine".to_string()]);
        let depths: Vec<u32> = trace.spans().iter().map(|s| s.depth).collect();
        assert_eq!(depths, [0, 1, 1]);
        let json = trace.to_perfetto_json(3);
        crate::json::validate(&json).expect("perfetto json parses");
        assert!(json.contains("\"schema_version\":3"));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"ts\":0.010")); // 10 ns = 0.010 µs
    }

    #[test]
    fn errors_carry_op_index() {
        let mut t = SpanTracer::new();
        let a = t.track("x");
        t.begin(a, 5, "s", "c").unwrap(); // op 1
        let err = t.end(a, 3).unwrap_err(); // op 2
        assert_eq!(err.op, 2);
        assert_eq!(err.track, "x");
        assert!(matches!(
            err.kind,
            TraceErrorKind::EndBeforeStart { at: 3, min: 5 }
        ));

        let mut t = SpanTracer::new();
        let a = t.track("x");
        let err = t.end(a, 0).unwrap_err(); // op 1: nothing open
        assert_eq!(err.op, 1);
        assert_eq!(err.kind, TraceErrorKind::EndWithoutBegin);

        let mut t = SpanTracer::new();
        let a = t.track("x");
        t.complete(a, 0, 10, "s1", "c").unwrap(); // op 1
        let err = t.complete(a, 5, 8, "s2", "c").unwrap_err(); // op 2 overlaps
        assert_eq!(err.op, 2);
        assert!(matches!(
            err.kind,
            TraceErrorKind::BeginBeforeFrontier { at: 5, min: 10 }
        ));

        let mut t = SpanTracer::new();
        let a = t.track("x");
        t.begin(a, 0, "open", "c").unwrap(); // op 1, never closed
        let err = t.finish().unwrap_err();
        assert_eq!(err.op, 1);
        assert_eq!(err.kind, TraceErrorKind::UnclosedSpan);
    }

    #[test]
    fn end_cannot_orphan_children() {
        let mut t = SpanTracer::new();
        let a = t.track("x");
        t.begin(a, 0, "outer", "c").unwrap();
        t.complete(a, 2, 8, "child", "c").unwrap();
        let err = t.end(a, 6).unwrap_err(); // child ends at 8
        assert!(matches!(
            err.kind,
            TraceErrorKind::EndBeforeStart { at: 6, min: 8 }
        ));
        t.end(a, 8).unwrap();
        t.finish().unwrap();
    }

    #[test]
    fn utilization_busy_union_overlap() {
        let trace = tracer_with(&[
            ("copy0", 0, 10, "dma a"),
            ("copy0", 20, 30, "dma b"),
            ("copy1", 5, 25, "prefetch"),
            ("compute", 8, 28, "kernel"),
        ]);
        let c0 = trace.track_index("copy0").unwrap();
        let c1 = trace.track_index("copy1").unwrap();
        let k = trace.track_index("compute").unwrap();
        assert_eq!(trace.busy_ns(c0, 0, 30), 20);
        assert_eq!(trace.busy_ns(c0, 5, 25), 10);
        // Union of copy streams: [0,10) ∪ [5,25) ∪ [20,30) = [0,30).
        assert_eq!(trace.busy_union_ns(&[c0, c1], 0, 30), 30);
        // Overlap of link and compute: [0,30) ∩ [8,28) = 20.
        assert_eq!(trace.overlap_ns(&[c0, c1], &[k], 0, 30), 20);
        assert_eq!(trace.horizon_ns(), 30);
    }

    #[test]
    fn wait_spans_render_but_do_not_count_as_busy() {
        let mut t = SpanTracer::new();
        let a = t.track("copy1");
        t.complete(a, 0, 10, "arbitration", CAT_WAIT).unwrap();
        t.complete(a, 10, 30, "dma", "dma").unwrap();
        let trace = t.finish().unwrap();
        assert_eq!(trace.busy_ns(0, 0, 30), 20);
        assert!(trace.to_perfetto_json(3).contains("arbitration"));
    }

    #[test]
    fn top_spans_are_deterministic() {
        let trace = tracer_with(&[("a", 0, 10, "s1"), ("a", 10, 30, "s2"), ("b", 0, 20, "s3")]);
        let top: Vec<&str> = trace.top_spans(2).iter().map(|s| s.name.as_str()).collect();
        assert_eq!(top, ["s3", "s2"]); // equal durations: earlier start wins
    }

    #[test]
    fn jsonl_round_trips() {
        let trace = tracer_with(&[
            ("copy \"0\"", 0, 10, "dma\nweird"),
            ("compute", 5, 9, "kernel"),
        ]);
        let jsonl = trace.to_jsonl(3);
        for line in jsonl.lines() {
            crate::json::validate(line).expect("every jsonl line parses");
        }
        let (back, ver) = Trace::from_jsonl(&jsonl).unwrap();
        assert_eq!(ver, 3);
        assert_eq!(back, trace);
    }

    #[test]
    fn from_jsonl_rejects_garbage_with_line_numbers() {
        assert!(Trace::from_jsonl("").unwrap_err().contains("line 1"));
        assert!(Trace::from_jsonl("{\"kind\":\"nope\"}")
            .unwrap_err()
            .contains("line 1"));
        let good = tracer_with(&[("t", 0, 5, "s")]).to_jsonl(3);
        let bad = format!("{good}{{\"track\":9,\"name\":\"x\",\"cat\":\"c\",\"start_ns\":0,\"dur_ns\":1,\"depth\":0}}\n");
        assert!(Trace::from_jsonl(&bad)
            .unwrap_err()
            .contains("out of range"));
    }

    #[test]
    fn empty_trace_exports_validate() {
        let trace = SpanTracer::new().finish().unwrap();
        crate::json::validate(&trace.to_perfetto_json(3)).unwrap();
        let (back, _) = Trace::from_jsonl(&trace.to_jsonl(3)).unwrap();
        assert_eq!(back, trace);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    #[derive(Clone, Debug)]
    enum Op {
        Begin { track: u8, t: u64 },
        End { track: u8, t: u64 },
        Complete { track: u8, s: u64, d: u64 },
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u8..3, 0u64..1000).prop_map(|(track, t)| Op::Begin { track, t }),
            (0u8..3, 0u64..1000).prop_map(|(track, t)| Op::End { track, t }),
            (0u8..3, 0u64..1000, 0u64..100).prop_map(|(track, s, d)| Op::Complete { track, s, d }),
        ]
    }

    /// The forest invariants a finished trace must satisfy on each track:
    /// spans sorted, children strictly inside parents, siblings disjoint.
    fn assert_well_formed(trace: &Trace) {
        for track in 0..trace.tracks().len() {
            // Stack replay: a span at depth d must be contained in the
            // current open chain of depth d-1.
            let mut stack: Vec<(u64, u64)> = Vec::new();
            for s in trace.track_spans(track) {
                stack.truncate(s.depth as usize);
                if let Some(&(ps, pe)) = stack.last() {
                    assert!(ps <= s.start_ns && s.end_ns <= pe, "child escapes parent");
                }
                assert!(s.start_ns <= s.end_ns);
                stack.push((s.start_ns, s.end_ns));
            }
            // Depth-0 spans are disjoint and ordered.
            let mut last_end = 0;
            for s in trace.track_spans(track).filter(|s| s.depth == 0) {
                assert!(s.start_ns >= last_end, "top-level spans overlap");
                last_end = s.end_ns;
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// Arbitrary interleavings of begin/end/complete either build a
        /// well-formed forest or fail with the index of the bad operation.
        #[test]
        fn interleavings_forest_or_line_numbered_error(ops in proptest::collection::vec(arb_op(), 0..40)) {
            let mut tracer = SpanTracer::new();
            let mut applied: u64 = 0;
            let mut failed_at: Option<u64> = None;
            for op in &ops {
                applied += 1;
                let r = match *op {
                    Op::Begin { track, t } => {
                        let id = tracer.track(&format!("t{track}"));
                        tracer.begin(id, t, "span", "c")
                    }
                    Op::End { track, t } => {
                        let id = tracer.track(&format!("t{track}"));
                        tracer.end(id, t)
                    }
                    Op::Complete { track, s, d } => {
                        let id = tracer.track(&format!("t{track}"));
                        tracer.complete(id, s, s + d, "span", "c")
                    }
                };
                if let Err(e) = r {
                    // The error is pinned to exactly the op that failed.
                    prop_assert_eq!(e.op, applied);
                    failed_at = Some(applied);
                    break;
                }
            }
            match tracer.finish() {
                Ok(trace) => assert_well_formed(&trace),
                Err(e) => {
                    // Only unclosed spans can fail finish, and the op index
                    // points inside the applied prefix.
                    prop_assert_eq!(e.kind, TraceErrorKind::UnclosedSpan);
                    prop_assert!(e.op <= failed_at.unwrap_or(applied));
                }
            }
        }

        /// Whatever survives recording round-trips through JSONL.
        #[test]
        fn surviving_traces_round_trip(ops in proptest::collection::vec(arb_op(), 0..40)) {
            let mut tracer = SpanTracer::new();
            for op in &ops {
                let ok = match *op {
                    Op::Begin { track, t } => {
                        let id = tracer.track(&format!("t{track}"));
                        tracer.begin(id, t, "span", "c").is_ok()
                    }
                    Op::End { track, t } => {
                        let id = tracer.track(&format!("t{track}"));
                        tracer.end(id, t).is_ok()
                    }
                    Op::Complete { track, s, d } => {
                        let id = tracer.track(&format!("t{track}"));
                        tracer.complete(id, s, s + d, "span", "c").is_ok()
                    }
                };
                if !ok {
                    break;
                }
            }
            if let Ok(trace) = tracer.finish() {
                let (back, _) = Trace::from_jsonl(&trace.to_jsonl(3)).unwrap();
                prop_assert_eq!(back, trace);
            }
        }
    }
}
