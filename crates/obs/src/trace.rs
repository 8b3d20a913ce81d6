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
//! Recording cannot fail: spans are appended closed
//! ([`SpanTracer::span`]), and a parent is stated once, when it closes, by
//! [`SpanTracer::enclose`] over everything its track recorded since a
//! [`SpanTracer::mark`]. The nesting contract — on each track, children lie
//! inside their parent and siblings do not overlap — is checked in one
//! place, [`Trace::check_nesting`], which the tests run over every trace
//! they pin; a broken instrumentation site is a test failure naming the
//! two offending spans, never a panic in a run.

use crate::json;

/// Category for arbitration/queueing gaps. Spans with this category render
/// in the trace but are *excluded* from busy-time accounting — a stream
/// waiting for the PCIe link is idle time, not work.
pub const CAT_WAIT: &str = "wait";

/// Handle to a named track inside one tracer (index into its track table).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TrackId(usize);

impl TrackId {
    /// Position of the track in [`Trace::tracks`].
    pub fn index(self) -> usize {
        self.0
    }
}

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
    /// End instant, virtual ns (`end_ns >= start_ns` in a well-nested trace).
    pub end_ns: u64,
    /// Nesting depth (0 = top level on its track).
    pub depth: u32,
}

impl TracedSpan {
    /// Span length in virtual ns (0 for an inverted span).
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans on named tracks; [`SpanTracer::finish`] freezes it into
/// a [`Trace`].
#[derive(Clone, Debug, Default)]
pub struct SpanTracer {
    names: Vec<String>,
    /// In close order: a parent lands after its children.
    spans: Vec<TracedSpan>,
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
        TrackId(self.names.len() - 1)
    }

    /// Record the closed span `[start_ns, end_ns]` at the top level of
    /// `track` (until an [`SpanTracer::enclose`] puts a parent over it).
    pub fn span(&mut self, track: TrackId, start_ns: u64, end_ns: u64, name: &str, cat: &str) {
        self.spans.push(TracedSpan {
            track: track.0,
            name: name.to_string(),
            cat: cat.to_string(),
            start_ns,
            end_ns,
            depth: 0,
        });
    }

    /// Where the next span will land: what a parent-to-be holds from the
    /// moment it opens until it can [`SpanTracer::enclose`] its children.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Close a parent over its children: every span recorded on `track`
    /// since `mark` goes one level deeper, and `[start_ns, end_ns]` is
    /// recorded above them.
    pub fn enclose(
        &mut self,
        track: TrackId,
        mark: usize,
        start_ns: u64,
        end_ns: u64,
        name: &str,
        cat: &str,
    ) {
        // a mark handed over from another tracer must not index past this one
        let from = mark.min(self.spans.len());
        for s in self.spans[from..].iter_mut().filter(|s| s.track == track.0) {
            s.depth += 1;
        }
        self.span(track, start_ns, end_ns, name, cat);
    }

    /// Freeze into an immutable [`Trace`].
    pub fn finish(self) -> Trace {
        let mut spans = self.spans;
        // Stable sort: per track in time order, parents before children at
        // equal starts. Close order breaks remaining ties.
        spans.sort_by_key(|s| (s.track, s.start_ns, s.depth));
        Trace {
            tracks: self.names,
            spans,
        }
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

    /// The nesting contract, checked: on every track a span lies inside its
    /// parent — the latest span one level up — and starts no earlier than
    /// the previous span of its own depth ended. The utilization queries
    /// below read top-level spans as disjoint busy intervals on the strength
    /// of it. Fails on the first violation in trace order, naming the track
    /// and the two spans.
    pub fn check_nesting(&self) -> Result<(), String> {
        // per depth, the latest span seen on the current track
        let mut last: Vec<Option<&TracedSpan>> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 && self.spans[i - 1].track != s.track {
                last.clear();
            }
            let show = |s: &TracedSpan| {
                let (name, start, end) = (&s.name, s.start_ns, s.end_ns);
                format!("\"{name}\" [{start}, {end}) at depth {}", s.depth)
            };
            let broken = |rule: &str, other: &TracedSpan| {
                let track = &self.tracks[s.track];
                Err(format!(
                    "track \"{track}\": {} {rule} {}",
                    show(s),
                    show(other)
                ))
            };
            let d = s.depth as usize;
            last.resize(last.len().max(d + 1), None);
            if s.end_ns < s.start_ns {
                return broken("ends before it starts:", s);
            }
            if let Some(sibling) = last[d].filter(|b| b.end_ns > s.start_ns) {
                return broken("overlaps its sibling", sibling);
            }
            if d > 0 {
                // a parent that opens only after its child sorts behind it
                let ahead = || {
                    let parent = |p: &&TracedSpan| (p.track, p.depth + 1) == (s.track, s.depth);
                    self.spans[i..].iter().find(parent)
                };
                let Some(parent) = last[d - 1].or_else(ahead) else {
                    return broken("has no span one level above:", s);
                };
                if s.start_ns < parent.start_ns || parent.end_ns < s.end_ns {
                    return broken("escapes its parent", parent);
                }
            }
            last[d] = Some(s);
        }
        Ok(())
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

    /// The disjoint, sorted cover of `tracks`' busy intervals clipped to
    /// `[w0, w1)`.
    fn busy_union(&self, tracks: &[usize], w0: u64, w1: u64) -> Vec<(u64, u64)> {
        let mut iv: Vec<(u64, u64)> = tracks
            .iter()
            .flat_map(|&t| self.busy_intervals(t))
            .map(|(s, e)| (s.max(w0), e.min(w1)))
            .filter(|&(s, e)| s < e)
            .collect();
        iv.sort_unstable();
        merge_intervals(iv)
    }

    /// Busy nanoseconds of the *union* of several tracks inside
    /// `[w0, w1)` — e.g. all copy streams together = PCIe link busy.
    pub fn busy_union_ns(&self, tracks: &[usize], w0: u64, w1: u64) -> u64 {
        let union = self.busy_union(tracks, w0, w1);
        union.iter().map(|(s, e)| e - s).sum()
    }

    /// Nanoseconds inside `[w0, w1)` where both `a`-union and `b`-union
    /// are busy simultaneously — the transfer/compute *overlap* the paper
    /// optimizes for (Figure 5).
    pub fn overlap_ns(&self, a: &[usize], b: &[usize], w0: u64, w1: u64) -> u64 {
        let ia = self.busy_union(a, w0, w1);
        let ib = self.busy_union(b, w0, w1);
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
            t.span(id, s, e, name, "test");
        }
        t.finish()
    }

    #[test]
    fn enclosed_spans_nest_and_export() {
        let mut t = SpanTracer::new();
        let (a, b) = (t.track("engine"), t.track("other"));
        let outer = t.mark();
        t.span(a, 10, 20, "child", "kernel");
        t.span(b, 12, 18, "elsewhere", "kernel"); // another track: not a child
        let inner = t.mark();
        t.span(a, 32, 38, "grandchild", "kernel");
        t.enclose(a, inner, 30, 40, "second child", "kernel");
        t.enclose(a, outer, 0, 50, "outer", "phase");
        let trace = t.finish();
        trace.check_nesting().expect("recorded in close order");
        assert_eq!(trace.tracks(), &["engine".to_string(), "other".to_string()]);
        let depths: Vec<u32> = trace.spans().iter().map(|s| s.depth).collect();
        assert_eq!(depths, [0, 1, 1, 2, 0]);
        let json = trace.to_perfetto_json(3);
        crate::json::validate(&json).expect("perfetto json parses");
        assert!(json.contains("\"schema_version\":3"));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"ts\":0.010")); // 10 ns = 0.010 µs
    }

    /// One mis-nested recording per rule: each is recorded without a
    /// panic, finishes into a trace that still exports, and fails the
    /// checker with both spans named.
    #[test]
    fn a_misnested_recording_is_a_named_check_failure_not_a_panic() {
        type Record = fn(&mut SpanTracer, TrackId);
        let cases: [(&str, Record); 4] = [
            (
                "\"late child\" [2, 12) at depth 1 escapes its parent \"outer\" [0, 10) at depth 0",
                |t, x| {
                    let m = t.mark();
                    t.span(x, 2, 12, "late child", "c");
                    t.enclose(x, m, 0, 10, "outer", "c");
                },
            ),
            (
                "\"early child\" [2, 4) at depth 1 escapes its parent \"outer\" [5, 10) at depth 0",
                |t, x| {
                    let m = t.mark();
                    t.span(x, 2, 4, "early child", "c");
                    t.enclose(x, m, 5, 10, "outer", "c");
                },
            ),
            (
                "\"s2\" [5, 8) at depth 0 overlaps its sibling \"s1\" [0, 10) at depth 0",
                |t, x| {
                    t.span(x, 0, 10, "s1", "c");
                    t.span(x, 5, 8, "s2", "c");
                },
            ),
            (
                "\"backwards\" [9, 3) at depth 0 ends before it starts",
                |t, x| {
                    t.span(x, 9, 3, "backwards", "c");
                },
            ),
        ];
        for (want, record) in cases {
            let mut t = SpanTracer::new();
            let x = t.track("x");
            record(&mut t, x);
            let trace = t.finish();
            crate::json::validate(&trace.to_perfetto_json(3)).expect("still exports");
            let err = trace.check_nesting().unwrap_err();
            assert!(err.starts_with("track \"x\": "), "{err}");
            assert!(err.contains(want), "{err}");
        }
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
        t.span(a, 0, 10, "arbitration", CAT_WAIT);
        t.span(a, 10, 30, "dma", "dma");
        let trace = t.finish();
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
        // a span with nothing one level above it parses, and fails the check
        let orphan = format!("{good}{{\"track\":0,\"name\":\"x\",\"cat\":\"c\",\"start_ns\":9,\"dur_ns\":1,\"depth\":2}}\n");
        let (trace, _) = Trace::from_jsonl(&orphan).unwrap();
        let err = trace.check_nesting().unwrap_err();
        assert!(err.contains("has no span one level above"), "{err}");
    }

    #[test]
    fn empty_trace_exports_validate() {
        let trace = SpanTracer::new().finish();
        trace.check_nesting().unwrap();
        crate::json::validate(&trace.to_perfetto_json(3)).unwrap();
        let (back, _) = Trace::from_jsonl(&trace.to_jsonl(3)).unwrap();
        assert_eq!(back, trace);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// One step of a walk over a span forest: each track has its own clock
    /// and its own chain of open parents; steps of different tracks
    /// interleave freely.
    #[derive(Clone, Debug)]
    enum Step {
        /// A childless span `gap` after the track's clock, `dur` long.
        Leaf { track: usize, gap: u64, dur: u64 },
        /// A parent opens `gap` after the track's clock.
        Open { track: usize, gap: u64 },
        /// The innermost open parent closes `gap` after the clock.
        Close { track: usize, gap: u64 },
    }

    fn arb_step() -> impl Strategy<Value = Step> {
        prop_oneof![
            (0usize..3, 0u64..20, 1u64..50).prop_map(|(track, gap, dur)| Step::Leaf {
                track,
                gap,
                dur
            }),
            (0usize..3, 0u64..20).prop_map(|(track, gap)| Step::Open { track, gap }),
            (0usize..3, 0u64..20).prop_map(|(track, gap)| Step::Close { track, gap }),
        ]
    }

    /// `(track, start, end, depth)` of every span of the forest in the order
    /// a finished trace must list them — per track, parents before their
    /// children, siblings by time — next to the tracer the forest was
    /// recorded into the only way a caller can: leaves as they happen,
    /// a parent when it closes, over a mark taken when it opened.
    fn record(steps: &[Step]) -> (Vec<(usize, u64, u64, u32)>, SpanTracer) {
        let mut tracer = SpanTracer::new();
        let ids: Vec<TrackId> = (0..3).map(|t| tracer.track(&format!("t{t}"))).collect();
        let mut clock = [0u64; 3];
        // per track: (start, mark, position in `forest`) of each open parent
        let mut open: [Vec<(u64, usize, usize)>; 3] = Default::default();
        let mut forest = Vec::new();
        let closes = (0..3)
            .flat_map(|track| std::iter::repeat_n(Step::Close { track, gap: 1 }, steps.len()));
        for step in steps.iter().cloned().chain(closes) {
            match step {
                Step::Leaf { track, gap, dur } => {
                    let (start, end) = (clock[track] + gap, clock[track] + gap + dur);
                    tracer.span(ids[track], start, end, "leaf", "c");
                    forest.push((track, start, end, open[track].len() as u32));
                    clock[track] = end;
                }
                Step::Open { track, gap } => {
                    clock[track] += gap;
                    let depth = open[track].len() as u32;
                    open[track].push((clock[track], tracer.mark(), forest.len()));
                    forest.push((track, clock[track], 0, depth));
                }
                Step::Close { track, gap } => {
                    let Some((start, mark, at)) = open[track].pop() else {
                        continue;
                    };
                    clock[track] += gap;
                    tracer.enclose(ids[track], mark, start, clock[track], "parent", "c");
                    forest[at].2 = clock[track];
                }
            }
        }
        forest.sort_by_key(|s| s.0); // stable: per track, the walk's order
        (forest, tracer)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// The property the recorder rests on: any forest, recorded in
        /// close order with the tracks interleaved, comes back from
        /// `finish` with every span at its depth and in its place, passes
        /// the nesting check and round-trips through JSONL.
        #[test]
        fn a_forest_recorded_in_close_order_is_reproduced(steps in proptest::collection::vec(arb_step(), 0..60)) {
            let (forest, tracer) = record(&steps);
            let trace = tracer.finish();
            let got: Vec<_> = trace.spans().iter().map(|s| (s.track, s.start_ns, s.end_ns, s.depth)).collect();
            prop_assert_eq!(got, forest);
            prop_assert_eq!(trace.check_nesting(), Ok(()));
            let (back, _) = Trace::from_jsonl(&trace.to_jsonl(3)).unwrap();
            prop_assert_eq!(back, trace);
        }
    }
}
