//! Benchmark-owned host-time spans.
//!
//! The traced pass wraps every call into a layer in a span
//! `{name, start, end, parent, workload}`. Spans live in memory and are
//! written to `results/<workload>.trace.json` when the run ends. Nothing
//! here reaches into the crates under test: a span is two `Instant` reads
//! around a public call. When the recorder is off (every end-to-end rep),
//! [`Spans::scope`] is a plain call.

use std::time::Instant;

use crate::json;

/// One closed span. Times are nanoseconds since the recorder was created.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The recorder: a span list plus the stack of currently open spans.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder that keeps nothing (end-to-end reps).
    pub fn off() -> Spans {
        Spans::new(false)
    }

    /// A recording recorder (the traced pass).
    pub fn on() -> Spans {
        Spans::new(true)
    }

    fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span called `name`, nested under whichever span is
    /// open. Returns `f`'s value.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }

    #[cfg(test)]
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of every span called `name`, seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .sum();
        ns as f64 / 1e9
    }

    /// A span's self time: its duration minus the part its direct children
    /// cover (children of one parent never overlap — the recorder is a
    /// stack).
    pub fn self_ns(&self, id: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::dur_ns)
            .sum();
        self.spans[id].dur_ns() - children
    }

    /// Whether every span lies inside its parent.
    pub fn nest(&self) -> bool {
        self.spans.iter().all(|s| {
            s.start_ns <= s.end_ns
                && s.parent.is_none_or(|p| {
                    self.spans[p].start_ns <= s.start_ns && s.end_ns <= self.spans[p].end_ns
                })
        })
    }

    /// The trace file: one object per span, all tagged with `workload`.
    pub fn to_json(&self, workload: &str) -> String {
        let mut out = String::from("{\"workload\":");
        ascetic_obs::json::string_into(workload, &mut out);
        out.push_str(",\"unit\":\"ns\",\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n{\"id\":");
            out.push_str(&i.to_string());
            out.push_str(",\"name\":");
            ascetic_obs::json::string_into(s.name, &mut out);
            out.push_str(&format!(
                ",\"start\":{},\"end\":{},\"self\":{},\"parent\":{},\"workload\":",
                s.start_ns,
                s.end_ns,
                self.self_ns(i),
                s.parent.map_or("null".to_string(), |p| p.to_string()),
            ));
            ascetic_obs::json::string_into(workload, &mut out);
            out.push('}');
        }
        out.push_str("\n]}\n");
        debug_assert!(json::parse(&out).is_ok());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut sp = Spans::on();
        let v = sp.scope("outer", |sp| {
            sp.scope("a", |_| std::hint::black_box(1 + 1));
            sp.scope("b", |sp| sp.scope("c", |_| 7))
        });
        assert_eq!(v, 7);
        let s = sp.all();
        assert_eq!(s.len(), 4);
        assert_eq!(
            s.iter().map(|x| (x.name, x.parent)).collect::<Vec<_>>(),
            [
                ("outer", None),
                ("a", Some(0)),
                ("b", Some(0)),
                ("c", Some(2))
            ]
        );
        assert!(sp.nest());
        assert_eq!(sp.self_ns(0), s[0].dur_ns() - s[1].dur_ns() - s[2].dur_ns());
        assert!((sp.total_s("outer") - s[0].dur_ns() as f64 / 1e9).abs() < 1e-12);
        let doc = json::parse(&sp.to_json("w")).unwrap();
        let spans = doc.get("spans").unwrap().as_array().unwrap();
        assert_eq!(spans.len(), 4);
        assert!(spans
            .iter()
            .all(|x| x.get("workload").unwrap().as_str() == Some("w")));
        assert_eq!(spans[3].get("parent").unwrap().as_f64(), Some(2.0));
    }

    #[test]
    fn a_recorder_that_is_off_keeps_nothing() {
        let mut sp = Spans::off();
        assert_eq!(sp.scope("x", |sp| sp.scope("y", |_| 3)), 3);
        assert!(sp.all().is_empty());
    }
}
