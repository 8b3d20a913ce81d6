//! JSONL job traces: parsing with line-accurate errors, plus a
//! deterministic synthetic-trace generator for benches and smoke tests.
//!
//! One job per line, a flat JSON object:
//!
//! ```text
//! {"id": 1, "algo": "bfs", "source": 5, "submit_ns": 0, "deadline_ns": 1000000}
//! ```
//!
//! `id` and `algo` are required; `source` is required for the
//! single-source kinds (`bfs`, `sssp`) and rejected for the whole-graph
//! ones; `submit_ns` defaults to 0; `deadline_ns` is optional. Blank lines
//! and `#` comment lines are skipped. Errors carry the 1-based line
//! number, in the same spirit as `ascetic-core`'s `ConfigError`: every
//! variant names the offending field and value so the CLI can print an
//! actionable message and exit nonzero.
//!
//! A *mutating* trace ([`parse_trace_mutating`]) may interleave edge
//! mutation records with the jobs:
//!
//! ```text
//! {"mutate": "insert", "src": 1, "dst": 2, "at": 500, "weight": 3}
//! {"mutate": "delete", "src": 7, "dst": 0, "at": 900}
//! ```
//!
//! This is `ascetic-mutate`'s mutation record — one parser,
//! [`ascetic_obs::json::EdgeRecord`], reads both, so `op` / `batch` are
//! accepted for `mutate` / `at`. `mutate`, `src` and `dst` are required;
//! `at` (serve-clock ns, default 0) stamps when the mutation lands;
//! `weight` is optional on inserts (the serving layer weights each graph
//! variant itself) and rejected on deletes. Records sharing an `at` form
//! one atomic batch. The plain [`parse_trace`] stays strict and rejects
//! mutation lines.

use ascetic_graph::generators::xorshift;
use ascetic_graph::Mutation;
use ascetic_obs::json::{self, EdgeRecord, RecordError};

use crate::job::{Algo, Job};

/// What went wrong on a trace line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceErrorKind {
    /// The line is not a flat JSON object (`{"key": value, ...}`).
    Syntax(String),
    /// A required field is absent.
    MissingField(&'static str),
    /// A field holds a value of the wrong type or out of range.
    BadValue {
        /// Field name.
        field: &'static str,
        /// The offending raw text.
        value: String,
    },
    /// `algo` names no known algorithm.
    UnknownAlgo(String),
    /// `source` given for a whole-graph algorithm.
    UnexpectedSource(&'static str),
    /// The same `id` appeared on an earlier line.
    DuplicateId(u32),
    /// `source` is out of range for the graph being served.
    SourceOutOfRange {
        /// The offending source vertex.
        source: u32,
        /// Vertices in the graph.
        num_vertices: usize,
    },
    /// `mutate` is neither `insert` nor `delete`.
    UnknownMutation(String),
    /// `weight` given on a delete mutation.
    UnexpectedWeight,
    /// A mutation endpoint is out of range for the graph being served.
    EndpointOutOfRange {
        /// The offending vertex id.
        vertex: u32,
        /// Vertices in the graph.
        num_vertices: usize,
    },
}

/// A malformed trace line (1-based `line`), styled after
/// `ascetic_core::ConfigError`: one sentence naming the field, the value
/// and the rule it broke.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceError {
    /// 1-based line number in the trace file.
    pub line: usize,
    /// What was wrong with it.
    pub kind: TraceErrorKind,
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace line {}: ", self.line)?;
        match &self.kind {
            TraceErrorKind::Syntax(what) => {
                write!(f, "{what} (expected a flat JSON object per line)")
            }
            TraceErrorKind::MissingField(field) => write!(f, "missing required field \"{field}\""),
            TraceErrorKind::BadValue { field, value } => {
                write!(f, "field \"{field}\" has invalid value {value}")
            }
            TraceErrorKind::UnknownAlgo(a) => {
                write!(f, "unknown algo \"{a}\" (expected one of: ")?;
                for (i, k) in Algo::ALL.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}", k.name())?;
                }
                write!(f, ")")
            }
            TraceErrorKind::UnexpectedSource(algo) => {
                write!(
                    f,
                    "\"{algo}\" is a whole-graph algorithm and takes no \"source\""
                )
            }
            TraceErrorKind::DuplicateId(id) => {
                write!(f, "job id {id} already used by an earlier line")
            }
            TraceErrorKind::SourceOutOfRange {
                source,
                num_vertices,
            } => write!(
                f,
                "source {source} out of range for a graph with {num_vertices} vertices"
            ),
            TraceErrorKind::UnknownMutation(m) => {
                write!(
                    f,
                    "unknown mutate \"{m}\" (expected \"insert\" or \"delete\")"
                )
            }
            TraceErrorKind::UnexpectedWeight => {
                write!(
                    f,
                    "a delete removes every parallel edge and takes no \"weight\""
                )
            }
            TraceErrorKind::EndpointOutOfRange {
                vertex,
                num_vertices,
            } => write!(
                f,
                "vertex {vertex} out of range for a graph with {num_vertices} vertices"
            ),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<RecordError> for TraceErrorKind {
    fn from(e: RecordError) -> Self {
        match e {
            RecordError::Syntax(what) => TraceErrorKind::Syntax(what),
            RecordError::MissingField(field) => TraceErrorKind::MissingField(field),
            RecordError::BadValue { field, value } => TraceErrorKind::BadValue { field, value },
            RecordError::UnknownOp(op) => TraceErrorKind::UnknownMutation(op),
            RecordError::WeightOnDelete => TraceErrorKind::UnexpectedWeight,
        }
    }
}

fn parse_job_fields(fields: &[json::Field<'_>]) -> Result<Job, TraceErrorKind> {
    let mut id = None;
    let mut algo = None;
    let mut source = None;
    let mut submit_ns = 0u64;
    let mut deadline_ns = None;
    for &(key, value) in fields {
        match key {
            "id" => id = Some(json::parse_u32(value, "id")?),
            "algo" => {
                let s = json::parse_string(value, "algo")?;
                algo = Some(
                    s.parse::<Algo>()
                        .map_err(|_| TraceErrorKind::UnknownAlgo(s.into()))?,
                );
            }
            "source" => source = Some(json::parse_u32(value, "source")?),
            "submit_ns" => submit_ns = json::parse_u64(value, "submit_ns")?,
            "deadline_ns" => deadline_ns = Some(json::parse_u64(value, "deadline_ns")?),
            other => {
                return Err(TraceErrorKind::Syntax(format!("unknown field \"{other}\"")));
            }
        }
    }
    let id = id.ok_or(TraceErrorKind::MissingField("id"))?;
    let kind = algo.ok_or(TraceErrorKind::MissingField("algo"))?;
    if kind.single_source() {
        if source.is_none() {
            return Err(TraceErrorKind::MissingField("source"));
        }
    } else if source.is_some() {
        return Err(TraceErrorKind::UnexpectedSource(kind.name()));
    }
    Ok(Job {
        id,
        kind,
        source,
        submit_ns,
        deadline_ns,
    })
}

/// Parse a JSONL trace of jobs only: [`parse_trace_mutating`], except
/// that a mutation record is read as the job line it is not (and fails on
/// its first field no job has).
pub fn parse_trace(text: &str, num_vertices: Option<usize>) -> Result<Vec<Job>, TraceError> {
    parse(text, num_vertices, false).map(|t| t.jobs)
}

/// One edge mutation scheduled on the serve clock.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceMutation {
    /// Serve-clock instant the mutation lands (records sharing an `at`
    /// form one atomic batch).
    pub at_ns: u64,
    /// The edge insert/delete. Insert weights are optional here: the
    /// serving layer normalizes them per graph variant (dropped on the
    /// unweighted graph, defaulted to 1 on the weighted one).
    pub mutation: Mutation,
}

/// A parsed mutating trace: the job queue plus the mutation schedule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MutatingTrace {
    /// Jobs sorted by `(submit_ns, id)` — the canonical queue order every
    /// policy starts from.
    pub jobs: Vec<Job>,
    /// Mutations sorted by `at_ns` (stable: file order breaks ties).
    pub mutations: Vec<TraceMutation>,
}

/// Parse a JSONL trace that may interleave mutation records with jobs.
/// Job ids must be unique; `num_vertices`, when known, bounds job sources
/// and mutation endpoints. Jobs come back in `(submit_ns, id)` order, the
/// schedule sorted by `at_ns` with file order breaking ties.
pub fn parse_trace_mutating(
    text: &str,
    num_vertices: Option<usize>,
) -> Result<MutatingTrace, TraceError> {
    parse(text, num_vertices, true)
}

fn parse(
    text: &str,
    num_vertices: Option<usize>,
    mutations_allowed: bool,
) -> Result<MutatingTrace, TraceError> {
    let mut jobs: Vec<Job> = Vec::new();
    let mut mutations: Vec<TraceMutation> = Vec::new();
    for (line, fields) in json::records(text) {
        let at = |kind| TraceError { line, kind };
        let fields = fields.map_err(|e| at(e.into()))?;
        if mutations_allowed && EdgeRecord::is_spelled_by(&fields) {
            let rec = EdgeRecord::parse(&fields).map_err(|e| at(e.into()))?;
            if let Some(n) = num_vertices {
                if let Some(vertex) = rec.endpoint_beyond(n) {
                    return Err(at(TraceErrorKind::EndpointOutOfRange {
                        vertex,
                        num_vertices: n,
                    }));
                }
            }
            let EdgeRecord {
                src, dst, weight, ..
            } = rec;
            let mutation = match rec.insert {
                true => Mutation::Insert { src, dst, weight },
                false => Mutation::Delete { src, dst },
            };
            let at_ns = rec.stamp.unwrap_or(0);
            mutations.push(TraceMutation { at_ns, mutation });
            continue;
        }
        let job = parse_job_fields(&fields).map_err(at)?;
        if jobs.iter().any(|j| j.id == job.id) {
            return Err(at(TraceErrorKind::DuplicateId(job.id)));
        }
        if let (Some(n), Some(s)) = (num_vertices, job.source) {
            if s as usize >= n {
                return Err(at(TraceErrorKind::SourceOutOfRange {
                    source: s,
                    num_vertices: n,
                }));
            }
        }
        jobs.push(job);
    }
    jobs.sort_by_key(|j| (j.submit_ns, j.id));
    mutations.sort_by_key(|m| m.at_ns);
    Ok(MutatingTrace { jobs, mutations })
}

/// Serialize a mutating trace back to JSONL (inverse of
/// [`parse_trace_mutating`] up to line order, which the parser
/// canonicalizes anyway).
pub fn mutating_to_jsonl(jobs: &[Job], mutations: &[TraceMutation]) -> String {
    let mut out = to_jsonl(jobs);
    for m in mutations {
        match m.mutation {
            Mutation::Insert { src, dst, weight } => {
                out.push_str(&format!(
                    "{{\"mutate\": \"insert\", \"src\": {src}, \"dst\": {dst}"
                ));
                if let Some(w) = weight {
                    out.push_str(&format!(", \"weight\": {w}"));
                }
            }
            Mutation::Delete { src, dst } => {
                out.push_str(&format!(
                    "{{\"mutate\": \"delete\", \"src\": {src}, \"dst\": {dst}"
                ));
            }
        }
        out.push_str(&format!(", \"at\": {}}}\n", m.at_ns));
    }
    out
}

/// Serialize jobs back to the JSONL trace format (inverse of
/// [`parse_trace`]; used by the bench to persist generated traces).
pub fn to_jsonl(jobs: &[Job]) -> String {
    let mut out = String::new();
    for j in jobs {
        out.push_str(&format!(
            "{{\"id\": {}, \"algo\": \"{}\"",
            j.id,
            j.kind.name()
        ));
        if let Some(s) = j.source {
            out.push_str(&format!(", \"source\": {s}"));
        }
        out.push_str(&format!(", \"submit_ns\": {}", j.submit_ns));
        if let Some(d) = j.deadline_ns {
            out.push_str(&format!(", \"deadline_ns\": {d}"));
        }
        out.push_str("}\n");
    }
    out
}

/// Generate a mixed serve trace: `n_jobs` jobs cycling through
/// BFS/SSSP/CC/PR (weighted SSSP interleaved with the unweighted kinds, so
/// a FIFO schedule keeps flipping the device between graph variants while
/// an affinity schedule can group them), sources drawn deterministically
/// from `seed`, arrivals spaced `spacing_ns` apart in bursts of
/// `burst` jobs.
pub fn synthetic_mixed(
    n_jobs: usize,
    num_vertices: usize,
    seed: u64,
    spacing_ns: u64,
    burst: usize,
) -> Vec<Job> {
    assert!(num_vertices > 0 && burst > 0);
    let mut rng = seed | 1;
    let mut jobs = Vec::with_capacity(n_jobs);
    const CYCLE: [Algo; 6] = [
        Algo::Bfs,
        Algo::Sssp,
        Algo::Bfs,
        Algo::Cc,
        Algo::Sssp,
        Algo::Pr,
    ];
    for i in 0..n_jobs {
        let kind = CYCLE[i % CYCLE.len()];
        let source = kind
            .single_source()
            .then(|| (xorshift(&mut rng) % num_vertices as u64) as u32);
        jobs.push(Job {
            id: i as u32,
            kind,
            source,
            submit_ns: (i / burst) as u64 * spacing_ns,
            deadline_ns: None,
        });
    }
    jobs
}

/// Generate a deterministic mutation schedule: `n` mutations (roughly
/// 70% weighted inserts, 30% deletes) in batches of three sharing an
/// `at_ns`, spaced `spacing_ns` apart. Deletes name random endpoint pairs
/// — ones that miss every live edge are counted no-ops downstream.
pub fn synthetic_mutations(
    n: usize,
    num_vertices: usize,
    seed: u64,
    spacing_ns: u64,
) -> Vec<TraceMutation> {
    assert!(num_vertices > 0);
    let mut rng = seed.wrapping_mul(0x2545_F491_4F6C_DD1D) | 1;
    (0..n)
        .map(|i| {
            let src = (xorshift(&mut rng) % num_vertices as u64) as u32;
            let dst = (xorshift(&mut rng) % num_vertices as u64) as u32;
            let mutation = if xorshift(&mut rng) % 10 < 3 {
                Mutation::Delete { src, dst }
            } else {
                Mutation::Insert {
                    src,
                    dst,
                    weight: Some((xorshift(&mut rng) % 9 + 1) as u32),
                }
            };
            TraceMutation {
                at_ns: (i / 3) as u64 * spacing_ns,
                mutation,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_line() {
        let jobs = parse_trace(
            "{\"id\": 3, \"algo\": \"sssp\", \"source\": 7, \"submit_ns\": 100, \"deadline_ns\": 5000}\n",
            Some(10),
        )
        .unwrap();
        assert_eq!(
            jobs,
            vec![Job {
                id: 3,
                kind: Algo::Sssp,
                source: Some(7),
                submit_ns: 100,
                deadline_ns: Some(5000),
            }]
        );
    }

    #[test]
    fn skips_blanks_and_comments_and_sorts_by_submit() {
        let text = "# serve trace\n\n{\"id\": 1, \"algo\": \"cc\", \"submit_ns\": 50}\n{\"id\": 0, \"algo\": \"bfs\", \"source\": 2}\n";
        let jobs = parse_trace(text, None).unwrap();
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].id, 0, "submit 0 sorts first");
        assert_eq!(jobs[1].id, 1);
    }

    #[test]
    fn errors_carry_the_line_number() {
        let text = "{\"id\": 0, \"algo\": \"bfs\", \"source\": 1}\nnot json\n";
        let err = parse_trace(text, None).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().starts_with("trace line 2: "));

        let text = "{\"id\": 0, \"algo\": \"walk\"}\n";
        let err = parse_trace(text, None).unwrap_err();
        assert_eq!(err.kind, TraceErrorKind::UnknownAlgo("walk".into()));
        assert!(err.to_string().contains("unknown algo"));
    }

    #[test]
    fn field_rules_are_enforced() {
        let missing = parse_trace("{\"algo\": \"bfs\", \"source\": 1}\n", None).unwrap_err();
        assert_eq!(missing.kind, TraceErrorKind::MissingField("id"));
        let no_source = parse_trace("{\"id\": 0, \"algo\": \"bfs\"}\n", None).unwrap_err();
        assert_eq!(no_source.kind, TraceErrorKind::MissingField("source"));
        let extra =
            parse_trace("{\"id\": 0, \"algo\": \"pr\", \"source\": 1}\n", None).unwrap_err();
        assert_eq!(extra.kind, TraceErrorKind::UnexpectedSource("pr"));
        let dup = parse_trace(
            "{\"id\": 0, \"algo\": \"cc\"}\n{\"id\": 0, \"algo\": \"pr\"}\n",
            None,
        )
        .unwrap_err();
        assert_eq!(dup.line, 2);
        assert_eq!(dup.kind, TraceErrorKind::DuplicateId(0));
        let oob =
            parse_trace("{\"id\": 0, \"algo\": \"bfs\", \"source\": 9}\n", Some(5)).unwrap_err();
        assert!(matches!(oob.kind, TraceErrorKind::SourceOutOfRange { .. }));
        let bad = parse_trace("{\"id\": -1, \"algo\": \"cc\"}\n", None).unwrap_err();
        assert!(matches!(
            bad.kind,
            TraceErrorKind::BadValue { field: "id", .. }
        ));
    }

    #[test]
    fn jsonl_round_trips() {
        let jobs = synthetic_mixed(12, 100, 42, 1_000, 3);
        let text = to_jsonl(&jobs);
        let back = parse_trace(&text, Some(100)).unwrap();
        assert_eq!(jobs, back);
    }

    #[test]
    fn mutating_trace_interleaves_jobs_and_mutations() {
        let text = "{\"id\": 1, \"algo\": \"cc\", \"submit_ns\": 50}\n\
                    {\"mutate\": \"insert\", \"src\": 1, \"dst\": 2, \"at\": 500, \"weight\": 3}\n\
                    {\"id\": 0, \"algo\": \"bfs\", \"source\": 2}\n\
                    {\"mutate\": \"delete\", \"src\": 3, \"dst\": 0, \"at\": 100}\n";
        let t = parse_trace_mutating(text, Some(10)).unwrap();
        assert_eq!(t.jobs.len(), 2);
        assert_eq!(t.jobs[0].id, 0, "jobs keep the canonical order");
        assert_eq!(
            t.mutations,
            vec![
                TraceMutation {
                    at_ns: 100,
                    mutation: Mutation::Delete { src: 3, dst: 0 }
                },
                TraceMutation {
                    at_ns: 500,
                    mutation: Mutation::Insert {
                        src: 1,
                        dst: 2,
                        weight: Some(3)
                    }
                },
            ],
            "mutations sort by at_ns"
        );
    }

    #[test]
    fn mutating_parser_keeps_the_job_checks() {
        // duplicate job ids are rejected with the offending line number,
        // exactly as in the plain parser
        let dup = "{\"id\": 0, \"algo\": \"cc\"}\n\
                   {\"mutate\": \"insert\", \"src\": 1, \"dst\": 2, \"at\": 5}\n\
                   {\"id\": 0, \"algo\": \"pr\"}\n";
        let err = parse_trace_mutating(dup, None).unwrap_err();
        assert_eq!(err.line, 3);
        assert_eq!(err.kind, TraceErrorKind::DuplicateId(0));

        let oob = parse_trace_mutating("{\"id\": 0, \"algo\": \"bfs\", \"source\": 9}\n", Some(5))
            .unwrap_err();
        assert!(matches!(oob.kind, TraceErrorKind::SourceOutOfRange { .. }));
    }

    #[test]
    fn mutation_field_rules_are_enforced() {
        let bad_op =
            parse_trace_mutating("{\"mutate\": \"upsert\", \"src\": 0, \"dst\": 1}\n", None)
                .unwrap_err();
        assert_eq!(
            bad_op.kind,
            TraceErrorKind::UnknownMutation("upsert".into())
        );

        let missing =
            parse_trace_mutating("{\"mutate\": \"insert\", \"dst\": 1}\n", None).unwrap_err();
        assert_eq!(missing.kind, TraceErrorKind::MissingField("src"));

        let weighted_delete = parse_trace_mutating(
            "{\"mutate\": \"delete\", \"src\": 0, \"dst\": 1, \"weight\": 2}\n",
            None,
        )
        .unwrap_err();
        assert_eq!(weighted_delete.kind, TraceErrorKind::UnexpectedWeight);

        let oob = parse_trace_mutating(
            "{\"mutate\": \"insert\", \"src\": 0, \"dst\": 9, \"at\": 1}\n",
            Some(5),
        )
        .unwrap_err();
        assert_eq!(
            oob.kind,
            TraceErrorKind::EndpointOutOfRange {
                vertex: 9,
                num_vertices: 5
            }
        );
        assert!(oob.to_string().contains("vertex 9 out of range"));
    }

    #[test]
    fn plain_parser_stays_strict_about_mutations() {
        let err = parse_trace(
            "{\"mutate\": \"insert\", \"src\": 0, \"dst\": 1, \"at\": 5}\n",
            None,
        )
        .unwrap_err();
        assert_eq!(err.line, 1);
        assert!(matches!(err.kind, TraceErrorKind::Syntax(_)));
    }

    #[test]
    fn mutating_jsonl_round_trips() {
        let jobs = synthetic_mixed(9, 50, 4, 1_000, 3);
        let muts = synthetic_mutations(7, 50, 8, 2_000);
        let text = mutating_to_jsonl(&jobs, &muts);
        let back = parse_trace_mutating(&text, Some(50)).unwrap();
        assert_eq!(back.jobs, jobs);
        assert_eq!(back.mutations, muts);
        assert_eq!(
            synthetic_mutations(7, 50, 8, 2_000),
            muts,
            "generator is deterministic"
        );
    }

    #[test]
    fn synthetic_trace_is_deterministic_and_mixed() {
        let a = synthetic_mixed(36, 1_000, 7, 10_000, 4);
        let b = synthetic_mixed(36, 1_000, 7, 10_000, 4);
        assert_eq!(a, b);
        assert!(a.iter().any(|j| j.kind == Algo::Sssp));
        assert!(a.iter().any(|j| j.kind == Algo::Bfs));
        assert!(a.iter().any(|j| !j.kind.single_source()));
        // bursts share a submit time
        assert_eq!(a[0].submit_ns, a[3].submit_ns);
        assert!(a[4].submit_ns > a[3].submit_ns);
    }
}
