//! Every message the two JSONL record parsers can print, pinned: CI greps
//! them (`trace line 2`, `mutation line 2`), `tests/cli.rs` matches on
//! them, and users read them. One row per way a line can be wrong. The
//! faults both files share are `obs::json::RecordError`'s, worded once.

use ascetic::mutate::parse_mutations;
use ascetic::serve::parse_trace_mutating;

/// `(trace text, vertices, the message)` through `parse_trace_mutating`.
const TRACE_ERRORS: &[(&str, Option<usize>, &str)] = &[
    (
        "{\"id\": 0, \"algo\": \"bfs\", \"source\": 1}\nnot json\n",
        None,
        "trace line 2: line is not a JSON object (expected a flat JSON object per line)",
    ),
    (
        "{\"id\" 7}\n",
        None,
        "trace line 1: expected ':' at byte 6, found '7' (expected a flat JSON object per line)",
    ),
    (
        "{id: 7}\n",
        None,
        "trace line 1: expected '\"' at byte 1, found 'i' (expected a flat JSON object per line)",
    ),
    (
        "{\"id\": 0, \"algo\": \"cc\", \"color\": 3}\n",
        None,
        "trace line 1: unknown field \"color\" (expected a flat JSON object per line)",
    ),
    (
        "{\"algo\": \"bfs\", \"source\": 1}\n",
        None,
        "trace line 1: missing required field \"id\"",
    ),
    (
        "{\"id\": 0}\n",
        None,
        "trace line 1: missing required field \"algo\"",
    ),
    (
        "{\"id\": 0, \"algo\": \"bfs\"}\n",
        None,
        "trace line 1: missing required field \"source\"",
    ),
    (
        "{\"id\": -1, \"algo\": \"cc\"}\n",
        None,
        "trace line 1: field \"id\" has invalid value -1",
    ),
    (
        "{\"id\": 0, \"algo\": cc}\n",
        None,
        "trace line 1: expected a value at byte 18, found 'c' (expected a flat JSON object per line)",
    ),
    (
        "{\"id\": 0, \"algo\": \"cc\", \"submit_ns\": 1.5}\n",
        None,
        "trace line 1: field \"submit_ns\" has invalid value 1.5",
    ),
    (
        "{\"id\": 4294967296, \"algo\": \"cc\"}\n",
        None,
        "trace line 1: field \"id\" has invalid value 4294967296",
    ),
    (
        "{\"id\": 0, \"algo\": \"walk\"}\n",
        None,
        "trace line 1: unknown algo \"walk\" (expected one of: bfs, sssp, cc, pr, lp, bc)",
    ),
    (
        "{\"id\": 0, \"algo\": \"b,fs\"}\n",
        None,
        "trace line 1: unknown algo \"b,fs\" (expected one of: bfs, sssp, cc, pr, lp, bc)",
    ),
    (
        "{\"id\": 0, \"algo\": \"cc\", \"submit_ns\": 18446744073709551000}\n",
        None,
        "trace line 1: field \"submit_ns\" has invalid value 18446744073709551000",
    ),
    (
        "{\"id\": 0, \"algo\": \"pr\", \"source\": 1}\n",
        None,
        "trace line 1: \"pr\" is a whole-graph algorithm and takes no \"source\"",
    ),
    (
        "# c\n\n{\"id\": 0, \"algo\": \"cc\"}\n{\"id\": 0, \"algo\": \"pr\"}\n",
        None,
        "trace line 4: job id 0 already used by an earlier line",
    ),
    (
        "{\"id\": 0, \"algo\": \"bfs\", \"source\": 9}\n",
        Some(5),
        "trace line 1: source 9 out of range for a graph with 5 vertices",
    ),
    (
        "{\"mutate\": \"upsert\", \"src\": 0, \"dst\": 1}\n",
        None,
        "trace line 1: unknown mutate \"upsert\" (expected \"insert\" or \"delete\")",
    ),
    (
        "{\"mutate\": insert, \"src\": 0, \"dst\": 1}\n",
        None,
        "trace line 1: expected a value at byte 11, found 'i' (expected a flat JSON object per line)",
    ),
    (
        "{\"mutate\": \"insert\", \"dst\": 1}\n",
        None,
        "trace line 1: missing required field \"src\"",
    ),
    (
        "{\"mutate\": \"insert\", \"src\": 1}\n",
        None,
        "trace line 1: missing required field \"dst\"",
    ),
    (
        "{\"mutate\": \"insert\", \"src\": 1, \"dst\": 2, \"at\": -3}\n",
        None,
        "trace line 1: field \"at\" has invalid value -3",
    ),
    (
        "{\"mutate\": \"insert\", \"src\": 1, \"dst\": 2, \"weight\": \"w\"}\n",
        None,
        "trace line 1: field \"weight\" has invalid value \"w\"",
    ),
    (
        "{\"mutate\": \"insert\", \"src\": 1, \"dst\": 2, \"color\": 3}\n",
        None,
        "trace line 1: unknown field \"color\" (expected a flat JSON object per line)",
    ),
    (
        "{\"mutate\": \"delete\", \"src\": 0, \"dst\": 1, \"weight\": 2}\n",
        None,
        "trace line 1: \"weight\" given but a delete removes every parallel edge regardless of weight",
    ),
    (
        "{\"id\": 0, \"algo\": \"bfs\", \"source\": 1}\n{\"mutate\": \"insert\", \"src\": 0, \"dst\": 9, \"at\": 1}\n",
        Some(5),
        "trace line 2: vertex 9 out of range for a graph with 5 vertices",
    ),
    (
        "{\"mutate\": \"delete\", \"src\": 7, \"dst\": 0}\n",
        Some(5),
        "trace line 1: vertex 7 out of range for a graph with 5 vertices",
    ),
];

/// `(stream text, vertices, weighted, the message)` through `parse_mutations`.
const MUTATE_ERRORS: &[(&str, Option<usize>, Option<bool>, &str)] = &[
    (
        "{\"op\": \"insert\", \"src\": 0, \"dst\": 1}\nnot json\n",
        None,
        None,
        "mutation line 2: line is not a JSON object (expected a flat JSON object per line)",
    ),
    (
        "{\"op\" 7}\n",
        None,
        None,
        "mutation line 1: expected ':' at byte 6, found '7' (expected a flat JSON object per line)",
    ),
    (
        "{op: 7}\n",
        None,
        None,
        "mutation line 1: expected '\"' at byte 1, found 'o' (expected a flat JSON object per line)",
    ),
    (
        "{\"op\": \"insert\", \"src\": 0, \"dst\": 1, \"color\": 3}\n",
        None,
        None,
        "mutation line 1: unknown field \"color\" (expected a flat JSON object per line)",
    ),
    (
        "{\"op\": \"insert\", \"src\": 0, \"dst\": 1, \"note\": [1, 2]}\n",
        None,
        None,
        "mutation line 1: unknown field \"note\" (expected a flat JSON object per line)",
    ),
    (
        "{\"src\": 0, \"dst\": 1}\n",
        None,
        None,
        "mutation line 1: missing required field \"op\"",
    ),
    (
        "{\"op\": \"insert\", \"dst\": 1}\n",
        None,
        None,
        "mutation line 1: missing required field \"src\"",
    ),
    (
        "{\"op\": \"insert\", \"src\": 1}\n",
        None,
        None,
        "mutation line 1: missing required field \"dst\"",
    ),
    (
        "{\"op\": \"delete\", \"src\": -4, \"dst\": 1}\n",
        None,
        None,
        "mutation line 1: field \"src\" has invalid value -4",
    ),
    (
        "{\"op\": delete, \"src\": 4, \"dst\": 1}\n",
        None,
        None,
        "mutation line 1: expected a value at byte 7, found 'd' (expected a flat JSON object per line)",
    ),
    (
        "{\"op\": \"delete\", \"src\": 4, \"dst\": 1, \"batch\": x}\n",
        None,
        None,
        "mutation line 1: expected a value at byte 46, found 'x' (expected a flat JSON object per line)",
    ),
    (
        "{\"op\": \"insert\", \"src\": 4, \"dst\": 1, \"weight\": 4294967296}\n",
        None,
        None,
        "mutation line 1: field \"weight\" has invalid value 4294967296",
    ),
    (
        "# c\n\n{\"op\": \"sever\", \"src\": 3, \"dst\": 4}\n",
        None,
        None,
        "mutation line 3: unknown op \"sever\" (expected \"insert\" or \"delete\")",
    ),
    (
        "{\"op\": \"insert\", \"src\": 0, \"dst\": 1, \"weight\": 3}\n",
        None,
        Some(false),
        "mutation line 1: \"weight\" given but the graph is unweighted",
    ),
    (
        "{\"op\": \"delete\", \"src\": 0, \"dst\": 1, \"weight\": 3}\n",
        None,
        None,
        "mutation line 1: \"weight\" given but a delete removes every parallel edge regardless of weight",
    ),
    (
        "{\"op\": \"insert\", \"src\": 0, \"dst\": 1}\n",
        None,
        Some(true),
        "mutation line 1: insert into a weighted graph requires a \"weight\"",
    ),
    (
        "{\"op\": \"delete\", \"src\": 0, \"dst\": 1, \"batch\": 3}\n{\"op\": \"delete\", \"src\": 0, \"dst\": 1, \"batch\": 1}\n",
        None,
        None,
        "mutation line 2: batch 1 after batch 3 (batch ids must be non-decreasing)",
    ),
    (
        "{\"op\": \"delete\", \"src\": 0, \"dst\": 9}\n",
        Some(5),
        None,
        "mutation line 1: vertex 9 out of range for a graph with 5 vertices",
    ),
    (
        "{\"op\": \"insert\", \"src\": 6, \"dst\": 0}\n",
        Some(5),
        None,
        "mutation line 1: vertex 6 out of range for a graph with 5 vertices",
    ),
];

#[test]
fn every_trace_and_mutation_error_keeps_its_message() {
    for &(text, n, want) in TRACE_ERRORS {
        let err = parse_trace_mutating(text, n).expect_err(text);
        assert_eq!(err.to_string(), want, "{text}");
    }
    for &(text, n, weighted, want) in MUTATE_ERRORS {
        let err = parse_mutations(text, n, weighted).expect_err(text);
        assert_eq!(err.to_string(), want, "{text}");
    }
}

/// `op`/`mutate` and `batch`/`at` are two names for one key each: either
/// file format reads either spelling, escaped or not, to the same
/// `Mutation`.
#[test]
fn the_two_mutation_spellings_are_one_record() {
    use ascetic::graph::Mutation;
    let spellings = [
        "{\"op\": \"insert\", \"src\": 1, \"dst\": 2, \"weight\": 5, \"batch\": 3}\n\
         {\"op\": \"delete\", \"src\": 4, \"dst\": 0, \"batch\": 3}\n",
        "{\"mutate\": \"insert\", \"src\": 1, \"dst\": 2, \"weight\": 5, \"at\": 3}\n\
         {\"mutate\": \"delete\", \"src\": 4, \"dst\": 0, \"at\": 3}\n",
        // JSON escapes in a key and in a value
        "{\"\\u006fp\": \"ins\\u0065rt\", \"src\": 1, \"dst\": 2, \"weight\": 5, \"batch\": 3}\n\
         {\"\\u006fp\": \"d\\u0065lete\", \"src\": 4, \"dst\": 0, \"batch\": 3}\n",
    ];
    let want = vec![
        Mutation::Insert {
            src: 1,
            dst: 2,
            weight: Some(5),
        },
        Mutation::Delete { src: 4, dst: 0 },
    ];
    for text in spellings {
        let batches = parse_mutations(text, Some(5), Some(true)).expect(text);
        assert_eq!(batches, vec![want.clone()], "{text}");
        let trace = parse_trace_mutating(text, Some(5)).expect(text);
        assert!(trace.jobs.is_empty());
        assert!(trace.mutations.iter().all(|m| m.at_ns == 3), "{text}");
        let mutations: Vec<Mutation> = trace.mutations.iter().map(|m| m.mutation).collect();
        assert_eq!(mutations, want, "{text}");
    }
}
