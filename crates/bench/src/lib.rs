#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # ascetic-bench — experiment harness
//!
//! One binary, `ascetic-bench <id> | all | --list [--smoke]`, and one
//! table of experiments ([`experiments::EXPERIMENTS`]; `DESIGN.md` §4 is
//! the index). Every entry is a list of (algorithm, dataset) cells run
//! under a list of system variants, a column definition and a set of
//! checks:
//!
//! * [`setup`] — the scaled experimental environment: datasets, device,
//!   system constructors, all derived from one scale divisor so the
//!   paper's ratios (dataset : GPU memory, K) are preserved;
//! * [`run`] — the runner: cells × variants → cross-checked reports, with
//!   datasets and every run shared across experiments;
//! * [`fmt`] — columns declared once and rendered as markdown and CSV,
//!   geometric means, humanised units;
//! * [`output`] — the one emission path (stdout, then one file per
//!   experiment: its `BENCH_<name>.json`, else `<id>.csv` under
//!   `$ASCETIC_RESULTS`) and checks as data;
//! * [`experiments`] — the table and the experiments themselves.
//!
//! Every experiment prints markdown shaped like the paper's and writes its
//! numbers once: the five sweeps and lanes to `BENCH_<name>.json`, the
//! others (when `ASCETIC_RESULTS` is set) to raw CSVs for plotting. Its checks are
//! printed with its results; a failing check makes the process exit
//! non-zero after all output is written, except under `--smoke` (scale
//! 1/50 000, where the paper-scale bounds need not hold).

pub mod experiments;
pub mod fmt;
pub mod output;
pub mod run;
pub mod setup;
