//! The benchmark harness reproducing the Hyaline paper's evaluation.
//!
//! The paper (Section 6 + Appendix A) evaluates nine reclamation schemes on
//! four lock-free data structures with two operation mixes, plus a
//! robustness experiment with stalled threads and a trimming experiment.
//! This crate provides:
//!
//! * [`workload`] — the paper's operation mixes and key distribution.
//! * [`driver`] — the measured run loop: prefill, fixed-duration mixed
//!   workload, throughput and unreclaimed-object sampling, stalled-thread
//!   injection, and §3.3 `trim`-driven operation windows.
//! * [`registry`] — string-keyed dispatch over every scheme × structure
//!   combination (mirroring the paper's figure legends, including the
//!   structural exclusions of HP/HE from the Bonsai tree).
//! * [`figures`] — one function per paper figure, returning render-ready
//!   [`report::FigureTable`]s.
//! * [`cli`] — scale configuration (duration, threads, prefill) from
//!   environment variables or arguments, with laptop-scale defaults.
//! * [`results`] — persistent JSONL benchmark records: a figure label,
//!   ordered `params` and `metrics` lists and host/build provenance
//!   (dependency-free encoder/decoder), written by the `sweep` binary and
//!   the `--record` flag of the figure drivers. A new knob or metric is one
//!   line in `results::params_of` or [`results::BenchRecord::from_run`].
//! * [`gate`] — the perf-regression gate consumed by the `perfgate` binary:
//!   compares two JSONL files with per-metric noise bands, keyed on every
//!   param but `trials`.
//!
//! # Example
//!
//! ```no_run
//! use bench_harness::driver::BenchParams;
//! use bench_harness::figures::throughput_figures;
//! use bench_harness::workload::OpMix;
//!
//! let (throughput, unreclaimed) = throughput_figures(
//!     "Fig 8c", "Fig 9c", "hashmap", OpMix::WriteIntensive, &[1, 2, 4], &BenchParams::default(),
//! );
//! println!("{throughput}\n{unreclaimed}");
//! ```

#![warn(missing_docs)]

pub mod cli;
pub mod driver;
pub mod figures;
pub mod gate;
pub mod registry;
pub mod report;
pub mod results;
pub mod workload;

pub use driver::{run_bench, BenchParams, RunResult};
pub use report::FigureTable;
pub use results::{BenchRecord, Provenance, ResultSink};
