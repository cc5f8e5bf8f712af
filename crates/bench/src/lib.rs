//! Experiment harnesses regenerating every figure of the EnviroMic
//! paper's evaluation (§IV), and the command-line drivers built on them.
//!
//! | Module | Figures |
//! |---|---|
//! | [`fig03`] | Fig. 3 — sampling jitter under radio activity |
//! | [`fig06`] | Fig. 6 — miss ratio vs `Dta`; Fig. 7 — task timeline |
//! | [`fig08`] | Fig. 8 — stitched voice recording |
//! | [`indoor`] | Figs. 10–14 and the headline 4× claim |
//! | [`outdoor`] | Figs. 16–18 — the forest deployment |
//! | [`ablation`] | design-choice and future-work ablations |
//! | [`retrieval`] | archive serving benchmark (`retrieval` binary) |
//!
//! Run `cargo run --release -p enviromic-bench --bin repro -- all` to
//! print every figure; see EXPERIMENTS.md for the paper-vs-measured
//! record.
//!
//! The deterministic drivers (`sweep`, `policies`, `scale`, `retrieval`)
//! write JSON reports that hold no wall-clock data, so a report is a
//! pure function of its flags. CI gates all of them the same way:
//! regenerate at `--jobs 1` and `--jobs 2`, `diff -u` the two files, and
//! `diff -u` the committed `BENCH_*.json` against the second. Wall time
//! and throughput stay on the console.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod fig03;
pub mod fig06;
pub mod fig08;
pub mod indoor;
pub mod outdoor;
pub mod retrieval;
