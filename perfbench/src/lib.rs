//! End-to-end and per-layer benchmark of the EnviroMic pipeline.
//!
//! Three workloads ([`pipeline::NAMES`]) each run the same pipeline —
//! world set-up, simulation, retrieval to the basestation, archive build,
//! query serving, trace digest — with the weight on different layers.
//! Every layer is timed from outside, around calls to its public
//! functions; `README.md` beside this crate maps each per-layer metric to
//! the end-to-end metric it should move.

pub mod pipeline;
pub mod report;
pub mod spans;
pub mod sys;
