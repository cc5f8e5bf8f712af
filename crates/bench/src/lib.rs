//! Experiment harnesses regenerating every figure of the EnviroMic
//! paper's evaluation (§IV), plus shared plumbing for the Criterion
//! benches.
//!
//! | Module | Figures |
//! |---|---|
//! | [`fig03`] | Fig. 3 — sampling jitter under radio activity |
//! | [`fig06`] | Fig. 6 — miss ratio vs `Dta`; Fig. 7 — task timeline |
//! | [`fig08`] | Fig. 8 — stitched voice recording |
//! | [`indoor`] | Figs. 10–14 and the headline 4× claim |
//! | [`outdoor`] | Figs. 16–18 — the forest deployment |
//! | [`ablation`] | design-choice and future-work ablations |
//! | [`gate`] | telemetry regression gate (`telemetry-diff` binary) |
//! | [`retrieval`] | archive serving benchmark (`retrieval` binary) |
//!
//! Run `cargo run --release -p enviromic-bench --bin repro -- all` to
//! print every figure; see EXPERIMENTS.md for the paper-vs-measured
//! record.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod fig03;
pub mod fig06;
pub mod fig08;
pub mod gate;
pub mod indoor;
pub mod outdoor;
pub mod retrieval;

use enviromic_telemetry::{log_info, log_warn};

/// Writes `contents` to `path`, creating missing parent directories, and
/// logs the write under `[tool]`. Exits the process with status 1 when
/// the file cannot be written.
pub fn write_with_parents(tool: &str, path: &str, contents: &str) {
    let p = std::path::Path::new(path);
    if let Some(parent) = p.parent() {
        if !parent.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(parent);
        }
    }
    match std::fs::write(p, contents) {
        Ok(()) => log_info!("[{tool}] wrote {path}"),
        Err(e) => {
            log_warn!("could not write {path}: {e}");
            std::process::exit(1);
        }
    }
}
