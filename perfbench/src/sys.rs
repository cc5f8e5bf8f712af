//! Process facts: memory high-water marks, core count, source revision.

/// Reads a `kB` field of `/proc/self/status` (`VmHWM`, `VmRSS`), in KiB.
/// Returns 0 where the file does not exist (non-Linux hosts).
#[must_use]
pub fn status_kb(field: &str) -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|line| {
            let rest = line.strip_prefix(field)?.strip_prefix(':')?;
            rest.trim().trim_end_matches("kB").trim().parse().ok()
        })
        .unwrap_or(0)
}

/// Cores this process may run on.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The git commit of the working directory, or `unknown` when it is not a
/// git checkout. Discovery stops at the working directory, so an
/// enclosing repository is never reported by mistake.
#[must_use]
pub fn git_commit() -> String {
    let Ok(cwd) = std::env::current_dir() else {
        return "unknown".into();
    };
    let ceiling = cwd.parent().unwrap_or(&cwd).to_path_buf();
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}
