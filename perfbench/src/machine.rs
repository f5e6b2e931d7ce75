//! Machine fingerprint and resource readings stamped on every result.

use std::path::Path;
use std::process::Command;

use crate::report::escape;

/// Peak resident set size of this process in MB (`VmHWM`), 0 when the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// First line of a command's standard output; the child is waited for.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines().next().map(|l| l.trim().to_string())
}

/// The fingerprint line: CPU, cores, toolchain, profile, code revision
/// and where the stores keep their WAL and checkpoints.
pub fn fingerprint(root: &Path) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    let git = command_line("git", &["-C", &root.to_string_lossy(), "rev-parse", "HEAD"])
        .unwrap_or_else(|| "none".into());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let fields = [
        ("cpu", cpu_model()),
        ("nproc", nproc.to_string()),
        ("rustc", rustc),
        ("profile", profile.to_string()),
        ("git_revision", git),
        ("store_backend", "memory".to_string()),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{}\"", escape(v)))
        .collect();
    format!("{{\"fingerprint\": {{{}}}}}", body.join(", "))
}
