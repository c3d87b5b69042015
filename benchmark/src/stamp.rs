//! Where a result came from: commit, host and toolchain, read at run
//! time so a result file can be told apart from one taken elsewhere.

use crate::json::quote;
use std::path::Path;
use std::process::Command;

/// `VmHWM` of this process in MB — the high-water mark of resident
/// memory, which is why each workload runs in a process of its own.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// First line a command prints, or "unknown" (the driver's checkout is
/// not a git repository, and a host need not have `rustc` on its path).
fn first_line(program: &str, args: &[&str], dir: &Path) -> String {
    Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// File-system type of the mount holding `dir` (longest mount-point
/// prefix in `/proc/mounts`).
fn fs_type(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    std::fs::read_to_string("/proc/mounts")
        .ok()
        .and_then(|mounts| {
            mounts
                .lines()
                .filter_map(|l| {
                    let mut f = l.split_whitespace();
                    let (_, point, kind) = (f.next()?, f.next()?, f.next()?);
                    dir.starts_with(point)
                        .then(|| (point.len(), kind.to_string()))
                })
                .max_by_key(|(len, _)| *len)
                .map(|(_, kind)| kind)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The stamp as the members of a JSON object (no braces).
pub fn members(seed: u64, scratch: &Path) -> String {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |c| c.get());
    format!(
        "\"commit\": {}, \"seed\": {seed}, \"nproc\": {nproc}, \"cpu\": {}, \"kernel\": {}, \
         \"rustc\": {}, \"scratch_fs\": {}",
        quote(&first_line("git", &["rev-parse", "HEAD"], here)),
        quote(&cpu_model()),
        quote(&kernel),
        quote(&first_line("rustc", &["--version"], here)),
        quote(&fs_type(scratch)),
    )
}
