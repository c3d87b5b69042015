//! Execution context shared by all experiments, and the one place that
//! owns the experiment output paths.
//!
//! Every artifact an experiment produces goes through the helpers here:
//! per-experiment CSVs land in the context's `results/` directory
//! ([`Ctx::write_csv`]), and rows for the repo-root `BENCH_*.json`
//! snapshots go through [`Ctx::write_snapshot`], which writes only in
//! the full profile — so every committed row is a full-profile row. No
//! experiment hand-rolls a `CARGO_MANIFEST_DIR` path of its own.

use crate::table::Table;
use std::path::{Path, PathBuf};

/// Knobs every experiment respects.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Quarter-scale sizes and query counts (CI / smoke runs).
    pub quick: bool,
    /// Directory for CSV output (created on demand).
    pub out_dir: PathBuf,
    /// Base PRNG seed; experiments derive their own streams from it.
    pub seed: u64,
}

impl Default for Ctx {
    fn default() -> Self {
        Ctx {
            quick: false,
            out_dir: PathBuf::from("results"),
            seed: 0x5EED_2005,
        }
    }
}

impl Ctx {
    /// Scales a population size down in quick mode.
    pub fn n(&self, full: usize) -> usize {
        if self.quick {
            (full / 4).max(64)
        } else {
            full
        }
    }

    /// Scales a query/repetition count down in quick mode.
    pub fn queries(&self, full: usize) -> usize {
        if self.quick {
            (full / 4).max(50)
        } else {
            full
        }
    }

    /// Writes an experiment's table as `results/<file>` (the context's
    /// output directory) — the single CSV path authority.
    pub fn write_csv(&self, table: &Table, file: &str) {
        table.write_csv(&self.out_dir, file);
    }

    /// Writes `rows` — this run's, in order, nothing else — as the
    /// repo-root snapshot `file` (`BENCH_*.json`): a JSON array with one
    /// object literal per line. Each file has exactly one producer (E18,
    /// E19, E23) whose rows are functions of the seed alone, so a
    /// full-profile rerun must leave `git diff` clean. A `--quick` run
    /// returns without writing: the committed snapshots hold
    /// full-profile rows only.
    ///
    /// # Panics
    ///
    /// Panics if the write fails — a missing snapshot must fail the run
    /// loudly, not silently skip the rows.
    pub fn write_snapshot(&self, file: &str, rows: &[String]) {
        if self.quick {
            return;
        }
        write_rows(&snapshot_path(file), rows).unwrap_or_else(|e| panic!("write {file}: {e}"));
        println!("  wrote {file}");
    }
}

/// Absolute path of a repo-root snapshot (resolved from this crate's
/// manifest), e.g. `snapshot_path("BENCH_repair.json")`.
fn snapshot_path(file: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(file)
}

/// Replaces the file at `path` with `rows` as a JSON array, one
/// two-space-indented object literal per line.
fn write_rows(path: &Path, rows: &[String]) -> std::io::Result<()> {
    let body: Vec<String> = rows.iter().map(|obj| format!("  {obj}")).collect();
    std::fs::write(path, format!("[\n{}\n]\n", body.join(",\n")))
}

/// Peak resident set size of this process in bytes (Linux `VmHWM`, a
/// lifetime high-water mark — monotone across cells), or `None` where
/// `/proc` is unavailable.
pub fn peak_rss_bytes() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kb * 1024)
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(id: &str, v: u32) -> String {
        format!("{{\"id\": \"{id}\", \"v\": {v}}}")
    }

    #[test]
    fn quick_run_writes_no_snapshot() {
        let file = "BENCH_quick_run_writes_no_snapshot.json";
        let ctx = Ctx {
            quick: true,
            ..Ctx::default()
        };
        ctx.write_snapshot(file, &[row("a", 1)]);
        assert!(!snapshot_path(file).exists());
    }

    #[test]
    fn full_run_file_holds_exactly_that_runs_rows_in_order() {
        let path = std::env::temp_dir().join(format!("sw-ctx-rows-{}.json", std::process::id()));
        write_rows(&path, &[row("a", 1), row("gone", 2), row("c", 3)]).expect("write");
        let run = [row("c", 4), row("a", 5)];
        write_rows(&path, &run).expect("write");
        let got = std::fs::read_to_string(&path).expect("read back");
        std::fs::remove_file(&path).expect("clean up");
        assert_eq!(got, format!("[\n  {},\n  {}\n]\n", run[0], run[1]));
    }

    #[test]
    fn quick_scales_down_with_floors() {
        let mut c = Ctx::default();
        assert_eq!(c.n(4096), 4096);
        assert_eq!(c.queries(1000), 1000);
        c.quick = true;
        assert_eq!(c.n(4096), 1024);
        assert_eq!(c.n(100), 64);
        assert_eq!(c.queries(1000), 250);
        assert_eq!(c.queries(80), 50);
    }
}
