//! Execution context shared by all experiments, and the one place that
//! owns the experiment output paths.
//!
//! Every artifact an experiment produces goes through the helpers here:
//! per-experiment CSVs land in the context's `results/` directory
//! ([`Ctx::write_csv`]), and rows for the repo-root `BENCH_*.json`
//! snapshots go through [`Ctx::merge_snapshot`], which writes only in
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

    /// Merges an experiment's rows by id into the repo-root snapshot
    /// `file` (`BENCH_*.json`), so experiments that share a file (E20's
    /// `scale/*` rows, E21's `shard/*` rows) keep each other's cells.
    /// `rows` pairs each id with its full object literal (one line, no
    /// trailing comma). A `--quick` run returns without writing: the
    /// committed snapshots hold full-profile rows only.
    ///
    /// # Panics
    ///
    /// Panics if the write fails — a missing snapshot must fail the run
    /// loudly, not silently skip the rows.
    pub fn merge_snapshot(&self, file: &str, rows: &[(String, String)]) {
        if self.quick {
            return;
        }
        merge_rows_into(&snapshot_path(file), rows).unwrap_or_else(|e| panic!("write {file}: {e}"));
        println!("  wrote {file}");
    }
}

/// Absolute path of a repo-root perf snapshot (resolved from this
/// crate's manifest), e.g. `snapshot_path("BENCH_scale.json")`.
fn snapshot_path(file: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(file)
}

/// Merges `rows` by id into the snapshot at `path`: a JSON array with
/// one `{...}` object per line, each carrying an `"id"` field. A row
/// whose id already exists replaces the old line in place (keeping the
/// file's order); new ids append; a missing file starts empty.
fn merge_rows_into(path: &Path, rows: &[(String, String)]) -> std::io::Result<()> {
    let mut kept: Vec<(String, String)> = Vec::new();
    if let Ok(existing) = std::fs::read_to_string(path) {
        for line in existing.lines() {
            let obj = line.trim().trim_end_matches(',');
            if !obj.starts_with('{') {
                continue;
            }
            if let Some(id) = extract_id(obj) {
                kept.push((id, obj.to_string()));
            }
        }
    }
    for (id, obj) in rows {
        match kept.iter_mut().find(|(k, _)| k == id) {
            Some(slot) => slot.1 = obj.clone(),
            None => kept.push((id.clone(), obj.clone())),
        }
    }
    let mut out = String::from("[\n");
    for (i, (_, obj)) in kept.iter().enumerate() {
        out.push_str("  ");
        out.push_str(obj);
        out.push_str(if i + 1 < kept.len() { ",\n" } else { "\n" });
    }
    out.push_str("]\n");
    std::fs::write(path, out)
}

/// Pulls the `"id"` value out of a single-line JSON object literal.
fn extract_id(obj: &str) -> Option<String> {
    let rest = obj.split("\"id\":").nth(1)?;
    let start = rest.find('"')? + 1;
    let end = start + rest[start..].find('"')?;
    Some(rest[start..end].to_string())
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

/// Scratch directory for large intermediate artifacts (frozen arenas,
/// shard section files). `SW_BENCH_SCRATCH` overrides the system temp
/// dir — point it at `/dev/shm` or a big disk for the 10⁷/10⁸ cells.
pub fn scratch_dir() -> PathBuf {
    std::env::var_os("SW_BENCH_SCRATCH")
        .map(PathBuf::from)
        .unwrap_or_else(std::env::temp_dir)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extract_id_finds_the_id_field() {
        assert_eq!(
            extract_id("{\"id\": \"scale/uniform/100\", \"n\": 100}").as_deref(),
            Some("scale/uniform/100")
        );
        assert_eq!(extract_id("{\"n\": 100}"), None);
    }

    fn row(id: &str, v: u32) -> (String, String) {
        (id.to_string(), format!("{{\"id\": \"{id}\", \"v\": {v}}}"))
    }

    #[test]
    fn quick_run_writes_no_snapshot() {
        let file = "BENCH_quick_run_writes_no_snapshot.json";
        let ctx = Ctx {
            quick: true,
            ..Ctx::default()
        };
        ctx.merge_snapshot(file, &[row("a", 1)]);
        assert!(!snapshot_path(file).exists());
    }

    #[test]
    fn merge_replaces_in_place_appends_and_keeps_order() {
        let path = std::env::temp_dir().join(format!("sw-ctx-merge-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        merge_rows_into(&path, &[row("a", 1), row("b", 2), row("c", 3)]).expect("write");
        merge_rows_into(&path, &[row("d", 5), row("b", 4)]).expect("write");
        let got = std::fs::read_to_string(&path).expect("read back");
        std::fs::remove_file(&path).expect("clean up");
        let want = [row("a", 1), row("b", 4), row("c", 3), row("d", 5)];
        let lines: Vec<String> = want.iter().map(|(_, obj)| format!("  {obj}")).collect();
        assert_eq!(got, format!("[\n{}\n]\n", lines.join(",\n")));
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
