//! `compare A B`: two sets of result files against the bounds of
//! `BENCHMARK.json`.
//!
//! For every (end-to-end metric, workload) pair the medians of the two
//! sets are compared in the metric's own direction; `B` worse than `A`
//! by more than the bound fails. Where both sets hold a run of the same
//! workload and seed, everything in the simulated time domain — the
//! fingerprint, `hops_mean`, `sim_lookup_mean_ms`, `success_share`,
//! `bytes_per_peer` — must agree exactly: for those, any movement is a
//! behaviour change, not noise.

use crate::json::{self, Value};
use crate::spec::Spec;
use crate::stats::median;
use std::collections::BTreeMap;
use std::path::Path;

/// Metrics that repeat bit for bit for a fixed seed and code.
const EXACT: [&str; 4] = [
    "hops_mean",
    "sim_lookup_mean_ms",
    "success_share",
    "bytes_per_peer",
];

struct RunFile {
    workload: String,
    seed: u64,
    fingerprint: Option<String>,
    metrics: BTreeMap<String, f64>,
}

/// Every untraced result file in `dir`.
fn load_set(dir: &Path) -> Result<Vec<RunFile>, String> {
    let mut paths = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name.starts_with("result-run-") && name.ends_with(".json") {
            paths.push(path);
        }
    }
    paths.sort();
    let mut runs = Vec::new();
    for path in paths {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let field = |key: &str| {
            doc.get(key)
                .ok_or_else(|| format!("{}: no \"{key}\"", path.display()))
        };
        let mut metrics = BTreeMap::new();
        for (name, m) in field("metrics")?.members().unwrap_or(&[]) {
            if let Some(v) = m.get("value").and_then(Value::as_f64) {
                metrics.insert(name.clone(), v);
            }
        }
        runs.push(RunFile {
            workload: field("workload")?.as_str().unwrap_or("").to_string(),
            seed: field("stamp")?
                .get("seed")
                .and_then(Value::as_f64)
                .unwrap_or(0.0) as u64,
            fingerprint: field("fingerprint")?.as_str().map(str::to_string),
            metrics,
        });
    }
    if runs.is_empty() {
        return Err(format!("{}: no result-run-*.json files", dir.display()));
    }
    Ok(runs)
}

/// Share by which `b` is worse than `a`, in the metric's direction
/// (negative when better).
pub fn worsening(a: f64, b: f64, higher_is_better: bool) -> f64 {
    if higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

/// Prints the table and returns whether every pair held.
pub fn compare(spec: &Spec, a: &Path, b: &Path) -> Result<bool, String> {
    let (set_a, set_b) = (load_set(a)?, load_set(b)?);
    let mut ok = true;
    println!(
        "{:<14} {:<20} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "worse by", "bound"
    );
    for workload in &spec.workloads {
        for metric in &spec.end_to_end {
            let values = |set: &[RunFile]| -> Vec<f64> {
                set.iter()
                    .filter(|r| &r.workload == workload)
                    .filter_map(|r| r.metrics.get(&metric.name).copied())
                    .collect()
            };
            let (va, vb) = (values(&set_a), values(&set_b));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (ma, mb) = (median(&va), median(&vb));
            let worse = worsening(ma, mb, metric.higher_is_better);
            let bound = metric.bound.unwrap_or(0.0);
            let held = worse <= bound;
            ok &= held;
            println!(
                "{:<14} {:<20} {:>14.6} {:>14.6} {:>+8.2}% {:>6.1}%  {}",
                workload,
                metric.name,
                ma,
                mb,
                worse * 100.0,
                bound * 100.0,
                if held { "ok" } else { "REGRESSED" }
            );
        }
    }
    for ra in &set_a {
        for rb in set_b
            .iter()
            .filter(|rb| rb.workload == ra.workload && rb.seed == ra.seed)
        {
            let mut differs: Vec<&str> = EXACT
                .into_iter()
                .filter(|m| ra.metrics.get(*m) != rb.metrics.get(*m))
                .collect();
            if ra.fingerprint != rb.fingerprint {
                differs.push("fingerprint");
            }
            if !differs.is_empty() {
                ok = false;
                println!(
                    "{:<14} seed {}: simulated-domain values differ between the sets: {differs:?}",
                    ra.workload, ra.seed
                );
            }
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metric_direction() {
        // Throughput fell 10 %: worse. Latency fell 10 %: better.
        assert!((worsening(100.0, 90.0, true) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, false) + 0.10).abs() < 1e-12);
        assert_eq!(worsening(5.0, 5.0, true), 0.0);
    }
}
