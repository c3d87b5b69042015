//! `BENCHMARK.json`, the contract this package is held to: workload
//! names, and for every metric its unit, direction and bound.

use crate::json::{self, Value};
use std::path::{Path, PathBuf};

#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the baseline by which an end-to-end metric may worsen;
    /// per-layer metrics have none.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

/// The repository root's `BENCHMARK.json`, one directory above this
/// package.
pub fn default_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
}

pub fn load(path: &Path) -> Result<Spec, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

pub fn parse(text: &str) -> Result<Spec, String> {
    let doc = json::parse(text)?;
    let list = |key: &str| {
        doc.get(key)
            .and_then(Value::as_array)
            .ok_or_else(|| format!("no array \"{key}\""))
    };
    let text_of = |v: &Value, key: &str| {
        v.get(key)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("entry without \"{key}\""))
    };
    let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
        list(key)?
            .iter()
            .map(|m| {
                let better = text_of(m, "better")?;
                Ok(MetricSpec {
                    name: text_of(m, "name")?,
                    unit: text_of(m, "unit")?,
                    higher_is_better: match better.as_str() {
                        "higher" => true,
                        "lower" => false,
                        other => return Err(format!("\"better\" is {other:?}")),
                    },
                    bound: m.get("bound").and_then(Value::as_f64),
                })
            })
            .collect()
    };
    Ok(Spec {
        workloads: list("workloads")?
            .iter()
            .map(|w| text_of(w, "name"))
            .collect::<Result<_, _>>()?,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}

/// The produced metric names must be exactly the listed ones.
pub fn check_names<'a>(
    listed: &[MetricSpec],
    produced: impl Iterator<Item = &'a String>,
) -> Result<(), String> {
    let produced: Vec<&String> = produced.collect();
    let missing: Vec<&str> = listed
        .iter()
        .filter(|m| !produced.contains(&&m.name))
        .map(|m| m.name.as_str())
        .collect();
    let unlisted: Vec<&str> = produced
        .iter()
        .filter(|p| !listed.iter().any(|m| &m.name == **p))
        .map(|p| p.as_str())
        .collect();
    if missing.is_empty() && unlisted.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "metric names differ from BENCHMARK.json: not produced {missing:?}, not listed {unlisted:?}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"{
        "workloads": [{"name": "a", "why": "x"}, {"name": "b", "why": "y"}],
        "end_to_end": [{"name": "t_s", "unit": "s", "better": "lower", "bound": 0.1}],
        "per_layer": [{"name": "l.ns", "unit": "ns", "better": "lower"}]
    }"#;

    #[test]
    fn parses_the_contract_shape() {
        let spec = parse(DOC).unwrap();
        assert_eq!(spec.workloads, ["a", "b"]);
        assert_eq!(spec.end_to_end[0].bound, Some(0.1));
        assert!(!spec.end_to_end[0].higher_is_better);
        assert_eq!(spec.per_layer[0].bound, None);
    }

    #[test]
    fn name_check_reports_both_directions() {
        let spec = parse(DOC).unwrap();
        let ok = ["t_s".to_string()];
        assert!(check_names(&spec.end_to_end, ok.iter()).is_ok());
        let wrong = ["t_ms".to_string()];
        let err = check_names(&spec.end_to_end, wrong.iter()).unwrap_err();
        assert!(err.contains("t_s") && err.contains("t_ms"), "{err}");
    }

    #[test]
    fn the_committed_contract_parses_and_names_the_workloads() {
        let spec = load(&default_path()).unwrap();
        let names: Vec<&str> = crate::workloads::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(spec.workloads, names);
        assert!(spec.end_to_end.iter().any(|m| m.name == "setup_s"));
        assert!(spec
            .end_to_end
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
    }
}
