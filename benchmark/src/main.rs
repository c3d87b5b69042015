//! The one benchmark for the headline path: build → freeze → reopen →
//! route → simulate. See `README.md` beside this package for the
//! workloads, the metrics and how they interact.
//!
//! ```text
//! sw-benchmark [run]  --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! sw-benchmark trace  --workload <name> …        (same as run --trace 1)
//! sw-benchmark smoke                              all workloads at 1/50 scale, every check
//! sw-benchmark compare <A> <B>                    two result sets against the bounds
//! ```
//!
//! A run prints every metric by name with its unit, then — as the last
//! line of standard output — one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`, and writes the same object with
//! its stamp to `<out>/result-<mode>-<workload>-<seed>.json`.

mod compare;
mod json;
mod layers;
mod pipeline;
mod spec;
mod stamp;
mod stats;
mod trace;
mod workloads;

use spec::{MetricSpec, Spec};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Metrics, Opts, Outcome, Workload};

/// The seed of a run nobody seeded: the paper's year.
const DEFAULT_SEED: u64 = 2005;
const DEFAULT_SECONDS: f64 = 15.0;

struct Args {
    command: String,
    positional: Vec<String>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        command: "run".to_string(),
        positional: Vec::new(),
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    let mut it = raw.iter();
    let mut first = true;
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                let v = value("--seed")?;
                args.seed = v.parse().map_err(|_| format!("--seed {v}: not a u64"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                args.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 3_600.0)
                    .ok_or_else(|| format!("--seconds {v}: not in (0, 3600]"))?;
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: want 0 or 1")),
                }
            }
            "--out" => args.out = PathBuf::from(value("--out")?),
            "run" | "trace" | "smoke" | "compare" if first => args.command = arg.clone(),
            other if other.starts_with("--") => return Err(format!("unknown option {other}")),
            other => args.positional.push(other.to_string()),
        }
        first = false;
    }
    if args.command == "trace" {
        args.trace = true;
    }
    Ok(args)
}

/// `{"name": {"value": v, "unit": "u"}, …}` in the contract's order.
fn metrics_json(listed: &[MetricSpec], values: &Metrics) -> String {
    json::object(listed.iter().map(|m| {
        let value = format!(
            "{{\"value\": {}, \"unit\": {}}}",
            json::number(values[&m.name]),
            json::quote(&m.unit)
        );
        (m.name.clone(), value)
    }))
}

/// Span totals of the traced run: calls, seconds, and self seconds
/// (the span minus what its child spans cover).
fn spans_json(outcome: &Outcome) -> String {
    json::object(outcome.spans.iter().map(|(name, (calls, total, own))| {
        let value = format!(
            "{{\"calls\": {calls}, \"total_s\": {}, \"self_s\": {}}}",
            json::number(*total),
            json::number(*own)
        );
        (name.to_string(), value)
    }))
}

fn samples_json(outcome: &Outcome) -> String {
    json::object(outcome.samples.iter().map(|(name, xs)| {
        let xs: Vec<String> = xs.iter().map(|x| json::number(*x)).collect();
        (name.to_string(), format!("[{}]", xs.join(", ")))
    }))
}

fn counts_json(counts: &Metrics) -> String {
    json::object(counts.iter().map(|(k, v)| (k.clone(), json::number(*v))))
}

/// Runs one workload, checks its metric names against the contract and
/// returns the contract line with the outcome.
fn run_one(
    spec: &Spec,
    w: Workload,
    opts: &Opts,
    out: &Path,
    print_table: bool,
) -> Result<(String, Outcome), String> {
    std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let started = Instant::now();
    let outcome = workloads::run(w, opts, out)?;
    let (listed, values) = if opts.trace {
        (&spec.per_layer, &outcome.layer)
    } else {
        (&spec.end_to_end, &outcome.e2e)
    };
    spec::check_names(listed, values.keys())?;
    if let Some((name, v)) = values.iter().find(|(_, v)| !v.is_finite()) {
        return Err(format!("metric {name} is not finite: {v}"));
    }

    let mode = if opts.trace { "trace" } else { "run" };
    if print_table {
        for m in listed {
            println!("{:<44} {:>18.6} {}", m.name, values[&m.name], m.unit);
        }
    }
    eprintln!(
        "{} {mode} seed {}: {:.1} s wall, checks passed: {}",
        w.name(),
        opts.seed,
        started.elapsed().as_secs_f64(),
        outcome.checks.join(", ")
    );
    let line = format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted,
        outcome.failed,
        metrics_json(listed, values)
    );
    let fingerprint = match outcome.fingerprint {
        Some(f) => json::quote(&format!("{f:016x}")),
        None => "null".to_string(),
    };
    let checks: Vec<String> = outcome.checks.iter().map(|c| json::quote(c)).collect();
    let file = format!(
        "{{\"workload\": {}, \"mode\": {}, \"seconds\": {}, \"smoke\": {},\n \"stamp\": {{{}}},\n \
         \"counts\": {},\n \"checks\": [{}],\n \"fingerprint\": {fingerprint},\n \"trace_file\": {},\n \
         \"spans\": {},\n \"samples\": {},\n \"correct\": true, \"attempted\": {}, \"failed\": {},\n \"metrics\": {}}}\n",
        json::quote(w.name()),
        json::quote(mode),
        json::number(opts.seconds),
        opts.smoke,
        stamp::members(opts.seed, out),
        counts_json(&outcome.counts),
        checks.join(", "),
        match &outcome.trace_file {
            Some(p) => json::quote(&p.display().to_string()),
            None => "null".to_string(),
        },
        spans_json(&outcome),
        samples_json(&outcome),
        outcome.attempted,
        outcome.failed,
        metrics_json(listed, values)
    );
    let path = out.join(format!("result-{mode}-{}-{}.json", w.name(), opts.seed));
    std::fs::write(&path, file).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok((line, outcome))
}

/// All four workloads at 1/50 scale, untraced then traced, with every
/// check on: metric names against `BENCHMARK.json`, sliced against
/// unsliced and traced against untraced fingerprints.
fn smoke(spec: &Spec, args: &Args) -> Result<(), String> {
    let started = Instant::now();
    let out = args.out.join("smoke");
    for w in Workload::ALL {
        let mut fingerprints = Vec::new();
        for trace in [false, true] {
            let opts = Opts {
                seed: args.seed,
                seconds: 1.5,
                smoke: true,
                trace,
            };
            let (_, outcome) = run_one(spec, w, &opts, &out, false)?;
            fingerprints.push(outcome.fingerprint);
        }
        if fingerprints[0] != fingerprints[1] {
            return Err(format!(
                "{}: traced and untraced runs left different fingerprints",
                w.name()
            ));
        }
    }
    let secs = started.elapsed().as_secs_f64();
    eprintln!("smoke: four workloads, untraced and traced, in {secs:.1} s");
    if secs > 60.0 {
        return Err(format!("smoke took {secs:.1} s, over its 60 s budget"));
    }
    Ok(())
}

fn real_main() -> Result<bool, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&raw)?;
    let spec = spec::load(&spec::default_path())?;
    match args.command.as_str() {
        "compare" => match args.positional.as_slice() {
            [a, b] => compare::compare(&spec, Path::new(a), Path::new(b)),
            _ => Err("compare needs two result directories".to_string()),
        },
        "smoke" => smoke(&spec, &args).map(|()| true),
        _ => {
            let name = args
                .workload
                .as_deref()
                .ok_or("--workload is required (one of BENCHMARK.json's workloads)")?;
            let w = Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?;
            if !spec.workloads.iter().any(|listed| listed == name) {
                return Err(format!("workload {name} is not listed in BENCHMARK.json"));
            }
            let opts = Opts {
                seed: args.seed,
                seconds: args.seconds,
                smoke: false,
                trace: args.trace,
            };
            let (line, _) = run_one(&spec, w, &opts, &args.out, true)?;
            println!("{line}");
            Ok(true)
        }
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(2),
        Err(e) => {
            eprintln!("sw-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
