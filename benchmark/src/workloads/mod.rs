//! The four workloads. Each one runs the whole headline path — every
//! workload builds, freezes, reopens and probes its overlay during
//! set-up — and then spends its measured seconds on a different part of
//! it, so that a change to one layer has a workload that exercises it
//! and one that bypasses it.

pub mod build_skew;
pub mod route_static;
pub mod sim;

use crate::pipeline::{self, Cycle, Keys, Scratch};
use crate::stats::{fast_decile_rate, median, slice_rate_median, slow_decile_rate};
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use sw_keyspace::Key;
use sw_overlay::RouteResult;
use sw_sim::{LatencyModel, SimConfig, Simulator};

/// Metric name → value, in name order.
pub type Metrics = BTreeMap<String, f64>;

/// Files one reading.
pub fn put(metrics: &mut Metrics, name: &str, value: f64) {
    metrics.insert(name.to_string(), value);
}

/// Files a module's readings.
pub fn put_all(metrics: &mut Metrics, readings: &[(&str, f64)]) {
    for &(name, value) in readings {
        put(metrics, name, value);
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    BuildSkew,
    RouteStatic,
    TrafficZipf,
    ChurnStorage,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::BuildSkew,
        Workload::RouteStatic,
        Workload::TrafficZipf,
        Workload::ChurnStorage,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BuildSkew => "build_skew",
            Workload::RouteStatic => "route_static",
            Workload::TrafficZipf => "traffic_zipf",
            Workload::ChurnStorage => "churn_storage",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn simulates(self) -> bool {
        matches!(self, Workload::TrafficZipf | Workload::ChurnStorage)
    }

    /// Peers in the overlay. Sized so that set-up (five cycles) plus
    /// fifteen measured seconds stay near twenty seconds on a two-core host;
    /// `--smoke` divides by fifty.
    pub fn peers(self, smoke: bool) -> usize {
        let full = match self {
            Workload::BuildSkew => 100_000,
            // 483 B/peer × 2.5×10⁵ = 121 MB of table against 4 MB of
            // private cache: the kernel runs at memory latency.
            Workload::RouteStatic => 250_000,
            Workload::TrafficZipf => 100_000,
            // Per-peer timers make events per simulated second grow
            // with n; 5×10⁴ peers leave room for some eighty simulated
            // seconds in fifteen host seconds.
            Workload::ChurnStorage => 50_000,
        };
        if smoke {
            full / 50
        } else {
            full
        }
    }
}

pub struct Opts {
    pub seed: u64,
    /// Seconds the measured phase runs for (it always finishes the
    /// slice it is in, and never stops before its fixed minimum).
    pub seconds: f64,
    pub smoke: bool,
    pub trace: bool,
}

impl Opts {
    /// Build → freeze → reopen → probe cycles per run; `setup_s` is
    /// their median.
    fn setup_reps(&self) -> usize {
        if self.smoke {
            2
        } else {
            5
        }
    }

    pub fn probes(&self) -> usize {
        if self.smoke {
            1_024
        } else {
            pipeline::BATCH
        }
    }
}

/// What a workload's measured phase hands back.
#[derive(Default)]
pub struct Measured {
    /// Units of the workload's own work, and the seconds they took, per
    /// slice: peers built, lookups routed or resolved, events delivered.
    pub work: Vec<f64>,
    pub work_secs: Vec<f64>,
    pub hops_mean: f64,
    pub sim_lookup_mean_ms: f64,
    /// Routed or simulated client operations that succeeded / resolved.
    pub ops_ok: u64,
    pub ops: u64,
    /// Calls into the program the harness verified, and how many of
    /// them failed (see README, "attempted and failed").
    pub attempted: u64,
    pub failed: u64,
    /// 1 − traced / untraced headline rate, over alternating slices.
    pub overhead_share: f64,
    /// The simulating workloads read `VmHWM` at the snapshot slice, so
    /// the metric does not grow with how many slices the host then has
    /// time for; the others leave it to the end of the measurement.
    pub peak_rss_mb: Option<f64>,
    pub layer: Metrics,
    pub counts: Metrics,
    /// Further per-slice host seconds, by what was timed.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    pub fingerprint: Option<u64>,
    pub checks: Vec<&'static str>,
    /// `route_static` only: the first queries and their results, kept
    /// for the reference comparison that runs after the RSS reading.
    pub head: Vec<((u32, Key), RouteResult)>,
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub e2e: Metrics,
    pub layer: Metrics,
    /// Slice and sample counts behind the rates.
    pub counts: Metrics,
    /// Every per-slice amount of work and duration, by what was timed.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    pub fingerprint: Option<u64>,
    pub checks: Vec<&'static str>,
    pub trace_file: Option<PathBuf>,
    /// Traced run: per span name (calls, total seconds, self seconds).
    pub spans: BTreeMap<&'static str, (u64, f64, f64)>,
}

/// An overlay that finished set-up: built, frozen, reopened, probed,
/// and — for the simulating workloads — booted into a simulator.
pub struct Ready {
    pub cycle: Cycle,
    pub dir: PathBuf,
    pub sim: Option<Simulator>,
    pub digest: Option<u64>,
}

struct SetupSamples {
    setup_s: Vec<f64>,
    build_s: Vec<f64>,
    open_s: Vec<f64>,
    boot_s: Vec<f64>,
}

/// Milliseconds the simulator's default latency model charges per hop;
/// the static workloads report `hops_mean` times this as their
/// (unloaded) modelled lookup latency.
pub fn modelled_hop_ms() -> f64 {
    match SimConfig::default().latency {
        LatencyModel::Constant(t) => t.as_secs_f64() * 1e3,
        other => panic!("default latency model is no longer constant: {other:?}"),
    }
}

/// Runs set-up `reps` times with the same seed (so every repetition
/// does identical work) and keeps the last overlay for the measurement.
fn setup(
    w: Workload,
    opts: &Opts,
    scratch: &mut Scratch,
    tr: &mut Tracer,
) -> Result<(Ready, SetupSamples), String> {
    let n = w.peers(opts.smoke);
    let mut samples = SetupSamples {
        setup_s: Vec::new(),
        build_s: Vec::new(),
        open_s: Vec::new(),
        boot_s: Vec::new(),
    };
    let mut ready: Option<Ready> = None;
    for rep in 0..opts.setup_reps() {
        if let Some(prev) = ready.take() {
            // Untimed: tearing the previous repetition down.
            let dir = prev.dir.clone();
            drop(prev);
            scratch.remove(&dir);
        }
        tr.set_run(rep as u64);
        let dir = scratch.fresh();
        let t0 = Instant::now();
        let cycle = pipeline::cycle(tr, Keys::Pareto, n, opts.seed, &dir, opts.probes())?;
        let mut boot_s = 0.0;
        let sim = if w.simulates() {
            let t_boot = Instant::now();
            let sim = sim::boot(w, opts, &cycle, &dir, tr)?;
            boot_s = t_boot.elapsed().as_secs_f64();
            Some(sim)
        } else {
            None
        };
        samples.setup_s.push(t0.elapsed().as_secs_f64());
        samples.build_s.push(cycle.build_s);
        samples.open_s.push(cycle.open_s);
        samples.boot_s.push(boot_s);
        if cycle.probe_failed > 0 {
            return Err(format!(
                "{} of {} probes failed on the reopened overlay",
                cycle.probe_failed, cycle.probes
            ));
        }
        ready = Some(Ready {
            cycle,
            dir,
            sim,
            digest: None,
        });
    }
    let mut ready = ready.expect("at least one set-up repetition");
    if w == Workload::BuildSkew {
        // Untimed: only build_skew compares image bytes.
        ready.digest = Some(pipeline::image_digest(&ready.dir)?);
    }
    Ok((ready, samples))
}

/// Runs one workload end to end and assembles its metrics.
pub fn run(w: Workload, opts: &Opts, out_dir: &Path) -> Result<Outcome, String> {
    let mut tr = Tracer::new(opts.trace);
    let spin_before = opts.trace.then(crate::layers::spin_ns_per_iter);
    let mut scratch = Scratch::new(out_dir)?;
    let n = w.peers(opts.smoke);

    let (mut ready, setup) = setup(w, opts, &mut scratch, &mut tr)?;
    let mut m = match w {
        Workload::BuildSkew => build_skew::measure(opts, &ready, &mut scratch, &mut tr)?,
        Workload::RouteStatic => route_static::measure(opts, &ready, &mut tr)?,
        Workload::TrafficZipf | Workload::ChurnStorage => {
            sim::measure(w, opts, &mut ready, &mut tr)?
        }
    };
    // Before the checks and the traced extras: they allocate, and the
    // metric is the workload's high-water mark, not the harness's.
    let peak_rss_mb = match m.peak_rss_mb {
        Some(mb) => mb,
        None => crate::stamp::peak_rss_mb()?,
    };

    match w {
        Workload::RouteStatic => route_static::check(opts, &ready, &mut m)?,
        Workload::TrafficZipf | Workload::ChurnStorage => sim::check(w, opts, &mut ready, &mut m)?,
        Workload::BuildSkew => {}
    }
    m.checks.push("probes_all_delivered");

    let mut e2e = Metrics::new();
    put(&mut e2e, "setup_s", median(&setup.setup_s));
    put(
        &mut e2e,
        "work_per_s",
        fast_decile_rate(&m.work, &m.work_secs),
    );
    put(
        &mut e2e,
        "bytes_per_peer",
        ready.cycle.bytes as f64 / n as f64,
    );
    put(&mut e2e, "hops_mean", m.hops_mean);
    put(&mut e2e, "sim_lookup_mean_ms", m.sim_lookup_mean_ms);
    put(
        &mut e2e,
        "success_share",
        m.ops_ok as f64 / m.ops.max(1) as f64,
    );
    put(&mut e2e, "peak_rss_mb", peak_rss_mb);

    let mut counts = std::mem::take(&mut m.counts);
    put_all(
        &mut counts,
        &[
            ("setup_reps", setup.setup_s.len() as f64),
            ("slices", m.work.len() as f64),
            ("peers", n as f64),
        ],
    );

    let mut trace_file = None;
    if opts.trace {
        tr.set_run(u64::MAX);
        // `build_skew` builds and reopens in every measured slice; the
        // other workloads only in set-up.
        let (build_s, open_s) = match m.samples.get("open_s") {
            Some(open_s) => (&m.work_secs, open_s),
            None => (&setup.build_s, &setup.open_s),
        };
        let medians = crate::layers::SetupMedians {
            build_s: median(build_s),
            open_s: median(open_s),
            boot_s: median(&setup.boot_s),
        };
        crate::layers::traced_extras(w, opts, &mut ready, &mut scratch, &mut tr, &medians, &mut m)?;
        let layer = &mut m.layer;
        put(
            layer,
            "work.median_per_s",
            slice_rate_median(&m.work, &m.work_secs),
        );
        put(
            layer,
            "work.slow_decile_per_s",
            slow_decile_rate(&m.work, &m.work_secs),
        );
        put(layer, "trace.overhead_share", m.overhead_share);
        put(
            layer,
            "host.spin_ns_per_iter.before",
            spin_before.expect("measured when tracing"),
        );
        put(
            layer,
            "host.spin_ns_per_iter.after",
            crate::layers::spin_ns_per_iter(),
        );
        let path = out_dir.join(format!("trace-{}-{}.json", w.name(), opts.seed));
        std::fs::write(&path, tr.chrome_json()).map_err(|e| format!("{}: {e}", path.display()))?;
        trace_file = Some(path);
    }

    let mut samples = std::mem::take(&mut m.samples);
    samples.insert("work", m.work);
    samples.insert("work_s", m.work_secs);
    samples.insert("setup_s", setup.setup_s);
    samples.insert("setup_build_s", setup.build_s);
    samples.insert("setup_open_s", setup.open_s);
    let dir = ready.dir.clone();
    drop(ready);
    scratch.remove(&dir);
    Ok(Outcome {
        attempted: m.attempted,
        failed: m.failed,
        e2e,
        layer: m.layer,
        counts,
        samples,
        fingerprint: m.fingerprint,
        checks: m.checks,
        trace_file,
        spans: tr.totals(),
    })
}

/// Per-slice host rates with alternating tracing: even slices run with
/// the tracer recording, odd ones without, so the two medians see the
/// same drift and their ratio is the tracing overhead.
#[derive(Default)]
pub struct Alternating {
    pub traced: Vec<f64>,
    pub untraced: Vec<f64>,
}

impl Alternating {
    /// Call before slice `index`; `tracing` is whether this is the
    /// traced run at all. Returns whether the slice records spans.
    pub fn arm(tr: &mut Tracer, tracing: bool, index: usize) -> bool {
        let on = tracing && index.is_multiple_of(2);
        tr.set_enabled(on);
        tr.set_run(index as u64);
        on
    }

    pub fn push(&mut self, on: bool, rate: f64) {
        if on {
            self.traced.push(rate);
        } else {
            self.untraced.push(rate);
        }
    }

    /// 1 − median traced rate / median untraced rate; 0 when either
    /// side has no slice (the untraced run).
    pub fn overhead_share(&self) -> f64 {
        if self.traced.is_empty() || self.untraced.is_empty() {
            0.0
        } else {
            1.0 - median(&self.traced) / median(&self.untraced)
        }
    }
}
