//! The head of the headline path, shared by every workload: sample
//! skewed keys → draw harmonic links → fill the arena image in place
//! (sealing is the freeze) → reopen it validated → route probe lookups
//! over the reopened overlay.

use crate::trace::Tracer;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use sw_core::{LinkSampler, SmallWorldBuilder, SmallWorldConfig, SmallWorldNetwork};
use sw_keyspace::distribution::{KeyDistribution, TruncatedPareto, Uniform};
use sw_keyspace::{Key, Rng};
use sw_overlay::route::{route_batch, survey_queries, TargetModel};
use sw_overlay::{Overlay, RouteOptions, RouteResult};

/// File names `build_frozen` / `open_from` use inside an image directory
/// (documented on `SmallWorldNetwork::freeze_to`; the constants
/// themselves are crate-private).
pub const CONTACTS_FILE: &str = "contacts.swt";
pub const LONG_FILE: &str = "long.swt";

/// Lookups per routed batch, probe batches included.
pub const BATCH: usize = 16_384;

/// RNG stream ids under the run seed, so one purpose's draws never
/// shift another's.
pub mod stream {
    pub const PROBES: u64 = 1;
    pub const QUERIES: u64 = 2;
    pub const MICRO: u64 = 3;
}

/// Which key density an overlay is built over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Keys {
    /// `TruncatedPareto(1.5, 0.01)` — the paper's non-uniform case and
    /// every workload's density.
    Pareto,
    /// The uniform twin the traced run builds for the skew ratio.
    Uniform,
}

impl Keys {
    pub fn dist(self) -> Arc<dyn KeyDistribution> {
        match self {
            Keys::Pareto => Arc::new(pareto()),
            Keys::Uniform => Arc::new(Uniform),
        }
    }

    fn boxed(self) -> Box<dyn KeyDistribution> {
        match self {
            Keys::Pareto => Box::new(pareto()),
            Keys::Uniform => Box::new(Uniform),
        }
    }
}

pub fn pareto() -> TruncatedPareto {
    TruncatedPareto::new(1.5, 0.01).expect("constant parameters are valid")
}

/// The paper's configuration with the `O(log N)` harmonic sampler (the
/// exact sampler is `O(N)` per peer).
pub fn config() -> SmallWorldConfig {
    SmallWorldConfig {
        sampler: LinkSampler::Harmonic,
        ..SmallWorldConfig::default()
    }
}

pub fn route_opts(n: usize) -> RouteOptions {
    RouteOptions {
        record_path: false,
        ..RouteOptions::for_n(n)
    }
}

/// Member-key lookups from uniformly random sources, drawn from the
/// seed outside any timed region.
pub fn queries(net: &SmallWorldNetwork, count: usize, rng: &mut Rng) -> Vec<(u32, Key)> {
    survey_queries(net.placement(), count, TargetModel::MemberKeys, rng)
}

/// Hop total and failure count of a batch of results.
pub fn tally(results: &[RouteResult]) -> (u64, u64) {
    let hops = results.iter().map(|r| u64::from(r.hops)).sum();
    let failed = results.iter().filter(|r| !r.success).count() as u64;
    (hops, failed)
}

/// One build → freeze → reopen → probe cycle and what it cost.
pub struct Cycle {
    pub net: SmallWorldNetwork,
    pub build_s: f64,
    pub open_s: f64,
    /// Bytes of both image files on disk.
    pub bytes: u64,
    pub probes: u64,
    pub probe_hops: u64,
    pub probe_failed: u64,
}

/// Runs one cycle into `dir` (created fresh; the caller removes it).
/// The build uses every core; the probes route on one thread.
pub fn cycle(
    tr: &mut Tracer,
    keys: Keys,
    n: usize,
    seed: u64,
    dir: &Path,
    probes: usize,
) -> Result<Cycle, String> {
    let outer = tr.begin("pipeline.cycle");
    let builder = SmallWorldBuilder::new(n)
        .config(config())
        .distribution(keys.boxed());
    let (built, build_s) = tr.timed("core.builder.build_frozen", || {
        builder.build_frozen(&mut Rng::new(seed), dir)
    });
    // The returned handle routes off the mapped files; the workloads
    // want the reopen path, so it goes.
    drop(built.map_err(|e| format!("build_frozen failed: {e}"))?);
    let bytes = file_len(&dir.join(CONTACTS_FILE))? + file_len(&dir.join(LONG_FILE))?;
    let dist = keys.dist();
    let (net, open_s) = tr.timed("core.network.open_from", || {
        SmallWorldNetwork::open_from(dir, config(), dist)
    });
    let net = net.map_err(|e| format!("open_from failed: {e}"))?;
    if net.len() != n {
        return Err(format!("reopened {} peers, built {n}", net.len()));
    }
    let batch = queries(&net, probes, &mut Rng::stream(seed, stream::PROBES));
    let opts = route_opts(n);
    let (results, _) = tr.timed("overlay.route_batch", || {
        route_batch(&net, &batch, &opts, 1)
    });
    let (probe_hops, probe_failed) = tally(&results);
    tr.end(outer);
    Ok(Cycle {
        net,
        build_s,
        open_s,
        bytes,
        probes: probes as u64,
        probe_hops,
        probe_failed,
    })
}

fn file_len(path: &Path) -> Result<u64, String> {
    std::fs::metadata(path)
        .map(|m| m.len())
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// FNV-1a over both image files, for the byte-identity check; streamed
/// through a fixed buffer so the check does not move `peak_rss_mb`.
pub fn image_digest(dir: &Path) -> Result<u64, String> {
    use std::io::Read;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut buf = vec![0u8; 1 << 16];
    for name in [CONTACTS_FILE, LONG_FILE] {
        let path = dir.join(name);
        let err = |e: std::io::Error| format!("{}: {e}", path.display());
        let mut file = std::fs::File::open(&path).map_err(err)?;
        loop {
            let got = file.read(&mut buf).map_err(err)?;
            if got == 0 {
                break;
            }
            for &b in &buf[..got] {
                h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
            }
        }
        // Separates the two files, so moving bytes between them shows.
        h = (h ^ 0xff).wrapping_mul(0x100_0000_01b3);
    }
    Ok(h)
}

/// Scratch space for images: a per-process directory under the
/// benchmark's own `out/`, removed on drop. The benchmark writes
/// nowhere outside its checkout.
pub struct Scratch {
    root: PathBuf,
    next: u64,
}

impl Scratch {
    pub fn new(parent: &Path) -> Result<Scratch, String> {
        let root = parent.join(format!("scratch-{}", std::process::id()));
        std::fs::create_dir_all(&root).map_err(|e| format!("{}: {e}", root.display()))?;
        Ok(Scratch { root, next: 0 })
    }

    /// A path for a fresh image directory (not yet created).
    pub fn fresh(&mut self) -> PathBuf {
        self.next += 1;
        self.root.join(format!("image-{}", self.next))
    }

    pub fn remove(&self, dir: &Path) {
        // A leftover image is harmless (Drop sweeps the root), so a
        // failed removal is not worth failing the run over.
        std::fs::remove_dir_all(dir).ok();
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.root).ok();
    }
}
