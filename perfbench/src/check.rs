//! Output checks: pinned digests at seed 42, report invariants at
//! every other seed, and the cache-fill guard.
//!
//! A point's digest is `fnv1a` over `StoreValue::to_store_json` of its
//! `SimReport`. `SampledReport` has no store encoding, so a sampled
//! point's digest is `fnv1a` over its `Debug` rendering (every field;
//! floats print in their shortest round-trip form).

use std::collections::HashMap;

use fc_sample::SampledReport;
use fc_sim::SimReport;
use fc_sweep::{run_sampled_grid, StoreValue, SweepEngine, SweepPoint};
use fc_types::fnv1a;

use crate::workloads;
use crate::PINNED_SEED;

const PINNED: &str = include_str!("../pinned_digests.txt");

/// Digest of a detailed report.
pub fn sim_digest(report: &SimReport) -> u64 {
    fnv1a(report.to_store_json().as_bytes())
}

/// Digest of a sampled report.
pub fn sampled_digest(report: &SampledReport) -> u64 {
    fnv1a(format!("{report:?}").as_bytes())
}

/// Invariants of a detailed report: the design's hits and misses add
/// up to its accesses, and the cores saw exactly the measured records.
pub fn sim_invariants(p: &SweepPoint, r: &SimReport) -> Result<(), String> {
    let c = &r.cache;
    if c.hits + c.misses != c.accesses {
        return Err(format!(
            "{}: hits {} + misses {} != accesses {}",
            p.label(),
            c.hits,
            c.misses,
            c.accesses
        ));
    }
    let replayed: u64 = r.per_core.iter().map(|c| c.l2_accesses).sum();
    if replayed != p.measured() {
        return Err(format!(
            "{}: replayed {replayed} records, {} requested",
            p.label(),
            p.measured()
        ));
    }
    Ok(())
}

/// Invariants of a sampled report: it covers exactly the requested
/// records, and every interval's hits and misses add up.
pub fn sampled_invariants(p: &SweepPoint, r: &SampledReport) -> Result<(), String> {
    if r.total_records != p.warmup() + p.measured() {
        return Err(format!(
            "{}: covered {} records, {} requested",
            p.label(),
            r.total_records,
            p.warmup() + p.measured()
        ));
    }
    match r.intervals.iter().find(|i| i.hits + i.misses != i.accesses) {
        Some(i) => Err(format!(
            "{}: interval {} hits + misses != accesses",
            p.label(),
            i.index
        )),
        None => Ok(()),
    }
}

/// The cache-fill guard: a cached design must evict during its
/// measured window, or the run measured a cold cache.
pub fn cache_filled(p: &SweepPoint, r: &SimReport) -> Result<(), String> {
    if p.design.capacity_mb().is_some() && r.cache.evictions == 0 {
        return Err(format!(
            "{}: no evictions in the measured window",
            p.label()
        ));
    }
    Ok(())
}

/// The pinned digests, keyed by (benchmark workload, point key).
pub struct Pins {
    seed: u64,
    digests: HashMap<(String, u64), u64>,
}

impl Pins {
    pub fn load(seed: u64) -> Self {
        let digests = PINNED
            .lines()
            .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
            .map(|l| {
                let f: Vec<&str> = l.split('\t').collect();
                let hex = |s: &str| u64::from_str_radix(s, 16).expect("pinned hex");
                ((f[0].to_string(), hex(f[1])), hex(f[2]))
            })
            .collect();
        Self { seed, digests }
    }

    fn compare(&self, bench: &str, p: &SweepPoint, digest: u64) -> Result<(), String> {
        if self.seed != PINNED_SEED {
            return Ok(());
        }
        match self.digests.get(&(bench.to_string(), p.key().hash64())) {
            Some(&pinned) if pinned == digest => Ok(()),
            Some(&pinned) => Err(format!(
                "{bench} {} (seed {}): digest {digest:016x}, pinned {pinned:016x}",
                p.label(),
                p.base_seed
            )),
            None => Err(format!("{bench} {}: no pinned digest", p.label())),
        }
    }

    /// Checks a detailed point: invariants always, and the pinned
    /// digest at seed 42.
    pub fn check_sim(&self, bench: &str, p: &SweepPoint, r: &SimReport) -> Result<(), String> {
        sim_invariants(p, r)?;
        self.compare(bench, p, sim_digest(r))
    }

    /// Checks a sampled point the same way.
    pub fn check_sampled(&self, p: &SweepPoint, r: &SampledReport) -> Result<(), String> {
        sampled_invariants(p, r)?;
        self.compare("sampled", p, sampled_digest(r))
    }
}

/// Renders `pinned_digests.txt`: every point of every workload at seed
/// 42, simulated on one thread.
pub fn pin_all() -> String {
    let mut out = String::from(
        "# Pinned result digests at seed 42 (one thread): workload, point key, digest, label.\n\
         # Regenerate with: cargo run --release --manifest-path perfbench/Cargo.toml -- --pin\n",
    );
    let mut line = |bench: &str, p: &SweepPoint, digest: u64| {
        out.push_str(&format!(
            "{bench}\t{:016x}\t{digest:016x}\t{} seed {}\n",
            p.key().hash64(),
            p.label(),
            p.base_seed
        ));
    };
    let engine = || SweepEngine::new().with_threads(1).quiet();
    for r in engine().run_spec(&workloads::designspace_spec(PINNED_SEED)) {
        line("designspace", &r.point, sim_digest(&r.report));
    }
    let grid = workloads::sampled_grid(PINNED_SEED);
    let sampled = engine().with_trace_budget(grid.max_records() as usize);
    for r in run_sampled_grid(&grid, &sampled) {
        line("sampled", &r.point.point, sampled_digest(&r.report));
    }
    let serve = engine();
    for i in 0..workloads::SERVE_MEMO_GRIDS {
        let spec = workloads::serve_spec(workloads::serve_memo_seed(PINNED_SEED, i));
        for r in serve.run_spec(&spec) {
            line("serve", &r.point, sim_digest(&r.report));
        }
    }
    out
}
