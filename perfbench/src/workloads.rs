//! The end-to-end workloads: `designspace`, `sampled` and `serve`.
//!
//! Each run repeats timed operation batches ("passes") until
//! `--seconds` of wall time have gone (at least [`MIN_PASSES`]), and
//! sets up afresh before each pass. Every figure is a median:
//! `setup_s` over set-ups, `sim_records_per_s` over passes (records of
//! the pass over its timed wall time, set-up excluded), `op_ms_p50`
//! over passes of each pass's median operation time. Taking the median
//! inside each pass first keeps a slow pass from reordering the points
//! of a fast one: a pass holds one point per design, so a pooled median
//! would jump between design clusters.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

use fc_sim::registry::DESIGN_FAMILIES;
use fc_sim::DesignSpec;
use fc_sweep::{
    run_sampled_grid_pit, serve_jsonl, RunScale, SampledGrid, SweepEngine, SweepSpec, WorkloadKind,
};
use fc_types::json::JsonValue;

use crate::check::{self, Pins};
use crate::{median, percentile, Metric, Outcome, THREADS};

/// The workload names `--workload` accepts.
pub const NAMES: [&str; 3] = ["designspace", "sampled", "serve"];

/// Fewest timed passes a run makes, whatever `--seconds` says.
const MIN_PASSES: usize = 3;

/// Passes after which `peak_rss_mb` reads the high-water mark (at the
/// end of a shorter run). A fixed amount of work keeps a faster program
/// from reading as a fatter one (serve memory creeps up with the passes
/// a run fits in), and enough passes let the allocator's high-water
/// mark settle.
const RSS_PASSES: usize = 8;

/// DRAM-cache capacity of both simulation workloads: small enough that
/// every cached design evicts inside the measured window.
pub const CAPACITY_MB: u64 = 8;

/// Interval workers of the parallel-in-time sampler.
const PIT_WORKERS: usize = 2;

/// Memoized grids the serve store holds; one request in
/// [`FRESH_EVERY`] asks for a new seed instead.
pub const SERVE_MEMO_GRIDS: u64 = 16;
const FRESH_EVERY: u64 = 10;
/// Requests per serve pass (a whole number of fresh/memo cycles).
/// [`MIN_PASSES`] of them hold 150 fresh and 1350 memo requests: more
/// than ten samples beyond the fresh p90 and the memo p95.
pub const SERVE_PASS: usize = 500;
/// Stacked capacity of the serve grids.
const SERVE_CAPACITY_MB: u64 = 64;
/// Executor threads of the engine that answers serve requests. A
/// request is small (a fresh one simulates 24 tiny points in some
/// 60 ms on one thread); two workers would spawn and join a thread pair
/// on every request, memo ones too, and request latency would follow
/// how soon a shared host runs the second thread more than the serve
/// stack. The base store is built on as many threads: a second one
/// leaves an allocator arena behind whose fragmentation made
/// `peak_rss_mb` differ by half from run to run at one seed.
pub const SERVE_THREADS: usize = 1;

/// Every registry family at `mb` (capacity-less families once).
pub fn all_families(mb: u64) -> Vec<DesignSpec> {
    DESIGN_FAMILIES.iter().map(|f| f.build(mb)).collect()
}

/// `designspace`: every family at 8 MB on Web Search and MapReduce at
/// `quick` run lengths.
pub fn designspace_spec(seed: u64) -> SweepSpec {
    SweepSpec::new(RunScale::quick()).with_seed(seed).grid(
        &[WorkloadKind::WebSearch, WorkloadKind::MapReduce],
        &all_families(CAPACITY_MB),
    )
}

/// The `long` scale evaluated at [`CAPACITY_MB`] for every point. The
/// capacity-less baseline would otherwise size like 64 MB and alone
/// need a trace 4.5 times longer (475 MB) than the 8 MB designs, which
/// made the workload a memory-bandwidth test.
fn sampled_scale() -> RunScale {
    let long = RunScale::long();
    RunScale {
        warmup_base: long.warmup(CAPACITY_MB),
        warmup_per_mb: 0,
        measured_base: long.measured(CAPACITY_MB),
        measured_per_mb: 0,
    }
}

/// `sampled`: six designs on Data Serving at the `long` scale (8 MB
/// run lengths), each under its auto-derived sample plan.
pub fn sampled_grid(seed: u64) -> SampledGrid {
    let designs = [
        DesignSpec::baseline(),
        DesignSpec::block(CAPACITY_MB),
        DesignSpec::page(CAPACITY_MB),
        DesignSpec::footprint(CAPACITY_MB),
        DesignSpec::alloy(CAPACITY_MB),
        DesignSpec::banshee(CAPACITY_MB),
    ];
    let spec = SweepSpec::new(sampled_scale())
        .with_seed(seed)
        .grid(&[WorkloadKind::DataServing], &designs);
    SampledGrid::auto(&spec)
}

/// The seed of the `i`-th memoized serve grid.
pub fn serve_memo_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_mul(1_000).wrapping_add(i)
}

/// The seed of the `k`-th fresh serve request (never a memo seed).
fn serve_fresh_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(1_000).wrapping_add(100 + k)
}

/// The JSONL request for the tiny designspace grid at `grid_seed`.
pub fn serve_request(id: &str, grid_seed: u64) -> String {
    format!(
        "{{\"id\": \"{id}\", \"grid\": \"designspace\", \"capacities\": [{SERVE_CAPACITY_MB}], \
         \"workloads\": [\"web search\", \"mapreduce\"], \"scale\": \"tiny\", \"seed\": {grid_seed}}}"
    )
}

/// The sweep spec a [`serve_request`] expands to (same points, same keys).
pub fn serve_spec(grid_seed: u64) -> SweepSpec {
    SweepSpec::new(RunScale::tiny())
        .with_seed(grid_seed)
        .grid(
            &[WorkloadKind::WebSearch, WorkloadKind::MapReduce],
            &all_families(SERVE_CAPACITY_MB),
        )
        .dedup()
}

/// A fresh 2-thread engine whose trace cache already holds every trace
/// `spec` replays (the set-up half of a designspace pass).
pub fn prewarmed_engine(spec: &SweepSpec) -> SweepEngine {
    let engine = SweepEngine::new().with_threads(THREADS).quiet();
    for p in spec.points() {
        let _ = engine.trace_cache().records(
            p.workload,
            p.config.cores,
            p.seed(),
            p.warmup() + p.measured(),
        );
    }
    engine
}

/// A fresh engine sized for `grid` with its traces synthesized (the
/// set-up half of a sampled pass).
pub fn sampled_engine(grid: &SampledGrid) -> SweepEngine {
    let engine = SweepEngine::new()
        .with_threads(THREADS)
        .with_trace_budget(grid.max_records() as usize)
        .quiet();
    grid.prefetch_traces(&engine);
    engine
}

pub fn run(workload: &str, seed: u64, seconds: f64, pins: &Pins) -> Outcome {
    match workload {
        "designspace" => designspace(seed, seconds, pins),
        "sampled" => sampled(seed, seconds, pins),
        _ => serve(seed, seconds, pins),
    }
}

fn panic_reason(e: Box<dyn std::any::Any + Send>) -> String {
    e.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| e.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".to_string())
}

/// What a run measured, pass by pass.
#[derive(Default)]
struct Passes {
    setup: Vec<f64>,
    records_per_s: Vec<f64>,
    op_p50_secs: Vec<f64>,
    ops: usize,
    /// VmHWM after the first [`RSS_PASSES`] passes.
    peak_rss_mb: Option<f64>,
}

impl Passes {
    /// Records one pass: trace records advanced, the timed wall seconds
    /// they took, and the seconds of each operation.
    fn pass(&mut self, records: u64, wall: f64, op_secs: &[f64]) {
        self.records_per_s.push(records as f64 / wall);
        self.op_p50_secs.push(median(op_secs));
        self.ops += op_secs.len();
        if self.records_per_s.len() == RSS_PASSES {
            self.peak_rss_mb = Some(crate::peak_rss_mb());
        }
    }

    /// Pushes the end-to-end metrics.
    fn finish(self, out: &mut Outcome) {
        let Self {
            setup,
            records_per_s,
            op_p50_secs,
            ops,
            peak_rss_mb,
        } = self;
        out.push(Metric::sampled("setup_s", median(&setup), "s", setup.len()));
        out.push(Metric::sampled(
            "sim_records_per_s",
            median(&records_per_s),
            "1/s",
            records_per_s.len(),
        ));
        out.push(Metric::sampled(
            "op_ms_p50",
            median(&op_p50_secs) * 1e3,
            "ms",
            ops,
        ));
        let peak_rss_mb = peak_rss_mb.unwrap_or_else(crate::peak_rss_mb);
        out.push(Metric::new("peak_rss_mb", peak_rss_mb, "MB"));
    }
}

fn designspace(seed: u64, seconds: f64, pins: &Pins) -> Outcome {
    let spec = designspace_spec(seed);
    let mut out = Outcome::default();
    let mut t = Passes::default();
    let started = Instant::now();
    while t.setup.len() < MIN_PASSES || started.elapsed().as_secs_f64() < seconds {
        let setup = Instant::now();
        let engine = prewarmed_engine(&spec);
        t.setup.push(setup.elapsed().as_secs_f64());

        let pass = Instant::now();
        let results = catch_unwind(AssertUnwindSafe(|| engine.run_spec(&spec)));
        let wall = pass.elapsed().as_secs_f64();
        out.attempted += spec.len() as u64;
        let results = match results {
            Ok(r) => r,
            Err(e) => {
                out.fail(format!("designspace pass panicked: {}", panic_reason(e)));
                out.failed += spec.len() as u64 - 1;
                continue;
            }
        };
        let records = results
            .iter()
            .map(|r| r.point.warmup() + r.point.measured());
        let op_secs: Vec<f64> = results.iter().map(|r| r.sim_secs).collect();
        t.pass(records.sum(), wall, &op_secs);
        for r in &results {
            let verdict = pins
                .check_sim("designspace", &r.point, &r.report)
                .and_then(|()| check::cache_filled(&r.point, &r.report));
            if let Err(reason) = verdict {
                out.fail(reason);
            }
        }
    }
    t.finish(&mut out);
    out
}

fn sampled(seed: u64, seconds: f64, pins: &Pins) -> Outcome {
    let grid = sampled_grid(seed);
    let mut out = Outcome::default();
    let mut t = Passes::default();
    let started = Instant::now();
    while t.setup.len() < MIN_PASSES || started.elapsed().as_secs_f64() < seconds {
        let setup = Instant::now();
        let engine = sampled_engine(&grid);
        t.setup.push(setup.elapsed().as_secs_f64());

        let pass = Instant::now();
        let results = catch_unwind(AssertUnwindSafe(|| {
            run_sampled_grid_pit(&grid, &engine, PIT_WORKERS)
        }));
        let wall = pass.elapsed().as_secs_f64();
        out.attempted += grid.len() as u64;
        let results = match results {
            Ok(r) => r,
            Err(e) => {
                out.fail(format!("sampled pass panicked: {}", panic_reason(e)));
                out.failed += grid.len() as u64 - 1;
                continue;
            }
        };
        let records = results.iter().map(|r| r.report.replayed_records);
        let op_secs: Vec<f64> = results.iter().map(|r| r.sim_secs).collect();
        t.pass(records.sum(), wall, &op_secs);
        for r in &results {
            if let Err(reason) = pins.check_sampled(&r.point.point, &r.report) {
                out.fail(reason);
            }
        }
    }
    t.finish(&mut out);
    out
}

/// A scratch store directory under `perfbench/out`, named after this
/// process and removed on drop.
pub struct StoreDir(pub PathBuf);

impl StoreDir {
    pub fn new(tag: &str) -> Self {
        let dir = crate::out_dir().join(format!("{tag}-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Self(dir)
    }
}

impl Drop for StoreDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The serve workload's state across passes: a base store holding
/// every memoized grid, the request sequence, and the first answer to
/// each memo grid (every later answer must match it byte for byte).
pub struct ServeRun {
    seed: u64,
    base: StoreDir,
    mix: RequestMix,
    memo_bodies: HashMap<u64, u64>,
}

/// What one serve pass sent and measured.
#[derive(Default)]
pub struct ServePass {
    /// Wall seconds of the pass's requests, set-up excluded.
    pub wall: f64,
    /// Trace records the fresh requests simulated.
    pub records: u64,
    pub memo_secs: Vec<f64>,
    pub fresh_secs: Vec<f64>,
    pub fresh_seeds: Vec<u64>,
}

impl ServeRun {
    /// Simulates every memoized grid of `seed` into a base store.
    pub fn new(seed: u64) -> Self {
        let base = StoreDir::new("serve-base");
        let engine = SweepEngine::new()
            .with_threads(SERVE_THREADS)
            .quiet()
            .with_durable_store(&base.0)
            .expect("create serve store");
        for i in 0..SERVE_MEMO_GRIDS {
            engine.run_spec(&serve_spec(serve_memo_seed(seed, i)));
        }
        Self {
            seed,
            base,
            mix: RequestMix::new(seed),
            memo_bodies: HashMap::new(),
        }
    }

    /// Copies the base store (untimed), then opens it and loads every
    /// shard the memo grids touch (timed: the returned seconds). Every
    /// pass starts from the same store, so fresh appends never pile up.
    pub fn open(&self, out: &mut Outcome) -> (SweepEngine, StoreDir, f64) {
        let dir = StoreDir::new("serve-pass");
        std::fs::create_dir_all(&dir.0).expect("create serve pass store");
        for entry in std::fs::read_dir(&self.base.0).expect("serve base store") {
            let path = entry.expect("serve base entry").path();
            std::fs::copy(&path, dir.0.join(path.file_name().expect("file name")))
                .expect("copy serve store");
        }
        let started = Instant::now();
        let engine = SweepEngine::new()
            .with_threads(SERVE_THREADS)
            .quiet()
            .with_durable_store(&dir.0)
            .expect("open serve store");
        let missing = (0..SERVE_MEMO_GRIDS)
            .flat_map(|i| serve_spec(serve_memo_seed(self.seed, i)).points().to_vec())
            .filter(|p| engine.store().get(&p.key()).is_none())
            .count();
        let setup = started.elapsed().as_secs_f64();
        out.attempted += 1;
        if missing > 0 {
            out.fail(format!(
                "{missing} memo points missing from the serve store"
            ));
        }
        (engine, dir, setup)
    }

    /// Sends the next [`SERVE_PASS`] requests to `engine`, validating
    /// each answer, then checks every memo and fresh point the store
    /// holds.
    pub fn pass(&mut self, engine: &SweepEngine, pins: &Pins, out: &mut Outcome) -> ServePass {
        let mut pass = ServePass::default();
        for (grid_seed, fresh) in self.mix.by_ref().take(SERVE_PASS) {
            let answer = ask(engine, grid_seed, fresh);
            pass.wall += answer.secs;
            out.attempted += 1;
            if fresh {
                pass.fresh_secs.push(answer.secs);
                pass.fresh_seeds.push(grid_seed);
                let points = serve_spec(grid_seed);
                pass.records += points
                    .points()
                    .iter()
                    .map(|p| p.warmup() + p.measured())
                    .sum::<u64>();
            } else {
                pass.memo_secs.push(answer.secs);
                let first = *self
                    .memo_bodies
                    .entry(grid_seed)
                    .or_insert(answer.body_digest);
                if first != answer.body_digest {
                    out.fail(format!(
                        "grid {grid_seed}: memo answer differs from the first one"
                    ));
                }
            }
            if let Some(problem) = answer.problem {
                out.fail(problem);
            }
        }
        check_serve_store(engine, self.seed, &pass.fresh_seeds, pins, out);
        pass
    }
}

/// The request sequence of a serve run: `(grid seed, fresh)`.
/// Every [`FRESH_EVERY`]-th request asks for a new seed; the others
/// pick a memoized grid with a generator seeded by `seed`.
pub struct RequestMix {
    seed: u64,
    k: u64,
    rng: u64,
}

impl RequestMix {
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            k: 0,
            rng: seed ^ 0x5DEE_CE66_D1CE_4E5B,
        }
    }
}

impl Iterator for RequestMix {
    type Item = (u64, bool);

    fn next(&mut self) -> Option<Self::Item> {
        let k = self.k;
        self.k += 1;
        if k % FRESH_EVERY == FRESH_EVERY - 1 {
            return Some((serve_fresh_seed(self.seed, k), true));
        }
        // splitmix64
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        Some((serve_memo_seed(self.seed, z % SERVE_MEMO_GRIDS), false))
    }
}

/// One answered request: its latency and whether the response held
/// the expected number of points, no error, and the right fresh count.
pub struct Answer {
    pub secs: f64,
    pub body_digest: u64,
    pub problem: Option<String>,
}

/// Sends one request through `serve_jsonl` and validates the response.
/// The request id names the grid, so repeated memo answers are
/// byte-identical.
pub fn ask(engine: &SweepEngine, grid_seed: u64, fresh: bool) -> Answer {
    let id = format!("g{grid_seed}");
    let line = serve_request(&id, grid_seed);
    let mut response = Vec::with_capacity(64 * 1024);
    let started = Instant::now();
    let served = catch_unwind(AssertUnwindSafe(|| {
        serve_jsonl(engine, line.as_bytes(), &mut response)
    }));
    let secs = started.elapsed().as_secs_f64();
    let problem = match served {
        Err(e) => Some(format!("request {id} panicked: {}", panic_reason(e))),
        Ok(Err(e)) => Some(format!("request {id}: io error {e}")),
        Ok(Ok(_)) => validate_response(&response, serve_spec(grid_seed).len(), fresh)
            .err()
            .map(|e| format!("request {id} (seed {grid_seed}): {e}")),
    };
    let points_end = response
        .windows(18)
        .position(|w| w == b"{\"type\": \"summary\"")
        .unwrap_or(response.len());
    Answer {
        secs,
        body_digest: fc_types::fnv1a(&response[..points_end]),
        problem,
    }
}

fn validate_response(response: &[u8], expected: usize, fresh: bool) -> Result<(), String> {
    let text = std::str::from_utf8(response).map_err(|e| e.to_string())?;
    let mut points = 0;
    let mut summary = None;
    for line in text.lines() {
        if line.starts_with("{\"type\": \"point\"") {
            points += 1;
        } else if line.starts_with("{\"type\": \"summary\"") {
            summary = Some(JsonValue::parse(line)?);
        } else {
            return Err(format!("unexpected response line: {line}"));
        }
    }
    let summary = summary.ok_or("no summary line")?;
    let summary_points = summary.field("points")?.as_u64()?;
    let summary_fresh = summary.field("fresh")?.as_u64()?;
    let want_fresh = if fresh { expected as u64 } else { 0 };
    if points != expected || summary_points != expected as u64 || summary_fresh != want_fresh {
        return Err(format!(
            "{points} point lines, summary {summary_points} points / {summary_fresh} fresh; \
             the grid has {expected} points, {want_fresh} fresh expected"
        ));
    }
    Ok(())
}

/// Checks every point of the memo grids (and of each fresh grid in
/// `fresh_seeds`) held by the engine's store.
fn check_serve_store(
    engine: &SweepEngine,
    seed: u64,
    fresh_seeds: &[u64],
    pins: &Pins,
    out: &mut Outcome,
) {
    let memo = (0..SERVE_MEMO_GRIDS).map(|i| (serve_memo_seed(seed, i), true));
    for (grid_seed, pinned) in memo.chain(fresh_seeds.iter().map(|&s| (s, false))) {
        for p in serve_spec(grid_seed).points() {
            let verdict = match engine.store().get(&p.key()) {
                None => Err(format!("serve store lost {} (seed {grid_seed})", p.label())),
                Some(report) if pinned => pins.check_sim("serve", p, &report),
                Some(report) => check::sim_invariants(p, &report),
            };
            if let Err(reason) = verdict {
                out.fail(reason);
            }
        }
    }
}

fn serve(seed: u64, seconds: f64, pins: &Pins) -> Outcome {
    let mut out = Outcome::default();
    let mut run = ServeRun::new(seed);
    let mut t = Passes::default();
    let (mut memo, mut fresh) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while t.setup.len() < MIN_PASSES || started.elapsed().as_secs_f64() < seconds {
        let (engine, _dir, setup) = run.open(&mut out);
        t.setup.push(setup);
        let pass = run.pass(&engine, pins, &mut out);
        let op_secs: Vec<f64> = pass
            .memo_secs
            .iter()
            .chain(&pass.fresh_secs)
            .copied()
            .collect();
        t.pass(pass.records, pass.wall, &op_secs);
        memo.extend(pass.memo_secs);
        fresh.extend(pass.fresh_secs);
    }
    t.finish(&mut out);
    for (name, values, p) in [
        ("req_memo_ms_p50", &memo, 50.0),
        ("req_memo_ms_p95", &memo, 95.0),
        ("req_fresh_ms_p50", &fresh, 50.0),
        ("req_fresh_ms_p90", &fresh, 90.0),
    ] {
        out.notes.push(format!(
            "{name} = {:.4} ms (n={})",
            percentile(values, p) * 1e3,
            values.len()
        ));
    }
    out
}
