//! The traced run: attributes host time to each layer by timing calls
//! into that layer's public functions from here, around one pass of
//! the workload.
//!
//! 1. After a warm-up pass, one pass with tracing off and one with
//!    `fc_obs::trace` on give `obs.overhead_ratio`; the plain pass gives
//!    `sweep.busy_s/idle_s`.
//! 2. The workload's points are replayed layer by layer, each replay
//!    twice with the faster run kept:
//!    `TraceGenerator::next` (trace), a standalone `SramCache::access`
//!    replay (l2), `MemorySystem::warm_access`/`warm_writeback` over
//!    the captured L2 miss and writeback stream (design),
//!    `Simulation::step_functional` (functional = l2 + design +
//!    engine) and `Simulation::step` (detailed = functional + timing).
//!    The layer self times must add up to an independent replay of the
//!    same point along the executor's own path (synthesis into a
//!    `TraceCache`, `step_slice`, `run_records`).
//! 3. The sampler's `build_base` / `run_interval` / `assemble_report`
//!    run on the same points (sample).
//! 4. The points' reports go through a scratch durable store, the
//!    emitter and `serve_jsonl` (store, emit, serve).
//!
//! Spans recorded here (category `layer`) and the program's own spans
//! are kept in memory and written as one Chrome trace at the end.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use fc_cache::{SramCache, SramOutcome};
use fc_obs::trace;
use fc_sample::{assemble_report, build_base, run_interval, SamplePlan};
use fc_sim::registry::DESIGN_FAMILIES;
use fc_sim::{SimConfig, SimReport, Simulation};
use fc_sweep::{
    emit, run_sampled_grid_pit, serve_jsonl, Durable, RunScale, SampledPoint, SweepResult,
    SweepSpec, TraceCache, DEFAULT_DISK_SHARDS,
};
use fc_trace::{TraceGenerator, TraceRecord, WorkloadKind};
use fc_types::{MemAccess, PhysAddr};

use crate::check::Pins;
use crate::workloads::{self, StoreDir};
use crate::{Metric, Outcome, THREADS};

/// Largest share of the independent full replay by which the summed
/// layer self times may differ from it (and by which a layer's self
/// time may fall below zero) before the accounting check fails.
const ACCOUNTING_TOLERANCE: f64 = 0.2;

/// Repetitions of the probe request in the store/emit/serve probe.
const PROBE_REPS: usize = 20;

fn secs(started: Instant) -> f64 {
    started.elapsed().as_secs_f64()
}

/// Runs a timed replay twice and keeps the faster run: the layer times
/// are differences of separate replays, and one burst of interference
/// from other tenants of the host would otherwise skew a subtraction.
fn fastest<T>(mut replay: impl FnMut() -> (f64, T)) -> (f64, T) {
    let first = replay();
    let second = replay();
    if second.0 < first.0 {
        second
    } else {
        first
    }
}

/// One point to replay: the first `len` records of its trace, of which
/// `warmup` precede the measured window.
struct Replay {
    point: fc_sweep::SweepPoint,
    records: Arc<Vec<TraceRecord>>,
    len: usize,
    warmup: u64,
}

/// What one pass of the workload produced.
struct Pass {
    wall: f64,
    /// Summed per-point busy seconds of the sweep executor, and the
    /// wall time of the executor call they came from.
    busy: f64,
    busy_wall: f64,
}

/// What a workload hands the layer replays.
struct Traced {
    plain: Pass,
    /// Wall time of the same pass with tracing on.
    traced_wall: f64,
    /// Points replayed layer by layer.
    set: Vec<Replay>,
    /// Points (with their full traces) the sample layer runs.
    sampled: Vec<(SampledPoint, Arc<Vec<TraceRecord>>)>,
    probe: Probe,
}

pub fn run(workload: &str, seed: u64, pins: &Pins) -> Outcome {
    let mut out = Outcome::default();
    let started = Instant::now();
    let t = match workload {
        "designspace" => designspace(seed, pins, &mut out),
        "sampled" => sampled(seed, pins, &mut out),
        _ => serve(seed, pins, &mut out),
    };
    out.push(Metric::new(
        "obs.overhead_ratio",
        t.traced_wall / t.plain.wall,
        "ratio",
    ));
    out.push(Metric::new("sweep.busy_s", t.plain.busy, "s"));
    out.push(Metric::new(
        "sweep.idle_s",
        THREADS as f64 * t.plain.busy_wall - t.plain.busy,
        "s",
    ));
    let results = replay_layers(&t.set, &mut out);
    sample_layer(&t.sampled, &mut out);
    store_layers(&results, &t.probe, &mut out);

    let path = crate::out_dir().join(format!("trace-{workload}-seed{seed}.json"));
    fc_types::atomic_write(&path, trace::chrome_trace_json().as_bytes())
        .expect("write chrome trace");
    out.notes.push(format!(
        "traced run took {:.1}s; Chrome trace {}",
        secs(started),
        path.display()
    ));
    out
}

/// The request the store/emit/serve probe serves from a scratch store
/// holding every replayed point's report; it expands to the points of
/// `request_spec`, each of which matches a replayed point.
struct Probe {
    request: String,
    request_spec: SweepSpec,
}

impl Probe {
    /// The store key for a replayed point's report: the key of the
    /// request point with the same workload, design and seed (the scales
    /// may differ), or the point's own key.
    fn key_for(&self, p: &fc_sweep::SweepPoint) -> fc_sweep::PointKey {
        self.request_spec
            .points()
            .iter()
            .find(|q| (q.workload, q.design, q.base_seed) == (p.workload, p.design, p.base_seed))
            .unwrap_or(p)
            .key()
    }
}

fn probe_request(designs: &str, mb: u64, workloads: &str, scale: &str, seed: u64) -> String {
    format!(
        "{{\"id\": \"probe\", \"designs\": \"{designs}\", \"capacities\": [{mb}], \
         \"workloads\": [{workloads}], \"scale\": \"{scale}\", \"seed\": {seed}}}"
    )
}

fn family_list() -> String {
    DESIGN_FAMILIES
        .iter()
        .map(|f| f.name)
        .collect::<Vec<_>>()
        .join(",")
}

/// Each replayed point under its own sample plan, with its trace.
fn auto_sampled(set: &[Replay]) -> Vec<(SampledPoint, Arc<Vec<TraceRecord>>)> {
    set.iter()
        .map(|r| (SampledPoint::auto(r.point), Arc::clone(&r.records)))
        .collect()
}

fn designspace(seed: u64, pins: &Pins, out: &mut Outcome) -> Traced {
    let spec = workloads::designspace_spec(seed);
    let one_pass = |out: &mut Outcome| {
        let engine = workloads::prewarmed_engine(&spec);
        let _span = trace::span("designspace-pass", "layer");
        let started = Instant::now();
        let results = engine.run_spec(&spec);
        let wall = secs(started);
        out.attempted += results.len() as u64;
        for r in &results {
            if let Err(reason) = pins.check_sim("designspace", &r.point, &r.report) {
                out.fail(reason);
            }
        }
        let busy = results.iter().map(|r| r.sim_secs).sum();
        let pass = Pass {
            wall,
            busy,
            busy_wall: wall,
        };
        (pass, engine)
    };
    one_pass(out); // warm-up: the first pass pays page faults and allocator growth
    let (plain, _) = one_pass(out);
    trace::enable();
    let (traced, engine) = one_pass(out);
    let traced_wall = traced.wall;
    let set: Vec<Replay> = spec
        .points()
        .iter()
        .map(|p| replay_of(&engine, p, p.warmup(), p.measured()))
        .collect();
    let probe = Probe {
        request: probe_request(
            &family_list(),
            workloads::CAPACITY_MB,
            "\"web search\", \"mapreduce\"",
            "quick",
            seed,
        ),
        request_spec: spec,
    };
    Traced {
        plain,
        traced_wall,
        sampled: auto_sampled(&set),
        set,
        probe,
    }
}

fn replay_of(
    engine: &fc_sweep::SweepEngine,
    p: &fc_sweep::SweepPoint,
    warmup: u64,
    measured: u64,
) -> Replay {
    let len = warmup + measured;
    let records = engine
        .trace_cache()
        .records(p.workload, p.config.cores, p.seed(), len)
        .expect("trace within the cache budget");
    Replay {
        point: *p,
        records,
        len: len as usize,
        warmup,
    }
}

fn sampled(seed: u64, pins: &Pins, out: &mut Outcome) -> Traced {
    let grid = workloads::sampled_grid(seed);
    let one_pass = |out: &mut Outcome| {
        let engine = workloads::sampled_engine(&grid);
        let _span = trace::span("sampled-pass", "layer");
        let started = Instant::now();
        let results = run_sampled_grid_pit(&grid, &engine, THREADS);
        let wall = secs(started);
        out.attempted += results.len() as u64;
        for r in &results {
            if let Err(reason) = pins.check_sampled(&r.point.point, &r.report) {
                out.fail(reason);
            }
        }
        let busy = results.iter().map(|r| r.sim_secs).sum();
        let pass = Pass {
            wall,
            busy,
            busy_wall: wall,
        };
        (pass, engine)
    };
    one_pass(out); // warm-up, as for designspace
    let (plain, _) = one_pass(out);
    trace::enable();
    let (traced, engine) = one_pass(out);
    let traced_wall = traced.wall;
    // Full detailed replays of the long traces would dwarf the run, so
    // the layers replay each point's first `quick`-scale run instead.
    let quick = RunScale::quick();
    let set: Vec<Replay> = grid
        .points()
        .iter()
        .map(|sp| {
            let mb = sp.point.capacity_mb();
            replay_of(&engine, &sp.point, quick.warmup(mb), quick.measured(mb))
        })
        .collect();
    let sampled = grid
        .points()
        .iter()
        .map(|sp| {
            let p = &sp.point;
            (*sp, replay_of(&engine, p, p.warmup(), p.measured()).records)
        })
        .collect();
    // A serve request cannot name the workload's custom scale, so the
    // probe serves the same designs at the `long` preset, answered from
    // the prefix replays' reports (see `Probe::key_for`).
    let request_spec = SweepSpec::new(RunScale::long()).with_seed(seed).grid(
        &[WorkloadKind::DataServing],
        &grid
            .points()
            .iter()
            .map(|sp| sp.point.design)
            .collect::<Vec<_>>(),
    );
    let probe = Probe {
        request: probe_request(
            "baseline,block,page,footprint,alloy,banshee",
            workloads::CAPACITY_MB,
            "\"data serving\"",
            "long",
            seed,
        ),
        request_spec,
    };
    Traced {
        plain,
        traced_wall,
        set,
        sampled,
        probe,
    }
}

fn serve(seed: u64, pins: &Pins, out: &mut Outcome) -> Traced {
    let mut run = workloads::ServeRun::new(seed);
    let mut one_pass = |out: &mut Outcome| {
        let (engine, _dir, _) = run.open(out);
        let _span = trace::span("serve-pass", "layer");
        run.pass(&engine, pins, out)
    };
    one_pass(out); // warm-up, as for designspace
    let plain_wall = one_pass(out).wall;
    trace::enable();
    let traced = one_pass(out);
    let (traced_wall, fresh_seeds) = (traced.wall, traced.fresh_seeds);

    // The executor's balance on the first fresh grids, each run on its
    // own engine; their points are the ones the layers replay.
    let (mut busy, mut busy_wall, mut set) = (0.0, 0.0, Vec::new());
    for &grid_seed in fresh_seeds.iter().take(4) {
        let spec = workloads::serve_spec(grid_seed);
        let sweep_engine = workloads::prewarmed_engine(&spec);
        let started = Instant::now();
        let results = sweep_engine.run_spec(&spec);
        busy_wall += secs(started);
        busy += results.iter().map(|r| r.sim_secs).sum::<f64>();
        set.extend(
            spec.points()
                .iter()
                .map(|p| replay_of(&sweep_engine, p, p.warmup(), p.measured())),
        );
    }
    let plain = Pass {
        wall: plain_wall,
        busy,
        busy_wall,
    };
    let probe = Probe {
        request: workloads::serve_request("probe", fresh_seeds[0]),
        request_spec: workloads::serve_spec(fresh_seeds[0]),
    };
    Traced {
        plain,
        traced_wall,
        sampled: auto_sampled(&set),
        set,
        probe,
    }
}

/// The L2 miss and writeback stream of a trace: for each L2 miss, the
/// index of its record, the dirty victim written back (if any) and the
/// demand access, exactly the calls `step_functional` makes below the
/// L2.
struct MissStream {
    index: Vec<u32>,
    victim: Vec<Option<PhysAddr>>,
    access: Vec<MemAccess>,
}

impl MissStream {
    /// Misses among the first `len` records.
    fn prefix(&self, len: usize) -> usize {
        self.index.partition_point(|&i| (i as usize) < len)
    }
}

fn new_l2(c: &SimConfig) -> SramCache {
    SramCache::new(c.l2_bytes, c.l2_ways, c.l2_latency)
}

/// Per-trace measurements: synthesis and L2 cost per record.
struct TraceCost {
    synth_ns_per_record: f64,
    l2_ns_per_access: f64,
    misses: MissStream,
}

fn measure_trace(r: &Replay, len: usize, out: &mut Totals) -> TraceCost {
    let p = &r.point;
    let (synth, ()) = fastest(|| {
        let _span = trace::span("trace.synth", "layer");
        let started = Instant::now();
        let mut generator = TraceGenerator::new(p.workload, p.config.cores, p.seed());
        for _ in 0..len {
            black_box(generator.next());
        }
        (secs(started), ())
    });
    let records = &r.records[..len];
    let (l2_s, stats) = fastest(|| {
        let _span = trace::span("l2.access", "layer");
        let mut l2 = new_l2(&p.config);
        let started = Instant::now();
        for rec in records {
            black_box(l2.access(rec.addr.block(), rec.kind.is_write()));
        }
        (secs(started), l2.stats())
    });
    let mut l2 = new_l2(&p.config);
    let mut misses = MissStream {
        index: Vec::new(),
        victim: Vec::new(),
        access: Vec::new(),
    };
    for (i, rec) in records.iter().enumerate() {
        if let SramOutcome::Miss { writeback } = l2.access(rec.addr.block(), rec.kind.is_write()) {
            misses.index.push(i as u32);
            misses.victim.push(writeback.map(|v| v.base()));
            misses.access.push(rec.access());
        }
    }
    out.synth_s += synth;
    out.synth_records += len as u64;
    out.l2_s += l2_s;
    out.l2_accesses += stats.accesses;
    out.l2_hits += stats.hits;
    TraceCost {
        synth_ns_per_record: synth * 1e9 / len as f64,
        l2_ns_per_access: l2_s * 1e9 / len as f64,
        misses,
    }
}

/// Replays `n` misses of `stream` into a fresh memory system for
/// `design`; returns the seconds taken and the design's counters.
fn replay_design(
    config: &SimConfig,
    design: fc_sim::DesignSpec,
    stream: &MissStream,
    n: usize,
) -> (f64, fc_sim::DramCacheStats) {
    fastest(|| {
        let _span = trace::span("design.warm", "layer");
        let mut mem = design.build().with_window(config.memsys_window);
        let started = Instant::now();
        for i in 0..n {
            if let Some(victim) = stream.victim[i] {
                mem.warm_writeback(victim);
            }
            mem.warm_access(stream.access[i]);
        }
        (secs(started), mem.cache().stats().clone())
    })
}

#[derive(Default)]
struct Totals {
    synth_s: f64,
    synth_records: u64,
    l2_s: f64,
    l2_accesses: u64,
    l2_hits: u64,
}

/// Replays every point layer by layer; returns the points with the
/// reports of their full replays.
fn replay_layers(set: &[Replay], out: &mut Outcome) -> Vec<SweepResult> {
    let mut results = Vec::with_capacity(set.len());
    let mut totals = Totals::default();
    // One synthesis and one L2 replay per distinct trace, over the
    // longest prefix any point replays (the L2 stream does not depend
    // on the design).
    let mut traces: BTreeMap<(u8, u64), TraceCost> = BTreeMap::new();
    for r in set {
        let key = (r.point.workload as u8, r.point.seed());
        if let std::collections::btree_map::Entry::Vacant(slot) = traces.entry(key) {
            let len = set
                .iter()
                .filter(|o| (o.point.workload as u8, o.point.seed()) == key)
                .map(|o| o.len)
                .max()
                .unwrap_or(r.len);
            slot.insert(measure_trace(r, len, &mut totals));
        }
    }

    let (mut design_s, mut design_accesses, mut design_hits, mut evictions) = (0.0, 0, 0, 0);
    let (mut engine_s, mut timing_s, mut layers_s, mut full_s, mut l2_misses) =
        (0.0, 0.0, 0.0, 0.0, 0u64);
    let (mut stall, mut offchip_delay) = (0u64, 0u64);
    let (mut off_hits, mut off_rows, mut st_hits, mut st_rows) = (0u64, 0u64, 0u64, 0u64);
    for r in set {
        let cost = &traces[&(r.point.workload as u8, r.point.seed())];
        let records = &r.records[..r.len];
        let n_miss = cost.misses.prefix(r.len);
        let (design, stats) = replay_design(&r.point.config, r.point.design, &cost.misses, n_miss);

        let (functional, ()) = fastest(|| {
            let _span = trace::span("sim.step_functional", "layer");
            let mut sim = Simulation::new(r.point.config, r.point.design);
            let started = Instant::now();
            for rec in records {
                sim.step_functional(rec);
            }
            black_box(sim.total_insts());
            (secs(started), ())
        });
        let (detailed, sim) = fastest(|| {
            let _span = trace::span("sim.step", "layer");
            let mut sim = Simulation::new(r.point.config, r.point.design);
            let started = Instant::now();
            for rec in records {
                sim.step(rec);
            }
            sim.drain();
            (secs(started), sim)
        });
        let (full, report) = fastest(|| full_replay(r));
        results.push(SweepResult {
            point: r.point,
            report: Arc::new(report),
            sim_secs: full,
            memoized: false,
        });

        let trace_share = cost.synth_ns_per_record * r.len as f64 / 1e9;
        let l2_share = cost.l2_ns_per_access * r.len as f64 / 1e9;
        let engine = functional - l2_share - design;
        let timing = detailed - functional;
        design_s += design;
        design_accesses += stats.accesses;
        design_hits += stats.hits;
        evictions += stats.evictions;
        engine_s += engine;
        timing_s += timing;
        layers_s += trace_share + l2_share + design + engine + timing;
        full_s += full;
        l2_misses += n_miss as u64;

        let m = sim.memsys();
        stall += m.window_stall_cycles();
        let (off, st) = (m.offchip_stats(), m.stacked_stats());
        offchip_delay += off.queue_delay_cycles;
        off_hits += off.row_hits;
        off_rows += off.row_hits + off.row_misses;
        st_hits += st.row_hits;
        st_rows += st.row_hits + st.row_misses;
    }

    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    out.push(Metric::new("trace.synth_s", totals.synth_s, "s"));
    out.push(Metric::new(
        "trace.ns_per_record",
        totals.synth_s * 1e9 / totals.synth_records as f64,
        "ns",
    ));
    out.push(Metric::new("l2.self_s", totals.l2_s, "s"));
    out.push(Metric::new(
        "l2.ns_per_access",
        totals.l2_s * 1e9 / totals.l2_accesses as f64,
        "ns",
    ));
    out.push(Metric::new(
        "l2.hit_ratio",
        ratio(totals.l2_hits, totals.l2_accesses),
        "ratio",
    ));
    out.push(Metric::new("design.self_s", design_s, "s"));
    out.push(Metric::new(
        "design.ns_per_access",
        design_s * 1e9 / design_accesses.max(1) as f64,
        "ns",
    ));
    out.push(Metric::new(
        "design.hit_ratio",
        ratio(design_hits, design_accesses),
        "ratio",
    ));
    out.push(Metric::new("design.evictions", evictions as f64, "count"));
    out.push(Metric::new("engine.self_s", engine_s, "s"));
    out.push(Metric::new("timing.self_s", timing_s, "s"));
    out.push(Metric::new(
        "timing.ns_per_miss",
        timing_s * 1e9 / l2_misses.max(1) as f64,
        "ns",
    ));
    out.push(Metric::new(
        "memsys.window_stall_cycles",
        stall as f64,
        "cycles",
    ));
    out.push(Metric::new(
        "dram.offchip.queue_delay_cycles",
        offchip_delay as f64,
        "cycles",
    ));
    out.push(Metric::new(
        "dram.offchip.row_hit_ratio",
        ratio(off_hits, off_rows),
        "ratio",
    ));
    out.push(Metric::new(
        "dram.stacked.row_hit_ratio",
        ratio(st_hits, st_rows),
        "ratio",
    ));
    out.push(Metric::new("layers.full_replay_s", full_s, "s"));

    // Every registry family's design cost on this workload's miss
    // streams, at the capacity the workload runs.
    let mb = set
        .iter()
        .find_map(|r| r.point.design.capacity_mb())
        .unwrap_or(workloads::CAPACITY_MB);
    let config = set[0].point.config;
    for family in DESIGN_FAMILIES {
        let (mut s, mut accesses) = (0.0, 0u64);
        for cost in traces.values() {
            let n = cost.misses.index.len();
            let (t, stats) = replay_design(&config, family.build(mb), &cost.misses, n);
            s += t;
            accesses += stats.accesses;
        }
        out.push(Metric::new(
            format!("design.ns_per_access.{}", family.name),
            s * 1e9 / accesses.max(1) as f64,
            "ns",
        ));
    }

    // Layer accounting: the self times must add up to the independent
    // full replay, and no layer may be negative beyond the tolerance.
    out.attempted += 1;
    let gap = (layers_s - full_s) / full_s;
    out.notes.push(format!(
        "layer accounting: layers sum {layers_s:.4}s vs full replay {full_s:.4}s ({:+.1}%, tolerance {:.0}%)",
        gap * 100.0,
        ACCOUNTING_TOLERANCE * 100.0
    ));
    let negative: Vec<&str> = [("engine", engine_s), ("timing", timing_s)]
        .into_iter()
        .filter(|(_, s)| *s < -ACCOUNTING_TOLERANCE * full_s)
        .map(|(name, _)| name)
        .collect();
    if gap.abs() > ACCOUNTING_TOLERANCE || !negative.is_empty() {
        out.fail(format!(
            "layer accounting off by {:+.1}% (negative layers: {negative:?})",
            gap * 100.0
        ));
    }
    results
}

/// The executor's own path for one point, timed whole: synthesis into
/// a fresh `TraceCache`, then `step_slice` over the warmup, `drain`,
/// and `run_records` over the measured window.
fn full_replay(r: &Replay) -> (f64, SimReport) {
    let _span = trace::span("sim.full_replay", "layer");
    let p = &r.point;
    let mut sim = Simulation::new(p.config, p.design);
    let cache = TraceCache::new(r.len);
    let started = Instant::now();
    let records = cache
        .records(p.workload, p.config.cores, p.seed(), r.len as u64)
        .expect("within budget");
    let (warm, meas) = records[..r.len].split_at(r.warmup as usize);
    sim.step_slice(warm);
    sim.drain();
    let snapshot = sim.snapshot();
    let report = sim.run_records(meas.iter().cloned(), &snapshot);
    (secs(started), report)
}

/// A skipping plan for points whose own plan replays everything
/// (short runs): eight periods, a quarter of each functional warmup.
fn probe_plan(warmup: u64, measured: u64) -> SamplePlan {
    let period = (measured / 8).max(512);
    SamplePlan::new(period, period / 4, period / 8, period / 8).with_warmup_window(warmup / 2)
}

fn sample_layer(points: &[(SampledPoint, Arc<Vec<TraceRecord>>)], out: &mut Outcome) {
    let (mut base_s, mut interval_s, mut assemble_s, mut intervals) = (0.0, 0.0, 0.0, 0u64);
    for (sp, records) in points {
        let p = &sp.point;
        let (w, m) = (p.warmup(), p.measured());
        let plan = if sp.plan.skip() > 0 {
            sp.plan
        } else {
            probe_plan(w, m)
        };
        let mut sim = Simulation::new(p.config, p.design);
        let started = Instant::now();
        let base = {
            let _span = trace::span("sample.build_base", "layer");
            build_base(&mut sim, records, w, m, &plan)
        };
        base_s += secs(started);
        let started = Instant::now();
        let samples: Vec<_> = {
            let _span = trace::span("sample.run_interval", "layer");
            (0..plan.intervals_in(m))
                .map(|k| run_interval(&base, records, w, m, &plan, k))
                .collect()
        };
        interval_s += secs(started);
        intervals += samples.len() as u64;
        let started = Instant::now();
        {
            let _span = trace::span("sample.assemble_report", "layer");
            black_box(assemble_report(&plan, w, m, samples));
        }
        assemble_s += secs(started);
    }
    out.push(Metric::new("sample.base_s", base_s, "s"));
    out.push(Metric::new("sample.interval_s", interval_s, "s"));
    out.push(Metric::new("sample.assemble_s", assemble_s, "s"));
    out.push(Metric::new("sample.intervals", intervals as f64, "count"));
}

fn store_layers(results: &[SweepResult], probe: &Probe, out: &mut Outcome) {
    let dir = StoreDir::new("probe");
    std::fs::create_dir_all(&dir.0).expect("create probe store");
    let append_s = {
        let _span = trace::span("store.append", "layer");
        let durable = Durable::<SimReport>::open(&dir.0, DEFAULT_DISK_SHARDS).expect("open");
        let keys: Vec<_> = results.iter().map(|r| probe.key_for(&r.point)).collect();
        let started = Instant::now();
        for (key, r) in keys.iter().zip(results) {
            durable.append(key, &r.report);
        }
        secs(started)
    };
    let bytes: u64 = std::fs::read_dir(&dir.0)
        .expect("probe store")
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().starts_with("shard-"))
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum();
    let (open_s, loaded) = {
        let _span = trace::span("store.open", "layer");
        let started = Instant::now();
        let durable = Durable::<SimReport>::open(&dir.0, DEFAULT_DISK_SHARDS).expect("reopen");
        let mut loaded = 0;
        for shard in 0..DEFAULT_DISK_SHARDS {
            durable.ensure_loaded(shard, |_, _| loaded += 1);
        }
        (secs(started), loaded)
    };
    out.attempted += 1;
    if loaded != results.len() {
        out.fail(format!(
            "probe store loaded {loaded} of {} records",
            results.len()
        ));
    }

    let engine = fc_sweep::SweepEngine::new()
        .with_threads(workloads::SERVE_THREADS)
        .quiet()
        .with_durable_store(&dir.0)
        .expect("probe engine");
    let serve_once = || {
        let mut response = Vec::new();
        let started = Instant::now();
        serve_jsonl(&engine, probe.request.as_bytes(), &mut response).expect("probe request");
        (secs(started), response)
    };
    let (_, warm) = serve_once();
    let expected = probe.request_spec.len();
    let points = warm
        .split(|&b| b == b'\n')
        .filter(|l| l.starts_with(b"{\"type\": \"point\", \"id\": \"probe\", \"fresh\": false"))
        .count();
    out.attempted += 1;
    if points != expected {
        out.fail(format!(
            "probe request answered {points} memoized points of {expected}"
        ));
    }
    let (mut request_s, mut lookup_s, mut emit_s) = (0.0, 0.0, 0.0);
    for _ in 0..PROBE_REPS {
        let _span = trace::span("serve.request", "layer");
        request_s += serve_once().0;
        let started = Instant::now();
        let reports: Vec<_> = probe
            .request_spec
            .points()
            .iter()
            .map(|p| (*p, engine.store().get(&p.key()).expect("stored")))
            .collect();
        lookup_s += secs(started);
        let started = Instant::now();
        for (point, report) in reports {
            black_box(emit::point_record_json(&SweepResult {
                point,
                report,
                sim_secs: 0.0,
                memoized: true,
            }));
        }
        emit_s += secs(started);
    }
    out.push(Metric::new("store.open_s", open_s, "s"));
    out.push(Metric::new("store.lookup_s", lookup_s, "s"));
    out.push(Metric::new("store.append_s", append_s, "s"));
    out.push(Metric::new("store.bytes_written", bytes as f64, "bytes"));
    out.push(Metric::new("emit.self_s", emit_s, "s"));
    out.push(Metric::new(
        "serve.self_s",
        request_s - lookup_s - emit_s,
        "s",
    ));
}
