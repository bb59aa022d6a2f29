//! The sampled sweep: SMARTS-style interval sampling for every point
//! of a trace-replay grid.
//!
//! A [`SampledPoint`] is an ordinary [`SweepPoint`] plus a
//! [`SamplePlan`]; [`run_sampled_grid_pit`] executes a grid of them
//! with the same discipline as the detailed executor — the sweep task
//! pool, per-point seeds that are pure functions of the point, the
//! shared [`TraceCache`](crate::TraceCache), and memoization in the
//! engine's sampled [`ResultStore`](crate::ResultStore) (the plan is
//! folded into the FNV key, so a point sampled under two plans never
//! aliases). Results are bit-identical for any worker count.
//!
//! Auto plans ([`SampledGrid::auto`]) derive each point's plan from
//! its run sizing and its design's state memory
//! (`DesignSpec::warm_scale`): capacity-scaled functional windows,
//! skipping only in the long-trace regime, exhaustive warming when
//! the trace is too short to skip safely.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use fc_sample::{
    assemble_report, build_base, run_interval, run_sampled, run_sampled_stream, Checkpoint,
    IntervalSample, SamplePlan, SampledReport,
};
use fc_sim::Simulation;
use fc_trace::{TraceGenerator, TraceRecord};

use crate::executor::SweepEngine;
use crate::pool::{self, Job};
use crate::spec::{SweepPoint, SweepSpec};
use crate::store::PointKey;

/// One experiment in a sampled sweep: a sweep point and its plan.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SampledPoint {
    /// The underlying trace-replay point (workload, design, config,
    /// scale, seed) — warmup/measured sizing and seeding are exactly
    /// the full run's, so estimates are comparable point-for-point.
    pub point: SweepPoint,
    /// The sampling plan driving the two-mode execution.
    pub plan: SamplePlan,
}

impl SampledPoint {
    /// Pairs `point` with the auto-derived plan for its run sizing,
    /// capacity, and design state memory.
    pub fn auto(point: SweepPoint) -> Self {
        let plan = SamplePlan::for_run_scaled(
            point.warmup(),
            point.measured(),
            point.capacity_mb(),
            point.design.warm_scale(),
        );
        Self { point, plan }
    }

    /// Human-readable label (progress lines, result emitters).
    pub fn label(&self) -> String {
        format!("{} [sampled]", self.point.label())
    }

    /// The canonical text encoding: the underlying point's encoding
    /// with the plan folded in. Distinct plans never alias.
    pub fn canonical(&self) -> String {
        format!("sampled|{}|{:?}", self.point.canonical(), self.plan)
    }

    /// Stable memoization key for this point (sampled store).
    pub fn key(&self) -> PointKey {
        PointKey::from_canonical(self.canonical())
    }

    /// Runs this point through the sequential reference driver,
    /// [`run_sampled`], on a freshly synthesized trace, bypassing the
    /// task pool, the trace cache and the memo store: the report every
    /// grid run must reproduce bit for bit.
    pub fn run_reference(&self) -> SampledReport {
        let p = &self.point;
        let records: Vec<TraceRecord> = TraceGenerator::new(p.workload, p.config.cores, p.seed())
            .take((p.warmup() + p.measured()) as usize)
            .collect();
        let mut sim = Simulation::new(p.config, p.design);
        run_sampled(&mut sim, &records, p.warmup(), p.measured(), &self.plan)
    }
}

/// A declarative sampled grid.
#[derive(Clone, Debug)]
pub struct SampledGrid {
    points: Vec<SampledPoint>,
}

impl SampledGrid {
    /// Samples every point of `spec` under its auto-derived plan.
    pub fn auto(spec: &SweepSpec) -> Self {
        Self {
            points: spec
                .points()
                .iter()
                .copied()
                .map(SampledPoint::auto)
                .collect(),
        }
    }

    /// Samples every point of `spec` under one explicit plan.
    pub fn with_plan(spec: &SweepSpec, plan: SamplePlan) -> Self {
        Self {
            points: spec
                .points()
                .iter()
                .map(|&point| SampledPoint { point, plan })
                .collect(),
        }
    }

    /// Applies a strata count to every point's plan (builder-style).
    pub fn with_strata(mut self, strata: u32) -> Self {
        for p in &mut self.points {
            p.plan = p.plan.with_strata(strata);
        }
        self
    }

    /// The points, in spec order.
    pub fn points(&self) -> &[SampledPoint] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the grid has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The longest run (warmup + measured records) in the grid — what
    /// the trace-cache budget must hold for the fast slice path.
    pub fn max_records(&self) -> u64 {
        self.points
            .iter()
            .map(|p| p.point.warmup() + p.point.measured())
            .max()
            .unwrap_or(0)
    }

    /// Synthesizes every point's shared trace into `engine`'s cache up
    /// front. Call before timing a sampled run (or its full detailed
    /// twin) so neither measurement is charged for the synthesis both
    /// paths share; runs beyond the cache budget are skipped (they
    /// stream instead).
    pub fn prefetch_traces(&self, engine: &SweepEngine) {
        for sp in &self.points {
            let p = &sp.point;
            let _ = engine.trace_cache().records(
                p.workload,
                p.config.cores,
                p.seed(),
                p.warmup() + p.measured(),
            );
        }
    }
}

/// One finished sampled point.
#[derive(Clone, Debug)]
pub struct SampledResult {
    /// The point that was run.
    pub point: SampledPoint,
    /// Its (possibly memoized) sampled report.
    pub report: Arc<SampledReport>,
    /// Seconds spent obtaining the report (near zero for memoized
    /// points): the wall clock of the worker that ran a whole point,
    /// or the summed per-worker busy time of a point split into
    /// intervals (its wall span would mostly measure *other* points
    /// interleaved in the shared pool). Timing only — never part of
    /// the deterministic result.
    pub sim_secs: f64,
    /// Whether the report came from the sampled memo store.
    pub memoized: bool,
}

/// Runs every point of `grid` through `engine` with the engine's
/// thread count as the interval worker count; see
/// [`run_sampled_grid_pit`].
pub fn run_sampled_grid(grid: &SampledGrid, engine: &SweepEngine) -> Vec<SampledResult> {
    run_sampled_grid_pit(grid, engine, engine.threads())
}

/// One task of the sampled grid: a whole grid point (which may expand
/// into interval tasks), or one measured period of an expanded point.
enum Task {
    Point(usize),
    Interval {
        point: usize,
        k: u64,
        work: Arc<PointWork>,
    },
}

/// Shared state of a point that expanded into interval tasks: the base
/// checkpoint every period restores, the point's trace slice (one
/// synthesis, shared by every worker via `Arc`), the per-period result
/// slots, and the countdown that elects the aggregating worker. Freed
/// when its last interval task ends.
struct PointWork {
    base: Checkpoint,
    records: Arc<Vec<TraceRecord>>,
    slots: Vec<OnceLock<IntervalSample>>,
    remaining: AtomicUsize,
    /// CPU time spent on this point across all workers (base build +
    /// every interval), in nanoseconds. This — not wall time from
    /// expansion to completion — becomes the point's `sim_secs`:
    /// interval tasks of *different* points interleave in one pool, so
    /// a point's wall span mostly measures other points' work. Busy
    /// time keeps per-point costs comparable at any worker count
    /// (equal to wall time on one worker, and a work measure on many).
    busy_nanos: AtomicU64,
}

/// Runs every point of `grid` with **parallel-in-time** dispatch on
/// `workers` workers: points *and* their measured periods drain from
/// one task pool, so a single long point keeps every worker busy
/// instead of one. Points whose plan cannot be split (exhaustive plans
/// carry state through the whole region) and points beyond the
/// trace-cache budget (workers need random access into the slice) run
/// whole on one worker through [`run_sampled`] or
/// [`run_sampled_stream`], so the result always covers the whole grid.
///
/// Reports are **bit-identical** to [`run_sampled`]'s for every
/// `workers` count: a split point's interval samples merge in plan
/// order through the same aggregation, and each period is the same
/// pure function of the same base checkpoint that the sequential
/// driver computes. Sampled reports memoize in the engine's sampled
/// store under keys carrying the plan; traces come from the engine's
/// shared [`TraceCache`](crate::TraceCache).
pub fn run_sampled_grid_pit(
    grid: &SampledGrid,
    engine: &SweepEngine,
    workers: usize,
) -> Vec<SampledResult> {
    let points = grid.points();
    let progress = engine.progress_for(points.len());
    type Outcome = (Arc<SampledReport>, f64, bool);
    let finish = |job: &Job<Task, Outcome>, index: usize, report, secs, memoized| {
        progress.finish_point(&points[index].label(), memoized);
        job.finish(index, (report, secs, memoized));
    };

    let run_point = |index: usize, job: &Job<Task, Outcome>| {
        let sp = &points[index];
        let _point_span = fc_obs::trace::span_with("sampled-point", "sweep", || sp.label());
        let key = sp.key();
        let started = std::time::Instant::now();
        if let Some(report) = engine.sampled_store().get(&key) {
            finish(job, index, report, started.elapsed().as_secs_f64(), true);
            return;
        }
        let p = &sp.point;
        let (warmup, measured) = (p.warmup(), p.measured());
        let records =
            engine
                .trace_cache()
                .records(p.workload, p.config.cores, p.seed(), warmup + measured);
        let periods = sp.plan.intervals_in(measured);
        match records {
            // Splittable: build the base checkpoint, then fan the
            // periods out as interval tasks for any worker to claim.
            Some(records) if sp.plan.skip() > 0 && periods > 0 => {
                let mut sim = Simulation::new(p.config, p.design);
                let base = build_base(&mut sim, &records, warmup, measured, &sp.plan);
                fc_obs::metrics::counter("pit.intervals_dispatched").add(periods);
                let work = Arc::new(PointWork {
                    base,
                    records,
                    slots: (0..periods).map(|_| OnceLock::new()).collect(),
                    remaining: AtomicUsize::new(periods as usize),
                    busy_nanos: AtomicU64::new(started.elapsed().as_nanos() as u64),
                });
                job.push((0..periods).map(|k| Task::Interval {
                    point: index,
                    k,
                    work: Arc::clone(&work),
                }));
            }
            // Unsplittable (continuous plan, streaming fallback, or a
            // degenerate region): run the whole point on this worker.
            records => {
                let report = engine.sampled_store().get_or_compute(&key, || {
                    let mut sim = Simulation::new(p.config, p.design);
                    match records {
                        Some(records) => {
                            run_sampled(&mut sim, &records, warmup, measured, &sp.plan)
                        }
                        None => run_sampled_stream(
                            &mut sim,
                            TraceGenerator::new(p.workload, p.config.cores, p.seed()),
                            warmup,
                            measured,
                            &sp.plan,
                        ),
                    }
                });
                finish(job, index, report, started.elapsed().as_secs_f64(), false);
            }
        }
    };

    let run_interval_task = |index: usize, k: u64, work: &PointWork, job: &Job<Task, Outcome>| {
        let sp = &points[index];
        let started = std::time::Instant::now();
        let sample = run_interval(
            &work.base,
            &work.records,
            sp.point.warmup(),
            sp.point.measured(),
            &sp.plan,
            k,
        );
        work.slots[k as usize]
            .set(sample)
            .expect("slot written once");
        work.busy_nanos
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        // The countdown elects the worker that finishes the point: the
        // last decrement observes every other slot write and busy-time
        // contribution (AcqRel).
        if work.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            let intervals: Vec<IntervalSample> = work
                .slots
                .iter()
                .map(|slot| *slot.get().expect("every interval ran"))
                .collect();
            let report = engine.sampled_store().get_or_compute(&sp.key(), || {
                assemble_report(&sp.plan, sp.point.warmup(), sp.point.measured(), intervals)
            });
            let secs = work.busy_nanos.load(Ordering::Relaxed) as f64 / 1e9;
            finish(job, index, report, secs, false);
        }
    };

    // No clamp against the point count: one point can fan out into
    // many interval tasks, so more workers than points is useful.
    let outcomes = pool::run(
        workers,
        points.len(),
        (0..points.len()).map(Task::Point).collect(),
        |task, job| match task {
            Task::Point(index) => run_point(index, job),
            Task::Interval { point, k, work } => run_interval_task(point, k, &work, job),
        },
    );
    progress.finish_run();
    fc_obs::metrics::counter("sweep.sampled_points").add(points.len() as u64);

    points
        .iter()
        .zip(outcomes)
        .map(|(point, (report, sim_secs, memoized))| SampledResult {
            point: *point,
            report,
            sim_secs,
            memoized,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::RunScale;
    use crate::DesignSpec;
    use fc_trace::WorkloadKind;

    fn tiny_grid() -> SampledGrid {
        let spec = SweepSpec::new(RunScale::tiny()).grid(
            &[WorkloadKind::WebSearch, WorkloadKind::DataServing],
            &[DesignSpec::baseline(), DesignSpec::footprint(64)],
        );
        SampledGrid::with_plan(&spec, SamplePlan::exhaustive(500, 100, 100))
    }

    /// Asserts every result equals the sequential reference driver's
    /// report for its point, replayed from a fresh generator.
    fn assert_matches_reference(grid: &SampledGrid, results: &[SampledResult], what: &str) {
        assert_eq!(results.len(), grid.len());
        for (sp, r) in grid.points().iter().zip(results) {
            assert_eq!(*sp, r.point);
            assert_eq!(
                *r.report,
                sp.run_reference(),
                "{} diverged ({what})",
                sp.label()
            );
        }
    }

    #[test]
    fn sampled_grid_covers_spec_in_order() {
        let grid = tiny_grid();
        let results = run_sampled_grid(&grid, &SweepEngine::new().with_threads(2).quiet());
        assert_eq!(results.len(), 4);
        for r in &results {
            assert_eq!(r.report.intervals.len(), 4, "2000 measured / 500 period");
            assert!(r.report.insts > 0);
            assert!(r.report.ipc.mean > 0.0);
        }
    }

    #[test]
    fn sampled_grid_is_thread_count_independent() {
        let grid = tiny_grid();
        for threads in [1, 4] {
            let results =
                run_sampled_grid(&grid, &SweepEngine::new().with_threads(threads).quiet());
            assert_matches_reference(&grid, &results, &format!("{threads} threads"));
        }
    }

    #[test]
    fn sampled_points_are_memoized_separately_per_plan() {
        let spec =
            SweepSpec::new(RunScale::tiny()).point(WorkloadKind::WebSearch, DesignSpec::baseline());
        let a = SampledGrid::with_plan(&spec, SamplePlan::exhaustive(500, 100, 100));
        let b = SampledGrid::with_plan(&spec, SamplePlan::exhaustive(1_000, 100, 100));
        let engine = SweepEngine::new().with_threads(1).quiet();
        let ra = run_sampled_grid(&a, &engine);
        assert_eq!(engine.sampled_store().computed(), 1);
        let ra2 = run_sampled_grid(&a, &engine);
        assert_eq!(engine.sampled_store().computed(), 1, "same plan memoizes");
        assert!(Arc::ptr_eq(&ra[0].report, &ra2[0].report));
        assert!(ra2[0].memoized);
        let rb = run_sampled_grid(&b, &engine);
        assert_eq!(engine.sampled_store().computed(), 2, "new plan, new key");
        assert_ne!(ra[0].report.plan, rb[0].report.plan);
    }

    #[test]
    fn streaming_fallback_is_bit_identical() {
        let grid = tiny_grid();
        let streamed = run_sampled_grid(
            &grid,
            &SweepEngine::new()
                .with_threads(2)
                .with_trace_budget(0)
                .quiet(),
        );
        assert_matches_reference(&grid, &streamed, "streamed");
    }

    // A grid whose plans actually skip (period 1000, fw 200, dw 100,
    // interval 100 → skip 600), so points expand into interval tasks.
    fn skipping_grid() -> SampledGrid {
        let spec = SweepSpec::new(RunScale::tiny()).grid(
            &[WorkloadKind::WebSearch, WorkloadKind::DataServing],
            &[DesignSpec::baseline(), DesignSpec::footprint(64)],
        );
        SampledGrid::with_plan(
            &spec,
            SamplePlan::new(1_000, 200, 100, 100).with_warmup_window(1_000),
        )
    }

    #[test]
    fn pit_grid_is_bit_identical_to_sequential_at_any_worker_count() {
        let grid = skipping_grid();
        for workers in [1, 2, 5, 9] {
            let pit = run_sampled_grid_pit(&grid, &SweepEngine::new().quiet(), workers);
            assert_matches_reference(&grid, &pit, &format!("{workers} workers"));
        }
    }

    #[test]
    fn pit_grid_handles_unsplittable_points_in_pool() {
        // Exhaustive plans can't split in time; the pool must run them
        // whole and still match the sequential driver.
        let grid = tiny_grid();
        let pit = run_sampled_grid_pit(&grid, &SweepEngine::new().quiet(), 4);
        assert_matches_reference(&grid, &pit, "4 workers");
    }

    #[test]
    fn pit_grid_shares_one_synthesis_per_workload() {
        let grid = skipping_grid();
        // Interval tasks must reuse the point's Arc'd slice, never
        // re-synthesize: fanning out across workers synthesizes
        // exactly as many records as a lone worker.
        let seq_engine = SweepEngine::new().with_threads(1).quiet();
        run_sampled_grid(&grid, &seq_engine);
        let pit_engine = SweepEngine::new().quiet();
        run_sampled_grid_pit(&grid, &pit_engine, 6);
        assert_eq!(
            pit_engine.trace_cache().records_synthesized(),
            seq_engine.trace_cache().records_synthesized(),
            "interval workers re-synthesized trace records"
        );
    }

    #[test]
    fn pit_grid_memoizes_into_the_shared_store() {
        let grid = skipping_grid();
        let engine = SweepEngine::new().quiet();
        let first = run_sampled_grid_pit(&grid, &engine, 4);
        assert_eq!(engine.sampled_store().computed(), 4);
        // Second run: every point short-circuits on the memo.
        let again = run_sampled_grid_pit(&grid, &engine, 4);
        assert_eq!(engine.sampled_store().computed(), 4);
        assert!(again.iter().all(|r| r.memoized));
        // Another worker count reads the same store — same keys.
        let one = run_sampled_grid_pit(&grid, &engine, 1);
        assert_eq!(engine.sampled_store().computed(), 4);
        for (a, b) in first.iter().zip(&one) {
            assert!(Arc::ptr_eq(&a.report, &b.report));
        }
    }

    #[test]
    fn pit_grid_streaming_fallback_covers_the_grid() {
        let grid = skipping_grid();
        let pit = run_sampled_grid_pit(&grid, &SweepEngine::new().with_trace_budget(0).quiet(), 4);
        assert_matches_reference(&grid, &pit, "streamed, 4 workers");
    }

    #[test]
    fn auto_grid_derives_plans_per_point() {
        let spec = SweepSpec::new(RunScale::tiny()).grid(
            &[WorkloadKind::WebSearch],
            &[DesignSpec::baseline(), DesignSpec::banshee(64)],
        );
        let grid = SampledGrid::auto(&spec);
        assert_eq!(grid.len(), 2);
        for sp in grid.points() {
            assert!(sp.plan.validate().is_ok());
            // Tiny runs are far below the warm windows: every auto plan
            // must have fallen back to exhaustive warming.
            assert_eq!(sp.plan.skip(), 0);
        }
        assert_eq!(grid.max_records(), 4_000);
    }
}
