//! Acceptance tests of the parallel-in-time sampled-simulation layer
//! (`fc_sample`'s checkpointed building blocks + the sweep layer's
//! interval-level dispatch in its task pool):
//!
//! * **Bit-equality** — for every design family in the registry, on
//!   two workloads, a sampled grid dispatched interval-by-interval
//!   across worker threads is bit-identical, point by point, to the
//!   sequential reference driver `fc_sample::run_sampled` at any
//!   worker count.
//! * **Checkpoint transparency** — a checkpoint capture/restore
//!   round-trip at a functional-replay boundary is invisible: the
//!   continued run matches an uninterrupted one bit for bit
//!   (property-tested over boundary positions and seeds).
//! * **Accuracy unchanged** — parallel-in-time estimates satisfy the
//!   same 3%-of-full-run accuracy bounds the sequential sampler is
//!   held to (they are the same numbers, but this asserts it against
//!   the detailed run, not against the sequential sampler).
//! * **Observability** — interval dispatch advances the
//!   `pit.intervals_dispatched` / `pit.checkpoints_restored` pair.
//!
//! Everything here is deterministic: fixed seeds, fixed plans, no
//! wall-clock assertions.

use fc_sim::registry::DESIGN_FAMILIES;
use fc_sim::{ReportSnapshot, SimReport, Simulation};
use fc_sweep::{
    run_sampled_grid_pit, DesignSpec, RunScale, SamplePlan, SampledGrid, SimConfig, SweepEngine,
    SweepSpec, WorkloadKind,
};
use fc_trace::{TraceGenerator, TraceRecord};
use proptest::prelude::*;

/// Every design family of the registry at a small capacity
/// (capacity-independent families resolve as themselves).
fn all_families() -> Vec<DesignSpec> {
    let names: Vec<&str> = DESIGN_FAMILIES.iter().map(|f| f.name).collect();
    fc_sim::resolve_designs(&names.join(","), &[8]).expect("registry resolves")
}

/// A plan that actually skips (period 1000 = skip 600, functional 200,
/// detailed 100, measured 100), so the parallel-in-time path engages
/// rather than delegating to the continuous driver.
fn skipping_plan() -> SamplePlan {
    SamplePlan::new(1_000, 200, 100, 100).with_warmup_window(1_000)
}

#[test]
fn pit_grids_are_bit_identical_for_every_design_family() {
    let spec = SweepSpec::new(RunScale::tiny())
        .grid(
            &[WorkloadKind::WebSearch, WorkloadKind::DataServing],
            &all_families(),
        )
        .dedup();
    let grid = SampledGrid::with_plan(&spec, skipping_plan());
    let reference: Vec<_> = grid.points().iter().map(|sp| sp.run_reference()).collect();
    assert!(
        reference.iter().all(|r| r.plan.skip() > 0),
        "the plan must skip, or nothing splits in time"
    );
    for workers in [1, 2, 6] {
        let pit = run_sampled_grid_pit(&grid, &SweepEngine::new().with_threads(1).quiet(), workers);
        assert_eq!(pit.len(), grid.len());
        for ((sp, expected), got) in grid.points().iter().zip(&reference).zip(&pit) {
            assert_eq!(*sp, got.point, "result order must match grid order");
            assert_eq!(
                *got.report,
                *expected,
                "{}: {workers}-worker parallel-in-time run diverged from the reference driver",
                sp.label()
            );
        }
    }
}

#[test]
fn pit_dispatch_advances_the_checkpoint_metric_pair() {
    let spec =
        SweepSpec::new(RunScale::tiny()).point(WorkloadKind::MapReduce, DesignSpec::footprint(8));
    let grid = SampledGrid::with_plan(&spec, skipping_plan());
    let periods: u64 = grid
        .points()
        .iter()
        .map(|sp| sp.point.measured() / sp.plan.period)
        .sum();
    assert!(periods > 0);
    let before = fc_obs::metrics::snapshot();
    run_sampled_grid_pit(&grid, &SweepEngine::new().with_threads(1).quiet(), 3);
    let delta = fc_obs::metrics::snapshot().delta(&before);
    // Lower bounds, not equality: the metrics registry is
    // process-wide and other tests in this binary dispatch too.
    assert!(delta.counter("pit.intervals_dispatched").unwrap_or(0) >= periods);
    assert!(delta.counter("pit.checkpoints_restored").unwrap_or(0) >= periods);
}

#[test]
fn pit_estimates_meet_the_sequential_accuracy_bounds() {
    // The same 3% IPC / CI-containment bounds tests/sampled_accuracy.rs
    // holds the sequential sampler to, asserted directly against the
    // full detailed run for a parallel-in-time grid.
    let scale = RunScale {
        warmup_base: 400_000,
        warmup_per_mb: 0,
        measured_base: 2_000_000,
        measured_per_mb: 0,
    };
    let spec = SweepSpec::new(scale).grid(
        &[WorkloadKind::WebSearch],
        &[DesignSpec::footprint(8), DesignSpec::page(8)],
    );
    let grid = SampledGrid::auto(&spec);
    let engine = SweepEngine::new().with_trace_budget(2_500_000).quiet();
    let sampled = run_sampled_grid_pit(&grid, &engine, 4);
    let full = engine.run_spec(&spec);
    for (s, f) in sampled.iter().zip(&full) {
        let label = s.point.label();
        let full_ipc = f.report.throughput();
        let est = &s.report.ipc;
        let rel_err = (est.mean - full_ipc).abs() / full_ipc;
        assert!(
            rel_err <= 0.03,
            "{label}: parallel-in-time IPC {:.4} vs full {full_ipc:.4} — {:.2}% error (limit 3%)",
            est.mean,
            rel_err * 100.0
        );
        assert!(
            est.contains(full_ipc) || rel_err <= 0.01,
            "{label}: full IPC {full_ipc:.4} outside the 95% CI {:.4}±{:.4} \
             and beyond the 1% resolution floor",
            est.mean,
            est.ci_half
        );
    }
}

fn footprint_sim() -> Simulation {
    Simulation::new(SimConfig::small(), DesignSpec::footprint(8))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Functional replay leaves the engine quiescent, so capturing a
    /// checkpoint there and continuing from the restored copy must be
    /// indistinguishable from never having checkpointed — for any
    /// boundary position, suffix length, and trace seed. This is the
    /// invariant the whole parallel-in-time layer rests on.
    #[test]
    fn checkpoint_round_trip_is_invisible(
        prefix in 200usize..1_500,
        suffix in 100usize..800,
        seed in 0u64..64,
    ) {
        let records: Vec<TraceRecord> = TraceGenerator::new(WorkloadKind::WebSearch, 4, seed)
            .take(prefix + suffix)
            .collect();

        // Uninterrupted: functional prefix, then detailed suffix.
        let mut plain = footprint_sim();
        for r in &records[..prefix] {
            plain.step_functional(r);
        }
        for r in &records[prefix..] {
            plain.step(r);
        }

        // Round-tripped at the same boundary, both ways a worker can
        // come back from a checkpoint: `to_sim` (fresh engine) and
        // `restore` (onto an existing engine).
        let mut src = footprint_sim();
        for r in &records[..prefix] {
            src.step_functional(r);
        }
        let ckpt = src.checkpoint();
        let mut cloned = ckpt.to_sim();
        let mut restored = footprint_sim();
        restored.restore(&ckpt);
        for r in &records[prefix..] {
            cloned.step(r);
            restored.step(r);
        }

        let zero = ReportSnapshot::zero();
        let want = SimReport::since(&plain, &zero);
        prop_assert_eq!(&want, &SimReport::since(&cloned, &zero));
        prop_assert_eq!(&want, &SimReport::since(&restored, &zero));
    }
}
