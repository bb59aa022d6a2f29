//! Worker-utilization investigation on the designspace grid.
//!
//! The sweep executor claims points off a shared task queue, so a
//! well-balanced grid should keep every worker lane busy until the
//! tail. This experiment turns the fc-obs tracer on, runs the full
//! design registry across the workload set on a fresh engine (fresh so
//! memoized results cannot fake instant "work"), and reduces the trace
//! to a per-lane busy-fraction table — the same data a human gets by
//! loading `fc_sweep --trace-out trace.json` into Perfetto, reduced to
//! markdown. Imbalance shows up as a low busy fraction on one lane:
//! that worker drew the last long point while its peers drained the
//! queue.

use std::collections::BTreeMap;

use fc_sim::registry::DESIGN_FAMILIES;
use fc_sweep::{SweepEngine, SweepSpec, WorkloadKind};

use crate::experiments::Table;
use crate::Lab;

/// Regenerates the worker-utilization table from a traced designspace
/// run.
pub fn observability(lab: &mut Lab) -> String {
    let names: Vec<&str> = DESIGN_FAMILIES.iter().map(|f| f.name).collect();
    let designs =
        fc_sim::resolve_designs(&names.join(","), &[64]).expect("registry families resolve");
    let spec = SweepSpec::new(lab.scale())
        .with_seed(lab.base_seed())
        .grid(&WorkloadKind::ALL, &designs)
        .dedup();

    // A fresh engine on the lab's thread budget: the shared lab engine
    // has memoized most of these points, and a memo recall occupies a
    // lane for microseconds — utilization would measure the memo
    // store, not the executor.
    let threads = lab.threads();
    let engine = SweepEngine::new().with_threads(threads).quiet();

    let _ = fc_obs::trace::take_events(); // drop events from earlier experiments
    fc_obs::trace::enable();
    let results = engine.run_spec(&spec);
    fc_obs::trace::disable();
    fc_obs::trace::flush_thread();
    let (events, lane_names) = fc_obs::trace::take_events();

    // Wall interval of the run: first span start to last span end.
    let start = events.iter().map(|e| e.start_us).min().unwrap_or(0);
    let end = events
        .iter()
        .map(|e| e.start_us + e.dur_us)
        .max()
        .unwrap_or(start);
    let wall_us = (end - start).max(1);

    // Per lane: busy time is the sum of top-level `point` spans (the
    // nested synthesis/warmup/sim spans all lie inside one).
    let mut busy: BTreeMap<u32, (u64, u64)> = BTreeMap::new(); // lane -> (points, busy_us)
    for e in events.iter().filter(|e| e.name == "point") {
        let entry = busy.entry(e.lane).or_default();
        entry.0 += 1;
        entry.1 += e.dur_us;
    }
    let named = |lane: u32| {
        lane_names
            .iter()
            .find(|(l, _)| *l == lane)
            .map(|(_, n)| n.clone())
            .unwrap_or_else(|| format!("lane-{lane}"))
    };

    let mut table = Table::new(&["worker", "points", "busy (s)", "busy fraction"]);
    let mut fractions: Vec<f64> = Vec::new();
    for (lane, (points, busy_us)) in &busy {
        let frac = *busy_us as f64 / wall_us as f64;
        fractions.push(frac);
        table.row(vec![
            named(*lane),
            points.to_string(),
            format!("{:.2}", *busy_us as f64 / 1e6),
            format!("{:.1}%", frac * 100.0),
        ]);
    }
    let mean = fractions.iter().sum::<f64>() / fractions.len().max(1) as f64;
    let min = fractions.iter().cloned().fold(f64::INFINITY, f64::min);

    format!(
        "## Observability — worker utilization on the designspace grid\n\n\
         The fc-obs tracer records every executor phase on per-worker\n\
         lanes; reproduce interactively with `fc_sweep --grid designspace\n\
         --trace-out trace.json` and load the file in Perfetto. Here the\n\
         trace of a fresh {points}-point designspace run on {threads}\n\
         worker(s) ({wall:.2}s wall) is reduced to busy fractions: time\n\
         inside `point` spans over the run's wall interval. The shared\n\
         task queue keeps the mean high ({mean:.0}%); the gap to 100% is the\n\
         tail — workers idling after the queue empties while the last\n\
         points finish (worst lane {min:.0}%). A per-worker static\n\
         partition would show far larger spread on this heterogeneous\n\
         grid.\n\n{table}",
        points = results.len(),
        threads = threads,
        wall = wall_us as f64 / 1e6,
        mean = mean * 100.0,
        min = if min.is_finite() { min * 100.0 } else { 0.0 },
        table = table.to_markdown()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_sweep::RunScale;

    #[test]
    fn reports_per_worker_busy_fractions() {
        let mut lab = Lab::new(RunScale::tiny()).with_threads(2).quiet();
        let section = observability(&mut lab);
        assert!(section.contains("worker utilization"));
        assert!(section.contains("busy fraction"));
        // At least one worker lane made it into the table.
        assert!(section.contains("worker-0") || section.contains("main"));
    }
}
