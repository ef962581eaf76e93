//! Host cost of the planning layers, and the simulated plan-quality
//! table (coordinated plan against MAGMA `vbatch`).

use crate::mixes::{chiplet_classes, table_archs};
use crate::report::Metrics;
use crate::stats::median;
use crate::trace::Tracer;
use ctb_baselines::{magma_vbatch, simulate_baseline};
use ctb_batching::{assign_blocks, tiles_for, BatchPlan, BatchingHeuristic};
use ctb_core::{lower_plan, Framework};
use ctb_gpu_specs::ArchSpec;
use ctb_matrix::GemmShape;
use ctb_sim::{simulate, LaunchSequence};
use ctb_tiling::select_tiling;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Replay `signatures` through the planning layers the way the
/// best-of-both planner calls them (tiling once, then batching and a
/// simulation per heuristic), each call inside its own span under one
/// `core.plan` parent per signature. Stops after `budget`.
pub fn replay_planning(
    arch: &ArchSpec,
    signatures: &[Vec<GemmShape>],
    budget: Duration,
    tracer: &Tracer,
    m: &mut Metrics,
) {
    let thresholds = *Framework::new(arch.clone()).thresholds();
    let t0 = Instant::now();
    let mut replayed = 0usize;
    for (id, shapes) in signatures.iter().enumerate() {
        if t0.elapsed() >= budget {
            break;
        }
        tracer.span("core.plan", id as u64, None, |parent| {
            let solution = tracer.span("tiling.select_tiling", id as u64, parent, |_| {
                select_tiling(black_box(shapes), &thresholds)
            });
            let threads = solution.thread_count.threads();
            for heuristic in [BatchingHeuristic::Threshold, BatchingHeuristic::Binary] {
                let blocks = tracer.span("batching.assign_blocks", id as u64, parent, |_| {
                    let tiles = tiles_for(shapes, &solution);
                    assign_blocks(&tiles, heuristic, &thresholds, threads)
                });
                let report = tracer.span("sim.simulate", id as u64, parent, |_| {
                    let plan = BatchPlan::from_blocks(&blocks, threads);
                    let kernel = lower_plan("replay", &plan, shapes);
                    simulate(arch, &LaunchSequence::Single(kernel))
                });
                black_box(report.total_us);
            }
        });
        replayed += 1;
    }
    let per_call = |name: &str| {
        let d = tracer.durations_us(name);
        if d.is_empty() {
            0.0
        } else {
            median(&d)
        }
    };
    m.set("tiling.select_us", per_call("tiling.select_tiling"), "us");
    m.set(
        "batching.assign_us",
        per_call("batching.assign_blocks"),
        "us",
    );
    m.set("sim.simulate_us", per_call("sim.simulate"), "us");
    m.set("replay.signatures", replayed as f64, "count");
}

/// Names of the plan-quality metrics, in table order.
pub fn plan_table_names() -> Vec<String> {
    let mut names = Vec::new();
    for (class, _, _) in chiplet_classes() {
        for (arch, _) in table_archs() {
            names.push(format!("plan.sim_us.{class}.{arch}"));
            names.push(format!("plan.vbatch_speedup.{class}.{arch}"));
        }
    }
    names
}

/// Simulated µs of the coordinated plan for every class × arch, and its
/// speedup over MAGMA `vbatch` on the same simulator. The timing model
/// is not validated against hardware, so no error figure is attached.
pub fn plan_table(m: &mut Metrics) {
    for (class, shapes, _) in chiplet_classes() {
        for (arch_name, arch) in table_archs() {
            let ours = Framework::new(arch.clone())
                .simulate_only(&shapes)
                .expect("every benchmark class plans")
                .total_us;
            let vbatch = simulate_baseline(&arch, &magma_vbatch(&arch, &shapes)).total_us;
            m.set(&format!("plan.sim_us.{class}.{arch_name}"), ours, "us");
            m.set(
                &format!("plan.vbatch_speedup.{class}.{arch_name}"),
                vbatch / ours,
                "ratio",
            );
        }
    }
}
