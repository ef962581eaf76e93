//! The metric catalogue and the result line the benchmark ends with.

use crate::layers::plan_table_names;
use std::collections::BTreeMap;

/// End-to-end metrics, reported by every workload's untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_rps", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p95_us", "us"),
];

/// Per-layer metrics besides the plan-quality table, reported by every
/// workload's traced run (0 where the workload does not run the layer).
const PER_LAYER: &[(&str, &str)] = &[
    ("serve.queue_us.p50", "us"),
    ("serve.queue_us.p99", "us"),
    ("serve.timing.samples", "count"),
    ("serve.latency.samples", "count"),
    ("serve.batch_size.mean", "count"),
    ("serve.rejected", "count"),
    ("serve.expired", "count"),
    ("serve.retries", "count"),
    ("serve.degraded", "count"),
    ("loadgen.lag_us.p99", "us"),
    ("loadgen.lag_us.samples", "count"),
    ("core.plan_us.p50", "us"),
    ("core.plan_us.p99", "us"),
    ("core.plan_cache.hit_rate", "ratio"),
    ("core.plan_cache.misses", "count"),
    ("core.plan_cache.denied", "count"),
    ("core.plan_cache.evicted", "count"),
    ("core.sim_memo.hit_rate", "ratio"),
    ("core.exec_us.p50", "us"),
    ("core.exec_us.p99", "us"),
    ("core.exec_flops", "flop"),
    ("core.exec_bytes", "B"),
    ("tiling.select_us", "us"),
    ("batching.assign_us", "us"),
    ("sim.simulate_us", "us"),
    ("replay.signatures", "count"),
    ("cluster.requests", "count"),
    ("cluster.events_per_request", "count"),
    ("cluster.events_per_s", "1/s"),
    ("cluster.utilization.mean", "ratio"),
    ("cluster.steals", "count"),
    ("cluster.reroutes", "count"),
    ("cluster.residency_hit_rate", "ratio"),
    ("cluster.remote_operand_bytes", "B"),
    ("cluster.placement_err_us", "us"),
    ("cluster.witnesses", "count"),
    ("cluster.witness_mismatches", "count"),
    ("cluster.sim_makespan_us", "us"),
    ("cluster.sim_device_us", "us"),
    ("savestate.checkpoint_ms", "ms"),
    ("savestate.checkpoint_bytes", "B"),
    ("obs.overhead_pct", "%"),
    ("property.cached_plan_share", "ratio"),
    ("property.degraded_share", "ratio"),
    ("check.error_rate", "ratio"),
];

/// Every per-layer metric name with its unit, in catalogue order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> =
        PER_LAYER.iter().map(|(n, u)| (n.to_string(), *u)).collect();
    for name in plan_table_names() {
        let unit = if name.starts_with("plan.sim_us") {
            "us"
        } else {
            "ratio"
        };
        all.push((name, unit));
    }
    all
}

/// Report 0 for every per-layer metric under `prefixes`: the layers a
/// workload does not run.
pub fn absent(m: &mut Metrics, prefixes: &[&str]) {
    for (name, unit) in per_layer() {
        if prefixes.iter().any(|p| name.starts_with(p)) {
            m.set(&name, 0.0, unit);
        }
    }
}

/// Whether `name` is a legal metric name: `[A-Za-z0-9_.-]+`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// The values one run measured, by name.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    values: BTreeMap<String, (f64, &'static str)>,
}

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.values.insert(name.to_string(), (value, unit));
    }

    /// Print every metric as `name = value unit`, one a line.
    pub fn print_all(&self) {
        for (name, (value, unit)) in &self.values {
            println!("  {name} = {value} {unit}");
        }
    }
}

/// What a workload run produced.
pub struct Outcome {
    pub metrics: Metrics,
    /// Requests the run attempted.
    pub attempted: u64,
    /// Failed, refused or expired requests, wrong results and witness
    /// mismatches.
    pub failed: u64,
}

/// The final result line: the end-to-end metrics of an untraced run or
/// the per-layer metrics of a traced one. A metric missing from the
/// outcome is a benchmark bug.
pub fn result_line(out: &Outcome, traced: bool) -> String {
    let wanted: Vec<(String, &'static str)> = if traced {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect()
    };
    let metrics: Vec<String> = wanted
        .iter()
        .map(|(name, unit)| {
            let (value, got_unit) = out
                .metrics
                .values
                .get(name)
                .unwrap_or_else(|| panic!("workload did not report metric {name}"));
            assert_eq!(got_unit, unit, "unit of {name}");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0 && out.attempted > 0,
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_legal_unique_and_bounded() {
        let mut names: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        names.extend(END_TO_END.iter().map(|(n, _)| n.to_string()));
        assert!(
            names.iter().all(|n| valid_name(n) && n.len() <= 64),
            "{names:?}"
        );
        let unique: std::collections::BTreeSet<&String> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "metric names are unique");
        assert!(per_layer().len() <= 128);
        assert!(!valid_name("bad name") && !valid_name("a/b") && !valid_name(""));
    }
}
