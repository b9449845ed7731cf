//! Per-layer accounting for the traced run: what each layer did and how
//! long it took, summed over the traced operations and reported per op.
//!
//! Sources, never histogram percentiles: the benchmark's own spans, the
//! `SolveStats`/`SolveReply` values the public calls return, and exact
//! counters and exact span-time sums from the program's metric registry.

use crate::stats::{percentile, ratio};
use atsched_obs::RegistrySnapshot;
use std::collections::BTreeMap;

/// Every per-layer metric, with its unit, in output order. A workload
/// that does not load a layer reports 0 for that layer's metrics.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.canonicalize_ms", "ms"),
    ("core.lp_ms", "ms"),
    ("core.transform_ms", "ms"),
    ("core.round_ms", "ms"),
    ("core.extract_ms", "ms"),
    ("core.verify_ms", "ms"),
    ("core.unattributed_ms", "ms"),
    ("core.shard_solve_p95_ms", "ms"),
    ("lp.tree_coverage", "share"),
    ("lp.tree_ms", "ms"),
    ("lp.simplex_ms", "ms"),
    ("lp.pivots", "count"),
    ("lp.hybrid_fallback_ratio", "share"),
    ("flow.max_flow_calls", "count"),
    ("flow.augmenting_paths", "count"),
    ("engine.decompose_ms", "ms"),
    ("engine.merge_ms", "ms"),
    ("engine.shards_per_op", "count"),
    ("engine.fanout_efficiency", "share"),
    ("engine.amend_shards_solved", "count"),
    ("engine.amend_shards_reused", "count"),
    ("engine.amend_warm_hit_ratio", "share"),
    ("engine.amend_over_cold", "ratio"),
    ("engine.cache_hit_ratio", "share"),
    ("serve.server_ms", "ms"),
    ("serve.outside_server_ms", "ms"),
    ("serve.hit_rtt_ms", "ms"),
    ("serve.miss_rtt_ms", "ms"),
    ("serve.encode_us", "us"),
    ("serve.decode_us", "us"),
    ("unattributed_share", "share"),
    ("trace_overhead_share", "share"),
];

/// The solver pipeline stages, as named in the program's
/// `span.<stage>.ms` registry entries.
const STAGES: [&str; 6] = ["canonicalize", "lp", "transform", "round", "extract", "verify"];

/// Running sums over the traced operations. Times are milliseconds.
#[derive(Debug, Default)]
pub struct Tally {
    pub ops: u64,
    /// Pipeline stage time, in [`STAGES`] order.
    pub stage_ms: [f64; 6],
    /// Wall time of whole `solve_nested` calls, to set against the
    /// stage sum.
    pub solve_ms: f64,
    /// Wall time of each shard's `solve_nested` call.
    pub shard_solve_ms: Vec<f64>,
    pub tree_solved: u64,
    pub tree_declined: u64,
    pub tree_lp_ms: f64,
    pub simplex_lp_ms: f64,
    pub pivots: u64,
    pub hybrid_verified: u64,
    pub hybrid_fallbacks: u64,
    pub flow_calls: u64,
    pub augmenting_paths: u64,
    pub decompose_ms: f64,
    pub merge_ms: f64,
    pub shards: u64,
    /// Σ shard solve time and Σ workers × op wall, for fan-out efficiency.
    pub fanout_busy_ms: f64,
    pub fanout_capacity_ms: f64,
    pub amend_solved: u64,
    pub amend_reused: u64,
    pub warm_hits: u64,
    pub warm_misses: u64,
    /// Amend latency and cold re-solve latency of the same amended
    /// instances (sampled ops only).
    pub amend_sampled_ms: f64,
    pub cold_sampled_ms: f64,
    /// Op time the program's own spans claim (session amends).
    pub covered_ms: f64,
    pub cache_hits: u64,
    pub cache_lookups: u64,
    pub server_ms: f64,
    pub outside_server_ms: f64,
    pub hit_rtt_ms: Vec<f64>,
    pub miss_rtt_ms: Vec<f64>,
    pub encode_us: f64,
    pub decode_us: f64,
}

fn counter(s: &RegistrySnapshot, name: &str) -> u64 {
    s.counter(name).unwrap_or(0)
}

fn span_sum_ms(s: &RegistrySnapshot, name: &str) -> f64 {
    s.histogram(&format!("span.{name}.ms")).map_or(0.0, |h| h.sum)
}

impl Tally {
    /// Add the exact counters the program recorded into its registry
    /// between two snapshots: LP path, simplex, flow and engine counters.
    pub fn add_counters(&mut self, before: &RegistrySnapshot, after: &RegistrySnapshot) {
        let d = |name: &str| counter(after, name).saturating_sub(counter(before, name));
        self.tree_solved += d("lp.tree_solved");
        self.tree_declined += ["nonunique", "flow", "scale", "overflow"]
            .iter()
            .map(|r| d(&format!("lp.tree_fallback.{r}")))
            .sum::<u64>();
        self.pivots += d("lp.pivots");
        self.hybrid_verified += d("lp.hybrid_verified");
        self.hybrid_fallbacks += d("lp.hybrid_fallbacks");
        self.flow_calls += d("flow.max_flow_calls");
        self.augmenting_paths += d("flow.augmenting_paths");
        self.shards += d("engine.shards");
        self.amend_solved += d("engine.amend_shards_solved");
        self.amend_reused += d("engine.amend_shards_reused");
        self.warm_hits += d("engine.amend_warm_hits");
        self.warm_misses += d("engine.amend_warm_misses");
    }

    /// Add the exact span-time sums the program recorded between two
    /// snapshots: pipeline stages, whole solves, decompose and merge.
    /// Only work that ran is counted: a cache hit adds nothing.
    pub fn add_span_sums(&mut self, before: &RegistrySnapshot, after: &RegistrySnapshot) {
        let d = |name: &str| span_sum_ms(after, name) - span_sum_ms(before, name);
        for (acc, stage) in self.stage_ms.iter_mut().zip(STAGES) {
            *acc += d(stage);
        }
        self.solve_ms += d("solve");
        self.decompose_ms += d("solve.decompose");
        self.merge_ms += d("solve.merge");
    }

    /// The per-layer metrics, every name in [`PER_LAYER`] present.
    pub fn metrics(&self, unattributed_share: f64, trace_overhead_share: f64) -> Metrics {
        let ops = self.ops.max(1) as f64;
        let stage_total: f64 = self.stage_ms.iter().sum();
        let mut m = Metrics::new();
        for (stage, ms) in STAGES.iter().zip(self.stage_ms) {
            m.set(&format!("core.{stage}_ms"), ms / ops);
        }
        m.set("core.unattributed_ms", (self.solve_ms - stage_total) / ops);
        m.set("core.shard_solve_p95_ms", percentile(&self.shard_solve_ms, 95.0).unwrap_or(0.0));
        m.set(
            "lp.tree_coverage",
            ratio(self.tree_solved as f64, (self.tree_solved + self.tree_declined) as f64),
        );
        m.set("lp.tree_ms", self.tree_lp_ms / ops);
        m.set("lp.simplex_ms", self.simplex_lp_ms / ops);
        m.set("lp.pivots", self.pivots as f64 / ops);
        m.set(
            "lp.hybrid_fallback_ratio",
            ratio(
                self.hybrid_fallbacks as f64,
                (self.hybrid_verified + self.hybrid_fallbacks) as f64,
            ),
        );
        m.set("flow.max_flow_calls", self.flow_calls as f64 / ops);
        m.set("flow.augmenting_paths", self.augmenting_paths as f64 / ops);
        m.set("engine.decompose_ms", self.decompose_ms / ops);
        m.set("engine.merge_ms", self.merge_ms / ops);
        m.set("engine.shards_per_op", self.shards as f64 / ops);
        m.set("engine.fanout_efficiency", ratio(self.fanout_busy_ms, self.fanout_capacity_ms));
        m.set("engine.amend_shards_solved", self.amend_solved as f64 / ops);
        m.set("engine.amend_shards_reused", self.amend_reused as f64 / ops);
        m.set(
            "engine.amend_warm_hit_ratio",
            ratio(self.warm_hits as f64, (self.warm_hits + self.warm_misses) as f64),
        );
        m.set("engine.amend_over_cold", ratio(self.amend_sampled_ms, self.cold_sampled_ms));
        m.set("engine.cache_hit_ratio", ratio(self.cache_hits as f64, self.cache_lookups as f64));
        m.set("serve.server_ms", self.server_ms / ops);
        m.set("serve.outside_server_ms", self.outside_server_ms / ops);
        m.set("serve.hit_rtt_ms", percentile(&self.hit_rtt_ms, 50.0).unwrap_or(0.0));
        m.set("serve.miss_rtt_ms", percentile(&self.miss_rtt_ms, 50.0).unwrap_or(0.0));
        m.set("serve.encode_us", self.encode_us / ops);
        m.set("serve.decode_us", self.decode_us / ops);
        m.set("unattributed_share", unattributed_share);
        m.set("trace_overhead_share", trace_overhead_share);
        m
    }
}

/// A named set of metric values.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub BTreeMap<String, f64>);

impl Metrics {
    pub fn new() -> Self {
        Metrics::default()
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }
}

/// `1 − traced / untraced` throughput: the share of throughput the
/// traced path gives up (negative when it ran faster).
pub fn overhead_share(untraced_ops_per_s: f64, traced_ops_per_s: f64) -> f64 {
    1.0 - ratio(traced_ops_per_s, untraced_ops_per_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_tally_reports_every_metric_finite() {
        let m = Tally::default().metrics(0.0, 0.0);
        for (name, _) in PER_LAYER {
            let v = m.0.get(*name).unwrap_or_else(|| panic!("{name} missing"));
            assert!(v.is_finite(), "{name} = {v}");
        }
        assert_eq!(m.0.len(), PER_LAYER.len(), "no metric outside the declared list");
    }
}
