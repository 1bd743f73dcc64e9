//! What one workload run hands back, and the metric lists it must fill.
//!
//! [`END_TO_END`] and [`PER_LAYER`] mirror `BENCHMARK.json` (a test keeps
//! them equal). Every run reports every end-to-end metric; a traced run
//! reports every per-layer metric, with 0 for the layers its workload does
//! not cross (no span of that layer was recorded).

use std::collections::BTreeMap;

use crate::trace::Span;

/// End-to-end metrics: (name, unit). `op_ms` and `ops_per_s` are defined
/// per workload; see `perfbench/README.md`.
pub const END_TO_END: [(&str, &str); 4] =
    [("setup_s", "s"), ("peak_rss_mb", "MB"), ("op_ms", "ms"), ("ops_per_s", "1/s")];

/// Per-layer metrics of the traced run: (name, unit).
pub const PER_LAYER: [(&str, &str); 41] = [
    ("ctl.request_us.p50", "us"),
    ("ctl.request_us.p99", "us"),
    ("ctl.requests", "count"),
    ("ctl.scrape_us.p50", "us"),
    ("serve.handle_us.p50", "us"),
    ("serve.handle_us.p99", "us"),
    ("serve.ring_lock_us.p50", "us"),
    ("serve.ring_lock_us.p99", "us"),
    ("serve.lease_acquire_ns", "ns"),
    ("serve.lease_release_ns", "ns"),
    ("serve.grant_ratio", "ratio"),
    ("serve.revoked_ratio", "ratio"),
    ("net.frames_per_s", "1/s"),
    ("net.rules_per_s", "1/s"),
    ("net.encode_ns", "ns"),
    ("net.decode_ns", "ns"),
    ("mpnet.events", "count"),
    ("mpnet.transmissions", "count"),
    ("mpnet.losses", "count"),
    ("mpnet.rules", "count"),
    ("mpnet.ns_per_event", "ns"),
    ("mpnet.rules_per_kevent", "count"),
    ("mpnet.converge_ticks", "ticks"),
    ("mpnet.ground_config_us", "us"),
    ("core.is_legitimate_ns", "ns"),
    ("daemon.steps", "count"),
    ("daemon.moves", "count"),
    ("daemon.rounds", "count"),
    ("daemon.step_ns", "ns"),
    ("daemon.enabled_us", "us"),
    ("daemon.legit_check_share", "ratio"),
    ("bench.self_ms", "ms"),
    ("ctl.self_ms", "ms"),
    ("serve.self_ms", "ms"),
    ("net.self_ms", "ms"),
    ("mpnet.self_ms", "ms"),
    ("core.self_ms", "ms"),
    ("daemon.self_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.untraced_op_ms", "ms"),
    ("trace.traced_op_ms", "ms"),
];

/// The outcome of one workload run.
#[derive(Debug, Default)]
pub struct Report {
    /// Ops attempted (acquires, simulations, convergences).
    pub attempted: u64,
    /// Ops that failed, including every op a failed check covers.
    pub failed: u64,
    /// Named correctness checks and whether each held.
    pub checks: Vec<(String, bool)>,
    /// End-to-end metric values (untraced run).
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metric values (traced run).
    pub layer: BTreeMap<&'static str, f64>,
    /// The workload's own metric names: (name, value, unit, note).
    pub named: Vec<(String, f64, &'static str, String)>,
    /// Workload parameters, for provenance.
    pub params: Vec<(&'static str, String)>,
    /// Spans of the traced run.
    pub spans: Vec<Span>,
}

impl Report {
    /// Record a check; a failed one fails `ops` ops.
    pub fn check(&mut self, what: impl Into<String>, held: bool, ops: u64) {
        if !held {
            self.failed += ops;
        }
        self.checks.push((what.into(), held));
    }

    /// Whether every check held.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, held)| *held)
    }

    /// Record a metric under the workload's own name for it.
    pub fn name(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        self.named.push((name.to_string(), value, unit, note.into()));
    }
}
