//! What a pass reports: the metric catalogue (names and units, mirrored
//! by `BENCHMARK.json`), the result of one pass, and its printing.

use crate::json::Value;
use std::collections::BTreeMap;

/// End-to-end metrics `(name, unit)`, reported with tracing off.
///
/// The failure rate is not a metric here: the result line carries it as
/// `failed` / `attempted`, and any failure makes the command exit non-zero.
pub const END_TO_END: &[(&str, &str)] = &[
    ("slots_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("value_throughput", "fraction"),
];

/// Per-layer metrics `(name, unit)`, reported by the traced pass. A layer
/// that is not on a workload's path reports 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("host.reps", "count"),
    ("host.rep_ms_p25", "ms"),
    ("host.rep_ms_p50", "ms"),
    ("host.rep_ms_p75", "ms"),
    ("host.noise_ratio", "ratio"),
    ("host.split_half_diff", "fraction"),
    ("host.trace_overhead", "fraction"),
    ("traffic.gen_ms", "ms"),
    ("source.arrivals_ns_per_slot", "ns/slot"),
    ("core.schedule_ns_per_slot", "ns/slot"),
    ("core.schedule_calls_per_slot", "1/slot"),
    ("core.admit_calls_per_slot", "1/slot"),
    ("core.match_size_mean", "count"),
    ("core.share", "fraction"),
    ("engine.self_ns_per_slot", "ns/slot"),
    ("engine.construct_us", "us"),
    ("engine.slot_us_p50", "us"),
    ("engine.slot_us_p99", "us"),
    ("shard.propose_ns_per_slot", "ns/slot"),
    ("shard.merge_ns_per_slot", "ns/slot"),
    ("shard.coord_ns_per_slot", "ns/slot"),
    ("shard.inline_slots_per_s", "1/s"),
    ("shard.sync_ns_per_slot", "ns/slot"),
    ("shard.parties", "count"),
    ("shard.vs_seq_ratio", "ratio"),
    ("transport.delta_ns_per_slot", "ns/slot"),
    ("stream.hop_ns_per_slot", "ns/slot"),
    ("stream.stalls_per_kslot", "1/kslot"),
    ("stream.share", "fraction"),
    ("snapshot.encode_us", "us"),
    ("snapshot.decode_us", "us"),
    ("snapshot.restore_us", "us"),
    ("snapshot.bytes", "bytes"),
    ("snapshot.per_rep", "count"),
    ("queues.insert_ns", "ns"),
    ("queues.pop_head_ns", "ns"),
    ("queues.pop_tail_ns", "ns"),
    ("queues.ops_per_slot", "1/slot"),
    ("queues.est_share", "fraction"),
    ("matching.edges_mean", "count"),
    ("matching.set_edge_ns", "ns"),
    ("matching.repair_ns_per_mark", "ns"),
    ("matching.greedy_ns_per_edge", "ns"),
    ("matching.est_share", "fraction"),
    ("sim.packets_per_slot", "1/slot"),
    ("sim.transfers_per_slot", "1/slot"),
    ("sim.preemptions_per_slot", "1/slot"),
    ("sim.loss_rate", "fraction"),
    ("sim.mean_latency_slots", "slots"),
    ("sim.residual_share", "fraction"),
];

/// Values a pass measured, by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// The outcome of one pass over one workload.
#[derive(Debug, Clone)]
pub struct PassResult {
    /// Workload name.
    pub workload: &'static str,
    /// `false`: timing pass, tracing off; `true`: traced pass.
    pub traced: bool,
    /// Reps and twin checks attempted.
    pub attempted: u64,
    /// Those that failed: the run returned `Err`, conservation broke, the
    /// report digest differed from the lane's first rep, or a twin's
    /// digest differed.
    pub failed: u64,
    /// Every catalogue metric of the pass, `(name, unit, value)`.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// The pass's own noise floor on host time (see
    /// [`crate::estimators::split_half_diff`]).
    pub split_half_diff: f64,
    /// The same figure over the set-up samples (timing pass only).
    pub setup_split_half_diff: f64,
    /// Hash of the full `RunReport` — identical across commits unless
    /// simulated behaviour changed.
    pub digest: u64,
    /// Context printed beside the metrics: reconciliation, quartiles,
    /// failure messages.
    pub notes: Vec<String>,
}

impl PassResult {
    /// Assemble a result: every catalogue metric, absent ones as 0.
    pub fn new(workload: &'static str, traced: bool, values: &Values, digest: u64) -> Self {
        let catalogue = if traced { PER_LAYER } else { END_TO_END };
        debug_assert!(
            values.keys().all(|k| catalogue.iter().any(|(n, _)| n == k)),
            "a measured metric is missing from the catalogue"
        );
        PassResult {
            workload,
            traced,
            attempted: 0,
            failed: 0,
            metrics: catalogue
                .iter()
                .map(|&(name, unit)| (name, unit, values.get(name).copied().unwrap_or(0.0)))
                .collect(),
            split_half_diff: 0.0,
            setup_split_half_diff: 0.0,
            digest,
            notes: Vec::new(),
        }
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// A metric's value.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|&(_, _, v)| v)
    }

    fn metrics_json(&self) -> Value {
        Value::obj(self.metrics.iter().map(|&(name, unit, value)| {
            (
                name,
                Value::obj([
                    ("unit", Value::Str(unit.into())),
                    ("value", Value::Num(value)),
                ]),
            )
        }))
    }

    /// The one-line result object the benchmark contract asks for.
    pub fn result_line(&self) -> String {
        Value::obj([
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", self.metrics_json()),
        ])
        .to_string()
    }

    /// The pass as it is stored in a `--json` file.
    pub fn file_entry(&self) -> Value {
        Value::obj([
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("digest", Value::Str(format!("{:016x}", self.digest))),
            ("split_half_diff", Value::Num(self.split_half_diff)),
            (
                "setup_split_half_diff",
                Value::Num(self.setup_split_half_diff),
            ),
            ("metrics", self.metrics_json()),
        ])
    }

    /// Human-readable block: every metric by name with its unit, then the
    /// notes.
    pub fn print(&self) {
        let pass = if self.traced {
            "traced pass"
        } else {
            "timing pass"
        };
        println!("== {} · {pass} ==", self.workload);
        for (name, unit, value) in &self.metrics {
            println!("  {name:<32} {value:>16.6} {unit}");
        }
        println!("  {:<32} {:>16x}", "sim.digest", self.digest);
        println!(
            "  {:<32} {:>16} of {} attempted",
            "failed", self.failed, self.attempted
        );
        for note in &self.notes {
            println!("  {note}");
        }
    }
}
