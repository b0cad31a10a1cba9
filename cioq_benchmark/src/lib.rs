//! # cioq-benchmark
//!
//! The repository benchmark named by `/BENCHMARK.json`: six workloads, one
//! per scheduling regime of the paper (an unweighted maximal matching, a
//! weight-ordered preemptive greedy, per-port crosspoint decisions with no
//! matching, the phase-structured engine inline and threaded, and the
//! streaming service loop), measured end to end with tracing off and layer
//! by layer in a separate traced pass.
//!
//! Every layer is measured **from outside**: the wrappers in [`trace`]
//! implement the simulator's public policy and source traits and time the
//! calls that cross them, the kernels in [`layers`] call the public
//! functions of `queues`, `matching` and `sim::snapshot` directly, and
//! twin runs price what is crate-private (`sim::transport`, `sim::sync`)
//! by difference. Nothing outside this directory is changed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod estimators;
pub mod json;
pub mod layers;
pub mod report;
pub mod run;
pub mod trace;
pub mod workloads;

use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the first call in this process. The benchmark's only
/// clock read: every span and every rep time comes through here.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    // detlint: allow(D2) reason="the benchmark measures host time by definition; this is its single clock site"
    let now = Instant::now();
    now.duration_since(*EPOCH.get_or_init(|| now)).as_nanos() as u64
}
