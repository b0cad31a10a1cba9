//! # cioq-experiments
//!
//! The experiment harness behind every table and figure of the suite (see
//! the README's "Experiments" section and [`suite`]):
//! policy registry, competitive-ratio measurement against the certified OPT
//! bounds of `cioq-opt`, a parallel sweep runner (std scoped threads),
//! and plain-text/markdown table rendering.
//!
//! A ratio is measured against a [`Workload`]: a label, a switch and a
//! trace, with the OPT bound solved once when the workload is built (OPT
//! depends on the switch and the input, never on the policy).
//! [`Workload::measure`] runs one policy on it and returns a [`RatioRow`].
//! Each ratio experiment builds its distinct workloads once, in one
//! [`parallel_map`], then measures every policy against them in a second.
//!
//! One binary runs them all: `exp <id>|all|list [--quick] [--markdown]`
//! over [`suite::EXPERIMENTS`] (`--quick` is a reduced-scale run).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod policies;
mod ratio;
mod runner;
pub mod suite;
mod table;

pub use policies::{run_policy, PolicyKind};
pub use ratio::{RatioRow, Workload};
pub use runner::{parallel_map, parallel_map_with_threads, with_sweep_threads};
pub use table::{fmt_ratio, Table};

/// Whether `--quick` was passed to the current binary (reduced scale for
/// CI/tests).
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// A slot count at the scale asked for: `full`, or an eighth of it (at
/// least 16) when `quick`.
pub fn scaled_slots(full: u64, quick: bool) -> u64 {
    if quick {
        (full / 8).max(16)
    } else {
        full
    }
}
