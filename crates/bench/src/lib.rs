//! # cioq-bench
//!
//! The allocation census: behind the `alloc-audit` feature this library
//! hosts the counting global allocator the `alloc_census` harness uses to
//! prove the slot loop allocation-free (see `audit`). Timing lives in the
//! repository benchmark (`cioq_benchmark/`, `BENCHMARK.json`), not here.

// The audit allocator is the one sanctioned unsafe block in the crate
// (a `GlobalAlloc` impl forwarding to `System`); without the feature the
// crate stays entirely safe code.
#![cfg_attr(not(feature = "alloc-audit"), forbid(unsafe_code))]

#[cfg(feature = "alloc-audit")]
pub mod audit;
