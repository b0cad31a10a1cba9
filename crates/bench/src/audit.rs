//! Allocation audit: a counting [`GlobalAlloc`] behind the `alloc-audit`
//! feature flag.
//!
//! When the feature is enabled this module installs a global allocator
//! that forwards every request to [`System`] after bumping a thread-local
//! counter, giving harnesses (notably `src/bin/alloc_census.rs`) an exact
//! per-thread ledger of heap acquisitions, and one process-wide total
//! ([`process_count`]) that also sees other threads, such as the
//! service cell's producer. The ledgers are plain `Cell<u64>` thread-locals and the total
//! one relaxed atomic add — no locks — so the audited binary's allocation
//! *pattern* is unchanged and the overhead is a few nanoseconds per
//! allocation. When the feature is off this module does
//! not exist and the crate keeps `forbid(unsafe_code)`, so release
//! binaries carry zero audit cost.
//!
//! Only acquisition traffic is counted (`alloc`, `alloc_zeroed`,
//! `realloc`): the zero-allocation claim is about the slot loop not
//! *acquiring* memory, and every steady-state acquisition implies a
//! matching free somewhere, so counting `dealloc` would double-book.
//!
//! Counts are split across [`PHASES`] per-thread ledgers selected by
//! [`enter_phase`], so a harness can separate its own setup traffic
//! (trace generation, engine construction) from the measured region
//! without ever pausing the allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of per-thread phase ledgers. Phase 0 is the default ledger a
/// thread starts on; harnesses claim the others via [`enter_phase`].
pub const PHASES: usize = 4;

/// Conventional ledger for harness setup work (the thread-start default).
pub const PHASE_SETUP: usize = 0;

/// Conventional ledger for the measured region.
pub const PHASE_MEASURE: usize = 1;

/// Allocations recorded by every thread of the process, in any phase.
static PROCESS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Which ledger this thread's allocations currently land on.
    static PHASE: Cell<usize> = const { Cell::new(0) };
    /// Allocations recorded per phase on this thread.
    static COUNTS: [Cell<u64>; PHASES] = const { [const { Cell::new(0) }; PHASES] };
    /// Backtraces still to print for measure-phase allocations (see
    /// [`arm_backtraces`]); 0 = disarmed.
    static TRACE_BUDGET: Cell<u32> = const { Cell::new(0) };
    /// Measure-phase allocations to pass over before printing starts —
    /// lets a differential harness skip straight past the warm-up prefix
    /// it already measured (deterministic runs repeat it exactly).
    static TRACE_SKIP: Cell<u64> = const { Cell::new(0) };
    /// Re-entrancy guard: capturing/printing a backtrace allocates, and
    /// those inner allocations must not recurse into another capture.
    static TRACING: Cell<bool> = const { Cell::new(false) };
}

/// The counting allocator. Installed as `#[global_allocator]` below when
/// the `alloc-audit` feature is on.
pub struct CountingAlloc;

// SAFETY: every method forwards its exact `Layout`/pointer arguments to
// `System`, which upholds the `GlobalAlloc` contract; the counter bump is
// a thread-local `Cell` increment and never allocates or unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: pure forwarding; see the impl-level SAFETY comment.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: arguments forwarded verbatim to the system allocator.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: pure forwarding; see the impl-level SAFETY comment.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was produced by `System` via the methods above and
        // is released with the same layout, as the contract requires.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: pure forwarding; see the impl-level SAFETY comment.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: arguments forwarded verbatim to the system allocator.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: pure forwarding; see the impl-level SAFETY comment.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: arguments forwarded verbatim; `ptr`/`layout` pair came
        // from `System` per the contract on the caller.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static AUDIT_ALLOC: CountingAlloc = CountingAlloc;

#[inline]
fn bump() {
    PROCESS.fetch_add(1, Ordering::Relaxed);
    // try_with (not with): allocations can occur while thread-locals are
    // being torn down at thread exit; those land nowhere rather than
    // aborting the process.
    let _ = PHASE.try_with(|p| {
        let phase = p.get();
        let _ = COUNTS.try_with(|c| c[phase].set(c[phase].get() + 1));
        if phase == PHASE_MEASURE {
            maybe_trace();
        }
    });
}

/// Print a backtrace for this measure-phase allocation if [`arm_backtraces`]
/// armed a budget. Never inlined into `bump`: the armed path is the cold
/// diagnostic, the counter bump is the product.
#[inline(never)]
fn maybe_trace() {
    if TRACING.try_with(Cell::get).unwrap_or(true) {
        return;
    }
    let skipping = TRACE_SKIP
        .try_with(|s| {
            let left = s.get();
            if left > 0 {
                s.set(left - 1);
                true
            } else {
                false
            }
        })
        .unwrap_or(true);
    if skipping {
        return;
    }
    let armed = TRACE_BUDGET
        .try_with(|b| {
            let n = b.get();
            if n > 0 {
                b.set(n - 1);
                true
            } else {
                false
            }
        })
        .unwrap_or(false);
    if armed {
        TRACING.with(|t| t.set(true));
        eprintln!(
            "== alloc-audit: measure-phase allocation ==\n{}",
            std::backtrace::Backtrace::force_capture()
        );
        TRACING.with(|t| t.set(false));
    }
}

/// Diagnostic hook for a failing census: skip the next `skip` allocations
/// recorded on this thread's [`PHASE_MEASURE`] ledger, then print a
/// backtrace for the `n` after that. A differential harness passes the
/// short run's count as `skip` — deterministic runs repeat their warm-up
/// prefix exactly, so printing starts at the first steady-state
/// allocation. The capture itself allocates; those inner allocations are
/// counted (they happen) but never recursively traced. Build with
/// debuginfo (`CARGO_PROFILE_RELEASE_DEBUG=1`) for symbol names.
pub fn arm_backtraces(skip: u64, n: u32) {
    TRACE_SKIP.with(|s| s.set(skip));
    TRACE_BUDGET.with(|b| b.set(n));
}

/// Allocations recorded on this thread under `phase` so far.
pub fn phase_count(phase: usize) -> u64 {
    assert!(phase < PHASES, "phase out of range");
    COUNTS.with(|c| c[phase].get())
}

/// Allocations recorded so far by every thread of the process — the only
/// ledger that sees threads the measured code spawns itself.
pub fn process_count() -> u64 {
    PROCESS.load(Ordering::Relaxed)
}

/// Total allocations recorded on this thread across all phases.
pub fn thread_count() -> u64 {
    COUNTS.with(|c| c.iter().map(Cell::get).sum())
}

/// Route this thread's subsequent allocations to `phase` until the
/// returned guard drops (restoring the previous phase). Guards nest.
pub fn enter_phase(phase: usize) -> PhaseGuard {
    assert!(phase < PHASES, "phase out of range");
    PhaseGuard {
        prev: PHASE.with(|p| p.replace(phase)),
    }
}

/// RAII guard from [`enter_phase`]; restores the prior phase on drop.
pub struct PhaseGuard {
    prev: usize,
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        PHASE.with(|p| p.set(self.prev));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The census methodology rests on exactly this property: heap
    // acquisitions on the current thread are visible in the ledger.
    #[test]
    fn synthetic_allocation_is_counted() {
        let before = thread_count();
        let v: Vec<u64> = Vec::with_capacity(64);
        let after = thread_count();
        assert!(after > before, "Vec::with_capacity must bump the ledger");
        drop(v);
    }

    #[test]
    fn spawned_thread_allocation_reaches_the_process_total() {
        let mine = thread_count();
        let before = process_count();
        std::thread::spawn(|| drop(Vec::<u64>::with_capacity(64)))
            .join()
            .expect("allocating thread");
        // Other tests allocate concurrently, so only a lower bound holds.
        assert!(process_count() - before > thread_count() - mine);
    }

    #[test]
    fn dealloc_is_not_counted() {
        let v: Vec<u64> = Vec::with_capacity(64);
        let before = thread_count();
        drop(v);
        let after = thread_count();
        assert_eq!(after, before, "frees must not bump the ledger");
    }

    #[test]
    fn phases_split_the_ledger() {
        let m0 = phase_count(PHASE_MEASURE);
        {
            let _g = enter_phase(PHASE_MEASURE);
            let v: Vec<u8> = Vec::with_capacity(32);
            drop(v);
        }
        let in_phase = phase_count(PHASE_MEASURE) - m0;
        assert!(
            in_phase >= 1,
            "allocation inside the guard lands on its phase"
        );
        // After the guard, traffic goes back to the previous phase.
        let m1 = phase_count(PHASE_MEASURE);
        let v: Vec<u8> = Vec::with_capacity(32);
        drop(v);
        assert_eq!(phase_count(PHASE_MEASURE), m1);
    }

    #[test]
    fn realloc_growth_is_counted() {
        let mut v: Vec<u64> = Vec::with_capacity(1);
        v.push(0);
        let before = thread_count();
        // Forcing growth past capacity must register (alloc or realloc).
        v.extend(0..1024);
        assert!(thread_count() > before);
    }
}
