//! Allocation audit: a counting [`GlobalAlloc`] behind the `alloc-audit`
//! feature flag.
//!
//! When the feature is enabled this module installs a global allocator
//! that forwards every request to [`System`] after bumping one
//! process-wide counter ([`process_count`]), so a harness (notably
//! `src/bin/alloc_census.rs`) sees every heap acquisition of every thread,
//! the service cell's producer included. The counter is one relaxed
//! atomic add — no locks — so the audited binary's allocation *pattern* is
//! unchanged and the overhead is a few nanoseconds per allocation. When
//! the feature is off this module does not exist and the crate keeps
//! `forbid(unsafe_code)`, so release binaries carry zero audit cost.
//!
//! Only acquisition traffic is counted (`alloc`, `alloc_zeroed`,
//! `realloc`): the zero-allocation claim is about the slot loop not
//! *acquiring* memory, and every steady-state acquisition implies a
//! matching free somewhere, so counting `dealloc` would double-book.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocations recorded by every thread of the process.
static PROCESS: AtomicU64 = AtomicU64::new(0);

/// The counting allocator. Installed as `#[global_allocator]` below when
/// the `alloc-audit` feature is on.
pub struct CountingAlloc;

// SAFETY: every method forwards its exact `Layout`/pointer arguments to
// `System`, which upholds the `GlobalAlloc` contract; the counter bump is
// one atomic add and never allocates or unwinds.
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
}

/// Allocations recorded so far by every thread of the process.
pub fn process_count() -> u64 {
    PROCESS.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Allocations `f` adds to the process total.
    fn counted(f: impl FnOnce()) -> u64 {
        let before = process_count();
        f();
        process_count() - before
    }

    // The census methodology rests on exactly these properties. One test,
    // so no other test thread allocates while it reads the total.
    #[test]
    fn acquisitions_on_any_thread_are_counted_and_frees_are_not() {
        assert!(counted(|| drop(Vec::<u64>::with_capacity(64))) >= 1);
        // `spawn` itself allocates a few times on the calling thread, so
        // only the spawned thread's 1000 boxes can reach 1000.
        let spawned = counted(|| {
            std::thread::spawn(|| drop((0..1000u64).map(Box::new).collect::<Vec<_>>()))
                .join()
                .expect("allocating thread");
        });
        assert!(
            spawned >= 1000,
            "a spawned thread's allocations reach the total: {spawned}"
        );
        let mut v: Vec<u64> = Vec::with_capacity(1);
        v.push(0);
        // Growth past capacity must register (alloc or realloc).
        assert!(counted(|| v.extend(0..1024)) >= 1);
        assert_eq!(counted(|| drop(v)), 0, "frees must not count");
    }
}
