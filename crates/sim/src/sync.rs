//! Low-latency phase synchronisation for the sharded engine.
//!
//! `std::sync::Barrier` parks every waiter on a condvar immediately, which
//! costs two syscalls per thread per phase — ruinous for the sharded
//! engine, whose phases are often microseconds long and which crosses a
//! barrier twice per phase. [`SpinBarrier`] spins briefly first (phase
//! turnaround is usually faster than a park/unpark round trip) and only
//! then falls back to a condvar park, so short phases cost a few hundred
//! nanoseconds of spinning while long or oversubscribed phases still
//! sleep instead of burning a core.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// How many generation checks a waiter performs before parking. One round
/// (an Acquire load plus a `spin_loop` hint) measures 16 ns on the 2-vCPU
/// reference host (min of 200 × 4096 rounds), so the budget is ≈ 33 µs —
/// what one parked crossing costs there (29–34 µs: the waiter's futex
/// sleep, the leader's wake, the vCPU's return from idle), i.e. spin for
/// as long as the park would cost. Benchmark row `cioq_gm_twotier_shard2`
/// (≈ 5 µs per phase) collapses below 1024 rounds (at 256 every third
/// wait parks: 6 k slots/s against 29 k) and cannot tell 1024, 2048, 4096
/// and 16384 apart; with parties ≤ cores a few waits in 1000 exhaust it.
const SPIN_ROUNDS: u32 = 2048;

/// A reusable sense-reversing barrier for a fixed set of parties: spin
/// first, park only when the phase outlasts the spin budget.
///
/// Semantics match `std::sync::Barrier::wait` (minus the leader flag,
/// which the sharded engine never used): the N-th arrival releases
/// everyone and the barrier is immediately reusable for the next phase.
#[derive(Debug)]
pub struct SpinBarrier {
    parties: usize,
    arrived: AtomicUsize,
    generation: AtomicU64,
    lock: Mutex<()>,
    cv: Condvar,
}

impl SpinBarrier {
    /// A barrier releasing once `parties` threads have arrived.
    pub fn new(parties: usize) -> Self {
        assert!(parties >= 1, "a barrier needs at least one party");
        SpinBarrier {
            parties,
            arrived: AtomicUsize::new(0),
            generation: AtomicU64::new(0),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    /// Block (spinning, then parking) until all parties have arrived. A
    /// one-party barrier returns at once, touching neither lock nor atomics.
    pub fn wait(&self) {
        if self.parties == 1 {
            return;
        }
        // ORDERING: Acquire pairs with the leader's Release store below;
        // a waiter that reads generation g sees every write the previous
        // leader made before opening generation g.
        let generation = self.generation.load(Ordering::Acquire);
        // ORDERING: AcqRel — the Release half publishes this thread's
        // phase writes to the leader; the Acquire half makes the leader's
        // +1 observation synchronize with every earlier arrival.
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.parties {
            // Last arrival: reset the count *before* opening the next
            // generation — late spinners of generation g+1 must observe an
            // already-reset count.
            // ORDERING: Release orders the reset before the generation
            // bump below; pairs with the AcqRel fetch_add of generation
            // g+1 arrivals.
            self.arrived.store(0, Ordering::Release);
            // Take the lock around the generation bump so a waiter cannot
            // check the generation, decide to park, and miss the notify.
            let guard = self.lock.lock().unwrap_or_else(|e| e.into_inner());
            // ORDERING: Release publishes the count reset (and all phase
            // writes) to waiters whose Acquire load observes g+1.
            self.generation.store(generation + 1, Ordering::Release);
            drop(guard);
            self.cv.notify_all();
            return;
        }
        for _ in 0..SPIN_ROUNDS {
            // ORDERING: Acquire pairs with the leader's Release store —
            // crossing the barrier must make the previous phase's writes
            // visible to this thread.
            if self.generation.load(Ordering::Acquire) != generation {
                return;
            }
            std::hint::spin_loop();
        }
        let mut guard = self.lock.lock().unwrap_or_else(|e| e.into_inner());
        // ORDERING: Acquire, same pairing as the spin loop; re-checked
        // under the lock so a bump between check and park is not missed.
        while self.generation.load(Ordering::Acquire) == generation {
            guard = self.cv.wait(guard).unwrap_or_else(|e| e.into_inner());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn single_party_never_blocks() {
        let b = SpinBarrier::new(1);
        for _ in 0..10 {
            b.wait();
        }
    }

    #[test]
    fn phases_are_totally_ordered_across_threads() {
        // Every thread increments a counter between barrier crossings; at
        // each crossing the counter must be exactly parties × phase.
        const PARTIES: usize = 4;
        const PHASES: u32 = 200;
        let barrier = SpinBarrier::new(PARTIES);
        let counter = AtomicU32::new(0);
        std::thread::scope(|scope| {
            for _ in 0..PARTIES {
                scope.spawn(|| {
                    for phase in 0..PHASES {
                        counter.fetch_add(1, Ordering::Relaxed);
                        barrier.wait();
                        assert_eq!(
                            counter.load(Ordering::Relaxed),
                            (phase + 1) * PARTIES as u32,
                            "no thread may pass the barrier early"
                        );
                        barrier.wait();
                    }
                });
            }
        });
    }
}
