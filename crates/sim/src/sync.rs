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
//!
//! ## One hand-off rule
//!
//! Both cross-thread hand-offs in this crate — the barrier here and the
//! stream channel in [`crate::stream`] — follow the same rule: *spin for
//! the measured budget ([`spin_until`]), park only after it, and wake only
//! a party that registered as parked.* A waiter that exhausts the budget
//! takes the lock, re-checks its condition and, if it still must wait,
//! adds itself to a parked count kept under that lock for as long as it
//! sleeps on the condvar ([`park`]; the wait releases the lock
//! atomically). The releasing side changes the condition and reads the
//! parked count inside one critical section of the same lock, and calls
//! `notify_all` only when the count is non-zero ([`wake`]). A wake-up
//! cannot be lost: the waiter's critical section either follows the
//! releaser's (it sees the condition changed and never waits) or precedes
//! it (the releaser sees a non-zero count and notifies a waiter that is
//! already queued on the condvar). A spinner is never counted, so the
//! common prompt hand-off costs no `futex_wake` at all.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};

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

/// Poll `ready` for the spin budget ([`SPIN_ROUNDS`] rounds). Returns
/// `true` as soon as it holds, `false` when the budget ran out and the
/// caller should take its park path.
pub(crate) fn spin_until(mut ready: impl FnMut() -> bool) -> bool {
    for _ in 0..SPIN_ROUNDS {
        if ready() {
            return true;
        }
        std::hint::spin_loop();
    }
    false
}

/// Wait on `cv` once, registered for its whole sleep in the parked count
/// that `count` picks out of the guarded state. The caller loops on its
/// condition, as with a bare `Condvar::wait`.
pub(crate) fn park<'a, T>(
    cv: &Condvar,
    mut guard: MutexGuard<'a, T>,
    count: impl Fn(&mut T) -> &mut usize,
) -> MutexGuard<'a, T> {
    *count(&mut guard) += 1;
    // A panicking holder leaves the guarded state consistent in both
    // users, so poisoning is not propagated.
    guard = cv.wait(guard).unwrap_or_else(|e| e.into_inner());
    *count(&mut guard) -= 1;
    guard
}

/// Wake every sleeper on `cv` — when `parked`, the count [`park`]
/// maintains, read in the critical section that changed their condition,
/// says there is one. Spinners see the change on their own.
pub(crate) fn wake(cv: &Condvar, parked: usize) {
    if parked > 0 {
        cv.notify_all();
    }
}

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
    /// Waiters currently parked on `cv` (registered under this lock
    /// before they wait; see the module docs).
    parked: Mutex<usize>,
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
            parked: Mutex::new(0),
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
            // Bump the generation and read the parked count in one
            // critical section, so a waiter cannot check the generation,
            // decide to park, and miss the notify: it registers under
            // this lock before it waits.
            let guard = self.parked.lock().unwrap_or_else(|e| e.into_inner());
            // ORDERING: Release publishes the count reset (and all phase
            // writes) to waiters whose Acquire load observes g+1.
            self.generation.store(generation + 1, Ordering::Release);
            let parked = *guard;
            drop(guard);
            wake(&self.cv, parked);
            return;
        }
        // ORDERING: Acquire pairs with the leader's Release store —
        // crossing the barrier must make the previous phase's writes
        // visible to this thread.
        if spin_until(|| self.generation.load(Ordering::Acquire) != generation) {
            return;
        }
        let mut guard = self.parked.lock().unwrap_or_else(|e| e.into_inner());
        // ORDERING: Acquire, same pairing as the spin loop; re-checked
        // under the lock so a bump between check and park is not missed.
        while self.generation.load(Ordering::Acquire) == generation {
            guard = park(&self.cv, guard, |parked| parked);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    impl SpinBarrier {
        /// Waiters parked right now.
        fn parked(&self) -> usize {
            *self.parked.lock().unwrap_or_else(|e| e.into_inner())
        }
    }

    #[test]
    fn single_party_never_blocks() {
        let b = SpinBarrier::new(1);
        for _ in 0..10 {
            b.wait();
        }
    }

    /// Both exits of `wait`, over 128 generations each. With `late` set
    /// the last arrival holds back until every other party has registered
    /// as parked — so the release must go through the condvar, and a
    /// leader that skipped the notify would hang the test. With `late`
    /// clear every party arrives at once and the spin exit dominates.
    /// Either way nobody is left parked: between the two `fence`
    /// crossings no thread is inside `barrier.wait()`, so its parked
    /// count must read 0.
    fn crossings_leave_nobody_parked(late: bool) {
        const PARTIES: usize = 3;
        let barrier = SpinBarrier::new(PARTIES);
        let fence = SpinBarrier::new(PARTIES);
        std::thread::scope(|scope| {
            for party in 0..PARTIES {
                let (barrier, fence) = (&barrier, &fence);
                scope.spawn(move || {
                    for _ in 0..128 {
                        if late && party == 0 {
                            while barrier.parked() < PARTIES - 1 {
                                std::thread::yield_now();
                            }
                        }
                        barrier.wait();
                        fence.wait();
                        assert_eq!(barrier.parked(), 0, "a party stayed registered as parked");
                        fence.wait();
                    }
                });
            }
        });
    }

    #[test]
    fn late_leader_releases_parked_waiters() {
        crossings_leave_nobody_parked(true);
    }

    #[test]
    fn prompt_leader_leaves_nobody_parked() {
        crossings_leave_nobody_parked(false);
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
