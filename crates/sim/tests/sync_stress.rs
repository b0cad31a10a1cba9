//! Permuted-arrival stress tests for the sharded engine's synchronisation
//! protocol: the [`SpinBarrier`] phase discipline and the per-(dest, src)
//! cell pattern built on top of it — a `Mutex<_>` cell written by one
//! party before a barrier crossing and drained by another after it, which
//! is how `shard.rs` hands proposals to the merge and cross-shard packets
//! over through its delay rings.
//!
//! The lockstep equivalence suites only sample the schedules a real run
//! produces; these tests adversarially permute thread arrival order with
//! seeded jitter (random yield/spin bursts before every protocol step) so
//! late spinners, early parkers, and generation-lapped waiters all occur.
//! Failures here are ordering bugs — the assertions check the protocol's
//! contract (no thread crosses early; every write before a crossing is
//! visible after it), not any timing property. The last test models the
//! driver's own topology — shards grouped onto parties, the leader working
//! as party 0 between its two waits. Seeded and deterministic in
//! structure; run under the CI `--test-threads` 1/2/4 matrix like the
//! equivalence suites.
//!
//! The stream channel (`stream.rs`) shares the barrier's hand-off rule —
//! spin for the budget, park after it, wake only a registered sleeper —
//! so its stress lives here too: seeded pauses on both sides steer every
//! hand-off through the spin exit or the park exit, a consumer that
//! sleeps every `depth` slots in alternate blocks makes its refills find
//! the channel full as well as empty, and a watchdog turns a lost wake-up
//! into a failure instead of a hung suite.

use cioq_model::{Packet, PacketId, PortId, SlotId};
use cioq_sim::{ArrivalSource, SpinBarrier, StreamClosed};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU32, AtomicU8, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::Mutex;
use std::time::Duration;

/// Burn a seeded-random number of yields/spins, permuting this thread's
/// arrival time relative to its peers.
fn jitter(rng: &mut SmallRng) {
    if rng.gen_bool(0.5) {
        for _ in 0..rng.gen_range(0..32usize) {
            std::hint::spin_loop();
        }
    } else {
        for _ in 0..rng.gen_range(0..4usize) {
            std::thread::yield_now();
        }
    }
}

/// A seeded permutation of `0..n` (Fisher-Yates; the vendored rand has no
/// shuffle helper).
fn permutation(n: usize, rng: &mut SmallRng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    order
}

#[test]
fn barrier_keeps_lockstep_under_permuted_arrivals() {
    const PARTIES: usize = 8;
    const PHASES: u32 = 300;
    for seed in [1u64, 42, 0xC109] {
        let barrier = SpinBarrier::new(PARTIES);
        let counter = AtomicU32::new(0);
        let mut spawn_rng = SmallRng::seed_from_u64(seed);
        let order = permutation(PARTIES, &mut spawn_rng);
        std::thread::scope(|scope| {
            for &t in &order {
                let barrier = &barrier;
                let counter = &counter;
                scope.spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(seed ^ (t as u64).wrapping_mul(0x9E37));
                    for phase in 0..PHASES {
                        jitter(&mut rng);
                        counter.fetch_add(1, Ordering::Relaxed);
                        barrier.wait();
                        // Between the two crossings the counter is frozen:
                        // every increment of this phase happened before the
                        // first barrier, none of the next phase's can
                        // happen until the second.
                        assert_eq!(
                            counter.load(Ordering::Relaxed),
                            (phase + 1) * PARTIES as u32,
                            "a thread passed the barrier before all parties arrived (seed {seed})"
                        );
                        jitter(&mut rng);
                        barrier.wait();
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), PHASES * PARTIES as u32);
    }
}

/// The mailbox value for phase `p`, route `src -> dest`, item `k` — unique
/// across everything, so any misrouted or stale delivery is identifiable.
fn payload(phase: u32, src: usize, dest: usize, k: usize) -> u64 {
    ((phase as u64) << 32) | ((src as u64) << 24) | ((dest as u64) << 16) | k as u64
}

#[test]
fn mailbox_cells_deliver_exactly_once_per_phase() {
    const K: usize = 6;
    const PHASES: u32 = 200;
    for seed in [7u64, 1234] {
        // Per-(dest, src) cells, exactly the sharded engine's comms shape.
        let mail: Vec<Vec<Mutex<Vec<u64>>>> = (0..K)
            .map(|_| (0..K).map(|_| Mutex::new(Vec::new())).collect())
            .collect();
        let barrier = SpinBarrier::new(K);
        let mut spawn_rng = SmallRng::seed_from_u64(seed);
        let order = permutation(K, &mut spawn_rng);
        std::thread::scope(|scope| {
            for &me in &order {
                let mail = &mail;
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(seed ^ (me as u64).wrapping_mul(0x51D));
                    for phase in 0..PHASES {
                        // Write half: as src, push a variable-size batch to
                        // every dest cell, in a seeded dest order.
                        for dest in permutation(K, &mut rng) {
                            jitter(&mut rng);
                            let n = 1 + (phase as usize + me + dest) % 3;
                            let mut cell = mail[dest][me].lock().expect("no poisoned locks");
                            for k in 0..n {
                                cell.push(payload(phase, me, dest, k));
                            }
                        }
                        jitter(&mut rng);
                        barrier.wait();
                        // Read half: as dest, drain own cells in src order
                        // and verify every batch arrived exactly once, in
                        // push order, with nothing stale or misrouted.
                        for (src, cell) in mail[me].iter().enumerate() {
                            jitter(&mut rng);
                            let mut cell = cell.lock().expect("no poisoned locks");
                            let n = 1 + (phase as usize + src + me) % 3;
                            let want: Vec<u64> =
                                (0..n).map(|k| payload(phase, src, me, k)).collect();
                            assert_eq!(
                                *cell, want,
                                "mailbox ({me} <- {src}) corrupt in phase {phase} (seed {seed})"
                            );
                            cell.clear();
                        }
                        jitter(&mut rng);
                        // Second crossing: nobody starts the next write
                        // half until every cell has been drained.
                        barrier.wait();
                    }
                });
            }
        });
    }
}

/// The sharded driver's actual topology: K shards on T parties, each party
/// running a contiguous group of shards, and the leader — the calling
/// thread, party 0 — publishing the phase, doing its own group's share
/// between its two waits, and then working alone on every cell before the
/// next phase. Exactly-once delivery must hold for every T, including the
/// uneven split and T = 1 (nothing spawned, the barrier a no-op).
#[test]
fn leader_works_between_its_waits_with_grouped_shards() {
    const K: usize = 6;
    const PHASES: u32 = 150;
    const WRITE: u8 = 0;
    const DRAIN: u8 = 1;
    const EXIT: u8 = 2;
    for (seed, t) in [(3u64, 1usize), (5, 2), (11, 4), (13, K)] {
        let mail: Vec<Vec<Mutex<Vec<u64>>>> = (0..K)
            .map(|_| (0..K).map(|_| Mutex::new(Vec::new())).collect())
            .collect();
        let barrier = SpinBarrier::new(t);
        let phase = AtomicU8::new(EXIT);
        let round = AtomicU32::new(0);
        // Parties inside a phase body; the leader's serial sections must
        // always observe zero.
        let active = AtomicU32::new(0);
        let group = |party: usize| (0..K).filter(move |s| s * t / K == party);
        let batch = |round: u32, src: usize, dest: usize| 1 + (round as usize + src + dest) % 3;
        let run_group = |ph: u8, party: usize, rng: &mut SmallRng| {
            active.fetch_add(1, Ordering::Relaxed);
            let round = round.load(Ordering::Relaxed);
            for me in group(party) {
                for other in permutation(K, rng) {
                    jitter(rng);
                    if ph == WRITE {
                        let mut cell = mail[other][me].lock().expect("no poisoned locks");
                        cell.extend(
                            (0..batch(round, me, other)).map(|k| payload(round, me, other, k)),
                        );
                    } else {
                        let mut cell = mail[me][other].lock().expect("no poisoned locks");
                        let want: Vec<u64> = (0..batch(round, other, me))
                            .map(|k| payload(round, other, me, k))
                            .collect();
                        assert_eq!(
                            *cell, want,
                            "mailbox ({me} <- {other}) corrupt in round {round} (seed {seed}, T = {t})"
                        );
                        cell.clear();
                    }
                }
            }
            active.fetch_sub(1, Ordering::Relaxed);
        };
        std::thread::scope(|scope| {
            for party in 1..t {
                let (barrier, phase, run_group) = (&barrier, &phase, &run_group);
                scope.spawn(move || {
                    let mut rng =
                        SmallRng::seed_from_u64(seed ^ (party as u64).wrapping_mul(0x51D));
                    loop {
                        barrier.wait();
                        let ph = phase.load(Ordering::Acquire);
                        if ph == EXIT {
                            break;
                        }
                        run_group(ph, party, &mut rng);
                        jitter(&mut rng);
                        barrier.wait();
                    }
                });
            }
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut do_phase = |ph: u8| {
                phase.store(ph, Ordering::Release);
                jitter(&mut rng);
                barrier.wait();
                run_group(ph, 0, &mut rng);
                barrier.wait();
                assert_eq!(
                    active.load(Ordering::Relaxed),
                    0,
                    "a party is still inside the phase after the closing barrier (T = {t})"
                );
            };
            for r in 0..PHASES {
                round.store(r, Ordering::Relaxed);
                do_phase(WRITE);
                // Serial section: every cell holds exactly this round's batch.
                let held: usize = mail.iter().flatten().map(|c| c.lock().unwrap().len()).sum();
                let sent: usize = (0..K)
                    .flat_map(|s| (0..K).map(move |d| batch(r, s, d)))
                    .sum();
                assert_eq!(held, sent, "round {r} (seed {seed}, T = {t})");
                do_phase(DRAIN);
                assert!(mail.iter().flatten().all(|c| c.lock().unwrap().is_empty()));
            }
            phase.store(EXIT, Ordering::Release);
            barrier.wait();
        });
    }
}

/// Heterogeneous party counts: barriers of size 1 (degenerate, pure
/// fast-path) through odd sizes, each re-used across enough phases for the
/// generation counter to lap the spin budget when oversubscribed.
#[test]
fn barrier_sizes_from_one_to_oversubscribed() {
    for parties in [1usize, 2, 3, 5, 16] {
        let barrier = SpinBarrier::new(parties);
        let counter = AtomicU32::new(0);
        std::thread::scope(|scope| {
            for t in 0..parties {
                let barrier = &barrier;
                let counter = &counter;
                scope.spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(t as u64);
                    for phase in 0..100u32 {
                        jitter(&mut rng);
                        counter.fetch_add(1, Ordering::Relaxed);
                        barrier.wait();
                        assert_eq!(
                            counter.load(Ordering::Relaxed),
                            (phase + 1) * parties as u32
                        );
                        barrier.wait();
                    }
                });
            }
        });
    }
}

/// Run `scenario` on its own thread and fail — rather than hang the
/// suite — when it has not finished within a minute: a lost wake-up
/// leaves one side of the channel parked forever.
fn with_watchdog(scenario: impl FnOnce() + Send + 'static) {
    let (done, finished) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        scenario();
        let _ = done.send(());
    });
    if finished.recv_timeout(Duration::from_secs(60)) == Err(RecvTimeoutError::Timeout) {
        panic!("no progress for 60 s: a stream wake-up was lost");
    }
    // Finished, or panicked and dropped `done`: surface the panic.
    if let Err(panic) = worker.join() {
        std::panic::resume_unwind(panic);
    }
}

/// A pause far beyond the ≈ 33 µs spin budget: whoever waits on the
/// pausing side exhausts its spin and parks.
const LONG_PAUSE: Duration = Duration::from_micros(200);

/// A seeded pause between channel operations: usually none, often a
/// `jitter` (well inside the spin budget, so the other side's wait ends
/// in its spin), now and then a [`LONG_PAUSE`].
fn pause(rng: &mut SmallRng) {
    match rng.gen_range(0..64u32) {
        0 => std::thread::sleep(LONG_PAUSE),
        1..=16 => jitter(rng),
        _ => {}
    }
}

/// What the producer pushes in `slot`: `None` skips the slot entirely,
/// an empty batch only advances the producer cursor. A pure function of
/// `(seed, slot)`, so the test can rebuild the sent sequence.
fn stream_batch(seed: u64, slot: SlotId, next_id: &mut u64) -> Option<Vec<Packet>> {
    let mut rng = SmallRng::seed_from_u64(seed ^ slot.wrapping_mul(0x9E37_79B9));
    let len = match rng.gen_range(0..8u32) {
        0 | 1 => return None,
        2 => 0,
        _ => rng.gen_range(1..=3u64),
    };
    let first = std::mem::replace(next_id, *next_id + len);
    let batch = (0..len).map(|k| {
        let port = PortId(((slot + k) % 4) as u16);
        Packet::new(PacketId(first + k), 1 + k, slot, port, port)
    });
    Some(batch.collect())
}

/// How the consumer paces itself between pulls.
#[derive(Clone, Copy, Debug)]
enum Consumer {
    /// [`pause`]: seeded, mostly prompt.
    Seeded,
    /// A [`LONG_PAUSE`] every `depth` slots, in blocks of `8·depth`
    /// slots that alternate with free-running ones. In a paced block the
    /// producer fills the channel and parks, so refills find it full; in
    /// a free block the consumer catches up, and a refill finds the
    /// channel empty and parks whenever the producer takes a long pause
    /// of its own.
    EveryDepth,
}

#[test]
fn stream_channel_delivers_in_order_through_spin_and_park_exits() {
    let slots: SlotId = if cfg!(miri) { 300 } else { 10_000 };
    let cases = [(1usize, 17u64), (2, 0xBEEF), (4, 99), (8, 0x5EED)];
    for (depth, seed) in cases {
        for consumer in [Consumer::Seeded, Consumer::EveryDepth] {
            // Paced blocks sleep through much of a 10 000-slot run at
            // depth 1; a fifth of it reaches the same exits.
            let slots = match consumer {
                Consumer::Seeded => slots,
                Consumer::EveryDepth => slots.min(2_000),
            };
            with_watchdog(move || {
                stream_in_order(depth, seed, slots, consumer);
            });
        }
    }
}

/// Push `slots` slots of [`stream_batch`] through a depth-`depth`
/// channel and check that the consumer receives exactly what was sent.
fn stream_in_order(depth: usize, seed: u64, slots: SlotId, consumer: Consumer) {
    let (tx, mut rx) = cioq_sim::channel(depth);
    let pump = cioq_sim::spawn_producer(tx, move |tx| {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5E4D);
        let (mut next_id, mut batch) = (0, Vec::new());
        for slot in 0..slots {
            pause(&mut rng);
            if let Some(packets) = stream_batch(seed, slot, &mut next_id) {
                batch.extend(packets);
                tx.send_reusing(slot, &mut batch).expect("consumer alive");
            }
        }
    });
    // The consumer pulls nothing until the producer has filled the buffer
    // and stalled, so a stall is certain at any depth.
    rx.wait_backpressure();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xC0);
    let (mut got, mut slot) = (Vec::new(), 0);
    while rx.in_arrival_window(slot) {
        match consumer {
            Consumer::Seeded => pause(&mut rng),
            Consumer::EveryDepth
                if slot.is_multiple_of(depth as SlotId)
                    && (slot / (8 * depth as SlotId)).is_multiple_of(2) =>
            {
                std::thread::sleep(LONG_PAUSE)
            }
            Consumer::EveryDepth => {}
        }
        rx.pull(slot, &mut got);
        slot += 1;
    }
    pump.join();
    let mut next_id = 0;
    let sent: Vec<Packet> = (0..slots)
        .filter_map(|s| stream_batch(seed, s, &mut next_id))
        .flatten()
        .collect();
    assert_eq!(
        got, sent,
        "stream reordered or lost packets (depth {depth}, {consumer:?} consumer)"
    );
    assert_eq!(rx.consumed(), sent.len() as u64);
    assert!(
        rx.stalls() >= 1,
        "backpressure never engaged (depth {depth}, {consumer:?} consumer)"
    );
}

#[test]
fn stream_close_reaches_a_parked_consumer() {
    with_watchdog(|| {
        let (tx, mut rx) = cioq_sim::channel(2);
        let pump = cioq_sim::spawn_producer(tx, |_tx| std::thread::sleep(25 * LONG_PAUSE));
        assert!(
            !rx.in_arrival_window(0),
            "closed without a batch: the window never opens"
        );
        pump.join();
    });
}

#[test]
fn stream_hangup_reaches_a_parked_producer() {
    with_watchdog(|| {
        let (tx, rx) = cioq_sim::channel(1);
        let feeder = std::thread::spawn(move || {
            let first = Packet::new(PacketId(0), 1, 0, PortId(0), PortId(0));
            let second = Packet::new(PacketId(1), 1, 1, PortId(0), PortId(0));
            tx.send(0, vec![first]).expect("buffer has room");
            tx.send(1, vec![second])
        });
        rx.wait_backpressure();
        std::thread::sleep(25 * LONG_PAUSE);
        drop(rx);
        assert_eq!(feeder.join().expect("feeder panicked"), Err(StreamClosed));
    });
}
