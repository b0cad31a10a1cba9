//! Stress tests for the stream channel's hand-off (`stream.rs`): spin for
//! the budget, park after it, wake only a registered sleeper. Seeded
//! pauses on both sides steer every hand-off through the spin exit or the
//! park exit, a consumer that sleeps every `depth` slots in alternate
//! blocks makes its refills find the channel full as well as empty, and a
//! watchdog turns a lost wake-up into a failure instead of a hung suite.
//! Failures here are ordering bugs — the assertions check the channel's
//! contract (every batch arrives once, in order; a hang-up reaches a
//! parked peer), not any timing property. Seeded and deterministic in
//! structure; run under the CI `--test-threads` 1/2/4 matrix like the
//! equivalence suites.

use cioq_model::{Packet, PacketId, PortId, SlotId};
use cioq_sim::{ArrivalSource, StreamClosed};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::mpsc::RecvTimeoutError;
use std::time::Duration;

/// Burn a seeded-random number of yields/spins, permuting this thread's
/// timing relative to the other side's.
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
