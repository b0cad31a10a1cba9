//! Streaming ingestion: push-fed arrivals over a bounded per-slot channel.
//!
//! The paper's online model reveals σ slot by slot; this module is that
//! seam. A producer thread pushes one batch of packets per slot through a
//! [`StreamSender`]; the engine pulls them through a [`StreamingSource`]
//! (an [`ArrivalSource`] with no horizon). Nothing materialises the full
//! trace: memory is bounded by the channel depth. Drained batch buffers
//! flow back to the producer through a bounded recycle ring
//! ([`StreamSender::send_reusing`]), so steady-state streaming neither
//! allocates nor frees — at most `2·depth + 1` buffers circulate for the
//! life of the channel.
//!
//! ## Backpressure contract
//!
//! The channel holds at most `depth` slot batches. When the producer
//! outruns the switch, [`StreamSender::send`] **blocks** until the engine
//! next refills — a stall, counted once per blocking send and readable
//! via [`StreamingSource::stalls`]. Nothing is ever dropped, and the
//! sequence of batches crossing the channel is independent of timing, so
//! a streamed run's transcript does not depend on the channel depth or on
//! how often the producer stalled. Stall counters are diagnostics only:
//! they never enter reports or snapshots.
//!
//! ### Refills
//!
//! The consumer does not lock once per slot. When its local queue runs
//! dry, one critical section (a *refill*) waits for data, hands the
//! buffers it drained since the last refill back to the recycle ring,
//! and swaps the channel's whole batch queue for its own empty one; the
//! slots after that are served from the local queue without touching the
//! lock. So the channel holds at most `depth` batches and the consumer at
//! most `depth` more: at most `2·depth` batches are in flight, plus the
//! producer's own buffer — `2·depth + 1` buffers, O(`depth`) memory. A
//! drained buffer returns to the producer at the consumer's next refill,
//! not at the pull that drained it; the ring is capped at `2·depth`.
//!
//! ### Wake rule
//!
//! The hand-off follows the rule stated in `sync.rs`: spin for the
//! measured budget, park only after it, wake only a registered sleeper.
//!
//! * **Who spins.** A producer that found the buffer full spins on a
//!   lock-free mirror of the buffered-batch count; a consumer that wants a
//!   batch spins on the same mirror. Either spin also ends on the hang-up
//!   mirror (the other side was dropped). The mirrors are hints: every
//!   decision is re-made under the channel lock. On a one-core host
//!   (`available_parallelism()` read once when the channel opens) the
//!   other side cannot run while this one spins, so the spin is skipped
//!   and the waiter parks at once.
//! * **Who registers.** A thread about to wait on a condvar — the
//!   producer on `space`; the consumer and
//!   [`StreamingSource::wait_backpressure`] observers on `data` — first
//!   increments that condvar's parked count in the channel state, under
//!   the lock, and decrements it when it wakes.
//! * **Who notifies.** Whoever changes what a sleeper waits for — a send
//!   (batch buffered, stall counted), a refill (space freed: the only
//!   critical section that notifies `space` besides the consumer's
//!   `Drop`), either `Drop` (hang-up) — makes the change and reads the
//!   parked count in the same critical section, and calls `notify_all`
//!   only when it is non-zero.
//! * **Why a notify cannot be missed.** Registration, the sleeper's last
//!   check and the condvar's release of the lock are one atomic step with
//!   respect to that lock. A notifier's critical section therefore runs
//!   either before it (the sleeper's check sees the change and it does
//!   not wait) or after it (the notifier reads a non-zero count and wakes
//!   a thread already queued on the condvar). A spinner is never
//!   registered and needs no wake: it re-checks under the lock before it
//!   may park.
//!
//! ## Cursor and restore
//!
//! The consumer cursor is `(next slot, packets consumed)`. At a checkpoint
//! boundary it is a pure function of the snapshot — the checkpoint slot
//! and the arrived-packet count — so snapshots need no extra streaming
//! state: [`crate::EngineSnapshot::stream_cursor`] recovers it, and
//! [`channel_at`] opens a resumed channel whose producer must re-feed the
//! stream from exactly that point (enforced: batch slots are checked
//! against the cursor, and the replay adapters verify the skipped prefix
//! matches the consumed count).
//!
//! ## Shutdown
//!
//! Dropping the last [`StreamSender`] closes the stream: the engine's
//! arrival window ends, and the run drains in-flight fabric and queue
//! state exactly like a trace-fed run reaching its horizon. Dropping the
//! [`StreamingSource`] (consumer gone) unblocks and errors the producer,
//! so an aborted run cannot deadlock its feeder.

use crate::source::ArrivalSource;
use crate::state::SwitchView;
use crate::sync::{park, spin_until, wake};
use crate::trace::{Trace, TraceReader};
use cioq_model::{Packet, SlotId};
use std::collections::VecDeque;
use std::io::BufRead;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// Consumer position in a stream: the next slot to pull and how many
/// packets were consumed before it. At a checkpoint boundary this equals
/// `(snapshot slot, snapshot arrived count)` — see
/// [`crate::EngineSnapshot::stream_cursor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamCursor {
    /// Next slot the consumer will pull.
    pub slot: SlotId,
    /// Packets consumed in slots before `slot` (equals the next packet id
    /// for trace-numbered streams).
    pub consumed: u64,
}

impl StreamCursor {
    /// Cursor at the beginning of a stream.
    pub fn start() -> Self {
        StreamCursor {
            slot: 0,
            consumed: 0,
        }
    }
}

/// The producer observed a closed channel: the consumer was dropped
/// before the stream ended. Feeding can stop; nothing more will be read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamClosed;

impl std::fmt::Display for StreamClosed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "stream consumer hung up")
    }
}

impl std::error::Error for StreamClosed {}

struct ChannelState {
    /// Buffered `(slot, packets)` batches, slots strictly increasing.
    batches: VecDeque<(SlotId, Vec<Packet>)>,
    /// Lowest slot the producer may push next.
    next_push: SlotId,
    /// Producer dropped: no further batches will arrive.
    closed: bool,
    /// Consumer dropped: sends fail instead of blocking forever.
    receiver_gone: bool,
    /// Times a send found the buffer full and had to block. Diagnostic
    /// only — never serialized, never part of a report.
    stalls: u64,
    /// Emptied batch buffers returned by the consumer for the producer to
    /// refill ([`StreamSender::send_reusing`]): at most `2·depth + 1`
    /// buffers circulate, so a steady-state producer/consumer pair stops
    /// allocating once every buffer has grown to its high-water capacity.
    /// Capped at `2·depth` entries.
    recycled: Vec<Vec<Packet>>,
    /// Threads parked on [`Channel::space`] right now (see the module
    /// docs' wake rule): whoever frees space notifies only when non-zero.
    space_parked: usize,
    /// Threads parked on [`Channel::data`] right now.
    data_parked: usize,
}

struct Channel {
    state: Mutex<ChannelState>,
    /// Producer waits here for buffer space.
    space: Condvar,
    /// Consumer (and backpressure observers) wait here for batches,
    /// close, or a stall.
    data: Condvar,
    depth: usize,
    /// Lock-free mirror of `batches.len()`, stored under the lock after
    /// every push and refill. A spin hint only — decisions are re-made
    /// under the lock.
    buffered: AtomicUsize,
    /// Lock-free mirror of `closed || receiver_gone`: the other side hung
    /// up, so a spinner must stop waiting for it.
    hung_up: AtomicBool,
    /// More than one core: the other side can make progress while this
    /// one spins. Read once, as `ShardedOptions::parties()` does.
    spin: bool,
}

impl Channel {
    fn lock(&self) -> MutexGuard<'_, ChannelState> {
        // A panicking holder leaves consistent state (all updates are
        // single assignments), so poisoning is not propagated.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Spin (multi-core hosts only) until `ready` holds of the buffered
    /// count or the other side hangs up; the caller re-checks under the
    /// lock either way.
    fn spin_for(&self, ready: impl Fn(usize) -> bool) {
        if self.spin {
            spin_until(|| {
                // ORDERING: Acquire pairs with the Release stores made
                // under the lock in `set_buffered` and the two `Drop`s; a
                // stale read only costs spin rounds, the lock decides.
                ready(self.buffered.load(Ordering::Acquire)) || self.hung_up.load(Ordering::Acquire)
            });
        }
    }

    /// Publish the buffered-batch count after a push or refill.
    fn set_buffered(&self, st: &ChannelState) {
        // ORDERING: Release pairs with the spinners' Acquire load in
        // `spin_for`.
        self.buffered.store(st.batches.len(), Ordering::Release);
    }

    /// Consumer side: wait — spinning, then parked and registered — until
    /// a batch is buffered or the producer closed the stream.
    fn wait_data(&self) -> MutexGuard<'_, ChannelState> {
        self.spin_for(|buffered| buffered > 0);
        let mut st = self.lock();
        while st.batches.is_empty() && !st.closed {
            st = park(&self.data, st, |st| &mut st.data_parked);
        }
        st
    }
}

/// Producer handle of a streaming channel. Push one batch per slot with
/// [`send`](Self::send); dropping the handle closes the stream.
pub struct StreamSender {
    chan: Arc<Channel>,
}

impl StreamSender {
    /// Push the arrivals of `slot`, in arrival order. Slots must be
    /// pushed in strictly increasing order; slots without arrivals may be
    /// skipped entirely (or sent with an empty batch, which only advances
    /// the producer cursor). Blocks while the channel holds `depth`
    /// batches — the backpressure stall — until the consumer's next
    /// refill empties it. Returns [`StreamClosed`] if the consumer is
    /// gone.
    ///
    /// Panics if `slot` is below the producer cursor or a packet's
    /// arrival disagrees with `slot` — both are producer bugs that would
    /// desynchronise the stream from the slot clock.
    pub fn send(&self, slot: SlotId, mut packets: Vec<Packet>) -> Result<(), StreamClosed> {
        self.send_reusing(slot, &mut packets)
    }

    /// Like [`send`](Self::send), but the batch buffer stays with the
    /// caller: its contents move into the channel and it comes back empty
    /// — swapped, when one is available, for a buffer the consumer
    /// drained and handed back at a refill (capacity included). A
    /// producer that refills the same buffer every slot therefore stops
    /// allocating once the `2·depth + 1` circulating buffers have grown
    /// to the largest batch seen: the steady-state streaming hot path is
    /// allocation-free.
    pub fn send_reusing(
        &self,
        slot: SlotId,
        packets: &mut Vec<Packet>,
    ) -> Result<(), StreamClosed> {
        // Validate the batch before taking the lock: the consumer must
        // not wait out a scan of the producer's packets.
        for p in packets.iter() {
            assert!(
                p.arrival == slot,
                "invariant violated: packet {} arrives at slot {} but was pushed in slot {slot}",
                p.id.0,
                p.arrival
            );
        }
        let chan = &*self.chan;
        let mut st = chan.lock();
        assert!(
            slot >= st.next_push,
            "invariant violated: stream producer pushed slot {slot} after slot {}",
            st.next_push
        );
        if st.batches.len() >= chan.depth && !st.receiver_gone {
            st.stalls += 1;
            wake(&chan.data, st.data_parked);
            drop(st);
            chan.spin_for(|buffered| buffered < chan.depth);
            st = chan.lock();
            while st.batches.len() >= chan.depth && !st.receiver_gone {
                st = park(&chan.space, st, |st| &mut st.space_parked);
            }
        }
        if st.receiver_gone {
            return Err(StreamClosed);
        }
        st.next_push = slot + 1;
        if !packets.is_empty() {
            let replacement = st.recycled.pop().unwrap_or_default();
            st.batches
                .push_back((slot, std::mem::replace(packets, replacement)));
            chan.set_buffered(&st);
            wake(&chan.data, st.data_parked);
        }
        Ok(())
    }

    /// Backpressure stalls so far (sends that found the buffer full).
    pub fn stalls(&self) -> u64 {
        self.chan.lock().stalls
    }
}

impl Drop for StreamSender {
    fn drop(&mut self) {
        let mut st = self.chan.lock();
        st.closed = true;
        // ORDERING: Release pairs with the consumer's Acquire load in
        // `spin_for`, ending its spin for a batch that will never come.
        self.chan.hung_up.store(true, Ordering::Release);
        wake(&self.chan.data, st.data_parked);
    }
}

/// Consumer half of a streaming channel: an [`ArrivalSource`] with no
/// horizon that pulls each slot's batch as the engine reaches it. It
/// serves slots from the batches its last refill took and refills only
/// when they run out, blocking (inside
/// [`ArrivalSource::in_arrival_window`]) until the producer either
/// supplies a batch or closes the stream.
pub struct StreamingSource {
    // snapshot: derived — the channel holds only in-flight batches; a
    // snapshot: restored run reopens a fresh channel via `channel_at`.
    chan: Arc<Channel>,
    // snapshot: derived — equals `EngineSnapshot::slot()` at a checkpoint
    // snapshot: boundary (checkpoints fire before the arrival phase).
    next_slot: SlotId,
    // snapshot: derived — equals the snapshot's arrived-packet count; see
    // snapshot: `EngineSnapshot::stream_cursor`.
    consumed: u64,
    // snapshot: derived — batches the last refill took, not yet pulled;
    // snapshot: at a checkpoint boundary they lie at or past the cursor,
    // snapshot: and a restored run's producer re-feeds them from there.
    local: VecDeque<(SlotId, Vec<Packet>)>,
    // snapshot: derived — drained buffers the next refill hands back to
    // snapshot: the recycle ring; they carry no packets.
    spent: Vec<Vec<Packet>>,
}

impl StreamingSource {
    /// Pull the arrivals of `slot` into `out`, blocking until the
    /// producer has caught up to `slot` or closed the stream. Slots must
    /// be consumed in order from the cursor — a gap would silently lose
    /// arrivals, so it is a hard invariant.
    pub fn pull(&mut self, slot: SlotId, out: &mut Vec<Packet>) {
        assert!(
            slot == self.next_slot,
            "invariant violated: streaming source consumed out of order \
             (asked for slot {slot}, cursor sits at slot {})",
            self.next_slot
        );
        if self.local.is_empty() {
            self.refill();
        }
        // A front batch for a later slot, or a closed and drained stream:
        // this slot has no arrivals.
        if let Some(&(s, _)) = self.local.front().filter(|&&(s, _)| s <= slot) {
            assert!(
                s == slot,
                "invariant violated: batch for slot {s} stranded below the cursor"
            );
            let (_, mut packets) = self.local.pop_front().expect("front just matched");
            self.consumed += packets.len() as u64;
            out.append(&mut packets);
            // The emptied buffer goes back to the producer at the next
            // refill; `spent` was reserved for the `depth` batches one
            // refill can take.
            self.spent.push(packets);
        }
        self.next_slot = slot + 1;
    }

    /// Take every buffered batch in one critical section: wait for data
    /// (spin, then park), hand the spent buffers back to the recycle
    /// ring, swap the channel's batches with the empty local queue, and
    /// wake a producer parked on the space this frees. Called only with
    /// the local queue empty, so the swap hands the channel an empty
    /// deque of the same reserved capacity.
    // detlint: hot
    fn refill(&mut self) {
        debug_assert!(self.local.is_empty(), "refill with batches still local");
        let chan = &*self.chan;
        let mut st = chan.wait_data();
        // The ring is capped at 2·depth, the most buffers a
        // `send_reusing` producer ever has out, so it stays bounded
        // whatever the producer does.
        for buf in self.spent.drain(..) {
            if st.recycled.len() < 2 * chan.depth {
                st.recycled.push(buf);
            }
        }
        std::mem::swap(&mut st.batches, &mut self.local);
        chan.set_buffered(&st);
        wake(&chan.space, st.space_parked);
    }

    /// The consumer cursor: next slot to pull and packets consumed.
    pub fn cursor(&self) -> StreamCursor {
        StreamCursor {
            slot: self.next_slot,
            consumed: self.consumed,
        }
    }

    /// Packets consumed so far (the id the next trace-numbered packet
    /// would carry).
    pub fn consumed(&self) -> u64 {
        self.consumed
    }

    /// Backpressure stalls so far (sends that found the buffer full).
    pub fn stalls(&self) -> u64 {
        self.chan.lock().stalls
    }

    /// Block until the producer has stalled on backpressure at least
    /// once (or closed the stream). Lets a harness prove deterministically
    /// that the bounded buffer actually engaged, without sampling races.
    pub fn wait_backpressure(&self) {
        let mut st = self.chan.lock();
        while st.stalls == 0 && !st.closed {
            st = park(&self.chan.data, st, |st| &mut st.data_parked);
        }
    }
}

impl Drop for StreamingSource {
    fn drop(&mut self) {
        let mut st = self.chan.lock();
        st.receiver_gone = true;
        // ORDERING: Release pairs with the producer's Acquire load in
        // `spin_for`, ending its spin for space nobody will free.
        self.chan.hung_up.store(true, Ordering::Release);
        // Unblock a producer stuck in `send` so an aborted run cannot
        // deadlock its feeder thread.
        wake(&self.chan.space, st.space_parked);
    }
}

impl ArrivalSource for StreamingSource {
    fn arrivals(&mut self, _view: &SwitchView<'_>, slot: SlotId, out: &mut Vec<Packet>) {
        self.pull(slot, out);
    }

    fn in_arrival_window(&mut self, _slot: SlotId) -> bool {
        // Any held batch is at a slot ≥ the cursor, so the window is
        // still open; a refill that finds the channel closed and empty
        // ends it.
        if self.local.is_empty() {
            self.refill();
        }
        !self.local.is_empty()
    }
}

/// Open a streaming channel buffering at most `depth` slot batches. The
/// consumer takes them all at each refill and holds at most `depth` more,
/// so at most `2·depth` batches (and `2·depth + 1` buffers) are in
/// flight.
pub fn channel(depth: usize) -> (StreamSender, StreamingSource) {
    channel_at(depth, StreamCursor::start())
}

/// Open a streaming channel resumed at `cursor`: the consumer pulls from
/// `cursor.slot`, and the producer must push slots from there on. Used
/// to re-attach a stream to an engine restored from a checkpoint taken
/// at that cursor (see [`crate::EngineSnapshot::stream_cursor`]).
pub fn channel_at(depth: usize, cursor: StreamCursor) -> (StreamSender, StreamingSource) {
    assert!(depth >= 1, "stream channel depth must be >= 1");
    let chan = Arc::new(Channel {
        state: Mutex::new(ChannelState {
            batches: VecDeque::with_capacity(depth),
            next_push: cursor.slot,
            closed: false,
            receiver_gone: false,
            stalls: 0,
            recycled: Vec::with_capacity(2 * depth),
            space_parked: 0,
            data_parked: 0,
        }),
        space: Condvar::new(),
        data: Condvar::new(),
        depth,
        buffered: AtomicUsize::new(0),
        hung_up: AtomicBool::new(false),
        spin: std::thread::available_parallelism().map_or(1, |n| n.get()) > 1,
    });
    (
        StreamSender { chan: chan.clone() },
        StreamingSource {
            chan,
            next_slot: cursor.slot,
            consumed: cursor.consumed,
            local: VecDeque::with_capacity(depth),
            spent: Vec::with_capacity(depth),
        },
    )
}

/// A running producer thread. [`join`](Self::join) it after the run: a
/// panic on the producer side (bad replay file, cursor mismatch) is
/// re-raised there instead of being lost.
pub struct StreamPump {
    handle: JoinHandle<()>,
}

impl StreamPump {
    /// Wait for the producer to finish, re-raising its panic if it died.
    pub fn join(self) {
        if let Err(panic) = self.handle.join() {
            std::panic::resume_unwind(panic);
        }
    }
}

/// Spawn a producer thread running `feed` over `sender`. The sender is
/// dropped — closing the stream — when `feed` returns or panics.
pub fn spawn_producer<F>(sender: StreamSender, feed: F) -> StreamPump
where
    F: FnOnce(StreamSender) + Send + 'static,
{
    StreamPump {
        handle: std::thread::spawn(move || feed(sender)),
    }
}

/// Stream a pre-recorded trace: a convenience producer for parity tests
/// and replay (it clones the trace tail up front — true streaming uses
/// [`stream_reader`] or a slot generator).
pub fn stream_trace(trace: &Trace, depth: usize) -> (StreamingSource, StreamPump) {
    stream_trace_from(trace, depth, StreamCursor::start())
}

/// Stream a trace from `cursor` onward, as when resuming from a
/// checkpoint. Panics if the trace's prefix before `cursor.slot` does not
/// hold exactly `cursor.consumed` packets — the stream being re-fed would
/// not be the one the checkpoint was taken on.
pub fn stream_trace_from(
    trace: &Trace,
    depth: usize,
    cursor: StreamCursor,
) -> (StreamingSource, StreamPump) {
    let skip = trace.packets().partition_point(|p| p.arrival < cursor.slot);
    assert!(
        skip as u64 == cursor.consumed,
        "stream cursor does not match this trace: {skip} packets arrive before slot {} \
         but the checkpoint consumed {}",
        cursor.slot,
        cursor.consumed
    );
    let tail: Vec<Packet> = trace.packets()[skip..].to_vec();
    let (tx, src) = channel_at(depth, cursor);
    let pump = spawn_producer(tx, move |tx| send_by_slot(&tx, tail));
    (src, pump)
}

/// The producer body of both adapters: group `packets` (in arrival order)
/// into one batch per slot and push each through `tx`, until the packets
/// run out or the consumer hangs up.
fn send_by_slot(tx: &StreamSender, packets: impl IntoIterator<Item = Packet>) {
    let mut packets = packets.into_iter().peekable();
    let mut batch: Vec<Packet> = Vec::new();
    while let Some(first) = packets.next() {
        let slot = first.arrival;
        batch.push(first);
        while let Some(p) = packets.next_if(|p| p.arrival == slot) {
            batch.push(p);
        }
        if tx.send_reusing(slot, &mut batch).is_err() {
            return;
        }
    }
}

/// Stream a `cioq-trace v1` replay file without materialising it: the
/// producer thread reads, parses and pushes one slot batch at a time.
/// Returns an error if the header is malformed; a malformed body panics
/// the producer (re-raised at [`StreamPump::join`]) after closing the
/// stream, so the consumer still drains instead of deadlocking.
pub fn stream_reader<R>(
    reader: R,
    depth: usize,
) -> Result<(StreamingSource, StreamPump), crate::trace::TraceError>
where
    R: BufRead + Send + 'static,
{
    stream_reader_from(reader, depth, StreamCursor::start())
}

/// Stream a replay file from `cursor` onward. The prefix before
/// `cursor.slot` is parsed and discarded; the producer panics if its
/// packet count disagrees with `cursor.consumed`.
pub fn stream_reader_from<R>(
    reader: R,
    depth: usize,
    cursor: StreamCursor,
) -> Result<(StreamingSource, StreamPump), crate::trace::TraceError>
where
    R: BufRead + Send + 'static,
{
    let mut rd = TraceReader::new(reader)?;
    let (tx, src) = channel_at(depth, cursor);
    let pump = spawn_producer(tx, move |tx| {
        let mut next = || {
            rd.next_packet()
                .unwrap_or_else(|e| panic!("replay stream: {e}"))
        };
        let mut skipped: u64 = 0;
        let first = loop {
            match next() {
                Some(p) if p.arrival < cursor.slot => skipped += 1,
                other => break other,
            }
        };
        assert!(
            skipped == cursor.consumed,
            "stream cursor does not match this replay file: {skipped} packets arrive \
             before slot {} but the checkpoint consumed {}",
            cursor.slot,
            cursor.consumed
        );
        send_by_slot(&tx, first.into_iter().chain(std::iter::from_fn(next)));
    });
    Ok((src, pump))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cioq_model::{PacketId, PortId};

    fn pkt(id: u64, slot: SlotId) -> Packet {
        Packet::new(PacketId(id), 1, slot, PortId(0), PortId(0))
    }

    #[test]
    fn batches_cross_in_order_and_close_ends_window() {
        let (tx, mut rx) = channel(4);
        tx.send(0, vec![pkt(0, 0), pkt(1, 0)]).unwrap();
        tx.send(2, vec![pkt(2, 2)]).unwrap();
        drop(tx);

        let mut out = Vec::new();
        assert!(rx.in_arrival_window(0));
        rx.pull(0, &mut out);
        assert_eq!(out.len(), 2);
        out.clear();
        rx.pull(1, &mut out);
        assert!(out.is_empty(), "slot 1 was skipped by the producer");
        rx.pull(2, &mut out);
        assert_eq!(out.len(), 1);
        assert!(!rx.in_arrival_window(3), "closed and drained");
        assert_eq!(
            rx.cursor(),
            StreamCursor {
                slot: 3,
                consumed: 3
            }
        );
    }

    #[test]
    fn backpressure_blocks_producer_and_counts_one_stall() {
        let (tx, mut rx) = channel(1);
        tx.send(0, vec![pkt(0, 0)]).unwrap();
        let pump = spawn_producer(tx, |tx| {
            // Buffer is full: this send must stall until the consumer
            // pulls slot 0.
            tx.send(1, vec![pkt(1, 1)]).unwrap();
        });
        rx.wait_backpressure();
        assert_eq!(rx.stalls(), 1);
        let mut out = Vec::new();
        rx.pull(0, &mut out);
        rx.pull(1, &mut out);
        assert_eq!(out.len(), 2);
        pump.join();
        assert_eq!(rx.stalls(), 1, "a blocking send stalls once, not per retry");
    }

    #[test]
    fn send_reusing_recycles_drained_buffers() {
        let (tx, mut rx) = channel(2);
        let mut batch = Vec::with_capacity(64);
        batch.push(pkt(0, 0));
        tx.send_reusing(0, &mut batch).unwrap();
        assert!(batch.is_empty(), "contents moved into the channel");
        let mut out = Vec::new();
        rx.pull(0, &mut out);
        assert_eq!(out.len(), 1);
        // The drained 64-capacity buffer stays with the consumer until its
        // next refill, which pulling slot 1 forces: the ring is empty for
        // this send.
        batch.push(pkt(1, 1));
        tx.send_reusing(1, &mut batch).unwrap();
        rx.pull(1, &mut out);
        assert_eq!(out.len(), 2);
        // That refill handed the buffer back: the next reusing send must
        // swap it out instead of allocating.
        batch.push(pkt(2, 2));
        tx.send_reusing(2, &mut batch).unwrap();
        assert!(
            batch.capacity() >= 64,
            "producer got the consumer's drained buffer back (capacity {})",
            batch.capacity()
        );
        rx.pull(2, &mut out);
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn consumer_drains_the_whole_channel_in_one_refill() {
        let (tx, mut rx) = channel(4);
        for slot in 0..4 {
            tx.send(slot, vec![pkt(slot, slot)]).unwrap();
        }
        let mut out = Vec::new();
        rx.pull(0, &mut out);
        // Checked before sending again: on one thread, a send that
        // stalled would block forever.
        assert!(
            rx.chan.lock().batches.is_empty(),
            "pulling slot 0 took every buffered batch"
        );
        for slot in 4..8 {
            tx.send(slot, vec![pkt(slot, slot)]).unwrap();
        }
        assert_eq!(tx.stalls(), 0, "four sends fit in the emptied channel");
        for slot in 1..8 {
            rx.pull(slot, &mut out);
        }
        let ids: Vec<u64> = out.iter().map(|p| p.id.0).collect();
        assert_eq!(ids, (0..8).collect::<Vec<u64>>(), "slots 0–7 in order");
    }

    #[test]
    fn recycle_ring_stays_bounded_under_plain_send() {
        // `send` never takes from the ring, so the consumer must cap it
        // rather than let every drained batch pile up.
        let (tx, mut rx) = channel(1);
        let mut out = Vec::new();
        for slot in 0..16 {
            tx.send(slot, vec![pkt(slot, slot)]).unwrap();
            out.clear();
            rx.pull(slot, &mut out);
            assert_eq!(out.len(), 1);
        }
        assert!(
            rx.chan.lock().recycled.len() <= 2,
            "ring must stay within 2·depth buffers"
        );
    }

    #[test]
    fn dropped_consumer_errors_the_producer() {
        let (tx, rx) = channel(1);
        tx.send(0, vec![pkt(0, 0)]).unwrap();
        drop(rx);
        assert_eq!(tx.send(1, vec![pkt(1, 1)]), Err(StreamClosed));
    }

    /// Yield until `reached` holds of the channel state. A non-zero
    /// parked count read here means the waiter is queued on its condvar:
    /// it registers and starts waiting in one step under this lock.
    fn until(chan: &Channel, reached: impl Fn(&ChannelState) -> bool) {
        while !reached(&chan.lock()) {
            std::thread::yield_now();
        }
    }

    #[test]
    fn parked_consumer_is_woken_by_a_send_and_by_the_close() {
        let (tx, mut rx) = channel(1);
        let consumer = std::thread::spawn(move || {
            let mut out = Vec::new();
            rx.pull(0, &mut out);
            (out.len(), rx.in_arrival_window(1))
        });
        until(&tx.chan, |st| st.data_parked == 1);
        tx.send(0, vec![pkt(0, 0)]).unwrap();
        // Slot 0 is consumed and the consumer sleeps again, in the window
        // check: only the close can end that wait.
        until(&tx.chan, |st| st.batches.is_empty() && st.data_parked == 1);
        drop(tx);
        assert_eq!(consumer.join().unwrap(), (1, false));
    }

    #[test]
    fn parked_producer_is_woken_by_a_pull_and_by_the_hangup() {
        let (tx, mut rx) = channel(1);
        let chan = rx.chan.clone();
        tx.send(0, vec![pkt(0, 0)]).unwrap();
        let producer = std::thread::spawn(move || {
            tx.send(1, vec![pkt(1, 1)]).unwrap();
            (tx.send(2, vec![pkt(2, 2)]), tx.stalls())
        });
        until(&chan, |st| st.space_parked == 1);
        let mut out = Vec::new();
        rx.pull(0, &mut out);
        assert_eq!(out.len(), 1);
        // Slot 1 is buffered and the producer sleeps again on slot 2:
        // only the hang-up can end that wait.
        until(&chan, |st| st.next_push == 2 && st.space_parked == 1);
        drop(rx);
        assert_eq!(producer.join().unwrap(), (Err(StreamClosed), 2));
        assert_eq!(chan.lock().space_parked, 0);
    }

    #[test]
    #[should_panic(expected = "consumed out of order")]
    fn pull_rejects_slot_gaps() {
        let (_tx, mut rx) = channel(1);
        rx.pull(3, &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "pushed slot")]
    fn send_rejects_backwards_slots() {
        let (tx, _rx) = channel(4);
        tx.send(5, vec![]).unwrap();
        let _ = tx.send(4, vec![]);
    }

    #[test]
    #[should_panic(expected = "was pushed in slot")]
    fn send_rejects_mislabelled_packets() {
        let (tx, _rx) = channel(4);
        let _ = tx.send(1, vec![pkt(0, 0)]);
    }

    #[test]
    fn trace_pump_reproduces_the_trace() {
        let trace = Trace::from_tuples([
            (0, PortId(0), PortId(1), 5),
            (0, PortId(1), PortId(0), 3),
            (3, PortId(0), PortId(0), 4),
        ]);
        let (mut rx, pump) = stream_trace(&trace, 1);
        let mut got = Vec::new();
        for slot in 0..4 {
            rx.pull(slot, &mut got);
        }
        pump.join();
        assert_eq!(got, trace.packets());
    }

    #[test]
    fn trace_pump_resumes_mid_stream() {
        let trace = Trace::from_tuples([
            (0, PortId(0), PortId(1), 5),
            (1, PortId(1), PortId(0), 3),
            (3, PortId(0), PortId(0), 4),
        ]);
        let cursor = StreamCursor {
            slot: 2,
            consumed: 2,
        };
        let (mut rx, pump) = stream_trace_from(&trace, 2, cursor);
        let mut got = Vec::new();
        rx.pull(2, &mut got);
        assert!(got.is_empty());
        rx.pull(3, &mut got);
        pump.join();
        assert_eq!(got, &trace.packets()[2..]);
        assert_eq!(rx.consumed(), 3);
    }

    #[test]
    #[should_panic(expected = "does not match this trace")]
    fn trace_pump_rejects_a_wrong_cursor() {
        let trace = Trace::from_tuples([(0, PortId(0), PortId(0), 1)]);
        stream_trace_from(
            &trace,
            1,
            StreamCursor {
                slot: 1,
                consumed: 7,
            },
        );
    }

    #[test]
    fn reader_pump_streams_a_replay_file() {
        let trace = Trace::from_tuples([
            (0, PortId(0), PortId(1), 5),
            (2, PortId(1), PortId(0), 3),
            (2, PortId(0), PortId(0), 4),
        ]);
        let mut file = Vec::new();
        trace.write_to(&mut file).unwrap();
        let (mut rx, pump) = stream_reader(std::io::Cursor::new(file), 1).unwrap();
        let mut got = Vec::new();
        for slot in 0..3 {
            rx.pull(slot, &mut got);
        }
        pump.join();
        assert_eq!(got, trace.packets());
    }

    #[test]
    fn reader_pump_resumes_mid_file() {
        let trace = Trace::from_tuples([
            (0, PortId(0), PortId(1), 5),
            (1, PortId(1), PortId(0), 3),
            (4, PortId(0), PortId(0), 4),
        ]);
        let mut file = Vec::new();
        trace.write_to(&mut file).unwrap();
        let cursor = StreamCursor {
            slot: 3,
            consumed: 2,
        };
        let (mut rx, pump) = stream_reader_from(std::io::Cursor::new(file), 2, cursor).unwrap();
        let mut got = Vec::new();
        rx.pull(3, &mut got);
        rx.pull(4, &mut got);
        pump.join();
        assert_eq!(got, &trace.packets()[2..]);
    }

    #[test]
    fn reader_pump_rejects_a_bad_header() {
        assert!(stream_reader(std::io::Cursor::new(b"garbage\n".to_vec()), 1).is_err());
    }
}
