//! Fabric transport: the model of the physical path between a scheduler's
//! dispatch decision and the packet's arrival in its output queue.
//!
//! The paper's model assumes transfers land in the same cycle they are
//! scheduled — true inside one chassis, false across a multi-rack fabric,
//! where a transfer dispatched in slot `t` lands later (the
//! distributed-scheduling regime of Ye–Shen–Panwar), and *how much* later
//! depends on which racks the two ports live in. [`FabricSpec`] is the one
//! description of that path, and its contract is **per pair**:
//! `delay(src, dst)` is the latency, in slots, from input port `src` to
//! output port `dst`. It has exactly two cases:
//!
//! * [`FabricSpec::uniform`]`(d)` — one latency `d` for every pair; the
//!   default, `uniform(0)`, is the paper's immediate fabric.
//! * [`FabricSpec::matrix`]`(topology)` — a [`Topology`]: ports grouped
//!   into racks with a per-(rack, rack) latency matrix (`two_tier`,
//!   explicit, …).
//!
//! The engine carries a spec in the `fabric` field of its options, with
//! these semantics:
//!
//! * **Dispatch** (scheduling cycle): the packet is popped from its source
//!   queue and committed to the wire. A pair at latency 0 delivers within
//!   the cycle (the immediate path); a pair at `d ≥ 1` enters the engine's one
//!   `DelayCalendar` of slot-buckets, is counted *in flight* toward its
//!   output, and lands `d` slots later.
//! * **Eligibility**: schedulers see the *virtual* occupancy of every
//!   output — landed packets plus packets in flight — so non-preempting
//!   policies never overrun a buffer they cannot observe, and preemption
//!   thresholds compare against the least value of the virtual queue. The
//!   engine hands it over as one [`OutputSnapshot`], filled by one function
//!   at the top of every scheduling cycle from the output queues and
//!   everything riding the delay line or held by a link-down pair of the
//!   fault layer.
//! * **Landing** (start of slot `t`, before arrivals): every transfer due
//!   at `t` is delivered in the **canonical landing order**, sorted by
//!   `(landing slot, dispatch slot, dispatch cycle, output, input)`. With
//!   heterogeneous delays, transfers dispatched in *different* slots can
//!   land together; the canonical order makes the landing phase
//!   well-defined and identical across runs and shard partitions. Per
//!   output queue it reduces to dispatch order (at most one transfer
//!   enters an output per cycle), so a constant matrix reproduces the
//!   uniform delay line bit for bit. A landing into a full queue preempts
//!   `l_j` iff the original transfer allowed it; transfer statistics count
//!   at landing.
//! * **Transmission** only ever sends landed packets.
//!
//! `uniform(0)` and an all-zero matrix are the same fabric: a zero-latency
//! pair lands within its cycle either way, so the bit-identity is
//! structural; the `d = 0` regression suite in `cioq-core` guards it.

use crate::fault::FaultRuntime;
use crate::policy::PolicyError;
use crate::state::QueueBand;
use cioq_model::{Packet, PortId, SlotId, SwitchConfig, Topology, Value};
use cioq_queues::QueueRef;
use std::sync::Arc;

/// Description of a fabric transport: either one uniform latency or a
/// shared [`Topology`]. This is what run options carry and what the
/// per-transfer hot path reads (two rack lookups plus one matrix index in
/// the matrix case).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FabricSpec(SpecRepr);

#[derive(Debug, Clone, PartialEq, Eq)]
enum SpecRepr {
    Uniform(SlotId),
    Matrix(Arc<Topology>),
}

impl Default for FabricSpec {
    fn default() -> Self {
        FabricSpec::uniform(0)
    }
}

impl FabricSpec {
    /// Every pair at latency `d` (0 = the paper's immediate fabric).
    pub fn uniform(d: SlotId) -> Self {
        FabricSpec(SpecRepr::Uniform(d))
    }

    /// Per-pair latencies from a topology.
    pub fn matrix(topology: Topology) -> Self {
        FabricSpec(SpecRepr::Matrix(Arc::new(topology)))
    }

    /// Latency of the pair (input `src` → output `dst`), in slots.
    #[inline]
    pub fn delay(&self, src: PortId, dst: PortId) -> SlotId {
        match &self.0 {
            SpecRepr::Uniform(d) => *d,
            SpecRepr::Matrix(t) => t.delay(src, dst),
        }
    }

    /// Largest per-pair latency (engines size their calendars by this).
    #[inline]
    pub fn max_delay(&self) -> SlotId {
        match &self.0 {
            SpecRepr::Uniform(d) => *d,
            SpecRepr::Matrix(t) => t.max_delay(),
        }
    }

    /// The topology, when this spec is matrix-backed.
    #[inline]
    pub fn topology(&self) -> Option<&Topology> {
        match &self.0 {
            SpecRepr::Uniform(_) => None,
            SpecRepr::Matrix(t) => Some(t),
        }
    }

    /// Short human-readable label for reports and tables.
    pub fn label(&self) -> String {
        match &self.0 {
            SpecRepr::Uniform(0) => "immediate".to_string(),
            SpecRepr::Uniform(d) => format!("delay-line(d={d})"),
            SpecRepr::Matrix(t) => t.label(),
        }
    }

    /// Panic unless a matrix-backed spec covers exactly the switch's ports
    /// — running a topology sized for a different switch is a programming
    /// error, caught loudly at run start.
    pub(crate) fn assert_covers(&self, cfg: &SwitchConfig) {
        if let Some(t) = self.topology() {
            assert!(
                t.n_inputs() == cfg.n_inputs && t.n_outputs() == cfg.n_outputs,
                "topology covers {}x{} ports but the switch is {}x{}",
                t.n_inputs(),
                t.n_outputs(),
                cfg.n_inputs,
                cfg.n_outputs,
            );
        }
    }
}

/// A packet committed to the wire: everything the landing phase needs to
/// finish the transfer exactly as an immediate fabric would have.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct InFlightPacket {
    /// Global input port the transfer was popped from.
    pub input: u16,
    /// Global output port the packet lands at.
    pub output: u16,
    /// Whether the original transfer allowed preempting a full `Q_j`.
    pub preempt: bool,
    /// The packet itself.
    pub packet: Packet,
}

impl InFlightPacket {
    /// The packet a transfer `input → output` puts on the wire.
    #[inline]
    pub(crate) fn new(input: PortId, output: PortId, preempt: bool, packet: Packet) -> Self {
        InFlightPacket {
            input: input.0,
            output: output.0,
            preempt,
            packet,
        }
    }
}

/// A committed packet riding the delay line, tagged with its dispatch
/// time for the canonical landing sort.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Landing {
    /// Slot the transfer was dispatched in.
    pub slot: SlotId,
    /// Scheduling cycle (within the dispatch slot) of the transfer.
    pub cycle: u32,
    /// The committed packet.
    pub p: InFlightPacket,
}

impl Landing {
    /// The canonical landing order `(dispatch slot, dispatch cycle,
    /// output, input)` (see module docs). Unique among landings due in one
    /// slot: at most one transfer enters an output per cycle.
    #[inline]
    pub(crate) fn key(&self) -> (SlotId, u32, u16, u16) {
        (self.slot, self.cycle, self.p.output, self.p.input)
    }
}

/// The delay line: a calendar of `horizon + 1` slot-buckets, where
/// `horizon` is the largest latency it carries, shared by every pair of
/// the switch — one per engine. A dispatch in slot
/// `t` on a pair at latency `d` (`0 ≤ d ≤ horizon`) pushes into bucket
/// `(t + d) mod (horizon + 1)`, and [`land`] drains bucket
/// `t mod (horizon + 1)` at the top of slot `t`. Every packet found in a
/// bucket is due exactly now, for any mix of pair latencies: the slot a
/// bucket next drains at is the only landing slot a later dispatch could
/// have mapped onto it — even a dispatch made in slot `t` before `t`'s
/// drain, as the engine's fault releases are. (With `horizon`
/// buckets such a dispatch at `d = horizon` would map onto the bucket
/// about to drain and land `horizon` slots early.) A `d = 0` dispatch
/// lands only if it precedes its slot's drain; the engine makes none,
/// since it delivers latency-0 transfers at once.
#[derive(Debug, Clone)]
pub(crate) struct DelayCalendar {
    /// Committed packets by landing bucket. snapshot: serialized — as
    /// landings with explicit landing slots, via `for_each_pending_at`;
    /// the bucket count is recomputed from the fabric spec (and fault
    /// plan) at restore.
    buckets: Vec<Vec<Landing>>,
}

impl DelayCalendar {
    /// A calendar for pairs of latency at most `horizon`, every bucket
    /// pre-reserved for `per_bucket` landings — the engine passes its
    /// per-slot dispatch bound so the steady-state loop never grows a
    /// bucket.
    pub(crate) fn with_reserve(horizon: SlotId, per_bucket: usize) -> Self {
        DelayCalendar {
            buckets: (0..=horizon)
                .map(|_| Vec::with_capacity(per_bucket))
                .collect(),
        }
    }

    /// The bucket that lands at the start of `slot`.
    #[inline]
    fn bucket(&mut self, slot: SlotId) -> &mut Vec<Landing> {
        let len = self.buckets.len() as SlotId;
        &mut self.buckets[(slot % len) as usize]
    }

    /// Commit a packet dispatched in cycle `cycle` of `slot` on a pair at
    /// latency `d` to land at the start of slot `slot + d` (`d = 0`: at
    /// `slot`'s drain, which must not have run yet). Debug builds check
    /// that the push stays within the
    /// bucket's reservation: a bucket that grew was reserved below its
    /// bound.
    #[inline]
    // detlint: hot
    pub(crate) fn dispatch(&mut self, slot: SlotId, cycle: u32, d: SlotId, p: InFlightPacket) {
        debug_assert!(d < self.buckets.len() as SlotId, "pair delay out of range");
        let bucket = self.bucket(slot + d);
        debug_assert!(
            bucket.len() < bucket.capacity(),
            "delay-line bucket landing at slot {} outgrew its reservation of {}",
            slot + d,
            bucket.capacity()
        );
        bucket.push(Landing { slot, cycle, p });
    }

    /// Visit every packet currently committed to the wire (all buckets),
    /// in O(in flight) — [`for_each_in_flight`]'s walk of the delay line.
    fn for_each_pending(&self, mut f: impl FnMut(&InFlightPacket)) {
        for bucket in &self.buckets {
            for l in bucket {
                f(&l.p);
            }
        }
    }

    /// Visit every committed packet together with the slot it will land
    /// at, given that the current slot is `now` and `now`'s bucket has not
    /// been drained yet (the checkpoint boundary). A bucket `b` at time
    /// `now` next drains at `now + ((b − now) mod (horizon + 1))`.
    pub(crate) fn for_each_pending_at(&self, now: SlotId, mut f: impl FnMut(SlotId, &Landing)) {
        let len = self.buckets.len() as SlotId;
        for (b, bucket) in self.buckets.iter().enumerate() {
            let offset = (b as SlotId + len - now % len) % len;
            for l in bucket {
                f(now + offset, l);
            }
        }
    }

    /// Re-commit a landing recovered from a checkpoint, due at
    /// `land_slot`. The caller guarantees
    /// `now ≤ land_slot ≤ now + horizon` (checked by snapshot restore), so
    /// the modular bucket index is unambiguous.
    pub(crate) fn insert_pending(&mut self, land_slot: SlotId, l: Landing) {
        self.bucket(land_slot).push(l);
    }
}

/// The landing phase: gather the bucket `calendar` lands
/// at `slot` into the pooled `gather`, sort it into the canonical landing
/// order
/// `(dispatch slot, dispatch cycle, output, input)` — per output queue that
/// is dispatch order, which is what the uniform delay line delivered — and
/// hand each packet to `deliver`, stopping at its first error. The order
/// mentions only global ports and dispatch times, never shard or rack
/// boundaries, so it is partition-independent.
// detlint: hot
pub(crate) fn land(
    slot: SlotId,
    calendar: &mut DelayCalendar,
    gather: &mut Vec<Landing>,
    mut deliver: impl FnMut(InFlightPacket) -> Result<(), PolicyError>,
) -> Result<(), PolicyError> {
    gather.clear();
    gather.append(calendar.bucket(slot));
    gather.sort_unstable_by_key(Landing::key);
    if cfg!(debug_assertions) {
        // Strictness is the content of the check (the sort above already
        // guarantees order): a duplicate key means two transfers entered
        // one output in one cycle, which no schedule may emit.
        if let Err(msg) = crate::invariants::check_canonical_order(gather, Landing::key) {
            panic!("landing-order invariant violated: {msg}");
        }
    }
    gather.iter().try_for_each(|l| deliver(l.p))
}

/// Visit, as `(output, value)`, every packet between its source queue and
/// its output queue: everything committed to `calendar`, then — only when
/// the fault layer holds any, since its FIFOs span every pair — the packets
/// `faults` holds on link-down pairs. The one walk behind the engine's
/// residual, drain cutoff and [`OutputSnapshot`]; ports are the pair's,
/// which restore has range-checked.
pub(crate) fn for_each_in_flight(
    calendar: &DelayCalendar,
    faults: Option<&FaultRuntime>,
    mut f: impl FnMut(usize, Value),
) {
    calendar.for_each_pending(|p| f(p.output as usize, p.packet.value));
    if let Some(faults) = faults.filter(|rt| rt.total_held() > 0) {
        faults.for_each_held(|_, j, _, p| f(j as usize, p.value));
    }
}

/// The output side as every policy reads it: the *virtual* queue at each
/// output — what has landed in `Q_j` plus what is in flight toward it. On
/// an immediate fabric this degenerates to `|Q_j| = B(Q_j)` / `v(l_j)`.
/// The engine holds one in its `SwitchState` and refreshes it at the top
/// of every scheduling cycle through `OutputSnapshot::refresh`, the only
/// writer of its fields; policies read it through
/// [`SwitchView::outputs`](crate::SwitchView::outputs), a partitioned
/// scheduler's proposals and merge included.
#[derive(Debug, Clone, Default)]
pub struct OutputSnapshot {
    /// Least virtual-queue value where full, 0 otherwise.
    pub tail: Vec<Value>,
    /// Whether the virtual queue at `j` is full, as a packed bitmap
    /// (`full_words[j/64]` bit `j%64`; read one output with
    /// [`OutputSnapshot::is_full`]): its complement is the free-column mask
    /// GM's lexicographic greedy starts from, in the whole-switch policy
    /// and the partitioned first shard alike.
    pub full_words: Vec<u64>,
    /// Packets in flight toward each output (all zero when immediate).
    pub in_flight: Vec<u32>,
    /// Least value in flight toward each output; meaningful only where
    /// `in_flight[j] > 0`.
    pub in_flight_min: Vec<Value>,
}

impl OutputSnapshot {
    /// Whether the virtual queue at output `j` is full.
    #[inline]
    pub fn is_full(&self, j: usize) -> bool {
        (self.full_words[j / 64] >> (j % 64)) & 1 == 1
    }

    /// Least value of the virtual queue at output `j` whose landed part is
    /// `landed` — the landed tail or the least value in flight, whichever
    /// is smaller; `None` when both are empty.
    pub(crate) fn tail_value(&self, j: usize, landed: QueueRef<'_>) -> Option<Value> {
        let flying = (self.in_flight[j] > 0).then_some(self.in_flight_min[j]);
        match (landed.tail_value(), flying) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Recompute the snapshot of the switch whose queues are `band`: count
    /// what is in flight on `calendar` and held by `faults` (see
    /// [`for_each_in_flight`]), then visit the output queues and mark the
    /// outputs whose virtual queue is full. Sized here too, so a switch
    /// refreshed at construction answers for every output before its first
    /// cycle.
    // detlint: hot
    pub(crate) fn refresh(
        &mut self,
        band: &QueueBand,
        calendar: &DelayCalendar,
        faults: Option<&FaultRuntime>,
    ) {
        let m = band.n_outputs();
        self.tail.clear();
        self.tail.resize(m, 0);
        self.full_words.clear();
        self.full_words.resize(m.div_ceil(64), 0);
        self.in_flight.clear();
        self.in_flight.resize(m, 0);
        self.in_flight_min.clear();
        self.in_flight_min.resize(m, Value::MAX);
        for_each_in_flight(calendar, faults, |j, v| {
            self.in_flight[j] += 1;
            self.in_flight_min[j] = self.in_flight_min[j].min(v);
        });
        for j in 0..m {
            let q = band.output(PortId::from(j));
            if q.len() + self.in_flight[j] as usize >= q.capacity() {
                self.full_words[j / 64] |= 1 << (j % 64);
                self.tail[j] = self.tail_value(j, q).unwrap_or(Value::MAX);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cioq_model::PacketId;

    fn pkt(v: Value) -> Packet {
        Packet::new(PacketId(0), v, 0, PortId(0), PortId(0))
    }

    fn mk(input: u16, output: u16, v: Value) -> InFlightPacket {
        InFlightPacket {
            input,
            output,
            preempt: false,
            packet: pkt(v),
        }
    }

    #[test]
    fn labels_follow_delay() {
        assert_eq!(FabricSpec::default().label(), "immediate");
        assert_eq!(FabricSpec::uniform(0).label(), "immediate");
        assert_eq!(FabricSpec::uniform(4).label(), "delay-line(d=4)");
        let topo = Topology::two_tier(4, 4, 2, 1, 3).unwrap();
        assert!(FabricSpec::matrix(topo).label().contains("2 racks"));
        assert_eq!(
            FabricSpec::matrix(Topology::uniform(4, 4, 0)).label(),
            "immediate"
        );
    }

    #[test]
    fn specs_resolve_per_pair() {
        let topo = Topology::two_tier(4, 4, 2, 0, 3).unwrap();
        let spec = FabricSpec::matrix(topo);
        assert_eq!(spec.delay(PortId(0), PortId(1)), 0, "intra-rack");
        assert_eq!(spec.delay(PortId(0), PortId(3)), 3, "cross-rack");
        assert_eq!(spec.max_delay(), 3);
        let uniform = FabricSpec::uniform(2);
        assert_eq!(uniform.delay(PortId(3), PortId(0)), 2);
    }

    /// The values [`land`] delivers out of `cal` at `slot`, in order.
    fn land_at(cal: &mut DelayCalendar, slot: SlotId) -> Vec<Value> {
        let mut landed = Vec::new();
        let mut deliver = |p: InFlightPacket| {
            landed.push(p.packet.value);
            Ok(())
        };
        land(slot, cal, &mut Vec::new(), &mut deliver).unwrap();
        landed
    }

    #[test]
    fn calendar_lands_exactly_d_slots_later() {
        let mut cal = DelayCalendar::with_reserve(3, 2);
        cal.dispatch(5, 0, 3, mk(0, 0, 10));
        cal.dispatch(5, 1, 3, mk(0, 0, 11));
        cal.dispatch(6, 0, 3, mk(0, 0, 12));
        // Slot 7: nothing due (dispatched at 5 → lands 8; at 6 → lands 9).
        assert!(land_at(&mut cal, 7).is_empty());
        assert_eq!(
            land_at(&mut cal, 8),
            [10, 11],
            "slot-5 dispatches land at slot 8, in dispatch (cycle) order"
        );
        assert_eq!(land_at(&mut cal, 9), [12], "slot-6 dispatch lands at 9");
    }

    #[test]
    fn heterogeneous_delays_share_one_calendar() {
        // Pair latencies 1 and 3 under one horizon-3 calendar: a slot-2
        // dispatch at d=3 and a slot-4 dispatch at d=1 both land at 5, and
        // the canonical order puts the older dispatch first.
        let mut cal = DelayCalendar::with_reserve(3, 2);
        cal.dispatch(4, 0, 1, mk(3, 0, 10));
        cal.dispatch(2, 0, 3, mk(7, 1, 30));
        assert_eq!(land_at(&mut cal, 5), [30, 10], "earlier dispatch first");
    }

    /// Latencies 0 and `D` dispatched in one slot `t`, before its drain,
    /// share no bucket: the drain of `t` takes only the latency-0 packet,
    /// and the other lands `D` slots later — not `D` slots early.
    #[test]
    fn latency_zero_and_the_horizon_land_apart() {
        const D: SlotId = 4;
        let mut cal = DelayCalendar::with_reserve(D, 2);
        let t = 9;
        cal.dispatch(t, 0, 0, mk(0, 0, 10));
        cal.dispatch(t, 0, D, mk(1, 1, 20));
        assert_eq!(land_at(&mut cal, t), [10]);
        for slot in t + 1..t + D {
            assert!(land_at(&mut cal, slot).is_empty(), "slot {slot}");
        }
        assert_eq!(land_at(&mut cal, t + D), [20]);
    }

    #[test]
    fn landing_stops_at_the_first_error() {
        let mut cal = DelayCalendar::with_reserve(1, 2);
        cal.dispatch(0, 0, 1, mk(0, 0, 10));
        cal.dispatch(0, 0, 1, mk(0, 1, 20));
        let mut delivered = 0;
        let result = land(1, &mut cal, &mut Vec::new(), |p| {
            delivered += 1;
            Err(PolicyError::DuplicateOutput {
                output: PortId(p.output),
            })
        });
        assert_eq!(
            result,
            Err(PolicyError::DuplicateOutput { output: PortId(0) })
        );
        assert_eq!(delivered, 1);
    }
}
