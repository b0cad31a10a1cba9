//! Deterministic fault injection for the fabric transport.
//!
//! Real fabrics degrade: links see transient latency spikes, go down for
//! windows and come back, and finite crosspoint/output buffers overflow
//! (the sizing tradeoffs of Cao–Panwar and the local-recovery regime of
//! Ye–Shen–Panwar). The paper's model — and this workspace until PR 7 —
//! assumed none of that. A [`FaultPlan`] is a *deterministic, seedable*
//! schedule of such degradations layered onto the sequential engine's
//! transport:
//!
//! * **Latency spike** — while active, every matching pair's delay grows
//!   by `extra` slots. A spiked zero-delay pair rides the calendar like a
//!   delayed one.
//! * **Link down** — while active, dispatches on matching pairs are *held*
//!   in a bounded per-pair retransmit queue instead of entering the wire;
//!   beyond the bound they are **dropped** (counted in
//!   [`LossBreakdown::dropped`](crate::LossBreakdown)). When the window
//!   closes, held packets are re-dispatched in deterministic order and
//!   counted as retransmitted.
//!
//! Because a plan is pure data evaluated against `(slot, input, output)`,
//! a faulted run is exactly as replayable as a clean one: the same plan,
//! trace and policy produce bit-identical outcomes, checkpoints included —
//! the fault-injection suite proves kill/restore equivalence *under*
//! fault plans. While a packet is held it is absent from the delay
//! calendar but still in flight: the engine's residual, drain cutoff and
//! output snapshot walk the retransmit FIFOs beside the calendar (whenever
//! any packet is held), so a held packet fills its output's virtual queue
//! exactly as one on the wire does.
//!
//! Conservation holds throughout:
//! `arrived == transmitted + lost (incl. dropped) + residual`.

use cioq_model::{Packet, SlotId};

/// Which (input, output) pairs a fault event applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultScope {
    /// Every pair in the fabric.
    All,
    /// Every pair dispatching from one input port.
    Input(u16),
    /// Every pair landing at one output port.
    Output(u16),
    /// Exactly one (input, output) pair.
    Pair(u16, u16),
}

impl FaultScope {
    /// Whether the scope covers the pair (input `i` → output `j`).
    #[inline]
    pub fn matches(&self, i: u16, j: u16) -> bool {
        match *self {
            FaultScope::All => true,
            FaultScope::Input(fi) => fi == i,
            FaultScope::Output(fj) => fj == j,
            FaultScope::Pair(fi, fj) => fi == i && fj == j,
        }
    }
}

/// What a fault event does while active.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Matching pairs see `extra ≥ 1` additional slots of fabric latency.
    LatencySpike {
        /// Additional latency in slots.
        extra: SlotId,
    },
    /// Matching pairs cannot dispatch; up to `retransmit_cap` packets per
    /// pair are held for re-dispatch when the window closes, the rest are
    /// dropped.
    LinkDown {
        /// Bound on each pair's retransmit queue (0 = drop everything).
        retransmit_cap: usize,
    },
}

/// One scheduled degradation: `kind` applied to `scope` over the
/// half-open slot window `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// First slot the fault is active.
    pub start: SlotId,
    /// First slot after the fault (exclusive; must be finite for drain
    /// runs to terminate).
    pub end: SlotId,
    /// Which pairs are affected.
    pub scope: FaultScope,
    /// What happens to them.
    pub kind: FaultKind,
}

impl FaultEvent {
    /// Whether the event is active at `slot`.
    #[inline]
    pub fn active(&self, slot: SlotId) -> bool {
        self.start <= slot && slot < self.end
    }
}

/// A deterministic schedule of fault events — pure data, evaluated per
/// `(slot, input, output)`. Same plan + same trace + same policy ⇒
/// bit-identical run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

/// SplitMix64: the tiny, dependency-free generator behind
/// [`FaultPlan::seeded`]. Deterministic across platforms.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, bound)` (`bound ≥ 1`); modulo bias is
    /// irrelevant for fault scheduling.
    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }
}

impl FaultPlan {
    /// A plan from explicit events (kept in the given order; overlapping
    /// events compose — spikes add, the tightest link-down cap wins).
    pub fn new(events: Vec<FaultEvent>) -> Self {
        FaultPlan { events }
    }

    /// A deterministic pseudo-random plan: `count` events over a switch of
    /// `n_inputs × n_outputs` ports and a horizon of `slots` slots. The
    /// same seed always yields the same plan (hand-rolled SplitMix64; no
    /// RNG dependency, no global state).
    pub fn seeded(
        seed: u64,
        n_inputs: usize,
        n_outputs: usize,
        slots: SlotId,
        count: usize,
    ) -> Self {
        let mut rng = SplitMix64(seed);
        let events = (0..count)
            .map(|_| {
                let start = rng.below(slots.max(1));
                let len = 1 + rng.below(6);
                let scope = match rng.below(4) {
                    0 => FaultScope::All,
                    1 => FaultScope::Input(rng.below(n_inputs as u64) as u16),
                    2 => FaultScope::Output(rng.below(n_outputs as u64) as u16),
                    _ => FaultScope::Pair(
                        rng.below(n_inputs as u64) as u16,
                        rng.below(n_outputs as u64) as u16,
                    ),
                };
                let kind = if rng.below(2) == 0 {
                    FaultKind::LatencySpike {
                        extra: 1 + rng.below(3),
                    }
                } else {
                    FaultKind::LinkDown {
                        retransmit_cap: rng.below(4) as usize,
                    }
                };
                FaultEvent {
                    start,
                    end: start + len,
                    scope,
                    kind,
                }
            })
            .collect();
        FaultPlan { events }
    }

    /// The scheduled events.
    #[inline]
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Whether the plan schedules nothing.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total extra latency active on pair (`i` → `j`) at `slot`
    /// (overlapping spikes add).
    pub fn extra_delay(&self, slot: SlotId, i: u16, j: u16) -> SlotId {
        self.events
            .iter()
            .filter(|e| e.active(slot) && e.scope.matches(i, j))
            .map(|e| match e.kind {
                FaultKind::LatencySpike { extra } => extra,
                FaultKind::LinkDown { .. } => 0,
            })
            .sum()
    }

    /// `Some(cap)` iff pair (`i` → `j`) is link-down at `slot`; the
    /// tightest cap wins when windows overlap.
    pub fn down_cap(&self, slot: SlotId, i: u16, j: u16) -> Option<usize> {
        self.events
            .iter()
            .filter(|e| e.active(slot) && e.scope.matches(i, j))
            .filter_map(|e| match e.kind {
                FaultKind::LinkDown { retransmit_cap } => Some(retransmit_cap),
                FaultKind::LatencySpike { .. } => None,
            })
            .min()
    }

    /// Upper bound on the extra latency any pair can ever see — engines
    /// add this to the fabric's max delay when sizing the calendar.
    pub fn max_extra(&self) -> SlotId {
        self.events
            .iter()
            .map(|e| match e.kind {
                FaultKind::LatencySpike { extra } => extra,
                FaultKind::LinkDown { .. } => 0,
            })
            .sum()
    }

    /// Whether any event is a link-down window (retransmits need a
    /// calendar of horizon ≥ 1 even on an otherwise immediate fabric).
    pub fn has_link_down(&self) -> bool {
        self.events
            .iter()
            .any(|e| matches!(e.kind, FaultKind::LinkDown { .. }))
    }
}

/// Engine-owned fault state for one run: the plan plus the per-pair
/// retransmit queues of currently link-down pairs. Held packets count as
/// in flight toward their output (they left their source queue and will
/// reach it unless dropped) but are not on the calendar until released.
#[derive(Debug, Clone)]
pub(crate) struct FaultRuntime {
    /// The schedule driving this run. snapshot: transient — pure data,
    /// supplied again through `RunOptions` at restore (restore refuses a
    /// held-packet snapshot without a plan).
    plan: FaultPlan,
    /// Per-pair retransmit FIFOs, row-major `i * n_outputs + j`; each
    /// entry is (preempt flag, packet). snapshot: serialized
    held: Vec<Vec<(bool, Packet)>>,
    /// Held-packet count across all pairs. snapshot: transient — recounted
    /// from `held` on restore.
    total: u64,
    /// Column count for pair indexing. snapshot: transient — from config.
    n_outputs: usize,
}

impl FaultRuntime {
    pub(crate) fn new(plan: FaultPlan, n_inputs: usize, n_outputs: usize) -> Self {
        // Pre-reserve each pair's FIFO to the largest retransmit cap any
        // link-down window can impose on it: `hold` never exceeds the
        // active cap, so with this one-time reservation the slot loop
        // never grows a hold FIFO mid-run — first-touch included.
        let held = (0..n_inputs * n_outputs)
            .map(|cell| {
                let (i, j) = ((cell / n_outputs) as u16, (cell % n_outputs) as u16);
                let cap = plan
                    .events()
                    .iter()
                    .filter(|e| e.scope.matches(i, j))
                    .filter_map(|e| match e.kind {
                        FaultKind::LinkDown { retransmit_cap } => Some(retransmit_cap),
                        FaultKind::LatencySpike { .. } => None,
                    })
                    .max()
                    .unwrap_or(0);
                Vec::with_capacity(cap)
            })
            .collect();
        FaultRuntime {
            plan,
            held,
            total: 0,
            n_outputs,
        }
    }

    #[inline]
    pub(crate) fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    #[inline]
    fn cell(&self, i: u16, j: u16) -> usize {
        i as usize * self.n_outputs + j as usize
    }

    /// Packets held for retransmission on pair (`i` → `j`).
    #[inline]
    pub(crate) fn pair_held(&self, i: u16, j: u16) -> usize {
        self.held[self.cell(i, j)].len()
    }

    /// Held packets across all pairs.
    #[inline]
    pub(crate) fn total_held(&self) -> u64 {
        self.total
    }

    /// Queue a packet on a link-down pair's retransmit FIFO.
    pub(crate) fn hold(&mut self, i: u16, j: u16, preempt: bool, packet: Packet) {
        let cell = self.cell(i, j);
        self.held[cell].push((preempt, packet));
        self.total += 1;
    }

    /// Drain the retransmit FIFO of a pair whose window closed, in hold
    /// order, visiting each packet in place. The FIFO keeps its capacity,
    /// so steady-state churn (hold → window closes → drain) never
    /// re-allocates the cell.
    pub(crate) fn drain_pair_each(&mut self, i: u16, j: u16, mut f: impl FnMut(bool, Packet)) {
        let cell = self.cell(i, j);
        self.total -= self.held[cell].len() as u64;
        for (preempt, packet) in self.held[cell].drain(..) {
            f(preempt, packet);
        }
    }

    /// Visit every held packet in deterministic (row-major pair, FIFO)
    /// order — the checkpoint serialization order.
    pub(crate) fn for_each_held(&self, mut f: impl FnMut(u16, u16, bool, &Packet)) {
        for (cell, fifo) in self.held.iter().enumerate() {
            let (i, j) = (cell / self.n_outputs, cell % self.n_outputs);
            for (preempt, packet) in fifo {
                f(i as u16, j as u16, *preempt, packet);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_reproducible() {
        let a = FaultPlan::seeded(42, 4, 4, 100, 8);
        let b = FaultPlan::seeded(42, 4, 4, 100, 8);
        assert_eq!(a, b);
        assert_eq!(a.events().len(), 8);
        let c = FaultPlan::seeded(43, 4, 4, 100, 8);
        assert_ne!(a, c, "different seeds diverge");
        for e in a.events() {
            assert!(e.end > e.start, "windows are non-empty and finite");
        }
    }

    #[test]
    fn scopes_match_the_right_pairs() {
        assert!(FaultScope::All.matches(3, 1));
        assert!(FaultScope::Input(2).matches(2, 9));
        assert!(!FaultScope::Input(2).matches(3, 9));
        assert!(FaultScope::Output(1).matches(7, 1));
        assert!(FaultScope::Pair(1, 2).matches(1, 2));
        assert!(!FaultScope::Pair(1, 2).matches(2, 1));
    }

    #[test]
    fn overlapping_events_compose() {
        let plan = FaultPlan::new(vec![
            FaultEvent {
                start: 5,
                end: 10,
                scope: FaultScope::All,
                kind: FaultKind::LatencySpike { extra: 2 },
            },
            FaultEvent {
                start: 8,
                end: 12,
                scope: FaultScope::Input(0),
                kind: FaultKind::LatencySpike { extra: 3 },
            },
            FaultEvent {
                start: 8,
                end: 12,
                scope: FaultScope::Pair(0, 0),
                kind: FaultKind::LinkDown { retransmit_cap: 2 },
            },
            FaultEvent {
                start: 9,
                end: 11,
                scope: FaultScope::All,
                kind: FaultKind::LinkDown { retransmit_cap: 1 },
            },
        ]);
        assert_eq!(plan.extra_delay(4, 0, 0), 0, "before any window");
        assert_eq!(plan.extra_delay(5, 1, 1), 2);
        assert_eq!(plan.extra_delay(9, 0, 3), 5, "overlapping spikes add");
        assert_eq!(plan.extra_delay(11, 0, 3), 3, "first window closed");
        assert_eq!(plan.down_cap(7, 0, 0), None);
        assert_eq!(plan.down_cap(8, 0, 0), Some(2));
        assert_eq!(plan.down_cap(9, 0, 0), Some(1), "tightest cap wins");
        assert_eq!(plan.down_cap(9, 3, 3), Some(1));
        assert_eq!(plan.down_cap(12, 0, 0), None, "end is exclusive");
        assert_eq!(plan.max_extra(), 5);
        assert!(plan.has_link_down());
    }

    #[test]
    fn runtime_holds_and_drains_in_fifo_order() {
        use cioq_model::{PacketId, PortId};
        let mk = |id: u64| Packet::new(PacketId(id), 1 + id, 0, PortId(0), PortId(1));
        let mut rt = FaultRuntime::new(FaultPlan::default(), 2, 2);
        rt.hold(0, 1, false, mk(0));
        rt.hold(0, 1, true, mk(1));
        rt.hold(1, 0, false, mk(2));
        assert_eq!(rt.pair_held(0, 1), 2);
        assert_eq!(rt.total_held(), 3);
        let mut seen = Vec::new();
        rt.for_each_held(|i, j, _, p| seen.push((i, j, p.id.0)));
        assert_eq!(seen, vec![(0, 1, 0), (0, 1, 1), (1, 0, 2)]);
        let mut drained = Vec::new();
        rt.drain_pair_each(0, 1, |preempt, p| drained.push((preempt, p.id.0)));
        assert_eq!(drained, vec![(false, 0), (true, 1)]);
        assert_eq!(rt.total_held(), 1);
        assert_eq!(rt.pair_held(0, 1), 0);
    }
}
