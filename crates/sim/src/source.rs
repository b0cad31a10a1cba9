//! Arrival sources: where the packets of each slot come from.
//!
//! Competitive analysis pits an online algorithm against an *adversary* that
//! may construct the input adaptively, observing every decision the
//! algorithm makes. `ArrivalSource` models exactly that: each slot it is
//! shown the current switch state (the algorithm's queues) and emits that
//! slot's arrivals. Pre-recorded [`Trace`]s are the oblivious special case.

use crate::state::SwitchView;
use crate::trace::Trace;
use cioq_model::{Packet, SlotId};

/// A source of arrivals, consulted once per slot by the engine.
pub trait ArrivalSource {
    /// Append the packets arriving in `slot` (in arrival order) to `out`.
    /// `view` is the switch state *before* the arrival phase — adaptive
    /// adversaries inspect it; oblivious sources ignore it.
    fn arrivals(&mut self, view: &SwitchView<'_>, slot: SlotId, out: &mut Vec<Packet>);

    /// Number of slots that contain arrivals, when known in advance.
    /// The engine uses this as the default run length.
    fn horizon(&self) -> Option<SlotId> {
        None
    }

    /// Whether the source may still deliver arrivals at or after `slot`.
    ///
    /// The engine consults this once per slot, but only when neither
    /// `RunOptions::slots` nor [`Self::horizon`] fixes the run length —
    /// i.e. for open-ended sources such as [`crate::StreamingSource`],
    /// which blocks here until it can answer (a batch is buffered, or the
    /// producer closed the stream). The default derives the answer from
    /// the horizon; with no horizon either, the window is closed.
    fn in_arrival_window(&mut self, slot: SlotId) -> bool {
        self.horizon().is_some_and(|h| slot < h)
    }
}

/// Plays back a [`Trace`].
#[derive(Debug, Clone)]
pub struct TraceSource<'a> {
    trace: &'a Trace,
    cursor: usize,
}

impl<'a> TraceSource<'a> {
    /// Source that replays `trace` from the beginning.
    pub fn new(trace: &'a Trace) -> Self {
        TraceSource { trace, cursor: 0 }
    }

    /// Source that replays `trace` from `slot` onward, skipping every
    /// packet that arrived earlier — the position a run checkpointed at
    /// the top of `slot` had consumed to. Snapshots therefore never store
    /// a trace cursor: it is a pure function of the checkpoint slot.
    pub fn resume_at(trace: &'a Trace, slot: SlotId) -> Self {
        let cursor = trace.packets().partition_point(|p| p.arrival < slot);
        TraceSource { trace, cursor }
    }

    /// Append the packets arriving in `slot` (in arrival order) to `out` —
    /// [`ArrivalSource::arrivals`] without the view a trace never looks
    /// at, for callers that have none.
    pub fn pull(&mut self, slot: SlotId, out: &mut Vec<Packet>) {
        let packets = self.trace.packets();
        // A cursor sitting below `slot` means an earlier slot was never
        // consumed; continuing would silently drop those arrivals, so this
        // is a hard invariant even in release builds.
        if let Some(p) = packets.get(self.cursor) {
            assert!(
                p.arrival >= slot,
                "invariant violated: trace source consumed out of order \
                 (asked for slot {slot}, but packet {} from slot {} is still pending)",
                p.id.0,
                p.arrival
            );
        }
        while let Some(p) = packets.get(self.cursor) {
            if p.arrival != slot {
                break;
            }
            out.push(*p);
            self.cursor += 1;
        }
    }
}

impl ArrivalSource for TraceSource<'_> {
    fn arrivals(&mut self, _view: &SwitchView<'_>, slot: SlotId, out: &mut Vec<Packet>) {
        self.pull(slot, out);
    }

    fn horizon(&self) -> Option<SlotId> {
        Some(self.trace.arrival_slots())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::SwitchState;
    use cioq_model::{PortId, SwitchConfig};

    #[test]
    fn trace_source_slices_by_slot() {
        let trace = Trace::from_tuples([
            (0, PortId(0), PortId(0), 1),
            (0, PortId(1), PortId(0), 2),
            (2, PortId(0), PortId(1), 3),
        ]);
        let st = SwitchState::new(SwitchConfig::cioq(2, 2, 1));
        let mut src = TraceSource::new(&trace);
        let mut out = Vec::new();

        src.arrivals(&st.view(), 0, &mut out);
        assert_eq!(out.len(), 2);
        out.clear();
        src.arrivals(&st.view(), 1, &mut out);
        assert!(out.is_empty());
        src.arrivals(&st.view(), 2, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].value, 3);
        assert_eq!(src.horizon(), Some(3));
    }
}
