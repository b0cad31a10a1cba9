//! The generator trait and trace assembly, plus the slot-at-a-time
//! counterpart that feeds streaming runs without materialising a trace: a
//! [`SlotGen`] becomes a lazy packet iterator ([`slot_packets`]), which
//! [`cioq_sim::stream::feed`] pushes like any other input.

use cioq_model::{Packet, PacketId, PortId, SlotId, SwitchConfig, Value};
use cioq_sim::Trace;

/// A deterministic, seedable workload generator.
pub trait TrafficGen {
    /// Human-readable generator name with its parameters.
    fn name(&self) -> String;

    /// Generate the full input sequence for `slots` arrival slots.
    /// Identical `(cfg, slots, seed)` must yield identical traces.
    fn generate(&self, cfg: &SwitchConfig, slots: SlotId, seed: u64) -> Trace;
}

/// Convenience wrapper: `gen.generate(cfg, slots, seed)`.
pub fn gen_trace(gen: &impl TrafficGen, cfg: &SwitchConfig, slots: SlotId, seed: u64) -> Trace {
    gen.generate(cfg, slots, seed)
}

/// Slot-at-a-time workload generation: emits each slot's arrivals
/// incrementally, in O(per-slot) memory, for push-feeding a streaming run
/// (see [`cioq_sim::stream`]). A generator offering both traits must make
/// them agree — assembling every `fill_slot` into a trace must reproduce
/// [`TrafficGen::generate`] tuple for tuple, so streamed and
/// trace-materialised runs see the same σ.
pub trait SlotGen {
    /// Human-readable generator name with its parameters.
    fn name(&self) -> String;

    /// Append the arrivals of `slot` as `(input, output, value)` tuples
    /// in arrival order. Slots must be visited consecutively from 0: the
    /// generator advances internal state (RNG, burst phases) per slot.
    fn fill_slot(
        &mut self,
        cfg: &SwitchConfig,
        slot: SlotId,
        out: &mut Vec<(PortId, PortId, Value)>,
    );
}

/// `sg`'s workload over slots `0..slots` as a lazy packet iterator, for
/// [`cioq_sim::stream::feed`]. Ids are assigned in emission order — the
/// [`Trace::from_tuples`] numbering of the assembled trace, so a streamed
/// run is byte-comparable to the trace-fed one — and one slot's tuples are
/// held at a time, so a stream resumed at a checkpoint fast-forwards a
/// fresh generator in O(1) memory: `feed` skips the packets before the
/// cursor's slot as it would a trace's.
pub fn slot_packets(
    mut sg: impl SlotGen,
    cfg: &SwitchConfig,
    slots: SlotId,
) -> impl Iterator<Item = Packet> {
    let cfg = cfg.clone();
    let (mut tuples, mut emitted, mut slot, mut next_id) = (Vec::new(), 0, 0, 0);
    std::iter::from_fn(move || {
        while emitted == tuples.len() {
            if slot == slots {
                return None;
            }
            tuples.clear();
            emitted = 0;
            sg.fill_slot(&cfg, slot, &mut tuples);
            slot += 1;
        }
        let (i, j, v) = tuples[emitted];
        emitted += 1;
        next_id += 1;
        Some(Packet::new(PacketId(next_id - 1), v, slot - 1, i, j))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BernoulliUniform, ValueDist};
    use cioq_sim::stream::{replay, StreamCursor};
    use cioq_sim::ArrivalSource;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn generation_is_deterministic() {
        let cfg = SwitchConfig::cioq(4, 8, 1);
        let gen = BernoulliUniform::new(0.7, ValueDist::Unit);
        let a = gen_trace(&gen, &cfg, 50, 42);
        let b = gen_trace(&gen, &cfg, 50, 42);
        assert_eq!(a, b);
        let c = gen_trace(&gen, &cfg, 50, 43);
        assert_ne!(a, c, "different seeds should differ");
    }

    /// Stream `packets` from `from` through a depth-2 channel and collect
    /// every slot until the stream closes; a producer panic is re-raised.
    fn pull(
        from: StreamCursor,
        packets: impl Iterator<Item = Packet> + Send + 'static,
    ) -> Vec<Packet> {
        let (mut src, pump) = replay(2, from, packets);
        let (mut got, mut slot) = (Vec::new(), from.slot);
        while src.in_arrival_window(slot) {
            src.pull(slot, &mut got);
            slot += 1;
        }
        pump.join();
        got
    }

    /// The one cursor rule on a generator, as `cioq_sim::stream`'s tests
    /// check it on a trace and a replay file: the slot generator streams
    /// the trace it makes whole and from a mid-stream cursor, and a cursor
    /// whose consumed count is off by one panics with the one message.
    #[test]
    fn generator_pump_streams_resumes_and_checks_its_cursor() {
        let (cfg, slots, seed) = (SwitchConfig::cioq(3, 4, 1), 12, 7);
        let gen = BernoulliUniform::new(0.6, ValueDist::Uniform { max: 9 });
        let trace = gen_trace(&gen, &cfg, slots, seed);
        let packets = || slot_packets(gen.slots(seed), &cfg, slots);
        let mid = slots / 2;
        let consumed = trace.packets().partition_point(|p| p.arrival < mid);
        assert!(
            consumed > 0 && consumed < trace.len(),
            "the cursor splits the stream"
        );
        assert_eq!(pull(StreamCursor::start(), packets()), trace.packets());
        let from = StreamCursor {
            slot: mid,
            consumed: consumed as u64,
        };
        assert_eq!(pull(from, packets()), trace.packets()[consumed..]);
        let off = StreamCursor {
            consumed: from.consumed + 1,
            ..from
        };
        let panic = catch_unwind(AssertUnwindSafe(|| pull(off, packets())))
            .expect_err("an off-by-one cursor must panic the producer");
        let message = panic.downcast_ref::<String>().expect("a formatted message");
        assert!(
            message.starts_with("stream cursor does not match"),
            "{message}"
        );
    }
}
