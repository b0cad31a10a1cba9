//! The generator trait and trace assembly, plus the slot-at-a-time
//! counterpart that feeds streaming runs without materialising a trace.

use cioq_model::{Packet, PacketId, PortId, SlotId, SwitchConfig, Value};
use cioq_sim::stream::{self, StreamCursor, StreamPump, StreamSender, StreamingSource};
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

/// Push `slots` slots of `sg`'s workload through a bounded streaming
/// channel from a producer thread. Packet ids are assigned in emission
/// order, matching [`Trace::from_tuples`] on the assembled trace, so a
/// streamed run is byte-comparable to the trace-fed run.
pub fn stream_gen<G>(
    sg: G,
    cfg: &SwitchConfig,
    slots: SlotId,
    depth: usize,
) -> (StreamingSource, StreamPump)
where
    G: SlotGen + Send + 'static,
{
    stream_gen_from(sg, cfg, slots, depth, StreamCursor::start())
}

/// Like [`stream_gen`], resumed at a checkpoint's stream cursor: the
/// producer thread runs [`feed_slots`] from `from`.
pub fn stream_gen_from<G>(
    sg: G,
    cfg: &SwitchConfig,
    slots: SlotId,
    depth: usize,
    from: StreamCursor,
) -> (StreamingSource, StreamPump)
where
    G: SlotGen + Send + 'static,
{
    let cfg = cfg.clone();
    let (tx, src) = stream::channel_at(depth, from);
    let pump = stream::spawn_producer(tx, move |tx| feed_slots(tx, &cfg, sg, from, slots));
    (src, pump)
}

/// The producer body of a streamed workload: send slots `from.slot..slots`
/// of `sg` through `tx`, one [`StreamSender::send_reusing`] per slot, empty
/// slots included, numbering packets in emission order (the
/// [`Trace::from_tuples`] numbering). A *fresh* generator is first
/// fast-forwarded through the slots before `from.slot` (their tuples
/// discarded in O(1) memory) and the discarded count checked against
/// `from.consumed`: a mismatch means the generator is not the one the
/// checkpoint was taken on, and panics the producer (re-raised at
/// [`StreamPump::join`]). Returns early once the consumer hangs up.
pub fn feed_slots(
    tx: StreamSender,
    cfg: &SwitchConfig,
    mut sg: impl SlotGen,
    from: StreamCursor,
    slots: SlotId,
) {
    let mut tuples: Vec<(PortId, PortId, Value)> = Vec::new();
    let mut next_id: u64 = 0;
    for slot in 0..from.slot {
        tuples.clear();
        sg.fill_slot(cfg, slot, &mut tuples);
        next_id += tuples.len() as u64;
    }
    assert!(
        next_id == from.consumed,
        "slot generator does not reproduce the checkpointed stream: {next_id} packets \
         before slot {} but the checkpoint consumed {}",
        from.slot,
        from.consumed
    );
    let mut batch = Vec::new();
    for slot in from.slot..slots {
        tuples.clear();
        sg.fill_slot(cfg, slot, &mut tuples);
        for &(i, j, v) in &tuples {
            batch.push(Packet::new(PacketId(next_id), v, slot, i, j));
            next_id += 1;
        }
        if tx.send_reusing(slot, &mut batch).is_err() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BernoulliUniform, ValueDist};

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
}
