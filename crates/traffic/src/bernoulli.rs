//! Bernoulli i.i.d. uniform traffic — the canonical smooth workload.

use crate::gen::{SlotGen, TrafficGen};
use crate::values::{ValueDist, ValueSampler};
use cioq_model::{PortId, SlotId, SwitchConfig, Value};
use cioq_sim::Trace;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Each slot, every input port independently receives a packet with
/// probability `load`, destined to a uniformly random output port.
/// Offered load per output is therefore `load · N/M` (equal to `load` on a
/// square switch).
#[derive(Debug, Clone)]
pub struct BernoulliUniform {
    /// Per-input arrival probability per slot, in `[0, 1]`.
    pub load: f64,
    /// Value distribution.
    pub values: ValueDist,
}

impl BernoulliUniform {
    /// New generator with the given per-input load.
    pub fn new(load: f64, values: ValueDist) -> Self {
        assert!((0.0..=1.0).contains(&load), "load must be in [0,1]");
        BernoulliUniform { load, values }
    }

    /// Slot-at-a-time form of this generator for the given seed: the one
    /// RNG walk, which [`TrafficGen::generate`] assembles into a trace.
    pub fn slots(&self, seed: u64) -> BernoulliSlots {
        BernoulliSlots {
            load: self.load,
            values: self.values.clone(),
            sampler: self.values.sampler(),
            rng: SmallRng::seed_from_u64(seed),
            next_slot: 0,
        }
    }
}

/// Incremental [`SlotGen`] form of [`BernoulliUniform`]: carries the RNG
/// across slots so slot `t`'s draws pick up exactly where slot `t-1` left
/// off.
#[derive(Debug, Clone)]
pub struct BernoulliSlots {
    load: f64,
    values: ValueDist,
    sampler: ValueSampler,
    rng: SmallRng,
    next_slot: SlotId,
}

impl SlotGen for BernoulliSlots {
    fn name(&self) -> String {
        format!("bernoulli(load={:.2},{})", self.load, self.values.name())
    }

    fn fill_slot(
        &mut self,
        cfg: &SwitchConfig,
        slot: SlotId,
        out: &mut Vec<(PortId, PortId, Value)>,
    ) {
        assert!(
            slot == self.next_slot,
            "slot generator must be driven consecutively: asked for slot {slot}, expected {}",
            self.next_slot
        );
        self.next_slot += 1;
        for i in 0..cfg.n_inputs {
            if self.rng.gen::<f64>() < self.load {
                let j = self.rng.gen_range(0..cfg.n_outputs);
                let v = self.sampler.sample(&mut self.rng);
                out.push((PortId::from(i), PortId::from(j), v));
            }
        }
    }
}

impl TrafficGen for BernoulliUniform {
    fn name(&self) -> String {
        format!("bernoulli(load={:.2},{})", self.load, self.values.name())
    }

    fn generate(&self, cfg: &SwitchConfig, slots: SlotId, seed: u64) -> Trace {
        let mut sg = self.slots(seed);
        let (mut tuples, mut slot_buf) = (Vec::new(), Vec::new());
        for slot in 0..slots {
            slot_buf.clear();
            sg.fill_slot(cfg, slot, &mut slot_buf);
            tuples.extend(slot_buf.iter().map(|&(i, j, v)| (slot, i, j, v)));
        }
        Trace::from_tuples(tuples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_is_respected_on_average() {
        let cfg = SwitchConfig::cioq(8, 8, 1);
        let gen = BernoulliUniform::new(0.5, ValueDist::Unit);
        let trace = gen.generate(&cfg, 1000, 1);
        let expected = 0.5 * 8.0 * 1000.0;
        let got = trace.len() as f64;
        assert!(
            (got - expected).abs() < expected * 0.1,
            "expected ~{expected}, got {got}"
        );
    }

    #[test]
    fn outputs_are_roughly_uniform() {
        let cfg = SwitchConfig::cioq(4, 8, 1);
        let gen = BernoulliUniform::new(1.0, ValueDist::Unit);
        let trace = gen.generate(&cfg, 2000, 3);
        let mut counts = [0usize; 4];
        for p in trace.packets() {
            counts[p.output.index()] += 1;
        }
        let total: usize = counts.iter().sum();
        for c in counts {
            let frac = c as f64 / total as f64;
            assert!((frac - 0.25).abs() < 0.05, "output share {frac}");
        }
    }

    #[test]
    fn slot_form_reproduces_bulk_trace() {
        let cfg = SwitchConfig::cioq(5, 7, 1);
        for values in [
            ValueDist::Unit,
            ValueDist::Bimodal {
                high: 40,
                p_high: 0.2,
            },
        ] {
            let gen = BernoulliUniform::new(0.6, values);
            let bulk = gen.generate(&cfg, 200, 9);
            let mut sg = gen.slots(9);
            let mut tuples = Vec::new();
            let mut slot_buf = Vec::new();
            for slot in 0..200 {
                slot_buf.clear();
                sg.fill_slot(&cfg, slot, &mut slot_buf);
                tuples.extend(slot_buf.iter().map(|&(i, j, v)| (slot, i, j, v)));
            }
            assert_eq!(Trace::from_tuples(tuples), bulk, "{}", sg.name());
        }
    }

    #[test]
    #[should_panic(expected = "driven consecutively")]
    fn slot_form_rejects_slot_gaps() {
        let cfg = SwitchConfig::cioq(4, 4, 1);
        let mut sg = BernoulliUniform::new(0.5, ValueDist::Unit).slots(1);
        let mut out = Vec::new();
        sg.fill_slot(&cfg, 0, &mut out);
        sg.fill_slot(&cfg, 2, &mut out);
    }

    #[test]
    fn zero_load_is_empty() {
        let cfg = SwitchConfig::cioq(4, 8, 1);
        let gen = BernoulliUniform::new(0.0, ValueDist::Unit);
        assert!(gen.generate(&cfg, 100, 1).is_empty());
    }
}
