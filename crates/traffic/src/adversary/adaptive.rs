//! The adaptive flood: an [`ArrivalSource`] that watches the online
//! algorithm's queues — the real adversary model of competitive analysis.

use cioq_model::{Packet, PacketId, PortId, SlotId};
use cioq_sim::{ArrivalSource, SwitchView, Trace};

/// Adaptive flood adversary for `m × 1` (IQ-model) switches.
///
/// Slot 0 fills every input queue with `b` unit packets. In each of the
/// following `flood_len` slots it observes the algorithm's queues and sends
/// one packet to the **fullest** queue (ties to the highest index): against
/// any greedy service order, that packet is rejected while a clairvoyant
/// schedule could have drained that queue first and accepted it.
///
/// Unlike the oblivious [`super::gm_iq_flood`] this works against rotating
/// or randomized tie-breaking too. The emitted sequence is recorded so the
/// exact optimum can be computed on it afterwards ([`Self::emitted_trace`]).
#[derive(Debug, Clone)]
pub struct AdaptiveFloodSource {
    m: usize,
    b: usize,
    flood_len: SlotId,
    next_id: u64,
    emitted: Vec<Packet>,
}

impl AdaptiveFloodSource {
    /// New adversary; `flood_len` defaults to `(m−1)·b` when `None`
    /// (the window during which some initial queue must still be full).
    pub fn new(m: usize, b: usize, flood_len: Option<SlotId>) -> Self {
        assert!(m >= 1 && b >= 1);
        AdaptiveFloodSource {
            m,
            b,
            flood_len: flood_len.unwrap_or(((m - 1) * b) as SlotId),
            next_id: 0,
            emitted: Vec::new(),
        }
    }

    /// Total arrival slots this adversary wants (pass to the engine).
    pub fn horizon_slots(&self) -> SlotId {
        1 + self.flood_len
    }

    /// The packets actually emitted (valid trace for OPT computation).
    pub fn emitted_trace(&self) -> Trace {
        Trace::from_packets(self.emitted.clone()).expect("emitted in slot order")
    }

    fn emit(&mut self, slot: SlotId, input: usize, out: &mut Vec<Packet>) {
        let p = Packet::new(
            PacketId(self.next_id),
            1,
            slot,
            PortId::from(input),
            PortId(0),
        );
        self.next_id += 1;
        self.emitted.push(p);
        out.push(p);
    }
}

impl ArrivalSource for AdaptiveFloodSource {
    fn arrivals(&mut self, view: &SwitchView<'_>, slot: SlotId, out: &mut Vec<Packet>) {
        if slot == 0 {
            for i in 0..self.m {
                for _ in 0..self.b {
                    self.emit(0, i, out);
                }
            }
            return;
        }
        if slot > self.flood_len {
            return;
        }
        // Target the fullest queue in the algorithm's current state
        // (ties to the highest index — the queue served last).
        let target = (0..self.m)
            .max_by_key(|&i| (view.input_queue(PortId::from(i), PortId(0)).len(), i))
            .expect("m >= 1");
        self.emit(slot, target, out);
    }

    fn horizon(&self) -> Option<SlotId> {
        Some(self.horizon_slots())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cioq_model::SwitchConfig;
    use cioq_sim::{Engine, RunOptions};

    /// A trivially-greedy policy for exercising the adversary: first-fit
    /// matching, accept when not full.
    struct FirstFit;
    impl cioq_sim::CioqPolicy for FirstFit {
        fn name(&self) -> &str {
            "first-fit"
        }
        fn admit(&mut self, view: &SwitchView<'_>, p: &Packet) -> cioq_sim::Admission {
            if view.input_queue(p.input, p.output).is_full() {
                cioq_sim::Admission::Reject
            } else {
                cioq_sim::Admission::Accept
            }
        }
        fn schedule(
            &mut self,
            view: &SwitchView<'_>,
            _cycle: cioq_model::Cycle,
            out: &mut Vec<cioq_sim::Transfer>,
        ) {
            for i in 0..view.n_inputs() {
                let input = PortId::from(i);
                if !view.input_queue(input, PortId(0)).is_empty()
                    && !view.output_queue(PortId(0)).is_full()
                {
                    out.push(cioq_sim::Transfer {
                        input,
                        output: PortId(0),
                        preempt_if_full: false,
                    });
                    return;
                }
            }
        }
    }

    #[test]
    fn adaptive_flood_causes_rejections_and_records_trace() {
        let m = 4;
        let b = 3;
        let cfg = SwitchConfig::iq_model(m, b);
        let mut adversary = AdaptiveFloodSource::new(m, b, None);
        let slots = adversary.horizon_slots();
        let report = Engine::new(
            cfg,
            RunOptions {
                slots: Some(slots),
                ..RunOptions::default()
            },
        )
        .run_cioq(&mut FirstFit, &mut adversary)
        .unwrap();

        // The greedy policy delivers only the initial fill.
        assert_eq!(report.benefit.0, (m * b) as u128);
        assert_eq!(report.losses.rejected as usize, (m - 1) * b);

        // The recorded trace matches what was offered.
        let trace = adversary.emitted_trace();
        assert_eq!(trace.len(), m * b + (m - 1) * b);
        assert_eq!(report.arrived as usize, trace.len());
    }
}
