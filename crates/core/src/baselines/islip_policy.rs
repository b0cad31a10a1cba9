//! iSLIP as a CIOQ scheduling policy — the practical, guarantee-free
//! reference point.

use crate::oracle::unit_graph;
use cioq_matching::{BipartiteGraph, Islip};
use cioq_model::{Cycle, Packet, PortId};
use cioq_sim::{Admission, CioqPolicy, PacketPick, SwitchView, Transfer};

/// CIOQ policy driving the [`Islip`] round-robin matcher over GM's
/// eligibility graph. Value-oblivious: requests carry no weights, and the
/// head (greatest-value) packet of a matched queue is forwarded, so on unit
/// traffic it behaves like a desynchronizing variant of GM.
#[derive(Debug)]
pub struct IslipPolicy {
    islip: Option<Islip>,
    iterations: usize,
    graph: BipartiteGraph,
    name: String,
}

impl IslipPolicy {
    /// iSLIP with `iterations` request/grant/accept rounds per cycle.
    pub fn new(iterations: usize) -> Self {
        IslipPolicy {
            islip: None,
            iterations,
            graph: BipartiteGraph::default(),
            name: format!("iSLIP-{iterations}"),
        }
    }
}

impl CioqPolicy for IslipPolicy {
    fn name(&self) -> &str {
        &self.name
    }

    fn admit(&mut self, view: &SwitchView<'_>, packet: &Packet) -> Admission {
        if view.input_queue(packet.input, packet.output).is_full() {
            Admission::Reject
        } else {
            Admission::Accept
        }
    }

    fn schedule(&mut self, view: &SwitchView<'_>, _cycle: Cycle, out: &mut Vec<Transfer>) {
        unit_graph(view, &mut self.graph);
        let islip = self
            .islip
            .get_or_insert_with(|| Islip::new(view.n_inputs(), view.n_outputs(), self.iterations));
        let matching = islip.match_cycle(&self.graph);
        for (i, j) in matching.pairs {
            out.push(Transfer {
                input: PortId::from(i),
                output: PortId::from(j),
                pick: PacketPick::Greatest,
                preempt_if_full: false,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cioq_model::SwitchConfig;
    use cioq_sim::{run_cioq, Trace};

    #[test]
    fn islip_delivers_uniform_traffic() {
        let cfg = SwitchConfig::cioq(4, 8, 1);
        let trace = Trace::from_tuples(
            (0..8u64)
                .flat_map(|t| (0..4).map(move |i| (t, PortId(i), PortId((i + t as u16) % 4), 1))),
        );
        let report = run_cioq(&cfg, &mut IslipPolicy::new(2), &trace).unwrap();
        assert_eq!(report.transmitted, 32);
        report.check_conservation().unwrap();
    }

    #[test]
    fn islip_rotates_under_contention() {
        // All inputs to one output: over N slots each input gets served.
        let cfg = SwitchConfig::cioq(3, 8, 1);
        let trace = Trace::from_tuples((0..3).map(|i| (0u64, PortId(i), PortId(0), 1u64)));
        let report = run_cioq(&cfg, &mut IslipPolicy::new(1), &trace).unwrap();
        assert_eq!(report.transmitted, 3);
    }
}
