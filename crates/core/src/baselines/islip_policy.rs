//! iSLIP as a CIOQ scheduling policy — the practical, guarantee-free
//! reference point.

use super::head_transfers;
use crate::oracle::unit_graph;
use crate::pg::admit;
use cioq_matching::{BipartiteGraph, Islip};
use cioq_model::{Cycle, Packet};
use cioq_sim::{Admission, CioqPolicy, SwitchView, Transfer};

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
        admit(view.input_queue(packet.input, packet.output), packet, false)
    }

    fn schedule(&mut self, view: &SwitchView<'_>, _cycle: Cycle, out: &mut Vec<Transfer>) {
        unit_graph(view, &mut self.graph);
        let islip = self
            .islip
            .get_or_insert_with(|| Islip::new(view.n_inputs(), view.n_outputs(), self.iterations));
        head_transfers(&islip.match_cycle(&self.graph).pairs, false, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cioq_model::{PortId, SwitchConfig};
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
