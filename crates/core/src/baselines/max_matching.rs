//! The maximum-matching baseline for unit values (Kesselman–Rosén [23]).

use super::head_transfers;
use crate::oracle::unit_graph;
use crate::pg::admit;
use cioq_matching::{hopcroft_karp, BipartiteGraph};
use cioq_model::{Cycle, Packet};
use cioq_sim::{Admission, CioqPolicy, SwitchView, Transfer};

/// Unit-value CIOQ policy that computes a **maximum** matching (Hopcroft–
/// Karp) on GM's eligibility graph every cycle. Same admission and
/// transmission rules as GM; only the matching differs. This is the
/// 3-competitive but expensive policy the paper's GM replaces.
#[derive(Debug, Default)]
pub struct MaxMatching {
    graph: BipartiteGraph,
}

impl MaxMatching {
    /// New baseline instance.
    pub fn new() -> Self {
        Self::default()
    }
}

impl CioqPolicy for MaxMatching {
    fn name(&self) -> &str {
        "KR-MaxMatching"
    }

    fn admit(&mut self, view: &SwitchView<'_>, packet: &Packet) -> Admission {
        admit(view.input_queue(packet.input, packet.output), packet, false)
    }

    fn schedule(&mut self, view: &SwitchView<'_>, _cycle: Cycle, out: &mut Vec<Transfer>) {
        unit_graph(view, &mut self.graph);
        head_transfers(&hopcroft_karp(&self.graph).pairs, false, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cioq_model::{PortId, SwitchConfig};
    use cioq_sim::{run_cioq, Trace};

    #[test]
    fn maximum_matching_beats_unlucky_greedy_within_a_cycle() {
        // The classic augmenting pattern: edges (0,0),(0,1),(1,0).
        // Greedy insertion order picks (0,0) and strands input 1; maximum
        // matching moves two packets in the first cycle.
        let cfg = SwitchConfig::cioq(2, 4, 1);
        let trace = Trace::from_tuples([
            (0, PortId(0), PortId(0), 1),
            (0, PortId(0), PortId(1), 1),
            (0, PortId(1), PortId(0), 1),
        ]);
        let report = run_cioq(&cfg, &mut MaxMatching::new(), &trace).unwrap();
        assert_eq!(report.transmitted, 3);
        // First cycle must transfer 2 packets: transferred across the whole
        // run is 3 either way, so check the timing via slot count: maximum
        // matching finishes all transmissions by slot 1 (2 in slot 0).
        assert!(report.slots <= 2);
    }

    #[test]
    fn same_final_throughput_as_gm_on_easy_traffic() {
        let cfg = SwitchConfig::cioq(3, 4, 1);
        let trace = Trace::from_tuples(
            (0..6u64).flat_map(|t| (0..3).map(move |i| (t, PortId(i), PortId((i + 1) % 3), 1))),
        );
        let max = run_cioq(&cfg, &mut MaxMatching::new(), &trace).unwrap();
        let gm = run_cioq(&cfg, &mut crate::GreedyMatching::new(), &trace).unwrap();
        assert_eq!(max.transmitted, gm.transmitted);
        assert_eq!(max.transmitted, 18);
    }
}
