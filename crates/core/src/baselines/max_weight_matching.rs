//! The maximum-weight-matching baseline for general values
//! (Kesselman–Rosén [24], 6-competitive).

use super::head_transfers;
use crate::oracle::weighted_graph;
use crate::params::PG_BETA;
use crate::pg::admit;
use cioq_matching::{hungarian_max_weight, BipartiteGraph};
use cioq_model::{Cycle, Packet};
use cioq_sim::{Admission, CioqPolicy, SwitchView, Transfer};

/// General-value CIOQ policy identical to PG except that each cycle
/// computes a **maximum-weight** matching (Hungarian, O(N³)) on the same
/// eligibility graph, instead of PG's greedy maximal weighted matching.
/// This is the expensive 6-competitive baseline PG improves upon.
#[derive(Debug)]
pub struct MaxWeightMatching {
    beta: f64,
    graph: BipartiteGraph,
    name: String,
}

impl MaxWeightMatching {
    /// Baseline with the same β as PG's optimum (fair comparison).
    pub fn new() -> Self {
        Self::with_beta(PG_BETA)
    }

    /// Baseline with explicit β.
    pub fn with_beta(beta: f64) -> Self {
        assert!(beta >= 1.0);
        MaxWeightMatching {
            beta,
            graph: BipartiteGraph::default(),
            name: format!("KR-MaxWeight(beta={beta:.3})"),
        }
    }
}

impl Default for MaxWeightMatching {
    fn default() -> Self {
        Self::new()
    }
}

impl CioqPolicy for MaxWeightMatching {
    fn name(&self) -> &str {
        &self.name
    }

    fn admit(&mut self, view: &SwitchView<'_>, packet: &Packet) -> Admission {
        admit(view.input_queue(packet.input, packet.output), packet, true)
    }

    fn schedule(&mut self, view: &SwitchView<'_>, _cycle: Cycle, out: &mut Vec<Transfer>) {
        weighted_graph(view, self.beta, &mut self.graph);
        head_transfers(&hungarian_max_weight(&self.graph).pairs, true, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cioq_model::{PortId, SwitchConfig};
    use cioq_sim::{run_cioq, Trace};

    #[test]
    fn max_weight_takes_the_globally_best_matching() {
        // Weights force a cardinality-2 matching over the single heaviest
        // edge: (0,0,=8)+(1,1,=7) beats (0,1,=10) alone.
        let cfg = SwitchConfig::cioq(2, 2, 1);
        let trace = Trace::from_tuples([
            (0, PortId(0), PortId(0), 8),
            (0, PortId(0), PortId(1), 10),
            (0, PortId(1), PortId(1), 7),
        ]);
        let report = run_cioq(&cfg, &mut MaxWeightMatching::new(), &trace).unwrap();
        // Everything is delivered eventually; what differs from PG is the
        // order. All 25 of value must arrive.
        assert_eq!(report.benefit.0, 25);
    }

    #[test]
    fn same_admission_semantics_as_pg() {
        let cfg = SwitchConfig::cioq(1, 1, 1);
        let trace = Trace::from_tuples([
            (0, PortId(0), PortId(0), 2),
            (0, PortId(0), PortId(0), 9), // preempts the 2
            (0, PortId(0), PortId(0), 1), // rejected
        ]);
        let report = run_cioq(&cfg, &mut MaxWeightMatching::new(), &trace).unwrap();
        assert_eq!(report.losses.preempted_input, 1);
        assert_eq!(report.losses.rejected, 1);
        assert_eq!(report.benefit.0, 9);
    }
}
