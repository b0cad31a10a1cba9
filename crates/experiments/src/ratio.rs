//! Competitive-ratio measurement: algorithm benefit vs certified OPT bound.

use crate::policies::{run_policy, PolicyKind};
use cioq_model::{Benefit, SwitchConfig};
use cioq_opt::{opt_upper_bound, opt_upper_bound_is_exact};
use cioq_sim::{RunOptions, Trace};

/// One input σ on one switch, with its OPT bound solved when it is built.
/// OPT(σ) depends on the switch and the trace, never on the policy, so
/// every policy [`measure`](Workload::measure)d against a workload reuses
/// the one solve. The fields are crate-private: the bound must stay the
/// one solved for this switch and trace.
#[derive(Debug)]
pub struct Workload {
    /// What the workload is called where a table prints it.
    pub(crate) label: String,
    /// The switch.
    pub(crate) cfg: SwitchConfig,
    /// The input σ.
    pub(crate) trace: Trace,
    /// The tighter of `cioq-opt`'s two certified upper bounds on OPT(σ).
    pub(crate) opt_bound: u128,
    /// Whether `opt_bound` is exact OPT (the IQ model, `N×1`).
    pub(crate) exact: bool,
}

impl Workload {
    /// Build a workload, solving its OPT bound.
    pub fn new(label: impl Into<String>, cfg: SwitchConfig, trace: Trace) -> Self {
        let opt_bound = opt_upper_bound(&cfg, &trace).best();
        Workload {
            label: label.into(),
            exact: opt_upper_bound_is_exact(&cfg),
            cfg,
            trace,
            opt_bound,
        }
    }

    /// Run `kind` on this workload (drained) and rate it against the bound.
    pub fn measure(&self, kind: PolicyKind) -> RatioRow {
        let report = run_policy(kind, &self.cfg, &self.trace, RunOptions::default())
            .expect("policy must run cleanly");
        RatioRow {
            policy: kind.label(),
            benefit: report.benefit.0,
            opt_bound: self.opt_bound,
            ratio: Benefit(self.opt_bound).ratio_over(report.benefit),
            exact: self.exact,
            theoretical: kind.theoretical_ratio(),
        }
    }
}

/// One measured row: a policy on a workload, with its ratio against OPT.
#[derive(Debug, Clone)]
pub struct RatioRow {
    /// Policy label.
    pub policy: String,
    /// Algorithm benefit.
    pub benefit: u128,
    /// The OPT value compared against (exact or certified upper bound).
    pub opt_bound: u128,
    /// `opt_bound / benefit` — an upper bound on (or the exact value of)
    /// the empirical competitive ratio.
    pub ratio: f64,
    /// Whether `opt_bound` is exact OPT (IQ configs) rather than a
    /// relaxation bound.
    pub exact: bool,
    /// The theorem's guarantee for this policy, if any.
    pub theoretical: Option<f64>,
}

impl RatioRow {
    /// `true` when the measurement is consistent with the theorem bound
    /// (always true for non-exact bounds if ratio ≤ bound; a violation with
    /// an *exact* bound would falsify the implementation).
    pub fn within_theorem(&self) -> bool {
        match self.theoretical {
            Some(t) => !self.exact || self.ratio <= t + 1e-9,
            None => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cioq_model::PortId;

    #[test]
    fn measures_exact_on_tiny_instances() {
        // The IQ model (one output): the per-output bound is exact OPT.
        let cfg = SwitchConfig::iq_model(2, 1);
        let trace =
            Trace::from_tuples([(0, PortId(0), PortId(0), 1), (1, PortId(1), PortId(0), 1)]);
        let row = Workload::new("tiny", cfg, trace).measure(PolicyKind::Gm);
        assert!(row.exact);
        assert_eq!(row.benefit, 2);
        assert_eq!(row.opt_bound, 2);
        assert_eq!(row.ratio, 1.0);
        assert!(row.within_theorem());
    }

    #[test]
    fn falls_back_to_flow_bound() {
        let cfg = SwitchConfig::cioq(2, 2, 1);
        let trace = Trace::from_tuples([(0, PortId(0), PortId(1), 4)]);
        let row = Workload::new("one packet", cfg, trace).measure(PolicyKind::Gm);
        assert!(!row.exact, "2x2 CIOQ flow bound is not certified exact");
        assert_eq!(row.opt_bound, 4);
    }
}
