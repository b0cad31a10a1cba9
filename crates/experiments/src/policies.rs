//! A nameable policy registry, so sweeps can enumerate policies as data.

use cioq_core::baselines::{IslipPolicy, MaxMatching, MaxWeightMatching};
use cioq_core::{
    CrossbarGreedyUnit, CrossbarPreemptiveGreedy, GmEdgePolicy, GreedyMatching, PreemptiveGreedy,
};
use cioq_model::{SwitchConfig, Threshold};
use cioq_sim::{
    ArrivalSource, Engine, Partitioned, PolicyError, RunOptions, RunOutcome, RunReport, Trace,
    TraceSource,
};

/// Every policy the experiments can run, as plain data (so sweep points can
/// be sent across threads and printed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolicyKind {
    /// GM — greedy maximal matching (Thm 1). CIOQ.
    Gm,
    /// GM with rotating edge order (ablation). CIOQ.
    GmRotate,
    /// GM partitioned over K shards, the same decisions as [`PolicyKind::Gm`]
    /// (Thm 1). CIOQ.
    GmPartitioned(usize),
    /// PG with parameter β (Thm 2; β = 1+√2 at `PolicyKind::pg_default`). CIOQ.
    Pg(Threshold),
    /// PG ablation without preemption. CIOQ.
    PgNoPreempt,
    /// Kesselman–Rosén maximum-matching baseline. CIOQ.
    KrMaxMatching,
    /// Kesselman–Rosén maximum-weight-matching baseline with β. CIOQ.
    KrMaxWeight(Threshold),
    /// iSLIP with k iterations. CIOQ.
    Islip(usize),
    /// CGU — crossbar greedy unit (Thm 3). Buffered crossbar.
    Cgu,
    /// CPG with (β, α) (Thm 4). Buffered crossbar.
    Cpg(Threshold, Threshold),
    /// CPG with α = β (the prior algorithm of \[21\]). Buffered crossbar.
    CpgSingleParam,
}

impl PolicyKind {
    /// PG at its optimal β.
    pub fn pg_default() -> Self {
        PolicyKind::Pg(Threshold::OnePlusSqrt2)
    }

    /// CPG at its optimal (β★, α★).
    pub fn cpg_default() -> Self {
        PolicyKind::Cpg(Threshold::Tribonacci, Threshold::TribonacciPlusOne)
    }

    /// Whether this policy runs on a buffered crossbar (vs plain CIOQ).
    pub fn is_crossbar(&self) -> bool {
        matches!(
            self,
            PolicyKind::Cgu | PolicyKind::Cpg(..) | PolicyKind::CpgSingleParam
        )
    }

    /// Display label.
    pub fn label(&self) -> String {
        match self {
            PolicyKind::Gm => "GM".into(),
            PolicyKind::GmRotate => "GM(rotate)".into(),
            PolicyKind::GmPartitioned(k) => format!("GM(K={k})"),
            PolicyKind::Pg(b) => format!("PG(b={:.3})", b.as_f64()),
            PolicyKind::PgNoPreempt => "PG(no-preempt)".into(),
            PolicyKind::KrMaxMatching => "KR-MaxMatching".into(),
            PolicyKind::KrMaxWeight(b) => format!("KR-MaxWeight(b={:.3})", b.as_f64()),
            PolicyKind::Islip(k) => format!("iSLIP-{k}"),
            PolicyKind::Cgu => "CGU".into(),
            PolicyKind::Cpg(b, a) => format!("CPG(b={:.2},a={:.2})", b.as_f64(), a.as_f64()),
            PolicyKind::CpgSingleParam => "CPG(a=b)".into(),
        }
    }

    /// The theorem bound this policy carries, if any (for tables).
    pub fn theoretical_ratio(&self) -> Option<f64> {
        match *self {
            PolicyKind::Gm | PolicyKind::GmRotate | PolicyKind::GmPartitioned(_) => Some(3.0),
            PolicyKind::Pg(b) if b.as_f64() > 1.0 => Some(cioq_core::params::pg_ratio(b.as_f64())),
            PolicyKind::KrMaxMatching => Some(3.0),
            PolicyKind::Cgu => Some(3.0),
            PolicyKind::Cpg(b, a) if b.as_f64() > 1.0 && a.as_f64() > 1.0 => {
                Some(cioq_core::params::cpg_ratio(b.as_f64(), a.as_f64()))
            }
            PolicyKind::KrMaxWeight(_) => Some(6.0),
            _ => None,
        }
    }

    /// Run this policy on a built [`Engine`] of a `cfg` switch — fresh or
    /// restored, under whatever options it carries — against `source`. The
    /// one place a kind becomes a policy object; every other run in the
    /// crate projects from it.
    pub fn run(
        self,
        cfg: &SwitchConfig,
        engine: Engine,
        source: &mut dyn ArrivalSource,
    ) -> Result<RunOutcome, PolicyError> {
        match self {
            PolicyKind::Gm => engine.run_cioq_full(&mut GreedyMatching::new(), source),
            PolicyKind::GmRotate => engine.run_cioq_full(
                &mut GreedyMatching::with_edge_policy(GmEdgePolicy::RotateByCycle),
                source,
            ),
            PolicyKind::GmPartitioned(k) => {
                let gm = GreedyMatching::new();
                engine.run_cioq_full(&mut Partitioned::new(&gm, k, cfg), source)
            }
            PolicyKind::Pg(beta) => {
                engine.run_cioq_full(&mut PreemptiveGreedy::with_beta(beta), source)
            }
            PolicyKind::PgNoPreempt => {
                engine.run_cioq_full(&mut PreemptiveGreedy::without_preemption(), source)
            }
            PolicyKind::KrMaxMatching => engine.run_cioq_full(&mut MaxMatching::new(), source),
            PolicyKind::KrMaxWeight(beta) => {
                engine.run_cioq_full(&mut MaxWeightMatching::with_beta(beta), source)
            }
            PolicyKind::Islip(k) => engine.run_cioq_full(&mut IslipPolicy::new(k), source),
            PolicyKind::Cgu => engine.run_crossbar_full(&mut CrossbarGreedyUnit::new(), source),
            PolicyKind::Cpg(beta, alpha) => engine.run_crossbar_full(
                &mut CrossbarPreemptiveGreedy::with_params(beta, alpha),
                source,
            ),
            PolicyKind::CpgSingleParam => {
                engine.run_crossbar_full(&mut CrossbarPreemptiveGreedy::single_parameter(), source)
            }
        }
    }
}

/// Run a policy on a recorded trace under `options`
/// (`RunOptions::default()`: drained, immediate fabric).
pub fn run_policy(
    kind: PolicyKind,
    cfg: &SwitchConfig,
    trace: &Trace,
    options: RunOptions,
) -> Result<RunReport, PolicyError> {
    let engine = Engine::new(cfg.clone(), options);
    Ok(kind.run(cfg, engine, &mut TraceSource::new(trace))?.report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cioq_model::PortId;

    #[test]
    fn registry_runs_every_cioq_policy() {
        let cfg = SwitchConfig::cioq(2, 4, 1);
        let trace = Trace::from_tuples([
            (0, PortId(0), PortId(1), 3),
            (0, PortId(1), PortId(0), 5),
            (1, PortId(0), PortId(0), 2),
        ]);
        for kind in [
            PolicyKind::Gm,
            PolicyKind::GmRotate,
            PolicyKind::GmPartitioned(2),
            PolicyKind::pg_default(),
            PolicyKind::PgNoPreempt,
            PolicyKind::KrMaxMatching,
            PolicyKind::KrMaxWeight(Threshold::ratio(2, 1)),
            PolicyKind::Islip(2),
        ] {
            assert!(!kind.is_crossbar());
            let r = run_policy(kind, &cfg, &trace, RunOptions::default()).unwrap();
            assert_eq!(r.benefit.0, 10, "{} must deliver all", kind.label());
        }
    }

    #[test]
    fn registry_runs_every_crossbar_policy() {
        let cfg = SwitchConfig::crossbar(2, 4, 2, 1);
        let trace =
            Trace::from_tuples([(0, PortId(0), PortId(1), 3), (0, PortId(1), PortId(0), 5)]);
        for kind in [
            PolicyKind::Cgu,
            PolicyKind::cpg_default(),
            PolicyKind::CpgSingleParam,
        ] {
            assert!(kind.is_crossbar());
            let r = run_policy(kind, &cfg, &trace, RunOptions::default()).unwrap();
            assert_eq!(r.benefit.0, 8, "{} must deliver all", kind.label());
        }
    }

    #[test]
    fn theoretical_ratios_present() {
        assert_eq!(PolicyKind::Gm.theoretical_ratio(), Some(3.0));
        let pg = PolicyKind::pg_default().theoretical_ratio().unwrap();
        assert!((pg - 5.828).abs() < 1e-3);
        let cpg = PolicyKind::cpg_default().theoretical_ratio().unwrap();
        assert!((cpg - 14.83).abs() < 0.01);
        assert_eq!(PolicyKind::Islip(2).theoretical_ratio(), None);
    }
}
