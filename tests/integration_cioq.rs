//! End-to-end CIOQ integration: determinism, conservation, cross-policy
//! sanity, speedup behaviour, and engine validation of illegal policies.

use cioq_switch::prelude::*;
use proptest::prelude::*;

fn policies() -> Vec<Box<dyn CioqPolicy>> {
    vec![
        Box::new(GreedyMatching::new()),
        Box::new(GreedyMatching::with_edge_policy(
            GmEdgePolicy::RotateByCycle,
        )),
        Box::new(PreemptiveGreedy::new()),
        Box::new(PreemptiveGreedy::with_beta(Threshold::from_f64(1.5))),
        Box::new(PreemptiveGreedy::without_preemption()),
        Box::new(MaxMatching::new()),
        Box::new(MaxWeightMatching::new()),
        Box::new(IslipPolicy::new(2)),
    ]
}

#[test]
fn all_policies_conserve_packets_on_heavy_traffic() {
    let cfg = SwitchConfig::cioq(6, 3, 2);
    let gen = OnOffBursty::new(
        0.9,
        8.0,
        ValueDist::Zipf {
            max: 32,
            exponent: 1.0,
        },
    );
    let trace = gen_trace(&gen, &cfg, 300, 17);
    for mut policy in policies() {
        let report = run_cioq(&cfg, policy.as_mut(), &trace).unwrap();
        report
            .check_conservation()
            .unwrap_or_else(|e| panic!("{}: {e}", report.policy));
        assert_eq!(report.arrived as usize, trace.len());
        assert!(report.benefit.0 <= trace.total_value());
    }
}

#[test]
fn runs_are_deterministic() {
    let cfg = SwitchConfig::cioq(4, 4, 1);
    let gen = BernoulliUniform::new(0.8, ValueDist::Uniform { max: 16 });
    let trace = gen_trace(&gen, &cfg, 200, 5);
    let a = run_cioq(&cfg, &mut PreemptiveGreedy::new(), &trace).unwrap();
    let b = run_cioq(&cfg, &mut PreemptiveGreedy::new(), &trace).unwrap();
    assert_eq!(a.benefit, b.benefit);
    assert_eq!(a.transmitted, b.transmitted);
    assert_eq!(a.losses.total_count(), b.losses.total_count());
    assert_eq!(a.latency_sum, b.latency_sum);
}

#[test]
fn higher_speedup_never_hurts_gm_throughput() {
    let gen = Hotspot::new(0.9, 0.6, 0, ValueDist::Unit);
    let mut last = 0u64;
    for s in [1u32, 2, 4] {
        let cfg = SwitchConfig::cioq(8, 4, s);
        let trace = gen_trace(&gen, &cfg, 300, 23);
        let report = run_cioq(&cfg, &mut GreedyMatching::new(), &trace).unwrap();
        assert!(
            report.transmitted >= last,
            "speedup {s} delivered {} < previous {last}",
            report.transmitted
        );
        last = report.transmitted;
    }
}

#[test]
fn pg_beats_gm_on_strongly_weighted_traffic() {
    // Shallow buffers + bimodal values: value-blind GM drops gold packets
    // that PG preempts for.
    let cfg = SwitchConfig::cioq(4, 2, 1);
    let gen = OnOffBursty::new(
        0.95,
        16.0,
        ValueDist::Bimodal {
            high: 1000,
            p_high: 0.05,
        },
    );
    let trace = gen_trace(&gen, &cfg, 400, 31);
    let gm = run_cioq(&cfg, &mut GreedyMatching::new(), &trace).unwrap();
    let pg = run_cioq(&cfg, &mut PreemptiveGreedy::new(), &trace).unwrap();
    assert!(
        pg.benefit > gm.benefit,
        "PG {} should beat GM {} on bimodal overload",
        pg.benefit,
        gm.benefit
    );
}

#[test]
fn gm_matches_maximum_matching_baseline_closely() {
    // The paper's point: greedy maximal is as good as maximum in practice.
    let cfg = SwitchConfig::cioq(8, 4, 1);
    let gen = BernoulliUniform::new(0.95, ValueDist::Unit);
    let trace = gen_trace(&gen, &cfg, 500, 11);
    let gm = run_cioq(&cfg, &mut GreedyMatching::new(), &trace).unwrap();
    let kr = run_cioq(&cfg, &mut MaxMatching::new(), &trace).unwrap();
    let ratio = kr.transmitted as f64 / gm.transmitted.max(1) as f64;
    assert!(
        ratio < 1.05,
        "maximum matching should not beat greedy by more than 5%, got {ratio}"
    );
}

/// An intentionally illegal policy: transfers from two queues of the same
/// input port in one cycle.
struct IllegalDoubleInput;
impl CioqPolicy for IllegalDoubleInput {
    fn name(&self) -> &str {
        "illegal"
    }
    fn admit(&mut self, _: &cioq_switch::sim::SwitchView<'_>, _: &Packet) -> Admission {
        Admission::Accept
    }
    fn schedule(
        &mut self,
        view: &cioq_switch::sim::SwitchView<'_>,
        _: cioq_switch::model::Cycle,
        out: &mut Vec<Transfer>,
    ) {
        let q0 = view.input_queue(PortId(0), PortId(0));
        let q1 = view.input_queue(PortId(0), PortId(1));
        if !q0.is_empty() && !q1.is_empty() {
            for output in [PortId(0), PortId(1)] {
                out.push(Transfer {
                    input: PortId(0),
                    output,
                    preempt_if_full: false,
                });
            }
        }
    }
}

#[test]
fn engine_rejects_matching_violations() {
    let cfg = SwitchConfig::cioq(2, 4, 1);
    let trace = Trace::from_tuples([(0, PortId(0), PortId(0), 1), (0, PortId(0), PortId(1), 1)]);
    let err = run_cioq(&cfg, &mut IllegalDoubleInput, &trace).unwrap_err();
    assert!(matches!(
        err,
        cioq_switch::sim::PolicyError::DuplicateInput { .. }
    ));
}

/// A lazy policy that never schedules: the engine's drain logic must
/// terminate anyway and account residual packets.
struct DoNothing;
impl CioqPolicy for DoNothing {
    fn name(&self) -> &str {
        "do-nothing"
    }
    fn admit(&mut self, view: &cioq_switch::sim::SwitchView<'_>, p: &Packet) -> Admission {
        if view.input_queue(p.input, p.output).is_full() {
            Admission::Reject
        } else {
            Admission::Accept
        }
    }
    fn schedule(
        &mut self,
        _: &cioq_switch::sim::SwitchView<'_>,
        _: cioq_switch::model::Cycle,
        _: &mut Vec<Transfer>,
    ) {
    }
}

#[test]
fn engine_terminates_on_non_work_conserving_policy() {
    let cfg = SwitchConfig::cioq(2, 4, 1);
    let trace = Trace::from_tuples([(0, PortId(0), PortId(0), 5)]);
    let report = run_cioq(&cfg, &mut DoNothing, &trace).unwrap();
    assert_eq!(report.transmitted, 0);
    assert_eq!(report.residual_count, 1);
    assert_eq!(report.residual_value, 5);
    report.check_conservation().unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Conservation holds for every policy on arbitrary random workloads.
    #[test]
    fn conservation_on_random_workloads(
        seed in 0u64..1000,
        load in 0.1f64..1.0,
        n in 1usize..5,
        b in 1usize..4,
        speedup in 1u32..3,
    ) {
        let cfg = SwitchConfig::cioq(n, b, speedup);
        let gen = BernoulliUniform::new(load, ValueDist::Uniform { max: 9 });
        let trace = gen_trace(&gen, &cfg, 60, seed);
        for mut policy in policies() {
            let report = run_cioq(&cfg, policy.as_mut(), &trace).unwrap();
            prop_assert!(report.check_conservation().is_ok(),
                "{} violates conservation", report.policy);
        }
    }

    /// GM never preempts and never drops below the per-queue guarantee:
    /// everything rejected must have arrived to a full queue.
    #[test]
    fn gm_rejects_only_when_full(
        seed in 0u64..500,
        n in 1usize..4,
    ) {
        let cfg = SwitchConfig::cioq(n, 2, 1);
        let gen = BernoulliUniform::new(1.0, ValueDist::Unit);
        let trace = gen_trace(&gen, &cfg, 50, seed);
        let report = run_cioq(&cfg, &mut GreedyMatching::new(), &trace).unwrap();
        prop_assert_eq!(report.losses.preempted_input, 0);
        prop_assert_eq!(report.losses.preempted_output, 0);
    }
}
