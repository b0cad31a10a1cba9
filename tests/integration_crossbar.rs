//! End-to-end buffered-crossbar integration.

use cioq_switch::prelude::*;
use proptest::prelude::*;

fn policies() -> Vec<Box<dyn CrossbarPolicy>> {
    vec![
        Box::new(CrossbarGreedyUnit::new()),
        Box::new(CrossbarPreemptiveGreedy::new()),
        Box::new(CrossbarPreemptiveGreedy::single_parameter()),
    ]
}

#[test]
fn all_crossbar_policies_conserve() {
    let cfg = SwitchConfig::crossbar(5, 3, 2, 2);
    let gen = OnOffBursty::new(
        0.9,
        6.0,
        ValueDist::Zipf {
            max: 16,
            exponent: 1.0,
        },
    );
    let trace = gen_trace(&gen, &cfg, 250, 77);
    for mut policy in policies() {
        let report = run_crossbar(&cfg, policy.as_mut(), &trace).unwrap();
        report
            .check_conservation()
            .unwrap_or_else(|e| panic!("{}: {e}", report.policy));
        // Every packet that reached an output queue passed the crossbar.
        assert!(report.transferred <= report.transferred_to_crossbar);
    }
}

#[test]
fn cgu_never_preempts_anywhere() {
    let cfg = SwitchConfig::crossbar(4, 1, 1, 1);
    let gen = BernoulliUniform::new(1.0, ValueDist::Uniform { max: 9 });
    let trace = gen_trace(&gen, &cfg, 150, 3);
    let report = run_crossbar(&cfg, &mut CrossbarGreedyUnit::new(), &trace).unwrap();
    assert_eq!(report.losses.preempted_input, 0);
    assert_eq!(report.losses.preempted_crossbar, 0);
    assert_eq!(report.losses.preempted_output, 0);
}

#[test]
fn cpg_beats_cgu_on_weighted_overload() {
    let cfg = SwitchConfig::crossbar(4, 2, 1, 1);
    let gen = OnOffBursty::new(
        0.95,
        16.0,
        ValueDist::Bimodal {
            high: 500,
            p_high: 0.05,
        },
    );
    let trace = gen_trace(&gen, &cfg, 400, 13);
    let cgu = run_crossbar(&cfg, &mut CrossbarGreedyUnit::new(), &trace).unwrap();
    let cpg = run_crossbar(&cfg, &mut CrossbarPreemptiveGreedy::new(), &trace).unwrap();
    assert!(
        cpg.benefit > cgu.benefit,
        "CPG {} must beat CGU {} when values matter",
        cpg.benefit,
        cgu.benefit
    );
}

#[test]
fn crossbar_buffers_help_under_incast() {
    // Same traffic, same port buffers: bigger crosspoint buffers should
    // not reduce (and typically increase) unit throughput under incast.
    let gen = Incast::new(6, 2, 0.3, ValueDist::Unit);
    let mut last = 0u64;
    for bc in [1usize, 2, 4] {
        let cfg = SwitchConfig::crossbar(8, 2, bc, 1);
        let trace = gen_trace(&gen, &cfg, 240, 9);
        let report = run_crossbar(&cfg, &mut CrossbarGreedyUnit::new(), &trace).unwrap();
        assert!(
            report.transmitted + 12 >= last,
            "B_c={bc}: {} much worse than {last}",
            report.transmitted
        );
        last = report.transmitted.max(last);
    }
}

#[test]
fn crossbar_vs_cioq_same_traffic() {
    // A buffered crossbar decouples input and output contention; under
    // incast it should not deliver less than plain CIOQ with equal port
    // buffers.
    let gen = Incast::new(6, 2, 0.3, ValueDist::Unit);
    let cioq_cfg = SwitchConfig::cioq(8, 2, 1);
    let xbar_cfg = SwitchConfig::crossbar(8, 2, 2, 1);
    let cioq_trace = gen_trace(&gen, &cioq_cfg, 240, 9);
    let xbar_trace = gen_trace(&gen, &xbar_cfg, 240, 9);
    let gm = run_cioq(&cioq_cfg, &mut GreedyMatching::new(), &cioq_trace).unwrap();
    let cgu = run_crossbar(&xbar_cfg, &mut CrossbarGreedyUnit::new(), &xbar_trace).unwrap();
    assert!(
        cgu.transmitted as f64 >= 0.95 * gm.transmitted as f64,
        "crossbar {} should be at least on par with CIOQ {}",
        cgu.transmitted,
        gm.transmitted
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Conservation for crossbar policies on random workloads.
    #[test]
    fn conservation_on_random_crossbar_workloads(
        seed in 0u64..500,
        load in 0.1f64..1.0,
        n in 1usize..4,
        bc in 1usize..3,
    ) {
        let cfg = SwitchConfig::crossbar(n, 2, bc, 1);
        let gen = BernoulliUniform::new(load, ValueDist::Uniform { max: 9 });
        let trace = gen_trace(&gen, &cfg, 50, seed);
        for mut policy in policies() {
            let report = run_crossbar(&cfg, policy.as_mut(), &trace).unwrap();
            prop_assert!(report.check_conservation().is_ok(),
                "{} violates conservation", report.policy);
        }
    }
}
