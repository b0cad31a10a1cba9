//! The dirty-set-width stress workloads (incast storms dirtying whole
//! columns, full-fabric churn touching every row every slot) against the
//! incremental-vs-rescan equivalence guarantee.
//!
//! PR 2's equivalence suite runs narrow random traffic; these workloads
//! push the change log to its widest regimes — Θ(N) dirty cells in one
//! column, Θ(N·d) spread over all columns — where a repair bug in the
//! incremental builders would actually bite. Every check compares full run
//! reports **and** final queue states between the production (incremental)
//! policy and its from-scratch `cioq_core::oracle` reference.

mod common;

use cioq_core::{
    oracle, CrossbarGreedyUnit, CrossbarPreemptiveGreedy, GmEdgePolicy, GreedyMatching,
    PreemptiveGreedy,
};
use cioq_model::{SwitchConfig, Threshold};
use cioq_sim::{CioqPolicy, CrossbarPolicy, Engine, RunOptions, Trace, TraceSource};
use cioq_traffic::{gen_trace, FullFabricChurn, IncastStorm, TrafficGen, ValueDist};
use common::assert_agree;

fn check_cioq_pair(
    cfg: &SwitchConfig,
    trace: &Trace,
    mut incremental: impl CioqPolicy,
    mut rescan: impl CioqPolicy,
    what: &str,
) {
    let engine = || Engine::new(cfg.clone(), RunOptions::default());
    let inc = engine()
        .run_cioq_full(&mut incremental, &mut TraceSource::new(trace))
        .expect("incremental run");
    let mut ref_ = engine()
        .run_cioq_full(&mut rescan, &mut TraceSource::new(trace))
        .expect("rescan run");
    // The oracle twin reports under its own name; nothing else may differ.
    ref_.report.policy.clone_from(&inc.report.policy);
    assert_agree(&inc, &ref_, what);
}

fn check_crossbar_pair(
    cfg: &SwitchConfig,
    trace: &Trace,
    mut incremental: impl CrossbarPolicy,
    mut rescan: impl CrossbarPolicy,
    what: &str,
) {
    let engine = || Engine::new(cfg.clone(), RunOptions::default());
    let inc = engine()
        .run_crossbar_full(&mut incremental, &mut TraceSource::new(trace))
        .expect("incremental run");
    let mut ref_ = engine()
        .run_crossbar_full(&mut rescan, &mut TraceSource::new(trace))
        .expect("rescan run");
    // The oracle twin reports under its own name; nothing else may differ.
    ref_.report.policy.clone_from(&inc.report.policy);
    assert_agree(&inc, &ref_, what);
}

/// Incast storms: several whole VOQ columns dirtied at once, shallow
/// output buffers so the β/α output thresholds stay active.
#[test]
fn incast_storm_incremental_equals_rescan() {
    let cfg = SwitchConfig::builder(16, 16)
        .speedup(2)
        .input_capacity(3)
        .output_capacity(2)
        .build()
        .unwrap();
    for (targets, seed) in [(2usize, 11u64), (5, 12), (16, 13)] {
        let gen = IncastStorm::new(
            3,
            targets,
            2,
            0.3,
            ValueDist::Zipf {
                max: 64,
                exponent: 1.1,
            },
        );
        let trace = gen_trace(&gen, &cfg, 64, seed);
        check_cioq_pair(
            &cfg,
            &trace,
            GreedyMatching::new(),
            oracle::Gm(GmEdgePolicy::Lexicographic),
            &format!("GM storm targets={targets}"),
        );
        check_cioq_pair(
            &cfg,
            &trace,
            PreemptiveGreedy::new(),
            oracle::Pg(Some(Threshold::OnePlusSqrt2)),
            &format!("PG storm targets={targets}"),
        );
    }
}

/// Full-fabric churn at overload (degree 2): every row dirtied every slot,
/// constant preemption under PG.
#[test]
fn full_fabric_churn_incremental_equals_rescan() {
    let cfg = SwitchConfig::cioq(16, 2, 1);
    for (stride, seed) in [(1usize, 21u64), (5, 22), (7, 23)] {
        let gen = FullFabricChurn::new(2, stride, ValueDist::Uniform { max: 40 });
        let trace = gen.generate(&cfg, 48, seed);
        check_cioq_pair(
            &cfg,
            &trace,
            GreedyMatching::new(),
            oracle::Gm(GmEdgePolicy::Lexicographic),
            &format!("GM churn stride={stride}"),
        );
        check_cioq_pair(
            &cfg,
            &trace,
            PreemptiveGreedy::new(),
            oracle::Pg(Some(Threshold::OnePlusSqrt2)),
            &format!("PG churn stride={stride}"),
        );
    }
}

/// The same stress regimes for the crossbar policies: wide dirty sets hit
/// both the row masks (input subphase) and the column caches (output
/// subphase).
#[test]
fn crossbar_stress_incremental_equals_rescan() {
    let cfg = SwitchConfig::crossbar(12, 2, 1, 2);
    let storm = IncastStorm::new(
        4,
        4,
        1,
        0.4,
        ValueDist::Bimodal {
            high: 60,
            p_high: 0.15,
        },
    );
    let storm_trace = gen_trace(&storm, &cfg, 56, 31);
    let churn = FullFabricChurn::new(2, 5, ValueDist::Uniform { max: 30 });
    let churn_trace = gen_trace(&churn, &cfg, 40, 32);

    for (trace, tag) in [(&storm_trace, "storm"), (&churn_trace, "churn")] {
        check_crossbar_pair(
            &cfg,
            trace,
            CrossbarGreedyUnit::new(),
            oracle::Cgu,
            &format!("CGU {tag}"),
        );
        check_crossbar_pair(
            &cfg,
            trace,
            CrossbarPreemptiveGreedy::new(),
            oracle::Cpg {
                beta: Threshold::Tribonacci,
                alpha: Threshold::TribonacciPlusOne,
            },
            &format!("CPG {tag}"),
        );
    }
}
