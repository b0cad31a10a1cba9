//! Lockstep equivalence of partitioned GM and whole-switch GM: identical
//! **per-cycle transfer sets**, **admission transcripts**, **run
//! reports**, and **final queue states** at shard counts K ∈ {1, 2, 4}.
//! Both run on the one `Engine`: `Partitioned` wraps K workers, each
//! proposing over its own input rows, and a merge in a policy, so what
//! differs between the two sides is the scheduler, never the slot.
//!
//! Both sides run under the recording wrapper, so their full decision
//! transcripts are captured. Equal transcripts + equal final states + equal
//! reports pin the two schedulers cycle for cycle, not just end to end.

mod common;

use cioq_core::{GreedyMatching, ShardedGm};
use cioq_model::{PortId, SwitchConfig};
use cioq_sim::{
    run_cioq, CioqPolicy, CioqShardPolicy, Engine, Partitioned, PolicyError, RunOptions, Trace,
};
use cioq_traffic::adversary::gm_iq_flood;
use cioq_traffic::{
    gen_trace, FullFabricChurn, Incast, IncastStorm, OnOffBursty, TrafficGen, ValueDist,
};
use common::{assert_agree, recorded_run};
use proptest::prelude::*;

const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

/// Run the partitioned twin at every shard count and compare every
/// observable against the whole-switch reference.
fn check_cioq(
    cfg: &SwitchConfig,
    seq: impl Fn() -> Box<dyn CioqPolicy>,
    sharded: &dyn CioqShardPolicy,
    trace: &Trace,
) {
    check_cioq_at(cfg, seq, sharded, trace, &SHARD_COUNTS);
}

/// [`check_cioq`] over the shard counts `ks` only.
fn check_cioq_at(
    cfg: &SwitchConfig,
    seq: impl Fn() -> Box<dyn CioqPolicy>,
    sharded: &dyn CioqShardPolicy,
    trace: &Trace,
    ks: &[usize],
) {
    let options = RunOptions::default();
    let (reference, ref_schedule) = recorded_run(
        cfg,
        &mut *seq(),
        Engine::run_cioq_full,
        trace,
        &options,
        None,
    );
    for &k in ks {
        let what = format!("{} k={k}", reference.report.policy);
        let partitioned = Partitioned::new(sharded, k, cfg);
        let run = Engine::run_cioq_full;
        let (outcome, schedule) = recorded_run(cfg, partitioned, run, trace, &options, None);
        assert_eq!(
            schedule.admissions, ref_schedule.admissions,
            "{what}: admissions"
        );
        assert_eq!(
            schedule.transfers, ref_schedule.transfers,
            "{what}: per-cycle transfer sets"
        );
        assert_agree(&outcome, &reference, &what);
    }
}

fn trace_from(n: usize, arrivals: &[(u8, u8, u8, u64)]) -> Trace {
    Trace::from_tuples(arrivals.iter().map(|&(t, i, j, v)| {
        (
            t as u64,
            PortId((i as usize % n) as u16),
            PortId((j as usize % n) as u16),
            v,
        )
    }))
}

// ---- random traffic (property tests) ----

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Random bursty/value-skewed traces: GM partitioned K ∈ {1,2,4}
    /// equals whole-switch GM in every observable.
    #[test]
    fn cioq_sharded_equals_sequential(
        n in 1usize..7,
        speedup in 1u32..4,
        in_cap in 1usize..4,
        out_cap in 1usize..4,
        arrivals in prop::collection::vec(
            (0u8..12, 0u8..7, 0u8..7, 1u64..64),
            0..110,
        ),
    ) {
        let cfg = SwitchConfig::builder(n, n)
            .speedup(speedup)
            .input_capacity(in_cap)
            .output_capacity(out_cap)
            .build()
            .unwrap();
        let trace = trace_from(n, &arrivals);
        check_cioq(&cfg, || Box::new(GreedyMatching::new()), &ShardedGm::new(), &trace);
    }

}

// ---- adversarial traffic (deterministic) ----

/// The IQ-model flood that pins greedy unit algorithms to `2 − 1/m`: a
/// single output column, which every shard's proposals contend for.
#[test]
fn adversarial_flood_equivalence() {
    let cfg = SwitchConfig::iq_model(8, 4);
    let trace = gm_iq_flood(8, 4);
    check_cioq(
        &cfg,
        || Box::new(GreedyMatching::new()),
        &ShardedGm::new(),
        &trace,
    );
}

/// Incast storms dirty several whole VOQ columns per slot — maximal
/// cross-shard output contention for the merge step.
#[test]
fn incast_storm_equivalence() {
    let cfg = SwitchConfig::cioq(12, 3, 2);
    let gen = IncastStorm::new(
        4,
        3,
        2,
        0.4,
        ValueDist::Zipf {
            max: 32,
            exponent: 1.1,
        },
    );
    let trace = gen_trace(&gen, &cfg, 48, 0xC01);
    check_cioq(
        &cfg,
        || Box::new(GreedyMatching::new()),
        &ShardedGm::new(),
        &trace,
    );
}

/// Full-fabric churn: every row dirtied every slot with rotating columns,
/// so every shard's cache repairs and the merge are under constant
/// pressure.
#[test]
fn full_fabric_churn_equivalence() {
    let gen = FullFabricChurn::new(2, 5, ValueDist::Uniform { max: 50 });

    let cfg = SwitchConfig::cioq(10, 2, 1);
    let trace = gen_trace(&gen, &cfg, 40, 0xC11);
    check_cioq(
        &cfg,
        || Box::new(GreedyMatching::new()),
        &ShardedGm::new(),
        &trace,
    );
}

/// Bursty on-off traffic on an asymmetric switch: shards get uneven row
/// bands, each M = 5 columns wide (N ≠ M).
#[test]
fn asymmetric_bursty_equivalence() {
    let cfg = SwitchConfig::builder(9, 5)
        .speedup(2)
        .input_capacity(3)
        .output_capacity(2)
        .build()
        .unwrap();
    let gen = OnOffBursty::new(
        0.8,
        6.0,
        ValueDist::Bimodal {
            high: 40,
            p_high: 0.2,
        },
    );
    let trace = gen.generate(&cfg, 64, 0xA5);
    check_cioq(
        &cfg,
        || Box::new(GreedyMatching::new()),
        &ShardedGm::new(),
        &trace,
    );
}

/// GM on 9 × 70 ports at K ∈ {2, 4}: every occupancy row after the first
/// starts mid-word, the shards own unequal bands of those rows, and the
/// merge claims from a two-word free mask. Incast events rotate over all 70
/// outputs into single-packet output queues, so columns on both sides of
/// the word boundary go full and free again — both sides' row-word greedy
/// on the layout that needs its stitching.
#[test]
fn gm_word_straddling_rows_equivalence() {
    let cfg = SwitchConfig::builder(9, 70)
        .speedup(2)
        .input_capacity(3)
        .output_capacity(1)
        .build()
        .unwrap();
    let gen = Incast::new(2, 2, 0.9, ValueDist::Uniform { max: 9 });
    let trace = gen_trace(&gen, &cfg, 160, 0x970);
    check_cioq_at(
        &cfg,
        || Box::new(GreedyMatching::new()),
        &ShardedGm::new(),
        &trace,
        &[2, 4],
    );
}

/// More shards than ports: empty shards must be inert, not wrong — GM's
/// first band included, which at k = 5 on 2 ports owns no row and
/// publishes only its mask.
#[test]
fn more_shards_than_ports() {
    let cfg = SwitchConfig::cioq(2, 2, 1);
    let trace = Trace::from_tuples([
        (0, PortId(0), PortId(1), 9),
        (0, PortId(1), PortId(0), 4),
        (1, PortId(0), PortId(0), 7),
        (2, PortId(1), PortId(1), 2),
    ]);
    let gm = || Box::new(GreedyMatching::new()) as _;
    check_cioq_at(&cfg, gm, &ShardedGm::new(), &trace, &[5]);
}

/// GM's first band matches in place and the merge continues from the mask
/// it publishes. Every input sends to outputs 0 and 1 in slots 0–3 with
/// B = 1, so rows on both sides of band 0's edge contend for the same two
/// columns: a merge that forgot what band 0 took would hand a column out
/// twice.
#[test]
fn gm_first_band_claims_before_the_merge() {
    let cfg = SwitchConfig::cioq(8, 1, 1);
    let trace = Trace::from_tuples(
        (0..4).flat_map(|t| (0..8).flat_map(move |i| [0, 1].map(|j| (t, PortId(i), PortId(j), 1)))),
    );
    let gm = || Box::new(GreedyMatching::new()) as _;
    check_cioq_at(&cfg, gm, &ShardedGm::new(), &trace, &[2, 4]);
}

/// A packet on a port outside the switch is refused with the same error by
/// every engine, wherever in the run it arrives. The bad input is a row no
/// shard owns, so this fails if a sharded run ever looks up the packet's
/// owner before validating it.
#[test]
fn bad_port_is_the_same_error_from_every_engine() {
    let cfg = SwitchConfig::cioq(4, 2, 1);
    for (side, input, output) in [("input", 4, 1), ("output", 1, 4)] {
        let trace = Trace::from_tuples([
            (0, PortId(0), PortId(1), 9),
            (0, PortId(3), PortId(0), 4),
            (1, PortId(2), PortId(2), 7),
            (2, PortId(1), PortId(3), 5),
            (2, PortId(input), PortId(output), 6),
            (2, PortId(3), PortId(3), 2),
            (3, PortId(0), PortId(0), 1),
        ]);
        let expected = PolicyError::PortOutOfRange { side, port: 4 };
        let sequential = run_cioq(&cfg, &mut GreedyMatching::new(), &trace);
        assert_eq!(sequential.expect_err("sequential"), expected);
        for k in SHARD_COUNTS {
            let what = format!("bad {side} k={k}");
            let gm = ShardedGm::new();
            let sharded = run_cioq(&cfg, &mut Partitioned::new(&gm, k, &cfg), &trace);
            assert_eq!(sharded.expect_err(&what), expected, "{what}");
        }
    }
}
