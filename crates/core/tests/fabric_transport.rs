//! The fabric-transport layer's equivalence and conservation suite.
//!
//! Three pillars:
//!
//! 1. **`FabricSpec::uniform(0)` ≡ the default fabric** — the identity is checked
//!    end to end (admissions, per-cycle transfer sets, reports, final
//!    states) for GM × K ∈ {1, 2, 4}.
//! 2. **Partitioned `uniform(d)` ≡ whole-switch `uniform(d)`** — GM
//!    partitioned over K ∈ {1, 2, 4} shards (`run_cioq_sharded`, a policy
//!    adapter on the one `Engine`, whose one delay line serves both sides)
//!    reproduces whole-switch GM on the same delay line bit for bit, for
//!    d ∈ {1, 2, 4}. This is the delayed analogue of
//!    `sharded_equivalence.rs` (only GM runs partitioned).
//! 3. **Conservation in flight** — no packet is lost or duplicated while
//!    riding the delay line, under `FullFabricChurn` (every row dirtied
//!    every slot), drained and steady-state.

mod common;

use cioq_core::{
    CrossbarGreedyUnit, CrossbarPreemptiveGreedy, GreedyMatching, PreemptiveGreedy, ShardedGm,
};
use cioq_model::{PortId, SlotId, SwitchConfig};
use cioq_sim::{
    run_cioq_sharded, CioqPolicy, CioqShardPolicy, Engine, FabricSpec, RunOptions, Trace,
    TraceSource,
};
use cioq_traffic::{gen_trace, FullFabricChurn, IncastStorm, ValueDist};
use common::{assert_agree, bursty_trace, cioq_cfg, recorded_run, sharded_options};

const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

/// Default sequential options on a uniform latency-`d` fabric.
fn seq_options(d: SlotId) -> RunOptions {
    common::run_options(&FabricSpec::uniform(d), None)
}

/// Full K sweep of a partitioned CIOQ policy on a latency-`d` fabric
/// against its whole-switch twin on the same fabric.
fn check_cioq_delayed(
    cfg: &SwitchConfig,
    seq: impl Fn() -> Box<dyn CioqPolicy>,
    sharded: &dyn CioqShardPolicy,
    trace: &Trace,
    d: SlotId,
) {
    let options = seq_options(d);
    let (reference, ref_schedule) = recorded_run(
        cfg,
        &mut *seq(),
        Engine::run_cioq_full,
        trace,
        &options,
        None,
    );
    for k in SHARD_COUNTS {
        let what = format!("{} d={d} k={k}", reference.report.policy);
        let outcome = run_cioq_sharded(cfg, sharded, trace, sharded_options(k, &options, None))
            .unwrap_or_else(|e| panic!("{what}: sharded run failed: {e}"));
        let schedule = outcome.schedule.as_ref().expect("recording requested");
        assert_eq!(schedule, &ref_schedule, "{what}: decision transcript");
        assert_agree(&outcome, &reference, &what);
    }
}

// ---------------------------------------------------------------------------
// 1. uniform(0) ≡ the default fabric
// ---------------------------------------------------------------------------

/// `FabricSpec::uniform(0)` must take the immediate fast path, whole-switch
/// and partitioned: identical transcripts, reports, and final states
/// against the plain whole-switch reference, for GM.
#[test]
fn delay_zero_is_bit_identical_to_immediate() {
    let cfg = cioq_cfg();
    let trace = bursty_trace(&cfg, 48, 0xD0);
    // d = 0 against the *immediate* sequential reference: both the
    // normalisation and the transport plumbing must vanish.
    check_cioq_delayed(
        &cfg,
        || Box::new(GreedyMatching::new()),
        &ShardedGm::new(),
        &trace,
        0,
    );
}

/// A *sequential* run with `fabric: uniform(0)` spelled out equals the
/// default-options one.
#[test]
fn delay_zero_sequential_matches_plain_run() {
    let cfg = SwitchConfig::cioq(5, 3, 1);
    let trace = bursty_trace(&cfg, 40, 0xD2);
    let plain = cioq_sim::run_cioq(&cfg, &mut PreemptiveGreedy::new(), &trace).unwrap();
    let explicit = Engine::new(cfg.clone(), seq_options(0))
        .run_cioq(&mut PreemptiveGreedy::new(), &mut TraceSource::new(&trace))
        .unwrap();
    assert_eq!(explicit, plain, "sequential d=0 vs plain: report");
}

// ---------------------------------------------------------------------------
// 2. Partitioned uniform(d) ≡ whole-switch uniform(d)
// ---------------------------------------------------------------------------

/// GM across the delay sweep: partitioned runs reproduce the whole-switch
/// reference on the same delay line bit for bit.
#[test]
fn cioq_delayed_sharded_equals_sequential() {
    let cfg = cioq_cfg();
    let trace = bursty_trace(&cfg, 48, 0xD3);
    for d in [1, 2, 4] {
        check_cioq_delayed(
            &cfg,
            || Box::new(GreedyMatching::new()),
            &ShardedGm::new(),
            &trace,
            d,
        );
    }
}

/// Incast concentrates landings: several inputs dispatch to one output in
/// consecutive cycles of one slot (speedup 2), so landing order within a
/// slot matters — the (cycle, output) sort must reproduce dispatch order.
/// GM, the one policy that runs partitioned, over a Zipf-valued storm.
#[test]
fn delayed_incast_landing_order() {
    let cfg = SwitchConfig::builder(8, 4)
        .speedup(2)
        .input_capacity(3)
        .output_capacity(2)
        .build()
        .unwrap();
    let gen = IncastStorm::new(
        3,
        2,
        2,
        0.5,
        ValueDist::Zipf {
            max: 32,
            exponent: 1.1,
        },
    );
    let trace = gen_trace(&gen, &cfg, 40, 0xD5);
    for d in [1, 3] {
        check_cioq_delayed(
            &cfg,
            || Box::new(GreedyMatching::new()),
            &ShardedGm::new(),
            &trace,
            d,
        );
    }
}

// ---------------------------------------------------------------------------
// 3. Conservation: nothing lost or duplicated in flight
// ---------------------------------------------------------------------------

/// Under full-fabric churn with drain, every arrived packet is accounted
/// for — transmitted, lost to an explicit policy decision, or still
/// buffered — at every delay. A packet dropped (or duplicated) by the
/// transport would break the equality.
#[test]
fn conservation_under_churn_all_delays() {
    let gen = FullFabricChurn::new(2, 5, ValueDist::Uniform { max: 50 });
    let cfg = SwitchConfig::cioq(10, 2, 1);
    let trace = gen_trace(&gen, &cfg, 40, 0xC0);
    for d in [0u64, 1, 2, 4, 8] {
        let seq = Engine::new(cfg.clone(), seq_options(d))
            .run_cioq(&mut PreemptiveGreedy::new(), &mut TraceSource::new(&trace))
            .unwrap();
        seq.check_conservation()
            .unwrap_or_else(|e| panic!("sequential d={d}: {e}"));
        assert_eq!(seq.residual_count, 0, "drained run leaves nothing, d={d}");
    }

    let xcfg = SwitchConfig::crossbar(10, 2, 1, 1);
    let xtrace = gen_trace(&gen, &xcfg, 40, 0xC1);
    for d in [0u64, 2, 8] {
        let seq = Engine::new(xcfg.clone(), seq_options(d))
            .run_crossbar(
                &mut CrossbarGreedyUnit::new(),
                &mut TraceSource::new(&xtrace),
            )
            .unwrap();
        seq.check_conservation()
            .unwrap_or_else(|e| panic!("crossbar sequential d={d}: {e}"));
        assert_eq!(seq.residual_count, 0, "drained run leaves nothing, d={d}");
    }
}

/// A crossbar's output subphase is not a matching: every output may take a
/// packet in the same cycle, so on a 2 × 8 crossbar one cycle can put 8
/// packets on the wire, not `min(N, M) = 2`. Flooded for 40 slots on a
/// latency-1 fabric, CPG does that as the crosspoints drain (slot 44
/// lands 8 at once in slot 45); debug builds check every calendar push
/// against the bucket's reservation, so a bucket reserved for 2 fails here.
#[test]
fn crossbar_calendar_reserves_one_landing_per_output() {
    let cfg = SwitchConfig::builder(2, 8)
        .speedup(1)
        .input_capacity(4)
        .output_capacity(4)
        .crossbar_capacity(4)
        .build()
        .unwrap();
    let flood = (0..40)
        .flat_map(|t| (0..2).flat_map(move |i| (0..8).map(move |j| (t, PortId(i), PortId(j), 1))));
    let trace = Trace::from_tuples(flood);
    let report = Engine::new(cfg, seq_options(1))
        .run_crossbar(
            &mut CrossbarPreemptiveGreedy::new(),
            &mut TraceSource::new(&trace),
        )
        .unwrap();
    report.check_conservation().unwrap();
    assert_eq!(report.residual_count, 0);
}

/// Steady state (drain off): packets still riding the delay line when the
/// run stops must appear in the residual, keeping conservation exact.
#[test]
fn steady_state_residual_counts_in_flight() {
    let gen = FullFabricChurn::new(2, 5, ValueDist::Uniform { max: 50 });
    let cfg = SwitchConfig::cioq(8, 2, 1);
    let slots = 24u64;
    let trace = gen_trace(&gen, &cfg, slots, 0xC2);
    for d in [1u64, 4, 8] {
        let options = RunOptions {
            slots: Some(slots),
            drain: false,
            ..seq_options(d)
        };
        let mut source = TraceSource::new(&trace);
        let seq = Engine::new(cfg.clone(), options.clone())
            .run_cioq_full(&mut GreedyMatching::new(), &mut source)
            .unwrap();
        let report = &seq.report;
        report
            .check_conservation()
            .unwrap_or_else(|e| panic!("steady state d={d}: {e}"));
        assert!(
            report.residual_count > 0,
            "churn at load keeps backlog, d={d}"
        );

        // Partitioned GM stops at the same point with the same books.
        let sh = sharded_options(2, &options, None);
        let outcome = run_cioq_sharded(&cfg, &ShardedGm::new(), &trace, sh).unwrap();
        outcome
            .report
            .check_conservation()
            .unwrap_or_else(|e| panic!("sharded steady state d={d}: {e}"));
        assert_agree(&outcome, &seq, &format!("steady d={d}"));
    }
}
