//! The fabric-transport layer's equivalence and conservation suite.
//!
//! Three pillars:
//!
//! 1. **`FabricSpec::uniform(0)` ≡ the default fabric** — the identity is checked
//!    end to end (admissions, per-cycle transfer sets, reports, final
//!    states) for GM × K ∈ {1, 2, 4}.
//! 2. **Sharded `uniform(d)` ≡ sequential delayed engine** — the
//!    sharded engine's delay line reproduces the reference
//!    delayed-sequential engine bit for bit, for d ∈ {1, 2, 4}, the same policy and
//!    shard counts. This is the delayed analogue of `sharded_equivalence.rs`
//!    (the sharded engine runs GM only).
//! 3. **Conservation in flight** — no packet is lost or duplicated while
//!    riding the delay line, under `FullFabricChurn` (every row dirtied
//!    every slot), drained and steady-state.

use cioq_core::{
    CrossbarGreedyUnit, CrossbarPreemptiveGreedy, GreedyMatching, PreemptiveGreedy, ShardedGm,
};
use cioq_model::{PortId, SlotId, SwitchConfig};
use cioq_sim::{
    run_cioq_sharded, CioqPolicy, CioqShardPolicy, Engine, FabricSpec, RecordedSchedule, Recording,
    RunOptions, RunReport, ShardedOptions, SwitchState, Trace, TraceSource,
};
use cioq_traffic::{gen_trace, FullFabricChurn, IncastStorm, OnOffBursty, ValueDist};

const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

fn assert_reports_equal(a: &RunReport, b: &RunReport, what: &str) {
    assert_eq!(a.policy, b.policy, "{what}: policy name");
    assert_eq!(a.slots, b.slots, "{what}: slots");
    assert_eq!(a.arrived, b.arrived, "{what}: arrived");
    assert_eq!(a.arrived_value, b.arrived_value, "{what}: arrived value");
    assert_eq!(a.accepted, b.accepted, "{what}: accepted");
    assert_eq!(a.transferred, b.transferred, "{what}: transferred");
    assert_eq!(a.transmitted, b.transmitted, "{what}: transmitted");
    assert_eq!(a.benefit, b.benefit, "{what}: benefit");
    assert_eq!(a.losses, b.losses, "{what}: losses");
    assert_eq!(a.latency_sum, b.latency_sum, "{what}: latency sum");
    assert_eq!(
        a.per_output_transmitted, b.per_output_transmitted,
        "{what}: per-output counts"
    );
    assert_eq!(a.residual_count, b.residual_count, "{what}: residual count");
    assert_eq!(a.residual_value, b.residual_value, "{what}: residual value");
    assert_eq!(a.fabric_delay, b.fabric_delay, "{what}: fabric delay");
}

fn assert_states_equal(a: &SwitchState, b: &SwitchState, what: &str) {
    let (va, vb) = (a.view(), b.view());
    for i in 0..va.n_inputs() {
        for j in 0..va.n_outputs() {
            let (input, output) = (PortId::from(i), PortId::from(j));
            assert_eq!(
                va.input_queue(input, output),
                vb.input_queue(input, output),
                "{what}: Q_{i}{j}"
            );
        }
    }
    for j in 0..va.n_outputs() {
        let output = PortId::from(j);
        assert_eq!(
            va.output_queue(output),
            vb.output_queue(output),
            "{what}: Q_{j}"
        );
    }
}

/// Sequential reference run on a latency-`d` fabric.
fn seq_cioq_delayed(
    cfg: &SwitchConfig,
    mut policy: Box<dyn CioqPolicy>,
    trace: &Trace,
    d: SlotId,
) -> (RunReport, RecordedSchedule, SwitchState) {
    let mut rec = Recording::with_fabric(&mut *policy, &FabricSpec::uniform(d));
    let mut source = TraceSource::new(trace);
    let (report, state) = Engine::new(cfg.clone(), seq_options(d))
        .run_cioq_capturing(&mut rec, &mut source)
        .expect("sequential delayed run");
    (report, rec.into_schedule(), state)
}

/// Default sequential options on a uniform latency-`d` fabric.
fn seq_options(d: SlotId) -> RunOptions {
    RunOptions {
        fabric: FabricSpec::uniform(d),
        ..RunOptions::default()
    }
}

fn sharded_options(k: usize, d: SlotId) -> ShardedOptions {
    let mut opts = ShardedOptions::new(k);
    opts.fabric = FabricSpec::uniform(d);
    opts.record = true;
    opts.capture_final_state = true;
    opts
}

/// Full K sweep of a sharded CIOQ policy on a latency-`d` fabric
/// against the delayed sequential reference.
fn check_cioq_delayed(
    cfg: &SwitchConfig,
    seq: impl Fn() -> Box<dyn CioqPolicy>,
    sharded: &dyn CioqShardPolicy,
    trace: &Trace,
    d: SlotId,
) {
    let (ref_report, ref_schedule, ref_state) = seq_cioq_delayed(cfg, seq(), trace, d);
    for k in SHARD_COUNTS {
        let what = format!("{} d={d} k={k}", ref_report.policy);
        let outcome = run_cioq_sharded(cfg, sharded, trace, sharded_options(k, d))
            .unwrap_or_else(|e| panic!("{what}: sharded run failed: {e}"));
        let schedule = outcome.schedule.as_ref().expect("recording requested");
        assert_eq!(schedule, &ref_schedule, "{what}: decision transcript");
        assert_reports_equal(&outcome.report, &ref_report, &what);
        assert_states_equal(
            outcome.final_state.as_ref().expect("capture requested"),
            &ref_state,
            &what,
        );
    }
}

fn cioq_trace(cfg: &SwitchConfig, slots: u64, seed: u64) -> Trace {
    gen_trace(
        &OnOffBursty::new(
            0.85,
            6.0,
            ValueDist::Bimodal {
                high: 40,
                p_high: 0.2,
            },
        ),
        cfg,
        slots,
        seed,
    )
}

// ---------------------------------------------------------------------------
// 1. uniform(0) ≡ the default fabric
// ---------------------------------------------------------------------------

/// `FabricSpec::uniform(0)` must take the immediate fast path in every
/// engine layer: identical transcripts, reports, and final states against
/// the plain sequential reference, for GM.
#[test]
fn delay_zero_is_bit_identical_to_immediate() {
    let cfg = SwitchConfig::builder(6, 6)
        .speedup(2)
        .input_capacity(3)
        .output_capacity(2)
        .build()
        .unwrap();
    let trace = cioq_trace(&cfg, 48, 0xD0);
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
    let trace = cioq_trace(&cfg, 40, 0xD2);
    let plain = cioq_sim::run_cioq(&cfg, &mut PreemptiveGreedy::new(), &trace).unwrap();
    let explicit = Engine::new(cfg.clone(), seq_options(0))
        .run_cioq(&mut PreemptiveGreedy::new(), &mut TraceSource::new(&trace))
        .unwrap();
    assert_reports_equal(&explicit, &plain, "sequential d=0 vs plain");
}

// ---------------------------------------------------------------------------
// 2. Sharded uniform(d) ≡ delayed sequential engine
// ---------------------------------------------------------------------------

/// CIOQ policies across the delay sweep: the sharded engine's delay line
/// reproduces the delayed sequential reference bit for bit.
#[test]
fn cioq_delayed_sharded_equals_sequential() {
    let cfg = SwitchConfig::builder(6, 6)
        .speedup(2)
        .input_capacity(3)
        .output_capacity(2)
        .build()
        .unwrap();
    let trace = cioq_trace(&cfg, 48, 0xD3);
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
/// GM, the sharded engine's one policy, over a Zipf-valued storm.
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
        let report = Engine::new(cfg.clone(), options)
            .run_cioq(&mut GreedyMatching::new(), &mut source)
            .unwrap();
        report
            .check_conservation()
            .unwrap_or_else(|e| panic!("steady state d={d}: {e}"));
        assert!(
            report.residual_count > 0,
            "churn at load keeps backlog, d={d}"
        );

        // The sharded engine stops at the same point with the same books.
        let mut sh = ShardedOptions::new(2);
        sh.fabric = FabricSpec::uniform(d);
        sh.slots = Some(slots);
        sh.drain = false;
        let outcome = run_cioq_sharded(&cfg, &ShardedGm::new(), &trace, sh).unwrap();
        outcome
            .report
            .check_conservation()
            .unwrap_or_else(|e| panic!("sharded steady state d={d}: {e}"));
        assert_reports_equal(&outcome.report, &report, &format!("steady d={d}"));
    }
}
