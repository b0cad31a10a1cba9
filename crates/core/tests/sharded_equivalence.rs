//! Lockstep equivalence of the sharded engine and the sequential engine:
//! identical **per-cycle transfer sets**, **admission transcripts**, **run
//! reports**, and **final queue states** — for GM (the one policy the
//! sharded engine runs), shard counts K ∈ {1, 2, 4}, and both execution
//! modes (inline and real threads).
//!
//! The sequential side runs under a recording wrapper so its full decision
//! transcript is captured; the sharded side records its merged decisions.
//! Equal transcripts + equal final states + equal reports pin the two
//! engines cycle for cycle, not just end to end — the ISSUE's "bit
//! identical" bar. The thread-count matrix in CI reruns this suite under
//! different `--test-threads` so scheduling races cannot hide behind one
//! lucky interleaving.

use cioq_core::{GreedyMatching, ShardedGm};
use cioq_model::{PortId, SwitchConfig};
use cioq_sim::{
    run_cioq, run_cioq_sharded, CioqPolicy, CioqShardPolicy, ExecMode, PolicyError,
    RecordedSchedule, Recording, RunOptions, RunReport, ShardedOptions, SwitchState, Trace,
    TraceSource,
};
use cioq_traffic::adversary::gm_iq_flood;
use cioq_traffic::{
    gen_trace, FullFabricChurn, Incast, IncastStorm, OnOffBursty, TrafficGen, ValueDist,
};
use proptest::prelude::*;

const SHARD_COUNTS: [usize; 3] = [1, 2, 4];
const MODES: [ExecMode; 2] = [ExecMode::Inline, ExecMode::Threads];

// ---- comparison helpers ----

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
        a.latency_histogram, b.latency_histogram,
        "{what}: latency histogram"
    );
    assert_eq!(
        a.per_output_transmitted, b.per_output_transmitted,
        "{what}: per-output counts"
    );
    assert_eq!(a.residual_count, b.residual_count, "{what}: residual count");
    assert_eq!(a.residual_value, b.residual_value, "{what}: residual value");
}

fn assert_states_equal(a: &SwitchState, b: &SwitchState, what: &str) {
    let (va, vb) = (a.view(), b.view());
    assert_eq!(va.n_inputs(), vb.n_inputs(), "{what}: inputs");
    assert_eq!(va.n_outputs(), vb.n_outputs(), "{what}: outputs");
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

/// Sequential reference run: full transcript + report + final state.
fn seq_cioq(
    cfg: &SwitchConfig,
    mut policy: Box<dyn CioqPolicy>,
    trace: &Trace,
) -> (RunReport, RecordedSchedule, SwitchState) {
    let mut rec = Recording::new(&mut *policy);
    let mut source = TraceSource::new(trace);
    let (report, state) = cioq_sim::Engine::new(cfg.clone(), RunOptions::default())
        .run_cioq_capturing(&mut rec, &mut source)
        .expect("sequential run");
    (report, rec.into_schedule(), state)
}

fn sharded_options(k: usize, mode: ExecMode) -> ShardedOptions {
    let mut opts = ShardedOptions::new(k);
    opts.mode = mode;
    opts.record = true;
    opts.capture_final_state = true;
    opts
}

/// Run the sharded twin across the full K × mode matrix and compare every
/// observable against the sequential reference.
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
    let (ref_report, ref_schedule, ref_state) = seq_cioq(cfg, seq(), trace);
    for &k in ks {
        for mode in MODES {
            let what = format!("{} k={k} mode={mode:?}", ref_report.policy);
            let outcome = run_cioq_sharded(cfg, sharded, trace, sharded_options(k, mode))
                .unwrap_or_else(|e| panic!("{what}: sharded run failed: {e}"));
            let schedule = outcome.schedule.as_ref().expect("recording requested");
            assert_eq!(
                schedule.admissions, ref_schedule.admissions,
                "{what}: admissions"
            );
            assert_eq!(
                schedule.transfers, ref_schedule.transfers,
                "{what}: per-cycle transfer sets"
            );
            assert_reports_equal(&outcome.report, &ref_report, &what);
            assert_states_equal(
                outcome.final_state.as_ref().expect("capture requested"),
                &ref_state,
                &what,
            );
        }
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

    /// Random bursty/value-skewed traces: GM sharded K ∈ {1,2,4} ×
    /// {inline, threads} equals the sequential engine in every observable.
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
/// single output column (shards 1..K own empty output bands — the extreme
/// asymmetric partition).
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

/// Bursty on-off traffic on an asymmetric switch: shards get uneven,
/// non-square bands (N ≠ M exercises the independent input/output
/// partitions).
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

/// GM on 9 × 70 ports at K ∈ {2, 4}: every head-graph row after the first
/// starts mid-word, the shards own unequal bands of those rows, and the
/// merge claims from a two-word free mask. Incast events rotate over all 70
/// outputs into single-packet output queues, so columns on both sides of
/// the word boundary go full and free again — both engines' row-word greedy
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
            for mode in MODES {
                let what = format!("bad {side} k={k} mode={mode:?}");
                let options = sharded_options(k, mode);
                let sharded = run_cioq_sharded(&cfg, &ShardedGm::new(), &trace, options);
                assert_eq!(sharded.expect_err(&what), expected, "{what}");
            }
        }
    }
}
