//! The topology-aware fabric's equivalence and conservation suite.
//!
//! Three pillars:
//!
//! 1. **`matrix(Topology::uniform(d))` ≡ `FabricSpec::uniform(d)`** — a uniform
//!    topology must reproduce the uniform delay line bit for bit
//!    (admissions, per-cycle transfer sets, reports, final states), for all
//!    four policies whole-switch and for GM partitioned over K ∈
//!    {1, 2, 4} shards (only GM runs partitioned). Unlike the `d = 0`
//!    normalisation this is *not* structural: the matrix path runs the
//!    per-pair lookup, the landing calendar, and the canonical landing
//!    sort, and must land on the same bits.
//! 2. **Partitioned ≡ whole-switch on a matrix fabric** — on genuinely
//!    heterogeneous fabrics (two-tier rack models, random explicit
//!    matrices, racks scattered across ports) partitioned GM
//!    (`run_cioq_sharded`, a policy adapter on the one `Engine` and its
//!    one delay line) reproduces whole-switch GM bit for bit — including
//!    when rack boundaries do not align with shard boundaries.
//! 3. **Conservation under heterogeneous delays** — property test over
//!    random delay matrices: in-flight + landed + queued packets always
//!    reconcile with arrivals, drained and steady-state.

use cioq_core::{
    CrossbarGreedyUnit, CrossbarPreemptiveGreedy, GreedyMatching, PreemptiveGreedy, ShardedGm,
};
use cioq_model::{PortId, SwitchConfig, Topology};
use cioq_sim::{
    run_cioq_sharded, ArrivalSource, CioqPolicy, CioqShardPolicy, CrossbarPolicy, Engine,
    FabricSpec, PolicyError, RecordedSchedule, Recording, RunOptions, RunOutcome, RunReport,
    ShardedOptions, SwitchState, Trace, TraceSource,
};
use cioq_traffic::{gen_trace, FullFabricChurn, IncastStorm, OnOffBursty, ValueDist};
use proptest::prelude::*;

const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

fn assert_reports_equal(a: &RunReport, b: &RunReport, what: &str) {
    assert_eq!(a.policy, b.policy, "{what}: policy name");
    assert_eq!(a.slots, b.slots, "{what}: slots");
    assert_eq!(a.arrived, b.arrived, "{what}: arrived");
    assert_eq!(a.arrived_value, b.arrived_value, "{what}: arrived value");
    assert_eq!(a.accepted, b.accepted, "{what}: accepted");
    assert_eq!(a.transferred, b.transferred, "{what}: transferred");
    assert_eq!(
        a.transferred_to_crossbar, b.transferred_to_crossbar,
        "{what}: crossbar transfers"
    );
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
            if va.has_crossbar() {
                assert_eq!(
                    va.crossbar_queue(input, output),
                    vb.crossbar_queue(input, output),
                    "{what}: C_{i}{j}"
                );
            }
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

/// Default sequential options on the given fabric.
fn on_fabric(fabric: &FabricSpec) -> RunOptions {
    RunOptions {
        fabric: fabric.clone(),
        ..RunOptions::default()
    }
}

/// `Engine::run_cioq_full` or `Engine::run_crossbar_full`, over a
/// recorded policy: the architecture a sequential run takes.
type RunFull<P> =
    fn(Engine, &mut Recording<P>, &mut dyn ArrivalSource) -> Result<RunOutcome, PolicyError>;

/// Sequential reference run of either architecture through an arbitrary
/// fabric.
fn seq_run<P>(
    cfg: &SwitchConfig,
    policy: P,
    run: RunFull<P>,
    trace: &Trace,
    link: &FabricSpec,
) -> (RunReport, RecordedSchedule, SwitchState) {
    let mut rec = Recording::with_fabric(policy, link);
    let engine = Engine::new(cfg.clone(), on_fabric(link));
    let outcome =
        run(engine, &mut rec, &mut TraceSource::new(trace)).expect("sequential linked run");
    (outcome.report, rec.into_schedule(), outcome.final_state)
}

fn sharded_options(k: usize, link: &FabricSpec) -> ShardedOptions {
    let mut opts = ShardedOptions::new(k);
    opts.fabric = link.clone();
    opts.record = true;
    opts.capture_final_state = true;
    opts
}

/// Sweep a sharded CIOQ policy over K through `link`, comparing
/// against a given sequential reference (transcripts, reports, states).
fn check_cioq_against(
    cfg: &SwitchConfig,
    sharded: &dyn CioqShardPolicy,
    trace: &Trace,
    link: &FabricSpec,
    reference: &(RunReport, RecordedSchedule, SwitchState),
    what: &str,
) {
    let (ref_report, ref_schedule, ref_state) = reference;
    for k in SHARD_COUNTS {
        let what = format!("{what} [{}] k={k}", ref_report.policy);
        let outcome = run_cioq_sharded(cfg, sharded, trace, sharded_options(k, link))
            .unwrap_or_else(|e| panic!("{what}: sharded run failed: {e}"));
        let schedule = outcome.schedule.as_ref().expect("recording requested");
        assert_eq!(schedule, ref_schedule, "{what}: decision transcript");
        assert_reports_equal(&outcome.report, ref_report, &what);
        assert_states_equal(
            outcome.final_state.as_ref().expect("capture requested"),
            ref_state,
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

fn cioq_cfg() -> SwitchConfig {
    SwitchConfig::builder(6, 6)
        .speedup(2)
        .input_capacity(3)
        .output_capacity(2)
        .build()
        .unwrap()
}

// ---------------------------------------------------------------------------
// 1. matrix(Topology::uniform(d)) ≡ uniform(d)
// ---------------------------------------------------------------------------

/// A uniform topology must land on the delay line's exact bits — per-pair
/// lookup, calendar, and canonical landing sort included — for all four
/// policies sequentially, and for GM sharded too (K ∈ {1, 2, 4}).
#[test]
fn constant_matrix_is_bit_identical_to_delay_line() {
    let cfg = cioq_cfg();
    let trace = cioq_trace(&cfg, 48, 0x70);
    let xcfg = SwitchConfig::crossbar(6, 3, 1, 2);
    let xtrace = cioq_trace(&xcfg, 48, 0x71);
    for d in [0u64, 3] {
        let line = FabricSpec::uniform(d);
        let matrix = FabricSpec::matrix(Topology::uniform(6, 6, d));
        let what = format!("const matrix d={d}");

        for (mut seq, sharded) in [
            (
                Box::new(GreedyMatching::new()) as Box<dyn CioqPolicy>,
                Some(ShardedGm::new()),
            ),
            (Box::new(PreemptiveGreedy::new()), None),
        ] {
            // The delay-line run is the reference…
            let reference = seq_run(&cfg, &mut *seq, Engine::run_cioq_full, &trace, &line);
            // …the sequential matrix run must already match it…
            let name = reference.0.policy.clone();
            let mut seq_again: Box<dyn CioqPolicy> = if name.starts_with("GM") {
                Box::new(GreedyMatching::new())
            } else {
                Box::new(PreemptiveGreedy::new())
            };
            let matrix_run = seq_run(
                &cfg,
                &mut *seq_again,
                Engine::run_cioq_full,
                &trace,
                &matrix,
            );
            assert_eq!(
                matrix_run.1, reference.1,
                "{what}: sequential matrix transcript"
            );
            assert_reports_equal(&matrix_run.0, &reference.0, &format!("{what}: sequential"));
            assert_states_equal(&matrix_run.2, &reference.2, &format!("{what}: sequential"));
            // …and the sharded matrix runs must hit the same bits.
            if let Some(sharded) = sharded {
                check_cioq_against(&cfg, &sharded, &trace, &matrix, &reference, &what);
            }
        }

        // The crossbar policies run whole-switch only.
        let crossbar: [fn() -> Box<dyn CrossbarPolicy>; 2] = [
            || Box::new(CrossbarGreedyUnit::new()),
            || Box::new(CrossbarPreemptiveGreedy::new()),
        ];
        for make in crossbar {
            let reference = seq_run(
                &xcfg,
                &mut *make(),
                Engine::run_crossbar_full,
                &xtrace,
                &line,
            );
            let what = format!("{what} [{}]", reference.0.policy);
            let matrix_run = seq_run(
                &xcfg,
                &mut *make(),
                Engine::run_crossbar_full,
                &xtrace,
                &matrix,
            );
            assert_eq!(matrix_run.1, reference.1, "{what}: crossbar transcript");
            assert_reports_equal(&matrix_run.0, &reference.0, &what);
            assert_states_equal(&matrix_run.2, &reference.2, &what);
        }
    }
}

// ---------------------------------------------------------------------------
// 2. Heterogeneous matrices: partitioned ≡ whole-switch reference
// ---------------------------------------------------------------------------

/// Two-tier topologies: chassis-local pairs land same-cycle (latency 0)
/// while cross-rack pairs ride the delay line and land slots later, both
/// *simultaneously*, and at K ∈ {2, 4} a latency-0 transfer can go from a
/// row one shard owns to any output. With 3 racks over 6 ports and K ∈ {1, 2, 4}, rack
/// boundaries (2, 4) do not align with the K = 2 or K = 4 shard
/// boundaries (3; 1, 3, 4).
#[test]
fn two_tier_sharded_equals_sequential() {
    let cfg = cioq_cfg();
    let trace = cioq_trace(&cfg, 48, 0x72);
    for (racks, intra, inter) in [(3usize, 0u64, 2u64), (2, 1, 4)] {
        let link = FabricSpec::matrix(Topology::two_tier(6, 6, racks, intra, inter).unwrap());
        let what = format!("two-tier racks={racks} intra={intra} inter={inter}");
        let reference = seq_run(
            &cfg,
            GreedyMatching::new(),
            Engine::run_cioq_full,
            &trace,
            &link,
        );
        check_cioq_against(&cfg, &ShardedGm::new(), &trace, &link, &reference, &what);
    }
}

/// One calendar bucket can gather two positive latencies from several
/// dispatch slots: with 3 racks over 6 ports, row 2 → column 3 lies inside
/// rack 1 (latency 1) and every other pair here crosses racks (latency 4).
/// Three transfers dispatched at slot 0 and one at slot 3 all land at
/// slot 4: four packets in one bucket of the delay line. Debug builds
/// check every push against the bucket's reservation.
#[test]
fn a_calendar_bucket_gathers_from_several_dispatch_slots() {
    let cfg = SwitchConfig::cioq(6, 4, 1);
    let link = FabricSpec::matrix(Topology::two_tier(6, 6, 3, 1, 4).unwrap());
    let trace = Trace::from_tuples([
        (0, PortId(0), PortId(3), 1),
        (0, PortId(1), PortId(4), 1),
        (0, PortId(2), PortId(5), 1),
        (3, PortId(2), PortId(3), 1),
    ]);
    let reference = seq_run(
        &cfg,
        GreedyMatching::new(),
        Engine::run_cioq_full,
        &trace,
        &link,
    );
    let what = "mixed-latency ring";
    check_cioq_against(&cfg, &ShardedGm::new(), &trace, &link, &reference, what);
}

/// A random explicit matrix with racks *scattered* across ports (no
/// contiguity at all, so no shard partition can align with them), mixing
/// latencies 0 through 5.
#[test]
fn random_matrix_sharded_equals_sequential() {
    let cfg = cioq_cfg();
    let trace = cioq_trace(&cfg, 48, 0x74);
    let topo = Topology::explicit(
        6,
        6,
        4,
        vec![2, 0, 3, 1, 0, 2],
        vec![1, 3, 0, 2, 2, 0],
        vec![0, 3, 1, 5, 2, 0, 4, 1, 3, 2, 0, 1, 5, 1, 2, 0],
    )
    .unwrap();
    assert_eq!(topo.uniform_delay(), None);
    let link = FabricSpec::matrix(topo);
    let what = "random matrix";
    let reference = seq_run(
        &cfg,
        GreedyMatching::new(),
        Engine::run_cioq_full,
        &trace,
        &link,
    );
    check_cioq_against(&cfg, &ShardedGm::new(), &trace, &link, &reference, what);
}

/// Incast through a two-tier fabric concentrates landings: transfers
/// dispatched in *different slots* (near and far racks) land together at
/// one output, so the canonical landing order — not just per-cycle order —
/// decides the order they enter its queue. GM, the one policy that runs
/// partitioned.
#[test]
fn two_tier_incast_landing_order() {
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
    let trace = gen_trace(&gen, &cfg, 40, 0x75);
    for (intra, inter) in [(1u64, 3u64), (0, 4)] {
        let link = FabricSpec::matrix(Topology::two_tier(8, 4, 2, intra, inter).unwrap());
        let what = format!("incast intra={intra} inter={inter}");
        let reference = seq_run(
            &cfg,
            GreedyMatching::new(),
            Engine::run_cioq_full,
            &trace,
            &link,
        );
        check_cioq_against(&cfg, &ShardedGm::new(), &trace, &link, &reference, &what);
    }
}

// ---------------------------------------------------------------------------
// 3. Conservation over random delay matrices (property test)
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Over random rack assignments and latency matrices: (1) queued +
    /// in-flight + landed packets always reconcile with arrivals, drained
    /// (residual 0) and steady-state (in-flight counted in the residual);
    /// (2) a *constant* random matrix produces the same decision transcript
    /// as `FabricSpec::uniform` at that constant.
    #[test]
    fn conservation_over_random_matrices(
        racks in 1usize..4,
        iracks in prop::collection::vec(0u16..4, 8),
        oracks in prop::collection::vec(0u16..4, 8),
        latency in prop::collection::vec(0u64..6, 16),
        const_d in 0u64..6,
        seed in 0u64..1024,
    ) {
        let n = 8usize;
        let cfg = SwitchConfig::cioq(n, 2, 2);
        let gen = FullFabricChurn::new(2, 5, ValueDist::Uniform { max: 50 });
        let trace = gen_trace(&gen, &cfg, 32, seed);

        let topo = Topology::explicit(
            n,
            n,
            racks,
            iracks.iter().map(|&r| r % racks as u16).collect(),
            oracks.iter().map(|&r| r % racks as u16).collect(),
            latency[..racks * racks].to_vec(),
        )
        .expect("valid random topology");
        let link = FabricSpec::matrix(topo);

        // Drained run: nothing may stay in flight or queued.
        let mut source = TraceSource::new(&trace);
        let drained = Engine::new(cfg.clone(), on_fabric(&link))
            .run_cioq(&mut PreemptiveGreedy::new(), &mut source)
            .expect("drained run");
        prop_assert!(drained.check_conservation().is_ok());
        prop_assert_eq!(drained.residual_count, 0);

        // Steady state: the residual includes packets still on the wire.
        let mut options = on_fabric(&link);
        options.slots = Some(32);
        options.drain = false;
        let mut source = TraceSource::new(&trace);
        let steady = Engine::new(cfg.clone(), options)
            .run_cioq(&mut GreedyMatching::new(), &mut source)
            .expect("steady-state run");
        prop_assert!(steady.check_conservation().is_ok());

        // Constant matrix ≡ delay line, transcript for transcript.
        let const_link = FabricSpec::matrix(Topology::uniform(n, n, const_d));
        let mut rec_m = Recording::with_fabric(PreemptiveGreedy::new(), &const_link);
        let mut source = TraceSource::new(&trace);
        Engine::new(cfg.clone(), on_fabric(&const_link))
            .run_cioq(&mut rec_m, &mut source)
            .expect("const matrix run");
        let line = FabricSpec::uniform(const_d);
        let mut rec_l = Recording::with_fabric(PreemptiveGreedy::new(), &line);
        let mut source = TraceSource::new(&trace);
        Engine::new(cfg.clone(), on_fabric(&line))
            .run_cioq(&mut rec_l, &mut source)
            .expect("delay line run");
        prop_assert_eq!(rec_m.into_schedule(), rec_l.into_schedule());
    }
}
