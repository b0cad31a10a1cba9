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

mod common;

use cioq_core::{
    CrossbarGreedyUnit, CrossbarPreemptiveGreedy, GreedyMatching, PreemptiveGreedy, ShardedGm,
};
use cioq_model::{PortId, SwitchConfig, Topology};
use cioq_sim::{
    run_cioq_sharded, CioqPolicy, CioqShardPolicy, CrossbarPolicy, Engine, FabricSpec,
    RecordedSchedule, RunOptions, RunOutcome, Trace, TraceSource,
};
use cioq_traffic::{gen_trace, FullFabricChurn, IncastStorm, ValueDist};
use common::{assert_agree, bursty_trace, cioq_cfg, recorded_run, sharded_options, RunFull};
use proptest::prelude::*;

const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

/// Default sequential options on the given fabric.
fn on_fabric(fabric: &FabricSpec) -> RunOptions {
    common::run_options(fabric, None)
}

/// Sequential reference run of either architecture through an arbitrary
/// fabric.
fn seq_run<P>(
    cfg: &SwitchConfig,
    policy: P,
    run: RunFull<P>,
    trace: &Trace,
    link: &FabricSpec,
) -> (RunOutcome, RecordedSchedule) {
    recorded_run(cfg, policy, run, trace, &on_fabric(link), None)
}

/// Sweep a sharded CIOQ policy over K through `link`, comparing
/// against a given sequential reference (transcripts, reports, states).
fn check_cioq_against(
    cfg: &SwitchConfig,
    sharded: &dyn CioqShardPolicy,
    trace: &Trace,
    link: &FabricSpec,
    (ref_outcome, ref_schedule): &(RunOutcome, RecordedSchedule),
    what: &str,
) {
    for k in SHARD_COUNTS {
        let what = format!("{what} [{}] k={k}", ref_outcome.report.policy);
        let options = sharded_options(k, &on_fabric(link), None);
        let outcome = run_cioq_sharded(cfg, sharded, trace, options)
            .unwrap_or_else(|e| panic!("{what}: sharded run failed: {e}"));
        let schedule = outcome.schedule.as_ref().expect("recording requested");
        assert_eq!(schedule, ref_schedule, "{what}: decision transcript");
        assert_agree(&outcome, ref_outcome, &what);
    }
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
    let trace = bursty_trace(&cfg, 48, 0x70);
    let xcfg = SwitchConfig::crossbar(6, 3, 1, 2);
    let xtrace = bursty_trace(&xcfg, 48, 0x71);
    for d in [0u64, 3] {
        let line = FabricSpec::uniform(d);
        let matrix = FabricSpec::matrix(Topology::uniform(6, 6, d));
        let what = format!("const matrix d={d}");

        type Fresh = fn() -> Box<dyn CioqPolicy>;
        let cioq: [(Fresh, _); 2] = [
            (|| Box::new(GreedyMatching::new()), Some(ShardedGm::new())),
            (|| Box::new(PreemptiveGreedy::new()), None),
        ];
        for (make, sharded) in cioq {
            // The delay-line run is the reference…
            let reference = seq_run(&cfg, &mut *make(), Engine::run_cioq_full, &trace, &line);
            // …the sequential matrix run must already match it…
            let matrix_run = seq_run(&cfg, &mut *make(), Engine::run_cioq_full, &trace, &matrix);
            let w = format!("{what}: sequential");
            assert_eq!(matrix_run.1, reference.1, "{w} matrix transcript");
            assert_agree(&matrix_run.0, &reference.0, &w);
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
            let run = |link| {
                seq_run(
                    &xcfg,
                    &mut *make(),
                    Engine::run_crossbar_full,
                    &xtrace,
                    link,
                )
            };
            let (reference, matrix_run) = (run(&line), run(&matrix));
            let what = format!("{what} [{}]", reference.0.report.policy);
            assert_eq!(matrix_run.1, reference.1, "{what}: crossbar transcript");
            assert_agree(&matrix_run.0, &reference.0, &what);
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
    let trace = bursty_trace(&cfg, 48, 0x72);
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
    let trace = bursty_trace(&cfg, 48, 0x74);
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
        let run = |link| seq_run(&cfg, PreemptiveGreedy::new(), Engine::run_cioq_full, &trace, link).1;
        prop_assert_eq!(run(&const_link), run(&FabricSpec::uniform(const_d)));
    }
}
