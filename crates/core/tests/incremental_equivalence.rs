//! Equivalence of the incremental scheduling core and the from-scratch
//! reference, proven *per cycle*, not just per run.
//!
//! A lockstep wrapper runs one engine with the production (incremental)
//! policy driving the switch while its [`cioq_core::oracle`] twin is asked
//! for its decision against the *same* view every cycle; any divergence in
//! any admission, transfer set (content **and** order), or subphase choice
//! panics on the spot. Since both twins see identical views at every call,
//! this is exactly the ISSUE's "incremental graph after each slot ≡
//! from-scratch rebuild" property, observed through the decisions the
//! graphs produce.
//!
//! A second pass runs policy and oracle in *separate* engines over the same
//! trace and compares the full run reports, covering the accounting path
//! end to end.

use cioq_core::{
    oracle, CrossbarGreedyUnit, CrossbarPreemptiveGreedy, GmEdgePolicy, GreedyMatching,
    PreemptiveGreedy,
};
use cioq_model::{Cycle, Packet, PortId, SwitchConfig, Threshold};
use cioq_sim::{
    run_cioq, run_crossbar, Admission, CioqPolicy, CioqShardPolicy, CrossbarPolicy, Partitioned,
    SwitchView, Trace, Transfer, TransmitChoice,
};
use cioq_traffic::{gen_trace, BernoulliUniform, ValueDist};
use proptest::prelude::*;

// ---- lockstep wrappers ----

struct LockstepCioq {
    primary: Box<dyn CioqPolicy>,
    reference: Box<dyn CioqPolicy>,
    scratch: Vec<Transfer>,
}

impl CioqPolicy for LockstepCioq {
    fn name(&self) -> &str {
        self.primary.name()
    }

    fn admit(&mut self, view: &SwitchView<'_>, packet: &Packet) -> Admission {
        let a = self.primary.admit(view, packet);
        let b = self.reference.admit(view, packet);
        assert_eq!(a, b, "admission diverged for {packet:?}");
        a
    }

    fn schedule(&mut self, view: &SwitchView<'_>, cycle: Cycle, out: &mut Vec<Transfer>) {
        self.primary.schedule(view, cycle, out);
        self.scratch.clear();
        self.reference.schedule(view, cycle, &mut self.scratch);
        assert_eq!(
            *out, self.scratch,
            "transfer sets diverged at slot {} cycle {}",
            cycle.slot, cycle.index
        );
    }

    fn transmit(&mut self, view: &SwitchView<'_>, output: PortId) -> TransmitChoice {
        let a = self.primary.transmit(view, output);
        let b = self.reference.transmit(view, output);
        assert_eq!(a, b, "transmit choice diverged at output {output}");
        a
    }
}

struct LockstepCrossbar {
    primary: Box<dyn CrossbarPolicy>,
    reference: Box<dyn CrossbarPolicy>,
    in_scratch: Vec<Transfer>,
    out_scratch: Vec<Transfer>,
}

impl CrossbarPolicy for LockstepCrossbar {
    fn name(&self) -> &str {
        self.primary.name()
    }

    fn admit(&mut self, view: &SwitchView<'_>, packet: &Packet) -> Admission {
        let a = self.primary.admit(view, packet);
        let b = self.reference.admit(view, packet);
        assert_eq!(a, b, "admission diverged for {packet:?}");
        a
    }

    fn schedule_input(&mut self, view: &SwitchView<'_>, cycle: Cycle, out: &mut Vec<Transfer>) {
        self.primary.schedule_input(view, cycle, out);
        self.in_scratch.clear();
        self.reference
            .schedule_input(view, cycle, &mut self.in_scratch);
        assert_eq!(
            *out, self.in_scratch,
            "input subphase diverged at slot {} cycle {}",
            cycle.slot, cycle.index
        );
    }

    fn schedule_output(&mut self, view: &SwitchView<'_>, cycle: Cycle, out: &mut Vec<Transfer>) {
        self.primary.schedule_output(view, cycle, out);
        self.out_scratch.clear();
        self.reference
            .schedule_output(view, cycle, &mut self.out_scratch);
        assert_eq!(
            *out, self.out_scratch,
            "output subphase diverged at slot {} cycle {}",
            cycle.slot, cycle.index
        );
    }

    fn transmit(&mut self, view: &SwitchView<'_>, output: PortId) -> TransmitChoice {
        let a = self.primary.transmit(view, output);
        let b = self.reference.transmit(view, output);
        assert_eq!(a, b, "transmit choice diverged at output {output}");
        a
    }
}

// ---- helpers ----

fn trace_from(n_inputs: usize, n_outputs: usize, arrivals: &[(u8, u8, u8, u64)]) -> Trace {
    Trace::from_tuples(arrivals.iter().map(|&(t, i, j, v)| {
        (
            t as u64,
            PortId((i as usize % n_inputs) as u16),
            PortId((j as usize % n_outputs) as u16),
            v,
        )
    }))
}

fn cioq_pairs() -> Vec<(Box<dyn CioqPolicy>, Box<dyn CioqPolicy>)> {
    vec![
        (
            Box::new(GreedyMatching::new()),
            Box::new(oracle::Gm(GmEdgePolicy::Lexicographic)),
        ),
        (
            Box::new(GreedyMatching::with_edge_policy(
                GmEdgePolicy::RotateByCycle,
            )),
            Box::new(oracle::Gm(GmEdgePolicy::RotateByCycle)),
        ),
        (
            Box::new(PreemptiveGreedy::new()),
            Box::new(oracle::Pg(Some(Threshold::OnePlusSqrt2))),
        ),
        (
            Box::new(PreemptiveGreedy::with_beta(Threshold::from_f64(1.25))),
            Box::new(oracle::Pg(Some(Threshold::from_f64(1.25)))),
        ),
        (
            Box::new(PreemptiveGreedy::without_preemption()),
            Box::new(oracle::Pg(None)),
        ),
    ]
}

fn crossbar_pairs() -> Vec<(Box<dyn CrossbarPolicy>, Box<dyn CrossbarPolicy>)> {
    vec![
        (Box::new(CrossbarGreedyUnit::new()), Box::new(oracle::Cgu)),
        (
            Box::new(CrossbarPreemptiveGreedy::new()),
            Box::new(oracle::Cpg {
                beta: Threshold::Tribonacci,
                alpha: Threshold::TribonacciPlusOne,
            }),
        ),
        (
            Box::new(CrossbarPreemptiveGreedy::with_params(
                Threshold::from_f64(1.5),
                Threshold::from_f64(2.0),
            )),
            Box::new(oracle::Cpg {
                beta: Threshold::from_f64(1.5),
                alpha: Threshold::from_f64(2.0),
            }),
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Over random traces (bursty, value-skewed, port-skewed) and every
    /// CIOQ policy variant, the incremental core makes the same decision
    /// as the from-scratch oracle in every cycle of every slot — and two
    /// independent full runs agree on the complete report. Every eighth
    /// case is a wide one, 3 × 70 or 70 × 3, so the occupancy and head
    /// graph rows start mid-word and GM's row-word greedy has to stitch
    /// them.
    #[test]
    fn cioq_incremental_equals_rescan(
        shape in (1usize..6, 0usize..16),
        speedup in 1u32..4,
        in_cap in 1usize..4,
        out_cap in 1usize..4,
        arrivals in prop::collection::vec(
            (0u8..12, 0u8..70, 0u8..70, 1u64..64),
            0..120,
        ),
    ) {
        let (n_inputs, n_outputs) = match shape {
            (_, 0) => (3, 70),
            (_, 1) => (70, 3),
            (n, _) => (n, n),
        };
        let cfg = SwitchConfig::builder(n_inputs, n_outputs)
            .speedup(speedup)
            .input_capacity(in_cap)
            .output_capacity(out_cap)
            .build()
            .unwrap();
        let trace = trace_from(n_inputs, n_outputs, &arrivals);
        // Fresh policy instances for the solo runs: the lockstep pair keeps
        // its caches from the joint run.
        for ((primary, reference), (mut fresh_inc, mut fresh_ref)) in
            cioq_pairs().into_iter().zip(cioq_pairs())
        {
            let mut lockstep = LockstepCioq {
                primary,
                reference,
                scratch: Vec::new(),
            };
            let name = lockstep.name().to_string();
            let joint = run_cioq(&cfg, &mut lockstep, &trace).unwrap();

            let solo_inc = run_cioq(&cfg, fresh_inc.as_mut(), &trace).unwrap();
            let mut solo_ref = run_cioq(&cfg, fresh_ref.as_mut(), &trace).unwrap();
            // The oracle twin reports under its own name; nothing else may differ.
            solo_ref.policy.clone_from(&name);
            assert_eq!(solo_inc, solo_ref, "{name} solo-vs-solo");
            assert_eq!(solo_inc, joint, "{name} solo-vs-joint");
        }
    }

    /// The same guarantee for the buffered-crossbar policies, covering
    /// both subphases and the crossbar change tracking. Inputs and outputs
    /// are drawn independently — the column-side caches are transposed, so
    /// a square switch cannot tell N from M — and every eighth case is a
    /// wide one, 3 × 70 or 70 × 3, whose cache lines straddle bitset words.
    #[test]
    fn crossbar_incremental_equals_rescan(
        shape in (1usize..5, 1usize..5, 0usize..16),
        speedup in 1u32..3,
        in_cap in 1usize..4,
        out_cap in 1usize..3,
        xbar_cap in 1usize..3,
        arrivals in prop::collection::vec(
            (0u8..10, 0u8..70, 0u8..70, 1u64..64),
            0..100,
        ),
    ) {
        let (n_inputs, n_outputs) = match shape {
            (_, _, 0) => (3, 70),
            (_, _, 1) => (70, 3),
            (n, m, _) => (n, m),
        };
        let cfg = SwitchConfig::builder(n_inputs, n_outputs)
            .speedup(speedup)
            .input_capacity(in_cap)
            .output_capacity(out_cap)
            .crossbar_capacity(xbar_cap)
            .build()
            .unwrap();
        let trace = trace_from(n_inputs, n_outputs, &arrivals);
        for ((primary, reference), (mut fresh_inc, mut fresh_ref)) in
            crossbar_pairs().into_iter().zip(crossbar_pairs())
        {
            let mut lockstep = LockstepCrossbar {
                primary,
                reference,
                in_scratch: Vec::new(),
                out_scratch: Vec::new(),
            };
            let name = lockstep.name().to_string();
            let joint = run_crossbar(&cfg, &mut lockstep, &trace).unwrap();

            let solo_inc = run_crossbar(&cfg, fresh_inc.as_mut(), &trace).unwrap();
            let mut solo_ref = run_crossbar(&cfg, fresh_ref.as_mut(), &trace).unwrap();
            // The oracle twin reports under its own name; nothing else may differ.
            solo_ref.policy.clone_from(&name);
            assert_eq!(solo_inc, solo_ref, "{name} solo-vs-solo");
            assert_eq!(solo_inc, joint, "{name} solo-vs-joint");
        }
    }
}

/// One policy value partitioned for K = 2, K = 2 again
/// and K = 4 on the first `(switch, trace)`, then K = 2 on the second: each
/// report equals a fresh value's sequential run.
fn reused_sharded_cioq<P: CioqPolicy + CioqShardPolicy>(
    make: impl Fn() -> P,
    [big, small]: [(&SwitchConfig, &Trace); 2],
) {
    let reused = make();
    let name = CioqPolicy::name(&reused).to_string();
    for ((cfg, trace), ks) in [(big, &[2, 2, 4][..]), (small, &[2][..])] {
        let reference = run_cioq(cfg, &mut make(), trace).unwrap();
        for &k in ks {
            let report = run_cioq(cfg, &mut Partitioned::new(&reused, k, cfg), trace).unwrap();
            let what = format!("{name} sharded reuse k={k} on {} ports", cfg.n_inputs);
            assert_eq!(report, reference, "{what}");
        }
    }
}

/// Reusing a policy object across engine runs must resync cleanly (the
/// flush-count handshake detects the fresh engine and rebuilds every
/// cache): the second run's report equals the
/// first's and a fresh policy's — on the same switch, and again on a
/// smaller one (the band check). GM as a partitioned policy holds
/// nothing from one run to the next (workers and the merge's state are the
/// run's), so one value serves K = 2 twice, then K = 4, then the smaller
/// switch.
#[test]
fn policy_reuse_across_runs_resyncs() {
    // Bernoulli 0.9 on 4×4 for 41 slots: contended enough that a cache
    // left over from the first run would change the second.
    let cfg = SwitchConfig::cioq(4, 2, 2);
    let trace = gen_trace(
        &BernoulliUniform::new(0.9, ValueDist::Uniform { max: 9 }),
        &cfg,
        41,
        7,
    );
    let trace_small = Trace::from_tuples([
        (0, PortId(0), PortId(1), 5),
        (0, PortId(1), PortId(1), 2),
        (1, PortId(0), PortId(1), 7),
    ]);

    let cfg_small = SwitchConfig::cioq(2, 2, 1);
    let policies = || cioq_pairs().into_iter().map(|(policy, _oracle)| policy);
    for ((mut reused, mut fresh), mut fresh_small) in policies().zip(policies()).zip(policies()) {
        let name = reused.name().to_string();
        let first = run_cioq(&cfg, reused.as_mut(), &trace).unwrap();
        let second = run_cioq(&cfg, reused.as_mut(), &trace).unwrap();
        let reference = run_cioq(&cfg, fresh.as_mut(), &trace).unwrap();
        assert_eq!(first, second, "{name} reuse");
        assert_eq!(second, reference, "{name} reuse vs fresh");
        let shrunk = run_cioq(&cfg_small, reused.as_mut(), &trace_small).unwrap();
        let reference = run_cioq(&cfg_small, fresh_small.as_mut(), &trace_small).unwrap();
        assert_eq!(shrunk, reference, "{name} resized reuse");
    }

    let runs = [(&cfg, &trace), (&cfg_small, &trace_small)];
    reused_sharded_cioq(GreedyMatching::new, runs);

    let cfg = SwitchConfig::crossbar(4, 2, 1, 1);
    let cfg_small = SwitchConfig::crossbar(2, 2, 1, 1);
    let policies = || crossbar_pairs().into_iter().map(|(policy, _oracle)| policy);
    for ((mut reused, mut fresh), mut fresh_small) in policies().zip(policies()).zip(policies()) {
        let name = reused.name().to_string();
        let first = run_crossbar(&cfg, reused.as_mut(), &trace).unwrap();
        let second = run_crossbar(&cfg, reused.as_mut(), &trace).unwrap();
        let reference = run_crossbar(&cfg, fresh.as_mut(), &trace).unwrap();
        assert_eq!(first, second, "{name} reuse");
        assert_eq!(second, reference, "{name} reuse vs fresh");
        let shrunk = run_crossbar(&cfg_small, reused.as_mut(), &trace_small).unwrap();
        let reference = run_crossbar(&cfg_small, fresh_small.as_mut(), &trace_small).unwrap();
        assert_eq!(shrunk, reference, "{name} resized reuse");
    }
}
