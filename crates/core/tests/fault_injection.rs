//! Fault-plan behaviour on the sequential engine: seeded degradation
//! schedules (latency spikes + link-down windows with bounded retransmit
//! queues) applied under all four policies. Policies must degrade
//! gracefully — no `PolicyError`, exact conservation with drops counted —
//! and the whole faulted run stays deterministic and checkpointable:
//! kill/restore under an active fault plan is byte-identical, including
//! packets sitting in retransmit queues at the checkpoint. Partitioned GM
//! (K ∈ {2, 4}) joins the kill/restore matrix, where it must also agree
//! with whole-switch GM under every plan.

mod common;

use cioq_core::{
    CrossbarGreedyUnit, CrossbarPreemptiveGreedy, GreedyMatching, PreemptiveGreedy, ShardedGm,
};
use cioq_model::{PortId, SlotId, SwitchConfig};
use cioq_sim::{
    CioqPolicy, CrossbarPolicy, Engine, EngineSnapshot, FabricSpec, FaultEvent, FaultKind,
    FaultPlan, FaultScope, Partitioned, RunOptions, RunOutcome, RunReport, Trace, TraceSource,
};
use common::{assert_agree, assert_resumes, bursty_trace, cioq_cfg, fabrics};

fn faulted_options(plan: &FaultPlan, d: SlotId, every: Option<SlotId>) -> RunOptions {
    RunOptions {
        faults: Some(plan.clone()),
        checkpoint_every: every,
        fabric: FabricSpec::uniform(d),
        ..RunOptions::default()
    }
}

fn run_cioq_faulted(
    cfg: &SwitchConfig,
    policy: &mut dyn CioqPolicy,
    trace: &Trace,
    plan: &FaultPlan,
    d: SlotId,
) -> RunReport {
    Engine::new(cfg.clone(), faulted_options(plan, d, None))
        .run_cioq(policy, &mut TraceSource::new(trace))
        .expect("faulted run must degrade gracefully, not error")
}

fn run_crossbar_faulted(
    cfg: &SwitchConfig,
    policy: &mut dyn CrossbarPolicy,
    trace: &Trace,
    plan: &FaultPlan,
    d: SlotId,
) -> RunReport {
    Engine::new(cfg.clone(), faulted_options(plan, d, None))
        .run_crossbar(policy, &mut TraceSource::new(trace))
        .expect("faulted run must degrade gracefully, not error")
}

// ---------------------------------------------------------------------------
// Graceful degradation under seeded plans, all four policies
// ---------------------------------------------------------------------------

/// A sweep of seeded fault plans over every policy: every run completes
/// (finite fault windows ⇒ drain terminates), conservation is exact with
/// drops in the books, and the sweep as a whole exercises both failure
/// modes (some packets dropped, some retransmitted).
#[test]
fn seeded_plans_degrade_gracefully() {
    let cfg = cioq_cfg();
    let xcfg = SwitchConfig::crossbar(6, 3, 1, 2);
    let trace = bursty_trace(&cfg, 48, 0xFA);
    let xtrace = bursty_trace(&xcfg, 48, 0xFB);

    let mut total_dropped = 0u64;
    let mut total_retransmitted = 0u64;
    for seed in 0..6u64 {
        let plan = FaultPlan::seeded(seed, 6, 6, 48, 10);
        for d in [0u64, 2] {
            let reports = [
                run_cioq_faulted(&cfg, &mut GreedyMatching::new(), &trace, &plan, d),
                run_cioq_faulted(&cfg, &mut PreemptiveGreedy::new(), &trace, &plan, d),
                run_crossbar_faulted(&xcfg, &mut CrossbarGreedyUnit::new(), &xtrace, &plan, d),
                run_crossbar_faulted(
                    &xcfg,
                    &mut CrossbarPreemptiveGreedy::new(),
                    &xtrace,
                    &plan,
                    d,
                ),
            ];
            for r in &reports {
                r.check_conservation()
                    .unwrap_or_else(|e| panic!("seed={seed} d={d} {}: {e}", r.policy));
                assert_eq!(r.residual_count, 0, "drained run leaves nothing behind");
                total_dropped += r.losses.dropped;
                total_retransmitted += r.retransmitted;
            }
        }
    }
    assert!(
        total_dropped > 0,
        "the seeded sweep must exercise fault drops"
    );
    assert!(
        total_retransmitted > 0,
        "the seeded sweep must exercise retransmission"
    );
}

/// Same plan + same trace + same policy ⇒ bit-identical faulted runs.
#[test]
fn faulted_runs_are_reproducible() {
    let cfg = cioq_cfg();
    let trace = bursty_trace(&cfg, 48, 0xFC);
    let plan = FaultPlan::seeded(7, 6, 6, 48, 10);
    let a = run_cioq_faulted(&cfg, &mut PreemptiveGreedy::new(), &trace, &plan, 1);
    let b = run_cioq_faulted(&cfg, &mut PreemptiveGreedy::new(), &trace, &plan, 1);
    assert_eq!(a, b, "faulted runs replay bit-identically");
}

// ---------------------------------------------------------------------------
// Deterministic micro-scenarios: hold/retransmit and overflow-drop
// ---------------------------------------------------------------------------

/// A link-down window with room in the retransmit queue: dispatches are
/// held, nothing is dropped, and every held packet is re-dispatched and
/// counted when the window closes.
#[test]
fn link_down_holds_then_retransmits() {
    let cfg = SwitchConfig::cioq(2, 4, 1);
    let trace = Trace::from_tuples([
        (0, PortId(0), PortId(0), 10),
        (1, PortId(0), PortId(0), 20),
        (2, PortId(0), PortId(0), 30),
    ]);
    let plan = FaultPlan::new(vec![FaultEvent {
        start: 0,
        end: 6,
        scope: FaultScope::Pair(0, 0),
        kind: FaultKind::LinkDown { retransmit_cap: 8 },
    }]);
    let report = run_cioq_faulted(&cfg, &mut GreedyMatching::new(), &trace, &plan, 0);
    report.check_conservation().expect("conservation");
    assert_eq!(report.losses.dropped, 0, "cap 8 holds everything");
    assert_eq!(
        report.retransmitted, 3,
        "all held packets re-dispatch when the window closes"
    );
    assert_eq!(report.transmitted, 3, "and still reach the line");
}

/// The same window with a zero retransmit cap: every dispatch into the
/// dead link is dropped, counted, and conservation still balances.
#[test]
fn link_down_with_zero_cap_drops() {
    let cfg = SwitchConfig::cioq(2, 4, 1);
    let trace = Trace::from_tuples([
        (0, PortId(0), PortId(0), 10),
        (1, PortId(0), PortId(0), 20),
        (2, PortId(0), PortId(0), 30),
    ]);
    let plan = FaultPlan::new(vec![FaultEvent {
        start: 0,
        end: 6,
        scope: FaultScope::Pair(0, 0),
        kind: FaultKind::LinkDown { retransmit_cap: 0 },
    }]);
    let report = run_cioq_faulted(&cfg, &mut GreedyMatching::new(), &trace, &plan, 0);
    report.check_conservation().expect("conservation");
    assert!(report.losses.dropped > 0, "zero cap drops dispatches");
    assert_eq!(report.retransmitted, 0, "nothing survives to retransmit");
    assert!(
        report.losses.dropped_value > 0,
        "dropped value is accounted"
    );
}

/// A latency spike stretches delivery but the transport loses nothing:
/// no fault drops, exact conservation, and the drain visibly runs past
/// the clean run's end. (Transmitted counts may legitimately differ —
/// delayed landings change the occupancy the policy schedules against.)
#[test]
fn latency_spike_drops_nothing() {
    let cfg = cioq_cfg();
    let trace = bursty_trace(&cfg, 32, 0xFD);
    let plan = FaultPlan::new(vec![FaultEvent {
        start: 0,
        end: 40,
        scope: FaultScope::All,
        kind: FaultKind::LatencySpike { extra: 3 },
    }]);
    let clean = Engine::new(cfg.clone(), RunOptions::default())
        .run_cioq(&mut GreedyMatching::new(), &mut TraceSource::new(&trace))
        .expect("clean run");
    let spiked = run_cioq_faulted(&cfg, &mut GreedyMatching::new(), &trace, &plan, 0);
    spiked.check_conservation().expect("conservation");
    assert_eq!(spiked.losses.dropped, 0, "spikes never drop");
    assert!(spiked.transmitted > 0, "traffic still flows");
    assert!(
        spiked.slots > clean.slots,
        "a +3 spike on every pair stretches the drain ({} vs {})",
        spiked.slots,
        clean.slots
    );
}

// ---------------------------------------------------------------------------
// Kill/restore under an active fault plan
// ---------------------------------------------------------------------------

/// The four policies of the paper, and GM partitioned over K shards, as
/// kill/restore inputs.
#[derive(Debug, Clone, Copy)]
enum Policy {
    Gm,
    Pg,
    Cgu,
    Cpg,
    PartitionedGm(usize),
}

impl Policy {
    fn config(self) -> SwitchConfig {
        match self {
            Policy::Gm | Policy::Pg | Policy::PartitionedGm(_) => cioq_cfg(),
            Policy::Cgu | Policy::Cpg => SwitchConfig::crossbar(6, 3, 2, 2),
        }
    }

    /// Run a fresh policy object to completion (a resumed run rebuilds the
    /// policy: its caches are a function of the restored queue state).
    fn run(self, engine: Engine, source: &mut TraceSource<'_>) -> RunOutcome {
        match self {
            Policy::Gm => engine.run_cioq_full(&mut GreedyMatching::new(), source),
            Policy::Pg => engine.run_cioq_full(&mut PreemptiveGreedy::new(), source),
            Policy::Cgu => engine.run_crossbar_full(&mut CrossbarGreedyUnit::new(), source),
            Policy::Cpg => engine.run_crossbar_full(&mut CrossbarPreemptiveGreedy::new(), source),
            Policy::PartitionedGm(k) => {
                let gm = ShardedGm::new();
                engine.run_cioq_full(&mut Partitioned::new(&gm, k, &self.config()), source)
            }
        }
        .expect("faulted run must degrade gracefully, not error")
    }
}

/// One checkpointed run to completion under `options`: fresh from the trace
/// start, or restored from `resume`.
fn faulted_full_run(
    policy: Policy,
    trace: &Trace,
    options: &RunOptions,
    resume: Option<&EngineSnapshot>,
) -> RunOutcome {
    let (engine, mut source) = match resume {
        Some(snap) => (
            Engine::restore(snap, options.clone()).expect("restore under fault plan"),
            TraceSource::resume_at(trace, snap.slot()),
        ),
        None => (
            Engine::new(policy.config(), options.clone()),
            TraceSource::new(trace),
        ),
    };
    policy.run(engine, &mut source)
}

/// Kill the run at every checkpoint, restore through the wire format (what
/// a daemon would reload) and replay: the report, the final state and
/// every checkpoint from the kill slot onward must be the uninterrupted
/// run's, byte for byte. Returns the uninterrupted run.
fn assert_every_kill_point_resumes(
    what: &str,
    policy: Policy,
    trace: &Trace,
    options: &RunOptions,
) -> RunOutcome {
    let full = faulted_full_run(policy, trace, options, None);
    assert!(
        full.checkpoints.len() >= 2,
        "{what}: cadence yields kill points"
    );
    for snap in &full.checkpoints {
        let k = snap.slot();
        let decoded = EngineSnapshot::from_bytes(&snap.to_bytes()).expect("round-trip");
        let resumed = faulted_full_run(policy, trace, options, Some(&decoded));
        assert_resumes(&resumed, &full, k, what);
    }
    full
}

/// The headline robustness composition: checkpoints taken *during* fault
/// windows (held retransmit queues and spiked in-flight packets in the
/// snapshot) restore into a byte-identical remainder. Every checkpoint of
/// every run is used as a kill point — all four policies and partitioned
/// GM at K ∈ {2, 4} × immediate / delay-line / two-tier fabrics under
/// seeded plans, plus a hand-placed long window that guarantees a
/// checkpoint lands mid-fault. Partitioned GM's uninterrupted run also
/// agrees with whole-switch GM's.
#[test]
fn kill_restore_under_faults_is_byte_identical() {
    let partitioned = [Policy::PartitionedGm(2), Policy::PartitionedGm(4)];
    for policy in [Policy::Gm, Policy::Pg, Policy::Cgu, Policy::Cpg]
        .into_iter()
        .chain(partitioned)
    {
        for (fabric_name, fabric) in &fabrics() {
            for seed in [0x7a, 0x7b] {
                let trace = bursty_trace(&policy.config(), 96, seed);
                let options = RunOptions {
                    faults: Some(FaultPlan::seeded(seed, 6, 6, 96, 6)),
                    checkpoint_every: Some(12),
                    fabric: fabric.clone(),
                    ..RunOptions::default()
                };
                let what = format!("{policy:?} {fabric_name} seed={seed:#x}");
                let full = assert_every_kill_point_resumes(&what, policy, &trace, &options);
                if let Policy::PartitionedGm(_) = policy {
                    let gm = faulted_full_run(Policy::Gm, &trace, &options, None);
                    assert_agree(&full, &gm, &format!("{what} vs GM"));
                }
            }
        }
    }

    let trace = bursty_trace(&cioq_cfg(), 48, 0xFE);
    // Long all-pairs windows guarantee some checkpoint lands mid-fault.
    let mut events = FaultPlan::seeded(11, 6, 6, 48, 8).events().to_vec();
    events.push(FaultEvent {
        start: 4,
        end: 16,
        scope: FaultScope::Input(0),
        kind: FaultKind::LinkDown { retransmit_cap: 4 },
    });
    let plan = FaultPlan::new(events);
    for d in [0u64, 1] {
        let options = faulted_options(&plan, d, Some(6));
        assert_every_kill_point_resumes(&format!("PG d={d}"), Policy::Pg, &trace, &options);
    }
}

/// A snapshot holding retransmit-queued packets refuses to restore
/// without a fault plan: the held packets would have nowhere to live.
#[test]
fn held_packet_snapshot_requires_a_plan() {
    let cfg = cioq_cfg();
    let trace = bursty_trace(&cfg, 48, 0xFE);
    let plan = FaultPlan::new(vec![FaultEvent {
        start: 0,
        end: 24,
        scope: FaultScope::All,
        kind: FaultKind::LinkDown { retransmit_cap: 64 },
    }]);
    let options = faulted_options(&plan, 0, Some(6));
    let full = faulted_full_run(Policy::Pg, &trace, &options, None);
    let mid_window = full
        .checkpoints
        .iter()
        .find(|c| c.slot() < 24)
        .expect("a checkpoint inside the down window");
    let err = Engine::restore(mid_window, RunOptions::default());
    assert!(
        err.is_err(),
        "restoring held packets without a fault plan must fail"
    );
}
