//! The one definition of "two runs agree", and the fixtures the
//! equivalence suites share. Each suite pulls it in with `mod common;`.
//!
//! Two runs agree when they end alike: the whole `RunReport` is equal
//! (`==`, every field), the final switch states are equal queue by queue,
//! and the checkpoints are byte-identical. A run resumed from the
//! checkpoint at slot `k` agrees with the uninterrupted run on its report
//! and final state, and its checkpoints are the uninterrupted run's from
//! slot `k` on (its first re-takes the restore point). A partitioned run
//! is a run of the `Partitioned` policy, so whole-switch and partitioned
//! runs are built and compared by the same calls.

// Every suite is its own test binary, and none of them uses every helper.
#![allow(dead_code)]

use cioq_model::{PortId, SlotId, SwitchConfig, Topology};
use cioq_sim::{
    invariants::check_schedule, ArrivalSource, Engine, EngineSnapshot, FabricSpec, PolicyError,
    RecordedSchedule, Recording, RunOptions, RunOutcome, SwitchState, Trace, TraceSource,
};
use cioq_traffic::{gen_trace, OnOffBursty, ValueDist};

// ---- the agreement check ----

/// `a` and `b` agree: equal reports, equal final states and
/// byte-identical checkpoints.
pub(crate) fn assert_agree(a: &RunOutcome, b: &RunOutcome, what: &str) {
    assert_eq!(a.report, b.report, "{what}: report");
    assert_states_equal(&a.final_state, &b.final_state, what);
    assert_checkpoints_identical(&a.checkpoints, &b.checkpoints, what);
}

/// `resumed`, restored from `full`'s checkpoint at slot `k`, ends as
/// `full` does: the same report and final state, and `full`'s checkpoints
/// from slot `k` on, byte for byte.
pub(crate) fn assert_resumes(resumed: &RunOutcome, full: &RunOutcome, k: SlotId, what: &str) {
    let what = format!("{what} from slot {k}");
    assert_eq!(resumed.report, full.report, "{what}: report");
    assert_states_equal(&resumed.final_state, &full.final_state, &what);
    let tail = &full.checkpoints[full.checkpoints.partition_point(|c| c.slot() < k)..];
    assert_checkpoints_identical(&resumed.checkpoints, tail, &what);
}

/// Equal final states: the same geometry and slot, then every `Q_ij`,
/// `C_ij` and `Q_j` in turn, the first that differs named in the failure.
fn assert_states_equal(a: &SwitchState, b: &SwitchState, what: &str) {
    let (va, vb) = (a.view(), b.view());
    assert_eq!(va.config(), vb.config(), "{what}: geometry");
    assert_eq!(va.slot(), vb.slot(), "{what}: slot");
    for i in 0..va.n_inputs() {
        for j in 0..va.n_outputs() {
            let (input, output) = (PortId::from(i), PortId::from(j));
            let (qa, qb) = (va.input_queue(input, output), vb.input_queue(input, output));
            assert_eq!(qa, qb, "{what}: Q_{i}{j}");
            if va.has_crossbar() {
                let (ca, cb) = (
                    va.crossbar_queue(input, output),
                    vb.crossbar_queue(input, output),
                );
                assert_eq!(ca, cb, "{what}: C_{i}{j}");
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

/// Byte-identical checkpoints: the same count, then each one's bytes.
fn assert_checkpoints_identical(a: &[EngineSnapshot], b: &[EngineSnapshot], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: checkpoint count");
    for (x, y) in a.iter().zip(b) {
        let slot = y.slot();
        assert_eq!(
            x.to_bytes(),
            y.to_bytes(),
            "{what}: checkpoint at slot {slot}"
        );
    }
}

// ---- runs ----

/// Sequential options on `fabric`, checkpointing every `checkpoint_every`
/// slots (`None`: never).
pub(crate) fn run_options(fabric: &FabricSpec, checkpoint_every: Option<SlotId>) -> RunOptions {
    RunOptions {
        fabric: fabric.clone(),
        checkpoint_every,
        ..RunOptions::default()
    }
}

/// `Engine::run_cioq_full` or `Engine::run_crossbar_full`, over a
/// recorded policy: the architecture a run takes.
pub(crate) type RunFull<P> =
    fn(Engine, &mut Recording<P>, &mut dyn ArrivalSource) -> Result<RunOutcome, PolicyError>;

/// A run of either architecture under `options`, fresh or resumed from
/// `resume` (the trace fed from the checkpoint's slot), and its decision
/// transcript, checked against the port rule (`check_schedule`). A
/// partitioned run passes `Partitioned::new(..)` as `policy`.
pub(crate) fn recorded_run<P>(
    cfg: &SwitchConfig,
    policy: P,
    run: RunFull<P>,
    trace: &Trace,
    options: &RunOptions,
    resume: Option<&EngineSnapshot>,
) -> (RunOutcome, RecordedSchedule) {
    let (engine, mut source) = match resume {
        Some(snap) => (
            Engine::restore(snap, options.clone()).expect("restore a checkpoint"),
            TraceSource::resume_at(trace, snap.slot()),
        ),
        None => (
            Engine::new(cfg.clone(), options.clone()),
            TraceSource::new(trace),
        ),
    };
    let mut rec = Recording::with_fabric(policy, &options.fabric);
    let outcome = run(engine, &mut rec, &mut source).expect("run");
    let schedule = rec.into_schedule();
    if let Err(msg) = check_schedule(&schedule, cfg) {
        panic!("invalid schedule transcript: {msg}");
    }
    (outcome, schedule)
}

// ---- workload ----

/// A 6 × 6 CIOQ switch, speedup 2, `B(Q_ij) = 3`, `B(Q_j) = 2`.
pub(crate) fn cioq_cfg() -> SwitchConfig {
    SwitchConfig::builder(6, 6)
        .speedup(2)
        .input_capacity(3)
        .output_capacity(2)
        .build()
        .expect("valid CIOQ config")
}

/// On-off bursts at load 0.85, one packet in five worth 40 and the rest 1.
pub(crate) fn bursty_trace(cfg: &SwitchConfig, slots: u64, seed: u64) -> Trace {
    let values = ValueDist::Bimodal {
        high: 40,
        p_high: 0.2,
    };
    gen_trace(&OnOffBursty::new(0.85, 6.0, values), cfg, slots, seed)
}

/// The three fabric shapes of a 6 × 6 switch: immediate, a uniform delay
/// line, and a two-tier matrix (chassis-local pairs at 0, cross-rack pairs
/// at 2 — same-cycle deliveries and delayed landings live at once, in a
/// partitioned run also between pairs whose rows different shards own).
pub(crate) fn fabrics() -> [(&'static str, FabricSpec); 3] {
    let two_tier = Topology::two_tier(6, 6, 3, 0, 2).expect("valid topology");
    [
        ("immediate", FabricSpec::default()),
        ("delay-line d=2", FabricSpec::uniform(2)),
        ("two-tier matrix", FabricSpec::matrix(two_tier)),
    ]
}
