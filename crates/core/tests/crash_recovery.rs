//! Crash-recovery proofs: checkpoint a run at slot `k`, throw the engine
//! away, restore from the snapshot *bytes*, and finish the run — the
//! remaining decision transcript, the final report, the final switch
//! state and every later checkpoint must be byte-identical to the
//! uninterrupted run. Covered for all four policies whole-switch and for
//! GM partitioned K ∈ {2, 4} (`run_cioq_sharded`, which runs GM only),
//! over the immediate, a uniform-delay and a two-tier matrix fabric.
//! Both kinds of run are the one `Engine`; partitioned GM is a policy
//! adapter on it, so its checkpoints are the engine's own.
//!
//! Also proven here: whole-switch and partitioned checkpoints of the same
//! run are byte-identical (so either run can resume from the other's), an
//! immediate re-checkpoint after restore reproduces the snapshot bytes
//! (restore is lossless and idempotent), and the windowed-stats option
//! survives a whole-switch kill/restore.

use cioq_core::{
    CrossbarGreedyUnit, CrossbarPreemptiveGreedy, GreedyMatching, PreemptiveGreedy, ShardedGm,
};
use cioq_model::{PortId, SlotId, SwitchConfig, Topology};
use cioq_sim::{
    run_cioq_sharded, ArrivalSource, CioqPolicy, CioqShardPolicy, CrossbarPolicy, Engine,
    EngineSnapshot, ExecMode, FabricSpec, PolicyError, RecordedSchedule, Recording, RunOptions,
    RunOutcome, ShardedOptions, SwitchState, Trace, TraceSource,
};
use cioq_traffic::{gen_trace, OnOffBursty, ValueDist};

const SHARD_COUNTS: [usize; 2] = [2, 4];
const CHECKPOINT_EVERY: SlotId = 8;

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

fn run_options(link: &FabricSpec) -> RunOptions {
    RunOptions {
        checkpoint_every: Some(CHECKPOINT_EVERY),
        fabric: link.clone(),
        ..RunOptions::default()
    }
}

/// `Engine::run_cioq_full` or `Engine::run_crossbar_full`, over a
/// recorded policy: the architecture a sequential run takes.
type RunFull<P> =
    fn(Engine, &mut Recording<P>, &mut dyn ArrivalSource) -> Result<RunOutcome, PolicyError>;

/// Sequential run of either architecture (fresh or resumed from a
/// checkpoint), recording the decision transcript.
fn seq_run<P>(
    cfg: &SwitchConfig,
    policy: P,
    run: RunFull<P>,
    trace: &Trace,
    link: &FabricSpec,
    resume: Option<&EngineSnapshot>,
) -> (RunOutcome, RecordedSchedule) {
    let engine = match resume {
        Some(snap) => Engine::restore(snap, run_options(link)).expect("restore own checkpoint"),
        None => Engine::new(cfg.clone(), run_options(link)),
    };
    let mut rec = Recording::with_fabric(policy, link);
    let mut source = match resume {
        Some(snap) => TraceSource::resume_at(trace, snap.slot()),
        None => TraceSource::new(trace),
    };
    let outcome = run(engine, &mut rec, &mut source).expect("sequential run");
    (outcome, rec.into_schedule())
}

fn sharded_options(k: usize, link: &FabricSpec, resume: Option<EngineSnapshot>) -> ShardedOptions {
    let mut opts = ShardedOptions::new(k);
    opts.fabric = link.clone();
    opts.mode = ExecMode::Inline;
    opts.record = true;
    opts.capture_final_state = true;
    opts.checkpoint_every = Some(CHECKPOINT_EVERY);
    opts.resume_from = resume;
    opts
}

/// Checkpoints of the resumed run must be byte-identical to the
/// uninterrupted run's from slot `k` on. (The resumed run's first
/// checkpoint fires at its own start slot `k`, re-capturing the restore
/// point — so matching it against the full run's slot-`k` checkpoint is
/// also the proof that restore + re-checkpoint is lossless.)
fn assert_checkpoint_tail(
    resumed: &[EngineSnapshot],
    full: &[EngineSnapshot],
    k: SlotId,
    what: &str,
) {
    let later: Vec<&EngineSnapshot> = full.iter().filter(|c| c.slot() >= k).collect();
    assert_eq!(
        resumed.len(),
        later.len(),
        "{what}: later checkpoint count after resume from slot {k}"
    );
    for (r, f) in resumed.iter().zip(later) {
        assert_eq!(
            r.to_bytes(),
            f.to_bytes(),
            "{what}: checkpoint at slot {} after resume from slot {k}",
            f.slot()
        );
    }
}

/// The kill-at-k matrix for one CIOQ policy on one fabric: sequential
/// restore (two different kill slots) and, for a policy with a sharded
/// twin, sharded full runs whose checkpoints match the sequential ones byte
/// for byte, sharded resume from a sequential snapshot, and sequential
/// resume from a sharded one.
fn check_cioq_recovery(
    cfg: &SwitchConfig,
    seq: impl Fn() -> Box<dyn CioqPolicy>,
    sharded: Option<&dyn CioqShardPolicy>,
    trace: &Trace,
    link: &FabricSpec,
    what: &str,
) {
    let speedup = cfg.speedup as usize;
    let (full, full_sched) = seq_run(cfg, &mut *seq(), Engine::run_cioq_full, trace, link, None);
    assert!(
        full.checkpoints.len() >= 2,
        "{what}: run too short for the checkpoint cadence"
    );

    let picks = [0, full.checkpoints.len() / 2];
    for idx in picks {
        let snap = &full.checkpoints[idx];
        let k = snap.slot();
        // The restore path starts from the wire bytes, not the live object.
        let decoded =
            EngineSnapshot::from_bytes(&snap.to_bytes()).expect("snapshot bytes round-trip");
        assert_eq!(&decoded, snap, "{what}: decode(encode) identity at k={k}");
        // Restoring and immediately re-checkpointing reproduces the bytes.
        let resnap = Engine::restore(&decoded, run_options(link))
            .expect("restore own checkpoint")
            .snapshot();
        assert_eq!(
            resnap.to_bytes(),
            snap.to_bytes(),
            "{what}: re-checkpoint at k={k} is byte-identical"
        );

        let (resumed, resumed_sched) = seq_run(
            cfg,
            &mut *seq(),
            Engine::run_cioq_full,
            trace,
            link,
            Some(&decoded),
        );
        assert_eq!(resumed.report, full.report, "{what}: report after k={k}");
        assert_states_equal(&resumed.final_state, &full.final_state, what);
        assert_checkpoint_tail(&resumed.checkpoints, &full.checkpoints, k, what);
        // Remaining transcript: per-cycle transfer sets from slot k on,
        // and admission verdicts for every packet arriving at ≥ k.
        let cycle_off = (k as usize) * speedup;
        assert_eq!(
            resumed_sched.transfers[..],
            full_sched.transfers[cycle_off..],
            "{what}: transfer transcript tail after k={k}"
        );
        let adm_off = trace.packets().partition_point(|p| p.arrival < k);
        assert_eq!(
            resumed_sched.admissions[..],
            full_sched.admissions[adm_off..],
            "{what}: admission transcript tail after k={k}"
        );
    }

    let Some(sharded) = sharded else {
        return;
    };
    let snap = &full.checkpoints[full.checkpoints.len() / 2];
    let k = snap.slot();
    for shards in SHARD_COUNTS {
        let w = format!("{what} K={shards}");
        let sh_full = run_cioq_sharded(cfg, sharded, trace, sharded_options(shards, link, None))
            .unwrap_or_else(|e| panic!("{w}: sharded run failed: {e}"));
        // Sequential ↔ sharded snapshot byte-compatibility.
        assert_eq!(
            sh_full.checkpoints.len(),
            full.checkpoints.len(),
            "{w}: checkpoint count"
        );
        for (s, q) in sh_full.checkpoints.iter().zip(&full.checkpoints) {
            assert_eq!(
                s.to_bytes(),
                q.to_bytes(),
                "{w}: sharded checkpoint at slot {}",
                q.slot()
            );
        }
        // Sharded resume from the sequential snapshot.
        let sh_resumed = run_cioq_sharded(
            cfg,
            sharded,
            trace,
            sharded_options(shards, link, Some(snap.clone())),
        )
        .unwrap_or_else(|e| panic!("{w}: resumed sharded run failed: {e}"));
        assert_eq!(sh_resumed.report, sh_full.report, "{w}: report after k={k}");
        assert_states_equal(
            sh_resumed.final_state.as_ref().expect("capture requested"),
            sh_full.final_state.as_ref().expect("capture requested"),
            &w,
        );
        assert_checkpoint_tail(&sh_resumed.checkpoints, &sh_full.checkpoints, k, &w);
        let sched = sh_resumed.schedule.as_ref().expect("recording requested");
        let cycle_off = (k as usize) * speedup;
        assert_eq!(
            sched.transfers[..],
            full_sched.transfers[cycle_off..],
            "{w}: sharded transfer transcript tail after k={k}"
        );
        // And the reverse: a partitioned run's checkpoint resumes
        // whole-switch GM.
        let sh_snap = &sh_full.checkpoints[sh_full.checkpoints.len() / 2];
        let (xres, _) = seq_run(
            cfg,
            &mut *seq(),
            Engine::run_cioq_full,
            trace,
            link,
            Some(sh_snap),
        );
        assert_eq!(
            xres.report, full.report,
            "{w}: sequential resume from a sharded checkpoint"
        );
    }
}

/// The kill-at-k matrix for one crossbar policy on one fabric: sequential
/// restore at two different kill slots.
fn check_crossbar_recovery(
    cfg: &SwitchConfig,
    seq: impl Fn() -> Box<dyn CrossbarPolicy>,
    trace: &Trace,
    link: &FabricSpec,
    what: &str,
) {
    let speedup = cfg.speedup as usize;
    let (full, full_sched) = seq_run(
        cfg,
        &mut *seq(),
        Engine::run_crossbar_full,
        trace,
        link,
        None,
    );
    assert!(
        full.checkpoints.len() >= 2,
        "{what}: run too short for the checkpoint cadence"
    );

    for idx in [0, full.checkpoints.len() / 2] {
        let snap = &full.checkpoints[idx];
        let k = snap.slot();
        let decoded =
            EngineSnapshot::from_bytes(&snap.to_bytes()).expect("snapshot bytes round-trip");
        let (resumed, resumed_sched) = seq_run(
            cfg,
            &mut *seq(),
            Engine::run_crossbar_full,
            trace,
            link,
            Some(&decoded),
        );
        assert_eq!(resumed.report, full.report, "{what}: report after k={k}");
        assert_states_equal(&resumed.final_state, &full.final_state, what);
        assert_checkpoint_tail(&resumed.checkpoints, &full.checkpoints, k, what);
        let cycle_off = (k as usize) * speedup;
        assert_eq!(
            resumed_sched.input_transfers[..],
            full_sched.input_transfers[cycle_off..],
            "{what}: input-transfer transcript tail after k={k}"
        );
        assert_eq!(
            resumed_sched.transfers[..],
            full_sched.transfers[cycle_off..],
            "{what}: output-transfer transcript tail after k={k}"
        );
        let adm_off = trace.packets().partition_point(|p| p.arrival < k);
        assert_eq!(
            resumed_sched.admissions[..],
            full_sched.admissions[adm_off..],
            "{what}: admission transcript tail after k={k}"
        );
    }
}

fn cioq_cfg() -> SwitchConfig {
    SwitchConfig::builder(6, 6)
        .speedup(2)
        .input_capacity(3)
        .output_capacity(2)
        .build()
        .unwrap()
}

fn bursty_trace(cfg: &SwitchConfig, slots: u64, seed: u64) -> Trace {
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

/// The three fabric shapes of the acceptance matrix: immediate, uniform
/// delay line, and a heterogeneous two-tier delay matrix (chassis-local
/// pairs at 0, cross-rack pairs at 2 — same-cycle deliveries and delayed
/// landings live simultaneously, in the partitioned runs also between
/// pairs whose rows different shards own).
fn fabrics() -> Vec<(&'static str, FabricSpec)> {
    vec![
        ("immediate", FabricSpec::default()),
        ("delay-line d=2", FabricSpec::uniform(2)),
        (
            "two-tier matrix",
            FabricSpec::matrix(Topology::two_tier(6, 6, 3, 0, 2).unwrap()),
        ),
    ]
}

// ---------------------------------------------------------------------------
// The headline matrix: 4 policies sequential, GM sharded K ∈ {2, 4},
// × fabrics
// ---------------------------------------------------------------------------

#[test]
fn cioq_kill_restore_equivalence() {
    let cfg = cioq_cfg();
    let trace = bursty_trace(&cfg, 48, 0xCA);
    for (label, link) in &fabrics() {
        check_cioq_recovery(
            &cfg,
            || Box::new(GreedyMatching::new()),
            Some(&ShardedGm::new()),
            &trace,
            link,
            &format!("gm {label}"),
        );
        check_cioq_recovery(
            &cfg,
            || Box::new(PreemptiveGreedy::new()),
            None,
            &trace,
            link,
            &format!("pg {label}"),
        );
    }
}

#[test]
fn crossbar_kill_restore_equivalence() {
    let cfg = SwitchConfig::crossbar(6, 3, 1, 2);
    let trace = bursty_trace(&cfg, 48, 0xCB);
    for (label, link) in &fabrics() {
        check_crossbar_recovery(
            &cfg,
            || Box::new(CrossbarGreedyUnit::new()),
            &trace,
            link,
            &format!("cgu {label}"),
        );
        check_crossbar_recovery(
            &cfg,
            || Box::new(CrossbarPreemptiveGreedy::new()),
            &trace,
            link,
            &format!("cpg {label}"),
        );
    }
}

// ---------------------------------------------------------------------------
// Windowed-stats corners
// ---------------------------------------------------------------------------

/// A sequential run with a bounded stats window checkpoints the window
/// contents and restores them: the resumed run's report (window
/// included) equals the uninterrupted one's.
#[test]
fn windowed_stats_survive_restore() {
    let cfg = cioq_cfg();
    let trace = bursty_trace(&cfg, 48, 0xCD);
    let link = FabricSpec::uniform(1);
    let options = || RunOptions {
        checkpoint_every: Some(CHECKPOINT_EVERY),
        stats_window: Some(6),
        fabric: link.clone(),
        ..RunOptions::default()
    };

    let full = Engine::new(cfg.clone(), options())
        .run_cioq_full(&mut PreemptiveGreedy::new(), &mut TraceSource::new(&trace))
        .expect("full run");
    let window = full.report.window.as_ref().expect("window enabled");
    assert_eq!(window.window(), 6, "configured size");
    assert!(!window.is_empty(), "run long enough to fill the window");

    let snap = &full.checkpoints[full.checkpoints.len() / 2];
    let decoded = EngineSnapshot::from_bytes(&snap.to_bytes()).expect("round-trip");
    let resumed = Engine::restore(&decoded, options())
        .expect("restore with window")
        .run_cioq_full(
            &mut PreemptiveGreedy::new(),
            &mut TraceSource::resume_at(&trace, snap.slot()),
        )
        .expect("resumed run");
    assert_eq!(resumed.report, full.report, "windowed report after restore");
}

/// Restore rejects a snapshot taken on a different fabric: the in-flight
/// landing schedule is fabric-dependent, so silently reinterpreting it
/// would corrupt the run.
#[test]
fn restore_rejects_mismatched_fabric() {
    let cfg = cioq_cfg();
    let trace = bursty_trace(&cfg, 32, 0xCE);
    let link = FabricSpec::uniform(2);
    let (full, _) = seq_run(
        &cfg,
        GreedyMatching::new(),
        Engine::run_cioq_full,
        &trace,
        &link,
        None,
    );
    let snap = &full.checkpoints[0];
    let err = Engine::restore(
        snap,
        RunOptions {
            fabric: FabricSpec::uniform(4),
            ..RunOptions::default()
        },
    );
    assert!(
        err.is_err(),
        "restoring a d=2 snapshot onto a d=4 fabric must fail"
    );
}
