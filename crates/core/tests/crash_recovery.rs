//! Crash-recovery proofs: checkpoint a run at slot `k`, throw the engine
//! away, restore from the snapshot *bytes*, and finish the run — the
//! remaining decision transcript, the final report, the final switch
//! state and every later checkpoint must be byte-identical to the
//! uninterrupted run. Covered for all four policies whole-switch and for
//! GM partitioned K ∈ {2, 4} (`Partitioned`; only GM runs partitioned),
//! over the immediate, a uniform-delay and a two-tier matrix fabric.
//! Both kinds of run are the one `Engine`; partitioned GM is a policy on
//! it, so its checkpoints are the engine's own.
//!
//! Also proven here: whole-switch and partitioned checkpoints of the same
//! run are byte-identical (so either run can resume from the other's), an
//! immediate re-checkpoint after restore reproduces the snapshot bytes
//! (restore is lossless and idempotent), and the windowed-stats option
//! survives a kill/restore, whole-switch and partitioned.

mod common;

use cioq_core::{
    CrossbarGreedyUnit, CrossbarPreemptiveGreedy, GreedyMatching, PreemptiveGreedy, ShardedGm,
};
use cioq_model::{SlotId, SwitchConfig};
use cioq_sim::{
    CioqPolicy, CioqShardPolicy, CrossbarPolicy, Engine, EngineSnapshot, FabricSpec, Partitioned,
    RecordedSchedule, RunOptions, RunOutcome, Trace, TraceSource,
};
use common::{
    assert_agree, assert_resumes, bursty_trace, cioq_cfg, fabrics, recorded_run, RunFull,
};

const SHARD_COUNTS: [usize; 2] = [2, 4];
const CHECKPOINT_EVERY: SlotId = 8;

fn run_options(link: &FabricSpec) -> RunOptions {
    common::run_options(link, Some(CHECKPOINT_EVERY))
}

/// A run of either architecture (fresh or resumed from a checkpoint),
/// recording the decision transcript.
fn run_on<P>(
    cfg: &SwitchConfig,
    policy: P,
    run: RunFull<P>,
    trace: &Trace,
    link: &FabricSpec,
    resume: Option<&EngineSnapshot>,
) -> (RunOutcome, RecordedSchedule) {
    recorded_run(cfg, policy, run, trace, &run_options(link), resume)
}

/// The kill-at-k matrix for one CIOQ policy on one fabric: sequential
/// restore (two different kill slots) and, for a policy with a sharded
/// twin, sharded full runs that agree with the sequential one (checkpoint
/// bytes included), sharded resume from a sequential snapshot, and
/// sequential resume from a sharded one.
fn check_cioq_recovery(
    cfg: &SwitchConfig,
    seq: impl Fn() -> Box<dyn CioqPolicy>,
    sharded: Option<&dyn CioqShardPolicy>,
    trace: &Trace,
    link: &FabricSpec,
    what: &str,
) {
    let speedup = cfg.speedup as usize;
    let (full, full_sched) = run_on(cfg, &mut *seq(), Engine::run_cioq_full, trace, link, None);
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

        let (resumed, resumed_sched) = run_on(
            cfg,
            &mut *seq(),
            Engine::run_cioq_full,
            trace,
            link,
            Some(&decoded),
        );
        assert_resumes(&resumed, &full, k, what);
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
        let partitioned = || Partitioned::new(sharded, shards, cfg);
        let run = Engine::run_cioq_full;
        let (sh_full, _) = run_on(cfg, partitioned(), run, trace, link, None);
        // Sequential ↔ sharded snapshot byte-compatibility.
        assert_agree(&sh_full, &full, &w);
        // Sharded resume from the sequential snapshot.
        let (sh_resumed, sched) = run_on(cfg, partitioned(), run, trace, link, Some(snap));
        assert_resumes(&sh_resumed, &sh_full, k, &w);
        let cycle_off = (k as usize) * speedup;
        assert_eq!(
            sched.transfers[..],
            full_sched.transfers[cycle_off..],
            "{w}: sharded transfer transcript tail after k={k}"
        );
        // And the reverse: a partitioned run's checkpoint resumes
        // whole-switch GM.
        let sh_snap = &sh_full.checkpoints[sh_full.checkpoints.len() / 2];
        let (xres, _) = run_on(
            cfg,
            &mut *seq(),
            Engine::run_cioq_full,
            trace,
            link,
            Some(sh_snap),
        );
        let w = format!("{w}: sequential resume from a sharded checkpoint");
        assert_resumes(&xres, &full, sh_snap.slot(), &w);
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
    let (full, full_sched) = run_on(
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
        let (resumed, resumed_sched) = run_on(
            cfg,
            &mut *seq(),
            Engine::run_crossbar_full,
            trace,
            link,
            Some(&decoded),
        );
        assert_resumes(&resumed, &full, k, what);
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
        stats_window: Some(6),
        ..run_options(&link)
    };
    // Fresh, or resumed from a checkpoint that went through its bytes.
    let run = |policy: &mut dyn CioqPolicy, resume: Option<&EngineSnapshot>| {
        let (engine, from) = match resume {
            Some(snap) => {
                let decoded = EngineSnapshot::from_bytes(&snap.to_bytes()).expect("round-trip");
                let engine = Engine::restore(&decoded, options()).expect("restore with window");
                (engine, snap.slot())
            }
            None => (Engine::new(cfg.clone(), options()), 0),
        };
        let mut source = TraceSource::resume_at(&trace, from);
        engine.run_cioq_full(policy, &mut source).expect("run")
    };

    let full = run(&mut PreemptiveGreedy::new(), None);
    let window = full.report.window.as_ref().expect("window enabled");
    assert_eq!(window.window(), 6, "configured size");
    assert!(!window.is_empty(), "run long enough to fill the window");

    let snap = &full.checkpoints[full.checkpoints.len() / 2];
    let resumed = run(&mut PreemptiveGreedy::new(), Some(snap));
    assert_resumes(&resumed, &full, snap.slot(), "windowed report");

    // The partitioned twin: GM over K = 2 keeps whole-switch GM's window,
    // and keeps it through a kill and restore.
    let gm = ShardedGm::new();
    let gm_full = run(&mut GreedyMatching::new(), None);
    let sh_full = run(&mut Partitioned::new(&gm, 2, &cfg), None);
    assert_agree(&sh_full, &gm_full, "partitioned windowed report");
    let snap = &sh_full.checkpoints[sh_full.checkpoints.len() / 2];
    let sh_resumed = run(&mut Partitioned::new(&gm, 2, &cfg), Some(snap));
    let what = "partitioned windowed report";
    assert_resumes(&sh_resumed, &gm_full, snap.slot(), what);
}

/// Restore rejects a snapshot taken on a different fabric: the in-flight
/// landing schedule is fabric-dependent, so silently reinterpreting it
/// would corrupt the run.
#[test]
fn restore_rejects_mismatched_fabric() {
    let cfg = cioq_cfg();
    let trace = bursty_trace(&cfg, 32, 0xCE);
    let link = FabricSpec::uniform(2);
    let (full, _) = run_on(
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
