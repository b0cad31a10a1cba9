//! Pooled-hot-path parity proofs: the zero-allocation slot loop recycles
//! policy scratch, matching buffers and fabric calendars
//! across runs — and none of that warm state may leak into decisions.
//!
//! Two properties pin it down, for all four policies sequential and GM
//! sharded K ∈ {2, 4} (the sharded engine runs GM only), over the
//! immediate, a uniform-delay and a two-tier matrix fabric:
//!
//! * **Warm == cold.** The same policy object is run through three
//!   consecutive fresh engines over the same trace. The first run grows
//!   every pooled buffer from empty; the later runs start with warm,
//!   capacity-grown pools. Reports, final states, decision transcripts
//!   and checkpoint *bytes* must be identical across all three.
//! * **Sharded == sequential, pools and all.** Every repeated sharded run
//!   (same policy object, warm worker pools after run one) must match the
//!   sequential reference transcript, report, final state and checkpoint
//!   bytes — the sharded engine's snapshots are byte-compatible with the
//!   sequential engine's, so a capacity-dependent divergence anywhere in
//!   the pooled paths would surface here as a byte diff.

mod common;

use cioq_core::{
    CrossbarGreedyUnit, CrossbarPreemptiveGreedy, GreedyMatching, PreemptiveGreedy, ShardedGm,
};
use cioq_model::{SlotId, SwitchConfig};
use cioq_sim::{
    run_cioq_sharded, CioqShardPolicy, Engine, FabricSpec, RecordedSchedule, Recording, RunOptions,
    RunOutcome, Trace, TraceSource,
};
use common::{assert_agree, bursty_trace, cioq_cfg, fabrics, sharded_options, RunFull};

const SHARD_COUNTS: [usize; 2] = [2, 4];
const CHECKPOINT_EVERY: SlotId = 8;
/// One cold run plus two warm ones — the second warm run catches pools
/// that only reach their high-water capacity during the first warm pass.
const RUNS: usize = 3;

fn run_options(link: &FabricSpec) -> RunOptions {
    common::run_options(link, Some(CHECKPOINT_EVERY))
}

/// Run one policy object of either architecture through `RUNS`
/// consecutive fresh engines: the cold first run is the reference, the
/// warm reruns must reproduce it byte for byte. Returns the reference for
/// the sharded comparison.
fn check_seq_pooled<P>(
    make: impl Fn() -> P,
    run: RunFull<P>,
    cfg: &SwitchConfig,
    trace: &Trace,
    link: &FabricSpec,
    what: &str,
) -> (RunOutcome, RecordedSchedule) {
    let mut rec = Recording::with_fabric(make(), link);
    let mut reference: Option<(RunOutcome, RecordedSchedule)> = None;
    for pass in 0..RUNS {
        let engine = Engine::new(cfg.clone(), run_options(link));
        let outcome = run(engine, &mut rec, &mut TraceSource::new(trace)).expect("trace-fed run");
        let sched = std::mem::take(&mut rec.schedule);
        rec.schedule.fabric_delay = link.max_delay();
        match &reference {
            None => reference = Some((outcome, sched)),
            Some((ref_out, ref_sched)) => {
                let w = format!("{what} warm run {pass}");
                assert_agree(&outcome, ref_out, &w);
                assert_eq!(sched, *ref_sched, "{w}: decision transcript");
            }
        }
    }
    reference.expect("at least one run")
}

/// Repeated sharded runs of the same policy object vs the sequential
/// reference: transcript, report, final state and checkpoint bytes.
fn check_sharded_cioq_pooled(
    cfg: &SwitchConfig,
    policy: &dyn CioqShardPolicy,
    trace: &Trace,
    link: &FabricSpec,
    ref_out: &RunOutcome,
    ref_sched: &RecordedSchedule,
    what: &str,
) {
    for shards in SHARD_COUNTS {
        for run in 0..RUNS {
            let w = format!("{what} K={shards} run {run}");
            let options = sharded_options(shards, &run_options(link), None);
            let outcome = run_cioq_sharded(cfg, policy, trace, options)
                .unwrap_or_else(|e| panic!("{w}: sharded run failed: {e}"));
            assert_agree(&outcome, ref_out, &w);
            let sched = outcome.schedule.as_ref().expect("recording requested");
            assert_eq!(sched, ref_sched, "{w}: decision transcript");
        }
    }
}

// ---------------------------------------------------------------------------
// The matrix: 4 policies sequential, GM sharded K ∈ {2, 4}, × fabrics
// ---------------------------------------------------------------------------

#[test]
fn cioq_pooled_parity() {
    let cfg = cioq_cfg();
    let trace = bursty_trace(&cfg, 96, 0xA110C);
    for (label, link) in &fabrics() {
        let (gm_out, gm_sched) = check_seq_pooled(
            GreedyMatching::new,
            Engine::run_cioq_full,
            &cfg,
            &trace,
            link,
            &format!("gm {label}"),
        );
        check_seq_pooled(
            PreemptiveGreedy::new,
            Engine::run_cioq_full,
            &cfg,
            &trace,
            link,
            &format!("pg {label}"),
        );
        check_sharded_cioq_pooled(
            &cfg,
            &ShardedGm::new(),
            &trace,
            link,
            &gm_out,
            &gm_sched,
            &format!("gm {label}"),
        );
    }
}

#[test]
fn crossbar_pooled_parity() {
    let cfg = SwitchConfig::crossbar(6, 3, 1, 2);
    let trace = bursty_trace(&cfg, 96, 0xA110D);
    for (label, link) in &fabrics() {
        check_seq_pooled(
            CrossbarGreedyUnit::new,
            Engine::run_crossbar_full,
            &cfg,
            &trace,
            link,
            &format!("cgu {label}"),
        );
        check_seq_pooled(
            CrossbarPreemptiveGreedy::new,
            Engine::run_crossbar_full,
            &cfg,
            &trace,
            link,
            &format!("cpg {label}"),
        );
    }
}
