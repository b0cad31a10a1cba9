//! Crash-recovery harness: drive kill/restore cycles under seeded fault
//! plans and prove the headline guarantee end to end — for every policy ×
//! fabric, an uninterrupted checkpointed run is compared against a run
//! killed at each checkpoint slot and restored from the snapshot bytes.
//! The resumed run must reproduce the uninterrupted `RunReport` exactly
//! and re-emit byte-identical checkpoints from the kill slot onward.
//!
//! Pass `--quick` for reduced scale, `--markdown` for markdown output.
//! Exits non-zero if any kill/restore cycle diverges.

use cioq_experiments::{PolicyKind, Table};
use cioq_model::{SwitchConfig, Topology};
use cioq_sim::{
    Engine, EngineSnapshot, FabricSpec, FaultPlan, RunOptions, RunOutcome, Trace, TraceSource,
};
use cioq_traffic::{gen_trace, OnOffBursty, ValueDist};

fn options(link: &FabricSpec, faults: &FaultPlan, every: u64) -> RunOptions {
    RunOptions {
        checkpoint_every: Some(every),
        faults: Some(faults.clone()),
        fabric: link.clone(),
        ..RunOptions::default()
    }
}

/// One run to completion: fresh from the trace start, or resumed from a
/// checkpoint (the policy is rebuilt — its caches are a deterministic
/// function of the restored queue state).
fn run(
    kind: PolicyKind,
    cfg: &SwitchConfig,
    trace: &Trace,
    link: &FabricSpec,
    faults: &FaultPlan,
    every: u64,
    resume: Option<&EngineSnapshot>,
) -> RunOutcome {
    let engine = match resume {
        Some(snap) => {
            Engine::restore(snap, options(link, faults, every)).expect("restore own checkpoint")
        }
        None => Engine::new(cfg.clone(), options(link, faults, every)),
    };
    let mut source = match resume {
        Some(snap) => TraceSource::resume_at(trace, snap.slot()),
        None => TraceSource::new(trace),
    };
    kind.run(engine, &mut source)
        .expect("faulted run must degrade gracefully, not error")
}

/// Kill at every checkpoint of the uninterrupted run, restore from the
/// serialized bytes, and count divergences.
fn kill_restore_cycles(
    kind: PolicyKind,
    cfg: &SwitchConfig,
    trace: &Trace,
    link: &FabricSpec,
    faults: &FaultPlan,
    every: u64,
) -> (RunOutcome, usize, usize) {
    let full = run(kind, cfg, trace, link, faults, every, None);
    let mut kills = 0;
    let mut failures = 0;
    for snap in &full.checkpoints {
        kills += 1;
        // Restore through the wire format: what a daemon would reload.
        let decoded = EngineSnapshot::from_bytes(&snap.to_bytes()).expect("decode own bytes");
        let resumed = run(kind, cfg, trace, link, faults, every, Some(&decoded));
        let k = snap.slot();
        let tail: Vec<&EngineSnapshot> =
            full.checkpoints.iter().filter(|c| c.slot() >= k).collect();
        let report_ok = resumed.report == full.report;
        let tail_ok = resumed.checkpoints.len() == tail.len()
            && resumed
                .checkpoints
                .iter()
                .zip(&tail)
                .all(|(a, b)| a.to_bytes() == b.to_bytes());
        if !report_ok || !tail_ok {
            failures += 1;
            eprintln!(
                "DIVERGED: {} kill at slot {k}: report_ok={report_ok} tail_ok={tail_ok}",
                kind.label()
            );
        }
    }
    (full, kills, failures)
}

fn main() {
    let quick = cioq_experiments::quick_mode();
    let markdown = std::env::args().any(|a| a == "--markdown");
    let slots = cioq_experiments::scaled_slots(96, quick);
    let every = if quick { 8 } else { 12 };
    let n = 6;
    let gen = OnOffBursty::new(
        0.85,
        6.0,
        ValueDist::Bimodal {
            high: 40,
            p_high: 0.2,
        },
    );

    let matrix = FabricSpec::matrix(Topology::two_tier(n, n, 3, 0, 2).expect("two-tier topology"));
    let fabrics: Vec<(&str, FabricSpec)> = if quick {
        vec![("delay-line d=2", FabricSpec::uniform(2))]
    } else {
        vec![
            ("immediate", FabricSpec::default()),
            ("delay-line d=2", FabricSpec::uniform(2)),
            ("two-tier matrix", matrix),
        ]
    };
    let seeds: &[u64] = if quick { &[0x7a] } else { &[0x7a, 0x7b] };

    let mut table = Table::new(
        "Crash recovery: kill at every checkpoint, restore from bytes, replay",
        &[
            "policy", "fabric", "seed", "ckpts", "kills", "dropped", "retx", "verdict",
        ],
    );
    let mut total_failures = 0;
    for (label, kind) in [
        ("GM", PolicyKind::Gm),
        ("PG", PolicyKind::pg_default()),
        ("CGU", PolicyKind::Cgu),
        ("CPG", PolicyKind::cpg_default()),
    ] {
        let cfg = if kind.is_crossbar() {
            SwitchConfig::crossbar(n, 3, 2, 2)
        } else {
            SwitchConfig::cioq(n, 3, 2)
        };
        for (fabric_name, link) in &fabrics {
            for &seed in seeds {
                let trace = gen_trace(&gen, &cfg, slots, seed);
                let faults = FaultPlan::seeded(seed, n, n, slots, 6);
                let (full, kills, failures) =
                    kill_restore_cycles(kind, &cfg, &trace, link, &faults, every);
                total_failures += failures;
                table.push(vec![
                    label.to_string(),
                    fabric_name.to_string(),
                    format!("{seed:#x}"),
                    full.checkpoints.len().to_string(),
                    kills.to_string(),
                    full.report.losses.dropped.to_string(),
                    full.report.retransmitted.to_string(),
                    if failures == 0 {
                        "ok".to_string()
                    } else {
                        format!("{failures} DIVERGED")
                    },
                ]);
            }
        }
    }

    if markdown {
        println!("{}", table.to_markdown());
    } else {
        table.print();
    }
    if total_failures > 0 {
        eprintln!("{total_failures} kill/restore cycle(s) diverged");
        std::process::exit(1);
    }
    println!("all kill/restore cycles byte-identical");
}
