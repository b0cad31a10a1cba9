//! Service-daemon soak: run the streaming seam for ~10⁶ slots without ever
//! materialising the trace, and prove the service-mode contract end to end:
//!
//! * **Backpressure engages and is harmless** — a shallow channel forces
//!   the producer to block at least once, nothing is dropped, and the
//!   transcript is byte-identical to a deep-channel run of the same
//!   workload (run A depth 4 vs run C depth 64 through the service API).
//! * **Kill/restore mid-stream** — run B restores from a middle
//!   checkpoint's serialized bytes, re-attaches a fast-forwarded generator
//!   at the checkpoint's stream cursor, and must reproduce run A's report
//!   and re-emit byte-identical checkpoints from there on.
//! * **Bounded memory** — resident-set growth across all three runs stays
//!   under a bound far below the size of the materialised trace the
//!   streaming seam avoids (Linux only; skipped elsewhere).
//!
//! Pass `--quick` for reduced scale, `--markdown` for markdown output.
//! Exits non-zero on any divergence, missing backpressure, or RSS growth.

use cioq_core::GreedyMatching;
use cioq_experiments::Table;
use cioq_model::SwitchConfig;
use cioq_sim::{
    feed, replay, serve_cioq, Engine, EngineSnapshot, RunOptions, RunOutcome, StreamCursor,
};
use cioq_traffic::{slot_packets, BernoulliUniform, ValueDist};

/// Allowed resident-set growth across the whole soak. The avoided
/// materialised trace alone would be ~`load · n · slots` packets (tens of
/// MiB at full scale), so staying under this bound demonstrates the
/// streaming path really is O(per-slot). Tightened from 64 MiB once the
/// channel recycled its batch buffers
/// ([`StreamSender::send_reusing`](cioq_sim::StreamSender::send_reusing)):
/// a steady-state producer/consumer pair now allocates nothing per slot,
/// so RSS should be flat to within allocator slop.
const RSS_BOUND_MIB: u64 = 16;

fn options(every: u64) -> RunOptions {
    RunOptions {
        checkpoint_every: Some(every),
        ..RunOptions::default()
    }
}

/// `VmRSS` in KiB from `/proc/self/status`, or `None` off Linux.
fn rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn checkpoints_identical(a: &[EngineSnapshot], b: &[EngineSnapshot]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bytes() == y.to_bytes())
}

struct Row {
    name: &'static str,
    depth: usize,
    outcome: RunOutcome,
    stalls: u64,
    verdict: Result<(), String>,
}

fn main() {
    let markdown = std::env::args().any(|a| a == "--markdown");
    let slots = cioq_experiments::scaled_slots(1_000_000, cioq_experiments::quick_mode());
    let every = (slots / 64).max(8);
    let cfg = SwitchConfig::cioq(4, 3, 2);
    let gen = BernoulliUniform::new(
        0.6,
        ValueDist::Bimodal {
            high: 40,
            p_high: 0.2,
        },
    );
    let seed = 0x5eed;
    let rss_start = rss_kib();

    // Run A: shallow channel, engine started only after the producer has
    // filled the buffer and blocked — backpressure engages deterministically
    // before the first slot is consumed.
    let (mut source_a, pump_a) = replay(
        4,
        StreamCursor::start(),
        slot_packets(gen.slots(seed), &cfg, slots),
    );
    source_a.wait_backpressure();
    let engine = Engine::try_new(cfg.clone(), options(every)).expect("valid options");
    let full = engine
        .run_cioq_full(&mut GreedyMatching::new(), &mut source_a)
        .expect("streamed run");
    let stalls_a = source_a.stalls();
    drop(source_a);
    pump_a.join();
    let verdict_a = if stalls_a == 0 {
        Err("backpressure never engaged".to_string())
    } else if full.report.accepted == 0 {
        Err("stream run admitted nothing".to_string())
    } else {
        Ok(())
    };

    // Run B: kill at the middle checkpoint, restore through the wire
    // format, re-feed from the checkpoint's stream cursor with a fresh
    // fast-forwarded generator.
    let mid = &full.checkpoints[full.checkpoints.len() / 2];
    let decoded = EngineSnapshot::from_bytes(&mid.to_bytes()).expect("decode own bytes");
    let restored = Engine::restore(&decoded, options(every)).expect("restore own checkpoint");
    let (mut source_b, pump_b) = replay(
        4,
        decoded.stream_cursor(),
        slot_packets(gen.slots(seed), &cfg, slots),
    );
    let resumed = restored
        .run_cioq_full(&mut GreedyMatching::new(), &mut source_b)
        .expect("resumed streamed run");
    let stalls_b = source_b.stalls();
    drop(source_b);
    pump_b.join();
    let tail: Vec<EngineSnapshot> = full
        .checkpoints
        .iter()
        .filter(|c| c.slot() >= decoded.slot())
        .cloned()
        .collect();
    let verdict_b = if resumed.report != full.report {
        Err("resumed report diverged".to_string())
    } else if !checkpoints_identical(&resumed.checkpoints, &tail) {
        Err("resumed checkpoint tail diverged".to_string())
    } else {
        Ok(())
    };

    // Run C: same workload through the service API with a deep channel —
    // the transcript must not depend on the channel depth.
    let packets_c = slot_packets(gen.slots(seed), &cfg, slots);
    let served = serve_cioq(
        cfg.clone(),
        options(every),
        &mut GreedyMatching::new(),
        64,
        move |tx| feed(tx, StreamCursor::start(), packets_c),
    )
    .expect("service run");
    let verdict_c = if served.outcome.report != full.report {
        Err("deep-channel report diverged".to_string())
    } else if !checkpoints_identical(&served.outcome.checkpoints, &full.checkpoints) {
        Err("deep-channel checkpoints diverged".to_string())
    } else {
        Ok(())
    };

    let rss_end = rss_kib();
    let rss_verdict = match (rss_start, rss_end) {
        (Some(start), Some(end)) => {
            let growth_mib = end.saturating_sub(start) / 1024;
            if growth_mib >= RSS_BOUND_MIB {
                Err(format!(
                    "RSS grew {growth_mib} MiB (bound {RSS_BOUND_MIB} MiB)"
                ))
            } else {
                Ok(())
            }
        }
        _ => Ok(()), // not Linux: no /proc, skip the bound
    };

    let rows = [
        Row {
            name: "A stream",
            depth: 4,
            outcome: full,
            stalls: stalls_a,
            verdict: verdict_a,
        },
        Row {
            name: "B restore",
            depth: 4,
            outcome: resumed,
            stalls: stalls_b,
            verdict: verdict_b,
        },
        Row {
            name: "C service",
            depth: 64,
            outcome: served.outcome,
            stalls: served.stalls,
            verdict: verdict_c,
        },
    ];

    let mut table = Table::new(
        "Service daemon soak: streamed ingestion, kill/restore, depth independence",
        &[
            "run",
            "depth",
            "slots",
            "arrived",
            "accepted",
            "transmitted",
            "stalls",
            "ckpts",
            "verdict",
        ],
    );
    let mut failures = 0;
    for row in &rows {
        if row.verdict.is_err() {
            failures += 1;
        }
        table.push(vec![
            row.name.to_string(),
            row.depth.to_string(),
            row.outcome.report.slots.to_string(),
            row.outcome.report.arrived.to_string(),
            row.outcome.report.accepted.to_string(),
            row.outcome.report.transmitted.to_string(),
            row.stalls.to_string(),
            row.outcome.checkpoints.len().to_string(),
            match &row.verdict {
                Ok(()) => "ok".to_string(),
                Err(e) => format!("FAIL: {e}"),
            },
        ]);
    }

    if markdown {
        println!("{}", table.to_markdown());
    } else {
        table.print();
    }
    match (&rss_start, &rss_end) {
        (Some(s), Some(e)) => println!("rss: {} -> {} KiB", s, e),
        _ => println!("rss: unavailable (no /proc), bound skipped"),
    }
    if let Err(e) = rss_verdict {
        eprintln!("{e}");
        failures += 1;
    }
    if failures > 0 {
        eprintln!("{failures} soak check(s) failed");
        std::process::exit(1);
    }
    println!("soak ok: streamed, restored and service runs byte-identical; backpressure engaged");
}
