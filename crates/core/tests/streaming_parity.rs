//! Streaming-ingestion parity proofs: a run fed by the push-based
//! [`StreamingSource`] must be byte-identical to the same run fed by the
//! pre-materialised [`Trace`] — same report, final state, decision
//! transcript and checkpoint bytes — for all four policies on the
//! sequential engine, the one a stream feeds, over the immediate, a
//! uniform-delay and a two-tier matrix fabric.
//!
//! Also proven here: the transcript does not depend on the channel depth
//! (depth 1, which forces backpressure at every refill, equals depth 64),
//! a killed streaming run restored from checkpoint bytes and re-fed from
//! the checkpoint's stream cursor reproduces the uninterrupted run, the
//! replay-file reader feeds a byte-identical stream, and the service API
//! (`serve_cioq`) wraps the whole seam without changing the transcript.

mod common;

use cioq_core::{
    CrossbarGreedyUnit, CrossbarPreemptiveGreedy, GreedyMatching, PreemptiveGreedy, ShardedGm,
};
use cioq_model::{SlotId, SwitchConfig};
use cioq_sim::{
    feed, replay, serve_cioq, Engine, EngineSnapshot, FabricSpec, Partitioned, RecordedSchedule,
    Recording, RunOptions, RunOutcome, StreamCursor, Trace, TraceReader, TraceSource,
};
use common::{
    assert_agree, assert_resumes, bursty_trace, cioq_cfg, fabrics, recorded_run, RunFull,
};

const SHARD_COUNTS: [usize; 2] = [2, 4];
const CHECKPOINT_EVERY: SlotId = 8;
const DEPTHS: [usize; 2] = [1, 64];

fn run_options(link: &FabricSpec) -> RunOptions {
    common::run_options(link, Some(CHECKPOINT_EVERY))
}

/// The sequential parity check for one policy of either architecture on
/// one fabric: a trace-fed reference run vs stream-fed runs at every
/// depth, full transcript equality included. The trace run pins `slots`
/// to the source horizon implicitly; the streamed runs have no horizon at
/// all — the arrival window closes when the producer hangs up.
fn check_seq<P>(
    make: impl Fn() -> P,
    run: RunFull<P>,
    cfg: &SwitchConfig,
    trace: &Trace,
    link: &FabricSpec,
    what: &str,
) {
    let mut rec = Recording::with_fabric(make(), link);
    let engine = Engine::new(cfg.clone(), run_options(link));
    let full = run(engine, &mut rec, &mut TraceSource::new(trace)).expect("trace-fed run");
    let full_sched = rec.into_schedule();
    assert!(
        full.checkpoints.len() >= 2,
        "{what}: run too short for the checkpoint cadence"
    );

    for depth in DEPTHS {
        let w = format!("{what} depth={depth}");
        let (mut src, pump) = replay(depth, StreamCursor::start(), trace.packets().to_vec());
        let mut rec = Recording::with_fabric(make(), link);
        let engine = Engine::new(cfg.clone(), run_options(link));
        let streamed = run(engine, &mut rec, &mut src).expect("stream-fed run");
        let stalls = src.stalls();
        drop(src);
        pump.join();
        let sched = rec.into_schedule();
        assert_agree(&streamed, &full, &w);
        assert_eq!(
            sched.input_transfers, full_sched.input_transfers,
            "{w}: input transfers"
        );
        assert_eq!(sched.transfers, full_sched.transfers, "{w}: transfers");
        assert_eq!(sched.admissions, full_sched.admissions, "{w}: admissions");
        if depth == 1 {
            assert!(stalls >= 1, "{w}: depth-1 channel must engage backpressure");
        }
    }
}

// ---------------------------------------------------------------------------
// The headline matrix: 4 policies sequential × fabrics
// ---------------------------------------------------------------------------

#[test]
fn cioq_stream_parity() {
    let cfg = cioq_cfg();
    let trace = bursty_trace(&cfg, 48, 0xD0);
    for (label, link) in &fabrics() {
        check_seq(
            GreedyMatching::new,
            Engine::run_cioq_full,
            &cfg,
            &trace,
            link,
            &format!("gm {label}"),
        );
        check_seq(
            PreemptiveGreedy::new,
            Engine::run_cioq_full,
            &cfg,
            &trace,
            link,
            &format!("pg {label}"),
        );
    }
}

#[test]
fn crossbar_stream_parity() {
    let cfg = SwitchConfig::crossbar(6, 3, 1, 2);
    let trace = bursty_trace(&cfg, 48, 0xD1);
    for (label, link) in &fabrics() {
        check_seq(
            CrossbarGreedyUnit::new,
            Engine::run_crossbar_full,
            &cfg,
            &trace,
            link,
            &format!("cgu {label}"),
        );
        check_seq(
            CrossbarPreemptiveGreedy::new,
            Engine::run_crossbar_full,
            &cfg,
            &trace,
            link,
            &format!("cpg {label}"),
        );
    }
}

// ---------------------------------------------------------------------------
// Mid-stream kill/restore, replay files, cut windows, service API
// ---------------------------------------------------------------------------

/// Kill a sequential streaming run at its middle checkpoint, restore from
/// the bytes, and re-feed the stream from the checkpoint's cursor: report
/// and the checkpoint tail must match the uninterrupted run.
#[test]
fn sequential_stream_restore_mid_stream() {
    let cfg = cioq_cfg();
    let trace = bursty_trace(&cfg, 48, 0xD2);
    let link = FabricSpec::uniform(2);
    let (full, _) = {
        let (mut src, pump) = replay(4, StreamCursor::start(), trace.packets().to_vec());
        let full = Engine::new(cfg.clone(), run_options(&link))
            .run_cioq_full(&mut PreemptiveGreedy::new(), &mut src)
            .expect("stream-fed run");
        drop(src);
        pump.join();
        (full, ())
    };
    let snap = &full.checkpoints[full.checkpoints.len() / 2];
    let decoded = EngineSnapshot::from_bytes(&snap.to_bytes()).expect("round-trip");
    let cursor = decoded.stream_cursor();
    assert_eq!(cursor.slot, snap.slot(), "cursor sits at the kill slot");

    let (mut src, pump) = replay(4, cursor, trace.packets().to_vec());
    let resumed = Engine::restore(&decoded, run_options(&link))
        .expect("restore own checkpoint")
        .run_cioq_full(&mut PreemptiveGreedy::new(), &mut src)
        .expect("resumed stream-fed run");
    drop(src);
    pump.join();
    assert_resumes(&resumed, &full, cursor.slot, "stream");
}

/// A replay file (the `cioq-trace v1` wire format) streamed through the
/// incremental reader feeds the same run as the in-memory trace.
#[test]
fn replay_file_stream_matches_trace() {
    let cfg = cioq_cfg();
    let trace = bursty_trace(&cfg, 48, 0xD3);
    let link = FabricSpec::uniform(2);
    let mut bytes = Vec::new();
    trace.write_to(&mut bytes).expect("serialize trace");

    let full = Engine::new(cfg.clone(), run_options(&link))
        .run_cioq_full(&mut GreedyMatching::new(), &mut TraceSource::new(&trace))
        .expect("trace-fed run");

    let file = std::io::BufReader::new(std::io::Cursor::new(bytes));
    let (mut src, pump) = replay(
        4,
        StreamCursor::start(),
        TraceReader::new(file).expect("valid header"),
    );
    let streamed = Engine::new(cfg.clone(), run_options(&link))
        .run_cioq_full(&mut GreedyMatching::new(), &mut src)
        .expect("reader-fed run");
    drop(src);
    pump.join();
    assert_agree(&streamed, &full, "replay file");
}

/// The feeds where the arrival window is not the whole trace: `slots` cut
/// below the horizon (off the checkpoint cadence), and a run resumed from a
/// mid-trace checkpoint. Partitioned GM fed by the trace and whole-switch
/// GM fed by a stream must agree with the trace-fed
/// sequential run on report, transcript and checkpoint bytes — each feed
/// has to stop at the cut and start at the checkpoint by itself, with
/// nothing positioning it from outside.
#[test]
fn cut_short_and_resumed_windows_agree_across_feeds() {
    const CUT: SlotId = 29;
    let cfg = cioq_cfg();
    let trace = bursty_trace(&cfg, 48, 0xD6);
    assert!(
        trace.arrival_slots() > CUT + 8,
        "the cut must drop arrivals"
    );
    let link = FabricSpec::uniform(2);
    let seq_options = RunOptions {
        slots: Some(CUT),
        ..run_options(&link)
    };

    let mut rec = Recording::with_fabric(GreedyMatching::new(), &link);
    let seq = Engine::new(cfg.clone(), seq_options.clone())
        .run_cioq_full(&mut rec, &mut TraceSource::new(&trace))
        .expect("sequential run");
    let seq_sched = rec.into_schedule();
    assert!(seq.report.arrived < trace.len() as u64);

    // What a fed run ends in, whichever engine ran it.
    type Fed = (RunOutcome, RecordedSchedule);
    let gm = ShardedGm::new();
    let sharded = |shards, resume: Option<&EngineSnapshot>| -> Fed {
        let partitioned = Partitioned::new(&gm, shards, &cfg);
        let run = Engine::run_cioq_full;
        recorded_run(&cfg, partitioned, run, &trace, &seq_options, resume)
    };
    let streamed = |resume: Option<&EngineSnapshot>| -> Fed {
        let cursor = resume.map_or(StreamCursor::start(), |s| s.stream_cursor());
        let engine = match resume {
            Some(snap) => Engine::restore(snap, seq_options.clone()).expect("restore"),
            None => Engine::new(cfg.clone(), seq_options.clone()),
        };
        let (mut src, pump) = replay(2, cursor, trace.packets().to_vec());
        let mut rec = Recording::with_fabric(GreedyMatching::new(), &link);
        let out = engine
            .run_cioq_full(&mut rec, &mut src)
            .expect("stream-fed run");
        // The producer still holds the slots past the cut: hang up on it.
        drop(src);
        pump.join();
        (out, rec.into_schedule())
    };
    let check = |w: &str, (out, sched): &Fed, slot: SlotId| {
        // A resumed transcript is the uninterrupted one's tail: arrivals
        // from the checkpoint's arrived count on, cycles from its slot on.
        let admitted_before = trace.packets().partition_point(|p| p.arrival < slot);
        let cycles_before = (slot * cfg.speedup as SlotId) as usize;
        assert_resumes(out, &seq, slot, w);
        assert_eq!(
            sched.transfers,
            seq_sched.transfers[cycles_before..],
            "{w}: transfers"
        );
        assert_eq!(
            sched.admissions,
            seq_sched.admissions[admitted_before..],
            "{w}: admissions"
        );
    };

    let snap = &seq.checkpoints[seq.checkpoints.len() / 2];
    let decoded = EngineSnapshot::from_bytes(&snap.to_bytes()).expect("round-trip");
    let kill = snap.slot();
    assert!(decoded.stream_cursor().consumed < seq_sched.admissions.len() as u64);
    let w = format!("cut at {CUT}");
    check(&format!("{w} stream-fed"), &streamed(None), 0);
    check(&format!("{w} stream-fed"), &streamed(Some(&decoded)), kill);
    for shards in SHARD_COUNTS {
        let w = format!("{w} K={shards} trace-fed");
        check(&w, &sharded(shards, None), 0);
        check(&w, &sharded(shards, Some(&decoded)), kill);
    }
}

/// The service entry point wires channel + producer + engine + drain the
/// same way the manual seam does.
#[test]
fn service_api_matches_trace_fed_run() {
    let cfg = cioq_cfg();
    let trace = bursty_trace(&cfg, 48, 0xD5);
    let full = Engine::new(cfg.clone(), RunOptions::default())
        .run_cioq_full(&mut GreedyMatching::new(), &mut TraceSource::new(&trace))
        .expect("trace-fed run");

    let packets = trace.packets().to_vec();
    let served = serve_cioq(
        cfg.clone(),
        RunOptions::default(),
        &mut GreedyMatching::new(),
        4,
        move |tx| feed(tx, StreamCursor::start(), packets),
    )
    .expect("service run");
    assert_agree(&served.outcome, &full, "service");
}
