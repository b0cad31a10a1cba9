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

use cioq_core::{
    CrossbarGreedyUnit, CrossbarPreemptiveGreedy, GreedyMatching, PreemptiveGreedy, ShardedGm,
};
use cioq_model::{PortId, SlotId, SwitchConfig, Topology};
use cioq_sim::{
    run_cioq_sharded, serve_cioq, stream_trace, stream_trace_from, ArrivalSource, Engine,
    EngineSnapshot, ExecMode, FabricSpec, PolicyError, RecordedSchedule, Recording, RunOptions,
    RunOutcome, ShardedOptions, StreamCursor, SwitchState, Trace, TraceSource,
};
use cioq_traffic::{gen_trace, OnOffBursty, ValueDist};

const SHARD_COUNTS: [usize; 2] = [2, 4];
const CHECKPOINT_EVERY: SlotId = 8;
const DEPTHS: [usize; 2] = [1, 64];

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

fn run_options(link: &FabricSpec) -> RunOptions {
    RunOptions {
        checkpoint_every: Some(CHECKPOINT_EVERY),
        fabric: link.clone(),
        ..RunOptions::default()
    }
}

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

fn assert_checkpoints_identical(a: &[EngineSnapshot], b: &[EngineSnapshot], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: checkpoint count");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(
            x.to_bytes(),
            y.to_bytes(),
            "{what}: checkpoint at slot {}",
            y.slot()
        );
    }
}

/// `Engine::run_cioq_full` or `Engine::run_crossbar_full`, over a
/// recorded policy: the architecture a sequential run takes.
type RunFull<P> =
    fn(Engine, &mut Recording<P>, &mut dyn ArrivalSource) -> Result<RunOutcome, PolicyError>;

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
        let (mut src, pump) = stream_trace(trace, depth);
        let mut rec = Recording::with_fabric(make(), link);
        let engine = Engine::new(cfg.clone(), run_options(link));
        let streamed = run(engine, &mut rec, &mut src).expect("stream-fed run");
        let stalls = src.stalls();
        drop(src);
        pump.join();
        let sched = rec.into_schedule();
        assert_eq!(streamed.report, full.report, "{w}: report");
        assert_states_equal(&streamed.final_state, &full.final_state, &w);
        assert_checkpoints_identical(&streamed.checkpoints, &full.checkpoints, &w);
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
        let (mut src, pump) = stream_trace(&trace, 4);
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

    let (mut src, pump) = stream_trace_from(&trace, 4, cursor);
    let resumed = Engine::restore(&decoded, run_options(&link))
        .expect("restore own checkpoint")
        .run_cioq_full(&mut PreemptiveGreedy::new(), &mut src)
        .expect("resumed stream-fed run");
    drop(src);
    pump.join();
    assert_eq!(resumed.report, full.report, "report after stream resume");
    let tail: Vec<EngineSnapshot> = full
        .checkpoints
        .iter()
        .filter(|c| c.slot() >= cursor.slot)
        .cloned()
        .collect();
    assert_checkpoints_identical(&resumed.checkpoints, &tail, "stream resume");
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

    let (mut src, pump) =
        cioq_sim::stream_reader(std::io::BufReader::new(std::io::Cursor::new(bytes)), 4)
            .expect("valid header");
    let streamed = Engine::new(cfg.clone(), run_options(&link))
        .run_cioq_full(&mut GreedyMatching::new(), &mut src)
        .expect("reader-fed run");
    drop(src);
    pump.join();
    assert_eq!(streamed.report, full.report, "replay-file report");
    assert_checkpoints_identical(&streamed.checkpoints, &full.checkpoints, "replay file");
}

/// The feeds where the arrival window is not the whole trace: `slots` cut
/// below the horizon (off the checkpoint cadence), and a run resumed from a
/// mid-trace checkpoint. The sharded engine fed by the trace and the
/// sequential engine fed by a stream must agree with the trace-fed
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
    let sharded = |shards, resume: Option<EngineSnapshot>| -> Fed {
        let mut opts = ShardedOptions::new(shards);
        opts.fabric = link.clone();
        opts.mode = ExecMode::Inline;
        opts.record = true;
        opts.capture_final_state = true;
        opts.checkpoint_every = Some(CHECKPOINT_EVERY);
        opts.slots = Some(CUT);
        opts.resume_from = resume;
        let out = run_cioq_sharded(&cfg, &ShardedGm::new(), &trace, opts).expect("sharded run");
        let outcome = RunOutcome {
            report: out.report,
            final_state: out.final_state.expect("capture requested"),
            checkpoints: out.checkpoints,
        };
        (outcome, out.schedule.expect("recording requested"))
    };
    let streamed = |resume: Option<&EngineSnapshot>| -> Fed {
        let cursor = resume.map_or(StreamCursor::start(), |s| s.stream_cursor());
        let engine = match resume {
            Some(snap) => Engine::restore(snap, seq_options.clone()).expect("restore"),
            None => Engine::new(cfg.clone(), seq_options.clone()),
        };
        let (mut src, pump) = stream_trace_from(&trace, 2, cursor);
        let mut rec = Recording::with_fabric(GreedyMatching::new(), &link);
        let out = engine
            .run_cioq_full(&mut rec, &mut src)
            .expect("stream-fed run");
        // The producer still holds the slots past the cut: hang up on it.
        drop(src);
        pump.join();
        (out, rec.into_schedule())
    };
    let check = |w: &str, (out, sched): &Fed, checkpoints: &[EngineSnapshot], slot: SlotId| {
        // A resumed transcript is the uninterrupted one's tail: arrivals
        // from the checkpoint's arrived count on, cycles from its slot on.
        let admitted_before = trace.packets().partition_point(|p| p.arrival < slot);
        let cycles_before = (slot * cfg.speedup as SlotId) as usize;
        assert_eq!(out.report, seq.report, "{w}: report");
        assert_states_equal(&out.final_state, &seq.final_state, w);
        assert_checkpoints_identical(&out.checkpoints, checkpoints, w);
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
    let tail: Vec<EngineSnapshot> = seq
        .checkpoints
        .iter()
        .filter(|c| c.slot() >= kill)
        .cloned()
        .collect();
    let w = format!("cut at {CUT}");
    check(
        &format!("{w} stream-fed"),
        &streamed(None),
        &seq.checkpoints,
        0,
    );
    let resumed = streamed(Some(&decoded));
    check(
        &format!("{w} resumed at {kill} stream-fed"),
        &resumed,
        &tail,
        kill,
    );
    for shards in SHARD_COUNTS {
        let w = format!("{w} K={shards} trace-fed");
        check(&w, &sharded(shards, None), &seq.checkpoints, 0);
        let resumed = sharded(shards, Some(decoded.clone()));
        check(&format!("{w} resumed at {kill}"), &resumed, &tail, kill);
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
        move |tx| {
            let mut i = 0;
            while i < packets.len() {
                let slot = packets[i].arrival;
                let mut batch = Vec::new();
                while i < packets.len() && packets[i].arrival == slot {
                    batch.push(packets[i]);
                    i += 1;
                }
                if tx.send(slot, batch).is_err() {
                    return;
                }
            }
        },
    )
    .expect("service run");
    assert_eq!(served.outcome.report, full.report, "service report");
    assert_states_equal(
        &served.outcome.final_state,
        &full.final_state,
        "service final state",
    );
}
