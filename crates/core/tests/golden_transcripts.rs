//! Golden transcripts: absolute end-state hashes for the four paper
//! policies, pinned as committed constants.
//!
//! Every other suite in this directory proves *A ≡ B* between two live
//! implementations, so a change that edits both sides at once (a shared
//! helper, a fold of the two slot loops) can shift A and B together and
//! stay green. The eight constants below do not move with the code: each
//! is an FNV-1a hash over the run report, the final queue contents and
//! every checkpoint's canonical bytes, for GM, PG, CGU and CPG on an
//! immediate and a two-tier fabric — and every execution variant the
//! workspace has (sequential, stream-fed, sharded K ∈ {1, 3} for GM, a
//! mid-run resume on each engine) must reproduce it.
//!
//! The geometry is 6 × 70: non-square, and wide enough that the output
//! bitmaps straddle a 64-bit word. Buffers are small and the hot outputs
//! sit on both sides of the word boundary, so rejection, input / crossbar /
//! output preemption and a drain tail all occur (asserted below — a golden
//! value over a run where nothing happens pins nothing).
//!
//! Two more constants pin PG and CPG under a fault plan on a delay line,
//! sequentially and resumed from a checkpoint that holds retransmit
//! packets: held packets count toward their output's virtual queue, and
//! only the sequential engine has a fault layer, so no *A ≡ B* suite sees
//! that accounting.

mod common;

use cioq_core::{
    CrossbarGreedyUnit, CrossbarPreemptiveGreedy, GreedyMatching, PreemptiveGreedy, ShardedGm,
};
use cioq_model::{PortId, SlotId, SwitchConfig, Topology, Value};
use cioq_sim::{
    replay, ArrivalSource, CioqPolicy, CioqShardPolicy, CrossbarPolicy, Engine, EngineSnapshot,
    FabricSpec, FaultEvent, FaultKind, FaultPlan, FaultScope, Partitioned, QueueRef, RunOptions,
    RunOutcome, RunReport, StreamCursor, SwitchState, Trace, TraceSource,
};

const N_INPUTS: usize = 6;
const N_OUTPUTS: usize = 70;
const ARRIVAL_SLOTS: SlotId = 40;
const CHECKPOINT_EVERY: SlotId = 8;
const SHARD_COUNTS: [usize; 2] = [1, 3];

// ---- the pinned values (captured at the parent of PR 17) ----

const GM_IMMEDIATE: u64 = 0xD550_57B7_FCF9_FBD5;
const GM_TWO_TIER: u64 = 0x129E_26E9_CE0A_CBE8;
const PG_IMMEDIATE: u64 = 0xE68D_4E99_4915_6CD6;
const PG_TWO_TIER: u64 = 0x7CF6_ACBF_9F0B_61D8;
const CGU_IMMEDIATE: u64 = 0x6E16_A842_C5F2_339B;
const CGU_TWO_TIER: u64 = 0x4DFE_FD37_D3A9_DA5A;
const CPG_IMMEDIATE: u64 = 0x4B11_CA28_CB38_3535;
const CPG_TWO_TIER: u64 = 0x3801_5669_DEA3_F69B;

// ---- faulted runs (captured before the in-flight ledger was folded into
// the engines' one output snapshot) ----

const PG_FAULTED: u64 = 0xB450_326E_B56B_B8C7;
const CPG_FAULTED: u64 = 0x2C43_7AD6_76BC_E231;

// ---- workload ----

fn cioq_cfg() -> SwitchConfig {
    SwitchConfig::builder(N_INPUTS, N_OUTPUTS)
        .speedup(3)
        .input_capacity(2)
        .output_capacity(2)
        .build()
        .expect("valid CIOQ config")
}

fn crossbar_cfg() -> SwitchConfig {
    SwitchConfig::builder(N_INPUTS, N_OUTPUTS)
        .speedup(3)
        .input_capacity(2)
        .output_capacity(2)
        .crossbar_capacity(1)
        .build()
        .expect("valid crossbar config")
}

fn immediate() -> FabricSpec {
    FabricSpec::default()
}

/// Two racks, intra-rack pairs same-cycle, cross-rack pairs two slots late:
/// in one run, latency-0 packets are delivered at once while latency-2
/// packets ride the delay line (at K = 3 the rack boundary splits shard 1's
/// bands, so a latency-0 transfer can leave one shard's row for another
/// shard's output).
fn two_tier() -> FabricSpec {
    FabricSpec::matrix(Topology::two_tier(N_INPUTS, N_OUTPUTS, 2, 0, 2).expect("valid topology"))
}

/// splitmix64 — written out here so the trace (and with it every golden
/// value) depends on nothing but this file.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Three arrival attempts per input per slot, 70 % of them aimed at four
/// hot outputs on both sides of the 64-bit word boundary. Values are powers
/// of two below `2^levels` (all 1 at `levels = 1`), so neighbours in a queue
/// often differ by more than the preemption factors β and α.
fn overload_trace(levels: u64) -> Trace {
    const HOT: [usize; 4] = [0, 63, 64, 69];
    let mut rng = 0x601D_u64;
    let mut tuples = Vec::new();
    for slot in 0..ARRIVAL_SLOTS {
        for i in 0..N_INPUTS {
            for _ in 0..3 {
                if splitmix(&mut rng).is_multiple_of(10) {
                    continue;
                }
                let j = if splitmix(&mut rng) % 10 < 7 {
                    HOT[(splitmix(&mut rng) % 4) as usize]
                } else {
                    (splitmix(&mut rng) % N_OUTPUTS as u64) as usize
                };
                let v: Value = 1 << (splitmix(&mut rng) % levels);
                tuples.push((slot, PortId::from(i), PortId::from(j), v));
            }
        }
    }
    Trace::from_tuples(tuples)
}

// ---- hashing ----

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn queue(&mut self, q: QueueRef<'_>) {
        self.u64(q.len() as u64);
        for p in q.iter() {
            self.u64(p.id.0);
            self.u64(p.value);
            self.u64(p.arrival);
            self.u64(u64::from(p.input.0) << 16 | u64::from(p.output.0));
        }
    }
}

/// Hash of everything a run ends in: the report, every queue's contents in
/// stored order, and the checkpoint bytes in slot order.
fn end_hash<'a>(
    report: &RunReport,
    state: &SwitchState,
    checkpoints: impl Iterator<Item = &'a EngineSnapshot>,
) -> u64 {
    let mut h = Fnv::new();
    h.bytes(format!("{report:?}").as_bytes());
    let view = state.view();
    h.u64(view.slot());
    for i in 0..view.n_inputs() {
        for j in 0..view.n_outputs() {
            let (input, output) = (PortId::from(i), PortId::from(j));
            h.queue(view.input_queue(input, output));
            if view.has_crossbar() {
                h.queue(view.crossbar_queue(input, output));
            }
        }
    }
    for j in 0..view.n_outputs() {
        h.queue(view.output_queue(PortId::from(j)));
    }
    for snap in checkpoints {
        let bytes = snap.to_bytes();
        h.u64(bytes.len() as u64);
        h.bytes(&bytes);
    }
    h.0
}

/// Hash of what a run ends in.
fn hash_run(outcome: &RunOutcome) -> u64 {
    end_hash(
        &outcome.report,
        &outcome.final_state,
        outcome.checkpoints.iter(),
    )
}

/// A resumed run re-takes the checkpoint it started from and every later
/// one; with the uninterrupted run's earlier checkpoints in front, the
/// sequence is the uninterrupted run's.
fn hash_resumed(before: &[EngineSnapshot], kill_slot: SlotId, resumed: &RunOutcome) -> u64 {
    let earlier = before.iter().filter(|c| c.slot() < kill_slot);
    let after = &resumed.checkpoints;
    end_hash(&resumed.report, &resumed.final_state, earlier.chain(after))
}

fn run_options(fabric: &FabricSpec) -> RunOptions {
    common::run_options(fabric, Some(CHECKPOINT_EVERY))
}

/// The mid-run checkpoint a resume starts from, through its bytes.
fn kill_point(checkpoints: &[EngineSnapshot]) -> EngineSnapshot {
    assert!(checkpoints.len() >= 3, "run too short to kill mid-way");
    let snap = &checkpoints[checkpoints.len() / 2];
    EngineSnapshot::from_bytes(&snap.to_bytes()).expect("checkpoint round-trips")
}

/// What the golden run must have exercised to be worth pinning.
fn assert_eventful(report: &RunReport, trace: &Trace, preempts: &[&str], what: &str) {
    assert!(report.losses.rejected > 0, "{what}: no rejection");
    assert!(
        report.slots > trace.arrival_slots(),
        "{what}: no drain tail"
    );
    assert!(report.transmitted > 0, "{what}: nothing transmitted");
    for kind in preempts {
        let n = match *kind {
            "input" => report.losses.preempted_input,
            "crossbar" => report.losses.preempted_crossbar,
            "output" => report.losses.preempted_output,
            other => unreachable!("unknown preemption kind {other}"),
        };
        assert!(n > 0, "{what}: no {kind} preemption");
    }
}

// ---- the one driver ----

/// The ways to run a policy, with the architecture (CIOQ or buffered
/// crossbar) and the policy object closed over, and its sharded twin if it
/// has one (only GM does).
struct Runs<'a> {
    name: String,
    seq: &'a dyn Fn(Engine, &mut dyn ArrivalSource) -> RunOutcome,
    sharded: Option<&'a dyn CioqShardPolicy>,
}

fn check(
    runs: Runs<'_>,
    cfg: &SwitchConfig,
    trace: &Trace,
    fabric: &FabricSpec,
    preempts: &[&str],
    golden: u64,
) {
    let what = format!("{} {}", runs.name, fabric.label());
    let fresh = || Engine::new(cfg.clone(), run_options(fabric));

    let seq = (runs.seq)(fresh(), &mut TraceSource::new(trace));
    assert_eventful(&seq.report, trace, preempts, &what);
    let got = hash_run(&seq);
    assert_eq!(got, golden, "{what}: sequential — got {got:#018x}");

    let (mut src, pump) = replay(2, StreamCursor::start(), trace.packets().to_vec());
    let streamed = (runs.seq)(fresh(), &mut src);
    drop(src);
    pump.join();
    assert_eq!(hash_run(&streamed), golden, "{what}: sequential streamed");

    let kill = kill_point(&seq.checkpoints);
    let restored = Engine::restore(&kill, run_options(fabric)).expect("restore own checkpoint");
    let resumed = (runs.seq)(restored, &mut TraceSource::resume_at(trace, kill.slot()));
    assert_eq!(
        hash_resumed(&seq.checkpoints, kill.slot(), &resumed),
        golden,
        "{what}: sequential resume at slot {}",
        kill.slot()
    );

    let Some(policy) = runs.sharded else {
        return;
    };
    for k in SHARD_COUNTS {
        let what = format!("{what} K={k}");
        let sharded_run = |engine: Engine, source: &mut dyn ArrivalSource| {
            let mut partitioned = Partitioned::new(policy, k, cfg);
            engine
                .run_cioq_full(&mut partitioned, source)
                .expect("sharded run")
        };
        let sharded = sharded_run(fresh(), &mut TraceSource::new(trace));
        assert_eq!(hash_run(&sharded), golden, "{what}: sharded");

        let kill = kill_point(&sharded.checkpoints);
        let kill_slot = kill.slot();
        let restored = Engine::restore(&kill, run_options(fabric)).expect("restore own checkpoint");
        let resumed = sharded_run(restored, &mut TraceSource::resume_at(trace, kill_slot));
        assert_eq!(
            hash_resumed(&sharded.checkpoints, kill_slot, &resumed),
            golden,
            "{what}: sharded resume at slot {kill_slot}"
        );
    }
}

fn check_cioq<P: CioqPolicy>(
    make: impl Fn() -> P,
    sharded: Option<&dyn CioqShardPolicy>,
    trace: &Trace,
    fabric: &FabricSpec,
    preempts: &[&str],
    golden: u64,
) {
    let cfg = cioq_cfg();
    let runs = Runs {
        name: CioqPolicy::name(&make()).to_string(),
        seq: &|engine, source| {
            engine
                .run_cioq_full(&mut make(), source)
                .expect("sequential run")
        },
        sharded,
    };
    check(runs, &cfg, trace, fabric, preempts, golden);
}

fn check_crossbar<P: CrossbarPolicy>(
    make: impl Fn() -> P,
    trace: &Trace,
    fabric: &FabricSpec,
    preempts: &[&str],
    golden: u64,
) {
    let cfg = crossbar_cfg();
    let runs = Runs {
        name: CrossbarPolicy::name(&make()).to_string(),
        seq: &|engine, source| {
            engine
                .run_crossbar_full(&mut make(), source)
                .expect("sequential run")
        },
        sharded: None,
    };
    check(runs, &cfg, trace, fabric, preempts, golden);
}

// ---- the eight cells ----

#[test]
fn gm_immediate() {
    check_cioq(
        GreedyMatching::new,
        Some(&ShardedGm::new()),
        &overload_trace(1),
        &immediate(),
        &[],
        GM_IMMEDIATE,
    );
}

#[test]
fn gm_two_tier() {
    check_cioq(
        GreedyMatching::new,
        Some(&ShardedGm::new()),
        &overload_trace(1),
        &two_tier(),
        &[],
        GM_TWO_TIER,
    );
}

#[test]
fn pg_immediate() {
    check_cioq(
        PreemptiveGreedy::new,
        None,
        &overload_trace(8),
        &immediate(),
        &["input", "output"],
        PG_IMMEDIATE,
    );
}

#[test]
fn pg_two_tier() {
    check_cioq(
        PreemptiveGreedy::new,
        None,
        &overload_trace(8),
        &two_tier(),
        &["input", "output"],
        PG_TWO_TIER,
    );
}

#[test]
fn cgu_immediate() {
    check_crossbar(
        CrossbarGreedyUnit::new,
        &overload_trace(1),
        &immediate(),
        &[],
        CGU_IMMEDIATE,
    );
}

#[test]
fn cgu_two_tier() {
    check_crossbar(
        CrossbarGreedyUnit::new,
        &overload_trace(1),
        &two_tier(),
        &[],
        CGU_TWO_TIER,
    );
}

#[test]
fn cpg_immediate() {
    check_crossbar(
        CrossbarPreemptiveGreedy::new,
        &overload_trace(8),
        &immediate(),
        &["input", "crossbar", "output"],
        CPG_IMMEDIATE,
    );
}

#[test]
fn cpg_two_tier() {
    check_crossbar(
        CrossbarPreemptiveGreedy::new,
        &overload_trace(8),
        &two_tier(),
        &["input", "crossbar", "output"],
        CPG_TWO_TIER,
    );
}

// ---- faulted runs (sequential engine only: the sharded one has no faults) ----

/// A `uniform(2)` delay line under a hand-placed plan: the hot outputs on
/// both sides of the word boundary go link-down over slots 10–29 — output
/// 63 holding one packet per pair, output 64 holding none, so its cap
/// overflows at once and every dispatch there is dropped — and a latency
/// spike stretches every pair into hot output 0 over slots 20–27. The
/// packets held for output 63 fill its virtual queue for the whole window,
/// which is what PG's β test and CPG's α test read there.
fn faulted_options() -> RunOptions {
    let event = |start, end, scope, kind| FaultEvent {
        start,
        end,
        scope,
        kind,
    };
    let down = |cap| FaultKind::LinkDown {
        retransmit_cap: cap,
    };
    let plan = FaultPlan::new(vec![
        event(10, 30, FaultScope::Output(63), down(1)),
        event(10, 30, FaultScope::Output(64), down(0)),
        event(
            20,
            28,
            FaultScope::Output(0),
            FaultKind::LatencySpike { extra: 2 },
        ),
    ]);
    RunOptions {
        faults: Some(plan),
        ..run_options(&FabricSpec::uniform(2))
    }
}

/// The faulted run, and a resume from the checkpoint inside the link-down
/// window (slot 16) through its bytes, must both hash to `golden`.
fn check_faulted(
    run: &dyn Fn(Engine, &mut dyn ArrivalSource) -> RunOutcome,
    cfg: &SwitchConfig,
    trace: &Trace,
    golden: u64,
) {
    let seq = run(
        Engine::new(cfg.clone(), faulted_options()),
        &mut TraceSource::new(trace),
    );
    let report = &seq.report;
    assert_eventful(report, trace, &[], "faulted");
    assert!(report.retransmitted > 0, "faulted: no retransmission");
    assert!(report.losses.dropped > 0, "faulted: no retransmit overflow");
    let preempted = report.losses.preempted_output + report.losses.preempted_crossbar;
    assert!(preempted > 0, "faulted: no output or crossbar preemption");
    let got = hash_run(&seq);
    assert_eq!(got, golden, "faulted sequential — got {got:#018x}");

    let kill = seq
        .checkpoints
        .iter()
        .find(|c| c.slot() == 16)
        .expect("a checkpoint inside the link-down window");
    let kill = EngineSnapshot::from_bytes(&kill.to_bytes()).expect("checkpoint round-trips");
    let unfaulted = Engine::restore(&kill, run_options(&FabricSpec::uniform(2)));
    assert!(
        unfaulted.is_err(),
        "the resume point must hold fault-retransmit packets"
    );
    let restored = Engine::restore(&kill, faulted_options()).expect("restore own checkpoint");
    let resumed = run(restored, &mut TraceSource::resume_at(trace, kill.slot()));
    assert_eq!(
        hash_resumed(&seq.checkpoints, kill.slot(), &resumed),
        golden,
        "faulted resume at slot {}",
        kill.slot()
    );
}

#[test]
fn pg_faulted() {
    let run = |engine: Engine, source: &mut dyn ArrivalSource| {
        let mut pg = PreemptiveGreedy::new();
        engine.run_cioq_full(&mut pg, source).expect("faulted run")
    };
    check_faulted(&run, &cioq_cfg(), &overload_trace(8), PG_FAULTED);
}

#[test]
fn cpg_faulted() {
    let run = |engine: Engine, source: &mut dyn ArrivalSource| {
        let mut cpg = CrossbarPreemptiveGreedy::new();
        engine
            .run_crossbar_full(&mut cpg, source)
            .expect("faulted run")
    };
    check_faulted(&run, &crossbar_cfg(), &overload_trace(8), CPG_FAULTED);
}
