//! Partitioned GM: a CIOQ scheduler that splits each cycle into K
//! proposals and one merge — a policy like any other on the one slot loop,
//! [`Engine`].
//!
//! The N input rows split into K contiguous shards ([`Partition`]). A
//! [`CioqShardPolicy`] is a factory for K workers plus a deterministic
//! merge. Each arrival is admitted by the worker that owns its input row;
//! each cycle every worker proposes over its own rows — the engine's view
//! restricted to them, so `input_range()` is the shard's rows and
//! `dirty_rows` its share of the one change log — and the merge combines
//! the K proposals into the cycle's transfer set, resolving contended
//! outputs in fixed port order. The split is a property of the scheduler,
//! not of the slot: [`Partitioned`] makes it a [`CioqPolicy`], which runs
//! on [`Engine`] as every policy does (`Engine::new` / `Engine::restore`,
//! `run_cioq_full`, `Recording`, `TraceSource::resume_at`). GM's merge
//! (`cioq_core::ShardedGm`) continues the lexicographic greedy across
//! shards, so the shard count never changes a decision
//! (`tests/sharded_equivalence.rs`). Only GM runs partitioned: PG's
//! matching is one global weight order, and the crossbar policies decide
//! each port on its own, with no matching to split.
//!
//! [`run_cioq_sharded`] and its [`ShardedOptions`] / [`ShardedOutcome`]
//! stay only as the repository benchmark's entry point, which names them.
//!
//! [`Engine`]: crate::engine::Engine

use crate::engine::{Engine, RunOptions};
use crate::policy::{Admission, CioqPolicy, PolicyError, Transfer};
use crate::snapshot::EngineSnapshot;
use crate::source::TraceSource;
use crate::state::{share, SwitchState, SwitchView};
use crate::stats::RunReport;
use crate::trace::Trace;
use crate::transport::{FabricSpec, OutputSnapshot};
use cioq_model::{Cycle, Packet, SlotId, SwitchConfig};
use std::ops::Range;

// ---------------------------------------------------------------------------
// Partition
// ---------------------------------------------------------------------------

/// Contiguous assignment of the N input rows to K shards: shard `s` owns
/// rows `⌊sN/K⌋ .. ⌊(s+1)N/K⌋`.
#[derive(Debug, Clone)]
pub struct Partition {
    k: usize,
    n_inputs: usize,
    input_owner: Vec<u16>,
}

impl Partition {
    /// Partition the `n_inputs` rows of a switch into `k ≥ 1` shards.
    pub fn new(k: usize, n_inputs: usize) -> Self {
        assert!(k >= 1, "need at least one shard");
        assert!(k <= u16::MAX as usize, "shard count exceeds u16");
        let mut input_owner = vec![0u16; n_inputs];
        for s in 0..k {
            input_owner[share(s, k, n_inputs)].fill(s as u16);
        }
        Partition {
            k,
            n_inputs,
            input_owner,
        }
    }

    /// Number of shards K.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Global input rows owned by shard `s`.
    #[inline]
    pub fn input_range(&self, s: usize) -> Range<usize> {
        share(s, self.k, self.n_inputs)
    }

    /// Owner shard of input row `i`.
    #[inline]
    pub fn input_owner(&self, i: usize) -> usize {
        self.input_owner[i] as usize
    }
}

// ---------------------------------------------------------------------------
// Options and outcome
// ---------------------------------------------------------------------------

/// How the K shards execute within a slot. Both variants run every
/// worker on the calling thread, in shard order, with no thread spawned:
/// a proposal is a few microseconds of work at the port counts GM runs,
/// less than a hand-off between threads costs. The enum stays because
/// callers outside the workspace name its variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// The default: the same as [`ExecMode::Inline`].
    #[default]
    Auto,
    /// Every worker runs on the calling thread.
    Inline,
}

/// Options of [`run_cioq_sharded`]: the benchmark's names for the
/// [`RunOptions`] it runs under, plus the shard count and what to hand
/// back.
#[derive(Debug, Clone)]
pub struct ShardedOptions {
    /// Number of shards K ≥ 1.
    pub shards: usize,
    /// Execution strategy (every mode runs inline; see [`ExecMode`]).
    pub mode: ExecMode,
    /// [`RunOptions::slots`].
    pub slots: Option<SlotId>,
    /// [`RunOptions::drain`].
    pub drain: bool,
    /// Return the final [`SwitchState`].
    pub capture_final_state: bool,
    /// [`RunOptions::fabric`].
    pub fabric: FabricSpec,
    /// [`RunOptions::checkpoint_every`]; a cadence of 0 panics at run start
    /// with [`ConfigError::ZeroCheckpointCadence`](cioq_model::ConfigError::ZeroCheckpointCadence)'s
    /// text.
    pub checkpoint_every: Option<SlotId>,
}

impl ShardedOptions {
    /// Default options for `k` shards: auto execution, drain on, no
    /// capture, immediate fabric, no checkpoints.
    pub fn new(k: usize) -> Self {
        ShardedOptions {
            shards: k,
            mode: ExecMode::Auto,
            slots: None,
            drain: true,
            capture_final_state: false,
            fabric: FabricSpec::default(),
            checkpoint_every: None,
        }
    }
}

/// What [`run_cioq_sharded`] hands back.
#[derive(Debug)]
pub struct ShardedOutcome {
    /// The run report — field-for-field equal to the whole-switch twin's
    /// on the same input.
    pub report: RunReport,
    /// Final switch state, when capture was requested.
    pub final_state: Option<SwitchState>,
    /// Snapshots taken at every `checkpoint_every` boundary, in slot
    /// order.
    pub checkpoints: Vec<EngineSnapshot>,
}

// ---------------------------------------------------------------------------
// Policy traits
// ---------------------------------------------------------------------------

/// A shard's view: the engine's [`SwitchView`] restricted to the shard's
/// rows. An alias, not a type: callers outside the workspace import the
/// name.
pub type ShardView<'a> = SwitchView<'a>;

/// A shard's per-cycle proposal payload: a policy-defined auxiliary word
/// array. GM's has two layouts. Shard 0 matches its own rows in place and
/// publishes the result: its taken-or-full output mask
/// (`n_outputs.div_ceil(64)` words), then its matched pairs `(i << 32) | j`
/// in ascending row order. Every other shard publishes its rows' edge
/// bitmaps (one such bitmap per owned row, ascending), so the merge
/// continues the lexicographic greedy as word arithmetic.
#[derive(Debug, Default)]
pub struct CandidateSet {
    /// Auxiliary packed words (policy-defined layout).
    pub aux: Vec<u64>,
}

/// What a merge step carries from one cycle to the next: one pooled word
/// buffer per run (GM: its free-column mask). One value serves one run:
/// `merge` takes the policy by `&self`, so a policy object shared by
/// concurrent runs holds none of it.
#[derive(Debug, Default)]
pub struct MergeScratch {
    words: Vec<u64>,
}

impl MergeScratch {
    /// The merge's pooled words, empty on the run's first merge and as the
    /// previous merge left them after.
    pub fn state(&mut self) -> &mut Vec<u64> {
        &mut self.words
    }
}

/// Everything a CIOQ merge step consults: geometry, the pre-cycle output
/// snapshot (the one every shard's view handed its proposal), the cycle,
/// and every shard's proposal payload (shard order = ascending port
/// ranges). Deliberately queue-free: merges work over published payloads
/// and the snapshot, so the merge step makes no cache-missing queue reads.
pub struct MergeContext<'a> {
    /// The switch configuration.
    pub cfg: &'a SwitchConfig,
    /// The partition in force.
    pub partition: &'a Partition,
    /// Pre-cycle output fullness/tails.
    pub outputs: &'a OutputSnapshot,
    /// The cycle being scheduled.
    pub cycle: Cycle,
    /// Per-shard proposal payloads, in shard order.
    pub candidates: &'a [CandidateSet],
}

/// A CIOQ policy that can run partitioned: a factory for per-shard workers
/// plus the deterministic merge combining their proposals into the global
/// matching.
pub trait CioqShardPolicy: Sync {
    /// Policy name (must match the whole-switch twin so reports compare
    /// equal).
    fn name(&self) -> &str;

    /// Create the worker for shard `shard`. Workers are created fresh for
    /// every run, so caches never need cross-run resync.
    fn new_worker(
        &self,
        shard: usize,
        partition: &Partition,
        cfg: &SwitchConfig,
    ) -> Box<dyn CioqShardWorker>;

    /// Deterministically combine per-shard candidates into the cycle's
    /// matching, resolving contended ports in fixed port order. Must append
    /// transfers in the exact order the whole-switch policy would: the
    /// engine pops them from `out` in that order.
    fn merge(&self, ctx: &MergeContext<'_>, scratch: &mut MergeScratch, out: &mut Vec<Transfer>);
}

/// The per-shard worker half of a [`CioqShardPolicy`]. Every call gets the
/// engine's [`SwitchView`] restricted to the shard's rows.
pub trait CioqShardWorker: Send {
    /// Admission for a packet arriving on an owned row.
    fn admit(&mut self, shard: &SwitchView<'_>, packet: &Packet) -> Admission;

    /// Propose this shard's candidates for the cycle. `shard.changes()` is
    /// the switch's one log (every row's cells dirtied since the previous
    /// cycle), and `outputs` is the pre-cycle output snapshot, the same one
    /// `shard.outputs()` reads.
    fn propose(
        &mut self,
        shard: &SwitchView<'_>,
        outputs: &OutputSnapshot,
        cycle: Cycle,
        out: &mut CandidateSet,
    );
}

// ---------------------------------------------------------------------------
// The adapter and the benchmark's entry point
// ---------------------------------------------------------------------------

/// A [`CioqShardPolicy`] split over K shards, as a [`CioqPolicy`]: the
/// workers, their pooled proposals and the merge's scratch for one run.
/// Run it on [`Engine`] like any other CIOQ policy; build one per run, as
/// its partition is sized for one switch (`cfg`).
pub struct Partitioned<'p> {
    policy: &'p dyn CioqShardPolicy,
    partition: Partition,
    workers: Vec<Box<dyn CioqShardWorker>>,
    candidates: Vec<CandidateSet>,
    scratch: MergeScratch,
}

impl<'p> Partitioned<'p> {
    /// `policy` over `k ≥ 1` shards of a `cfg` switch, with fresh workers.
    pub fn new(policy: &'p dyn CioqShardPolicy, k: usize, cfg: &SwitchConfig) -> Self {
        let partition = Partition::new(k, cfg.n_inputs);
        let workers = (0..k).map(|s| policy.new_worker(s, &partition, cfg));
        Partitioned {
            policy,
            workers: workers.collect(),
            candidates: (0..k).map(|_| CandidateSet::default()).collect(),
            partition,
            scratch: MergeScratch::default(),
        }
    }
}

impl CioqPolicy for Partitioned<'_> {
    fn name(&self) -> &str {
        self.policy.name()
    }

    fn admit(&mut self, view: &SwitchView<'_>, packet: &Packet) -> Admission {
        let s = self.partition.input_owner(packet.input.index());
        self.workers[s].admit(&view.restrict(s, self.partition.k()), packet)
    }

    // detlint: hot
    fn schedule(&mut self, view: &SwitchView<'_>, cycle: Cycle, out: &mut Vec<Transfer>) {
        let k = self.partition.k();
        let shards = self.workers.iter_mut().zip(&mut self.candidates);
        for (s, (worker, set)) in shards.enumerate() {
            set.aux.clear();
            worker.propose(&view.restrict(s, k), view.outputs(), cycle, set);
        }
        let ctx = MergeContext {
            cfg: view.config(),
            partition: &self.partition,
            outputs: view.outputs(),
            cycle,
            candidates: &self.candidates,
        };
        self.policy.merge(&ctx, &mut self.scratch, out);
    }
}

/// The repository benchmark's entry point for a partitioned run, kept
/// until the benchmark runs [`Partitioned`] on [`Engine`] itself: `policy`
/// over `options.shards` shards, on a fresh engine fed `trace` from slot
/// 0. Validation follows the build profile (on in debug builds), as
/// [`RunOptions::default`] does. An invalid configuration panics with its
/// [`ConfigError`](cioq_model::ConfigError) text.
pub fn run_cioq_sharded(
    cfg: &SwitchConfig,
    policy: &dyn CioqShardPolicy,
    trace: &Trace,
    options: ShardedOptions,
) -> Result<ShardedOutcome, PolicyError> {
    let run_options = RunOptions {
        slots: options.slots,
        drain: options.drain,
        fabric: options.fabric,
        checkpoint_every: options.checkpoint_every,
        ..RunOptions::default()
    };
    let engine = Engine::try_new(cfg.clone(), run_options).unwrap_or_else(|e| panic!("{e}"));
    let mut partitioned = Partitioned::new(policy, options.shards, cfg);
    let outcome = engine.run_cioq_full(&mut partitioned, &mut TraceSource::new(trace))?;
    Ok(ShardedOutcome {
        report: outcome.report,
        final_state: options.capture_final_state.then_some(outcome.final_state),
        checkpoints: outcome.checkpoints,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultEvent, FaultKind, FaultPlan, FaultScope};
    use crate::record::Recording;
    use cioq_model::{ConfigError, PortId, Value};

    #[test]
    fn partition_is_contiguous_and_covering() {
        for (k, n) in [(1, 5), (2, 5), (3, 7), (4, 4), (4, 2), (5, 16)] {
            let p = Partition::new(k, n);
            let mut seen = 0usize;
            for s in 0..k {
                let r = p.input_range(s);
                assert_eq!(r.start, seen, "ranges are contiguous");
                for i in r.clone() {
                    assert_eq!(p.input_owner(i), s);
                }
                seen = r.end;
            }
            assert_eq!(seen, n, "ranges cover all ports");
        }
    }

    // -- Shard-count independence and failure paths ---------------------------
    //
    // `cioq_core`'s partitioned policies sit above this crate, so these
    // tests drive the engine with cache-free, paper-direct versions of GM
    // and PG written against the shard traits alone.

    use cioq_model::{Threshold, Topology};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::time::Duration;

    const K: usize = 4;
    const PORTS: usize = 8;

    /// GM (`beta: None`, unit weights) or PG (`beta: Some(β)`): shards
    /// publish one `(weight, shard-local cell)` word pair per non-empty VOQ
    /// in `aux`, the merge runs the greedy over `(weight desc, cell asc)` —
    /// for GM that is lexicographic order. PG's mode keeps the engine's
    /// preempting admit, apply and land paths exercised.
    struct Greedy {
        beta: Option<Threshold>,
    }

    struct GreedyWorker {
        weighted: bool,
    }

    fn admit_by_value(shard: &SwitchView<'_>, p: &Packet, preempt: bool) -> Admission {
        let queue = shard.input_queue(p.input, p.output);
        if !queue.is_full() {
            Admission::Accept
        } else if preempt && queue.tail_value().expect("full") < p.value {
            Admission::AcceptPreemptingLeast
        } else {
            Admission::Reject
        }
    }

    impl CioqShardPolicy for Greedy {
        fn name(&self) -> &str {
            "greedy"
        }

        fn new_worker(
            &self,
            _: usize,
            _: &Partition,
            _: &SwitchConfig,
        ) -> Box<dyn CioqShardWorker> {
            Box::new(GreedyWorker {
                weighted: self.beta.is_some(),
            })
        }

        fn merge(&self, ctx: &MergeContext<'_>, _: &mut MergeScratch, out: &mut Vec<Transfer>) {
            let m = ctx.cfg.n_outputs;
            let mut all: Vec<(Value, usize, usize)> = Vec::new();
            for (s, set) in ctx.candidates.iter().enumerate() {
                let lo = ctx.partition.input_range(s).start;
                let cells = set.aux.chunks_exact(2).map(|e| (e[0], e[1] as usize));
                all.extend(cells.map(|(w, cell)| (w, lo + cell / m, cell % m)));
            }
            all.sort_by_key(|&(weight, i, j)| (std::cmp::Reverse(weight), i, j));
            let mut input_used = vec![false; ctx.cfg.n_inputs];
            let mut output_used = vec![false; m];
            for (weight, i, j) in all {
                let eligible = !ctx.outputs.is_full(j)
                    || self
                        .beta
                        .is_some_and(|b| b.exceeds(weight, ctx.outputs.tail[j]));
                if eligible && !input_used[i] && !output_used[j] {
                    input_used[i] = true;
                    output_used[j] = true;
                    out.push(Transfer {
                        input: PortId::from(i),
                        output: PortId::from(j),
                        preempt_if_full: self.beta.is_some(),
                    });
                }
            }
        }
    }

    impl CioqShardWorker for GreedyWorker {
        fn admit(&mut self, shard: &SwitchView<'_>, p: &Packet) -> Admission {
            admit_by_value(shard, p, self.weighted)
        }

        fn propose(
            &mut self,
            shard: &SwitchView<'_>,
            _: &OutputSnapshot,
            _: Cycle,
            out: &mut CandidateSet,
        ) {
            let (rows, m) = (shard.input_range(), shard.n_outputs());
            for i in rows.clone() {
                for j in 0..m {
                    let head = shard
                        .input_queue(PortId::from(i), PortId::from(j))
                        .head_value();
                    if let Some(v) = head {
                        let weight = if self.weighted { v } else { 0 };
                        let cell = (i - rows.start) * m + j;
                        out.aux.extend([weight, cell as u64]);
                    }
                }
            }
        }
    }

    /// Overloaded, output-skewed traffic: queues fill, so rejects,
    /// preemptions and contended outputs all occur.
    fn skewed_trace(max_value: Value) -> Trace {
        let mut rng = SmallRng::seed_from_u64(0x7A57);
        let mut tuples = Vec::new();
        for slot in 0..48 {
            for i in 0..PORTS {
                for _ in 0..2 {
                    if rng.gen_bool(0.8) {
                        let j = rng.gen_range(0..PORTS).min(rng.gen_range(0..PORTS));
                        let v = rng.gen_range(1..=max_value);
                        tuples.push((slot, PortId::from(i), PortId::from(j), v));
                    }
                }
            }
        }
        Trace::from_tuples(tuples)
    }

    /// Two racks: intra-rack pairs (latency 0) deliver at once — from
    /// K = 3 on a rack spans two shards; cross-rack pairs ride the delay
    /// line and land two slots later. Validation on, a checkpoint every 8
    /// slots.
    fn two_tier_options() -> RunOptions {
        let topology = Topology::two_tier(PORTS, PORTS, 2, 0, 2).expect("valid topology");
        RunOptions {
            validate: true,
            fabric: FabricSpec::matrix(topology),
            checkpoint_every: Some(8),
            ..RunOptions::default()
        }
    }

    /// Everything a run produces, in comparable form: the report, the
    /// transcript and final state, the checkpoint bytes.
    type Fingerprint = (RunReport, String, Vec<Vec<u8>>);

    /// `policy` over `k` shards of an 8-port switch, on a fresh engine
    /// under `options`, recorded.
    fn run(
        policy: &dyn CioqShardPolicy,
        k: usize,
        trace: &Trace,
        options: RunOptions,
    ) -> Result<Fingerprint, PolicyError> {
        let cfg = SwitchConfig::cioq(PORTS, 2, 2);
        let partitioned = Partitioned::new(policy, k, &cfg);
        let mut recording = Recording::with_fabric(partitioned, &options.fabric);
        let outcome = Engine::new(cfg, options)
            .run_cioq_full(&mut recording, &mut TraceSource::new(trace))?;
        let schedule = recording.into_schedule();
        let transcript_and_state = format!("{schedule:?} {:?}", outcome.final_state);
        let checkpoints = outcome.checkpoints.iter().map(|c| c.to_bytes()).collect();
        Ok((outcome.report, transcript_and_state, checkpoints))
    }

    /// [`two_tier_options`] with a fault plan on top: inputs 1 and 6 (one
    /// per rack) down from slot 4 to 12, holding one packet per pair, and a
    /// two-slot latency spike on output 1 from slot 10 to 20.
    fn faulted_run(beta: Option<Threshold>, trace: &Trace, k: usize) -> Fingerprint {
        let down = |i| FaultEvent {
            start: 4,
            end: 12,
            scope: FaultScope::Input(i),
            kind: FaultKind::LinkDown { retransmit_cap: 1 },
        };
        let spike = FaultEvent {
            start: 10,
            end: 20,
            scope: FaultScope::Output(1),
            kind: FaultKind::LatencySpike { extra: 2 },
        };
        let options = RunOptions {
            faults: Some(FaultPlan::new(vec![down(1), down(6), spike])),
            ..two_tier_options()
        };
        let fingerprint = run(&Greedy { beta }, k, trace, options).unwrap();
        let report = &fingerprint.0;
        let held = (report.retransmitted, report.losses.dropped);
        assert!(held.0 > 0 && held.1 > 0, "{held:?}");
        fingerprint
    }

    #[test]
    fn results_do_not_depend_on_the_shard_count() {
        let (unit, valued) = (skewed_trace(1), skewed_trace(16));
        let run_cioq =
            |beta, trace: &Trace, k| run(&Greedy { beta }, k, trace, two_tier_options()).unwrap();
        let check = |name: &str, run: &dyn Fn(usize) -> Fingerprint| {
            let whole = run(1);
            assert!(whole.0.transmitted > 0 && whole.0.losses.total_count() > 0);
            assert!(!whole.2.is_empty(), "{name}: checkpoints were taken");
            // K = 3 is the uneven split (bands of 2, 3 and 3 ports), and
            // puts a latency-0 pair across bands.
            for k in 2..=K {
                assert_eq!(run(k), whole, "{name}: K = {k} differs from K = 1");
            }
        };
        check("GM", &|k| run_cioq(None, &unit, k));
        check("PG", &|k| {
            run_cioq(Some(Threshold::ratio(12, 5)), &valued, k)
        });
        check("faulted GM", &|k| faulted_run(None, &unit, k));
    }

    /// The opening phase lands on drain slots too: what the arrival window
    /// leaves on a delayed fabric lands, and the run ends with nothing
    /// buffered. An opening phase that stopped landing past the window
    /// would spin in the drain forever; the watchdog makes that a failure.
    /// Run through the benchmark's entry point.
    #[test]
    fn the_drain_lands_what_the_window_left_in_flight() {
        let report = bounded(|| {
            let cfg = SwitchConfig::cioq(PORTS, 2, 2);
            let mut options = ShardedOptions::new(2);
            options.fabric = FabricSpec::uniform(3);
            let trace = skewed_trace(1);
            run_cioq_sharded(&cfg, &Greedy { beta: None }, &trace, options).map(|o| o.report)
        })
        .expect("the drain ends")
        .expect("no policy error");
        assert!(report.slots > 48 + 3, "the drain ran past the window");
        assert_eq!(report.residual_count, 0);
        report.check_conservation().unwrap();
    }

    /// The benchmark's entry point refuses a zero checkpoint cadence at run
    /// start with the error `Engine::try_new` returns, not run without
    /// checkpoints.
    #[test]
    fn a_zero_checkpoint_cadence_is_refused() {
        let mut options = ShardedOptions::new(2);
        options.checkpoint_every = Some(0);
        let msg = bounded(move || {
            let cfg = SwitchConfig::cioq(PORTS, 2, 2);
            let trace = skewed_trace(1);
            run_cioq_sharded(&cfg, &Greedy { beta: None }, &trace, options).map(|_| ())
        })
        .expect_err("a zero cadence must be refused");
        assert_eq!(msg, ConfigError::ZeroCheckpointCadence.to_string());
    }

    /// A checkpoint that carries a stats window resumes a partitioned run
    /// as it resumes any policy: `Engine::restore` adopts the window, and
    /// the continuation ends as the uninterrupted run does — the report,
    /// window and residual included, and every later checkpoint, byte for
    /// byte.
    #[test]
    fn resume_adopts_a_stats_window_as_restore_does() {
        let cfg = SwitchConfig::cioq(PORTS, 2, 2);
        let trace = skewed_trace(1);
        let policy = Greedy { beta: None };
        let options = |stats_window| RunOptions {
            stats_window,
            ..two_tier_options()
        };
        let full = Engine::new(cfg.clone(), options(Some(5)))
            .run_cioq_full(
                &mut Partitioned::new(&policy, 2, &cfg),
                &mut TraceSource::new(&trace),
            )
            .unwrap();
        let snap = &full.checkpoints[1];
        assert!(snap.window.is_some(), "the checkpoint carries the window");

        let resumed = Engine::restore(snap, options(None))
            .unwrap()
            .run_cioq_full(
                &mut Partitioned::new(&policy, 2, &cfg),
                &mut TraceSource::resume_at(&trace, snap.slot()),
            )
            .unwrap();
        assert!(resumed.report.window.is_some(), "restore adopts the window");
        assert_eq!(resumed.report, full.report);
        let bytes = |c: &[EngineSnapshot]| c.iter().map(|s| s.to_bytes()).collect::<Vec<_>>();
        assert_eq!(bytes(&resumed.checkpoints), bytes(&full.checkpoints[1..]));
    }

    /// Run `f` on a helper thread; a run that never ends fails the test
    /// instead of hanging it. Returns `f`'s panic message, if it panicked.
    fn bounded<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> Result<T, String> {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            tx.send(std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)))
        });
        rx.recv_timeout(Duration::from_secs(60))
            .expect("sharded run never ended")
            .map_err(|payload| *payload.downcast::<String>().expect("formatted panic"))
    }

    /// GM whose shard `bad` misbehaves from slot 3 on: its worker panics in
    /// `propose`, accepts into full queues, or the merge reuses an input.
    #[derive(Clone, Copy)]
    enum Fault {
        WorkerPanic { bad: usize },
        AcceptWhenFull { bad: usize },
        MergeDuplicatesInput,
    }

    struct Faulty(Fault);

    struct FaultyWorker {
        fault: Fault,
        shard: usize,
    }

    impl CioqShardPolicy for Faulty {
        fn name(&self) -> &str {
            "faulty"
        }

        fn new_worker(
            &self,
            shard: usize,
            _: &Partition,
            _: &SwitchConfig,
        ) -> Box<dyn CioqShardWorker> {
            Box::new(FaultyWorker {
                fault: self.0,
                shard,
            })
        }

        fn merge(
            &self,
            ctx: &MergeContext<'_>,
            scratch: &mut MergeScratch,
            out: &mut Vec<Transfer>,
        ) {
            Greedy { beta: None }.merge(ctx, scratch, out);
            if matches!(self.0, Fault::MergeDuplicatesInput) && ctx.cycle.slot >= 3 {
                let first = *out.first().expect("overloaded switch has a transfer");
                out.push(first);
            }
        }
    }

    impl CioqShardWorker for FaultyWorker {
        fn admit(&mut self, shard: &SwitchView<'_>, p: &Packet) -> Admission {
            match self.fault {
                Fault::AcceptWhenFull { bad } if bad == self.shard => Admission::Accept,
                _ => admit_by_value(shard, p, false),
            }
        }

        fn propose(
            &mut self,
            shard: &SwitchView<'_>,
            outputs: &OutputSnapshot,
            cycle: Cycle,
            out: &mut CandidateSet,
        ) {
            if matches!(self.fault, Fault::WorkerPanic { bad } if bad == self.shard && cycle.slot >= 3)
            {
                panic!("boom in shard {}", self.shard);
            }
            GreedyWorker { weighted: false }.propose(shard, outputs, cycle, out);
        }
    }

    fn run_faulty(fault: Fault) -> Result<Result<Fingerprint, PolicyError>, String> {
        bounded(move || run(&Faulty(fault), K, &skewed_trace(1), two_tier_options()))
    }

    /// A worker's panic reaches the caller as it was raised, from the
    /// first shard as from the last.
    #[test]
    fn worker_panic_surfaces_identically_from_any_shard() {
        for bad in [0, K - 1] {
            let msg = run_faulty(Fault::WorkerPanic { bad })
                .expect_err("the worker's panic must surface");
            assert_eq!(msg, format!("boom in shard {bad}"));
        }
    }

    /// A per-packet rule's error in the last shard's phase returns through
    /// `?` as the run's error.
    #[test]
    fn policy_error_from_the_last_shard_is_the_runs_error() {
        let err = run_faulty(Fault::AcceptWhenFull { bad: K - 1 })
            .expect("no panic")
            .expect_err("accepting into a full queue is a policy error");
        assert!(matches!(err, PolicyError::QueueFull { kind: "input", .. }));
    }

    /// An illegal merge is the coordinator's error, returned as the run's.
    #[test]
    fn illegal_merge_is_the_runs_error() {
        let err = run_faulty(Fault::MergeDuplicatesInput)
            .expect("no panic")
            .expect_err("a reused input must be rejected");
        assert!(matches!(err, PolicyError::DuplicateInput { .. }));
    }
}
