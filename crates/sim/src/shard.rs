//! Sharded slot engine for CIOQ switches: the N ports split into K
//! contiguous shards, each scheduling cycle takes one proposal per shard
//! and one deterministic merge, and the whole slot runs on the calling
//! thread. GM is one lexicographic greedy
//! over the whole switch, so the work between two merges is a few
//! microseconds: too little, at the port counts this engine runs, to pay
//! for handing a phase to another thread. Buffered crossbars run on the
//! sequential [`Engine`] only: their policies decide each port on its own,
//! with no matching, so a cycle has too little work to split. So does PG:
//! its matching is one global weight order, which a merge would run whole
//! while the other shards wait.
//!
//! ## Ownership model
//!
//! Shard `s` owns a contiguous band of input rows and a contiguous band of
//! output columns (see [`Partition`]) — one `QueueBand`, the very type the
//! sequential engine holds for the band `0..N` / `0..M`. Every queue has
//! exactly one owning shard and **all mutation goes through the owner's
//! band**, whose methods are the per-packet rules of both engines:
//!
//! * `Q_ij` (VOQs) belong to the owner of input row `i` — arrivals insert
//!   there, scheduling pops there.
//! * `Q_j` (output queues) belong to the owner of output column `j` —
//!   fabric transfers insert there, transmission pops there.
//!
//! What makes this a phase engine is the proposal: each shard's worker
//! proposes over its own band and change log, and the policy's merge
//! combines the K proposals into the cycle's one transfer set. Every other
//! phase is one pass that routes each item to its owner's band: the
//! opening phase lands the due bucket of the delay line into the output
//! owners' bands and admits each arrival through its input owner's
//! worker; the pop phase pops each transfer from its input owner's band
//! and delivers it at once into its output owner's band when its pair is
//! at latency 0, as the sequential engine does, or dispatches it onto the
//! delay line otherwise. A policy error returns through `?`, as in the
//! sequential engine.
//!
//! ## Bit-identity
//!
//! The sharded engine is **bit-identical** to the sequential [`Engine`]
//! (`tests/sharded_equivalence.rs` proves it per cycle): each proposal
//! reads only its own band, per-shard proposals are combined by a
//! *deterministic merge* that resolves contended crosspoints in fixed port
//! order (ascending input: GM's lexicographic greedy), and every routed
//! phase applies the sequential engine's rules in its order — pops touch
//! only `Q_ij`, deliveries only `Q_j`, the change log tracks only
//! `Q_ij`/`C_ij`, and a matching puts at most one packet into each `Q_j`
//! per cycle. The shard count therefore never changes a single decision.
//!
//! ## Where the two engines meet
//!
//! `run_cioq_sharded` owns the slot: the preamble (partition, workers,
//! checkpoint cadence), the opening phase, the scheduling cycles,
//! transmission, audit and the finish; each phase is a `Fabric` method.
//! In the opening phase the coordinator pulls the slot's arrivals from the
//! trace cursor into one pooled batch and validates their ports, then
//! lands the delay line's due bucket and admits the batch. The two engines
//! meet in the band: admitting, popping toward the fabric, delivery into
//! `Q_j`, transmission, residual, checkpoint cells out and in, and the
//! structural check are `QueueBand` methods both call; a checkpoint is the
//! shards' cells in shard order, and `assemble_state` the shards' bands
//! concatenated. They meet in the delay line and the books too: one
//! `DelayCalendar` each, sized alike, landed by the one `transport::land`
//! and captured by the one `SnapLanding::pending`, and one
//! `StatsRecorder`; and in what policies read of the output side: one
//! [`OutputSnapshot`], refreshed at the top of every scheduling cycle by
//! the one `OutputSnapshot::refresh` — here over the shards' bands, into
//! the coordinator's copy that proposals and merges are handed. And they
//! meet in the view: a policy reads one [`SwitchView`] type in both
//! engines — over the band `0..N` there, over a shard's band and the
//! cycle's snapshot here — so one policy object's cache code runs
//! unchanged under either. Still per-engine: the slot loop itself, the
//! policy traits (both families take that one view; folding them waits on
//! one slot loop) and the fault layer, which only the sequential engine
//! has.
//!
//! [`Engine`]: crate::engine::Engine

use crate::engine::per_bucket_bound;
use crate::mechanics::{self, PortStamps};
use crate::policy::{Admission, PacketPick, PolicyError, Transfer};
use crate::record::RecordedSchedule;
use crate::snapshot::{EngineSnapshot, SnapLanding};
use crate::source::TraceSource;
use crate::state::{QueueBand, SwitchState, SwitchView};
use crate::stats::{RunReport, StatsRecorder};
use crate::trace::Trace;
use crate::transport::{self, DelayCalendar, FabricSpec, Landing, OutputSnapshot};
use cioq_model::{ConfigError, Cycle, Packet, PortId, SlotId, SwitchConfig, Value};
use std::ops::Range;

// ---------------------------------------------------------------------------
// Partition
// ---------------------------------------------------------------------------

/// Contiguous assignment of the N input rows and M output columns to K
/// shards: shard `s` owns rows `⌊sN/K⌋ .. ⌊(s+1)N/K⌋` and columns likewise.
#[derive(Debug, Clone)]
pub struct Partition {
    k: usize,
    n_inputs: usize,
    n_outputs: usize,
    input_owner: Vec<u16>,
    output_owner: Vec<u16>,
}

impl Partition {
    /// Partition an `n_inputs × n_outputs` switch into `k ≥ 1` shards.
    pub fn new(k: usize, n_inputs: usize, n_outputs: usize) -> Self {
        assert!(k >= 1, "need at least one shard");
        assert!(k <= u16::MAX as usize, "shard count exceeds u16");
        let owners = |n: usize| {
            let mut owner = vec![0u16; n];
            for s in 0..k {
                for o in owner.iter_mut().take((s + 1) * n / k).skip(s * n / k) {
                    *o = s as u16;
                }
            }
            owner
        };
        Partition {
            k,
            n_inputs,
            n_outputs,
            input_owner: owners(n_inputs),
            output_owner: owners(n_outputs),
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
        (s * self.n_inputs / self.k)..((s + 1) * self.n_inputs / self.k)
    }

    /// Global output columns owned by shard `s`.
    #[inline]
    pub fn output_range(&self, s: usize) -> Range<usize> {
        (s * self.n_outputs / self.k)..((s + 1) * self.n_outputs / self.k)
    }

    /// Owner shard of input row `i`.
    #[inline]
    pub fn input_owner(&self, i: usize) -> usize {
        self.input_owner[i] as usize
    }

    /// Owner shard of output column `j`.
    #[inline]
    pub fn output_owner(&self, j: usize) -> usize {
        self.output_owner[j] as usize
    }
}

// ---------------------------------------------------------------------------
// Options and outcome
// ---------------------------------------------------------------------------

/// How the K shards execute within a slot. Both variants run every
/// shard's phase work on the calling thread, in shard order, with no
/// thread spawned: a phase is a few microseconds of work at the port
/// counts the engine runs, less than a hand-off between threads costs.
/// The enum stays because callers outside the workspace name its
/// variants; the one-engine facade (ROADMAP item 2) deletes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// The default: the same as [`ExecMode::Inline`].
    #[default]
    Auto,
    /// Every shard's phase work runs on the calling thread.
    Inline,
}

/// Options for a sharded run (the sharded analogue of
/// [`RunOptions`](crate::engine::RunOptions)).
#[derive(Debug, Clone)]
pub struct ShardedOptions {
    /// Number of shards K ≥ 1.
    pub shards: usize,
    /// Execution strategy (every mode runs inline; see [`ExecMode`]).
    pub mode: ExecMode,
    /// Arrival slots to simulate; defaults to the trace horizon. Arrivals
    /// are pulled from the trace one slot at a time, so nothing past the
    /// window is read, copied or port-checked.
    pub slots: Option<SlotId>,
    /// Keep running arrival-free slots until drained (as the sequential
    /// engine does by default).
    pub drain: bool,
    /// Check full structural invariants — every shard's band, where it
    /// lies — after every slot (slow; meant for tests). On by default in
    /// debug builds, as [`RunOptions`](crate::engine::RunOptions)' own
    /// `validate` field is.
    pub validate: bool,
    /// Record the full decision transcript (admissions + per-cycle
    /// transfer sets) for equivalence checking.
    pub record: bool,
    /// Assemble and return the final global [`SwitchState`].
    pub capture_final_state: bool,
    /// Fabric transport: per-pair latencies (the default, uniform 0, is
    /// the same-cycle fabric). As in the sequential engine, a latency-0
    /// transfer is delivered at once, whichever shard owns its output, and
    /// every other one rides the one delay line and lands
    /// `delay(src, dst)` slots after dispatch.
    pub fabric: FabricSpec,
    /// Take an [`EngineSnapshot`] at the top of every slot `k` with
    /// `k > 0 && k % n == 0` (before that slot's landings and arrivals),
    /// byte-compatible with the sequential engine's checkpoints of the
    /// same run. Collected into [`ShardedOutcome::checkpoints`]. A cadence
    /// of 0 panics at run start, as the sequential engine refuses it with
    /// [`ConfigError::ZeroCheckpointCadence`].
    pub checkpoint_every: Option<SlotId>,
    /// Resume from a checkpoint instead of a fresh switch: queue
    /// contents, in-flight fabric packets and cumulative statistics are
    /// seeded from the snapshot and the run continues at its slot,
    /// byte-identical to the uninterrupted run on the same trace. The
    /// snapshot may come from a sequential or a sharded run (their
    /// checkpoints are byte-compatible); it must match the run's config
    /// and [`ShardedOptions::fabric`], and must carry no fault-held
    /// packets or stats window — the sharded engine has no fault layer
    /// and keeps full history. Violations panic loudly.
    pub resume_from: Option<EngineSnapshot>,
}

impl ShardedOptions {
    /// Default options for `k` shards: auto execution, drain on,
    /// validation in debug builds only, no capture, immediate fabric.
    pub fn new(k: usize) -> Self {
        ShardedOptions {
            shards: k,
            mode: ExecMode::Auto,
            slots: None,
            drain: true,
            validate: cfg!(debug_assertions),
            record: false,
            capture_final_state: false,
            fabric: FabricSpec::default(),
            checkpoint_every: None,
            resume_from: None,
        }
    }
}

/// Everything a sharded run produces.
#[derive(Debug)]
pub struct ShardedOutcome {
    /// The run report — field-for-field equal to the sequential
    /// engine's on the same input.
    pub report: RunReport,
    /// Decision transcript, when recording was requested.
    pub schedule: Option<RecordedSchedule>,
    /// Final global switch state, when capture was requested.
    pub final_state: Option<SwitchState>,
    /// Snapshots taken at every `checkpoint_every` boundary, in slot
    /// order — byte-compatible with the sequential engine's.
    pub checkpoints: Vec<EngineSnapshot>,
}

// ---------------------------------------------------------------------------
// Views
// ---------------------------------------------------------------------------

/// A shard's view: the one [`SwitchView`] both engines hand policies, over
/// the shard's own band (its rows, its output columns, its change log) and
/// the cycle's output snapshot. An alias, not a type: callers outside the
/// workspace import the name.
pub type ShardView<'a> = SwitchView<'a>;

// ---------------------------------------------------------------------------
// Policy traits
// ---------------------------------------------------------------------------

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

/// A CIOQ policy that can run sharded: a factory for per-shard workers plus
/// the deterministic merge combining their proposals into the global
/// matching.
pub trait CioqShardPolicy: Sync {
    /// Policy name (must match the sequential twin so reports compare
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
    /// transfers in the exact order the sequential policy would: the pop
    /// phase pops them from `out` in that order.
    fn merge(&self, ctx: &MergeContext<'_>, scratch: &mut MergeScratch, out: &mut Vec<Transfer>);
}

/// The per-shard worker half of a [`CioqShardPolicy`]. Every call gets the
/// shard's [`SwitchView`]: the type the sequential policies read, over the
/// shard's own band.
pub trait CioqShardWorker: Send {
    /// Admission for a packet arriving on an owned row (row-local by
    /// construction: the view only answers for owned rows).
    fn admit(&mut self, shard: &SwitchView<'_>, packet: &Packet) -> Admission;

    /// Propose this shard's candidates for the cycle. Shard-local by
    /// construction (no whole-fabric view): `shard.changes()` holds
    /// exactly the owned queues dirtied since the previous proposal, and
    /// `outputs` is the pre-cycle output snapshot, the same one
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
// The fabric: the shards' bands, the delay line and the books
// ---------------------------------------------------------------------------

/// The whole fabric: every shard's band, the delay line between them, the
/// run's books, and what the coordinator and the shards hand each other
/// per phase.
struct Fabric<'a> {
    cfg: &'a SwitchConfig,
    partition: Partition,
    /// The queues, one band per shard: its input rows' `Q_ij`, its output
    /// columns' `Q_j`, and the change log over them — the same object the
    /// sequential engine holds for the whole switch.
    bands: Vec<QueueBand>,
    /// The current slot's arrivals, whole and in arrival order. The
    /// coordinator refills it from the trace, or clears it past the
    /// arrival window; the opening phase admits each packet through its
    /// input owner.
    batch: Vec<Packet>,
    /// Per-shard CIOQ proposal payloads, pooled across cycles.
    candidates: Vec<CandidateSet>,
    /// The cycle's CIOQ transfer set, in merge order: written by the
    /// merge, popped by the pop phase.
    transfers: Vec<Transfer>,
    /// The delay line, the sequential engine's: every positive-latency
    /// transfer rides it and lands `delay(src, dst)` slots after dispatch,
    /// as the slot it is due in opens.
    calendar: DelayCalendar,
    /// The landing phase's gather buffer.
    landing: Vec<Landing>,
    /// The run statistics.
    stats: StatsRecorder,
    /// Recorded admissions, in arrival order (only when recording).
    admissions: Vec<bool>,
    /// Per-pair fabric latencies.
    spec: FabricSpec,
    /// The cycle's output snapshot, refreshed at its top.
    snapshot: OutputSnapshot,
    /// The slot and scheduling cycle being run.
    now: Cycle,
    record: bool,
}

impl<'a> Fabric<'a> {
    fn new(cfg: &'a SwitchConfig, partition: Partition, options: &ShardedOptions) -> Self {
        let k = partition.k();
        let bands = (0..k)
            .map(|s| QueueBand::new(cfg, partition.input_range(s), partition.output_range(s)))
            .collect();
        // Reserved as the sequential engine reserves its calendar, so the
        // slot loop never grows a bucket or the landing gather.
        let horizon = options.fabric.max_delay();
        let per_bucket = per_bucket_bound(cfg, horizon, None);
        Fabric {
            cfg,
            partition,
            bands,
            batch: Vec::new(),
            candidates: (0..k).map(|_| CandidateSet::default()).collect(),
            // A matching has at most one transfer per port on either side.
            transfers: Vec::with_capacity(cfg.n_inputs.min(cfg.n_outputs)),
            calendar: DelayCalendar::with_reserve(horizon, per_bucket),
            landing: Vec::with_capacity(per_bucket),
            stats: StatsRecorder::new(cfg.n_outputs),
            admissions: Vec::new(),
            spec: options.fabric.clone(),
            snapshot: OutputSnapshot::default(),
            now: Cycle { slot: 0, index: 0 },
            record: options.record,
        }
    }

    // -- Phases ----------------------------------------------------------------
    //
    // The phases and the refill stay out of line (`#[inline(never)]`).
    // Inlined, they made the slot loop one 24-KB function, and row 2 of the
    // benchmark (`cioq_gm_uniform_shard1`, K = 1) read 5 % slower than the
    // barrier-party loop this one replaced (median of ten 20-s pairs on a
    // 2-vCPU host, 1 of 10 faster); out of line it read 6 % faster (8 of
    // 10).

    /// The opening phase: land the delay line's bucket due now into the
    /// output owners' bands, in the canonical landing order (see
    /// `transport::land`), then admit the slot's batch in arrival order,
    /// each packet through its input owner's worker and band. Landing
    /// writes only `Q_j`, admission only `Q_ij`, each in the sequential
    /// engine's order. Admission is row-local in every policy of the paper.
    #[inline(never)]
    fn open(&mut self, workers: &mut [Box<dyn CioqShardWorker>]) -> Result<(), PolicyError> {
        let (bands, stats, partition) = (&mut self.bands, &mut self.stats, &self.partition);
        transport::land(self.now.slot, &mut self.calendar, &mut self.landing, |p| {
            // The sharded engine has no fault layer, so a full queue never
            // drops.
            bands[partition.output_owner(p.output as usize)].deliver(stats, false, p)
        })?;
        for p in &self.batch {
            let s = partition.input_owner(p.input.index());
            let band = &mut bands[s];
            let view = SwitchView::new(self.cfg, band, &self.snapshot, self.now.slot, s);
            let decision = workers[s].admit(&view, p);
            if self.record {
                self.admissions.push(!matches!(decision, Admission::Reject));
            }
            band.admit(stats, decision, p)?;
        }
        Ok(())
    }

    /// Shard `s` proposes its candidates for the cycle's merge.
    // detlint: hot
    #[inline(never)]
    fn propose(&mut self, s: usize, worker: &mut dyn CioqShardWorker) {
        let view = SwitchView::new(self.cfg, &self.bands[s], &self.snapshot, self.now.slot, s);
        let out = &mut self.candidates[s];
        out.aux.clear();
        worker.propose(&view, &self.snapshot, self.now, out);
    }

    /// The pop-and-route step of a scheduling cycle: pop each transfer of
    /// the cycle's merged set from its input owner's band (`Q_ij →
    /// fabric`), in set order, and hand its packet to the fabric, as the
    /// sequential engine's `through_fabric` does — delivered at once into
    /// its output owner's band when its pair is at latency 0, dispatched
    /// onto the delay line at its latency otherwise.
    // detlint: hot
    #[inline(never)]
    fn pop(&mut self) -> Result<(), PolicyError> {
        // The proposals consumed the change logs; everything from here on
        // accumulates for the next proposal (sequential flush point).
        for band in &mut self.bands {
            band.flush();
        }
        for t in &self.transfers {
            let p = self.bands[self.partition.input_owner(t.input.index())].pop_transfer(t)?;
            match self.spec.delay(t.input, t.output) {
                0 => {
                    let band = &mut self.bands[self.partition.output_owner(t.output.index())];
                    band.deliver(&mut self.stats, false, p)?;
                }
                d => self.calendar.dispatch(self.now.slot, self.now.index, d, p),
            }
        }
        Ok(())
    }

    /// Transmission: send the head of every non-empty output queue (the
    /// behaviour of every policy in the paper).
    #[inline(never)]
    fn transmit(&mut self) {
        for band in &mut self.bands {
            for j in band.cols().map(PortId::from) {
                if !band.output(j).is_empty() {
                    let sent =
                        band.transmit(&mut self.stats, self.now.slot, j, PacketPick::Greatest);
                    sent.expect("invariant: a non-empty queue has a head");
                }
            }
        }
    }

    // -- The coordinator's work between phases -------------------------------

    /// Refill the batch with `slot`'s arrivals from `source` and validate
    /// their ports — here, before the opening phase looks a packet's owner
    /// up by its input.
    #[inline(never)]
    fn refill(&mut self, source: &mut TraceSource<'_>, slot: SlotId) -> Result<(), PolicyError> {
        self.batch.clear();
        source.pull(slot, &mut self.batch);
        for p in &self.batch {
            mechanics::check_ports(self.cfg, p.input, p.output)?;
        }
        Ok(())
    }

    /// Refresh the output snapshot at the top of a scheduling cycle: every
    /// shard's output queues plus the delay line's in-flight packets.
    fn refresh_snapshot(&mut self) {
        let bands = &self.bands;
        let visit_bands = |visit: &mut dyn FnMut(&QueueBand)| bands.iter().for_each(visit);
        self.snapshot
            .refresh(self.cfg.n_outputs, &self.calendar, None, visit_bands);
    }

    /// (transmitted, moved) for the progress check.
    fn progress(&self) -> (u64, u64) {
        (self.stats.transmitted, self.stats.transferred)
    }

    /// Visit, as `(output, value)`, every packet currently riding the
    /// delay line.
    fn for_each_in_flight(&self, f: impl FnMut(usize, Value)) {
        transport::for_each_in_flight(&self.calendar, None, f);
    }

    /// Packets currently in flight through the fabric (0 when immediate).
    fn in_flight_total(&self) -> u64 {
        let mut n = 0;
        self.for_each_in_flight(|_, _| n += 1);
        n
    }

    fn residual(&self) -> (u64, u128) {
        let mut count = 0;
        let mut value = 0;
        for band in &self.bands {
            count += band.residual_count();
            value += band.residual_value();
        }
        self.for_each_in_flight(|_, v| {
            count += 1;
            value += v as u128;
        });
        (count, value)
    }

    /// Assemble the global [`SwitchState`] (tests / capture): the shards'
    /// bands, concatenated.
    fn assemble_state(&self) -> SwitchState {
        SwitchState::assemble(self.cfg.clone(), self.now.slot, &self.bands)
    }

    /// Capture an [`EngineSnapshot`] of the run at the top of `slot`
    /// (before the opening phase lands) — byte-compatible with the
    /// sequential engine's capture of the same state: queue cells in
    /// stored order, the delay line's contents as `(land slot, dispatch
    /// metadata)` landings in canonical order, the statistics, and the
    /// coordinator's live no-progress streak.
    fn capture(&self, fabric: &FabricSpec, slot: SlotId, idle_slots: u32) -> EngineSnapshot {
        // Capture runs before the slot opens, so the bucket due now is
        // still pending.
        let landings = SnapLanding::pending(slot, &self.calendar);
        let (residual_count, residual_value) = self.residual();
        let mut snap = EngineSnapshot {
            config: self.cfg.clone(),
            fabric: fabric.clone(),
            slot,
            idle_slots,
            input_queues: Vec::new(),
            crossbar_queues: None,
            output_queues: Vec::new(),
            landings,
            held: Vec::new(),
            stats: self.stats.clone(),
            window: None,
            residual_count,
            residual_value,
        };
        // Shards own contiguous ascending bands, so visiting them in order
        // yields the checkpoint layout.
        for band in &self.bands {
            band.cells_out(&mut snap);
        }
        snap
    }

    /// Seed the freshly-built fabric from a checkpoint — the sharded half
    /// of [`Engine::restore`](crate::engine::Engine::restore): every owner
    /// shard receives its queue contents, the delay line its in-flight
    /// packets (bucketed by landing slot), and the books the cumulative
    /// statistics. Returns the slot and no-progress streak the coordinator
    /// resumes at. Panics loudly on a snapshot that cannot be applied
    /// here: wrong geometry or fabric, fault-held packets or a stats window
    /// (the sharded engine supports neither), or a landing no run could
    /// have in flight (the sequential restore's rule).
    fn seed(&mut self, snap: &EngineSnapshot) -> (SlotId, u32) {
        assert_eq!(
            &snap.config, self.cfg,
            "snapshot was taken under a different switch config"
        );
        assert_eq!(
            snap.fabric, self.spec,
            "snapshot was taken under a different fabric"
        );
        assert!(
            snap.held.is_empty(),
            "snapshot holds fault-retransmit packets; the sharded engine has no fault layer"
        );
        assert!(
            snap.window.is_none(),
            "snapshot carries a stats window; the sharded engine keeps full history"
        );
        for band in &mut self.bands {
            if let Err(e) = band.refill(snap) {
                panic!("snapshot cannot be applied: {e}");
            }
        }
        self.stats = snap.stats.clone();
        for l in &snap.landings {
            if let Err(e) = snap.check_landing(l, None) {
                panic!("snapshot cannot be applied: {e}");
            }
            self.calendar.insert_pending(l.land_slot, l.landing);
        }
        self.now.slot = snap.slot;
        // The restored-residual invariant (see `crate::invariants`): what
        // was seeded must account for exactly what the checkpoint recorded.
        if let Err(msg) = crate::invariants::check_restored_residual(self.residual(), snap) {
            panic!("snapshot cannot be applied: {msg}");
        }
        (snap.slot, snap.idle_slots)
    }

    /// Check every shard's band, where it lies, when the run asked for it.
    fn post_slot_validate(&self, options: &ShardedOptions) {
        if options.validate {
            for band in &self.bands {
                if let Err(msg) = band.check_invariants() {
                    panic!("sharded engine invariant violated: {msg}");
                }
            }
        }
    }

    /// Per-slot invariant audit (debug builds only): conservation against
    /// the fabric's residual, the sequential engine's audit — see
    /// [`crate::invariants`].
    fn audit_slot(&self) {
        if cfg!(debug_assertions) {
            let (residual_count, residual_value) = self.residual();
            if let Err(msg) =
                crate::invariants::check_conservation(&self.stats, residual_count, residual_value)
            {
                let slot = self.now.slot;
                panic!("sharded engine invariant violated at slot {slot}: {msg}");
            }
        }
    }

    fn finish(
        self,
        name: String,
        slots: SlotId,
        options: &ShardedOptions,
    ) -> (RunReport, Option<SwitchState>, Vec<bool>) {
        let final_state = options.capture_final_state.then(|| self.assemble_state());
        let residual = self.residual();
        let report = mechanics::finish_report(self.stats, name, slots, residual, &options.fabric);
        (report, final_state, self.admissions)
    }
}

// ---------------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------------

/// Run a sharded CIOQ policy over a recorded trace.
///
/// Produces a [`RunReport`] field-for-field equal to
/// [`run_cioq`](crate::engine::run_cioq) with the sequential twin of
/// `policy`, for every shard count and execution mode. This is §1.3's
/// slot, with one proposal per shard and one merge per cycle.
pub fn run_cioq_sharded(
    cfg: &SwitchConfig,
    policy: &dyn CioqShardPolicy,
    trace: &Trace,
    options: ShardedOptions,
) -> Result<ShardedOutcome, PolicyError> {
    assert!(
        cfg.crossbar_capacity.is_none(),
        "run_cioq_sharded requires a CIOQ config"
    );
    assert!(
        options.checkpoint_every != Some(0),
        "{}",
        ConfigError::ZeroCheckpointCadence
    );
    options.fabric.assert_covers(cfg);
    let partition = Partition::new(options.shards, cfg.n_inputs, cfg.n_outputs);
    let slots = options.slots.unwrap_or_else(|| trace.arrival_slots());
    let mut fabric = Fabric::new(cfg, partition, &options);
    let mut workers: Vec<_> = (0..fabric.partition.k())
        .map(|s| policy.new_worker(s, &fabric.partition, cfg))
        .collect();
    let (mut slot, mut idle_slots) = options
        .resume_from
        .as_ref()
        .map_or((0, 0), |snap| fabric.seed(snap));
    // Positioned where the run starts: slot 0, or the checkpoint's slot.
    let mut source = TraceSource::resume_at(trace, slot);
    let mut merge = Merge {
        policy,
        scratch: MergeScratch::default(),
        recorded: Vec::new(),
    };
    let mut stamps = PortStamps::default();
    let mut checkpoints: Vec<EngineSnapshot> = Vec::new();

    loop {
        let in_arrival_window = slot < slots;
        if !in_arrival_window {
            // In-flight packets always land (and count as progress), so
            // the idle cutoff waits for the fabric.
            let buffered = fabric.stats.buffered();
            debug_assert_eq!(buffered, fabric.residual().0);
            let done = !options.drain
                || buffered == 0
                || (idle_slots >= 2 && fabric.in_flight_total() == 0);
            if done {
                break;
            }
        }
        fabric.now = Cycle { slot, index: 0 };
        if let Some(every) = options.checkpoint_every {
            if slot > 0 && slot.is_multiple_of(every) {
                checkpoints.push(fabric.capture(&options.fabric, slot, idle_slots));
            }
        }
        let (tx_before, moved_before) = fabric.progress();

        if in_arrival_window {
            fabric.refill(&mut source, slot)?;
        } else {
            fabric.batch.clear();
        }
        fabric.open(&mut workers)?;

        for index in 0..cfg.speedup {
            fabric.now.index = index;
            fabric.refresh_snapshot();
            for (s, worker) in workers.iter_mut().enumerate() {
                fabric.propose(s, worker.as_mut());
            }
            merge.run(&mut fabric, &mut stamps)?;
            fabric.pop()?;
        }

        fabric.transmit();
        fabric.post_slot_validate(&options);
        fabric.audit_slot();

        let (tx_after, moved_after) = fabric.progress();
        let progressed = tx_after != tx_before || moved_after != moved_before;
        idle_slots = if progressed { 0 } else { idle_slots + 1 };
        slot += 1;
    }

    let (report, final_state, admissions) =
        fabric.finish(policy.name().to_string(), slot, &options);
    let schedule = options.record.then(|| {
        let schedule = RecordedSchedule {
            admissions,
            transfers: merge.recorded,
            fabric_delay: report.fabric_delay,
        };
        if cfg!(debug_assertions) {
            if let Err(msg) = crate::invariants::check_schedule(&schedule, cfg) {
                panic!("sharded run produced an invalid schedule transcript: {msg}");
            }
        }
        schedule
    });
    Ok(ShardedOutcome {
        report,
        schedule,
        final_state,
        checkpoints,
    })
}

/// The coordinator's side of a scheduling cycle: the merge's pooled state
/// and the transcript it records.
struct Merge<'p> {
    policy: &'p dyn CioqShardPolicy,
    scratch: MergeScratch,
    recorded: Vec<Vec<(u16, u16)>>,
}

impl Merge<'_> {
    /// Merge the shards' proposals into the cycle's matching, validate it
    /// on `stamps`, and record it when the run asked for it; the pop phase
    /// then reads it from `fabric.transfers`.
    fn run(&mut self, fabric: &mut Fabric<'_>, stamps: &mut PortStamps) -> Result<(), PolicyError> {
        let cfg = fabric.cfg;
        fabric.transfers.clear();
        let ctx = MergeContext {
            cfg,
            partition: &fabric.partition,
            outputs: &fabric.snapshot,
            cycle: fabric.now,
            candidates: &fabric.candidates,
        };
        self.policy
            .merge(&ctx, &mut self.scratch, &mut fabric.transfers);
        stamps.begin(cfg.n_inputs, cfg.n_outputs);
        let pairs = fabric.transfers.iter().map(|t| (t.input, t.output));
        stamps.check(cfg, pairs, true, true)?;
        if fabric.record {
            let pairs = fabric.transfers.iter().map(|t| (t.input.0, t.output.0));
            self.recorded.push(pairs.collect());
        }
        Ok(())
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PacketPick;

    #[test]
    fn partition_is_contiguous_and_covering() {
        for (k, n) in [(1, 5), (2, 5), (3, 7), (4, 4), (4, 2), (5, 16)] {
            let p = Partition::new(k, n, n);
            let mut seen = 0usize;
            for s in 0..k {
                let r = p.input_range(s);
                assert_eq!(r.start, seen, "ranges are contiguous");
                for i in r.clone() {
                    assert_eq!(p.input_owner(i), s);
                    assert_eq!(p.output_owner(i), s);
                }
                seen = r.end;
            }
            assert_eq!(seen, n, "ranges cover all ports");
        }
    }

    // -- Shard-count independence and failure paths ---------------------------
    //
    // `cioq_core`'s sharded policies sit above this crate, so these tests
    // drive the engine with cache-free, paper-direct versions of GM and PG
    // written against the shard traits alone.

    use cioq_model::{exceeds_factor, Topology};
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
        beta: Option<f64>,
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
                let eligible = !ctx.outputs.full[j]
                    || self
                        .beta
                        .is_some_and(|b| exceeds_factor(weight, b, ctx.outputs.tail[j]));
                if eligible && !input_used[i] && !output_used[j] {
                    input_used[i] = true;
                    output_used[j] = true;
                    out.push(Transfer {
                        input: PortId::from(i),
                        output: PortId::from(j),
                        pick: PacketPick::Greatest,
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

    /// Two racks over `k` shards: intra-rack pairs (latency 0) deliver at
    /// once, into whichever band owns the output — from k = 3 on a rack
    /// spans two bands; cross-rack pairs ride the delay line and land two
    /// slots later.
    fn two_tier_options(k: usize) -> ShardedOptions {
        let topology = Topology::two_tier(PORTS, PORTS, 2, 0, 2).expect("valid topology");
        let mut options = ShardedOptions::new(k);
        options.fabric = FabricSpec::matrix(topology);
        options.validate = true;
        options.record = true;
        options.capture_final_state = true;
        options.checkpoint_every = Some(8);
        options
    }

    /// Everything a run produces, in comparable form: the report, the
    /// transcript and final state, the checkpoint bytes.
    type Fingerprint = (RunReport, String, Vec<Vec<u8>>);

    fn fingerprint(outcome: ShardedOutcome) -> Fingerprint {
        let transcript_and_state = format!("{:?} {:?}", outcome.schedule, outcome.final_state);
        let checkpoints = outcome.checkpoints.iter().map(|c| c.to_bytes()).collect();
        (outcome.report, transcript_and_state, checkpoints)
    }

    #[test]
    fn results_do_not_depend_on_the_shard_count() {
        let cioq = SwitchConfig::cioq(PORTS, 2, 2);
        let (unit, valued) = (skewed_trace(1), skewed_trace(16));
        let run_cioq = |beta, trace: &Trace, k| {
            let policy = Greedy { beta };
            fingerprint(run_cioq_sharded(&cioq, &policy, trace, two_tier_options(k)).unwrap())
        };
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
        check("PG", &|k| run_cioq(Some(2.4), &valued, k));
    }

    /// The opening phase lands on drain slots too: what the arrival window
    /// leaves on a delayed fabric lands, and the run ends with nothing
    /// buffered. An opening phase that stopped landing past the window
    /// would spin in the drain forever; the watchdog makes that a failure.
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

    /// A zero checkpoint cadence is refused at run start with the error the
    /// sequential engine's `Engine::try_new` returns, not run without
    /// checkpoints.
    #[test]
    fn a_zero_checkpoint_cadence_is_refused() {
        let mut options = two_tier_options(2);
        options.checkpoint_every = Some(0);
        let msg = bounded(move || {
            let cfg = SwitchConfig::cioq(PORTS, 2, 2);
            let trace = skewed_trace(1);
            run_cioq_sharded(&cfg, &Greedy { beta: None }, &trace, options).map(|_| ())
        })
        .expect_err("a zero cadence must be refused");
        assert_eq!(msg, ConfigError::ZeroCheckpointCadence.to_string());
    }

    /// A checkpoint landing the sequential restore refuses is refused here
    /// too, with its error.
    #[test]
    fn resume_refuses_the_landings_restore_refuses() {
        use crate::{Engine, RunOptions};
        for snap in crate::snapshot::tests::illegal_landings() {
            let mut options = ShardedOptions::new(2);
            options.fabric = snap.fabric().clone();
            let restore_options = RunOptions {
                fabric: options.fabric.clone(),
                ..RunOptions::default()
            };
            let err = Engine::restore(&snap, restore_options).err();
            let err = err.expect("restore refuses the landing");
            let cfg = snap.config().clone();
            options.resume_from = Some(snap);
            let msg = bounded(move || {
                let trace = Trace::from_tuples(Vec::new());
                run_cioq_sharded(&cfg, &Greedy { beta: None }, &trace, options).map(|_| ())
            })
            .expect_err("resume refuses the landing");
            assert_eq!(msg, format!("snapshot cannot be applied: {err}"));
        }
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

    fn run_faulty(fault: Fault) -> Result<Result<ShardedOutcome, PolicyError>, String> {
        bounded(move || {
            let cfg = SwitchConfig::cioq(PORTS, 2, 2);
            let trace = skewed_trace(1);
            run_cioq_sharded(&cfg, &Faulty(fault), &trace, two_tier_options(K))
        })
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
