//! Sharded slot engine for CIOQ switches: the N ports split into K
//! contiguous shards, and every phase of a slot runs each shard's share in
//! shard order on the calling thread, with cross-shard traffic batched per
//! cycle and reconciled deterministically. GM is one lexicographic greedy
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
//! What is this engine's own is everything *between* bands, and every
//! hand-off there happens once per phase, never once per item. The
//! coordinator merges a cycle's transfer set whole; each row owner pops
//! from it the transfers of its own rows. A transfer whose input row and
//! output column live on different shards is *cross-shard*: the row owner
//! dispatches the packet into the `(column owner, row owner)` delay ring —
//! the sequential engine's `DelayCalendar`, at the pair's latency, 0
//! included — and the column owner lands it, after the cycle at latency 0
//! and as a later slot opens otherwise. A policy error returns through
//! `?`, as in the sequential engine.
//!
//! ## Bit-identity
//!
//! The sharded engine is **bit-identical** to the sequential [`Engine`]
//! (`tests/sharded_equivalence.rs` proves it per cycle): within a phase a
//! shard writes only its own band and the rings it alone writes in that
//! phase, so no shard reads what another wrote in the same phase and the
//! shard order never shows; per-shard proposals are combined by a
//! *deterministic merge* that resolves contended crosspoints in fixed port
//! order (ascending input: GM's lexicographic greedy); and all cross-shard
//! batches are per-queue unique within a cycle, so apply order cannot
//! influence the result. The shard count therefore never changes a single
//! decision.
//!
//! ## Where the two engines meet
//!
//! `run_cioq_sharded` owns the slot: the preamble (partition, rings,
//! workers, checkpoint cadence), the opening phase, the scheduling cycles,
//! transmission, audit and the finish; each phase is a `Fabric` method
//! that runs one shard's share. In the opening phase the coordinator pulls
//! the slot's arrivals from the trace cursor into one pooled batch and
//! validates their ports; then every shard lands the ring bucket due now
//! and admits, from that batch, the packets of the rows it owns. The two
//! engines meet in the band: admitting, popping toward the fabric,
//! delivery into `Q_j`, transmission, residual, checkpoint cells out and
//! in, and the structural check are `QueueBand` methods both call;
//! a checkpoint is the shards' cells in shard order, and `assemble_state`
//! the shards' bands concatenated. They meet in the delay line too: one
//! `DelayCalendar` there, one per shard pair here, landed by the one
//! `transport::land` and captured by the one `SnapLanding::pending`; and in
//! what policies read of the output side: one [`OutputSnapshot`],
//! refreshed at the top of every scheduling cycle by the one
//! `OutputSnapshot::refresh` — here over the shards' bands and the rings,
//! into the coordinator's copy that proposals and merges are handed. And
//! they meet in the view: a policy reads one [`SwitchView`] type in both
//! engines — over the band `0..N` there, over a shard's band and the
//! cycle's snapshot here — so one policy object's cache code runs
//! unchanged under either. Still per-engine: the slot loop itself, the
//! policy traits (both families take that one view; folding them waits on
//! one slot loop) and the fault layer, which only the sequential engine
//! has.
//!
//! [`Engine`]: crate::engine::Engine

use crate::mechanics::{self, PortStamps};
use crate::policy::{Admission, PacketPick, PolicyError, Transfer};
use crate::record::RecordedSchedule;
use crate::snapshot::{EngineSnapshot, SnapLanding};
use crate::source::TraceSource;
use crate::state::{QueueBand, SwitchState, SwitchView};
use crate::stats::{RunReport, StatsRecorder};
use crate::trace::Trace;
use crate::transport::{self, DelayCalendar, FabricSpec, InFlightPacket, Landing, OutputSnapshot};
use cioq_model::{Cycle, Packet, PortId, SlotId, SwitchConfig, Value};
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
    /// the same-cycle fabric). A latency-0 transfer within a shard is
    /// delivered at once; every other one — same-shard ones included, so
    /// results are partition-independent — rides a per-(dest, src) ring
    /// of slot-buckets and lands `delay(src, dst)` slots after dispatch,
    /// at latency 0 after the cycle.
    pub fabric: FabricSpec,
    /// Take an [`EngineSnapshot`] at the top of every slot `k` with
    /// `k > 0 && k % n == 0` (before that slot's landings and arrivals),
    /// byte-compatible with the sequential engine's checkpoints of the
    /// same run. Collected into [`ShardedOutcome::checkpoints`].
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
    /// The merged run report — field-for-field equal to the sequential
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
    /// transfers in the exact order the sequential policy would: every row
    /// owner pops its own rows' transfers from `out` in that order.
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
// The fabric: every shard's state and what passes between them
// ---------------------------------------------------------------------------

/// One shard's owned slice of the switch plus its accounting.
struct ShardState {
    /// The queues this shard owns: its input rows' `Q_ij`, its
    /// output columns' `Q_j`, and the change log over them — the same
    /// object the sequential engine holds for the whole switch.
    band: QueueBand,
    /// This shard's share of the run statistics (summed at the end).
    stats: StatsRecorder,
    /// Recorded admissions `(global arrival index, accepted)`.
    admits: Vec<(u64, bool)>,
    /// Pooled gather buffer of this shard's landings.
    gather: Vec<Landing>,
}

/// The whole fabric: the shards' states, the delay rings between them,
/// and what the coordinator and the shards hand each other per phase.
struct Fabric<'a> {
    cfg: &'a SwitchConfig,
    partition: Partition,
    shards: Vec<ShardState>,
    /// The current slot's arrivals, whole and in arrival order. The
    /// coordinator refills it from the trace, or clears it past the
    /// arrival window; in the opening phase every shard admits the
    /// packets of its own rows from it.
    batch: SlotBatch,
    /// Per-shard CIOQ proposal payloads, pooled across cycles.
    candidates: Vec<CandidateSet>,
    /// The cycle's CIOQ transfer set, in merge order: written by the
    /// merge, popped by every row owner.
    transfers: Vec<Transfer>,
    /// The packets between bands: one delay ring per (destination, source)
    /// shard pair (`rings[dest][src]`), written by the source's pop phase,
    /// landed by the destination. Each is a [`DelayCalendar`] — the
    /// sequential engine's delay line — of *heterogeneous* depth, the
    /// largest per-pair latency between a source-owned input and a
    /// destination-owned output, so a shard pair whose racks sit close
    /// never pays for the fabric's worst path. The destination lands the
    /// bucket due at slot `t` as `t` opens, before the slot's dispatches
    /// refill it, and again after each cycle when latency-0 dispatches
    /// reach it. Packets keep their dispatch time: with per-pair latencies
    /// one landing slot can gather transfers dispatched in *different*
    /// slots (and up to ŝ per output within a slot), and with preemption
    /// their per-queue apply order matters (see [`Fabric::land`]).
    rings: Vec<Vec<DelayCalendar>>,
    /// Per-pair fabric latencies.
    spec: FabricSpec,
    /// Whether some pair across shard bands has latency 0, so rings take
    /// dispatches that land within their own cycle: the landing phase then
    /// also runs after every cycle. Never at K = 1, nor where the racks of
    /// a two-tier fabric line up with the bands.
    land_after_cycle: bool,
    /// The cycle's output snapshot, refreshed at its top.
    snapshot: OutputSnapshot,
    /// The slot and scheduling cycle being run.
    now: Cycle,
    record: bool,
}

/// One slot's arrivals, pooled across slots. Packet `packets[o]` has
/// global index `base + o` — its position in σ, which is what recorded
/// admissions are keyed by.
#[derive(Default)]
struct SlotBatch {
    base: u64,
    packets: Vec<Packet>,
}

/// The delay rings of a `partition` of `cfg` under `spec`, indexed
/// `[dest][src]`, and whether some pair across shard bands has latency 0
/// (`Fabric::land_after_cycle`). Ring (dest, src) only needs buckets for
/// the worst latency between a src-owned input and a dest-owned output,
/// and its best one says whether it carries latency 0. One pass at run
/// start; the slot loop never recomputes.
fn delay_rings(
    spec: &FabricSpec,
    partition: &Partition,
    cfg: &SwitchConfig,
) -> (Vec<Vec<DelayCalendar>>, bool) {
    let speedup = cfg.speedup.max(1) as usize;
    let mut land_after_cycle = false;
    let mut ring = |dest: usize, src: usize| {
        let (mut best, mut worst) = (SlotId::MAX, 0);
        for i in partition.input_range(src) {
            for j in partition.output_range(dest) {
                let d = spec.delay(PortId::from(i), PortId::from(j));
                (best, worst) = (best.min(d), worst.max(d));
            }
        }
        land_after_cycle |= dest != src && best == 0;
        // Reserved at its hard bound, so the steady-state slot loop
        // never grows a bucket: a matching moves at most one packet
        // per port per cycle, so one dispatch slot puts at most
        // `min(rows, cols) * speedup` packets into a bucket, and a
        // bucket gathers from up to `worst` dispatch slots (latency
        // `1..=worst`; latency-0 dispatches land after their cycle).
        let (rows, cols) = (partition.input_range(src), partition.output_range(dest));
        let per_bucket = rows.len().min(cols.len()) * speedup * worst.max(1) as usize;
        DelayCalendar::with_reserve(worst, per_bucket)
    };
    let k = partition.k();
    let rings = (0..k)
        .map(|dest| (0..k).map(|src| ring(dest, src)).collect())
        .collect();
    (rings, land_after_cycle)
}

/// Insert one packet off the fabric into its owner's output queue.
fn deliver(
    band: &mut QueueBand,
    stats: &mut StatsRecorder,
    p: InFlightPacket,
) -> Result<(), PolicyError> {
    // The sharded engine has no fault layer, so a full queue never drops.
    band.deliver(stats, false, p)
}

impl<'a> Fabric<'a> {
    fn new(cfg: &'a SwitchConfig, partition: Partition, options: &ShardedOptions) -> Self {
        let (rings, land_after_cycle) = delay_rings(&options.fabric, &partition, cfg);
        let speedup = cfg.speedup.max(1) as usize;
        let horizon = options.fabric.max_delay().max(1) as usize;
        let shards = (0..partition.k())
            .map(|s| {
                let (rows, cols) = (partition.input_range(s), partition.output_range(s));
                // A landing gathers at most one transfer per owned output
                // per cycle, from `speedup` cycles of up to `horizon`
                // dispatch slots.
                let gather = Vec::with_capacity(cols.len() * speedup * horizon);
                ShardState {
                    band: QueueBand::new(cfg, rows, cols),
                    stats: StatsRecorder::new(cfg.n_outputs),
                    admits: Vec::new(),
                    gather,
                }
            })
            .collect();
        Fabric {
            cfg,
            candidates: (0..partition.k())
                .map(|_| CandidateSet::default())
                .collect(),
            partition,
            shards,
            batch: SlotBatch::default(),
            // A matching has at most one transfer per port on either side.
            transfers: Vec::with_capacity(cfg.n_inputs.min(cfg.n_outputs)),
            rings,
            spec: options.fabric.clone(),
            land_after_cycle,
            snapshot: OutputSnapshot::default(),
            now: Cycle { slot: 0, index: 0 },
            record: options.record,
        }
    }

    // -- Phases: each runs one shard's share ---------------------------------
    //
    // The phases and the refill stay out of line (`#[inline(never)]`).
    // Inlined, they made the slot loop one 24-KB function, and row 2 of the
    // benchmark (`cioq_gm_uniform_shard1`, K = 1) read 5 % slower than the
    // barrier-party loop this one replaced (median of ten 20-s pairs on a
    // 2-vCPU host, 1 of 10 faster); out of line it read 6 % faster (8 of
    // 10).

    /// The opening phase for shard `s`: land the bucket of its rings due
    /// now, then admit, from the slot's one batch, the packets of the rows
    /// this shard owns. Landing writes only owned `Q_j`, admission only
    /// owned `Q_ij`, each in the sequential engine's order. Admission is
    /// row-local in every policy of the paper, so the shards need no
    /// distribution step — each skips what another owns, and arrival order
    /// within a row is the batch's.
    #[inline(never)]
    fn open(&mut self, s: usize, worker: &mut dyn CioqShardWorker) -> Result<(), PolicyError> {
        self.land(s)?;
        let st = &mut self.shards[s];
        let rows = st.band.rows();
        for (idx, p) in (self.batch.base..).zip(&self.batch.packets) {
            if !rows.contains(&p.input.index()) {
                continue;
            }
            let view = SwitchView::new(self.cfg, &st.band, &self.snapshot, self.now.slot, s);
            let decision = worker.admit(&view, p);
            if self.record {
                st.admits
                    .push((idx, !matches!(decision, Admission::Reject)));
            }
            st.band.admit(&mut st.stats, decision, p)?;
        }
        Ok(())
    }

    /// Shard `s` proposes its candidates for the cycle's merge.
    // detlint: hot
    #[inline(never)]
    fn propose(&mut self, s: usize, worker: &mut dyn CioqShardWorker) {
        let view = SwitchView::new(
            self.cfg,
            &self.shards[s].band,
            &self.snapshot,
            self.now.slot,
            s,
        );
        let out = &mut self.candidates[s];
        out.aux.clear();
        worker.propose(&view, &self.snapshot, self.now, out);
    }

    /// The pop-and-route step of a scheduling cycle: shard `s` pops, from
    /// the cycle's merged set, the transfers of its own rows (`Q_ij →
    /// fabric`), and hands each packet to the fabric — delivered at once,
    /// as the sequential engine's is, when its pair is at latency 0 and
    /// this shard owns its output, and otherwise dispatched into the
    /// column owner's ring at its latency.
    // detlint: hot
    #[inline(never)]
    fn pop(&mut self, s: usize) -> Result<(), PolicyError> {
        let st = &mut self.shards[s];
        // The proposal consumed the change log; everything from here on
        // accumulates for the next proposal (sequential flush point).
        st.band.flush();
        let rows = st.band.rows();
        for t in self
            .transfers
            .iter()
            .filter(|t| rows.contains(&t.input.index()))
        {
            let p = st.band.pop_transfer(t)?;
            let dest = self.partition.output_owner(p.output as usize);
            let d = self.spec.delay(PortId(p.input), PortId(p.output));
            if d == 0 && dest == s {
                // Both endpoints owned: inserts touch `Q_j`, pops touch
                // `Q_ij` — the families are disjoint, so early delivery
                // cannot perturb any pop.
                deliver(&mut st.band, &mut st.stats, p)?;
            } else {
                // Every positive-latency transfer — same-shard included,
                // so results are partition-independent — and every
                // cross-shard one lands `d` slots later (`d = 0`: after
                // the cycle).
                self.rings[dest][s].dispatch(self.now.slot, self.now.index, d, p);
            }
        }
        Ok(())
    }

    /// Landing for shard `s` (after a cycle when `land_after_cycle`, and
    /// the opening phase's first half): land the current slot's bucket of
    /// every (s, src) ring into the owned output queues, in the canonical
    /// landing order (see `transport::land`) — the sequential engine's
    /// landing, over a row of rings instead of one calendar.
    // detlint: hot
    fn land(&mut self, s: usize) -> Result<(), PolicyError> {
        let st = &mut self.shards[s];
        let deliver = |p| deliver(&mut st.band, &mut st.stats, p);
        transport::land(self.now.slot, &mut self.rings[s], &mut st.gather, deliver)
    }

    /// Transmission for shard `s`: send the head of every non-empty owned
    /// output queue (the behaviour of every policy in the paper).
    #[inline(never)]
    fn transmit(&mut self, s: usize) {
        let st = &mut self.shards[s];
        for j in st.band.cols().map(PortId::from) {
            if !st.band.output(j).is_empty() {
                let sent = st
                    .band
                    .transmit(&mut st.stats, self.now.slot, j, PacketPick::Greatest);
                sent.expect("invariant: a non-empty queue has a head");
            }
        }
    }

    // -- The coordinator's work between phases -------------------------------

    /// Refill the batch with `slot`'s arrivals from `source` and validate
    /// their ports — here, before any shard looks a packet's owner up by
    /// its input. `base` continues the source's consumed count, so global
    /// indices are trace-numbered and recorded admissions line up with the
    /// sequential engine's.
    #[inline(never)]
    fn refill(&mut self, source: &mut TraceSource<'_>, slot: SlotId) -> Result<(), PolicyError> {
        let batch = &mut self.batch;
        batch.packets.clear();
        batch.base = source.consumed();
        source.pull(slot, &mut batch.packets);
        for p in &batch.packets {
            mechanics::check_ports(self.cfg, p.input, p.output)?;
        }
        Ok(())
    }

    /// Refresh the output snapshot at the top of a scheduling cycle: every
    /// shard's output queues plus the delay line's in-flight packets.
    fn refresh_snapshot(&mut self) {
        let shards = &self.shards;
        let bands = |visit: &mut dyn FnMut(&QueueBand)| {
            for st in shards {
                visit(&st.band);
            }
        };
        let rings = self.rings.iter().flatten();
        self.snapshot
            .refresh(self.cfg.n_outputs, rings, None, bands);
    }

    /// The run's statistics so far: every shard's share, summed.
    fn merged_stats(&self) -> StatsRecorder {
        let mut merged = StatsRecorder::new(self.cfg.n_outputs);
        for st in &self.shards {
            merged.absorb(&st.stats);
        }
        merged
    }

    /// (transmitted, moved) sums for the progress check.
    fn progress(&self) -> (u64, u64) {
        let stats = self.shards.iter().map(|st| &st.stats);
        stats.fold((0, 0), |(tx, moved), s| {
            (tx + s.transmitted, moved + s.transferred)
        })
    }

    /// Packets still buffered (queues and delay line) from the books, in
    /// O(K): what arrived less what was transmitted or lost, summed over
    /// the shards' recorders first — one shard's books need not balance,
    /// since a packet arrives at its input's owner and leaves through its
    /// output's. The count half of [`Fabric::residual`], no queue walked.
    fn buffered(&self) -> u64 {
        let (mut arrived, mut gone) = (0, 0);
        for st in &self.shards {
            arrived += st.stats.arrived;
            gone += st.stats.transmitted + st.stats.losses.total_count();
        }
        arrived - gone
    }

    /// Visit, as `(output, value)`, every packet currently riding the
    /// delay line.
    fn for_each_in_flight(&self, f: impl FnMut(usize, Value)) {
        transport::for_each_in_flight(self.rings.iter().flatten(), None, f);
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
        for st in &self.shards {
            count += st.band.residual_count();
            value += st.band.residual_value();
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
        let bands = self.shards.iter().map(|st| &st.band);
        SwitchState::assemble(self.cfg.clone(), self.now.slot, bands)
    }

    /// Capture an [`EngineSnapshot`] of the run at the top of `slot`
    /// (before the opening phase lands) — byte-compatible with the
    /// sequential engine's capture of the same state: queue cells in
    /// stored order, ring contents converted back to `(land slot, dispatch
    /// metadata)` landings in canonical order, merged statistics, and the
    /// coordinator's live no-progress streak.
    fn capture(&self, fabric: &FabricSpec, slot: SlotId, idle_slots: u32) -> EngineSnapshot {
        // Capture runs before the slot opens, so the bucket due now is
        // still pending.
        let landings = SnapLanding::pending(slot, self.rings.iter().flatten());
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
            stats: self.merged_stats(),
            window: None,
            residual_count,
            residual_value,
        };
        // Shards own contiguous ascending bands, so visiting them in order
        // yields the checkpoint layout.
        for st in &self.shards {
            st.band.cells_out(&mut snap);
        }
        snap
    }

    /// Seed the freshly-built fabric from a checkpoint — the sharded half
    /// of [`Engine::restore`](crate::engine::Engine::restore): every owner
    /// shard receives its queue contents, the delay-line rings their
    /// in-flight packets (bucketed by landing slot), and shard 0 the
    /// cumulative statistics (per-shard stats are merged at the end, so
    /// where the history sits is immaterial). Returns the slot and
    /// no-progress streak the coordinator resumes at. Panics loudly on a
    /// snapshot that cannot be applied here: wrong geometry or fabric,
    /// fault-held packets or a stats window (the sharded engine supports
    /// neither), or a landing no run could have in flight (the sequential
    /// restore's rule).
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
        for st in &mut self.shards {
            if let Err(e) = st.band.refill(snap) {
                panic!("snapshot cannot be applied: {e}");
            }
        }
        self.shards[0].stats = snap.stats.clone();
        for l in &snap.landings {
            if let Err(e) = snap.check_landing(l, None) {
                panic!("snapshot cannot be applied: {e}");
            }
            let dest = self.partition.output_owner(l.landing.p.output as usize);
            let src = self.partition.input_owner(l.landing.p.input as usize);
            self.rings[dest][src].insert_pending(l.land_slot, l.landing);
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
            for st in &self.shards {
                if let Err(msg) = st.band.check_invariants() {
                    panic!("sharded engine invariant violated: {msg}");
                }
            }
        }
    }

    /// Per-slot invariant audit (debug builds only): merged-shard
    /// conservation against the fabric's residual, the sharded analogue of
    /// the sequential engine's audit — see [`crate::invariants`].
    fn audit_slot(&self) {
        if cfg!(debug_assertions) {
            let (residual_count, residual_value) = self.residual();
            let merged = self.merged_stats();
            if let Err(msg) =
                crate::invariants::check_conservation(&merged, residual_count, residual_value)
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
        let mut admits: Vec<(u64, bool)> = Vec::new();
        for st in &self.shards {
            admits.extend_from_slice(&st.admits);
        }
        admits.sort_unstable_by_key(|&(idx, _)| idx);
        let admissions = admits.into_iter().map(|(_, a)| a).collect();
        let merged = self.merged_stats();
        let report =
            mechanics::finish_report(merged, name, slots, self.residual(), &options.fabric);
        (report, final_state, admissions)
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
/// slot, each phase run shard by shard.
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
    options.fabric.assert_covers(cfg);
    let partition = Partition::new(options.shards, cfg.n_inputs, cfg.n_outputs);
    let k = partition.k();
    let slots = options.slots.unwrap_or_else(|| trace.arrival_slots());
    let mut fabric = Fabric::new(cfg, partition, &options);
    let mut workers: Vec<_> = (0..k)
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
            let buffered = fabric.buffered();
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
            fabric.batch.packets.clear();
        }
        for (s, worker) in workers.iter_mut().enumerate() {
            fabric.open(s, worker.as_mut())?;
        }

        for index in 0..cfg.speedup {
            fabric.now.index = index;
            fabric.refresh_snapshot();
            for (s, worker) in workers.iter_mut().enumerate() {
                fabric.propose(s, worker.as_mut());
            }
            merge.run(&mut fabric, &mut stamps)?;
            for s in 0..k {
                fabric.pop(s)?;
            }
            if fabric.land_after_cycle {
                for s in 0..k {
                    fabric.land(s)?;
                }
            }
        }

        for s in 0..k {
            fabric.transmit(s);
        }
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

    /// Two racks over `k` shards: intra-rack pairs deliver at once within
    /// a shard and, from k = 3 on, land after the cycle across shards;
    /// cross-rack pairs land two slots later.
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

    /// The post-cycle landing runs only where a pair across shard bands has
    /// latency 0 — never at K = 1, nor on two racks that line up with two
    /// bands.
    #[test]
    fn lands_after_the_cycle_only_for_latency_zero_across_bands() {
        let cfg = SwitchConfig::cioq(PORTS, 2, 2);
        let after_cycle = |k, spec| {
            let partition = Partition::new(k, PORTS, PORTS);
            delay_rings(&spec, &partition, &cfg).1
        };
        let racks = || FabricSpec::matrix(Topology::two_tier(PORTS, PORTS, 2, 0, 4).unwrap());
        assert!(!after_cycle(1, FabricSpec::uniform(0)));
        assert!(!after_cycle(1, racks()));
        assert!(!after_cycle(2, racks()));
        assert!(after_cycle(4, racks()));
        assert!(after_cycle(2, FabricSpec::uniform(0)));
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
    fn worker_panic_surfaces_identically_from_any_party() {
        for bad in [0, K - 1] {
            let msg = run_faulty(Fault::WorkerPanic { bad })
                .expect_err("the worker's panic must surface");
            assert_eq!(msg, format!("boom in shard {bad}"));
        }
    }

    /// A per-packet rule's error in the last shard's phase returns through
    /// `?` as the run's error.
    #[test]
    fn policy_error_from_the_last_group_matches_the_unthreaded_run() {
        let err = run_faulty(Fault::AcceptWhenFull { bad: K - 1 })
            .expect("no panic")
            .expect_err("accepting into a full queue is a policy error");
        assert!(matches!(err, PolicyError::QueueFull { kind: "input", .. }));
    }

    /// An illegal merge is the coordinator's error, returned as the run's.
    #[test]
    fn coordinator_error_releases_every_spawned_party() {
        let err = run_faulty(Fault::MergeDuplicatesInput)
            .expect("no panic")
            .expect_err("a reused input must be rejected");
        assert!(matches!(err, PolicyError::DuplicateInput { .. }));
    }
}
