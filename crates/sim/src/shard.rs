//! Sharded slot engine for CIOQ switches: the N ports split into K
//! contiguous shards, each shard running its share of every phase — the K
//! shards grouped onto T ≤ min(K, cores) barrier parties, the calling
//! thread being party 0 — with cross-shard traffic batched per cycle and
//! reconciled deterministically. Buffered crossbars run on the sequential
//! [`Engine`] only: their policies decide each port on its own, with no
//! matching, so a cycle has too little work to split. So does PG: its
//! matching is one global weight order, which a merge would run whole on
//! one party while the others wait.
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
//! coordinator publishes a cycle's merged transfer set whole, in one
//! cell; each row owner pops from it the transfers of its own rows. A
//! transfer whose input row and output column live on different shards is
//! *cross-shard*: the row owner dispatches the packet into the
//! `(column owner, row owner)` delay ring — the sequential engine's
//! `DelayCalendar`, at the pair's latency, 0 included — and the column
//! owner lands it, after the cycle at latency 0 and as a later slot opens
//! otherwise. A policy error travels through `Comms::ok` to a sticky cell
//! instead of `?`.
//!
//! ## Bit-identity
//!
//! The sharded engine is **bit-identical** to the sequential [`Engine`]
//! (`tests/sharded_equivalence.rs` proves it per cycle): every phase runs
//! between barriers, so shards only ever read frozen state; per-shard
//! proposals are combined by a *deterministic merge* that resolves contended
//! crosspoints in fixed port order (ascending input: GM's lexicographic
//! greedy); and all cross-shard batches are per-queue unique within a
//! cycle, so apply order cannot influence the result. Thread scheduling
//! therefore never changes a single decision — only how long the slot
//! takes.
//!
//! ## Where the two engines meet
//!
//! `run_cioq_sharded_on` owns the slot: the preamble (partition,
//! channels, workers, checkpoint cadence), the opening phase, the
//! scheduling cycles, transmission, audit and the finish; `worker_phase`
//! runs each phase's share for one shard. In the opening phase, between
//! barriers the coordinator pulls the slot's arrivals from the trace
//! cursor into one pooled batch and validates their ports; then every
//! shard lands the ring bucket due now and admits, from that batch, the
//! packets of the rows it owns. The two engines meet in the band:
//! admitting, popping toward the fabric, delivery into `Q_j`,
//! transmission, residual, checkpoint cells out and in, and the structural
//! check are `QueueBand` methods both call;
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
//! one slot loop), the error transport and the fault layer, which only the
//! sequential engine has.
//!
//! [`Engine`]: crate::engine::Engine

use crate::mechanics::{self, PortStamps};
use crate::policy::{Admission, PacketPick, PolicyError, Transfer};
use crate::record::RecordedSchedule;
use crate::snapshot::{EngineSnapshot, SnapLanding};
use crate::source::TraceSource;
use crate::state::{QueueBand, SwitchState, SwitchView};
use crate::stats::{RunReport, StatsRecorder};
use crate::sync::SpinBarrier;
use crate::trace::Trace;
use crate::transport::{self, DelayCalendar, FabricSpec, InFlightPacket, Landing, OutputSnapshot};
use cioq_model::{Cycle, Packet, PortId, SlotId, SwitchConfig, Value};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

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

/// How many barrier parties the K shards execute on within a slot. A
/// party runs a contiguous group of shards (shard `s` belongs to party
/// `⌊s·T/K⌋`) in shard order; the calling thread is party 0, so T parties
/// cost T − 1 spawned threads. Phases touch only per-shard state and
/// single-writer cells, so T never shows in any result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// T = min(K, `available_parallelism()`): never more parties than
    /// cores, so no party ever waits for a descheduled spinner.
    #[default]
    Auto,
    /// T = 1: every shard's phase work runs on the calling thread, with
    /// no thread spawned and no barrier crossed.
    Inline,
    /// T = max(`Auto`'s T, min(K, 2)): as `Auto`, but at least two
    /// parties whenever K ≥ 2, so the barrier protocol is exercised even
    /// on a one-core host.
    Threads,
}

/// Options for a sharded run (the sharded analogue of
/// [`RunOptions`](crate::engine::RunOptions)).
#[derive(Debug, Clone)]
pub struct ShardedOptions {
    /// Number of shards K ≥ 1.
    pub shards: usize,
    /// Execution strategy.
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

    /// Barrier parties T the run executes on (see [`ExecMode`]).
    fn parties(&self) -> usize {
        if self.mode == ExecMode::Inline || self.shards == 1 {
            return 1;
        }
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let floor = if self.mode == ExecMode::Threads { 2 } else { 1 };
        self.shards.min(cores.max(floor))
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
/// and the snapshot, so the merge step costs no locks and no cache-missing
/// queue reads.
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
    /// transfers in the exact order the sequential policy would: the engine
    /// publishes `out` as one set, and every row owner pops its own rows'
    /// transfers from it in that order.
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
    /// construction (one lock, no whole-fabric view): `shard.changes()`
    /// holds exactly the owned queues dirtied since the previous proposal,
    /// and `outputs` is the pre-cycle output snapshot, the same one
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
// Internal shared state
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
}

/// All cross-shard communication channels plus run-wide control state.
struct Comms {
    /// Per-shard CIOQ proposal payloads.
    candidates: Vec<Mutex<CandidateSet>>,
    /// The cycle's CIOQ transfer set, in merge order: swapped in by the
    /// coordinator under one write lock, popped by every row owner.
    transfers: RwLock<Vec<Transfer>>,
    /// The packets between bands: one delay ring per (destination, source)
    /// shard pair, written by the source's pop phase, landed by the
    /// destination. Each is a [`DelayCalendar`] — the sequential engine's
    /// delay line — of *heterogeneous* depth, the largest per-pair latency
    /// between a source-owned input and a destination-owned output, so a
    /// shard pair whose racks sit close never pays for the fabric's worst
    /// path. The destination lands the bucket due at slot `t` as `t` opens,
    /// before the slot's dispatches refill it, and again after each cycle
    /// when latency-0 dispatches reach it. Packets keep their
    /// dispatch time: with per-pair latencies one landing slot can gather
    /// transfers dispatched in *different* slots (and up to ŝ per output
    /// within a slot), and with preemption their per-queue apply order
    /// matters (see [`land_phase`]).
    rings: Vec<Vec<Mutex<DelayCalendar>>>,
    /// Per-pair fabric latencies.
    spec: FabricSpec,
    /// Largest per-pair latency (0 = immediate fabric).
    horizon: SlotId,
    /// Whether some pair across shard bands has latency 0, so rings take
    /// dispatches that land within their own cycle: the landing phase then
    /// also runs after every cycle. Never at K = 1, nor where the racks of
    /// a two-tier fabric line up with the bands.
    land_after_cycle: bool,
    /// The cycle's output snapshot, refreshed at its top.
    snapshot: RwLock<OutputSnapshot>,
    /// Current slot / cycle broadcast.
    slot: AtomicU64,
    cycle: AtomicU32,
    /// First policy error (sticky).
    error: Mutex<Option<PolicyError>>,
    /// First worker panic message (threaded mode only).
    panic: Mutex<Option<String>>,
    failed: AtomicBool,
    record: bool,
}

impl Comms {
    fn new(
        k: usize,
        record: bool,
        spec: FabricSpec,
        partition: &Partition,
        cfg: &SwitchConfig,
    ) -> Self {
        let speedup = cfg.speedup.max(1) as usize;
        // Heterogeneous ring depths: ring (dest, src) only needs buckets
        // for the worst latency between a src-owned input and a dest-owned
        // output, and its best one says whether it carries latency 0. One
        // pass at run start; the slot loop never recomputes.
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
            Mutex::new(DelayCalendar::with_reserve(worst, per_bucket))
        };
        let rings = (0..k)
            .map(|dest| (0..k).map(|src| ring(dest, src)).collect())
            .collect();
        Comms {
            candidates: (0..k)
                .map(|_| Mutex::new(CandidateSet::default()))
                .collect(),
            // A matching has at most one transfer per port on either side.
            transfers: RwLock::new(Vec::with_capacity(cfg.n_inputs.min(cfg.n_outputs))),
            rings,
            horizon: spec.max_delay(),
            spec,
            land_after_cycle,
            snapshot: RwLock::new(OutputSnapshot::default()),
            slot: AtomicU64::new(0),
            cycle: AtomicU32::new(0),
            error: Mutex::new(None),
            panic: Mutex::new(None),
            failed: AtomicBool::new(false),
            record,
        }
    }

    fn fail(&self, e: PolicyError) {
        let mut slot = lock(&self.error);
        if slot.is_none() {
            *slot = Some(e);
        }
        self.failed.store(true, Ordering::Release);
    }

    /// Error transport of the worker phases: unwrap a per-packet rule's
    /// result, recording the error (and answering `None`) if it failed.
    fn ok<T>(&self, result: Result<T, PolicyError>) -> Option<T> {
        result.map_err(|e| self.fail(e)).ok()
    }

    /// The pre-cycle output snapshot (refreshed by the coordinator between
    /// phases, read by proposals and merges).
    fn outputs(&self) -> RwLockReadGuard<'_, OutputSnapshot> {
        read(&self.snapshot)
    }

    fn cycle_now(&self) -> Cycle {
        Cycle {
            slot: self.slot.load(Ordering::Relaxed),
            index: self.cycle.load(Ordering::Relaxed),
        }
    }
}

/// Lock helpers that ignore poisoning: a panicking worker already records
/// its payload; subsequent phases must still be able to shut down cleanly.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Rewrite a pooled per-shard cell: take the buffer out of its mutex (so
/// the lock is not held while a policy runs), let `fill` rewrite it, put
/// it back.
fn rewrite_cell<T: Default>(cell: &Mutex<T>, fill: impl FnOnce(&mut T)) {
    let mut buf = std::mem::take(&mut *lock(cell));
    fill(&mut buf);
    *lock(cell) = buf;
}

fn read<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(|e| e.into_inner())
}

fn write<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(|e| e.into_inner())
}

/// The whole fabric: per-shard states behind phase-disciplined locks plus
/// the communication channels.
struct Fabric<'a> {
    cfg: &'a SwitchConfig,
    partition: Partition,
    shards: Vec<RwLock<ShardState>>,
    /// The current slot's arrivals, whole and in arrival order. The
    /// coordinator refills it from the trace between barriers (workers
    /// parked, so the write lock is uncontended), or clears it past the
    /// arrival window; in [`PH_OPEN`] every shard reads it and admits the
    /// packets of its own rows.
    batch: RwLock<SlotBatch>,
    comms: Comms,
}

/// One slot's arrivals, pooled across slots. Packet `packets[o]` has
/// global index `base + o` — its position in σ, which is what recorded
/// admissions are keyed by.
#[derive(Default)]
struct SlotBatch {
    base: u64,
    packets: Vec<Packet>,
}

impl Fabric<'_> {
    /// Shard `shard`'s view: its band in `state`, scheduling against the
    /// cycle's snapshot held by `outputs`.
    fn shard_view<'g>(
        &'g self,
        shard: usize,
        state: &'g ShardState,
        outputs: &'g OutputSnapshot,
    ) -> SwitchView<'g> {
        let slot = self.comms.slot.load(Ordering::Relaxed);
        SwitchView::new(self.cfg, &state.band, outputs, slot, shard)
    }

    /// The run's statistics so far: every shard's share, summed.
    fn merged_stats(&self) -> StatsRecorder {
        let mut merged = StatsRecorder::new(self.cfg.n_outputs);
        for l in &self.shards {
            merged.absorb(&read(l).stats);
        }
        merged
    }

    /// (transmitted, moved) sums for the progress check.
    fn progress(&self) -> (u64, u64) {
        let mut transmitted = 0;
        let mut moved = 0;
        for l in &self.shards {
            let st = read(l);
            transmitted += st.stats.transmitted;
            moved += st.stats.transferred;
        }
        (transmitted, moved)
    }

    /// Packets still buffered (queues and delay line) from the books, in
    /// O(K): what arrived less what was transmitted or lost, summed over
    /// the shards' recorders first — one shard's books need not balance,
    /// since a packet arrives at its input's owner and leaves through its
    /// output's. The count half of [`Fabric::residual`], no queue walked.
    fn buffered(&self) -> u64 {
        let (mut arrived, mut gone) = (0, 0);
        for l in &self.shards {
            let stats = &read(l).stats;
            arrived += stats.arrived;
            gone += stats.transmitted + stats.losses.total_count();
        }
        arrived - gone
    }

    /// Visit, as `(output, value)`, every packet currently riding the
    /// delay line (coordinator only, between phases).
    fn for_each_in_flight(&self, f: impl FnMut(usize, Value)) {
        let rings = self.comms.rings.iter().flatten().map(lock);
        transport::for_each_in_flight(rings, None, f);
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
        for l in &self.shards {
            let st = read(l);
            count += st.band.residual_count();
            value += st.band.residual_value();
        }
        self.for_each_in_flight(|_, v| {
            count += 1;
            value += v as u128;
        });
        (count, value)
    }

    /// Refresh the output snapshot at the top of a scheduling cycle
    /// (coordinator only, between phases): every shard's output queues
    /// plus the delay line's in-flight packets.
    fn refresh_snapshot(&self) {
        let rings = self.comms.rings.iter().flatten().map(lock);
        let bands = |visit: &mut dyn FnMut(&QueueBand)| {
            for l in &self.shards {
                visit(&read(l).band);
            }
        };
        write(&self.comms.snapshot).refresh(self.cfg.n_outputs, rings, None, bands);
    }

    /// Assemble the global [`SwitchState`] (tests / capture): the shards'
    /// bands, concatenated.
    fn assemble_state(&self) -> SwitchState {
        let slot = self.comms.slot.load(Ordering::Relaxed);
        let shards: Vec<_> = self.shards.iter().map(read).collect();
        SwitchState::assemble(self.cfg.clone(), slot, shards.iter().map(|st| &st.band))
    }
}

// ---------------------------------------------------------------------------
// Phase identifiers
// ---------------------------------------------------------------------------

/// Every slot's first phase: each shard lands its rings' bucket due now,
/// then admits its rows from the batch — landing writes only owned `Q_j`,
/// admission only owned `Q_ij`, each in the sequential engine's order.
const PH_OPEN: u8 = 0;
/// Every shard proposes its candidates for the cycle's merge.
const PH_PROPOSE: u8 = 1;
/// Row owners pop their transfers from the cycle's one published set.
const PH_APPLY_POP: u8 = 2;
const PH_TRANSMIT: u8 = 3;
const PH_EXIT: u8 = 4;
/// The post-cycle landing, run only when `Comms::land_after_cycle`: each
/// column owner lands its rings' latency-0 dispatches of the cycle.
const PH_LAND: u8 = 5;

// ---------------------------------------------------------------------------
// Worker-side phase execution
// ---------------------------------------------------------------------------

/// Arrival half of [`PH_OPEN`] for shard `s`: admit, from the slot's one
/// batch, the packets of the rows this shard owns. Admission is row-local
/// in every policy of the paper, so the shards need no distribution step —
/// each skips what another owns, and arrival order within a row is the
/// batch's.
fn arrival_phase(
    s: usize,
    fabric: &Fabric<'_>,
    mut admit: impl FnMut(&SwitchView<'_>, &Packet) -> Admission,
) {
    let batch = read(&fabric.batch);
    let outputs = fabric.comms.outputs();
    let mut st = write(&fabric.shards[s]);
    let st = &mut *st;
    let rows = st.band.rows();
    for (idx, p) in (batch.base..).zip(&batch.packets) {
        if !rows.contains(&p.input.index()) {
            continue;
        }
        let decision = admit(&fabric.shard_view(s, st, &outputs), p);
        if fabric.comms.record {
            st.admits
                .push((idx, !matches!(decision, Admission::Reject)));
        }
        let admitted = st.band.admit(&mut st.stats, decision, p);
        if fabric.comms.ok(admitted).is_none() {
            break;
        }
    }
}

/// Transmission phase for shard `s`: send the head of every non-empty owned
/// output queue (the behaviour of every policy in the paper).
fn transmit_phase(s: usize, fabric: &Fabric<'_>) {
    let slot = fabric.comms.slot.load(Ordering::Relaxed);
    let mut st = write(&fabric.shards[s]);
    let st = &mut *st;
    for j in st.band.cols().map(PortId::from) {
        if !st.band.output(j).is_empty() {
            let sent = st
                .band
                .transmit(&mut st.stats, slot, j, PacketPick::Greatest);
            sent.expect("invariant: a non-empty queue has a head");
        }
    }
}

/// Insert one packet off the fabric into the owning shard's output queue.
fn deliver(st: &mut ShardState, p: InFlightPacket) -> Result<(), PolicyError> {
    // The sharded engine has no fault layer, so a full queue never drops.
    st.band.deliver(&mut st.stats, false, p)
}

/// Landing for shard `s` ([`PH_LAND`], and [`PH_OPEN`]'s first half): land
/// the current slot's bucket of every (s, src) ring into the owned output
/// queues, in the canonical landing order (see `transport::land`) — the
/// sequential engine's landing, over a row of rings instead of one
/// calendar. `None` if a delivery failed.
// detlint: hot
fn land_phase(s: usize, fabric: &Fabric<'_>, gather: &mut Vec<Landing>) -> Option<()> {
    let slot = fabric.comms.slot.load(Ordering::Relaxed);
    let mut st = write(&fabric.shards[s]);
    let rings = fabric.comms.rings[s].iter().map(lock);
    let landed = transport::land(slot, rings, gather, |p| deliver(&mut st, p));
    fabric.comms.ok(landed)
}

/// One shard's worker plus its pooled landing gather buffer.
struct WorkerCtx {
    worker: Box<dyn CioqShardWorker>,
    /// Reused gather buffer for the landing phase.
    land_scratch: Vec<Landing>,
}

/// Pooled per-party guard buffer: the pop phase locks a row of delay-ring
/// locks each cycle, and collecting the guards into a fresh `Vec` every
/// time was steady-state allocation. Guards never cross a barrier (the
/// phase clears the buffer before returning), so only the capacity
/// persists. One lives per party — created inside its thread, because lock
/// guards make the type `!Send`.
#[derive(Default)]
struct PhaseScratch<'f> {
    /// Per-destination delay-ring guards.
    ring_boxes: Vec<MutexGuard<'f, DelayCalendar>>,
}

/// The pop-and-route step of a scheduling cycle: shard `s` pops, from the
/// cycle's published set, the transfers of its own rows (`Q_ij → fabric`),
/// and hands each packet to the fabric — delivered at once, as the
/// sequential engine's is, when its pair is at latency 0 and this shard
/// owns its output, and otherwise dispatched into the column owner's ring
/// at its latency.
// detlint: hot
fn apply_pop_phase<'f>(s: usize, fabric: &'f Fabric<'_>, scr: &mut PhaseScratch<'f>) {
    let comms = &fabric.comms;
    let cycle = comms.cycle_now();
    let set = read(&comms.transfers);
    let mut st = write(&fabric.shards[s]);
    let st = &mut *st;
    // The proposal consumed the change log; everything from here on
    // accumulates for the next proposal (sequential flush point).
    st.band.flush();
    // Each (dest, src) ring has exactly one writer per phase (this
    // worker), so holding the locks for the whole pop loop is
    // contention-free. The guards land in the pooled scratch buffer
    // (cleared below, before the barrier).
    scr.ring_boxes
        .extend(comms.rings.iter().map(|cells| lock(&cells[s])));
    let rows = st.band.rows();
    for t in set.iter().filter(|t| rows.contains(&t.input.index())) {
        let Some(p) = comms.ok(st.band.pop_transfer(t)) else {
            break;
        };
        let dest = fabric.partition.output_owner(p.output as usize);
        let d = comms.spec.delay(PortId(p.input), PortId(p.output));
        if d == 0 && dest == s {
            // Both endpoints owned: inserts touch `Q_j`, pops touch `Q_ij`
            // — the families are disjoint, so early delivery cannot
            // perturb any pop.
            if comms.ok(deliver(st, p)).is_none() {
                break;
            }
        } else {
            // Every positive-latency transfer — same-shard included, so
            // results are partition-independent — and every cross-shard
            // one lands `d` slots later (`d = 0`: after the cycle).
            scr.ring_boxes[dest].dispatch(cycle.slot, cycle.index, d, p);
        }
    }
    scr.ring_boxes.clear();
}

/// Worker phase dispatcher: shard `s`'s share of phase `ph`.
// detlint: hot
fn worker_phase<'f>(
    ph: u8,
    s: usize,
    ctx: &mut WorkerCtx,
    fabric: &'f Fabric<'_>,
    scr: &mut PhaseScratch<'f>,
) {
    if fabric.comms.failed.load(Ordering::Acquire) {
        return;
    }
    match ph {
        PH_OPEN => {
            if land_phase(s, fabric, &mut ctx.land_scratch).is_some() {
                let worker = &mut ctx.worker;
                arrival_phase(s, fabric, |view, p| worker.admit(view, p));
            }
        }
        PH_PROPOSE => {
            let st = read(&fabric.shards[s]);
            let snap = fabric.comms.outputs();
            let cycle = fabric.comms.cycle_now();
            let view = fabric.shard_view(s, &st, &snap);
            rewrite_cell(&fabric.comms.candidates[s], |out| {
                out.aux.clear();
                ctx.worker.propose(&view, &snap, cycle, out);
            });
        }
        PH_APPLY_POP => apply_pop_phase(s, fabric, scr),
        PH_LAND => {
            land_phase(s, fabric, &mut ctx.land_scratch);
        }
        PH_TRANSMIT => transmit_phase(s, fabric),
        _ => unreachable!("phase {ph} is not a worker phase"),
    }
}

// ---------------------------------------------------------------------------
// Driver: K shards on T barrier parties, the caller being party 0
// ---------------------------------------------------------------------------

/// Run the slot loop `coordinate` over `workers` (one per shard) on
/// `threads` barrier parties (clamped to `1..=K`). Party `p` owns the
/// contiguous shards with `⌊s·T/K⌋ = p` and runs their phase bodies in
/// shard order with one scratch. The calling thread is party 0: each
/// `do_phase` publishes the phase, crosses the barrier, runs its own
/// group, crosses again, and is then alone for the serial work between
/// phases. T = 1 is the same loop with nothing spawned, no scope entered
/// and a barrier that returns at once.
fn drive<W: Send, S>(
    threads: usize,
    comms: &Comms,
    mut workers: Vec<W>,
    mk_scratch: impl Fn() -> S + Sync,
    worker_phase: impl Fn(u8, usize, &mut W, &mut S) + Sync,
    coordinate: impl FnOnce(&mut dyn FnMut(u8) -> Result<(), PolicyError>) -> Result<(), PolicyError>,
) -> Result<(), PolicyError> {
    let k = workers.len();
    let t = threads.clamp(1, k);
    // First shard of party `p`: its group is `first(p)..first(p + 1)`.
    let first = move |p: usize| (p * k).div_ceil(t);
    let phase = AtomicU8::new(PH_EXIT);
    // Spin-then-park: phases are typically shorter than a condvar
    // park/unpark round trip, so the barrier spins briefly before
    // sleeping (see [`SpinBarrier`]).
    let barrier = SpinBarrier::new(t);
    // One party's share of a phase. A panicking worker is recorded, not
    // propagated, so the party still reaches the closing barrier.
    let run_group = |ph: u8, p: usize, group: &mut [W], scratch: &mut S| {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for (s, w) in (first(p)..).zip(group) {
                worker_phase(ph, s, w, scratch);
            }
        }));
        if let Err(payload) = result {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "worker panicked".to_string());
            let mut slot = lock(&comms.panic);
            if slot.is_none() {
                *slot = Some(msg);
            }
            comms.failed.store(true, Ordering::Release);
        }
    };
    let (own, mut rest) = workers.split_at_mut(first(1));
    // Party 0: the slot loop on the calling thread, then the exit phase.
    let lead = || {
        let mut scratch = mk_scratch();
        let mut do_phase = |ph: u8| -> Result<(), PolicyError> {
            phase.store(ph, Ordering::Release);
            barrier.wait();
            run_group(ph, 0, own, &mut scratch);
            barrier.wait();
            if let Some(msg) = lock(&comms.panic).take() {
                panic!("sharded worker panicked: {msg}");
            }
            if comms.failed.load(Ordering::Acquire) {
                return Err(lock(&comms.error)
                    .take()
                    .expect("failed flag implies a stored error"));
            }
            Ok(())
        };
        // Catch coordinator panics so the spawned parties can still be
        // released (otherwise the scope would deadlock on join).
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| coordinate(&mut do_phase)));
        phase.store(PH_EXIT, Ordering::Release);
        barrier.wait();
        match result {
            Ok(r) => r,
            Err(payload) => std::panic::resume_unwind(payload),
        }
    };
    if t == 1 {
        // Nobody to spawn — and a `thread::scope` entered regardless is
        // not free: it put 1.5 ms on a K = 1 run's first rep over a fresh
        // trace (`setup_s` of `cioq_gm_uniform_shard1`, 12.7 → 14.3 ms).
        return lead();
    }
    std::thread::scope(|scope| {
        for p in 1..t {
            let (group, tail) = std::mem::take(&mut rest).split_at_mut(first(p + 1) - first(p));
            rest = tail;
            let (phase, barrier, run_group, mk_scratch) =
                (&phase, &barrier, &run_group, &mk_scratch);
            scope.spawn(move || {
                // Built inside the thread: the scratch holds lock guards
                // between phase entry and exit, so its type is `!Send`.
                let mut scratch = mk_scratch();
                loop {
                    barrier.wait();
                    let ph = phase.load(Ordering::Acquire);
                    if ph == PH_EXIT {
                        break;
                    }
                    run_group(ph, p, group, &mut scratch);
                    barrier.wait();
                }
            });
        }
        lead()
    })
}

// ---------------------------------------------------------------------------
// Coordinator helpers
// ---------------------------------------------------------------------------

/// Capture an [`EngineSnapshot`] of the sharded run at the top of `slot`
/// (coordinator only, between barriers, before [`PH_OPEN`] lands) —
/// byte-compatible with the sequential engine's capture of the same
/// state: queue cells in stored order, ring contents converted back to
/// `(land slot, dispatch metadata)` landings in canonical order, merged
/// statistics, and the coordinator's live no-progress streak.
fn capture_sharded(
    fabric: &Fabric<'_>,
    options: &ShardedOptions,
    slot: SlotId,
    idle_slots: u32,
) -> EngineSnapshot {
    // Capture runs before the slot opens, so the bucket due now is still
    // pending.
    let landings = SnapLanding::pending(slot, fabric.comms.rings.iter().flatten().map(lock));
    let (residual_count, residual_value) = fabric.residual();
    let mut snap = EngineSnapshot {
        config: fabric.cfg.clone(),
        fabric: options.fabric.clone(),
        slot,
        idle_slots,
        input_queues: Vec::new(),
        crossbar_queues: None,
        output_queues: Vec::new(),
        landings,
        held: Vec::new(),
        stats: fabric.merged_stats(),
        window: None,
        residual_count,
        residual_value,
    };
    // Shards own contiguous ascending bands, so visiting them in order
    // yields the checkpoint layout.
    for l in &fabric.shards {
        read(l).band.cells_out(&mut snap);
    }
    snap
}

/// Seed a freshly-built fabric from a checkpoint — the sharded half of
/// [`Engine::restore`](crate::engine::Engine::restore): every owner shard
/// receives its queue contents, the delay-line rings their in-flight
/// packets (bucketed by landing slot), and shard 0 the cumulative
/// statistics (per-shard stats are merged at the end, so where the
/// history sits is immaterial). Returns the slot and no-progress streak
/// the coordinator resumes at. Panics loudly on a snapshot that cannot
/// be applied here: wrong geometry or fabric, fault-held packets or a
/// stats window (the sharded engine supports neither), or a landing no
/// run could have in flight (the sequential restore's rule).
fn seed_from_snapshot(
    fabric: &Fabric<'_>,
    snap: &EngineSnapshot,
    options: &ShardedOptions,
) -> (SlotId, u32) {
    assert_eq!(
        &snap.config, fabric.cfg,
        "snapshot was taken under a different switch config"
    );
    assert_eq!(
        snap.fabric, options.fabric,
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
    for l in &fabric.shards {
        if let Err(e) = write(l).band.refill(snap) {
            panic!("snapshot cannot be applied: {e}");
        }
    }
    write(&fabric.shards[0]).stats = snap.stats.clone();
    for l in &snap.landings {
        if let Err(e) = snap.check_landing(l, None) {
            panic!("snapshot cannot be applied: {e}");
        }
        let dest = fabric.partition.output_owner(l.landing.p.output as usize);
        let src = fabric.partition.input_owner(l.landing.p.input as usize);
        lock(&fabric.comms.rings[dest][src]).insert_pending(l.land_slot, l.landing);
    }
    fabric.comms.slot.store(snap.slot, Ordering::Relaxed);
    // The restored-residual invariant (see `crate::invariants`): what was
    // seeded must account for exactly what the checkpoint recorded.
    if let Err(msg) = crate::invariants::check_restored_residual(fabric.residual(), snap) {
        panic!("snapshot cannot be applied: {msg}");
    }
    (snap.slot, snap.idle_slots)
}

fn finish_run(
    fabric: &Fabric<'_>,
    name: String,
    slots: SlotId,
    options: &ShardedOptions,
) -> (RunReport, Option<SwitchState>, Vec<bool>) {
    let final_state = options.capture_final_state.then(|| fabric.assemble_state());
    let mut admits: Vec<(u64, bool)> = Vec::new();
    for l in &fabric.shards {
        admits.extend_from_slice(&read(l).admits);
    }
    admits.sort_unstable_by_key(|&(idx, _)| idx);
    let admissions = admits.into_iter().map(|(_, a)| a).collect();
    let merged = fabric.merged_stats();
    let report = mechanics::finish_report(merged, name, slots, fabric.residual(), &options.fabric);
    (report, final_state, admissions)
}

fn post_slot_validate(fabric: &Fabric<'_>, options: &ShardedOptions) {
    if options.validate {
        for l in &fabric.shards {
            if let Err(msg) = read(l).band.check_invariants() {
                panic!("sharded engine invariant violated: {msg}");
            }
        }
    }
}

/// Per-slot invariant audit (debug builds only): merged-shard conservation
/// against the fabric's residual, the sharded analogue of the sequential
/// engine's audit — see [`crate::invariants`]. Called by the coordinator
/// between barriers, when no worker mutates shard state.
fn audit_sharded_slot(fabric: &Fabric<'_>) {
    if cfg!(debug_assertions) {
        let (residual_count, residual_value) = fabric.residual();
        let merged = fabric.merged_stats();
        if let Err(msg) =
            crate::invariants::check_conservation(&merged, residual_count, residual_value)
        {
            let slot = fabric.comms.slot.load(Ordering::Relaxed);
            panic!("sharded engine invariant violated at slot {slot}: {msg}");
        }
    }
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// Refill the fabric's batch with `slot`'s arrivals from `source`
/// (coordinator only, between barriers) and validate their ports — here,
/// before any shard looks a packet's owner up by its input. `base`
/// continues the source's consumed count, so global indices are
/// trace-numbered and recorded admissions line up with the sequential
/// engine's.
fn refill(
    fabric: &Fabric<'_>,
    source: &mut TraceSource<'_>,
    slot: SlotId,
) -> Result<(), PolicyError> {
    let mut batch = write(&fabric.batch);
    batch.packets.clear();
    batch.base = source.consumed();
    source.pull(slot, &mut batch.packets);
    for p in &batch.packets {
        mechanics::check_ports(fabric.cfg, p.input, p.output)?;
    }
    Ok(())
}

/// Run a sharded CIOQ policy over a recorded trace.
///
/// Produces a [`RunReport`] field-for-field equal to
/// [`run_cioq`](crate::engine::run_cioq) with the sequential twin of
/// `policy`, for every shard count and execution mode.
pub fn run_cioq_sharded(
    cfg: &SwitchConfig,
    policy: &dyn CioqShardPolicy,
    trace: &Trace,
    options: ShardedOptions,
) -> Result<ShardedOutcome, PolicyError> {
    run_cioq_sharded_on(cfg, policy, trace, options.parties(), options)
}

/// The sharded slot loop — §1.3's slot — on `threads` barrier parties.
fn run_cioq_sharded_on(
    cfg: &SwitchConfig,
    policy: &dyn CioqShardPolicy,
    trace: &Trace,
    threads: usize,
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
    let comms = Comms::new(k, options.record, options.fabric.clone(), &partition, cfg);
    let fabric = Fabric {
        cfg,
        shards: (0..k)
            .map(|s| {
                let (rows, cols) = (partition.input_range(s), partition.output_range(s));
                RwLock::new(ShardState {
                    band: QueueBand::new(cfg, rows, cols),
                    stats: StatsRecorder::new(cfg.n_outputs),
                    admits: Vec::new(),
                })
            })
            .collect(),
        partition,
        batch: RwLock::default(),
        comms,
    };
    let speedup = cfg.speedup.max(1) as usize;
    let workers: Vec<WorkerCtx> = (0..k)
        .map(|s| {
            // A landing gathers at most one transfer per owned output per
            // cycle, from `speedup` cycles of up to `horizon` dispatch slots.
            let cols = fabric.partition.output_range(s).len();
            let land_cap = cols * speedup * fabric.comms.horizon.max(1) as usize;
            WorkerCtx {
                worker: policy.new_worker(s, &fabric.partition, cfg),
                land_scratch: Vec::with_capacity(land_cap),
            }
        })
        .collect();
    let (start_slot, start_idle) = options
        .resume_from
        .as_ref()
        .map_or((0, 0), |snap| seed_from_snapshot(&fabric, snap, &options));
    // Positioned where the run starts: slot 0, or the checkpoint's slot.
    let mut source = TraceSource::resume_at(trace, start_slot);

    let land_after_cycle = fabric.comms.land_after_cycle;
    let mut merge = Merge {
        policy,
        transfers: Vec::with_capacity(cfg.n_inputs.min(cfg.n_outputs)),
        scratch: MergeScratch::default(),
        sets: (0..k).map(|_| CandidateSet::default()).collect(),
        recorded: Vec::new(),
    };
    let mut final_slot: SlotId = 0;
    let mut checkpoints: Vec<EngineSnapshot> = Vec::new();

    drive(
        threads,
        &fabric.comms,
        workers,
        PhaseScratch::default,
        |ph, s, w, scr| worker_phase(ph, s, w, &fabric, scr),
        |do_phase| {
            let mut slot: SlotId = start_slot;
            let mut idle_slots = start_idle;
            let mut stamps = PortStamps::default();
            loop {
                let in_arrival_window = slot < slots;
                if !in_arrival_window {
                    // In-flight packets always land (and count as
                    // progress), so the idle cutoff waits for the fabric.
                    let buffered = fabric.buffered();
                    debug_assert_eq!(buffered, fabric.residual().0);
                    let done = !options.drain
                        || buffered == 0
                        || (idle_slots >= 2 && fabric.in_flight_total() == 0);
                    if done {
                        break;
                    }
                }
                fabric.comms.slot.store(slot, Ordering::Relaxed);
                if let Some(every) = options.checkpoint_every {
                    if slot > 0 && slot.is_multiple_of(every) {
                        checkpoints.push(capture_sharded(&fabric, &options, slot, idle_slots));
                    }
                }
                let (tx_before, moved_before) = fabric.progress();

                if in_arrival_window {
                    refill(&fabric, &mut source, slot)?;
                } else {
                    write(&fabric.batch).packets.clear();
                }
                do_phase(PH_OPEN)?;

                for s in 0..cfg.speedup {
                    fabric.comms.cycle.store(s, Ordering::Relaxed);
                    fabric.refresh_snapshot();
                    do_phase(PH_PROPOSE)?;
                    merge.publish(&fabric, &mut stamps)?;
                    do_phase(PH_APPLY_POP)?;
                    if land_after_cycle {
                        do_phase(PH_LAND)?;
                    }
                }

                do_phase(PH_TRANSMIT)?;
                post_slot_validate(&fabric, &options);
                audit_sharded_slot(&fabric);

                let (tx_after, moved_after) = fabric.progress();
                let progressed = tx_after != tx_before || moved_after != moved_before;
                idle_slots = if progressed { 0 } else { idle_slots + 1 };
                slot += 1;
            }
            final_slot = slot;
            Ok(())
        },
    )?;

    let (report, final_state, admissions) =
        finish_run(&fabric, policy.name().to_string(), final_slot, &options);
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

/// The coordinator's side of a scheduling cycle: its pooled buffers and
/// the transcript it records.
struct Merge<'p> {
    policy: &'p dyn CioqShardPolicy,
    /// The merge's output, swapped with `Comms::transfers` to publish it.
    transfers: Vec<Transfer>,
    scratch: MergeScratch,
    /// Coordinator-side mirror of the per-shard proposal payloads: swapped
    /// with the mutex contents around each merge (and swapped back after),
    /// so reading every shard's candidates costs two lock rounds and zero
    /// allocation per cycle.
    sets: Vec<CandidateSet>,
    recorded: Vec<Vec<(u16, u16)>>,
}

impl Merge<'_> {
    /// Merge the shards' proposals into the cycle's matching (coordinator
    /// only, state frozen), validate it on `stamps`, record it when the run
    /// asked for it, and publish it whole for the pop phase.
    fn publish(&mut self, fabric: &Fabric<'_>, stamps: &mut PortStamps) -> Result<(), PolicyError> {
        let cfg = fabric.cfg;
        self.transfers.clear();
        // Swap each shard's payload out of its mutex, merge over the owned
        // mirror, then swap back — the workers are parked at the barrier,
        // so the mutex contents are unobserved in between and end up
        // exactly as published.
        for (cs, m) in self.sets.iter_mut().zip(&fabric.comms.candidates) {
            std::mem::swap(cs, &mut *lock(m));
        }
        let ctx = MergeContext {
            cfg,
            partition: &fabric.partition,
            outputs: &fabric.comms.outputs(),
            cycle: fabric.comms.cycle_now(),
            candidates: &self.sets,
        };
        self.policy
            .merge(&ctx, &mut self.scratch, &mut self.transfers);
        for (cs, m) in self.sets.iter_mut().zip(&fabric.comms.candidates) {
            std::mem::swap(cs, &mut *lock(m));
        }
        stamps.begin(cfg.n_inputs, cfg.n_outputs);
        let pairs = self.transfers.iter().map(|t| (t.input, t.output));
        stamps.check(cfg, pairs, true, true)?;
        if fabric.comms.record {
            let pairs = self.transfers.iter().map(|t| (t.input.0, t.output.0));
            self.recorded.push(pairs.collect());
        }
        // Publish the set whole; the previous one comes back as the pool.
        std::mem::swap(&mut self.transfers, &mut *write(&fabric.comms.transfers));
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

    // -- The party topology: T-independence and failure paths ---------------
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

    /// Two racks over four shards: intra-rack pairs deliver at once within
    /// a shard and land after the cycle across shards, cross-rack pairs
    /// land two slots later.
    fn two_tier_options() -> ShardedOptions {
        let topology = Topology::two_tier(PORTS, PORTS, 2, 0, 2).expect("valid topology");
        let mut options = ShardedOptions::new(K);
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
    fn results_do_not_depend_on_the_party_count() {
        let cioq = SwitchConfig::cioq(PORTS, 2, 2);
        let (unit, valued) = (skewed_trace(1), skewed_trace(16));
        let run_cioq = |beta, trace: &Trace, t| {
            let policy = Greedy { beta };
            fingerprint(run_cioq_sharded_on(&cioq, &policy, trace, t, two_tier_options()).unwrap())
        };
        let check = |name: &str, run: &dyn Fn(usize) -> Fingerprint| {
            let inline = run(1);
            assert!(inline.0.transmitted > 0 && inline.0.losses.total_count() > 0);
            assert!(!inline.2.is_empty(), "{name}: checkpoints were taken");
            // T = 3 is the uneven split: groups {0, 1}, {2}, {3}.
            for t in 2..=K {
                assert_eq!(run(t), inline, "{name}: T = {t} differs from T = 1");
            }
        };
        check("GM", &|t| run_cioq(None, &unit, t));
        check("PG", &|t| run_cioq(Some(2.4), &valued, t));
    }

    /// The post-cycle landing runs only where a pair across shard bands has
    /// latency 0 — never at K = 1, nor on two racks that line up with two
    /// bands.
    #[test]
    fn lands_after_the_cycle_only_for_latency_zero_across_bands() {
        let cfg = SwitchConfig::cioq(PORTS, 2, 2);
        let after_cycle = |k, spec| {
            let partition = Partition::new(k, PORTS, PORTS);
            Comms::new(k, false, spec, &partition, &cfg).land_after_cycle
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

    #[test]
    fn mode_resolves_to_at_most_one_party_per_core() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let with = |k, mode| ShardedOptions {
            mode,
            ..ShardedOptions::new(k)
        };
        if cores >= 2 {
            // The default must thread, not quietly fall back to inline.
            assert_eq!(ShardedOptions::new(2).parties(), 2);
        }
        for k in [1, 2, 4, 64] {
            assert_eq!(with(k, ExecMode::Inline).parties(), 1);
            assert_eq!(with(k, ExecMode::Auto).parties(), k.min(cores));
            assert_eq!(
                with(k, ExecMode::Threads).parties(),
                k.min(cores).max(k.min(2))
            );
        }
    }

    /// Run `f` on a helper thread; a run that deadlocks fails the test
    /// instead of hanging it. Returns `f`'s panic message, if it panicked.
    fn bounded<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> Result<T, String> {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            tx.send(std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)))
        });
        rx.recv_timeout(Duration::from_secs(60))
            .expect("sharded run deadlocked")
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

    fn run_faulty(fault: Fault, t: usize) -> Result<Result<ShardedOutcome, PolicyError>, String> {
        bounded(move || {
            let cfg = SwitchConfig::cioq(PORTS, 2, 2);
            let trace = skewed_trace(1);
            run_cioq_sharded_on(&cfg, &Faulty(fault), &trace, t, two_tier_options())
        })
    }

    #[test]
    fn worker_panic_surfaces_identically_from_any_party() {
        // T = 2 puts shards {0, 1} on the calling thread (party 0) and
        // {2, 3} on the spawned party; T = 1 is the unthreaded loop.
        for (bad, t) in [(0, 2), (K - 1, 2), (1, 1), (K - 1, K)] {
            let msg = run_faulty(Fault::WorkerPanic { bad }, t)
                .expect_err("the worker's panic must surface");
            assert_eq!(msg, format!("sharded worker panicked: boom in shard {bad}"));
        }
    }

    #[test]
    fn policy_error_from_the_last_group_matches_the_unthreaded_run() {
        let run = |t| {
            run_faulty(Fault::AcceptWhenFull { bad: K - 1 }, t)
                .expect("no panic")
                .expect_err("accepting into a full queue is a policy error")
        };
        let inline = run(1);
        assert!(matches!(
            inline,
            PolicyError::QueueFull { kind: "input", .. }
        ));
        for t in 2..=K {
            assert_eq!(run(t), inline, "T = {t}");
        }
    }

    #[test]
    fn coordinator_error_releases_every_spawned_party() {
        for t in 1..=K {
            let err = run_faulty(Fault::MergeDuplicatesInput, t)
                .expect("no panic")
                .expect_err("a reused input must be rejected");
            assert!(matches!(err, PolicyError::DuplicateInput { .. }), "T = {t}");
        }
    }
}
