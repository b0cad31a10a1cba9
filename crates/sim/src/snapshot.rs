//! Versioned, canonically-serialized engine checkpoints.
//!
//! An [`EngineSnapshot`] captures the complete slot-boundary state of a
//! run: queue contents, in-flight fabric landings with their dispatch
//! metadata, fault-held retransmit queues, cumulative statistics and the
//! optional stats window. Everything else an engine carries is *derivable*
//! — policy incremental caches full-rebuild through the flush-counter
//! mismatch seam, the trace cursor is a pure function of the checkpoint
//! slot, and the calendar horizon is recomputed from the fabric spec and
//! fault plan — so it is deliberately not serialized (the `snapshot:
//! transient` annotations on the live types, enforced by detlint rule D6,
//! document each omission).
//!
//! The headline guarantee, proven by the crash-recovery suite: kill a run
//! at any checkpoint, [`restore`](crate::Engine::restore), and the
//! remaining transcript, reports and final state are **byte-identical** to
//! the uninterrupted run — for every policy, whole-switch or partitioned, on any
//! delay topology, under any fault plan.
//!
//! # Wire format
//!
//! [`EngineSnapshot::to_bytes`] emits a canonical little-endian binary
//! encoding: magic `b"CIOQSNAP"`, format version `u32`, then every field
//! in a fixed order with `u32` length prefixes on sequences. Canonical
//! means *equal states encode to equal bytes* — queue packets are written
//! head first (`QueueRef::iter`'s order: content, never slab layout),
//! landings in canonical landing order, held packets in (row-major pair,
//! FIFO) order — so byte equality doubles as the structural-equality
//! oracle in the round-trip proofs. Unknown versions and malformed bytes are [`SnapshotError`]s,
//! never panics.

use crate::stats::{StatsRecorder, WindowSlot};
use crate::transport::{DelayCalendar, FabricSpec, InFlightPacket, Landing};
use cioq_model::{Benefit, Packet, PacketId, PortId, SlotId, SwitchConfig, Topology};

/// Magic bytes prefixing every serialized snapshot.
const MAGIC: &[u8; 8] = b"CIOQSNAP";
/// Current wire-format version.
const VERSION: u32 = 1;
/// Encoded sizes of the fixed-width records, in bytes — what
/// [`Reader::count`] divides the remaining input by before any sequence of
/// them is reserved.
const PACKET_BYTES: usize = 8 + 8 + 8 + 2 + 2;
const LANDING_BYTES: usize = 8 + 8 + 4 + 2 + 2 + 1 + PACKET_BYTES;
const HELD_BYTES: usize = 2 + 2 + 1 + PACKET_BYTES;
const WINDOW_SLOT_BYTES: usize = 8 + 8 + 8 + 16 + 8;

/// Error decoding or applying a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The bytes are not a well-formed snapshot of a known version.
    Format(String),
    /// The snapshot is well-formed but cannot be applied to the given run
    /// options (wrong fabric, missing fault plan, …).
    Incompatible(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Format(msg) => write!(f, "malformed snapshot: {msg}"),
            SnapshotError::Incompatible(msg) => write!(f, "incompatible snapshot: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// One in-flight fabric landing as a checkpoint records it: the slot it
/// will land at plus the committed packet with its dispatch metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SnapLanding {
    /// Slot the packet lands at (start-of-slot, before arrivals).
    pub land_slot: SlotId,
    /// The packet as it rides the delay line.
    pub landing: Landing,
}

impl SnapLanding {
    /// The canonical checkpoint order: landing slot, then the canonical
    /// landing order within it.
    pub(crate) fn key(&self) -> (SlotId, (SlotId, u32, u16, u16)) {
        (self.land_slot, self.landing.key())
    }

    /// What `calendar` holds at the top of `slot`, before its landing, as
    /// a checkpoint records it: every committed packet with the slot it
    /// lands at, in canonical order — the one capture walk.
    pub(crate) fn pending(slot: SlotId, calendar: &DelayCalendar) -> Vec<SnapLanding> {
        let mut landings = Vec::new();
        calendar.for_each_pending_at(slot, |land_slot, &landing| {
            landings.push(SnapLanding { land_slot, landing });
        });
        landings.sort_unstable_by_key(SnapLanding::key);
        landings
    }
}

/// Complete slot-boundary state of one engine run, taken at the top of a
/// slot (before that slot's landings, arrivals and scheduling).
///
/// Produced by [`Engine::snapshot`](crate::Engine::snapshot) or the
/// `checkpoint_every` run option (whole-switch and partitioned runs emit
/// byte-compatible snapshots); consumed by
/// [`Engine::restore`](crate::Engine::restore), which the partitioned
/// `resume_from` option calls. Serialize with [`EngineSnapshot::to_bytes`].
#[derive(Debug, Clone, PartialEq)]
pub struct EngineSnapshot {
    /// Switch geometry and capacities.
    pub(crate) config: SwitchConfig,
    /// The fabric the run executed under; restore refuses a different one.
    pub(crate) fabric: FabricSpec,
    /// The slot the checkpoint was taken at the top of.
    pub(crate) slot: SlotId,
    /// The engine's no-progress streak entering `slot` (drain cutoff state).
    pub(crate) idle_slots: u32,
    /// `Q_ij` contents, row-major `i * n_outputs + j`, each head first
    /// (greatest value first, `QueueRef::iter`'s order).
    pub(crate) input_queues: Vec<Vec<Packet>>,
    /// `C_ij` contents (buffered crossbar only), same layout.
    pub(crate) crossbar_queues: Option<Vec<Vec<Packet>>>,
    /// `Q_j` contents, one per output, each head first.
    pub(crate) output_queues: Vec<Vec<Packet>>,
    /// In-flight fabric landings in canonical order ([`SnapLanding::key`]).
    pub(crate) landings: Vec<SnapLanding>,
    /// Packets held in link-down retransmit FIFOs, in (row-major pair,
    /// FIFO) order: `(input, output, preempt, packet)`.
    pub(crate) held: Vec<(u16, u16, bool, Packet)>,
    /// Cumulative statistics at the checkpoint boundary.
    pub(crate) stats: StatsRecorder,
    /// Stats window: configured size and retained entries, oldest first.
    pub(crate) window: Option<(usize, Vec<WindowSlot>)>,
    /// Residual packet count at the boundary (restore cross-checks it).
    pub(crate) residual_count: u64,
    /// Residual value at the boundary (restore cross-checks it).
    pub(crate) residual_value: u128,
}

impl EngineSnapshot {
    /// The slot this checkpoint was taken at the top of.
    #[inline]
    pub fn slot(&self) -> SlotId {
        self.slot
    }

    /// The switch configuration the run executed under.
    #[inline]
    pub fn config(&self) -> &SwitchConfig {
        &self.config
    }

    /// The fabric the run executed under.
    #[inline]
    pub fn fabric(&self) -> &FabricSpec {
        &self.fabric
    }

    /// The streaming-consumer position this checkpoint corresponds to:
    /// checkpoints fire at the top of a slot, before its arrival phase,
    /// so the stream cursor is exactly (checkpoint slot, packets arrived
    /// so far) — no extra streaming state is serialized. Hand it to
    /// [`crate::stream::channel_at`] (and a producer resumed from the
    /// same point) to re-feed a restored engine.
    #[inline]
    pub fn stream_cursor(&self) -> crate::stream::StreamCursor {
        crate::stream::StreamCursor {
            slot: self.slot,
            consumed: self.stats.arrived,
        }
    }

    /// Packets buffered anywhere in the switch at the boundary.
    #[inline]
    pub fn residual_count(&self) -> u64 {
        self.residual_count
    }

    /// Value buffered anywhere in the switch at the boundary.
    #[inline]
    pub fn residual_value(&self) -> u128 {
        self.residual_value
    }

    /// Whether `l` is a landing some run could have in flight at this
    /// checkpoint — the one rule restore applies. Its pair
    /// must lie in the switch. Without a fault plan (`fault_horizon` is
    /// `None`) its landing slot is exact: checkpoints fire before any
    /// dispatch of their slot, so the packet left before `slot`, at its
    /// pair's latency, and has not landed yet. A fault plan's spikes and
    /// retransmits move landings, so under one (`Some(horizon)`) only the
    /// calendar window `[slot, slot + horizon)` is checked.
    pub(crate) fn check_landing(
        &self,
        l: &SnapLanding,
        fault_horizon: Option<SlotId>,
    ) -> Result<(), SnapshotError> {
        let (n, m) = (self.config.n_inputs, self.config.n_outputs);
        let (i, j) = (l.landing.p.input, l.landing.p.output);
        if i as usize >= n || j as usize >= m {
            return Err(SnapshotError::Format(format!(
                "landing on pair ({i} -> {j}) outside a {n}x{m} switch"
            )));
        }
        let (sent, due, now) = (l.landing.slot, l.land_slot, self.slot);
        let legal = match fault_horizon {
            Some(horizon) => now <= due && due < now.saturating_add(horizon),
            None => {
                let d = self.fabric.delay(PortId(i), PortId(j));
                sent < now && now <= due && sent.checked_add(d) == Some(due)
            }
        };
        if !legal {
            return Err(SnapshotError::Format(format!(
                "landing at slot {due} of a packet dispatched at slot {sent} on pair \
                 ({i} -> {j}) cannot be in flight at checkpoint slot {now}"
            )));
        }
        Ok(())
    }

    /// Serialize to the canonical little-endian wire format (see module
    /// docs). Equal snapshots produce equal bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::default();
        w.bytes(MAGIC);
        w.u32(VERSION);
        w.config(&self.config);
        w.fabric(&self.fabric);
        w.u64(self.slot);
        w.u32(self.idle_slots);
        w.queues(&self.input_queues);
        match &self.crossbar_queues {
            None => w.bool(false),
            Some(qs) => {
                w.bool(true);
                w.queues(qs);
            }
        }
        w.queues(&self.output_queues);
        w.len(self.landings.len());
        for l in &self.landings {
            w.u64(l.land_slot);
            w.u64(l.landing.slot);
            w.u32(l.landing.cycle);
            w.u16(l.landing.p.input);
            w.u16(l.landing.p.output);
            w.bool(l.landing.p.preempt);
            w.packet(&l.landing.p.packet);
        }
        w.len(self.held.len());
        for (i, j, preempt, p) in &self.held {
            w.u16(*i);
            w.u16(*j);
            w.bool(*preempt);
            w.packet(p);
        }
        w.stats(&self.stats);
        match &self.window {
            None => w.bool(false),
            Some((window, entries)) => {
                w.bool(true);
                w.len(*window);
                w.len(entries.len());
                for e in entries {
                    w.u64(e.slot);
                    w.u64(e.arrived);
                    w.u64(e.transmitted);
                    w.u128(e.benefit);
                    w.u64(e.lost);
                }
            }
        }
        w.u64(self.residual_count);
        w.u128(self.residual_value);
        w.out
    }

    /// Decode a snapshot from bytes produced by
    /// [`EngineSnapshot::to_bytes`]. Rejects unknown versions, truncated
    /// or trailing bytes, and internally inconsistent layouts.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = Reader { buf: bytes, pos: 0 };
        let magic = r.take(MAGIC.len())?;
        if magic != MAGIC {
            return Err(SnapshotError::Format("bad magic".into()));
        }
        let version = r.u32()?;
        if version != VERSION {
            return Err(SnapshotError::Format(format!(
                "unsupported snapshot version {version} (expected {VERSION})"
            )));
        }
        let config = r.config()?;
        let fabric = r.fabric()?;
        let slot = r.u64()?;
        let idle_slots = r.u32()?;
        let cells = config
            .n_inputs
            .checked_mul(config.n_outputs)
            .ok_or_else(|| SnapshotError::Format("switch geometry overflows".into()))?;
        let input_queues = r.queues(cells)?;
        let crossbar_queues = if r.bool()? {
            if config.crossbar_capacity.is_none() {
                return Err(SnapshotError::Format(
                    "crossbar queues present but config has no crossbar capacity".into(),
                ));
            }
            Some(r.queues(cells)?)
        } else {
            if config.crossbar_capacity.is_some() {
                return Err(SnapshotError::Format(
                    "crossbar config but no crossbar queues serialized".into(),
                ));
            }
            None
        };
        let output_queues = r.queues(config.n_outputs)?;
        let n_landings = r.count(LANDING_BYTES)?;
        let mut landings = Vec::with_capacity(n_landings);
        for _ in 0..n_landings {
            landings.push(SnapLanding {
                land_slot: r.u64()?,
                landing: Landing {
                    slot: r.u64()?,
                    cycle: r.u32()?,
                    p: InFlightPacket {
                        input: r.u16()?,
                        output: r.u16()?,
                        preempt: r.bool()?,
                        packet: r.packet()?,
                    },
                },
            });
        }
        if landings.windows(2).any(|w| w[0].key() >= w[1].key()) {
            return Err(SnapshotError::Format(
                "landings not in canonical order".into(),
            ));
        }
        let n_held = r.count(HELD_BYTES)?;
        let mut held = Vec::with_capacity(n_held);
        for _ in 0..n_held {
            held.push((r.u16()?, r.u16()?, r.bool()?, r.packet()?));
        }
        let stats = r.stats(config.n_outputs)?;
        let window = if r.bool()? {
            // The window *size* is a setting, not a length: nothing is
            // reserved for it here.
            let window = r.u32()? as usize;
            if window == 0 {
                return Err(SnapshotError::Format("zero-size stats window".into()));
            }
            let n = r.count(WINDOW_SLOT_BYTES)?;
            if n > window {
                return Err(SnapshotError::Format(
                    "stats window holds more entries than its size".into(),
                ));
            }
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                entries.push(WindowSlot {
                    slot: r.u64()?,
                    arrived: r.u64()?,
                    transmitted: r.u64()?,
                    benefit: r.u128()?,
                    lost: r.u64()?,
                });
            }
            Some((window, entries))
        } else {
            None
        };
        let residual_count = r.u64()?;
        let residual_value = r.u128()?;
        if r.pos != r.buf.len() {
            return Err(SnapshotError::Format(format!(
                "{} trailing bytes after snapshot",
                r.buf.len() - r.pos
            )));
        }
        Ok(EngineSnapshot {
            config,
            fabric,
            slot,
            idle_slots,
            input_queues,
            crossbar_queues,
            output_queues,
            landings,
            held,
            stats,
            window,
            residual_count,
            residual_value,
        })
    }
}

/// Little-endian encoder; every integer field goes through here so the
/// format is fixed regardless of host endianness.
#[derive(Default)]
struct Writer {
    out: Vec<u8>,
}

impl Writer {
    fn bytes(&mut self, b: &[u8]) {
        self.out.extend_from_slice(b);
    }
    fn bool(&mut self, v: bool) {
        self.out.push(v as u8);
    }
    fn u16(&mut self, v: u16) {
        self.bytes(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    fn u128(&mut self, v: u128) {
        self.bytes(&v.to_le_bytes());
    }
    /// Sequence length as `u32` (queue and landing counts are far below).
    fn len(&mut self, v: usize) {
        self.u32(u32::try_from(v).expect("snapshot sequence fits u32"));
    }

    fn packet(&mut self, p: &Packet) {
        self.u64(p.id.0);
        self.u64(p.value);
        self.u64(p.arrival);
        self.u16(p.input.0);
        self.u16(p.output.0);
    }

    fn queues(&mut self, queues: &[Vec<Packet>]) {
        for q in queues {
            self.len(q.len());
            for p in q {
                self.packet(p);
            }
        }
    }

    fn config(&mut self, c: &SwitchConfig) {
        self.u32(c.n_inputs as u32);
        self.u32(c.n_outputs as u32);
        self.u32(c.speedup);
        self.u64(c.input_capacity as u64);
        self.u64(c.output_capacity as u64);
        match c.crossbar_capacity {
            None => self.bool(false),
            Some(bc) => {
                self.bool(true);
                self.u64(bc as u64);
            }
        }
    }

    fn fabric(&mut self, f: &FabricSpec) {
        match f.topology() {
            None => {
                self.bool(false);
                self.u64(f.max_delay());
            }
            Some(t) => {
                self.bool(true);
                self.u32(t.n_inputs() as u32);
                self.u32(t.n_outputs() as u32);
                self.u32(t.racks() as u32);
                for i in 0..t.n_inputs() {
                    self.u16(t.input_rack(i) as u16);
                }
                for j in 0..t.n_outputs() {
                    self.u16(t.output_rack(j) as u16);
                }
                for src in 0..t.racks() {
                    for dst in 0..t.racks() {
                        self.u64(t.rack_latency(src, dst));
                    }
                }
            }
        }
    }

    fn stats(&mut self, s: &StatsRecorder) {
        self.u64(s.arrived);
        self.u128(s.arrived_value);
        self.u64(s.accepted);
        self.u64(s.transferred);
        self.u64(s.transferred_to_crossbar);
        self.u64(s.transmitted);
        self.u128(s.benefit.0);
        self.u64(s.losses.rejected);
        self.u128(s.losses.rejected_value);
        self.u64(s.losses.preempted_input);
        self.u128(s.losses.preempted_input_value);
        self.u64(s.losses.preempted_crossbar);
        self.u128(s.losses.preempted_crossbar_value);
        self.u64(s.losses.preempted_output);
        self.u128(s.losses.preempted_output_value);
        self.u64(s.losses.dropped);
        self.u128(s.losses.dropped_value);
        self.u64(s.retransmitted);
        self.u64(s.latency_sum);
        for b in s.latency_histogram {
            self.u64(b);
        }
        for t in &s.per_output_transmitted {
            self.u64(*t);
        }
    }
}

/// Little-endian decoder over a byte slice; every read is bounds-checked
/// and truncation is a [`SnapshotError::Format`], never a panic.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], SnapshotError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| SnapshotError::Format("truncated snapshot".into()))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }
    fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.take(1)?[0] {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(SnapshotError::Format(format!("invalid bool byte {b}"))),
        }
    }
    fn u16(&mut self) -> Result<u16, SnapshotError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2")))
    }
    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }
    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }
    fn u128(&mut self) -> Result<u128, SnapshotError> {
        Ok(u128::from_le_bytes(
            self.take(16)?.try_into().expect("len 16"),
        ))
    }

    /// `n` records of at least `min_record_bytes` each must fit the bytes
    /// left — checked before anything is reserved for them, so a hostile
    /// count costs an error, not an allocation the input could never fill.
    fn bound(&self, n: usize, min_record_bytes: usize) -> Result<usize, SnapshotError> {
        let left = self.buf.len() - self.pos;
        if n > left / min_record_bytes {
            return Err(SnapshotError::Format(format!(
                "{n} records of {min_record_bytes}+ bytes cannot fit the {left} bytes left"
            )));
        }
        Ok(n)
    }

    /// A `u32` sequence length, [`bound`](Self::bound)ed.
    fn count(&mut self, min_record_bytes: usize) -> Result<usize, SnapshotError> {
        let n = self.u32()? as usize;
        self.bound(n, min_record_bytes)
    }

    fn packet(&mut self) -> Result<Packet, SnapshotError> {
        let id = PacketId(self.u64()?);
        let value = self.u64()?;
        if value == 0 {
            return Err(SnapshotError::Format("packet of value 0".into()));
        }
        let arrival = self.u64()?;
        let input = PortId(self.u16()?);
        let output = PortId(self.u16()?);
        Ok(Packet::new(id, value, arrival, input, output))
    }

    /// `count` queue cells; an empty cell is its 4-byte length prefix.
    fn queues(&mut self, count: usize) -> Result<Vec<Vec<Packet>>, SnapshotError> {
        let mut queues = Vec::with_capacity(self.bound(count, 4)?);
        for _ in 0..count {
            let n = self.count(PACKET_BYTES)?;
            let mut q = Vec::with_capacity(n);
            for _ in 0..n {
                q.push(self.packet()?);
            }
            queues.push(q);
        }
        Ok(queues)
    }

    fn config(&mut self) -> Result<SwitchConfig, SnapshotError> {
        let n_inputs = self.u32()? as usize;
        let n_outputs = self.u32()? as usize;
        let speedup = self.u32()?;
        let input_capacity = self.u64()? as usize;
        let output_capacity = self.u64()? as usize;
        let mut builder = SwitchConfig::builder(n_inputs, n_outputs)
            .speedup(speedup)
            .input_capacity(input_capacity)
            .output_capacity(output_capacity);
        if self.bool()? {
            builder = builder.crossbar_capacity(self.u64()? as usize);
        }
        // Decode refuses every config the builder refuses: a zero speedup
        // or capacity would restore a switch that never schedules or that
        // panics building its queues.
        builder
            .build()
            .map_err(|e| SnapshotError::Format(format!("switch config: {e}")))
    }

    fn fabric(&mut self) -> Result<FabricSpec, SnapshotError> {
        if !self.bool()? {
            return Ok(FabricSpec::uniform(self.u64()?));
        }
        let n_inputs = self.count(2)?;
        let n_outputs = self.count(2)?;
        let racks = self.u32()? as usize;
        let mut input_rack = Vec::with_capacity(n_inputs);
        for _ in 0..n_inputs {
            input_rack.push(self.u16()?);
        }
        let mut output_rack = Vec::with_capacity(n_outputs);
        for _ in 0..n_outputs {
            output_rack.push(self.u16()?);
        }
        let n_lat = racks
            .checked_mul(racks)
            .ok_or_else(|| SnapshotError::Format("rack count overflow".into()))?;
        let mut latency = Vec::with_capacity(self.bound(n_lat, 8)?);
        for _ in 0..n_lat {
            latency.push(self.u64()?);
        }
        let topo = Topology::explicit(n_inputs, n_outputs, racks, input_rack, output_rack, latency)
            .map_err(|e| SnapshotError::Format(format!("invalid topology: {e}")))?;
        Ok(FabricSpec::matrix(topo))
    }

    fn stats(&mut self, n_outputs: usize) -> Result<StatsRecorder, SnapshotError> {
        let mut s = StatsRecorder::new(self.bound(n_outputs, 8)?);
        s.arrived = self.u64()?;
        s.arrived_value = self.u128()?;
        s.accepted = self.u64()?;
        s.transferred = self.u64()?;
        s.transferred_to_crossbar = self.u64()?;
        s.transmitted = self.u64()?;
        s.benefit = Benefit(self.u128()?);
        s.losses.rejected = self.u64()?;
        s.losses.rejected_value = self.u128()?;
        s.losses.preempted_input = self.u64()?;
        s.losses.preempted_input_value = self.u128()?;
        s.losses.preempted_crossbar = self.u64()?;
        s.losses.preempted_crossbar_value = self.u128()?;
        s.losses.preempted_output = self.u64()?;
        s.losses.preempted_output_value = self.u128()?;
        s.losses.dropped = self.u64()?;
        s.losses.dropped_value = self.u128()?;
        s.retransmitted = self.u64()?;
        s.latency_sum = self.u64()?;
        for b in &mut s.latency_histogram {
            *b = self.u64()?;
        }
        for t in &mut s.per_output_transmitted {
            *t = self.u64()?;
        }
        Ok(s)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{Engine, FaultPlan, RunOptions};

    fn pkt(id: u64, value: u64, input: u16, output: u16) -> Packet {
        Packet::new(PacketId(id), value, 0, PortId(input), PortId(output))
    }

    fn landing(land_slot: SlotId, slot: SlotId, packet: Packet) -> SnapLanding {
        SnapLanding {
            land_slot,
            landing: Landing {
                slot,
                cycle: 0,
                p: InFlightPacket {
                    input: packet.input.0,
                    output: packet.output.0,
                    preempt: false,
                    packet,
                },
            },
        }
    }

    fn sample() -> EngineSnapshot {
        let config = SwitchConfig {
            n_inputs: 2,
            n_outputs: 2,
            speedup: 1,
            input_capacity: 4,
            output_capacity: 2,
            crossbar_capacity: None,
        };
        let mut stats = StatsRecorder::new(2);
        stats.arrived = 3;
        stats.arrived_value = 9;
        stats.accepted = 3;
        stats.transferred = 1;
        stats.transmitted = 1;
        stats.benefit = Benefit(4);
        stats.per_output_transmitted[1] = 1;
        EngineSnapshot {
            config,
            fabric: FabricSpec::uniform(2),
            slot: 10,
            idle_slots: 0,
            input_queues: vec![vec![pkt(0, 5, 0, 0)], vec![], vec![], vec![]],
            crossbar_queues: None,
            output_queues: vec![vec![], vec![]],
            landings: vec![landing(11, 9, pkt(2, 3, 1, 1))],
            held: vec![(0, 1, true, pkt(1, 2, 0, 1))],
            stats,
            window: Some((
                4,
                vec![WindowSlot {
                    slot: 9,
                    arrived: 1,
                    transmitted: 1,
                    benefit: 4,
                    lost: 0,
                }],
            )),
            residual_count: 3,
            residual_value: 10,
        }
    }

    /// [`sample`] with only its queued and in-flight packets: one landing,
    /// dispatched at slot 9 on a latency-2 pair and due at 11, which the
    /// slot-10 checkpoint may hold.
    fn in_flight_only() -> EngineSnapshot {
        let mut snap = sample();
        snap.held.clear();
        snap.window = None;
        (snap.residual_count, snap.residual_value) = (2, 8);
        snap
    }

    /// [`in_flight_only`] made impossible, each inside the calendar window:
    /// a fabric that puts its landing's pair (1 -> 1) at latency 0, and a
    /// dispatch one slot earlier than its landing slot allows.
    pub(crate) fn illegal_landings() -> [EngineSnapshot; 2] {
        let mut zero_pair = in_flight_only();
        let topo = Topology::explicit(2, 2, 2, vec![0, 1], vec![0, 1], vec![0, 3, 3, 0])
            .expect("valid topology");
        zero_pair.fabric = FabricSpec::matrix(topo);
        let mut off_by_one = in_flight_only();
        off_by_one.landings[0].landing.slot = 8;
        [zero_pair, off_by_one]
    }

    #[test]
    fn restore_refuses_a_landing_no_run_could_have_in_flight() {
        let options = |snap: &EngineSnapshot| RunOptions {
            fabric: snap.fabric.clone(),
            ..RunOptions::default()
        };
        let legal = in_flight_only();
        assert!(Engine::restore(&legal, options(&legal)).is_ok());
        for snap in illegal_landings() {
            let err = Engine::restore(&snap, options(&snap)).err();
            assert!(
                matches!(&err, Some(SnapshotError::Format(msg)) if msg.contains("cannot be in flight")),
                "{err:?}"
            );
        }
    }

    #[test]
    fn bytes_round_trip() {
        let snap = sample();
        let bytes = snap.to_bytes();
        let back = EngineSnapshot::from_bytes(&bytes).expect("round trip");
        assert_eq!(back, snap);
        assert_eq!(back.to_bytes(), bytes, "re-encoding is canonical");
    }

    #[test]
    fn matrix_fabric_round_trips() {
        let topo = Topology::explicit(2, 2, 2, vec![0, 1], vec![0, 1], vec![0, 3, 3, 0])
            .expect("valid topology");
        let mut snap = sample();
        snap.fabric = FabricSpec::matrix(topo);
        let back = EngineSnapshot::from_bytes(&snap.to_bytes()).expect("round trip");
        assert_eq!(back, snap);
        assert_eq!(back.fabric.delay(PortId(0), PortId(1)), 3);
    }

    #[test]
    fn malformed_bytes_are_rejected_loudly() {
        let snap = sample();
        let bytes = snap.to_bytes();
        assert!(matches!(
            EngineSnapshot::from_bytes(&bytes[..bytes.len() - 1]),
            Err(SnapshotError::Format(_))
        ));
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(matches!(
            EngineSnapshot::from_bytes(&trailing),
            Err(SnapshotError::Format(_))
        ));
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            EngineSnapshot::from_bytes(&bad_magic),
            Err(SnapshotError::Format(_))
        ));
        let mut bad_version = bytes.clone();
        bad_version[8] = 99;
        let err = EngineSnapshot::from_bytes(&bad_version).unwrap_err();
        assert!(err.to_string().contains("version"));
        assert!(EngineSnapshot::from_bytes(&[]).is_err());
    }

    #[test]
    fn non_canonical_landing_order_is_rejected() {
        let mut snap = sample();
        snap.landings = vec![
            landing(12, 9, pkt(3, 1, 0, 0)),
            landing(11, 9, pkt(2, 3, 1, 1)),
        ];
        let err = EngineSnapshot::from_bytes(&snap.to_bytes()).unwrap_err();
        assert!(err.to_string().contains("canonical"));
    }

    /// Hostile bytes: whatever 4-byte run of a valid snapshot is
    /// overwritten with `0xFF` — a geometry word, a length prefix, a rack
    /// count, a bool — decoding answers `Ok` or `Err`, and so does
    /// [`Engine::restore`] on whatever decoded. A panic fails the test; an
    /// over-reservation aborts it (the bounded counts are what keep a
    /// `u32::MAX` prefix from reaching `with_capacity`).
    ///
    /// Restore is handed what a daemon would hand it: its own options, and
    /// only a snapshot whose config is still the one it runs — restore
    /// builds the switch the config describes and has no second copy to
    /// doubt it with, so that comparison is the caller's.
    #[test]
    fn ff_overwrites_never_panic_or_over_reserve() {
        let topo = Topology::explicit(2, 2, 2, vec![0, 1], vec![0, 1], vec![0, 3, 3, 0])
            .expect("valid topology");
        let mut matrix = sample();
        matrix.fabric = FabricSpec::matrix(topo);
        for snap in [sample(), matrix] {
            assert!(!snap.landings.is_empty() && !snap.held.is_empty() && snap.window.is_some());
            let options = RunOptions {
                fabric: snap.fabric.clone(),
                faults: Some(FaultPlan::new(Vec::new())),
                ..RunOptions::default()
            };
            let bytes = snap.to_bytes();
            let mut restored = 0;
            for at in 0..bytes.len() {
                let mut hostile = bytes.clone();
                for b in hostile.iter_mut().skip(at).take(4) {
                    *b = 0xFF;
                }
                match EngineSnapshot::from_bytes(&hostile) {
                    Ok(decoded) if decoded.config == snap.config => {
                        restored += Engine::restore(&decoded, options.clone()).is_ok() as usize;
                    }
                    _ => {}
                }
            }
            assert!(restored > 0, "the sweep must reach past restore's checks");
        }
    }

    /// The numbers restore cannot check against its options must not size
    /// anything: a stats window the options did not ask for is adopted at
    /// the snapshot's size — up to `u32::MAX` slots — without reserving
    /// it, and a checkpoint slot at the end of time is a format error, not
    /// an overflow.
    #[test]
    fn restore_reserves_nothing_from_the_snapshots_own_numbers() {
        let options = RunOptions {
            fabric: FabricSpec::uniform(2),
            ..RunOptions::default()
        };
        let mut wide = sample();
        wide.held.clear();
        (wide.residual_count, wide.residual_value) = (2, 8);
        wide.window = Some((u32::MAX as usize, vec![]));
        let decoded = EngineSnapshot::from_bytes(&wide.to_bytes()).expect("decodes");
        let engine = Engine::restore(&decoded, options.clone()).expect("restores");
        assert_eq!(engine.snapshot(), decoded, "restore is lossless");

        let mut late = sample();
        late.held.clear();
        late.slot = SlotId::MAX;
        late.landings[0].land_slot = SlotId::MAX;
        let decoded = EngineSnapshot::from_bytes(&late.to_bytes()).expect("decodes");
        assert!(matches!(
            Engine::restore(&decoded, options),
            Err(SnapshotError::Format(_))
        ));
    }

    /// Hostile config words and zero packet values fail decode, before
    /// anything is built from them. A capacity whose queue class needs
    /// more packet slots than a `u32` handle numbers is one of them; a
    /// smaller one still decodes, and restore reserves its slots with
    /// `try_reserve_exact`, so a host that cannot is an error too.
    #[test]
    fn hostile_geometry_and_zero_values_are_format_errors() {
        let bytes = sample().to_bytes();
        // The config follows the magic and the version: the two geometry
        // words (12..20), the speedup (20..24), then the input and output
        // capacities (24..32, 32..40).
        let overwritten = |range: std::ops::Range<usize>, byte: u8| {
            let mut hostile = bytes.clone();
            hostile[range].fill(byte);
            EngineSnapshot::from_bytes(&hostile)
        };
        for (what, range, byte) in [
            ("huge geometry", 12..20, 0xFF),
            ("more than 65 535 inputs", 14..15, 0x01),
            ("zero inputs", 12..16, 0),
            ("zero outputs", 16..20, 0),
            ("zero speedup", 20..24, 0),
            ("zero input capacity", 24..32, 0),
            ("zero output capacity", 32..40, 0),
            ("huge input capacity", 24..32, 0xFF),
            ("huge output capacity", 32..40, 0xFF),
        ] {
            let decoded = overwritten(range, byte);
            assert!(
                matches!(&decoded, Err(SnapshotError::Format(msg)) if msg.starts_with("switch config")),
                "{what}: {decoded:?}"
            );
        }
        // 65 535 × 65 535 ports at B = 2: 2·65 535² input slots, past the
        // handles, so nothing is reserved.
        let mut wide = bytes.clone();
        wide[12..16].copy_from_slice(&65_535u32.to_le_bytes());
        wide[16..20].copy_from_slice(&65_535u32.to_le_bytes());
        wide[24..32].copy_from_slice(&2u64.to_le_bytes());
        let decoded = EngineSnapshot::from_bytes(&wide);
        assert!(
            matches!(&decoded, Err(SnapshotError::Format(msg))
                if msg.starts_with("switch config: input queues need 8589672450 packet slots")),
            "{decoded:?}"
        );
        let mut zero = sample();
        zero.input_queues[0][0].value = 0;
        let err = EngineSnapshot::from_bytes(&zero.to_bytes()).unwrap_err();
        assert!(err.to_string().contains("value 0"), "{err}");
    }
}
