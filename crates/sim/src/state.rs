//! Switch state: the queues of one switch instance, plus the read-only view
//! handed to policies.
//!
//! The paper's model has one set of queues — `Q_ij`, `C_ij`, `Q_j` — and so
//! does this crate: [`QueueBand`], which holds the whole switch's and whose
//! methods are every per-packet rule. What policies read of the output side
//! is one [`OutputSnapshot`].

use crate::changes::ChangeLog;
use crate::mechanics;
use crate::policy::{Admission, PolicyError, Transfer};
use crate::snapshot::{EngineSnapshot, SnapshotError};
use crate::stats::StatsRecorder;
use crate::transport::{DelayCalendar, InFlightPacket, OutputSnapshot};
use cioq_model::{ConfigError, FabricKind, Packet, PortId, SlotId, SwitchConfig, Value};
use cioq_queues::{QueueMut, QueueRef, QueueStore};
use std::ops::Range;

/// Shard `s` of `k` contiguous shares of `n` ports: `⌊sn/k⌋..⌊(s+1)n/k⌋`.
#[inline]
pub(crate) fn share(s: usize, k: usize, n: usize) -> Range<usize> {
    s * n / k..(s + 1) * n / k
}

/// Which family of queues a reference points into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueueKind {
    /// An input queue `Q_ij`.
    Input,
    /// A crossbar queue `C_ij` (buffered crossbar only).
    Crossbar,
    /// An output queue `Q_j`.
    Output,
}

impl QueueKind {
    /// The family's name as [`PolicyError`](crate::PolicyError)s spell it.
    pub(crate) fn label(self) -> &'static str {
        match self {
            QueueKind::Input => "input",
            QueueKind::Crossbar => "crossbar",
            QueueKind::Output => "output",
        }
    }
}

/// The switch's queues: `Q_ij` (and `C_ij` on a buffered crossbar) for
/// every input row × all M columns, `Q_j` for every output, and the
/// [`ChangeLog`] over them. Ports are global; the cells of the stores and
/// the log are row-major `i·M + j` for `Q_ij` / `C_ij` and `j` for `Q_j`.
///
/// Each queue class is one [`QueueStore`]: one packet slab reserved at
/// construction and recycled through a free list, so no queue allocates
/// after the band is built and the slab's live part stays as small as the
/// class's occupancy.
///
/// Every rule that puts a packet into or takes one out of a queue —
/// wrapped around the [`mechanics`] call that applies it — is a method
/// here, written once.
#[derive(Debug, Clone)]
pub(crate) struct QueueBand {
    /// `Q_ij`, row-major. snapshot: serialized
    voq: QueueStore,
    /// One bit per `Q_ij` cell, row-major and flat (bit `c % 64` of word
    /// `c / 64` for cell `c`): set iff the queue is non-empty, changed at
    /// each 0 ↔ 1 length change by `admit` and `pop_transfer`; what
    /// [`SwitchView::voq_occupancy`] reads. snapshot: transient —
    /// `refill` rebuilds it from the queues.
    occupied: Vec<u64>,
    /// `C_ij` (buffered crossbar only). snapshot: serialized
    xbar: Option<QueueStore>,
    /// `Q_j`, cell `j`. snapshot: serialized
    outputs: QueueStore,
    /// Number of outputs `M`, the width of a row. snapshot: transient —
    /// geometry, from the config.
    m: usize,
    /// Queues dirtied since the last flush. snapshot: transient — a
    /// restored run uses fresh policies, whose caches full-rebuild on the
    /// flush-counter mismatch (the deterministic rebuild seam), so dirty
    /// sets need not survive.
    changes: ChangeLog,
}

impl QueueBand {
    /// The empty queues of a switch in configuration `cfg`, or the
    /// [`ConfigError::QueueReserve`] of the first store the host could not
    /// reserve.
    pub(crate) fn try_new(cfg: &SwitchConfig) -> Result<Self, ConfigError> {
        let (n, m) = (cfg.n_inputs, cfg.n_outputs);
        let refused = |kind, cells: usize, capacity: usize| ConfigError::QueueReserve {
            kind,
            slots: cells.saturating_mul(capacity),
        };
        let store = |kind, cells: usize, capacity: usize| {
            QueueStore::try_new(cells, capacity).map_err(|_| refused(kind, cells, capacity))
        };
        let mut occupied = Vec::new();
        occupied
            .try_reserve_exact((n * m).div_ceil(64))
            .map_err(|_| refused("input", n * m, cfg.input_capacity))?;
        occupied.resize((n * m).div_ceil(64), 0);
        Ok(QueueBand {
            voq: store("input", n * m, cfg.input_capacity)?,
            occupied,
            xbar: cfg
                .crossbar_capacity
                .map(|b| store("crossbar", n * m, b))
                .transpose()?,
            outputs: store("output", m, cfg.output_capacity)?,
            m,
            changes: ChangeLog::new(n, m, cfg.crossbar_capacity.is_some()),
        })
    }

    /// Input queue `Q_ij`.
    #[inline]
    pub(crate) fn voq(&self, input: PortId, output: PortId) -> QueueRef<'_> {
        self.voq.get(self.cell(input, output))
    }

    /// Crossbar queue `C_ij`; panics on a plain CIOQ switch (policies for
    /// the wrong fabric are a programming error, caught loudly).
    #[inline]
    pub(crate) fn xbar(&self, input: PortId, output: PortId) -> QueueRef<'_> {
        self.xbar
            .as_ref()
            .expect("crossbar queue requested on a CIOQ switch")
            .get(self.cell(input, output))
    }

    /// Output queue `Q_j`.
    #[inline]
    pub(crate) fn output(&self, output: PortId) -> QueueRef<'_> {
        self.outputs.get(output.index())
    }

    /// Number of outputs `M`.
    #[inline]
    pub(crate) fn n_outputs(&self) -> usize {
        self.m
    }

    /// The switch's change log.
    #[inline]
    pub(crate) fn changes(&self) -> &ChangeLog {
        &self.changes
    }

    /// Clear the change log: the scheduling call that read it has returned.
    #[inline]
    pub(crate) fn flush(&mut self) {
        self.changes.flush();
    }

    /// The row-major cell of `(i, j)`.
    #[inline]
    fn cell(&self, input: PortId, output: PortId) -> usize {
        debug_assert!(output.index() < self.m);
        input.index() * self.m + output.index()
    }

    #[inline]
    fn xbar_mut(&mut self, cell: usize) -> QueueMut<'_> {
        self.xbar
            .as_mut()
            .expect("invariant: crossbar queues exist, asserted at run entry")
            .get_mut(cell)
    }

    /// Every store: `Q_ij`, then `C_ij`, then `Q_j`.
    fn stores(&self) -> impl Iterator<Item = &QueueStore> {
        std::iter::once(&self.voq)
            .chain(&self.xbar)
            .chain([&self.outputs])
    }

    /// Packets buffered in the queues — each store's live slots,
    /// O(1), so the drain loop's per-slot "anything left?" never walks a
    /// queue.
    pub(crate) fn residual_count(&self) -> u64 {
        self.stores().map(|s| s.live() as u64).sum()
    }

    /// Value buffered in the queues.
    pub(crate) fn residual_value(&self) -> u128 {
        self.stores().map(QueueStore::total_value).sum()
    }

    // The per-packet rules from here to `transmit` are `#[inline(always)]`:
    // each has one call site per engine, and left to the inliner's
    // heuristic they were outlined from the sequential slot loop — row 4 of
    // the benchmark (`xbar_cpg_bursty`) read 36.9 k slots/s against the
    // parent's 39.2 k, and 39.2 k with the attribute.

    /// Arrival phase, one packet: apply the policy's
    /// `decision` to `Q_ij`.
    // detlint: hot
    #[inline(always)]
    pub(crate) fn admit(
        &mut self,
        stats: &mut StatsRecorder,
        decision: Admission,
        p: &Packet,
    ) -> Result<(), PolicyError> {
        let cell = self.cell(p.input, p.output);
        let enters = !matches!(decision, Admission::Reject);
        if enters {
            self.changes.voq.mark(cell);
        }
        mechanics::admit(self.voq.get_mut(cell), stats, decision, p)?;
        self.occupied[cell / 64] |= u64::from(enters) << (cell % 64);
        Ok(())
    }

    /// A transfer's first half: pop the packet it designates out of its
    /// source queue — `Q_ij` ([`QueueKind::Input`]) or `C_ij`
    /// ([`QueueKind::Crossbar`]) — as it enters the next hop.
    // detlint: hot
    #[inline(always)]
    pub(crate) fn pop_transfer(
        &mut self,
        kind: QueueKind,
        t: &Transfer,
    ) -> Result<InFlightPacket, PolicyError> {
        let cell = self.cell(t.input, t.output);
        let queue = match kind {
            QueueKind::Crossbar => {
                self.changes.xbar.mark(cell);
                self.xbar_mut(cell)
            }
            _ => {
                self.changes.voq.mark(cell);
                self.voq.get_mut(cell)
            }
        };
        let packet = mechanics::pop(queue, kind, Some(t.input), t.output)?;
        if kind != QueueKind::Crossbar && self.voq.get(cell).is_empty() {
            self.occupied[cell / 64] &= !(1 << (cell % 64));
        }
        Ok(InFlightPacket::new(
            t.input,
            t.output,
            t.preempt_if_full,
            packet,
        ))
    }

    /// A crossbar input subphase's move `Q_ij → C_ij`.
    // detlint: hot
    #[inline(always)]
    pub(crate) fn move_to_xbar(
        &mut self,
        stats: &mut StatsRecorder,
        faulted: bool,
        t: &Transfer,
    ) -> Result<(), PolicyError> {
        let p = self.pop_transfer(QueueKind::Input, t)?;
        let cell = self.cell(t.input, t.output);
        self.changes.xbar.mark(cell);
        mechanics::land(self.xbar_mut(cell), stats, QueueKind::Crossbar, faulted, p)
    }

    /// Insert a packet that has crossed the fabric into `Q_j` — the single
    /// landing site of the immediate path and the delay line.
    // detlint: hot
    #[inline(always)]
    pub(crate) fn deliver(
        &mut self,
        stats: &mut StatsRecorder,
        faulted: bool,
        p: InFlightPacket,
    ) -> Result<(), PolicyError> {
        let queue = self.outputs.get_mut(p.output as usize);
        mechanics::land(queue, stats, QueueKind::Output, faulted, p)
    }

    /// Transmission phase, one output: send the head of `Q_j`.
    // detlint: hot
    #[inline(always)]
    pub(crate) fn transmit(
        &mut self,
        stats: &mut StatsRecorder,
        slot: SlotId,
        output: PortId,
    ) -> Result<(), PolicyError> {
        let queue = self.outputs.get_mut(output.index());
        let packet = mechanics::pop(queue, QueueKind::Output, None, output)?;
        stats.on_transmit(&packet, slot, output.index());
        Ok(())
    }

    /// Append the checkpoint cells — each queue's packets head first, as
    /// [`QueueRef::iter`] yields them — to `snap`'s queue lists: row-major
    /// `Q_ij` / `C_ij` cells, ascending outputs.
    pub(crate) fn cells_out(&self, snap: &mut EngineSnapshot) {
        fn cells(s: &QueueStore) -> impl Iterator<Item = Vec<Packet>> + '_ {
            s.iter().map(|q| q.iter().copied().collect())
        }
        snap.input_queues.extend(cells(&self.voq));
        if let Some(xbar) = &self.xbar {
            let list = snap.crossbar_queues.get_or_insert_with(Vec::new);
            list.extend(cells(xbar));
        }
        snap.output_queues.extend(cells(&self.outputs));
    }

    /// Refill the (fresh) queues from the cells of `snap`. The caller has
    /// checked that `snap`'s queue layout is the switch's. Slots and
    /// handles are numbered afresh; only content crosses a checkpoint.
    pub(crate) fn refill(&mut self, snap: &EngineSnapshot) -> Result<(), SnapshotError> {
        let mut filled = fill(&mut self.voq, &snap.input_queues);
        if let (Some(xbar), Some(cells)) = (&mut self.xbar, &snap.crossbar_queues) {
            filled &= fill(xbar, cells);
        }
        filled &= fill(&mut self.outputs, &snap.output_queues);
        occupancy(&self.voq, &mut self.occupied);
        let msg = "serialized queue exceeds its capacity";
        filled
            .then_some(())
            .ok_or(SnapshotError::Format(msg.into()))
    }

    /// Verify every store: each queue within capacity and correctly sorted
    /// (value descending, id ascending — assumption A3), and each slab
    /// conserved; and each occupancy bit against its `Q_ij`. Returns a
    /// description of the first violation.
    pub(crate) fn check_invariants(&self) -> Result<(), String> {
        let mut want = vec![0; self.occupied.len()];
        occupancy(&self.voq, &mut want);
        if let Some(k) = (0..want.len()).find(|&k| want[k] != self.occupied[k]) {
            let cell = k * 64 + (want[k] ^ self.occupied[k]).trailing_zeros() as usize;
            return Err(format!("occupancy bit of input cell {cell} is stale"));
        }
        let named = [
            ("input queues (cells row-major)", Some(&self.voq)),
            ("crossbar queues (cells row-major)", self.xbar.as_ref()),
            ("output queues", Some(&self.outputs)),
        ];
        for (kind, store) in named.into_iter().filter_map(|(k, s)| Some((k, s?))) {
            store
                .check_invariants()
                .map_err(|e| format!("{kind}: {e}"))?;
        }
        Ok(())
    }
}

/// Set `bits` to one bit per cell of `store` (bit `c % 64` of word
/// `c / 64`), set iff the cell's queue is non-empty.
fn occupancy(store: &QueueStore, bits: &mut [u64]) {
    bits.fill(0);
    for (cell, queue) in store.iter().enumerate() {
        bits[cell / 64] |= u64::from(!queue.is_empty()) << (cell % 64);
    }
}

/// Insert each of `cells`' packets into the cell of `store` it lines up
/// with, in order; whether every packet fit.
fn fill(store: &mut QueueStore, cells: &[Vec<Packet>]) -> bool {
    cells.iter().enumerate().all(|(c, cell)| {
        let mut queue = store.get_mut(c);
        cell.iter().all(|p| queue.insert(*p).is_ok())
    })
}

/// The complete mutable state of one simulated switch: its queues plus the
/// configuration, the slot clock and the output snapshot its policies read.
#[derive(Debug, Clone)]
pub struct SwitchState {
    /// Switch geometry and capacities. snapshot: serialized
    config: SwitchConfig,
    /// Every queue of the switch. snapshot: serialized
    pub(crate) band: QueueBand,
    /// Current slot (advanced by the engine). snapshot: serialized
    pub(crate) slot: SlotId,
    /// The virtual output occupancy policies schedule against, refreshed by
    /// the engine at the top of every scheduling cycle. snapshot: transient
    /// — recomputed every cycle from the queues and the delay line.
    pub(crate) outputs: OutputSnapshot,
}

impl SwitchState {
    /// Fresh, empty switch in the given configuration. Panics if its
    /// queue stores cannot be reserved.
    pub fn new(config: SwitchConfig) -> Self {
        Self::try_new(config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fresh, empty switch in the given configuration, or the
    /// [`ConfigError::QueueReserve`] of a queue store the host could not
    /// reserve.
    pub(crate) fn try_new(config: SwitchConfig) -> Result<Self, ConfigError> {
        let band = QueueBand::try_new(&config)?;
        let mut outputs = OutputSnapshot::default();
        outputs.refresh(&band, &DelayCalendar::with_reserve(0, 0), None);
        Ok(SwitchState {
            config,
            band,
            slot: 0,
            outputs,
        })
    }

    /// The switch configuration.
    #[inline]
    pub fn config(&self) -> &SwitchConfig {
        &self.config
    }

    /// The fabric architecture.
    #[inline]
    pub fn fabric(&self) -> FabricKind {
        self.config.fabric()
    }

    /// Current slot.
    #[inline]
    pub fn slot(&self) -> SlotId {
        self.slot
    }

    /// Read-only view for policies: the whole switch.
    #[inline]
    pub fn view(&self) -> SwitchView<'_> {
        SwitchView {
            config: &self.config,
            band: &self.band,
            outputs: &self.outputs,
            slot: self.slot,
            shard: 0,
            shards: 1,
        }
    }
}

/// Read-only window onto a switch's queues, the only thing policies see.
/// [`SwitchState::view`] answers for every input row; a view restricted to
/// shard `s` of `K` (what a partitioned scheduler's worker reads) answers
/// for the rows `⌊sN/K⌋..⌊(s+1)N/K⌋` of [`SwitchView::input_range`] only,
/// and asking it for another row's queue is a programming error, caught by
/// a debug assertion. Outputs are the whole switch's in every view.
///
/// Everything an online algorithm may legally inspect — current queue
/// contents and capacities — is available; nothing about future arrivals
/// is. [`SwitchView::changes`] additionally exposes which queues were
/// dirtied since the policy's last scheduling call, so incremental
/// policies can refresh O(changes) state instead of rescanning. Admission
/// reads the landed queues; scheduling reads the output side through
/// [`SwitchView::outputs`].
#[derive(Clone, Copy)]
pub struct SwitchView<'a> {
    config: &'a SwitchConfig,
    band: &'a QueueBand,
    outputs: &'a OutputSnapshot,
    slot: SlotId,
    /// The view answers for shard `shard` of `shards` equal row ranges.
    shard: u32,
    shards: u32,
}

impl<'a> SwitchView<'a> {
    /// The same view restricted to the rows of shard `shard` of `shards`.
    #[inline]
    pub(crate) fn restrict(&self, shard: usize, shards: usize) -> Self {
        debug_assert!(shard < shards && shards <= u32::MAX as usize);
        SwitchView {
            shard: shard as u32,
            shards: shards as u32,
            ..*self
        }
    }

    /// The switch configuration.
    #[inline]
    pub fn config(&self) -> &'a SwitchConfig {
        self.config
    }

    /// Number of input ports `N`.
    #[inline]
    pub fn n_inputs(&self) -> usize {
        self.config.n_inputs
    }

    /// Number of output ports `M`.
    #[inline]
    pub fn n_outputs(&self) -> usize {
        self.config.n_outputs
    }

    /// Current slot.
    #[inline]
    pub fn slot(&self) -> SlotId {
        self.slot
    }

    /// The shard whose rows the view answers for: 0 for the whole switch.
    #[inline]
    pub fn shard(&self) -> usize {
        self.shard as usize
    }

    /// The input rows the view answers for: `0..N` for the whole switch,
    /// the shard's own rows for a restricted view.
    #[inline]
    pub fn input_range(&self) -> Range<usize> {
        share(
            self.shard as usize,
            self.shards as usize,
            self.config.n_inputs,
        )
    }

    /// Input queue `Q_ij`, `i` a row of [`SwitchView::input_range`].
    #[inline]
    pub fn input_queue(&self, input: PortId, output: PortId) -> QueueRef<'a> {
        debug_assert!(
            self.input_range().contains(&input.index()),
            "row outside the view"
        );
        self.band.voq(input, output)
    }

    /// Crossbar queue `C_ij`, `i` a row of the view; panics if the switch
    /// is a plain CIOQ (policies for the wrong fabric are a programming
    /// error, caught loudly).
    #[inline]
    pub fn crossbar_queue(&self, input: PortId, output: PortId) -> QueueRef<'a> {
        debug_assert!(
            self.input_range().contains(&input.index()),
            "row outside the view"
        );
        self.band.xbar(input, output)
    }

    /// Whether this switch has crossbar buffers.
    #[inline]
    pub fn has_crossbar(&self) -> bool {
        self.config.crossbar_capacity.is_some()
    }

    /// Output queue `Q_j` — the *landed*
    /// packets only. On a delayed fabric this is what admission and
    /// transmission see; scheduling eligibility must use
    /// [`SwitchView::outputs`] (or [`SwitchView::output_full`] /
    /// [`SwitchView::output_tail_value`]), which also count packets in
    /// flight.
    #[inline]
    pub fn output_queue(&self, output: PortId) -> QueueRef<'a> {
        self.band.output(output)
    }

    /// The output side as a scheduler must see it — the virtual occupancy
    /// of every output, landed packets plus packets in flight toward it.
    /// Exact during scheduling calls: each engine refreshes it at the top
    /// of every scheduling cycle, and nothing in a cycle moves an output
    /// before its policy call returns. Admission and transmission read the
    /// landed queues instead.
    #[inline]
    pub fn outputs(&self) -> &'a OutputSnapshot {
        self.outputs
    }

    /// Whether output `j` is full *as a scheduler must see it*: landed
    /// occupancy plus packets in flight through the fabric toward `j`.
    /// Identical to `output_queue(j).is_full()` on an immediate fabric.
    /// Read off [`SwitchView::outputs`], so exact during scheduling calls
    /// only.
    #[inline]
    pub fn output_full(&self, output: PortId) -> bool {
        self.outputs.is_full(output.index())
    }

    /// Least value of the virtual output queue `j` — the landed tail `v(l_j)` or the least value in flight toward `j`,
    /// whichever is smaller. `None` when the virtual queue is empty. This
    /// is the tail the preemption thresholds (PG's β, CPG's α) compare
    /// against. Exact during scheduling calls only, like
    /// [`SwitchView::output_full`].
    #[inline]
    pub fn output_tail_value(&self, output: PortId) -> Option<Value> {
        let j = output.index();
        self.outputs.tail_value(j, self.band.output(output))
    }

    /// The switch's queues dirtied since the engine's last scheduling call,
    /// over global cells `i·M + j` (every row's, whatever the view's
    /// range), plus the flush counter incremental policies use as a
    /// consistency handshake.
    #[inline]
    pub fn changes(&self) -> &'a ChangeLog {
        self.band.changes()
    }

    /// The VOQ request matrix, kept by the queues (so exact at every call,
    /// with no sync): bit `c % 64` of word `c / 64` is set iff the `Q_ij`
    /// of global cell `c = i·M + j` is non-empty, whatever the view's rows.
    #[inline]
    pub fn voq_occupancy(&self) -> &'a [u64] {
        &self.band.occupied
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, RunOptions};
    use crate::fault::{FaultPlan, FaultRuntime};
    use crate::policy::CioqPolicy;
    use crate::record::Recording;
    use crate::source::TraceSource;
    use crate::trace::Trace;
    use cioq_model::{Cycle, PacketId};

    fn packet(id: u64, value: Value, input: usize, output: usize) -> Packet {
        let (input, output) = (PortId::from(input), PortId::from(output));
        Packet::new(PacketId(id), value, 0, input, output)
    }

    /// A 5 × 7 buffered crossbar: non-square, so a row/column mix-up shows.
    fn wide_crossbar() -> SwitchConfig {
        SwitchConfig::builder(5, 7)
            .input_capacity(2)
            .output_capacity(2)
            .crossbar_capacity(1)
            .build()
            .expect("valid config")
    }

    /// The checkpoint cells of `band` in an otherwise empty snapshot of a
    /// `cfg` switch.
    fn cells(cfg: &SwitchConfig, band: &QueueBand) -> EngineSnapshot {
        let mut snap = Engine::new(cfg.clone(), RunOptions::default()).snapshot();
        snap.input_queues.clear();
        snap.crossbar_queues = None;
        snap.output_queues.clear();
        band.cells_out(&mut snap);
        snap
    }

    /// The empty queues of a `cfg` switch.
    fn band(cfg: &SwitchConfig) -> QueueBand {
        QueueBand::try_new(cfg).expect("small switch")
    }

    /// Put packets in all three queue families, through the band's own
    /// rules.
    fn fill(band: &mut QueueBand, stats: &mut StatsRecorder) {
        for (id, (i, j)) in [(0, 0), (1, 3), (2, 6), (4, 1), (4, 6), (2, 6)]
            .into_iter()
            .enumerate()
        {
            let p = packet(id as u64, 10 + id as Value, i, j);
            band.admit(stats, Admission::Accept, &p).unwrap();
        }
        let t = Transfer {
            input: PortId(4),
            output: PortId(6),
            preempt_if_full: false,
        };
        band.move_to_xbar(stats, false, &t).unwrap();
        for (id, j) in [(20, 0), (21, 4), (22, 6), (23, 6)] {
            let landing =
                InFlightPacket::new(PortId(0), PortId::from(j), false, packet(id, 7, 0, j));
            band.deliver(stats, false, landing).unwrap();
        }
    }

    #[test]
    fn fresh_state_is_empty() {
        let st = SwitchState::new(SwitchConfig::cioq(3, 4, 2));
        assert_eq!(st.band.residual_count(), 0);
        assert_eq!(st.band.residual_value(), 0);
        assert_eq!(st.slot(), 0);
        let v = st.view();
        assert_eq!(v.n_inputs(), 3);
        assert_eq!(v.n_outputs(), 3);
        assert!(!v.has_crossbar());
        assert!(v.input_queue(PortId(2), PortId(1)).is_empty());
        assert!(v.output_queue(PortId(0)).is_empty());
    }

    #[test]
    fn crossbar_state_has_crosspoint_queues() {
        let st = SwitchState::new(SwitchConfig::crossbar(2, 4, 1, 1));
        let v = st.view();
        assert!(v.has_crossbar());
        assert_eq!(v.crossbar_queue(PortId(1), PortId(0)).capacity(), 1);
    }

    #[test]
    #[should_panic(expected = "crossbar queue requested")]
    fn crossbar_access_on_cioq_panics() {
        let st = SwitchState::new(SwitchConfig::cioq(2, 4, 1));
        let _ = st.view().crossbar_queue(PortId(0), PortId(0));
    }

    #[test]
    fn residuals_track_queue_contents() {
        let mut st = SwitchState::new(SwitchConfig::cioq(2, 4, 1));
        let mut stats = StatsRecorder::new(2);
        let arrival = packet(1, 5, 0, 1);
        st.band
            .admit(&mut stats, Admission::Accept, &arrival)
            .unwrap();
        let landing = InFlightPacket::new(PortId(0), PortId(1), false, packet(2, 3, 0, 1));
        st.band.deliver(&mut stats, false, landing).unwrap();
        assert_eq!(st.band.residual_count(), 2);
        assert_eq!(st.band.residual_value(), 8);
    }

    #[test]
    fn band_takes_global_ports_and_marks_global_cells() {
        let cfg = wide_crossbar();
        let mut band = band(&cfg);
        let mut stats = StatsRecorder::new(cfg.n_outputs);

        let p = packet(0, 9, 4, 1);
        band.admit(&mut stats, Admission::Accept, &p).unwrap();
        assert_eq!(band.voq(PortId(4), PortId(1)).len(), 1);
        // Row-major over all seven columns: cell 4·7 + 1.
        assert_eq!(band.changes().dirty_voqs(), &[29]);
        assert!(band.changes().dirty_xbars().is_empty());
        band.flush();

        let t = Transfer {
            input: PortId(4),
            output: PortId(1),
            preempt_if_full: false,
        };
        band.move_to_xbar(&mut stats, false, &t).unwrap();
        assert!(band.voq(PortId(4), PortId(1)).is_empty());
        assert_eq!(band.xbar(PortId(4), PortId(1)).len(), 1);
        assert_eq!(band.changes().dirty_voqs(), &[29]);
        assert_eq!(band.changes().dirty_xbars(), &[29]);

        let landing = InFlightPacket::new(PortId(0), PortId(3), false, packet(1, 4, 0, 3));
        band.deliver(&mut stats, false, landing).unwrap();
        assert_eq!(band.output(PortId(3)).len(), 1);
        assert!(band.output(PortId(2)).is_empty());
        assert_eq!((band.residual_count(), band.residual_value()), (2, 13));
        band.transmit(&mut stats, 0, PortId(3)).unwrap();
        assert_eq!((band.residual_count(), band.residual_value()), (1, 9));
        assert_eq!(stats.per_output_transmitted[3], 1);
        assert_eq!(band.check_invariants(), Ok(()));
    }

    #[test]
    fn cells_round_trip_and_an_overfull_cell_is_the_restore_error() {
        let cfg = wide_crossbar();
        let mut stats = StatsRecorder::new(cfg.n_outputs);
        let mut whole = band(&cfg);
        fill(&mut whole, &mut stats);
        let mut snap = cells(&cfg, &whole);

        // Fresh queues refilled from the cells hold what was filled in.
        let mut again = band(&cfg);
        again.refill(&snap).unwrap();
        assert_eq!(again.voq(PortId(1), PortId(3)).len(), 1);
        assert_eq!(again.voq(PortId(2), PortId(6)).len(), 2);
        assert_eq!(again.xbar(PortId(4), PortId(6)).len(), 1);
        assert_eq!(again.output(PortId(6)).len(), 2);
        assert_eq!(again.residual_count(), whole.residual_count());
        assert_eq!(again.residual_value(), whole.residual_value());
        assert_eq!(cells(&cfg, &again), snap);

        // One packet too many in `Q_26` (capacity 2).
        snap.input_queues[2 * 7 + 6].push(packet(99, 1, 2, 6));
        let band_err = band(&cfg).refill(&snap).unwrap_err();
        assert_eq!(
            band_err.to_string(),
            "malformed snapshot: serialized queue exceeds its capacity"
        );
        let engine_err = Engine::restore(&snap, RunOptions::default())
            .err()
            .expect("restore refuses the same cell");
        assert_eq!(engine_err.to_string(), band_err.to_string());
    }

    /// A 3 × 70 switch with room for two packets per output: the outputs
    /// straddle a 64-bit word of `full_words`.
    fn straddling() -> SwitchConfig {
        SwitchConfig::builder(3, 70)
            .output_capacity(2)
            .build()
            .expect("valid config")
    }

    #[test]
    fn a_fresh_switch_answers_for_every_output() {
        let st = SwitchState::new(straddling());
        let view = st.view();
        for j in (0..70).map(PortId::from) {
            assert!(!view.output_full(j));
            assert_eq!(view.output_tail_value(j), None);
        }
        assert_eq!(view.outputs().full_words, [0, 0]);
    }

    /// The one refresh: landed packets, the calendar and the fault layer's
    /// retransmit FIFOs all count toward an output's virtual queue.
    #[test]
    fn the_refresh_counts_landed_in_flight_and_held_packets() {
        let mut st = SwitchState::new(straddling());
        let mut stats = StatsRecorder::new(70);
        let wire = |id, value, j| {
            let j = PortId::from(j);
            InFlightPacket::new(PortId(0), j, false, packet(id, value, 0, j.index()))
        };
        // Landed: two packets at output 3, one each at 63 and 64.
        for (id, value, j) in [(0, 9, 3), (1, 5, 3), (2, 8, 63), (3, 7, 64)] {
            st.band
                .deliver(&mut stats, false, wire(id, value, j))
                .unwrap();
        }
        // In flight: one each toward 63 and 64 (below 64's landed tail) and
        // toward 69, where nothing has landed.
        let mut cal = DelayCalendar::with_reserve(2, 3);
        for (id, value, j) in [(4, 6, 63), (5, 2, 64), (6, 4, 69)] {
            cal.dispatch(0, 0, 2, wire(id, value, j));
        }
        st.outputs.refresh(&st.band, &cal, None);
        let view = st.view();
        let outputs = view.outputs();
        // Full from landed packets alone, and only with those in flight.
        assert!(outputs.is_full(3) && view.output_full(PortId(3)));
        assert_eq!(outputs.tail[3], 5);
        assert!(outputs.is_full(63) && !view.output_queue(PortId(63)).is_full());
        assert_eq!(outputs.tail[63], 6);
        // The in-flight minimum below the landed tail is the tail.
        assert!(outputs.is_full(64));
        assert_eq!(outputs.tail[64], 2);
        assert_eq!(view.output_tail_value(PortId(64)), Some(2));
        assert_eq!(outputs.full_words, [1 << 3 | 1 << 63, 1 << 0]);
        // Not full, yet the virtual queue has a tail.
        assert!(!view.output_full(PortId(69)));
        assert_eq!(outputs.tail[69], 0);
        assert_eq!(view.output_tail_value(PortId(69)), Some(4));
        assert_eq!(view.output_tail_value(PortId(68)), None);

        // A packet held by a link-down pair fills output 69.
        let mut faults = FaultRuntime::new(FaultPlan::default(), 3, 70);
        faults.hold(2, 69, false, packet(7, 1, 2, 69));
        st.outputs.refresh(&st.band, &cal, Some(&faults));
        let outputs = st.view().outputs();
        assert!(outputs.is_full(69));
        assert_eq!((outputs.in_flight[69], outputs.tail[69]), (2, 1));
        assert_eq!(outputs.full_words[1], 1 << 0 | 1 << 5);
    }

    #[test]
    fn a_view_is_its_bands() {
        let mut whole = SwitchState::new(wide_crossbar());
        whole.slot = 7;
        let view = whole.view();
        assert_eq!(
            (view.input_range(), view.shard(), view.slot()),
            (0..5, 0, 7)
        );
        // Shard 2 of 3 over five rows: ⌊2·5/3⌋..⌊3·5/3⌋.
        let shard = view.restrict(2, 3);
        assert_eq!(
            (shard.input_range(), shard.shard(), shard.slot()),
            (3..5, 2, 7)
        );
        assert!(shard.crossbar_queue(PortId(4), PortId(6)).is_empty());
        // Outputs are the whole switch's in every view.
        assert!(shard.output_queue(PortId(0)).is_empty());
        // Shard and shard count are two `u32`s: three references, the
        // slot, and one word for both.
        let word = std::mem::size_of::<usize>();
        assert_eq!(std::mem::size_of::<SwitchView<'_>>(), 3 * word + 8 + 8);
    }

    /// Whether `Q_ij`'s occupancy bit is set.
    fn occupied(band: &QueueBand, i: usize, j: usize) -> bool {
        let cell = i * band.n_outputs() + j;
        band.occupied[cell / 64] >> (cell % 64) & 1 == 1
    }

    #[test]
    fn occupancy_bits_follow_each_empty_to_non_empty_change() {
        // 3 × 70: row 1 starts mid-word and straddles words 1 and 2.
        let cfg = SwitchConfig::builder(3, 70)
            .input_capacity(1)
            .build()
            .expect("valid config");
        let (mut band, mut stats) = (band(&cfg), StatsRecorder::new(70));
        assert!(band.occupied.iter().all(|&w| w == 0));
        band.admit(&mut stats, Admission::Accept, &packet(0, 5, 1, 60))
            .unwrap();
        assert!(occupied(&band, 1, 60) && !occupied(&band, 1, 59));
        // A preempting arrival keeps the queue non-empty, a rejected one
        // and a failed rule (a full queue) leave it as it was.
        let arrivals = [
            (Admission::AcceptPreemptingLeast, 1, 60),
            (Admission::Reject, 2, 3),
            (Admission::Accept, 1, 60),
        ];
        for (id, (decision, i, j)) in (1..).zip(arrivals) {
            let _ = band.admit(&mut stats, decision, &packet(id, 9, i, j));
        }
        assert!(occupied(&band, 1, 60) && !occupied(&band, 2, 3));
        let pop = |i, j| Transfer {
            input: PortId(i),
            output: PortId(j),
            preempt_if_full: false,
        };
        band.pop_transfer(QueueKind::Input, &pop(1, 60)).unwrap();
        assert!(!occupied(&band, 1, 60), "1 → 0 clears the bit");
        assert!(band.pop_transfer(QueueKind::Input, &pop(1, 60)).is_err());
        assert!(band.occupied.iter().all(|&w| w == 0));
        assert_eq!(band.check_invariants(), Ok(()));

        let mut stale = band.clone();
        stale.occupied[1] |= 1 << (70 + 5 - 64);
        let err = stale.check_invariants().unwrap_err();
        assert_eq!(err, "occupancy bit of input cell 75 is stale");
        stale = band.clone();
        stale.occupied[3] |= 1 << (210 - 192);
        let err = stale.check_invariants().unwrap_err();
        assert_eq!(err, "occupancy bit of input cell 210 is stale");
    }

    /// GM read off the occupancy bits alone: each row in turn takes its
    /// first non-empty `Q_ij` whose output is neither full nor taken. It
    /// reads no queue, so a stale bit shows as a different (or illegal)
    /// transfer.
    struct BitsGm;

    impl CioqPolicy for BitsGm {
        fn name(&self) -> &str {
            "bits-gm"
        }

        fn admit(&mut self, view: &SwitchView<'_>, p: &Packet) -> Admission {
            match view.input_queue(p.input, p.output).is_full() {
                true => Admission::Reject,
                false => Admission::Accept,
            }
        }

        fn schedule(&mut self, view: &SwitchView<'_>, _: Cycle, out: &mut Vec<Transfer>) {
            let (bits, m) = (view.voq_occupancy(), view.n_outputs());
            let mut taken = vec![false; m];
            for i in 0..view.n_inputs() {
                let open = |j: usize| !taken[j] && !view.output_full(PortId::from(j));
                let set = |j: usize| bits[(i * m + j) / 64] >> ((i * m + j) % 64) & 1 == 1;
                if let Some(j) = (0..m).find(|&j| set(j) && open(j)) {
                    taken[j] = true;
                    out.push(Transfer {
                        input: PortId::from(i),
                        output: PortId::from(j),
                        preempt_if_full: false,
                    });
                }
            }
        }
    }

    /// `refill` rebuilds the occupancy bits: a run restored from a
    /// checkpoint with packets in its VOQs matches, off the bits alone, as
    /// the straight run does from there.
    #[test]
    fn a_restored_run_matches_off_the_bits_as_the_straight_run_does() {
        let cfg = SwitchConfig::builder(3, 70)
            .input_capacity(3)
            .output_capacity(2)
            .build()
            .expect("valid config");
        // Two arrivals per input per slot for 30 slots, one transfer out:
        // the VOQs fill and stay non-empty.
        let trace = Trace::from_tuples((0..30u64).flat_map(|t| {
            (0..3usize).flat_map(move |i| {
                let j = |k: u64| PortId::from(((t * 13 + k * 29) as usize + i * 7) % 70);
                [(t, PortId::from(i), j(0), 1), (t, PortId::from(i), j(1), 1)]
            })
        }));
        let options = RunOptions {
            checkpoint_every: Some(10),
            ..RunOptions::default()
        };
        let mut straight = Recording::new(BitsGm);
        let full = Engine::new(cfg, options.clone())
            .run_cioq_full(&mut straight, &mut TraceSource::new(&trace))
            .unwrap();
        let snap = &full.checkpoints[1];
        assert!(snap.input_queues.iter().any(|q| !q.is_empty()));

        let mut resumed = Recording::new(BitsGm);
        let rest = Engine::restore(snap, options)
            .unwrap()
            .run_cioq_full(
                &mut resumed,
                &mut TraceSource::resume_at(&trace, snap.slot()),
            )
            .unwrap();
        let (straight, resumed) = (straight.schedule.transfers, resumed.schedule.transfers);
        assert_eq!(resumed, straight[snap.slot() as usize..]);
        assert_eq!(rest.report, full.report);
    }

    /// A restricted view never answers for another shard's row: in debug
    /// builds the view's range check catches it.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "row outside the view")]
    fn a_row_outside_the_band_is_never_another_bands_queue() {
        let st = SwitchState::new(wide_crossbar());
        let _ = st.view().restrict(2, 3).input_queue(PortId(1), PortId(0));
    }
}
