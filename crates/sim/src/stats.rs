//! Benefit and loss accounting for a simulation run.

use cioq_model::{Benefit, Packet, SlotId};
use std::collections::VecDeque;

/// Where lost packets were lost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LossBreakdown {
    /// Rejected on arrival (count). snapshot: serialized
    pub rejected: u64,
    /// Rejected on arrival (total value). snapshot: serialized
    pub rejected_value: u128,
    /// Preempted from an input queue. snapshot: serialized
    pub preempted_input: u64,
    /// Value preempted from input queues. snapshot: serialized
    pub preempted_input_value: u128,
    /// Preempted from a crossbar queue. snapshot: serialized
    pub preempted_crossbar: u64,
    /// Value preempted from crossbar queues. snapshot: serialized
    pub preempted_crossbar_value: u128,
    /// Preempted from an output queue. snapshot: serialized
    pub preempted_output: u64,
    /// Value preempted from output queues. snapshot: serialized
    pub preempted_output_value: u128,
    /// Dropped by an injected fault (link-down retransmit overflow, or a
    /// landing/crosspoint overflow under a fault plan). snapshot: serialized
    pub dropped: u64,
    /// Value dropped by injected faults. snapshot: serialized
    pub dropped_value: u128,
}

impl LossBreakdown {
    /// Total lost packets.
    pub fn total_count(&self) -> u64 {
        self.rejected
            + self.preempted_input
            + self.preempted_crossbar
            + self.preempted_output
            + self.dropped
    }

    /// Total lost value.
    pub fn total_value(&self) -> u128 {
        self.rejected_value
            + self.preempted_input_value
            + self.preempted_crossbar_value
            + self.preempted_output_value
            + self.dropped_value
    }
}

/// Mutable statistics recorder owned by the engine during a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatsRecorder {
    /// Packets that arrived (offered load). snapshot: serialized
    pub arrived: u64,
    /// Total offered value. snapshot: serialized
    pub arrived_value: u128,
    /// Packets accepted into input queues. snapshot: serialized
    pub accepted: u64,
    /// CIOQ fabric transfers / crossbar output-subphase transfers.
    /// snapshot: serialized
    pub transferred: u64,
    /// Crossbar input-subphase transfers (0 for CIOQ). snapshot: serialized
    pub transferred_to_crossbar: u64,
    /// Packets transmitted out of the switch. snapshot: serialized
    pub transmitted: u64,
    /// Benefit: total transmitted value (the objective of the paper).
    /// snapshot: serialized
    pub benefit: Benefit,
    /// Loss accounting. snapshot: serialized
    pub losses: LossBreakdown,
    /// Packets re-dispatched after a link-down window released them.
    /// snapshot: serialized
    pub retransmitted: u64,
    /// Sum of per-packet latency (transmission slot − arrival slot), for
    /// transmitted packets. snapshot: serialized
    pub latency_sum: u64,
    /// Histogram of latencies in power-of-two buckets: index k counts
    /// latencies in `[2^(k-1), 2^k)`, index 0 counts latency 0.
    /// snapshot: serialized
    pub latency_histogram: [u64; 24],
    /// Per-output transmitted packet counts. snapshot: serialized
    pub per_output_transmitted: Vec<u64>,
}

impl StatsRecorder {
    /// New recorder for a switch with `n_outputs` output ports.
    pub fn new(n_outputs: usize) -> Self {
        StatsRecorder {
            per_output_transmitted: vec![0; n_outputs],
            ..Default::default()
        }
    }

    /// Packets still buffered somewhere in the switch (queues, delay line,
    /// fault holds), from the books: arrived less transmitted less lost —
    /// the conservation identity the debug auditor checks every slot
    /// against a walk of the queues, read here in O(1).
    pub(crate) fn buffered(&self) -> u64 {
        self.arrived - self.transmitted - self.losses.total_count()
    }

    pub(crate) fn on_arrival(&mut self, p: &Packet) {
        self.arrived += 1;
        self.arrived_value += p.value as u128;
    }

    pub(crate) fn on_accept(&mut self) {
        self.accepted += 1;
    }

    pub(crate) fn on_reject(&mut self, p: &Packet) {
        self.losses.rejected += 1;
        self.losses.rejected_value += p.value as u128;
    }

    pub(crate) fn on_preempt_input(&mut self, p: &Packet) {
        self.losses.preempted_input += 1;
        self.losses.preempted_input_value += p.value as u128;
    }

    pub(crate) fn on_preempt_crossbar(&mut self, p: &Packet) {
        self.losses.preempted_crossbar += 1;
        self.losses.preempted_crossbar_value += p.value as u128;
    }

    pub(crate) fn on_preempt_output(&mut self, p: &Packet) {
        self.losses.preempted_output += 1;
        self.losses.preempted_output_value += p.value as u128;
    }

    pub(crate) fn on_transfer(&mut self) {
        self.transferred += 1;
    }

    pub(crate) fn on_drop(&mut self, p: &Packet) {
        self.losses.dropped += 1;
        self.losses.dropped_value += p.value as u128;
    }

    pub(crate) fn on_retransmit(&mut self) {
        self.retransmitted += 1;
    }

    pub(crate) fn on_transfer_to_crossbar(&mut self) {
        self.transferred_to_crossbar += 1;
    }

    pub(crate) fn on_transmit(&mut self, p: &Packet, slot: SlotId, output: usize) {
        self.transmitted += 1;
        self.benefit.add(p.value);
        let latency = slot.saturating_sub(p.arrival);
        self.latency_sum += latency;
        let bucket = if latency == 0 {
            0
        } else {
            (64 - (latency.leading_zeros() as usize)).min(self.latency_histogram.len() - 1)
        };
        self.latency_histogram[bucket] += 1;
        self.per_output_transmitted[output] += 1;
    }

    /// Freeze into a report, folding in what is still buffered at the end.
    pub fn finish(
        self,
        policy: String,
        slots: SlotId,
        residual_count: u64,
        residual_value: u128,
    ) -> RunReport {
        RunReport {
            policy,
            slots,
            arrived: self.arrived,
            arrived_value: self.arrived_value,
            accepted: self.accepted,
            transferred: self.transferred,
            transferred_to_crossbar: self.transferred_to_crossbar,
            transmitted: self.transmitted,
            benefit: self.benefit,
            losses: self.losses,
            retransmitted: self.retransmitted,
            latency_sum: self.latency_sum,
            latency_histogram: self.latency_histogram,
            per_output_transmitted: self.per_output_transmitted,
            residual_count,
            residual_value,
            fabric_delay: 0,
            window: None,
        }
    }
}

/// One slot's worth of activity inside a stats window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowSlot {
    /// The slot this entry covers.
    pub slot: SlotId,
    /// Packets that arrived during the slot.
    pub arrived: u64,
    /// Packets transmitted during the slot.
    pub transmitted: u64,
    /// Value transmitted during the slot.
    pub benefit: u128,
    /// Packets lost (rejected, preempted or dropped) during the slot.
    pub lost: u64,
}

/// Bounded sliding window over per-slot activity: the ring-buffered
/// counterpart of the cumulative [`StatsRecorder`], sized for unbounded
/// (service-mode) runs. Enabled with
/// [`RunOptions::stats_window`](crate::RunOptions); memory is O(window)
/// regardless of run length.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowedStats {
    /// Window size in slots (≥ 1). snapshot: serialized
    window: usize,
    /// Ring of the most recent `window` per-slot entries, oldest first.
    /// snapshot: serialized
    entries: VecDeque<WindowSlot>,
    /// Cumulative arrivals at the last roll. snapshot: transient — equals
    /// the recorder's totals at every slot boundary; rebuilt on restore.
    prev_arrived: u64,
    /// Cumulative transmissions at the last roll. snapshot: transient —
    /// rebuilt from the restored recorder.
    prev_transmitted: u64,
    /// Cumulative benefit at the last roll. snapshot: transient — rebuilt
    /// from the restored recorder.
    prev_benefit: u128,
    /// Cumulative losses at the last roll. snapshot: transient — rebuilt
    /// from the restored recorder.
    prev_lost: u64,
}

impl WindowedStats {
    /// An empty window of `window ≥ 1` slots.
    pub fn new(window: usize) -> Self {
        assert!(window >= 1, "stats window must cover at least one slot");
        WindowedStats {
            window,
            entries: VecDeque::with_capacity(window + 1),
            prev_arrived: 0,
            prev_transmitted: 0,
            prev_benefit: 0,
            prev_lost: 0,
        }
    }

    /// Rebuild a window from serialized parts: the configured size, the
    /// ring entries (oldest first) and the cumulative recorder totals at
    /// the snapshot boundary (which seed the transient delta baseline).
    /// Rejects parts that cannot be an honest restore — a zero window, or
    /// more entries than the window holds (silently evicting the oldest
    /// would forge a window that never existed; loud rejection matches
    /// the fabric-mismatch precedent).
    ///
    /// `window` is a number read from snapshot bytes. It reserves the ring
    /// up front, as [`WindowedStats::new`] does, only when `trusted` — the
    /// caller's own options ask for the same size; otherwise the ring holds
    /// what the decoded entries need and grows as slots roll in.
    pub(crate) fn from_parts(
        window: usize,
        entries: Vec<WindowSlot>,
        stats: &StatsRecorder,
        trusted: bool,
    ) -> Result<Self, String> {
        if window == 0 {
            return Err("stats window must cover at least one slot".to_string());
        }
        if entries.len() > window {
            return Err(format!(
                "stats window snapshot holds {} entries but covers only {window} slots",
                entries.len()
            ));
        }
        let mut entries = VecDeque::from(entries);
        if trusted {
            entries.reserve(window + 1 - entries.len());
        }
        Ok(WindowedStats {
            window,
            entries,
            prev_arrived: stats.arrived,
            prev_transmitted: stats.transmitted,
            prev_benefit: stats.benefit.0,
            prev_lost: stats.losses.total_count(),
        })
    }

    /// Fold the end-of-slot cumulative totals into a per-slot entry,
    /// evicting the oldest entry once the window is full.
    pub(crate) fn roll(&mut self, slot: SlotId, stats: &StatsRecorder) {
        let lost = stats.losses.total_count();
        self.entries.push_back(WindowSlot {
            slot,
            arrived: stats.arrived - self.prev_arrived,
            transmitted: stats.transmitted - self.prev_transmitted,
            benefit: stats.benefit.0 - self.prev_benefit,
            lost: lost - self.prev_lost,
        });
        if self.entries.len() > self.window {
            self.entries.pop_front();
        }
        self.prev_arrived = stats.arrived;
        self.prev_transmitted = stats.transmitted;
        self.prev_benefit = stats.benefit.0;
        self.prev_lost = lost;
    }

    /// Configured window size in slots.
    #[inline]
    pub fn window(&self) -> usize {
        self.window
    }

    /// The retained per-slot entries, oldest first (at most `window`).
    pub fn entries(&self) -> impl Iterator<Item = &WindowSlot> {
        self.entries.iter()
    }

    /// Number of slots currently covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no slot has been rolled in yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Packets that arrived within the window.
    pub fn arrived(&self) -> u64 {
        self.entries.iter().map(|e| e.arrived).sum()
    }

    /// Packets transmitted within the window.
    pub fn transmitted(&self) -> u64 {
        self.entries.iter().map(|e| e.transmitted).sum()
    }

    /// Value transmitted within the window.
    pub fn benefit(&self) -> u128 {
        self.entries.iter().map(|e| e.benefit).sum()
    }

    /// Fraction of the window's arrivals that were transmitted.
    pub fn throughput(&self) -> f64 {
        let arrived = self.arrived();
        if arrived == 0 {
            1.0
        } else {
            self.transmitted() as f64 / arrived as f64
        }
    }
}

/// Immutable summary of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Policy name.
    pub policy: String,
    /// Number of slots simulated.
    pub slots: SlotId,
    /// Offered packets.
    pub arrived: u64,
    /// Offered value.
    pub arrived_value: u128,
    /// Packets accepted at input queues.
    pub accepted: u64,
    /// Fabric transfers into output queues.
    pub transferred: u64,
    /// Crossbar input-subphase transfers.
    pub transferred_to_crossbar: u64,
    /// Packets transmitted.
    pub transmitted: u64,
    /// Total transmitted value — the objective.
    pub benefit: Benefit,
    /// Loss accounting.
    pub losses: LossBreakdown,
    /// Packets re-dispatched after a link-down window released them.
    pub retransmitted: u64,
    /// Sum of latencies of transmitted packets.
    pub latency_sum: u64,
    /// Power-of-two latency histogram.
    pub latency_histogram: [u64; 24],
    /// Per-output transmitted counts.
    pub per_output_transmitted: Vec<u64>,
    /// Packets still buffered when the run ended.
    pub residual_count: u64,
    /// Value still buffered when the run ended (including packets in
    /// flight through a delayed fabric).
    pub residual_value: u128,
    /// Largest per-pair fabric latency (slots between dispatch and
    /// landing) the run was executed under; 0 = the paper's immediate
    /// fabric. Set by the engine from its [`FabricSpec`](crate::FabricSpec)
    /// — a topology-aware run reports its worst path here.
    pub fabric_delay: SlotId,
    /// Sliding per-slot window over the tail of the run, present iff the
    /// run enabled [`RunOptions::stats_window`](crate::RunOptions)
    /// (sequential engine only).
    pub window: Option<WindowedStats>,
}

impl RunReport {
    /// Fraction of offered packets transmitted.
    pub fn throughput(&self) -> f64 {
        if self.arrived == 0 {
            1.0
        } else {
            self.transmitted as f64 / self.arrived as f64
        }
    }

    /// Fraction of offered value transmitted.
    pub fn value_throughput(&self) -> f64 {
        if self.arrived_value == 0 {
            1.0
        } else {
            self.benefit.0 as f64 / self.arrived_value as f64
        }
    }

    /// Mean latency of transmitted packets in slots.
    pub fn mean_latency(&self) -> f64 {
        if self.transmitted == 0 {
            0.0
        } else {
            self.latency_sum as f64 / self.transmitted as f64
        }
    }

    /// Conservation law every legal run satisfies:
    /// `arrived == transmitted + lost + residual` (counts), and likewise for
    /// value. Returns `Err` with a description on violation.
    pub fn check_conservation(&self) -> Result<(), String> {
        conservation(
            (self.arrived, self.arrived_value),
            (self.transmitted, self.benefit.0),
            &self.losses,
            (self.residual_count, self.residual_value),
        )
    }
}

/// The conservation identity, for packets and for value: what `arrived`
/// equals what was `sent`, plus `losses`, plus the `residual` still
/// buffered. Each argument pair is (packets, value). The one statement of
/// the rule, for the end-of-run report and the per-slot audit alike.
pub(crate) fn conservation(
    arrived: (u64, u128),
    sent: (u64, u128),
    losses: &LossBreakdown,
    residual: (u64, u128),
) -> Result<(), String> {
    let lost = (losses.total_count(), losses.total_value());
    if arrived.0 != sent.0 + lost.0 + residual.0 {
        return Err(format!(
            "packet conservation violated: arrived {} != transmitted {} + lost {} + residual {}",
            arrived.0, sent.0, lost.0, residual.0
        ));
    }
    if arrived.1 != sent.1 + lost.1 + residual.1 {
        return Err(format!(
            "value conservation violated: arrived {} != benefit {} + lost {} + residual {}",
            arrived.1, sent.1, lost.1, residual.1
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cioq_model::{PacketId, PortId};

    fn pkt(id: u64, value: u64, arrival: SlotId) -> Packet {
        Packet::new(PacketId(id), value, arrival, PortId(0), PortId(0))
    }

    #[test]
    fn accounting_flows_to_report() {
        let mut s = StatsRecorder::new(2);
        let a = pkt(0, 5, 0);
        let b = pkt(1, 3, 0);
        let c = pkt(2, 2, 1);
        s.on_arrival(&a);
        s.on_arrival(&b);
        s.on_arrival(&c);
        s.on_accept();
        s.on_accept();
        s.on_reject(&c);
        s.on_transfer();
        s.on_transmit(&a, 4, 1);
        let r = s.finish("test".into(), 5, 1, 3);
        assert_eq!(r.arrived, 3);
        assert_eq!(r.benefit, Benefit(5));
        assert_eq!(r.losses.rejected, 1);
        assert_eq!(r.per_output_transmitted, vec![0, 1]);
        assert!(r.check_conservation().is_ok());
        assert!((r.throughput() - 1.0 / 3.0).abs() < 1e-12);
        assert!((r.mean_latency() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn from_parts_rejects_dishonest_restores() {
        let stats = StatsRecorder::new(1);
        let entry = |slot| WindowSlot {
            slot,
            arrived: 0,
            transmitted: 0,
            benefit: 0,
            lost: 0,
        };
        assert!(WindowedStats::from_parts(0, vec![], &stats, true).is_err());
        assert!(
            WindowedStats::from_parts(2, vec![entry(0), entry(1), entry(2)], &stats, true).is_err(),
            "three entries cannot restore into a two-slot window"
        );
        let ok = WindowedStats::from_parts(2, vec![entry(0), entry(1)], &stats, true).unwrap();
        assert_eq!(ok.window(), 2);
        assert_eq!(ok.len(), 2);
    }

    #[test]
    fn conservation_catches_mismatch() {
        let mut s = StatsRecorder::new(1);
        s.on_arrival(&pkt(0, 5, 0));
        // Packet vanished: never accepted/rejected/transmitted.
        let r = s.finish("bad".into(), 1, 0, 0);
        assert!(r.check_conservation().is_err());
    }

    #[test]
    fn latency_histogram_buckets() {
        let mut s = StatsRecorder::new(1);
        for (arr, now) in [(0u64, 0u64), (0, 1), (0, 2), (0, 8)] {
            let p = pkt(arr, 1, arr);
            s.on_arrival(&p);
            s.on_transmit(&p, now, 0);
        }
        // latencies 0,1,2,8 -> buckets 0,1,2,4
        assert_eq!(s.latency_histogram[0], 1);
        assert_eq!(s.latency_histogram[1], 1);
        assert_eq!(s.latency_histogram[2], 1);
        assert_eq!(s.latency_histogram[4], 1);
    }
}
