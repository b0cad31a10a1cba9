//! Switch state: the queues of one switch instance, plus the read-only view
//! handed to policies.

use crate::changes::ChangeLog;
use crate::transport::virtualq;
use cioq_model::{FabricKind, PortId, SlotId, SwitchConfig, Value};
use cioq_queues::{Grid, InFlight, SortedQueue};

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

/// The complete mutable state of one simulated switch.
#[derive(Debug, Clone)]
pub struct SwitchState {
    /// Switch geometry and capacities. snapshot: serialized
    config: SwitchConfig,
    /// `Q_ij` — input queues, one per (input port, output port).
    /// snapshot: serialized
    pub(crate) input_queues: Grid<SortedQueue>,
    /// `C_ij` — crossbar queues (empty grid for plain CIOQ).
    /// snapshot: serialized
    pub(crate) crossbar_queues: Option<Grid<SortedQueue>>,
    /// `Q_j` — output queues, one per output port. snapshot: serialized
    pub(crate) output_queues: Vec<SortedQueue>,
    /// Current slot (advanced by the engine). snapshot: serialized
    pub(crate) slot: SlotId,
    /// Queues dirtied since the engine's last flush (see [`ChangeLog`]).
    /// snapshot: transient — a restored run uses fresh policies, whose
    /// caches full-rebuild on the flush-counter mismatch (the
    /// deterministic rebuild seam), so dirty sets need not survive.
    pub(crate) changes: ChangeLog,
    /// Packets dispatched into the fabric but not yet landed (empty at all
    /// times on an immediate fabric; see [`crate::transport`]).
    /// snapshot: transient — rebuilt by replaying `dispatch` for every
    /// serialized calendar landing and fault-held packet.
    pub(crate) inflight: InFlight,
}

impl SwitchState {
    /// Fresh, empty switch in the given configuration.
    pub fn new(config: SwitchConfig) -> Self {
        let input_queues = Grid::from_fn(config.n_inputs, config.n_outputs, |_, _| {
            SortedQueue::new(config.input_capacity)
        });
        let crossbar_queues = config.crossbar_capacity.map(|bc| {
            Grid::from_fn(config.n_inputs, config.n_outputs, |_, _| {
                SortedQueue::new(bc)
            })
        });
        let output_queues = (0..config.n_outputs)
            .map(|_| SortedQueue::new(config.output_capacity))
            .collect();
        let changes = ChangeLog::new(
            config.n_inputs,
            config.n_outputs,
            config.crossbar_capacity.is_some(),
        );
        let inflight = InFlight::new(config.n_outputs);
        SwitchState {
            config,
            input_queues,
            crossbar_queues,
            output_queues,
            slot: 0,
            changes,
            inflight,
        }
    }

    /// Mark input queue `Q_ij` dirty.
    #[inline]
    pub(crate) fn note_voq(&mut self, input: PortId, output: PortId) {
        self.changes
            .voq
            .mark(input.index() * self.config.n_outputs + output.index());
    }

    /// Mark crossbar queue `C_ij` dirty.
    #[inline]
    pub(crate) fn note_xbar(&mut self, input: PortId, output: PortId) {
        self.changes
            .xbar
            .mark(input.index() * self.config.n_outputs + output.index());
    }

    /// Mark output queue `Q_j` dirty.
    #[inline]
    pub(crate) fn note_output(&mut self, output: PortId) {
        self.changes.output.mark(output.index());
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

    /// Read-only view for policies.
    #[inline]
    pub fn view(&self) -> SwitchView<'_> {
        SwitchView { state: self }
    }

    /// Total value still buffered anywhere in the switch.
    pub fn residual_value(&self) -> u128 {
        let mut total: u128 = self
            .input_queues
            .iter()
            .map(|(_, _, q)| q.total_value())
            .sum();
        if let Some(xq) = &self.crossbar_queues {
            total += xq.iter().map(|(_, _, q)| q.total_value()).sum::<u128>();
        }
        total += self
            .output_queues
            .iter()
            .map(|q| q.total_value())
            .sum::<u128>();
        total + self.inflight.total_value()
    }

    /// Total number of packets still buffered anywhere in the switch.
    pub fn residual_count(&self) -> u64 {
        let mut total: u64 = self
            .input_queues
            .iter()
            .map(|(_, _, q)| q.len() as u64)
            .sum();
        if let Some(xq) = &self.crossbar_queues {
            total += xq.iter().map(|(_, _, q)| q.len() as u64).sum::<u64>();
        }
        total += self
            .output_queues
            .iter()
            .map(|q| q.len() as u64)
            .sum::<u64>();
        total + self.inflight.total()
    }
}

/// Read-only window onto a [`SwitchState`], the only thing policies see.
///
/// Everything an online algorithm may legally inspect — current queue
/// contents and capacities — is available; nothing about future arrivals
/// is. [`SwitchView::changes`] additionally exposes which queues were
/// dirtied since the policy's last scheduling call, so incremental
/// policies can refresh O(changes) state instead of rescanning.
#[derive(Clone, Copy)]
pub struct SwitchView<'a> {
    state: &'a SwitchState,
}

impl<'a> SwitchView<'a> {
    /// The switch configuration.
    #[inline]
    pub fn config(&self) -> &'a SwitchConfig {
        &self.state.config
    }

    /// Number of input ports `N`.
    #[inline]
    pub fn n_inputs(&self) -> usize {
        self.state.config.n_inputs
    }

    /// Number of output ports `M`.
    #[inline]
    pub fn n_outputs(&self) -> usize {
        self.state.config.n_outputs
    }

    /// Current slot.
    #[inline]
    pub fn slot(&self) -> SlotId {
        self.state.slot
    }

    /// Input queue `Q_ij`.
    #[inline]
    pub fn input_queue(&self, input: PortId, output: PortId) -> &'a SortedQueue {
        self.state.input_queues.at(input, output)
    }

    /// Crossbar queue `C_ij`; panics if the switch is a plain CIOQ (policies
    /// for the wrong fabric are a programming error, caught loudly).
    #[inline]
    pub fn crossbar_queue(&self, input: PortId, output: PortId) -> &'a SortedQueue {
        self.state
            .crossbar_queues
            .as_ref()
            .expect("crossbar queue requested on a CIOQ switch")
            .at(input, output)
    }

    /// Whether this switch has crossbar buffers.
    #[inline]
    pub fn has_crossbar(&self) -> bool {
        self.state.crossbar_queues.is_some()
    }

    /// Output queue `Q_j` — the *landed* packets only. On a delayed fabric
    /// this is what transmission sees; scheduling eligibility must use
    /// [`SwitchView::output_full`] / [`SwitchView::output_tail_value`],
    /// which also count packets in flight.
    #[inline]
    pub fn output_queue(&self, output: PortId) -> &'a SortedQueue {
        &self.state.output_queues[output.index()]
    }

    /// Whether output `j` is full *as a scheduler must see it*: landed
    /// occupancy plus packets in flight through the fabric toward `j`.
    /// Identical to `output_queue(j).is_full()` on an immediate fabric.
    #[inline]
    pub fn output_full(&self, output: PortId) -> bool {
        let j = output.index();
        virtualq::full(&self.state.output_queues[j], self.state.inflight.len(j))
    }

    /// Least value of the virtual output queue `j` — the landed tail
    /// `v(l_j)` or the least value in flight toward `j`, whichever is
    /// smaller. `None` when the virtual queue is empty. This is the tail
    /// the preemption thresholds (PG's β, CPG's α) compare against.
    #[inline]
    pub fn output_tail_value(&self, output: PortId) -> Option<Value> {
        let j = output.index();
        virtualq::tail_value(
            &self.state.output_queues[j],
            self.state.inflight.min_value(j),
        )
    }

    /// Queues dirtied since the engine's last scheduling call, plus the
    /// flush counter incremental policies use as a consistency handshake.
    #[inline]
    pub fn changes(&self) -> &'a ChangeLog {
        &self.state.changes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cioq_model::{Packet, PacketId};

    #[test]
    fn fresh_state_is_empty() {
        let st = SwitchState::new(SwitchConfig::cioq(3, 4, 2));
        assert_eq!(st.residual_count(), 0);
        assert_eq!(st.residual_value(), 0);
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
        st.input_queues
            .at_mut(PortId(0), PortId(1))
            .insert(Packet::new(PacketId(1), 5, 0, PortId(0), PortId(1)))
            .unwrap();
        st.output_queues[1]
            .insert(Packet::new(PacketId(2), 3, 0, PortId(0), PortId(1)))
            .unwrap();
        assert_eq!(st.residual_count(), 2);
        assert_eq!(st.residual_value(), 8);
    }
}
