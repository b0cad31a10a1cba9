//! The decision vocabulary policies use to drive the engine.

use crate::state::SwitchView;
use cioq_model::{Cycle, Packet, PortId};
use std::fmt;

/// Decision for one arriving packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Discard the packet (counts as *rejected*).
    Reject,
    /// Insert into `Q_{in(p), out(p)}`; [`PolicyError::QueueFull`] if full.
    Accept,
    /// Preempt (drop) the least-valuable packet of the full queue, then
    /// insert. [`PolicyError::PreemptOnNonFull`] if the queue is not full.
    AcceptPreemptingLeast,
}

/// One move along pair `(i, j)` within a scheduling cycle: the head `g` of
/// the source queue of cell `(i, j)` leaves for the next hop. Which queues the move
/// connects is set by the phase, not by the type: a CIOQ cycle moves
/// `Q_ij → Q_j` and its set must be a matching; a crossbar input subphase
/// moves `Q_ij → C_ij` (≤ 1 per input port), its output subphase
/// `C_ij → Q_j` (≤ 1 per output port).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transfer {
    /// Input port (row) `i`.
    pub input: PortId,
    /// Output port (column) `j`.
    pub output: PortId,
    /// If the destination queue is full: `true` preempts its least packet
    /// first, `false` is an error.
    pub preempt_if_full: bool,
}

/// A crossbar input-subphase [`Transfer`]. Stays only for the benchmark
/// package, which names it.
pub type InputTransfer = Transfer;

/// A crossbar output-subphase [`Transfer`]. Stays only for the benchmark
/// package, which names it.
pub type OutputTransfer = Transfer;

/// Decision for one output queue in the transmission phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransmitChoice {
    /// Send nothing from this output queue this slot.
    Hold,
    /// Send the head `g` of the output queue.
    Send,
}

/// A scheduling policy for CIOQ switches (GM, PG, the baselines).
pub trait CioqPolicy {
    /// Human-readable policy name (used in reports and experiment tables).
    fn name(&self) -> &str;

    /// Arrival phase: decide each packet as it arrives. The view reflects
    /// all effects of earlier arrivals in the same slot.
    fn admit(&mut self, view: &SwitchView<'_>, packet: &Packet) -> Admission;

    /// Scheduling cycle `T[s]`: append this cycle's transfers to `out`
    /// (cleared by the engine). Must form a matching.
    fn schedule(&mut self, view: &SwitchView<'_>, cycle: Cycle, out: &mut Vec<Transfer>);

    /// Transmission phase, one call per output port.
    ///
    /// Default: send the greatest-value packet when non-empty — the
    /// behaviour of every algorithm in the paper.
    fn transmit(&mut self, view: &SwitchView<'_>, output: PortId) -> TransmitChoice {
        if view.output_queue(output).is_empty() {
            TransmitChoice::Hold
        } else {
            TransmitChoice::Send
        }
    }
}

/// A scheduling policy for buffered crossbar switches (CGU, CPG).
pub trait CrossbarPolicy {
    /// Human-readable policy name.
    fn name(&self) -> &str;

    /// Arrival phase (same contract as [`CioqPolicy::admit`]).
    fn admit(&mut self, view: &SwitchView<'_>, packet: &Packet) -> Admission;

    /// Input subphase of cycle `T[s]`: ≤ 1 transfer per input port.
    fn schedule_input(&mut self, view: &SwitchView<'_>, cycle: Cycle, out: &mut Vec<Transfer>);

    /// Output subphase of cycle `T[s]`: ≤ 1 transfer per output port. Runs
    /// after the input subphase; the view includes its effects.
    fn schedule_output(&mut self, view: &SwitchView<'_>, cycle: Cycle, out: &mut Vec<Transfer>);

    /// Transmission phase, one call per output port (default as in CIOQ).
    fn transmit(&mut self, view: &SwitchView<'_>, output: PortId) -> TransmitChoice {
        if view.output_queue(output).is_empty() {
            TransmitChoice::Hold
        } else {
            TransmitChoice::Send
        }
    }
}

/// A borrowed policy is a policy, so wrappers that own a sized `P` (the
/// recorders) can wrap a `&mut dyn CioqPolicy`.
impl<P: CioqPolicy + ?Sized> CioqPolicy for &mut P {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn admit(&mut self, view: &SwitchView<'_>, packet: &Packet) -> Admission {
        (**self).admit(view, packet)
    }
    fn schedule(&mut self, view: &SwitchView<'_>, cycle: Cycle, out: &mut Vec<Transfer>) {
        (**self).schedule(view, cycle, out)
    }
    fn transmit(&mut self, view: &SwitchView<'_>, output: PortId) -> TransmitChoice {
        (**self).transmit(view, output)
    }
}

/// As for [`CioqPolicy`]: a borrowed crossbar policy is one too.
impl<P: CrossbarPolicy + ?Sized> CrossbarPolicy for &mut P {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn admit(&mut self, view: &SwitchView<'_>, packet: &Packet) -> Admission {
        (**self).admit(view, packet)
    }
    fn schedule_input(&mut self, view: &SwitchView<'_>, cycle: Cycle, out: &mut Vec<Transfer>) {
        (**self).schedule_input(view, cycle, out)
    }
    fn schedule_output(&mut self, view: &SwitchView<'_>, cycle: Cycle, out: &mut Vec<Transfer>) {
        (**self).schedule_output(view, cycle, out)
    }
    fn transmit(&mut self, view: &SwitchView<'_>, output: PortId) -> TransmitChoice {
        (**self).transmit(view, output)
    }
}

/// An illegal policy decision, caught and reported by the engine. Every
/// variant names the offending context precisely; simulations never continue
/// past an illegal decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolicyError {
    /// Accept into a full queue without preemption.
    QueueFull {
        /// Which queue kind ("input" / "output" / "crossbar").
        kind: &'static str,
        /// Input port (row) if applicable.
        input: Option<PortId>,
        /// Output port (column).
        output: PortId,
    },
    /// `AcceptPreemptingLeast` / `preempt_if_full` used on a non-full queue.
    PreemptOnNonFull {
        /// Which queue kind.
        kind: &'static str,
        /// Input port (row) if applicable.
        input: Option<PortId>,
        /// Output port (column).
        output: PortId,
    },
    /// Transfer out of an empty queue.
    EmptyQueue {
        /// Which queue kind.
        kind: &'static str,
        /// Input port (row) if applicable.
        input: Option<PortId>,
        /// Output port (column).
        output: PortId,
    },
    /// Two transfers in one cycle share an input port.
    DuplicateInput {
        /// The port used twice.
        input: PortId,
    },
    /// Two transfers in one cycle share an output port.
    DuplicateOutput {
        /// The port used twice.
        output: PortId,
    },
    /// A transfer referenced a port outside the switch.
    PortOutOfRange {
        /// Which side ("input" / "output").
        side: &'static str,
        /// The offending index.
        port: usize,
    },
    /// Transmission from an empty output queue.
    TransmitFromEmpty {
        /// The output port.
        output: PortId,
    },
}

impl fmt::Display for PolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicyError::QueueFull {
                kind,
                input,
                output,
            } => write!(
                f,
                "insert into full {kind} queue (input {input:?}, output {output})"
            ),
            PolicyError::PreemptOnNonFull {
                kind,
                input,
                output,
            } => write!(
                f,
                "preempt on non-full {kind} queue (input {input:?}, output {output})"
            ),
            PolicyError::EmptyQueue {
                kind,
                input,
                output,
            } => write!(
                f,
                "transfer out of empty {kind} queue (input {input:?}, output {output})"
            ),
            PolicyError::DuplicateInput { input } => {
                write!(f, "two transfers from input port {input} in one cycle")
            }
            PolicyError::DuplicateOutput { output } => {
                write!(f, "two transfers to output port {output} in one cycle")
            }
            PolicyError::PortOutOfRange { side, port } => {
                write!(f, "{side} port {port} out of range")
            }
            PolicyError::TransmitFromEmpty { output } => {
                write!(f, "transmit from empty output queue {output}")
            }
        }
    }
}

impl std::error::Error for PolicyError {}
