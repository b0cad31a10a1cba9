//! The decision vocabulary policies use to drive the engine.

use crate::state::SwitchView;
use cioq_model::{Cycle, Packet, PacketId, PortId};
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

/// How a policy designates the packet to move out of a queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketPick {
    /// The greatest-value packet (`g` in the paper; queue head).
    Greatest,
    /// The least-valuable packet (`l`; queue tail).
    Least,
    /// A specific packet by id ([`PolicyError::NoSuchPacket`] if absent).
    ById(PacketId),
}

/// One CIOQ transfer `Q_ij → Q_j` within a scheduling cycle. The set of
/// transfers returned for a cycle must form a matching on (input, output).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transfer {
    /// Input port `i`.
    pub input: PortId,
    /// Output port `j`.
    pub output: PortId,
    /// Which packet leaves `Q_ij`.
    pub pick: PacketPick,
    /// If `Q_j` is full: `true` preempts `l_j` first, `false` is an error.
    pub preempt_if_full: bool,
}

/// One crossbar input-subphase transfer `Q_ij → C_ij` (≤ 1 per input port).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InputTransfer {
    /// Input port `i`.
    pub input: PortId,
    /// Output (column) `j` selecting which `Q_ij`/`C_ij`.
    pub output: PortId,
    /// Which packet leaves `Q_ij`.
    pub pick: PacketPick,
    /// If `C_ij` is full: `true` preempts `lc_ij` first, `false` errors.
    pub preempt_if_full: bool,
}

/// One crossbar output-subphase transfer `C_ij → Q_j` (≤ 1 per output port).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutputTransfer {
    /// Input (row) `i` selecting which `C_ij`.
    pub input: PortId,
    /// Output port `j`.
    pub output: PortId,
    /// Which packet leaves `C_ij`.
    pub pick: PacketPick,
    /// If `Q_j` is full: `true` preempts `l_j` first, `false` errors.
    pub preempt_if_full: bool,
}

/// Decision for one output queue in the transmission phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransmitChoice {
    /// Send nothing from this output queue this slot.
    Hold,
    /// Send the designated packet.
    Send(PacketPick),
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
            TransmitChoice::Send(PacketPick::Greatest)
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
    fn schedule_input(&mut self, view: &SwitchView<'_>, cycle: Cycle, out: &mut Vec<InputTransfer>);

    /// Output subphase of cycle `T[s]`: ≤ 1 transfer per output port. Runs
    /// after the input subphase; the view includes its effects.
    fn schedule_output(
        &mut self,
        view: &SwitchView<'_>,
        cycle: Cycle,
        out: &mut Vec<OutputTransfer>,
    );

    /// Transmission phase, one call per output port (default as in CIOQ).
    fn transmit(&mut self, view: &SwitchView<'_>, output: PortId) -> TransmitChoice {
        if view.output_queue(output).is_empty() {
            TransmitChoice::Hold
        } else {
            TransmitChoice::Send(PacketPick::Greatest)
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
    fn schedule_input(
        &mut self,
        view: &SwitchView<'_>,
        cycle: Cycle,
        out: &mut Vec<InputTransfer>,
    ) {
        (**self).schedule_input(view, cycle, out)
    }
    fn schedule_output(
        &mut self,
        view: &SwitchView<'_>,
        cycle: Cycle,
        out: &mut Vec<OutputTransfer>,
    ) {
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
    /// The designated packet is not in the queue.
    NoSuchPacket {
        /// The missing packet id.
        id: PacketId,
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
            PolicyError::NoSuchPacket { id } => write!(f, "packet {id} not in queue"),
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
