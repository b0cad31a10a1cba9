//! The per-packet rules of §1.3, each written once.
//!
//! This module is the single home of each rule of what happens to a
//! packet: applying an [`Admission`] to a VOQ,
//! landing a packet in a bounded queue, popping by [`PacketPick`],
//! checking a transfer set's ports, closing a run's books. Every function
//! takes the queue and the stats it touches and nothing that identifies its
//! caller. The three queue rules are called from
//! [`QueueBand`](crate::state::QueueBand) only, which finds the queue by
//! its global ports and marks the cell it dirties; error transport (`?`)
//! stays with the engine.

use crate::policy::{Admission, PacketPick, PolicyError};
use crate::state::QueueKind;
use crate::stats::{RunReport, StatsRecorder};
use crate::transport::{FabricSpec, InFlightPacket};
use cioq_model::{Packet, PortId, SlotId, SwitchConfig};
use cioq_queues::QueueMut;

/// Both ports inside the switch, or the error naming the side that is not.
#[inline]
pub(crate) fn check_ports(
    cfg: &SwitchConfig,
    input: PortId,
    output: PortId,
) -> Result<(), PolicyError> {
    for (side, port, n) in [
        ("input", input.index(), cfg.n_inputs),
        ("output", output.index(), cfg.n_outputs),
    ] {
        if port >= n {
            return Err(PolicyError::PortOutOfRange { side, port });
        }
    }
    Ok(())
}

/// Generation-stamped used-port sets: a port is used iff its stamp equals
/// the current generation, so starting a new transfer set is O(1) and
/// allocation-free. Serves the engines' validation of every transfer set.
#[derive(Debug, Default)]
pub(crate) struct PortStamps {
    stamp: u64,
    input: Vec<u64>,
    output: Vec<u64>,
}

impl PortStamps {
    /// Start a new transfer set over `n` inputs and `m` outputs.
    pub(crate) fn begin(&mut self, n: usize, m: usize) {
        if self.input.len() < n {
            self.input.resize(n, 0);
        }
        if self.output.len() < m {
            self.output.resize(m, 0);
        }
        self.stamp += 1;
    }

    /// Validate (more of) the transfer set opened by the last
    /// [`begin`](Self::begin): every port in range, and at most one
    /// transfer per port on each constrained side — both for a CIOQ
    /// matching, inputs only for a crossbar input subphase, outputs only
    /// for an output subphase.
    // detlint: hot
    pub(crate) fn check(
        &mut self,
        cfg: &SwitchConfig,
        pairs: impl Iterator<Item = (PortId, PortId)>,
        inputs: bool,
        outputs: bool,
    ) -> Result<(), PolicyError> {
        for (input, output) in pairs {
            check_ports(cfg, input, output)?;
            if inputs {
                let used = &mut self.input[input.index()];
                if std::mem::replace(used, self.stamp) == self.stamp {
                    return Err(PolicyError::DuplicateInput { input });
                }
            }
            if outputs {
                let used = &mut self.output[output.index()];
                if std::mem::replace(used, self.stamp) == self.stamp {
                    return Err(PolicyError::DuplicateOutput { output });
                }
            }
        }
        Ok(())
    }
}

/// Arrival phase, one packet: count the arrival and apply the policy's
/// `decision` to the packet's VOQ `Q_ij`.
// detlint: hot
#[inline(always)]
pub(crate) fn admit(
    mut queue: QueueMut<'_>,
    stats: &mut StatsRecorder,
    decision: Admission,
    p: &Packet,
) -> Result<(), PolicyError> {
    stats.on_arrival(p);
    match decision {
        Admission::Reject => stats.on_reject(p),
        Admission::Accept => {
            if queue.view().is_full() {
                return Err(PolicyError::QueueFull {
                    kind: "input",
                    input: Some(p.input),
                    output: p.output,
                });
            }
            queue.insert(*p).expect("checked not full");
            stats.on_accept();
        }
        Admission::AcceptPreemptingLeast => {
            if !queue.view().is_full() {
                return Err(PolicyError::PreemptOnNonFull {
                    kind: "input",
                    input: Some(p.input),
                    output: p.output,
                });
            }
            let victim = queue.pop_tail().expect("full queue has a tail");
            stats.on_preempt_input(&victim);
            queue.insert(*p).expect("slot freed by preemption");
            stats.on_accept();
        }
    }
    Ok(())
}

/// Insert a packet that has finished a hop into its bounded destination —
/// `C_ij` after the input subphase ([`QueueKind::Crossbar`]), `Q_j` after
/// the fabric ([`QueueKind::Output`]) — preempting the queue's least
/// packet iff the transfer allowed it. Under a fault plan (`faulted`) a
/// non-preempting landing into a full queue is an overflow *drop*, not a
/// policy error: the reservation the policy scheduled against can be
/// stale once faults perturb landing times.
// detlint: hot
#[inline(always)]
pub(crate) fn land(
    mut queue: QueueMut<'_>,
    stats: &mut StatsRecorder,
    kind: QueueKind,
    faulted: bool,
    p: InFlightPacket,
) -> Result<(), PolicyError> {
    if queue.view().is_full() {
        if !p.preempt {
            if faulted {
                stats.on_drop(&p.packet);
                return Ok(());
            }
            return Err(PolicyError::QueueFull {
                kind: kind.label(),
                input: Some(PortId(p.input)),
                output: PortId(p.output),
            });
        }
        let victim = queue.pop_tail().expect("full queue has a tail");
        match kind {
            QueueKind::Crossbar => stats.on_preempt_crossbar(&victim),
            _ => stats.on_preempt_output(&victim),
        }
    }
    queue.insert(p.packet).expect("space ensured");
    match kind {
        QueueKind::Crossbar => stats.on_transfer_to_crossbar(),
        _ => stats.on_transfer(),
    }
    Ok(())
}

/// Pop the packet `pick` designates out of `queue`, or say why not: the
/// id is not there, or the queue — `Q_ij`, `C_ij`, or `Q_j` when
/// transmitting (`input` is `None`) — is empty.
// detlint: hot
#[inline(always)]
pub(crate) fn pop(
    mut queue: QueueMut<'_>,
    pick: PacketPick,
    kind: QueueKind,
    input: Option<PortId>,
    output: PortId,
) -> Result<Packet, PolicyError> {
    let popped = match pick {
        PacketPick::Greatest => queue.pop_head(),
        PacketPick::Least => queue.pop_tail(),
        PacketPick::ById(id) => queue.remove(id),
    };
    popped.ok_or_else(|| match pick {
        PacketPick::ById(id) if !queue.view().is_empty() => PolicyError::NoSuchPacket { id },
        _ if kind == QueueKind::Output => PolicyError::TransmitFromEmpty { output },
        _ => PolicyError::EmptyQueue {
            kind: kind.label(),
            input,
            output,
        },
    })
}

/// Close a run's books: the report over `stats` and what is still
/// buffered (`residual` = packets, value), stamped with the fabric's
/// worst latency.
pub(crate) fn finish_report(
    stats: StatsRecorder,
    policy: String,
    slots: SlotId,
    residual: (u64, u128),
    spec: &FabricSpec,
) -> RunReport {
    let mut report = stats.finish(policy, slots, residual.0, residual.1);
    report.fabric_delay = spec.max_delay();
    debug_assert_eq!(report.check_conservation(), Ok(()));
    report
}
