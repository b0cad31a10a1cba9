//! Runtime invariant auditor for the simulation engines.
//!
//! The static pass (`cargo run -p cioq-analysis`) proves the *sources* of
//! nondeterminism are absent; this module audits the *consequences* while
//! a run executes. The engine calls [`audit`](self) hooks at every slot
//! boundary in debug builds (`cfg!(debug_assertions)` — the checks and
//! their O(state) scans compile out of release binaries), so every
//! existing lockstep/equivalence suite exercises the auditor for free:
//!
//! 1. **Conservation** — at any slot boundary, packets that arrived equal
//!    packets transmitted + lost + still buffered (queued or in flight
//!    through the fabric), and likewise for value. The end-of-run
//!    [`RunReport::check_conservation`](crate::RunReport::check_conservation)
//!    is this check applied once; auditing per slot localizes a leak to
//!    the slot that caused it. The engine counts what is in flight by
//!    walking the delay line itself (and the fault layer's retransmit
//!    FIFOs), so a packet lost or duplicated on the wire shows here.
//! 2. **Canonical landing order** — the landing phase applies fabric
//!    deliveries in strictly increasing
//!    `(dispatch slot, dispatch cycle, output, input)` order, the order
//!    that makes delayed and partitioned runs bit-identical to
//!    whole-switch ones.
//! 3. **Schedule validity** — a recorded transcript matches each input
//!    and output port at most once per cycle (the crossbar subphases
//!    constrain only their own side), with all ports in range.

use crate::snapshot::EngineSnapshot;
use crate::state::SwitchState;
use crate::stats::StatsRecorder;
use crate::{RecordedCrossbarSchedule, RecordedSchedule};
use cioq_model::{SlotId, SwitchConfig};

/// Check packet and value conservation for a run in progress:
/// `arrived == transmitted + lost + residual`, where `residual` counts
/// everything still buffered (input/crossbar/output queues and the
/// fabric's in-flight packets).
pub fn check_conservation(
    stats: &StatsRecorder,
    residual_count: u64,
    residual_value: u128,
) -> Result<(), String> {
    let count_rhs = stats.transmitted + stats.losses.total_count() + residual_count;
    if stats.arrived != count_rhs {
        return Err(format!(
            "packet conservation violated mid-run: arrived {} != transmitted {} + lost {} + residual {}",
            stats.arrived,
            stats.transmitted,
            stats.losses.total_count(),
            residual_count
        ));
    }
    let value_rhs = stats.benefit.0 + stats.losses.total_value() + residual_value;
    if stats.arrived_value != value_rhs {
        return Err(format!(
            "value conservation violated mid-run: arrived {} != benefit {} + lost {} + residual {}",
            stats.arrived_value,
            stats.benefit.0,
            stats.losses.total_value(),
            residual_value
        ));
    }
    Ok(())
}

/// Check that a sequence of landings is in strictly increasing canonical
/// landing order `(dispatch slot, dispatch cycle, output, input)`. Strict:
/// at most one transfer enters an output per cycle, so a duplicate key is
/// itself a violation.
pub fn check_canonical_order<T>(
    items: &[T],
    key: impl Fn(&T) -> (SlotId, u32, u16, u16),
) -> Result<(), String> {
    for w in items.windows(2) {
        let (a, b) = (key(&w[0]), key(&w[1]));
        if a >= b {
            return Err(format!(
                "canonical landing order violated: {a:?} applied before {b:?} \
                 (expected strictly increasing (slot, cycle, output, input))"
            ));
        }
    }
    Ok(())
}

/// Check that a freshly restored run's residual accounting (`restored` =
/// packets, value) matches what the checkpoint recorded: every serialized
/// packet made it back into a queue, the delay line, or a retransmit FIFO —
/// none duplicated, none lost.
pub fn check_restored_residual(restored: (u64, u128), snap: &EngineSnapshot) -> Result<(), String> {
    let (count, value) = restored;
    let (expected_count, expected_value) = (snap.residual_count, snap.residual_value);
    if count != expected_count || value != expected_value {
        return Err(format!(
            "restored residual mismatch: checkpoint recorded {expected_count} packets \
             of value {expected_value}, restored state holds {count} of value {value}"
        ));
    }
    Ok(())
}

/// Verify every queue in the switch: within capacity and correctly sorted
/// (value descending, id ascending — assumption A3), and every queue
/// class's packet slab conserved (each used slot held by exactly one queue
/// or free exactly once). Returns a description of the first violation.
///
/// These invariants are maintained by construction (each
/// `cioq_queues::QueueStore` enforces them); this whole-state check exists
/// so tests and the engine's `validate` mode can prove it after every
/// phase.
pub fn check_state_invariants(state: &SwitchState) -> Result<(), String> {
    state.band.check_invariants()
}

fn check_cycle(
    cycle_idx: usize,
    transfers: &[(u16, u16)],
    cfg: &SwitchConfig,
    constrain_inputs: bool,
    constrain_outputs: bool,
    used_in: &mut [bool],
    used_out: &mut [bool],
) -> Result<(), String> {
    used_in.iter_mut().for_each(|b| *b = false);
    used_out.iter_mut().for_each(|b| *b = false);
    for &(i, j) in transfers {
        if i as usize >= cfg.n_inputs || j as usize >= cfg.n_outputs {
            return Err(format!(
                "cycle {cycle_idx}: transfer ({i} -> {j}) outside a {}x{} switch",
                cfg.n_inputs, cfg.n_outputs
            ));
        }
        if constrain_inputs {
            let used = &mut used_in[i as usize];
            if *used {
                return Err(format!("cycle {cycle_idx}: input {i} matched twice"));
            }
            *used = true;
        }
        if constrain_outputs {
            let used = &mut used_out[j as usize];
            if *used {
                return Err(format!("cycle {cycle_idx}: output {j} matched twice"));
            }
            *used = true;
        }
    }
    Ok(())
}

/// Validate a recorded CIOQ transcript: every cycle's transfer set is a
/// partial matching (each input and each output used at most once) over
/// in-range ports.
pub fn check_schedule(schedule: &RecordedSchedule, cfg: &SwitchConfig) -> Result<(), String> {
    let mut used_in = vec![false; cfg.n_inputs];
    let mut used_out = vec![false; cfg.n_outputs];
    for (c, transfers) in schedule.transfers.iter().enumerate() {
        check_cycle(c, transfers, cfg, true, true, &mut used_in, &mut used_out)?;
    }
    Ok(())
}

/// Validate a recorded buffered-crossbar transcript: input-subphase sets
/// use each *input* at most once per cycle, output-subphase sets each
/// *output* at most once (the crossbar decouples the two sides; that is
/// its point), all ports in range.
pub fn check_crossbar_schedule(
    schedule: &RecordedCrossbarSchedule,
    cfg: &SwitchConfig,
) -> Result<(), String> {
    let mut used_in = vec![false; cfg.n_inputs];
    let mut used_out = vec![false; cfg.n_outputs];
    for (c, transfers) in schedule.input_transfers.iter().enumerate() {
        check_cycle(c, transfers, cfg, true, false, &mut used_in, &mut used_out)?;
    }
    for (c, transfers) in schedule.output_transfers.iter().enumerate() {
        check_cycle(c, transfers, cfg, false, true, &mut used_in, &mut used_out)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cioq_model::{Packet, PacketId, PortId};

    #[test]
    fn fresh_state_is_valid() {
        let st = SwitchState::new(SwitchConfig::crossbar(3, 2, 1, 2));
        assert_eq!(check_state_invariants(&st), Ok(()));
    }

    #[test]
    fn conservation_flags_a_vanished_packet() {
        let mut s = StatsRecorder::new(1);
        s.on_arrival(&Packet::new(PacketId(0), 5, 0, PortId(0), PortId(0)));
        assert!(check_conservation(&s, 0, 0).is_err());
        assert_eq!(check_conservation(&s, 1, 5), Ok(()));
    }

    #[test]
    fn canonical_order_rejects_swaps_and_duplicates() {
        let ok = [
            (0u64, 0u32, 0u16, 0u16),
            (0, 0, 0, 1),
            (0, 1, 0, 0),
            (2, 0, 3, 1),
        ];
        assert_eq!(check_canonical_order(&ok, |&k| k), Ok(()));
        let swapped = [(0u64, 0u32, 1u16, 0u16), (0, 0, 0, 1)];
        assert!(check_canonical_order(&swapped, |&k| k).is_err());
        let dup = [(0u64, 0u32, 0u16, 0u16), (0, 0, 0, 0)];
        assert!(check_canonical_order(&dup, |&k| k).is_err());
    }

    #[test]
    fn schedule_checker_enforces_matchings() {
        let cfg = SwitchConfig::cioq(4, 4, 1);
        let mut s = RecordedSchedule {
            transfers: vec![vec![(0, 1), (1, 0)], vec![(2, 2)]],
            ..Default::default()
        };
        assert_eq!(check_schedule(&s, &cfg), Ok(()));
        s.transfers.push(vec![(0, 1), (0, 2)]);
        assert!(check_schedule(&s, &cfg).unwrap_err().contains("input 0"));
        s.transfers.last_mut().expect("just pushed")[1] = (3, 1);
        assert!(check_schedule(&s, &cfg).unwrap_err().contains("output 1"));
        s.transfers.last_mut().expect("just pushed")[1] = (9, 2);
        assert!(check_schedule(&s, &cfg).is_err());
    }

    #[test]
    fn crossbar_checker_constrains_only_the_owning_side() {
        let cfg = SwitchConfig::crossbar(4, 4, 1, 1);
        let s = RecordedCrossbarSchedule {
            // Same output twice in an input subphase is legal (two inputs
            // may feed two different crosspoint buffers of one column) …
            input_transfers: vec![vec![(0, 1), (1, 1)]],
            // … and same input twice in an output subphase is legal too.
            output_transfers: vec![vec![(0, 1), (0, 2)]],
            ..Default::default()
        };
        assert_eq!(check_crossbar_schedule(&s, &cfg), Ok(()));
        let bad_in = RecordedCrossbarSchedule {
            input_transfers: vec![vec![(0, 1), (0, 2)]],
            ..Default::default()
        };
        assert!(check_crossbar_schedule(&bad_in, &cfg).is_err());
        let bad_out = RecordedCrossbarSchedule {
            output_transfers: vec![vec![(0, 1), (2, 1)]],
            ..Default::default()
        };
        assert!(check_crossbar_schedule(&bad_out, &cfg).is_err());
    }
}
