//! Error types for configuration and model-level validation.

use std::fmt;

/// Errors raised while building or validating a [`crate::SwitchConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A port count was zero.
    ZeroPorts {
        /// Which side ("input" / "output") was zero.
        side: &'static str,
    },
    /// The speedup was zero; the paper requires `ŝ ≥ 1`.
    ZeroSpeedup,
    /// A buffer capacity was zero.
    ZeroCapacity {
        /// Which buffer kind ("input" / "output" / "crossbar") was zero.
        kind: &'static str,
    },
    /// Crossbar buffer capacity was supplied for a plain CIOQ switch, or is
    /// missing for a buffered crossbar switch.
    CrossbarMismatch {
        /// Human-readable description of the mismatch.
        detail: &'static str,
    },
    /// Port counts exceed the supported maximum (u16 indices).
    TooManyPorts {
        /// The offending count.
        got: usize,
    },
    /// A topology declared zero racks.
    ZeroRacks,
    /// Rack counts exceed the supported maximum (u16 rack indices).
    TooManyRacks {
        /// The offending count.
        got: usize,
    },
    /// A topology's per-port rack map does not cover its ports.
    RackMapLength {
        /// Which side ("input" / "output") is mis-sized.
        side: &'static str,
        /// Entries supplied.
        got: usize,
        /// Ports to cover.
        want: usize,
    },
    /// A port was assigned to a rack outside the declared rack count.
    RackOutOfRange {
        /// Which side ("input" / "output") the port is on.
        side: &'static str,
        /// The offending rack index.
        rack: usize,
        /// Declared number of racks.
        racks: usize,
    },
    /// A topology's latency matrix is not `racks × racks`.
    LatencyMatrixSize {
        /// Entries supplied.
        got: usize,
        /// Entries required (`racks²`).
        want: usize,
    },
    /// A queue class needs more packet slots (`cells × capacity`) than a
    /// `u32` queue handle can number.
    TooManyQueueSlots {
        /// Which queue class ("input" / "output" / "crossbar").
        kind: &'static str,
        /// The slots the class would need.
        slots: u128,
    },
    /// The host could not reserve a queue class's packet slots.
    QueueReserve {
        /// Which queue class ("input" / "output" / "crossbar").
        kind: &'static str,
        /// The slots the reservation asked for.
        slots: usize,
    },
    /// A run was configured with a zero-slot stats window.
    ZeroStatsWindow,
    /// A run was configured with a zero-slot checkpoint cadence.
    ZeroCheckpointCadence,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroPorts { side } => write!(f, "{side} port count must be >= 1"),
            ConfigError::ZeroSpeedup => write!(f, "speedup must be >= 1"),
            ConfigError::ZeroCapacity { kind } => {
                write!(f, "{kind} queue capacity must be >= 1")
            }
            ConfigError::CrossbarMismatch { detail } => write!(f, "crossbar config: {detail}"),
            ConfigError::TooManyPorts { got } => {
                write!(f, "port count {got} exceeds the supported maximum of 65535")
            }
            ConfigError::ZeroRacks => write!(f, "topology must have >= 1 rack"),
            ConfigError::TooManyRacks { got } => {
                write!(f, "rack count {got} exceeds the supported maximum of 65535")
            }
            ConfigError::RackMapLength { side, got, want } => {
                write!(f, "{side} rack map has {got} entries, need {want}")
            }
            ConfigError::RackOutOfRange { side, rack, racks } => {
                write!(
                    f,
                    "{side} port assigned to rack {rack}, topology has {racks}"
                )
            }
            ConfigError::LatencyMatrixSize { got, want } => {
                write!(f, "latency matrix has {got} entries, need {want} (racks^2)")
            }
            ConfigError::TooManyQueueSlots { kind, slots } => write!(
                f,
                "{kind} queues need {slots} packet slots, more than the supported maximum of {}",
                u32::MAX
            ),
            ConfigError::QueueReserve { kind, slots } => {
                write!(
                    f,
                    "cannot reserve {slots} packet slots for the {kind} queues"
                )
            }
            ConfigError::ZeroStatsWindow => {
                write!(f, "stats window must cover at least one slot")
            }
            ConfigError::ZeroCheckpointCadence => {
                write!(f, "checkpoint cadence must be at least one slot")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Model-level errors (packet validation and similar).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// A packet referenced a port outside the configured switch.
    PortOutOfRange {
        /// The offending port index.
        port: usize,
        /// Number of configured ports on that side.
        limit: usize,
        /// Which side ("input" / "output").
        side: &'static str,
    },
    /// A packet had value zero.
    ZeroValue,
    /// Arrivals in a trace were not sorted by slot.
    UnsortedTrace {
        /// The slot of the out-of-order packet.
        slot: u64,
        /// The largest slot seen before it.
        seen: u64,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::PortOutOfRange { port, limit, side } => {
                write!(f, "{side} port {port} out of range (switch has {limit})")
            }
            ModelError::ZeroValue => write!(f, "packet value must be >= 1"),
            ModelError::UnsortedTrace { slot, seen } => {
                write!(f, "trace not sorted by slot: saw slot {slot} after {seen}")
            }
        }
    }
}

impl std::error::Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_format() {
        let e = ConfigError::ZeroPorts { side: "input" };
        assert!(e.to_string().contains("input"));
        let e = ModelError::PortOutOfRange {
            port: 9,
            limit: 4,
            side: "output",
        };
        assert!(e.to_string().contains("9"));
        assert!(e.to_string().contains("4"));
    }
}
