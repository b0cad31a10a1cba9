//! Strongly-typed identifiers for ports and packets.

use std::fmt;

/// Index of an input or output port (0-based; the paper uses 1-based
/// `i = 1..N`, `j = 1..N`).
///
/// A `PortId` on its own does not say whether it names an input or an output
/// port; the APIs that consume it make that explicit (`input: PortId,
/// output: PortId`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PortId(pub u16);

impl PortId {
    /// The port index as a `usize`, for indexing into per-port tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PortId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<usize> for PortId {
    #[inline]
    fn from(v: usize) -> Self {
        debug_assert!(v <= u16::MAX as usize, "port index out of range: {v}");
        PortId(v as u16)
    }
}

/// Globally unique packet identifier.
///
/// Ids are assigned in arrival order by the trace builder, which makes them a
/// deterministic tie-breaker: the paper's assumption A3 requires ties between
/// equal-value packets to be broken "arbitrarily but consistently", and every
/// queue in this workspace breaks them by ascending `PacketId`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PacketId(pub u64);

impl fmt::Display for PacketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn port_id_roundtrip() {
        let p = PortId::from(7usize);
        assert_eq!(p.index(), 7);
        assert_eq!(p.to_string(), "7");
    }

    #[test]
    fn packet_id_orders_by_value() {
        assert!(PacketId(1) < PacketId(2));
        assert_eq!(PacketId(3).to_string(), "#3");
    }

    #[test]
    fn port_id_is_copy_and_hashable() {
        use std::collections::HashSet;
        let mut s = HashSet::new();
        s.insert(PortId(1));
        s.insert(PortId(1));
        assert_eq!(s.len(), 1);
    }
}
