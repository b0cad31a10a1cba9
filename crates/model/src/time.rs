//! Slotted time: slots and scheduling cycles.
//!
//! The paper divides continuous time into unit slots; each slot runs an
//! arrival phase, then `ŝ` scheduling cycles (the *speedup*), then a
//! transmission phase. `T[s]` denotes the `s`-th cycle of slot `T`.

use std::fmt;

/// Index of a time slot (`T` in the paper), starting at 0.
pub type SlotId = u64;

/// One scheduling cycle `T[s]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Cycle {
    /// The slot `T` this cycle belongs to.
    pub slot: SlotId,
    /// Cycle index `s` within the slot, `0 .. speedup` (paper: `1 ..= ŝ`).
    pub index: u32,
}

impl Cycle {
    /// First cycle of a slot.
    #[inline]
    pub fn first(slot: SlotId) -> Self {
        Cycle { slot, index: 0 }
    }

    /// Global sequence number of this cycle given the switch speedup,
    /// useful for ordering events across slots.
    #[inline]
    pub fn sequence(&self, speedup: u32) -> u64 {
        self.slot * speedup as u64 + self.index as u64
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Match the paper's `T[s]` notation (1-based s).
        write!(f, "{}[{}]", self.slot, self.index + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_sequence_is_global_order() {
        let speedup = 3;
        let mut last = None;
        for slot in 0..4u64 {
            for s in 0..speedup {
                let c = Cycle { slot, index: s };
                let seq = c.sequence(speedup);
                if let Some(prev) = last {
                    assert_eq!(seq, prev + 1);
                }
                last = Some(seq);
            }
        }
    }

    #[test]
    fn cycle_display_matches_paper_notation() {
        let c = Cycle { slot: 5, index: 0 };
        assert_eq!(c.to_string(), "5[1]");
        let c = Cycle { slot: 5, index: 2 };
        assert_eq!(c.to_string(), "5[3]");
    }
}
