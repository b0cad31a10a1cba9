//! Physical fabric topology: ports grouped into racks (chassis), with a
//! per-(rack, rack) latency matrix.
//!
//! The paper's model assumes every fabric transfer lands in the cycle it is
//! scheduled. PR 4 generalised that to one uniform latency `d`; real
//! multi-chassis fabrics are *heterogeneous* — an intra-rack transfer lands
//! next slot while a cross-rack transfer rides a longer path (the
//! distributed regime of Ye–Shen–Panwar). [`Topology`] is the model side of
//! that generalisation: it assigns every input and output port to a rack
//! and gives the latency, in slots, of the path from any source rack to any
//! destination rack. The simulator runs it as `FabricSpec::matrix(topology)`
//! (`cioq_sim::transport`), whose delay line lands each pair at its latency.
//!
//! Latency `0` means same-cycle (chassis-local) delivery — the paper's
//! fabric; a topology whose entries are all equal to `d` is behaviourally
//! identical to the uniform delay-line at `d`.

use crate::{ConfigError, PortId, SlotId};

/// Ports grouped into racks plus a per-(source rack, destination rack)
/// latency matrix. Immutable after construction; cheap to clone relative to
/// a run (one allocation per port side plus the `racks × racks` matrix).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    n_inputs: usize,
    n_outputs: usize,
    racks: usize,
    /// Rack of each input port.
    input_rack: Vec<u16>,
    /// Rack of each output port.
    output_rack: Vec<u16>,
    /// Row-major `racks × racks` latency matrix:
    /// `latency[src_rack * racks + dst_rack]`, in slots.
    latency: Vec<SlotId>,
    /// Cached matrix extremes (never recomputed on the hot path).
    min: SlotId,
    max: SlotId,
}

/// Rack indices are `u16`, and a fabric has at least one rack.
fn check_rack_count(racks: usize) -> Result<(), ConfigError> {
    match racks {
        0 => Err(ConfigError::ZeroRacks),
        r if r > u16::MAX as usize => Err(ConfigError::TooManyRacks { got: r }),
        _ => Ok(()),
    }
}

impl Topology {
    /// A single-rack fabric where every pair sees the same latency `d` —
    /// the topology form of the uniform delay line (`d = 0` is the paper's
    /// immediate fabric).
    pub fn uniform(n_inputs: usize, n_outputs: usize, d: SlotId) -> Self {
        Topology {
            n_inputs,
            n_outputs,
            racks: 1,
            input_rack: vec![0; n_inputs],
            output_rack: vec![0; n_outputs],
            latency: vec![d],
            min: d,
            max: d,
        }
    }

    /// A two-tier fabric: ports split into `racks` contiguous bands (input
    /// port `i` is in rack `⌊i·racks/N⌋`, outputs likewise), intra-rack
    /// pairs at latency `intra`, cross-rack pairs at `inter`.
    pub fn two_tier(
        n_inputs: usize,
        n_outputs: usize,
        racks: usize,
        intra: SlotId,
        inter: SlotId,
    ) -> Result<Self, ConfigError> {
        // Checked before the `racks × racks` matrix below is built, so an
        // absurd rack count is an error, not a multi-gigabyte allocation.
        check_rack_count(racks)?;
        let bands = |n: usize| {
            let mut rack = vec![0u16; n];
            for s in 0..racks {
                for r in rack
                    .iter_mut()
                    .take((s + 1) * n / racks)
                    .skip(s * n / racks)
                {
                    *r = s as u16;
                }
            }
            rack
        };
        let latency = (0..racks * racks)
            .map(|cell| {
                if cell / racks == cell % racks {
                    intra
                } else {
                    inter
                }
            })
            .collect();
        Topology::explicit(
            n_inputs,
            n_outputs,
            racks,
            bands(n_inputs),
            bands(n_outputs),
            latency,
        )
    }

    /// A fully explicit topology: per-port rack assignments and a row-major
    /// `racks × racks` latency matrix (`matrix[src * racks + dst]`).
    pub fn explicit(
        n_inputs: usize,
        n_outputs: usize,
        racks: usize,
        input_rack: Vec<u16>,
        output_rack: Vec<u16>,
        latency: Vec<SlotId>,
    ) -> Result<Self, ConfigError> {
        check_rack_count(racks)?;
        if input_rack.len() != n_inputs {
            return Err(ConfigError::RackMapLength {
                side: "input",
                got: input_rack.len(),
                want: n_inputs,
            });
        }
        if output_rack.len() != n_outputs {
            return Err(ConfigError::RackMapLength {
                side: "output",
                got: output_rack.len(),
                want: n_outputs,
            });
        }
        if latency.len() != racks * racks {
            return Err(ConfigError::LatencyMatrixSize {
                got: latency.len(),
                want: racks * racks,
            });
        }
        for (side, map) in [("input", &input_rack), ("output", &output_rack)] {
            if let Some(&r) = map.iter().find(|&&r| r as usize >= racks) {
                return Err(ConfigError::RackOutOfRange {
                    side,
                    rack: r as usize,
                    racks,
                });
            }
        }
        let min = latency.iter().copied().min().unwrap_or(0);
        let max = latency.iter().copied().max().unwrap_or(0);
        Ok(Topology {
            n_inputs,
            n_outputs,
            racks,
            input_rack,
            output_rack,
            latency,
            min,
            max,
        })
    }

    /// Number of input ports the topology covers.
    #[inline]
    pub fn n_inputs(&self) -> usize {
        self.n_inputs
    }

    /// Number of output ports the topology covers.
    #[inline]
    pub fn n_outputs(&self) -> usize {
        self.n_outputs
    }

    /// Number of racks.
    #[inline]
    pub fn racks(&self) -> usize {
        self.racks
    }

    /// Rack of input port `i`.
    #[inline]
    pub fn input_rack(&self, i: usize) -> usize {
        self.input_rack[i] as usize
    }

    /// Rack of output port `j`.
    #[inline]
    pub fn output_rack(&self, j: usize) -> usize {
        self.output_rack[j] as usize
    }

    /// Latency from source rack `src` to destination rack `dst`, in slots.
    #[inline]
    pub fn rack_latency(&self, src: usize, dst: usize) -> SlotId {
        self.latency[src * self.racks + dst]
    }

    /// Per-pair latency: slots between a transfer's dispatch at input `src`
    /// and its landing at output `dst`. `0` = same-cycle delivery.
    #[inline]
    pub fn delay(&self, src: PortId, dst: PortId) -> SlotId {
        self.rack_latency(
            self.input_rack[src.index()] as usize,
            self.output_rack[dst.index()] as usize,
        )
    }

    /// Largest per-pair latency in the fabric (engines size their delay
    /// line by this).
    #[inline]
    pub fn max_delay(&self) -> SlotId {
        self.max
    }

    /// `Some(d)` iff every pair sees the same latency `d` — the uniform
    /// fabrics, behaviourally identical to `FabricSpec::uniform(d)`.
    #[inline]
    pub fn uniform_delay(&self) -> Option<SlotId> {
        (self.min == self.max).then_some(self.max)
    }

    /// Short human-readable label for reports and tables.
    pub fn label(&self) -> String {
        match self.uniform_delay() {
            Some(0) => "immediate".to_string(),
            Some(d) => format!("uniform(d={d})"),
            None => format!(
                "topology({} racks, d={}..{})",
                self.racks, self.min, self.max
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_covers_every_pair() {
        let t = Topology::uniform(3, 5, 4);
        assert_eq!(t.racks(), 1);
        assert_eq!(t.delay(PortId(2), PortId(4)), 4);
        assert_eq!(t.uniform_delay(), Some(4));
        assert_eq!(t.label(), "uniform(d=4)");
        assert_eq!(Topology::uniform(2, 2, 0).label(), "immediate");
    }

    #[test]
    fn two_tier_splits_contiguously() {
        let t = Topology::two_tier(8, 8, 2, 1, 5).unwrap();
        assert_eq!(t.input_rack(3), 0);
        assert_eq!(t.input_rack(4), 1);
        assert_eq!(t.delay(PortId(0), PortId(3)), 1, "intra-rack");
        assert_eq!(t.delay(PortId(0), PortId(4)), 5, "cross-rack");
        assert_eq!(t.max_delay(), 5);
        assert_eq!(t.uniform_delay(), None);
        assert!(t.label().contains("2 racks"));
    }

    #[test]
    fn two_tier_with_equal_tiers_is_uniform() {
        let t = Topology::two_tier(6, 6, 3, 2, 2).unwrap();
        assert_eq!(t.uniform_delay(), Some(2));
    }

    #[test]
    fn explicit_validates() {
        assert_eq!(
            Topology::explicit(2, 2, 0, vec![], vec![], vec![]),
            Err(ConfigError::ZeroRacks)
        );
        assert_eq!(
            Topology::two_tier(8, 8, 70000, 0, 4),
            Err(ConfigError::TooManyRacks { got: 70000 })
        );
        assert_eq!(
            Topology::explicit(2, 2, 1, vec![0], vec![0, 0], vec![0]),
            Err(ConfigError::RackMapLength {
                side: "input",
                got: 1,
                want: 2
            })
        );
        assert_eq!(
            Topology::explicit(2, 2, 2, vec![0, 1], vec![0, 1], vec![0]),
            Err(ConfigError::LatencyMatrixSize { got: 1, want: 4 })
        );
        assert_eq!(
            Topology::explicit(2, 2, 2, vec![0, 3], vec![0, 1], vec![0; 4]),
            Err(ConfigError::RackOutOfRange {
                side: "input",
                rack: 3,
                racks: 2
            })
        );
        let t = Topology::explicit(2, 3, 2, vec![0, 1], vec![1, 0, 1], vec![0, 7, 3, 1]).unwrap();
        assert_eq!(t.delay(PortId(0), PortId(0)), 7, "rack 0 -> rack 1");
        assert_eq!(t.delay(PortId(1), PortId(1)), 3, "rack 1 -> rack 0");
        assert_eq!(t.max_delay(), 7);
    }
}
