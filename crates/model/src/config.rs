//! Switch configuration: geometry, buffer capacities, speedup, fabric kind.

use crate::{ConfigError, ModelError, Packet};

/// Which switching-fabric architecture is simulated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FabricKind {
    /// Combined Input and Output Queued switch (paper §2): queues at input
    /// ports (`Q_ij`) and output ports (`Q_j`); each scheduling cycle moves a
    /// *matching* of packets from input queues to output queues.
    Cioq,
    /// Buffered crossbar switch (paper §3): additionally one crosspoint queue
    /// `C_ij` per (input, output) pair; each cycle is an input subphase
    /// (`Q_ij → C_ij`, ≤1 per input port) followed by an output subphase
    /// (`C_ij → Q_j`, ≤1 per output port).
    BufferedCrossbar,
}

/// Full configuration of an N×M switch.
///
/// The paper presents N×N switches but notes (§4, Conclusion) that all
/// results generalize to N×M; the simulator supports both, so `n_inputs`
/// and `n_outputs` are independent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwitchConfig {
    /// Number of input ports `N`.
    pub n_inputs: usize,
    /// Number of output ports `M` (paper: also `N`).
    pub n_outputs: usize,
    /// Speedup `ŝ ≥ 1`: scheduling cycles per time slot.
    pub speedup: u32,
    /// Capacity `B(Q_ij)` of every input queue.
    pub input_capacity: usize,
    /// Capacity `B(Q_j)` of every output queue.
    pub output_capacity: usize,
    /// Capacity `B(C_ij)` of every crossbar queue; `None` for plain CIOQ.
    pub crossbar_capacity: Option<usize>,
}

impl SwitchConfig {
    /// Start building a config for an `n × m` switch.
    pub fn builder(n_inputs: usize, n_outputs: usize) -> SwitchConfigBuilder {
        SwitchConfigBuilder {
            n_inputs,
            n_outputs,
            speedup: 1,
            input_capacity: 8,
            output_capacity: 8,
            crossbar_capacity: None,
        }
    }

    /// Convenience: a symmetric N×N CIOQ switch with uniform buffer size `b`.
    pub fn cioq(n: usize, b: usize, speedup: u32) -> Self {
        SwitchConfig::builder(n, n)
            .speedup(speedup)
            .input_capacity(b)
            .output_capacity(b)
            .build()
            .expect("valid cioq config")
    }

    /// Convenience: a symmetric N×N buffered crossbar with uniform buffer
    /// size `b` and crossbar buffer size `bc`.
    pub fn crossbar(n: usize, b: usize, bc: usize, speedup: u32) -> Self {
        SwitchConfig::builder(n, n)
            .speedup(speedup)
            .input_capacity(b)
            .output_capacity(b)
            .crossbar_capacity(bc)
            .build()
            .expect("valid crossbar config")
    }

    /// Convenience: the IQ model of §1.2 — `m` input ports, one output port,
    /// speedup 1, input buffers of size `b`. Output queue capacity 1 keeps
    /// the output side a pure wire (a packet scheduled in slot T is
    /// transmitted in slot T).
    pub fn iq_model(m: usize, b: usize) -> Self {
        SwitchConfig::builder(m, 1)
            .speedup(1)
            .input_capacity(b)
            .output_capacity(1)
            .build()
            .expect("valid IQ config")
    }

    /// The fabric architecture implied by this configuration.
    #[inline]
    pub fn fabric(&self) -> FabricKind {
        if self.crossbar_capacity.is_some() {
            FabricKind::BufferedCrossbar
        } else {
            FabricKind::Cioq
        }
    }

    /// Validate that a packet's ports and value fit this switch.
    pub fn validate_packet(&self, p: &Packet) -> Result<(), ModelError> {
        if p.input.index() >= self.n_inputs {
            return Err(ModelError::PortOutOfRange {
                port: p.input.index(),
                limit: self.n_inputs,
                side: "input",
            });
        }
        if p.output.index() >= self.n_outputs {
            return Err(ModelError::PortOutOfRange {
                port: p.output.index(),
                limit: self.n_outputs,
                side: "output",
            });
        }
        if p.value == 0 {
            return Err(ModelError::ZeroValue);
        }
        Ok(())
    }
}

/// Builder for [`SwitchConfig`], with validation at `build()`.
#[derive(Debug, Clone)]
pub struct SwitchConfigBuilder {
    n_inputs: usize,
    n_outputs: usize,
    speedup: u32,
    input_capacity: usize,
    output_capacity: usize,
    crossbar_capacity: Option<usize>,
}

impl SwitchConfigBuilder {
    /// Set the speedup `ŝ` (scheduling cycles per slot).
    pub fn speedup(mut self, s: u32) -> Self {
        self.speedup = s;
        self
    }

    /// Set `B(Q_ij)` for all input queues.
    pub fn input_capacity(mut self, b: usize) -> Self {
        self.input_capacity = b;
        self
    }

    /// Set `B(Q_j)` for all output queues.
    pub fn output_capacity(mut self, b: usize) -> Self {
        self.output_capacity = b;
        self
    }

    /// Set `B(C_ij)` for all crossbar queues, turning the switch into a
    /// buffered crossbar.
    pub fn crossbar_capacity(mut self, b: usize) -> Self {
        self.crossbar_capacity = Some(b);
        self
    }

    /// Validate and produce the config.
    pub fn build(self) -> Result<SwitchConfig, ConfigError> {
        if self.n_inputs == 0 {
            return Err(ConfigError::ZeroPorts { side: "input" });
        }
        if self.n_outputs == 0 {
            return Err(ConfigError::ZeroPorts { side: "output" });
        }
        if self.n_inputs > u16::MAX as usize {
            return Err(ConfigError::TooManyPorts { got: self.n_inputs });
        }
        if self.n_outputs > u16::MAX as usize {
            return Err(ConfigError::TooManyPorts {
                got: self.n_outputs,
            });
        }
        if self.speedup == 0 {
            return Err(ConfigError::ZeroSpeedup);
        }
        if self.input_capacity == 0 {
            return Err(ConfigError::ZeroCapacity { kind: "input" });
        }
        if self.output_capacity == 0 {
            return Err(ConfigError::ZeroCapacity { kind: "output" });
        }
        if let Some(bc) = self.crossbar_capacity {
            if bc == 0 {
                return Err(ConfigError::ZeroCapacity { kind: "crossbar" });
            }
        }
        // Each queue class keeps its packets in one slab numbered by `u32`
        // handles: `N·M·B_in`, `N·M·B_x` and `M·B_out` slots must fit.
        let pairs = self.n_inputs as u128 * self.n_outputs as u128;
        let classes = [
            ("input", pairs, Some(self.input_capacity)),
            ("crossbar", pairs, self.crossbar_capacity),
            ("output", self.n_outputs as u128, Some(self.output_capacity)),
        ];
        for (kind, cells, capacity) in classes {
            let slots = cells * capacity.unwrap_or(0) as u128;
            if slots > u128::from(u32::MAX) {
                return Err(ConfigError::TooManyQueueSlots { kind, slots });
            }
        }
        Ok(SwitchConfig {
            n_inputs: self.n_inputs,
            n_outputs: self.n_outputs,
            speedup: self.speedup,
            input_capacity: self.input_capacity,
            output_capacity: self.output_capacity,
            crossbar_capacity: self.crossbar_capacity,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PacketId, PortId};

    #[test]
    fn builder_validates() {
        assert_eq!(
            SwitchConfig::builder(0, 4).build().unwrap_err(),
            ConfigError::ZeroPorts { side: "input" }
        );
        assert_eq!(
            SwitchConfig::builder(4, 4).speedup(0).build().unwrap_err(),
            ConfigError::ZeroSpeedup
        );
        assert_eq!(
            SwitchConfig::builder(4, 4)
                .input_capacity(0)
                .build()
                .unwrap_err(),
            ConfigError::ZeroCapacity { kind: "input" }
        );
        assert!(SwitchConfig::builder(4, 4).build().is_ok());
    }

    /// Every queue class numbers its packet slots with `u32` handles, so
    /// a class needing more slots than that is refused at build time,
    /// before anything is reserved.
    #[test]
    fn queue_slots_past_u32_handles_are_refused() {
        let max = u16::MAX as usize;
        let slots = |kind, slots| ConfigError::TooManyQueueSlots { kind, slots };
        let wide = |b| SwitchConfig::builder(max, max).input_capacity(b).build();
        assert_eq!(
            wide(2).unwrap_err(),
            slots("input", 2 * (max * max) as u128)
        );
        assert!(wide(1).is_ok(), "65 535² × 1 slots fit");
        let huge = usize::MAX;
        let xbar = SwitchConfig::builder(4, 4).crossbar_capacity(huge).build();
        assert_eq!(xbar.unwrap_err(), slots("crossbar", 16 * huge as u128));
        let past = u32::MAX as usize + 1;
        let out = SwitchConfig::builder(1, 1).output_capacity(past).build();
        assert_eq!(out.unwrap_err(), slots("output", past as u128));
        assert!(slots("input", 9).to_string().contains("4294967295"));
    }

    #[test]
    fn fabric_kind_follows_crossbar_capacity() {
        assert_eq!(SwitchConfig::cioq(4, 8, 1).fabric(), FabricKind::Cioq);
        assert_eq!(
            SwitchConfig::crossbar(4, 8, 2, 1).fabric(),
            FabricKind::BufferedCrossbar
        );
    }

    #[test]
    fn iq_model_shape() {
        let c = SwitchConfig::iq_model(6, 3);
        assert_eq!(c.n_inputs, 6);
        assert_eq!(c.n_outputs, 1);
        assert_eq!(c.speedup, 1);
        assert_eq!(c.input_capacity, 3);
    }

    #[test]
    fn packet_validation() {
        let c = SwitchConfig::cioq(2, 4, 1);
        let good = Packet::new(PacketId(0), 1, 0, PortId(1), PortId(1));
        assert!(c.validate_packet(&good).is_ok());
        let bad = Packet::new(PacketId(1), 1, 0, PortId(2), PortId(0));
        assert!(matches!(
            c.validate_packet(&bad),
            Err(ModelError::PortOutOfRange { side: "input", .. })
        ));
    }
}
