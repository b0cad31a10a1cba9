//! # cioq-model
//!
//! Domain types shared by every crate in the `cioq-switch` workspace:
//! packets, port/queue identifiers, slotted time, packet values, and the
//! switch configuration described in §1.3 of Al-Bawani, Englert, Westermann,
//! *Online Packet Scheduling for CIOQ and Buffered Crossbar Switches*
//! (SPAA 2016 / Algorithmica 2018).
//!
//! The model is deliberately small and dependency-free so that the
//! simulator, the offline-optimum machinery, the traffic generators, and the
//! experiment harness all agree on one vocabulary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod error;
mod ids;
mod packet;
mod time;
mod topology;
mod value;

pub use config::{FabricKind, SwitchConfig, SwitchConfigBuilder};
pub use error::{ConfigError, ModelError};
pub use ids::{PacketId, PortId};
pub use packet::Packet;
pub use time::{Cycle, SlotId};
pub use topology::Topology;
pub use value::{Benefit, Ratio, Threshold, Value};
