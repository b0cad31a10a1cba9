//! # cioq-traffic
//!
//! Workload generation for the experiment suite.
//!
//! The paper's introduction motivates competitive analysis precisely because
//! internet traffic does **not** follow friendly distributions [29, 32]:
//! evaluation therefore needs (a) parametric synthetic workloads spanning
//! smooth to bursty regimes, and (b) adversarial instances approaching the
//! known lower bounds. This crate provides both:
//!
//! * Stochastic generators (all deterministic given a seed):
//!   [`BernoulliUniform`], [`Hotspot`], [`OnOffBursty`], [`Incast`] —
//!   each paired with a [`ValueDist`] — plus the dirty-set-width
//!   stressors [`IncastStorm`] and [`FullFabricChurn`] that dirty whole
//!   columns / the full fabric per slot.
//! * Adversarial constructions ([`adversary`]): the IQ-model flood that
//!   pins greedy unit algorithms to ratio `2 − 1/m`, an *adaptive* variant
//!   that observes the online algorithm's queues (the true competitive-
//!   analysis adversary model), and a geometric bait-and-switch instance
//!   family for the weighted algorithms.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
mod bernoulli;
mod bursty;
mod churn;
mod gen;
mod hotspot;
mod incast;
mod values;

pub use bernoulli::{BernoulliSlots, BernoulliUniform};
pub use bursty::OnOffBursty;
pub use churn::{FullFabricChurn, IncastStorm};
pub use gen::{gen_trace, slot_packets, SlotGen, TrafficGen};
pub use hotspot::Hotspot;
pub use incast::Incast;
pub use values::{ValueDist, ValueSampler};
