//! # cioq-switch
//!
//! Online packet scheduling for CIOQ and buffered crossbar switches — a
//! full reproduction of Al-Bawani, Englert & Westermann, *Online Packet
//! Scheduling for CIOQ and Buffered Crossbar Switches* (SPAA 2016 /
//! Algorithmica 2018), as a production-quality Rust workspace.
//!
//! This facade crate re-exports the public API of every workspace crate:
//!
//! * [`model`] — packets, ports, time, values, switch configuration.
//! * [`queues`] — bounded non-FIFO value-sorted queues.
//! * [`matching`] — greedy maximal, Hopcroft–Karp, Hungarian, iSLIP.
//! * [`flow`] — Dinic max-flow and max-profit flow (OPT bounds).
//! * [`sim`] — the phased switch simulator, policy traits, traces, stats.
//! * [`algorithms`] — the paper's GM / PG / CGU / CPG and the baselines.
//! * [`opt`] — exact OPT (small) and certified OPT upper bounds (large).
//! * [`traffic`] — workload generators and adversarial constructions.
//! * [`experiments`] — the sweep harness behind the `exp_*` binaries
//!   (README, "Experiments").
//!
//! ## Quickstart
//!
//! ```
//! use cioq_switch::prelude::*;
//!
//! // An 8x8 CIOQ switch, buffers of 4, speedup 1.
//! let cfg = SwitchConfig::cioq(8, 4, 1);
//!
//! // 100 slots of Bernoulli-uniform unit-value traffic at load 0.8.
//! let gen = BernoulliUniform::new(0.8, ValueDist::Unit);
//! let trace = gen_trace(&gen, &cfg, 100, 42);
//!
//! // Run the paper's 3-competitive Greedy Matching algorithm.
//! let report = run_cioq(&cfg, &mut GreedyMatching::new(), &trace).unwrap();
//! assert!(report.benefit.0 > 0);
//! report.check_conservation().unwrap();
//!
//! // Compare against a certified upper bound on the clairvoyant optimum.
//! let ratio = certified_ratio(&cfg, &trace, report.benefit);
//! assert!(ratio < 3.0 + 1e-9); // far below it, in fact
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use cioq_core as algorithms;
pub use cioq_experiments as experiments;
pub use cioq_flow as flow;
pub use cioq_matching as matching;
pub use cioq_model as model;
pub use cioq_opt as opt;
pub use cioq_queues as queues;
pub use cioq_sim as sim;
pub use cioq_traffic as traffic;

/// Everything needed for typical use, one import away.
pub mod prelude {
    pub use cioq_core::baselines::{IslipPolicy, MaxMatching, MaxWeightMatching};
    pub use cioq_core::{
        params, CrossbarGreedyUnit, CrossbarPreemptiveGreedy, GmEdgePolicy, GreedyMatching,
        PreemptiveGreedy,
    };
    pub use cioq_model::{
        Benefit, FabricKind, Packet, PacketId, PortId, SlotId, SwitchConfig, Threshold, Topology,
        Value,
    };
    pub use cioq_opt::{certified_ratio, exact_opt, opt_upper_bound, BruteForceLimits, OptBounds};
    pub use cioq_sim::{
        run_cioq, run_cioq_with_source, run_crossbar, Admission, ArrivalSource, CioqPolicy,
        CrossbarPolicy, Engine, FabricSpec, RunOptions, RunReport, Trace, TraceSource, Transfer,
        TransmitChoice,
    };
    pub use cioq_traffic::adversary::{
        escalation_bait, gm_iq_flood, gm_iq_flood_opt_benefit, pg_weighted_flood,
        AdaptiveFloodSource, EscalationParams,
    };
    pub use cioq_traffic::{
        gen_trace, BernoulliUniform, Hotspot, Incast, OnOffBursty, TrafficGen, ValueDist,
    };
}
