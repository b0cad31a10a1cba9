//! # cioq-core
//!
//! The scheduling algorithms of Al-Bawani, Englert & Westermann,
//! *Online Packet Scheduling for CIOQ and Buffered Crossbar Switches*:
//!
//! | Algorithm | Model | Values | Guarantee (any speedup) |
//! |-----------|-------|--------|--------------------------|
//! | [`GreedyMatching`] (gm) | CIOQ | unit | 3-competitive (Thm 1) |
//! | [`PreemptiveGreedy`] (pg) | CIOQ | general | 3+2√2 ≈ 5.83 (Thm 2, β = 1+√2) |
//! | [`CrossbarGreedyUnit`] (cgu) | buffered crossbar | unit | 3-competitive (Thm 3) |
//! | [`CrossbarPreemptiveGreedy`] (cpg) | buffered crossbar | general | ≈ 14.83 (Thm 4) |
//!
//! plus the prior-work baselines the paper measures itself against
//! ([`baselines`]): maximum-matching and maximum-weight-matching CIOQ
//! policies (Kesselman–Rosén), iSLIP, and ablated variants of PG/CPG.
//!
//! Each paper policy exists once. [`GreedyMatching`] implements the
//! [`cioq_sim::CioqPolicy`] trait over the whole switch *and* the
//! per-shard worker trait over one shard's rows of it; [`ShardedGm`] is
//! the factory that hands `run_cioq_sharded` one fresh worker per shard
//! plus the deterministic merge. [`PreemptiveGreedy`] matches in one
//! global weight order, which a merge would have to run whole while the
//! other shards wait, so it schedules the whole switch only, as
//! [`CrossbarGreedyUnit`] and [`CrossbarPreemptiveGreedy`] do: they
//! implement [`cioq_sim::CrossbarPolicy`]. None of them allocates per cycle after
//! warm-up.
//!
//! Every policy maintains its per-cycle scheduling structures
//! **incrementally** from the engine's change log, in one cache type — a
//! graph over a band of rows or columns, read through the one view the
//! engines hand policies: one slot dirties at most
//! O(N·ŝ) queues, so refreshing only those replaces an O(N²) rescan with
//! O(changes) bookkeeping. PG keeps no order of its edges between cycles:
//! its weighted greedy is [`cioq_matching::greedy_weighted_rows_into`] over
//! the head graph. CPG matches nothing, but its per-port
//! argmaxes range over the same kind of graph: the candidates of each row
//! and column, one edge per cell, repaired per dirty cell.
//! The from-scratch algorithms live on as the [`oracle`] — paper-direct,
//! cache-free, unpooled — and property tests prove policy and oracle make
//! identical decisions cycle by cycle.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
mod cgu;
mod cpg;
mod gm;
mod incremental;
pub mod oracle;
pub mod params;
mod pg;

pub use cgu::{CrossbarGreedyUnit, SelectionOrder};
pub use cpg::CrossbarPreemptiveGreedy;
pub use gm::{GmEdgePolicy, GreedyMatching, ShardedGm};
pub use pg::PreemptiveGreedy;
