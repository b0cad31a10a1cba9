//! # cioq-matching
//!
//! Bipartite matching algorithms for per-cycle switch scheduling.
//!
//! The paper's central efficiency claim is that **greedy maximal matchings**
//! (O(E) unweighted / O(E log E) weighted) can replace the **maximum
//! matchings** used by all previous competitive CIOQ policies without losing
//! competitiveness. This crate provides both families plus the practical
//! round-robin scheduler (iSLIP) used in real switches, and exhaustive
//! oracles for testing:
//!
//! * [`greedy_maximal`] — iterate edges in a given order, add whenever both
//!   endpoints are free (the matching step of **GM**, Thm 1);
//!   [`IncrementalGraph::greedy_lex_rows`] is its lexicographic matching in
//!   row words over an [`IncrementalGraph`] — what GM runs per cycle.
//! * [`greedy_maximal_weighted`] — same, in descending weight order (the
//!   matching step of **PG**, Thm 2); [`greedy_weighted_rows_into`] is the
//!   same matching over an [`IncrementalGraph`] from row champions, without
//!   sorting the edges — what PG runs per cycle.
//! * [`hopcroft_karp`] — maximum-cardinality matching, O(E·√V): the
//!   scheduling step of the Kesselman–Rosén baseline.
//! * [`hungarian_max_weight`] — maximum-weight matching, O(n³): the
//!   scheduling step of the weighted Kesselman–Rosén baseline.
//! * [`Islip`] — iterative round-robin request/grant/accept matching.
//! * [`brute`] — exponential-time exact maximum / maximum-weight matching,
//!   used only as a test oracle.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod brute;
mod graph;
mod greedy;
mod hopcroft_karp;
mod hungarian;
mod incremental;
mod islip;

pub use graph::{BipartiteGraph, Edge, EdgeId, Matching};
pub use greedy::{
    greedy_maximal, greedy_maximal_weighted, greedy_maximal_with, EdgeOrder, GreedyScratch,
};
pub use hopcroft_karp::hopcroft_karp;
pub use hungarian::hungarian_max_weight;
pub use incremental::{
    claim_first_free, greedy_maximal_cells_into, greedy_weighted_rows_into, CachedWeightOrder,
    CellVisit, IncrementalGraph,
};
pub use islip::Islip;
