//! Greedy maximal matchings — the scheduling kernel of GM and PG.
//!
//! GM (§2.1): *"Start with an empty matching and iterate over all edges of
//! E. Add an edge e to the current matching if e does not violate the
//! matching property."*
//!
//! PG (§2.2): the same, but *"iterate over all edges of E in a descending
//! order of their weights."*
//!
//! Both produce **maximal** matchings: after the loop no edge has two free
//! endpoints. That single property carries the entire competitive analysis
//! (Lemmas 2, 5, 6, 13), which is why the expensive maximum matchings of
//! earlier work can be dropped.

use crate::graph::{BipartiteGraph, Matching};

/// The order in which [`greedy_maximal`] visits edges. The paper allows any
/// order ("arbitrary"); the choice is an ablation axis (experiment T5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeOrder {
    /// Visit edges in graph insertion order (lexicographic `(i, j)` when the
    /// policy builds the graph port-by-port — the default).
    Insertion,
    /// Visit edges rotated by an offset that changes every cycle, spreading
    /// service across ports (round-robin flavoured; `offset` is typically
    /// the cycle sequence number).
    Rotated(usize),
    /// Visit edges in descending weight order with deterministic
    /// tie-breaking — turning the unit greedy into the weighted greedy.
    WeightDescending,
}

/// Scratch buffers reused across cycles so the hot path does not allocate.
#[derive(Debug, Default, Clone)]
pub struct GreedyScratch {
    pub(crate) left_used: Vec<bool>,
    pub(crate) right_used: Vec<bool>,
    pub(crate) order: Vec<usize>,
    /// Per-edge sort keys for [`EdgeOrder::WeightDescending`], precomputed
    /// so the hot sort never recomputes a key mid-comparison; for
    /// [`greedy_weighted_rows_into`](crate::greedy_weighted_rows_into), the
    /// unvisited row champions in ascending key order.
    pub(crate) keyed: Vec<u128>,
    /// Bitmap of the right vertices no pair has taken yet.
    pub(crate) free_right: Vec<u64>,
}

impl GreedyScratch {
    fn prepare(&mut self, n_left: usize, n_right: usize, n_edges: usize) {
        self.prepare_used(n_left, n_right);
        self.order.clear();
        self.order.extend(0..n_edges);
    }

    pub(crate) fn prepare_used(&mut self, n_left: usize, n_right: usize) {
        self.left_used.clear();
        self.left_used.resize(n_left, false);
        self.right_used.clear();
        self.right_used.resize(n_right, false);
    }
}

/// Compute a greedy maximal matching over `g`, visiting edges in `order`.
///
/// O(E) for [`EdgeOrder::Insertion`] / [`EdgeOrder::Rotated`];
/// O(E log E) for [`EdgeOrder::WeightDescending`].
pub fn greedy_maximal(g: &BipartiteGraph, order: EdgeOrder) -> Matching {
    let mut scratch = GreedyScratch::default();
    greedy_maximal_with(g, order, &mut scratch)
}

/// Scratch-reusing variant of [`greedy_maximal`] for per-cycle use.
pub fn greedy_maximal_with(
    g: &BipartiteGraph,
    order: EdgeOrder,
    scratch: &mut GreedyScratch,
) -> Matching {
    let mut m = Matching::new();
    scratch.prepare(g.n_left(), g.n_right(), g.n_edges());
    let edges = g.edges();
    match order {
        EdgeOrder::Insertion => {}
        EdgeOrder::Rotated(offset) => {
            if !edges.is_empty() {
                let k = offset % edges.len();
                scratch.order.rotate_left(k);
            }
        }
        EdgeOrder::WeightDescending => {
            // Descending weight; ties by (left, right) for determinism —
            // the paper's "ties broken arbitrarily but consistently".
            // The key `(!weight, left, right)` is packed into one `u128`
            // and precomputed per edge, so the unstable sort (no stable
            // sort's temp allocation) compares plain integers instead of
            // recomputing a tuple from the edge list per comparison. The
            // result is identical to the previous stable `sort_by_key`:
            // edges that tie on the full key share endpoints and weight,
            // so their mutual order cannot affect the matching.
            debug_assert!(
                g.n_left() <= u32::MAX as usize && g.n_right() <= u32::MAX as usize,
                "packed sort key assumes port counts fit in 32 bits"
            );
            scratch.keyed.clear();
            scratch.keyed.extend(
                edges.iter().map(|e| {
                    ((!e.weight as u128) << 64) | ((e.left as u128) << 32) | e.right as u128
                }),
            );
            let keyed = &scratch.keyed;
            scratch.order.sort_unstable_by_key(|&id| keyed[id]);
        }
    }

    for &id in &scratch.order {
        let e = &edges[id];
        if !scratch.left_used[e.left] && !scratch.right_used[e.right] {
            scratch.left_used[e.left] = true;
            scratch.right_used[e.right] = true;
            m.pairs.push((e.left, e.right));
        }
    }
    m
}

/// Greedy maximal matching in descending weight order — PG's scheduling step.
pub fn greedy_maximal_weighted(g: &BipartiteGraph) -> Matching {
    greedy_maximal(g, EdgeOrder::WeightDescending)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute;
    use proptest::prelude::*;

    fn graph(n: usize, edges: &[(usize, usize, u64)]) -> BipartiteGraph {
        let mut g = BipartiteGraph::new(n, n);
        for &(l, r, w) in edges {
            g.add_edge(l, r, w);
        }
        g
    }

    #[test]
    fn greedy_is_maximal_and_valid() {
        let g = graph(3, &[(0, 0, 1), (0, 1, 1), (1, 0, 1), (2, 2, 1)]);
        let m = greedy_maximal(&g, EdgeOrder::Insertion);
        assert!(m.is_valid_for(&g));
        assert!(m.is_maximal_in(&g));
        // Insertion order takes (0,0) first, blocking (0,1) and (1,0).
        assert_eq!(m.pairs, vec![(0, 0), (2, 2)]);
    }

    #[test]
    fn rotation_changes_which_maximal_matching() {
        let g = graph(2, &[(0, 0, 1), (1, 0, 1)]);
        let m0 = greedy_maximal(&g, EdgeOrder::Rotated(0));
        let m1 = greedy_maximal(&g, EdgeOrder::Rotated(1));
        assert_eq!(m0.pairs, vec![(0, 0)]);
        assert_eq!(m1.pairs, vec![(1, 0)]);
    }

    #[test]
    fn weighted_greedy_prefers_heavy_edges() {
        let g = graph(2, &[(0, 0, 1), (0, 1, 10), (1, 1, 9)]);
        let m = greedy_maximal_weighted(&g);
        // Heaviest first: (0,1,10); then (1,1) blocked, (0,0) blocked on left?
        // (0,0) left endpoint 0 already used -> skip. Result: only (0,1)?
        // No: edge (1,1) right endpoint used; edge (0,0) left endpoint used.
        assert_eq!(m.pairs, vec![(0, 1)]);
        assert!(m.is_maximal_in(&g));
    }

    #[test]
    fn weighted_ties_break_consistently() {
        let g = graph(2, &[(1, 0, 5), (0, 0, 5), (0, 1, 5)]);
        let m = greedy_maximal_weighted(&g);
        // Ties by (left, right): (0,0) first, then (1,0) blocked, (0,1) blocked.
        // Then (1,1)? not an edge. So matching = {(0,0)} ... but (1,0) shares
        // right 0, (0,1) shares left 0. Maximal: edge (1,0): left 1 free,
        // right 0 used -> ok.
        assert_eq!(m.pairs, vec![(0, 0)]);
        assert!(m.is_maximal_in(&g));
    }

    #[test]
    fn empty_graph_gives_empty_matching() {
        let g = BipartiteGraph::new(4, 4);
        let m = greedy_maximal(&g, EdgeOrder::Insertion);
        assert!(m.is_empty());
        assert!(m.is_maximal_in(&g));
    }

    proptest! {
        /// Any greedy maximal matching is valid, maximal, and at least half
        /// the size of a maximum matching (the classic maximal >= max/2).
        #[test]
        fn greedy_half_of_maximum(
            n in 1usize..5,
            edges in prop::collection::vec((0usize..5, 0usize..5, 1u64..10), 0..12),
            offset in 0usize..16,
        ) {
            let edges: Vec<_> = edges.into_iter()
                .filter(|&(l, r, _)| l < n && r < n)
                .collect();
            let g = graph(n, &edges);
            for order in [EdgeOrder::Insertion, EdgeOrder::Rotated(offset), EdgeOrder::WeightDescending] {
                let m = greedy_maximal(&g, order);
                prop_assert!(m.is_valid_for(&g));
                prop_assert!(m.is_maximal_in(&g));
                let max = brute::max_cardinality(&g);
                prop_assert!(2 * m.len() >= max.len(),
                    "maximal matching must be >= half of maximum");
            }
        }

        /// Weighted greedy achieves at least half the maximum weight
        /// (standard 1/2-approximation of greedy on weighted matching).
        #[test]
        fn weighted_greedy_half_of_max_weight(
            n in 1usize..5,
            edges in prop::collection::vec((0usize..5, 0usize..5, 1u64..100), 0..12),
        ) {
            let edges: Vec<_> = edges.into_iter()
                .filter(|&(l, r, _)| l < n && r < n)
                .collect();
            let g = graph(n, &edges);
            let m = greedy_maximal_weighted(&g);
            let best = brute::max_weight(&g);
            prop_assert!(2 * m.weight_in(&g) >= best.weight_in(&g));
        }
    }
}
