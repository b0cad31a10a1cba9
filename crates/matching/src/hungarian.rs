//! Hungarian (Kuhn–Munkres) maximum-weight bipartite matching, O(n³).
//!
//! Scheduling kernel of the weighted baseline (Kesselman–Rosén [24]), which
//! computes a **maximum-weight** matching every cycle; PG replaces it with
//! the greedy maximal weighted matching. Experiments F4/F6 compare both.
//!
//! Implementation: classic potentials formulation on a square matrix padded
//! with zero-weight cells. Zero-weight assignments act as "unmatched", so
//! the result is a maximum-weight matching (not necessarily perfect or of
//! maximum cardinality). Costs are negated weights in `i128`, immune to
//! overflow for any `u64` weights on realistic port counts.

use crate::graph::{BipartiteGraph, Matching};
use cioq_model::Value;

/// Compute a maximum-weight matching of `g`.
///
/// Zero-weight edges never appear in the output (they contribute nothing to
/// the objective, and dropping them keeps the result a maximum-weight
/// matching).
pub fn hungarian_max_weight(g: &BipartiteGraph) -> Matching {
    let n = g.n_left().max(g.n_right());
    if n == 0 || g.n_edges() == 0 {
        return Matching::new();
    }

    // Dense weight matrix; parallel edges collapse to their max weight.
    let mut w = vec![vec![0u128; n]; n];
    for e in g.edges() {
        let cell = &mut w[e.left][e.right];
        *cell = (*cell).max(e.weight as u128);
    }

    // Min-cost perfect assignment on cost = -weight (1-based arrays).
    const INF: i128 = i128::MAX / 4;
    let mut u = vec![0i128; n + 1];
    let mut v = vec![0i128; n + 1];
    let mut p = vec![0usize; n + 1]; // p[j] = row assigned to column j
    let mut way = vec![0usize; n + 1];

    for i in 1..=n {
        p[0] = i;
        let mut j0 = 0usize;
        let mut minv = vec![INF; n + 1];
        let mut used = vec![false; n + 1];
        loop {
            used[j0] = true;
            let i0 = p[j0];
            let mut delta = INF;
            let mut j1 = 0usize;
            for j in 1..=n {
                if !used[j] {
                    let cost = -(w[i0 - 1][j - 1] as i128);
                    let cur = cost - u[i0] - v[j];
                    if cur < minv[j] {
                        minv[j] = cur;
                        way[j] = j0;
                    }
                    if minv[j] < delta {
                        delta = minv[j];
                        j1 = j;
                    }
                }
            }
            for j in 0..=n {
                if used[j] {
                    u[p[j]] += delta;
                    v[j] -= delta;
                } else {
                    minv[j] -= delta;
                }
            }
            j0 = j1;
            if p[j0] == 0 {
                break;
            }
        }
        loop {
            let j1 = way[j0];
            p[j0] = p[j1];
            j0 = j1;
            if j0 == 0 {
                break;
            }
        }
    }

    let mut pairs = Vec::new();
    for (j, &i) in p.iter().enumerate().take(n + 1).skip(1) {
        if i == 0 {
            continue;
        }
        let (l, r) = (i - 1, j - 1);
        if l < g.n_left() && r < g.n_right() && w[l][r] > 0 {
            pairs.push((l, r));
        }
    }
    pairs.sort_unstable();
    Matching { pairs }
}

#[allow(dead_code)]
fn weight_of(g: &BipartiteGraph, l: usize, r: usize) -> Option<Value> {
    g.edges()
        .iter()
        .filter(|e| e.left == l && e.right == r)
        .map(|e| e.weight)
        .max()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute;
    use proptest::prelude::*;

    fn graph(nl: usize, nr: usize, edges: &[(usize, usize, u64)]) -> BipartiteGraph {
        let mut g = BipartiteGraph::new(nl, nr);
        for &(l, r, w) in edges {
            g.add_edge(l, r, w);
        }
        g
    }

    #[test]
    fn picks_heavy_over_cardinality_when_better() {
        let g = graph(2, 2, &[(0, 0, 10), (0, 1, 1), (1, 0, 1)]);
        let m = hungarian_max_weight(&g);
        // max weight: (0,0)=10 alone vs (0,1)+(1,0)=2 -> choose 10.
        assert_eq!(m.weight_in(&g), 10);
    }

    #[test]
    fn picks_two_light_over_one_heavy_when_better() {
        let g = graph(2, 2, &[(0, 0, 10), (0, 1, 7), (1, 0, 7)]);
        let m = hungarian_max_weight(&g);
        assert_eq!(m.weight_in(&g), 14);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn rectangular_graphs() {
        let g = graph(3, 1, &[(0, 0, 5), (1, 0, 9), (2, 0, 7)]);
        let m = hungarian_max_weight(&g);
        assert_eq!(m.pairs, vec![(1, 0)]);
        let g = graph(1, 3, &[(0, 0, 5), (0, 1, 9), (0, 2, 7)]);
        let m = hungarian_max_weight(&g);
        assert_eq!(m.pairs, vec![(0, 1)]);
    }

    #[test]
    fn empty_and_no_edges() {
        assert!(hungarian_max_weight(&BipartiteGraph::new(0, 0)).is_empty());
        assert!(hungarian_max_weight(&BipartiteGraph::new(3, 3)).is_empty());
    }

    #[test]
    fn parallel_edges_collapse_to_max() {
        let mut g = BipartiteGraph::new(1, 1);
        g.add_edge(0, 0, 2);
        g.add_edge(0, 0, 9);
        let m = hungarian_max_weight(&g);
        assert_eq!(m.weight_in(&g), 9);
    }

    proptest! {
        /// Hungarian equals the exhaustive maximum weight on random graphs.
        #[test]
        fn matches_brute_force(
            nl in 1usize..5,
            nr in 1usize..5,
            edges in prop::collection::vec((0usize..5, 0usize..5, 1u64..50), 0..12),
        ) {
            let edges: Vec<_> = edges.into_iter()
                .filter(|&(l, r, _)| l < nl && r < nr)
                .collect();
            let g = graph(nl, nr, &edges);
            let hung = hungarian_max_weight(&g);
            let exact = brute::max_weight(&g);
            prop_assert!(hung.is_valid_for(&g));
            prop_assert_eq!(hung.weight_in(&g), exact.weight_in(&g));
        }
    }
}
