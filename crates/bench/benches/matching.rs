//! Experiment F6's rigorous form: per-cycle matching cost, greedy maximal
//! (the paper's contribution) vs maximum matchings (prior work) vs iSLIP.

use cioq_matching::{
    greedy_maximal, greedy_maximal_weighted, greedy_weighted_rows_into, hopcroft_karp,
    hungarian_max_weight, BipartiteGraph, EdgeOrder, GreedyScratch, IncrementalGraph, Islip,
    Matching,
};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn dense_graph(n: usize, density: f64, seed: u64) -> BipartiteGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut g = BipartiteGraph::new(n, n);
    for i in 0..n {
        for j in 0..n {
            if rng.gen::<f64>() < density {
                g.add_edge(i, j, rng.gen_range(1..1000));
            }
        }
    }
    g
}

fn bench_matching(c: &mut Criterion) {
    let mut group = c.benchmark_group("matching");
    for &n in &[16usize, 64, 256] {
        let g = dense_graph(n, 0.5, 42);
        group.throughput(Throughput::Elements(g.n_edges() as u64));
        group.bench_with_input(BenchmarkId::new("greedy_maximal", n), &g, |b, g| {
            b.iter(|| greedy_maximal(g, EdgeOrder::Insertion))
        });
        group.bench_with_input(BenchmarkId::new("greedy_weighted", n), &g, |b, g| {
            b.iter(|| greedy_maximal_weighted(g))
        });
        // The same weighted matching the way PG computes it per cycle: the
        // row-champion kernel over the cell graph, buffers pooled.
        let mut cells = IncrementalGraph::new(n, n);
        for e in g.edges() {
            cells.set_edge(e.left, e.right, e.weight);
        }
        group.bench_with_input(BenchmarkId::new("greedy_rows", n), &cells, |b, cells| {
            let (mut scratch, mut m) = (GreedyScratch::default(), Matching::new());
            b.iter(|| {
                greedy_weighted_rows_into(cells, |_, _, _| true, &mut scratch, &mut m);
                m.pairs.len()
            })
        });
        // The row scan under the kernel's rescans and under CPG's per-port
        // argmaxes: every row's champion, all columns free, no filter.
        if n >= 64 {
            group.bench_with_input(BenchmarkId::new("row_champion", n), &cells, |b, cells| {
                b.iter(|| {
                    (0..n)
                        .filter_map(|left| cells.row_champion(left, None, |_, _| true))
                        .fold(0, |sum, (right, _)| sum + right)
                })
            });
        }
        group.bench_with_input(BenchmarkId::new("hopcroft_karp", n), &g, |b, g| {
            b.iter(|| hopcroft_karp(g))
        });
        // O(n^3) but still bounded at 256 (~tens of ms per iteration);
        // sample_size keeps real criterion's run time sane (our offline
        // stand-in is time-budgeted and ignores it). Included at every
        // size so the baseline snapshot is complete. Restored to the
        // criterion default afterwards — the setting sticks to the group.
        group.sample_size(10);
        group.bench_with_input(BenchmarkId::new("hungarian", n), &g, |b, g| {
            b.iter(|| hungarian_max_weight(g))
        });
        group.sample_size(100);
        group.bench_with_input(BenchmarkId::new("islip2", n), &g, |b, g| {
            let mut islip = Islip::new(n, n, 2);
            b.iter(|| islip.match_cycle(g))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_matching);
criterion_main!(benches);
