//! Per-slot scheduling cost of the full policies inside the engine:
//! GM vs PG vs the maximum-matching baselines at switch sizes 8..512.
//!
//! The 128- and 256-port configurations exist to demonstrate the
//! incremental scheduling core: the former O(N²)-per-cycle rebuild made
//! them impractical, the O(changes) path keeps per-slot cost flat in the
//! offered load rather than the port count. 256 and 512 ports additionally
//! run the **sharded engine** (K = 4): per-row proposal scans with early
//! exit plus a deterministic merge replace the sequential full-edge greedy
//! walk, and on multi-core hosts the shards run on real threads. CPG on a
//! buffered crossbar (64 and 128 ports) sits beside them: no matching, two
//! per-port subphases per cycle.

use cioq_core::baselines::{MaxMatching, MaxWeightMatching};
use cioq_core::params::PG_BETA;
use cioq_core::{
    oracle, CrossbarPreemptiveGreedy, GmEdgePolicy, GreedyMatching, PreemptiveGreedy, ShardedGm,
    ShardedPg,
};
use cioq_model::SwitchConfig;
use cioq_sim::{
    run_cioq, run_cioq_sharded, run_crossbar, CioqPolicy, Engine, RunOptions, ShardedOptions,
    TraceSource,
};
use cioq_traffic::{gen_trace, BernoulliUniform, FullFabricChurn, OnOffBursty, ValueDist};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn bench_cycles(c: &mut Criterion) {
    let mut group = c.benchmark_group("scheduling_cycle");
    let slots = 128u64;
    for &n in &[8usize, 16, 32, 64, 128, 256, 512] {
        let cfg = SwitchConfig::cioq(n, 8, 1);
        let trace = gen_trace(
            &BernoulliUniform::new(
                0.9,
                ValueDist::Zipf {
                    max: 64,
                    exponent: 1.1,
                },
            ),
            &cfg,
            slots,
            7,
        );
        group.throughput(Throughput::Elements(slots));
        group.bench_with_input(BenchmarkId::new("GM", n), &(), |b, _| {
            b.iter(|| run_cioq(&cfg, &mut GreedyMatching::new(), &trace).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("PG", n), &(), |b, _| {
            b.iter(|| run_cioq(&cfg, &mut PreemptiveGreedy::new(), &trace).unwrap())
        });
        // The from-scratch reference (the `cioq_core::oracle` policies) at
        // the sizes where the incremental win is the headline number.
        if (64..=256).contains(&n) {
            group.bench_with_input(BenchmarkId::new("GM-rescan", n), &(), |b, _| {
                b.iter(|| {
                    let mut gm = oracle::Gm(GmEdgePolicy::Lexicographic);
                    run_cioq(&cfg, &mut gm, &trace).unwrap()
                })
            });
            group.bench_with_input(BenchmarkId::new("PG-rescan", n), &(), |b, _| {
                b.iter(|| {
                    let mut pg = oracle::Pg(Some(PG_BETA));
                    run_cioq(&cfg, &mut pg, &trace).unwrap()
                })
            });
        } else if n > 256 {
            println!(
                "scheduling_cycle/GM-rescan/{n}, PG-rescan/{n}: skipped \
                 (O(N^2) per cycle is impractical above 256 ports)"
            );
        }
        // The sharded engine at the port counts it targets (K = 4; auto
        // execution: threads on multi-core hosts, inline otherwise).
        if n >= 128 {
            let sharded = ShardedOptions::new(4);
            group.bench_with_input(BenchmarkId::new("GM-sharded-k4", n), &(), |b, _| {
                b.iter(|| {
                    run_cioq_sharded(&cfg, &ShardedGm::new(), &trace, sharded.clone()).unwrap()
                })
            });
            group.bench_with_input(BenchmarkId::new("PG-sharded-k4", n), &(), |b, _| {
                b.iter(|| {
                    run_cioq_sharded(&cfg, &ShardedPg::new(), &trace, sharded.clone()).unwrap()
                })
            });
        }
        if n <= 64 {
            group.bench_with_input(BenchmarkId::new("KR-MaxMatching", n), &(), |b, _| {
                b.iter(|| run_cioq(&cfg, &mut MaxMatching::new(), &trace).unwrap())
            });
        } else {
            println!(
                "scheduling_cycle/KR-MaxMatching/{n}: skipped \
                 (O(E·sqrt(V)) per cycle is impractical above 64 ports)"
            );
        }
        if n <= 32 {
            group.bench_with_input(BenchmarkId::new("KR-MaxWeight", n), &(), |b, _| {
                b.iter(|| run_cioq(&cfg, &mut MaxWeightMatching::new(), &trace).unwrap())
            });
        } else {
            println!(
                "scheduling_cycle/KR-MaxWeight/{n}: skipped \
                 (O(n^3) per cycle is impractical above 32 ports)"
            );
        }
    }
    group.finish();

    // --- Dirty-set-width stress: full-fabric churn at overload ---
    //
    // Degree-2 churn saturates every VOQ, so the scheduling graph holds all
    // N·M edges while the *dirty set* stays Θ(N) — the regime the ROADMAP's
    // "where does O(changes) stop paying" question points at. Steady-state
    // measurement: fixed slots, drain off (the drain tail would otherwise
    // dominate and measure residual scans, not scheduling). This is where
    // the sharded engine's O(N·M/64) word merge decisively beats the
    // sequential per-edge greedy walk.
    let mut group = c.benchmark_group("scheduling_cycle");
    for &n in &[256usize, 512] {
        // Long enough for the rotating churn to saturate the grid (each
        // cell is revisited every M/degree slots): the second half of the
        // run measures the all-N·M-edges steady state.
        let slots = 128u64;
        let cfg = SwitchConfig::cioq(n, 8, 1);
        let trace = gen_trace(
            &FullFabricChurn::new(
                2,
                5,
                ValueDist::Zipf {
                    max: 64,
                    exponent: 1.1,
                },
            ),
            &cfg,
            slots,
            7,
        );
        let run_options = RunOptions {
            slots: Some(slots),
            drain: false,
            validate: false,
            ..RunOptions::default()
        };
        let run_seq = |policy: &mut dyn CioqPolicy| {
            let mut source = TraceSource::new(&trace);
            Engine::new(cfg.clone(), run_options.clone())
                .run_cioq(policy, &mut source)
                .unwrap()
        };
        let mut sharded = ShardedOptions::new(4);
        sharded.slots = Some(slots);
        sharded.drain = false;

        group.throughput(Throughput::Elements(slots));
        group.bench_with_input(BenchmarkId::new("GM-churn", n), &(), |b, _| {
            b.iter(|| run_seq(&mut GreedyMatching::new()))
        });
        group.bench_with_input(BenchmarkId::new("GM-sharded-k4-churn", n), &(), |b, _| {
            b.iter(|| run_cioq_sharded(&cfg, &ShardedGm::new(), &trace, sharded.clone()).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("PG-churn", n), &(), |b, _| {
            b.iter(|| run_seq(&mut PreemptiveGreedy::new()))
        });
        group.bench_with_input(BenchmarkId::new("PG-sharded-k4-churn", n), &(), |b, _| {
            b.iter(|| run_cioq_sharded(&cfg, &ShardedPg::new(), &trace, sharded.clone()).unwrap())
        });
    }
    group.finish();

    // --- The buffered crossbar: CPG beside GM and PG ---
    //
    // No matching at all: every port decides for itself, twice per cycle,
    // over candidate sets kept per dirty cell. Bursty on-off arrivals at
    // speedup 2 (the shape of benchmark row 4), drained to empty.
    let mut group = c.benchmark_group("scheduling_cycle");
    for &n in &[64usize, 128] {
        let slots = 128u64;
        let cfg = SwitchConfig::crossbar(n, 8, 2, 2);
        let values = ValueDist::Zipf {
            max: 32,
            exponent: 1.0,
        };
        let trace = gen_trace(&OnOffBursty::new(0.8, 10.0, values), &cfg, slots, 7);
        group.throughput(Throughput::Elements(slots));
        group.bench_with_input(BenchmarkId::new("CPG", n), &(), |b, _| {
            b.iter(|| run_crossbar(&cfg, &mut CrossbarPreemptiveGreedy::new(), &trace).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_cycles);
criterion_main!(benches);
