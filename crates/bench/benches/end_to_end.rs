//! End-to-end simulation throughput (slots/second) for both fabrics,
//! 16 to 512 ports, sequential and sharded engines.

use cioq_core::{
    CrossbarGreedyUnit, CrossbarPreemptiveGreedy, GreedyMatching, PreemptiveGreedy, ShardedCgu,
    ShardedCpg, ShardedGm, ShardedPg,
};
use cioq_model::{SwitchConfig, Topology};
use cioq_sim::{
    run_cioq, run_cioq_sharded, run_crossbar, run_crossbar_sharded, CioqPolicy, CrossbarPolicy,
    Engine, FabricSpec, RunOptions, RunReport, ShardedOptions, Trace, TraceSource,
};
use cioq_traffic::{gen_trace, OnOffBursty, ValueDist};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};

/// Default sequential options on the given fabric.
fn on_fabric(fabric: &FabricSpec) -> RunOptions {
    RunOptions {
        fabric: fabric.clone(),
        ..RunOptions::default()
    }
}

fn run_cioq_on(
    cfg: &SwitchConfig,
    policy: &mut dyn CioqPolicy,
    trace: &Trace,
    fabric: &FabricSpec,
) -> RunReport {
    Engine::new(cfg.clone(), on_fabric(fabric))
        .run_cioq(policy, &mut TraceSource::new(trace))
        .unwrap()
}

fn run_crossbar_on(
    cfg: &SwitchConfig,
    policy: &mut dyn CrossbarPolicy,
    trace: &Trace,
    fabric: &FabricSpec,
) -> RunReport {
    Engine::new(cfg.clone(), on_fabric(fabric))
        .run_crossbar(policy, &mut TraceSource::new(trace))
        .unwrap()
}

fn bench_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("end_to_end");
    let slots = 512u64;
    let cioq = SwitchConfig::cioq(16, 8, 2);
    let xbar = SwitchConfig::crossbar(16, 8, 2, 2);
    let gen = OnOffBursty::new(
        0.8,
        10.0,
        ValueDist::Zipf {
            max: 32,
            exponent: 1.0,
        },
    );
    let cioq_trace = gen_trace(&gen, &cioq, slots, 3);
    let xbar_trace = gen_trace(&gen, &xbar, slots, 3);

    group.throughput(Throughput::Elements(slots));
    group.bench_function("cioq_gm_16x16_s2", |b| {
        b.iter(|| run_cioq(&cioq, &mut GreedyMatching::new(), &cioq_trace).unwrap())
    });
    group.bench_function("cioq_pg_16x16_s2", |b| {
        b.iter(|| run_cioq(&cioq, &mut PreemptiveGreedy::new(), &cioq_trace).unwrap())
    });
    group.bench_function("xbar_cgu_16x16_s2", |b| {
        b.iter(|| run_crossbar(&xbar, &mut CrossbarGreedyUnit::new(), &xbar_trace).unwrap())
    });
    group.bench_function("xbar_cpg_16x16_s2", |b| {
        b.iter(|| run_crossbar(&xbar, &mut CrossbarPreemptiveGreedy::new(), &xbar_trace).unwrap())
    });

    // Large fabrics (the incremental core's target): fewer slots so one
    // iteration stays well inside the measurement budget. From 256 ports
    // the sharded engine (K = 4) runs alongside the sequential one.
    for &n in &[128usize, 256, 512] {
        let slots = 64u64;
        let cioq = SwitchConfig::cioq(n, 8, 2);
        let xbar = SwitchConfig::crossbar(n, 8, 2, 2);
        let cioq_trace = gen_trace(&gen, &cioq, slots, 3);
        let xbar_trace = gen_trace(&gen, &xbar, slots, 3);
        group.throughput(Throughput::Elements(slots));
        group.bench_function(format!("cioq_gm_{n}x{n}_s2"), |b| {
            b.iter(|| run_cioq(&cioq, &mut GreedyMatching::new(), &cioq_trace).unwrap())
        });
        group.bench_function(format!("cioq_pg_{n}x{n}_s2"), |b| {
            b.iter(|| run_cioq(&cioq, &mut PreemptiveGreedy::new(), &cioq_trace).unwrap())
        });
        group.bench_function(format!("xbar_cgu_{n}x{n}_s2"), |b| {
            b.iter(|| run_crossbar(&xbar, &mut CrossbarGreedyUnit::new(), &xbar_trace).unwrap())
        });
        group.bench_function(format!("xbar_cpg_{n}x{n}_s2"), |b| {
            b.iter(|| {
                run_crossbar(&xbar, &mut CrossbarPreemptiveGreedy::new(), &xbar_trace).unwrap()
            })
        });
        if n >= 256 {
            let sharded = ShardedOptions::new(4);
            group.bench_function(format!("cioq_gm_sharded_k4_{n}x{n}_s2"), |b| {
                b.iter(|| {
                    run_cioq_sharded(&cioq, &ShardedGm::new(), &cioq_trace, sharded.clone())
                        .unwrap()
                })
            });
            group.bench_function(format!("cioq_pg_sharded_k4_{n}x{n}_s2"), |b| {
                b.iter(|| {
                    run_cioq_sharded(&cioq, &ShardedPg::new(), &cioq_trace, sharded.clone())
                        .unwrap()
                })
            });
            group.bench_function(format!("xbar_cgu_sharded_k4_{n}x{n}_s2"), |b| {
                b.iter(|| {
                    run_crossbar_sharded(&xbar, &ShardedCgu::new(), &xbar_trace, sharded.clone())
                        .unwrap()
                })
            });
            group.bench_function(format!("xbar_cpg_sharded_k4_{n}x{n}_s2"), |b| {
                b.iter(|| {
                    run_crossbar_sharded(&xbar, &ShardedCpg::new(), &xbar_trace, sharded.clone())
                        .unwrap()
                })
            });
        }
        // Delayed fabric (d = 4): the in-flight accounting plus the
        // landing phase are the extra cost over the immediate fast path;
        // measured at 128 ports on both engines.
        if n == 128 {
            let link = FabricSpec::uniform(4);
            group.bench_function(format!("cioq_gm_delay4_{n}x{n}_s2"), |b| {
                b.iter(|| run_cioq_on(&cioq, &mut GreedyMatching::new(), &cioq_trace, &link))
            });
            group.bench_function(format!("cioq_pg_delay4_{n}x{n}_s2"), |b| {
                b.iter(|| run_cioq_on(&cioq, &mut PreemptiveGreedy::new(), &cioq_trace, &link))
            });
            group.bench_function(format!("xbar_cpg_delay4_{n}x{n}_s2"), |b| {
                b.iter(|| {
                    run_crossbar_on(
                        &xbar,
                        &mut CrossbarPreemptiveGreedy::new(),
                        &xbar_trace,
                        &link,
                    )
                })
            });
            let mut sharded_delay = ShardedOptions::new(4);
            sharded_delay.fabric = link.clone();
            group.bench_function(format!("cioq_gm_sharded_k4_delay4_{n}x{n}_s2"), |b| {
                b.iter(|| {
                    run_cioq_sharded(&cioq, &ShardedGm::new(), &cioq_trace, sharded_delay.clone())
                        .unwrap()
                })
            });

            // Two-tier topology (2 racks × 64 ports, chassis-local intra
            // pairs at d = 0, cross-rack at d = 4): the per-pair delay
            // lookup, the mixed mailbox + ring transport, and the
            // canonical landing sort are the extra cost over the uniform
            // delay line above.
            let topo = FabricSpec::matrix(Topology::two_tier(n, n, 2, 0, 4).expect("two racks"));
            group.bench_function(format!("cioq_gm_twotier2_{n}x{n}_s2"), |b| {
                b.iter(|| run_cioq_on(&cioq, &mut GreedyMatching::new(), &cioq_trace, &topo))
            });
            group.bench_function(format!("cioq_pg_twotier2_{n}x{n}_s2"), |b| {
                b.iter(|| run_cioq_on(&cioq, &mut PreemptiveGreedy::new(), &cioq_trace, &topo))
            });
            group.bench_function(format!("xbar_cpg_twotier2_{n}x{n}_s2"), |b| {
                b.iter(|| {
                    run_crossbar_on(
                        &xbar,
                        &mut CrossbarPreemptiveGreedy::new(),
                        &xbar_trace,
                        &topo,
                    )
                })
            });
            let mut sharded_topo = ShardedOptions::new(4);
            sharded_topo.fabric = topo.clone();
            group.bench_function(format!("cioq_gm_sharded_k4_twotier2_{n}x{n}_s2"), |b| {
                b.iter(|| {
                    run_cioq_sharded(&cioq, &ShardedGm::new(), &cioq_trace, sharded_topo.clone())
                        .unwrap()
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_end_to_end);
criterion_main!(benches);
