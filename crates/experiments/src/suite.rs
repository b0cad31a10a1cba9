//! The experiment suite: one function per table/figure (F3–F8, T1–T5, the
//! systems suites S1–S3); each function's doc comment says what it measures.
//!
//! Every function is deterministic (fixed seeds), returns renderable
//! [`Table`]s, and is exercised at reduced scale by integration tests and
//! `--quick` runs. [`EXPERIMENTS`] is the one table of them; the `exp`
//! binary runs any of it by id.

use crate::policies::{run_policy, PolicyKind};
use crate::ratio::measure_ratio;
use crate::runner::parallel_map;
use crate::scaled_slots;
use crate::table::{fmt_ratio, Table};
use cioq_matching::{
    greedy_maximal, greedy_maximal_weighted, hopcroft_karp, hungarian_max_weight, BipartiteGraph,
    EdgeOrder, Islip,
};
use cioq_model::SwitchConfig;
use cioq_opt::{opt_upper_bound, opt_upper_bound_is_exact};
use cioq_sim::{
    run_cioq_with_source, Engine, ExecMode, FabricSpec, RunOptions, RunReport, ShardedOptions,
    Trace, TraceSource,
};
use cioq_traffic::adversary::{
    escalation_bait, gm_iq_flood, gm_iq_flood_opt_benefit, pg_weighted_flood,
    pg_weighted_flood_opt_benefit, AdaptiveFloodSource, EscalationParams,
};
use cioq_traffic::{gen_trace, BernoulliUniform, Hotspot, Incast, OnOffBursty, ValueDist};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

const SEED: u64 = 0x5EED_CAFE;

/// Default sequential options (drained, full horizon) on the given fabric.
fn on_fabric(fabric: &FabricSpec) -> RunOptions {
    RunOptions {
        fabric: fabric.clone(),
        ..RunOptions::default()
    }
}

/// Whether a sharded run's report agrees with its sequential reference on
/// every tripwire field the systems suites (S1/S2/S3) compare. Sharding is
/// bit-identical by construction, so this is a tripwire, not a tolerance.
fn reports_agree(a: &RunReport, b: &RunReport) -> bool {
    a.benefit == b.benefit
        && a.transmitted == b.transmitted
        && a.transferred == b.transferred
        && a.losses == b.losses
        && a.slots == b.slots
        && a.residual_count == b.residual_count
        && a.fabric_delay == b.fabric_delay
}

/// The four paper policies at their default parameters, under the short
/// labels the systems suites (S1/S2/S3) print.
fn paper_policies() -> [(&'static str, PolicyKind); 4] {
    [
        ("GM", PolicyKind::Gm),
        ("PG", PolicyKind::pg_default()),
        ("CGU", PolicyKind::Cgu),
        ("CPG", PolicyKind::cpg_default()),
    ]
}

/// One architecture's half of a systems suite: its switch and its trace.
type Side = (SwitchConfig, Trace);

/// The systems suites' workload: the same bursty Zipf traffic (load 0.85)
/// on an `n`-port CIOQ switch and on an `n`-port buffered crossbar (B = 4,
/// crosspoint buffers of 2), in that order.
fn systems_workload(n: usize, speedup: u32, t: u64) -> (Side, Side) {
    let gen = OnOffBursty::new(
        0.85,
        8.0,
        ValueDist::Zipf {
            max: 32,
            exponent: 1.1,
        },
    );
    let with_trace = |cfg: SwitchConfig| {
        let trace = gen_trace(&gen, &cfg, t, SEED);
        (cfg, trace)
    };
    (
        with_trace(SwitchConfig::cioq(n, 4, speedup)),
        with_trace(SwitchConfig::crossbar(n, 4, 2, speedup)),
    )
}

/// `cioq` or `xbar`: whichever belongs to the architecture `kind` runs on.
fn side<T>(kind: PolicyKind, cioq: T, xbar: T) -> T {
    if kind.is_crossbar() {
        xbar
    } else {
        cioq
    }
}

/// One sequential run of `kind` over its side's trace under `options`.
fn run_with(kind: PolicyKind, (cfg, trace): &Side, options: RunOptions) -> RunReport {
    kind.run(
        Engine::new(cfg.clone(), options),
        &mut TraceSource::new(trace),
    )
    .expect("sequential run")
    .report
}

/// T1 — headline summary: worst measured ratio per algorithm over the
/// adversarial + stochastic suite, against the theorem bounds.
///
/// Workloads are matched to each theorem's value model: GM / CGU /
/// KR-MaxMatching carry their 3-competitive guarantee on **unit-value**
/// inputs only, so they are measured on the unit suite; PG / CPG /
/// KR-MaxWeight are measured on the weighted suite as well.
pub fn t1_summary(quick: bool) -> Vec<Table> {
    let t = scaled_slots(256, quick);
    let m = if quick { 4 } else { 8 };
    let b = if quick { 2 } else { 4 };

    // Unit-value workloads.
    let iq_cfg = SwitchConfig::iq_model(m, b);
    let flood = gm_iq_flood(m, b);
    let cioq_cfg = SwitchConfig::cioq(4, 4, 1);
    let hot = gen_trace(
        &Hotspot::new(0.9, 0.7, 0, ValueDist::Unit),
        &cioq_cfg,
        t,
        SEED + 1,
    );
    let bursty_unit = gen_trace(
        &OnOffBursty::new(0.9, 12.0, ValueDist::Unit),
        &cioq_cfg,
        t,
        SEED,
    );

    // Weighted workloads.
    let wflood = pg_weighted_flood(m, b, 1000);
    let esc = escalation_bait(EscalationParams {
        m,
        b,
        gamma: 2.8,
        phases: if quick { 6 } else { 12 },
    });
    let bursty_zipf = gen_trace(
        &OnOffBursty::new(
            0.9,
            12.0,
            ValueDist::Zipf {
                max: 64,
                exponent: 1.1,
            },
        ),
        &cioq_cfg,
        t,
        SEED,
    );

    let unit_policies = [
        PolicyKind::Gm,
        PolicyKind::KrMaxMatching,
        PolicyKind::Islip(2),
    ];
    let weighted_policies = [
        PolicyKind::pg_default(),
        PolicyKind::KrMaxWeight(cioq_core::params::PG_BETA),
    ];
    let xbar_cfg = SwitchConfig::crossbar(4, 4, 2, 1);
    let xbar_bursty_unit = gen_trace(
        &OnOffBursty::new(0.9, 12.0, ValueDist::Unit),
        &xbar_cfg,
        t,
        SEED,
    );
    let xbar_bursty_zipf = gen_trace(
        &OnOffBursty::new(
            0.9,
            12.0,
            ValueDist::Zipf {
                max: 64,
                exponent: 1.1,
            },
        ),
        &xbar_cfg,
        t,
        SEED,
    );

    struct Point {
        kind: PolicyKind,
        cfg: SwitchConfig,
        trace: Trace,
        workload: &'static str,
    }
    let mut points = Vec::new();
    for &kind in &unit_policies {
        points.push(Point {
            kind,
            cfg: iq_cfg.clone(),
            trace: flood.clone(),
            workload: "flood",
        });
        points.push(Point {
            kind,
            cfg: cioq_cfg.clone(),
            trace: bursty_unit.clone(),
            workload: "bursty-unit",
        });
        points.push(Point {
            kind,
            cfg: cioq_cfg.clone(),
            trace: hot.clone(),
            workload: "hotspot",
        });
    }
    for &kind in &weighted_policies {
        points.push(Point {
            kind,
            cfg: iq_cfg.clone(),
            trace: flood.clone(),
            workload: "flood",
        });
        points.push(Point {
            kind,
            cfg: iq_cfg.clone(),
            trace: wflood.clone(),
            workload: "weighted-flood",
        });
        points.push(Point {
            kind,
            cfg: iq_cfg.clone(),
            trace: esc.clone(),
            workload: "escalation",
        });
        points.push(Point {
            kind,
            cfg: cioq_cfg.clone(),
            trace: bursty_zipf.clone(),
            workload: "bursty-zipf",
        });
        points.push(Point {
            kind,
            cfg: cioq_cfg.clone(),
            trace: hot.clone(),
            workload: "hotspot",
        });
    }
    points.push(Point {
        kind: PolicyKind::Cgu,
        cfg: xbar_cfg.clone(),
        trace: xbar_bursty_unit,
        workload: "bursty-unit",
    });
    points.push(Point {
        kind: PolicyKind::cpg_default(),
        cfg: xbar_cfg.clone(),
        trace: xbar_bursty_zipf,
        workload: "bursty-zipf",
    });
    let cioq_policies: Vec<PolicyKind> = unit_policies
        .iter()
        .chain(&weighted_policies)
        .copied()
        .collect();
    let xbar_policies = [PolicyKind::Cgu, PolicyKind::cpg_default()];

    let rows = parallel_map(&points, |p| {
        let row = measure_ratio(p.kind, &p.cfg, &p.trace, false);
        (p.kind, p.workload, row)
    });

    let mut table = Table::new(
        "T1 — measured worst ratios vs theorem bounds",
        &[
            "policy",
            "theorem",
            "worst measured ratio",
            "worst workload",
            "verdict",
        ],
    );
    for &kind in cioq_policies.iter().chain(&xbar_policies) {
        let worst = rows
            .iter()
            .filter(|(k, _, _)| *k == kind)
            .max_by(|a, b| a.2.ratio.total_cmp(&b.2.ratio))
            .expect("every policy has points");
        let (_, workload, row) = worst;
        let theorem = row
            .theoretical
            .map(|v| format!("{v:.3}"))
            .unwrap_or_else(|| "none".into());
        let verdict = if row.within_theorem() {
            "ok"
        } else {
            "VIOLATION"
        };
        table.push(vec![
            row.policy.clone(),
            theorem,
            fmt_ratio(row.ratio, row.exact),
            workload.to_string(),
            verdict.to_string(),
        ]);
    }
    vec![table]
}

/// F3 — GM ratio and throughput vs offered load (Thm 1 at work).
pub fn f3_gm_load(quick: bool) -> Vec<Table> {
    let t = scaled_slots(512, quick);
    let n = 8;
    let loads: Vec<f64> = (1..=10).map(|x| x as f64 / 10.0).collect();
    let mut points = Vec::new();
    for &b in &[2usize, 8] {
        for &s in &[1u32, 2] {
            for &load in &loads {
                points.push((b, s, load));
            }
        }
    }
    let rows = parallel_map(&points, |&(b, s, load)| {
        let cfg = SwitchConfig::cioq(n, b, s);
        let trace = gen_trace(
            &BernoulliUniform::new(load, ValueDist::Unit),
            &cfg,
            t,
            SEED ^ (b as u64) ^ ((s as u64) << 8) ^ ((load * 100.0) as u64),
        );
        let row = measure_ratio(PolicyKind::Gm, &cfg, &trace, false);
        let delivered = row.benefit as f64 / trace.len().max(1) as f64;
        (b, s, load, delivered, row)
    });

    let mut table = Table::new(
        "F3 — GM vs offered load (N=8, Bernoulli uniform, unit values)",
        &["B", "speedup", "load", "delivered frac", "ratio vs OPT-UB"],
    );
    for (b, s, load, delivered, row) in rows {
        table.push(vec![
            b.to_string(),
            s.to_string(),
            format!("{load:.1}"),
            format!("{delivered:.3}"),
            fmt_ratio(row.ratio, row.exact),
        ]);
    }
    vec![table]
}

/// F4 — PG's β trade-off (Thm 2): theoretical curve + measured ratios.
pub fn f4_pg_beta(quick: bool) -> Vec<Table> {
    let m = if quick { 3 } else { 6 };
    let b = if quick { 2 } else { 4 };
    let betas = [1.2, 1.5, 2.0, cioq_core::params::PG_BETA, 3.0, 4.0, 6.0];

    let esc = escalation_bait(EscalationParams {
        m,
        b,
        gamma: 3.0,
        phases: if quick { 6 } else { 14 },
    });
    let iq_cfg = SwitchConfig::iq_model(m, b);
    // A β-sensitive regime: shallow output buffers, speedup 2, bimodal
    // incast — the output-queue eligibility threshold `v(g) > β·v(l)`
    // decides whether gold packets displace queued best-effort ones.
    let stress_cfg = SwitchConfig::builder(8, 8)
        .speedup(2)
        .input_capacity(4)
        .output_capacity(2)
        .build()
        .expect("valid");
    // Uniform small values: consecutive value ratios fall between the
    // swept βs, so the eligibility threshold genuinely changes behaviour.
    let stress = gen_trace(
        &Incast::new(4, 2, 0.5, ValueDist::Uniform { max: 8 }),
        &stress_cfg,
        scaled_slots(256, quick),
        SEED,
    );

    let points: Vec<f64> = betas.to_vec();
    let rows = parallel_map(&points, |&beta| {
        let esc_row = measure_ratio(PolicyKind::Pg(beta), &iq_cfg, &esc, false);
        let stress_row = measure_ratio(PolicyKind::Pg(beta), &stress_cfg, &stress, false);
        (beta, esc_row, stress_row)
    });

    let mut table = Table::new(
        "F4 — PG beta sweep (theory: ratio(beta) = beta + 2*beta/(beta-1), optimum 1+sqrt(2))",
        &[
            "beta",
            "theory bound",
            "escalation (IQ, exact)",
            "incast uniform (<=)",
            "incast benefit",
        ],
    );
    for (beta, esc_row, stress_row) in rows {
        table.push(vec![
            format!("{beta:.3}"),
            format!("{:.3}", cioq_core::params::pg_ratio(beta)),
            fmt_ratio(esc_row.ratio, esc_row.exact),
            fmt_ratio(stress_row.ratio, stress_row.exact),
            stress_row.benefit.to_string(),
        ]);
    }
    vec![table]
}

/// F5 — throughput/ratio vs speedup ŝ = 1..6 for all algorithms.
pub fn f5_speedup(quick: bool) -> Vec<Table> {
    let t = scaled_slots(256, quick);
    let speedups: Vec<u32> = if quick {
        vec![1, 2, 4]
    } else {
        vec![1, 2, 3, 4, 6]
    };
    let policies = [
        PolicyKind::Gm,
        PolicyKind::pg_default(),
        PolicyKind::KrMaxMatching,
        PolicyKind::Islip(2),
        PolicyKind::Cgu,
        PolicyKind::cpg_default(),
    ];
    let mut points = Vec::new();
    for &s in &speedups {
        for &p in &policies {
            points.push((s, p));
        }
    }
    let rows = parallel_map(&points, |&(s, kind)| {
        // Shallow buffers + full uniform load: the fabric, not the output
        // line, is the bottleneck, so speedup genuinely buys throughput.
        let cfg = if kind.is_crossbar() {
            SwitchConfig::crossbar(8, 2, 1, s)
        } else {
            SwitchConfig::cioq(8, 2, s)
        };
        // Same seed across speedups: every point sees the same arrivals,
        // so the speedup axis is the only thing varying.
        let trace = gen_trace(&BernoulliUniform::new(1.0, ValueDist::Unit), &cfg, t, SEED);
        let row = measure_ratio(kind, &cfg, &trace, false);
        let frac = row.benefit as f64 / trace.len().max(1) as f64;
        (s, kind, frac, row)
    });

    let mut table = Table::new(
        "F5 — delivered fraction and ratio vs speedup (uniform load 1.0, B=2)",
        &["speedup", "policy", "delivered frac", "ratio vs OPT-UB"],
    );
    for (s, kind, frac, row) in rows {
        table.push(vec![
            s.to_string(),
            kind.label(),
            format!("{frac:.3}"),
            fmt_ratio(row.ratio, row.exact),
        ]);
    }
    vec![table]
}

/// F6 — the efficiency claim: per-cycle matching cost, greedy vs maximum.
pub fn f6_matching_cost(quick: bool) -> Vec<Table> {
    let sizes: Vec<usize> = if quick {
        vec![8, 16, 32]
    } else {
        vec![8, 16, 32, 64, 128, 256]
    };
    let reps = if quick { 20 } else { 100 };

    let mut table = Table::new(
        "F6 — scheduling cost per cycle (dense random graphs, microseconds)",
        &[
            "N",
            "edges",
            "greedy (GM)",
            "greedy-w (PG)",
            "Hopcroft-Karp",
            "Hungarian",
            "iSLIP-2",
        ],
    );
    for &n in &sizes {
        let mut rng = SmallRng::seed_from_u64(SEED + n as u64);
        // Dense eligibility: ~50% of crosspoints have backlog.
        let mut g = BipartiteGraph::new(n, n);
        for i in 0..n {
            for j in 0..n {
                if rng.gen::<f64>() < 0.5 {
                    g.add_edge(i, j, rng.gen_range(1..1000));
                }
            }
        }
        let time_us = |f: &mut dyn FnMut()| -> f64 {
            // Warm-up.
            f();
            // detlint: allow(D2) reason="matching-cost table reports wall time; never feeds simulation state"
            let start = Instant::now();
            for _ in 0..reps {
                f();
            }
            start.elapsed().as_secs_f64() * 1e6 / reps as f64
        };
        let greedy_us = time_us(&mut || {
            std::hint::black_box(greedy_maximal(&g, EdgeOrder::Insertion));
        });
        let greedy_w_us = time_us(&mut || {
            std::hint::black_box(greedy_maximal_weighted(&g));
        });
        let hk_us = time_us(&mut || {
            std::hint::black_box(hopcroft_karp(&g));
        });
        let hungarian_us = if n <= 128 || !quick {
            time_us(&mut || {
                std::hint::black_box(hungarian_max_weight(&g));
            })
        } else {
            f64::NAN
        };
        let mut islip = Islip::new(n, n, 2);
        let islip_us = time_us(&mut || {
            std::hint::black_box(islip.match_cycle(&g));
        });
        table.push(vec![
            n.to_string(),
            g.n_edges().to_string(),
            format!("{greedy_us:.1}"),
            format!("{greedy_w_us:.1}"),
            format!("{hk_us:.1}"),
            format!("{hungarian_us:.1}"),
            format!("{islip_us:.1}"),
        ]);
    }
    vec![table]
}

/// F7 — crossbar buffer size sweep: what the crosspoint buffers buy.
pub fn f7_crossbar_buffer(quick: bool) -> Vec<Table> {
    let t = scaled_slots(256, quick);
    let caps: Vec<usize> = if quick {
        vec![1, 2, 4]
    } else {
        vec![1, 2, 3, 4, 6, 8]
    };
    let mut points = Vec::new();
    for &bc in &caps {
        for kind in [PolicyKind::Cgu, PolicyKind::cpg_default()] {
            points.push((bc, kind));
        }
    }
    let rows = parallel_map(&points, |&(bc, kind)| {
        let cfg = SwitchConfig::crossbar(8, 4, bc, 1);
        let trace = gen_trace(
            &Incast::new(
                8,
                2,
                0.4,
                ValueDist::Zipf {
                    max: 16,
                    exponent: 1.0,
                },
            ),
            &cfg,
            t,
            SEED,
        );
        let row = measure_ratio(kind, &cfg, &trace, false);
        (bc, kind, row)
    });
    // Reference: plain CIOQ with the same traffic.
    let cioq_cfg = SwitchConfig::cioq(8, 4, 1);
    let cioq_trace = gen_trace(
        &Incast::new(
            8,
            2,
            0.4,
            ValueDist::Zipf {
                max: 16,
                exponent: 1.0,
            },
        ),
        &cioq_cfg,
        t,
        SEED,
    );
    let gm_row = measure_ratio(PolicyKind::Gm, &cioq_cfg, &cioq_trace, false);
    let pg_row = measure_ratio(PolicyKind::pg_default(), &cioq_cfg, &cioq_trace, false);

    let mut table = Table::new(
        "F7 — crossbar buffer size sweep (incast traffic)",
        &["B_crossbar", "policy", "benefit", "ratio vs OPT-UB"],
    );
    table.push(vec![
        "(cioq)".into(),
        gm_row.policy.clone(),
        gm_row.benefit.to_string(),
        fmt_ratio(gm_row.ratio, gm_row.exact),
    ]);
    table.push(vec![
        "(cioq)".into(),
        pg_row.policy.clone(),
        pg_row.benefit.to_string(),
        fmt_ratio(pg_row.ratio, pg_row.exact),
    ]);
    for (bc, _kind, row) in rows {
        table.push(vec![
            bc.to_string(),
            row.policy.clone(),
            row.benefit.to_string(),
            fmt_ratio(row.ratio, row.exact),
        ]);
    }
    vec![table]
}

/// F8 — the lower-bound constructions: measured ratios approaching the
/// known bounds (2 for greedy unit on IQ; escalation for weighted).
pub fn f8_adversarial(quick: bool) -> Vec<Table> {
    let ms: Vec<usize> = if quick {
        vec![2, 4, 8]
    } else {
        vec![2, 4, 8, 16, 32]
    };
    let b = if quick { 2 } else { 4 };

    let flood_rows = parallel_map(&ms, |&m| {
        let cfg = SwitchConfig::iq_model(m, b);
        let trace = gm_iq_flood(m, b);
        let row = measure_ratio(PolicyKind::Gm, &cfg, &trace, false);
        // Exactness cross-check: flow bound == closed-form OPT.
        let formula = gm_iq_flood_opt_benefit(m, b);
        assert_eq!(
            row.opt_bound, formula,
            "per-output bound must equal the closed-form OPT on IQ floods"
        );
        (m, row)
    });
    let mut flood = Table::new(
        "F8a — oblivious flood vs GM on IQ (exact OPT; theory: ratio = 2 - 1/m)",
        &["m", "B", "measured ratio", "2 - 1/m"],
    );
    for (m, row) in flood_rows {
        flood.push(vec![
            m.to_string(),
            b.to_string(),
            format!("{:.4}", row.ratio),
            format!("{:.4}", 2.0 - 1.0 / m as f64),
        ]);
    }

    // Adaptive adversary against the rotation-hardened GM variant.
    let adaptive_rows = parallel_map(&ms, |&m| {
        let cfg = SwitchConfig::iq_model(m, b);
        let mut adversary = AdaptiveFloodSource::new(m, b, None);
        let mut gm =
            cioq_core::GreedyMatching::with_edge_policy(cioq_core::GmEdgePolicy::RotateByCycle);
        let slots = adversary.horizon_slots();
        let report =
            run_cioq_with_source(&cfg, &mut gm, &mut adversary, slots).expect("adaptive run");
        let trace = adversary.emitted_trace();
        let opt = opt_upper_bound(&cfg, &trace).best();
        let exact = opt_upper_bound_is_exact(&cfg);
        (m, opt as f64 / report.benefit.0.max(1) as f64, exact)
    });
    let mut adaptive = Table::new(
        "F8b — adaptive flood vs GM(rotate) on IQ (exact OPT)",
        &["m", "B", "measured ratio"],
    );
    for (m, ratio, exact) in adaptive_rows {
        adaptive.push(vec![m.to_string(), b.to_string(), fmt_ratio(ratio, exact)]);
    }

    // Weighted flood against PG: the unit lower bound carries over.
    let w = 1000;
    let wflood_rows = parallel_map(&ms, |&m| {
        let cfg = SwitchConfig::iq_model(m, b);
        let trace = pg_weighted_flood(m, b, w);
        let row = measure_ratio(PolicyKind::pg_default(), &cfg, &trace, false);
        assert_eq!(
            row.opt_bound,
            pg_weighted_flood_opt_benefit(m, b, w),
            "per-output bound must equal the closed-form OPT on weighted floods"
        );
        (m, row)
    });
    let mut wflood = Table::new(
        "F8c — weighted flood vs PG on IQ (exact OPT; limit 2 - 1/m as w grows)",
        &["m", "B", "measured ratio", "2 - 1/m"],
    );
    for (m, row) in wflood_rows {
        wflood.push(vec![
            m.to_string(),
            b.to_string(),
            format!("{:.4}", row.ratio),
            format!("{:.4}", 2.0 - 1.0 / m as f64),
        ]);
    }

    // Escalation sweep against PG: PG tracks OPT closely here — measured
    // evidence that its worst case needs adaptive constructions.
    let gammas = [1.5, 2.0, 2.8, 4.0, 8.0];
    let esc_rows = parallel_map(&gammas, |&gamma| {
        let m = if quick { 3 } else { 6 };
        let cfg = SwitchConfig::iq_model(m, b);
        let trace = escalation_bait(EscalationParams {
            m,
            b,
            gamma,
            phases: if quick { 6 } else { 14 },
        });
        let row = measure_ratio(PolicyKind::pg_default(), &cfg, &trace, false);
        (gamma, row)
    });
    let mut esc = Table::new(
        "F8d — geometric escalation vs PG on IQ (exact OPT; PG stays near 1)",
        &["gamma", "measured ratio", "theorem bound"],
    );
    for (gamma, row) in esc_rows {
        esc.push(vec![
            format!("{gamma:.1}"),
            format!("{:.4}", row.ratio),
            format!("{:.3}", row.theoretical.unwrap_or(f64::NAN)),
        ]);
    }
    vec![flood, adaptive, wflood, esc]
}

/// T2 — weighted ratios across value distributions.
pub fn t2_value_distributions(quick: bool) -> Vec<Table> {
    let t = scaled_slots(256, quick);
    let dists = [
        ValueDist::Unit,
        ValueDist::Uniform { max: 64 },
        ValueDist::Zipf {
            max: 64,
            exponent: 1.1,
        },
        ValueDist::Bimodal {
            high: 100,
            p_high: 0.1,
        },
    ];
    let loads = [0.5, 0.9];
    let policies = [
        PolicyKind::pg_default(),
        PolicyKind::KrMaxWeight(cioq_core::params::PG_BETA),
        PolicyKind::PgNoPreempt,
        PolicyKind::Gm,
    ];
    let mut points = Vec::new();
    for d in &dists {
        for &load in &loads {
            for &p in &policies {
                points.push((d.clone(), load, p));
            }
        }
    }
    let rows = parallel_map(&points, |(dist, load, kind)| {
        let cfg = SwitchConfig::cioq(4, 4, 1);
        let trace = gen_trace(
            &BernoulliUniform::new(*load, dist.clone()),
            &cfg,
            t,
            SEED ^ ((*load * 10.0) as u64),
        );
        let row = measure_ratio(*kind, &cfg, &trace, false);
        (dist.name(), *load, row)
    });
    let mut table = Table::new(
        "T2 — value-distribution sweep (N=4 CIOQ, ratio vs OPT-UB)",
        &["values", "load", "policy", "benefit", "ratio"],
    );
    for (dist, load, row) in rows {
        table.push(vec![
            dist,
            format!("{load:.1}"),
            row.policy.clone(),
            row.benefit.to_string(),
            fmt_ratio(row.ratio, row.exact),
        ]);
    }
    vec![table]
}

/// T3 — burstiness sweep: throughput/loss under on-off traffic.
pub fn t3_bursty(quick: bool) -> Vec<Table> {
    let t = scaled_slots(512, quick);
    let bursts = [1.5, 4.0, 16.0, 64.0];
    let policies = [
        PolicyKind::Gm,
        PolicyKind::pg_default(),
        PolicyKind::KrMaxMatching,
        PolicyKind::Islip(2),
    ];
    let mut points = Vec::new();
    for &mb in &bursts {
        for &p in &policies {
            points.push((mb, p));
        }
    }
    let rows = parallel_map(&points, |&(mean_burst, kind)| {
        let cfg = SwitchConfig::cioq(8, 8, 1);
        let trace = gen_trace(
            &OnOffBursty::new(0.7, mean_burst, ValueDist::Unit),
            &cfg,
            t,
            SEED + mean_burst as u64,
        );
        let report = run_policy(kind, &cfg, &trace).expect("run");
        (mean_burst, kind, report, trace.len())
    });
    let mut table = Table::new(
        "T3 — burstiness sweep (load 0.7, N=8, B=8, unit values)",
        &[
            "mean burst",
            "policy",
            "delivered frac",
            "dropped",
            "mean latency",
        ],
    );
    for (mb, kind, report, offered) in rows {
        table.push(vec![
            format!("{mb:.1}"),
            kind.label(),
            format!("{:.3}", report.transmitted as f64 / offered.max(1) as f64),
            report.losses.total_count().to_string(),
            format!("{:.2}", report.mean_latency()),
        ]);
    }
    vec![table]
}

/// T4 — N×M generalization (conclusion of the paper).
pub fn t4_asymmetric(quick: bool) -> Vec<Table> {
    let t = scaled_slots(256, quick);
    let shapes = [(8usize, 4usize), (4, 8), (16, 4), (2, 16)];
    let policies = [PolicyKind::Gm, PolicyKind::pg_default()];
    let mut points = Vec::new();
    for &(n, m) in &shapes {
        for &p in &policies {
            points.push((n, m, p));
        }
    }
    let rows = parallel_map(&points, |&(n, m, kind)| {
        let cfg = SwitchConfig::builder(n, m)
            .input_capacity(4)
            .output_capacity(4)
            .build()
            .expect("valid");
        let trace = gen_trace(
            &BernoulliUniform::new(
                0.8,
                ValueDist::Zipf {
                    max: 16,
                    exponent: 1.0,
                },
            ),
            &cfg,
            t,
            SEED + (n * 100 + m) as u64,
        );
        let row = measure_ratio(kind, &cfg, &trace, false);
        (n, m, row)
    });
    let mut table = Table::new(
        "T4 — asymmetric N x M switches (load 0.8, zipf values)",
        &["N x M", "policy", "benefit", "ratio vs OPT-UB"],
    );
    for (n, m, row) in rows {
        table.push(vec![
            format!("{n}x{m}"),
            row.policy.clone(),
            row.benefit.to_string(),
            fmt_ratio(row.ratio, row.exact),
        ]);
    }
    vec![table]
}

/// T5 — ablations: edge order, preemption, maximal-vs-maximum, α=β.
pub fn t5_ablation(quick: bool) -> Vec<Table> {
    let t = scaled_slots(256, quick);
    let cioq_cfg = SwitchConfig::cioq(8, 4, 1);
    let weighted: Trace = gen_trace(
        &OnOffBursty::new(
            0.85,
            10.0,
            ValueDist::Bimodal {
                high: 50,
                p_high: 0.2,
            },
        ),
        &cioq_cfg,
        t,
        SEED,
    );
    let unit: Trace = gen_trace(
        &Hotspot::new(0.9, 0.6, 0, ValueDist::Unit),
        &cioq_cfg,
        t,
        SEED + 1,
    );
    let xbar_cfg = SwitchConfig::crossbar(8, 4, 2, 1);
    let xbar_weighted: Trace = gen_trace(
        &OnOffBursty::new(
            0.85,
            10.0,
            ValueDist::Bimodal {
                high: 50,
                p_high: 0.2,
            },
        ),
        &xbar_cfg,
        t,
        SEED,
    );

    struct Group {
        title: &'static str,
        cfg: SwitchConfig,
        trace: Trace,
        kinds: Vec<PolicyKind>,
    }
    let groups = [
        Group {
            title: "unit CIOQ: edge order + matching strength",
            cfg: cioq_cfg.clone(),
            trace: unit,
            kinds: vec![
                PolicyKind::Gm,
                PolicyKind::GmRotate,
                PolicyKind::KrMaxMatching,
                PolicyKind::Islip(2),
            ],
        },
        Group {
            title: "weighted CIOQ: preemption + matching strength",
            cfg: cioq_cfg.clone(),
            trace: weighted,
            kinds: vec![
                PolicyKind::pg_default(),
                PolicyKind::PgNoPreempt,
                PolicyKind::KrMaxWeight(cioq_core::params::PG_BETA),
                PolicyKind::Gm,
            ],
        },
        Group {
            title: "weighted crossbar: two parameters vs one",
            cfg: xbar_cfg,
            trace: xbar_weighted,
            kinds: vec![
                PolicyKind::cpg_default(),
                PolicyKind::CpgSingleParam,
                PolicyKind::Cgu,
            ],
        },
    ];

    let mut tables = Vec::new();
    for group in groups {
        let rows = parallel_map(&group.kinds, |&kind| {
            measure_ratio(kind, &group.cfg, &group.trace, false)
        });
        let best = rows.iter().map(|r| r.benefit).max().unwrap_or(1).max(1);
        let mut table = Table::new(
            format!("T5 — ablation: {}", group.title),
            &["policy", "benefit", "vs best", "ratio vs OPT-UB"],
        );
        for row in rows {
            table.push(vec![
                row.policy.clone(),
                row.benefit.to_string(),
                format!("{:.3}", row.benefit as f64 / best as f64),
                fmt_ratio(row.ratio, row.exact),
            ]);
        }
        tables.push(table);
    }
    tables
}

/// S1 — the sharded slot engine vs the sequential engine: for GM (the one
/// policy the sharded engine runs) per shard count, identical results
/// (proof echoed in the table) and the wall-clock cost of each run.
/// Sharding is bit-identical by construction, so the "agrees" column is a
/// tripwire, not a tolerance.
pub fn s1_sharded(quick: bool) -> Vec<Table> {
    let t = scaled_slots(256, quick);
    let n = if quick { 12 } else { 48 };
    let ((cfg, trace), _) = systems_workload(n, 1, t);
    let policies: Vec<_> = paper_policies()
        .into_iter()
        .filter(|&(_, kind)| kind == PolicyKind::Gm)
        .collect();

    // The sequential reference is invariant in K: run (and time) it once
    // per policy, then sweep only the sharded runs.
    let references = parallel_map(&policies, |&(_, kind)| {
        // detlint: allow(D2) reason="speedup column reports wall time; never feeds simulation state"
        let t0 = Instant::now();
        let seq = run_policy(kind, &cfg, &trace).expect("seq");
        (seq, t0.elapsed().as_secs_f64() * 1e3)
    });

    let mut points = Vec::new();
    for p in 0..policies.len() {
        for k in [1usize, 2, 4] {
            points.push((p, k));
        }
    }
    // One at a time: timing several runs at once puts them on shared cores,
    // and the `sharded ms` column then measures the host's scheduler
    // instead of the run.
    let rows = points.iter().map(|&(p, k)| {
        let (label, kind) = policies[p];
        // detlint: allow(D2) reason="speedup column reports wall time; never feeds simulation state"
        let t1 = Instant::now();
        let sharded = kind
            .run_sharded(&cfg, &trace, ShardedOptions::new(k))
            .expect("sharded run");
        let sharded_ms = t1.elapsed().as_secs_f64() * 1e3;
        let (seq, seq_ms) = &references[p];
        (label, k, seq, sharded.report, *seq_ms, sharded_ms)
    });

    let mut table = Table::new(
        format!("S1 — sharded engine vs sequential (N={n}, bursty zipf, load 0.85)"),
        &[
            "policy",
            "K",
            "benefit",
            "transmitted",
            "agrees",
            "seq ms",
            "sharded ms",
        ],
    );
    for (label, k, seq, sharded, seq_ms, sharded_ms) in rows {
        table.push(vec![
            label.to_string(),
            k.to_string(),
            sharded.benefit.0.to_string(),
            sharded.transmitted.to_string(),
            if reports_agree(seq, &sharded) {
                "yes".into()
            } else {
                "DIVERGED".into()
            },
            format!("{seq_ms:.1}"),
            format!("{sharded_ms:.1}"),
        ]);
    }
    vec![table]
}

/// The sweep S2 and S3 share: all four policies over five values of one
/// fabric-latency axis. `link_for(n, v)` is the fabric the value `v` stands
/// for, `axis` its column header, `shard_counts` the K list of the sharded
/// agreement tripwire, `titles` the (degradation, backlog) table titles
/// with `{n}` (ports) and `{t}` (arrival slots) filled in here.
fn fabric_sweep(
    quick: bool,
    link_for: impl Fn(usize, u64) -> FabricSpec + Sync,
    axis: &str,
    shard_counts: &[usize],
    titles: [&str; 2],
) -> Vec<Table> {
    let t = scaled_slots(384, quick);
    let n = if quick { 8 } else { 16 };
    let (cioq, xbar) = systems_workload(n, 2, t);
    // The reference OPT is the zero-latency bound: degradation along the
    // axis reads directly as "what the fabric latency costs against an
    // ideal fabric".
    let cioq_opt = opt_upper_bound(&cioq.0, &cioq.1).best();
    let xbar_opt = opt_upper_bound(&xbar.0, &xbar.1).best();
    let [degradation_title, backlog_title] = titles.map(|s| {
        s.replace("{n}", &n.to_string())
            .replace("{t}", &t.to_string())
    });

    let points: Vec<_> = paper_policies()
        .into_iter()
        .flat_map(|p| [0u64, 1, 2, 4, 8].map(|v| (p, v)))
        .collect();
    let rows = parallel_map(&points, |&((label, kind), v)| {
        let link = link_for(n, v);
        let on = side(kind, &cioq, &xbar);
        let report = run_with(kind, on, on_fabric(&link));
        // Tripwire: `kind` on `k` inline shards over `link` books the
        // totals of the sequential reference. The sharded engine runs GM
        // only, so every other row has no tripwire.
        let ok = (kind == PolicyKind::Gm).then(|| {
            shard_counts.iter().all(|&k| {
                let mut opts = ShardedOptions::new(k);
                opts.fabric = link.clone();
                opts.mode = ExecMode::Inline;
                let sharded = kind.run_sharded(&on.0, &on.1, opts).expect("sharded run");
                reports_agree(&report, &sharded.report)
            })
        });
        // Steady state: fixed arrival window, no drain — its backlog is
        // everything still buffered (or in flight) when the window closes.
        let steady_options = RunOptions {
            slots: Some(t),
            drain: false,
            validate: false,
            ..on_fabric(&link)
        };
        let steady = run_with(kind, on, steady_options);
        let opt = side(kind, cioq_opt, xbar_opt);
        (label, v, opt, on.1.len().max(1) as f64, report, ok, steady)
    });

    let ks: Vec<String> = shard_counts.iter().map(|k| k.to_string()).collect();
    let agrees = format!("sharded k={} agrees", ks.join(","));
    let mut degradation = Table::new(
        degradation_title,
        &[
            "policy",
            axis,
            "benefit",
            "delivered frac",
            "ratio vs OPT-UB(d=0)",
            "mean latency",
            &agrees,
        ],
    );
    let mut backlog = Table::new(
        backlog_title,
        &[
            "policy",
            axis,
            "transmitted",
            "backlog (incl. in flight)",
            "dropped",
            "mean latency",
        ],
    );
    for (label, v, opt, offered, report, ok, steady) in &rows {
        degradation.push(vec![
            label.to_string(),
            v.to_string(),
            report.benefit.0.to_string(),
            format!("{:.3}", report.transmitted as f64 / offered),
            format!("{:.3}", *opt as f64 / report.benefit.0.max(1) as f64),
            format!("{:.2}", report.mean_latency()),
            match ok {
                Some(true) => "yes".into(),
                Some(false) => "DIVERGED".into(),
                None => "-".into(),
            },
        ]);
        backlog.push(vec![
            label.to_string(),
            v.to_string(),
            steady.transmitted.to_string(),
            steady.residual_count.to_string(),
            steady.losses.total_count().to_string(),
            format!("{:.2}", steady.mean_latency()),
        ]);
    }
    vec![degradation, backlog]
}

/// S2 — latency-aware fabric transport: how the paper's guarantees degrade
/// when fabric transfers land `d` slots after dispatch (the multi-chassis
/// regime of Ye–Shen–Panwar), for d ∈ {0, 1, 2, 4, 8} and all four
/// policies.
///
/// Table 1 (drained runs): benefit, delivered fraction, ratio against the
/// *zero-latency* OPT upper bound — so the column shows the combined price
/// of online scheduling plus fabric latency — and mean packet latency. An
/// "agrees" tripwire runs the sharded engine (K ∈ {2, 4}, so shard widths
/// both align and misalign with the port count) through its uniform
/// delay-line transport on every GM point and checks report equality with
/// the delayed sequential reference; the other rows, whose policies only
/// the sequential engine runs, read `-`.
///
/// Table 2 (steady state, drain off): backlog left in the switch —
/// including packets still in flight — after a fixed arrival window, the
/// buffering the delay forces the fabric to absorb.
pub fn s2_delay(quick: bool) -> Vec<Table> {
    // Tripwire over k ∈ {2, 4}: k = 2 splits the switch in halves, k = 4
    // exercises uneven shard widths against the delay rings.
    fabric_sweep(
        quick,
        |_, d| FabricSpec::uniform(d),
        "d",
        &[2, 4],
        [
            "S2 — degradation vs fabric latency d (N={n}, bursty zipf, load 0.85, drained)",
            "S2 — steady-state backlog vs d (N={n}, {t} arrival slots, no drain)",
        ],
    )
}

/// S3 — topology-aware fabric sweep: a two-tier rack model (2 racks,
/// chassis-local intra-rack pairs at latency 0, cross-rack pairs riding
/// `inter` slots of wire) for inter ∈ {0, 1, 2, 4, 8} and all four
/// policies — the heterogeneous counterpart of S2's uniform sweep. The
/// `inter = 0` row degenerates to the paper's immediate fabric, so the
/// column reads directly as "what the cross-rack latency costs".
///
/// Table 1 (drained runs): benefit, delivered fraction, ratio against the
/// zero-latency OPT upper bound, and mean packet latency, with a sharded
/// (K = 2, rack-aligned *and* ring-exercising) agreement tripwire per GM
/// point: the sharded engine on the matrix fabric must book the exact
/// totals of the sequential topology-aware reference (the other rows read
/// `-`).
///
/// Table 2 (steady state, drain off): backlog left in the switch —
/// including packets still crossing between racks — after a fixed arrival
/// window.
pub fn s3_topology(quick: bool) -> Vec<Table> {
    use cioq_model::Topology;
    fabric_sweep(
        quick,
        |n, inter| FabricSpec::matrix(Topology::two_tier(n, n, 2, 0, inter).expect("two-tier")),
        "inter",
        &[2],
        [
            "S3 — degradation vs inter-rack delay (N={n}, 2 racks, intra=0, \
             bursty zipf, load 0.85, drained)",
            "S3 — steady-state backlog vs inter-rack delay (N={n}, 2 racks, \
             {t} arrival slots, no drain)",
        ],
    )
}

/// One experiment: takes `quick`, returns its tables.
type Experiment = fn(bool) -> Vec<Table>;

/// The full suite in running order, as `(id, experiment)` pairs — lazy, so
/// a caller runs only what it picks (the `exp` binary's `<id>|all|list`).
pub const EXPERIMENTS: [(&str, Experiment); 14] = [
    ("T1", t1_summary),
    ("F3", f3_gm_load),
    ("F4", f4_pg_beta),
    ("F5", f5_speedup),
    ("F6", f6_matching_cost),
    ("F7", f7_crossbar_buffer),
    ("F8", f8_adversarial),
    ("T2", t2_value_distributions),
    ("T3", t3_bursty),
    ("T4", t4_asymmetric),
    ("T5", t5_ablation),
    ("S1", s1_sharded),
    ("S2", s2_delay),
    ("S3", s3_topology),
];

#[cfg(test)]
mod tests {
    use super::*;

    // Full-suite smoke tests live in the workspace integration tests; here
    // just pin the cheapest experiment end to end.
    #[test]
    fn f6_produces_rows() {
        let tables = f6_matching_cost(true);
        assert_eq!(tables.len(), 1);
        assert!(tables[0].len() >= 3);
    }
}
