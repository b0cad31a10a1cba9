//! The experiment suite: one function per table/figure (F3–F8, T1–T5, the
//! systems suites S1–S3); each function's doc comment says what it measures.
//!
//! Every function is deterministic (fixed seeds), returns renderable
//! [`Table`]s, and is exercised at reduced scale by integration tests and
//! `--quick` runs. [`EXPERIMENTS`] is the one table of them; the `exp`
//! binary runs any of it by id.

use crate::policies::{run_policy, PolicyKind};
use crate::ratio::{RatioRow, Workload};
use crate::runner::parallel_map;
use crate::scaled_slots;
use crate::table::{fmt_ratio, Table};
use cioq_matching::{
    greedy_maximal, greedy_maximal_weighted, hopcroft_karp, hungarian_max_weight, BipartiteGraph,
    EdgeOrder, Islip,
};
use cioq_model::{SwitchConfig, Threshold};
use cioq_opt::{opt_upper_bound, opt_upper_bound_is_exact};
use cioq_sim::{run_cioq_with_source, FabricSpec, RunOptions, Trace};
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
    let cioq = SwitchConfig::cioq(n, 4, speedup);
    // A generator reads only the port counts, so one trace serves both.
    let trace = gen_trace(&gen, &cioq, t, SEED);
    (
        (cioq, trace.clone()),
        (SwitchConfig::crossbar(n, 4, 2, speedup), trace),
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

/// Build every `(label, switch, trace)` into a [`Workload`], solving the
/// OPT bounds in parallel — once per workload, whatever measures it.
fn build<L: AsRef<str> + Sync>(specs: &[(L, SwitchConfig, Trace)]) -> Vec<Workload> {
    parallel_map(specs, |(label, cfg, trace)| {
        Workload::new(label.as_ref(), cfg.clone(), trace.clone())
    })
}

/// Measure every `(workload index, policy)` point in parallel; rows come
/// back in point order.
fn measure(workloads: &[Workload], points: &[(usize, PolicyKind)]) -> Vec<RatioRow> {
    parallel_map(points, |&(w, kind)| workloads[w].measure(kind))
}

/// Every policy in `kinds` on every workload `0..n`, workload-major.
fn grid(n: usize, kinds: &[PolicyKind]) -> Vec<(usize, PolicyKind)> {
    (0..n)
        .flat_map(|w| kinds.iter().map(move |&kind| (w, kind)))
        .collect()
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

    let iq_cfg = SwitchConfig::iq_model(m, b);
    let cioq_cfg = SwitchConfig::cioq(4, 4, 1);
    let xbar_cfg = SwitchConfig::crossbar(4, 4, 2, 1);
    // The 4 × 4 crossbar has the CIOQ switch's ports, so its bursty
    // traces are the CIOQ ones.
    let bursty = |values| gen_trace(&OnOffBursty::new(0.9, 12.0, values), &cioq_cfg, t, SEED);
    let bursty_unit = bursty(ValueDist::Unit);
    let bursty_zipf = bursty(ValueDist::Zipf {
        max: 64,
        exponent: 1.1,
    });
    let hot = gen_trace(
        &Hotspot::new(0.9, 0.7, 0, ValueDist::Unit),
        &cioq_cfg,
        t,
        SEED + 1,
    );
    let wflood = pg_weighted_flood(m, b, 1000);
    let esc = escalation_bait(EscalationParams {
        m,
        b,
        gamma: 2.8,
        phases: if quick { 6 } else { 12 },
    });
    let workloads = build(&[
        ("flood", iq_cfg.clone(), gm_iq_flood(m, b)),
        ("bursty-unit", cioq_cfg.clone(), bursty_unit.clone()),
        ("hotspot", cioq_cfg.clone(), hot),
        ("weighted-flood", iq_cfg.clone(), wflood),
        ("escalation", iq_cfg, esc),
        ("bursty-zipf", cioq_cfg, bursty_zipf.clone()),
        ("bursty-unit", xbar_cfg.clone(), bursty_unit),
        ("bursty-zipf", xbar_cfg, bursty_zipf),
    ]);

    // Each policy with the indices of its workloads above. The order
    // matters: among equal worst ratios, the last one listed is printed.
    let unit: &[usize] = &[0, 1, 2];
    let weighted: &[usize] = &[0, 3, 4, 5, 2];
    let policies = [
        (PolicyKind::Gm, unit),
        (PolicyKind::KrMaxMatching, unit),
        (PolicyKind::Islip(2), unit),
        (PolicyKind::pg_default(), weighted),
        (PolicyKind::KrMaxWeight(Threshold::OnePlusSqrt2), weighted),
        (PolicyKind::Cgu, &[6]),
        (PolicyKind::cpg_default(), &[7]),
    ];
    let points: Vec<_> = policies
        .iter()
        .flat_map(|&(kind, ws)| ws.iter().map(move |&w| (w, kind)))
        .collect();
    let rows = measure(&workloads, &points);

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
    for (kind, _) in policies {
        let ((w, _), row) = points
            .iter()
            .zip(&rows)
            .filter(|((_, k), _)| *k == kind)
            .max_by(|a, b| a.1.ratio.total_cmp(&b.1.ratio))
            .expect("every policy has points");
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
            workloads[*w].label.clone(),
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
    let workloads = parallel_map(&points, |&(b, s, load)| {
        let cfg = SwitchConfig::cioq(n, b, s);
        let trace = gen_trace(
            &BernoulliUniform::new(load, ValueDist::Unit),
            &cfg,
            t,
            SEED ^ (b as u64) ^ ((s as u64) << 8) ^ ((load * 100.0) as u64),
        );
        Workload::new("bernoulli-unit", cfg, trace)
    });
    let rows = measure(&workloads, &grid(points.len(), &[PolicyKind::Gm]));

    let mut table = Table::new(
        "F3 — GM vs offered load (N=8, Bernoulli uniform, unit values)",
        &["B", "speedup", "load", "delivered frac", "ratio vs OPT-UB"],
    );
    for (((b, s, load), w), row) in points.iter().zip(&workloads).zip(rows) {
        let delivered = row.benefit as f64 / w.trace.len().max(1) as f64;
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
    // Exact ratios: the decimal 1.2 means 6/5, not the binary value just
    // below it, which would let v = 6 pass over u = 5.
    let betas = [
        Threshold::ratio(6, 5),
        Threshold::ratio(3, 2),
        Threshold::ratio(2, 1),
        Threshold::OnePlusSqrt2,
        Threshold::ratio(3, 1),
        Threshold::ratio(4, 1),
        Threshold::ratio(6, 1),
    ];

    let esc = escalation_bait(EscalationParams {
        m,
        b,
        gamma: 3.0,
        phases: if quick { 6 } else { 14 },
    });
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
    let workloads = build(&[
        ("escalation", SwitchConfig::iq_model(m, b), esc),
        ("incast", stress_cfg, stress),
    ]);
    // β-major: each β's two rows sit together.
    let points: Vec<_> = betas
        .iter()
        .flat_map(|&beta| [(0, PolicyKind::Pg(beta)), (1, PolicyKind::Pg(beta))])
        .collect();
    let rows = measure(&workloads, &points);

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
    for (beta, pair) in betas.iter().zip(rows.chunks(2)) {
        let (esc_row, stress_row) = (&pair[0], &pair[1]);
        table.push(vec![
            format!("{:.3}", beta.as_f64()),
            format!("{:.3}", cioq_core::params::pg_ratio(beta.as_f64())),
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
    // Shallow buffers + full uniform load: the fabric, not the output
    // line, is the bottleneck, so speedup genuinely buys throughput. One
    // trace for every point: the speedup axis is the only thing varying.
    let trace = gen_trace(
        &BernoulliUniform::new(1.0, ValueDist::Unit),
        &SwitchConfig::cioq(8, 2, 1),
        t,
        SEED,
    );
    // Per speedup, the CIOQ switch then the crossbar.
    let specs: Vec<_> = speedups
        .iter()
        .flat_map(|&s| {
            [
                ("uniform", SwitchConfig::cioq(8, 2, s), trace.clone()),
                ("uniform", SwitchConfig::crossbar(8, 2, 1, s), trace.clone()),
            ]
        })
        .collect();
    let workloads = build(&specs);
    let points: Vec<_> = grid(speedups.len(), &policies)
        .into_iter()
        .map(|(s, kind)| (2 * s + usize::from(kind.is_crossbar()), kind))
        .collect();
    let rows = measure(&workloads, &points);

    let mut table = Table::new(
        "F5 — delivered fraction and ratio vs speedup (uniform load 1.0, B=2)",
        &["speedup", "policy", "delivered frac", "ratio vs OPT-UB"],
    );
    for ((w, _), row) in points.iter().zip(rows) {
        let frac = row.benefit as f64 / trace.len().max(1) as f64;
        table.push(vec![
            workloads[*w].cfg.speedup.to_string(),
            row.policy.clone(),
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
        let hungarian_us = time_us(&mut || {
            std::hint::black_box(hungarian_max_weight(&g));
        });
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
    let cioq_cfg = SwitchConfig::cioq(8, 4, 1);
    let incast = Incast::new(
        8,
        2,
        0.4,
        ValueDist::Zipf {
            max: 16,
            exponent: 1.0,
        },
    );
    let trace = gen_trace(&incast, &cioq_cfg, t, SEED);
    // The reference first: plain CIOQ with the same traffic, then one
    // crossbar per crosspoint capacity, each labelled as its table rows.
    let mut specs = vec![("(cioq)".to_string(), cioq_cfg, trace.clone())];
    for &bc in &caps {
        let cfg = SwitchConfig::crossbar(8, 4, bc, 1);
        specs.push((bc.to_string(), cfg, trace.clone()));
    }
    let workloads = build(&specs);
    let mut points = grid(1, &[PolicyKind::Gm, PolicyKind::pg_default()]);
    for (w, kind) in grid(caps.len(), &[PolicyKind::Cgu, PolicyKind::cpg_default()]) {
        points.push((w + 1, kind));
    }
    let rows = measure(&workloads, &points);

    let mut table = Table::new(
        "F7 — crossbar buffer size sweep (incast traffic)",
        &["B_crossbar", "policy", "benefit", "ratio vs OPT-UB"],
    );
    for ((w, _), row) in points.iter().zip(rows) {
        table.push(vec![
            workloads[*w].label.clone(),
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

    let floods = parallel_map(&ms, |&m| {
        Workload::new("flood", SwitchConfig::iq_model(m, b), gm_iq_flood(m, b))
    });
    let flood_rows = measure(&floods, &grid(ms.len(), &[PolicyKind::Gm]));
    let mut flood = Table::new(
        "F8a — oblivious flood vs GM on IQ (exact OPT; theory: ratio = 2 - 1/m)",
        &["m", "B", "measured ratio", "2 - 1/m"],
    );
    for ((&m, w), row) in ms.iter().zip(&floods).zip(flood_rows) {
        // Exactness cross-check: flow bound == closed-form OPT.
        assert_eq!(
            w.opt_bound,
            gm_iq_flood_opt_benefit(m, b),
            "per-output bound must equal the closed-form OPT on IQ floods"
        );
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
    let wfloods = parallel_map(&ms, |&m| {
        let trace = pg_weighted_flood(m, b, w);
        Workload::new("weighted-flood", SwitchConfig::iq_model(m, b), trace)
    });
    let wflood_rows = measure(&wfloods, &grid(ms.len(), &[PolicyKind::pg_default()]));
    let mut wflood = Table::new(
        "F8c — weighted flood vs PG on IQ (exact OPT; limit 2 - 1/m as w grows)",
        &["m", "B", "measured ratio", "2 - 1/m"],
    );
    for ((&m, workload), row) in ms.iter().zip(&wfloods).zip(wflood_rows) {
        assert_eq!(
            workload.opt_bound,
            pg_weighted_flood_opt_benefit(m, b, w),
            "per-output bound must equal the closed-form OPT on weighted floods"
        );
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
    let m = if quick { 3 } else { 6 };
    let escalations = parallel_map(&gammas, |&gamma| {
        let trace = escalation_bait(EscalationParams {
            m,
            b,
            gamma,
            phases: if quick { 6 } else { 14 },
        });
        Workload::new("escalation", SwitchConfig::iq_model(m, b), trace)
    });
    let esc_rows = measure(
        &escalations,
        &grid(gammas.len(), &[PolicyKind::pg_default()]),
    );
    let mut esc = Table::new(
        "F8d — geometric escalation vs PG on IQ (exact OPT; PG stays near 1)",
        &["gamma", "measured ratio", "theorem bound"],
    );
    for (gamma, row) in gammas.iter().zip(esc_rows) {
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
        PolicyKind::KrMaxWeight(Threshold::OnePlusSqrt2),
        PolicyKind::PgNoPreempt,
        PolicyKind::Gm,
    ];
    let keys: Vec<_> = dists
        .iter()
        .flat_map(|d| loads.map(|load| (d, load)))
        .collect();
    let workloads = parallel_map(&keys, |&(dist, load)| {
        let cfg = SwitchConfig::cioq(4, 4, 1);
        let trace = gen_trace(
            &BernoulliUniform::new(load, dist.clone()),
            &cfg,
            t,
            SEED ^ ((load * 10.0) as u64),
        );
        Workload::new(dist.name(), cfg, trace)
    });
    let points = grid(keys.len(), &policies);
    let rows = measure(&workloads, &points);

    let mut table = Table::new(
        "T2 — value-distribution sweep (N=4 CIOQ, ratio vs OPT-UB)",
        &["values", "load", "policy", "benefit", "ratio"],
    );
    for ((w, _), row) in points.iter().zip(rows) {
        table.push(vec![
            workloads[*w].label.clone(),
            format!("{:.1}", keys[*w].1),
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
    let cfg = SwitchConfig::cioq(8, 8, 1);
    let traces = parallel_map(&bursts, |&mean_burst| {
        gen_trace(
            &OnOffBursty::new(0.7, mean_burst, ValueDist::Unit),
            &cfg,
            t,
            SEED + mean_burst as u64,
        )
    });
    let points = grid(bursts.len(), &policies);
    let reports = parallel_map(&points, |&(w, kind)| {
        run_policy(kind, &cfg, &traces[w], RunOptions::default()).expect("run")
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
    for ((w, kind), report) in points.iter().zip(reports) {
        let offered = traces[*w].len().max(1) as f64;
        table.push(vec![
            format!("{:.1}", bursts[*w]),
            kind.label(),
            format!("{:.3}", report.transmitted as f64 / offered),
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
    let workloads = parallel_map(&shapes, |&(n, m)| {
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
        Workload::new(format!("{n}x{m}"), cfg, trace)
    });
    let points = grid(shapes.len(), &[PolicyKind::Gm, PolicyKind::pg_default()]);
    let rows = measure(&workloads, &points);
    let mut table = Table::new(
        "T4 — asymmetric N x M switches (load 0.8, zipf values)",
        &["N x M", "policy", "benefit", "ratio vs OPT-UB"],
    );
    for ((w, _), row) in points.iter().zip(rows) {
        table.push(vec![
            workloads[*w].label.clone(),
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
    let unit = gen_trace(
        &Hotspot::new(0.9, 0.6, 0, ValueDist::Unit),
        &cioq_cfg,
        t,
        SEED + 1,
    );
    // The 8 × 4 crossbar has the CIOQ switch's ports: one weighted trace
    // serves both.
    let weighted = gen_trace(
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
    let xbar_cfg = SwitchConfig::crossbar(8, 4, 2, 1);
    // One group per workload, in this order.
    let workloads = build(&[
        ("hotspot-unit", cioq_cfg.clone(), unit),
        ("bursty-bimodal", cioq_cfg, weighted.clone()),
        ("bursty-bimodal", xbar_cfg, weighted),
    ]);
    let groups = [
        (
            "unit CIOQ: edge order + matching strength",
            vec![
                PolicyKind::Gm,
                PolicyKind::GmRotate,
                PolicyKind::KrMaxMatching,
                PolicyKind::Islip(2),
            ],
        ),
        (
            "weighted CIOQ: preemption + matching strength",
            vec![
                PolicyKind::pg_default(),
                PolicyKind::PgNoPreempt,
                PolicyKind::KrMaxWeight(Threshold::OnePlusSqrt2),
                PolicyKind::Gm,
            ],
        ),
        (
            "weighted crossbar: two parameters vs one",
            vec![
                PolicyKind::cpg_default(),
                PolicyKind::CpgSingleParam,
                PolicyKind::Cgu,
            ],
        ),
    ];
    let points: Vec<_> = groups
        .iter()
        .enumerate()
        .flat_map(|(w, (_, kinds))| kinds.iter().map(move |&kind| (w, kind)))
        .collect();
    let mut rows = measure(&workloads, &points).into_iter();

    let mut tables = Vec::new();
    for (title, kinds) in groups {
        let rows: Vec<RatioRow> = rows.by_ref().take(kinds.len()).collect();
        let best = rows.iter().map(|r| r.benefit).max().unwrap_or(1).max(1);
        let mut table = Table::new(
            format!("T5 — ablation: {title}"),
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

/// S1 — partitioned GM vs whole-switch GM on the one slot engine: per
/// shard count, identical results (proof echoed in the table) and the
/// wall-clock cost of each run. Partitioning is bit-identical by
/// construction, so the "agrees" column (the whole report equal) is a
/// tripwire, not a tolerance.
pub fn s1_sharded(quick: bool) -> Vec<Table> {
    let t = scaled_slots(256, quick);
    let n = if quick { 12 } else { 48 };
    let ((cfg, trace), _) = systems_workload(n, 1, t);
    // One run at a time: timing several runs at once puts them on shared
    // cores, and the ms columns then measure the host's scheduler instead
    // of the run.
    let timed = |kind| {
        // detlint: allow(D2) reason="speedup column reports wall time; never feeds simulation state"
        let t0 = Instant::now();
        let report = run_policy(kind, &cfg, &trace, RunOptions::default()).expect("run");
        (report, t0.elapsed().as_secs_f64() * 1e3)
    };
    // The whole-switch reference is invariant in K: run (and time) it once.
    let (seq, seq_ms) = timed(PolicyKind::Gm);

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
    for k in [1usize, 2, 4] {
        let (sharded, sharded_ms) = timed(PolicyKind::GmPartitioned(k));
        table.push(vec![
            "GM".to_string(),
            k.to_string(),
            sharded.benefit.0.to_string(),
            sharded.transmitted.to_string(),
            if seq == sharded {
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
        let (cfg, trace) = side(kind, &cioq, &xbar);
        let run = |kind, options| run_policy(kind, cfg, trace, options).expect("run");
        let report = run(kind, on_fabric(&link));
        // Tripwire: GM partitioned over `k` shards on `link` books the
        // whole report of the whole-switch run. Only GM runs partitioned,
        // so every other row has no tripwire.
        let ok = (kind == PolicyKind::Gm).then(|| {
            shard_counts
                .iter()
                .all(|&k| report == run(PolicyKind::GmPartitioned(k), on_fabric(&link)))
        });
        // Steady state: fixed arrival window, no drain — its backlog is
        // everything still buffered (or in flight) when the window closes.
        let steady_options = RunOptions {
            slots: Some(t),
            drain: false,
            validate: false,
            ..on_fabric(&link)
        };
        let steady = run(kind, steady_options);
        let opt = side(kind, cioq_opt, xbar_opt);
        (label, v, opt, trace.len().max(1) as f64, report, ok, steady)
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
    // exercises uneven shard widths against the delay line.
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
/// (K = 2, rack-aligned *and* delay-line-exercising) agreement tripwire per GM
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
