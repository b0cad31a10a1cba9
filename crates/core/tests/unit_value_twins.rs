//! Unit-value twins: two *different* paper policies that must decide
//! alike, and one policy that must not notice its values being rescaled —
//! metamorphic relations over the production engines, with no reference
//! implementation on either side.
//!
//! **PG on unit values is GM.** Every value is 1, so PG's input preemption
//! (`v(l_ij) < v(p)`) and its output rule (`v(g_ij) > β·v(l_j)`) ask
//! whether `1 > β·1` — false for every β ≥ 1, and for `without_preemption`
//! (β = ∞) — and neither ever preempts: an arrival to a full `Q_ij` is
//! rejected, as GM rejects it, and PG's edges are GM's, the non-empty
//! `Q_ij` toward a virtual output with room. PG's weighted greedy visits
//! edges by descending weight with equal weights in `(row, col)` order
//! (the order its row-champion keys sort in), which on a graph of equal
//! weights is GM's lexicographic greedy.
//!
//! **CPG on unit values is CGU first-fit.** `1 > β·1` and `1 > α·1` are
//! false, so CPG's input set `J` is CGU's eligible set (`|Q_ij| > 0 ∧
//! |C_ij| < B(C_ij)`), its output forwards only into a `Q_j` with room, as
//! CGU's does, and it never preempts. Its argmaxes break ties to the
//! smallest index, and with every head worth 1 the smallest eligible index
//! is CGU's first fit.
//!
//! A transcript here is the admissions plus every cycle's transfer pairs
//! (both crossbar subphases), plus the run report with its `policy` name
//! blanked; every one must first pass the engine's own port rule
//! (`invariants::check_schedule`). PG runs whole-switch, and its GM twin
//! whole-switch and partitioned at K ∈ {1, 2, 4}; the crossbar twins run
//! whole-switch; all on the immediate fabric and a two-tier one, at 6 × 70
//! (output bitmaps straddle a word) and 70 × 3 (rows straddle words of
//! the flat cell bitsets). The two sides share the band graph their caches
//! are kept in, and nothing else: no matching kernel, eligibility rule or
//! per-port choice.
//!
//! **Scaling values by 2^k changes no decision.** Multiplying every value
//! of a weighted trace by a power of two is exact in `f64` — the rounding
//! of `v as f64` and of `β·v` commutes with it — so every comparison PG and
//! CPG make (integer orders, and the β / α thresholds) comes out the same:
//! the transcripts are equal, and `benefit` is multiplied by 2^k.
//!
//! **Delaying every arrival by Δ slots shifts the transcript by Δ.** No
//! paper rule reads the slot number, so Δ empty leading slots change
//! nothing but when things happen: the admissions are the same, the
//! transfer sets are the same after Δ·ŝ empty leading cycles, and the run
//! report is the same but for `slots`, Δ longer.

mod common;

use cioq_core::params::PG_BETA;
use cioq_core::{
    CrossbarGreedyUnit, CrossbarPreemptiveGreedy, GreedyMatching, PreemptiveGreedy, SelectionOrder,
    ShardedGm,
};
use cioq_model::{PortId, SlotId, SwitchConfig, Topology, Value};
use cioq_sim::{
    invariants::check_schedule, run_cioq_sharded, CioqPolicy, CrossbarPolicy, Engine, FabricSpec,
    RecordedSchedule, RunReport, Trace,
};
use common::{recorded_run, run_options, sharded_options, RunFull};

const ARRIVAL_SLOTS: SlotId = 30;

/// An engine to run GM on: sequential (`None`) or sharded at K shards.
type Variant = Option<usize>;

fn variants() -> Vec<Variant> {
    std::iter::once(None).chain([1, 2, 4].map(Some)).collect()
}

// ---- workload ----

/// Small buffers, so rejections and full outputs — the cases the twins'
/// rules differ on with values other than 1 — occur constantly.
fn config(n: usize, m: usize, crossbar: bool) -> SwitchConfig {
    let builder = SwitchConfig::builder(n, m)
        .speedup(2)
        .input_capacity(2)
        .output_capacity(2);
    let builder = if crossbar {
        builder.crossbar_capacity(1)
    } else {
        builder
    };
    builder.build().expect("valid config")
}

fn fabrics(n: usize, m: usize) -> [FabricSpec; 2] {
    let two_tier = Topology::two_tier(n, m, 2, 0, 2).expect("valid topology");
    [FabricSpec::default(), FabricSpec::matrix(two_tier)]
}

/// splitmix64, written out so the traces depend on nothing but this file.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Two arrival attempts per input per slot, most aimed at the outputs on
/// both ends of the switch and of its first 64-bit word, with values
/// `scale · 2^e`, `e < levels` (all equal at `levels = 1`).
fn trace(n: usize, m: usize, levels: u64, scale: Value) -> Trace {
    let hot = [0, 63.min(m - 1), 64.min(m - 1), m - 1];
    let mut rng = 0x7_1115_u64 ^ (n * 1000 + m) as u64;
    let mut tuples = Vec::new();
    for slot in 0..ARRIVAL_SLOTS {
        for i in 0..n {
            for _ in 0..2 {
                if splitmix(&mut rng).is_multiple_of(4) {
                    continue;
                }
                let j = if splitmix(&mut rng) % 10 < 7 {
                    hot[(splitmix(&mut rng) % 4) as usize]
                } else {
                    (splitmix(&mut rng) % m as u64) as usize
                };
                let v = scale << (splitmix(&mut rng) % levels);
                tuples.push((slot, PortId::from(i), PortId::from(j), v));
            }
        }
    }
    Trace::from_tuples(tuples)
}

// ---- transcripts ----

/// What a run decided, engine-independent: the report with the policy
/// name blanked, and the decision transcript.
type Transcript = (RunReport, RecordedSchedule);

/// A run's transcript, once its schedule has passed the engine's own port
/// rule.
fn checked(report: RunReport, schedule: RecordedSchedule, cfg: &SwitchConfig) -> Transcript {
    assert_eq!(check_schedule(&schedule, cfg), Ok(()), "{}", report.policy);
    let mut report = report;
    report.policy.clear();
    (report, schedule)
}

/// A sequential run's transcript, on either architecture.
fn transcript<P>(
    policy: P,
    run: RunFull<P>,
    cfg: &SwitchConfig,
    trace: &Trace,
    fabric: &FabricSpec,
) -> Transcript {
    let options = run_options(fabric, None);
    let (outcome, schedule) = recorded_run(cfg, policy, run, trace, &options, None);
    checked(outcome.report, schedule, cfg)
}

/// GM's transcript on the engine `variant` names.
fn gm_transcript(
    cfg: &SwitchConfig,
    trace: &Trace,
    fabric: &FabricSpec,
    variant: Variant,
) -> Transcript {
    let Some(k) = variant else {
        return transcript(
            GreedyMatching::new(),
            Engine::run_cioq_full,
            cfg,
            trace,
            fabric,
        );
    };
    let options = sharded_options(k, &run_options(fabric, None), None);
    let outcome = run_cioq_sharded(cfg, &ShardedGm::new(), trace, options).expect("sharded run");
    let schedule = outcome.schedule.expect("recorded");
    checked(outcome.report, schedule, cfg)
}

/// The geometries every relation runs at, each with the fabrics.
fn cases() -> impl Iterator<Item = (usize, usize, FabricSpec)> {
    [(6, 70), (70, 3)]
        .into_iter()
        .flat_map(|(n, m)| fabrics(n, m).map(move |fabric| (n, m, fabric)))
}

// ---- first relation: unit values ----

#[test]
fn pg_on_unit_values_is_gm() {
    let pgs: [fn() -> PreemptiveGreedy; 4] = [
        || PreemptiveGreedy::with_beta(1.0),
        || PreemptiveGreedy::with_beta(PG_BETA),
        || PreemptiveGreedy::with_beta(4.0),
        PreemptiveGreedy::without_preemption,
    ];
    for (n, m, fabric) in cases() {
        let (cfg, trace) = (config(n, m, false), trace(n, m, 1, 1));
        let pg_runs = pgs.map(|make| {
            let pg = make();
            (
                pg.beta(),
                transcript(pg, Engine::run_cioq_full, &cfg, &trace, &fabric),
            )
        });
        for variant in variants() {
            let gm = gm_transcript(&cfg, &trace, &fabric, variant);
            assert!(gm.0.losses.rejected > 0, "{n}×{m}: the run must reject");
            for (beta, pg) in &pg_runs {
                let what = format!("{beta} {n}×{m} {} against GM {variant:?}", fabric.label());
                assert_eq!(pg, &gm, "PG(β = {what})");
            }
        }
    }
}

#[test]
fn cpg_on_unit_values_is_first_fit_cgu() {
    let cpgs: [fn() -> CrossbarPreemptiveGreedy; 2] = [
        CrossbarPreemptiveGreedy::new,
        CrossbarPreemptiveGreedy::single_parameter,
    ];
    for (n, m, fabric) in cases() {
        let (cfg, trace) = (config(n, m, true), trace(n, m, 1, 1));
        let cgu = transcript(
            CrossbarGreedyUnit::new(),
            Engine::run_crossbar_full,
            &cfg,
            &trace,
            &fabric,
        );
        assert!(cgu.0.losses.rejected > 0, "{n}×{m}: the run must reject");
        for make in cpgs {
            let cpg = make();
            let what = format!("{} {n}×{m} {}", cpg.alpha(), fabric.label());
            let got = transcript(cpg, Engine::run_crossbar_full, &cfg, &trace, &fabric);
            assert_eq!(got, cgu, "CPG(α = {what}) against CGU");
        }
    }
}

// ---- second relation: scaling by a power of two ----

/// `report` with every value-weighted figure divided by `scale`, so a
/// scaled run's report can be compared field for field with the unscaled
/// one's; `benefit` is divided exactly or the relation fails.
fn unscaled(mut report: RunReport, scale: Value) -> RunReport {
    let s = u128::from(scale);
    assert_eq!(
        report.benefit.0 % s,
        0,
        "benefit is a multiple of the scale"
    );
    report.benefit.0 /= s;
    report.arrived_value /= s;
    report.residual_value /= s;
    let losses = &mut report.losses;
    for v in [
        &mut losses.rejected_value,
        &mut losses.preempted_input_value,
        &mut losses.preempted_crossbar_value,
        &mut losses.preempted_output_value,
        &mut losses.dropped_value,
    ] {
        *v /= s;
    }
    report
}

#[test]
fn scaling_values_by_a_power_of_two_changes_no_decision() {
    for (n, m, fabric) in cases() {
        let base = trace(n, m, 8, 1);
        let (cioq, crossbar) = (config(n, m, false), config(n, m, true));
        for k in [1, 7, 30] {
            let scaled = trace(n, m, 8, 1 << k);
            let what = format!("2^{k} {n}×{m} {}", fabric.label());
            let run = |trace| {
                transcript(
                    PreemptiveGreedy::new(),
                    Engine::run_cioq_full,
                    &cioq,
                    trace,
                    &fabric,
                )
            };
            let (want, got) = (run(&base), run(&scaled));
            assert!(want.0.losses.preempted_input > 0, "{what}: PG must preempt");
            assert_eq!(got.1, want.1, "PG {what}: transcript");
            assert_eq!(got.0.benefit.0, want.0.benefit.0 << k, "PG {what}: benefit");
            assert_eq!(unscaled(got.0, 1 << k), want.0, "PG {what}: report");

            let run = |trace| {
                let cpg = CrossbarPreemptiveGreedy::new();
                transcript(cpg, Engine::run_crossbar_full, &crossbar, trace, &fabric)
            };
            let (want, got) = (run(&base), run(&scaled));
            let preempted = want.0.losses.preempted_crossbar;
            assert!(preempted > 0, "{what}: CPG's β rule must fire");
            assert_eq!(got.1, want.1, "CPG {what}: transcript");
            assert_eq!(
                got.0.benefit.0,
                want.0.benefit.0 << k,
                "CPG {what}: benefit"
            );
            assert_eq!(unscaled(got.0, 1 << k), want.0, "CPG {what}: report");
        }
    }
}

// ---- third relation: delaying every arrival ----

/// Δ, the slots every arrival is delayed by.
const SHIFT: SlotId = 5;

/// `trace` with every arrival `SHIFT` slots later, packets numbered alike.
fn shifted(trace: &Trace) -> Trace {
    let packets = trace.packets().iter();
    Trace::from_tuples(packets.map(|p| (p.arrival + SHIFT, p.input, p.output, p.value)))
}

/// The delayed run `later` against `base`: the same admissions, on every
/// track of transfer sets (the input subphase, empty on a CIOQ switch, and
/// what entered the fabric) Δ·ŝ leading cycles with no transfer and then
/// the same sets, and the same report but for `slots`, Δ longer.
fn assert_shifted(later: Transcript, base: Transcript, speedup: u32, what: &str) {
    let ((mut report, s), (base_report, b)) = (later, base);
    assert!(base_report.transmitted > 0, "{what}: nothing transmitted");
    assert_eq!(s.admissions, b.admissions, "{what}: admissions");
    let empty = (SHIFT * SlotId::from(speedup)) as usize;
    let tracks = [
        (&s.input_transfers, &b.input_transfers),
        (&s.transfers, &b.transfers),
    ];
    for (track, base_track) in tracks {
        if base_track.is_empty() {
            assert!(track.is_empty(), "{what}: a track the base run lacks");
            continue;
        }
        let (leading, rest) = track.split_at(empty);
        assert!(
            leading.iter().all(Vec::is_empty),
            "{what}: a transfer before the first arrival"
        );
        assert_eq!(rest, &base_track[..], "{what}: transfers");
    }
    report.slots -= SHIFT;
    assert_eq!(report, base_report, "{what}: report");
}

/// GM, PG (β = 1 + √2 and no-preempt), CGU (first fit and round robin) and
/// CPG on the sequential engine, each over the immediate, a `uniform(3)`
/// and a two-tier fabric, with every arrival of a weighted trace delayed by
/// Δ. Left out, because the relation does not hold for them: GM's
/// `RotateByCycle` ablation, which rotates its edge order by the cycle
/// number, and fault plans, which fire at absolute slots.
#[test]
fn shifting_arrivals_shifts_the_transcript() {
    let (n, m) = (6, 70);
    let base = trace(n, m, 8, 1);
    let later = shifted(&base);
    let (cioq, crossbar) = (config(n, m, false), config(n, m, true));
    let cioq_policies: [fn() -> Box<dyn CioqPolicy>; 3] = [
        || Box::new(GreedyMatching::new()),
        || Box::new(PreemptiveGreedy::new()),
        || Box::new(PreemptiveGreedy::without_preemption()),
    ];
    let crossbar_policies: [fn() -> Box<dyn CrossbarPolicy>; 3] = [
        || Box::new(CrossbarGreedyUnit::new()),
        || {
            Box::new(CrossbarGreedyUnit::with_selection(
                SelectionOrder::RoundRobin,
            ))
        },
        || Box::new(CrossbarPreemptiveGreedy::new()),
    ];
    let [immediate, two_tier] = fabrics(n, m);
    for fabric in [immediate, FabricSpec::uniform(3), two_tier] {
        for make in cioq_policies {
            let what = format!("{} {}", make().name(), fabric.label());
            let run =
                |trace| transcript(&mut *make(), Engine::run_cioq_full, &cioq, trace, &fabric);
            assert_shifted(run(&later), run(&base), cioq.speedup, &what);
        }
        for make in crossbar_policies {
            let what = format!("{} {}", make().name(), fabric.label());
            let run = |trace| {
                transcript(
                    &mut *make(),
                    Engine::run_crossbar_full,
                    &crossbar,
                    trace,
                    &fabric,
                )
            };
            assert_shifted(run(&later), run(&base), crossbar.speedup, &what);
        }
    }
}
