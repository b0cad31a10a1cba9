//! Determinism of the parallel sweep harness, proven on real suites of
//! the `exp` binary (`suite::EXPERIMENTS`): a `parallel_map`-driven run
//! renders **byte-identical** tables to a forced single-thread run — the
//! ROADMAP's "parallel experiment runner" item closed with proof, not
//! just wiring.
//!
//! The single #[test] keeps the thread-count override serialized: each
//! suite function runs once under `with_sweep_threads(1)` (pure sequential
//! reference) and once at an explicit worker count, and the rendered bytes
//! must match exactly. Results are written by item index inside
//! `parallel_map`, so scheduling cannot reorder rows; this test is the
//! tripwire that keeps that property true as experiments evolve.

use cioq_experiments::{suite, with_sweep_threads, Table};

fn render_all(tables: &[Table]) -> String {
    tables
        .iter()
        .map(|t| format!("{}\n{}", t.render(), t.to_markdown()))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn parallel_sweeps_render_byte_identical_tables() {
    type Experiment = (&'static str, fn(bool) -> Vec<Table>);
    // The cheapest fully-deterministic suites that exercise parallel_map
    // over heterogeneous point types: CIOQ ratio sweeps (T4), speedup
    // sweeps across both fabrics (F5), crossbar buffer sweeps (F7), and
    // the two whose workloads serve several policy groups: T1 (a policy
    // per set of workloads, the worst row picked per policy) and T5 (one
    // flat sweep split back into three tables). (F6 and S1 print
    // wall-clock columns, so they are exercised by the suite smoke tests
    // instead.)
    let experiments: Vec<Experiment> = vec![
        ("T4", suite::t4_asymmetric),
        ("F5", suite::f5_speedup),
        ("F7", suite::f7_crossbar_buffer),
        ("T1", suite::t1_summary),
        ("T5", suite::t5_ablation),
    ];
    for (id, run) in experiments {
        let sequential = with_sweep_threads(1, || render_all(&run(true)));
        for threads in [2usize, 8] {
            let parallel = with_sweep_threads(threads, || render_all(&run(true)));
            assert_eq!(
                sequential, parallel,
                "{id}: tables diverged between 1 and {threads} sweep threads"
            );
        }
    }
}
