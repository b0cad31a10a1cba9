//! Run the entire experiment suite (every table and figure of
//! `cioq_experiments::suite`) in order. Pass `--quick` for a reduced-scale run,
//! `--markdown` for markdown output.
use cioq_experiments::{suite, Table};
use std::time::Instant;

fn main() {
    let quick = cioq_experiments::quick_mode();
    let markdown = std::env::args().any(|a| a == "--markdown");
    // detlint: allow(D2) reason="progress log timestamps only; never feeds simulation state"
    let start = Instant::now();
    type Experiment = (&'static str, fn(bool) -> Vec<Table>);
    let experiments: Vec<Experiment> = vec![
        ("T1", suite::t1_summary),
        ("F3", suite::f3_gm_load),
        ("F4", suite::f4_pg_beta),
        ("F5", suite::f5_speedup),
        ("F6", suite::f6_matching_cost),
        ("F7", suite::f7_crossbar_buffer),
        ("F8", suite::f8_adversarial),
        ("T2", suite::t2_value_distributions),
        ("T3", suite::t3_bursty),
        ("T4", suite::t4_asymmetric),
        ("T5", suite::t5_ablation),
        ("S1", suite::s1_sharded),
        ("S2", suite::s2_delay),
        ("S3", suite::s3_topology),
    ];
    for (id, run) in experiments {
        // detlint: allow(D2) reason="progress log timestamps only; never feeds simulation state"
        let t0 = Instant::now();
        let tables = run(quick);
        eprintln!(
            "[{:>8.1?}] experiment {id} done in {:.1?}",
            start.elapsed(),
            t0.elapsed()
        );
        for table in tables {
            if markdown {
                println!("{}", table.to_markdown());
            } else {
                table.print();
            }
        }
    }
    eprintln!("suite finished in {:.1?}", start.elapsed());
}
