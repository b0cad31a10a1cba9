//! Smoke-run the full experiment suite at reduced scale: every table must
//! materialize, and T1's verdict column must be clean.

use cioq_experiments::suite;

#[test]
fn t1_summary_verdicts_are_ok() {
    let tables = suite::t1_summary(true);
    assert_eq!(tables.len(), 1);
    let rendered = tables[0].render();
    assert!(
        !rendered.contains("VIOLATION"),
        "a theorem-bound violation was measured:\n{rendered}"
    );
    assert!(rendered.contains("GM"));
    assert!(rendered.contains("CPG"));
}

#[test]
fn f3_gm_never_exceeds_three() {
    let tables = suite::f3_gm_load(true);
    for table in &tables {
        for line in table.render().lines().skip(2) {
            if let Some(ratio_str) = line.split_whitespace().last() {
                if let Ok(ratio) = ratio_str.parse::<f64>() {
                    assert!(ratio <= 3.0 + 1e-9, "GM ratio {ratio} exceeds Theorem 1");
                }
            }
        }
    }
}

#[test]
fn f8_flood_rows_match_theory() {
    let tables = suite::f8_adversarial(true);
    assert!(tables.len() >= 3);
    // F8a: measured == 2 - 1/m to 4 decimals (both columns identical).
    for line in tables[0].render().lines().skip(2) {
        let cols: Vec<&str> = line.split_whitespace().collect();
        if cols.len() == 4 {
            assert_eq!(cols[2], cols[3], "flood ratio must equal 2 - 1/m: {line}");
        }
    }
}

#[test]
fn remaining_experiments_materialize() {
    for (id, tables) in [
        ("F4", suite::f4_pg_beta(true)),
        ("F5", suite::f5_speedup(true)),
        ("F7", suite::f7_crossbar_buffer(true)),
        ("T2", suite::t2_value_distributions(true)),
        ("T3", suite::t3_bursty(true)),
        ("T4", suite::t4_asymmetric(true)),
        ("T5", suite::t5_ablation(true)),
    ] {
        assert!(!tables.is_empty(), "{id} produced no tables");
        for t in &tables {
            assert!(!t.is_empty(), "{id} produced an empty table");
        }
    }
}

#[test]
fn s1_sharded_sweep_agrees_with_sequential() {
    let tables = suite::s1_sharded(true);
    assert_eq!(tables.len(), 1);
    let rendered = tables[0].render();
    assert!(
        !rendered.contains("DIVERGED"),
        "sharded sweep diverged from the sequential engine:\n{rendered}"
    );
    // 4 policies × K ∈ {1, 2, 4}.
    assert_eq!(tables[0].len(), 12);
}

#[test]
fn s2_delay_sweep_degrades_monotonically_enough() {
    let tables = suite::s2_delay(true);
    assert_eq!(tables.len(), 2);
    let degradation = tables[0].render();
    assert!(
        !degradation.contains("DIVERGED"),
        "sharded uniform-delay fabric diverged from the delayed sequential engine:\n{degradation}"
    );
    // 4 policies × d ∈ {0, 1, 2, 4, 8} in both tables.
    assert_eq!(tables[0].len(), 20);
    assert_eq!(tables[1].len(), 20);
}

#[test]
fn s3_topology_sweep_agrees_with_sequential() {
    let tables = suite::s3_topology(true);
    assert_eq!(tables.len(), 2);
    let degradation = tables[0].render();
    assert!(
        !degradation.contains("DIVERGED"),
        "sharded matrix fabric diverged from the topology-aware sequential engine:\n{degradation}"
    );
    // 4 policies × inter ∈ {0, 1, 2, 4, 8} in both tables.
    assert_eq!(tables[0].len(), 20);
    assert_eq!(tables[1].len(), 20);
}
