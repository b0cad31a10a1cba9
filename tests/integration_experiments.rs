//! Smoke-run the full experiment suite at reduced scale: every table must
//! materialize, T1's verdict column must be clean, and every deterministic
//! rendering must hash to its frozen constant.

use cioq_experiments::{suite, Table};

/// Assert that `tables` still render, byte for byte, what they rendered
/// when `want` was captured (FNV-1a, 64-bit, over the concatenated plain
/// renderings — what `exp <id> --quick` prints). Every experiment is
/// deterministic (fixed seeds, index-ordered sweeps) except F6's µs column
/// and S1's two ms columns; the constants were captured at PR 19's parent
/// commit, so a refactor of the suite is checked against frozen bytes.
/// Re-capture one only for a change that means to move that table.
fn assert_frozen(id: &str, rendered: &str, want: u64) {
    let got = rendered.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    assert_eq!(
        got, want,
        "{id} moved ({got:#018x}, frozen {want:#018x}):\n{rendered}"
    );
}

fn render(tables: &[Table]) -> String {
    tables.iter().map(Table::render).collect()
}

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
    assert_frozen("T1", &rendered, 0xc396_4b41_42ac_fda8);
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
    assert_frozen("F3", &render(&tables), 0x9c97_af95_c766_d74d);
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
    assert_frozen("F8", &render(&tables), 0x8315_834a_d104_ea15);
}

#[test]
fn remaining_experiments_materialize() {
    for (id, tables, frozen) in [
        ("F4", suite::f4_pg_beta(true), 0xf4f2_7b65_e67f_5f0b),
        ("F5", suite::f5_speedup(true), 0xf522_f520_8b1c_cf1a),
        ("F7", suite::f7_crossbar_buffer(true), 0x81fc_b255_e5c5_4bc6),
        (
            "T2",
            suite::t2_value_distributions(true),
            0xe83a_74d0_f253_7f51,
        ),
        ("T3", suite::t3_bursty(true), 0x97a9_880e_389e_4b2f),
        ("T4", suite::t4_asymmetric(true), 0x8acd_8988_79d2_1f68),
        ("T5", suite::t5_ablation(true), 0x224e_2630_1596_287e),
    ] {
        assert!(!tables.is_empty(), "{id} produced no tables");
        for t in &tables {
            assert!(!t.is_empty(), "{id} produced an empty table");
        }
        assert_frozen(id, &render(&tables), frozen);
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
    // GM (the sharded engine's one policy) × K ∈ {1, 2, 4}.
    assert_eq!(tables[0].len(), 3);
    // Frozen without the two wall-clock columns (the last two): every row
    // cut where the header's `seq ms` starts, and the rule line — whose
    // length follows the column widths — dropped.
    let cut = rendered.lines().nth(1).and_then(|h| h.find("seq ms"));
    let cut = cut.expect("S1 header names its ms columns");
    let timeless: Vec<&str> = rendered
        .lines()
        .enumerate()
        .filter(|&(i, _)| i != 2)
        .map(|(i, l)| {
            if i == 0 {
                l
            } else {
                l.get(..cut).unwrap_or(l).trim_end()
            }
        })
        .collect();
    assert_frozen("S1", &timeless.join("\n"), 0x0169_dfdc_4275_4001);
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
    assert_frozen("S2", &render(&tables), 0x9fa7_2133_90fd_ba1a);
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
    assert_frozen("S3", &render(&tables), 0xd20c_962b_6019_4729);
}
