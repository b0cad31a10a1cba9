//! The reference oracle must stay small enough to audit against the paper
//! by eye, and must not share machinery with the policies it checks.

const ORACLE: &str = include_str!("../src/oracle.rs");

#[test]
fn oracle_is_small_and_shares_no_cache_machinery() {
    let lines = ORACLE.lines().count();
    assert!(
        lines <= 300,
        "oracle.rs has grown to {lines} lines (cap 300)"
    );
    for banned in [
        "IncrementalGraph",
        "CachedWeightOrder",
        "ChangeLog",
        "changes()",
        "incremental::",
    ] {
        assert!(
            !ORACLE.contains(banned),
            "oracle.rs names `{banned}`: the reference must not lean on what it checks"
        );
    }
}
