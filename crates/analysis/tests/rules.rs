//! Per-rule fixtures: each rule fires on a positive fixture, stays quiet
//! on the allowlisted/justified variant, and ignores `#[cfg(test)]` code.

use cioq_analysis::scan_str;

fn rules_at(path: &str, src: &str) -> Vec<&'static str> {
    scan_str(path, src).into_iter().map(|f| f.rule).collect()
}

// ---- D1: unordered collections in determinism-critical crates --------

#[test]
fn d1_hashmap_in_sim_fires() {
    let src =
        "use std::collections::HashMap;\nfn f() { let m: HashMap<u32, u32> = HashMap::new(); }\n";
    let rules = rules_at("crates/sim/src/engine.rs", src);
    assert!(
        rules.contains(&"D1"),
        "HashMap in sim must fire D1: {rules:?}"
    );
}

#[test]
fn d1_out_of_scope_crate_is_clean() {
    let src =
        "use std::collections::HashMap;\nfn f() { let _m: HashMap<u32, u32> = HashMap::new(); }\n";
    assert!(rules_at("crates/opt/src/network.rs", src).is_empty());
}

#[test]
fn d1_allowlisted_is_clean() {
    let src = "// detlint: allow(D1) reason=\"sorted before iteration\"\nuse std::collections::HashSet;\n";
    assert!(rules_at("crates/queues/src/grid.rs", src).is_empty());
}

#[test]
fn d1_in_string_or_comment_is_clean() {
    let src = "// HashMap would break determinism\nfn f() -> &'static str { \"HashMap\" }\n";
    assert!(rules_at("crates/sim/src/engine.rs", src).is_empty());
}

// ---- D2: wall clock / entropy outside bench --------------------------

#[test]
fn d2_instant_now_fires() {
    let src = "fn f() { let _t = std::time::Instant::now(); }\n";
    let rules = rules_at("crates/experiments/src/suite.rs", src);
    assert!(
        rules.contains(&"D2"),
        "Instant::now must fire D2: {rules:?}"
    );
}

#[test]
fn d2_system_time_and_thread_rng_fire() {
    let src = "fn f() { let _t = SystemTime::now(); let _r = rand::thread_rng(); }\n";
    let rules = rules_at("crates/traffic/src/lib.rs", src);
    assert_eq!(rules.iter().filter(|r| **r == "D2").count(), 2);
}

#[test]
fn d2_bench_is_exempt() {
    let src = "fn f() { let _t = std::time::Instant::now(); }\n";
    assert!(rules_at("crates/bench/src/lib.rs", src).is_empty());
}

#[test]
fn d2_allowlisted_is_clean() {
    let src = "fn f() {\n    // detlint: allow(D2) reason=\"wall time reported, never drives simulation\"\n    let _t = std::time::Instant::now();\n}\n";
    assert!(rules_at("crates/experiments/src/suite.rs", src).is_empty());
}

#[test]
fn d2_instant_without_now_is_clean() {
    let src = "fn f(t: std::time::Instant) -> std::time::Instant { t }\n";
    assert!(rules_at("crates/experiments/src/suite.rs", src).is_empty());
}

// ---- D3: thread creation outside sim::shard --------------------------

#[test]
fn d3_thread_spawn_fires() {
    let src = "fn f() { std::thread::spawn(|| {}); }\n";
    let rules = rules_at("crates/experiments/src/runner.rs", src);
    assert!(
        rules.contains(&"D3"),
        "thread::spawn must fire D3: {rules:?}"
    );
}

#[test]
fn d3_scoped_spawn_fires() {
    let src = "fn f() { std::thread::scope(|s| { s.spawn(|| {}); }); }\n";
    // The slot engines get no exemption either.
    for path in [
        "crates/experiments/src/runner.rs",
        "crates/sim/src/shard.rs",
    ] {
        assert!(rules_at(path, src).contains(&"D3"), "{path}");
    }
}

#[test]
fn d3_stream_module_is_exempt() {
    let src = "fn f() { std::thread::scope(|s| { s.spawn(|| {}); }); }\n";
    assert!(rules_at("crates/sim/src/stream.rs", src).is_empty());
}

#[test]
fn d3_allowlisted_is_clean() {
    let src = "fn f() {\n    // detlint: allow(D3) reason=\"per-seed sweep parallelism, output order restored by index\"\n    std::thread::scope(|s| {\n        // detlint: allow(D3) reason=\"see scope above\"\n        s.spawn(|| {});\n    });\n}\n";
    assert!(rules_at("crates/experiments/src/runner.rs", src).is_empty());
}

#[test]
fn d3_in_cfg_test_is_clean() {
    let src =
        "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { std::thread::spawn(|| {}); }\n}\n";
    assert!(rules_at("crates/experiments/src/runner.rs", src).is_empty());
}

// ---- D4: unsafe / atomic ordering justification ----------------------

#[test]
fn d4_unsafe_without_safety_fires() {
    let src = "fn f(p: *const u32) -> u32 { unsafe { *p } }\n";
    let rules = rules_at("crates/model/src/lib.rs", src);
    assert!(rules.contains(&"D4"));
}

#[test]
fn d4_unsafe_with_safety_is_clean() {
    let src = "fn f(p: *const u32) -> u32 {\n    // SAFETY: caller guarantees p is valid and aligned.\n    unsafe { *p }\n}\n";
    assert!(rules_at("crates/model/src/lib.rs", src).is_empty());
}

#[test]
fn d4_ordering_in_sync_without_comment_fires() {
    let src = "fn f(a: &std::sync::atomic::AtomicU64) -> u64 { a.load(Ordering::Acquire) }\n";
    let rules = rules_at("crates/sim/src/stream.rs", src);
    assert!(rules.contains(&"D4"));
}

#[test]
fn d4_ordering_in_stream_without_comment_fires() {
    let src = "fn f(a: &std::sync::atomic::AtomicBool) -> bool { a.load(Ordering::Acquire) }\n";
    let rules = rules_at("crates/sim/src/stream.rs", src);
    assert!(rules.contains(&"D4"));
}

#[test]
fn d4_ordering_with_comment_is_clean() {
    let src = "fn f(a: &std::sync::atomic::AtomicU64) -> u64 {\n    // ORDERING: Acquire pairs with the Release store in bump().\n    a.load(Ordering::Acquire)\n}\n";
    assert!(rules_at("crates/sim/src/stream.rs", src).is_empty());
}

#[test]
fn d4_ordering_outside_sync_is_clean() {
    let src = "fn f(a: &std::sync::atomic::AtomicU64) -> u64 { a.load(Ordering::Acquire) }\n";
    assert!(rules_at("crates/sim/src/shard.rs", src).is_empty());
}

#[test]
fn d4_ordering_import_is_clean() {
    let src = "use std::sync::atomic::{AtomicU64, Ordering};\n";
    assert!(rules_at("crates/sim/src/stream.rs", src).is_empty());
}

// ---- D5: bare unwrap in engine slot loops ----------------------------

#[test]
fn d5_unwrap_in_engine_fires() {
    let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
    let rules = rules_at("crates/sim/src/engine.rs", src);
    assert!(rules.contains(&"D5"));
}

#[test]
fn d5_expect_is_exempt() {
    let src = "fn f(x: Option<u32>) -> u32 { x.expect(\"invariant: checked above\") }\n";
    assert!(rules_at("crates/sim/src/engine.rs", src).is_empty());
}

#[test]
fn d5_unwrap_outside_engine_is_clean() {
    let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
    assert!(rules_at("crates/sim/src/stats.rs", src).is_empty());
}

#[test]
fn d5_allowlisted_is_clean() {
    let src = "fn f(x: Option<u32>) -> u32 {\n    // detlint: allow(D5) reason=\"index proven in-bounds by construction\"\n    x.unwrap()\n}\n";
    assert!(rules_at("crates/sim/src/shard.rs", src).is_empty());
}

#[test]
fn d5_unwrap_in_test_module_is_clean() {
    let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { Some(1u32).unwrap(); }\n}\n";
    assert!(rules_at("crates/sim/src/engine.rs", src).is_empty());
}

// ---- D6: snapshot coverage of checkpointed state ---------------------

#[test]
fn d6_unannotated_field_fires() {
    let src = "pub(crate) struct FaultRuntime {\n    held: Vec<Vec<(bool, Packet)>>,\n}\n";
    let rules = rules_at("crates/sim/src/fault.rs", src);
    assert!(
        rules.contains(&"D6"),
        "unannotated field of a snapshotted type must fire D6: {rules:?}"
    );
}

#[test]
fn d6_justified_fields_are_clean() {
    let src = "pub(crate) struct FaultRuntime {\n    /// Held-packet count. snapshot: transient — recounted from the\n    /// serialized FIFOs on restore.\n    total: u64,\n    held: Vec<Vec<(bool, Packet)>>, // snapshot: serialized\n}\n";
    assert!(rules_at("crates/sim/src/fault.rs", src).is_empty());
}

#[test]
fn d6_queue_band_is_audited() {
    // The band is what both engines checkpoint their queues from, so a
    // shard's queues are under D6 exactly as the whole switch's are.
    let bare =
        "pub(crate) struct QueueBand {\n    voq: Grid<SortedQueue>,\n    out_lo: usize,\n}\n";
    let rules = rules_at("crates/sim/src/state.rs", bare);
    assert_eq!(rules, ["D6", "D6"], "both bare band fields must fire");
    let annotated = "pub(crate) struct QueueBand {\n    /// `Q_ij`. snapshot: serialized\n    voq: Grid<SortedQueue>,\n    /// snapshot: transient — geometry, fixed at construction\n    out_lo: usize,\n}\n";
    assert!(rules_at("crates/sim/src/state.rs", annotated).is_empty());
}

#[test]
fn d6_unlisted_type_is_clean() {
    // The snapshot wire structs are not state owners; only the types in
    // the D6 list are audited.
    let src = "pub struct EngineSnapshot {\n    slot: u64,\n}\n";
    assert!(rules_at("crates/sim/src/snapshot.rs", src).is_empty());
}

#[test]
fn d6_out_of_scope_path_is_clean() {
    let src = "pub struct SortedQueue {\n    items: Vec<u32>,\n}\n";
    assert!(rules_at("crates/experiments/src/lib.rs", src).is_empty());
}

#[test]
fn d6_tuple_struct_is_clean() {
    let src = "pub struct FaultRuntime(Vec<u32>);\n";
    assert!(rules_at("crates/sim/src/fault.rs", src).is_empty());
}

#[test]
fn d6_allowlisted_is_clean() {
    let src = "pub struct DelayCalendar {\n    // detlint: allow(D6) reason=\"migration shim, removed next PR\"\n    buckets: Vec<Vec<u32>>,\n}\n";
    assert!(rules_at("crates/sim/src/transport.rs", src).is_empty());
}

#[test]
fn d6_in_cfg_test_is_clean() {
    let src =
        "#[cfg(test)]\nmod tests {\n    struct SortedQueue {\n        items: Vec<u32>,\n    }\n}\n";
    assert!(rules_at("crates/queues/src/sorted_queue.rs", src).is_empty());
}

// ---- D7: allocation in `// detlint: hot` slot-loop functions ---------

#[test]
fn d7_vec_new_in_hot_fn_fires() {
    let src = "// detlint: hot\nfn slot_phase() { let v: Vec<u32> = Vec::new(); drop(v); }\n";
    let rules = rules_at("crates/sim/src/engine.rs", src);
    assert!(
        rules.contains(&"D7"),
        "Vec::new in a hot fn must fire D7: {rules:?}"
    );
}

#[test]
fn d7_vec_macro_in_hot_fn_fires() {
    let src = "// detlint: hot\nfn slot_phase() { let v = vec![1u32, 2]; drop(v); }\n";
    assert!(rules_at("crates/sim/src/engine.rs", src).contains(&"D7"));
}

#[test]
fn d7_box_new_in_hot_fn_fires() {
    let src = "// detlint: hot\nfn slot_phase() { let b = Box::new(1u32); drop(b); }\n";
    assert!(rules_at("crates/sim/src/engine.rs", src).contains(&"D7"));
}

#[test]
fn d7_to_vec_in_hot_fn_fires() {
    let src = "// detlint: hot\nfn slot_phase(xs: &[u32]) -> Vec<u32> { xs.to_vec() }\n";
    assert!(rules_at("crates/sim/src/engine.rs", src).contains(&"D7"));
}

#[test]
fn d7_collect_in_hot_fn_fires() {
    let src =
        "// detlint: hot\nfn slot_phase(xs: &[u32]) -> Vec<u32> { xs.iter().copied().collect() }\n";
    assert!(rules_at("crates/sim/src/engine.rs", src).contains(&"D7"));
}

#[test]
fn d7_allocation_outside_hot_fn_is_clean() {
    let src = "fn setup() -> Vec<u32> { Vec::new() }\n// detlint: hot\nfn slot_phase() {}\n";
    assert!(rules_at("crates/sim/src/engine.rs", src).is_empty());
}

#[test]
fn d7_allocation_after_hot_fn_body_is_clean() {
    // The audit ends at the hot function's closing brace.
    let src = "// detlint: hot\nfn slot_phase() {}\nfn teardown() -> Vec<u32> { Vec::new() }\n";
    assert!(rules_at("crates/sim/src/engine.rs", src).is_empty());
}

#[test]
fn d7_allowlisted_with_reason_is_clean() {
    let src = "// detlint: hot\nfn slot_phase(err: bool) {\n    if err {\n        // detlint: allow(D7) reason=\"cold error path, invariant already failed\"\n        let _ = vec![0u32];\n    }\n}\n";
    assert!(rules_at("crates/sim/src/engine.rs", src).is_empty());
}

#[test]
fn d7_prose_mention_of_annotation_is_not_an_annotation() {
    // Doc text discussing `// detlint: hot` must not mark the next fn hot.
    let src = "/// Functions marked `// detlint: hot` never allocate.\nfn setup() -> Vec<u32> { Vec::new() }\n";
    assert!(rules_at("crates/sim/src/engine.rs", src).is_empty());
}

// ---- canonical serialization -----------------------------------------

#[test]
fn baseline_roundtrip_is_canonical() {
    use cioq_analysis::{diff_baseline, parse_baseline, render_baseline};
    let src = "use std::collections::HashMap;\nfn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
    let findings = scan_str("crates/sim/src/engine.rs", src);
    assert_eq!(findings.len(), 2, "one D1 and one D5: {findings:?}");
    let text = render_baseline(&findings);
    let parsed = parse_baseline(&text).expect("rendered baseline parses");
    let diff = diff_baseline(&findings, &parsed);
    assert!(diff.is_clean(), "roundtrip must be lossless: {diff:?}");
    // Rendering is order-insensitive: reversed input, identical bytes.
    let mut rev = findings.clone();
    rev.reverse();
    assert_eq!(render_baseline(&rev), text);
}

#[test]
fn baseline_without_header_is_rejected() {
    use cioq_analysis::parse_baseline;
    assert!(parse_baseline("").is_err());
    assert!(parse_baseline("D1\tx.rs:1\tbad\n").is_err());
}
