//! Property tests for the snapshot codec and the restore seam, over
//! random switch geometries, fabrics and traffic:
//!
//! * `from_bytes(to_bytes(s)) == s` and re-encoding reproduces the exact
//!   bytes (the serialization is canonical);
//! * `Engine::restore(s).snapshot() == s` — restore is lossless;
//! * restoring the re-captured snapshot again is idempotent (double
//!   restore changes nothing);
//! * corrupt inputs (truncation, bad magic, trailing garbage) are
//!   rejected with an error, never misparsed.

use cioq_core::{CrossbarPreemptiveGreedy, PreemptiveGreedy};
use cioq_model::{SwitchConfig, Topology};
use cioq_sim::{Engine, EngineSnapshot, FabricSpec, RunOptions, RunOutcome, TraceSource};
use cioq_traffic::{gen_trace, FullFabricChurn, ValueDist};
use proptest::prelude::*;

fn options(link: &FabricSpec) -> RunOptions {
    RunOptions {
        checkpoint_every: Some(4),
        fabric: link.clone(),
        ..RunOptions::default()
    }
}

/// Run a random-config engine to completion, collecting checkpoints.
fn checkpointed_run(cfg: &SwitchConfig, link: &FabricSpec, seed: u64) -> RunOutcome {
    let gen = FullFabricChurn::new(2, 5, ValueDist::Uniform { max: 50 });
    let trace = gen_trace(&gen, cfg, 24, seed);
    let engine = Engine::new(cfg.clone(), options(link));
    let mut source = TraceSource::new(&trace);
    if cfg.crossbar_capacity.is_some() {
        engine
            .run_crossbar_full(&mut CrossbarPreemptiveGreedy::new(), &mut source)
            .expect("crossbar run")
    } else {
        engine
            .run_cioq_full(&mut PreemptiveGreedy::new(), &mut source)
            .expect("cioq run")
    }
}

fn assert_roundtrip(snap: &EngineSnapshot, link: &FabricSpec) {
    let bytes = snap.to_bytes();
    let decoded = EngineSnapshot::from_bytes(&bytes).expect("decode of a fresh snapshot");
    assert_eq!(&decoded, snap, "decode(encode) structural identity");
    assert_eq!(decoded.to_bytes(), bytes, "re-encoding is canonical");

    let restored = Engine::restore(&decoded, options(link)).expect("restore of a fresh snapshot");
    let recaptured = restored.snapshot();
    assert_eq!(&recaptured, snap, "restore(snapshot) is lossless");

    // Double restore: the recaptured snapshot restores to the same bytes.
    let again = Engine::restore(&recaptured, options(link))
        .expect("second restore")
        .snapshot();
    assert_eq!(again.to_bytes(), bytes, "double restore is idempotent");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// CIOQ and crossbar geometries × uniform and matrix fabrics: every
    /// checkpoint of a random run survives the full round-trip.
    #[test]
    fn snapshots_roundtrip_over_random_configs(
        (n_inputs, n_outputs, speedup) in (2usize..7, 2usize..7, 1u32..3),
        (input_cap, output_cap, crossbar_sel) in (1usize..4, 1usize..4, 0usize..3),
        (racks, uniform_d, matrix_sel) in (1usize..4, 0u64..4, 0u8..2),
        (iracks, oracks, latency) in (
            prop::collection::vec(0u16..4, 8),
            prop::collection::vec(0u16..4, 8),
            prop::collection::vec(0u64..5, 16),
        ),
        seed in 0u64..1024,
    ) {
        let mut builder = SwitchConfig::builder(n_inputs, n_outputs)
            .speedup(speedup)
            .input_capacity(input_cap)
            .output_capacity(output_cap);
        // 0 = plain CIOQ, 1..=2 = crossbar with that buffer capacity.
        if crossbar_sel > 0 {
            builder = builder.crossbar_capacity(crossbar_sel);
        }
        let cfg = builder.build().expect("valid random config");

        let link: FabricSpec = if matrix_sel == 1 {
            let topo = Topology::explicit(
                n_inputs,
                n_outputs,
                racks,
                iracks[..n_inputs].iter().map(|&r| r % racks as u16).collect(),
                oracks[..n_outputs].iter().map(|&r| r % racks as u16).collect(),
                latency[..racks * racks].to_vec(),
            )
            .expect("valid random topology");
            FabricSpec::matrix(topo)
        } else {
            FabricSpec::uniform(uniform_d)
        };

        let outcome = checkpointed_run(&cfg, &link, seed);
        prop_assert!(
            !outcome.checkpoints.is_empty(),
            "24 arrival slots at cadence 4 must yield checkpoints"
        );
        for snap in &outcome.checkpoints {
            assert_roundtrip(snap, &link);
        }
    }
}

// ---------------------------------------------------------------------------
// Corrupt inputs are rejected, never misparsed
// ---------------------------------------------------------------------------

fn sample_snapshot() -> EngineSnapshot {
    let cfg = SwitchConfig::cioq(3, 2, 1);
    let link = FabricSpec::uniform(1);
    let outcome = checkpointed_run(&cfg, &link, 0x51);
    outcome.checkpoints[0].clone()
}

#[test]
fn truncated_bytes_are_rejected() {
    let bytes = sample_snapshot().to_bytes();
    for cut in [0, 1, 4, 8, bytes.len() / 2, bytes.len() - 1] {
        assert!(
            EngineSnapshot::from_bytes(&bytes[..cut]).is_err(),
            "truncation at {cut} must fail"
        );
    }
}

#[test]
fn bad_magic_is_rejected() {
    let mut bytes = sample_snapshot().to_bytes();
    bytes[0] ^= 0xFF;
    assert!(EngineSnapshot::from_bytes(&bytes).is_err());
}

#[test]
fn trailing_garbage_is_rejected() {
    let mut bytes = sample_snapshot().to_bytes();
    bytes.push(0);
    assert!(
        EngineSnapshot::from_bytes(&bytes).is_err(),
        "a snapshot must consume its input exactly"
    );
}

#[test]
fn unknown_version_is_rejected() {
    let mut bytes = sample_snapshot().to_bytes();
    // The u32 version follows the 8-byte magic, little-endian.
    bytes[8] = 0xFF;
    assert!(EngineSnapshot::from_bytes(&bytes).is_err());
}
