//! The benchmark's own checks: estimators, transparency of the tracing
//! wrappers, determinism, twin checks, canonical JSON, the comparison
//! verdicts, and a smoke run of both passes that also holds
//! `BENCHMARK.json` to what the runner prints.

use cioq_benchmark::estimators::{low5, low_k, median, percentile, split_half_diff};
use cioq_benchmark::json::{self, Value};
use cioq_benchmark::report::{END_TO_END, PER_LAYER};
use cioq_benchmark::run::{
    compare, end_to_end, per_layer, twin_check, verdict, Verdict, RUN_SECONDS,
};
use cioq_benchmark::trace::{Layer, Sink};
use cioq_benchmark::workloads::{self, digest, run, Exec, Outcome, Spec};
use cioq_model::{Packet, PortId};
use cioq_sim::SwitchState;

const SEED: u64 = 7;

fn primary(spec: &Spec, seed: u64) -> Outcome {
    run(spec, &spec.inputs(seed, spec.exec), spec.exec, true, None).expect("primary rep runs")
}

/// Every queue of the state, packet for packet.
fn queues(state: &SwitchState) -> Vec<Vec<Packet>> {
    let view = state.view();
    let ports = |n| (0..n).map(PortId::from);
    let mut all = Vec::new();
    for i in ports(view.n_inputs()) {
        for j in ports(view.n_outputs()) {
            all.push(view.input_queue(i, j).iter().copied().collect());
            if view.has_crossbar() {
                all.push(view.crossbar_queue(i, j).iter().copied().collect());
            }
        }
    }
    all.extend(ports(view.n_outputs()).map(|j| view.output_queue(j).iter().copied().collect()));
    all
}

#[test]
fn low5_is_the_mean_of_the_five_fastest() {
    let reps = [9.0, 1.0, 7.0, 2.0, 8.0, 3.0, 4.0, 5.0, 100.0];
    assert_eq!(low5(&reps), 3.0);
    assert_eq!(low_k(&reps, 1), 1.0);
    // Fewer than five reps: all of them.
    assert_eq!(low5(&[4.0, 2.0]), 3.0);
    // Interference only adds time: slowing the slow reps moves nothing.
    let mut noisy = reps;
    noisy[0] = 900.0;
    assert_eq!(low5(&noisy), low5(&reps));
}

#[test]
fn percentiles_interpolate_between_order_statistics() {
    let v = [40.0, 10.0, 30.0, 20.0];
    assert_eq!(percentile(&v, 0.0), 10.0);
    assert_eq!(percentile(&v, 1.0), 40.0);
    assert_eq!(median(&v), 25.0);
    assert_eq!(percentile(&v, 0.25), 17.5);
    assert_eq!(median(&[5.0]), 5.0);
}

#[test]
fn split_half_compares_even_and_odd_rounds() {
    let secs = [1.0, 1.0, 1.0, 1.0];
    let round = [0, 1, 2, 3];
    assert_eq!(split_half_diff(&secs, &round), 0.0);
    // Odd rounds 10 % slower: |1.0 − 1.1| / low5(all).
    let secs = [1.0, 1.1, 1.0, 1.1];
    let expected = 0.1 / 1.05;
    assert!((split_half_diff(&secs, &round) - expected).abs() < 1e-12);
    // One round only: no halves to compare.
    assert_eq!(split_half_diff(&[1.0, 2.0], &[0, 0]), 0.0);
}

#[test]
fn tracing_wrappers_are_transparent_on_all_six_workloads() {
    for spec in workloads::all(true) {
        let inputs = spec.inputs(SEED, spec.exec);
        let plain = run(&spec, &inputs, spec.exec, true, None).expect("plain rep");
        let sink = Sink::with_capacity(1 << 12);
        let traced = sink
            .rep(0, || run(&spec, &inputs, spec.exec, true, Some(&sink)))
            .expect("traced rep");
        assert_eq!(plain.report, traced.report, "{}", spec.name);
        assert_eq!(
            format!("{:?}", plain.report),
            format!("{:?}", traced.report),
            "{}",
            spec.name
        );
        assert_eq!(
            digest(&plain.report),
            digest(&traced.report),
            "{}",
            spec.name
        );
        assert_eq!(
            queues(plain.final_state.as_ref().expect("captured")),
            queues(traced.final_state.as_ref().expect("captured")),
            "{}",
            spec.name
        );
        let bytes = |o: &Outcome| {
            o.checkpoints
                .iter()
                .map(|c| c.to_bytes())
                .collect::<Vec<_>>()
        };
        assert_eq!(bytes(&plain), bytes(&traced), "{}", spec.name);

        // And the wrappers did see the run: one rep span, scheduling or
        // proposal spans, and every arrival admitted once.
        let log = sink.take();
        let count = |layer| log.spans.iter().filter(|s| s.layer == layer).count();
        assert_eq!(count(Layer::Rep), 1, "{}", spec.name);
        if matches!(spec.exec, Exec::Sharded { .. }) {
            assert!(
                count(Layer::Propose) > 0 && count(Layer::Merge) > 0,
                "{}",
                spec.name
            );
        } else {
            assert!(
                count(Layer::Schedule) > 0 && count(Layer::Arrivals) > 0,
                "{}",
                spec.name
            );
        }
        assert_eq!(log.admits, plain.report.arrived, "{}", spec.name);
        assert!(log
            .spans
            .iter()
            .all(|s| s.end_ns >= s.start_ns && s.rep == 0));
    }
}

#[test]
fn same_seed_same_digest_and_another_seed_another() {
    for spec in workloads::all(true) {
        let a = digest(&primary(&spec, SEED).report);
        assert_eq!(a, digest(&primary(&spec, SEED).report), "{}", spec.name);
        assert_ne!(a, digest(&primary(&spec, SEED + 4).report), "{}", spec.name);
    }
}

#[test]
fn twin_checks_pass_and_fire_on_a_perturbed_digest() {
    let mut twins = 0;
    for spec in workloads::all(true) {
        let expected = digest(&primary(&spec, SEED).report);
        match twin_check(&spec, SEED, expected) {
            None => assert!(spec.twin.is_none()),
            Some(check) => {
                twins += 1;
                assert_eq!(check, Ok(()), "{}", spec.name);
                let fired = twin_check(&spec, SEED, expected ^ 1).expect("has a twin");
                assert!(fired.is_err(), "{}: perturbed digest not caught", spec.name);
            }
        }
    }
    // 1 ≡ 2 (sequential ≡ K=1 inline), Auto ≡ Inline, streamed ≡ trace-fed.
    assert_eq!(twins, 3);
    let by_name = |name| workloads::by_name(name, true).expect("known workload");
    assert_eq!(
        digest(&primary(&by_name("cioq_gm_uniform"), SEED).report),
        digest(&primary(&by_name("cioq_gm_uniform_shard1"), SEED).report),
        "rows 1 and 2 run the same trace and policy"
    );
}

#[test]
fn json_output_is_canonical() {
    let spec = workloads::by_name("cioq_gm_uniform", true).expect("known workload");
    let result = end_to_end(&spec, SEED, 0.05);
    let entry = result.file_entry();
    assert_eq!(entry.to_string(), entry.clone().to_string());
    // Keys come out sorted whatever order they went in.
    let shuffled = Value::obj([("b", Value::Num(1.5)), ("a", Value::Str("x\"y".into()))]);
    assert_eq!(shuffled.to_string(), r#"{"a": "x\"y", "b": 1.5}"#);
    // Round trip: parse what was written, write it again, same bytes.
    for text in [entry.to_string(), result.result_line()] {
        let parsed = json::parse(&text).expect("own output parses");
        assert_eq!(parsed.to_string(), text);
        let keys: Vec<_> = parsed
            .as_object()
            .expect("object")
            .keys()
            .cloned()
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }
    assert!(json::parse("{\"a\": 1} x").is_err());
    assert!(json::parse("[1, 2").is_err());
}

#[test]
fn verdicts_respect_bound_direction_and_noise_floor() {
    // Higher is better, bound 10 %.
    assert_eq!(
        verdict(100.0, 120.0, true, 0.1, Some(0.02)),
        Verdict::Better
    );
    assert_eq!(verdict(100.0, 80.0, true, 0.1, Some(0.02)), Verdict::Worse);
    assert_eq!(
        verdict(100.0, 95.0, true, 0.1, Some(0.02)),
        Verdict::WithinBound
    );
    // A 1 % move under a 2 % split-half difference cannot be told from noise.
    assert_eq!(
        verdict(100.0, 101.0, true, 0.1, Some(0.02)),
        Verdict::Unresolved
    );
    // Lower is better flips the sign.
    assert_eq!(verdict(1.0, 0.5, false, 0.25, Some(0.0)), Verdict::Better);
    assert_eq!(verdict(1.0, 1.5, false, 0.25, Some(0.0)), Verdict::Worse);
    // Simulated metrics compare for equality.
    assert_eq!(verdict(0.8, 0.8, true, 0.0, None), Verdict::WithinBound);
    assert_eq!(verdict(0.8, 0.8001, true, 0.0, None), Verdict::Better);
    assert_eq!(verdict(0.8, 0.7999, true, 0.0, None), Verdict::Worse);
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json parses")
}

/// A result file with one workload's timing pass in it.
fn result_file(
    slots_per_s: f64,
    setup_s: f64,
    throughput: f64,
    digest: &str,
    failed: f64,
) -> Value {
    let metric = |v| Value::obj([("unit", Value::Str("x".into())), ("value", Value::Num(v))]);
    Value::obj([(
        "workloads",
        Value::obj([(
            "cioq_pg_churn",
            Value::obj([(
                "end_to_end",
                Value::obj([
                    ("digest", Value::Str(digest.into())),
                    ("failed", Value::Num(failed)),
                    ("split_half_diff", Value::Num(0.03)),
                    ("setup_split_half_diff", Value::Num(0.2)),
                    (
                        "metrics",
                        Value::obj([
                            ("slots_per_s", metric(slots_per_s)),
                            ("setup_s", metric(setup_s)),
                            ("value_throughput", metric(throughput)),
                        ]),
                    ),
                ]),
            )]),
        )]),
    )])
}

fn verdicts(a: &Value, b: &Value) -> Vec<(String, Verdict)> {
    compare(&benchmark_json(), a, b)
        .expect("compares")
        .into_iter()
        .map(|row| (row.metric, row.verdict))
        .collect()
}

#[test]
fn compare_classifies_every_workload_and_metric() {
    let row = |metric: &str, verdict| (metric.to_string(), verdict);
    let base = result_file(1000.0, 1.0, 0.8, "00ff", 0.0);
    // A 2 % move under a 3 % split-half difference; set-up 10 % slower
    // under its own 20 % floor, not the rep times'; throughput down.
    assert_eq!(
        verdicts(&base, &result_file(1020.0, 1.1, 0.79, "00ff", 0.0)),
        [
            row("slots_per_s", Verdict::Unresolved),
            row("setup_s", Verdict::Unresolved),
            row("value_throughput", Verdict::Worse),
            row("sim.digest", Verdict::WithinBound),
            row("failed", Verdict::WithinBound),
        ]
    );
    assert_eq!(
        verdicts(&base, &result_file(1500.0, 2.0, 0.8, "00ff", 0.0)),
        [
            row("slots_per_s", Verdict::Better),
            row("setup_s", Verdict::Worse),
            row("value_throughput", Verdict::WithinBound),
            row("sim.digest", Verdict::WithinBound),
            row("failed", Verdict::WithinBound),
        ]
    );
}

#[test]
fn compare_reports_a_changed_digest_or_a_failed_check_as_worse() {
    let base = result_file(1000.0, 1.0, 0.8, "00ff", 0.0);
    // Same value throughput, another simulation: latency, the loss mix or
    // the preemption count moved.
    let other = verdicts(&base, &result_file(1000.0, 1.0, 0.8, "00fe", 0.0));
    assert!(other.contains(&("sim.digest".to_string(), Verdict::Worse)));
    assert!(other.contains(&("failed".to_string(), Verdict::WithinBound)));
    // A failed check on either side.
    for (a, b) in [(0.0, 1.0), (2.0, 0.0)] {
        let rows = verdicts(
            &result_file(1000.0, 1.0, 0.8, "00ff", a),
            &result_file(1000.0, 1.0, 0.8, "00ff", b),
        );
        assert!(rows.contains(&("failed".to_string(), Verdict::Worse)));
        assert!(rows.contains(&("sim.digest".to_string(), Verdict::WithinBound)));
    }
}

#[test]
fn smoke_run_prints_exactly_what_benchmark_json_declares() {
    let benchmark = benchmark_json();
    let declared = |list: &str| -> Vec<(String, String)> {
        benchmark
            .get(list)
            .and_then(Value::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k| {
                    m.get(k)
                        .and_then(Value::as_str)
                        .expect("string field")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    };
    let catalogue = |c: &[(&str, &str)]| -> Vec<(String, String)> {
        c.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(
        benchmark.get("run_seconds").and_then(Value::as_f64),
        Some(RUN_SECONDS),
        "the default of --seconds is run_seconds"
    );
    assert_eq!(declared("end_to_end"), catalogue(END_TO_END));
    assert_eq!(declared("per_layer"), catalogue(PER_LAYER));
    let declared_workloads: Vec<_> = benchmark
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            let field = |k| {
                w.get(k)
                    .and_then(Value::as_str)
                    .expect("string field")
                    .to_string()
            };
            (field("name"), field("why"))
        })
        .collect();
    let defined: Vec<_> = workloads::all(false)
        .iter()
        .map(|s| (s.name.to_string(), s.why.to_string()))
        .collect();
    assert_eq!(declared_workloads, defined);
    assert_eq!(
        defined.iter().map(|d| d.0.as_str()).collect::<Vec<_>>(),
        workloads::NAMES
    );

    for spec in workloads::all(true) {
        for (traced, pass) in [
            (false, end_to_end as fn(&Spec, u64, f64) -> _),
            (true, per_layer),
        ] {
            let result = pass(&spec, SEED, 0.2);
            assert!(
                result.correct(),
                "{} traced={traced}: {:?}",
                spec.name,
                result.notes
            );
            assert!(result.attempted >= 20, "{}", spec.name);
            let line = json::parse(&result.result_line()).expect("result line parses");
            let keys: Vec<_> = line.as_object().expect("object").keys().cloned().collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            let printed: Vec<_> = line
                .get("metrics")
                .and_then(Value::as_object)
                .expect("metrics")
                .keys()
                .cloned()
                .collect();
            let mut wanted: Vec<_> = declared(if traced { "per_layer" } else { "end_to_end" })
                .into_iter()
                .map(|(n, _)| n)
                .collect();
            wanted.sort();
            assert_eq!(printed, wanted, "{}", spec.name);
            assert!(
                result.metrics.iter().all(|m| m.2.is_finite()),
                "{}: {:?}",
                spec.name,
                result.metrics
            );
            if !traced {
                // End-to-end metrics are never 0.
                assert!(
                    result.metrics.iter().all(|m| m.2 > 0.0),
                    "{}: {:?}",
                    spec.name,
                    result.metrics
                );
            }
        }
    }
}
