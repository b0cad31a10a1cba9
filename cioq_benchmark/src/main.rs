//! `cioq_benchmark` — the one command of `/BENCHMARK.json`.
//!
//! ```text
//! cioq_benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! cioq_benchmark [--seed <n>] [--seconds <s>] [--json <out>]     # all six (a child process each), both passes
//! cioq_benchmark compare <a.json> <b.json>                       # run from the repository root
//! ```
//!
//! Builds every selected workload's inputs from the seed, runs the timing
//! pass (`--trace 0`), the traced pass (`--trace 1`) or both, checks the
//! outputs, prints every metric by name with its unit, and prints as the
//! last line of standard output the result object of the last pass run.
//! Exits non-zero if any conservation, determinism or twin-digest check
//! failed.

use cioq_benchmark::json::Value;
use cioq_benchmark::run::{compare, end_to_end, per_layer, read_json, Verdict, RUN_SECONDS};
use cioq_benchmark::workloads;
use std::process::{Command, ExitCode};

const USAGE: &str = "usage: cioq_benchmark [--workload <name>] [--seed <n>] [--seconds <s>] \
                     [--trace <0|1>] [--json <out>]\n       \
                     cioq_benchmark compare <a.json> <b.json>";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    json: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 7,
        seconds: RUN_SECONDS,
        trace: None,
        json: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => out.workload = Some(value()?.clone()),
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(out.seconds > 0.0 && out.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                out.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            "--json" => out.json = Some(value()?.clone()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(out)
}

fn run_compare(a: &str, b: &str) -> Result<bool, String> {
    let rows = compare(
        &read_json("BENCHMARK.json")?,
        &read_json(a)?,
        &read_json(b)?,
    )?;
    println!(
        "{:<24} {:<20} {:>16} {:>16}  verdict",
        "workload", "metric", a, b
    );
    for row in &rows {
        println!(
            "{:<24} {:<20} {:>16} {:>16}  {}",
            row.workload,
            row.metric,
            row.a,
            row.b,
            row.verdict.word()
        );
    }
    Ok(rows.iter().all(|row| row.verdict != Verdict::Worse))
}

/// Write the `--json` file: the run's parameters and one entry per
/// workload.
fn write_doc(path: &str, args: &Args, workloads: Vec<(&str, Value)>) -> Result<(), String> {
    let doc = Value::obj([
        ("seed", Value::Num(args.seed as f64)),
        ("seconds", Value::Num(args.seconds)),
        (
            "workers_available",
            Value::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        ("workloads", Value::obj(workloads)),
    ]);
    std::fs::write(path, format!("{doc}\n")).map_err(|e| format!("cannot write {path}: {e}"))
}

/// One workload in this process: the selected passes, printed, the
/// `--json` file, the result line. Returns whether every check passed.
fn run_one(name: &str, args: &Args) -> Result<bool, String> {
    let spec = workloads::by_name(name, false).ok_or_else(|| {
        format!(
            "unknown workload `{name}`; the workloads are {}",
            workloads::NAMES.join(", ")
        )
    })?;
    let passes: &[bool] = match args.trace {
        Some(false) => &[false],
        Some(true) => &[true],
        None => &[false, true],
    };
    println!("# {}: {}", spec.name, spec.why);
    let mut entry = Vec::new();
    let mut correct = true;
    let mut last_line = String::new();
    for &traced in passes {
        let pass = if traced { per_layer } else { end_to_end };
        let result = pass(&spec, args.seed, args.seconds);
        result.print();
        correct &= result.correct();
        let key = if traced { "per_layer" } else { "end_to_end" };
        entry.push((key, result.file_entry()));
        last_line = result.result_line();
    }
    if let Some(path) = &args.json {
        write_doc(path, args, vec![(spec.name, Value::obj(entry))])?;
    }
    println!("{last_line}");
    Ok(correct)
}

/// All six workloads, each in a child process of its own, as the driver
/// runs them: a workload's peak memory and heap layout then owe nothing to
/// the workloads before it. The children print; their `--json` files are
/// merged into one.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut merged = Vec::new();
    let mut correct = true;
    for name in workloads::NAMES {
        let mut child = Command::new(&exe);
        child.args(["--workload", name]);
        child.args(["--seed", &args.seed.to_string()]);
        child.args(["--seconds", &args.seconds.to_string()]);
        if let Some(traced) = args.trace {
            child.args(["--trace", if traced { "1" } else { "0" }]);
        }
        let part = args.json.as_ref().map(|out| format!("{out}.{name}.part"));
        if let Some(part) = &part {
            child.args(["--json", part]);
        }
        let status = child
            .status()
            .map_err(|e| format!("cannot run {name}: {e}"))?;
        correct &= status.success();
        if let Some(part) = part {
            let doc = read_json(&part)?;
            let _ = std::fs::remove_file(&part);
            let entry = doc.get("workloads").and_then(|w| w.get(name));
            merged.push((name, entry.cloned().ok_or(format!("{part}: no {name}"))?));
        }
    }
    if let Some(path) = &args.json {
        write_doc(path, args, merged)?;
    }
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if args.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = args.as_slice() else {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        };
        run_compare(a, b)
    } else {
        match parse_args(&args) {
            Ok(args) => match &args.workload {
                Some(name) => run_one(name, &args),
                None => run_all(&args),
            },
            Err(e) => Err(format!("{e}\n{USAGE}")),
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("cioq_benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
