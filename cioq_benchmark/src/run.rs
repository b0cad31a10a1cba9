//! The two passes over one workload, and the comparison of two result
//! files.
//!
//! **Timing pass** (tracing off): [`ROUNDS`] rounds; each spends
//! [`SETUP_SHARE`] of its time on set-up samples (build the inputs afresh
//! from the seed and run one rep on them; not pooled with the reps), then
//! runs reps back to back for the rest. Rep times are pooled; host time
//! per rep is their `low5`, set-up time the `low5` of the set-up samples.
//!
//! **Traced pass**: the untraced primary, the same execution inside the
//! tracing wrappers, and the twins that price a crate-private layer by
//! difference run interleaved in the same rounds, so every ratio between
//! them samples the host at the same moments. Layer kernels run after.

use crate::estimators::{low5, median, percentile, split_half_diff};
use crate::json::{self, Value};
use crate::layers;
use crate::now_ns;
use crate::report::{PassResult, Values};
use crate::trace::{Layer, Sink, TraceLog};
use crate::workloads::{digest, run, Exec, Inputs, Outcome, Policy, Spec};
use cioq_sim::{ExecMode, FabricSpec, RunReport};
use std::sync::Arc;

/// Rounds per pass: how many separate moments each lane samples the host
/// at.
pub const ROUNDS: u32 = 10;

/// Default of `--seconds`: `run_seconds` of `BENCHMARK.json`.
pub const RUN_SECONDS: f64 = 20.0;

/// Share of each timing-pass round spent on set-up samples.
const SETUP_SHARE: f64 = 0.15;

/// Traced reps per round: 30 traced reps per workload in all, enough for
/// 5 k slot gaps on the shortest workload while the span store stays
/// under a million spans on the longest.
const TRACED_REPS_PER_ROUND: u32 = 3;

/// One execution of a workload, repeated and timed.
struct Lane<'a> {
    spec: &'a Spec,
    inputs: Inputs,
    exec: Exec,
    sink: Option<Arc<Sink>>,
    /// Pooled rep times in seconds, and the round each ran in.
    secs: Vec<f64>,
    round: Vec<u32>,
    /// Report and digest of the first rep; every later rep must match.
    first: Option<(RunReport, u64)>,
    attempted: u64,
    failures: Vec<String>,
    stalls: u64,
}

impl<'a> Lane<'a> {
    fn new(spec: &'a Spec, inputs: Inputs, exec: Exec, sink: Option<Arc<Sink>>) -> Self {
        Lane {
            spec,
            inputs,
            exec,
            sink,
            secs: Vec::new(),
            round: Vec::new(),
            first: None,
            attempted: 0,
            failures: Vec::new(),
            stalls: 0,
        }
    }

    /// Run one rep and check it. `pooled` adds its time to the lane's
    /// sample.
    fn rep(&mut self, round: u32, pooled: bool) {
        let number = self.attempted as u32;
        let start = now_ns();
        let result = match &self.sink {
            Some(sink) => sink.rep(number, || {
                run(self.spec, &self.inputs, self.exec, false, Some(sink))
            }),
            None => run(self.spec, &self.inputs, self.exec, false, None),
        };
        let secs = (now_ns() - start) as f64 / 1e9;
        self.attempted += 1;
        match result.and_then(|out| self.check(out)) {
            Ok(()) if pooled => {
                self.secs.push(secs);
                self.round.push(round);
            }
            Ok(()) => {}
            Err(e) => self.failures.push(e),
        }
    }

    fn check(&mut self, out: Outcome) -> Result<(), String> {
        out.report.check_conservation()?;
        self.stalls += out.stalls;
        let d = digest(&out.report);
        match &self.first {
            Some((_, first)) if *first != d => Err(format!(
                "{}: rep digest {d:016x} differs from the first rep's {first:016x}",
                self.spec.name
            )),
            Some(_) => Ok(()),
            None => {
                self.first = Some((out.report, d));
                Ok(())
            }
        }
    }

    /// One set-up sample, in seconds: build the inputs from the seed and
    /// run one rep on them (not pooled). The old inputs go first, outside
    /// the clock, so the process never holds two sets.
    fn setup(&mut self, round: u32) -> f64 {
        let seed = self.inputs.seed;
        self.inputs = Inputs::empty(seed);
        let start = now_ns();
        self.inputs = self.spec.inputs(seed, self.exec);
        self.rep(round, false);
        (now_ns() - start) as f64 / 1e9
    }

    /// Reps back to back until `secs` have passed: at least two, and for
    /// a traced lane at most [`TRACED_REPS_PER_ROUND`], which bounds the
    /// span store.
    fn window(&mut self, round: u32, secs: f64) {
        let end = now_ns() + (secs * 1e9) as u64;
        let cap = if self.sink.is_some() {
            TRACED_REPS_PER_ROUND
        } else {
            u32::MAX
        };
        let mut reps = 0;
        while reps < 2 || (reps < cap && now_ns() < end) {
            self.rep(round, true);
            reps += 1;
        }
    }

    /// Host seconds per rep (NaN before the first good rep).
    fn low5(&self) -> f64 {
        low5(&self.secs)
    }

    /// `low5` over the first [`TRACED_REPS_PER_ROUND`] reps of each round
    /// only: the sample a traced lane gets. A minimum-like estimator reads
    /// lower the more reps it sees, so a traced lane is compared with an
    /// equally small sample of its untraced baseline.
    fn low5_as_traced(&self) -> f64 {
        let mut taken = vec![0u32; ROUNDS as usize];
        let sample: Vec<f64> = (self.secs.iter().zip(&self.round))
            .filter(|(_, &round)| {
                taken[round as usize] += 1;
                taken[round as usize] <= TRACED_REPS_PER_ROUND
            })
            .map(|(secs, _)| *secs)
            .collect();
        low5(&sample)
    }

    fn report(&self) -> Option<&RunReport> {
        self.first.as_ref().map(|(r, _)| r)
    }

    fn digest(&self) -> u64 {
        self.first.as_ref().map_or(0, |(_, d)| *d)
    }
}

/// Run the workload's twin once; its digest must equal `expected`, the
/// primary's. `None` for a workload without a twin.
pub fn twin_check(spec: &Spec, seed: u64, expected: u64) -> Option<Result<(), String>> {
    let twin = spec.twin?;
    Some(
        run(spec, &spec.inputs(seed, twin), twin, false, None).and_then(|out| {
            let d = digest(&out.report);
            if d == expected {
                Ok(())
            } else {
                Err(format!(
                    "{}: twin {twin:?} digest {d:016x} differs from {expected:016x}",
                    spec.name
                ))
            }
        }),
    )
}

/// Fold lanes and twin check into the result's `attempted` / `failed`.
fn settle(result: &mut PassResult, lanes: &[&Lane<'_>], twin: Option<Result<(), String>>) {
    for lane in lanes {
        result.attempted += lane.attempted;
        result.failed += lane.failures.len() as u64;
        result
            .notes
            .extend(lane.failures.iter().map(|f| format!("FAILED {f}")));
    }
    if let Some(check) = twin {
        result.attempted += 1;
        if let Err(e) = check {
            result.failed += 1;
            result.notes.push(format!("FAILED {e}"));
        }
    }
}

/// Peak resident set (`VmHWM`) of this process in MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Reset `VmHWM` to the current resident set, so one process can report a
/// peak per workload. Returns whether the kernel accepted the reset.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The timing pass: tracing off, end-to-end metrics.
pub fn end_to_end(spec: &Spec, seed: u64, seconds: f64) -> PassResult {
    let rss_reset = reset_peak_rss();
    let mut lane = Lane::new(spec, Inputs::empty(seed), spec.exec, None);
    let (mut setup, mut setup_round) = (Vec::new(), Vec::new());
    let mut twin = None;
    let mut peak_rss = None;
    let round_secs = seconds / f64::from(ROUNDS);
    for round in 0..ROUNDS {
        let end = now_ns() + (round_secs * SETUP_SHARE * 1e9) as u64;
        loop {
            setup.push(lane.setup(round));
            setup_round.push(round);
            if peak_rss.is_none() {
                // Memory to build the inputs once and run the cold rep:
                // read before anything else runs, because the rep count of
                // the timing loop (and with it heap fragmentation) depends
                // on the host's speed.
                peak_rss = peak_rss_mib();
                twin = twin_check(spec, seed, lane.digest());
            }
            if now_ns() >= end {
                break;
            }
        }
        lane.window(round, round_secs * (1.0 - SETUP_SHARE));
    }

    let mut values = Values::new();
    let host = lane.low5();
    if let Some(report) = lane.report() {
        values.insert("slots_per_s", report.slots as f64 / host);
        values.insert("value_throughput", report.value_throughput());
    }
    // Like rep times, set-up samples only ever gain time from the host.
    values.insert("setup_s", low5(&setup));
    values.insert("peak_rss_mib", peak_rss.unwrap_or(0.0));
    let mut result = PassResult::new(spec.name, false, &values, lane.digest());
    result.setup_split_half_diff = split_half_diff(&setup, &setup_round);
    if !lane.secs.is_empty() {
        result.split_half_diff = split_half_diff(&lane.secs, &lane.round);
        result.notes.push(format!(
            "host: {} reps, min {:.3} ms, low5 {:.3} ms, p25/p50/p75 {:.3}/{:.3}/{:.3} ms, noise_ratio {:.3}, split_half_diff {:.4} (context, not gated)",
            lane.secs.len(),
            percentile(&lane.secs, 0.0) * 1e3,
            host * 1e3,
            percentile(&lane.secs, 0.25) * 1e3,
            median(&lane.secs) * 1e3,
            percentile(&lane.secs, 0.75) * 1e3,
            median(&lane.secs) / host,
            result.split_half_diff,
        ));
    }
    result.notes.push(format!(
        "set-up: {} samples, p50 {:.3} ms, split_half_diff {:.4}",
        setup.len(),
        median(&setup) * 1e3,
        result.setup_split_half_diff,
    ));
    if !rss_reset {
        result.notes.push(
            "peak_rss_mib: /proc/self/clear_refs not writable, VmHWM is cumulative over the process"
                .into(),
        );
    }
    settle(&mut result, &[&lane], twin);
    result
}

/// Per-rep sums of the traced lane's spans.
#[derive(Default)]
struct Breakdown {
    rep_ns: Vec<f64>,
    source_ns: Vec<f64>,
    schedule_ns: Vec<f64>,
    propose_ns: Vec<f64>,
    merge_ns: Vec<f64>,
    /// Scheduling or merge calls, and the transfers they returned.
    calls: u64,
    transfers: u64,
    /// Gaps between successive `arrivals()` calls of one rep, in µs.
    slot_gaps_us: Vec<f64>,
}

impl Breakdown {
    fn of(log: &TraceLog) -> Self {
        let reps = log
            .spans
            .iter()
            .map(|s| s.rep as usize + 1)
            .max()
            .unwrap_or(0);
        let mut b = Breakdown {
            rep_ns: vec![0.0; reps],
            source_ns: vec![0.0; reps],
            schedule_ns: vec![0.0; reps],
            propose_ns: vec![0.0; reps],
            merge_ns: vec![0.0; reps],
            ..Breakdown::default()
        };
        let mut last_arrival: Option<(u32, u64)> = None;
        for span in &log.spans {
            let (rep, ns) = (span.rep as usize, span.ns() as f64);
            match span.layer {
                Layer::Rep => b.rep_ns[rep] += ns,
                Layer::Window => b.source_ns[rep] += ns,
                Layer::Arrivals => {
                    b.source_ns[rep] += ns;
                    if let Some((r, start)) = last_arrival {
                        if r == span.rep {
                            b.slot_gaps_us.push((span.start_ns - start) as f64 / 1e3);
                        }
                    }
                    last_arrival = Some((span.rep, span.start_ns));
                }
                Layer::Schedule => b.schedule_ns[rep] += ns,
                Layer::Propose => b.propose_ns[rep] += ns,
                Layer::Merge => b.merge_ns[rep] += ns,
            }
            if matches!(span.layer, Layer::Schedule | Layer::Merge) {
                b.calls += 1;
                b.transfers += u64::from(span.items);
            }
        }
        b
    }

    /// Mean of `f(rep index)` over the five fastest traced reps — the
    /// reps the host disturbed least, so the layer terms add up to a rep
    /// time consistent with the lane's `low5`.
    fn per_rep(&self, f: impl Fn(usize) -> f64) -> f64 {
        let mut fastest: Vec<usize> = (0..self.rep_ns.len()).collect();
        fastest.sort_by(|&a, &b| self.rep_ns[a].total_cmp(&self.rep_ns[b]));
        fastest.truncate(5);
        fastest.iter().map(|&r| f(r)).sum::<f64>() / fastest.len().max(1) as f64
    }
}

/// The lanes of the traced pass and what it has measured so far.
struct TracedPass<'a> {
    spec: &'a Spec,
    seed: u64,
    inputs: Inputs,
    /// Inputs with the materialised trace, which kernels and sequential
    /// twins need and a service run never builds.
    trace_inputs: Inputs,
    sink: Arc<Sink>,
    /// The workload as the timing pass runs it, tracing off.
    primary: Lane<'a>,
    /// The same execution inside the wrappers. Spans of a threaded run
    /// overlap in wall time, so a threaded workload is traced through its
    /// inline twin (digests must match).
    traced: Lane<'a>,
    /// The untraced inline twin of a threaded workload: baseline of the
    /// trace overhead, and what is left of `primary` once synchronisation
    /// is taken out.
    inline: Option<Lane<'a>>,
    /// The sequential engine on a sharded workload's inputs.
    sequential: Option<Lane<'a>>,
    /// The inline run on an immediate fabric: prices `sim.transport` by
    /// difference. Simulates something else, so no digest check.
    immediate: Option<Lane<'a>>,
    values: Values,
    notes: Vec<String>,
    /// Kernel self-checks and digest comparisons made, and those failed.
    checks: u64,
    failures: Vec<String>,
}

impl<'a> TracedPass<'a> {
    fn new(spec: &'a Spec, seed: u64) -> Self {
        let inputs = spec.inputs(seed, spec.exec);
        let trace_inputs = spec.inputs(seed, Exec::Sequential);
        let sharded = matches!(spec.exec, Exec::Sharded { .. });
        let traced_exec = match spec.exec {
            Exec::Sharded { shards, .. } => Exec::Sharded {
                shards,
                mode: ExecMode::Inline,
            },
            exec => exec,
        };
        let sink = Sink::with_capacity(1 << 20);
        let lane = |inputs: &Inputs, exec, sink| Lane::new(spec, inputs.clone(), exec, sink);
        let on_immediate_fabric = Inputs {
            fabric: FabricSpec::default(),
            ..inputs.clone()
        };
        TracedPass {
            spec,
            seed,
            primary: lane(&inputs, spec.exec, None),
            traced: lane(&inputs, traced_exec, Some(Arc::clone(&sink))),
            inline: (traced_exec != spec.exec).then(|| lane(&inputs, traced_exec, None)),
            sequential: sharded.then(|| lane(&trace_inputs, Exec::Sequential, None)),
            immediate: spec
                .two_tier
                .map(|_| lane(&on_immediate_fabric, traced_exec, None)),
            inputs,
            trace_inputs,
            sink,
            values: Values::new(),
            notes: Vec::new(),
            checks: 0,
            failures: Vec::new(),
        }
    }

    /// Count one check; on failure record it and give `None`.
    fn check<T>(&mut self, what: &str, result: Result<T, String>) -> Option<T> {
        self.checks += 1;
        result
            .map_err(|e| self.failures.push(format!("{what}: {e}")))
            .ok()
    }

    /// All lanes take turns within each round, so every ratio between two
    /// of them samples the host at the same moments.
    fn time(&mut self, seconds: f64) {
        let mut lanes: Vec<&mut Lane<'a>> = [
            Some(&mut self.primary),
            Some(&mut self.traced),
            self.inline.as_mut(),
            self.sequential.as_mut(),
            self.immediate.as_mut(),
        ]
        .into_iter()
        .flatten()
        .collect();
        // The traced lane stops at its rep cap, so the time is shared out
        // among the others.
        let window = seconds / f64::from(ROUNDS) / (lanes.len() - 1) as f64;
        for round in 0..ROUNDS {
            for lane in &mut lanes {
                lane.window(round, window);
            }
        }
    }

    fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    fn slots(&self) -> f64 {
        self.primary.report().map_or(1.0, |r| r.slots.max(1) as f64)
    }

    /// Single-threaded host seconds per rep: the inline twin's if the
    /// workload is threaded, the workload's own otherwise.
    fn baseline(&self) -> f64 {
        self.inline.as_ref().unwrap_or(&self.primary).low5()
    }

    /// `host.*`: the pass's own noise floor.
    fn host(&mut self) {
        let (secs, round) = (&self.primary.secs, &self.primary.round);
        if secs.is_empty() {
            return;
        }
        let p50 = median(secs);
        for (name, value) in [
            ("host.reps", secs.len() as f64),
            ("host.rep_ms_p25", percentile(secs, 0.25) * 1e3),
            ("host.rep_ms_p50", p50 * 1e3),
            ("host.rep_ms_p75", percentile(secs, 0.75) * 1e3),
            ("host.noise_ratio", p50 / low5(secs)),
            ("host.split_half_diff", split_half_diff(secs, round)),
            ("host.trace_overhead", self.trace_overhead()),
        ] {
            self.values.insert(name, value);
        }
    }

    /// Traced low5 over the low5 of an equally small untraced sample, − 1.
    fn trace_overhead(&self) -> f64 {
        let untraced = self.inline.as_ref().unwrap_or(&self.primary);
        self.traced.low5() / untraced.low5_as_traced() - 1.0
    }

    /// Everything read off the spans, the reconciliation line, and the
    /// twin differences. Returns scheduling calls per rep.
    fn spans(&mut self) -> f64 {
        let log = self.sink.take();
        let b = Breakdown::of(&log);
        let (slots, host, baseline) = (self.slots(), self.primary.low5(), self.baseline());
        let traced_reps = b.rep_ns.len().max(1) as f64;
        let policy_ns = |r: usize| b.schedule_ns[r] + b.propose_ns[r] + b.merge_ns[r];
        let source = b.per_rep(|r| b.source_ns[r]) / slots;
        let core = b.per_rep(policy_ns) / slots;
        let residual = b.per_rep(|r| b.rep_ns[r] - b.source_ns[r] - policy_ns(r)) / slots;
        let share = |ns: f64| 100.0 * ns / (source + core + residual);
        let overhead = 100.0 * self.trace_overhead();
        self.set("source.arrivals_ns_per_slot", source);
        self.set("core.schedule_ns_per_slot", core);
        self.set(
            "core.schedule_calls_per_slot",
            b.calls as f64 / traced_reps / slots,
        );
        self.set(
            "core.admit_calls_per_slot",
            log.admits as f64 / traced_reps / slots,
        );
        self.set(
            "core.match_size_mean",
            b.transfers as f64 / b.calls.max(1) as f64,
        );
        self.set("core.share", b.per_rep(|r| policy_ns(r) / b.rep_ns[r]));
        if let Exec::Sharded { shards, .. } = self.spec.exec {
            let propose = b.per_rep(|r| b.propose_ns[r]) / slots;
            let merge = b.per_rep(|r| b.merge_ns[r]) / slots;
            let threaded = self.inline.is_some()
                && std::thread::available_parallelism().map_or(1, |n| n.get()) > 1;
            self.set("shard.propose_ns_per_slot", propose);
            self.set("shard.merge_ns_per_slot", merge);
            self.set("shard.coord_ns_per_slot", residual);
            self.set("shard.inline_slots_per_s", slots / baseline);
            self.set("shard.sync_ns_per_slot", (host - baseline) / slots * 1e9);
            self.set(
                "shard.parties",
                if threaded { shards + 1 } else { 1 } as f64,
            );
            if let Some(seq) = &self.sequential {
                let ratio = baseline / seq.low5();
                self.set("shard.vs_seq_ratio", ratio);
            }
            self.notes.push(format!(
                "reconciliation (inline, traced): rep {:.0} ns/slot = propose {propose:.0} ({:.1}%) + merge {merge:.0} ({:.1}%) + coord {residual:.0} ({:.1}%, residual: mailboxes, snapshots, landing, barriers); trace overhead {overhead:+.1}%",
                source + core + residual,
                share(propose),
                share(merge),
                share(residual),
            ));
        } else {
            self.set("engine.self_ns_per_slot", residual);
            if b.slot_gaps_us.len() >= 100 {
                self.set("engine.slot_us_p50", median(&b.slot_gaps_us));
                self.set("engine.slot_us_p99", percentile(&b.slot_gaps_us, 0.99));
            }
            self.notes.push(format!(
                "reconciliation (traced): rep {:.0} ns/slot = source {source:.0} ({:.1}%) + core.schedule {core:.0} ({:.1}%) + engine.self {residual:.0} ({:.1}%, residual: landing, arrival bucketing, admit/transmit callbacks, validation, transfers, stats); trace overhead {overhead:+.1}%; {} slot gaps",
                source + core + residual,
                share(source),
                share(core),
                share(residual),
                b.slot_gaps_us.len(),
            ));
        }
        if let (Some(two_tier), Some(immediate)) = (&self.inline, &self.immediate) {
            let delta = (two_tier.low5() - immediate.low5()) / slots * 1e9;
            self.set("transport.delta_ns_per_slot", delta);
        }
        if matches!(self.spec.exec, Exec::Service { .. }) {
            self.set("stream.share", b.per_rep(|r| b.source_ns[r] / b.rep_ns[r]));
            self.set(
                "stream.stalls_per_kslot",
                self.primary.stalls as f64 / (self.primary.attempted as f64 * slots) * 1e3,
            );
        }
        b.calls as f64 / traced_reps
    }

    /// The layer kernels of `layers`, on this workload's data, and the
    /// machine-independent ledger from its report.
    fn kernels(&mut self, schedule_calls_per_rep: f64) {
        let (spec, slots, baseline) = (self.spec, self.slots(), self.baseline());
        self.set("traffic.gen_ms", layers::input_gen_ms(spec, self.seed));
        self.set(
            "stream.hop_ns_per_slot",
            layers::stream_hop_ns_per_slot(spec, self.seed),
        );
        if !matches!(spec.exec, Exec::Sharded { .. }) {
            self.set(
                "engine.construct_us",
                layers::engine_construct_us(spec, &self.inputs),
            );
        }

        // One checkpoint of this workload (its own cadence if it has one,
        // mid-run otherwise) for the snapshot kernels.
        let checkpointing = Spec {
            checkpoint_every: spec
                .checkpoint_every
                .or(Some((spec.arrival_slots / 2).max(1))),
            ..spec.clone()
        };
        let costs = run(&checkpointing, &self.inputs, spec.exec, true, None).and_then(|out| {
            if spec.checkpoint_every.is_some() {
                self.set("snapshot.per_rep", out.checkpoints.len() as f64);
            }
            let snap = out.checkpoints.first().ok_or("no checkpoint taken")?;
            layers::snapshot_costs(snap, &checkpointing.run_options(&self.inputs))
        });
        if let Some(costs) = self.check("snapshot kernel", costs) {
            self.set("snapshot.encode_us", costs.encode_us);
            self.set("snapshot.decode_us", costs.decode_us);
            self.set("snapshot.restore_us", costs.restore_us);
            self.set("snapshot.bytes", costs.bytes);
        }

        let Some(r) = self.primary.report().cloned() else {
            return;
        };
        let capacity = spec
            .cfg
            .crossbar_capacity
            .unwrap_or(spec.cfg.input_capacity);
        let q = layers::queue_costs(capacity, self.trace_inputs.trace.packets());
        let to_fabric = r.transferred + r.transferred_to_crossbar;
        let preempted = (r.losses.preempted_input
            + r.losses.preempted_crossbar
            + r.losses.preempted_output) as f64;
        let inserts = (r.accepted + to_fabric) as f64;
        let pops = (to_fabric + r.transmitted) as f64;
        self.set("queues.insert_ns", q.insert_ns);
        self.set("queues.pop_head_ns", q.pop_head_ns);
        self.set("queues.pop_tail_ns", q.pop_tail_ns);
        self.set("queues.ops_per_slot", (inserts + pops + preempted) / slots);
        self.set(
            "queues.est_share",
            (inserts * q.insert_ns + pops * q.pop_head_ns + preempted * q.pop_tail_ns)
                / (baseline * 1e9),
        );

        let costs = layers::matching_costs(spec, &self.trace_inputs);
        if let Some(m) = self.check("matching kernel", costs) {
            // Per scheduling call of a sequential policy: one greedy walk
            // over the edges and, for the weighted one, an order repair of
            // Θ(N) marks. The sharded GM merges row bitmaps instead of
            // walking edges, so the estimate does not apply to it.
            let per_call = match (spec.exec, spec.policy) {
                (Exec::Sharded { .. }, _) => 0.0,
                (_, Policy::Pg) => {
                    m.edges_mean * m.greedy_ns_per_edge
                        + spec.cfg.n_inputs as f64 * m.repair_ns_per_mark
                }
                _ => m.edges_mean * m.greedy_ns_per_edge,
            };
            self.set("matching.edges_mean", m.edges_mean);
            self.set("matching.set_edge_ns", m.set_edge_ns);
            self.set("matching.repair_ns_per_mark", m.repair_ns_per_mark);
            self.set("matching.greedy_ns_per_edge", m.greedy_ns_per_edge);
            self.set(
                "matching.est_share",
                schedule_calls_per_rep * per_call / (baseline * 1e9),
            );
        }

        let arrived = r.arrived.max(1) as f64;
        self.set("sim.packets_per_slot", r.arrived as f64 / slots);
        self.set("sim.transfers_per_slot", to_fabric as f64 / slots);
        self.set("sim.preemptions_per_slot", preempted / slots);
        self.set("sim.loss_rate", r.losses.total_count() as f64 / arrived);
        self.set("sim.mean_latency_slots", r.mean_latency());
        self.set(
            "sim.residual_share",
            r.residual_value as f64 / r.arrived_value.max(1) as f64,
        );
        self.notes.push(format!(
            "host time per simulated packet: {:.1} ns ({} workers available)",
            self.primary.low5() * 1e9 / arrived,
            std::thread::available_parallelism().map_or(1, |n| n.get()),
        ));
    }

    fn finish(mut self) -> PassResult {
        let expected = self.primary.digest();
        let mut result = PassResult::new(self.spec.name, true, &self.values, expected);
        result.split_half_diff = result.value("host.split_half_diff").unwrap_or(0.0);
        result.notes = std::mem::take(&mut self.notes);
        // The traced run and the twins must simulate what the primary does.
        let digests: Vec<(Exec, u64)> = [
            Some(&self.traced),
            self.inline.as_ref(),
            self.sequential.as_ref(),
        ]
        .into_iter()
        .flatten()
        .map(|lane| (lane.exec, lane.digest()))
        .collect();
        for (exec, d) in digests {
            let same = if d == expected {
                Ok(())
            } else {
                Err(format!(
                    "digest {d:016x} differs from the primary's {expected:016x}"
                ))
            };
            self.check(&format!("{} under {exec:?}", self.spec.name), same);
        }
        result.attempted += self.checks;
        result.failed += self.failures.len() as u64;
        result
            .notes
            .extend(self.failures.iter().map(|f| format!("FAILED {f}")));
        let lanes: Vec<&Lane<'_>> = [
            Some(&self.primary),
            Some(&self.traced),
            self.inline.as_ref(),
            self.sequential.as_ref(),
            self.immediate.as_ref(),
        ]
        .into_iter()
        .flatten()
        .collect();
        settle(
            &mut result,
            &lanes,
            twin_check(self.spec, self.seed, expected),
        );
        result
    }
}

/// The traced pass: per-layer metrics. Lanes are timed for four fifths of
/// `seconds`; the kernels take about the rest.
pub fn per_layer(spec: &Spec, seed: u64, seconds: f64) -> PassResult {
    let mut pass = TracedPass::new(spec, seed);
    pass.time(seconds * 0.8);
    pass.host();
    let schedule_calls_per_rep = pass.spans();
    pass.kernels(schedule_calls_per_rep);
    pass.finish()
}

/// Verdict of [`compare`] for one workload × end-to-end metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `b` is better than `a` by more than the bound.
    Better,
    /// `b` is worse than `a` by more than the bound.
    Worse,
    /// The two differ by no more than the bound.
    WithinBound,
    /// A host-time difference smaller than either run's own
    /// `split_half_diff`: it cannot be told from noise.
    Unresolved,
}

impl Verdict {
    /// The word printed for the verdict.
    pub fn word(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::WithinBound => "within-bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Classify `b` against `a`. `noise` is the larger `split_half_diff` of
/// the two runs for host-time metrics, `None` for the others.
pub fn verdict(a: f64, b: f64, higher_is_better: bool, bound: f64, noise: Option<f64>) -> Verdict {
    let change = if a == 0.0 { 0.0 } else { (b - a) / a.abs() };
    let gain = if higher_is_better { change } else { -change };
    match noise {
        Some(noise) if gain != 0.0 && gain.abs() < noise => Verdict::Unresolved,
        _ if gain > bound => Verdict::Better,
        _ if gain < -bound => Verdict::Worse,
        _ => Verdict::WithinBound,
    }
}

/// One line of [`compare`]'s output.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// End-to-end metric name, `sim.digest` or `failed`.
    pub metric: String,
    /// Its value in the first file, as printed.
    pub a: String,
    /// Its value in the second file, as printed.
    pub b: String,
    /// The second against the first.
    pub verdict: Verdict,
}

/// Compare two `--json` result files, `b` against `a`, with the
/// directions and bounds of `benchmark` (the parsed `BENCHMARK.json`).
/// Returns, per workload present in both, one row per end-to-end metric,
/// a `sim.digest` row (`worse` unless the two simulated the same thing)
/// and a `failed` row (`worse` if either side had a failed check).
pub fn compare(benchmark: &Value, a: &Value, b: &Value) -> Result<Vec<Row>, String> {
    let declared = benchmark
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    let workloads = |v: &'_ Value| v.get("workloads").and_then(Value::as_object).cloned();
    let (wa, wb) = (
        workloads(a).ok_or("first file has no workloads")?,
        workloads(b).ok_or("second file has no workloads")?,
    );
    let timing = |w: &'_ Value, key: &str| w.get("end_to_end")?.get(key).cloned();
    let metric = |w: &Value, name: &str| timing(w, "metrics")?.get(name)?.get("value")?.as_f64();
    let number = |w: &Value, key: &str| timing(w, key).and_then(|v| v.as_f64());
    let mut rows = Vec::new();
    for (workload, ea) in &wa {
        let Some(eb) = wb.get(workload) else { continue };
        let mut row = |metric: &str, a: String, b: String, verdict| {
            rows.push(Row {
                workload: workload.clone(),
                metric: metric.to_string(),
                a,
                b,
                verdict,
            })
        };
        for m in declared {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or("metric without a name")?;
            let bound = m
                .get("bound")
                .and_then(Value::as_f64)
                .ok_or("metric without a bound")?;
            let higher = m.get("better").and_then(Value::as_str) == Some("higher");
            let (Some(va), Some(vb)) = (metric(ea, name), metric(eb, name)) else {
                continue;
            };
            // The simulated metric repeats exactly, so it compares for
            // equality; each host-time metric has the run's own noise
            // floor over its own samples; memory has neither.
            let floor = |key| {
                let of = |e| number(e, key).unwrap_or(0.0);
                Some(of(ea).max(of(eb)))
            };
            let (bound, noise) = match name {
                "value_throughput" => (0.0, None),
                "slots_per_s" => (bound, floor("split_half_diff")),
                "setup_s" => (bound, floor("setup_split_half_diff")),
                _ => (bound, None),
            };
            row(
                name,
                format!("{va:.6}"),
                format!("{vb:.6}"),
                verdict(va, vb, higher, bound, noise),
            );
        }
        // The correctness check of a speed-only change: the same digest,
        // and no failed rep or twin check, in either pass of either file.
        let digest = |e| timing(e, "digest").and_then(|d| d.as_str().map(str::to_string));
        if let (Some(da), Some(db)) = (digest(ea), digest(eb)) {
            let same = if da == db {
                Verdict::WithinBound
            } else {
                Verdict::Worse
            };
            row("sim.digest", da, db, same);
        }
        let failed = |e: &Value| -> f64 {
            ["end_to_end", "per_layer"]
                .iter()
                .filter_map(|pass| e.get(pass)?.get("failed")?.as_f64())
                .sum()
        };
        let (fa, fb) = (failed(ea), failed(eb));
        let clean = if fa + fb == 0.0 {
            Verdict::WithinBound
        } else {
            Verdict::Worse
        };
        row("failed", format!("{fa}"), format!("{fb}"), clean);
    }
    Ok(rows)
}

/// Parse a result or benchmark file.
pub fn read_json(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}
