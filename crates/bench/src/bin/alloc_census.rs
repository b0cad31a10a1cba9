//! alloc_census: prove the steady-state slot loop heap-allocation-free.
//!
//! Requires the `alloc-audit` feature (`cargo run -p cioq-bench --release
//! --features alloc-audit --bin alloc_census`); without it the bin exits
//! with a usage error, because there is no allocator ledger to read.
//!
//! ## Methodology
//!
//! Per-config differential measurement: each (policy × engine × fabric)
//! cell is run **twice** over the *same* trace — once for `N1` slots, once
//! for `N2 > N1` — and the steady-state cost is the allocation delta
//! divided by the slot delta:
//!
//! ```text
//! allocs/slot = (A(N2) − A(N1)) / (N2 − N1)
//! ```
//!
//! Both runs share the trace, config, fabric and a fresh policy, so every
//! setup cost (shard construction, policy cache warm-up, growth of the
//! slot batch and the calendar to steady capacity) appears identically in both
//! ledgers and cancels; what remains is exactly what the slot loop
//! acquires per slot after warm-up. `N1` (16 slots) is past the point where
//! every scratch vector, calendar bucket and policy cache has reached
//! steady capacity under full-fabric churn; the queues reserve everything
//! at construction, so the 128-slot window also covers every queue's first
//! use. The target is **0** — the bin exits non-zero if any steady-state
//! cell allocates (the CI `alloc-audit` job runs exactly this).
//!
//! Sharded cells (GM: the one policy the sharded engine runs) run K = 2
//! and K = 4, every shard on the calling thread.
//!
//! One service cell runs `serve_cioq` (GM, channel depth 4) fed by a
//! `stream::feed` producer thread: `stream.rs` promises that steady-state
//! streaming neither allocates nor frees — at most `2·depth + 1` batch
//! buffers circulate (`depth` in the channel, `depth` more taken by the
//! consumer's last refill, one with the producer) — and this cell holds it
//! to that. The producer outruns the engine by an order of magnitude, so
//! the channel fills (and every buffer exists, at full size) within the
//! first few slots of both runs. 16 ports under `--quick`, 128 otherwise.
//!
//! Checkpoint encoding is *exempt* from the zero target (serialising a
//! snapshot owns its buffers by design) but still counted: a second
//! differential pass per engine re-runs the GM/immediate-fabric cell with a
//! checkpoint cadence and reports allocations per checkpoint, so the cost
//! is visible and bounded rather than silently excluded.

#[cfg(not(feature = "alloc-audit"))]
fn main() {
    eprintln!("alloc_census requires the alloc-audit feature:");
    eprintln!("  cargo run -p cioq-bench --release --features alloc-audit --bin alloc_census");
    std::process::exit(2);
}

#[cfg(feature = "alloc-audit")]
fn main() {
    census::main()
}

#[cfg(feature = "alloc-audit")]
mod census {
    use cioq_bench::audit;
    use cioq_core::{
        CrossbarGreedyUnit, CrossbarPreemptiveGreedy, GreedyMatching, PreemptiveGreedy, ShardedGm,
    };
    use cioq_model::{SwitchConfig, Topology};
    use cioq_sim::{
        feed, serve_cioq, Engine, FabricSpec, FaultPlan, Partitioned, RunOptions, StreamCursor,
        Trace, TraceSource,
    };
    use cioq_traffic::{gen_trace, FullFabricChurn, ValueDist};

    /// Warm-up horizon: slots of churn before the short run ends, at
    /// every port count. It must outlast every one-time acquisition of
    /// the slot loop — scratch and cache growth to steady capacity. Queues
    /// need none: each queue class's packet slab is reserved in full when
    /// the engine is built, so a queue first touched late in the window
    /// (the churn sweep `j = (i·stride + slot + d) mod M` reaches its last
    /// virtual output queue near slot `M`) allocates nothing.
    const N1: u64 = 16;
    /// Long-run horizon; the steady-state window is `N2 - N1` = 128 slots.
    const N2: u64 = N1 + 128;
    /// Checkpoint cadence for the exempt-but-reported checkpoint pass.
    const CKPT_EVERY: u64 = 16;

    struct Row {
        policy: &'static str,
        engine: String,
        fabric: &'static str,
        steady: f64,
        raw: u64,
    }

    fn fabrics(n: usize) -> Vec<(&'static str, FabricSpec)> {
        let topo = Topology::two_tier(n, n, 4, 0, 2).expect("valid two-tier topology");
        vec![
            ("immediate", FabricSpec::default()),
            ("delay-line(2)", FabricSpec::uniform(2)),
            ("two-tier", FabricSpec::matrix(topo)),
        ]
    }

    fn run_options(slots: u64, link: &FabricSpec, faults: Option<FaultPlan>) -> RunOptions {
        RunOptions {
            slots: Some(slots),
            drain: false,
            validate: false,
            checkpoint_every: None,
            stats_window: Some(64),
            faults,
            fabric: link.clone(),
        }
    }

    /// Allocations by any thread of the process while `f` runs (the
    /// census itself is single-threaded, so these are `f`'s alone).
    fn measured(f: impl FnOnce()) -> u64 {
        let before = audit::process_count();
        f();
        audit::process_count() - before
    }

    /// Differential steady-state cost of `run(slots)` per slot.
    fn steady(mut run: impl FnMut(u64)) -> (f64, u64) {
        let a1 = measured(|| run(N1));
        let a2 = measured(|| run(N2));
        let raw = a2.saturating_sub(a1);
        (raw as f64 / (N2 - N1) as f64, raw)
    }

    fn seq_cioq<'p>(
        cfg: &SwitchConfig,
        trace: &Trace,
        link: &FabricSpec,
        faults: Option<&FaultPlan>,
        mk: impl Fn() -> Box<dyn cioq_sim::CioqPolicy + 'p>,
    ) -> (f64, u64) {
        steady(|slots| {
            let mut policy = mk();
            let mut source = TraceSource::new(trace);
            let engine = Engine::try_new(cfg.clone(), run_options(slots, link, faults.cloned()))
                .expect("valid run options");
            engine
                .run_cioq(policy.as_mut(), &mut source)
                .expect("census run");
        })
    }

    fn seq_crossbar(
        cfg: &SwitchConfig,
        trace: &Trace,
        link: &FabricSpec,
        faults: Option<&FaultPlan>,
        mk: impl Fn() -> Box<dyn cioq_sim::CrossbarPolicy>,
    ) -> (f64, u64) {
        steady(|slots| {
            let mut policy = mk();
            let mut source = TraceSource::new(trace);
            let engine = Engine::try_new(cfg.clone(), run_options(slots, link, faults.cloned()))
                .expect("valid run options");
            engine
                .run_crossbar(policy.as_mut(), &mut source)
                .expect("census run");
        })
    }

    /// Channel depth of the streamed service cell.
    const SERVICE_DEPTH: usize = 4;

    /// The service path: the engine asks the stream each slot whether the
    /// arrival window is still open (no slot budget), a feeder thread
    /// `feed`s the trace's first `slots` slots (one `send_reusing` per
    /// non-empty slot), and the run drains once the stream closes. The
    /// drain is what lets the two runs cancel: `serve_cioq` returns a clone
    /// of the final state, which allocates once per non-empty queue, and
    /// only a drained switch has the same number of those at either
    /// horizon.
    fn served_cioq(cfg: &SwitchConfig, trace: &Trace) -> (f64, u64) {
        steady(|slots| {
            let options = RunOptions {
                slots: None,
                drain: true,
                ..run_options(slots, &FabricSpec::default(), None)
            };
            let packets = trace.packets().to_vec();
            let produce = move |tx| {
                let due = packets.into_iter().take_while(|p| p.arrival < slots);
                feed(tx, StreamCursor::start(), due)
            };
            let mut policy = GreedyMatching::new();
            serve_cioq(cfg.clone(), options, &mut policy, SERVICE_DEPTH, produce)
                .expect("census run");
        })
    }

    pub(super) fn main() {
        let quick = std::env::args().any(|a| a == "--quick");
        let n: usize = if quick { 32 } else { 128 };
        let seed = 0xA110C;

        let cioq_cfg = SwitchConfig::cioq(n, 8, 2);
        let xbar_cfg = SwitchConfig::crossbar(n, 8, 4, 2);

        // One trace per (config, values) pair, at the long horizon; both
        // differential runs consume the same trace so arrival batches and
        // admission patterns are identical through slot N1.
        let churn_unit = FullFabricChurn::new(2, 5, ValueDist::Unit);
        let churn_vals = FullFabricChurn::new(2, 5, ValueDist::Uniform { max: 9 });
        let cioq_unit = gen_trace(&churn_unit, &cioq_cfg, N2, seed);
        let cioq_vals = gen_trace(&churn_vals, &cioq_cfg, N2, seed);
        let xbar_unit = gen_trace(&churn_unit, &xbar_cfg, N2, seed);
        let xbar_vals = gen_trace(&churn_vals, &xbar_cfg, N2, seed);

        let mut rows: Vec<Row> = Vec::new();

        for (fname, link) in &fabrics(n) {
            // Sequential engines, fault-free.
            let cells: [(&str, (f64, u64)); 4] = [
                (
                    "gm",
                    seq_cioq(&cioq_cfg, &cioq_unit, link, None, || {
                        Box::new(GreedyMatching::new())
                    }),
                ),
                (
                    "pg",
                    seq_cioq(&cioq_cfg, &cioq_vals, link, None, || {
                        Box::new(PreemptiveGreedy::new())
                    }),
                ),
                (
                    "cgu",
                    seq_crossbar(&xbar_cfg, &xbar_unit, link, None, || {
                        Box::new(CrossbarGreedyUnit::new())
                    }),
                ),
                (
                    "cpg",
                    seq_crossbar(&xbar_cfg, &xbar_vals, link, None, || {
                        Box::new(CrossbarPreemptiveGreedy::new())
                    }),
                ),
            ];
            for (policy, (steady, raw)) in cells {
                rows.push(Row {
                    policy,
                    engine: "seq".to_string(),
                    fabric: fname,
                    steady,
                    raw,
                });
            }

            // GM partitioned over K shards (CIOQ only), on the same engine.
            let gm = ShardedGm::new();
            for k in [2, 4] {
                let (steady, raw) = seq_cioq(&cioq_cfg, &cioq_unit, link, None, || {
                    Box::new(Partitioned::new(&gm, k, &cioq_cfg))
                });
                rows.push(Row {
                    policy: "gm",
                    engine: format!("sharded-k{k}"),
                    fabric: fname,
                    steady,
                    raw,
                });
            }
        }

        // Faulted sequential pass: the retransmit hold/release machinery
        // must also be allocation-free in steady state. The plan is built
        // over the long horizon and shared by both differential runs.
        let link = FabricSpec::uniform(2);
        let plan = FaultPlan::seeded(0xFA17, n, n, N2, 24);
        let faulted: [(&str, (f64, u64)); 2] = [
            (
                "gm",
                seq_cioq(&cioq_cfg, &cioq_unit, &link, Some(&plan), || {
                    Box::new(GreedyMatching::new())
                }),
            ),
            (
                "pg",
                seq_cioq(&cioq_cfg, &cioq_vals, &link, Some(&plan), || {
                    Box::new(PreemptiveGreedy::new())
                }),
            ),
        ];
        for (policy, (steady, raw)) in faulted {
            rows.push(Row {
                policy,
                engine: "seq+faults".to_string(),
                fabric: "delay-line(2)",
                steady,
                raw,
            });
        }

        // Streamed service cell: the stream hop's buffer ring must be as
        // allocation-free as the slot loop it feeds.
        let svc_n: usize = if quick { 16 } else { n };
        let svc_cfg = SwitchConfig::cioq(svc_n, 8, 2);
        let svc_trace = gen_trace(&churn_unit, &svc_cfg, N2, seed);
        let (steady_svc, raw_svc) = served_cioq(&svc_cfg, &svc_trace);
        rows.push(Row {
            policy: "gm",
            engine: format!("serve-d{SERVICE_DEPTH}-{svc_n}p"),
            fabric: "immediate",
            steady: steady_svc,
            raw: raw_svc,
        });

        // Checkpoint pass (exempt from the zero target, reported): the
        // differential run with a checkpoint cadence minus the fault-free
        // steady cost is the encoder's own traffic per checkpoint.
        let base = seq_cioq(&cioq_cfg, &cioq_unit, &FabricSpec::default(), None, || {
            Box::new(GreedyMatching::new())
        });
        let with_ckpt = steady(|slots| {
            let mut policy = GreedyMatching::new();
            let mut source = TraceSource::new(&cioq_unit);
            let options = RunOptions {
                checkpoint_every: Some(CKPT_EVERY),
                ..run_options(slots, &FabricSpec::default(), None)
            };
            let engine = Engine::try_new(cioq_cfg.clone(), options).expect("valid run options");
            engine
                .run_cioq(&mut policy, &mut source)
                .expect("census run");
        });
        let ckpts_in_window = (N2 - N1) / CKPT_EVERY;
        let per_ckpt = (with_ckpt.1.saturating_sub(base.1)) as f64 / ckpts_in_window.max(1) as f64;

        println!(
            "alloc_census: {n} ports, FullFabricChurn(degree=2), slots {} -> {}",
            N1, N2
        );
        println!();
        println!(
            "{:<6} {:<14} {:<14} {:>14} {:>10}  verdict",
            "policy", "engine", "fabric", "allocs/slot", "raw"
        );
        let mut failures = 0usize;
        for r in &rows {
            let ok = r.raw == 0;
            if !ok {
                failures += 1;
            }
            println!(
                "{:<6} {:<14} {:<14} {:>14.3} {:>10}  {}",
                r.policy,
                r.engine,
                r.fabric,
                r.steady,
                r.raw,
                if ok { "ok" } else { "ALLOC" }
            );
        }
        println!();
        println!(
            "checkpoint encode (exempt): {per_ckpt:.1} allocs per checkpoint \
             (cadence {CKPT_EVERY}, window {ckpts_in_window} checkpoints)"
        );

        if failures > 0 {
            eprintln!("{failures} steady-state cell(s) allocate; the slot loop is not clean");
            std::process::exit(1);
        }
        println!("census clean: 0 steady-state heap allocations per slot in every cell");
    }
}
