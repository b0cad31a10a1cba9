//! The six workloads, each defined once: configuration, traffic, options,
//! seed → inputs, and how one *rep* (a complete run on pre-built inputs,
//! with a fresh engine and policy, as a sweep pays it) executes.
//!
//! All load is closed-loop: the engine pulls the next slot when it is
//! ready, so a slower simulator receives the same simulated input later.

use crate::trace::{Sink, Traced};
use cioq_core::{CrossbarPreemptiveGreedy, GreedyMatching, PreemptiveGreedy, ShardedGm};
use cioq_model::{Packet, PacketId, SwitchConfig, Topology};
use cioq_sim::{
    run_cioq_sharded, serve_cioq, stream, ArrivalSource, CioqPolicy, CrossbarPolicy, Engine,
    EngineSnapshot, ExecMode, FabricSpec, RunOptions, RunOutcome, RunReport, ShardedOptions,
    StreamSender, SwitchState, Trace, TraceSource,
};
use cioq_traffic::{
    BernoulliUniform, FullFabricChurn, OnOffBursty, SlotGen, TrafficGen, ValueDist,
};
use std::sync::Arc;

/// Workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 6] = [
    "cioq_gm_uniform",
    "cioq_gm_uniform_shard1",
    "cioq_pg_churn",
    "xbar_cpg_bursty",
    "cioq_gm_twotier_shard2",
    "svc_gm_stream",
];

/// Input generator of a workload.
#[derive(Debug, Clone)]
pub enum Traffic {
    /// `BernoulliUniform(load, values)`.
    Bernoulli(f64, ValueDist),
    /// `FullFabricChurn(degree, stride, values)`.
    Churn(usize, usize, ValueDist),
    /// `OnOffBursty(load, mean_burst, values)`.
    Bursty(f64, f64, ValueDist),
}

/// Scheduling policy of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// GM: unweighted greedy maximal matching.
    Gm,
    /// PG: weight-ordered preemptive greedy.
    Pg,
    /// CPG: per-port crossbar decisions, no matching.
    Cpg,
}

/// Which machinery executes a rep. A workload's twin is the same inputs
/// and options under another `Exec`; their report digests must be equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exec {
    /// `Engine::run_cioq` / `Engine::run_crossbar` over a `TraceSource`.
    Sequential,
    /// `run_cioq_sharded` with `ShardedGm`.
    Sharded {
        /// Shard count K.
        shards: usize,
        /// Inline, or `Auto` (threads on any host with two or more cores).
        mode: ExecMode,
    },
    /// `serve_cioq`: a producer thread pushes the slot generator through
    /// a bounded channel of this depth.
    Service {
        /// Channel depth in slot batches.
        depth: usize,
    },
}

/// One workload, fully specified.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload exists (one line).
    pub why: &'static str,
    /// Switch geometry.
    pub cfg: SwitchConfig,
    /// Input generator.
    pub traffic: Traffic,
    /// Slots with arrivals.
    pub arrival_slots: u64,
    /// `true`: drain buffered packets after the arrival window; `false`:
    /// stop at `arrival_slots` (steady state under overload).
    pub drain: bool,
    /// Scheduling policy.
    pub policy: Policy,
    /// How the primary rep executes.
    pub exec: Exec,
    /// The digest-equal alternative execution, run once as a check.
    pub twin: Option<Exec>,
    /// Two-tier fabric `(racks, intra, inter)`; `None` is the immediate
    /// fabric.
    pub two_tier: Option<(usize, u64, u64)>,
    /// `RunOptions::checkpoint_every`.
    pub checkpoint_every: Option<u64>,
    /// `RunOptions::stats_window`.
    pub stats_window: Option<usize>,
}

/// The six workloads. `small` shrinks ports and slots (tests and smoke
/// runs) without changing which code paths run.
pub fn all(small: bool) -> Vec<Spec> {
    let ports = if small { 16 } else { 128 };
    let scale = |slots: u64| if small { slots / 8 } else { slots };
    let zipf = |max, exponent| ValueDist::Zipf { max, exponent };
    let base = Spec {
        name: "",
        why: "",
        cfg: SwitchConfig::cioq(ports, 8, 2),
        traffic: Traffic::Bernoulli(0.9, zipf(64, 1.1)),
        arrival_slots: scale(512),
        drain: true,
        policy: Policy::Gm,
        exec: Exec::Sequential,
        twin: None,
        two_tier: None,
        checkpoint_every: None,
        stats_window: None,
    };
    let churn = Spec {
        cfg: SwitchConfig::cioq(ports, 4, 1),
        traffic: Traffic::Churn(3, 5, zipf(64, 1.1)),
        arrival_slots: scale(256),
        drain: false,
        ..base.clone()
    };
    vec![
        Spec {
            name: NAMES[0],
            why: "sparse graph, narrow dirty sets: sequential engine mechanics, ChangeLog and queues dominate, matching is small",
            ..base.clone()
        },
        Spec {
            name: NAMES[1],
            why: "same trace and policy through the phase-structured engine at K=1 inline: its gap to row 1 is what one-engine must close",
            exec: Exec::Sharded {
                shards: 1,
                mode: ExecMode::Inline,
            },
            twin: Some(Exec::Sequential),
            ..base.clone()
        },
        Spec {
            name: NAMES[2],
            why: "all N*M edges live, Theta(N) dirty per slot, B=4 at 3x overload: weight-order repair, weighted greedy and PG preemption dominate",
            policy: Policy::Pg,
            ..churn.clone()
        },
        Spec {
            name: NAMES[3],
            why: "crossbar policy decides per port with no matching at all: the bypass row for matching changes, the row for cpg and the crosspoint grid",
            cfg: SwitchConfig::crossbar(ports, 8, 2, 2),
            traffic: Traffic::Bursty(0.8, 10.0, zipf(32, 1.0)),
            arrival_slots: scale(256),
            policy: Policy::Cpg,
            ..base.clone()
        },
        Spec {
            name: NAMES[4],
            why: "K=2 under ExecMode::Auto on a two-tier fabric: barrier crossings, mailboxes and per-pair rings do the work, the sequential engine none",
            exec: Exec::Sharded {
                shards: 2,
                mode: ExecMode::Auto,
            },
            twin: Some(Exec::Sharded {
                shards: 2,
                mode: ExecMode::Inline,
            }),
            two_tier: Some((2, 0, 4)),
            ..churn
        },
        Spec {
            name: NAMES[5],
            why: "16-port fabric fed by a producer thread with checkpoints: per-slot fixed cost, the stream hop and snapshot encode dominate",
            cfg: SwitchConfig::cioq(16, 8, 2),
            traffic: Traffic::Bernoulli(
                0.8,
                ValueDist::Bimodal {
                    high: 40,
                    p_high: 0.2,
                },
            ),
            arrival_slots: scale(4096),
            exec: Exec::Service { depth: 4 },
            twin: Some(Exec::Sequential),
            checkpoint_every: Some(scale(1024)),
            stats_window: Some(64),
            ..base
        },
    ]
}

/// Look a workload up by name.
pub fn by_name(name: &str, small: bool) -> Option<Spec> {
    all(small).into_iter().find(|s| s.name == name)
}

/// Everything a rep needs that derives from the seed.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The workload seed.
    pub seed: u64,
    /// The materialised trace (empty for a service run, which generates
    /// slot by slot on the producer thread).
    pub trace: Trace,
    /// Resolved fabric transport.
    pub fabric: FabricSpec,
}

impl Inputs {
    /// No trace, the immediate fabric: what a lane holds before its first
    /// set-up, so that building the inputs is measured from nothing.
    pub fn empty(seed: u64) -> Inputs {
        Inputs {
            seed,
            trace: Trace::from_tuples([]),
            fabric: FabricSpec::default(),
        }
    }
}

impl Spec {
    /// Build the inputs of `exec` from `seed`: trace generation, topology.
    pub fn inputs(&self, seed: u64, exec: Exec) -> Inputs {
        let generate = |gen: &dyn TrafficGen| gen.generate(&self.cfg, self.arrival_slots, seed);
        let trace = match (&self.traffic, exec) {
            (_, Exec::Service { .. }) => Trace::from_tuples([]),
            (Traffic::Bernoulli(load, v), _) => generate(&BernoulliUniform::new(*load, v.clone())),
            (Traffic::Churn(degree, stride, v), _) => {
                generate(&FullFabricChurn::new(*degree, *stride, v.clone()))
            }
            (Traffic::Bursty(load, burst, v), _) => {
                generate(&OnOffBursty::new(*load, *burst, v.clone()))
            }
        };
        let fabric = match self.two_tier {
            Some((racks, intra, inter)) => FabricSpec::matrix(
                Topology::two_tier(self.cfg.n_inputs, self.cfg.n_outputs, racks, intra, inter)
                    .expect("workload topology is valid by construction"),
            ),
            None => FabricSpec::default(),
        };
        Inputs {
            seed,
            trace,
            fabric,
        }
    }

    /// Options of a sequential or service rep.
    pub fn run_options(&self, inputs: &Inputs) -> RunOptions {
        RunOptions {
            slots: (!self.drain).then_some(self.arrival_slots),
            drain: self.drain,
            validate: false,
            fabric: inputs.fabric.clone(),
            checkpoint_every: self.checkpoint_every,
            stats_window: self.stats_window,
            faults: None,
        }
    }

    fn sharded_options(
        &self,
        inputs: &Inputs,
        shards: usize,
        mode: ExecMode,
        capture: bool,
    ) -> ShardedOptions {
        ShardedOptions {
            mode,
            slots: (!self.drain).then_some(self.arrival_slots),
            drain: self.drain,
            capture_final_state: capture,
            fabric: inputs.fabric.clone(),
            checkpoint_every: self.checkpoint_every,
            ..ShardedOptions::new(shards)
        }
    }

    /// The service producer: pushes the slot form of the generator with
    /// `send_reusing`, numbering packets in emission order (the
    /// `Trace::from_tuples` numbering, so the trace-fed twin sees the
    /// same σ).
    pub fn producer(&self, seed: u64) -> impl FnOnce(StreamSender) + Send + 'static {
        let Traffic::Bernoulli(load, values) = &self.traffic else {
            panic!("service workloads stream a Bernoulli slot generator");
        };
        let mut gen = BernoulliUniform::new(*load, values.clone()).slots(seed);
        let (cfg, slots) = (self.cfg.clone(), self.arrival_slots);
        move |tx| {
            let (mut tuples, mut batch, mut next_id) = (Vec::new(), Vec::new(), 0u64);
            for slot in 0..slots {
                tuples.clear();
                gen.fill_slot(&cfg, slot, &mut tuples);
                for &(i, j, v) in &tuples {
                    batch.push(Packet::new(PacketId(next_id), v, slot, i, j));
                    next_id += 1;
                }
                if tx.send_reusing(slot, &mut batch).is_err() {
                    return;
                }
            }
        }
    }
}

/// What one rep produced.
#[derive(Debug)]
pub struct Outcome {
    /// The run report (digest input).
    pub report: RunReport,
    /// Final switch state, when capture was requested.
    pub final_state: Option<SwitchState>,
    /// Checkpoints the `checkpoint_every` option collected.
    pub checkpoints: Vec<EngineSnapshot>,
    /// Producer stalls on the bounded channel (service runs).
    pub stalls: u64,
}

impl Outcome {
    fn of_report(report: RunReport) -> Self {
        Outcome {
            report,
            final_state: None,
            checkpoints: Vec::new(),
            stalls: 0,
        }
    }

    fn of_run(out: RunOutcome, stalls: u64) -> Self {
        Outcome {
            report: out.report,
            final_state: Some(out.final_state),
            checkpoints: out.checkpoints,
            stalls,
        }
    }
}

/// FNV-1a over the `Debug` rendering of the full report: every counter,
/// histogram bucket and window entry. Two runs with equal digests
/// simulated the same thing.
pub fn digest(report: &RunReport) -> u64 {
    format!("{report:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// Run one rep of `spec` on `inputs` under `exec`.
///
/// `capture` additionally returns the final state and checkpoints (the
/// timed reps leave it off and call the plain `run_cioq` / `run_crossbar`
/// entry points a sweep would). With a `sink`, the policy and the arrival
/// source run inside [`Traced`] wrappers.
pub fn run(
    spec: &Spec,
    inputs: &Inputs,
    exec: Exec,
    capture: bool,
    sink: Option<&Arc<Sink>>,
) -> Result<Outcome, String> {
    let err = |e: &dyn std::fmt::Display| format!("{}: {e}", spec.name);
    match exec {
        Exec::Sequential => {
            let engine =
                Engine::try_new(spec.cfg.clone(), spec.run_options(inputs)).map_err(|e| err(&e))?;
            let source = TraceSource::new(&inputs.trace);
            match spec.policy {
                Policy::Gm => sequential_cioq(engine, GreedyMatching::new(), source, capture, sink),
                Policy::Pg => {
                    sequential_cioq(engine, PreemptiveGreedy::new(), source, capture, sink)
                }
                Policy::Cpg => sequential_crossbar(
                    engine,
                    CrossbarPreemptiveGreedy::new(),
                    source,
                    capture,
                    sink,
                ),
            }
            .map_err(|e| err(&e))
        }
        Exec::Sharded { shards, mode } => {
            assert!(spec.policy == Policy::Gm, "sharded workloads run ShardedGm");
            let options = spec.sharded_options(inputs, shards, mode, capture);
            let out = match sink {
                Some(sink) => run_cioq_sharded(
                    &spec.cfg,
                    &Traced::new(ShardedGm::new(), sink),
                    &inputs.trace,
                    options,
                ),
                None => run_cioq_sharded(&spec.cfg, &ShardedGm::new(), &inputs.trace, options),
            }
            .map_err(|e| err(&e))?;
            Ok(Outcome {
                report: out.report,
                final_state: out.final_state,
                checkpoints: out.checkpoints,
                stalls: 0,
            })
        }
        Exec::Service { depth } => {
            assert!(
                spec.policy == Policy::Gm,
                "service workloads run GreedyMatching"
            );
            let (cfg, options) = (spec.cfg.clone(), spec.run_options(inputs));
            let produce = spec.producer(inputs.seed);
            let Some(sink) = sink else {
                let out = serve_cioq(cfg, options, &mut GreedyMatching::new(), depth, produce)
                    .map_err(|e| err(&e))?;
                return Ok(Outcome::of_run(out.outcome, out.stalls));
            };
            // `serve_cioq` owns its source, so the traced rep spells out
            // the same steps around a wrapped one.
            let engine = Engine::try_new(cfg, options).map_err(|e| err(&e))?;
            let (tx, source) = stream::channel(depth);
            let pump = stream::spawn_producer(tx, produce);
            let mut source = Traced::new(source, sink);
            let result =
                engine.run_cioq_full(&mut Traced::new(GreedyMatching::new(), sink), &mut source);
            let stalls = source.get().stalls();
            drop(source);
            pump.join();
            Ok(Outcome::of_run(result.map_err(|e| err(&e))?, stalls))
        }
    }
}

fn sequential_cioq<P: CioqPolicy>(
    engine: Engine,
    mut policy: P,
    mut source: TraceSource<'_>,
    capture: bool,
    sink: Option<&Arc<Sink>>,
) -> Result<Outcome, cioq_sim::PolicyError> {
    fn go<P: CioqPolicy>(
        engine: Engine,
        policy: &mut P,
        source: &mut dyn ArrivalSource,
        capture: bool,
    ) -> Result<Outcome, cioq_sim::PolicyError> {
        if capture {
            Ok(Outcome::of_run(engine.run_cioq_full(policy, source)?, 0))
        } else {
            Ok(Outcome::of_report(engine.run_cioq(policy, source)?))
        }
    }
    match sink {
        Some(sink) => go(
            engine,
            &mut Traced::new(policy, sink),
            &mut Traced::new(source, sink),
            capture,
        ),
        None => go(engine, &mut policy, &mut source, capture),
    }
}

fn sequential_crossbar<P: CrossbarPolicy>(
    engine: Engine,
    mut policy: P,
    mut source: TraceSource<'_>,
    capture: bool,
    sink: Option<&Arc<Sink>>,
) -> Result<Outcome, cioq_sim::PolicyError> {
    fn go<P: CrossbarPolicy>(
        engine: Engine,
        policy: &mut P,
        source: &mut dyn ArrivalSource,
        capture: bool,
    ) -> Result<Outcome, cioq_sim::PolicyError> {
        if capture {
            Ok(Outcome::of_run(
                engine.run_crossbar_full(policy, source)?,
                0,
            ))
        } else {
            Ok(Outcome::of_report(engine.run_crossbar(policy, source)?))
        }
    }
    match sink {
        Some(sink) => go(
            engine,
            &mut Traced::new(policy, sink),
            &mut Traced::new(source, sink),
            capture,
        ),
        None => go(engine, &mut policy, &mut source, capture),
    }
}
