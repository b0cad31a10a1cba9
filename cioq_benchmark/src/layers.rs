//! Layer kernels: the public functions of `queues`, `matching`,
//! `sim::snapshot`, `sim::stream` and `Engine::try_new`, timed directly on
//! data taken from the workload (its packet values, its VOQ occupancy, its
//! own checkpoints), so each layer the slot loop touches has a number of
//! its own. Every kernel repeats [`REPEATS`] times and reports the median.

use crate::estimators::median;
use crate::now_ns;
use crate::workloads::{Exec, Inputs, Policy, Spec};
use cioq_core::{GreedyMatching, PreemptiveGreedy};
use cioq_matching::{
    greedy_maximal_cells_into, CachedWeightOrder, CellVisit, GreedyScratch, IncrementalGraph,
    Matching,
};
use cioq_model::{Cycle, Packet, PortId, Value};
use cioq_queues::SortedQueue;
use cioq_sim::{
    stream, Admission, CioqPolicy, Engine, EngineSnapshot, PolicyError, RunOptions, SwitchState,
    SwitchView, TraceSource, Transfer, TransmitChoice,
};
use std::hint::black_box;

/// Repetitions per kernel.
pub const REPEATS: usize = 15;

/// Median over [`REPEATS`] calls of `f`, which returns one measurement.
fn repeat(mut f: impl FnMut() -> f64) -> f64 {
    median(&(0..REPEATS).map(|_| f()).collect::<Vec<_>>())
}

/// Nanoseconds `f` took.
fn ns(f: impl FnOnce()) -> f64 {
    let start = now_ns();
    f();
    (now_ns() - start) as f64
}

/// `SortedQueue` cost per operation, in nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueueCosts {
    /// `insert`.
    pub insert_ns: f64,
    /// `pop_head` (transfer and transmit path).
    pub pop_head_ns: f64,
    /// `pop_tail` (preemption path).
    pub pop_tail_ns: f64,
}

/// Replay `packets` (the workload's own values) through 256 queues of
/// `capacity`: fill them, pop the upper half by head, the rest by tail.
pub fn queue_costs(capacity: usize, packets: &[Packet]) -> QueueCosts {
    const QUEUES: usize = 256;
    let fill = capacity * QUEUES;
    if packets.len() < fill {
        return QueueCosts::default();
    }
    let mut queues: Vec<SortedQueue> = (0..QUEUES).map(|_| SortedQueue::new(capacity)).collect();
    let heads = capacity.div_ceil(2);
    let (mut ins, mut head, mut tail) = (Vec::new(), Vec::new(), Vec::new());
    // One extra unrecorded round first: `SortedQueue` reserves lazily.
    for round in 0..=REPEATS {
        let t_ins = ns(|| {
            for (k, p) in packets[..fill].iter().enumerate() {
                let _ = black_box(queues[k % QUEUES].insert(*p));
            }
        });
        let t_head = ns(|| {
            for q in &mut queues {
                for _ in 0..heads {
                    black_box(q.pop_head());
                }
            }
        });
        let t_tail = ns(|| {
            for q in &mut queues {
                while let Some(p) = q.pop_tail() {
                    black_box(p);
                }
            }
        });
        if round > 0 {
            ins.push(t_ins / fill as f64);
            head.push(t_head / (heads * QUEUES) as f64);
            tail.push(t_tail / ((capacity - heads).max(1) * QUEUES) as f64);
        }
    }
    QueueCosts {
        insert_ns: median(&ins),
        pop_head_ns: median(&head),
        pop_tail_ns: if capacity > heads { median(&tail) } else { 0.0 },
    }
}

/// A CIOQ policy that also counts the non-empty VOQs — the edges of the
/// scheduling graph — at every scheduling call. Untimed census run only.
struct EdgeCensus<P> {
    inner: P,
    calls: u64,
    edges: u64,
}

impl<P: CioqPolicy> CioqPolicy for EdgeCensus<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn admit(&mut self, view: &SwitchView<'_>, packet: &Packet) -> Admission {
        self.inner.admit(view, packet)
    }

    fn schedule(&mut self, view: &SwitchView<'_>, cycle: Cycle, out: &mut Vec<Transfer>) {
        self.calls += 1;
        self.edges += voq_heads(view).count() as u64;
        self.inner.schedule(view, cycle, out)
    }

    fn transmit(&mut self, view: &SwitchView<'_>, output: PortId) -> TransmitChoice {
        self.inner.transmit(view, output)
    }
}

/// `(input, output, head value)` of every non-empty VOQ.
fn voq_heads<'a>(view: &'a SwitchView<'a>) -> impl Iterator<Item = (usize, usize, Value)> + 'a {
    (0..view.n_inputs()).flat_map(move |i| {
        (0..view.n_outputs()).filter_map(move |j| {
            view.input_queue(PortId::from(i), PortId::from(j))
                .head_value()
                .map(|v| (i, j, v))
        })
    })
}

/// `matching` cost per unit of work, in nanoseconds, and the graph
/// density the policy sees.
#[derive(Debug, Clone, Copy, Default)]
pub struct MatchingCosts {
    /// Mean edges (non-empty VOQs) per scheduling call over a whole run.
    pub edges_mean: f64,
    /// `IncrementalGraph::set_edge`.
    pub set_edge_ns: f64,
    /// `CachedWeightOrder::mark` + `repair`, per marked cell, with one
    /// mark per input row (the Θ(N) dirty set of a slot).
    pub repair_ns_per_mark: f64,
    /// `greedy_maximal_cells_into`, per edge of the graph.
    pub greedy_ns_per_edge: f64,
}

/// Run the workload's sequential policy once over its arrival window
/// (census, untimed), then time the matching kernels on the graph of VOQ
/// heads the window ends with. Crossbar workloads have no matching: zeros.
pub fn matching_costs(spec: &Spec, inputs: &Inputs) -> Result<MatchingCosts, String> {
    if spec.policy == Policy::Cpg {
        return Ok(MatchingCosts::default());
    }
    let options = RunOptions {
        slots: Some(spec.arrival_slots),
        drain: false,
        checkpoint_every: None,
        ..spec.run_options(inputs)
    };
    let engine = Engine::try_new(spec.cfg.clone(), options).map_err(|e| e.to_string())?;
    let mut source = TraceSource::new(&inputs.trace);
    let weighted = spec.policy == Policy::Pg;
    let (calls, edges, state) = if weighted {
        census(engine, PreemptiveGreedy::new(), &mut source)
    } else {
        census(engine, GreedyMatching::new(), &mut source)
    }
    .map_err(|e| e.to_string())?;
    let edges_mean = edges as f64 / calls.max(1) as f64;
    let view = state.view();
    let heads: Vec<_> = voq_heads(&view).collect();
    if heads.is_empty() {
        return Ok(MatchingCosts {
            edges_mean,
            ..MatchingCosts::default()
        });
    }
    let (n, m) = (view.n_inputs(), view.n_outputs());
    // A small graph is walked several times per clock read, so that the
    // read itself stays a small share of what is timed.
    let batch = (4096 / heads.len()).max(1);
    let per = |total_ns: f64, units: usize| total_ns / (batch * units) as f64;
    let mut g = IncrementalGraph::new(n, m);
    let set_edge_ns = repeat(|| {
        g.reset(n, m);
        per(
            ns(|| {
                for _ in 0..batch {
                    for &(i, j, w) in &heads {
                        g.set_edge(i, j, w);
                    }
                }
            }),
            heads.len(),
        )
    });
    let mut order = CachedWeightOrder::default();
    order.rebuild(&g);
    let mut shift = 0;
    let repair_ns_per_mark = repeat(|| {
        per(
            ns(|| {
                for _ in 0..batch {
                    shift += 1;
                    for i in 0..n {
                        order.mark(i * m + (i * 5 + shift) % m);
                    }
                    order.repair(&g);
                }
            }),
            n,
        )
    });
    let (mut scratch, mut matching) = (GreedyScratch::default(), Matching::new());
    let greedy_ns_per_edge = repeat(|| {
        let visit = if weighted {
            CellVisit::Ordered(&order)
        } else {
            CellVisit::Lex
        };
        per(
            ns(|| {
                for _ in 0..batch {
                    greedy_maximal_cells_into(
                        &g,
                        visit,
                        |_, _, _| true,
                        &mut scratch,
                        &mut matching,
                    );
                    black_box(&matching);
                }
            }),
            heads.len(),
        )
    });
    Ok(MatchingCosts {
        edges_mean,
        set_edge_ns,
        repair_ns_per_mark,
        greedy_ns_per_edge,
    })
}

/// Run `policy` under an [`EdgeCensus`]: scheduling calls, edges summed
/// over them, and the state the run ends in.
fn census<P: CioqPolicy>(
    engine: Engine,
    policy: P,
    source: &mut TraceSource<'_>,
) -> Result<(u64, u64, SwitchState), PolicyError> {
    let mut census = EdgeCensus {
        inner: policy,
        calls: 0,
        edges: 0,
    };
    let (_, state) = engine.run_cioq_capturing(&mut census, source)?;
    Ok((census.calls, census.edges, state))
}

/// Checkpoint cost in microseconds, and its size.
#[derive(Debug, Clone, Copy, Default)]
pub struct SnapshotCosts {
    /// `EngineSnapshot::to_bytes`.
    pub encode_us: f64,
    /// `EngineSnapshot::from_bytes`.
    pub decode_us: f64,
    /// `Engine::restore`.
    pub restore_us: f64,
    /// Encoded size.
    pub bytes: f64,
}

/// Time the snapshot codec and `Engine::restore` on `snap`, a checkpoint
/// the workload itself took. `options` must be the run's own.
pub fn snapshot_costs(
    snap: &EngineSnapshot,
    options: &RunOptions,
) -> Result<SnapshotCosts, String> {
    let bytes = snap.to_bytes();
    let decoded = EngineSnapshot::from_bytes(&bytes).map_err(|e| e.to_string())?;
    if decoded.to_bytes() != bytes {
        return Err("snapshot decode/encode is not byte-identical".into());
    }
    Engine::restore(snap, options.clone()).map_err(|e| e.to_string())?;
    Ok(SnapshotCosts {
        encode_us: repeat(|| ns(|| drop(black_box(snap.to_bytes())))) / 1e3,
        decode_us: repeat(|| ns(|| drop(black_box(EngineSnapshot::from_bytes(&bytes))))) / 1e3,
        restore_us: repeat(|| {
            let options = options.clone();
            ns(|| {
                black_box(Engine::restore(snap, options).is_ok());
            })
        }) / 1e3,
        bytes: bytes.len() as f64,
    })
}

/// Input generation from the seed (`traffic`, topology) in milliseconds.
pub fn input_gen_ms(spec: &Spec, seed: u64) -> f64 {
    repeat(|| ns(|| drop(black_box(spec.inputs(seed, spec.exec))))) / 1e6
}

/// `Engine::try_new` in microseconds.
pub fn engine_construct_us(spec: &Spec, inputs: &Inputs) -> f64 {
    repeat(|| {
        let (cfg, options) = (spec.cfg.clone(), spec.run_options(inputs));
        ns(|| {
            black_box(Engine::try_new(cfg, options).is_ok());
        })
    }) / 1e3
}

/// The stream hop alone: the workload's own producer, with a consumer
/// that drains the channel and no engine attached. Nanoseconds per slot.
/// A consumer that always outruns the producer turns every slot into a
/// condvar wake-up, so this is the channel's hand-off latency, not a floor
/// under the service rep (whose engine lets batches queue up). Zero off
/// the service row.
pub fn stream_hop_ns_per_slot(spec: &Spec, seed: u64) -> f64 {
    let Exec::Service { depth } = spec.exec else {
        return 0.0;
    };
    repeat(|| {
        let (tx, mut source) = stream::channel(depth);
        let mut batch = Vec::new();
        let mut slot = 0;
        ns(|| {
            let pump = stream::spawn_producer(tx, spec.producer(seed));
            while cioq_sim::ArrivalSource::in_arrival_window(&mut source, slot) {
                batch.clear();
                source.pull(slot, &mut batch);
                black_box(&batch);
                slot += 1;
            }
            drop(source);
            pump.join();
        }) / slot.max(1) as f64
    })
}
