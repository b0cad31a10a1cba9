//! Bench-side tracing: wrappers around the simulator's public traits that
//! record a span for every call crossing a layer boundary.
//!
//! A span is `(layer, rep, start, end, items)`; all spans of one rep share
//! its number, and the rep's own span is their parent. Spans stay in
//! memory ([`Sink`]) and are summarised when the pass ends. A rep's *self
//! time* — its span minus its children — is the engine's own share
//! (landing, arrival bucketing, validation of decisions, transfers,
//! stats), reported as a residual rather than hidden.
//!
//! Per-packet `admit` and per-port `transmit` calls are counted, not
//! timed: two clock reads per packet would cost more than the call.

use crate::now_ns;
use cioq_model::{Cycle, Packet, PortId, SlotId, SwitchConfig};
use cioq_sim::{
    Admission, ArrivalSource, CandidateSet, CioqPolicy, CioqShardPolicy, CioqShardWorker,
    CrossbarPolicy, InputTransfer, MergeContext, MergeScratch, OutputSnapshot, OutputTransfer,
    Partition, ShardView, SwitchView, Transfer, TransmitChoice,
};
use std::sync::{Arc, Mutex};

/// The layer boundary a span was recorded at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One complete rep — the parent of every other span of that rep.
    Rep,
    /// `ArrivalSource::arrivals` (`sim.source`; the channel wait on the
    /// service workload).
    Arrivals,
    /// `ArrivalSource::in_arrival_window` (blocks on a streaming source).
    Window,
    /// `CioqPolicy::schedule` / `CrossbarPolicy::schedule_{input,output}`
    /// (`core` policy builders and, beneath them, `matching`).
    Schedule,
    /// `CioqShardWorker::propose` (`core::sharded`, per shard and cycle).
    Propose,
    /// `CioqShardPolicy::merge` (`core::sharded`, per cycle).
    Merge,
}

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Where it was recorded.
    pub layer: Layer,
    /// The rep it belongs to (its parent span).
    pub rep: u32,
    /// Start, in [`now_ns`] time.
    pub start_ns: u64,
    /// End, in [`now_ns`] time.
    pub end_ns: u64,
    /// Useful outcomes of the call: transfers returned by a scheduling or
    /// merge call, packets delivered by an arrivals call.
    pub items: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Everything the traced pass keeps in memory.
#[derive(Debug, Default)]
pub struct TraceLog {
    /// Rep number stamped on new spans.
    pub rep: u32,
    /// All spans, in recording order.
    pub spans: Vec<Span>,
    /// `admit` calls seen (counted, not timed).
    pub admits: u64,
}

/// Shared span store. Traced reps run on one thread (the threaded
/// workload is traced through its inline twin), so the lock is never
/// contended; it exists because shard policies must be `Sync` and their
/// workers `Send + 'static`.
#[derive(Debug, Default)]
pub struct Sink(Mutex<TraceLog>);

impl Sink {
    /// New empty sink, with room for `spans` spans so recording does not
    /// reallocate mid-rep.
    pub fn with_capacity(spans: usize) -> Arc<Self> {
        Arc::new(Sink(Mutex::new(TraceLog {
            spans: Vec::with_capacity(spans),
            ..TraceLog::default()
        })))
    }

    fn log(&self) -> std::sync::MutexGuard<'_, TraceLog> {
        self.0
            .lock()
            .expect("a panic while recording a span is a harness bug")
    }

    /// Record one span in the current rep.
    pub fn record(&self, layer: Layer, start_ns: u64, end_ns: u64, items: usize) {
        let mut log = self.log();
        let rep = log.rep;
        log.spans.push(Span {
            layer,
            rep,
            start_ns,
            end_ns,
            items: items as u32,
        });
    }

    /// Run `f` as rep number `rep`, recording its [`Layer::Rep`] span.
    pub fn rep<T>(&self, rep: u32, f: impl FnOnce() -> T) -> T {
        self.log().rep = rep;
        let start = now_ns();
        let out = f();
        self.record(Layer::Rep, start, now_ns(), 0);
        out
    }

    /// Take the log out, leaving the sink empty.
    pub fn take(&self) -> TraceLog {
        std::mem::take(&mut *self.log())
    }
}

/// A policy, shard policy, shard worker or arrival source with its calls
/// timed into a [`Sink`]. Decisions pass through untouched: a traced run's
/// report, final state and digest equal the untraced run's.
pub struct Traced<T> {
    inner: T,
    sink: Arc<Sink>,
    /// `admit` calls, added to the sink when the wrapper is dropped: a
    /// lock per packet would be most of the tracing overhead.
    admits: u64,
}

impl<T> Drop for Traced<T> {
    fn drop(&mut self) {
        if let Ok(mut log) = self.sink.0.lock() {
            log.admits += self.admits;
        }
    }
}

impl<T> Traced<T> {
    /// Wrap `inner`.
    pub fn new(inner: T, sink: &Arc<Sink>) -> Self {
        Traced {
            inner,
            sink: Arc::clone(sink),
            admits: 0,
        }
    }

    /// The wrapped value.
    pub fn get(&self) -> &T {
        &self.inner
    }

    fn timed<R>(&mut self, layer: Layer, f: impl FnOnce(&mut T) -> (R, usize)) -> R {
        let start = now_ns();
        let (out, items) = f(&mut self.inner);
        self.sink.record(layer, start, now_ns(), items);
        out
    }
}

impl<P: CioqPolicy> CioqPolicy for Traced<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn admit(&mut self, view: &SwitchView<'_>, packet: &Packet) -> Admission {
        self.admits += 1;
        self.inner.admit(view, packet)
    }

    fn schedule(&mut self, view: &SwitchView<'_>, cycle: Cycle, out: &mut Vec<Transfer>) {
        self.timed(Layer::Schedule, |p| {
            p.schedule(view, cycle, out);
            ((), out.len())
        })
    }

    fn transmit(&mut self, view: &SwitchView<'_>, output: PortId) -> TransmitChoice {
        self.inner.transmit(view, output)
    }
}

impl<P: CrossbarPolicy> CrossbarPolicy for Traced<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn admit(&mut self, view: &SwitchView<'_>, packet: &Packet) -> Admission {
        self.admits += 1;
        self.inner.admit(view, packet)
    }

    fn schedule_input(
        &mut self,
        view: &SwitchView<'_>,
        cycle: Cycle,
        out: &mut Vec<InputTransfer>,
    ) {
        self.timed(Layer::Schedule, |p| {
            p.schedule_input(view, cycle, out);
            ((), out.len())
        })
    }

    fn schedule_output(
        &mut self,
        view: &SwitchView<'_>,
        cycle: Cycle,
        out: &mut Vec<OutputTransfer>,
    ) {
        self.timed(Layer::Schedule, |p| {
            p.schedule_output(view, cycle, out);
            ((), out.len())
        })
    }

    fn transmit(&mut self, view: &SwitchView<'_>, output: PortId) -> TransmitChoice {
        self.inner.transmit(view, output)
    }
}

impl<S: ArrivalSource> ArrivalSource for Traced<S> {
    fn arrivals(&mut self, view: &SwitchView<'_>, slot: SlotId, out: &mut Vec<Packet>) {
        self.timed(Layer::Arrivals, |s| {
            let before = out.len();
            s.arrivals(view, slot, out);
            ((), out.len() - before)
        })
    }

    fn horizon(&self) -> Option<SlotId> {
        self.inner.horizon()
    }

    fn in_arrival_window(&mut self, slot: SlotId) -> bool {
        self.timed(Layer::Window, |s| (s.in_arrival_window(slot), 0))
    }
}

impl<P: CioqShardPolicy> CioqShardPolicy for Traced<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn new_worker(
        &self,
        shard: usize,
        partition: &Partition,
        cfg: &SwitchConfig,
    ) -> Box<dyn CioqShardWorker> {
        Box::new(Traced::new(
            self.inner.new_worker(shard, partition, cfg),
            &self.sink,
        ))
    }

    fn merge(&self, ctx: &MergeContext<'_>, scratch: &mut MergeScratch, out: &mut Vec<Transfer>) {
        let start = now_ns();
        self.inner.merge(ctx, scratch, out);
        self.sink.record(Layer::Merge, start, now_ns(), out.len());
    }
}

impl CioqShardWorker for Traced<Box<dyn CioqShardWorker>> {
    fn admit(&mut self, shard: &ShardView<'_>, packet: &Packet) -> Admission {
        self.admits += 1;
        self.inner.admit(shard, packet)
    }

    fn propose(
        &mut self,
        shard: &ShardView<'_>,
        outputs: &OutputSnapshot,
        cycle: Cycle,
        out: &mut CandidateSet,
    ) {
        self.timed(Layer::Propose, |w| {
            w.propose(shard, outputs, cycle, out);
            ((), 0)
        })
    }
}
