//! # cioq-sim
//!
//! Discrete-event simulator for the switch model of §1.3 of the paper:
//! slotted time; each slot runs an **arrival phase**, `ŝ` **scheduling
//! cycles** (the speedup), and a **transmission phase**. Supports both
//! fabric architectures:
//!
//! * **CIOQ** — each scheduling cycle moves a *matching* of packets from
//!   input queues `Q_ij` to output queues `Q_j` (≤1 packet leaves each input
//!   port, ≤1 packet enters each output port).
//! * **Buffered crossbar** — each cycle is an input subphase
//!   (`Q_ij → C_ij`, ≤1 per input port) followed by an output subphase
//!   (`C_ij → Q_j`, ≤1 per output port).
//!
//! Scheduling policies implement [`CioqPolicy`] or [`CrossbarPolicy`] and
//! return *decisions*; the engine owns all mechanics, validates every
//! decision against the model (matching property, capacities, non-empty
//! queues), and maintains exact benefit/loss accounting. An illegal decision
//! is a [`PolicyError`], never silent misbehaviour.
//!
//! Arrivals come from an [`ArrivalSource`]: either a pre-recorded [`Trace`]
//! or an *adaptive adversary* that observes the switch state each slot —
//! exactly the adversary model of competitive analysis.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod changes;
mod engine;
pub mod fault;
pub mod invariants;
mod mechanics;
mod policy;
mod record;
pub mod service;
pub mod shard;
pub mod snapshot;
mod source;
mod state;
mod stats;
pub mod stream;
mod trace;
pub mod transport;

pub use changes::{ChangeLog, DirtySet};
/// The read view every view hands out (`Q_ij`, `C_ij`, `Q_j`), and a
/// queue held on its own.
pub use cioq_queues::{QueueRef, SortedQueue};
pub use engine::{run_cioq, run_cioq_with_source, run_crossbar, Engine, RunOptions, RunOutcome};
pub use fault::{FaultEvent, FaultKind, FaultPlan, FaultScope};
pub use invariants::check_state_invariants;
pub use policy::{
    Admission, CioqPolicy, CrossbarPolicy, InputTransfer, OutputTransfer, PacketPick, PolicyError,
    Transfer, TransmitChoice,
};
pub use record::{CrossbarRecording, RecordedCrossbarSchedule, RecordedSchedule, Recording};
pub use service::{serve_cioq, ServiceError, ServiceOutcome};
pub use shard::{
    run_cioq_sharded, CandidateSet, CioqShardPolicy, CioqShardWorker, ExecMode, MergeContext,
    MergeScratch, Partition, ShardView, ShardedOptions, ShardedOutcome,
};
pub use snapshot::{EngineSnapshot, SnapshotError};
pub use source::{ArrivalSource, TraceSource};
pub use state::{QueueKind, SwitchState, SwitchView};
pub use stats::{LossBreakdown, RunReport, StatsRecorder, WindowSlot, WindowedStats};
pub use stream::{
    channel, channel_at, spawn_producer, stream_reader, stream_reader_from, stream_trace,
    stream_trace_from, StreamClosed, StreamCursor, StreamPump, StreamSender, StreamingSource,
};
pub use trace::{Trace, TraceError, TraceReader};
pub use transport::{FabricSpec, OutputSnapshot};
