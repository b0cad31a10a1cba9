//! Service-mode daemon glue: run the engine against a live, push-fed
//! arrival stream instead of a pre-materialised [`crate::Trace`].
//!
//! One call wires the whole seam: it opens a bounded streaming channel
//! (see [`crate::stream`]), spawns the caller's producer on a feeder
//! thread, runs the engine until the producer closes the stream, drains
//! in-flight/calendar state (the usual drain loop — the arrival window
//! simply ends when the stream closes), and joins the feeder so producer
//! panics surface instead of vanishing. Checkpoints interleave with live
//! ingestion via the ordinary `checkpoint_every` option; to resume,
//! [`Engine::restore`] the checkpoint and re-attach a stream at its
//! [`crate::EngineSnapshot::stream_cursor`] ([`stream::channel_at`]).
//!
//! Backpressure is the channel's: a producer that outruns the switch
//! blocks on the bounded buffer (stall counted, nothing dropped) and the
//! run's transcript is independent of the channel depth.

use crate::engine::{Engine, RunOptions, RunOutcome};
use crate::policy::{CioqPolicy, PolicyError};
use crate::stream::{self, StreamSender};
use cioq_model::{ConfigError, SwitchConfig};

/// Errors a service run can surface.
#[derive(Debug)]
pub enum ServiceError {
    /// The run options were invalid.
    Config(ConfigError),
    /// The policy made an illegal decision mid-run.
    Policy(PolicyError),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Config(e) => write!(f, "service config: {e}"),
            ServiceError::Policy(e) => write!(f, "service run: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// What a service run produced: the ordinary [`RunOutcome`] plus the
/// backpressure stall count (diagnostic only — stalls never influence
/// the transcript).
#[derive(Debug)]
pub struct ServiceOutcome {
    /// Report, final state and collected checkpoints.
    pub outcome: RunOutcome,
    /// Times the producer blocked on the bounded buffer.
    pub stalls: u64,
}

/// Serve a CIOQ policy from a live stream: `produce` runs on a feeder
/// thread and pushes slot batches through the [`StreamSender`]; the run
/// ends (and drains) when it returns or drops the sender. `depth` bounds
/// the channel buffer.
pub fn serve_cioq<P, F>(
    config: SwitchConfig,
    options: RunOptions,
    policy: &mut P,
    depth: usize,
    produce: F,
) -> Result<ServiceOutcome, ServiceError>
where
    P: CioqPolicy + ?Sized,
    F: FnOnce(StreamSender) + Send + 'static,
{
    let engine = Engine::try_new(config, options).map_err(ServiceError::Config)?;
    let (tx, mut source) = stream::channel(depth);
    let pump = stream::spawn_producer(tx, produce);
    let result = engine.run_cioq_full(policy, &mut source);
    let stalls = source.stalls();
    // Drop the consumer before joining: if the run errored mid-stream the
    // producer may be blocked in `send`, and the hangup unblocks it.
    drop(source);
    pump.join();
    let outcome = result.map_err(ServiceError::Policy)?;
    Ok(ServiceOutcome { outcome, stalls })
}
