//! The sequential slot engine: executes slots phase by phase, validating
//! every policy decision against the model of §1.3.
//!
//! §1.3 defines one slot — arrival phase, ŝ scheduling cycles,
//! transmission phase — for both architectures; a buffered crossbar
//! differs from a CIOQ switch only *inside* the cycle (an input and an
//! output subphase in place of one matching). The file is laid out the
//! same way: one slot loop, [`Engine::run`], which owns the arrival
//! window, drain cutoff, checkpoint cadence, fault release, landing,
//! arrivals, the transmit sweep, the audit and the stats window; and the
//! private [`Arch`] trait, the only place that knows which architecture is
//! running, whose two impls wrap a [`CioqPolicy`] and a [`CrossbarPolicy`].
//! The queues, and every rule that moves a packet into or out of one, are
//! the [`SwitchState`]'s `QueueBand`; beside it the engine holds the delay
//! line, one [`DelayCalendar`] landed by [`transport::land`], the books,
//! one [`StatsRecorder`], the fault layer and the stats window, and hands
//! policies the output side as an [`OutputSnapshot`](crate::OutputSnapshot)
//! refreshed at the top of every scheduling cycle. This is the only slot
//! loop: a scheduler that splits a cycle into per-shard proposals and a
//! merge (`run_cioq_sharded`) is a [`CioqPolicy`] adapter that runs on it.

use crate::fault::{FaultKind, FaultPlan, FaultRuntime};
use crate::invariants::{check_conservation, check_state_invariants};
use crate::mechanics::{self, PortStamps};
use crate::policy::{
    Admission, CioqPolicy, CrossbarPolicy, InputTransfer, OutputTransfer, PolicyError, Transfer,
    TransmitChoice,
};
use crate::snapshot::{EngineSnapshot, SnapLanding, SnapshotError};
use crate::source::{ArrivalSource, TraceSource};
use crate::state::{SwitchState, SwitchView};
use crate::stats::{RunReport, StatsRecorder, WindowedStats};
use crate::trace::Trace;
use crate::transport::{self, DelayCalendar, FabricSpec, InFlightPacket, Landing};
use cioq_model::{ConfigError, Cycle, Packet, PortId, SlotId, SwitchConfig, Value};

/// Options controlling a run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Arrival slots to simulate; defaults to the source's horizon.
    pub slots: Option<SlotId>,
    /// After the arrival slots, keep running (arrival-free) slots until the
    /// switch is empty or no progress is made, so buffered packets can
    /// drain. On for benefit comparisons; off for steady-state studies.
    pub drain: bool,
    /// Run full structural invariant checks after every phase (slow; meant
    /// for tests).
    pub validate: bool,
    /// Fabric transport: per-pair latencies between dispatch and landing
    /// (see [`crate::transport`]). The default, `FabricSpec::uniform(0)`,
    /// is the paper's same-cycle fabric.
    pub fabric: FabricSpec,
    /// Take an [`EngineSnapshot`] at the top of every slot `k` with
    /// `k > 0 && k % n == 0` (before that slot's fault releases, landings
    /// and arrivals). Collected snapshots come back through
    /// [`Engine::run_cioq_full`] / [`Engine::run_crossbar_full`].
    pub checkpoint_every: Option<SlotId>,
    /// Maintain an O(window) sliding per-slot stats window alongside the
    /// cumulative recorder (see [`WindowedStats`]); `None` keeps the
    /// full-history default.
    pub stats_window: Option<usize>,
    /// Deterministic fault schedule layered onto the fabric transport
    /// (latency spikes, link-down windows with bounded retransmit queues).
    /// `None` is the fault-free fabric of the paper.
    pub faults: Option<FaultPlan>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            slots: None,
            drain: true,
            validate: cfg!(debug_assertions),
            fabric: FabricSpec::default(),
            checkpoint_every: None,
            stats_window: None,
            faults: None,
        }
    }
}

impl RunOptions {
    /// Check the options themselves for nonsense values, so misconfigured
    /// runs fail at construction with a [`ConfigError`] instead of
    /// asserting deep inside the run (a `stats_window` of 0 used to abort
    /// in `WindowedStats::new`).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.stats_window == Some(0) {
            return Err(ConfigError::ZeroStatsWindow);
        }
        if self.checkpoint_every == Some(0) {
            return Err(ConfigError::ZeroCheckpointCadence);
        }
        Ok(())
    }

    /// Calendar horizon a run under these options needs: the largest pair
    /// latency plus the worst fault-induced extra, at least 1 when
    /// link-down retransmits can occur (a released packet always rides the
    /// calendar at delay ≥ 1).
    fn horizon(&self) -> SlotId {
        let mut horizon =
            self.fabric.max_delay() + self.faults.as_ref().map_or(0, |p| p.max_extra());
        if self.faults.as_ref().is_some_and(|p| p.has_link_down()) {
            horizon = horizon.max(1);
        }
        horizon
    }
}

/// Everything a run produces: the report, the final switch state
/// (equivalence tests compare it queue for queue), and the checkpoints the
/// `checkpoint_every` option collected.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// End-of-run statistics.
    pub report: RunReport,
    /// The switch state the run ended in.
    pub final_state: SwitchState,
    /// Snapshots taken at every `checkpoint_every` boundary, in slot order.
    pub checkpoints: Vec<EngineSnapshot>,
}

/// Reusable engine: owns the switch state, stats, and all scratch buffers.
/// One `Engine` runs one simulation; construct a new one per run (cheap).
pub struct Engine {
    state: SwitchState,
    stats: StatsRecorder,
    options: RunOptions,
    /// Per-pair delays (clone of `options.fabric`, kept hot for the
    /// per-transfer lookup).
    spec: FabricSpec,
    /// The delay line: one bucket that stays empty when every pair is
    /// immediate and no fault plan needs more.
    calendar: DelayCalendar,
    /// Fault-injection state (`None` = fault-free run).
    faults: Option<FaultRuntime>,
    /// Sliding per-slot stats window, when enabled.
    window: Option<WindowedStats>,
    /// Slot the run (re)starts at: 0 fresh, the checkpoint slot restored.
    start_slot: SlotId,
    /// No-progress streak entering `start_slot` (drain cutoff state).
    start_idle: u32,
    /// Snapshots collected by the `checkpoint_every` option, in slot order.
    checkpoints: Vec<EngineSnapshot>,
    // Scratch (reused every slot — the hot path never allocates).
    arrivals: Vec<Packet>,
    ports: PortStamps,
    /// The landing phase's gather buffer.
    landing: Vec<Landing>,
}

/// Largest retransmit FIFO any link-down window in `faults` allows on a
/// single pair (0 without faults): the per-pair burst a release slot can
/// add on top of regular dispatch traffic.
fn max_retransmit_cap(faults: Option<&FaultPlan>) -> usize {
    faults.map_or(0, |p| {
        p.events()
            .iter()
            .filter_map(|e| match e.kind {
                FaultKind::LinkDown { retransmit_cap } => Some(retransmit_cap),
                FaultKind::LatencySpike { .. } => None,
            })
            .max()
            .unwrap_or(0)
    })
}

/// Hard occupancy bound of one calendar bucket. A bucket holds every
/// landing due at one slot; with heterogeneous pair delays those can be
/// dispatched from up to `horizon` distinct source slots, each
/// contributing the transfers of `speedup` cycles — plus, on a faulted
/// run, a worst-case simultaneous release of every pair's retransmit FIFO
/// into the same landing slot. A CIOQ cycle is a matching, at most
/// `min(N, M)` transfers; a crossbar's output subphase is not: every
/// output may take a packet, so up to `M`. An immediate fabric (`horizon`
/// 0) never puts a packet on the calendar, so it reserves nothing. The
/// engine sizes its calendar and landing gather by it.
fn per_bucket_bound(config: &SwitchConfig, horizon: SlotId, faults: Option<&FaultPlan>) -> usize {
    if horizon == 0 {
        return 0;
    }
    let ports = match config.crossbar_capacity {
        Some(_) => config.n_outputs,
        None => config.n_inputs.min(config.n_outputs),
    };
    let cap = max_retransmit_cap(faults);
    ports * config.speedup.max(1) as usize * horizon.max(1) as usize
        + config.n_inputs * config.n_outputs * cap
}

impl Engine {
    /// New engine for one run of `config` under `options`. Panics on
    /// invalid options; use [`Engine::try_new`] to surface the
    /// [`ConfigError`] instead.
    pub fn new(config: SwitchConfig, options: RunOptions) -> Self {
        Self::try_new(config, options).unwrap_or_else(|e| panic!("invalid run options: {e}"))
    }

    /// New engine for one run of `config` under `options`, validating the
    /// options first (e.g. a zero-slot stats window or checkpoint cadence
    /// is [`ConfigError`], not a panic mid-run). Every queue's storage is
    /// reserved here; a reservation the host cannot satisfy is
    /// [`ConfigError::QueueReserve`], not an allocation abort.
    pub fn try_new(config: SwitchConfig, options: RunOptions) -> Result<Self, ConfigError> {
        options.validate()?;
        Self::fresh(config, options)
    }

    /// A fresh engine at slot 0 under already-validated options, or the
    /// queue reservation that failed.
    fn fresh(config: SwitchConfig, options: RunOptions) -> Result<Self, ConfigError> {
        let n_outputs = config.n_outputs;
        let n_inputs = config.n_inputs;
        let spec = options.fabric.clone();
        spec.assert_covers(&config);
        let horizon = options.horizon();
        let faults = options
            .faults
            .clone()
            .map(|p| FaultRuntime::new(p, n_inputs, n_outputs));
        let window = options.stats_window.map(WindowedStats::new);
        // Per-slot dispatch bound: one transfer per output per cycle,
        // `speedup` cycles per slot, plus the worst single-slot retransmit
        // release a fault plan can produce — pre-reserving it keeps the
        // slot loop from ever growing a calendar bucket or the landing
        // gather.
        let per_bucket = per_bucket_bound(&config, horizon, options.faults.as_ref());
        Ok(Engine {
            state: SwitchState::try_new(config)?,
            stats: StatsRecorder::new(n_outputs),
            options,
            spec,
            calendar: DelayCalendar::with_reserve(horizon, per_bucket),
            faults,
            window,
            start_slot: 0,
            start_idle: 0,
            checkpoints: Vec::new(),
            arrivals: Vec::new(),
            ports: PortStamps::default(),
            landing: Vec::with_capacity(per_bucket),
        })
    }

    /// Rebuild an engine from a checkpoint so the run continues exactly
    /// where [`Engine::snapshot`] (or `checkpoint_every`) captured it:
    /// driven by the same trace (resume the source with
    /// [`TraceSource::resume_at`]) and options, the continuation is
    /// byte-identical to the uninterrupted run.
    ///
    /// `options` must describe the same fabric the snapshot was taken
    /// under, and must supply a fault plan if the snapshot holds
    /// fault-retransmit packets; anything else is
    /// [`SnapshotError::Incompatible`]. Malformed snapshots (queue
    /// overflow, out-of-range ports, a landing no run under these options
    /// could have in flight) are [`SnapshotError::Format`].
    ///
    /// The switch itself — geometry, speedup, capacities — is rebuilt from
    /// [`EngineSnapshot::config`], which restore has no second copy to
    /// doubt: a caller loading bytes it did not write compares that config
    /// with the one it means to run first. No other number in the snapshot
    /// sizes a reservation, and a queue reservation the host cannot
    /// satisfy is [`SnapshotError::Incompatible`], not an allocation abort.
    pub fn restore(snap: &EngineSnapshot, options: RunOptions) -> Result<Self, SnapshotError> {
        options
            .validate()
            .map_err(|e| SnapshotError::Incompatible(format!("invalid run options: {e}")))?;
        let config = snap.config.clone();
        let (n_inputs, n_outputs) = (config.n_inputs, config.n_outputs);
        if options.fabric != snap.fabric {
            return Err(SnapshotError::Incompatible(format!(
                "snapshot was taken under fabric `{}` but options carry `{}`",
                snap.fabric.label(),
                options.fabric.label()
            )));
        }
        if let Some(t) = options.fabric.topology() {
            if t.n_inputs() != n_inputs || t.n_outputs() != n_outputs {
                return Err(SnapshotError::Incompatible(format!(
                    "topology covers {}x{} ports but the switch is {n_inputs}x{n_outputs}",
                    t.n_inputs(),
                    t.n_outputs()
                )));
            }
        }
        if !snap.held.is_empty() && options.faults.is_none() {
            return Err(SnapshotError::Incompatible(
                "snapshot holds fault-retransmit packets but no fault plan was supplied".into(),
            ));
        }
        if snap.stats.per_output_transmitted.len() != n_outputs {
            return Err(SnapshotError::Format(
                "per-output stats do not match the switch geometry".into(),
            ));
        }
        if snap.input_queues.len() != n_inputs * n_outputs
            || snap.output_queues.len() != n_outputs
            || snap
                .crossbar_queues
                .as_ref()
                .is_some_and(|qs| qs.len() != n_inputs * n_outputs)
            || snap.crossbar_queues.is_some() != config.crossbar_capacity.is_some()
        {
            return Err(SnapshotError::Format(
                "queue layout does not match the switch geometry".into(),
            ));
        }

        // A fresh engine under the same options, then refilled: restoring
        // sizes the calendar and the fault layer exactly as construction
        // does.
        let mut engine =
            Self::fresh(config, options).map_err(|e| SnapshotError::Incompatible(e.to_string()))?;
        let state = &mut engine.state;
        state.band.refill(snap)?;
        state.slot = snap.slot;

        let fault_horizon = engine
            .options
            .faults
            .is_some()
            .then(|| engine.options.horizon());
        for l in &snap.landings {
            snap.check_landing(l, fault_horizon)?;
            engine.calendar.insert_pending(l.land_slot, l.landing);
        }
        for (i, j, preempt, packet) in &snap.held {
            if *i as usize >= n_inputs || *j as usize >= n_outputs {
                return Err(SnapshotError::Format(format!(
                    "held packet on pair ({i} -> {j}) outside a {n_inputs}x{n_outputs} switch"
                )));
            }
            let rt = engine
                .faults
                .as_mut()
                .expect("held implies a plan, checked above");
            rt.hold(*i, *j, *preempt, *packet);
        }

        engine.stats = snap.stats.clone();
        match (&snap.window, engine.options.stats_window) {
            (Some((w, _)), Some(opt)) if opt != *w => {
                return Err(SnapshotError::Incompatible(format!(
                    "snapshot carries a {w}-slot stats window but options ask for {opt}"
                )));
            }
            (Some((w, entries)), opt) => {
                let window =
                    WindowedStats::from_parts(*w, entries.clone(), &engine.stats, opt.is_some());
                engine.window = Some(window.map_err(SnapshotError::Format)?);
            }
            // No window in the snapshot: the fresh one the options ask for.
            (None, _) => {}
        }
        crate::invariants::check_restored_residual(engine.residual(), snap)
            .map_err(SnapshotError::Format)?;
        engine.start_slot = snap.slot;
        engine.start_idle = snap.idle_slots;
        Ok(engine)
    }

    /// Capture the engine's complete state at the slot boundary it
    /// currently sits at (fresh, just restored, or between runs).
    /// Restoring the result reproduces this engine exactly; in particular
    /// `Engine::restore(&e.snapshot(), opts).snapshot()` is byte-identical.
    pub fn snapshot(&self) -> EngineSnapshot {
        self.capture(self.start_idle)
    }

    /// Build a snapshot of the current slot boundary with the given
    /// no-progress streak (the loop's live `idle_slots` when
    /// checkpointing mid-run).
    fn capture(&self, idle_slots: u32) -> EngineSnapshot {
        let landings = SnapLanding::pending(self.state.slot, &self.calendar);
        let mut held = Vec::new();
        if let Some(f) = &self.faults {
            f.for_each_held(|i, j, preempt, p| held.push((i, j, preempt, *p)));
        }
        let (residual_count, residual_value) = self.residual();
        let mut snap = EngineSnapshot {
            config: self.state.config().clone(),
            fabric: self.spec.clone(),
            slot: self.state.slot(),
            idle_slots,
            input_queues: Vec::new(),
            crossbar_queues: None,
            output_queues: Vec::new(),
            landings,
            held,
            stats: self.stats.clone(),
            window: self
                .window
                .as_ref()
                .map(|w| (w.window(), w.entries().copied().collect())),
            residual_count,
            residual_value,
        };
        self.state.band.cells_out(&mut snap);
        snap
    }

    /// Run a CIOQ policy against an arrival source.
    pub fn run_cioq<P: CioqPolicy + ?Sized>(
        self,
        policy: &mut P,
        source: &mut dyn ArrivalSource,
    ) -> Result<RunReport, PolicyError> {
        Ok(self.run_cioq_full(policy, source)?.report)
    }

    /// Like [`Engine::run_cioq`], additionally returning the final switch
    /// state (equivalence tests compare it queue for queue).
    pub fn run_cioq_capturing<P: CioqPolicy + ?Sized>(
        self,
        policy: &mut P,
        source: &mut dyn ArrivalSource,
    ) -> Result<(RunReport, SwitchState), PolicyError> {
        let outcome = self.run_cioq_full(policy, source)?;
        Ok((outcome.report, outcome.final_state))
    }

    /// Like [`Engine::run_cioq`], returning the report, final state and
    /// every checkpoint the `checkpoint_every` option collected.
    pub fn run_cioq_full<P: CioqPolicy + ?Sized>(
        self,
        policy: &mut P,
        source: &mut dyn ArrivalSource,
    ) -> Result<RunOutcome, PolicyError> {
        let arch = Cioq {
            policy,
            transfers: Vec::new(),
        };
        self.run(arch, source)
    }

    /// Run a buffered-crossbar policy against an arrival source.
    pub fn run_crossbar<P: CrossbarPolicy + ?Sized>(
        self,
        policy: &mut P,
        source: &mut dyn ArrivalSource,
    ) -> Result<RunReport, PolicyError> {
        Ok(self.run_crossbar_full(policy, source)?.report)
    }

    /// Like [`Engine::run_crossbar`], returning the report, final state
    /// and every checkpoint the `checkpoint_every` option collected.
    pub fn run_crossbar_full<P: CrossbarPolicy + ?Sized>(
        self,
        policy: &mut P,
        source: &mut dyn ArrivalSource,
    ) -> Result<RunOutcome, PolicyError> {
        let arch = Crossbar {
            policy,
            inputs: Vec::new(),
            outputs: Vec::new(),
        };
        self.run(arch, source)
    }

    /// The slot loop — §1.3's slot, written once for both architectures
    /// (see [`Arch`]). The final state is moved out of the engine, not
    /// cloned.
    fn run<A: Arch>(
        mut self,
        mut arch: A,
        source: &mut dyn ArrivalSource,
    ) -> Result<RunOutcome, PolicyError> {
        arch.assert_config(self.state.config());
        // A fixed horizon (explicit slot budget or a source that knows its
        // length) closes the arrival window by slot count; an open-ended
        // source (streaming) is asked each slot and may block until it
        // knows whether more arrivals are coming.
        let fixed_slots = self.options.slots.or_else(|| source.horizon());
        let speedup = self.state.config().speedup;
        let n_outputs = self.state.config().n_outputs;

        let mut slot: SlotId = self.start_slot;
        let mut idle_slots = self.start_idle;
        loop {
            let in_arrival_window = match fixed_slots {
                Some(n) => slot < n,
                None => source.in_arrival_window(slot),
            };
            if !in_arrival_window {
                // What is left comes from the books, not a walk of every
                // queue. In-flight packets always land (and count as
                // progress), so the idle cutoff only applies once the
                // fabric is empty.
                let buffered = self.stats.buffered();
                debug_assert_eq!(buffered, self.residual().0);
                let done = !self.options.drain
                    || buffered == 0
                    || (idle_slots >= 2 && self.in_flight() == 0);
                if done {
                    break;
                }
            }
            self.state.slot = slot;
            self.checkpoint_if_due(slot, idle_slots);
            let transmitted_before = self.stats.transmitted;
            let moved_before = self.stats.transferred + self.stats.transferred_to_crossbar;

            // --- Fault release (link-down windows that closed) ---
            self.release_retransmits(slot);

            // --- Landing phase (delayed fabric only) ---
            self.land_due(slot)?;

            // --- Arrival phase ---
            if in_arrival_window {
                self.arrival_phase(&mut arch, source, slot)?;
            }

            // --- Scheduling phase: ŝ cycles ---
            for s in 0..speedup {
                // What the cycle's policy calls read of the output side.
                let (outputs, band) = (&mut self.state.outputs, &self.state.band);
                outputs.refresh(band, &self.calendar, self.faults.as_ref());
                arch.cycle(&mut self, Cycle { slot, index: s })?;
                self.post_phase_check();
            }

            // --- Transmission phase ---
            for j in 0..n_outputs {
                let output = PortId::from(j);
                if let TransmitChoice::Send(pick) = arch.transmit(&self.state.view(), output) {
                    let (band, stats) = (&mut self.state.band, &mut self.stats);
                    band.transmit(stats, slot, output, pick)?;
                }
            }
            self.post_phase_check();

            self.audit_slot();
            if let Some(w) = &mut self.window {
                w.roll(slot, &self.stats);
            }
            let progressed = self.stats.transmitted != transmitted_before
                || self.stats.transferred + self.stats.transferred_to_crossbar != moved_before;
            idle_slots = if progressed { 0 } else { idle_slots + 1 };
            slot += 1;
        }

        let residual = self.residual();
        let policy = arch.name().to_string();
        let mut report = mechanics::finish_report(self.stats, policy, slot, residual, &self.spec);
        report.window = self.window;
        Ok(RunOutcome {
            report,
            final_state: self.state,
            checkpoints: self.checkpoints,
        })
    }

    // ---- phase mechanics ----

    /// Take a checkpoint at the top of `slot` when the `checkpoint_every`
    /// option says one is due (never at slot 0 — that is the fresh state).
    fn checkpoint_if_due(&mut self, slot: SlotId, idle_slots: u32) {
        if let Some(every) = self.options.checkpoint_every {
            if slot > 0 && slot.is_multiple_of(every) {
                let snap = self.capture(idle_slots);
                self.checkpoints.push(snap);
            }
        }
    }

    /// Re-dispatch the retransmit FIFOs of every pair whose link-down
    /// window has closed by `slot`, in deterministic (row-major pair,
    /// FIFO) order. Released packets ride the calendar at their pair's
    /// current effective delay (≥ 1), tagged with a cycle counter that
    /// starts past the real scheduling cycles so canonical landing keys
    /// stay unique.
    // detlint: hot
    fn release_retransmits(&mut self, slot: SlotId) {
        let Some(mut faults) = self.faults.take() else {
            return;
        };
        if faults.total_held() > 0 {
            let cfg = self.state.config();
            let (n_inputs, n_outputs) = (cfg.n_inputs as u16, cfg.n_outputs as u16);
            let mut cycle = cfg.speedup;
            for i in 0..n_inputs {
                for j in 0..n_outputs {
                    if faults.pair_held(i, j) == 0 || faults.plan().down_cap(slot, i, j).is_some() {
                        continue;
                    }
                    // The delay is per-pair, not per-packet: hoist it so the
                    // in-place drain below borrows `faults` alone.
                    let d = (self.spec.delay(PortId(i), PortId(j))
                        + faults.plan().extra_delay(slot, i, j))
                    .max(1);
                    let (cal, stats) = (&mut self.calendar, &mut self.stats);
                    faults.drain_pair_each(i, j, |preempt, packet| {
                        cal.dispatch(
                            slot,
                            cycle,
                            d,
                            InFlightPacket {
                                input: i,
                                output: j,
                                preempt,
                                packet,
                            },
                        );
                        stats.on_retransmit();
                        cycle += 1;
                    });
                }
            }
        }
        self.faults = Some(faults);
    }

    // detlint: hot
    fn arrival_phase<A: Arch>(
        &mut self,
        arch: &mut A,
        source: &mut dyn ArrivalSource,
        slot: SlotId,
    ) -> Result<(), PolicyError> {
        self.arrivals.clear();
        let mut arrivals = std::mem::take(&mut self.arrivals);
        source.arrivals(&self.state.view(), slot, &mut arrivals);
        for p in &arrivals {
            mechanics::check_ports(self.state.config(), p.input, p.output)?;
            let decision = arch.admit(&self.state.view(), p);
            self.state.band.admit(&mut self.stats, decision, p)?;
        }
        self.arrivals = arrivals;
        self.post_phase_check();
        Ok(())
    }

    /// Drain the calendar bucket due at the start of `slot` into the
    /// output queues, in the canonical landing order (see
    /// [`transport::land`]): the landing half of every dispatch whose pair
    /// latency expires now. A `QueueFull` here is unreachable with
    /// reservation-correct policies (the virtual occupancy they scheduled
    /// against already counted this packet) but stays a loud failure.
    // detlint: hot
    fn land_due(&mut self, slot: SlotId) -> Result<(), PolicyError> {
        let (band, stats, faulted) = (&mut self.state.band, &mut self.stats, self.faults.is_some());
        transport::land(slot, &mut self.calendar, &mut self.landing, |p| {
            band.deliver(stats, faulted, p)
        })?;
        self.post_phase_check();
        Ok(())
    }

    /// Hand a popped packet to the fabric: insert into `Q_j` now (pairs at
    /// latency 0), or commit it to the calendar to land `delay(src, dst)`
    /// slots later. An active fault plan intercepts here: a link-down pair
    /// holds the packet in its bounded retransmit FIFO (overflow = drop),
    /// and latency spikes stretch the pair's effective delay.
    // detlint: hot
    fn through_fabric(&mut self, cycle: Cycle, p: InFlightPacket) -> Result<(), PolicyError> {
        let (i, j) = (p.input, p.output);
        let mut d = self.spec.delay(PortId(i), PortId(j));
        if let Some(faults) = &mut self.faults {
            if let Some(cap) = faults.plan().down_cap(cycle.slot, i, j) {
                if faults.pair_held(i, j) < cap {
                    faults.hold(i, j, p.preempt, p.packet);
                } else {
                    self.stats.on_drop(&p.packet);
                }
                return Ok(());
            }
            d += faults.plan().extra_delay(cycle.slot, i, j);
        }
        if d >= 1 {
            self.calendar.dispatch(cycle.slot, cycle.index, d, p);
            return Ok(());
        }
        let faulted = self.faults.is_some();
        self.state.band.deliver(&mut self.stats, faulted, p)
    }

    /// Open a transfer set and validate it: ports in range, ≤ 1 transfer
    /// per port on each constrained side.
    // detlint: hot
    fn check_transfers(
        &mut self,
        pairs: impl Iterator<Item = (PortId, PortId)>,
        inputs: bool,
        outputs: bool,
    ) -> Result<(), PolicyError> {
        let cfg = self.state.config();
        self.ports.begin(cfg.n_inputs, cfg.n_outputs);
        self.ports.check(cfg, pairs, inputs, outputs)
    }

    fn post_phase_check(&self) {
        if self.options.validate {
            if let Err(msg) = check_state_invariants(&self.state) {
                panic!("engine invariant violated: {msg}");
            }
        }
    }

    /// Per-slot invariant audit (see [`crate::invariants`]): conservation
    /// against the queues plus everything in flight, debug builds only —
    /// every equivalence suite run under `cargo test` exercises it for
    /// free.
    fn audit_slot(&self) {
        if cfg!(debug_assertions) {
            let (count, value) = self.residual();
            if let Err(msg) = check_conservation(&self.stats, count, value) {
                panic!(
                    "engine invariant violated at slot {}: {msg}",
                    self.state.slot
                );
            }
        }
    }

    /// Visit, as `(output, value)`, every packet between its source queue
    /// and `Q_j`: on the calendar or held by a link-down pair.
    fn for_each_in_flight(&self, f: impl FnMut(usize, Value)) {
        transport::for_each_in_flight(&self.calendar, self.faults.as_ref(), f);
    }

    /// Packets in flight (0 when immediate and fault-free).
    fn in_flight(&self) -> u64 {
        let mut n = 0;
        self.for_each_in_flight(|_, _| n += 1);
        n
    }

    /// Packets and value still buffered: the queues plus everything in
    /// flight.
    fn residual(&self) -> (u64, u128) {
        let band = &self.state.band;
        let (mut count, mut value) = (band.residual_count(), band.residual_value());
        self.for_each_in_flight(|_, v| {
            count += 1;
            value += v as u128;
        });
        (count, value)
    }
}

/// What the slot loop asks of an architecture. §1.3 defines one slot for
/// both; they part ways only inside the scheduling cycle, so that — with
/// the policy calls either side of it — is all this trait holds. Statically
/// dispatched: [`Engine::run`] is monomorphised per policy type.
trait Arch {
    /// Policy name for the report.
    fn name(&self) -> &str;

    /// Panic unless `cfg` describes this architecture.
    fn assert_config(&self, cfg: &SwitchConfig);

    /// Arrival phase: the policy's decision for one packet.
    fn admit(&mut self, view: &SwitchView<'_>, packet: &Packet) -> Admission;

    /// One scheduling cycle: ask the policy, flush the change log it
    /// consumed (everything from there on accumulates for its next
    /// scheduling call), validate and apply.
    fn cycle(&mut self, engine: &mut Engine, cycle: Cycle) -> Result<(), PolicyError>;

    /// Transmission phase: the policy's choice for one output.
    fn transmit(&mut self, view: &SwitchView<'_>, output: PortId) -> TransmitChoice;
}

/// CIOQ: a cycle is one matching `Q_ij → Q_j`.
struct Cioq<'p, P: ?Sized> {
    policy: &'p mut P,
    /// Pooled decision buffer (the hot path never allocates).
    transfers: Vec<Transfer>,
}

impl<P: CioqPolicy + ?Sized> Arch for Cioq<'_, P> {
    fn name(&self) -> &str {
        self.policy.name()
    }

    fn assert_config(&self, cfg: &SwitchConfig) {
        assert!(
            cfg.crossbar_capacity.is_none(),
            "run_cioq requires a CIOQ config (no crossbar capacity)"
        );
    }

    fn admit(&mut self, view: &SwitchView<'_>, packet: &Packet) -> Admission {
        self.policy.admit(view, packet)
    }

    // detlint: hot
    fn cycle(&mut self, engine: &mut Engine, cycle: Cycle) -> Result<(), PolicyError> {
        self.transfers.clear();
        self.policy
            .schedule(&engine.state.view(), cycle, &mut self.transfers);
        engine.state.band.flush();
        // The matching: `Q_ij → fabric → Q_j`, ≤ 1 transfer per port.
        let pairs = self.transfers.iter().map(|t| (t.input, t.output));
        engine.check_transfers(pairs, true, true)?;
        for t in &self.transfers {
            let p = engine.state.band.pop_transfer(t)?;
            engine.through_fabric(cycle, p)?;
        }
        Ok(())
    }

    fn transmit(&mut self, view: &SwitchView<'_>, output: PortId) -> TransmitChoice {
        self.policy.transmit(view, output)
    }
}

/// Buffered crossbar: a cycle is an input subphase `Q_ij → C_ij` then an
/// output subphase `C_ij → Q_j`, each a per-port decision.
struct Crossbar<'p, P: ?Sized> {
    policy: &'p mut P,
    /// Pooled decision buffers.
    inputs: Vec<InputTransfer>,
    outputs: Vec<OutputTransfer>,
}

impl<P: CrossbarPolicy + ?Sized> Arch for Crossbar<'_, P> {
    fn name(&self) -> &str {
        self.policy.name()
    }

    fn assert_config(&self, cfg: &SwitchConfig) {
        assert!(
            cfg.crossbar_capacity.is_some(),
            "run_crossbar requires a crossbar config"
        );
    }

    fn admit(&mut self, view: &SwitchView<'_>, packet: &Packet) -> Admission {
        self.policy.admit(view, packet)
    }

    // detlint: hot
    fn cycle(&mut self, engine: &mut Engine, cycle: Cycle) -> Result<(), PolicyError> {
        self.inputs.clear();
        self.policy
            .schedule_input(&engine.state.view(), cycle, &mut self.inputs);
        engine.state.band.flush();
        // Input subphase: `Q_ij → C_ij`, ≤ 1 transfer per *input port* only.
        let pairs = self.inputs.iter().map(|t| (t.input, t.output));
        engine.check_transfers(pairs, true, false)?;
        let faulted = engine.faults.is_some();
        for t in &self.inputs {
            let (band, stats) = (&mut engine.state.band, &mut engine.stats);
            band.move_to_xbar(stats, faulted, t)?;
        }

        self.outputs.clear();
        self.policy
            .schedule_output(&engine.state.view(), cycle, &mut self.outputs);
        engine.state.band.flush();
        // Output subphase: `C_ij → fabric → Q_j`, ≤ 1 transfer per *output
        // port* only.
        let pairs = self.outputs.iter().map(|t| (t.input, t.output));
        engine.check_transfers(pairs, false, true)?;
        for t in &self.outputs {
            let p = engine.state.band.pop_output_transfer(t)?;
            engine.through_fabric(cycle, p)?;
        }
        Ok(())
    }

    fn transmit(&mut self, view: &SwitchView<'_>, output: PortId) -> TransmitChoice {
        self.policy.transmit(view, output)
    }
}

/// Run a CIOQ policy over a recorded trace with default options
/// (drain until empty, validate in debug builds).
pub fn run_cioq<P: CioqPolicy + ?Sized>(
    config: &SwitchConfig,
    policy: &mut P,
    trace: &Trace,
) -> Result<RunReport, PolicyError> {
    let mut source = TraceSource::new(trace);
    Engine::new(config.clone(), RunOptions::default()).run_cioq(policy, &mut source)
}

/// Run a CIOQ policy against an arbitrary (possibly adaptive) source for
/// `slots` arrival slots.
pub fn run_cioq_with_source<P: CioqPolicy + ?Sized>(
    config: &SwitchConfig,
    policy: &mut P,
    source: &mut dyn ArrivalSource,
    slots: SlotId,
) -> Result<RunReport, PolicyError> {
    let options = RunOptions {
        slots: Some(slots),
        ..RunOptions::default()
    };
    Engine::new(config.clone(), options).run_cioq(policy, source)
}

/// Run a crossbar policy over a recorded trace with default options.
pub fn run_crossbar<P: CrossbarPolicy + ?Sized>(
    config: &SwitchConfig,
    policy: &mut P,
    trace: &Trace,
) -> Result<RunReport, PolicyError> {
    let mut source = TraceSource::new(trace);
    Engine::new(config.clone(), RunOptions::default()).run_crossbar(policy, &mut source)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_stats_window_is_a_config_error() {
        let cfg = SwitchConfig::cioq(2, 2, 1);
        let options = RunOptions {
            stats_window: Some(0),
            ..RunOptions::default()
        };
        match Engine::try_new(cfg, options) {
            Err(ConfigError::ZeroStatsWindow) => {}
            Err(other) => panic!("expected ZeroStatsWindow, got {other}"),
            Ok(_) => panic!("zero stats window accepted"),
        }
    }

    #[test]
    fn zero_checkpoint_cadence_is_a_config_error() {
        let cfg = SwitchConfig::cioq(2, 2, 1);
        let options = RunOptions {
            checkpoint_every: Some(0),
            ..RunOptions::default()
        };
        match Engine::try_new(cfg, options) {
            Err(ConfigError::ZeroCheckpointCadence) => {}
            Err(other) => panic!("expected ZeroCheckpointCadence, got {other}"),
            Ok(_) => panic!("zero checkpoint cadence accepted"),
        }
    }

    #[test]
    #[should_panic(expected = "invalid run options")]
    fn engine_new_panics_loudly_on_zero_window() {
        let cfg = SwitchConfig::cioq(2, 2, 1);
        let options = RunOptions {
            stats_window: Some(0),
            ..RunOptions::default()
        };
        let _ = Engine::new(cfg, options);
    }

    /// The checkpoint lists each queue head first — greatest value, equal
    /// values by ascending id — whatever order the queue stores its
    /// packets in, and the bytes survive a decode and restore unchanged.
    #[test]
    fn checkpoint_cells_list_each_queue_head_first() {
        use cioq_model::PacketId;
        let options = RunOptions::default;
        let mut engine = Engine::try_new(SwitchConfig::cioq(2, 4, 1), options()).unwrap();
        for (id, v) in (0..).zip([3, 7, 7, 1]) {
            let p = Packet::new(PacketId(id), v, 0, PortId(0), PortId(1));
            let band = &mut engine.state.band;
            band.admit(&mut engine.stats, Admission::Accept, &p)
                .unwrap();
            let p = Packet::new(PacketId(10 + id), v, 0, PortId(1), PortId(0));
            let landed = InFlightPacket::new(PortId(1), PortId(0), false, p);
            band.deliver(&mut engine.stats, false, landed).unwrap();
        }
        let snap = engine.snapshot();
        let cell = |c: &[Packet]| c.iter().map(|p| (p.value, p.id.0)).collect::<Vec<_>>();
        // Q_01 is cell 1 of the row-major 2 × 2 grid.
        assert_eq!(
            cell(&snap.input_queues[1]),
            [(7, 1), (7, 2), (3, 0), (1, 3)]
        );
        assert_eq!(
            cell(&snap.output_queues[0]),
            [(7, 11), (7, 12), (3, 10), (1, 13)]
        );
        let bytes = snap.to_bytes();
        let decoded = EngineSnapshot::from_bytes(&bytes).unwrap();
        let restored = Engine::restore(&decoded, options()).unwrap();
        assert_eq!(restored.snapshot().to_bytes(), bytes);
    }
}
