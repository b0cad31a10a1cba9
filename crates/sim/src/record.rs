//! Recording wrapper: capture the full decision transcript of a policy run
//! so it can be replayed as a fixed offline schedule (the `cioq-opt` shadow
//! analysis replays such transcripts as the "OPT" of the paper's proofs).

use crate::policy::{
    Admission, CioqPolicy, CrossbarPolicy, InputTransfer, OutputTransfer, Transfer, TransmitChoice,
};
use crate::state::SwitchView;
use crate::transport::FabricSpec;
use cioq_model::{Cycle, Packet, PortId, SlotId};

/// A recorded CIOQ schedule: one admission decision per processed arrival
/// (in trace order) and one transfer set per scheduling cycle (in global
/// cycle order, including post-arrival drain cycles).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecordedSchedule {
    /// `true` = accepted (with or without preemption), per arrival.
    pub admissions: Vec<bool>,
    /// Transfers `(input, output)` per cycle, in engine call order. On a
    /// delayed fabric these are *dispatch* sets; the landings they imply
    /// follow `fabric_delay` slots later.
    pub transfers: Vec<Vec<(u16, u16)>>,
    /// Largest per-pair fabric latency the transcript was produced under
    /// — a replay (e.g. the `cioq-opt` shadow analysis) must run the same
    /// transport for the transcript to be feasible. 0 = the paper's
    /// immediate fabric.
    pub fabric_delay: SlotId,
}

impl RecordedSchedule {
    /// Total number of recorded transfers across all cycles.
    pub fn total_transfers(&self) -> usize {
        self.transfers.iter().map(|c| c.len()).sum()
    }
}

/// Wraps a [`CioqPolicy`], forwarding every decision while recording it.
#[derive(Debug)]
pub struct Recording<P> {
    inner: P,
    /// The transcript (read it out after the run).
    pub schedule: RecordedSchedule,
}

impl<P: CioqPolicy> Recording<P> {
    /// Wrap `inner` for recording (immediate fabric).
    pub fn new(inner: P) -> Self {
        Recording {
            inner,
            schedule: RecordedSchedule::default(),
        }
    }

    /// Wrap `inner` for recording a run on the given fabric transport,
    /// stamping the transcript with its delay.
    pub fn with_fabric(inner: P, fabric: &FabricSpec) -> Self {
        let mut rec = Self::new(inner);
        rec.schedule.fabric_delay = fabric.max_delay();
        rec
    }

    /// Unwrap into the transcript.
    pub fn into_schedule(self) -> RecordedSchedule {
        self.schedule
    }
}

impl<P: CioqPolicy> CioqPolicy for Recording<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn admit(&mut self, view: &SwitchView<'_>, packet: &Packet) -> Admission {
        let decision = self.inner.admit(view, packet);
        self.schedule
            .admissions
            .push(!matches!(decision, Admission::Reject));
        decision
    }

    fn schedule(&mut self, view: &SwitchView<'_>, cycle: Cycle, out: &mut Vec<Transfer>) {
        self.inner.schedule(view, cycle, out);
        self.schedule
            .transfers
            .push(out.iter().map(|t| (t.input.0, t.output.0)).collect());
    }

    fn transmit(&mut self, view: &SwitchView<'_>, output: PortId) -> TransmitChoice {
        self.inner.transmit(view, output)
    }
}

/// A recorded buffered-crossbar schedule: one admission decision per
/// processed arrival plus the input- and output-subphase transfer sets per
/// scheduling cycle, in engine call order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecordedCrossbarSchedule {
    /// `true` = accepted (with or without preemption), per arrival.
    pub admissions: Vec<bool>,
    /// Input-subphase transfers `(input, output)` per cycle.
    pub input_transfers: Vec<Vec<(u16, u16)>>,
    /// Output-subphase transfers `(input, output)` per cycle (dispatch
    /// sets on a delayed fabric, like [`RecordedSchedule::transfers`]).
    pub output_transfers: Vec<Vec<(u16, u16)>>,
    /// Largest per-pair fabric latency the transcript was produced under.
    pub fabric_delay: SlotId,
}

impl RecordedCrossbarSchedule {
    /// Total transfers recorded across both subphases.
    pub fn total_transfers(&self) -> usize {
        self.input_transfers
            .iter()
            .chain(&self.output_transfers)
            .map(|c| c.len())
            .sum()
    }
}

/// Wraps a [`CrossbarPolicy`], forwarding every decision while recording
/// it. The crossbar analogue of [`Recording`], used by the equivalence
/// tests to compare decision transcripts cycle by cycle.
#[derive(Debug)]
pub struct CrossbarRecording<P> {
    inner: P,
    /// The transcript (read it out after the run).
    pub schedule: RecordedCrossbarSchedule,
}

impl<P: CrossbarPolicy> CrossbarRecording<P> {
    /// Wrap `inner` for recording (immediate fabric).
    pub fn new(inner: P) -> Self {
        CrossbarRecording {
            inner,
            schedule: RecordedCrossbarSchedule::default(),
        }
    }

    /// Wrap `inner` for recording a run on the given fabric transport.
    pub fn with_fabric(inner: P, fabric: &FabricSpec) -> Self {
        let mut rec = Self::new(inner);
        rec.schedule.fabric_delay = fabric.max_delay();
        rec
    }

    /// Unwrap into the transcript.
    pub fn into_schedule(self) -> RecordedCrossbarSchedule {
        self.schedule
    }
}

impl<P: CrossbarPolicy> CrossbarPolicy for CrossbarRecording<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn admit(&mut self, view: &SwitchView<'_>, packet: &Packet) -> Admission {
        let decision = self.inner.admit(view, packet);
        self.schedule
            .admissions
            .push(!matches!(decision, Admission::Reject));
        decision
    }

    fn schedule_input(
        &mut self,
        view: &SwitchView<'_>,
        cycle: Cycle,
        out: &mut Vec<InputTransfer>,
    ) {
        self.inner.schedule_input(view, cycle, out);
        self.schedule
            .input_transfers
            .push(out.iter().map(|t| (t.input.0, t.output.0)).collect());
    }

    fn schedule_output(
        &mut self,
        view: &SwitchView<'_>,
        cycle: Cycle,
        out: &mut Vec<OutputTransfer>,
    ) {
        self.inner.schedule_output(view, cycle, out);
        self.schedule
            .output_transfers
            .push(out.iter().map(|t| (t.input.0, t.output.0)).collect());
    }

    fn transmit(&mut self, view: &SwitchView<'_>, output: PortId) -> TransmitChoice {
        self.inner.transmit(view, output)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_cioq;
    use crate::trace::Trace;
    use cioq_model::SwitchConfig;

    /// Trivial greedy policy for exercising the recorder.
    struct FirstFit;
    impl CioqPolicy for FirstFit {
        fn name(&self) -> &str {
            "first-fit"
        }
        fn admit(&mut self, view: &SwitchView<'_>, p: &Packet) -> Admission {
            if view.input_queue(p.input, p.output).is_full() {
                Admission::Reject
            } else {
                Admission::Accept
            }
        }
        fn schedule(&mut self, view: &SwitchView<'_>, _c: Cycle, out: &mut Vec<Transfer>) {
            for i in 0..view.n_inputs() {
                for j in 0..view.n_outputs() {
                    let (input, output) = (PortId::from(i), PortId::from(j));
                    if !view.input_queue(input, output).is_empty()
                        && !view.output_queue(output).is_full()
                    {
                        out.push(Transfer {
                            input,
                            output,
                            pick: crate::policy::PacketPick::Greatest,
                            preempt_if_full: false,
                        });
                        return;
                    }
                }
            }
        }
    }

    #[test]
    fn records_admissions_and_transfers() {
        let cfg = SwitchConfig::cioq(2, 1, 1);
        let trace = Trace::from_tuples([
            (0, PortId(0), PortId(0), 1),
            (0, PortId(0), PortId(0), 1), // rejected: B=1
            (1, PortId(1), PortId(1), 1),
        ]);
        let mut rec = Recording::new(FirstFit);
        let report = run_cioq(&cfg, &mut rec, &trace).unwrap();
        assert_eq!(report.transmitted, 2);
        assert_eq!(rec.schedule.admissions, vec![true, false, true]);
        assert_eq!(rec.schedule.total_transfers(), 2);
        // Cycle transcripts line up with engine cycles (arrival + drain).
        assert!(rec.schedule.transfers.len() as u64 >= report.slots);
    }
}
