//! Per-phase change tracking: which queues each slot's arrival / transfer /
//! transmission mutations touched.
//!
//! The engine marks every queue mutation into a [`ChangeLog`] and *flushes*
//! (clears) the log immediately after each policy scheduling call returns.
//! A policy therefore sees, at the start of each `schedule` /
//! `schedule_input` / `schedule_output` call, exactly the set of queues
//! dirtied since its previous scheduling call — the O(changes) input that
//! incremental schedulers rebuild from, instead of rescanning all N² VOQs.
//!
//! The flush counter doubles as a consistency handshake: a policy records
//! the count it consumed, and a mismatch at the next call (fresh engine,
//! policy reused across runs, resized switch) tells it to fall back to a
//! full rebuild.

/// A deduplicated set of dirty indices over a fixed index space.
///
/// `mark` is O(1) amortised; duplicates are suppressed with a membership
/// bitmap so the list length is bounded by the index space regardless of
/// how many mutations occur between flushes.
#[derive(Debug, Clone, Default)]
pub struct DirtySet {
    marked: Vec<bool>,
    list: Vec<u32>,
}

impl DirtySet {
    fn with_len(n: usize) -> Self {
        DirtySet {
            marked: vec![false; n],
            // Each index enters `list` at most once between flushes, so
            // `n` is a hard bound — reserved up front to keep the slot
            // loop allocation-free.
            list: Vec::with_capacity(n),
        }
    }

    #[inline]
    pub(crate) fn mark(&mut self, idx: usize) {
        if !self.marked[idx] {
            self.marked[idx] = true;
            self.list.push(idx as u32);
        }
    }

    /// The dirty indices, in first-marked order.
    #[inline]
    pub fn indices(&self) -> &[u32] {
        &self.list
    }

    /// Whether nothing has been marked since the last flush.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }

    fn clear(&mut self) {
        for &idx in &self.list {
            self.marked[idx as usize] = false;
        }
        self.list.clear();
    }
}

/// The set of queues dirtied since the last flush, grouped by queue family.
///
/// VOQ and crossbar indices are the switch's flat row-major cells
/// `i * n_outputs + j`, `i` a global row: one log covers every row, and a
/// view restricted to a shard's rows hands the whole of it (incremental
/// policies keep their own rows' cells). Output queues are not logged:
/// every policy re-reads output occupancy each cycle.
#[derive(Debug, Clone, Default)]
pub struct ChangeLog {
    pub(crate) voq: DirtySet,
    pub(crate) xbar: DirtySet,
    flushes: u64,
}

impl ChangeLog {
    pub(crate) fn new(n_inputs: usize, n_outputs: usize, has_crossbar: bool) -> Self {
        ChangeLog {
            voq: DirtySet::with_len(n_inputs * n_outputs),
            xbar: if has_crossbar {
                DirtySet::with_len(n_inputs * n_outputs)
            } else {
                DirtySet::default()
            },
            flushes: 0,
        }
    }

    /// Times this log has been flushed — i.e. how many scheduling calls the
    /// engine has completed. A policy that consumed the log when the count
    /// was `c` will see `c + 1` at its next call iff no resync is needed.
    #[inline]
    pub fn flush_count(&self) -> u64 {
        self.flushes
    }

    /// Dirty input-queue cells `i * n_outputs + j` since the last flush.
    #[inline]
    pub fn dirty_voqs(&self) -> &[u32] {
        self.voq.indices()
    }

    /// Dirty crossbar cells `i * n_outputs + j` since the last flush.
    #[inline]
    pub fn dirty_xbars(&self) -> &[u32] {
        self.xbar.indices()
    }

    pub(crate) fn flush(&mut self) {
        self.voq.clear();
        self.xbar.clear();
        self.flushes += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_cioq;
    use crate::policy::{Admission, CioqPolicy, Transfer};
    use crate::state::SwitchView;
    use crate::trace::Trace;
    use cioq_model::{Cycle, Packet, PortId, SwitchConfig};

    /// Forwards the head of the first movable VOQ, recording what the
    /// change log showed at every scheduling call.
    struct Probe {
        seen: Vec<(u64, Vec<u32>)>,
    }

    impl CioqPolicy for Probe {
        fn name(&self) -> &str {
            "probe"
        }

        fn admit(&mut self, view: &SwitchView<'_>, p: &Packet) -> Admission {
            if view.input_queue(p.input, p.output).is_full() {
                Admission::Reject
            } else {
                Admission::Accept
            }
        }

        fn schedule(&mut self, view: &SwitchView<'_>, _cycle: Cycle, out: &mut Vec<Transfer>) {
            let ch = view.changes();
            self.seen.push((ch.flush_count(), ch.dirty_voqs().to_vec()));
            for i in 0..view.n_inputs() {
                for j in 0..view.n_outputs() {
                    let (input, output) = (PortId::from(i), PortId::from(j));
                    if !view.input_queue(input, output).is_empty()
                        && !view.output_queue(output).is_full()
                    {
                        out.push(Transfer {
                            input,
                            output,
                            preempt_if_full: false,
                        });
                        return;
                    }
                }
            }
        }
    }

    #[test]
    fn engine_reports_changes_between_scheduling_calls() {
        let cfg = SwitchConfig::cioq(2, 4, 1);
        let trace = Trace::from_tuples([
            (0, PortId(0), PortId(0), 1), // cell 0
            (1, PortId(1), PortId(1), 1), // cell 3
        ]);
        let mut probe = Probe { seen: Vec::new() };
        let report = run_cioq(&cfg, &mut probe, &trace).unwrap();
        assert_eq!(report.transmitted, 2);

        // Call 0 (slot 0): only the slot-0 arrival is dirty.
        assert_eq!(probe.seen[0], (0, vec![0]));
        // Call 1 (slot 1): the applied transfer re-dirtied cell 0 and the
        // slot-1 arrival dirtied cell 3.
        assert_eq!(probe.seen[1], (1, vec![0, 3]));
        // Flush counts advance by exactly one per scheduling call.
        for (k, entry) in probe.seen.iter().enumerate() {
            assert_eq!(entry.0, k as u64);
        }
    }

    #[test]
    fn marks_dedupe_and_clear_on_flush() {
        let mut log = ChangeLog::new(2, 3, false);
        log.voq.mark(4);
        log.voq.mark(1);
        log.voq.mark(4);
        assert_eq!(log.dirty_voqs(), &[4, 1]);
        assert!(log.dirty_xbars().is_empty());
        assert_eq!(log.flush_count(), 0);

        log.flush();
        assert!(log.voq.is_empty());
        assert_eq!(log.flush_count(), 1);

        // Re-marking after a flush works (bitmap was reset).
        log.voq.mark(4);
        assert_eq!(log.dirty_voqs(), &[4]);
    }
}
