//! The paper's proof machinery, executable: the *modified OPT* of §2.1.
//!
//! Theorem 1's analysis runs GM alongside an arbitrary feasible offline
//! schedule ("opt"), then modifies opt at the end of every scheduling
//! cycle:
//!
//! * **Modification 2.1.1** — if GM transfers from `Q_ij` and opt does not
//!   transfer from `Q*_ij`, and `Q*_ij` is non-empty, opt sends one packet
//!   from `Q*_ij` straight out of the switch (a *privileged packet of
//!   Type 1*).
//! * **Modification 2.1.2** — if opt transfers a packet into `Q*_j`, GM
//!   transfers nothing into `Q_j`, and `Q_j` is not full, the packet goes
//!   straight out instead (a *privileged packet of Type 2*).
//!
//! With these modifications **Lemma 1** holds: at every instant
//! `|Q*_ij| ≤ |Q_ij|` (I1) and `|Q*_j| ≤ |Q_j|` (I2). I2 forces opt's
//! normal transmissions to be dominated (`|S*| ≤ |S|`), and the mapping
//! scheme of Lemma 3 gives `|P*| ≤ 2|S|` — together, `OPT ≤ 3·GM`.
//!
//! [`gm_lemma1_machinery`] performs this construction concretely: it
//! simulates GM (unit values) in lockstep with a recorded offline schedule,
//! applies both modifications, checks I1/I2 after every phase, and returns
//! the `(|S|, |S*|, |P*|)` accounting. Tests feed it arbitrary recorded
//! schedules and verify that the invariants *never* fail and the theorem's
//! inequalities always hold — the proof, run as a program.

use cioq_model::SwitchConfig;
use cioq_sim::{RecordedSchedule, Trace};

/// Accounting produced by one run of the modified-OPT construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lemma1Report {
    /// `|S|`: packets GM transmitted.
    pub alg_sent: u64,
    /// `|S*|`: packets the modified opt sent through normal channels.
    pub opt_normal_sent: u64,
    /// Privileged packets of Type 1 (Modification 2.1.1).
    pub privileged_type1: u64,
    /// Privileged packets of Type 2 (Modification 2.1.2).
    pub privileged_type2: u64,
    /// Invariant I1/I2 violations observed (must be 0).
    pub invariant_violations: u64,
}

impl Lemma1Report {
    /// `|P*|`: all privileged packets.
    pub fn privileged(&self) -> u64 {
        self.privileged_type1 + self.privileged_type2
    }

    /// The modified opt's total benefit `|S*| + |P*|` (unit values).
    pub fn opt_total(&self) -> u64 {
        self.opt_normal_sent + self.privileged()
    }

    /// The three inequalities of the proof of Theorem 1.
    pub fn theorem_1_holds(&self) -> bool {
        self.invariant_violations == 0
            && self.opt_normal_sent <= self.alg_sent
            && self.privileged() <= 2 * self.alg_sent
            && self.opt_total() <= 3 * self.alg_sent
    }
}

/// Occupancy-only switch state (unit values: counts suffice).
#[derive(Debug, Clone)]
struct UnitState {
    n: usize,
    m: usize,
    iq: Vec<u32>,
    oq: Vec<u32>,
}

impl UnitState {
    fn new(cfg: &SwitchConfig) -> Self {
        UnitState {
            n: cfg.n_inputs,
            m: cfg.n_outputs,
            iq: vec![0; cfg.n_inputs * cfg.n_outputs],
            oq: vec![0; cfg.n_outputs],
        }
    }

    #[inline]
    fn iq_at(&self, i: usize, j: usize) -> u32 {
        self.iq[i * self.m + j]
    }

    fn is_empty(&self) -> bool {
        self.iq.iter().all(|&c| c == 0) && self.oq.iter().all(|&c| c == 0)
    }
}

/// Run the §2.1 modified-OPT construction: GM (lexicographic greedy
/// maximal matching, accept-iff-not-full, greedy transmission) against the
/// recorded `schedule` on the same `trace`. The schedule must come from a
/// feasible run on this exact `(cfg, trace)` pair (any CIOQ policy recorded
/// through [`cioq_sim::Recording`] qualifies). Unit-value traces only.
pub fn gm_lemma1_machinery(
    cfg: &SwitchConfig,
    trace: &Trace,
    schedule: &RecordedSchedule,
) -> Lemma1Report {
    assert!(
        cfg.crossbar_capacity.is_none() && schedule.input_transfers.is_empty(),
        "the §2.1 machinery targets CIOQ switches and their transcripts"
    );
    assert!(
        trace.packets().iter().all(|p| p.value == 1),
        "the §2.1 machinery targets the unit-value model"
    );
    assert_eq!(
        schedule.fabric_delay, 0,
        "the §2.1 machinery replays transcripts with same-cycle transfer \
         semantics; a delay-line transcript (fabric_delay > 0) would be \
         replayed infeasibly"
    );

    let b_in = cfg.input_capacity as u32;
    let b_out = cfg.output_capacity as u32;
    let mut alg = UnitState::new(cfg);
    let mut opt = UnitState::new(cfg);
    let mut report = Lemma1Report {
        alg_sent: 0,
        opt_normal_sent: 0,
        privileged_type1: 0,
        privileged_type2: 0,
        invariant_violations: 0,
    };

    let check_invariants = |alg: &UnitState, opt: &UnitState, report: &mut Lemma1Report| {
        for idx in 0..alg.iq.len() {
            if opt.iq[idx] > alg.iq[idx] {
                report.invariant_violations += 1;
            }
        }
        for j in 0..alg.m {
            if opt.oq[j] > alg.oq[j] {
                report.invariant_violations += 1;
            }
        }
    };

    let packets = trace.packets();
    let mut next_packet = 0usize;
    let arrival_slots = trace.arrival_slots();
    let mut cycle_idx = 0usize;
    let mut slot: u64 = 0;

    // Scratch for GM's per-cycle greedy matching.
    let mut alg_from: Vec<Option<usize>> = vec![None; alg.n]; // input -> j
    let mut alg_into: Vec<bool> = vec![false; alg.m];

    loop {
        let arrivals_pending = slot < arrival_slots;
        let schedule_pending = cycle_idx < schedule.transfers.len();
        if !arrivals_pending && !schedule_pending && alg.is_empty() && opt.is_empty() {
            break;
        }
        // Hard safety net: everything drains within residual-many slots.
        if slot > arrival_slots + (trace.len() as u64) + 64 {
            break;
        }

        // --- Arrival phase ---
        if arrivals_pending {
            while next_packet < packets.len() && packets[next_packet].arrival == slot {
                let p = &packets[next_packet];
                let idx = p.input.index() * alg.m + p.output.index();
                // GM: accept iff not full.
                if alg.iq[idx] < b_in {
                    alg.iq[idx] += 1;
                }
                // opt: recorded admission, feasible a fortiori (its queues
                // only ever shrank under the modifications).
                if schedule
                    .admissions
                    .get(next_packet)
                    .copied()
                    .unwrap_or(false)
                {
                    debug_assert!(opt.iq[idx] < b_in, "recorded accept must stay feasible");
                    if opt.iq[idx] < b_in {
                        opt.iq[idx] += 1;
                    }
                }
                next_packet += 1;
                check_invariants(&alg, &opt, &mut report);
            }
        }

        // --- Scheduling phase: ŝ cycles ---
        for _ in 0..cfg.speedup {
            // GM's greedy maximal matching in lexicographic order.
            alg_from.iter_mut().for_each(|x| *x = None);
            alg_into.iter_mut().for_each(|x| *x = false);
            for (i, from) in alg_from.iter_mut().enumerate() {
                for (j, into) in alg_into.iter_mut().enumerate() {
                    if from.is_none() && !*into && alg.iq_at(i, j) > 0 && alg.oq[j] < b_out {
                        *from = Some(j);
                        *into = true;
                    }
                }
            }
            for (i, j) in alg_from
                .iter()
                .enumerate()
                .filter_map(|(i, j)| j.map(|j| (i, j)))
            {
                alg.iq[i * alg.m + j] -= 1;
                alg.oq[j] += 1;
            }

            // opt: recorded transfers for this cycle (skipping any whose
            // source queue the modifications already drained).
            let empty = Vec::new();
            let recorded = schedule.transfers.get(cycle_idx).unwrap_or(&empty);
            let mut opt_from: Vec<bool> = vec![false; alg.n];
            for &(i16, j16) in recorded {
                let (i, j) = (i16 as usize, j16 as usize);
                let idx = i * alg.m + j;
                if opt.iq[idx] == 0 {
                    continue; // packet left early as privileged
                }
                opt.iq[idx] -= 1;
                opt_from[i] = true;
                // Modification 2.1.2: GM transferred nothing into Q_j and
                // Q_j is not full -> privileged Type 2 (skip the insert).
                if !alg_into[j] && alg.oq[j] < b_out {
                    report.privileged_type2 += 1;
                } else {
                    debug_assert!(opt.oq[j] < b_out, "recorded insert must stay feasible");
                    opt.oq[j] += 1;
                }
            }
            // Modification 2.1.1: GM transferred from Q_ij, opt did not
            // transfer from input port... the paper's condition is per
            // queue Q_ij: opt transferred no packet from Q*_ij this cycle.
            for (i, j) in alg_from
                .iter()
                .enumerate()
                .filter_map(|(i, j)| j.map(|j| (i, j)))
            {
                let opt_used_same_queue = recorded
                    .iter()
                    .any(|&(ri, rj)| ri as usize == i && rj as usize == j);
                let idx = i * alg.m + j;
                if !opt_used_same_queue && opt.iq[idx] > 0 {
                    opt.iq[idx] -= 1;
                    report.privileged_type1 += 1;
                }
            }
            cycle_idx += 1;
            check_invariants(&alg, &opt, &mut report);
        }

        // --- Transmission phase (both greedy / work-conserving, A2) ---
        for j in 0..alg.m {
            if alg.oq[j] > 0 {
                alg.oq[j] -= 1;
                report.alg_sent += 1;
            }
            if opt.oq[j] > 0 {
                opt.oq[j] -= 1;
                report.opt_normal_sent += 1;
            }
        }
        check_invariants(&alg, &opt, &mut report);
        slot += 1;
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use cioq_model::PortId;

    #[test]
    fn trivial_instance_all_inequalities_hold() {
        let cfg = SwitchConfig::cioq(2, 2, 1);
        let trace =
            Trace::from_tuples([(0, PortId(0), PortId(0), 1), (0, PortId(1), PortId(1), 1)]);
        // Offline schedule: accept both, transfer both in cycle 0.
        let schedule = RecordedSchedule {
            admissions: vec![true, true],
            transfers: vec![vec![(0, 0), (1, 1)]],
            ..Default::default()
        };
        let report = gm_lemma1_machinery(&cfg, &trace, &schedule);
        assert_eq!(report.alg_sent, 2);
        assert_eq!(report.opt_normal_sent, 2);
        assert_eq!(report.privileged(), 0);
        assert!(report.theorem_1_holds());
    }

    #[test]
    fn privileged_type1_fires_when_opt_idles() {
        let cfg = SwitchConfig::cioq(1, 1, 1);
        let trace = Trace::from_tuples([(0, PortId(0), PortId(0), 1)]);
        // Offline schedule that accepts but never transfers: GM transfers
        // in cycle 0, opt does not -> the packet leaves as privileged.
        let schedule = RecordedSchedule {
            admissions: vec![true],
            transfers: vec![vec![]],
            ..Default::default()
        };
        let report = gm_lemma1_machinery(&cfg, &trace, &schedule);
        assert_eq!(report.alg_sent, 1);
        assert_eq!(report.privileged_type1, 1);
        assert_eq!(report.opt_normal_sent, 0);
        assert!(report.theorem_1_holds());
    }

    #[test]
    fn empty_trace_is_clean() {
        let cfg = SwitchConfig::cioq(2, 2, 1);
        let report = gm_lemma1_machinery(&cfg, &Trace::default(), &RecordedSchedule::default());
        assert_eq!(report.alg_sent, 0);
        assert!(report.theorem_1_holds());
    }
}
