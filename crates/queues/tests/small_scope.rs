//! Exhaustive small-scope check of `SortedQueue` against an independent
//! model: every sequence of up to [`DEPTH`] operations, for every capacity
//! in [`CAPACITIES`], compared in full after each step.
//!
//! The model is a plain `Vec<Packet>` re-sorted by `queue_key()` (head
//! first) after every change; it shares no code with the queue. Values
//! come from {1, 2, 3} with fresh ascending ids, so ties between equal
//! values occur on most paths.

use cioq_model::{Packet, PacketId, PortId, Value};
use cioq_queues::SortedQueue;

const CAPACITIES: [usize; 3] = [1, 2, 3];
const DEPTH: usize = 6;

#[derive(Clone, Copy, Debug)]
enum Op {
    Insert(Value),
    PopHead,
    PopTail,
    /// `remove` of the oldest id present; of a fresh (absent) id when empty.
    RemoveOldest,
}

const OPS: [Op; 6] = [
    Op::Insert(1),
    Op::Insert(2),
    Op::Insert(3),
    Op::PopHead,
    Op::PopTail,
    Op::RemoveOldest,
];

#[derive(Clone)]
struct State {
    queue: SortedQueue,
    model: Vec<Packet>,
    next_id: u64,
}

fn packet(id: u64, value: Value) -> Packet {
    Packet::new(PacketId(id), value, 0, PortId(0), PortId(0))
}

/// Apply `op` to both sides, assert they agree on its result and on every
/// observable afterwards.
fn step(s: &mut State, op: Op, cap: usize, path: &[Op]) {
    let ctx = || format!("capacity {cap}, path {path:?}");
    match op {
        Op::Insert(v) => {
            let p = packet(s.next_id, v);
            s.next_id += 1;
            let got = s.queue.insert(p);
            if s.model.len() < cap {
                assert_eq!(got, Ok(()), "{}", ctx());
                s.model.push(p);
                s.model.sort_by_key(|p| p.queue_key());
            } else {
                assert_eq!(got, Err(p), "a full queue returns the packet: {}", ctx());
            }
        }
        Op::PopHead => {
            let want = (!s.model.is_empty()).then(|| s.model.remove(0));
            assert_eq!(s.queue.pop_head(), want, "{}", ctx());
        }
        Op::PopTail => {
            assert_eq!(s.queue.pop_tail(), s.model.pop(), "{}", ctx());
        }
        Op::RemoveOldest => {
            let id = s.model.iter().map(|p| p.id).min();
            let want = id.map(|id| {
                let k = s.model.iter().position(|p| p.id == id).unwrap();
                s.model.remove(k)
            });
            let id = id.unwrap_or(PacketId(s.next_id));
            assert_eq!(s.queue.remove(id), want, "{}", ctx());
        }
    }
    let (q, m) = (&s.queue, &s.model);
    let ids: Vec<_> = q.iter().map(|p| p.id).collect();
    let want: Vec<_> = m.iter().map(|p| p.id).collect();
    assert_eq!(ids, want, "iter() order: {}", ctx());
    assert_eq!(q.head(), m.first(), "{}", ctx());
    assert_eq!(q.tail(), m.last(), "{}", ctx());
    assert_eq!(q.head_value(), m.first().map(|p| p.value), "{}", ctx());
    assert_eq!(q.tail_value(), m.last().map(|p| p.value), "{}", ctx());
    assert_eq!(q.len(), m.len(), "{}", ctx());
    assert_eq!(q.is_empty(), m.is_empty(), "{}", ctx());
    assert_eq!(q.is_full(), m.len() >= cap, "{}", ctx());
    let total: u128 = m.iter().map(|p| p.value as u128).sum();
    assert_eq!(q.total_value(), total, "{}", ctx());
    assert!(q.check_invariants(), "{}", ctx());
}

/// Depth-first over every continuation of `path`; returns the operations
/// checked.
fn explore(s: &State, cap: usize, path: &mut Vec<Op>) -> usize {
    if path.len() == DEPTH {
        return 0;
    }
    let mut checked = 0;
    for op in OPS {
        path.push(op);
        let mut next = s.clone();
        step(&mut next, op, cap, path);
        checked += 1 + explore(&next, cap, path);
        path.pop();
    }
    checked
}

#[test]
fn every_short_sequence_matches_a_resorted_vec() {
    let mut checked = 0;
    for cap in CAPACITIES {
        let start = State {
            queue: SortedQueue::new(cap),
            model: Vec::new(),
            next_id: 0,
        };
        checked += explore(&start, cap, &mut Vec::new());
    }
    // 6 + 6² + … + 6⁶ operations per capacity.
    let per_capacity: usize = (1..=DEPTH as u32).map(|k| OPS.len().pow(k)).sum();
    assert_eq!(checked, CAPACITIES.len() * per_capacity);
}
