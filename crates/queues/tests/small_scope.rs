//! Exhaustive small-scope check of `SortedQueue`, and of two cells of one
//! `QueueStore` driven interleaved, against an independent model: every
//! sequence of up to [`DEPTH`] operations, for every capacity in
//! [`CAPACITIES`], compared in full after each step.
//!
//! The model is a plain `Vec<Packet>` per queue, re-sorted by
//! `queue_key()` (head first) after every change; it shares no code with
//! the queues. Values come from {1, 2, 3} with fresh ascending ids, so ties
//! between equal values occur on most paths. Two cells of one store share
//! its slab and free list, so an interleaved path catches a slot one cell
//! frees and the other reuses while it is still held.

use cioq_model::{Packet, PacketId, PortId, Value};
use cioq_queues::{QueueRef, QueueStore, SortedQueue};

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

/// The queues under test: one queue on its own, or the cells of a store.
#[derive(Clone)]
enum Queues {
    One(SortedQueue),
    Store(QueueStore),
}

impl Queues {
    fn view(&self, cell: usize) -> QueueRef<'_> {
        match self {
            Queues::One(q) => q.view(),
            Queues::Store(s) => s.get(cell),
        }
    }

    fn apply(&mut self, cell: usize, op: Op, p: Packet, id: PacketId) -> Result<Packet, Packet> {
        let none = || Err(p);
        match (self, op) {
            (Queues::One(q), Op::Insert(_)) => q.insert(p).map(|()| p),
            (Queues::One(q), Op::PopHead) => q.pop_head().map_or_else(none, Ok),
            (Queues::One(q), Op::PopTail) => q.pop_tail().map_or_else(none, Ok),
            (Queues::One(q), Op::RemoveOldest) => q.remove(id).map_or_else(none, Ok),
            (Queues::Store(s), Op::Insert(_)) => s.get_mut(cell).insert(p).map(|()| p),
            (Queues::Store(s), Op::PopHead) => s.get_mut(cell).pop_head().map_or_else(none, Ok),
            (Queues::Store(s), Op::PopTail) => s.get_mut(cell).pop_tail().map_or_else(none, Ok),
            (Queues::Store(s), Op::RemoveOldest) => {
                s.get_mut(cell).remove(id).map_or_else(none, Ok)
            }
        }
    }

    fn check(&self) -> Result<(), String> {
        match self {
            Queues::One(q) => q.check_invariants().then_some(()).ok_or_else(String::new),
            Queues::Store(s) => s.check_invariants(),
        }
    }
}

#[derive(Clone)]
struct State {
    queues: Queues,
    models: Vec<Vec<Packet>>,
    next_id: u64,
}

fn packet(id: u64, value: Value) -> Packet {
    Packet::new(PacketId(id), value, 0, PortId(0), PortId(0))
}

/// Apply `op` to cell `cell` of both sides, assert they agree on its
/// result and on every observable of every cell afterwards.
fn step(s: &mut State, (cell, op): (usize, Op), cap: usize, path: &[(usize, Op)]) {
    let ctx = || format!("capacity {cap}, path {path:?}");
    let fresh = packet(s.next_id, 1);
    let model = &mut s.models[cell];
    match op {
        Op::Insert(v) => {
            let p = packet(s.next_id, v);
            s.next_id += 1;
            let got = s.queues.apply(cell, op, p, p.id);
            if model.len() < cap {
                assert_eq!(got, Ok(p), "{}", ctx());
                model.push(p);
                model.sort_by_key(|p| p.queue_key());
            } else {
                assert_eq!(got, Err(p), "a full queue returns the packet: {}", ctx());
            }
        }
        Op::PopHead => {
            let want = (!model.is_empty()).then(|| model.remove(0));
            let got = s.queues.apply(cell, op, fresh, fresh.id).ok();
            assert_eq!(got, want, "{}", ctx());
        }
        Op::PopTail => {
            let got = s.queues.apply(cell, op, fresh, fresh.id).ok();
            assert_eq!(got, model.pop(), "{}", ctx());
        }
        Op::RemoveOldest => {
            let id = model.iter().map(|p| p.id).min();
            let want = id.map(|id| {
                let k = model.iter().position(|p| p.id == id).unwrap();
                model.remove(k)
            });
            let id = id.unwrap_or(PacketId(s.next_id));
            assert_eq!(s.queues.apply(cell, op, fresh, id).ok(), want, "{}", ctx());
        }
    }
    for (c, m) in s.models.iter().enumerate() {
        let q = s.queues.view(c);
        let ids = q.iter().map(|p| p.id);
        assert!(
            ids.eq(m.iter().map(|p| p.id)),
            "iter() order of cell {c}: {}",
            ctx()
        );
        assert_eq!(q.head(), m.first(), "{}", ctx());
        assert_eq!(q.tail(), m.last(), "{}", ctx());
        assert_eq!(q.head_value(), m.first().map(|p| p.value), "{}", ctx());
        assert_eq!(q.tail_value(), m.last().map(|p| p.value), "{}", ctx());
        assert_eq!(q.len(), m.len(), "{}", ctx());
        assert_eq!(q.is_empty(), m.is_empty(), "{}", ctx());
        assert_eq!(q.is_full(), m.len() >= cap, "{}", ctx());
        assert_eq!(q.capacity(), cap, "{}", ctx());
        let total: u128 = m.iter().map(|p| p.value as u128).sum();
        assert_eq!(q.total_value(), total, "{}", ctx());
    }
    if let Queues::Store(store) = &s.queues {
        let held: usize = s.models.iter().map(Vec::len).sum();
        assert_eq!(store.live(), held, "live slots: {}", ctx());
    }
    assert_eq!(s.queues.check(), Ok(()), "{}", ctx());
}

/// Depth-first over every continuation of `path` by an operation on one of
/// the state's cells; returns the operations checked.
fn explore(s: &State, cap: usize, path: &mut Vec<(usize, Op)>) -> usize {
    if path.len() == DEPTH {
        return 0;
    }
    // Two cells are interchangeable — the slab hands out slots by order,
    // never by cell — so a path whose first operation is on cell 1 is the
    // mirror image of one that starts on cell 0, and only the latter runs.
    let cells = if path.is_empty() { 1 } else { s.models.len() };
    let mut checked = 0;
    for cell in 0..cells {
        for op in OPS {
            path.push((cell, op));
            let mut next = s.clone();
            step(&mut next, (cell, op), cap, path);
            checked += 1 + explore(&next, cap, path);
            path.pop();
        }
    }
    checked
}

/// Every path of up to [`DEPTH`] operations on `cells` cells, one
/// capacity per thread: the operations checked, and the count expected.
fn every_path(cells: usize, queues: impl Fn(usize) -> Queues + Sync) -> (usize, usize) {
    let search = |cap| {
        let start = State {
            queues: queues(cap),
            models: vec![Vec::new(); cells],
            next_id: 0,
        };
        explore(&start, cap, &mut Vec::new())
    };
    let checked = std::thread::scope(|scope| {
        let searches = CAPACITIES.map(|cap| scope.spawn(move || search(cap)));
        searches
            .map(|s| s.join().expect("search panicked"))
            .iter()
            .sum()
    });
    // |OPS| · (1 + k + … + k^(DEPTH − 1)) operations per capacity,
    // k = cells × |OPS|: the first on cell 0, each later one on any cell.
    let per_capacity: usize = (0..DEPTH as u32)
        .map(|d| OPS.len() * (cells * OPS.len()).pow(d))
        .sum();
    (checked, CAPACITIES.len() * per_capacity)
}

#[test]
fn every_short_sequence_matches_a_resorted_vec() {
    let (checked, want) = every_path(1, |cap| Queues::One(SortedQueue::new(cap)));
    assert_eq!(checked, want);
}

#[test]
fn two_cells_of_one_store_match_two_resorted_vecs() {
    let (checked, want) = every_path(2, |cap| Queues::Store(QueueStore::new(2, cap)));
    assert_eq!(checked, want);
}
