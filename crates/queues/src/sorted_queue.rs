//! One bounded value-sorted packet queue: a one-cell [`QueueStore`].

use crate::store::{QueueMut, QueueRef, QueueStore};
use cioq_model::{Packet, PacketId, Value};
use std::fmt;

/// A bounded, non-FIFO packet queue kept sorted by (value desc, id asc):
/// a [`QueueStore`] of one cell, for code that holds a queue on its own.
/// The switch keeps each class of its queues in one store instead.
///
/// * `head()` is `g` — the packet with the greatest value (paper notation
///   `g_ij(t)`), position 1 in the paper's `δ(k, t)` indexing.
/// * `tail()` is `l` — the packet with the least value (`l_ij(t)` / `l_j(t)`).
/// * `insert` refuses to overflow: callers decide whether to preempt first
///   (that decision is algorithm policy, not buffer mechanics).
///
/// Construction reserves the full capacity; nothing allocates after it.
/// Equality and `Debug` are about content, as [`QueueRef`]'s are.
#[derive(Clone)]
pub struct SortedQueue {
    /// The one cell. snapshot: serialized — as content, the packets in
    /// `iter()` order, greatest first.
    store: QueueStore,
}

impl SortedQueue {
    /// Create an empty queue with capacity `B ≥ 1`.
    pub fn new(capacity: usize) -> Self {
        SortedQueue {
            store: QueueStore::new(1, capacity),
        }
    }

    /// Read view of the queue, as the switch's stores hand them out.
    #[inline]
    pub fn view(&self) -> QueueRef<'_> {
        self.store.get(0)
    }

    #[inline]
    fn cell(&mut self) -> QueueMut<'_> {
        self.store.get_mut(0)
    }

    /// Capacity `B(Q)`.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.store.capacity()
    }

    /// Number of packets currently stored, `|Q(t)|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.view().len()
    }

    /// Whether the queue holds no packets.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.view().is_empty()
    }

    /// Whether the queue is at capacity.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.view().is_full()
    }

    /// The packet with the greatest value (`g`), if any.
    #[inline]
    pub fn head(&self) -> Option<&Packet> {
        self.view().head()
    }

    /// The packet with the least value (`l`), if any.
    #[inline]
    pub fn tail(&self) -> Option<&Packet> {
        self.view().tail()
    }

    /// Value of the head packet, if any.
    #[inline]
    pub fn head_value(&self) -> Option<Value> {
        self.view().head_value()
    }

    /// Value of the tail (least) packet, if any.
    #[inline]
    pub fn tail_value(&self) -> Option<Value> {
        self.view().tail_value()
    }

    /// Iterate packets head-to-tail (descending value).
    pub fn iter(&self) -> impl Iterator<Item = &Packet> {
        self.view().iter()
    }

    /// Sum of all stored values (u128 to match benefit accounting).
    pub fn total_value(&self) -> u128 {
        self.view().total_value()
    }

    /// Insert a packet, keeping sorted order. Returns `Err(packet)` if the
    /// queue is full (the caller may preempt and retry).
    pub fn insert(&mut self, p: Packet) -> Result<(), Packet> {
        self.cell().insert(p)
    }

    /// Remove and return the head (greatest-value) packet. O(1).
    pub fn pop_head(&mut self) -> Option<Packet> {
        self.cell().pop_head()
    }

    /// Remove and return the tail (least-value) packet — the preemption
    /// victim `l` in PG/CPG. O(len).
    pub fn pop_tail(&mut self) -> Option<Packet> {
        self.cell().pop_tail()
    }

    /// Remove a specific packet by id. O(B).
    pub fn remove(&mut self, id: PacketId) -> Option<Packet> {
        self.cell().remove(id)
    }

    /// Whether the invariant (sorted by value desc, id asc; within capacity)
    /// holds. Used by property tests.
    pub fn check_invariants(&self) -> bool {
        self.store.check_invariants().is_ok()
    }
}

impl PartialEq for SortedQueue {
    fn eq(&self, other: &Self) -> bool {
        self.view() == other.view()
    }
}

impl Eq for SortedQueue {}

impl fmt::Debug for SortedQueue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.view().fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cioq_model::{PacketId, PortId};
    use proptest::prelude::*;

    fn mk(id: u64, value: Value) -> Packet {
        Packet::new(PacketId(id), value, 0, PortId(0), PortId(0))
    }

    #[test]
    fn insert_keeps_sorted_order() {
        let mut q = SortedQueue::new(8);
        for (id, v) in [(0, 5), (1, 9), (2, 1), (3, 9), (4, 7)] {
            q.insert(mk(id, v)).unwrap();
        }
        let values: Vec<_> = q.iter().map(|p| p.value).collect();
        assert_eq!(values, vec![9, 9, 7, 5, 1]);
        // Equal values: lower id first (assumption A3 consistency).
        assert_eq!(q.head().unwrap().id, PacketId(1));
        assert!(q.check_invariants());
    }

    #[test]
    fn full_queue_rejects_insert() {
        let mut q = SortedQueue::new(2);
        q.insert(mk(0, 1)).unwrap();
        q.insert(mk(1, 2)).unwrap();
        let rejected = q.insert(mk(2, 3)).unwrap_err();
        assert_eq!(rejected.id, PacketId(2));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn preempt_least_then_insert() {
        let mut q = SortedQueue::new(2);
        q.insert(mk(0, 1)).unwrap();
        q.insert(mk(1, 5)).unwrap();
        let victim = q.pop_tail().unwrap();
        assert_eq!(victim.value, 1);
        q.insert(mk(2, 9)).unwrap();
        assert_eq!(q.head_value(), Some(9));
        assert_eq!(q.tail_value(), Some(5));
    }

    #[test]
    fn head_and_tail_on_empty() {
        let mut q = SortedQueue::new(1);
        assert!(q.head().is_none());
        assert!(q.tail().is_none());
        assert!(q.pop_head().is_none());
        assert!(q.pop_tail().is_none());
    }

    #[test]
    fn remove_by_id() {
        let mut q = SortedQueue::new(4);
        q.insert(mk(0, 3)).unwrap();
        q.insert(mk(1, 7)).unwrap();
        q.insert(mk(2, 5)).unwrap();
        assert_eq!(q.remove(PacketId(2)).unwrap().value, 5);
        assert_eq!(q.remove(PacketId(2)), None);
        assert_eq!(q.len(), 2);
        assert!(q.check_invariants());
    }

    #[test]
    fn total_value_sums() {
        let mut q = SortedQueue::new(4);
        q.insert(mk(0, 3)).unwrap();
        q.insert(mk(1, 7)).unwrap();
        assert_eq!(q.total_value(), 10);
    }

    proptest! {
        /// Random insert / pop-head / pop-tail / remove sequences keep the
        /// queue sorted, within capacity, and in the same head-to-tail order
        /// as a model implemented over a plain sorted Vec.
        #[test]
        fn random_ops_preserve_invariants(
            cap in 1usize..8,
            ops in prop::collection::vec((0u8..4, 1u64..16), 0..64)
        ) {
            let mut q = SortedQueue::new(cap);
            let mut model: Vec<Packet> = Vec::new();
            let mut next_id = 0u64;
            for (op, v) in ops {
                match op {
                    0 => {
                        let p = mk(next_id, v);
                        next_id += 1;
                        let res = q.insert(p);
                        if model.len() < cap {
                            prop_assert!(res.is_ok());
                            model.push(p);
                            model.sort_by_key(|p| p.queue_key());
                        } else {
                            prop_assert!(res.is_err());
                        }
                    }
                    1 => {
                        let got = q.pop_head().map(|p| p.id);
                        let want = if model.is_empty() { None } else { Some(model.remove(0).id) };
                        prop_assert_eq!(got, want);
                    }
                    2 => {
                        let got = q.pop_tail().map(|p| p.id);
                        let want = model.pop().map(|p| p.id);
                        prop_assert_eq!(got, want);
                    }
                    _ => {
                        // remove a pseudo-random existing id (if any)
                        if let Some(p) = model.get((v as usize) % model.len().max(1)).copied() {
                            let got = q.remove(p.id);
                            prop_assert!(got.is_some());
                            model.retain(|m| m.id != p.id);
                        }
                    }
                }
                prop_assert!(q.check_invariants());
                prop_assert_eq!(q.len(), model.len());
                let ids: Vec<_> = q.iter().map(|p| p.id).collect();
                let want: Vec<_> = model.iter().map(|p| p.id).collect();
                prop_assert_eq!(ids, want);
            }
        }
    }
}
