//! A class of bounded value-sorted queues kept in one recycled packet slab.

use cioq_model::{Packet, PacketId, Value};
use std::collections::TryReserveError;
use std::fmt;

/// Every queue of one class — `cells` queues of capacity `B` — in one
/// packet slab.
///
/// * The slab is one `Vec<Packet>` reserved at construction to `cells × B`
///   and never grown: a packet slot is taken by an insert and given back by
///   the pop or removal that takes the packet out.
/// * Freed slots go onto a LIFO free list of `u32` handles, so the next
///   insert reuses the slot the last pop freed: the slab's live prefix
///   stays as small as the class's peak occupancy, however many cells the
///   class has.
/// * Each cell is a block of `B + 1` `u32`s: its length, then the handles
///   of its packets least-first — the tail `l` first, the head `g` last.
///   Every transfer and transmission takes the head, so popping it is one
///   length decrement; an arrival is put at the head end and shifted down
///   past the packets that outrank it; only taking the tail (preemption)
///   or removing by id moves the handles behind the one taken.
///
/// Reads go through a [`QueueRef`], writes through a [`QueueMut`]; the
/// ordering rule — value descending, id ascending, assumption A3 — lives
/// in [`QueueMut::insert`] alone. Nothing allocates after construction,
/// except a [`Clone`], which reserves its own full slab.
pub struct QueueStore {
    /// Capacity `B` of every cell. snapshot: transient — part of the
    /// switch geometry, rebuilt from the config on restore.
    capacity: usize,
    /// Per cell `B + 1` words: the length, then the handles least-first.
    /// snapshot: serialized — as content, each cell's packets in
    /// [`QueueRef::iter`] order, greatest first.
    cells: Vec<u32>,
    /// The packet slots; a handle is an index. snapshot: transient — the
    /// slot layout and the handle numbering are rebuilt by the band's
    /// refill on restore.
    slab: Vec<Packet>,
    /// Handles of freed slots, last freed on top. snapshot: transient —
    /// rebuilt with the slab on restore.
    free: Vec<u32>,
}

impl QueueStore {
    /// `cells` empty queues of capacity `B = capacity ≥ 1`, every
    /// reservation made now. Panics if the reservation fails; see
    /// [`QueueStore::try_new`].
    pub fn new(cells: usize, capacity: usize) -> Self {
        Self::try_new(cells, capacity).unwrap_or_else(|e| panic!("queue store: {e}"))
    }

    /// `cells` empty queues of capacity `B = capacity ≥ 1`, or the error of
    /// the reservation the host could not satisfy. Panics on a zero
    /// capacity or when `cells × B` exceeds `u32::MAX`, the handle range
    /// (`SwitchConfig`'s builder refuses such switches).
    pub fn try_new(cells: usize, capacity: usize) -> Result<Self, TryReserveError> {
        assert!(capacity >= 1, "queue capacity must be >= 1");
        let (slots, words) = cells
            .checked_mul(capacity)
            .filter(|&s| u32::try_from(s).is_ok())
            .zip(cells.checked_mul(capacity + 1))
            .unwrap_or_else(|| panic!("{cells} queues of {capacity} overflow u32 handles"));
        let mut store = QueueStore {
            capacity,
            cells: Vec::new(),
            slab: Vec::new(),
            free: Vec::new(),
        };
        store.cells.try_reserve_exact(words)?;
        store.slab.try_reserve_exact(slots)?;
        store.free.try_reserve_exact(slots)?;
        store.cells.resize(words, 0);
        Ok(store)
    }

    /// Capacity `B` of every cell.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of cells.
    #[inline]
    pub fn cells(&self) -> usize {
        self.cells.len() / (self.capacity + 1)
    }

    /// Packets held across all cells: the slab's used slots less the
    /// freed ones. O(1).
    #[inline]
    pub fn live(&self) -> usize {
        self.slab.len() - self.free.len()
    }

    /// Read view of cell `cell`.
    #[inline]
    pub fn get(&self, cell: usize) -> QueueRef<'_> {
        let at = cell * (self.capacity + 1);
        QueueRef {
            block: &self.cells[at..at + self.capacity + 1],
            slab: &self.slab,
        }
    }

    /// Write handle on cell `cell`.
    #[inline]
    pub fn get_mut(&mut self, cell: usize) -> QueueMut<'_> {
        let at = cell * (self.capacity + 1);
        QueueMut {
            block: &mut self.cells[at..at + self.capacity + 1],
            slab: &mut self.slab,
            free: &mut self.free,
        }
    }

    /// Every cell in order.
    pub fn iter(&self) -> impl Iterator<Item = QueueRef<'_>> {
        let slab = &self.slab;
        self.cells
            .chunks_exact(self.capacity + 1)
            .map(move |block| QueueRef { block, slab })
    }

    /// Sum of every stored value.
    pub fn total_value(&self) -> u128 {
        self.iter().map(|q| q.total_value()).sum()
    }

    /// Verify the store: every cell within capacity and sorted (value
    /// descending, id ascending), and the slab conserved — every used
    /// slot either live in exactly one cell or on the free list exactly
    /// once, so `live()` is the sum of the lengths. Returns a description
    /// of the first violation.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut seen = vec![false; self.slab.len()];
        let mut claim = |h: u32| match seen.get_mut(h as usize) {
            Some(s) if !*s => {
                *s = true;
                Ok(())
            }
            Some(_) => Err(format!("handle {h} is held twice")),
            None => Err(format!("handle {h} is past the slab")),
        };
        let mut total = 0;
        for (c, block) in self.cells.chunks_exact(self.capacity + 1).enumerate() {
            let len = block[0] as usize;
            if len > self.capacity {
                return Err(format!("cell {c} holds {len} packets, over capacity"));
            }
            // Least-first: the keys fall from the tail to the head.
            let mut above = None;
            for &h in &block[1..=len] {
                claim(h).map_err(|e| format!("cell {c}: {e}"))?;
                let key = self.slab[h as usize].queue_key();
                if above.is_some_and(|k| k < key) {
                    return Err(format!("cell {c} is out of order"));
                }
                above = Some(key);
            }
            total += len;
        }
        for &h in &self.free {
            claim(h).map_err(|e| format!("free list: {e}"))?;
        }
        if total != self.live() {
            return Err(format!(
                "cells hold {total} packets, the slab {} live",
                self.live()
            ));
        }
        Ok(())
    }
}

impl Clone for QueueStore {
    /// A copy with its own full reservation, so it never grows either.
    fn clone(&self) -> Self {
        let mut copy = QueueStore::new(self.cells(), self.capacity);
        copy.cells.copy_from_slice(&self.cells);
        copy.slab.extend_from_slice(&self.slab);
        copy.free.extend_from_slice(&self.free);
        copy
    }
}

impl fmt::Debug for QueueStore {
    /// Every non-empty cell's content by cell — never the slab layout.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let queues = self.iter().enumerate().filter(|(_, q)| !q.is_empty());
        f.debug_map().entries(queues).finish()
    }
}

/// Read view of one queue of a [`QueueStore`], a bounded non-FIFO queue
/// kept sorted by (value desc, id asc).
///
/// * `head()` is `g` — the packet with the greatest value (paper notation
///   `g_ij(t)`), position 1 in the paper's `δ(k, t)` indexing.
/// * `tail()` is `l` — the packet with the least value (`l_ij(t)` / `l_j(t)`).
///
/// Equality and `Debug` are about content — the capacity and the packets
/// head → tail — never about where in the slab they sit.
#[derive(Clone, Copy)]
pub struct QueueRef<'a> {
    /// The cell's length, then its handles least-first.
    block: &'a [u32],
    slab: &'a [Packet],
}

impl<'a> QueueRef<'a> {
    /// Capacity `B(Q)`.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.block.len() - 1
    }

    /// Number of packets currently stored, `|Q(t)|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.block[0] as usize
    }

    /// Whether the queue holds no packets.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.block[0] == 0
    }

    /// Whether the queue is at capacity.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.len() >= self.capacity()
    }

    /// The packet with the greatest value (`g`), if any.
    #[inline]
    pub fn head(&self) -> Option<&'a Packet> {
        let (len, slab) = (self.len(), self.slab);
        (len > 0).then(|| &slab[self.block[len] as usize])
    }

    /// The packet with the least value (`l`), if any.
    #[inline]
    pub fn tail(&self) -> Option<&'a Packet> {
        let slab = self.slab;
        (!self.is_empty()).then(|| &slab[self.block[1] as usize])
    }

    /// Value of the head packet, if any.
    #[inline]
    pub fn head_value(&self) -> Option<Value> {
        self.head().map(|p| p.value)
    }

    /// Value of the tail (least) packet, if any.
    #[inline]
    pub fn tail_value(&self) -> Option<Value> {
        self.tail().map(|p| p.value)
    }

    /// Iterate packets head-to-tail (descending value).
    pub fn iter(&self) -> impl Iterator<Item = &'a Packet> + 'a {
        let slab = self.slab;
        self.block[1..=self.len()]
            .iter()
            .rev()
            .map(move |&h| &slab[h as usize])
    }

    /// Sum of all stored values (u128 to match benefit accounting).
    pub fn total_value(&self) -> u128 {
        self.iter().map(|p| p.value as u128).sum()
    }
}

impl PartialEq for QueueRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.capacity() == other.capacity() && self.iter().eq(other.iter())
    }
}

impl Eq for QueueRef<'_> {}

impl fmt::Debug for QueueRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Queue")
            .field("capacity", &self.capacity())
            .field("packets", &self.iter().collect::<Vec<_>>())
            .finish()
    }
}

/// Write handle on one queue of a [`QueueStore`]: the one home of the
/// ordering rule. `insert` refuses to overflow — callers decide whether
/// to preempt first (that decision is algorithm policy, not buffer
/// mechanics).
pub struct QueueMut<'a> {
    /// The cell's length, then its handles least-first.
    block: &'a mut [u32],
    slab: &'a mut Vec<Packet>,
    free: &'a mut Vec<u32>,
}

impl QueueMut<'_> {
    /// Read view of the queue.
    #[inline]
    pub fn view(&self) -> QueueRef<'_> {
        QueueRef {
            block: &*self.block,
            slab: &self.slab[..],
        }
    }

    /// Give slot `h` back: the next insert takes it.
    #[inline(always)]
    fn release(&mut self, h: u32) -> Packet {
        self.free.push(h);
        self.slab[h as usize]
    }

    /// Insert a packet, keeping sorted order. Returns `Err(packet)` if the
    /// queue is full (the caller may preempt and retry). O(packets above
    /// the new one).
    #[inline(always)]
    pub fn insert(&mut self, p: Packet) -> Result<(), Packet> {
        let len = self.block[0] as usize;
        if len + 1 >= self.block.len() {
            return Err(p);
        }
        let h = match self.free.pop() {
            Some(h) => {
                self.slab[h as usize] = p;
                h
            }
            None => {
                debug_assert!(self.slab.len() < self.slab.capacity(), "slab grew");
                self.slab.push(p);
                (self.slab.len() - 1) as u32
            }
        };
        // Shift down past every packet that outranks `p` (a smaller key).
        let key = p.queue_key();
        let mut pos = len + 1;
        while pos > 1 && self.slab[self.block[pos - 1] as usize].queue_key() < key {
            self.block[pos] = self.block[pos - 1];
            pos -= 1;
        }
        self.block[pos] = h;
        self.block[0] = (len + 1) as u32;
        Ok(())
    }

    /// Remove and return the head (greatest-value) packet. O(1).
    #[inline(always)]
    pub fn pop_head(&mut self) -> Option<Packet> {
        let len = self.block[0] as usize;
        if len == 0 {
            return None;
        }
        self.block[0] = (len - 1) as u32;
        Some(self.release(self.block[len]))
    }

    /// Remove and return the tail (least-value) packet — the preemption
    /// victim `l` in PG/CPG ("if p is accepted while the queue is full,
    /// l is preempted"). O(len): the handles above it move down.
    #[inline(always)]
    pub fn pop_tail(&mut self) -> Option<Packet> {
        (!self.view().is_empty()).then(|| self.take(1))
    }

    /// Remove a specific packet by id. O(B).
    #[inline(always)]
    pub fn remove(&mut self, id: PacketId) -> Option<Packet> {
        let len = self.block[0] as usize;
        let slab = &self.slab;
        let at = self.block[1..=len]
            .iter()
            .position(|&h| slab[h as usize].id == id)?;
        Some(self.take(at + 1))
    }

    /// Take the packet at block position `pos` (1 = tail), closing the gap.
    #[inline(always)]
    fn take(&mut self, pos: usize) -> Packet {
        let len = self.block[0] as usize;
        let h = self.block[pos];
        self.block.copy_within(pos + 1..=len, pos);
        self.block[0] = (len - 1) as u32;
        self.release(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cioq_model::PortId;

    fn mk(id: u64, value: Value) -> Packet {
        Packet::new(PacketId(id), value, 0, PortId(0), PortId(0))
    }

    fn values(q: QueueRef<'_>) -> Vec<Value> {
        q.iter().map(|p| p.value).collect()
    }

    #[test]
    fn cells_are_independent_queues() {
        let mut store = QueueStore::new(3, 2);
        assert_eq!((store.cells(), store.capacity(), store.live()), (3, 2, 0));
        store.get_mut(0).insert(mk(0, 4)).unwrap();
        store.get_mut(2).insert(mk(1, 9)).unwrap();
        store.get_mut(2).insert(mk(2, 5)).unwrap();
        assert_eq!(store.get_mut(2).insert(mk(3, 7)), Err(mk(3, 7)));
        assert_eq!(values(store.get(0)), [4]);
        assert!(store.get(1).is_empty());
        assert_eq!(values(store.get(2)), [9, 5]);
        assert!(store.get(2).is_full());
        assert_eq!((store.live(), store.total_value()), (3, 18));
        assert_eq!(store.check_invariants(), Ok(()));
    }

    #[test]
    fn an_insert_reuses_the_slot_the_last_pop_freed() {
        let mut store = QueueStore::new(2, 2);
        store.get_mut(0).insert(mk(0, 1)).unwrap();
        store.get_mut(1).insert(mk(1, 2)).unwrap();
        store.get_mut(1).insert(mk(2, 3)).unwrap();
        assert_eq!(store.slab.len(), 3);
        // Cell 1's head sits in slot 2; cell 0's next arrival takes it.
        assert_eq!(store.get_mut(1).pop_head(), Some(mk(2, 3)));
        store.get_mut(0).insert(mk(3, 8)).unwrap();
        assert_eq!((store.slab.len(), store.free.len()), (3, 0));
        assert_eq!(store.slab[2], mk(3, 8));
        assert_eq!(values(store.get(0)), [8, 1]);
        assert_eq!(store.check_invariants(), Ok(()));
    }

    #[test]
    fn views_compare_and_print_content_not_layout() {
        let (mut a, mut b) = (QueueStore::new(1, 3), QueueStore::new(2, 3));
        // Same packets, different slots and arrival order.
        b.get_mut(1).insert(mk(9, 9)).unwrap();
        for p in [mk(0, 5), mk(1, 7)] {
            a.get_mut(0).insert(p).unwrap();
        }
        for p in [mk(1, 7), mk(0, 5)] {
            b.get_mut(0).insert(p).unwrap();
        }
        assert_eq!(a.get(0), b.get(0));
        assert_eq!(format!("{:?}", a.get(0)), format!("{:?}", b.get(0)));
        assert_ne!(a.get(0), b.get(1));
        assert_ne!(a.get(0), QueueStore::new(1, 4).get(0));
        let copy = b.clone();
        assert_eq!(copy.get(0), b.get(0));
        assert_eq!(format!("{copy:?}"), format!("{b:?}"));
        assert!(copy.slab.capacity() >= 6, "a clone reserves its full slab");
    }

    #[test]
    fn the_check_finds_a_leaked_or_doubly_freed_slot() {
        let mut store = QueueStore::new(2, 2);
        store.get_mut(0).insert(mk(0, 1)).unwrap();
        store.get_mut(1).insert(mk(1, 2)).unwrap();
        let mut leaked = store.clone();
        leaked.cells[0] = 0;
        assert!(leaked.check_invariants().is_err(), "a slot no one holds");
        let mut twice = store.clone();
        twice.get_mut(0).pop_head().unwrap();
        twice.free.push(0);
        assert!(twice.check_invariants().is_err(), "a slot freed twice");
        let mut shared = store.clone();
        shared.cells[4] = shared.cells[1];
        assert!(shared.check_invariants().is_err(), "a slot in two cells");
        let mut unsorted = store;
        unsorted.get_mut(0).insert(mk(2, 5)).unwrap();
        unsorted.cells.swap(1, 2);
        assert!(unsorted.check_invariants().is_err(), "a cell out of order");
    }

    #[test]
    #[should_panic(expected = "overflow u32 handles")]
    fn handles_past_u32_are_refused_before_any_reservation() {
        let _ = QueueStore::try_new(1 << 31, 2);
    }
}
