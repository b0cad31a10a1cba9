//! # cioq-queues
//!
//! The buffer substrate of the switch simulator: bounded, **non-FIFO**,
//! value-sorted packet queues. A [`QueueStore`] keeps a whole class of
//! them — the N×M virtual output queues, the crossbar queues, the output
//! queues — in one recycled packet slab; [`SortedQueue`] is a store of one
//! cell, for a queue held on its own.
//!
//! The paper's queues are non-FIFO ("packets may be stored in and released
//! from queues in any arbitrary order") and its analysis assumption A3 keeps
//! every queue sorted by value with consistent tie-breaking. Every queue
//! here implements exactly that discipline: descending value, ascending
//! packet id, head = greatest value. A queue stores the handles of its
//! packets least-first (tail first, head last), because every policy takes
//! the head `g` on each transfer and transmission but the tail `l` only
//! when it preempts: taking the head is O(1), an insert is O(packets above
//! the new one), and taking the tail or removing by id is O(len). B (buffer
//! capacity) is small in every realistic configuration, so a sorted array
//! of handles dominates any pointer-based structure. Nothing allocates
//! after construction: a store reserves `cells × B` packet slots up front,
//! and a freed slot is the next insert's.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod sorted_queue;
mod store;

pub use sorted_queue::SortedQueue;
pub use store::{QueueMut, QueueRef, QueueStore};
