//! # cioq-queues
//!
//! The buffer substrate of the switch simulator: bounded, **non-FIFO**,
//! value-sorted packet queues (`SortedQueue`) and a dense `Grid` container
//! for the N×M matrix of virtual output queues / crossbar queues.
//!
//! The paper's queues are non-FIFO ("packets may be stored in and released
//! from queues in any arbitrary order") and its analysis assumption A3 keeps
//! every queue sorted by value with consistent tie-breaking. `SortedQueue`
//! implements exactly that discipline: descending value, ascending packet id,
//! head = greatest value. It stores its packets least-first (tail at index 0,
//! head at the end), because every policy takes the head `g` on each transfer
//! and transmission but the tail `l` only when it preempts: taking the head
//! is O(1), an insert is O(packets above the new one), and taking the tail or
//! removing by id is O(len). B (buffer capacity) is small in every realistic
//! configuration, so a sorted `Vec` dominates any pointer-based structure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod grid;
mod sorted_queue;

pub use grid::Grid;
pub use sorted_queue::SortedQueue;
