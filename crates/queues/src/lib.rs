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
//! head = greatest value. All algorithm operations used by GM/PG/CGU/CPG —
//! head (`g`), tail (`l`), preempt-least, remove-by-id — are O(B) or better,
//! and B (buffer capacity) is small in every realistic configuration, so a
//! sorted `Vec` dominates any pointer-based structure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod grid;
mod sorted_queue;

pub use grid::Grid;
pub use sorted_queue::SortedQueue;
