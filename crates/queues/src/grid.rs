//! Dense row-major grid indexed by (input port, output port).

use cioq_model::PortId;
use std::ops::Range;

/// A matrix of `T` over a contiguous band of input-port rows and all
/// `n_outputs` columns, used for the virtual output queues `Q_ij` and the
/// crossbar queues `C_ij`. Rows are addressed by **global** index: the
/// whole `N × M` grid is the band `0..N`, and a shard of the sharded engine
/// holds the band of rows it owns.
///
/// Stored row-major (input-major) in one contiguous allocation, so iterating
/// a single input port's queues is cache-friendly — that is the access
/// pattern of every scheduling policy in the workspace. A band is one such
/// allocation, owned by the simulator's `QueueBand` that holds those rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Grid<T> {
    row_offset: usize,
    n_inputs: usize,
    n_outputs: usize,
    cells: Vec<T>,
}

impl<T> Grid<T> {
    /// Build the band covering global rows `rows` by calling
    /// `f(global_row, col)` for every cell.
    pub fn band(
        rows: Range<usize>,
        n_outputs: usize,
        mut f: impl FnMut(usize, usize) -> T,
    ) -> Self {
        let mut cells = Vec::with_capacity(rows.len() * n_outputs);
        for i in rows.clone() {
            for j in 0..n_outputs {
                cells.push(f(i, j));
            }
        }
        Grid {
            row_offset: rows.start,
            n_inputs: rows.len(),
            n_outputs,
            cells,
        }
    }

    /// The global input-port rows held.
    #[inline]
    pub fn rows(&self) -> Range<usize> {
        self.row_offset..self.row_offset + self.n_inputs
    }

    /// Number of input-port rows held.
    #[inline]
    pub fn n_inputs(&self) -> usize {
        self.n_inputs
    }

    /// Number of output-port columns.
    #[inline]
    pub fn n_outputs(&self) -> usize {
        self.n_outputs
    }

    #[inline]
    fn idx(&self, i: usize, j: usize) -> usize {
        debug_assert!(self.rows().contains(&i), "row {i} outside band");
        debug_assert!(j < self.n_outputs);
        (i - self.row_offset) * self.n_outputs + j
    }

    /// Shared access to cell `(i, j)`, `i` a global row of the band.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> &T {
        &self.cells[self.idx(i, j)]
    }

    /// Mutable access to cell `(i, j)`, `i` a global row of the band.
    #[inline]
    pub fn get_mut(&mut self, i: usize, j: usize) -> &mut T {
        let idx = self.idx(i, j);
        &mut self.cells[idx]
    }

    /// Shared access via typed port ids.
    #[inline]
    pub fn at(&self, input: PortId, output: PortId) -> &T {
        self.get(input.index(), output.index())
    }

    /// Mutable access via typed port ids.
    #[inline]
    pub fn at_mut(&mut self, input: PortId, output: PortId) -> &mut T {
        self.get_mut(input.index(), output.index())
    }

    /// Iterate all cells as `(i, j, &cell)`, row-major.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, &T)> {
        let (off, n_outputs) = (self.row_offset, self.n_outputs);
        self.cells
            .iter()
            .enumerate()
            .map(move |(k, c)| (off + k / n_outputs, k % n_outputs, c))
    }

    /// Iterate all cells mutably as `(i, j, &mut cell)`, row-major.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (usize, usize, &mut T)> {
        let (off, n_outputs) = (self.row_offset, self.n_outputs);
        self.cells
            .iter_mut()
            .enumerate()
            .map(move |(k, c)| (off + k / n_outputs, k % n_outputs, c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_band_addresses_globally() {
        let band = Grid::band(3..5, 4, |i, j| 10 * i + j);
        assert_eq!(band.rows(), 3..5);
        assert_eq!(band.n_inputs(), 2);
        assert_eq!(band.n_outputs(), 4);
        assert_eq!(*band.get(3, 0), 30);
        assert_eq!(*band.get(4, 3), 43);
        let all: Vec<_> = band.iter().map(|(i, j, &v)| (i, j, v)).collect();
        assert_eq!(all.len(), 8);
        assert_eq!(all[0], (3, 0, 30));
        assert_eq!(all[7], (4, 3, 43));
    }

    #[test]
    fn row_band_mutation() {
        let mut band = Grid::band(1..2, 2, |_, _| 0);
        *band.get_mut(1, 1) = 9;
        assert_eq!(*band.get(1, 1), 9);
        for (i, _, v) in band.iter_mut() {
            *v += i;
        }
        assert_eq!(*band.get(1, 1), 10);
    }

    #[test]
    fn whole_band_fills_row_major() {
        let g = Grid::band(0..2, 3, |i, j| 10 * i + j);
        assert_eq!(*g.get(0, 0), 0);
        assert_eq!(*g.get(0, 2), 2);
        assert_eq!(*g.get(1, 1), 11);
        assert_eq!(g.n_inputs(), 2);
        assert_eq!(g.n_outputs(), 3);
    }

    #[test]
    fn iter_yields_coordinates() {
        let g = Grid::band(0..2, 2, |i, j| i + j);
        let all: Vec<_> = g.iter().map(|(i, j, &v)| (i, j, v)).collect();
        assert_eq!(all, vec![(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 2)]);
    }

    #[test]
    fn mutation_through_port_ids() {
        let mut g = Grid::band(0..2, 2, |_, _| 0);
        *g.at_mut(PortId(1), PortId(0)) = 7;
        assert_eq!(*g.at(PortId(1), PortId(0)), 7);
        for (_, _, v) in g.iter_mut() {
            *v += 1;
        }
        assert_eq!(*g.get(0, 0), 1);
        assert_eq!(*g.get(1, 0), 8);
    }
}
