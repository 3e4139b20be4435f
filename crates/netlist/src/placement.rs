//! Cell position container.

use crate::ids::CellId;
use kraftwerk_geom::{Point, Rect, Vector};

/// A placement: one center coordinate per cell, indexed by [`CellId`].
///
/// A `Placement` is deliberately dumb — it knows nothing about which cells
/// are fixed; the placers enforce that. This keeps it cheap to clone and
/// lets metrics code treat every placement uniformly.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Placement {
    positions: Vec<Point>,
}

impl Placement {
    /// Creates a placement from raw positions, one per cell in id order.
    #[must_use]
    pub fn from_positions(positions: Vec<Point>) -> Self {
        Self { positions }
    }

    /// Number of cells covered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether the placement covers no cells.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Center position of a cell.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of range for this placement.
    #[must_use]
    pub fn position(&self, cell: CellId) -> Point {
        self.positions[cell.index()]
    }

    /// Moves a cell to a new center position.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of range for this placement.
    pub fn set_position(&mut self, cell: CellId, at: Point) {
        self.positions[cell.index()] = at;
    }

    /// Translates a cell by a displacement.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of range for this placement.
    pub fn translate(&mut self, cell: CellId, by: Vector) {
        self.positions[cell.index()] += by;
    }

    /// Read-only view of all positions in cell-id order.
    #[must_use]
    pub fn positions(&self) -> &[Point] {
        &self.positions
    }

    /// The cell's footprint rectangle given its size.
    #[must_use]
    pub fn cell_rect(&self, cell: CellId, size: kraftwerk_geom::Size) -> Rect {
        Rect::from_center(self.position(cell), size)
    }

    /// Total displacement (sum of Euclidean distances) to another placement
    /// of the same length. Used by the ECO experiments to quantify how much
    /// an incremental change disturbed the placement.
    ///
    /// # Panics
    ///
    /// Panics if the two placements have different lengths.
    #[must_use]
    pub fn total_displacement(&self, other: &Placement) -> f64 {
        assert_eq!(self.len(), other.len(), "placement size mismatch");
        self.positions
            .iter()
            .zip(&other.positions)
            .map(|(a, b)| a.distance(*b))
            .sum()
    }

    /// Largest single-cell displacement to another placement.
    ///
    /// # Panics
    ///
    /// Panics if the two placements have different lengths.
    #[must_use]
    pub fn max_displacement(&self, other: &Placement) -> f64 {
        assert_eq!(self.len(), other.len(), "placement size mismatch");
        self.positions
            .iter()
            .zip(&other.positions)
            .map(|(a, b)| a.distance(*b))
            .fold(0.0, f64::max)
    }
}

impl FromIterator<Point> for Placement {
    fn from_iter<I: IntoIterator<Item = Point>>(iter: I) -> Self {
        Self {
            positions: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(n: usize) -> Vec<CellId> {
        (0..n).map(CellId::from_index).collect()
    }

    #[test]
    fn set_and_translate() {
        let mut p = Placement::from_positions(vec![Point::ORIGIN; 3]);
        let id = ids(3);
        p.set_position(id[1], Point::new(2.0, 3.0));
        p.translate(id[1], Vector::new(1.0, -1.0));
        assert_eq!(p.position(id[1]), Point::new(3.0, 2.0));
        assert_eq!(p.position(id[0]), Point::ORIGIN);
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
    }

    #[test]
    fn displacement_metrics() {
        let a = Placement::from_positions(vec![Point::new(0.0, 0.0), Point::new(1.0, 1.0)]);
        let b = Placement::from_positions(vec![Point::new(3.0, 4.0), Point::new(1.0, 1.0)]);
        assert_eq!(a.total_displacement(&b), 5.0);
        assert_eq!(a.max_displacement(&b), 5.0);
        assert_eq!(a.total_displacement(&a), 0.0);
    }

    #[test]
    #[should_panic(expected = "placement size mismatch")]
    fn displacement_size_mismatch_panics() {
        let a = Placement::from_positions(vec![Point::ORIGIN]);
        let b = Placement::from_positions(vec![Point::ORIGIN, Point::ORIGIN]);
        let _ = a.total_displacement(&b);
    }

    #[test]
    fn from_iterator_collects() {
        let p: Placement = (0..4).map(|i| Point::new(i as f64, 0.0)).collect();
        assert_eq!(p.len(), 4);
        assert_eq!(p.position(CellId::from_index(3)), Point::new(3.0, 0.0));
    }
}
