//! Validating netlist construction.

use crate::ids::{CellId, NetId, PinId};
use crate::model::{Cell, CellKind, Net, Netlist, Pin, PinDirection, Row};
use kraftwerk_geom::{Point, Rect, Size, Vector};
use std::error::Error;
use std::fmt;

/// Errors detected by [`NetlistBuilder::build`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum BuildError {
    /// No core region was provided.
    MissingCoreRegion,
    /// A net has fewer than two pins and can therefore not influence
    /// placement; carries the net name.
    DegenerateNet(String),
    /// A cell or net name is empty.
    EmptyName,
    /// A cell dimension is non-finite or non-positive; carries the cell
    /// name.
    InvalidDimension(String),
    /// The requested rows do not fit the core region vertically.
    RowsDoNotFit {
        /// Number of rows requested.
        rows: usize,
        /// Height of each row.
        row_height: f64,
        /// Vertical extent of the core region.
        core_height: f64,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::MissingCoreRegion => write!(f, "no core region was set"),
            BuildError::DegenerateNet(name) => {
                write!(f, "net `{name}` has fewer than two pins")
            }
            BuildError::EmptyName => write!(f, "cell or net name is empty"),
            BuildError::InvalidDimension(name) => {
                write!(f, "cell `{name}` has a non-positive or non-finite dimension")
            }
            BuildError::RowsDoNotFit {
                rows,
                row_height,
                core_height,
            } => write!(
                f,
                "{rows} rows of height {row_height} exceed core height {core_height}"
            ),
        }
    }
}

impl Error for BuildError {}

/// Incrementally assembles a [`Netlist`]; see the crate-level example.
#[derive(Debug, Default)]
pub struct NetlistBuilder {
    name: String,
    cells: Vec<Cell>,
    nets: Vec<Net>,
    pins: Vec<Pin>,
    core: Option<Rect>,
    row_spec: Option<(usize, f64)>,
}

impl NetlistBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        Self {
            name: "unnamed".to_owned(),
            ..Self::default()
        }
    }

    /// Sets the design name.
    pub fn name(&mut self, name: impl Into<String>) -> &mut Self {
        self.name = name.into();
        self
    }

    /// Sets the placement (core) region.
    pub fn core_region(&mut self, core: Rect) -> &mut Self {
        self.core = Some(core);
        self
    }

    /// Requests `count` standard-cell rows of the given height, distributed
    /// evenly over the core region's vertical extent at build time.
    pub fn rows(&mut self, count: usize, height: f64) -> &mut Self {
        self.row_spec = Some((count, height));
        self
    }

    fn push_cell(&mut self, name: impl Into<String>, size: Size, kind: CellKind, fixed: Option<Point>) -> CellId {
        let id = CellId::from_index(self.cells.len());
        self.cells.push(Cell {
            name: name.into(),
            size,
            kind,
            fixed_pos: fixed,
            power: 0.0,
            delay: 0.0,
            pins: Vec::new(),
        });
        id
    }

    /// Adds a movable standard cell and returns its id.
    pub fn add_cell(&mut self, name: impl Into<String>, size: Size) -> CellId {
        self.push_cell(name, size, CellKind::Standard, None)
    }

    /// Adds a movable macro block (not legalized into rows).
    pub fn add_block(&mut self, name: impl Into<String>, size: Size) -> CellId {
        self.push_cell(name, size, CellKind::Block, None)
    }

    /// Adds an immovable cell (pad or pre-placed macro) centered at `at`.
    pub fn add_fixed_cell(&mut self, name: impl Into<String>, size: Size, at: Point) -> CellId {
        self.push_cell(name, size, CellKind::Fixed, Some(at))
    }

    /// Sets a cell's switching power (heat-driven mode input).
    ///
    /// # Panics
    ///
    /// Panics if `cell` was not created by this builder.
    pub fn set_power(&mut self, cell: CellId, power: f64) -> &mut Self {
        self.cells[cell.index()].power = power;
        self
    }

    /// Sets a cell's intrinsic delay in nanoseconds (timing input).
    ///
    /// # Panics
    ///
    /// Panics if `cell` was not created by this builder.
    pub fn set_delay(&mut self, cell: CellId, delay: f64) -> &mut Self {
        self.cells[cell.index()].delay = delay;
        self
    }

    /// Adds a net connecting the given cells with center pins (zero offset)
    /// and unit weight.
    pub fn add_net(
        &mut self,
        name: impl Into<String>,
        pins: impl IntoIterator<Item = (CellId, PinDirection)>,
    ) -> NetId {
        self.add_weighted_net(
            name,
            1.0,
            pins.into_iter().map(|(c, d)| (c, Vector::ZERO, d)),
        )
    }

    /// Adds a net with an explicit static weight and per-pin offsets from
    /// the cell centers.
    pub fn add_weighted_net(
        &mut self,
        name: impl Into<String>,
        weight: f64,
        pins: impl IntoIterator<Item = (CellId, Vector, PinDirection)>,
    ) -> NetId {
        let net_id = NetId::from_index(self.nets.len());
        let mut pin_ids = Vec::new();
        for (cell, offset, direction) in pins {
            let pin_id = PinId::from_index(self.pins.len());
            self.pins.push(Pin {
                cell,
                net: net_id,
                offset,
                direction,
            });
            self.cells[cell.index()].pins.push(pin_id);
            pin_ids.push(pin_id);
        }
        self.nets.push(Net {
            name: name.into(),
            weight,
            pins: pin_ids,
        });
        net_id
    }

    /// Number of cells added so far.
    #[must_use]
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    /// Appends another pin to an existing net (used by generators to wire
    /// up otherwise unconnected cells without changing the net count).
    ///
    /// # Panics
    ///
    /// Panics if `net` or `cell` was not created by this builder.
    pub fn add_pin_to_net(&mut self, net: NetId, cell: CellId, direction: PinDirection) -> PinId {
        let pin_id = PinId::from_index(self.pins.len());
        self.pins.push(Pin {
            cell,
            net,
            offset: Vector::ZERO,
            direction,
        });
        self.cells[cell.index()].pins.push(pin_id);
        self.nets[net.index()].pins.push(pin_id);
        pin_id
    }

    /// Whether a cell has at least one pin.
    ///
    /// # Panics
    ///
    /// Panics if `cell` was not created by this builder.
    #[must_use]
    pub fn is_connected(&self, cell: CellId) -> bool {
        !self.cells[cell.index()].pins.is_empty()
    }

    /// Validates and produces the immutable netlist.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] when no core region was set, a net has
    /// fewer than two pins, any name is empty, a cell dimension is invalid,
    /// or the requested rows do not fit the core region.
    pub fn build(&mut self) -> Result<Netlist, BuildError> {
        let core = self.core.ok_or(BuildError::MissingCoreRegion)?;
        if self.name.is_empty() {
            return Err(BuildError::EmptyName);
        }
        for cell in &self.cells {
            if cell.name.is_empty() {
                return Err(BuildError::EmptyName);
            }
            let s = cell.size;
            if !(s.width.is_finite() && s.height.is_finite() && s.width > 0.0 && s.height > 0.0) {
                return Err(BuildError::InvalidDimension(cell.name.clone()));
            }
        }
        for net in &self.nets {
            if net.name.is_empty() {
                return Err(BuildError::EmptyName);
            }
            if net.pins.len() < 2 {
                return Err(BuildError::DegenerateNet(net.name.clone()));
            }
        }
        let rows = match self.row_spec {
            None => Vec::new(),
            Some((count, height)) => {
                let core_height = core.height();
                if count as f64 * height > core_height + 1e-9 {
                    return Err(BuildError::RowsDoNotFit {
                        rows: count,
                        row_height: height,
                        core_height,
                    });
                }
                let pitch = if count > 0 { core_height / count as f64 } else { 0.0 };
                (0..count)
                    .map(|i| Row {
                        y: core.y_lo + i as f64 * pitch + (pitch - height) * 0.5,
                        height,
                        x_lo: core.x_lo,
                        x_hi: core.x_hi,
                    })
                    .collect()
            }
        };
        let num_movable = self.cells.iter().filter(|c| c.is_movable()).count();
        Ok(Netlist {
            name: std::mem::take(&mut self.name),
            cells: std::mem::take(&mut self.cells),
            nets: std::mem::take(&mut self.nets),
            pins: std::mem::take(&mut self.pins),
            rows,
            core,
            num_movable,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_core_region_is_an_error() {
        let mut b = NetlistBuilder::new();
        let a = b.add_cell("a", Size::new(1.0, 1.0));
        let c = b.add_cell("c", Size::new(1.0, 1.0));
        b.add_net("n", [(a, PinDirection::Output), (c, PinDirection::Input)]);
        assert_eq!(b.build().unwrap_err(), BuildError::MissingCoreRegion);
    }

    #[test]
    fn degenerate_net_is_an_error() {
        let mut b = NetlistBuilder::new();
        b.core_region(Rect::new(0.0, 0.0, 10.0, 10.0));
        let a = b.add_cell("a", Size::new(1.0, 1.0));
        b.add_net("lonely", [(a, PinDirection::Output)]);
        assert_eq!(
            b.build().unwrap_err(),
            BuildError::DegenerateNet("lonely".to_owned())
        );
    }

    #[test]
    fn invalid_dimension_is_an_error() {
        let mut b = NetlistBuilder::new();
        b.core_region(Rect::new(0.0, 0.0, 10.0, 10.0));
        let a = b.add_cell("bad", Size::new(0.0, 1.0));
        let c = b.add_cell("ok", Size::new(1.0, 1.0));
        b.add_net("n", [(a, PinDirection::Output), (c, PinDirection::Input)]);
        assert_eq!(
            b.build().unwrap_err(),
            BuildError::InvalidDimension("bad".to_owned())
        );
    }

    #[test]
    fn rows_must_fit() {
        let mut b = NetlistBuilder::new();
        b.core_region(Rect::new(0.0, 0.0, 10.0, 10.0));
        b.rows(3, 5.0);
        let a = b.add_cell("a", Size::new(1.0, 1.0));
        let c = b.add_cell("c", Size::new(1.0, 1.0));
        b.add_net("n", [(a, PinDirection::Output), (c, PinDirection::Input)]);
        assert!(matches!(b.build().unwrap_err(), BuildError::RowsDoNotFit { .. }));
    }

    #[test]
    fn rows_are_evenly_distributed_inside_core() {
        let mut b = NetlistBuilder::new();
        b.core_region(Rect::new(0.0, 0.0, 10.0, 40.0));
        b.rows(4, 8.0);
        let a = b.add_cell("a", Size::new(1.0, 8.0));
        let c = b.add_cell("c", Size::new(1.0, 8.0));
        b.add_net("n", [(a, PinDirection::Output), (c, PinDirection::Input)]);
        let nl = b.build().unwrap();
        assert_eq!(nl.rows().len(), 4);
        for (i, row) in nl.rows().iter().enumerate() {
            assert!((row.y - (i as f64 * 10.0 + 1.0)).abs() < 1e-12);
            assert!(nl.core_region().contains_rect(&row.rect()));
        }
    }

    #[test]
    fn weighted_net_and_offsets_are_preserved() {
        let mut b = NetlistBuilder::new();
        b.core_region(Rect::new(0.0, 0.0, 10.0, 10.0));
        let a = b.add_cell("a", Size::new(2.0, 2.0));
        let c = b.add_cell("c", Size::new(2.0, 2.0));
        let n = b.add_weighted_net(
            "w",
            2.5,
            [
                (a, Vector::new(1.0, 0.0), PinDirection::Output),
                (c, Vector::new(-1.0, 0.0), PinDirection::Input),
            ],
        );
        let nl = b.build().unwrap();
        assert_eq!(nl.net(n).weight(), 2.5);
        let pin0 = nl.net(n).pins()[0];
        assert_eq!(nl.pin(pin0).offset(), Vector::new(1.0, 0.0));
    }

    #[test]
    fn power_and_delay_attributes() {
        let mut b = NetlistBuilder::new();
        b.core_region(Rect::new(0.0, 0.0, 10.0, 10.0));
        let a = b.add_cell("a", Size::new(1.0, 1.0));
        let c = b.add_cell("c", Size::new(1.0, 1.0));
        b.set_power(a, 3.0).set_delay(a, 0.2);
        b.add_net("n", [(a, PinDirection::Output), (c, PinDirection::Input)]);
        let nl = b.build().unwrap();
        assert_eq!(nl.cell(a).power(), 3.0);
        assert_eq!(nl.cell(a).delay(), 0.2);
        assert_eq!(nl.cell(c).power(), 0.0);
    }

    #[test]
    fn blocks_and_fixed_cells_have_expected_kinds() {
        let mut b = NetlistBuilder::new();
        b.core_region(Rect::new(0.0, 0.0, 10.0, 10.0));
        let blk = b.add_block("blk", Size::new(4.0, 4.0));
        let pad = b.add_fixed_cell("pad", Size::new(1.0, 1.0), Point::new(0.0, 0.0));
        b.add_net("n", [(blk, PinDirection::Output), (pad, PinDirection::Input)]);
        let nl = b.build().unwrap();
        assert_eq!(nl.cell(blk).kind(), CellKind::Block);
        assert!(nl.cell(blk).is_movable());
        assert_eq!(nl.cell(pad).kind(), CellKind::Fixed);
        assert!(!nl.cell(pad).is_movable());
        assert_eq!(nl.num_movable(), 1);
    }
}
