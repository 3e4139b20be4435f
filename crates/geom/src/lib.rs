//! Geometry primitives shared across the Kraftwerk placement workspace.
//!
//! This crate provides the small set of planar geometry types the placer
//! needs: [`Point`], [`Vector`], [`Size`] and [`Rect`], together with a
//! handful of numeric helpers and an SVG writer ([`svg`]) used by the
//! examples to visualise placements.
//!
//! All coordinates are `f64` in abstract layout units; crates further up the
//! stack decide what a unit means (the benchmark harness calibrates units to
//! microns so wire lengths can be reported in meters like the paper).
//!
//! # Examples
//!
//! ```
//! use kraftwerk_geom::{Point, Rect};
//!
//! let r = Rect::new(0.0, 0.0, 4.0, 2.0);
//! assert_eq!(r.area(), 8.0);
//! assert!(r.contains(Point::new(1.0, 1.0)));
//! let overlap = r.intersection(&Rect::new(2.0, 1.0, 6.0, 5.0));
//! assert_eq!(overlap.map(|o| o.area()), Some(2.0));
//! ```

pub mod svg;

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A point in the plane.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Horizontal coordinate.
    pub x: f64,
    /// Vertical coordinate.
    pub y: f64,
}

/// A displacement in the plane. Also used for forces.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vector {
    /// Horizontal component.
    pub x: f64,
    /// Vertical component.
    pub y: f64,
}

/// Width/height pair of an axis-aligned box.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Size {
    /// Horizontal extent.
    pub width: f64,
    /// Vertical extent.
    pub height: f64,
}

/// An axis-aligned rectangle described by its lower-left and upper-right
/// corners. Invariant: `x_lo <= x_hi` and `y_lo <= y_hi` for rectangles
/// built through [`Rect::new`]; degenerate (zero-area) rectangles are valid.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Rect {
    /// Left edge.
    pub x_lo: f64,
    /// Bottom edge.
    pub y_lo: f64,
    /// Right edge.
    pub x_hi: f64,
    /// Top edge.
    pub y_hi: f64,
}

impl Point {
    /// Creates a point from its coordinates.
    ///
    /// ```
    /// let p = kraftwerk_geom::Point::new(1.0, -2.0);
    /// assert_eq!((p.x, p.y), (1.0, -2.0));
    /// ```
    #[must_use]
    pub const fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// The origin `(0, 0)`.
    pub const ORIGIN: Point = Point::new(0.0, 0.0);

    /// Euclidean distance to another point.
    ///
    /// ```
    /// use kraftwerk_geom::Point;
    /// assert_eq!(Point::new(0.0, 0.0).distance(Point::new(3.0, 4.0)), 5.0);
    /// ```
    #[must_use]
    pub fn distance(self, other: Point) -> f64 {
        (self - other).norm()
    }

    /// Squared Euclidean distance; cheaper than [`Point::distance`] when
    /// only comparisons are needed.
    #[must_use]
    pub fn distance_sq(self, other: Point) -> f64 {
        (self - other).norm_sq()
    }

    /// Manhattan (L1) distance, the metric of half-perimeter wire length.
    #[must_use]
    pub fn manhattan(self, other: Point) -> f64 {
        (self.x - other.x).abs() + (self.y - other.y).abs()
    }

    /// Linear interpolation: `t = 0` gives `self`, `t = 1` gives `other`.
    #[must_use]
    pub fn lerp(self, other: Point, t: f64) -> Point {
        Point::new(self.x + (other.x - self.x) * t, self.y + (other.y - self.y) * t)
    }
}

impl Vector {
    /// Creates a vector from its components.
    #[must_use]
    pub const fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// The zero vector.
    pub const ZERO: Vector = Vector::new(0.0, 0.0);

    /// Euclidean length.
    #[must_use]
    pub fn norm(self) -> f64 {
        self.norm_sq().sqrt()
    }

    /// Squared Euclidean length.
    #[must_use]
    pub fn norm_sq(self) -> f64 {
        self.x * self.x + self.y * self.y
    }

    /// Dot product with another vector.
    #[must_use]
    pub fn dot(self, other: Vector) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// Returns a vector of the same direction with length 1, or `None` for
    /// (near-)zero vectors where the direction is undefined.
    #[must_use]
    pub fn normalized(self) -> Option<Vector> {
        let n = self.norm();
        if n <= f64::EPSILON {
            None
        } else {
            Some(self / n)
        }
    }

    /// Clamps the vector length to at most `max_len`, preserving direction.
    #[must_use]
    pub fn clamp_norm(self, max_len: f64) -> Vector {
        debug_assert!(max_len >= 0.0);
        let n = self.norm();
        if n > max_len && n > 0.0 {
            self * (max_len / n)
        } else {
            self
        }
    }
}

impl Size {
    /// Creates a size; both extents must be finite and non-negative.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if an extent is negative or non-finite.
    #[must_use]
    pub fn new(width: f64, height: f64) -> Self {
        debug_assert!(width >= 0.0 && width.is_finite(), "invalid width {width}");
        debug_assert!(height >= 0.0 && height.is_finite(), "invalid height {height}");
        Self { width, height }
    }

    /// Area of the box.
    #[must_use]
    pub fn area(self) -> f64 {
        self.width * self.height
    }

    /// Half the perimeter — the wire-length contribution of a net whose
    /// bounding box has this size.
    #[must_use]
    pub fn half_perimeter(self) -> f64 {
        self.width + self.height
    }

    /// Width divided by height. Returns `f64::INFINITY` for zero height.
    #[must_use]
    pub fn aspect_ratio(self) -> f64 {
        self.width / self.height
    }
}

impl Rect {
    /// Creates a rectangle from corner coordinates, normalizing the corner
    /// order so that `x_lo <= x_hi` and `y_lo <= y_hi`.
    #[must_use]
    pub fn new(x_lo: f64, y_lo: f64, x_hi: f64, y_hi: f64) -> Self {
        Self {
            x_lo: x_lo.min(x_hi),
            y_lo: y_lo.min(y_hi),
            x_hi: x_lo.max(x_hi),
            y_hi: y_lo.max(y_hi),
        }
    }

    /// Creates a rectangle from its center point and size.
    ///
    /// ```
    /// use kraftwerk_geom::{Point, Rect, Size};
    /// let r = Rect::from_center(Point::new(2.0, 2.0), Size::new(2.0, 4.0));
    /// assert_eq!(r, Rect::new(1.0, 0.0, 3.0, 4.0));
    /// ```
    #[must_use]
    pub fn from_center(center: Point, size: Size) -> Self {
        Self::new(
            center.x - size.width * 0.5,
            center.y - size.height * 0.5,
            center.x + size.width * 0.5,
            center.y + size.height * 0.5,
        )
    }

    /// Horizontal extent.
    #[must_use]
    pub fn width(&self) -> f64 {
        self.x_hi - self.x_lo
    }

    /// Vertical extent.
    #[must_use]
    pub fn height(&self) -> f64 {
        self.y_hi - self.y_lo
    }

    /// The size (width, height) of the rectangle.
    #[must_use]
    pub fn size(&self) -> Size {
        Size::new(self.width(), self.height())
    }

    /// Area of the rectangle.
    #[must_use]
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Center point.
    #[must_use]
    pub fn center(&self) -> Point {
        Point::new((self.x_lo + self.x_hi) * 0.5, (self.y_lo + self.y_hi) * 0.5)
    }

    /// Half the perimeter (`width + height`).
    #[must_use]
    pub fn half_perimeter(&self) -> f64 {
        self.width() + self.height()
    }

    /// Whether the point lies inside or on the boundary.
    #[must_use]
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.x_lo && p.x <= self.x_hi && p.y >= self.y_lo && p.y <= self.y_hi
    }

    /// Whether `other` lies fully inside (or on the boundary of) `self`.
    #[must_use]
    pub fn contains_rect(&self, other: &Rect) -> bool {
        other.x_lo >= self.x_lo
            && other.x_hi <= self.x_hi
            && other.y_lo >= self.y_lo
            && other.y_hi <= self.y_hi
    }

    /// Whether the two rectangles overlap with positive area.
    #[must_use]
    pub fn overlaps(&self, other: &Rect) -> bool {
        self.x_lo < other.x_hi
            && other.x_lo < self.x_hi
            && self.y_lo < other.y_hi
            && other.y_lo < self.y_hi
    }

    /// The overlap rectangle, or `None` when the intersection has zero area.
    #[must_use]
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        if self.overlaps(other) {
            Some(Rect {
                x_lo: self.x_lo.max(other.x_lo),
                y_lo: self.y_lo.max(other.y_lo),
                x_hi: self.x_hi.min(other.x_hi),
                y_hi: self.y_hi.min(other.y_hi),
            })
        } else {
            None
        }
    }

    /// Area of the overlap with `other` (zero when disjoint).
    #[must_use]
    pub fn overlap_area(&self, other: &Rect) -> f64 {
        let w = (self.x_hi.min(other.x_hi) - self.x_lo.max(other.x_lo)).max(0.0);
        let h = (self.y_hi.min(other.y_hi) - self.y_lo.max(other.y_lo)).max(0.0);
        w * h
    }

    /// Smallest rectangle containing both `self` and `other`.
    #[must_use]
    pub fn union(&self, other: &Rect) -> Rect {
        Rect {
            x_lo: self.x_lo.min(other.x_lo),
            y_lo: self.y_lo.min(other.y_lo),
            x_hi: self.x_hi.max(other.x_hi),
            y_hi: self.y_hi.max(other.y_hi),
        }
    }

    /// Grows (or shrinks, for negative `margin`) the rectangle on every side.
    #[must_use]
    pub fn inflate(&self, margin: f64) -> Rect {
        Rect::new(
            self.x_lo - margin,
            self.y_lo - margin,
            self.x_hi + margin,
            self.y_hi + margin,
        )
    }

    /// Returns the point inside the rectangle closest to `p` (that is, `p`
    /// clamped to the rectangle).
    #[must_use]
    pub fn clamp_point(&self, p: Point) -> Point {
        Point::new(p.x.clamp(self.x_lo, self.x_hi), p.y.clamp(self.y_lo, self.y_hi))
    }
}

/// Running bounding box over a stream of points or rectangles.
///
/// ```
/// use kraftwerk_geom::{BoundingBox, Point};
/// let mut bb = BoundingBox::new();
/// bb.add_point(Point::new(1.0, 5.0));
/// bb.add_point(Point::new(-2.0, 0.0));
/// let r = bb.rect().expect("non-empty");
/// assert_eq!((r.x_lo, r.y_lo, r.x_hi, r.y_hi), (-2.0, 0.0, 1.0, 5.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundingBox {
    x_lo: f64,
    y_lo: f64,
    x_hi: f64,
    y_hi: f64,
}

impl Default for BoundingBox {
    fn default() -> Self {
        Self::new()
    }
}

impl BoundingBox {
    /// Creates an empty bounding box; [`BoundingBox::rect`] is `None` until
    /// a point is added.
    #[must_use]
    pub fn new() -> Self {
        Self {
            x_lo: f64::INFINITY,
            y_lo: f64::INFINITY,
            x_hi: f64::NEG_INFINITY,
            y_hi: f64::NEG_INFINITY,
        }
    }

    /// Extends the box to cover `p`.
    pub fn add_point(&mut self, p: Point) {
        self.x_lo = self.x_lo.min(p.x);
        self.y_lo = self.y_lo.min(p.y);
        self.x_hi = self.x_hi.max(p.x);
        self.y_hi = self.y_hi.max(p.y);
    }

    /// Extends the box to cover `r`.
    pub fn add_rect(&mut self, r: &Rect) {
        self.x_lo = self.x_lo.min(r.x_lo);
        self.y_lo = self.y_lo.min(r.y_lo);
        self.x_hi = self.x_hi.max(r.x_hi);
        self.y_hi = self.y_hi.max(r.y_hi);
    }

    /// Whether no point has been added yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.x_lo > self.x_hi
    }

    /// The covered rectangle, or `None` if the box is empty.
    #[must_use]
    pub fn rect(&self) -> Option<Rect> {
        if self.is_empty() {
            None
        } else {
            Some(Rect {
                x_lo: self.x_lo,
                y_lo: self.y_lo,
                x_hi: self.x_hi,
                y_hi: self.y_hi,
            })
        }
    }

    /// Half-perimeter of the covered region; zero when empty. This is the
    /// HPWL contribution of a net whose pins produced this box.
    #[must_use]
    pub fn half_perimeter(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            (self.x_hi - self.x_lo) + (self.y_hi - self.y_lo)
        }
    }
}

impl FromIterator<Point> for BoundingBox {
    fn from_iter<I: IntoIterator<Item = Point>>(iter: I) -> Self {
        let mut bb = BoundingBox::new();
        for p in iter {
            bb.add_point(p);
        }
        bb
    }
}

impl Extend<Point> for BoundingBox {
    fn extend<I: IntoIterator<Item = Point>>(&mut self, iter: I) {
        for p in iter {
            self.add_point(p);
        }
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

impl fmt::Display for Vector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{}, {}>", self.x, self.y)
    }
}

impl fmt::Display for Size {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}", self.width, self.height)
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]x[{}, {}]", self.x_lo, self.x_hi, self.y_lo, self.y_hi)
    }
}

impl Add<Vector> for Point {
    type Output = Point;
    fn add(self, rhs: Vector) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl AddAssign<Vector> for Point {
    fn add_assign(&mut self, rhs: Vector) {
        self.x += rhs.x;
        self.y += rhs.y;
    }
}

impl Sub<Vector> for Point {
    type Output = Point;
    fn sub(self, rhs: Vector) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Sub for Point {
    type Output = Vector;
    fn sub(self, rhs: Point) -> Vector {
        Vector::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Add for Vector {
    type Output = Vector;
    fn add(self, rhs: Vector) -> Vector {
        Vector::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl AddAssign for Vector {
    fn add_assign(&mut self, rhs: Vector) {
        self.x += rhs.x;
        self.y += rhs.y;
    }
}

impl Sub for Vector {
    type Output = Vector;
    fn sub(self, rhs: Vector) -> Vector {
        Vector::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl SubAssign for Vector {
    fn sub_assign(&mut self, rhs: Vector) {
        self.x -= rhs.x;
        self.y -= rhs.y;
    }
}

impl Mul<f64> for Vector {
    type Output = Vector;
    fn mul(self, rhs: f64) -> Vector {
        Vector::new(self.x * rhs, self.y * rhs)
    }
}

impl Mul<Vector> for f64 {
    type Output = Vector;
    fn mul(self, rhs: Vector) -> Vector {
        rhs * self
    }
}

impl Div<f64> for Vector {
    type Output = Vector;
    fn div(self, rhs: f64) -> Vector {
        Vector::new(self.x / rhs, self.y / rhs)
    }
}

impl Neg for Vector {
    type Output = Vector;
    fn neg(self) -> Vector {
        Vector::new(-self.x, -self.y)
    }
}

impl From<(f64, f64)> for Point {
    fn from((x, y): (f64, f64)) -> Self {
        Point::new(x, y)
    }
}

impl From<(f64, f64)> for Vector {
    fn from((x, y): (f64, f64)) -> Self {
        Vector::new(x, y)
    }
}

impl From<Point> for (f64, f64) {
    fn from(p: Point) -> Self {
        (p.x, p.y)
    }
}

/// Length of the overlap of two 1-D intervals `[a_lo, a_hi]` and
/// `[b_lo, b_hi]`; zero when disjoint. Used heavily by density binning.
#[must_use]
pub fn interval_overlap(a_lo: f64, a_hi: f64, b_lo: f64, b_hi: f64) -> f64 {
    (a_hi.min(b_hi) - a_lo.max(b_lo)).max(0.0)
}

/// Compares two floats for approximate equality with a combined
/// absolute/relative tolerance. Intended for tests and convergence checks,
/// not for hashing or ordering.
#[must_use]
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    let diff = (a - b).abs();
    diff <= tol || diff <= tol * a.abs().max(b.abs())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn point_arithmetic() {
        let p = Point::new(1.0, 2.0);
        let v = Vector::new(3.0, -1.0);
        assert_eq!(p + v, Point::new(4.0, 1.0));
        assert_eq!(p - v, Point::new(-2.0, 3.0));
        assert_eq!(Point::new(4.0, 1.0) - p, v);
        let mut q = p;
        q += v;
        assert_eq!(q, Point::new(4.0, 1.0));
    }

    #[test]
    fn vector_norms_and_dot() {
        let v = Vector::new(3.0, 4.0);
        assert_eq!(v.norm(), 5.0);
        assert_eq!(v.norm_sq(), 25.0);
        assert_eq!(v.dot(Vector::new(1.0, 0.0)), 3.0);
        assert_eq!(-v, Vector::new(-3.0, -4.0));
        assert_eq!(v * 2.0, Vector::new(6.0, 8.0));
        assert_eq!(2.0 * v, v * 2.0);
        assert_eq!(v / 2.0, Vector::new(1.5, 2.0));
    }

    #[test]
    fn vector_normalized_unit_length() {
        let v = Vector::new(3.0, 4.0).normalized().unwrap();
        assert!(approx_eq(v.norm(), 1.0, 1e-12));
        assert!(Vector::ZERO.normalized().is_none());
    }

    #[test]
    fn vector_clamp_norm() {
        let v = Vector::new(3.0, 4.0);
        let c = v.clamp_norm(1.0);
        assert!(approx_eq(c.norm(), 1.0, 1e-12));
        // Direction preserved.
        assert!(approx_eq(c.x / c.y, v.x / v.y, 1e-12));
        // Shorter vectors untouched.
        assert_eq!(v.clamp_norm(10.0), v);
        assert_eq!(Vector::ZERO.clamp_norm(1.0), Vector::ZERO);
    }

    #[test]
    fn manhattan_distance() {
        assert_eq!(Point::new(0.0, 0.0).manhattan(Point::new(3.0, -4.0)), 7.0);
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(2.0, 4.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Point::new(1.0, 2.0));
    }

    #[test]
    fn rect_normalizes_corners() {
        let r = Rect::new(5.0, 6.0, 1.0, 2.0);
        assert_eq!(r, Rect::new(1.0, 2.0, 5.0, 6.0));
        assert_eq!(r.width(), 4.0);
        assert_eq!(r.height(), 4.0);
    }

    #[test]
    fn rect_center_size_roundtrip() {
        let r = Rect::from_center(Point::new(1.0, 2.0), Size::new(4.0, 6.0));
        assert_eq!(r.center(), Point::new(1.0, 2.0));
        assert_eq!(r.size(), Size::new(4.0, 6.0));
        assert_eq!(r.area(), 24.0);
        assert_eq!(r.half_perimeter(), 10.0);
    }

    #[test]
    fn rect_containment() {
        let r = Rect::new(0.0, 0.0, 10.0, 10.0);
        assert!(r.contains(Point::new(0.0, 0.0)));
        assert!(r.contains(Point::new(10.0, 10.0)));
        assert!(!r.contains(Point::new(10.1, 5.0)));
        assert!(r.contains_rect(&Rect::new(1.0, 1.0, 9.0, 9.0)));
        assert!(!r.contains_rect(&Rect::new(1.0, 1.0, 11.0, 9.0)));
    }

    #[test]
    fn rect_overlap_and_intersection() {
        let a = Rect::new(0.0, 0.0, 4.0, 4.0);
        let b = Rect::new(2.0, 2.0, 6.0, 6.0);
        assert!(a.overlaps(&b));
        assert_eq!(a.intersection(&b), Some(Rect::new(2.0, 2.0, 4.0, 4.0)));
        assert_eq!(a.overlap_area(&b), 4.0);
        // Touching edges: no positive-area overlap.
        let c = Rect::new(4.0, 0.0, 8.0, 4.0);
        assert!(!a.overlaps(&c));
        assert_eq!(a.intersection(&c), None);
        assert_eq!(a.overlap_area(&c), 0.0);
    }

    #[test]
    fn rect_union_and_inflate() {
        let a = Rect::new(0.0, 0.0, 1.0, 1.0);
        let b = Rect::new(3.0, -1.0, 4.0, 0.5);
        assert_eq!(a.union(&b), Rect::new(0.0, -1.0, 4.0, 1.0));
        assert_eq!(a.inflate(1.0), Rect::new(-1.0, -1.0, 2.0, 2.0));
    }

    #[test]
    fn rect_clamp_point() {
        let r = Rect::new(0.0, 0.0, 2.0, 2.0);
        assert_eq!(r.clamp_point(Point::new(5.0, -3.0)), Point::new(2.0, 0.0));
        assert_eq!(r.clamp_point(Point::new(1.0, 1.0)), Point::new(1.0, 1.0));
    }

    #[test]
    fn bounding_box_basics() {
        let mut bb = BoundingBox::new();
        assert!(bb.is_empty());
        assert_eq!(bb.rect(), None);
        assert_eq!(bb.half_perimeter(), 0.0);
        bb.add_point(Point::new(1.0, 1.0));
        assert!(!bb.is_empty());
        assert_eq!(bb.half_perimeter(), 0.0); // single point has no extent
        bb.add_rect(&Rect::new(-1.0, 0.0, 0.0, 3.0));
        assert_eq!(bb.rect(), Some(Rect::new(-1.0, 0.0, 1.0, 3.0)));
        assert_eq!(bb.half_perimeter(), 5.0);
    }

    #[test]
    fn bounding_box_from_iterator() {
        let bb: BoundingBox =
            [(0.0, 0.0), (2.0, 1.0), (1.0, 3.0)].into_iter().map(Point::from).collect();
        assert_eq!(bb.rect(), Some(Rect::new(0.0, 0.0, 2.0, 3.0)));
    }

    #[test]
    fn interval_overlap_cases() {
        assert_eq!(interval_overlap(0.0, 2.0, 1.0, 3.0), 1.0);
        assert_eq!(interval_overlap(0.0, 2.0, 2.0, 3.0), 0.0);
        assert_eq!(interval_overlap(0.0, 2.0, 3.0, 4.0), 0.0);
        assert_eq!(interval_overlap(0.0, 10.0, 2.0, 3.0), 1.0);
    }

    proptest! {
        #[test]
        fn prop_distance_symmetric(ax in -1e6..1e6f64, ay in -1e6..1e6f64,
                                   bx in -1e6..1e6f64, by in -1e6..1e6f64) {
            let a = Point::new(ax, ay);
            let b = Point::new(bx, by);
            prop_assert!(approx_eq(a.distance(b), b.distance(a), 1e-12));
            prop_assert!(a.manhattan(b) >= a.distance(b) - 1e-9);
        }

        #[test]
        fn prop_intersection_area_matches_overlap_area(
            a in (-100.0..100.0f64, -100.0..100.0f64, 0.1..50.0f64, 0.1..50.0f64),
            b in (-100.0..100.0f64, -100.0..100.0f64, 0.1..50.0f64, 0.1..50.0f64),
        ) {
            let ra = Rect::new(a.0, a.1, a.0 + a.2, a.1 + a.3);
            let rb = Rect::new(b.0, b.1, b.0 + b.2, b.1 + b.3);
            let via_rect = ra.intersection(&rb).map_or(0.0, |r| r.area());
            prop_assert!(approx_eq(via_rect, ra.overlap_area(&rb), 1e-9));
            // symmetry
            prop_assert!(approx_eq(ra.overlap_area(&rb), rb.overlap_area(&ra), 1e-12));
        }

        #[test]
        fn prop_union_contains_both(
            a in (-100.0..100.0f64, -100.0..100.0f64, 0.1..50.0f64, 0.1..50.0f64),
            b in (-100.0..100.0f64, -100.0..100.0f64, 0.1..50.0f64, 0.1..50.0f64),
        ) {
            let ra = Rect::new(a.0, a.1, a.0 + a.2, a.1 + a.3);
            let rb = Rect::new(b.0, b.1, b.0 + b.2, b.1 + b.3);
            let u = ra.union(&rb);
            prop_assert!(u.contains_rect(&ra));
            prop_assert!(u.contains_rect(&rb));
        }

        #[test]
        fn prop_clamped_point_inside(
            px in -1e4..1e4f64, py in -1e4..1e4f64,
            r in (-100.0..100.0f64, -100.0..100.0f64, 0.1..50.0f64, 0.1..50.0f64),
        ) {
            let rect = Rect::new(r.0, r.1, r.0 + r.2, r.1 + r.3);
            prop_assert!(rect.contains(rect.clamp_point(Point::new(px, py))));
        }

        #[test]
        fn prop_interval_overlap_commutes(
            a in -100.0..100.0f64, la in 0.0..50.0f64,
            b in -100.0..100.0f64, lb in 0.0..50.0f64,
        ) {
            let o1 = interval_overlap(a, a + la, b, b + lb);
            let o2 = interval_overlap(b, b + lb, a, a + la);
            prop_assert!(approx_eq(o1, o2, 1e-12));
            prop_assert!(o1 <= la + 1e-12);
            prop_assert!(o1 <= lb + 1e-12);
        }
    }
}
