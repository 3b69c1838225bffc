//! Tile grids: the spatial sharding unit for tiled predicate extraction.
//!
//! A [`TileGrid`] partitions a domain rectangle (typically a layer's union
//! envelope) into an `nx × ny` grid of equal-sized tiles. The grid supplies
//! the *canonical owner rule* for sharded work: every point of the plane —
//! in particular every feature's envelope center — maps to exactly one tile
//! via [`TileGrid::tile_of`], with floor semantics (a point exactly on an
//! interior tile edge belongs to the tile on its right/top) and clamping
//! (points outside the domain belong to the nearest border tile). Because
//! ownership is a pure function of the coordinates, any number of workers
//! processing tiles independently partition the work deterministically,
//! with no boundary pair processed twice.
//!
//! Degenerate domains collapse gracefully: an empty domain or a zero-extent
//! axis yields a single tile along that axis, so callers never divide by
//! zero and a single-feature layer still has a well-defined owner tile.

use crate::bbox::Rect;
use crate::coord::Coord;

/// An `nx × ny` partition of a domain rectangle into equal tiles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TileGrid {
    domain: Rect,
    nx: usize,
    ny: usize,
}

/// Clamped floor cell index of `v` along one axis of `n` cells spanning
/// `[lo, lo + extent]`. Total on all inputs: out-of-range and NaN-producing
/// values land in a border cell.
#[inline]
fn axis_cell(v: f64, lo: f64, extent: f64, n: usize) -> usize {
    if n <= 1 || extent.is_nan() || extent <= 0.0 {
        return 0;
    }
    let i = ((v - lo) / extent * n as f64).floor();
    if i.is_nan() || i < 0.0 {
        0
    } else {
        (i as usize).min(n - 1)
    }
}

impl TileGrid {
    /// Upper bound on tiles per axis. It keeps [`TileGrid::len`] far from
    /// overflow (at most 2^24 tiles) and any per-tile bookkeeping bounded.
    pub const MAX_TILES_PER_AXIS: usize = 4096;

    /// Partitions `domain` into `tiles_per_axis × tiles_per_axis` tiles
    /// (clamped to `1..=MAX_TILES_PER_AXIS`). Zero-extent axes — including
    /// the empty domain — collapse to a single tile along that axis.
    pub fn new(domain: Rect, tiles_per_axis: usize) -> TileGrid {
        let n = tiles_per_axis.clamp(1, TileGrid::MAX_TILES_PER_AXIS);
        let nx = if domain.width() > 0.0 { n } else { 1 };
        let ny = if domain.height() > 0.0 { n } else { 1 };
        TileGrid { domain, nx, ny }
    }

    /// Partitions `domain` into square tiles of side `size` (ground units),
    /// taking `ceil(extent / size)` tiles per axis, at most
    /// [`TileGrid::MAX_TILES_PER_AXIS`]. Non-positive or non-finite sizes
    /// yield a single tile.
    pub fn from_tile_size(domain: Rect, size: f64) -> TileGrid {
        let cells = |extent: f64| -> usize {
            if size.is_nan() || size <= 0.0 || extent.is_nan() || extent <= 0.0 {
                return 1;
            }
            let n = (extent / size).ceil();
            if n.is_finite() {
                (n as usize).clamp(1, TileGrid::MAX_TILES_PER_AXIS)
            } else {
                1
            }
        };
        TileGrid {
            domain,
            nx: cells(domain.width()),
            ny: cells(domain.height()),
        }
    }

    /// The partitioned domain.
    pub fn domain(&self) -> Rect {
        self.domain
    }

    /// Tiles along the x axis.
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Tiles along the y axis.
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Total number of tiles (`nx * ny`, always at least 1 and at most
    /// `MAX_TILES_PER_AXIS²`).
    pub fn len(&self) -> usize {
        self.nx * self.ny
    }

    /// A grid is never empty: degenerate domains still have one tile.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The rectangle of tile `(ix, iy)`. Interior edges are computed by
    /// proportional division; the last tile per axis ends exactly at the
    /// domain maximum, so the tiles cover the domain without FP gaps.
    /// Meaningless (empty) for an empty domain.
    pub fn tile_rect(&self, ix: usize, iy: usize) -> Rect {
        assert!(ix < self.nx && iy < self.ny, "tile ({ix},{iy}) out of range");
        if self.domain.is_empty() {
            return Rect::EMPTY;
        }
        let edge = |lo: f64, hi: f64, i: usize, n: usize| -> f64 {
            if i == 0 {
                lo
            } else if i == n {
                hi
            } else {
                lo + (hi - lo) * i as f64 / n as f64
            }
        };
        Rect {
            min: Coord::new(
                edge(self.domain.min.x, self.domain.max.x, ix, self.nx),
                edge(self.domain.min.y, self.domain.max.y, iy, self.ny),
            ),
            max: Coord::new(
                edge(self.domain.min.x, self.domain.max.x, ix + 1, self.nx),
                edge(self.domain.min.y, self.domain.max.y, iy + 1, self.ny),
            ),
        }
    }

    /// The owner tile of `c`: floor cell indices, clamped into the grid.
    /// Every coordinate — even outside the domain — has exactly one owner,
    /// which is what makes tile ownership a deterministic partition of any
    /// feature set.
    pub fn tile_of(&self, c: Coord) -> (usize, usize) {
        (
            axis_cell(c.x, self.domain.min.x, self.domain.width(), self.nx),
            axis_cell(c.y, self.domain.min.y, self.domain.height(), self.ny),
        )
    }

    /// [`TileGrid::tile_of`] flattened to a linear index (`iy * nx + ix`).
    pub fn tile_index(&self, c: Coord) -> usize {
        let (ix, iy) = self.tile_of(c);
        iy * self.nx + ix
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coord::coord;

    fn r(x0: f64, y0: f64, x1: f64, y1: f64) -> Rect {
        Rect::new(coord(x0, y0), coord(x1, y1))
    }

    #[test]
    fn grid_covers_domain_without_gaps() {
        let g = TileGrid::new(r(0.0, 0.0, 10.0, 20.0), 4);
        assert_eq!((g.nx(), g.ny(), g.len()), (4, 4, 16));
        // Tiles abut exactly: each tile's max edge is the next tile's min.
        for iy in 0..4 {
            for ix in 0..3 {
                assert_eq!(g.tile_rect(ix, iy).max.x, g.tile_rect(ix + 1, iy).min.x);
            }
        }
        assert_eq!(g.tile_rect(0, 0).min, coord(0.0, 0.0));
        assert_eq!(g.tile_rect(3, 3).max, coord(10.0, 20.0));
    }

    #[test]
    fn tile_of_floor_and_clamp_semantics() {
        let g = TileGrid::new(r(0.0, 0.0, 10.0, 10.0), 2);
        assert_eq!(g.tile_of(coord(2.0, 2.0)), (0, 0));
        // A point exactly on an interior edge belongs to the right/top tile.
        assert_eq!(g.tile_of(coord(5.0, 5.0)), (1, 1));
        // The domain max is clamped into the last tile.
        assert_eq!(g.tile_of(coord(10.0, 10.0)), (1, 1));
        // Out-of-domain points clamp to border tiles.
        assert_eq!(g.tile_of(coord(-3.0, 99.0)), (0, 1));
        assert_eq!(g.tile_index(coord(7.0, 2.0)), 1);
        assert_eq!(g.tile_index(coord(2.0, 7.0)), 2);
    }

    #[test]
    fn degenerate_domains_collapse_to_single_tiles() {
        let empty = TileGrid::new(Rect::EMPTY, 8);
        assert_eq!(empty.len(), 1);
        assert_eq!(empty.tile_index(coord(3.0, 4.0)), 0);

        // A zero-height domain keeps x tiles but collapses y.
        let flat = TileGrid::new(r(0.0, 5.0, 10.0, 5.0), 4);
        assert_eq!((flat.nx(), flat.ny()), (4, 1));
        assert_eq!(flat.tile_of(coord(9.0, 5.0)), (3, 0));

        let point = TileGrid::new(Rect::of_point(coord(1.0, 1.0)), 4);
        assert_eq!(point.len(), 1);
        assert!(!point.is_empty());
    }

    #[test]
    fn from_tile_size_takes_ceil_tiles() {
        let g = TileGrid::from_tile_size(r(0.0, 0.0, 100.0, 45.0), 30.0);
        assert_eq!((g.nx(), g.ny()), (4, 2));
        // Degenerate sizes never divide by zero.
        assert_eq!(TileGrid::from_tile_size(r(0.0, 0.0, 1.0, 1.0), 0.0).len(), 1);
        assert_eq!(TileGrid::from_tile_size(r(0.0, 0.0, 1.0, 1.0), f64::NAN).len(), 1);
        assert_eq!(TileGrid::from_tile_size(Rect::EMPTY, 10.0).len(), 1);
        // A tiny size clamps instead of overflowing `len`.
        let tiny = TileGrid::from_tile_size(r(0.0, 0.0, 1.0, 1.0), 1e-300);
        assert_eq!(tiny.nx(), TileGrid::MAX_TILES_PER_AXIS);
    }

    #[test]
    fn tiles_per_axis_is_clamped() {
        let max = TileGrid::MAX_TILES_PER_AXIS;
        let g = TileGrid::new(r(0.0, 0.0, 1.0, 1.0), 5_000_000_000);
        assert_eq!((g.nx(), g.ny(), g.len()), (max, max, max * max));
        assert_eq!(g.tile_index(coord(1.0, 1.0)), max * max - 1);
        assert_eq!(TileGrid::new(r(0.0, 0.0, 1.0, 1.0), 0).len(), 1);
    }

    #[test]
    fn every_tile_center_owns_itself() {
        let g = TileGrid::new(r(-7.0, 3.0, 13.0, 31.0), 5);
        for iy in 0..g.ny() {
            for ix in 0..g.nx() {
                let c = g.tile_rect(ix, iy).center();
                assert_eq!(g.tile_of(c), (ix, iy), "center of ({ix},{iy})");
            }
        }
    }
}
