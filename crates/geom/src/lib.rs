//! # geopattern-geom
//!
//! Computational-geometry substrate for the `geopattern` frequent
//! spatial-pattern mining system (Bogorny, Moelans & Alvares, *Filtering
//! Frequent Spatial Patterns with Qualitative Spatial Reasoning*, ICDE
//! 2007).
//!
//! The paper's predicate-extraction step needs, for every
//! (reference-feature, relevant-feature) pair, the full topological
//! relationship per Egenhofer's 9-intersection model — including the
//! `covers`/`coveredBy` distinctions and line predicates such as `crosses`
//! that thin geometry libraries omit. This crate provides everything from
//! scratch:
//!
//! * planar [`Coord`]inates with **robust orientation predicates**
//!   ([`robust`]) — exact sign decisions via floating-point expansions;
//! * validated geometry types: [`Point`], [`MultiPoint`], [`LineString`],
//!   [`MultiLineString`], [`Polygon`] (with holes), [`MultiPolygon`];
//! * envelopes ([`Rect`]), segment intersection ([`segment`]),
//!   point-in-polygon, interior points, centroids and minimum distances
//!   ([`algorithms`]);
//! * the **DE-9IM `relate` engine** ([`mod@relate`]) producing full
//!   [`IntersectionMatrix`] values for every geometry-class pair;
//! * WKT reading/writing ([`wkt`]) for dataset IO.
//!
//! # Example
//!
//! ```
//! use geopattern_geom::{from_wkt, relate};
//!
//! let district = from_wkt("POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))").unwrap();
//! let slum = from_wkt("POLYGON ((2 2, 4 2, 4 4, 2 4, 2 2))").unwrap();
//! let m = relate(&district, &slum);
//! assert!(m.matches("T*****FF*")); // the district contains the slum
//! ```

#![forbid(unsafe_code)]

pub mod algorithms;
pub mod bbox;
pub mod coord;
pub mod error;
pub mod geometry;
pub mod linestring;
pub mod point;
pub mod polygon;
pub mod prepared;
pub mod quant;
pub mod relate;
pub mod robust;
pub mod segment;
pub mod segtree;
pub mod tile;
pub mod transform;
pub mod wkt;

pub use algorithms::{geometry_distance, geometry_distance_within};
pub use bbox::Rect;
pub use coord::{coord, Coord};
pub use error::{GeomError, GeomResult};
pub use geometry::{GeomDim, Geometry};
pub use linestring::{LineString, MultiLineString};
pub use point::{MultiPoint, Point};
pub use polygon::{MultiPolygon, PointLocation, Polygon, Ring};
pub use prepared::PreparedGeometry;
pub use quant::{PreparedRing, QuantRing, Quantizer};
pub use relate::{intersects, relate, Dim, IntersectionMatrix, Part};
pub use robust::{orient2d, orientation, Orientation};
pub use segment::{SegSegIntersection, Segment};
pub use segtree::{take_kernel_counters, KernelCounters, RingIndex, SegTree};
pub use tile::TileGrid;
pub use transform::AffineTransform;
pub use wkt::{from_wkt, to_wkt};
