//! Geometric algorithms over the core types: distances, and the
//! Shamos–Hoey sweep behind `Ring::is_simple` and `LineString::is_simple`
//! (one sort of the vertices, exact orientation tests between sweep-line
//! neighbours only).

pub mod distance;
pub(crate) mod sweep;

pub use distance::{geometry_distance, geometry_distance_within};
