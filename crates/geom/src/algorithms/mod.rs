//! Geometric algorithms over the core types: distances and plane-sweep
//! intersection detection.

pub mod distance;
pub mod sweep;

pub use distance::{geometry_distance, geometry_distance_within};
