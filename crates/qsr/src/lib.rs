//! # geopattern-qsr
//!
//! Qualitative spatial reasoning for the `geopattern` system.
//!
//! The paper (*Filtering Frequent Spatial Patterns with Qualitative Spatial
//! Reasoning*, Bogorny, Moelans & Alvares, ICDE 2007) mines over
//! *qualitative* spatial predicates — topological, distance and order
//! relations between a reference feature and relevant features — and its
//! KC+ filter reasons over the *semantics* of those predicates (which
//! feature type they concern). This crate supplies the qualitative layer:
//!
//! * [`topological`] — the nine Egenhofer relations (`contains`, `within`,
//!   `touches`, `crosses`, `covers`, `coveredBy`, `overlaps`, `equals`,
//!   `disjoint`) classified from DE-9IM matrices, with converses;
//! * [`rcc8`] — the RCC8 relation algebra: base relations, relation sets,
//!   converse, and the full 8×8 weak-composition table;
//! * [`network`] — qualitative constraint networks with path-consistency
//!   (algebraic closure), usable to sanity-check extracted scenarios;
//! * [`distance`] — named qualitative distance bands (`veryClose`/`close`/
//!   `far`, or any user scheme);
//! * [`direction`] — cone-based cardinal direction relations;
//! * [`predicate`] — the [`SpatialPredicate`] item type
//!   (`contains_slum`-style labels at feature-type granularity).
//!
//! # Example
//!
//! ```
//! use geopattern_geom::from_wkt;
//! use geopattern_qsr::{topological_relation, TopologicalRelation, SpatialPredicate};
//!
//! let district = from_wkt("POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))").unwrap();
//! let slum = from_wkt("POLYGON ((2 2, 4 2, 4 4, 2 4, 2 2))").unwrap();
//! let rel = topological_relation(&district, &slum);
//! assert_eq!(rel, TopologicalRelation::Contains);
//!
//! let item = SpatialPredicate::topological(rel, "slum");
//! assert_eq!(item.to_string(), "contains_slum");
//! ```

#![forbid(unsafe_code)]

pub mod direction;
pub mod distance;
pub mod network;
pub mod predicate;
pub mod rcc8;
pub mod topological;

pub use direction::{direction_between, geometry_direction, CardinalDirection};
pub use distance::{DistanceBand, DistanceScheme, DistanceSchemeError};
pub use network::{Consistency, ConstraintNetwork};
pub use predicate::{QualitativeRelation, SpatialPredicate};
pub use rcc8::{compose_base, Rcc8, Rcc8Set};
pub use topological::{classify, classify_lower_bound, topological_relation, TopologicalRelation};
