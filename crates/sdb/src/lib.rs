//! # geopattern-sdb
//!
//! Spatial-database substrate for the `geopattern` system: everything
//! between raw geometries and the transaction table the mining algorithms
//! consume.
//!
//! * [`feature`] — [`Feature`]s (geometry + categorical attributes) grouped
//!   into [`Layer`]s per feature type, each with a spatial index;
//! * [`rtree`] — the [`RTree`] index (STR bulk load + quadratic-split
//!   insertion) used to prune candidate feature pairs;
//! * [`mod@extract`] — the qualitative predicate-extraction engine: reference
//!   layer × relevant layers → [`PredicateTable`] rows of
//!   `contains_slum`-style predicates at feature-type granularity;
//! * [`predicate_table`] — the dictionary-encoded mining input; each
//!   spatial predicate names its relevant feature type, the KC+ filter's
//!   criterion;
//! * [`knowledge`] — the background-knowledge set `Φ` of well-known
//!   geographic dependencies (the KC filter's input);
//! * [`dataset`] — a text format bundling reference + relevant layers;
//! * [`gpb`] — the compact binary dataset format (`.gpb`), with a
//!   streaming reader that loads layers — or envelope windows of layers —
//!   without materialising the whole dataset;
//! * `tiled` — the tiles [`extract::extract_predicates`] runs in
//!   sequence under [`Tiling::Grid`] (one tile by default): planning,
//!   per-tile row execution and the tile journal codec.

#![forbid(unsafe_code)]

pub mod dataset;
pub mod extract;
pub mod feature;
pub mod gpb;
pub mod knowledge;
pub mod predicate_table;
pub mod rtree;
pub mod taxonomy;
pub(crate) mod tiled;

pub use dataset::{DatasetError, SpatialDataset};
pub use extract::{extract_predicates, ExtractionConfig, ExtractionStats, Tiling};
pub use gpb::{from_gpb, to_gpb, write_gpb, GpbError, GpbReader};
pub use feature::{Feature, Layer};
pub use knowledge::KnowledgeBase;
pub use predicate_table::{Predicate, PredicateTable};
pub use rtree::{HasEnvelope, RTree};
pub use taxonomy::{FeatureTypeTaxonomy, TaxonomyError};
