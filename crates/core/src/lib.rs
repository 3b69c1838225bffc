//! # geopattern
//!
//! Frequent geographic pattern mining with qualitative-spatial-reasoning
//! filters — a from-scratch reproduction of **Bogorny, Moelans & Alvares,
//! *Filtering Frequent Spatial Patterns with Qualitative Spatial
//! Reasoning*, ICDE 2007**.
//!
//! Spatial association mining turns each reference feature (say, a city
//! district) into a transaction of qualitative predicates
//! (`contains_slum`, `touches_school`, `closeTo_policeCenter`,
//! `murderRate=high`) and mines frequent combinations. Two families of
//! junk dominate the output:
//!
//! 1. **well-known geographic dependencies** (streets lie in districts…),
//!    removed by *Apriori-KC* using background knowledge `Φ`;
//! 2. **same-feature-type combinations** (`contains_slum ∧ touches_slum`),
//!    removed by this paper's *Apriori-KC+* with **no** background
//!    knowledge — the pairs are recognised from the predicates' semantics
//!    and pruned from `C₂`, so anti-monotonicity kills every superset.
//!
//! This crate is the facade over the full stack:
//!
//! | layer | crate |
//! |---|---|
//! | geometry + DE-9IM relate | [`geom`] (`geopattern-geom`) |
//! | qualitative relations (Egenhofer, RCC8, distance, direction) | [`qsr`] (`geopattern-qsr`) |
//! | features, R-tree, predicate extraction, `Φ` | [`sdb`] (`geopattern-sdb`) |
//! | Apriori / KC / KC+ / FP-Growth, rules, Formula 1 | [`mining`] (`geopattern-mining`) |
//! | synthetic data (Table 1, experiments, city) | [`datagen`] (`geopattern-datagen`) |
//!
//! # Quickstart
//!
//! ```
//! use geopattern::{Algorithm, MiningPipeline, MinSupport};
//! use geopattern_datagen::table1;
//!
//! // The paper's Table 1 dataset at 50% minimum support.
//! let data = table1::transactions();
//!
//! let plain = MiningPipeline::new()
//!     .algorithm(Algorithm::Apriori)
//!     .min_support(MinSupport::Fraction(0.5))
//!     .run_transactions(table1::transactions())
//!     .expect("valid configuration");
//!
//! let filtered = MiningPipeline::new()
//!     .algorithm(Algorithm::AprioriKcPlus)
//!     .min_support(MinSupport::Fraction(0.5))
//!     .run_transactions(data)
//!     .expect("valid configuration");
//!
//! // On the printed Table 1 the true counts are 47 frequent itemsets of
//! // size ≥ 2, of which the same-feature-type filter removes 23 — a 49%
//! // reduction. (The paper's Table 2 claims 60/31; its printed Table 1 is
//! // not consistent with that — see EXPERIMENTS.md.)
//! assert_eq!(plain.result.num_frequent_min2(), 47);
//! assert_eq!(filtered.result.num_frequent_min2(), 24);
//! ```
//!
//! For geometric inputs, build a [`geopattern_sdb::SpatialDataset`] (or
//! generate one with [`geopattern_datagen::generate_city`]) and call
//! [`MiningPipeline::run`], which performs R-tree-pruned DE-9IM predicate
//! extraction first — or drive the stages individually with
//! [`MiningPipeline::extract`] → [`MiningPipeline::encode`] →
//! [`MiningPipeline::mine`]. Each stage validates its inputs and returns
//! `Result<_, `[`Error`]`>`.
//!
//! The Apriori variants count support with one policy,
//! [`CountingStrategy::Auto`]: the vertical bitmap engine (triangular C₂
//! kernel over hybrid TID lists), or the horizontal hash-subset counter
//! when the memory budget cannot hold the vertical lists. The decision is
//! recorded as `mining/auto_choice` and readable via
//! [`PatternReport::auto_counting_choice`]. Both backends are
//! bit-identical in output; they differ only in speed and memory shape.
//!
//! # Observability
//!
//! Attach a [`Recorder`] to see where a run spends its time and what the
//! filters removed; instrumented and uninstrumented runs produce
//! bit-identical patterns:
//!
//! ```
//! use geopattern::{MiningPipeline, MinSupport, Recorder};
//! use geopattern_datagen::table1;
//!
//! let recorder = Recorder::new();
//! let report = MiningPipeline::new()
//!     .min_support(MinSupport::Fraction(0.5))
//!     .recorder(recorder)
//!     .run_transactions(table1::transactions())
//!     .unwrap();
//! let metrics = report.metrics();
//! assert!(metrics.span("mine").is_some());
//! println!("{}", metrics.to_json()); // machine-readable dump
//! ```

#![forbid(unsafe_code)]

pub mod convert;
pub mod error;
pub mod pipeline;
pub mod report;
pub mod runner;

pub use convert::{dependency_filter, to_transactions};
pub use error::Error;
pub use pipeline::{Algorithm, EncodedTransactions, ExtractedTable, MiningPipeline};
pub use report::PatternReport;
pub use runner::JobRunner;

// Re-export the layer crates under stable names.
pub use geopattern_datagen as datagen;
pub use geopattern_geom as geom;
pub use geopattern_mining as mining;
pub use geopattern_obs as obs;
pub use geopattern_par as par;
pub use geopattern_qsr as qsr;
pub use geopattern_sdb as sdb;

// The most-used types at the top level. Everything that appears in a
// public signature of the facade is reachable from the facade.
pub use geopattern_mining::{
    closed_itemsets, maximal_itemsets, minimal_gain, AssociationRule, CountingStrategy,
    FrequentItemset, ItemCatalog, ItemId, MiningResult, MiningStats, MinSupport, PairFilter,
    TransactionSet,
};
pub use geopattern_geom::TileGrid;
pub use geopattern_obs::{Metrics, Recorder};
pub use geopattern_par::{
    atomic_write, fnv1a64, CancelToken, Interrupt, Journal, MemoryBudget, Threads,
};
pub use geopattern_qsr::{DistanceScheme, SpatialPredicate, TopologicalRelation};
pub use geopattern_sdb::{
    extract_predicates, from_gpb, to_gpb, write_gpb, ExtractionConfig, ExtractionStats, Feature,
    FeatureTypeTaxonomy, GpbError, GpbReader, KnowledgeBase, Layer, Predicate, PredicateTable,
    SpatialDataset, TaxonomyError, Tiling,
};
