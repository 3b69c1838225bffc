//! # geopattern-datagen
//!
//! Synthetic datasets and workload generators for the `geopattern`
//! reproduction of *Filtering Frequent Spatial Patterns with Qualitative
//! Spatial Reasoning* (Bogorny, Moelans & Alvares, ICDE 2007).
//!
//! The paper's evaluation data (Porto Alegre municipal GIS layers and two
//! derived predicate datasets) is not published; these generators are the
//! documented substitutes (see DESIGN.md §3):
//!
//! * [`table1`] — the paper's Table 1 worked example, verbatim;
//! * [`experiments`] — transactional generators matching the aggregate
//!   statistics of Experiments 1 and 2 (Figures 4–7);
//! * [`city`] — a geometric city (district grid + slums/schools/police/
//!   streets/illumination points/rivers with controlled topological
//!   relations) exercising the full extraction pipeline;
//! * [`hydrology`] — cities and rivers with pollution attributes,
//!   reproducing the introduction's `contains_River → touches_River`
//!   motivation at any scale.

#![forbid(unsafe_code)]

pub mod city;
pub mod experiments;
pub mod hydrology;
pub mod random;
pub mod table1;

pub use city::{default_knowledge, generate_city, CityConfig};
pub use hydrology::{generate_hydrology, HydrologyConfig};
pub use experiments::{experiment1, experiment2, sparse_baskets, Experiment, ExperimentSpec};
pub use random::{
    lattice_geometry, lattice_linestring, lattice_polygon, random_layer, random_linestring,
    star_polygon,
};
