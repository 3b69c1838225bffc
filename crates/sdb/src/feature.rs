//! Features, feature types and layers.
//!
//! A *feature* is a geographic object instance: a geometry plus non-spatial
//! attributes. A *layer* groups all instances of one feature type
//! (`district`, `slum`, `school`, …) and owns a packed STR tree
//! ([`StrTree`]) over their envelopes, bulk-loaded when the layer is built.

use geopattern_geom::{Geometry, Rect, StrTree};
use std::collections::BTreeMap;

/// A geographic object instance.
#[derive(Debug, Clone, PartialEq)]
pub struct Feature {
    /// Identifier, unique within its layer (e.g. `"Nonoai"`, `"slum159"`).
    pub id: String,
    /// The feature geometry.
    pub geometry: Geometry,
    /// Categorical non-spatial attributes (`murderRate → high`). Sorted map
    /// so iteration (and therefore item numbering) is deterministic.
    pub attributes: BTreeMap<String, String>,
}

impl Feature {
    /// Creates a feature without attributes.
    pub fn new(id: impl Into<String>, geometry: Geometry) -> Feature {
        Feature { id: id.into(), geometry, attributes: BTreeMap::new() }
    }

    /// Adds a categorical attribute (builder style).
    pub fn with_attribute(mut self, name: impl Into<String>, value: impl Into<String>) -> Feature {
        self.attributes.insert(name.into(), value.into());
        self
    }

    /// The feature's envelope.
    pub fn envelope(&self) -> Rect {
        self.geometry.envelope()
    }
}

/// All instances of one feature type.
#[derive(Debug)]
pub struct Layer {
    /// The feature-type name (`"district"`, `"slum"`, …).
    pub feature_type: String,
    features: Vec<Feature>,
    index: StrTree,
}

impl Layer {
    /// Builds a layer, bulk-loading the spatial index.
    pub fn new(feature_type: impl Into<String>, features: Vec<Feature>) -> Layer {
        Layer {
            feature_type: feature_type.into(),
            index: StrTree::build(features.iter().map(Feature::envelope)),
            features,
        }
    }

    /// Builds a layer from features and a pre-built spatial index (used by
    /// the binary-dataset decoder, which builds it from the stored
    /// envelopes). The index must have been built from the features'
    /// envelopes, in feature order.
    pub(crate) fn with_index(
        feature_type: String,
        features: Vec<Feature>,
        index: StrTree,
    ) -> Layer {
        debug_assert_eq!(features.len(), index.len());
        Layer { feature_type, index, features }
    }

    /// The features in the layer.
    pub fn features(&self) -> &[Feature] {
        &self.features
    }

    /// Number of features.
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// True when the layer holds no features.
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }

    /// Indices of features whose envelope intersects `query`, ascending.
    pub fn query_envelope(&self, query: &Rect) -> Vec<usize> {
        let mut out = Vec::new();
        self.index.query_rect_into(query, &mut out);
        out
    }

    /// The spatial index over the features' envelopes, in feature order.
    pub fn index(&self) -> &StrTree {
        &self.index
    }

    /// Union envelope of the layer.
    pub fn envelope(&self) -> Rect {
        self.features
            .iter()
            .fold(Rect::EMPTY, |acc, f| acc.union(&f.envelope()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geopattern_geom::{coord, Point, Polygon};

    fn point_feature(id: &str, x: f64, y: f64) -> Feature {
        Feature::new(id, Point::xy(x, y).unwrap().into())
    }

    #[test]
    fn feature_attributes() {
        let f = Feature::new(
            "Nonoai",
            Polygon::rect(coord(0.0, 0.0), coord(2.0, 2.0)).unwrap().into(),
        )
        .with_attribute("murderRate", "high")
        .with_attribute("theftRate", "high");
        assert_eq!(f.attributes.get("murderRate").map(String::as_str), Some("high"));
        assert_eq!(f.attributes.len(), 2);
        assert_eq!(f.envelope().max, coord(2.0, 2.0));
    }

    #[test]
    fn layer_query_uses_index() {
        let features: Vec<Feature> = (0..100)
            .map(|i| point_feature(&format!("p{i}"), (i % 10) as f64 * 10.0, (i / 10) as f64 * 10.0))
            .collect();
        let layer = Layer::new("school", features);
        assert_eq!(layer.len(), 100);
        let hits = layer.query_envelope(&Rect::new(coord(-1.0, -1.0), coord(11.0, 11.0)));
        assert_eq!(hits.len(), 4); // (0,0), (10,0), (0,10), (10,10)
        for i in hits {
            let env = layer.features()[i].envelope();
            assert!(env.min.x <= 11.0 && env.min.y <= 11.0);
        }
    }

    #[test]
    fn layer_queries_count_nothing() {
        use geopattern_geom::{take_kernel_counters, KernelCounters};
        let features: Vec<Feature> =
            (0..100).map(|i| point_feature("p", (i % 10) as f64, (i / 10) as f64)).collect();
        let layer = Layer::new("school", features);
        let window = Rect::new(coord(2.0, 2.0), coord(5.0, 5.0));
        let _ = take_kernel_counters();
        let hits = layer.query_envelope(&window);
        let mut out = Vec::new();
        layer.index().query_rect_into(&window, &mut out);
        assert_eq!(out, hits);
        assert_eq!(layer.index().query_window(&window, 1.0).len(), 36);
        assert_eq!(hits.len(), 16);
        assert_eq!(take_kernel_counters(), KernelCounters::default());
    }

    #[test]
    fn layer_envelope_covers_every_feature() {
        assert!(Layer::new("school", vec![]).is_empty());
        let layer = Layer::new(
            "school",
            vec![point_feature("a", 5.0, 5.0), point_feature("b", 50.0, 50.0)],
        );
        let hits = layer.query_envelope(&Rect::new(coord(0.0, 0.0), coord(10.0, 10.0)));
        assert_eq!(hits, vec![0]);
        assert_eq!(layer.envelope().max, coord(50.0, 50.0));
    }
}
