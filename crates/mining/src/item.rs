//! Items and the item catalog.
//!
//! Mining operates on dictionary-encoded items (`u32`). Each item carries
//! the metadata the paper's filters need: its display label and — for
//! spatial predicates — the relevant *feature type* it concerns. Two items
//! over the same feature type form a "meaningless pair" in the KC+ sense.

use std::collections::HashMap;

/// An item identifier (index into the catalog).
pub type ItemId = u32;

/// The item dictionary with per-item metadata.
#[derive(Debug, Clone, Default)]
pub struct ItemCatalog {
    labels: Vec<String>,
    /// `Some(feature type)` for spatial predicates, `None` for non-spatial
    /// attribute items.
    feature_types: Vec<Option<String>>,
    by_label: HashMap<String, ItemId>,
}

impl ItemCatalog {
    /// Empty catalog.
    pub fn new() -> ItemCatalog {
        ItemCatalog::default()
    }

    /// Interns an item. Re-interning the same label returns the existing id
    /// (the feature type of the first interning wins).
    pub fn intern(&mut self, label: impl Into<String>, feature_type: Option<&str>) -> ItemId {
        let label = label.into();
        match self.by_label.get(&label) {
            Some(&id) => id,
            None => self.push(label, feature_type),
        }
    }

    /// Appends an item under the next id, even when an item with the same
    /// label exists ([`ItemCatalog::id_of`] keeps the first). A catalog
    /// built from numbered items, such as a predicate table's predicates,
    /// keeps their numbers as ids this way.
    pub fn push(&mut self, label: impl Into<String>, feature_type: Option<&str>) -> ItemId {
        let label = label.into();
        let id = self.labels.len() as ItemId;
        self.by_label.entry(label.clone()).or_insert(id);
        self.labels.push(label);
        self.feature_types.push(feature_type.map(str::to_string));
        id
    }

    /// Interns a non-spatial item.
    pub fn intern_attribute(&mut self, label: impl Into<String>) -> ItemId {
        self.intern(label, None)
    }

    /// Interns a spatial predicate item.
    pub fn intern_spatial(&mut self, label: impl Into<String>, feature_type: &str) -> ItemId {
        self.intern(label, Some(feature_type))
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// The display label of an item.
    pub fn label(&self, id: ItemId) -> &str {
        &self.labels[id as usize]
    }

    /// The feature type of an item (None for non-spatial items).
    pub fn feature_type(&self, id: ItemId) -> Option<&str> {
        self.feature_types[id as usize].as_deref()
    }

    /// Looks up an item id by label.
    pub fn id_of(&self, label: &str) -> Option<ItemId> {
        self.by_label.get(label).copied()
    }

    /// True when both items are spatial predicates over the same feature
    /// type — the KC+ "meaningless pair" condition.
    pub fn same_feature_type(&self, a: ItemId, b: ItemId) -> bool {
        match (self.feature_type(a), self.feature_type(b)) {
            (Some(x), Some(y)) => x == y,
            _ => false,
        }
    }

    /// All unordered same-feature-type item pairs `(a, b)`, `a < b`, in
    /// ascending order — exactly the pairs Apriori-KC+ removes from `C₂`.
    /// Items are grouped by feature type first, so the cost follows the
    /// pairs emitted rather than all item pairs.
    pub fn same_feature_type_pairs(&self) -> Vec<(ItemId, ItemId)> {
        let mut by_type: HashMap<&str, Vec<ItemId>> = HashMap::new();
        for id in 0..self.len() as ItemId {
            if let Some(ft) = self.feature_type(id) {
                by_type.entry(ft).or_default().push(id);
            }
        }
        let mut out = Vec::new();
        for ids in by_type.values() {
            for (i, &a) in ids.iter().enumerate() {
                out.extend(ids[i + 1..].iter().map(|&b| (a, b)));
            }
        }
        out.sort_unstable();
        out
    }

    /// Renders an itemset as labels, e.g.
    /// `{murderRate=high, contains_slum}`.
    pub fn render_itemset(&self, items: &[ItemId]) -> String {
        let names: Vec<&str> = items.iter().map(|&i| self.label(i)).collect();
        format!("{{{}}}", names.join(", "))
    }
}

/// A transaction database: rows of sorted, deduplicated item ids plus the
/// catalog that interprets them.
#[derive(Debug, Clone, Default)]
pub struct TransactionSet {
    /// The item dictionary.
    pub catalog: ItemCatalog,
    transactions: Vec<Vec<ItemId>>,
}

impl TransactionSet {
    /// Empty transaction set.
    pub fn new(catalog: ItemCatalog) -> TransactionSet {
        TransactionSet { catalog, transactions: Vec::new() }
    }

    /// Adds a transaction; items are sorted and deduplicated.
    pub fn push(&mut self, mut items: Vec<ItemId>) {
        debug_assert!(items.iter().all(|&i| (i as usize) < self.catalog.len()));
        items.sort_unstable();
        items.dedup();
        self.transactions.push(items);
    }

    /// The transactions.
    pub fn transactions(&self) -> &[Vec<ItemId>] {
        &self.transactions
    }

    /// Number of transactions.
    pub fn len(&self) -> usize {
        self.transactions.len()
    }

    /// True when there are no transactions.
    pub fn is_empty(&self) -> bool {
        self.transactions.is_empty()
    }

    /// Builds a transaction set directly from labelled rows — handy for
    /// tests and examples. Spatial labels are recognised by the supplied
    /// `feature_type_of` function (return `None` for non-spatial labels).
    pub fn from_labels<F>(rows: &[Vec<&str>], feature_type_of: F) -> TransactionSet
    where
        F: Fn(&str) -> Option<String>,
    {
        let mut catalog = ItemCatalog::new();
        let mut encoded = Vec::with_capacity(rows.len());
        for row in rows {
            let items: Vec<ItemId> = row
                .iter()
                .map(|&label| {
                    let ft = feature_type_of(label);
                    catalog.intern(label, ft.as_deref())
                })
                .collect();
            encoded.push(items);
        }
        let mut ts = TransactionSet::new(catalog);
        for row in encoded {
            ts.push(row);
        }
        ts
    }

    /// Derives feature types from the paper's `relation_featureType` label
    /// convention: a label containing `_` is spatial with the feature type
    /// after the first underscore; labels with `=` are non-spatial.
    pub fn from_paper_labels(rows: &[Vec<&str>]) -> TransactionSet {
        TransactionSet::from_labels(rows, |label| {
            if label.contains('=') {
                None
            } else {
                label.split_once('_').map(|(_, ft)| ft.to_string())
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning() {
        let mut c = ItemCatalog::new();
        let a = c.intern_spatial("contains_slum", "slum");
        let b = c.intern_spatial("contains_slum", "slum");
        let d = c.intern_attribute("murderRate=high");
        assert_eq!(a, b);
        assert_ne!(a, d);
        assert_eq!(c.len(), 2);
        assert_eq!(c.label(a), "contains_slum");
        assert_eq!(c.feature_type(a), Some("slum"));
        assert_eq!(c.feature_type(d), None);
        assert_eq!(c.id_of("contains_slum"), Some(a));
        assert_eq!(c.id_of("nope"), None);
    }

    #[test]
    fn same_feature_type_logic() {
        let mut c = ItemCatalog::new();
        let cs = c.intern_spatial("contains_slum", "slum");
        let ts = c.intern_spatial("touches_slum", "slum");
        let sch = c.intern_spatial("contains_school", "school");
        let mr = c.intern_attribute("murderRate=high");
        assert!(c.same_feature_type(cs, ts));
        assert!(!c.same_feature_type(cs, sch));
        assert!(!c.same_feature_type(cs, mr));
        assert!(!c.same_feature_type(mr, mr)); // non-spatial never pairs
        assert_eq!(c.same_feature_type_pairs(), vec![(cs, ts)]);
    }

    /// The definition the grouped enumeration must reproduce: every item
    /// pair, tested one by one.
    fn all_pairs_reference(c: &ItemCatalog) -> Vec<(ItemId, ItemId)> {
        let n = c.len() as ItemId;
        (0..n)
            .flat_map(|a| (a + 1..n).map(move |b| (a, b)))
            .filter(|&(a, b)| c.same_feature_type(a, b))
            .collect()
    }

    #[test]
    fn same_feature_type_pairs_enumerated() {
        let mut c = ItemCatalog::new();
        let c_slum = c.intern_spatial("contains_slum", "slum");
        let t_slum = c.intern_spatial("touches_slum", "slum");
        let c_school = c.intern_spatial("contains_school", "school");
        let murder = c.intern_attribute("murderRate=high");
        let o_slum = c.intern_spatial("overlaps_slum", "slum");
        let t_school = c.intern_spatial("touches_school", "school");

        let pairs = c.same_feature_type_pairs();
        // C(3,2) slum pairs + C(2,2) school pairs = 3 + 1.
        assert_eq!(pairs.len(), 4);
        assert!(pairs.contains(&(c_slum, t_slum)));
        assert!(pairs.contains(&(c_slum, o_slum)));
        assert!(pairs.contains(&(t_slum, o_slum)));
        assert!(pairs.contains(&(c_school, t_school)));
        // Non-spatial items never participate.
        assert!(pairs.iter().all(|&(x, y)| x != murder && y != murder));
        assert_eq!(pairs, all_pairs_reference(&c));
    }

    #[test]
    fn same_feature_type_pairs_match_the_all_pairs_definition() {
        // Interleaved types and attributes, including a one-item type and
        // an empty catalog.
        let mut c = ItemCatalog::new();
        assert_eq!(c.same_feature_type_pairs(), all_pairs_reference(&c));
        for i in 0..40u32 {
            match i % 5 {
                0 => c.intern_attribute(format!("a{i}=v")),
                k => c.intern_spatial(format!("r{i}_t{k}"), &format!("t{}", k.min(3))),
            };
        }
        c.intern_spatial("only_lonely", "lonely");
        let pairs = c.same_feature_type_pairs();
        assert!(!pairs.is_empty());
        assert_eq!(pairs, all_pairs_reference(&c));
    }

    #[test]
    fn transactions_sorted_and_deduped() {
        let mut c = ItemCatalog::new();
        let a = c.intern_attribute("a");
        let b = c.intern_attribute("b");
        let mut ts = TransactionSet::new(c);
        ts.push(vec![b, a, b]);
        assert_eq!(ts.transactions()[0], vec![a, b]);
        assert_eq!(ts.len(), 1);
    }

    #[test]
    fn from_paper_labels_infers_types() {
        let ts = TransactionSet::from_paper_labels(&[
            vec!["murderRate=high", "contains_slum", "touches_slum"],
            vec!["contains_school"],
        ]);
        let c = &ts.catalog;
        assert_eq!(c.feature_type(c.id_of("contains_slum").unwrap()), Some("slum"));
        assert_eq!(c.feature_type(c.id_of("murderRate=high").unwrap()), None);
        assert_eq!(c.same_feature_type_pairs().len(), 1);
        assert_eq!(ts.len(), 2);
    }

    #[test]
    fn render_itemset() {
        let mut c = ItemCatalog::new();
        let a = c.intern_attribute("murderRate=high");
        let b = c.intern_spatial("contains_slum", "slum");
        assert_eq!(c.render_itemset(&[a, b]), "{murderRate=high, contains_slum}");
        assert_eq!(c.render_itemset(&[]), "{}");
    }
}
