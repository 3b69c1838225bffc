//! An R-tree spatial index.
//!
//! Built once per layer by Sort-Tile-Recursive (STR) bulk loading. The
//! predicate-extraction engine uses envelope queries to prune the
//! candidate (reference, relevant) feature pairs before any exact DE-9IM
//! computation — the cost centre the paper identifies ("the computational
//! cost relies on the spatial predicate extraction").

use geopattern_geom::Rect;

/// Maximum number of entries per node.
const MAX_ENTRIES: usize = 8;

/// Anything indexable: it must expose an envelope.
pub trait HasEnvelope {
    /// The envelope used as the index key.
    fn envelope(&self) -> Rect;
}

impl HasEnvelope for Rect {
    fn envelope(&self) -> Rect {
        *self
    }
}

#[derive(Debug)]
enum Node {
    Leaf { entries: Vec<usize>, bbox: Rect },
    Inner { children: Vec<Node>, bbox: Rect },
}

impl Node {
    fn bbox(&self) -> Rect {
        match self {
            Node::Leaf { bbox, .. } | Node::Inner { bbox, .. } => *bbox,
        }
    }
}

/// An R-tree over a slice of items. The tree stores item *indices*; the
/// items themselves stay owned by the caller's collection, so building an
/// index never clones geometry.
#[derive(Debug)]
pub struct RTree {
    root: Option<Node>,
    bboxes: Vec<Rect>,
}

impl RTree {
    /// Bulk loads a tree over `items` with STR packing.
    pub fn bulk_load<T: HasEnvelope>(items: &[T]) -> RTree {
        let bboxes: Vec<Rect> = items.iter().map(|t| t.envelope()).collect();
        let mut tree = RTree { root: None, bboxes };
        if items.is_empty() {
            return tree;
        }
        // STR: sort by centre x, slice into vertical strips, sort each strip
        // by centre y, pack leaves of MAX_ENTRIES.
        let mut idx: Vec<usize> = (0..items.len()).collect();
        idx.sort_by(|&a, &b| {
            tree.bboxes[a]
                .center()
                .x
                .partial_cmp(&tree.bboxes[b].center().x)
                .expect("finite envelope")
        });
        let leaf_count = items.len().div_ceil(MAX_ENTRIES);
        let strip_count = (leaf_count as f64).sqrt().ceil() as usize;
        let per_strip = items.len().div_ceil(strip_count);

        let mut leaves: Vec<Node> = Vec::with_capacity(leaf_count);
        for strip in idx.chunks(per_strip.max(1)) {
            let mut strip: Vec<usize> = strip.to_vec();
            strip.sort_by(|&a, &b| {
                tree.bboxes[a]
                    .center()
                    .y
                    .partial_cmp(&tree.bboxes[b].center().y)
                    .expect("finite envelope")
            });
            for chunk in strip.chunks(MAX_ENTRIES) {
                let bbox = chunk
                    .iter()
                    .fold(Rect::EMPTY, |acc, &i| acc.union(&tree.bboxes[i]));
                leaves.push(Node::Leaf { entries: chunk.to_vec(), bbox });
            }
        }
        // Pack upper levels until a single root remains.
        let mut level = leaves;
        while level.len() > 1 {
            let mut next: Vec<Node> = Vec::with_capacity(level.len().div_ceil(MAX_ENTRIES));
            let mut iter = level.into_iter().peekable();
            let mut group: Vec<Node> = Vec::with_capacity(MAX_ENTRIES);
            while let Some(n) = iter.next() {
                group.push(n);
                if group.len() == MAX_ENTRIES || iter.peek().is_none() {
                    let bbox = group.iter().fold(Rect::EMPTY, |acc, n| acc.union(&n.bbox()));
                    next.push(Node::Inner { children: std::mem::take(&mut group), bbox });
                }
            }
            level = next;
        }
        tree.root = level.pop();
        tree
    }

    /// Number of indexed items.
    pub fn len(&self) -> usize {
        self.bboxes.len()
    }

    /// True when no items are indexed.
    pub fn is_empty(&self) -> bool {
        self.bboxes.is_empty()
    }

    /// All item indices whose envelope intersects `query`, ascending.
    pub fn query_rect(&self, query: &Rect) -> Vec<usize> {
        let mut out = Vec::new();
        self.query_rect_into(query, &mut out);
        out
    }

    /// [`RTree::query_rect`] into `out`, which is cleared first: a caller
    /// that keeps one buffer for many queries allocates only while it
    /// grows.
    pub fn query_rect_into(&self, query: &Rect, out: &mut Vec<usize>) {
        out.clear();
        if let Some(root) = &self.root {
            self.query_rec(root, query, out);
        }
        out.sort_unstable();
    }

    fn query_rec(&self, node: &Node, query: &Rect, out: &mut Vec<usize>) {
        if !node.bbox().intersects(query) {
            return;
        }
        match node {
            Node::Leaf { entries, .. } => {
                for &i in entries {
                    if self.bboxes[i].intersects(query) {
                        out.push(i);
                    }
                }
            }
            Node::Inner { children, .. } => {
                for c in children {
                    self.query_rec(c, query, out);
                }
            }
        }
    }

    /// All item indices whose envelope intersects `rect` buffered by
    /// `margin` on every side — the spatial window query used by bounded
    /// distance-band extraction (a geometry within distance `d` of `rect`
    /// necessarily has an envelope intersecting `rect` buffered by `d`).
    pub fn query_window(&self, rect: &Rect, margin: f64) -> Vec<usize> {
        self.query_rect(&rect.buffered(margin))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geopattern_geom::coord;

    fn rect(x0: f64, y0: f64, x1: f64, y1: f64) -> Rect {
        Rect::new(coord(x0, y0), coord(x1, y1))
    }

    fn grid(n: usize) -> Vec<Rect> {
        let mut out = Vec::new();
        for i in 0..n {
            for j in 0..n {
                let x = i as f64 * 10.0;
                let y = j as f64 * 10.0;
                out.push(rect(x, y, x + 5.0, y + 5.0));
            }
        }
        out
    }

    fn brute_force(items: &[Rect], query: &Rect) -> Vec<usize> {
        items
            .iter()
            .enumerate()
            .filter(|(_, r)| r.intersects(query))
            .map(|(i, _)| i)
            .collect()
    }

    #[test]
    fn empty_tree() {
        let t = RTree::bulk_load::<Rect>(&[]);
        assert!(t.is_empty());
        assert_eq!(t.query_rect(&rect(0.0, 0.0, 100.0, 100.0)), Vec::<usize>::new());
    }

    #[test]
    fn bulk_load_matches_brute_force() {
        let items = grid(12); // 144 items, multiple levels
        let t = RTree::bulk_load(&items);
        assert_eq!(t.len(), 144);
        let queries = [
            rect(0.0, 0.0, 25.0, 25.0),
            rect(50.0, 50.0, 55.0, 55.0),
            rect(-10.0, -10.0, -1.0, -1.0),
            rect(0.0, 0.0, 1000.0, 1000.0),
            rect(33.0, 33.0, 34.0, 34.0),
        ];
        for q in queries {
            assert_eq!(t.query_rect(&q), brute_force(&items, &q), "query {q:?}");
        }
    }

    #[test]
    fn query_window_matches_brute_force() {
        let items = grid(5);
        let t = RTree::bulk_load(&items);
        // Items are 10 apart with 5x5 boxes: a 6-unit margin around the
        // (0,0) cell reaches its right and upper neighbours, not beyond.
        let window = rect(0.0, 0.0, 5.0, 5.0);
        let near = t.query_window(&window, 6.0);
        assert_eq!(near, brute_force(&items, &window.buffered(6.0)));
        assert_eq!(near, vec![0, 1, 5, 6]);
        // The buffer-reusing form clears what the buffer held.
        let mut out = vec![99];
        t.query_rect_into(&window.buffered(6.0), &mut out);
        assert_eq!(out, near);
    }

    #[test]
    fn degenerate_point_rectangles() {
        let items: Vec<Rect> = (0..50)
            .map(|i| Rect::of_point(coord(i as f64, (i * 7 % 13) as f64)))
            .collect();
        let t = RTree::bulk_load(&items);
        let q = rect(10.0, 0.0, 20.0, 20.0);
        assert_eq!(t.query_rect(&q), brute_force(&items, &q));
    }

    #[test]
    fn overlapping_items() {
        // Heavily overlapping rectangles: every leaf box overlaps others.
        let items: Vec<Rect> = (0..80)
            .map(|i| {
                let f = i as f64;
                rect(f * 0.5, f * 0.25, f * 0.5 + 20.0, f * 0.25 + 20.0)
            })
            .collect();
        let t = RTree::bulk_load(&items);
        let q = rect(10.0, 5.0, 12.0, 6.0);
        assert_eq!(t.query_rect(&q), brute_force(&items, &q));
    }
}
