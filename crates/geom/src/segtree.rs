//! The packed STR tree behind every envelope query and every point
//! location in the workspace.
//!
//! [`StrTree`] is a flat, packed R-tree over envelopes, bulk-loaded with
//! the Sort-Tile-Recursive (STR) heuristic. All nodes live in one arena
//! `Vec` (no per-node allocation, no pointers); leaf entries keep their
//! original indices. A prepared geometry indexes its segments with one,
//! and a layer (`geopattern-sdb`) its features' envelopes. The segment
//! query hands each hit to a visitor, and every caller's use of the hits
//! is order-free (flags are OR-ed, cuts and intervals sorted, `any`), so
//! downstream loops decide exactly like the brute-force scans they
//! replace; a layer query sorts its hits ascending. Besides envelope
//! queries a segment tree supports:
//!
//! * point location in the region its segments bound
//!   ([`StrTree::locate`]): a query along the horizontal ray from the
//!   point, whose hits are decided by [`crate::polygon::Ring::locate`]'s
//!   exact edge tests under one even-odd rule over all of a region's
//!   rings, so a prepared region needs no second index;
//! * branch-and-bound minimum-distance searches (point-to-tree and
//!   tree-to-tree) that prune any subtree pair whose box-to-box distance
//!   already exceeds the caller's bound;
//! * a tree-to-tree contact search that stops at the first pair of
//!   segments sharing a point (the relate engine's test of whether two
//!   region boundaries meet). Both tree-to-tree traversals expand node
//!   pairs by one rule.
//!
//! Every traversal keeps its pending nodes in one fixed-capacity stack
//! on the call stack, so no query allocates except into a layer query's
//! output buffer.
//!
//! The module also hosts the thread-local kernel counters surfaced by the
//! extraction pipeline (`geom/segtree_nodes_visited`, `geom/pairs_exact`,
//! `geom/distance_early_exit`); see [`take_kernel_counters`]. Only the
//! relate kernel's segment queries, contact searches and distance
//! searches count: a layer's envelope query counts nothing.

use crate::bbox::Rect;
use crate::coord::Coord;
use crate::polygon::{edge_tests, PointLocation};
use crate::segment::{SegSegIntersection, Segment};
use std::cell::Cell;

// ---------------------------------------------------------------------------
// Kernel counters
// ---------------------------------------------------------------------------

thread_local! {
    static NODES_VISITED: Cell<u64> = const { Cell::new(0) };
    static PAIRS_EXACT: Cell<u64> = const { Cell::new(0) };
    static DISTANCE_EARLY_EXIT: Cell<u64> = const { Cell::new(0) };
}

/// Snapshot of the thread-local kernel counters.
///
/// The counters observe the index-accelerated kernel: they never influence
/// any geometric decision, and resetting them (via
/// [`take_kernel_counters`]) is free of side effects on results.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelCounters {
    /// Segment-tree nodes (and node pairs) visited by queries, contact
    /// searches and bounded-distance traversals.
    pub segtree_nodes_visited: u64,
    /// Exact segment-pair (or point-segment) distance evaluations reached
    /// at tree leaves.
    pub pairs_exact: u64,
    /// Subtree (pairs) pruned by a bound or best-so-far comparison, plus
    /// envelope-level early exits in bounded-distance queries.
    pub distance_early_exit: u64,
    /// Always 0: the bounded-distance search has no `f64` lane tier. Kept,
    /// like `simd_fallback_exact`, so consumers of the counter set keep
    /// compiling and reading the same keys.
    pub simd_lanes_tested: u64,
    /// Always 0: point location has no `f64` lane tier in front of the
    /// exact index. Kept so consumers of the counter set keep compiling
    /// and reading the same keys.
    pub simd_fallback_exact: u64,
    /// Always 0: point location has no quantized grid tier in front of
    /// the exact [`StrTree::locate`]. Kept, like the `simd_*` fields, so
    /// consumers of the counter set keep compiling and reading the same
    /// keys.
    pub quant_cells_resolved: u64,
    /// Always 0, for the same reason as `quant_cells_resolved`.
    pub quant_fallback_exact: u64,
}

impl std::ops::AddAssign for KernelCounters {
    /// Field-wise sum, for totalling per-unit counters in a fixed order.
    fn add_assign(&mut self, other: KernelCounters) {
        self.segtree_nodes_visited += other.segtree_nodes_visited;
        self.pairs_exact += other.pairs_exact;
        self.distance_early_exit += other.distance_early_exit;
        self.simd_lanes_tested += other.simd_lanes_tested;
        self.simd_fallback_exact += other.simd_fallback_exact;
        self.quant_cells_resolved += other.quant_cells_resolved;
        self.quant_fallback_exact += other.quant_fallback_exact;
    }
}

/// Reads **and resets** this thread's kernel counters.
///
/// Callers that attribute kernel work to a unit (e.g. one extraction row)
/// should call this once before the unit to discard residue and once after
/// to collect the unit's counts.
pub fn take_kernel_counters() -> KernelCounters {
    KernelCounters {
        segtree_nodes_visited: NODES_VISITED.with(|c| c.take()),
        pairs_exact: PAIRS_EXACT.with(|c| c.take()),
        distance_early_exit: DISTANCE_EARLY_EXIT.with(|c| c.take()),
        simd_lanes_tested: 0,
        simd_fallback_exact: 0,
        quant_cells_resolved: 0,
        quant_fallback_exact: 0,
    }
}

#[inline]
fn note_nodes(n: u64) {
    NODES_VISITED.with(|c| c.set(c.get() + n));
}

#[inline]
fn note_pairs(n: u64) {
    PAIRS_EXACT.with(|c| c.set(c.get() + n));
}

/// Records bound/best pruning events. `pub(crate)` so the prepared-geometry
/// envelope fast path can report its early exits through the same counter.
#[inline]
pub(crate) fn note_early_exit(n: u64) {
    DISTANCE_EARLY_EXIT.with(|c| c.set(c.get() + n));
}

/// True when a lower bound `lb` rules out staying within `limit`.
///
/// Deliberately `!(lb <= limit)` rather than `lb > limit`: a NaN `limit`
/// must prune everything (bounded queries answer `None`), not disable
/// pruning and fall through to an exhaustive scan.
#[inline]
#[allow(clippy::neg_cmp_op_on_partial_ord)]
pub(crate) fn exceeds(lb: f64, limit: f64) -> bool {
    !(lb <= limit)
}

// ---------------------------------------------------------------------------
// StrTree
// ---------------------------------------------------------------------------

/// Leaf fan-out and internal fan-out of the packed tree.
const NODE_CAPACITY: usize = 8;

/// Node levels of the tallest tree a `u32` entry count can build: a leaf
/// holds up to `NODE_CAPACITY` entries, each level above packs up to
/// `NODE_CAPACITY` nodes.
const MAX_LEVELS: usize = {
    let mut levels = 1;
    let mut nodes = (u32::MAX as u64).div_ceil(NODE_CAPACITY as u64);
    while nodes > 1 {
        nodes = nodes.div_ceil(NODE_CAPACITY as u64);
        levels += 1;
    }
    levels
};

/// Capacity of the traversal [`Stack`]. Expanding a node pops it and
/// pushes at most `NODE_CAPACITY` children, a net growth of
/// `NODE_CAPACITY - 1`, and a root-to-leaf path expands `MAX_LEVELS - 1`
/// nodes; a tree-to-tree traversal expands along a path in each tree.
const STACK_CAPACITY: usize = 1 + 2 * (MAX_LEVELS - 1) * (NODE_CAPACITY - 1);

/// A fixed-capacity LIFO on the call stack, holding a traversal's pending
/// nodes. `STACK_CAPACITY` bounds every traversal of a tree this module
/// builds, so a push never runs past it.
struct Stack<T> {
    items: [T; STACK_CAPACITY],
    len: usize,
}

impl<T: Copy + Default> Stack<T> {
    /// A stack holding `first`.
    fn new(first: T) -> Stack<T> {
        let mut items = [T::default(); STACK_CAPACITY];
        items[0] = first;
        Stack { items, len: 1 }
    }

    #[inline]
    fn push(&mut self, item: T) {
        self.items[self.len] = item;
        self.len += 1;
    }

    #[inline]
    fn pop(&mut self) -> Option<T> {
        self.len = self.len.checked_sub(1)?;
        Some(self.items[self.len])
    }
}

#[derive(Debug, Clone, Copy)]
struct Node {
    rect: Rect,
    /// Leaf: first entry index. Internal: first child node index.
    first: u32,
    count: u32,
    leaf: bool,
}

/// A flat, packed R-tree over envelopes (STR bulk-load): the index of a
/// prepared geometry's segments and of a layer's features alike.
///
/// The tree stores only envelopes plus their original indices. Distance
/// and contact traversals of a segment tree take the segment slice as a
/// parameter, so one index can be shared by borrowing views of the same
/// geometry.
#[derive(Debug, Clone)]
pub struct StrTree {
    /// `(envelope, original index)`, in STR packing order.
    entries: Vec<(Rect, u32)>,
    /// Arena of nodes, packed level by level, root last.
    nodes: Vec<Node>,
}

impl StrTree {
    /// Bulk-loads the tree over `envelopes`, numbered in iteration order,
    /// with the STR heuristic: entries are sorted into vertical slices by
    /// envelope-center x, each slice is sorted by center y, and
    /// consecutive runs of `NODE_CAPACITY` become leaves; upper levels
    /// pack consecutive runs of child nodes until a single root remains.
    /// Both sorts are stable, so equal centers keep their input order.
    pub fn build(envelopes: impl IntoIterator<Item = Rect>) -> StrTree {
        let mut entries: Vec<(Rect, u32)> =
            envelopes.into_iter().enumerate().map(|(i, r)| (r, i as u32)).collect();
        let mut nodes: Vec<Node> = Vec::new();
        let n = entries.len();
        assert!(n <= u32::MAX as usize, "a StrTree indexes at most u32::MAX entries");
        if n == 0 {
            return StrTree { entries, nodes };
        }

        let num_leaves = n.div_ceil(NODE_CAPACITY);
        let slices = (num_leaves as f64).sqrt().ceil() as usize;
        let slice_cap = n.div_ceil(slices.max(1)).max(1);
        entries.sort_by(|a, b| a.0.center().x.total_cmp(&b.0.center().x));
        for chunk in entries.chunks_mut(slice_cap) {
            chunk.sort_by(|a, b| a.0.center().y.total_cmp(&b.0.center().y));
        }

        // Leaf level.
        let mut start = 0usize;
        while start < n {
            let count = NODE_CAPACITY.min(n - start);
            let rect = entries[start..start + count]
                .iter()
                .fold(Rect::EMPTY, |acc, e| acc.union(&e.0));
            nodes.push(Node { rect, first: start as u32, count: count as u32, leaf: true });
            start += count;
        }

        // Upper levels, packing consecutive children until a single root.
        let mut level_start = 0usize;
        let mut level_len = nodes.len();
        while level_len > 1 {
            let level_end = level_start + level_len;
            let mut child = level_start;
            while child < level_end {
                let count = NODE_CAPACITY.min(level_end - child);
                let rect = nodes[child..child + count]
                    .iter()
                    .fold(Rect::EMPTY, |acc, node| acc.union(&node.rect));
                nodes.push(Node { rect, first: child as u32, count: count as u32, leaf: false });
                child += count;
            }
            level_start = level_end;
            level_len = nodes.len() - level_start;
        }
        StrTree { entries, nodes }
    }

    /// Number of indexed entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Root envelope of the indexed entries ([`Rect::EMPTY`] when empty).
    pub fn envelope(&self) -> Rect {
        self.nodes.last().map(|n| n.rect).unwrap_or(Rect::EMPTY)
    }

    /// Calls `hit` with the original index of every entry whose envelope
    /// intersects `rect`, each once, in traversal order (not ascending).
    /// Callers' use of the hits must not depend on their order. The nodes
    /// it visits count under `segtree_nodes_visited`: this is the segment
    /// query of the relate kernel. Allocates nothing.
    pub fn query(&self, rect: &Rect, hit: impl FnMut(u32)) {
        note_nodes(self.visit(rect, hit));
    }

    /// The original indices of every entry whose envelope intersects
    /// `rect`, ascending, in `out`, which is cleared first: a caller that
    /// keeps one buffer for many queries allocates only while it grows.
    /// This is a layer's envelope query, and it counts nothing.
    pub fn query_rect_into(&self, rect: &Rect, out: &mut Vec<usize>) {
        out.clear();
        self.visit(rect, |i| out.push(i as usize));
        out.sort_unstable();
    }

    /// The original indices of every entry whose envelope intersects
    /// `rect` buffered by `margin` on every side, ascending: the window
    /// of bounded distance-band extraction (a geometry within distance
    /// `d` of `rect` has an envelope intersecting `rect` buffered by `d`).
    pub fn query_window(&self, rect: &Rect, margin: f64) -> Vec<usize> {
        let mut out = Vec::new();
        self.query_rect_into(&rect.buffered(margin), &mut out);
        out
    }

    /// The envelope traversal behind every query form: hands each hit to
    /// `hit` and returns the number of nodes visited.
    fn visit(&self, rect: &Rect, mut hit: impl FnMut(u32)) -> u64 {
        let Some(root) = self.nodes.len().checked_sub(1) else {
            return 0;
        };
        let mut visited = 0u64;
        let mut stack = Stack::new(root as u32);
        while let Some(ni) = stack.pop() {
            visited += 1;
            let node = self.nodes[ni as usize];
            if !node.rect.intersects(rect) {
                continue;
            }
            if node.leaf {
                let (first, count) = (node.first as usize, node.count as usize);
                for e in &self.entries[first..first + count] {
                    if e.0.intersects(rect) {
                        hit(e.1);
                    }
                }
            } else {
                for child in node.first..node.first + node.count {
                    stack.push(child);
                }
            }
        }
        visited
    }

    /// Classifies `p` against the region the indexed segments bound, by
    /// the even-odd rule over all of them: on the boundary when a segment
    /// contains `p`, else inside when an odd number of segments cross the
    /// ray from `p` to +x. Each segment is decided by
    /// [`crate::polygon::Ring::locate`]'s exact edge tests; the query
    /// along the ray inspects only the segments whose envelopes meet it,
    /// and every segment that contains `p` or crosses the ray is one of
    /// them. Over a polygon's or a multi-polygon's rings, this is the
    /// location [`crate::polygon::MultiPolygon::locate`]'s scan gives.
    ///
    /// `segments` must be the slice the tree was built over, made of
    /// whole closed rings. Counts nothing and allocates nothing.
    pub fn locate(&self, segments: &[Segment], p: Coord) -> PointLocation {
        if !self.envelope().contains_point(p) {
            return PointLocation::Outside;
        }
        let (mut on_boundary, mut inside) = (false, false);
        self.visit(&Rect::new(p, Coord::new(f64::INFINITY, p.y)), |i| {
            let (on, crosses) = edge_tests(&segments[i as usize], p);
            on_boundary |= on;
            inside ^= crosses;
        });
        if on_boundary {
            PointLocation::OnBoundary
        } else if inside {
            PointLocation::Inside
        } else {
            PointLocation::Outside
        }
    }

    /// Branch-and-bound minimum distance from `p` to the indexed segments,
    /// pruning subtrees whose envelope is farther than `limit` (or the best
    /// distance found so far). The returned value equals the true minimum
    /// whenever that minimum is `<= limit`; otherwise it is some value
    /// `> limit` (possibly `INFINITY`) that callers must discard.
    ///
    /// `segments` must be the slice whose envelopes the tree was built
    /// over, in order.
    pub fn point_distance_within(&self, segments: &[Segment], p: Coord, limit: f64) -> f64 {
        let mut best = f64::INFINITY;
        let Some(root) = self.nodes.len().checked_sub(1) else {
            return best;
        };
        let mut visited = 0u64;
        let mut exact = 0u64;
        let mut pruned = 0u64;
        let mut stack = Stack::new(root as u32);
        'search: while let Some(ni) = stack.pop() {
            visited += 1;
            let node = self.nodes[ni as usize];
            let lb = node.rect.distance_to_point(p);
            if exceeds(lb, limit) || lb >= best {
                pruned += 1;
                continue;
            }
            if node.leaf {
                let (first, count) = (node.first as usize, node.count as usize);
                for e in &self.entries[first..first + count] {
                    let elb = e.0.distance_to_point(p);
                    if exceeds(elb, limit) || elb >= best {
                        pruned += 1;
                        continue;
                    }
                    exact += 1;
                    let d = segments[e.1 as usize].distance_to_point(p);
                    if d < best {
                        best = d;
                    }
                    if best == 0.0 {
                        break 'search;
                    }
                }
            } else {
                for child in node.first..node.first + node.count {
                    stack.push(child);
                }
            }
        }
        note_nodes(visited);
        note_pairs(exact);
        note_early_exit(pruned);
        best
    }

    /// Branch-and-bound minimum distance between two segment trees, with
    /// the same bound semantics as [`StrTree::point_distance_within`]: the
    /// result equals the true minimum pair distance whenever that minimum
    /// is `<= limit`.
    ///
    /// `a_segs` / `b_segs` must be the slices the respective trees were
    /// built over. Node pairs are pruned when their box-to-box distance
    /// exceeds the bound or the best exact distance found so far; the pair
    /// achieving the minimum can never be pruned (its ancestors' box
    /// distances are lower bounds of it), so the surviving minimum is the
    /// same `f64` the exhaustive scan produces.
    pub fn pair_distance_within(
        &self,
        a_segs: &[Segment],
        other: &StrTree,
        b_segs: &[Segment],
        limit: f64,
    ) -> f64 {
        let mut best = f64::INFINITY;
        let (Some(ra), Some(rb)) = (
            self.nodes.len().checked_sub(1),
            other.nodes.len().checked_sub(1),
        ) else {
            return best;
        };
        let mut visited = 0u64;
        let mut exact = 0u64;
        let mut pruned = 0u64;
        let mut stack = Stack::new((ra as u32, rb as u32));
        'search: while let Some((ia, ib)) = stack.pop() {
            visited += 1;
            let na = self.nodes[ia as usize];
            let nb = other.nodes[ib as usize];
            let lb = na.rect.distance_to_rect(&nb.rect);
            if exceeds(lb, limit) || lb >= best {
                pruned += 1;
                continue;
            }
            if !(na.leaf && nb.leaf) {
                self.expand_pair(other, (ia, ib), &mut stack);
                continue;
            }
            let ea = &self.entries[na.first as usize..(na.first + na.count) as usize];
            let eb = &other.entries[nb.first as usize..(nb.first + nb.count) as usize];
            for a in ea {
                for b in eb {
                    let elb = a.0.distance_to_rect(&b.0);
                    if exceeds(elb, limit) || elb >= best {
                        pruned += 1;
                        continue;
                    }
                    exact += 1;
                    let d = a_segs[a.1 as usize].distance_to_segment(&b_segs[b.1 as usize]);
                    if d < best {
                        best = d;
                    }
                    if best == 0.0 {
                        break 'search;
                    }
                }
            }
        }
        note_nodes(visited);
        note_pairs(exact);
        note_early_exit(pruned);
        best
    }

    /// The first pair of segments, one indexed here and one in `other`,
    /// that share a point: their original indices `(a, b)`, or `None` when
    /// the two segment sets never meet. A node pair is skipped unless its
    /// boxes intersect; at a leaf pair, entries whose envelopes intersect
    /// are tested with the exact [`Segment::intersect`]. The pair returned
    /// is the first in traversal order, which is fixed for two given trees.
    ///
    /// `a_segs` / `b_segs` must be the slices the respective trees were
    /// built over. The node pairs visited count under
    /// `segtree_nodes_visited`, and nothing else counts. Allocates nothing.
    pub fn first_contact(
        &self,
        a_segs: &[Segment],
        other: &StrTree,
        b_segs: &[Segment],
    ) -> Option<(usize, usize)> {
        let (ra, rb) = (
            self.nodes.len().checked_sub(1)?,
            other.nodes.len().checked_sub(1)?,
        );
        let mut visited = 0u64;
        let mut contact = None;
        let mut stack = Stack::new((ra as u32, rb as u32));
        'search: while let Some((ia, ib)) = stack.pop() {
            visited += 1;
            let na = self.nodes[ia as usize];
            let nb = other.nodes[ib as usize];
            if !na.rect.intersects(&nb.rect) {
                continue;
            }
            if !(na.leaf && nb.leaf) {
                self.expand_pair(other, (ia, ib), &mut stack);
                continue;
            }
            let ea = &self.entries[na.first as usize..(na.first + na.count) as usize];
            let eb = &other.entries[nb.first as usize..(nb.first + nb.count) as usize];
            for a in ea {
                for b in eb {
                    if a.0.intersects(&b.0)
                        && a_segs[a.1 as usize].intersect(&b_segs[b.1 as usize])
                            != SegSegIntersection::None
                    {
                        contact = Some((a.1 as usize, b.1 as usize));
                        break 'search;
                    }
                }
            }
        }
        note_nodes(visited);
        contact
    }

    /// Pushes the child pairs of `(ia, ib)`, a node pair (this tree's node
    /// against `other`'s) that is not two leaves: the internal node's
    /// children against the other node, and when both are internal, the
    /// children of the one with the larger margin. Both tree-to-tree
    /// traversals expand by this one rule.
    fn expand_pair(&self, other: &StrTree, (ia, ib): (u32, u32), stack: &mut Stack<(u32, u32)>) {
        let (na, nb) = (&self.nodes[ia as usize], &other.nodes[ib as usize]);
        if !na.leaf && (nb.leaf || na.rect.margin() >= nb.rect.margin()) {
            for child in na.first..na.first + na.count {
                stack.push((child, ib));
            }
        } else {
            for child in nb.first..nb.first + nb.count {
                stack.push((ia, child));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coord::coord;
    use crate::polygon::Ring;
    use crate::segment::SegSegIntersection;

    fn grid_segments(n: usize) -> Vec<Segment> {
        (0..n)
            .map(|i| {
                let x = (i % 17) as f64 * 3.0;
                let y = (i / 17) as f64 * 2.0;
                Segment::new(coord(x, y), coord(x + 1.5, y + 1.0))
            })
            .collect()
    }

    fn seg_tree(segs: &[Segment]) -> StrTree {
        StrTree::build(segs.iter().map(Segment::envelope))
    }

    fn rect(x0: f64, y0: f64, x1: f64, y1: f64) -> Rect {
        Rect::new(coord(x0, y0), coord(x1, y1))
    }

    /// `n × n` boxes of side 5, 10 apart.
    fn box_grid(n: usize) -> Vec<Rect> {
        (0..n * n)
            .map(|k| {
                let (x, y) = ((k / n) as f64 * 10.0, (k % n) as f64 * 10.0);
                rect(x, y, x + 5.0, y + 5.0)
            })
            .collect()
    }

    #[test]
    fn query_matches_brute_force_envelope_scan() {
        // (envelopes, queries): segment grids of every shape from one leaf
        // to several levels, the empty tree, a 144-box multi-level grid,
        // point-degenerate boxes and heavily overlapping boxes.
        let seg_queries = vec![
            rect(0.0, 0.0, 4.0, 4.0),
            rect(10.0, 3.0, 25.0, 9.0),
            rect(-5.0, -5.0, -1.0, -1.0),
            rect(0.0, 0.0, 100.0, 100.0),
        ];
        let mut cases: Vec<(Vec<Rect>, Vec<Rect>)> = [0usize, 1, 7, 8, 9, 64, 65, 300]
            .into_iter()
            .map(|n| {
                let envelopes = grid_segments(n).iter().map(Segment::envelope).collect();
                (envelopes, seg_queries.clone())
            })
            .collect();
        cases.push((
            box_grid(12),
            vec![
                rect(0.0, 0.0, 25.0, 25.0),
                rect(50.0, 50.0, 55.0, 55.0),
                rect(-10.0, -10.0, -1.0, -1.0),
                rect(0.0, 0.0, 1000.0, 1000.0),
                rect(33.0, 33.0, 34.0, 34.0),
            ],
        ));
        cases.push((
            (0..50).map(|i| Rect::of_point(coord(i as f64, (i * 7 % 13) as f64))).collect(),
            vec![rect(10.0, 0.0, 20.0, 20.0)],
        ));
        cases.push((
            (0..80)
                .map(|i| {
                    let f = i as f64;
                    rect(f * 0.5, f * 0.25, f * 0.5 + 20.0, f * 0.25 + 20.0)
                })
                .collect(),
            vec![rect(10.0, 5.0, 12.0, 6.0)],
        ));
        for (envelopes, queries) in &cases {
            let n = envelopes.len();
            let tree = StrTree::build(envelopes.iter().copied());
            assert_eq!(tree.len(), n);
            for q in queries {
                let brute: Vec<usize> = (0..n).filter(|&i| envelopes[i].intersects(q)).collect();
                let mut hits = Vec::new();
                tree.query(q, |i| hits.push(i as usize));
                hits.sort_unstable();
                assert_eq!(hits, brute, "n={n} query={q:?}");
                // The buffer form clears what the buffer held.
                let mut out = vec![99];
                tree.query_rect_into(q, &mut out);
                assert_eq!(out, brute, "n={n} query={q:?}");
                assert_eq!(tree.query_window(q, 0.0), brute, "n={n} query={q:?}");
            }
        }

        // A window with a margin: around the (0,0) box of a 5 × 5 grid, a
        // 6-unit margin reaches its right and upper neighbours, not beyond.
        let items = box_grid(5);
        let tree = StrTree::build(items.iter().copied());
        let window = rect(0.0, 0.0, 5.0, 5.0);
        let near = tree.query_window(&window, 6.0);
        let brute: Vec<usize> =
            (0..items.len()).filter(|&i| items[i].intersects(&window.buffered(6.0))).collect();
        assert_eq!(near, brute);
        assert_eq!(near, vec![0, 1, 5, 6]);
    }

    #[test]
    fn point_distance_matches_brute_force_when_within_limit() {
        let segs = grid_segments(120);
        let tree = seg_tree(&segs);
        for p in [coord(5.0, 5.0), coord(-3.0, 2.0), coord(60.0, 20.0), coord(24.7, 7.1)] {
            let brute = segs
                .iter()
                .map(|s| s.distance_to_point(p))
                .fold(f64::INFINITY, f64::min);
            let got = tree.point_distance_within(&segs, p, f64::INFINITY);
            assert_eq!(got.to_bits(), brute.to_bits(), "p={p:?}");
            // With a limit at exactly the distance the value survives.
            let at = tree.point_distance_within(&segs, p, brute);
            assert_eq!(at.to_bits(), brute.to_bits());
            // Below the distance the result must exceed the limit.
            if brute > 0.0 {
                let below = tree.point_distance_within(&segs, p, brute * 0.5);
                assert!(below > brute * 0.5);
            }
        }
    }

    #[test]
    fn pair_distance_matches_brute_force() {
        let a = grid_segments(90);
        let b: Vec<Segment> = grid_segments(70)
            .iter()
            .map(|s| Segment::new(coord(s.a.x + 40.0, s.a.y + 3.0), coord(s.b.x + 40.0, s.b.y + 3.0)))
            .collect();
        let ta = seg_tree(&a);
        let tb = seg_tree(&b);
        let brute = a
            .iter()
            .flat_map(|sa| b.iter().map(move |sb| sa.distance_to_segment(sb)))
            .fold(f64::INFINITY, f64::min);
        let got = ta.pair_distance_within(&a, &tb, &b, f64::INFINITY);
        assert_eq!(got.to_bits(), brute.to_bits());
        let at = ta.pair_distance_within(&a, &tb, &b, brute);
        assert_eq!(at.to_bits(), brute.to_bits());
        let below = ta.pair_distance_within(&a, &tb, &b, brute - brute * 1e-3);
        assert!(below > brute - brute * 1e-3);
        // Intersecting sets report exactly zero.
        let zero = ta.pair_distance_within(&a, &ta, &a, f64::INFINITY);
        assert_eq!(zero, 0.0);
    }

    #[test]
    fn first_contact_finds_a_meeting_pair_exactly_when_one_exists() {
        let a = grid_segments(90);
        let shifted = |dx: f64, dy: f64| -> Vec<Segment> {
            a.iter()
                .map(|s| Segment::new(coord(s.a.x + dx, s.a.y + dy), coord(s.b.x + dx, s.b.y + dy)))
                .collect()
        };
        let ta = seg_tree(&a);
        let crossing: Vec<Segment> = a
            .iter()
            .map(|s| Segment::new(coord(s.a.x, s.b.y), coord(s.b.x, s.a.y)))
            .collect();
        // The other diagonals of the same boxes, a copy sharing only
        // endpoints (each segment's start is its original's end), an
        // interleaved copy whose boxes meet but whose segments do not, and
        // a far copy.
        for (b, meets) in [
            (crossing, true),
            (shifted(1.5, 1.0), true),
            (shifted(0.0, 1.0), false),
            (shifted(500.0, 0.0), false),
        ] {
            let tb = seg_tree(&b);
            let meet = |sa: &Segment| {
                b.iter()
                    .any(|sb| sa.intersect(sb) != SegSegIntersection::None)
            };
            let brute = a.iter().any(meet);
            assert_eq!(brute, meets);
            let _ = take_kernel_counters();
            let contact = ta.first_contact(&a, &tb, &b);
            let counted = take_kernel_counters();
            assert_eq!(contact.is_some(), meets, "{contact:?}");
            if let Some((i, j)) = contact {
                assert_ne!(a[i].intersect(&b[j]), SegSegIntersection::None);
            }
            // Node pairs count, and nothing else does.
            assert!(counted.segtree_nodes_visited >= 1);
            let nodes_only = KernelCounters {
                segtree_nodes_visited: counted.segtree_nodes_visited,
                ..Default::default()
            };
            assert_eq!(counted, nodes_only);
            // The same pair from the same trees, every time.
            assert_eq!(ta.first_contact(&a, &tb, &b), contact);
        }
        let empty = StrTree::build(std::iter::empty());
        assert_eq!(ta.first_contact(&a, &empty, &[]), None);
        assert_eq!(empty.first_contact(&[], &ta, &a), None);
    }

    #[test]
    fn pruning_fires_and_counters_record_it() {
        let a = grid_segments(200);
        let b: Vec<Segment> = a
            .iter()
            .map(|s| Segment::new(coord(s.a.x + 500.0, s.a.y), coord(s.b.x + 500.0, s.b.y)))
            .collect();
        let ta = seg_tree(&a);
        let tb = seg_tree(&b);
        let _ = take_kernel_counters();
        let d = ta.pair_distance_within(&a, &tb, &b, 1.0);
        assert!(d > 1.0, "everything is farther than the bound");
        let c = take_kernel_counters();
        assert!(c.distance_early_exit >= 1, "bound pruning must fire");
        assert_eq!(c.pairs_exact, 0, "no exact pair within a hopeless bound");
        assert!(c.segtree_nodes_visited >= 1);
        // Counters are reset by take.
        assert_eq!(take_kernel_counters(), KernelCounters::default());
        // Addition is field-wise.
        let mut sum = KernelCounters::default();
        sum += c;
        sum += c;
        assert_eq!(sum.distance_early_exit, 2 * c.distance_early_exit);
        assert_eq!(sum.segtree_nodes_visited, 2 * c.segtree_nodes_visited);
        assert_eq!(sum.pairs_exact, 0);
    }

    #[test]
    fn tree_is_consistent_with_segment_intersections() {
        // Candidates from the tree are exactly the segments the envelope
        // prefilter inside Segment::intersect would not reject.
        let segs = grid_segments(50);
        let tree = seg_tree(&segs);
        let probe = Segment::new(coord(2.0, 1.0), coord(20.0, 5.0));
        let mut candidates = Vec::new();
        tree.query(&probe.envelope(), |i| candidates.push(i));
        for (i, s) in segs.iter().enumerate() {
            let hit = probe.intersect(s) != SegSegIntersection::None;
            if hit {
                assert!(candidates.contains(&(i as u32)), "intersecting segment {i} missed");
            }
        }
    }

    /// A ring's edges and the segment tree over them: the prepared form
    /// of a one-ring region.
    fn ring_tree(ring: &Ring) -> (Vec<Segment>, StrTree) {
        let edges: Vec<Segment> = ring.segments().collect();
        let tree = seg_tree(&edges);
        (edges, tree)
    }

    #[test]
    fn tree_locate_matches_ring_locate() {
        let rings = [
            Ring::from_xy(&[(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)]).unwrap(),
            // Concave ring with horizontal edges at several ordinates.
            Ring::from_xy(&[
                (0.0, 0.0),
                (8.0, 0.0),
                (8.0, 3.0),
                (4.0, 3.0),
                (4.0, 6.0),
                (8.0, 6.0),
                (8.0, 9.0),
                (0.0, 9.0),
            ])
            .unwrap(),
            // General triangles: slanted edges only.
            Ring::from_xy(&[(0.0, 0.0), (7.0, 1.0), (3.0, 8.0)]).unwrap(),
            Ring::from_xy(&[(0.0, 0.0), (9.0, 2.0), (5.0, 8.0)]).unwrap(),
            // An x-extent that overflows to infinity.
            Ring::from_xy(&[(-1e308, 0.0), (1e308, 0.0), (0.0, 1.0)]).unwrap(),
        ];
        for ring in &rings {
            let (edges, tree) = ring_tree(ring);
            assert_eq!(tree.len(), ring.num_points());
            let mut probes: Vec<Coord> = Vec::new();
            for i in 0..40 {
                for j in 0..40 {
                    probes.push(coord(i as f64 * 0.3 - 1.0, j as f64 * 0.3 - 1.0));
                }
            }
            // Vertices and edge fractions (exact boundary cases, and
            // rounded points beside them).
            probes.extend(ring.coords().iter().copied());
            for s in ring.segments() {
                probes.extend([0.25, 0.5, 0.75].map(|t| s.a.lerp(s.b, t)));
            }
            let _ = take_kernel_counters();
            for p in probes {
                assert_eq!(
                    tree.locate(&edges, p),
                    ring.locate(p),
                    "ring={ring:?} p={p:?}"
                );
            }
            assert_eq!(
                take_kernel_counters(),
                KernelCounters::default(),
                "locate counts nothing"
            );
        }
    }

    #[test]
    fn tree_locate_matches_ring_locate_with_a_collinear_vertex() {
        let rings = [
            Ring::from_xy(&[(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)]).unwrap(),
            // Concave ring whose left edge is split at (0, 5) into two
            // collinear edges.
            Ring::from_xy(&[
                (0.0, 0.0),
                (8.0, 0.0),
                (8.0, 3.0),
                (4.0, 3.0),
                (4.0, 6.0),
                (8.0, 6.0),
                (8.0, 9.0),
                (0.0, 9.0),
                (0.0, 5.0),
            ])
            .unwrap(),
            Ring::from_xy(&[(0.0, 0.0), (7.0, 1.0), (3.0, 8.0)]).unwrap(),
        ];
        for ring in &rings {
            let (edges, tree) = ring_tree(ring);
            assert_eq!(tree.len(), ring.num_points());
            for i in 0..45 {
                for j in 0..45 {
                    let p = coord(i as f64 * 0.27 - 1.0, j as f64 * 0.27 - 1.0);
                    assert_eq!(
                        tree.locate(&edges, p),
                        ring.locate(p),
                        "ring={ring:?} p={p:?}"
                    );
                }
            }
        }
        // On the split edge, at the split vertex and level with it on
        // either side.
        let (edges, tree) = ring_tree(&rings[1]);
        for y in [4.5, 5.0, 5.5] {
            for (x, want) in [
                (0.0, PointLocation::OnBoundary),
                (-0.5, PointLocation::Outside),
                (0.5, PointLocation::Inside),
            ] {
                assert_eq!(tree.locate(&edges, coord(x, y)), want, "x={x} y={y}");
            }
        }
    }

    #[test]
    fn tree_locate_puts_vertices_and_exact_edge_points_on_the_boundary() {
        // Every quarter point of these slanted edges is representable and
        // exactly collinear with its edge.
        let ring = Ring::from_xy(&[(0.0, 0.0), (9.0, 2.0), (5.0, 8.0)]).unwrap();
        let (edges, tree) = ring_tree(&ring);
        for s in ring.segments() {
            for t in [0.0, 0.25, 0.5, 0.75, 1.0] {
                let p = s.a.lerp(s.b, t);
                assert_eq!(ring.locate(p), PointLocation::OnBoundary, "{p:?}");
                assert_eq!(tree.locate(&edges, p), PointLocation::OnBoundary, "{p:?}");
            }
        }
    }

    #[test]
    fn tree_locates_against_a_ring_whose_extent_overflows() {
        // The x-extent, 2e308, overflows to infinity.
        let ring = Ring::from_xy(&[(-1e308, 0.0), (1e308, 0.0), (0.0, 1.0)]).unwrap();
        let (edges, tree) = ring_tree(&ring);
        assert_eq!(tree.len(), 3);
        for (p, want) in [
            (coord(0.0, 0.5), PointLocation::Inside),
            (coord(0.0, 0.0), PointLocation::OnBoundary),
            (coord(0.0, 1.0), PointLocation::OnBoundary),
            (coord(1e308, 0.0), PointLocation::OnBoundary),
            (coord(1e308, 0.5), PointLocation::Outside),
            (coord(0.0, 2.0), PointLocation::Outside),
            (coord(0.0, -5.0), PointLocation::Outside),
        ] {
            assert_eq!(ring.locate(p), want, "{p:?}");
            assert_eq!(tree.locate(&edges, p), want, "{p:?}");
        }
    }
}
