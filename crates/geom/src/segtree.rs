//! Segment indexes for prepared geometries.
//!
//! Two complementary structures make the per-pair relate/distance kernel
//! sublinear in the number of vertices:
//!
//! * [`SegTree`] — a flat, packed R-tree over a geometry's segments,
//!   bulk-loaded with the Sort-Tile-Recursive (STR) heuristic. All nodes
//!   live in one arena `Vec` (no per-node allocation, no pointers); leaf
//!   entries keep their original segment indices so candidate lists come
//!   back in ascending input order and downstream loops behave exactly
//!   like the brute-force scans they replace. Besides envelope queries it
//!   supports branch-and-bound minimum-distance searches (point-to-tree
//!   and tree-to-tree) that prune any subtree pair whose box-to-box
//!   distance already exceeds the caller's bound.
//! * [`RingIndex`] — a monotone-edge structure for O(log n + k)
//!   point-in-ring tests: ring edges sorted by their envelope's minimum y,
//!   with an implicit binary max-tree over the maximum y, so only the
//!   edges whose y-span contains the query ordinate are ever inspected.
//!   Per-edge tests are copied verbatim from [`crate::polygon::Ring::locate`]
//!   (exact boundary test, Franklin crossing count), so the decision is
//!   bit-identical to the linear scan.
//!
//! The module also hosts the thread-local kernel counters surfaced by the
//! extraction pipeline (`geom/segtree_nodes_visited`, `geom/pairs_exact`,
//! `geom/distance_early_exit`); see [`take_kernel_counters`].

use crate::bbox::Rect;
use crate::coord::Coord;
use crate::polygon::{PointLocation, Ring};
use crate::segment::Segment;
use std::cell::Cell;

// ---------------------------------------------------------------------------
// Kernel counters
// ---------------------------------------------------------------------------

thread_local! {
    static NODES_VISITED: Cell<u64> = const { Cell::new(0) };
    static PAIRS_EXACT: Cell<u64> = const { Cell::new(0) };
    static DISTANCE_EARLY_EXIT: Cell<u64> = const { Cell::new(0) };
    static QUANT_CELLS_RESOLVED: Cell<u64> = const { Cell::new(0) };
    static QUANT_FALLBACK_EXACT: Cell<u64> = const { Cell::new(0) };
    static QUANT_LANES_TESTED: Cell<u64> = const { Cell::new(0) };
}

/// Snapshot of the thread-local kernel counters.
///
/// The counters observe the index-accelerated kernel: they never influence
/// any geometric decision, and resetting them (via
/// [`take_kernel_counters`]) is free of side effects on results.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelCounters {
    /// Segment-tree nodes (and node pairs) visited by queries and
    /// bounded-distance traversals.
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
    /// Always 0: point location has no `f64` lane tier between the
    /// quantized grid and the exact index. Kept so consumers of the
    /// counter set keep compiling and reading the same keys.
    pub simd_fallback_exact: u64,
    /// Point-location queries the quantized integer fast path
    /// ([`crate::quant`]) answered with certainty (the query cell was
    /// strictly outside the snap band of every edge).
    pub quant_cells_resolved: u64,
    /// Queries the quantized fast path handed back to the exact `f64`
    /// path because the query cell landed within the snap band of some
    /// edge (or could not be quantized at all).
    pub quant_fallback_exact: u64,
    /// `i32` ring-crossing lanes evaluated by the quantized point-location
    /// kernel ([`crate::quant`]).
    pub quant_lanes_tested: u64,
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
        self.quant_lanes_tested += other.quant_lanes_tested;
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
        quant_cells_resolved: QUANT_CELLS_RESOLVED.with(|c| c.take()),
        quant_fallback_exact: QUANT_FALLBACK_EXACT.with(|c| c.take()),
        quant_lanes_tested: QUANT_LANES_TESTED.with(|c| c.take()),
    }
}

/// Records point-location queries the quantized integer fast path
/// answered with certainty.
#[inline]
pub(crate) fn note_quant_resolved(n: u64) {
    QUANT_CELLS_RESOLVED.with(|c| c.set(c.get() + n));
}

/// Records snap-band fallbacks from the quantized fast path to the exact
/// `f64` path.
#[inline]
pub(crate) fn note_quant_fallback(n: u64) {
    QUANT_FALLBACK_EXACT.with(|c| c.set(c.get() + n));
}

/// Records `i32` ring-crossing lanes evaluated by the quantized kernel.
#[inline]
pub(crate) fn note_quant_lanes(n: u64) {
    QUANT_LANES_TESTED.with(|c| c.set(c.get() + n));
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
// SegTree
// ---------------------------------------------------------------------------

/// Leaf fan-out and internal fan-out of the packed tree.
const NODE_CAPACITY: usize = 8;

#[derive(Debug, Clone, Copy)]
struct Node {
    rect: Rect,
    /// Leaf: first entry index. Internal: first child node index.
    first: u32,
    count: u32,
    leaf: bool,
}

/// A flat, packed R-tree over a slice of segments (STR bulk-load).
///
/// The tree stores only envelopes plus original segment indices; distance
/// traversals take the segment slice as a parameter so one index can be
/// shared by borrowing views of the same geometry.
#[derive(Debug, Clone)]
pub struct SegTree {
    /// `(envelope, original segment index)`, in STR packing order.
    entries: Vec<(Rect, u32)>,
    /// Arena of nodes, packed level by level, root last.
    nodes: Vec<Node>,
}

impl SegTree {
    /// Bulk-loads the tree over `segments` with the STR heuristic: entries
    /// are sorted into vertical slices by envelope-center x, each slice is
    /// sorted by center y, and consecutive runs of `NODE_CAPACITY` become
    /// leaves; upper levels pack consecutive runs of child nodes until a
    /// single root remains.
    pub fn build(segments: &[Segment]) -> SegTree {
        let mut entries: Vec<(Rect, u32)> = segments
            .iter()
            .enumerate()
            .map(|(i, s)| (s.envelope(), i as u32))
            .collect();
        let mut nodes: Vec<Node> = Vec::new();
        let n = entries.len();
        if n == 0 {
            return SegTree { entries, nodes };
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
        SegTree { entries, nodes }
    }

    /// Number of indexed segments.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no segments are indexed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Root envelope of the indexed segments ([`Rect::EMPTY`] when empty).
    pub fn envelope(&self) -> Rect {
        self.nodes.last().map(|n| n.rect).unwrap_or(Rect::EMPTY)
    }

    /// Original indices of all segments whose envelope intersects `rect`,
    /// **sorted ascending** — iterating the result visits segments in the
    /// same relative order as the brute-force scan it replaces.
    pub fn query(&self, rect: &Rect) -> Vec<u32> {
        let mut out: Vec<u32> = Vec::new();
        let Some(root) = self.nodes.len().checked_sub(1) else {
            return out;
        };
        let mut visited = 0u64;
        let mut stack: Vec<usize> = vec![root];
        while let Some(ni) = stack.pop() {
            visited += 1;
            let node = self.nodes[ni];
            if !node.rect.intersects(rect) {
                continue;
            }
            let (first, count) = (node.first as usize, node.count as usize);
            if node.leaf {
                for e in &self.entries[first..first + count] {
                    if e.0.intersects(rect) {
                        out.push(e.1);
                    }
                }
            } else {
                for child in first..first + count {
                    stack.push(child);
                }
            }
        }
        note_nodes(visited);
        out.sort_unstable();
        out
    }

    /// Branch-and-bound minimum distance from `p` to the indexed segments,
    /// pruning subtrees whose envelope is farther than `limit` (or the best
    /// distance found so far). The returned value equals the true minimum
    /// whenever that minimum is `<= limit`; otherwise it is some value
    /// `> limit` (possibly `INFINITY`) that callers must discard.
    ///
    /// `segments` must be the slice the tree was built over.
    pub fn point_distance_within(&self, segments: &[Segment], p: Coord, limit: f64) -> f64 {
        let mut best = f64::INFINITY;
        let Some(root) = self.nodes.len().checked_sub(1) else {
            return best;
        };
        let mut visited = 0u64;
        let mut exact = 0u64;
        let mut pruned = 0u64;
        let mut stack: Vec<usize> = vec![root];
        'search: while let Some(ni) = stack.pop() {
            visited += 1;
            let node = self.nodes[ni];
            let lb = node.rect.distance_to_point(p);
            if exceeds(lb, limit) || lb >= best {
                pruned += 1;
                continue;
            }
            let (first, count) = (node.first as usize, node.count as usize);
            if node.leaf {
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
                for child in first..first + count {
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
    /// the same bound semantics as [`SegTree::point_distance_within`]: the
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
        other: &SegTree,
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
        let mut stack: Vec<(usize, usize)> = vec![(ra, rb)];
        'search: while let Some((ia, ib)) = stack.pop() {
            visited += 1;
            let na = self.nodes[ia];
            let nb = other.nodes[ib];
            let lb = na.rect.distance_to_rect(&nb.rect);
            if exceeds(lb, limit) || lb >= best {
                pruned += 1;
                continue;
            }
            match (na.leaf, nb.leaf) {
                (true, true) => {
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
                            let d = a_segs[a.1 as usize]
                                .distance_to_segment(&b_segs[b.1 as usize]);
                            if d < best {
                                best = d;
                            }
                            if best == 0.0 {
                                break 'search;
                            }
                        }
                    }
                }
                // Expand the internal node (preferring the larger box when
                // both are internal): deterministic traversal.
                (false, true) => {
                    for child in na.first as usize..(na.first + na.count) as usize {
                        stack.push((child, ib));
                    }
                }
                (true, false) => {
                    for child in nb.first as usize..(nb.first + nb.count) as usize {
                        stack.push((ia, child));
                    }
                }
                (false, false) => {
                    if na.rect.margin() >= nb.rect.margin() {
                        for child in na.first as usize..(na.first + na.count) as usize {
                            stack.push((child, ib));
                        }
                    } else {
                        for child in nb.first as usize..(nb.first + nb.count) as usize {
                            stack.push((ia, child));
                        }
                    }
                }
            }
        }
        note_nodes(visited);
        note_pairs(exact);
        note_early_exit(pruned);
        best
    }
}

// ---------------------------------------------------------------------------
// RingIndex
// ---------------------------------------------------------------------------

/// A monotone-edge index over one ring for O(log n + k) point location.
///
/// Edges are sorted by their envelope's minimum y; an implicit binary tree
/// of maximum-y values prunes, for a query ordinate `y`, every edge whose
/// y-span misses `y`. The surviving candidate set is a superset of both
/// the exact-boundary hits and the Franklin ray-crossing edges, and the
/// per-edge tests reproduce [`Ring::locate`] operation for operation, so
/// the classification is bit-identical to the linear scan.
#[derive(Debug, Clone)]
pub struct RingIndex {
    envelope: Rect,
    /// Ring edges sorted ascending by `envelope().min.y`.
    edges: Vec<Segment>,
    /// `edges[i].envelope().min.y`, for the prefix binary search.
    ymins: Vec<f64>,
    /// Implicit binary tree: `maxes[size + i] = edges[i].envelope().max.y`
    /// (−∞ past the end), internal nodes the max of their children.
    maxes: Vec<f64>,
    /// Leaf count of the implicit tree (power of two).
    size: usize,
}

impl RingIndex {
    /// Builds the index over a validated ring.
    pub fn build(ring: &Ring) -> RingIndex {
        let mut edges: Vec<Segment> = ring.segments().collect();
        edges.sort_by(|a, b| a.envelope().min.y.total_cmp(&b.envelope().min.y));
        let ymins: Vec<f64> = edges.iter().map(|s| s.envelope().min.y).collect();
        let size = edges.len().next_power_of_two();
        let mut maxes = vec![f64::NEG_INFINITY; 2 * size];
        for (i, s) in edges.iter().enumerate() {
            maxes[size + i] = s.envelope().max.y;
        }
        for i in (1..size).rev() {
            maxes[i] = maxes[2 * i].max(maxes[2 * i + 1]);
        }
        RingIndex { envelope: ring.envelope(), edges, ymins, maxes, size }
    }

    /// Number of indexed edges.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True when the index holds no edges (never for a valid ring).
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Envelope of the indexed ring.
    pub fn envelope(&self) -> Rect {
        self.envelope
    }

    /// Classifies `p` against the region enclosed by the ring.
    ///
    /// Identical decisions to [`Ring::locate`]: envelope rejection, exact
    /// boundary test (robust collinearity), then the Franklin crossing
    /// count with the same operand order in the crossing ordinate — only
    /// the set of edges *inspected* shrinks to those whose y-span contains
    /// `p.y`; skipped edges can neither contain `p` nor toggle the parity.
    pub fn locate(&self, p: Coord) -> PointLocation {
        if !self.envelope.contains_point(p) {
            return PointLocation::Outside;
        }
        // Edges [0, k) have min.y <= p.y; the max-tree prunes those with
        // max.y < p.y among them.
        let k = self.ymins.partition_point(|&y| y <= p.y);
        let mut on_boundary = false;
        let mut inside = false;
        let mut stack: Vec<(usize, usize, usize)> = vec![(1, 0, self.size)];
        while let Some((node, lo, hi)) = stack.pop() {
            if lo >= k || self.maxes[node] < p.y {
                continue;
            }
            if hi - lo == 1 {
                // Stored segments run a -> b = coords[j] -> coords[i] in
                // Ring::locate's (pj, pi) pairing; the expressions below
                // are that loop's, verbatim.
                let s = &self.edges[lo];
                if s.contains_point(p) {
                    on_boundary = true;
                }
                if (s.b.y > p.y) != (s.a.y > p.y) {
                    let x_int = s.b.x + (p.y - s.b.y) * (s.a.x - s.b.x) / (s.a.y - s.b.y);
                    if p.x < x_int {
                        inside = !inside;
                    }
                }
                continue;
            }
            let mid = (lo + hi) / 2;
            stack.push((2 * node + 1, mid, hi));
            stack.push((2 * node, lo, mid));
        }
        if on_boundary {
            PointLocation::OnBoundary
        } else if inside {
            PointLocation::Inside
        } else {
            PointLocation::Outside
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coord::coord;
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

    #[test]
    fn query_matches_brute_force_envelope_scan() {
        for n in [0usize, 1, 7, 8, 9, 64, 65, 300] {
            let segs = grid_segments(n);
            let tree = SegTree::build(&segs);
            assert_eq!(tree.len(), n);
            for rect in [
                Rect::new(coord(0.0, 0.0), coord(4.0, 4.0)),
                Rect::new(coord(10.0, 3.0), coord(25.0, 9.0)),
                Rect::new(coord(-5.0, -5.0), coord(-1.0, -1.0)),
                Rect::new(coord(0.0, 0.0), coord(100.0, 100.0)),
            ] {
                let brute: Vec<u32> = segs
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.envelope().intersects(&rect))
                    .map(|(i, _)| i as u32)
                    .collect();
                assert_eq!(tree.query(&rect), brute, "n={n} rect={rect:?}");
            }
        }
    }

    #[test]
    fn point_distance_matches_brute_force_when_within_limit() {
        let segs = grid_segments(120);
        let tree = SegTree::build(&segs);
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
        let ta = SegTree::build(&a);
        let tb = SegTree::build(&b);
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
    fn pruning_fires_and_counters_record_it() {
        let a = grid_segments(200);
        let b: Vec<Segment> = a
            .iter()
            .map(|s| Segment::new(coord(s.a.x + 500.0, s.a.y), coord(s.b.x + 500.0, s.b.y)))
            .collect();
        let ta = SegTree::build(&a);
        let tb = SegTree::build(&b);
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
        let tree = SegTree::build(&segs);
        let probe = Segment::new(coord(2.0, 1.0), coord(20.0, 5.0));
        let candidates = tree.query(&probe.envelope());
        for (i, s) in segs.iter().enumerate() {
            let hit = probe.intersect(s) != SegSegIntersection::None;
            if hit {
                assert!(candidates.contains(&(i as u32)), "intersecting segment {i} missed");
            }
        }
    }

    #[test]
    fn ring_index_matches_ring_locate() {
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
        ];
        for ring in &rings {
            let idx = RingIndex::build(ring);
            assert_eq!(idx.len(), ring.num_points());
            let mut probes: Vec<Coord> = Vec::new();
            for i in 0..40 {
                for j in 0..40 {
                    probes.push(coord(i as f64 * 0.3 - 1.0, j as f64 * 0.3 - 1.0));
                }
            }
            // Vertices and edge midpoints (exact boundary cases).
            probes.extend(ring.coords().iter().copied());
            probes.extend(ring.segments().map(|s| s.midpoint()));
            for p in probes {
                assert_eq!(idx.locate(p), ring.locate(p), "ring={ring:?} p={p:?}");
            }
        }
    }
}
