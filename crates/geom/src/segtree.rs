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
//!   distance already exceeds the caller's bound. At the leaves, entry
//!   envelope lower bounds are evaluated four lanes at a time over a
//!   struct-of-arrays mirror — dependency-free `f64` loops the compiler
//!   auto-vectorizes — replicating `Rect::distance_to_point` /
//!   `distance_to_rect` operation for operation, so pruning is exactly
//!   the scalar computation's.
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
    static SIMD_LANES_TESTED: Cell<u64> = const { Cell::new(0) };
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
    /// `f64` lanes evaluated by the segment tree's lane-parallel leaf
    /// envelope lower bounds in bounded-distance traversals.
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
    /// `i32` lanes evaluated by the quantized leaf kernels: ring-crossing
    /// lanes plus integer envelope-rejection lanes in bounded-distance
    /// traversals.
    pub quant_lanes_tested: u64,
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
        simd_lanes_tested: SIMD_LANES_TESTED.with(|c| c.take()),
        simd_fallback_exact: 0,
        quant_cells_resolved: QUANT_CELLS_RESOLVED.with(|c| c.take()),
        quant_fallback_exact: QUANT_FALLBACK_EXACT.with(|c| c.take()),
        quant_lanes_tested: QUANT_LANES_TESTED.with(|c| c.take()),
    }
}

/// Records `f64` lanes evaluated by the leaf lower-bound kernels.
#[inline]
fn note_simd_lanes(n: u64) {
    SIMD_LANES_TESTED.with(|c| c.set(c.get() + n));
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

/// Records `i32` lanes evaluated by the quantized leaf kernels.
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

/// Lane width of the leaf lower-bound kernels: four `f64`s fill one
/// AVX2 register; narrower hosts split the chunk, wider ones fuse two.
const LANES: usize = 4;

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
    /// Entry envelopes mirrored in struct-of-arrays form for the
    /// lane-parallel leaf lower bounds, padded to a multiple of `LANES`
    /// with [`Rect::EMPTY`] components (`+∞`/`−∞`, never consulted by the
    /// decision loop). Leaves cover entry runs starting at multiples of
    /// [`NODE_CAPACITY`], itself a lane-width multiple, so every leaf's
    /// run is chunk-aligned.
    env_minx: Vec<f64>,
    env_miny: Vec<f64>,
    env_maxx: Vec<f64>,
    env_maxy: Vec<f64>,
    /// Entry envelopes snapped outward onto the tree-wide integer grid
    /// ([`crate::quant`]) for the bounded-distance prescreen; `None` when
    /// the tree is empty or its envelope cannot be quantized.
    qenv: Option<QuantEnv>,
}

/// Quantized entry envelopes: each entry's box rounded *outward* by at
/// least one full cell (absorbing the rounding error of the `f64`
/// floor/ceil), so the quantized box always covers the true envelope and
/// integer gaps are true lower bounds (in cells) of envelope distances.
#[derive(Debug, Clone)]
struct QuantEnv {
    qz: crate::quant::Quantizer,
    minx: Vec<i32>,
    miny: Vec<i32>,
    maxx: Vec<i32>,
    maxy: Vec<i32>,
}

/// Cells beyond the grid span that outward snapping may legitimately
/// produce (one cell of padding plus one of `f64` slack).
const QENV_SLACK: f64 = 2.0;

impl QuantEnv {
    fn build(entries: &[(Rect, u32)], nodes: &[Node]) -> Option<QuantEnv> {
        let root = nodes.last()?.rect;
        if ![root.min.x, root.min.y, root.max.x, root.max.y].iter().all(|v| v.is_finite()) {
            return None;
        }
        let qz = crate::quant::Quantizer::for_rect(&root);
        let (x0, y0) = qz.origin();
        let cell = qz.cell();
        let lim = crate::quant::SPAN as f64 + QENV_SLACK;
        let lo = |v: f64, o: f64| -> Option<i32> {
            let c = ((v - o) / cell).floor() - 1.0;
            (c.abs() <= lim).then_some(c as i32)
        };
        let hi = |v: f64, o: f64| -> Option<i32> {
            let c = ((v - o) / cell).ceil() + 1.0;
            (c.abs() <= lim).then_some(c as i32)
        };
        let mut qe = QuantEnv {
            qz,
            minx: Vec::with_capacity(entries.len()),
            miny: Vec::with_capacity(entries.len()),
            maxx: Vec::with_capacity(entries.len()),
            maxy: Vec::with_capacity(entries.len()),
        };
        for (r, _) in entries {
            qe.minx.push(lo(r.min.x, x0)?);
            qe.miny.push(lo(r.min.y, y0)?);
            qe.maxx.push(hi(r.max.x, x0)?);
            qe.maxy.push(hi(r.max.y, y0)?);
        }
        Some(qe)
    }

    /// The pruning threshold in cells: `ceil(limit/cell)` plus a margin
    /// absorbing the query's own snap displacement and the `f64` slack of
    /// the comparisons. `None` disables the prescreen (non-finite limit,
    /// or a limit so large relative to the cell that integer gaps cannot
    /// discriminate safely).
    fn limit_cells(&self, limit: f64) -> Option<i64> {
        if !limit.is_finite() {
            return None;
        }
        let lc = (limit / self.qz.cell()).ceil() + 4.0;
        (lc.abs() <= (1i64 << 30) as f64).then_some(lc as i64)
    }

    /// Quantizes a probe point together with the squared threshold, or
    /// `None` when the prescreen cannot run for this query.
    fn point_query(&self, p: Coord, limit: f64) -> Option<(i64, i64, i128)> {
        let lc = self.limit_cells(limit)?;
        let (px, py) = self.qz.quantize(p)?;
        Some((px as i64, py as i64, lc as i128 * lc as i128))
    }

    /// Snaps a probe rectangle outward onto this grid, or `None` when it
    /// falls outside the representable span.
    fn snap_rect(&self, r: &Rect) -> Option<(i64, i64, i64, i64)> {
        let (x0, y0) = self.qz.origin();
        let cell = self.qz.cell();
        let lim = crate::quant::SPAN as f64 + QENV_SLACK;
        let snap = |v: f64, o: f64, d: f64| -> Option<i64> {
            let c = if d < 0.0 { ((v - o) / cell).floor() - 1.0 } else { ((v - o) / cell).ceil() + 1.0 };
            (c.abs() <= lim).then_some(c as i64)
        };
        Some((
            snap(r.min.x, x0, -1.0)?,
            snap(r.min.y, y0, -1.0)?,
            snap(r.max.x, x0, 1.0)?,
            snap(r.max.y, y0, 1.0)?,
        ))
    }

    /// True when every entry in `first..first + count` has an integer
    /// envelope gap to the probe point certainly exceeding the limit —
    /// the whole leaf can be rejected without touching `f64` bounds.
    fn leaf_all_beyond_point(&self, first: usize, count: usize, px: i64, py: i64, limit2: i128) -> bool {
        note_quant_lanes(count as u64);
        for j in first..first + count {
            let gx = (self.minx[j] as i64 - px).max(px - self.maxx[j] as i64).max(0);
            let gy = (self.miny[j] as i64 - py).max(py - self.maxy[j] as i64).max(0);
            let g2 = gx as i128 * gx as i128 + gy as i128 * gy as i128;
            if g2 <= limit2 {
                return false;
            }
        }
        true
    }

    /// Rect flavour of [`QuantEnv::leaf_all_beyond_point`].
    fn leaf_all_beyond_rect(
        &self,
        first: usize,
        count: usize,
        q: (i64, i64, i64, i64),
        limit2: i128,
    ) -> bool {
        note_quant_lanes(count as u64);
        let (qminx, qminy, qmaxx, qmaxy) = q;
        for j in first..first + count {
            let gx = (self.minx[j] as i64 - qmaxx).max(qminx - self.maxx[j] as i64).max(0);
            let gy = (self.miny[j] as i64 - qmaxy).max(qminy - self.maxy[j] as i64).max(0);
            let g2 = gx as i128 * gx as i128 + gy as i128 * gy as i128;
            if g2 <= limit2 {
                return false;
            }
        }
        true
    }
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
            return SegTree::with_env_soa(entries, nodes);
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
        SegTree::with_env_soa(entries, nodes)
    }

    /// Finishes construction by mirroring the entry envelopes into the
    /// padded SoA arrays the lane-parallel lower-bound kernels scan.
    fn with_env_soa(entries: Vec<(Rect, u32)>, nodes: Vec<Node>) -> SegTree {
        let padded = entries.len().div_ceil(LANES) * LANES;
        let mut env_minx = vec![f64::INFINITY; padded];
        let mut env_miny = vec![f64::INFINITY; padded];
        let mut env_maxx = vec![f64::NEG_INFINITY; padded];
        let mut env_maxy = vec![f64::NEG_INFINITY; padded];
        for (i, (r, _)) in entries.iter().enumerate() {
            env_minx[i] = r.min.x;
            env_miny[i] = r.min.y;
            env_maxx[i] = r.max.x;
            env_maxy[i] = r.max.y;
        }
        let qenv = QuantEnv::build(&entries, &nodes);
        SegTree { entries, nodes, env_minx, env_miny, env_maxx, env_maxy, qenv }
    }

    /// Envelope distance lower bounds for one leaf's entries, evaluated
    /// lane-parallel over the SoA mirror. `out[j]` replicates
    /// `entries[first + j].0.distance_to_point(p)` operation for
    /// operation (the `is_empty` branch is dead for real entries — a
    /// segment envelope is never empty), so the decision loop consuming
    /// the values prunes exactly as the scalar computation would.
    #[inline]
    fn leaf_point_lbs(&self, first: usize, count: usize, p: Coord) -> [f64; NODE_CAPACITY] {
        let padded = count.div_ceil(LANES) * LANES;
        let (minx, miny) = (&self.env_minx[first..first + padded], &self.env_miny[first..first + padded]);
        let (maxx, maxy) = (&self.env_maxx[first..first + padded], &self.env_maxy[first..first + padded]);
        let mut dx = [0.0f64; NODE_CAPACITY];
        let mut dy = [0.0f64; NODE_CAPACITY];
        for j in 0..padded {
            dx[j] = (minx[j] - p.x).max(0.0).max(p.x - maxx[j]);
            dy[j] = (miny[j] - p.y).max(0.0).max(p.y - maxy[j]);
        }
        let mut out = [f64::INFINITY; NODE_CAPACITY];
        for j in 0..count {
            out[j] = dx[j].hypot(dy[j]);
        }
        note_simd_lanes(padded as u64);
        out
    }

    /// Envelope distance lower bounds from a fixed rectangle `r` to one
    /// leaf's entries; `out[j]` replicates
    /// `r.distance_to_rect(&entries[first + j].0)` bit for bit.
    #[inline]
    fn leaf_rect_lbs(&self, first: usize, count: usize, r: &Rect) -> [f64; NODE_CAPACITY] {
        let padded = count.div_ceil(LANES) * LANES;
        let (minx, miny) = (&self.env_minx[first..first + padded], &self.env_miny[first..first + padded]);
        let (maxx, maxy) = (&self.env_maxx[first..first + padded], &self.env_maxy[first..first + padded]);
        let mut dx = [0.0f64; NODE_CAPACITY];
        let mut dy = [0.0f64; NODE_CAPACITY];
        for j in 0..padded {
            dx[j] = (r.min.x - maxx[j]).max(0.0).max(minx[j] - r.max.x);
            dy[j] = (r.min.y - maxy[j]).max(0.0).max(miny[j] - r.max.y);
        }
        let mut out = [f64::INFINITY; NODE_CAPACITY];
        for j in 0..count {
            out[j] = dx[j].hypot(dy[j]);
        }
        note_simd_lanes(padded as u64);
        out
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
        // Quantized whole-leaf rejection: when every entry's integer
        // envelope gap certainly exceeds the limit, the f64 decision loop
        // would have pruned each entry individually (the integer gap is a
        // conservative lower bound with margin), so skipping the leaf
        // changes no answer and keeps `distance_early_exit` identical.
        let qpoint = self.qenv.as_ref().and_then(|qe| qe.point_query(p, limit));
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
                if let Some((px, py, limit2)) = qpoint {
                    let qe = self.qenv.as_ref().expect("qpoint implies qenv");
                    if qe.leaf_all_beyond_point(first, count, px, py, limit2) {
                        pruned += count as u64;
                        continue;
                    }
                }
                // Lane-parallel envelope lower bounds: the same values
                // `e.0.distance_to_point(p)` yields, so pruning is exactly
                // the scalar computation's.
                let lbs = self.leaf_point_lbs(first, count, p);
                for (e, &elb) in self.entries[first..first + count].iter().zip(&lbs) {
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
        // Quantized whole-leaf rejection against `other`'s grid: same
        // conservative contract as in point_distance_within.
        let qlimit = other.qenv.as_ref().and_then(|qe| qe.limit_cells(limit));
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
                        if let (Some(lc), Some(qe)) = (qlimit, other.qenv.as_ref()) {
                            if let Some(qr) = qe.snap_rect(&a.0) {
                                if qe.leaf_all_beyond_rect(
                                    nb.first as usize,
                                    nb.count as usize,
                                    qr,
                                    lc as i128 * lc as i128,
                                ) {
                                    pruned += nb.count as u64;
                                    continue;
                                }
                            }
                        }
                        let lbs = other.leaf_rect_lbs(nb.first as usize, nb.count as usize, &a.0);
                        for (b, &elb) in eb.iter().zip(&lbs) {
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
