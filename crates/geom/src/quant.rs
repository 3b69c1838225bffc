//! Quantized integer fast path under the prepared-geometry layer.
//!
//! Point location on a prepared ring runs in two tiers ([`PreparedRing`]):
//! this module's integer grid first, then the exact `f64` [`RingIndex`].
//! An `f64` crossing scan pays a division per edge and, to detect the
//! boundary, a robust collinearity test. The grid tier removes both by
//! snapping coordinates onto an `i32` grid sized from the geometry's
//! bounding box ([`Quantizer`]) and evaluating the crossing and
//! proximity predicates in widened `i64`/`i128` integer arithmetic —
//! *exact on the grid*, with no rounding and no epsilon bands. Eight
//! `i32` lanes fill one 256-bit block.
//!
//! # The certain/ambiguous classification invariant
//!
//! Quantization moves geometry, so an integer answer about the quantized
//! ring is only *sometimes* an answer about the real one. The invariant
//! that makes the fast path sound:
//!
//! * **Grid sizing.** The quantizer's cell is `extent / 2^`[`GRID_BITS`]
//!   with `extent` the larger bounding-box side, so every coordinate of
//!   the geometry (and every query inside its envelope) lands on the
//!   grid with round-to-nearest displacement of at most half a cell per
//!   axis — `≤ 1/√2` cells in Euclidean distance. Grid coordinates stay
//!   within `±2^`[`GRID_BITS`], so coordinate differences fit 30 bits,
//!   single products fit `i64`, and the squared-distance comparisons fit
//!   `i128`.
//! * **Certainty.** Let `q(p)` be the quantized query and `Q` the
//!   quantized ring. If the integer distance from `q(p)` to every edge
//!   of `Q` exceeds [`BAND`] cells, then the straight-line homotopy that
//!   moves the true ring onto `Q` and `p` onto `q(p)` (each vertex
//!   travels `≤ 1/√2` cells) never touches the point: the even–odd
//!   parity of `q(p)` with respect to `Q` — well-defined even where the
//!   snapped ring self-intersects — equals the true ring's
//!   classification of `p`, and `p` is strictly off the true boundary.
//!   The parity itself is computed by an exact integer Franklin crossing
//!   test, so a certain answer is *the* answer.
//! * **Ambiguity.** Any query whose cell lies within [`BAND`] cells of
//!   some quantized edge — in particular every true boundary point,
//!   whose quantized image sits within `2/√2 ≈ 1.42` cells of the
//!   quantized boundary — is ambiguous and falls back to the exact `f64`
//!   path ([`RingIndex`]), counted under `geom/quant_fallback_exact`.
//!   Certain answers are counted under `geom/quant_cells_resolved`.
//!
//! Together these make the grid a pure accelerator: every observable
//! output is **bit-identical** to the reference scan, [`Ring::locate`].

use crate::bbox::Rect;
use crate::coord::Coord;
use crate::polygon::{PointLocation, Ring};
use crate::segtree::{note_quant_fallback, note_quant_lanes, note_quant_resolved, RingIndex};

/// Lane width of the quantized kernels: eight `i32`s per 256-bit block.
pub const QLANES: usize = 8;

/// Grid resolution: the larger bounding-box side maps to `2^GRID_BITS`
/// cells. 28 bits keep every coordinate difference within 30 bits, so
/// the crossing test's cross-multiplied products fit `i64` and the
/// squared snap-band comparisons fit `i128` with headroom.
pub const GRID_BITS: u32 = 28;

/// Grid span: quantized coordinates of in-envelope points lie in
/// `[0, SPAN]`; anything beyond `±SPAN` is rejected as out of range.
pub const SPAN: i32 = 1 << GRID_BITS;

/// Snap-band radius in cells. Certainty requires the quantized query to
/// sit more than `BAND` cells from every quantized edge; the homotopy
/// argument needs only `√2 ≈ 1.42`, so 2 leaves slack for the one-ulp
/// noise in computing the query's cell.
pub const BAND: i64 = 2;

/// Affine map from `f64` coordinates onto an `i32` cell grid.
///
/// `quantize` rounds to the nearest grid point, so the displacement is
/// at most half a cell per axis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantizer {
    x0: f64,
    y0: f64,
    cell: f64,
    /// `1.0 / cell`, precomputed so `quantize` multiplies instead of
    /// divides; the ≤ 1-ulp difference against true division is covered
    /// by [`BAND`]'s slack.
    inv_cell: f64,
}

impl Quantizer {
    /// Quantizer over a bounding box: origin at `r.min`, cell sized so
    /// the larger side spans `2^GRID_BITS` cells. Degenerate boxes
    /// (zero or non-finite extent) get a unit cell, which quantizes
    /// their single coordinate exactly.
    pub fn for_rect(r: &Rect) -> Quantizer {
        let extent = (r.max.x - r.min.x).max(r.max.y - r.min.y);
        let cell = if extent.is_finite() && extent > 0.0 {
            extent / SPAN as f64
        } else {
            1.0
        };
        Quantizer { x0: r.min.x, y0: r.min.y, cell, inv_cell: 1.0 / cell }
    }

    /// Grid origin.
    pub fn origin(&self) -> (f64, f64) {
        (self.x0, self.y0)
    }

    /// Cell side length in input units.
    pub fn cell(&self) -> f64 {
        self.cell
    }

    /// Nearest grid point, or `None` when the input is non-finite or
    /// lands outside `±SPAN` (the arithmetic-safety range).
    pub fn quantize(&self, c: Coord) -> Option<(i32, i32)> {
        let qx = ((c.x - self.x0) * self.inv_cell).round();
        let qy = ((c.y - self.y0) * self.inv_cell).round();
        let lim = SPAN as f64;
        if qx.abs() <= lim && qy.abs() <= lim {
            Some((qx as i32, qy as i32))
        } else {
            None
        }
    }
}

/// A ring quantized onto an `i32` grid, in stripe-bucketed, padded
/// struct-of-arrays form.
///
/// Stripes bucket edges by quantized y-interval *expanded by [`BAND`]
/// cells on each side*, so a query's stripe is guaranteed to contain
/// both every edge that can toggle its crossing parity and every edge
/// whose snap band can reach it. Arrays are padded to a multiple of
/// [`QLANES`] with degenerate sentinel edges (`a == b ==` vertex 0),
/// which cannot toggle parity and whose band reduces to a point
/// proximity check against a genuine vertex.
///
/// The eight per-edge lane arrays share one buffer, so a built ring
/// holds two heap blocks: `starts` and `lanes`.
#[derive(Debug, Clone)]
pub struct QuantRing {
    qz: Quantizer,
    /// The exact `f64` envelope — the same first check as
    /// [`Ring::locate`], so envelope-rejected queries answer identically.
    envelope: Rect,
    /// True when any vertex failed to quantize; the ring then always
    /// reports ambiguous and the caller falls back.
    degenerate: bool,
    len: usize,
    stripes: usize,
    /// Bottom of the stripe grid in cells.
    qy0: i64,
    /// Stripe height in cells (≥ 1).
    stripe_h: i64,
    /// Stripe `s` owns slots `starts[s]..starts[s + 1]`; the last entry
    /// is the slot count.
    starts: Vec<u32>,
    /// The lane arrays, one slot count long each, back to back in the
    /// order `AX, AY, BX, BY, EXMIN, EXMAX, EYMIN, EYMAX`: the quantized
    /// edge endpoints, then the band-expanded per-edge envelopes
    /// (`min - BAND`, `max + BAND` on each axis). The envelopes make the
    /// hot scan pure `i32` compares: a query left of `EXMIN` toggles iff
    /// the edge y-straddles it, one right of `EXMAX` never toggles, and
    /// only the thin strip between needs the widened exact crossing
    /// product. The same bounds gate the snap-band proximity check.
    lanes: Vec<i32>,
}

/// Lane offsets into [`QuantRing`]'s `lanes`, in slot-count units.
const AX: usize = 0;
const AY: usize = 1;
const BX: usize = 2;
const BY: usize = 3;
const EXMIN: usize = 4;
const EXMAX: usize = 5;
const EYMIN: usize = 6;
const EYMAX: usize = 7;
/// Lane arrays per slot.
const LANE_ARRAYS: usize = 8;

/// A stripe's edge count padded to whole [`QLANES`] blocks.
fn padded(count: u32) -> u32 {
    count.div_ceil(QLANES as u32) * QLANES as u32
}

impl QuantRing {
    /// Quantizes a ring onto a grid sized from its own envelope. Builds
    /// straight into the ring's two buffers: vertices are snapped again
    /// wherever an edge needs them instead of being collected first.
    pub fn build(ring: &Ring) -> QuantRing {
        let envelope = ring.envelope();
        let qz = Quantizer::for_rect(&envelope);
        let coords = ring.coords();
        let (mut qymin, mut qymax) = (i64::MAX, i64::MIN);
        for &c in coords {
            let Some((_, y)) = qz.quantize(c) else {
                return QuantRing::degenerate(qz, envelope);
            };
            qymin = qymin.min(y as i64);
            qymax = qymax.max(y as i64);
        }
        if coords.is_empty() {
            return QuantRing::degenerate(qz, envelope);
        }
        let vertex = |i: usize| qz.quantize(coords[i]).expect("every vertex snapped above");
        // Closed edge list (last vertex back to the first), mirroring
        // Ring::segments.
        let len = coords.len();
        let edge = |i: usize| -> (i32, i32, i32, i32) {
            let (a, b) = (vertex(i), vertex((i + 1) % len));
            (a.0, a.1, b.0, b.1)
        };
        // Band-expanded stripe extent: queries quantize within the f64
        // envelope, so their cells lie within one cell of [qymin, qymax];
        // anchor the grid one band below to keep indices non-negative.
        let qy0 = qymin - BAND - 1;
        let height = (qymax + BAND + 1) - qy0 + 1;

        // Start near one stripe per few edges and halve until the
        // duplicated-edge footprint is modest; tall-edge rings degrade
        // toward a single stripe rather than exploding memory. Stripe
        // `s`'s edge count accumulates in `starts[s + 1]`.
        let mut stripes = (len / 4).clamp(1, 256);
        let mut starts: Vec<u32> = Vec::with_capacity(stripes + 1);
        let stripe_h = loop {
            let stripe_h = (height / stripes as i64).max(1);
            let sidx =
                |v: i64| ((((v - qy0).max(0)) / stripe_h) as usize).min(stripes - 1);
            starts.clear();
            starts.resize(stripes + 1, 0);
            for i in 0..len {
                let (_, ay, _, by) = edge(i);
                let (lo, hi) = (ay.min(by) as i64 - BAND, ay.max(by) as i64 + BAND);
                for c in &mut starts[sidx(lo) + 1..=sidx(hi) + 1] {
                    *c += 1;
                }
            }
            let slots: usize = starts[1..].iter().map(|&c| padded(c) as usize).sum();
            if stripes == 1 || slots <= 6 * len.max(QLANES) {
                break stripe_h;
            }
            stripes /= 2;
        };
        for s in 0..stripes {
            starts[s + 1] = starts[s] + padded(starts[s + 1]);
        }
        let total = starts[stripes] as usize;
        let band = BAND as i32;
        let sentinel = vertex(0);
        let mut lanes = Vec::with_capacity(LANE_ARRAYS * total);
        for fill in [
            sentinel.0,
            sentinel.1,
            sentinel.0,
            sentinel.1,
            sentinel.0 - band,
            sentinel.0 + band,
            sentinel.1 - band,
            sentinel.1 + band,
        ] {
            lanes.resize(lanes.len() + total, fill);
        }
        // `starts[s]` serves as stripe `s`'s write cursor, then goes back
        // to the stripe's first slot below.
        let sidx = |v: i64| ((((v - qy0).max(0)) / stripe_h) as usize).min(stripes - 1);
        for i in 0..len {
            let (eax, eay, ebx, eby) = edge(i);
            let (lo, hi) = (eay.min(eby) as i64 - BAND, eay.max(eby) as i64 + BAND);
            for cursor in &mut starts[sidx(lo)..=sidx(hi)] {
                let at = *cursor as usize;
                for (lane, value) in [
                    (AX, eax),
                    (AY, eay),
                    (BX, ebx),
                    (BY, eby),
                    (EXMIN, eax.min(ebx) - band),
                    (EXMAX, eax.max(ebx) + band),
                    (EYMIN, eay.min(eby) - band),
                    (EYMAX, eay.max(eby) + band),
                ] {
                    lanes[lane * total + at] = value;
                }
                *cursor += 1;
            }
        }
        // Each cursor now sits its stripe's edge count past the stripe's
        // first slot; the padded counts rebuild the starts from slot 0.
        let mut first = 0u32;
        for start in &mut starts[..stripes] {
            let count = *start - first;
            *start = first;
            first += padded(count);
        }
        QuantRing {
            qz,
            envelope,
            degenerate: false,
            len,
            stripes,
            qy0,
            stripe_h,
            starts,
            lanes,
        }
    }

    fn degenerate(qz: Quantizer, envelope: Rect) -> QuantRing {
        QuantRing {
            qz,
            envelope,
            degenerate: true,
            len: 0,
            stripes: 1,
            qy0: 0,
            stripe_h: 1,
            starts: vec![0, 0],
            lanes: Vec::new(),
        }
    }

    /// Lane array `lane` (one of the lane offsets), every slot.
    #[inline]
    fn lane(&self, lane: usize) -> &[i32] {
        let slots = self.lanes.len() / LANE_ARRAYS;
        &self.lanes[lane * slots..(lane + 1) * slots]
    }

    /// The quantizer this ring was built with.
    pub fn quantizer(&self) -> &Quantizer {
        &self.qz
    }

    /// Number of real (unpadded) edges.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the ring carries no usable quantized edges.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The quantized fast path: `Some(location)` when the query's cell is
    /// certainly classifiable (strictly outside the snap band of every
    /// edge), `None` when the query is ambiguous and the caller must
    /// consult the exact `f64` path.
    ///
    /// A `Some` answer equals [`Ring::locate`]'s by the module-level
    /// homotopy argument; the integer arithmetic itself is exact, so
    /// there is no error-bound filter — the only approximation is the
    /// grid snap, and the band test accounts for it.
    pub fn try_locate(&self, p: Coord) -> Option<PointLocation> {
        if !self.envelope.contains_point(p) {
            return Some(PointLocation::Outside);
        }
        if self.degenerate {
            return None;
        }
        let (px, py) = self.qz.quantize(p)?;
        let s =
            ((((py as i64 - self.qy0).max(0)) / self.stripe_h) as usize).min(self.stripes - 1);
        let (lo, hi) = (self.starts[s] as usize, self.starts[s + 1] as usize);

        let mut crossings = 0u32;
        let mut lanes = 0u64;
        let mut ambiguous = false;
        // Pass 1 is pure i32 compares against the precomputed envelopes —
        // eight lanes per 256-bit block, no multiplies. A query strictly
        // left of a y-straddling edge's band envelope toggles parity
        // (the crossing abscissa lies inside the edge's x-range); one
        // strictly right never does. Only lanes whose envelope contains
        // the query's x need the widened exact products, and only lanes
        // whose full envelope contains the query need the snap-band
        // distance — both rare, handled scalar per flagged lane.
        let lane = |lane: usize| self.lane(lane)[lo..hi].chunks_exact(QLANES);
        let chunks = lane(AY)
            .zip(lane(BY))
            .zip(lane(EXMIN))
            .zip(lane(EXMAX))
            .zip(lane(EYMIN))
            .zip(lane(EYMAX));
        'scan: for (block, (((((ays, bys), exmins), exmaxs), eymins), eymaxs)) in
            chunks.enumerate()
        {
            let mut simple = [0u32; QLANES];
            let mut exact = [false; QLANES];
            let mut near = [false; QLANES];
            for l in 0..QLANES {
                let crossing = (bys[l] > py) != (ays[l] > py);
                let lt = px < exmins[l];
                let inx = !lt & (px <= exmaxs[l]);
                let iny = (eymins[l] <= py) & (py <= eymaxs[l]);
                simple[l] = (crossing & lt) as u32;
                exact[l] = crossing & inx;
                near[l] = inx & iny;
            }
            crossings += simple.iter().sum::<u32>();
            lanes += QLANES as u64;
            if exact.iter().any(|&e| e) || near.iter().any(|&n| n) {
                let base = lo + block * QLANES;
                let slot = |lane: usize, i: usize| self.lane(lane)[i] as i64;
                for l in 0..QLANES {
                    if !(exact[l] || near[l]) {
                        continue;
                    }
                    let i = base + l;
                    let (ax, ay, bx, by) = (slot(AX, i), slot(AY, i), slot(BX, i), slot(BY, i));
                    if near[l] && within_band(px as i64, py as i64, ax, ay, bx, by) {
                        ambiguous = true;
                        break 'scan;
                    }
                    if exact[l] {
                        // Integer Franklin crossing test: the f64 form
                        // compares px against bx + (py-by)(ax-bx)/(ay-by);
                        // cross-multiply by d = ay-by and flip the
                        // comparison with d's sign. Products stay within
                        // 2^62 (30-bit differences).
                        let d = ay - by;
                        let lhs = (px as i64 - bx) * d;
                        let rhs = (py as i64 - by) * (ax - bx);
                        let toggled = if d > 0 { lhs < rhs } else { lhs > rhs };
                        crossings += toggled as u32;
                    }
                }
            }
        }
        note_quant_lanes(lanes);
        if ambiguous {
            return None;
        }
        Some(if crossings % 2 == 1 { PointLocation::Inside } else { PointLocation::Outside })
    }
}

/// Exact integer test: is the squared distance from cell `(px, py)` to
/// segment `(a, b)` at most [`BAND`]²? Endpoint branches stay in `i64`
/// (sums of two 2^62 products fit `i128` only — widen there); the
/// interior branch compares `cross²` against `BAND² · |ab|²` in `i128`.
fn within_band(px: i64, py: i64, ax: i64, ay: i64, bx: i64, by: i64) -> bool {
    let (abx, aby) = (bx - ax, by - ay);
    let (apx, apy) = (px - ax, py - ay);
    let band2 = BAND as i128 * BAND as i128;
    let dot = apx as i128 * abx as i128 + apy as i128 * aby as i128;
    let len2 = abx as i128 * abx as i128 + aby as i128 * aby as i128;
    if len2 == 0 || dot <= 0 {
        let d2 = apx as i128 * apx as i128 + apy as i128 * apy as i128;
        return d2 <= band2;
    }
    if dot >= len2 {
        let (bpx, bpy) = (px - bx, py - by);
        let d2 = bpx as i128 * bpx as i128 + bpy as i128 * bpy as i128;
        return d2 <= band2;
    }
    let cross = apx as i128 * aby as i128 - apy as i128 * abx as i128;
    cross * cross <= band2 * len2
}

/// A prepared ring's point location: the quantized grid answers every
/// query it can certify, and the exact [`RingIndex`] answers the rest.
#[derive(Debug, Clone)]
pub struct PreparedRing {
    quant: QuantRing,
    index: RingIndex,
}

impl PreparedRing {
    /// Builds both tiers over a ring.
    pub fn build(ring: &Ring) -> PreparedRing {
        PreparedRing { quant: QuantRing::build(ring), index: RingIndex::build(ring) }
    }

    /// The exact tier on its own, which answers identically to
    /// [`PreparedRing::locate`].
    pub fn index(&self) -> &RingIndex {
        &self.index
    }

    /// Classifies `p`. Certain grid answers count under
    /// `geom/quant_cells_resolved`; snap-band queries go to the exact
    /// index and count under `geom/quant_fallback_exact`. Bit-identical
    /// to [`RingIndex::locate`] and [`Ring::locate`].
    pub fn locate(&self, p: Coord) -> PointLocation {
        match self.quant.try_locate(p) {
            Some(loc) => {
                note_quant_resolved(1);
                loc
            }
            None => {
                note_quant_fallback(1);
                self.index.locate(p)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coord::coord;
    use crate::segtree::take_kernel_counters;

    fn ring(pts: &[(f64, f64)]) -> Ring {
        Ring::from_xy(pts).unwrap()
    }

    /// A square, a concave ring (horizontal edges at several ordinates,
    /// an edge count that leaves a partial lane) and a general triangle.
    fn sample_rings() -> [Ring; 3] {
        [
            ring(&[(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)]),
            ring(&[
                (0.0, 0.0),
                (8.0, 0.0),
                (8.0, 3.0),
                (4.0, 3.0),
                (4.0, 6.0),
                (8.0, 6.0),
                (8.0, 9.0),
                (0.0, 9.0),
                (0.0, 5.0),
            ]),
            ring(&[(0.0, 0.0), (7.0, 1.0), (3.0, 8.0)]),
        ]
    }

    #[test]
    fn quantizer_round_trips_grid_points() {
        let r = Rect { min: coord(0.0, 0.0), max: coord(256.0, 128.0) };
        let qz = Quantizer::for_rect(&r);
        assert!(qz.cell() > 0.0);
        assert_eq!(qz.quantize(coord(0.0, 0.0)), Some((0, 0)));
        let (qx, qy) = qz.quantize(coord(256.0, 128.0)).unwrap();
        assert_eq!(qx, SPAN);
        assert_eq!(qy, SPAN / 2);
        // Far outside the arithmetic-safety range: rejected, not wrapped.
        assert_eq!(qz.quantize(coord(1e12, 0.0)), None);
        assert_eq!(qz.quantize(coord(f64::NAN, 0.0)), None);
    }

    #[test]
    fn degenerate_rect_gets_unit_cell() {
        let r = Rect { min: coord(3.0, 4.0), max: coord(3.0, 4.0) };
        let qz = Quantizer::for_rect(&r);
        assert_eq!(qz.cell(), 1.0);
        assert_eq!(qz.quantize(coord(3.0, 4.0)), Some((0, 0)));
    }

    #[test]
    fn certain_answers_match_ring_locate() {
        for r in &sample_rings() {
            let q = QuantRing::build(r);
            assert_eq!(q.len(), r.num_points());
            assert!(!q.is_empty());
            for i in 0..45 {
                for j in 0..45 {
                    let p = coord(i as f64 * 0.27 - 1.0, j as f64 * 0.27 - 1.0);
                    if let Some(fast) = q.try_locate(p) {
                        assert_eq!(fast, r.locate(p), "ring={r:?} p={p:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn prepared_ring_matches_ring_locate_on_probe_grid() {
        for r in &sample_rings() {
            let prepared = PreparedRing::build(r);
            let mut probes: Vec<Coord> = Vec::new();
            for i in 0..45 {
                for j in 0..45 {
                    probes.push(coord(i as f64 * 0.27 - 1.0, j as f64 * 0.27 - 1.0));
                }
            }
            probes.extend(r.coords().iter().copied());
            probes.extend(r.segments().map(|s| s.midpoint()));
            for p in probes {
                assert_eq!(prepared.locate(p), r.locate(p), "ring={r:?} p={p:?}");
                assert_eq!(prepared.index().locate(p), r.locate(p), "ring={r:?} p={p:?}");
            }
        }
    }

    #[test]
    fn boundary_points_are_ambiguous() {
        let r = ring(&[(0.0, 0.0), (9.0, 2.0), (5.0, 8.0)]);
        let q = QuantRing::build(&r);
        let prepared = PreparedRing::build(&r);
        for s in r.segments() {
            for t in [0.0, 0.25, 0.5, 0.75, 1.0] {
                let p = s.a.lerp(s.b, t);
                if r.locate(p) == PointLocation::OnBoundary {
                    assert_eq!(q.try_locate(p), None, "boundary probe {p:?} answered fast");
                    assert_eq!(prepared.locate(p), PointLocation::OnBoundary);
                }
            }
        }
    }

    #[test]
    fn lanes_counter_records_integer_scan() {
        let r = ring(&[(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)]);
        let q = QuantRing::build(&r);
        let _ = take_kernel_counters();
        assert_eq!(q.try_locate(coord(5.0, 5.0)), Some(PointLocation::Inside));
        let c = take_kernel_counters();
        assert!(c.quant_lanes_tested > 0, "interior probe must scan integer lanes");
    }

    #[test]
    fn counters_record_lanes_and_fallbacks() {
        let r = ring(&[(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)]);
        let prepared = PreparedRing::build(&r);
        let _ = take_kernel_counters();
        assert_eq!(prepared.locate(coord(5.0, 5.0)), PointLocation::Inside);
        let c = take_kernel_counters();
        assert_eq!((c.quant_cells_resolved, c.quant_fallback_exact), (1, 0));
        assert!(c.quant_lanes_tested > 0, "interior probe must scan integer lanes");
        assert_eq!(prepared.locate(coord(5.0, 0.0)), PointLocation::OnBoundary);
        let c = take_kernel_counters();
        assert_eq!((c.quant_cells_resolved, c.quant_fallback_exact), (0, 1));
        assert_eq!(c.simd_fallback_exact, 0, "no f64 lane tier sits between grid and index");
    }

    #[test]
    fn out_of_range_grid_points_degenerate_safely() {
        // The x-extent overflows to infinity, so the quantizer falls back
        // to a unit cell and the far vertices cannot be snapped.
        let r = ring(&[(-1e308, 0.0), (1e308, 0.0), (0.0, 1.0)]);
        let q = QuantRing::build(&r);
        assert!(q.is_empty());
        // In-envelope queries are ambiguous (fall back), outside stays
        // certain via the f64 envelope.
        assert_eq!(q.try_locate(coord(0.0, 0.5)), None);
        assert_eq!(q.try_locate(coord(0.0, -5.0)), Some(PointLocation::Outside));
        let prepared = PreparedRing::build(&r);
        assert_eq!(prepared.locate(coord(0.0, 0.5)), r.locate(coord(0.0, 0.5)));
    }
}
