//! Shamos–Hoey simplicity test for rings and polylines.
//!
//! [`Ring::is_simple`](crate::Ring::is_simple) and
//! [`LineString::is_simple`](crate::LineString::is_simple) ask one
//! question: does any pair of the path's edges meet where the contact
//! rules forbid it? Shamos & Hoey (FOCS 1976) answer "does any pair of
//! segments meet?" by sweeping the vertices in (x, y) order and testing
//! only edges that become neighbours on the sweep line: the leftmost
//! forbidden contact is always between two such neighbours, or at the
//! vertex being swept. That takes one sort and O(log n) comparisons per
//! vertex. Every test is a yes/no decision on the exact [`orientation`]
//! and on coordinate comparisons; no intersection point is ever
//! constructed.
//!
//! The contact rules:
//! * two non-adjacent edges are forbidden when they share any point;
//! * two adjacent edges (`i` and `i + 1`, plus the closing pair of a
//!   closed path) may share their common vertex, and are forbidden only
//!   when they are collinear and fold back over each other;
//! * a vertex visited twice is forbidden outright. Two visits always put
//!   one point on two non-adjacent edges, but in a pinch (one visit's two
//!   edges both end at the vertex, the other's both start there) those
//!   edges are never neighbours on the sweep line, so the sweep rejects
//!   the repeat where the sort puts the two copies side by side.
//!
//! Vertices are sorted by (x, y) with `total_cmp` once `-0.0` is folded
//! into `0.0`, which is [`Coord::lex_cmp`]'s order on finite coordinates
//! and the one [`orientation`] sees.

use crate::coord::Coord;
use crate::robust::{orientation, Orientation::*};
use std::cell::Cell;
use std::cmp::Ordering;

/// An edge on the sweep line: its lexicographically smaller endpoint, its
/// larger one, and its index along the path.
#[derive(Clone, Copy)]
struct Edge {
    left: Coord,
    right: Coord,
    id: usize,
}

/// The sweep's buffers: the vertices in sweep order with their indices,
/// and the sweep line's edges, bottom to top.
#[derive(Default)]
struct SweepScratch {
    order: Vec<(Coord, usize)>,
    status: Vec<Edge>,
}

thread_local! {
    static SWEEP_SCRATCH: Cell<SweepScratch> = const {
        Cell::new(SweepScratch { order: Vec::new(), status: Vec::new() })
    };
}

/// True when the path through `coords` breaks none of the contact rules.
/// Edge `i` joins `coords[i]` to `coords[i + 1]`; a `closed` path (a ring
/// stored without its closing duplicate) adds the edge from the last
/// vertex back to the first. The buffers are this thread's, so warm calls
/// allocate nothing. `coords` must be finite.
pub(crate) fn is_simple(coords: &[Coord], closed: bool) -> bool {
    let mut scratch = SWEEP_SCRATCH.take();
    let simple = Path { coords, closed }.is_simple_with(&mut scratch);
    SWEEP_SCRATCH.set(scratch);
    simple
}

struct Path<'a> {
    coords: &'a [Coord],
    closed: bool,
}

impl Path<'_> {
    fn num_edges(&self) -> usize {
        if self.closed {
            self.coords.len()
        } else {
            self.coords.len().saturating_sub(1)
        }
    }

    fn edge(&self, id: usize) -> Edge {
        let a = self.coords[id];
        let b = self.coords[if id + 1 == self.coords.len() { 0 } else { id + 1 }];
        if a.lex_cmp(&b) == Ordering::Less {
            Edge { left: a, right: b, id }
        } else {
            Edge { left: b, right: a, id }
        }
    }

    fn adjacent(&self, i: usize, j: usize) -> bool {
        let d = i.abs_diff(j);
        d == 1 || (self.closed && d + 1 == self.coords.len())
    }

    /// True when neighbours `a` and `b` on the sweep line break a contact
    /// rule.
    fn forbidden(&self, a: &Edge, b: &Edge) -> bool {
        if self.adjacent(a.id, b.id) {
            // Adjacent edges on the sweep line both leave or both reach
            // their common vertex, so collinear means folded back.
            orientation(a.left, a.right, b.left) == Collinear
                && orientation(a.left, a.right, b.right) == Collinear
        } else {
            meet(a, b)
        }
    }

    fn is_simple_with(&self, scratch: &mut SweepScratch) -> bool {
        let SweepScratch { order, status } = scratch;
        let coords = self.coords;
        let edges = self.num_edges();
        order.clear();
        // Adding `0.0` turns `-0.0` into `0.0` and keeps every other value.
        order.extend(coords.iter().enumerate().map(|(k, c)| (Coord::new(c.x + 0.0, c.y + 0.0), k)));
        order.sort_unstable_by(|(a, _), (b, _)| a.x.total_cmp(&b.x).then(a.y.total_cmp(&b.y)));
        if order.windows(2).any(|w| w[0].0 == w[1].0) {
            return false;
        }
        status.clear();
        for &(p, k) in order.iter() {
            // The vertex's edges: the one arriving and the one leaving.
            let arriving = match k {
                0 if self.closed => Some(edges - 1),
                0 => None,
                _ => Some(k - 1),
            };
            let leaving = (k < edges).then_some(k);
            let mut ending = 0;
            // The edges leaving `p`; slots past `starts` are unused.
            let mut new = [Edge { left: p, right: p, id: k }; 2];
            let mut starts = 0;
            for e in [arriving, leaving].into_iter().flatten().map(|id| self.edge(id)) {
                if e.right == p {
                    ending += 1;
                } else {
                    new[starts] = e;
                    starts += 1;
                }
            }

            // The sweep line's edges through `p` sit between those below
            // it and those above. They must be exactly the edges ending
            // here: any other one holds `p` in its interior.
            let lo =
                status.partition_point(|e| orientation(e.left, e.right, p) == CounterClockwise);
            let hi = lo
                + status[lo..]
                    .iter()
                    .take_while(|e| orientation(e.left, e.right, p) == Collinear)
                    .count();
            if hi - lo != ending {
                return false;
            }

            // Edges leaving `p` replace them, bottom to top. Two such
            // edges are adjacent and fold back when they leave along one
            // ray.
            if starts == 2 {
                match orientation(p, new[0].right, new[1].right) {
                    Collinear => return false,
                    Clockwise => new.swap(0, 1),
                    CounterClockwise => {}
                }
            }
            status.splice(lo..hi, new[..starts].iter().copied());

            // Test every pair that just became neighbours.
            let top = lo + starts;
            if lo > 0 && lo < status.len() && self.forbidden(&status[lo - 1], &status[lo]) {
                return false;
            }
            if starts > 0 && top < status.len() && self.forbidden(&status[top - 1], &status[top]) {
                return false;
            }
        }
        true
    }
}

/// True when the closed segments `a` and `b` share any point.
fn meet(a: &Edge, b: &Edge) -> bool {
    let strictly_one_side = |o1, o2| o1 == o2 && o1 != Collinear;
    let (o1, o2) = (orientation(a.left, a.right, b.left), orientation(a.left, a.right, b.right));
    if strictly_one_side(o1, o2) {
        return false;
    }
    let (o3, o4) = (orientation(b.left, b.right, a.left), orientation(b.left, b.right, a.right));
    if strictly_one_side(o3, o4) {
        return false;
    }
    if o1 == Collinear && o2 == Collinear {
        // Collinear: they meet when their spans along the line overlap.
        return a.left.lex_cmp(&b.right) != Ordering::Greater
            && b.left.lex_cmp(&a.right) != Ordering::Greater;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coord::coord;
    use crate::segment::Segment;

    fn path(pts: &[(f64, f64)]) -> Vec<Coord> {
        pts.iter().map(|&(x, y)| coord(x, y)).collect()
    }

    /// The all-pairs oracle: every pair of edges against the contact
    /// rules, each decided by exact predicates, with no repeated-vertex
    /// rule of its own.
    fn brute(coords: &[Coord], closed: bool) -> bool {
        let n = coords.len();
        let m = if closed { n } else { n - 1 };
        let seg = |i: usize| Segment::new(coords[i], coords[(i + 1) % n]);
        for i in 0..m {
            for j in i + 1..m {
                let (s, t) = (seg(i), seg(j));
                let forbidden = if j == i + 1 || (closed && i == 0 && j == m - 1) {
                    // `p` and `q` are the ends away from the shared `v`.
                    let (p, v, q) = if j == i + 1 { (s.a, s.b, t.b) } else { (t.a, s.a, s.b) };
                    Segment::new(v, p).contains_point(q) || Segment::new(v, q).contains_point(p)
                } else {
                    let side = |a, b, c| orientation(a, b, c);
                    let (o1, o2) = (side(s.a, s.b, t.a), side(s.a, s.b, t.b));
                    let (o3, o4) = (side(t.a, t.b, s.a), side(t.a, t.b, s.b));
                    let proper =
                        o1 != o2 && o3 != o4 && [o1, o2, o3, o4].iter().all(|&o| o != Collinear);
                    proper
                        || s.contains_point(t.a)
                        || s.contains_point(t.b)
                        || t.contains_point(s.a)
                        || t.contains_point(s.b)
                };
                if forbidden {
                    return false;
                }
            }
        }
        true
    }

    /// The sweep's verdict, checked against the oracle's.
    fn checked(coords: &[Coord], closed: bool) -> bool {
        let simple = is_simple(coords, closed);
        assert_eq!(simple, brute(coords, closed), "{coords:?} closed={closed}");
        simple
    }

    #[test]
    fn matches_brute_force_on_grids_and_stars() {
        // The h/v grid: a boustrophedon over five horizontal lines is
        // simple, and running on up the columns crosses every line.
        let mut grid: Vec<Coord> = Vec::new();
        for i in 0..5 {
            let (from, to) = if i % 2 == 0 { (0.0, 4.0) } else { (4.0, 0.0) };
            grid.push(coord(from, i as f64));
            grid.push(coord(to, i as f64));
        }
        assert!(checked(&grid, false));
        grid.push(coord(2.0, 5.0));
        grid.push(coord(2.0, -1.0));
        assert!(!checked(&grid, false));

        // The shared-origin star: a wedge at the origin between any two
        // spokes is simple; a path through the origin twice is not.
        let tip = |k: usize| {
            let a = k as f64 * std::f64::consts::FRAC_PI_4;
            coord(a.cos() * 5.0, a.sin() * 5.0)
        };
        let origin = coord(0.0, 0.0);
        for k in 0..8 {
            assert!(checked(&[origin, tip(k), tip(k + 1)], true));
            assert!(checked(&[tip(k), origin, tip(k + 3)], false));
            assert!(!checked(&[tip(k), origin, tip(k + 2), tip(k + 4), origin, tip(k + 6)], false));
        }
    }

    #[test]
    fn sparse_chains_have_only_adjacent_contacts() {
        // A long zigzag: only consecutive edges touch, open or closed by
        // a return path below it.
        let mut chain: Vec<Coord> =
            (0..=50).map(|i| coord(i as f64, if i % 2 == 0 { 0.0 } else { 1.0 })).collect();
        assert!(checked(&chain, false));
        chain.push(coord(50.0, -1.0));
        chain.push(coord(0.0, -1.0));
        assert!(checked(&chain, true));
    }

    #[test]
    fn early_exit_respects_exemptions() {
        // An open chain: every contact is an adjacent shared vertex.
        assert!(checked(&path(&[(0.0, 0.0), (1.0, 1.0), (2.0, 0.0), (3.0, 1.0)]), false));
        // Edges 0 and 2 cross: no exemption covers non-adjacent edges.
        assert!(!checked(&path(&[(0.0, 0.0), (3.0, 3.0), (0.0, 3.0), (3.0, 0.0)]), false));
        // Adjacent edges may continue straight on, but not fold back.
        assert!(checked(&path(&[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]), false));
        assert!(!checked(&path(&[(0.0, 0.0), (2.0, 0.0), (1.0, 0.0)]), false));
        assert!(!checked(&path(&[(1.0, 0.0), (0.0, 0.0), (2.0, 0.0)]), false));
        assert!(!checked(&path(&[(0.0, 0.0), (0.0, 2.0), (0.0, 1.0), (5.0, 5.0)]), false));
        // Two vertices closed into a ring fold back on themselves.
        assert!(!checked(&path(&[(0.0, 0.0), (1.0, 1.0)]), true));
    }

    #[test]
    fn empty_and_single_inputs() {
        assert!(is_simple(&[], false));
        assert!(is_simple(&path(&[(0.0, 0.0)]), false));
        assert!(checked(&path(&[(0.0, 0.0), (1.0, 1.0)]), false));
    }

    #[test]
    fn collinear_overlaps_reported() {
        // Edge 4 runs back along edge 0 over [2, 4].
        let overlap =
            path(&[(0.0, 0.0), (4.0, 0.0), (4.0, 1.0), (6.0, 1.0), (6.0, 0.0), (2.0, 0.0)]);
        assert!(!checked(&overlap, false));
        // The same on a vertical line, in a ring.
        let ring = path(&[
            (0.0, 0.0),
            (0.0, 4.0),
            (1.0, 4.0),
            (1.0, 5.0),
            (0.0, 5.0),
            (0.0, 2.0),
            (-1.0, 2.0),
        ]);
        assert!(!checked(&ring, true));
        // Collinear edges with a gap between them do not meet.
        let apart = path(&[(0.0, 0.0), (2.0, 0.0), (2.0, 1.0), (3.0, 1.0), (3.0, 0.0), (5.0, 0.0)]);
        assert!(checked(&apart, false));
    }

    #[test]
    fn a_pinch_is_rejected() {
        // (1, 1) is visited twice: its first visit's edges both arrive
        // from the left, its second's both leave to the right.
        let pinch = path(&[
            (0.0, 0.0),
            (1.0, 1.0),
            (0.0, 2.0),
            (1.0, 3.0),
            (2.0, 2.0),
            (1.0, 1.0),
            (2.0, 0.0),
            (1.0, -1.0),
        ]);
        assert!(!checked(&pinch, true));
    }

    #[test]
    fn a_vertex_on_a_non_adjacent_edge_is_rejected() {
        // A T: vertex (2, 0) lies inside edge 0.
        let t = path(&[(0.0, 0.0), (4.0, 0.0), (4.0, 2.0), (2.0, 2.0), (2.0, 0.0), (1.0, -1.0)]);
        assert!(!checked(&t, false));
        // The same from below and from the right, closed.
        let below = path(&[(0.0, 0.0), (4.0, 0.0), (2.0, -2.0), (2.0, 0.0), (1.0, 2.0)]);
        assert!(!checked(&below, true));
        let right = path(&[(0.0, 0.0), (0.0, 4.0), (-2.0, 3.0), (0.0, 2.0), (-2.0, 1.0)]);
        assert!(!checked(&right, true));
    }

    #[test]
    fn vertical_edges_and_repeated_x() {
        // A comb of vertical teeth: many vertices share each x.
        let mut comb: Vec<Coord> = Vec::new();
        for i in 0..6 {
            let x = 2.0 * i as f64;
            comb.extend([coord(x, 0.0), coord(x, 5.0), coord(x + 1.0, 5.0), coord(x + 1.0, 1.0)]);
        }
        comb.push(coord(12.0, 1.0));
        comb.push(coord(12.0, -1.0));
        comb.push(coord(-1.0, -1.0));
        comb.push(coord(-1.0, 0.0));
        assert!(checked(&comb, true));
        // A vertical edge through a vertex of a non-adjacent edge.
        let through =
            path(&[(0.0, 0.0), (0.0, 4.0), (2.0, 4.0), (1.0, 3.0), (0.0, 2.0), (2.0, 1.0)]);
        assert!(!checked(&through, false));
        // Stacked vertical edges on one line, touching end to end.
        let stacked = path(&[(0.0, 0.0), (0.0, 2.0), (1.0, 3.0), (0.0, 2.0), (0.0, 4.0)]);
        assert!(!checked(&stacked, false));
    }

    #[test]
    fn the_closing_edge_wraps() {
        // The closing edge (3 → 0) may meet edge 0 only at vertex 0.
        let square = path(&[(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)]);
        assert!(checked(&square, true));
        // Here the closing edge crosses edge 1.
        let crossed = path(&[(0.0, 0.0), (2.0, 0.0), (0.0, 2.0), (2.0, 2.0)]);
        assert!(!checked(&crossed, true));
        // Open, the same vertices are one simple chain.
        assert!(checked(&crossed, false));
        // A closing edge that folds back over edge 0.
        assert!(!checked(&path(&[(0.0, 0.0), (4.0, 0.0), (3.0, 1.0), (2.0, 0.0)]), true));
    }

    #[test]
    fn straight_runs_at_inexact_coordinates_are_simple() {
        // Two collinear edges continuing straight on at coordinates off
        // the integer lattice. The x-sweep this replaced rejected both
        // rings: it rebuilt the shared vertex by interpolation, and the
        // rounded point no longer matched the vertex.
        for ring in [
            path(&[(2e-10, 0.0), (-1e-10, 0.0), (-2e-10, 0.0), (-2e-10, -2e-10)]),
            path(&[
                (0.6000000000000001, 0.8999999999999999),
                (0.6000000000000001, 1.7999999999999998),
                (0.1, 1.7999999999999998),
                (0.0, 1.7999999999999998),
            ]),
        ] {
            assert!(checked(&ring, true));
            assert!(crate::Ring::new(ring).is_ok());
        }
    }

    #[test]
    fn randomized_against_brute_force() {
        // Deterministic random walks with jumps on small lattices, where
        // collinear runs, T-junctions and repeated vertices are common.
        let mut state = 0x1234_5678u64;
        let mut rnd = move |bound: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % bound
        };
        let (mut simple, mut not) = (0, 0);
        for _ in 0..20_000 {
            let side = 3 + rnd(3) as i64;
            let len = 3 + rnd(10) as usize;
            let mut at = (rnd(side as u64) as i64, rnd(side as u64) as i64);
            let mut pts = vec![coord(at.0 as f64, at.1 as f64)];
            while pts.len() < len {
                if rnd(6) == 0 {
                    at = (rnd(side as u64) as i64, rnd(side as u64) as i64);
                } else {
                    at.0 = (at.0 + rnd(3) as i64 - 1).clamp(0, side - 1);
                    at.1 = (at.1 + rnd(3) as i64 - 1).clamp(0, side - 1);
                }
                let c = coord(at.0 as f64, at.1 as f64);
                if pts.last() != Some(&c) {
                    pts.push(c);
                }
            }
            for closed in [false, true] {
                if closed && pts[0] == pts[len - 1] {
                    continue;
                }
                if checked(&pts, closed) {
                    simple += 1;
                } else {
                    not += 1;
                }
            }
        }
        assert!(simple > 1_000 && not > 1_000, "{simple} simple, {not} not");
    }
}
