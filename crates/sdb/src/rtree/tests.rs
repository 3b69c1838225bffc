//! A layer's envelope queries against a brute-force scan of the same
//! envelopes: the layer builds its `StrTree` (an STR-packed R-tree) from
//! its features' envelopes, in feature order.

use crate::{Feature, Layer};
use geopattern_geom::{coord, Point, Polygon, Rect};

fn rect(x0: f64, y0: f64, x1: f64, y1: f64) -> Rect {
    Rect::new(coord(x0, y0), coord(x1, y1))
}

/// A layer with one feature per envelope: a rectangle polygon, or a point
/// where the envelope is one.
fn layer(items: &[Rect]) -> Layer {
    let features = items
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let geometry = if r.min == r.max {
                Point::xy(r.min.x, r.min.y).unwrap().into()
            } else {
                Polygon::rect(r.min, r.max).unwrap().into()
            };
            Feature::new(format!("f{i}"), geometry)
        })
        .collect();
    let layer = Layer::new("t", features);
    for (f, r) in layer.features().iter().zip(items) {
        assert_eq!(f.envelope(), *r);
    }
    layer
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
    let l = layer(&[]);
    assert!(l.index().is_empty());
    assert_eq!(l.query_envelope(&rect(0.0, 0.0, 100.0, 100.0)), Vec::<usize>::new());
}

#[test]
fn bulk_load_matches_brute_force() {
    let items = grid(12); // 144 items, multiple levels
    let l = layer(&items);
    assert_eq!(l.index().len(), 144);
    let queries = [
        rect(0.0, 0.0, 25.0, 25.0),
        rect(50.0, 50.0, 55.0, 55.0),
        rect(-10.0, -10.0, -1.0, -1.0),
        rect(0.0, 0.0, 1000.0, 1000.0),
        rect(33.0, 33.0, 34.0, 34.0),
    ];
    for q in queries {
        assert_eq!(l.query_envelope(&q), brute_force(&items, &q), "query {q:?}");
    }
}

#[test]
fn query_window_matches_brute_force() {
    let items = grid(5);
    let l = layer(&items);
    // Items are 10 apart with 5x5 boxes: a 6-unit margin around the
    // (0,0) cell reaches its right and upper neighbours, not beyond.
    let window = rect(0.0, 0.0, 5.0, 5.0);
    let near = l.index().query_window(&window, 6.0);
    assert_eq!(near, brute_force(&items, &window.buffered(6.0)));
    assert_eq!(near, vec![0, 1, 5, 6]);
    // The buffer-reusing form clears what the buffer held.
    let mut out = vec![99];
    l.index().query_rect_into(&window.buffered(6.0), &mut out);
    assert_eq!(out, near);
}

#[test]
fn degenerate_point_rectangles() {
    let items: Vec<Rect> = (0..50)
        .map(|i| Rect::of_point(coord(i as f64, (i * 7 % 13) as f64)))
        .collect();
    let l = layer(&items);
    let q = rect(10.0, 0.0, 20.0, 20.0);
    assert_eq!(l.query_envelope(&q), brute_force(&items, &q));
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
    let l = layer(&items);
    let q = rect(10.0, 5.0, 12.0, 6.0);
    assert_eq!(l.query_envelope(&q), brute_force(&items, &q));
}
