//! `classify` on compiled patterns against the string-pattern version it
//! replaced, over every DE-9IM matrix (4⁹) and every dimension pair (9):
//! 2,359,296 cases. `matches`/`try_matches` are checked against a
//! char-by-char reference on every pattern `classify` uses, and on the
//! invalid inputs, error text included.
//!
//! The same sweep proves the relation engine's stop rule,
//! `classify_lower_bound`: whenever it calls a matrix decided, `classify`
//! agrees on it, and every raise of one cell by one level is decided too,
//! with the same class. Every completion of a matrix is reached by such
//! raises, so by induction the engine may stop there: no evidence still
//! to come can change the answer. Classification also commutes with
//! transposition, which lets the engine run a swapped pair's rule on the
//! transposed matrix.
//!
//! Matrices are built straight from an 18-bit code (2 bits per cell,
//! row-major), not through strings, so the sweep stays fast in a debug
//! build.

use geopattern_geom::{Dim, GeomDim, IntersectionMatrix, Part};
use geopattern_qsr::{classify, classify_lower_bound, TopologicalRelation};

const DIMS: [Dim; 4] = [Dim::Empty, Dim::Zero, Dim::One, Dim::Two];
const PARTS: [Part; 3] = [Part::Interior, Part::Boundary, Part::Exterior];
const GEOM_DIMS: [GeomDim; 3] = [GeomDim::Point, GeomDim::Line, GeomDim::Area];

/// Every pattern the string-pattern `classify` tests.
const CLASSIFY_PATTERNS: [&str; 17] = [
    "T*F**FFF*",
    "T*****FF*",
    "*T****FF*",
    "***T**FF*",
    "****T*FF*",
    "T********",
    "****F****",
    "T*F**F***",
    "*TF**F***",
    "**FT*F***",
    "**F*TF***",
    "T*T***T**",
    "0********",
    "FT*******",
    "F**T*****",
    "F***T****",
    "*********",
];

/// The matrix whose cell `3 * row + col` holds `DIMS[(code >> 2 * cell) & 3]`.
fn matrix(code: u32) -> IntersectionMatrix {
    let mut m = IntersectionMatrix::empty();
    for cell in 0..9 {
        let d = DIMS[((code >> (2 * cell)) & 3) as usize];
        m.set(PARTS[cell / 3], PARTS[cell % 3], d);
    }
    m
}

/// The string-pattern `classify`, verbatim from before patterns were
/// compiled.
fn classify_reference(m: &IntersectionMatrix, da: GeomDim, db: GeomDim) -> TopologicalRelation {
    use TopologicalRelation::*;

    // Equals: each geometry covers the other.
    if m.matches("T*F**FFF*") {
        return Equals;
    }
    // B entirely inside A (nothing of B outside A).
    if (m.matches("T*****FF*") || m.matches("*T****FF*") || m.matches("***T**FF*") || m.matches("****T*FF*"))
        // Interiors must meet for containment; otherwise it's a touch
        // (possible only in degenerate lower-dimensional cases).
        && m.matches("T********")
    {
        return if m.matches("****F****") { Contains } else { Covers };
    }
    // A entirely inside B.
    if (m.matches("T*F**F***") || m.matches("*TF**F***") || m.matches("**FT*F***") || m.matches("**F*TF***"))
        && m.matches("T********") {
            return if m.matches("****F****") { Within } else { CoveredBy };
        }
    // Interiors intersect and both extend beyond the other.
    if m.matches("T*T***T**") || (da == GeomDim::Line && db == GeomDim::Line && m.matches("0********"))
    {
        // Dimension rules: crosses when the dimensions differ, or for two
        // curves meeting at isolated points; overlaps when the common part
        // has the operands' own dimension.
        if da != db {
            return Crosses;
        }
        if da == GeomDim::Line && db == GeomDim::Line {
            return if m.matches("0********") { Crosses } else { Overlaps };
        }
        return Overlaps;
    }
    // Any remaining contact is boundary-only.
    if m.matches("FT*******") || m.matches("F**T*****") || m.matches("F***T****") {
        return Touches;
    }
    Disjoint
}

/// The char-by-char `try_matches`, verbatim from before patterns were
/// compiled.
fn try_matches_reference(m: &IntersectionMatrix, pattern: &str) -> Result<bool, String> {
    let chars: Vec<char> = pattern.chars().collect();
    if chars.len() != 9 {
        return Err(format!("pattern must have 9 characters, got {}", chars.len()));
    }
    let mut all_match = true;
    for (idx, &pc) in chars.iter().enumerate() {
        let d = m.get(PARTS[idx / 3], PARTS[idx % 3]);
        let ok = match pc {
            'T' | 't' => d.is_true(),
            'F' | 'f' => d == Dim::Empty,
            '*' => true,
            '0' => d == Dim::Zero,
            '1' => d == Dim::One,
            '2' => d == Dim::Two,
            other => return Err(format!("invalid pattern character {other:?}")),
        };
        all_match &= ok;
    }
    Ok(all_match)
}

/// The char-by-char `FromStr`, verbatim from before patterns were compiled.
fn parse_reference(s: &str) -> Result<IntersectionMatrix, String> {
    let chars: Vec<char> = s.chars().collect();
    if chars.len() != 9 {
        return Err(format!("matrix string must have 9 characters, got {}", chars.len()));
    }
    let mut m = IntersectionMatrix::empty();
    for (idx, &c) in chars.iter().enumerate() {
        let d = match c {
            'F' | 'f' => Dim::Empty,
            '0' => Dim::Zero,
            '1' => Dim::One,
            '2' => Dim::Two,
            other => return Err(format!("invalid matrix character {other:?}")),
        };
        m.set(PARTS[idx / 3], PARTS[idx % 3], d);
    }
    Ok(m)
}

#[test]
fn classify_equals_the_string_pattern_version_on_every_matrix() {
    let mut seen = [0u64; 9];
    for code in 0..1u32 << 18 {
        let m = matrix(code);
        for da in GEOM_DIMS {
            for db in GEOM_DIMS {
                let got = classify(&m, da, db);
                assert_eq!(got, classify_reference(&m, da, db), "{m} {da:?} {db:?}");
                seen[got as usize] += 1;
            }
        }
    }
    assert_eq!(seen.iter().sum::<u64>(), 2_359_296);
    assert!(seen.iter().all(|&n| n > 0), "every relation is reached: {seen:?}");
}

#[test]
fn matches_equals_the_char_by_char_reference() {
    // Lower-case `t`/`f` and exact dimensions, besides classify's patterns.
    let extra = ["tttffftft", "TfT*f*0f2", "2FF1FF212", "012F*T*t*"];
    for p in CLASSIFY_PATTERNS.into_iter().chain(extra) {
        let chars: Vec<char> = p.chars().collect();
        for code in 0..1u32 << 18 {
            let m = matrix(code);
            let want = chars.iter().enumerate().all(|(idx, &pc)| {
                let d = m.get(PARTS[idx / 3], PARTS[idx % 3]);
                match pc {
                    'T' | 't' => d.is_true(),
                    'F' | 'f' => d == Dim::Empty,
                    '*' => true,
                    '0' => d == Dim::Zero,
                    '1' => d == Dim::One,
                    '2' => d == Dim::Two,
                    other => panic!("{other:?} is not a pattern character"),
                }
            });
            assert_eq!(m.try_matches(p), Ok(want), "{m} {p}");
            assert_eq!(m.matches(p), want, "{m} {p}");
        }
    }
}

#[test]
fn invalid_patterns_and_matrix_strings_keep_their_error_text() {
    let m: IntersectionMatrix = "212F11FF2".parse().unwrap();
    for p in CLASSIFY_PATTERNS {
        assert_eq!(m.try_matches(p), try_matches_reference(&m, p), "{p}");
    }
    let invalid = [
        "bad",
        "TTTTTTTTX",
        "",
        "TTTTTTTTTT",
        "TTTTTTTT",
        "TTTTTTTTé",
        "TTTTTTTé",
        "X*******é",
    ];
    for bad in invalid {
        let got = m.try_matches(bad);
        assert!(got.is_err(), "{bad:?}");
        assert_eq!(got, try_matches_reference(&m, bad), "{bad:?}");
    }
    for s in [
        "21210121",
        "2121012123",
        "21210121X",
        "21210121T",
        "2121*1212",
        "t12101212",
        "21210121é",
        "2121012é",
        "212101212",
        "ff2f11ff2",
    ] {
        assert_eq!(s.parse::<IntersectionMatrix>(), parse_reference(s), "{s:?}");
    }
}

#[test]
#[should_panic(expected = "invalid DE-9IM pattern")]
fn matches_panics_on_an_invalid_pattern() {
    IntersectionMatrix::empty().matches("TTTTTTTTX");
}

#[test]
fn the_stop_rule_is_sound_on_every_matrix() {
    use TopologicalRelation::*;
    let mut decided = [0u64; 9];
    for code in 0..1u32 << 18 {
        let m = matrix(code);
        for da in GEOM_DIMS {
            for db in GEOM_DIMS {
                let Some(rel) = classify_lower_bound(&m, da, db) else {
                    continue;
                };
                assert_eq!(classify(&m, da, db), rel, "{m} {da:?} {db:?}");
                for cell in 0..9 {
                    if (code >> (2 * cell)) & 3 == 3 {
                        continue;
                    }
                    let raised = matrix(code + (1 << (2 * cell)));
                    assert_eq!(
                        classify_lower_bound(&raised, da, db),
                        Some(rel),
                        "{m} raised to {raised}, {da:?} {db:?}"
                    );
                }
                // Every other relation rests on an `F` cell.
                assert!(
                    matches!(rel, Overlaps | Crosses),
                    "{m} {da:?} {db:?}: {rel}"
                );
                decided[rel as usize] += 1;
            }
        }
    }
    assert!(
        decided[Overlaps as usize] > 0 && decided[Crosses as usize] > 0,
        "{decided:?}"
    );
    // Not vacuous where the engine stops: ∂A has met B's inside and its
    // outside, and nothing else is known yet.
    use GeomDim::{Area, Line};
    let lower = |s: &str| s.parse::<IntersectionMatrix>().unwrap();
    assert_eq!(
        classify_lower_bound(&lower("2F21F12F2"), Area, Area),
        Some(Overlaps)
    );
    assert_eq!(
        classify_lower_bound(&lower("1F1FFF2F2"), Line, Area),
        Some(Crosses)
    );
}

#[test]
fn classification_commutes_with_transposition() {
    for code in 0..1u32 << 18 {
        let m = matrix(code);
        let t = m.transposed();
        for da in GEOM_DIMS {
            for db in GEOM_DIMS {
                let rel = classify(&m, da, db);
                assert_eq!(classify(&t, db, da), rel.converse(), "{m} {da:?} {db:?}");
                let lower = classify_lower_bound(&m, da, db);
                let swapped = classify_lower_bound(&t, db, da);
                assert_eq!(
                    swapped,
                    lower.map(TopologicalRelation::converse),
                    "{m} {da:?} {db:?}"
                );
            }
        }
    }
}
