//! The dimensionally-extended 9-intersection matrix (DE-9IM).
//!
//! Egenhofer & Franzosa's 9-intersection model [10 in the paper] describes
//! the topological relationship between two geometries `A` and `B` by the
//! dimension of the intersections of their interiors (`I`), boundaries
//! (`B`) and exteriors (`E`):
//!
//! ```text
//!             I(B)      B(B)      E(B)
//! I(A)   dim(I∩I)  dim(I∩B)  dim(I∩E)
//! B(A)   dim(B∩I)  dim(B∩B)  dim(B∩E)
//! E(A)   dim(E∩I)  dim(E∩B)  dim(E∩E)
//! ```
//!
//! Patterns compile to bit masks over the nine cells taken row-major
//! (bit `3 * row + col`). [`Pattern::new`] is a `const fn`, so a fixed
//! pattern is parsed at compile time, and [`IntersectionMatrix::words`]
//! turns a matrix into [`CellWords`] once for any number of pattern
//! tests. Neither allocates.

use std::fmt;
use std::str::FromStr;

/// Dimension of a point-set intersection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Dim {
    /// The intersection is empty (`F` in DE-9IM notation).
    Empty,
    /// The intersection contains only isolated points (`0`).
    Zero,
    /// The intersection contains a curve (`1`).
    One,
    /// The intersection contains an areal patch (`2`).
    Two,
}

impl Dim {
    /// DE-9IM character for this dimension.
    pub fn to_char(self) -> char {
        match self {
            Dim::Empty => 'F',
            Dim::Zero => '0',
            Dim::One => '1',
            Dim::Two => '2',
        }
    }

    /// True when the intersection is non-empty.
    #[inline]
    pub fn is_true(self) -> bool {
        self != Dim::Empty
    }

    /// The larger of two dimensions (used to accumulate evidence).
    #[inline]
    pub fn max(self, other: Dim) -> Dim {
        if self >= other {
            self
        } else {
            other
        }
    }
}

/// Index into the matrix: which part of the geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Part {
    Interior = 0,
    Boundary = 1,
    Exterior = 2,
}

/// A DE-9IM matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IntersectionMatrix {
    cells: [[Dim; 3]; 3],
}

impl IntersectionMatrix {
    /// The all-`F` matrix (nothing intersects — impossible for real
    /// geometries whose exteriors always meet, used as a builder seed).
    pub fn empty() -> IntersectionMatrix {
        IntersectionMatrix { cells: [[Dim::Empty; 3]; 3] }
    }

    /// Reads a cell.
    #[inline]
    pub fn get(&self, a: Part, b: Part) -> Dim {
        self.cells[a as usize][b as usize]
    }

    /// Writes a cell.
    #[inline]
    pub fn set(&mut self, a: Part, b: Part, d: Dim) {
        self.cells[a as usize][b as usize] = d;
    }

    /// Raises a cell to at least `d` (never lowers it).
    #[inline]
    pub fn raise(&mut self, a: Part, b: Part, d: Dim) {
        let cur = self.get(a, b);
        self.set(a, b, cur.max(d));
    }

    /// The matrix of the converse relation: `relate(B, A)`.
    pub fn transposed(&self) -> IntersectionMatrix {
        let mut t = IntersectionMatrix::empty();
        for i in 0..3 {
            for j in 0..3 {
                t.cells[j][i] = self.cells[i][j];
            }
        }
        t
    }

    /// The cells as bit words, for testing compiled [`Pattern`]s.
    pub fn words(&self) -> CellWords {
        let mut by_dim = [0u16; 4];
        let mut bit = 1;
        for row in &self.cells {
            for &d in row {
                by_dim[d as usize] |= bit;
                bit <<= 1;
            }
        }
        CellWords { by_dim }
    }

    /// Matches the matrix against a DE-9IM pattern string.
    ///
    /// Pattern characters: `T` (non-empty), `F` (empty), `*` (any),
    /// `0`/`1`/`2` (exact dimension). Panics if the pattern is not 9 valid
    /// characters; use [`IntersectionMatrix::try_matches`] for fallible
    /// matching, or a `const` [`Pattern`] to parse a fixed pattern once.
    pub fn matches(&self, pattern: &str) -> bool {
        self.try_matches(pattern).expect("invalid DE-9IM pattern")
    }

    /// Fallible version of [`IntersectionMatrix::matches`].
    pub fn try_matches(&self, pattern: &str) -> Result<bool, String> {
        match parse_cells(pattern, false) {
            Ok(p) => Ok(self.words().matches(p)),
            Err(CellError::Length(n)) => Err(format!("pattern must have 9 characters, got {n}")),
            Err(CellError::Char(at)) => {
                Err(format!("invalid pattern character {:?}", char_at(pattern, at)))
            }
        }
    }
}

/// A DE-9IM pattern compiled to bit masks over the nine row-major cells
/// (bit `3 * row + col`): one mask for `T`, and one per exact dimension,
/// `F` (empty), `0`, `1` and `2`. A `*` cell sets no bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Pattern {
    /// `T` cells: the intersection is non-empty.
    nonempty: u16,
    /// `F`/`0`/`1`/`2` cells, indexed by [`Dim`] (`F` is [`Dim::Empty`]).
    exact: [u16; 4],
}

impl Pattern {
    /// Compiles a pattern (the characters of
    /// [`IntersectionMatrix::matches`]). An invalid pattern in a `const`
    /// item fails the build; at run time it panics.
    pub const fn new(pattern: &str) -> Pattern {
        match parse_cells(pattern, false) {
            Ok(p) => p,
            Err(_) => panic!("invalid DE-9IM pattern"),
        }
    }
}

/// A matrix's cells as bit words: bit `3 * row + col` of `by_dim[d]` is
/// set when that cell has dimension `d` ([`Dim`] order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CellWords {
    by_dim: [u16; 4],
}

impl CellWords {
    /// True when the matrix matches the compiled pattern.
    #[inline]
    pub const fn matches(self, p: Pattern) -> bool {
        let [empty, zero, one, two] = self.by_dim;
        let [f, d0, d1, d2] = p.exact;
        p.nonempty & empty == 0
            && f & !empty == 0
            && d0 & !zero == 0
            && d1 & !one == 0
            && d2 & !two == 0
    }

    /// The pattern test on a *lower bound* of a matrix, whose cells may
    /// still rise but never fall, as far as the bound settles it:
    /// `Some(true)` when every completion matches (the `T` and `2` cells
    /// match already and there is no `F`, `0` or `1` cell, the cells a rise
    /// could break), `Some(false)` when none does (an `F` cell is non-empty
    /// already, or an exact cell is above its digit), `None` otherwise.
    #[inline]
    pub(crate) const fn settled(self, p: Pattern) -> Option<bool> {
        let [empty, _, one, two] = self.by_dim;
        let [f, d0, d1, _] = p.exact;
        if f & !empty != 0 || d0 & (one | two) != 0 || d1 & two != 0 {
            Some(false)
        } else if f | d0 | d1 == 0 && self.matches(p) {
            Some(true)
        } else {
            None
        }
    }
}

/// Why a nine-cell DE-9IM string did not parse.
#[derive(Debug, Clone, Copy)]
enum CellError {
    /// The string does not have 9 characters; it has this many.
    Length(usize),
    /// An invalid character starts at this byte offset.
    Char(usize),
}

/// The one nine-cell parser, behind [`Pattern`] and
/// [`IntersectionMatrix`]'s `FromStr`. Cells are row-major; a pattern
/// admits `T`/`t`, `F`/`f`, `*`, `0`, `1` and `2`, a matrix string
/// (`exact`) only `F`/`f`, `0`, `1` and `2`. The length is counted in
/// characters and checked before any character.
const fn parse_cells(s: &str, exact: bool) -> Result<Pattern, CellError> {
    let bytes = s.as_bytes();
    // Characters are UTF-8 lead bytes, so the count is `s.chars().count()`.
    let mut chars = 0;
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] & 0xC0 != 0x80 {
            chars += 1;
        }
        i += 1;
    }
    if chars != 9 {
        return Err(CellError::Length(chars));
    }
    // Every valid character is ASCII, so up to the first invalid one the
    // byte offset is the cell index.
    let mut p = Pattern { nonempty: 0, exact: [0; 4] };
    let mut i = 0;
    while i < bytes.len() {
        let bit = 1 << i;
        match bytes[i] {
            b'T' | b't' if !exact => p.nonempty |= bit,
            b'*' if !exact => {}
            b'F' | b'f' => p.exact[Dim::Empty as usize] |= bit,
            b'0' => p.exact[Dim::Zero as usize] |= bit,
            b'1' => p.exact[Dim::One as usize] |= bit,
            b'2' => p.exact[Dim::Two as usize] |= bit,
            _ => return Err(CellError::Char(i)),
        }
        i += 1;
    }
    Ok(p)
}

/// The character starting at byte offset `at` of `s`.
fn char_at(s: &str, at: usize) -> char {
    s[at..].chars().next().expect("offset of a parsed character")
}

impl fmt::Display for IntersectionMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for row in &self.cells {
            for d in row {
                write!(f, "{}", d.to_char())?;
            }
        }
        Ok(())
    }
}

impl FromStr for IntersectionMatrix {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let p = match parse_cells(s, true) {
            Ok(p) => p,
            Err(CellError::Length(n)) => {
                return Err(format!("matrix string must have 9 characters, got {n}"))
            }
            Err(CellError::Char(at)) => {
                return Err(format!("invalid matrix character {:?}", char_at(s, at)))
            }
        };
        let mut m = IntersectionMatrix::empty();
        for (idx, cell) in m.cells.iter_mut().flatten().enumerate() {
            for d in [Dim::Zero, Dim::One, Dim::Two] {
                if p.exact[d as usize] & (1 << idx) != 0 {
                    *cell = d;
                }
            }
        }
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_display_parse() {
        let m: IntersectionMatrix = "212101212".parse().unwrap();
        assert_eq!(m.to_string(), "212101212");
        assert_eq!(m.get(Part::Interior, Part::Interior), Dim::Two);
        assert_eq!(m.get(Part::Boundary, Part::Boundary), Dim::Zero);
        assert_eq!(m.get(Part::Exterior, Part::Exterior), Dim::Two);
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!("21210121".parse::<IntersectionMatrix>().is_err());
        assert!("2121012123".parse::<IntersectionMatrix>().is_err());
        assert!("21210121X".parse::<IntersectionMatrix>().is_err());
    }

    #[test]
    fn pattern_matching() {
        let m: IntersectionMatrix = "212F11FF2".parse().unwrap();
        assert!(!m.matches("T*T***T**"));
        assert!(m.matches("T********"));
        assert!(m.matches("212F11FF2"));
        assert!(m.matches("*********"));
        assert!(m.matches("TTTF11FFT"));
        assert!(!m.matches("F********"));
        assert!(m.try_matches("bad").is_err());
        assert!(m.try_matches("TTTTTTTTX").is_err());
    }

    #[test]
    fn compiled_patterns_match_like_strings() {
        const COVERS: Pattern = Pattern::new("T*****FF*");
        let m: IntersectionMatrix = "212F11FF2".parse().unwrap();
        assert!(m.words().matches(COVERS));
        for p in ["T*T***T**", "T********", "212F11FF2", "TTTF11FFT", "F********", "t*f*tF**f"] {
            assert_eq!(m.words().matches(Pattern::new(p)), m.matches(p), "{p}");
        }
    }

    #[test]
    fn transpose_is_involutive() {
        let m: IntersectionMatrix = "012F1F2F0".parse().unwrap();
        let t = m.transposed();
        assert_eq!(t.get(Part::Interior, Part::Boundary), m.get(Part::Boundary, Part::Interior));
        assert_eq!(t.transposed(), m);
    }

    #[test]
    fn raise_never_lowers() {
        let mut m = IntersectionMatrix::empty();
        m.raise(Part::Interior, Part::Interior, Dim::One);
        m.raise(Part::Interior, Part::Interior, Dim::Zero);
        assert_eq!(m.get(Part::Interior, Part::Interior), Dim::One);
        m.raise(Part::Interior, Part::Interior, Dim::Two);
        assert_eq!(m.get(Part::Interior, Part::Interior), Dim::Two);
    }

    #[test]
    fn dim_ordering() {
        assert!(Dim::Empty < Dim::Zero && Dim::Zero < Dim::One && Dim::One < Dim::Two);
        assert_eq!(Dim::One.max(Dim::Zero), Dim::One);
        assert!(!Dim::Empty.is_true());
        assert!(Dim::Zero.is_true());
    }
}
