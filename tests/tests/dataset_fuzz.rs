//! Seeded corpus-mutation fuzzing of the dataset parser: ~1k PRNG-mutated
//! dataset files go through `SpatialDataset::from_text`, which must return
//! `Ok` or a typed `DatasetError` — never panic — on every one of them.
//!
//! The corpus starts from a well-formed generated city, and each
//! iteration applies a random stack of mutations: byte flips, truncation,
//! duplication, splicing, digit scrambling, and injection of hostile
//! tokens (`1e400`, `nan`, stray separators). Everything derives from one
//! fixed seed, so a failure is exactly reproducible.
//!
//! The same corpus drives the binary `.gpb` format both ways: every
//! mutant the text parser *accepts* must survive a WKT → binary → WKT
//! round trip verbatim, and PRNG-corrupted binary bytes must produce a
//! typed `GpbError` — never a panic, never an unbounded allocation — and
//! the same result, error text included, as reading the layers one by
//! one. So must a layer of large stars that the decoder splits across
//! several assembly chunks, with an invalid ring in two of them.

use geopattern::{from_gpb, to_gpb, SpatialDataset};
use geopattern_geom::Geometry;
use geopattern_datagen::{generate_city, random_layer, CityConfig};
use geopattern_sdb::{GpbError, GpbReader};
use geopattern_testkit::Rng;

/// Hostile fragments spliced into the text at random positions.
const POISON: &[&str] = &[
    "1e400",
    "-1e999",
    "nan",
    "inf",
    "|",
    "||",
    ";",
    "=",
    "layer ",
    "layer x reference\n",
    "POINT (",
    "POLYGON ((",
    ")))",
    "\u{0}",
    "é",
    "\n\n",
];

fn mutate(rng: &mut Rng, base: &str) -> String {
    let mut bytes = base.as_bytes().to_vec();
    let edits = 1 + rng.below_usize(8);
    for _ in 0..edits {
        if bytes.is_empty() {
            break;
        }
        match rng.below(6) {
            // Flip a byte to something printable-ish (or not).
            0 => {
                let at = rng.below_usize(bytes.len());
                bytes[at] = (rng.below(256)) as u8;
            }
            // Truncate at a random point.
            1 => {
                let at = rng.below_usize(bytes.len());
                bytes.truncate(at);
            }
            // Duplicate a random slice.
            2 => {
                let start = rng.below_usize(bytes.len());
                let len = rng.below_usize((bytes.len() - start).min(64) + 1);
                let slice: Vec<u8> = bytes[start..start + len].to_vec();
                let at = rng.below_usize(bytes.len() + 1);
                bytes.splice(at..at, slice);
            }
            // Delete a random slice.
            3 => {
                let start = rng.below_usize(bytes.len());
                let len = rng.below_usize((bytes.len() - start).min(64) + 1);
                bytes.drain(start..start + len);
            }
            // Inject a hostile token.
            4 => {
                let token = POISON[rng.below_usize(POISON.len())];
                let at = rng.below_usize(bytes.len() + 1);
                bytes.splice(at..at, token.bytes());
            }
            // Scramble a digit (turns valid numbers into huge/odd ones).
            _ => {
                let at = rng.below_usize(bytes.len());
                if bytes[at].is_ascii_digit() {
                    bytes[at] = b'0' + (rng.below(10)) as u8;
                } else {
                    bytes[at] = b'9';
                }
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

#[test]
fn one_thousand_mutated_datasets_never_panic_the_parser() {
    let base = generate_city(&CityConfig { grid: 3, seed: 5, ..Default::default() }).to_text();
    let mut rng = Rng::seed_from_u64(0xDA7A_F422);
    let mut ok = 0usize;
    let mut rejected = 0usize;
    for i in 0..1000 {
        let mutated = mutate(&mut rng, &base);
        // The property under test: parsing either succeeds or returns a
        // typed error. A panic fails the test with `i` identifying the
        // reproducible offending input.
        match SpatialDataset::from_text(&mutated) {
            Ok(_) => ok += 1,
            Err(_) => rejected += 1,
        }
        let _ = i;
    }
    assert_eq!(ok + rejected, 1000);
    // Sanity: the corpus is not degenerate — mutations produce both
    // accepted and rejected inputs.
    assert!(rejected > 0, "every mutation parsed cleanly; corpus too tame");
}

#[test]
fn unmutated_base_still_parses() {
    let base = generate_city(&CityConfig { grid: 3, seed: 5, ..Default::default() }).to_text();
    SpatialDataset::from_text(&base).expect("pristine dataset parses");
}

#[test]
fn accepted_mutants_round_trip_through_the_binary_format() {
    // Every mutated dataset the text parser accepts is a valid dataset;
    // encoding it to `.gpb` and decoding back must reproduce the exact
    // same text serialisation (geometry normalisation is idempotent, so
    // to_text is a fixed point).
    let base = generate_city(&CityConfig { grid: 3, seed: 5, ..Default::default() }).to_text();
    let mut rng = Rng::seed_from_u64(0xB1A4_7E57);
    let mut round_tripped = 0usize;
    for i in 0..600 {
        let mutated = mutate(&mut rng, &base);
        if let Ok(ds) = SpatialDataset::from_text(&mutated) {
            let bytes = to_gpb(&ds);
            let back = from_gpb(&bytes)
                .unwrap_or_else(|e| panic!("mutant {i}: encoder output rejected: {e}"));
            assert_eq!(back.to_text(), ds.to_text(), "mutant {i}: binary round trip diverged");
            round_tripped += 1;
        }
    }
    assert!(round_tripped > 0, "no mutant parsed; corpus too hostile to test the round trip");
}

/// The serial reads `from_gpb` must agree with: `GpbReader::open`, the
/// one-reference-layer check, then `read_layer` on every layer in order.
/// A decoded dataset is rendered with `to_text`, an error with
/// `to_string`.
fn serial_reads(bytes: &[u8]) -> Result<String, String> {
    let reader = GpbReader::open(bytes).map_err(|e| e.to_string())?;
    let refs = (0..reader.num_layers()).filter(|&i| reader.is_reference(i)).count();
    if refs != 1 {
        let message = format!("expected exactly one reference layer, found {refs}");
        return Err(GpbError::ReferenceLayer(message).to_string());
    }
    let mut layers = Vec::new();
    for i in 0..reader.num_layers() {
        layers.push(reader.read_layer(i).map_err(|e| e.to_string())?);
    }
    let reference = layers.remove((0..layers.len()).position(|i| reader.is_reference(i)).unwrap());
    Ok(SpatialDataset::new(reference, layers).to_text())
}

/// Byte ranges of the layer bodies of a well-formed `.gpb` buffer.
fn layer_bodies(bytes: &[u8]) -> Vec<std::ops::Range<usize>> {
    let u32_at = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
    let mut at = 12; // magic, version and string count
    for _ in 0..u32_at(8) {
        at += 4 + u32_at(at);
    }
    let n_layers = u32_at(at);
    at += 4;
    let mut bodies = Vec::new();
    for _ in 0..n_layers {
        // Name id and reference flag, then the body length.
        let len = u64::from_le_bytes(bytes[at + 5..at + 13].try_into().unwrap()) as usize;
        at += 13 + len;
        bodies.push(at - len..at);
    }
    bodies
}

/// The grid-2, seed-7 city with two errors: every coordinate of the
/// first district polygon (layer 0) set to (1, 1), an invalid geometry,
/// and the first river's geometry tag (last layer) set to 99, an
/// unknown tag. The serial reads meet the district first.
fn city_with_an_early_geometry_and_a_late_tag_error() -> Vec<u8> {
    let ds = generate_city(&CityConfig { grid: 2, seed: 7, ..Default::default() });
    let mut bytes = to_gpb(&ds);
    let bodies = layer_bodies(&bytes);
    // A layer body ends with its coordinate count, its x column and its y
    // column; the first district's coordinates open both columns.
    let rings: Vec<usize> = ds
        .reference
        .features()
        .iter()
        .map(|f| match &f.geometry {
            Geometry::Polygon(p) if p.holes().is_empty() => p.exterior().coords().len(),
            other => panic!("districts are polygons without holes, not {other:?}"),
        })
        .collect();
    let n: usize = rings.iter().sum();
    let end = bodies[0].end;
    let count_at = end - 16 * n - 8;
    assert_eq!(u64::from_le_bytes(bytes[count_at..count_at + 8].try_into().unwrap()), n as u64);
    for column in [end - 16 * n, end - 8 * n] {
        for at in (column..column + 8 * rings[0]).step_by(8) {
            bytes[at..at + 8].copy_from_slice(&1.0f64.to_le_bytes());
        }
    }
    let river = ds.relevant.last().expect("relevant layers");
    assert_eq!(river.feature_type, "river");
    // Feature count, then the first feature's id and stored envelope.
    let tag_at = bodies[bodies.len() - 1].start + 4 + 4 + river.features()[0].id.len() + 32;
    bytes[tag_at] = 99;
    bytes
}

/// A `stars`-like dataset with bow-tie rings planted in its reference
/// layer. The layer holds 300 stars of 256 vertices, so `from_gpb` cuts
/// it into five assembly chunks of 64 stars: a chunk closes once its
/// coordinates plus its features reach 16,384. Each star at `bow_ties`
/// has its coordinates overwritten by a bow-tie with unequal lobes, its
/// four corners joined by straight runs of 64 vertices, so the ring is
/// rejected as self-intersecting.
fn stars_with_bow_ties(bow_ties: &[usize]) -> Vec<u8> {
    let (stars, vertices) = (300, 256);
    let mut rng = Rng::seed_from_u64(23);
    let reference = random_layer(&mut rng, "star", stars, vertices, 1000.0);
    let blobs = random_layer(&mut rng, "blob", 20, 16, 1000.0);
    let mut bytes = to_gpb(&SpatialDataset::new(reference, vec![blobs]));
    // The reference layer is the first; its body ends with the x and the
    // y column.
    let end = layer_bodies(&bytes)[0].end;
    let n = stars * vertices;
    let corners = [(0.0, 0.0), (4.0, 4.0), (4.0, 0.0), (0.0, 2.0)];
    for &star in bow_ties {
        for v in 0..vertices {
            let (from, to) = (corners[v / 64], corners[(v / 64 + 1) % 4]);
            let t = (v % 64) as f64 / 64.0;
            let at = 8 * (star * vertices + v);
            let x = from.0 + (to.0 - from.0) * t;
            let y = from.1 + (to.1 - from.1) * t;
            bytes[end - 16 * n + at..][..8].copy_from_slice(&x.to_le_bytes());
            bytes[end - 8 * n + at..][..8].copy_from_slice(&y.to_le_bytes());
        }
    }
    bytes
}

#[test]
fn the_first_bow_tie_across_work_sized_chunks_is_the_serial_reads_error() {
    // A real two-worker pool, as in the corruption test below.
    std::env::set_var("GEOPATTERN_THREADS", "2");
    std::env::set_var("GEOPATTERN_HOST_PARALLELISM", "2");
    // Star 70 sits in the second chunk, star 290 in the fifth.
    let late = serial_reads(&stars_with_bow_ties(&[290])).expect_err("a bow-tie is an error");
    let both = stars_with_bow_ties(&[70, 290]);
    let want = serial_reads(&both).expect_err("bow-ties are errors");
    assert!(want.starts_with("invalid geometry at byte"), "{want}");
    assert!(want.ends_with("ring intersects itself"), "{want}");
    assert_ne!(want, late, "the earlier bow-tie is the serial reads' first error");
    assert_eq!(from_gpb(&both).map(|d| d.to_text()).map_err(|e| e.to_string()), Err(want));
    assert_eq!(
        from_gpb(&stars_with_bow_ties(&[290])).map(|d| d.to_text()).map_err(|e| e.to_string()),
        Err(late)
    );
}

#[test]
fn corrupted_binary_bytes_never_panic_the_reader() {
    // Run the staged decode on a real two-worker pool, as par's tests set
    // the host width.
    std::env::set_var("GEOPATTERN_THREADS", "2");
    std::env::set_var("GEOPATTERN_HOST_PARALLELISM", "2");
    let crafted = city_with_an_early_geometry_and_a_late_tag_error();
    let want = serial_reads(&crafted).expect_err("both corruptions are errors");
    assert!(want.starts_with("invalid geometry at byte"), "{want}");
    assert_eq!(from_gpb(&crafted).map(|d| d.to_text()).map_err(|e| e.to_string()), Err(want));

    let ds = generate_city(&CityConfig { grid: 3, seed: 5, ..Default::default() });
    let pristine = to_gpb(&ds);
    from_gpb(&pristine).expect("pristine binary decodes");

    let mut rng = Rng::seed_from_u64(0x6B_B4D_B17);
    for i in 0..1000 {
        let mut bytes = pristine.clone();
        let edits = 1 + rng.below_usize(6);
        for _ in 0..edits {
            if bytes.is_empty() {
                break;
            }
            match rng.below(4) {
                // Flip a byte (corrupts magic, counts, tags, coords…).
                0 => {
                    let at = rng.below_usize(bytes.len());
                    bytes[at] = rng.below(256) as u8;
                }
                // Truncate (simulates a torn write).
                1 => {
                    let at = rng.below_usize(bytes.len());
                    bytes.truncate(at);
                }
                // Duplicate a slice (shifts every downstream offset).
                2 => {
                    let start = rng.below_usize(bytes.len());
                    let len = rng.below_usize((bytes.len() - start).min(48) + 1);
                    let slice: Vec<u8> = bytes[start..start + len].to_vec();
                    let at = rng.below_usize(bytes.len() + 1);
                    bytes.splice(at..at, slice);
                }
                // Blast a length field with 0xFF (oversized-count probe:
                // the reader must reject counts before allocating).
                _ => {
                    let at = rng.below_usize(bytes.len());
                    let end = (at + 4).min(bytes.len());
                    for b in &mut bytes[at..end] {
                        *b = 0xFF;
                    }
                }
            }
        }
        // Decoding must return Ok or a typed error, and the same one the
        // serial reads return; `i` reproduces any failure exactly. A
        // decoded dataset must also be well-formed enough to re-serialise.
        let staged = from_gpb(&bytes).map(|d| d.to_text()).map_err(|e| e.to_string());
        assert_eq!(staged, serial_reads(&bytes), "mutant {i}: from_gpb and serial reads differ");
        // The streaming per-layer path must hold the same property.
        if let Ok(reader) = GpbReader::open(&bytes) {
            for layer in 0..reader.num_layers() {
                let _ = reader.read_layer(layer);
            }
        }
    }
}

#[test]
fn v1_writer_output_reads_back_byte_identically() {
    // The writer produces version-1 bytes, and re-encoding the decoded
    // dataset reproduces the exact same byte stream (binary determinism).
    let ds = generate_city(&CityConfig { grid: 3, seed: 5, ..Default::default() });
    let v1 = to_gpb(&ds);
    let reader = GpbReader::open(&v1).expect("v1 bytes open");
    assert_eq!(reader.version(), 1);
    let back = from_gpb(&v1).expect("v1 bytes decode");
    assert_eq!(back.to_text(), ds.to_text());
    assert_eq!(to_gpb(&back), v1, "v1 encoding is not a fixed point");
}
