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
//! typed `GpbError` — never a panic, never an unbounded allocation.

use geopattern::{from_gpb, to_gpb, SpatialDataset};
use geopattern_datagen::{generate_city, CityConfig};
use geopattern_sdb::GpbReader;
use geopattern_testkit::Rng;

/// A version-2 `.gpb` file (quantized columns included) written by an
/// earlier release's `to_gpb` from `generate_city` at grid 2, seed 7.
const FIXTURE_V2: &[u8] = include_bytes!("../../crates/sdb/testdata/city_grid2_seed7_v2.gpb");

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

#[test]
fn corrupted_binary_bytes_never_panic_the_reader() {
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
        // Decoding must return Ok or a typed error; `i` reproduces any
        // failure exactly. A decoded dataset must also be well-formed
        // enough to re-serialise.
        if let Ok(decoded) = from_gpb(&bytes) {
            let _ = decoded.to_text();
        }
        // The streaming per-layer path must hold the same property.
        if let Ok(reader) = GpbReader::open(&bytes) {
            for layer in 0..reader.num_layers() {
                let _ = reader.read_layer(layer);
            }
        }
        let _ = i;
    }
}

#[test]
fn corrupted_quant_sections_never_panic_the_reader() {
    // Target the version-2 tail of each layer specifically: the quantizer
    // header (three f64s after the has-quant flag) and the two i32 delta
    // columns. Random stomps over the back half of the payload land there
    // far more often than whole-file mutation does.
    let pristine = FIXTURE_V2.to_vec();
    let mut rng = Rng::seed_from_u64(0x0_4A17_B10C);
    for i in 0..400 {
        let mut bytes = pristine.clone();
        let tail = bytes.len() / 2;
        for _ in 0..1 + rng.below_usize(4) {
            let at = tail + rng.below_usize(bytes.len() - tail);
            match rng.below(3) {
                // Out-of-range delta / absurd header float.
                0 => {
                    let end = (at + 4).min(bytes.len());
                    for b in &mut bytes[at..end] {
                        *b = 0xFF;
                    }
                }
                // Zero run (cell = 0.0 headers, stuck deltas).
                1 => {
                    let end = (at + 8).min(bytes.len());
                    for b in &mut bytes[at..end] {
                        *b = 0;
                    }
                }
                // Single-byte flip.
                _ => bytes[at] = rng.below(256) as u8,
            }
        }
        // Ok or a typed GpbError, through both read paths; a decoded
        // dataset must be well-formed enough to re-serialise.
        if let Ok(decoded) = from_gpb(&bytes) {
            let _ = to_gpb(&decoded);
        }
        if let Ok(reader) = GpbReader::open(&bytes) {
            for layer in 0..reader.num_layers() {
                let _ = reader.read_layer(layer);
            }
        }
        let _ = i;
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

#[test]
fn v2_fixture_decodes_to_the_regenerated_city() {
    // Files written before the writer dropped the quantized column still
    // load: the committed v2 bytes decode to the dataset the generator
    // reproduces today, and re-encode to today's version-1 bytes.
    let reader = GpbReader::open(FIXTURE_V2).expect("v2 fixture opens");
    assert_eq!(reader.version(), 2);
    let back = from_gpb(FIXTURE_V2).expect("v2 fixture decodes");
    let city = generate_city(&CityConfig { grid: 2, seed: 7, ..Default::default() });
    assert_eq!(back.to_text(), city.to_text());
    assert_eq!(to_gpb(&back), to_gpb(&city), "v2 fixture re-encodes to different v1 bytes");
}
