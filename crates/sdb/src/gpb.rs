//! The compact binary dataset format (`.gpb`).
//!
//! WKT datasets pay a heavy ingest tax at the million-feature scale the
//! tiled extractor targets: every load re-tokenises coordinate text,
//! re-parses floats and re-computes every envelope. The `.gpb` encoding
//! stores the same [`SpatialDataset`] as typed little-endian arrays:
//!
//! ```text
//! "GPB1"  u32 version            — 1
//! string table          — interned layer names and attribute keys/values,
//!                         in first-use order (deterministic output)
//! u32 layer count
//! per layer:
//!   u32 name id, u8 is_reference, u64 body length   ← directory record
//!   body:
//!     u32 feature count
//!     per feature: id bytes, envelope (4×f64), u8 geometry tag,
//!                  part/ring structure (u32 lengths), attribute id pairs
//!     u64 coord count, xs (n×f64), ys (n×f64)       ← columnar coords
//! ```
//!
//! Version 1 is the only version written or read. Version-2 files, which
//! earlier releases wrote with a quantized copy of each layer's
//! coordinates, are rejected with [`GpbError::UnsupportedVersion`];
//! regenerate them from their source.
//!
//! Because each layer's directory record carries its body length, a
//! [`GpbReader`] can open a dataset and decode **one layer at a time** —
//! or, via [`GpbReader::read_layer_window`], only the features whose
//! *stored* envelope intersects a query window — without materialising
//! anything else. That is what lets tiled extraction stream the slice of
//! a dataset one tile needs. Stored envelopes also skip the
//! envelope-recomputation pass on load (see `Layer::with_envelopes`),
//! which together with binary coordinate reads is where the load speedup
//! over WKT comes from.
//!
//! Decoding is **total**: every read is bounds-checked, preallocations
//! are capped by the bytes actually remaining, and corrupt input surfaces
//! as a typed [`GpbError`] — never a panic. Geometries go through the
//! same validating constructors as WKT parsing, so a decoded dataset
//! upholds every invariant the rest of the system assumes, and
//! WKT → `.gpb` → WKT round-trips are textually stable.

use crate::dataset::SpatialDataset;
use crate::feature::{Feature, Layer};
use crate::rtree::RTree;
use geopattern_geom::{
    coord, Coord, GeomError, Geometry, LineString, MultiLineString, MultiPoint, MultiPolygon,
    Point, Polygon, Rect, Ring,
};
use geopattern_par::{par_map, Threads};
use std::collections::HashMap;
use std::fmt;

const MAGIC: &[u8; 4] = b"GPB1";
/// The version [`to_gpb`] writes and the reader accepts.
const VERSION: u32 = 1;

const TAG_POINT: u8 = 1;
const TAG_MULTIPOINT: u8 = 2;
const TAG_LINESTRING: u8 = 3;
const TAG_MULTILINESTRING: u8 = 4;
const TAG_POLYGON: u8 = 5;
const TAG_MULTIPOLYGON: u8 = 6;

/// Errors reading the binary dataset format.
#[derive(Debug)]
pub enum GpbError {
    /// The input does not start with the `GPB1` magic.
    BadMagic,
    /// A newer (or garbage) format version.
    UnsupportedVersion(u32),
    /// The input ended before a field at `offset` could be read.
    Truncated { offset: usize },
    /// Structurally invalid content.
    Malformed { offset: usize, message: String },
    /// A decoded geometry failed validation.
    Geometry { offset: usize, source: GeomError },
    /// No (or more than one) reference layer.
    ReferenceLayer(String),
}

impl fmt::Display for GpbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GpbError::BadMagic => write!(f, "not a gpb dataset (bad magic)"),
            GpbError::UnsupportedVersion(v) => write!(f, "unsupported gpb version {v}"),
            GpbError::Truncated { offset } => write!(f, "truncated gpb input at byte {offset}"),
            GpbError::Malformed { offset, message } => {
                write!(f, "malformed gpb input at byte {offset}: {message}")
            }
            GpbError::Geometry { offset, source } => {
                write!(f, "invalid geometry at byte {offset}: {source}")
            }
            GpbError::ReferenceLayer(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for GpbError {}

// ---------------------------------------------------------------- writing

struct StringTable {
    strings: Vec<String>,
    ids: HashMap<String, u32>,
}

impl StringTable {
    fn new() -> StringTable {
        StringTable { strings: Vec::new(), ids: HashMap::new() }
    }

    /// Interns `s`, assigning ids in first-use order so the encoding is a
    /// pure function of the dataset.
    fn intern(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.ids.get(s) {
            return id;
        }
        let id = self.strings.len() as u32;
        self.strings.push(s.to_string());
        self.ids.insert(s.to_string(), id);
        id
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_rect(out: &mut Vec<u8>, r: &Rect) {
    put_f64(out, r.min.x);
    put_f64(out, r.min.y);
    put_f64(out, r.max.x);
    put_f64(out, r.max.y);
}

/// Appends one ring's structure length and coords.
fn put_ring(out: &mut Vec<u8>, ring: &Ring, xs: &mut Vec<f64>, ys: &mut Vec<f64>) {
    put_u32(out, ring.coords().len() as u32);
    for c in ring.coords() {
        xs.push(c.x);
        ys.push(c.y);
    }
}

fn put_polygon_structure(out: &mut Vec<u8>, p: &Polygon, xs: &mut Vec<f64>, ys: &mut Vec<f64>) {
    put_u32(out, 1 + p.holes().len() as u32);
    put_ring(out, p.exterior(), xs, ys);
    for h in p.holes() {
        put_ring(out, h, xs, ys);
    }
}

fn encode_layer(layer: &Layer, is_reference: bool, strings: &mut StringTable, out: &mut Vec<u8>) {
    put_u32(out, strings.intern(&layer.feature_type));
    out.push(u8::from(is_reference));

    let mut body = Vec::new();
    let mut xs: Vec<f64> = Vec::new();
    let mut ys: Vec<f64> = Vec::new();
    put_u32(&mut body, layer.len() as u32);
    for f in layer.features() {
        put_str(&mut body, &f.id);
        put_rect(&mut body, &f.envelope());
        match &f.geometry {
            Geometry::Point(p) => {
                body.push(TAG_POINT);
                xs.push(p.coord().x);
                ys.push(p.coord().y);
            }
            Geometry::MultiPoint(mp) => {
                body.push(TAG_MULTIPOINT);
                put_u32(&mut body, mp.coords().len() as u32);
                for c in mp.coords() {
                    xs.push(c.x);
                    ys.push(c.y);
                }
            }
            Geometry::LineString(ls) => {
                body.push(TAG_LINESTRING);
                put_u32(&mut body, ls.coords().len() as u32);
                for c in ls.coords() {
                    xs.push(c.x);
                    ys.push(c.y);
                }
            }
            Geometry::MultiLineString(mls) => {
                body.push(TAG_MULTILINESTRING);
                put_u32(&mut body, mls.lines().len() as u32);
                for line in mls.lines() {
                    put_u32(&mut body, line.coords().len() as u32);
                    for c in line.coords() {
                        xs.push(c.x);
                        ys.push(c.y);
                    }
                }
            }
            Geometry::Polygon(p) => {
                body.push(TAG_POLYGON);
                put_polygon_structure(&mut body, p, &mut xs, &mut ys);
            }
            Geometry::MultiPolygon(mp) => {
                body.push(TAG_MULTIPOLYGON);
                put_u32(&mut body, mp.polygons().len() as u32);
                for p in mp.polygons() {
                    put_polygon_structure(&mut body, p, &mut xs, &mut ys);
                }
            }
        }
        put_u32(&mut body, f.attributes.len() as u32);
        for (k, v) in &f.attributes {
            put_u32(&mut body, strings.intern(k));
            put_u32(&mut body, strings.intern(v));
        }
    }
    put_u64(&mut body, xs.len() as u64);
    for &x in &xs {
        put_f64(&mut body, x);
    }
    for &y in &ys {
        put_f64(&mut body, y);
    }

    put_u64(out, body.len() as u64);
    out.extend_from_slice(&body);
}

/// Serialises a dataset to the binary format and writes it to `path`
/// crash-safely: the bytes go to a temp file in the same directory, are
/// `fsync`ed, and are then `rename`d into place — a killed process never
/// leaves a truncated `.gpb` behind (see
/// [`geopattern_par::atomic_write`]).
pub fn write_gpb(path: impl AsRef<std::path::Path>, dataset: &SpatialDataset) -> std::io::Result<()> {
    geopattern_par::atomic_write(path, &to_gpb(dataset))
}

/// Serialises a dataset to the binary format (version 1).
/// Deterministic: the same dataset always produces the same bytes.
pub fn to_gpb(dataset: &SpatialDataset) -> Vec<u8> {
    let mut strings = StringTable::new();
    // Layer records are encoded first so string ids are assigned in
    // first-use order, then spliced in after the string table.
    let mut layers = Vec::new();
    put_u32(&mut layers, 1 + dataset.relevant.len() as u32);
    encode_layer(&dataset.reference, true, &mut strings, &mut layers);
    for layer in &dataset.relevant {
        encode_layer(layer, false, &mut strings, &mut layers);
    }

    let mut out = Vec::with_capacity(layers.len() + 64);
    out.extend_from_slice(MAGIC);
    put_u32(&mut out, VERSION);
    put_u32(&mut out, strings.strings.len() as u32);
    for s in &strings.strings {
        put_str(&mut out, s);
    }
    out.extend_from_slice(&layers);
    out
}

// ---------------------------------------------------------------- reading

/// A bounds-checked little-endian cursor. Every failure carries the
/// offset it happened at.
struct Cursor<'a> {
    data: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(data: &'a [u8]) -> Cursor<'a> {
        Cursor { data, at: 0 }
    }

    fn remaining(&self) -> usize {
        self.data.len() - self.at
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], GpbError> {
        if self.remaining() < n {
            return Err(GpbError::Truncated { offset: self.at });
        }
        let s = &self.data[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, GpbError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, GpbError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, GpbError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn f64(&mut self) -> Result<f64, GpbError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn str(&mut self) -> Result<&'a str, GpbError> {
        let offset = self.at;
        let len = self.u32()? as usize;
        std::str::from_utf8(self.take(len)?)
            .map_err(|_| GpbError::Malformed { offset, message: "invalid utf-8".into() })
    }

    fn rect(&mut self) -> Result<Rect, GpbError> {
        let offset = self.at;
        let (min_x, min_y) = (self.f64()?, self.f64()?);
        let (max_x, max_y) = (self.f64()?, self.f64()?);
        // Stored envelopes feed the R-tree directly (no recomputation), so
        // corrupted bytes must be rejected here, not trusted downstream.
        if !(min_x.is_finite() && min_y.is_finite() && max_x.is_finite() && max_y.is_finite())
            || min_x > max_x
            || min_y > max_y
        {
            return Err(GpbError::Malformed { offset, message: "invalid stored envelope".into() });
        }
        Ok(Rect { min: Coord::new(min_x, min_y), max: Coord::new(max_x, max_y) })
    }

    /// A count that must be payable by the remaining input at `unit` bytes
    /// per element — rejects absurd counts before any allocation.
    fn count(&mut self, unit: usize) -> Result<usize, GpbError> {
        let offset = self.at;
        let n = self.u32()? as usize;
        if n.saturating_mul(unit.max(1)) > self.remaining() {
            return Err(GpbError::Malformed {
                offset,
                message: format!("count {n} exceeds remaining input"),
            });
        }
        Ok(n)
    }
}

/// One layer's directory entry.
struct LayerEntry {
    name: u32,
    is_reference: bool,
    /// Byte range of the layer body within the input.
    body: std::ops::Range<usize>,
}

/// A streaming reader over a `.gpb` byte buffer: parses only the string
/// table and the layer directory up front, decoding layer bodies (or
/// envelope windows of them) on demand.
pub struct GpbReader<'a> {
    data: &'a [u8],
    strings: Vec<&'a str>,
    layers: Vec<LayerEntry>,
}

impl<'a> GpbReader<'a> {
    /// Opens a buffer: validates the header and indexes the layers
    /// without decoding any feature.
    pub fn open(data: &'a [u8]) -> Result<GpbReader<'a>, GpbError> {
        let mut cur = Cursor::new(data);
        if cur.take(4).map_err(|_| GpbError::BadMagic)? != MAGIC {
            return Err(GpbError::BadMagic);
        }
        let version = cur.u32()?;
        if version != VERSION {
            return Err(GpbError::UnsupportedVersion(version));
        }
        let n_strings = cur.count(4)?;
        let mut strings = Vec::with_capacity(n_strings);
        for _ in 0..n_strings {
            strings.push(cur.str()?);
        }
        let n_layers = cur.count(13)?;
        let mut layers = Vec::with_capacity(n_layers);
        for _ in 0..n_layers {
            let name = cur.u32()?;
            let offset = cur.at;
            if name as usize >= strings.len() {
                return Err(GpbError::Malformed {
                    offset,
                    message: format!("layer name id {name} out of range"),
                });
            }
            let is_reference = cur.u8()? != 0;
            let body_len = cur.u64()?;
            let start = cur.at;
            let body_len = usize::try_from(body_len)
                .ok()
                .filter(|&l| l <= cur.remaining())
                .ok_or(GpbError::Truncated { offset: start })?;
            cur.take(body_len)?;
            layers.push(LayerEntry { name, is_reference, body: start..start + body_len });
        }
        Ok(GpbReader { data, strings, layers })
    }

    /// The format version of the opened buffer: always 1, the only
    /// version [`GpbReader::open`] accepts.
    pub fn version(&self) -> u32 {
        VERSION
    }

    /// Number of layers in the dataset.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// The feature-type name of layer `i`.
    pub fn layer_name(&self, i: usize) -> &str {
        self.strings[self.layers[i].name as usize]
    }

    /// Whether layer `i` is the reference layer.
    pub fn is_reference(&self, i: usize) -> bool {
        self.layers[i].is_reference
    }

    /// Decodes layer `i` in full.
    pub fn read_layer(&self, i: usize) -> Result<Layer, GpbError> {
        self.decode_layer(i, None)
    }

    /// Decodes only the features of layer `i` whose stored envelope
    /// intersects `window` — the streaming path tiled extraction uses to
    /// load one tile's slice of a dataset.
    pub fn read_layer_window(&self, i: usize, window: &Rect) -> Result<Layer, GpbError> {
        self.decode_layer(i, Some(window))
    }

    /// Decodes the whole dataset, enforcing the one-reference-layer rule.
    ///
    /// Unlike the streaming [`GpbReader::read_layer`] path this decodes
    /// *in parallel* — feature-record passes per layer, geometry assembly
    /// over fixed chunks, spatial-index builds per layer — on the in-tree
    /// pool (serially on one worker). Chunks and layers are recombined in
    /// input order, so the result, first error included, is the serial
    /// reads' (`read_layer` on each layer in order) at any thread count.
    pub fn read_dataset(&self) -> Result<SpatialDataset, GpbError> {
        let ref_count = self.layers.iter().filter(|l| l.is_reference).count();
        if ref_count != 1 {
            return Err(GpbError::ReferenceLayer(format!(
                "expected exactly one reference layer, found {ref_count}"
            )));
        }

        // Stage 1: feature-record passes (one serial cursor per layer).
        // The serial reads stop at the first layer whose records fail.
        let indices: Vec<usize> = (0..self.num_layers()).collect();
        let mut records: Vec<PendingLayer> = Vec::with_capacity(indices.len());
        let mut record_error = None;
        for parsed in par_map(Threads::Auto, &indices, |_, &i| self.parse_layer_records(i)) {
            match parsed {
                Ok(pl) => records.push(pl),
                Err(e) => {
                    record_error = Some(e);
                    break;
                }
            }
        }

        // Stage 2: geometry assembly over fixed-size chunks of every
        // layer, flattened into one work list so a huge layer does not
        // serialise behind the others.
        const CHUNK: usize = 4096;
        let mut chunks: Vec<(usize, usize, usize)> = Vec::new();
        for (li, pl) in records.iter().enumerate() {
            let mut start = 0;
            while start < pl.pending.len() {
                let end = (start + CHUNK).min(pl.pending.len());
                chunks.push((li, start, end));
                start = end;
            }
        }
        let assembled = par_map(Threads::Auto, &chunks, |_, &(li, start, end)| {
            let pl = &records[li];
            pl.pending[start..end]
                .iter()
                .map(|p| self.assemble_one(p, pl.xs, pl.ys))
                .collect::<Result<Vec<(Feature, Rect)>, GpbError>>()
        });

        // Recombine in chunk order: the first assembly error is the serial
        // reads' first, and every layer's features stay in input order.
        // Without one, the failing layer's record error is theirs.
        let mut features: Vec<Vec<Feature>> =
            records.iter().map(|pl| Vec::with_capacity(pl.pending.len())).collect();
        let mut envelopes: Vec<Vec<Rect>> =
            records.iter().map(|pl| Vec::with_capacity(pl.pending.len())).collect();
        for (&(li, _, _), chunk) in chunks.iter().zip(assembled) {
            for (feature, envelope) in chunk? {
                features[li].push(feature);
                envelopes[li].push(envelope);
            }
        }
        if let Some(e) = record_error {
            return Err(e);
        }

        // Stage 3: spatial-index builds per layer.
        let trees: Vec<RTree> = par_map(Threads::Auto, &envelopes, |_, envs| RTree::bulk_load(envs));

        let mut reference = None;
        let mut relevant = Vec::new();
        for ((i, features), index) in (0..self.num_layers()).zip(features).zip(trees) {
            let layer = Layer::with_index(self.layer_name(i).to_string(), features, index);
            if self.is_reference(i) {
                reference = Some(layer);
            } else {
                relevant.push(layer);
            }
        }
        Ok(SpatialDataset { reference: reference.expect("checked above"), relevant })
    }

    /// First pass over layer `i`'s body: feature records (id, envelope,
    /// geometry structure, attribute ids) plus the located columnar coord
    /// arrays. Geometry assembly is deferred until the coords are located.
    fn parse_layer_records(&self, i: usize) -> Result<PendingLayer<'a>, GpbError> {
        let entry = &self.layers[i];
        let mut cur = Cursor::new(&self.data[..entry.body.end]);
        cur.at = entry.body.start;

        let n_features = cur.count(14)?;
        let mut pending: Vec<Pending> = Vec::with_capacity(n_features);
        let mut coord_at = 0usize;
        for _ in 0..n_features {
            let id = cur.str()?;
            let envelope = cur.rect()?;
            let struct_offset = cur.at;
            let structure = GeomStructure::decode(&mut cur)?;
            let n_attrs = cur.count(8)?;
            let mut attrs = Vec::with_capacity(n_attrs);
            for _ in 0..n_attrs {
                let offset = cur.at;
                let k = cur.u32()?;
                let v = cur.u32()?;
                if k as usize >= self.strings.len() || v as usize >= self.strings.len() {
                    return Err(GpbError::Malformed {
                        offset,
                        message: "attribute string id out of range".into(),
                    });
                }
                attrs.push((k, v));
            }
            let coord_start = coord_at;
            coord_at += structure.coord_count();
            pending.push(Pending { id, envelope, structure, coord_start, attrs, struct_offset });
        }

        let coords_offset = cur.at;
        let n_coords = cur.u64()?;
        if n_coords != coord_at as u64 {
            return Err(GpbError::Malformed {
                offset: coords_offset,
                message: format!(
                    "coord array holds {n_coords} coords but features need {coord_at}"
                ),
            });
        }
        let coord_bytes = coord_at
            .checked_mul(8)
            .ok_or(GpbError::Truncated { offset: coords_offset })?;
        let xs = cur.take(coord_bytes)?;
        let ys = cur.take(coord_bytes)?;
        if cur.at != entry.body.end {
            return Err(GpbError::Malformed {
                offset: cur.at,
                message: "trailing bytes after layer body".into(),
            });
        }
        Ok(PendingLayer { pending, xs, ys })
    }

    /// Assembles one pending feature from its layer's columnar coords.
    fn assemble_one(
        &self,
        p: &Pending<'a>,
        xs: &[u8],
        ys: &[u8],
    ) -> Result<(Feature, Rect), GpbError> {
        let src = CoordSrc { xs, ys, base: p.coord_start };
        let geometry = p
            .structure
            .assemble(&src)
            .map_err(|source| GpbError::Geometry { offset: p.struct_offset, source })?;
        let mut feature = Feature::new(p.id, geometry);
        for &(k, v) in &p.attrs {
            feature
                .attributes
                .insert(self.strings[k as usize].to_string(), self.strings[v as usize].to_string());
        }
        Ok((feature, p.envelope))
    }

    fn decode_layer(&self, i: usize, window: Option<&Rect>) -> Result<Layer, GpbError> {
        let pl = self.parse_layer_records(i)?;
        // Full reads keep every feature; windowed reads keep a subset, and
        // the full capacity is at worst a transient over-reservation.
        let mut features = Vec::with_capacity(pl.pending.len());
        let mut envelopes = Vec::with_capacity(pl.pending.len());
        for p in &pl.pending {
            if let Some(w) = window {
                if !w.intersects(&p.envelope) {
                    continue;
                }
            }
            let (feature, envelope) = self.assemble_one(p, pl.xs, pl.ys)?;
            envelopes.push(envelope);
            features.push(feature);
        }
        Ok(Layer::with_envelopes(self.layer_name(i).to_string(), features, &envelopes))
    }
}

/// One feature record awaiting geometry assembly.
struct Pending<'a> {
    id: &'a str,
    envelope: Rect,
    structure: GeomStructure,
    coord_start: usize,
    attrs: Vec<(u32, u32)>,
    struct_offset: usize,
}

/// One layer's parsed feature records plus its located coord arrays.
struct PendingLayer<'a> {
    pending: Vec<Pending<'a>>,
    xs: &'a [u8],
    ys: &'a [u8],
}

/// One geometry's view of its layer's columnar coord arrays: slot `k` is
/// coord `base + k`. Reads are statically dispatched and a lone [`Point`]
/// never allocates an intermediate coord buffer — assembly cost for the
/// point-dominated layers of a city dataset is the per-feature floor, not
/// the decoder.
struct CoordSrc<'b> {
    xs: &'b [u8],
    ys: &'b [u8],
    base: usize,
}

impl CoordSrc<'_> {
    #[inline]
    fn get(&self, k: usize) -> Coord {
        let i = (self.base + k) * 8;
        coord(
            f64::from_le_bytes(self.xs[i..i + 8].try_into().expect("8 bytes")),
            f64::from_le_bytes(self.ys[i..i + 8].try_into().expect("8 bytes")),
        )
    }

    fn take(&self, range: std::ops::Range<usize>) -> Vec<Coord> {
        range.map(|k| self.get(k)).collect()
    }
}

/// The part/ring structure of one encoded geometry: everything needed to
/// slice its coords back out of the columnar arrays.
enum GeomStructure {
    Point,
    MultiPoint(usize),
    LineString(usize),
    MultiLineString(Vec<usize>),
    Polygon(Vec<usize>),
    MultiPolygon(Vec<Vec<usize>>),
}

impl GeomStructure {
    fn decode(cur: &mut Cursor<'_>) -> Result<GeomStructure, GpbError> {
        let offset = cur.at;
        let tag = cur.u8()?;
        // Each coordinate costs at least 16 payload bytes, so counts are
        // validated against the remaining input before any allocation.
        let ring_lens = |cur: &mut Cursor<'_>| -> Result<Vec<usize>, GpbError> {
            let n_rings = cur.count(4)?;
            (0..n_rings).map(|_| cur.count(16)).collect()
        };
        Ok(match tag {
            TAG_POINT => GeomStructure::Point,
            TAG_MULTIPOINT => GeomStructure::MultiPoint(cur.count(16)?),
            TAG_LINESTRING => GeomStructure::LineString(cur.count(16)?),
            TAG_MULTILINESTRING => {
                let n = cur.count(4)?;
                GeomStructure::MultiLineString(
                    (0..n).map(|_| cur.count(16)).collect::<Result<_, _>>()?,
                )
            }
            TAG_POLYGON => GeomStructure::Polygon(ring_lens(cur)?),
            TAG_MULTIPOLYGON => {
                let n = cur.count(4)?;
                GeomStructure::MultiPolygon(
                    (0..n).map(|_| ring_lens(cur)).collect::<Result<_, _>>()?,
                )
            }
            other => {
                return Err(GpbError::Malformed {
                    offset,
                    message: format!("unknown geometry tag {other}"),
                })
            }
        })
    }

    fn coord_count(&self) -> usize {
        match self {
            GeomStructure::Point => 1,
            GeomStructure::MultiPoint(n) | GeomStructure::LineString(n) => *n,
            GeomStructure::MultiLineString(parts) => parts.iter().sum(),
            GeomStructure::Polygon(rings) => rings.iter().sum(),
            GeomStructure::MultiPolygon(polys) => {
                polys.iter().map(|rings| rings.iter().sum::<usize>()).sum()
            }
        }
    }

    /// Rebuilds the geometry through the validating constructors, reading
    /// this geometry's coord slots from `src`.
    fn assemble(&self, src: &CoordSrc<'_>) -> Result<Geometry, GeomError> {
        Ok(match self {
            GeomStructure::Point => Point::new(src.get(0))?.into(),
            GeomStructure::MultiPoint(n) => MultiPoint::new(src.take(0..*n))?.into(),
            GeomStructure::LineString(n) => LineString::new(src.take(0..*n))?.into(),
            GeomStructure::MultiLineString(parts) => {
                let mut at = 0;
                let mut lines = Vec::with_capacity(parts.len());
                for &len in parts {
                    lines.push(LineString::new(src.take(at..at + len))?);
                    at += len;
                }
                MultiLineString::new(lines)?.into()
            }
            GeomStructure::Polygon(ring_lens) => {
                assemble_polygon(ring_lens, 0, src)?.into()
            }
            GeomStructure::MultiPolygon(polys) => {
                let mut at = 0;
                let mut out = Vec::with_capacity(polys.len());
                for ring_lens in polys {
                    out.push(assemble_polygon(ring_lens, at, src)?);
                    at += ring_lens.iter().sum::<usize>();
                }
                MultiPolygon::new(out)?.into()
            }
        })
    }
}

fn assemble_polygon(
    ring_lens: &[usize],
    start: usize,
    src: &CoordSrc<'_>,
) -> Result<Polygon, GeomError> {
    if ring_lens.is_empty() {
        // A polygon with no rings cannot exist; reuse the constructor's
        // too-few-points error shape.
        return Err(GeomError::TooFewPoints { expected: 3, got: 0 });
    }
    let mut at = start;
    let mut rings = Vec::with_capacity(ring_lens.len());
    for &len in ring_lens {
        rings.push(Ring::new(src.take(at..at + len))?);
        at += len;
    }
    let exterior = rings.remove(0);
    Polygon::new(exterior, rings)
}

/// Decodes a complete dataset from `.gpb` bytes.
pub fn from_gpb(data: &[u8]) -> Result<SpatialDataset, GpbError> {
    GpbReader::open(data)?.read_dataset()
}

#[cfg(test)]
mod tests {
    use super::*;
    use geopattern_geom::from_wkt;

    fn sample() -> SpatialDataset {
        let wkts = [
            ("p", "POINT (3 4)"),
            ("mp", "MULTIPOINT ((1 1), (2 3), (0 0))"),
            ("ls", "LINESTRING (0 0, 5 5, 10 0)"),
            ("mls", "MULTILINESTRING ((0 0, 1 1), (2 2, 3 3, 4 2))"),
            (
                "poly",
                "POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0), (2 2, 4 2, 4 4, 2 4, 2 2))",
            ),
            (
                "mpoly",
                "MULTIPOLYGON (((0 0, 1 0, 1 1, 0 1, 0 0)), ((5 5, 7 5, 7 7, 5 7, 5 5)))",
            ),
        ];
        let reference = Layer::new(
            "district",
            vec![Feature::new("D1", from_wkt("POLYGON ((0 0, 20 0, 20 20, 0 20, 0 0))").unwrap())
                .with_attribute("murderRate", "high")
                .with_attribute("zone", "north")],
        );
        let zoo = Layer::new(
            "zoo",
            wkts.iter().map(|(id, wkt)| Feature::new(*id, from_wkt(wkt).unwrap())).collect(),
        );
        SpatialDataset::new(reference, vec![zoo])
    }

    #[test]
    fn round_trip_all_geometry_classes() {
        let ds = sample();
        let bytes = to_gpb(&ds);
        let back = from_gpb(&bytes).unwrap();
        // Textual round-trip stability is the strongest equality the text
        // format itself guarantees.
        assert_eq!(back.to_text(), ds.to_text());
        // And the encoding is deterministic.
        assert_eq!(to_gpb(&back), bytes);
    }

    #[test]
    fn reader_streams_single_layers() {
        let ds = sample();
        let bytes = to_gpb(&ds);
        let reader = GpbReader::open(&bytes).unwrap();
        assert_eq!(reader.num_layers(), 2);
        assert_eq!(reader.layer_name(0), "district");
        assert!(reader.is_reference(0));
        assert_eq!(reader.layer_name(1), "zoo");
        assert!(!reader.is_reference(1));
        let zoo = reader.read_layer(1).unwrap();
        assert_eq!(zoo.len(), 6);
        assert_eq!(zoo.features()[0].id, "p");
    }

    #[test]
    fn windowed_read_filters_by_stored_envelope() {
        let ds = sample();
        let bytes = to_gpb(&ds);
        let reader = GpbReader::open(&bytes).unwrap();
        let window = Rect::new(coord(2.5, 3.5), coord(3.5, 4.5));
        let zoo = reader.read_layer_window(1, &window).unwrap();
        let ids: Vec<&str> = zoo.features().iter().map(|f| f.id.as_str()).collect();
        // POINT (3 4) and the envelopes spanning the window survive; the
        // multipoint (max (2,3)) and multilinestring (max (4,3)) sit
        // entirely below it.
        assert_eq!(ids, vec!["p", "ls", "poly", "mpoly"]);
        // The filtered layer's index is consistent with its features:
        // every surviving envelope still covers the query point.
        assert_eq!(
            zoo.query_envelope(&Rect::new(coord(2.9, 3.9), coord(3.1, 4.1))),
            vec![0, 1, 2, 3]
        );
    }

    #[test]
    fn header_errors_are_typed() {
        assert!(matches!(from_gpb(b"nope"), Err(GpbError::BadMagic)));
        assert!(matches!(from_gpb(b""), Err(GpbError::BadMagic)));
        let mut v = to_gpb(&sample());
        v[4] = 9; // bump the version field
        assert!(matches!(from_gpb(&v), Err(GpbError::UnsupportedVersion(9))));
    }

    #[test]
    fn truncation_anywhere_is_an_error_never_a_panic() {
        let bytes = to_gpb(&sample());
        for len in 0..bytes.len() {
            assert!(from_gpb(&bytes[..len]).is_err(), "prefix of {len} bytes decoded");
        }
    }

    #[test]
    fn corrupt_counts_are_rejected_before_allocation() {
        let ds = sample();
        let bytes = to_gpb(&ds);
        // Flip every byte position in turn; decoding must never panic,
        // and any accidental success must still be a coherent dataset.
        for i in 0..bytes.len() {
            let mut v = bytes.clone();
            v[i] ^= 0xff;
            if let Ok(ds) = from_gpb(&v) {
                assert!(ds.reference.len() <= 1);
            }
        }
    }

    fn version_of(bytes: &[u8]) -> u32 {
        u32::from_le_bytes(bytes[4..8].try_into().unwrap())
    }

    #[test]
    fn v1_writer_is_version_1_and_reads_identically() {
        let ds = sample();
        let v1 = to_gpb(&ds);
        assert_eq!(version_of(&v1), 1);
        assert_eq!(GpbReader::open(&v1).unwrap().version(), 1);
        assert_eq!(from_gpb(&v1).unwrap().to_text(), ds.to_text());
    }

    #[test]
    fn version_2_is_rejected_not_read() {
        let mut v = to_gpb(&sample());
        v[4..8].copy_from_slice(&2u32.to_le_bytes());
        assert!(matches!(from_gpb(&v), Err(GpbError::UnsupportedVersion(2))));
        assert!(matches!(GpbReader::open(&v), Err(GpbError::UnsupportedVersion(2))));
        assert_eq!(GpbError::UnsupportedVersion(2).to_string(), "unsupported gpb version 2");
    }
}
