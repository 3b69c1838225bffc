//! Durable on-disk job journal: the one checkpoint mechanism for sharded
//! work.
//!
//! A [`Journal`] is an append-only file of checksummed records, each
//! identifying one completed unit of work — a tile, a lattice level, an
//! equivalence class — by a `(kind, shard)` key plus an opaque payload
//! (the unit's result, encoded by the owning stage). Work sites append a
//! record the moment a unit finishes; on restart the same sites consult
//! the journal and reload finished units instead of recomputing them.
//!
//! Durability contract:
//!
//! * **Atomic creation.** The header (magic + job fingerprint) is
//!   committed via temp-file + `fsync` + `rename`, so a journal either
//!   exists with a valid header or not at all.
//! * **Append-only, checksummed frames.** Every record is length-prefixed
//!   and carries an FNV-1a 64 checksum of its body; appends are flushed
//!   and `sync_data`ed before [`Journal::append`] returns, so a record is
//!   durable by the time its caller observes success.
//! * **Corrupt-tail truncation.** A crash mid-append can leave a torn
//!   final frame. [`Journal::open`] scans the file and truncates at the
//!   first frame that is short, oversized or fails its checksum — every
//!   record before the tear survives, and the journal is immediately
//!   writable again. Corruption never panics and never surfaces records
//!   whose checksum does not match.
//! * **Fingerprint guard.** The 64-bit fingerprint stored in the header
//!   identifies the job configuration that produced the journal; opening
//!   with a different fingerprint fails rather than resuming into a run
//!   whose parameters changed (which would silently corrupt the output).
//!
//! Records with the same `(kind, shard)` key may legally appear more than
//! once (a crash between the append and the caller observing it, then a
//! re-run of the same unit); the last occurrence wins. Payloads are
//! opaque bytes here — the domain codecs live with the stages that own
//! them, and build on the one little-endian payload primitive set below
//! ([`put_u32`], [`put_u64`], [`Reader`]).
//!
//! [`atomic_write`] is the standalone half of the same discipline: a
//! whole-file write that is all-or-nothing under kill, used for final
//! artifacts (datasets, benchmark JSON) rather than incremental state.

use std::collections::BTreeMap;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Journal file magic: identifies the format, versioned by the trailing
/// digit.
const MAGIC: &[u8; 8] = b"GPJRNL1\0";

/// Header length: magic plus the 8-byte little-endian job fingerprint.
const HEADER_LEN: u64 = 16;

/// Frame prefix length: 4-byte body length plus 8-byte body checksum.
const FRAME_PREFIX: usize = 12;

/// Upper bound on a single record body. A corrupt length prefix must not
/// drive a multi-gigabyte allocation; real payloads (tile rows, lattice
/// levels) are far below this.
const MAX_BODY: u32 = 1 << 30;

/// FNV-1a 64-bit hash — the journal's frame checksum and the fingerprint
/// hash for job configurations. In-tree (the build is offline); not
/// cryptographic, which is fine: the adversary is a torn write, not an
/// attacker.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Appends a `u32` little-endian to a journal payload.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64` little-endian to a journal payload.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// A bounds-checked little-endian reader over a journal payload. Every
/// `take_*` returns `None` past the end instead of panicking, so a corrupt
/// payload degrades to "recompute this unit".
pub struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, at: 0 }
    }

    /// Whether every byte has been consumed (decoders check this so a
    /// payload with trailing garbage is rejected, not silently accepted).
    pub fn done(&self) -> bool {
        self.at == self.buf.len()
    }

    /// The next byte.
    pub fn take_u8(&mut self) -> Option<u8> {
        let b = *self.buf.get(self.at)?;
        self.at += 1;
        Some(b)
    }

    /// The next little-endian `u32`.
    pub fn take_u32(&mut self) -> Option<u32> {
        let bytes = self.buf.get(self.at..self.at + 4)?;
        self.at += 4;
        Some(u32::from_le_bytes(bytes.try_into().expect("a 4-byte slice")))
    }

    /// The next little-endian `u64`.
    pub fn take_u64(&mut self) -> Option<u64> {
        let bytes = self.buf.get(self.at..self.at + 8)?;
        self.at += 8;
        Some(u64::from_le_bytes(bytes.try_into().expect("an 8-byte slice")))
    }
}

/// Monotonic discriminator for temp-file names, so concurrent
/// [`atomic_write`]s in one process never collide.
static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Writes `bytes` to `path` atomically: the content goes to a temp file
/// in the same directory, is `fsync`ed, and is then `rename`d over the
/// destination. A process killed at any point leaves either the old file
/// or the new one — never a truncated hybrid.
pub fn atomic_write(path: impl AsRef<Path>, bytes: &[u8]) -> io::Result<()> {
    let path = path.as_ref();
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    };
    let name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "atomic_write: path has no file name"))?;
    let seq = TEMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let tmp = dir.join(format!(
        ".{}.tmp.{}.{}",
        name.to_string_lossy(),
        std::process::id(),
        seq
    ));
    let result = (|| {
        let mut file = File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        drop(file);
        fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result?;
    // Make the rename itself durable. Directory fsync is best-effort: it
    // can fail on filesystems that refuse to sync directories, and the
    // rename is already atomic for crash-consistency of the *content*.
    if let Ok(d) = File::open(&dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// One decoded journal record.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Record {
    kind: String,
    shard: u64,
    payload: Vec<u8>,
}

struct Inner {
    file: File,
    path: PathBuf,
    /// Bytes of valid journal on disk (header + intact frames).
    bytes: u64,
    /// Last-wins index of every intact record.
    records: BTreeMap<(String, u64), Vec<u8>>,
}

/// A durable, append-only completion journal shared across the worker
/// threads of a job. Cheap to clone (clones share the same file and
/// index). See the [module docs](self) for the format and the
/// durability contract.
#[derive(Clone)]
pub struct Journal {
    inner: Arc<Mutex<Inner>>,
}

impl fmt::Debug for Journal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.lock().unwrap();
        f.debug_struct("Journal")
            .field("path", &inner.path)
            .field("records", &inner.records.len())
            .field("bytes", &inner.bytes)
            .finish()
    }
}

impl Journal {
    /// Creates a fresh journal at `path` for a job with the given
    /// fingerprint, replacing any existing file. The header is committed
    /// atomically (temp file + fsync + rename) so a kill during creation
    /// leaves either the old journal or a valid empty one.
    pub fn create(path: impl AsRef<Path>, fingerprint: u64) -> io::Result<Journal> {
        let path = path.as_ref();
        let mut header = Vec::with_capacity(HEADER_LEN as usize);
        header.extend_from_slice(MAGIC);
        header.extend_from_slice(&fingerprint.to_le_bytes());
        atomic_write(path, &header)?;
        let file = OpenOptions::new().append(true).open(path)?;
        Ok(Journal {
            inner: Arc::new(Mutex::new(Inner {
                file,
                path: path.to_path_buf(),
                bytes: HEADER_LEN,
                records: BTreeMap::new(),
            })),
        })
    }

    /// Opens an existing journal, validating the magic and fingerprint
    /// and truncating any corrupt tail (see the module docs). Fails if
    /// the file is missing, is not a journal, or was written by a job
    /// with a different fingerprint.
    pub fn open(path: impl AsRef<Path>, fingerprint: u64) -> io::Result<Journal> {
        let path = path.as_ref();
        let mut raw = Vec::new();
        File::open(path)?.read_to_end(&mut raw)?;
        if raw.len() < HEADER_LEN as usize || &raw[..MAGIC.len()] != MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: not a geopattern journal", path.display()),
            ));
        }
        let found = u64::from_le_bytes(raw[MAGIC.len()..HEADER_LEN as usize].try_into().unwrap());
        if found != fingerprint {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "{}: journal fingerprint {found:#018x} does not match this job \
                     ({fingerprint:#018x}); the configuration changed — start a fresh journal",
                    path.display()
                ),
            ));
        }

        let mut records = BTreeMap::new();
        let mut offset = HEADER_LEN as usize;
        while let Some((record, frame_len)) = decode_frame(&raw[offset..]) {
            records.insert((record.kind, record.shard), record.payload);
            offset += frame_len;
        }
        let valid = offset as u64;
        if valid < raw.len() as u64 {
            // Torn or corrupt tail: drop it so the next append starts on
            // a clean frame boundary.
            let file = OpenOptions::new().write(true).open(path)?;
            file.set_len(valid)?;
            file.sync_all()?;
        }
        let file = OpenOptions::new().append(true).open(path)?;
        Ok(Journal {
            inner: Arc::new(Mutex::new(Inner {
                file,
                path: path.to_path_buf(),
                bytes: valid,
                records,
            })),
        })
    }

    /// Opens `path` if it already holds a journal with this fingerprint,
    /// and creates a fresh one otherwise (including when the existing
    /// file is unreadable as a journal).
    pub fn open_or_create(path: impl AsRef<Path>, fingerprint: u64) -> io::Result<Journal> {
        let path = path.as_ref();
        if path.exists() {
            if let Ok(journal) = Journal::open(path, fingerprint) {
                return Ok(journal);
            }
        }
        Journal::create(path, fingerprint)
    }

    /// Appends a completion record and makes it durable (flush +
    /// `sync_data`) before returning. Safe to call concurrently from
    /// worker threads; records are serialised by the journal's lock.
    ///
    /// A record whose body would exceed the 1 GiB frame limit fails with
    /// [`io::ErrorKind::InvalidInput`] and writes nothing: [`Journal::open`]
    /// would discard such a frame, and every record after it, as a
    /// corrupt tail.
    pub fn append(&self, kind: &str, shard: u64, payload: &[u8]) -> io::Result<()> {
        let body_len = 2 + kind.len() + 8 + payload.len();
        if body_len > MAX_BODY as usize {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("journal record of {body_len} bytes exceeds the {MAX_BODY}-byte limit"),
            ));
        }
        let mut body = Vec::with_capacity(body_len);
        body.extend_from_slice(&(kind.len() as u16).to_le_bytes());
        body.extend_from_slice(kind.as_bytes());
        body.extend_from_slice(&shard.to_le_bytes());
        body.extend_from_slice(payload);
        let mut frame = Vec::with_capacity(FRAME_PREFIX + body.len());
        frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
        frame.extend_from_slice(&fnv1a64(&body).to_le_bytes());
        frame.extend_from_slice(&body);

        let mut inner = self.inner.lock().unwrap();
        inner.file.write_all(&frame)?;
        inner.file.flush()?;
        inner.file.sync_data()?;
        inner.bytes += frame.len() as u64;
        inner
            .records
            .insert((kind.to_string(), shard), payload.to_vec());
        Ok(())
    }

    /// Whether a completion record exists for `(kind, shard)`.
    pub fn contains(&self, kind: &str, shard: u64) -> bool {
        self.inner
            .lock()
            .unwrap()
            .records
            .contains_key(&(kind.to_string(), shard))
    }

    /// The payload of the `(kind, shard)` record, if present (last
    /// occurrence wins when a unit was journaled more than once).
    pub fn lookup(&self, kind: &str, shard: u64) -> Option<Vec<u8>> {
        self.inner
            .lock()
            .unwrap()
            .records
            .get(&(kind.to_string(), shard))
            .cloned()
    }

    /// Every record of one kind, sorted by shard id.
    pub fn records(&self, kind: &str) -> Vec<(u64, Vec<u8>)> {
        self.inner
            .lock()
            .unwrap()
            .records
            .iter()
            .filter(|((k, _), _)| k == kind)
            .map(|((_, shard), payload)| (*shard, payload.clone()))
            .collect()
    }

    /// Number of distinct `(kind, shard)` records.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().records.len()
    }

    /// Whether the journal holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes of valid journal on disk (header plus intact frames) — the
    /// figure surfaced as the `robust/journal_bytes` counter.
    pub fn bytes(&self) -> u64 {
        self.inner.lock().unwrap().bytes
    }

    /// The journal's file path.
    pub fn path(&self) -> PathBuf {
        self.inner.lock().unwrap().path.clone()
    }
}

/// Decodes one frame from the front of `raw`. Returns the record and the
/// total frame length, or `None` if the frame is incomplete, oversized,
/// fails its checksum, or has a malformed body — all of which mean "the
/// valid journal ends here".
fn decode_frame(raw: &[u8]) -> Option<(Record, usize)> {
    if raw.len() < FRAME_PREFIX {
        return None;
    }
    let body_len = u32::from_le_bytes(raw[0..4].try_into().unwrap());
    if body_len > MAX_BODY {
        return None;
    }
    let body_len = body_len as usize;
    let checksum = u64::from_le_bytes(raw[4..12].try_into().unwrap());
    let body = raw.get(FRAME_PREFIX..FRAME_PREFIX + body_len)?;
    if fnv1a64(body) != checksum {
        return None;
    }
    // Body: [u16 kind_len][kind][u64 shard][payload].
    if body.len() < 2 {
        return None;
    }
    let kind_len = u16::from_le_bytes(body[0..2].try_into().unwrap()) as usize;
    if body.len() < 2 + kind_len + 8 {
        return None;
    }
    let kind = std::str::from_utf8(&body[2..2 + kind_len]).ok()?.to_string();
    let shard =
        u64::from_le_bytes(body[2 + kind_len..2 + kind_len + 8].try_into().unwrap());
    let payload = body[2 + kind_len + 8..].to_vec();
    Some((Record { kind, shard, payload }, FRAME_PREFIX + body_len))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scratch directory unique to one test, removed on drop.
    struct Scratch(PathBuf);

    impl Scratch {
        fn new(tag: &str) -> Scratch {
            let dir = std::env::temp_dir().join(format!(
                "geopattern-journal-{tag}-{}",
                std::process::id()
            ));
            let _ = fs::remove_dir_all(&dir);
            fs::create_dir_all(&dir).unwrap();
            Scratch(dir)
        }

        fn path(&self, name: &str) -> PathBuf {
            self.0.join(name)
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn create_append_reopen_round_trips() {
        let dir = Scratch::new("roundtrip");
        let path = dir.path("job.journal");
        let journal = Journal::create(&path, 42).unwrap();
        assert!(journal.is_empty());
        journal.append("tile", 3, b"three").unwrap();
        journal.append("tile", 1, b"one").unwrap();
        journal.append("level", 2, b"L2").unwrap();
        assert_eq!(journal.len(), 3);
        assert!(journal.contains("tile", 1));
        assert!(!journal.contains("tile", 2));
        assert_eq!(journal.lookup("level", 2).unwrap(), b"L2");

        let reopened = Journal::open(&path, 42).unwrap();
        assert_eq!(reopened.len(), 3);
        assert_eq!(
            reopened.records("tile"),
            vec![(1, b"one".to_vec()), (3, b"three".to_vec())]
        );
        assert_eq!(reopened.bytes(), journal.bytes());
    }

    #[test]
    fn last_record_wins_on_duplicate_key() {
        let dir = Scratch::new("dup");
        let path = dir.path("job.journal");
        let journal = Journal::create(&path, 1).unwrap();
        journal.append("tile", 7, b"first").unwrap();
        journal.append("tile", 7, b"second").unwrap();
        assert_eq!(journal.lookup("tile", 7).unwrap(), b"second");
        let reopened = Journal::open(&path, 1).unwrap();
        assert_eq!(reopened.lookup("tile", 7).unwrap(), b"second");
        assert_eq!(reopened.len(), 1);
    }

    #[test]
    fn fingerprint_mismatch_is_rejected() {
        let dir = Scratch::new("fingerprint");
        let path = dir.path("job.journal");
        Journal::create(&path, 42).unwrap();
        let err = Journal::open(&path, 43).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("fingerprint"));
    }

    #[test]
    fn non_journal_file_is_rejected() {
        let dir = Scratch::new("magic");
        let path = dir.path("not-a-journal");
        fs::write(&path, b"hello world, definitely not a journal").unwrap();
        assert!(Journal::open(&path, 0).is_err());
        // open_or_create replaces it with a fresh journal.
        let journal = Journal::open_or_create(&path, 0).unwrap();
        assert!(journal.is_empty());
    }

    #[test]
    fn truncated_tail_is_dropped_and_journal_stays_writable() {
        let dir = Scratch::new("torn");
        let path = dir.path("job.journal");
        let journal = Journal::create(&path, 9).unwrap();
        journal.append("tile", 0, b"intact-zero").unwrap();
        journal.append("tile", 1, b"intact-one").unwrap();
        drop(journal);
        // Simulate a crash mid-append: chop bytes off the final frame.
        let full = fs::read(&path).unwrap();
        for cut in 1..12 {
            fs::write(&path, &full[..full.len() - cut]).unwrap();
            let reopened = Journal::open(&path, 9).unwrap();
            assert!(reopened.contains("tile", 0), "cut {cut}");
            assert!(!reopened.contains("tile", 1), "cut {cut}");
            // The tail was truncated; a fresh append lands cleanly.
            reopened.append("tile", 1, b"rewritten").unwrap();
            let again = Journal::open(&path, 9).unwrap();
            assert_eq!(again.lookup("tile", 1).unwrap(), b"rewritten", "cut {cut}");
        }
    }

    #[test]
    fn bit_flipped_tail_is_dropped_never_surfaced() {
        let dir = Scratch::new("bitflip");
        let path = dir.path("job.journal");
        let journal = Journal::create(&path, 5).unwrap();
        journal.append("tile", 0, b"good").unwrap();
        journal.append("tile", 1, b"soon-corrupt").unwrap();
        drop(journal);
        let mut raw = fs::read(&path).unwrap();
        // Flip a payload bit inside the *last* frame.
        let n = raw.len();
        raw[n - 3] ^= 0x40;
        fs::write(&path, &raw).unwrap();
        let reopened = Journal::open(&path, 5).unwrap();
        assert_eq!(reopened.lookup("tile", 0).unwrap(), b"good");
        assert!(reopened.lookup("tile", 1).is_none());
    }

    #[test]
    fn oversized_record_is_rejected_and_earlier_records_survive() {
        let dir = Scratch::new("oversized");
        let path = dir.path("job.journal");
        let journal = Journal::create(&path, 3).unwrap();
        journal.append("tile", 0, b"small").unwrap();
        let bytes = journal.bytes();
        // Zero-filled, so the allocator hands out untouched pages.
        let huge = vec![0u8; MAX_BODY as usize + 1];
        let err = journal.append("tile", 1, &huge).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        drop(huge);
        assert_eq!(journal.bytes(), bytes, "nothing was written");
        assert!(!journal.contains("tile", 1));
        journal.append("tile", 2, b"after").unwrap();
        let reopened = Journal::open(&path, 3).unwrap();
        assert_eq!(reopened.lookup("tile", 0).unwrap(), b"small");
        assert_eq!(reopened.lookup("tile", 2).unwrap(), b"after");
        assert_eq!(reopened.len(), 2);
    }

    #[test]
    fn atomic_write_replaces_content() {
        let dir = Scratch::new("atomic");
        let path = dir.path("artifact.json");
        atomic_write(&path, b"{\"v\":1}").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"{\"v\":1}");
        atomic_write(&path, b"{\"v\":2}").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"{\"v\":2}");
        // No temp files left behind.
        let leftovers: Vec<_> = fs::read_dir(dir.path(""))
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
    }

    #[test]
    fn payload_reader_round_trips_and_stops_at_the_end() {
        let mut buf = vec![7u8];
        put_u32(&mut buf, 0xdead_beef);
        put_u64(&mut buf, u64::MAX - 1);
        let mut r = Reader::new(&buf);
        assert_eq!(r.take_u8(), Some(7));
        assert_eq!(r.take_u32(), Some(0xdead_beef));
        assert!(!r.done());
        assert_eq!(r.take_u64(), Some(u64::MAX - 1));
        assert!(r.done());
        assert_eq!(r.take_u8(), None);
        for cut in 0..buf.len() {
            let mut r = Reader::new(&buf[..cut]);
            let whole = r.take_u8().and_then(|_| r.take_u32()).and_then(|_| r.take_u64());
            assert!(whole.is_none(), "truncated at {cut}");
        }
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
