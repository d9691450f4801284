//! # mtat-snapshot — crash-tolerant PP-M checkpointing
//!
//! In the paper, PP-M is a user-space daemon separate from the in-kernel
//! PP-E: when the daemon dies, the kernel keeps enforcing the last
//! partitioning plan, and a restarted daemon resumes from persisted
//! state instead of re-learning from scratch. This crate is the
//! persistence layer that makes that split real in the reproduction:
//!
//! * [`Snap`], [`SnapWriter`], [`SnapReader`] — a small deterministic
//!   binary codec. The vendored `serde` is a marker-trait stub with no
//!   real serialization, so state-owning structs across the workspace
//!   implement `Snap` (or expose `save_state`/`load_state` methods built
//!   on the writer/reader) by hand. Floats travel as raw IEEE-754 bits,
//!   which is what makes checkpoint/restore *bit-identical*: a restored
//!   SAC agent continues the exact trajectory the crashed one would have.
//! * [`seal`] / [`unseal`] — the checkpoint envelope: magic, format
//!   version, payload length, and an FNV-1a-64 content checksum. Any
//!   single corrupted byte anywhere in a sealed checkpoint is detected
//!   (wrong magic, version, length, or checksum) and refused.
//! * [`CheckpointStore`] — N-generation retention, atomic (temp-file +
//!   rename) on disk or held in memory. Loading walks generations
//!   newest-first and falls back past corrupted ones, so one torn write
//!   never strands the daemon.

use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use rand::rngs::StdRng;

/// Current checkpoint format version. Bump on ANY schema change — the
/// committed fixture test in `tests/format_fixture.rs` fails loudly when
/// the encoding of the envelope or the version drifts.
pub const FORMAT_VERSION: u32 = 1;

/// Envelope magic: identifies a sealed MTAT checkpoint.
pub const MAGIC: [u8; 8] = *b"MTATSNAP";

/// Everything that can go wrong encoding, decoding, or storing a
/// checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SnapError {
    /// The reader ran out of bytes mid-field.
    Eof {
        /// Bytes the failed read needed.
        needed: usize,
        /// Bytes that were left.
        remaining: usize,
    },
    /// The envelope does not start with [`MAGIC`].
    BadMagic,
    /// The envelope was written by a different format version.
    VersionMismatch {
        /// Version found in the envelope.
        found: u32,
        /// Version this build understands.
        expected: u32,
    },
    /// The declared payload length disagrees with the actual bytes.
    Truncated {
        /// Payload length the header declares.
        declared: u64,
        /// Payload bytes actually present.
        actual: u64,
    },
    /// The payload checksum does not match.
    ChecksumMismatch {
        /// Checksum stored in the envelope.
        stored: u64,
        /// Checksum recomputed over the payload.
        computed: u64,
    },
    /// A decoded value is structurally invalid (bad enum tag, impossible
    /// length, ...).
    Malformed(&'static str),
    /// Filesystem failure in the [`CheckpointStore`].
    Io(String),
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Eof { needed, remaining } => {
                write!(
                    f,
                    "unexpected end of checkpoint: needed {needed} bytes, {remaining} left"
                )
            }
            SnapError::BadMagic => write!(f, "not an MTAT checkpoint (bad magic)"),
            SnapError::VersionMismatch { found, expected } => {
                write!(
                    f,
                    "checkpoint format version {found} != supported {expected}"
                )
            }
            SnapError::Truncated { declared, actual } => {
                write!(f, "checkpoint truncated: header declares {declared} payload bytes, found {actual}")
            }
            SnapError::ChecksumMismatch { stored, computed } => {
                write!(f, "checkpoint checksum mismatch: stored {stored:#018x}, computed {computed:#018x}")
            }
            SnapError::Malformed(what) => write!(f, "malformed checkpoint field: {what}"),
            SnapError::Io(detail) => write!(f, "checkpoint I/O failure: {detail}"),
        }
    }
}

impl std::error::Error for SnapError {}

/// FNV-1a 64-bit hash — the envelope's content checksum. Not
/// cryptographic; it exists to catch torn writes and bit rot, and any
/// single-byte corruption changes it.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Append-only binary encoder.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the writer, returning the encoded payload.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `i64`.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its raw IEEE-754 bits (bit-exact round trip,
    /// including NaN payloads, infinities, and signed zeros).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a bool as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Appends raw bytes with no length prefix.
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }
}

/// Sequential binary decoder over a payload slice.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed — decoders use this to
    /// reject payloads with trailing garbage.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::Eof {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads a little-endian `i64`.
    pub fn get_i64(&mut self) -> Result<i64, SnapError> {
        Ok(i64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads an `f64` from its raw bits.
    pub fn get_f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a bool, rejecting any byte other than 0 or 1.
    pub fn get_bool(&mut self) -> Result<bool, SnapError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapError::Malformed("bool byte not 0/1")),
        }
    }

    /// Reads a collection length, rejecting lengths that could not
    /// possibly fit in the remaining bytes (each element of any `Snap`
    /// type occupies at least one byte) — so a corrupted length field
    /// fails cleanly instead of triggering a huge allocation.
    pub fn get_len(&mut self) -> Result<usize, SnapError> {
        let n = self.get_u64()?;
        if n > self.remaining() as u64 {
            return Err(SnapError::Malformed("length exceeds remaining bytes"));
        }
        Ok(n as usize)
    }
}

/// Deterministic binary serialization: `unsnap(snap(x)) == x`, bit for
/// bit. Implemented by plain-data types; structs with private invariants
/// or non-serializable construction parameters expose inherent
/// `save_state` / `load_state` methods instead.
pub trait Snap: Sized {
    /// Appends this value's encoding to `w`.
    fn snap(&self, w: &mut SnapWriter);
    /// Decodes one value from `r`.
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError>;
}

impl Snap for u8 {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_u8(*self);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.get_u8()
    }
}

impl Snap for u32 {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_u32(*self);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.get_u32()
    }
}

impl Snap for u64 {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_u64(*self);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.get_u64()
    }
}

impl Snap for i64 {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_i64(*self);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.get_i64()
    }
}

impl Snap for usize {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_u64(*self as u64);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let v = r.get_u64()?;
        usize::try_from(v).map_err(|_| SnapError::Malformed("usize overflow"))
    }
}

impl Snap for f64 {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_f64(*self);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.get_f64()
    }
}

impl Snap for bool {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_bool(*self);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.get_bool()
    }
}

impl Snap for String {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_u64(self.len() as u64);
        w.put_raw(self.as_bytes());
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.get_len()?;
        let bytes = r.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| SnapError::Malformed("non-UTF-8 string"))
    }
}

impl<T: Snap> Snap for Vec<T> {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_u64(self.len() as u64);
        for v in self {
            v.snap(w);
        }
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.get_len()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::unsnap(r)?);
        }
        Ok(out)
    }
}

impl<T: Snap> Snap for Option<T> {
    fn snap(&self, w: &mut SnapWriter) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.snap(w);
            }
        }
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::unsnap(r)?)),
            _ => Err(SnapError::Malformed("Option tag not 0/1")),
        }
    }
}

impl<A: Snap, B: Snap> Snap for (A, B) {
    fn snap(&self, w: &mut SnapWriter) {
        self.0.snap(w);
        self.1.snap(w);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok((A::unsnap(r)?, B::unsnap(r)?))
    }
}

/// The SplitMix64 stream is one `u64` of state; checkpointing it is what
/// lets a restored SAC agent consume the *same* future random draws the
/// uninterrupted one would have.
impl Snap for StdRng {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_u64(self.state());
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(StdRng::from_state(r.get_u64()?))
    }
}

/// Wraps `payload` in the checkpoint envelope:
/// `MAGIC ‖ version:u32 ‖ payload_len:u64 ‖ checksum:u64 ‖ payload`.
pub fn seal(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(MAGIC.len() + 4 + 8 + 8 + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a64(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Verifies and strips the envelope, returning the payload slice.
///
/// # Errors
///
/// Every corrupted byte in a sealed checkpoint trips exactly one of
/// [`SnapError::BadMagic`], [`SnapError::VersionMismatch`],
/// [`SnapError::Truncated`], or [`SnapError::ChecksumMismatch`].
pub fn unseal(bytes: &[u8]) -> Result<&[u8], SnapError> {
    let header = MAGIC.len() + 4 + 8 + 8;
    if bytes.len() < header {
        return Err(SnapError::Truncated {
            declared: header as u64,
            actual: bytes.len() as u64,
        });
    }
    if bytes[..MAGIC.len()] != MAGIC {
        return Err(SnapError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != FORMAT_VERSION {
        return Err(SnapError::VersionMismatch {
            found: version,
            expected: FORMAT_VERSION,
        });
    }
    let declared = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
    let stored = u64::from_le_bytes(bytes[20..28].try_into().expect("8 bytes"));
    let payload = &bytes[header..];
    if declared != payload.len() as u64 {
        return Err(SnapError::Truncated {
            declared,
            actual: payload.len() as u64,
        });
    }
    let computed = fnv1a64(payload);
    if computed != stored {
        return Err(SnapError::ChecksumMismatch { stored, computed });
    }
    Ok(payload)
}

/// Generational checkpoint store, on disk or in memory.
///
/// Each [`CheckpointStore::save`] seals the payload and stores it as
/// the next generation. On disk ([`CheckpointStore::open`]) the write is
/// atomic — to a temp file in the same directory, flushed, then renamed
/// into place as `ckpt-NNNNNNNN.mtat` — so a crash mid-write never
/// corrupts an existing generation. In memory
/// ([`CheckpointStore::in_memory`]) the sealed blobs stay in the store:
/// same envelope, numbering, retention, fallback and quarantine, no
/// filesystem traffic. The newest `retain` generations are kept; older
/// ones are pruned after each save. [`CheckpointStore::load_latest`]
/// walks generations newest-first and skips corrupted ones.
#[derive(Debug)]
pub struct CheckpointStore {
    backend: Backend,
    retain: usize,
    next_gen: u64,
    /// Test shim: when set, the next save writes only this many bytes of
    /// the sealed blob (a simulated torn device write) and then clears
    /// itself. See [`CheckpointStore::debug_truncate_next_write`].
    truncate_next_write: Option<usize>,
}

#[derive(Debug)]
enum Backend {
    /// `ckpt-NNNNNNNN.mtat` files in this directory.
    Disk(PathBuf),
    /// Sealed blobs with their generation numbers, oldest first.
    Memory(Vec<(u64, Vec<u8>)>),
}

impl CheckpointStore {
    /// Opens (creating if needed) a store in `dir` keeping `retain`
    /// generations. Numbering continues after the newest generation
    /// already in the directory.
    ///
    /// # Errors
    ///
    /// [`SnapError::Io`] if the directory cannot be created or listed;
    /// [`SnapError::Malformed`] if `retain` is zero.
    pub fn open(dir: impl Into<PathBuf>, retain: usize) -> Result<Self, SnapError> {
        let mut store = Self::in_memory(retain)?;
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| SnapError::Io(format!("create {dir:?}: {e}")))?;
        store.next_gen = Self::list_generations(&dir)?
            .last()
            .map_or(0, |&(gen, _)| gen + 1);
        store.backend = Backend::Disk(dir);
        Ok(store)
    }

    /// An empty in-memory store keeping `retain` generations, numbered
    /// from 1.
    ///
    /// # Errors
    ///
    /// [`SnapError::Malformed`] if `retain` is zero.
    pub fn in_memory(retain: usize) -> Result<Self, SnapError> {
        if retain == 0 {
            return Err(SnapError::Malformed("retain must be at least 1"));
        }
        Ok(Self {
            backend: Backend::Memory(Vec::new()),
            retain,
            next_gen: 1,
            truncate_next_write: None,
        })
    }

    /// Arms the write-truncation shim: the next [`CheckpointStore::save`]
    /// (or [`CheckpointStore::save_sealed`]) stores only the first
    /// `bytes` bytes of the sealed blob — the torn-write a host crash
    /// between `write` and `fsync` would leave behind. Exists so tests
    /// can prove that a torn latest generation is detected and older
    /// generations are used instead; never call this outside a test.
    #[doc(hidden)]
    pub fn debug_truncate_next_write(&mut self, bytes: usize) {
        self.truncate_next_write = Some(bytes);
    }

    /// The store's directory, or `None` for an in-memory store.
    pub fn dir(&self) -> Option<&Path> {
        let Backend::Disk(dir) = &self.backend else {
            return None;
        };
        Some(dir)
    }

    /// Existing generation numbers and paths, oldest first.
    fn list_generations(dir: &Path) -> Result<Vec<(u64, PathBuf)>, SnapError> {
        let mut gens = Vec::new();
        let entries = fs::read_dir(dir).map_err(|e| SnapError::Io(format!("read {dir:?}: {e}")))?;
        for entry in entries {
            let entry = entry.map_err(|e| SnapError::Io(e.to_string()))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(num) = name
                .strip_prefix("ckpt-")
                .and_then(|s| s.strip_suffix(".mtat"))
            {
                if let Ok(gen) = num.parse::<u64>() {
                    gens.push((gen, entry.path()));
                }
            }
        }
        gens.sort_unstable_by_key(|&(gen, _)| gen);
        Ok(gens)
    }

    /// Paths of the generation files currently on disk, oldest first.
    /// An in-memory store keeps no files, so its list is empty.
    pub fn generations(&self) -> Result<Vec<PathBuf>, SnapError> {
        let gens = match self.dir() {
            Some(dir) => Self::list_generations(dir)?,
            None => Vec::new(),
        };
        Ok(gens.into_iter().map(|(_, p)| p).collect())
    }

    /// Seals `payload` and stores it as the next generation (see
    /// [`CheckpointStore::save_sealed`]). Returns the new generation's
    /// number.
    ///
    /// # Errors
    ///
    /// [`SnapError::Io`] on any filesystem failure.
    pub fn save(&mut self, payload: &[u8]) -> Result<u64, SnapError> {
        self.save_sealed(seal(payload))
    }

    /// Stores an already-sealed blob as the next generation (in memory,
    /// the blob itself), then prunes generations beyond the retention
    /// count, and returns the new generation's number. Exists so callers
    /// can corrupt a blob after sealing (fault injection) and still share
    /// one persistence path.
    ///
    /// Durability ordering on disk: the temp file is written and
    /// `fsync`ed, then renamed into place, then (on Unix) the
    /// *directory* is `fsync`ed — without the final directory sync a
    /// host crash after the rename can forget the rename itself and
    /// leave a torn or missing latest generation.
    ///
    /// # Errors
    ///
    /// [`SnapError::Io`] on any filesystem failure.
    pub fn save_sealed(&mut self, mut written: Vec<u8>) -> Result<u64, SnapError> {
        let gen = self.next_gen;
        if let Some(limit) = self.truncate_next_write.take() {
            written.truncate(limit);
        }
        let dir = match &mut self.backend {
            Backend::Disk(dir) => &*dir,
            Backend::Memory(blobs) => {
                blobs.push((gen, written));
                blobs.drain(..blobs.len().saturating_sub(self.retain));
                self.next_gen = gen + 1;
                return Ok(gen);
            }
        };
        let final_path = dir.join(format!("ckpt-{gen:08}.mtat"));
        let tmp_path = dir.join(format!(".ckpt-{gen:08}.tmp"));
        {
            let mut f = fs::File::create(&tmp_path)
                .map_err(|e| SnapError::Io(format!("create {tmp_path:?}: {e}")))?;
            f.write_all(&written)
                .map_err(|e| SnapError::Io(format!("write {tmp_path:?}: {e}")))?;
            f.sync_all()
                .map_err(|e| SnapError::Io(format!("sync {tmp_path:?}: {e}")))?;
        }
        fs::rename(&tmp_path, &final_path)
            .map_err(|e| SnapError::Io(format!("rename into {final_path:?}: {e}")))?;
        // Persist the rename: fsync the directory so the new directory
        // entry survives a host crash. Directory handles cannot be
        // opened for syncing on all platforms; on those the rename-only
        // guarantee (the pre-fix behavior) stands.
        #[cfg(unix)]
        {
            let d =
                fs::File::open(dir).map_err(|e| SnapError::Io(format!("open dir {dir:?}: {e}")))?;
            d.sync_all()
                .map_err(|e| SnapError::Io(format!("sync dir {dir:?}: {e}")))?;
        }
        self.next_gen = gen + 1;

        let gens = Self::list_generations(dir)?;
        if gens.len() > self.retain {
            for (_, path) in &gens[..gens.len() - self.retain] {
                // Best-effort prune; a leftover old generation is harmless.
                let _ = fs::remove_file(path);
            }
        }
        Ok(gen)
    }

    /// Quarantines every generation *newer than* `gen`, and every
    /// generation when `gen` is `None` (no generation is trusted), so
    /// generation walks ([`CheckpointStore::load_latest`], retention
    /// pruning) no longer see them. On disk the files are renamed from
    /// `.mtat` to `.suspect` and the bytes stay for post-mortem
    /// analysis; in memory the blobs are dropped. The rollback engine
    /// calls this before restoring the last known-good generation —
    /// anything captured after it may carry the poisoned state that
    /// forced the rollback. Returns how many generations were
    /// quarantined.
    ///
    /// # Errors
    ///
    /// [`SnapError::Io`] if the directory cannot be listed or a rename
    /// fails.
    pub fn quarantine_newer_than(&mut self, gen: Option<u64>) -> Result<usize, SnapError> {
        let dir = match &mut self.backend {
            Backend::Disk(dir) => &*dir,
            Backend::Memory(blobs) => {
                let before = blobs.len();
                blobs.retain(|&(g, _)| Some(g) <= gen);
                return Ok(before - blobs.len());
            }
        };
        let mut quarantined = 0;
        for (g, path) in Self::list_generations(dir)? {
            if Some(g) > gen {
                let suspect = path.with_extension("suspect");
                fs::rename(&path, &suspect)
                    .map_err(|e| SnapError::Io(format!("quarantine {path:?}: {e}")))?;
                quarantined += 1;
            }
        }
        Ok(quarantined)
    }

    /// Loads the newest generation whose envelope verifies, falling back
    /// to older generations past any corrupted one. Returns the payload
    /// and `None` when no valid generation exists.
    ///
    /// # Errors
    ///
    /// [`SnapError::Io`] only when the directory itself cannot be read —
    /// unreadable or corrupted individual files are skipped.
    pub fn load_latest(&self) -> Result<Option<Vec<u8>>, SnapError> {
        Ok(self.load_latest_with_generation()?.map(|(_, p)| p))
    }

    /// Like [`CheckpointStore::load_latest`], but also reports *which*
    /// generation number verified — telemetry wants to record whether a
    /// restore came from the newest generation or had to fall back past
    /// corrupted ones.
    ///
    /// # Errors
    ///
    /// [`SnapError::Io`] only when the directory itself cannot be read.
    pub fn load_latest_with_generation(&self) -> Result<Option<(u64, Vec<u8>)>, SnapError> {
        let verified = |g: u64, bytes: &[u8]| Some((g, unseal(bytes).ok()?.to_vec()));
        Ok(match &self.backend {
            Backend::Disk(dir) => Self::list_generations(dir)?
                .into_iter()
                .rev()
                .find_map(|(g, path)| verified(g, &fs::read(path).ok()?)),
            Backend::Memory(blobs) => blobs.iter().rev().find_map(|(g, blob)| verified(*g, blob)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn tmp_dir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("mtat-snapshot-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn primitive_roundtrip_is_bit_exact() {
        let mut w = SnapWriter::new();
        42u8.snap(&mut w);
        7u32.snap(&mut w);
        u64::MAX.snap(&mut w);
        (-12345i64).snap(&mut w);
        f64::NEG_INFINITY.snap(&mut w);
        (-0.0f64).snap(&mut w);
        1.5e-300f64.snap(&mut w);
        true.snap(&mut w);
        "héllo".to_string().snap(&mut w);
        vec![1u64, 2, 3].snap(&mut w);
        Option::<u64>::None.snap(&mut w);
        Some(9u64).snap(&mut w);
        (3u8, 4.25f64).snap(&mut w);
        usize::MAX.snap(&mut w);

        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(u8::unsnap(&mut r).unwrap(), 42);
        assert_eq!(u32::unsnap(&mut r).unwrap(), 7);
        assert_eq!(u64::unsnap(&mut r).unwrap(), u64::MAX);
        assert_eq!(i64::unsnap(&mut r).unwrap(), -12345);
        assert_eq!(f64::unsnap(&mut r).unwrap(), f64::NEG_INFINITY);
        assert_eq!(f64::unsnap(&mut r).unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(f64::unsnap(&mut r).unwrap(), 1.5e-300);
        assert!(bool::unsnap(&mut r).unwrap());
        assert_eq!(String::unsnap(&mut r).unwrap(), "héllo");
        assert_eq!(Vec::<u64>::unsnap(&mut r).unwrap(), vec![1, 2, 3]);
        assert_eq!(Option::<u64>::unsnap(&mut r).unwrap(), None);
        assert_eq!(Option::<u64>::unsnap(&mut r).unwrap(), Some(9));
        assert_eq!(<(u8, f64)>::unsnap(&mut r).unwrap(), (3, 4.25));
        assert_eq!(usize::unsnap(&mut r).unwrap(), usize::MAX);
        assert!(r.is_exhausted());
    }

    #[test]
    fn rng_roundtrip_continues_identical_stream() {
        let mut rng = StdRng::seed_from_u64(0xABCD);
        for _ in 0..17 {
            rng.next_u64();
        }
        let mut w = SnapWriter::new();
        rng.snap(&mut w);
        let bytes = w.into_bytes();
        let mut restored = StdRng::unsnap(&mut SnapReader::new(&bytes)).unwrap();
        for _ in 0..100 {
            assert_eq!(rng.next_u64(), restored.next_u64());
        }
    }

    #[test]
    fn eof_and_malformed_are_reported() {
        let mut r = SnapReader::new(&[1, 2]);
        assert!(matches!(r.get_u64(), Err(SnapError::Eof { .. })));
        let mut r = SnapReader::new(&[7]);
        assert!(matches!(r.get_bool(), Err(SnapError::Malformed(_))));
        // A corrupted Vec length larger than the remaining bytes must
        // fail cleanly, not attempt the allocation.
        let mut w = SnapWriter::new();
        w.put_u64(u64::MAX);
        let bytes = w.into_bytes();
        assert!(matches!(
            Vec::<u64>::unsnap(&mut SnapReader::new(&bytes)),
            Err(SnapError::Malformed(_))
        ));
    }

    #[test]
    fn seal_unseal_roundtrip() {
        let payload = b"the partition plan".to_vec();
        let sealed = seal(&payload);
        assert_eq!(unseal(&sealed).unwrap(), payload.as_slice());
        // Empty payloads are legal.
        assert_eq!(unseal(&seal(&[])).unwrap(), &[] as &[u8]);
    }

    /// The satellite property: corrupting ANY single byte of a sealed
    /// checkpoint is detected — never silently loaded.
    #[test]
    fn every_single_byte_corruption_is_detected() {
        let mut rng = StdRng::seed_from_u64(99);
        let payload: Vec<u8> = (0..257).map(|_| rng.next_u64() as u8).collect();
        let sealed = seal(&payload);
        for i in 0..sealed.len() {
            for flip in [0x01u8, 0x80, 0xFF] {
                let mut bad = sealed.clone();
                bad[i] ^= flip;
                let got = unseal(&bad);
                assert!(
                    got.is_err() || got.unwrap() == payload.as_slice(),
                    "byte {i} flip {flip:#x} silently changed the payload"
                );
                let mut bad = sealed.clone();
                bad[i] ^= flip;
                assert!(
                    unseal(&bad).is_err(),
                    "byte {i} flip {flip:#x} not detected"
                );
            }
        }
        // Truncation at every boundary is detected too.
        for cut in 0..sealed.len() {
            assert!(unseal(&sealed[..cut]).is_err(), "truncation at {cut}");
        }
    }

    #[test]
    fn version_mismatch_is_loud() {
        let mut sealed = seal(b"x");
        sealed[8] = FORMAT_VERSION as u8 + 1; // bump the version field
        assert!(matches!(
            unseal(&sealed),
            Err(SnapError::VersionMismatch { found, expected })
                if found == FORMAT_VERSION + 1 && expected == FORMAT_VERSION
        ));
    }

    #[test]
    fn store_saves_atomically_and_retains_n_generations() {
        let dir = tmp_dir("retain");
        let mut store = CheckpointStore::open(&dir, 3).unwrap();
        for i in 0u8..6 {
            store.save(&[i; 8]).unwrap();
        }
        let gens = store.generations().unwrap();
        assert_eq!(gens.len(), 3, "retention should prune to 3: {gens:?}");
        assert_eq!(store.load_latest().unwrap().unwrap(), vec![5u8; 8]);
        // No temp files left behind.
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_newest_generation_falls_back_to_previous() {
        let dir = tmp_dir("fallback");
        let mut store = CheckpointStore::open(&dir, 4).unwrap();
        store.save(b"generation-0").unwrap();
        store.save(b"generation-1").unwrap();
        let latest = store.generations().unwrap().pop().unwrap();
        // Corrupt one payload byte of the newest generation on disk.
        let mut bytes = fs::read(&latest).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&latest, &bytes).unwrap();
        assert_eq!(
            store.load_latest().unwrap().unwrap(),
            b"generation-0".to_vec(),
            "corrupted gen 1 must fall back to gen 0"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_or_all_corrupt_store_loads_none() {
        let dir = tmp_dir("empty");
        let mut store = CheckpointStore::open(&dir, 2).unwrap();
        assert_eq!(store.load_latest().unwrap(), None);
        store.save(b"only").unwrap();
        let p = store.generations().unwrap().pop().unwrap();
        fs::write(&p, b"garbage").unwrap();
        assert_eq!(store.load_latest().unwrap(), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopened_store_continues_generation_numbering() {
        let dir = tmp_dir("reopen");
        let mut store = CheckpointStore::open(&dir, 10).unwrap();
        store.save(b"a").unwrap();
        store.save(b"b").unwrap();
        drop(store);
        let mut store = CheckpointStore::open(&dir, 10).unwrap();
        assert_eq!(store.save(b"c").unwrap(), 2);
        let p = store.generations().unwrap().pop().unwrap();
        assert!(p.to_string_lossy().contains("ckpt-00000002"));
        assert_eq!(store.generations().unwrap().len(), 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn zero_retain_is_rejected() {
        assert!(CheckpointStore::open(tmp_dir("zero"), 0).is_err());
    }

    /// The durability satellite: a torn write of the latest generation
    /// (simulated via the truncation shim — the bytes a crash between
    /// `write` and `fsync` would leave) must never be loaded; the store
    /// falls back to the previous, fully persisted generation.
    #[test]
    fn torn_latest_generation_falls_back_to_previous() {
        let dir = tmp_dir("torn");
        // Retain must exceed the 1 good + 4 torn + 1 recovery saves
        // below, or the pruner deletes the good generation itself.
        let mut store = CheckpointStore::open(&dir, 8).unwrap();
        store.save(b"good-generation").unwrap();
        let sealed_len = seal(b"torn-generation").len();
        for torn_bytes in [0, 1, sealed_len / 2, sealed_len - 1] {
            store.debug_truncate_next_write(torn_bytes);
            store.save(b"torn-generation").unwrap();
        }
        assert_eq!(
            store.load_latest().unwrap().unwrap(),
            b"good-generation".to_vec(),
            "every torn generation must be skipped"
        );
        // A subsequent intact save becomes the newest valid generation.
        store.save(b"after-recovery").unwrap();
        assert_eq!(
            store.load_latest().unwrap().unwrap(),
            b"after-recovery".to_vec()
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn quarantine_hides_newer_generations_but_keeps_bytes() {
        let dir = tmp_dir("quarantine");
        let mut store = CheckpointStore::open(&dir, 10).unwrap();
        store.save(b"gen-0").unwrap();
        store.save(b"gen-1").unwrap();
        store.save(b"gen-2").unwrap();
        assert_eq!(store.quarantine_newer_than(Some(0)).unwrap(), 2);
        let (gen, payload) = store.load_latest_with_generation().unwrap().unwrap();
        assert_eq!(gen, 0);
        assert_eq!(payload, b"gen-0".to_vec());
        // The suspect bytes stay on disk for post-mortem analysis.
        let suspects: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".suspect"))
            .collect();
        assert_eq!(suspects.len(), 2);
        // New saves continue past the quarantined numbers.
        store.save(b"gen-3").unwrap();
        let (gen, payload) = store.load_latest_with_generation().unwrap().unwrap();
        assert_eq!(gen, 3);
        assert_eq!(payload, b"gen-3".to_vec());
        let _ = fs::remove_dir_all(&dir);
    }

    /// The in-memory mode keeps the disk mode's semantics: numbering
    /// (from 1), retention, fallback past a torn generation, and
    /// quarantine — where `None` quarantines every generation, on both
    /// backends.
    #[test]
    fn in_memory_store_matches_disk_semantics() {
        let mut mem = CheckpointStore::in_memory(3).unwrap();
        assert_eq!(mem.dir(), None);
        assert_eq!(mem.load_latest().unwrap(), None);
        for i in 0u8..5 {
            assert_eq!(mem.save(&[i; 4]).unwrap(), u64::from(i) + 1);
        }
        mem.debug_truncate_next_write(7);
        assert_eq!(mem.save(b"torn").unwrap(), 6);
        assert_eq!(
            mem.load_latest_with_generation().unwrap(),
            Some((5, vec![4u8; 4])),
            "the torn generation 6 is skipped"
        );
        // Retention keeps generations 4 to 6 of the six saved.
        assert_eq!(mem.quarantine_newer_than(Some(4)).unwrap(), 2);
        assert_eq!(mem.load_latest_with_generation().unwrap().unwrap().0, 4);
        assert_eq!(mem.quarantine_newer_than(None).unwrap(), 1);
        assert_eq!(mem.load_latest().unwrap(), None);
        assert!(CheckpointStore::in_memory(0).is_err());

        let dir = tmp_dir("quarantine-all");
        let mut disk = CheckpointStore::open(&dir, 3).unwrap();
        assert_eq!(disk.dir(), Some(dir.as_path()));
        disk.save(b"gen-0").unwrap();
        disk.save(b"gen-1").unwrap();
        assert_eq!(disk.quarantine_newer_than(None).unwrap(), 2);
        assert_eq!(disk.load_latest().unwrap(), None);
        assert_eq!(disk.save(b"gen-2").unwrap(), 2);
        let _ = fs::remove_dir_all(&dir);
    }
}
