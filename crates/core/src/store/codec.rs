//! The byte codec every on-disk format shares.
//!
//! Term-index snapshots ([`crate::backend::snapshot`]) and the
//! write-ahead log with its checkpoints ([`crate::wal`]) are
//! little-endian, FNV-checksummed and installed atomically. This module
//! is the one home of that machinery:
//!
//! * [`checksum`] — FNV-1a finished with splitmix64 (integrity, not
//!   authentication);
//! * [`atomic_write`] — temp file, fsync, rename, directory fsync;
//! * `put_*` writers, whose length-prefixed variants refuse (rather than
//!   truncate) a length past the field's limit — [`checked_u32`];
//! * [`Cursor`] — one bounds-checked reader (`take`/`u8`/`u32`/`u64`/
//!   length-prefixed UTF-8 `str`);
//! * [`seal`] and [`SealedReader`] — the one envelope a whole-file
//!   record (a snapshot, a checkpoint) is written in:
//!
//! ```text
//! offset  field
//! 0       magic    4 bytes, names the format
//! 4       version  u32 LE
//! 8       checksum u64 LE  FNV-1a/mix64 over the payload
//! 16      length   u64 LE  payload bytes
//! 24      payload
//! ```
//!
//! A sealed record is read front to back through any [`Read`]: the
//! reader checks magic, version and the exact length when it opens,
//! never reads past the declared payload, bounds every array count by
//! the bytes left before anything is allocated for it, and folds the
//! checksum in as it reads; [`SealedReader::finish`] accepts the record
//! only when every declared byte was read and the checksum matches.
//! The log frames of [`crate::wal`] keep their own trailing checksum,
//! which is what lets a torn tail be found while the log is scanned.
//!
//! Errors are plain messages or a [`SealError`] (or [`std::io::Error`]
//! for installs): each format maps them into its own
//! [`crate::DogmatixError`] variant, so a snapshot failure stays a
//! `Snapshot` error and a log failure a `Wal` error.

use dogmatix_textsim::{mix64, Fnv1a};
use std::io::{self, Read, Write as _};
use std::path::{Path, PathBuf};

/// FNV-1a over `bytes`, finished with splitmix64 — cheap, stable, and
/// plenty to catch corruption.
pub(crate) fn checksum(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.update(bytes);
    mix64(h.finish())
}

/// Atomically installs `bytes` at `path`: write a `.tmp` sibling, fsync
/// it, rename it over the target, then best-effort fsync the directory
/// so the rename itself is durable. A crash mid-write leaves either the
/// old file or the new one — never a truncated hybrid.
pub(crate) fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut tmp_name = path.as_os_str().to_os_string();
    tmp_name.push(".tmp");
    let tmp = PathBuf::from(tmp_name);
    let mut f = std::fs::File::create(&tmp)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    std::fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// `value` as a u32 field no larger than `max`, or a message naming
/// the field and the limit. Every length a writer stores goes through
/// here, so an oversized value is refused, never wrapped into a
/// corrupt-but-checksummed record.
pub(crate) fn checked_u32(value: usize, max: u32, what: &str) -> Result<u32, String> {
    u32::try_from(value)
        .ok()
        .filter(|&v| v <= max)
        .ok_or_else(|| format!("{what} ({value}) exceeds the u32 field limit ({max})"))
}

pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends `s` with a u32 length prefix, refusing a string longer than
/// `max` bytes (the limit its reader enforces).
pub(crate) fn put_str(buf: &mut Vec<u8>, s: &str, max: u32, what: &str) -> Result<(), String> {
    put_u32(buf, checked_u32(s.len(), max, what)?);
    buf.extend_from_slice(s.as_bytes());
    Ok(())
}

/// Bytes of the envelope [`seal`] puts in front of a payload: magic,
/// version, checksum, length.
pub(crate) const ENVELOPE_LEN: usize = 24;

/// Hard cap on any array count inside a sealed record (guards a
/// corrupted count from driving an allocation; the bytes-left bound of
/// [`SealedReader::count`] applies as well).
pub(crate) const MAX_ARRAY_LEN: u32 = 1 << 31;

/// `payload` sealed in the [module](self) envelope: `magic`, `version`,
/// the payload checksum and its length, then the payload itself.
pub(crate) fn seal(magic: &[u8; 4], version: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(ENVELOPE_LEN + payload.len());
    out.extend_from_slice(magic);
    put_u32(&mut out, version);
    put_u64(&mut out, checksum(payload));
    put_u64(&mut out, payload.len() as u64);
    out.extend_from_slice(payload);
    out
}

/// Why a sealed record was refused.
#[derive(Debug)]
pub(crate) enum SealError {
    /// The record does not start with the format's magic.
    Magic,
    /// The envelope names a version this build does not read.
    Version(u32),
    /// The record is damaged; the message starts with `truncated` or
    /// `corrupted` and reads after the format's name.
    Damaged(String),
    /// The source failed to deliver bytes it was expected to hold.
    Io(io::Error),
}

/// Reads one sealed record front to back. See the [module](self) docs
/// for what it checks and when.
#[derive(Debug)]
pub(crate) struct SealedReader<R> {
    source: R,
    /// Declared payload bytes not read yet.
    remaining: u64,
    hash: Fnv1a,
    stored: u64,
}

impl<R: Read> SealedReader<R> {
    /// Opens the record `source` holds — `present` bytes in all (a
    /// file's metadata length, a slice's length) — checking its magic,
    /// its version and that the declared payload length accounts for
    /// exactly the bytes present.
    pub(crate) fn open(
        mut source: R,
        present: u64,
        magic: &[u8; 4],
        version: u32,
    ) -> Result<SealedReader<R>, SealError> {
        let mut env = [0u8; ENVELOPE_LEN];
        let head = present.min(ENVELOPE_LEN as u64) as usize;
        source.read_exact(&mut env[..head]).map_err(SealError::Io)?;
        if env[..head.min(4)] != magic[..] {
            return Err(SealError::Magic);
        }
        if head < ENVELOPE_LEN {
            return Err(SealError::Damaged(format!(
                "truncated: {present} B is shorter than the {ENVELOPE_LEN} B header"
            )));
        }
        let word = |at: usize| {
            let mut le = [0u8; 8];
            le.copy_from_slice(&env[at..at + 8]);
            u64::from_le_bytes(le)
        };
        let found = u32::from_le_bytes([env[4], env[5], env[6], env[7]]);
        if found != version {
            return Err(SealError::Version(found));
        }
        let (stored, declared) = (word(8), word(16));
        if declared.checked_add(ENVELOPE_LEN as u64) != Some(present) {
            return Err(SealError::Damaged(format!(
                "truncated or padded: {present} B present but the header describes \
                 {ENVELOPE_LEN} + {declared} B"
            )));
        }
        Ok(SealedReader {
            source,
            remaining: declared,
            hash: Fnv1a::new(),
            stored,
        })
    }

    /// Fills `buf` from the payload, folding its bytes into the checksum.
    pub(crate) fn read_exact(&mut self, buf: &mut [u8]) -> Result<(), SealError> {
        if buf.len() as u64 > self.remaining {
            return Err(SealError::Damaged(format!(
                "corrupted: {} B wanted but only {} B of the payload remain",
                buf.len(),
                self.remaining
            )));
        }
        self.source.read_exact(buf).map_err(SealError::Io)?;
        self.hash.update(buf);
        self.remaining -= buf.len() as u64;
        Ok(())
    }

    pub(crate) fn u32(&mut self) -> Result<u32, SealError> {
        let mut le = [0u8; 4];
        self.read_exact(&mut le)?;
        Ok(u32::from_le_bytes(le))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, SealError> {
        let mut le = [0u8; 8];
        self.read_exact(&mut le)?;
        Ok(u64::from_le_bytes(le))
    }

    /// A u32 count of `elem_bytes`-sized elements, refused past
    /// [`MAX_ARRAY_LEN`] or past the payload bytes left — checked
    /// before the caller allocates anything for the array.
    pub(crate) fn count(&mut self, elem_bytes: u64) -> Result<usize, SealError> {
        let n = self.u32()?;
        let fits = u64::from(n)
            .checked_mul(elem_bytes)
            .is_some_and(|bytes| bytes <= self.remaining);
        if n > MAX_ARRAY_LEN || !fits {
            return Err(SealError::Damaged(format!(
                "corrupted: implausible array length {n}"
            )));
        }
        Ok(n as usize)
    }

    /// The next `n` payload bytes (bounded by the bytes left before
    /// the buffer is allocated).
    pub(crate) fn bytes(&mut self, n: usize) -> Result<Vec<u8>, SealError> {
        if n as u64 > self.remaining {
            return Err(SealError::Damaged(format!(
                "corrupted: {n} B wanted but only {} B of the payload remain",
                self.remaining
            )));
        }
        let mut out = vec![0; n];
        self.read_exact(&mut out)?;
        Ok(out)
    }

    /// Accepts the record: every declared byte was read and the
    /// checksum over them matches the stored one.
    pub(crate) fn finish(self) -> Result<(), SealError> {
        if self.remaining != 0 {
            return Err(SealError::Damaged(format!(
                "corrupted: {} B of the payload left unread",
                self.remaining
            )));
        }
        if mix64(self.hash.finish()) != self.stored {
            return Err(SealError::Damaged(
                "corrupted: checksum mismatch".to_string(),
            ));
        }
        Ok(())
    }
}

/// Verifies the sealed record held in memory and returns its payload,
/// borrowed in place.
pub(crate) fn unseal<'a>(
    record: &'a [u8],
    magic: &[u8; 4],
    version: u32,
) -> Result<&'a [u8], SealError> {
    let mut reader = SealedReader::open(record, record.len() as u64, magic, version)?;
    let mut chunk = [0u8; 4096];
    while reader.remaining > 0 {
        let n = reader.remaining.min(chunk.len() as u64) as usize;
        reader.read_exact(&mut chunk[..n])?;
    }
    reader.finish()?;
    Ok(&record[ENVELOPE_LEN..])
}

/// A bounds-checked little-endian reader over a byte slice. Every read
/// past the end is an error, never a panic.
#[derive(Debug)]
pub(crate) struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    /// Bytes consumed so far.
    pub(crate) fn position(&self) -> usize {
        self.pos
    }

    /// Whether every byte has been consumed.
    pub(crate) fn is_empty(&self) -> bool {
        self.pos == self.buf.len()
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| format!("truncated: {n} B wanted at offset {}", self.pos))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, String> {
        let mut le = [0u8; 4];
        le.copy_from_slice(self.take(4)?);
        Ok(u32::from_le_bytes(le))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, String> {
        let mut le = [0u8; 8];
        le.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(le))
    }

    /// A u32-length-prefixed UTF-8 string (the [`put_str`] layout).
    pub(crate) fn str(&mut self) -> Result<String, String> {
        self.str_ref().map(str::to_owned)
    }

    /// [`Cursor::str`], borrowed in place from the buffer.
    pub(crate) fn str_ref(&mut self) -> Result<&'a str, String> {
        let n = self.u32()?;
        let raw = self.take(n as usize)?;
        std::str::from_utf8(raw).map_err(|_| "string is not valid UTF-8".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cursor_reads_what_the_writers_wrote() {
        let mut buf = Vec::new();
        buf.push(7);
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u64(&mut buf, u64::MAX - 1);
        put_str(&mut buf, "héllo", u32::MAX, "greeting").unwrap();
        let mut c = Cursor::new(&buf);
        assert_eq!(c.u8().unwrap(), 7);
        assert_eq!(c.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(c.u64().unwrap(), u64::MAX - 1);
        assert_eq!(c.str().unwrap(), "héllo");
        assert!(c.is_empty());
        assert_eq!(c.position(), buf.len());
    }

    #[test]
    fn cursor_refuses_short_reads_and_bad_utf8() {
        let mut c = Cursor::new(&[1, 2, 3]);
        assert!(c.u32().is_err());
        // A failed read consumes nothing.
        assert_eq!(c.position(), 0);
        assert!(c.take(usize::MAX).is_err());
        let mut bad = Vec::new();
        put_u32(&mut bad, 2);
        bad.extend_from_slice(&[0xC3, 0x28]);
        assert!(Cursor::new(&bad).str().unwrap_err().contains("UTF-8"));
        let mut long = Vec::new();
        put_u32(&mut long, 9);
        long.push(b'x');
        assert!(Cursor::new(&long).str().is_err());
    }

    #[test]
    fn sealed_reader_bounds_counts_and_refuses_unread_or_wrong_records() {
        let mut payload = Vec::new();
        put_u32(&mut payload, 2);
        put_u64(&mut payload, 7);
        put_u32(&mut payload, u32::MAX);
        let record = seal(b"TEST", 1, &payload);
        fn open(r: &[u8]) -> Result<SealedReader<&[u8]>, SealError> {
            SealedReader::open(r, r.len() as u64, b"TEST", 1)
        }
        let mut r = open(&record).unwrap();
        assert_eq!(r.count(4).unwrap(), 2);
        assert_eq!(r.u64().unwrap(), 7);
        // u32::MAX elements cannot fit in the 0 bytes left.
        assert!(matches!(r.count(1), Err(SealError::Damaged(m)) if m.contains("implausible")));
        let mut r = open(&record).unwrap();
        r.u32().unwrap();
        assert!(matches!(r.finish(), Err(SealError::Damaged(m)) if m.contains("unread")));
        assert!(matches!(open(&record[..30]), Err(SealError::Damaged(_))));
        assert!(matches!(open(&record[..3]), Err(SealError::Magic)));
        assert!(matches!(
            SealedReader::open(&record[..], record.len() as u64, b"TEST", 2),
            Err(SealError::Version(1))
        ));
        assert_eq!(unseal(&record, b"TEST", 1).unwrap(), &payload[..]);
    }

    #[test]
    fn length_checks_name_the_field_and_refuse_past_the_limit() {
        assert_eq!(checked_u32(10, 10, "frame").unwrap(), 10);
        let msg = checked_u32(11, 10, "frame").unwrap_err();
        assert!(msg.contains("frame (11)") && msg.contains("(10)"), "{msg}");
        assert!(checked_u32(u32::MAX as usize + 1, u32::MAX, "arena").is_err());
        let mut buf = Vec::new();
        assert!(put_str(&mut buf, "toolong", 3, "path").is_err());
        assert!(buf.is_empty(), "a refused string writes no byte");
    }
}
