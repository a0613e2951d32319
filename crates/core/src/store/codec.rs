//! The byte codec every on-disk format shares.
//!
//! Paged term-index snapshots ([`crate::backend::paged`]) and the
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
//!   length-prefixed UTF-8 `str`).
//!
//! Errors are plain messages (or [`std::io::Error`] for installs): each
//! format maps them into its own [`crate::DogmatixError`] variant, so a
//! snapshot failure stays a `Snapshot` error and a log failure a `Wal`
//! error.

use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

/// FNV-1a over `bytes`, finished with splitmix64 — cheap, stable, and
/// plenty to catch corruption.
pub(crate) fn checksum(bytes: &[u8]) -> u64 {
    let mut h = dogmatix_textsim::Fnv1a::new();
    h.update(bytes);
    dogmatix_textsim::mix64(h.finish())
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
        let n = self.u32()?;
        let raw = self.take(n as usize)?;
        String::from_utf8(raw.to_vec()).map_err(|_| "string is not valid UTF-8".to_string())
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
