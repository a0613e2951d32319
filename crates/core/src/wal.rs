//! Durable sessions: a write-ahead delta log with checkpoint recovery.
//!
//! The incremental formulation (re-evaluating only what a change
//! touches, [`crate::incremental`]) is only production-real if a
//! restart does not force re-ingesting the corpus. This module makes an
//! [`IncrementalSession`] durable the way a database makes a
//! materialised view durable: every [`DocumentDelta`] is appended to an
//! append-only, checksummed log **before** it is applied, and a
//! periodic *checkpoint* persists the session's base state (document +
//! the interned term store of the last run, as an embedded
//! [`crate::backend::paged`] snapshot image). Recovery loads the latest
//! checkpoint and replays the log suffix — by the differential
//! guarantee of the incremental pipeline (incremental == batch,
//! `tests/incremental.rs`), the recovered session is **bit-identical**
//! to the uninterrupted one: same verdicts, same clusters.
//!
//! ## Log format (version 1)
//!
//! ```text
//! header   b"DXWL" + version u32 LE                     8 bytes
//! frame*   magic  u32 LE   b"FRME"
//!          lsn    u64 LE   strictly increasing, 1-based
//!          len    u32 LE   payload length
//!          payload         binary-encoded DocumentDelta
//!          checksum u64 LE FNV-1a + splitmix64 over magic..payload
//! ```
//!
//! A crash can tear the tail frame (short write) or corrupt it (torn
//! sector). Replay walks frames until the first one whose bounds,
//! magic, LSN monotonicity, checksum, or payload decoding fails — the
//! valid prefix is kept, the tail is **dropped and truncated away**,
//! and the tear is reported as a structured [`DogmatixError::Wal`] in
//! [`RecoveryReport::dropped_tail`], never a panic and never a failed
//! recovery. Corruption *before* the last valid frame is
//! indistinguishable from a tear and handled the same way; a corrupt
//! file header or checkpoint is fatal ([`Err`]) because no prefix is
//! trustworthy.
//!
//! ## Checkpoints
//!
//! [`Wal::checkpoint`] writes `<log>.ckpt` (atomically: temp file,
//! fsync, rename) holding the LSN, the session kind (real-world type +
//! schema mode), the full document, and — when the session is clean —
//! the interned store as an embedded DXTS snapshot image
//! ([`crate::backend::paged`], version 2, default page size), wrapped
//! in a 24-byte envelope (magic `DXCK`, version, checksum, length). The
//! log is then truncated: recovery costs O(deltas since last
//! checkpoint), not O(history). Loading validates the checkpoint
//! checksum, the embedded snapshot's own version, header and page
//! checksums and audit, and the document fingerprint binding the two.
//! The image carries its own version, so the checkpoint envelope's
//! [`WAL_VERSION`] describes only the envelope and payload layout.
//!
//! Frames, deltas and checkpoints are written and read through the
//! shared little-endian codec (`store::codec`): every length a writer
//! stores is checked against the limit its reader enforces, so
//! [`Wal::append`] refuses a frame over 1 GiB up front instead of
//! acknowledging a frame recovery would drop as a torn tail.
//!
//! ## Fsync policy and group commit
//!
//! [`FsyncPolicy::Always`] syncs every append (safest, slowest);
//! [`FsyncPolicy::Batch`] leaves syncing to an explicit [`Wal::commit`]
//! — the *group commit* used by `dogmatixd`, which appends a whole
//! drained ingest batch and pays **one** fsync before acknowledging any
//! of it; [`FsyncPolicy::Never`] never syncs (tests, throwaway runs).
//! `benches/wal.rs` pins the group-commit speedup.
//!
//! ```
//! use dogmatix_core::pipeline::Dogmatix;
//! use dogmatix_core::wal::{FsyncPolicy, Wal};
//! use dogmatix_core::{DocumentDelta, IncrementalSession};
//! use dogmatix_xml::Document;
//!
//! let dir = std::env::temp_dir().join(format!("dx_wal_doc_{}", std::process::id()));
//! std::fs::create_dir_all(&dir)?;
//! let log = dir.join("session.wal");
//!
//! let dx = Dogmatix::builder().add_type("M", ["/db/m"]).build();
//! let doc = Document::parse("<db><m><t>Alpha</t></m><m><t>Alpha</t></m></db>")?;
//! let mut session = dx.incremental_session_inferred(doc, "M")?;
//! let mut wal = Wal::create(&log, &session, FsyncPolicy::Batch)?;
//!
//! // Log first, then apply; one fsync commits the batch.
//! let delta = DocumentDelta::parse("insert /db <m><t>Beta</t></m>")?;
//! wal.append(&delta)?;
//! wal.commit()?;
//! let live = dx.detect_delta(&mut session, &[delta])?;
//!
//! // A restart replays the log onto the checkpoint: identical state.
//! let recovery = IncrementalSession::recover(&log, dx.mapping(), None, FsyncPolicy::Batch)?;
//! let mut recovered = recovery.session;
//! assert_eq!(recovery.report.replayed, 1);
//! assert_eq!(dx.detect_delta(&mut recovered, &[])?, live);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::backend::paged::{odset_from_paged_bytes, paged_snapshot_to_bytes, DEFAULT_PAGE_SIZE};
use crate::backend::{attach_candidates, doc_fingerprint};
use crate::error::DogmatixError;
use crate::incremental::{DocumentDelta, IncrementalSession};
use crate::mapping::Mapping;
use crate::store::codec::{self, put_str, put_u32, put_u64, Cursor};
use dogmatix_xml::{Document, Schema};
use std::collections::{BTreeSet, HashMap};
use std::io::{Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

const LOG_MAGIC: &[u8; 4] = b"DXWL";
const CKPT_MAGIC: &[u8; 4] = b"DXCK";
const FRAME_MAGIC: u32 = u32::from_le_bytes(*b"FRME");
/// Current log/checkpoint format version. Bump on any layout change;
/// recovery rejects every other version.
pub const WAL_VERSION: u32 = 1;
const LOG_HEADER_LEN: u64 = 8;
/// Frame header: magic u32 + lsn u64 + len u32.
const FRAME_HEADER_LEN: usize = 16;
/// Hard cap on one frame's payload (guards a corrupted length prefix
/// from driving an allocation before the bounds check rejects it).
const MAX_FRAME_LEN: u32 = 1 << 30;

fn wal_err(message: impl Into<String>) -> DogmatixError {
    DogmatixError::Wal {
        message: message.into(),
    }
}

/// The u32 length field of a frame payload, refused past
/// [`MAX_FRAME_LEN`] — the limit replay enforces, so every frame the
/// log acknowledges is one recovery keeps.
fn frame_len(len: usize) -> Result<u32, DogmatixError> {
    codec::checked_u32(len, MAX_FRAME_LEN, "log frame payload")
        .map_err(|e| wal_err(format!("cannot append: {e}")))
}

/// When the log file is flushed to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// Sync after every [`Wal::append`] — each delta is durable before
    /// the call returns. The per-delta baseline `benches/wal.rs` pins
    /// group commit against.
    Always,
    /// Sync only on [`Wal::commit`] — the *group commit* default: the
    /// server appends a whole drained batch and pays one fsync before
    /// acknowledging any delta in it.
    #[default]
    Batch,
    /// Never sync (the OS flushes eventually). A crash may lose
    /// acknowledged deltas; recovery still drops any torn tail cleanly.
    Never,
}

impl FsyncPolicy {
    /// Parses the CLI spelling (`always` / `batch` / `never`).
    pub fn parse(s: &str) -> Result<FsyncPolicy, DogmatixError> {
        match s {
            "always" => Ok(FsyncPolicy::Always),
            "batch" => Ok(FsyncPolicy::Batch),
            "never" => Ok(FsyncPolicy::Never),
            other => Err(DogmatixError::Config {
                message: format!("unknown fsync policy '{other}' (use always|batch|never)"),
            }),
        }
    }
}

impl std::fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FsyncPolicy::Always => "always",
            FsyncPolicy::Batch => "batch",
            FsyncPolicy::Never => "never",
        })
    }
}

/// An open write-ahead log: appends [`DocumentDelta`] frames and writes
/// periodic checkpoints. See the [module docs](self) for the format and
/// the logging discipline (append → commit → apply).
#[derive(Debug)]
pub struct Wal {
    file: std::fs::File,
    path: PathBuf,
    policy: FsyncPolicy,
    next_lsn: u64,
    checkpoint_lsn: u64,
    appended_since_checkpoint: u64,
    /// Unsynced appends are pending ([`FsyncPolicy::Batch`]).
    dirty: bool,
}

impl Wal {
    /// Creates a fresh log at `path` (truncating any previous one) and
    /// writes the *genesis checkpoint* of the session's current state,
    /// so recovery always has a base to replay onto.
    pub fn create(
        path: impl Into<PathBuf>,
        session: &IncrementalSession,
        policy: FsyncPolicy,
    ) -> Result<Wal, DogmatixError> {
        let path = path.into();
        write_checkpoint(&path, session, 0)?;
        let mut file = std::fs::OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .map_err(|e| wal_err(format!("cannot create log {}: {e}", path.display())))?;
        let mut header = Vec::with_capacity(LOG_HEADER_LEN as usize);
        header.extend_from_slice(LOG_MAGIC);
        put_u32(&mut header, WAL_VERSION);
        file.write_all(&header)
            .and_then(|()| file.sync_data())
            .map_err(|e| wal_err(format!("cannot write log header {}: {e}", path.display())))?;
        Ok(Wal {
            file,
            path,
            policy,
            next_lsn: 1,
            checkpoint_lsn: 0,
            appended_since_checkpoint: 0,
            dirty: false,
        })
    }

    /// The log file path (the checkpoint lives at `<path>.ckpt`).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The sync policy appends run under.
    pub fn policy(&self) -> FsyncPolicy {
        self.policy
    }

    /// LSN of the last appended delta (0 = none since creation).
    pub fn last_lsn(&self) -> u64 {
        self.next_lsn - 1
    }

    /// LSN the latest checkpoint covers (replay starts after it).
    pub fn checkpoint_lsn(&self) -> u64 {
        self.checkpoint_lsn
    }

    /// Deltas appended since the latest checkpoint — the server's
    /// checkpoint-cadence counter.
    pub fn appended_since_checkpoint(&self) -> u64 {
        self.appended_since_checkpoint
    }

    /// Appends one delta frame and returns its LSN. Under
    /// [`FsyncPolicy::Always`] the frame is durable on return; under
    /// [`FsyncPolicy::Batch`] it is durable after the next
    /// [`Wal::commit`]. Call **before** applying the delta: a frame for
    /// a delta that then fails to apply is harmless (replay skips it
    /// identically), while an applied-but-unlogged delta is lost state.
    /// A delta whose frame would exceed the 1 GiB frame limit is refused
    /// with a [`DogmatixError::Wal`] before any byte is written.
    pub fn append(&mut self, delta: &DocumentDelta) -> Result<u64, DogmatixError> {
        let lsn = self.next_lsn;
        let payload = encode_delta(delta).map_err(|e| wal_err(format!("cannot append: {e}")))?;
        let len = frame_len(payload.len())?;
        let mut frame = Vec::with_capacity(FRAME_HEADER_LEN + payload.len() + 8);
        put_u32(&mut frame, FRAME_MAGIC);
        put_u64(&mut frame, lsn);
        put_u32(&mut frame, len);
        frame.extend_from_slice(&payload);
        let sum = codec::checksum(&frame);
        put_u64(&mut frame, sum);
        self.file
            .write_all(&frame)
            .map_err(|e| wal_err(format!("cannot append to log {}: {e}", self.path.display())))?;
        self.next_lsn += 1;
        self.appended_since_checkpoint += 1;
        self.dirty = true;
        if self.policy == FsyncPolicy::Always {
            self.commit()?;
        }
        Ok(lsn)
    }

    /// Flushes all pending appends to stable storage — the group-commit
    /// boundary. A no-op when nothing is pending or the policy is
    /// [`FsyncPolicy::Never`].
    pub fn commit(&mut self) -> Result<(), DogmatixError> {
        if self.dirty && self.policy != FsyncPolicy::Never {
            self.file
                .sync_data()
                .map_err(|e| wal_err(format!("fsync failed on {}: {e}", self.path.display())))?;
        }
        self.dirty = false;
        Ok(())
    }

    /// Writes a checkpoint of the session's current state and truncates
    /// the log, bounding replay to deltas after it. The caller must
    /// pass the session this log's deltas were applied to — the
    /// checkpoint claims coverage up to [`Wal::last_lsn`]. Returns the
    /// covered LSN.
    pub fn checkpoint(&mut self, session: &IncrementalSession) -> Result<u64, DogmatixError> {
        // The log must be durable before the checkpoint can claim to
        // supersede it (a checkpoint ahead of a lost tail would drop
        // acknowledged deltas on the floor).
        if self.dirty && self.policy != FsyncPolicy::Never {
            self.file
                .sync_data()
                .map_err(|e| wal_err(format!("fsync failed on {}: {e}", self.path.display())))?;
            self.dirty = false;
        }
        let lsn = self.last_lsn();
        write_checkpoint(&self.path, session, lsn)?;
        self.file
            .set_len(LOG_HEADER_LEN)
            .and_then(|()| self.file.seek(SeekFrom::End(0)))
            .and_then(|_| self.file.sync_data())
            .map_err(|e| wal_err(format!("cannot truncate log {}: {e}", self.path.display())))?;
        self.checkpoint_lsn = lsn;
        self.appended_since_checkpoint = 0;
        Ok(lsn)
    }
}

/// What recovery found in the log.
#[derive(Debug)]
pub struct RecoveryReport {
    /// LSN the loaded checkpoint covered (0 = genesis).
    pub checkpoint_lsn: u64,
    /// Frames after the checkpoint whose delta applied cleanly.
    pub replayed: usize,
    /// Frames after the checkpoint whose delta failed to apply — the
    /// same deltas failed identically live (replay starts from the same
    /// state), so skipping them reconverges exactly.
    pub skipped: usize,
    /// The torn/corrupt tail, if the log did not end on a frame
    /// boundary: a [`DogmatixError::Wal`] describing the first invalid
    /// frame. The valid prefix was replayed and the tail truncated
    /// away; `None` means the log was wholly intact.
    pub dropped_tail: Option<DogmatixError>,
}

/// A recovered session plus its re-opened log.
#[derive(Debug)]
pub struct Recovery {
    /// The session, restored to checkpoint + replayed-log state. Run
    /// [`crate::pipeline::Dogmatix::detect_delta`] (with an empty batch)
    /// to re-derive detection results.
    pub session: IncrementalSession,
    /// The same log, re-opened for appending; its tail is truncated to
    /// the last valid frame.
    pub wal: Wal,
    /// What the log contained.
    pub report: RecoveryReport,
}

impl IncrementalSession {
    /// Recovers a session from the write-ahead log at `path`: loads the
    /// latest checkpoint (`<path>.ckpt`), rebuilds the session over the
    /// checkpointed document (warm-starting from the embedded store
    /// snapshot when one is present), and replays every valid log frame
    /// after the checkpoint. Torn tail frames are dropped and reported,
    /// not errors; a missing or corrupt checkpoint/log header is fatal.
    ///
    /// `schema` is required when the original session was opened with a
    /// fixed schema ([`IncrementalSession::new`]); sessions opened with
    /// [`IncrementalSession::with_inferred_schema`] re-infer and must
    /// pass `None`.
    pub fn recover(
        path: impl AsRef<Path>,
        mapping: &Mapping,
        schema: Option<Schema>,
        policy: FsyncPolicy,
    ) -> Result<Recovery, DogmatixError> {
        recover_at(path.as_ref(), mapping, schema, policy)
    }
}

fn recover_at(
    path: &Path,
    mapping: &Mapping,
    schema: Option<Schema>,
    policy: FsyncPolicy,
) -> Result<Recovery, DogmatixError> {
    let ckpt = read_checkpoint(&checkpoint_path(path))?;
    let doc = Document::parse(&ckpt.doc_xml).map_err(|e| {
        wal_err(format!(
            "checkpoint document failed to re-parse (checksum passed — format bug?): {e}"
        ))
    })?;
    let mut session = if ckpt.infer_schema {
        if schema.is_some() {
            return Err(wal_err(
                "checkpoint session inferred its schema — recover with schema: None",
            ));
        }
        IncrementalSession::with_inferred_schema(doc, mapping, &ckpt.rw_type)?
    } else {
        let schema = schema.ok_or_else(|| {
            wal_err("checkpoint session used a fixed schema — pass it to recover")
        })?;
        IncrementalSession::new(doc, schema, mapping, &ckpt.rw_type)?
    };

    if let Some(store) = ckpt.store {
        // The snapshot carries no node ids; re-attach the freshly
        // selected candidates (row i of the store was built from
        // candidate i — both follow document order).
        let ods = odset_from_paged_bytes(
            store.snapshot,
            &store.selections,
            doc_fingerprint(session.doc()),
        )
        .and_then(|ods| attach_candidates(ods, &session.candidates().nodes))
        .map_err(|e| wal_err(format!("checkpoint store snapshot rejected: {e}")))?;
        session.prefill_extraction(&ods, &store.selections);
    }

    let scan = scan_log(path, ckpt.lsn)?;
    let mut replayed = 0;
    let mut skipped = 0;
    for delta in &scan.deltas {
        match session.apply(delta) {
            Ok(()) => replayed += 1,
            // A delta that failed to apply live (bad index, dangling
            // path) left no state behind; replay starts from the same
            // base, so it fails identically here. Skipping reconverges.
            Err(_) => skipped += 1,
        }
    }

    // Re-open for appending, dropping any torn tail so new frames never
    // land behind garbage.
    let mut file = std::fs::OpenOptions::new()
        .write(true)
        .open(path)
        .map_err(|e| wal_err(format!("cannot re-open log {}: {e}", path.display())))?;
    file.set_len(scan.valid_end)
        .and_then(|()| file.seek(SeekFrom::End(0)))
        .and_then(|_| file.sync_data())
        .map_err(|e| {
            wal_err(format!(
                "cannot truncate torn tail of {}: {e}",
                path.display()
            ))
        })?;

    let wal = Wal {
        file,
        path: path.to_path_buf(),
        policy,
        next_lsn: scan.last_lsn.max(ckpt.lsn) + 1,
        checkpoint_lsn: ckpt.lsn,
        appended_since_checkpoint: (replayed + skipped) as u64,
        dirty: false,
    };
    Ok(Recovery {
        session,
        wal,
        report: RecoveryReport {
            checkpoint_lsn: ckpt.lsn,
            replayed,
            skipped,
            dropped_tail: scan.dropped_tail,
        },
    })
}

// ---- log scan ---------------------------------------------------------

struct LogScan {
    /// Decoded deltas of valid frames with `lsn > checkpoint_lsn`.
    deltas: Vec<DocumentDelta>,
    /// LSN of the last valid frame (0 = none).
    last_lsn: u64,
    /// Byte offset just after the last valid frame.
    valid_end: u64,
    dropped_tail: Option<DogmatixError>,
}

/// Walks the log's frames, stopping (not failing) at the first invalid
/// one. A corrupt file header is fatal: no frame boundary is
/// trustworthy without it.
fn scan_log(path: &Path, checkpoint_lsn: u64) -> Result<LogScan, DogmatixError> {
    let data = std::fs::read(path)
        .map_err(|e| wal_err(format!("cannot read log {}: {e}", path.display())))?;
    if data.is_empty() {
        // A crash in `create` between opening and writing the header
        // leaves an empty file: no frames, nothing torn.
        return Ok(LogScan {
            deltas: Vec::new(),
            last_lsn: 0,
            valid_end: 0,
            dropped_tail: None,
        });
    }
    let mut header = Cursor::new(&data);
    if header.take(4).ok() != Some(&LOG_MAGIC[..]) {
        return Err(wal_err(format!(
            "{} is not a DogmatiX write-ahead log (bad header magic)",
            path.display()
        )));
    }
    let version = header
        .u32()
        .map_err(|e| wal_err(format!("log header {e}")))?;
    if version != WAL_VERSION {
        return Err(wal_err(format!(
            "unsupported log version {version} (this build reads {WAL_VERSION})"
        )));
    }

    let mut deltas = Vec::new();
    let mut last_lsn = 0u64;
    let mut pos = LOG_HEADER_LEN as usize;
    let mut dropped_tail = None;
    while pos < data.len() {
        match read_frame(&data, pos, last_lsn) {
            Ok((lsn, delta, next)) => {
                if lsn > checkpoint_lsn {
                    deltas.push(delta);
                }
                last_lsn = lsn;
                pos = next;
            }
            Err(tear) => {
                dropped_tail = Some(wal_err(format!(
                    "dropped torn log tail at offset {pos} (after LSN {last_lsn}): {tear}"
                )));
                break;
            }
        }
    }
    Ok(LogScan {
        deltas,
        last_lsn,
        valid_end: pos as u64,
        dropped_tail,
    })
}

/// Decodes one frame at `pos`. Errors are *tears*: plain strings the
/// caller wraps into the structured report.
fn read_frame(
    data: &[u8],
    pos: usize,
    prev_lsn: u64,
) -> Result<(u64, DocumentDelta, usize), String> {
    let frame = data.get(pos..).unwrap_or_default();
    let mut c = Cursor::new(frame);
    let header = |e: String| format!("frame header {e}");
    let magic = c.u32().map_err(header)?;
    if magic != FRAME_MAGIC {
        return Err(format!("bad frame magic {magic:#010x}"));
    }
    let lsn = c.u64().map_err(header)?;
    if lsn <= prev_lsn {
        return Err(format!("LSN {lsn} not after previous LSN {prev_lsn}"));
    }
    let len = c.u32().map_err(header)?;
    if len > MAX_FRAME_LEN {
        return Err(format!("implausible frame length {len}"));
    }
    let payload = c
        .take(len as usize)
        .map_err(|e| format!("frame payload {e}"))?;
    let summed = c.position();
    let stored = c.u64().map_err(|e| format!("frame checksum {e}"))?;
    if codec::checksum(&frame[..summed]) != stored {
        return Err("frame checksum mismatch".to_string());
    }
    let delta = decode_delta(payload)?;
    Ok((lsn, delta, pos + c.position()))
}

// ---- delta codec ------------------------------------------------------
//
// Binary, not the line grammar: `DocumentDelta::parse` collapses
// whitespace at field boundaries, so a parse→format round trip is not
// the identity. Tag byte + u64 LE integers + u32-length-prefixed UTF-8
// strings round-trip every delta exactly.

/// A delta string, refused past the frame limit (no frame could hold
/// it).
fn push_str(buf: &mut Vec<u8>, s: &str) -> Result<(), String> {
    put_str(buf, s, MAX_FRAME_LEN, "delta string")
}

fn encode_delta(delta: &DocumentDelta) -> Result<Vec<u8>, String> {
    let mut buf = Vec::new();
    match delta {
        DocumentDelta::InsertXml { parent_path, xml } => {
            buf.push(0);
            push_str(&mut buf, parent_path)?;
            push_str(&mut buf, xml)?;
        }
        DocumentDelta::RemoveObject { index } => {
            buf.push(1);
            put_u64(&mut buf, *index as u64);
        }
        DocumentDelta::UpdateText {
            index,
            path,
            occurrence,
            value,
        } => {
            buf.push(2);
            put_u64(&mut buf, *index as u64);
            push_str(&mut buf, path)?;
            put_u64(&mut buf, *occurrence as u64);
            push_str(&mut buf, value)?;
        }
        DocumentDelta::InsertUnder {
            index,
            path,
            occurrence,
            xml,
        } => {
            buf.push(3);
            put_u64(&mut buf, *index as u64);
            push_str(&mut buf, path)?;
            put_u64(&mut buf, *occurrence as u64);
            push_str(&mut buf, xml)?;
        }
        DocumentDelta::RemoveElement {
            index,
            path,
            occurrence,
        } => {
            buf.push(4);
            put_u64(&mut buf, *index as u64);
            push_str(&mut buf, path)?;
            put_u64(&mut buf, *occurrence as u64);
        }
    }
    Ok(buf)
}

/// A u64 index, occurrence or count field, refused if it does not fit
/// usize.
fn read_usize(r: &mut Cursor<'_>) -> Result<usize, String> {
    let v = r.u64()?;
    usize::try_from(v).map_err(|_| format!("field value {v} exceeds usize"))
}

fn decode_delta(payload: &[u8]) -> Result<DocumentDelta, String> {
    let (&tag, rest) = payload.split_first().ok_or("empty delta payload")?;
    let r = &mut Cursor::new(rest);
    let delta = match tag {
        0 => DocumentDelta::InsertXml {
            parent_path: r.str()?,
            xml: r.str()?,
        },
        1 => DocumentDelta::RemoveObject {
            index: read_usize(r)?,
        },
        2 => DocumentDelta::UpdateText {
            index: read_usize(r)?,
            path: r.str()?,
            occurrence: read_usize(r)?,
            value: r.str()?,
        },
        3 => DocumentDelta::InsertUnder {
            index: read_usize(r)?,
            path: r.str()?,
            occurrence: read_usize(r)?,
            xml: r.str()?,
        },
        4 => DocumentDelta::RemoveElement {
            index: read_usize(r)?,
            path: r.str()?,
            occurrence: read_usize(r)?,
        },
        other => return Err(format!("unknown delta tag {other}")),
    };
    if !r.is_empty() {
        return Err("trailing bytes after delta payload".to_string());
    }
    Ok(delta)
}

// ---- checkpoint -------------------------------------------------------

struct CheckpointStore {
    selections: HashMap<String, BTreeSet<String>>,
    /// A complete DXTS snapshot image (its own header, directory, page
    /// checksums and pages).
    snapshot: Vec<u8>,
}

struct Checkpoint {
    lsn: u64,
    rw_type: String,
    infer_schema: bool,
    doc_xml: String,
    store: Option<CheckpointStore>,
}

/// The checkpoint sidecar of a log file.
fn checkpoint_path(log: &Path) -> PathBuf {
    let mut name = log.as_os_str().to_os_string();
    name.push(".ckpt");
    PathBuf::from(name)
}

/// Serialises and atomically installs (temp file, fsync, rename) the
/// checkpoint for `session` claiming coverage up to `lsn`.
fn write_checkpoint(
    log_path: &Path,
    session: &IncrementalSession,
    lsn: u64,
) -> Result<(), DogmatixError> {
    let string = |buf: &mut Vec<u8>, s: &str, what: &str| {
        put_str(buf, s, u32::MAX, what).map_err(|e| wal_err(format!("cannot checkpoint: {e}")))
    };
    let mut payload = Vec::new();
    put_u64(&mut payload, lsn);
    string(&mut payload, session.rw_type(), "real-world type")?;
    payload.push(session.infers_schema() as u8);
    string(&mut payload, &session.doc().to_xml(), "document")?;
    match session.clean_store() {
        Some((ods, selections)) => {
            payload.push(1);
            let mut keys: Vec<&String> = selections.keys().collect();
            keys.sort();
            put_u64(&mut payload, keys.len() as u64);
            for key in keys {
                string(&mut payload, key, "selection path")?;
                let sel = &selections[key];
                put_u64(&mut payload, sel.len() as u64);
                for p in sel {
                    string(&mut payload, p, "selected path")?;
                }
            }
            let image = paged_snapshot_to_bytes(
                ods,
                &selections,
                doc_fingerprint(session.doc()),
                DEFAULT_PAGE_SIZE,
            )?;
            put_u64(&mut payload, image.len() as u64);
            payload.extend_from_slice(&image);
        }
        None => payload.push(0),
    }

    let mut out = Vec::with_capacity(payload.len() + 24);
    out.extend_from_slice(CKPT_MAGIC);
    put_u32(&mut out, WAL_VERSION);
    put_u64(&mut out, codec::checksum(&payload));
    put_u64(&mut out, payload.len() as u64);
    out.extend_from_slice(&payload);

    let path = checkpoint_path(log_path);
    codec::atomic_write(&path, &out)
        .map_err(|e| wal_err(format!("cannot write checkpoint {}: {e}", path.display())))
}

/// Reads and validates the checkpoint file. Any corruption here is
/// fatal: without a trusted base state there is nothing to replay onto.
fn read_checkpoint(path: &Path) -> Result<Checkpoint, DogmatixError> {
    let data = std::fs::read(path)
        .map_err(|e| wal_err(format!("cannot read checkpoint {}: {e}", path.display())))?;
    let mut envelope = Cursor::new(&data);
    if data.len() < 24 || envelope.take(4).ok() != Some(&CKPT_MAGIC[..]) {
        return Err(wal_err(format!(
            "{} is not a DogmatiX checkpoint (bad magic)",
            path.display()
        )));
    }
    let fail = |e: String| wal_err(format!("checkpoint corrupted: {e}"));
    let version = envelope.u32().map_err(fail)?;
    if version != WAL_VERSION {
        return Err(wal_err(format!(
            "unsupported checkpoint version {version} (this build reads {WAL_VERSION})"
        )));
    }
    let stored = envelope.u64().map_err(fail)?;
    let payload_len = envelope.u64().map_err(fail)?;
    let payload = envelope
        .take(data.len() - 24)
        .ok()
        .filter(|p| p.len() as u64 == payload_len)
        .ok_or_else(|| wal_err("checkpoint truncated: payload shorter than header claims"))?;
    if codec::checksum(payload) != stored {
        return Err(wal_err("checkpoint corrupted: checksum mismatch"));
    }

    let r = &mut Cursor::new(payload);
    let lsn = r.u64().map_err(fail)?;
    let rw_type = r.str().map_err(fail)?;
    let infer_schema = r.u8().map_err(fail)? != 0;
    let doc_xml = r.str().map_err(fail)?;
    let has_store = r.u8().map_err(fail)? != 0;
    let store = if has_store {
        let n = read_usize(r).map_err(fail)?;
        let mut selections = HashMap::with_capacity(n);
        for _ in 0..n {
            let key = r.str().map_err(fail)?;
            let count = read_usize(r).map_err(fail)?;
            let mut sel = BTreeSet::new();
            for _ in 0..count {
                sel.insert(r.str().map_err(fail)?);
            }
            selections.insert(key, sel);
        }
        let image_len = read_usize(r).map_err(fail)?;
        let snapshot = r.take(image_len).map_err(fail)?.to_vec();
        Some(CheckpointStore {
            selections,
            snapshot,
        })
    } else {
        None
    };
    if !r.is_empty() {
        return Err(wal_err(
            "checkpoint corrupted: trailing bytes after payload",
        ));
    }
    Ok(Checkpoint {
        lsn,
        rw_type,
        infer_schema,
        doc_xml,
        store,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Dogmatix;

    fn detector() -> Dogmatix {
        Dogmatix::builder().add_type("M", ["/db/m"]).build()
    }

    fn corpus() -> Document {
        Document::parse(
            "<db><m><t>Alpha Song</t></m><m><t>Alpha Song</t></m><m><t>Beta Tune</t></m></db>",
        )
        .unwrap()
    }

    fn temp_log(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("dx_wal_unit");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}_{}.wal", std::process::id()))
    }

    #[test]
    fn delta_codec_round_trips_exactly() {
        let deltas = vec![
            DocumentDelta::InsertXml {
                parent_path: "/db".into(),
                xml: "<m><t>weird   spacing\n kept</t></m>".into(),
            },
            DocumentDelta::RemoveObject { index: 7 },
            DocumentDelta::UpdateText {
                index: 1,
                path: "t".into(),
                occurrence: 2,
                value: "  leading + trailing  ".into(),
            },
            DocumentDelta::InsertUnder {
                index: 0,
                path: ".".into(),
                occurrence: 0,
                xml: "<y>1999</y>".into(),
            },
            DocumentDelta::RemoveElement {
                index: 3,
                path: "a/b".into(),
                occurrence: 1,
            },
        ];
        for d in &deltas {
            let bytes = encode_delta(d).unwrap();
            assert_eq!(&decode_delta(&bytes).unwrap(), d);
        }
        assert!(decode_delta(&[]).is_err());
        assert!(decode_delta(&[9]).is_err());
        // Trailing garbage after a well-formed delta is corruption.
        let mut bytes = encode_delta(&deltas[1]).unwrap();
        bytes.push(0);
        assert!(decode_delta(&bytes).is_err());
    }

    #[test]
    fn create_append_recover_round_trip() {
        let log = temp_log("roundtrip");
        let dx = detector();
        let mut s = dx.incremental_session_inferred(corpus(), "M").unwrap();
        let mut wal = Wal::create(&log, &s, FsyncPolicy::Batch).unwrap();
        let d1 = DocumentDelta::parse("insert /db <m><t>Gamma Ray</t></m>").unwrap();
        let d2 = DocumentDelta::parse("update 3 t 0 Beta Tune").unwrap();
        assert_eq!(wal.append(&d1).unwrap(), 1);
        assert_eq!(wal.append(&d2).unwrap(), 2);
        wal.commit().unwrap();
        let live = dx.detect_delta(&mut s, &[d1, d2]).unwrap();

        let rec =
            IncrementalSession::recover(&log, dx.mapping(), None, FsyncPolicy::Batch).unwrap();
        assert_eq!(rec.report.replayed, 2);
        assert_eq!(rec.report.skipped, 0);
        assert!(rec.report.dropped_tail.is_none());
        assert_eq!(rec.wal.last_lsn(), 2);
        let mut recovered = rec.session;
        let replayed = dx.detect_delta(&mut recovered, &[]).unwrap();
        assert_eq!(replayed, live);
    }

    #[test]
    fn checkpoint_truncates_and_warm_starts() {
        let log = temp_log("checkpoint");
        let dx = detector();
        let mut s = dx.incremental_session_inferred(corpus(), "M").unwrap();
        let mut wal = Wal::create(&log, &s, FsyncPolicy::Never).unwrap();
        let d1 = DocumentDelta::parse("insert /db <m><t>Gamma Ray</t></m>").unwrap();
        wal.append(&d1).unwrap();
        let live = dx.detect_delta(&mut s, &[d1]).unwrap();
        // Clean session → the checkpoint embeds the store snapshot.
        assert!(s.clean_store().is_some());
        assert_eq!(wal.checkpoint(&s).unwrap(), 1);
        assert_eq!(wal.appended_since_checkpoint(), 0);
        assert_eq!(
            std::fs::metadata(&log).unwrap().len(),
            LOG_HEADER_LEN,
            "checkpoint truncates the log"
        );

        let _ = live;
        let d2 = DocumentDelta::parse("remove 0").unwrap();
        assert_eq!(
            wal.append(&d2).unwrap(),
            2,
            "LSNs continue across checkpoints"
        );
        let live = dx.detect_delta(&mut s, &[d2]).unwrap();

        let rec =
            IncrementalSession::recover(&log, dx.mapping(), None, FsyncPolicy::Never).unwrap();
        assert_eq!(rec.report.checkpoint_lsn, 1);
        assert_eq!(rec.report.replayed, 1);
        assert!(
            rec.session.cached_extractions() > 0,
            "warm start prefills extraction from the embedded snapshot"
        );
        let mut recovered = rec.session;
        assert_eq!(dx.detect_delta(&mut recovered, &[]).unwrap(), live);
    }

    #[test]
    fn torn_tail_is_dropped_and_truncated() {
        let log = temp_log("torn");
        let dx = detector();
        let s = dx.incremental_session_inferred(corpus(), "M").unwrap();
        let mut wal = Wal::create(&log, &s, FsyncPolicy::Never).unwrap();
        let d1 = DocumentDelta::parse("insert /db <m><t>Gamma Ray</t></m>").unwrap();
        let d2 = DocumentDelta::parse("remove 0").unwrap();
        wal.append(&d1).unwrap();
        wal.append(&d2).unwrap();
        wal.commit().unwrap();
        drop(wal);
        // Tear the last frame mid-payload.
        let full = std::fs::metadata(&log).unwrap().len();
        let file = std::fs::OpenOptions::new().write(true).open(&log).unwrap();
        file.set_len(full - 9).unwrap();
        drop(file);

        let rec =
            IncrementalSession::recover(&log, dx.mapping(), None, FsyncPolicy::Never).unwrap();
        assert_eq!(rec.report.replayed, 1, "only the intact frame replays");
        let tail = rec.report.dropped_tail.as_ref().unwrap();
        assert!(matches!(tail, DogmatixError::Wal { .. }));
        assert_eq!(tail.kind(), "wal");
        // The torn bytes are gone: appending after recovery yields a log
        // that replays cleanly.
        let mut wal = rec.wal;
        let mut s2 = rec.session;
        assert_eq!(wal.last_lsn(), 1);
        wal.append(&d2).unwrap();
        wal.commit().unwrap();
        let live = dx.detect_delta(&mut s2, &[d2]).unwrap();
        let rec2 =
            IncrementalSession::recover(&log, dx.mapping(), None, FsyncPolicy::Never).unwrap();
        assert!(rec2.report.dropped_tail.is_none());
        let mut s3 = rec2.session;
        assert_eq!(dx.detect_delta(&mut s3, &[]).unwrap(), live);
    }

    #[test]
    fn missing_and_corrupt_checkpoints_are_fatal() {
        let log = temp_log("fatal");
        let dx = detector();
        let s = dx.incremental_session_inferred(corpus(), "M").unwrap();
        let wal = Wal::create(&log, &s, FsyncPolicy::Never).unwrap();
        drop(wal);
        // Flip a payload byte in the checkpoint: checksum must catch it.
        let ckpt = checkpoint_path(&log);
        let mut data = std::fs::read(&ckpt).unwrap();
        let last = data.len() - 1;
        data[last] ^= 0xFF;
        std::fs::write(&ckpt, &data).unwrap();
        let err =
            IncrementalSession::recover(&log, dx.mapping(), None, FsyncPolicy::Never).unwrap_err();
        assert_eq!(err.kind(), "wal");
        std::fs::remove_file(&ckpt).unwrap();
        let err =
            IncrementalSession::recover(&log, dx.mapping(), None, FsyncPolicy::Never).unwrap_err();
        assert_eq!(err.kind(), "wal");
    }

    #[test]
    fn fixed_schema_sessions_need_a_schema_to_recover() {
        let log = temp_log("fixed_schema");
        let dx = detector();
        let doc = corpus();
        let schema = Schema::infer(&doc).unwrap();
        let s = IncrementalSession::new(doc, schema.clone(), dx.mapping(), "M").unwrap();
        let wal = Wal::create(&log, &s, FsyncPolicy::Never).unwrap();
        drop(wal);
        let err =
            IncrementalSession::recover(&log, dx.mapping(), None, FsyncPolicy::Never).unwrap_err();
        assert_eq!(err.kind(), "wal");
        let rec = IncrementalSession::recover(&log, dx.mapping(), Some(schema), FsyncPolicy::Never)
            .unwrap();
        assert_eq!(rec.session.rw_type(), "M");
        // And the inverse: inferred sessions must not be given one.
        let log2 = temp_log("inferred");
        let s2 = dx.incremental_session_inferred(corpus(), "M").unwrap();
        let wal2 = Wal::create(&log2, &s2, FsyncPolicy::Never).unwrap();
        drop(wal2);
        let schema2 = Schema::infer(&corpus()).unwrap();
        let err =
            IncrementalSession::recover(&log2, dx.mapping(), Some(schema2), FsyncPolicy::Never)
                .unwrap_err();
        assert_eq!(err.kind(), "wal");
    }

    #[test]
    fn frames_past_the_replay_limit_are_refused_before_writing() {
        // The limit check itself, at the boundary, without allocating a
        // gigabyte: the writer refuses exactly what replay would drop.
        assert_eq!(
            frame_len(MAX_FRAME_LEN as usize).unwrap(),
            MAX_FRAME_LEN,
            "the limit itself is a legal frame"
        );
        let err = frame_len(MAX_FRAME_LEN as usize + 1).unwrap_err();
        assert!(matches!(err, DogmatixError::Wal { .. }), "{err}");
        assert!(
            err.to_string().contains(&MAX_FRAME_LEN.to_string()),
            "{err}"
        );
    }

    #[test]
    fn checkpoint_images_of_another_version_fail_recovery_cleanly() {
        let log = temp_log("image_version");
        let dx = detector();
        let mut s = dx.incremental_session_inferred(corpus(), "M").unwrap();
        let mut wal = Wal::create(&log, &s, FsyncPolicy::Never).unwrap();
        dx.detect_delta(&mut s, &[]).unwrap();
        wal.checkpoint(&s).unwrap();
        drop(wal);
        // Relabel the embedded image (found by its DXTS magic) as the
        // retired flat version 1, and re-seal the envelope checksum so
        // only the image's own version check can object.
        let ckpt = checkpoint_path(&log);
        let mut data = std::fs::read(&ckpt).unwrap();
        let at = data
            .windows(4)
            .position(|w| w == b"DXTS")
            .expect("clean checkpoint embeds a store image");
        for version in [1u32, 3] {
            data[at + 4..at + 8].copy_from_slice(&version.to_le_bytes());
            let sum = codec::checksum(&data[24..]);
            data[8..16].copy_from_slice(&sum.to_le_bytes());
            std::fs::write(&ckpt, &data).unwrap();
            let err = IncrementalSession::recover(&log, dx.mapping(), None, FsyncPolicy::Never)
                .unwrap_err();
            assert!(matches!(err, DogmatixError::Wal { .. }), "{err}");
            let msg = err.to_string();
            assert!(msg.contains(&format!("version {version}")), "{msg}");
            assert!(msg.contains("version 2"), "{msg}");
        }
    }

    #[test]
    fn fsync_policy_parses_cli_spellings() {
        assert_eq!(FsyncPolicy::parse("always").unwrap(), FsyncPolicy::Always);
        assert_eq!(FsyncPolicy::parse("batch").unwrap(), FsyncPolicy::Batch);
        assert_eq!(FsyncPolicy::parse("never").unwrap(), FsyncPolicy::Never);
        assert!(FsyncPolicy::parse("sometimes").is_err());
        assert_eq!(FsyncPolicy::Batch.to_string(), "batch");
        assert_eq!(FsyncPolicy::default(), FsyncPolicy::Batch);
    }
}
