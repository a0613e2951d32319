//! The DXTS snapshot format (version 3) and its backend,
//! [`SnapshotBackend`].
//!
//! A snapshot is one sealed record (the `store::codec` envelope: magic
//! `DXTS`, version, payload checksum, payload length) whose payload is
//!
//! ```text
//! meta     object count u32, selection fingerprint u64,
//!          document fingerprint u64                        20 bytes
//! columns  18 times: element count u32, then the elements LE
//! ```
//!
//! The 18 columns are the store's (arena bytes, term spans/types/
//! char-lens/IDF bits, CSR posting starts + postings, type/path name
//! spans, per-type stats) and then the OD set's (od starts, tuple
//! term/value/path, group starts/types/members). A span is two u32s
//! (start, length), an IDF the u64 bits of its f64, a type stat three
//! u32s.
//!
//! A load streams the payload front to back through one reader: a file
//! through one fixed-size read buffer, an in-memory image (a WAL
//! checkpoint's store) in place. The reader refuses a wrong magic or
//! version and a length that disagrees with the bytes present, bounds
//! every column count before allocating for it, and checks the
//! checksum once every byte is read. The fingerprints are checked as
//! soon as the meta record is read; the set is assembled only after
//! the checksum passed, and is returned only after a full
//! [`StoreAuditor`] pass.

use super::{
    attach_candidates, checked_u32, doc_fingerprint, selection_fingerprint, snap_err, IndexContext,
    TermIndexBackend,
};
use crate::error::DogmatixError;
use crate::od::{OdSet, TermId};
use crate::store::audit::StoreAuditor;
use crate::store::codec::{self, put_u32, put_u64, SealError, SealedReader, MAX_ARRAY_LEN};
use crate::store::{PathId, Span, TermStore, TypeStats};
use std::collections::{BTreeSet, HashMap};
use std::io::{BufReader, Read};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"DXTS";

/// The snapshot format version this build writes and reads.
pub const SNAPSHOT_VERSION: u32 = 3;

// ---- writer -----------------------------------------------------------

/// Appends a column's element count, refused past the limit the reader
/// enforces.
fn put_count(buf: &mut Vec<u8>, n: usize, what: &str) -> Result<(), DogmatixError> {
    let n = codec::checked_u32(n, MAX_ARRAY_LEN, what)
        .map_err(|e| snap_err(format!("{e} — the corpus is too large for one snapshot")))?;
    put_u32(buf, n);
    Ok(())
}

fn put_u32s(buf: &mut Vec<u8>, vs: &[u32], what: &str) -> Result<(), DogmatixError> {
    put_count(buf, vs.len(), what)?;
    for &v in vs {
        put_u32(buf, v);
    }
    Ok(())
}

fn put_spans(buf: &mut Vec<u8>, vs: &[Span], what: &str) -> Result<(), DogmatixError> {
    put_count(buf, vs.len(), what)?;
    for &s in vs {
        put_u32(buf, s.start_raw());
        put_u32(buf, checked_u32(s.len(), "span length")?);
    }
    Ok(())
}

/// Serialises an [`OdSet`] (minus its document-state node ids) to a
/// complete, sealed snapshot image. [`crate::wal`] checkpoints embed
/// this image.
pub fn snapshot_to_bytes(
    ods: &OdSet,
    selections: &HashMap<String, BTreeSet<String>>,
    doc_fingerprint: u64,
) -> Result<Vec<u8>, DogmatixError> {
    let (
        store,
        od_starts,
        tuple_term,
        tuple_value,
        tuple_path,
        od_group_starts,
        group_types,
        group_starts,
        group_tuples,
    ) = ods.columns();

    let b = &mut Vec::new();
    put_u32(b, checked_u32(ods.len(), "object count")?);
    put_u64(b, selection_fingerprint(ods.len(), selections));
    put_u64(b, doc_fingerprint);

    put_count(b, store.arena_bytes().len(), "arena")?;
    b.extend_from_slice(store.arena_bytes());
    put_spans(b, store.term_norm_spans(), "term spans")?;
    put_u32s(b, store.term_types(), "term types")?;
    put_u32s(b, store.term_char_lens(), "term char lens")?;
    put_count(b, store.term_idfs().len(), "term idfs")?;
    for &v in store.term_idfs() {
        put_u64(b, v.to_bits());
    }
    put_u32s(b, store.posting_starts(), "posting starts")?;
    put_u32s(b, store.postings_raw(), "postings")?;
    put_spans(b, store.type_name_spans(), "type names")?;
    put_spans(b, store.path_name_spans(), "path names")?;
    put_count(b, store.type_stats().len(), "type stats")?;
    for s in store.type_stats() {
        put_u32(b, s.terms);
        put_u32(b, s.tuples);
        put_u32(b, s.postings);
    }
    put_u32s(b, od_starts, "od starts")?;
    let term_ids: Vec<u32> = tuple_term.iter().map(|t| t.0).collect();
    put_u32s(b, &term_ids, "tuple terms")?;
    put_spans(b, tuple_value, "tuple values")?;
    let path_ids: Vec<u32> = tuple_path.iter().map(|p| p.0).collect();
    put_u32s(b, &path_ids, "tuple paths")?;
    put_u32s(b, od_group_starts, "od group starts")?;
    put_u32s(b, group_types, "group types")?;
    put_u32s(b, group_starts, "group starts")?;
    put_u32s(b, group_tuples, "group tuples")?;
    Ok(codec::seal(MAGIC, SNAPSHOT_VERSION, b))
}

/// Atomically installs a snapshot image at `path`, reporting failure as
/// a [`DogmatixError::Snapshot`].
pub(crate) fn install(path: &Path, image: &[u8]) -> Result<(), DogmatixError> {
    codec::atomic_write(path, image)
        .map_err(|e| snap_err(format!("cannot write snapshot {}: {e}", path.display())))
}

// ---- reader -----------------------------------------------------------

/// A refused sealed record as a [`DogmatixError::Snapshot`]; a retired
/// or unknown version is named beside the one this build reads.
fn seal_err(e: SealError) -> DogmatixError {
    match e {
        SealError::Magic => snap_err("not a DogmatiX term-index snapshot (bad magic)"),
        SealError::Version(v) => snap_err(format!(
            "unsupported snapshot version {v} (this build reads version \
             {SNAPSHOT_VERSION}) — rebuild it with --index-save"
        )),
        SealError::Damaged(m) => snap_err(format!("snapshot {m}")),
        SealError::Io(e) => snap_err(format!("cannot read snapshot: {e}")),
    }
}

/// One column: its count, bounded before the vector is allocated, then
/// `count` elements of `elem_bytes` each.
fn column<T, R: Read>(
    r: &mut SealedReader<R>,
    elem_bytes: u64,
    mut elem: impl FnMut(&mut SealedReader<R>) -> Result<T, SealError>,
) -> Result<Vec<T>, DogmatixError> {
    let n = r.count(elem_bytes).map_err(seal_err)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(elem(r).map_err(seal_err)?);
    }
    Ok(out)
}

fn u32s<R: Read>(r: &mut SealedReader<R>) -> Result<Vec<u32>, DogmatixError> {
    column(r, 4, SealedReader::u32)
}

fn spans<R: Read>(r: &mut SealedReader<R>) -> Result<Vec<Span>, DogmatixError> {
    column(r, 8, |r| Ok(Span::new(r.u32()?, r.u32()?)))
}

/// Streams the sealed record `source` holds (`present` bytes), checks
/// the fingerprints, the checksum and the full store audit, and
/// assembles the set. The returned set carries **no candidate nodes** —
/// the caller re-attaches the current run's.
fn decode(
    source: impl Read,
    present: u64,
    selections: &HashMap<String, BTreeSet<String>>,
    doc_fingerprint: u64,
) -> Result<OdSet, DogmatixError> {
    let mut r = SealedReader::open(source, present, MAGIC, SNAPSHOT_VERSION).map_err(seal_err)?;
    let object_count = r.u32().map_err(seal_err)?;
    let selection_fp = r.u64().map_err(seal_err)?;
    let doc_fp = r.u64().map_err(seal_err)?;
    if selection_fp != selection_fingerprint(object_count as usize, selections) {
        return Err(snap_err(
            "snapshot was built under a different description selection \
             (or candidate count) — rebuild it with --index-save",
        ));
    }
    if doc_fp != doc_fingerprint {
        return Err(snap_err(
            "snapshot was built from different document content — \
             rebuild it with --index-save",
        ));
    }

    let arena_len = r.count(1).map_err(seal_err)?;
    let arena = r.bytes(arena_len).map_err(seal_err)?;
    let term_spans = spans(&mut r)?;
    let term_types = u32s(&mut r)?;
    let term_char_lens = u32s(&mut r)?;
    let term_idfs = column(&mut r, 8, |r| r.u64().map(f64::from_bits))?;
    let posting_starts = u32s(&mut r)?;
    let postings = u32s(&mut r)?;
    let type_name_spans = spans(&mut r)?;
    let path_name_spans = spans(&mut r)?;
    let type_stats = column(&mut r, 12, |r| {
        Ok(TypeStats {
            terms: r.u32()?,
            tuples: r.u32()?,
            postings: r.u32()?,
        })
    })?;
    let od_starts = u32s(&mut r)?;
    let tuple_term = column(&mut r, 4, |r| r.u32().map(TermId))?;
    let tuple_value = spans(&mut r)?;
    let tuple_path = column(&mut r, 4, |r| r.u32().map(PathId))?;
    let od_group_starts = u32s(&mut r)?;
    let group_types = u32s(&mut r)?;
    let group_starts = u32s(&mut r)?;
    let group_tuples = u32s(&mut r)?;
    r.finish().map_err(seal_err)?;

    let arena = String::from_utf8(arena)
        .map_err(|_| snap_err("snapshot corrupted: arena is not valid UTF-8"))?;
    let store = TermStore::from_parts(
        arena,
        term_spans,
        term_types,
        term_char_lens,
        term_idfs,
        posting_starts,
        postings,
        type_name_spans,
        path_name_spans,
        type_stats,
        object_count,
    );
    let ods = OdSet::from_columns(
        Vec::new(),
        store,
        od_starts,
        tuple_term,
        tuple_value,
        tuple_path,
        od_group_starts,
        group_types,
        group_starts,
        group_tuples,
    );

    // Structural + semantic validation: the live-store auditor checks
    // everything detection will index (span bounds, CSR monotonicity,
    // id ranges, posting order) plus the invariants only a full audit
    // sees (interner consistency, IDF↔posting agreement, group/tuple
    // cross-consistency) — one shared implementation with the
    // stage-boundary gates, so a malformed file can never panic the
    // pipeline later. Construction above is pure moves; nothing indexes
    // the columns before the audit accepts them.
    let report = StoreAuditor::audit(&ods);
    if let Some(v) = report.violations().first() {
        return Err(snap_err(format!("snapshot fails the store audit: {v}")));
    }
    Ok(ods)
}

/// Verifies and reassembles a snapshot from an in-memory image, read in
/// place. Used by [`crate::wal`] checkpoint recovery.
pub(crate) fn odset_from_snapshot(
    image: &[u8],
    selections: &HashMap<String, BTreeSet<String>>,
    doc_fingerprint: u64,
) -> Result<OdSet, DogmatixError> {
    decode(image, image.len() as u64, selections, doc_fingerprint)
}

// ---- the backend ------------------------------------------------------

/// Whether a [`SnapshotBackend`] writes or reads its file.
#[derive(Debug, Clone, Copy)]
enum SnapshotMode {
    /// Build in memory, then persist the store to the file.
    Save,
    /// Load the store from the file (no extraction, no interning).
    Load,
}

/// The persistent term-index backend: DXTS snapshots saved after a
/// cold build and loaded by later runs.
///
/// [`SnapshotBackend::open`] loads (the common case);
/// [`SnapshotBackend::save`] builds in memory and writes the snapshot
/// file. A load streams the file through one fixed-size read buffer and
/// decodes the store into memory. Results are bit-identical to
/// [`InMemoryBackend`](super::InMemoryBackend) (`tests/equivalence.rs`).
///
/// ```no_run
/// use dogmatix_core::backend::snapshot::SnapshotBackend;
/// use dogmatix_core::pipeline::Dogmatix;
/// use dogmatix_xml::{Document, Schema};
///
/// let doc = Document::parse("<db><m><t>A</t></m><m><t>A</t></m></db>")?;
/// let schema = Schema::infer(&doc)?;
/// // First run: build in memory and persist the index.
/// Dogmatix::builder()
///     .add_type("M", ["/db/m"])
///     .index_backend(SnapshotBackend::save("/tmp/dx.index"))
///     .build()
///     .run(&doc, &schema, "M")?;
/// // Warm start from the snapshot.
/// let warm = Dogmatix::builder()
///     .add_type("M", ["/db/m"])
///     .index_backend(SnapshotBackend::open("/tmp/dx.index"))
///     .build()
///     .run(&doc, &schema, "M")?;
/// # let _ = warm;
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct SnapshotBackend {
    path: PathBuf,
    mode: SnapshotMode,
}

impl SnapshotBackend {
    /// A backend that warm-starts from the snapshot at `path`.
    pub fn open(path: impl Into<PathBuf>) -> SnapshotBackend {
        SnapshotBackend {
            path: path.into(),
            mode: SnapshotMode::Load,
        }
    }

    /// A backend that builds in memory and saves the snapshot to `path`.
    pub fn save(path: impl Into<PathBuf>) -> SnapshotBackend {
        SnapshotBackend {
            path: path.into(),
            mode: SnapshotMode::Save,
        }
    }
}

impl TermIndexBackend for SnapshotBackend {
    fn acquire(&self, ctx: IndexContext<'_>) -> Result<Arc<OdSet>, DogmatixError> {
        match self.mode {
            SnapshotMode::Save => {
                let ods = OdSet::build(ctx.doc, ctx.candidates, ctx.selections, ctx.mapping);
                let image = snapshot_to_bytes(&ods, ctx.selections, doc_fingerprint(ctx.doc))?;
                install(&self.path, &image)?;
                Ok(Arc::new(ods))
            }
            SnapshotMode::Load => {
                let cannot =
                    |e| snap_err(format!("cannot read snapshot {}: {e}", self.path.display()));
                let file = std::fs::File::open(&self.path).map_err(cannot)?;
                let present = file.metadata().map_err(cannot)?.len();
                let ods = decode(
                    BufReader::new(file),
                    present,
                    ctx.selections,
                    doc_fingerprint(ctx.doc),
                )?;
                Ok(Arc::new(attach_candidates(ods, ctx.candidates)?))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::InMemoryBackend;
    use crate::pipeline::Dogmatix;
    use dogmatix_xml::{Document, Schema};

    fn corpus() -> (Document, Schema) {
        let mut xml = String::from("<db>");
        for i in 0..40 {
            let t = if i % 7 == 0 { "Common Song" } else { "Track" };
            xml.push_str(&format!(
                "<m><t>{t} {}</t><y>{}</y></m>",
                i / 2,
                1990 + i % 9
            ));
        }
        xml.push_str("</db>");
        let doc = Document::parse(&xml).unwrap();
        let schema = Schema::infer(&doc).unwrap();
        (doc, schema)
    }

    fn detector(backend: impl TermIndexBackend + 'static) -> Dogmatix {
        Dogmatix::builder()
            .add_type("M", ["/db/m"])
            .index_backend(backend)
            .build()
    }

    fn temp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("dx_snapshot_unit");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{tag}.{}.dxts", std::process::id()))
    }

    #[test]
    fn snapshot_roundtrip_matches_in_memory() {
        let path = temp("roundtrip");
        let (doc, schema) = corpus();
        let cold = detector(SnapshotBackend::save(&path))
            .run(&doc, &schema, "M")
            .unwrap();
        let warm = detector(SnapshotBackend::open(&path))
            .run(&doc, &schema, "M")
            .unwrap();
        let in_memory = detector(InMemoryBackend).run(&doc, &schema, "M").unwrap();
        assert_eq!(cold, warm);
        assert_eq!(warm, in_memory);
        // The file is the envelope plus exactly the declared payload.
        let data = std::fs::read(&path).unwrap();
        let declared = u64::from_le_bytes(data[16..24].try_into().unwrap());
        assert_eq!(data.len() as u64, codec::ENVELOPE_LEN as u64 + declared);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn version_cross_errors_name_both_versions() {
        // A file labelled with a retired version (or any other) is
        // refused naming its version and the one this build reads.
        let (doc, schema) = corpus();
        let path = temp("relabelled");
        detector(SnapshotBackend::save(&path))
            .run(&doc, &schema, "M")
            .unwrap();
        let mut data = std::fs::read(&path).unwrap();
        for version in [1u32, 2] {
            data[4..8].copy_from_slice(&version.to_le_bytes());
            std::fs::write(&path, &data).unwrap();
            let err = detector(SnapshotBackend::open(&path))
                .run(&doc, &schema, "M")
                .unwrap_err();
            let msg = err.to_string();
            assert!(matches!(err, DogmatixError::Snapshot { .. }), "{msg}");
            assert!(msg.contains(&format!("version {version}")), "{msg}");
            assert!(msg.contains("version 3"), "{msg}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn every_byte_of_the_image_is_checksum_protected() {
        // FNV-1a and mix64 both change under any one-byte change, so
        // every single flip — envelope or payload — must be refused.
        let (doc, schema) = corpus();
        let result = detector(InMemoryBackend).run(&doc, &schema, "M").unwrap();
        let selections = HashMap::new();
        let image = snapshot_to_bytes(&result.ods, &selections, 7).unwrap();
        odset_from_snapshot(&image, &selections, 7).expect("intact image loads");
        let mut mutated = image.clone();
        for at in 0..image.len() {
            mutated[at] ^= 0x01;
            let err = odset_from_snapshot(&mutated, &selections, 7)
                .expect_err("a flipped byte must be refused");
            assert!(
                matches!(err, DogmatixError::Snapshot { .. }),
                "byte {at}: {err}"
            );
            mutated[at] ^= 0x01;
        }
    }
}
