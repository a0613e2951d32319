//! Pluggable term-index backends: where a run's columnar [`OdSet`]
//! comes from.
//!
//! The ROADMAP's "alternative backends (persistent term index) → a
//! `SimilarityMeasure` whose `prepare` builds the backend state" lands
//! here: the [`TermIndexBackend`] trait decides how the term-index state
//! every [`crate::stage::SimilarityMeasure::prepare`] call reads (the
//! store inside [`crate::stage::SimContext::ods`]) is produced —
//!
//! * [`InMemoryBackend`] (the default) extracts and interns the corpus
//!   into a fresh in-memory arena, exactly what
//!   [`OdSet::build`] always did;
//! * [`snapshot::SnapshotBackend`] persists the columnar store to a
//!   **versioned, checksummed snapshot file** and warm-starts later
//!   runs from it, skipping extraction and interning entirely: a load
//!   streams the file through one fixed-size buffer and decodes the
//!   store into memory. The columnar layout makes this nearly free: a
//!   store *is* a handful of flat arrays.
//!
//! Backends are wired with
//! [`crate::pipeline::DogmatixBuilder::index_backend`]; the CLI exposes
//! them as `--index-save` / `--index-load`.
//!
//! There is one snapshot format, DXTS version 3 — one sealed record
//! (magic, version, payload checksum, payload length) holding a meta
//! record and the store's columns; see [`snapshot`] for the layout.
//! WAL checkpoints ([`crate::wal`]) embed the same image.
//!
//! Loading validates magic, version, the exact file length, a checksum
//! over every payload byte, UTF-8 of the arena, and the structural
//! invariants of every column (span bounds, CSR monotonicity, id
//! ranges), so corrupted, truncated, or wrong-version files are
//! rejected with a [`DogmatixError::Snapshot`] — never a panic. A
//! fingerprint of the candidate count and description selection is
//! stored and re-checked, so a snapshot cannot silently warm-start a
//! run whose selection no longer matches. Equality is the contract: a
//! snapshot-loaded run is bit-identical to a cold build over the same
//! corpus (`tests/snapshot.rs`, `tests/equivalence.rs`).
//!
//! ```no_run
//! use dogmatix_core::backend::snapshot::SnapshotBackend;
//! use dogmatix_core::pipeline::Dogmatix;
//! use dogmatix_xml::{Document, Schema};
//!
//! let doc = Document::parse("<db><m><t>A</t></m><m><t>A</t></m></db>")?;
//! let schema = Schema::infer(&doc)?;
//! // First run: build in memory and persist the term index.
//! let cold = Dogmatix::builder()
//!     .add_type("M", ["/db/m"])
//!     .index_backend(SnapshotBackend::save("/tmp/dx.index"))
//!     .build()
//!     .run(&doc, &schema, "M")?;
//! // Warm start: no re-interning.
//! let warm = Dogmatix::builder()
//!     .add_type("M", ["/db/m"])
//!     .index_backend(SnapshotBackend::open("/tmp/dx.index"))
//!     .build()
//!     .run(&doc, &schema, "M")?;
//! assert_eq!(cold, warm);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod snapshot;

use crate::error::DogmatixError;
use crate::mapping::Mapping;
use crate::od::OdSet;
use crate::store::codec;
use dogmatix_xml::{Document, NodeId};
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::Arc;

/// Everything a backend may read when producing the run's OD set.
#[derive(Debug, Clone, Copy)]
pub struct IndexContext<'a> {
    /// The source document.
    pub doc: &'a Document,
    /// Candidate element nodes, aligned with OD indices.
    pub candidates: &'a [NodeId],
    /// Description selection per candidate schema path.
    pub selections: &'a HashMap<String, BTreeSet<String>>,
    /// The type mapping `M`.
    pub mapping: &'a Mapping,
}

/// Where the columnar term-index state of a run comes from.
///
/// Implementations must uphold the pipeline's equality contract: the
/// returned set must be identical to `OdSet::build` over the context —
/// either by building it (in memory) or by loading a snapshot of that
/// exact build.
pub trait TermIndexBackend: fmt::Debug + Send + Sync {
    /// Builds or loads the OD set for this run.
    fn acquire(&self, ctx: IndexContext<'_>) -> Result<Arc<OdSet>, DogmatixError>;
}

/// The default backend: build the columnar store in memory.
///
/// ```
/// use dogmatix_core::backend::InMemoryBackend;
/// // `Default` and unit-struct construction are equivalent.
/// let _ = InMemoryBackend;
/// let _ = InMemoryBackend::default();
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InMemoryBackend;

impl TermIndexBackend for InMemoryBackend {
    fn acquire(&self, ctx: IndexContext<'_>) -> Result<Arc<OdSet>, DogmatixError> {
        Ok(Arc::new(OdSet::build(
            ctx.doc,
            ctx.candidates,
            ctx.selections,
            ctx.mapping,
        )))
    }
}

/// Re-attaches the current run's candidate nodes to a freshly loaded
/// set, refusing a snapshot built against a different document state.
pub(crate) fn attach_candidates(
    mut ods: OdSet,
    candidates: &[NodeId],
) -> Result<OdSet, DogmatixError> {
    let stored = ods.store().object_count();
    if stored != candidates.len() {
        return Err(snap_err(format!(
            "snapshot holds {stored} objects but the corpus resolves {} candidates \
             — it was built against a different document state",
            candidates.len()
        )));
    }
    ods.set_nodes(candidates.to_vec());
    Ok(ods)
}

pub(crate) fn snap_err(message: impl Into<String>) -> DogmatixError {
    DogmatixError::Snapshot {
        message: message.into(),
    }
}

/// Converts a host-side length into a u32 snapshot field, refusing
/// (rather than truncating) anything past `u32::MAX`. An arena or OD
/// table that large would otherwise wrap silently into a
/// corrupt-but-checksummed snapshot.
pub(crate) fn checked_u32(value: usize, what: &str) -> Result<u32, DogmatixError> {
    codec::checked_u32(value, u32::MAX, what)
        .map_err(|e| snap_err(format!("{e} — the corpus is too large for one snapshot")))
}

/// Fingerprint of the document content a snapshot was built from:
/// the checksum of its canonical serialisation. Serialising is O(doc)
/// but far cheaper than the extraction + normalisation + interning a
/// warm start skips, and it catches the silent-staleness case the
/// candidate count cannot: an in-place value edit that leaves the
/// corpus shape untouched. Also used by [`crate::wal`] checkpoints to
/// bind an embedded store snapshot to the checkpointed document.
pub(crate) fn doc_fingerprint(doc: &Document) -> u64 {
    codec::checksum(doc.to_xml().as_bytes())
}

/// Order-independent fingerprint of the candidate count and the
/// description selection the store was built under.
pub(crate) fn selection_fingerprint(
    object_count: usize,
    selections: &HashMap<String, BTreeSet<String>>,
) -> u64 {
    let mut keys: Vec<String> = selections
        .iter()
        .map(|(path, sel)| {
            let mut s = path.clone();
            for p in sel {
                s.push('\u{1f}');
                s.push_str(p);
            }
            s
        })
        .collect();
    keys.sort();
    let mut h: u64 = dogmatix_textsim::mix64(object_count as u64);
    for k in keys {
        h = dogmatix_textsim::mix64(h ^ codec::checksum(k.as_bytes()));
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::snapshot::SnapshotBackend;
    use crate::pipeline::Dogmatix;
    use crate::store::Span;
    use dogmatix_xml::Schema;

    fn corpus() -> (Document, Schema) {
        let doc = Document::parse(
            "<db><m><t>Alpha Song</t><y>1999</y></m>\
                 <m><t>Alpha Song</t><y>1999</y></m>\
                 <m><t>Beta Tune</t><y>2002</y></m></db>",
        )
        .unwrap();
        let schema = Schema::infer(&doc).unwrap();
        (doc, schema)
    }

    fn detector(backend: impl TermIndexBackend + 'static) -> Dogmatix {
        Dogmatix::builder()
            .add_type("M", ["/db/m"])
            .index_backend(backend)
            .build()
    }

    #[test]
    fn snapshot_roundtrip_is_bit_identical() {
        let dir = std::env::temp_dir().join("dx_backend_roundtrip");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.index");
        let (doc, schema) = corpus();
        let cold = detector(SnapshotBackend::save(&path))
            .run(&doc, &schema, "M")
            .unwrap();
        let warm = detector(SnapshotBackend::open(&path))
            .run(&doc, &schema, "M")
            .unwrap();
        assert_eq!(cold, warm);
        let in_memory = Dogmatix::builder()
            .add_type("M", ["/db/m"])
            .build()
            .run(&doc, &schema, "M")
            .unwrap();
        assert_eq!(cold, in_memory, "backends must not change results");
    }

    #[test]
    fn load_rejects_missing_wrong_magic_and_wrong_version() {
        let dir = std::env::temp_dir().join("dx_backend_reject");
        std::fs::create_dir_all(&dir).unwrap();
        let (doc, schema) = corpus();
        let missing = detector(SnapshotBackend::open(dir.join("nope.index")))
            .run(&doc, &schema, "M")
            .unwrap_err();
        assert!(matches!(missing, DogmatixError::Snapshot { .. }));

        let bad_magic = dir.join("bad_magic.index");
        std::fs::write(&bad_magic, b"NOPE????????????????????????").unwrap();
        let err = detector(SnapshotBackend::open(&bad_magic))
            .run(&doc, &schema, "M")
            .unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");

        // A valid file with a bumped version must be rejected.
        let path = dir.join("versioned.index");
        detector(SnapshotBackend::save(&path))
            .run(&doc, &schema, "M")
            .unwrap();
        let mut data = std::fs::read(&path).unwrap();
        data[4] = 0xFE;
        std::fs::write(&path, data).unwrap();
        let err = detector(SnapshotBackend::open(&path))
            .run(&doc, &schema, "M")
            .unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn checked_u32_names_the_field_and_the_limit() {
        assert_eq!(checked_u32(123, "span length").unwrap(), 123);
        assert_eq!(
            checked_u32(u32::MAX as usize, "span length").unwrap(),
            u32::MAX
        );
        let err = checked_u32(u32::MAX as usize + 1, "object count").unwrap_err();
        assert!(matches!(err, DogmatixError::Snapshot { .. }));
        let msg = err.to_string();
        assert!(msg.contains("object count"), "{msg}");
        assert!(msg.contains("u32"), "{msg}");
        assert!(msg.contains(&u32::MAX.to_string()), "{msg}");
    }

    #[test]
    fn atomic_write_failure_leaves_the_previous_file_intact() {
        let dir = std::env::temp_dir().join("dx_backend_atomic");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("target.index");
        std::fs::write(&path, b"previous contents").unwrap();
        // A directory squatting on the temp-file name makes the write
        // fail before the install step — the target must be untouched,
        // and the snapshot writer reports a Snapshot error.
        let tmp = dir.join("target.index.tmp");
        let _ = std::fs::remove_file(&tmp);
        std::fs::create_dir_all(&tmp).unwrap();
        let err = snapshot::install(&path, b"new contents").unwrap_err();
        assert!(matches!(err, DogmatixError::Snapshot { .. }), "{err}");
        assert_eq!(std::fs::read(&path).unwrap(), b"previous contents");
        std::fs::remove_dir_all(&tmp).unwrap();
        // With the obstruction gone the write lands and cleans up.
        snapshot::install(&path, b"new contents").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"new contents");
        assert!(!tmp.exists(), "temp file must not survive a save");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_rejects_a_selection_mismatch() {
        let dir = std::env::temp_dir().join("dx_backend_selection");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.index");
        let (doc, schema) = corpus();
        detector(SnapshotBackend::save(&path))
            .run(&doc, &schema, "M")
            .unwrap();
        // A different selection describes the corpus differently: the
        // snapshot must refuse to warm-start under it.
        let err = Dogmatix::builder()
            .add_type("M", ["/db/m"])
            .selector(crate::stage::ManualSelection::new().with("/db/m", ["/db/m/t"]))
            .index_backend(SnapshotBackend::open(&path))
            .build()
            .run(&doc, &schema, "M")
            .unwrap_err();
        assert!(
            err.to_string().contains("different description selection"),
            "{err}"
        );
    }

    #[test]
    fn overflowing_spans_are_rejected_not_wrapped() {
        // A span whose start + len wraps u32 must fail validation (the
        // widened end comparison), never slip through to a later panic
        // in `Span::resolve`.
        use crate::store::audit::{check_spans, AuditKind};
        let arena = "0123456789";
        let bad = Span::new(4, u32::MAX - 2);
        let mut out = Vec::new();
        check_spans(arena, &[bad], "test", &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].kind, AuditKind::SpanOutOfBounds);
        out.clear();
        let fine = Span::new(4, 3);
        check_spans(arena, &[fine], "test", &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn zero_object_snapshots_reject_dangling_postings() {
        // check_ids with the honest bound: a store claiming 0 objects
        // cannot carry any posting id.
        use crate::store::audit::{check_ids, AuditKind};
        let mut out = Vec::new();
        check_ids(&[0], 0, "posting", AuditKind::PostingOutOfRange, &mut out);
        assert_eq!(out.len(), 1);
        out.clear();
        check_ids(&[], 0, "posting", AuditKind::PostingOutOfRange, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn selection_fingerprint_is_order_independent() {
        let mut a = HashMap::new();
        a.insert(
            "/db/m".to_string(),
            ["/db/m/t".to_string(), "/db/m/y".to_string()]
                .into_iter()
                .collect::<BTreeSet<_>>(),
        );
        a.insert("/db/x".to_string(), BTreeSet::new());
        let b: HashMap<_, _> = a.clone().into_iter().collect();
        assert_eq!(selection_fingerprint(3, &a), selection_fingerprint(3, &b));
        assert_ne!(
            selection_fingerprint(3, &a),
            selection_fingerprint(4, &a),
            "candidate count is part of the fingerprint"
        );
    }
}
