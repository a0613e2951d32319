//! The DXTS snapshot format (version 2) and its backend,
//! [`PagedBackend`].
//!
//! Every store column is split into **fixed-size pages** behind a page
//! directory, each page with its own checksum:
//!
//! ```text
//! offset  field
//! 0       magic   b"DXTS"
//! 4       version u32 LE        = 2
//! 8       page_size u32 LE      multiple of 8, 64 ..= 2^26
//! 12      section_count u32 LE  = 19
//! 16      page_count u32 LE     total data pages
//! 20      header_len u32 LE     = 32 + 20·sections + 8·pages
//! 24      header_checksum u64   FNV-1a/mix64 over the header minus
//!                               this field
//! 32      directory             per section: id u32, first_page u32,
//!                               page_count u32, byte_len u64
//! …       page checksum table   u64 LE per data page
//! header_len                    data pages, page i at
//!                               header_len + i·page_size
//! ```
//!
//! Every section starts on a fresh page and its last page is
//! zero-padded, so page `p` of a section lives at block
//! `first_page + p` and fixed-width 4- and 8-byte fields never straddle
//! a page boundary. Each data page carries its own checksum in the
//! header table, verified as the page is read — a byte flip anywhere in
//! the file is caught either by the header checksum or by the checksum
//! of the page it lands in, before any decoded value is trusted.
//!
//! The 19 sections are a 20-byte meta section (object count +
//! selection/document fingerprints), then the store columns (arena
//! bytes, term spans/types/char-lens/IDF bits, CSR posting starts +
//! postings, type/path name spans, per-type stats) and the OD columns
//! (od starts, tuple term/value/path, group starts/types/members).
//!
//! A load decodes the store into memory section by section, one checked
//! page at a time: a file is read page by page into one page-sized
//! buffer, and an in-memory image (a WAL checkpoint's store) is checked
//! in place. Loading ends in the fingerprint checks and a full
//! [`StoreAuditor`] pass.

use super::{
    attach_candidates, checked_u32, doc_fingerprint, selection_fingerprint, snap_err, IndexContext,
    TermIndexBackend,
};
use crate::error::DogmatixError;
use crate::od::{OdSet, TermId};
use crate::store::audit::StoreAuditor;
use crate::store::codec::{self, put_u32, put_u64, Cursor};
use crate::store::{PathId, Span, TermStore, TypeStats};
use std::collections::{BTreeSet, HashMap};
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"DXTS";

/// The snapshot format version this build writes and reads.
pub const SNAPSHOT_VERSION_PAGED: u32 = 2;

/// Default page size for saved snapshots.
pub const DEFAULT_PAGE_SIZE: usize = 4096;

/// Hard cap on any single array length in a snapshot (guards corrupted
/// directory lengths from driving allocations before the bounds
/// validation can reject them).
const MAX_ARRAY_LEN: u64 = 1 << 31;

const MIN_PAGE_SIZE: usize = 64;
const MAX_PAGE_SIZE: usize = 1 << 26;
const HEADER_FIXED: usize = 32;
const DIR_ENTRY_BYTES: usize = 20;

// Section ids double as directory indices.
const SEC_META: usize = 0;
const SEC_ARENA: usize = 1;
const SEC_TERM_SPANS: usize = 2;
const SEC_TERM_TYPES: usize = 3;
const SEC_TERM_CHAR_LENS: usize = 4;
const SEC_TERM_IDFS: usize = 5;
const SEC_POSTING_STARTS: usize = 6;
const SEC_POSTINGS: usize = 7;
const SEC_TYPE_NAME_SPANS: usize = 8;
const SEC_PATH_NAME_SPANS: usize = 9;
const SEC_TYPE_STATS: usize = 10;
const SEC_OD_STARTS: usize = 11;
const SEC_TUPLE_TERM: usize = 12;
const SEC_TUPLE_VALUE_SPANS: usize = 13;
const SEC_TUPLE_PATH: usize = 14;
const SEC_OD_GROUP_STARTS: usize = 15;
const SEC_GROUP_TYPES: usize = 16;
const SEC_GROUP_STARTS: usize = 17;
const SEC_GROUP_TUPLES: usize = 18;
const SECTION_COUNT: usize = 19;

const META_BYTES: u64 = 20;

// ---- writer -----------------------------------------------------------

fn u32s_payload(vs: &[u32]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(vs.len() * 4);
    for &v in vs {
        put_u32(&mut buf, v);
    }
    buf
}

fn spans_payload(vs: &[Span]) -> Result<Vec<u8>, DogmatixError> {
    let mut buf = Vec::with_capacity(vs.len() * 8);
    for &s in vs {
        put_u32(&mut buf, s.start_raw());
        put_u32(&mut buf, checked_u32(s.len(), "span length")?);
    }
    Ok(buf)
}

/// Serialises the 19 section payloads in directory order.
fn section_payloads(
    ods: &OdSet,
    selections: &HashMap<String, BTreeSet<String>>,
    doc_fingerprint: u64,
) -> Result<Vec<Vec<u8>>, DogmatixError> {
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

    let mut meta = Vec::with_capacity(META_BYTES as usize);
    put_u32(&mut meta, checked_u32(ods.len(), "object count")?);
    put_u64(&mut meta, selection_fingerprint(ods.len(), selections));
    put_u64(&mut meta, doc_fingerprint);

    let mut idfs = Vec::with_capacity(store.term_idfs().len() * 8);
    for &v in store.term_idfs() {
        put_u64(&mut idfs, v.to_bits());
    }
    let mut stats = Vec::with_capacity(store.type_stats().len() * 12);
    for s in store.type_stats() {
        put_u32(&mut stats, s.terms);
        put_u32(&mut stats, s.tuples);
        put_u32(&mut stats, s.postings);
    }
    let term_ids: Vec<u32> = tuple_term.iter().map(|t| t.0).collect();
    let path_ids: Vec<u32> = tuple_path.iter().map(|p| p.0).collect();

    Ok(vec![
        meta,
        store.arena_bytes().to_vec(),
        spans_payload(store.term_norm_spans())?,
        u32s_payload(store.term_types()),
        u32s_payload(store.term_char_lens()),
        idfs,
        u32s_payload(store.posting_starts()),
        u32s_payload(store.postings_raw()),
        spans_payload(store.type_name_spans())?,
        spans_payload(store.path_name_spans())?,
        stats,
        u32s_payload(od_starts),
        u32s_payload(&term_ids),
        spans_payload(tuple_value)?,
        u32s_payload(&path_ids),
        u32s_payload(od_group_starts),
        u32s_payload(group_types),
        u32s_payload(group_starts),
        u32s_payload(group_tuples),
    ])
}

fn validate_page_size(page_size: usize) -> Result<(), DogmatixError> {
    if !(MIN_PAGE_SIZE..=MAX_PAGE_SIZE).contains(&page_size) || !page_size.is_multiple_of(8) {
        return Err(snap_err(format!(
            "implausible page size {page_size} (must be a multiple of 8 in \
             {MIN_PAGE_SIZE}..={MAX_PAGE_SIZE})"
        )));
    }
    Ok(())
}

/// Serialises an [`OdSet`] (minus its document-state node ids) to a
/// complete snapshot image — header, directory, page checksum table,
/// and zero-padded data pages. [`crate::wal`] checkpoints embed this
/// image.
pub fn paged_snapshot_to_bytes(
    ods: &OdSet,
    selections: &HashMap<String, BTreeSet<String>>,
    doc_fingerprint: u64,
    page_size: usize,
) -> Result<Vec<u8>, DogmatixError> {
    validate_page_size(page_size)?;
    let sections = section_payloads(ods, selections, doc_fingerprint)?;

    // Directory: each section occupies whole pages, in file order.
    let mut directory = Vec::with_capacity(SECTION_COUNT * DIR_ENTRY_BYTES);
    let mut total_pages: u64 = 0;
    for (id, payload) in sections.iter().enumerate() {
        let pages = (payload.len() as u64).div_ceil(page_size as u64);
        put_u32(&mut directory, checked_u32(id, "section id")?);
        put_u32(
            &mut directory,
            checked_u32(total_pages as usize, "first page")?,
        );
        put_u32(
            &mut directory,
            checked_u32(pages as usize, "section page count")?,
        );
        put_u64(&mut directory, payload.len() as u64);
        total_pages += pages;
    }
    let page_count = checked_u32(total_pages as usize, "page count")?;
    let header_len = checked_u32(
        HEADER_FIXED + directory.len() + total_pages as usize * 8,
        "header length",
    )?;

    // Data region + per-page checksums over the padded pages.
    let mut data = Vec::with_capacity(total_pages as usize * page_size);
    let mut page_checksums = Vec::with_capacity(total_pages as usize * 8);
    for payload in &sections {
        for chunk in payload.chunks(page_size) {
            let start = data.len();
            data.extend_from_slice(chunk);
            data.resize(start + page_size, 0);
            put_u64(
                &mut page_checksums,
                codec::checksum(&data[start..start + page_size]),
            );
        }
    }

    let mut header = Vec::with_capacity(header_len as usize);
    header.extend_from_slice(MAGIC);
    put_u32(&mut header, SNAPSHOT_VERSION_PAGED);
    put_u32(&mut header, checked_u32(page_size, "page size")?);
    put_u32(&mut header, SECTION_COUNT as u32);
    put_u32(&mut header, page_count);
    put_u32(&mut header, header_len);
    put_u64(&mut header, 0); // checksum placeholder
    header.extend_from_slice(&directory);
    header.extend_from_slice(&page_checksums);
    let digest = header_digest(&header);
    header[24..32].copy_from_slice(&digest.to_le_bytes());

    let mut out = header;
    out.extend_from_slice(&data);
    Ok(out)
}

/// Atomically installs a snapshot image at `path`, reporting failure as
/// a [`DogmatixError::Snapshot`].
pub(crate) fn install(path: &Path, image: &[u8]) -> Result<(), DogmatixError> {
    codec::atomic_write(path, image)
        .map_err(|e| snap_err(format!("cannot write snapshot {}: {e}", path.display())))
}

/// FNV-1a/mix64 over the header bytes, skipping the checksum field
/// itself (offsets 24..32).
fn header_digest(header: &[u8]) -> u64 {
    let mut h = dogmatix_textsim::Fnv1a::new();
    h.update(&header[..24]);
    h.update(&header[32..]);
    dogmatix_textsim::mix64(h.finish())
}

// ---- header parsing ---------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct SectionMeta {
    first_page: u32,
    byte_len: u64,
}

/// The parsed, checksum-verified header of a snapshot.
#[derive(Debug)]
struct PagedHeader {
    page_size: usize,
    header_len: usize,
    sections: Vec<SectionMeta>,
    page_checksums: Vec<u64>,
}

struct FixedHeader {
    page_size: usize,
    page_count: u32,
    header_len: usize,
}

/// Parses and sanity-checks the fixed 32-byte header prefix; this is
/// where a retired or unknown version is rejected, naming the version
/// this build reads.
fn parse_fixed_header(b: &[u8]) -> Result<FixedHeader, DogmatixError> {
    let mut c = Cursor::new(b);
    if c.take(4).ok() != Some(&MAGIC[..]) {
        return Err(snap_err("not a DogmatiX term-index snapshot (bad magic)"));
    }
    if b.len() < HEADER_FIXED {
        return Err(snap_err("snapshot truncated: missing paged header"));
    }
    let version = c.u32().map_err(snap_err)?;
    if version != SNAPSHOT_VERSION_PAGED {
        return Err(snap_err(format!(
            "unsupported snapshot version {version} (this build reads version \
             {SNAPSHOT_VERSION_PAGED}) — rebuild it with --index-save"
        )));
    }
    let page_size = c.u32().map_err(snap_err)? as usize;
    validate_page_size(page_size)?;
    let section_count = c.u32().map_err(snap_err)? as usize;
    if section_count != SECTION_COUNT {
        return Err(snap_err(format!(
            "paged snapshot corrupted: {section_count} sections (this format has \
             {SECTION_COUNT})"
        )));
    }
    let page_count = c.u32().map_err(snap_err)?;
    let header_len = c.u32().map_err(snap_err)? as usize;
    let expected_len =
        HEADER_FIXED as u64 + (SECTION_COUNT * DIR_ENTRY_BYTES) as u64 + page_count as u64 * 8;
    if header_len as u64 != expected_len {
        return Err(snap_err(
            "paged snapshot corrupted: header length disagrees with the \
             section and page counts",
        ));
    }
    Ok(FixedHeader {
        page_size,
        page_count,
        header_len,
    })
}

/// Parses the complete header (`header.len() == header_len`),
/// verifying the header checksum, the directory's internal consistency,
/// and that the data region matches `file_len` exactly.
fn parse_paged_header(header: &[u8], file_len: u64) -> Result<PagedHeader, DogmatixError> {
    let fixed = parse_fixed_header(header)?;
    if header.len() != fixed.header_len {
        return Err(snap_err("snapshot truncated: incomplete paged header"));
    }
    let expected_file_len =
        fixed.header_len as u64 + fixed.page_count as u64 * fixed.page_size as u64;
    if file_len != expected_file_len {
        return Err(snap_err(format!(
            "snapshot truncated or padded: file is {file_len} B but the header \
             describes {expected_file_len} B"
        )));
    }
    let mut c = Cursor::new(header);
    c.take(24).map_err(snap_err)?;
    if header_digest(header) != c.u64().map_err(snap_err)? {
        return Err(snap_err(
            "paged snapshot corrupted: header checksum mismatch",
        ));
    }

    let mut sections = Vec::with_capacity(SECTION_COUNT);
    let mut next_page: u64 = 0;
    for i in 0..SECTION_COUNT {
        let id = c.u32().map_err(snap_err)?;
        let first_page = c.u32().map_err(snap_err)?;
        let pages = c.u32().map_err(snap_err)?;
        let byte_len = c.u64().map_err(snap_err)?;
        if id as usize != i {
            return Err(snap_err(format!(
                "paged snapshot corrupted: directory entry {i} carries id {id}"
            )));
        }
        if first_page as u64 != next_page
            || pages as u64 != byte_len.div_ceil(fixed.page_size as u64)
        {
            return Err(snap_err(format!(
                "paged snapshot corrupted: directory entry {i} disagrees with \
                 the page layout"
            )));
        }
        next_page += pages as u64;
        sections.push(SectionMeta {
            first_page,
            byte_len,
        });
    }
    if next_page != fixed.page_count as u64 {
        return Err(snap_err(
            "paged snapshot corrupted: directory pages do not sum to the page count",
        ));
    }

    let page_checksums = (0..fixed.page_count)
        .map(|_| c.u64().map_err(snap_err))
        .collect::<Result<_, _>>()?;

    Ok(PagedHeader {
        page_size: fixed.page_size,
        header_len: fixed.header_len,
        sections,
        page_checksums,
    })
}

// ---- page source ------------------------------------------------------

#[derive(Debug)]
enum Backing {
    /// A snapshot file, read one page at a time into the reusable
    /// `page` buffer.
    File {
        file: std::fs::File,
        page: Vec<u8>,
        path: PathBuf,
    },
    /// An in-memory image (a WAL checkpoint's embedded store), whose
    /// pages are checked in place.
    Bytes(Vec<u8>),
}

/// A snapshot's verified header plus its data pages. [`PagedSource::page`]
/// checks each page against the header's checksum table before any of
/// its bytes are decoded.
#[derive(Debug)]
struct PagedSource {
    header: PagedHeader,
    backing: Backing,
}

impl PagedSource {
    /// Opens a snapshot file: parses and verifies the header, reading
    /// nothing of the data region yet.
    fn file(path: &Path) -> Result<PagedSource, DogmatixError> {
        let mut f = std::fs::File::open(path)
            .map_err(|e| snap_err(format!("cannot read snapshot {}: {e}", path.display())))?;
        let file_len = f
            .metadata()
            .map_err(|e| snap_err(format!("cannot stat snapshot {}: {e}", path.display())))?
            .len();
        let mut header_bytes = Vec::with_capacity(HEADER_FIXED);
        (&mut f)
            .take(HEADER_FIXED as u64)
            .read_to_end(&mut header_bytes)
            .map_err(|e| snap_err(format!("cannot read snapshot {}: {e}", path.display())))?;
        let parsed = parse_fixed_header(&header_bytes)?;
        header_bytes.resize(parsed.header_len, 0);
        f.read_exact(&mut header_bytes[HEADER_FIXED..])
            .map_err(|_| snap_err("snapshot truncated: incomplete paged header"))?;
        let header = parse_paged_header(&header_bytes, file_len)?;
        Ok(PagedSource {
            backing: Backing::File {
                file: f,
                page: vec![0; header.page_size],
                path: path.to_path_buf(),
            },
            header,
        })
    }

    /// Opens an in-memory snapshot image.
    fn bytes(data: Vec<u8>) -> Result<PagedSource, DogmatixError> {
        let fixed = parse_fixed_header(&data)?;
        let header_bytes = data
            .get(..fixed.header_len)
            .ok_or_else(|| snap_err("snapshot truncated: incomplete paged header"))?;
        let header = parse_paged_header(header_bytes, data.len() as u64)?;
        Ok(PagedSource {
            header,
            backing: Backing::Bytes(data),
        })
    }

    /// Data page `block`, after its checksum matched the header table.
    fn page(&mut self, block: u32) -> Result<&[u8], DogmatixError> {
        let size = self.header.page_size;
        let offset = self.header.header_len as u64 + block as u64 * size as u64;
        let expected = self
            .header
            .page_checksums
            .get(block as usize)
            .copied()
            .ok_or_else(|| snap_err(format!("block {block} has no checksum table entry")))?;
        let page: &[u8] = match &mut self.backing {
            Backing::File { file, page, path } => {
                file.seek(SeekFrom::Start(offset))
                    .and_then(|_| file.read_exact(page))
                    .map_err(|e| {
                        snap_err(format!(
                            "cannot read block {block} of snapshot {}: {e}",
                            path.display()
                        ))
                    })?;
                page
            }
            Backing::Bytes(b) => {
                let start = offset as usize;
                b.get(start..start + size)
                    .ok_or_else(|| snap_err("snapshot truncated: page past end of image"))?
            }
        };
        if codec::checksum(page) != expected {
            return Err(snap_err(format!(
                "paged snapshot corrupted: checksum mismatch on block {block}"
            )));
        }
        Ok(page)
    }
}

// ---- streaming section decoder ----------------------------------------

/// Hands section `sec` to `f` one checked page at a time. Each slice
/// ends at a page boundary or at the end of the section.
fn stream_section(
    src: &mut PagedSource,
    sec: usize,
    mut f: impl FnMut(&[u8]) -> Result<(), DogmatixError>,
) -> Result<(), DogmatixError> {
    let meta = src.header.sections[sec];
    let size = src.header.page_size as u64;
    let mut pos = 0;
    while pos < meta.byte_len {
        let page = src.page(meta.first_page.wrapping_add((pos / size) as u32))?;
        let n = size.min(meta.byte_len - pos) as usize;
        f(&page[..n])?;
        pos += n as u64;
    }
    Ok(())
}

/// Decodes a section of `elem`-byte records as its little-endian u32
/// words (spans, IDF bits and type stats are pairs/triples of words).
/// Sections start on a page boundary and pages are a multiple of 8
/// bytes, so no word straddles two pages.
fn read_words(
    src: &mut PagedSource,
    sec: usize,
    elem: u64,
    what: &str,
) -> Result<Vec<u32>, DogmatixError> {
    let byte_len = src.header.sections[sec].byte_len;
    if !byte_len.is_multiple_of(elem) {
        return Err(snap_err(format!(
            "paged snapshot corrupted: section {what} is {byte_len} B, not a \
             multiple of its {elem} B element"
        )));
    }
    if byte_len / elem > MAX_ARRAY_LEN {
        return Err(snap_err(format!(
            "implausible array length {}",
            byte_len / elem
        )));
    }
    let mut out = Vec::with_capacity((byte_len / 4) as usize);
    stream_section(src, sec, |bytes| {
        let mut c = Cursor::new(bytes);
        while !c.is_empty() {
            out.push(c.u32().map_err(snap_err)?);
        }
        Ok(())
    })?;
    Ok(out)
}

fn read_spans(src: &mut PagedSource, sec: usize, what: &str) -> Result<Vec<Span>, DogmatixError> {
    let words = read_words(src, sec, 8, what)?;
    Ok(words
        .chunks_exact(2)
        .map(|w| Span::new(w[0], w[1]))
        .collect())
}

/// Reads a whole byte section (the meta record or the arena).
fn read_bytes(src: &mut PagedSource, sec: usize) -> Result<Vec<u8>, DogmatixError> {
    let byte_len = src.header.sections[sec].byte_len;
    if byte_len > MAX_ARRAY_LEN {
        return Err(snap_err(format!("implausible array length {byte_len}")));
    }
    let mut bytes = Vec::with_capacity(byte_len as usize);
    stream_section(src, sec, |b| {
        bytes.extend_from_slice(b);
        Ok(())
    })?;
    Ok(bytes)
}

/// Streams every section page by page, checks the fingerprints,
/// assembles the set and runs the full store audit. The returned set
/// carries **no candidate nodes** — the caller re-attaches the current
/// run's.
fn decode_paged(
    src: &mut PagedSource,
    selections: &HashMap<String, BTreeSet<String>>,
    doc_fingerprint: u64,
) -> Result<OdSet, DogmatixError> {
    let meta_len = src.header.sections[SEC_META].byte_len;
    if meta_len != META_BYTES {
        return Err(snap_err(format!(
            "paged snapshot corrupted: meta section is {meta_len} B (expected {META_BYTES})"
        )));
    }
    let meta = read_bytes(src, SEC_META)?;
    let mut c = Cursor::new(&meta);
    let object_count = c.u32().map_err(snap_err)?;
    let selection_fp = c.u64().map_err(snap_err)?;
    let doc_fp = c.u64().map_err(snap_err)?;
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

    let idf_words = read_words(src, SEC_TERM_IDFS, 8, "term idfs")?;
    let stat_words = read_words(src, SEC_TYPE_STATS, 12, "type stats")?;
    let arena = String::from_utf8(read_bytes(src, SEC_ARENA)?)
        .map_err(|_| snap_err("snapshot corrupted: arena is not valid UTF-8"))?;
    let store = TermStore::from_parts(
        arena,
        read_spans(src, SEC_TERM_SPANS, "term spans")?,
        read_words(src, SEC_TERM_TYPES, 4, "term types")?,
        read_words(src, SEC_TERM_CHAR_LENS, 4, "term char lens")?,
        idf_words
            .chunks_exact(2)
            .map(|w| f64::from_bits(u64::from(w[0]) | u64::from(w[1]) << 32))
            .collect(),
        read_words(src, SEC_POSTING_STARTS, 4, "posting starts")?,
        read_words(src, SEC_POSTINGS, 4, "postings")?,
        read_spans(src, SEC_TYPE_NAME_SPANS, "type names")?,
        read_spans(src, SEC_PATH_NAME_SPANS, "path names")?,
        stat_words
            .chunks_exact(3)
            .map(|w| TypeStats {
                terms: w[0],
                tuples: w[1],
                postings: w[2],
            })
            .collect(),
        object_count,
    );
    let ods = OdSet::from_columns(
        Vec::new(),
        store,
        read_words(src, SEC_OD_STARTS, 4, "od starts")?,
        read_words(src, SEC_TUPLE_TERM, 4, "tuple terms")?
            .into_iter()
            .map(TermId)
            .collect(),
        read_spans(src, SEC_TUPLE_VALUE_SPANS, "tuple values")?,
        read_words(src, SEC_TUPLE_PATH, 4, "tuple paths")?
            .into_iter()
            .map(PathId)
            .collect(),
        read_words(src, SEC_OD_GROUP_STARTS, 4, "od group starts")?,
        read_words(src, SEC_GROUP_TYPES, 4, "group types")?,
        read_words(src, SEC_GROUP_STARTS, 4, "group starts")?,
        read_words(src, SEC_GROUP_TUPLES, 4, "group tuples")?,
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

/// Verifies and reassembles a snapshot from an in-memory image, checking
/// its pages in place. Used by [`crate::wal`] checkpoint recovery.
pub(crate) fn odset_from_paged_bytes(
    data: Vec<u8>,
    selections: &HashMap<String, BTreeSet<String>>,
    doc_fingerprint: u64,
) -> Result<OdSet, DogmatixError> {
    decode_paged(&mut PagedSource::bytes(data)?, selections, doc_fingerprint)
}

// ---- the backend ------------------------------------------------------

/// Whether a [`PagedBackend`] writes or reads its file.
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
/// [`PagedBackend::open`] loads (the common case); [`PagedBackend::save`]
/// builds in memory and writes the snapshot file. A load decodes the
/// store into memory one checked page at a time, holding one page-sized
/// read buffer. Results are bit-identical to
/// [`InMemoryBackend`](super::InMemoryBackend) (`tests/equivalence.rs`).
///
/// ```no_run
/// use dogmatix_core::backend::paged::PagedBackend;
/// use dogmatix_core::pipeline::Dogmatix;
/// use dogmatix_xml::{Document, Schema};
///
/// let doc = Document::parse("<db><m><t>A</t></m><m><t>A</t></m></db>")?;
/// let schema = Schema::infer(&doc)?;
/// // First run: build in memory and persist the paged index.
/// Dogmatix::builder()
///     .add_type("M", ["/db/m"])
///     .index_backend(PagedBackend::save("/tmp/dx.v2"))
///     .build()
///     .run(&doc, &schema, "M")?;
/// // Warm start from the snapshot.
/// let warm = Dogmatix::builder()
///     .add_type("M", ["/db/m"])
///     .index_backend(PagedBackend::open("/tmp/dx.v2"))
///     .build()
///     .run(&doc, &schema, "M")?;
/// # let _ = warm;
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct PagedBackend {
    path: PathBuf,
    mode: SnapshotMode,
    page_size: usize,
}

impl PagedBackend {
    /// A backend that warm-starts from the snapshot at `path`.
    pub fn open(path: impl Into<PathBuf>) -> PagedBackend {
        PagedBackend {
            path: path.into(),
            mode: SnapshotMode::Load,
            page_size: DEFAULT_PAGE_SIZE,
        }
    }

    /// A backend that builds in memory and saves the snapshot to `path`
    /// (with [`DEFAULT_PAGE_SIZE`] pages unless overridden).
    pub fn save(path: impl Into<PathBuf>) -> PagedBackend {
        PagedBackend {
            path: path.into(),
            mode: SnapshotMode::Save,
            page_size: DEFAULT_PAGE_SIZE,
        }
    }

    /// Overrides the page size used by [`PagedBackend::save`]. Smaller
    /// pages mean more checksum entries, each covering fewer bytes.
    pub fn with_page_size(mut self, page_size: usize) -> PagedBackend {
        self.page_size = page_size;
        self
    }
}

impl TermIndexBackend for PagedBackend {
    fn acquire(&self, ctx: IndexContext<'_>) -> Result<Arc<OdSet>, DogmatixError> {
        match self.mode {
            SnapshotMode::Save => {
                let ods = OdSet::build(ctx.doc, ctx.candidates, ctx.selections, ctx.mapping);
                let image = paged_snapshot_to_bytes(
                    &ods,
                    ctx.selections,
                    doc_fingerprint(ctx.doc),
                    self.page_size,
                )?;
                install(&self.path, &image)?;
                Ok(Arc::new(ods))
            }
            SnapshotMode::Load => {
                let ods = decode_paged(
                    &mut PagedSource::file(&self.path)?,
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
        let dir = std::env::temp_dir().join("dx_paged_unit");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{tag}.{}.v2", std::process::id()))
    }

    #[test]
    fn paged_roundtrip_over_small_pages_matches_in_memory() {
        let path = temp("roundtrip");
        let (doc, schema) = corpus();
        let cold = detector(PagedBackend::save(&path).with_page_size(256))
            .run(&doc, &schema, "M")
            .unwrap();
        let warm = detector(PagedBackend::open(&path))
            .run(&doc, &schema, "M")
            .unwrap();
        let in_memory = detector(InMemoryBackend).run(&doc, &schema, "M").unwrap();
        assert_eq!(cold, warm);
        assert_eq!(warm, in_memory);
        // 256 B pages spread the image over many pages, so the load
        // crossed page boundaries inside sections.
        assert!(std::fs::metadata(&path).unwrap().len() > 8 * 256);
    }

    #[test]
    fn version_cross_errors_name_both_versions() {
        // A file labelled with the retired flat version 1 (or any other
        // version) is refused naming its version and the one this build
        // reads.
        let (doc, schema) = corpus();
        let path = temp("relabelled");
        detector(PagedBackend::save(&path))
            .run(&doc, &schema, "M")
            .unwrap();
        let mut data = std::fs::read(&path).unwrap();
        data[4..8].copy_from_slice(&1u32.to_le_bytes());
        std::fs::write(&path, &data).unwrap();
        let err = detector(PagedBackend::open(&path))
            .run(&doc, &schema, "M")
            .unwrap_err();
        let msg = err.to_string();
        assert!(matches!(err, DogmatixError::Snapshot { .. }), "{msg}");
        assert!(msg.contains("version 1"), "{msg}");
        assert!(msg.contains("version 2"), "{msg}");
        let _ = std::fs::remove_file(&path);
    }
}
