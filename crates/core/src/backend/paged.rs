//! The DXTS snapshot format (version 2) and its out-of-core reader,
//! [`PagedBackend`].
//!
//! Every store column is split into **fixed-size pages** behind a page
//! directory, so a reader can fault in exactly the pages it touches
//! through a [`BufferPool`] and keep at most a configured budget of
//! them resident:
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
//! header table, verified at fault-in time — a byte flip anywhere in
//! the file is caught either by the header checksum or by the checksum
//! of the page it lands in, before any decoded value is trusted.
//!
//! The 19 sections are a 20-byte meta section (object count +
//! selection/document fingerprints), then the store columns (arena
//! bytes, term spans/types/char-lens/IDF bits, CSR posting starts +
//! postings, type/path name spans, per-type stats) and the OD columns
//! (od starts, tuple term/value/path, group starts/types/members).
//! Loading ends in the fingerprint checks and a full
//! [`StoreAuditor`] pass.
//!
//! Two readers are built on the pool:
//!
//! * [`PagedBackend`] — the [`TermIndexBackend`] implementation.
//!   Loading streams each section through the pool page by page (one
//!   pin at a time), so **peak pool residency stays under the budget
//!   regardless of snapshot size** (the `benches/paged.rs` gate holds
//!   [`PoolStats::peak_resident_bytes`] under a budget smaller than the
//!   file).
//! * [`PagedReader`] — random point access (term text, posting lists)
//!   that pins only the directory-addressed pages a lookup touches;
//!   with a small budget the pool visibly evicts and refaults.

use super::{
    attach_candidates, checked_u32, doc_fingerprint, selection_fingerprint, snap_err, IndexContext,
    SnapshotMode, TermIndexBackend,
};
use crate::error::DogmatixError;
use crate::od::{OdSet, TermId};
use crate::store::audit::StoreAuditor;
use crate::store::codec::{self, put_u32, put_u64, Cursor};
use crate::store::pool::{BlockId, BufferPool, PageSource, PoolStats};
use crate::store::{PathId, Span, TermStore, TypeStats};
use std::collections::{BTreeSet, HashMap};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

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
    page_count: u32,
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
        page_count: fixed.page_count,
        header_len: fixed.header_len,
        sections,
        page_checksums,
    })
}

// ---- page source ------------------------------------------------------

#[derive(Debug)]
enum Backing {
    File(std::fs::File),
    Bytes(Vec<u8>),
}

/// [`PageSource`] over a snapshot: serves `page_count` fixed-size pages
/// from the data region and verifies each page's checksum against the
/// header table at fault-in time.
#[derive(Debug)]
struct PagedSource {
    header: Arc<PagedHeader>,
    backing: Backing,
    label: String,
}

impl PageSource for PagedSource {
    fn page_size(&self) -> usize {
        self.header.page_size
    }

    fn page_count(&self) -> u32 {
        self.header.page_count
    }

    fn read_page(&mut self, block: BlockId, buf: &mut [u8]) -> Result<(), DogmatixError> {
        let offset = self.header.header_len as u64 + block.0 as u64 * self.header.page_size as u64;
        match &mut self.backing {
            Backing::File(f) => {
                use std::io::{Read, Seek, SeekFrom};
                f.seek(SeekFrom::Start(offset))
                    .and_then(|_| f.read_exact(buf))
                    .map_err(|e| {
                        snap_err(format!(
                            "cannot read {block} of snapshot {}: {e}",
                            self.label
                        ))
                    })?;
            }
            Backing::Bytes(b) => {
                let start = offset as usize;
                let page = b
                    .get(start..start + self.header.page_size)
                    .ok_or_else(|| snap_err("snapshot truncated: page past end of image"))?;
                buf.copy_from_slice(page);
            }
        }
        let expected = self
            .header
            .page_checksums
            .get(block.0 as usize)
            .copied()
            .ok_or_else(|| snap_err(format!("{block} has no checksum table entry")))?;
        if codec::checksum(buf) != expected {
            return Err(snap_err(format!(
                "paged snapshot corrupted: checksum mismatch on {block}"
            )));
        }
        Ok(())
    }
}

/// Opens a snapshot file: parses + verifies the header, then wraps the
/// data region in a budget-bounded [`BufferPool`].
fn pool_over_file(
    path: &Path,
    budget: usize,
) -> Result<(BufferPool, Arc<PagedHeader>), DogmatixError> {
    use std::io::Read;
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
    let header = Arc::new(parse_paged_header(&header_bytes, file_len)?);
    let source = PagedSource {
        header: Arc::clone(&header),
        backing: Backing::File(f),
        label: path.display().to_string(),
    };
    let pool = BufferPool::new(Box::new(source), budget)?;
    Ok((pool, header))
}

/// A pool over an in-memory snapshot image (a WAL checkpoint's
/// embedded store).
fn pool_over_bytes(
    data: Vec<u8>,
    budget: usize,
) -> Result<(BufferPool, Arc<PagedHeader>), DogmatixError> {
    let fixed = parse_fixed_header(&data)?;
    let header_bytes = data
        .get(..fixed.header_len)
        .ok_or_else(|| snap_err("snapshot truncated: incomplete paged header"))?;
    let header = Arc::new(parse_paged_header(header_bytes, data.len() as u64)?);
    let source = PagedSource {
        header: Arc::clone(&header),
        backing: Backing::Bytes(data),
        label: "<bytes>".to_string(),
    };
    let pool = BufferPool::new(Box::new(source), budget)?;
    Ok((pool, header))
}

// ---- streaming section decoder ----------------------------------------

/// Hands the bytes `range` of a section to `f` one pinned page at a
/// time — the pool, not the caller, bounds residency. Each slice ends
/// at a page boundary or at `range.end`.
fn stream_section(
    pool: &mut BufferPool,
    meta: SectionMeta,
    range: Range<u64>,
    mut f: impl FnMut(&[u8]) -> Result<(), DogmatixError>,
) -> Result<(), DogmatixError> {
    if range.end > meta.byte_len {
        return Err(snap_err(
            "paged snapshot corrupted: read past the end of a section",
        ));
    }
    let ps = pool.page_size() as u64;
    let mut pos = range.start;
    while pos < range.end {
        let block = BlockId(meta.first_page.wrapping_add((pos / ps) as u32));
        let page = pool.pin(block)?;
        let off = (pos % ps) as usize;
        let n = (ps - off as u64).min(range.end - pos) as usize;
        let done = f(&pool.data(&page)[off..off + n]);
        pool.unpin(page);
        done?;
        pos += n as u64;
    }
    Ok(())
}

/// Decodes a section of `elem`-byte records as its little-endian u32
/// words (spans, IDF bits and type stats are pairs/triples of words).
/// Sections start on a page boundary and pages are a multiple of 8
/// bytes, so no word straddles two pages.
fn read_words(
    pool: &mut BufferPool,
    meta: SectionMeta,
    elem: u64,
    what: &str,
) -> Result<Vec<u32>, DogmatixError> {
    if !meta.byte_len.is_multiple_of(elem) {
        return Err(snap_err(format!(
            "paged snapshot corrupted: section {what} is {} B, not a multiple \
             of its {elem} B element",
            meta.byte_len
        )));
    }
    if meta.byte_len / elem > MAX_ARRAY_LEN {
        return Err(snap_err(format!(
            "implausible array length {}",
            meta.byte_len / elem
        )));
    }
    let mut out = Vec::with_capacity((meta.byte_len / 4) as usize);
    stream_section(pool, meta, 0..meta.byte_len, |bytes| {
        let mut c = Cursor::new(bytes);
        while !c.is_empty() {
            out.push(c.u32().map_err(snap_err)?);
        }
        Ok(())
    })?;
    Ok(out)
}

fn read_spans(
    pool: &mut BufferPool,
    meta: SectionMeta,
    what: &str,
) -> Result<Vec<Span>, DogmatixError> {
    let words = read_words(pool, meta, 8, what)?;
    Ok(words
        .chunks_exact(2)
        .map(|w| Span::new(w[0], w[1]))
        .collect())
}

fn read_arena(pool: &mut BufferPool, meta: SectionMeta) -> Result<String, DogmatixError> {
    if meta.byte_len > MAX_ARRAY_LEN {
        return Err(snap_err(format!(
            "implausible array length {}",
            meta.byte_len
        )));
    }
    let mut bytes = Vec::with_capacity(meta.byte_len as usize);
    stream_section(pool, meta, 0..meta.byte_len, |b| {
        bytes.extend_from_slice(b);
        Ok(())
    })?;
    String::from_utf8(bytes).map_err(|_| snap_err("snapshot corrupted: arena is not valid UTF-8"))
}

/// Streams every section through the pool, checks the fingerprints,
/// assembles the set and runs the full store audit. Peak pool
/// residency during this call is bounded by the pool's budget, not the
/// snapshot size. The returned set carries **no candidate nodes** — the
/// caller re-attaches the current run's.
fn decode_paged(
    pool: &mut BufferPool,
    header: &PagedHeader,
    selections: &HashMap<String, BTreeSet<String>>,
    doc_fingerprint: u64,
) -> Result<OdSet, DogmatixError> {
    let sec = |i: usize| header.sections[i];
    if sec(SEC_META).byte_len != META_BYTES {
        return Err(snap_err(format!(
            "paged snapshot corrupted: meta section is {} B (expected {META_BYTES})",
            sec(SEC_META).byte_len
        )));
    }
    let mut meta = Vec::with_capacity(META_BYTES as usize);
    stream_section(pool, sec(SEC_META), 0..META_BYTES, |b| {
        meta.extend_from_slice(b);
        Ok(())
    })?;
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

    let idf_words = read_words(pool, sec(SEC_TERM_IDFS), 8, "term idfs")?;
    let stat_words = read_words(pool, sec(SEC_TYPE_STATS), 12, "type stats")?;
    let store = TermStore::from_parts(
        read_arena(pool, sec(SEC_ARENA))?,
        read_spans(pool, sec(SEC_TERM_SPANS), "term spans")?,
        read_words(pool, sec(SEC_TERM_TYPES), 4, "term types")?,
        read_words(pool, sec(SEC_TERM_CHAR_LENS), 4, "term char lens")?,
        idf_words
            .chunks_exact(2)
            .map(|w| f64::from_bits(u64::from(w[0]) | u64::from(w[1]) << 32))
            .collect(),
        read_words(pool, sec(SEC_POSTING_STARTS), 4, "posting starts")?,
        read_words(pool, sec(SEC_POSTINGS), 4, "postings")?,
        read_spans(pool, sec(SEC_TYPE_NAME_SPANS), "type names")?,
        read_spans(pool, sec(SEC_PATH_NAME_SPANS), "path names")?,
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
        read_words(pool, sec(SEC_OD_STARTS), 4, "od starts")?,
        read_words(pool, sec(SEC_TUPLE_TERM), 4, "tuple terms")?
            .into_iter()
            .map(TermId)
            .collect(),
        read_spans(pool, sec(SEC_TUPLE_VALUE_SPANS), "tuple values")?,
        read_words(pool, sec(SEC_TUPLE_PATH), 4, "tuple paths")?
            .into_iter()
            .map(PathId)
            .collect(),
        read_words(pool, sec(SEC_OD_GROUP_STARTS), 4, "od group starts")?,
        read_words(pool, sec(SEC_GROUP_TYPES), 4, "group types")?,
        read_words(pool, sec(SEC_GROUP_STARTS), 4, "group starts")?,
        read_words(pool, sec(SEC_GROUP_TUPLES), 4, "group tuples")?,
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

/// Verifies and reassembles a snapshot from an in-memory image, through
/// a pool with the given budget. Used by [`crate::wal`] checkpoint
/// recovery.
pub(crate) fn odset_from_paged_bytes(
    data: Vec<u8>,
    selections: &HashMap<String, BTreeSet<String>>,
    doc_fingerprint: u64,
    budget: usize,
) -> Result<OdSet, DogmatixError> {
    let (mut pool, header) = pool_over_bytes(data, budget)?;
    decode_paged(&mut pool, &header, selections, doc_fingerprint)
}

// ---- the backend ------------------------------------------------------

/// The persistent, out-of-core term-index backend: snapshots read
/// through a pinned buffer pool under a configurable memory budget.
///
/// [`PagedBackend::open`] loads (the common case); [`PagedBackend::save`]
/// builds in memory and writes the snapshot file. Loading streams the
/// file page by page, so peak pool residency never exceeds the budget
/// even when the snapshot is far larger — [`PagedBackend::last_stats`]
/// exposes the pool counters of the most recent load, which the
/// scaling bench gate asserts against. Results are bit-identical to
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
/// // Warm start under a 64 KiB pool budget.
/// let warm = Dogmatix::builder()
///     .add_type("M", ["/db/m"])
///     .index_backend(PagedBackend::open("/tmp/dx.v2", 64 * 1024))
///     .build()
///     .run(&doc, &schema, "M")?;
/// # let _ = warm;
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct PagedBackend {
    path: PathBuf,
    mode: SnapshotMode,
    budget: usize,
    page_size: usize,
    last_stats: Mutex<Option<PoolStats>>,
}

impl PagedBackend {
    /// A backend that warm-starts from the snapshot at `path`, holding
    /// at most `budget` bytes of pages resident.
    pub fn open(path: impl Into<PathBuf>, budget: usize) -> PagedBackend {
        PagedBackend {
            path: path.into(),
            mode: SnapshotMode::Load,
            budget,
            page_size: DEFAULT_PAGE_SIZE,
            last_stats: Mutex::new(None),
        }
    }

    /// A backend that builds in memory and saves the snapshot to `path`
    /// (with [`DEFAULT_PAGE_SIZE`] pages unless overridden). Saving
    /// holds no pool, so [`PagedBackend::budget`] reads 0.
    pub fn save(path: impl Into<PathBuf>) -> PagedBackend {
        PagedBackend {
            path: path.into(),
            mode: SnapshotMode::Save,
            budget: 0,
            page_size: DEFAULT_PAGE_SIZE,
            last_stats: Mutex::new(None),
        }
    }

    /// Overrides the page size used by [`PagedBackend::save`]. Smaller
    /// pages mean finer-grained eviction (and more checksum entries).
    pub fn with_page_size(mut self, page_size: usize) -> PagedBackend {
        self.page_size = page_size;
        self
    }

    /// The snapshot file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The backend's mode.
    pub fn mode(&self) -> SnapshotMode {
        self.mode
    }

    /// The pool memory budget of loads, in bytes.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Pool counters from the most recent load, if one has completed.
    /// `peak_resident_bytes` here is what the scaling bench holds under
    /// the budget.
    pub fn last_stats(&self) -> Option<PoolStats> {
        match self.last_stats.lock() {
            Ok(guard) => *guard,
            Err(poisoned) => *poisoned.into_inner(),
        }
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
                let (mut pool, header) = pool_over_file(&self.path, self.budget)?;
                let ods =
                    decode_paged(&mut pool, &header, ctx.selections, doc_fingerprint(ctx.doc))?;
                if let Ok(mut guard) = self.last_stats.lock() {
                    *guard = Some(pool.stats());
                }
                Ok(Arc::new(attach_candidates(ods, ctx.candidates)?))
            }
        }
    }
}

/// Shared handles work too: the bench keeps an `Arc<PagedBackend>` to
/// read [`PagedBackend::last_stats`] after handing the backend to a
/// builder.
impl TermIndexBackend for Arc<PagedBackend> {
    fn acquire(&self, ctx: IndexContext<'_>) -> Result<Arc<OdSet>, DogmatixError> {
        PagedBackend::acquire(self, ctx)
    }
}

// ---- point access -----------------------------------------------------

/// Random point access over a snapshot: term text and posting lists
/// resolved by pinning exactly the pages a lookup touches. This is the
/// genuinely out-of-core access path — nothing is decoded up front, and
/// with a small budget the pool visibly evicts and refaults under a
/// scattered access pattern ([`PagedReader::stats`]).
#[derive(Debug)]
pub struct PagedReader {
    pool: BufferPool,
    header: Arc<PagedHeader>,
}

impl PagedReader {
    /// Opens the snapshot at `path` under a pool budget.
    pub fn open(path: impl AsRef<Path>, budget: usize) -> Result<PagedReader, DogmatixError> {
        let (pool, header) = pool_over_file(path.as_ref(), budget)?;
        Ok(PagedReader { pool, header })
    }

    /// Number of interned terms in the snapshot.
    pub fn term_count(&self) -> usize {
        (self.header.sections[SEC_TERM_SPANS].byte_len / 8) as usize
    }

    /// Reads `out.len()` bytes at `offset` within section `sec`.
    fn read_at(&mut self, sec: usize, offset: u64, out: &mut [u8]) -> Result<(), DogmatixError> {
        let end = offset.checked_add(out.len() as u64).ok_or_else(|| {
            snap_err("paged snapshot corrupted: point read out of section bounds")
        })?;
        let mut written = 0;
        stream_section(
            &mut self.pool,
            self.header.sections[sec],
            offset..end,
            |b| {
                out[written..written + b.len()].copy_from_slice(b);
                written += b.len();
                Ok(())
            },
        )
    }

    fn u32_at(&mut self, sec: usize, index: u64) -> Result<u32, DogmatixError> {
        let mut b = [0u8; 4];
        self.read_at(sec, index * 4, &mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    /// The normalised text of term `term`, resolved through the span
    /// and arena pages only.
    pub fn term_text(&mut self, term: u32) -> Result<String, DogmatixError> {
        let mut span = [0u8; 8];
        self.read_at(SEC_TERM_SPANS, term as u64 * 8, &mut span)?;
        let mut c = Cursor::new(&span);
        let start = c.u32().map_err(snap_err)?;
        let len = c.u32().map_err(snap_err)?;
        let mut bytes = vec![0u8; len as usize];
        self.read_at(SEC_ARENA, start as u64, &mut bytes)?;
        String::from_utf8(bytes)
            .map_err(|_| snap_err("snapshot corrupted: arena is not valid UTF-8"))
    }

    /// The posting list (object ids) of term `term`, resolved through
    /// the CSR start and posting pages only.
    pub fn postings(&mut self, term: u32) -> Result<Vec<u32>, DogmatixError> {
        let start = self.u32_at(SEC_POSTING_STARTS, term as u64)?;
        let end = self.u32_at(SEC_POSTING_STARTS, term as u64 + 1)?;
        let n = end
            .checked_sub(start)
            .ok_or_else(|| snap_err("paged snapshot corrupted: non-monotonic posting starts"))?;
        let mut bytes = vec![0u8; n as usize * 4];
        self.read_at(SEC_POSTINGS, start as u64 * 4, &mut bytes)?;
        let mut c = Cursor::new(&bytes);
        (0..n).map(|_| c.u32().map_err(snap_err)).collect()
    }

    /// Pool counters so far (hits, misses, evictions, peak residency).
    pub fn stats(&self) -> PoolStats {
        self.pool.stats()
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
    fn paged_roundtrip_matches_in_memory_under_a_tight_budget() {
        let path = temp("roundtrip");
        let (doc, schema) = corpus();
        let cold = detector(PagedBackend::save(&path).with_page_size(256))
            .run(&doc, &schema, "M")
            .unwrap();
        let backend = Arc::new(PagedBackend::open(&path, 1024));
        let warm = detector(Arc::clone(&backend))
            .run(&doc, &schema, "M")
            .unwrap();
        let in_memory = detector(InMemoryBackend).run(&doc, &schema, "M").unwrap();
        assert_eq!(cold, warm);
        assert_eq!(warm, in_memory);
        // A 1 KiB budget over 256 B pages = 4 frames; the snapshot is
        // far larger, so the load must have evicted and stayed bounded.
        let stats = backend.last_stats().unwrap();
        assert!(stats.peak_resident_bytes <= 1024, "{stats:?}");
        assert!(stats.evictions > 0, "{stats:?}");
        assert!(
            std::fs::metadata(&path).unwrap().len() > 1024,
            "snapshot must exceed the budget for this test to mean anything"
        );
    }

    #[test]
    fn paged_reader_point_reads_match_the_decoded_store() {
        let path = temp("points");
        let (doc, schema) = corpus();
        let dx = detector(PagedBackend::save(&path).with_page_size(256));
        dx.run(&doc, &schema, "M").unwrap();

        // Ground truth from a full in-memory build.
        let reference = detector(InMemoryBackend);
        let session = reference.session(&doc, &schema, "M").unwrap();
        let selections = session
            .selections_for(reference.selector_stage().as_ref())
            .unwrap();
        let ods = session.object_descriptions(&selections);
        let store = ods.store();

        let mut reader = PagedReader::open(&path, 1024).unwrap();
        assert_eq!(reader.term_count(), store.term_count());
        let step = (store.term_count() / 13).max(1);
        for t in (0..store.term_count()).step_by(step) {
            assert_eq!(reader.term_text(t as u32).unwrap(), store.norm(t));
            assert_eq!(reader.postings(t as u32).unwrap(), store.postings(t));
        }
        let stats = reader.stats();
        assert!(stats.peak_resident_bytes <= 1024, "{stats:?}");
    }

    #[test]
    fn version_cross_errors_name_both_versions() {
        // A file labelled with the retired flat version 1 (or any other
        // version) is refused naming its version and the one this build
        // reads — by the point reader and by the backend.
        let (doc, schema) = corpus();
        let path = temp("relabelled");
        detector(PagedBackend::save(&path))
            .run(&doc, &schema, "M")
            .unwrap();
        let mut data = std::fs::read(&path).unwrap();
        data[4..8].copy_from_slice(&1u32.to_le_bytes());
        std::fs::write(&path, &data).unwrap();
        let err = PagedReader::open(&path, 1 << 16).unwrap_err();
        let msg = err.to_string();
        assert!(matches!(err, DogmatixError::Snapshot { .. }), "{msg}");
        assert!(msg.contains("version 1"), "{msg}");
        assert!(msg.contains("version 2"), "{msg}");
        let err = detector(PagedBackend::open(&path, 1 << 16))
            .run(&doc, &schema, "M")
            .unwrap_err();
        assert!(err.to_string().contains("version 1"), "{err}");
        let _ = std::fs::remove_file(&path);
    }
}
