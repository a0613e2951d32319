//! The columnar term store: one shared byte arena plus
//! structure-of-arrays columns for everything the description data path
//! reads after `prepare`.
//!
//! The pre-columnar representation carried four owned `String`s per OD
//! tuple and a `HashMap<(u32, String), TermId>` interner, so every layer
//! of the pipeline — batch, incremental, parallel, blocking — paid
//! allocation and hashing costs on data that is immutable once built.
//! Here all strings (normalised term values, raw tuple values, schema
//! paths, real-world type names) live in **one byte arena** addressed by
//! [`Span`]s, term metadata is split into parallel columns (norm span,
//! type id, char length, pre-computed IDF weight), and posting lists are
//! a single CSR array pair. The layout is also what makes the persistent
//! snapshot backend ([`crate::backend`]) trivial: a store serialises as
//! a handful of flat arrays and loads back byte-identical.
//!
//! Invariants the columns maintain:
//!
//! * term ids are assigned in order of first occurrence across the
//!   candidate iteration order (bit-compatible with the previous
//!   `HashMap` interner, which the incremental differential suite
//!   relies on),
//! * posting lists are sorted and deduplicated,
//! * `idf(id)` equals `ln(|Ω| / |postings(id)|)` for the object count
//!   the store was built against.
//!
//! ```
//! use dogmatix_core::od::OdSet;
//! use dogmatix_core::mapping::Mapping;
//! use dogmatix_xml::Document;
//! use std::collections::{BTreeSet, HashMap};
//!
//! let doc = Document::parse(
//!     "<r><m><t>The Matrix</t></m><m><t>The Matrix</t></m></r>")?;
//! let candidates = doc.select("/r/m")?;
//! let mut sel = HashMap::new();
//! sel.insert("/r/m".to_string(),
//!            ["/r/m/t".to_string()].into_iter().collect::<BTreeSet<_>>());
//! let ods = OdSet::build(&doc, &candidates, &sel, &Mapping::new());
//! let store = ods.store();
//! assert_eq!(store.term_count(), 1);             // one interned term
//! let term = ods.term(ods.od(0).tuple(0).term());
//! assert_eq!(term.norm(), "the matrix");         // read out of the arena
//! assert_eq!(term.postings(), &[0, 1]);          // CSR posting list
//! # Ok::<(), dogmatix_xml::XmlError>(())
//! ```

use dogmatix_textsim::idf;

pub mod audit;
pub(crate) mod codec;

/// A byte range into a store's shared arena.
///
/// Spans replace owned `String` fields everywhere downstream of the OD
/// builder; resolving one is two loads and a slice, with no pointer
/// chasing into per-tuple heap allocations.
///
/// ```
/// use dogmatix_core::store::Span;
/// let span = Span::new(4, 3);
/// assert_eq!(span.resolve("the matrix"), "mat");
/// assert_eq!(span.len(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Span {
    start: u32,
    len: u32,
}

impl Span {
    /// Creates a span covering `len` bytes from `start`.
    pub fn new(start: u32, len: u32) -> Self {
        Span { start, len }
    }

    /// Byte length of the span.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(self) -> usize {
        self.len as usize
    }

    /// The spanned string. The caller must pass the arena the span was
    /// created against; spans always lie on UTF-8 boundaries because the
    /// builder only interns whole `&str`s, so the slice is an O(1)
    /// boundary-checked index — no per-access UTF-8 scan on the
    /// comparison hot path (a deserialised arena is validated once, at
    /// snapshot load).
    #[inline]
    pub fn resolve(self, arena: &str) -> &str {
        // Widen before adding: a hostile span must never wrap u32 (the
        // snapshot loader validates against this same widened end).
        &arena[self.start as usize..self.start as usize + self.len as usize]
    }

    pub(crate) fn end(self) -> usize {
        self.start as usize + self.len as usize
    }

    /// Raw start offset (snapshot serialisation).
    pub(crate) fn start_raw(self) -> u32 {
        self.start
    }
}

/// Interned id of a distinct schema name path within one store.
///
/// ```
/// use dogmatix_core::od::OdSet;
/// # use dogmatix_core::mapping::Mapping;
/// # use dogmatix_xml::Document;
/// # use std::collections::{BTreeSet, HashMap};
/// # let doc = Document::parse("<r><m><t>x</t></m></r>")?;
/// # let candidates = doc.select("/r/m")?;
/// # let mut sel = HashMap::new();
/// # sel.insert("/r/m".to_string(),
/// #            ["/r/m/t".to_string()].into_iter().collect::<BTreeSet<_>>());
/// let ods = OdSet::build(&doc, &candidates, &sel, &Mapping::new());
/// let path_id = ods.od(0).tuple(0).path_id();
/// assert_eq!(ods.store().path_name(path_id), "/r/m/t");
/// # Ok::<(), dogmatix_xml::XmlError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PathId(pub(crate) u32);

impl PathId {
    /// Index into the store's path-name table.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Per-real-world-type aggregate statistics, computed when the store is
/// finished and carried into snapshots (so a warm-started run can report
/// its corpus shape without touching the document).
///
/// ```
/// use dogmatix_core::store::TypeStats;
/// let stats = TypeStats { terms: 3, tuples: 5, postings: 6 };
/// assert_eq!(stats.terms, 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TypeStats {
    /// Distinct terms of this type.
    pub terms: u32,
    /// OD tuples of this type across all objects.
    pub tuples: u32,
    /// Total posting-list entries over the type's terms.
    pub postings: u32,
}

/// The columnar term store: shared byte arena + SoA term columns + CSR
/// posting lists + interned type/path name tables.
///
/// Built by [`crate::od::OdSet::build`] /
/// [`crate::od::OdSet::build_from_raw`]; read through
/// [`crate::od::TermRef`] or the raw accessors here. See the module
/// docs for an end-to-end example.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TermStore {
    /// All interned string bytes.
    pub(crate) arena: String,
    /// Per-term: span of the normalised value.
    pub(crate) term_norm: Vec<Span>,
    /// Per-term: interned real-world type id.
    pub(crate) term_type: Vec<u32>,
    /// Per-term: length of the normalised value in chars (cached for
    /// the distance bounds).
    pub(crate) term_char_len: Vec<u32>,
    /// Per-term: `idf(|Ω|, |postings|)` — the per-term weight column.
    pub(crate) term_idf: Vec<f64>,
    /// CSR posting-list offsets (`term_count + 1` entries).
    pub(crate) posting_starts: Vec<u32>,
    /// Concatenated sorted, deduplicated posting lists.
    pub(crate) postings: Vec<u32>,
    /// Interned real-world type names, indexed by type id.
    pub(crate) type_names: Vec<Span>,
    /// Interned schema name paths, indexed by [`PathId`].
    pub(crate) path_names: Vec<Span>,
    /// Per-type aggregate statistics (aligned with `type_names`).
    pub(crate) type_stats: Vec<TypeStats>,
    /// The object count `|Ω|` the IDF column was computed against.
    pub(crate) object_count: u32,
}

impl TermStore {
    /// Number of interned terms.
    ///
    /// ```
    /// use dogmatix_core::store::TermStore;
    /// assert_eq!(TermStore::default().term_count(), 0);
    /// ```
    pub fn term_count(&self) -> usize {
        self.term_norm.len()
    }

    /// Number of interned real-world types.
    pub fn type_count(&self) -> usize {
        self.type_names.len()
    }

    /// Number of interned schema paths.
    pub fn path_count(&self) -> usize {
        self.path_names.len()
    }

    /// The object count `|Ω|` this store was built against.
    pub fn object_count(&self) -> usize {
        self.object_count as usize
    }

    /// Byte length of the shared string arena.
    pub fn arena_len(&self) -> usize {
        self.arena.len()
    }

    /// Normalised value of a term. Panics on a foreign id (see
    /// [`crate::od::OdSet::term`] for the invariant).
    #[inline]
    pub fn norm(&self, term: usize) -> &str {
        self.term_norm[term].resolve(&self.arena)
    }

    /// Interned type id of a term.
    #[inline]
    pub fn type_id(&self, term: usize) -> u32 {
        self.term_type[term]
    }

    /// Char length of a term's normalised value.
    #[inline]
    pub fn char_len(&self, term: usize) -> usize {
        self.term_char_len[term] as usize
    }

    /// Pre-computed `idf(|Ω|, |postings|)` of a term.
    #[inline]
    pub fn idf(&self, term: usize) -> f64 {
        self.term_idf[term]
    }

    /// Sorted, deduplicated posting list of a term.
    #[inline]
    pub fn postings(&self, term: usize) -> &[u32] {
        &self.postings[self.posting_starts[term] as usize..self.posting_starts[term + 1] as usize]
    }

    /// Posting-list length of a term without materialising the slice.
    #[inline]
    pub fn posting_len(&self, term: usize) -> usize {
        (self.posting_starts[term + 1] - self.posting_starts[term]) as usize
    }

    /// Name of an interned real-world type.
    #[inline]
    pub fn type_name(&self, type_id: u32) -> &str {
        self.type_names[type_id as usize].resolve(&self.arena)
    }

    /// Name of an interned schema path.
    #[inline]
    pub fn path_name(&self, path: PathId) -> &str {
        self.path_names[path.index()].resolve(&self.arena)
    }

    /// Looks up the [`PathId`] of a schema path, if it was interned.
    /// Path tables are tiny (one entry per selected schema path), so the
    /// linear scan beats carrying a lookup map through snapshots.
    pub fn find_path(&self, path: &str) -> Option<PathId> {
        self.path_names
            .iter()
            .position(|s| s.resolve(&self.arena) == path)
            .map(|i| PathId(i as u32))
    }

    /// Per-type aggregate statistics, aligned with type ids.
    pub fn type_stats(&self) -> &[TypeStats] {
        &self.type_stats
    }

    // ---- raw column views + reassembly (snapshot support) ------------

    /// The raw arena bytes (snapshot serialisation).
    pub(crate) fn arena_bytes(&self) -> &[u8] {
        self.arena.as_bytes()
    }
    /// The per-term norm spans.
    pub(crate) fn term_norm_spans(&self) -> &[Span] {
        &self.term_norm
    }
    /// The per-term type-id column.
    pub(crate) fn term_types(&self) -> &[u32] {
        &self.term_type
    }
    /// The per-term char-length column.
    pub(crate) fn term_char_lens(&self) -> &[u32] {
        &self.term_char_len
    }
    /// The per-term IDF column.
    pub(crate) fn term_idfs(&self) -> &[f64] {
        &self.term_idf
    }
    /// The CSR posting offsets.
    pub(crate) fn posting_starts(&self) -> &[u32] {
        &self.posting_starts
    }
    /// The concatenated posting lists.
    pub(crate) fn postings_raw(&self) -> &[u32] {
        &self.postings
    }
    /// The type-name span table.
    pub(crate) fn type_name_spans(&self) -> &[Span] {
        &self.type_names
    }
    /// The path-name span table.
    pub(crate) fn path_name_spans(&self) -> &[Span] {
        &self.path_names
    }

    /// Reassembles a store from deserialised (and already validated)
    /// columns — the snapshot loader's constructor.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        arena: String,
        term_norm: Vec<Span>,
        term_type: Vec<u32>,
        term_char_len: Vec<u32>,
        term_idf: Vec<f64>,
        posting_starts: Vec<u32>,
        postings: Vec<u32>,
        type_names: Vec<Span>,
        path_names: Vec<Span>,
        type_stats: Vec<TypeStats>,
        object_count: u32,
    ) -> TermStore {
        TermStore {
            arena,
            term_norm,
            term_type,
            term_char_len,
            term_idf,
            posting_starts,
            postings,
            type_names,
            path_names,
            type_stats,
            object_count,
        }
    }

    /// Total heap footprint of the store in bytes — the number the
    /// scaling bench's memory gate and the eval blocking table report.
    ///
    /// ```
    /// use dogmatix_core::store::TermStore;
    /// assert_eq!(TermStore::default().heap_bytes(), 0);
    /// ```
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.arena.capacity()
            + self.term_norm.capacity() * size_of::<Span>()
            + self.term_type.capacity() * size_of::<u32>()
            + self.term_char_len.capacity() * size_of::<u32>()
            + self.term_idf.capacity() * size_of::<f64>()
            + self.posting_starts.capacity() * size_of::<u32>()
            + self.postings.capacity() * size_of::<u32>()
            + self.type_names.capacity() * size_of::<Span>()
            + self.path_names.capacity() * size_of::<Span>()
            + self.type_stats.capacity() * size_of::<TypeStats>()
    }
}

/// FNV-1a over a string's bytes — the builder's bucket hash (the shared
/// [`dogmatix_textsim::Fnv1a`] state machine). Collisions are resolved
/// by comparing arena bytes, so the hash only has to spread buckets,
/// never to be unique.
#[inline]
fn fnv(s: &str) -> u64 {
    let mut h = dogmatix_textsim::Fnv1a::new();
    h.update(s.as_bytes());
    h.finish()
}

/// Incremental builder behind [`crate::od::OdSet::build`]: interns
/// strings into the arena with hash-bucketed lookups (no owned `String`
/// keys), accumulates posting lists, and finishes into the CSR columns.
#[derive(Debug, Default)]
pub(crate) struct StoreBuilder {
    arena: String,
    term_norm: Vec<Span>,
    term_type: Vec<u32>,
    term_char_len: Vec<u32>,
    /// Per-term posting list, flattened to CSR in [`StoreBuilder::finish`].
    posting_lists: Vec<Vec<u32>>,
    type_names: Vec<Span>,
    path_names: Vec<Span>,
    /// `(type_id, fnv(norm))` → candidate term ids (collision chain).
    term_lookup: std::collections::HashMap<(u32, u64), Vec<u32>>,
    /// `fnv(name)` → candidate type ids.
    type_lookup: std::collections::HashMap<u64, Vec<u32>>,
    /// `fnv(path)` → candidate path ids.
    path_lookup: std::collections::HashMap<u64, Vec<u32>>,
    /// `fnv(value)` → spans of already-interned raw values (dedup).
    value_lookup: std::collections::HashMap<u64, Vec<Span>>,
}

impl StoreBuilder {
    /// Copies `s` into the arena, returning its span (no dedup).
    fn push_bytes(&mut self, s: &str) -> Span {
        let start = self.arena.len() as u32;
        self.arena.push_str(s);
        Span::new(start, s.len() as u32)
    }

    /// Interns a raw tuple value, deduplicating identical values into a
    /// single arena span.
    pub(crate) fn intern_value(&mut self, value: &str) -> Span {
        let h = fnv(value);
        if let Some(spans) = self.value_lookup.get(&h) {
            for &span in spans {
                if span.resolve(&self.arena) == value {
                    return span;
                }
            }
        }
        let span = self.push_bytes(value);
        self.value_lookup.entry(h).or_default().push(span);
        span
    }

    /// Interns a real-world type name, returning its id (first
    /// occurrence assigns the next id).
    pub(crate) fn intern_type(&mut self, name: &str) -> u32 {
        let h = fnv(name);
        if let Some(ids) = self.type_lookup.get(&h) {
            for &id in ids {
                if self.type_names[id as usize].resolve(&self.arena) == name {
                    return id;
                }
            }
        }
        let span = self.push_bytes(name);
        let id = self.type_names.len() as u32;
        self.type_names.push(span);
        self.type_lookup.entry(h).or_default().push(id);
        id
    }

    /// Interns a schema name path.
    pub(crate) fn intern_path(&mut self, path: &str) -> PathId {
        let h = fnv(path);
        if let Some(ids) = self.path_lookup.get(&h) {
            for &id in ids {
                if self.path_names[id as usize].resolve(&self.arena) == path {
                    return PathId(id);
                }
            }
        }
        let span = self.push_bytes(path);
        let id = self.path_names.len() as u32;
        self.path_names.push(span);
        self.path_lookup.entry(h).or_default().push(id);
        PathId(id)
    }

    /// Interns a `(type, normalised value)` term, returning its id in
    /// first-occurrence order — the exact id assignment of the previous
    /// `HashMap<(u32, String), TermId>` interner.
    pub(crate) fn intern_term(&mut self, type_id: u32, norm: &str) -> u32 {
        let h = fnv(norm);
        if let Some(ids) = self.term_lookup.get(&(type_id, h)) {
            for &id in ids {
                if self.term_norm[id as usize].resolve(&self.arena) == norm {
                    return id;
                }
            }
        }
        let span = self.push_bytes(norm);
        let id = self.term_norm.len() as u32;
        self.term_norm.push(span);
        self.term_type.push(type_id);
        self.term_char_len.push(norm.chars().count() as u32);
        self.posting_lists.push(Vec::new());
        self.term_lookup.entry((type_id, h)).or_default().push(id);
        id
    }

    /// Appends an object to a term's posting list (deduplicating the
    /// consecutive repeats a multi-tuple object produces).
    pub(crate) fn add_posting(&mut self, term: u32, od_index: u32) {
        let list = &mut self.posting_lists[term as usize];
        if list.last() != Some(&od_index) {
            list.push(od_index);
        }
    }

    /// Flattens the builder into the immutable columnar store, computing
    /// the CSR postings, the IDF column for `object_count` objects, and
    /// the per-type statistics (`tuple_type_ids` is the type id of every
    /// tuple in the set, for the per-type tuple counts).
    pub(crate) fn finish(self, object_count: usize, tuple_type_ids: &[u32]) -> TermStore {
        let mut posting_starts = Vec::with_capacity(self.posting_lists.len() + 1);
        let total: usize = self.posting_lists.iter().map(Vec::len).sum();
        let mut postings = Vec::with_capacity(total);
        posting_starts.push(0u32);
        for list in &self.posting_lists {
            postings.extend_from_slice(list);
            posting_starts.push(postings.len() as u32);
        }
        let term_idf: Vec<f64> = self
            .posting_lists
            .iter()
            .map(|l| idf(object_count, l.len().max(1)))
            .collect();
        let mut type_stats = vec![TypeStats::default(); self.type_names.len()];
        for (term, &ty) in self.term_type.iter().enumerate() {
            let s = &mut type_stats[ty as usize];
            s.terms += 1;
            s.postings += self.posting_lists[term].len() as u32;
        }
        for &ty in tuple_type_ids {
            type_stats[ty as usize].tuples += 1;
        }
        TermStore {
            arena: self.arena,
            term_norm: self.term_norm,
            term_type: self.term_type,
            term_char_len: self.term_char_len,
            term_idf,
            posting_starts,
            postings,
            type_names: self.type_names,
            path_names: self.path_names,
            type_stats,
            object_count: object_count as u32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_assigns_first_occurrence_ids_and_dedups() {
        let mut b = StoreBuilder::default();
        let ty = b.intern_type("TITLE");
        assert_eq!(ty, 0);
        assert_eq!(b.intern_type("YEAR"), 1);
        assert_eq!(b.intern_type("TITLE"), 0, "types deduplicate");
        let t0 = b.intern_term(ty, "the matrix");
        let t1 = b.intern_term(ty, "signs");
        assert_eq!((t0, t1), (0, 1));
        assert_eq!(b.intern_term(ty, "the matrix"), 0, "terms deduplicate");
        assert_eq!(
            b.intern_term(1, "the matrix"),
            2,
            "same norm, different type is a distinct term"
        );
        let v1 = b.intern_value("Raw Value");
        let v2 = b.intern_value("Raw Value");
        assert_eq!(v1, v2, "raw values share one arena span");
        let p = b.intern_path("/r/m/t");
        assert_eq!(b.intern_path("/r/m/t"), p);

        b.add_posting(t0, 0);
        b.add_posting(t0, 0); // consecutive repeat collapses
        b.add_posting(t0, 2);
        b.add_posting(t1, 1);
        let store = b.finish(3, &[ty, ty, 1]);
        assert_eq!(store.term_count(), 3);
        assert_eq!(store.postings(0), &[0, 2]);
        assert_eq!(store.postings(1), &[1]);
        assert_eq!(store.posting_len(0), 2);
        assert_eq!(store.norm(0), "the matrix");
        assert_eq!(store.norm(2), "the matrix");
        assert_eq!(store.type_id(2), 1);
        assert_eq!(store.char_len(0), 10);
        assert_eq!(store.type_name(0), "TITLE");
        assert_eq!(store.path_name(p), "/r/m/t");
        assert_eq!(store.find_path("/r/m/t"), Some(p));
        assert_eq!(store.find_path("/nope"), None);
        assert_eq!(store.object_count(), 3);
        // The IDF column matches the free function.
        assert_eq!(store.idf(0), dogmatix_textsim::idf(3, 2));
        assert_eq!(store.idf(1), dogmatix_textsim::idf(3, 1));
        // Per-type stats: TITLE has 2 terms (ids 0, 1), 2 tuples, 3 postings.
        assert_eq!(
            store.type_stats()[0],
            TypeStats {
                terms: 2,
                tuples: 2,
                postings: 3
            }
        );
        assert!(store.heap_bytes() > 0);
        assert!(store.arena_len() >= "the matrixsigns".len());
    }

    #[test]
    fn span_resolves_into_arena() {
        let arena = "hello world";
        assert_eq!(Span::new(6, 5).resolve(arena), "world");
        assert_eq!(Span::new(0, 0).resolve(arena), "");
        assert_eq!(Span::new(0, 0).len(), 0);
        assert_eq!(Span::new(6, 5).end(), 11);
    }

    #[test]
    fn hash_collisions_resolve_by_bytes() {
        // Force every key into one bucket by interning many strings —
        // correctness must come from the byte comparison, not the hash.
        let mut b = StoreBuilder::default();
        let ty = b.intern_type("T");
        let ids: Vec<u32> = (0..200)
            .map(|i| b.intern_term(ty, &format!("value {i}")))
            .collect();
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(b.intern_term(ty, &format!("value {i}")), *id);
        }
    }
}
