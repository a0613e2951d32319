//! Object descriptions (framework Definitions 2–3, detection Steps 2–3).
//!
//! An object description (OD) is a relation `OD(value, name)`; for XML the
//! tuples are `<text, xpath>` pairs (Section 3.4). This module instantiates
//! descriptions: given a candidate element and a selection `σ` of schema
//! paths, it collects the matching ancestor/descendant instances and emits
//! one OD tuple per non-empty text value. In line with Section 4's
//! content-model discussion, elements without a text node yield no tuple —
//! "it is not similar to any other OD tuple, however, it should not be
//! considered contradictory as it contains no data".
//!
//! For efficiency, tuple values are normalised once and interned into
//! *terms*: a term is a distinct `(real-world type, normalised value)`
//! pair with a posting list of the ODs containing it. `softIDF`
//! (Definition 8) and the object filter (Section 5.2) are computed on the
//! term level — the paper's "graph representation to associate ODs and
//! their contained OD tuples".
//!
//! Since the columnar-store refactor, an [`OdSet`] is **structure of
//! arrays end to end**: every string lives in the shared byte arena of a
//! [`TermStore`] ([`crate::store`]), tuples are four parallel columns
//! (term id, value span, path id — type id lives on the term) addressed
//! per object through CSR offsets, and the type groups the pairwise hot
//! path merge-joins are flattened index ranges. Borrowing views —
//! [`OdRef`], [`TupleRef`], [`TermRef`] — give the ergonomic access the
//! old owned structs had, at the cost of two integer loads instead of a
//! pointer chase.

use crate::mapping::Mapping;
use crate::simgraph::SimilarTerms;
use crate::store::{PathId, Span, StoreBuilder, TermStore};
use dogmatix_xml::{Document, NodeId};
use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, OnceLock};

/// Interned id of a distinct `(rw_type, normalised value)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(pub(crate) u32);

impl TermId {
    /// Column index of the term within its [`OdSet`]'s store.
    ///
    /// ```
    /// use dogmatix_core::od::TermId;
    /// assert_eq!(TermId::from_index(3).index(), 3);
    /// ```
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The id addressing column index `index` (for tests and tools that
    /// enumerate a store; detection code receives ids from the builder).
    pub fn from_index(index: usize) -> TermId {
        TermId(index as u32)
    }
}

/// All ODs of a candidate set plus the columnar term store.
///
/// Tuple data is stored as parallel columns addressed per object via CSR
/// offsets; every string is a [`Span`] into the store's byte arena.
/// Cloning an `OdSet` is a handful of `memcpy`s, and equality is a flat
/// column comparison — both were deep per-tuple walks before.
///
/// A set may also carry its similar-term graph ([`SimilarTerms`]) for
/// one `θ_tuple`. The object filter builds it on first request
/// ([`OdSet::similar_terms`]), and the softIDF measure reads it to skip
/// zero-score pairs ([`OdSet::cached_similar_terms`]). It is derived from
/// the columns, so equality, snapshots, [`OdSet::heap_bytes`] and the
/// store audit ignore it, and a clone shares it.
///
/// ```
/// use dogmatix_core::od::OdSet;
/// use dogmatix_core::mapping::Mapping;
/// use dogmatix_xml::Document;
/// use std::collections::{BTreeSet, HashMap};
///
/// let doc = Document::parse(
///     "<r><m><t>The Matrix</t><y>1999</y></m><m><y>1999</y></m></r>")?;
/// let candidates = doc.select("/r/m")?;
/// let mut sel = HashMap::new();
/// sel.insert("/r/m".to_string(),
///            ["/r/m/t".to_string(), "/r/m/y".to_string()]
///                .into_iter().collect::<BTreeSet<_>>());
/// let ods = OdSet::build(&doc, &candidates, &sel, &Mapping::new());
/// assert_eq!(ods.len(), 2);
/// let first = ods.od(0);
/// let values: Vec<&str> = first.tuples().map(|t| t.value()).collect();
/// assert_eq!(values, ["The Matrix", "1999"]);
/// // The shared year interned to one term with postings [0, 1].
/// let year = ods.terms().find(|t| t.norm() == "1999").unwrap();
/// assert_eq!(year.postings(), &[0, 1]);
/// # Ok::<(), dogmatix_xml::XmlError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct OdSet {
    /// Candidate element per OD, aligned with OD indices.
    nodes: Vec<NodeId>,
    /// The columnar term store (terms, postings, IDF, names, arena).
    store: TermStore,
    /// CSR offsets into the tuple columns (`len + 1` entries).
    od_starts: Vec<u32>,
    /// Tuple column: interned term id.
    tuple_term: Vec<TermId>,
    /// Tuple column: raw value span into the store arena.
    tuple_value: Vec<Span>,
    /// Tuple column: interned schema path id.
    tuple_path: Vec<PathId>,
    /// CSR offsets into the group columns (`len + 1` entries).
    od_group_starts: Vec<u32>,
    /// Group column: real-world type id (sorted ascending within an OD).
    group_types: Vec<u32>,
    /// CSR offsets into `group_tuples` (`group_types.len() + 1`).
    group_starts: Vec<u32>,
    /// Flattened OD-local tuple indices per group.
    group_tuples: Vec<u32>,
    /// The similar-term graph, built on first request (derived data).
    similar: SimilarCache,
}

/// The lazily built [`SimilarTerms`] of one set, for the one `θ_tuple`
/// it was first requested at. Derived from the columns, so it takes no
/// part in equality, snapshots, [`OdSet::heap_bytes`] or the audit.
#[derive(Clone, Default)]
struct SimilarCache(OnceLock<Arc<SimilarTerms>>);

impl PartialEq for SimilarCache {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl std::fmt::Debug for SimilarCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.0.get() {
            Some(graph) => write!(f, "SimilarCache({} edges)", graph.edge_count()),
            None => f.write_str("SimilarCache(empty)"),
        }
    }
}

impl OdSet {
    /// Number of objects (`|Ω_T|`, the softIDF denominator base).
    ///
    /// ```
    /// use dogmatix_core::od::OdSet;
    /// assert_eq!(OdSet::default().len(), 0);
    /// ```
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the set is empty.
    ///
    /// ```
    /// use dogmatix_core::od::OdSet;
    /// assert!(OdSet::default().is_empty());
    /// ```
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The columnar term store backing this set.
    pub fn store(&self) -> &TermStore {
        &self.store
    }

    /// Number of interned terms.
    pub fn term_count(&self) -> usize {
        self.store.term_count()
    }

    /// The candidate element of OD `i`.
    #[inline]
    pub fn node(&self, i: usize) -> NodeId {
        self.nodes[i]
    }

    /// Candidate elements, aligned with OD indices.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Term metadata for a term id.
    ///
    /// # Invariant
    ///
    /// `id` must have been produced by **this** set's build (or carry
    /// over from a snapshot of it). Passing an id from a different
    /// `OdSet` is a logic error: an out-of-range id panics (debug builds
    /// name the id), an in-range foreign id silently reads the wrong
    /// term. Use [`OdSet::try_term`] when the provenance of an id is
    /// uncertain — e.g. ids deserialised from external input.
    #[inline]
    pub fn term(&self, id: TermId) -> TermRef<'_> {
        debug_assert!(
            id.index() < self.store.term_count(),
            "stale TermId {}: this store holds {} terms",
            id.0,
            self.store.term_count()
        );
        TermRef {
            store: &self.store,
            index: id.index(),
        }
    }

    /// Checked [`OdSet::term`]: `None` when the id does not address a
    /// term of this store.
    ///
    /// ```
    /// use dogmatix_core::od::{OdSet, TermId};
    /// let empty = OdSet::default();
    /// assert!(empty.try_term(TermId::from_index(0)).is_none());
    /// ```
    pub fn try_term(&self, id: TermId) -> Option<TermRef<'_>> {
        (id.index() < self.store.term_count()).then(|| TermRef {
            store: &self.store,
            index: id.index(),
        })
    }

    /// Iterates the interned terms in id order.
    pub fn terms(&self) -> impl Iterator<Item = TermRef<'_>> {
        (0..self.store.term_count()).map(move |index| TermRef {
            store: &self.store,
            index,
        })
    }

    /// Borrowing view of OD `i`.
    ///
    /// # Invariant
    ///
    /// Like [`OdSet::term`], `i` must be an OD index of this set
    /// (`i < len()`); out-of-range indices panic. Use [`OdSet::try_od`]
    /// for indices of uncertain provenance.
    #[inline]
    pub fn od(&self, i: usize) -> OdRef<'_> {
        debug_assert!(
            i < self.len(),
            "stale OD index {i}: this set holds {} ODs",
            self.len()
        );
        OdRef {
            set: self,
            index: i,
        }
    }

    /// Checked [`OdSet::od`].
    pub fn try_od(&self, i: usize) -> Option<OdRef<'_>> {
        (i < self.len()).then_some(OdRef {
            set: self,
            index: i,
        })
    }

    /// Iterates the ODs in candidate order.
    ///
    /// ```
    /// use dogmatix_core::od::OdSet;
    /// assert_eq!(OdSet::default().iter().count(), 0);
    /// ```
    pub fn iter(&self) -> impl Iterator<Item = OdRef<'_>> {
        (0..self.len()).map(move |index| OdRef { set: self, index })
    }

    /// The term-id column of OD `i` — the allocation-free view the
    /// pairwise hot path and the blocking indexes iterate.
    #[inline]
    pub fn tuple_terms(&self, i: usize) -> &[TermId] {
        &self.tuple_term[self.od_starts[i] as usize..self.od_starts[i + 1] as usize]
    }

    /// Steps 2+3 — description query execution and OD generation, fused
    /// as the paper suggests ("in practice the queries may be combined").
    ///
    /// `selections` maps each candidate's schema path to its selection
    /// `σ` (a set of schema name paths); candidates originating from
    /// different schema elements (integration scenarios) get their own
    /// selection.
    ///
    /// Internally this is [`extract_raw_tuples`] per candidate followed by
    /// [`OdSet::build_from_raw`]; incremental callers
    /// ([`crate::incremental`]) cache the extraction per candidate and
    /// re-run only the interning step after a document delta.
    ///
    /// ```
    /// use dogmatix_core::od::OdSet;
    /// use dogmatix_core::mapping::Mapping;
    /// use dogmatix_xml::Document;
    /// use std::collections::HashMap;
    ///
    /// let doc = Document::parse("<r><m><t>x</t></m></r>")?;
    /// let candidates = doc.select("/r/m")?;
    /// // No selection: every OD is empty but the set is aligned.
    /// let ods = OdSet::build(&doc, &candidates, &HashMap::new(), &Mapping::new());
    /// assert_eq!(ods.len(), 1);
    /// assert!(ods.od(0).is_empty());
    /// # Ok::<(), dogmatix_xml::XmlError>(())
    /// ```
    pub fn build(
        doc: &Document,
        candidates: &[NodeId],
        selections: &HashMap<String, BTreeSet<String>>,
        mapping: &Mapping,
    ) -> OdSet {
        let mut interner = Interner::default();
        for &cand in candidates {
            let cand_path = doc.name_path(cand);
            let raw = extract_raw_tuples(doc, cand, selections.get(&cand_path), mapping);
            interner.push(cand, &raw);
        }
        interner.finish()
    }

    /// OD generation from pre-extracted raw tuples: interns real-world
    /// types and terms into the columnar store, builds posting lists,
    /// and groups tuples by type for the pairwise hot path.
    ///
    /// Term and type ids are assigned in order of first occurrence across
    /// the candidate iteration order, so building from the same raw
    /// tuples always yields an `OdSet` identical to [`OdSet::build`] —
    /// the property the incremental differential tests rely on.
    ///
    /// ```
    /// use dogmatix_core::od::{OdSet, RawTuple};
    /// let raw = vec![RawTuple {
    ///     value: "The Matrix".into(),
    ///     path: "/r/m/t".into(),
    ///     rw_type: "/r/m/t".into(),
    ///     norm: "the matrix".into(),
    /// }];
    /// let doc = dogmatix_xml::Document::parse("<r/>")?;
    /// let node = doc.root_element().unwrap();
    /// let ods = OdSet::build_from_raw([(node, raw.as_slice())]);
    /// assert_eq!(ods.term_count(), 1);
    /// # Ok::<(), dogmatix_xml::XmlError>(())
    /// ```
    pub fn build_from_raw<'a, I>(parts: I) -> OdSet
    where
        I: IntoIterator<Item = (NodeId, &'a [RawTuple])>,
    {
        let mut interner = Interner::default();
        for (cand, raw) in parts {
            interner.push(cand, raw);
        }
        interner.finish()
    }

    // ---- raw column accessors for the hot paths -----------------------

    /// Global tuple range of OD `i` within the tuple columns.
    #[inline]
    pub(crate) fn od_range(&self, i: usize) -> std::ops::Range<usize> {
        self.od_starts[i] as usize..self.od_starts[i + 1] as usize
    }

    /// Term id of the `local`-th tuple of OD `i`.
    #[inline]
    pub(crate) fn tuple_term_at(&self, i: usize, local: usize) -> TermId {
        self.tuple_term[self.od_starts[i] as usize + local]
    }

    /// Type groups of OD `i`: `(type_id, OD-local tuple indices)` pairs,
    /// sorted ascending by type id.
    #[inline]
    pub(crate) fn od_groups(&self, i: usize) -> impl ExactSizeIterator<Item = (u32, &[u32])> {
        self.od_group_range(i)
            .map(move |g| (self.group_type(g), self.group_tuple_slice(g)))
    }

    /// Global group-index range of OD `i` (for the merge-join's random
    /// access into the group columns).
    #[inline]
    pub(crate) fn od_group_range(&self, i: usize) -> std::ops::Range<usize> {
        self.od_group_starts[i] as usize..self.od_group_starts[i + 1] as usize
    }

    /// Number of type groups across all ODs (the first global group
    /// index an appended object would get).
    #[inline]
    pub(crate) fn group_count(&self) -> usize {
        self.group_types.len()
    }

    /// Type id of global group `g`.
    #[inline]
    pub(crate) fn group_type(&self, g: usize) -> u32 {
        self.group_types[g]
    }

    /// OD-local tuple indices of global group `g`.
    #[inline]
    pub(crate) fn group_tuple_slice(&self, g: usize) -> &[u32] {
        &self.group_tuples[self.group_starts[g] as usize..self.group_starts[g + 1] as usize]
    }

    /// Total heap footprint of the set (store arena + columns) in bytes.
    ///
    /// ```
    /// use dogmatix_core::od::OdSet;
    /// assert_eq!(OdSet::default().heap_bytes(), 0);
    /// ```
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.store.heap_bytes()
            + self.nodes.capacity() * size_of::<NodeId>()
            + self.od_starts.capacity() * size_of::<u32>()
            + self.tuple_term.capacity() * size_of::<TermId>()
            + self.tuple_value.capacity() * size_of::<Span>()
            + self.tuple_path.capacity() * size_of::<PathId>()
            + self.od_group_starts.capacity() * size_of::<u32>()
            + self.group_types.capacity() * size_of::<u32>()
            + self.group_starts.capacity() * size_of::<u32>()
            + self.group_tuples.capacity() * size_of::<u32>()
    }

    // ---- snapshot support (crate-internal) ----------------------------

    /// Decomposes the set into its raw columns for serialisation.
    #[allow(clippy::type_complexity)]
    pub(crate) fn columns(
        &self,
    ) -> (
        &TermStore,
        &[u32],
        &[TermId],
        &[Span],
        &[PathId],
        &[u32],
        &[u32],
        &[u32],
        &[u32],
    ) {
        (
            &self.store,
            &self.od_starts,
            &self.tuple_term,
            &self.tuple_value,
            &self.tuple_path,
            &self.od_group_starts,
            &self.group_types,
            &self.group_starts,
            &self.group_tuples,
        )
    }

    /// Reassembles a set from deserialised columns plus the current
    /// run's candidate nodes (node ids are document state, deliberately
    /// not part of a snapshot).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_columns(
        nodes: Vec<NodeId>,
        store: TermStore,
        od_starts: Vec<u32>,
        tuple_term: Vec<TermId>,
        tuple_value: Vec<Span>,
        tuple_path: Vec<PathId>,
        od_group_starts: Vec<u32>,
        group_types: Vec<u32>,
        group_starts: Vec<u32>,
        group_tuples: Vec<u32>,
    ) -> OdSet {
        OdSet {
            nodes,
            store,
            od_starts,
            tuple_term,
            tuple_value,
            tuple_path,
            od_group_starts,
            group_types,
            group_starts,
            group_tuples,
            similar: SimilarCache::default(),
        }
    }

    /// Replaces the candidate nodes (snapshot warm start re-attaches the
    /// freshly resolved candidates to the loaded columns).
    pub(crate) fn set_nodes(&mut self, nodes: Vec<NodeId>) {
        self.nodes = nodes;
    }

    // ---- the similar-term graph (derived, cached) ----------------------

    /// The similar-term graph and support lists at `theta_tuple`
    /// ([`crate::simgraph`]). The first request builds the graph and
    /// caches it on the set; later requests at the same threshold share
    /// it, and a request at another threshold builds an uncached one.
    /// The object filter is the one caller in the pipeline, so each run
    /// joins the terms once and Step 5 reads the result through
    /// [`OdSet::cached_similar_terms`].
    pub fn similar_terms(&self, theta_tuple: f64) -> Arc<SimilarTerms> {
        let cached = self
            .similar
            .0
            .get_or_init(|| Arc::new(SimilarTerms::build(self, theta_tuple)));
        if cached.is_for(theta_tuple) {
            Arc::clone(cached)
        } else {
            Arc::new(SimilarTerms::build(self, theta_tuple))
        }
    }

    /// The cached similar-term graph, if one was built at exactly
    /// `theta_tuple`. Never builds one.
    pub fn cached_similar_terms(&self, theta_tuple: f64) -> Option<&SimilarTerms> {
        self.similar
            .0
            .get()
            .filter(|graph| graph.is_for(theta_tuple))
            .map(|graph| &**graph)
    }

    /// The cached similar-term graph at whatever `θ_tuple` it was built
    /// for. Never builds one.
    pub(crate) fn cached_graph(&self) -> Option<&SimilarTerms> {
        self.similar.0.get().map(|graph| &**graph)
    }

    /// Seeds the cache with a graph derived for this set elsewhere (the
    /// incremental path carries the previous run's graph). A set that
    /// already holds a graph keeps it.
    pub(crate) fn seed_similar_terms(&self, graph: SimilarTerms) {
        let _ = self.similar.0.set(Arc::new(graph));
    }
}

/// Borrowing view of one object description.
///
/// ```
/// # use dogmatix_core::od::OdSet;
/// # use dogmatix_core::mapping::Mapping;
/// # use dogmatix_xml::Document;
/// # use std::collections::{BTreeSet, HashMap};
/// # let doc = Document::parse("<r><m><t>A</t><y>1</y></m></r>")?;
/// # let candidates = doc.select("/r/m")?;
/// # let mut sel = HashMap::new();
/// # sel.insert("/r/m".to_string(),
/// #            ["/r/m/t".to_string(), "/r/m/y".to_string()]
/// #                .into_iter().collect::<BTreeSet<_>>());
/// let ods = OdSet::build(&doc, &candidates, &sel, &Mapping::new());
/// let od = ods.od(0);
/// assert_eq!(od.tuple_count(), 2);
/// assert_eq!(od.tuple(0).value(), "A");
/// // Tuples grouped by real-world type for the merge-join.
/// assert_eq!(od.groups().count(), 2);
/// # Ok::<(), dogmatix_xml::XmlError>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct OdRef<'a> {
    set: &'a OdSet,
    index: usize,
}

impl<'a> OdRef<'a> {
    /// The OD's index within its set (candidate order).
    pub fn index(&self) -> usize {
        self.index
    }

    /// The candidate element this OD describes.
    pub fn node(&self) -> NodeId {
        self.set.nodes[self.index]
    }

    /// Number of OD tuples.
    pub fn tuple_count(&self) -> usize {
        self.set.od_range(self.index).len()
    }

    /// Whether the description holds no tuple.
    pub fn is_empty(&self) -> bool {
        self.tuple_count() == 0
    }

    /// The `local`-th tuple (document order).
    #[inline]
    pub fn tuple(&self, local: usize) -> TupleRef<'a> {
        let range = self.set.od_range(self.index);
        debug_assert!(local < range.len());
        TupleRef {
            set: self.set,
            global: range.start + local,
        }
    }

    /// Iterates the OD's tuples in document order.
    pub fn tuples(&self) -> impl ExactSizeIterator<Item = TupleRef<'a>> {
        let set = self.set;
        self.set
            .od_range(self.index)
            .map(move |global| TupleRef { set, global })
    }

    /// The OD's term-id column.
    pub fn terms(&self) -> &'a [TermId] {
        self.set.tuple_terms(self.index)
    }

    /// Tuple indices grouped by interned type id, sorted by type id —
    /// the pairwise hot path merge-joins these instead of rebuilding a
    /// hash map per comparison.
    pub fn groups(&self) -> impl ExactSizeIterator<Item = (u32, &'a [u32])> {
        self.set.od_groups(self.index)
    }
}

/// Borrowing view of one OD tuple: `(value, name)` plus the resolved
/// real-world type and interned term id, all read out of the columnar
/// store.
#[derive(Debug, Clone, Copy)]
pub struct TupleRef<'a> {
    set: &'a OdSet,
    global: usize,
}

impl<'a> TupleRef<'a> {
    /// Raw text value as found in the document.
    #[inline]
    pub fn value(&self) -> &'a str {
        self.set.tuple_value[self.global].resolve(&self.set.store.arena)
    }

    /// Schema name path of the source element (the paper's `xpath`).
    pub fn path(&self) -> &'a str {
        self.set.store.path_name(self.set.tuple_path[self.global])
    }

    /// Interned schema path id.
    pub fn path_id(&self) -> PathId {
        self.set.tuple_path[self.global]
    }

    /// Real-world type per the mapping `M`.
    pub fn rw_type(&self) -> &'a str {
        self.set.store.type_name(self.type_id())
    }

    /// Interned real-world type id.
    #[inline]
    pub fn type_id(&self) -> u32 {
        self.set.store.type_id(self.term().index())
    }

    /// Interned term id.
    #[inline]
    pub fn term(&self) -> TermId {
        self.set.tuple_term[self.global]
    }
}

/// Borrowing view of one interned term's metadata columns.
///
/// ```
/// # use dogmatix_core::od::OdSet;
/// # use dogmatix_core::mapping::Mapping;
/// # use dogmatix_xml::Document;
/// # use std::collections::{BTreeSet, HashMap};
/// # let doc = Document::parse("<r><m><t>Aa</t></m><m><t>Aa</t></m></r>")?;
/// # let candidates = doc.select("/r/m")?;
/// # let mut sel = HashMap::new();
/// # sel.insert("/r/m".to_string(),
/// #            ["/r/m/t".to_string()].into_iter().collect::<BTreeSet<_>>());
/// let ods = OdSet::build(&doc, &candidates, &sel, &Mapping::new());
/// let term = ods.term(ods.od(0).tuple(0).term());
/// assert_eq!(term.norm(), "aa");
/// assert_eq!(term.char_len(), 2);
/// assert_eq!(term.postings(), &[0, 1]);
/// assert_eq!(term.idf(), dogmatix_textsim::idf(2, 2));
/// # Ok::<(), dogmatix_xml::XmlError>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct TermRef<'a> {
    store: &'a TermStore,
    index: usize,
}

impl<'a> TermRef<'a> {
    /// The term's id.
    pub fn id(&self) -> TermId {
        TermId(self.index as u32)
    }

    /// Normalised value.
    #[inline]
    pub fn norm(&self) -> &'a str {
        self.store.norm(self.index)
    }

    /// Real-world type name.
    pub fn rw_type(&self) -> &'a str {
        self.store.type_name(self.store.type_id(self.index))
    }

    /// Interned real-world type id.
    #[inline]
    pub fn type_id(&self) -> u32 {
        self.store.type_id(self.index)
    }

    /// Length of the normalised value in chars (cached for distance
    /// bounds).
    #[inline]
    pub fn char_len(&self) -> usize {
        self.store.char_len(self.index)
    }

    /// Sorted, deduplicated indices of ODs containing this term.
    #[inline]
    pub fn postings(&self) -> &'a [u32] {
        self.store.postings(self.index)
    }

    /// Pre-computed `idf(|Ω|, |postings|)` weight.
    #[inline]
    pub fn idf(&self) -> f64 {
        self.store.idf(self.index)
    }
}

/// Shared interning pass behind [`OdSet::build`] and
/// [`OdSet::build_from_raw`]: drives a [`StoreBuilder`] and lays the
/// tuple/group columns.
#[derive(Default)]
struct Interner {
    builder: StoreBuilder,
    nodes: Vec<NodeId>,
    od_starts: Vec<u32>,
    tuple_term: Vec<TermId>,
    tuple_value: Vec<Span>,
    tuple_path: Vec<PathId>,
    od_group_starts: Vec<u32>,
    group_types: Vec<u32>,
    group_starts: Vec<u32>,
    group_tuples: Vec<u32>,
    /// Scratch: type id per tuple of the OD being pushed.
    scratch_types: Vec<u32>,
    /// All tuple type ids (for the store's per-type stats).
    tuple_types: Vec<u32>,
}

impl Interner {
    /// Interns one candidate's tuples (in candidate order).
    fn push(&mut self, cand: NodeId, raw: &[RawTuple]) {
        if self.od_starts.is_empty() {
            self.od_starts.push(0);
            self.group_starts.push(0);
            self.od_group_starts.push(0);
        }
        let od_index = self.nodes.len() as u32;
        self.scratch_types.clear();
        for r in raw {
            let type_id = self.builder.intern_type(&r.rw_type);
            let term = self.builder.intern_term(type_id, &r.norm);
            self.builder.add_posting(term, od_index);
            self.tuple_term.push(TermId(term));
            self.tuple_value.push(self.builder.intern_value(&r.value));
            self.tuple_path.push(self.builder.intern_path(&r.path));
            self.scratch_types.push(type_id);
            self.tuple_types.push(type_id);
        }
        // Group OD-local tuple indices by type id for the pairwise hot
        // path (first-occurrence grouping, then sorted by type id —
        // exactly the pre-columnar grouping).
        let mut groups: Vec<(u32, Vec<u32>)> = Vec::new();
        for (i, &ty) in self.scratch_types.iter().enumerate() {
            match groups.iter_mut().find(|(t, _)| *t == ty) {
                Some((_, idxs)) => idxs.push(i as u32),
                None => groups.push((ty, vec![i as u32])),
            }
        }
        groups.sort_by_key(|(ty, _)| *ty);
        for (ty, idxs) in groups {
            self.group_types.push(ty);
            self.group_tuples.extend_from_slice(&idxs);
            self.group_starts.push(self.group_tuples.len() as u32);
        }
        self.nodes.push(cand);
        self.od_starts.push(self.tuple_term.len() as u32);
        self.od_group_starts.push(self.group_types.len() as u32);
    }

    fn finish(self) -> OdSet {
        let object_count = self.nodes.len();
        let store = self.builder.finish(object_count, &self.tuple_types);
        let mut od_starts = self.od_starts;
        let mut group_starts = self.group_starts;
        let mut od_group_starts = self.od_group_starts;
        if od_starts.is_empty() {
            od_starts.push(0);
            group_starts.push(0);
            od_group_starts.push(0);
        }
        OdSet {
            nodes: self.nodes,
            store,
            od_starts,
            tuple_term: self.tuple_term,
            tuple_value: self.tuple_value,
            tuple_path: self.tuple_path,
            od_group_starts,
            group_types: self.group_types,
            group_starts,
            group_tuples: self.group_tuples,
            similar: SimilarCache::default(),
        }
    }
}

/// One extracted description tuple before term interning: the raw value,
/// its schema path, its resolved real-world type, and the normalised form
/// (computed once here, so incremental re-interning skips normalisation).
///
/// ```
/// use dogmatix_core::od::RawTuple;
/// let t = RawTuple {
///     value: "The  MATRIX".into(),
///     path: "/r/m/t".into(),
///     rw_type: "TITLE".into(),
///     norm: dogmatix_textsim::normalize_value("The  MATRIX"),
/// };
/// assert_eq!(t.norm, "the matrix");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawTuple {
    /// Raw text value as found in the document.
    pub value: String,
    /// Schema name path of the source element.
    pub path: String,
    /// Real-world type per the mapping `M`.
    pub rw_type: String,
    /// Normalised value (the term key within the type).
    pub norm: String,
}

/// Extracts the description tuples of one candidate: descendant and
/// ancestor instances of the selected paths, composite rules applied,
/// values normalised. `selection = None` yields an empty description
/// (candidates whose schema path has no selection).
///
/// This is the per-candidate half of [`OdSet::build`]; the incremental
/// session caches its output per candidate and re-extracts only
/// candidates touched by a delta.
///
/// ```
/// use dogmatix_core::od::extract_raw_tuples;
/// use dogmatix_core::mapping::Mapping;
/// use dogmatix_xml::Document;
/// use std::collections::BTreeSet;
///
/// let doc = Document::parse("<r><m><t>X</t></m></r>")?;
/// let cand = doc.select("/r/m")?[0];
/// let sel: BTreeSet<String> = ["/r/m/t".to_string()].into_iter().collect();
/// let raw = extract_raw_tuples(&doc, cand, Some(&sel), &Mapping::new());
/// assert_eq!(raw.len(), 1);
/// assert_eq!(raw[0].value, "X");
/// # Ok::<(), dogmatix_xml::XmlError>(())
/// ```
pub fn extract_raw_tuples(
    doc: &Document,
    cand: NodeId,
    selection: Option<&BTreeSet<String>>,
    mapping: &Mapping,
) -> Vec<RawTuple> {
    let mut tuples = Vec::new();
    if let Some(sel) = selection {
        // Descendant instances.
        collect_descendants(doc, cand, sel, mapping, &mut tuples);
        // Ancestor instances.
        for anc in doc.ancestors(cand) {
            let path = doc.name_path(anc);
            if sel.contains(&path) {
                push_tuple(doc, anc, &path, mapping, &mut tuples);
            }
        }
    }
    tuples
}

/// Walks descendants of `cand`, emitting tuples for selected paths and
/// applying composite rules (a composite owner consumes its parts).
fn collect_descendants(
    doc: &Document,
    cand: NodeId,
    selection: &BTreeSet<String>,
    mapping: &Mapping,
    out: &mut Vec<RawTuple>,
) {
    let mut stack: Vec<NodeId> = doc.child_elements(cand).collect();
    stack.reverse();
    while let Some(n) = stack.pop() {
        let path = doc.name_path(n);
        if let Some(rule) = mapping.composite_for(&path) {
            // The rule fires when the heuristic selected the part
            // elements (selecting only the complex owner, e.g. at a
            // smaller radius, contributes no data — same as any other
            // text-less element).
            if rule
                .parts
                .iter()
                .any(|p| selection.contains(&format!("{path}/{p}")))
            {
                let mut parts = Vec::with_capacity(rule.parts.len());
                for part in &rule.parts {
                    for c in doc.child_elements(n) {
                        if doc.name(c) == Some(part.as_str()) {
                            if let Some(t) = doc.direct_text(c) {
                                parts.push(t);
                            }
                        }
                    }
                }
                if !parts.is_empty() {
                    let value = parts.join(" ");
                    out.push(RawTuple {
                        norm: dogmatix_textsim::normalize_value(&value),
                        value,
                        path: path.clone(),
                        rw_type: rule.rw_type.clone(),
                    });
                }
                // Parts are consumed; do not descend further.
                continue;
            }
        }
        if selection.contains(&path) {
            push_tuple(doc, n, &path, mapping, out);
        }
        let mut children: Vec<NodeId> = doc.child_elements(n).collect();
        children.reverse();
        stack.extend(children);
    }
}

fn push_tuple(
    doc: &Document,
    node: NodeId,
    path: &str,
    mapping: &Mapping,
    out: &mut Vec<RawTuple>,
) {
    // Elements without a text node contribute no data (Section 4,
    // content-model discussion).
    if let Some(text) = doc.direct_text(node) {
        out.push(RawTuple {
            norm: dogmatix_textsim::normalize_value(&text),
            value: text,
            path: path.to_string(),
            rw_type: mapping.type_of(path).to_string(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::CompositeRule;
    use std::collections::BTreeSet;

    fn movie_doc() -> Document {
        Document::parse(
            "<moviedoc>\
               <movie><title>The Matrix</title><year>1999</year>\
                 <actor><name>Keanu Reeves</name><role>Neo</role></actor>\
                 <actor><name>L. Fishburne</name><role>Morpheus</role></actor>\
               </movie>\
               <movie><title>Matrix</title><year>1999</year>\
                 <actor><name>Keanu Reeves</name><role>The One</role></actor>\
               </movie>\
               <movie><title>Signs</title><year>2002</year>\
                 <actor><name>Mel Gibson</name><role>Graham Hess</role></actor>\
               </movie>\
             </moviedoc>",
        )
        .unwrap()
    }

    fn selection(paths: &[&str]) -> HashMap<String, BTreeSet<String>> {
        let mut m = HashMap::new();
        m.insert(
            "/moviedoc/movie".to_string(),
            paths.iter().map(|s| s.to_string()).collect(),
        );
        m
    }

    #[test]
    fn table2_object_descriptions() {
        // Reproduces the paper's Table 2: description = title, year,
        // actor/name.
        let doc = movie_doc();
        let candidates = doc.select("/moviedoc/movie").unwrap();
        let sel = selection(&[
            "/moviedoc/movie/title",
            "/moviedoc/movie/year",
            "/moviedoc/movie/actor/name",
        ]);
        let ods = OdSet::build(&doc, &candidates, &sel, &Mapping::new());
        assert_eq!(ods.len(), 3);
        let values: Vec<_> = ods.od(0).tuples().map(|t| t.value()).collect();
        assert_eq!(
            values,
            vec!["The Matrix", "1999", "Keanu Reeves", "L. Fishburne"]
        );
        assert_eq!(ods.od(1).tuple_count(), 3);
        assert_eq!(ods.od(2).tuple_count(), 3);
        // Roles were not selected.
        assert!(ods.od(0).tuples().all(|t| !t.value().contains("Neo")));
    }

    #[test]
    fn terms_are_shared_and_postings_sorted() {
        let doc = movie_doc();
        let candidates = doc.select("/moviedoc/movie").unwrap();
        let sel = selection(&["/moviedoc/movie/year", "/moviedoc/movie/actor/name"]);
        let ods = OdSet::build(&doc, &candidates, &sel, &Mapping::new());
        // "1999" appears in movies 0 and 1 → one term, postings [0, 1].
        let year_term = ods
            .terms()
            .find(|t| t.norm() == "1999")
            .expect("term for 1999");
        assert_eq!(year_term.postings(), &[0, 1]);
        // "keanu reeves" also in movies 0 and 1.
        let keanu = ods.terms().find(|t| t.norm() == "keanu reeves").unwrap();
        assert_eq!(keanu.postings(), &[0, 1]);
    }

    #[test]
    fn complex_elements_yield_no_tuple() {
        let doc = movie_doc();
        let candidates = doc.select("/moviedoc/movie").unwrap();
        // Selecting the complex <actor> element itself contributes no
        // data (no direct text).
        let sel = selection(&["/moviedoc/movie/actor"]);
        let ods = OdSet::build(&doc, &candidates, &sel, &Mapping::new());
        assert!(ods.iter().all(|od| od.is_empty()));
    }

    #[test]
    fn ancestors_contribute_when_selected() {
        let doc = Document::parse(
            "<lib>shared text<book><isbn>1</isbn></book><book><isbn>2</isbn></book></lib>",
        )
        .unwrap();
        let candidates = doc.select("/lib/book").unwrap();
        let mut sel = HashMap::new();
        sel.insert(
            "/lib/book".to_string(),
            ["/lib".to_string()].into_iter().collect::<BTreeSet<_>>(),
        );
        let ods = OdSet::build(&doc, &candidates, &sel, &Mapping::new());
        assert_eq!(ods.od(0).tuple_count(), 1);
        assert_eq!(ods.od(0).tuple(0).value(), "shared text");
        // Both books share the ancestor term.
        assert_eq!(ods.term_count(), 1);
        assert_eq!(ods.term(TermId(0)).postings(), &[0, 1]);
    }

    #[test]
    fn rw_types_resolved_via_mapping() {
        let doc = movie_doc();
        let candidates = doc.select("/moviedoc/movie").unwrap();
        let sel = selection(&["/moviedoc/movie/title"]);
        let mut mapping = Mapping::new();
        mapping.add_type("TITLE", ["/moviedoc/movie/title"]);
        let ods = OdSet::build(&doc, &candidates, &sel, &mapping);
        assert!(ods.od(0).tuples().all(|t| t.rw_type() == "TITLE"));
    }

    #[test]
    fn composite_rule_joins_children() {
        let doc = Document::parse(
            "<db><m><person><firstname>Keanu</firstname><lastname>Reeves</lastname></person></m></db>",
        )
        .unwrap();
        let candidates = doc.select("/db/m").unwrap();
        let mut sel = HashMap::new();
        sel.insert(
            "/db/m".to_string(),
            ["/db/m/person/firstname", "/db/m/person/lastname"]
                .iter()
                .map(|s| s.to_string())
                .collect::<BTreeSet<_>>(),
        );
        let mut mapping = Mapping::new();
        mapping.add_composite(CompositeRule {
            owner_path: "/db/m/person".into(),
            parts: vec!["firstname".into(), "lastname".into()],
            rw_type: "PERSON".into(),
        });
        let ods = OdSet::build(&doc, &candidates, &sel, &mapping);
        assert_eq!(ods.od(0).tuple_count(), 1);
        assert_eq!(ods.od(0).tuple(0).value(), "Keanu Reeves");
        assert_eq!(ods.od(0).tuple(0).rw_type(), "PERSON");
    }

    #[test]
    fn values_normalised_for_terms_but_raw_preserved() {
        let doc = Document::parse("<r><m><t>  The   MATRIX </t></m></r>").unwrap();
        let candidates = doc.select("/r/m").unwrap();
        let mut sel = HashMap::new();
        sel.insert(
            "/r/m".to_string(),
            ["/r/m/t".to_string()].into_iter().collect::<BTreeSet<_>>(),
        );
        let ods = OdSet::build(&doc, &candidates, &sel, &Mapping::new());
        assert_eq!(ods.od(0).tuple(0).value(), "The   MATRIX");
        assert_eq!(ods.term(ods.od(0).tuple(0).term()).norm(), "the matrix");
    }

    #[test]
    fn build_from_raw_matches_build() {
        let doc = movie_doc();
        let candidates = doc.select("/moviedoc/movie").unwrap();
        let sel = selection(&[
            "/moviedoc/movie/title",
            "/moviedoc/movie/year",
            "/moviedoc/movie/actor/name",
        ]);
        let mapping = Mapping::new();
        let full = OdSet::build(&doc, &candidates, &sel, &mapping);
        let raw: Vec<Vec<RawTuple>> = candidates
            .iter()
            .map(|&c| extract_raw_tuples(&doc, c, sel.get(&doc.name_path(c)), &mapping))
            .collect();
        let from_raw = OdSet::build_from_raw(
            candidates
                .iter()
                .copied()
                .zip(raw.iter().map(|v| v.as_slice())),
        );
        assert_eq!(full, from_raw, "interning order must be identical");
        // Extraction computes the normalised form once.
        assert!(raw
            .iter()
            .flatten()
            .all(|t| t.norm == dogmatix_textsim::normalize_value(&t.value)));
    }

    #[test]
    fn candidates_without_selection_get_empty_ods() {
        let doc = movie_doc();
        let candidates = doc.select("/moviedoc/movie").unwrap();
        let ods = OdSet::build(&doc, &candidates, &HashMap::new(), &Mapping::new());
        assert_eq!(ods.len(), 3);
        assert!(ods.iter().all(|od| od.is_empty()));
    }

    /// Pins the extraction behaviour on pathological documents, so the
    /// columnar-store refactor cannot silently move normalisation: empty
    /// elements and whitespace-only text contribute no tuple, deep
    /// single-child chains emit exactly the selected leaf, and
    /// mixed-content nodes emit their trimmed *direct* text only.
    #[test]
    fn pathological_documents_pin_extraction() {
        let doc = Document::parse(
            "<db>\
               <rec><empty/><blank>   \t\n </blank>\
                 <a><b><c><d>deep value</d></c></b></a>\
                 <mixed>  lead text <i>ignored child</i> tail  </mixed></rec>\
             </db>",
        )
        .unwrap();
        let cand = doc.select("/db/rec").unwrap()[0];
        let sel: BTreeSet<String> = [
            "/db/rec/empty",
            "/db/rec/blank",
            "/db/rec/a/b/c/d",
            "/db/rec/mixed",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let raw = extract_raw_tuples(&doc, cand, Some(&sel), &Mapping::new());
        // Empty and whitespace-only elements carry no data (paper §4).
        assert!(raw.iter().all(|t| t.path != "/db/rec/empty"));
        assert!(raw.iter().all(|t| t.path != "/db/rec/blank"));
        // The deep chain yields exactly its selected leaf.
        let deep: Vec<_> = raw.iter().filter(|t| t.path == "/db/rec/a/b/c/d").collect();
        assert_eq!(deep.len(), 1);
        assert_eq!(deep[0].value, "deep value");
        assert_eq!(deep[0].norm, "deep value");
        // Mixed content: direct text segments concatenated and trimmed;
        // child-element text is NOT pulled in.
        let mixed: Vec<_> = raw.iter().filter(|t| t.path == "/db/rec/mixed").collect();
        assert_eq!(mixed.len(), 1);
        assert_eq!(mixed[0].value, "lead text  tail");
        assert_eq!(mixed[0].norm, "lead text tail");
        assert!(!mixed[0].value.contains("ignored"));
        assert_eq!(raw.len(), 2, "exactly the deep leaf and the mixed node");
    }

    /// Selecting intermediate elements of a single-child chain yields no
    /// tuples for the chain links (complex content, no direct text) while
    /// the leaf still contributes — and the chain is walked, not skipped.
    #[test]
    fn deep_single_child_chain_intermediates_contribute_nothing() {
        let mut xml = String::from("<db><rec>");
        for i in 0..24 {
            xml.push_str(&format!("<n{i}>"));
        }
        xml.push_str("leaf");
        for i in (0..24).rev() {
            xml.push_str(&format!("</n{i}>"));
        }
        xml.push_str("</rec></db>");
        let doc = Document::parse(&xml).unwrap();
        let cand = doc.select("/db/rec").unwrap()[0];
        // Select every path in the chain.
        let mut path = String::from("/db/rec");
        let mut sel = BTreeSet::new();
        for i in 0..24 {
            path.push_str(&format!("/n{i}"));
            sel.insert(path.clone());
        }
        let raw = extract_raw_tuples(&doc, cand, Some(&sel), &Mapping::new());
        assert_eq!(raw.len(), 1, "only the leaf holds text");
        assert_eq!(raw[0].value, "leaf");
        assert!(raw[0].path.ends_with("/n23"));
    }

    #[test]
    fn checked_term_accessor_rejects_stale_ids() {
        let doc = movie_doc();
        let candidates = doc.select("/moviedoc/movie").unwrap();
        let sel = selection(&["/moviedoc/movie/year"]);
        let ods = OdSet::build(&doc, &candidates, &sel, &Mapping::new());
        let valid = ods.od(0).tuple(0).term();
        assert!(ods.try_term(valid).is_some());
        let stale = TermId::from_index(ods.term_count() + 7);
        assert!(ods.try_term(stale).is_none(), "stale id must be rejected");
        assert!(ods.try_od(ods.len()).is_none());
        assert!(ods.try_od(0).is_some());
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "terms"))]
    #[cfg_attr(not(debug_assertions), should_panic)]
    fn unchecked_term_accessor_panics_on_stale_id() {
        let doc = movie_doc();
        let candidates = doc.select("/moviedoc/movie").unwrap();
        let sel = selection(&["/moviedoc/movie/year"]);
        let ods = OdSet::build(&doc, &candidates, &sel, &Mapping::new());
        // Out-of-range ids panic (with a named message in debug builds;
        // a column bounds panic in release) instead of reading garbage.
        let _ = ods.term(TermId::from_index(ods.term_count() + 1)).norm();
    }

    #[test]
    fn columnar_layout_dedups_strings_into_the_arena() {
        let doc = movie_doc();
        let candidates = doc.select("/moviedoc/movie").unwrap();
        let sel = selection(&[
            "/moviedoc/movie/title",
            "/moviedoc/movie/year",
            "/moviedoc/movie/actor/name",
        ]);
        let ods = OdSet::build(&doc, &candidates, &sel, &Mapping::new());
        // "1999" appears twice but is one arena span for values and one
        // term; the arena never holds it more than twice (raw + norm
        // happen to be equal strings here but are interned separately).
        let arena_len = ods.store().arena_len();
        let naive: usize = ods
            .iter()
            .flat_map(|od| od.tuples().collect::<Vec<_>>())
            .map(|t| t.value().len() + t.path().len() + t.rw_type().len())
            .sum();
        assert!(
            arena_len < naive,
            "arena {arena_len} must undercut per-tuple strings {naive}"
        );
        // Per-type stats line up with the tuple columns.
        let stats = ods.store().type_stats();
        let total_tuples: u32 = stats.iter().map(|s| s.tuples).sum();
        assert_eq!(
            total_tuples as usize,
            ods.iter().map(|od| od.tuple_count()).sum::<usize>()
        );
    }
}
