//! Single-record duplicate probes over a pinned store snapshot — the
//! query core behind `dogmatixd`, the CLI `--probe` one-shot mode, and
//! the differential suite (`tests/server.rs`). One code path serves all
//! three.
//!
//! A [`ProbeSnapshot`] pins everything a point-query needs: the
//! candidate nodes, the interned [`OdSet`], a `(type, norm) → term`
//! lookup over it, the similarity/classifier stage `Arc`s, and a
//! one-sided blocking index ([`crate::filter::QGramTermIndex`] /
//! [`crate::filter::LshBucketIndex`]). Snapshots are immutable — a
//! server swaps an `Arc<ProbeSnapshot>` at delta-batch boundaries while
//! probe threads keep reading the one they pinned.
//!
//! ### Why probe answers equal batch verdicts
//!
//! The specification is a batch run over corpus + record, with the
//! record interned **last**. [`ProbeSnapshot::probe`] never builds that
//! store; it scores through a [`ProbeOverlay`] — the pinned store plus
//! the record as object `n` — whose every [`OdView`] answer equals the
//! appended store's:
//!
//! * **Ids.** First-occurrence interning leaves every stored term and
//!   type id unchanged by the append. The record's stored terms resolve
//!   to those ids through the snapshot's term lookup; unseen terms get
//!   `term_count()`, `term_count() + 1`, … in first-occurrence order,
//!   and unseen types likewise from `type_count()` up — the ids the
//!   append would assign. The record's type groups are laid out as
//!   interning lays them (sorted by type id, tuple indices ascending).
//! * **Postings.** Object `n` sorts after every stored posting, so the
//!   appended posting list of a term is the stored one plus one
//!   "record holds this term" bit. Posting lengths and `|O_a ∪ O_b|`
//!   are the stored CSR counts plus that bit (unseen terms: the bit
//!   alone).
//! * **`|Ω|`** is `n + 1`, so every softIDF weight `ln(|Ω| / |O_a ∪
//!   O_b|)` is the batch weight.
//!
//! The engine runs the same monomorphic scoring code over either view,
//! so similarities are bit-identical to the batch run (the
//! `probe_overlay` suite checks the overlay against `build_from_raw`
//! of corpus + record). Probe cost follows the examined candidates, not
//! `|Ω|`. The candidate set comes from the same posting lookups the
//! batch blocking plans use ([`crate::filter`] builds both from one
//! code path), so membership matches the batch plan's pairs involving
//! the record.
//!
//! ```
//! use dogmatix_core::pipeline::Dogmatix;
//! use dogmatix_core::probe::{ProbeBlocking, ProbeScratch, ProbeSnapshot};
//! use dogmatix_xml::{Document, Schema};
//!
//! let doc = Document::parse(
//!     "<db><m><t>Midnight Journey</t></m>\
//!          <m><t>Something Else</t></m></db>")?;
//! let schema = Schema::infer(&doc)?;
//! let dx = Dogmatix::builder().add_type("M", ["/db/m"]).build();
//! let snapshot = ProbeSnapshot::from_batch(&dx, &doc, &schema, "M", ProbeBlocking::default())?;
//! let record = snapshot.record_from_xml("<m><t>Midnigth Journey</t></m>")?;
//! let mut scratch = ProbeScratch::new();
//! let answer = snapshot.probe(&record, 5, &mut scratch)?;
//! assert_eq!(answer.matches[0].index, 0);
//! assert!(answer.stats.candidates_examined <= answer.stats.total_objects);
//! # Ok::<(), dogmatix_core::DogmatixError>(())
//! ```

use crate::candidate::select_candidates;
use crate::classify::Class;
use crate::error::DogmatixError;
use crate::filter::{
    LookupScratch, LshBucketIndex, MinHashLshBlocking, QGramBlocking, QGramTermIndex,
};
use crate::mapping::Mapping;
use crate::od::{extract_raw_tuples, OdSet, RawTuple, TermId};
use crate::pipeline::{selections_for_paths, Dogmatix};
use crate::sim::{merged_count, DistCache, OdView};
use crate::stage::{PairClassifier, SimilarityMeasure};
use dogmatix_textsim::{mix64, word_token_hashes_into, Fnv1a};
use dogmatix_xml::{Document, NodeId};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// Which one-sided blocking index a snapshot builds for candidate
/// generation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProbeBlocking {
    /// Sublinear candidates through the q-gram length/count bounds —
    /// exact for measures where "no similar tuple" implies `sim = 0`
    /// (the paper's softIDF measure): the candidate set equals the
    /// batch [`QGramBlocking`] plan's pairs involving the record.
    QGram(QGramBlocking),
    /// Sublinear probabilistic candidates through banded MinHash — the
    /// batch [`MinHashLshBlocking`] plan's pairs involving the record.
    Lsh(MinHashLshBlocking),
    /// Score every stored object (`NoFilter` semantics) — linear, but
    /// exact for *any* measure.
    Exhaustive,
}

impl Default for ProbeBlocking {
    /// The paper-default pairing: 2-grams at `θ_tuple = 0.15`.
    fn default() -> Self {
        ProbeBlocking::QGram(QGramBlocking::new(
            2,
            crate::pipeline::DogmatixConfig::default().theta_tuple,
        ))
    }
}

/// The built per-snapshot lookup structure behind [`ProbeBlocking`].
#[derive(Debug)]
enum ProbeIndex {
    QGram(QGramTermIndex),
    Lsh(LshBucketIndex),
    Exhaustive,
}

/// One answered duplicate (or possible-duplicate) of a probe record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeMatch {
    /// Candidate index within the snapshot (`0..total_objects`).
    pub index: usize,
    /// The matched candidate's document node.
    pub node: NodeId,
    /// Similarity of (candidate, probe record) — bit-identical to the
    /// batch pipeline's score for the same pair.
    pub sim: f64,
    /// The classifier's verdict for that similarity.
    pub class: Class,
}

/// Diagnostics of one probe: how sublinear the candidate lookup was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeStats {
    /// `|Ω|`: objects held by the snapshot.
    pub total_objects: usize,
    /// Candidates the blocking index surfaced and the measure scored.
    pub candidates_examined: usize,
}

/// The result of [`ProbeSnapshot::probe`].
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeAnswer {
    /// Candidates classified [`Class::Duplicate`], sorted by similarity
    /// descending (ties by index), truncated to the requested `k`.
    pub matches: Vec<ProbeMatch>,
    /// Candidates in the classifier's possible-duplicate zone (empty
    /// for the default single-threshold classifier), same order/cap.
    pub possible: Vec<ProbeMatch>,
    /// Lookup diagnostics.
    pub stats: ProbeStats,
}

/// Reusable per-connection scratch: the lookup buffers, the record's
/// overlay layout and the scoring memo, so a steady-state probe
/// allocates only its answer (the no-hot-alloc gate covers this
/// module).
#[derive(Debug, Default)]
pub struct ProbeScratch {
    lookup: LookupScratch,
    candidates: BTreeSet<usize>,
    tokens: BTreeSet<u64>,
    token_list: Vec<u64>,
    word_hashes: Vec<u64>,
    layout: RecordLayout,
    /// Per-probe term-pair memo: reset on every probe, because the
    /// record's fresh term ids alias across probes.
    cache: DistCache,
    scored: Vec<ProbeMatch>,
}

impl ProbeScratch {
    /// Fresh scratch; buffers grow to steady-state size on first use.
    pub fn new() -> Self {
        ProbeScratch::default()
    }
}

/// `(type id, normalised value) → term id` over a pinned store, built
/// once per snapshot: the record's stored terms resolve to the ids
/// append-last interning would give them. A sorted `(hash, term)`
/// column — one allocation — probed by binary search; hash collisions
/// are resolved against the store's own norm bytes.
#[derive(Debug)]
pub struct TermLookup {
    keys: Vec<(u64, u32)>,
}

impl TermLookup {
    /// Indexes every term of `ods`.
    pub fn new(ods: &OdSet) -> Self {
        let store = ods.store();
        let mut keys: Vec<(u64, u32)> = (0..store.term_count())
            .map(|t| (term_key(store.type_id(t), store.norm(t)), t as u32))
            .collect();
        keys.sort_unstable();
        TermLookup { keys }
    }

    /// The stored term of type `type_id` with normalised value `norm`.
    fn find(&self, ods: &OdSet, type_id: u32, norm: &str) -> Option<TermId> {
        let store = ods.store();
        let key = term_key(type_id, norm);
        let from = self.keys.partition_point(|&(k, _)| k < key);
        self.keys[from..]
            .iter()
            .take_while(|&&(k, _)| k == key)
            .map(|&(_, t)| t as usize)
            .find(|&t| store.type_id(t) == type_id && store.norm(t) == norm)
            .map(TermId::from_index)
    }
}

fn term_key(type_id: u32, norm: &str) -> u64 {
    let mut h = Fnv1a::new();
    h.update(norm.as_bytes());
    mix64(h.finish() ^ u64::from(type_id))
}

/// The probe record laid out as append-last interning would lay it,
/// kept in [`ProbeScratch`] so its buffers stay warm across probes.
#[derive(Debug, Default)]
struct RecordLayout {
    /// Type id per record tuple.
    type_ids: Vec<u32>,
    /// Term id per record tuple.
    term_ids: Vec<TermId>,
    /// Unseen terms in id order (`base term count + k`): the record
    /// tuple holding the first occurrence, and its char length.
    fresh: Vec<(u32, u32)>,
    /// Stored term ids the record holds, sorted and deduplicated.
    held: Vec<TermId>,
    /// Type groups: `(type id, start, end)` into `members`.
    groups: Vec<(u32, u32, u32)>,
    /// Record-local tuple indices, grouped.
    members: Vec<u32>,
}

impl RecordLayout {
    /// Resolves `record` against `base`: types and terms to the ids
    /// append-last interning assigns, type groups as `Interner::push`
    /// lays them.
    fn build(&mut self, base: &OdSet, lookup: &TermLookup, record: &[RawTuple]) {
        let store = base.store();
        let known_types = store.type_count() as u32;
        let known_terms = store.term_count();
        self.type_ids.clear();
        self.term_ids.clear();
        self.fresh.clear();
        self.held.clear();
        let mut fresh_types = 0u32;
        for (pos, tuple) in record.iter().enumerate() {
            let ty = match (0..known_types).find(|&ty| store.type_name(ty) == tuple.rw_type) {
                Some(ty) => ty,
                None => {
                    let earlier = record[..pos]
                        .iter()
                        .zip(&self.type_ids)
                        .find(|(prev, id)| **id >= known_types && prev.rw_type == tuple.rw_type)
                        .map(|(_, &id)| id);
                    earlier.unwrap_or_else(|| {
                        fresh_types += 1;
                        known_types + fresh_types - 1
                    })
                }
            };
            self.type_ids.push(ty);
            let stored = if ty < known_types {
                lookup.find(base, ty, &tuple.norm)
            } else {
                None
            };
            let term = match stored {
                Some(term) => {
                    self.held.push(term);
                    term
                }
                None => {
                    let earlier = self.fresh.iter().position(|&(at, _)| {
                        let at = at as usize;
                        self.type_ids[at] == ty && record[at].norm == tuple.norm
                    });
                    let k = earlier.unwrap_or_else(|| {
                        self.fresh
                            .push((pos as u32, tuple.norm.chars().count() as u32));
                        self.fresh.len() - 1
                    });
                    TermId::from_index(known_terms + k)
                }
            };
            self.term_ids.push(term);
        }
        self.held.sort_unstable();
        self.held.dedup();

        // Interning groups tuples by type id, ascending, keeping each
        // group's tuple indices ascending.
        self.members.clear();
        self.members.extend(0..record.len() as u32);
        let type_ids = &self.type_ids;
        self.members
            .sort_unstable_by_key(|&t| (type_ids[t as usize], t));
        self.groups.clear();
        for (at, &t) in (0u32..).zip(&self.members) {
            let ty = self.type_ids[t as usize];
            match self.groups.last_mut() {
                Some(group) if group.0 == ty => group.2 += 1,
                _ => self.groups.push((ty, at, at + 1)),
            }
        }
    }
}

/// A pinned store plus one probe record as object `n` (`|Ω| = n + 1`):
/// the [`OdView`] a probe scores through, answering every query exactly
/// as `OdSet::build_from_raw(corpus + record)` would, without building
/// it. See the module docs for why the two agree.
///
/// ```
/// use dogmatix_core::od::{OdSet, RawTuple};
/// use dogmatix_core::probe::{ProbeOverlay, ProbeScratch, TermLookup};
/// use dogmatix_core::sim::{DistCache, EditKernelChoice, OdView, SimEngine};
///
/// let tuple = |norm: &str| RawTuple {
///     value: norm.into(),
///     path: "/r/m/t".into(),
///     rw_type: "T".into(),
///     norm: norm.into(),
/// };
/// let doc = dogmatix_xml::Document::parse("<r/>")?;
/// let node = doc.root_element().unwrap();
/// let corpus = [vec![tuple("signs")], vec![tuple("heat")]];
/// let base = OdSet::build_from_raw(corpus.iter().map(|p| (node, p.as_slice())));
/// let lookup = TermLookup::new(&base);
/// let record = [tuple("signs"), tuple("ronin")];
/// let mut scratch = ProbeScratch::new();
/// let overlay = ProbeOverlay::new(&base, &lookup, &record, &mut scratch);
/// assert_eq!(overlay.object_count(), 3);
/// assert_eq!(overlay.tuple_term(2, 0), base.tuple_terms(0)[0]); // stored id
/// assert_eq!(overlay.tuple_term(2, 1).index(), base.term_count()); // fresh id
/// let engine = SimEngine::over(&overlay, 0.15, EditKernelChoice::default());
/// let sim = engine.sim(0, 2, &mut DistCache::new());
/// assert!(sim > 0.0);
/// # Ok::<(), dogmatix_xml::XmlError>(())
/// ```
#[derive(Debug)]
pub struct ProbeOverlay<'a> {
    base: &'a OdSet,
    record: &'a [RawTuple],
    layout: &'a RecordLayout,
    /// Stored objects (`n`, the record's object index).
    n: usize,
    base_terms: usize,
    base_groups: usize,
}

impl<'a> ProbeOverlay<'a> {
    /// Lays `record` out over `base` in `scratch` and returns the view.
    /// `lookup` must be [`TermLookup::new`] of the same `base`.
    pub fn new(
        base: &'a OdSet,
        lookup: &TermLookup,
        record: &'a [RawTuple],
        scratch: &'a mut ProbeScratch,
    ) -> Self {
        scratch.layout.build(base, lookup, record);
        ProbeOverlay::over(base, record, &scratch.layout)
    }

    fn over(base: &'a OdSet, record: &'a [RawTuple], layout: &'a RecordLayout) -> Self {
        ProbeOverlay {
            base,
            record,
            layout,
            n: base.len(),
            base_terms: base.term_count(),
            base_groups: base.group_count(),
        }
    }

    /// A term's stored postings and whether the record holds it (an
    /// unseen term: no stored postings, held by the record).
    #[inline]
    fn postings(&self, term: TermId) -> (&'a [u32], bool) {
        if term.index() < self.base_terms {
            (
                self.base.store().postings(term.index()),
                self.layout.held.binary_search(&term).is_ok(),
            )
        } else {
            (&[], true)
        }
    }

    /// The unseen term's `(record tuple, char length)` entry.
    #[inline]
    fn fresh(&self, term: TermId) -> (u32, u32) {
        self.layout.fresh[term.index() - self.base_terms]
    }
}

impl OdView for ProbeOverlay<'_> {
    #[inline]
    fn object_count(&self) -> usize {
        self.n + 1
    }

    #[inline]
    fn tuple_count(&self, i: usize) -> usize {
        if i < self.n {
            self.base.tuple_count(i)
        } else {
            self.record.len()
        }
    }

    #[inline]
    fn tuple_term(&self, i: usize, local: usize) -> TermId {
        if i < self.n {
            self.base.tuple_term(i, local)
        } else {
            self.layout.term_ids[local]
        }
    }

    #[inline]
    fn group_range(&self, i: usize) -> std::ops::Range<usize> {
        if i < self.n {
            self.base.group_range(i)
        } else {
            self.base_groups..self.base_groups + self.layout.groups.len()
        }
    }

    #[inline]
    fn group_type(&self, g: usize) -> u32 {
        match g.checked_sub(self.base_groups) {
            None => OdView::group_type(self.base, g),
            Some(k) => self.layout.groups[k].0,
        }
    }

    #[inline]
    fn group_tuples(&self, g: usize) -> &[u32] {
        match g.checked_sub(self.base_groups) {
            None => self.base.group_tuples(g),
            Some(k) => {
                let (_, start, end) = self.layout.groups[k];
                &self.layout.members[start as usize..end as usize]
            }
        }
    }

    #[inline]
    fn norm(&self, term: TermId) -> &str {
        if term.index() < self.base_terms {
            self.base.store().norm(term.index())
        } else {
            &self.record[self.fresh(term).0 as usize].norm
        }
    }

    #[inline]
    fn char_len(&self, term: TermId) -> usize {
        if term.index() < self.base_terms {
            self.base.store().char_len(term.index())
        } else {
            self.fresh(term).1 as usize
        }
    }

    #[inline]
    fn posting_len(&self, term: TermId) -> usize {
        let (stored, held) = self.postings(term);
        stored.len() + usize::from(held)
    }

    #[inline]
    fn union_count(&self, a: TermId, b: TermId) -> usize {
        let (stored_a, held_a) = self.postings(a);
        let (stored_b, held_b) = self.postings(b);
        merged_count(stored_a, stored_b) + usize::from(held_a || held_b)
    }
}

/// The `Config` error for a measure whose
/// [`SimilarityMeasure::prepare_probe`] hook returns `None`.
fn probe_refusal(measure: &dyn SimilarityMeasure) -> DogmatixError {
    DogmatixError::Config {
        // dxlint: allow(no-hot-alloc) — cold configuration-error path, not the lookup loop
        message: format!(
            "measure {measure:?} has no prepare_probe hook and cannot score probe records"
        ),
    }
}

/// Refuses, before a snapshot is built, a measure that cannot score
/// probe records (its `prepare_probe` hook returns `None`).
pub(crate) fn ensure_probe_capable(measure: &dyn SimilarityMeasure) -> Result<(), DogmatixError> {
    let empty = OdSet::default();
    let layout = RecordLayout::default();
    let view = ProbeOverlay::over(&empty, &[], &layout);
    let capable = measure.prepare_probe(&view).is_some();
    if capable {
        Ok(())
    } else {
        Err(probe_refusal(measure))
    }
}

/// An immutable, consistent view of one detection state, answering
/// point-queries ("does this record have duplicates, and which?")
/// concurrently with ongoing ingest. See the module docs for the
/// equality guarantees.
#[derive(Debug)]
pub struct ProbeSnapshot {
    /// The served document at snapshot time (batch-parity runs in the
    /// stress suite re-detect over exactly this document).
    doc: Arc<Document>,
    /// Candidate nodes, aligned with `ods` object indices.
    nodes: Vec<NodeId>,
    /// Candidate schema paths (for mapping probe XML fragments onto a
    /// candidate path in [`ProbeSnapshot::record_from_xml`]).
    schema_paths: Vec<String>,
    /// The active heuristic's description selection per candidate path.
    selections: HashMap<String, BTreeSet<String>>,
    /// The mapping the snapshot's extractions ran under.
    mapping: Mapping,
    /// The interned snapshot store the lookup indexes were built over.
    ods: Arc<OdSet>,
    /// `(type, norm) → term` over `ods`, for laying out probe records.
    terms: TermLookup,
    /// Pinned scoring stages (shared with the session that published
    /// the snapshot — `Arc` pointer equality, not copies).
    measure: Arc<dyn SimilarityMeasure>,
    classifier: Arc<dyn PairClassifier>,
    /// One-sided candidate lookup.
    index: ProbeIndex,
}

impl ProbeSnapshot {
    /// Assembles a snapshot from an already-interned store. `ods` must
    /// be the interning of the candidates' extractions in `nodes` order
    /// (both construction paths — batch and incremental — guarantee
    /// this; the audit gate checks structural invariants on every
    /// build).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        doc: Arc<Document>,
        nodes: Vec<NodeId>,
        schema_paths: Vec<String>,
        selections: HashMap<String, BTreeSet<String>>,
        mapping: Mapping,
        ods: Arc<OdSet>,
        measure: Arc<dyn SimilarityMeasure>,
        classifier: Arc<dyn PairClassifier>,
        blocking: ProbeBlocking,
    ) -> Self {
        let index = match blocking {
            ProbeBlocking::QGram(b) => ProbeIndex::QGram(QGramTermIndex::new(b, &ods)),
            ProbeBlocking::Lsh(b) => ProbeIndex::Lsh(LshBucketIndex::new(b, &ods)),
            ProbeBlocking::Exhaustive => ProbeIndex::Exhaustive,
        };
        ProbeSnapshot {
            doc,
            nodes,
            schema_paths,
            selections,
            mapping,
            terms: TermLookup::new(&ods),
            ods,
            measure,
            classifier,
            index,
        }
    }

    /// Builds a snapshot directly from a document — the CLI `--probe`
    /// entry point and the seed for differential tests. The pipeline's
    /// candidate selection, heuristic description selection, and
    /// extraction run exactly as a batch `detect` would.
    pub fn from_batch(
        dx: &Dogmatix,
        doc: &Document,
        schema: &dogmatix_xml::Schema,
        rw_type: &str,
        blocking: ProbeBlocking,
    ) -> Result<Self, DogmatixError> {
        dx.validate()?;
        ensure_probe_capable(dx.measure_stage().as_ref())?;
        let candidates = select_candidates(doc, schema, dx.mapping(), rw_type)?;
        let selections = selections_for_paths(
            schema,
            &candidates.schema_paths,
            dx.selector_stage().as_ref(),
        )?;
        let parts: Vec<Vec<RawTuple>> = candidates
            .nodes
            .iter()
            .map(|&node| {
                let path = doc.name_path(node);
                extract_raw_tuples(doc, node, selections.get(&path), dx.mapping())
            })
            .collect();
        let ods = Arc::new(OdSet::build_from_raw(
            candidates
                .nodes
                .iter()
                .copied()
                .zip(parts.iter().map(Vec::as_slice)),
        ));
        crate::store::audit::audit_gate(&ods, "probe snapshot OD interning");
        Ok(ProbeSnapshot::from_parts(
            Arc::new(doc.clone()),
            candidates.nodes,
            candidates.schema_paths,
            selections,
            dx.mapping().clone(),
            ods,
            Arc::clone(dx.measure_stage()),
            Arc::clone(dx.classifier_stage()),
            blocking,
        ))
    }

    /// The served document at snapshot time.
    pub fn doc(&self) -> &Document {
        &self.doc
    }

    /// Objects held by the snapshot.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the snapshot holds no candidates.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The interned snapshot store.
    pub fn ods(&self) -> &Arc<OdSet> {
        &self.ods
    }

    /// Candidate schema paths the snapshot accepts probe records for.
    pub fn schema_paths(&self) -> &[String] {
        &self.schema_paths
    }

    /// Extracts probe tuples from an XML fragment holding one candidate
    /// record (e.g. `<movie><title>…</title></movie>`). The fragment's
    /// root element is matched against the candidate paths' last
    /// segments (first match wins), wrapped in that path's ancestor
    /// elements, and extracted with the snapshot's own description
    /// selection and mapping — so the tuples equal what batch insertion
    /// of the same fragment would extract, as long as real ancestors
    /// carry no direct text (true for well-formed record corpora).
    pub fn record_from_xml(&self, xml: &str) -> Result<Vec<RawTuple>, DogmatixError> {
        let fragment = Document::parse(xml)?;
        let root = fragment
            .root_element()
            .ok_or_else(|| DogmatixError::Protocol {
                // dxlint: allow(no-hot-alloc) — cold malformed-request path, not the lookup loop
                message: "probe fragment holds no element".to_string(),
            })?;
        let root_path = fragment.name_path(root);
        let root_name = root_path.trim_start_matches('/');
        let path = self
            .schema_paths
            .iter()
            .find(|p| p.rsplit('/').next() == Some(root_name))
            .ok_or_else(|| DogmatixError::Protocol {
                // dxlint: allow(no-hot-alloc) — cold malformed-request path, not the lookup loop
                message: format!(
                    "probe element <{root_name}> matches no candidate path (expected one of {:?})",
                    self.schema_paths
                ),
            })?;

        // Wrap the fragment in the candidate path's ancestor chain so
        // name paths resolve as they would in the served document.
        // dxlint: allow(no-hot-alloc) — per-request XML assembly, not the per-candidate lookup loop
        let mut wrapped = String::new();
        let parents: Vec<&str> = path
            .trim_start_matches('/')
            .split('/')
            .collect::<Vec<_>>()
            .split_last()
            .map(|(_, init)| init.to_vec())
            .unwrap_or_default();
        for parent in &parents {
            wrapped.push('<');
            wrapped.push_str(parent);
            wrapped.push('>');
        }
        wrapped.push_str(xml);
        for parent in parents.iter().rev() {
            wrapped.push('<');
            wrapped.push('/');
            wrapped.push_str(parent);
            wrapped.push('>');
        }
        let doc = Document::parse(&wrapped)?;
        let node = doc
            .select(path)?
            .first()
            .copied()
            .ok_or_else(|| DogmatixError::Protocol {
                // dxlint: allow(no-hot-alloc) — cold malformed-request path, not the lookup loop
                message: format!("wrapped probe fragment does not resolve at {path}"),
            })?;
        Ok(extract_raw_tuples(
            &doc,
            node,
            self.selections.get(path),
            &self.mapping,
        ))
    }

    /// Answers a point-query: the top-`k` duplicates of `record` among
    /// the snapshot's objects, with batch-identical similarities.
    ///
    /// Candidate generation runs through the snapshot's one-sided
    /// blocking index (sublinear for the q-gram/LSH indexes); scoring
    /// runs the pinned `SimilarityMeasure`/`PairClassifier` stages over
    /// a [`ProbeOverlay`] of the pinned store plus the record, so its
    /// cost follows the examined candidates, not `|Ω|`. Measures without
    /// a [`SimilarityMeasure::prepare_probe`] hook are rejected with a
    /// graceful `Config` error.
    pub fn probe(
        &self,
        record: &[RawTuple],
        k: usize,
        scratch: &mut ProbeScratch,
    ) -> Result<ProbeAnswer, DogmatixError> {
        scratch.layout.build(&self.ods, &self.terms, record);
        let view = ProbeOverlay::over(&self.ods, record, &scratch.layout);
        let prepared = self
            .measure
            .prepare_probe(&view)
            .ok_or_else(|| probe_refusal(self.measure.as_ref()))?;
        let n = self.nodes.len();

        // 1. Candidate generation through the one-sided posting lookups.
        scratch.candidates.clear();
        let type_ids = &scratch.layout.type_ids;
        match &self.index {
            _ if n == 0 => {}
            ProbeIndex::Exhaustive => {
                scratch.candidates.extend(0..n);
            }
            ProbeIndex::QGram(ix) => {
                let known = self.ods.store().type_count() as u32;
                for (tuple, &ty) in record.iter().zip(type_ids) {
                    if ty < known {
                        ix.lookup_into(
                            ty,
                            &tuple.norm,
                            &mut scratch.lookup,
                            &mut scratch.candidates,
                        );
                    }
                }
            }
            ProbeIndex::Lsh(ix) => {
                scratch.tokens.clear();
                for (tuple, &ty) in record.iter().zip(type_ids) {
                    let salt = mix64(u64::from(ty) ^ ix.blocking().seed);
                    word_token_hashes_into(&tuple.norm, &mut scratch.word_hashes);
                    for &h in &scratch.word_hashes {
                        scratch.tokens.insert(h ^ salt);
                    }
                }
                scratch.token_list.clear();
                scratch.token_list.extend(scratch.tokens.iter().copied());
                ix.lookup_into(
                    &scratch.token_list,
                    &mut scratch.lookup,
                    &mut scratch.candidates,
                );
            }
        }
        let examined = scratch.candidates.len();

        // 2. Score candidates against the record (object `n` of the
        // overlay) through the pinned stages.
        scratch.cache.reset_for_plan(examined);
        scratch.scored.clear();
        for &j in &scratch.candidates {
            let sim = prepared.sim(j, n, &mut scratch.cache);
            let class = self.classifier.classify(sim);
            if class != Class::NonDuplicate {
                scratch.scored.push(ProbeMatch {
                    index: j,
                    node: self.nodes[j],
                    sim,
                    class,
                });
            }
        }
        scratch
            .scored
            .sort_by(|a, b| b.sim.total_cmp(&a.sim).then(a.index.cmp(&b.index)));
        let mut matches = Vec::new();
        let mut possible = Vec::new();
        for m in scratch.scored.iter() {
            match m.class {
                Class::Duplicate if matches.len() < k => matches.push(*m),
                Class::Possible if possible.len() < k => possible.push(*m),
                _ => {}
            }
        }
        Ok(ProbeAnswer {
            matches,
            possible,
            stats: ProbeStats {
                total_objects: n,
                candidates_examined: examined,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::NoFilter;
    use dogmatix_xml::Schema;

    fn corpus() -> (Document, Schema, Dogmatix) {
        let doc = Document::parse(
            "<db>\
               <m><t>Midnight Journey</t><y>1999</y></m>\
               <m><t>Something Else</t><y>2002</y></m>\
               <m><t>Fourth Record</t><y>1971</y></m>\
             </db>",
        )
        .unwrap();
        let schema = Schema::infer(&doc).unwrap();
        let dx = Dogmatix::builder().add_type("M", ["/db/m"]).build();
        (doc, schema, dx)
    }

    /// For every blocking mode, a probe's verdicts equal a batch run
    /// over corpus + record: membership, classification, and bitwise
    /// similarity.
    #[test]
    fn probe_equals_batch_over_appended_record() {
        let (doc, schema, dx) = corpus();
        let record_xml = "<m><t>Midnigth Journey</t><y>1999</y></m>";
        // Batch ground truth: the corpus with the record appended.
        let ext_doc = Document::parse(
            "<db>\
               <m><t>Midnight Journey</t><y>1999</y></m>\
               <m><t>Something Else</t><y>2002</y></m>\
               <m><t>Fourth Record</t><y>1971</y></m>\
               <m><t>Midnigth Journey</t><y>1999</y></m>\
             </db>",
        )
        .unwrap();
        let ext_schema = Schema::infer(&ext_doc).unwrap();
        let batch_dx = Dogmatix::builder()
            .add_type("M", ["/db/m"])
            .filter(NoFilter)
            .build();
        let batch = batch_dx.run(&ext_doc, &ext_schema, "M").unwrap();
        let n = 3usize;
        let expected: Vec<(usize, f64)> = batch
            .duplicate_pairs
            .iter()
            .filter(|&&(_, j, _)| j == n)
            .map(|&(i, _, s)| (i, s))
            .collect();
        assert!(
            !expected.is_empty(),
            "the typo record must have a duplicate"
        );

        for blocking in [
            ProbeBlocking::Exhaustive,
            ProbeBlocking::QGram(QGramBlocking::new(2, 0.15)),
            ProbeBlocking::Lsh(MinHashLshBlocking::new(48, 2)),
        ] {
            let snapshot = ProbeSnapshot::from_batch(&dx, &doc, &schema, "M", blocking).unwrap();
            let record = snapshot.record_from_xml(record_xml).unwrap();
            let mut scratch = ProbeScratch::new();
            let answer = snapshot.probe(&record, usize::MAX, &mut scratch).unwrap();
            let got: Vec<(usize, f64)> = answer.matches.iter().map(|m| (m.index, m.sim)).collect();
            let mut want = expected.clone();
            want.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            assert_eq!(got, want, "blocking {blocking:?} diverged from batch");
            assert_eq!(answer.stats.total_objects, n);
        }
    }

    #[test]
    fn qgram_probe_examines_fewer_candidates_than_exhaustive() {
        let (doc, schema, dx) = corpus();
        let snapshot = ProbeSnapshot::from_batch(
            &dx,
            &doc,
            &schema,
            "M",
            ProbeBlocking::QGram(QGramBlocking::new(2, 0.15)),
        )
        .unwrap();
        let record = snapshot
            .record_from_xml("<m><t>Midnigth Journey</t><y>1999</y></m>")
            .unwrap();
        let mut scratch = ProbeScratch::new();
        let answer = snapshot.probe(&record, 5, &mut scratch).unwrap();
        assert!(
            answer.stats.candidates_examined < answer.stats.total_objects,
            "{:?}",
            answer.stats
        );
        assert_eq!(answer.matches[0].index, 0);
    }

    #[test]
    fn unseen_record_types_probe_to_no_candidates() {
        let (doc, schema, dx) = corpus();
        let snapshot = ProbeSnapshot::from_batch(
            &dx,
            &doc,
            &schema,
            "M",
            ProbeBlocking::QGram(QGramBlocking::new(2, 0.15)),
        )
        .unwrap();
        // A record whose tuples all carry a type name the store never
        // interned: resolved to fresh ids, no stored term can pair.
        let record = vec![RawTuple {
            value: "Midnight Journey".into(),
            path: "/db/m/q".into(),
            rw_type: "NEVER_SEEN".into(),
            norm: "midnight journey".into(),
        }];
        let mut scratch = ProbeScratch::new();
        let answer = snapshot.probe(&record, 5, &mut scratch).unwrap();
        assert_eq!(answer.stats.candidates_examined, 0);
        assert!(answer.matches.is_empty());
    }

    #[test]
    fn doc_walking_measures_are_rejected_gracefully() {
        let (doc, schema, _) = corpus();
        let measures: [Arc<dyn SimilarityMeasure>; 2] = [
            Arc::new(crate::baseline::TreeEditMeasure),
            Arc::new(crate::baseline::OverlapMeasure),
        ];
        for measure in measures {
            let dx = Dogmatix::builder()
                .add_type("M", ["/db/m"])
                .measure_arc(measure)
                .build();
            let err = ProbeSnapshot::from_batch(&dx, &doc, &schema, "M", ProbeBlocking::Exhaustive)
                .unwrap_err();
            assert!(matches!(err, DogmatixError::Config { .. }), "{err}");
            assert!(err.to_string().contains("prepare_probe"), "{err}");

            // The incremental publish path refuses it the same way.
            let mut session = dx
                .incremental_session(doc.clone(), schema.clone(), "M")
                .unwrap();
            dx.detect_delta(&mut session, &[]).unwrap();
            let err = session
                .publish_snapshot(&dx, ProbeBlocking::Exhaustive)
                .unwrap_err();
            assert!(matches!(err, DogmatixError::Config { .. }), "{err}");
            assert!(err.to_string().contains("prepare_probe"), "{err}");
        }
    }

    #[test]
    fn record_from_xml_rejects_unknown_elements_and_garbage() {
        let (doc, schema, dx) = corpus();
        let snapshot =
            ProbeSnapshot::from_batch(&dx, &doc, &schema, "M", ProbeBlocking::default()).unwrap();
        let err = snapshot.record_from_xml("<zz><t>X</t></zz>").unwrap_err();
        assert!(matches!(err, DogmatixError::Protocol { .. }), "{err}");
        assert!(snapshot.record_from_xml("<m><t>broken").is_err());
    }

    #[test]
    fn empty_snapshot_answers_empty() {
        let doc = Arc::new(Document::parse("<db><other/></db>").unwrap());
        let dx = Dogmatix::builder().add_type("M", ["/db/m"]).build();
        let snapshot = ProbeSnapshot::from_parts(
            doc,
            Vec::new(),
            vec!["/db/m".to_string()],
            HashMap::new(),
            Mapping::new(),
            Arc::new(OdSet::build_from_raw(std::iter::empty::<(
                NodeId,
                &[RawTuple],
            )>())),
            Arc::clone(dx.measure_stage()),
            Arc::clone(dx.classifier_stage()),
            ProbeBlocking::default(),
        );
        assert!(snapshot.is_empty());
        let record = vec![];
        let mut scratch = ProbeScratch::new();
        let answer = snapshot.probe(&record, 5, &mut scratch).unwrap();
        assert_eq!(answer.stats.total_objects, 0);
        assert!(answer.matches.is_empty());
    }
}
