//! The object filter `f` for comparison reduction (paper Section 5.2,
//! detection Step 4).
//!
//! `f(OD_i)` measures "the amount of information OD_i shares with any
//! other OD_j, compared to the amount of information unique to OD_i"
//! (Equation 9):
//!
//! ```text
//! f(OD_i) = setSoftIDF(S_shared) / (setSoftIDF(S_unique) + setSoftIDF(S_shared))
//! ```
//!
//! Because `f` upper-bounds the similarity of `OD_i` with *every* other
//! object, `f(OD_i) ≤ θ_cand` proves that `OD_i` has no duplicate at all,
//! and **all** pairs involving it are pruned in one step — the paper:
//! "we filter not only individual pairs of candidates, but entire sets of
//! pairs in a single step".
//!
//! ### Implementation
//!
//! The filter is computed on the interned term table in two passes:
//!
//! 1. **term-family discovery** — the set's similar-term graph
//!    ([`crate::simgraph`]): for every distinct term, the ned-similar
//!    terms of the same real-world type, found by a length-sorted window
//!    with the \[18\] bounds, so most candidates die on the length or bag
//!    bound before the bounded edit-distance kernel runs. A term's family
//!    is its postings united with its neighbours' postings, counted with
//!    one object stamp array;
//! 2. **per-object aggregation** — a tuple is *shared* if its term family
//!    spans at least two objects, *unique* otherwise; shared weight is
//!    `ln(|Ω| / |family postings|)` (the softIDF of the tuple with its
//!    similar partners), unique weight is the tuple's own IDF.
//!
//! The cost is one pass over distinct terms plus one over tuples —
//! matching the paper's claim that computing `f` for all objects costs
//! about as much as one `sim` evaluation per object, while `sim` runs per
//! *pair*. The graph stays cached on the [`OdSet`], so Step 5's softIDF
//! engine reuses it to skip the pairs that provably score 0.

use crate::neighborhood::ComparisonPlan;
use crate::od::OdSet;
use crate::stage::{ComparisonFilter, FilterDecision};
use dogmatix_textsim::{
    band_keys, band_keys_into, idf, minhash_signature, minhash_signature_into, mix64,
    positional_qgram_hashes_into, word_token_hashes_into,
};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// Result of the filter pass.
#[derive(Debug, Clone, PartialEq)]
pub struct FilterOutcome {
    /// `f(OD_i)` per candidate.
    pub f_values: Vec<f64>,
    /// Whether candidate `i` is pruned (`f ≤ θ_cand`).
    pub pruned: Vec<bool>,
    /// Number of term pairs the similar-term join tested past the length
    /// bound (diagnostics for the ablation benches).
    pub distance_computations: usize,
}

impl FilterOutcome {
    /// Number of pruned candidates.
    pub fn pruned_count(&self) -> usize {
        self.pruned.iter().filter(|p| **p).count()
    }
}

/// Computes the object filter for every candidate.
///
/// `theta_tuple` is the tuple-similarity threshold (shared with the
/// similarity measure); `theta_cand` the duplicate threshold the filter
/// prunes against. The term families come from the set's similar-term
/// graph ([`OdSet::similar_terms`]), which this call builds and caches
/// on first use so that Step 5 can read it too.
pub fn object_filter(ods: &OdSet, theta_tuple: f64, theta_cand: f64) -> FilterOutcome {
    let total = ods.len();
    let graph = ods.similar_terms(theta_tuple);
    let family_union = graph.family_sizes(ods);

    let mut f_values = Vec::with_capacity(total);
    let mut pruned = Vec::with_capacity(total);
    for i in 0..total {
        let mut shared = 0.0f64;
        let mut unique = 0.0f64;
        for &term in ods.tuple_terms(i) {
            let fam = family_union[term.index()];
            if fam >= 2 {
                shared += idf(total, fam);
            } else {
                unique += idf(total, ods.store().posting_len(term.index()).max(1));
            }
        }
        let denom = shared + unique;
        let f = if denom > 0.0 { shared / denom } else { 0.0 };
        f_values.push(f);
        pruned.push(f <= theta_cand);
    }
    FilterOutcome {
        f_values,
        pruned,
        distance_computations: graph.pairs_examined(),
    }
}

/// The §5.2 object filter as a
/// [`crate::stage::ComparisonFilter`] stage — the
/// paper's default comparison reduction.
///
/// Besides pruning objects, the filter leaves the set's similar-term
/// graph ([`OdSet::similar_terms`]) cached at `theta_tuple`. A
/// [`SoftIdfMeasure`](crate::sim::SoftIdfMeasure) with the same
/// `θ_tuple` then reads the graph's support lists and skips, with the
/// exact answer 0.0, every pair that shares no similar tuple. So one run
/// joins the terms once, for both steps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObjectFilter {
    /// Tuple-similarity threshold shared with the similarity measure.
    pub theta_tuple: f64,
    /// Duplicate threshold the filter prunes against.
    pub theta_cand: f64,
}

impl ObjectFilter {
    /// Creates the filter with the given thresholds (paper: 0.15, 0.55).
    /// Debug builds assert both are similarities in `[0, 1]`.
    pub fn new(theta_tuple: f64, theta_cand: f64) -> Self {
        debug_assert!(
            (0.0..=1.0).contains(&theta_tuple) && (0.0..=1.0).contains(&theta_cand),
            "filter thresholds must be similarities in [0, 1], got ({theta_tuple}, {theta_cand})"
        );
        ObjectFilter::new_unchecked(theta_tuple, theta_cand)
    }

    /// Config-derived construction: the pipeline validates thresholds
    /// itself and reports a graceful `Config` error, so the debug
    /// audit must not fire first.
    pub(crate) fn new_unchecked(theta_tuple: f64, theta_cand: f64) -> Self {
        ObjectFilter {
            theta_tuple,
            theta_cand,
        }
    }
}

impl ComparisonFilter for ObjectFilter {
    fn reduce(&self, ods: &OdSet) -> FilterDecision {
        let FilterOutcome {
            f_values, pruned, ..
        } = object_filter(ods, self.theta_tuple, self.theta_cand);
        FilterDecision {
            f_values,
            pruned,
            pairs: None,
        }
    }
}

/// The no-op filter: every pair is compared — the ablation baseline of
/// Section 6.3 (`DogmatixBuilder::no_filter`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoFilter;

impl ComparisonFilter for NoFilter {
    fn reduce(&self, ods: &OdSet) -> FilterDecision {
        FilterDecision::keep_all(ods.len())
    }
}

/// Blocking by a positional q-gram inverted index over the object
/// descriptions, pruned with the classic count filter — a *provable*
/// superset of edit-distance blocking.
///
/// Two strings within Levenshtein distance `k` share at least
/// `max(|a|,|b|) − q + 1 − k·q` positional q-grams whose positions differ
/// by at most `k` (each edit destroys at most `q` windows and shifts the
/// survivors by at most `k`). The filter inverts that bound: a pair of
/// candidates is kept iff some comparable term pair either
///
/// * is the identical term (`odtDist = 0`),
/// * is too short for the bound to bite (`max_len − q + 1 − k·q ≤ 0`), or
/// * shares at least the bound's worth of position-compatible q-grams,
///
/// so **every** pair of objects holding a tuple pair with
/// `odtDist < theta` survives — the guarantee the property suite checks.
/// Pairs sharing no similar tuple have `sim = 0` and can never classify
/// as duplicates, hence pruning them is lossless.
///
/// ```
/// use dogmatix_core::filter::QGramBlocking;
/// use dogmatix_core::pipeline::Dogmatix;
/// use dogmatix_xml::{Document, Schema};
///
/// let doc = Document::parse(
///     "<db><m><t>Midnight Journey</t></m>\
///          <m><t>Midnigth Journey</t></m>\
///          <m><t>Something Else</t></m></db>")?;
/// let schema = Schema::infer(&doc)?;
/// let dx = Dogmatix::builder()
///     .add_type("M", ["/db/m"])
///     .filter(QGramBlocking::new(2, 0.15))
///     .build();
/// let result = dx.run(&doc, &schema, "M")?;
/// // The typo pair survives blocking and is detected…
/// assert!(result.is_duplicate(0, 1));
/// // …while unrelated pairs were never compared.
/// assert!(result.stats.pairs_compared < result.stats.pairs_total);
/// # Ok::<(), dogmatix_core::DogmatixError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QGramBlocking {
    /// Gram length `q` (2 or 3 are the usual choices).
    pub q: usize,
    /// Tuple-similarity threshold the superset guarantee is proven
    /// against (share it with the similarity measure's `θ_tuple`).
    pub theta: f64,
}

impl QGramBlocking {
    /// Creates the filter for gram length `q` and tuple threshold
    /// `theta`. Panics if `q` is zero.
    pub fn new(q: usize, theta: f64) -> Self {
        assert!(q >= 1, "q-gram size must be at least 1");
        debug_assert!(
            (0.0..=1.0).contains(&theta),
            "q-gram tuple threshold must be a similarity in [0, 1], got {theta}"
        );
        QGramBlocking { q, theta }
    }

    /// Largest edit distance a pair with the given longer length may
    /// have while `odtDist < theta` can still hold. `floor` rounds the
    /// strict cap *up* on integer boundaries — conservative, so the
    /// superset guarantee survives float representation.
    fn max_edits(&self, max_len: usize) -> usize {
        (self.theta * max_len as f64).floor() as usize
    }

    /// The count-filter lower bound on shared positional grams for a
    /// pair whose longer side has `max_len` chars. Non-positive means
    /// the bound is vacuous: the pair cannot be pruned.
    fn count_bound(&self, max_len: usize) -> i64 {
        let k = self.max_edits(max_len);
        max_len as i64 - self.q as i64 + 1 - (k * self.q) as i64
    }

    /// The per-store q-gram columns the plan *and* the one-sided probe
    /// lookup share — one construction path, so probe candidate
    /// generation cannot drift from the batch plan's.
    fn columns(&self, ods: &OdSet) -> QGramColumns {
        let store = ods.store();
        let terms = store.term_count();
        // Positional q-gram inverted index: (type, gram hash) → terms.
        // Gram hashes are emitted straight off the arena into a reused
        // buffer (`positional_qgram_hashes_into` — no per-gram `String`),
        // then sorted by (hash, position) once, so the per-pair count
        // verification below is an allocation-free merge scan.
        let grams: Vec<Vec<(u64, u32)>> = (0..terms)
            .map(|t| {
                let mut g = Vec::new();
                positional_qgram_hashes_into(store.norm(t), self.q, &mut g);
                g.sort_unstable();
                g
            })
            .collect();
        let mut index: HashMap<(u32, u64), Vec<usize>> = HashMap::new();
        for (idx, term_grams) in grams.iter().enumerate() {
            let mut seen = BTreeSet::new();
            for &(g, _) in term_grams {
                if seen.insert(g) {
                    index.entry((store.type_id(idx), g)).or_default().push(idx);
                }
            }
        }
        let mut by_type: HashMap<u32, Vec<usize>> = HashMap::new();
        for idx in 0..terms {
            by_type.entry(store.type_id(idx)).or_default().push(idx);
        }
        for group in by_type.values_mut() {
            group.sort_by_key(|&i| (store.char_len(i), i));
        }
        QGramColumns {
            grams,
            index,
            by_type,
        }
    }

    /// The comparison plan for an OD set (exposed for diagnostics, the
    /// eval table, and the property suite).
    pub fn plan(&self, ods: &OdSet) -> ComparisonPlan {
        let n = ods.len();
        let store = ods.store();
        let terms = store.term_count();
        let mut pairs: BTreeSet<(usize, usize)> = BTreeSet::new();

        if self.theta > 0.0 {
            // Identical terms are always similar (odtDist = 0): every
            // pair of objects sharing a term survives.
            for t in 0..terms {
                cross_postings(store.postings(t), store.postings(t), &mut pairs);
            }
        }

        // Candidate *term* pairs that could still be within the
        // threshold: (a) pairs the count bound cannot prune, found by a
        // length-sorted scan per type; (b) pairs sharing at least one
        // q-gram, found through the inverted index.
        let cols = self.columns(ods);
        let mut term_pairs: BTreeSet<(usize, usize)> = BTreeSet::new();

        for group in cols.by_type.values() {
            for (pos, &b) in group.iter().enumerate() {
                // `b` is the longer side of every pair with an earlier
                // term, so the pair's count bound depends only on `b`.
                if self.theta > 0.0 && self.count_bound(store.char_len(b)) <= 0 {
                    for &a in &group[..pos] {
                        term_pairs.insert((a.min(b), a.max(b)));
                    }
                }
            }
        }

        for bucket in cols.index.values() {
            for (pos, &a) in bucket.iter().enumerate() {
                for &b in &bucket[pos + 1..] {
                    term_pairs.insert((a.min(b), a.max(b)));
                }
            }
        }

        // Verify each candidate term pair against the provable bounds.
        for &(a, b) in &term_pairs {
            let (la, lb) = (store.char_len(a), store.char_len(b));
            let max_len = la.max(lb);
            let k = self.max_edits(max_len);
            if la.abs_diff(lb) > k {
                continue; // length bound: distance ≥ |la − lb| > k
            }
            let bound = self.count_bound(max_len);
            if bound > 0 && positional_matches(&cols.grams[a], &cols.grams[b], k) < bound {
                continue; // count filter: provably above the threshold
            }
            cross_postings(store.postings(a), store.postings(b), &mut pairs);
        }

        ComparisonPlan {
            pairs: pairs.into_iter().collect(),
            total_pairs: n * n.saturating_sub(1) / 2,
        }
    }
}

/// The shared q-gram lookup columns (see [`QGramBlocking::columns`]).
#[derive(Debug)]
struct QGramColumns {
    /// Per-term (gram hash, position) pairs, sorted.
    grams: Vec<Vec<(u64, u32)>>,
    /// (type id, gram hash) → term indices holding the gram.
    index: HashMap<(u32, u64), Vec<usize>>,
    /// Term indices per type id, sorted by (char length, index).
    by_type: HashMap<u32, Vec<usize>>,
}

impl ComparisonFilter for QGramBlocking {
    fn reduce(&self, ods: &OdSet) -> FilterDecision {
        FilterDecision {
            pairs: Some(self.plan(ods).pairs),
            ..FilterDecision::keep_all(ods.len())
        }
    }
}

/// Inserts every cross pair of two posting lists (distinct objects,
/// normalised to `i < j`).
fn cross_postings(a: &[u32], b: &[u32], out: &mut BTreeSet<(usize, usize)>) {
    for &i in a {
        for &j in b {
            if i != j {
                out.insert((i.min(j) as usize, i.max(j) as usize));
            }
        }
    }
}

/// Maximum number of q-grams of `a` matchable to equal grams of `b` at a
/// position offset of at most `k`. Both inputs must be sorted by
/// (hash, position) — [`QGramBlocking::plan`] sorts each term's grams
/// once at construction. The per-hash two-pointer greedy is optimal for
/// threshold matching on a line, so the count never under-estimates
/// (pruning stays provable).
fn positional_matches(a: &[(u64, u32)], b: &[(u64, u32)], k: usize) -> i64 {
    debug_assert!(a.is_sorted() && b.is_sorted());
    let mut matched = 0i64;
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                let (pa, pb) = (a[i].1 as usize, b[j].1 as usize);
                if pa.abs_diff(pb) <= k {
                    matched += 1;
                    i += 1;
                    j += 1;
                } else if pa < pb {
                    i += 1;
                } else {
                    j += 1;
                }
            }
        }
    }
    matched
}

/// Blocking by banded MinHash (locality-sensitive hashing) over each
/// object description's token set.
///
/// Every OD is tokenised into `(real-world type, word token)` elements;
/// a MinHash signature of `bands · rows` slots estimates Jaccard
/// similarity, and objects colliding in at least one band become
/// candidates. Collision probability for token-Jaccard `J` is
/// `1 − (1 − J^r)^b`, so `bands`/`rows` tune the S-curve: more rows prune
/// harder, more bands recall more. Unlike [`QGramBlocking`] this is
/// probabilistic — recall is high but not guaranteed; the eval table
/// (`cargo run -p dogmatix_eval --bin blocking`) reports measured recall
/// and comparisons saved per corpus.
///
/// ```
/// use dogmatix_core::filter::MinHashLshBlocking;
/// use dogmatix_core::pipeline::Dogmatix;
/// use dogmatix_xml::{Document, Schema};
///
/// let doc = Document::parse(
///     "<db><m><t>Midnight Journey</t><y>1999</y></m>\
///          <m><t>Midnight Journey</t><y>1999</y></m>\
///          <m><t>Blue Sky Ahead</t><y>1971</y></m></db>")?;
/// let schema = Schema::infer(&doc)?;
/// let dx = Dogmatix::builder()
///     .add_type("M", ["/db/m"])
///     .filter(MinHashLshBlocking::new(16, 2))
///     .build();
/// let result = dx.run(&doc, &schema, "M")?;
/// assert!(result.is_duplicate(0, 1));
/// # Ok::<(), dogmatix_core::DogmatixError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MinHashLshBlocking {
    /// Number of bands (`b`).
    pub bands: usize,
    /// Rows per band (`r`); the signature holds `b · r` slots.
    pub rows: usize,
    /// Seed deriving the hash family (fixed default: results are
    /// deterministic across runs and thread counts).
    pub seed: u64,
}

impl MinHashLshBlocking {
    /// Creates the filter with `bands` bands of `rows` rows and the
    /// default seed. Panics if either is zero.
    pub fn new(bands: usize, rows: usize) -> Self {
        assert!(bands >= 1 && rows >= 1, "bands and rows must be positive");
        MinHashLshBlocking {
            bands,
            rows,
            seed: 0xD06_A71,
        }
    }

    /// Same filter under a caller-chosen hash-family seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The comparison plan for an OD set (exposed for diagnostics and
    /// the eval table). The band buckets are built by
    /// [`LshBucketIndex::new`] — the same structure the probe lookup
    /// queries, so the two paths cannot drift.
    pub fn plan(&self, ods: &OdSet) -> ComparisonPlan {
        let n = ods.len();
        let index = LshBucketIndex::new(*self, ods);
        let mut pairs: BTreeSet<(usize, usize)> = BTreeSet::new();
        for bucket in index.buckets.values() {
            for (pos, &i) in bucket.iter().enumerate() {
                for &j in &bucket[pos + 1..] {
                    pairs.insert((i.min(j), i.max(j)));
                }
            }
        }
        ComparisonPlan {
            pairs: pairs.into_iter().collect(),
            total_pairs: n * n.saturating_sub(1) / 2,
        }
    }
}

impl ComparisonFilter for MinHashLshBlocking {
    fn reduce(&self, ods: &OdSet) -> FilterDecision {
        FilterDecision {
            pairs: Some(self.plan(ods).pairs),
            ..FilterDecision::keep_all(ods.len())
        }
    }
}

/// Reusable scratch buffers for the one-sided probe lookups
/// ([`QGramTermIndex::lookup_into`], [`LshBucketIndex::lookup_into`]).
/// A server connection holds one of these across requests so
/// steady-state probe serving performs no per-request `String` (or,
/// after warm-up, buffer) allocation.
#[derive(Debug, Default)]
pub struct LookupScratch {
    /// Probe-term (gram hash, position) pairs, sorted.
    grams: Vec<(u64, u32)>,
    /// Candidate term indices awaiting bound verification.
    term_hits: BTreeSet<usize>,
    /// MinHash signature slots.
    signature: Vec<u64>,
    /// LSH band bucket keys.
    keys: Vec<u64>,
}

impl LookupScratch {
    /// Fresh scratch; buffers grow to steady-state size on first use.
    pub fn new() -> Self {
        LookupScratch::default()
    }
}

/// One-sided q-gram candidate lookup for single-record probes
/// ([`crate::probe`]): the same inverted index and provable bounds as
/// [`QGramBlocking::plan`], queried with an un-interned probe term
/// instead of a second stored term.
///
/// [`lookup_into`](QGramTermIndex::lookup_into) returns the postings of
/// every stored term that survives the identical length/count-filter
/// verification the batch plan applies, so for a probe record appended
/// to the store the candidate set equals exactly the batch plan's pairs
/// involving that record — the guarantee `tests/server.rs` pins
/// differentially. Construction shares `QGramBlocking::columns` with
/// the batch plan, so the two paths cannot drift.
#[derive(Debug)]
pub struct QGramTermIndex {
    blocking: QGramBlocking,
    ods: Arc<OdSet>,
    cols: QGramColumns,
    /// Per type: terms whose own count bound is vacuous
    /// (`count_bound(len) ≤ 0`), i.e. the length-sorted-scan clause of
    /// the batch plan. Empty when `theta == 0` (clause is gated).
    vacuous: HashMap<u32, Vec<usize>>,
}

impl QGramTermIndex {
    /// Builds the probe index over a pinned snapshot store.
    pub fn new(blocking: QGramBlocking, ods: &Arc<OdSet>) -> Self {
        let cols = blocking.columns(ods);
        let mut vacuous: HashMap<u32, Vec<usize>> = HashMap::new();
        if blocking.theta > 0.0 {
            let store = ods.store();
            for (ty, group) in &cols.by_type {
                let shorts: Vec<usize> = group
                    .iter()
                    .copied()
                    .filter(|&t| blocking.count_bound(store.char_len(t)) <= 0)
                    .collect();
                if !shorts.is_empty() {
                    vacuous.insert(*ty, shorts);
                }
            }
        }
        QGramTermIndex {
            blocking,
            ods: Arc::clone(ods),
            cols,
            vacuous,
        }
    }

    /// The snapshot store this index was built over.
    pub fn ods(&self) -> &Arc<OdSet> {
        &self.ods
    }

    /// Candidate objects for one probe tuple, accumulated into `out`:
    /// the postings of every stored term of `type_id` that survives the
    /// batch plan's bounds against the probe term `norm`.
    ///
    /// `type_id` must be resolved against the snapshot store; types the
    /// store has never seen can share no term and contribute no
    /// candidates (callers skip them). With `theta == 0` the lookup
    /// returns nothing — mirroring the provably empty batch plan.
    pub fn lookup_into(
        &self,
        type_id: u32,
        norm: &str,
        scratch: &mut LookupScratch,
        out: &mut BTreeSet<usize>,
    ) {
        if self.blocking.theta <= 0.0 {
            return;
        }
        let store = self.ods.store();
        let Some(group) = self.cols.by_type.get(&type_id) else {
            return;
        };
        let len = norm.chars().count();
        positional_qgram_hashes_into(norm, self.blocking.q, &mut scratch.grams);
        scratch.grams.sort_unstable();
        scratch.term_hits.clear();

        // Clause (a): pairs the count bound cannot prune. Interned
        // last, the probe term sorts after every stored term of equal
        // length, so it is the longer side of each pair with a term of
        // length ≤ `len` (admitted when its own bound is vacuous) and
        // the shorter side of pairs with the stored vacuous-bound terms
        // of length ≥ `len`.
        if self.blocking.count_bound(len) <= 0 {
            let end = group.partition_point(|&t| store.char_len(t) <= len);
            scratch.term_hits.extend(group[..end].iter().copied());
        }
        if let Some(vacuous) = self.vacuous.get(&type_id) {
            scratch.term_hits.extend(
                vacuous
                    .iter()
                    .copied()
                    .filter(|&t| store.char_len(t) >= len),
            );
        }

        // Clause (b): terms sharing at least one q-gram. The grams are
        // sorted, so consecutive-duplicate skipping dedups bucket hits.
        let mut last = None;
        for &(g, _) in scratch.grams.iter() {
            if last == Some(g) {
                continue;
            }
            last = Some(g);
            if let Some(bucket) = self.cols.index.get(&(type_id, g)) {
                scratch.term_hits.extend(bucket.iter().copied());
            }
        }

        // Verification: bit-identical bounds to the batch plan. A
        // stored term equal to the probe term shares all grams (or a
        // vacuous bound) and always survives — covering the plan's
        // identical-term clause, where the appended record would join
        // that term's postings.
        for &t in &scratch.term_hits {
            let lt = store.char_len(t);
            let max_len = len.max(lt);
            let k = self.blocking.max_edits(max_len);
            if len.abs_diff(lt) > k {
                continue;
            }
            let bound = self.blocking.count_bound(max_len);
            if bound > 0 && positional_matches(&scratch.grams, &self.cols.grams[t], k) < bound {
                continue;
            }
            out.extend(store.postings(t).iter().map(|&o| o as usize));
        }
    }
}

/// One-sided MinHash-LSH candidate lookup for single-record probes: the
/// band buckets behind [`MinHashLshBlocking::plan`], queryable with a
/// probe token set.
///
/// Signatures are per-object and stored type/term ids are stable under
/// append-last interning, so the objects colliding with the probe's
/// band keys are exactly the plan's pairs involving the appended record.
#[derive(Debug)]
pub struct LshBucketIndex {
    blocking: MinHashLshBlocking,
    buckets: HashMap<(usize, u64), Vec<usize>>,
}

impl LshBucketIndex {
    /// Builds the band buckets over a snapshot store — the identical
    /// per-object signature loop the batch plan runs.
    pub fn new(blocking: MinHashLshBlocking, ods: &OdSet) -> Self {
        let store = ods.store();
        let hashes = blocking.bands * blocking.rows;
        let mut buckets: HashMap<(usize, u64), Vec<usize>> = HashMap::new();
        let mut scratch: Vec<u64> = Vec::new();
        for i in 0..ods.len() {
            let mut tokens: BTreeSet<u64> = BTreeSet::new();
            for &term in ods.tuple_terms(i) {
                let salt = mix64(u64::from(store.type_id(term.index())) ^ blocking.seed);
                word_token_hashes_into(store.norm(term.index()), &mut scratch);
                for &h in &scratch {
                    tokens.insert(h ^ salt);
                }
            }
            if tokens.is_empty() {
                continue; // empty descriptions block with nothing
            }
            let token_hashes: Vec<u64> = tokens.into_iter().collect();
            let sig = minhash_signature(&token_hashes, hashes, blocking.seed);
            for (band, key) in band_keys(&sig, blocking.bands, blocking.rows)
                .into_iter()
                .enumerate()
            {
                buckets.entry((band, key)).or_default().push(i);
            }
        }
        LshBucketIndex { blocking, buckets }
    }

    /// The blocking parameters the buckets were built under.
    pub fn blocking(&self) -> MinHashLshBlocking {
        self.blocking
    }

    /// Objects colliding with the probe's token set in at least one
    /// band, accumulated into `out`. `token_hashes` must already carry
    /// the per-type salts (`mix64(type_id ^ seed)` XORed in — see
    /// [`crate::probe`], which resolves type ids the way append-last
    /// interning would). An empty token set blocks with nothing.
    pub fn lookup_into(
        &self,
        token_hashes: &[u64],
        scratch: &mut LookupScratch,
        out: &mut BTreeSet<usize>,
    ) {
        if token_hashes.is_empty() {
            return;
        }
        let hashes = self.blocking.bands * self.blocking.rows;
        minhash_signature_into(
            token_hashes,
            hashes,
            self.blocking.seed,
            &mut scratch.signature,
        );
        band_keys_into(
            &scratch.signature,
            self.blocking.bands,
            self.blocking.rows,
            &mut scratch.keys,
        );
        for (band, &key) in scratch.keys.iter().enumerate() {
            if let Some(bucket) = self.buckets.get(&(band, key)) {
                out.extend(bucket.iter().copied());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::Mapping;
    use crate::od::OdSet;
    use crate::sim::{DistCache, SimEngine};
    use dogmatix_xml::Document;

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "similarities in [0, 1]")]
    fn object_filter_rejects_out_of_range_theta_in_debug() {
        let _ = ObjectFilter::new(0.15, 1.5);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "similarity in [0, 1]")]
    fn qgram_rejects_out_of_range_theta_in_debug() {
        let _ = QGramBlocking::new(2, -0.5);
    }

    fn build(xml: &str, candidate: &str, selected: &[&str]) -> OdSet {
        let doc = Document::parse(xml).unwrap();
        let candidates = doc.select(candidate).unwrap();
        let mut sel = HashMap::new();
        sel.insert(
            candidate.to_string(),
            selected
                .iter()
                .map(|s| s.to_string())
                .collect::<BTreeSet<_>>(),
        );
        OdSet::build(&doc, &candidates, &sel, &Mapping::new())
    }

    #[test]
    fn object_filter_stage_matches_free_function() {
        let ods = build(
            "<r>\
               <m><t>Alpha Song</t><a>Alice</a></m>\
               <m><t>Alpha Song</t><a>Alice</a></m>\
               <m><t>Zz Qq Xx</t><a>Nobody Known</a></m>\
             </r>",
            "/r/m",
            &["/r/m/t", "/r/m/a"],
        );
        let stage = ObjectFilter::new(0.15, 0.55);
        let decision = stage.reduce(&ods);
        let direct = object_filter(&ods, 0.15, 0.55);
        assert_eq!(decision.f_values, direct.f_values);
        assert_eq!(decision.pruned, direct.pruned);
        assert!(decision.pairs.is_none());
    }

    #[test]
    fn no_filter_keeps_everything() {
        let ods = build("<r><m><t>A</t></m><m><t>B</t></m></r>", "/r/m", &["/r/m/t"]);
        let decision = NoFilter.reduce(&ods);
        assert_eq!(decision, FilterDecision::keep_all(2));
    }

    #[test]
    fn isolated_object_is_pruned() {
        let ods = build(
            "<r>\
               <m><t>Alpha Song</t><a>Alice</a></m>\
               <m><t>Alpha Song</t><a>Alice</a></m>\
               <m><t>Zz Qq Xx</t><a>Nobody Known</a></m>\
               <m><t>Beta Tune</t><a>Bob</a></m>\
               <m><t>Beta Tune</t><a>Bob</a></m>\
             </r>",
            "/r/m",
            &["/r/m/t", "/r/m/a"],
        );
        let out = object_filter(&ods, 0.15, 0.55);
        // Candidate 2 shares nothing → f = 0 → pruned.
        assert_eq!(out.f_values[2], 0.0);
        assert!(out.pruned[2]);
        // The duplicated pairs share everything → f = 1 → kept.
        assert_eq!(out.f_values[0], 1.0);
        assert!(!out.pruned[0]);
        assert!(!out.pruned[1]);
        assert!(!out.pruned[3]);
        assert!(!out.pruned[4]);
    }

    #[test]
    fn near_duplicates_survive_via_similar_terms() {
        // The shared value carries a typo — exact matching would miss it,
        // the ned-similar family must catch it.
        let ods = build(
            "<r>\
               <m><t>Midnight Journey</t></m>\
               <m><t>Midnigth Journey</t></m>\
               <m><t>Completely Other</t></m>\
               <m><t>Another Thing Entirely</t></m>\
             </r>",
            "/r/m",
            &["/r/m/t"],
        );
        let out = object_filter(&ods, 0.15, 0.55);
        assert!(!out.pruned[0], "f={}", out.f_values[0]);
        assert!(!out.pruned[1], "f={}", out.f_values[1]);
        assert!(out.pruned[2]);
        assert!(out.pruned[3]);
        assert!(out.distance_computations > 0);
    }

    #[test]
    fn filter_never_prunes_candidates_with_detectable_duplicates() {
        // The property that matters for correctness: every candidate whose
        // best sim exceeds θ_cand must survive the filter. (The filter is
        // an *empirical* bound — the paper's own Figure 8 reports filter
        // precision well below 100%, i.e. their filter also prunes some
        // candidates that do have duplicates; but candidates whose
        // duplicates are detectable above the threshold must be kept.)
        let ods = build(
            "<r>\
               <m><t>Alpha Beta</t><y>1999</y></m>\
               <m><t>Alpha Beta</t><y>1999</y></m>\
               <m><t>Gamma Delta</t><y>1999</y></m>\
               <m><t>Epsilon Zeta</t><y>2002</y></m>\
               <m><t>Eta Theta</t><y>2003</y></m>\
             </r>",
            "/r/m",
            &["/r/m/t", "/r/m/y"],
        );
        let theta_cand = 0.55;
        let out = object_filter(&ods, 0.15, theta_cand);
        let engine = SimEngine::new(&ods, 0.15);
        let mut cache = DistCache::new();
        for i in 0..ods.len() {
            let best = (0..ods.len())
                .filter(|j| *j != i)
                .map(|j| engine.sim(i, j, &mut cache))
                .fold(0.0f64, f64::max);
            if best > theta_cand {
                assert!(
                    !out.pruned[i],
                    "candidate {i} with best sim {best} was pruned (f={})",
                    out.f_values[i]
                );
            }
        }
        // The exact-duplicate pair shares everything → f = 1.
        assert_eq!(out.f_values[0], 1.0);
        assert_eq!(out.f_values[1], 1.0);
    }

    #[test]
    fn empty_descriptions_are_pruned() {
        let ods = build("<r><m><t>A</t></m><m><t>B</t></m></r>", "/r/m", &[]);
        let out = object_filter(&ods, 0.15, 0.55);
        assert!(out.pruned.iter().all(|p| *p));
        assert_eq!(out.pruned_count(), 2);
    }

    #[test]
    fn zero_theta_cand_keeps_partial_sharers() {
        let ods = build(
            "<r><m><t>Shared</t><u>OnlyHere</u></m>\
                <m><t>Shared</t><u>OnlyThere</u></m>\
                <m><t>Unrelated</t><u>Xyz</u></m></r>",
            "/r/m",
            &["/r/m/t", "/r/m/u"],
        );
        let out = object_filter(&ods, 0.15, 0.0);
        // Candidates 0/1 share one term → f > 0 → kept at θ=0.
        assert!(!out.pruned[0] && !out.pruned[1]);
        assert!(out.pruned[2], "f={}", out.f_values[2]);
    }

    #[test]
    fn qgram_blocking_is_a_superset_of_similar_tuple_pairs() {
        // Brute force: every object pair holding a same-type tuple pair
        // with ned < θ must be in the q-gram plan.
        let ods = build(
            "<r>\
               <m><t>Midnight Journey</t><a>Alice</a></m>\
               <m><t>Midnigth Journey</t><a>Alicia</a></m>\
               <m><t>Something Else</t><a>Bob</a></m>\
               <m><t>Fourth Record</t><a>Alice</a></m>\
             </r>",
            "/r/m",
            &["/r/m/t", "/r/m/a"],
        );
        for theta in [0.05, 0.15, 0.3, 0.6] {
            for q in [2usize, 3] {
                let plan = QGramBlocking::new(q, theta).plan(&ods);
                for i in 0..ods.len() {
                    for j in (i + 1)..ods.len() {
                        let similar = ods.od(i).tuples().any(|ti| {
                            ods.od(j).tuples().any(|tj| {
                                ti.type_id() == tj.type_id()
                                    && dogmatix_textsim::ned(
                                        ods.term(ti.term()).norm(),
                                        ods.term(tj.term()).norm(),
                                    ) < theta
                            })
                        });
                        if similar {
                            assert!(
                                plan.pairs.contains(&(i, j)),
                                "q={q} theta={theta}: similar pair ({i},{j}) missing"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn qgram_blocking_prunes_unrelated_pairs() {
        let ods = build(
            "<r>\
               <m><t>Alpha Song Unique</t><a>Alice Wonder</a></m>\
               <m><t>Alpha Song Unique</t><a>Alice Wonder</a></m>\
               <m><t>Zz Qq Xx Totally</t><a>Nobody Known</a></m>\
             </r>",
            "/r/m",
            &["/r/m/t", "/r/m/a"],
        );
        let plan = QGramBlocking::new(2, 0.15).plan(&ods);
        assert!(plan.pairs.contains(&(0, 1)));
        assert!(!plan.pairs.contains(&(0, 2)), "{:?}", plan.pairs);
        assert!(!plan.pairs.contains(&(1, 2)));
        assert!(plan.reduction() > 0.0);
    }

    #[test]
    fn qgram_blocking_zero_theta_yields_empty_plan() {
        let ods = build(
            "<r><m><t>Alpha</t></m><m><t>Alpha</t></m></r>",
            "/r/m",
            &["/r/m/t"],
        );
        // θ = 0: no tuple pair can be strictly similar, so no pair can
        // classify as a duplicate — the empty plan is a valid superset.
        let plan = QGramBlocking::new(2, 0.0).plan(&ods);
        assert!(plan.pairs.is_empty());
    }

    #[test]
    fn qgram_blocking_stage_matches_plan_and_is_deterministic() {
        let ods = build(
            "<r><m><t>Alpha Song</t></m><m><t>Alpha Sonk</t></m>\
                <m><t>Unrelated</t></m></r>",
            "/r/m",
            &["/r/m/t"],
        );
        let stage = QGramBlocking::new(2, 0.2);
        let decision = stage.reduce(&ods);
        assert_eq!(decision.pairs.as_deref(), Some(&stage.plan(&ods).pairs[..]));
        assert!(decision.pruned.iter().all(|p| !p));
        assert_eq!(stage.plan(&ods), stage.plan(&ods));
    }

    #[test]
    fn minhash_lsh_blocking_keeps_near_duplicates_and_prunes() {
        let ods = build(
            "<r>\
               <m><t>Midnight Journey Deluxe</t><a>Alice Wonder</a></m>\
               <m><t>Midnight Journey Deluxe</t><a>Alice Wonder</a></m>\
               <m><t>Blue Sky Ahead</t><a>Carol Smith</a></m>\
               <m><t>Red Rock Canyon</t><a>Dave Jones</a></m>\
             </r>",
            "/r/m",
            &["/r/m/t", "/r/m/a"],
        );
        let stage = MinHashLshBlocking::new(16, 2);
        let plan = stage.plan(&ods);
        assert!(
            plan.pairs.contains(&(0, 1)),
            "token-identical pair must collide in every band: {:?}",
            plan.pairs
        );
        assert!(plan.pairs.len() < plan.total_pairs, "{:?}", plan.pairs);
        // Deterministic across invocations; a different seed may differ.
        assert_eq!(plan, stage.plan(&ods));
        let decision = stage.reduce(&ods);
        assert_eq!(decision.pairs.as_deref(), Some(&plan.pairs[..]));
    }

    #[test]
    fn minhash_lsh_blocking_empty_descriptions_block_nothing() {
        let ods = build("<r><m><t>A</t></m><m><t>B</t></m></r>", "/r/m", &[]);
        let plan = MinHashLshBlocking::new(4, 2).plan(&ods);
        assert!(plan.pairs.is_empty());
    }

    /// Resolves a type name against a (snapshot) store, as append-last
    /// interning would for types the store has already seen.
    fn resolve_type(store: &crate::store::TermStore, name: &str) -> Option<u32> {
        (0..store.type_count() as u32).find(|&t| store.type_name(t) == name)
    }

    const LOOKUP_BASE: &str = "<r>\
           <m><t>Midnight Journey</t><a>Alice</a></m>\
           <m><t>Something Else</t><a>Bob</a></m>\
           <m><t>Fourth Record</t><a>Al</a></m>\
           <m><t>Zz</t><a>X</a></m>\
         </r>";
    // The same corpus with the probe record appended *last*, so ids of
    // the base terms/types are unchanged (first-occurrence interning).
    const LOOKUP_EXT: &str = "<r>\
           <m><t>Midnight Journey</t><a>Alice</a></m>\
           <m><t>Something Else</t><a>Bob</a></m>\
           <m><t>Fourth Record</t><a>Al</a></m>\
           <m><t>Zz</t><a>X</a></m>\
           <m><t>Midnigth Journey</t><a>Zz</a></m>\
         </r>";

    #[test]
    fn one_sided_qgram_lookup_matches_extended_plan() {
        let sel = &["/r/m/t", "/r/m/a"];
        let base = std::sync::Arc::new(build(LOOKUP_BASE, "/r/m", sel));
        let ext = build(LOOKUP_EXT, "/r/m", sel);
        let n = base.len();
        for theta in [0.0, 0.05, 0.15, 0.3, 0.6] {
            for q in [2usize, 3] {
                let blocking = QGramBlocking::new(q, theta);
                let expected: BTreeSet<usize> = blocking
                    .plan(&ext)
                    .pairs
                    .iter()
                    .filter(|&&(_, j)| j == n)
                    .map(|&(i, _)| i)
                    .collect();
                let index = QGramTermIndex::new(blocking, &base);
                let mut scratch = LookupScratch::new();
                let mut got: BTreeSet<usize> = BTreeSet::new();
                let ext_store = ext.store();
                for tuple in ext.od(n).tuples() {
                    let name = ext_store.type_name(tuple.type_id());
                    let norm = ext.term(tuple.term()).norm();
                    if let Some(ty) = resolve_type(base.store(), name) {
                        index.lookup_into(ty, norm, &mut scratch, &mut got);
                    }
                }
                assert_eq!(
                    got, expected,
                    "q={q} theta={theta}: one-sided lookup diverged from the extended plan"
                );
            }
        }
    }

    #[test]
    fn one_sided_lsh_lookup_matches_extended_plan() {
        let sel = &["/r/m/t", "/r/m/a"];
        let base = std::sync::Arc::new(build(LOOKUP_BASE, "/r/m", sel));
        let ext = build(LOOKUP_EXT, "/r/m", sel);
        let n = base.len();
        for (bands, rows) in [(16usize, 2usize), (4, 4), (48, 2)] {
            let blocking = MinHashLshBlocking::new(bands, rows);
            let expected: BTreeSet<usize> = blocking
                .plan(&ext)
                .pairs
                .iter()
                .filter(|&&(_, j)| j == n)
                .map(|&(i, _)| i)
                .collect();
            let index = LshBucketIndex::new(blocking, &base);
            // Probe tokens: the extended set's own salted token set for
            // record n (every type already exists in the base store, so
            // resolved ids equal extended ids).
            let ext_store = ext.store();
            let mut tokens: BTreeSet<u64> = BTreeSet::new();
            let mut word_scratch: Vec<u64> = Vec::new();
            for &term in ext.tuple_terms(n) {
                let salt = mix64(u64::from(ext_store.type_id(term.index())) ^ blocking.seed);
                word_token_hashes_into(ext_store.norm(term.index()), &mut word_scratch);
                for &h in &word_scratch {
                    tokens.insert(h ^ salt);
                }
            }
            let token_list: Vec<u64> = tokens.into_iter().collect();
            let mut scratch = LookupScratch::new();
            let mut got: BTreeSet<usize> = BTreeSet::new();
            index.lookup_into(&token_list, &mut scratch, &mut got);
            assert_eq!(
                got, expected,
                "bands={bands} rows={rows}: one-sided LSH lookup diverged"
            );
        }
    }

    #[test]
    fn qgram_lookup_is_empty_at_zero_theta_and_for_unseen_types() {
        let base = std::sync::Arc::new(build(LOOKUP_BASE, "/r/m", &["/r/m/t"]));
        let mut scratch = LookupScratch::new();
        let mut out = BTreeSet::new();
        let zero = QGramTermIndex::new(QGramBlocking::new(2, 0.0), &base);
        zero.lookup_into(0, "midnight journey", &mut scratch, &mut out);
        assert!(out.is_empty(), "θ=0 must mirror the empty batch plan");
        let index = QGramTermIndex::new(QGramBlocking::new(2, 0.15), &base);
        let fresh_type = base.store().type_count() as u32;
        index.lookup_into(fresh_type, "midnight journey", &mut scratch, &mut out);
        assert!(out.is_empty(), "unseen types share no stored term");
        index.lookup_into(0, "midnight journey", &mut scratch, &mut out);
        assert!(out.contains(&0), "the near-identical record must hit");
    }

    #[test]
    fn family_size_counts_objects_not_terms() {
        // Three ned-similar variants spread over three objects: each
        // term's family must span all three objects.
        let ods = build(
            "<r><m><t>abcdefghij</t></m>\
                <m><t>abcdefghiX</t></m>\
                <m><t>abcdefghYj</t></m>\
                <m><t>unrelated thing</t></m></r>",
            "/r/m",
            &["/r/m/t"],
        );
        let out = object_filter(&ods, 0.25, 0.55);
        for i in 0..3 {
            assert!(!out.pruned[i], "variant {i} must be kept");
        }
        assert!(out.pruned[3]);
    }
}
