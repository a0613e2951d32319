//! The domain-independent similarity measure (paper Section 5).
//!
//! For a pair of object descriptions `OD_i`, `OD_j`:
//!
//! 1. only tuples of the same real-world type are **comparable** (mapping
//!    `M`); incomparable data is ignored entirely,
//! 2. a comparable pair is **similar** iff its `odtDist` — the normalised
//!    edit distance of the values (Definition 7) — is below `θ_tuple`
//!    (Equation 4),
//! 3. comparable tuples that are not similar are paired into
//!    **contradictory** pairs greedily by *highest* distance, each tuple
//!    used at most once (Section 5's city example); leftover tuples are
//!    non-specified and do not hurt,
//! 4. every pair is weighed by `softIDF = ln(|Ω| / |O_i ∪ O_j|)`
//!    (Definition 8),
//! 5. `sim = setSoftIDF(≈) / (setSoftIDF(≠) + setSoftIDF(≈))`
//!    (Equation 8).
//!
//! Distances between values are memoised per *term pair* in a
//! [`DistCache`] — across hundreds of thousands of OD pairs the same
//! value pairs recur constantly (years, genres, dummy track titles), and
//! the cache turns repeated edit-distance computations into hash lookups.
//! This implements the spirit of the paper's \[18\] bound optimisation
//! together with the bounded edit-distance kernels in `dogmatix-textsim`.
//!
//! Distances that *are* computed go through a pluggable
//! [`EditDistanceKernel`] (selected per measure via [`EditKernelChoice`],
//! default bit-parallel). The scoring loop batches each left term's row:
//! memo hits resolve during a gather pass, then the kernel prepares the
//! left term's pattern state once and sweeps the remaining right terms,
//! reading norm spans and cached char lengths straight from the
//! `TermStore` SoA columns. Kernels are exact, so the kernel choice
//! never changes any score.
//!
//! Most planned pairs share no similar tuple at all, and for them
//! Equation 8 gives exactly 0. When Step 4's [`ObjectFilter`] has left
//! the set's similar-term graph ([`crate::simgraph`]) for the measure's
//! `θ_tuple` on the [`OdSet`], [`SoftIdfMeasure`]'s prepared engine looks
//! each pair up in the graph's per-object support lists first. A pair
//! outside them shares neither an identical term nor a graph edge, so
//! the engine returns 0.0 without entering the loop. This is the same
//! value the loop would compute. Engines built directly
//! ([`SimEngine::new`], [`SimEngine::over`]) and every other measure
//! score each pair in full, and no measure builds the graph itself.
//!
//! [`ObjectFilter`]: crate::filter::ObjectFilter
//!
//! The engine reads its objects through the narrow [`OdView`] trait:
//! [`OdSet`] is the batch implementation, and
//! [`ProbeOverlay`](crate::probe::ProbeOverlay) scores a probe record
//! against a pinned snapshot without re-interning it.

use crate::od::{OdSet, TermId};
use crate::simgraph::SimilarTerms;
use dogmatix_textsim::kernel::{EditDistanceKernel, KernelScratch};
use dogmatix_textsim::{bag_distance_lower_bound_with, idf, length_lower_bound, strict_cap};
use std::collections::HashMap;

pub use dogmatix_textsim::kernel::EditKernelChoice;

/// The read-only object view [`SimEngine`] scores through: exactly the
/// queries Equation 8 needs — `|Ω|`, each object's type groups and
/// tuple terms, each term's normalised value, char length and posting
/// count, and the pair union count `|O_a ∪ O_b|`.
///
/// Group indices are global (`group_range(i)` of different objects are
/// disjoint), so the merge-join addresses groups by plain integers.
/// [`OdSet`] implements the view over its columns; the probe path
/// implements it as a pinned store plus one appended record
/// ([`ProbeOverlay`](crate::probe::ProbeOverlay)).
///
/// ```
/// use dogmatix_core::od::{OdSet, RawTuple};
/// use dogmatix_core::sim::OdView;
/// let raw = vec![RawTuple {
///     value: "1999".into(),
///     path: "/r/m/y".into(),
///     rw_type: "/r/m/y".into(),
///     norm: "1999".into(),
/// }];
/// let doc = dogmatix_xml::Document::parse("<r/>")?;
/// let node = doc.root_element().unwrap();
/// let ods = OdSet::build_from_raw([(node, raw.as_slice()), (node, raw.as_slice())]);
/// let year = ods.tuple_terms(0)[0];
/// assert_eq!(OdView::object_count(&ods), 2);
/// assert_eq!(ods.posting_len(year), 2);
/// assert_eq!(ods.union_count(year, year), 2);
/// # Ok::<(), dogmatix_xml::XmlError>(())
/// ```
pub trait OdView: Sync {
    /// `|Ω|`: the object count softIDF weighs against.
    fn object_count(&self) -> usize;
    /// Number of tuples in object `i`.
    fn tuple_count(&self, i: usize) -> usize;
    /// Term id of the `local`-th tuple of object `i`.
    fn tuple_term(&self, i: usize, local: usize) -> TermId;
    /// Global group-index range of object `i`'s type groups (sorted
    /// ascending by type id).
    fn group_range(&self, i: usize) -> std::ops::Range<usize>;
    /// Type id of global group `g`.
    fn group_type(&self, g: usize) -> u32;
    /// Object-local tuple indices of global group `g`, ascending.
    fn group_tuples(&self, g: usize) -> &[u32];
    /// Normalised value of a term.
    fn norm(&self, term: TermId) -> &str;
    /// Char length of a term's normalised value.
    fn char_len(&self, term: TermId) -> usize;
    /// Number of objects holding a term (`|O_t|`).
    fn posting_len(&self, term: TermId) -> usize;
    /// `|O_a ∪ O_b|`: objects holding either term.
    fn union_count(&self, a: TermId, b: TermId) -> usize;
}

impl OdView for OdSet {
    #[inline]
    fn object_count(&self) -> usize {
        self.len()
    }

    #[inline]
    fn tuple_count(&self, i: usize) -> usize {
        self.od_range(i).len()
    }

    #[inline]
    fn tuple_term(&self, i: usize, local: usize) -> TermId {
        self.tuple_term_at(i, local)
    }

    #[inline]
    fn group_range(&self, i: usize) -> std::ops::Range<usize> {
        self.od_group_range(i)
    }

    #[inline]
    fn group_type(&self, g: usize) -> u32 {
        OdSet::group_type(self, g)
    }

    #[inline]
    fn group_tuples(&self, g: usize) -> &[u32] {
        self.group_tuple_slice(g)
    }

    #[inline]
    fn norm(&self, term: TermId) -> &str {
        self.term(term).norm()
    }

    #[inline]
    fn char_len(&self, term: TermId) -> usize {
        self.term(term).char_len()
    }

    #[inline]
    fn posting_len(&self, term: TermId) -> usize {
        self.store().posting_len(term.index())
    }

    #[inline]
    fn union_count(&self, a: TermId, b: TermId) -> usize {
        merged_count(self.term(a).postings(), self.term(b).postings())
    }
}

/// Memoised per-term-pair state plus reusable scratch buffers for the
/// allocation-free fast path. One cache may be shared across all pair
/// comparisons of a run (or one per worker thread).
///
/// Memoisation is restricted to *frequent* pairs — both terms occurring
/// in at least two objects. A term unique to one object meets any other
/// given term at most once across the entire run, so caching those pairs
/// would only balloon memory (quadratically in corpus size) without a
/// single cache hit.
///
/// ```
/// use dogmatix_core::sim::DistCache;
/// let mut cache = DistCache::new();
/// assert!(cache.is_empty());
/// cache.reset_for_plan(10_000);
/// assert!(cache.capacity() >= 16 * 1024);
/// ```
#[derive(Debug, Default)]
pub struct DistCache {
    /// Exact `odtDist` per frequent term pair.
    dist: HashMap<(TermId, TermId), f64>,
    /// Bounds-based "is the distance below θ?" verdicts per frequent pair.
    similar: HashMap<(TermId, TermId), bool>,
    /// `|O_a ∪ O_b|` per frequent pair (the softIDF denominator).
    union: HashMap<(TermId, TermId), u32>,
    // Scratch for SimEngine::sim — reused across pairs so the hot loop
    // performs no per-pair allocations.
    scratch_candidates: Vec<(f64, u32, u32)>,
    scratch_used_i: Vec<bool>,
    scratch_used_j: Vec<bool>,
    /// One left term's gathered comparison row: `(tuple_j, term_j,
    /// distance)`, distance = NaN until the kernel dispatch fills it.
    scratch_row: Vec<(u32, TermId, f64)>,
    /// Working state for the edit-distance kernels (pattern bitmasks, DP
    /// rows, bound tables) — reused across every comparison this cache
    /// serves.
    kernel_scratch: KernelScratch,
}

impl DistCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        DistCache::default()
    }

    /// Resets the cache for the next plan of `plan_len` pairs: memo
    /// tables are cleared (per-plan memoisation keeps memory bounded
    /// exactly as a fresh cache would) and grown toward the plan-derived
    /// capacity, while every scratch allocation — kernel pattern state,
    /// DP rows, batch buffers — stays warm. The probe path reuses one
    /// cache across requests through this.
    pub fn reset_for_plan(&mut self, plan_len: usize) {
        let target = cache_capacity_for_plan(plan_len);
        self.dist.clear();
        self.similar.clear();
        self.union.clear();
        self.dist
            .reserve(target.saturating_sub(self.dist.capacity()));
        self.similar
            .reserve(target.saturating_sub(self.similar.capacity()));
        self.union
            .reserve(target.saturating_sub(self.union.capacity()));
    }

    /// Number of memoised entries the maps can hold before rehashing.
    pub fn capacity(&self) -> usize {
        self.dist.capacity().min(self.similar.capacity())
    }

    /// Number of memoised distance entries (diagnostics and benches).
    pub fn len(&self) -> usize {
        self.dist.len() + self.similar.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Memoised-entry budget for a cache about to score `plan_len` pairs.
/// Only *frequent* term pairs are memoised, and their count is far below
/// the OD-pair count, so roughly two entries per planned pair is ample;
/// the clamp keeps tiny plans at the minimum table and huge corpora
/// bounded. (Over-sizing is not free: allocating multi-megabyte tables
/// costs more than the rehashes they would avoid.)
pub(crate) fn cache_capacity_for_plan(plan_len: usize) -> usize {
    plan_len.saturating_mul(2).clamp(16, 1 << 16)
}

/// Whether a term pair is worth memoising: both sides recur. Reads the
/// CSR offsets directly — two subtractions, no slice materialisation.
#[inline]
fn is_frequent<V: OdView>(ods: &V, a: TermId, b: TermId) -> bool {
    ods.posting_len(a) >= 2 && ods.posting_len(b) >= 2
}

/// Canonical (symmetric) memo key for a term pair.
#[inline]
fn ordered(a: TermId, b: TermId) -> (TermId, TermId) {
    if a < b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Exact `odtDist` through the selected kernel: norm spans and cached
/// character lengths come straight from the `TermStore` SoA columns —
/// no per-pair `chars().count()` pass, no allocation.
fn kernel_distance<V: OdView>(
    kernel: &dyn EditDistanceKernel,
    scratch: &mut KernelScratch,
    ods: &V,
    a: TermId,
    b: TermId,
) -> f64 {
    let la = ods.char_len(a);
    let lb = ods.char_len(b);
    let max_len = la.max(lb);
    if max_len == 0 {
        return 0.0;
    }
    let d = kernel
        .bounded_counted(scratch, ods.norm(a), la, ods.norm(b), lb, max_len)
        .unwrap_or(max_len); // unreachable: every distance is <= max_len
    d as f64 / max_len as f64
}

/// Bounds-then-kernel similarity verdict `odtDist < θ` — the
/// `ned_within` cascade (strict cap, length bound, bag bound, bounded
/// distance) over store columns and cache-resident scratch.
fn kernel_similar<V: OdView>(
    kernel: &dyn EditDistanceKernel,
    scratch: &mut KernelScratch,
    ods: &V,
    a: TermId,
    b: TermId,
    theta: f64,
) -> bool {
    let la = ods.char_len(a);
    let lb = ods.char_len(b);
    let max_len = la.max(lb);
    if max_len == 0 {
        return theta > 0.0;
    }
    let Some(cap) = strict_cap(theta, max_len) else {
        return false;
    };
    if length_lower_bound(la, lb) > cap {
        return false;
    }
    if bag_distance_lower_bound_with(ods.norm(a), ods.norm(b), &mut scratch.bounds) > cap {
        return false;
    }
    kernel
        .bounded_counted(scratch, ods.norm(a), la, ods.norm(b), lb, cap)
        .is_some()
}

/// Memoised exact `odtDist` (free function so the fast path can borrow
/// the cache's scratch buffers alongside the maps).
fn distance_memo<V: OdView>(
    map: &mut HashMap<(TermId, TermId), f64>,
    scratch: &mut KernelScratch,
    kernel: &dyn EditDistanceKernel,
    ods: &V,
    a: TermId,
    b: TermId,
) -> f64 {
    if a == b {
        return 0.0;
    }
    let key = if a < b { (a, b) } else { (b, a) };
    if let Some(d) = map.get(&key) {
        return *d;
    }
    let d = kernel_distance(kernel, scratch, ods, a, b);
    if is_frequent(ods, a, b) {
        map.insert(key, d);
    }
    d
}

/// Memoised bounds-based similarity verdict: `odtDist < θ`. Cheaper than
/// [`distance_memo`] when the answer is "no" (the common case), because
/// the length and bag bounds reject without running the DP.
fn similar_memo<V: OdView>(
    map: &mut HashMap<(TermId, TermId), bool>,
    scratch: &mut KernelScratch,
    kernel: &dyn EditDistanceKernel,
    ods: &V,
    a: TermId,
    b: TermId,
    theta: f64,
) -> bool {
    if a == b {
        return theta > 0.0;
    }
    let key = if a < b { (a, b) } else { (b, a) };
    if let Some(v) = map.get(&key) {
        return *v;
    }
    let v = kernel_similar(kernel, scratch, ods, a, b, theta);
    if is_frequent(ods, a, b) {
        map.insert(key, v);
    }
    v
}

/// Memoised `|O_a ∪ O_b|`.
fn union_memo<V: OdView>(
    map: &mut HashMap<(TermId, TermId), u32>,
    ods: &V,
    a: TermId,
    b: TermId,
) -> usize {
    if a == b {
        return ods.posting_len(a);
    }
    let key = if a < b { (a, b) } else { (b, a) };
    if let Some(v) = map.get(&key) {
        return *v as usize;
    }
    let v = ods.union_count(a, b);
    if is_frequent(ods, a, b) {
        map.insert(key, v as u32);
    }
    v
}

/// One similar or contradictory tuple pair with its weight.
///
/// ```
/// use dogmatix_core::sim::WeighedPair;
/// let pair = WeighedPair { tuple_i: 0, tuple_j: 1, distance: 0.0, soft_idf: 0.69 };
/// assert_eq!((pair.tuple_i, pair.tuple_j), (0, 1));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WeighedPair {
    /// Tuple index within `OD_i`.
    pub tuple_i: usize,
    /// Tuple index within `OD_j`.
    pub tuple_j: usize,
    /// `odtDist` of the pair.
    pub distance: f64,
    /// `softIDF` of the pair.
    pub soft_idf: f64,
}

/// Full breakdown of one pair comparison (used by tests, examples, and
/// the explain output). Obtained from [`SimEngine::breakdown`]; see the
/// example there.
#[derive(Debug, Clone, PartialEq)]
pub struct SimBreakdown {
    /// Similar pairs (`ODT_≈`, Equation 4 — all pairs below `θ_tuple`).
    pub similar: Vec<WeighedPair>,
    /// Contradictory pairs (`ODT_≠`, Equation 7 — a greedy max-distance
    /// matching over tuples without a similar partner).
    pub contradictory: Vec<WeighedPair>,
    /// `setSoftIDF(ODT_≈)`.
    pub soft_idf_similar: f64,
    /// `setSoftIDF(ODT_≠)`.
    pub soft_idf_contradictory: f64,
    /// The final `sim` value (Equation 8); 0 when both sets are empty.
    pub sim: f64,
}

/// The similarity engine for one OD set — or, generically, for any
/// [`OdView`] (the probe path scores through a
/// [`ProbeOverlay`](crate::probe::ProbeOverlay)). The batch path
/// monomorphises over [`OdSet`].
///
/// ```
/// use dogmatix_core::mapping::Mapping;
/// use dogmatix_core::od::OdSet;
/// use dogmatix_core::sim::{DistCache, SimEngine};
/// use dogmatix_xml::Document;
/// use std::collections::{BTreeSet, HashMap};
///
/// let doc = Document::parse(
///     "<r><m><t>Same Song</t></m><m><t>Same Song</t></m>\
///         <m><t>Other One</t></m></r>")?;
/// let candidates = doc.select("/r/m")?;
/// let mut sel = HashMap::new();
/// sel.insert("/r/m".to_string(),
///            ["/r/m/t".to_string()].into_iter().collect::<BTreeSet<_>>());
/// let ods = OdSet::build(&doc, &candidates, &sel, &Mapping::new());
/// let engine = SimEngine::new(&ods, 0.15);
/// let mut cache = DistCache::new();
/// assert_eq!(engine.sim(0, 1, &mut cache), 1.0);    // identical ODs
/// let b = engine.breakdown(0, 2, &mut cache);       // full explain form
/// assert!(b.similar.is_empty() && b.sim < 1.0);
/// # Ok::<(), dogmatix_xml::XmlError>(())
/// ```
#[derive(Debug)]
pub struct SimEngine<'a, V: OdView = OdSet> {
    ods: &'a V,
    theta_tuple: f64,
    kernel: &'static dyn EditDistanceKernel,
    /// Support lists at `theta_tuple`: pairs outside them score 0
    /// without entering the loop. `None` scores every pair in full.
    support: Option<&'a SimilarTerms>,
}

impl<'a> SimEngine<'a> {
    /// Creates an engine with the given tuple-similarity threshold
    /// (`θ_tuple`, the paper uses 0.15) and the default edit-distance
    /// kernel.
    pub fn new(ods: &'a OdSet, theta_tuple: f64) -> Self {
        SimEngine::with_kernel(ods, theta_tuple, EditKernelChoice::default())
    }

    /// Creates an engine scoring through the selected edit-distance
    /// kernel. Kernels are exact, so every choice produces bit-identical
    /// similarity values — only throughput differs.
    pub fn with_kernel(ods: &'a OdSet, theta_tuple: f64, choice: EditKernelChoice) -> Self {
        SimEngine::over(ods, theta_tuple, choice)
    }
}

impl<'a, V: OdView> SimEngine<'a, V> {
    /// Creates an engine over any [`OdView`] — e.g. a
    /// [`ProbeOverlay`](crate::probe::ProbeOverlay) — scoring through
    /// the selected edit-distance kernel.
    pub fn over(ods: &'a V, theta_tuple: f64, choice: EditKernelChoice) -> Self {
        SimEngine {
            ods,
            theta_tuple,
            kernel: choice.kernel(),
            support: None,
        }
    }

    /// The object view this engine reads.
    pub fn ods(&self) -> &V {
        self.ods
    }

    /// `sim(OD_i, OD_j)` (Equation 8).
    ///
    /// Allocation-free fast path over the pre-grouped tuples (scratch
    /// buffers live in the [`DistCache`]); agrees exactly with
    /// [`SimEngine::breakdown`]'s `sim` field.
    pub fn sim(&self, i: usize, j: usize, cache: &mut DistCache) -> f64 {
        if let Some(support) = self.support {
            if !support.supports(i, j) {
                // No identical term and no graph edge: `ODT_≈` is empty,
                // so Equation 8's numerator is 0.
                return 0.0;
            }
        }
        let ods = self.ods;
        let total = ods.object_count();
        let tuples_i = ods.tuple_count(i);
        let tuples_j = ods.tuple_count(j);

        let (s_sim, s_con) = {
            // Merge-join the type groups of both ODs (flattened group
            // columns; the loop reads only integer columns until an
            // actual distance computation is needed).
            let mut s_sim = 0.0f64;
            // Reset scratch.
            let candidates = &mut cache.scratch_candidates;
            candidates.clear();
            let used_i = &mut cache.scratch_used_i;
            let used_j = &mut cache.scratch_used_j;
            used_i.clear();
            used_i.resize(tuples_i, false);
            used_j.clear();
            used_j.resize(tuples_j, false);

            let groups_i = ods.group_range(i);
            let groups_j = ods.group_range(j);
            let (mut gi, mut gj) = (groups_i.start, groups_j.start);
            while gi < groups_i.end && gj < groups_j.end {
                let ty_i = ods.group_type(gi);
                let ty_j = ods.group_type(gj);
                match ty_i.cmp(&ty_j) {
                    std::cmp::Ordering::Less => gi += 1,
                    std::cmp::Ordering::Greater => gj += 1,
                    std::cmp::Ordering::Equal => {
                        let idx_i = ods.group_tuples(gi);
                        let idx_j = ods.group_tuples(gj);
                        if idx_i.len() == 1 && idx_j.len() == 1 {
                            // 1×1 group: the greedy matching has a single
                            // candidate, so only the verdict matters — the
                            // cheap bounds-based check suffices (no exact
                            // DP for the common "clearly different" case).
                            let (ti, tj) = (idx_i[0], idx_j[0]);
                            let term_i = ods.tuple_term(i, ti as usize);
                            let term_j = ods.tuple_term(j, tj as usize);
                            if similar_memo(
                                &mut cache.similar,
                                &mut cache.kernel_scratch,
                                self.kernel,
                                ods,
                                term_i,
                                term_j,
                                self.theta_tuple,
                            ) {
                                used_i[ti as usize] = true;
                                used_j[tj as usize] = true;
                                s_sim +=
                                    idf(total, union_memo(&mut cache.union, ods, term_i, term_j));
                            } else {
                                candidates.push((1.0, ti, tj));
                            }
                            gi += 1;
                            gj += 1;
                            continue;
                        }
                        // Multi-tuple group: the greedy matching orders by
                        // exact distance. Each left tuple's comparison row
                        // is batched — gather memo hits, prepare the left
                        // term's pattern state once, sweep the misses
                        // through the kernel, then accumulate in the
                        // original right-tuple order (so the float
                        // accumulation order, and hence the score, is
                        // independent of the batching).
                        for &ti in idx_i {
                            let term_i = ods.tuple_term(i, ti as usize);
                            let row = &mut cache.scratch_row;
                            row.clear();
                            let mut misses = 0usize;
                            for &tj in idx_j {
                                let term_j = ods.tuple_term(j, tj as usize);
                                let d = if term_i == term_j {
                                    0.0
                                } else {
                                    let key = ordered(term_i, term_j);
                                    match cache.dist.get(&key) {
                                        Some(d) => *d,
                                        None => {
                                            misses += 1;
                                            f64::NAN
                                        }
                                    }
                                };
                                row.push((tj, term_j, d));
                            }
                            if misses > 0 {
                                let la = ods.char_len(term_i);
                                self.kernel.prepare(
                                    &mut cache.kernel_scratch,
                                    ods.norm(term_i),
                                    la,
                                );
                                for entry in row.iter_mut() {
                                    if !entry.2.is_nan() {
                                        continue;
                                    }
                                    let lb = ods.char_len(entry.1);
                                    let max_len = la.max(lb);
                                    let d = if max_len == 0 {
                                        0.0
                                    } else {
                                        let edits = self
                                            .kernel
                                            .bounded_prepared(
                                                &mut cache.kernel_scratch,
                                                ods.norm(entry.1),
                                                lb,
                                                max_len,
                                            )
                                            // unreachable: distance <= max_len
                                            .unwrap_or(max_len);
                                        edits as f64 / max_len as f64
                                    };
                                    entry.2 = d;
                                    if is_frequent(ods, term_i, entry.1) {
                                        cache.dist.insert(ordered(term_i, entry.1), d);
                                    }
                                }
                            }
                            for k in 0..cache.scratch_row.len() {
                                let (tj, term_j, d) = cache.scratch_row[k];
                                if d < self.theta_tuple {
                                    used_i[ti as usize] = true;
                                    used_j[tj as usize] = true;
                                    s_sim += idf(
                                        total,
                                        union_memo(&mut cache.union, ods, term_i, term_j),
                                    );
                                } else {
                                    candidates.push((d, ti, tj));
                                }
                            }
                        }
                        gi += 1;
                        gj += 1;
                    }
                }
            }

            // Greedy max-distance contradiction matching over tuples
            // without a similar partner.
            candidates.retain(|(_, ti, tj)| !used_i[*ti as usize] && !used_j[*tj as usize]);
            candidates.sort_by(|a, b| {
                b.0.partial_cmp(&a.0)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| (a.1, a.2).cmp(&(b.1, b.2)))
            });
            let mut s_con = 0.0f64;
            for &(_, ti, tj) in candidates.iter() {
                if used_i[ti as usize] || used_j[tj as usize] {
                    continue;
                }
                used_i[ti as usize] = true;
                used_j[tj as usize] = true;
                s_con += idf(
                    total,
                    union_memo(
                        &mut cache.union,
                        ods,
                        ods.tuple_term(i, ti as usize),
                        ods.tuple_term(j, tj as usize),
                    ),
                );
            }
            (s_sim, s_con)
        };

        let denom = s_sim + s_con;
        if denom > 0.0 {
            s_sim / denom
        } else {
            0.0
        }
    }

    /// Full comparison breakdown for a pair.
    pub fn breakdown(&self, i: usize, j: usize, cache: &mut DistCache) -> SimBreakdown {
        let ods = self.ods;
        let tuples_i = ods.tuple_count(i);
        let tuples_j = ods.tuple_count(j);
        let total = ods.object_count();

        // Group tuple indices by interned real-world type on side j
        // (type ids intern 1:1 with names, so comparability is an
        // integer key now), and recover each side-i tuple's type.
        let mut by_type_j: HashMap<u32, &[u32]> = HashMap::new();
        for g in ods.group_range(j) {
            by_type_j.insert(ods.group_type(g), ods.group_tuples(g));
        }
        let mut type_i = vec![0u32; tuples_i];
        for g in ods.group_range(i) {
            for &ti in ods.group_tuples(g) {
                type_i[ti as usize] = ods.group_type(g);
            }
        }

        let mut similar: Vec<WeighedPair> = Vec::new();
        // Candidate contradictory pairs: comparable, not similar.
        let mut candidates: Vec<(usize, usize, f64)> = Vec::new();
        let mut in_similar_i: Vec<bool> = vec![false; tuples_i];
        let mut in_similar_j: Vec<bool> = vec![false; tuples_j];

        for (ti, ty) in type_i.iter().enumerate() {
            let Some(partners) = by_type_j.get(ty) else {
                continue; // no comparable data on the other side
            };
            let term_i = ods.tuple_term(i, ti);
            for &tj in partners.iter() {
                let tj = tj as usize;
                let term_j = ods.tuple_term(j, tj);
                let d = distance_memo(
                    &mut cache.dist,
                    &mut cache.kernel_scratch,
                    self.kernel,
                    ods,
                    term_i,
                    term_j,
                );
                if d < self.theta_tuple {
                    in_similar_i[ti] = true;
                    in_similar_j[tj] = true;
                    similar.push(WeighedPair {
                        tuple_i: ti,
                        tuple_j: tj,
                        distance: d,
                        soft_idf: self.pair_soft_idf(term_i, term_j, total),
                    });
                } else {
                    candidates.push((ti, tj, d));
                }
            }
        }

        // Greedy max-distance matching over tuples without a similar
        // partner (the paper's city example: Boston pairs with New York,
        // 7/8 > 8/11, and the leftover city is non-specified).
        candidates.retain(|(ti, tj, _)| !in_similar_i[*ti] && !in_similar_j[*tj]);
        candidates.sort_by(|a, b| {
            b.2.partial_cmp(&a.2)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| (a.0, a.1).cmp(&(b.0, b.1)))
        });
        let mut used_i = vec![false; tuples_i];
        let mut used_j = vec![false; tuples_j];
        let mut contradictory: Vec<WeighedPair> = Vec::new();
        for (ti, tj, d) in candidates {
            if used_i[ti] || used_j[tj] {
                continue;
            }
            used_i[ti] = true;
            used_j[tj] = true;
            contradictory.push(WeighedPair {
                tuple_i: ti,
                tuple_j: tj,
                distance: d,
                soft_idf: self.pair_soft_idf(ods.tuple_term(i, ti), ods.tuple_term(j, tj), total),
            });
        }

        let s_sim: f64 = similar.iter().map(|p| p.soft_idf).sum();
        let s_con: f64 = contradictory.iter().map(|p| p.soft_idf).sum();
        let denom = s_sim + s_con;
        let sim = if denom > 0.0 { s_sim / denom } else { 0.0 };
        SimBreakdown {
            similar,
            contradictory,
            soft_idf_similar: s_sim,
            soft_idf_contradictory: s_con,
            sim,
        }
    }

    /// `softIDF((odt_i, odt_j)) = ln(|Ω| / |O_i ∪ O_j|)` (Definition 8).
    fn pair_soft_idf(&self, a: TermId, b: TermId, total: usize) -> f64 {
        let union = if a == b {
            self.ods.posting_len(a)
        } else {
            self.ods.union_count(a, b)
        };
        idf(total, union)
    }
}

/// The paper's softIDF similarity (Equation 8) as a
/// [`SimilarityMeasure`](crate::stage::SimilarityMeasure) stage — the
/// canonical DogmatiX measure, preparing a [`SimEngine`] per run over
/// whatever columnar store the configured
/// [`TermIndexBackend`](crate::backend::TermIndexBackend) supplied.
///
/// If the set already holds the similar-term graph at this measure's
/// `θ_tuple` ([`OdSet::cached_similar_terms`], left there by the object
/// filter), the prepared engine answers 0.0 for the pairs outside its
/// support lists without scoring them. Otherwise it scores every pair.
/// The results are the same either way.
///
/// ```
/// use dogmatix_core::pipeline::Dogmatix;
/// use dogmatix_core::sim::SoftIdfMeasure;
/// let dx = Dogmatix::builder()
///     .add_type("M", ["/db/m"])
///     .measure(SoftIdfMeasure::new(0.15))
///     .build();
/// # let _ = dx;
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SoftIdfMeasure {
    /// Tuple-similarity threshold `θ_tuple` (paper: 0.15).
    pub theta_tuple: f64,
    /// Edit-distance kernel the prepared engine scores through. Kernels
    /// are exact, so this never changes detection output.
    pub kernel: EditKernelChoice,
}

impl SoftIdfMeasure {
    /// Creates the measure with the given `θ_tuple` and the default
    /// (bit-parallel) kernel. Debug builds assert the threshold is a
    /// similarity in `[0, 1]`.
    pub fn new(theta_tuple: f64) -> Self {
        debug_assert!(
            (0.0..=1.0).contains(&theta_tuple),
            "θ_tuple must be a similarity in [0, 1], got {theta_tuple}"
        );
        SoftIdfMeasure {
            theta_tuple,
            kernel: EditKernelChoice::default(),
        }
    }

    /// Creates the measure with an explicit edit-distance kernel.
    pub fn with_kernel(theta_tuple: f64, kernel: EditKernelChoice) -> Self {
        let mut measure = SoftIdfMeasure::new(theta_tuple);
        measure.kernel = kernel;
        measure
    }

    /// Config-derived construction: the pipeline validates thresholds
    /// itself and reports a graceful `Config` error, so the debug
    /// audit must not fire first.
    pub(crate) fn new_unchecked(theta_tuple: f64) -> Self {
        SoftIdfMeasure {
            theta_tuple,
            kernel: EditKernelChoice::default(),
        }
    }
}

impl crate::stage::SimilarityMeasure for SoftIdfMeasure {
    fn prepare<'a>(
        &self,
        ctx: crate::stage::SimContext<'a>,
    ) -> Box<dyn crate::stage::PreparedMeasure + 'a> {
        let mut engine = SimEngine::with_kernel(ctx.ods, self.theta_tuple, self.kernel);
        // Skip the provably-zero pairs when Step 4 left the graph for
        // this threshold on the set; never build it here.
        engine.support = ctx.ods.cached_similar_terms(self.theta_tuple);
        Box::new(engine)
    }

    /// The same engine over the probe overlay: softIDF reads only the
    /// [`OdView`] queries, so the overlay's answers carry over exactly.
    fn prepare_probe<'v>(
        &self,
        view: &'v crate::probe::ProbeOverlay<'_>,
    ) -> Option<Box<dyn crate::stage::PreparedMeasure + 'v>> {
        Some(Box::new(SimEngine::over(
            view,
            self.theta_tuple,
            self.kernel,
        )))
    }
}

impl<V: OdView> crate::stage::PreparedMeasure for SimEngine<'_, V> {
    fn sim(&self, i: usize, j: usize, cache: &mut DistCache) -> f64 {
        SimEngine::sim(self, i, j, cache)
    }
}

/// Size of the union of two sorted posting lists.
pub(crate) fn merged_count(a: &[u32], b: &[u32]) -> usize {
    let mut i = 0;
    let mut j = 0;
    let mut count = 0;
    while i < a.len() && j < b.len() {
        count += 1;
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
    }
    count + (a.len() - i) + (b.len() - j)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::Mapping;
    use crate::od::OdSet;
    use dogmatix_xml::Document;
    use std::collections::{BTreeSet, HashMap};

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "similarity in [0, 1]")]
    fn soft_idf_rejects_out_of_range_theta_in_debug() {
        let _ = SoftIdfMeasure::new(1.01);
    }

    fn build_odset(xml: &str, candidate: &str, selected: &[&str]) -> OdSet {
        let doc = Document::parse(xml).unwrap();
        let candidates = doc.select(candidate).unwrap();
        let mut sel = HashMap::new();
        sel.insert(
            candidate.trim_start_matches("$doc").to_string(),
            selected
                .iter()
                .map(|s| s.to_string())
                .collect::<BTreeSet<_>>(),
        );
        OdSet::build(&doc, &candidates, &sel, &Mapping::new())
    }

    fn movie_odset() -> OdSet {
        build_odset(
            "<moviedoc>\
               <movie><title>The Matrix</title><year>1999</year>\
                 <actor><name>Keanu Reeves</name></actor>\
                 <actor><name>L. Fishburne</name></actor></movie>\
               <movie><title>Matrix</title><year>1999</year>\
                 <actor><name>Keanu Reeves</name></actor></movie>\
               <movie><title>Signs</title><year>2002</year>\
                 <actor><name>Mel Gibson</name></actor></movie>\
             </moviedoc>",
            "/moviedoc/movie",
            &[
                "/moviedoc/movie/title",
                "/moviedoc/movie/year",
                "/moviedoc/movie/actor/name",
            ],
        )
    }

    #[test]
    fn paper_example_matrix_movies_are_similar() {
        let ods = movie_odset();
        let engine = SimEngine::new(&ods, 0.45); // admit "Matrix"~"The Matrix" (ned 0.4)
        let mut cache = DistCache::new();
        let b01 = engine.breakdown(0, 1, &mut cache);
        // Shared: year 1999, Keanu Reeves, and the similar titles.
        assert_eq!(b01.similar.len(), 3);
        assert!(b01.sim > 0.9, "sim={}", b01.sim);

        let b02 = engine.breakdown(0, 2, &mut cache);
        assert!(
            b02.sim < 0.3,
            "Matrix vs Signs should contradict, sim={}",
            b02.sim
        );
        assert!(b02.similar.is_empty());
        assert!(!b02.contradictory.is_empty());
    }

    #[test]
    fn sim_is_symmetric() {
        let ods = movie_odset();
        let engine = SimEngine::new(&ods, 0.45);
        let mut cache = DistCache::new();
        for i in 0..3 {
            for j in 0..3 {
                if i == j {
                    continue;
                }
                let a = engine.sim(i, j, &mut cache);
                let b = engine.sim(j, i, &mut cache);
                assert!(
                    (a - b).abs() < 1e-12,
                    "sim({i},{j})={a} != sim({j},{i})={b}"
                );
            }
        }
    }

    #[test]
    fn missing_data_does_not_penalise() {
        // OD1 has two actors, OD2 only one (missing). The extra actor has
        // no partner → non-specified → no penalty.
        // Padding objects keep |Ω| above the posting unions so softIDF
        // weights stay positive (with only two objects every shared term
        // has idf ln(2/2) = 0 and sim degenerates to 0/0).
        let ods = build_odset(
            "<r><m><t>X</t><a>Alice</a><a>Bob</a></m>\
                <m><t>X</t><a>Alice</a></m>\
                <m><t>Pad One</t><a>Carol</a></m>\
                <m><t>Pad Two</t><a>Dave</a></m></r>",
            "/r/m",
            &["/r/m/t", "/r/m/a"],
        );
        let engine = SimEngine::new(&ods, 0.15);
        let mut cache = DistCache::new();
        let b = engine.breakdown(0, 1, &mut cache);
        // Bob is unpaired: only one a on the other side, and it is
        // already in a similar pair with Alice.
        assert!(b.contradictory.is_empty(), "{:?}", b.contradictory);
        assert_eq!(b.sim, 1.0);
    }

    #[test]
    fn contradictory_data_reduces_similarity() {
        let ods = build_odset(
            "<r><m><t>Same Title</t><a>Alice</a></m>\
                <m><t>Same Title</t><a>Zebra</a></m>\
                <m><t>Pad One</t><a>Carol</a></m>\
                <m><t>Pad Two</t><a>Dave</a></m></r>",
            "/r/m",
            &["/r/m/t", "/r/m/a"],
        );
        let engine = SimEngine::new(&ods, 0.15);
        let mut cache = DistCache::new();
        let b = engine.breakdown(0, 1, &mut cache);
        assert_eq!(b.similar.len(), 1);
        assert_eq!(b.contradictory.len(), 1);
        assert!(b.sim < 1.0 && b.sim > 0.0);
    }

    #[test]
    fn city_example_greedy_max_distance_matching() {
        // Section 5.1: countries (New York, Los Angeles, Miami) vs
        // (Miami, Boston): one similar pair (Miami), ONE contradictory
        // pair — Boston matches New York (7/8 > 8/11) — and the leftover
        // Los Angeles is non-specified.
        let ods = build_odset(
            "<r><c><city>New York</city><city>Los Angeles</city><city>Miami</city></c>\
                <c><city>Miami</city><city>Boston</city></c></r>",
            "/r/c",
            &["/r/c/city"],
        );
        let engine = SimEngine::new(&ods, 0.15);
        let mut cache = DistCache::new();
        let b = engine.breakdown(0, 1, &mut cache);
        assert_eq!(b.similar.len(), 1);
        assert_eq!(b.contradictory.len(), 1, "exactly one contradictory pair");
        let pair = &b.contradictory[0];
        let odi_value = ods.od(0).tuple(pair.tuple_i).value();
        assert_eq!(odi_value, "New York", "greedy picks the highest distance");
        assert!((pair.distance - 7.0 / 8.0).abs() < 1e-9);
    }

    #[test]
    fn incomparable_types_are_ignored() {
        // review vs sold-number: different types, never compared
        // (Section 5 requirement 1).
        let doc = Document::parse(
            "<r><m><title>The Matrix</title><review>great!</review></m>\
                <m><title>Matrix</title><sold>500</sold></m>\
                <m><title>Pad One</title></m>\
                <m><title>Pad Two</title></m></r>",
        )
        .unwrap();
        let candidates = doc.select("/r/m").unwrap();
        let mut sel = HashMap::new();
        sel.insert(
            "/r/m".to_string(),
            ["/r/m/title", "/r/m/review", "/r/m/sold"]
                .iter()
                .map(|s| s.to_string())
                .collect::<BTreeSet<_>>(),
        );
        let ods = OdSet::build(&doc, &candidates, &sel, &Mapping::new());
        let engine = SimEngine::new(&ods, 0.45);
        let mut cache = DistCache::new();
        let b = engine.breakdown(0, 1, &mut cache);
        // Only the titles are compared; review/sold have no partner type.
        assert_eq!(b.similar.len(), 1);
        assert!(b.contradictory.is_empty());
        assert_eq!(b.sim, 1.0);
    }

    #[test]
    fn soft_idf_weights_rare_matches_higher() {
        // Two pairs match on a ubiquitous year vs a unique title: the
        // unique-title pair must end up more similar when contradicted by
        // the same amount.
        let ods = build_odset(
            "<r>\
               <m><y>1999</y><t>Unique Alpha</t></m>\
               <m><y>1999</y><t>Totally Different</t></m>\
               <m><y>1999</y><t>Unique Beta</t></m>\
               <m><y>1999</y><t>Unique Beta</t></m>\
             </r>",
            "/r/m",
            &["/r/m/y", "/r/m/t"],
        );
        let engine = SimEngine::new(&ods, 0.15);
        let mut cache = DistCache::new();
        // Pair (0,1): similar on year (in all 4 ODs → idf 0), contradictory
        // on titles (rare → heavy) → low sim.
        let low = engine.sim(0, 1, &mut cache);
        // Pair (2,3): similar on year AND the rare title → sim 1.
        let high = engine.sim(2, 3, &mut cache);
        assert!(high > low, "high={high} low={low}");
        assert_eq!(high, 1.0);
        assert!(low < 0.1, "low={low}");
    }

    #[test]
    fn empty_ods_have_zero_sim() {
        let ods = build_odset("<r><m><t>A</t></m><m><t>B</t></m></r>", "/r/m", &[]);
        let engine = SimEngine::new(&ods, 0.15);
        let mut cache = DistCache::new();
        assert_eq!(engine.sim(0, 1, &mut cache), 0.0);
    }

    #[test]
    fn cache_memoises_frequent_pairs_only() {
        // Two frequent year terms (each in two ODs) and unique titles:
        // the (1999, 2002) comparison is memoised, the title pairs are
        // not (they can never recur).
        let ods = build_odset(
            "<r><m><y>1999</y><t>Alpha One</t></m>\
                <m><y>1999</y><t>Beta Two</t></m>\
                <m><y>2002</y><t>Gamma Three</t></m>\
                <m><y>2002</y><t>Delta Four</t></m></r>",
            "/r/m",
            &["/r/m/y", "/r/m/t"],
        );
        let engine = SimEngine::new(&ods, 0.15);
        let mut cache = DistCache::new();
        engine.sim(0, 2, &mut cache);
        let size_after_first = cache.len();
        assert_eq!(size_after_first, 1, "only the year pair is frequent");
        engine.sim(1, 3, &mut cache);
        assert_eq!(cache.len(), size_after_first, "second run hits the cache");
    }

    #[test]
    fn fast_path_agrees_with_breakdown() {
        let ods = movie_odset();
        for theta in [0.15, 0.45, 0.8] {
            let engine = SimEngine::new(&ods, theta);
            let mut cache = DistCache::new();
            for i in 0..ods.len() {
                for j in 0..ods.len() {
                    if i == j {
                        continue;
                    }
                    let fast = engine.sim(i, j, &mut cache);
                    let slow = engine.breakdown(i, j, &mut cache).sim;
                    assert!(
                        (fast - slow).abs() < 1e-12,
                        "sim({i},{j})@{theta}: fast={fast} breakdown={slow}"
                    );
                }
            }
        }
    }

    #[test]
    fn kernel_choice_is_bit_identical() {
        // Exact equality, not approximate: kernels return the same
        // integer distances, so every float downstream is identical.
        let ods = movie_odset();
        for theta in [0.15, 0.45, 0.8] {
            let scalar = SimEngine::with_kernel(&ods, theta, EditKernelChoice::Scalar);
            let bitpar = SimEngine::with_kernel(&ods, theta, EditKernelChoice::BitParallel);
            let mut ca = DistCache::new();
            let mut cb = DistCache::new();
            for i in 0..ods.len() {
                for j in 0..ods.len() {
                    if i == j {
                        continue;
                    }
                    assert_eq!(
                        scalar.sim(i, j, &mut ca),
                        bitpar.sim(i, j, &mut cb),
                        "sim({i},{j})@{theta}"
                    );
                    assert_eq!(
                        scalar.breakdown(i, j, &mut ca),
                        bitpar.breakdown(i, j, &mut cb),
                        "breakdown({i},{j})@{theta}"
                    );
                }
            }
        }
    }

    #[test]
    fn reset_for_plan_clears_memo_but_keeps_results_identical() {
        // Both year terms occur in two ODs, so the (1999, 2002) pair is
        // frequent and lands in the memo tables.
        let ods = build_odset(
            "<r><m><y>1999</y><t>Alpha One</t></m>\
                <m><y>1999</y><t>Beta Two</t></m>\
                <m><y>2002</y><t>Gamma Three</t></m>\
                <m><y>2002</y><t>Delta Four</t></m></r>",
            "/r/m",
            &["/r/m/y", "/r/m/t"],
        );
        let engine = SimEngine::new(&ods, 0.45);
        let mut fresh = DistCache::new();
        let mut reused = DistCache::new();
        reused.reset_for_plan(64);
        engine.sim(0, 2, &mut reused);
        assert!(!reused.is_empty());
        reused.reset_for_plan(8);
        assert!(reused.is_empty(), "reset clears the memo tables");
        assert!(reused.capacity() >= 16);
        for i in 0..ods.len() {
            for j in (i + 1)..ods.len() {
                assert_eq!(
                    engine.sim(i, j, &mut fresh),
                    engine.sim(i, j, &mut reused),
                    "a reset cache must behave like a fresh one"
                );
            }
        }
    }

    #[test]
    fn plan_sized_cache_scales_with_the_plan_not_the_pool() {
        // A 1-pair plan gets the minimum table, not a share of some
        // larger estimate.
        assert_eq!(cache_capacity_for_plan(0), 16);
        assert_eq!(cache_capacity_for_plan(1), 16);
        let mut one_pair = DistCache::new();
        one_pair.reset_for_plan(1);
        assert!(
            one_pair.capacity() <= 64,
            "a 1-pair plan must not pre-allocate a large table, got {}",
            one_pair.capacity()
        );
        let mut large = DistCache::new();
        large.reset_for_plan(10_000);
        assert!(large.capacity() >= 16 * 1024);
        assert_eq!(cache_capacity_for_plan(usize::MAX), 1 << 16);
    }

    #[test]
    fn soft_idf_measure_stage_matches_engine() {
        use crate::stage::SimilarityMeasure;
        let ods = movie_odset();
        let doc = Document::parse("<x/>").unwrap();
        let measure = SoftIdfMeasure::new(0.45);
        let prepared = measure.prepare(crate::stage::SimContext {
            doc: &doc,
            candidates: &[],
            ods: &ods,
        });
        let engine = SimEngine::new(&ods, 0.45);
        let mut a = DistCache::new();
        let mut b = DistCache::new();
        for i in 0..ods.len() {
            for j in 0..ods.len() {
                if i == j {
                    continue;
                }
                assert_eq!(prepared.sim(i, j, &mut a), engine.sim(i, j, &mut b));
            }
        }
    }

    #[test]
    fn merged_count_unions() {
        assert_eq!(merged_count(&[1, 2, 3], &[2, 3, 4]), 4);
        assert_eq!(merged_count(&[], &[1]), 1);
        assert_eq!(merged_count(&[], &[]), 0);
        assert_eq!(merged_count(&[5], &[5]), 1);
        assert_eq!(merged_count(&[1, 3, 5], &[2, 4, 6]), 6);
    }
}
