//! Baseline similarity measures for the ablation experiments.
//!
//! The paper motivates its measure against simpler alternatives; we
//! implement three to quantify each design decision:
//!
//! * [`overlap_fraction`] — the paper's own *Example 3* classifier: two
//!   candidates are duplicates if at least half of the OD tuples of each
//!   match tuples of the other (exact value matching, no IDF, no
//!   contradiction handling),
//! * [`delphi_containment`] — a DELPHI-style *asymmetric* containment
//!   measure (Related Work §7.2): how much of `OD_i` is contained in
//!   `OD_j`; "the difference of the two elements is not reflected in the
//!   result", which is exactly the weakness the paper's symmetric measure
//!   fixes,
//! * [`unweighted_sim`] — the paper's measure without softIDF (every pair
//!   weighs 1), isolating the contribution of relevance weighting.
//!
//! Every measure here (and the tree-edit-distance alternative) also
//! implements the [`SimilarityMeasure`] stage trait, so ablations run
//! through the *identical* pipeline as DogmatiX — swap the measure with
//! [`crate::pipeline::DogmatixBuilder::measure`] and nothing else
//! changes.

use crate::od::OdSet;
use crate::sim::{DistCache, SimEngine};
use crate::stage::{PreparedMeasure, SimContext, SimilarityMeasure};
use dogmatix_textsim::{ned, word_tokens};
use dogmatix_xml::{Document, NodeId};
use std::collections::HashMap;

/// Example 3 of the paper: the fraction of `OD_i` tuples with an exactly
/// matching (same type, same normalised value) tuple in `OD_j`, and vice
/// versa; the pair is a duplicate when both fractions reach 1/2. Returns
/// the smaller fraction so it can be thresholded like a similarity.
pub fn overlap_fraction(ods: &OdSet, i: usize, j: usize) -> f64 {
    let frac = |from: usize, to: usize| -> f64 {
        let a = ods.tuple_terms(from);
        let b = ods.tuple_terms(to);
        if a.is_empty() {
            return 0.0;
        }
        let b_terms: std::collections::HashSet<_> = b.iter().copied().collect();
        let matched = a.iter().filter(|t| b_terms.contains(t)).count();
        matched as f64 / a.len() as f64
    };
    frac(i, j).min(frac(j, i))
}

/// DELPHI-style asymmetric containment: the IDF-weighted share of `OD_i`'s
/// tuples that find a ned-similar partner in `OD_j`. Note the asymmetry:
/// `delphi_containment(ods, i, j, …) != delphi_containment(ods, j, i, …)`
/// in general.
pub fn delphi_containment(
    ods: &OdSet,
    i: usize,
    j: usize,
    theta_tuple: f64,
    cache: &mut DistCache,
) -> f64 {
    let od_i = ods.od(i);
    let od_j = ods.od(j);
    if od_i.is_empty() {
        return 0.0;
    }
    let mut by_type: HashMap<u32, Vec<usize>> = HashMap::new();
    for (tj, t) in od_j.tuples().enumerate() {
        by_type.entry(t.type_id()).or_default().push(tj);
    }
    let mut contained = 0.0;
    let mut weight_sum = 0.0;
    for t_i in od_i.tuples() {
        let w = ods.term(t_i.term()).idf();
        weight_sum += w;
        let Some(partners) = by_type.get(&t_i.type_id()) else {
            continue;
        };
        let found = partners
            .iter()
            .any(|tj| cache_distance(ods, cache, t_i.term(), od_j.tuple(*tj).term()) < theta_tuple);
        if found {
            contained += w;
        }
    }
    if weight_sum > 0.0 {
        contained / weight_sum
    } else {
        0.0
    }
}

/// The paper's measure with softIDF replaced by a constant weight of 1:
/// `|ODT_≈| / (|ODT_≠| + |ODT_≈|)` over the same similar/contradictory
/// pair construction.
pub fn unweighted_sim(
    ods: &OdSet,
    i: usize,
    j: usize,
    theta_tuple: f64,
    cache: &mut DistCache,
) -> f64 {
    let engine = crate::sim::SimEngine::new(ods, theta_tuple);
    let b = engine.breakdown(i, j, cache);
    let s = b.similar.len() as f64;
    let c = b.contradictory.len() as f64;
    if s + c > 0.0 {
        s / (s + c)
    } else {
        0.0
    }
}

/// TF-IDF cosine similarity over the word tokens of all OD values — the
/// vector-space strategy of Carvalho & da Silva \[4\] (Related Work
/// §7.2, "four different strategies to define the similarity function
/// using the vector space model"). Structure and real-world types are
/// ignored: every OD flattens to one bag of words.
#[derive(Debug)]
pub struct VectorSpaceModel {
    /// token → document frequency.
    df: HashMap<String, usize>,
    /// Per OD: token → tf.
    vectors: Vec<HashMap<String, f64>>,
    total: usize,
}

impl VectorSpaceModel {
    /// Builds tf vectors and document frequencies from an OD set.
    pub fn new(ods: &OdSet) -> Self {
        let total = ods.len();
        let mut df: HashMap<String, usize> = HashMap::new();
        let mut vectors = Vec::with_capacity(total);
        for od in ods.iter() {
            let mut tf: HashMap<String, f64> = HashMap::new();
            for t in od.tuples() {
                for token in word_tokens(t.value()) {
                    *tf.entry(token).or_insert(0.0) += 1.0;
                }
            }
            for token in tf.keys() {
                *df.entry(token.clone()).or_insert(0) += 1;
            }
            vectors.push(tf);
        }
        VectorSpaceModel { df, vectors, total }
    }

    fn weight(&self, token: &str, tf: f64) -> f64 {
        let df = self.df.get(token).copied().unwrap_or(0);
        tf * dogmatix_textsim::idf(self.total, df)
    }

    /// Cosine of the tf-idf vectors of ODs `i` and `j`, in `[0, 1]`.
    pub fn sim(&self, i: usize, j: usize) -> f64 {
        let (a, b) = (&self.vectors[i], &self.vectors[j]);
        let mut dot = 0.0;
        for (token, tf_a) in a {
            if let Some(tf_b) = b.get(token) {
                dot += self.weight(token, *tf_a) * self.weight(token, *tf_b);
            }
        }
        if dot == 0.0 {
            return 0.0;
        }
        let norm = |v: &HashMap<String, f64>| -> f64 {
            v.iter()
                .map(|(t, tf)| self.weight(t, *tf).powi(2))
                .sum::<f64>()
                .sqrt()
        };
        let denom = norm(a) * norm(b);
        if denom > 0.0 {
            dot / denom
        } else {
            0.0
        }
    }
}

/// The Example 3 overlap fraction as a pipeline stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OverlapMeasure;

struct PreparedOverlap<'a> {
    ods: &'a OdSet,
}

impl PreparedMeasure for PreparedOverlap<'_> {
    fn sim(&self, i: usize, j: usize, _cache: &mut DistCache) -> f64 {
        overlap_fraction(self.ods, i, j)
    }
}

impl SimilarityMeasure for OverlapMeasure {
    fn prepare<'a>(&self, ctx: SimContext<'a>) -> Box<dyn PreparedMeasure + 'a> {
        Box::new(PreparedOverlap { ods: ctx.ods })
    }
}

/// The paper's measure without softIDF weighting as a pipeline stage
/// (see [`unweighted_sim`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnweightedMeasure {
    /// Tuple-similarity threshold `θ_tuple`.
    pub theta_tuple: f64,
}

impl UnweightedMeasure {
    /// Creates the measure with the given `θ_tuple`. Debug builds
    /// assert the threshold is a similarity in `[0, 1]`.
    pub fn new(theta_tuple: f64) -> Self {
        debug_assert!(
            (0.0..=1.0).contains(&theta_tuple),
            "θ_tuple must be a similarity in [0, 1], got {theta_tuple}"
        );
        UnweightedMeasure { theta_tuple }
    }
}

struct PreparedUnweighted<'a> {
    engine: SimEngine<'a>,
}

impl PreparedMeasure for PreparedUnweighted<'_> {
    fn sim(&self, i: usize, j: usize, cache: &mut DistCache) -> f64 {
        let b = self.engine.breakdown(i, j, cache);
        let s = b.similar.len() as f64;
        let c = b.contradictory.len() as f64;
        if s + c > 0.0 {
            s / (s + c)
        } else {
            0.0
        }
    }
}

impl SimilarityMeasure for UnweightedMeasure {
    fn prepare<'a>(&self, ctx: SimContext<'a>) -> Box<dyn PreparedMeasure + 'a> {
        Box::new(PreparedUnweighted {
            engine: SimEngine::new(ctx.ods, self.theta_tuple),
        })
    }
}

/// DELPHI-style containment as a pipeline stage, symmetrised with `max`
/// over both directions so it can be thresholded like the other
/// measures (a classifier on `max(containment)` is exactly the §7.2
/// behaviour the paper critiques — the small OD's perfect containment
/// wins no matter how much the large OD differs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelphiMeasure {
    /// Tuple-similarity threshold `θ_tuple`.
    pub theta_tuple: f64,
}

impl DelphiMeasure {
    /// Creates the measure with the given `θ_tuple`. Debug builds
    /// assert the threshold is a similarity in `[0, 1]`.
    pub fn new(theta_tuple: f64) -> Self {
        debug_assert!(
            (0.0..=1.0).contains(&theta_tuple),
            "θ_tuple must be a similarity in [0, 1], got {theta_tuple}"
        );
        DelphiMeasure { theta_tuple }
    }
}

struct PreparedDelphi<'a> {
    ods: &'a OdSet,
    theta_tuple: f64,
}

impl PreparedMeasure for PreparedDelphi<'_> {
    fn sim(&self, i: usize, j: usize, cache: &mut DistCache) -> f64 {
        delphi_containment(self.ods, i, j, self.theta_tuple, cache).max(delphi_containment(
            self.ods,
            j,
            i,
            self.theta_tuple,
            cache,
        ))
    }
}

impl SimilarityMeasure for DelphiMeasure {
    fn prepare<'a>(&self, ctx: SimContext<'a>) -> Box<dyn PreparedMeasure + 'a> {
        Box::new(PreparedDelphi {
            ods: ctx.ods,
            theta_tuple: self.theta_tuple,
        })
    }
}

/// TF-IDF cosine over flattened token bags as a pipeline stage; the
/// [`VectorSpaceModel`] vectors are built once per run in `prepare`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VectorSpaceMeasure;

impl PreparedMeasure for VectorSpaceModel {
    fn sim(&self, i: usize, j: usize, _cache: &mut DistCache) -> f64 {
        VectorSpaceModel::sim(self, i, j)
    }
}

impl SimilarityMeasure for VectorSpaceMeasure {
    fn prepare<'a>(&self, ctx: SimContext<'a>) -> Box<dyn PreparedMeasure + 'a> {
        Box::new(VectorSpaceModel::new(ctx.ods))
    }
}

/// Normalised Zhang–Shasha tree similarity on the candidate subtrees
/// \[6\] as a pipeline stage — the structural alternative of the
/// paper's Related Work. Ignores the object descriptions entirely and
/// compares the XML subtrees themselves.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TreeEditMeasure;

struct PreparedTreeEdit<'a> {
    doc: &'a Document,
    candidates: &'a [NodeId],
}

impl PreparedMeasure for PreparedTreeEdit<'_> {
    fn sim(&self, i: usize, j: usize, _cache: &mut DistCache) -> f64 {
        dogmatix_xml::treedist::tree_similarity(
            self.doc,
            self.candidates[i],
            self.doc,
            self.candidates[j],
        )
    }
}

impl SimilarityMeasure for TreeEditMeasure {
    fn prepare<'a>(&self, ctx: SimContext<'a>) -> Box<dyn PreparedMeasure + 'a> {
        Box::new(PreparedTreeEdit {
            doc: ctx.doc,
            candidates: ctx.candidates,
        })
    }
}

fn cache_distance(
    ods: &OdSet,
    _cache: &mut DistCache,
    a: crate::od::TermId,
    b: crate::od::TermId,
) -> f64 {
    // Local helper: DistCache's memoisation is crate-private; recompute
    // through the public ned (values are short, and the baselines are not
    // on the hot path).
    if a == b {
        return 0.0;
    }
    ned(ods.term(a).norm(), ods.term(b).norm())
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
    fn unweighted_rejects_out_of_range_theta_in_debug() {
        let _ = UnweightedMeasure::new(-0.1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "similarity in [0, 1]")]
    fn delphi_rejects_out_of_range_theta_in_debug() {
        let _ = DelphiMeasure::new(2.0);
    }

    fn build(xml: &str) -> OdSet {
        let doc = Document::parse(xml).unwrap();
        let candidates = doc.select("/r/m").unwrap();
        let mut sel = HashMap::new();
        sel.insert(
            "/r/m".to_string(),
            ["/r/m/t", "/r/m/y", "/r/m/a"]
                .iter()
                .map(|s| s.to_string())
                .collect::<BTreeSet<_>>(),
        );
        OdSet::build(&doc, &candidates, &sel, &Mapping::new())
    }

    #[test]
    fn overlap_fraction_matches_example3() {
        // Movie 1 {title, year, 2 actors}, movie 2 {title', year, actor}:
        // shared = year + actor → 2/4 for movie 1, 2/3 for movie 2 →
        // min = 1/2 → duplicates at the ≥1/2 rule.
        let ods = build(
            "<r><m><t>The Matrix</t><y>1999</y><a>Keanu Reeves</a><a>L. Fishburne</a></m>\
                <m><t>Matrix</t><y>1999</y><a>Keanu Reeves</a></m>\
                <m><t>Signs</t><y>2002</y><a>Mel Gibson</a></m></r>",
        );
        let f = overlap_fraction(&ods, 0, 1);
        assert!((f - 0.5).abs() < 1e-12, "f={f}");
        assert_eq!(overlap_fraction(&ods, 0, 2), 0.0);
        assert_eq!(overlap_fraction(&ods, 1, 2), 0.0);
    }

    #[test]
    fn overlap_is_symmetric_delphi_is_not() {
        let ods = build(
            "<r><m><t>Alpha</t><y>1999</y><a>Ann</a><a>Bob</a><a>Cid</a></m>\
                <m><t>Alpha</t><y>1999</y></m>\
                <m><t>Pad</t><y>1901</y><a>Zed</a></m></r>",
        );
        assert_eq!(overlap_fraction(&ods, 0, 1), overlap_fraction(&ods, 1, 0));
        let mut cache = DistCache::new();
        let c01 = delphi_containment(&ods, 0, 1, 0.15, &mut cache);
        let c10 = delphi_containment(&ods, 1, 0, 0.15, &mut cache);
        // OD1 ⊂ OD0: containment of the small one in the big one is 1.
        assert!(c10 > c01, "c10={c10} c01={c01}");
        assert!((c10 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn delphi_subset_pairs_expose_the_asymmetry_critique() {
        // §7.2's critique: DELPHI's non-symmetric containment means
        // "'A is duplicate of B' does not imply that 'B is duplicate of
        // A'", and "the difference of the two elements is not reflected
        // in the result". A small OD fully contained in a much larger one
        // scores a perfect 1.0 in one direction no matter how much extra
        // (differing) data the larger OD carries.
        let ods = build(
            "<r><m><t>Alpha</t><y>1999</y><a>Ann</a><a>Bob</a><a>Cid</a><a>Dee</a></m>\
                <m><t>Alpha</t><y>1999</y></m>\
                <m><t>Pad One</t><y>1901</y><a>Nobody</a></m>\
                <m><t>Pad Two</t><y>1902</y><a>Noone</a></m></r>",
        );
        let mut cache = DistCache::new();
        let small_in_big = delphi_containment(&ods, 1, 0, 0.15, &mut cache);
        let big_in_small = delphi_containment(&ods, 0, 1, 0.15, &mut cache);
        assert!((small_in_big - 1.0).abs() < 1e-9, "got {small_in_big}");
        assert!(
            big_in_small < 0.5,
            "the large OD's extra data vanishes in one direction: {big_in_small}"
        );
        // A classifier on max(containment) would declare the pair
        // duplicates from the 1.0 direction alone; the symmetric sim
        // gives one verdict for the pair.
        let engine = crate::sim::SimEngine::new(&ods, 0.15);
        assert!((engine.sim(0, 1, &mut cache) - engine.sim(1, 0, &mut cache)).abs() < 1e-12);
    }

    #[test]
    fn unweighted_ignores_rarity() {
        // Shared ubiquitous year + contradictory rare titles: the
        // unweighted measure scores 0.5, the weighted one near 0.
        let ods = build(
            "<r><m><y>1999</y><t>Unique Alpha</t></m>\
                <m><y>1999</y><t>Other Beta</t></m>\
                <m><y>1999</y><t>Third Gamma</t></m>\
                <m><y>1999</y><t>Fourth Delta</t></m></r>",
        );
        let mut cache = DistCache::new();
        let unweighted = unweighted_sim(&ods, 0, 1, 0.15, &mut cache);
        assert!((unweighted - 0.5).abs() < 1e-12, "unweighted={unweighted}");
        let engine = crate::sim::SimEngine::new(&ods, 0.15);
        let weighted = engine.sim(0, 1, &mut cache);
        assert!(weighted < 0.1, "weighted={weighted}");
    }

    #[test]
    fn empty_ods_are_never_duplicates() {
        let ods = build("<r><m/><m/></r>");
        let mut cache = DistCache::new();
        assert_eq!(overlap_fraction(&ods, 0, 1), 0.0);
        assert_eq!(delphi_containment(&ods, 0, 1, 0.15, &mut cache), 0.0);
        assert_eq!(unweighted_sim(&ods, 0, 1, 0.15, &mut cache), 0.0);
        assert_eq!(VectorSpaceModel::new(&ods).sim(0, 1), 0.0);
    }

    #[test]
    fn measure_stages_match_their_free_functions() {
        let ods = build(
            "<r><m><t>The Matrix</t><y>1999</y><a>Keanu Reeves</a></m>\
                <m><t>Matrix</t><y>1999</y><a>Keanu Reeves</a></m>\
                <m><t>Signs</t><y>2002</y><a>Mel Gibson</a></m>\
                <m><t>Other Pad</t><y>1901</y><a>Nobody</a></m></r>",
        );
        let doc = Document::parse("<x/>").unwrap();
        let ctx = SimContext {
            doc: &doc,
            candidates: &[],
            ods: &ods,
        };
        let overlap = OverlapMeasure.prepare(ctx);
        let unweighted = UnweightedMeasure::new(0.15).prepare(ctx);
        let delphi = DelphiMeasure::new(0.15).prepare(ctx);
        let vsm_stage = VectorSpaceMeasure.prepare(ctx);
        let vsm = VectorSpaceModel::new(&ods);
        let mut cache = DistCache::new();
        let mut reference = DistCache::new();
        for i in 0..ods.len() {
            for j in (i + 1)..ods.len() {
                assert_eq!(overlap.sim(i, j, &mut cache), overlap_fraction(&ods, i, j));
                assert_eq!(
                    unweighted.sim(i, j, &mut cache),
                    unweighted_sim(&ods, i, j, 0.15, &mut reference)
                );
                let d = delphi_containment(&ods, i, j, 0.15, &mut reference)
                    .max(delphi_containment(&ods, j, i, 0.15, &mut reference));
                assert_eq!(delphi.sim(i, j, &mut cache), d);
                // Two independently built VSMs sum their dot products in
                // different hash orders — equal up to float rounding.
                assert!((vsm_stage.sim(i, j, &mut cache) - vsm.sim(i, j)).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn tree_edit_measure_reads_the_document() {
        let doc = Document::parse(
            "<r><m><t>Alpha</t><y>1999</y></m><m><t>Alpha</t><y>1999</y></m>\
                <m><x>totally</x><z>different</z><w>shape</w></m></r>",
        )
        .unwrap();
        let candidates = doc.select("/r/m").unwrap();
        let ods = build("<r><m/><m/><m/></r>");
        let ctx = SimContext {
            doc: &doc,
            candidates: &candidates,
            ods: &ods,
        };
        let ted = TreeEditMeasure.prepare(ctx);
        let mut cache = DistCache::new();
        assert_eq!(ted.sim(0, 1, &mut cache), 1.0, "identical subtrees");
        let different = ted.sim(0, 2, &mut cache);
        assert!(different < 1.0, "different shapes score below identity");
        assert_eq!(
            different,
            dogmatix_xml::treedist::tree_similarity(&doc, candidates[0], &doc, candidates[2]),
            "stage delegates to tree_similarity"
        );
    }

    #[test]
    fn vector_space_basics() {
        let ods = build(
            "<r><m><t>blue train coltrane</t></m>\
                <m><t>blue train coltrane</t></m>\
                <m><t>giant steps coltrane</t></m>\
                <m><t>something else entirely</t></m></r>",
        );
        let vsm = VectorSpaceModel::new(&ods);
        // Identical bags → cosine 1.
        assert!((vsm.sim(0, 1) - 1.0).abs() < 1e-9);
        // Sharing only the ubiquitous-ish token scores lower.
        let partial = vsm.sim(0, 2);
        assert!(partial > 0.0 && partial < 0.8, "partial {partial}");
        // Disjoint bags → 0.
        assert_eq!(vsm.sim(0, 3), 0.0);
        // Symmetry.
        assert!((vsm.sim(2, 0) - partial).abs() < 1e-12);
    }

    #[test]
    fn vector_space_ignores_structure_sim_does_not() {
        // The same words under *different* real-world types: the vector
        // space model conflates them (a false match the paper's
        // comparability requirement prevents).
        let doc = Document::parse(
            "<r><m><t>orion</t></m>\
                <m><a>orion</a></m>\
                <m><t>pad one</t></m>\
                <m><a>pad two</a></m></r>",
        )
        .unwrap();
        let candidates = doc.select("/r/m").unwrap();
        let mut sel = HashMap::new();
        sel.insert(
            "/r/m".to_string(),
            ["/r/m/t", "/r/m/a"]
                .iter()
                .map(|s| s.to_string())
                .collect::<BTreeSet<_>>(),
        );
        let ods = OdSet::build(&doc, &candidates, &sel, &Mapping::new());
        let vsm = VectorSpaceModel::new(&ods);
        assert!(vsm.sim(0, 1) > 0.9, "vsm conflates: {}", vsm.sim(0, 1));
        let engine = crate::sim::SimEngine::new(&ods, 0.15);
        let mut cache = DistCache::new();
        assert_eq!(
            engine.sim(0, 1, &mut cache),
            0.0,
            "sim keeps incomparable types apart"
        );
    }
}
