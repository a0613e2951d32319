//! Soundness of the zero-score skip: the object filter builds the
//! similar-term graph once per OD set, and the softIDF engine answers
//! 0.0 for every pair outside the graph's support lists. On random dirty
//! corpora and random `θ_tuple` (always including the paper's 0.15 and
//! the float-boundary 0.55) this suite checks that
//!
//! * (a) every pair with a non-empty similar set `ODT_≈` is supported
//!   (and, since the support is exact, no other pair is);
//! * (b) a run with the object filter equals a test-side re-scoring of
//!   every active pair through a plain `SimEngine`, which reads no graph;
//! * (c) the filter values equal a test-only reference of the §5.2 term
//!   families: one `BTreeSet` of objects per term, grown by `ned_within`
//!   over every same-type term pair.
//!
//! Honours the `PROPTEST_CASES` environment override (ci.sh raises it).

mod common;

use common::{build_doc, cases, dirty_corpus_strategy, MiniRecord};
use dogmatix_repro::core::classify::{Class, ThresholdClassifier};
use dogmatix_repro::core::filter::MinHashLshBlocking;
use dogmatix_repro::core::heuristics::HeuristicExpr;
use dogmatix_repro::core::od::OdSet;
use dogmatix_repro::core::pipeline::Dogmatix;
use dogmatix_repro::core::sim::{DistCache, SimEngine};
use dogmatix_repro::core::{DetectionResult, Mapping};
use dogmatix_repro::datagen::datasets::dataset1_sized;
use dogmatix_repro::eval::setup;
use dogmatix_repro::textsim::{idf, ned_within};
use dogmatix_repro::xml::{Document, Schema};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Runs the default (object filter + softIDF) pipeline with a classifier
/// whose possible band starts at 0, so every compared pair is reported
/// with its score — a skipped pair's 0.0 included.
fn detect(
    doc: &Document,
    schema: &Schema,
    mapping: Mapping,
    rw_type: &str,
    theta_tuple: f64,
    theta_cand: f64,
) -> DetectionResult {
    Dogmatix::builder()
        .mapping(mapping)
        .heuristic(HeuristicExpr::r_distant_descendants(2))
        .theta_tuple(theta_tuple)
        .theta_cand(theta_cand)
        .classifier(ThresholdClassifier::with_possible_band(theta_cand, 0.0))
        .build()
        .run(doc, schema, rw_type)
        .expect("pipeline runs on any well-formed corpus")
}

/// (a): the cached support equals the pairs with a similar tuple pair.
fn check_support(result: &DetectionResult, theta: f64) {
    let ods = &result.ods;
    let graph = ods
        .cached_similar_terms(theta)
        .expect("the object filter leaves its graph on the set");
    let engine = SimEngine::new(ods, theta);
    let mut cache = DistCache::new();
    for i in 0..ods.len() {
        for j in 0..ods.len() {
            if i == j {
                continue;
            }
            let similar = !engine.breakdown(i, j, &mut cache).similar.is_empty();
            assert_eq!(
                graph.supports(i, j),
                similar,
                "θ={theta}: pair ({i},{j}) support disagrees with its similar set"
            );
        }
    }
}

/// (b): every active pair re-scored through a plain engine, classified
/// the way the run's classifier does, equals the run's output bit for bit.
fn check_rescoring(result: &DetectionResult, theta: f64, theta_cand: f64) {
    let ods = &result.ods;
    let plain = SimEngine::new(ods, theta);
    let classifier = ThresholdClassifier::with_possible_band(theta_cand, 0.0);
    let mut cache = DistCache::new();
    let (mut duplicates, mut possible) = (Vec::new(), Vec::new());
    let mut compared = 0usize;
    for i in 0..ods.len() {
        for j in (i + 1)..ods.len() {
            if result.pruned[i] || result.pruned[j] {
                continue;
            }
            compared += 1;
            let sim = plain.sim(i, j, &mut cache);
            match classifier.classify(sim) {
                Class::Duplicate => duplicates.push((i, j, sim.to_bits())),
                Class::Possible => possible.push((i, j, sim.to_bits())),
                Class::NonDuplicate => {}
            }
        }
    }
    let bits = |pairs: &[(usize, usize, f64)]| -> Vec<(usize, usize, u64)> {
        pairs.iter().map(|&(i, j, s)| (i, j, s.to_bits())).collect()
    };
    assert_eq!(
        bits(&result.duplicate_pairs),
        duplicates,
        "θ={theta}: duplicates"
    );
    assert_eq!(bits(&result.possible_pairs), possible, "θ={theta}: scores");
    assert_eq!(result.stats.pairs_compared, compared, "θ={theta}");
}

/// (c): the filter values of a reference term-family computation — one
/// `BTreeSet` of objects per term, every same-type term pair tested with
/// `ned_within` (no length window).
fn reference_f_values(ods: &OdSet, theta: f64) -> Vec<f64> {
    let store = ods.store();
    let terms = store.term_count();
    let mut families: Vec<BTreeSet<u32>> = (0..terms)
        .map(|t| store.postings(t).iter().copied().collect())
        .collect();
    for a in 0..terms {
        for b in (a + 1)..terms {
            if store.type_id(a) == store.type_id(b)
                && ned_within(store.norm(a), store.norm(b), theta).is_some()
            {
                let (pa, pb) = (store.postings(a).to_vec(), store.postings(b).to_vec());
                families[a].extend(pb);
                families[b].extend(pa);
            }
        }
    }
    let total = ods.len();
    (0..total)
        .map(|i| {
            let (mut shared, mut unique) = (0.0f64, 0.0f64);
            for &term in ods.tuple_terms(i) {
                let fam = families[term.index()].len();
                if fam >= 2 {
                    shared += idf(total, fam);
                } else {
                    unique += idf(total, store.posting_len(term.index()).max(1));
                }
            }
            let denom = shared + unique;
            if denom > 0.0 {
                shared / denom
            } else {
                0.0
            }
        })
        .collect()
}

fn check_all(records: &[MiniRecord], theta: f64, theta_cand: f64) {
    let doc = build_doc(records);
    let schema = Schema::infer(&doc).expect("non-empty docs infer");
    let mut mapping = Mapping::new();
    mapping.add_type("ITEM", ["/db/item"]);
    let result = detect(&doc, &schema, mapping, "ITEM", theta, theta_cand);
    check_support(&result, theta);
    check_rescoring(&result, theta, theta_cand);
    let reference = reference_f_values(&result.ods, theta);
    let got: Vec<u64> = result.f_values.iter().map(|f| f.to_bits()).collect();
    let want: Vec<u64> = reference.iter().map(|f| f.to_bits()).collect();
    assert_eq!(got, want, "θ={theta}: filter values");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(24)))]

    #[test]
    fn zero_score_skip_is_exact_on_dirty_corpora(
        records in dirty_corpus_strategy(),
        theta in 0.0f64..1.0,
        theta_cand in 0.0f64..0.9,
    ) {
        // (0, 1): a zero draw is replaced by a tiny positive threshold.
        let theta = if theta > 0.0 { theta } else { 1e-3 };
        for t in [theta, 0.15, 0.55] {
            check_all(&records, t, theta_cand);
        }
    }
}

#[test]
fn paper_cd_corpus_skips_only_zero_pairs() {
    let (doc, _) = dataset1_sized(7, 40);
    let schema = setup::cd_schema();
    let result = Dogmatix::builder()
        .mapping(setup::cd_mapping())
        .theta_tuple(setup::THETA_TUPLE)
        .theta_cand(setup::THETA_CAND)
        .classifier(ThresholdClassifier::with_possible_band(
            setup::THETA_CAND,
            0.0,
        ))
        .build()
        .run(&doc, &schema, setup::CD_TYPE)
        .expect("the CD corpus runs");
    assert!(!result.duplicate_pairs.is_empty());
    check_support(&result, setup::THETA_TUPLE);
    check_rescoring(&result, setup::THETA_TUPLE, setup::THETA_CAND);
    let graph = result
        .ods
        .cached_similar_terms(setup::THETA_TUPLE)
        .expect("cached by the filter");
    let supported: usize = (0..result.ods.len()).map(|i| graph.support(i).len()).sum();
    // Linear in the corpus, not quadratic: the graph and the support
    // lists stay within a small multiple of the OD set itself.
    assert!(graph.heap_bytes() <= 4 * result.ods.heap_bytes());
    assert!(
        supported < result.stats.pairs_compared,
        "the support must be smaller than the plan ({supported} vs {})",
        result.stats.pairs_compared
    );
}

#[test]
fn filters_without_the_graph_leave_no_cache() {
    // The measure never builds the graph: an LSH run scores every
    // planned pair in full and leaves the set without one.
    let (doc, _) = dataset1_sized(3, 15);
    let schema = setup::cd_schema();
    let result = Dogmatix::builder()
        .mapping(setup::cd_mapping())
        .theta_tuple(setup::THETA_TUPLE)
        .theta_cand(setup::THETA_CAND)
        .filter(MinHashLshBlocking::new(48, 2))
        .build()
        .run(&doc, &schema, setup::CD_TYPE)
        .expect("the CD corpus runs");
    assert!(result
        .ods
        .cached_similar_terms(setup::THETA_TUPLE)
        .is_none());
}

#[test]
fn a_second_threshold_builds_an_uncached_graph() {
    let (doc, _) = dataset1_sized(3, 10);
    let schema = setup::cd_schema();
    let dx = Dogmatix::builder()
        .mapping(setup::cd_mapping())
        .theta_tuple(0.15)
        .build();
    let session = dx.session(&doc, &schema, setup::CD_TYPE).expect("session");
    let first = dx.detect(&session).expect("first run");
    assert!(first.ods.cached_similar_terms(0.15).is_some());
    // Same session, same OD set, another θ: the cache keeps 0.15, and
    // the 0.3 run must still match a plain re-scoring.
    let other = Dogmatix::builder()
        .mapping(setup::cd_mapping())
        .theta_tuple(0.3)
        .classifier(ThresholdClassifier::with_possible_band(0.55, 0.0))
        .build();
    let second = other.detect(&session).expect("second run");
    assert!(second.ods.cached_similar_terms(0.3).is_none());
    assert!(second.ods.cached_similar_terms(0.15).is_some());
    check_rescoring(&second, 0.3, 0.55);
}
