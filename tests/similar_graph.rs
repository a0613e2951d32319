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
//!   over every same-type term pair;
//! * (d) after every delta of a random insert/update/remove stream, the
//!   graph an incremental session carried across the delta equals the
//!   one a fresh batch set builds: every term's neighbours, every
//!   object's support and every family size.
//!
//! Honours the `PROPTEST_CASES` environment override (ci.sh raises it).

mod common;

use common::{
    build_doc, cases, dirty_corpus_strategy, record_strategy, typo_strategy, MiniRecord, Typo,
};
use dogmatix_repro::core::classify::{Class, ThresholdClassifier};
use dogmatix_repro::core::filter::MinHashLshBlocking;
use dogmatix_repro::core::heuristics::HeuristicExpr;
use dogmatix_repro::core::incremental::{DocumentDelta, IncrementalSession};
use dogmatix_repro::core::od::{OdSet, TermId};
use dogmatix_repro::core::pipeline::{DetectionSession, Dogmatix};
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

/// One step of a random delta stream over the `/db/item` corpus. Slots
/// resolve modulo the live object count when the step is applied.
#[derive(Debug, Clone)]
enum GraphOp {
    /// Retitle an object with a typo of another object's title: a new
    /// term that is likely similar to a surviving one.
    Retitle {
        slot: usize,
        from: usize,
        typo: Typo,
    },
    /// Retitle an object with a fresh title (its old title may vanish).
    Rename {
        slot: usize,
        title: String,
    },
    Insert {
        record: MiniRecord,
    },
    Remove {
        slot: usize,
    },
}

fn graph_op_strategy() -> impl Strategy<Value = GraphOp> {
    prop_oneof![
        (0usize..16, 0usize..16, typo_strategy()).prop_map(|(slot, from, typo)| GraphOp::Retitle {
            slot,
            from,
            typo
        }),
        (
            0usize..16,
            proptest::string::string_regex("[a-z]{2,10}( [a-z]{2,8})?").unwrap()
        )
            .prop_map(|(slot, title)| GraphOp::Rename { slot, title }),
        record_strategy().prop_map(|record| GraphOp::Insert { record }),
        (0usize..16).prop_map(|slot| GraphOp::Remove { slot }),
    ]
}

fn title_of(s: &IncrementalSession, index: usize) -> String {
    let doc = s.doc();
    doc.select_from(s.candidates().nodes[index], "title")
        .ok()
        .and_then(|t| t.first().copied())
        .and_then(|t| doc.direct_text(t))
        .unwrap_or_default()
}

/// The delta an op stands for; `None` would leave fewer than two objects.
fn graph_delta(op: &GraphOp, s: &IncrementalSession) -> Option<DocumentDelta> {
    let n = s.candidates().len();
    let retitle = |index: usize, value: String| DocumentDelta::UpdateText {
        index,
        path: "title".into(),
        occurrence: 0,
        value,
    };
    match op {
        GraphOp::Retitle { slot, from, typo } => {
            Some(retitle(slot % n, typo.apply(&title_of(s, from % n))))
        }
        GraphOp::Rename { slot, title } => Some(retitle(slot % n, title.clone())),
        GraphOp::Insert { record } => {
            let mut xml = format!(
                "<item><title>{}</title><year>{}</year>",
                record.title, record.year
            );
            for name in &record.names {
                xml.push_str(&format!("<person><name>{name}</name></person>"));
            }
            xml.push_str("</item>");
            Some(DocumentDelta::InsertXml {
                parent_path: "/db".into(),
                xml,
            })
        }
        GraphOp::Remove { slot } => {
            (n > 2).then_some(DocumentDelta::RemoveObject { index: slot % n })
        }
    }
}

/// (d): the graph the session carried equals a fresh batch build's.
fn check_carried_graph(
    dx: &Dogmatix,
    s: &IncrementalSession,
    carried: &DetectionResult,
    theta: f64,
    context: &str,
) {
    let doc = s.doc().clone();
    let schema = Schema::infer(&doc).expect("non-empty docs infer");
    let session =
        DetectionSession::new(&doc, &schema, dx.mapping(), s.rw_type()).expect("session opens");
    let batch = dx.detect(&session).expect("batch detect runs");
    assert_eq!(*carried.ods, *batch.ods, "{context}: term ids differ");
    let got = carried
        .ods
        .cached_similar_terms(theta)
        .expect("the session seeds the carried graph");
    let want = batch
        .ods
        .cached_similar_terms(theta)
        .expect("the object filter leaves its graph on the set");
    for t in 0..carried.ods.term_count() {
        let t = TermId::from_index(t);
        assert_eq!(
            got.neighbours(t),
            want.neighbours(t),
            "{context}: neighbours of {t:?}"
        );
    }
    for i in 0..carried.ods.len() {
        assert_eq!(got.support(i), want.support(i), "{context}: support of {i}");
    }
    assert_eq!(
        got.family_sizes(&carried.ods),
        want.family_sizes(&batch.ods),
        "{context}: families"
    );
    assert_eq!(got.edge_count(), want.edge_count(), "{context}: edges");
    assert_eq!(carried.f_values, batch.f_values, "{context}: filter values");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(24)))]

    #[test]
    fn carried_graph_equals_a_fresh_build_after_every_delta(
        records in dirty_corpus_strategy(),
        ops in proptest::collection::vec(graph_op_strategy(), 1..8),
        theta in 0.0f64..1.0,
    ) {
        let theta = if theta > 0.0 { theta } else { 1e-3 };
        for t in [theta, 0.15, 0.55] {
            let dx = Dogmatix::builder()
                .add_type("ITEM", ["/db/item"])
                .theta_tuple(t)
                .build();
            let mut s = dx
                .incremental_session_inferred(build_doc(&records), "ITEM")
                .expect("session opens");
            dx.detect_delta(&mut s, &[]).expect("initial run");
            for (step, op) in ops.iter().enumerate() {
                let Some(delta) = graph_delta(op, &s) else { continue };
                let result = dx
                    .detect_delta(&mut s, std::slice::from_ref(&delta))
                    .expect("delta applies");
                check_carried_graph(&dx, &s, &result, t, &format!("θ={t} step {step} {op:?}"));
            }
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
