//! Differential test suite for streaming ingest: for ANY corpus and ANY
//! delta sequence, `Dogmatix::detect_delta` over an `IncrementalSession`
//! must produce exactly the result of rebuilding a fresh session over
//! the final document state and running batch detection — same
//! candidates, same ODs, same filter values, same pairs (bit-identical
//! similarities), same clusters — at every thread count.
//!
//! The number of property cases honours the `PROPTEST_CASES` environment
//! override (ci.sh sets it to 128; local runs default lower).

mod common;

use common::{build_doc, cases, record_strategy, MiniRecord};
use dogmatix_repro::core::incremental::{DocumentDelta, IncrementalSession};
use dogmatix_repro::core::pipeline::{
    DetectionResult, DetectionSession, Dogmatix, DogmatixBuilder,
};
use dogmatix_repro::core::wal::{FsyncPolicy, Wal};
use dogmatix_repro::datagen::datasets::{dataset1_sized, dataset2_sized};
use dogmatix_repro::eval::setup;
use dogmatix_repro::xml::{Document, Schema};
use proptest::prelude::*;
use std::collections::BTreeSet;

const THREAD_COUNTS: [usize; 3] = [1, 2, 0];

// ---- corpus ----------------------------------------------------------

fn corpus_strategy() -> impl Strategy<Value = Vec<MiniRecord>> {
    proptest::collection::vec(record_strategy(), 3..9)
}

fn record_xml(r: &MiniRecord) -> String {
    let mut xml = format!("<item><title>{}</title><year>{}</year>", r.title, r.year);
    for n in &r.names {
        xml.push_str(&format!("<person><name>{n}</name></person>"));
    }
    xml.push_str("</item>");
    xml
}

// ---- delta specifications --------------------------------------------

/// Abstract delta op: slots are resolved modulo the live candidate count
/// at application time, so any generated sequence stays applicable.
#[derive(Debug, Clone)]
enum OpSpec {
    UpdateTitle {
        slot: usize,
        value: String,
    },
    /// Duplicate-creating: copy another candidate's title (and year).
    CopyFrom {
        from: usize,
        to: usize,
    },
    /// No-op: rewrite the title with its current value.
    NoOpTitle {
        slot: usize,
    },
    UpdateYear {
        slot: usize,
        year: u16,
    },
    ClearYear {
        slot: usize,
    },
    InsertFresh {
        record: MiniRecord,
    },
    /// Duplicate-creating: insert a clone of an existing candidate.
    InsertClone {
        slot: usize,
    },
    Remove {
        slot: usize,
    },
    AddPerson {
        slot: usize,
        name: String,
    },
    RemovePerson {
        slot: usize,
    },
}

fn op_strategy() -> impl Strategy<Value = OpSpec> {
    let title = proptest::string::string_regex("[a-z]{2,10}( [a-z]{2,8})?").unwrap();
    let name = proptest::string::string_regex("[A-Z][a-z]{2,7}").unwrap();
    prop_oneof![
        (0usize..16, title).prop_map(|(slot, value)| OpSpec::UpdateTitle { slot, value }),
        (0usize..16, 0usize..16).prop_map(|(from, to)| OpSpec::CopyFrom { from, to }),
        (0usize..16).prop_map(|slot| OpSpec::NoOpTitle { slot }),
        (0usize..16, 1960u16..2005).prop_map(|(slot, year)| OpSpec::UpdateYear { slot, year }),
        (0usize..16).prop_map(|slot| OpSpec::ClearYear { slot }),
        record_strategy().prop_map(|record| OpSpec::InsertFresh { record }),
        (0usize..16).prop_map(|slot| OpSpec::InsertClone { slot }),
        (0usize..16).prop_map(|slot| OpSpec::Remove { slot }),
        (0usize..16, name).prop_map(|(slot, name)| OpSpec::AddPerson { slot, name }),
        (0usize..16).prop_map(|slot| OpSpec::RemovePerson { slot }),
    ]
}

/// Resolves an abstract op against the session's current state. `None`
/// skips ops that would leave the corpus degenerate (fewer than three
/// candidates) or address data that does not exist.
fn concretize(op: &OpSpec, s: &IncrementalSession) -> Option<DocumentDelta> {
    let n = s.candidates().len();
    if n == 0 {
        return None;
    }
    let doc = s.doc();
    let title_of = |idx: usize| {
        let cand = s.candidates().nodes[idx];
        let t = doc.select_from(cand, "title").ok()?.first().copied()?;
        doc.direct_text(t)
    };
    match op {
        OpSpec::UpdateTitle { slot, value } => Some(DocumentDelta::UpdateText {
            index: slot % n,
            path: "title".into(),
            occurrence: 0,
            value: value.clone(),
        }),
        OpSpec::CopyFrom { from, to } => {
            let (from, to) = (from % n, to % n);
            if from == to {
                return None;
            }
            Some(DocumentDelta::UpdateText {
                index: to,
                path: "title".into(),
                occurrence: 0,
                value: title_of(from)?,
            })
        }
        OpSpec::NoOpTitle { slot } => Some(DocumentDelta::UpdateText {
            index: slot % n,
            path: "title".into(),
            occurrence: 0,
            value: title_of(slot % n)?,
        }),
        OpSpec::UpdateYear { slot, year } => Some(DocumentDelta::UpdateText {
            index: slot % n,
            path: "year".into(),
            occurrence: 0,
            value: year.to_string(),
        }),
        OpSpec::ClearYear { slot } => Some(DocumentDelta::UpdateText {
            index: slot % n,
            path: "year".into(),
            occurrence: 0,
            value: String::new(),
        }),
        OpSpec::InsertFresh { record } => Some(DocumentDelta::InsertXml {
            parent_path: "/db".into(),
            xml: record_xml(record),
        }),
        OpSpec::InsertClone { slot } => {
            let cand = s.candidates().nodes[slot % n];
            // Re-render the candidate's subtree as a fragment.
            let title = title_of(slot % n)?;
            let year = doc
                .select_from(cand, "year")
                .ok()?
                .first()
                .and_then(|y| doc.direct_text(*y))
                .unwrap_or_default();
            let names: Vec<String> = doc
                .select_from(cand, "person/name")
                .ok()?
                .iter()
                .filter_map(|nm| doc.direct_text(*nm))
                .collect();
            Some(DocumentDelta::InsertXml {
                parent_path: "/db".into(),
                xml: record_xml(&MiniRecord {
                    title,
                    year: year.parse().unwrap_or(2000),
                    names,
                }),
            })
        }
        OpSpec::Remove { slot } => {
            if n <= 3 {
                return None; // keep the corpus non-degenerate
            }
            Some(DocumentDelta::RemoveObject { index: slot % n })
        }
        OpSpec::AddPerson { slot, name } => Some(DocumentDelta::InsertUnder {
            index: slot % n,
            path: ".".into(),
            occurrence: 0,
            xml: format!("<person><name>{name}</name></person>"),
        }),
        OpSpec::RemovePerson { slot } => {
            let idx = slot % n;
            let cand = s.candidates().nodes[idx];
            if doc.select_from(cand, "person").ok()?.is_empty() {
                return None;
            }
            Some(DocumentDelta::RemoveElement {
                index: idx,
                path: "person".into(),
                occurrence: 0,
            })
        }
    }
}

// ---- the differential check ------------------------------------------

fn detector(theta_tuple: f64, use_filter: bool, threads: usize) -> Dogmatix {
    let builder = Dogmatix::builder()
        .add_type("ITEM", ["/db/item"])
        .theta_tuple(theta_tuple)
        .threads(threads);
    if use_filter {
        builder.build()
    } else {
        builder.no_filter().build()
    }
}

/// Batch detection rebuilt from scratch over the session's final state.
fn batch_rebuild(dx: &Dogmatix, s: &IncrementalSession) -> DetectionResult {
    let doc = s.doc().clone();
    let schema = Schema::infer(&doc).expect("corpus stays non-empty");
    let session =
        DetectionSession::new(&doc, &schema, dx.mapping(), s.rw_type()).expect("session opens");
    dx.detect(&session).expect("batch detect runs")
}

/// Full outcome equality; `stats.pairs_compared` is exempt (the whole
/// point of the incremental path is to compare fewer pairs).
fn assert_outcome_eq(inc: &DetectionResult, full: &DetectionResult, context: &str) {
    assert_eq!(inc.candidates, full.candidates, "candidates: {context}");
    assert_eq!(*inc.ods, *full.ods, "object descriptions: {context}");
    assert_eq!(inc.f_values, full.f_values, "filter values: {context}");
    assert_eq!(inc.pruned, full.pruned, "pruned flags: {context}");
    assert_eq!(
        inc.duplicate_pairs, full.duplicate_pairs,
        "duplicate pairs: {context}"
    );
    assert_eq!(
        inc.possible_pairs, full.possible_pairs,
        "possible pairs: {context}"
    );
    assert_eq!(inc.clusters, full.clusters, "clusters: {context}");
    assert_eq!(inc.stats.candidates, full.stats.candidates, "{context}");
    assert_eq!(
        inc.stats.pruned_by_filter, full.stats.pruned_by_filter,
        "{context}"
    );
}

/// Clusters as sets of absolute element paths — the index-free view that
/// must also survive a serialise-and-reparse round trip.
fn cluster_paths(doc: &Document, result: &DetectionResult) -> BTreeSet<BTreeSet<String>> {
    result
        .clusters
        .iter()
        .map(|c| {
            c.iter()
                .map(|&i| doc.absolute_path(result.candidates[i]))
                .collect()
        })
        .collect()
}

/// Replays `ops` through a fresh session of `dx` over the corpus,
/// checking the differential property after the initial run and after
/// every delta. Returns the session and its last result.
fn replay_against_batch(
    dx: &Dogmatix,
    records: &[MiniRecord],
    ops: &[OpSpec],
    label: &str,
) -> (IncrementalSession, DetectionResult) {
    let mut s = dx
        .incremental_session_inferred(build_doc(records), "ITEM")
        .expect("session opens");
    let initial = dx.detect_delta(&mut s, &[]).expect("initial run");
    assert_outcome_eq(&initial, &batch_rebuild(dx, &s), "initial run");

    let mut last = initial;
    for (step, op) in ops.iter().enumerate() {
        let Some(delta) = concretize(op, &s) else {
            continue;
        };
        let context = format!("step {step} {op:?} ({label})");
        last = dx
            .detect_delta(&mut s, std::slice::from_ref(&delta))
            .unwrap_or_else(|e| panic!("delta failed at {context}: {e}"));
        let full = batch_rebuild(dx, &s);
        assert_outcome_eq(&last, &full, &context);
    }
    (s, last)
}

/// Replays `ops` over the corpus at one thread count, checking the
/// differential property after every delta. Returns the final clusters
/// (as path sets) for cross-thread comparison.
fn run_scenario(
    records: &[MiniRecord],
    ops: &[OpSpec],
    theta_tuple: f64,
    use_filter: bool,
    threads: usize,
) -> BTreeSet<BTreeSet<String>> {
    let dx = detector(theta_tuple, use_filter, threads);
    let (s, last) = replay_against_batch(&dx, records, ops, &format!("threads={threads}"));

    // The final state must also survive serialise → reparse → batch
    // (index-free cluster comparison, since arena ids differ).
    let reparsed = Document::parse(&s.doc().to_xml()).expect("serialised state reparses");
    let schema = Schema::infer(&reparsed).expect("non-empty");
    let session = DetectionSession::new(&reparsed, &schema, dx.mapping(), "ITEM").unwrap();
    let re = dx.detect(&session).expect("reparsed batch runs");
    assert_eq!(
        cluster_paths(s.doc(), &last),
        cluster_paths(&reparsed, &re),
        "clusters diverge after reparse (threads={threads})"
    );
    cluster_paths(s.doc(), &last)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(24)))]

    /// The centrepiece: random corpus, random delta sequence, incremental
    /// == batch after every single delta, across thread counts 1/2/0.
    #[test]
    fn incremental_equals_batch_for_any_delta_sequence(
        records in corpus_strategy(),
        ops in proptest::collection::vec(op_strategy(), 1..6),
        theta in 0.10f64..0.6,
        use_filter in (0usize..2).prop_map(|v| v == 1),
    ) {
        let mut final_clusters = Vec::new();
        for threads in THREAD_COUNTS {
            final_clusters.push(run_scenario(&records, &ops, theta, use_filter, threads));
        }
        prop_assert_eq!(&final_clusters[0], &final_clusters[1], "threads 1 vs 2");
        prop_assert_eq!(&final_clusters[0], &final_clusters[2], "threads 1 vs 0");
    }
}

// ---- directed cases ---------------------------------------------------

/// The acceptance criterion on the CD corpus: replaying deltas must cost
/// strictly fewer pair comparisons than re-detecting from scratch, while
/// producing identical results (fixed XSD-backed schema here).
#[test]
fn cd_delta_replay_compares_fewer_pairs_than_full_redetection() {
    let (doc, _) = dataset1_sized(11, 40);
    let dx = Dogmatix::builder()
        .mapping(setup::cd_mapping())
        .theta_tuple(setup::THETA_TUPLE)
        .theta_cand(setup::THETA_CAND)
        .build();
    let schema = setup::cd_schema();
    let mut s = dx
        .incremental_session(doc.clone(), schema.clone(), setup::CD_TYPE)
        .expect("session opens");
    dx.detect_delta(&mut s, &[]).expect("initial run");

    let mut incremental_compared = 0usize;
    let mut full_compared = 0usize;
    for k in 0..6 {
        let delta = DocumentDelta::UpdateText {
            index: k * 5,
            path: "title".into(),
            occurrence: 0,
            value: format!("Retitled Album Vol {k}"),
        };
        let inc = dx
            .detect_delta(&mut s, std::slice::from_ref(&delta))
            .expect("delta applies");
        incremental_compared += inc.stats.pairs_compared;

        let final_doc = s.doc().clone();
        let session =
            DetectionSession::new(&final_doc, &schema, dx.mapping(), setup::CD_TYPE).unwrap();
        let full = dx.detect(&session).expect("batch runs");
        full_compared += full.stats.pairs_compared;

        assert_eq!(inc.duplicate_pairs, full.duplicate_pairs, "step {k}");
        assert_eq!(inc.clusters, full.clusters, "step {k}");
        assert_eq!(*inc.ods, *full.ods, "step {k}");
    }
    assert!(
        incremental_compared < full_compared,
        "delta replay must do strictly fewer comparisons \
         ({incremental_compared} vs {full_compared})"
    );
    assert!(s.counters().pairs_reused > 0);
}

/// A fixed corpus and update/insert/remove stream for the directed
/// replay regressions below: near-duplicate titles, a shared year, a
/// clone inserted and an object removed.
fn directed_corpus() -> (Vec<MiniRecord>, Vec<OpSpec>) {
    let record = |title: &str, year: u16, names: &[&str]| MiniRecord {
        title: title.into(),
        year,
        names: names.iter().map(|n| n.to_string()).collect(),
    };
    let records = vec![
        record("midnight journey", 1999, &["Alice", "Bob"]),
        record("midnigth journey", 1999, &["Alice"]),
        record("silent harbour", 1987, &["Carol"]),
        record("silent harbor", 1987, &[]),
        record("open water", 2003, &["Dave"]),
        record("quiet fields", 1975, &["Erin"]),
    ];
    let ops = vec![
        OpSpec::CopyFrom { from: 0, to: 4 },
        OpSpec::UpdateYear {
            slot: 5,
            year: 1987,
        },
        OpSpec::InsertClone { slot: 2 },
        OpSpec::UpdateTitle {
            slot: 3,
            value: "open watter".into(),
        },
        OpSpec::Remove { slot: 1 },
        OpSpec::AddPerson {
            slot: 0,
            name: "Carol".into(),
        },
        OpSpec::NoOpTitle { slot: 2 },
        OpSpec::InsertFresh {
            record: record("quiet fieldz", 1975, &["Erin"]),
        },
        OpSpec::RemovePerson { slot: 0 },
    ];
    (records, ops)
}

/// Case (a): an object the filter pruned last run, and that the delta
/// does not touch, is unpruned when a similar term appears elsewhere.
/// Its pairs were never planned, so no verdict is stored for them: they
/// must be scored, not replayed as non-duplicates.
#[test]
fn unpruned_unaffected_objects_are_scored_not_replayed() {
    use dogmatix_repro::core::classify::ThresholdClassifier;

    let record = |title: &str, year: u16| MiniRecord {
        title: title.into(),
        year,
        names: Vec::new(),
    };
    // Object 0 shares only its year with objects 1 and 2: f(0) ≈ 0.28,
    // at most θ_cand = 0.55.
    let records = vec![
        record("zebra crossing", 1999),
        record("harbour lights", 1999),
        record("harbour lights", 1999),
        record("open water", 1975),
        record("quiet fields", 1966),
        record("amber sky", 1950),
    ];
    // A possible band reports the (0, 1) pair, which shares a year.
    let dx = Dogmatix::builder()
        .add_type("ITEM", ["/db/item"])
        .theta_tuple(0.15)
        .classifier(ThresholdClassifier::with_possible_band(0.55, 0.05))
        .build();
    let mut s = dx
        .incremental_session_inferred(build_doc(&records), "ITEM")
        .expect("session opens");
    let before = dx.detect_delta(&mut s, &[]).expect("initial run");
    assert!(
        before.pruned[0],
        "object 0 starts pruned: {:?}",
        before.f_values
    );
    assert!(!before.pruned[1] && !before.pruned[2]);

    // Object 4 takes a title one typo away from object 0's.
    let delta = DocumentDelta::UpdateText {
        index: 4,
        path: "title".into(),
        occurrence: 0,
        value: "zebra crossinq".into(),
    };
    let after = dx
        .detect_delta(&mut s, std::slice::from_ref(&delta))
        .expect("delta applies");
    assert_outcome_eq(&after, &batch_rebuild(&dx, &s), "after the delta");
    assert!(
        !after.pruned[0],
        "object 0 is unpruned: {:?}",
        after.f_values
    );
    assert!(
        after
            .possible_pairs
            .iter()
            .chain(&after.duplicate_pairs)
            .any(|&(i, j, sim)| (i, j) == (0, 1) && sim > 0.0),
        "the newly planned pair (0, 1) was scored: {:?}",
        after.possible_pairs
    );
    let active = after.pruned.iter().filter(|p| !**p).count();
    assert!(
        after.stats.pairs_compared < active * (active - 1) / 2,
        "pairs of two clean objects were replayed"
    );
}

/// Case (b): classifiers that report pairs down to a similarity of 0 —
/// a `DualThreshold` whose possible band starts at 0, and a threshold
/// classifier that reports every pair — replay exactly over an
/// update/insert/remove stream.
#[test]
fn low_possible_bands_replay_exactly() {
    use dogmatix_repro::core::classify::{DualThreshold, ThresholdClassifier};

    let (records, ops) = directed_corpus();
    for use_filter in [true, false] {
        let dual = detector_with(use_filter, |b| {
            b.classifier(DualThreshold::new(0.55, 0.0).expect("valid thresholds"))
        });
        let (_, last) = replay_against_batch(&dual, &records, &ops, "dual threshold, band at 0");
        assert!(!last.possible_pairs.is_empty());
        let every = detector_with(use_filter, |b| {
            b.classifier(ThresholdClassifier::with_possible_band(0.55, 0.0))
        });
        let (_, last) = replay_against_batch(&every, &records, &ops, "every pair reported");
        let active = last.pruned.iter().filter(|p| !**p).count();
        assert_eq!(
            last.duplicate_pairs.len() + last.possible_pairs.len(),
            active * (active - 1) / 2
        );
    }
}

/// Case (c): the same stream under filters that return an explicit pair
/// plan, which keep the plan walk: q-gram blocking, whose plan holds a
/// pair by its two objects' terms alone, and top-k and sorted
/// neighbourhood, whose plans can take in a pair of two untouched
/// objects that the previous plan did not hold.
#[test]
fn explicit_plan_filters_replay_exactly() {
    use dogmatix_repro::core::classify::DualThreshold;
    use dogmatix_repro::core::filter::QGramBlocking;
    use dogmatix_repro::core::neighborhood::{SortedNeighborhoodFilter, TopKBlocking};

    let (records, ops) = directed_corpus();
    let band_at_0 = || DualThreshold::new(0.55, 0.0).expect("valid thresholds");
    let qgram = detector_with(true, |b| b.filter(QGramBlocking::new(2, 0.15)));
    replay_against_batch(&qgram, &records, &ops, "q-gram blocking");
    let qgram = detector_with(true, |b| {
        b.filter(QGramBlocking::new(2, 0.15))
            .classifier(band_at_0())
    });
    replay_against_batch(&qgram, &records, &ops, "q-gram blocking, band at 0");
    for k in [1, 2] {
        let top_k = detector_with(true, |b| {
            b.filter(TopKBlocking::new(k)).classifier(band_at_0())
        });
        replay_against_batch(&top_k, &records, &ops, &format!("top-{k}, band at 0"));
        let snm = detector_with(true, |b| {
            b.filter(SortedNeighborhoodFilter::new(k + 1))
                .classifier(band_at_0())
        });
        replay_against_batch(
            &snm,
            &records,
            &ops,
            &format!("window {}, band at 0", k + 1),
        );
    }
}

/// A θ_tuple 0.15 detector over the directed corpus with extra stages.
fn detector_with(
    use_filter: bool,
    stages: impl FnOnce(DogmatixBuilder) -> DogmatixBuilder,
) -> Dogmatix {
    let builder = Dogmatix::builder()
        .add_type("ITEM", ["/db/item"])
        .theta_tuple(0.15);
    let builder = if use_filter {
        builder
    } else {
        builder.no_filter()
    };
    stages(builder).build()
}

/// What the ingest counters and `RunStats` mean on the CD corpus: over
/// an update, an insert and a removal, `pairs_scored + pairs_reused`
/// grows by exactly the run's planned pairs (every pair of unpruned
/// objects under the object filter), and `pairs_compared` is exactly
/// the pairs the run scored.
#[test]
fn cd_counters_account_for_every_planned_pair() {
    let (doc, _) = dataset1_sized(13, 40);
    let dx = Dogmatix::builder()
        .mapping(setup::cd_mapping())
        .theta_tuple(setup::THETA_TUPLE)
        .theta_cand(setup::THETA_CAND)
        .build();
    let schema = setup::cd_schema();
    let mut s = dx
        .incremental_session(doc, schema.clone(), setup::CD_TYPE)
        .expect("session opens");
    dx.detect_delta(&mut s, &[]).expect("initial run");
    let disc = s.doc().node_xml(s.candidates().nodes[3]);
    let deltas = [
        (
            "update",
            DocumentDelta::UpdateText {
                index: 2,
                path: "title".into(),
                occurrence: 0,
                value: "Retitled Album".into(),
            },
        ),
        (
            "insert",
            DocumentDelta::InsertXml {
                parent_path: "/discs".into(),
                xml: disc,
            },
        ),
        ("remove", DocumentDelta::RemoveObject { index: 7 }),
    ];
    for (kind, delta) in deltas {
        let before = s.counters();
        let result = dx
            .detect_delta(&mut s, std::slice::from_ref(&delta))
            .expect("delta applies");
        let after = s.counters();
        let active = result.pruned.iter().filter(|p| !**p).count();
        let scored = after.pairs_scored - before.pairs_scored;
        let reused = after.pairs_reused - before.pairs_reused;
        assert_eq!(scored + reused, active * (active - 1) / 2, "{kind}");
        assert_eq!(result.stats.pairs_compared, scored, "{kind}");
        if kind == "update" {
            assert!(reused > 0, "an update replays the clean pairs");
        } else {
            assert_eq!(reused, 0, "{kind} moves |Ω| and rescores every pair");
        }
        let state = s.doc().clone();
        let session = DetectionSession::new(&state, &schema, dx.mapping(), setup::CD_TYPE).unwrap();
        let full = dx.detect(&session).expect("batch runs");
        assert_eq!(result.duplicate_pairs, full.duplicate_pairs, "{kind}");
        assert!(
            result.stats.pairs_compared <= full.stats.pairs_compared,
            "{kind}"
        );
    }
}

/// Same differential on the integrated movie corpus (two candidate
/// schema paths, composite PERSON rules, inferred-free fixed mapping).
#[test]
fn movie_corpus_deltas_match_batch() {
    let (doc, _) = dataset2_sized(5, 25);
    let schema = setup::movie_schema(&doc);
    let dx = Dogmatix::builder()
        .mapping(setup::movie_mapping())
        .theta_tuple(setup::THETA_TUPLE)
        .theta_cand(setup::THETA_CAND)
        .build();
    let mut s = dx
        .incremental_session(doc, schema.clone(), setup::MOVIE_TYPE)
        .expect("session opens");
    dx.detect_delta(&mut s, &[]).expect("initial run");

    let deltas = [
        DocumentDelta::UpdateText {
            index: 0,
            path: "title".into(),
            occurrence: 0,
            value: "A Completely New Title".into(),
        },
        DocumentDelta::InsertXml {
            parent_path: "/integrated/imdb".into(),
            xml: "<movie><title>A Completely New Title</title>\
                  <year>1994</year></movie>"
                .into(),
        },
        DocumentDelta::RemoveObject { index: 3 },
    ];
    for (k, delta) in deltas.iter().enumerate() {
        let inc = dx
            .detect_delta(&mut s, std::slice::from_ref(delta))
            .expect("delta applies");
        let final_doc = s.doc().clone();
        let session =
            DetectionSession::new(&final_doc, &schema, dx.mapping(), setup::MOVIE_TYPE).unwrap();
        let full = dx.detect(&session).expect("batch runs");
        assert_eq!(inc.candidates, full.candidates, "step {k}");
        assert_eq!(inc.duplicate_pairs, full.duplicate_pairs, "step {k}");
        assert_eq!(inc.possible_pairs, full.possible_pairs, "step {k}");
        assert_eq!(inc.clusters, full.clusters, "step {k}");
        assert_eq!(*inc.ods, *full.ods, "step {k}");
    }
}

/// Applying a whole batch of deltas in one `detect_delta` call is the
/// same as applying them one by one (same final state, same clusters).
#[test]
fn batched_and_stepwise_delta_application_agree() {
    let records: Vec<MiniRecord> = (0..6)
        .map(|i| MiniRecord {
            title: format!("title number {i}"),
            year: 1990 + i,
            names: vec![format!("Person{i}")],
        })
        .collect();
    let ops = [
        DocumentDelta::UpdateText {
            index: 1,
            path: "title".into(),
            occurrence: 0,
            value: "title number 0".into(),
        },
        DocumentDelta::RemoveObject { index: 4 },
        DocumentDelta::InsertXml {
            parent_path: "/db".into(),
            xml: "<item><title>title number 0</title><year>1990</year></item>".into(),
        },
    ];
    let dx = detector(0.15, true, 1);
    let mut stepwise = dx
        .incremental_session_inferred(build_doc(&records), "ITEM")
        .unwrap();
    dx.detect_delta(&mut stepwise, &[]).unwrap();
    let mut last = None;
    for d in &ops {
        last = Some(
            dx.detect_delta(&mut stepwise, std::slice::from_ref(d))
                .unwrap(),
        );
    }
    let mut batched = dx
        .incremental_session_inferred(build_doc(&records), "ITEM")
        .unwrap();
    let all_at_once = dx.detect_delta(&mut batched, &ops).unwrap();
    let last = last.unwrap();
    assert_eq!(last.duplicate_pairs, all_at_once.duplicate_pairs);
    assert_eq!(last.clusters, all_at_once.clusters);
    assert_eq!(stepwise.doc().to_xml(), batched.doc().to_xml());
}

// ---- crash recovery ----------------------------------------------------

/// Unique scratch path for a write-ahead log (proptest runs many cases
/// in one process, and cases must not share files).
fn scratch_wal(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "dogmatix-incremental-{}-{tag}-{n}.wal",
        std::process::id()
    ))
}

fn remove_wal(path: &std::path::Path) {
    let _ = std::fs::remove_file(path);
    let mut ckpt = path.as_os_str().to_os_string();
    ckpt.push(".ckpt");
    let _ = std::fs::remove_file(std::path::PathBuf::from(ckpt));
}

/// "Crashes" a durable session (drops the in-memory state and the log
/// handle on the floor), recovers from disk, and asserts the recovered
/// outcome is bit-identical to `expect` — the uninterrupted control's
/// latest result.
fn crash_and_recover(
    path: &std::path::Path,
    dx: &Dogmatix,
    logged: usize,
    expect: &DetectionResult,
    context: &str,
) -> (IncrementalSession, Wal) {
    let rec = IncrementalSession::recover(path, dx.mapping(), None, FsyncPolicy::Batch)
        .unwrap_or_else(|e| panic!("recovery failed at {context}: {e}"));
    assert!(
        rec.report.dropped_tail.is_none(),
        "committed log reported torn at {context}"
    );
    assert_eq!(
        rec.report.replayed + rec.report.skipped,
        logged,
        "lost deltas at {context}"
    );
    let mut session = rec.session;
    let after = dx
        .detect_delta(&mut session, &[])
        .unwrap_or_else(|e| panic!("post-recovery detect failed at {context}: {e}"));
    assert_outcome_eq(&after, expect, context);
    (session, rec.wal)
}

/// Replays `ops` through a WAL-backed session, killing it after
/// `kill_at` logged deltas and recovering from disk, alongside an
/// uninterrupted control session fed the same concrete deltas. Every
/// result — before the kill, right after recovery, and for every delta
/// replayed through the recovered session — must be bit-identical to
/// the control's (the recovered document re-parses the genesis
/// checkpoint image, whose XML equals the control's starting state, so
/// even arena node ids line up).
fn run_kill_scenario(records: &[MiniRecord], ops: &[OpSpec], theta: f64, kill_at: usize) {
    let dx = detector(theta, false, 1);
    let mut control = dx
        .incremental_session_inferred(build_doc(records), "ITEM")
        .expect("control session opens");
    let durable = dx
        .incremental_session_inferred(build_doc(records), "ITEM")
        .expect("durable session opens");
    let mut last = dx.detect_delta(&mut control, &[]).expect("initial run");

    let path = scratch_wal("kill");
    let mut wal = Some(Wal::create(&path, &durable, FsyncPolicy::Batch).expect("create WAL"));
    let mut durable = Some(durable);
    let mut logged = 0usize;
    let mut crashed = false;

    for (step, op) in ops.iter().enumerate() {
        if !crashed && logged >= kill_at {
            durable.take();
            wal.take();
            crashed = true;
            let context = format!("kill before step {step} ({logged} deltas logged)");
            let (s, w) = crash_and_recover(&path, &dx, logged, &last, &context);
            durable = Some(s);
            wal = Some(w);
        }
        let Some(delta) = concretize(op, &control) else {
            continue;
        };
        let context = format!("step {step} {op:?} (kill_at={kill_at})");
        let w = wal.as_mut().expect("log handle alive");
        w.append(&delta)
            .unwrap_or_else(|e| panic!("append at {context}: {e}"));
        w.commit()
            .unwrap_or_else(|e| panic!("commit at {context}: {e}"));
        logged += 1;
        let s = durable.as_mut().expect("durable session alive");
        let inc = dx
            .detect_delta(s, std::slice::from_ref(&delta))
            .unwrap_or_else(|e| panic!("durable delta failed at {context}: {e}"));
        last = dx
            .detect_delta(&mut control, std::slice::from_ref(&delta))
            .unwrap_or_else(|e| panic!("control delta failed at {context}: {e}"));
        assert_outcome_eq(&inc, &last, &context);
    }

    // A kill point at (or past) the end of the sequence: the final
    // crash still recovers the full stream.
    if !crashed {
        durable.take();
        wal.take();
        let context = format!("kill at end ({logged} deltas logged)");
        crash_and_recover(&path, &dx, logged, &last, &context);
    }
    remove_wal(&path);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(16)))]

    /// The durability centrepiece: random corpus, random delta stream,
    /// kill -9 at a random delta index — the recovered session's
    /// verdicts are bit-identical to a run that was never interrupted.
    #[test]
    fn killed_and_recovered_sessions_match_uninterrupted_runs(
        records in corpus_strategy(),
        ops in proptest::collection::vec(op_strategy(), 1..6),
        kill in 0usize..16,
        theta in 0.10f64..0.6,
    ) {
        run_kill_scenario(&records, &ops, theta, kill % (ops.len() + 1));
    }
}

/// Directed kill-and-recover on the CD corpus with a *mid-stream
/// checkpoint*: recovery re-parses the checkpoint image (fresh arena →
/// different node ids), so the comparison is on the index-based
/// verdicts and the index-free cluster paths.
#[test]
fn cd_kill_after_checkpoint_recovers_bit_identical_verdicts() {
    let (doc, _) = dataset1_sized(9, 30);
    let dx = Dogmatix::builder()
        .mapping(setup::cd_mapping())
        .theta_tuple(setup::THETA_TUPLE)
        .theta_cand(setup::THETA_CAND)
        .build();
    let schema = setup::cd_schema();
    let mut control = dx
        .incremental_session(doc.clone(), schema.clone(), setup::CD_TYPE)
        .expect("control opens");
    let durable = dx
        .incremental_session(doc, schema.clone(), setup::CD_TYPE)
        .expect("durable opens");
    dx.detect_delta(&mut control, &[]).expect("initial run");

    let path = scratch_wal("cd-ckpt");
    let mut wal = Wal::create(&path, &durable, FsyncPolicy::Batch).expect("create WAL");
    let mut durable = durable;

    let deltas = [
        DocumentDelta::UpdateText {
            index: 2,
            path: "title".into(),
            occurrence: 0,
            value: "Checkpointed Album".into(),
        },
        DocumentDelta::RemoveObject { index: 5 },
        DocumentDelta::UpdateText {
            index: 0,
            path: "artist".into(),
            occurrence: 0,
            value: "Renamed Artist".into(),
        },
    ];
    let mut last = None;
    for (k, delta) in deltas.iter().enumerate() {
        wal.append(delta).expect("append");
        wal.commit().expect("commit");
        dx.detect_delta(&mut durable, std::slice::from_ref(delta))
            .expect("durable delta");
        last = Some(
            dx.detect_delta(&mut control, std::slice::from_ref(delta))
                .expect("control delta"),
        );
        if k == 1 {
            // Snapshot mid-stream: replay must start after LSN 2.
            assert_eq!(wal.checkpoint(&durable).expect("checkpoint"), 2);
        }
    }
    drop(wal);
    drop(durable);

    let rec = IncrementalSession::recover(&path, dx.mapping(), Some(schema), FsyncPolicy::Batch)
        .expect("recover");
    assert_eq!(rec.report.checkpoint_lsn, 2);
    assert_eq!(rec.report.replayed, 1, "only the post-checkpoint delta");
    assert!(rec.report.dropped_tail.is_none());
    let mut recovered = rec.session;
    let after = dx
        .detect_delta(&mut recovered, &[])
        .expect("post-recovery detect");
    let last = last.expect("three deltas ran");
    assert_eq!(after.duplicate_pairs, last.duplicate_pairs);
    assert_eq!(after.possible_pairs, last.possible_pairs);
    assert_eq!(after.clusters, last.clusters);
    assert_eq!(after.f_values, last.f_values);
    assert_eq!(after.pruned, last.pruned);
    assert_eq!(
        cluster_paths(recovered.doc(), &after),
        cluster_paths(control.doc(), &last),
        "clusters diverge across the checkpoint re-parse"
    );
    remove_wal(&path);
}
