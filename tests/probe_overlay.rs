//! The probe overlay against its reference: for random corpora and
//! probe records, every `OdView` query a `ProbeOverlay` answers (pinned
//! store + record as the last object) must equal the answer of
//! `OdSet::build_from_raw(corpus + record)` — the store a batch run
//! over corpus + record interns — and `SimEngine` scores over the two
//! must agree bit for bit.
//!
//! The number of property cases honours the `PROPTEST_CASES` environment
//! override.

mod common;

use common::cases;
use dogmatix_repro::core::od::{OdSet, RawTuple, TermId};
use dogmatix_repro::core::probe::{ProbeOverlay, ProbeScratch, TermLookup};
use dogmatix_repro::core::sim::{DistCache, EditKernelChoice, OdView, SimBreakdown, SimEngine};
use dogmatix_repro::xml::Document;
use proptest::prelude::*;

/// Values the corpus draws from: near-duplicates, so distances land on
/// both sides of θ.
const STORED_VALUES: [&str; 8] = [
    "the matrix",
    "matrix",
    "matrx",
    "signs",
    "sign",
    "1999",
    "1998",
    "heat",
];
/// Values no corpus object holds (still close to stored ones).
const FRESH_VALUES: [&str; 4] = ["the matrixx", "sings", "1997", "heats"];
/// The corpus uses types `0..STORED_TYPES`; records may add more.
const STORED_TYPES: u8 = 3;

/// What a generated record is made of.
#[derive(Debug, Clone, Copy)]
enum RecordKind {
    OnlyNewTerms,
    OnlyStoredTerms,
    RepeatedTerms,
    UnseenTypes,
    Empty,
    EqualToStored,
}

const KINDS: [RecordKind; 6] = [
    RecordKind::OnlyNewTerms,
    RecordKind::OnlyStoredTerms,
    RecordKind::RepeatedTerms,
    RecordKind::UnseenTypes,
    RecordKind::Empty,
    RecordKind::EqualToStored,
];

fn tuple(ty: u8, norm: &str) -> RawTuple {
    RawTuple {
        value: norm.to_string(),
        path: format!("/r/m/t{ty}"),
        rw_type: format!("T{ty}"),
        norm: norm.to_string(),
    }
}

fn corpus_from(spec: &[Vec<(u8, u8)>]) -> Vec<Vec<RawTuple>> {
    spec.iter()
        .map(|od| {
            od.iter()
                .map(|&(ty, v)| tuple(ty, STORED_VALUES[v as usize]))
                .collect()
        })
        .collect()
}

/// Builds a record of `kind` from the random `picks`.
fn record_from(kind: RecordKind, corpus: &[Vec<RawTuple>], picks: &[(u8, u8)]) -> Vec<RawTuple> {
    let stored: Vec<&RawTuple> = corpus.iter().flatten().collect();
    match kind {
        RecordKind::OnlyNewTerms => picks
            .iter()
            .map(|&(ty, v)| {
                tuple(
                    ty % STORED_TYPES,
                    FRESH_VALUES[v as usize % FRESH_VALUES.len()],
                )
            })
            .collect(),
        RecordKind::OnlyStoredTerms if stored.is_empty() => Vec::new(),
        RecordKind::OnlyStoredTerms => picks
            .iter()
            .map(|&(ty, v)| stored[(ty as usize * 31 + v as usize) % stored.len()].clone())
            .collect(),
        RecordKind::RepeatedTerms => {
            // Stored and fresh values, every one of them twice.
            let once: Vec<RawTuple> = picks
                .iter()
                .map(|&(ty, v)| {
                    let all = STORED_VALUES.len() + FRESH_VALUES.len();
                    let v = v as usize % all;
                    let norm = STORED_VALUES
                        .get(v)
                        .copied()
                        .unwrap_or_else(|| FRESH_VALUES[v - STORED_VALUES.len()]);
                    tuple(ty % STORED_TYPES, norm)
                })
                .collect();
            once.iter().chain(once.iter()).cloned().collect()
        }
        RecordKind::UnseenTypes => picks
            .iter()
            .map(|&(ty, v)| {
                // Unseen types 3..6 (repeating among themselves) mixed
                // with stored ones.
                tuple(ty, STORED_VALUES[v as usize % STORED_VALUES.len()])
            })
            .collect(),
        RecordKind::Empty => Vec::new(),
        RecordKind::EqualToStored => {
            let at = picks.first().map_or(0, |&(ty, v)| ty as usize + v as usize);
            corpus[at % corpus.len()].clone()
        }
    }
}

fn breakdown_bits(b: &SimBreakdown) -> Vec<u64> {
    let mut bits = vec![
        b.sim.to_bits(),
        b.soft_idf_similar.to_bits(),
        b.soft_idf_contradictory.to_bits(),
    ];
    for pair in b.similar.iter().chain(&b.contradictory) {
        bits.extend([
            pair.tuple_i as u64,
            pair.tuple_j as u64,
            pair.distance.to_bits(),
            pair.soft_idf.to_bits(),
        ]);
    }
    bits.push(b.similar.len() as u64);
    bits
}

/// Every view query of `overlay` equals `reference`'s answer, and the
/// engine scores every stored object against the record identically.
fn assert_overlay_equals_reference(overlay: &ProbeOverlay<'_>, reference: &OdSet, theta: f64) {
    let n = reference.len() - 1;
    assert_eq!(overlay.object_count(), reference.object_count(), "|Ω|");

    // The record's layout: tuple terms and type groups.
    assert_eq!(overlay.tuple_count(n), reference.tuple_count(n), "tuples");
    for local in 0..reference.tuple_count(n) {
        assert_eq!(
            overlay.tuple_term(n, local),
            reference.tuple_term(n, local),
            "term of record tuple {local}"
        );
    }
    assert_eq!(overlay.group_range(n), reference.group_range(n), "groups");
    for g in reference.group_range(n) {
        assert_eq!(overlay.group_type(g), reference.group_type(g), "group {g}");
        assert_eq!(
            overlay.group_tuples(g),
            reference.group_tuples(g),
            "group {g}"
        );
    }
    // Stored objects read through unchanged.
    for i in 0..n {
        assert_eq!(overlay.group_range(i), reference.group_range(i), "od {i}");
        assert_eq!(overlay.tuple_count(i), reference.tuple_count(i), "od {i}");
    }

    // Term-level queries over every term id either store knows.
    let terms = reference.term_count();
    for t in 0..terms {
        let t = TermId::from_index(t);
        assert_eq!(overlay.norm(t), reference.norm(t), "norm of {t:?}");
        assert_eq!(
            overlay.char_len(t),
            reference.char_len(t),
            "char_len of {t:?}"
        );
        assert_eq!(
            overlay.posting_len(t),
            reference.posting_len(t),
            "posting_len of {t:?}"
        );
    }
    // The union count of every term pair the scorer can form: a stored
    // object's term against a record term of the same type.
    for j in 0..n {
        for gj in reference.group_range(j) {
            for gn in reference.group_range(n) {
                if reference.group_type(gj) != reference.group_type(gn) {
                    continue;
                }
                for &tj in reference.group_tuples(gj) {
                    for &tn in reference.group_tuples(gn) {
                        let a = reference.tuple_term(j, tj as usize);
                        let b = reference.tuple_term(n, tn as usize);
                        assert_eq!(
                            overlay.union_count(a, b),
                            reference.union_count(a, b),
                            "union of {a:?}, {b:?}"
                        );
                    }
                }
            }
        }
    }

    // Scores, bit for bit.
    let kernel = EditKernelChoice::default();
    let over = SimEngine::over(overlay, theta, kernel);
    let batch = SimEngine::with_kernel(reference, theta, kernel);
    let (mut cache_o, mut cache_b) = (DistCache::new(), DistCache::new());
    for j in 0..n {
        assert_eq!(
            over.sim(j, n, &mut cache_o).to_bits(),
            batch.sim(j, n, &mut cache_b).to_bits(),
            "sim({j}, n)"
        );
        assert_eq!(
            breakdown_bits(&over.breakdown(j, n, &mut cache_o)),
            breakdown_bits(&batch.breakdown(j, n, &mut cache_b)),
            "breakdown({j}, n)"
        );
    }
}

fn check(corpus_spec: &[Vec<(u8, u8)>], kind: RecordKind, picks: &[(u8, u8)], theta: f64) {
    let doc = Document::parse("<r/>").expect("parse");
    let node = doc.root_element().expect("root");
    let corpus = corpus_from(corpus_spec);
    let record = record_from(kind, &corpus, picks);

    let base = OdSet::build_from_raw(corpus.iter().map(|od| (node, od.as_slice())));
    let reference = OdSet::build_from_raw(
        corpus
            .iter()
            .chain(std::iter::once(&record))
            .map(|od| (node, od.as_slice())),
    );
    let lookup = TermLookup::new(&base);
    let mut scratch = ProbeScratch::new();
    let overlay = ProbeOverlay::new(&base, &lookup, &record, &mut scratch);
    assert_overlay_equals_reference(&overlay, &reference, theta);
}

fn od_strategy() -> impl Strategy<Value = Vec<(u8, u8)>> {
    proptest::collection::vec((0u8..STORED_TYPES, 0u8..STORED_VALUES.len() as u8), 0..5)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(48)))]

    #[test]
    fn overlay_equals_append_last_interning(
        corpus in proptest::collection::vec(od_strategy(), 1..8),
        kind in 0usize..KINDS.len(),
        picks in proptest::collection::vec((0u8..6, 0u8..12), 0..6),
        theta in 0.05f64..0.6,
    ) {
        check(&corpus, KINDS[kind], &picks, theta);
    }
}

/// Every record kind at least once, on one fixed corpus.
#[test]
fn every_record_kind_matches_the_reference() {
    let corpus = vec![
        vec![(0, 0), (1, 5), (2, 3)],
        vec![(0, 1), (1, 5)],
        vec![(0, 2), (1, 6), (2, 4), (2, 3)],
        vec![],
    ];
    let picks = [(0, 0), (4, 1), (1, 9), (5, 3), (3, 11)];
    for kind in KINDS {
        for theta in [0.15, 0.45] {
            check(&corpus, kind, &picks, theta);
        }
    }
}
