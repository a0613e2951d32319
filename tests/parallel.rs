//! Differential suite for the Step 5 worker pool: for ANY corpus and
//! ANY comparison filter, a detector on two workers or on all cores
//! must produce a `DetectionResult` **bit-identical** to the same
//! detector on one worker — same pairs, same similarity scores (f64
//! equality), same clusters, same stats. The worker count decides only
//! who scores a pair, never what it scores.
//!
//! The executor scores plans below 2,048 pairs on the calling thread
//! whatever the worker count, so every case here that claims to run on
//! the pool first asserts that its plan reaches that size.
//!
//! The number of property cases honours the `PROPTEST_CASES` environment
//! override (ci.sh sets it to 128; local runs default lower).

mod common;

use common::{build_doc, cases, record_strategy, MiniRecord};
use dogmatix_repro::core::filter::{MinHashLshBlocking, QGramBlocking};
use dogmatix_repro::core::heuristics::HeuristicExpr;
use dogmatix_repro::core::incremental::DocumentDelta;
use dogmatix_repro::core::neighborhood::{SortedNeighborhoodFilter, TopKBlocking};
use dogmatix_repro::core::pipeline::{DetectionResult, Dogmatix, DogmatixBuilder};
use dogmatix_repro::datagen::datasets::dataset1_sized;
use dogmatix_repro::eval::setup;
use dogmatix_repro::xml::serializer::node_to_string;
use dogmatix_repro::xml::{Document, Schema};
use proptest::prelude::*;

/// The executor's sequential cutoff: smaller plans never reach the pool.
const PARALLEL_MIN_PAIRS: usize = 2048;

/// Worker counts compared against one worker: two, and all cores.
const POOLED_THREADS: [usize; 2] = [2, 0];

// ---- corpus ----------------------------------------------------------

/// Records in a generated corpus: 72 make 2,556 pairs, past the cutoff.
const CORPUS_RECORDS: usize = 72;

/// A random corpus the pool must run on under every filter. A few random
/// records plus at least one clone (at most 8 in all) are laid out in
/// blocks of 8 copies, cycling until the corpus holds
/// [`CORPUS_RECORDS`]. The `k`-th copy in a block gets one of two years
/// and two names picked by the three bits of `k`, so each of those six
/// terms is held by exactly half the corpus. Every pair but the 324 whose
/// bits all differ shares one of them, so even top-k blocking, which
/// skips terms held by more than half the corpus, plans over 2,048
/// pairs; the clones give exact duplicates.
fn corpus_strategy() -> impl Strategy<Value = Vec<MiniRecord>> {
    (
        proptest::collection::vec(record_strategy(), 3..7),
        proptest::collection::vec(0usize..16, 1..3),
        1960u16..2005,
    )
        .prop_map(|(mut records, clones, year)| {
            for c in clones {
                let copy = records[c % records.len()].clone();
                records.push(copy);
            }
            (0..CORPUS_RECORDS)
                .map(|i| {
                    let (base, k) = (i / 8 % records.len(), i % 8);
                    let mut r = records[base].clone();
                    r.year = year + (k & 1) as u16;
                    r.names.push(["Ashby", "Brontë"][(k >> 1) & 1].to_string());
                    r.names
                        .push(["Carver", "Dunmore"][(k >> 2) & 1].to_string());
                    r
                })
                .collect()
        })
}

// ---- detector matrix --------------------------------------------------

/// Every bundled comparison filter the pool must be neutral under.
const FILTERS: [FilterKind; 6] = [
    FilterKind::Object,
    FilterKind::NoFilter,
    FilterKind::TopK,
    FilterKind::SortedNeighborhood,
    FilterKind::QGram,
    FilterKind::Lsh,
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FilterKind {
    Object,
    NoFilter,
    TopK,
    SortedNeighborhood,
    QGram,
    Lsh,
}

/// `builder` with the given filter stage, sized so that on a corpus of
/// `n` candidates each blocking filter may plan every pair: top-k keeps
/// all neighbours, the window spans the corpus, and one-row LSH bands
/// make any shared term a likely collision.
fn with_filter(
    builder: DogmatixBuilder,
    kind: FilterKind,
    theta_tuple: f64,
    n: usize,
) -> DogmatixBuilder {
    match kind {
        FilterKind::Object => builder, // the paper-default object filter
        FilterKind::NoFilter => builder.no_filter(),
        FilterKind::TopK => builder.filter(TopKBlocking::new(n)),
        FilterKind::SortedNeighborhood => builder.filter(SortedNeighborhoodFilter::new(n)),
        FilterKind::QGram => builder.filter(QGramBlocking::new(2, theta_tuple)),
        FilterKind::Lsh => builder.filter(MinHashLshBlocking::new(48, 1)),
    }
}

/// Runs `builder` on one worker and on every pooled worker count, and
/// asserts that the pooled runs plan at least [`PARALLEL_MIN_PAIRS`]
/// pairs and reproduce the one-worker result bit for bit.
fn assert_pool_matches_one_worker(
    builder: impl Fn() -> DogmatixBuilder,
    doc: &Document,
    schema: &Schema,
    rw_type: &str,
    label: &str,
) -> DetectionResult {
    let sequential = builder()
        .threads(1)
        .build()
        .run(doc, schema, rw_type)
        .expect("one-worker run");
    assert!(
        sequential.stats.pairs_compared >= PARALLEL_MIN_PAIRS,
        "{label}: {} planned pairs never reach the pool",
        sequential.stats.pairs_compared
    );
    for threads in POOLED_THREADS {
        let pooled = builder()
            .threads(threads)
            .build()
            .run(doc, schema, rw_type)
            .expect("pooled run");
        // Whole-result equality: candidates, ODs, filter values,
        // duplicate pairs with f64-equal scores, possible pairs,
        // clusters, and stats (pairs_compared included — the pool
        // executes the same plan).
        assert_eq!(pooled, sequential, "{label}: threads={threads} diverged");
    }
    sequential
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(4)))]

    /// The centrepiece: under every filter, two workers and all cores
    /// reproduce the one-worker result bit for bit.
    #[test]
    fn worker_counts_are_bit_identical_under_every_filter(
        records in corpus_strategy(),
        theta in 0.10f64..0.6,
    ) {
        let doc = build_doc(&records);
        let schema = Schema::infer(&doc).expect("non-empty docs infer");
        for kind in FILTERS {
            let builder = || {
                // Radius 2 reaches the names under `person`.
                let b = Dogmatix::builder()
                    .add_type("ITEM", ["/db/item"])
                    .heuristic(HeuristicExpr::r_distant_descendants(2))
                    .theta_tuple(theta);
                with_filter(b, kind, theta, records.len())
            };
            let result =
                assert_pool_matches_one_worker(builder, &doc, &schema, "ITEM", &format!("{kind:?}"));
            prop_assert!(!result.duplicate_pairs.is_empty(), "{:?}: the repeats are duplicates", kind);
        }
    }
}

// ---- directed cases ---------------------------------------------------

fn cd_builder() -> DogmatixBuilder {
    Dogmatix::builder()
        .mapping(setup::cd_mapping())
        .theta_tuple(setup::THETA_TUPLE)
        .theta_cand(setup::THETA_CAND)
}

/// Runs the seeded CD corpus (80 discs) under each of `filters` and
/// asserts that the pooled results equal the one-worker result.
fn assert_cd_corpus_worker_counts_agree(filters: &[FilterKind]) {
    let (doc, _) = dataset1_sized(7, 40);
    let schema = setup::cd_schema();
    let n = doc.select("/discs/disc").expect("candidates resolve").len();
    for &kind in filters {
        let builder = || with_filter(cd_builder(), kind, setup::THETA_TUPLE, n);
        let result = assert_pool_matches_one_worker(
            builder,
            &doc,
            &schema,
            setup::CD_TYPE,
            &format!("{kind:?}"),
        );
        assert!(
            !result.duplicate_pairs.is_empty(),
            "{kind:?}: the seeded corpus must contain detectable duplicates"
        );
    }
}

/// The seeded CD corpus under the paper-default object filter and with
/// no filter: the pooled results equal the one-worker result.
#[test]
fn cd_corpus_worker_counts_agree() {
    assert_cd_corpus_worker_counts_agree(&[FilterKind::Object, FilterKind::NoFilter]);
}

/// The seeded CD corpus under each blocking filter that plans past the
/// cutoff on its 80 discs. Top-k and LSH plan only a few hundred pairs
/// here, so the property above is where they meet the pool.
#[test]
fn cd_corpus_blocking_filters_agree_across_worker_counts() {
    assert_cd_corpus_worker_counts_agree(&[FilterKind::SortedNeighborhood, FilterKind::QGram]);
}

/// Incremental sessions score their re-plan on the same pool: after an
/// update and then an insert, a pooled detector's deltas must reproduce
/// the one-worker batch run over the final document bit for bit, as
/// must its own batch run.
#[test]
fn incremental_deltas_on_the_pool_match_one_worker_batch() {
    let (doc, _) = dataset1_sized(7, 40);
    let schema = setup::cd_schema();
    let first = doc.select("/discs/disc").expect("candidates resolve")[0];
    let deltas = [
        DocumentDelta::UpdateText {
            index: 3,
            path: "title".into(),
            occurrence: 0,
            value: "Retitled Album".into(),
        },
        DocumentDelta::InsertXml {
            parent_path: "/discs".into(),
            xml: node_to_string(&doc, first),
        },
    ];
    for threads in POOLED_THREADS {
        let dx = cd_builder().threads(threads).build();
        let mut session = dx
            .incremental_session(doc.clone(), schema.clone(), setup::CD_TYPE)
            .expect("session opens");
        dx.detect_delta(&mut session, &[]).expect("initial run");
        let mut result = None;
        for delta in &deltas {
            result = Some(
                dx.detect_delta(&mut session, std::slice::from_ref(delta))
                    .expect("delta applies"),
            );
        }
        let result = result.expect("two deltas ran");
        // The insert changes the candidate set, so every planned pair is
        // re-scored on the pool and even `pairs_compared` agrees.
        let batch = assert_pool_matches_one_worker(
            cd_builder,
            session.doc(),
            &schema,
            setup::CD_TYPE,
            "final batch",
        );
        assert_eq!(result, batch, "incremental threads={threads}");
    }
}
