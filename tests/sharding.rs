//! Differential suite for sharded pair-plan execution: for ANY corpus,
//! ANY comparison filter, and ANY shard count, the `ShardedDriver` must
//! produce a `DetectionResult` **bit-identical** to the unsharded
//! pipeline — same pairs, same similarity scores (f64 equality), same
//! clusters, same stats. Sharding partitions execution, never semantics.
//!
//! The number of property cases honours the `PROPTEST_CASES` environment
//! override (ci.sh sets it to 128; local runs default lower).

mod common;

use common::{build_doc, cases, record_strategy, MiniRecord};
use dogmatix_repro::core::filter::{MinHashLshBlocking, QGramBlocking};
use dogmatix_repro::core::incremental::DocumentDelta;
use dogmatix_repro::core::neighborhood::{SortedNeighborhoodFilter, TopKBlocking};
use dogmatix_repro::core::pipeline::Dogmatix;
use dogmatix_repro::core::shard::ShardedDriver;
use dogmatix_repro::datagen::datasets::dataset1_sized;
use dogmatix_repro::eval::setup;
use dogmatix_repro::xml::serializer::node_to_string;
use dogmatix_repro::xml::Schema;
use proptest::prelude::*;

/// Shard counts the differential property checks: explicit 1, 2, 8 plus
/// auto (0 = available parallelism).
const SHARD_COUNTS: [usize; 4] = [1, 2, 8, 0];

// ---- corpus ----------------------------------------------------------

/// A corpus plus clone instructions, so generated documents contain real
/// duplicate pairs (otherwise most sharded work would score nothing).
fn corpus_strategy() -> impl Strategy<Value = Vec<MiniRecord>> {
    (
        proptest::collection::vec(record_strategy(), 3..9),
        proptest::collection::vec(0usize..16, 0..3),
    )
        .prop_map(|(mut records, clones)| {
            for c in clones {
                let copy = records[c % records.len()].clone();
                records.push(copy);
            }
            records
        })
}

// ---- detector matrix --------------------------------------------------

/// Every bundled comparison filter the driver must be neutral under.
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

/// A detector with the given filter stage; `shards = None` is the plain
/// unsharded pipeline, `Some(s)` routes execution through the driver.
fn detector(kind: FilterKind, theta_tuple: f64, shards: Option<usize>) -> Dogmatix {
    let mut b = Dogmatix::builder()
        .add_type("ITEM", ["/db/item"])
        .theta_tuple(theta_tuple)
        .threads(1);
    b = match kind {
        FilterKind::Object => b, // the paper-default object filter
        FilterKind::NoFilter => b.no_filter(),
        FilterKind::TopK => b.filter(TopKBlocking::new(2)),
        FilterKind::SortedNeighborhood => b.filter(SortedNeighborhoodFilter::new(3)),
        FilterKind::QGram => b.filter(QGramBlocking::new(2, theta_tuple)),
        FilterKind::Lsh => b.filter(MinHashLshBlocking::new(8, 2)),
    };
    if let Some(s) = shards {
        b = b.sharded(s);
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(12)))]

    /// The centrepiece: under every filter, the driver at shard counts
    /// 1/2/8/auto reproduces the unsharded result bit for bit.
    #[test]
    fn sharded_execution_is_bit_identical_under_every_filter(
        records in corpus_strategy(),
        theta in 0.10f64..0.6,
    ) {
        let doc = build_doc(&records);
        let schema = Schema::infer(&doc).expect("non-empty docs infer");
        for kind in FILTERS {
            let baseline = detector(kind, theta, None)
                .run(&doc, &schema, "ITEM")
                .expect("unsharded pipeline runs");
            for shards in SHARD_COUNTS {
                let sharded = detector(kind, theta, Some(shards))
                    .run(&doc, &schema, "ITEM")
                    .expect("sharded pipeline runs");
                // Whole-result equality: candidates, ODs, filter values,
                // duplicate pairs with f64-equal scores, possible pairs,
                // clusters, and stats (pairs_compared included — the
                // driver executes the same plan).
                prop_assert_eq!(
                    &sharded, &baseline,
                    "filter {:?} shards {} diverged", kind, shards
                );
            }
        }
    }

    /// Partitioning is lossless and disjoint for any plan shape.
    #[test]
    fn partition_is_a_disjoint_cover(
        pairs in proptest::collection::vec((0usize..40, 0usize..40), 0..60),
        shards in 1usize..9,
    ) {
        let mut plan: Vec<(usize, usize)> = pairs
            .into_iter()
            .filter(|(i, j)| i != j)
            .map(|(i, j)| (i.min(j), i.max(j)))
            .collect();
        plan.sort_unstable();
        plan.dedup();
        let parts = ShardedDriver::new(shards).partition(&plan);
        prop_assert_eq!(parts.shards.len(), shards);
        prop_assert_eq!(parts.total_pairs(), plan.len());
        let mut covered: Vec<(usize, usize)> =
            parts.shards.iter().flatten().copied().collect();
        covered.extend(&parts.residual);
        covered.sort_unstable();
        let mut want = plan;
        want.sort_unstable();
        prop_assert_eq!(covered, want);
    }
}

// ---- directed cases ---------------------------------------------------

/// The seeded CD corpus through the paper-default detector: sharded
/// results must be bit-identical to unsharded at every shard count, and
/// the shard partition must actually split the work at shards > 1.
#[test]
fn cd_corpus_sharded_matches_unsharded() {
    let (doc, _) = dataset1_sized(7, 40);
    let schema = setup::cd_schema();
    let base_builder = || {
        Dogmatix::builder()
            .mapping(setup::cd_mapping())
            .theta_tuple(setup::THETA_TUPLE)
            .theta_cand(setup::THETA_CAND)
    };
    let baseline = base_builder()
        .build()
        .run(&doc, &schema, setup::CD_TYPE)
        .expect("unsharded runs");
    assert!(
        !baseline.duplicate_pairs.is_empty(),
        "the seeded corpus must contain detectable duplicates"
    );
    for shards in SHARD_COUNTS {
        let sharded = base_builder()
            .sharded(shards)
            .build()
            .run(&doc, &schema, setup::CD_TYPE)
            .expect("sharded runs");
        assert_eq!(sharded, baseline, "shards={shards}");
    }
    // The partition itself: multiple shards receive work, and the
    // residual holds the cross-shard pairs.
    let n = baseline.candidates.len();
    let plan: Vec<(usize, usize)> = (0..n)
        .flat_map(|i| ((i + 1)..n).map(move |j| (i, j)))
        .collect();
    let parts = ShardedDriver::new(4).partition(&plan);
    assert!(parts.shards.iter().filter(|s| !s.is_empty()).count() >= 2);
    assert!(!parts.residual.is_empty());
    assert_eq!(parts.total_pairs(), plan.len());
}

/// Sharding composes with the blocking filters on the CD corpus (the
/// pair plan of each filter survives partitioning bit for bit).
#[test]
fn cd_corpus_blocking_filters_shard_cleanly() {
    let (doc, _) = dataset1_sized(3, 25);
    let schema = setup::cd_schema();
    for (name, filter) in [
        ("qgram", FilterKind::QGram),
        ("lsh", FilterKind::Lsh),
        ("topk", FilterKind::TopK),
        ("snm", FilterKind::SortedNeighborhood),
    ] {
        let build = |shards: Option<usize>| {
            let mut b = Dogmatix::builder()
                .mapping(setup::cd_mapping())
                .theta_tuple(setup::THETA_TUPLE)
                .theta_cand(setup::THETA_CAND);
            b = match filter {
                FilterKind::QGram => b.filter(QGramBlocking::new(2, setup::THETA_TUPLE)),
                FilterKind::Lsh => b.filter(MinHashLshBlocking::new(16, 2)),
                FilterKind::TopK => b.filter(TopKBlocking::new(3)),
                FilterKind::SortedNeighborhood => b.filter(SortedNeighborhoodFilter::new(4)),
                _ => unreachable!(),
            };
            if let Some(s) = shards {
                b = b.sharded(s);
            }
            b.build()
                .run(&doc, &schema, setup::CD_TYPE)
                .expect("pipeline runs")
        };
        let baseline = build(None);
        for shards in SHARD_COUNTS {
            assert_eq!(build(Some(shards)), baseline, "{name} shards={shards}");
        }
    }
}

/// Incremental sessions cut Step 5 into units by the detector's sharded
/// policy too: after an update and then an insert, a sharded detector's
/// deltas must reproduce the unsharded batch run over the final
/// document bit for bit, as must its batch run. Two workers and a corpus
/// past the executor's sequential cutoff (2,048 pairs) put both on the
/// worker pool.
#[test]
fn sharded_incremental_deltas_match_unsharded_batch() {
    let (doc, _) = dataset1_sized(7, 40);
    let schema = setup::cd_schema();
    let builder = || {
        Dogmatix::builder()
            .mapping(setup::cd_mapping())
            .theta_tuple(setup::THETA_TUPLE)
            .theta_cand(setup::THETA_CAND)
            .threads(2)
    };
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
    for shards in SHARD_COUNTS {
        let dx = builder().sharded(shards).build();
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
        let batch = builder()
            .build()
            .run(session.doc(), &schema, setup::CD_TYPE)
            .expect("batch runs");
        assert!(batch.stats.pairs_compared >= 2048);
        // The insert changes the candidate set, so every planned pair is
        // re-scored and even `pairs_compared` agrees.
        assert_eq!(result, batch, "shards={shards}");
        // The same detector's batch run scores the lazy all-pairs plan
        // on the pool.
        let sharded_batch = dx
            .run(session.doc(), &schema, setup::CD_TYPE)
            .expect("sharded batch runs");
        assert_eq!(sharded_batch, batch, "batch shards={shards}");
    }
}
