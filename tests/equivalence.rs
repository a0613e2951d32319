//! Equivalence suite: the builder's derived default stages must
//! reproduce the exact `DetectionResult` of the paper's stages wired by
//! hand — same pairs, same similarities, same filter values, same
//! clusters, same stats — on both evaluation corpora and at every thread
//! count, with and without the object filter, through `run` and through
//! a reused `DetectionSession`.

use dogmatix_repro::core::classify::ThresholdClassifier;
use dogmatix_repro::core::cluster::TransitiveClosure;
use dogmatix_repro::core::filter::{NoFilter, ObjectFilter};
use dogmatix_repro::core::heuristics::{table4_heuristic, HeuristicExpr};
use dogmatix_repro::core::pipeline::{DetectionResult, DetectionSession, Dogmatix};
use dogmatix_repro::core::sim::SoftIdfMeasure;
use dogmatix_repro::core::Mapping;
use dogmatix_repro::datagen::datasets::{dataset1_sized, dataset2_sized};
use dogmatix_repro::eval::setup;
use dogmatix_repro::xml::{Document, Schema};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 0];

/// Runs the hand-wired paper stages and the builder's defaults (via
/// `run`, via a fresh session, and via a reused session) and asserts all
/// four results are identical.
fn assert_equivalent(
    doc: &Document,
    schema: &Schema,
    mapping: &Mapping,
    heuristic: &HeuristicExpr,
    rw_type: &str,
    use_filter: bool,
    threads: usize,
) -> DetectionResult {
    let explicit = Dogmatix::builder()
        .mapping(mapping.clone())
        .selector(heuristic.clone())
        .measure(SoftIdfMeasure::new(setup::THETA_TUPLE))
        .classifier(ThresholdClassifier::new(setup::THETA_CAND))
        .clusterer(TransitiveClosure)
        .threads(threads);
    let explicit = if use_filter {
        explicit.filter(ObjectFilter::new(setup::THETA_TUPLE, setup::THETA_CAND))
    } else {
        explicit.filter(NoFilter)
    };
    let explicit = explicit
        .build()
        .run(doc, schema, rw_type)
        .expect("hand-wired stages run");

    let mut builder = Dogmatix::builder()
        .mapping(mapping.clone())
        .heuristic(heuristic.clone())
        .theta_tuple(setup::THETA_TUPLE)
        .theta_cand(setup::THETA_CAND)
        .threads(threads);
    if !use_filter {
        builder = builder.no_filter();
    }
    let built = builder.build();

    let via_run = built.run(doc, schema, rw_type).expect("builder run");
    assert_eq!(
        explicit, via_run,
        "builder.run diverges (threads={threads})"
    );

    let session = DetectionSession::new(doc, schema, mapping, rw_type).expect("session opens");
    let via_session = built.detect(&session).expect("session detect");
    assert_eq!(
        explicit, via_session,
        "session detect diverges (threads={threads})"
    );
    let via_cached_session = built.detect(&session).expect("cached session detect");
    assert_eq!(
        explicit, via_cached_session,
        "cached-OD rerun diverges (threads={threads})"
    );
    assert_eq!(session.cached_od_sets(), 1, "one selection, one OD set");

    explicit
}

#[test]
fn cd_dataset_equivalence_all_thread_counts() {
    let (doc, _) = dataset1_sized(21, 60);
    let schema = setup::cd_schema();
    let mapping = setup::cd_mapping();
    let heuristic = table4_heuristic(HeuristicExpr::k_closest_descendants(6), 1);
    let mut results = Vec::new();
    for threads in THREAD_COUNTS {
        results.push(assert_equivalent(
            &doc,
            &schema,
            &mapping,
            &heuristic,
            setup::CD_TYPE,
            true,
            threads,
        ));
    }
    // Thread count must not change the outcome either.
    for r in &results[1..] {
        assert_eq!(results[0], *r, "thread count changed the result");
    }
    assert!(
        !results[0].duplicate_pairs.is_empty(),
        "the corpus contains detectable duplicates"
    );
}

#[test]
fn cd_dataset_equivalence_without_filter() {
    let (doc, _) = dataset1_sized(3, 40);
    let schema = setup::cd_schema();
    let mapping = setup::cd_mapping();
    let heuristic = table4_heuristic(HeuristicExpr::k_closest_descendants(6), 1);
    for threads in [1, 4] {
        assert_equivalent(
            &doc,
            &schema,
            &mapping,
            &heuristic,
            setup::CD_TYPE,
            false,
            threads,
        );
    }
}

#[test]
fn movie_dataset_equivalence_all_thread_counts() {
    let (doc, _) = dataset2_sized(7, 40);
    let schema = setup::movie_schema(&doc);
    let mapping = setup::movie_mapping();
    let heuristic = table4_heuristic(HeuristicExpr::r_distant_descendants(2), 2);
    let mut results = Vec::new();
    for threads in THREAD_COUNTS {
        results.push(assert_equivalent(
            &doc,
            &schema,
            &mapping,
            &heuristic,
            setup::MOVIE_TYPE,
            true,
            threads,
        ));
    }
    for r in &results[1..] {
        assert_eq!(results[0], *r, "thread count changed the result");
    }
    assert!(!results[0].duplicate_pairs.is_empty());
}

#[test]
fn explicit_default_stages_equal_derived_defaults() {
    // Spelling out the paper's default stages explicitly must be the
    // same as letting the builder derive them from the thresholds.
    let (doc, _) = dataset1_sized(11, 40);
    let schema = setup::cd_schema();
    let mapping = setup::cd_mapping();
    let heuristic = table4_heuristic(HeuristicExpr::k_closest_descendants(6), 1);

    let derived = Dogmatix::builder()
        .mapping(mapping.clone())
        .heuristic(heuristic.clone())
        .theta_tuple(setup::THETA_TUPLE)
        .theta_cand(setup::THETA_CAND)
        .build()
        .run(&doc, &schema, setup::CD_TYPE)
        .unwrap();
    let explicit = Dogmatix::builder()
        .mapping(mapping)
        .selector(heuristic)
        .filter(ObjectFilter::new(setup::THETA_TUPLE, setup::THETA_CAND))
        .measure(SoftIdfMeasure::new(setup::THETA_TUPLE))
        .classifier(ThresholdClassifier::new(setup::THETA_CAND))
        .clusterer(TransitiveClosure)
        .build()
        .run(&doc, &schema, setup::CD_TYPE)
        .unwrap();
    assert_eq!(derived, explicit);
}

#[test]
fn sweep_over_one_session_matches_independent_runs() {
    // The OD cache must be purely an optimisation: a sweep over one
    // session equals fresh runs point by point.
    let (doc, _) = dataset1_sized(5, 40);
    let schema = setup::cd_schema();
    let mapping = setup::cd_mapping();
    let session = DetectionSession::new(&doc, &schema, &mapping, setup::CD_TYPE).unwrap();
    for exp in [1, 2, 8] {
        for k in [3, 6] {
            let heuristic = table4_heuristic(HeuristicExpr::k_closest_descendants(k), exp);
            let dx = setup::paper_detector(heuristic, mapping.clone()).build();
            let swept = dx.detect(&session).unwrap();
            let fresh = dx.run(&doc, &schema, setup::CD_TYPE).unwrap();
            assert_eq!(swept, fresh, "exp={exp} k={k}");
        }
    }
    assert!(
        session.cached_od_sets() <= 6,
        "at most one OD set per distinct selection"
    );
}

/// The snapshot-backend path: a run that persists its term index and a
/// run warm-started from that snapshot (under the CLI's default 64 MiB
/// pool budget, where every page stays resident) must both equal the
/// in-memory result exactly — on both corpora, on one worker and on
/// several.
#[test]
fn snapshot_warm_start_equivalence_on_both_corpora() {
    use dogmatix_repro::core::backend::paged::PagedBackend;

    let cd = {
        let (doc, _) = dataset1_sized(21, 60);
        (
            doc,
            setup::cd_schema(),
            setup::cd_mapping(),
            table4_heuristic(HeuristicExpr::k_closest_descendants(6), 1),
            setup::CD_TYPE,
        )
    };
    let movie = {
        let (doc, _) = dataset2_sized(7, 40);
        let schema = setup::movie_schema(&doc);
        (
            doc,
            schema,
            setup::movie_mapping(),
            table4_heuristic(HeuristicExpr::r_distant_descendants(2), 2),
            setup::MOVIE_TYPE,
        )
    };
    for (tag, (doc, schema, mapping, heuristic, rw_type)) in [("cd", cd), ("movie", movie)] {
        let path = std::env::temp_dir().join(format!(
            "dogmatix-equivalence-{}-{tag}.index",
            std::process::id()
        ));
        let build = |backend: Option<PagedBackend>, threads: usize| {
            let mut b = Dogmatix::builder()
                .mapping(mapping.clone())
                .heuristic(heuristic.clone())
                .theta_tuple(setup::THETA_TUPLE)
                .theta_cand(setup::THETA_CAND)
                .threads(threads);
            if let Some(backend) = backend {
                b = b.index_backend(backend);
            }
            b.build().run(&doc, &schema, rw_type).expect("run succeeds")
        };
        let reference = build(None, 1);
        assert!(
            !reference.duplicate_pairs.is_empty(),
            "{tag} has duplicates"
        );
        let saved = build(Some(PagedBackend::save(&path)), 1);
        assert_eq!(reference, saved, "{tag}: save path diverged");
        let warm = build(Some(PagedBackend::open(&path, 64 << 20)), 1);
        assert_eq!(reference, warm, "{tag}: warm start diverged");
        for threads in [2usize, 0] {
            let pooled_warm = build(Some(PagedBackend::open(&path, 64 << 20)), threads);
            assert_eq!(
                reference, pooled_warm,
                "{tag}: warm start on {threads} threads diverged"
            );
        }
        let _ = std::fs::remove_file(&path);
    }
}

/// Stage registry: every public stage implementation must run through
/// the pipeline in this file at least once — dxlint's stage-registered
/// rule cross-checks each `impl <StageTrait> for <Type>` in the crates
/// against the type names appearing here. Beyond mere construction,
/// each stage is held to a semantic contract: `NoFilter` reproduces the
/// exhaustive result, every blocking filter finds a subset of the
/// exhaustive duplicates, and `DualThreshold`'s duplicates equal a
/// plain `ThresholdClassifier` at the same upper threshold.
#[test]
fn every_public_stage_impl_is_exercised() {
    use dogmatix_repro::core::baseline::{
        DelphiMeasure, OverlapMeasure, TreeEditMeasure, UnweightedMeasure, VectorSpaceMeasure,
    };
    use dogmatix_repro::core::classify::DualThreshold;
    use dogmatix_repro::core::filter::{MinHashLshBlocking, QGramBlocking};
    use dogmatix_repro::core::neighborhood::{SortedNeighborhoodFilter, TopKBlocking};
    use dogmatix_repro::core::stage::{ManualSelection, SimilarityMeasure};
    use std::collections::BTreeSet;
    use std::sync::Arc;

    let (doc, _) = dataset1_sized(13, 40);
    let schema = setup::cd_schema();
    let mapping = setup::cd_mapping();
    let heuristic = table4_heuristic(HeuristicExpr::k_closest_descendants(6), 1);
    let base = || {
        Dogmatix::builder()
            .mapping(mapping.clone())
            .heuristic(heuristic.clone())
            .theta_tuple(setup::THETA_TUPLE)
            .theta_cand(setup::THETA_CAND)
    };
    let pairs = |r: &DetectionResult| -> BTreeSet<(usize, usize)> {
        r.duplicate_pairs.iter().map(|&(i, j, _)| (i, j)).collect()
    };

    let exhaustive = base()
        .no_filter()
        .build()
        .run(&doc, &schema, setup::CD_TYPE)
        .unwrap();
    let truth = pairs(&exhaustive);
    assert!(!truth.is_empty(), "the corpus contains duplicates");

    // Comparison filters.
    let no_filter = base()
        .filter(NoFilter)
        .build()
        .run(&doc, &schema, setup::CD_TYPE)
        .unwrap();
    assert_eq!(exhaustive, no_filter, "NoFilter must equal no_filter()");
    let blockers: [(&str, Dogmatix); 4] = [
        (
            "sorted-neighborhood",
            base().filter(SortedNeighborhoodFilter::new(10)).build(),
        ),
        ("top-k", base().filter(TopKBlocking::new(8)).build()),
        ("q-gram", base().filter(QGramBlocking::new(3, 0.2)).build()),
        (
            "minhash-lsh",
            base().filter(MinHashLshBlocking::new(24, 2)).build(),
        ),
    ];
    for (name, dx) in blockers {
        let result = dx.run(&doc, &schema, setup::CD_TYPE).unwrap();
        assert!(
            pairs(&result).is_subset(&truth),
            "{name} reported a pair the exhaustive run rejected"
        );
    }

    // Baseline similarity measures (the paper's shoot-out competitors).
    let measures: [(&str, Arc<dyn SimilarityMeasure>); 5] = [
        ("overlap", Arc::new(OverlapMeasure)),
        (
            "unweighted",
            Arc::new(UnweightedMeasure::new(setup::THETA_TUPLE)),
        ),
        ("delphi", Arc::new(DelphiMeasure::new(setup::THETA_TUPLE))),
        ("vector-space", Arc::new(VectorSpaceMeasure)),
        ("tree-edit", Arc::new(TreeEditMeasure)),
    ];
    for (name, measure) in measures {
        let result = base()
            .no_filter()
            .measure_arc(measure)
            .build()
            .run(&doc, &schema, setup::CD_TYPE)
            .unwrap();
        assert!(result.stats.pairs_compared > 0, "{name} compared no pairs");
    }

    // Classifiers: DualThreshold's definite duplicates coincide with a
    // plain threshold at theta_dup.
    let dual = base()
        .no_filter()
        .classifier(DualThreshold::new(setup::THETA_CAND, 0.2).unwrap())
        .build()
        .run(&doc, &schema, setup::CD_TYPE)
        .unwrap();
    let plain = base()
        .no_filter()
        .classifier(ThresholdClassifier::new(setup::THETA_CAND))
        .build()
        .run(&doc, &schema, setup::CD_TYPE)
        .unwrap();
    assert_eq!(pairs(&dual), pairs(&plain));

    // Manual description selection bypasses the heuristic algebra.
    let manual = base()
        .selector(ManualSelection::new().with(
            dogmatix_repro::datagen::cd::CD_CANDIDATE_PATH,
            ["/discs/disc/artist", "/discs/disc/tracks/title"],
        ))
        .build()
        .run(&doc, &schema, setup::CD_TYPE)
        .unwrap();
    assert!(manual.stats.pairs_compared > 0);
}

/// The edit-distance kernels are exact, so a `SoftIdfMeasure` over the
/// scalar DP and one over the bit-parallel kernel must produce
/// bit-identical `DetectionResult`s — same pairs, same similarity
/// values — on both corpora, on one worker and on several, and equal to
/// the builder's default measure.
#[test]
fn edit_kernel_equivalence_on_both_corpora() {
    use dogmatix_repro::core::sim::EditKernelChoice;

    let cd = {
        let (doc, _) = dataset1_sized(21, 60);
        (
            doc,
            setup::cd_schema(),
            setup::cd_mapping(),
            table4_heuristic(HeuristicExpr::k_closest_descendants(6), 1),
            setup::CD_TYPE,
        )
    };
    let movie = {
        let (doc, _) = dataset2_sized(7, 40);
        let schema = setup::movie_schema(&doc);
        (
            doc,
            schema,
            setup::movie_mapping(),
            table4_heuristic(HeuristicExpr::r_distant_descendants(2), 2),
            setup::MOVIE_TYPE,
        )
    };
    for (tag, (doc, schema, mapping, heuristic, rw_type)) in [("cd", cd), ("movie", movie)] {
        let builder = || {
            Dogmatix::builder()
                .mapping(mapping.clone())
                .heuristic(heuristic.clone())
                .theta_tuple(setup::THETA_TUPLE)
                .theta_cand(setup::THETA_CAND)
        };
        let reference = builder()
            .build()
            .run(&doc, &schema, rw_type)
            .expect("run succeeds");
        assert!(
            !reference.duplicate_pairs.is_empty(),
            "{tag} has duplicates"
        );
        for choice in [EditKernelChoice::Scalar, EditKernelChoice::BitParallel] {
            for threads in [1usize, 2, 0] {
                let result = builder()
                    .measure(SoftIdfMeasure::with_kernel(setup::THETA_TUPLE, choice))
                    .threads(threads)
                    .build()
                    .run(&doc, &schema, rw_type)
                    .expect("run succeeds");
                assert_eq!(
                    reference, result,
                    "{tag}: kernel {choice} on {threads} threads diverged"
                );
            }
        }
    }
}

/// The paged (v2) backend is an out-of-core drop-in: on both corpora,
/// on one worker and on several, its results are bit-identical to the
/// in-memory build while its buffer pool provably stays under a budget
/// smaller than the snapshot it serves.
#[test]
fn paged_backend_equivalence_on_both_corpora() {
    use dogmatix_repro::core::backend::paged::PagedBackend;
    use std::sync::Arc;

    let cd = {
        let (doc, _) = dataset1_sized(21, 60);
        (
            doc,
            setup::cd_schema(),
            setup::cd_mapping(),
            table4_heuristic(HeuristicExpr::k_closest_descendants(6), 1),
            setup::CD_TYPE,
        )
    };
    let movie = {
        let (doc, _) = dataset2_sized(7, 40);
        let schema = setup::movie_schema(&doc);
        (
            doc,
            schema,
            setup::movie_mapping(),
            table4_heuristic(HeuristicExpr::r_distant_descendants(2), 2),
            setup::MOVIE_TYPE,
        )
    };
    const BUDGET: usize = 8 * 1024; // sixteen 512 B frames
    for (tag, (doc, schema, mapping, heuristic, rw_type)) in [("cd", cd), ("movie", movie)] {
        let path = std::env::temp_dir().join(format!(
            "dogmatix-equivalence-paged-{}-{tag}.dxts2",
            std::process::id()
        ));
        let build = |backend: Option<Arc<PagedBackend>>, threads: usize| {
            let mut b = Dogmatix::builder()
                .mapping(mapping.clone())
                .heuristic(heuristic.clone())
                .theta_tuple(setup::THETA_TUPLE)
                .theta_cand(setup::THETA_CAND)
                .threads(threads);
            if let Some(backend) = backend {
                b = b.index_backend(backend);
            }
            b.build().run(&doc, &schema, rw_type).expect("run succeeds")
        };
        let reference = build(None, 1);
        let saved = build(
            Some(Arc::new(PagedBackend::save(&path).with_page_size(512))),
            1,
        );
        assert_eq!(reference, saved, "{tag}: paged save path diverged");
        let snapshot_len = std::fs::metadata(&path).expect("snapshot written").len();
        assert!(
            snapshot_len as usize > BUDGET,
            "{tag}: snapshot ({snapshot_len} B) must exceed the {BUDGET} B budget \
             for the test to exercise eviction"
        );
        for threads in [1usize, 2, 0] {
            let backend = Arc::new(PagedBackend::open(&path, BUDGET));
            let warm = build(Some(backend.clone()), threads);
            assert_eq!(
                reference, warm,
                "{tag}: paged warm start on {threads} threads diverged"
            );
            let stats = backend.last_stats().expect("load records pool stats");
            assert!(
                stats.peak_resident_bytes <= BUDGET,
                "{tag}: pool peaked at {} B over the {BUDGET} B budget",
                stats.peak_resident_bytes
            );
            assert!(
                stats.evictions > 0,
                "{tag}: a sub-snapshot budget must force evictions"
            );
        }
        let _ = std::fs::remove_file(&path);
    }
}
