//! Cross-crate property tests: random miniature corpora through the
//! whole pipeline, checking invariants that must hold for any input.

mod common;

use common::{build_doc, dirty_corpus_strategy, record_strategy, MiniRecord};
use dogmatix_repro::core::filter::QGramBlocking;
use dogmatix_repro::core::heuristics::HeuristicExpr;
use dogmatix_repro::core::pipeline::Dogmatix;
use dogmatix_repro::core::sim::{DistCache, SimEngine};
use dogmatix_repro::core::Mapping;
use dogmatix_repro::xml::{Document, Schema};
use proptest::prelude::*;

fn corpus_strategy() -> impl Strategy<Value = Vec<MiniRecord>> {
    proptest::collection::vec(record_strategy(), 2..14)
}

fn detect(
    records: &[MiniRecord],
    theta_tuple: f64,
    use_filter: bool,
) -> (Document, dogmatix_repro::core::DetectionResult) {
    let doc = build_doc(records);
    let schema = Schema::infer(&doc).expect("non-empty docs infer");
    let mut mapping = Mapping::new();
    mapping.add_type("ITEM", ["/db/item"]);
    let mut builder = Dogmatix::builder()
        .mapping(mapping)
        .heuristic(HeuristicExpr::r_distant_descendants(2))
        .theta_tuple(theta_tuple);
    if !use_filter {
        builder = builder.no_filter();
    }
    let result = builder
        .build()
        .run(&doc, &schema, "ITEM")
        .expect("pipeline runs on any well-formed corpus");
    (doc, result)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The count-filter guarantee: `QGramBlocking`'s candidate pair set
    /// is a superset of every pair brute-force edit distance finds a
    /// similar tuple pair for — and hence of every pair the exhaustive
    /// pipeline classifies as duplicates — on generated dirty corpora.
    #[test]
    fn qgram_blocking_is_superset_of_brute_force(
        records in dirty_corpus_strategy(),
        theta in 0.05f64..0.7,
        q in 2usize..4,
    ) {
        let (_, exhaustive) = detect(&records, theta, false);
        let ods = &exhaustive.ods;
        let plan = QGramBlocking::new(q, theta).plan(ods);

        // Tuple-level brute force: any pair of objects holding a
        // comparable tuple pair within the threshold must survive.
        for i in 0..ods.len() {
            for j in (i + 1)..ods.len() {
                let similar = ods.od(i).tuples().any(|ti| {
                    ods.od(j).tuples().any(|tj| {
                        ti.type_id() == tj.type_id()
                            && dogmatix_repro::textsim::ned(
                                ods.term(ti.term()).norm(),
                                ods.term(tj.term()).norm(),
                            ) < theta
                    })
                });
                if similar {
                    prop_assert!(
                        plan.pairs.contains(&(i, j)),
                        "q={} theta={}: pair ({i},{j}) with a similar tuple \
                         pair missing from the q-gram plan", q, theta
                    );
                }
            }
        }

        // Pipeline-level corollary: every exhaustively detected
        // duplicate pair is in the plan.
        for &(i, j, _) in &exhaustive.duplicate_pairs {
            prop_assert!(plan.pairs.contains(&(i, j)), "duplicate ({i},{j}) lost");
        }
    }

    #[test]
    fn sim_is_symmetric_and_bounded(records in corpus_strategy(),
                                    theta in 0.05f64..0.9) {
        let (_, result) = detect(&records, theta, false);
        let engine = SimEngine::new(&result.ods, theta);
        let mut cache = DistCache::new();
        let n = result.ods.len();
        for i in 0..n {
            for j in (i + 1)..n {
                let a = engine.sim(i, j, &mut cache);
                let b = engine.sim(j, i, &mut cache);
                prop_assert!((a - b).abs() < 1e-9, "sim({i},{j}) {a} != {b}");
                prop_assert!((0.0..=1.0).contains(&a));
            }
        }
    }

    #[test]
    fn identical_records_always_cluster(record in record_strategy(),
                                        padding in corpus_strategy()) {
        // A record and its exact copy must be detected as duplicates
        // regardless of the rest of the corpus (their sim is 1 whenever
        // any positive-idf data exists; softIDF degenerates only if the
        // padding contains the exact same record too).
        let mut records = padding.clone();
        // Make the pair's title unique relative to the padding.
        let mut target = record.clone();
        target.title = format!("{} zzzuniq", target.title);
        records.push(target.clone());
        records.push(target.clone());
        let (_, result) = detect(&records, 0.15, false);
        let a = records.len() - 2;
        let b = records.len() - 1;
        prop_assert!(result.is_duplicate(a, b),
            "exact copies not detected: {target:?}");
    }

    #[test]
    fn filter_only_removes_pairs(records in corpus_strategy()) {
        let (_, with) = detect(&records, 0.15, true);
        let (_, without) = detect(&records, 0.15, false);
        for pair in &with.duplicate_pairs {
            prop_assert!(without.duplicate_pairs.contains(pair));
        }
    }

    #[test]
    fn output_xpaths_resolve(records in corpus_strategy()) {
        let (doc, result) = detect(&records, 0.3, false);
        let out = result.to_xml(&doc);
        for dup in out.select("/duplicates/dupcluster/duplicate").unwrap() {
            let xp = out.attr(dup, "xpath").unwrap();
            prop_assert_eq!(doc.select(xp).unwrap().len(), 1, "xpath {}", xp);
        }
    }

    #[test]
    fn clusters_partition_their_members(records in corpus_strategy()) {
        let (_, result) = detect(&records, 0.3, false);
        let mut seen = std::collections::HashSet::new();
        for cluster in &result.clusters {
            prop_assert!(cluster.len() >= 2);
            for m in cluster {
                prop_assert!(seen.insert(*m), "candidate {} in two clusters", m);
            }
        }
    }

    #[test]
    fn stats_are_consistent(records in corpus_strategy()) {
        let (_, result) = detect(&records, 0.15, true);
        let n = result.stats.candidates;
        prop_assert_eq!(n, records.len());
        prop_assert_eq!(result.stats.pairs_total, n * n.saturating_sub(1) / 2);
        prop_assert!(result.stats.pairs_compared <= result.stats.pairs_total);
        let active = n - result.stats.pruned_by_filter;
        prop_assert_eq!(
            result.stats.pairs_compared,
            active * active.saturating_sub(1) / 2
        );
    }
}
