//! Integration test: the paper's running example, end to end.
//!
//! Table 1 (three movies) + Table 3 (mapping) through the full pipeline,
//! checking the Table 2 object descriptions, the Example 3 verdicts, and
//! the Fig. 3 output document.

use dogmatix_repro::core::heuristics::HeuristicExpr;
use dogmatix_repro::core::pipeline::Dogmatix;
use dogmatix_repro::core::Mapping;
use dogmatix_repro::xml::{Document, Schema};

fn table1_document() -> Document {
    Document::parse(
        "<moviedoc>\
           <movie><title>The Matrix</title><year>1999</year>\
             <actor><name>Keanu Reeves</name><role>Neo</role></actor>\
             <actor><name>L. Fishburne</name><role>Morpheus</role></actor></movie>\
           <movie><title>Matrix</title><year>1999</year>\
             <actor><name>Keanu Reeves</name><role>The One</role></actor></movie>\
           <movie><title>Signs</title><year>2002</year>\
             <actor><name>Mel Gibson</name><role>Graham Hess</role></actor></movie>\
         </moviedoc>",
    )
    .expect("Table 1 XML is well-formed")
}

fn table3_mapping() -> Mapping {
    Mapping::parse(
        "MOVIE: $doc/moviedoc/movie\n\
         TITLE: $doc/moviedoc/movie/title\n\
         YEAR: $doc/moviedoc/movie/year\n\
         ACTOR: $doc/moviedoc/movie/actor\n\
         ACTORNAME: $doc/moviedoc/movie/actor/name\n\
         ACTORROLE: $doc/moviedoc/movie/actor/role\n",
    )
    .expect("Table 3 mapping is well-formed")
}

fn run_example() -> (Document, dogmatix_repro::core::DetectionResult) {
    let doc = table1_document();
    let schema = Schema::infer(&doc).expect("inference works on the example");
    let result = Dogmatix::builder()
        .mapping(table3_mapping())
        .heuristic(HeuristicExpr::r_distant_descendants(2))
        .theta_tuple(0.45) // admits "Matrix" ~ "The Matrix" (ned 0.4)
        .no_filter() // 3 candidates need no comparison reduction
        .build()
        .run(&doc, &schema, "MOVIE")
        .expect("the example pipeline runs");
    (doc, result)
}

#[test]
fn matrix_movies_form_the_only_cluster() {
    let (_, result) = run_example();
    assert_eq!(result.stats.candidates, 3);
    assert_eq!(result.duplicate_pairs.len(), 1);
    assert_eq!(result.clusters, vec![vec![0, 1]]);
    // "movie 3 has no duplicate because it does not share any OD with
    // either movie 1 or movie 2" (Example 3).
    assert!(!result.is_duplicate(0, 2));
    assert!(!result.is_duplicate(1, 2));
}

#[test]
fn object_descriptions_match_table2_contents() {
    let (_, result) = run_example();
    // Movie 1's OD per Table 2 (plus the roles, which r=2 includes):
    // must contain title, year, and both actor names.
    let values: Vec<&str> = result.ods.od(0).tuples().map(|t| t.value()).collect();
    for expected in ["The Matrix", "1999", "Keanu Reeves", "L. Fishburne"] {
        assert!(values.contains(&expected), "missing {expected}: {values:?}");
    }
    // Tuple types follow the mapping M.
    let title_tuple = result
        .ods
        .od(0)
        .tuples()
        .find(|t| t.value() == "The Matrix")
        .unwrap();
    assert_eq!(title_tuple.rw_type(), "TITLE");
}

#[test]
fn fig3_output_identifies_duplicates_by_xpath() {
    let (doc, result) = run_example();
    let out = result.to_xml(&doc);
    let clusters = out.select("/duplicates/dupcluster").unwrap();
    assert_eq!(clusters.len(), 1);
    assert_eq!(out.attr(clusters[0], "oid"), Some("1"));
    let members = out.select("/duplicates/dupcluster/duplicate").unwrap();
    let xpaths: Vec<&str> = members
        .iter()
        .map(|m| out.attr(*m, "xpath").unwrap())
        .collect();
    assert_eq!(
        xpaths,
        vec!["/moviedoc[1]/movie[1]", "/moviedoc[1]/movie[2]"]
    );
    // The XPaths resolve back to the movie elements in the source.
    for xp in xpaths {
        let found = doc.select(xp).unwrap();
        assert_eq!(found.len(), 1);
        assert_eq!(doc.name(found[0]), Some("movie"));
    }
}

#[test]
fn incomparable_types_never_mix() {
    // ACTORNAME and ACTORROLE are distinct real-world types in M, so
    // "Neo" (role) must never pair with "Keanu Reeves" (name) — neither
    // as similar nor as contradictory data.
    let (_, result) = run_example();
    let engine = dogmatix_repro::core::sim::SimEngine::new(&result.ods, 0.45);
    let mut cache = dogmatix_repro::core::sim::DistCache::new();
    let b = engine.breakdown(0, 1, &mut cache);
    for pair in b.similar.iter().chain(b.contradictory.iter()) {
        let ti = result.ods.od(0).tuple(pair.tuple_i);
        let tj = result.ods.od(1).tuple(pair.tuple_j);
        assert_eq!(
            ti.rw_type(),
            tj.rw_type(),
            "{} vs {}",
            ti.value(),
            tj.value()
        );
    }
}
