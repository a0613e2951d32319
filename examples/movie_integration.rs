//! Data-integration scenario (the paper's Dataset 2): one movie universe
//! stored in two differently structured sources — an IMDB-like English
//! schema and a Film-Dienst-like German schema. The mapping `M` makes
//! elements comparable across sources (Table 6), including the composite
//! `firstname + lastname` rule.
//!
//! The radius sweep runs against one `DetectionSession`: the parsed
//! corpus, candidate set, and per-selection object descriptions are
//! derived once and shared by all four detector configurations.
//!
//! Run with: `cargo run --release --example movie_integration -- [n]`

use dogmatix_repro::core::heuristics::{table4_heuristic, HeuristicExpr};
use dogmatix_repro::core::pipeline::DetectionSession;
use dogmatix_repro::datagen::datasets::dataset2_sized;
use dogmatix_repro::eval::metrics::pair_metrics;
use dogmatix_repro::eval::setup;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(120);

    let (doc, gold) = dataset2_sized(7, n);
    let schema = setup::movie_schema(&doc);
    let mapping = setup::movie_mapping();

    println!("the mapping M (cf. Table 6):");
    print!("{}", mapping.to_text());
    println!();

    // One session for the whole sweep.
    let session = DetectionSession::new(&doc, &schema, &mapping, setup::MOVIE_TYPE)?;

    // exp2 = h[csdt] — string-typed data only, which drops the
    // always-contradictory dates; the strongest combination on this
    // scenario (see EXPERIMENTS.md).
    for r in 1..=4 {
        let heuristic = table4_heuristic(HeuristicExpr::r_distant_descendants(r), 2);
        let dx = setup::paper_detector(heuristic, mapping.clone()).build();
        let result = dx.detect(&session)?;
        let m = pair_metrics(&result.duplicate_pairs, &gold);
        println!(
            "hrd r={r}: {} pairs detected, recall {:5.1}%, precision {:5.1}%",
            result.duplicate_pairs.len(),
            m.recall() * 100.0,
            m.precision() * 100.0
        );
    }
    println!(
        "(the session served {} detector runs from {} cached OD sets)",
        4,
        session.cached_od_sets()
    );

    // Show a cross-source match.
    let heuristic = table4_heuristic(HeuristicExpr::r_distant_descendants(3), 2);
    let dx = setup::paper_detector(heuristic, mapping).build();
    let result = dx.detect(&session)?;
    // Show the most confident detection.
    let best = result
        .duplicate_pairs
        .iter()
        .max_by(|a, b| a.2.partial_cmp(&b.2).unwrap_or(std::cmp::Ordering::Equal));
    if let Some((i, j, sim)) = best {
        println!("\nexample cross-source duplicate (sim {sim:.3}):");
        for &cand in [result.candidates[*i], result.candidates[*j]].iter() {
            println!("  {}", doc.absolute_path(cand));
            let titles = doc.select_from(cand, ".//title")?;
            for t in titles {
                println!("    title: {}", doc.direct_text(t).unwrap_or_default());
            }
        }
    }
    Ok(())
}
