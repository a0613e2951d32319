//! Shared wiring: datasets → schema, mapping, and detector configuration.

use dogmatix_core::heuristics::HeuristicExpr;
use dogmatix_core::mapping::Mapping;
use dogmatix_core::pipeline::{Dogmatix, DogmatixBuilder};
use dogmatix_datagen::cd::{CD_CANDIDATE_PATH, CD_XSD};
use dogmatix_datagen::movie::{movie_description_types, MOVIE_CANDIDATE_PATHS};
use dogmatix_xml::{Document, Schema};

/// The paper's thresholds: `θ_tuple = 0.15`, `θ_cand = 0.55`.
pub const THETA_TUPLE: f64 = 0.15;
/// See [`THETA_TUPLE`].
pub const THETA_CAND: f64 = 0.55;

/// Real-world type name of the CD candidates.
pub const CD_TYPE: &str = "DISC";
/// Real-world type name of the movie candidates.
pub const MOVIE_TYPE: &str = "MOVIE";

/// Schema for the CD corpus (Datasets 1 and 3), parsed from the XSD that
/// mirrors Table 5.
pub fn cd_schema() -> Schema {
    // dxlint: allow(no-panic) — experiment driver over the bundled corpus; abort on bad wiring is intended
    Schema::parse_xsd(CD_XSD).expect("the bundled CD XSD is valid")
}

/// Mapping for the CD corpus: candidates only — description elements use
/// the identity mapping (each path is its own real-world type), which is
/// exact for a single-schema scenario.
pub fn cd_mapping() -> Mapping {
    let mut m = Mapping::new();
    m.add_type(CD_TYPE, [CD_CANDIDATE_PATH]);
    m
}

/// Schema for Dataset 2, inferred from the integrated document (the two
/// sources come schemaless; inference observes cardinalities and types).
pub fn movie_schema(doc: &Document) -> Schema {
    // dxlint: allow(no-panic) — experiment driver over the bundled corpus; abort on bad wiring is intended
    Schema::infer(doc).expect("dataset 2 documents are non-empty")
}

/// Mapping for Dataset 2: the MOVIE candidates span both sources, and the
/// comparable description elements follow Table 6. Table 6's
/// `firstname + lastname` entry is implemented as a composite value rule:
/// a Film-Dienst `person` contributes one PERSON tuple whose value is the
/// concatenation of its `firstname` and `lastname` children.
pub fn movie_mapping() -> Mapping {
    let mut m = Mapping::new();
    m.add_type(MOVIE_TYPE, MOVIE_CANDIDATE_PATHS);
    for (name, paths) in movie_description_types() {
        m.add_type(name, paths);
    }
    m.add_composite(dogmatix_core::mapping::CompositeRule {
        owner_path: "/integrated/filmdienst/movie/people/person".to_string(),
        parts: vec!["firstname".to_string(), "lastname".to_string()],
        rw_type: "PERSON".to_string(),
    });
    m
}

/// The paper's detector for `heuristic` over `mapping`: its thresholds,
/// the object filter and comparison on all cores. Adjust it further
/// (say, `.no_filter()` for the Section 6.3 ablation) before `.build()`.
/// The figure sweeps build one per measurement point and reuse a
/// [`dogmatix_core::pipeline::DetectionSession`] across all points.
pub fn paper_detector(heuristic: HeuristicExpr, mapping: Mapping) -> DogmatixBuilder {
    Dogmatix::builder()
        .mapping(mapping)
        .heuristic(heuristic)
        .theta_tuple(THETA_TUPLE)
        .theta_cand(THETA_CAND)
        .threads(0)
}

/// Renders a two-metric sweep as a fixed-width text table; `xs` labels
/// the sweep axis (e.g. `k` values), one row per series.
pub fn render_series_table(
    title: &str,
    x_label: &str,
    xs: &[String],
    series: &[(String, Vec<f64>)],
) -> String {
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    out.push_str(&format!("{x_label:<10}"));
    for x in xs {
        out.push_str(&format!("{x:>9}"));
    }
    out.push('\n');
    for (name, values) in series {
        out.push_str(&format!("{name:<10}"));
        for v in values {
            out.push_str(&format!("{:>8.1}%", v * 100.0));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cd_wiring_is_consistent() {
        let schema = cd_schema();
        let mapping = cd_mapping();
        let path = &mapping.paths_of(CD_TYPE).unwrap()[0];
        assert!(schema.find_by_path(path).is_some());
    }

    #[test]
    fn movie_mapping_spans_sources() {
        let m = movie_mapping();
        assert_eq!(m.paths_of(MOVIE_TYPE).unwrap().len(), 2);
        // Titles from both sources are comparable.
        assert!(m.comparable(
            "/integrated/imdb/movie/title",
            "/integrated/filmdienst/movie/aka-title/title"
        ));
        // Across types they are not.
        assert!(!m.comparable(
            "/integrated/imdb/movie/title",
            "/integrated/imdb/movie/genre"
        ));
    }

    #[test]
    fn series_table_renders() {
        let t = render_series_table(
            "demo",
            "k",
            &["1".into(), "2".into()],
            &[("exp1".into(), vec![0.5, 1.0])],
        );
        assert!(t.contains("demo"));
        assert!(t.contains("50.0%"));
        assert!(t.contains("100.0%"));
    }
}
