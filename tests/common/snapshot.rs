//! The snapshot fixture shared by `snapshot.rs` (round trips and
//! refusals) and `corruption.rs` (damaged snapshot files): the seeded CD
//! and movie corpora and a detector over them, with or without a
//! snapshot backend.

use dogmatix_repro::core::backend::snapshot::SnapshotBackend;
use dogmatix_repro::core::heuristics::{table4_heuristic, HeuristicExpr};
use dogmatix_repro::core::pipeline::{DetectionResult, Dogmatix};
use dogmatix_repro::datagen::datasets::{dataset1_sized, dataset2_sized};
use dogmatix_repro::eval::setup;
use dogmatix_repro::xml::{Document, Schema};
use std::path::PathBuf;

pub fn temp_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dogmatix-snapshot-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(format!("{tag}.index"))
}

pub struct Corpus {
    pub doc: Document,
    pub schema: Schema,
    pub mapping: dogmatix_repro::core::Mapping,
    pub rw_type: &'static str,
    pub heuristic: HeuristicExpr,
}

pub fn cd_corpus() -> Corpus {
    let (doc, _) = dataset1_sized(42, 50);
    Corpus {
        doc,
        schema: setup::cd_schema(),
        mapping: setup::cd_mapping(),
        rw_type: setup::CD_TYPE,
        heuristic: table4_heuristic(HeuristicExpr::k_closest_descendants(6), 1),
    }
}

pub fn movie_corpus() -> Corpus {
    let (doc, _) = dataset2_sized(42, 30);
    let schema = setup::movie_schema(&doc);
    Corpus {
        doc,
        schema,
        mapping: setup::movie_mapping(),
        rw_type: setup::MOVIE_TYPE,
        heuristic: table4_heuristic(HeuristicExpr::r_distant_descendants(2), 1),
    }
}

pub fn detector(c: &Corpus, backend: Option<SnapshotBackend>, threads: usize) -> Dogmatix {
    let mut b = Dogmatix::builder()
        .mapping(c.mapping.clone())
        .heuristic(c.heuristic.clone())
        .theta_tuple(setup::THETA_TUPLE)
        .theta_cand(setup::THETA_CAND)
        .threads(threads);
    if let Some(backend) = backend {
        b = b.index_backend(backend);
    }
    b.build()
}

pub fn run(c: &Corpus, backend: Option<SnapshotBackend>, threads: usize) -> DetectionResult {
    detector(c, backend, threads)
        .run(&c.doc, &c.schema, c.rw_type)
        .expect("detection runs")
}
