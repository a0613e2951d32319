//! Differential + robustness suite for the persistent term-index
//! snapshot backend (`dogmatix_core::backend::paged`):
//!
//! * **round trip** — build store → save → load → detection output
//!   bit-identical to the in-memory build, on the seeded CD and movie
//!   corpora, on one worker and on several;
//! * **robustness** — corrupted, truncated, padded and wrong-version
//!   snapshot files are rejected with a `DogmatixError::Snapshot` and
//!   never panic, for *every* byte position (flip), prefix length
//!   (truncation) and padding length the property cases sample.
//!
//! The number of property cases honours the `PROPTEST_CASES` override
//! (ci.sh raises it to 128).

use dogmatix_repro::core::backend::paged::PagedBackend;
use dogmatix_repro::core::heuristics::{table4_heuristic, HeuristicExpr};
use dogmatix_repro::core::pipeline::{DetectionResult, Dogmatix};
use dogmatix_repro::core::DogmatixError;
use dogmatix_repro::datagen::datasets::{dataset1_sized, dataset2_sized};
use dogmatix_repro::eval::setup;
use dogmatix_repro::xml::{Document, Schema};
use proptest::prelude::*;
use std::path::PathBuf;

fn temp_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dogmatix-snapshot-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(format!("{tag}.index"))
}

struct Corpus {
    doc: Document,
    schema: Schema,
    mapping: dogmatix_repro::core::Mapping,
    rw_type: &'static str,
    heuristic: HeuristicExpr,
}

fn cd_corpus() -> Corpus {
    let (doc, _) = dataset1_sized(42, 50);
    Corpus {
        doc,
        schema: setup::cd_schema(),
        mapping: setup::cd_mapping(),
        rw_type: setup::CD_TYPE,
        heuristic: table4_heuristic(HeuristicExpr::k_closest_descendants(6), 1),
    }
}

fn movie_corpus() -> Corpus {
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

fn detector(c: &Corpus, backend: Option<PagedBackend>, threads: usize) -> Dogmatix {
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

fn run(c: &Corpus, backend: Option<PagedBackend>, threads: usize) -> DetectionResult {
    detector(c, backend, threads)
        .run(&c.doc, &c.schema, c.rw_type)
        .expect("detection runs")
}

#[test]
fn cd_and_movie_snapshot_roundtrips_are_bit_identical() {
    for (tag, corpus) in [("cd", cd_corpus()), ("movie", movie_corpus())] {
        let path = temp_path(tag);
        let in_memory = run(&corpus, None, 1);
        let saved = run(&corpus, Some(PagedBackend::save(&path)), 1);
        assert_eq!(in_memory, saved, "{tag}: save run must not change results");
        let loaded = run(&corpus, Some(PagedBackend::open(&path)), 1);
        assert_eq!(in_memory, loaded, "{tag}: warm start must be bit-identical");
        assert!(
            !in_memory.duplicate_pairs.is_empty(),
            "{tag}: corpus contains duplicates"
        );
        // The snapshot path composes with the worker pool.
        for threads in [1usize, 2, 0] {
            let pooled = run(&corpus, Some(PagedBackend::open(&path)), threads);
            assert_eq!(
                in_memory, pooled,
                "{tag}: snapshot on {threads} threads diverged"
            );
        }
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn snapshot_reload_across_detector_instances_matches() {
    // A fresh process would re-resolve candidates; simulate by loading
    // through a brand-new detector + session over a re-parsed document.
    let corpus = cd_corpus();
    let path = temp_path("reparse");
    let cold = run(&corpus, Some(PagedBackend::save(&path)), 1);
    let reparsed = Corpus {
        doc: Document::parse(&corpus.doc.to_xml()).expect("roundtrip parse"),
        ..cd_corpus()
    };
    let warm = run(&reparsed, Some(PagedBackend::open(&path)), 1);
    assert_eq!(cold.duplicate_pairs, warm.duplicate_pairs);
    assert_eq!(cold.clusters, warm.clusters);
    assert_eq!(cold.f_values, warm.f_values);
    assert_eq!(*cold.ods, *warm.ods);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn wrong_version_snapshots_are_rejected() {
    // The retired flat version 1 and unknown versions are refused, and
    // the refusal names the one version this build reads.
    let (corpus, bytes) = reference_paged_snapshot();
    for version in [0u32, 1, 3, 7, u32::MAX] {
        let mut mutated = bytes.clone();
        mutated[4..8].copy_from_slice(&version.to_le_bytes());
        let path = temp_path("wrong-version");
        std::fs::write(&path, &mutated).expect("write");
        let err = detector(&corpus, Some(PagedBackend::open(&path)), 1)
            .run(&corpus.doc, &corpus.schema, corpus.rw_type)
            .unwrap_err();
        let _ = std::fs::remove_file(&path);
        assert!(matches!(err, DogmatixError::Snapshot { .. }), "{err}");
        let msg = err.to_string();
        assert!(msg.contains(&format!("version {version}")), "{msg}");
        assert!(msg.contains("version 2"), "{msg}");
    }
}

#[test]
fn snapshot_against_a_mutated_corpus_is_rejected() {
    // Save against the 50-original corpus, load against a larger one:
    // the candidate count no longer matches.
    let corpus = cd_corpus();
    let path = temp_path("stale-corpus");
    let _ = run(&corpus, Some(PagedBackend::save(&path)), 1);
    let (bigger_doc, _) = dataset1_sized(42, 60);
    let bigger = Corpus {
        doc: bigger_doc,
        ..cd_corpus()
    };
    let err = detector(&bigger, Some(PagedBackend::open(&path)), 1)
        .run(&bigger.doc, &bigger.schema, bigger.rw_type)
        .unwrap_err();
    let _ = std::fs::remove_file(&path);
    assert!(
        matches!(err, DogmatixError::Snapshot { .. }),
        "stale snapshot must be rejected: {err}"
    );
}

#[test]
fn snapshot_against_edited_content_same_shape_is_rejected() {
    // An in-place value edit leaves the candidate count and selection
    // untouched — only the document-content fingerprint catches it.
    let corpus = cd_corpus();
    let path = temp_path("edited-content");
    let _ = run(&corpus, Some(PagedBackend::save(&path)), 1);
    let xml = corpus.doc.to_xml();
    let needle = xml
        .match_indices("<artist>")
        .next()
        .map(|(i, _)| i)
        .expect("corpus has artists");
    let edited = format!(
        "{}<artist>Totally Edited Artist</artist>{}",
        &xml[..needle],
        &xml[needle..]
            .split_once("</artist>")
            .expect("closing tag")
            .1
    );
    let edited_corpus = Corpus {
        doc: Document::parse(&edited).expect("edited corpus parses"),
        ..cd_corpus()
    };
    let err = detector(&edited_corpus, Some(PagedBackend::open(&path)), 1)
        .run(
            &edited_corpus.doc,
            &edited_corpus.schema,
            edited_corpus.rw_type,
        )
        .unwrap_err();
    let _ = std::fs::remove_file(&path);
    assert!(
        err.to_string().contains("different document content"),
        "same-shape content edit must be rejected: {err}"
    );
}

// ---- corruption properties -------------------------------------------

/// A reference snapshot built once for the corruption properties, with
/// small pages so the image spans many pages.
fn reference_paged_snapshot() -> (Corpus, Vec<u8>) {
    let corpus = cd_corpus();
    let path = temp_path(&format!(
        "paged-reference-{}",
        std::thread::current()
            .name()
            .unwrap_or("t")
            .replace("::", "-")
    ));
    detector(
        &corpus,
        Some(PagedBackend::save(&path).with_page_size(512)),
        1,
    )
    .run(&corpus.doc, &corpus.schema, corpus.rw_type)
    .expect("paged save run");
    let bytes = std::fs::read(&path).expect("paged snapshot written");
    let _ = std::fs::remove_file(&path);
    (corpus, bytes)
}

/// A mutated image must be rejected (or be a no-op mutation): loading
/// it must never panic or return garbage.
fn assert_paged_mutation_handled(
    corpus: &Corpus,
    original: &DetectionResult,
    mutated: &[u8],
    what: &str,
) {
    let path = temp_path(&format!(
        "paged-mutated-{}",
        std::thread::current()
            .name()
            .unwrap_or("t")
            .replace("::", "-")
    ));
    std::fs::write(&path, mutated).expect("write mutated paged snapshot");
    let outcome = detector(corpus, Some(PagedBackend::open(&path)), 1).run(
        &corpus.doc,
        &corpus.schema,
        corpus.rw_type,
    );
    match outcome {
        Err(DogmatixError::Snapshot { .. }) => {}
        Err(other) => panic!("{what}: unexpected error kind {other}"),
        Ok(result) => assert_eq!(
            &result, original,
            "{what}: a mutation that loads must be a no-op mutation"
        ),
    }
    let _ = std::fs::remove_file(&path);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(
        std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(24)
    ))]

    #[test]
    fn corrupted_paged_snapshots_never_panic(position in 0usize..1_000_000, byte in 0u8..=255) {
        let (corpus, bytes) = reference_paged_snapshot();
        let original = run(&corpus, None, 1);
        let mut mutated = bytes.clone();
        let pos = position % mutated.len();
        mutated[pos] = byte;
        assert_paged_mutation_handled(&corpus, &original, &mutated, "paged byte flip");
    }

    #[test]
    fn truncated_paged_snapshots_never_panic(cut in 0usize..1_000_000) {
        let (corpus, bytes) = reference_paged_snapshot();
        let cut = cut % bytes.len();
        let original = run(&corpus, None, 1);
        assert_paged_mutation_handled(&corpus, &original, &bytes[..cut], "paged truncation");
    }

    #[test]
    fn extended_paged_snapshots_never_panic(extra in 1usize..4096) {
        // Appended garbage changes no described byte — only the exact
        // file-length check can catch it.
        let (corpus, bytes) = reference_paged_snapshot();
        let original = run(&corpus, None, 1);
        let mut padded = bytes.clone();
        padded.resize(bytes.len() + extra, 0xAB);
        assert_paged_mutation_handled(&corpus, &original, &padded, "paged padding");
    }
}

#[test]
fn every_data_page_is_checksum_protected() {
    // Flip one byte in EVERY page, one page at a time: the per-page
    // checksum table must name the corrupted block each time.
    let (corpus, bytes) = reference_paged_snapshot();
    let page_size = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
    let page_count = u32::from_le_bytes(bytes[16..20].try_into().unwrap()) as usize;
    let header_len = u32::from_le_bytes(bytes[20..24].try_into().unwrap()) as usize;
    assert!(page_count > 4, "reference must span several pages");
    let path = temp_path("paged-per-page");
    for page in 0..page_count {
        let mut mutated = bytes.clone();
        mutated[header_len + page * page_size] ^= 0x01;
        std::fs::write(&path, &mutated).expect("write");
        let err = detector(&corpus, Some(PagedBackend::open(&path)), 1)
            .run(&corpus.doc, &corpus.schema, corpus.rw_type)
            .unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("checksum mismatch on block"),
            "page {page}: {msg}"
        );
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn failed_saves_leave_the_previous_snapshot_intact() {
    // A save that dies mid-write (simulated by a directory squatting on
    // the temp-file name) must not clobber the previously installed
    // snapshot.
    let corpus = cd_corpus();
    let original = run(&corpus, None, 1);
    let path = temp_path("atomic");
    run(&corpus, Some(PagedBackend::save(&path)), 1);
    let good = std::fs::read(&path).expect("snapshot installed");

    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    std::fs::create_dir_all(&tmp).expect("squat temp name");
    let err = detector(&corpus, Some(PagedBackend::save(&path)), 1)
        .run(&corpus.doc, &corpus.schema, corpus.rw_type)
        .unwrap_err();
    assert!(matches!(err, DogmatixError::Snapshot { .. }), "{err}");
    assert_eq!(
        std::fs::read(&path).expect("previous snapshot survives"),
        good,
        "failed save must not touch the installed file"
    );
    std::fs::remove_dir_all(&tmp).expect("clear squat");

    // And the surviving file still warm-starts bit-identically.
    let warm = run(&corpus, Some(PagedBackend::open(&path)), 1);
    assert_eq!(original, warm, "surviving snapshot diverged");
    assert!(!tmp.exists(), "temp artefact left behind");
    let _ = std::fs::remove_file(&path);
}
