//! Differential + refusal suite for the persistent term-index snapshot
//! backend (`dogmatix_core::backend::snapshot`):
//!
//! * **round trip** — build store → save → load → detection output
//!   bit-identical to the in-memory build, on the seeded CD and movie
//!   corpora, on one worker and on several;
//! * **refusals** — wrong-version files and snapshots of another corpus
//!   state are rejected with a `DogmatixError::Snapshot`, and a failed
//!   save leaves the installed file intact.
//!
//! Byte flips, truncations and padding of a snapshot file are covered
//! with the checkpoints by the sealed-record suite, `tests/corruption.rs`.

mod common;

use common::snapshot::{cd_corpus, detector, movie_corpus, run, temp_path, Corpus};
use dogmatix_repro::core::backend::snapshot::SnapshotBackend;
use dogmatix_repro::core::DogmatixError;
use dogmatix_repro::datagen::datasets::dataset1_sized;
use dogmatix_repro::xml::Document;
use std::path::PathBuf;

#[test]
fn cd_and_movie_snapshot_roundtrips_are_bit_identical() {
    for (tag, corpus) in [("cd", cd_corpus()), ("movie", movie_corpus())] {
        let path = temp_path(tag);
        let in_memory = run(&corpus, None, 1);
        let saved = run(&corpus, Some(SnapshotBackend::save(&path)), 1);
        assert_eq!(in_memory, saved, "{tag}: save run must not change results");
        let loaded = run(&corpus, Some(SnapshotBackend::open(&path)), 1);
        assert_eq!(in_memory, loaded, "{tag}: warm start must be bit-identical");
        assert!(
            !in_memory.duplicate_pairs.is_empty(),
            "{tag}: corpus contains duplicates"
        );
        // The snapshot path composes with the worker pool.
        for threads in [1usize, 2, 0] {
            let pooled = run(&corpus, Some(SnapshotBackend::open(&path)), threads);
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
    let cold = run(&corpus, Some(SnapshotBackend::save(&path)), 1);
    let reparsed = Corpus {
        doc: Document::parse(&corpus.doc.to_xml()).expect("roundtrip parse"),
        ..cd_corpus()
    };
    let warm = run(&reparsed, Some(SnapshotBackend::open(&path)), 1);
    assert_eq!(cold.duplicate_pairs, warm.duplicate_pairs);
    assert_eq!(cold.clusters, warm.clusters);
    assert_eq!(cold.f_values, warm.f_values);
    assert_eq!(*cold.ods, *warm.ods);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn wrong_version_snapshots_are_rejected() {
    // Retired versions (the flat 1, the paged 2) and unknown ones are
    // refused, and the refusal names the one version this build reads.
    let corpus = cd_corpus();
    let path = temp_path("wrong-version");
    run(&corpus, Some(SnapshotBackend::save(&path)), 1);
    let bytes = std::fs::read(&path).expect("snapshot written");
    for version in [0u32, 1, 2, 4, 7, u32::MAX] {
        let mut mutated = bytes.clone();
        mutated[4..8].copy_from_slice(&version.to_le_bytes());
        std::fs::write(&path, &mutated).expect("write");
        let err = detector(&corpus, Some(SnapshotBackend::open(&path)), 1)
            .run(&corpus.doc, &corpus.schema, corpus.rw_type)
            .unwrap_err();
        assert!(matches!(err, DogmatixError::Snapshot { .. }), "{err}");
        let msg = err.to_string();
        assert!(msg.contains(&format!("version {version}")), "{msg}");
        assert!(msg.contains("version 3"), "{msg}");
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn snapshot_against_a_mutated_corpus_is_rejected() {
    // Save against the 50-original corpus, load against a larger one:
    // the candidate count no longer matches.
    let corpus = cd_corpus();
    let path = temp_path("stale-corpus");
    let _ = run(&corpus, Some(SnapshotBackend::save(&path)), 1);
    let (bigger_doc, _) = dataset1_sized(42, 60);
    let bigger = Corpus {
        doc: bigger_doc,
        ..cd_corpus()
    };
    let err = detector(&bigger, Some(SnapshotBackend::open(&path)), 1)
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
    let _ = run(&corpus, Some(SnapshotBackend::save(&path)), 1);
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
    let err = detector(&edited_corpus, Some(SnapshotBackend::open(&path)), 1)
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

#[test]
fn failed_saves_leave_the_previous_snapshot_intact() {
    // A save that dies mid-write (simulated by a directory squatting on
    // the temp-file name) must not clobber the previously installed
    // snapshot.
    let corpus = cd_corpus();
    let original = run(&corpus, None, 1);
    let path = temp_path("atomic");
    run(&corpus, Some(SnapshotBackend::save(&path)), 1);
    let good = std::fs::read(&path).expect("snapshot installed");

    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    std::fs::create_dir_all(&tmp).expect("squat temp name");
    let err = detector(&corpus, Some(SnapshotBackend::save(&path)), 1)
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
    let warm = run(&corpus, Some(SnapshotBackend::open(&path)), 1);
    assert_eq!(original, warm, "surviving snapshot diverged");
    assert!(!tmp.exists(), "temp artefact left behind");
    let _ = std::fs::remove_file(&path);
}
