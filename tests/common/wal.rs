//! The write-ahead-log fixture shared by `wal.rs` (log tears) and
//! `corruption.rs` (damaged checkpoints): a small session, the
//! reference log and checkpoint bytes it leaves behind, and the
//! differential check of a recovered session against an uninterrupted
//! control.

use super::{build_doc, MiniRecord};
use dogmatix_repro::core::incremental::{DocumentDelta, IncrementalSession};
use dogmatix_repro::core::pipeline::{DetectionResult, Dogmatix};
use dogmatix_repro::core::wal::{FsyncPolicy, Recovery, Wal};
use dogmatix_repro::core::DogmatixError;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// Log bytes, checkpoint bytes, and the control verdicts after each
/// prefix of the delta stream (`prefixes[k]` = verdicts with only the
/// first `k` deltas applied).
pub type Reference = (Vec<u8>, Vec<u8>, Vec<DetectionResult>);

fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dogmatix-wal-tests-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Unique scratch log path (proptest cases must not share files).
pub fn scratch_log(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    temp_dir().join(format!("{tag}-{n}.wal"))
}

pub fn ckpt_path(log: &Path) -> PathBuf {
    let mut name = log.as_os_str().to_os_string();
    name.push(".ckpt");
    PathBuf::from(name)
}

pub fn remove_log(log: &Path) {
    let _ = std::fs::remove_file(log);
    let _ = std::fs::remove_file(ckpt_path(log));
}

pub fn detector() -> Dogmatix {
    Dogmatix::builder()
        .add_type("ITEM", ["/db/item"])
        .theta_tuple(0.3)
        .no_filter()
        .build()
}

fn seed_records() -> Vec<MiniRecord> {
    (0..4)
        .map(|i| MiniRecord {
            title: format!("seed title {i}"),
            year: 1990 + i,
            names: vec![format!("Person{i}")],
        })
        .collect()
}

fn seed_deltas() -> Vec<DocumentDelta> {
    vec![
        // A planted duplicate of item 0.
        DocumentDelta::InsertXml {
            parent_path: "/db".into(),
            xml: "<item><title>seed title 0</title><year>1990</year>\
                  <person><name>Person0</name></person></item>"
                .into(),
        },
        DocumentDelta::UpdateText {
            index: 1,
            path: "title".into(),
            occurrence: 0,
            value: "retitled mid stream".into(),
        },
        DocumentDelta::RemoveObject { index: 2 },
    ]
}

/// The valid reference artefacts: the committed log and the genesis
/// checkpoint (which holds no store) after all three deltas, plus the
/// control prefixes. Built once per test binary.
pub fn reference() -> &'static Reference {
    static REFERENCE: OnceLock<Reference> = OnceLock::new();
    REFERENCE.get_or_init(|| {
        let dx = detector();
        let deltas = seed_deltas();
        let path = scratch_log("reference");
        let mut s = dx
            .incremental_session_inferred(build_doc(&seed_records()), "ITEM")
            .expect("session opens");
        let mut wal = Wal::create(&path, &s, FsyncPolicy::Batch).expect("create WAL");
        for delta in &deltas {
            wal.append(delta).expect("append");
            dx.detect_delta(&mut s, std::slice::from_ref(delta))
                .expect("delta applies");
        }
        wal.commit().expect("commit");
        drop(wal);
        let log = std::fs::read(&path).expect("log written");
        let ckpt = std::fs::read(ckpt_path(&path)).expect("checkpoint written");
        remove_log(&path);

        let prefixes = (0..=deltas.len())
            .map(|k| {
                let mut control = dx
                    .incremental_session_inferred(build_doc(&seed_records()), "ITEM")
                    .expect("control opens");
                dx.detect_delta(&mut control, &[]).expect("initial run");
                dx.detect_delta(&mut control, &deltas[..k])
                    .expect("control prefix applies")
            })
            .collect();
        (log, ckpt, prefixes)
    })
}

/// The reference stream behind a checkpoint that embeds a store image:
/// the session runs its initial detection, the WAL's first checkpoint is
/// taken on that clean session (so it carries a DXTS v3 image), and the
/// three deltas follow in the log. Built once per test binary; recovery
/// replays all three deltas, so the matching control is `prefixes[3]`.
pub fn store_reference() -> &'static Reference {
    static REFERENCE: OnceLock<Reference> = OnceLock::new();
    REFERENCE.get_or_init(|| {
        let dx = detector();
        let path = scratch_log("store-reference");
        let mut s = dx
            .incremental_session_inferred(build_doc(&seed_records()), "ITEM")
            .expect("session opens");
        dx.detect_delta(&mut s, &[]).expect("initial run");
        let mut wal = Wal::create(&path, &s, FsyncPolicy::Batch).expect("create WAL");
        wal.checkpoint(&s).expect("checkpoint a clean session");
        for delta in &seed_deltas() {
            wal.append(delta).expect("append");
            dx.detect_delta(&mut s, std::slice::from_ref(delta))
                .expect("delta applies");
        }
        wal.commit().expect("commit");
        drop(wal);
        let log = std::fs::read(&path).expect("log written");
        let ckpt = std::fs::read(ckpt_path(&path)).expect("checkpoint written");
        remove_log(&path);
        assert!(
            ckpt.windows(4).any(|w| w == b"DXTS"),
            "a checkpoint of a detected session embeds the store image"
        );
        (log, ckpt, reference().2.clone())
    })
}

/// Writes the given log + checkpoint bytes to a scratch path and runs
/// recovery over them.
pub fn recover_bytes(tag: &str, log: &[u8], ckpt: &[u8]) -> Result<Recovery, DogmatixError> {
    let path = scratch_log(tag);
    std::fs::write(&path, log).expect("write log");
    std::fs::write(ckpt_path(&path), ckpt).expect("write checkpoint");
    let outcome =
        IncrementalSession::recover(&path, detector().mapping(), None, FsyncPolicy::Batch);
    remove_log(&path);
    outcome
}

/// Asserts a recovery stopped after exactly `valid` replayed deltas and
/// that its verdicts are bit-identical to the control prefix.
pub fn assert_prefix(
    rec: Recovery,
    valid: usize,
    prefixes: &[DetectionResult],
    torn: bool,
    what: &str,
) {
    assert_eq!(
        rec.report.replayed + rec.report.skipped,
        valid,
        "{what}: wrong replay count"
    );
    match (&rec.report.dropped_tail, torn) {
        (Some(DogmatixError::Wal { .. }), true) => {}
        (Some(other), true) => panic!("{what}: tear reported as {other}"),
        (Some(e), false) => panic!("{what}: clean log reported torn: {e}"),
        (None, true) => panic!("{what}: tear not reported"),
        (None, false) => {}
    }
    let mut session = rec.session;
    let dx = detector();
    let after = dx
        .detect_delta(&mut session, &[])
        .unwrap_or_else(|e| panic!("{what}: post-recovery detect failed: {e}"));
    // Everything but `stats.pairs_compared` must be bit-identical (the
    // control replays its pair cache; a recovered session re-scores).
    let expect = &prefixes[valid];
    assert_eq!(after.candidates, expect.candidates, "candidates: {what}");
    assert_eq!(*after.ods, *expect.ods, "object descriptions: {what}");
    assert_eq!(after.f_values, expect.f_values, "filter values: {what}");
    assert_eq!(after.pruned, expect.pruned, "pruned flags: {what}");
    assert_eq!(
        after.duplicate_pairs, expect.duplicate_pairs,
        "duplicate pairs: {what}"
    );
    assert_eq!(
        after.possible_pairs, expect.possible_pairs,
        "possible pairs: {what}"
    );
    assert_eq!(after.clusters, expect.clusters, "clusters: {what}");
    assert_eq!(after.stats.candidates, expect.stats.candidates, "{what}");
}
