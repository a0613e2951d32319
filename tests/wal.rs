//! Corruption matrix for the write-ahead delta log
//! (`dogmatix_core::wal`):
//!
//! * **frame fields** — a byte flip in *every* field class of every
//!   frame (magic, LSN, length, payload, checksum) makes recovery stop
//!   at the last valid frame, report the tear as a structured
//!   `DogmatixError::Wal`, and never panic;
//! * **truncation** — a cut at any point inside a frame drops exactly
//!   that frame and everything after it; a cut at a frame boundary is
//!   a clean end, not a tear;
//! * **headers** — a corrupt log header or checkpoint sidecar is fatal
//!   (`Err`, not a silent empty recovery);
//! * **properties** — arbitrary byte flips and cuts over the whole
//!   log/checkpoint byte range, honouring the `PROPTEST_CASES`
//!   override (ci.sh raises it to 128);
//! * **store checkpoints** — flips, cuts and padding of a checkpoint
//!   taken after detection, which embeds a DXTS v2 store image.
//!
//! The prefix assertions are differential: after recovering a log with
//! frame `k` torn, the session's verdicts must be bit-identical to an
//! uninterrupted control session fed only the first `k` deltas.

mod common;

use common::{build_doc, cases, MiniRecord};
use dogmatix_repro::core::incremental::{DocumentDelta, IncrementalSession};
use dogmatix_repro::core::pipeline::{DetectionResult, Dogmatix};
use dogmatix_repro::core::wal::{FsyncPolicy, Wal};
use dogmatix_repro::core::DogmatixError;
use proptest::prelude::*;
use std::path::{Path, PathBuf};

const LOG_HEADER_LEN: usize = 8;
const FRAME_HEADER_LEN: usize = 16;

fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dogmatix-wal-tests-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Unique scratch log path (proptest cases must not share files).
fn scratch_log(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    temp_dir().join(format!("{tag}-{n}.wal"))
}

fn ckpt_path(log: &Path) -> PathBuf {
    let mut name = log.as_os_str().to_os_string();
    name.push(".ckpt");
    PathBuf::from(name)
}

fn remove_log(log: &Path) {
    let _ = std::fs::remove_file(log);
    let _ = std::fs::remove_file(ckpt_path(log));
}

fn detector() -> Dogmatix {
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

/// The valid reference artefacts: the committed log and checkpoint
/// bytes after all three deltas, plus the control verdicts after each
/// prefix of the delta stream (`prefixes[k]` = verdicts with only the
/// first `k` deltas applied).
fn reference() -> (Vec<u8>, Vec<u8>, Vec<DetectionResult>) {
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
}

/// The reference stream behind a checkpoint that embeds a store image:
/// the session runs its initial detection, the WAL's first checkpoint is
/// taken on that clean session (so it carries a DXTS v2 image), and the
/// three deltas follow in the log. Built once per test binary; recovery
/// replays all three deltas, so the matching control is `prefixes[3]`.
fn store_reference() -> &'static (Vec<u8>, Vec<u8>, Vec<DetectionResult>) {
    static REFERENCE: std::sync::OnceLock<(Vec<u8>, Vec<u8>, Vec<DetectionResult>)> =
        std::sync::OnceLock::new();
    REFERENCE.get_or_init(|| {
        let (_, _, prefixes) = reference();
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
        (log, ckpt, prefixes)
    })
}

/// The "structured error or clean load" rule for a damaged
/// store-holding checkpoint: a load must reproduce the full control
/// verdicts; a refusal must be a `DogmatixError::Wal`. `must_refuse`
/// additionally forbids loading at all.
fn assert_store_ckpt_outcome(ckpt: &[u8], must_refuse: bool, what: &str) {
    let (log, _, prefixes) = store_reference();
    match recover_bytes("store-ckpt", log, ckpt) {
        Ok(rec) => {
            assert!(!must_refuse, "{what}: a damaged checkpoint loaded");
            assert_prefix(rec, prefixes.len() - 1, prefixes, false, what);
        }
        Err(DogmatixError::Wal { .. }) => {}
        Err(other) => panic!("{what}: unstructured failure: {other}"),
    }
}

#[test]
fn store_checkpoint_recovers_and_rejects_directed_damage() {
    let (log, ckpt, prefixes) = store_reference();
    let rec = recover_bytes("store-ckpt-clean", log, ckpt).expect("intact checkpoint loads");
    assert_prefix(
        rec,
        prefixes.len() - 1,
        prefixes,
        false,
        "intact store checkpoint",
    );
    let image = ckpt
        .windows(4)
        .position(|w| w == b"DXTS")
        .expect("embedded image");
    for offset in [
        0,
        8,
        image,
        image + 4,
        image + 64,
        ckpt.len() / 2,
        ckpt.len() - 1,
    ] {
        let mut mutated = ckpt.clone();
        mutated[offset] ^= 0xFF;
        assert_store_ckpt_outcome(&mutated, true, &format!("flip at {offset}"));
    }
    for cut in [0, 23, image, image + 8, ckpt.len() / 2, ckpt.len() - 1] {
        assert_store_ckpt_outcome(&ckpt[..cut], true, &format!("cut at {cut}"));
    }
    for pad in [1usize, 8, 4096] {
        let mut padded = ckpt.clone();
        padded.resize(ckpt.len() + pad, 0xA5);
        assert_store_ckpt_outcome(&padded, false, &format!("{pad} padding bytes"));
    }
}

/// Byte offsets of each frame and its payload length, parsed straight
/// off the reference log bytes.
fn frame_offsets(log: &[u8]) -> Vec<(usize, usize)> {
    let mut frames = Vec::new();
    let mut at = LOG_HEADER_LEN;
    while at + FRAME_HEADER_LEN <= log.len() {
        let len = u32::from_le_bytes(log[at + 12..at + 16].try_into().expect("len bytes")) as usize;
        frames.push((at, len));
        at += FRAME_HEADER_LEN + len + 8;
    }
    assert_eq!(at, log.len(), "reference log has trailing garbage");
    frames
}

/// Writes the given log + checkpoint bytes to a scratch path and runs
/// recovery over them.
fn recover_bytes(
    tag: &str,
    log: &[u8],
    ckpt: &[u8],
) -> Result<dogmatix_repro::core::wal::Recovery, DogmatixError> {
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
fn assert_prefix(
    rec: dogmatix_repro::core::wal::Recovery,
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

// ---- the directed matrix ----------------------------------------------

#[test]
fn byte_flips_in_every_frame_field_drop_the_tail_at_the_last_valid_frame() {
    let (log, ckpt, prefixes) = reference();
    let frames = frame_offsets(&log);
    assert_eq!(frames.len(), 3, "reference log holds three frames");
    for (k, &(start, payload_len)) in frames.iter().enumerate() {
        let fields = [
            ("magic", start),
            ("lsn", start + 4),
            ("length", start + 12),
            ("payload", start + FRAME_HEADER_LEN),
            ("checksum", start + FRAME_HEADER_LEN + payload_len),
        ];
        for (field, offset) in fields {
            let mut mutated = log.clone();
            mutated[offset] ^= 0xFF;
            let what = format!("{field} flip in frame {k}");
            let rec = recover_bytes("field-flip", &mutated, &ckpt)
                .unwrap_or_else(|e| panic!("{what}: torn tail must not be fatal: {e}"));
            assert_prefix(rec, k, &prefixes, true, &what);
        }
    }
}

#[test]
fn mid_frame_truncations_drop_the_tail_and_boundary_cuts_are_clean() {
    let (log, ckpt, prefixes) = reference();
    let frames = frame_offsets(&log);
    for (k, &(start, payload_len)) in frames.iter().enumerate() {
        // A cut exactly at the frame boundary is a clean end-of-log.
        let rec =
            recover_bytes("boundary-cut", &log[..start], &ckpt).expect("boundary cut must recover");
        assert_prefix(rec, k, &prefixes, false, &format!("cut at frame {k} start"));

        // Cuts inside the frame header, payload, and checksum all tear.
        for (where_, cut) in [
            ("header", start + 3),
            ("payload", start + FRAME_HEADER_LEN + payload_len / 2),
            ("checksum", start + FRAME_HEADER_LEN + payload_len + 4),
        ] {
            let what = format!("cut mid-{where_} of frame {k}");
            let rec = recover_bytes("mid-cut", &log[..cut], &ckpt)
                .unwrap_or_else(|e| panic!("{what}: torn tail must not be fatal: {e}"));
            assert_prefix(rec, k, &prefixes, true, &what);
        }
    }
}

#[test]
fn corrupt_log_headers_and_checkpoints_are_fatal() {
    let (log, ckpt, _) = reference();

    // Every byte of the log header is load-bearing (magic + version).
    for offset in 0..LOG_HEADER_LEN {
        let mut mutated = log.clone();
        mutated[offset] ^= 0xFF;
        let err = recover_bytes("bad-log-header", &mutated, &ckpt)
            .expect_err("corrupt log header must be fatal");
        assert!(
            matches!(err, DogmatixError::Wal { .. }),
            "log header byte {offset}: wrong kind {err}"
        );
    }

    // Checkpoint corruption: flips across the sidecar and truncations.
    for offset in [0, 4, 8, 16, ckpt.len() / 2, ckpt.len() - 1] {
        let mut mutated = ckpt.clone();
        mutated[offset] ^= 0xFF;
        let err = recover_bytes("bad-ckpt", &log, &mutated)
            .expect_err("corrupt checkpoint must be fatal");
        assert!(
            matches!(err, DogmatixError::Wal { .. }),
            "checkpoint byte {offset}: wrong kind {err}"
        );
    }
    for cut in [0, 7, ckpt.len() / 2, ckpt.len() - 1] {
        let err = recover_bytes("cut-ckpt", &log, &ckpt[..cut])
            .expect_err("truncated checkpoint must be fatal");
        assert!(
            matches!(err, DogmatixError::Wal { .. }),
            "checkpoint cut {cut}: wrong kind {err}"
        );
    }

    // A missing checkpoint sidecar is fatal too.
    let path = scratch_log("no-ckpt");
    std::fs::write(&path, &log).expect("write log");
    let err = IncrementalSession::recover(&path, detector().mapping(), None, FsyncPolicy::Batch)
        .expect_err("missing checkpoint must be fatal");
    remove_log(&path);
    assert!(matches!(err, DogmatixError::Wal { .. }), "wrong kind {err}");
}

// ---- the properties ----------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(24)))]

    /// Any single byte flip anywhere in the log: recovery either keeps
    /// a valid prefix (flip in a frame, or a no-op flip) or fails with
    /// a structured error (flip in the header) — and a kept prefix's
    /// verdicts always match the control for that many deltas.
    #[test]
    fn corrupted_logs_never_panic(position in 0usize..100_000, byte in 0u8..=255) {
        let (log, ckpt, prefixes) = reference();
        let mut mutated = log.clone();
        let pos = position % mutated.len();
        mutated[pos] = byte;
        let changed = mutated[pos] != log[pos];
        match recover_bytes("prop-flip", &mutated, &ckpt) {
            Ok(rec) => {
                let valid = rec.report.replayed + rec.report.skipped;
                prop_assert!(valid < prefixes.len());
                if !changed {
                    prop_assert_eq!(valid, prefixes.len() - 1, "no-op flip lost deltas");
                }
                assert_prefix(rec, valid, &prefixes, changed && valid < prefixes.len() - 1,
                    &format!("flip at {pos}"));
            }
            Err(DogmatixError::Wal { .. }) => prop_assert!(changed, "no-op flip was fatal"),
            Err(other) => prop_assert!(false, "unstructured failure: {}", other),
        }
    }

    /// Any truncation length: the valid prefix survives, cuts inside
    /// the log header are fatal, and nothing panics.
    #[test]
    fn truncated_logs_never_panic(cut in 0usize..100_000) {
        let (log, ckpt, prefixes) = reference();
        let cut = cut % (log.len() + 1);
        match recover_bytes("prop-cut", &log[..cut], &ckpt) {
            Ok(rec) => {
                let valid = rec.report.replayed + rec.report.skipped;
                prop_assert!(valid < prefixes.len());
                assert_prefix(rec, valid, &prefixes,
                    rec_cut_tears(&log, cut), &format!("cut at {cut}"));
            }
            // A cut inside the 8-byte header (or to zero) may be fatal.
            Err(DogmatixError::Wal { .. }) => prop_assert!(cut < log.len(), "full log was fatal"),
            Err(other) => prop_assert!(false, "unstructured failure: {}", other),
        }
    }

    /// Any single byte flip in the checkpoint sidecar: recovery either
    /// rejects it with a structured error or (no-op flip) recovers in
    /// full — never panics, never loads garbage.
    #[test]
    fn corrupted_checkpoints_never_panic(position in 0usize..100_000, byte in 0u8..=255) {
        let (log, ckpt, prefixes) = reference();
        let mut mutated = ckpt.clone();
        let pos = position % mutated.len();
        mutated[pos] = byte;
        let changed = mutated[pos] != ckpt[pos];
        match recover_bytes("prop-ckpt", &log, &mutated) {
            Ok(rec) => {
                prop_assert!(!changed, "a changed checkpoint byte must not load");
                assert_prefix(rec, prefixes.len() - 1, &prefixes, false, "no-op ckpt flip");
            }
            Err(DogmatixError::Wal { .. }) => prop_assert!(changed, "no-op flip was fatal"),
            Err(other) => prop_assert!(false, "unstructured failure: {}", other),
        }
    }

    /// The same flip matrix over a checkpoint that embeds a store image
    /// (the genesis checkpoint above holds none), plus cuts and padding:
    /// a changed or cut checkpoint never loads, padding loads cleanly or
    /// fails structured, and nothing panics.
    #[test]
    fn corrupted_store_checkpoints_never_panic(
        position in 0usize..100_000,
        byte in 0u8..=255,
        cut in 0usize..100_000,
        pad in 1usize..64,
    ) {
        let (_, ckpt, _) = store_reference();
        let mut mutated = ckpt.clone();
        let pos = position % mutated.len();
        mutated[pos] = byte;
        let changed = mutated[pos] != ckpt[pos];
        assert_store_ckpt_outcome(&mutated, changed, &format!("flip at {pos}"));
        let cut = cut % ckpt.len();
        assert_store_ckpt_outcome(&ckpt[..cut], true, &format!("cut at {cut}"));
        let mut padded = ckpt.clone();
        padded.resize(ckpt.len() + pad, byte);
        assert_store_ckpt_outcome(&padded, false, &format!("{pad} padding bytes"));
    }
}

/// Whether cutting the reference log at `cut` bytes lands *inside* a
/// frame (a tear) rather than on a frame boundary (a clean end).
fn rec_cut_tears(log: &[u8], cut: usize) -> bool {
    // Zero bytes is the documented valid-empty log (the crash window
    // inside `Wal::create`), and the full length is simply untruncated.
    if cut == 0 || cut >= log.len() {
        return false;
    }
    !frame_offsets(log).iter().any(|&(start, _)| start == cut)
}
