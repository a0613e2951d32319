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
//! * **properties** — arbitrary byte flips and cuts over the whole log,
//!   honouring the `PROPTEST_CASES` override (ci.sh raises it to 128).
//!
//! Damaged checkpoints, with and without an embedded store image, are
//! covered with the snapshot file by the sealed-record suite,
//! `tests/corruption.rs`.
//!
//! The prefix assertions are differential: after recovering a log with
//! frame `k` torn, the session's verdicts must be bit-identical to an
//! uninterrupted control session fed only the first `k` deltas.

mod common;

use common::cases;
use common::wal::{assert_prefix, detector, recover_bytes, reference, remove_log, scratch_log};
use dogmatix_repro::core::incremental::IncrementalSession;
use dogmatix_repro::core::wal::FsyncPolicy;
use dogmatix_repro::core::DogmatixError;
use proptest::prelude::*;

const LOG_HEADER_LEN: usize = 8;
const FRAME_HEADER_LEN: usize = 16;

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

// ---- the directed matrix ----------------------------------------------

#[test]
fn byte_flips_in_every_frame_field_drop_the_tail_at_the_last_valid_frame() {
    let (log, ckpt, prefixes) = reference();
    let frames = frame_offsets(log);
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
            let rec = recover_bytes("field-flip", &mutated, ckpt)
                .unwrap_or_else(|e| panic!("{what}: torn tail must not be fatal: {e}"));
            assert_prefix(rec, k, prefixes, true, &what);
        }
    }
}

#[test]
fn mid_frame_truncations_drop_the_tail_and_boundary_cuts_are_clean() {
    let (log, ckpt, prefixes) = reference();
    let frames = frame_offsets(log);
    for (k, &(start, payload_len)) in frames.iter().enumerate() {
        // A cut exactly at the frame boundary is a clean end-of-log.
        let rec =
            recover_bytes("boundary-cut", &log[..start], ckpt).expect("boundary cut must recover");
        assert_prefix(rec, k, prefixes, false, &format!("cut at frame {k} start"));

        // Cuts inside the frame header, payload, and checksum all tear.
        for (where_, cut) in [
            ("header", start + 3),
            ("payload", start + FRAME_HEADER_LEN + payload_len / 2),
            ("checksum", start + FRAME_HEADER_LEN + payload_len + 4),
        ] {
            let what = format!("cut mid-{where_} of frame {k}");
            let rec = recover_bytes("mid-cut", &log[..cut], ckpt)
                .unwrap_or_else(|e| panic!("{what}: torn tail must not be fatal: {e}"));
            assert_prefix(rec, k, prefixes, true, &what);
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
        let err = recover_bytes("bad-log-header", &mutated, ckpt)
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
        let err =
            recover_bytes("bad-ckpt", log, &mutated).expect_err("corrupt checkpoint must be fatal");
        assert!(
            matches!(err, DogmatixError::Wal { .. }),
            "checkpoint byte {offset}: wrong kind {err}"
        );
    }
    for cut in [0, 7, ckpt.len() / 2, ckpt.len() - 1] {
        let err = recover_bytes("cut-ckpt", log, &ckpt[..cut])
            .expect_err("truncated checkpoint must be fatal");
        assert!(
            matches!(err, DogmatixError::Wal { .. }),
            "checkpoint cut {cut}: wrong kind {err}"
        );
    }

    // A missing checkpoint sidecar is fatal too.
    let path = scratch_log("no-ckpt");
    std::fs::write(&path, log).expect("write log");
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
        match recover_bytes("prop-flip", &mutated, ckpt) {
            Ok(rec) => {
                let valid = rec.report.replayed + rec.report.skipped;
                prop_assert!(valid < prefixes.len());
                if !changed {
                    prop_assert_eq!(valid, prefixes.len() - 1, "no-op flip lost deltas");
                }
                assert_prefix(rec, valid, prefixes, changed && valid < prefixes.len() - 1,
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
        match recover_bytes("prop-cut", &log[..cut], ckpt) {
            Ok(rec) => {
                let valid = rec.report.replayed + rec.report.skipped;
                prop_assert!(valid < prefixes.len());
                assert_prefix(rec, valid, prefixes,
                    rec_cut_tears(log, cut), &format!("cut at {cut}"));
            }
            // A cut inside the 8-byte header (or to zero) may be fatal.
            Err(DogmatixError::Wal { .. }) => prop_assert!(cut < log.len(), "full log was fatal"),
            Err(other) => prop_assert!(false, "unstructured failure: {}", other),
        }
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
