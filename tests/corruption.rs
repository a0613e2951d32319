//! One corruption suite over the three sealed record kinds — a snapshot
//! file (`dogmatix_core::backend::snapshot`), a WAL checkpoint without a
//! store, and a WAL checkpoint that embeds a store image
//! (`dogmatix_core::wal`). All three share one envelope (magic,
//! version, payload checksum, payload length), so they share one rule:
//! a damaged record is refused with a structured error of its kind's
//! variant (`Snapshot` for the file, `Wal` for a checkpoint), and a
//! record that loads gives a result equal to the control — never a
//! panic, never garbage.
//!
//! For each kind: byte flips, truncations and appended bytes as
//! properties (honouring the `PROPTEST_CASES` override; ci.sh raises it
//! to 128), and a flip of each of the 24 envelope bytes in turn. Since
//! the checksum covers every payload byte and the envelope is checked
//! exactly, every changed, cut or padded record must be refused; only a
//! no-op flip loads.
//!
//! Torn log tails are a different failure (a prefix survives) and stay
//! in `tests/wal.rs`.

mod common;

use common::cases;
use common::snapshot::{cd_corpus, detector, run, temp_path, Corpus};
use common::wal::{assert_prefix, recover_bytes, reference, store_reference, Reference};
use dogmatix_repro::core::backend::snapshot::SnapshotBackend;
use dogmatix_repro::core::pipeline::DetectionResult;
use dogmatix_repro::core::DogmatixError;
use proptest::prelude::*;
use std::sync::OnceLock;

const ENVELOPE_LEN: usize = 24;

#[derive(Debug, Clone, Copy)]
enum Kind {
    Snapshot,
    Checkpoint,
    StoreCheckpoint,
}

const KINDS: [Kind; 3] = [Kind::Snapshot, Kind::Checkpoint, Kind::StoreCheckpoint];

/// The snapshot kind's corpus, its intact file bytes and the control
/// result of an in-memory run. Built once per test binary.
fn snapshot_reference() -> &'static (Corpus, Vec<u8>, DetectionResult) {
    static REFERENCE: OnceLock<(Corpus, Vec<u8>, DetectionResult)> = OnceLock::new();
    REFERENCE.get_or_init(|| {
        let corpus = cd_corpus();
        let path = temp_path("corruption-reference");
        run(&corpus, Some(SnapshotBackend::save(&path)), 1);
        let bytes = std::fs::read(&path).expect("snapshot written");
        let _ = std::fs::remove_file(&path);
        let control = run(&corpus, None, 1);
        (corpus, bytes, control)
    })
}

fn checkpoint_reference(kind: Kind) -> &'static Reference {
    match kind {
        Kind::StoreCheckpoint => store_reference(),
        _ => reference(),
    }
}

/// The intact record of `kind`.
fn intact(kind: Kind) -> &'static [u8] {
    match kind {
        Kind::Snapshot => &snapshot_reference().1,
        Kind::Checkpoint | Kind::StoreCheckpoint => &checkpoint_reference(kind).1,
    }
}

/// Loads `bytes` as a record of `kind`. Returns whether it loaded; a
/// load must equal the control, and a refusal must be the kind's own
/// structured error.
fn loads(kind: Kind, bytes: &[u8], what: &str) -> bool {
    match kind {
        Kind::Snapshot => {
            let (corpus, _, control) = snapshot_reference();
            let path = temp_path(&format!(
                "corruption-{}",
                std::thread::current()
                    .name()
                    .unwrap_or("t")
                    .replace("::", "-")
            ));
            std::fs::write(&path, bytes).expect("write snapshot");
            let outcome = detector(corpus, Some(SnapshotBackend::open(&path)), 1).run(
                &corpus.doc,
                &corpus.schema,
                corpus.rw_type,
            );
            let _ = std::fs::remove_file(&path);
            match outcome {
                Ok(result) => {
                    assert_eq!(&result, control, "{what}: a load must equal the control");
                    true
                }
                Err(DogmatixError::Snapshot { .. }) => false,
                Err(other) => panic!("{what}: unstructured failure: {other}"),
            }
        }
        Kind::Checkpoint | Kind::StoreCheckpoint => {
            let (log, _, prefixes) = checkpoint_reference(kind);
            match recover_bytes("corruption", log, bytes) {
                Ok(rec) => {
                    assert_prefix(rec, prefixes.len() - 1, prefixes, false, what);
                    true
                }
                Err(DogmatixError::Wal { .. }) => false,
                Err(other) => panic!("{what}: unstructured failure: {other}"),
            }
        }
    }
}

fn assert_refused(kind: Kind, bytes: &[u8], what: &str) {
    assert!(
        !loads(kind, bytes, what),
        "{what}: a damaged {kind:?} loaded"
    );
}

/// Sets the byte at `position` (mod the length) to `byte`: a changed
/// byte is refused, an unchanged one loads.
fn flip(kind: Kind, position: usize, byte: u8) {
    let intact = intact(kind);
    let mut mutated = intact.to_vec();
    let pos = position % mutated.len();
    mutated[pos] = byte;
    let what = format!("{kind:?} flip at {pos}");
    let changed = mutated[pos] != intact[pos];
    assert_eq!(
        loads(kind, &mutated, &what),
        !changed,
        "{what}: only a no-op flip may load"
    );
}

fn truncate(kind: Kind, cut: usize) {
    let intact = intact(kind);
    let cut = cut % intact.len();
    assert_refused(kind, &intact[..cut], &format!("{kind:?} cut at {cut}"));
}

/// Appended bytes change no described byte: only the envelope's exact
/// length check can catch them.
fn extend(kind: Kind, extra: usize, byte: u8) {
    let mut padded = intact(kind).to_vec();
    padded.resize(padded.len() + extra, byte);
    assert_refused(
        kind,
        &padded,
        &format!("{kind:?} with {extra} appended bytes"),
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(24)))]

    #[test]
    fn snapshot_byte_flips_never_panic(position in 0usize..1_000_000, byte in 0u8..=255) {
        flip(Kind::Snapshot, position, byte);
    }

    #[test]
    fn snapshot_truncations_never_panic(cut in 0usize..1_000_000) {
        truncate(Kind::Snapshot, cut);
    }

    #[test]
    fn snapshot_extensions_never_panic(extra in 1usize..4096, byte in 0u8..=255) {
        extend(Kind::Snapshot, extra, byte);
    }

    #[test]
    fn checkpoint_byte_flips_never_panic(position in 0usize..100_000, byte in 0u8..=255) {
        flip(Kind::Checkpoint, position, byte);
    }

    #[test]
    fn checkpoint_truncations_never_panic(cut in 0usize..100_000) {
        truncate(Kind::Checkpoint, cut);
    }

    #[test]
    fn checkpoint_extensions_never_panic(extra in 1usize..4096, byte in 0u8..=255) {
        extend(Kind::Checkpoint, extra, byte);
    }

    #[test]
    fn store_checkpoint_byte_flips_never_panic(position in 0usize..100_000, byte in 0u8..=255) {
        flip(Kind::StoreCheckpoint, position, byte);
    }

    #[test]
    fn store_checkpoint_truncations_never_panic(cut in 0usize..100_000) {
        truncate(Kind::StoreCheckpoint, cut);
    }

    #[test]
    fn store_checkpoint_extensions_never_panic(extra in 1usize..4096, byte in 0u8..=255) {
        extend(Kind::StoreCheckpoint, extra, byte);
    }
}

#[test]
fn every_envelope_byte_of_every_kind_is_load_bearing() {
    for kind in KINDS {
        let intact = intact(kind);
        assert!(
            loads(kind, intact, &format!("intact {kind:?}")),
            "intact {kind:?} must load"
        );
        for at in 0..ENVELOPE_LEN {
            let mut mutated = intact.to_vec();
            mutated[at] ^= 0x01;
            assert_refused(kind, &mutated, &format!("{kind:?} envelope byte {at}"));
        }
    }
}

#[test]
fn store_checkpoint_recovers_and_rejects_directed_damage() {
    let kind = Kind::StoreCheckpoint;
    let ckpt = intact(kind);
    assert!(loads(kind, ckpt, "intact store checkpoint"));
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
        let mut mutated = ckpt.to_vec();
        mutated[offset] ^= 0xFF;
        assert_refused(kind, &mutated, &format!("flip at {offset}"));
    }
    for cut in [0, 23, image, image + 8, ckpt.len() / 2, ckpt.len() - 1] {
        assert_refused(kind, &ckpt[..cut], &format!("cut at {cut}"));
    }
    for pad in [1usize, 8, 4096] {
        let mut padded = ckpt.to_vec();
        padded.resize(ckpt.len() + pad, 0xA5);
        assert_refused(kind, &padded, &format!("{pad} padding bytes"));
    }
}
