//! Warm-start bench for the sealed (v3) term-index snapshot.
//!
//! Before the criterion group runs, a **sanity pass** saves a CD corpus
//! as a snapshot, then
//!
//! * asserts the save run and the [`SnapshotBackend`] warm starts (on
//!   all cores and on one) are **bit-identical** to the in-memory build,
//! * writes `BENCH_paged.json` at the repo root with the snapshot size
//!   and `load_millis`: the best of 9 snapshot loads alone
//!   ([`TermIndexBackend::acquire`] under the run's own selections — no
//!   detection steps).
//!
//! The criterion group then times the same load.

use criterion::{criterion_group, criterion_main, Criterion};
use dogmatix_bench::CdFixture;
use dogmatix_core::backend::snapshot::SnapshotBackend;
use dogmatix_core::backend::{IndexContext, TermIndexBackend};
use dogmatix_core::heuristics::HeuristicExpr;
use dogmatix_core::pipeline::{DetectionResult, DetectionSession, Dogmatix};
use std::path::{Path, PathBuf};
use std::time::Instant;

const CORPUS_N: usize = 200;
const LOAD_SAMPLES: usize = 9;

fn heuristic() -> HeuristicExpr {
    HeuristicExpr::k_closest_descendants(6)
}

fn scratch_snapshot(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dogmatix-paged-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(format!("{tag}.dxts"))
}

fn detector(fixture: &CdFixture, backend: Option<SnapshotBackend>, threads: usize) -> Dogmatix {
    let mut b = Dogmatix::builder()
        .mapping(fixture.mapping.clone())
        .heuristic(heuristic())
        .theta_tuple(dogmatix_eval::setup::THETA_TUPLE)
        .theta_cand(dogmatix_eval::setup::THETA_CAND)
        .threads(threads);
    if let Some(backend) = backend {
        b = b.index_backend(backend);
    }
    b.build()
}

fn run(fixture: &CdFixture, backend: Option<SnapshotBackend>, threads: usize) -> DetectionResult {
    detector(fixture, backend, threads)
        .run(&fixture.doc, &fixture.schema, dogmatix_eval::setup::CD_TYPE)
        .expect("detection runs")
}

/// Saves the corpus, checks every warm start against the in-memory
/// build, times the load alone under `ctx` (the index context of the
/// same run) and writes `BENCH_paged.json`.
fn warm_start_sanity(fixture: &CdFixture, path: &Path, ctx: IndexContext<'_>) {
    let reference = run(fixture, None, 0);
    assert!(
        !reference.duplicate_pairs.is_empty(),
        "corpus contains duplicates"
    );
    let saved = run(fixture, Some(SnapshotBackend::save(path)), 0);
    assert_eq!(reference, saved, "snapshot save run diverged");
    let snapshot_bytes = std::fs::metadata(path).expect("snapshot written").len();

    // Warm starts, on all cores and on one, must be bit-identical to
    // the in-memory build.
    for threads in [0usize, 1] {
        let warm = run(fixture, Some(SnapshotBackend::open(path)), threads);
        assert_eq!(
            reference, warm,
            "snapshot warm start (threads {threads}) diverged"
        );
    }

    let backend = SnapshotBackend::open(path);
    let mut load_millis = f64::INFINITY;
    for _ in 0..LOAD_SAMPLES {
        let started = Instant::now();
        let ods = backend.acquire(ctx).expect("snapshot loads");
        load_millis = load_millis.min(started.elapsed().as_secs_f64() * 1e3);
        assert_eq!(*ods, *reference.ods, "loaded store diverged");
    }

    let json = format!(
        "{{\n  \"corpus\": \"cd_dataset1\",\n  \"corpus_n\": {CORPUS_N},\n  \
         \"snapshot_bytes\": {snapshot_bytes},\n  \
         \"load_millis\": {load_millis:.2}\n}}\n",
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_paged.json");
    std::fs::write(out, json).expect("write BENCH_paged.json");
    println!(
        "snapshot warm start (cd n={CORPUS_N}): snapshot {snapshot_bytes} B, \
         load {load_millis:.2} ms (best of {LOAD_SAMPLES})"
    );
}

fn bench_paged(c: &mut Criterion) {
    let fixture = CdFixture::dataset1(CORPUS_N);
    let path = scratch_snapshot("load");
    // The candidates and selections a detection run hands its backend.
    let session = DetectionSession::new(
        &fixture.doc,
        &fixture.schema,
        &fixture.mapping,
        dogmatix_eval::setup::CD_TYPE,
    )
    .expect("session opens");
    let selections = session.selections_for(&heuristic()).expect("selections");
    let ctx = IndexContext {
        doc: session.doc(),
        candidates: &session.candidates().nodes,
        selections: &selections,
        mapping: session.mapping(),
    };
    warm_start_sanity(&fixture, &path, ctx);

    let backend = SnapshotBackend::open(&path);
    let mut group = c.benchmark_group("snapshot_load");
    group.sample_size(20);
    group.bench_function("cd_200", |b| {
        b.iter(|| backend.acquire(ctx).expect("snapshot loads"))
    });
    group.finish();
    let _ = std::fs::remove_file(&path);
}

criterion_group!(benches, bench_paged);
criterion_main!(benches);
