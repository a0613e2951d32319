//! Warm-start bench for the paged (v2) term-index snapshot.
//!
//! Before the criterion group runs, a **sanity pass** saves a CD corpus
//! as a v2 snapshot with 1 KiB pages, then
//!
//! * asserts the save run and the [`PagedBackend`] warm starts (on all
//!   cores and on one) are **bit-identical** to the in-memory build,
//! * writes `BENCH_paged.json` at the repo root with the snapshot size
//!   and the time of one warm-started run on all cores.
//!
//! The criterion group then times a warm-started run.

use criterion::{criterion_group, criterion_main, Criterion};
use dogmatix_bench::CdFixture;
use dogmatix_core::backend::paged::PagedBackend;
use dogmatix_core::heuristics::HeuristicExpr;
use dogmatix_core::pipeline::{DetectionResult, Dogmatix};
use std::path::PathBuf;
use std::time::Instant;

const CORPUS_N: usize = 200;
const PAGE_SIZE: usize = 1024;

fn scratch_snapshot(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dogmatix-paged-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(format!("{tag}.dxts2"))
}

fn detector(fixture: &CdFixture, backend: Option<PagedBackend>, threads: usize) -> Dogmatix {
    let mut b = Dogmatix::builder()
        .mapping(fixture.mapping.clone())
        .heuristic(HeuristicExpr::k_closest_descendants(6))
        .theta_tuple(dogmatix_eval::setup::THETA_TUPLE)
        .theta_cand(dogmatix_eval::setup::THETA_CAND)
        .threads(threads);
    if let Some(backend) = backend {
        b = b.index_backend(backend);
    }
    b.build()
}

fn run(fixture: &CdFixture, backend: Option<PagedBackend>, threads: usize) -> DetectionResult {
    detector(fixture, backend, threads)
        .run(&fixture.doc, &fixture.schema, dogmatix_eval::setup::CD_TYPE)
        .expect("detection runs")
}

fn warm_start_sanity() {
    let fixture = CdFixture::dataset1(CORPUS_N);
    let path = scratch_snapshot("gate");

    let reference = run(&fixture, None, 0);
    assert!(
        !reference.duplicate_pairs.is_empty(),
        "corpus contains duplicates"
    );

    let saved = run(
        &fixture,
        Some(PagedBackend::save(&path).with_page_size(PAGE_SIZE)),
        0,
    );
    assert_eq!(reference, saved, "paged save run diverged");
    let snapshot_bytes = std::fs::metadata(&path).expect("snapshot written").len();

    // Warm starts, on all cores and on one, must be bit-identical to
    // the in-memory build.
    let mut load_millis = 0.0;
    for threads in [0usize, 1] {
        let started = Instant::now();
        let warm = run(&fixture, Some(PagedBackend::open(&path)), threads);
        if threads == 0 {
            load_millis = started.elapsed().as_secs_f64() * 1e3;
        }
        assert_eq!(
            reference, warm,
            "paged warm start (threads {threads}) diverged"
        );
    }

    let json = format!(
        "{{\n  \"corpus\": \"cd_dataset1\",\n  \"corpus_n\": {CORPUS_N},\n  \
         \"page_size\": {PAGE_SIZE},\n  \
         \"snapshot_bytes\": {snapshot_bytes},\n  \
         \"warm_load_millis\": {load_millis:.1}\n}}\n",
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_paged.json");
    std::fs::write(out, json).expect("write BENCH_paged.json");
    println!(
        "paged warm start (cd n={CORPUS_N}): snapshot {snapshot_bytes} B in \
         {PAGE_SIZE} B pages, warm run {load_millis:.1} ms"
    );
    let _ = std::fs::remove_file(&path);
}

fn bench_paged(c: &mut Criterion) {
    warm_start_sanity();

    let fixture = CdFixture::dataset1(CORPUS_N);
    let path = scratch_snapshot("criterion");
    run(
        &fixture,
        Some(PagedBackend::save(&path).with_page_size(PAGE_SIZE)),
        0,
    );

    let mut group = c.benchmark_group("paged_warm_start");
    group.sample_size(20);
    group.bench_function("cd_1k_pages", |b| {
        b.iter(|| run(&fixture, Some(PagedBackend::open(&path)), 0))
    });
    group.finish();
    let _ = std::fs::remove_file(&path);
}

criterion_group!(benches, bench_paged);
criterion_main!(benches);
