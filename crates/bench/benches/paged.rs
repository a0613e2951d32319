//! Out-of-core scaling gate for the paged (v2) term-index snapshot
//! served through the pinned buffer pool.
//!
//! Before the criterion group runs, a **scaling sanity pass** builds a
//! CD corpus whose v2 snapshot is several times larger than the pool
//! budget, then
//!
//! * asserts the budget-constrained [`PagedBackend`] warm start is
//!   **bit-identical** to the in-memory build (on all cores AND on one),
//! * asserts the pool's peak residency never exceeded the budget while
//!   evictions actually happened (the run provably worked out-of-core),
//! * times a full point-read sweep over every term (text + postings)
//!   through [`PagedReader`] under the same tight budget,
//! * writes `BENCH_paged.json` at the repo root and gates the
//!   point-read throughput against the recorded baseline
//!   (`baselines/paged.txt`, `DOGMATIX_BASELINE_ALLOWANCE` to widen on
//!   a slower box).
//!
//! The criterion group then measures the point-read path itself under a
//! tight and a roomy budget — the spread between the two is the price
//! of faulting.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dogmatix_bench::CdFixture;
use dogmatix_core::backend::paged::{PagedBackend, PagedReader};
use dogmatix_core::heuristics::HeuristicExpr;
use dogmatix_core::pipeline::{DetectionResult, Dogmatix};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

const CORPUS_N: usize = 200;
const PAGE_SIZE: usize = 1024;
/// Pool budget for the gate — 16 KiB (16 frames); the snapshot the
/// sanity pass writes must be several times larger.
const BUDGET: usize = 16 * 1024;

fn scratch_snapshot(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dogmatix-paged-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(format!("{tag}.dxts2"))
}

fn detector(fixture: &CdFixture, backend: Option<Arc<PagedBackend>>, threads: usize) -> Dogmatix {
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

fn run(fixture: &CdFixture, backend: Option<Arc<PagedBackend>>, threads: usize) -> DetectionResult {
    detector(fixture, backend, threads)
        .run(&fixture.doc, &fixture.schema, dogmatix_eval::setup::CD_TYPE)
        .expect("detection runs")
}

/// Sweeps every term once — text and postings — through the budgeted
/// point reader. Returns the number of point reads performed.
fn point_read_sweep(reader: &mut PagedReader) -> usize {
    let terms = reader.term_count();
    for t in 0..terms as u32 {
        let text = reader.term_text(t).expect("term text reads");
        assert!(!text.is_empty(), "term {t} decoded empty");
        reader.postings(t).expect("postings read");
    }
    terms * 2
}

fn scaling_sanity() {
    let fixture = CdFixture::dataset1(CORPUS_N);
    let path = scratch_snapshot("gate");

    let reference = run(&fixture, None, 0);
    assert!(
        !reference.duplicate_pairs.is_empty(),
        "corpus contains duplicates"
    );

    let save_backend = Arc::new(PagedBackend::save(&path).with_page_size(PAGE_SIZE));
    let saved = run(&fixture, Some(save_backend), 0);
    assert_eq!(reference, saved, "paged save run diverged");
    let snapshot_bytes = std::fs::metadata(&path).expect("snapshot written").len() as usize;
    assert!(
        snapshot_bytes > 4 * BUDGET,
        "scaling gate needs a snapshot well over budget: {snapshot_bytes} B \
         vs {BUDGET} B — grow CORPUS_N"
    );

    // Budget-constrained warm starts, on all cores and on one, must be
    // bit-identical to the in-memory build with the pool under budget.
    let mut load_millis = 0.0;
    for threads in [0usize, 1] {
        let backend = Arc::new(PagedBackend::open(&path, BUDGET));
        let started = Instant::now();
        let warm = run(&fixture, Some(backend.clone()), threads);
        if threads == 0 {
            load_millis = started.elapsed().as_secs_f64() * 1e3;
        }
        assert_eq!(
            reference, warm,
            "paged warm start (threads {threads}) diverged"
        );
        let stats = backend.last_stats().expect("load records pool stats");
        assert!(
            stats.peak_resident_bytes <= BUDGET,
            "pool peaked at {} B over the {BUDGET} B budget",
            stats.peak_resident_bytes
        );
        assert!(
            stats.evictions > 0,
            "a {}x-over-budget snapshot must force evictions",
            snapshot_bytes / BUDGET
        );
    }

    // Point-read sweep under the same tight budget: best of three so a
    // CI hiccup doesn't fail the gate while a real regression does.
    let mut best = f64::MAX;
    let mut reads = 0;
    let mut sweep_stats = None;
    for _ in 0..3 {
        let mut reader = PagedReader::open(&path, BUDGET).expect("open under budget");
        let started = Instant::now();
        reads = point_read_sweep(&mut reader);
        best = best.min(started.elapsed().as_secs_f64());
        sweep_stats = Some(reader.stats());
    }
    let reads_per_sec = reads as f64 / best.max(1e-9);
    let sweep_stats = sweep_stats.expect("sweep ran");
    assert!(
        sweep_stats.peak_resident_bytes <= BUDGET,
        "point reader peaked at {} B over the {BUDGET} B budget",
        sweep_stats.peak_resident_bytes
    );
    let faults = sweep_stats.hits + sweep_stats.misses;
    let hit_rate = sweep_stats.hits as f64 / (faults as f64).max(1.0);

    let baseline =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/baselines/paged.txt"))
            .expect("the recorded paged baseline is checked in");
    let baseline_rate: f64 = baseline
        .lines()
        .find_map(|l| l.strip_prefix("point_reads_per_sec"))
        .and_then(|v| v.trim_start_matches(':').trim().parse().ok())
        .expect("baseline field point_reads_per_sec missing");
    let allowance: f64 = std::env::var("DOGMATIX_BASELINE_ALLOWANCE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.75);
    assert!(
        reads_per_sec >= baseline_rate / allowance,
        "budgeted point reads regressed: {reads_per_sec:.0}/s vs recorded \
         {baseline_rate:.0}/s (allowance {allowance}x)"
    );

    let json = format!(
        "{{\n  \"corpus\": \"cd_dataset1\",\n  \"corpus_n\": {CORPUS_N},\n  \
         \"page_size\": {PAGE_SIZE},\n  \"budget_bytes\": {BUDGET},\n  \
         \"snapshot_bytes\": {snapshot_bytes},\n  \
         \"budget_over_snapshot\": {:.3},\n  \
         \"warm_load_millis\": {load_millis:.1},\n  \
         \"point_reads_per_sec\": {reads_per_sec:.0},\n  \
         \"sweep_hit_rate\": {hit_rate:.3},\n  \
         \"sweep_evictions\": {}\n}}\n",
        BUDGET as f64 / snapshot_bytes as f64,
        sweep_stats.evictions,
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_paged.json");
    std::fs::write(out, json).expect("write BENCH_paged.json");
    println!(
        "paged scaling gate (cd n={CORPUS_N}): snapshot {snapshot_bytes} B under a \
         {BUDGET} B pool, warm load {load_millis:.1} ms, point reads \
         {reads_per_sec:.0}/s at {:.1}% hits (recorded {baseline_rate:.0}/s)",
        hit_rate * 100.0
    );
    let _ = std::fs::remove_file(&path);
}

fn bench_paged(c: &mut Criterion) {
    scaling_sanity();

    let fixture = CdFixture::dataset1(CORPUS_N);
    let path = scratch_snapshot("criterion");
    let save_backend = Arc::new(PagedBackend::save(&path).with_page_size(PAGE_SIZE));
    run(&fixture, Some(save_backend), 0);
    let snapshot_bytes = std::fs::metadata(&path).expect("snapshot written").len() as usize;

    let mut group = c.benchmark_group("paged_point_reads");
    group.sample_size(20);
    // A tight pool that must evict to make progress vs a roomy one that
    // holds the whole file: the spread prices the faulting.
    for (tag, budget) in [("tight_16k", BUDGET), ("roomy_all", snapshot_bytes * 2)] {
        let mut reader = PagedReader::open(&path, budget).expect("open snapshot");
        group.bench_with_input(BenchmarkId::new("budget", tag), &(), |b, ()| {
            b.iter(|| point_read_sweep(&mut reader))
        });
    }
    group.finish();
    let _ = std::fs::remove_file(&path);
}

criterion_group!(benches, bench_paged);
criterion_main!(benches);
