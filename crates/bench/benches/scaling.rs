//! End-to-end pipeline scaling: detection wall time vs. corpus size
//! (the paper's outlook names efficiency as future work — this bench
//! tracks where our implementation stands).
//!
//! Each size is measured twice: cold (`run`, re-deriving candidates and
//! ODs every iteration) and warm (`detect` against a reused
//! [`dogmatix_core::pipeline::DetectionSession`]), so the session cache's
//! payoff is itself tracked. A `threads` group times the movie corpus at
//! 1, 2 and all comparison workers; it reports and gates nothing (the
//! results are bit-identical at every count, which `tests/parallel.rs`
//! proves).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dogmatix_bench::{CdFixture, MovieFixture};
use dogmatix_core::heuristics::{table4_heuristic, HeuristicExpr};
use dogmatix_core::pipeline::Dogmatix;
use std::time::{Duration, Instant};

fn bench_threads(c: &mut Criterion) {
    let fixture = MovieFixture::dataset2(60);
    let heuristic = table4_heuristic(HeuristicExpr::r_distant_descendants(2), 1);
    let session = dogmatix_core::pipeline::DetectionSession::new(
        &fixture.doc,
        &fixture.schema,
        &fixture.mapping,
        dogmatix_eval::setup::MOVIE_TYPE,
    )
    .expect("fixture wiring is valid");
    let mut group = c.benchmark_group("threads");
    group.sample_size(10);
    for threads in [1usize, 2, 0] {
        let dx = Dogmatix::builder()
            .mapping(fixture.mapping.clone())
            .heuristic(heuristic.clone())
            .theta_tuple(dogmatix_eval::setup::THETA_TUPLE)
            .theta_cand(dogmatix_eval::setup::THETA_CAND)
            .threads(threads)
            .build();
        group.bench_with_input(BenchmarkId::new("threads", threads), &threads, |b, _| {
            b.iter(|| dx.detect(&session).unwrap())
        });
    }
    group.finish();
}

/// The columnar-store sanity gate the CI relies on: the comparison
/// phase over the columnar term store must not be slower than the
/// recorded baseline on the seeded CD corpus, and the store's heap
/// footprint must not grow past the recorded bytes (the checked-in
/// baseline is the pre-refactor String-per-tuple layout, 3.6× larger
/// than the columnar store it gates). The baseline lives in
/// `crates/bench/baselines/cd_comparison.txt`; re-record it with
/// `cargo run --release -p dogmatix_bench --bin record_baseline` —
/// after a re-record the gate holds the store at the re-recorded
/// (columnar) footprint, so it keeps catching regressions.
fn columnar_sanity() {
    let baseline = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/baselines/cd_comparison.txt"
    ))
    .expect("the recorded baseline is checked in");
    let field = |name: &str| -> u64 {
        baseline
            .lines()
            .find_map(|l| l.strip_prefix(name))
            .and_then(|v| v.trim_start_matches(':').trim().parse().ok())
            .unwrap_or_else(|| panic!("baseline field {name} missing"))
    };
    let baseline_micros = field("comparison_micros");
    let baseline_bytes = field("store_bytes");
    let baseline_pairs = field("pairs_compared");

    // Same setup the baseline was recorded under: dataset1 n=200, kc:6
    // exp1, threads=1, warm session (the OD cache keeps extraction and
    // interning out of the timed loop).
    let fixture = CdFixture::dataset1(200);
    let heuristic = table4_heuristic(HeuristicExpr::k_closest_descendants(6), 1);
    let dx = Dogmatix::builder()
        .mapping(fixture.mapping.clone())
        .heuristic(heuristic)
        .theta_tuple(dogmatix_eval::setup::THETA_TUPLE)
        .theta_cand(dogmatix_eval::setup::THETA_CAND)
        .threads(1)
        .build();
    let session = fixture.session();
    let result = dx.detect(&session).expect("the CD fixture runs");
    assert_eq!(
        result.stats.pairs_compared as u64, baseline_pairs,
        "the gate must compare the same workload the baseline measured"
    );

    let mut best = Duration::MAX;
    for _ in 0..9 {
        let t = Instant::now();
        let _ = dx.detect(&session).expect("the CD fixture runs");
        best = best.min(t.elapsed());
    }
    // Scheduler-noise allowance; the baseline is machine-specific, so a
    // different (slower) box should re-record it or raise the allowance
    // via DOGMATIX_BASELINE_ALLOWANCE instead of chasing ghosts.
    let allowance: f64 = std::env::var("DOGMATIX_BASELINE_ALLOWANCE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.08);
    assert!(
        best.as_micros() as f64 <= baseline_micros as f64 * allowance,
        "columnar comparison phase regressed: {best:?} vs pre-refactor \
         {baseline_micros}µs (allowance {allowance}x)"
    );

    let store_bytes = dogmatix_bench::od_set_heap_bytes(&result.ods) as u64;
    assert!(
        store_bytes <= baseline_bytes,
        "term-store heap footprint regressed: {store_bytes} vs recorded \
         {baseline_bytes} bytes"
    );
    println!(
        "columnar sanity (cd n=200, threads=1): comparison {best:?} vs \
         pre-refactor {baseline_micros}µs; store {store_bytes} B vs {baseline_bytes} B \
         ({:.1}x smaller)",
        baseline_bytes as f64 / store_bytes.max(1) as f64
    );
}

fn bench_scaling(c: &mut Criterion) {
    columnar_sanity();

    let mut group = c.benchmark_group("pipeline_scaling");
    group.sample_size(10);
    let heuristic = table4_heuristic(HeuristicExpr::k_closest_descendants(6), 1);
    for n in [50usize, 100, 200] {
        let fixture = CdFixture::dataset1(n);
        let dx = fixture.detector(heuristic.clone(), true);
        group.bench_with_input(BenchmarkId::new("cold", n), &n, |b, _| {
            b.iter(|| {
                dx.run(&fixture.doc, &fixture.schema, dogmatix_eval::setup::CD_TYPE)
                    .unwrap()
            })
        });
        let session = fixture.session();
        group.bench_with_input(BenchmarkId::new("warm_session", n), &n, |b, _| {
            b.iter(|| dx.detect(&session).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_threads, bench_scaling);
criterion_main!(benches);
