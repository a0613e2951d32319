//! Streaming-ingest benches: delta replay through an
//! `IncrementalSession` against full re-detection after every change,
//! on the CD corpus (Dataset 1, fixed XSD schema) and the integrated
//! movie corpus (Dataset 2, inferred schema).
//!
//! Besides wall-clock timings, the bench verifies and reports the work
//! reduction the acceptance criterion asks for: over a scripted update
//! stream, delta replay must perform strictly fewer pair comparisons
//! than re-running batch detection from scratch after each delta.
//!
//! It also gates what an update costs against a batch run, in time: on
//! the CD corpus, one title update through `detect_delta` and one batch
//! `detect` of the same state are timed interleaved, best of
//! [`RATIO_ROUNDS`], and their ratio must stay at or below
//! [`MAX_UPDATE_TO_BATCH`]. Both sides run in this process on one
//! worker, so the ratio carries from host to host where an absolute
//! time would not.

use criterion::{criterion_group, criterion_main, Criterion};
use dogmatix_bench::{CdFixture, MovieFixture};
use dogmatix_core::heuristics::HeuristicExpr;
use dogmatix_core::incremental::DocumentDelta;
use dogmatix_core::pipeline::{DetectionSession, Dogmatix};
use dogmatix_xml::{Document, Schema};
use std::time::{Duration, Instant};

/// Interleaved rounds of the update-to-batch timing; the best of each
/// side is kept.
const RATIO_ROUNDS: usize = 15;

/// Largest allowed ratio of a CD title update through `detect_delta` to
/// a batch `detect` of the same state (200 candidates). A 2-vCPU host
/// measured 0.64–0.66 when every delta re-joined the whole similar-term
/// graph and rebuilt a verdict for every planned pair, and 0.12 once
/// the graph is carried across deltas and only reported verdicts are
/// replayed.
const MAX_UPDATE_TO_BATCH: f64 = 0.25;

/// A stream of title updates cycling through the candidates.
fn update_stream(len: usize) -> Vec<DocumentDelta> {
    (0..len)
        .map(|k| DocumentDelta::UpdateText {
            index: k * 7,
            path: "title".into(),
            occurrence: 0,
            value: format!("Retitled Edition Vol {k}"),
        })
        .collect()
}

/// Applies the stream incrementally, returning total pairs compared.
fn replay_incremental(
    dx: &Dogmatix,
    doc: &Document,
    schema: &Schema,
    rw_type: &str,
    stream: &[DocumentDelta],
) -> usize {
    let mut session = dx
        .incremental_session(doc.clone(), schema.clone(), rw_type)
        .expect("session opens");
    let mut compared = dx
        .detect_delta(&mut session, &[])
        .expect("initial run")
        .stats
        .pairs_compared;
    for delta in stream {
        compared += dx
            .detect_delta(&mut session, std::slice::from_ref(delta))
            .expect("delta applies")
            .stats
            .pairs_compared;
    }
    compared
}

/// Applies the stream by mutating a throwaway session but re-detecting
/// from scratch after every delta, returning total pairs compared.
fn replay_full(
    dx: &Dogmatix,
    doc: &Document,
    schema: &Schema,
    rw_type: &str,
    stream: &[DocumentDelta],
) -> usize {
    // Reuse the incremental machinery only to *apply* deltas; detection
    // is a fresh batch session per step, like a naive service would do.
    let mut carrier = dx
        .incremental_session(doc.clone(), schema.clone(), rw_type)
        .expect("session opens");
    let initial = DetectionSession::new(doc, schema, dx.mapping(), rw_type).expect("session");
    let mut compared = dx.detect(&initial).expect("batch").stats.pairs_compared;
    for delta in stream {
        carrier.apply(delta).expect("delta applies");
        let state = carrier.doc().clone();
        let session =
            DetectionSession::new(&state, schema, dx.mapping(), rw_type).expect("session");
        compared += dx.detect(&session).expect("batch").stats.pairs_compared;
    }
    compared
}

/// Best-of-[`RATIO_ROUNDS`] times of one title update through an
/// incremental session and of one batch detection over the state that
/// update left, measured interleaved so load drift hits both alike.
fn update_and_batch_times(fixture: &CdFixture) -> (Duration, Duration) {
    let rw = dogmatix_eval::setup::CD_TYPE;
    let dx = Dogmatix::builder()
        .mapping(fixture.mapping.clone())
        .heuristic(HeuristicExpr::k_closest_descendants(6))
        .theta_tuple(dogmatix_eval::setup::THETA_TUPLE)
        .theta_cand(dogmatix_eval::setup::THETA_CAND)
        .threads(1)
        .build();
    let mut session = dx
        .incremental_session(fixture.doc.clone(), fixture.schema.clone(), rw)
        .expect("session opens");
    dx.detect_delta(&mut session, &[]).expect("initial run");
    let mut best = (Duration::MAX, Duration::MAX);
    for round in 0..RATIO_ROUNDS {
        let delta = DocumentDelta::UpdateText {
            index: 11,
            path: "title".into(),
            occurrence: 0,
            value: format!("Retitled Edition Vol {}", round % 2),
        };
        let t = Instant::now();
        let inc = dx
            .detect_delta(&mut session, std::slice::from_ref(&delta))
            .expect("delta applies");
        best.0 = best.0.min(t.elapsed());

        let state = session.doc().clone();
        let batch_session = DetectionSession::new(&state, &fixture.schema, dx.mapping(), rw)
            .expect("batch session opens");
        let t = Instant::now();
        let full = dx.detect(&batch_session).expect("batch runs");
        best.1 = best.1.min(t.elapsed());
        assert_eq!(inc.duplicate_pairs, full.duplicate_pairs, "round {round}");
    }
    best
}

fn bench_cd_streaming(c: &mut Criterion) {
    let fixture = CdFixture::dataset1(100);
    let dx = fixture.detector(HeuristicExpr::k_closest_descendants(6), true);
    let stream = update_stream(8);
    let rw = dogmatix_eval::setup::CD_TYPE;

    // The acceptance check: strictly fewer comparisons via delta replay.
    let inc = replay_incremental(&dx, &fixture.doc, &fixture.schema, rw, &stream);
    let full = replay_full(&dx, &fixture.doc, &fixture.schema, rw, &stream);
    assert!(
        inc < full,
        "delta replay must compare strictly fewer pairs ({inc} vs {full})"
    );
    println!(
        "cd corpus, {} deltas: {inc} pairs compared incrementally vs {full} from scratch \
         ({:.1}% of the work)",
        stream.len(),
        100.0 * inc as f64 / full as f64
    );

    let (update, batch) = update_and_batch_times(&fixture);
    let ratio = update.as_secs_f64() / batch.as_secs_f64().max(1e-12);
    println!(
        "cd corpus, one title update vs batch detect of the same state (best of \
         {RATIO_ROUNDS}, interleaved): {update:?} vs {batch:?} = {ratio:.3} \
         (bound {MAX_UPDATE_TO_BATCH})"
    );
    assert!(
        ratio <= MAX_UPDATE_TO_BATCH,
        "a title update must cost at most {MAX_UPDATE_TO_BATCH} of a batch run \
         ({update:?} vs {batch:?} = {ratio:.3})"
    );

    let mut group = c.benchmark_group("streaming_cd");
    group.sample_size(10);
    group.bench_function("delta_replay", |b| {
        b.iter(|| replay_incremental(&dx, &fixture.doc, &fixture.schema, rw, &stream))
    });
    group.bench_function("full_redetect", |b| {
        b.iter(|| replay_full(&dx, &fixture.doc, &fixture.schema, rw, &stream))
    });
    group.finish();
}

fn bench_movie_streaming(c: &mut Criterion) {
    let fixture = MovieFixture::dataset2(60);
    let dx = fixture.detector(HeuristicExpr::r_distant_descendants(2), true);
    let stream = update_stream(6);
    let rw = dogmatix_eval::setup::MOVIE_TYPE;

    let inc = replay_incremental(&dx, &fixture.doc, &fixture.schema, rw, &stream);
    let full = replay_full(&dx, &fixture.doc, &fixture.schema, rw, &stream);
    assert!(
        inc < full,
        "delta replay must compare strictly fewer pairs ({inc} vs {full})"
    );
    println!(
        "movie corpus, {} deltas: {inc} pairs compared incrementally vs {full} from scratch \
         ({:.1}% of the work)",
        stream.len(),
        100.0 * inc as f64 / full as f64
    );

    let mut group = c.benchmark_group("streaming_movie");
    group.sample_size(10);
    group.bench_function("delta_replay", |b| {
        b.iter(|| replay_incremental(&dx, &fixture.doc, &fixture.schema, rw, &stream))
    });
    group.bench_function("full_redetect", |b| {
        b.iter(|| replay_full(&dx, &fixture.doc, &fixture.schema, rw, &stream))
    });
    group.finish();
}

criterion_group!(benches, bench_cd_streaming, bench_movie_streaming);
criterion_main!(benches);
