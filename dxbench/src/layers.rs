//! The traced pass: per-layer metrics from spans recorded around the
//! program's public calls.
//!
//! Every workload's traced pass runs the same two parts over its own
//! corpus and detector, so every per-layer metric is measured on every
//! workload:
//!
//! 1. detection decomposed into one call per layer, checked equal to
//!    `Dogmatix::detect` (for serving workloads this is the server's
//!    initial detection, which their set-up pays);
//! 2. a single-threaded replay of what the `dogmatixd` writer and probe
//!    workers do: open an incremental session, detect, create the log,
//!    publish, then per ingest parse → log append → commit → delta
//!    detection → publish, and per probe resolve → query. Serving
//!    workloads replay their own request streams; the other workloads
//!    replay one ingest cycle and probes over their corpus, what those
//!    layers would cost on it.

use crate::inputs::{DeltaKind, Inputs};
use crate::pipeline::{digest, Decomposed, Stages};
use crate::report::Report;
use crate::stats::median;
use crate::trace::Tracer;
use dogmatix_core::probe::ProbeScratch;
use dogmatix_core::sim::EditKernelChoice;
use dogmatix_core::{DetectionSession, DocumentDelta, DogmatixError, FsyncPolicy, Wal};
use dogmatix_datagen::GoldStandard;
use dogmatix_eval::metrics::pair_metrics;
use dogmatix_xml::Document;
use std::path::Path;
use std::time::Instant;

/// How much of the traced pass to run.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Decomposed runs continue until this many are done and half the
    /// run time has passed.
    pub min_rounds: usize,
    pub seconds: f64,
    /// Requests replayed at most.
    pub ingests: usize,
    pub probes: usize,
}

/// Timings taken outside the tracer, per decomposed round.
struct Rounds {
    last: Decomposed,
    cold_ms: Vec<f64>,
}

fn decomposed_rounds(
    stages: &Stages,
    xml: &str,
    budget: Budget,
    t: &mut Tracer,
    report: &mut Report,
) -> Result<Rounds, DogmatixError> {
    let dx = stages.detector(1);
    let start = Instant::now();
    let mut cold_ms = Vec::new();
    let mut reference = None;
    let mut round = 0;
    loop {
        t.set_id(round as u64);
        let run = stages.decomposed_run(t, xml)?;

        let began = Instant::now();
        let cold = stages.cold_run(&dx, xml)?;
        cold_ms.push(began.elapsed().as_secs_f64() * 1e3);

        let schema = stages.schema(&run.doc)?;
        let session = DetectionSession::new(&run.doc, &schema, &stages.mapping, stages.rw_type)?;
        let detected = t.span("pipeline.detect", |_| dx.detect(&session))?;

        report.attempted += 1;
        let same = detected.duplicate_pairs == run.pairs
            && detected.clusters == run.clusters
            && cold.duplicate_pairs == run.pairs;
        let d = digest(&run.pairs);
        if !same || *reference.get_or_insert(d) != d {
            report.failed += 1;
            report.problem(format!(
                "decomposed round {round} differs from Dogmatix::detect or from round 0"
            ));
        }
        round += 1;
        if round >= budget.min_rounds && start.elapsed().as_secs_f64() >= budget.seconds / 2.0 {
            return Ok(Rounds { last: run, cold_ms });
        }
    }
}

/// Median self time of a span, in milliseconds.
fn ms(t: &Tracer, name: &str) -> f64 {
    median(&t.self_ms(name))
}

/// The layers `Dogmatix::detect` runs, as spans of a decomposed run.
const DETECT_STEPS: [&str; 6] = [
    "heuristics.select",
    "od.build",
    "filter.reduce",
    "sim.prepare",
    "sim.score",
    "cluster",
];

fn detection_metrics(
    stages: &Stages,
    inputs: &Inputs,
    rounds: &Rounds,
    t: &Tracer,
    quality_floor: Option<(f64, f64)>,
    report: &mut Report,
) {
    let run = &rounds.last;
    for (metric, span) in [
        ("xml.parse_ms", "xml.parse"),
        ("xml.schema_ms", "xml.schema"),
        ("candidate.resolve_ms", "candidate.resolve"),
        ("heuristics.select_ms", "heuristics.select"),
        ("od.build_ms", "od.build"),
        ("filter.reduce_ms", "filter.reduce"),
        ("sim.prepare_ms", "sim.prepare"),
        ("sim.score_ms", "sim.score"),
        ("cluster.ms", "cluster"),
    ] {
        report.metric(metric, ms(t, span));
    }
    let n = run.candidates.len();
    let planned = run.plan.len();
    let total = n * n.saturating_sub(1) / 2;
    report.metric("xml.input_bytes", inputs.xml.len() as f64);
    report.metric("candidate.count", n as f64);
    report.metric("od.store_bytes", run.ods.heap_bytes() as f64);
    report.metric("filter.pairs_planned", planned as f64);
    report.metric("filter.pruned", run.pruned as f64);
    report.metric("filter.plan_frac", planned as f64 / total.max(1) as f64);
    report.metric(
        "filter.dup_yield",
        run.pairs.len() as f64 / planned.max(1) as f64,
    );
    report.metric(
        "sim.ns_per_pair",
        ms(t, "sim.score") * 1e6 / planned.max(1) as f64,
    );
    report.metric("sim.memo_entries", run.memo_entries as f64);

    // Gap: how much of a whole `detect` the per-layer spans miss, per
    // round.
    let runs = t.durations_ms("run");
    let detects = t.durations_ms("pipeline.detect");
    let step_sums: Vec<f64> = (0..detects.len())
        .map(|round| {
            DETECT_STEPS
                .iter()
                .map(|s| t.self_ms(s)[round])
                .sum::<f64>()
        })
        .collect();
    let gaps: Vec<f64> = detects
        .iter()
        .zip(&step_sums)
        .map(|(d, s)| (d - s) / d)
        .collect();
    report.metric("pipeline.run_ms", median(&runs));
    report.metric("pipeline.detect_ms", median(&detects));
    report.metric("pipeline.trace_gap_frac", median(&gaps));
    report.metric(
        "pipeline.trace_overhead_frac",
        median(&runs) / median(&rounds.cold_ms) - 1.0,
    );

    let m = pair_metrics(&run.pairs, &GoldStandard::new(inputs.gold.clone()));
    report.metric("quality.precision", m.precision());
    report.metric("quality.recall", m.recall());
    if let Some((min_p, min_r)) = quality_floor {
        if m.precision() < min_p || m.recall() < min_r {
            report.problem(format!(
                "quality fell to precision {:.3} recall {:.3} (floor {min_p} / {min_r})",
                m.precision(),
                m.recall()
            ));
        }
    }

    // Kernel attribution: the same plan through the scalar DP and the
    // default kernel, alternating; kernels are exact, so pairs agree.
    let (mut scalar, mut fast) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        for (kernel, times) in [
            (EditKernelChoice::Scalar, &mut scalar),
            (EditKernelChoice::default(), &mut fast),
        ] {
            let began = Instant::now();
            let pairs = stages.rescore(run, kernel);
            times.push(began.elapsed().as_secs_f64() * 1e3);
            report.attempted += 1;
            if pairs != run.pairs {
                report.failed += 1;
                report.problem(format!(
                    "the {} kernel changed the duplicate pairs",
                    kernel.as_str()
                ));
            }
        }
    }
    let (scalar, fast) = (median(&scalar), median(&fast));
    let scalar_run = median(&rounds.cold_ms) - fast + scalar;
    report.metric("sim.score_ms.scalar", scalar);
    report.metric("textsim.kernel_saving_frac", (scalar - fast) / scalar_run);

    // Two comparison threads against one, warm session (diagnostic).
    let schema = stages.schema(&run.doc);
    let speedup = schema.ok().and_then(|schema| {
        let session =
            DetectionSession::new(&run.doc, &schema, &stages.mapping, stages.rw_type).ok()?;
        let (one, two) = (stages.detector(1), stages.detector(2));
        let (mut t1, mut t2) = (Vec::new(), Vec::new());
        for _ in 0..5 {
            for (dx, times) in [(&one, &mut t1), (&two, &mut t2)] {
                let began = Instant::now();
                let result = dx.detect(&session).ok()?;
                times.push(began.elapsed().as_secs_f64() * 1e3);
                if result.duplicate_pairs != run.pairs {
                    return None;
                }
            }
        }
        Some(median(&t1) / median(&t2))
    });
    match speedup {
        Some(s) => report.metric("pipeline.t2_speedup", s),
        None => report.problem("two-thread detection failed or disagreed with one thread"),
    }
}

fn replay(
    stages: &Stages,
    inputs: &Inputs,
    dir: &Path,
    budget: Budget,
    t: &mut Tracer,
    report: &mut Report,
) -> Result<(), DogmatixError> {
    let dx = stages.detector(1);
    t.set_id(0);
    let doc = Document::parse(&inputs.xml)?;
    let mut session = t.span("incremental.open", |_| stages.incremental(&dx, doc))?;
    t.span("incremental.initial_detect", |_| {
        dx.detect_delta(&mut session, &[])
    })?;
    let mut wal = t.span("wal.create", |_| {
        Wal::create(dir.join("replay.wal"), &session, FsyncPolicy::Batch)
    })?;
    let mut snapshot = t.span("probe.publish", |_| {
        session.publish_snapshot(&dx, stages.blocking)
    })?;

    let ingests = &inputs.ingests[..budget.ingests.min(inputs.ingests.len())];
    let probes = &inputs.probes[..budget.probes.min(inputs.probes.len())];
    let mut scratch = ProbeScratch::new();
    let mut rescored = Vec::new();
    let mut examined = Vec::new();
    let mut next_probe = 0;
    for k in 0..=ingests.len() {
        // Probes spread evenly before, between and after the ingests.
        let until = (k + 1) * probes.len() / (ingests.len() + 1);
        for (i, probe) in probes.iter().enumerate().take(until).skip(next_probe) {
            t.set_id(i as u64);
            let record = t.span("probe.resolve", |_| snapshot.record_from_xml(&probe.xml))?;
            let answer = t.span("probe.query", |_| {
                snapshot.probe(&record, crate::serve::PROBE_K, &mut scratch)
            })?;
            report.attempted += 1;
            examined.push(
                answer.stats.candidates_examined as f64 / answer.stats.total_objects.max(1) as f64,
            );
            if let Some(want) = probe.expect {
                if !answer.matches.iter().any(|m| m.index == want) {
                    report.failed += 1;
                    report.problem(format!("replayed probe {i} missed loaded record {want}"));
                }
            }
        }
        next_probe = next_probe.max(until);
        let Some(ingest) = ingests.get(k) else { break };

        t.set_id((probes.len() + k) as u64);
        let delta = DocumentDelta::parse(&ingest.delta)?;
        t.span("wal.append", |_| wal.append(&delta))?;
        t.span("wal.commit", |_| wal.commit())?;
        let before = session.counters().pairs_scored;
        let span = match ingest.kind {
            DeltaKind::Insert => "incremental.delta.insert",
            DeltaKind::Update => "incremental.delta.update",
            DeltaKind::Remove => "incremental.delta.remove",
        };
        let result = t.span(span, |_| {
            dx.detect_delta(&mut session, std::slice::from_ref(&delta))
        })?;
        rescored.push((session.counters().pairs_scored - before) as f64);
        snapshot = t.span("probe.publish", |_| {
            session.publish_snapshot(&dx, stages.blocking)
        })?;
        report.attempted += 1;
        if result.candidates.len() != ingest.objects_after {
            report.failed += 1;
            report.problem(format!(
                "replayed ingest {k} left {} objects, the request stream predicts {}",
                result.candidates.len(),
                ingest.objects_after
            ));
        }
    }
    let predicted = ingests.last().map_or(inputs.objects, |g| g.objects_after);
    if snapshot.len() != predicted {
        report.problem(format!(
            "the replay ended with {} objects, not {predicted}",
            snapshot.len()
        ));
    }

    report.metric("incremental.open_ms", ms(t, "incremental.open"));
    report.metric(
        "incremental.initial_detect_ms",
        ms(t, "incremental.initial_detect"),
    );
    report.metric(
        "incremental.delta_ms.insert",
        ms(t, "incremental.delta.insert"),
    );
    report.metric(
        "incremental.delta_ms.update",
        ms(t, "incremental.delta.update"),
    );
    report.metric(
        "incremental.delta_ms.remove",
        ms(t, "incremental.delta.remove"),
    );
    report.metric(
        "incremental.pairs_rescored",
        rescored.iter().sum::<f64>() / rescored.len().max(1) as f64,
    );
    report.metric("wal.create_ms", ms(t, "wal.create"));
    report.metric("wal.append_us", ms(t, "wal.append") * 1e3);
    report.metric("wal.commit_us", ms(t, "wal.commit") * 1e3);
    report.metric("probe.publish_ms", ms(t, "probe.publish"));
    report.metric("probe.resolve_us", ms(t, "probe.resolve") * 1e3);
    report.metric("probe.query_us", ms(t, "probe.query") * 1e3);
    report.metric(
        "probe.examined_frac",
        examined.iter().sum::<f64>() / examined.len().max(1) as f64,
    );
    Ok(())
}

/// Runs the traced pass and records every per-layer metric; spans go to
/// `trace_path`.
pub fn measure(
    stages: &Stages,
    inputs: &Inputs,
    dir: &Path,
    budget: Budget,
    quality_floor: Option<(f64, f64)>,
    trace_path: &Path,
    report: &mut Report,
) {
    let mut t = Tracer::new();
    match decomposed_rounds(stages, &inputs.xml, budget, &mut t, report) {
        Ok(rounds) => detection_metrics(stages, inputs, &rounds, &t, quality_floor, report),
        Err(e) => {
            report.failed += 1;
            report.problem(format!("decomposed detection: {e}"));
        }
    }
    if let Err(e) = replay(stages, inputs, dir, budget, &mut t, report) {
        report.failed += 1;
        report.problem(format!("serving replay: {e}"));
    }
    if let Err(e) = t.write_jsonl(trace_path) {
        report.problem(format!("writing {}: {e}", trace_path.display()));
    }
}
