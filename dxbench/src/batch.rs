//! Batch workloads: a closed loop of cold detection runs (XML text in,
//! clusters out) in a fresh worker process, so its set-up time and peak
//! memory belong to the workload alone.

use crate::inputs;
use crate::pipeline::digest;
use crate::report::Report;
use crate::speed;
use crate::stats;
use crate::workloads::Workload;
use dogmatix_datagen::GoldStandard;
use dogmatix_eval::metrics::pair_metrics;
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Enough runs that the 90th percentile leaves ten samples beyond it.
pub const MIN_RUNS: usize = 100;

/// The worker process: cold runs until `seconds` have passed and at
/// least `min_runs` are done, one `run <ns> <digest>` line each, with a
/// `kernel <ms>` line for the host speed kernel before every run and
/// after the last; then the first run's quality and the process's peak
/// memory.
pub fn worker(w: &Workload, dir: &Path, seconds: f64, min_runs: usize) -> Result<(), String> {
    let (xml, gold) = inputs::read(dir).map_err(|e| format!("reading inputs: {e}"))?;
    let gold = GoldStandard::new(gold);
    let stages = w.stages();
    // One comparison thread, the detector's default; the traced pass
    // reports what a second one gives (`pipeline.t2_speedup`).
    let dx = stages.detector(1);
    let mut out = std::io::stdout().lock();
    let start = Instant::now();
    let mut runs = 0;
    while runs < min_runs || start.elapsed().as_secs_f64() < seconds {
        writeln!(out, "kernel {}", speed::kernel_ms()).map_err(|e| e.to_string())?;
        let t = Instant::now();
        let result = stages.cold_run(&dx, &xml).map_err(|e| e.to_string())?;
        let ns = t.elapsed().as_nanos();
        let line = format!("run {ns} {:016x}", digest(&result.duplicate_pairs));
        writeln!(out, "{line}").map_err(|e| e.to_string())?;
        if runs == 0 {
            let m = pair_metrics(&result.duplicate_pairs, &gold);
            writeln!(out, "quality {} {}", m.precision(), m.recall()).map_err(|e| e.to_string())?;
        }
        runs += 1;
    }
    writeln!(out, "kernel {}", speed::kernel_ms()).map_err(|e| e.to_string())?;
    let rss = crate::peak_rss_kb("self").ok_or("no VmHWM in /proc/self/status")?;
    writeln!(out, "rss_kb {rss}").map_err(|e| e.to_string())
}

/// One cold run a worker reported.
#[derive(Debug, Clone, Copy)]
struct Run {
    ms: f64,
    digest: u64,
}

/// What one worker reported.
#[derive(Debug, Default)]
struct WorkerOutput {
    runs: Vec<Run>,
    /// Host speed kernel times before each run and after the last.
    kernel_ms: Vec<f64>,
    quality: Option<(f64, f64)>,
    rss_kb: Option<u64>,
    /// From spawn to the first result.
    first: Option<Duration>,
}

fn spawn_worker(
    w: &Workload,
    dir: &Path,
    seconds: f64,
    min_runs: usize,
) -> Result<WorkerOutput, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let start = Instant::now();
    let mut child = Command::new(exe)
        .arg("worker")
        .arg(w.name)
        .arg(dir)
        .arg(seconds.to_string())
        .arg(min_runs.to_string())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawning worker: {e}"))?;
    let stdout = child.stdout.take().ok_or("worker has no stdout")?;
    let mut out = WorkerOutput::default();
    let mut bad = None;
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| e.to_string())?;
        let words: Vec<&str> = line.split_whitespace().collect();
        match words[..] {
            ["kernel", ms] => match ms.parse() {
                Ok(ms) => out.kernel_ms.push(ms),
                Err(_) => bad = Some(line.clone()),
            },
            ["run", ns, hex] => {
                out.first.get_or_insert_with(|| start.elapsed());
                match (ns.parse::<u64>(), u64::from_str_radix(hex, 16)) {
                    (Ok(ns), Ok(digest)) => out.runs.push(Run {
                        ms: ns as f64 / 1e6,
                        digest,
                    }),
                    _ => bad = Some(line.clone()),
                }
            }
            ["quality", p, r] => out.quality = p.parse().ok().zip(r.parse().ok()),
            ["rss_kb", kb] => out.rss_kb = kb.parse().ok(),
            _ => bad = Some(line.clone()),
        }
    }
    let status = child.wait().map_err(|e| e.to_string())?;
    if !status.success() {
        return Err(format!("worker exited with {status}"));
    }
    match bad {
        Some(line) => Err(format!("unexpected worker output: {line}")),
        None => Ok(out),
    }
}

/// Measures a batch workload: fresh workers for set-up time, then one
/// worker looping cold runs. Times are stated at the nominal host speed
/// ([`speed`]); the raw ones are diagnostics.
pub fn measure(
    w: &Workload,
    dir: &Path,
    seconds: f64,
    min_runs: usize,
    quality_floor: Option<(f64, f64)>,
    report: &mut Report,
) {
    let mut setup = Vec::new();
    let mut digests = Vec::new();
    for _ in 0..crate::SETUP_STARTS {
        report.attempted += 1;
        let before = speed::busy_kernel_ms(speed::BURST);
        match spawn_worker(w, dir, 0.0, 1) {
            Ok(out) => {
                let kernel = (before + speed::busy_kernel_ms(speed::BURST)) / 2.0;
                setup.extend(out.first.map(|d| speed::adjust(d.as_secs_f64(), kernel)));
                digests.extend(out.runs.iter().map(|r| r.digest));
            }
            Err(e) => {
                report.failed += 1;
                report.problem(format!("set-up worker: {e}"));
            }
        }
    }
    let out = match spawn_worker(w, dir, seconds, min_runs) {
        Ok(out) => out,
        Err(e) => {
            report.failed += 1;
            report.problem(format!("measuring worker: {e}"));
            return;
        }
    };
    report.attempted += out.runs.len() as u64;
    let reference = out.runs.first().map(|r| r.digest);
    // Every run, in this worker and in the fresh ones, must produce the
    // first run's duplicate pairs.
    let differing = out
        .runs
        .iter()
        .map(|r| r.digest)
        .chain(digests)
        .filter(|d| Some(*d) != reference)
        .count();
    if differing > 0 {
        report.failed += differing as u64;
        report.problem(format!(
            "{differing} runs differ from the first run's duplicate pairs"
        ));
    }
    if let Some((p, r)) = out.quality {
        report.diagnostic("quality.precision", p, "ratio");
        report.diagnostic("quality.recall", r, "ratio");
        if let Some((min_p, min_r)) = quality_floor {
            if p < min_p || r < min_r {
                report.problem(format!(
                    "quality fell to precision {p:.3} recall {r:.3} (floor {min_p} / {min_r})"
                ));
            }
        }
    }
    if !setup.is_empty() {
        report.metric("setup_s", stats::median(&setup));
    }
    let raw: Vec<f64> = out.runs.iter().map(|r| r.ms).collect();
    if out.kernel_ms.len() != raw.len() + 1 {
        report.problem("the worker did not time the speed kernel around every run");
        return;
    }
    // Each run at the mean kernel time of the samples before and after it.
    let adjusted: Vec<f64> = raw
        .iter()
        .zip(out.kernel_ms.windows(2))
        .map(|(ms, k)| speed::adjust(*ms, (k[0] + k[1]) / 2.0))
        .collect();
    if let Some(s) = stats::Summary::of(&adjusted) {
        report.metric("latency_mean_ms", s.mean);
        match s.p90 {
            Some(p90) => report.metric("latency_p90_ms", p90),
            None => report.problem(format!("{} runs cannot support a 90th percentile", s.n)),
        }
        report.diagnostic("runs", s.n as f64, "count");
        report.diagnostic("speed.kernel_ms", stats::median(&out.kernel_ms), "ms");
    }
    if let Some(s) = stats::Summary::of(&raw) {
        report.summary("raw.latency", &s);
    }
    match out.rss_kb {
        Some(kb) => report.metric("peak_rss_mb", kb as f64 / 1024.0),
        None => report.problem("the worker reported no peak memory"),
    }
}
