//! `dxbench` — the end-to-end and per-layer benchmark of DogmatiX batch
//! detection and `dogmatixd` serving. See README.md for the workloads,
//! the metrics and how to run, trace and compare.

mod batch;
mod compare;
mod inputs;
mod json;
mod layers;
mod loadgen;
mod pipeline;
mod report;
mod serve;
mod speed;
mod stats;
mod trace;
mod workloads;

use inputs::Inputs;
use report::{Report, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{Detector, Traffic, Workload, WORKLOADS};

const USAGE: &str = "usage:
  dxbench --workload <name> [--seed <n>] [--seconds <s>] [--trace 0|1] [--out <file>] [--smoke]
  dxbench run [--workload <name>,...] [--seeds <n>,...] [--seconds <s>] [--trace] [--out <file>] [--smoke]
  dxbench compare <A.jsonl> <B.jsonl> [--benchmark <BENCHMARK.json>]

The last line of a workload run is its result: {\"correct\", \"attempted\", \"failed\", \"metrics\"}.
--seed defaults to 42; seed 7 is held out for checking claims. --out appends a
record per run that `compare` reads. Workloads: batch-cd-paper, batch-movie-lsh,
serve-probe, serve-mixed, serve-ingest.";

/// Fresh starts per run whose median time to the first result is
/// `setup_s`: a worker's first cold run (batch), or `dogmatixd` until it
/// listens (serving).
pub const SETUP_STARTS: usize = 11;
/// Cold runs, probes and ingests in the traced pass.
const TRACE_MIN_ROUNDS: usize = 10;
const REPLAY_INGESTS: usize = 40;
const REPLAY_PROBES: usize = 1000;
/// One full ingest cycle: what non-ingesting workloads replay.
const CYCLE: usize = 10;
/// Probes replayed by workloads whose traffic sends none.
const BATCH_PROBES: usize = 200;

/// Settings of one workload run.
#[derive(Debug, Clone)]
struct Opts {
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
    dogmatixd: PathBuf,
}

/// Where build outputs and the benchmark's files go: `$CARGO_TARGET_DIR`
/// or `target`, relative to the checkout.
fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from)
}

/// Peak resident memory (`VmHWM`) of process `pid` (`self` for this
/// one), in KiB.
pub fn peak_rss_kb(pid: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Minimum quality of a full-size workload's detection; a change that
/// loses more of it fails the run.
fn quality_floor(w: &Workload, smoke: bool) -> Option<(f64, f64)> {
    if smoke {
        return None;
    }
    Some(match w.detector {
        Detector::CdPaper => (0.90, 0.90),
        Detector::MovieLsh => (0.60, 0.35),
        Detector::Served => (0.90, 0.90),
    })
}

fn run_workload(w: &Workload, opts: &Opts) -> Report {
    let s = opts.seconds;
    let (probes, ingests) = match w.traffic {
        Traffic::Batch => (BATCH_PROBES, CYCLE),
        Traffic::Serve(load) => (
            ((load.probe_rate * s) as usize).max(BATCH_PROBES),
            ((load.ingest_rate * s) as usize).max(CYCLE),
        ),
    };
    let inputs = Inputs::generate(w.corpus(opts.smoke), opts.seed, probes, ingests);
    let root = target_dir().join("dxbench");
    let dir = root.join(format!("work-{}-{}", std::process::id(), w.name));
    let mut report = Report::default();
    if let Err(e) = inputs.write(&dir) {
        report.problem(format!("writing inputs to {}: {e}", dir.display()));
        return report;
    }
    let floor = quality_floor(w, opts.smoke);
    if opts.trace {
        let budget = if opts.smoke {
            layers::Budget {
                min_rounds: 3,
                seconds: s,
                ingests: CYCLE,
                probes: 50,
            }
        } else {
            layers::Budget {
                min_rounds: TRACE_MIN_ROUNDS,
                seconds: s,
                ingests: REPLAY_INGESTS,
                probes: REPLAY_PROBES,
            }
        };
        let trace_path = root.join(format!("trace-{}.jsonl", w.name));
        layers::measure(
            &w.stages(),
            &inputs,
            &dir,
            budget,
            floor,
            &trace_path,
            &mut report,
        );
        report.check_complete(&PER_LAYER);
    } else {
        match w.traffic {
            Traffic::Batch => batch::measure(w, &dir, s, batch::MIN_RUNS, floor, &mut report),
            Traffic::Serve(load) => serve::measure(
                load,
                &inputs,
                &dir,
                s,
                &opts.dogmatixd,
                opts.seed,
                &mut report,
            ),
        }
        report.check_complete(&END_TO_END);
    }
    let _ = std::fs::remove_dir_all(&dir);
    report
}

/// Prints the run's result (last line of stdout) and appends its record
/// to `--out`.
fn emit(w: &Workload, opts: &Opts, report: &Report) -> Result<(), String> {
    for p in &report.problems {
        eprintln!("dxbench: {}: {p}", w.name);
    }
    for m in report.metrics.iter().chain(&report.diagnostics) {
        eprintln!(
            "dxbench: {:<16} {:<32} {:>14.4} {}",
            w.name, m.name, m.value, m.unit
        );
    }
    if let Some(path) = &opts.out {
        use std::io::Write as _;
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        writeln!(file, "{}", report.record(w.name, opts.seed, opts.trace))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{}", report.line());
    Ok(())
}

/// Flag values after the subcommand: `--name value` pairs and bare
/// `--switch`es.
struct Flags(Vec<String>);

impl Flags {
    fn value(&self, name: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == name)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn has(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    fn parse<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{name}: cannot parse '{v}'")),
        }
    }

    fn opts(&self) -> Result<Opts, String> {
        let seconds: f64 = self.parse("--seconds", 15.0)?;
        if !(0.0..=120.0).contains(&seconds) {
            return Err(format!("--seconds must be within 0..=120, got {seconds}"));
        }
        Ok(Opts {
            seed: self.parse("--seed", 42)?,
            seconds,
            trace: matches!(self.value("--trace"), Some("1")),
            smoke: self.has("--smoke"),
            out: self.value("--out").map(PathBuf::from),
            dogmatixd: self.value("--dogmatixd").map_or_else(
                || target_dir().join("release").join("dogmatixd"),
                PathBuf::from,
            ),
        })
    }
}

fn workload(name: &str) -> Result<Workload, String> {
    Workload::find(name).ok_or_else(|| format!("unknown workload '{name}'\n\n{USAGE}"))
}

/// `dxbench --workload <name> …`: one run, as `BENCHMARK.json` invokes it.
fn run_one(flags: &Flags) -> Result<(), String> {
    let name = flags.value("--workload").ok_or_else(|| USAGE.to_string())?;
    let w = workload(name)?;
    let opts = flags.opts()?;
    emit(&w, &opts, &run_workload(&w, &opts))
}

/// `dxbench run …`: the untraced pass (then, with `--trace`, the traced
/// one) of each named workload and seed.
fn run_all(flags: &Flags) -> Result<(), String> {
    let mut opts = flags.opts()?;
    let names: Vec<&str> = match flags.value("--workload") {
        Some(list) => list.split(',').collect(),
        None => WORKLOADS.iter().map(|w| w.name).collect(),
    };
    let seeds: Vec<u64> = match flags.value("--seeds") {
        Some(list) => list
            .split(',')
            .map(|s| s.parse().map_err(|_| format!("--seeds: bad seed '{s}'")))
            .collect::<Result<_, _>>()?,
        None => vec![opts.seed],
    };
    let passes: &[bool] = if flags.has("--trace") {
        &[false, true]
    } else {
        &[false]
    };
    for &trace in passes {
        for name in &names {
            let w = workload(name)?;
            for &seed in &seeds {
                opts.seed = seed;
                opts.trace = trace;
                emit(&w, &opts, &run_workload(&w, &opts))?;
            }
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("worker") => match &args[1..] {
            [name, dir, seconds, min_runs] => workload(name).and_then(|w| {
                let seconds = seconds.parse().map_err(|_| "bad seconds".to_string())?;
                let min_runs = min_runs.parse().map_err(|_| "bad run count".to_string())?;
                batch::worker(&w, Path::new(dir), seconds, min_runs)
            }),
            _ => Err(USAGE.to_string()),
        },
        Some("compare") => match &args[1..] {
            [a, b, rest @ ..] => {
                let flags = Flags(rest.to_vec());
                let bench = flags.value("--benchmark").unwrap_or("BENCHMARK.json");
                compare::run(Path::new(a), Path::new(b), Path::new(bench))
            }
            _ => Err(USAGE.to_string()),
        },
        Some("run") => run_all(&Flags(args[1..].to_vec())),
        Some(_) => run_one(&Flags(args.clone())),
        None => Err(USAGE.to_string()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("dxbench: {message}");
            ExitCode::FAILURE
        }
    }
}
