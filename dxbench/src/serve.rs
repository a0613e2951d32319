//! Serving workloads: a real `dogmatixd` child process driven over TCP
//! by the open-loop generator, with every reply checked.

use crate::inputs::Inputs;
use crate::loadgen::{self, Outcome, Request};
use crate::report::Report;
use crate::speed;
use crate::stats;
use crate::workloads::{Load, Measured, SERVED_TYPE};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Probe replies list at most this many matches.
pub const PROBE_K: usize = 10;
/// How long a server may take to start, or to answer once the schedule
/// has been sent, before the run counts it as failed.
const PATIENCE: Duration = Duration::from_secs(60);

/// A running `dogmatixd` child; dropping it kills and reaps the process.
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
}

impl Server {
    /// Starts `dogmatixd` over the generated corpus with a write-ahead
    /// log and two workers, and waits for its `listening` line. Returns
    /// the server and how long that took.
    pub fn start(dogmatixd: &Path, dir: &Path) -> Result<(Server, Duration), String> {
        let start = Instant::now();
        let mut child = Command::new(dogmatixd)
            .arg(dir.join("corpus.xml"))
            .arg(dir.join("mapping.txt"))
            .arg(SERVED_TYPE)
            .args(["--workers", "2", "--wal"])
            .arg(dir.join("serve.wal"))
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", dogmatixd.display()))?;
        let stdout = child.stdout.take().ok_or("dogmatixd has no stdout")?;
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            let mut line = String::new();
            let _ = BufReader::new(stdout).read_line(&mut line);
            let _ = tx.send(line);
        });
        let line = rx.recv_timeout(PATIENCE).unwrap_or_default();
        let took = start.elapsed();
        let mut server = Server {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        if line.is_empty() {
            // Killing the child ends the reader's blocked read.
            drop(server);
            let _ = reader.join();
            return Err("dogmatixd exited or hung before listening".to_string());
        }
        let _ = reader.join();
        server.addr = line
            .trim()
            .strip_prefix("dogmatixd listening on ")
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("dogmatixd did not report its address (got {line:?})"))?;
        Ok((server, took))
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Sends `SHUTDOWN`, expects `OK bye`, and waits for exit status 0.
    pub fn shutdown(mut self) -> Result<(), String> {
        let mut control = Control::connect(self.addr)?;
        let bye = control.request("SHUTDOWN")?;
        if bye != "OK bye" {
            return Err(format!("SHUTDOWN answered {bye:?}"));
        }
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("dogmatixd exited with {status}"))
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// A blocking request/reply connection for the checks around the load.
struct Control {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Control {
    fn connect(addr: SocketAddr) -> Result<Control, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_read_timeout(Some(PATIENCE))
            .map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Control {
            reader: BufReader::new(stream),
            writer,
        })
    }

    fn request(&mut self, line: &str) -> Result<String, String> {
        writeln!(self.writer, "{line}").map_err(|e| format!("sending {line:.40}: {e}"))?;
        let mut reply = String::new();
        self.reader
            .read_line(&mut reply)
            .map_err(|e| format!("reading the reply to {line:.40}: {e}"))?;
        Ok(reply.trim_end().to_string())
    }
}

/// The value of `key=` in a reply line.
fn field<'a>(reply: &'a str, key: &str) -> Option<&'a str> {
    reply
        .split_whitespace()
        .find_map(|w| w.strip_prefix(key)?.strip_prefix('='))
}

fn field_num(reply: &str, key: &str) -> Option<u64> {
    field(reply, key)?.parse().ok()
}

/// Whether a probe reply lists candidate `index` among its matches.
fn lists_match(reply: &str, index: usize) -> bool {
    let want = format!("{index}:");
    reply.split_whitespace().any(|w| w.starts_with(&want))
}

pub fn probe_line(xml: &str) -> String {
    format!("PROBE {PROBE_K} {xml}")
}

/// Checks the replies of one connection: every reply `OK`, `seq=`
/// never decreasing, and `accept` for the request-specific content.
/// Returns the requests that passed.
fn check_stream<'a>(
    name: &str,
    outcomes: &'a [Outcome],
    report: &mut Report,
    mut accept: impl FnMut(usize, &str) -> Result<(), String>,
) -> Vec<&'a Outcome> {
    let mut seq = 0;
    let mut passed = Vec::with_capacity(outcomes.len());
    let mut first_problem = None;
    report.attempted += outcomes.len() as u64;
    for (i, o) in outcomes.iter().enumerate() {
        let verdict = match (o.latency_ms(), field_num(&o.reply, "seq")) {
            (None, _) => Err("no reply".to_string()),
            (Some(_), None) => Err(format!("reply {:?}", o.reply)),
            (Some(_), Some(s)) if s < seq => Err(format!("seq went back from {seq} to {s}")),
            (Some(_), Some(s)) => {
                seq = s;
                accept(i, &o.reply)
            }
        };
        match verdict {
            Ok(()) => passed.push(o),
            Err(why) => {
                report.failed += 1;
                first_problem.get_or_insert(format!("{name} {i}: {why}"));
            }
        }
    }
    if let Some(p) = first_problem {
        report.problem(p);
    }
    passed
}

fn latencies(outcomes: &[&Outcome]) -> Vec<f64> {
    outcomes.iter().filter_map(|o| o.latency_ms()).collect()
}

/// Measures a serving workload against the `dogmatixd` binary at
/// `dogmatixd`, over the inputs written to `dir`.
pub fn measure(
    load: Load,
    inputs: &Inputs,
    dir: &Path,
    seconds: f64,
    dogmatixd: &Path,
    seed: u64,
    report: &mut Report,
) {
    let Load {
        probe_rate,
        ingest_rate,
        measured,
    } = load;
    let mut setup = Vec::new();
    let mut server = None;
    for _ in 0..crate::SETUP_STARTS {
        report.attempted += 1;
        if let Some(previous) = server.take() {
            if let Err(e) = Server::shutdown(previous) {
                report.failed += 1;
                report.problem(format!("set-up server: {e}"));
            }
        }
        let before = speed::busy_kernel_ms(speed::BURST);
        match Server::start(dogmatixd, dir) {
            Ok((s, took)) => {
                let kernel = (before + speed::busy_kernel_ms(speed::BURST)) / 2.0;
                setup.push(speed::adjust(took.as_secs_f64(), kernel));
                server = Some(s);
            }
            Err(e) => {
                report.failed += 1;
                report.problem(e);
                return;
            }
        }
    }
    let Some(server) = server else { return };
    if !setup.is_empty() {
        report.metric("setup_s", stats::median(&setup));
    }

    let probes = &inputs.probes[..((probe_rate * seconds) as usize).min(inputs.probes.len())];
    let ingests = &inputs.ingests[..((ingest_rate * seconds) as usize).min(inputs.ingests.len())];
    let mut schedules: Vec<Vec<Request>> = vec![loadgen::fixed_rate(
        probes.iter().map(|p| probe_line(&p.xml)).collect(),
        probe_rate,
        Duration::from_millis(10),
    )];
    if !ingests.is_empty() {
        schedules.push(loadgen::fixed_rate(
            ingests
                .iter()
                .map(|g| format!("INGEST {}", g.delta))
                .collect(),
            ingest_rate,
            Duration::from_secs_f64(0.5 / ingest_rate),
        ));
    }
    // Ingests are CPU-bound writer work of tens of milliseconds, timed
    // like batch runs at the nominal host speed; probe round trips of
    // about 2 ms are dominated by wake-ups the kernel does not track.
    let start = Instant::now();
    let drive = || loadgen::drive_all(server.addr, &schedules, start, PATIENCE);
    let (outcomes, speed_samples) = match measured {
        Measured::Ingests => speed::sample_during(start, drive),
        Measured::Probes => (drive(), Vec::new()),
    };
    let outcomes = match outcomes {
        Ok(o) => o,
        Err(e) => {
            report.failed += 1;
            report.problem(format!("load generator: {e}"));
            return;
        }
    };

    let probes_ok = check_stream("probe", &outcomes[0], report, |i, reply| {
        if !reply.starts_with("OK n=") {
            return Err(format!("reply {reply:?}"));
        }
        match probes[i].expect {
            Some(k) if !lists_match(reply, k) => {
                Err(format!("loaded record {k} not found: {reply}"))
            }
            _ => Ok(()),
        }
    });
    let ingests_ok = match outcomes.get(1) {
        Some(o) => check_stream("ingest", o, report, |i, reply| {
            let want = ingests[i].objects_after as u64;
            match (
                reply.starts_with("OK ingested"),
                field_num(reply, "objects"),
            ) {
                (true, Some(n)) if n == want => Ok(()),
                _ => Err(format!("expected objects={want}, got {reply:?}")),
            }
        }),
        None => Vec::new(),
    };

    let all: Vec<&Outcome> = outcomes.iter().flatten().collect();
    let late: Vec<f64> = stats::sorted(&all.iter().map(|o| o.late_ms()).collect::<Vec<_>>());
    if let (Some(p99), Some(max)) = (
        (!late.is_empty()).then(|| stats::percentile(&late, 0.99)),
        late.last(),
    ) {
        report.diagnostic("loadgen.late_ms_p99", p99, "ms");
        report.diagnostic("loadgen.late_ms_max", *max, "ms");
        if p99 >= 1.0 {
            eprintln!("dxbench: warning: the load generator ran {p99:.2} ms late at p99; latencies of this run are suspect");
        }
    }
    for (stream, ok) in [("probe", &probes_ok), ("ingest", &ingests_ok)] {
        if let Some(s) = stats::Summary::of(&latencies(ok)) {
            report.summary(stream, &s);
        }
    }
    let measured_ms = match measured {
        Measured::Probes => latencies(&probes_ok),
        Measured::Ingests => {
            let kernel: Vec<f64> = speed_samples.iter().map(|s| s.1).collect();
            if !kernel.is_empty() {
                report.diagnostic("speed.kernel_ms", stats::median(&kernel), "ms");
            }
            ingests_ok
                .iter()
                .filter_map(|o| {
                    let ms = o.latency_ms()?;
                    let due = o.due.as_secs_f64();
                    let kernel =
                        speed::window_ms(&speed_samples, due - 0.25, due + ms / 1e3 + 0.25)?;
                    Some(speed::adjust(ms, kernel))
                })
                .collect()
        }
    };
    match stats::Summary::of(&measured_ms) {
        Some(stats::Summary {
            mean,
            p90: Some(p90),
            ..
        }) => {
            report.metric("latency_mean_ms", mean);
            report.metric("latency_p90_ms", p90);
        }
        _ => report.problem(format!(
            "{} answered requests cannot support a 90th percentile",
            measured_ms.len()
        )),
    }
    match crate::peak_rss_kb(&server.pid().to_string()) {
        Some(kb) => report.metric("peak_rss_mb", kb as f64 / 1024.0),
        None => report.problem("no VmHWM for dogmatixd"),
    }

    let objects = ingests.last().map_or(inputs.objects, |g| g.objects_after);
    let answered = (probes_ok.len() as u64, ingests_ok.len() as u64);
    if let Err(e) = after_load(server, objects, answered, seed, report) {
        report.failed += 1;
        report.problem(e);
    }
}

/// The checks once the load has stopped: a freshly ingested marker is
/// found by a probe, `STATS` agrees with the replies, and `SHUTDOWN`
/// stops the server cleanly.
fn after_load(
    server: Server,
    objects: usize,
    answered: (u64, u64),
    seed: u64,
    report: &mut Report,
) -> Result<(), String> {
    let mut control = Control::connect(server.addr)?;
    report.attempted += 3;
    let marker = format!(
        "<disc><did>dxmark{seed:x}</did><artist>Quixotic Marker {seed:x}</artist>\
         <title>Zephyr Vortex Marker {seed:x}</title><year>1901</year>\
         <tracks><title>Marker Track Alpha</title></tracks></disc>"
    );
    let ack = control.request(&format!("INGEST insert /discs {marker}"))?;
    if field_num(&ack, "objects") != Some(objects as u64 + 1) {
        return Err(format!(
            "marker ingest answered {ack:?}, expected objects={}",
            objects + 1
        ));
    }
    let found = control.request(&probe_line(&marker))?;
    if !lists_match(&found, objects) {
        return Err(format!(
            "the ingested marker is not visible to probes: {found:?}"
        ));
    }
    let stats = control.request("STATS")?;
    let expect = [
        ("objects", objects as u64 + 1),
        ("probes", answered.0 + 1),
        ("ingests", answered.1 + 1),
        ("shed", 0),
    ];
    for (key, want) in expect {
        if field_num(&stats, key) != Some(want) {
            return Err(format!("STATS {stats:?} disagrees: expected {key}={want}"));
        }
    }
    drop(control);
    server.shutdown()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_fields_parse() {
        let reply = "OK n=2 17:0.91 250:0.6 seq=4 examined=12/500";
        assert_eq!(field_num(reply, "seq"), Some(4));
        assert_eq!(field(reply, "examined"), Some("12/500"));
        assert!(lists_match(reply, 250));
        assert!(!lists_match(reply, 25));
        assert_eq!(
            field_num("OK ingested seq=9 objects=501 duplicates=3", "objects"),
            Some(501)
        );
    }
}
