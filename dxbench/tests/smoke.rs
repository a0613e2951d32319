//! Smoke test: toy-sized runs of every workload through the `dxbench`
//! binary, and the open-loop generator against an in-process server.

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;
#[path = "../src/loadgen.rs"]
#[allow(dead_code)]
mod loadgen;

use dogmatix_core::probe::ProbeBlocking;
use dogmatix_core::{Dogmatix, Mapping};
use dogmatix_server::{serve, ServerConfig};
use dogmatix_xml::Document;
use std::process::Command;
use std::time::{Duration, Instant};

/// Runs one workload at toy size and returns its result line's metrics
/// as `(name, value, unit)`, after checking the line's shape.
fn run(workload: &str, trace: &str) -> Vec<(String, f64, String)> {
    let out = Command::new(env!("CARGO_BIN_EXE_dxbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            trace,
        ])
        .arg("--smoke")
        .env("CARGO_TARGET_DIR", env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("dxbench runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{workload}: {stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().expect("a result line");
    let result = json::parse(line).expect("the result line is JSON");
    let keys: Vec<&str> = result.fields().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        result.get("correct"),
        Some(&json::Json::Bool(true)),
        "{workload}: {stderr}"
    );
    assert_eq!(result.get("failed").and_then(json::Json::as_f64), Some(0.0));
    result
        .get("metrics")
        .expect("metrics")
        .fields()
        .iter()
        .map(|(name, m)| {
            let value = m
                .get("value")
                .and_then(json::Json::as_f64)
                .expect("a value");
            let unit = m.get("unit").and_then(json::Json::as_str).unwrap_or("");
            (name.clone(), value, unit.to_string())
        })
        .collect()
}

fn assert_metrics(workload: &str, metrics: &[(String, f64, String)], expected: usize) {
    assert_eq!(metrics.len(), expected, "{workload}: {metrics:?}");
    for (name, value, unit) in metrics {
        assert!(value.is_finite(), "{workload} {name} = {value}");
        assert!(!unit.is_empty(), "{workload} {name} has no unit");
    }
}

#[test]
fn every_workload_reports_every_metric() {
    for workload in ["batch-cd-paper", "batch-movie-lsh"] {
        assert_metrics(workload, &run(workload, "0"), 4);
    }
    for workload in [
        "batch-cd-paper",
        "batch-movie-lsh",
        "serve-probe",
        "serve-mixed",
        "serve-ingest",
    ] {
        assert_metrics(workload, &run(workload, "1"), 40);
    }
}

#[test]
fn open_loop_generator_drives_an_in_process_server() {
    let xml = "<discs>\
        <disc><did>a1</did><artist>Midnight Riders</artist><title>Long Road Home</title></disc>\
        <disc><did>a2</did><artist>Midnight Ridres</artist><title>Long Road Home</title></disc>\
        <disc><did>b1</did><artist>Quiet Harbor</artist><title>Salt and Stone</title></disc>\
        </discs>";
    let mapping = Mapping::parse("DISC: /discs/disc").unwrap();
    let dx = Dogmatix::builder().mapping(mapping).build();
    let session = dx
        .incremental_session_inferred(Document::parse(xml).unwrap(), "DISC")
        .unwrap();
    let handle = serve(
        dx,
        session,
        ServerConfig {
            workers: 2,
            blocking: ProbeBlocking::default(),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let probe = "PROBE 5 <disc><did>a1</did><artist>Midnight Riders</artist><title>Long Road Home</title></disc>";
    let probes = loadgen::fixed_rate(
        vec![probe.to_string(); 100],
        100.0,
        Duration::from_millis(5),
    );
    let ingests = loadgen::fixed_rate(
        vec!["INGEST update 2 title 0 Salt and Stones".to_string(); 4],
        4.0,
        Duration::from_millis(50),
    );
    let outcomes = loadgen::drive_all(
        handle.addr(),
        &[probes, ingests],
        Instant::now(),
        Duration::from_secs(10),
    )
    .unwrap();
    handle.shutdown();
    for o in &outcomes[0] {
        assert!(
            o.reply.starts_with("OK n=") && o.reply.contains(" 0:"),
            "{}",
            o.reply
        );
        assert!(o.latency_ms().unwrap().is_finite());
    }
    for o in &outcomes[1] {
        assert!(o.reply.starts_with("OK ingested"), "{}", o.reply);
    }
    let late: Vec<f64> = outcomes
        .iter()
        .flatten()
        .map(loadgen::Outcome::late_ms)
        .collect();
    assert!(late.iter().all(|l| l.is_finite() && *l >= 0.0));
}
