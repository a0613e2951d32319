//! The metric catalogue and the result line every run prints last.

use crate::json::quote;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
/// Latency is the workload's own operation: a cold detection run
/// (batch), a probe (`serve-probe`, `serve-mixed`) or an ingest
/// (`serve-ingest`).
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("latency_mean_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("xml.parse_ms", "ms"),
    ("xml.schema_ms", "ms"),
    ("xml.input_bytes", "bytes"),
    ("candidate.resolve_ms", "ms"),
    ("candidate.count", "count"),
    ("heuristics.select_ms", "ms"),
    ("od.build_ms", "ms"),
    ("od.store_bytes", "bytes"),
    ("filter.reduce_ms", "ms"),
    ("filter.pairs_planned", "count"),
    ("filter.pruned", "count"),
    ("filter.plan_frac", "ratio"),
    ("filter.dup_yield", "ratio"),
    ("sim.prepare_ms", "ms"),
    ("sim.score_ms", "ms"),
    ("sim.ns_per_pair", "ns"),
    ("sim.memo_entries", "count"),
    ("sim.score_ms.scalar", "ms"),
    ("textsim.kernel_saving_frac", "ratio"),
    ("cluster.ms", "ms"),
    ("pipeline.run_ms", "ms"),
    ("pipeline.detect_ms", "ms"),
    ("pipeline.trace_gap_frac", "ratio"),
    ("pipeline.trace_overhead_frac", "ratio"),
    ("pipeline.t2_speedup", "ratio"),
    ("quality.precision", "ratio"),
    ("quality.recall", "ratio"),
    ("incremental.open_ms", "ms"),
    ("incremental.initial_detect_ms", "ms"),
    ("incremental.delta_ms.insert", "ms"),
    ("incremental.delta_ms.update", "ms"),
    ("incremental.delta_ms.remove", "ms"),
    ("incremental.pairs_rescored", "count"),
    ("wal.create_ms", "ms"),
    ("wal.append_us", "us"),
    ("wal.commit_us", "us"),
    ("probe.publish_ms", "ms"),
    ("probe.resolve_us", "us"),
    ("probe.query_us", "us"),
    ("probe.examined_frac", "ratio"),
];

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The outcome of one run: operations attempted and failed, the
/// catalogue metrics, diagnostics that are reported but not gated, and
/// every failed correctness check.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
    pub diagnostics: Vec<Metric>,
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"))
}

fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn object(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(&m.name),
                number(m.value),
                quote(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

impl Report {
    /// Records a catalogue metric.
    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit: unit_of(name),
        });
    }

    /// Records a value that is reported but not gated.
    pub fn diagnostic(&mut self, name: &str, value: f64, unit: &'static str) {
        self.diagnostics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Records a sample's mean, median and supported tail percentiles
    /// as diagnostics `<prefix>_mean_ms`, `<prefix>_p50_ms`, ….
    pub fn summary(&mut self, prefix: &str, s: &crate::stats::Summary) {
        self.diagnostic(&format!("{prefix}_mean_ms"), s.mean, "ms");
        self.diagnostic(&format!("{prefix}_p50_ms"), s.p50, "ms");
        for (name, value) in [("p90", s.p90), ("p99", s.p99)] {
            if let Some(v) = value {
                self.diagnostic(&format!("{prefix}_{name}_ms"), v, "ms");
            }
        }
    }

    /// Records a failed correctness check.
    pub fn problem(&mut self, why: impl Into<String>) {
        self.problems.push(why.into());
    }

    /// Checks that exactly the `expected` catalogue metrics were
    /// recorded, each finite.
    pub fn check_complete(&mut self, expected: &[(&str, &str)]) {
        for (name, _) in expected {
            match self.metrics.iter().find(|m| m.name == *name) {
                None => self.problem(format!("metric {name} was not measured")),
                Some(m) if !m.value.is_finite() => {
                    self.problem(format!("metric {name} is {}", m.value))
                }
                Some(_) => {}
            }
        }
        let extra: Vec<String> = self
            .metrics
            .iter()
            .filter(|m| !expected.iter().any(|(n, _)| *n == m.name))
            .map(|m| m.name.clone())
            .collect();
        for name in extra {
            self.problem(format!("metric {name} does not belong in this run"));
        }
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            object(&self.metrics)
        )
    }

    /// The result line plus its workload, seed, diagnostics and
    /// problems: one line of a results file `compare` reads.
    pub fn record(&self, workload: &str, seed: u64, trace: bool) -> String {
        let problems: Vec<String> = self.problems.iter().map(|p| quote(p)).collect();
        format!(
            "{{\"workload\": {}, \"seed\": {seed}, \"trace\": {trace}, \"correct\": {}, \
             \"attempted\": {}, \"failed\": {}, \"metrics\": {}, \"diagnostics\": {}, \
             \"problems\": [{}]}}",
            quote(workload),
            self.correct(),
            self.attempted.max(1),
            self.failed,
            object(&self.metrics),
            object(&self.diagnostics),
            problems.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.metric("latency_mean_ms", 1.25);
        r.diagnostic("loadgen.late_ms_p99", 0.1, "ms");
        let v = json::parse(&r.line()).unwrap();
        let keys: Vec<&str> = v.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = v.get("metrics").unwrap().get("latency_mean_ms").unwrap();
        assert_eq!(m.get("value").and_then(json::Json::as_f64), Some(1.25));
        assert_eq!(m.get("unit").and_then(json::Json::as_str), Some("ms"));
        assert!(v
            .get("metrics")
            .unwrap()
            .get("loadgen.late_ms_p99")
            .is_none());
    }

    #[test]
    fn missing_or_foreign_metrics_make_the_run_incorrect() {
        let mut r = Report::default();
        r.metric("setup_s", 0.5);
        r.metric("xml.parse_ms", 2.0);
        r.check_complete(&END_TO_END);
        assert!(!r.correct());
        assert_eq!(r.problems.len(), 4, "{:?}", r.problems);
    }

    /// `BENCHMARK.json` at the repository root lists exactly this
    /// catalogue, with the same units.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let bench = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        for (key, catalogue) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<(String, String)> = bench
                .get(key)
                .unwrap()
                .as_array()
                .iter()
                .map(|m| {
                    let field =
                        |f: &str| m.get(f).and_then(json::Json::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let expected: Vec<(String, String)> = catalogue
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, expected, "{key}");
        }
        let workloads: Vec<&str> = bench
            .get("workloads")
            .unwrap()
            .as_array()
            .iter()
            .filter_map(|w| w.get("name").and_then(json::Json::as_str))
            .collect();
        let names: Vec<&str> = crate::workloads::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(workloads, names);
    }
}
