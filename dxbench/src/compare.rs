//! `dxbench compare A.jsonl B.jsonl`: per workload and metric, each
//! side's median and quartiles, the paired wins, and a verdict against
//! the bounds in `BENCHMARK.json`.
//!
//! Verdicts: `regression` when B's median is worse than A's by more than
//! the bound; `unresolved` when either side's interquartile spread
//! exceeds the bound, unless every run of one side beats every run of
//! the other; `gain` when B wins at least nine tenths of the pairs (runs
//! paired by seed) and the medians differ by more than A's interquartile
//! range; otherwise `within bound`.

use crate::json::{self, Json};
use crate::stats::{median, quartiles};
use std::path::Path;

struct Record {
    workload: String,
    seed: u64,
    trace: bool,
    correct: bool,
    metrics: Vec<(String, f64)>,
}

fn read_records(path: &Path) -> Result<Vec<Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, line)| {
            let v = json::parse(line).map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))?;
            let metrics = v
                .get("metrics")
                .map(|m| {
                    m.fields()
                        .iter()
                        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
                        .collect()
                })
                .unwrap_or_default();
            Ok(Record {
                workload: v
                    .get("workload")
                    .and_then(Json::as_str)
                    .unwrap_or("?")
                    .to_string(),
                seed: v.get("seed").and_then(Json::as_f64).unwrap_or(0.0) as u64,
                trace: v.get("trace") == Some(&Json::Bool(true)),
                correct: v.get("correct") == Some(&Json::Bool(true)),
                metrics,
            })
        })
        .collect()
}

/// How one side's values of a metric are spread.
struct Side {
    values: Vec<(u64, f64)>,
    median: f64,
    q1: f64,
    q3: f64,
}

impl Side {
    fn new(records: &[Record], workload: &str, trace: bool, metric: &str) -> Option<Side> {
        let values: Vec<(u64, f64)> = records
            .iter()
            .filter(|r| r.workload == workload && r.trace == trace)
            .filter_map(|r| Some((r.seed, r.metrics.iter().find(|(k, _)| k == metric)?.1)))
            .collect();
        if values.is_empty() {
            return None;
        }
        let v: Vec<f64> = values.iter().map(|x| x.1).collect();
        let (q1, q3) = if v.len() >= 2 {
            let (q1, _, q3) = quartiles(&v);
            (q1, q3)
        } else {
            (v[0], v[0])
        };
        Some(Side {
            median: median(&v),
            q1,
            q3,
            values,
        })
    }

    fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs().max(f64::MIN_POSITIVE)
    }
}

/// The verdict for one metric, with `lower` telling its direction.
fn verdict(a: &Side, b: &Side, lower: bool, bound: f64) -> (String, String) {
    let better = |x: f64, y: f64| if lower { x < y } else { x > y };
    let (mut wins, mut losses, mut pairs) = (0, 0, 0);
    for (seed, vb) in &b.values {
        if let Some((_, va)) = a.values.iter().find(|(s, _)| s == seed) {
            pairs += 1;
            if better(*vb, *va) {
                wins += 1;
            } else if better(*va, *vb) {
                losses += 1;
            }
        }
    }
    let worse_by = if lower {
        (b.median - a.median) / a.median.abs()
    } else {
        (a.median - b.median) / a.median.abs()
    };
    let all_b_better = a
        .values
        .iter()
        .all(|(_, va)| b.values.iter().all(|(_, vb)| better(*vb, *va)));
    let all_a_better = a
        .values
        .iter()
        .all(|(_, va)| b.values.iter().all(|(_, vb)| better(*va, *vb)));
    let v = if a.spread().max(b.spread()) > bound {
        if all_b_better {
            "better in every run"
        } else if all_a_better {
            "worse in every run"
        } else {
            "unresolved"
        }
    } else if worse_by > bound {
        "regression"
    } else if pairs > 0 && wins * 10 >= pairs * 9 && (a.median - b.median).abs() > a.q3 - a.q1 {
        "gain"
    } else {
        "within bound"
    };
    (v.to_string(), format!("{wins}:{losses}/{pairs}"))
}

pub fn run(a_path: &Path, b_path: &Path, bench_path: &Path) -> Result<(), String> {
    let bench_text = std::fs::read_to_string(bench_path)
        .map_err(|e| format!("{}: {e}", bench_path.display()))?;
    let bench = json::parse(&bench_text).map_err(|e| format!("{}: {e}", bench_path.display()))?;
    let (a, b) = (read_records(a_path)?, read_records(b_path)?);
    for (label, records) in [("A", &a), ("B", &b)] {
        let wrong = records.iter().filter(|r| !r.correct).count();
        if wrong > 0 {
            println!("warning: {wrong} run(s) of {label} were not correct");
        }
    }
    println!(
        "{:<16} {:<30} {:>5} {:>28} {:>28} {:>8} {:>15} {:>7} {:>7}  verdict",
        "workload",
        "metric",
        "unit",
        "A median [q1, q3]",
        "B median [q1, q3]",
        "B vs A",
        "spread A / B",
        "wins",
        "bound"
    );
    let side = |s: &Side| format!("{:.4} [{:.4}, {:.4}]", s.median, s.q1, s.q3);
    for workload in bench.get("workloads").map(Json::as_array).unwrap_or(&[]) {
        let Some(name) = workload.get("name").and_then(Json::as_str) else {
            continue;
        };
        for (key, trace) in [("end_to_end", false), ("per_layer", true)] {
            for m in bench.get(key).map(Json::as_array).unwrap_or(&[]) {
                let metric = m.get("name").and_then(Json::as_str).unwrap_or("?");
                let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
                let (Some(sa), Some(sb)) = (
                    Side::new(&a, name, trace, metric),
                    Side::new(&b, name, trace, metric),
                ) else {
                    continue;
                };
                let change = (sb.median - sa.median) / sa.median.abs().max(f64::MIN_POSITIVE);
                let spreads = format!("{:.3} / {:.3}", sa.spread(), sb.spread());
                let (verdict, wins, bound) = match m.get("bound").and_then(Json::as_f64) {
                    Some(bound) => {
                        let lower = m.get("better").and_then(Json::as_str) != Some("higher");
                        let (v, w) = verdict(&sa, &sb, lower, bound);
                        (v, w, format!("{bound}"))
                    }
                    None => ("(no bound)".to_string(), String::new(), String::new()),
                };
                println!(
                    "{name:<16} {metric:<30} {unit:>5} {:>28} {:>28} {:>+7.1}% {spreads:>15} {wins:>7} {bound:>7}  {verdict}",
                    side(&sa),
                    side(&sb),
                    change * 100.0
                );
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(values: &[f64]) -> Side {
        let (q1, _, q3) = quartiles(values);
        Side {
            values: values
                .iter()
                .enumerate()
                .map(|(i, v)| (i as u64, *v))
                .collect(),
            median: median(values),
            q1,
            q3,
        }
    }

    #[test]
    fn verdicts_follow_bound_spread_and_pair_wins() {
        let a = side(&[
            100.0, 101.0, 99.0, 100.5, 100.2, 99.8, 100.1, 99.9, 100.3, 99.7,
        ]);
        let same = side(&[
            100.2, 100.9, 99.1, 100.4, 100.0, 99.9, 100.2, 99.8, 100.1, 99.6,
        ]);
        assert_eq!(verdict(&a, &same, true, 0.1).0, "within bound");
        let slower = side(&a.values.iter().map(|v| v.1 * 1.2).collect::<Vec<_>>());
        assert_eq!(verdict(&a, &slower, true, 0.1).0, "regression");
        let faster = side(&a.values.iter().map(|v| v.1 * 0.9).collect::<Vec<_>>());
        let (v, wins) = verdict(&a, &faster, true, 0.1);
        assert_eq!((v.as_str(), wins.as_str()), ("gain", "10:0/10"));
        let noisy = side(&[
            50.0, 150.0, 80.0, 120.0, 100.0, 60.0, 140.0, 90.0, 110.0, 100.0,
        ]);
        assert_eq!(verdict(&a, &noisy, true, 0.1).0, "unresolved");
        // Higher is better: a drop is the regression.
        assert_eq!(verdict(&a, &faster, false, 0.05).0, "regression");
    }
}
