//! Figure 5: effectiveness on Dataset 1.
//!
//! "We apply exp1 to exp8 using `hk` as heuristic, varying k from 1 to 8,
//! with θ_tuple = 0.15 and θ_cand = 0.55", on 500 CDs plus 500 dirty
//! duplicates. The paper reports one recall and one precision curve per
//! experiment.

use crate::metrics::{pair_metrics, PairMetrics};
use crate::setup;
use dogmatix_core::heuristics::{table4_heuristic, HeuristicExpr};
use dogmatix_core::pipeline::DetectionSession;
use dogmatix_datagen::datasets::dataset1_sized;

/// One measurement point.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Point {
    /// Experiment number (1–8, Table 4).
    pub experiment: usize,
    /// `k` of the k-closest heuristic.
    pub k: usize,
    /// Pairwise metrics against the generator's gold standard.
    pub metrics: PairMetrics,
}

/// Runs the full sweep at the given corpus size (the paper uses `n = 500`
/// originals) and seed. Returns points for every (experiment, k) combo.
///
/// One [`DetectionSession`] serves the whole sweep: candidates are
/// resolved once, and experiments whose condition reduces to the same
/// selection share their cached object descriptions.
pub fn run(seed: u64, n: usize, experiments: &[usize], ks: &[usize]) -> Vec<Fig5Point> {
    let (doc, gold) = dataset1_sized(seed, n);
    let schema = setup::cd_schema();
    let mapping = setup::cd_mapping();
    let session = DetectionSession::new(&doc, &schema, &mapping, setup::CD_TYPE)
        // dxlint: allow(no-panic) — experiment driver over the bundled corpus; abort on bad wiring is intended
        .expect("dataset 1 wiring is valid");
    let mut out = Vec::with_capacity(experiments.len() * ks.len());
    for &exp in experiments {
        for &k in ks {
            let heuristic = table4_heuristic(HeuristicExpr::k_closest_descendants(k), exp);
            let dx = setup::paper_detector(heuristic, mapping.clone()).build();
            // dxlint: allow(no-panic) — experiment driver over the bundled corpus; abort on bad wiring is intended
            let result = dx.detect(&session).expect("dataset 1 wiring is valid");
            out.push(Fig5Point {
                experiment: exp,
                k,
                metrics: pair_metrics(&result.duplicate_pairs, &gold),
            });
        }
    }
    out
}

/// Renders the recall and precision tables in the layout of Figure 5.
pub fn render(points: &[Fig5Point]) -> String {
    let ks: Vec<usize> = {
        let mut v: Vec<usize> = points.iter().map(|p| p.k).collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    let exps: Vec<usize> = {
        let mut v: Vec<usize> = points.iter().map(|p| p.experiment).collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    let xs: Vec<String> = ks.iter().map(|k| k.to_string()).collect();
    let series = |metric: fn(&PairMetrics) -> f64| -> Vec<(String, Vec<f64>)> {
        exps.iter()
            .map(|e| {
                let values = ks
                    .iter()
                    .map(|k| {
                        points
                            .iter()
                            .find(|p| p.experiment == *e && p.k == *k)
                            .map(|p| metric(&p.metrics))
                            .unwrap_or(f64::NAN)
                    })
                    .collect();
                (format!("exp{e}"), values)
            })
            .collect()
    };
    let mut out = setup::render_series_table(
        "Figure 5 (Dataset 1, k-closest heuristic) — RECALL",
        "k",
        &xs,
        &series(PairMetrics::recall),
    );
    out.push('\n');
    out.push_str(&setup::render_series_table(
        "Figure 5 (Dataset 1, k-closest heuristic) — PRECISION",
        "k",
        &xs,
        &series(PairMetrics::precision),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scaled-down smoke run asserting the paper's qualitative shapes.
    /// 120 originals is the smallest size at which the IDF weights are
    /// informative enough for the k=3 recall shape to be stable across
    /// seeds; below that, single unlucky corpora dip under the bound.
    #[test]
    fn shapes_match_paper_at_small_scale() {
        let points = run(7, 120, &[1, 8], &[1, 3, 8]);
        let get = |e: usize, k: usize| -> &PairMetrics {
            &points
                .iter()
                .find(|p| p.experiment == e && p.k == k)
                .unwrap()
                .metrics
        };
        // k=1 (disc ids only): sequential near-identical ids → recall
        // high, precision poor.
        let k1 = get(1, 1);
        assert!(k1.recall() > 0.8, "k=1 recall {}", k1.recall());
        assert!(
            k1.precision() < 0.8,
            "k=1 precision should suffer from similar ids, got {}",
            k1.precision()
        );
        // k=3 (+artist, title): both improve markedly.
        let k3 = get(1, 3);
        assert!(k3.precision() > k1.precision());
        assert!(k3.recall() > 0.85);
        // k=8 adds track titles: recall does not drop, precision falls
        // vs k=3 (dummy titles).
        let k8 = get(1, 8);
        assert!(k8.recall() >= k3.recall() - 0.05);
        // exp8 reduces to did only → behaves like exp1@k1 for any k.
        let e8 = get(8, 8);
        assert!((e8.recall() - k1.recall()).abs() < 0.15);
    }

    #[test]
    fn render_contains_all_series() {
        let points = run(3, 30, &[1, 2], &[1, 2]);
        let text = render(&points);
        assert!(text.contains("RECALL") && text.contains("PRECISION"));
        assert!(text.contains("exp1") && text.contains("exp2"));
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run(5, 40, &[1], &[3]);
        let b = run(5, 40, &[1], &[3]);
        assert_eq!(a, b);
    }
}
