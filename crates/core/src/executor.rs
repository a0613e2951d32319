//! Step 5 pair-plan execution: the one executor that scores every pair
//! Step 4 planned and classifies the score.
//!
//! `execute` takes two inputs besides the stages:
//! - a `PairPlan`: every pair of the active candidates, generated row
//!   by row and never materialised, or an explicit pair list;
//! - a worker count: the detector's `threads`, resolved and capped at
//!   the machine's cores by `Dogmatix::score_plan`.
//!
//! With one worker, or fewer than 2048 planned pairs, the plan is scored
//! on the calling thread. Otherwise it is cut into plain chunks, a few
//! per worker, and one `std::thread::scope` pool drains them through a
//! shared counter. Each worker keeps one [`DistCache`] for its whole
//! life: a memo entry depends only on the term pair under the one
//! prepared measure, so it stays valid from one unit to the next.
//! Verdicts come back sorted by `(i, j)`, so the result is bit-identical
//! for every worker count: each pair is scored exactly once and `sim` is
//! a pure function of the pair. Batch detection drops `NonDuplicate`
//! verdicts; the incremental path keeps them to replay them after the
//! next delta.
//!
//! The probe path ([`crate::probe`]) keeps its own loop: it scores one
//! record against Ω per request, over a reused allocation-free scratch,
//! and keeps only a top-k. Folding it in here would make this executor
//! branch on its caller.
//!
//! Execution is orthogonal to the `ComparisonFilter` stage that decides
//! *which* pairs exist: every filter (object filter, sorted neighborhood,
//! top-k, q-gram, MinHash-LSH) runs on the pool. The differential suite
//! (`tests/parallel.rs`) proves the bit-identity for 1, 2 and all workers
//! under every bundled filter, for batch and incremental runs; the unit
//! test below covers worker caps 1/2/4/16.

use crate::classify::Class;
use crate::sim::DistCache;
use crate::stage::{PairClassifier, PreparedMeasure};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// The machine's available parallelism, read once per process: the
/// query costs tens of microseconds, a visible share of a small run.
pub(crate) fn available_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// One scored pair: `(i, j, sim, class)`.
pub(crate) type Verdict = (usize, usize, f64, Class);

/// The pairs Step 5 scores.
#[derive(Debug, Clone, Copy)]
pub(crate) enum PairPlan<'a> {
    /// Every pair `(active[a], active[b])` with `a < b`.
    AllPairs(&'a [usize]),
    /// An explicit pair list: a blocking filter's plan, or the pairs an
    /// incremental run must re-score.
    Pairs(&'a [(usize, usize)]),
}

impl PairPlan<'_> {
    /// Number of planned pairs.
    pub(crate) fn len(&self) -> usize {
        match self {
            PairPlan::AllPairs(active) => active.len() * active.len().saturating_sub(1) / 2,
            PairPlan::Pairs(pairs) => pairs.len(),
        }
    }
}

/// One unit of work: a worker claims units one at a time.
enum Unit<'a> {
    /// Rows of an all-pairs plan: `(active[a], active[b])` for every `a`
    /// in `rows` and every `b > a`.
    Rows {
        active: &'a [usize],
        rows: Range<usize>,
    },
    /// A run of explicit pairs.
    Pairs(&'a [(usize, usize)]),
}

/// Below this many planned pairs the plan is scored on the calling
/// thread: starting a pool costs more than it saves.
const PARALLEL_MIN_PAIRS: usize = 2048;

/// Units per worker the plan is cut into, so a worker that finishes
/// early finds more work instead of idling while another drains a long
/// unit.
const UNITS_PER_WORKER: usize = 8;

/// Scores `plan` on up to `workers` threads and returns the verdicts
/// sorted by `(i, j)`, with the number of pairs scored. `NonDuplicate`
/// verdicts are kept only when `keep_non_duplicates` is set.
pub(crate) fn execute(
    plan: PairPlan<'_>,
    workers: usize,
    measure: &dyn PreparedMeasure,
    classifier: &dyn PairClassifier,
    keep_non_duplicates: bool,
) -> (Vec<Verdict>, usize) {
    // Scores one unit and returns how many pairs it scored.
    let score = |unit: &Unit<'_>, cache: &mut DistCache, out: &mut Vec<Verdict>| {
        let mut scored = 0;
        let mut score_pair = |i: usize, j: usize| {
            scored += 1;
            let sim = measure.sim(i, j, cache);
            let class = classifier.classify(sim);
            if keep_non_duplicates || class != Class::NonDuplicate {
                out.push((i, j, sim, class));
            }
        };
        match unit {
            Unit::Rows { active, rows } => {
                for a in rows.clone() {
                    for b in a + 1..active.len() {
                        score_pair(active[a], active[b]);
                    }
                }
            }
            Unit::Pairs(pairs) => {
                for &(i, j) in pairs.iter() {
                    score_pair(i, j);
                }
            }
        }
        scored
    };

    let mut verdicts = Vec::new();
    let mut scored = 0;
    if workers <= 1 || plan.len() < PARALLEL_MIN_PAIRS {
        let mut cache = DistCache::new();
        for unit in &units(plan, usize::MAX) {
            scored += score(unit, &mut cache, &mut verdicts);
        }
    } else {
        let units = units(plan, plan.len().div_ceil(workers * UNITS_PER_WORKER));
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers.min(units.len()))
                .map(|_| {
                    let (units, next, score) = (&units, &next, &score);
                    scope.spawn(move || {
                        let mut cache = DistCache::new();
                        let (mut local, mut local_scored) = (Vec::new(), 0);
                        // The counter only hands out unit indices; the
                        // units were built before the spawn.
                        while let Some(unit) = units.get(next.fetch_add(1, Ordering::Relaxed)) {
                            local_scored += score(unit, &mut cache, &mut local);
                        }
                        (local, local_scored)
                    })
                })
                .collect();
            for handle in handles {
                let (local, local_scored) = handle
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
                verdicts.extend(local);
                scored += local_scored;
            }
        });
    }
    verdicts.sort_unstable_by_key(|&(i, j, _, _)| (i, j));
    (verdicts, scored)
}

/// Cuts `plan` into chunks of about `target` pairs: runs of whole rows
/// of an all-pairs plan, or runs of an explicit pair list.
fn units(plan: PairPlan<'_>, target: usize) -> Vec<Unit<'_>> {
    match plan {
        PairPlan::Pairs(pairs) => pairs.chunks(target).map(Unit::Pairs).collect(),
        PairPlan::AllPairs(active) => {
            let mut units = Vec::new();
            let (mut start, mut pairs) = (0, 0);
            for a in 0..active.len() {
                pairs += active.len() - 1 - a;
                if pairs >= target || a + 1 == active.len() {
                    if pairs > 0 {
                        units.push(Unit::Rows {
                            active,
                            rows: start..a + 1,
                        });
                    }
                    (start, pairs) = (a + 1, 0);
                }
            }
            units
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_pool_matches_inline_execution() {
        // Any plan kind, keep mode and worker cap must yield
        // the verdicts of the sequential run. 80 objects make 3,160
        // pairs, above the sequential cutoff; the few words and years
        // give duplicates, possible duplicates and frequent term pairs
        // that reach the memo.
        use crate::classify::ThresholdClassifier;
        use crate::mapping::Mapping;
        use crate::od::OdSet;
        use crate::sim::SimEngine;
        use std::collections::{BTreeSet, HashMap};

        let words = ["alpha", "beta", "gamma", "delta", "omega", "sigma", "kappa"];
        let mut xml = String::from("<r>");
        for k in 0..80 {
            xml += &format!(
                "<m><t>{} {}</t><y>{}</y></m>",
                words[k % 7],
                words[k / 7 % 5],
                1990 + k % 4
            );
        }
        xml += "</r>";
        let doc = dogmatix_xml::Document::parse(&xml).unwrap();
        let candidates = doc.select("/r/m").unwrap();
        let mut sel = HashMap::new();
        sel.insert(
            "/r/m".to_string(),
            ["/r/m/t".to_string(), "/r/m/y".to_string()]
                .into_iter()
                .collect::<BTreeSet<_>>(),
        );
        let ods = OdSet::build(&doc, &candidates, &sel, &Mapping::new());
        let engine = SimEngine::new(&ods, 0.15);
        let classifier = ThresholdClassifier::with_possible_band(0.6, 0.3);
        let active: Vec<usize> = (0..ods.len()).collect();
        // Descending order, so the executor's sort is exercised.
        let explicit: Vec<(usize, usize)> = (0..80)
            .rev()
            .flat_map(|i| (0..i).rev().map(move |j| (j, i)))
            .filter(|(i, j)| (i + j) % 5 != 0)
            .collect();

        for plan in [PairPlan::AllPairs(&active), PairPlan::Pairs(&explicit)] {
            assert!(plan.len() >= PARALLEL_MIN_PAIRS);
            for keep in [false, true] {
                let (inline, scored) = execute(plan, 1, &engine, &classifier, keep);
                assert_eq!(scored, plan.len());
                let count = |class| inline.iter().filter(|v| v.3 == class).count();
                assert!(count(Class::Duplicate) > 0 && count(Class::Possible) > 0);
                assert_eq!(count(Class::NonDuplicate) > 0, keep);
                if keep {
                    assert_eq!(inline.len(), plan.len());
                }
                for workers in [1, 2, 4, 16] {
                    let (pooled, scored) = execute(plan, workers, &engine, &classifier, keep);
                    assert_eq!(pooled, inline, "{plan:?} workers={workers}");
                    assert_eq!(scored, plan.len(), "{plan:?} workers={workers}");
                }
            }
        }
        // More units than workers, so some worker drains several and
        // carries its memo from unit to unit.
        let target = 3160usize.div_ceil(2 * UNITS_PER_WORKER);
        for plan in [PairPlan::AllPairs(&active), PairPlan::Pairs(&explicit)] {
            assert!(units(plan, target).len() > 2);
        }
    }
}
