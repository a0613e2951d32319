//! Step 5 pair-plan execution: the one executor that scores every pair
//! Step 4 planned and classifies the score.
//!
//! `execute` takes three inputs:
//! - a `PairPlan`: every pair of the active candidates, generated row
//!   by row and never materialised, or an explicit pair list;
//! - a unit policy that cuts the plan into work units: by default plain
//!   chunks of the plan, or, with a [`ShardedDriver`], its hash shards
//!   plus chunks of the cross-shard residual;
//! - a worker count: the detector's `threads`, with `0` resolved to all
//!   cores.
//!
//! With one worker, or fewer than 2048 planned pairs, the plan is scored
//! on the calling thread and the unit policy does not matter. Otherwise
//! one `std::thread::scope` pool drains the units through a shared
//! counter. Each worker keeps one [`DistCache`] for its whole life: a
//! memo entry depends only on the term pair under the one prepared
//! measure, so it stays valid from one unit to the next. Verdicts come
//! back sorted by `(i, j)`, so the result is bit-identical for every
//! worker count and unit policy: each pair is scored exactly once and
//! `sim` is a pure function of the pair. Batch detection drops
//! `NonDuplicate` verdicts; the incremental path keeps them to replay
//! them after the next delta.
//!
//! The probe path ([`crate::probe`]) keeps its own loop: it scores one
//! record against Ω per request, over a reused allocation-free scratch,
//! and keeps only a top-k. Folding it in here would make this executor
//! branch on its caller.
//!
//! The unit policy is execution only, orthogonal to the
//! `ComparisonFilter` stage that decides *which* pairs exist: any filter
//! (object filter, sorted neighborhood, top-k, q-gram, MinHash-LSH) can
//! run sharded. The differential suite (`tests/sharding.rs`) proves the
//! bit-identity for shard counts 1/2/8/0 under every bundled filter, and
//! on the worker pool for batch and incremental runs of the CD corpus;
//! the unit test below covers worker caps 1/2/4/16.

use crate::classify::Class;
use crate::sim::DistCache;
use crate::stage::{PairClassifier, PreparedMeasure};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Partitions a comparison pair plan into per-shard plans: the unit
/// policy the pair-plan executor uses when a detector is built with
/// `.sharded(n)`.
///
/// A pair `(i, j)` lands in shard `s` when both candidates hash-partition
/// to `s`; pairs whose candidates straddle shards form the residual plan.
/// A shard count of `0` resolves to the machine's available parallelism.
/// The shard count only decides how the plan is cut into units; the
/// detector's `threads` decides how many workers score them.
///
/// ```
/// use dogmatix_core::pipeline::Dogmatix;
/// use dogmatix_xml::{Document, Schema};
///
/// let doc = Document::parse(
///     "<db><m><t>Same Song</t></m><m><t>Same Song</t></m>\
///          <m><t>Other Tune</t></m></db>")?;
/// let schema = Schema::infer(&doc)?;
/// let build = |shards| Dogmatix::builder()
///     .add_type("M", ["/db/m"])
///     .sharded(shards)
///     .build()
///     .run(&doc, &schema, "M");
/// let unsharded = build(1)?;
/// // Bit-identical result at any shard count, including auto (0).
/// for shards in [2, 8, 0] {
///     assert_eq!(build(shards)?, unsharded);
/// }
/// # Ok::<(), dogmatix_core::DogmatixError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardedDriver {
    /// Requested shard count; `0` = one shard per available core.
    pub shards: usize,
}

/// A partitioned comparison plan: one pair list per shard plus the
/// cross-shard residual.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    /// Per-shard plans: `shards[s]` holds the pairs both of whose
    /// candidates partition to shard `s`.
    pub shards: Vec<Vec<(usize, usize)>>,
    /// Pairs whose candidates live in different shards.
    pub residual: Vec<(usize, usize)>,
}

impl ShardPlan {
    /// Total number of pairs across all shards and the residual.
    pub fn total_pairs(&self) -> usize {
        self.shards.iter().map(Vec::len).sum::<usize>() + self.residual.len()
    }
}

impl ShardedDriver {
    /// Creates a driver with the given shard count (`0` = auto).
    pub fn new(shards: usize) -> Self {
        ShardedDriver { shards }
    }

    /// The effective shard count: `0` resolves to available parallelism.
    pub fn resolved_shards(&self) -> usize {
        match self.shards {
            0 => available_cores(),
            s => s,
        }
    }

    /// The shard a candidate id partitions to.
    pub fn shard_of(&self, candidate: usize, shards: usize) -> usize {
        (dogmatix_textsim::mix64(candidate as u64) % shards.max(1) as u64) as usize
    }

    /// Splits a pair plan into per-shard plans plus the residual,
    /// preserving the input order within every part.
    pub fn partition(&self, plan: &[(usize, usize)]) -> ShardPlan {
        let shards = self.resolved_shards();
        let mut per_shard: Vec<Vec<(usize, usize)>> = vec![Vec::new(); shards];
        let mut residual = Vec::new();
        for &(i, j) in plan {
            let (si, sj) = (self.shard_of(i, shards), self.shard_of(j, shards));
            if si == sj {
                per_shard[si].push((i, j));
            } else {
                residual.push((i, j));
            }
        }
        ShardPlan {
            shards: per_shard,
            residual,
        }
    }
}

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
    /// in `rows` and every `b > a`. With `cross`, which gives the shard
    /// of each active candidate, only the pairs that straddle shards.
    Rows {
        active: &'a [usize],
        rows: Range<usize>,
        cross: Option<&'a [usize]>,
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

/// Scores `plan` on up to `workers` threads, with units cut by `shards`
/// (`None` = plain chunks of the plan), and returns the verdicts sorted
/// by `(i, j)`. `NonDuplicate` verdicts are kept only when
/// `keep_non_duplicates` is set.
pub(crate) fn execute(
    plan: PairPlan<'_>,
    shards: Option<ShardedDriver>,
    workers: usize,
    measure: &dyn PreparedMeasure,
    classifier: &dyn PairClassifier,
    keep_non_duplicates: bool,
) -> Vec<Verdict> {
    let score = |unit: &Unit<'_>, cache: &mut DistCache, out: &mut Vec<Verdict>| {
        let mut score_pair = |i: usize, j: usize| {
            let sim = measure.sim(i, j, cache);
            let class = classifier.classify(sim);
            if keep_non_duplicates || class != Class::NonDuplicate {
                out.push((i, j, sim, class));
            }
        };
        match unit {
            Unit::Rows {
                active,
                rows,
                cross,
            } => {
                for a in rows.clone() {
                    for b in a + 1..active.len() {
                        if cross.is_none_or(|shard| shard[a] != shard[b]) {
                            score_pair(active[a], active[b]);
                        }
                    }
                }
            }
            Unit::Pairs(pairs) => {
                for &(i, j) in pairs.iter() {
                    score_pair(i, j);
                }
            }
        }
    };

    let mut verdicts = Vec::new();
    if workers <= 1 || plan.len() < PARALLEL_MIN_PAIRS {
        with_units(plan, None, usize::MAX, |whole| {
            let mut cache = DistCache::new();
            for unit in whole {
                score(unit, &mut cache, &mut verdicts);
            }
        });
    } else {
        let target = plan.len().div_ceil(workers * UNITS_PER_WORKER);
        with_units(plan, shards, target, |units| {
            let next = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers.min(units.len()))
                    .map(|_| {
                        let (next, score) = (&next, &score);
                        scope.spawn(move || {
                            let mut cache = DistCache::new();
                            let mut local = Vec::new();
                            // The counter only hands out unit indices;
                            // the units were built before the spawn.
                            while let Some(unit) = units.get(next.fetch_add(1, Ordering::Relaxed)) {
                                score(unit, &mut cache, &mut local);
                            }
                            local
                        })
                    })
                    .collect();
                for handle in handles {
                    let local = handle
                        .join()
                        .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
                    verdicts.extend(local);
                }
            });
        });
    }
    verdicts.sort_unstable_by_key(|&(i, j, _, _)| (i, j));
    verdicts
}

/// Cuts `plan` into units of about `target` pairs under the unit policy
/// and hands them to `run`. Without a driver the units are chunks of the
/// plan. With one, they are chunks of each shard and of the residual;
/// an all-pairs plan is partitioned without materialising a pair, since
/// shard `s` is the all-pairs plan of its own members and the residual
/// is every row restricted to pairs that straddle shards.
fn with_units<R>(
    plan: PairPlan<'_>,
    shards: Option<ShardedDriver>,
    target: usize,
    run: impl FnOnce(&[Unit<'_>]) -> R,
) -> R {
    match (plan, shards) {
        (PairPlan::AllPairs(active), None) => run(&row_units(active, None, target)),
        (PairPlan::Pairs(pairs), None) => {
            run(&pairs.chunks(target).map(Unit::Pairs).collect::<Vec<_>>())
        }
        (PairPlan::Pairs(pairs), Some(driver)) => {
            let parts = driver.partition(pairs);
            let all = parts.shards.iter().chain([&parts.residual]);
            run(&all
                .flat_map(|part| part.chunks(target))
                .map(Unit::Pairs)
                .collect::<Vec<_>>())
        }
        (PairPlan::AllPairs(active), Some(driver)) => {
            let shards = driver.resolved_shards();
            let shard_ids: Vec<usize> =
                active.iter().map(|&c| driver.shard_of(c, shards)).collect();
            let mut members = vec![Vec::new(); shards];
            for (&c, &s) in active.iter().zip(&shard_ids) {
                members[s].push(c);
            }
            let mut units: Vec<_> = members
                .iter()
                .flat_map(|m| row_units(m, None, target))
                .collect();
            if shards > 1 {
                units.extend(row_units(active, Some(&shard_ids), target));
            }
            run(&units)
        }
    }
}

/// Cuts the rows of an all-pairs plan over `active` into units of about
/// `target` pairs each (counting every pair of a row, cross-shard or
/// not).
fn row_units<'a>(active: &'a [usize], cross: Option<&'a [usize]>, target: usize) -> Vec<Unit<'a>> {
    let mut units = Vec::new();
    let (mut start, mut pairs) = (0, 0);
    for a in 0..active.len() {
        pairs += active.len() - 1 - a;
        if pairs >= target || a + 1 == active.len() {
            if pairs > 0 {
                let rows = start..a + 1;
                units.push(Unit::Rows {
                    active,
                    rows,
                    cross,
                });
            }
            (start, pairs) = (a + 1, 0);
        }
    }
    units
}

#[cfg(test)]
mod tests {
    use super::*;

    fn driver(shards: usize) -> ShardedDriver {
        ShardedDriver::new(shards)
    }

    #[test]
    fn partition_covers_every_pair_exactly_once() {
        let plan: Vec<(usize, usize)> = (0..20)
            .flat_map(|i| ((i + 1)..20).map(move |j| (i, j)))
            .collect();
        for shards in [1, 2, 3, 8] {
            let parts = driver(shards).partition(&plan);
            assert_eq!(parts.shards.len(), shards);
            assert_eq!(parts.total_pairs(), plan.len(), "shards={shards}");
            let mut all: Vec<(usize, usize)> = parts.shards.iter().flatten().copied().collect();
            all.extend(&parts.residual);
            all.sort_unstable();
            let mut want = plan.clone();
            want.sort_unstable();
            assert_eq!(all, want, "shards={shards}");
        }
    }

    #[test]
    fn single_shard_has_empty_residual() {
        let plan = vec![(0, 1), (1, 2), (0, 5)];
        let parts = driver(1).partition(&plan);
        assert!(parts.residual.is_empty());
        assert_eq!(parts.shards[0], plan);
    }

    #[test]
    fn in_shard_pairs_agree_on_their_shard() {
        let plan: Vec<(usize, usize)> = (0..30).map(|i| (i, i + 30)).collect();
        let d = driver(4);
        let parts = d.partition(&plan);
        for (s, shard) in parts.shards.iter().enumerate() {
            for &(i, j) in shard {
                assert_eq!(d.shard_of(i, 4), s);
                assert_eq!(d.shard_of(j, 4), s);
            }
        }
        for &(i, j) in &parts.residual {
            assert_ne!(d.shard_of(i, 4), d.shard_of(j, 4));
        }
    }

    #[test]
    fn auto_resolves_to_at_least_one_shard() {
        assert!(driver(0).resolved_shards() >= 1);
        assert_eq!(driver(7).resolved_shards(), 7);
    }

    #[test]
    fn worker_pool_matches_inline_execution() {
        // Any plan kind, unit policy, keep mode and worker cap must yield
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
                let inline = execute(plan, None, 1, &engine, &classifier, keep);
                let count = |class| inline.iter().filter(|v| v.3 == class).count();
                assert!(count(Class::Duplicate) > 0 && count(Class::Possible) > 0);
                assert_eq!(count(Class::NonDuplicate) > 0, keep);
                if keep {
                    assert_eq!(inline.len(), plan.len());
                }
                for shards in [None, Some(driver(2)), Some(driver(8))] {
                    for workers in [1, 2, 4, 16] {
                        let pooled = execute(plan, shards, workers, &engine, &classifier, keep);
                        assert_eq!(pooled, inline, "{plan:?} {shards:?} workers={workers}");
                    }
                }
            }
        }
        // More units than workers under both policies, so some worker
        // drains several and carries its memo from unit to unit.
        let target = 3160usize.div_ceil(2 * UNITS_PER_WORKER);
        for shards in [None, Some(driver(8))] {
            for plan in [PairPlan::AllPairs(&active), PairPlan::Pairs(&explicit)] {
                assert!(with_units(plan, shards, target, |units| units.len()) > 2);
            }
        }
    }
}
