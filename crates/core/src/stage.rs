//! Stage traits: the six exchangeable steps of the paper's Section 2
//! framework as pluggable pipeline components.
//!
//! The framework deliberately separates duplicate detection into
//! exchangeable steps — candidate definition, description selection,
//! comparison reduction, pairwise comparison, classification, and
//! clustering. Each step is a trait here, so new measures, filters, and
//! workloads drop in without touching [`crate::pipeline`]:
//!
//! | Step | Trait | Bundled implementations |
//! |---|---|---|
//! | 2+3 description selection | [`DescriptionSelector`] | [`crate::heuristics::HeuristicExpr`], [`ManualSelection`] |
//! | 4 comparison reduction | [`ComparisonFilter`] | [`crate::filter::ObjectFilter`], [`crate::filter::NoFilter`], [`crate::filter::QGramBlocking`], [`crate::filter::MinHashLshBlocking`], [`crate::neighborhood::TopKBlocking`], [`crate::neighborhood::SortedNeighborhoodFilter`] |
//! | 5 pairwise comparison | [`SimilarityMeasure`] | [`crate::sim::SoftIdfMeasure`] and every measure in [`crate::baseline`] |
//! | 5 classification | [`PairClassifier`] | [`crate::classify::ThresholdClassifier`], [`crate::classify::DualThreshold`] |
//! | 6 clustering | [`Clusterer`] | [`crate::cluster::TransitiveClosure`] |
//!
//! Stages are assembled with [`crate::pipeline::Dogmatix::builder`],
//! which wires the paper's default stage for every step left unset.

use crate::classify::Class;
use crate::od::OdSet;
use crate::sim::DistCache;
use dogmatix_xml::{Document, NodeId, Schema, SchemaNodeId};
use std::collections::{BTreeSet, HashMap};
use std::fmt;

/// Steps 2+3 — chooses the object-description schema paths for one
/// candidate schema element (the selection `σ` of Section 4).
///
/// Implemented by [`crate::heuristics::HeuristicExpr`] (the paper's
/// heuristics and their combination algebra) and by [`ManualSelection`]
/// for hand-written OD specifications.
pub trait DescriptionSelector: fmt::Debug + Send + Sync {
    /// Returns the selected schema name paths for candidates rooted at
    /// `e0` (whose name path is `candidate_path`).
    fn select(&self, schema: &Schema, candidate_path: &str, e0: SchemaNodeId) -> BTreeSet<String>;
}

/// A hand-written description selection: an explicit map from candidate
/// schema path to the set of selected description paths — the "manual OD
/// spec" alternative to the Section 4 heuristics.
#[derive(Debug, Clone, Default)]
pub struct ManualSelection {
    selections: HashMap<String, BTreeSet<String>>,
}

impl ManualSelection {
    /// Creates an empty manual selection (every candidate gets an empty
    /// description until paths are added).
    pub fn new() -> Self {
        ManualSelection::default()
    }

    /// Adds the description paths for one candidate schema path.
    pub fn with<I, S>(mut self, candidate_path: &str, paths: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.selections
            .entry(candidate_path.to_string())
            .or_default()
            .extend(paths.into_iter().map(Into::into));
        self
    }
}

impl DescriptionSelector for ManualSelection {
    fn select(
        &self,
        _schema: &Schema,
        candidate_path: &str,
        _e0: SchemaNodeId,
    ) -> BTreeSet<String> {
        self.selections
            .get(candidate_path)
            .cloned()
            .unwrap_or_default()
    }
}

/// The outcome of comparison reduction (Step 4).
#[derive(Debug, Clone, PartialEq)]
pub struct FilterDecision {
    /// Per-candidate filter values (`f(OD_i)` for the object filter;
    /// `1.0` for filters without a per-object score).
    pub f_values: Vec<f64>,
    /// Whether candidate `i` is pruned outright (no pair involving it is
    /// compared).
    pub pruned: Vec<bool>,
    /// Optional explicit comparison plan: the pairs (`i < j`, sorted) to
    /// compare. `None` means "all pairs of unpruned candidates" — the
    /// filtering family of Definition 4; `Some` is the
    /// clustering/windowing family (blocking).
    pub pairs: Option<Vec<(usize, usize)>>,
}

impl FilterDecision {
    /// A decision that keeps every candidate and every pair.
    pub fn keep_all(n: usize) -> Self {
        FilterDecision {
            f_values: vec![1.0; n],
            pruned: vec![false; n],
            pairs: None,
        }
    }
}

/// Step 4 — comparison reduction: prunes candidates (filtering) or
/// restricts the pair plan (blocking/windowing) before the quadratic
/// comparison step.
///
/// The resulting pair plan is an *input* to execution, not a
/// prescription of it: the crate's one pair-plan executor scores it on
/// the detector's `threads` workers, with bit-identical results at
/// every count.
pub trait ComparisonFilter: fmt::Debug + Send + Sync {
    /// Decides which candidates and pairs survive.
    fn reduce(&self, ods: &OdSet) -> FilterDecision;
}

/// Everything a similarity measure may read when preparing for one run.
#[derive(Debug, Clone, Copy)]
pub struct SimContext<'a> {
    /// The source document.
    pub doc: &'a Document,
    /// Candidate element nodes, aligned with OD indices.
    pub candidates: &'a [NodeId],
    /// The object descriptions of all candidates.
    pub ods: &'a OdSet,
}

/// Step 5 — the pairwise similarity measure.
///
/// A measure is prepared once per run (building per-corpus state such as
/// IDF vectors or a [`crate::sim::SimEngine`]); the prepared form is then
/// shared read-only across worker threads, each thread owning a private
/// [`DistCache`].
pub trait SimilarityMeasure: fmt::Debug + Send + Sync {
    /// Builds the per-run scoring state. The prepared form may borrow
    /// from the context but not from the measure itself (copy any
    /// parameters in).
    fn prepare<'a>(&self, ctx: SimContext<'a>) -> Box<dyn PreparedMeasure + 'a>;

    /// Prepares the measure to score one probe record against a pinned
    /// snapshot. `view` is the snapshot's store plus the record as the
    /// last object (index `view.object_count() - 1`), exactly as a batch
    /// run over corpus + record would intern it; there is no document
    /// holding the record. Returns `None` (the default) when the measure
    /// cannot score from that view alone — probe serving
    /// ([`crate::probe`]) then refuses the measure with a `Config` error.
    ///
    /// A measure that reads only the [`crate::sim::OdView`] queries
    /// returns its engine over the overlay:
    ///
    /// ```
    /// use dogmatix_core::probe::ProbeOverlay;
    /// use dogmatix_core::sim::{EditKernelChoice, SimEngine};
    /// use dogmatix_core::stage::{PreparedMeasure, SimContext, SimilarityMeasure};
    ///
    /// #[derive(Debug)]
    /// struct Strict;
    ///
    /// impl SimilarityMeasure for Strict {
    ///     fn prepare<'a>(&self, ctx: SimContext<'a>) -> Box<dyn PreparedMeasure + 'a> {
    ///         Box::new(SimEngine::new(ctx.ods, 0.05))
    ///     }
    ///
    ///     fn prepare_probe<'v>(
    ///         &self,
    ///         view: &'v ProbeOverlay<'_>,
    ///     ) -> Option<Box<dyn PreparedMeasure + 'v>> {
    ///         Some(Box::new(SimEngine::over(view, 0.05, EditKernelChoice::default())))
    ///     }
    /// }
    ///
    /// use dogmatix_core::pipeline::Dogmatix;
    /// use dogmatix_core::probe::{ProbeBlocking, ProbeScratch, ProbeSnapshot};
    /// use dogmatix_xml::{Document, Schema};
    /// let doc = Document::parse("<db><m><t>Signs</t></m><m><t>Heat</t></m></db>")?;
    /// let schema = Schema::infer(&doc)?;
    /// let dx = Dogmatix::builder().add_type("M", ["/db/m"]).measure(Strict).build();
    /// let snapshot =
    ///     ProbeSnapshot::from_batch(&dx, &doc, &schema, "M", ProbeBlocking::Exhaustive)?;
    /// let record = snapshot.record_from_xml("<m><t>Signs</t></m>")?;
    /// let answer = snapshot.probe(&record, 5, &mut ProbeScratch::new())?;
    /// assert_eq!(answer.matches[0].index, 0);
    /// # Ok::<(), dogmatix_core::DogmatixError>(())
    /// ```
    fn prepare_probe<'v>(
        &self,
        view: &'v crate::probe::ProbeOverlay<'_>,
    ) -> Option<Box<dyn PreparedMeasure + 'v>> {
        let _ = view;
        None
    }
}

/// The per-run form of a [`SimilarityMeasure`]: scores candidate pairs.
pub trait PreparedMeasure: Sync {
    /// Similarity of the pair `(i, j)` in `[0, 1]`.
    fn sim(&self, i: usize, j: usize, cache: &mut DistCache) -> f64;
}

/// Step 5 — classifies a pair's similarity into duplicate classes `Γ`
/// (framework Definition 6).
pub trait PairClassifier: fmt::Debug + Send + Sync {
    /// The class of a pair with the given similarity.
    fn classify(&self, sim: f64) -> Class;
}

/// Step 6 — combines detected duplicate pairs into clusters.
pub trait Clusterer: fmt::Debug + Send + Sync {
    /// Builds clusters over `0..n` from the detected pairs.
    fn cluster(&self, n: usize, pairs: &[(usize, usize)]) -> Vec<Vec<usize>>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_selection_is_per_candidate_path() {
        let sel = ManualSelection::new()
            .with("/r/m", ["/r/m/t", "/r/m/y"])
            .with("/r/b", ["/r/b/isbn"]);
        let doc = dogmatix_xml::Document::parse("<r><m><t>x</t><y>1</y></m></r>").unwrap();
        let schema = dogmatix_xml::Schema::infer(&doc).unwrap();
        let e0 = schema.find_by_path("/r/m").unwrap();
        let picked = sel.select(&schema, "/r/m", e0);
        assert_eq!(picked.len(), 2);
        assert!(picked.contains("/r/m/t"));
        assert!(sel.select(&schema, "/r/nope", e0).is_empty());
    }

    #[test]
    fn keep_all_decision_shape() {
        let d = FilterDecision::keep_all(3);
        assert_eq!(d.f_values, vec![1.0; 3]);
        assert_eq!(d.pruned, vec![false; 3]);
        assert!(d.pairs.is_none());
    }
}
