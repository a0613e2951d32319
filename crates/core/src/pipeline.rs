//! The DogmatiX pipeline: the six duplicate-detection steps of the
//! framework (Sections 2.3 and 3.4) wired together over the pluggable
//! stage traits of [`crate::stage`].
//!
//! 1. candidate query formulation & execution → [`crate::candidate`]
//! 2. description query execution → a [`DescriptionSelector`] per schema
//!    element
//! 3. OD generation → [`crate::od`] (steps 2+3 are fused, as the paper
//!    suggests: "in practice the queries may be combined")
//! 4. comparison reduction → a [`ComparisonFilter`]
//! 5. pairwise comparisons → a [`SimilarityMeasure`] scored by a
//!    [`PairClassifier`]
//! 6. duplicate clustering → a [`Clusterer`]
//!
//! Detectors are assembled with [`Dogmatix::builder`], which derives
//! every unset stage from the paper's defaults in [`DogmatixConfig`].
//! Repeated runs over the same document reuse a [`DetectionSession`],
//! which holds the resolved candidates and caches object descriptions per
//! selection, so parameter sweeps and benches stop re-deriving state.
//!
//! Step 5 runs through the crate's one pair-plan executor;
//! `threads` sets its worker count, and results are bit-identical at
//! every count.

use crate::backend::{IndexContext, TermIndexBackend};
use crate::candidate::{select_candidates, CandidateSet};
use crate::classify::{Class, ThresholdClassifier};
use crate::cluster::TransitiveClosure;
use crate::error::DogmatixError;
use crate::executor::{PairPlan, Verdict};
use crate::filter::{NoFilter, ObjectFilter};
use crate::heuristics::HeuristicExpr;
use crate::mapping::Mapping;
use crate::od::OdSet;
use crate::output::clusters_to_xml;
use crate::sim::SoftIdfMeasure;
use crate::stage::{
    Clusterer, ComparisonFilter, DescriptionSelector, FilterDecision, PairClassifier,
    PreparedMeasure, SimContext, SimilarityMeasure,
};
use dogmatix_xml::{Document, NodeId, Schema};
use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// The paper's default thresholds and heuristic, from which
/// [`Dogmatix::builder`] derives every stage left unset.
#[derive(Debug, Clone, PartialEq)]
pub struct DogmatixConfig {
    /// Tuple-similarity threshold `θ_tuple` (paper: 0.15).
    pub theta_tuple: f64,
    /// Duplicate threshold `θ_cand` (paper: 0.55).
    pub theta_cand: f64,
    /// Description-selection heuristic.
    pub heuristic: HeuristicExpr,
}

impl Default for DogmatixConfig {
    fn default() -> Self {
        DogmatixConfig {
            theta_tuple: 0.15,
            theta_cand: 0.55,
            heuristic: HeuristicExpr::r_distant_descendants(1),
        }
    }
}

/// Counters describing one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunStats {
    /// Number of duplicate candidates (`|Ω_T|`).
    pub candidates: usize,
    /// Candidates pruned by the object filter.
    pub pruned_by_filter: usize,
    /// Total candidate pairs (`n·(n−1)/2`).
    pub pairs_total: usize,
    /// Pairs actually compared after filtering.
    pub pairs_compared: usize,
}

/// Everything a run produces.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectionResult {
    /// Candidate element nodes in document order.
    pub candidates: Vec<NodeId>,
    /// Object descriptions (aligned with `candidates`). Shared with the
    /// session's OD cache; dereferences like a plain [`OdSet`].
    pub ods: Arc<OdSet>,
    /// Filter values `f(OD_i)` (all 1.0 when the filter is disabled).
    pub f_values: Vec<f64>,
    /// Whether candidate `i` was pruned by the filter.
    pub pruned: Vec<bool>,
    /// Detected duplicate pairs `(i, j, sim)` with `i < j`, sorted.
    pub duplicate_pairs: Vec<(usize, usize, f64)>,
    /// Pairs the classifier marked as *possible* duplicates (`C2`, e.g.
    /// the unknown zone of [`crate::classify::DualThreshold`]); empty
    /// under the default two-class classifier.
    pub possible_pairs: Vec<(usize, usize, f64)>,
    /// Duplicate clusters (transitive closure of the pairs).
    pub clusters: Vec<Vec<usize>>,
    /// Run counters.
    pub stats: RunStats,
}

impl DetectionResult {
    /// Renders the result as the paper's Fig. 3 dup-cluster document.
    pub fn to_xml(&self, source: &Document) -> Document {
        clusters_to_xml(source, &self.candidates, &self.clusters)
    }

    /// Whether the pair `(i, j)` was classified as duplicates.
    pub fn is_duplicate(&self, i: usize, j: usize) -> bool {
        let key = if i < j { (i, j) } else { (j, i) };
        self.duplicate_pairs
            .binary_search_by(|p| (p.0, p.1).cmp(&key))
            .is_ok()
    }
}

/// Reusable per-document state: the parsed document and schema, the
/// resolved candidate set of one real-world type, and a cache of object
/// descriptions keyed by description selection.
///
/// Repeated [`Dogmatix::detect`] runs against the same session — a
/// threshold sweep, a measure shoot-out, a criterion bench loop — skip
/// candidate resolution entirely and rebuild ODs only when the selection
/// actually changes.
pub struct DetectionSession<'a> {
    doc: &'a Document,
    schema: &'a Schema,
    mapping: Mapping,
    candidates: CandidateSet,
    od_cache: RefCell<HashMap<SelectionKey, Arc<OdSet>>>,
}

/// Canonical (sorted) form of a per-candidate-path selection, used as
/// the session's OD-cache key.
type SelectionKey = Vec<(String, Vec<String>)>;

impl<'a> DetectionSession<'a> {
    /// Resolves the candidates of `rw_type` and opens a session.
    pub fn new(
        doc: &'a Document,
        schema: &'a Schema,
        mapping: &Mapping,
        rw_type: &str,
    ) -> Result<Self, DogmatixError> {
        let candidates = select_candidates(doc, schema, mapping, rw_type)?;
        Ok(DetectionSession {
            doc,
            schema,
            mapping: mapping.clone(),
            candidates,
            od_cache: RefCell::new(HashMap::new()),
        })
    }

    /// The session's document.
    pub fn doc(&self) -> &'a Document {
        self.doc
    }

    /// The session's schema.
    pub fn schema(&self) -> &'a Schema {
        self.schema
    }

    /// The mapping `M` the session resolves types against.
    pub fn mapping(&self) -> &Mapping {
        &self.mapping
    }

    /// The real-world type this session detects duplicates of.
    pub fn rw_type(&self) -> &str {
        &self.candidates.rw_type
    }

    /// The resolved candidate set (`Ω_T`).
    pub fn candidates(&self) -> &CandidateSet {
        &self.candidates
    }

    /// Number of distinct OD sets currently cached.
    pub fn cached_od_sets(&self) -> usize {
        self.od_cache.borrow().len()
    }

    /// Runs a [`DescriptionSelector`] over every candidate schema
    /// element, returning the per-path selections the OD builder needs.
    pub fn selections_for(
        &self,
        selector: &dyn DescriptionSelector,
    ) -> Result<HashMap<String, BTreeSet<String>>, DogmatixError> {
        selections_for_paths(self.schema, &self.candidates.schema_paths, selector)
    }

    /// The object descriptions for a selection, built on first use and
    /// cached for every later run with the same selection.
    pub fn object_descriptions(
        &self,
        selections: &HashMap<String, BTreeSet<String>>,
    ) -> Arc<OdSet> {
        let mut key: SelectionKey = selections
            .iter()
            .map(|(path, sel)| (path.clone(), sel.iter().cloned().collect()))
            .collect();
        key.sort();
        if let Some(hit) = self.od_cache.borrow().get(&key) {
            return Arc::clone(hit);
        }
        let ods = Arc::new(OdSet::build(
            self.doc,
            &self.candidates.nodes,
            selections,
            &self.mapping,
        ));
        self.od_cache.borrow_mut().insert(key, Arc::clone(&ods));
        ods
    }
}

/// Runs a [`DescriptionSelector`] over each candidate schema path of a
/// schema — shared by [`DetectionSession`] and the incremental session.
pub(crate) fn selections_for_paths(
    schema: &Schema,
    schema_paths: &[String],
    selector: &dyn DescriptionSelector,
) -> Result<HashMap<String, BTreeSet<String>>, DogmatixError> {
    let mut selections = HashMap::new();
    for path in schema_paths {
        let e0 = schema
            .find_by_path(path)
            .ok_or_else(|| DogmatixError::PathNotInSchema { path: path.clone() })?;
        selections.insert(path.clone(), selector.select(schema, path, e0));
    }
    Ok(selections)
}

impl std::fmt::Debug for DetectionSession<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DetectionSession")
            .field("rw_type", &self.candidates.rw_type)
            .field("candidates", &self.candidates.nodes.len())
            .field("cached_od_sets", &self.cached_od_sets())
            .finish()
    }
}

/// The DogmatiX detector: the type mapping `M` plus one stage object per
/// exchangeable pipeline step.
#[derive(Debug, Clone)]
pub struct Dogmatix {
    config: DogmatixConfig,
    threads: usize,
    mapping: Mapping,
    selector: Arc<dyn DescriptionSelector>,
    filter: Arc<dyn ComparisonFilter>,
    measure: Arc<dyn SimilarityMeasure>,
    classifier: Arc<dyn PairClassifier>,
    clusterer: Arc<dyn Clusterer>,
    index_backend: Option<Arc<dyn TermIndexBackend>>,
}

impl Dogmatix {
    /// Starts assembling a detector stage by stage.
    ///
    /// Unset stages fall back to the paper's defaults derived from
    /// `theta_tuple`, `theta_cand` and `heuristic` (the object filter,
    /// the softIDF measure and the threshold classifier); comparison runs
    /// on one thread.
    pub fn builder() -> DogmatixBuilder {
        DogmatixBuilder {
            config: DogmatixConfig::default(),
            threads: 1,
            mapping: Mapping::new(),
            selector: None,
            filter: None,
            measure: None,
            classifier: None,
            clusterer: None,
            index_backend: None,
        }
    }

    /// The mapping `M`.
    pub fn mapping(&self) -> &Mapping {
        &self.mapping
    }

    /// Opens a reusable [`DetectionSession`] for this detector's mapping.
    pub fn session<'a>(
        &self,
        doc: &'a Document,
        schema: &'a Schema,
        rw_type: &str,
    ) -> Result<DetectionSession<'a>, DogmatixError> {
        DetectionSession::new(doc, schema, &self.mapping, rw_type)
    }

    /// Runs duplicate detection for one real-world type (one-shot
    /// convenience over [`Dogmatix::detect`]).
    pub fn run(
        &self,
        doc: &Document,
        schema: &Schema,
        rw_type: &str,
    ) -> Result<DetectionResult, DogmatixError> {
        let session = self.session(doc, schema, rw_type)?;
        self.detect(&session)
    }

    /// Runs duplicate detection against a prepared session, reusing its
    /// candidate set and OD cache.
    ///
    /// Data concerns (candidate resolution, OD building, real-world-type
    /// comparability) follow the **session's** mapping; the detector's
    /// stages only drive the algorithm. Open sessions through
    /// [`Dogmatix::session`] unless you deliberately want to run several
    /// detectors — which must then share the session's mapping — over one
    /// corpus; a session opened with a different mapping than
    /// [`Dogmatix::mapping`] would silently resolve types differently.
    pub fn detect(&self, session: &DetectionSession<'_>) -> Result<DetectionResult, DogmatixError> {
        self.validate()?;

        // Step 1 was resolved when the session was opened.
        let candidates = session.candidates().nodes.clone();
        let n = candidates.len();

        // Steps 2+3: description selection per schema element, then ODs.
        // The default path builds them in memory, cached in the session
        // per distinct selection; a configured term-index backend takes
        // over instead (e.g. saving or warm-loading a snapshot).
        let selections = session.selections_for(self.selector.as_ref())?;
        let ods = match &self.index_backend {
            None => session.object_descriptions(&selections),
            Some(backend) => backend.acquire(IndexContext {
                doc: session.doc(),
                candidates: &candidates,
                selections: &selections,
                mapping: session.mapping(),
            })?,
        };
        // Whatever produced the set — fresh build, session cache, or
        // snapshot warm start — it must satisfy the store invariants
        // before the comparison stages index into it.
        crate::store::audit::audit_gate(&ods, "pipeline OD generation");

        // Step 4: comparison reduction.
        let FilterDecision {
            f_values,
            pruned,
            pairs,
        } = self.filter.reduce(&ods);
        let pruned_by_filter = pruned.iter().filter(|p| **p).count();
        let active: Vec<usize> = (0..n).filter(|i| !pruned[*i]).collect();

        // Step 5: pairwise comparisons.
        let prepared = self.measure.prepare(SimContext {
            doc: session.doc(),
            candidates: &candidates,
            ods: &ods,
        });
        let explicit: Vec<(usize, usize)>;
        let plan = match pairs {
            None => PairPlan::AllPairs(&active),
            Some(plan) => {
                explicit = plan
                    .into_iter()
                    .filter(|(i, j)| !pruned[*i] && !pruned[*j])
                    .collect();
                PairPlan::Pairs(&explicit)
            }
        };
        let (verdicts, pairs_compared) = self.score_plan(prepared.as_ref(), plan, false);
        drop(prepared);
        let mut duplicate_pairs = Vec::new();
        let mut possible_pairs = Vec::new();
        for (i, j, sim, class) in verdicts {
            match class {
                Class::Duplicate => duplicate_pairs.push((i, j, sim)),
                Class::Possible => possible_pairs.push((i, j, sim)),
                Class::NonDuplicate => {}
            }
        }

        // Step 6: duplicate clustering.
        let pairs_only: Vec<(usize, usize)> =
            duplicate_pairs.iter().map(|(i, j, _)| (*i, *j)).collect();
        let clusters = self.clusterer.cluster(n, &pairs_only);

        Ok(DetectionResult {
            candidates,
            ods,
            f_values,
            pruned,
            duplicate_pairs,
            possible_pairs,
            clusters,
            stats: RunStats {
                candidates: n,
                pruned_by_filter,
                pairs_total: n * n.saturating_sub(1) / 2,
                pairs_compared,
            },
        })
    }

    /// Formulates the textual XQueries of framework Step 1/2 for this
    /// detector's active heuristic selection over `schema`: `Q_C` over
    /// the type's candidate paths and one `Q_D` per path, each paired
    /// with the exact selection σ the executing pipeline would use
    /// (both flow through `selections_for_paths`, so the printed
    /// queries cannot drift from the run).
    pub fn formulated_queries(
        &self,
        schema: &Schema,
        rw_type: &str,
    ) -> Result<crate::query::FormulatedQueries, DogmatixError> {
        let paths = self
            .mapping
            .paths_of(rw_type)
            .ok_or_else(|| DogmatixError::UnknownType {
                name: rw_type.to_string(),
            })?;
        let schema_paths: Vec<String> = paths.to_vec();
        for path in &schema_paths {
            if schema.find_by_path(path).is_none() {
                return Err(DogmatixError::PathNotInSchema { path: path.clone() });
            }
        }
        let selections = selections_for_paths(schema, &schema_paths, self.selector.as_ref())?;
        let refs: Vec<&str> = schema_paths.iter().map(String::as_str).collect();
        let candidate_query = crate::query::candidate_query(&refs);
        let description_queries = schema_paths
            .iter()
            .map(|path| {
                let sel = selections.get(path).cloned().unwrap_or_default();
                let qd = crate::query::description_query(path, &sel);
                (path.clone(), sel, qd)
            })
            .collect();
        Ok(crate::query::FormulatedQueries {
            candidate_query,
            description_queries,
        })
    }

    /// Opens an [`IncrementalSession`](crate::incremental::IncrementalSession)
    /// over an owned document with a fixed schema: streaming deltas are
    /// applied against `schema` as given (the usual choice when an XSD is
    /// at hand — the CD corpus, say).
    pub fn incremental_session(
        &self,
        doc: Document,
        schema: Schema,
        rw_type: &str,
    ) -> Result<crate::incremental::IncrementalSession, DogmatixError> {
        crate::incremental::IncrementalSession::new(doc, schema, &self.mapping, rw_type)
    }

    /// Opens an [`IncrementalSession`](crate::incremental::IncrementalSession)
    /// that infers its schema from the document and re-infers it after
    /// structural deltas — for schemaless corpora, mirroring what a batch
    /// rebuild with [`Schema::infer`] would see.
    pub fn incremental_session_inferred(
        &self,
        doc: Document,
        rw_type: &str,
    ) -> Result<crate::incremental::IncrementalSession, DogmatixError> {
        crate::incremental::IncrementalSession::with_inferred_schema(doc, &self.mapping, rw_type)
    }

    /// Applies a batch of [`DocumentDelta`](crate::incremental::DocumentDelta)s
    /// to the session's document and re-runs detection incrementally:
    /// only candidates touched by the deltas are re-described, and only
    /// pairs whose similarity could have changed are re-compared — the
    /// rest is replayed from the previous run. The result is identical to
    /// a from-scratch [`Dogmatix::detect`] over the final document state
    /// (`stats.pairs_compared` counts only the freshly scored pairs).
    ///
    /// An empty `deltas` slice re-runs detection over the current state —
    /// use it for the initial run after opening the session.
    pub fn detect_delta(
        &self,
        session: &mut crate::incremental::IncrementalSession,
        deltas: &[crate::incremental::DocumentDelta],
    ) -> Result<DetectionResult, DogmatixError> {
        crate::incremental::detect_incremental(self, session, deltas)
    }

    /// Step 5: scores `plan` with this detector's classifier on its
    /// [`Dogmatix::workers`], returning the verdicts and the number of
    /// pairs scored. See `crate::executor`.
    pub(crate) fn score_plan(
        &self,
        measure: &dyn PreparedMeasure,
        plan: PairPlan<'_>,
        keep_non_duplicates: bool,
    ) -> (Vec<Verdict>, usize) {
        crate::executor::execute(
            plan,
            self.workers(),
            measure,
            self.classifier.as_ref(),
            keep_non_duplicates,
        )
    }

    /// The worker count Step 5 runs on: `threads`, with `0` resolved to
    /// all cores and larger counts capped at them, since extra workers
    /// only add threads to start. The default single worker needs no
    /// look at the machine.
    pub(crate) fn workers(&self) -> usize {
        match self.threads {
            1 => 1,
            0 => crate::executor::available_cores(),
            t => t.min(crate::executor::available_cores()),
        }
    }

    /// The description-selection stage.
    pub(crate) fn selector_stage(&self) -> &Arc<dyn DescriptionSelector> {
        &self.selector
    }

    /// The comparison-reduction stage.
    pub(crate) fn filter_stage(&self) -> &Arc<dyn ComparisonFilter> {
        &self.filter
    }

    /// The similarity-measure stage.
    pub(crate) fn measure_stage(&self) -> &Arc<dyn SimilarityMeasure> {
        &self.measure
    }

    /// The pair-classifier stage.
    pub(crate) fn classifier_stage(&self) -> &Arc<dyn PairClassifier> {
        &self.classifier
    }

    /// The clustering stage.
    pub(crate) fn clusterer_stage(&self) -> &Arc<dyn Clusterer> {
        &self.clusterer
    }

    pub(crate) fn validate(&self) -> Result<(), DogmatixError> {
        for (name, v) in [
            ("theta_tuple", self.config.theta_tuple),
            ("theta_cand", self.config.theta_cand),
        ] {
            if !(0.0..=1.0).contains(&v) || v.is_nan() {
                return Err(DogmatixError::Config {
                    message: format!("{name} must be within [0, 1], got {v}"),
                });
            }
        }
        Ok(())
    }
}

/// Fluent assembly of a [`Dogmatix`] detector; obtained from
/// [`Dogmatix::builder`].
///
/// ```
/// use dogmatix_core::pipeline::Dogmatix;
/// use dogmatix_core::heuristics::HeuristicExpr;
///
/// let dx = Dogmatix::builder()
///     .add_type("MOVIE", ["/moviedoc/movie"])
///     .heuristic(HeuristicExpr::r_distant_descendants(1))
///     .theta_tuple(0.15)
///     .theta_cand(0.55)
///     .threads(4)
///     .build();
/// # let _ = dx;
/// ```
#[derive(Debug, Clone)]
pub struct DogmatixBuilder {
    config: DogmatixConfig,
    threads: usize,
    mapping: Mapping,
    selector: Option<Arc<dyn DescriptionSelector>>,
    filter: Option<Arc<dyn ComparisonFilter>>,
    measure: Option<Arc<dyn SimilarityMeasure>>,
    classifier: Option<Arc<dyn PairClassifier>>,
    clusterer: Option<Arc<dyn Clusterer>>,
    index_backend: Option<Arc<dyn TermIndexBackend>>,
}

impl DogmatixBuilder {
    /// Sets the type mapping `M`.
    pub fn mapping(mut self, mapping: Mapping) -> Self {
        self.mapping = mapping;
        self
    }

    /// Registers one real-world type on the mapping (convenience for
    /// simple single-type setups; see [`Mapping::add_type`]).
    pub fn add_type<'a>(mut self, name: &str, paths: impl IntoIterator<Item = &'a str>) -> Self {
        self.mapping.add_type(name, paths);
        self
    }

    /// Sets the tuple-similarity threshold `θ_tuple` used by the default
    /// measure and filter.
    pub fn theta_tuple(mut self, theta: f64) -> Self {
        self.config.theta_tuple = theta;
        self
    }

    /// Sets the duplicate threshold `θ_cand` used by the default
    /// classifier and filter.
    pub fn theta_cand(mut self, theta: f64) -> Self {
        self.config.theta_cand = theta;
        self
    }

    /// Sets the description-selection heuristic (the default
    /// [`DescriptionSelector`]).
    pub fn heuristic(mut self, heuristic: HeuristicExpr) -> Self {
        self.config.heuristic = heuristic;
        self
    }

    /// Sets a custom description-selection stage (overrides
    /// [`DogmatixBuilder::heuristic`]).
    pub fn selector(mut self, selector: impl DescriptionSelector + 'static) -> Self {
        self.selector = Some(Arc::new(selector));
        self
    }

    /// Sets a custom comparison-reduction stage.
    pub fn filter(mut self, filter: impl ComparisonFilter + 'static) -> Self {
        self.filter = Some(Arc::new(filter));
        self
    }

    /// Disables comparison reduction (the Section 6.3 ablation): every
    /// pair is compared.
    pub fn no_filter(mut self) -> Self {
        self.filter = Some(Arc::new(NoFilter));
        self
    }

    /// Sets a custom similarity measure.
    pub fn measure(mut self, measure: impl SimilarityMeasure + 'static) -> Self {
        self.measure = Some(Arc::new(measure));
        self
    }

    /// Sets a custom similarity measure from a shared handle (useful
    /// when the same stage object drives several detectors).
    pub fn measure_arc(mut self, measure: Arc<dyn SimilarityMeasure>) -> Self {
        self.measure = Some(measure);
        self
    }

    /// Sets a custom pair classifier.
    pub fn classifier(mut self, classifier: impl PairClassifier + 'static) -> Self {
        self.classifier = Some(Arc::new(classifier));
        self
    }

    /// Sets a custom clusterer.
    pub fn clusterer(mut self, clusterer: impl Clusterer + 'static) -> Self {
        self.clusterer = Some(Arc::new(clusterer));
        self
    }

    /// Sets the worker-thread count for pairwise comparison (default 1).
    /// `0` means all available cores, and a larger count is capped at
    /// them. Results are bit-identical at every count.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the term-index backend the detector acquires its columnar
    /// [`OdSet`] through — [`crate::backend::InMemoryBackend`] semantics
    /// are the default; a [`crate::backend::paged::PagedBackend`]
    /// persists the store to a versioned, paged snapshot file or
    /// warm-starts from one (CLI: `--index-save` / `--index-load`).
    ///
    /// A configured backend bypasses the session's OD cache (the backend
    /// owns the state now); the incremental path keeps building in
    /// memory — its per-delta re-interning is already the cheap step.
    ///
    /// ```
    /// use dogmatix_core::backend::InMemoryBackend;
    /// use dogmatix_core::pipeline::Dogmatix;
    /// let dx = Dogmatix::builder()
    ///     .add_type("M", ["/db/m"])
    ///     .index_backend(InMemoryBackend)
    ///     .build();
    /// # let _ = dx;
    /// ```
    pub fn index_backend(mut self, backend: impl TermIndexBackend + 'static) -> Self {
        self.index_backend = Some(Arc::new(backend));
        self
    }

    /// Assembles the detector, deriving any unset stage from the
    /// paper defaults.
    pub fn build(self) -> Dogmatix {
        let DogmatixBuilder {
            config,
            threads,
            mapping,
            selector,
            filter,
            measure,
            classifier,
            clusterer,
            index_backend,
        } = self;
        let selector = selector.unwrap_or_else(|| Arc::new(config.heuristic.clone()) as Arc<_>);
        let filter = filter.unwrap_or_else(|| {
            Arc::new(ObjectFilter::new_unchecked(
                config.theta_tuple,
                config.theta_cand,
            )) as Arc<_>
        });
        let measure = measure.unwrap_or_else(|| {
            Arc::new(SoftIdfMeasure::new_unchecked(config.theta_tuple)) as Arc<_>
        });
        let classifier = classifier.unwrap_or_else(|| {
            Arc::new(ThresholdClassifier::new_unchecked(config.theta_cand)) as Arc<_>
        });
        let clusterer = clusterer.unwrap_or_else(|| Arc::new(TransitiveClosure) as Arc<_>);
        Dogmatix {
            config,
            threads,
            mapping,
            selector,
            filter,
            measure,
            classifier,
            clusterer,
            index_backend,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::OverlapMeasure;
    use crate::classify::DualThreshold;
    use crate::neighborhood::TopKBlocking;
    use crate::stage::ManualSelection;

    fn movie_setup() -> (Document, Schema, Mapping) {
        let doc = Document::parse(
            "<moviedoc>\
               <movie><title>The Matrix</title><year>1999</year>\
                 <actor><name>Keanu Reeves</name><role>Neo</role></actor>\
                 <actor><name>L. Fishburne</name><role>Morpheus</role></actor></movie>\
               <movie><title>The Matrrix</title><year>1999</year>\
                 <actor><name>Keanu Reeves</name><role>The One</role></actor></movie>\
               <movie><title>Signs</title><year>2002</year>\
                 <actor><name>Mel Gibson</name><role>Graham Hess</role></actor></movie>\
               <movie><title>Distant Echo</title><year>1988</year>\
                 <actor><name>Nobody Atall</name><role>Lead</role></actor></movie>\
             </moviedoc>",
        )
        .unwrap();
        let schema = Schema::infer(&doc).unwrap();
        let mut mapping = Mapping::new();
        mapping.add_type("MOVIE", ["/moviedoc/movie"]);
        (doc, schema, mapping)
    }

    #[test]
    fn end_to_end_finds_the_matrix_pair() {
        let (doc, schema, mapping) = movie_setup();
        let dx = Dogmatix::builder().mapping(mapping).build();
        let result = dx.run(&doc, &schema, "MOVIE").unwrap();
        assert_eq!(result.stats.candidates, 4);
        assert_eq!(result.duplicate_pairs.len(), 1);
        assert_eq!(
            (result.duplicate_pairs[0].0, result.duplicate_pairs[0].1),
            (0, 1)
        );
        assert_eq!(result.clusters, vec![vec![0, 1]]);
        assert!(result.is_duplicate(0, 1));
        assert!(result.is_duplicate(1, 0));
        assert!(!result.is_duplicate(0, 2));
        assert!(result.possible_pairs.is_empty());
    }

    #[test]
    fn builder_defaults_match_legacy_constructor() {
        // The unset stages are the paper's, wired from `DogmatixConfig`'s
        // defaults: spelling them out changes nothing.
        let (doc, schema, mapping) = movie_setup();
        let paper = DogmatixConfig::default();
        let explicit = Dogmatix::builder()
            .mapping(mapping.clone())
            .selector(paper.heuristic.clone())
            .filter(ObjectFilter::new(paper.theta_tuple, paper.theta_cand))
            .measure(SoftIdfMeasure::new(paper.theta_tuple))
            .classifier(ThresholdClassifier::new(paper.theta_cand))
            .clusterer(TransitiveClosure)
            .build()
            .run(&doc, &schema, "MOVIE")
            .unwrap();
        let built = Dogmatix::builder()
            .mapping(mapping)
            .build()
            .run(&doc, &schema, "MOVIE")
            .unwrap();
        assert_eq!(explicit, built);
    }

    #[test]
    fn worker_count_is_capped_at_the_cores() {
        let cores = crate::executor::available_cores();
        let workers = |threads| Dogmatix::builder().threads(threads).build().workers();
        assert_eq!(workers(usize::MAX), cores);
        assert_eq!(workers(0), cores);
        assert_eq!(workers(1), 1);
    }

    #[test]
    fn session_caches_od_sets_across_runs() {
        let (doc, schema, mapping) = movie_setup();
        let dx = Dogmatix::builder().mapping(mapping).build();
        let session = dx.session(&doc, &schema, "MOVIE").unwrap();
        let first = dx.detect(&session).unwrap();
        assert_eq!(session.cached_od_sets(), 1);
        let second = dx.detect(&session).unwrap();
        assert_eq!(session.cached_od_sets(), 1, "second run hits the cache");
        assert_eq!(first, second);
        // A different selection builds (and caches) a new OD set.
        let wider = Dogmatix::builder()
            .mapping(session.mapping().clone())
            .heuristic(HeuristicExpr::r_distant_descendants(2))
            .build();
        wider.detect(&session).unwrap();
        assert_eq!(session.cached_od_sets(), 2);
    }

    #[test]
    fn manual_selection_stage_controls_the_ods() {
        let (doc, schema, mapping) = movie_setup();
        // Only the year is selected: all four movies become comparable
        // on year alone.
        let dx = Dogmatix::builder()
            .mapping(mapping)
            .selector(ManualSelection::new().with("/moviedoc/movie", ["/moviedoc/movie/year"]))
            .no_filter()
            .build();
        let result = dx.run(&doc, &schema, "MOVIE").unwrap();
        assert!(result
            .ods
            .iter()
            .all(|od| od.tuple_count() == 1 && od.tuple(0).path() == "/moviedoc/movie/year"));
        // The 1999 movies agree on their whole (single-tuple) OD.
        assert!(result.is_duplicate(0, 1));
    }

    #[test]
    fn dual_threshold_classifier_surfaces_possible_pairs() {
        let (doc, schema, mapping) = movie_setup();
        let dx = Dogmatix::builder()
            .mapping(mapping)
            .no_filter()
            .classifier(DualThreshold::new(1.0, 0.5).unwrap())
            .build();
        let result = dx.run(&doc, &schema, "MOVIE").unwrap();
        // Nothing exceeds sim > 1.0, so the Matrix pair (sim 1.0 at r=1:
        // similar title + year, no contradictions) lands in the unknown
        // zone instead of the duplicate class.
        assert!(result.duplicate_pairs.is_empty());
        assert!(result
            .possible_pairs
            .iter()
            .any(|&(i, j, _)| (i, j) == (0, 1)));
        for (_, _, sim) in &result.possible_pairs {
            assert!(*sim <= 1.0 && *sim > 0.5);
        }
    }

    #[test]
    fn topk_blocking_filter_restricts_the_plan() {
        let (doc, schema, mapping) = movie_setup();
        let all = Dogmatix::builder()
            .mapping(mapping.clone())
            .no_filter()
            .build()
            .run(&doc, &schema, "MOVIE")
            .unwrap();
        let blocked = Dogmatix::builder()
            .mapping(mapping)
            .filter(TopKBlocking::new(1))
            .build()
            .run(&doc, &schema, "MOVIE")
            .unwrap();
        assert!(blocked.stats.pairs_compared < all.stats.pairs_compared);
        // The true duplicates share the most data, so blocking keeps them.
        assert_eq!(blocked.duplicate_pairs, all.duplicate_pairs);
    }

    #[test]
    fn swapped_measure_runs_through_the_same_pipeline() {
        let (doc, schema, mapping) = movie_setup();
        let dx = Dogmatix::builder()
            .mapping(mapping)
            .measure(OverlapMeasure)
            .theta_cand(0.3)
            .no_filter()
            .build();
        let result = dx.run(&doc, &schema, "MOVIE").unwrap();
        // Movies 0 and 1 share year + Keanu (2 of 4 resp. 2 of 3 tuples):
        // overlap = 0.5 > 0.3.
        assert!(result.is_duplicate(0, 1));
        assert!(!result.is_duplicate(0, 2));
    }

    #[test]
    fn custom_clusterer_is_used() {
        // A clusterer that lumps every candidate into one cluster, to
        // prove Step 6 is pluggable.
        #[derive(Debug)]
        struct OneBigCluster;
        impl Clusterer for OneBigCluster {
            fn cluster(&self, n: usize, _pairs: &[(usize, usize)]) -> Vec<Vec<usize>> {
                vec![(0..n).collect()]
            }
        }
        let (doc, schema, mapping) = movie_setup();
        let dx = Dogmatix::builder()
            .mapping(mapping)
            .clusterer(OneBigCluster)
            .build();
        let result = dx.run(&doc, &schema, "MOVIE").unwrap();
        assert_eq!(result.clusters, vec![vec![0, 1, 2, 3]]);
    }

    #[test]
    fn filter_prunes_isolated_candidates() {
        let (doc, schema, mapping) = movie_setup();
        let dx = Dogmatix::builder().mapping(mapping).build();
        let result = dx.run(&doc, &schema, "MOVIE").unwrap();
        // Signs and Distant Echo share nothing with anyone.
        assert!(result.stats.pruned_by_filter >= 1);
        assert!(result.pruned[3], "f={}", result.f_values[3]);
        // The true duplicates survive the filter.
        assert!(!result.pruned[0] && !result.pruned[1]);
    }

    #[test]
    fn filter_and_no_filter_agree_on_duplicates() {
        let (doc, schema, mapping) = movie_setup();
        let with = Dogmatix::builder()
            .mapping(mapping.clone())
            .build()
            .run(&doc, &schema, "MOVIE")
            .unwrap();
        let without = Dogmatix::builder()
            .mapping(mapping)
            .no_filter()
            .build()
            .run(&doc, &schema, "MOVIE")
            .unwrap();
        assert_eq!(with.duplicate_pairs, without.duplicate_pairs);
        assert!(without.stats.pairs_compared >= with.stats.pairs_compared);
    }

    #[test]
    fn parallel_matches_sequential() {
        let (doc, schema, mapping) = movie_setup();
        let seq = Dogmatix::builder()
            .mapping(mapping.clone())
            .build()
            .run(&doc, &schema, "MOVIE")
            .unwrap();
        let par = Dogmatix::builder()
            .mapping(mapping)
            .threads(4)
            .build()
            .run(&doc, &schema, "MOVIE")
            .unwrap();
        assert_eq!(seq.duplicate_pairs, par.duplicate_pairs);
        assert_eq!(seq.clusters, par.clusters);
    }

    #[test]
    fn invalid_thresholds_rejected() {
        let (doc, schema, mapping) = movie_setup();
        for bad in [-0.1, 1.5, f64::NAN] {
            let dx = Dogmatix::builder()
                .mapping(mapping.clone())
                .theta_cand(bad)
                .build();
            assert!(dx.run(&doc, &schema, "MOVIE").is_err(), "theta={bad}");
        }
    }

    #[test]
    fn output_document_lists_cluster_members() {
        let (doc, schema, mapping) = movie_setup();
        let dx = Dogmatix::builder().mapping(mapping).build();
        let result = dx.run(&doc, &schema, "MOVIE").unwrap();
        let out = result.to_xml(&doc);
        let dups = out.select("/duplicates/dupcluster/duplicate").unwrap();
        assert_eq!(dups.len(), 2);
        assert_eq!(out.attr(dups[0], "xpath"), Some("/moviedoc[1]/movie[1]"));
    }

    #[test]
    fn unknown_type_propagates() {
        let (doc, schema, mapping) = movie_setup();
        let dx = Dogmatix::builder().mapping(mapping).build();
        assert!(matches!(
            dx.run(&doc, &schema, "NOPE"),
            Err(DogmatixError::UnknownType { .. })
        ));
    }

    #[test]
    fn empty_document_yields_empty_result() {
        let doc = Document::parse("<moviedoc/>").unwrap();
        let schema = {
            let (full, _, _) = movie_setup();
            Schema::infer(&full).unwrap()
        };
        let mut mapping = Mapping::new();
        mapping.add_type("MOVIE", ["/moviedoc/movie"]);
        let dx = Dogmatix::builder().mapping(mapping).build();
        let result = dx.run(&doc, &schema, "MOVIE").unwrap();
        assert_eq!(result.stats.candidates, 0);
        assert!(result.duplicate_pairs.is_empty());
        assert!(result.clusters.is_empty());
    }

    /// Round-trip of `--emit-queries` against the selection the run
    /// uses: every OD tuple path the executing pipeline extracts must
    /// appear both in the emitted selection σ and as a projection in
    /// the corresponding `Q_D`, and `Q_C` must select every candidate
    /// path of the type.
    #[test]
    fn formulated_queries_round_trip_the_run_selection() {
        let (doc, schema, mapping) = movie_setup();
        let dx = Dogmatix::builder().mapping(mapping).build();
        let queries = dx.formulated_queries(&schema, "MOVIE").unwrap();
        assert!(queries.candidate_query.contains("$doc/moviedoc/movie"));
        assert_eq!(queries.description_queries.len(), 1);
        let (cand_path, selection, qd) = &queries.description_queries[0];
        assert_eq!(cand_path, "/moviedoc/movie");

        let result = dx.run(&doc, &schema, "MOVIE").unwrap();
        assert!(result.stats.candidates > 0);
        let mut saw_paths = false;
        for i in 0..result.stats.candidates {
            for tuple in result.ods.od(i).tuples() {
                saw_paths = true;
                let path = tuple.path();
                assert!(
                    selection.contains(path),
                    "run extracted {path}, not in emitted selection {selection:?}"
                );
                let rel = path
                    .strip_prefix("/moviedoc/movie/")
                    .map(|r| format!("$c/{r}"))
                    .unwrap_or_else(|| "$c".to_string());
                assert!(qd.contains(&rel), "Q_D misses projection {rel}:\n{qd}");
            }
        }
        assert!(saw_paths, "the run must extract some description tuples");

        // And the emitted selection contains nothing the selector would
        // not have chosen for this schema (exact equality, not subset).
        let expected = selections_for_paths(
            &schema,
            std::slice::from_ref(cand_path),
            dx.selector_stage().as_ref(),
        )
        .unwrap();
        assert_eq!(selection, &expected["/moviedoc/movie"]);
    }

    #[test]
    fn formulated_queries_reject_unknown_types_and_paths() {
        let (_, schema, mapping) = movie_setup();
        let dx = Dogmatix::builder().mapping(mapping).build();
        assert!(matches!(
            dx.formulated_queries(&schema, "NOPE"),
            Err(DogmatixError::UnknownType { .. })
        ));
        let mut mapping = Mapping::new();
        mapping.add_type("MOVIE", ["/not/in/schema"]);
        let dx = Dogmatix::builder().mapping(mapping).build();
        assert!(matches!(
            dx.formulated_queries(&schema, "MOVIE"),
            Err(DogmatixError::PathNotInSchema { .. })
        ));
    }
}
