//! The detector each workload runs, assembled from explicit stage
//! objects, and the same detection decomposed into one traced call per
//! layer. Both paths use the same stages, so their results must be equal.

use crate::trace::Tracer;
use dogmatix_core::classify::{Class, ThresholdClassifier};
use dogmatix_core::cluster::TransitiveClosure;
use dogmatix_core::filter::{MinHashLshBlocking, ObjectFilter};
use dogmatix_core::heuristics::HeuristicExpr;
use dogmatix_core::od::OdSet;
use dogmatix_core::probe::ProbeBlocking;
use dogmatix_core::sim::{DistCache, EditKernelChoice, SoftIdfMeasure};
use dogmatix_core::stage::{
    Clusterer, ComparisonFilter, FilterDecision, PreparedMeasure, SimContext, SimilarityMeasure,
};
use dogmatix_core::{
    DetectionResult, DetectionSession, Dogmatix, DogmatixError, IncrementalSession, Mapping,
};
use dogmatix_xml::{Document, NodeId, Schema};
use std::sync::Arc;

/// Where a workload's schema comes from.
#[derive(Debug, Clone, Copy)]
pub enum SchemaSource {
    Xsd(&'static str),
    Inferred,
}

/// The comparison-reduction stage of a workload.
#[derive(Debug, Clone, Copy)]
pub enum Filter {
    Object(ObjectFilter),
    Lsh(MinHashLshBlocking),
}

impl Filter {
    fn reduce(&self, ods: &OdSet) -> FilterDecision {
        match self {
            Filter::Object(f) => f.reduce(ods),
            Filter::Lsh(f) => f.reduce(ods),
        }
    }
}

/// A workload's detector configuration.
#[derive(Debug, Clone)]
pub struct Stages {
    pub mapping: Mapping,
    pub rw_type: &'static str,
    pub schema: SchemaSource,
    pub heuristic: HeuristicExpr,
    pub filter: Filter,
    pub theta_tuple: f64,
    pub theta_cand: f64,
    /// Blocking index of the probe snapshots the serving layers publish.
    pub blocking: ProbeBlocking,
}

/// Duplicate pairs `(i, j, sim)` with `i < j`.
pub type Pairs = Vec<(usize, usize, f64)>;

impl Stages {
    /// The detector `Dogmatix::detect` runs, with the given comparison
    /// threads.
    pub fn detector(&self, threads: usize) -> Dogmatix {
        let builder = Dogmatix::builder()
            .mapping(self.mapping.clone())
            .heuristic(self.heuristic.clone())
            .theta_tuple(self.theta_tuple)
            .theta_cand(self.theta_cand)
            .measure(SoftIdfMeasure::new(self.theta_tuple))
            .classifier(ThresholdClassifier::new(self.theta_cand))
            .clusterer(TransitiveClosure)
            .threads(threads);
        match self.filter {
            Filter::Object(f) => builder.filter(f),
            Filter::Lsh(f) => builder.filter(f),
        }
        .build()
    }

    pub fn schema(&self, doc: &Document) -> Result<Schema, DogmatixError> {
        Ok(match self.schema {
            SchemaSource::Xsd(xsd) => Schema::parse_xsd(xsd)?,
            SchemaSource::Inferred => Schema::infer(doc)?,
        })
    }

    /// One cold detection run: XML text in, duplicate pairs and clusters
    /// out.
    pub fn cold_run(&self, dx: &Dogmatix, xml: &str) -> Result<DetectionResult, DogmatixError> {
        let doc = Document::parse(xml)?;
        let schema = self.schema(&doc)?;
        dx.run(&doc, &schema, self.rw_type)
    }

    /// Opens the incremental session the serving layers maintain.
    pub fn incremental(
        &self,
        dx: &Dogmatix,
        doc: Document,
    ) -> Result<IncrementalSession, DogmatixError> {
        match self.schema {
            SchemaSource::Xsd(_) => {
                let schema = self.schema(&doc)?;
                dx.incremental_session(doc, schema, self.rw_type)
            }
            SchemaSource::Inferred => dx.incremental_session_inferred(doc, self.rw_type),
        }
    }
}

/// The pairs Step 5 compares, in the order `Dogmatix::detect` visits
/// them.
pub enum Plan {
    /// Every pair of these unpruned candidates.
    AllOf(Vec<usize>),
    /// An explicit blocking plan, pruned candidates removed.
    Pairs(Vec<(usize, usize)>),
}

impl Plan {
    fn new(decision: FilterDecision) -> Plan {
        let FilterDecision { pruned, pairs, .. } = decision;
        match pairs {
            None => Plan::AllOf((0..pruned.len()).filter(|&i| !pruned[i]).collect()),
            Some(pairs) => Plan::Pairs(
                pairs
                    .into_iter()
                    .filter(|&(i, j)| !pruned[i] && !pruned[j])
                    .collect(),
            ),
        }
    }

    pub fn len(&self) -> usize {
        match self {
            Plan::AllOf(active) => active.len() * active.len().saturating_sub(1) / 2,
            Plan::Pairs(pairs) => pairs.len(),
        }
    }

    /// Scores every planned pair and keeps the duplicates.
    pub fn score(
        &self,
        measure: &dyn PreparedMeasure,
        classifier: &ThresholdClassifier,
        cache: &mut DistCache,
    ) -> Pairs {
        let mut found = Vec::new();
        let mut visit = |i: usize, j: usize| {
            let sim = measure.sim(i, j, cache);
            if classifier.classify(sim) == Class::Duplicate {
                found.push((i, j, sim));
            }
        };
        match self {
            Plan::AllOf(active) => {
                for (a, &i) in active.iter().enumerate() {
                    for &j in &active[a + 1..] {
                        visit(i, j);
                    }
                }
            }
            Plan::Pairs(pairs) => {
                for &(i, j) in pairs {
                    visit(i, j);
                }
            }
        }
        found
    }
}

/// What a decomposed run produced, kept for the checks and the
/// per-layer counters.
pub struct Decomposed {
    pub doc: Document,
    pub candidates: Vec<NodeId>,
    pub ods: Arc<OdSet>,
    pub plan: Plan,
    pub pruned: usize,
    pub pairs: Pairs,
    pub clusters: Vec<Vec<usize>>,
    pub memo_entries: usize,
}

impl Stages {
    /// The cold run, one traced call per layer, through the public
    /// stage API in `Dogmatix::detect`'s order.
    pub fn decomposed_run(&self, t: &mut Tracer, xml: &str) -> Result<Decomposed, DogmatixError> {
        t.span("run", |t| {
            let doc = t.span("xml.parse", |_| Document::parse(xml))?;
            let schema = t.span("xml.schema", |_| self.schema(&doc))?;
            let (candidates, ods, plan, pruned) = {
                let session = t.span("candidate.resolve", |_| {
                    DetectionSession::new(&doc, &schema, &self.mapping, self.rw_type)
                })?;
                let selections = t.span("heuristics.select", |_| {
                    session.selections_for(&self.heuristic)
                })?;
                let ods = t.span("od.build", |_| session.object_descriptions(&selections));
                let (plan, pruned) = t.span("filter.reduce", |_| {
                    let decision = self.filter.reduce(&ods);
                    let pruned = decision.pruned.iter().filter(|&&p| p).count();
                    (Plan::new(decision), pruned)
                });
                (session.candidates().nodes.clone(), ods, plan, pruned)
            };
            let measure = SoftIdfMeasure::new(self.theta_tuple);
            let classifier = ThresholdClassifier::new(self.theta_cand);
            let (mut pairs, memo_entries) = {
                let prepared = t.span("sim.prepare", |_| {
                    measure.prepare(SimContext {
                        doc: &doc,
                        candidates: &candidates,
                        ods: &ods,
                    })
                });
                t.span("sim.score", |_| {
                    let mut cache = DistCache::new();
                    let pairs = plan.score(prepared.as_ref(), &classifier, &mut cache);
                    (pairs, cache.len())
                })
            };
            let clusters = t.span("cluster", |_| {
                pairs.sort_by_key(|p| (p.0, p.1));
                let edges: Vec<(usize, usize)> = pairs.iter().map(|p| (p.0, p.1)).collect();
                TransitiveClosure.cluster(candidates.len(), &edges)
            });
            Ok(Decomposed {
                doc,
                candidates,
                ods,
                plan,
                pruned,
                pairs,
                clusters,
                memo_entries,
            })
        })
    }

    /// Re-scores a decomposed run's plan through the given edit-distance
    /// kernel; the pairs must not change, since kernels are exact.
    pub fn rescore(&self, run: &Decomposed, kernel: EditKernelChoice) -> Pairs {
        let measure = SoftIdfMeasure::with_kernel(self.theta_tuple, kernel);
        let prepared = measure.prepare(SimContext {
            doc: &run.doc,
            candidates: &run.candidates,
            ods: &run.ods,
        });
        let classifier = ThresholdClassifier::new(self.theta_cand);
        run.plan
            .score(prepared.as_ref(), &classifier, &mut DistCache::new())
    }
}

/// FNV-1a over the duplicate pairs, similarity bits included: equal
/// digests mean equal results.
pub fn digest(pairs: &[(usize, usize, f64)]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &(i, j, sim) in pairs {
        for word in [i as u64, j as u64, sim.to_bits()] {
            for byte in word.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}
