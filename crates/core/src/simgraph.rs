//! The similar-term graph: every pair of same-type terms whose
//! `odtDist` is below `θ_tuple` (Equation 4), built once per [`OdSet`]
//! and shared by Step 4 and Step 5.
//!
//! Two objects have a non-empty similar set `ODT_≈` exactly when they
//! hold an identical term (distance 0) or the two ends of a graph edge
//! in some real-world type. By Equation 8 every other pair scores
//! `sim = 0`. The graph therefore serves both steps:
//!
//! * **Step 4** — the object filter's term families (§5.2) are a term's
//!   postings united with its neighbours' postings
//!   ([`crate::filter::object_filter`]);
//! * **Step 5** — the *support lists* derived from the graph name, per
//!   object, every object it can score above 0 against. A
//!   [`SoftIdfMeasure`](crate::sim::SoftIdfMeasure) prepared over a set
//!   that already holds the graph for its `θ_tuple` answers 0.0 for the
//!   pairs outside the support without entering the scoring loop — the
//!   all-pairs bound-and-prune pattern (Bayardo et al., WWW 2007) with an
//!   exact bound.
//!
//! The join is the length-sorted window per type: a pair dies on the
//! length bound (which also ends the window), then on the bag bound, and
//! only the survivors reach the bounded [`EditDistanceKernel`], with one
//! prepared pattern per left term. Every test uses
//! [`strict_cap`]'s predicate, so the graph holds exactly the pairs the
//! scoring loop calls similar.
//!
//! The graph is derived data: [`OdSet::similar_terms`] caches it lazily
//! for one `θ_tuple`, and it takes no part in equality, snapshots or the
//! store audit. Only the object filter builds it; filters that never ask
//! (LSH, q-gram, top-k, sorted neighbourhood, none) pay nothing.
//!
//! Term similarity depends only on the two strings and `θ_tuple`, so an
//! incremental run does not join again: it carries the previous run's
//! graph to the new set, renaming the surviving terms' edges, dropping
//! the vanished terms' edges and joining only the new terms against
//! their type's window under the same predicate. The support lists are
//! filled afresh. The result equals a fresh build; `tests/similar_graph.rs`
//! checks that after every delta of random streams.
//!
//! ```
//! use dogmatix_core::od::{OdSet, RawTuple};
//! let tuple = |v: &str| RawTuple {
//!     value: v.into(),
//!     path: "/r/m/t".into(),
//!     rw_type: "/r/m/t".into(),
//!     norm: v.into(),
//! };
//! let (a, b, c) = ([tuple("midnight")], [tuple("midnigth")], [tuple("zebra")]);
//! let doc = dogmatix_xml::Document::parse("<r/>")?;
//! let node = doc.root_element().unwrap();
//! let ods = OdSet::build_from_raw([(node, &a[..]), (node, &b[..]), (node, &c[..])]);
//! let graph = ods.similar_terms(0.3);
//! let midnight = ods.tuple_terms(0)[0];
//! assert_eq!(graph.neighbours(midnight), &[ods.tuple_terms(1)[0]]);
//! assert!(graph.supports(0, 1));
//! assert!(!graph.supports(0, 2), "no similar tuple: sim(0, 2) = 0");
//! # Ok::<(), dogmatix_xml::XmlError>(())
//! ```

use crate::od::{OdSet, TermId};
use dogmatix_textsim::kernel::{BitParallelKernel, EditDistanceKernel, KernelScratch};
use dogmatix_textsim::{bag_distance_lower_bound_with, strict_cap};

/// The similar-term graph of one [`OdSet`] at one `θ_tuple`, plus the
/// per-object support lists derived from it. See the [module
/// docs](self).
#[derive(Debug)]
pub struct SimilarTerms {
    /// `θ_tuple` the graph was built for, as bits (the cache key).
    theta_bits: u64,
    /// CSR offsets into `neighbours` per term (`term_count + 1`).
    edge_starts: Vec<usize>,
    /// Neighbour term ids per term, ascending.
    neighbours: Vec<TermId>,
    /// CSR offsets into `support` per object (`|Ω| + 1`).
    support_starts: Vec<usize>,
    /// Per object `i`: the objects `j > i` sharing an identical term or
    /// a graph edge with it, ascending.
    support: Vec<u32>,
    /// Window pairs that reached the bag bound or the kernel.
    pairs_examined: usize,
}

impl SimilarTerms {
    /// Builds the graph and the support lists of `ods` at `theta_tuple`
    /// ([`OdSet::similar_terms`] caches the result).
    pub(crate) fn build(ods: &OdSet, theta_tuple: f64) -> SimilarTerms {
        let (edge_starts, neighbours, pairs_examined) = join(ods, theta_tuple);
        SimilarTerms::from_edges(ods, theta_tuple, edge_starts, neighbours, pairs_examined)
    }

    /// Carries this graph, built over an earlier set, to `ods`, where
    /// `old_of_new[t]` is the earlier id of term `t` (same type and
    /// norm) or `None` for a term the earlier set did not hold.
    ///
    /// Term similarity depends only on the two strings and `θ_tuple`, so
    /// an edge between two surviving terms stays an edge: its ends are
    /// renamed, and the edges of vanished terms dropped. Only the new
    /// terms are joined, against their type's length window under
    /// exactly [`join`]'s predicate; the support lists are then filled
    /// afresh. The result equals [`SimilarTerms::build`] on `ods`, except
    /// that [`SimilarTerms::pairs_examined`] counts the new terms'
    /// window pairs only.
    pub(crate) fn carry(&self, ods: &OdSet, old_of_new: &[Option<TermId>]) -> SimilarTerms {
        let theta_tuple = f64::from_bits(self.theta_bits);
        let store = ods.store();
        let terms = store.term_count();
        let mut new_of_old = vec![None; self.edge_starts.len() - 1];
        for (t, old) in old_of_new.iter().enumerate() {
            if let Some(old) = old {
                new_of_old[old.index()] = Some(TermId::from_index(t));
            }
        }
        let is_new = |t: usize| old_of_new[t].is_none();

        // Each edge with a new end is found once: from its new end in
        // window order, scanning later terms, or scanning earlier terms
        // that are not new (an earlier new term's own scan finds it).
        let order = window_order(ods);
        let mut test = EdgeTest::new(ods, theta_tuple);
        let mut fresh: Vec<(TermId, TermId)> = Vec::new();
        let mut found = |a: usize, b: usize| {
            let (ta, tb) = (TermId::from_index(a), TermId::from_index(b));
            fresh.push((ta, tb));
            fresh.push((tb, ta));
        };
        for range in type_ranges(ods, &order) {
            for pos in range.clone() {
                let x = order[pos];
                if !is_new(x) {
                    continue;
                }
                for &b in &order[pos + 1..range.end] {
                    match test.edge(x, b) {
                        None => break,
                        Some(true) => found(x, b),
                        Some(false) => {}
                    }
                }
                for &a in order[range.start..pos].iter().rev() {
                    if is_new(a) {
                        continue;
                    }
                    match test.edge(a, x) {
                        None => break,
                        Some(true) => found(a, x),
                        Some(false) => {}
                    }
                }
            }
        }
        fresh.sort_unstable();

        // Surviving edges renamed, fresh ones added; first-occurrence ids
        // can reorder, so each list is sorted again.
        let mut edge_starts = Vec::with_capacity(terms + 1);
        edge_starts.push(0);
        let mut neighbours = Vec::with_capacity(self.neighbours.len() + fresh.len());
        let mut f = 0usize;
        for (t, old) in old_of_new.iter().enumerate() {
            let start = neighbours.len();
            if let Some(old) = old {
                neighbours.extend(
                    self.neighbours(*old)
                        .iter()
                        .filter_map(|u| new_of_old[u.index()]),
                );
            }
            while f < fresh.len() && fresh[f].0.index() == t {
                neighbours.push(fresh[f].1);
                f += 1;
            }
            neighbours[start..].sort_unstable();
            edge_starts.push(neighbours.len());
        }
        SimilarTerms::from_edges(ods, theta_tuple, edge_starts, neighbours, test.examined)
    }

    /// Assembles the graph from its CSR neighbour lists and fills the
    /// support lists.
    fn from_edges(
        ods: &OdSet,
        theta_tuple: f64,
        edge_starts: Vec<usize>,
        neighbours: Vec<TermId>,
        pairs_examined: usize,
    ) -> SimilarTerms {
        let mut graph = SimilarTerms {
            theta_bits: theta_tuple.to_bits(),
            edge_starts,
            neighbours,
            support_starts: vec![0],
            support: Vec::new(),
            pairs_examined,
        };
        // Identical terms are similar only under a positive threshold;
        // below it no pair has a similar tuple and the support is empty.
        if theta_tuple > 0.0 {
            graph.fill_support(ods);
        } else {
            graph.support_starts.resize(ods.len() + 1, 0);
        }
        graph
    }

    /// Whether the graph was built for exactly this `θ_tuple`.
    pub(crate) fn is_for(&self, theta_tuple: f64) -> bool {
        self.theta_bits == theta_tuple.to_bits()
    }

    /// The terms similar to `term` (same type, distinct, `odtDist < θ`),
    /// ascending.
    pub fn neighbours(&self, term: TermId) -> &[TermId] {
        let t = term.index();
        &self.neighbours[self.edge_starts[t]..self.edge_starts[t + 1]]
    }

    /// Objects `j > i` that share an identical term or a graph edge with
    /// object `i`, ascending — the pairs `(i, j)` with a non-empty
    /// similar set.
    pub fn support(&self, i: usize) -> &[u32] {
        &self.support[self.support_starts[i]..self.support_starts[i + 1]]
    }

    /// Whether the pair `(i, j)` (either order) has a similar tuple pair.
    /// `false` proves `sim(i, j) = 0`.
    #[inline]
    pub fn supports(&self, i: usize, j: usize) -> bool {
        let (lo, hi) = if i < j { (i, j) } else { (j, i) };
        self.support(lo).binary_search(&(hi as u32)).is_ok()
    }

    /// Number of window pairs the join tested past the length bound
    /// (diagnostics for the filter ablations).
    pub(crate) fn pairs_examined(&self) -> usize {
        self.pairs_examined
    }

    /// Number of undirected graph edges.
    pub fn edge_count(&self) -> usize {
        self.neighbours.len() / 2
    }

    /// Heap bytes held by the graph and the support lists.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.edge_starts.capacity() + self.support_starts.capacity()) * size_of::<usize>()
            + self.neighbours.capacity() * size_of::<TermId>()
            + self.support.capacity() * size_of::<u32>()
    }

    /// `|postings(t) ∪ ⋃ postings(neighbours of t)|` for every term —
    /// the §5.2 family sizes, counted with one object stamp array.
    pub fn family_sizes(&self, ods: &OdSet) -> Vec<usize> {
        let store = ods.store();
        let mut stamp = vec![u32::MAX; ods.len()];
        (0..store.term_count())
            .map(|t| {
                let mut count = 0usize;
                let family = std::iter::once(TermId::from_index(t))
                    .chain(self.neighbours(TermId::from_index(t)).iter().copied());
                for u in family {
                    for &o in store.postings(u.index()) {
                        if stamp[o as usize] != t as u32 {
                            stamp[o as usize] = t as u32;
                            count += 1;
                        }
                    }
                }
                count
            })
            .collect()
    }

    /// Fills the per-object support lists: for each object, the
    /// postings of its terms and of their neighbours, above its own
    /// index, deduplicated with a stamp array and sorted.
    fn fill_support(&mut self, ods: &OdSet) {
        let store = ods.store();
        let n = ods.len();
        let mut stamp = vec![u32::MAX; n];
        self.support_starts.reserve(n);
        for i in 0..n {
            let start = self.support.len();
            for &t in ods.tuple_terms(i) {
                let lo = self.edge_starts[t.index()];
                let hi = self.edge_starts[t.index() + 1];
                for u in std::iter::once(t).chain(self.neighbours[lo..hi].iter().copied()) {
                    for &o in store.postings(u.index()) {
                        if o as usize > i && stamp[o as usize] != i as u32 {
                            stamp[o as usize] = i as u32;
                            self.support.push(o);
                        }
                    }
                }
            }
            self.support[start..].sort_unstable();
            self.support_starts.push(self.support.len());
        }
        self.support.shrink_to_fit();
    }
}

/// Term ids ascending by `(type, length, id)`: per type, only a
/// bounded window of longer terms can be within the threshold of a
/// given term.
fn window_order(ods: &OdSet) -> Vec<usize> {
    let store = ods.store();
    let mut order: Vec<usize> = (0..store.term_count()).collect();
    order.sort_unstable_by_key(|&t| (store.type_id(t), store.char_len(t), t));
    order
}

/// The positions of each type's terms in `order`.
fn type_ranges<'a>(
    ods: &'a OdSet,
    order: &'a [usize],
) -> impl Iterator<Item = std::ops::Range<usize>> + 'a {
    let store = ods.store();
    let mut start = 0usize;
    std::iter::from_fn(move || {
        let &first = order.get(start)?;
        let ty = store.type_id(first);
        let end = start + order[start..].partition_point(|&t| store.type_id(t) == ty);
        let range = start..end;
        start = end;
        Some(range)
    })
}

/// The join's test of one window pair: the length bound, then the bag
/// bound, then the bounded kernel with `cap = strict_cap(θ, max len)`,
/// keeping the last prepared pattern.
struct EdgeTest<'a> {
    ods: &'a OdSet,
    theta_tuple: f64,
    kernel: BitParallelKernel,
    scratch: KernelScratch,
    /// The term whose pattern `scratch` holds.
    prepared: Option<usize>,
    /// Pairs that passed the length bound.
    examined: usize,
}

impl<'a> EdgeTest<'a> {
    fn new(ods: &'a OdSet, theta_tuple: f64) -> Self {
        EdgeTest {
            ods,
            theta_tuple,
            kernel: BitParallelKernel,
            scratch: KernelScratch::new(),
            prepared: None,
            examined: 0,
        }
    }

    /// Whether `a` and `b` (same type, `a` first in window order, so `b`
    /// is the longer side) are similar; `None` past the length bound.
    /// `(lb − la) / lb` grows as the window moves away from `a` in
    /// either direction, so the first `None` ends a window scan.
    fn edge(&mut self, a: usize, b: usize) -> Option<bool> {
        let store = self.ods.store();
        let (la, lb) = (store.char_len(a), store.char_len(b));
        let cap = strict_cap(self.theta_tuple, lb).filter(|&cap| lb - la <= cap)?;
        self.examined += 1;
        if bag_distance_lower_bound_with(store.norm(a), store.norm(b), &mut self.scratch.bounds)
            > cap
        {
            return Some(false);
        }
        if self.prepared != Some(a) {
            self.kernel.prepare(&mut self.scratch, store.norm(a), la);
            self.prepared = Some(a);
        }
        Some(
            self.kernel
                .bounded_prepared(&mut self.scratch, store.norm(b), lb, cap)
                .is_some(),
        )
    }
}

/// The length-windowed self-join of each type's terms. Returns the CSR
/// neighbour lists and the number of window pairs examined.
fn join(ods: &OdSet, theta_tuple: f64) -> (Vec<usize>, Vec<TermId>, usize) {
    let terms = ods.term_count();
    let order = window_order(ods);
    let mut test = EdgeTest::new(ods, theta_tuple);
    let mut edges: Vec<(TermId, TermId)> = Vec::new();
    for range in type_ranges(ods, &order) {
        for pos in range.clone() {
            let a = order[pos];
            for &b in &order[pos + 1..range.end] {
                match test.edge(a, b) {
                    None => break,
                    Some(true) => {
                        let (ta, tb) = (TermId::from_index(a), TermId::from_index(b));
                        edges.push((ta, tb));
                        edges.push((tb, ta));
                    }
                    Some(false) => {}
                }
            }
        }
    }

    edges.sort_unstable();
    let mut edge_starts = Vec::with_capacity(terms + 1);
    edge_starts.push(0);
    let mut e = 0usize;
    for t in 0..terms {
        while e < edges.len() && edges[e].0.index() == t {
            e += 1;
        }
        edge_starts.push(e);
    }
    let neighbours = edges.into_iter().map(|(_, b)| b).collect();
    (edge_starts, neighbours, test.examined)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::Mapping;
    use crate::sim::{DistCache, SimEngine};
    use dogmatix_xml::Document;
    use std::collections::{BTreeSet, HashMap};

    fn build(xml: &str, selected: &[&str]) -> OdSet {
        let doc = Document::parse(xml).unwrap();
        let candidates = doc.select("/r/m").unwrap();
        let mut sel = HashMap::new();
        sel.insert(
            "/r/m".to_string(),
            selected
                .iter()
                .map(|s| s.to_string())
                .collect::<BTreeSet<_>>(),
        );
        OdSet::build(&doc, &candidates, &sel, &Mapping::new())
    }

    const CORPUS: &str = "<r>\
           <m><t>Midnight Journey</t><a>Alice</a><y>1999</y></m>\
           <m><t>Midnigth Journey</t><a>Alicia</a><y>1998</y></m>\
           <m><t>Something Else</t><a>Bob</a><y>2001</y></m>\
           <m><t>Fourth Record</t><a>Alice</a><y>2002</y></m>\
           <m><t>Zz</t><a>Q</a></m>\
         </r>";

    #[test]
    fn graph_edges_are_exactly_the_similar_term_pairs() {
        let ods = build(CORPUS, &["/r/m/t", "/r/m/a", "/r/m/y"]);
        let store = ods.store();
        for theta in [0.0, 0.05, 0.15, 0.3, 0.55, 0.9] {
            let graph = SimilarTerms::build(&ods, theta);
            for a in 0..store.term_count() {
                for b in 0..store.term_count() {
                    let want = a != b
                        && store.type_id(a) == store.type_id(b)
                        && dogmatix_textsim::ned(store.norm(a), store.norm(b)) < theta;
                    let got = graph
                        .neighbours(TermId::from_index(a))
                        .contains(&TermId::from_index(b));
                    assert_eq!(got, want, "θ={theta} ({a},{b})");
                }
            }
            assert!(graph.neighbours(TermId::from_index(0)).is_sorted());
        }
    }

    #[test]
    fn support_is_exactly_the_pairs_with_a_similar_tuple() {
        let ods = build(CORPUS, &["/r/m/t", "/r/m/a", "/r/m/y"]);
        for theta in [0.0, 0.15, 0.3, 0.55] {
            let graph = SimilarTerms::build(&ods, theta);
            let engine = SimEngine::new(&ods, theta);
            let mut cache = DistCache::new();
            for i in 0..ods.len() {
                for j in 0..ods.len() {
                    if i == j {
                        continue;
                    }
                    let similar = !engine.breakdown(i, j, &mut cache).similar.is_empty();
                    assert_eq!(graph.supports(i, j), similar, "θ={theta} ({i},{j})");
                }
                assert!(graph.support(i).iter().all(|&j| j as usize > i));
            }
        }
    }

    #[test]
    fn empty_set_builds_an_empty_graph() {
        let graph = SimilarTerms::build(&OdSet::default(), 0.15);
        assert_eq!(graph.edge_count(), 0);
        assert!(graph.family_sizes(&OdSet::default()).is_empty());
        assert!(graph.is_for(0.15) && !graph.is_for(0.55));
    }
}
