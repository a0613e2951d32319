#![warn(missing_docs)]

//! # dogmatix-core
//!
//! DogmatiX — domain-independent duplicate detection in XML, reproducing
//! Weis & Naumann, *DogmatiX Tracks down Duplicates in XML*, SIGMOD 2005.
//!
//! The crate is organised along the paper's structure:
//!
//! | Paper | Module |
//! |---|---|
//! | §2 framework: candidate definition | [`candidate`], [`mapping`] |
//! | §2 framework: duplicate definition | [`od`] (descriptions), [`classify`] |
//! | §2 framework: duplicate detection (6 steps) | [`pipeline`] |
//! | §4 description-selection heuristics + conditions | [`heuristics`] |
//! | §5 similarity measure (`odtDist`, `softIDF`, `sim`) | [`sim`] |
//! | §5.2 object filter `f` | [`filter`] |
//! | §5 / §5.2 similar-term graph shared by the filter and `sim` | [`simgraph`] |
//! | step 6 duplicate clustering | [`cluster`] |
//! | Fig. 3 dup-cluster output | [`output`] |
//! | §7 related-work measures for ablations | [`baseline`] |
//! | §2 framework: pluggable stage traits | [`stage`] |
//! | beyond the paper: streaming ingest | [`incremental`] |
//! | beyond the paper: write-ahead delta log + crash recovery | [`wal`] |
//! | beyond the paper: q-gram / MinHash-LSH blocking | [`filter`], [`neighborhood`] |
//! | step 5 pair-plan executor and its worker pool | `executor` (crate-private) |
//! | beyond the paper: columnar term store + persistent index backends | [`store`], [`backend`] |
//!
//! ## Quick start
//!
//! Detectors are assembled with [`Dogmatix::builder`]: pick a mapping, a
//! heuristic, thresholds — and optionally swap any pipeline stage
//! (filter, measure, classifier, clusterer) for another implementation.
//!
//! ```
//! use dogmatix_core::heuristics::HeuristicExpr;
//! use dogmatix_core::pipeline::Dogmatix;
//! use dogmatix_xml::{Document, Schema};
//!
//! let doc = Document::parse(
//!     "<moviedoc>\
//!        <movie><title>The Matrix</title><year>1999</year></movie>\
//!        <movie><title>Matrix</title><year>1999</year></movie>\
//!        <movie><title>Signs</title><year>2002</year></movie>\
//!      </moviedoc>")?;
//! let schema = Schema::infer(&doc)?;
//!
//! // θ_tuple = 0.45 admits "Matrix" ≈ "The Matrix" (ned 0.4); the paper's
//! // default 0.15 targets typo-level differences.
//! let dx = Dogmatix::builder()
//!     .add_type("MOVIE", ["/moviedoc/movie"])
//!     .heuristic(HeuristicExpr::r_distant_descendants(1))
//!     .theta_tuple(0.45)
//!     .build();
//! let result = dx.run(&doc, &schema, "MOVIE")?;
//! assert_eq!(result.clusters.len(), 1);          // {Matrix, The Matrix}
//! assert_eq!(result.duplicate_pairs.len(), 1);
//!
//! // Repeated runs (sweeps, benches) reuse a session: candidates and
//! // object descriptions are derived once and cached.
//! let session = dx.session(&doc, &schema, "MOVIE")?;
//! assert_eq!(dx.detect(&session)?, result);
//! assert_eq!(dx.detect(&session)?, result);
//! assert_eq!(session.cached_od_sets(), 1);
//! # Ok::<(), dogmatix_core::DogmatixError>(())
//! ```
//!
//! Swapping stages — e.g. an ablation with the unweighted measure and a
//! dual-threshold classifier with an expert-review band:
//!
//! ```
//! use dogmatix_core::baseline::UnweightedMeasure;
//! use dogmatix_core::classify::DualThreshold;
//! use dogmatix_core::pipeline::Dogmatix;
//!
//! let dx = Dogmatix::builder()
//!     .add_type("MOVIE", ["/moviedoc/movie"])
//!     .measure(UnweightedMeasure::new(0.15))
//!     .classifier(DualThreshold::new(0.55, 0.3)?)
//!     .no_filter()
//!     .build();
//! # let _ = dx;
//! # Ok::<(), dogmatix_core::DogmatixError>(())
//! ```

pub mod auto;
pub mod backend;
pub mod baseline;
pub mod candidate;
pub mod classify;
pub mod cluster;
pub mod error;
mod executor;
pub mod filter;
pub mod fusion;
pub mod heuristics;
pub mod incremental;
pub mod mapping;
pub mod neighborhood;
pub mod od;
pub mod output;
pub mod pipeline;
pub mod probe;
pub mod query;
pub mod sim;
pub mod simgraph;
pub mod stage;
pub mod store;
pub mod wal;

pub use error::DogmatixError;
pub use incremental::{DocumentDelta, IncrementalSession};
pub use mapping::Mapping;
pub use pipeline::{DetectionResult, DetectionSession, Dogmatix, DogmatixBuilder, DogmatixConfig};
pub use probe::{ProbeAnswer, ProbeBlocking, ProbeMatch, ProbeScratch, ProbeSnapshot, ProbeStats};
pub use wal::{FsyncPolicy, Recovery, RecoveryReport, Wal};
