//! The benchmark's named workloads. Why each one exists is recorded in
//! `BENCHMARK.json` and the README.

use crate::inputs::Corpus;
use crate::pipeline::{Filter, SchemaSource, Stages};
use dogmatix_core::filter::{MinHashLshBlocking, ObjectFilter};
use dogmatix_core::heuristics::{table4_heuristic, HeuristicExpr};
use dogmatix_core::probe::ProbeBlocking;
use dogmatix_core::{DogmatixConfig, Mapping};
use dogmatix_eval::setup;

/// Which stream of a serving workload its latency metrics time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Measured {
    Probes,
    Ingests,
}

/// Open-loop traffic against a `dogmatixd` child: probes at a fixed
/// rate on one connection, ingests (when `ingest_rate > 0`) on a second.
#[derive(Debug, Clone, Copy)]
pub struct Load {
    pub probe_rate: f64,
    pub ingest_rate: f64,
    pub measured: Measured,
}

#[derive(Debug, Clone, Copy)]
pub enum Traffic {
    /// Closed loop of cold detection runs in a worker process.
    Batch,
    Serve(Load),
}

/// Which detector a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Detector {
    /// The paper's CD pipeline: XSD schema, `kc:6`, object filter.
    CdPaper,
    /// Movie integration: inferred schema, `r:2`, MinHash-LSH blocking.
    MovieLsh,
    /// What `dogmatixd` builds from its mapping file: the default
    /// detector over an inferred schema.
    Served,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub corpus: Corpus,
    pub detector: Detector,
    pub traffic: Traffic,
}

/// Corpus served by `dogmatixd` in the probe workloads: 500 CDs.
const SERVED: Corpus = Corpus::Cd { originals: 250 };

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "batch-cd-paper",
        corpus: Corpus::Cd { originals: 300 },
        detector: Detector::CdPaper,
        traffic: Traffic::Batch,
    },
    Workload {
        name: "batch-movie-lsh",
        corpus: Corpus::Movie { per_source: 200 },
        detector: Detector::MovieLsh,
        traffic: Traffic::Batch,
    },
    Workload {
        name: "serve-probe",
        corpus: SERVED,
        detector: Detector::Served,
        traffic: Traffic::Serve(Load {
            probe_rate: 200.0,
            ingest_rate: 0.0,
            measured: Measured::Probes,
        }),
    },
    Workload {
        name: "serve-mixed",
        corpus: SERVED,
        detector: Detector::Served,
        traffic: Traffic::Serve(Load {
            probe_rate: 200.0,
            ingest_rate: 4.0,
            measured: Measured::Probes,
        }),
    },
    // A smaller corpus keeps the writer about a fifth busy at 10
    // ingests/s, so queueing does not amplify host speed swings, and
    // gives 150 ingests per 15-second run for the 90th percentile.
    Workload {
        name: "serve-ingest",
        corpus: Corpus::Cd { originals: 150 },
        detector: Detector::Served,
        traffic: Traffic::Serve(Load {
            probe_rate: 50.0,
            ingest_rate: 10.0,
            measured: Measured::Ingests,
        }),
    },
];

impl Workload {
    pub fn find(name: &str) -> Option<Workload> {
        WORKLOADS.iter().find(|w| w.name == name).copied()
    }

    /// The corpus at full size, or a toy size for `--smoke`.
    pub fn corpus(&self, smoke: bool) -> Corpus {
        match (smoke, self.corpus) {
            (false, c) => c,
            (true, Corpus::Cd { .. }) => Corpus::Cd { originals: 30 },
            (true, Corpus::Movie { .. }) => Corpus::Movie { per_source: 20 },
        }
    }

    /// The detector configuration.
    pub fn stages(&self) -> Stages {
        match self.detector {
            Detector::CdPaper => Stages {
                mapping: setup::cd_mapping(),
                rw_type: setup::CD_TYPE,
                schema: SchemaSource::Xsd(dogmatix_datagen::cd::CD_XSD),
                heuristic: table4_heuristic(HeuristicExpr::k_closest_descendants(6), 1),
                filter: Filter::Object(ObjectFilter::new(setup::THETA_TUPLE, setup::THETA_CAND)),
                theta_tuple: setup::THETA_TUPLE,
                theta_cand: setup::THETA_CAND,
                blocking: ProbeBlocking::default(),
            },
            Detector::MovieLsh => Stages {
                mapping: setup::movie_mapping(),
                rw_type: setup::MOVIE_TYPE,
                schema: SchemaSource::Inferred,
                heuristic: table4_heuristic(HeuristicExpr::r_distant_descendants(2), 1),
                filter: Filter::Lsh(MinHashLshBlocking::new(48, 2)),
                theta_tuple: setup::THETA_TUPLE,
                theta_cand: setup::THETA_CAND,
                blocking: ProbeBlocking::Lsh(MinHashLshBlocking::new(48, 2)),
            },
            Detector::Served => {
                let defaults = DogmatixConfig::default();
                Stages {
                    mapping: Mapping::parse(SERVED_MAPPING).expect("the served mapping parses"),
                    rw_type: SERVED_TYPE,
                    schema: SchemaSource::Inferred,
                    heuristic: defaults.heuristic,
                    filter: Filter::Object(ObjectFilter::new(
                        defaults.theta_tuple,
                        defaults.theta_cand,
                    )),
                    theta_tuple: defaults.theta_tuple,
                    theta_cand: defaults.theta_cand,
                    blocking: ProbeBlocking::default(),
                }
            }
        }
    }
}

/// The mapping file handed to `dogmatixd`.
pub const SERVED_MAPPING: &str = "DISC: /discs/disc\n";
/// The real-world type `dogmatixd` serves.
pub const SERVED_TYPE: &str = "DISC";
