//! Everything the program under test sees, generated from the seed: the
//! corpus, its gold entity ids, and the probe and ingest request streams.

use dogmatix_datagen::datasets::{dataset1_sized, dataset2_sized};
use dogmatix_xml::Document;
use std::path::Path;

/// SplitMix64: a small deterministic stream for picking records and
/// perturbing values.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0xD8BE_4C11_0000_0000)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi` (`hi > lo`).
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo) as u64) as usize
    }
}

/// Which generated corpus a workload runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corpus {
    /// CD Dataset 1: `originals` discs plus one dirty duplicate each.
    Cd { originals: usize },
    /// Movie Dataset 2: `per_source` movies in each of the two sources.
    Movie { per_source: usize },
}

impl Corpus {
    fn generate(self, seed: u64) -> (Document, Vec<u64>) {
        let (doc, gold) = match self {
            Corpus::Cd { originals } => dataset1_sized(seed, originals),
            Corpus::Movie { per_source } => dataset2_sized(seed, per_source),
        };
        let eids = (0..gold.len()).map(|i| gold.eid(i)).collect();
        (doc, eids)
    }

    /// Records the program holds after loading: `n` originals (or movies
    /// of the first source) followed by as many counterparts.
    fn half(self) -> usize {
        match self {
            Corpus::Cd { originals } => originals,
            Corpus::Movie { per_source } => per_source,
        }
    }

    /// Path of the records probes and inserts are drawn from, and the
    /// parent new records are inserted under.
    fn record_path(self) -> (&'static str, &'static str) {
        match self {
            Corpus::Cd { .. } => ("/discs/disc", "/discs"),
            Corpus::Movie { .. } => ("/integrated/imdb/movie", "/integrated/imdb"),
        }
    }

    /// Two text fields of a record that updates rewrite, in turn.
    fn update_fields(self) -> [&'static str; 2] {
        match self {
            Corpus::Cd { .. } => ["title", "artist"],
            Corpus::Movie { .. } => ["title", "year"],
        }
    }

    /// Records of the same shape that the program never loaded.
    fn unloaded(self, seed: u64) -> Document {
        match self {
            Corpus::Cd { .. } => dataset1_sized(seed.wrapping_add(1), 50).0,
            Corpus::Movie { .. } => dataset2_sized(seed.wrapping_add(1), 25).0,
        }
    }
}

/// One probe: the record sent and, for a loaded record, the index it
/// must be reported at.
#[derive(Debug, Clone)]
pub struct Probe {
    pub xml: String,
    pub expect: Option<usize>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaKind {
    Insert,
    Update,
    Remove,
}

/// One ingest: the delta line and the object count after it applies.
#[derive(Debug, Clone)]
pub struct Ingest {
    pub delta: String,
    pub kind: DeltaKind,
    pub objects_after: usize,
}

/// The ingest cycle: one insert and one remove of the inserted record
/// among eight field updates, so the object count stays stationary and
/// four of five deltas are updates. The median ingest is an update and
/// the 90th percentile an insert or remove, each well inside its mode.
const CYCLE: [DeltaKind; 10] = [
    DeltaKind::Insert,
    DeltaKind::Update,
    DeltaKind::Update,
    DeltaKind::Update,
    DeltaKind::Update,
    DeltaKind::Remove,
    DeltaKind::Update,
    DeltaKind::Update,
    DeltaKind::Update,
    DeltaKind::Update,
];

/// Generated inputs of one workload run.
pub struct Inputs {
    pub xml: String,
    /// Entity id per candidate, in candidate order.
    pub gold: Vec<u64>,
    /// Objects the program holds after loading.
    pub objects: usize,
    pub probes: Vec<Probe>,
    pub ingests: Vec<Ingest>,
}

/// Swaps two adjacent letters (or drops one) — a typo.
fn perturb(value: &str, rng: &mut Rng) -> String {
    let mut chars: Vec<char> = value.chars().collect();
    if chars.len() < 3 {
        return format!("{value}x");
    }
    let at = rng.range(1, chars.len() - 1);
    if chars[at].is_alphanumeric() && chars[at + 1].is_alphanumeric() && chars[at] != chars[at + 1]
    {
        chars.swap(at, at + 1);
    } else {
        chars.remove(at);
    }
    chars.into_iter().collect()
}

/// The text of `record`'s first `field` child.
fn field_text(doc: &Document, record: dogmatix_xml::NodeId, field: &str) -> String {
    doc.select_from(record, &format!("./{field}"))
        .ok()
        .and_then(|nodes| nodes.first().and_then(|&n| doc.direct_text(n)))
        .unwrap_or_default()
}

impl Inputs {
    /// Generates the corpus and `probes` probe and `ingests` ingest
    /// requests from `seed`.
    pub fn generate(corpus: Corpus, seed: u64, probes: usize, ingests: usize) -> Inputs {
        let (doc, gold) = corpus.generate(seed);
        let (record_path, parent) = corpus.record_path();
        let records = doc.select(record_path).expect("record path is valid XPath");
        let n = corpus.half();
        let objects = gold.len();
        let mut rng = Rng::new(seed);

        // Loaded probes come from the upper half of the first n records,
        // updates rewrite the lower half, so an expected match is never
        // edited away by the ingest stream.
        let unloaded_doc = corpus.unloaded(seed);
        let unloaded = unloaded_doc
            .select(record_path)
            .expect("record path is valid XPath");
        let probes = (0..probes)
            .map(|i| {
                if i % 2 == 0 {
                    let k = rng.range(n / 2, n);
                    Probe {
                        xml: doc.node_xml(records[k]),
                        expect: Some(k),
                    }
                } else {
                    let k = rng.range(0, unloaded.len());
                    Probe {
                        xml: unloaded_doc.node_xml(unloaded[k]),
                        expect: None,
                    }
                }
            })
            .collect();

        let fields = corpus.update_fields();
        let mut updates = 0;
        let mut count = objects;
        let ingests = (0..ingests)
            .map(|i| {
                let kind = CYCLE[i % CYCLE.len()];
                let delta = match kind {
                    DeltaKind::Insert => {
                        let source = records[rng.range(0, n)];
                        let mut copy = Document::parse(&doc.node_xml(source))
                            .expect("a serialized record parses");
                        let root = copy.root_element().expect("record has a root");
                        if let Some(&title) = copy
                            .select_from(root, "./title")
                            .expect("title is valid XPath")
                            .first()
                        {
                            let text = copy.direct_text(title).unwrap_or_default();
                            copy.set_text(title, &perturb(&text, &mut rng));
                        }
                        count += 1;
                        format!("insert {parent} {}", copy.to_xml())
                    }
                    // The inserted record is the last candidate.
                    DeltaKind::Remove => {
                        count -= 1;
                        format!("remove {count}")
                    }
                    DeltaKind::Update => {
                        let field = fields[updates % 2];
                        updates += 1;
                        let k = rng.range(0, (n / 2).max(1));
                        let value = perturb(&field_text(&doc, records[k], field), &mut rng);
                        format!("update {k} {field} 0 {value}")
                    }
                };
                Ingest {
                    delta,
                    kind,
                    objects_after: count,
                }
            })
            .collect();

        Inputs {
            xml: doc.to_xml(),
            gold,
            objects,
            probes,
            ingests,
        }
    }

    /// Writes the corpus, its gold entity ids and the served mapping to
    /// `dir`.
    pub fn write(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join("corpus.xml"), &self.xml)?;
        let gold: String = self.gold.iter().map(|e| format!("{e}\n")).collect();
        std::fs::write(dir.join("gold.txt"), gold)?;
        std::fs::write(dir.join("mapping.txt"), crate::workloads::SERVED_MAPPING)
    }
}

/// Reads what [`Inputs::write`] wrote: the corpus text and gold ids.
pub fn read(dir: &Path) -> std::io::Result<(String, Vec<u64>)> {
    let xml = std::fs::read_to_string(dir.join("corpus.xml"))?;
    let gold = std::fs::read_to_string(dir.join("gold.txt"))?
        .lines()
        .map(|l| {
            l.parse()
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
        })
        .collect::<Result<_, _>>()?;
    Ok((xml, gold))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = Inputs::generate(Corpus::Cd { originals: 20 }, 3, 6, 12);
        let b = Inputs::generate(Corpus::Cd { originals: 20 }, 3, 6, 12);
        assert_eq!(a.xml, b.xml);
        let lines = |i: &Inputs| {
            i.ingests
                .iter()
                .map(|g| g.delta.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(lines(&a), lines(&b));
        let c = Inputs::generate(Corpus::Cd { originals: 20 }, 4, 6, 12);
        assert_ne!(a.xml, c.xml);
    }

    #[test]
    fn ingest_cycle_keeps_the_object_count_stationary() {
        let inputs = Inputs::generate(Corpus::Movie { per_source: 12 }, 9, 0, 20);
        assert_eq!(inputs.objects, 24);
        let counts: Vec<usize> = inputs.ingests.iter().map(|g| g.objects_after).collect();
        assert_eq!(&counts[..6], &[25, 25, 25, 25, 25, 24]);
        assert_eq!(counts[19], 24);
        assert_eq!(inputs.ingests[5].delta, "remove 24");
        assert!(inputs.ingests[0]
            .delta
            .starts_with("insert /integrated/imdb <movie>"));
        let updates = inputs
            .ingests
            .iter()
            .filter(|g| g.kind == DeltaKind::Update)
            .count();
        assert_eq!(updates, 16);
    }
}
