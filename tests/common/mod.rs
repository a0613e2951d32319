//! Helpers shared by the integration suites (`properties.rs`,
//! `incremental.rs`, `parallel.rs`, `similar_graph.rs`): the
//! `PROPTEST_CASES` override, the miniature record corpus the
//! differential properties run on, and its dirty-duplicate variant.
//!
//! Each test binary compiles its own copy, so not every binary uses
//! every item.
#![allow(dead_code)]

use dogmatix_repro::xml::Document;
use proptest::prelude::*;

/// Property-case count: `PROPTEST_CASES` env override, else `default`
/// (ci.sh sets 128 for the differential suites; local runs default
/// lower).
pub fn cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// A miniature record: (title, year, names).
#[derive(Debug, Clone)]
pub struct MiniRecord {
    pub title: String,
    pub year: u16,
    pub names: Vec<String>,
}

/// Strategy for one random [`MiniRecord`].
pub fn record_strategy() -> impl Strategy<Value = MiniRecord> {
    (
        proptest::string::string_regex("[a-z]{2,10}( [a-z]{2,8})?").unwrap(),
        1960u16..2005,
        proptest::collection::vec(
            proptest::string::string_regex("[A-Z][a-z]{2,7}").unwrap(),
            0..3,
        ),
    )
        .prop_map(|(title, year, names)| MiniRecord { title, year, names })
}

/// Renders records as the `/db/item` corpus the suites detect over.
pub fn build_doc(records: &[MiniRecord]) -> Document {
    let mut doc = Document::with_root("db");
    let root = doc.root_element().unwrap();
    for r in records {
        let item = doc.add_element(root, "item");
        doc.add_text_element(item, "title", &r.title);
        doc.add_text_element(item, "year", &r.year.to_string());
        for n in &r.names {
            let person = doc.add_element(item, "person");
            doc.add_text_element(person, "name", n);
        }
    }
    doc
}

/// One typographical edit applied to a string at proptest-chosen
/// coordinates (the dirty-duplicate generator's error classes, made
/// deterministic for shrinking).
#[derive(Debug, Clone)]
pub enum Typo {
    Delete { pos: usize },
    Substitute { pos: usize, with: char },
    Insert { pos: usize, what: char },
}

impl Typo {
    pub fn apply(&self, s: &str) -> String {
        let mut chars: Vec<char> = s.chars().collect();
        if chars.is_empty() {
            return s.to_string();
        }
        match *self {
            Typo::Delete { pos } => {
                chars.remove(pos % chars.len());
            }
            Typo::Substitute { pos, with } => {
                let p = pos % chars.len();
                chars[p] = with;
            }
            Typo::Insert { pos, what } => {
                let p = pos % (chars.len() + 1);
                chars.insert(p, what);
            }
        }
        chars.into_iter().collect()
    }
}

pub fn typo_strategy() -> impl Strategy<Value = Typo> {
    let letter = |offset: u8| (b'a' + offset % 26) as char;
    prop_oneof![
        (0usize..32).prop_map(|pos| Typo::Delete { pos }),
        (0usize..32, 0u8..26).prop_map(move |(pos, c)| Typo::Substitute {
            pos,
            with: letter(c)
        }),
        (0usize..32, 0u8..26).prop_map(move |(pos, c)| Typo::Insert {
            pos,
            what: letter(c)
        }),
    ]
}

/// A dirty corpus: originals plus duplicates derived by 1–2 typos on the
/// title — the shape the q-gram count filter must never lose.
pub fn dirty_corpus_strategy() -> impl Strategy<Value = Vec<MiniRecord>> {
    (
        proptest::collection::vec(record_strategy(), 2..8),
        proptest::collection::vec(
            (0usize..16, proptest::collection::vec(typo_strategy(), 1..3)),
            1..4,
        ),
    )
        .prop_map(|(mut records, dirt)| {
            for (slot, typos) in dirt {
                let mut dup = records[slot % records.len()].clone();
                for t in &typos {
                    dup.title = t.apply(&dup.title);
                }
                records.push(dup);
            }
            records
        })
}
