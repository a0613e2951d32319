//! The dxlint rule set.
//!
//! Each rule walks the token stream produced by [`crate::lexer`] and
//! reports findings against non-test code only. Suppression is via a
//! justified allow directive on the finding line or the line above:
//!
//! ```text
//! // dxlint: allow(no-panic) — lock poisoning means a worker already panicked
//! ```
//!
//! An allow without a justification after the rule name does not
//! suppress anything — the justification is the point.

use std::collections::{HashMap, HashSet};

use crate::lexer::{Lexed, TokenKind};

/// The rules dxlint knows, in report order.
pub const RULE_NAMES: [&str; 5] = [
    "no-panic",
    "no-column-index",
    "no-hot-alloc",
    "stage-registered",
    "dead-variant",
];

/// Columnar fields of `TermStore` / `OdSet` that only the store layer
/// (store.rs, od.rs, store/audit.rs) may index into directly; everyone
/// else goes through the accessor methods that encode the invariants.
const COLUMN_FIELDS: [&str; 18] = [
    "arena",
    "term_norm",
    "term_type",
    "term_char_len",
    "term_idf",
    "posting_starts",
    "postings",
    "type_names",
    "path_names",
    "type_stats",
    "od_starts",
    "tuple_term",
    "tuple_value",
    "tuple_path",
    "od_group_starts",
    "group_types",
    "group_starts",
    "group_tuples",
];

/// The five pipeline stage traits whose public impls must be exercised
/// by tests/equivalence.rs.
const STAGE_TRAITS: [&str; 5] = [
    "DescriptionSelector",
    "ComparisonFilter",
    "SimilarityMeasure",
    "PairClassifier",
    "Clusterer",
];

/// One lint finding, anchored to a file and line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule name from [`RULE_NAMES`].
    pub rule: &'static str,
    /// Human-readable description of the violation.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// A source file handed to the rule set.
pub struct SourceFile {
    /// Workspace-relative path, `/`-separated (e.g. `crates/core/src/sim.rs`).
    pub rel_path: String,
    /// Lexed contents.
    pub lexed: Lexed,
}

/// Everything the rules need to lint a project in one pass.
pub struct Project {
    /// All library source files under lint.
    pub files: Vec<SourceFile>,
    /// Lexed tests/equivalence.rs, if present — enables stage-registered.
    pub equivalence: Option<Lexed>,
}

/// Lines with a justified `dxlint: allow(<rule>)` directive, per rule.
struct Allows {
    by_rule: HashMap<String, HashSet<u32>>,
}

impl Allows {
    fn collect(lexed: &Lexed) -> Allows {
        let mut by_rule: HashMap<String, HashSet<u32>> = HashMap::new();
        for comment in &lexed.comments {
            let mut rest = comment.text.as_str();
            while let Some(at) = rest.find("dxlint: allow(") {
                rest = &rest[at + "dxlint: allow(".len()..];
                let close = match rest.find(')') {
                    Some(c) => c,
                    None => break,
                };
                let rule = rest[..close].trim().to_string();
                let justification = rest[close + 1..]
                    .trim_start_matches([' ', '\t', '—', '-', ':', ','])
                    .trim();
                rest = &rest[close + 1..];
                if justification.is_empty() {
                    continue; // allow without a reason suppresses nothing
                }
                by_rule.entry(rule).or_default().insert(comment.line);
            }
        }
        Allows { by_rule }
    }

    /// A finding on `line` is suppressed by a directive on the same
    /// line (trailing comment) or the line above.
    fn covers(&self, rule: &str, line: u32) -> bool {
        self.by_rule
            .get(rule)
            .is_some_and(|lines| lines.contains(&line) || lines.contains(&line.saturating_sub(1)))
    }
}

/// Runs every rule over the project and returns the findings sorted by
/// file, line, then rule.
pub fn lint_project(project: &Project) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut impls: Vec<StageImpl> = Vec::new();

    for file in &project.files {
        let allows = Allows::collect(&file.lexed);
        no_panic(file, &allows, &mut findings);
        no_column_index(file, &allows, &mut findings);
        no_hot_alloc(file, &allows, &mut findings);
        collect_stage_impls(file, &mut impls);
    }

    if let Some(equivalence) = &project.equivalence {
        stage_registered(project, &impls, equivalence, &mut findings);
    }
    dead_variant(project, &mut findings);

    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    findings
}

fn is_test_path(rel_path: &str) -> bool {
    rel_path.starts_with("tests/")
        || rel_path.contains("/tests/")
        || rel_path.contains("/benches/")
        || rel_path.contains("/examples/")
}

/// no-panic: `.unwrap()`, `.expect(…)` and `panic!(…)` are banned in
/// non-test library code — fallible paths return `DogmatixError`.
fn no_panic(file: &SourceFile, allows: &Allows, out: &mut Vec<Finding>) {
    if is_test_path(&file.rel_path) {
        return;
    }
    let lexed = &file.lexed;
    for (i, token) in lexed.tokens.iter().enumerate() {
        if lexed.test_mask[i] {
            continue;
        }
        let (line, message) = match &token.kind {
            TokenKind::Ident(s) if (s == "unwrap" || s == "expect") && i > 0 => {
                if !lexed.is_punct(i - 1, '.') || !lexed.is_punct(i + 1, '(') {
                    continue; // a definition or a bare path, not a call on a value
                }
                // `.expect(…)?` is a *fallible* method of that name
                // (e.g. the XML parser's token matcher), not the
                // panicking Option/Result combinator — `?` cannot
                // follow the unwrapped value.
                if call_followed_by_question(lexed, i + 1) {
                    continue;
                }
                (
                    token.line,
                    format!(
                        "`.{s}()` in library code; return DogmatixError or justify with an allow"
                    ),
                )
            }
            TokenKind::Ident(s) if s == "panic" && lexed.is_punct(i + 1, '!') => (
                token.line,
                "`panic!` in library code; return DogmatixError or justify with an allow"
                    .to_string(),
            ),
            _ => continue,
        };
        if !allows.covers("no-panic", line) {
            out.push(Finding {
                file: file.rel_path.clone(),
                line,
                rule: "no-panic",
                message,
            });
        }
    }
}

/// Whether the call group opening at `open` (a `(` token) is followed
/// by a `?` once its matching `)` closes.
fn call_followed_by_question(lexed: &Lexed, open: usize) -> bool {
    let mut depth = 0usize;
    let mut j = open;
    while j < lexed.tokens.len() {
        if lexed.is_punct(j, '(') {
            depth += 1;
        } else if lexed.is_punct(j, ')') {
            depth -= 1;
            if depth == 0 {
                return lexed.is_punct(j + 1, '?');
            }
        }
        j += 1;
    }
    false
}

/// no-column-index: direct `[..]` indexing into TermStore/OdSet columns
/// outside the store layer bypasses the invariants the accessors encode.
fn no_column_index(file: &SourceFile, allows: &Allows, out: &mut Vec<Finding>) {
    let in_core = file.rel_path.starts_with("crates/core/src/");
    let store_layer = file.rel_path.ends_with("/store.rs")
        || file.rel_path.ends_with("/od.rs")
        || file.rel_path.ends_with("/store/audit.rs");
    if !in_core || store_layer {
        return;
    }
    let lexed = &file.lexed;
    for (i, token) in lexed.tokens.iter().enumerate() {
        if lexed.test_mask[i] {
            continue;
        }
        let TokenKind::Ident(name) = &token.kind else {
            continue;
        };
        if !COLUMN_FIELDS.contains(&name.as_str()) {
            continue;
        }
        // `.column[` — a field access followed by direct indexing.
        if i == 0 || !lexed.is_punct(i - 1, '.') || !lexed.is_punct(i + 1, '[') {
            continue;
        }
        if !allows.covers("no-column-index", token.line) {
            out.push(Finding {
                file: file.rel_path.clone(),
                line: token.line,
                rule: "no-column-index",
                message: format!(
                    "direct indexing into column `{name}` outside the store layer; use the accessor methods"
                ),
            });
        }
    }
}

/// no-hot-alloc: the pairwise hot paths (sim.rs, simgraph.rs, filter.rs,
/// and executor.rs, the Step 5 pair-plan executor), the probe lookup path
/// (probe.rs), and the textsim comparison kernels
/// (levenshtein, bounds, ned, myers, kernel) must not allocate Strings
/// per comparison — `format!`, `String::new` and friends,
/// `.to_string()`, `.to_owned()` are banned there.
fn no_hot_alloc(file: &SourceFile, allows: &Allows, out: &mut Vec<Finding>) {
    let hot = [
        "crates/core/src/sim.rs",
        "crates/core/src/simgraph.rs",
        "crates/core/src/filter.rs",
        "crates/core/src/executor.rs",
        "crates/core/src/probe.rs",
        "crates/textsim/src/levenshtein.rs",
        "crates/textsim/src/bounds.rs",
        "crates/textsim/src/ned.rs",
        "crates/textsim/src/myers.rs",
        "crates/textsim/src/kernel.rs",
    ];
    if !hot.contains(&file.rel_path.as_str()) {
        return;
    }
    let lexed = &file.lexed;
    for (i, token) in lexed.tokens.iter().enumerate() {
        if lexed.test_mask[i] {
            continue;
        }
        let what = match &token.kind {
            TokenKind::Ident(s) if s == "format" && lexed.is_punct(i + 1, '!') => {
                "format!".to_string()
            }
            TokenKind::Ident(s)
                if s == "String"
                    && lexed.is_punct(i + 1, ':')
                    && lexed.is_punct(i + 2, ':')
                    && matches!(
                        lexed.ident(i + 3),
                        Some("from") | Some("new") | Some("with_capacity")
                    ) =>
            {
                match lexed.ident(i + 3) {
                    Some(m) => format!("String::{m}"),
                    None => continue,
                }
            }
            TokenKind::Ident(s)
                if (s == "to_string" || s == "to_owned") && i > 0 && lexed.is_punct(i - 1, '.') =>
            {
                format!(".{s}()")
            }
            _ => continue,
        };
        if !allows.covers("no-hot-alloc", token.line) {
            out.push(Finding {
                file: file.rel_path.clone(),
                line: token.line,
                rule: "no-hot-alloc",
                message: format!("`{what}` allocates in a pairwise hot path"),
            });
        }
    }
}

/// A `impl <StageTrait> for <Type>` site found in library code.
struct StageImpl {
    file: String,
    line: u32,
    trait_name: String,
    type_name: String,
}

/// Records every `impl` of one of the five stage traits, tolerating
/// generic params (`impl<T> Trait for X`) and path-qualified trait
/// names (`impl crate::stage::Trait for X`).
fn collect_stage_impls(file: &SourceFile, out: &mut Vec<StageImpl>) {
    let lexed = &file.lexed;
    let mut i = 0;
    while i < lexed.tokens.len() {
        if lexed.ident(i) != Some("impl") || lexed.test_mask[i] {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        // Skip generic parameters on the impl itself.
        if lexed.is_punct(j, '<') {
            let mut depth = 0i32;
            while j < lexed.tokens.len() {
                if lexed.is_punct(j, '<') {
                    depth += 1;
                } else if lexed.is_punct(j, '>') {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                j += 1;
            }
        }
        // Collect the path up to `for` (or bail at `{` — an inherent impl).
        let mut last_ident: Option<(String, u32)> = None;
        let mut found_for = false;
        while j < lexed.tokens.len() {
            match &lexed.tokens[j].kind {
                TokenKind::Ident(s) if s == "for" => {
                    found_for = true;
                    j += 1;
                    break;
                }
                TokenKind::Punct('{') => break,
                TokenKind::Ident(s) => {
                    last_ident = Some((s.clone(), lexed.tokens[j].line));
                    j += 1;
                }
                _ => j += 1,
            }
        }
        if !found_for {
            i = j + 1;
            continue;
        }
        let Some((trait_name, line)) = last_ident else {
            i = j + 1;
            continue;
        };
        if !STAGE_TRAITS.contains(&trait_name.as_str()) {
            i = j + 1;
            continue;
        }
        // Type path: last ident before `{`, `<`, or `where`.
        let mut type_name: Option<String> = None;
        while j < lexed.tokens.len() {
            match &lexed.tokens[j].kind {
                TokenKind::Ident(s) if s == "where" => break,
                TokenKind::Punct('{') | TokenKind::Punct('<') => break,
                TokenKind::Ident(s) => {
                    type_name = Some(s.clone());
                    j += 1;
                }
                _ => j += 1,
            }
        }
        if let Some(type_name) = type_name {
            out.push(StageImpl {
                file: file.rel_path.clone(),
                line,
                trait_name,
                type_name,
            });
        }
        i = j + 1;
    }
}

/// stage-registered: every public stage trait impl must be exercised by
/// tests/equivalence.rs — its type name must appear there as a token.
fn stage_registered(
    project: &Project,
    impls: &[StageImpl],
    equivalence: &Lexed,
    out: &mut Vec<Finding>,
) {
    let registered: HashSet<&str> = equivalence
        .tokens
        .iter()
        .filter_map(|t| match &t.kind {
            TokenKind::Ident(s) => Some(s.as_str()),
            _ => None,
        })
        .collect();
    for stage_impl in impls {
        if registered.contains(stage_impl.type_name.as_str()) {
            continue;
        }
        let allowed = project
            .files
            .iter()
            .find(|f| f.rel_path == stage_impl.file)
            .map(|f| Allows::collect(&f.lexed).covers("stage-registered", stage_impl.line))
            .unwrap_or(false);
        if !allowed {
            out.push(Finding {
                file: stage_impl.file.clone(),
                line: stage_impl.line,
                rule: "stage-registered",
                message: format!(
                    "`{}` impl for `{}` is not exercised by tests/equivalence.rs",
                    stage_impl.trait_name, stage_impl.type_name
                ),
            });
        }
    }
}

/// dead-variant: every `DogmatixError` variant declared in error.rs must
/// be constructed somewhere in library code — an unconstructed variant
/// is dead API surface.
fn dead_variant(project: &Project, out: &mut Vec<Finding>) {
    let Some(error_file) = project
        .files
        .iter()
        .find(|f| f.rel_path.ends_with("src/error.rs"))
    else {
        return;
    };
    let variants = enum_variants(&error_file.lexed, "DogmatixError");
    if variants.is_empty() {
        return;
    }
    let mut constructed: HashSet<String> = HashSet::new();
    for file in &project.files {
        collect_constructions(&file.lexed, &mut constructed);
    }
    let allows = Allows::collect(&error_file.lexed);
    for (name, line) in variants {
        if constructed.contains(&name) || allows.covers("dead-variant", line) {
            continue;
        }
        out.push(Finding {
            file: error_file.rel_path.clone(),
            line,
            rule: "dead-variant",
            message: format!("`DogmatixError::{name}` is never constructed in library code"),
        });
    }
}

/// The variant names (and lines) of `enum <name>` in a lexed file.
fn enum_variants(lexed: &Lexed, name: &str) -> Vec<(String, u32)> {
    let mut variants = Vec::new();
    let mut i = 0;
    while i < lexed.tokens.len() {
        if lexed.ident(i) == Some("enum") && lexed.ident(i + 1) == Some(name) {
            // Find the opening brace, then walk depth-1 entries.
            let mut j = i + 2;
            while j < lexed.tokens.len() && !lexed.is_punct(j, '{') {
                j += 1;
            }
            j += 1; // past `{`
            let mut expect_variant = true;
            while j < lexed.tokens.len() {
                match &lexed.tokens[j].kind {
                    TokenKind::Punct('}') => return variants,
                    TokenKind::Punct('#') if lexed.is_punct(j + 1, '[') => {
                        // Skip the attribute.
                        let mut depth = 0usize;
                        j += 1;
                        while j < lexed.tokens.len() {
                            if lexed.is_punct(j, '[') {
                                depth += 1;
                            } else if lexed.is_punct(j, ']') {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            j += 1;
                        }
                        j += 1;
                    }
                    TokenKind::Ident(s) if expect_variant => {
                        variants.push((s.clone(), lexed.tokens[j].line));
                        expect_variant = false;
                        j += 1;
                        // Skip the payload — a brace/paren group.
                        if lexed.is_punct(j, '{') || lexed.is_punct(j, '(') {
                            let (open, close) = if lexed.is_punct(j, '{') {
                                ('{', '}')
                            } else {
                                ('(', ')')
                            };
                            let mut depth = 0usize;
                            while j < lexed.tokens.len() {
                                if lexed.is_punct(j, open) {
                                    depth += 1;
                                } else if lexed.is_punct(j, close) {
                                    depth -= 1;
                                    if depth == 0 {
                                        break;
                                    }
                                }
                                j += 1;
                            }
                            j += 1;
                        }
                    }
                    TokenKind::Punct(',') => {
                        expect_variant = true;
                        j += 1;
                    }
                    _ => j += 1,
                }
            }
            return variants;
        }
        i += 1;
    }
    variants
}

/// Adds every `DogmatixError::V` that is a construction (not a match or
/// let pattern) to `constructed`. Test code counts — a variant only
/// built under test is still reachable API, and the unit suites build
/// error values on purpose.
fn collect_constructions(lexed: &Lexed, constructed: &mut HashSet<String>) {
    let mut i = 0;
    while i + 3 < lexed.tokens.len() {
        if lexed.ident(i) != Some("DogmatixError")
            || !lexed.is_punct(i + 1, ':')
            || !lexed.is_punct(i + 2, ':')
        {
            i += 1;
            continue;
        }
        let Some(variant) = lexed.ident(i + 3) else {
            i += 4;
            continue;
        };
        let variant = variant.to_string();
        let mut j = i + 4;
        let mut is_pattern = false;
        if lexed.is_punct(j, '{') || lexed.is_punct(j, '(') {
            let (open, close) = if lexed.is_punct(j, '{') {
                ('{', '}')
            } else {
                ('(', ')')
            };
            let group_start = j;
            let mut depth = 0usize;
            while j < lexed.tokens.len() {
                if lexed.is_punct(j, open) {
                    depth += 1;
                } else if lexed.is_punct(j, close) {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                // `..` at payload depth 1 only appears in patterns.
                if depth == 1
                    && lexed.is_punct(j, '.')
                    && lexed.is_punct(j + 1, '.')
                    && !lexed.is_punct(j + 2, '.')
                {
                    is_pattern = true;
                }
                j += 1;
            }
            // A group immediately followed by `=>` is a match arm.
            if lexed.is_punct(j + 1, '=') && lexed.is_punct(j + 2, '>') {
                is_pattern = true;
            }
            let _ = group_start;
            j += 1;
        } else {
            // Bare `DogmatixError::V` — a unit variant use or a path in
            // a pattern; followed by `=>` it is a match arm.
            if lexed.is_punct(j, '=') && lexed.is_punct(j + 1, '>') {
                is_pattern = true;
            }
        }
        if !is_pattern {
            constructed.insert(variant);
        }
        i = j;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn file(rel: &str, src: &str) -> SourceFile {
        SourceFile {
            rel_path: rel.to_string(),
            lexed: lex(src),
        }
    }

    fn run(files: Vec<SourceFile>, equivalence: Option<&str>) -> Vec<Finding> {
        lint_project(&Project {
            files,
            equivalence: equivalence.map(lex),
        })
    }

    #[test]
    fn unwrap_flags_only_live_code_and_allows_suppress() {
        let src = r#"
            fn f(x: Option<u32>) -> u32 {
                // dxlint: allow(no-panic) — input validated above
                let a = x.unwrap();
                let b = x.unwrap();
                let c = x.unwrap_or(0);
                a + b + c
            }
            #[cfg(test)]
            mod tests {
                fn t(x: Option<u32>) -> u32 { x.unwrap() }
            }
        "#;
        let findings = run(vec![file("crates/xml/src/f.rs", src)], None);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "no-panic");
        assert_eq!(findings[0].line, 5);
    }

    #[test]
    fn fallible_expect_methods_are_not_panics() {
        let src = r#"
            fn parse(p: &mut Parser) -> Result<(), XmlError> {
                p.expect("<!DOCTYPE")?;
                p.expect(">")?;
                Ok(())
            }
            fn bad(x: Option<u32>) -> u32 { x.expect("present") }
        "#;
        let findings = run(vec![file("crates/xml/src/p.rs", src)], None);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].line, 7);
    }

    #[test]
    fn unjustified_allow_does_not_suppress() {
        let src = "fn f(x: Option<u32>) -> u32 {\n// dxlint: allow(no-panic)\nx.unwrap()\n}";
        let findings = run(vec![file("crates/xml/src/f.rs", src)], None);
        assert_eq!(findings.len(), 1);
    }

    #[test]
    fn column_indexing_is_scoped_to_core_outside_the_store_layer() {
        let src = "fn f(s: &S, t: usize) -> u32 { s.postings[t] }";
        let in_core = run(vec![file("crates/core/src/consumer.rs", src)], None);
        assert_eq!(in_core.len(), 1);
        assert_eq!(in_core[0].rule, "no-column-index");
        let in_store = run(vec![file("crates/core/src/store.rs", src)], None);
        assert!(in_store.is_empty());
        let outside = run(vec![file("crates/xml/src/consumer.rs", src)], None);
        assert!(outside.is_empty());
    }

    #[test]
    fn hot_alloc_flags_only_hot_files() {
        let src = "fn f(x: u32) -> String { format!(\"{x}\") }";
        let hot = run(vec![file("crates/core/src/sim.rs", src)], None);
        assert_eq!(hot.len(), 1);
        assert_eq!(hot[0].rule, "no-hot-alloc");
        let cold = run(vec![file("crates/core/src/report.rs", src)], None);
        assert!(cold.is_empty());
    }

    #[test]
    fn stage_impls_must_appear_in_equivalence_tests() {
        let src = r#"
            impl crate::stage::SimilarityMeasure for Registered { }
            impl SimilarityMeasure for Missing { }
            impl<T> Clone for NotAStage<T> { }
        "#;
        let findings = run(
            vec![file("crates/core/src/sim2.rs", src)],
            Some("fn t() { let m = Registered::new(); }"),
        );
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "stage-registered");
        assert!(findings[0].message.contains("Missing"));
    }

    #[test]
    fn dead_variants_are_reported_and_match_arms_are_not_constructions() {
        let error_src = r#"
            pub enum DogmatixError {
                Used { message: String },
                Dead { message: String },
            }
            impl DogmatixError {
                fn describe(&self) -> u32 {
                    match self {
                        DogmatixError::Used { .. } => 1,
                        DogmatixError::Dead { .. } => 2,
                    }
                }
            }
        "#;
        let user_src = r#"
            fn f() -> DogmatixError {
                DogmatixError::Used { message: make() }
            }
        "#;
        let findings = run(
            vec![
                file("crates/core/src/error.rs", error_src),
                file("crates/core/src/user.rs", user_src),
            ],
            None,
        );
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "dead-variant");
        assert!(findings[0].message.contains("Dead"));
    }
}
