//! `dogmatix` — command-line duplicate detection for XML files.
//!
//! ```text
//! dogmatix <input.xml> --type <NAME> [options]
//!
//!   --type <NAME>          real-world type to deduplicate (required)
//!   --mapping <file>       mapping M in the line format `NAME: path, path`
//!                          (default: the type name mapped to --candidates)
//!   --candidates <xpath>   candidate path when no mapping file is given
//!   --schema <file.xsd>    XSD (default: inferred from the instance)
//!   --heuristic <spec>     rd:<r> | ra:<r> | kc:<k> | auto   (default rd:1)
//!   --exp <1..8>           Table 4 condition combination     (default 1)
//!   --theta-tuple <f>      similarity threshold for values   (default 0.15)
//!   --theta-cand <f>       duplicate threshold               (default 0.55)
//!   --threads <N>          comparison worker threads; 0 = all cores
//!                          (default 0), and larger counts are capped at
//!                          the cores; results are identical at any count
//!   --blocking <qgram|lsh> replace the object filter with a blocking
//!                          stage: a positional q-gram index (q = 2,
//!                          provable superset at θ_tuple) or banded
//!                          MinHash LSH (48 bands × 2 rows)
//!   --index-save <file>    persist the columnar term index to a
//!                          versioned, paged snapshot (fixed-size pages
//!                          behind a checksummed page directory) after
//!                          building it
//!   --index-load <file>    warm-start from a snapshot written by
//!                          --index-save (skips extraction + interning;
//!                          the corpus and selection must match); the
//!                          store is decoded one checked page at a time
//!   --no-filter            disable comparison reduction
//!   --fuse                 also write a fused (deduplicated) document
//!   --output <file>        write the dup-cluster XML here (default stdout)
//!   --deltas <file>        replay a streaming-delta script against an
//!                          incremental session instead of one batch run
//!   --probe <xml>          one-shot point-query: find the top-k
//!                          duplicates of one record (an XML fragment)
//!                          among the corpus, without a batch run —
//!                          the same query core dogmatixd serves
//!   --probe-k <N>          cap on --probe answers (default 10)
//!   --emit-queries         print the formulated XQueries Q_C and Q_D
//!                          for the active heuristic selection and exit
//! ```
//!
//! ## Delta-script format (`--deltas`)
//!
//! One command per line; blank lines and `#` comments are ignored.
//! Candidate indices refer to the current candidate order; relative
//! paths are resolved from the candidate element (`.` = the candidate):
//!
//! ```text
//! insert <parent_path> <xml fragment>
//! remove <index>
//! update <index> <rel_path> <occurrence> <new text value>
//! insert-under <index> <rel_path> <occurrence> <xml fragment>
//! remove-element <index> <rel_path> <occurrence>
//! detect
//! ```
//!
//! Each `detect` applies the accumulated deltas incrementally and prints
//! run statistics; trailing deltas are flushed by a final implicit
//! `detect`. The dup-cluster output reflects the final state.

use dogmatix_repro::core::auto;
use dogmatix_repro::core::backend::paged::PagedBackend;
use dogmatix_repro::core::filter::{MinHashLshBlocking, QGramBlocking};
use dogmatix_repro::core::fusion::{fuse_clusters, FusionConfig};
use dogmatix_repro::core::heuristics::{table4_heuristic, HeuristicExpr};
use dogmatix_repro::core::incremental::DocumentDelta;
use dogmatix_repro::core::pipeline::{DetectionResult, Dogmatix};
use dogmatix_repro::core::probe::{ProbeBlocking, ProbeScratch, ProbeSnapshot};
use dogmatix_repro::core::Mapping;
use dogmatix_repro::xml::{Document, Schema};
use std::process::ExitCode;

struct Options {
    input: String,
    rw_type: String,
    mapping_file: Option<String>,
    candidates: Option<String>,
    schema_file: Option<String>,
    heuristic: String,
    exp: usize,
    theta_tuple: f64,
    theta_cand: f64,
    threads: usize,
    blocking: Option<Blocking>,
    index_save: Option<String>,
    index_load: Option<String>,
    use_filter: bool,
    fuse: bool,
    output: Option<String>,
    deltas: Option<String>,
    probe: Option<String>,
    probe_k: usize,
    emit_queries: bool,
}

/// The `--blocking` strategies, parsed once so the detector wiring
/// cannot drift from the flag validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Blocking {
    QGram,
    Lsh,
}

impl std::str::FromStr for Blocking {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "qgram" => Ok(Blocking::QGram),
            "lsh" => Ok(Blocking::Lsh),
            other => Err(format!(
                "--blocking must be 'qgram' or 'lsh', got '{other}'"
            )),
        }
    }
}

/// Every flag the CLI understands, for error suggestions.
const KNOWN_FLAGS: &[&str] = &[
    "--type",
    "--mapping",
    "--candidates",
    "--schema",
    "--heuristic",
    "--exp",
    "--theta-tuple",
    "--theta-cand",
    "--threads",
    "--blocking",
    "--index-save",
    "--index-load",
    "--no-filter",
    "--fuse",
    "--output",
    "--deltas",
    "--probe",
    "--probe-k",
    "--emit-queries",
    "--help",
];

/// An actionable message for an unrecognised flag: names the flag and
/// suggests the closest known one when the edit distance is plausible.
fn unknown_flag_error(flag: &str) -> String {
    let closest = KNOWN_FLAGS
        .iter()
        .map(|known| (dogmatix_repro::textsim::levenshtein(flag, known), *known))
        .min()
        .filter(|(dist, _)| *dist <= 3);
    match closest {
        Some((_, suggestion)) => {
            format!("unknown flag '{flag}' (did you mean '{suggestion}'?)\n{HELP}")
        }
        None => format!("unknown flag '{flag}'\n{HELP}"),
    }
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        input: String::new(),
        rw_type: String::new(),
        mapping_file: None,
        candidates: None,
        schema_file: None,
        heuristic: "rd:1".to_string(),
        exp: 1,
        theta_tuple: 0.15,
        theta_cand: 0.55,
        threads: 0,
        blocking: None,
        index_save: None,
        index_load: None,
        use_filter: true,
        fuse: false,
        output: None,
        deltas: None,
        probe: None,
        probe_k: 10,
        emit_queries: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| -> Result<String, String> {
            args.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--type" => opts.rw_type = value("--type")?,
            "--mapping" => opts.mapping_file = Some(value("--mapping")?),
            "--candidates" => opts.candidates = Some(value("--candidates")?),
            "--schema" => opts.schema_file = Some(value("--schema")?),
            "--heuristic" => opts.heuristic = value("--heuristic")?,
            "--exp" => {
                opts.exp = value("--exp")?
                    .parse()
                    .map_err(|_| "--exp must be 1..8".to_string())?
            }
            "--theta-tuple" => {
                opts.theta_tuple = value("--theta-tuple")?
                    .parse()
                    .map_err(|_| "--theta-tuple must be a number".to_string())?
            }
            "--theta-cand" => {
                opts.theta_cand = value("--theta-cand")?
                    .parse()
                    .map_err(|_| "--theta-cand must be a number".to_string())?
            }
            "--threads" => {
                opts.threads = value("--threads")?
                    .parse()
                    .map_err(|_| "--threads must be a non-negative integer".to_string())?
            }
            "--blocking" => opts.blocking = Some(value("--blocking")?.parse()?),
            "--index-save" => opts.index_save = Some(value("--index-save")?),
            "--index-load" => opts.index_load = Some(value("--index-load")?),
            "--no-filter" => opts.use_filter = false,
            "--fuse" => opts.fuse = true,
            "--output" => opts.output = Some(value("--output")?),
            "--deltas" => opts.deltas = Some(value("--deltas")?),
            "--probe" => opts.probe = Some(value("--probe")?),
            "--probe-k" => {
                opts.probe_k = value("--probe-k")?
                    .parse()
                    .map_err(|_| "--probe-k must be a positive integer".to_string())?
            }
            "--emit-queries" => opts.emit_queries = true,
            "--help" | "-h" => return Err(HELP.to_string()),
            other if other.starts_with('-') => return Err(unknown_flag_error(other)),
            other if opts.input.is_empty() => opts.input = other.to_string(),
            other => {
                return Err(format!(
                    "unexpected positional argument '{other}' \
                     (the input file is already '{}')\n{HELP}",
                    opts.input
                ))
            }
        }
    }
    if opts.input.is_empty() {
        return Err(format!("missing input file\n{HELP}"));
    }
    if opts.rw_type.is_empty() {
        return Err(format!("--type is required\n{HELP}"));
    }
    if opts.index_save.is_some() && opts.index_load.is_some() {
        return Err("--index-save and --index-load are mutually exclusive".to_string());
    }
    if (opts.index_save.is_some() || opts.index_load.is_some()) && opts.deltas.is_some() {
        return Err(
            "--index-save/--index-load apply to batch runs, not --deltas replay".to_string(),
        );
    }
    if opts.probe.is_some() && opts.deltas.is_some() {
        return Err("--probe is a one-shot point-query, not a --deltas replay".to_string());
    }
    Ok(opts)
}

const HELP: &str = "usage: dogmatix <input.xml> --type <NAME> \
[--mapping m.txt | --candidates /path] [--schema s.xsd] \
[--heuristic rd:<r>|ra:<r>|kc:<k>|auto] [--exp 1..8] \
[--theta-tuple f] [--theta-cand f] [--threads N (0 = all cores, capped at them)] \
[--blocking qgram|lsh] [--no-filter] [--fuse] \
[--index-save f | --index-load f] \
[--output out.xml] [--deltas script.txt] \
[--probe '<xml>' [--probe-k N]] [--emit-queries]";

fn run(opts: Options) -> Result<(), String> {
    let text = std::fs::read_to_string(&opts.input)
        .map_err(|e| format!("cannot read {}: {e}", opts.input))?;
    let doc = Document::parse(&text).map_err(|e| e.to_string())?;

    let schema = match &opts.schema_file {
        Some(path) => {
            let xsd =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            Schema::parse_xsd(&xsd).map_err(|e| e.to_string())?
        }
        None => Schema::infer(&doc).map_err(|e| e.to_string())?,
    };

    let mapping = match (&opts.mapping_file, &opts.candidates) {
        (Some(path), _) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            Mapping::parse(&text).map_err(|e| e.to_string())?
        }
        (None, Some(candidate_path)) => {
            let mut m = Mapping::new();
            m.add_type(&opts.rw_type, [candidate_path.as_str()]);
            m
        }
        (None, None) => {
            // Last resort: suggest candidates automatically.
            let suggestions = auto::suggest_candidates(&schema);
            let best = suggestions
                .first()
                .ok_or("no candidate elements found; pass --candidates")?;
            eprintln!(
                "note: no mapping given — using suggested candidate path {}",
                best.path
            );
            let mut m = Mapping::new();
            m.add_type(&opts.rw_type, [best.path.as_str()]);
            m
        }
    };

    let candidate_path = mapping
        .paths_of(&opts.rw_type)
        .and_then(|p| p.first().cloned())
        .ok_or_else(|| format!("type '{}' has no paths in the mapping", opts.rw_type))?;

    let base = match opts.heuristic.split_once(':') {
        Some(("rd", r)) => {
            HeuristicExpr::r_distant_descendants(r.parse().map_err(|_| "bad radius".to_string())?)
        }
        Some(("ra", r)) => {
            HeuristicExpr::r_distant_ancestors(r.parse().map_err(|_| "bad radius".to_string())?)
        }
        Some(("kc", k)) => {
            HeuristicExpr::k_closest_descendants(k.parse().map_err(|_| "bad k".to_string())?)
        }
        None if opts.heuristic == "auto" => {
            let (h, stats) = auto::recommend_k(&doc, &schema, &mapping, &candidate_path, 12, 1.0);
            eprintln!(
                "note: auto heuristic chose {h:?} from {} stats rows",
                stats.len()
            );
            h
        }
        _ => return Err(format!("unknown heuristic '{}'", opts.heuristic)),
    };
    let heuristic = table4_heuristic(base, opts.exp);

    let mut builder = Dogmatix::builder()
        .mapping(mapping)
        .heuristic(heuristic)
        .theta_tuple(opts.theta_tuple)
        .theta_cand(opts.theta_cand)
        .threads(opts.threads);
    if !opts.use_filter {
        builder = builder.no_filter();
    }
    match opts.blocking {
        Some(Blocking::QGram) => builder = builder.filter(QGramBlocking::new(2, opts.theta_tuple)),
        Some(Blocking::Lsh) => builder = builder.filter(MinHashLshBlocking::new(48, 2)),
        None => {}
    }
    if let Some(path) = &opts.index_save {
        builder = builder.index_backend(PagedBackend::save(path));
        eprintln!("note: term-index snapshot will be written to {path}");
    }
    if let Some(path) = &opts.index_load {
        builder = builder.index_backend(PagedBackend::open(path));
        eprintln!("note: warm-starting from term-index snapshot {path}");
    }
    let dx = builder.build();

    if opts.emit_queries {
        let queries = dx
            .formulated_queries(&schema, &opts.rw_type)
            .map_err(|e| e.to_string())?;
        println!("Q_C:\n{}", queries.candidate_query);
        for (path, _, qd) in &queries.description_queries {
            println!("\nQ_D {path}:\n{qd}");
        }
        return Ok(());
    }

    if let Some(probe_xml) = &opts.probe {
        return run_probe(&dx, &doc, &schema, &opts, probe_xml);
    }

    let (result, doc) = match &opts.deltas {
        None => {
            let result = dx
                .run(&doc, &schema, &opts.rw_type)
                .map_err(|e| e.to_string())?;
            report_stats("batch", &result);
            (result, doc)
        }
        Some(path) => {
            let script =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            replay_deltas(&dx, doc, &schema, &opts, &script)?
        }
    };

    let out_xml = result.to_xml(&doc).to_xml_pretty();
    match &opts.output {
        Some(path) => {
            std::fs::write(path, out_xml).map_err(|e| format!("cannot write {path}: {e}"))?
        }
        None => println!("{out_xml}"),
    }

    if opts.fuse {
        let fused = fuse_clusters(
            &doc,
            &result.candidates,
            &result.clusters,
            FusionConfig {
                theta_tuple: opts.theta_tuple,
            },
        );
        let fused_path = format!("{}.fused.xml", opts.input.trim_end_matches(".xml"));
        std::fs::write(&fused_path, fused.to_xml_pretty())
            .map_err(|e| format!("cannot write {fused_path}: {e}"))?;
        eprintln!("fused document written to {fused_path}");
    }
    Ok(())
}

/// One-shot `--probe` mode: answers a point-query over a freshly built
/// probe snapshot — the same code path `dogmatixd` serves over TCP.
fn run_probe(
    dx: &Dogmatix,
    doc: &Document,
    schema: &Schema,
    opts: &Options,
    probe_xml: &str,
) -> Result<(), String> {
    let blocking = match (opts.blocking, opts.use_filter) {
        (Some(Blocking::Lsh), _) => ProbeBlocking::Lsh(MinHashLshBlocking::new(48, 2)),
        (Some(Blocking::QGram), _) | (None, true) => {
            ProbeBlocking::QGram(QGramBlocking::new(2, opts.theta_tuple))
        }
        (None, false) => ProbeBlocking::Exhaustive,
    };
    let snapshot = ProbeSnapshot::from_batch(dx, doc, schema, &opts.rw_type, blocking)
        .map_err(|e| e.to_string())?;
    let record = snapshot
        .record_from_xml(probe_xml)
        .map_err(|e| e.to_string())?;
    let mut scratch = ProbeScratch::new();
    let answer = snapshot
        .probe(&record, opts.probe_k, &mut scratch)
        .map_err(|e| e.to_string())?;
    for m in &answer.matches {
        println!("{}\t{}", m.index, m.sim);
    }
    eprintln!(
        "probe: {} duplicates (top {} shown), examined {} of {} candidates",
        answer.matches.len(),
        opts.probe_k,
        answer.stats.candidates_examined,
        answer.stats.total_objects
    );
    Ok(())
}

fn report_stats(label: &str, result: &DetectionResult) {
    eprintln!(
        "{label}: candidates: {}, pruned: {}, compared: {} pairs, \
         duplicates: {} pairs in {} clusters",
        result.stats.candidates,
        result.stats.pruned_by_filter,
        result.stats.pairs_compared,
        result.duplicate_pairs.len(),
        result.clusters.len()
    );
}

/// One parsed line of a `--deltas` script.
enum ScriptLine {
    Delta(DocumentDelta),
    Detect,
}

/// Parses one non-empty, non-comment script line. The delta grammar
/// itself lives in [`DocumentDelta::parse`] (shared with `dogmatixd`'s
/// `INGEST` command); the script adds only the `detect` boundary.
fn parse_delta_line(line: &str) -> Result<ScriptLine, String> {
    let cmd = line.split(char::is_whitespace).next().unwrap_or_default();
    if cmd == "detect" {
        return Ok(ScriptLine::Detect);
    }
    DocumentDelta::parse(line)
        .map(ScriptLine::Delta)
        .map_err(|e| e.to_string())
}

/// Replays a delta script against an incremental session, returning the
/// final detection result and final document state.
fn replay_deltas(
    dx: &Dogmatix,
    doc: Document,
    schema: &Schema,
    opts: &Options,
    script: &str,
) -> Result<(DetectionResult, Document), String> {
    // With an explicit XSD the schema is fixed; otherwise it tracks the
    // mutating document, exactly as batch re-inference would.
    let mut session = if opts.schema_file.is_some() {
        dx.incremental_session(doc, schema.clone(), &opts.rw_type)
    } else {
        dx.incremental_session_inferred(doc, &opts.rw_type)
    }
    .map_err(|e| e.to_string())?;

    let mut result = dx
        .detect_delta(&mut session, &[])
        .map_err(|e| e.to_string())?;
    report_stats("initial", &result);

    let script_path = opts.deltas.as_deref().unwrap_or("deltas");
    let mut batch: Vec<DocumentDelta> = Vec::new();
    let mut detections = 0usize;
    for (lineno, raw) in script.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        match parse_delta_line(line).map_err(|e| format!("{script_path}:{}: {e}", lineno + 1))? {
            ScriptLine::Delta(d) => batch.push(d),
            ScriptLine::Detect => {
                result = dx
                    .detect_delta(&mut session, &batch)
                    .map_err(|e| format!("{script_path}:{}: {e}", lineno + 1))?;
                detections += 1;
                report_stats(
                    &format!("detect #{detections} ({} deltas)", batch.len()),
                    &result,
                );
                batch.clear();
            }
        }
    }
    if !batch.is_empty() {
        result = dx
            .detect_delta(&mut session, &batch)
            .map_err(|e| e.to_string())?;
        detections += 1;
        report_stats(
            &format!("detect #{detections} ({} deltas)", batch.len()),
            &result,
        );
    }
    let c = session.counters();
    eprintln!(
        "replay totals: {} deltas, {} detections, {} pairs scored, {} pairs replayed",
        c.deltas_applied, c.detect_runs, c.pairs_scored, c.pairs_reused
    );
    Ok((result, session.into_doc()))
}

fn main() -> ExitCode {
    match parse_args().and_then(run) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}
