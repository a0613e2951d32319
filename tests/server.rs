//! `dogmatixd` differential gate: probe verdicts served over TCP must
//! equal a from-scratch batch run's verdicts — membership, classification
//! AND bit-identical similarities — on the seeded CD and movie corpora,
//! including while ingest mutates the corpus concurrently.
//!
//! The equality argument: a probe record is interned *after* every
//! corpus object, so the extended OD set (and with it softIDF over
//! `|Ω|+1`) is bit-identical to a batch run over the corpus with the
//! record appended last; the candidate query orders candidates by node
//! id, and an appended subtree always carries the highest ids, so the
//! record is the last batch candidate. Ground truths below are computed
//! exactly that way — `dx.run` over `doc.clone()` + `append_xml`.

use dogmatix_bench::{CdFixture, MovieFixture};
use dogmatix_repro::core::filter::QGramBlocking;
use dogmatix_repro::core::heuristics::HeuristicExpr;
use dogmatix_repro::core::probe::ProbeBlocking;
use dogmatix_repro::core::{Dogmatix, FsyncPolicy, IncrementalSession, Wal};
use dogmatix_repro::eval::setup::{CD_TYPE, MOVIE_TYPE, THETA_TUPLE};
use dogmatix_repro::server::{serve, serve_durable, ServerConfig, ServerHandle};
use dogmatix_repro::xml::{Document, Schema};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

// ---- wire-level test client -------------------------------------------

/// One persistent protocol connection.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to dogmatixd");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("set client read timeout");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone stream")),
            writer: stream,
        }
    }

    /// Sends one request line and reads the one-line response.
    fn request(&mut self, line: &str) -> String {
        self.send_terminated(line, "\n")
    }

    /// Like [`Client::request`] but CRLF-terminated, the framing of
    /// `telnet`/Windows clients.
    fn request_crlf(&mut self, line: &str) -> String {
        self.send_terminated(line, "\r\n")
    }

    fn send_terminated(&mut self, line: &str, terminator: &str) -> String {
        self.writer
            .write_all(format!("{line}{terminator}").as_bytes())
            .expect("write request");
        let mut resp = String::new();
        self.reader.read_line(&mut resp).expect("read response");
        assert!(
            resp.ends_with('\n'),
            "response truncated (connection closed?): {resp:?}"
        );
        resp.trim_end().to_string()
    }

    /// Writes one request line *without* waiting for the response —
    /// used to pile jobs into the ingest queue.
    fn fire(&mut self, line: &str) {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("write request");
    }

    /// Reads the one-line response of an earlier [`Client::fire`].
    fn read_reply(&mut self) -> String {
        let mut resp = String::new();
        self.reader.read_line(&mut resp).expect("read response");
        assert!(
            resp.ends_with('\n'),
            "response truncated (connection closed?): {resp:?}"
        );
        resp.trim_end().to_string()
    }
}

/// Parses the consistent triple out of an `OK seq=… objects=… pairs=…`
/// stats line.
fn parse_stats(resp: &str) -> (u64, usize, usize) {
    let mut seq = None;
    let mut objects = None;
    let mut pairs = None;
    assert!(resp.starts_with("OK "), "not an OK stats line: {resp}");
    for word in resp.split_whitespace() {
        if let Some(v) = word.strip_prefix("seq=") {
            seq = v.parse().ok();
        } else if let Some(v) = word.strip_prefix("objects=") {
            objects = v.parse().ok();
        } else if let Some(v) = word.strip_prefix("pairs=") {
            pairs = v.parse().ok();
        }
    }
    (
        seq.unwrap_or_else(|| panic!("missing seq= in {resp}")),
        objects.unwrap_or_else(|| panic!("missing objects= in {resp}")),
        pairs.unwrap_or_else(|| panic!("missing pairs= in {resp}")),
    )
}

/// A parsed `OK n=… <idx>:<sim> … seq=… examined=<e>/<t>` probe response.
#[derive(Debug)]
struct ProbeReply {
    matches: Vec<(usize, f64)>,
    seq: u64,
    examined: usize,
    total: usize,
}

fn parse_probe_reply(resp: &str) -> ProbeReply {
    let mut words = resp.split_whitespace();
    assert_eq!(words.next(), Some("OK"), "not an OK response: {resp}");
    let n: usize = words
        .next()
        .and_then(|w| w.strip_prefix("n="))
        .and_then(|w| w.parse().ok())
        .unwrap_or_else(|| panic!("missing n= in {resp}"));
    let mut matches = Vec::with_capacity(n);
    let mut seq = None;
    let mut examined = None;
    for word in words {
        if let Some(s) = word.strip_prefix("seq=") {
            seq = s.parse().ok();
        } else if let Some(e) = word.strip_prefix("examined=") {
            let (ex, total) = e.split_once('/').expect("examined=<e>/<t>");
            examined = Some((
                ex.parse::<usize>().expect("examined count"),
                total.parse::<usize>().expect("total count"),
            ));
        } else {
            let (idx, sim) = word.split_once(':').expect("match token <idx>:<sim>");
            // f64 Display prints the shortest round-tripping form, so
            // parsing back recovers the server's bits exactly.
            matches.push((
                idx.parse::<usize>().expect("match index"),
                sim.parse::<f64>().expect("match sim"),
            ));
        }
    }
    assert_eq!(matches.len(), n, "n= disagrees with match list: {resp}");
    let (examined, total) = examined.unwrap_or_else(|| panic!("missing examined= in {resp}"));
    ProbeReply {
        matches,
        seq: seq.unwrap_or_else(|| panic!("missing seq= in {resp}")),
        examined,
        total,
    }
}

// ---- ground truth ------------------------------------------------------

/// From-scratch batch verdicts for `record_xml` probed against `doc`:
/// appends the record under `parent_path`, runs the full pipeline, and
/// returns the duplicate pairs involving the appended record in the
/// probe's order (sim descending, index ascending), capped at `k`.
fn batch_expected(
    dx: &Dogmatix,
    doc: &Document,
    schema: Option<&Schema>,
    rw_type: &str,
    parent_path: &str,
    record_xml: &str,
    k: usize,
) -> Vec<(usize, f64)> {
    let mut extended = doc.clone();
    let parent = extended.select(parent_path).expect("select parent")[0];
    extended
        .append_xml(parent, record_xml)
        .expect("append probe record");
    let inferred;
    let schema = match schema {
        Some(s) => s,
        None => {
            inferred = Schema::infer(&extended).expect("infer schema");
            &inferred
        }
    };
    let result = dx.run(&extended, schema, rw_type).expect("batch run");
    let last = result.candidates.len() - 1;
    let mut expected: Vec<(usize, f64)> = result
        .duplicate_pairs
        .iter()
        .filter(|&&(i, j, _)| i == last || j == last)
        .map(|&(i, j, sim)| (if i == last { j } else { i }, sim))
        .collect();
    expected.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    expected.truncate(k);
    expected
}

fn qgram_blocking() -> ProbeBlocking {
    ProbeBlocking::QGram(QGramBlocking::new(2, THETA_TUPLE))
}

/// Boots a server over the CD fixture, returning the handle and the
/// pieces ground truths need.
fn boot_cd(n: usize, config: ServerConfig) -> (ServerHandle, CdFixture, Dogmatix) {
    let fixture = CdFixture::dataset1(n);
    let dx = fixture.detector(HeuristicExpr::r_distant_descendants(2), false);
    let session = dx
        .incremental_session(fixture.doc.clone(), fixture.schema.clone(), CD_TYPE)
        .expect("open CD session");
    let handle = serve(
        fixture.detector(HeuristicExpr::r_distant_descendants(2), false),
        session,
        config,
    )
    .expect("boot dogmatixd");
    (handle, fixture, dx)
}

/// Serialised fragments of the corpus candidates at `path` — realistic
/// probe records that are guaranteed near-duplicates of their source.
fn candidate_fragments(doc: &Document, path: &str) -> Vec<String> {
    doc.select(path)
        .expect("select candidates")
        .iter()
        .map(|&node| doc.node_xml(node))
        .collect()
}

// ---- the differential gate --------------------------------------------

#[test]
fn cd_probe_verdicts_equal_batch_verdicts_over_live_ingest() {
    let config = ServerConfig {
        workers: 2,
        blocking: qgram_blocking(),
        ..ServerConfig::default()
    };
    let (handle, fixture, dx) = boot_cd(16, config);
    let fragments = candidate_fragments(&fixture.doc, "/discs/disc");
    let k = 5;
    let mut client = Client::connect(handle.addr());

    // Probes against the initial snapshot (seq 1).
    let mut answered = 0;
    for fragment in fragments.iter().take(4) {
        let reply = parse_probe_reply(&client.request(&format!("PROBE {k} {fragment}")));
        assert_eq!(reply.seq, 1);
        let expected = batch_expected(
            &dx,
            &fixture.doc,
            Some(&fixture.schema),
            CD_TYPE,
            "/discs",
            fragment,
            k,
        );
        assert_eq!(
            reply.matches, expected,
            "probe verdicts diverge from batch for {fragment}"
        );
        assert!(
            reply.examined <= reply.total,
            "examined {} of {}",
            reply.examined,
            reply.total
        );
        answered += reply.matches.len();
    }
    assert!(answered > 0, "no probe found its own source disc");

    // Ingest a new disc (a copy of disc 0 — a planted duplicate), then
    // verify probes reflect the grown corpus exactly.
    let planted = &fragments[0];
    let ack = client.request(&format!("INGEST insert /discs {planted}"));
    assert!(ack.starts_with("OK ingested seq=2 "), "bad ack: {ack}");

    let mut grown = fixture.doc.clone();
    let discs = grown.select("/discs").expect("select /discs")[0];
    grown.append_xml(discs, planted).expect("apply ingest");

    for fragment in fragments.iter().take(3) {
        let reply = parse_probe_reply(&client.request(&format!("PROBE {k} {fragment}")));
        assert_eq!(reply.seq, 2);
        let expected = batch_expected(
            &dx,
            &grown,
            Some(&fixture.schema),
            CD_TYPE,
            "/discs",
            fragment,
            k,
        );
        assert_eq!(
            reply.matches, expected,
            "post-ingest probe diverges from batch for {fragment}"
        );
    }

    // The stats line reflects the served work.
    let stats = client.request("STATS");
    assert!(stats.starts_with("OK seq=2 "), "bad stats: {stats}");
    assert!(stats.contains(" ingests=1 "), "bad stats: {stats}");
    handle.shutdown();
}

#[test]
fn movie_probe_verdicts_equal_batch_verdicts() {
    let fixture = MovieFixture::dataset2(10);
    let dx = fixture.detector(HeuristicExpr::k_closest_descendants(6), false);
    let session = dx
        .incremental_session_inferred(fixture.doc.clone(), MOVIE_TYPE)
        .expect("open movie session");
    let handle = serve(
        fixture.detector(HeuristicExpr::k_closest_descendants(6), false),
        session,
        ServerConfig {
            workers: 2,
            blocking: qgram_blocking(),
            ..ServerConfig::default()
        },
    )
    .expect("boot dogmatixd");
    let mut client = Client::connect(handle.addr());
    let k = 5;

    // Probe with records from both sources. A fragment rooted <movie>
    // always resolves to the first candidate path (imdb), so the ground
    // truth appends there — for either source's record.
    let mut fragments = candidate_fragments(&fixture.doc, "/integrated/imdb/movie");
    fragments.truncate(2);
    let mut filmdienst = candidate_fragments(&fixture.doc, "/integrated/filmdienst/movie");
    filmdienst.truncate(2);
    fragments.append(&mut filmdienst);

    let mut answered = 0;
    for fragment in &fragments {
        let reply = parse_probe_reply(&client.request(&format!("PROBE {k} {fragment}")));
        assert_eq!(reply.seq, 1);
        let expected = batch_expected(
            &dx,
            &fixture.doc,
            None, // inferred schema, like the session's
            MOVIE_TYPE,
            "/integrated/imdb",
            fragment,
            k,
        );
        assert_eq!(
            reply.matches, expected,
            "movie probe diverges from batch for {fragment}"
        );
        answered += reply.matches.len();
    }
    assert!(answered > 0, "no movie probe found its own source");
    handle.shutdown();
}

#[test]
fn interleaved_probes_and_ingest_agree_with_batch_at_the_served_snapshot() {
    let config = ServerConfig {
        workers: 4,
        blocking: qgram_blocking(),
        ..ServerConfig::default()
    };
    let (handle, fixture, dx) = boot_cd(10, config);
    let fragments = candidate_fragments(&fixture.doc, "/discs/disc");
    let k = 8;
    let ingests = 5.min(fragments.len());

    // Sequential acked ingests publish one snapshot each, so the doc
    // state at sequence `s` is the seed plus the first `s - 1` inserts.
    let mut doc_states = vec![fixture.doc.clone()];
    for fragment in fragments.iter().take(ingests) {
        let mut next = doc_states.last().expect("seed state").clone();
        let discs = next.select("/discs").expect("select /discs")[0];
        next.append_xml(discs, fragment).expect("apply ingest");
        doc_states.push(next);
    }

    // A worker serves one connection until it closes, and the five
    // clients below outnumber the four workers. The ingest client
    // connects first so it is sure of a worker; a prober queued behind
    // the others is served once they stop.
    let mut ingest_client = Client::connect(handle.addr());

    // Probe threads hammer the server while the main thread ingests.
    let stop = Arc::new(AtomicBool::new(false));
    let addr = handle.addr();
    let mut probers = Vec::new();
    for (t, fragment) in fragments.iter().take(3).cloned().enumerate() {
        let stop = Arc::clone(&stop);
        probers.push(
            std::thread::Builder::new()
                .name(format!("prober-{t}"))
                .spawn(move || {
                    let mut client = Client::connect(addr);
                    let mut seen: Vec<(u64, Vec<(usize, f64)>)> = Vec::new();
                    while !stop.load(Ordering::SeqCst) {
                        let reply =
                            parse_probe_reply(&client.request(&format!("PROBE {k} {fragment}")));
                        seen.push((reply.seq, reply.matches));
                    }
                    (fragment, seen)
                })
                .expect("spawn prober"),
        );
    }

    // A stats thread hammers STATS concurrently: its (seq, objects,
    // pairs) triple must always be torn-free — every triple describes
    // one published snapshot, never a mix of two.
    let stats_thread = {
        let stop = Arc::clone(&stop);
        std::thread::Builder::new()
            .name("stats-prober".to_string())
            .spawn(move || {
                let mut client = Client::connect(addr);
                let mut seen: Vec<(u64, usize, usize)> = Vec::new();
                while !stop.load(Ordering::SeqCst) {
                    seen.push(parse_stats(&client.request("STATS")));
                }
                seen
            })
            .expect("spawn stats prober")
    };

    for (i, fragment) in fragments.iter().take(ingests).enumerate() {
        let ack = ingest_client.request(&format!("INGEST insert /discs {fragment}"));
        let want = format!("OK ingested seq={} ", i + 2);
        assert!(ack.starts_with(&want), "bad ack for insert {i}: {ack}");
    }
    stop.store(true, Ordering::SeqCst);

    // Check the stats triples: at sequence s the corpus is the seed
    // plus s-1 inserts, and the pair count is the batch run's over
    // exactly that state.
    let base_objects = fragments.len();
    let mut pairs_at_seq: HashMap<u64, usize> = HashMap::new();
    for (seq, objects, pairs) in stats_thread.join().expect("join stats prober") {
        assert_eq!(
            objects,
            base_objects + (seq - 1) as usize,
            "stats objects torn from seq"
        );
        let expected_pairs = *pairs_at_seq.entry(seq).or_insert_with(|| {
            let state = &doc_states[(seq - 1) as usize];
            dx.run(state, &fixture.schema, CD_TYPE)
                .expect("batch run for stats")
                .duplicate_pairs
                .len()
        });
        assert_eq!(pairs, expected_pairs, "stats pairs torn from seq {seq}");
    }

    // Every probe answer must equal a from-scratch batch run at the doc
    // state its sequence number names.
    let mut truth_cache: HashMap<(u64, String), Vec<(usize, f64)>> = HashMap::new();
    let mut checked = 0;
    for prober in probers {
        let (fragment, seen) = prober.join().expect("join prober");
        for (seq, matches) in seen {
            let state = &doc_states[(seq - 1) as usize];
            let expected = truth_cache
                .entry((seq, fragment.clone()))
                .or_insert_with(|| {
                    batch_expected(
                        &dx,
                        state,
                        Some(&fixture.schema),
                        CD_TYPE,
                        "/discs",
                        &fragment,
                        k,
                    )
                });
            assert_eq!(
                &matches, expected,
                "probe at seq {seq} diverges from the batch run at that state"
            );
            checked += 1;
        }
    }
    assert!(checked >= 3, "probe threads produced too few answers");
    handle.shutdown();
}

// ---- protocol robustness ----------------------------------------------

#[test]
fn malformed_requests_get_structured_errors_and_keep_the_connection() {
    let (handle, fixture, _dx) = boot_cd(4, ServerConfig::default());
    let mut client = Client::connect(handle.addr());

    for (request, kind) in [
        ("FROBNICATE now", "ERR protocol:"),
        ("", "ERR protocol:"),
        ("PROBE", "ERR protocol:"),
        ("PROBE five <disc/>", "ERR protocol:"),
        ("PROBE 3 <unclosed", "ERR xml:"),
        ("PROBE 3 no markup at all", "ERR xml:"),
        ("PROBE 3 <notacandidate/>", "ERR protocol:"),
        ("INGEST", "ERR protocol:"),
        ("INGEST frobnicate 3", "ERR protocol:"),
        ("INGEST remove notanindex", "ERR protocol:"),
        ("INGEST insert /nowhere <disc/>", "ERR delta:"),
    ] {
        let resp = client.request(request);
        assert!(
            resp.starts_with(kind),
            "want '{kind}' for {request:?}, got: {resp}"
        );
    }

    // The connection survived all of it.
    let fragment = fixture
        .doc
        .node_xml(fixture.doc.select("/discs/disc").expect("select")[0]);
    let resp = client.request(&format!("PROBE 3 {fragment}"));
    assert!(resp.starts_with("OK n="), "connection unusable: {resp}");
    handle.shutdown();
}

#[test]
fn oversized_requests_are_answered_without_dropping_the_connection() {
    let (handle, _fixture, _dx) = boot_cd(
        4,
        ServerConfig {
            max_line_bytes: 256,
            ..ServerConfig::default()
        },
    );
    let mut client = Client::connect(handle.addr());

    let oversized = format!("PROBE 3 <disc><title>{}</title></disc>", "x".repeat(2048));
    let resp = client.request(&oversized);
    assert!(
        resp.starts_with("ERR protocol:") && resp.contains("256 bytes"),
        "bad oversize answer: {resp}"
    );

    // The tail of the oversized line was discarded, not parsed as the
    // next request — a request under the cap still works.
    let resp = client.request("STATS");
    assert!(resp.starts_with("OK seq="), "connection unusable: {resp}");
    handle.shutdown();
}

#[test]
fn shutdown_command_stops_the_server() {
    let (handle, _fixture, _dx) = boot_cd(4, ServerConfig::default());
    let mut client = Client::connect(handle.addr());
    assert_eq!(client.request("SHUTDOWN"), "OK bye");
    // join() returns once every thread noticed the flag.
    handle.join();
}

#[test]
fn crlf_terminated_requests_are_accepted() {
    let (handle, fixture, _dx) = boot_cd(6, ServerConfig::default());
    let mut client = Client::connect(handle.addr());

    let stats = client.request_crlf("STATS");
    assert!(
        stats.starts_with("OK seq=1 "),
        "CRLF STATS refused: {stats}"
    );

    let fragment = fixture
        .doc
        .node_xml(fixture.doc.select("/discs/disc").expect("select")[0]);
    let probe = client.request_crlf(&format!("PROBE 3 {fragment}"));
    assert!(probe.starts_with("OK n="), "CRLF PROBE refused: {probe}");

    // The \r must be stripped before the delta grammar sees the line —
    // otherwise the trailing XML fragment fails to parse.
    let ack = client.request_crlf(&format!("INGEST insert /discs {fragment}"));
    assert!(
        ack.starts_with("OK ingested seq=2 "),
        "CRLF INGEST refused: {ack}"
    );

    // LF and CRLF clients interleave on one connection.
    let stats = client.request("STATS");
    assert!(stats.starts_with("OK seq=2 "), "bad stats: {stats}");
    assert_eq!(client.request_crlf("SHUTDOWN"), "OK bye");
    handle.join();
}

// ---- durability --------------------------------------------------------

/// A per-test, per-process scratch path for a write-ahead log.
fn temp_wal(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "dogmatixd-server-test-{}-{name}",
        std::process::id()
    ))
}

/// Boots a durable server over the CD fixture with a fresh WAL at
/// `wal_path`.
fn boot_cd_durable(
    n: usize,
    wal_path: &std::path::Path,
    config: ServerConfig,
) -> (ServerHandle, CdFixture, Dogmatix) {
    let fixture = CdFixture::dataset1(n);
    let dx = fixture.detector(HeuristicExpr::r_distant_descendants(2), false);
    let session = dx
        .incremental_session(fixture.doc.clone(), fixture.schema.clone(), CD_TYPE)
        .expect("open CD session");
    let wal = Wal::create(wal_path, &session, FsyncPolicy::Batch).expect("create WAL");
    let handle = serve_durable(
        fixture.detector(HeuristicExpr::r_distant_descendants(2), false),
        session,
        wal,
        config,
    )
    .expect("boot durable dogmatixd");
    (handle, fixture, dx)
}

fn remove_wal(wal_path: &std::path::Path) {
    let _ = std::fs::remove_file(wal_path);
    let mut ckpt = wal_path.as_os_str().to_os_string();
    ckpt.push(".ckpt");
    let _ = std::fs::remove_file(std::path::PathBuf::from(ckpt));
}

#[test]
fn shutdown_drains_queued_ingests_and_recovery_preserves_them() {
    let wal_path = temp_wal("drain.wal");
    let config = ServerConfig {
        workers: 6,
        blocking: qgram_blocking(),
        ..ServerConfig::default()
    };
    let (handle, fixture, dx) = boot_cd_durable(8, &wal_path, config);
    let fragments = candidate_fragments(&fixture.doc, "/discs/disc");
    let burst = 4;

    // Pile a burst of ingests into the queue from separate connections,
    // without reading any ack...
    let mut conns: Vec<Client> = (0..burst).map(|_| Client::connect(handle.addr())).collect();
    for (client, fragment) in conns.iter_mut().zip(&fragments) {
        client.fire(&format!("INGEST insert /discs {fragment}"));
    }
    // ...give the workers a moment to enqueue them, then race SHUTDOWN
    // against the non-empty queue.
    std::thread::sleep(Duration::from_millis(300));
    let mut boss = Client::connect(handle.addr());
    assert_eq!(boss.request("SHUTDOWN"), "OK bye");

    // Every queued delta was drained, committed, and acked — not
    // dropped by the shutdown.
    for client in &mut conns {
        let ack = client.read_reply();
        assert!(
            ack.starts_with("OK ingested seq="),
            "delta dropped at shutdown: {ack}"
        );
    }
    handle.join();

    // Recovery finds all acked deltas in the log...
    let rec = IncrementalSession::recover(
        &wal_path,
        &fixture.mapping,
        Some(fixture.schema.clone()),
        FsyncPolicy::Batch,
    )
    .expect("recover from drained WAL");
    assert_eq!(rec.report.checkpoint_lsn, 0, "unexpected checkpoint");
    assert_eq!(rec.report.replayed, burst, "acked deltas missing from log");
    assert_eq!(rec.report.skipped, 0);
    assert!(rec.report.dropped_tail.is_none(), "clean log reported torn");

    // ...and the recovered verdict counts equal a from-scratch batch
    // run over the grown corpus (the drain order of concurrent
    // connections is arbitrary, but verdict *counts* are order-free).
    let mut rec = rec;
    let recovered = dx
        .detect_delta(&mut rec.session, &[])
        .expect("detect on recovered session");
    let mut grown = fixture.doc.clone();
    for fragment in fragments.iter().take(burst) {
        let discs = grown.select("/discs").expect("select /discs")[0];
        grown.append_xml(discs, fragment).expect("apply ingest");
    }
    let batch = dx
        .run(&grown, &fixture.schema, CD_TYPE)
        .expect("batch run over grown corpus");
    assert_eq!(recovered.candidates.len(), batch.candidates.len());
    assert_eq!(
        recovered.duplicate_pairs.len(),
        batch.duplicate_pairs.len(),
        "recovered pair count diverges from batch"
    );
    assert_eq!(recovered.clusters.len(), batch.clusters.len());
    remove_wal(&wal_path);
}

#[test]
fn checkpoint_command_truncates_the_log_and_is_refused_without_a_wal() {
    // Without a WAL the command is a structured config error.
    let (handle, _fixture, _dx) = boot_cd(4, ServerConfig::default());
    let mut client = Client::connect(handle.addr());
    let resp = client.request("CHECKPOINT");
    assert!(
        resp.starts_with("ERR config:") && resp.contains("--wal"),
        "bad refusal: {resp}"
    );
    handle.shutdown();

    // With one: CHECKPOINT reports the covered LSN, and recovery
    // replays only what came after it.
    let wal_path = temp_wal("checkpoint.wal");
    let (handle, fixture, dx) = boot_cd_durable(
        6,
        &wal_path,
        ServerConfig {
            blocking: qgram_blocking(),
            ..ServerConfig::default()
        },
    );
    let fragments = candidate_fragments(&fixture.doc, "/discs/disc");
    let mut client = Client::connect(handle.addr());
    for fragment in fragments.iter().take(2) {
        let ack = client.request(&format!("INGEST insert /discs {fragment}"));
        assert!(ack.starts_with("OK ingested "), "bad ack: {ack}");
    }
    assert_eq!(client.request("CHECKPOINT"), "OK checkpoint lsn=2");
    let ack = client.request(&format!("INGEST insert /discs {}", fragments[2]));
    assert!(ack.starts_with("OK ingested "), "bad ack: {ack}");
    assert_eq!(client.request("SHUTDOWN"), "OK bye");
    handle.join();

    let mut rec = IncrementalSession::recover(
        &wal_path,
        &fixture.mapping,
        Some(fixture.schema.clone()),
        FsyncPolicy::Batch,
    )
    .expect("recover from checkpointed WAL");
    assert_eq!(rec.report.checkpoint_lsn, 2);
    assert_eq!(rec.report.replayed, 1, "only the post-checkpoint delta");
    let recovered = dx
        .detect_delta(&mut rec.session, &[])
        .expect("detect on recovered session");
    assert_eq!(recovered.candidates.len(), fragments.len() + 3);
    remove_wal(&wal_path);
}

// ---- INDEX-SAVE: exporting the live index as a snapshot ---------------

#[test]
fn index_save_exports_the_replica_snapshot_and_it_warm_starts() {
    use dogmatix_repro::core::backend::snapshot::SnapshotBackend;
    use dogmatix_repro::core::DocumentDelta;
    use dogmatix_repro::eval::setup::THETA_CAND;

    let (handle, fixture, dx) = boot_cd(
        8,
        ServerConfig {
            workers: 2,
            blocking: qgram_blocking(),
            ..ServerConfig::default()
        },
    );
    let mut client = Client::connect(handle.addr());

    // No path is a protocol error, not a dropped connection.
    let resp = client.request("INDEX-SAVE");
    assert!(resp.starts_with("ERR protocol:"), "bad reply: {resp}");
    assert!(resp.contains("<path>"), "bad reply: {resp}");

    // Exporting after an ingest covers the *grown* corpus: the ingest
    // batch runs a detection, so the session is clean at the boundary
    // the INDEX-SAVE observes.
    let fragment = &candidate_fragments(&fixture.doc, "/discs/disc")[0];
    let ack = client.request(&format!("INGEST insert /discs {fragment}"));
    assert!(ack.starts_with("OK ingested "), "bad ack: {ack}");

    let out = std::env::temp_dir().join(format!(
        "dogmatixd-server-test-{}-index-save.dxts",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&out);
    let resp = client.request(&format!("INDEX-SAVE {}", out.display()));
    assert!(
        resp.starts_with("OK index-save bytes="),
        "bad reply: {resp}"
    );
    assert_eq!(client.request("SHUTDOWN"), "OK bye");
    handle.join();

    // The reported size is the installed file, and no temp file from the
    // atomic install survives.
    let bytes: u64 = resp
        .split("bytes=")
        .nth(1)
        .and_then(|r| r.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .expect("parse bytes= from reply");
    let on_disk = std::fs::metadata(&out).expect("exported snapshot exists");
    assert_eq!(on_disk.len(), bytes, "reply size must match the file");
    let mut tmp = out.as_os_str().to_os_string();
    tmp.push(".tmp");
    assert!(
        !std::path::PathBuf::from(tmp).exists(),
        "atomic install must not leave a temp file"
    );

    // An in-process replica runs the same detector over the same
    // corpus and applies the same delta: its export is the same file,
    // byte for byte.
    let mut replica = dx
        .incremental_session(fixture.doc.clone(), fixture.schema.clone(), CD_TYPE)
        .expect("open replica session");
    dx.detect_delta(&mut replica, &[])
        .expect("replica initial detect");
    let delta = DocumentDelta::parse(&format!("insert /discs {fragment}")).expect("parse delta");
    dx.detect_delta(&mut replica, &[delta])
        .expect("replica ingest");
    let mut replica_out = out.as_os_str().to_os_string();
    replica_out.push(".replica");
    let replica_out = std::path::PathBuf::from(replica_out);
    replica.save_index(&replica_out).expect("replica export");
    assert!(
        std::fs::read(&out).unwrap() == std::fs::read(&replica_out).unwrap(),
        "the server export must equal the replica's"
    );

    // The export warm-starts a batch run over the replica's document to
    // the in-memory result.
    let warm = Dogmatix::builder()
        .mapping(fixture.mapping.clone())
        .heuristic(HeuristicExpr::r_distant_descendants(2))
        .theta_tuple(THETA_TUPLE)
        .theta_cand(THETA_CAND)
        .threads(0)
        .no_filter()
        .index_backend(SnapshotBackend::open(&out))
        .build()
        .run(replica.doc(), &fixture.schema, CD_TYPE)
        .expect("warm start from the export");
    let in_memory = dx
        .run(replica.doc(), &fixture.schema, CD_TYPE)
        .expect("in-memory run");
    assert_eq!(warm, in_memory, "warm start diverged");
    assert_eq!(warm.candidates.len(), fixture.gold.len() + 1);
    let _ = std::fs::remove_file(&out);
    let _ = std::fs::remove_file(&replica_out);
}
