//! `dogmatixd`: a resident dedup server answering point-queries over
//! live ingest.
//!
//! The server holds an [`IncrementalSession`] behind a read/write
//! split: one **writer thread** owns the session and applies
//! [`DocumentDelta`]s, while **probe workers** answer `PROBE` requests
//! against an `Arc`-pinned [`ProbeSnapshot`] — an immutable, consistent
//! view swapped atomically at delta-batch boundaries. A probe never
//! blocks on ingest and never observes a half-applied batch: it reads
//! whatever snapshot was last published, and the response carries that
//! snapshot's sequence number.
//!
//! ## Wire protocol (newline-delimited, std-only)
//!
//! ```text
//! PROBE <k> <xml-fragment>   → OK n=<m> <idx>:<sim> … seq=<s> examined=<e>/<t>
//! INGEST <delta-line>        → OK ingested seq=<s> objects=<n> duplicates=<d>
//! STATS                      → OK seq=<s> objects=<n> pairs=<d> probes=<p> ingests=<i> shed=<x>
//! CHECKPOINT                 → OK checkpoint lsn=<n>   (durable servers only)
//! INDEX-SAVE <path>          → OK index-save bytes=<n> path=<path>
//! SHUTDOWN                   → OK bye            (stops the server)
//! anything else              → ERR <kind>: <message>
//! ```
//!
//! Lines may end in `\n` or `\r\n` — the trailing `\r` of CRLF clients
//! (`nc -C`, some `/dev/tcp` shells) is stripped uniformly, never
//! treated as part of the request. `<delta-line>` uses the
//! [`DocumentDelta::parse`] grammar shared with the CLI's `--deltas`
//! scripts. Errors are always answered as a structured
//! `ERR <kind>: <message>` line ([`DogmatixError::kind`]) — a malformed
//! or oversized request never drops the connection, and a saturated
//! ingest queue or worker pool sheds the request with
//! `ERR overloaded: …` instead of queueing unboundedly.
//!
//! `STATS` reports its `(seq, objects, pairs)` triple from one read of
//! the published snapshot slot, so the three values always describe the
//! same state — never torn across a writer swap.
//!
//! ## Durability ([`serve_durable`])
//!
//! A durable server owns a [`Wal`]: the writer thread appends every
//! delta of a drained batch to the log **before** applying any of it,
//! then pays one fsync for the whole batch (*group commit* —
//! [`dogmatix_core::wal::FsyncPolicy::Batch`]) before acknowledging.
//! An acknowledged `INGEST` therefore survives `kill -9`:
//! [`IncrementalSession::recover`] replays the log onto the last
//! checkpoint. Checkpoints are written every
//! [`ServerConfig::checkpoint_every`] deltas and on the `CHECKPOINT`
//! command. `SHUTDOWN` drains the ingest queue — queued deltas are
//! logged, fsynced, and applied before the writer exits, never dropped.
//!
//! `INDEX-SAVE <path>` exports the live session's term index as a
//! standalone **DXTS snapshot** via
//! [`IncrementalSession::save_index`] — a file the CLI can later
//! warm-start from with `--index-load`. The request rides the writer queue like `CHECKPOINT`, so it observes a
//! batch boundary: the exported index always describes a fully applied,
//! clean session state.

use dogmatix_core::probe::{ProbeBlocking, ProbeScratch, ProbeSnapshot};
use dogmatix_core::{DocumentDelta, Dogmatix, DogmatixError, IncrementalSession, Wal};
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{
    channel, sync_channel, Receiver, RecvTimeoutError, Sender, SyncSender, TrySendError,
};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tunables of one [`serve`] call.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; `127.0.0.1:0` picks an ephemeral port (read it
    /// back from [`ServerHandle::addr`]).
    pub addr: String,
    /// Probe worker threads — the bound on concurrently served
    /// connections; excess connections are shed with `ERR overloaded`.
    pub workers: usize,
    /// Bounded depth of the ingest queue feeding the writer thread.
    pub ingest_queue: usize,
    /// Requests longer than this many bytes are answered with
    /// `ERR protocol` and the oversized line is discarded.
    pub max_line_bytes: usize,
    /// Per-read socket timeout: an idle connection is closed after
    /// this long, which also bounds shutdown latency.
    pub read_timeout: Duration,
    /// Blocking index built into every published snapshot.
    pub blocking: ProbeBlocking,
    /// Default `k` is not configurable — clients pass it per `PROBE`.
    pub max_ingest_batch: usize,
    /// Durable servers ([`serve_durable`]) write an automatic checkpoint
    /// after this many logged deltas, bounding recovery replay. `0`
    /// disables auto-checkpoints (the `CHECKPOINT` command still works).
    pub checkpoint_every: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            ingest_queue: 64,
            max_line_bytes: 1 << 20,
            read_timeout: Duration::from_secs(30),
            blocking: ProbeBlocking::default(),
            max_ingest_batch: 64,
            checkpoint_every: 1024,
        }
    }
}

/// The writer thread's acknowledgement of one applied ingest.
struct IngestAck {
    seq: u64,
    objects: usize,
    duplicates: usize,
}

type IngestReply = Sender<Result<IngestAck, DogmatixError>>;

struct IngestJob {
    line: String,
    reply: IngestReply,
}

/// Everything the writer thread consumes, in arrival order.
enum WriterMsg {
    Ingest(IngestJob),
    /// A `CHECKPOINT` request; the writer answers with the covered LSN.
    Checkpoint(Sender<Result<u64, DogmatixError>>),
    /// An `INDEX-SAVE` request: export the clean session store as a
    /// sealed DXTS snapshot; the writer answers with the written bytes.
    IndexSave {
        path: PathBuf,
        reply: Sender<Result<u64, DogmatixError>>,
    },
}

/// One published state: the probe snapshot, its sequence number, and
/// the duplicate-pair count of the detection run that produced it —
/// swapped as a unit so `STATS` and `PROBE` never see a torn triple.
struct Published {
    snap: Arc<ProbeSnapshot>,
    seq: u64,
    pairs: usize,
}

/// State shared between the acceptor, the probe workers, and the
/// writer thread.
struct Shared {
    /// The last published state, swapped as one unit so readers always
    /// get mutually consistent (snapshot, seq, pairs).
    snapshot: Mutex<Published>,
    addr: Mutex<Option<SocketAddr>>,
    shutdown: AtomicBool,
    probes: AtomicU64,
    ingests: AtomicU64,
    shed: AtomicU64,
}

impl Shared {
    fn current(&self) -> Published {
        let slot = self.snapshot.lock().unwrap_or_else(PoisonError::into_inner);
        Published {
            snap: Arc::clone(&slot.snap),
            seq: slot.seq,
            pairs: slot.pairs,
        }
    }

    fn publish(&self, snap: ProbeSnapshot, pairs: usize) -> u64 {
        let mut slot = self.snapshot.lock().unwrap_or_else(PoisonError::into_inner);
        slot.seq += 1;
        slot.snap = Arc::new(snap);
        slot.pairs = pairs;
        slot.seq
    }

    fn local_addr(&self) -> Option<SocketAddr> {
        *self.addr.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Sets the shutdown flag and nudges the acceptor out of `accept`.
    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(addr) = self.local_addr() {
            let _ = TcpStream::connect(addr);
        }
    }
}

/// A running `dogmatixd`: its bound address and the thread handles.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server actually bound (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests shutdown and joins every server thread.
    pub fn shutdown(mut self) {
        self.shared.begin_shutdown();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }

    /// Blocks until the server stops (a client sent `SHUTDOWN`).
    pub fn join(mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        // Signal without joining so a dropped handle doesn't hang; an
        // orderly exit goes through `shutdown()` / `join()`.
        if !self.threads.is_empty() {
            self.shared.begin_shutdown();
        }
    }
}

/// Boots the server: runs an initial detection over the session (so
/// every cache is warm), publishes snapshot 1, binds the listener, and
/// spawns the acceptor, the probe worker pool, and the writer thread.
pub fn serve(
    dx: Dogmatix,
    session: IncrementalSession,
    config: ServerConfig,
) -> Result<ServerHandle, DogmatixError> {
    serve_inner(dx, session, None, config)
}

/// [`serve`], with a write-ahead log as the `INGEST` durability layer:
/// group-commit appends before every applied batch, auto-checkpoints
/// every [`ServerConfig::checkpoint_every`] deltas, and the
/// `CHECKPOINT` command. Create the log with [`Wal::create`] (fresh
/// corpus) or re-open it via [`IncrementalSession::recover`] (restart),
/// then hand both halves here.
pub fn serve_durable(
    dx: Dogmatix,
    session: IncrementalSession,
    wal: Wal,
    config: ServerConfig,
) -> Result<ServerHandle, DogmatixError> {
    serve_inner(dx, session, Some(wal), config)
}

fn serve_inner(
    dx: Dogmatix,
    mut session: IncrementalSession,
    wal: Option<Wal>,
    config: ServerConfig,
) -> Result<ServerHandle, DogmatixError> {
    let spawn_err = |e: std::io::Error| DogmatixError::Config {
        message: format!("cannot spawn server thread: {e}"),
    };
    let initial_pairs = dx.detect_delta(&mut session, &[])?.duplicate_pairs.len();
    let initial = session.publish_snapshot(&dx, config.blocking)?;
    let listener = TcpListener::bind(config.addr.as_str()).map_err(|e| DogmatixError::Config {
        message: format!("cannot bind {}: {e}", config.addr),
    })?;
    let addr = listener.local_addr().map_err(|e| DogmatixError::Config {
        message: format!("cannot resolve bound address: {e}"),
    })?;

    let shared = Arc::new(Shared {
        snapshot: Mutex::new(Published {
            snap: Arc::new(initial),
            seq: 1,
            pairs: initial_pairs,
        }),
        addr: Mutex::new(Some(addr)),
        shutdown: AtomicBool::new(false),
        probes: AtomicU64::new(0),
        ingests: AtomicU64::new(0),
        shed: AtomicU64::new(0),
    });

    let mut threads = Vec::new();

    let (ingest_tx, ingest_rx) = sync_channel::<WriterMsg>(config.ingest_queue.max(1));
    {
        let shared = Arc::clone(&shared);
        let blocking = config.blocking;
        let max_batch = config.max_ingest_batch.max(1);
        let checkpoint_every = config.checkpoint_every;
        threads.push(
            std::thread::Builder::new()
                .name("dogmatixd-writer".to_string())
                .spawn(move || {
                    writer_loop(
                        &dx,
                        session,
                        wal,
                        blocking,
                        max_batch,
                        checkpoint_every,
                        &ingest_rx,
                        &shared,
                    )
                })
                .map_err(spawn_err)?,
        );
    }

    let (conn_tx, conn_rx) = sync_channel::<TcpStream>(config.workers.max(1));
    let conn_rx = Arc::new(Mutex::new(conn_rx));
    for i in 0..config.workers.max(1) {
        let rx = Arc::clone(&conn_rx);
        let shared = Arc::clone(&shared);
        let ingest_tx = ingest_tx.clone();
        let cfg = config.clone();
        threads.push(
            std::thread::Builder::new()
                .name(format!("dogmatixd-worker-{i}"))
                .spawn(move || worker_loop(&rx, &shared, &ingest_tx, &cfg))
                .map_err(spawn_err)?,
        );
    }
    drop(ingest_tx);

    {
        let shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name("dogmatixd-acceptor".to_string())
                .spawn(move || accept_loop(&listener, conn_tx, &shared))
                .map_err(spawn_err)?,
        );
    }

    Ok(ServerHandle {
        addr,
        shared,
        threads,
    })
}

/// How long the acceptor keeps offering a connection to a full pool
/// queue before shedding it. A burst of connects can fill the queue
/// while idle workers are still waiting to be scheduled; the grace
/// period rides that out, so only a pool that stays saturated sheds.
const SHED_GRACE: Duration = Duration::from_millis(200);

/// Accepts connections, handing each to the bounded worker pool; a pool
/// that stays full for [`SHED_GRACE`] sheds the connection with
/// `ERR overloaded` instead of queueing.
fn accept_loop(listener: &TcpListener, conn_tx: SyncSender<TcpStream>, shared: &Shared) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let mut stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        let deadline = Instant::now() + SHED_GRACE;
        loop {
            match conn_tx.try_send(stream) {
                Ok(()) => break,
                Err(TrySendError::Full(full)) if Instant::now() < deadline => {
                    stream = full;
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(TrySendError::Full(mut full)) => {
                    shared.shed.fetch_add(1, Ordering::Relaxed);
                    let _ =
                        full.write_all(b"ERR overloaded: server overloaded: worker pool full\n");
                    break;
                }
                Err(TrySendError::Disconnected(_)) => return,
            }
        }
    }
    // Dropping `conn_tx` here lets the workers drain and exit.
}

/// Applies ingest jobs to the owned session and publishes one snapshot
/// per drained batch — the probe-visible consistency boundary. With a
/// WAL, every delta of the batch is appended and fsynced (**one** sync:
/// group commit) before any of it is applied or acknowledged.
///
/// A shutdown never drops queued work: the flag only stops the loop
/// once the queue is empty, so ingests accepted before `SHUTDOWN` are
/// logged, committed, and applied first.
#[allow(clippy::too_many_arguments)]
fn writer_loop(
    dx: &Dogmatix,
    mut session: IncrementalSession,
    mut wal: Option<Wal>,
    blocking: ProbeBlocking,
    max_batch: usize,
    checkpoint_every: u64,
    rx: &Receiver<WriterMsg>,
    shared: &Shared,
) {
    loop {
        let first = match rx.recv_timeout(Duration::from_millis(50)) {
            Ok(msg) => msg,
            Err(RecvTimeoutError::Timeout) => {
                // Drain-before-exit: only an *empty* queue lets the
                // shutdown flag stop the writer.
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
            // All senders gone — the queue is fully drained by then.
            Err(RecvTimeoutError::Disconnected) => break,
        };
        let mut batch = Vec::new();
        let mut checkpoints = Vec::new();
        let mut index_saves = Vec::new();
        match first {
            WriterMsg::Ingest(job) => batch.push(job),
            WriterMsg::Checkpoint(reply) => checkpoints.push(reply),
            WriterMsg::IndexSave { path, reply } => index_saves.push((path, reply)),
        }
        while batch.len() < max_batch && checkpoints.is_empty() && index_saves.is_empty() {
            match rx.try_recv() {
                Ok(WriterMsg::Ingest(job)) => batch.push(job),
                Ok(WriterMsg::Checkpoint(reply)) => checkpoints.push(reply),
                Ok(WriterMsg::IndexSave { path, reply }) => index_saves.push((path, reply)),
                Err(_) => break,
            }
        }
        if !batch.is_empty() {
            run_batch(dx, &mut session, wal.as_mut(), blocking, batch, shared);
            if let Some(wal) = wal.as_mut() {
                if checkpoint_every > 0 && wal.appended_since_checkpoint() >= checkpoint_every {
                    if let Err(e) = wal.checkpoint(&session) {
                        // Keep serving — the log simply keeps growing
                        // until a later checkpoint succeeds.
                        eprintln!("dogmatixd: auto-checkpoint failed: {e}");
                    }
                }
            }
        }
        for reply in checkpoints {
            let result = match wal.as_mut() {
                Some(wal) => wal.checkpoint(&session),
                None => Err(DogmatixError::Config {
                    message: "server runs without a write-ahead log (start with --wal)".to_string(),
                }),
            };
            let _ = reply.send(result);
        }
        for (path, reply) in index_saves {
            // Runs after the batch above, so the session is at a batch
            // boundary: `save_index` sees the clean store of the
            // detection that batch published.
            let _ = reply.send(session.save_index(&path));
        }
    }
    // Whatever the exit path, nothing acknowledged may be un-synced.
    if let Some(wal) = wal.as_mut() {
        if let Err(e) = wal.commit() {
            eprintln!("dogmatixd: final WAL commit failed: {e}");
        }
    }
}

/// One drained ingest batch: parse → WAL append ×N + one group-commit
/// fsync → apply → publish once → acknowledge.
fn run_batch(
    dx: &Dogmatix,
    session: &mut IncrementalSession,
    wal: Option<&mut Wal>,
    blocking: ProbeBlocking,
    batch: Vec<IngestJob>,
    shared: &Shared,
) {
    // Phase 1: parse every line (a bad line fails its own job only).
    let mut jobs: Vec<(IngestReply, Result<DocumentDelta, DogmatixError>)> = batch
        .into_iter()
        .map(|job| {
            let parsed = DocumentDelta::parse(&job.line);
            (job.reply, parsed)
        })
        .collect();

    // Phase 2: write-ahead. Append every parsed delta, then pay one
    // fsync for the whole batch — the group commit. A delta is only
    // applied (phase 3) once it is durable; on a log failure the whole
    // batch is refused rather than applied un-logged.
    if let Some(wal) = wal {
        let mut log_failure: Option<DogmatixError> = None;
        for (_, parsed) in jobs.iter_mut() {
            if log_failure.is_none() {
                if let Ok(delta) = parsed.as_ref() {
                    if let Err(e) = wal.append(delta) {
                        log_failure = Some(e);
                    }
                }
            }
            if let Some(e) = &log_failure {
                if parsed.is_ok() {
                    *parsed = Err(e.clone());
                }
            }
        }
        if log_failure.is_none() {
            if let Err(e) = wal.commit() {
                for (_, parsed) in jobs.iter_mut() {
                    if parsed.is_ok() {
                        *parsed = Err(e.clone());
                    }
                }
            }
        }
    }

    // Phase 3: apply. Each job's own failure (bad index, dangling
    // path) is acknowledged individually; recovery replay skips the
    // same deltas identically.
    let mut last_pairs: Option<usize> = None;
    let outcomes: Vec<(IngestReply, Result<usize, DogmatixError>)> = jobs
        .into_iter()
        .map(|(reply, parsed)| {
            let res = parsed
                .and_then(|delta| dx.detect_delta(session, std::slice::from_ref(&delta)))
                .map(|result| result.duplicate_pairs.len());
            if let Ok(pairs) = &res {
                last_pairs = Some(*pairs);
            }
            (reply, res)
        })
        .collect();

    // Phase 4: publish once, acknowledge after the swap so an `OK` is
    // always observable by the next probe.
    match session.publish_snapshot(dx, blocking) {
        Ok(snap) => {
            let objects = snap.len();
            let pairs = last_pairs.unwrap_or_else(|| shared.current().pairs);
            let seq = shared.publish(snap, pairs);
            for (reply, res) in outcomes {
                if res.is_ok() {
                    shared.ingests.fetch_add(1, Ordering::Relaxed);
                }
                let _ = reply.send(res.map(|duplicates| IngestAck {
                    seq,
                    objects,
                    duplicates,
                }));
            }
        }
        Err(e) => {
            // Keep serving the previous snapshot; acknowledge each
            // job with its own failure (or the publish failure).
            for (reply, res) in outcomes {
                let _ = reply.send(res.and(Err(e.clone())));
            }
        }
    }
}

/// One probe worker: serves connections pulled from the shared queue,
/// reusing its scratch buffers across requests and connections.
fn worker_loop(
    rx: &Mutex<Receiver<TcpStream>>,
    shared: &Shared,
    ingest_tx: &SyncSender<WriterMsg>,
    cfg: &ServerConfig,
) {
    let mut scratch = ProbeScratch::new();
    loop {
        let stream = {
            let guard = rx.lock().unwrap_or_else(PoisonError::into_inner);
            match guard.recv() {
                Ok(s) => s,
                Err(_) => break,
            }
        };
        handle_connection(stream, shared, ingest_tx, cfg, &mut scratch);
    }
}

enum LineRead {
    Eof,
    Line,
    /// Over the size cap; `terminated` tells whether the newline was
    /// already consumed (nothing left to discard).
    TooLong {
        terminated: bool,
    },
}

/// Reads one `\n`-terminated line of at most `max` bytes into `out`,
/// stripping a trailing `\r` so CRLF clients (`nc -C`, `/dev/tcp`
/// shells) speak the same protocol as LF ones. The caller clears `out`
/// before the first call for a request — on a read timeout, partial
/// bytes stay in `out` and a retry resumes the same line.
fn read_bounded_line(
    reader: &mut BufReader<TcpStream>,
    max: usize,
    out: &mut Vec<u8>,
) -> std::io::Result<LineRead> {
    loop {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            return Ok(if out.is_empty() {
                LineRead::Eof
            } else {
                LineRead::Line
            });
        }
        match buf.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                out.extend_from_slice(&buf[..pos]);
                reader.consume(pos + 1);
                if out.last() == Some(&b'\r') {
                    out.pop();
                }
                return Ok(if out.len() > max {
                    LineRead::TooLong { terminated: true }
                } else {
                    LineRead::Line
                });
            }
            None => {
                out.extend_from_slice(buf);
                let n = buf.len();
                reader.consume(n);
                if out.len() > max {
                    return Ok(LineRead::TooLong { terminated: false });
                }
            }
        }
    }
}

/// Discards input through the next newline (the tail of an oversized
/// request), so the connection stays usable.
fn drain_to_newline(reader: &mut BufReader<TcpStream>) -> std::io::Result<()> {
    loop {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            return Ok(());
        }
        match buf.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                reader.consume(pos + 1);
                return Ok(());
            }
            None => {
                let n = buf.len();
                reader.consume(n);
            }
        }
    }
}

fn err_line(e: &DogmatixError) -> String {
    format!("ERR {}: {e}\n", e.kind())
}

/// How often a blocked read wakes to check the shutdown flag. The
/// socket timeout is the *minimum* of this and the configured idle
/// timeout, so shutdown latency is bounded by ~this even while a
/// worker sits in a blocking read on an idle connection.
const SHUTDOWN_POLL: Duration = Duration::from_millis(100);

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

fn handle_connection(
    stream: TcpStream,
    shared: &Shared,
    ingest_tx: &SyncSender<WriterMsg>,
    cfg: &ServerConfig,
    scratch: &mut ProbeScratch,
) {
    let poll = cfg
        .read_timeout
        .min(SHUTDOWN_POLL)
        .max(Duration::from_millis(1));
    let _ = stream.set_read_timeout(Some(poll));
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut raw = Vec::new();
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            let _ = writer.write_all(b"ERR overloaded: server overloaded: shutting down\n");
            break;
        }
        raw.clear();
        // Poll-read: each timeout tick re-checks the shutdown flag;
        // a partially received line survives in `raw` across ticks.
        let mut idle = Duration::ZERO;
        let read = loop {
            match read_bounded_line(&mut reader, cfg.max_line_bytes, &mut raw) {
                Ok(read) => break Some(read),
                Err(e) if is_timeout(&e) => {
                    idle += poll;
                    if shared.shutdown.load(Ordering::SeqCst) || idle >= cfg.read_timeout {
                        break None;
                    }
                }
                Err(_) => break None, // socket error: close
            }
        };
        match read {
            Some(LineRead::Eof) => break,
            Some(LineRead::Line) => {}
            Some(LineRead::TooLong { terminated }) => {
                // The oversized line may still be streaming in; discard
                // its tail (riding out poll timeouts), answer, and keep
                // the connection.
                if !terminated {
                    let mut idle = Duration::ZERO;
                    let drained = loop {
                        match drain_to_newline(&mut reader) {
                            Ok(()) => break true,
                            Err(e) if is_timeout(&e) => {
                                idle += poll;
                                if shared.shutdown.load(Ordering::SeqCst)
                                    || idle >= cfg.read_timeout
                                {
                                    break false;
                                }
                            }
                            Err(_) => break false,
                        }
                    };
                    if !drained {
                        break;
                    }
                }
                let e = DogmatixError::Protocol {
                    message: format!("request exceeds {} bytes", cfg.max_line_bytes),
                };
                if writer.write_all(err_line(&e).as_bytes()).is_err() {
                    break;
                }
                continue;
            }
            None => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    let _ = writer.write_all(b"ERR overloaded: server overloaded: shutting down\n");
                }
                break; // idle timeout, shutdown, or socket error: close
            }
        }
        let line = String::from_utf8_lossy(&raw);
        let response = answer(line.trim(), shared, ingest_tx, scratch);
        if writer.write_all(response.as_bytes()).is_err() {
            break;
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
    }
}

/// Dispatches one request line to a single response line.
fn answer(
    line: &str,
    shared: &Shared,
    ingest_tx: &SyncSender<WriterMsg>,
    scratch: &mut ProbeScratch,
) -> String {
    let mut words = line.splitn(2, char::is_whitespace);
    let cmd = words.next().unwrap_or_default();
    let rest = words.next().unwrap_or("").trim();
    match cmd {
        "PROBE" => probe_response(rest, shared, scratch),
        "INGEST" => ingest_response(rest, shared, ingest_tx),
        "STATS" => {
            // One read of the published slot: seq, objects, and pairs
            // always describe the same snapshot — never torn across a
            // writer swap.
            let state = shared.current();
            format!(
                "OK seq={} objects={} pairs={} probes={} ingests={} shed={}\n",
                state.seq,
                state.snap.len(),
                state.pairs,
                shared.probes.load(Ordering::Relaxed),
                shared.ingests.load(Ordering::Relaxed),
                shared.shed.load(Ordering::Relaxed),
            )
        }
        "CHECKPOINT" => checkpoint_response(shared, ingest_tx),
        "INDEX-SAVE" => index_save_response(rest, shared, ingest_tx),
        "SHUTDOWN" => {
            shared.begin_shutdown();
            "OK bye\n".to_string()
        }
        "" => err_line(&DogmatixError::Protocol {
            message: "empty request".to_string(),
        }),
        other => err_line(&DogmatixError::Protocol {
            message: format!("unknown command '{other}'"),
        }),
    }
}

fn probe_response(rest: &str, shared: &Shared, scratch: &mut ProbeScratch) -> String {
    let parsed = rest
        .split_once(char::is_whitespace)
        .ok_or_else(|| DogmatixError::Protocol {
            message: "PROBE needs '<k> <xml-fragment>'".to_string(),
        })
        .and_then(|(kstr, xml)| {
            let k: usize = kstr.parse().map_err(|_| DogmatixError::Protocol {
                message: format!("'{kstr}' is not a probe k"),
            })?;
            Ok((k, xml.trim()))
        });
    let (k, xml) = match parsed {
        Ok(p) => p,
        Err(e) => return err_line(&e),
    };
    let state = shared.current();
    let (snap, seq) = (state.snap, state.seq);
    let answered = snap
        .record_from_xml(xml)
        .and_then(|record| snap.probe(&record, k, scratch));
    match answered {
        Ok(ans) => {
            shared.probes.fetch_add(1, Ordering::Relaxed);
            let mut out = format!("OK n={}", ans.matches.len());
            for m in &ans.matches {
                let _ = write!(out, " {}:{}", m.index, m.sim);
            }
            let _ = write!(
                out,
                " seq={seq} examined={}/{}",
                ans.stats.candidates_examined, ans.stats.total_objects
            );
            out.push('\n');
            out
        }
        Err(e) => err_line(&e),
    }
}

fn ingest_response(rest: &str, shared: &Shared, ingest_tx: &SyncSender<WriterMsg>) -> String {
    if rest.is_empty() {
        return err_line(&DogmatixError::Protocol {
            message: "INGEST needs '<delta-line>'".to_string(),
        });
    }
    let (reply_tx, reply_rx) = channel();
    let job = IngestJob {
        line: rest.to_string(),
        reply: reply_tx,
    };
    match ingest_tx.try_send(WriterMsg::Ingest(job)) {
        Ok(()) => match reply_rx.recv() {
            Ok(Ok(ack)) => format!(
                "OK ingested seq={} objects={} duplicates={}\n",
                ack.seq, ack.objects, ack.duplicates
            ),
            Ok(Err(e)) => err_line(&e),
            Err(_) => err_line(&DogmatixError::Overloaded {
                message: "ingest writer unavailable".to_string(),
            }),
        },
        Err(TrySendError::Full(_)) => {
            shared.shed.fetch_add(1, Ordering::Relaxed);
            err_line(&DogmatixError::Overloaded {
                message: "ingest queue full".to_string(),
            })
        }
        Err(TrySendError::Disconnected(_)) => err_line(&DogmatixError::Overloaded {
            message: "ingest writer stopped".to_string(),
        }),
    }
}

/// Asks the writer to checkpoint the write-ahead log and waits for the
/// durable LSN. Checkpoints jump the batching queue-drain (the writer
/// answers them between batches), so the reply reflects every delta
/// acknowledged before this request.
/// `INDEX-SAVE <path>`: ships the request to the writer thread (the
/// only owner of the session) and waits for the export result. Like
/// `CHECKPOINT`, it is shed — never queued unboundedly — when the
/// ingest queue is full.
fn index_save_response(rest: &str, shared: &Shared, ingest_tx: &SyncSender<WriterMsg>) -> String {
    if rest.is_empty() {
        return err_line(&DogmatixError::Protocol {
            message: "INDEX-SAVE needs '<path>'".to_string(),
        });
    }
    let (reply_tx, reply_rx) = channel();
    let msg = WriterMsg::IndexSave {
        path: PathBuf::from(rest),
        reply: reply_tx,
    };
    match ingest_tx.try_send(msg) {
        Ok(()) => match reply_rx.recv() {
            Ok(Ok(bytes)) => format!("OK index-save bytes={bytes} path={rest}\n"),
            Ok(Err(e)) => err_line(&e),
            Err(_) => err_line(&DogmatixError::Overloaded {
                message: "ingest writer unavailable".to_string(),
            }),
        },
        Err(TrySendError::Full(_)) => {
            shared.shed.fetch_add(1, Ordering::Relaxed);
            err_line(&DogmatixError::Overloaded {
                message: "ingest queue full".to_string(),
            })
        }
        Err(TrySendError::Disconnected(_)) => err_line(&DogmatixError::Overloaded {
            message: "ingest writer stopped".to_string(),
        }),
    }
}

fn checkpoint_response(shared: &Shared, ingest_tx: &SyncSender<WriterMsg>) -> String {
    let (reply_tx, reply_rx) = channel();
    match ingest_tx.try_send(WriterMsg::Checkpoint(reply_tx)) {
        Ok(()) => match reply_rx.recv() {
            Ok(Ok(lsn)) => format!("OK checkpoint lsn={lsn}\n"),
            Ok(Err(e)) => err_line(&e),
            Err(_) => err_line(&DogmatixError::Overloaded {
                message: "ingest writer unavailable".to_string(),
            }),
        },
        Err(TrySendError::Full(_)) => {
            shared.shed.fetch_add(1, Ordering::Relaxed);
            err_line(&DogmatixError::Overloaded {
                message: "ingest queue full".to_string(),
            })
        }
        Err(TrySendError::Disconnected(_)) => err_line(&DogmatixError::Overloaded {
            message: "ingest writer stopped".to_string(),
        }),
    }
}
