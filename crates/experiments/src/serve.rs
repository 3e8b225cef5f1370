//! `ftsched serve` — a streaming campaign service over raw
//! `std::net`, with optional durable runs under `--data-dir`.
//!
//! # Wire protocol
//!
//! Hand-rolled HTTP/1.1, one request per connection (`Connection:
//! close` on every response; the build environment has no HTTP
//! dependency and needs none):
//!
//! * `GET /healthz` → `200 ok` — liveness probe.
//! * `GET /metrics` → `200` with Prometheus text (`text/plain;
//!   version=0.0.4`): the always-on WAL counters
//!   `ftsched_wal_frames_total` (group frames committed),
//!   `ftsched_wal_syncs_total` (`fsync`s that committed them, one per
//!   batch) and `ftsched_wal_bytes_total` (their bytes, frame headers
//!   included), summed over every run since bind; all zero without a
//!   data dir. Frames equal the groups appended to the WALs on disk; a
//!   run that appends frames syncs at least once and at most once per
//!   frame.
//! * `POST /campaigns` with a [`CampaignSpec`] JSON body → `200` with
//!   `Transfer-Encoding: chunked` and `Content-Type: application/json`.
//!   The de-chunked body is **byte-identical** to the file the CLI
//!   writes for the same spec (`ftsched campaign … --out DIR` →
//!   `<id>.campaign.json`), so `cmp` between the two always passes.
//! * `GET /campaigns` → `200` with a JSON listing of every registered
//!   run (key, campaign id, group count, state, durable group count).
//! * `GET /campaigns/<key>` (16 hex digits, the idempotency key) →
//!   replays a completed run's exact bytes, waits on a running one,
//!   resumes a resumable one from its durable checkpoints (store mode;
//!   `409` without a store, since the spec is gone), `404` for unknown
//!   keys.
//! * Malformed requests never reach a worker: a body that is not valid
//!   JSON, does not decode as a spec, or fails
//!   [`CampaignSpec::validate`] is a `400`; a missing `Content-Length`
//!   is a `411`; a `Content-Length` over 1 MiB is a `413`, sent
//!   without reading the body; a request line plus headers over 16 KiB
//!   is a `431`; unknown paths are `404`, unsupported methods `405`.
//!   What the validator cannot see — a drawn instance that cannot take
//!   its granularity — comes back from the cell as a [`CampaignError`]
//!   and halts the run loudly (see below); a later request for the run
//!   gets a `500`.
//! * A client has 5 s from the moment a handler takes its connection to
//!   deliver the whole request, head and body; after that the
//!   connection is dropped. A silent or trickling client therefore
//!   holds a handler thread for at most that long, and no request grows
//!   a buffer past the head or body cap.
//! * A response goes out in slices of at most 64 KiB, and the client
//!   has 5 s to take each one, however it paces its reads within the
//!   slice: a client must read at least 64 KiB per 5 s (about 13 KB/s)
//!   while a response is pending. One that stops reading a streamed body
//!   fails the write like a hangup (see below), so it holds a handler
//!   thread for at most 5 s after its socket buffers fill.
//! * One request per connection: after the response (or a request that
//!   ends short of its `Content-Length`, which gets none) the server
//!   half-closes and discards whatever else the client sends until it
//!   has been idle for 50 ms, at most 1 MiB or 500 ms in all. Bytes
//!   pipelined after a request are never read as a second request, and
//!   closing with them unread cannot turn the close into a reset that
//!   cuts the response short.
//!
//! Each streamed chunk carries a `;seq=<n>` chunk extension with a
//! strictly increasing sequence number from 0 — standard de-chunkers
//! (curl included) ignore extensions, while protocol tests can assert
//! gapless ordering.
//!
//! # Sharding and determinism
//!
//! A run hands its missing **group index range** to the same executor
//! as the batch path, [`parallel_map_into`], on
//! [`ServeConfig::threads`] workers; group *i* covers the row-major
//! cell range `[i·reps, (i+1)·reps)`. Each worker keeps one
//! [`CellContext`] for every group it claims, evaluates the group's
//! cells through the batch path's dispatch and per-cell seeds, folds
//! them with the batch path's [`Aggregator`](crate::campaign::Aggregator)
//! and [`finalize_group`](crate::campaign::finalize_group), and renders
//! the group with [`json_group`]. A group's bytes are a pure function of
//! `(spec, group index)`, so responses are **byte-reproducible at any
//! thread count**. The executor delivers groups to the handler thread
//! strictly in index order, a run of ready groups at a time; each run is
//! made durable and then streamed as one batch (see below). How groups
//! split into batches depends on timing; the bytes on the wire never do.
//!
//! # Idempotency
//!
//! Specs are keyed by a content hash (FNV-1a of the canonical spec
//! JSON, re-serialized after parse + validate so formatting differences
//! collapse). Resubmitting a spec returns the existing run: the first
//! submission answers `X-Campaign-Run: new` and computes; concurrent or
//! later duplicates answer `X-Campaign-Run: existing` and replay the
//! stored bytes; a submission that picks up an interrupted durable run
//! answers `X-Campaign-Run: resumed` and re-executes only the missing
//! group range. Retries never re-execute a completed group or alter an
//! outcome.
//!
//! # Durability contract
//!
//! With [`ServeConfig::data_dir`] set, every run is backed by the
//! [`crate::store`] module (one live server per data directory):
//!
//! * **Submission is durable before computation.** The canonical spec
//!   and a `running` idempotency record are committed via atomic
//!   write-rename — tmp file, `fsync`, `rename`, directory `fsync` — so
//!   a record is always either absent or complete, never torn.
//! * **A group is durable before it is visible.** The handler thread
//!   commits groups in batches (group commit): each time the executor
//!   hands it the run of groups rendered and next in order, it appends
//!   all their frames to the run's checksummed WAL with one write and
//!   one `fsync`, and only **then** writes all their chunks to the
//!   socket in one write. A client can never observe bytes a crash could
//!   un-happen, and the WAL prefix is always exactly groups `0..k`. A
//!   batch that fails to commit streams none of its groups. The batch
//!   is whatever is ready — there is no size cap and no linger timer —
//!   so a slow `fsync` lets more groups pile up for the next one.
//! * **Completion is a single record flip.** After the last group frame
//!   is durable, the record moves `running → completed` with the result
//!   fingerprint (rolling FNV-1a over the group payloads); that atomic
//!   rename is the commit point of the whole run.
//! * **Recovery trusts only persisted state.** On bind the server scans
//!   the data dir: orphaned tmp files are deleted, torn WAL tails are
//!   truncated back to the last whole checksummed frame (a WAL without
//!   a whole magic header, such as the empty file a crash before its
//!   header was synced leaves, is rewritten fresh), `running`
//!   records are demoted to `resumable` (the process died mid-run), and
//!   `completed` records are re-verified against the replayed WAL —
//!   a fingerprint mismatch demotes to `resumable` rather than serving
//!   wrong bytes. No in-memory state survives; nothing else is needed.
//! * **`resumable` means bit-exact continuation.** A resumable run
//!   holds a valid WAL prefix of groups `0..k` and its spec; resuming
//!   replays those frames and re-executes only groups `k..n`, and
//!   because group bytes are pure functions of `(spec, group index)`
//!   the final body is byte-identical to an uninterrupted run at any
//!   thread count. The replayed prefix goes out in the same write as the
//!   response head. A client hangup mid-stream likewise releases the run
//!   slot as `resumable` at its count of `fsync`ed frames —
//!   completed-group checkpoints are never discarded with the
//!   connection.
//!
//! # Backpressure and failure policy
//!
//! The gateway follows the waiver-exchange queue discipline: ingress is
//! a **non-blocking** bounded handoff (`try_send`; a full queue is an
//! immediate `503` with a `Retry-After` header, the acceptor never
//! blocks), and the per-run result sink is **lossless** — group results
//! are never dropped. If a cell fails mid-run (an instance that cannot
//! take its granularity, [`CampaignError::Granularity`]), the durable
//! store fails a persistence operation ([`CampaignError::Store`]), or
//! the run's computation panics (a spec shape `validate` missed), the
//! run halts loudly: the groups before it are still made durable and
//! streamed (a failing group ends its batch, and the groups ahead of it
//! in the batch are committed and sent first), no further group is
//! started, the error is logged, the chunked stream is cut without its
//! terminating chunk (clients see a transfer error, never silently
//! truncated data), the run slot is marked failed (a panic's message
//! quotes its payload) — and the server and the handler thread stay
//! alive.

use crate::campaign::{
    evaluate_group, CampaignError, CampaignSpec, CellContext, CellPlan, StoreIoError,
};
use crate::output::{json_document, json_group, json_group_lead, json_head, JSON_TAIL};
use crate::parallel::{default_threads, parallel_map_into};
use crate::store::{fnv1a, key_hex, Fingerprint, RunState, Store, WalWriter};
use std::any::Any;
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::mpsc::{sync_channel, TrySendError};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Cap on the request line plus headers, in bytes (`431` above it).
const MAX_HEAD: u64 = 16 * 1024;

/// Cap on a request body, in bytes (`413` above it).
const MAX_BODY: usize = 1 << 20;

/// How long a client has, once a handler takes its connection, to
/// deliver its whole request (head and body).
const READ_DEADLINE: Duration = Duration::from_secs(5);

/// How long a client has to take each [`WRITE_SLICE`] of a response
/// before the connection is dropped: a client that stops reading a
/// streamed body fails the write like a hangup, so its run settles as
/// resumable and the handler is free again.
const WRITE_STALL_DEADLINE: Duration = Duration::from_secs(5);

/// The most of a response one [`DeadlineWriter`] write hands the socket
/// under one [`WRITE_STALL_DEADLINE`].
const WRITE_SLICE: usize = 64 * 1024;

/// The chunk that ends a chunked body.
const LAST_CHUNK: &[u8] = b"0\r\n\r\n";

/// Tuning knobs of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Executor workers per campaign run (`0` resolves like the CLI:
    /// `FTSCHED_THREADS` or the available parallelism).
    pub threads: usize,
    /// Depth of the bounded ingress queue; a connection arriving while
    /// it is full is answered `503` without blocking the acceptor.
    pub queue: usize,
    /// Connection-handler threads (concurrent in-flight requests).
    pub handlers: usize,
    /// Durable run store directory (`None` keeps PR 7's in-memory-only
    /// registry). At most one live server per directory.
    pub data_dir: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            threads: 0,
            queue: 32,
            handlers: 4,
            data_dir: None,
        }
    }
}

/// One registered campaign run, keyed by spec content hash.
#[derive(Debug)]
struct RunSlot {
    /// The spec's campaign id (for listings and replayed prefixes).
    campaign: String,
    /// Total group count of the run.
    groups: usize,
    state: Mutex<SlotState>,
    ready: Condvar,
}

#[derive(Debug)]
enum SlotState {
    /// A submitter is computing and streaming.
    Running,
    /// Interrupted (crash recovery or client hangup): `groups_done`
    /// groups are durable, the next claimant resumes from there.
    Resumable {
        /// Number of WAL-committed groups (0 without a store).
        groups_done: usize,
    },
    /// Finished: the exact response body, replayed to duplicates.
    Done(Arc<String>),
    /// Halted loudly; duplicates get a `500` with the message.
    Failed(String),
}

struct Registry {
    runs: Mutex<HashMap<u64, Arc<RunSlot>>>,
    store: Option<Store>,
}

/// The idempotency key of a spec: the FNV-1a content hash of its
/// canonical JSON (16 hex digits in URLs and store file names).
pub fn spec_key(spec: &CampaignSpec) -> u64 {
    fnv1a(
        spec.to_json()
            .expect("validated specs always re-serialize")
            .bytes(),
    )
}

// --- HTTP plumbing -----------------------------------------------------

fn write_response(
    stream: &mut impl Write,
    status: &str,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &str,
) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n",
        body.len()
    );
    for (k, v) in extra_headers {
        head.push_str(k);
        head.push_str(": ");
        head.push_str(v);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

fn write_error(stream: &mut impl Write, status: &str, message: &str) -> io::Result<()> {
    write_error_with(stream, status, &[], message)
}

fn write_error_with(
    stream: &mut impl Write,
    status: &str,
    extra_headers: &[(&str, &str)],
    message: &str,
) -> io::Result<()> {
    let body = format!(
        "{{\n  \"error\": {}\n}}",
        serde_json::to_string(&message).expect("strings always serialize")
    );
    write_response(stream, status, "application/json", extra_headers, &body)
}

/// Appends the status line and headers of a chunked campaign response
/// whose `X-Campaign-Run` is `mode`.
fn push_chunked_head(wire: &mut Vec<u8>, mode: &str) {
    write!(
        wire,
        "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
         Transfer-Encoding: chunked\r\nX-Campaign-Run: {mode}\r\n\
         Connection: close\r\n\r\n"
    )
    .expect("writing to a Vec cannot fail");
}

/// Appends one chunk of a chunked response, the concatenation of
/// `parts`, tagged with its sequence number as a chunk extension
/// (`<size-hex>;seq=<n>`). De-chunkers ignore the extension; protocol
/// tests assert the numbers are gapless from 0.
fn push_chunk(wire: &mut Vec<u8>, seq: usize, parts: &[&str]) {
    let len: usize = parts.iter().map(|p| p.len()).sum();
    write!(wire, "{len:x};seq={seq}\r\n").expect("writing to a Vec cannot fail");
    for part in parts {
        wire.extend_from_slice(part.as_bytes());
    }
    wire.extend_from_slice(b"\r\n");
}

/// Sends `wire` in one write and empties it for the next batch.
fn send(stream: &mut impl Write, wire: &mut Vec<u8>) -> io::Result<()> {
    stream.write_all(wire)?;
    stream.flush()?;
    wire.clear();
    Ok(())
}

/// Streams a settled run's exact body as a single replayed chunk.
fn replay_existing(stream: &mut impl Write, body: &str) -> io::Result<()> {
    let mut wire = Vec::with_capacity(body.len() + 256);
    push_chunked_head(&mut wire, "existing");
    push_chunk(&mut wire, 0, &[body]);
    wire.extend_from_slice(LAST_CHUNK);
    send(stream, &mut wire)
}

struct Request {
    method: String,
    path: String,
    content_length: Option<usize>,
    expect_continue: bool,
}

/// The read half of a connection: each read waits only for what is left
/// of the request's [`READ_DEADLINE`], so the deadline holds however the
/// client paces its bytes.
struct DeadlineReader {
    stream: TcpStream,
    until: Instant,
}

impl Read for DeadlineReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let left = self.until.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "request not received within the read deadline",
            ));
        }
        self.stream.set_read_timeout(Some(left))?;
        self.stream.read(buf)
    }
}

/// The write half of a connection: each write hands the socket at most
/// [`WRITE_SLICE`] bytes and gives them one [`WRITE_STALL_DEADLINE`] in
/// all. Partial progress within the slice keeps the clock running, so
/// however the client paces its reads (the kernel's zero-window probes
/// free a little buffer now and then), it must take each slice within
/// the deadline or the write fails.
struct DeadlineWriter {
    stream: TcpStream,
}

impl Write for DeadlineWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let slice = &buf[..buf.len().min(WRITE_SLICE)];
        let until = Instant::now() + WRITE_STALL_DEADLINE;
        let mut sent = 0;
        while sent < slice.len() {
            let left = until.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "client did not take the response within the write deadline",
                ));
            }
            self.stream.set_write_timeout(Some(left))?;
            match self.stream.write(&slice[sent..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(k) => sent += k,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(sent)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.stream.flush()
    }
}

/// Reads the request line and headers, at most [`MAX_HEAD`] bytes of
/// them; `None` when they do not fit.
fn read_request(reader: &mut BufReader<DeadlineReader>) -> io::Result<Option<Request>> {
    let mut head = reader.take(MAX_HEAD);
    // A line is cut short by end of input (kept, as a truncated request)
    // or by the cap (the head is too large).
    let mut read_line = |buf: &mut String| -> io::Result<bool> {
        head.read_line(buf)?;
        Ok(buf.ends_with('\n') || head.limit() > 0)
    };
    let mut line = String::new();
    if !read_line(&mut line)? {
        return Ok(None);
    }
    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or_default().to_string();
    let path = parts.next().unwrap_or_default().to_string();
    let mut content_length = None;
    let mut expect_continue = false;
    loop {
        let mut header = String::new();
        if !read_line(&mut header)? {
            return Ok(None);
        }
        if header.is_empty() {
            break;
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.parse::<usize>().ok();
            } else if name.eq_ignore_ascii_case("expect")
                && value.eq_ignore_ascii_case("100-continue")
            {
                expect_continue = true;
            }
        }
    }
    Ok(Some(Request {
        method,
        path,
        content_length,
        expect_continue,
    }))
}

/// Half-closes `stream` and drains what the client may still be sending,
/// until it has been idle for 50 ms, at most [`MAX_BODY`] bytes or
/// 500 ms in all, so a fast sender cannot pin the caller. Closing with
/// unread data turns the close into an RST that can destroy the
/// response before the client reads it.
fn drain_and_close(stream: &mut TcpStream) {
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let until = Instant::now() + Duration::from_millis(500);
    let mut sink = [0u8; 16 << 10];
    let mut drained = 0;
    while drained < MAX_BODY {
        let left = until.saturating_duration_since(Instant::now());
        if left.is_zero()
            || stream
                .set_read_timeout(Some(left.min(Duration::from_millis(50))))
                .is_err()
        {
            break;
        }
        match stream.read(&mut sink) {
            Ok(n) if n > 0 => drained += n,
            _ => break,
        }
    }
}

/// The streaming campaign server. Bind, then [`Server::run`].
pub struct Server {
    listener: TcpListener,
    config: ServeConfig,
    registry: Arc<Registry>,
}

impl Server {
    /// Binds the listener (`127.0.0.1:0` picks an ephemeral port for
    /// tests; read it back with [`Server::local_addr`]). With a
    /// [`ServeConfig::data_dir`], runs the recovery bootstrap first:
    /// every persisted run is loaded into the registry — completed runs
    /// replay, interrupted ones come back `resumable` — before a single
    /// connection is accepted. A data directory the store cannot make
    /// sense of (unparseable run record) fails the bind loudly rather
    /// than silently shadowing durable state.
    pub fn bind(addr: impl ToSocketAddrs, config: ServeConfig) -> io::Result<Server> {
        let store = match &config.data_dir {
            Some(dir) => Some(Store::open(dir)?),
            None => None,
        };
        let mut runs = HashMap::new();
        if let Some(store) = &store {
            for run in store.recover()? {
                let state = match run.record.state {
                    RunState::Completed => {
                        SlotState::Done(Arc::new(json_document(&run.record.campaign, &run.groups)))
                    }
                    RunState::Running | RunState::Resumable => SlotState::Resumable {
                        groups_done: run.groups_done,
                    },
                    RunState::Failed => SlotState::Failed(
                        run.record
                            .error
                            .clone()
                            .unwrap_or_else(|| "persisted failure".to_string()),
                    ),
                };
                runs.insert(
                    run.key,
                    Arc::new(RunSlot {
                        campaign: run.record.campaign.clone(),
                        groups: run.record.groups,
                        state: Mutex::new(state),
                        ready: Condvar::new(),
                    }),
                );
            }
        }
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            config,
            registry: Arc::new(Registry {
                runs: Mutex::new(runs),
                store,
            }),
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Accept loop: never returns under normal operation. Accepted
    /// connections are handed to the bounded ingress queue
    /// non-blockingly; handler threads drain it.
    pub fn run(self) -> io::Result<()> {
        let threads = if self.config.threads == 0 {
            default_threads()
        } else {
            self.config.threads
        };
        let (tx, rx) = sync_channel::<TcpStream>(self.config.queue.max(1));
        let rx = Arc::new(Mutex::new(rx));
        for _ in 0..self.config.handlers.max(1) {
            let rx = Arc::clone(&rx);
            let registry = Arc::clone(&self.registry);
            thread::spawn(move || loop {
                let next = rx.lock().expect("ingress lock").recv();
                match next {
                    Ok(stream) => handle_connection(stream, &registry, threads),
                    Err(_) => return,
                }
            });
        }
        for conn in self.listener.incoming() {
            let stream = conn?;
            match tx.try_send(stream) {
                Ok(()) => {}
                Err(TrySendError::Full(mut stream)) => {
                    // Non-blocking ingress: shed load immediately, tell
                    // the client when to come back.
                    let _ = write_error_with(
                        &mut stream,
                        "503 Service Unavailable",
                        &[("Retry-After", "1")],
                        "campaign queue full, retry later",
                    );
                    drain_and_close(&mut stream);
                }
                Err(TrySendError::Disconnected(_)) => return Ok(()),
            }
        }
        Ok(())
    }
}

fn handle_connection(stream: TcpStream, registry: &Registry, threads: usize) {
    let peer = stream.peer_addr().ok();
    if let Err(e) = try_handle(stream, registry, threads) {
        // An I/O failure on one connection (client hung up mid-stream,
        // …) must never take the server down.
        eprintln!("serve: connection {peer:?} dropped: {e}");
    }
}

/// Answers the one request on `stream`, then half-closes it and drains
/// what the client still sends (see [`drain_and_close`]), also when the
/// request failed.
fn try_handle(stream: TcpStream, registry: &Registry, threads: usize) -> io::Result<()> {
    let mut reader = BufReader::new(DeadlineReader {
        stream: stream.try_clone()?,
        until: Instant::now() + READ_DEADLINE,
    });
    let mut stream = DeadlineWriter { stream };
    let answered = answer(&mut reader, &mut stream, registry, threads);
    drain_and_close(&mut stream.stream);
    answered
}

/// Reads the request and writes its one response.
fn answer(
    reader: &mut BufReader<DeadlineReader>,
    stream: &mut DeadlineWriter,
    registry: &Registry,
    threads: usize,
) -> io::Result<()> {
    let Some(req) = read_request(reader)? else {
        return write_error(
            stream,
            "431 Request Header Fields Too Large",
            "request line and headers exceed 16 KiB",
        );
    };
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => write_response(stream, "200 OK", "application/json", &[], "ok\n"),
        ("GET", "/metrics") => handle_metrics(stream, registry),
        ("GET", "/campaigns") => handle_listing(stream, registry),
        ("GET", path) if path.starts_with("/campaigns/") => {
            let key_text = &path["/campaigns/".len()..];
            match u64::from_str_radix(key_text, 16) {
                Ok(key) if key_text.len() == 16 => handle_lookup(stream, registry, threads, key),
                _ => write_error(stream, "404 Not Found", "campaign keys are 16 hex digits"),
            }
        }
        ("POST", "/campaigns") => {
            let Some(len) = req.content_length else {
                return write_error(
                    stream,
                    "411 Length Required",
                    "POST /campaigns needs a Content-Length",
                );
            };
            if len > MAX_BODY {
                return write_error(
                    stream,
                    "413 Content Too Large",
                    "campaign spec exceeds the body limit",
                );
            }
            if req.expect_continue {
                stream.write_all(b"HTTP/1.1 100 Continue\r\n\r\n")?;
                stream.flush()?;
            }
            let mut body = vec![0u8; len];
            reader.read_exact(&mut body)?;
            let body = match String::from_utf8(body) {
                Ok(s) => s,
                Err(_) => return write_error(stream, "400 Bad Request", "body is not UTF-8"),
            };
            handle_submission(stream, registry, threads, &body)
        }
        ("GET" | "POST", _) => write_error(stream, "404 Not Found", "no such resource"),
        _ => write_error(stream, "405 Method Not Allowed", "unsupported method"),
    }
}

/// `GET /metrics`: the store's WAL counters in the Prometheus text
/// format, all zero without a data dir. Each counter is read on its own,
/// so a scrape taken while a batch commits may split it.
fn handle_metrics(stream: &mut impl Write, registry: &Registry) -> io::Result<()> {
    let (syncs, frames, bytes) = registry.store.as_ref().map_or((0, 0, 0), |store| {
        let c = store.wal_counters();
        (c.syncs(), c.frames(), c.bytes())
    });
    let mut body = String::new();
    for (name, help, value) in [
        (
            "ftsched_wal_syncs_total",
            "WAL fsyncs that committed group frames, one per batch.",
            syncs,
        ),
        (
            "ftsched_wal_frames_total",
            "WAL group frames committed (written and fsynced).",
            frames,
        ),
        (
            "ftsched_wal_bytes_total",
            "Bytes of committed WAL frames, frame headers included.",
            bytes,
        ),
    ] {
        body.push_str(&format!(
            "# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}\n"
        ));
    }
    write_response(stream, "200 OK", "text/plain; version=0.0.4", &[], &body)
}

/// `GET /campaigns`: a point-in-time JSON listing of the registry,
/// sorted by key.
fn handle_listing(stream: &mut impl Write, registry: &Registry) -> io::Result<()> {
    let mut entries: Vec<(u64, String, usize, &'static str, usize)> = {
        let runs = registry.runs.lock().expect("registry lock");
        runs.iter()
            .map(|(&key, slot)| {
                let (state, groups_done) = match &*slot.state.lock().expect("slot lock") {
                    SlotState::Running => ("running", 0),
                    SlotState::Resumable { groups_done } => ("resumable", *groups_done),
                    SlotState::Done(_) => ("completed", slot.groups),
                    SlotState::Failed(_) => ("failed", 0),
                };
                (key, slot.campaign.clone(), slot.groups, state, groups_done)
            })
            .collect()
    };
    entries.sort_unstable_by_key(|e| e.0);
    let mut body = String::from("{\n  \"runs\": [");
    for (i, (key, campaign, groups, state, groups_done)) in entries.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&format!(
            "\n    {{\n      \"key\": \"{}\",\n      \"campaign\": {},\n      \
             \"groups\": {},\n      \"state\": \"{}\",\n      \"groups_done\": {}\n    }}",
            key_hex(*key),
            serde_json::to_string(campaign).expect("strings always serialize"),
            groups,
            state,
            groups_done
        ));
    }
    if !entries.is_empty() {
        body.push_str("\n  ");
    }
    body.push_str("]\n}");
    write_response(stream, "200 OK", "application/json", &[], &body)
}

/// What a connection holding a run slot is entitled to do with it.
enum Claim {
    /// This connection owns the computation; the slot is `Running`.
    /// `groups_done` counts durable groups to replay first (0 fresh).
    Compute {
        groups_done: usize,
    },
    Replay(Arc<String>),
    Failed(String),
}

/// Waits out a running computation and claims the slot's settled state:
/// a `Resumable` slot is atomically flipped back to `Running` — exactly
/// one waiter wins and re-computes, the rest keep waiting on it.
fn claim_slot(slot: &RunSlot) -> Claim {
    let mut state = slot.state.lock().expect("slot lock");
    loop {
        match &*state {
            SlotState::Running => state = slot.ready.wait(state).expect("slot lock"),
            SlotState::Resumable { groups_done } => {
                let groups_done = *groups_done;
                *state = SlotState::Running;
                return Claim::Compute { groups_done };
            }
            SlotState::Done(body) => return Claim::Replay(Arc::clone(body)),
            SlotState::Failed(msg) => return Claim::Failed(msg.clone()),
        }
    }
}

fn settle(slot: &RunSlot, state: SlotState) {
    *slot.state.lock().expect("slot lock") = state;
    slot.ready.notify_all();
}

fn handle_submission(
    stream: &mut impl Write,
    registry: &Registry,
    threads: usize,
    body: &str,
) -> io::Result<()> {
    // Every request passes the hardened validator before it can touch a
    // worker: executor error paths are unreachable from the wire.
    let spec = match CampaignSpec::from_json(body) {
        Ok(spec) => spec,
        Err(e) => return write_error(stream, "400 Bad Request", &format!("invalid spec: {e}")),
    };
    if let Err(e) = spec.validate() {
        return write_error(stream, "400 Bad Request", &format!("invalid spec: {e}"));
    }
    let canonical = spec.to_json().expect("validated specs always re-serialize");
    let key = fnv1a(canonical.bytes());

    // Idempotency-key reservation: exactly one submitter computes.
    let (slot, claim) = {
        let mut runs = registry.runs.lock().expect("registry lock");
        match runs.get(&key) {
            Some(slot) => (Arc::clone(slot), None),
            None => {
                let slot = Arc::new(RunSlot {
                    campaign: spec.id.clone(),
                    groups: spec.num_groups(),
                    state: Mutex::new(SlotState::Running),
                    ready: Condvar::new(),
                });
                runs.insert(key, Arc::clone(&slot));
                (slot, Some(Claim::Compute { groups_done: 0 }))
            }
        }
    };
    let (claim, fresh) = match claim {
        Some(c) => (c, true),
        None => (claim_slot(&slot), false),
    };

    match claim {
        Claim::Replay(body) => replay_existing(stream, &body),
        Claim::Failed(msg) => write_error(stream, "500 Internal Server Error", &msg),
        Claim::Compute { groups_done } => compute_run(
            stream,
            registry,
            &slot,
            key,
            &spec,
            &canonical,
            threads,
            !fresh,
            groups_done,
        ),
    }
}

/// `GET /campaigns/<key>`: replay, wait, or resume a registered run.
fn handle_lookup(
    stream: &mut impl Write,
    registry: &Registry,
    threads: usize,
    key: u64,
) -> io::Result<()> {
    let slot = {
        let runs = registry.runs.lock().expect("registry lock");
        runs.get(&key).cloned()
    };
    let Some(slot) = slot else {
        return write_error(stream, "404 Not Found", "no campaign run under this key");
    };
    match claim_slot(&slot) {
        Claim::Replay(body) => replay_existing(stream, &body),
        Claim::Failed(msg) => write_error(stream, "500 Internal Server Error", &msg),
        Claim::Compute { groups_done } => {
            let Some(store) = &registry.store else {
                // No durable spec to recompute from — hand the slot
                // back exactly as claimed.
                settle(&slot, SlotState::Resumable { groups_done });
                return write_error(
                    stream,
                    "409 Conflict",
                    "run is resumable but the server has no data dir; \
                     resubmit the spec to POST /campaigns",
                );
            };
            let parsed = store
                .load_spec(key)
                .map_err(|e| format!("persisted spec unreadable: {e}"))
                .and_then(|json| {
                    CampaignSpec::from_json(&json)
                        .map(|spec| (spec, json))
                        .map_err(|e| format!("persisted spec unparseable: {e}"))
                });
            match parsed {
                Ok((spec, canonical)) => compute_run(
                    stream,
                    registry,
                    &slot,
                    key,
                    &spec,
                    &canonical,
                    threads,
                    true,
                    groups_done,
                ),
                Err(msg) => {
                    settle(&slot, SlotState::Resumable { groups_done });
                    write_error(stream, "500 Internal Server Error", &msg)
                }
            }
        }
    }
}

/// Runs (or resumes) a claimed computation and settles the slot. The
/// caller has already flipped the slot to `Running`.
#[allow(clippy::too_many_arguments)]
fn compute_run(
    stream: &mut impl Write,
    registry: &Registry,
    slot: &RunSlot,
    key: u64,
    spec: &CampaignSpec,
    canonical: &str,
    threads: usize,
    resuming: bool,
    groups_done: usize,
) -> io::Result<()> {
    // Durable setup happens before the response header: a store that
    // cannot even register the run is a clean 500, not a cut stream.
    let mut replayed: Vec<String> = Vec::new();
    let mut wal: Option<WalWriter> = None;
    if let Some(store) = &registry.store {
        let (setup, operation) = if resuming {
            (
                store.resume_run(key).map(|(groups, writer)| {
                    replayed = groups;
                    writer
                }),
                "resuming the run",
            )
        } else {
            (
                store.begin_run(key, &spec.id, canonical, spec.num_groups()),
                "registering the run",
            )
        };
        match setup {
            Ok(writer) => wal = Some(writer),
            Err(e) => {
                let err = CampaignError::Store {
                    campaign: spec.id.clone(),
                    operation,
                    source: StoreIoError::new(e),
                };
                let msg = format!("campaign halted: {err}");
                eprintln!("serve: campaign {} halted: {err}", spec.id);
                settle(slot, SlotState::Failed(msg.clone()));
                return write_error(stream, "500 Internal Server Error", &msg);
            }
        }
    } else if resuming {
        // Without a store there are no checkpoints to replay: the
        // "resume" is a full, fresh recomputation.
        debug_assert_eq!(groups_done, 0);
    }

    // Lossless sink, halting loudly: the failure is recorded and
    // reported, nothing is silently dropped, the server lives on.
    let halt = |reason: String| {
        let msg = format!("campaign halted: {reason}");
        eprintln!("serve: campaign {} halted: {reason}", spec.id);
        if let Some(store) = &registry.store {
            let _ = store.fail_run(key, &msg);
        }
        settle(slot, SlotState::Failed(msg));
        Ok(())
    };
    // A panic anywhere in the run, sink included, halts it like a failing
    // group: the unwind stops here, so the slot settles and the handler
    // thread lives on.
    match panic::catch_unwind(AssertUnwindSafe(|| {
        stream_run(stream, spec, threads, replayed, wal.as_mut())
    })) {
        Ok(Ok(run)) => {
            if let Some(store) = &registry.store {
                if let Err(e) = store.complete_run(key, run.fingerprint) {
                    // Best-effort: every group frame is already durable,
                    // and recovery re-verifies completion from the WAL.
                    eprintln!(
                        "serve: campaign {}: completion record not persisted: {e}",
                        spec.id
                    );
                }
            }
            settle(slot, SlotState::Done(Arc::new(run.body)));
            Ok(())
        }
        Ok(Err(StreamError::Campaign(e))) => halt(e.to_string()),
        Err(payload) => halt(format!("the run panicked: {}", panic_text(&*payload))),
        Ok(Err(StreamError::Io(e))) => {
            // The run itself did not fail — the client went away. The
            // slot goes back to resumable with its durable checkpoints
            // intact; a retry resumes instead of starting over.
            if let Some(store) = &registry.store {
                let _ = store.mark_resumable(key);
            }
            let groups_done = wal.as_ref().map_or(0, WalWriter::next_group);
            settle(slot, SlotState::Resumable { groups_done });
            Err(io::Error::new(e.kind(), e.to_string()))
        }
    }
}

enum StreamError {
    Io(io::Error),
    Campaign(CampaignError),
}

impl From<io::Error> for StreamError {
    fn from(e: io::Error) -> Self {
        StreamError::Io(e)
    }
}

/// The message of a panic payload (`panic!` and `assert!` leave a
/// `&str` or a `String`).
fn panic_text(payload: &(dyn Any + Send)) -> &str {
    (payload.downcast_ref::<&str>().copied())
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("a panic without a message")
}

struct RunOutcome {
    /// The complete response body (for idempotency replays).
    body: String,
    /// Rolling FNV-1a over the raw group payloads (the store's result
    /// fingerprint).
    fingerprint: u64,
}

/// Streams a run: replays the durable groups, then runs the missing
/// group range through [`parallel_map_into`]. Workers evaluate and
/// render groups; this thread takes each run of ready groups as one
/// batch: it appends all their WAL frames and `fsync`s once, then folds
/// them into the fingerprint and writes all their chunks in one write,
/// so a group is durable **before** any byte of its chunk hits the
/// socket. A failing group ends its batch: the groups before it are
/// committed and streamed, then its error is returned.
fn stream_run(
    stream: &mut impl Write,
    spec: &CampaignSpec,
    threads: usize,
    replayed: Vec<String>,
    mut wal: Option<&mut WalWriter>,
) -> Result<RunOutcome, StreamError> {
    let plan = CellPlan::new(spec);
    let n = spec.num_groups();
    let mut groups = replayed;
    groups.truncate(n);
    let start = groups.len();
    let mut fingerprint = Fingerprint::new();
    // Renders `groups[from..]` into `wire`, one chunk each; group `gi`
    // is chunk `gi + 1`, after the head.
    let mut push_groups = |wire: &mut Vec<u8>, groups: &[String], from: usize| {
        for (gi, group) in groups.iter().enumerate().skip(from) {
            fingerprint.push_group(group);
            push_chunk(wire, gi + 1, &[json_group_lead(gi), group]);
        }
    };

    // The head, then the durable prefix: groups 0..start come from the
    // WAL, byte-identical to what the interrupted run streamed (and what
    // an uninterrupted run would compute).
    let mut wire = Vec::new();
    push_chunked_head(&mut wire, if start == 0 { "new" } else { "resumed" });
    push_chunk(&mut wire, 0, &[&json_head(&spec.id)]);
    push_groups(&mut wire, &groups, 0);
    send(stream, &mut wire)?;
    parallel_map_into(
        n - start,
        threads,
        CellContext::new,
        |ctx, k| evaluate_group(spec, &plan, start + k, ctx).map(|g| json_group(&g)),
        |_, run| {
            let from = groups.len();
            let mut failure = None;
            for rendered in run {
                match rendered {
                    Ok(group) => groups.push(group),
                    Err(e) => {
                        failure = Some(e);
                        break;
                    }
                }
            }
            if let Some(writer) = wal.as_deref_mut() {
                writer
                    .append_batch(groups[from..].iter().map(String::as_bytes))
                    .map_err(|e| {
                        StreamError::Campaign(CampaignError::Store {
                            campaign: spec.id.clone(),
                            operation: "appending group frames",
                            source: StoreIoError::new(e),
                        })
                    })?;
            }
            if groups.len() > from {
                push_groups(&mut wire, &groups, from);
                send(stream, &mut wire)?;
            }
            failure.map_or(Ok(()), |e| Err(StreamError::Campaign(e)))
        },
    )?;
    push_chunk(&mut wire, n + 1, &[JSON_TAIL]);
    wire.extend_from_slice(LAST_CHUNK);
    send(stream, &mut wire)?;
    Ok(RunOutcome {
        body: json_document(&spec.id, &groups),
        fingerprint: fingerprint.finish(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{presets, run_campaign_with_threads, CampaignResult, PlatformSpec};
    use crate::output::campaign_to_json;

    fn smoke() -> (CampaignSpec, CampaignResult) {
        let spec = presets::preset("ci-smoke", Some(2)).expect("preset");
        let res = run_campaign_with_threads(&spec, 2).expect("valid spec");
        (spec, res)
    }

    /// The de-chunked body of a chunked HTTP response.
    fn de_chunk(response: &[u8]) -> String {
        let text = std::str::from_utf8(response).expect("UTF-8 response");
        let (_, mut rest) = text.split_once("\r\n\r\n").expect("header block");
        let mut body = String::new();
        loop {
            let (size_line, after) = rest.split_once("\r\n").expect("chunk size line");
            let size_hex = size_line.split(';').next().unwrap_or_default();
            let size = usize::from_str_radix(size_hex, 16).expect("hex chunk size");
            if size == 0 {
                return body;
            }
            body.push_str(&after[..size]);
            rest = &after[size + 2..];
        }
    }

    /// The streamed body, and the body kept for replays, are
    /// byte-identical to the batch emission at any thread count — the
    /// contract the CI `cmp` steps and the serve loopback tests build on.
    #[test]
    fn render_pinned_to_batch_json() {
        let (spec, res) = smoke();
        let batch = campaign_to_json(&res);
        for threads in [1, 3] {
            let mut wire = Vec::new();
            let run = stream_run(&mut wire, &spec, threads, Vec::new(), None)
                .unwrap_or_else(|_| panic!("stream at {threads} thread(s)"));
            assert_eq!(de_chunk(&wire), batch, "threads = {threads}");
            assert_eq!(run.body, batch, "threads = {threads}");
        }
        // A resumed run streams its replayed prefix and computes the rest.
        let prefix = vec![json_group(&res.groups[0])];
        let mut wire = Vec::new();
        let run = stream_run(&mut wire, &spec, 2, prefix, None).unwrap_or_else(|_| panic!());
        assert_eq!(de_chunk(&wire), batch);
        assert_eq!(run.body, batch);
    }

    #[test]
    fn content_hash_collapses_formatting_not_content() {
        let a = presets::preset("ci-smoke", Some(2)).expect("preset");
        let compact = serde_json::to_string(&a).expect("spec serializes");
        let b = CampaignSpec::from_json(&compact).expect("compact spec parses");
        assert_eq!(spec_key(&a), spec_key(&b));
        assert_eq!(spec_key(&a), fnv1a(a.to_json().unwrap().bytes()));
        let mut c = a.clone();
        c.seed ^= 1;
        assert_ne!(spec_key(&a), spec_key(&c));
    }

    /// The store's fingerprint (over raw group payloads) must be
    /// reproducible from the rendered groups alone — recovery relies on
    /// re-deriving it without a live run.
    #[test]
    fn fingerprint_reproducible_from_rendered_groups() {
        let (spec, res) = smoke();
        let mut expected = Fingerprint::new();
        for group in &res.groups {
            expected.push_group(&json_group(group));
        }
        let run = stream_run(&mut Vec::new(), &spec, 2, Vec::new(), None)
            .unwrap_or_else(|_| panic!("stream"));
        assert_eq!(run.fingerprint, expected.finish());
    }

    /// A run whose computation panics settles its slot as failed and
    /// returns, with a store and without. The spec skips `validate`: a
    /// heterogeneity of 1 on the second platform point asserts in the
    /// execution-time draw of group `ε-count`, after the groups of the
    /// first point. Those stay committed, the stream is cut without its
    /// last chunk, and the store reads the run as failed.
    #[test]
    fn a_panicking_run_settles_its_slot_as_failed() {
        let mut spec = presets::preset("ci-smoke", Some(1)).expect("preset");
        spec.platforms[1].heterogeneity = 1.0;
        let canonical = spec.to_json().expect("spec serializes");
        let key = fnv1a(canonical.bytes());
        let committed = spec.epsilons.len();
        let dir = std::env::temp_dir().join(format!("ftsched_serve_panic_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        for store in [None, Some(Store::open(&dir).expect("store"))] {
            let registry = Registry {
                runs: Mutex::new(HashMap::new()),
                store,
            };
            let slot = RunSlot {
                campaign: spec.id.clone(),
                groups: spec.num_groups(),
                state: Mutex::new(SlotState::Running),
                ready: Condvar::new(),
            };
            let mut wire = Vec::new();
            compute_run(
                &mut wire, &registry, &slot, key, &spec, &canonical, 2, false, 0,
            )
            .expect("the run halts, the connection does not fail");
            let Claim::Failed(msg) = claim_slot(&slot) else {
                panic!("the slot must settle as failed");
            };
            assert!(
                msg.starts_with("campaign halted: the run panicked: spread 1 outside 0.0..1.0"),
                "{msg}"
            );
            assert!(!wire.ends_with(LAST_CHUNK), "the stream is cut");
            let text = String::from_utf8_lossy(&wire);
            assert!(text.contains(&format!(";seq={committed}\r\n")));
            assert!(!text.contains(&format!(";seq={}\r\n", committed + 1)));
            if let Some(store) = &registry.store {
                let runs = store.recover().expect("recover");
                assert_eq!(runs.len(), 1);
                assert_eq!(runs[0].record.state, RunState::Failed);
                assert_eq!(runs[0].record.error.as_deref(), Some(msg.as_str()));
                assert_eq!(runs[0].groups_done, committed);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A socket stand-in that checks, on every write, that each group
    /// chunk written so far already has its frame in the WAL file.
    struct WalOrderedWire {
        wal: std::path::PathBuf,
        groups: usize,
        wire: Vec<u8>,
        writes: usize,
    }

    impl Write for WalOrderedWire {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.wire.extend_from_slice(buf);
            self.writes += 1;
            // Group `gi` travels as chunk `seq = gi + 1`; the tail is `n + 1`.
            let text = String::from_utf8_lossy(&self.wire);
            let streamed = text
                .split(";seq=")
                .skip(1)
                .filter_map(|rest| rest.split("\r\n").next()?.parse::<usize>().ok())
                .max()
                .map_or(0, |seq| seq.min(self.groups));
            let durable = crate::store::wal::read(&self.wal)?.groups.len();
            assert!(
                durable >= streamed,
                "group {} reached the socket before its WAL frame ({durable} frames)",
                streamed - 1
            );
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// A group's frame is in the WAL before any byte of its chunk is
    /// written to the socket, at one thread and several, and the whole
    /// run takes fewer socket writes than it has groups plus two.
    #[test]
    fn chunks_follow_their_wal_frames() {
        let mut spec = presets::preset("ci-smoke", Some(1)).expect("preset");
        spec.platforms = (0..6)
            .map(|i| PlatformSpec::paper(8, 0.4 + 0.2 * i as f64))
            .collect();
        let n = spec.num_groups();
        for threads in [1, 3] {
            let dir = std::env::temp_dir().join(format!(
                "ftsched_serve_order_t{threads}_{}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let store = Store::open(&dir).expect("store");
            let canonical = spec.to_json().expect("spec serializes");
            let key = fnv1a(canonical.bytes());
            let mut writer = store
                .begin_run(key, &spec.id, &canonical, n)
                .expect("begin run");
            let mut wire = WalOrderedWire {
                wal: store.wal_path(key),
                groups: n,
                wire: Vec::new(),
                writes: 0,
            };
            let run = stream_run(&mut wire, &spec, threads, Vec::new(), Some(&mut writer))
                .unwrap_or_else(|_| panic!("stream at {threads} thread(s)"));
            assert_eq!(de_chunk(&wire.wire), run.body, "threads = {threads}");
            assert_eq!(writer.next_group(), n);
            // The head, at most one write per group, the tail.
            assert!(
                wire.writes <= n + 2,
                "{} writes for {n} groups",
                wire.writes
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
