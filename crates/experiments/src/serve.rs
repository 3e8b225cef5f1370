//! `ftsched serve` — a sharded streaming campaign service over raw
//! `std::net`, with optional durable runs under `--data-dir`.
//!
//! # Wire protocol
//!
//! Hand-rolled HTTP/1.1, one request per connection (`Connection:
//! close` on every response; the build environment has no HTTP
//! dependency and needs none):
//!
//! * `GET /healthz` → `200 ok` — liveness probe.
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
//!   is a `411`; a body over [`ServeConfig::max_body`] is a `413`; a
//!   request line plus headers over 16 KiB is a `431`; unknown paths
//!   are `404`, unsupported methods `405`. The hardened validator makes
//!   the executor's [`CampaignError`] paths structurally unreachable
//!   from the wire.
//! * A client has 5 s from the moment a handler takes its connection to
//!   deliver the whole request, head and body; after that the
//!   connection is dropped. A silent or trickling client therefore
//!   holds a handler thread for at most that long, and no request grows
//!   a buffer past the head cap or [`ServeConfig::max_body`].
//!
//! Each streamed chunk carries a `;seq=<n>` chunk extension with a
//! strictly increasing sequence number from 0 — standard de-chunkers
//! (curl included) ignore extensions, while protocol tests can assert
//! gapless ordering.
//!
//! # Sharding and determinism
//!
//! A run shards the campaign's **group index range** across
//! [`ServeConfig::threads`] workers: shard *i* is group *i*, covering
//! the row-major cell range `[i·reps, (i+1)·reps)`. Workers pull group
//! indices from a shared atomic cursor and evaluate cells through the
//! same [`evaluate_any_cell_into`] dispatch and indexed per-cell seeds
//! as the batch executor, then render each group with
//! [`finalize_group`] — each group's bytes are a pure function of
//! `(spec, group index)`, so responses are **byte-reproducible at any
//! shard or thread count**. The coordinator re-orders out-of-order
//! completions and flushes groups strictly in index order.
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
//! * **A group is durable before it is visible.** The coordinator
//!   appends each rendered group to the run's checksummed WAL and
//!   `fsync`s **before** writing the group's chunk to the socket; a
//!   client can never observe bytes a crash could un-happen.
//! * **Completion is a single record flip.** After the last group frame
//!   is durable, the record moves `running → completed` with the result
//!   fingerprint (rolling FNV-1a over the group payloads); that atomic
//!   rename is the commit point of the whole run.
//! * **Recovery trusts only persisted state.** On bind the server scans
//!   the data dir: orphaned tmp files are deleted, torn WAL tails are
//!   truncated back to the last whole checksummed frame, `running`
//!   records are demoted to `resumable` (the process died mid-run), and
//!   `completed` records are re-verified against the replayed WAL —
//!   a fingerprint mismatch demotes to `resumable` rather than serving
//!   wrong bytes. No in-memory state survives; nothing else is needed.
//! * **`resumable` means bit-exact continuation.** A resumable run
//!   holds a valid WAL prefix of groups `0..k` and its spec; resuming
//!   replays those frames and re-executes only groups `k..n`, and
//!   because group bytes are pure functions of `(spec, group index)`
//!   the final body is byte-identical to an uninterrupted run at any
//!   thread count. A client hangup mid-stream likewise releases the run
//!   slot as `resumable` — completed-group checkpoints are never
//!   discarded with the connection.
//!
//! # Backpressure and failure policy
//!
//! The gateway follows the waiver-exchange queue discipline: ingress is
//! a **non-blocking** bounded handoff (`try_send`; a full queue is an
//! immediate `503` with a `Retry-After` header, the acceptor never
//! blocks), and the per-run result sink is **lossless** — group results
//! are never dropped. If a cell somehow fails mid-run (unreachable for
//! validated specs), or the durable store fails a persistence
//! operation ([`CampaignError::Store`]), the run halts loudly: the
//! error is logged, the chunked stream is cut without its terminating
//! chunk (clients see a transfer error, never silently truncated
//! data), the run slot is marked failed — and the server itself stays
//! alive.

use crate::campaign::{
    evaluate_any_cell_into, finalize_group, CampaignError, CampaignSpec, CellContext, CellPlan,
    SeriesKey, StoreIoError,
};
use crate::parallel::default_threads;
use crate::store::{key_hex, Fingerprint, RunState, Store, WalWriter};
use std::collections::{BTreeMap, HashMap};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, TrySendError};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Cap on the request line plus headers, in bytes (`431` above it).
const MAX_HEAD: u64 = 16 * 1024;

/// How long a client has, once a handler takes its connection, to
/// deliver its whole request (head and body).
const READ_DEADLINE: Duration = Duration::from_secs(5);

/// Tuning knobs of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Shard workers per campaign run (`0` resolves like the CLI:
    /// `FTSCHED_THREADS` or the available parallelism).
    pub threads: usize,
    /// Depth of the bounded ingress queue; a connection arriving while
    /// it is full is answered `503` without blocking the acceptor.
    pub queue: usize,
    /// Connection-handler threads (concurrent in-flight requests).
    pub handlers: usize,
    /// Request body cap in bytes (`413` above it).
    pub max_body: usize,
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
            max_body: 1 << 20,
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

/// FNV-1a over the canonical spec JSON: the idempotency key.
fn content_hash(canonical_json: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in canonical_json.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The idempotency key of a spec: the FNV-1a content hash of its
/// canonical JSON (16 hex digits in URLs and store file names).
pub fn spec_key(spec: &CampaignSpec) -> u64 {
    content_hash(&spec.to_json().expect("validated specs always re-serialize"))
}

// --- incremental rendering --------------------------------------------
//
// The streamed body re-creates `output::campaign_to_json` piecewise:
// a prefix with the id and the opening of the `groups` array, one
// re-indented pretty-printed group per chunk, and a closing suffix.
// `render_pinned_to_batch_json` pins the equivalence byte-for-byte.

fn render_prefix(id: &str) -> String {
    let id_json = serde_json::to_string(&id).expect("strings always serialize");
    format!("{{\n  \"id\": {id_json},\n  \"groups\": [\n")
}

const RENDER_SUFFIX: &str = "\n  ]\n}";

/// Pretty-prints one group at the nesting depth it has inside the
/// campaign document (two levels → four spaces).
fn render_group(group: &crate::campaign::GroupResult) -> String {
    let flat = serde_json::to_string_pretty(group).expect("groups always serialize");
    let mut out = String::with_capacity(flat.len() + 64);
    for (i, line) in flat.lines().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        out.push_str("    ");
        out.push_str(line);
    }
    out
}

/// Evaluates one group (its full repetition range) and renders it.
/// A pure function of `(spec, plan, group index)` — the sharding
/// invariant rests on exactly this.
fn evaluate_group(
    spec: &CampaignSpec,
    plan: &CellPlan,
    gi: usize,
    ctx: &mut CellContext,
) -> Result<String, CampaignError> {
    let reps = spec.repetitions;
    let mut series: BTreeMap<SeriesKey, Vec<f64>> = BTreeMap::new();
    let mut out = Vec::new();
    for rep in 0..reps {
        out.clear();
        evaluate_any_cell_into(spec, plan, gi * reps + rep, ctx, &mut out)?;
        for &(key, value) in &out {
            series.entry(key).or_default().push(value);
        }
    }
    Ok(render_group(&finalize_group(spec, plan, gi, series)))
}

/// The exact rendered bytes of one group, as the server streams and
/// checkpoints them. Exposed so fault-injection tests can fabricate
/// partial WALs without a live server.
#[doc(hidden)]
pub fn rendered_group(spec: &CampaignSpec, gi: usize) -> Result<String, CampaignError> {
    let plan = CellPlan::new(spec);
    let mut ctx = CellContext::new();
    evaluate_group(spec, &plan, gi, &mut ctx)
}

// --- HTTP plumbing -----------------------------------------------------

fn write_response(
    stream: &mut TcpStream,
    status: &str,
    extra_headers: &[(&str, &str)],
    body: &str,
) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n",
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

fn write_error(stream: &mut TcpStream, status: &str, message: &str) -> io::Result<()> {
    write_error_with(stream, status, &[], message)
}

fn write_error_with(
    stream: &mut TcpStream,
    status: &str,
    extra_headers: &[(&str, &str)],
    message: &str,
) -> io::Result<()> {
    let body = format!(
        "{{\n  \"error\": {}\n}}",
        serde_json::to_string(&message).expect("strings always serialize")
    );
    write_response(stream, status, extra_headers, &body)
}

/// One chunk of a chunked response, tagged with its sequence number as
/// a chunk extension (`<size-hex>;seq=<n>`). De-chunkers ignore the
/// extension; protocol tests assert the numbers are gapless from 0.
fn write_chunk(stream: &mut TcpStream, seq: u64, data: &str) -> io::Result<()> {
    write!(stream, "{:x};seq={}\r\n", data.len(), seq)?;
    stream.write_all(data.as_bytes())?;
    stream.write_all(b"\r\n")
}

fn write_last_chunk(stream: &mut TcpStream) -> io::Result<()> {
    stream.write_all(b"0\r\n\r\n")?;
    stream.flush()
}

/// Streams a settled run's exact body as a single replayed chunk.
fn replay_existing(stream: &mut TcpStream, body: &str) -> io::Result<()> {
    stream.write_all(
        b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
          Transfer-Encoding: chunked\r\nX-Campaign-Run: existing\r\n\
          Connection: close\r\n\r\n",
    )?;
    write_chunk(stream, 0, body)?;
    write_last_chunk(stream)
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
/// bounded at 8 reads × 50 ms so a slow sender cannot pin the caller.
/// Closing with unread data turns the close into an RST that can destroy
/// the error response before the client reads it.
fn drain_and_close(stream: &mut TcpStream) {
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let mut sink = [0u8; 4096];
    for _ in 0..8 {
        match stream.read(&mut sink) {
            Ok(n) if n > 0 => {}
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
                        let mut body = render_prefix(&run.record.campaign);
                        for (i, group) in run.groups.iter().enumerate() {
                            if i > 0 {
                                body.push_str(",\n");
                            }
                            body.push_str(group);
                        }
                        body.push_str(RENDER_SUFFIX);
                        SlotState::Done(Arc::new(body))
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
            let max_body = self.config.max_body;
            thread::spawn(move || loop {
                let next = rx.lock().expect("ingress lock").recv();
                match next {
                    Ok(stream) => handle_connection(stream, &registry, threads, max_body),
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

fn handle_connection(stream: TcpStream, registry: &Registry, threads: usize, max_body: usize) {
    let peer = stream.peer_addr().ok();
    if let Err(e) = try_handle(stream, registry, threads, max_body) {
        // An I/O failure on one connection (client hung up mid-stream,
        // …) must never take the server down.
        eprintln!("serve: connection {peer:?} dropped: {e}");
    }
}

fn try_handle(
    stream: TcpStream,
    registry: &Registry,
    threads: usize,
    max_body: usize,
) -> io::Result<()> {
    let mut reader = BufReader::new(DeadlineReader {
        stream: stream.try_clone()?,
        until: Instant::now() + READ_DEADLINE,
    });
    let mut stream = stream;
    let Some(req) = read_request(&mut reader)? else {
        write_error(
            &mut stream,
            "431 Request Header Fields Too Large",
            "request line and headers exceed 16 KiB",
        )?;
        drain_and_close(&mut stream);
        return Ok(());
    };
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => write_response(&mut stream, "200 OK", &[], "ok\n"),
        ("GET", "/campaigns") => handle_listing(&mut stream, registry),
        ("GET", path) if path.starts_with("/campaigns/") => {
            let key_text = &path["/campaigns/".len()..];
            match u64::from_str_radix(key_text, 16) {
                Ok(key) if key_text.len() == 16 => {
                    handle_lookup(&mut stream, registry, threads, key)
                }
                _ => write_error(
                    &mut stream,
                    "404 Not Found",
                    "campaign keys are 16 hex digits",
                ),
            }
        }
        ("POST", "/campaigns") => {
            let Some(len) = req.content_length else {
                return write_error(
                    &mut stream,
                    "411 Length Required",
                    "POST /campaigns needs a Content-Length",
                );
            };
            if len > max_body {
                return write_error(
                    &mut stream,
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
                Err(_) => return write_error(&mut stream, "400 Bad Request", "body is not UTF-8"),
            };
            handle_submission(&mut stream, registry, threads, &body)
        }
        ("GET" | "POST", _) => write_error(&mut stream, "404 Not Found", "no such resource"),
        _ => write_error(&mut stream, "405 Method Not Allowed", "unsupported method"),
    }
}

/// `GET /campaigns`: a point-in-time JSON listing of the registry,
/// sorted by key.
fn handle_listing(stream: &mut TcpStream, registry: &Registry) -> io::Result<()> {
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
    write_response(stream, "200 OK", &[], &body)
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
    stream: &mut TcpStream,
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
    let key = content_hash(&canonical);

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
    stream: &mut TcpStream,
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
    stream: &mut TcpStream,
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

    let mode = if replayed.is_empty() {
        "new"
    } else {
        "resumed"
    };
    match stream_run(stream, spec, threads, &replayed, wal.as_mut(), mode) {
        Ok(run) => {
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
        Err((StreamError::Campaign(e), _)) => {
            // Lossless sink, halting loudly: the failure is recorded and
            // reported, nothing is silently dropped, the server lives on.
            let msg = format!("campaign halted: {e}");
            eprintln!("serve: campaign {} halted: {e}", spec.id);
            if let Some(store) = &registry.store {
                let _ = store.fail_run(key, &msg);
            }
            settle(slot, SlotState::Failed(msg));
            Ok(())
        }
        Err((StreamError::Io(e), durable)) => {
            // The run itself did not fail — the client went away. The
            // slot goes back to resumable with its durable checkpoints
            // intact; a retry resumes instead of starting over.
            if let Some(store) = &registry.store {
                let _ = store.mark_resumable(key);
            }
            settle(
                slot,
                SlotState::Resumable {
                    groups_done: durable,
                },
            );
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

/// Attaches the durable-group count to a stream failure so the caller
/// can settle the slot as `Resumable { groups_done }`.
fn staged(res: Result<(), StreamError>, durable: usize) -> Result<(), (StreamError, usize)> {
    res.map_err(|e| (e, durable))
}

struct RunOutcome {
    /// The complete response body (for idempotency replays).
    body: String,
    /// Rolling FNV-1a over the raw group payloads (the store's result
    /// fingerprint).
    fingerprint: u64,
}

/// Streams a run: replays durable groups, shards the missing group
/// range across workers, flushes strictly in index order — appending
/// each new group to the WAL (fsync) **before** its chunk hits the
/// socket. On error, also reports how many groups are durable.
fn stream_run(
    stream: &mut TcpStream,
    spec: &CampaignSpec,
    threads: usize,
    replayed: &[String],
    mut wal: Option<&mut WalWriter>,
    mode: &str,
) -> Result<RunOutcome, (StreamError, usize)> {
    let plan = CellPlan::new(spec);
    let groups = spec.num_groups();
    let start = replayed.len().min(groups);
    let threads = threads.max(1).min(groups.max(1));
    let mut durable = start;
    let mut fingerprint = Fingerprint::new();

    staged(
        write!(
            stream,
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
             Transfer-Encoding: chunked\r\nX-Campaign-Run: {mode}\r\n\
             Connection: close\r\n\r\n"
        )
        .map_err(StreamError::Io),
        durable,
    )?;

    let mut full = render_prefix(&spec.id);
    let mut seq = 0u64;
    staged(
        write_chunk(stream, seq, &full).map_err(StreamError::Io),
        durable,
    )?;
    seq += 1;

    // Replay the durable prefix: groups 0..start come from the WAL,
    // byte-identical to what the interrupted run streamed (and what an
    // uninterrupted run would compute).
    for (gi, group) in replayed.iter().take(start).enumerate() {
        let piece = if gi == 0 {
            group.clone()
        } else {
            format!(",\n{group}")
        };
        staged(
            write_chunk(stream, seq, &piece).map_err(StreamError::Io),
            durable,
        )?;
        seq += 1;
        full.push_str(&piece);
        fingerprint.push_group(group);
    }

    let cursor = AtomicUsize::new(start);
    let result: Result<(), StreamError> = thread::scope(|scope| {
        // Lossless result sink: the channel holds every group, no
        // try_send, no drops (ingress is where load is shed).
        let (tx, rx) = sync_channel::<(usize, Result<String, CampaignError>)>(groups.max(1));
        for _ in 0..threads {
            let tx = tx.clone();
            let cursor = &cursor;
            let plan = &plan;
            scope.spawn(move || {
                let mut ctx = CellContext::new();
                loop {
                    let gi = cursor.fetch_add(1, Ordering::Relaxed);
                    if gi >= groups {
                        return;
                    }
                    let rendered = evaluate_group(spec, plan, gi, &mut ctx);
                    let halted = rendered.is_err();
                    if tx.send((gi, rendered)).is_err() || halted {
                        return; // coordinator gone or run halting
                    }
                }
            });
        }
        drop(tx);

        // Coordinator: re-order completions, flush strictly in group
        // index order — WAL first, then the wire — one chunk per group.
        let mut pending: BTreeMap<usize, String> = BTreeMap::new();
        let mut next_flush = start;
        for (gi, rendered) in rx {
            pending.insert(gi, rendered.map_err(StreamError::Campaign)?);
            while let Some(body) = pending.remove(&next_flush) {
                if let Some(writer) = wal.as_deref_mut() {
                    writer.append(body.as_bytes()).map_err(|e| {
                        StreamError::Campaign(CampaignError::Store {
                            campaign: spec.id.clone(),
                            operation: "appending a group frame",
                            source: StoreIoError::new(e),
                        })
                    })?;
                    durable = writer.next_group();
                }
                fingerprint.push_group(&body);
                let piece = if next_flush == 0 {
                    body
                } else {
                    format!(",\n{body}")
                };
                write_chunk(stream, seq, &piece)?;
                seq += 1;
                full.push_str(&piece);
                next_flush += 1;
            }
        }
        Ok(())
    });
    staged(result, durable)?;

    staged(
        write_chunk(stream, seq, RENDER_SUFFIX).map_err(StreamError::Io),
        durable,
    )?;
    staged(write_last_chunk(stream).map_err(StreamError::Io), durable)?;
    full.push_str(RENDER_SUFFIX);
    Ok(RunOutcome {
        body: full,
        fingerprint: fingerprint.finish(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{presets, run_campaign_with_threads};
    use crate::output::campaign_to_json;

    /// The incremental renderer must be byte-identical to the batch
    /// emission — this is the contract the CI `cmp` step and the serve
    /// loopback tests build on.
    #[test]
    fn render_pinned_to_batch_json() {
        let spec = presets::preset("ci-smoke", Some(2)).expect("preset");
        let res = run_campaign_with_threads(&spec, 2).expect("valid spec");
        let batch = campaign_to_json(&res);

        let mut incremental = render_prefix(&spec.id);
        let plan = CellPlan::new(&spec);
        let mut ctx = CellContext::new();
        for gi in 0..spec.num_groups() {
            if gi > 0 {
                incremental.push_str(",\n");
            }
            incremental.push_str(&evaluate_group(&spec, &plan, gi, &mut ctx).expect("valid spec"));
        }
        incremental.push_str(RENDER_SUFFIX);
        assert_eq!(incremental, batch);
    }

    #[test]
    fn content_hash_collapses_formatting_not_content() {
        let a = presets::preset("ci-smoke", Some(2)).expect("preset");
        let mut b = a.clone();
        assert_eq!(
            content_hash(&a.to_json().unwrap()),
            content_hash(&b.to_json().unwrap())
        );
        assert_eq!(spec_key(&a), content_hash(&a.to_json().unwrap()));
        b.seed ^= 1;
        assert_ne!(
            content_hash(&a.to_json().unwrap()),
            content_hash(&b.to_json().unwrap())
        );
    }

    /// The store's fingerprint (over raw group payloads) must be
    /// reproducible from `rendered_group` alone — recovery relies on
    /// re-deriving it without a live run.
    #[test]
    fn fingerprint_reproducible_from_rendered_groups() {
        let spec = presets::preset("ci-smoke", Some(2)).expect("preset");
        let mut a = Fingerprint::new();
        let mut b = Fingerprint::new();
        for gi in 0..spec.num_groups() {
            let g = rendered_group(&spec, gi).expect("valid spec");
            a.push_group(&g);
            b.push_group(&g);
        }
        assert_eq!(a.finish(), b.finish());
    }
}
