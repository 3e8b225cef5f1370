//! Loopback integration tests for `experiments::serve`: real
//! `TcpStream`s against a bound server, covering the contract pillars —
//! response bytes equal the CLI emission at any shard count, duplicate
//! submissions share one run, malformed specs bounce with a 4xx while
//! the server stays live, and (with a data dir) runs survive a restart:
//! completed runs replay byte-identically, interrupted ones resume from
//! their WAL checkpoints bit-exactly; a spec whose granularity cannot
//! be applied fails its run (or is rejected up front) without taking a
//! handler thread down, with exactly the groups before the failing one
//! durable and streamed; a client that stops reading is dropped at the
//! write-stall deadline; and `GET /metrics` counts exactly the WAL
//! frames on disk.

use experiments::campaign::{
    presets, run_campaign_with_threads, CampaignSpec, LayeredRange, PlatformSpec, TaskCount,
    WorkloadSpec,
};
use experiments::output::{campaign_to_json, json_group, json_group_lead, json_head};
use experiments::serve::{spec_key, ServeConfig, Server};
use experiments::store::{key_hex, wal, Store};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::thread;
use std::time::{Duration, Instant};

/// Binds a server on an ephemeral loopback port, runs its accept loop
/// on a background thread, and returns the address to dial.
fn spawn_server(config: ServeConfig) -> SocketAddr {
    let server = Server::bind("127.0.0.1:0", config).expect("bind loopback");
    let addr = server.local_addr().expect("local addr");
    thread::spawn(move || server.run());
    addr
}

struct Response {
    status: String,
    headers: Vec<(String, String)>,
    body: String,
    /// `;seq=` chunk-extension values, in arrival order (chunked only).
    seqs: Vec<u64>,
}

impl Response {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// Sends one raw request and reads to EOF (the server closes after each
/// response), de-chunking when the response is chunked.
fn request(addr: SocketAddr, raw: &str) -> Response {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(raw.as_bytes()).expect("send request");
    let mut bytes = Vec::new();
    stream.read_to_end(&mut bytes).expect("read response");
    let text = String::from_utf8(bytes).expect("responses are UTF-8");

    let (head, payload) = text.split_once("\r\n\r\n").expect("header block");
    let mut lines = head.split("\r\n");
    let status = lines.next().expect("status line").to_string();
    let headers: Vec<(String, String)> = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
        .collect();

    let chunked = headers
        .iter()
        .any(|(k, v)| k.eq_ignore_ascii_case("transfer-encoding") && v == "chunked");
    let (body, seqs) = if chunked {
        de_chunk(payload)
    } else {
        (payload.to_string(), Vec::new())
    };
    Response {
        status,
        headers,
        body,
        seqs,
    }
}

/// Minimal de-chunker that also records the `;seq=` extensions.
fn de_chunk(mut rest: &str) -> (String, Vec<u64>) {
    let mut body = String::new();
    let mut seqs = Vec::new();
    loop {
        let (size_line, after) = rest.split_once("\r\n").expect("chunk size line");
        let (size_hex, ext) = match size_line.split_once(';') {
            Some((s, e)) => (s, Some(e)),
            None => (size_line, None),
        };
        let size = usize::from_str_radix(size_hex.trim(), 16).expect("hex chunk size");
        if size == 0 {
            return (body, seqs);
        }
        if let Some(ext) = ext {
            let seq = ext
                .strip_prefix("seq=")
                .expect("seq extension")
                .parse::<u64>()
                .expect("numeric seq");
            seqs.push(seq);
        }
        body.push_str(&after[..size]);
        rest = after[size..].strip_prefix("\r\n").expect("chunk CRLF");
    }
}

fn post_campaign(addr: SocketAddr, body: &str) -> Response {
    request(
        addr,
        &format!(
            "POST /campaigns HTTP/1.1\r\nHost: loopback\r\nContent-Length: {}\r\n\
             Connection: close\r\n\r\n{body}",
            body.len()
        ),
    )
}

fn smoke_spec() -> CampaignSpec {
    let mut spec = presets::preset("ci-smoke", Some(2)).expect("ci-smoke preset");
    // Keep the loopback grid small; the CI smoke step runs the full one.
    spec.id = "serve-loopback".into();
    spec
}

#[test]
fn response_bytes_equal_cli_emission_at_any_shard_count() {
    let spec = smoke_spec();
    let spec_json = spec.to_json().expect("spec serializes");
    // What `ftsched campaign --out DIR` writes for this spec.
    let reference = campaign_to_json(&run_campaign_with_threads(&spec, 1).expect("valid spec"));

    for threads in [1usize, 3] {
        let addr = spawn_server(ServeConfig {
            threads,
            ..ServeConfig::default()
        });
        let res = post_campaign(addr, &spec_json);
        assert_eq!(res.status, "HTTP/1.1 200 OK", "{}", res.body);
        assert_eq!(res.header("X-Campaign-Run"), Some("new"));
        assert_eq!(
            res.body, reference,
            "serve bytes diverge from the CLI emission at {threads} shard(s)"
        );
        // The chunk sequence numbers are gapless from 0.
        let expected: Vec<u64> = (0..res.seqs.len() as u64).collect();
        assert_eq!(res.seqs, expected);
        assert!(res.seqs.len() >= 2, "prefix + suffix at minimum");
    }
}

#[test]
fn concurrent_duplicate_submissions_share_one_run() {
    let addr = spawn_server(ServeConfig::default());
    let spec_json = smoke_spec().to_json().expect("spec serializes");

    let responses: Vec<Response> = thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| scope.spawn(|| post_campaign(addr, &spec_json)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let new_runs = responses
        .iter()
        .filter(|r| r.header("X-Campaign-Run") == Some("new"))
        .count();
    assert_eq!(new_runs, 1, "exactly one submission computes");
    for res in &responses {
        assert_eq!(res.status, "HTTP/1.1 200 OK", "{}", res.body);
        assert_eq!(res.body, responses[0].body, "duplicates replay the run");
    }

    // A later resubmission replays too, without recomputing.
    let replay = post_campaign(addr, &spec_json);
    assert_eq!(replay.header("X-Campaign-Run"), Some("existing"));
    assert_eq!(replay.body, responses[0].body);
}

#[test]
fn malformed_specs_bounce_and_the_server_stays_live() {
    let addr = spawn_server(ServeConfig::default());

    // Not JSON at all.
    let res = post_campaign(addr, "this is not a campaign");
    assert_eq!(res.status, "HTTP/1.1 400 Bad Request", "{}", res.body);

    // Valid JSON, decodes as a spec, fails validate() — the shape that
    // used to reach an executor panic.
    let mut unschedulable = smoke_spec();
    unschedulable.epsilons = vec![1000];
    let res = post_campaign(addr, &unschedulable.to_json().expect("serializes"));
    assert_eq!(res.status, "HTTP/1.1 400 Bad Request", "{}", res.body);
    assert!(res.body.contains("invalid spec"), "{}", res.body);

    // A table spec asking for repeated cells its seeding cannot tell
    // apart.
    let mut repeated = presets::preset("table1", None).expect("table1 preset");
    repeated.repetitions = 2;
    let res = post_campaign(addr, &repeated.to_json().expect("serializes"));
    assert_eq!(res.status, "HTTP/1.1 400 Bad Request", "{}", res.body);
    assert!(
        res.body.contains("ignores the repetition index"),
        "{}",
        res.body
    );

    // Protocol-level rejections.
    let res = request(
        addr,
        "POST /campaigns HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(res.status, "HTTP/1.1 411 Length Required");
    let res = request(addr, "GET /nope HTTP/1.1\r\nHost: x\r\n\r\n");
    assert_eq!(res.status, "HTTP/1.1 404 Not Found");
    let res = request(addr, "DELETE /campaigns HTTP/1.1\r\nHost: x\r\n\r\n");
    assert_eq!(res.status, "HTTP/1.1 405 Method Not Allowed");

    // No worker died along the way: the server still answers.
    let res = request(addr, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
    assert_eq!(res.status, "HTTP/1.1 200 OK");
    assert_eq!(res.body, "ok\n");
}

#[test]
fn a_platform_point_with_too_many_processors_answers_400() {
    // One platform draw holds `procs²` delays: a million processors
    // would ask for 8 TB and abort the whole server, so `validate`
    // refuses the spec before any cell runs.
    let addr = spawn_server(ServeConfig::default());
    let mut spec = smoke_spec();
    spec.platforms[0].procs = 1_000_000;
    let res = post_campaign(addr, &spec.to_json().expect("serializes"));
    assert_eq!(res.status, "HTTP/1.1 400 Bad Request", "{}", res.body);
    assert!(
        res.body
            .contains("platform point with 1000000 processors (at most 4096)"),
        "{}",
        res.body
    );
    let res = request(addr, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
    assert_eq!(res.status, "HTTP/1.1 200 OK");
}

#[test]
fn exact_reliability_beyond_its_processor_bound_answers_400() {
    // Exact reliability enumerates 2^m failure patterns, up to 24
    // processors. A spec asking for it on 25 used to pass `validate`,
    // answer 200 and panic its handler mid-stream, leaving the run
    // listed as running; `validate` now refuses it before any run is
    // registered.
    let addr = spawn_server(ServeConfig::default());
    let mut spec = presets::preset("reliability", None).expect("reliability preset");
    spec.platforms[0].procs = 25;
    spec.epsilons = vec![1];
    let res = post_campaign(addr, &spec.to_json().expect("serializes"));
    assert_eq!(res.status, "HTTP/1.1 400 Bad Request", "{}", res.body);
    assert!(
        res.body
            .contains("at most 24 processors; platform point has 25"),
        "{}",
        res.body
    );
    let listing = request(
        addr,
        "GET /campaigns HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(listing.status, "HTTP/1.1 200 OK");
    assert_eq!(listing.body, "{\n  \"runs\": []\n}");
    let res = request(addr, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
    assert_eq!(res.status, "HTTP/1.1 200 OK");
}

#[test]
fn a_heterogeneity_of_one_answers_400() {
    // A platform point with heterogeneity 1 would draw execution-time
    // factors down to 0: it used to pass `validate`, answer 200 and
    // panic its handler mid-stream, leaving the run listed as running;
    // `validate` now refuses it before any run is registered.
    let addr = spawn_server(ServeConfig::default());
    let mut spec = smoke_spec();
    spec.platforms[0].heterogeneity = 1.0;
    let res = post_campaign(addr, &spec.to_json().expect("serializes"));
    assert_eq!(res.status, "HTTP/1.1 400 Bad Request", "{}", res.body);
    assert!(
        res.body.contains("platform heterogeneity 1 outside [0, 1)"),
        "{}",
        res.body
    );
    let listing = request(
        addr,
        "GET /campaigns HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(listing.status, "HTTP/1.1 200 OK");
    assert_eq!(listing.body, "{\n  \"runs\": []\n}");
    let res = request(addr, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
    assert_eq!(res.status, "HTTP/1.1 200 OK");
}

#[test]
fn a_workload_with_too_many_tasks_answers_400() {
    // A paper-layered range up to 10^11 tasks would ask for about 20 TB
    // at its first cell; `validate` refuses it from its shape alone,
    // nothing drawn. The bound + 1 is refused the same way.
    let addr = spawn_server(ServeConfig::default());
    let max = taskgraph::generators::MAX_TASKS;
    for tasks_hi in [max + 1, 100_000_000_000] {
        let mut spec = smoke_spec();
        spec.workloads = vec![WorkloadSpec::PaperLayered(LayeredRange {
            tasks_lo: tasks_hi,
            tasks_hi,
        })];
        let res = post_campaign(addr, &spec.to_json().expect("serializes"));
        assert_eq!(res.status, "HTTP/1.1 400 Bad Request", "{}", res.body);
        let why = format!("draws {tasks_hi} tasks, more than the {max} a graph may have");
        assert!(res.body.contains(&why), "{}", res.body);
    }
    let res = request(addr, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
    assert_eq!(res.status, "HTTP/1.1 200 OK");
}

#[test]
fn hostile_nesting_bounces_and_the_server_stays_live() {
    // A valid spec plus 100 000 nested arrays under a key the spec does
    // not know: the reader skips unknown keys, but within the same
    // 128-level depth guard, so this is an error and not a stack
    // overflow — for the library call and for the served request.
    let spec_json = smoke_spec().to_json().expect("spec serializes");
    let depth = 100_000;
    let body = spec_json.replacen(
        '{',
        &format!("{{\"padding\": {}{},", "[".repeat(depth), "]".repeat(depth)),
        1,
    );
    let err = CampaignSpec::from_json(&body).unwrap_err();
    assert!(err.starts_with("JSON nesting too deep"), "{err}");

    let addr = spawn_server(ServeConfig::default());
    let res = post_campaign(addr, &body);
    assert_eq!(res.status, "HTTP/1.1 400 Bad Request", "{}", res.body);
    assert!(res.body.contains("JSON nesting too deep"), "{}", res.body);
    let res = request(addr, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
    assert_eq!(res.status, "HTTP/1.1 200 OK");
    // The same spec without the padding still runs.
    let res = post_campaign(addr, &spec_json);
    assert_eq!(res.status, "HTTP/1.1 200 OK", "{}", res.body);
}

/// A fresh scratch data directory for one durable-server test.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ftsched_serve_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn get_campaign(addr: SocketAddr, key: u64) -> Response {
    request(
        addr,
        &format!(
            "GET /campaigns/{} HTTP/1.1\r\nHost: loopback\r\nConnection: close\r\n\r\n",
            key_hex(key)
        ),
    )
}

/// A durable run survives a server restart: the second bind recovers it
/// from the data dir alone and replays the exact bytes, to both the GET
/// endpoint and a resubmission.
#[test]
fn durable_runs_survive_a_restart() {
    let dir = scratch_dir("restart");
    let spec = smoke_spec();
    let spec_json = spec.to_json().expect("spec serializes");
    let key = spec_key(&spec);

    let addr = spawn_server(ServeConfig {
        threads: 2,
        data_dir: Some(dir.clone()),
        ..ServeConfig::default()
    });
    let first = post_campaign(addr, &spec_json);
    assert_eq!(first.status, "HTTP/1.1 200 OK", "{}", first.body);
    assert_eq!(first.header("X-Campaign-Run"), Some("new"));

    // "Restart": a second server over the same data dir, no shared
    // memory. (The first server's accept loop is idle from here on.)
    let addr2 = spawn_server(ServeConfig {
        threads: 2,
        data_dir: Some(dir.clone()),
        ..ServeConfig::default()
    });
    let replayed = get_campaign(addr2, key);
    assert_eq!(replayed.status, "HTTP/1.1 200 OK", "{}", replayed.body);
    assert_eq!(replayed.header("X-Campaign-Run"), Some("existing"));
    assert_eq!(replayed.body, first.body, "recovered bytes must be exact");

    let resubmitted = post_campaign(addr2, &spec_json);
    assert_eq!(resubmitted.header("X-Campaign-Run"), Some("existing"));
    assert_eq!(resubmitted.body, first.body);

    // The listing shows the recovered run as completed.
    let listing = request(
        addr2,
        "GET /campaigns HTTP/1.1\r\nHost: loopback\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(listing.status, "HTTP/1.1 200 OK");
    assert!(listing.body.contains(&key_hex(key)), "{}", listing.body);
    assert!(listing.body.contains("\"completed\""), "{}", listing.body);

    // Unknown and malformed keys 404 without disturbing anything.
    let missing = get_campaign(addr2, key ^ 1);
    assert_eq!(missing.status, "HTTP/1.1 404 Not Found");
    let bad = request(
        addr2,
        "GET /campaigns/nothex HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(bad.status, "HTTP/1.1 404 Not Found");

    let _ = std::fs::remove_dir_all(&dir);
}

/// A run interrupted mid-stream (fabricated: a `running` record with a
/// partial WAL, exactly what a crash leaves behind) resumes from its
/// checkpoints only — and the final body is byte-identical to an
/// uninterrupted run, at more than one thread count.
#[test]
fn interrupted_run_resumes_bit_exactly() {
    let spec = smoke_spec();
    let spec_json = spec.to_json().expect("spec serializes");
    let key = spec_key(&spec);
    let groups = spec.num_groups();
    assert!(groups >= 2, "need a resumable tail");
    let result = run_campaign_with_threads(&spec, 1).expect("valid spec");
    let reference = campaign_to_json(&result);

    for threads in [1usize, 4] {
        let dir = scratch_dir(&format!("resume_t{threads}"));
        // Crash state: spec + running record + WAL holding only the
        // first group.
        let store = Store::open(&dir).expect("open store");
        let mut wal = store
            .begin_run(key, &spec.id, &spec_json, groups)
            .expect("begin run");
        wal.append(json_group(&result.groups[0]).as_bytes())
            .expect("append");
        drop(wal);
        drop(store);

        let addr = spawn_server(ServeConfig {
            threads,
            data_dir: Some(dir.clone()),
            ..ServeConfig::default()
        });
        let res = post_campaign(addr, &spec_json);
        assert_eq!(res.status, "HTTP/1.1 200 OK", "{}", res.body);
        assert_eq!(
            res.header("X-Campaign-Run"),
            Some("resumed"),
            "recovery must demote the running record to resumable"
        );
        assert_eq!(
            res.body, reference,
            "resumed body diverges from an uninterrupted run at {threads} thread(s)"
        );
        // And the now-completed run replays on the same server.
        let replay = get_campaign(addr, key);
        assert_eq!(replay.header("X-Campaign-Run"), Some("existing"));
        assert_eq!(replay.body, reference);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A client hanging up right after submitting must not discard durable
/// state: the spec/record/WAL files stay, and a retry converges on the
/// exact uninterrupted bytes.
#[test]
fn client_hangup_keeps_durable_checkpoints() {
    let dir = scratch_dir("hangup");
    let spec = smoke_spec();
    let spec_json = spec.to_json().expect("spec serializes");
    let key = spec_key(&spec);
    let reference = campaign_to_json(&run_campaign_with_threads(&spec, 1).expect("valid spec"));

    let addr = spawn_server(ServeConfig {
        threads: 1,
        data_dir: Some(dir.clone()),
        ..ServeConfig::default()
    });

    // Submit and hang up immediately, without reading the response.
    {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(
                format!(
                    "POST /campaigns HTTP/1.1\r\nHost: loopback\r\nContent-Length: {}\r\n\
                     Connection: close\r\n\r\n{spec_json}",
                    spec_json.len()
                )
                .as_bytes(),
            )
            .expect("send request");
    } // dropped: RST on anything the server streams from here

    // The retry waits out the interrupted run (claim protocol) and gets
    // the full, exact body — new, resumed, or replayed depending on how
    // far the first run got before noticing the hangup.
    let retry = post_campaign(addr, &spec_json);
    assert_eq!(retry.status, "HTTP/1.1 200 OK", "{}", retry.body);
    assert_eq!(retry.body, reference);

    // Durable state survived the hangup (whatever the interleaving).
    let store = Store::open(&dir).expect("open store");
    assert!(store.wal_path(key).exists(), "WAL discarded on hangup");
    assert_eq!(store.load_spec(key).expect("spec persisted"), spec_json);

    // After the retry, a restart recovers a completed run.
    thread::sleep(Duration::from_millis(50)); // let the server settle the slot
    let addr2 = spawn_server(ServeConfig {
        threads: 1,
        data_dir: Some(dir.clone()),
        ..ServeConfig::default()
    });
    let replay = get_campaign(addr2, key);
    assert_eq!(replay.status, "HTTP/1.1 200 OK", "{}", replay.body);
    assert_eq!(replay.body, reference);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Overflowing the bounded ingress queue sheds load with a 503 that
/// tells the client when to retry.
#[test]
fn overflow_answers_503_with_retry_after() {
    let addr = spawn_server(ServeConfig {
        threads: 1,
        queue: 1,
        handlers: 1,
        ..ServeConfig::default()
    });

    // Occupy the single handler with a connection that never sends its
    // request, then fill the one-deep queue with a second idle one.
    let hold_handler = TcpStream::connect(addr).expect("connect");
    thread::sleep(Duration::from_millis(100));
    let fill_queue = TcpStream::connect(addr).expect("connect");
    thread::sleep(Duration::from_millis(100));

    let res = request(addr, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
    assert_eq!(
        res.status, "HTTP/1.1 503 Service Unavailable",
        "{}",
        res.body
    );
    assert_eq!(res.header("Retry-After"), Some("1"));
    assert!(res.body.contains("queue full"), "{}", res.body);

    drop(hold_handler);
    drop(fill_queue);
}

/// Sends raw bytes and reads the whole answer, waiting at most
/// `timeout` for each read — so a server that never answers fails the
/// test instead of hanging it.
fn response_within(addr: SocketAddr, raw: &[u8], timeout: Duration) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(timeout))
        .expect("read timeout");
    stream.write_all(raw).expect("send request");
    let mut bytes = Vec::new();
    stream
        .read_to_end(&mut bytes)
        .expect("the server answers before the client gives up");
    String::from_utf8_lossy(&bytes).into_owned()
}

/// The status line of [`response_within`]'s answer.
fn status_within(addr: SocketAddr, raw: &[u8], timeout: Duration) -> String {
    let text = response_within(addr, raw, timeout);
    text.split("\r\n").next().unwrap_or_default().to_string()
}

/// A request line that never ends is cut off at the head cap with a
/// `431`, instead of growing a buffer until the client stops sending.
#[test]
fn oversized_request_head_answers_431() {
    let addr = spawn_server(ServeConfig {
        threads: 1,
        ..ServeConfig::default()
    });
    let mut raw = b"GET /".to_vec();
    raw.resize(24 * 1024, b'a');
    let status = status_within(addr, &raw, Duration::from_secs(10));
    assert_eq!(status, "HTTP/1.1 431 Request Header Fields Too Large");
    let res = request(addr, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
    assert_eq!(res.body, "ok\n");
}

/// A `Content-Length` over the 1 MiB body cap is answered `413` from the
/// head alone: the client sends no body, and the answer comes long
/// before the 5 s read deadline, so the server never waited for one. A
/// body of exactly 1 MiB is still read (and, not being JSON, is a
/// `400`), and the only handler answers afterwards.
#[test]
fn oversized_body_answers_413_without_reading_it() {
    let addr = spawn_server(ServeConfig {
        threads: 1,
        handlers: 1,
        ..ServeConfig::default()
    });
    let head = |len: usize| {
        format!("POST /campaigns HTTP/1.1\r\nHost: x\r\nContent-Length: {len}\r\n\r\n").into_bytes()
    };
    let started = Instant::now();
    let status = status_within(addr, &head((1 << 20) + 1), Duration::from_secs(30));
    assert_eq!(status, "HTTP/1.1 413 Content Too Large");
    assert!(
        started.elapsed() < Duration::from_secs(4),
        "answered after {:?}: the server waited for the body",
        started.elapsed()
    );

    let mut at_cap = head(1 << 20);
    at_cap.resize(at_cap.len() + (1 << 20), b' ');
    let status = status_within(addr, &at_cap, Duration::from_secs(30));
    assert_eq!(status, "HTTP/1.1 400 Bad Request");

    let res = request(addr, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
    assert_eq!(res.body, "ok\n");
}

/// A client that connects and sends nothing holds the only handler
/// until the read deadline, then is dropped, and the next request is
/// answered.
#[test]
fn silent_client_is_dropped_at_the_read_deadline() {
    let addr = spawn_server(ServeConfig {
        threads: 1,
        handlers: 1,
        ..ServeConfig::default()
    });
    let opened = std::time::Instant::now();
    let mut silent = TcpStream::connect(addr).expect("connect");
    silent
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    // The acceptor queues connections in order, so the handler takes the
    // silent one first and the health check waits behind it.

    let status = status_within(
        addr,
        b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n",
        Duration::from_secs(30),
    );
    assert_eq!(status, "HTTP/1.1 200 OK");

    let mut buf = [0u8; 64];
    let n = silent
        .read(&mut buf)
        .expect("the server closes the silent connection");
    assert_eq!(n, 0, "a silent client gets no response, only a close");
    assert!(
        opened.elapsed() >= Duration::from_secs(1),
        "dropped after {:?}, before the client had time to send",
        opened.elapsed()
    );
}

/// Granularity the server cannot apply. A `ccr` so small that its
/// granularity is infinite is visible in the spec: a `400`. One-task
/// graphs have no edges, so no granularity, which shows only once a cell
/// draws one: the run halts with its stream cut, a resubmission gets the
/// failure as a `500`, and the server's only handler thread survives
/// both and still answers.
#[test]
fn unappliable_granularity_fails_the_run_not_the_handler() {
    let addr = spawn_server(ServeConfig {
        threads: 2,
        handlers: 1,
        ..ServeConfig::default()
    });
    let timeout = Duration::from_secs(30);
    let post = |spec: &CampaignSpec| {
        let body = spec.to_json().expect("spec serializes");
        let raw = format!(
            "POST /campaigns HTTP/1.1\r\nHost: loopback\r\nContent-Length: {}\r\n\
             Connection: close\r\n\r\n{body}",
            body.len()
        );
        response_within(addr, raw.as_bytes(), timeout)
    };

    let mut tiny_ccr = smoke_spec();
    tiny_ccr.platforms[1].ccr = 1e-320;
    let res = post(&tiny_ccr);
    assert!(res.starts_with("HTTP/1.1 400 Bad Request"), "{res}");
    assert!(res.contains("not finite"), "{res}");

    let mut edgeless = smoke_spec();
    edgeless.workloads = vec![WorkloadSpec::Layered(TaskCount { tasks: 1 })];
    let first = post(&edgeless);
    assert!(first.starts_with("HTTP/1.1 200 OK"), "{first}");
    assert!(
        !first.ends_with("0\r\n\r\n"),
        "a halted run must not end its stream cleanly: {first}"
    );
    let again = post(&edgeless);
    assert!(
        again.starts_with("HTTP/1.1 500 Internal Server Error"),
        "{again}"
    );
    assert!(again.contains("cannot take granularity"), "{again}");

    let health = status_within(addr, b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n", timeout);
    assert_eq!(health, "HTTP/1.1 200 OK");
}

/// A client that submits and then never reads its streamed response
/// holds the only handler until the write-stall deadline: the stalled
/// write fails like a hangup, the run settles as resumable at its
/// durable count, the next request is answered, and a resubmission
/// resumes to the exact bytes.
#[test]
fn stalled_reader_is_dropped_at_the_write_deadline() {
    let dir = scratch_dir("stalled-reader");
    let mut spec = smoke_spec();
    spec.id = "serve-stalled-reader".into();
    spec.workloads = vec![WorkloadSpec::Layered(TaskCount { tasks: 8 })];
    spec.platforms = (0..2000)
        .map(|i| PlatformSpec {
            procs: 4,
            granularity: 0.5 + i as f64 / 1000.0,
            ..PlatformSpec::default()
        })
        .collect();
    spec.repetitions = 1;
    let spec_json = spec.to_json().expect("spec serializes");
    let computing = Instant::now();
    let reference = campaign_to_json(&run_campaign_with_threads(&spec, 2).expect("valid spec"));
    let compute = computing.elapsed();
    assert!(
        reference.len() > 8 << 20,
        "the body ({} bytes) must outgrow the loopback socket buffers",
        reference.len()
    );

    let addr = spawn_server(ServeConfig {
        threads: 2,
        handlers: 1,
        data_dir: Some(dir.clone()),
        ..ServeConfig::default()
    });
    let mut stalled = TcpStream::connect(addr).expect("connect");
    stalled
        .write_all(
            format!(
                "POST /campaigns HTTP/1.1\r\nHost: loopback\r\nContent-Length: {}\r\n\
                 Connection: close\r\n\r\n{spec_json}",
                spec_json.len()
            )
            .as_bytes(),
        )
        .expect("send request");
    // Never read: the handler streams until the socket buffers fill.
    let submitted = Instant::now();

    let timeout = Duration::from_secs(60);
    let health = status_within(addr, b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n", timeout);
    assert_eq!(health, "HTTP/1.1 200 OK");
    // The handler came free one write-stall deadline (5 s) after the
    // socket buffers filled, which takes at most the run's compute time:
    // the kernel's zero-window probes, which free a little buffer now
    // and then, do not stretch the deadline.
    let held = submitted.elapsed();
    let bound = Duration::from_secs(5) + 2 * compute + Duration::from_secs(2);
    assert!(
        held < bound,
        "the stalled reader held the handler for {held:?} (bound {bound:?}, compute {compute:?})"
    );

    let retry = post_campaign(addr, &spec_json);
    assert_eq!(retry.status, "HTTP/1.1 200 OK", "{}", retry.body);
    assert_eq!(retry.header("X-Campaign-Run"), Some("resumed"));
    assert_eq!(retry.body, reference);
    drop(stalled);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The chunks of a chunked body that may be cut short, and whether the
/// terminating chunk arrived.
fn chunks_of(mut rest: &str) -> (Vec<&str>, bool) {
    let mut chunks = Vec::new();
    while let Some((size_line, after)) = rest.split_once("\r\n") {
        let size_hex = size_line.split(';').next().unwrap_or_default();
        let size = usize::from_str_radix(size_hex, 16).expect("hex chunk size");
        if size == 0 {
            return (chunks, true);
        }
        chunks.push(&after[..size]);
        rest = &after[size + 2..];
    }
    (chunks, false)
}

/// A group that fails mid-run, after good ones, at two threads: the WAL
/// holds exactly the groups before the first failing one, the body
/// streams exactly those, and the stream is cut.
#[test]
fn failing_group_leaves_exactly_the_groups_before_it_durable_and_streamed() {
    let dir = scratch_dir("failing-group");
    let mut good = smoke_spec();
    good.id = "serve-failing-group".into();
    good.workloads.truncate(1);
    good.platforms = (0..6)
        .map(|i| PlatformSpec::paper(8, 0.4 + 0.2 * i as f64))
        .collect();
    let reference = run_campaign_with_threads(&good, 2).expect("valid spec");
    let mut spec = good.clone();
    spec.workloads
        .push(WorkloadSpec::Layered(TaskCount { tasks: 1 }));
    let k = good.num_groups();
    assert!(spec.num_groups() > k);

    let addr = spawn_server(ServeConfig {
        threads: 2,
        data_dir: Some(dir.clone()),
        ..ServeConfig::default()
    });
    let body = spec.to_json().expect("spec serializes");
    let raw = format!(
        "POST /campaigns HTTP/1.1\r\nHost: loopback\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    );
    let res = response_within(addr, raw.as_bytes(), Duration::from_secs(30));
    let (head, payload) = res.split_once("\r\n\r\n").expect("header block");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{res}");

    let expected: Vec<String> = reference.groups.iter().map(json_group).collect();
    let durable = wal::read(&Store::open(&dir).expect("store").wal_path(spec_key(&spec)))
        .expect("read WAL")
        .groups;
    assert_eq!(durable, expected, "the WAL must hold exactly groups 0..{k}");

    let (chunks, terminated) = chunks_of(payload);
    assert!(!terminated, "a halted run must not end its stream cleanly");
    assert_eq!(chunks.len(), k + 1, "the head, then the {k} good groups");
    assert_eq!(chunks[0], json_head(&spec.id));
    for (gi, group) in expected.iter().enumerate() {
        assert_eq!(chunks[gi + 1], format!("{}{group}", json_group_lead(gi)));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The scraped counters of `GET /metrics`, by name.
fn metrics(addr: SocketAddr) -> Vec<(String, u64)> {
    let res = request(addr, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
    assert_eq!(res.status, "HTTP/1.1 200 OK");
    assert_eq!(
        res.header("Content-Type"),
        Some("text/plain; version=0.0.4")
    );
    res.body
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| {
            let (name, value) = l.split_once(' ').expect("name value");
            (name.to_string(), value.parse().expect("integer counter"))
        })
        .collect()
}

fn counter(scraped: &[(String, u64)], name: &str) -> u64 {
    scraped
        .iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("no {name} in {scraped:?}"))
        .1
}

/// `GET /metrics` against ground truth: after fresh runs on a data-dir
/// server, the frame counter equals the frames in the runs' WALs, the
/// byte counter their bytes past the magic header, and each run took at
/// least one and at most one sync per frame. Without a data dir every
/// counter reads zero.
#[test]
fn wal_metrics_match_the_frames_on_disk() {
    let names = [
        "ftsched_wal_frames_total",
        "ftsched_wal_syncs_total",
        "ftsched_wal_bytes_total",
    ];
    let plain = spawn_server(ServeConfig {
        threads: 2,
        ..ServeConfig::default()
    });
    assert_eq!(
        post_campaign(plain, &smoke_spec().to_json().unwrap()).status,
        "HTTP/1.1 200 OK"
    );
    let scraped = metrics(plain);
    for name in names {
        assert_eq!(counter(&scraped, name), 0, "{name} without a data dir");
    }

    let dir = scratch_dir("metrics");
    let addr = spawn_server(ServeConfig {
        threads: 2,
        data_dir: Some(dir.clone()),
        ..ServeConfig::default()
    });
    let mut keys = Vec::new();
    for seed in 0..3 {
        let mut spec = smoke_spec();
        spec.platforms = (0..4)
            .map(|i| PlatformSpec::paper(8, 0.4 + 0.3 * i as f64))
            .collect();
        spec.seed ^= seed;
        let res = post_campaign(addr, &spec.to_json().expect("spec serializes"));
        assert_eq!(res.header("X-Campaign-Run"), Some("new"), "{}", res.body);
        keys.push(spec_key(&spec));
    }
    let scraped = metrics(addr);
    let store = Store::open(&dir).expect("store");
    let (mut frames, mut bytes) = (0, 0);
    for &key in &keys {
        let path = store.wal_path(key);
        frames += wal::read(&path).expect("read WAL").groups.len() as u64;
        bytes += std::fs::metadata(&path).expect("WAL metadata").len() - wal::MAGIC.len() as u64;
    }
    let syncs = counter(&scraped, "ftsched_wal_syncs_total");
    assert_eq!(counter(&scraped, "ftsched_wal_frames_total"), frames);
    assert_eq!(counter(&scraped, "ftsched_wal_bytes_total"), bytes);
    assert!(
        keys.len() as u64 <= syncs && syncs <= frames,
        "{} runs, {syncs} syncs, {frames} frames",
        keys.len()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `POST /campaigns` whose body stops short of its `Content-Length`
/// registers no run. A client that goes quiet holds the only handler
/// until the 5 s read deadline; one that half-closes frees it at once.
/// Either way the connection is closed without a response, `/healthz`
/// answers afterwards, and the full spec is then a new run.
#[test]
fn truncated_body_registers_no_run_and_frees_the_handler() {
    let dir = scratch_dir("truncated");
    let addr = spawn_server(ServeConfig {
        threads: 1,
        handlers: 1,
        data_dir: Some(dir.clone()),
        ..ServeConfig::default()
    });
    let spec_json = smoke_spec().to_json().expect("spec serializes");
    let short = format!(
        "POST /campaigns HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{}",
        spec_json.len(),
        &spec_json[..spec_json.len() / 2]
    );
    for half_close in [false, true] {
        let sent = Instant::now();
        let mut truncated = TcpStream::connect(addr).expect("connect");
        truncated
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        truncated.write_all(short.as_bytes()).expect("send");
        if half_close {
            truncated
                .shutdown(std::net::Shutdown::Write)
                .expect("half-close");
        }
        // Queued behind the truncated request on the only handler.
        let status = status_within(
            addr,
            b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n",
            Duration::from_secs(30),
        );
        assert_eq!(status, "HTTP/1.1 200 OK");
        let freed = sent.elapsed();
        let bound = if half_close { 2 } else { 5 + 5 };
        assert!(
            freed < Duration::from_secs(bound),
            "handler freed {freed:?} after a truncated body (half-close: {half_close})"
        );
        let mut rest = Vec::new();
        truncated
            .read_to_end(&mut rest)
            .expect("the server closes the connection");
        assert!(
            rest.is_empty(),
            "a truncated body got a response: {:?}",
            String::from_utf8_lossy(&rest)
        );
    }
    let res = post_campaign(addr, &spec_json);
    assert_eq!(res.status, "HTTP/1.1 200 OK", "{}", res.body);
    assert_eq!(res.header("X-Campaign-Run"), Some("new"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Bytes pipelined after a complete request are never read as a second
/// request: the client gets exactly one response, byte for byte the one
/// it would get alone, and a clean end of stream rather than a reset
/// that could cut it short. The server stays up.
#[test]
fn pipelined_garbage_gets_no_second_response() {
    let addr = spawn_server(ServeConfig {
        threads: 1,
        handlers: 1,
        ..ServeConfig::default()
    });
    let spec = smoke_spec();
    let spec_json = spec.to_json().expect("spec serializes");
    let reference = post_campaign(addr, &spec_json);
    assert_eq!(reference.status, "HTTP/1.1 200 OK", "{}", reference.body);
    let health = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n";
    let post = format!(
        "POST /campaigns HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{spec_json}",
        spec_json.len()
    );
    // Garbage, a second well-formed request, and more than the server's
    // 8 KiB read buffer holds, so some of it is still unread in the
    // socket when the response ends. It stays under the default 128 KiB
    // socket receive buffer, so the client's write cannot block while
    // the server computes.
    let mut garbage = health.to_vec();
    garbage.extend_from_slice(b"\x00\xffnot http\r\n\r\n");
    garbage.resize(64 << 10, b'#');
    for first in [&health[..], post.as_bytes()] {
        let mut raw = first.to_vec();
        raw.extend_from_slice(&garbage);
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        stream.write_all(&raw).expect("send");
        let mut bytes = Vec::new();
        stream
            .read_to_end(&mut bytes)
            .expect("the response ends with a clean close, not a reset");
        let text = String::from_utf8(bytes).expect("responses are UTF-8");
        assert_eq!(
            text.matches("HTTP/1.1 ").count(),
            1,
            "pipelined bytes got a second response: {text:?}"
        );
        let (_, payload) = text.split_once("\r\n\r\n").expect("header block");
        if first == health {
            assert_eq!(payload, "ok\n");
        } else {
            let (body, _) = de_chunk(payload);
            assert_eq!(body, reference.body);
        }
    }
    let res = request(addr, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
    assert_eq!(res.body, "ok\n");
}
