//! Loopback integration tests for `experiments::serve`: real
//! `TcpStream`s against a bound server, covering the contract pillars —
//! response bytes equal the CLI emission at any shard count, duplicate
//! submissions share one run, malformed specs bounce with a 4xx while
//! the server stays live, and (with a data dir) runs survive a restart:
//! completed runs replay byte-identically, interrupted ones resume from
//! their WAL checkpoints bit-exactly.

use experiments::campaign::{presets, run_campaign_with_threads, CampaignSpec};
use experiments::output::campaign_to_json;
use experiments::serve::{rendered_group, spec_key, ServeConfig, Server};
use experiments::store::{key_hex, Store};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::thread;
use std::time::Duration;

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
    let reference = campaign_to_json(&run_campaign_with_threads(&spec, 1).expect("valid spec"));

    for threads in [1usize, 4] {
        let dir = scratch_dir(&format!("resume_t{threads}"));
        // Crash state: spec + running record + WAL holding only the
        // first group.
        let store = Store::open(&dir).expect("open store");
        let mut wal = store
            .begin_run(key, &spec.id, &spec_json, groups)
            .expect("begin run");
        wal.append(rendered_group(&spec, 0).expect("group 0").as_bytes())
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

/// Sends raw bytes and reads the status line of the answer, waiting at
/// most `timeout` for it — so a server that never answers fails the
/// test instead of hanging it.
fn status_within(addr: SocketAddr, raw: &[u8], timeout: Duration) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(timeout))
        .expect("read timeout");
    stream.write_all(raw).expect("send request");
    let mut bytes = Vec::new();
    stream
        .read_to_end(&mut bytes)
        .expect("the server answers before the client gives up");
    let text = String::from_utf8_lossy(&bytes);
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
