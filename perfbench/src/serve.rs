//! `serve-durable`: an in-process [`Server`] with a data directory and
//! two shard threads, driven by one closed-loop client over loopback
//! HTTP, one connection at a time; the window counts wall time, checks
//! between requests included. The mix is three `POST /campaigns` of fresh specs (new runs) to one
//! resubmission of a completed spec.
//!
//! Set-up (`setup_s`) is [`Server::bind`] over a data directory that a
//! warm-up pass already filled with completed runs, so it includes
//! recovery; it is timed several times. Every de-chunked body must equal
//! `campaign_to_json` of its spec (computed after the request, outside
//! the timing) and `X-Campaign-Run` must be `new` or `existing` as the
//! mix expects. The traced run re-executes some new runs' layers from
//! outside: group evaluation and rendering on two threads, WAL appends
//! with fsync and the run-record writes into a scratch store on the same
//! filesystem; the re-executed groups must make up the expected body.

use crate::measure::{
    cpu_seconds, derive_seed, median, span_medians, timed, OpPeak, Samples, Spans, Window,
};
use crate::{sum_check, Opts, Report, Size};
use experiments::campaign::{
    evaluate_any_cell_into, finalize_group, presets, run_campaign_with_threads, CampaignResult,
    CampaignSpec, CellContext, CellPlan, GroupResult, LayeredRange, PlatformSpec, SeriesKey,
    StructuredKernel, StructuredWorkload, WorkloadSpec,
};
use experiments::output::campaign_to_json;
use experiments::serve::{spec_key, ServeConfig, Server};
use experiments::store::{Fingerprint, Store};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::sync_channel;
use std::time::{Duration, Instant};

/// Shard threads of the server.
pub const THREADS: usize = 2;

/// Peak memory covers the first this many operations only: the server
/// keeps every completed run's body in memory, so a peak over the whole
/// window would grow with the number of operations the window fitted.
pub const RSS_OPS: u64 = 256;

/// Completed specs kept, with their bodies, for resubmission: few, so the
/// bodies the benchmark holds add little to the peak memory it reads.
const POOL: usize = 8;

/// The `index`-th spec of a run: paper-layered 30–40, wavefront 4,
/// fft 8 and cholesky 4, times 8 granularities (tiny: 2) on 8
/// processors, ε = 1, 2 repetitions (tiny: 1), with the ci-smoke
/// measures. Each index draws a fresh seed, hence a fresh run key.
pub fn spec(seed: u64, index: u64, size: Size) -> CampaignSpec {
    let (granularities, reps) = match size {
        Size::Full => (8, 2),
        Size::Tiny => (2, 1),
    };
    let structured = |kernel, size| WorkloadSpec::Structured(StructuredWorkload { kernel, size });
    let mut spec = presets::ci_smoke(reps);
    spec.id = "serve-durable".into();
    spec.workloads = vec![
        WorkloadSpec::PaperLayered(LayeredRange {
            tasks_lo: 30,
            tasks_hi: 40,
        }),
        structured(StructuredKernel::Wavefront, 4),
        structured(StructuredKernel::Fft, 8),
        structured(StructuredKernel::Cholesky, 4),
    ];
    spec.platforms = (1..=granularities)
        .map(|i| PlatformSpec::paper(8, 0.2 * i as f64))
        .collect();
    spec.seed = derive_seed(seed, 0x5E7E_0000 + index);
    spec
}

/// The body a correct server streams for `spec`.
pub fn expected_body(spec: &CampaignSpec) -> Result<String, String> {
    let res = run_campaign_with_threads(spec, THREADS).map_err(|e| e.to_string())?;
    Ok(campaign_to_json(&res))
}

/// A de-chunked `POST /campaigns` response with its client-side timings
/// (seconds from the start of the request).
#[derive(Debug, Clone)]
pub struct Response {
    /// `X-Campaign-Run` header value.
    pub mode: String,
    /// De-chunked body.
    pub body: Vec<u8>,
    /// Arrival of the first group chunk (`None` for a one-chunk replay).
    pub first_group_s: Option<f64>,
    /// Arrival of the terminal chunk.
    pub last_byte_s: f64,
}

/// Whether a response is correct: expected run mode, exact body bytes.
pub fn check_response(resp: &Response, mode: &str, expected: &str) -> bool {
    resp.mode == mode && resp.body == expected.as_bytes()
}

fn read_line(r: &mut impl BufRead) -> Result<String, String> {
    let mut line = String::new();
    if r.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
        return Err("connection closed mid-response".into());
    }
    Ok(line.trim_end().to_string())
}

/// One `POST /campaigns` on a fresh connection, read to the terminal
/// chunk.
pub fn post(addr: SocketAddr, spec_json: &str) -> Result<Response, String> {
    let t0 = Instant::now();
    let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| e.to_string())?;
    let _ = stream.set_nodelay(true);
    let mut request = format!(
        "POST /campaigns HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n",
        spec_json.len()
    )
    .into_bytes();
    request.extend_from_slice(spec_json.as_bytes());
    (&stream).write_all(&request).map_err(|e| e.to_string())?;
    let mut r = BufReader::new(stream);
    let status = read_line(&mut r)?;
    if !status.starts_with("HTTP/1.1 200") {
        return Err(format!("status: {status}"));
    }
    let mut mode = String::new();
    loop {
        let header = read_line(&mut r)?;
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("x-campaign-run") {
                mode = value.trim().to_string();
            }
        }
    }
    let mut body = Vec::new();
    let mut first_group_s = None;
    loop {
        let line = read_line(&mut r)?;
        let (size, ext) = line.split_once(';').unwrap_or((&line, ""));
        let size = usize::from_str_radix(size.trim(), 16).map_err(|_| format!("chunk: {line}"))?;
        if size == 0 {
            read_line(&mut r)?;
            break;
        }
        let start = body.len();
        body.resize(start + size, 0);
        r.read_exact(&mut body[start..])
            .map_err(|e| e.to_string())?;
        if !read_line(&mut r)?.is_empty() {
            return Err("chunk not terminated by CRLF".into());
        }
        if ext == "seq=1" {
            first_group_s = Some(t0.elapsed().as_secs_f64());
        }
    }
    Ok(Response {
        mode,
        body,
        first_group_s,
        last_byte_s: t0.elapsed().as_secs_f64(),
    })
}

/// `GET /campaigns`: the server's run listing.
fn listing(addr: SocketAddr) -> Result<String, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| e.to_string())?;
    stream
        .write_all(b"GET /campaigns HTTP/1.1\r\nHost: localhost\r\n\r\n")
        .map_err(|e| e.to_string())?;
    let mut text = String::new();
    stream
        .read_to_string(&mut text)
        .map_err(|e| e.to_string())?;
    Ok(text)
}

/// Waits until no run of the server at `addr` is still running and at
/// least `completed` runs are. A run's record is committed before its
/// slot settles, so afterwards the data directory is quiescent.
fn wait_settled(addr: SocketAddr, completed: usize) -> Result<(), String> {
    let t0 = Instant::now();
    loop {
        let text = listing(addr)?;
        if !text.contains("\"state\": \"running\"")
            && text.matches("\"state\": \"completed\"").count() >= completed
        {
            return Ok(());
        }
        if t0.elapsed() > Duration::from_secs(30) {
            return Err("runs did not settle within 30 s".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The server configuration of the workload over `data_dir`.
pub fn config(data_dir: &Path) -> ServeConfig {
    ServeConfig {
        threads: THREADS,
        handlers: 1,
        data_dir: Some(data_dir.to_path_buf()),
        ..ServeConfig::default()
    }
}

/// Starts a bound server's accept loop on a detached thread (the loop
/// never returns; the thread ends with the process).
pub fn start(server: Server) -> Result<SocketAddr, String> {
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    std::thread::spawn(move || {
        if let Err(e) = server.run() {
            eprintln!("perfbench: server stopped: {e}");
        }
    });
    Ok(addr)
}

/// Closes the `groups` array and the campaign document.
const BODY_SUFFIX: &str = "\n  ]\n}";

/// One group's statistics: every repetition through
/// [`evaluate_any_cell_into`], then [`finalize_group`], as a server shard
/// does with its warm context.
fn evaluate_group(
    spec: &CampaignSpec,
    plan: &CellPlan,
    gi: usize,
    ctx: &mut CellContext,
) -> Result<GroupResult, String> {
    let reps = spec.repetitions;
    let mut series: BTreeMap<SeriesKey, Vec<f64>> = BTreeMap::new();
    let mut out = Vec::new();
    for rep in 0..reps {
        out.clear();
        evaluate_any_cell_into(spec, plan, gi * reps + rep, ctx, &mut out)
            .map_err(|e| e.to_string())?;
        for &(key, value) in &out {
            series.entry(key).or_default().push(value);
        }
    }
    Ok(finalize_group(spec, plan, gi, series))
}

/// One group's bytes as the server streams them: `campaign_to_json` of a
/// one-group result is the campaign's opening, the group at its nesting
/// depth, and [`BODY_SUFFIX`].
fn render_group(spec: &CampaignSpec, group: GroupResult) -> String {
    let doc = campaign_to_json(&CampaignResult {
        id: spec.id.clone(),
        groups: vec![group],
    });
    let opening = "\"groups\": [\n";
    let start = doc.find(opening).map_or(0, |i| i + opening.len());
    let end = doc.len().saturating_sub(BODY_SUFFIX.len()).max(start);
    doc[start..end].to_string()
}

/// The layers of one new run, re-executed from outside the server in
/// the server's own pipeline shape: [`THREADS`] workers, each with one
/// warm [`CellContext`] and sharing one [`CellPlan`], evaluate and render
/// groups while this thread appends them in group order to the WAL of a
/// scratch store (with fsync), after the run record's begin write and
/// before its completion write.
///
/// `serve.group_s` is the time the appending thread waited for rendered
/// groups: the rendering left on the result path. `store.begin_run_s` is
/// the begin write; `store.record_s` adds the completion write, which the
/// server makes after the terminal chunk, off the response path. Returns
/// the WAL size in bytes and whether the groups, joined as the server
/// streams them, equal `expected`.
fn traced_run(
    spec: &CampaignSpec,
    expected: &str,
    scratch: &Store,
    spans: &mut Spans,
) -> Result<(u64, bool), String> {
    let groups = spec.num_groups();
    let key = spec_key(spec);
    let canonical = spec.to_json()?;
    let plan = CellPlan::new(spec);
    let (wal, begin_s) = timed(|| scratch.begin_run(key, &spec.id, &canonical, groups));
    let mut wal = wal.map_err(|e| e.to_string())?;
    spans.add("store.begin_run_s", begin_s);
    spans.add("store.record_s", begin_s);
    let cursor = AtomicUsize::new(0);
    let mut fp = Fingerprint::new();
    let mut body = format!("{{\n  \"id\": \"{}\",\n  \"groups\": [\n", spec.id);
    let result = std::thread::scope(|s| -> Result<(), String> {
        let (tx, rx) = sync_channel(groups.max(1));
        for _ in 0..THREADS {
            let tx = tx.clone();
            let (cursor, plan) = (&cursor, &plan);
            s.spawn(move || {
                let mut ctx = CellContext::new();
                loop {
                    let gi = cursor.fetch_add(1, Ordering::Relaxed);
                    if gi >= groups {
                        return;
                    }
                    let g = evaluate_group(spec, plan, gi, &mut ctx).map(|g| render_group(spec, g));
                    if tx.send((gi, g)).is_err() {
                        return;
                    }
                }
            });
        }
        drop(tx);
        let mut pending = BTreeMap::new();
        let mut next = 0;
        while next < groups {
            let (msg, waited) = timed(|| rx.recv());
            spans.add("serve.group_s", waited);
            let (gi, g) = msg.map_err(|_| "group workers stopped early".to_string())?;
            pending.insert(gi, g?);
            while let Some(g) = pending.remove(&next) {
                spans
                    .span("store.wal_append_s", || wal.append(g.as_bytes()))
                    .map_err(|e| e.to_string())?;
                fp.push_group(&g);
                if next > 0 {
                    body.push_str(",\n");
                }
                body.push_str(&g);
                next += 1;
            }
        }
        Ok(())
    });
    result?;
    spans
        .span("store.record_s", || scratch.complete_run(key, fp.finish()))
        .map_err(|e| e.to_string())?;
    body.push_str(BODY_SUFFIX);
    let wal_bytes = std::fs::metadata(scratch.wal_path(key))
        .map(|m| m.len())
        .map_err(|e| e.to_string())?;
    Ok((wal_bytes, body == expected))
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Result<Report, String> {
    let (warmup_runs, binds) = match opts.size {
        Size::Full => (4u64, 15),
        Size::Tiny => (2u64, 3),
    };
    let data = opts.work_dir.join("data");
    let mut report = Report::default();

    // Warm-up pass: completed runs for recovery and resubmission.
    let warm = start(Server::bind("127.0.0.1:0", config(&data)).map_err(|e| e.to_string())?)?;
    let mut pool: Vec<(String, String)> = Vec::new();
    for i in 0..warmup_runs {
        let s = spec(opts.seed, i, opts.size);
        let json = s.to_json()?;
        let expected = expected_body(&s)?;
        let resp = post(warm, &json).map_err(|e| format!("warm-up: {e}"))?;
        if !check_response(&resp, "new", &expected) {
            return Err("warm-up response does not match its spec".into());
        }
        pool.push((json, expected));
    }
    wait_settled(warm, pool.len())?;

    let mut recovers = Vec::new();
    if opts.trace {
        for _ in 0..binds {
            let (res, secs) = timed(|| Store::open(&data).and_then(|s| s.recover()));
            res.map_err(|e| e.to_string())?;
            recovers.push(secs);
        }
    }
    let mut setups = Vec::new();
    let mut server = None;
    for _ in 0..binds {
        drop(server.take());
        let (res, secs) = timed(|| Server::bind("127.0.0.1:0", config(&data)));
        server = Some(res.map_err(|e| e.to_string())?);
        setups.push(secs);
    }
    report.set("setup_s", median(&setups).expect("set-up samples"));
    let addr = start(server.expect("bound server"))?;

    let scratch = Store::open(opts.work_dir.join("scratch")).map_err(|e| e.to_string())?;
    let mut window = Window::new(opts.seconds);
    let (mut first, mut last, mut replay) =
        (Samples::default(), Samples::default(), Samples::default());
    let mut span_ops = Vec::new();
    let (mut groups, mut wal_bytes, mut response_bytes) = (0.0, 0.0, 0.0);
    let mut cpu = 0.0;
    let mut next = warmup_runs;
    let mut cycle = 0usize;
    let mut rss = OpPeak::default();
    while window.open() {
        let began = Instant::now();
        let resubmit = cycle % 4 == 3;
        cycle += 1;
        let (json, fresh, expected) = if resubmit {
            let (json, expected) = pool[cycle % pool.len()].clone();
            (json, None, expected)
        } else {
            let s = spec(opts.seed, next, opts.size);
            next += 1;
            (s.to_json()?, Some(s), String::new())
        };
        let c0 = cpu_seconds();
        let resp = if report.attempted < RSS_OPS {
            rss.around(|| post(addr, &json))
        } else {
            post(addr, &json)
        };
        cpu += cpu_seconds() - c0;
        let expected = match &fresh {
            Some(s) => expected_body(s)?,
            None => expected,
        };
        let ok = match (&resp, &fresh) {
            (Ok(r), None) => {
                replay.push(r.last_byte_s);
                check_response(r, "existing", &expected)
            }
            (Ok(r), Some(s)) => {
                last.push(r.last_byte_s);
                if let Some(f) = r.first_group_s {
                    first.push(f);
                }
                let ok = check_response(r, "new", &expected);
                if ok {
                    groups = s.num_groups() as f64;
                    response_bytes = r.body.len() as f64;
                    if pool.len() >= POOL {
                        pool.remove(0);
                    }
                    pool.push((json, expected.clone()));
                }
                ok
            }
            (Err(e), _) => {
                eprintln!("perfbench: request failed: {e}");
                false
            }
        };
        if !ok {
            if let Ok(r) = &resp {
                eprintln!(
                    "perfbench: response check failed: X-Campaign-Run {:?}, {} body bytes",
                    r.mode,
                    r.body.len()
                );
            }
        }
        report.count(ok);
        // Every fourth new run is re-executed layer by layer: enough
        // samples for the per-layer medians at a quarter of the cost.
        if let (true, Some(s), 0) = (opts.trace, &fresh, next % 4) {
            let mut spans = Spans::default();
            let (bytes, same) = traced_run(s, &expected, &scratch, &mut spans)?;
            if !same {
                eprintln!("perfbench: re-executed groups differ from the expected body");
            }
            report.count(same);
            wal_bytes = bytes as f64;
            span_ops.push(spans);
        }
        // The window counts each request with its checks: a new run
        // fsyncs about 40 times, and fewer requests per run keep a
        // virtual disk from throttling a long series of runs.
        window.add(began.elapsed().as_secs_f64());
    }
    report.lines.push(window.stolen_line());
    report.lines.push(rss.line());
    wait_settled(addr, 0)?;

    let op_s = last.median().unwrap_or(f64::NAN);
    report.lines.push(first.summary("first_group_s"));
    report.lines.push(last.summary("last_byte_s (op_s)"));
    report.lines.push(replay.summary("replay_s"));
    if opts.trace {
        let medians = span_medians(&span_ops);
        for (&name, &v) in &medians {
            report.set(name, v);
        }
        let recover_s = median(&recovers).expect("recovery samples");
        report.set("store.recover_s", recover_s);
        let self_s = replay.median().unwrap_or(0.0);
        report.set("serve.self_s", self_s);
        report.set("serve.groups", groups);
        report.set("store.wal_bytes", wal_bytes);
        report.set("serve.response_bytes", response_bytes);
        // The completion write follows the terminal chunk, so only the
        // begin write lies on the measured path.
        let layers = ["serve.group_s", "store.wal_append_s", "store.begin_run_s"]
            .iter()
            .map(|n| medians.get(n).copied().unwrap_or(0.0))
            .sum::<f64>()
            + self_s;
        // The traced path is a re-execution beside the server, not a
        // traced server, so no overhead of tracing the server exists.
        sum_check(&mut report, layers, op_s, None);
    } else {
        report.set("op_s", op_s);
        report.set("cpu_s", cpu / report.attempted.max(1) as f64);
        report.set("peak_rss_mb", rss.mb());
    }
    Ok(report)
}
