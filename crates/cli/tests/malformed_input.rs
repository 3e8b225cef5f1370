//! Malformed graph and bundle files through the CLI entry point. Each
//! must come back from `ftsched_cli::run` as an error that names the
//! defect (exit 1 from the binary), never as a panic (exit 101) and
//! never as an infinite weight that reaches the scheduler.

use ftsched_cli::Bundle;
use ftsched_core::{CommSelection, Replica, Schedule};
use platform::{Platform, ProcId};
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};
use taskgraph::TaskId;

fn scratch(name: &str) -> String {
    std::env::temp_dir()
        .join(format!("ftsched_malformed_{name}_{}", std::process::id()))
        .to_string_lossy()
        .into_owned()
}

fn run(args: &[&str]) -> Result<String, String> {
    let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    ftsched_cli::run(&argv)
}

fn schedule_args<'a>(graph: &'a str, out: &'a str) -> [&'a str; 9] {
    [
        "schedule",
        "--graph",
        graph,
        "--procs",
        "3",
        "--epsilon",
        "1",
        "--out",
        out,
    ]
}

/// A one-task graph whose edge points past the task count — the input
/// that used to panic while the adjacency was built.
const UNKNOWN_ENDPOINT: &str =
    r#"{"nodes": [{"work": 2.0, "label": null}], "edges": [{"src": 0, "dst": 5, "volume": 1.0}]}"#;

#[test]
fn malformed_graphs_are_named_errors() {
    let node = r#"{"work": 2.0, "label": null}"#;
    let two = format!("{node}, {node}");
    let graph = |nodes: &str, edges: &str| format!(r#"{{"nodes": [{nodes}], "edges": [{edges}]}}"#);
    let cases = [
        (UNKNOWN_ENDPOINT.to_string(), "edge 0 names unknown task t5"),
        (
            graph(r#"{"work": -3.0, "label": null}"#, ""),
            "work of t0 is negative or not finite",
        ),
        (
            graph(&two, r#"{"src": 0, "dst": 1, "volume": -1.0}"#),
            "volume of edge 0 is negative or not finite",
        ),
        (
            graph(r#"{"work": 1e400, "label": null}"#, ""),
            "number `1e400` overflows f64",
        ),
        (
            graph("{\"work\": 1.0, \"label\": \"raw\nnewline\"}", ""),
            "control character in string",
        ),
        (
            format!(
                r#"{{"deep": {}{}, "nodes": [], "edges": []}}"#,
                "[".repeat(100_000),
                "]".repeat(100_000)
            ),
            "JSON nesting too deep",
        ),
        (
            format!(r#"{{"nodes": [{node}]}}"#),
            "missing field `edges` in Dag",
        ),
    ];
    let (path, out) = (scratch("graph.json"), scratch("bundle.json"));
    for (text, expected) in cases {
        std::fs::write(&path, &text).unwrap();
        let err = run(&schedule_args(&path, &out)).expect_err("malformed graph accepted");
        assert!(err.starts_with(&format!("parsing {path}: ")), "{err}");
        assert!(err.contains(expected), "expected `{expected}` in: {err}");
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn the_binary_exits_1_not_101_on_a_bad_endpoint() {
    let (path, out) = (scratch("endpoint.json"), scratch("endpoint-bundle.json"));
    std::fs::write(&path, UNKNOWN_ENDPOINT).unwrap();
    let output = Command::new(env!("CARGO_BIN_EXE_ftsched"))
        .args(schedule_args(&path, &out))
        .output()
        .expect("run ftsched");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("edge 0 names unknown task t5"), "{stderr}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn malformed_bundles_are_named_errors() {
    let (graph, good) = (scratch("bundle-graph.json"), scratch("good-bundle.json"));
    run(&[
        "generate", "--family", "gauss", "--size", "4", "--out", &graph,
    ])
    .unwrap();
    run(&schedule_args(&graph, &good)).unwrap();
    let bundle = Bundle::from_json(&std::fs::read_to_string(&good).unwrap()).unwrap();
    let compact = serde_json::to_string(&bundle).unwrap();
    // Replaces the first number of the named array.
    let first_of = |array: &str, with: &str| {
        let open = compact.find(&format!("\"{array}\":[")).unwrap() + array.len() + 4;
        let end = open + compact[open..].find(',').unwrap();
        format!("{}{with}{}", &compact[..open], &compact[end..])
    };
    let mismatched = Bundle {
        platform: Platform::uniform_delay(4, 1.0),
        ..bundle.clone()
    };
    let v = bundle.dag.num_tasks();
    let cases = [
        (
            first_of("times", "-2.0"),
            "time E(0, 0) = -2 must be positive".into(),
        ),
        (
            first_of("times", "0"),
            "time E(0, 0) = 0 must be positive".into(),
        ),
        (
            compact.replacen("\"times\":[", "\"times\":[1.0,", 1),
            format!("times has {} entries, expected v·m = {v}·3", 3 * v + 1),
        ),
        (first_of("delay", "0.5"), "delay d(0, 0) = 0.5".into()),
        (
            compact.replacen("\"delay\":[", "\"delay\":[0.0,", 1),
            "delay has 10 entries, expected m·m = 3·3".into(),
        ),
        (
            mismatched.to_json().unwrap(),
            "bundle parts disagree".into(),
        ),
    ];
    let bad = scratch("bad-bundle.json");
    for (text, expected) in cases {
        std::fs::write(&bad, &text).unwrap();
        let err = run(&["simulate", "--bundle", &bad]).expect_err("malformed bundle accepted");
        assert!(err.contains(&expected), "expected `{expected}` in: {err}");
    }
    for path in [graph, good, bad] {
        let _ = std::fs::remove_file(path);
    }
}

fn golden_bundle(alg: &str) -> Bundle {
    let path = format!(
        "{}/../../tests/golden/json/bundle-{alg}.json",
        env!("CARGO_MANIFEST_DIR")
    );
    Bundle::from_json(&std::fs::read_to_string(path).unwrap()).unwrap()
}

type Order = Vec<Vec<(TaskId, u32)>>;

/// `bundle` as JSON, with its schedule's replicas, placement lists and
/// matched pairs edited by hand.
fn edited(
    bundle: &Bundle,
    edit: impl FnOnce(&mut Vec<Vec<Replica>>, &mut Order, &mut CommSelection),
) -> String {
    let s = &bundle.schedule;
    let mut replicas = s.tasks_replicas().map(<[Replica]>::to_vec).collect();
    let mut order: Order = (0..s.num_procs())
        .map(|j| s.proc_order(j).to_vec())
        .collect();
    let mut comm = s.comm.clone();
    edit(&mut replicas, &mut order, &mut comm);
    let schedule = Schedule::from_parts(s.epsilon, replicas, order, comm, s.schedule_order.clone());
    Bundle {
        schedule,
        ..bundle.clone()
    }
    .to_json()
    .unwrap()
}

fn matched(comm: &mut CommSelection) -> &mut Vec<(u32, u32)> {
    match comm {
        CommSelection::Matched(pairs) => pairs,
        CommSelection::AllToAll => panic!("expected a matched schedule"),
    }
}

/// Schedules that do not fit their instance: each used to panic in the
/// simulator or replay a wrong answer with exit 0.
#[test]
fn bundles_whose_schedule_does_not_fit_are_named_errors() {
    let (ftsa, mc) = (golden_bundle("ftsa"), golden_bundle("mc-ftsa"));
    let v = ftsa.dag.num_tasks();
    let (edges, (_, src, dst, _)) = (mc.dag.num_edges(), mc.dag.edge_list().next().unwrap());
    let cases: [(String, String, &[&str]); 5] = [
        (
            // Used to print `completed`, or panic under --fail 3.
            edited(&ftsa, |r, _, _| r[0][0].proc = ProcId(99)),
            "task t0 placed on unknown P99".into(),
            &["--fail", "3"],
        ),
        (
            edited(&ftsa, |r, _, _| {
                r.pop();
            }),
            format!(
                "schedule has replicas for {} tasks, the graph has {v}",
                v - 1
            ),
            &[],
        ),
        (
            edited(&ftsa, |_, o, _| o[0].push((TaskId(999), 0))),
            "proc P0 places unknown task t999".into(),
            &[],
        ),
        (
            // One edge short: its ε + 1 pairs go.
            edited(&mc, |_, _, c| {
                let pairs = matched(c);
                pairs.truncate(pairs.len() - (mc.schedule.epsilon + 1));
            }),
            format!(
                "matched comm table lists {} edges, the graph has {edges}",
                edges - 1
            ),
            &[],
        ),
        (
            // Used to report `FAILED: a task lost all replicas` with no
            // failure at all.
            edited(&mc, |_, _, c| matched(c)[0] = (7, 9)),
            format!("edge {src}->{dst} pair (7, 9) names a missing replica"),
            &[],
        ),
    ];
    let bad = scratch("unfit-bundle.json");
    for (text, expected, extra) in cases {
        std::fs::write(&bad, &text).unwrap();
        let args = [&["simulate", "--bundle", bad.as_str()], extra].concat();
        let err = run(&args).expect_err("unfit bundle accepted");
        assert!(
            err.starts_with(&format!("parsing {bad}: bundle schedule does not fit")),
            "{err}"
        );
        assert!(err.contains(&expected), "expected `{expected}` in: {err}");

        let output = Command::new(env!("CARGO_BIN_EXE_ftsched"))
            .args(&args)
            .output()
            .expect("run ftsched");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{stderr}");
        assert!(
            stderr.contains(&expected),
            "expected `{expected}` in: {stderr}"
        );
    }
    let _ = std::fs::remove_file(&bad);
}

/// Schedules the bundle reader rejects before `validate` runs: an edge
/// whose pair count is not ε + 1, which the flat matched table cannot
/// hold, an ε so large that reserving ε + 1 replica slots per task
/// used to abort the process on allocation, and a task with more
/// replicas than processors, whose count used to size every task's
/// slots in the replica arena.
#[test]
fn unreadable_schedules_are_named_errors() {
    let mc = serde_json::to_string(&golden_bundle("mc-ftsa")).unwrap();
    // Drops the last pair of edge 0.
    let at = mc.find(r#""Matched":["#).unwrap() + r#""Matched":["#.len();
    let end = at + mc[at..].find("]]").unwrap();
    let cut = at + mc[at..end].rfind(",[").unwrap();
    let ragged = format!("{}{}", &mc[..cut], &mc[end + 1..]);
    let huge = serde_json::to_string(&golden_bundle("ftsa"))
        .unwrap()
        .replacen(r#""epsilon":1,"#, r#""epsilon":1000000000000,"#, 1);
    let crowded = edited(&golden_bundle("ftsa"), |r, _, _| {
        let extra = r[0][0];
        r[0].extend([extra; 5]);
    });
    let cases = [
        (
            ragged,
            "matched comm table: edge 0 has 1 pairs, expected ε + 1 = 2",
        ),
        (
            huge,
            "ε = 1000000000000 needs more than the platform's 4 processors",
        ),
        (
            crowded,
            "task t0 has 7 replicas, more than the schedule's 4 processors",
        ),
    ];
    let bad = scratch("unreadable-bundle.json");
    for (text, expected) in cases {
        std::fs::write(&bad, &text).unwrap();
        let args = ["simulate", "--bundle", bad.as_str()];
        let err = run(&args).expect_err("unreadable bundle accepted");
        assert!(err.contains(expected), "expected `{expected}` in: {err}");

        let output = Command::new(env!("CARGO_BIN_EXE_ftsched"))
            .args(args)
            .output()
            .expect("run ftsched");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{stderr}");
        assert!(
            stderr.contains(expected),
            "expected `{expected}` in: {stderr}"
        );
    }
    let _ = std::fs::remove_file(&bad);
}

/// Monte-Carlo options out of range for the 4-processor golden bundle,
/// with the error each must name. Each used to panic (exit 101), the
/// `--crashes` case inside a worker thread.
const MONTE_CARLO_CASES: [(&[&str], &str); 7] = [
    (
        &["reliability", "--samples", "0"],
        "--samples must be at least 1",
    ),
    (
        &["reliability", "--p", "1.5"],
        "--p must be a probability in [0, 1], got 1.5",
    ),
    (
        &["reliability", "--p", "-0.1"],
        "--p must be a probability in [0, 1], got -0.1",
    ),
    (
        &["reliability", "--p", "nan"],
        "--p must be a probability in [0, 1], got NaN",
    ),
    (
        &["simulate", "--replications", "5", "--crashes", "99"],
        "--crashes 99 exceeds the bundle's 4 processors",
    ),
    (
        &["simulate", "--random-failures", "99"],
        "--random-failures 99 exceeds the bundle's 4 processors",
    ),
    (&["simulate", "--fail", "0,0"], "--fail: P0 is listed twice"),
];

fn monte_carlo_args(case: &[&str]) -> Vec<String> {
    let bundle = format!(
        "{}/../../tests/golden/json/bundle-ftsa.json",
        env!("CARGO_MANIFEST_DIR")
    );
    let mut args: Vec<String> = case.iter().map(|s| s.to_string()).collect();
    args.splice(1..1, ["--bundle".to_string(), bundle]);
    args
}

#[test]
fn monte_carlo_options_out_of_range_are_named_errors() {
    for (case, expected) in MONTE_CARLO_CASES {
        let err = ftsched_cli::run(&monte_carlo_args(case)).expect_err("option accepted");
        assert_eq!(err, expected, "{case:?}");
    }
    // The boundaries stay accepted.
    for p in ["0", "1"] {
        let args = monte_carlo_args(&["reliability", "--p", p, "--samples", "20"]);
        ftsched_cli::run(&args).expect("p at the boundary");
    }
}

#[test]
fn the_binary_exits_1_not_101_on_monte_carlo_options() {
    for (case, expected) in MONTE_CARLO_CASES {
        let output = Command::new(env!("CARGO_BIN_EXE_ftsched"))
            .args(monte_carlo_args(case))
            .output()
            .expect("run ftsched");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{case:?}: {stderr}");
        assert!(
            stderr.contains(expected),
            "expected `{expected}` in: {stderr}"
        );
    }
}

/// Degenerate shape and platform options, with the error each must name.
/// Each used to trip an assertion (exit 101): in a graph generator, in
/// `Platform`, or in `scale_to_granularity` (a single processor has no
/// links, so the instance has no granularity to scale) — except the
/// `1e308` granularity, whose factor overflowed into infinite times and
/// `NaN%` (exit 0), and the last, which was always a named error but is
/// now found before `schedule` creates its output file (which exists
/// before the schedule does), as the no-output assertion checks.
const DEGENERATE_CASES: [(&[&str], &str); 20] = [
    (
        &["generate", "--family", "layered", "--tasks", "0"],
        "--tasks must be at least 1 for the layered family",
    ),
    // Shapes past `taskgraph::generators::MAX_TASKS` (2^20), refused
    // from the shape alone: nothing is drawn.
    (
        &["generate", "--family", "layered", "--tasks", "1048577"],
        "--tasks 1048577 draws 1048577 tasks, more than the 1048576 a graph may have",
    ),
    (
        &["generate", "--family", "erdos", "--tasks", "100000000000"],
        "--tasks 100000000000 draws 100000000000 tasks, more than the 1048576 a graph may have",
    ),
    (
        &["generate", "--family", "wavefront", "--size", "1025"],
        "--size 1025 draws 1050625 tasks, more than the 1048576 a graph may have",
    ),
    (
        &["generate", "--family", "stencil", "--size", "10000000000"],
        "--size 10000000000 draws a task count that overflows",
    ),
    (
        &["generate", "--family", "mapreduce", "--size", "1448"],
        "--size 1448 draws a shuffle of 1049800 edges, more than the 1048576 a graph may have",
    ),
    (
        &["generate", "--family", "erdos", "--tasks", "0"],
        "--tasks must be at least 1 for the erdos family",
    ),
    (
        &["generate", "--family", "forkjoin", "--size", "0"],
        "--size must be at least 1 for the forkjoin family",
    ),
    (
        &["generate", "--family", "stencil", "--size", "0"],
        "--size must be at least 1 for the stencil family",
    ),
    (
        &["generate", "--family", "wavefront", "--size", "0"],
        "--size must be at least 1 for the wavefront family",
    ),
    (
        &["generate", "--family", "mapreduce", "--size", "0"],
        "--size must be at least 1 for the mapreduce family",
    ),
    (
        &["schedule", "--procs", "0", "--epsilon", "0"],
        "--procs must be at least 1",
    ),
    (
        &["schedule", "--procs", "1000000", "--epsilon", "1"],
        "--procs must be at most 4096, got 1000000",
    ),
    (
        &[
            "schedule",
            "--procs",
            "3",
            "--epsilon",
            "1",
            "--granularity",
            "0",
        ],
        "--granularity must be positive and finite, got 0",
    ),
    (
        &[
            "schedule",
            "--procs",
            "3",
            "--epsilon",
            "1",
            "--granularity",
            "-1",
        ],
        "--granularity must be positive and finite, got -1",
    ),
    (
        &[
            "schedule",
            "--procs",
            "3",
            "--epsilon",
            "1",
            "--granularity",
            "nan",
        ],
        "--granularity must be positive and finite, got NaN",
    ),
    (
        &[
            "schedule",
            "--procs",
            "3",
            "--epsilon",
            "1",
            "--granularity",
            "inf",
        ],
        "--granularity must be positive and finite, got inf",
    ),
    (
        &[
            "schedule",
            "--procs",
            "1",
            "--epsilon",
            "0",
            "--granularity",
            "1",
        ],
        "--granularity is undefined for an instance without communication \
         (no edges, zero volumes or one processor)",
    ),
    (
        &[
            "schedule",
            "--procs",
            "3",
            "--epsilon",
            "1",
            "--granularity",
            "1e308",
        ],
        "--granularity 1e308 is out of range: the rescaled execution times \
         would not be finite",
    ),
    (
        &["schedule", "--procs", "2", "--epsilon", "2"],
        "cannot tolerate 2 failures with only 2 processors (need at least 3)",
    ),
];

/// A case's arguments with an output file, and for `schedule` the golden
/// gauss-5 graph as input.
fn degenerate_args(case: &[&str], out: &str) -> Vec<String> {
    let mut args: Vec<String> = case.iter().map(|s| s.to_string()).collect();
    if case[0] == "schedule" {
        let graph = format!(
            "{}/../../tests/golden/json/graph-gauss5.json",
            env!("CARGO_MANIFEST_DIR")
        );
        args.extend(["--graph".to_string(), graph]);
    }
    args.extend(["--out".to_string(), out.to_string()]);
    args
}

/// Whether a `schedule` case's error needs the graph: the granularity
/// checks that scale the drawn instance, which come after the read.
fn needs_the_graph(expected: &str) -> bool {
    expected.starts_with("--granularity is undefined")
        || expected.starts_with("--granularity 1e308 is out of range")
}

#[test]
fn degenerate_shape_and_platform_options_are_named_errors() {
    let (out, missing) = (scratch("degenerate.json"), scratch("no-such-graph.json"));
    for (case, expected) in DEGENERATE_CASES {
        let args = degenerate_args(case, &out);
        let err = ftsched_cli::run(&args).expect_err("option accepted");
        assert_eq!(err, expected, "{case:?}");
        if case[0] != "schedule" {
            continue;
        }
        // Options are checked before the graph is read: a missing graph
        // file changes no answer that does not need the graph.
        let graph_at = args.iter().position(|a| a == "--graph").unwrap() + 1;
        let mut args = args;
        args[graph_at] = missing.clone();
        let err = ftsched_cli::run(&args).expect_err("option accepted");
        if needs_the_graph(expected) {
            assert!(err.starts_with(&format!("reading {missing}: ")), "{err}");
        } else {
            assert_eq!(err, expected, "{case:?} with a missing graph");
        }
    }
    assert!(
        !std::path::Path::new(&out).exists(),
        "a rejected command wrote its output"
    );
    // The smallest accepted values still run.
    for case in [
        &["generate", "--family", "layered", "--tasks", "1"][..],
        &["generate", "--family", "mapreduce", "--size", "1"],
        &["schedule", "--procs", "1", "--epsilon", "0"],
        &[
            "schedule",
            "--procs",
            "2",
            "--epsilon",
            "0",
            "--granularity",
            "1e-3",
        ],
    ] {
        ftsched_cli::run(&degenerate_args(case, &out)).expect("smallest value accepted");
    }
    let _ = std::fs::remove_file(&out);
}

#[test]
fn the_binary_exits_1_not_101_on_degenerate_options() {
    let out = scratch("degenerate-bin.json");
    for (case, expected) in DEGENERATE_CASES {
        let output = Command::new(env!("CARGO_BIN_EXE_ftsched"))
            .args(degenerate_args(case, &out))
            .output()
            .expect("run ftsched");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{case:?}: {stderr}");
        assert!(
            stderr.contains(expected),
            "expected `{expected}` in: {stderr}"
        );
    }
}

/// A stdout that takes no bytes (`/dev/full`, where it exists) makes the
/// binary exit 1 with a named error, not panic in its last print
/// (exit 101); `generate` still writes its graph file first.
#[test]
fn the_binary_exits_1_not_101_when_stdout_is_full() {
    if !std::path::Path::new("/dev/full").exists() {
        return;
    }
    let graph = scratch("stdout-full-graph.json");
    let cases: [&[&str]; 2] = [
        &["help"],
        &[
            "generate", "--family", "gauss", "--size", "4", "--out", &graph,
        ],
    ];
    for args in cases {
        let full = std::fs::OpenOptions::new()
            .write(true)
            .open("/dev/full")
            .expect("open /dev/full");
        let output = Command::new(env!("CARGO_BIN_EXE_ftsched"))
            .args(args)
            .stdout(full)
            .output()
            .expect("run ftsched");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{args:?}: {stderr}");
        assert_eq!(
            stderr, "error: writing stdout: No space left on device (os error 28)\n",
            "{args:?}"
        );
    }
    assert!(
        std::path::Path::new(&graph).exists(),
        "generate wrote no graph"
    );
    let _ = std::fs::remove_file(&graph);
}

/// `schedule` outputs that fail on write, with the error each must name:
/// an existing directory (`File::create` fails) and, where it exists,
/// `/dev/full`, which takes no bytes, so the first piece's write
/// fails. Returns the cases and the directory, which holds one file.
fn write_failure_cases(name: &str) -> (Vec<(String, String)>, String) {
    let dir = scratch(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the output directory");
    std::fs::write(format!("{dir}/kept.txt"), "kept").expect("fill the output directory");
    let mut cases = vec![(
        dir.clone(),
        format!("writing {dir}: Is a directory (os error 21)"),
    )];
    if std::path::Path::new("/dev/full").exists() {
        cases.push((
            "/dev/full".to_string(),
            "writing /dev/full: No space left on device (os error 28)".to_string(),
        ));
    }
    (cases, dir)
}

/// The failed `schedule` unlinked and changed neither output: the
/// directory still holds its one file, and `/dev/full` is still a
/// character device.
fn assert_outputs_untouched(dir: &str) {
    let entries: Vec<_> = std::fs::read_dir(dir)
        .expect("the output directory is still there")
        .map(|e| e.expect("read the output directory").file_name())
        .collect();
    assert_eq!(entries, ["kept.txt"], "{dir}");
    assert_eq!(
        std::fs::read_to_string(format!("{dir}/kept.txt")).unwrap(),
        "kept"
    );
    #[cfg(unix)]
    if std::path::Path::new("/dev/full").exists() {
        use std::os::unix::fs::FileTypeExt;
        let meta = std::fs::symlink_metadata("/dev/full").expect("stat /dev/full");
        assert!(meta.file_type().is_char_device(), "/dev/full was replaced");
    }
    let _ = std::fs::remove_dir_all(dir);
}

fn golden_graph() -> String {
    format!(
        "{}/../../tests/golden/json/graph-gauss5.json",
        env!("CARGO_MANIFEST_DIR")
    )
}

#[test]
fn schedule_write_failures_are_named_errors() {
    let graph = golden_graph();
    let (cases, dir) = write_failure_cases("write-failure");
    for (out, expected) in &cases {
        let err = run(&schedule_args(&graph, out)).expect_err("the write failed");
        assert_eq!(&err, expected, "{out}");
        // Input errors are found before the output is opened.
        let mut too_few = schedule_args(&graph, out);
        (too_few[4], too_few[6]) = ("2", "2");
        let err = run(&too_few).expect_err("ε = 2 needs 3 processors");
        assert_eq!(
            err, "cannot tolerate 2 failures with only 2 processors (need at least 3)",
            "{out}"
        );
    }
    assert_outputs_untouched(&dir);
}

#[test]
fn the_binary_exits_1_not_101_on_schedule_write_failures() {
    let graph = golden_graph();
    let (cases, dir) = write_failure_cases("write-failure-bin");
    for (out, expected) in &cases {
        let output = Command::new(env!("CARGO_BIN_EXE_ftsched"))
            .args(schedule_args(&graph, out))
            .output()
            .expect("run ftsched");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{out}: {stderr}");
        assert!(
            stderr.contains(expected.as_str()),
            "expected `{expected}` in: {stderr}"
        );
        assert!(output.stdout.is_empty(), "{out}: reported success");
    }
    assert_outputs_untouched(&dir);
}

/// `/dev/full` under a bundle of many pieces, written by the calling
/// thread and the render thread: the first write error still comes
/// back named, from `run` and from the binary (exit 1), and the device
/// is left as it was.
#[test]
fn a_full_device_fails_a_bundle_of_many_pieces() {
    if !std::path::Path::new("/dev/full").exists() {
        return;
    }
    let graph = scratch("many-pieces-graph.json");
    run(&[
        "generate", "--family", "layered", "--tasks", "5000", "--seed", "7", "--out", &graph,
    ])
    .expect("generate");
    let args = [
        "schedule",
        "--graph",
        &graph,
        "--procs",
        "8",
        "--epsilon",
        "2",
        "--algorithm",
        "mc-ftsa",
        "--out",
        "/dev/full",
    ];
    let expected = "writing /dev/full: No space left on device (os error 28)";
    assert_eq!(run(&args).expect_err("the write failed"), expected);
    let output = Command::new(env!("CARGO_BIN_EXE_ftsched"))
        .args(args)
        .output()
        .expect("run ftsched");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains(expected),
        "expected `{expected}` in: {stderr}"
    );
    assert!(output.stdout.is_empty(), "reported success");
    let dir = scratch("many-pieces-untouched");
    std::fs::create_dir_all(&dir).expect("create a directory to check");
    std::fs::write(format!("{dir}/kept.txt"), "kept").expect("fill it");
    assert_outputs_untouched(&dir);
    let _ = std::fs::remove_file(graph);
}

/// Runs `campaign --spec` on `preset`'s spec after `edit`, through `run`
/// and through the binary, and checks both refuse it with `expected`
/// (exit 1).
fn assert_spec_refused(
    preset: &str,
    name: &str,
    edit: impl FnOnce(&mut experiments::campaign::CampaignSpec),
    expected: &str,
) {
    let spec = run(&["campaign", "--preset", preset, "--dump-spec"]).expect("dump");
    let mut spec = experiments::campaign::CampaignSpec::from_json(&spec).expect("parse");
    edit(&mut spec);
    let path = scratch(name);
    std::fs::write(&path, spec.to_json().expect("serialize")).expect("write the spec");
    let err = run(&["campaign", "--spec", &path]).expect_err("refused spec");
    assert!(err.contains(expected), "{err}");
    let output = Command::new(env!("CARGO_BIN_EXE_ftsched"))
        .args(["campaign", "--spec", &path])
        .output()
        .expect("run ftsched");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains(expected),
        "expected `{expected}` in: {stderr}"
    );
    let _ = std::fs::remove_file(path);
}

/// A campaign spec whose platform point asks for more processors than a
/// platform may have is refused before any platform is drawn, from
/// `run` and from the binary (exit 1), instead of aborting on a
/// terabyte delay matrix.
#[test]
fn a_campaign_spec_with_too_many_processors_is_a_named_error() {
    assert_spec_refused(
        "ci-smoke",
        "too-many-procs.json",
        |spec| spec.platforms[0].procs = 1_000_000,
        "platform point with 1000000 processors (at most 4096)",
    );
}

/// Exact reliability enumerates `2^m` failure patterns, up to 24
/// processors: a spec asking for it on 25 is refused by `validate`
/// (exit 1), where it used to pass and panic mid-campaign (exit 101).
#[test]
fn a_reliability_spec_beyond_the_exact_bound_is_a_named_error() {
    assert_spec_refused(
        "reliability",
        "exact-reliability-25.json",
        |spec| {
            spec.platforms[0].procs = 25;
            spec.epsilons = vec![1];
        },
        "exact reliability enumerates every failure pattern, so it takes at most 24 \
         processors; platform point has 25",
    );
}

/// A platform heterogeneity of 1 would draw execution-time factors down
/// to 0: `validate` refuses it (exit 1), where it used to pass and panic
/// mid-campaign (exit 101).
#[test]
fn a_campaign_spec_with_a_heterogeneity_of_one_is_a_named_error() {
    assert_spec_refused(
        "ci-smoke",
        "heterogeneity-1.json",
        |spec| spec.platforms[0].heterogeneity = 1.0,
        "platform heterogeneity 1 outside [0, 1): execution times are scaled by factors \
         down to 1 − heterogeneity, which must stay positive",
    );
}

/// Options a command does not declare, or declared ones in the wrong
/// shape, with the start of the error each must name. Each used to be
/// dropped silently: the command ran with the option ignored (exit 0),
/// and `serve` bound and served without the data dir it was given.
fn undeclared_option_cases() -> Vec<(Vec<String>, &'static str)> {
    let golden = |file: &str| {
        format!(
            "{}/../../tests/golden/json/{file}",
            env!("CARGO_MANIFEST_DIR")
        )
    };
    let (graph, bundle) = (golden("graph-gauss5.json"), golden("bundle-ftsa.json"));
    let (out, data) = (scratch("undeclared.json"), scratch("undeclared-data"));
    let cases: [(&[&str], &str); 6] = [
        (
            &[
                "schedule",
                "--graph",
                &graph,
                "--procs",
                "3",
                "--epsilon",
                "1",
                "--granularity=0",
                "--out",
                &out,
            ],
            "unknown option `--granularity=0` (accepted: --graph --procs ",
        ),
        (
            &["campaign", "--preset", "ci-smoke", "--rep", "1"],
            "unknown option `--rep` (accepted: --preset --spec ",
        ),
        (
            &["serve", "--addr", "127.0.0.1:0", "--data_dir", &data],
            "unknown option `--data_dir` (accepted: --addr --threads ",
        ),
        (
            &["simulate", "--bundle", &bundle, "--gantt", "yes"],
            "flag --gantt takes no value, got `yes`",
        ),
        (
            &["campaign", "--preset", "ci-smoke", "--quick", "5"],
            "flag --quick takes no value, got `5`",
        ),
        (
            &[
                "schedule",
                "--graph",
                &graph,
                "--procs",
                "3",
                "--epsilon",
                "1",
                "--seed",
                "--out",
                &out,
            ],
            "option --seed needs a value",
        ),
    ];
    cases
        .iter()
        .map(|(args, expected)| (args.iter().map(|a| a.to_string()).collect(), *expected))
        .collect()
}

/// How long a case may run: long enough for a debug build to run the
/// ci-smoke preset the parent ran instead of failing; a `serve` that
/// binds never returns, so without a bound the test would hang.
const CASE_TIMEOUT: Duration = Duration::from_secs(120);

#[test]
fn undeclared_options_are_named_errors() {
    for (args, expected) in undeclared_option_cases() {
        let (tx, rx) = mpsc::channel();
        let argv = args.clone();
        std::thread::spawn(move || {
            let _ = tx.send(ftsched_cli::run(&argv));
        });
        let outcome = rx
            .recv_timeout(CASE_TIMEOUT)
            .unwrap_or_else(|_| panic!("{args:?} did not return"));
        let err = outcome.expect_err("option accepted");
        assert!(err.starts_with(expected), "{args:?}: {err}");
    }
    assert!(!std::path::Path::new(&scratch("undeclared.json")).exists());
    assert!(!std::path::Path::new(&scratch("undeclared-data")).exists());
}

#[test]
fn the_binary_exits_1_on_undeclared_options() {
    for (args, expected) in undeclared_option_cases() {
        let mut child = Command::new(env!("CARGO_BIN_EXE_ftsched"))
            .args(&args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("run ftsched");
        let started = Instant::now();
        while child.try_wait().expect("poll ftsched").is_none() {
            if started.elapsed() > CASE_TIMEOUT {
                let _ = child.kill();
                panic!("{args:?} did not exit");
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        let output = child.wait_with_output().expect("collect output");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains(expected),
            "expected `{expected}` in: {stderr}"
        );
        assert!(output.stdout.is_empty(), "{args:?} did work before failing");
    }
}
