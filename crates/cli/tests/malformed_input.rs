//! Malformed graph and bundle files through the CLI entry point. Each
//! must come back from `ftsched_cli::run` as an error that names the
//! defect (exit 1 from the binary), never as a panic (exit 101) and
//! never as an infinite weight that reaches the scheduler.

use ftsched_cli::Bundle;
use ftsched_core::{CommSelection, Replica, Schedule};
use platform::{Platform, ProcId};
use std::process::Command;
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

type Order = Vec<Vec<(TaskId, usize)>>;

/// `bundle` as JSON, with its schedule's replicas, placement lists and
/// matched pairs edited by hand.
fn edited(
    bundle: &Bundle,
    edit: impl FnOnce(&mut Vec<Vec<Replica>>, &mut Order, &mut CommSelection),
) -> String {
    let s = &bundle.schedule;
    let mut replicas = s.replica_lists();
    let mut order: Order = (0..s.num_procs())
        .map(|j| s.proc_order(j).collect())
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

fn matched(comm: &mut CommSelection) -> &mut Vec<Vec<(usize, usize)>> {
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
            edited(&mc, |_, _, c| {
                matched(c).pop();
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
            edited(&mc, |_, _, c| matched(c)[0] = vec![(7, 9)]),
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
/// `Platform`, or in `scale_to_granularity` (the last case: a single
/// processor has no links, so the instance has no granularity to scale).
const DEGENERATE_CASES: [(&[&str], &str); 12] = [
    (
        &["generate", "--family", "layered", "--tasks", "0"],
        "--tasks must be at least 1 for the layered family",
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

#[test]
fn degenerate_shape_and_platform_options_are_named_errors() {
    let out = scratch("degenerate.json");
    for (case, expected) in DEGENERATE_CASES {
        let err = ftsched_cli::run(&degenerate_args(case, &out)).expect_err("option accepted");
        assert_eq!(err, expected, "{case:?}");
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
