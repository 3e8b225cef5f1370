//! Serialization integration tests: graphs, platforms, schedules and
//! failure scenarios must round-trip through JSON so experiments can be
//! archived and replayed, and the JSON text itself is pinned byte for
//! byte against golden files.
//!
//! The goldens in `tests/golden/json/` were rendered by the serde shim's
//! earlier value-tree writer, before it became a streaming one:
//!
//! * `graph-gauss5.json` — `ftsched generate --family gauss --size 5
//!   --seed 7`;
//! * `bundle-<alg>.json` — `ftsched schedule --graph graph-gauss5.json
//!   --procs 4 --epsilon 1 --algorithm <alg> --seed 3` for `ftsa`,
//!   `mc-ftsa` (matched communications) and `ftbar`;
//! * `ci-smoke-quick.campaign.json` — `ftsched campaign --preset ci-smoke
//!   --quick`;
//! * `spec-<preset>.json` — `ftsched campaign --preset <preset>
//!   --dump-spec` for every preset, with the spec keys (store file names)
//!   in `spec-keys.txt`;
//!
//! and each `<stem>.compact.json` is the compact rendering of the value
//! read back from `<stem>.json`. CI also `cmp`s the CLI's graph and
//! bundle files against them. Never re-render these to make a test
//! pass: a difference means stored files would change.

use experiments::campaign::{presets, CampaignResult, CampaignSpec};
use experiments::serve::spec_key;
use experiments::store::key_hex;
use ftsched::prelude::*;
use ftsched_cli::Bundle;
use rand::{rngs::StdRng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

fn golden(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden/json")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

fn cli(args: &[&str]) -> String {
    let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    ftsched_cli::run(&argv).unwrap_or_else(|e| panic!("ftsched {args:?}: {e}"))
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ftsched_golden_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Asserts byte equality, naming the first differing byte.
fn assert_same(what: &str, got: &str, want: &str) {
    if got != want {
        let at = got
            .bytes()
            .zip(want.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or(got.len().min(want.len()));
        let context = |s: &str| {
            s.get(at.saturating_sub(40)..(at + 40).min(s.len()))
                .map(str::to_owned)
        };
        panic!(
            "{what} differs from its golden at byte {at} (lengths {} vs {}):\n got: {:?}\nwant: {:?}",
            got.len(),
            want.len(),
            context(got),
            context(want)
        );
    }
}

/// Checks `rendered` against golden `<stem>.json`, the compact rendering
/// of the value read back from it against `<stem>.compact.json`, and
/// that the compact golden reads back to the same pretty text.
fn assert_golden<T: Serialize + Deserialize>(stem: &str, rendered: &str) {
    let pretty = golden(&format!("{stem}.json"));
    let compact = golden(&format!("{stem}.compact.json"));
    assert_same(&format!("{stem} (pretty)"), rendered, &pretty);
    let value: T = serde_json::from_str(&pretty).expect("golden reads back");
    assert_same(
        &format!("{stem} (compact)"),
        &serde_json::to_string(&value).unwrap(),
        &compact,
    );
    let again: T = serde_json::from_str(&compact).expect("compact golden reads back");
    assert_same(
        &format!("{stem} (compact read back)"),
        &serde_json::to_string_pretty(&again).unwrap(),
        &pretty,
    );
}

#[test]
fn cli_graph_and_bundle_files_match_goldens() {
    let dir = scratch_dir("bundles");
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let graph = path("graph-gauss5.json");
    cli(&[
        "generate", "--family", "gauss", "--size", "5", "--seed", "7", "--out", &graph,
    ]);
    let text = std::fs::read_to_string(&graph).unwrap();
    assert_golden::<Dag>("graph-gauss5", &text);
    assert!(
        text.contains("\"label\": \"pivot(0)\""),
        "labelled instance"
    );

    for alg in ["ftsa", "mc-ftsa", "ftbar"] {
        let out = path(&format!("bundle-{alg}.json"));
        cli(&[
            "schedule",
            "--graph",
            &graph,
            "--procs",
            "4",
            "--epsilon",
            "1",
            "--algorithm",
            alg,
            "--seed",
            "3",
            "--out",
            &out,
        ]);
        let text = std::fs::read_to_string(&out).unwrap();
        assert_golden::<Bundle>(&format!("bundle-{alg}"), &text);
        let bundle = Bundle::from_json(&text).unwrap();
        assert_eq!(bundle.to_json().unwrap(), text, "library rendering = file");
        let matched = matches!(bundle.schedule.comm, CommSelection::Matched(_));
        assert_eq!(matched, alg == "mc-ftsa", "{alg} comm");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ci_smoke_campaign_json_matches_golden() {
    let dir = scratch_dir("campaign");
    let out = dir.to_string_lossy().into_owned();
    cli(&["campaign", "--preset", "ci-smoke", "--quick", "--out", &out]);
    let text = std::fs::read_to_string(dir.join("ci-smoke.campaign.json")).unwrap();
    assert_golden::<CampaignResult>("ci-smoke-quick.campaign", &text);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn preset_specs_and_their_keys_match_goldens() {
    let keys = golden("spec-keys.txt");
    let keys: Vec<(&str, &str)> = keys
        .lines()
        .map(|l| l.split_once(' ').expect("`<preset> <key>` lines"))
        .collect();
    let names: Vec<&str> = keys.iter().map(|&(name, _)| name).collect();
    assert_eq!(names, presets::PRESET_NAMES, "one golden per preset");
    for (name, key) in keys {
        let text = cli(&["campaign", "--preset", name, "--dump-spec"]);
        assert_golden::<CampaignSpec>(&format!("spec-{name}"), &text);
        let spec = CampaignSpec::from_json(&text).unwrap();
        assert_eq!(
            key_hex(spec_key(&spec)),
            key,
            "{name}: store file names moved"
        );
    }
}

#[test]
fn schedule_round_trips_through_json() {
    let mut rng = StdRng::seed_from_u64(11);
    let inst = paper_instance(&mut rng, &PaperInstanceConfig::default());
    let sched = schedule(&inst, 2, Algorithm::McFtsaGreedy, &mut rng).unwrap();

    let json = serde_json::to_string(&sched).unwrap();
    let back: Schedule = serde_json::from_str(&json).unwrap();
    assert_eq!(back.epsilon, sched.epsilon);
    // `Schedule` equality is logical content: per-task replica slices,
    // per-processor placement order, comm table and schedule order —
    // independent of the arena layout the JSON was built from.
    assert_eq!(back, sched);
    assert_eq!(back.comm, sched.comm);

    // The deserialized schedule still validates and simulates.
    validate(&inst, &back).unwrap();
    let sim = simulate(&inst, &back, &FailureScenario::none());
    assert!(sim.completed());
}

#[test]
fn instance_components_round_trip() {
    let mut rng = StdRng::seed_from_u64(12);
    let inst = paper_instance(&mut rng, &PaperInstanceConfig::default());

    let dag_json = taskgraph::io::to_json(&inst.dag).unwrap();
    let dag2 = taskgraph::io::from_json(&dag_json).unwrap();
    assert_eq!(dag2.num_tasks(), inst.dag.num_tasks());

    let plat_json = serde_json::to_string(&inst.platform).unwrap();
    let plat2: Platform = serde_json::from_str(&plat_json).unwrap();
    assert_eq!(plat2.num_procs(), inst.platform.num_procs());
    assert_eq!(plat2.delay(0, 1), inst.platform.delay(0, 1));

    let exec_json = serde_json::to_string(&inst.exec).unwrap();
    let exec2: ExecutionMatrix = serde_json::from_str(&exec_json).unwrap();
    assert_eq!(exec2.time(0, 0), inst.exec.time(0, 0));

    // Rebuild an instance from the parts and schedule it identically.
    let rebuilt = Instance::new(dag2, plat2, exec2);
    let a = schedule(&inst, 1, Algorithm::Ftsa, &mut StdRng::seed_from_u64(5)).unwrap();
    let b = schedule(&rebuilt, 1, Algorithm::Ftsa, &mut StdRng::seed_from_u64(5)).unwrap();
    assert_eq!(a, b);
}

#[test]
fn failure_scenarios_round_trip() {
    let scen = FailureScenario::new(vec![(ProcId(3), 0.0), (ProcId(7), 12.5)]);
    let json = serde_json::to_string(&scen).unwrap();
    let back: FailureScenario = serde_json::from_str(&json).unwrap();
    assert_eq!(back, scen);
    assert_eq!(back.failure_time(ProcId(7)), Some(12.5));
}

#[test]
fn dot_export_of_workloads() {
    let dag = gaussian_elimination(5, 1.0, 1.0);
    let dot = taskgraph::io::to_dot(&dag);
    assert!(dot.contains("digraph"));
    assert!(dot.contains("pivot(0)"));
    assert!(dot.matches("->").count() >= dag.num_edges());
}
