//! The benchmark's own tests: inputs are a pure function of the seed,
//! a flipped output byte fails an operation's check, the metric catalog
//! matches BENCHMARK.json, and a tiny-size pass runs every workload.

use perfbench::{campaign, schedule, serve, Opts, Size, Workload, END_TO_END, PER_LAYER};
use std::path::PathBuf;

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn flip_byte(path: &std::path::Path, at: usize) {
    let mut bytes = std::fs::read(path).unwrap();
    bytes[at] ^= 0x01;
    std::fs::write(path, bytes).unwrap();
}

#[test]
fn inputs_are_a_pure_function_of_the_seed() {
    let dir = scratch("inputs");
    let p = schedule::params(Size::Tiny);
    let graph = |seed: u64, name: &str| {
        let path = dir.join(name);
        schedule::generate(&p, schedule::input_seeds(seed).0, &path).unwrap();
        std::fs::read(path).unwrap()
    };
    assert_eq!(graph(5, "a.json"), graph(5, "b.json"));
    assert_ne!(graph(5, "a.json"), graph(6, "b.json"));
    assert_eq!(schedule::input_seeds(5), schedule::input_seeds(5));

    let campaign_spec = |seed| campaign::spec(seed, Size::Full).to_json().unwrap();
    assert_eq!(campaign_spec(5), campaign_spec(5));
    assert_ne!(campaign_spec(5), campaign_spec(6));

    let serve_specs = |seed| -> Vec<String> {
        (0..4)
            .map(|i| serve::spec(seed, i, Size::Full).to_json().unwrap())
            .collect()
    };
    let specs = serve_specs(5);
    assert_eq!(specs, serve_specs(5));
    assert_ne!(specs, serve_specs(6));
    for (i, a) in specs.iter().enumerate() {
        assert!(
            specs[i + 1..].iter().all(|b| b != a),
            "run keys must differ"
        );
    }
    assert_eq!(serve::spec(5, 0, Size::Full).num_groups(), 32);
    assert_eq!(campaign::spec(5, Size::Full).num_cells(), 600);
}

#[test]
fn a_flipped_output_byte_fails_the_check() {
    // schedule-100k: a written bundle against the library reference.
    let dir = scratch("flip");
    let p = schedule::params(Size::Tiny);
    let (graph_seed, seed) = schedule::input_seeds(9);
    let graph = dir.join("graph.json");
    schedule::generate(&p, graph_seed, &graph).unwrap();
    let expected = schedule::reference(&p, &graph, seed).unwrap();
    schedule::cli_op(&p, &graph, seed, &dir).unwrap();
    let bundle = schedule::bundle_path(&dir, "ftbar");
    assert!(schedule::check_bundle(&bundle, &expected[2]));
    assert!(schedule::deep_check(&bundle, &expected[2]));
    let len = std::fs::metadata(&bundle).unwrap().len() as usize;
    for at in [0, len / 2, len - 1] {
        flip_byte(&bundle, at);
        assert!(
            !schedule::check_bundle(&bundle, &expected[2]),
            "flip at {at}"
        );
        flip_byte(&bundle, at);
    }
    assert!(schedule::check_bundle(&bundle, &expected[2]));

    // campaign-fig1: emitted JSON and CSV against the one-thread reference.
    let spec = campaign::spec(9, Size::Tiny);
    let reference = campaign::reference(&spec).unwrap();
    let (mut json, mut csv) = (
        reference.0.clone().into_bytes(),
        reference.1.clone().into_bytes(),
    );
    assert!(campaign::check_outputs(&json, &csv, &reference));
    let (j, c) = (json.len() / 3, csv.len() - 2);
    json[j] ^= 0x01;
    assert!(!campaign::check_outputs(&json, &csv, &reference));
    json[j] ^= 0x01;
    csv[c] ^= 0x01;
    assert!(!campaign::check_outputs(&json, &csv, &reference));

    // serve-durable: a real response against `campaign_to_json`.
    let server =
        experiments::serve::Server::bind("127.0.0.1:0", serve::config(&dir.join("data"))).unwrap();
    let addr = serve::start(server).unwrap();
    let spec = serve::spec(9, 0, Size::Tiny);
    let expected = serve::expected_body(&spec).unwrap();
    let mut resp = serve::post(addr, &spec.to_json().unwrap()).unwrap();
    assert!(serve::check_response(&resp, "new", &expected));
    assert!(!serve::check_response(&resp, "existing", &expected));
    let mid = resp.body.len() / 2;
    resp.body[mid] ^= 0x01;
    assert!(!serve::check_response(&resp, "new", &expected));
    let again = serve::post(addr, &spec.to_json().unwrap()).unwrap();
    assert!(serve::check_response(&again, "existing", &expected));
}

#[test]
fn metric_catalog_matches_benchmark_json() {
    let text =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json")).unwrap();
    let declared: Vec<&str> = text
        .split("\"name\": \"")
        .skip(1)
        .map(|rest| &rest[..rest.find('"').unwrap()])
        .collect();
    let mut expected: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    expected.extend(END_TO_END.iter().map(|(n, _)| *n));
    expected.extend(PER_LAYER.iter().map(|(n, _)| *n));
    assert_eq!(declared, expected);
}

#[test]
fn tiny_smoke_pass_runs_every_workload() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let opts = Opts {
                workload,
                seed: 3,
                seconds: 0.2,
                trace,
                size: Size::Tiny,
                work_dir: scratch(&format!("smoke-{}-{trace}", workload.name())),
            };
            let report = perfbench::run(&opts).unwrap();
            assert!(report.attempted >= 1, "{}", workload.name());
            assert_eq!(report.failed, 0, "{}: {:?}", workload.name(), report.lines);
            let json = report.result_json(trace);
            assert!(json.starts_with("{\"correct\": true,"), "{json}");
            let catalog: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
            for (name, unit) in catalog {
                assert!(
                    json.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{name} missing"
                );
                assert!(json.contains(&format!("\"unit\": \"{unit}\"")));
            }
            if trace {
                let ratio = report.values["trace.sum_ratio"];
                assert!(ratio > 0.0 && ratio.is_finite(), "{}", workload.name());
            } else {
                for (name, _) in END_TO_END {
                    assert!(report.values[name] > 0.0, "{name} on {}", workload.name());
                }
            }
            assert!(!opts.work_dir.exists());
        }
    }
}
