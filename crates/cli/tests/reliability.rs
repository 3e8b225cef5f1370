//! `ftsched reliability` on the three golden bundles, through
//! `ftsched_cli::run` and through the binary. FTBAR's bundle carries late
//! duplicates (more than ε+1 replicas of a task); the Monte-Carlo
//! estimate replays them through the crash pass like any other replica.

use std::process::Command;

/// Each golden bundle with the `P(survive)` and `E[latency | survival]`
/// lines it prints at `--p 0.2 --samples 500` (the default seed).
const EXPECTED: [(&str, &str, &str); 3] = [
    ("ftsa", "0.822000", "340.105"),
    ("mc-ftsa", "0.822000", "376.490"),
    ("ftbar", "0.822000", "324.539"),
];

/// Runs the estimate through the library entry point or the binary and
/// returns everything after its first line, which names the thread count.
fn figures(alg: &str, threads: usize, binary: bool) -> String {
    let bundle = format!(
        "{}/../../tests/golden/json/bundle-{alg}.json",
        env!("CARGO_MANIFEST_DIR")
    );
    let threads = threads.to_string();
    let args = [
        "reliability",
        "--bundle",
        &bundle,
        "--p",
        "0.2",
        "--samples",
        "500",
        "--threads",
        &threads,
    ];
    let out = if binary {
        let output = Command::new(env!("CARGO_BIN_EXE_ftsched"))
            .args(args)
            .output()
            .expect("run ftsched");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(0), "{alg}: {stderr}");
        String::from_utf8(output.stdout).unwrap()
    } else {
        let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        ftsched_cli::run(&argv).unwrap_or_else(|e| panic!("{alg}: {e}"))
    };
    out.split_once('\n').expect("a header line").1.to_string()
}

#[test]
fn reliability_estimates_every_golden_bundle_at_any_thread_count() {
    for binary in [false, true] {
        for (alg, survival, latency) in EXPECTED {
            let expected = format!("P(survive) = {survival}\nE[latency | survival] = {latency}\n");
            for threads in [1, 4] {
                assert_eq!(
                    figures(alg, threads, binary),
                    expected,
                    "{alg} at {threads} thread(s), binary: {binary}"
                );
            }
        }
    }
}
