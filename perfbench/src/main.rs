//! Command-line entry point of the ftsched benchmark:
//!
//! ```text
//! perfbench --workload <schedule-100k|campaign-fig1|serve-durable>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a human-readable report (every metric with its unit, timing
//! medians with tail percentiles and sample counts), then, as the last
//! line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Scratch files live under
//! `.bench_work/` in the current directory and are removed on exit.

use perfbench::{Opts, Size, Workload};
use std::process::ExitCode;

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seconds = seconds.unwrap_or(10.0);
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let work_dir = std::path::PathBuf::from(".bench_work").join(format!(
        "{}-{}",
        workload.name(),
        std::process::id()
    ));
    Ok(Opts {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
        size: Size::Full,
        work_dir,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = perfbench::run(&opts);
    if let Some(parent) = opts.work_dir.parent() {
        let _ = std::fs::remove_dir(parent); // only when no other run uses it
    }
    match result {
        Ok(report) => {
            println!(
                "== {} (seed {}, {} s, trace {}) ==",
                opts.workload.name(),
                opts.seed,
                opts.seconds,
                u8::from(opts.trace)
            );
            for line in &report.lines {
                println!("{line}");
            }
            println!("{}", report.result_json(opts.trace));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", opts.workload.name());
            ExitCode::FAILURE
        }
    }
}
