//! JSON layer bench: the float formatter that writes most of a bundle's
//! bytes, and a whole bundle streamed the way `ftsched schedule` writes
//! it.
//!
//! The fixture is what `ftsched generate --family layered --tasks 20000`
//! followed by `ftsched schedule --procs 20 --epsilon 1` builds: the same
//! generator, platform, execution-matrix and FTSA draws in the same
//! order.
//!
//! * `json/f64/write_f64` — every float of the v×m execution matrix and
//!   every replica's four times, as one compact array through
//!   `serde::Writer::write_f64` into `io::sink()`;
//! * `json/f64/debug_fmt` — the same array with each float written by
//!   `{:?}`, the text `write_f64` must match byte for byte: the
//!   reference series;
//! * `json/bundle/20000` — the whole FTSA bundle through
//!   `serde_json::to_writer_pretty` into `io::sink()`.
//!
//! The float count is printed first; divide an `f64` median by it for
//! ns per float. Run a quick correctness pass with
//! `cargo bench --bench json -- --test`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ftsched_cli::Bundle;
use ftsched_core::{schedule, Algorithm};
use platform::gen::random_platform;
use platform::{ExecutionMatrix, Instance};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Serialize, Writer};
use std::fmt::Write as _;
use std::io;
use taskgraph::generators::{layered, LayeredConfig};

const TASKS: usize = 20_000;

fn bundle() -> Bundle {
    let dag = layered(&mut StdRng::seed_from_u64(7), &LayeredConfig::paper(TASKS));
    let mut rng = StdRng::seed_from_u64(11);
    let platform = random_platform(&mut rng, 20, 0.5, 1.0);
    let exec = ExecutionMatrix::unrelated_with_procs(&dag, 20, &mut rng, 0.5);
    let inst = Instance::new(dag, platform, exec);
    let schedule = schedule(&inst, 1, Algorithm::Ftsa, &mut rng).expect("FTSA schedules");
    let Instance {
        dag,
        platform,
        exec,
    } = inst;
    Bundle {
        dag,
        platform,
        exec,
        schedule,
        algorithm: Algorithm::Ftsa.name().to_string(),
    }
}

fn bundle_floats(b: &Bundle) -> Vec<f64> {
    let mut floats: Vec<f64> = (0..b.exec.num_tasks())
        .flat_map(|t| b.exec.times_row(t).iter().copied())
        .collect();
    for replicas in b.schedule.tasks_replicas() {
        for r in replicas {
            floats.extend([r.start_lb, r.finish_lb, r.start_ub, r.finish_ub]);
        }
    }
    floats
}

/// The compact array `Vec<f64>::serialize` writes, with `{:?}` floats,
/// through the same 64 KiB flush discipline as the writer.
fn debug_fmt_array(floats: &[f64], sink: &mut impl io::Write) -> io::Result<()> {
    let mut buf = String::with_capacity(1 << 17);
    buf.push('[');
    for (i, x) in floats.iter().enumerate() {
        if buf.len() >= 1 << 16 {
            sink.write_all(buf.as_bytes())?;
            buf.clear();
        }
        if i > 0 {
            buf.push(',');
        }
        let _ = write!(buf, "{x:?}");
    }
    buf.push(']');
    sink.write_all(buf.as_bytes())
}

fn bench_json(c: &mut Criterion) {
    let bundle = bundle();
    let floats = bundle_floats(&bundle);
    println!("json/f64: {} floats per sample", floats.len());

    // The two float series must agree before either is timed.
    let mut kernel = Writer::new(false);
    floats.serialize(&mut kernel);
    let mut reference = Vec::new();
    debug_fmt_array(&floats, &mut reference).expect("writes to a Vec");
    assert!(
        kernel.into_string().as_bytes() == reference,
        "write_f64 text differs from {{:?}}"
    );

    let mut group = c.benchmark_group("json");
    group.bench_function("f64/write_f64", |b| {
        b.iter(|| {
            let mut sink = io::sink();
            let mut w = Writer::with_sink(&mut sink, false);
            black_box(&floats).serialize(&mut w);
            w.finish().expect("io::sink never fails")
        })
    });
    group.bench_function("f64/debug_fmt", |b| {
        b.iter(|| debug_fmt_array(black_box(&floats), &mut io::sink()).expect("sink"))
    });
    group.bench_function(format!("bundle/{TASKS}"), |b| {
        b.iter(|| serde_json::to_writer_pretty(io::sink(), black_box(&bundle)).expect("sink"))
    });
    group.finish();
}

criterion_group!(benches, bench_json);
criterion_main!(benches);
