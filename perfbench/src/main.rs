//! Repository benchmark. Run from the repository root:
//!
//! ```text
//! bash perfbench/run.sh --workload paper-fsync --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Prints every metric by name with its unit (and the sample count
//! behind each percentile), then one JSON result line. `--trace 1`
//! interleaves untraced and traced ops and reports the per-layer
//! metrics, the tracing overhead, a Perfetto-loadable trace and a
//! self-time table. See README.md for the workloads and metrics.

mod client;
mod report;
mod service;
mod sim;
mod spans;
mod stats;

use report::{END_TO_END, PER_LAYER};
use sim::Sim;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    write_fingerprints: bool,
}

const USAGE: &str = "usage: perfbench --workload <paper-fsync|paper-ssync|kernel-baselines|\
service-mix> --seed <n> --seconds <s> --trace <0|1> [--out <dir>] [--write-fingerprints]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: sim::DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
        out: PathBuf::from(".bench_build/perfbench-out"),
        write_fingerprints: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--write-fingerprints" {
            args.write_fingerprints = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: bad {what} '{value}'");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("seed"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("duration"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad("duration"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace flag")),
                }
            }
            "--out" => args.out = PathBuf::from(&value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("perfbench: {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }
    let sim = match args.workload.as_str() {
        "paper-fsync" => Some(Sim::PaperFsync),
        "paper-ssync" => Some(Sim::PaperSsync),
        "kernel-baselines" => Some(Sim::KernelBaselines),
        "service-mix" => None,
        other => {
            eprintln!("perfbench: unknown workload '{other}'\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match sim {
        Some(sim) => sim::run(
            sim,
            args.seed,
            args.seconds,
            args.trace,
            args.write_fingerprints,
        ),
        None => service::run(args.seed, args.seconds, args.trace, &args.out),
    };
    let (mut report, tracer) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if let Some(tracer) = tracer {
        let stem = args
            .out
            .join(format!("{}-seed{}", args.workload, args.seed));
        let trace_path = stem.with_extension("trace.json");
        let table_path = stem.with_extension("selftime.txt");
        let table = tracer.table_text();
        let written = std::fs::write(&trace_path, tracer.chrome_json())
            .and_then(|()| std::fs::write(&table_path, &table));
        if let Err(e) = written {
            eprintln!("perfbench: writing trace: {e}");
            return ExitCode::FAILURE;
        }
        report.notes.push(format!(
            "trace: {} (load in ui.perfetto.dev)\nself time per layer ({}):\n{table}",
            trace_path.display(),
            table_path.display()
        ));
    }
    report.print(if args.trace { &PER_LAYER } else { &END_TO_END });
    ExitCode::SUCCESS
}
