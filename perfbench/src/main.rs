//! The repository benchmark: two-clock service and engine workloads.
//!
//! ```text
//! perfbench --workload <svc-write|svc-read|engine-ycsb> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root (it reads `BENCHMARK.json` there). The
//! seed generates every input; the run measures for `--seconds`, checks
//! every answer against a shadow model, crashes and recovers the device
//! and verifies the recovered store, then prints one JSON line: the
//! end-to-end metrics of `BENCHMARK.json` with `--trace 0`, its per-layer
//! metrics with `--trace 1`. A correctness violation exits non-zero.
//!
//! `--rate <req/s>` overrides a service workload's offered rate and
//! prints every measured metric to standard error, for rate sweeps.

mod engine;
mod layers;
mod report;
mod shadow;
mod spans;
mod svc;

use std::process::ExitCode;

use report::{check_declared, result_line, Outcome, END_TO_END, PER_LAYER};

const WORKLOADS: &[&str] = &["svc-write", "svc-read", "engine-ycsb"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    rate: Option<u64>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut rate) = (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(bad(&format!("expected one of {WORKLOADS:?}"))),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("expected 0 < seconds <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            "--rate" => match value.parse() {
                Ok(r) if r > 0 => rate = Some(r),
                _ => return Err(bad("expected a positive integer")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        rate,
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    let mix = match args.workload.as_str() {
        "svc-write" => svc::WRITE,
        "svc-read" => svc::READ,
        _ if args.rate.is_some() => return Err("--rate applies to svc-* only".into()),
        _ => return engine::run(&engine::YCSB, args.seed, args.seconds, args.trace),
    };
    let mix = svc::Mix {
        rate: args.rate.unwrap_or(mix.rate),
        ..mix
    };
    svc::run(&mix, args.seed, args.seconds, args.trace)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
                 [--rate <req/s>]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let (section, table) = if args.trace {
        ("per_layer", PER_LAYER)
    } else {
        ("end_to_end", END_TO_END)
    };
    let checked = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json: {e}"))
        .and_then(|spec| check_declared(&spec, section, table));
    if let Err(e) = checked {
        eprintln!("perfbench: {e}");
        return ExitCode::FAILURE;
    }
    let out = match run(&args) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if args.rate.is_some() {
        eprintln!("perfbench: every metric: {:?}", out.metrics);
    }
    for v in &out.violations {
        eprintln!("perfbench: violation: {v}");
    }
    match result_line(&out, table) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    if out.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
