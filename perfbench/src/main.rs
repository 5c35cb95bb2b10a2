//! Benchmark of the Shfl-BW serving stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <resnet50-forward|transformer-decode|transformer-serve|all> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Each workload runs in its own process. With `--trace 0` the run measures
//! the end-to-end metrics; with `--trace 1` it records spans around every
//! call into the program and reports the per-layer metrics. The last line
//! of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. A wrong output or a failed operation makes the
//! exit code nonzero. `--workload all` runs the three workloads one after
//! another, each in a child process, and prints every table.
//!
//! See `perfbench/NOTES.md` for why each workload exists and what is
//! deliberately left unmeasured.

mod common;
mod decode;
mod openloop;
mod report;
mod resnet;
mod serve;
mod stats;
mod trace;

use common::Opts;
use std::process::ExitCode;
use std::time::Duration;
use trace::Tracer;

/// The workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 3] = [
    "resnet50-forward",
    "transformer-decode",
    "transformer-serve",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&seconds) {
                    return Err("--seconds must be between 1 and 600".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; choose one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Runs every workload in a child process of this binary.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for workload in WORKLOADS {
        println!("== {workload}");
        let status = std::process::Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("perfbench: {workload} exited with {s}");
                ok = false;
            }
            Err(e) => {
                eprintln!("perfbench: cannot run {workload}: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let opts = Opts {
        seed: args.seed,
        window: Duration::from_secs(args.seconds),
    };
    let tracer = args.trace.then(Tracer::new);
    let result = match args.workload.as_str() {
        "resnet50-forward" => resnet::run(&opts, tracer.as_ref()),
        "transformer-decode" => decode::run(&opts, tracer.as_ref()),
        _ => serve::run(&opts, tracer.as_ref()),
    };
    let report = match result {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if let Some(t) = &tracer {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        if let Err(e) = t.write_jsonl(&path) {
            eprintln!("perfbench: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("spans written to {}", path.display());
    }
    let (table, line) = match report.render(args.trace) {
        Ok(rendered) => rendered,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{} seed={} seconds={} trace={} attempted={} failed={} mismatches={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        report.attempted,
        report.failed,
        report.mismatches
    );
    for row in table {
        println!("{row}");
    }
    println!("{line}");
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {}: {} of {} operations failed, {} oracle mismatches",
            args.workload, report.failed, report.attempted, report.mismatches
        );
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn arguments_are_checked_where_they_enter() {
        let a = args(&[
            "--workload",
            "transformer-serve",
            "--seed",
            "9",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("transformer-serve", 9, 3, true)
        );
        assert!(args(&["--seed", "1"]).is_err());
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "all", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "all", "--seconds", "0"]).is_err());
        assert!(args(&["--workload", "all", "--seed"]).is_err());
        assert!(args(&["--workload", "all", "--bogus", "1"]).is_err());
    }
}
