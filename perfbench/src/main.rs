//! End-to-end and per-layer benchmark of the MESA simulator stack.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <figures_small|serve_repeat|serve_unique> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Each run sets up its inputs from `--seed`, measures for `--seconds` on
//! one thread, checks every output outside the timed window, and prints as
//! its last line one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics of a traced run with `--trace 1`. The lines before it state the
//! sample counts, the digest of the simulated outputs, the share of
//! artifact-cache lookups that hit, and the failure rate. `README.md`
//! defines every metric.

mod figures;
mod measure;
mod serve;

use std::process::ExitCode;

/// Counts allocations so the run can report its peak heap growth.
#[global_allocator]
static ALLOC: mesa_trace::CountingAlloc = mesa_trace::CountingAlloc;

const USAGE: &str = "usage: mesa-perfbench --workload <figures_small|serve_repeat|serve_unique> \
                     [--seed N] [--seconds N] [--trace 0|1]";

/// Longest measuring window a run accepts, in seconds.
const MAX_SECONDS: u64 = 600;

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} expects a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} expects a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload.clone_from(&value),
            "--seed" => parsed.seed = number()?,
            "--seconds" => parsed.seconds = number()?,
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if !(1..=MAX_SECONDS).contains(&parsed.seconds) {
        return Err(format!("--seconds must be 1..={MAX_SECONDS}"));
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Every workload runs on this one thread.
    mesa_bench::set_jobs(1);
    mesa_trace::alloc::set_counting(true);
    let report = match args.workload.as_str() {
        "figures_small" => figures::run(args.seed, args.seconds, args.trace),
        "serve_repeat" => serve::run(serve::Mix::Repeat, args.seed, args.seconds, args.trace),
        "serve_unique" => serve::run(serve::Mix::Unique, args.seed, args.seconds, args.trace),
        other => {
            eprintln!("unknown workload {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|a| (*a).to_string()))
    }

    #[test]
    fn arguments_parse_and_bad_ones_are_refused() {
        let a = parse(&[
            "--workload",
            "serve_repeat",
            "--seed",
            "4",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve_repeat", 4, 3, true)
        );
        assert!(parse(&["--trace", "2"]).is_err());
        assert!(parse(&["--seconds", "0"]).is_err());
        assert!(parse(&["--seed", "x"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--bogus", "1"]).is_err());
    }
}
