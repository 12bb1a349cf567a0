//! Bottleneck profiler: run one kernel through the full MESA system and
//! emit the unified attribution report — top-down cycle accounting for
//! the CPU phases, the per-PE spatial heatmap, the measured critical
//! path, and the controller's re-optimization rounds.
//!
//! Usage: `cargo run --release -p mesa-bench --bin profile -- [kernel]
//! [tiny|small|large] [--out <path>]` (an unknown flag, kernel, or size is
//! a typed usage error, exit status 2)
//!
//! Prints the human summary on stdout and writes the JSON report to
//! `<path>` (default `mesa_profile.json`). Declined kernels produce a
//! minimal report carrying the C1–C3 reject reason.

use mesa_bench as bench;
use mesa_bench::cli::{self, CliError};
use mesa_core::SystemConfig;
use mesa_workloads::{by_name, KernelSize};
use std::process::ExitCode;

/// Parsed command line: the kernel, its size, and the report's output
/// path.
struct Options {
    name: &'static str,
    size: KernelSize,
    out: String,
}

fn parse_args(args: &[String]) -> Result<Options, CliError> {
    let mut out = String::from("mesa_profile.json");
    let positional = cli::parse_flags(args, |flag| {
        match flag.name {
            "--out" => out = flag.value()?.to_string(),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    let (name, size) = cli::parse_kernel_args(&positional)?;
    Ok(Options { name, size, out })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Options { name, size, out } = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("profile: {e}");
            eprintln!("usage: profile [kernel] [tiny|small|large] [--out PATH]");
            return ExitCode::from(2);
        }
    };
    let kernel = by_name(name, size).expect("parse_kernel_args accepts only registered kernels");
    let system = SystemConfig::m128();
    let run = bench::mesa_offload(&kernel, &system, bench::BASELINE_CORES);
    let profile = run.profile(&kernel, &system);

    // The report's invariants are cheap to check and catastrophic to
    // ship broken — fail loudly here rather than in a consumer.
    assert!(profile.topdown.sums_to_total(), "top-down buckets must sum to total cycles");
    assert!(profile.spatial_matches_activity(), "heatmap totals must match ActivityStats");

    std::fs::write(&out, profile.to_json()).unwrap_or_else(|e| panic!("writing {out}: {e}"));
    println!("{}", profile.render());
    println!("wrote profile report to {out}");
    ExitCode::SUCCESS
}
