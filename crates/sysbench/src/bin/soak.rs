//! `soak` — randomized differential + fault-injection soak loop.
//!
//! Each episode derives a kernel, an accelerator configuration,
//! optimization flags, and a fault plan from one seed, then (1) runs the
//! optimized engine against the straight-line reference interpreter and a
//! functional golden run, and (2) periodically offloads a real workload
//! under the full fault taxonomy to prove the controller survives.
//!
//! On divergence the episode seed is printed with an exact replay command
//! and the process exits non-zero.
//!
//! With `--tenants K` each episode additionally runs K workloads kernels
//! as concurrent tenants of one shared fabric (checkpoint+migrating every
//! `--migrate-every` slices) and requires sharing to be architecturally
//! invisible against per-tenant solo runs. Replaying a seed with the same
//! flags reproduces the exact multi-tenant schedule, migrations included.
//!
//! Fleet telemetry: `--fleetstats PATH` folds every tenant episode's
//! `FleetStats` into one aggregate and writes the stable JSON export
//! (`"schema":"mesa.fleetstats/v1"`, validated by `tracecheck
//! fleetstats`). `--force-fault` arms a config-stream truncation on
//! tenant 0 of each episode so the decline → flight-recorder path fires;
//! `--postmortem PATH` writes the first post-mortem dump produced.
//!
//! Usage:
//!   soak --iters N [--seed S] [--tenants K] [--migrate-every M]
//!        [--fleetstats PATH] [--postmortem PATH] [--force-fault]
//!   soak --replay 0xSEED [--tenants K] [--migrate-every M]

use mesa_bench::cli::{self, CliError};
use mesa_bench::kernelgen::{
    controller_episode, differential_episode, tenants_episode_fleet,
};
use mesa_core::FleetStats;
use mesa_test::splitmix64;
use mesa_trace::host::{self, HostClock};
use std::process::ExitCode;

/// Counting allocator: feeds the peak-allocation figure in the
/// end-of-run wall-clock summary on stderr.
#[global_allocator]
static ALLOC: mesa_trace::CountingAlloc = mesa_trace::CountingAlloc;

fn usage() {
    eprintln!(
        "usage: soak --iters N [--seed S] [--tenants K] [--migrate-every M] \
         [--fleetstats PATH] [--postmortem PATH] [--force-fault] \
         | soak --replay 0xSEED [--tenants K] [--migrate-every M]"
    );
}

/// Parsed command line. `--tenants 0` and malformed numbers (e.g.
/// `--replay 0xZZ`) are typed [`CliError`]s, not silent usage exits —
/// the error names the flag and the offending value.
struct Options {
    iters: u64,
    base_seed: u64,
    replay: Option<u64>,
    tenants: usize,
    migrate_every: u64,
    fleetstats_path: Option<String>,
    postmortem_path: Option<String>,
    force_fault: bool,
}

fn parse_args(args: &[String]) -> Result<Options, CliError> {
    let mut opts = Options {
        iters: 1,
        base_seed: 1,
        replay: None,
        tenants: 0,
        migrate_every: 0,
        fleetstats_path: None,
        postmortem_path: None,
        force_fault: false,
    };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--iters" => {
                opts.iters = cli::parse_u64(flag, cli::take_value(flag, args, &mut i)?)?;
            }
            "--seed" => {
                opts.base_seed = cli::parse_u64(flag, cli::take_value(flag, args, &mut i)?)?;
            }
            "--replay" => {
                opts.replay =
                    Some(cli::parse_u64(flag, cli::take_value(flag, args, &mut i)?)?);
            }
            "--tenants" => {
                opts.tenants =
                    cli::parse_nonzero_usize(flag, cli::take_value(flag, args, &mut i)?)?;
            }
            "--migrate-every" => {
                opts.migrate_every =
                    cli::parse_u64(flag, cli::take_value(flag, args, &mut i)?)?;
            }
            "--fleetstats" => {
                opts.fleetstats_path =
                    Some(cli::take_value(flag, args, &mut i)?.to_string());
            }
            "--postmortem" => {
                opts.postmortem_path =
                    Some(cli::take_value(flag, args, &mut i)?.to_string());
            }
            "--force-fault" => opts.force_fault = true,
            other => {
                return Err(CliError {
                    flag: other.to_string(),
                    value: None,
                    reason: "unknown flag".to_string(),
                })
            }
        }
        i += 1;
    }
    if opts.fleetstats_path.is_some() && opts.tenants == 0 {
        return Err(CliError {
            flag: "--fleetstats".to_string(),
            value: None,
            reason: "requires --tenants K".to_string(),
        });
    }
    Ok(opts)
}

/// Telemetry accumulated across the soak loop's tenant episodes.
#[derive(Default)]
struct FleetAggregate {
    stats: FleetStats,
    /// First post-mortem any episode produced (decline or fault).
    post_mortem: Option<String>,
}

/// Runs the checks for one episode seed; returns `false` on divergence.
fn episode(
    seed: u64,
    tenants: usize,
    migrate_every: u64,
    force_fault: bool,
    agg: &mut FleetAggregate,
) -> bool {
    let mut ok = true;
    match differential_episode(seed) {
        Ok(stats) if stats.skipped => {
            println!("seed {seed:#018x}: skipped (untranslatable kernel)");
        }
        Ok(stats) => {
            println!(
                "seed {seed:#018x}: ok — {} iterations, {} cycles, {} bus token(s) dropped",
                stats.iterations, stats.cycles, stats.bus_tokens_dropped
            );
        }
        Err(msg) => {
            eprintln!("seed {seed:#018x}: DIVERGENCE\n{msg}");
            eprintln!("replay with: soak --replay {seed:#x}");
            ok = false;
        }
    }
    // Controller survival is sampled: it runs a full offload episode, so
    // exercise it on every 4th seed to keep the smoke loop fast.
    if seed.is_multiple_of(4) {
        if let Err(msg) = controller_episode(seed) {
            eprintln!("seed {seed:#018x}: CONTROLLER FAULT-EPISODE FAILURE\n{msg}");
            eprintln!("replay with: soak --replay {seed:#x}");
            ok = false;
        }
    }
    if tenants > 0 {
        match tenants_episode_fleet(seed, tenants, migrate_every, force_fault) {
            Ok((stats, fleet, post_mortem)) => {
                println!(
                    "seed {seed:#018x}: tenants ok — {} tenant(s), {} migration(s), {} decline(s), {} fleet cycles",
                    stats.tenants, stats.migrations, stats.declined, fleet.elapsed_cycles
                );
                agg.stats.merge(&fleet);
                if agg.post_mortem.is_none() {
                    agg.post_mortem = post_mortem;
                }
            }
            Err(msg) => {
                eprintln!("seed {seed:#018x}: MULTI-TENANT DIVERGENCE\n{msg}");
                eprintln!(
                    "replay with: soak --replay {seed:#x} --tenants {tenants} \
                     --migrate-every {migrate_every}"
                );
                ok = false;
            }
        }
    }
    ok
}

fn main() -> ExitCode {
    let mut wall = host::RealClock::new();
    mesa_trace::alloc::set_counting(true);
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Options {
        iters,
        base_seed,
        replay,
        tenants,
        migrate_every,
        fleetstats_path,
        postmortem_path,
        force_fault,
    } = match parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("soak: {e}");
            usage();
            return ExitCode::from(2);
        }
    };

    let mut agg = FleetAggregate::default();
    let mut failures = 0u64;
    let episodes;
    if let Some(seed) = replay {
        episodes = 1;
        if !episode(seed, tenants, migrate_every, force_fault, &mut agg) {
            failures += 1;
        }
    } else {
        episodes = iters;
        let mut state = base_seed;
        for _ in 0..iters {
            let seed = splitmix64(&mut state);
            if !episode(seed, tenants, migrate_every, force_fault, &mut agg) {
                failures += 1;
            }
        }
        println!("soak: {iters} episode(s), {failures} failure(s)");
    }

    if let Some(path) = fleetstats_path {
        let json = agg.stats.to_json();
        if let Err(e) = std::fs::write(&path, &json) {
            eprintln!("soak: failed to write fleetstats to {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "soak: wrote fleetstats for {episodes} episode(s) ({} merged run(s)) to {path}",
            agg.stats.runs
        );
    }
    if let Some(path) = postmortem_path {
        match &agg.post_mortem {
            Some(dump) => {
                if let Err(e) = std::fs::write(&path, dump) {
                    eprintln!("soak: failed to write post-mortem to {path}: {e}");
                    return ExitCode::FAILURE;
                }
                println!("soak: wrote flight-recorder post-mortem to {path}");
            }
            None => {
                eprintln!(
                    "soak: --postmortem given but no episode declined or faulted \
                     (try --force-fault)"
                );
                return ExitCode::FAILURE;
            }
        }
    }
    // One-line wall-clock summary on stderr: host elapsed, episode
    // throughput, and the allocator's high-water mark (an RSS proxy).
    let elapsed_ns = wall.now_ns();
    eprintln!(
        "host: {episodes} episode(s) in {:.3}s ({} eps/s), {:.1} Msim-cycles, peak alloc {:.1} MiB",
        elapsed_ns as f64 / 1e9,
        host::fmt_rate(episodes, elapsed_ns),
        host::sim_cycles_total() as f64 / 1e6,
        mesa_trace::alloc::stats().peak_bytes as f64 / (1024.0 * 1024.0),
    );
    if failures == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE }
}
