//! `mesa-serve` — long-running batch offload service over the shared
//! artifact cache.
//!
//! Accepts a deterministic stream of `(kernel, grid, data seed, tenant)`
//! requests (the built-in kernelgen load generator), fans them out over
//! the in-process worker pool, and serves every request through one
//! generation-keyed [`mesa_core::SharedArtifactCache`] — repeat kernels
//! skip the host-side detect → translate → map work. The cache is
//! architecturally invisible: `--selfcheck` re-runs every request on the
//! uncached one-shot path and fails (exit 1) on any byte difference, at
//! any `--jobs N`.
//!
//! `--tenants K` additionally admits K seed-derived workloads onto one
//! shared fabric's bands (`FleetDriver` + the same cache), printing the
//! fleet's artifact-cache counters. `--bench` runs the warm-vs-cold soak
//! client and reports episodes/sec and hit rate for both sides.
//!
//! Usage:
//!   mesa-serve [--requests N] [--kernels K] [--jobs J] [--grid m64|m128|m512|m512w]
//!              [--seed S] [--selfcheck] [--require-hits] [--quiet]
//!              [--tenants K] [--migrate-every M] [--bench]
//!              [--host-clock real|mock[:STEP_NS]]

use mesa_bench::cli::{self, CliError};
use mesa_bench::serve::{bench_request, loadgen, one_shot, GridSpec, ServeEngine};
use mesa_bench::{pool, SERVE_KERNELS};
use mesa_trace::host::{self, HostClock, MockClock, RealClock};
use std::process::ExitCode;

/// Counting allocator: keeps the service's peak-allocation figure in the
/// end-of-run summary comparable with the other harness binaries.
#[global_allocator]
static ALLOC: mesa_trace::CountingAlloc = mesa_trace::CountingAlloc;

fn usage() {
    eprintln!(
        "usage: mesa-serve [--requests N] [--kernels K] [--jobs J] \
         [--grid m64|m128|m512|m512w] [--seed S] [--selfcheck] [--require-hits] [--quiet] \
         [--tenants K] [--migrate-every M] [--bench] \
         [--host-clock real|mock[:STEP_NS]]"
    );
}

struct Options {
    requests: usize,
    kernels: usize,
    grid: GridSpec,
    seed: u64,
    selfcheck: bool,
    require_hits: bool,
    quiet: bool,
    tenants: usize,
    migrate_every: u64,
    bench: bool,
    clock: Box<dyn HostClock>,
}

fn parse_args(args: &[String]) -> Result<Options, CliError> {
    let mut opts = Options {
        requests: 32,
        kernels: 4,
        grid: GridSpec::M128,
        seed: 1,
        selfcheck: false,
        require_hits: false,
        quiet: false,
        tenants: 0,
        migrate_every: 3,
        bench: false,
        clock: Box::new(RealClock::new()),
    };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--requests" => {
                opts.requests = cli::parse_usize(flag, cli::take_value(flag, args, &mut i)?)?;
            }
            "--kernels" => {
                opts.kernels =
                    cli::parse_nonzero_usize(flag, cli::take_value(flag, args, &mut i)?)?;
            }
            "--jobs" => {
                pool::set_jobs(cli::parse_nonzero_usize(
                    flag,
                    cli::take_value(flag, args, &mut i)?,
                )?);
            }
            "--grid" => {
                let v = cli::take_value(flag, args, &mut i)?;
                opts.grid = GridSpec::from_index(cli::parse_choice(flag, v, &GridSpec::NAMES)?);
            }
            "--seed" => {
                opts.seed = cli::parse_u64(flag, cli::take_value(flag, args, &mut i)?)?;
            }
            "--tenants" => {
                opts.tenants =
                    cli::parse_nonzero_usize(flag, cli::take_value(flag, args, &mut i)?)?;
            }
            "--migrate-every" => {
                opts.migrate_every =
                    cli::parse_u64(flag, cli::take_value(flag, args, &mut i)?)?;
            }
            "--host-clock" => {
                let v = cli::take_value(flag, args, &mut i)?;
                opts.clock = match v {
                    "real" => Box::new(RealClock::new()),
                    "mock" => Box::new(MockClock::new(1_000_000)),
                    other => match other.strip_prefix("mock:") {
                        Some(step) => {
                            Box::new(MockClock::new(cli::parse_nonzero_u64(flag, step)?))
                        }
                        None => {
                            return Err(CliError {
                                flag: flag.to_string(),
                                value: Some(v.to_string()),
                                reason: "expected real or mock[:STEP_NS]".to_string(),
                            })
                        }
                    },
                };
            }
            "--selfcheck" => opts.selfcheck = true,
            "--require-hits" => opts.require_hits = true,
            "--quiet" => opts.quiet = true,
            "--bench" => opts.bench = true,
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
    if opts.kernels > SERVE_KERNELS.len() {
        return Err(CliError {
            flag: "--kernels".to_string(),
            value: Some(opts.kernels.to_string()),
            reason: format!("at most {} kernels are registered", SERVE_KERNELS.len()),
        });
    }
    Ok(opts)
}

/// Warm-vs-cold soak client: the same map-heavy repeat kernel served
/// from fresh caches (cold) and from one persistent engine (warm).
fn run_bench(opts: &mut Options) {
    let n = opts.requests.max(8) as u64;

    let t0 = opts.clock.now_ns();
    for i in 0..n {
        let engine = ServeEngine::new();
        let r = engine.handle(&bench_request(i));
        assert!(r.ok, "bench kernel must offload: {}", r.render);
    }
    let cold_ns = opts.clock.now_ns().saturating_sub(t0);

    let engine = ServeEngine::new();
    let _ = engine.handle(&bench_request(u64::MAX)); // prime
    let t1 = opts.clock.now_ns();
    for i in 0..n {
        let r = engine.handle(&bench_request(i));
        assert!(r.ok, "bench kernel must offload: {}", r.render);
    }
    let warm_ns = opts.clock.now_ns().saturating_sub(t1);

    let stats = engine.stats();
    println!(
        "bench: {n} episode(s) cold {} eps/s ({:.3}ms), warm {} eps/s ({:.3}ms), \
         speedup {}x, cache {}",
        host::fmt_rate(n, cold_ns),
        cold_ns as f64 / 1e6,
        host::fmt_rate(n, warm_ns),
        warm_ns as f64 / 1e6,
        host::fmt_gauge(cold_ns as f64 / warm_ns.max(1) as f64),
        stats.render(),
    );
}

fn main() -> ExitCode {
    mesa_trace::alloc::set_counting(true);
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("mesa-serve: {e}");
            usage();
            return ExitCode::from(2);
        }
    };

    if opts.bench {
        run_bench(&mut opts);
        return ExitCode::SUCCESS;
    }

    let engine = ServeEngine::new();
    let mut failures = 0usize;

    // Phase 1: the solo request stream through the worker pool.
    let reqs = loadgen(opts.seed, opts.requests, opts.kernels, opts.grid);
    let t0 = opts.clock.now_ns();
    let responses = engine.handle_batch(reqs.clone());
    let elapsed_ns = opts.clock.now_ns().saturating_sub(t0);
    let ok = responses.iter().filter(|r| r.ok).count();
    if !opts.quiet {
        for (i, r) in responses.iter().enumerate() {
            println!(
                "req {i:>3} T{} {:<16} {} iters={} cycles={}",
                r.tenant,
                r.kernel,
                if r.ok { "ok" } else { "declined" },
                r.accel_iterations,
                r.accel_cycles
            );
        }
    }

    if opts.selfcheck {
        for (i, (req, resp)) in reqs.iter().zip(&responses).enumerate() {
            let reference = one_shot(req);
            if reference != *resp {
                eprintln!(
                    "mesa-serve: SELFCHECK FAILURE at request {i}: cached response \
                     diverged from the one-shot path\n cached: {}\n one-shot: {}",
                    resp.render, reference.render
                );
                failures += 1;
            }
        }
        if failures == 0 && !opts.quiet {
            println!(
                "selfcheck: {} response(s) byte-identical to the uncached one-shot path",
                responses.len()
            );
        }
    }

    // Phase 2 (optional): fleet mode over the same cache — banded tenants
    // on one shared fabric, warmed by (and warming) the solo stream.
    if opts.tenants > 0 {
        let run = engine.serve_fleet(opts.seed, opts.tenants, opts.migrate_every);
        let declined = run.outcomes.iter().filter(|o| o.is_err()).count();
        println!(
            "fleet: {} tenant(s), {declined} declined, {} fleet cycles, {} migration(s)",
            run.outcomes.len(),
            run.stats.elapsed_cycles,
            run.stats.migrations
        );
    }

    let stats = engine.stats();
    println!(
        "mesa-serve: {} request(s) over {} worker(s): {ok} ok, {} declined, \
         {} eps/s, cache {}",
        responses.len(),
        pool::jobs().min(responses.len().max(1)),
        responses.len() - ok,
        host::fmt_rate(responses.len() as u64, elapsed_ns),
        stats.render(),
    );
    eprintln!(
        "host: {:.3}s, peak alloc {:.1} MiB",
        opts.clock.now_ns() as f64 / 1e9,
        mesa_trace::alloc::stats().peak_bytes as f64 / (1024.0 * 1024.0),
    );

    if opts.require_hits && stats.hits() == 0 {
        eprintln!("mesa-serve: --require-hits: the request stream never hit the shared cache");
        return ExitCode::FAILURE;
    }
    if failures > 0 {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
