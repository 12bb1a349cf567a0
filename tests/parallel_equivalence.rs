//! The parallel experiment harness must be invisible in the results: every
//! figure computed with a worker pool has to match the sequential run
//! exactly (same rows, same float bits), because the pool only reorders
//! *work*, never the order results are collected or folded in.
//!
//! One test function drives all the comparisons: the worker count is
//! process-global (`mesa_bench::set_jobs`), so splitting this into several
//! `#[test]`s would race on it.

use mesa::core::{EpisodeOpts, FleetStats, OffloadReport, SystemConfig, TenantJob};
use mesa::isa::reg::abi::*;
use mesa::isa::{ArchState, Asm, Xlen};
use mesa::mem::{MemConfig, MemorySystem};
use mesa_bench as bench;
use mesa_workloads::KernelSize;

/// Renders one full run of every parallelized figure at the current worker
/// count. `Debug` formatting captures float bit-patterns to 17 significant
/// digits' worth of precision, so any cross-thread reassociation of sums
/// would show up here.
fn all_parallel_figures(size: KernelSize) -> String {
    let (fig11_rows, fig11_means) = bench::fig11(size);
    let fig12_rows = bench::fig12(size);
    let fig13 = bench::fig13(size);
    let (fig14_rows, fig14_means) = bench::fig14(size);
    let fig15_rows = bench::fig15(size);
    format!(
        "{fig11_rows:?}\n{fig11_means:?}\n{fig12_rows:?}\n{fig13:?}\n{fig14_rows:?}\n{fig14_means:?}\n{fig15_rows:?}"
    )
}

#[test]
fn figures_identical_for_any_worker_count() {
    bench::set_jobs(1);
    let sequential = all_parallel_figures(KernelSize::Tiny);
    let fleet_sequential = fleet_stats_json();

    for jobs in [2, 4] {
        bench::set_jobs(jobs);
        let parallel = all_parallel_figures(KernelSize::Tiny);
        assert_eq!(
            sequential, parallel,
            "figure results diverged between --jobs 1 and --jobs {jobs}"
        );
        // The fleet scheduler time-slices one engine on one thread, so the
        // fleetstats export must stay byte-identical at any worker count.
        assert_eq!(
            fleet_sequential,
            fleet_stats_json(),
            "fleetstats JSON diverged between --jobs 1 and --jobs {jobs}"
        );
    }

    // Leave the global override cleared for any other harness user.
    bench::set_jobs(0);
}

/// An untraced, uncached fleet run.
fn run_tenants(
    system: &SystemConfig,
    jobs: &mut [TenantJob],
    quantum: u64,
    migrate_every: u64,
) -> mesa::core::FleetRun {
    mesa::core::run_tenants(system, jobs, quantum, migrate_every, EpisodeOpts::default())
}

/// One full fleet run over the three synthetic tenants, exported as the
/// stable fleetstats JSON.
fn fleet_stats_json() -> String {
    let mut jobs = vec![tenant_job(0, 2000), tenant_job(1, 1500), tenant_job(2, 2600)];
    let run = run_tenants(&SystemConfig::m128(), &mut jobs, 180, 0);
    run.stats.to_json()
}

/// One synthetic loop job for the shared fabric. Three shapes with
/// different trip counts and bodies, all serial (single tile), so every
/// tenant gets its full placement even when all run concurrently.
fn tenant_job(kind: usize, n: u64) -> TenantJob {
    const BASE: u64 = 0x10_0000;
    const OUT: u64 = 0x20_0000;
    let mut a = Asm::new(0x1000);
    a.label("loop");
    a.lw(T0, A0, 0);
    match kind % 3 {
        0 => {
            a.add(T1, T1, T0);
        }
        1 => {
            a.xor(T1, T1, T0);
            a.slli(T2, T0, 1);
            a.add(T1, T1, T2);
        }
        _ => {
            a.sub(T1, T0, T1);
            a.and(T2, T1, T0);
            a.sw(T2, A4, 0);
            a.addi(A4, A4, 4);
        }
    }
    a.addi(A0, A0, 4);
    a.bne(A0, A1, "loop");
    a.sw(T1, A2, 0);
    a.li(A7, 93);
    a.ecall();
    let program = a.finish().expect("tenant loop assembles");

    let mut state = ArchState::new(0x1000, Xlen::Rv32);
    state.write(A0, BASE);
    state.write(A1, BASE + 4 * n);
    state.write(A2, OUT);
    state.write(A4, OUT + 0x100);
    let mut mem = MemorySystem::new(MemConfig::default(), 2);
    for i in 0..n {
        mem.data_mut()
            .store_u32(BASE + 4 * i, ((i * 7 + kind as u64 * 13) % 1000) as u32 + 1);
    }
    TenantJob::new(program, state, mem)
}

/// A tenant report with the sharing-specific fields masked off, so solo
/// and concurrent runs can be compared field-for-field: the tenant id and
/// band assignment depend on admission order by construction, everything
/// else (timing included — aligned bands are translation invariant) must
/// not.
fn normalized(report: &OffloadReport) -> String {
    let mut r = report.clone();
    r.tenant = 0;
    r.fabric_region = None;
    // Queue wait is fleet-clock accounting: it depends on which other
    // tenants held bands at admission, never on the tenant's own timing.
    r.queue_wait_cycles = 0;
    format!("{r:?}")
}

/// Concurrent multi-tenancy is invisible: N tenants sharing the fabric
/// produce byte-identical per-tenant reports, architectural states, and
/// memory results to N sequential solo runs, under every admission order.
///
/// This test does not touch the process-global `mesa_bench::set_jobs`
/// worker count (`run_tenants` time-slices one engine on one thread), so
/// it can live alongside `figures_identical_for_any_worker_count` as its
/// own `#[test]` without racing it.
#[test]
fn concurrent_tenants_match_sequential_solo_runs_in_any_order() {
    const QUANTUM: u64 = 180;
    let system = SystemConfig::m128();
    let shapes: [(usize, u64); 3] = [(0, 2000), (1, 1500), (2, 2600)];

    // Sequential solo baseline: each job runs as the fabric's only tenant.
    let mut solo_reports = Vec::new();
    let mut solo_states = Vec::new();
    for &(kind, n) in &shapes {
        let mut jobs = vec![tenant_job(kind, n)];
        let mut reports = run_tenants(&system, &mut jobs, QUANTUM, 0).outcomes;
        let report = reports.pop().unwrap().expect("solo tenant offloads");
        solo_reports.push(normalized(&report));
        solo_states.push(format!("{:?}", jobs[0].state));
    }

    // Concurrent runs under several admission orders.
    for order in [[0usize, 1, 2], [2, 1, 0], [1, 2, 0]] {
        let mut jobs: Vec<TenantJob> =
            order.iter().map(|&i| tenant_job(shapes[i].0, shapes[i].1)).collect();
        let reports = run_tenants(&system, &mut jobs, QUANTUM, 0).outcomes;

        // All three really shared the grid: pairwise disjoint bands.
        let regions: Vec<_> = reports
            .iter()
            .map(|r| r.as_ref().expect("tenant offloads").fabric_region.expect("ran on a band"))
            .collect();
        for i in 0..regions.len() {
            for j in i + 1..regions.len() {
                assert!(
                    !regions[i].overlaps(&regions[j]),
                    "admission order {order:?}: bands {} and {} overlap",
                    regions[i],
                    regions[j]
                );
            }
        }

        for (slot, &i) in order.iter().enumerate() {
            let report = reports[slot].as_ref().unwrap();
            assert_eq!(
                normalized(report),
                solo_reports[i],
                "admission order {order:?}: tenant report for job {i} diverged from its solo run"
            );
            assert_eq!(
                format!("{:?}", jobs[slot].state),
                solo_states[i],
                "admission order {order:?}: architectural state for job {i} diverged"
            );
        }
    }
}

/// Fleet telemetry is a pure aggregate of per-tenant execution: the
/// shared-fabric `FleetStats` must equal the fold (merge) of each job's
/// solo fleet run on every order-insensitive dimension — total elapsed,
/// the slice-latency histogram, total band occupancy, per-tenant
/// (cycles, iterations, slices) — and the occupancy conservation
/// invariant must hold exactly under every admission order.
#[test]
fn fleet_stats_equal_fold_of_solo_runs_in_any_order() {
    const QUANTUM: u64 = 180;
    let system = SystemConfig::m128();
    let shapes: [(usize, u64); 3] = [(0, 2000), (1, 1500), (2, 2600)];

    // Fold of solo fleet runs: each job as the fabric's only tenant.
    let mut fold = FleetStats::default();
    for &(kind, n) in &shapes {
        let mut jobs = vec![tenant_job(kind, n)];
        let run = run_tenants(&system, &mut jobs, QUANTUM, 0);
        assert!(run.outcomes[0].is_ok(), "solo tenant offloads");
        fold.merge(&run.stats);
    }

    let shared = |order: [usize; 3]| {
        let mut jobs: Vec<TenantJob> =
            order.iter().map(|&i| tenant_job(shapes[i].0, shapes[i].1)).collect();
        run_tenants(&system, &mut jobs, QUANTUM, 0)
    };

    // Determinism: replaying the same admission order reproduces the
    // export byte for byte.
    assert_eq!(shared([0, 1, 2]).stats.to_json(), shared([0, 1, 2]).stats.to_json());

    let fold_tenants = |stats: &FleetStats| {
        let mut t: Vec<_> = stats
            .tenants
            .iter()
            .map(|t| (t.cycles, t.iterations, t.slices, t.migrations))
            .collect();
        t.sort_unstable();
        t
    };

    for order in [[0usize, 1, 2], [2, 1, 0], [1, 2, 0]] {
        let run = shared(order);
        let s = &run.stats;
        let busy: u64 = s.band_busy.iter().sum();
        let idle: u64 = s.band_idle.iter().sum();
        assert_eq!(
            busy + idle,
            s.elapsed_cycles * s.bands as u64,
            "admission order {order:?}: occupancy not conserved"
        );
        assert_eq!(s.elapsed_cycles, fold.elapsed_cycles, "order {order:?}: elapsed diverged");
        assert_eq!(
            s.admitted_full + s.admitted_shrunk + s.queued,
            3,
            "order {order:?}: every job must admit"
        );
        assert_eq!(s.slice_cycles, fold.slice_cycles, "order {order:?}: slice histogram");
        assert_eq!(s.migration_cycles, fold.migration_cycles, "order {order:?}");
        assert_eq!(busy, fold.band_busy.iter().sum::<u64>(), "order {order:?}: total busy");
        assert_eq!(fold_tenants(s), fold_tenants(&fold), "order {order:?}: per-tenant detail");
        mesa::trace::validate_json(&s.to_json()).expect("fleetstats JSON parses");
    }
}
