//! `figures_small`: repeated passes of the full `figures all` suite at
//! the figures CLI's default `small` kernel size,
//! every table and figure through its public `mesa_bench` function.

use crate::measure::{
    median, push_cache_metrics, quantile, ratio, Best, CpuRotation, Fnv, Layers, Metric, PeakAlloc,
    Report, Work, DETECT, MAP, NS, OFFLOAD,
};
use mesa_bench as bench;
use mesa_core::{run_offload, ArtifactCacheStats, SystemConfig};
use mesa_cpu::{CoreConfig, NullMonitor, OoOCore, RunLimits, StopReason};
use mesa_isa::MemoryIo;
use mesa_mem::{MemConfig, MemorySystem};
use mesa_test::Rng;
use mesa_trace::host::{self, HostClock, RealClock};
use mesa_workloads::{all, run_functional, Kernel, KernelSize, DATA_OUT};
use std::collections::BTreeMap;

/// The figures CLI's default kernel size. At `large` size `fig11` takes
/// about 0.6 s, and on a shared host a call that long rarely runs free of
/// co-tenant load, so even its fastest time moves with the load from run
/// to run; at `small` size every call is about seven times shorter.
const SIZE: KernelSize = KernelSize::Small;

/// The public calls one suite pass makes: what `figures all` runs.
const CALLS: [&str; 9] = [
    "table1",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "table2",
    "crossover",
];

/// The calls reported as per-layer `figures.<call>_s` metrics (`table1`
/// prints published numbers and does no simulation).
pub const FIGURE_LAYERS: [&str; 8] = [
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "table2",
    "crossover",
];

/// The paper's Fig. 11 MEAN row: M-128 and M-512 speedup, then M-128 and
/// M-512 energy-efficiency gain. The repo holds no other reference result.
const PAPER_FIG11: [f64; 4] = [1.33, 1.81, 1.86, 1.92];

/// Times the set-up is repeated; `setup_s` is the median.
const SETUPS: usize = 9;

/// One figure call's output: its rows rendered (the digest input) and
/// every floating-point field (the finiteness check).
#[derive(Debug, Clone)]
pub struct FigureOutput {
    render: String,
    floats: Vec<f64>,
}

impl FigureOutput {
    fn new(render: String, floats: Vec<f64>) -> Self {
        FigureOutput { render, floats }
    }

    /// The output's fingerprint, or `None` when a field is not finite.
    fn checked_digest(&self) -> Option<u64> {
        self.floats
            .iter()
            .all(|f| f.is_finite())
            .then(|| Fnv::default().bytes(self.render.as_bytes()).finish())
    }
}

/// Makes one public figure call at [`SIZE`].
///
/// # Panics
/// Panics on a name outside [`CALLS`].
#[must_use]
pub fn call(name: &str) -> FigureOutput {
    match name {
        "table1" => {
            let rows = bench::table1();
            let floats = rows.iter().flat_map(|r| [r.area_um2, r.power_mw]).collect();
            FigureOutput::new(format!("{rows:?}"), floats)
        }
        "fig11" => {
            let (rows, means) = bench::fig11(SIZE);
            let floats = rows
                .iter()
                .flat_map(|r| [r.speedup_m128, r.speedup_m512, r.energy_m128, r.energy_m512])
                .chain(means)
                .collect();
            FigureOutput::new(format!("{rows:?} {means:?}"), floats)
        }
        "fig12" => {
            let rows = bench::fig12(SIZE);
            let floats = rows
                .iter()
                .flat_map(|r| [r.mesa_noopt_ipc, r.opencgra_ipc, r.mesa_opt_ipc])
                .collect();
            FigureOutput::new(format!("{rows:?}"), floats)
        }
        "fig13" => {
            let rep = bench::fig13(SIZE);
            let floats = rep
                .area
                .iter()
                .map(|a| a.1)
                .chain(rep.energy_fractions)
                .collect();
            FigureOutput::new(format!("{rep:?}"), floats)
        }
        "fig14" => {
            let (rows, means) = bench::fig14(SIZE);
            let floats = rows
                .iter()
                .flat_map(|r| [r.dynaspam, r.mesa64, r.mesa64_reconfig])
                .chain(means)
                .collect();
            FigureOutput::new(format!("{rows:?} {means:?}"), floats)
        }
        "fig15" => {
            let rows = bench::fig15(SIZE);
            let floats = rows
                .iter()
                .flat_map(|r| [r.speedup, r.speedup_ideal_mem, r.ideal])
                .collect();
            FigureOutput::new(format!("{rows:?}"), floats)
        }
        "fig16" => {
            let (points, break_even) = bench::fig16(SIZE);
            let floats = points.iter().map(|p| p.1).collect();
            FigureOutput::new(format!("{points:?} {break_even}"), floats)
        }
        "table2" => FigureOutput::new(format!("{:?}", bench::table2(SIZE)), Vec::new()),
        "crossover" => FigureOutput::new(format!("{:?}", bench::crossover(SIZE)), Vec::new()),
        _ => panic!("unknown figure call {name:?}"),
    }
}

/// Mean of |measured − paper| / paper over the four Fig. 11 MEAN columns,
/// in percent.
#[must_use]
pub fn paper_err_pct(means: &[f64; 4]) -> f64 {
    let err: f64 = means
        .iter()
        .zip(PAPER_FIG11)
        .map(|(m, p)| (m - p).abs() / p)
        .sum();
    100.0 * err / PAPER_FIG11.len() as f64
}

/// Runs `fig11` once at `large` size, the scale of the paper's
/// evaluation, and returns its error against the paper.
#[must_use]
pub fn fig11_paper_err_pct() -> f64 {
    paper_err_pct(&bench::fig11(KernelSize::Large).1)
}

/// Whether the offloaded output region matches the functional golden run
/// word for word (the same cover `tests/end_to_end.rs` compares).
pub fn outputs_match(kernel: &Kernel, golden: &mut impl MemoryIo, got: &mut impl MemoryIo) -> bool {
    (0..kernel.iterations * 4).all(|i| {
        let addr = DATA_OUT + 4 * i;
        golden.load(addr, 4) == got.load(addr, 4)
    })
}

/// Offloads `kernel` on M-128 and finishes it on the CPU; a declined
/// offload runs the whole kernel on the CPU, as the harness falls back.
/// Returns the final memory, or `None` when the CPU did not halt.
fn offload_on_m128(kernel: &Kernel) -> Option<MemorySystem> {
    let mut mem = MemorySystem::new(MemConfig::default(), 2);
    kernel.populate(mem.data_mut());
    let mut state = kernel.entry.clone();
    if run_offload(&kernel.program, &mut state, &mut mem, &SystemConfig::m128()).is_err() {
        mem = MemorySystem::new(MemConfig::default(), 2);
        kernel.populate(mem.data_mut());
        state = kernel.entry.clone();
    }
    let mut cpu = OoOCore::new(CoreConfig::boom_baseline());
    let r = cpu.run(
        &kernel.program,
        &mut state,
        &mut mem,
        0,
        RunLimits::none(),
        &mut NullMonitor,
    );
    (r.stop == StopReason::Halted).then_some(mem)
}

/// Golden check of one kernel: M-128 offload output against the
/// functional reference interpreter.
fn golden_ok(kernel: &Kernel) -> bool {
    let (_, mut golden) = run_functional(kernel);
    offload_on_m128(kernel)
        .is_some_and(|mut mem| outputs_match(kernel, &mut golden, mem.data_mut()))
}

/// Kernel build and data population: every kernel built at [`SIZE`] and its
/// data image written into a fresh memory system, as each episode does.
fn setup() -> Vec<Kernel> {
    let kernels = all(SIZE);
    for kernel in &kernels {
        let mut mem = MemorySystem::new(MemConfig::default(), 2);
        kernel.populate(mem.data_mut());
        std::hint::black_box(&mem);
    }
    kernels
}

/// One suite pass: every call of [`CALLS`] in a seed-chosen order.
struct Pass {
    wall_ns: u64,
    /// `(call, host ns, output, host-span breakdown)` in call order.
    calls: Vec<(&'static str, u64, FigureOutput, Layers)>,
}

fn run_pass(rng: &mut Rng, clock: &mut RealClock, peak: &mut PeakAlloc, traced: bool) -> Pass {
    let mut order = CALLS;
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    if traced {
        host::enable(host::ClockSpec::Real);
    }
    let start = clock.now_ns();
    let mut calls = Vec::with_capacity(CALLS.len());
    for name in order {
        let ((out, profile), dt) = peak.measure(|| {
            let t0 = clock.now_ns();
            let out = host::scoped(|| call(name));
            (out, clock.now_ns() - t0)
        });
        calls.push((name, dt, out, Layers::of(profile.as_ref())));
    }
    let wall_ns = clock.now_ns() - start;
    host::disable();
    Pass { wall_ns, calls }
}

/// The fig. 11 episode set (each kernel on the 16-core baseline, M-128 and
/// M-512) with tracing on, counting the work each call's result reports.
fn layer_pass(kernels: &[Kernel], clock: &mut RealClock) -> Work {
    let mut work = Work::default();
    host::enable(host::ClockSpec::Real);
    for kernel in kernels {
        let t0 = clock.now_ns();
        let base = bench::cpu_multicore(kernel, bench::BASELINE_CORES);
        let dt = clock.now_ns() - t0;
        work.retired += base.retired;
        work.cpu_ns += dt;
        work.accesses += base.mem.l1_accesses + base.mem.l2_accesses + base.mem.dram_accesses;
        work.wall_ns += dt;
        for system in [SystemConfig::m128(), SystemConfig::m512()] {
            let t0 = clock.now_ns();
            let (run, profile) =
                host::scoped(|| bench::mesa_offload(kernel, &system, bench::BASELINE_CORES));
            work.wall_ns += clock.now_ns() - t0;
            work.accesses += run.mem.l1_accesses + run.mem.l2_accesses + run.mem.dram_accesses;
            // A declined episode fell back to a multicore run whose
            // retired count the result does not carry: leave it out of
            // the engine, CPU and mapper rates.
            if let Some(report) = &run.report {
                let layers = Layers::of(profile.as_ref());
                let a = &report.activity;
                work.firings += a.int_ops + a.fp_ops + a.loads + a.stores;
                work.engine_ns += layers.phase_ns[OFFLOAD];
                work.retired += report.warmup_instrs;
                work.cpu_ns += layers.phase_ns[DETECT];
                work.nodes += report.placement.len() as u64;
                work.map_ns += layers.phase_ns[MAP];
            }
        }
    }
    host::disable();
    work
}

/// Runs the workload for `seconds` and reports end-to-end metrics, or
/// per-layer metrics when `traced`.
#[must_use]
pub fn run(seed: u64, seconds: u64, traced: bool) -> Report {
    let mut clock = RealClock::new();
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut kernels = Vec::new();
    let cpus = CpuRotation::new();
    for turn in 0..SETUPS {
        cpus.pin(turn);
        let t0 = clock.now_ns();
        kernels = setup();
        setup_s.push((clock.now_ns() - t0) as f64 / NS);
    }

    // Timed window. A traced run alternates untraced and traced passes,
    // so the tracing overhead is measured under the same conditions.
    let mut rng = Rng::seed_from_u64(seed);
    let mut passes: Vec<(bool, Pass)> = Vec::new();
    let mut peak = PeakAlloc::default();
    let start = clock.now_ns();
    while passes.len() < if traced { 2 } else { 1 }
        || clock.now_ns() - start < seconds * 1_000_000_000
    {
        let trace_this = traced && passes.len() % 2 == 1;
        // Each kind of pass visits every CPU in turn.
        cpus.pin(passes.len() / (1 + usize::from(traced)));
        passes.push((
            trace_this,
            run_pass(&mut rng, &mut clock, &mut peak, trace_this),
        ));
    }
    let window_ns = clock.now_ns() - start;
    drop(cpus);

    // Correctness, outside the timed window: every figure output finite
    // and identical on every pass, and every kernel's M-128 offload equal
    // to its CPU golden output.
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut first: BTreeMap<&str, Option<u64>> = BTreeMap::new();
    for (_, pass) in &passes {
        for (name, _, out, _) in &pass.calls {
            attempted += 1;
            let digest = out.checked_digest();
            let expected = *first.entry(name).or_insert(digest);
            if digest.is_none() || digest != expected {
                failed += 1;
            }
        }
    }
    for kernel in &kernels {
        attempted += 1;
        if !golden_ok(kernel) {
            failed += 1;
        }
    }
    let mut digest = Fnv::default();
    for name in CALLS {
        digest.u64(first.get(name).copied().flatten().unwrap_or(0));
    }

    // A call's time is its fastest over the passes of one kind (untraced,
    // traced); the latency quantiles are taken over the nine calls' times.
    let mut best = [Best::new(CALLS.len()), Best::new(CALLS.len())];
    for (traced_pass, pass) in &passes {
        for (name, ns, _, _) in &pass.calls {
            let op = CALLS.iter().position(|c| c == name).expect("a suite call");
            best[usize::from(*traced_pass)].record(op, *ns as f64 / NS);
        }
    }
    let call_s = |traced_pass: bool, name: &str| -> f64 {
        let op = CALLS.iter().position(|c| *c == name).expect("a suite call");
        best[usize::from(traced_pass)].times()[op]
    };
    println!(
        "figures_small: {} passes in {:.3} s; each call's time is its fastest of {} untraced passes; setup median of {SETUPS}",
        passes.len(),
        window_ns as f64 / NS,
        passes.iter().filter(|(t, _)| !*t).count(),
    );
    println!("digest figures_small {:#018x}", digest.finish());
    println!("artifact cache: 0 lookups, hit share n/a (figure episodes use no shared cache)");
    println!(
        "fail_rate {} ({failed}/{attempted})",
        ratio(failed as f64, attempted as f64)
    );

    let mut metrics = Vec::new();
    if traced {
        for layer in FIGURE_LAYERS {
            metrics.push(Metric::new(
                format!("figures.{layer}_s"),
                call_s(true, layer),
                "s",
            ));
        }
        let mut layers = Layers::default();
        let mut traced_ns = 0;
        let mut traced_passes = 0;
        for (_, pass) in passes.iter().filter(|(t, _)| *t) {
            traced_passes += 1;
            traced_ns += pass.wall_ns;
            for c in &pass.calls {
                layers.add(&c.3);
            }
        }
        layers.push_metrics(traced_ns, traced_passes, &mut metrics);
        layer_pass(&kernels, &mut clock).push_metrics(&mut metrics);
        push_cache_metrics(&ArtifactCacheStats::default(), 1, &mut metrics);
        metrics.push(Metric::new(
            "trace.overhead_ratio",
            ratio(best[1].total(), best[0].total()),
            "ratio",
        ));
    } else {
        let calls_ms: Vec<f64> = CALLS.iter().map(|c| call_s(false, c) * 1e3).collect();
        let suite = best[0].total();
        metrics.push(Metric::new("setup_s", median(&setup_s), "s"));
        metrics.push(Metric::new("suite_s", suite, "s"));
        metrics.push(Metric::new("req_p50_ms", median(&calls_ms), "ms"));
        metrics.push(Metric::new("req_p95_ms", quantile(&calls_ms, 0.95), "ms"));
        metrics.push(Metric::new(
            "req_per_s",
            ratio(CALLS.len() as f64, suite),
            "1/s",
        ));
        metrics.push(Metric::new("peak_alloc_mib", peak.mib(), "MiB"));
        metrics.push(Metric::new(
            "fig11_paper_err_pct",
            fig11_paper_err_pct(),
            "%",
        ));
    }
    Report {
        attempted,
        failed,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesa_workloads::by_name;

    #[test]
    fn golden_check_catches_a_corrupted_output_word() {
        let kernel = by_name("nn", KernelSize::Tiny).expect("nn");
        let (_, mut golden) = run_functional(&kernel);
        let mut mem = offload_on_m128(&kernel).expect("nn halts");
        assert!(outputs_match(&kernel, &mut golden, mem.data_mut()));
        let word = mem.data_mut().load(DATA_OUT, 4);
        mem.data_mut().store(DATA_OUT, 4, word ^ 1);
        assert!(!outputs_match(&kernel, &mut golden, mem.data_mut()));
    }

    #[test]
    fn a_non_finite_figure_field_fails_the_check() {
        let mut out = call("table1");
        assert!(out.checked_digest().is_some());
        out.floats[0] = f64::NAN;
        assert_eq!(out.checked_digest(), None);
    }

    #[test]
    fn paper_error_is_zero_at_the_paper_values() {
        assert_eq!(paper_err_pct(&PAPER_FIG11), 0.0);
        assert!((paper_err_pct(&[1.33 * 1.1, 1.81 * 0.9, 1.86, 1.92]) - 5.0).abs() < 1e-9);
    }
}
