//! Differential arbitration of the CPU speed layer (macro-op fusion): it
//! must be invisible to architecture. Fused and unfused execution agree on
//! the timing and final state of random generated kernels.

use mesa_bench::kernelgen::{self, ARR_A, ARR_OUT, ITERS};
use mesa_cpu::{CoreConfig, NullMonitor, OoOCore, RunLimits};
use mesa_mem::{MemConfig, MemorySystem};
use mesa_test::{forall, prop_assert_eq, Checker};

/// Persisted counterexample seeds, replayed before novel cases.
const REGRESSIONS: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/cpu_speed.proptest-regressions");

fn checker(name: &str, cases: u32) -> Checker {
    Checker::new(name).cases(cases).regressions_file(REGRESSIONS)
}

/// Runs `seed`'s generated kernel on a fresh core and returns everything
/// architecture-visible (plus the timing result for invariance checks).
fn run_generated(
    seed: u64,
    fusion: bool,
) -> (mesa_cpu::RunResult, mesa_isa::ArchState, MemorySystem) {
    let program = kernelgen::random_loop(seed);
    let mut mem = MemorySystem::new(MemConfig::default(), 1);
    kernelgen::populate_input(&mut mem, seed);
    let mut state = kernelgen::entry_state(seed);
    let mut cpu = OoOCore::new(CoreConfig { fusion, ..CoreConfig::boom_baseline() });
    let r = cpu.run(&program, &mut state, &mut mem, 0, RunLimits::none(), &mut NullMonitor);
    (r, state, mem)
}

/// Words of the input + output arrays — the full memory footprint a
/// generated kernel can touch.
fn array_words(mem: &mut MemorySystem) -> Vec<u32> {
    let data = mem.data_mut();
    let mut words: Vec<u32> = (0..ITERS).map(|i| data.load_u32(ARR_A + 4 * i)).collect();
    words.extend((0..2 * ITERS).map(|i| data.load_u32(ARR_OUT + 4 * i)));
    words
}

/// Fused and unfused execution are differentially arbitrated over random
/// kernels: identical timing, identical architectural state, identical
/// memory. Only the fusion counters may differ.
#[test]
fn fused_and_unfused_agree_on_random_kernels() {
    forall!(checker("fused_vs_unfused_kernelgen", 128), |(seed in 0u64..1_000_000)| {
        let (fused, st_f, mut mem_f) = run_generated(seed, true);
        let (unfused, st_u, mut mem_u) = run_generated(seed, false);
        let mut masked = fused;
        masked.fusion = unfused.fusion;
        prop_assert_eq!(masked, unfused, "timing diverged (seed {seed})");
        prop_assert_eq!(st_f, st_u, "arch state diverged (seed {seed})");
        prop_assert_eq!(array_words(&mut mem_f), array_words(&mut mem_u),
            "memory diverged (seed {seed})");
        // And both match the plain-ISA golden interpretation.
        let program = kernelgen::random_loop(seed);
        let (gold_st, mut gold_mem) = kernelgen::golden(&program, seed);
        prop_assert_eq!(st_f, gold_st, "arch state diverged from golden (seed {seed})");
        prop_assert_eq!(array_words(&mut mem_f), array_words(&mut gold_mem),
            "memory diverged from golden (seed {seed})");
    });
}
