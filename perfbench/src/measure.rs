//! Measurement helpers shared by the workloads: order statistics, the
//! digest hash, the host-span breakdown of a traced call, and the result
//! line the benchmark prints last.

use mesa_core::ArtifactCacheStats;
use mesa_trace::host::{HostProfile, HostSpan};

/// Controller phases as the program names its `mesa_trace::host` spans.
pub const PHASES: [&str; 6] = [
    "detect",
    "translate",
    "map",
    "configure",
    "offload",
    "reoptimize",
];
/// Index of `detect` in [`PHASES`] (the phase that runs the CPU model's
/// warm-up monitoring).
pub const DETECT: usize = 0;
/// Index of `map` in [`PHASES`] (Algorithm-1 placement).
pub const MAP: usize = 2;
/// Index of `offload` in [`PHASES`] (the accelerator engine).
pub const OFFLOAD: usize = 4;

/// Nanoseconds per second.
pub const NS: f64 = 1e9;

/// `num / den`, or 0 when the denominator is not a positive finite
/// number, so an idle layer reports a zero rate rather than NaN.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den.is_finite() && den > 0.0 && num.is_finite() {
        num / den
    } else {
        0.0
    }
}

/// Nearest-rank quantile `q` in `[0, 1]` of `values` (0 for none).
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values` (the lower middle for an even count).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Each operation's fastest time over the run's repeats of it, in seconds.
///
/// On a shared host, co-tenant load slows this simulator by up to 2× for
/// seconds to minutes at a time. A slowed sample measures how busy the
/// host was, not the program, and a mean or median of all samples moves
/// with the host's load from run to run. The fastest repeat of an
/// operation is its time with the least interference, so every timed
/// end-to-end metric is built from these per-operation minima.
#[derive(Debug, Clone)]
pub struct Best(Vec<f64>);

impl Best {
    /// No samples yet for any of `ops` operations (each reads infinite).
    #[must_use]
    pub fn new(ops: usize) -> Self {
        Best(vec![f64::INFINITY; ops])
    }

    /// Folds one sample of operation `op` into its minimum.
    pub fn record(&mut self, op: usize, seconds: f64) {
        self.0[op] = self.0[op].min(seconds);
    }

    /// Every operation's fastest time.
    #[must_use]
    pub fn times(&self) -> &[f64] {
        &self.0
    }

    /// The sum of the fastest times: one pass over every operation.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.0.iter().sum()
    }
}

/// Moves the one measuring thread between the CPUs it may run on.
///
/// On a shared host each vCPU is slowed by co-tenant load on its own
/// schedule: alternating a serve cycle between two vCPUs, one read 1.7×
/// slower than the other for seconds at a time, either way round, while
/// the kernel's scheduler keeps a busy thread on one vCPU for a whole
/// run. Pinning each repeat to the next CPU in turn gives every
/// operation's fastest time ([`Best`]) a chance on each of them. One
/// operation still runs at a time, and a repeat (a suite pass or a stream
/// cycle) runs on a single CPU, so caches stay warm within it. Dropping
/// the rotation restores the thread's original CPU set.
pub struct CpuRotation {
    original: Option<affinity::CpuSet>,
    cpus: Vec<usize>,
}

impl CpuRotation {
    /// The CPUs the thread may run on now (none where the platform does
    /// not let the thread read or set them; then [`pin`](Self::pin) does
    /// nothing).
    #[must_use]
    pub fn new() -> Self {
        let original = affinity::get();
        let cpus = original.map_or_else(Vec::new, |set| {
            (0..affinity::CPUS)
                .filter(|&cpu| set[cpu / 64] >> (cpu % 64) & 1 == 1)
                .collect()
        });
        CpuRotation { original, cpus }
    }

    /// Pins the thread to the `turn`-th CPU, counting round the set.
    pub fn pin(&self, turn: usize) {
        if self.cpus.len() > 1 {
            let cpu = self.cpus[turn % self.cpus.len()];
            let mut set = affinity::CpuSet::default();
            set[cpu / 64] |= 1 << (cpu % 64);
            affinity::set(&set);
        }
    }
}

impl Drop for CpuRotation {
    fn drop(&mut self) {
        if let Some(set) = &self.original {
            affinity::set(set);
        }
    }
}

/// The calling thread's CPU affinity (`sched_getaffinity(2)` and
/// `sched_setaffinity(2)` from the C library the standard library links).
#[cfg(target_os = "linux")]
mod affinity {
    /// CPUs a `cpu_set_t` holds.
    pub const CPUS: usize = 1024;
    /// `cpu_set_t`: one bit per CPU.
    pub type CpuSet = [u64; CPUS / 64];

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, set: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, set: *const u64) -> i32;
    }

    /// The calling thread's CPU set, if the kernel reports it.
    pub fn get() -> Option<CpuSet> {
        let mut set = CpuSet::default();
        // SAFETY: `set` is a writable buffer of exactly the size passed;
        // pid 0 names the calling thread.
        let ok = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) };
        (ok == 0).then_some(set)
    }

    /// Restricts the calling thread to `set`; a refusal leaves it as it
    /// was, which only costs the rotation its effect.
    pub fn set(set: &CpuSet) {
        // SAFETY: `set` is a readable buffer of exactly the size passed;
        // pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set.as_ptr()) };
    }
}

/// Elsewhere the thread stays where the scheduler puts it.
#[cfg(not(target_os = "linux"))]
mod affinity {
    pub const CPUS: usize = 0;
    pub type CpuSet = [u64; 1];

    pub fn get() -> Option<CpuSet> {
        None
    }

    pub fn set(_: &CpuSet) {}
}

/// Incremental 64-bit FNV-1a: the digest of simulated outputs and the
/// fingerprint of a served response.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Mixes `bytes` into the hash.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
        self
    }

    /// Mixes a little-endian `u64` into the hash.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// The hash so far.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Host time a traced call spent in each layer, read from the spans the
/// program opens: the six controller phases and the CPU baselines.
///
/// Phase times are exclusive of nested phases: the program opens
/// `reoptimize` inside `offload`, so `phase_ns[OFFLOAD]` is the engine's
/// own time and the six phases partition the controller's time.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// Host nanoseconds per phase, in [`PHASES`] order.
    pub phase_ns: [u64; 6],
    /// Calls per phase, in [`PHASES`] order.
    pub phase_calls: [u64; 6],
    /// Host nanoseconds in `baseline.*` spans (CPU-only baseline runs).
    pub baseline_ns: u64,
    /// Simulated cycles the program attributed to its spans.
    pub sim_cycles: u64,
}

impl Layers {
    /// The breakdown of one finished profile (zero when tracing was off).
    #[must_use]
    pub fn of(profile: Option<&HostProfile>) -> Self {
        let mut layers = Layers::default();
        if let Some(profile) = profile {
            layers.sim_cycles = profile.sim_cycles();
            for root in &profile.roots {
                layers.visit(root);
            }
        }
        layers
    }

    fn visit(&mut self, span: &HostSpan) {
        if let Some(i) = PHASES.iter().position(|p| *p == span.name) {
            let nested: u64 = span
                .children
                .iter()
                .filter(|c| PHASES.contains(&c.name.as_str()))
                .map(HostSpan::total_ns)
                .sum();
            self.phase_ns[i] += span.total_ns().saturating_sub(nested);
            self.phase_calls[i] += span.calls;
        } else if span.name.starts_with("baseline.") {
            self.baseline_ns += span.total_ns();
        }
        for child in &span.children {
            self.visit(child);
        }
    }

    /// Field-wise accumulation.
    pub fn add(&mut self, other: &Layers) {
        for i in 0..PHASES.len() {
            self.phase_ns[i] += other.phase_ns[i];
            self.phase_calls[i] += other.phase_calls[i];
        }
        self.baseline_ns += other.baseline_ns;
        self.sim_cycles += other.sim_cycles;
    }

    /// Host nanoseconds some layer span covers.
    #[must_use]
    pub fn attributed_ns(&self) -> u64 {
        self.phase_ns.iter().sum::<u64>() + self.baseline_ns
    }

    /// The per-layer metrics every workload reports from its traced
    /// operations: per-operation phase seconds and calls, per-operation
    /// baseline and unattributed seconds, and simulated Mcycles per host
    /// second. `wall_ns` is the traced operations' total wall time and
    /// `ops` their count.
    pub fn push_metrics(&self, wall_ns: u64, ops: u64, out: &mut Vec<Metric>) {
        let per_op = |ns: u64| ratio(ns as f64 / NS, ops as f64);
        for (i, phase) in PHASES.iter().enumerate() {
            out.push(Metric::new(
                format!("core.{phase}_s"),
                per_op(self.phase_ns[i]),
                "s",
            ));
            out.push(Metric::new(
                format!("core.{phase}.calls"),
                ratio(self.phase_calls[i] as f64, ops as f64),
                "count",
            ));
        }
        out.push(Metric::new("cpu.baseline_s", per_op(self.baseline_ns), "s"));
        out.push(Metric::new(
            "host.unattributed_s",
            per_op(wall_ns.saturating_sub(self.attributed_ns())),
            "s",
        ));
        out.push(Metric::new(
            "sim_mcycles_per_s",
            ratio(self.sim_cycles as f64 / 1e6, wall_ns as f64 / NS),
            "Mcycles/s",
        ));
    }
}

/// Work counts from the results the public calls return, beside the host
/// time of the layer that did the work. Each rate divides one by the other.
#[derive(Debug, Clone, Default)]
pub struct Work {
    /// Accelerator node firings (`ActivityStats` int, fp, load and store ops).
    pub firings: u64,
    /// Host nanoseconds in the engine (`offload`, nested phases excluded).
    pub engine_ns: u64,
    /// Instructions the CPU model retired (baselines and warm-up).
    pub retired: u64,
    /// Host nanoseconds of the calls and phases that ran the CPU model.
    pub cpu_ns: u64,
    /// L1 + L2 + DRAM accesses.
    pub accesses: u64,
    /// Host nanoseconds of the calls that made those accesses.
    pub wall_ns: u64,
    /// LDFG nodes Algorithm 1 placed.
    pub nodes: u64,
    /// Host nanoseconds in the `map` phase.
    pub map_ns: u64,
}

impl Work {
    /// Appends the work-normalized throughput metrics.
    pub fn push_metrics(&self, out: &mut Vec<Metric>) {
        let rate = |n: u64, ns: u64| ratio(n as f64, ns as f64 / NS);
        out.push(Metric::new(
            "accel.node_firings_per_s",
            rate(self.firings, self.engine_ns),
            "1/s",
        ));
        out.push(Metric::new(
            "cpu.retired_instrs_per_s",
            rate(self.retired, self.cpu_ns),
            "1/s",
        ));
        out.push(Metric::new(
            "mem.accesses_per_s",
            rate(self.accesses, self.wall_ns),
            "1/s",
        ));
        out.push(Metric::new(
            "core.mapper.nodes_per_s",
            rate(self.nodes, self.map_ns),
            "1/s",
        ));
    }
}

/// Appends the shared artifact cache's metrics over a window of `ops`
/// operations: the share of lookups that hit, and inserts and evictions
/// per operation. A workload that makes no lookups reports zeros.
pub fn push_cache_metrics(delta: &ArtifactCacheStats, ops: u64, out: &mut Vec<Metric>) {
    out.push(Metric::new(
        "core.cache.hit_rate",
        delta.hit_rate().unwrap_or(0.0),
        "ratio",
    ));
    out.push(Metric::new(
        "core.cache.inserts",
        ratio(delta.inserts as f64, ops as f64),
        "count",
    ));
    out.push(Metric::new(
        "core.cache.evictions",
        ratio(delta.evictions as f64, ops as f64),
        "count",
    ));
}

/// Counter growth between two cache snapshots.
#[must_use]
pub fn cache_delta(before: &ArtifactCacheStats, after: &ArtifactCacheStats) -> ArtifactCacheStats {
    ArtifactCacheStats {
        program_hits: after.program_hits - before.program_hits,
        program_misses: after.program_misses - before.program_misses,
        artifact_hits: after.artifact_hits - before.artifact_hits,
        artifact_misses: after.artifact_misses - before.artifact_misses,
        inserts: after.inserts - before.inserts,
        evictions: after.evictions - before.evictions,
    }
}

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// What one run reports: correctness, operations attempted and failed,
/// and the metrics of the requested kind.
#[derive(Debug, Clone)]
pub struct Report {
    /// Operations attempted (timed operations plus correctness checks).
    pub attempted: u64,
    /// Operations whose output failed a correctness check.
    pub failed: u64,
    /// Metrics, in print order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// The result line: one JSON object. A non-finite value would not be
    /// valid JSON, so it prints as `null` and marks the run incorrect.
    #[must_use]
    pub fn to_json(&self) -> String {
        let finite = self.metrics.iter().all(|m| m.value.is_finite());
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() {
                    format!("{}", m.value)
                } else {
                    "null".to_string()
                };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && finite && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The largest heap growth of any single operation, from
/// `mesa_trace::CountingAlloc`: the counters are zeroed before each
/// operation, so its peak is the largest net growth of live bytes during
/// it. Per operation rather than per window, so the figure does not
/// depend on how many operations a run fits in.
#[derive(Debug, Default)]
pub struct PeakAlloc(u64);

impl PeakAlloc {
    /// Runs one operation and folds its peak into the maximum.
    pub fn measure<R>(&mut self, op: impl FnOnce() -> R) -> R {
        mesa_trace::alloc::reset();
        let result = op();
        self.0 = self.0.max(mesa_trace::alloc::stats().peak_bytes);
        result
    }

    /// The maximum so far, in MiB.
    #[must_use]
    pub fn mib(&self) -> f64 {
        self.0 as f64 / (1024.0 * 1024.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&[3.0], 0.99), 3.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn best_keeps_each_operations_fastest_time() {
        let mut best = Best::new(2);
        assert_eq!(best.total(), f64::INFINITY, "an operation never run");
        for (op, t) in [(0, 3.0), (1, 2.0), (0, 1.0), (1, 5.0)] {
            best.record(op, t);
        }
        assert_eq!(best.times(), &[1.0, 2.0]);
        assert_eq!(best.total(), 3.0);
    }

    #[test]
    fn cpu_rotation_pins_in_turn_and_restores_the_cpu_set() {
        let before = affinity::get();
        {
            let rotation = CpuRotation::new();
            let n = rotation.cpus.len();
            for turn in 0..2 * n {
                rotation.pin(turn);
                if n > 1 {
                    let mut want = affinity::CpuSet::default();
                    let cpu = rotation.cpus[turn % n];
                    want[cpu / 64] |= 1 << (cpu % 64);
                    assert_eq!(affinity::get(), Some(want));
                }
            }
        }
        assert_eq!(affinity::get(), before);
    }

    #[test]
    fn result_line_marks_non_finite_values_incorrect() {
        let mut report = Report {
            attempted: 2,
            failed: 0,
            metrics: vec![Metric::new("setup_s", 0.5, "s")],
        };
        assert!(report.to_json().starts_with("{\"correct\": true"));
        report.metrics.push(Metric::new("suite_s", f64::NAN, "s"));
        let line = report.to_json();
        assert!(line.starts_with("{\"correct\": false"), "{line}");
        assert!(line.contains("\"suite_s\": {\"value\": null"), "{line}");
    }
}
