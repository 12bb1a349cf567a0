//! `serve_repeat` and `serve_unique`: one client in a closed loop calling
//! `ServeEngine::handle`, on a stream whose shapes repeat (the artifact
//! cache serves them) or never repeat (every lookup misses, inserts and
//! evicts).

use crate::figures::{fig11_paper_err_pct, FIGURE_LAYERS};
use crate::measure::{
    cache_delta, median, push_cache_metrics, quantile, ratio, Best, CpuRotation, Fnv, Layers,
    Metric, PeakAlloc, Report, Work, DETECT, MAP, NS, OFFLOAD,
};
use mesa_bench::{loadgen, one_shot, synthetic_kernel, GridSpec, KernelSpec, ServeEngine};
use mesa_bench::{ServeRequest, ServeResponse};
use mesa_core::run_offload;
use mesa_mem::MemorySystem;
use mesa_test::splitmix64;
use mesa_trace::host::{self, HostClock, RealClock};
use mesa_workloads::by_name;

/// Length of the repeat stream, and the number of shapes that prime the
/// unique workload's cache: one artifact-cache capacity (256 entries).
const CACHE_CAPACITY: usize = 256;
/// Distinct shapes the unique stream cycles through: a quarter more than
/// the cache's capacity, so a shape is always evicted before it recurs and
/// every lookup misses, while each request recurs often enough in a run
/// for its fastest time to come from a quiet moment.
const UNIQUE_SHAPES: usize = CACHE_CAPACITY + CACHE_CAPACITY / 4;
/// Stream indices whose responses make up the printed digest.
const DIGEST_REQUESTS: usize = 32;
/// Times the set-up is repeated; `setup_s` is the median.
const SETUPS: usize = 3;
/// Salt that keeps the unique workload's priming shapes apart from its
/// timed ones.
const PRIME_SALT: u64 = 0x9121_7E5E_ED00_0001;

/// Which request stream the client sends.
#[derive(Debug, Clone, Copy)]
pub enum Mix {
    /// `loadgen(seed, 256, 4, M128)`, served round and round.
    Repeat,
    /// [`UNIQUE_SHAPES`] distinct 100–160-node synthetic chains on M-512
    /// with the exhaustive mapper window, served round and round.
    Unique,
}

impl Mix {
    fn name(self) -> &'static str {
        match self {
            Mix::Repeat => "serve_repeat",
            Mix::Unique => "serve_unique",
        }
    }
}

/// A seed-determined request stream, indexable without end: one cycle of
/// requests served round and round.
enum Stream {
    Cycle(Vec<ServeRequest>),
    Unique(u64),
}

impl Stream {
    fn new(mix: Mix, seed: u64) -> Self {
        match mix {
            Mix::Repeat => Stream::Cycle(loadgen(seed, CACHE_CAPACITY, 4, GridSpec::M128)),
            Mix::Unique => Stream::Unique(seed),
        }
    }

    /// Requests in one cycle of the stream.
    fn len(&self) -> usize {
        match self {
            Stream::Cycle(reqs) => reqs.len(),
            Stream::Unique(_) => UNIQUE_SHAPES,
        }
    }

    /// The slot of the cycle request `i` takes.
    fn key(&self, i: usize) -> usize {
        i % self.len()
    }

    fn get(&self, i: usize) -> ServeRequest {
        let key = self.key(i);
        match self {
            Stream::Cycle(reqs) => reqs[key].clone(),
            Stream::Unique(seed) => {
                let mut s = seed ^ (key as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let nodes = 100 + (splitmix64(&mut s) % 61) as u32;
                let shape = splitmix64(&mut s);
                ServeRequest {
                    kernel: KernelSpec::Synthetic { nodes, seed: shape },
                    grid: GridSpec::M512Wide,
                    data_seed: splitmix64(&mut s),
                    tenant: (key % 4) as u32,
                }
            }
        }
    }
}

/// Fingerprint of everything a response reports.
fn response_hash(r: &ServeResponse) -> u64 {
    Fnv::default()
        .u64(u64::from(r.tenant))
        .bytes(r.kernel.as_bytes())
        .u64(u64::from(r.ok))
        .u64(r.accel_iterations)
        .u64(r.accel_cycles)
        .bytes(r.render.as_bytes())
        .finish()
}

/// The responses served for one stream slot, checked against the uncached
/// one-shot path after the timed window.
#[derive(Debug, Clone, Default)]
struct Served {
    first: Option<u64>,
    same: u64,
    other: u64,
}

impl Served {
    fn record(&mut self, hash: u64) {
        match self.first {
            None => {
                self.first = Some(hash);
                self.same = 1;
            }
            Some(h) if h == hash => self.same += 1,
            Some(_) => self.other += 1,
        }
    }

    /// Responses that are not ok or differ from the `reference`.
    fn failures(&self, reference: &ServeResponse) -> u64 {
        if reference.ok && self.first == Some(response_hash(reference)) {
            self.other
        } else {
            self.same + self.other
        }
    }
}

/// The work one request does, which its response does not carry.
#[derive(Debug, Clone, Copy)]
struct Counts {
    firings: u64,
    warmup_instrs: u64,
    /// L1 + L2 + DRAM accesses.
    accesses: u64,
    /// LDFG nodes of the offloaded region.
    nodes: u64,
    /// Accel cycles and iterations, to check against the served response.
    accel: (u64, u64),
}

impl Counts {
    /// Replays `req` uncached through `mesa_core::run_offload`. A
    /// synthetic loop's work does not depend on its input data, so the
    /// replay leaves the data zero; the caller checks the accel cycles and
    /// iterations against the served response.
    fn of(req: &ServeRequest) -> Option<Self> {
        let system = req.grid.system();
        let mut mem = MemorySystem::new(system.mem, 2);
        let (program, mut state) = match &req.kernel {
            KernelSpec::Named { name, size } => {
                let kernel = by_name(name, *size)?;
                kernel.populate(mem.data_mut());
                (kernel.program, kernel.entry)
            }
            KernelSpec::Synthetic { nodes, seed } => synthetic_kernel(*nodes, *seed),
        };
        let r = run_offload(&program, &mut state, &mut mem, &system).ok()?;
        let a = &r.activity;
        let t = mem.traffic();
        Some(Counts {
            firings: a.int_ops + a.fp_ops + a.loads + a.stores,
            warmup_instrs: r.warmup_instrs,
            accesses: t.l1_accesses + t.l2_accesses + t.dram_accesses,
            nodes: r.placement.len() as u64,
            accel: (r.accel_cycles, r.accel_iterations),
        })
    }
}

/// A new engine with its cache primed: the whole repeat stream served once,
/// or a cache capacity of unique shapes the timed stream never asks for.
fn setup(mix: Mix, seed: u64) -> (Stream, ServeEngine) {
    let stream = Stream::new(mix, seed);
    let engine = ServeEngine::new();
    let priming = match mix {
        Mix::Repeat => Stream::new(mix, seed),
        Mix::Unique => Stream::new(mix, seed ^ PRIME_SALT),
    };
    for i in 0..CACHE_CAPACITY {
        std::hint::black_box(engine.handle(&priming.get(i)));
    }
    (stream, engine)
}

/// One traced request: its stream slot, wall time, host-span breakdown,
/// and whether its artifact lookup missed (so Algorithm 1 ran).
struct Traced {
    key: usize,
    wall_ns: u64,
    layers: Layers,
    mapped: bool,
    accel: (u64, u64),
}

/// Runs the workload for `seconds` and reports end-to-end metrics, or
/// per-layer metrics when `traced`.
#[must_use]
pub fn run(mix: Mix, seed: u64, seconds: u64, traced: bool) -> Report {
    let mut clock = RealClock::new();
    let mut setup_s = Vec::with_capacity(SETUPS);
    let (mut stream, mut engine) = (Stream::Unique(0), ServeEngine::new());
    let cpus = CpuRotation::new();
    for turn in 0..SETUPS {
        cpus.pin(turn);
        let t0 = clock.now_ns();
        (stream, engine) = setup(mix, seed);
        setup_s.push((clock.now_ns() - t0) as f64 / NS);
    }

    // Timed window, one cycle of the stream at a time. A traced run
    // alternates untraced and traced cycles, so the tracing overhead is
    // measured under the same conditions. Buffers are sized up front so
    // their growth stays out of the allocation peak.
    let cycle = stream.len();
    let mut best = [Best::new(cycle), Best::new(cycle)];
    let mut served = vec![Served::default(); cycle];
    let mut traced_reqs: Vec<Traced> = Vec::with_capacity(1 << 16);
    let mut cycles = 0;
    let before = engine.stats();
    let mut peak = PeakAlloc::default();
    let start = clock.now_ns();
    while cycles <= usize::from(traced) || clock.now_ns() - start < seconds * 1_000_000_000 {
        let trace_cycle = traced && cycles % 2 == 1;
        // Each kind of cycle visits every CPU in turn.
        cpus.pin(cycles / (1 + usize::from(traced)));
        if trace_cycle {
            host::enable(host::ClockSpec::Real);
        }
        for (key, slot) in served.iter_mut().enumerate() {
            let req = stream.get(key);
            let stats = trace_cycle.then(|| engine.stats());
            let ((resp, profile), dt) = peak.measure(|| {
                let t0 = clock.now_ns();
                let out = host::scoped(|| engine.handle(&req));
                (out, clock.now_ns() - t0)
            });
            slot.record(response_hash(&resp));
            best[usize::from(trace_cycle)].record(key, dt as f64 / NS);
            if let Some(stats) = stats {
                traced_reqs.push(Traced {
                    key,
                    wall_ns: dt,
                    layers: Layers::of(profile.as_ref()),
                    mapped: engine.stats().artifact_misses > stats.artifact_misses,
                    accel: (resp.accel_cycles, resp.accel_iterations),
                });
            }
        }
        cycles += 1;
        host::disable();
    }
    let window_ns = clock.now_ns() - start;
    drop(cpus);
    let lookups = cache_delta(&before, &engine.stats());

    // Correctness, outside the timed window: every response ok and equal
    // to the uncached one-shot path.
    let attempted = (cycles * cycle) as u64;
    let mut failed = 0u64;
    let mut digest = Fnv::default();
    for (key, slot) in served.iter().enumerate() {
        let reference = one_shot(&stream.get(key));
        failed += slot.failures(&reference);
        if key < DIGEST_REQUESTS {
            digest.u64(response_hash(&reference));
        }
    }

    println!(
        "{}: {attempted} requests, {cycles} cycles of {cycle}, in {:.3} s; each request's time is its fastest of {} untraced repeats; setup median of {SETUPS}",
        mix.name(),
        window_ns as f64 / NS,
        if traced { cycles.div_ceil(2) } else { cycles },
    );
    println!("digest {} {:#018x}", mix.name(), digest.finish());
    println!(
        "artifact cache: {} lookups, hit share {:.4}",
        lookups.hits() + lookups.misses(),
        lookups.hit_rate().unwrap_or(0.0)
    );

    let mut metrics = Vec::new();
    if traced {
        for layer in FIGURE_LAYERS {
            metrics.push(Metric::new(format!("figures.{layer}_s"), 0.0, "s"));
        }
        let mut layers = Layers::default();
        let mut work = Work::default();
        let mut replayed: Vec<Option<Option<Counts>>> = vec![None; cycle];
        for t in &traced_reqs {
            layers.add(&t.layers);
            let counts = *replayed[t.key].get_or_insert_with(|| Counts::of(&stream.get(t.key)));
            match counts {
                Some(c) if c.accel == t.accel => {
                    work.firings += c.firings;
                    work.retired += c.warmup_instrs;
                    work.accesses += c.accesses;
                    if t.mapped {
                        work.nodes += c.nodes;
                    }
                }
                _ => failed += 1,
            }
            work.engine_ns += t.layers.phase_ns[OFFLOAD];
            work.cpu_ns += t.layers.phase_ns[DETECT];
            work.map_ns += t.layers.phase_ns[MAP];
            work.wall_ns += t.wall_ns;
        }
        layers.push_metrics(work.wall_ns, traced_reqs.len() as u64, &mut metrics);
        work.push_metrics(&mut metrics);
        push_cache_metrics(&lookups, attempted, &mut metrics);
        metrics.push(Metric::new(
            "trace.overhead_ratio",
            ratio(best[1].total(), best[0].total()),
            "ratio",
        ));
    } else {
        metrics.push(Metric::new("setup_s", median(&setup_s), "s"));
        let suite_s = best[0].total();
        let latency_ms: Vec<f64> = best[0].times().iter().map(|t| t * 1e3).collect();
        metrics.push(Metric::new("suite_s", suite_s, "s"));
        metrics.push(Metric::new("req_p50_ms", median(&latency_ms), "ms"));
        metrics.push(Metric::new("req_p95_ms", quantile(&latency_ms, 0.95), "ms"));
        metrics.push(Metric::new(
            "req_per_s",
            ratio(cycle as f64, suite_s),
            "1/s",
        ));
        metrics.push(Metric::new("peak_alloc_mib", peak.mib(), "MiB"));
        metrics.push(Metric::new(
            "fig11_paper_err_pct",
            fig11_paper_err_pct(),
            "%",
        ));
    }
    println!(
        "fail_rate {} ({failed}/{attempted})",
        ratio(failed as f64, attempted as f64)
    );
    Report {
        attempted,
        failed,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_response_fails_the_check() {
        let stream = Stream::new(Mix::Repeat, 7);
        let req = stream.get(0);
        let engine = ServeEngine::new();
        let mut slot = Served::default();
        let resp = engine.handle(&req);
        slot.record(response_hash(&resp));
        slot.record(response_hash(&engine.handle(&req)));
        let reference = one_shot(&req);
        assert_eq!(slot.failures(&reference), 0);

        let mut corrupted = resp.clone();
        corrupted.render.push(' ');
        slot.record(response_hash(&corrupted));
        assert_eq!(slot.failures(&reference), 1);

        let mut declined = reference.clone();
        declined.ok = false;
        assert_eq!(
            slot.failures(&declined),
            3,
            "a response that is not ok fails"
        );
    }

    #[test]
    fn unique_stream_cycles_through_distinct_shapes() {
        let stream = Stream::new(Mix::Unique, 3);
        let shapes: std::collections::BTreeSet<String> = (0..UNIQUE_SHAPES)
            .map(|i| format!("{:?}", stream.get(i).kernel))
            .collect();
        assert_eq!(shapes.len(), UNIQUE_SHAPES);
        assert_eq!(stream.key(UNIQUE_SHAPES + 5), 5);
        assert_eq!(
            format!("{:?}", stream.get(UNIQUE_SHAPES + 5)),
            format!("{:?}", stream.get(5))
        );
    }

    #[test]
    fn the_unique_cycle_never_hits_the_artifact_cache() {
        let (stream, engine) = setup(Mix::Unique, 5);
        let before = engine.stats();
        for i in 0..2 * UNIQUE_SHAPES {
            assert!(engine.handle(&stream.get(i)).ok);
        }
        let lookups = cache_delta(&before, &engine.stats());
        assert_eq!(lookups.hits(), 0, "{lookups:?}");
        assert!(lookups.misses() > 0 && lookups.evictions > 0, "{lookups:?}");
    }
}
