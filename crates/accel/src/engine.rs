//! Cycle-level dataflow execution engine for the spatial accelerator.
//!
//! Each configured node fires once per loop iteration when its inputs are
//! available (the dataflow model of paper §3.1). A compute or branch node
//! runs its instruction's [`PureOp`], lowered once per run from the
//! `mesa-isa` value function the CPU's `step` also uses, so PE and CPU
//! values agree bit for bit; timing follows the fabric:
//! single-cycle neighbor links, a contended half-ring NoC, a shared
//! fallback bus for unplaced nodes, and load/store entries that keep
//! original program order for stores while loads may run ahead, with
//! store→load forwarding and invalidation on address conflicts (§4.2).
//!
//! Tiled regions (Fig. 6) run one SDFG instance per tile, striding over the
//! iteration space; all tiles share the memory ports, which is what bends
//! the PE-scaling curve of Fig. 15 once ports saturate.

use crate::faults::{FaultLog, FaultPlan, BUS_DROP_PENALTY};
use crate::snapshot::{PlacementSnapshot, SnapshotError, TileSnap};
use crate::{
    AccelConfig, AccelProgram, ActivityStats, Coord, HalfRingModel, LatencyModel, NodeConfig,
    Operand, PerfCounters, ProgramError, Region,
};
use mesa_isa::{extend_load, ArchState, MemoryIo, OpClass, PureOp, Reg, Xlen};
use mesa_mem::MemorySystem;
use mesa_trace::{NullTracer, Subsystem, Tracer};
use std::fmt;

/// Extra cycles to replay a load invalidated by a conflicting store.
pub(crate) const VIOLATION_REDO: u64 = 2;

/// Result of executing a configured region.
#[derive(Debug, Clone)]
pub struct AccelRunResult {
    /// Loop iterations executed (across all tiles).
    pub iterations: u64,
    /// Total cycles from start to last completion.
    pub cycles: u64,
    /// Per-node latency counters (MESA's feedback channel).
    pub counters: PerfCounters,
    /// Aggregate activity for the energy model.
    pub activity: ActivityStats,
    /// Live-out register values to write back to the CPU.
    pub final_regs: Vec<(Reg, u64)>,
    /// `true` when every tile's loop exited naturally (vs. hitting the
    /// iteration cap).
    pub completed: bool,
    /// Engine-level fault events injected during this run.
    pub faults: FaultLog,
}

impl AccelRunResult {
    /// Average cycles per iteration.
    #[must_use]
    pub fn cycles_per_iteration(&self) -> f64 {
        if self.iterations == 0 {
            0.0
        } else {
            self.cycles as f64 / self.iterations as f64
        }
    }
}

/// Parameters of one spatial session: who runs, where on the grid, for how
/// long, and whether the session should freeze itself.
///
/// The plain [`SpatialAccelerator::execute`] entry point is the degenerate
/// case — full-grid region, never pause. The fabric manager uses explicit regions and
/// `pause_at_cycle` to time-slice tenants.
#[derive(Debug, Clone)]
pub struct SessionRequest<'a> {
    /// Memory-system requester id of the accelerator.
    pub requester: usize,
    /// Total iteration budget (cumulative across pauses/resumes).
    pub max_iterations: u64,
    /// Fault plan (only its timing faults act at the engine level).
    pub faults: &'a FaultPlan,
    /// Row band of the grid this session owns.
    pub region: Region,
    /// Freeze at the first round boundary whose session clock has reached
    /// this cycle (`None` = run to completion). Iterations stay contiguous
    /// because the check happens between rounds, like the budget check.
    pub pause_at_cycle: Option<u64>,
}

impl<'a> SessionRequest<'a> {
    /// A full-grid, never-pausing request — what the plain
    /// [`SpatialAccelerator::execute`] entry point uses.
    #[must_use]
    pub fn solo(requester: usize, max_iterations: u64, faults: &'a FaultPlan, grid: crate::GridDim) -> Self {
        SessionRequest {
            requester,
            max_iterations,
            faults,
            region: Region::full(grid),
            pause_at_cycle: None,
        }
    }
}

/// How a spatial session ended.
// The completed variant is the overwhelmingly common one; boxing it would
// tax every solo execute call to slim the rare paused arm.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum SessionStatus {
    /// Every tile's loop exited (or the iteration budget ran out); the
    /// result is exactly what an uninterrupted run returns.
    Completed(AccelRunResult),
    /// The session froze at a round boundary per
    /// [`SessionRequest::pause_at_cycle`]; resume it by passing the
    /// snapshot back to [`SpatialAccelerator::run_session`].
    Paused(Box<PlacementSnapshot>),
}

impl SessionStatus {
    /// The run result: a completed session's, or the progress a paused one
    /// made up to its freeze (a solo request never pauses, so for those
    /// this is always the completed result).
    #[must_use]
    pub fn into_result(self, prog: &AccelProgram) -> AccelRunResult {
        match self {
            SessionStatus::Completed(r) => r,
            SessionStatus::Paused(s) => s.to_result(prog),
        }
    }
}

/// Errors starting or resuming a spatial session.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionError {
    /// The program failed validation against the session's region.
    Program(ProgramError),
    /// The resume snapshot was rejected (wrong program, region height, or
    /// fault binding).
    Snapshot(SnapshotError),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Program(e) => write!(f, "session program rejected: {e}"),
            SessionError::Snapshot(e) => write!(f, "session snapshot rejected: {e}"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<ProgramError> for SessionError {
    fn from(e: ProgramError) -> Self {
        SessionError::Program(e)
    }
}

impl From<SnapshotError> for SessionError {
    fn from(e: SnapshotError) -> Self {
        SessionError::Snapshot(e)
    }
}

/// The spatial accelerator: a PE grid with the fabric of paper §5.2.
#[derive(Debug, Clone)]
pub struct SpatialAccelerator {
    cfg: AccelConfig,
    model: HalfRingModel,
}

#[derive(Debug, Clone)]
struct TileState {
    /// Architectural registers captured at offload (with per-tile induction
    /// offsets applied).
    entry_regs: Vec<u64>,
    /// Previous-iteration node outputs.
    prev_value: Vec<u64>,
    /// Previous-iteration node completion times.
    prev_complete: Vec<u64>,
    /// Iterations this tile has executed.
    iters: u64,
    /// Completion time of the tile's last iteration.
    last_complete: u64,
    /// Whether the tile's loop is still running.
    running: bool,
    /// Completion time of the last store (in-order store commit).
    last_store_start: u64,
}

/// Per-iteration working buffers, allocated once per [`SpatialAccelerator::run_session`]
/// call and reused across every `run_iteration` of every tile, so a node
/// firing allocates nothing. Buffers are reset with `fill`/`clear` at each
/// iteration start, which preserves the exact semantics of fresh
/// zero-initialized allocations.
#[derive(Debug)]
struct IterScratch {
    cur_value: Vec<u64>,
    cur_complete: Vec<u64>,
    branch_taken: Vec<bool>,
    /// (node index, address, width, data_complete) per store seen so far.
    stores_seen: Vec<(usize, u64, u8, u64)>,
}

impl IterScratch {
    fn new(n: usize) -> Self {
        IterScratch {
            cur_value: vec![0; n],
            cur_complete: vec![0; n],
            branch_taken: vec![false; n],
            stores_seen: Vec::new(),
        }
    }

    /// Resets to the state a fresh iteration's buffers would have.
    fn reset(&mut self) {
        self.cur_value.fill(0);
        self.cur_complete.fill(0);
        self.branch_taken.fill(false);
        self.stores_seen.clear();
    }
}

/// Static route of one dataflow edge, resolved once per
/// [`SpatialAccelerator::run_session`] call. Placements never change
/// during a run, so which link a transfer uses — and its model latency —
/// is a constant; only the contention (fabric booking) is dynamic.
#[derive(Debug, Clone, Copy)]
enum Route {
    /// Producer and consumer share a PE: the value is already there.
    Same,
    /// Direct local link of the given latency (contention-free).
    Local(u64),
    /// Half-ring NoC: arbitrate the producer-row lane, then `lat` hops.
    Noc { row: usize, lat: u64 },
    /// Fallback bus (either endpoint unplaced) of the given latency.
    Bus(u64),
}

/// Pre-resolved operand: flat register indices and a static [`Route`]
/// instead of `Reg`/`Coord` lookups in the per-iteration loop.
#[derive(Debug, Clone, Copy)]
enum OpPlan {
    None,
    InitReg(usize),
    Node { idx: usize, carried: bool, via: usize, route: Route },
}

/// Per-node execution plan: everything about a node that is invariant
/// across iterations (executable op, opcode class, memory access shape,
/// operand routes), computed once per tile per run so the per-iteration
/// loop performs no coordinate math, latency-model dispatch, opcode-property
/// lookups, or register staging.
#[derive(Debug, Clone)]
struct NodePlan {
    /// The tile-scaled instruction lowered to its pure executable form
    /// (loads and stores use only its immediate).
    op: PureOp,
    class: OpClass,
    inputs: [OpPlan; 2],
    hidden: OpPlan,
    /// Load/store access width in bytes (0 for non-memory nodes).
    mem_width: u8,
    /// Whether a load sign-extends.
    sign_extend: bool,
    /// Compute latency of the operation.
    base_latency: u64,
}

/// Resolves one pre-planned operand to `(value, ready_time_at_consumer,
/// transfer_cycles)` — the last is what the per-edge latency counters
/// record (paper §5.2). Forced inline: it runs up to three times per node
/// firing, and as an out-of-line eight-argument call it cost more than the
/// operand work itself.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn resolve_operand(
    op: &OpPlan,
    tile: &TileState,
    cur_value: &[u64],
    cur_complete: &[u64],
    base: u64,
    first_iter: bool,
    fabric: &mut Fabric,
    activity: &mut ActivityStats,
) -> (u64, u64, u64) {
    match *op {
        OpPlan::None => (0, base, 0),
        OpPlan::InitReg(flat) => (tile.entry_regs[flat], base, 0),
        OpPlan::Node { idx, carried, via, route } => {
            if carried && first_iter {
                return (tile.entry_regs[via], base, 0);
            }
            let (value, produced) = if carried {
                (tile.prev_value[idx], tile.prev_complete[idx])
            } else {
                (cur_value[idx], cur_complete[idx])
            };
            let arrival = match route {
                Route::Same => produced,
                Route::Local(lat) => {
                    activity.local_transfers += 1;
                    produced + lat
                }
                Route::Noc { row, lat } => {
                    let start = fabric.book_lane(row, produced);
                    activity.noc_transfers += 1;
                    activity.noc_hop_cycles += lat;
                    start + lat
                }
                Route::Bus(lat) => {
                    let start = fabric.book_bus(produced);
                    activity.fallback_transfers += 1;
                    start + lat
                }
            };
            (value, arrival.max(base), arrival - produced)
        }
    }
}

/// Shared fabric bandwidth accounting (memory ports, NoC lanes, fallback
/// bus).
///
/// Each resource is a rate limiter with backfill: the `n`-th request to a
/// resource of capacity `c` per cycle can start no earlier than `n / c`,
/// and no earlier than its data is ready. Nodes are *booked* in program
/// order rather than time order, so a strict per-port FIFO schedule would
/// let one late-ready access (a store at the end of a long dataflow chain)
/// block earlier-ready accesses booked after it — a hardware port would
/// simply serve them in its idle slots. The token floor models exactly
/// that: under saturation it enforces the aggregate bandwidth; under light
/// load readiness dominates.
#[derive(Debug)]
struct Fabric {
    /// Memory requests issued so far.
    port_requests: u64,
    /// Memory ports (aggregate capacity per cycle).
    port_count: u64,
    /// NoC transfers issued per row lane.
    lane_requests: Vec<u64>,
    /// Fallback-bus transfers issued.
    bus_requests: u64,
    /// Fault injection: every N-th bus transfer drops its token (0 = off).
    bus_drop_period: u64,
    /// Bus tokens dropped so far.
    bus_drops: u64,
}

impl Fabric {
    /// Books one memory-port slot for a request ready at `ready`; returns
    /// its start time.
    fn book_port(&mut self, ready: u64) -> u64 {
        let floor = self.port_requests / self.port_count;
        self.port_requests += 1;
        ready.max(floor)
    }

    /// Books one cycle on `row`'s NoC lane for a value produced at
    /// `produced`; returns the transfer start time.
    fn book_lane(&mut self, row: usize, produced: u64) -> u64 {
        let floor = self.lane_requests[row];
        self.lane_requests[row] += 1;
        produced.max(floor)
    }

    /// Books one fallback-bus slot; returns the transfer start time. Under
    /// fault injection, every `bus_drop_period`-th transfer loses its
    /// token and pays the retransmit penalty.
    fn book_bus(&mut self, produced: u64) -> u64 {
        let floor = self.bus_requests;
        self.bus_requests += 1;
        let start = produced.max(floor);
        if self.bus_drop_period > 0 && self.bus_requests.is_multiple_of(self.bus_drop_period) {
            self.bus_drops += 1;
            start + BUS_DROP_PENALTY
        } else {
            start
        }
    }
}

impl SpatialAccelerator {
    /// Builds an accelerator with the default half-ring fabric.
    #[must_use]
    pub fn new(cfg: AccelConfig) -> Self {
        SpatialAccelerator { cfg, model: HalfRingModel::default() }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &AccelConfig {
        &self.cfg
    }

    /// The interconnect model (shared with the mapper).
    #[must_use]
    pub fn latency_model(&self) -> &HalfRingModel {
        &self.model
    }

    /// Executes a configured region until every tile's loop exits or
    /// `max_iterations` total iterations have run — the plain entry point:
    /// full grid, fault-free, untraced. [`run_session`](Self::run_session)
    /// is the general one (regions, pauses, fault plans, tracing).
    ///
    /// Functional state (memory) is updated through `mem`; the returned
    /// [`AccelRunResult::final_regs`] carry the live-out architectural
    /// registers for non-tiled runs (tiled induction live-outs are fixed up
    /// by the controller, which knows the iteration count).
    ///
    /// # Errors
    /// Returns [`ProgramError`] if the program fails validation against
    /// this accelerator's grid.
    pub fn execute(
        &self,
        prog: &AccelProgram,
        entry: &ArchState,
        mem: &mut MemorySystem,
        requester: usize,
        max_iterations: u64,
    ) -> Result<AccelRunResult, ProgramError> {
        let faults = FaultPlan::none();
        let req = SessionRequest::solo(requester, max_iterations, &faults, self.cfg.grid());
        Ok(self.session_inner(prog, entry, mem, &req, None, &mut NullTracer, 0)?.into_result(prog))
    }

    /// Runs one spatial session: [`execute`](Self::execute) confined to
    /// `req.region`'s row band under `req.faults` (the plan's
    /// dropped-bus-token schedule acts on the fallback bus — timing only;
    /// [`AccelRunResult::faults`] records what was injected), optionally
    /// freezing at a round boundary ([`SessionRequest::pause_at_cycle`])
    /// and optionally continuing from an earlier freeze (`resume`).
    ///
    /// The run is wrapped in an `accel.execute` span on the accelerator
    /// timeline starting at `cycle_base` (the caller's episode clock, since
    /// the engine's own cycles are run-relative).
    ///
    /// Because the fabric's latencies depend only on *relative*
    /// coordinates and its booking counters travel inside the snapshot, a
    /// session paused in one region and resumed in another same-height
    /// region of the same grid continues cycle-identically; across grids
    /// with different port counts the timing shifts but the architectural
    /// results are unchanged. A session that runs to completion returns
    /// exactly what an uninterrupted run would.
    ///
    /// # Errors
    /// [`SessionError::Program`] when the program does not fit the region,
    /// or [`SessionError::Snapshot`] when `resume` does not belong to this
    /// program/region/fault binding.
    #[allow(clippy::too_many_arguments)]
    pub fn run_session(
        &self,
        prog: &AccelProgram,
        entry: &ArchState,
        mem: &mut MemorySystem,
        req: &SessionRequest<'_>,
        resume: Option<&PlacementSnapshot>,
        tracer: &mut dyn Tracer,
        cycle_base: u64,
    ) -> Result<SessionStatus, SessionError> {
        if let Some(snap) = resume {
            snap.check_compatible(prog, req.region, req.faults)?;
        }
        Ok(self.session_inner(prog, entry, mem, req, resume, tracer, cycle_base)?)
    }

    /// Shared session body. `resume` is trusted here (compatibility is the
    /// public entry points' concern): with `None` this is byte-for-byte
    /// the pre-fabric execute path over the full grid.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn session_inner(
        &self,
        prog: &AccelProgram,
        entry: &ArchState,
        mem: &mut MemorySystem,
        req: &SessionRequest<'_>,
        resume: Option<&PlacementSnapshot>,
        tracer: &mut dyn Tracer,
        cycle_base: u64,
    ) -> Result<SessionStatus, ProgramError> {
        let region = req.region;
        if !region.fits(self.cfg.rows, self.cfg.cols) {
            // The region itself does not sit on this grid; report the
            // corner that sticks out (or (0,0) for an empty region).
            return Err(ProgramError::OutOfGrid(Coord::new(
                region.end_row().saturating_sub(1),
                region.cols.saturating_sub(1),
            )));
        }
        prog.validate(region.dims())?;
        tracer.span_begin(Subsystem::Accelerator, "accel.execute", cycle_base);

        let n = prog.nodes.len();
        let tiles = prog.tiles.max(1);
        let rows_per_tile = prog.rows_per_tile();

        let mut counters;
        let mut activity;
        let mut fabric;
        let mut tile_states: Vec<TileState>;
        let mut total_iters;
        let mut last_iter_tile;
        let xlen;
        let start_cycles;

        if let Some(snap) = resume {
            // Continue exactly where the freeze left off: architectural
            // state, timing cursors, and booking counters all come from
            // the snapshot; only the region placement is fresh.
            counters = snap.counters.clone();
            activity = snap.activity;
            let mut lanes = vec![0u64; self.cfg.rows];
            for (i, &v) in snap.lane_requests.iter().enumerate() {
                if let Some(slot) = lanes.get_mut(region.first_row + i) {
                    *slot = v;
                }
            }
            fabric = Fabric {
                port_requests: snap.port_requests,
                port_count: self.cfg.mem_ports.clamp(1, 1 << 20) as u64,
                lane_requests: lanes,
                bus_requests: snap.bus_requests,
                bus_drop_period: req.faults.bus_drop_period,
                bus_drops: snap.bus_drops,
            };
            tile_states = snap
                .tile_states
                .iter()
                .map(|t| TileState {
                    entry_regs: t.entry_regs.clone(),
                    prev_value: t.prev_value.clone(),
                    prev_complete: t.prev_complete.clone(),
                    iters: t.iters,
                    last_complete: t.last_complete,
                    running: t.running,
                    last_store_start: t.last_store_start,
                })
                .collect();
            total_iters = snap.total_iters;
            last_iter_tile = snap.last_iter_tile;
            xlen = snap.xlen;
            start_cycles = snap.cycles();
        } else {
            counters = PerfCounters::new(n);
            activity = ActivityStats::default();
            fabric = Fabric {
                port_requests: 0,
                port_count: self.cfg.mem_ports.clamp(1, 1 << 20) as u64,
                lane_requests: vec![0; self.cfg.rows],
                bus_requests: 0,
                bus_drop_period: req.faults.bus_drop_period,
                bus_drops: 0,
            };
            // Per-tile state with induction offsets.
            tile_states = (0..tiles)
                .map(|t| {
                    let mut regs: Vec<u64> = (0..Reg::COUNT)
                        .map(|i| entry.read(Reg::from_flat_index(i)))
                        .collect();
                    if t > 0 {
                        for node in &prog.nodes {
                            if node.scale_imm_by_tiles {
                                if let Some(rd) = node.instr.dest() {
                                    let v = regs[rd.flat_index()];
                                    // i128 keeps tile-count × immediate exact
                                    // before the architectural wrap to u64.
                                    regs[rd.flat_index()] = v.wrapping_add(
                                        (t as i128 * i128::from(node.instr.imm)) as u64,
                                    );
                                }
                            }
                        }
                    }
                    TileState {
                        entry_regs: regs,
                        prev_value: vec![0; n],
                        prev_complete: vec![0; n],
                        iters: 0,
                        last_complete: 0,
                        running: true,
                        last_store_start: 0,
                    }
                })
                .collect();
            total_iters = 0u64;
            last_iter_tile = 0usize; // tile that ran the globally-last iteration
            xlen = entry.xlen;
            start_cycles = 0;
        }
        let unlimited_ports = self.cfg.mem_ports >= usize::MAX / 2;
        let mut scratch = IterScratch::new(n);

        // Static per-tile node plans (coords, routes, lowered tile-scaled
        // ops): resolved once here, reused every iteration. The
        // region offset shifts every placement into the owned row band.
        let plans: Vec<Vec<NodePlan>> = (0..tiles)
            .map(|t| {
                let row_offset = region.first_row + t * rows_per_tile;
                prog.nodes
                    .iter()
                    .map(|node| self.plan_node(prog, node, row_offset, tiles, xlen))
                    .collect()
            })
            .collect();

        let mut paused = false;
        loop {
            // The iteration budget is checked at *round* boundaries only:
            // within one round every running tile executes exactly one
            // iteration, so the set of executed global iterations stays
            // contiguous (0..N) and the controller can resume a paused
            // tiled region from architectural state alone.
            if total_iters >= req.max_iterations {
                break;
            }
            // The pause request shares the boundary: "freeze at cycle c"
            // means the first round boundary whose session clock reached c.
            if let Some(p) = req.pause_at_cycle {
                let clock = tile_states.iter().map(|t| t.last_complete).max().unwrap_or(0);
                if clock >= p && tile_states.iter().any(|t| t.running) {
                    paused = true;
                    break;
                }
            }
            let mut any = false;
            for (t, tile_state) in tile_states.iter_mut().enumerate().take(tiles) {
                if !tile_state.running {
                    continue;
                }
                any = true;
                self.run_iteration(
                    prog,
                    tile_state,
                    &plans[t],
                    &mut fabric,
                    mem,
                    req.requester,
                    unlimited_ports,
                    &mut counters,
                    &mut activity,
                    &mut scratch,
                );
                total_iters += 1;
                last_iter_tile = t;
            }
            if !any {
                break;
            }
        }

        let cycles = tile_states.iter().map(|t| t.last_complete).max().unwrap_or(0);
        if tracer.enabled() {
            // `cycles` is the session clock (cumulative across resumes);
            // the episode timeline advances only by this call's share.
            let end = cycle_base + (cycles - start_cycles);
            tracer.counter(Subsystem::Accelerator, "accel.iterations", total_iters, end);
            tracer.counter(
                Subsystem::Accelerator,
                "accel.pe_busy_cycles",
                activity.pe_busy_cycles,
                end,
            );
            tracer.span_end(Subsystem::Accelerator, "accel.execute", end);
        }

        if paused {
            let snap = PlacementSnapshot {
                fingerprint: prog.fingerprint(),
                xlen,
                nodes: n,
                tiles,
                region_rows: region.rows,
                bus_drop_period: req.faults.bus_drop_period,
                total_iters,
                last_iter_tile,
                port_requests: fabric.port_requests,
                bus_requests: fabric.bus_requests,
                bus_drops: fabric.bus_drops,
                lane_requests: fabric
                    .lane_requests
                    .get(region.first_row..region.end_row())
                    .map(<[u64]>::to_vec)
                    .unwrap_or_default(),
                tile_states: tile_states
                    .into_iter()
                    .map(|t| TileSnap {
                        entry_regs: t.entry_regs,
                        prev_value: t.prev_value,
                        prev_complete: t.prev_complete,
                        iters: t.iters,
                        last_complete: t.last_complete,
                        running: t.running,
                        last_store_start: t.last_store_start,
                    })
                    .collect(),
                counters,
                activity,
            };
            return Ok(SessionStatus::Paused(Box::new(snap)));
        }

        let completed = tile_states.iter().all(|t| !t.running);
        let last = &tile_states[last_iter_tile];
        let final_regs = prog
            .live_out
            .iter()
            .map(|&(reg, node)| (reg, last.prev_value[node as usize]))
            .collect();
        Ok(SessionStatus::Completed(AccelRunResult {
            iterations: total_iters,
            cycles,
            counters,
            activity,
            final_regs,
            completed,
            faults: FaultLog { bus_tokens_dropped: fabric.bus_drops, ..FaultLog::default() },
        }))
    }

    /// Builds one operand's static plan for a tile (flat register indices
    /// and the route the transfer will take).
    fn plan_operand(
        &self,
        prog: &AccelProgram,
        op: &Operand,
        consumer: Option<Coord>,
        row_offset: usize,
    ) -> OpPlan {
        match *op {
            Operand::None => OpPlan::None,
            Operand::InitReg(r) => OpPlan::InitReg(r.flat_index()),
            Operand::Node { idx, carried, via } => {
                let producer = prog.nodes[idx as usize]
                    .coord
                    .map(|c| Coord::new(c.row + row_offset, c.col));
                let route = match (producer, consumer) {
                    (Some(a), Some(b)) => {
                        if a == b {
                            Route::Same
                        } else if self.model.is_local(a, b) {
                            Route::Local(self.model.transfer_latency(a, b))
                        } else {
                            Route::Noc { row: a.row, lat: self.model.transfer_latency(a, b) }
                        }
                    }
                    _ => Route::Bus(self.cfg.fallback_bus_latency),
                };
                OpPlan::Node { idx: idx as usize, carried, via: via.flat_index(), route }
            }
        }
    }

    /// Builds one node's static plan for a tile.
    fn plan_node(
        &self,
        prog: &AccelProgram,
        node: &NodeConfig,
        row_offset: usize,
        tiles: usize,
        xlen: Xlen,
    ) -> NodePlan {
        let consumer = node.coord.map(|c| Coord::new(c.row + row_offset, c.col));
        let mut effective = node.instr;
        if node.scale_imm_by_tiles && tiles > 1 {
            effective.imm = node.instr.imm.wrapping_mul(tiles as i64);
        }
        NodePlan {
            op: PureOp::lower(&effective, xlen),
            class: node.instr.class(),
            inputs: [
                self.plan_operand(prog, &node.inputs[0], consumer, row_offset),
                self.plan_operand(prog, &node.inputs[1], consumer, row_offset),
            ],
            hidden: self.plan_operand(prog, &node.hidden, consumer, row_offset),
            mem_width: effective.op.mem_width().unwrap_or(0),
            sign_extend: effective.op.load_sign_extends(),
            base_latency: effective.op.base_latency(),
        }
    }

    /// Runs one iteration of one tile. See the module docs for the timing
    /// rules.
    #[allow(clippy::too_many_arguments)]
    fn run_iteration(
        &self,
        prog: &AccelProgram,
        tile: &mut TileState,
        plans: &[NodePlan],
        fabric: &mut Fabric,
        mem: &mut MemorySystem,
        requester: usize,
        unlimited_ports: bool,
        counters: &mut PerfCounters,
        activity: &mut ActivityStats,
        scratch: &mut IterScratch,
    ) {
        let first_iter = tile.iters == 0;
        // Barrier semantics: without pipelining, iteration k+1 begins after
        // iteration k fully completes.
        let base = if prog.pipelined { 0 } else { tile.last_complete };

        scratch.reset();
        let IterScratch { cur_value, cur_complete, branch_taken, stores_seen } = scratch;
        let mut iteration_complete = 0u64;

        for (i, node) in prog.nodes.iter().enumerate() {
            let plan = &plans[i];

            // ---- predication ----
            let disabled = node.guards.iter().any(|&g| branch_taken[g as usize]);
            if disabled {
                let (hv, hready, _) = resolve_operand(
                    &plan.hidden, tile, cur_value, cur_complete, base, first_iter, fabric,
                    activity,
                );
                cur_value[i] = hv;
                cur_complete[i] = hready + 1; // mux pass-through
                activity.disabled_fires += 1;
                iteration_complete = iteration_complete.max(cur_complete[i]);
                continue;
            }

            // ---- operands ----
            let (v1, r1) = match plan.inputs[0] {
                OpPlan::None => (0, base),
                ref op => {
                    let (v, r, transfer) = resolve_operand(
                        op, tile, cur_value, cur_complete, base, first_iter, fabric, activity,
                    );
                    counters.nodes[i].total_in_cycles[0] += transfer;
                    counters.nodes[i].in_samples[0] += 1;
                    (v, r)
                }
            };
            let (v2, r2) = match plan.inputs[1] {
                OpPlan::None => (0, base),
                ref op => {
                    let (v, r, transfer) = resolve_operand(
                        op, tile, cur_value, cur_complete, base, first_iter, fabric, activity,
                    );
                    counters.nodes[i].total_in_cycles[1] += transfer;
                    counters.nodes[i].in_samples[1] += 1;
                    (v, r)
                }
            };
            let ready = r1.max(r2).max(base);

            // ---- execute ----
            let complete = match plan.class {
                OpClass::Load => self.do_load(
                    i, node, plan, v1, ready, fabric, mem, requester, unlimited_ports, first_iter,
                    stores_seen, cur_complete, activity, cur_value,
                ),
                OpClass::Store => {
                    let addr = v1.wrapping_add(plan.op.imm() as u64);
                    let width = plan.mem_width;
                    // Program-order store commit (the LDFG keeps ordering).
                    let mut start = ready.max(tile.last_store_start + 1);
                    if !unlimited_ports {
                        start = fabric.book_port(start);
                    }
                    tile.last_store_start = start;
                    mem.data_mut().store(addr, width, v2);
                    mem.access(requester, addr, true, start);
                    activity.stores += 1;
                    stores_seen.push((i, addr, width, start + 1));
                    start + 1
                }
                OpClass::Branch => {
                    let taken = plan.op.taken(v1, v2);
                    branch_taken[i] = taken;
                    activity.int_ops += 1;
                    activity.pe_busy_cycles += 1;
                    ready + 1
                }
                _ => {
                    cur_value[i] = plan.op.eval(v1, v2);
                    let lat = plan.base_latency;
                    if plan.class.needs_fp() {
                        activity.fp_ops += 1;
                    } else {
                        activity.int_ops += 1;
                    }
                    activity.pe_busy_cycles += lat;
                    ready + lat
                }
            };

            cur_complete[i] = complete;
            counters.nodes[i].fires += 1;
            counters.nodes[i].total_op_cycles += complete - ready;
            iteration_complete = iteration_complete.max(complete);
        }

        // ---- loop decision ----
        let taken = branch_taken[prog.loop_branch as usize];
        tile.iters += 1;
        tile.last_complete = iteration_complete;
        // Hand the freshly computed buffers to the tile and take its old
        // ones as next iteration's scratch (reset before reuse).
        std::mem::swap(&mut tile.prev_value, cur_value);
        std::mem::swap(&mut tile.prev_complete, cur_complete);
        if !taken {
            tile.running = false;
        }
    }

    /// Executes a load node: forwarding, vector piggyback, prefetch, port
    /// arbitration, and conflict invalidation.
    #[allow(clippy::too_many_arguments)]
    fn do_load(
        &self,
        i: usize,
        node: &NodeConfig,
        plan: &NodePlan,
        base_value: u64,
        ready: u64,
        fabric: &mut Fabric,
        mem: &mut MemorySystem,
        requester: usize,
        unlimited_ports: bool,
        first_iter: bool,
        stores_seen: &[(usize, u64, u8, u64)],
        cur_complete: &[u64],
        activity: &mut ActivityStats,
        cur_value: &mut [u64],
    ) -> u64 {
        let addr = base_value.wrapping_add(plan.op.imm() as u64);
        let width = plan.mem_width;

        // Functional value (stores earlier in program order already applied).
        cur_value[i] = extend_load(mem.data_mut().load(addr, width), width, plan.sign_extend);
        activity.loads += 1;

        // Static store→load forwarding edge (§4.2).
        if let Some(s) = node.forwarded_from {
            if let Some(&(_, saddr, _, scomplete)) =
                stores_seen.iter().find(|&&(si, ..)| si == s as usize)
            {
                if saddr == addr {
                    activity.forwards += 1;
                    return ready.max(scomplete) + 1;
                }
            }
        }

        // Vector piggyback: the head's wide access already brought the line.
        if let Some(h) = node.vector_head {
            if (h as usize) < i {
                activity.vector_piggybacks += 1;
                return ready.max(cur_complete[h as usize]) + 1;
            }
        }

        // Normal port access.
        let (start, latency) = if unlimited_ports {
            let acc = mem.access(requester, addr, false, ready);
            (ready, acc.total)
        } else {
            let start = fabric.book_port(ready);
            let acc = mem.access(requester, addr, false, start);
            (start, acc.total)
        };
        let latency = if node.prefetched && !first_iter {
            // The line was prefetched an iteration ahead: steady state is a
            // hit.
            activity.prefetch_hits += 1;
            latency.min(mem.config().l1.hit_latency)
        } else {
            latency
        };
        let mut complete = start + latency;

        // Dynamic conflict: an earlier (program-order) store to an
        // overlapping address whose data resolved after our start
        // invalidates this load (§4.2); redo after the store.
        for &(si, saddr, swidth, scomplete) in stores_seen {
            if node.forwarded_from == Some(si as u32) {
                continue; // already handled as a forward
            }
            // u128 range ends: an access near u64::MAX must not wrap (a
            // wild pointer is reachable from any malformed DFG).
            let overlap = u128::from(saddr) < u128::from(addr) + u128::from(width)
                && u128::from(addr) < u128::from(saddr) + u128::from(swidth);
            if overlap && scomplete > start {
                activity.violations += 1;
                complete = complete.max(scomplete + VIOLATION_REDO);
            }
        }
        complete
    }

}

#[cfg(test)]
mod tests {
    use super::*;
    use mesa_isa::{Instruction, Opcode};
    use mesa_isa::reg::abi::*;
    use mesa_mem::MemConfig;

    fn node(pc: u64, instr: Instruction, coord: (usize, usize), inputs: [Operand; 2]) -> NodeConfig {
        NodeConfig::new(pc, instr, Some(Coord::new(coord.0, coord.1)), inputs)
    }

    /// t0 += 1; bne t0, a1, loop — counts from 0 to a1.
    fn counter_loop(bound: u64) -> (AccelProgram, ArchState) {
        let add = node(
            0x1000,
            Instruction::reg_imm(Opcode::Addi, T0, T0, 1),
            (0, 0),
            [Operand::Node { idx: 0, carried: true, via: T0 }, Operand::None],
        );
        let bne = node(
            0x1004,
            Instruction::branch(Opcode::Bne, T0, A1, -4),
            (0, 1),
            [
                Operand::Node { idx: 0, carried: false, via: T0 },
                Operand::InitReg(A1),
            ],
        );
        let prog = AccelProgram {
            start_pc: 0x1000,
            end_pc: 0x1008,
            nodes: vec![add, bne],
            loop_branch: 1,
            live_out: vec![(T0, 0)],
            tiles: 1,
            pipelined: false,
        };
        let mut st = ArchState::new(0x1000, Xlen::Rv32);
        st.write(A1, bound);
        (prog, st)
    }

    #[test]
    fn counter_loop_runs_exact_iterations() {
        let (prog, entry) = counter_loop(10);
        let accel = SpatialAccelerator::new(AccelConfig::m128());
        let mut mem = MemorySystem::new(MemConfig::default(), 1);
        let r = accel.execute(&prog, &entry, &mut mem, 0, 1_000).unwrap();
        assert!(r.completed);
        assert_eq!(r.iterations, 10);
        assert_eq!(r.final_regs, vec![(T0, 10)]);
        assert!(r.cycles > 0);
    }

    #[test]
    fn iteration_cap_stops_runaway() {
        let (prog, entry) = counter_loop(1_000_000);
        let accel = SpatialAccelerator::new(AccelConfig::m128());
        let mut mem = MemorySystem::new(MemConfig::default(), 1);
        let r = accel.execute(&prog, &entry, &mut mem, 0, 50).unwrap();
        assert!(!r.completed);
        assert_eq!(r.iterations, 50);
    }

    /// sum loop with memory: t1 += mem[a0]; a0 += 4; bne a0, a1.
    fn sum_loop() -> (AccelProgram, ArchState) {
        let lw = node(
            0x1000,
            Instruction::load(Opcode::Lw, T0, A0, 0),
            (0, 0),
            [Operand::Node { idx: 2, carried: true, via: A0 }, Operand::None],
        );
        let add = node(
            0x1004,
            Instruction::reg3(Opcode::Add, T1, T1, T0),
            (0, 1),
            [
                Operand::Node { idx: 1, carried: true, via: T1 },
                Operand::Node { idx: 0, carried: false, via: T0 },
            ],
        );
        let addi = node(
            0x1008,
            Instruction::reg_imm(Opcode::Addi, A0, A0, 4),
            (1, 0),
            [Operand::Node { idx: 2, carried: true, via: A0 }, Operand::None],
        );
        let bne = node(
            0x100C,
            Instruction::branch(Opcode::Bne, A0, A1, -12),
            (1, 1),
            [
                Operand::Node { idx: 2, carried: false, via: A0 },
                Operand::InitReg(A1),
            ],
        );
        let prog = AccelProgram {
            start_pc: 0x1000,
            end_pc: 0x1010,
            nodes: vec![lw, add, addi, bne],
            loop_branch: 3,
            live_out: vec![(T1, 1), (A0, 2)],
            tiles: 1,
            pipelined: false,
        };
        let mut st = ArchState::new(0x1000, Xlen::Rv32);
        st.write(A0, 0x10000);
        st.write(A1, 0x10000 + 4 * 16);
        (prog, st)
    }

    #[test]
    fn sum_loop_computes_correct_value() {
        let (prog, entry) = sum_loop();
        let accel = SpatialAccelerator::new(AccelConfig::m128());
        let mut mem = MemorySystem::new(MemConfig::default(), 1);
        for i in 0..16u64 {
            mem.data_mut().store_u32(0x10000 + 4 * i, (i + 1) as u32);
        }
        let r = accel.execute(&prog, &entry, &mut mem, 0, 1_000).unwrap();
        assert!(r.completed);
        assert_eq!(r.iterations, 16);
        let sum = r.final_regs.iter().find(|(r, _)| *r == T1).unwrap().1;
        assert_eq!(sum, 136); // 1+2+…+16
        let a0 = r.final_regs.iter().find(|(r, _)| *r == A0).unwrap().1;
        assert_eq!(a0, 0x10000 + 64);
        assert_eq!(r.activity.loads, 16);
    }

    #[test]
    fn pipelining_reduces_cycles() {
        let (mut prog, entry) = sum_loop();
        let accel = SpatialAccelerator::new(AccelConfig::m128());

        let mut mem = MemorySystem::new(MemConfig::default(), 1);
        let plain = accel.execute(&prog, &entry, &mut mem, 0, 10_000).unwrap();

        prog.pipelined = true;
        let mut mem = MemorySystem::new(MemConfig::default(), 1);
        let piped = accel.execute(&prog, &entry, &mut mem, 0, 10_000).unwrap();

        assert_eq!(plain.iterations, piped.iterations);
        assert!(
            piped.cycles < plain.cycles,
            "pipelined {} should beat barrier {}",
            piped.cycles,
            plain.cycles
        );
    }

    #[test]
    fn tiling_splits_iterations_and_speeds_up() {
        // Independent-iteration loop: mem[a0] = t0 (store-only), induction a0.
        let store = node(
            0x1000,
            Instruction::store(Opcode::Sw, T2, A0, 0),
            (0, 0),
            [
                Operand::Node { idx: 1, carried: true, via: A0 },
                Operand::InitReg(T2),
            ],
        );
        let mut addi = node(
            0x1004,
            Instruction::reg_imm(Opcode::Addi, A0, A0, 4),
            (0, 1),
            [Operand::Node { idx: 1, carried: true, via: A0 }, Operand::None],
        );
        addi.scale_imm_by_tiles = true;
        let bne = node(
            0x1008,
            Instruction::branch(Opcode::Bltu, A0, A1, -8),
            (1, 0),
            [
                Operand::Node { idx: 1, carried: false, via: A0 },
                Operand::InitReg(A1),
            ],
        );
        let mut prog = AccelProgram {
            start_pc: 0x1000,
            end_pc: 0x100C,
            nodes: vec![store, addi, bne],
            loop_branch: 2,
            live_out: vec![],
            tiles: 1,
            pipelined: false,
        };
        let mut entry = ArchState::new(0x1000, Xlen::Rv32);
        entry.write(A0, 0x20000);
        entry.write(A1, 0x20000 + 4 * 64);
        entry.write(T2, 7);

        let accel = SpatialAccelerator::new(AccelConfig::m128());
        let mut mem = MemorySystem::new(MemConfig::default(), 1);
        let serial = accel.execute(&prog, &entry, &mut mem, 0, 10_000).unwrap();
        assert_eq!(serial.iterations, 64);

        prog.tiles = 4;
        let mut mem = MemorySystem::new(MemConfig::default(), 1);
        let tiled = accel.execute(&prog, &entry, &mut mem, 0, 10_000).unwrap();
        assert_eq!(tiled.iterations, 64, "all iterations covered across tiles");
        assert!(
            tiled.cycles < serial.cycles,
            "tiled {} should beat serial {}",
            tiled.cycles,
            serial.cycles
        );
        // Every address was written.
        for i in 0..64u64 {
            assert_eq!(mem.data_mut().load_u32(0x20000 + 4 * i), 7, "slot {i}");
        }
    }

    #[test]
    fn forward_branch_predication_passes_old_value() {
        // if (t0 < t1) t2 = t2 + 5; t0 += 1; loop  — with t0 starting past
        // t1 the add is always skipped, so t2 keeps its initial value.
        let cmp = node(
            0x1000,
            Instruction::branch(Opcode::Bge, T0, T1, 8), // skip next when t0>=t1
            (0, 0),
            [
                Operand::Node { idx: 2, carried: true, via: T0 },
                Operand::InitReg(T1),
            ],
        );
        let mut add = node(
            0x1004,
            Instruction::reg_imm(Opcode::Addi, T2, T2, 5),
            (0, 1),
            [Operand::Node { idx: 1, carried: true, via: T2 }, Operand::None],
        );
        add.guards = vec![0];
        add.hidden = Operand::Node { idx: 1, carried: true, via: T2 };
        let addi = node(
            0x1008,
            Instruction::reg_imm(Opcode::Addi, T0, T0, 1),
            (1, 0),
            [Operand::Node { idx: 2, carried: true, via: T0 }, Operand::None],
        );
        let bne = node(
            0x100C,
            Instruction::branch(Opcode::Bne, T0, A1, -12),
            (1, 1),
            [
                Operand::Node { idx: 2, carried: false, via: T0 },
                Operand::InitReg(A1),
            ],
        );
        let prog = AccelProgram {
            start_pc: 0x1000,
            end_pc: 0x1010,
            nodes: vec![cmp, add, addi, bne],
            loop_branch: 3,
            live_out: vec![(T2, 1)],
            tiles: 1,
            pipelined: false,
        };
        let mut entry = ArchState::new(0x1000, Xlen::Rv32);
        entry.write(T0, 10);
        entry.write(T1, 10); // t0 >= t1 from the start: always skip
        entry.write(T2, 99);
        entry.write(A1, 14); // 4 iterations

        let accel = SpatialAccelerator::new(AccelConfig::m128());
        let mut mem = MemorySystem::new(MemConfig::default(), 1);
        let r = accel.execute(&prog, &entry, &mut mem, 0, 100).unwrap();
        assert_eq!(r.iterations, 4);
        assert_eq!(r.activity.disabled_fires, 4);
        let t2 = r.final_regs.iter().find(|(r, _)| *r == T2).unwrap().1;
        assert_eq!(t2, 99, "skipped add must forward the old value");
    }

    #[test]
    fn predication_enabled_path_computes() {
        // Same region but with t0 < t1 for the first 3 iterations.
        let cmp = node(
            0x1000,
            Instruction::branch(Opcode::Bge, T0, T1, 8),
            (0, 0),
            [
                Operand::Node { idx: 2, carried: true, via: T0 },
                Operand::InitReg(T1),
            ],
        );
        let mut add = node(
            0x1004,
            Instruction::reg_imm(Opcode::Addi, T2, T2, 5),
            (0, 1),
            [Operand::Node { idx: 1, carried: true, via: T2 }, Operand::None],
        );
        add.guards = vec![0];
        add.hidden = Operand::Node { idx: 1, carried: true, via: T2 };
        let addi = node(
            0x1008,
            Instruction::reg_imm(Opcode::Addi, T0, T0, 1),
            (1, 0),
            [Operand::Node { idx: 2, carried: true, via: T0 }, Operand::None],
        );
        let bne = node(
            0x100C,
            Instruction::branch(Opcode::Bne, T0, A1, -12),
            (1, 1),
            [
                Operand::Node { idx: 2, carried: false, via: T0 },
                Operand::InitReg(A1),
            ],
        );
        let prog = AccelProgram {
            start_pc: 0x1000,
            end_pc: 0x1010,
            nodes: vec![cmp, add, addi, bne],
            loop_branch: 3,
            live_out: vec![(T2, 1)],
            tiles: 1,
            pipelined: false,
        };
        let mut entry = ArchState::new(0x1000, Xlen::Rv32);
        entry.write(T0, 0);
        entry.write(T1, 3); // enabled for t0 = 0,1,2
        entry.write(T2, 0);
        entry.write(A1, 5); // 5 iterations

        let accel = SpatialAccelerator::new(AccelConfig::m128());
        let mut mem = MemorySystem::new(MemConfig::default(), 1);
        let r = accel.execute(&prog, &entry, &mut mem, 0, 100).unwrap();
        assert_eq!(r.iterations, 5);
        let t2 = r.final_regs.iter().find(|(r, _)| *r == T2).unwrap().1;
        assert_eq!(t2, 15, "three enabled adds of 5");
        assert_eq!(r.activity.disabled_fires, 2);
    }

    #[test]
    fn store_load_forwarding_skips_cache() {
        // store t2 -> [a0]; load t0 <- [a0] (forwarded); t0 into sum.
        let store = node(
            0x1000,
            Instruction::store(Opcode::Sw, T2, A0, 0),
            (0, 0),
            [Operand::InitReg(A0), Operand::InitReg(T2)],
        );
        let mut load = node(
            0x1004,
            Instruction::load(Opcode::Lw, T0, A0, 0),
            (0, 1),
            [Operand::InitReg(A0), Operand::None],
        );
        load.forwarded_from = Some(0);
        let addi = node(
            0x1008,
            Instruction::reg_imm(Opcode::Addi, T1, T1, 1),
            (1, 0),
            [Operand::Node { idx: 2, carried: true, via: T1 }, Operand::None],
        );
        let bne = node(
            0x100C,
            Instruction::branch(Opcode::Bne, T1, A1, -12),
            (1, 1),
            [
                Operand::Node { idx: 2, carried: false, via: T1 },
                Operand::InitReg(A1),
            ],
        );
        let prog = AccelProgram {
            start_pc: 0x1000,
            end_pc: 0x1010,
            nodes: vec![store, load, addi, bne],
            loop_branch: 3,
            live_out: vec![],
            tiles: 1,
            pipelined: false,
        };
        let mut entry = ArchState::new(0x1000, Xlen::Rv32);
        entry.write(A0, 0x30000);
        entry.write(T2, 42);
        entry.write(A1, 8);

        let accel = SpatialAccelerator::new(AccelConfig::m128());
        let mut mem = MemorySystem::new(MemConfig::default(), 1);
        let r = accel.execute(&prog, &entry, &mut mem, 0, 100).unwrap();
        assert_eq!(r.activity.forwards, 8, "every iteration forwards");
        assert_eq!(mem.data_mut().load_u32(0x30000), 42);
    }

    #[test]
    fn unplaced_node_uses_fallback_bus() {
        let (mut prog, entry) = counter_loop(4);
        prog.nodes[0].coord = None; // force the fallback path
        let accel = SpatialAccelerator::new(AccelConfig::m128());
        let mut mem = MemorySystem::new(MemConfig::default(), 1);
        let r = accel.execute(&prog, &entry, &mut mem, 0, 100).unwrap();
        assert!(r.activity.fallback_transfers > 0);
        assert_eq!(r.final_regs, vec![(T0, 4)]);

        // And it is slower than the fully-placed version.
        let (placed, entry2) = counter_loop(4);
        let mut mem2 = MemorySystem::new(MemConfig::default(), 1);
        let r2 = accel.execute(&placed, &entry2, &mut mem2, 0, 100).unwrap();
        assert!(r.cycles > r2.cycles);
    }

    #[test]
    fn prefetch_hides_latency_after_first_iteration() {
        let (mut prog, entry) = sum_loop();
        let accel = SpatialAccelerator::new(AccelConfig::m128());
        let mut mem = MemorySystem::new(MemConfig::default(), 1);
        let plain = accel.execute(&prog, &entry, &mut mem, 0, 10_000).unwrap();

        prog.nodes[0].prefetched = true;
        let mut mem = MemorySystem::new(MemConfig::default(), 1);
        let pf = accel.execute(&prog, &entry, &mut mem, 0, 10_000).unwrap();
        assert!(pf.activity.prefetch_hits > 0);
        assert!(pf.cycles <= plain.cycles);
    }

    #[test]
    fn perf_counters_report_latencies() {
        let (prog, entry) = sum_loop();
        let accel = SpatialAccelerator::new(AccelConfig::m128());
        let mut mem = MemorySystem::new(MemConfig::default(), 1);
        let r = accel.execute(&prog, &entry, &mut mem, 0, 10_000).unwrap();
        // Node 0 is the load: it fired 16 times and its op latency reflects
        // memory time (≥ L1 hit latency).
        let load_ctr = &r.counters.nodes[0];
        assert_eq!(load_ctr.fires, 16);
        assert!(load_ctr.avg_op().unwrap() >= 3);
        // The add saw a transfer on its second input.
        assert!(r.counters.nodes[1].in_samples[1] > 0);
    }

    /// Fills the sum-loop input array.
    fn sum_loop_mem() -> MemorySystem {
        let mut mem = MemorySystem::new(MemConfig::default(), 1);
        for i in 0..16u64 {
            mem.data_mut().store_u32(0x10000 + 4 * i, (7 * i + 3) as u32);
        }
        mem
    }

    fn session_req<'a>(faults: &'a FaultPlan, region: Region, pause: Option<u64>) -> SessionRequest<'a> {
        SessionRequest { requester: 0, max_iterations: 10_000, faults, region, pause_at_cycle: pause }
    }

    fn expect_full_equality(a: &AccelRunResult, b: &AccelRunResult) {
        assert_eq!(a.iterations, b.iterations);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.final_regs, b.final_regs);
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.activity, b.activity);
        assert_eq!(a.faults, b.faults);
    }

    #[test]
    fn pause_resume_in_place_is_bit_identical_to_uninterrupted() {
        let (prog, entry) = sum_loop();
        let accel = SpatialAccelerator::new(AccelConfig::m128());
        let none = FaultPlan::none();
        let mut mem = sum_loop_mem();
        let solo = accel.execute(&prog, &entry, &mut mem, 0, 10_000).unwrap();

        let region = Region::new(0, 4, 8);
        // A pause point the final round leaps over (the loop exits in the
        // same round) legitimately completes instead of pausing; early
        // points must genuinely freeze.
        for pause_at in [0, 1, solo.cycles / 2, solo.cycles - 1, solo.cycles + 10] {
            let mut mem = sum_loop_mem();
            let req = session_req(&none, region, Some(pause_at));
            let status = accel
                .run_session(&prog, &entry, &mut mem, &req, None, &mut NullTracer, 0)
                .unwrap();
            let resumed = match status {
                SessionStatus::Paused(snap) => {
                    let req = session_req(&none, region, None);
                    let status = accel
                        .run_session(&prog, &entry, &mut mem, &req, Some(&snap), &mut NullTracer, 0)
                        .unwrap();
                    let SessionStatus::Completed(r) = status else {
                        panic!("resume did not complete");
                    };
                    r
                }
                SessionStatus::Completed(r) => {
                    assert!(pause_at + 1 >= solo.cycles, "pause at {pause_at} did not pause");
                    r
                }
            };
            expect_full_equality(&solo, &resumed);
        }
    }

    #[test]
    fn migration_to_another_aligned_region_is_cycle_identical() {
        let (prog, entry) = sum_loop();
        let accel = SpatialAccelerator::new(AccelConfig::m128());
        let none = FaultPlan::none();
        let mut mem = sum_loop_mem();
        let solo = accel.execute(&prog, &entry, &mut mem, 0, 10_000).unwrap();

        // Freeze in the bottom band, thaw in every other aligned band: the
        // half-ring only sees relative coordinates, so even the cycle
        // totals and booking-counter-driven stats must match.
        for first_row in [4, 8, 12] {
            let mut mem = sum_loop_mem();
            let req = session_req(&none, Region::new(0, 4, 8), Some(solo.cycles / 2));
            let SessionStatus::Paused(snap) = accel
                .run_session(&prog, &entry, &mut mem, &req, None, &mut NullTracer, 0)
                .unwrap()
            else {
                panic!("did not pause");
            };
            let words = snap.to_words();
            let thawed = PlacementSnapshot::from_words(&words).unwrap();
            let req = session_req(&none, Region::new(first_row, 4, 8), None);
            let SessionStatus::Completed(migrated) = accel
                .run_session(&prog, &entry, &mut mem, &req, Some(&thawed), &mut NullTracer, 0)
                .unwrap()
            else {
                panic!("resume did not complete");
            };
            expect_full_equality(&solo, &migrated);
        }
    }

    #[test]
    fn session_rejects_region_outside_grid_and_foreign_snapshots() {
        let (prog, entry) = sum_loop();
        let accel = SpatialAccelerator::new(AccelConfig::m128());
        let none = FaultPlan::none();
        let mut mem = sum_loop_mem();

        // Region hangs off the 16-row grid.
        let req = session_req(&none, Region::new(16, 4, 8), None);
        let err = accel
            .run_session(&prog, &entry, &mut mem, &req, None, &mut NullTracer, 0)
            .unwrap_err();
        assert!(matches!(err, SessionError::Program(ProgramError::OutOfGrid(_))), "{err}");

        // A snapshot from a different program must be rejected up front.
        let req = session_req(&none, Region::new(0, 4, 8), Some(0));
        let SessionStatus::Paused(snap) = accel
            .run_session(&prog, &entry, &mut mem, &req, None, &mut NullTracer, 0)
            .unwrap()
        else {
            panic!("did not pause");
        };
        let (other, other_entry) = counter_loop(10);
        let req = session_req(&none, Region::new(0, 4, 8), None);
        let err = accel
            .run_session(&other, &other_entry, &mut mem, &req, Some(&snap), &mut NullTracer, 0)
            .unwrap_err();
        assert!(matches!(err, SessionError::Snapshot(SnapshotError::Mismatch { .. })), "{err}");
    }
}
