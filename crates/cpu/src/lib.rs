//! Out-of-order CPU timing model for the MESA reproduction.
//!
//! * [`OoOCore`] — a one-pass out-of-order timing model (scoreboarded
//!   dataflow over an exact functional execution) standing in for the
//!   paper's gem5/BOOM baseline core.
//! * [`Multicore`] — N cores over a shared banked L2, the 16-core baseline
//!   of Fig. 11.
//! * [`LoopStreamDetector`] / [`TraceCache`] — the CPU-side hardware
//!   additions MESA requires (paper §4.1): loop detection at decode and a
//!   region-scoped trace cache feeding the LDFG builder.
//! * [`RetireMonitor`] — the observation interface MESA's controller hangs
//!   off; every retired instruction is reported with its measured latency.
//!
//! # Example
//!
//! ```
//! use mesa_cpu::{CoreConfig, NullMonitor, OoOCore, RunLimits};
//! use mesa_isa::{ArchState, Asm, Xlen, reg::abi::*};
//! use mesa_mem::{MemConfig, MemorySystem};
//!
//! let mut a = Asm::new(0x1000);
//! a.li(T1, 64);
//! a.label("loop");
//! a.addi(T0, T0, 1);
//! a.bne(T0, T1, "loop");
//! let prog = a.finish()?;
//!
//! let mut core = OoOCore::new(CoreConfig::boom_baseline());
//! let mut state = ArchState::new(0x1000, Xlen::Rv32);
//! let mut mem = MemorySystem::new(MemConfig::default(), 1);
//! let r = core.run(&prog, &mut state, &mut mem, 0, RunLimits::none(), &mut NullMonitor);
//! assert_eq!(state.read(T0), 64);
//! assert!(r.ipc() > 0.5);
//! # Ok::<(), mesa_isa::AsmError>(())
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod frontend;
pub mod multicore;
pub mod ooo;
pub mod predictor;

pub use config::CoreConfig;
pub use frontend::{LoopCandidate, LoopStreamDetector, RegionTooLarge, TraceCache};
pub use multicore::{Multicore, MulticoreResult};
pub use ooo::{
    FusionCounts, NullMonitor, OoOCore, PipelineStats, RetireEvent, RetireMonitor, RunLimits,
    RunResult, StopReason,
};
pub use predictor::BranchPredictor;
