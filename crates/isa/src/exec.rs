//! Functional (untimed) semantics for the supported RISC-V subset.
//!
//! Both the CPU timing model and the spatial accelerator need *correct
//! values* in addition to timing: MESA's store→load forwarding,
//! invalidation-on-disambiguation, and predicated forward branches (paper
//! §4.2, §5.2) are all value-dependent. What each instruction computes is
//! defined once here — `op_value` for register results, `op_taken` for
//! branch conditions, [`extend_load`] for loaded values — and every
//! executor reads that one definition: the general [`step`] interpreter,
//! the CPU's predecoded [`step_flat`] path (a [`FusedOp`] pair is two
//! `step_flat` calls), and the accelerator's [`PureOp`]. The accelerator's
//! result can therefore be checked against the CPU's
//! instruction-by-instruction.

use crate::{Instruction, OpClass, Opcode, Reg};

/// Register width of the modelled hart.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Xlen {
    /// RV32 (the paper's main evaluation target, RV32IMF).
    #[default]
    Rv32,
    /// RV64 (RV64I support, as in the paper's hardware).
    Rv64,
}

/// Memory seen by the functional semantics.
///
/// Implemented by `mesa-mem`'s sparse memory; the trait lives here so `isa`
/// stays dependency-free. Functions take `&mut self` because real
/// implementations update replacement state on reads.
pub trait MemoryIo {
    /// Reads `width` bytes (1, 2, 4, or 8) little-endian at `addr`,
    /// zero-extended into the return value.
    fn load(&mut self, addr: u64, width: u8) -> u64;
    /// Writes the low `width` bytes of `value` little-endian at `addr`.
    fn store(&mut self, addr: u64, width: u8, value: u64);
}

/// Architectural state of one hart.
#[derive(Debug, Clone, PartialEq)]
pub struct ArchState {
    /// Program counter.
    pub pc: u64,
    /// Integer register file (`x0` is forced to zero on read).
    pub x: [u64; 32],
    /// FP register file as raw IEEE-754 single bits.
    pub f: [u32; 32],
    /// Register width.
    pub xlen: Xlen,
}

impl ArchState {
    /// Fresh state with all registers zero and `pc` at `entry`.
    #[must_use]
    pub fn new(entry: u64, xlen: Xlen) -> Self {
        ArchState { pc: entry, x: [0; 32], f: [0; 32], xlen }
    }

    /// Reads an architectural register (either file), as raw bits.
    #[must_use]
    pub fn read(&self, r: Reg) -> u64 {
        match r {
            Reg::X(0) => 0,
            Reg::X(n) => self.x[n as usize],
            Reg::F(n) => u64::from(self.f[n as usize]),
        }
    }

    /// Writes an architectural register (either file).
    ///
    /// Integer writes are canonicalized to the register width (RV32 values
    /// are stored sign-extended to 64 bits, matching hardware sign
    /// extension); writes to `x0` are discarded.
    pub fn write(&mut self, r: Reg, value: u64) {
        match r {
            Reg::X(0) => {}
            Reg::X(n) => {
                self.x[n as usize] = match self.xlen {
                    Xlen::Rv32 => (value as u32) as i32 as i64 as u64,
                    Xlen::Rv64 => value,
                }
            }
            Reg::F(n) => self.f[n as usize] = value as u32,
        }
    }

    /// Reads an FP register as an `f32`.
    #[must_use]
    pub fn read_f32(&self, n: u8) -> f32 {
        f32::from_bits(self.f[n as usize])
    }
}

/// A memory access performed by one step, reported for the timing models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// Effective byte address.
    pub addr: u64,
    /// Access width in bytes.
    pub width: u8,
    /// `true` for stores.
    pub is_store: bool,
}

/// Control-flow outcome of one step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Fall through to `pc + 4`.
    Next,
    /// Conditional branch; `taken` tells whether `target` was followed.
    Branch {
        /// Whether the branch condition held.
        taken: bool,
        /// Branch target (valid when `taken`).
        target: u64,
    },
    /// Unconditional jump to `target`.
    Jump {
        /// Jump target.
        target: u64,
    },
    /// `ecall` with `a7 == 93` (exit) or `ebreak`: the program is done.
    Halt,
    /// Any other `ecall`: an environment call the simulators treat as a
    /// slow, unaccelerable system operation.
    Syscall,
}

/// Everything the timing models need to know about one executed step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepInfo {
    /// Control-flow outcome; `state.pc` has already been advanced.
    pub outcome: Outcome,
    /// The memory access performed, if any.
    pub mem: Option<MemAccess>,
}

/// Executes one instruction, updating `state` (including `pc`).
///
/// The FP environment is simplified: round-to-nearest only, no exception
/// flags, and `fcvt.w.s` truncates toward zero — sufficient for the Rodinia
/// kernel semantics the evaluation uses. What each opcode computes is
/// `op_value` / `op_taken`; this function reads the operands, performs
/// the memory access, and advances the PC.
pub fn step<M: MemoryIo>(state: &mut ArchState, instr: &Instruction, mem: &mut M) -> StepInfo {
    use Opcode::*;
    let pc = state.pc;
    let rd = instr.rd;
    let rs1v = instr.rs1.map_or(0, |r| state.read(r));
    let rs2v = instr.rs2.map_or(0, |r| state.read(r));
    let imm = instr.imm;

    let mut outcome = Outcome::Next;
    let mut mem_access = None;

    let write_rd = |state: &mut ArchState, v: u64| {
        if let Some(r) = rd {
            state.write(r, v);
        }
    };

    match instr.op {
        Jal => {
            write_rd(state, op_value(Jal, state.xlen, pc, rs1v, rs2v, 0, imm));
            outcome = Outcome::Jump { target: pc.wrapping_add(imm as u64) };
        }
        Jalr => {
            let target = rs1v.wrapping_add(imm as u64) & !1;
            write_rd(state, op_value(Jalr, state.xlen, pc, rs1v, rs2v, 0, imm));
            outcome = Outcome::Jump { target };
        }
        Beq | Bne | Blt | Bge | Bltu | Bgeu => {
            let taken = op_taken(instr.op, state.xlen, rs1v, rs2v);
            outcome = Outcome::Branch { taken, target: pc.wrapping_add(imm as u64) };
        }
        Lb | Lh | Lw | Lbu | Lhu | Lwu | Ld | Flw => {
            let addr = rs1v.wrapping_add(imm as u64);
            let width = instr.op.mem_width().expect("load width");
            write_rd(state, extend_load(mem.load(addr, width), width, instr.op.load_sign_extends()));
            mem_access = Some(MemAccess { addr, width, is_store: false });
        }
        Sb | Sh | Sw | Sd | Fsw => {
            let addr = rs1v.wrapping_add(imm as u64);
            let width = instr.op.mem_width().expect("store width");
            mem.store(addr, width, rs2v);
            mem_access = Some(MemAccess { addr, width, is_store: true });
        }
        Fence => {}
        Ecall => {
            outcome = if state.read(Reg::X(17)) == 93 {
                Outcome::Halt
            } else {
                Outcome::Syscall
            };
        }
        Ebreak => outcome = Outcome::Halt,
        op => {
            let rs3v = instr.rs3.map_or(0, |r| state.read(r));
            write_rd(state, op_value(op, state.xlen, pc, rs1v, rs2v, rs3v, imm));
        }
    }

    state.pc = match outcome {
        Outcome::Next | Outcome::Syscall => pc.wrapping_add(4),
        Outcome::Branch { taken: true, target } | Outcome::Jump { target } => target,
        Outcome::Branch { taken: false, .. } => pc.wrapping_add(4),
        Outcome::Halt => pc,
    };

    StepInfo { outcome, mem: mem_access }
}

/// RV32 values compare and shift as their low word; RV64 as all 64 bits.
#[inline]
fn unsigned(xlen: Xlen, v: u64) -> u64 {
    match xlen {
        Xlen::Rv32 => u64::from(v as u32),
        Xlen::Rv64 => v,
    }
}

#[inline]
fn shamt_mask(xlen: Xlen) -> u32 {
    match xlen {
        Xlen::Rv32 => 31,
        Xlen::Rv64 => 63,
    }
}

/// The result bits `op` writes to its destination register — the one
/// definition of what every register-writing opcode computes, shared by
/// [`step`], the CPU's predecoded [`step_flat`] and the accelerator's
/// planned PE ops ([`PureOp`]).
///
/// `rs1v`/`rs2v`/`rs3v` are the source registers as [`ArchState::read`]
/// returns them (FP sources as their raw bits; absent sources as 0) and
/// `pc` is the instruction's address (AUIPC and the JAL/JALR link read
/// it). The result is pre-canonicalization: [`ArchState::write`] narrows
/// it to the destination's file and width. Opcodes that write no register
/// from their operands — branches, loads, stores and system ops — return
/// 0.
// Forced inline so the match in `step` and this one fold into a single
// dispatch: as a call it measurably slowed the CPU model.
#[inline(always)]
#[must_use]
pub(crate) fn op_value(op: Opcode, xlen: Xlen, pc: u64, rs1v: u64, rs2v: u64, rs3v: u64, imm: i64) -> u64 {
    use Opcode::*;
    let f1 = f32::from_bits(rs1v as u32);
    let f2 = f32::from_bits(rs2v as u32);
    let f3 = f32::from_bits(rs3v as u32);
    let wf = |v: f32| u64::from(v.to_bits());
    let u = |v: u64| unsigned(xlen, v);
    let sh = shamt_mask(xlen);
    match op {
        Lui => imm as u64,
        Auipc => pc.wrapping_add(imm as u64),
        Jal | Jalr => pc.wrapping_add(4),
        Addi => rs1v.wrapping_add(imm as u64),
        Slti => u64::from((rs1v as i64) < imm),
        Sltiu => u64::from(u(rs1v) < u(imm as u64)),
        Xori => rs1v ^ imm as u64,
        Ori => rs1v | imm as u64,
        Andi => rs1v & imm as u64,
        Slli => rs1v << (imm as u32 & sh),
        Srli => u(rs1v) >> (imm as u32 & sh),
        Srai => ((rs1v as i64) >> (imm as u32 & sh)) as u64,
        Add => rs1v.wrapping_add(rs2v),
        Sub => rs1v.wrapping_sub(rs2v),
        Sll => rs1v << (rs2v as u32 & sh),
        Slt => u64::from((rs1v as i64) < (rs2v as i64)),
        Sltu => u64::from(u(rs1v) < u(rs2v)),
        Xor => rs1v ^ rs2v,
        Srl => u(rs1v) >> (rs2v as u32 & sh),
        Sra => ((rs1v as i64) >> (rs2v as u32 & sh)) as u64,
        Or => rs1v | rs2v,
        And => rs1v & rs2v,
        Mul => rs1v.wrapping_mul(rs2v),
        Mulh => ((i128::from(rs1v as i64) * i128::from(rs2v as i64)) >> 64) as u64,
        Mulhsu => (i128::from(rs1v as i64).wrapping_mul(i128::from(rs2v)) >> 64) as u64,
        Mulhu => ((u128::from(rs1v) * u128::from(rs2v)) >> 64) as u64,
        Div => {
            let (a, b) = (rs1v as i64, rs2v as i64);
            (if b == 0 { -1 } else { a.wrapping_div(b) }) as u64
        }
        Divu => u(rs1v).checked_div(u(rs2v)).unwrap_or(u64::MAX),
        Rem => {
            let (a, b) = (rs1v as i64, rs2v as i64);
            (if b == 0 { a } else { a.wrapping_rem(b) }) as u64
        }
        Remu => {
            let (a, b) = (u(rs1v), u(rs2v));
            if b == 0 {
                a
            } else {
                a % b
            }
        }
        FaddS => wf(f1 + f2),
        FsubS => wf(f1 - f2),
        FmulS => wf(f1 * f2),
        FdivS => wf(f1 / f2),
        FsqrtS => wf(f1.sqrt()),
        FminS => wf(f1.min(f2)),
        FmaxS => wf(f1.max(f2)),
        FmaddS => wf(f1.mul_add(f2, f3)),
        FmsubS => wf(f1.mul_add(f2, -f3)),
        FnmaddS => wf((-f1).mul_add(f2, -f3)),
        FnmsubS => wf((-f1).mul_add(f2, f3)),
        FcvtWS => (f1 as i32) as u64,
        FcvtWuS => u64::from(f1 as u32),
        FcvtSW => wf(rs1v as i32 as f32),
        FcvtSWu => wf(rs1v as u32 as f32),
        FmvXW => (rs1v as u32) as i32 as i64 as u64,
        FmvWX => u64::from(rs1v as u32),
        FeqS => u64::from(f1 == f2),
        FltS => u64::from(f1 < f2),
        FleS => u64::from(f1 <= f2),
        FsgnjS => u64::from((f2.to_bits() & 0x8000_0000) | (f1.to_bits() & 0x7FFF_FFFF)),
        FsgnjnS => u64::from((!f2.to_bits() & 0x8000_0000) | (f1.to_bits() & 0x7FFF_FFFF)),
        FsgnjxS => u64::from(((f1.to_bits() ^ f2.to_bits()) & 0x8000_0000) | (f1.to_bits() & 0x7FFF_FFFF)),
        FclassS => u64::from(fclass(f1)),
        Addiw => (rs1v.wrapping_add(imm as u64) as i32) as i64 as u64,
        Slliw => ((rs1v as u32) << (imm as u32 & 31)) as i32 as i64 as u64,
        Srliw => ((rs1v as u32) >> (imm as u32 & 31)) as i32 as i64 as u64,
        Sraiw => ((rs1v as i32) >> (imm as u32 & 31)) as i64 as u64,
        Addw => (rs1v.wrapping_add(rs2v) as i32) as i64 as u64,
        Subw => (rs1v.wrapping_sub(rs2v) as i32) as i64 as u64,
        Sllw => ((rs1v as u32) << (rs2v as u32 & 31)) as i32 as i64 as u64,
        Srlw => ((rs1v as u32) >> (rs2v as u32 & 31)) as i32 as i64 as u64,
        Sraw => ((rs1v as i32) >> (rs2v as u32 & 31)) as i64 as u64,
        Beq | Bne | Blt | Bge | Bltu | Bgeu | Lb | Lh | Lw | Lbu | Lhu | Lwu | Ld | Flw | Sb
        | Sh | Sw | Sd | Fsw | Fence | Ecall | Ebreak => 0,
    }
}

/// Whether conditional branch `op` is taken on source values `rs1v`/`rs2v`
/// (as [`ArchState::read`] returns them). Any other opcode is not taken.
#[inline]
#[must_use]
pub(crate) fn op_taken(op: Opcode, xlen: Xlen, rs1v: u64, rs2v: u64) -> bool {
    use Opcode::*;
    match op {
        Beq => rs1v == rs2v,
        Bne => rs1v != rs2v,
        Blt => (rs1v as i64) < (rs2v as i64),
        Bge => (rs1v as i64) >= (rs2v as i64),
        Bltu => unsigned(xlen, rs1v) < unsigned(xlen, rs2v),
        Bgeu => unsigned(xlen, rs1v) >= unsigned(xlen, rs2v),
        _ => false,
    }
}

/// How one register slot of a [`PureOp`] carries a value: which of the
/// PE's two operand inputs it reads, and what [`ArchState::write`] followed
/// by [`ArchState::read`] make of a value in that register. Packed into one
/// byte of flags so a firing decodes it with selects, not branches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Feed(u8);

impl Feed {
    /// Reads the second input (`rs2`'s value) rather than the first.
    const SECOND: u8 = 1;
    /// Carries a value at all; without it the slot reads 0 (`x0`, no
    /// register, or a register staging never wrote).
    const LIVE: u8 = 2;
    /// A 32-bit register: only the low word survives...
    const NARROW: u8 = 4;
    /// ...sign-extended (RV32 integer file) rather than zero-extended
    /// (FP file).
    const SEXT: u8 = 8;

    const ZERO: Feed = Feed(0);

    /// The slot for `reg`, reading the second input if `second`.
    fn new(reg: Option<Reg>, xlen: Xlen, second: bool) -> Feed {
        let input = if second { Feed::SECOND } else { 0 };
        match (reg, xlen) {
            (None | Some(Reg::X(0)), _) => Feed::ZERO,
            (Some(Reg::X(_)), Xlen::Rv32) => Feed(input | Feed::LIVE | Feed::NARROW | Feed::SEXT),
            (Some(Reg::X(_)), Xlen::Rv64) => Feed(input | Feed::LIVE),
            (Some(Reg::F(_)), _) => Feed(input | Feed::LIVE | Feed::NARROW),
        }
    }

    /// `v` after a round trip through the slot's register.
    #[inline]
    fn pass(self, v: u64) -> u64 {
        let v = if self.0 & Feed::LIVE != 0 { v } else { 0 };
        let drop = u32::from(self.0 & Feed::NARROW) * 8;
        let w = v << drop;
        if self.0 & Feed::SEXT != 0 {
            ((w as i64) >> drop) as u64
        } else {
            w >> drop
        }
    }

    /// The slot's value given the PE's two operand inputs.
    #[inline]
    fn read(self, in0: u64, in1: u64) -> u64 {
        self.pass(if self.0 & Feed::SECOND != 0 { in1 } else { in0 })
    }
}

/// A PE's executable form of one instruction: a pure function of the
/// node's two operand inputs, lowered once per configured node.
///
/// A PE evaluates an instruction as if on a fresh [`ArchState`] at `pc` 0
/// whose `rs1` holds the first input and `rs2` the second (written in that
/// order) — everything else zero — and reads back `rd`. [`PureOp::lower`]
/// resolves that staging once: which input each source reads when
/// registers alias (`rs1 == rs2`; `rs3` equal to either, else 0), `x0` as
/// a source (0) or destination (result 0), integer-file canonicalization
/// by [`Xlen`] versus FP-file truncation to 32 bits, and the PC (AUIPC
/// yields its immediate, a JAL/JALR link yields 4). [`PureOp::eval`] and
/// [`PureOp::taken`] then equal that [`step`]-based evaluation bit for bit
/// (property-tested in `tests/pure_op_proptest.rs` for every opcode a PE
/// can run).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PureOp {
    op: Opcode,
    xlen: Xlen,
    src: [Feed; 3],
    dst: Feed,
    imm: i64,
}

impl PureOp {
    /// Lowers `instr` for a hart of width `xlen`.
    #[must_use]
    pub fn lower(instr: &Instruction, xlen: Xlen) -> PureOp {
        // The input that ends up in `reg` after staging: `rs2` is written
        // last, so it wins an alias with `rs1`.
        let feed = |reg: Option<Reg>| match reg {
            r if r == instr.rs2 => Feed::new(r, xlen, true),
            r if r == instr.rs1 => Feed::new(r, xlen, false),
            _ => Feed::ZERO,
        };
        if instr.op.is_system() {
            // System ops compute nothing: `rd` keeps what staging left in
            // it, i.e. a move of the register's feed.
            return PureOp {
                op: Opcode::Addi,
                xlen,
                src: [feed(instr.rd), Feed::ZERO, Feed::ZERO],
                dst: Feed::new(instr.rd, xlen, false),
                imm: 0,
            };
        }
        PureOp {
            op: instr.op,
            xlen,
            src: [feed(instr.rs1), feed(instr.rs2), feed(instr.rs3)],
            dst: Feed::new(instr.rd, xlen, false),
            imm: instr.imm,
        }
    }

    /// The instruction's immediate (the memory offset of a load or store).
    #[must_use]
    pub fn imm(&self) -> i64 {
        self.imm
    }

    /// The value the op leaves in `rd` (0 without one) given the node's
    /// two operand inputs. Loads read as 0: a PE has no memory.
    #[inline]
    #[must_use]
    pub fn eval(&self, in0: u64, in1: u64) -> u64 {
        let [a, b, c] = self.src;
        let (a, b, c) = (a.read(in0, in1), b.read(in0, in1), c.read(in0, in1));
        self.dst.pass(op_value(self.op, self.xlen, 0, a, b, c, self.imm))
    }

    /// Whether the op, a conditional branch, is taken given the node's two
    /// operand inputs (any other op is not taken).
    #[inline]
    #[must_use]
    pub fn taken(&self, in0: u64, in1: u64) -> bool {
        op_taken(self.op, self.xlen, self.src[0].read(in0, in1), self.src[1].read(in0, in1))
    }
}

/// `fclass.s` result bit per the RISC-V spec.
fn fclass(v: f32) -> u32 {
    use std::num::FpCategory::*;
    let sign = v.is_sign_negative();
    match (v.classify(), sign) {
        (Infinite, true) => 1 << 0,
        (Normal, true) => 1 << 1,
        (Subnormal, true) => 1 << 2,
        (Zero, true) => 1 << 3,
        (Zero, false) => 1 << 4,
        (Subnormal, false) => 1 << 5,
        (Normal, false) => 1 << 6,
        (Infinite, false) => 1 << 7,
        (Nan, _) => {
            if v.to_bits() & 0x0040_0000 != 0 {
                1 << 9 // quiet NaN
            } else {
                1 << 8 // signaling NaN
            }
        }
    }
}

/// A predecoded RV32 micro-op: the [`Opcode`] with raw x-register indices
/// and the immediate pulled out of the general [`Instruction`]'s
/// `Option<Reg>` operands, so [`step_flat`] reads each source with one
/// array index and never touches the FP file.
///
/// Lowered once per static instruction by [`FlatOp::lower`]. It carries no
/// semantics of its own: [`step_flat`] computes values with the same
/// per-opcode definition [`step`] uses, so the two agree bit for bit
/// (property-tested in `tests/flat_op_proptest.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlatOp {
    /// The operation.
    pub op: Opcode,
    /// Destination x-register index (`0` discards, like `x0`).
    pub rd: u8,
    /// First source x-register index (`0` when unused).
    pub rs1: u8,
    /// Second source x-register index (`0` when unused).
    pub rs2: u8,
    /// Immediate (branch/jump displacement for control ops).
    pub imm: i64,
}

impl FlatOp {
    /// Lowers an instruction into flattened form.
    ///
    /// Accepts RV32 integer ALU ops, conditional branches, `jal`, and
    /// loads and stores, on x-registers only and without a third source.
    /// Returns `None` for anything else (FP, mul/div, `jalr`, system ops,
    /// RV64-only ops, or an RV64 hart) — those run through the general
    /// [`step`].
    #[must_use]
    pub fn lower(instr: &Instruction, xlen: Xlen) -> Option<FlatOp> {
        let op = instr.op;
        let flat_class = matches!(
            op.class(),
            OpClass::IntAlu | OpClass::Branch | OpClass::Load | OpClass::Store
        ) || op == Opcode::Jal;
        if xlen != Xlen::Rv32 || !flat_class || op.is_rv64_only() || instr.rs3.is_some() {
            return None;
        }
        let x = |r: Option<Reg>| match r {
            None => Some(0u8),
            Some(Reg::X(n)) => Some(n),
            Some(Reg::F(_)) => None,
        };
        Some(FlatOp {
            op,
            rd: x(instr.rd)?,
            rs1: x(instr.rs1)?,
            rs2: x(instr.rs2)?,
            imm: instr.imm,
        })
    }
}

/// The register value a load of `width` bytes yields from `raw`, the bytes
/// [`MemoryIo::load`] returned (zero-extended): sign-extended from the
/// access width when `signed`, else `raw` unchanged. The one definition of
/// load extension, shared by [`step`], [`step_flat`] and the accelerator's
/// load nodes.
#[inline]
#[must_use]
pub fn extend_load(raw: u64, width: u8, signed: bool) -> u64 {
    if signed {
        let drop = 64 - u32::from(width) * 8;
        ((raw << drop) as i64 >> drop) as u64
    } else {
        raw
    }
}

/// Executes one flattened micro-op, updating `state` (including `pc`).
///
/// Bit-identical to [`step`] on the instruction the op was lowered from:
/// values come from the same per-opcode definition, on RV32 state
/// (enforced by [`FlatOp::lower`]).
// Forced inline: the CPU's fused loop calls this at three sites, and left
// to the compiler it became one out-of-line call that slowed the fused
// loop by ~10%.
#[inline(always)]
pub fn step_flat<M: MemoryIo>(state: &mut ArchState, op: &FlatOp, mem: &mut M) -> StepInfo {
    // Re-assert the x0 invariant so raw-index reads below stay correct even
    // if a caller poked the register file directly.
    state.x[0] = 0;
    let pc = state.pc;
    let next = pc.wrapping_add(4);
    let rs1v = state.x[usize::from(op.rs1)];
    let rs2v = state.x[usize::from(op.rs2)];
    let (value, info) = match op.op.class() {
        OpClass::Branch => {
            let taken = op_taken(op.op, Xlen::Rv32, rs1v, rs2v);
            let target = pc.wrapping_add(op.imm as u64);
            state.pc = if taken { target } else { next };
            return StepInfo { outcome: Outcome::Branch { taken, target }, mem: None };
        }
        OpClass::Store => {
            let addr = rs1v.wrapping_add(op.imm as u64);
            let width = op.op.mem_width().expect("store width");
            mem.store(addr, width, rs2v);
            state.pc = next;
            let mem = Some(MemAccess { addr, width, is_store: true });
            return StepInfo { outcome: Outcome::Next, mem };
        }
        OpClass::Load => {
            let addr = rs1v.wrapping_add(op.imm as u64);
            let width = op.op.mem_width().expect("load width");
            let value = extend_load(mem.load(addr, width), width, op.op.load_sign_extends());
            let mem = Some(MemAccess { addr, width, is_store: false });
            (value, StepInfo { outcome: Outcome::Next, mem })
        }
        // An integer ALU op, or `jal` (the only jump `FlatOp::lower` accepts).
        class => {
            let outcome = if class == OpClass::Jump {
                Outcome::Jump { target: pc.wrapping_add(op.imm as u64) }
            } else {
                Outcome::Next
            };
            let value = op_value(op.op, Xlen::Rv32, pc, rs1v, rs2v, 0, op.imm);
            (value, StepInfo { outcome, mem: None })
        }
    };
    // RV32 canonical form, as `ArchState::write` stores it.
    state.x[usize::from(op.rd)] = (value as u32) as i32 as i64 as u64;
    state.x[0] = 0;
    state.pc = match info.outcome {
        Outcome::Jump { target } => target,
        _ => next,
    };
    info
}

/// The idiom a fused superinstruction pair implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FusedKind {
    /// Compare (or any address/flag computation) + conditional branch.
    CmpBranch,
    /// Address generation + load.
    AddrLoad,
    /// Address generation + store.
    AddrStore,
    /// ALU + ALU chain (e.g. `add`+`add`).
    AluAlu,
}

/// A macro-op fusion pairing: two adjacent RV32 micro-ops the CPU model
/// retires in one loop iteration.
///
/// Fusion is a decode-time pairing, not a second executor: a pair runs as
/// two [`step_flat`] calls. The first constituent is always a pure
/// fall-through integer ALU op, so the pair can never be split by control
/// flow, a trap, or a memory fault between its halves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FusedOp {
    /// Which idiom the pair matched (drives per-pair fusion-hit counters).
    pub kind: FusedKind,
    /// First constituent (pure integer ALU, falls through by construction).
    pub a: FlatOp,
    /// Second constituent.
    pub b: FlatOp,
}

impl FusedOp {
    /// Attempts to fuse `a` followed immediately by `b`.
    ///
    /// `a` must be an integer ALU op; `b`'s class picks the idiom: branch →
    /// [`FusedKind::CmpBranch`], load → [`FusedKind::AddrLoad`], store →
    /// [`FusedKind::AddrStore`], integer ALU → [`FusedKind::AluAlu`].
    /// Anything else (e.g. `jal` second) declines.
    #[must_use]
    pub fn fuse(a: FlatOp, b: FlatOp) -> Option<FusedOp> {
        if a.op.class() != OpClass::IntAlu {
            return None;
        }
        let kind = match b.op.class() {
            OpClass::Branch => FusedKind::CmpBranch,
            OpClass::Load => FusedKind::AddrLoad,
            OpClass::Store => FusedKind::AddrStore,
            OpClass::IntAlu => FusedKind::AluAlu,
            _ => return None,
        };
        Some(FusedOp { kind, a, b })
    }
}

/// A trivially simple flat memory for tests and functional-only runs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlatMemory {
    bytes: std::collections::HashMap<u64, u8>,
}

impl FlatMemory {
    /// Creates an empty memory (all bytes read as zero).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Writes a little-endian `u32` at `addr` (convenience for test setup).
    pub fn store_u32(&mut self, addr: u64, value: u32) {
        self.store(addr, 4, u64::from(value));
    }

    /// Writes an `f32`'s bits at `addr`.
    pub fn store_f32(&mut self, addr: u64, value: f32) {
        self.store_u32(addr, value.to_bits());
    }

    /// Reads an `f32` from `addr`.
    pub fn load_f32(&mut self, addr: u64) -> f32 {
        f32::from_bits(self.load(addr, 4) as u32)
    }
}

impl MemoryIo for FlatMemory {
    fn load(&mut self, addr: u64, width: u8) -> u64 {
        let mut v = 0u64;
        for i in 0..width {
            let b = self.bytes.get(&addr.wrapping_add(u64::from(i))).copied().unwrap_or(0);
            v |= u64::from(b) << (8 * i);
        }
        v
    }

    fn store(&mut self, addr: u64, width: u8, value: u64) {
        for i in 0..width {
            self.bytes
                .insert(addr.wrapping_add(u64::from(i)), (value >> (8 * i)) as u8);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::abi::*;

    fn run(instrs: &[Instruction]) -> (ArchState, FlatMemory) {
        let mut st = ArchState::new(0, Xlen::Rv32);
        let mut mem = FlatMemory::new();
        for i in instrs {
            step(&mut st, i, &mut mem);
        }
        (st, mem)
    }

    #[test]
    fn x0_is_hardwired_zero() {
        let (st, _) = run(&[Instruction::reg_imm(Opcode::Addi, ZERO, ZERO, 42)]);
        assert_eq!(st.read(ZERO), 0);
    }

    #[test]
    fn add_sub_wrap_at_32_bits_in_rv32() {
        let mut st = ArchState::new(0, Xlen::Rv32);
        let mut mem = FlatMemory::new();
        st.write(A0, 0x7FFF_FFFF);
        st.write(A1, 1);
        step(&mut st, &Instruction::reg3(Opcode::Add, A2, A0, A1), &mut mem);
        // 0x80000000 sign-extended.
        assert_eq!(st.read(A2), 0xFFFF_FFFF_8000_0000);
    }

    #[test]
    fn rv64_add_keeps_64_bits() {
        let mut st = ArchState::new(0, Xlen::Rv64);
        let mut mem = FlatMemory::new();
        st.write(A0, 0x7FFF_FFFF);
        st.write(A1, 1);
        step(&mut st, &Instruction::reg3(Opcode::Add, A2, A0, A1), &mut mem);
        assert_eq!(st.read(A2), 0x8000_0000);
    }

    #[test]
    fn load_store_roundtrip_with_sign_extension() {
        let mut st = ArchState::new(0, Xlen::Rv32);
        let mut mem = FlatMemory::new();
        st.write(A0, 0x100);
        st.write(A1, 0xFFu64);
        step(&mut st, &Instruction::store(Opcode::Sb, A1, A0, 0), &mut mem);
        step(&mut st, &Instruction::load(Opcode::Lb, A2, A0, 0), &mut mem);
        assert_eq!(st.read(A2) as i64, -1);
        step(&mut st, &Instruction::load(Opcode::Lbu, A3, A0, 0), &mut mem);
        assert_eq!(st.read(A3), 0xFF);
    }

    #[test]
    fn branch_outcomes() {
        let mut st = ArchState::new(0x100, Xlen::Rv32);
        let mut mem = FlatMemory::new();
        st.write(A0, 5);
        st.write(A1, 5);
        let info = step(&mut st, &Instruction::branch(Opcode::Beq, A0, A1, -0x20), &mut mem);
        assert_eq!(info.outcome, Outcome::Branch { taken: true, target: 0xE0 });
        assert_eq!(st.pc, 0xE0);
        let info = step(&mut st, &Instruction::branch(Opcode::Bne, A0, A1, -0x20), &mut mem);
        assert!(matches!(info.outcome, Outcome::Branch { taken: false, .. }));
        assert_eq!(st.pc, 0xE4);
    }

    #[test]
    fn signed_vs_unsigned_compares_in_rv32() {
        let mut st = ArchState::new(0, Xlen::Rv32);
        let mut mem = FlatMemory::new();
        st.write(A0, u64::MAX); // -1 in RV32 canonical form
        st.write(A1, 1);
        step(&mut st, &Instruction::reg3(Opcode::Slt, A2, A0, A1), &mut mem);
        assert_eq!(st.read(A2), 1, "-1 < 1 signed");
        step(&mut st, &Instruction::reg3(Opcode::Sltu, A3, A0, A1), &mut mem);
        assert_eq!(st.read(A3), 0, "0xFFFFFFFF > 1 unsigned");
    }

    #[test]
    fn division_by_zero_follows_spec() {
        let mut st = ArchState::new(0, Xlen::Rv32);
        let mut mem = FlatMemory::new();
        st.write(A0, 7);
        step(&mut st, &Instruction::reg3(Opcode::Div, A2, A0, ZERO), &mut mem);
        assert_eq!(st.read(A2) as i64, -1);
        step(&mut st, &Instruction::reg3(Opcode::Rem, A3, A0, ZERO), &mut mem);
        assert_eq!(st.read(A3), 7);
    }

    #[test]
    fn fp_arithmetic() {
        let mut st = ArchState::new(0, Xlen::Rv32);
        let mut mem = FlatMemory::new();
        st.write(FA0, u64::from(2.5f32.to_bits()));
        st.write(FA1, u64::from(4.0f32.to_bits()));
        step(&mut st, &Instruction::reg3(Opcode::FmulS, FA2, FA0, FA1), &mut mem);
        assert_eq!(st.read_f32(12), 10.0);
        step(&mut st, &Instruction::reg3(Opcode::FsubS, FA3, FA2, FA1), &mut mem);
        assert_eq!(st.read_f32(13), 6.0);
    }

    #[test]
    fn fsqrt_and_cvt() {
        let mut st = ArchState::new(0, Xlen::Rv32);
        let mut mem = FlatMemory::new();
        st.write(FA0, u64::from(9.0f32.to_bits()));
        let sqrt = Instruction {
            op: Opcode::FsqrtS,
            rd: Some(FA1),
            rs1: Some(FA0),
            rs2: None,
            rs3: None,
            imm: 0,
        };
        step(&mut st, &sqrt, &mut mem);
        assert_eq!(st.read_f32(11), 3.0);
        let cvt = Instruction {
            op: Opcode::FcvtWS,
            rd: Some(A0),
            rs1: Some(FA1),
            rs2: None,
            rs3: None,
            imm: 0,
        };
        step(&mut st, &cvt, &mut mem);
        assert_eq!(st.read(A0), 3);
    }

    #[test]
    fn ecall_exit_halts() {
        let mut st = ArchState::new(0, Xlen::Rv32);
        let mut mem = FlatMemory::new();
        st.write(A7, 93);
        let info = step(&mut st, &Instruction::system(Opcode::Ecall), &mut mem);
        assert_eq!(info.outcome, Outcome::Halt);
    }

    #[test]
    fn ecall_other_is_syscall() {
        let mut st = ArchState::new(0, Xlen::Rv32);
        let mut mem = FlatMemory::new();
        st.write(A7, 64);
        let info = step(&mut st, &Instruction::system(Opcode::Ecall), &mut mem);
        assert_eq!(info.outcome, Outcome::Syscall);
    }

    #[test]
    fn fma_computes_fused() {
        let mut st = ArchState::new(0, Xlen::Rv32);
        let mut mem = FlatMemory::new();
        st.write(FA0, u64::from(2.0f32.to_bits()));
        st.write(FA1, u64::from(3.0f32.to_bits()));
        st.write(FA2, u64::from(4.0f32.to_bits()));
        step(
            &mut st,
            &Instruction::reg4(Opcode::FmaddS, FA3, FA0, FA1, FA2),
            &mut mem,
        );
        assert_eq!(st.read_f32(13), 10.0);
    }

    #[test]
    fn rv64w_ops_truncate() {
        let mut st = ArchState::new(0, Xlen::Rv64);
        let mut mem = FlatMemory::new();
        st.write(A0, 0xFFFF_FFFF);
        st.write(A1, 1);
        step(&mut st, &Instruction::reg3(Opcode::Addw, A2, A0, A1), &mut mem);
        assert_eq!(st.read(A2), 0);
    }

    #[test]
    fn lower_declines_non_flat_instrs() {
        use Opcode::*;
        let declined = [
            Instruction::system(Ecall),
            Instruction::reg3(Mul, A0, A1, A2),
            Instruction::reg3(FaddS, FA0, FA1, FA2),
            // RV64-only integer ops, even on an RV32 hart.
            Instruction::reg_imm(Addiw, A0, A1, 1),
            Instruction::reg3(Sllw, A0, A1, A2),
            Instruction { op: Jalr, rd: Some(RA), rs1: Some(A0), rs2: None, rs3: None, imm: 0 },
            // FP loads and stores: their data register is in the FP file.
            Instruction::load(Flw, FA0, A0, 0),
            Instruction::store(Fsw, FA0, A0, 0),
            // A third source, whatever the opcode.
            Instruction { op: Add, rd: Some(A0), rs1: Some(A1), rs2: Some(A2), rs3: Some(A3), imm: 0 },
        ];
        for instr in &declined {
            assert!(FlatOp::lower(instr, Xlen::Rv32).is_none(), "{instr:?} must not lower");
        }
        // RV64 never lowers: the flat path canonicalizes to 32 bits.
        assert!(FlatOp::lower(&Instruction::reg_imm(Addi, A0, A0, 1), Xlen::Rv64).is_none());
        assert!(FlatOp::lower(&Instruction::reg_imm(Addi, A0, A0, 1), Xlen::Rv32).is_some());
    }

    #[test]
    fn fuse_requires_pure_alu_first() {
        let ld = FlatOp::lower(&Instruction::load(Opcode::Lw, A0, A1, 0), Xlen::Rv32).unwrap();
        let add = FlatOp::lower(&Instruction::reg3(Opcode::Add, A2, A0, A1), Xlen::Rv32).unwrap();
        let br = FlatOp::lower(&Instruction::branch(Opcode::Beq, A0, A1, 8), Xlen::Rv32).unwrap();
        let jal = FlatOp::lower(&Instruction::jal(RA, 0x40), Xlen::Rv32).unwrap();
        assert!(FusedOp::fuse(ld, add).is_none(), "load may not lead a pair");
        assert!(FusedOp::fuse(br, add).is_none(), "branch may not lead a pair");
        assert!(FusedOp::fuse(add, jal).is_none(), "jal may not trail a pair");
        assert_eq!(FusedOp::fuse(add, br).map(|f| f.kind), Some(FusedKind::CmpBranch));
        assert_eq!(FusedOp::fuse(add, ld).map(|f| f.kind), Some(FusedKind::AddrLoad));
    }

    #[test]
    fn jal_links_and_jumps() {
        let mut st = ArchState::new(0x1000, Xlen::Rv32);
        let mut mem = FlatMemory::new();
        let info = step(&mut st, &Instruction::jal(RA, 0x40), &mut mem);
        assert_eq!(info.outcome, Outcome::Jump { target: 0x1040 });
        assert_eq!(st.read(RA), 0x1004);
        assert_eq!(st.pc, 0x1040);
    }
}
