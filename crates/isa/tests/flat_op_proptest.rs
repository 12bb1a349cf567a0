//! Property test for the CPU's predecoded path: a lowered [`FlatOp`] run by
//! [`step_flat`] must equal [`step`] on the instruction it came from — the
//! same [`StepInfo`], [`ArchState`] and memory — for every opcode in the
//! flat subset, under every register form a small pool yields (`x0` as a
//! source and as the destination, `rs1 == rs2`, `rd` aliasing a source,
//! distinct registers) and arbitrary register values. A fused pair is two
//! `step_flat` calls, so every pair [`FusedOp::fuse`] accepts must equal
//! two `step` calls as well.

use mesa_isa::{
    step, step_flat, ArchState, FlatMemory, FlatOp, FusedOp, Instruction, MemoryIo, OpClass,
    Opcode, Reg, StepInfo, Xlen,
};
use mesa_test::prop::{any_i64, any_u64, one_of, sample, vec, Strategy, StrategyExt};
use mesa_test::{forall, prop_assert, prop_assert_eq, Checker};

/// Every opcode [`FlatOp::lower`] accepts on x-registers. `flw`/`fsw` lower
/// only in that malformed form (their data register belongs in the FP
/// file), and must still agree with `step` there.
const FLAT_OPS: [Opcode; 38] = {
    use Opcode::*;
    [
        Lui, Auipc, Addi, Slti, Sltiu, Xori, Ori, Andi, Slli, Srli, Srai, Add, Sub, Sll, Slt, Sltu,
        Xor, Srl, Sra, Or, And, Beq, Bne, Blt, Bge, Bltu, Bgeu, Jal, Lb, Lh, Lw, Lbu, Lhu, Sb, Sh,
        Sw, Flw, Fsw,
    ]
};

/// Register indices drawn from a pool this small alias constantly.
const POOL: [u8; 4] = [0, 5, 6, 7];

/// Register values: sign/zero-extension and shift-amount edge cases as well
/// as arbitrary 64-bit patterns, whose upper halves an RV32 write discards.
fn arb_value() -> impl Strategy<Value = u64> {
    one_of(vec![
        Box::new(sample(&[
            0,
            1,
            u64::MAX,
            0x7F,
            0x80,
            0xFF,
            0x8000,
            0xFFFF,
            0x7FFF_FFFF,
            0x8000_0000,
            0xFFFF_FFFF,
            31,
            32,
            33,
            0xDEAD_BEEF_0000_0100,
        ])),
        Box::new(any_u64()),
        Box::new((0u64..64).prop_map(|v| v.wrapping_sub(32))),
    ])
}

/// Immediates: the 12-bit range, shift amounts past 31, LUI-style upper
/// immediates, and arbitrary 64-bit patterns.
fn arb_imm() -> impl Strategy<Value = i64> {
    one_of(vec![
        Box::new(-4096i64..4096),
        Box::new(sample(&[0, 31, 32, 63, -1, 0x1234_5000, -0x8000_0000, 0x7FFF_F000])),
        Box::new(any_i64()),
    ])
}

/// Instruction addresses, including ones whose `pc + 4` (a JAL link) or
/// `pc + imm` (AUIPC) crosses the 32-bit sign boundary.
fn arb_pc() -> impl Strategy<Value = u64> {
    one_of(vec![
        Box::new(sample(&[0, 0x1000, 0x7FFF_FFFC, 0xFFFF_FFFC])),
        Box::new((0u64..1 << 30).prop_map(|w| w * 4)),
    ])
}

/// `op` on x-registers `rd`, `rs1`, `rs2` — all three slots filled, so an
/// opcode that ignores a slot must ignore it on both paths.
fn instr(op: Opcode, rd: u8, rs1: u8, rs2: u8, imm: i64) -> Instruction {
    Instruction {
        op,
        rd: Some(Reg::X(rd)),
        rs1: Some(Reg::X(rs1)),
        rs2: Some(Reg::X(rs2)),
        rs3: None,
        imm,
    }
}

/// RV32 state at `pc` with `vals` in the pool's non-zero registers.
fn state(pc: u64, vals: &[u64]) -> ArchState {
    let mut st = ArchState::new(pc, Xlen::Rv32);
    for (&r, &v) in POOL[1..].iter().zip(vals) {
        st.write(Reg::X(r), v);
    }
    st
}

/// Memory holding `pattern` at the address `i` would access in `st`, so
/// loads see non-zero bytes to extend and stores overwrite something.
fn memory(st: &ArchState, i: &Instruction, pattern: u64) -> FlatMemory {
    let mut mem = FlatMemory::new();
    let base = i.rs1.map_or(0, |r| st.read(r));
    mem.store(base.wrapping_add(i.imm as u64), 8, pattern);
    mem
}

fn checker(name: &str) -> Checker {
    Checker::new(name).cases(48)
}

/// Every flat opcode × every register form from [`POOL`] (64 per opcode)
/// on each drawn set of register values, memory pattern, immediate and pc.
#[test]
fn step_flat_equals_step_for_every_flat_opcode_and_register_form() {
    forall!(checker("flat_op::equals_step"), |(vals in vec(arb_value(), 3..4), pattern in any_u64(), imm in arb_imm(), pc in arb_pc())| {
        let base = state(pc, &vals);
        for op in FLAT_OPS {
            for rd in POOL {
                for rs1 in POOL {
                    for rs2 in POOL {
                        let i = instr(op, rd, rs1, rs2, imm);
                        let Some(flat) = FlatOp::lower(&i, Xlen::Rv32) else {
                            return Err(format!("{i:?} should lower"));
                        };
                        let (mut a, mut b) = (base.clone(), base.clone());
                        let mut mem_a = memory(&base, &i, pattern);
                        let mut mem_b = mem_a.clone();
                        let ia = step(&mut a, &i, &mut mem_a);
                        let ib = step_flat(&mut b, &flat, &mut mem_b);
                        prop_assert_eq!(ib, ia, "StepInfo of {:?}", i);
                        prop_assert_eq!(b, a, "state after {:?}", i);
                        prop_assert_eq!(mem_b, mem_a, "memory after {:?}", i);
                    }
                }
            }
        }
    });
}

/// Every pair [`FusedOp::fuse`] accepts, on drawn registers, immediates and
/// values: its two halves through `step_flat` equal two `step` calls.
#[test]
fn fused_pair_as_two_flat_steps_equals_two_steps() {
    let regs = || vec(sample(&POOL), 3..4);
    forall!(checker("flat_op::fused_pair_equals_two_steps"), |(vals in vec(arb_value(), 3..4), ra in regs(), rb in regs(), imms in (arb_imm(), arb_imm()), pattern in any_u64(), pc in arb_pc())| {
        let base = state(pc, &vals);
        let mut pairs = 0;
        for op_a in FLAT_OPS {
            for op_b in FLAT_OPS {
                let x = instr(op_a, ra[0], ra[1], ra[2], imms.0);
                let y = instr(op_b, rb[0], rb[1], rb[2], imms.1);
                let (Some(fa), Some(fb)) = (FlatOp::lower(&x, Xlen::Rv32), FlatOp::lower(&y, Xlen::Rv32)) else {
                    return Err(format!("{x:?} and {y:?} should lower"));
                };
                let Some(pair) = FusedOp::fuse(fa, fb) else { continue };
                pairs += 1;
                // Seed the address the second half accesses after the first.
                let mut mid = base.clone();
                step(&mut mid, &x, &mut FlatMemory::new());
                let (mut a, mut b) = (base.clone(), base.clone());
                let mut mem_a = memory(&mid, &y, pattern);
                let mut mem_b = mem_a.clone();
                let ia: [StepInfo; 2] = [step(&mut a, &x, &mut mem_a), step(&mut a, &y, &mut mem_a)];
                let ib = [step_flat(&mut b, &pair.a, &mut mem_b), step_flat(&mut b, &pair.b, &mut mem_b)];
                prop_assert_eq!(ib, ia, "StepInfos of {:?} then {:?}", x, y);
                prop_assert_eq!(b, a, "state after {:?} then {:?}", x, y);
                prop_assert_eq!(mem_b, mem_a, "memory after {:?} then {:?}", x, y);
            }
        }
        // Every integer-ALU lead pairs with every flat op but `jal`.
        let alu = FLAT_OPS.iter().filter(|op| op.class() == OpClass::IntAlu).count();
        prop_assert!(pairs == alu * (FLAT_OPS.len() - 1), "{pairs} fusable pairs");
    });
}
