//! Property test for the accelerator's PE executable form: a lowered
//! [`PureOp`] must equal the instruction's [`step`] on a fresh
//! [`ArchState`] — `rs1` written with the first input, then `rs2` with the
//! second, `pc` 0, `rd` read back — for every opcode a PE can run (every
//! class but loads and stores), on both register widths, under every
//! register form a small pool yields: `rs1 == rs2`, `rs3` equal to either
//! source, `x0` as a source and as the destination, absent operands, and
//! integer/FP files mixed in any slot (`feq.s`, `fmv.x.w`, `fcvt.s.w` and
//! their malformed cousins).

use mesa_isa::{step, ArchState, FlatMemory, Instruction, OpClass, Opcode, Outcome, PureOp, Reg, Xlen};
use mesa_test::prop::{any_u64, one_of, sample, Strategy, StrategyExt};
use mesa_test::{forall, prop_assert_eq, Checker};

/// Every opcode, in declaration order.
const ALL_OPS: [Opcode; 86] = {
    use Opcode::*;
    [
        Lui, Auipc, Jal, Jalr, Beq, Bne, Blt, Bge, Bltu, Bgeu, Lb, Lh, Lw, Lbu, Lhu, Sb, Sh, Sw,
        Addi, Slti, Sltiu, Xori, Ori, Andi, Slli, Srli, Srai, Add, Sub, Sll, Slt, Sltu, Xor, Srl,
        Sra, Or, And, Fence, Ecall, Ebreak, Mul, Mulh, Mulhsu, Mulhu, Div, Divu, Rem, Remu, Flw,
        Fsw, FaddS, FsubS, FmulS, FdivS, FsqrtS, FminS, FmaxS, FmaddS, FmsubS, FnmaddS, FnmsubS,
        FcvtWS, FcvtWuS, FcvtSW, FcvtSWu, FmvXW, FmvWX, FeqS, FltS, FleS, FsgnjS, FsgnjnS,
        FsgnjxS, FclassS, Lwu, Ld, Sd, Addiw, Slliw, Srliw, Sraiw, Addw, Subw, Sllw, Srlw, Sraw,
    ]
};

/// Register slots drawn from a pool this small alias constantly.
const POOL: [Option<Reg>; 6] =
    [None, Some(Reg::X(0)), Some(Reg::X(5)), Some(Reg::X(6)), Some(Reg::F(5)), Some(Reg::F(6))];

/// The opcodes whose nodes reach the engine's compute or branch arm.
fn pe_ops() -> impl Iterator<Item = Opcode> {
    ALL_OPS.into_iter().filter(|op| !matches!(op.class(), OpClass::Load | OpClass::Store))
}

/// The PE evaluation the engine used to run: the full interpreter on a
/// freshly staged state.
fn fresh(instr: &Instruction, xlen: Xlen, v1: u64, v2: u64) -> (u64, bool) {
    let mut st = ArchState::new(0, xlen);
    if let Some(r) = instr.rs1 {
        st.write(r, v1);
    }
    if let Some(r) = instr.rs2 {
        st.write(r, v2);
    }
    let info = step(&mut st, instr, &mut FlatMemory::new());
    let taken = matches!(info.outcome, Outcome::Branch { taken: true, .. });
    (instr.rd.map_or(0, |rd| st.read(rd)), taken)
}

/// Operand values: FP and integer edge cases (NaNs, signed zeros,
/// `i32::MIN`, `-1`, zero divisors) as well as arbitrary 64-bit patterns,
/// whose upper halves an RV32 register must discard.
fn arb_value() -> impl Strategy<Value = u64> {
    one_of(vec![
        Box::new(sample(&[
            0,
            1,
            u64::MAX,
            0x8000_0000,
            0xFFFF_FFFF_8000_0000,
            0x7FFF_FFFF,
            0x7FC0_0000, // quiet NaN
            0x7F80_0001, // signalling NaN
            0x8000_0000_0000_0000,
            0x3F80_0000, // 1.0f
            0xBF80_0000, // -1.0f
            0x7F80_0000, // +inf
            0x0000_0001, // smallest subnormal
            0xDEAD_BEEF_4049_0FDB, // pi with garbage above
            0x0000_0001_0000_0003,
        ])),
        Box::new(any_u64()),
        Box::new((0u64..64).prop_map(|v| v.wrapping_sub(32))),
    ])
}

fn checker(name: &str) -> Checker {
    Checker::new(name).cases(32)
}

#[test]
fn opcode_table_is_complete() {
    for (i, op) in ALL_OPS.iter().enumerate() {
        assert_eq!(*op as usize, i, "{op} out of declaration order");
    }
    assert_eq!(ALL_OPS.len(), Opcode::Sraw as usize + 1);
}

/// Every PE opcode × both widths × every register form from [`POOL`]
/// (1296 forms per opcode) on each drawn operand pair and immediate.
#[test]
fn pure_op_equals_fresh_step_for_every_pe_opcode_and_register_form() {
    forall!(checker("pure_op::equals_fresh_step"), |(v1 in arb_value(), v2 in arb_value(), imm in -4096i64..4096)| {
        for op in pe_ops() {
            for xlen in [Xlen::Rv32, Xlen::Rv64] {
                for rd in POOL {
                    for rs1 in POOL {
                        for rs2 in POOL {
                            for rs3 in POOL {
                                let instr = Instruction { op, rd, rs1, rs2, rs3, imm };
                                let pure = PureOp::lower(&instr, xlen);
                                let (value, taken) = fresh(&instr, xlen, v1, v2);
                                if op.is_branch() {
                                    prop_assert_eq!(pure.taken(v1, v2), taken, "{:?} {:?}", instr, xlen);
                                } else {
                                    prop_assert_eq!(pure.eval(v1, v2), value, "{:?} {:?}", instr, xlen);
                                }
                            }
                        }
                    }
                }
            }
        }
    });
}

/// The well-formed mixed-file forms the assembler emits, on arbitrary
/// registers (not just the pool's), including `x0` and aliasing by chance.
#[test]
fn pure_op_equals_fresh_step_on_mixed_file_forms() {
    let x = || (0u8..32).prop_map(Reg::x);
    let f = || (0u8..32).prop_map(Reg::f);
    forall!(checker("pure_op::mixed_file_forms"), |(v1 in arb_value(), v2 in arb_value(), xd in x(), xs in x(), fd in f(), fs in f())| {
        let (fs1, fs2) = (fs, fd);
        for xlen in [Xlen::Rv32, Xlen::Rv64] {
            for instr in [
                Instruction::reg3(Opcode::FeqS, xd, fs1, fs2),
                Instruction::reg3(Opcode::FltS, xd, fs1, fs1),
                Instruction { op: Opcode::FmvXW, rd: Some(xd), rs1: Some(fs1), rs2: None, rs3: None, imm: 0 },
                Instruction { op: Opcode::FmvWX, rd: Some(fd), rs1: Some(xs), rs2: None, rs3: None, imm: 0 },
                Instruction { op: Opcode::FcvtSW, rd: Some(fd), rs1: Some(xs), rs2: None, rs3: None, imm: 0 },
                Instruction { op: Opcode::FcvtWS, rd: Some(xd), rs1: Some(fs1), rs2: None, rs3: None, imm: 0 },
                Instruction { op: Opcode::FmaddS, rd: Some(fd), rs1: Some(fs1), rs2: Some(fs2), rs3: Some(fs1), imm: 0 },
                Instruction::reg3(Opcode::Add, xd, xs, xs),
            ] {
                let (value, _) = fresh(&instr, xlen, v1, v2);
                prop_assert_eq!(PureOp::lower(&instr, xlen).eval(v1, v2), value, "{} {:?}", instr, xlen);
            }
        }
    });
}
