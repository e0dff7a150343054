//! The BVM CPU: single-instruction semantics.
//!
//! [`step`] executes exactly one instruction against a register file and a
//! memory, optionally recording into an arena [`Trace`]. Syscalls and
//! traps are *reported*, not handled — the [`crate::machine::Machine`]
//! owns those.

use crate::mem::Memory;
use crate::trace::{MemAccess, Trace};
use bomblab_isa::{trap, DecodeError, Insn, Opcode, Reg};

/// Architectural register state of one thread.
#[derive(Debug, Clone, PartialEq)]
pub struct Regs {
    /// General-purpose registers.
    pub gpr: [u64; 32],
    /// Floating-point registers.
    pub fpr: [f64; 16],
    /// Program counter.
    pub pc: u64,
}

impl Default for Regs {
    fn default() -> Regs {
        Regs {
            gpr: [0; 32],
            fpr: [0.0; 16],
            pc: 0,
        }
    }
}

impl Regs {
    /// Creates zeroed registers.
    pub fn new() -> Regs {
        Regs::default()
    }

    /// Reads a general register. `r0` always reads as zero.
    pub fn get(&self, r: Reg) -> u64 {
        self.gpr[r.index()]
    }

    /// Writes a general register. Writes to `r0` are ignored (it is the
    /// hardwired zero register).
    pub fn set(&mut self, r: Reg, v: u64) {
        if r.index() != 0 {
            self.gpr[r.index()] = v;
        }
    }
}

/// A hardware trap raised by an instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// Trap cause (see [`bomblab_isa::trap`]).
    pub cause: u64,
    /// Faulting address for memory traps.
    pub addr: Option<u64>,
    /// Length of the faulting instruction (for trap-resume).
    pub insn_len: u64,
}

/// What happened when an instruction was stepped.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Effect {
    /// Normal execution; `pc` has been advanced.
    Continue,
    /// The instruction was `sys`; `pc` has *not* been advanced. The machine
    /// must perform the syscall, then advance `pc` by 1 (or leave it to
    /// retry a blocking call).
    Sys,
    /// The instruction was `halt`.
    Halt,
    /// The instruction trapped; `pc` is unchanged.
    Trap(Fault),
}

/// The recording target of one step: the trace arena, when tracing.
pub type Recorder<'a> = Option<&'a mut Trace>;

/// Result of stepping one instruction: the effect plus the arena index of
/// the recorded step (present when a recorder was supplied, even for
/// traps).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepOutcome {
    /// Control effect.
    pub effect: Effect,
    /// Index of the recorded step in the trace, when tracing.
    pub step: Option<u32>,
}

/// Executes one instruction at `regs.pc`.
///
/// `pid`/`tid` are only used to label the trace record.
///
/// Undecodable instruction bytes and unmapped fetches are reported as
/// [`Effect::Trap`] with cause [`trap::BAD_INSN`] / [`trap::BAD_MEM`].
pub fn step(
    regs: &mut Regs,
    mem: &mut Memory,
    pid: u32,
    tid: u32,
    rec: Recorder<'_>,
) -> StepOutcome {
    let pc = regs.pc;
    match fetch(mem, pc) {
        Ok(insn) => exec(insn, regs, mem, pid, tid, rec),
        Err(fault) => StepOutcome {
            effect: Effect::Trap(fault),
            step: rec.map(|t| {
                let idx = t.begin_step(pid, tid, pc, Insn::Nop);
                t.set_trap(fault.cause);
                idx
            }),
        },
    }
}

/// Fetches and decodes the instruction at `pc` without executing it.
///
/// # Errors
///
/// Returns the hardware [`Fault`] a fetch would raise: [`trap::BAD_MEM`]
/// when the first byte is unmapped, [`trap::BAD_INSN`] when the bytes do
/// not decode.
pub fn fetch(mem: &Memory, pc: u64) -> Result<Insn, Fault> {
    // Fetch up to the maximum instruction length (10 bytes).
    let mut buf = [0u8; 10];
    let mut n = 0;
    for (i, slot) in buf.iter_mut().enumerate() {
        match mem.read_u8(pc.wrapping_add(i as u64)) {
            Ok(b) => {
                *slot = b;
                n = i + 1;
            }
            Err(_) => break,
        }
    }
    if n == 0 {
        return Err(Fault {
            cause: trap::BAD_MEM,
            addr: Some(pc),
            insn_len: 1,
        });
    }
    match Insn::decode(&buf[..n]) {
        Ok((insn, _)) => Ok(insn),
        Err(DecodeError::BadOpcode(_))
        | Err(DecodeError::BadRegister(_))
        | Err(DecodeError::Truncated) => Err(Fault {
            cause: trap::BAD_INSN,
            addr: Some(pc),
            insn_len: 1,
        }),
    }
}

/// Executes an already-decoded instruction (used by `step` and by tests).
pub fn exec(
    insn: Insn,
    regs: &mut Regs,
    mem: &mut Memory,
    pid: u32,
    tid: u32,
    rec: Recorder<'_>,
) -> StepOutcome {
    let pc = regs.pc;
    let len = insn.len() as u64;
    let next = pc.wrapping_add(len);
    let mut tr = rec;
    let step = tr.as_mut().map(|t| t.begin_step(pid, tid, pc, insn));

    macro_rules! rr {
        ($r:expr) => {{
            let v = regs.get($r);
            if let Some(t) = tr.as_mut() {
                t.push_reg_read($r, v);
            }
            v
        }};
    }
    macro_rules! rw {
        ($r:expr, $v:expr) => {{
            let v: u64 = $v;
            regs.set($r, v);
            if let Some(t) = tr.as_mut() {
                // Record the architecturally visible value (r0 stays 0).
                t.push_reg_write($r, regs.get($r));
            }
        }};
    }
    macro_rules! fr {
        ($r:expr) => {{
            let v = regs.fpr[$r.index()];
            if let Some(t) = tr.as_mut() {
                t.push_freg_read($r, v);
            }
            v
        }};
    }
    macro_rules! fw {
        ($r:expr, $v:expr) => {{
            let v: f64 = $v;
            regs.fpr[$r.index()] = v;
            if let Some(t) = tr.as_mut() {
                t.push_freg_write($r, v);
            }
        }};
    }
    macro_rules! trap {
        ($cause:expr, $addr:expr) => {{
            if let Some(t) = tr.as_mut() {
                t.set_trap($cause);
            }
            return StepOutcome {
                effect: Effect::Trap(Fault {
                    cause: $cause,
                    addr: $addr,
                    insn_len: len,
                }),
                step,
            };
        }};
    }
    macro_rules! load {
        ($addr:expr, $w:expr) => {{
            let addr: u64 = $addr;
            match mem.read_uint(addr, $w) {
                Ok(v) => {
                    if let Some(t) = tr.as_mut() {
                        t.set_mem_read(MemAccess {
                            addr,
                            value: v,
                            width: $w,
                        });
                    }
                    v
                }
                Err(f) => trap!(trap::BAD_MEM, Some(f.addr)),
            }
        }};
    }
    macro_rules! store {
        ($addr:expr, $v:expr, $w:expr) => {{
            let addr: u64 = $addr;
            let v: u64 = $v;
            match mem.write_uint(addr, v, $w) {
                Ok(()) => {
                    if let Some(t) = tr.as_mut() {
                        t.set_mem_write(MemAccess {
                            addr,
                            value: v,
                            width: $w,
                        });
                    }
                }
                Err(f) => trap!(trap::BAD_MEM, Some(f.addr)),
            }
        }};
    }

    let mut effect = Effect::Continue;
    let mut new_pc = next;

    match insn {
        Insn::Alu3 { op, rd, rs, rt } => {
            let a = rr!(rs);
            let b = rr!(rt);
            let v = match op {
                Opcode::Add => a.wrapping_add(b),
                Opcode::Sub => a.wrapping_sub(b),
                Opcode::Mul => a.wrapping_mul(b),
                Opcode::Divu => {
                    if b == 0 {
                        trap!(trap::DIV_ZERO, None)
                    }
                    a / b
                }
                Opcode::Divs => {
                    if b == 0 {
                        trap!(trap::DIV_ZERO, None)
                    }
                    (a as i64).wrapping_div(b as i64) as u64
                }
                Opcode::Remu => {
                    if b == 0 {
                        trap!(trap::DIV_ZERO, None)
                    }
                    a % b
                }
                Opcode::Rems => {
                    if b == 0 {
                        trap!(trap::DIV_ZERO, None)
                    }
                    (a as i64).wrapping_rem(b as i64) as u64
                }
                Opcode::And => a & b,
                Opcode::Or => a | b,
                Opcode::Xor => a ^ b,
                Opcode::Shl => a.wrapping_shl(b as u32 & 63),
                Opcode::Shru => a.wrapping_shr(b as u32 & 63),
                Opcode::Shrs => ((a as i64).wrapping_shr(b as u32 & 63)) as u64,
                Opcode::Slt => ((a as i64) < (b as i64)) as u64,
                Opcode::Sltu => (a < b) as u64,
                _ => unreachable!("non-ALU3 opcode in Alu3"),
            };
            rw!(rd, v);
        }
        Insn::AluI { op, rd, rs, imm } => {
            let a = rr!(rs);
            let b = imm as i64 as u64;
            let v = match op {
                Opcode::AddI => a.wrapping_add(b),
                Opcode::MulI => a.wrapping_mul(b),
                Opcode::AndI => a & b,
                Opcode::OrI => a | b,
                Opcode::XorI => a ^ b,
                Opcode::ShlI => a.wrapping_shl(b as u32 & 63),
                Opcode::ShruI => a.wrapping_shr(b as u32 & 63),
                Opcode::ShrsI => ((a as i64).wrapping_shr(b as u32 & 63)) as u64,
                Opcode::SltI => ((a as i64) < (b as i64)) as u64,
                Opcode::SltuI => (a < b) as u64,
                _ => unreachable!("non-ALUI opcode in AluI"),
            };
            rw!(rd, v);
        }
        Insn::Mov { rd, rs } => {
            let v = rr!(rs);
            rw!(rd, v);
        }
        Insn::Not { rd, rs } => {
            let v = rr!(rs);
            rw!(rd, !v);
        }
        Insn::Neg { rd, rs } => {
            let v = rr!(rs);
            rw!(rd, v.wrapping_neg());
        }
        Insn::Li { rd, imm } => {
            rw!(rd, imm);
        }
        Insn::Load { op, rd, base, off } => {
            let b = rr!(base);
            let addr = b.wrapping_add(off as i64 as u64);
            let v = match op {
                Opcode::Lb => load!(addr, 1) as i8 as i64 as u64,
                Opcode::Lbu => load!(addr, 1),
                Opcode::Lh => load!(addr, 2) as i16 as i64 as u64,
                Opcode::Lhu => load!(addr, 2),
                Opcode::Lw => load!(addr, 4) as i32 as i64 as u64,
                Opcode::Lwu => load!(addr, 4),
                Opcode::Ld => load!(addr, 8),
                _ => unreachable!("non-load opcode in Load"),
            };
            rw!(rd, v);
        }
        Insn::Store { op, src, base, off } => {
            let v = rr!(src);
            let b = rr!(base);
            let addr = b.wrapping_add(off as i64 as u64);
            let w = match op {
                Opcode::Sb => 1,
                Opcode::Sh => 2,
                Opcode::Sw => 4,
                Opcode::Sd => 8,
                _ => unreachable!("non-store opcode in Store"),
            };
            let mask = if w == 8 {
                u64::MAX
            } else {
                (1u64 << (8 * w)) - 1
            };
            store!(addr, v & mask, w);
        }
        Insn::Push { rs } => {
            let v = rr!(rs);
            let sp = rr!(Reg::SP).wrapping_sub(8);
            store!(sp, v, 8);
            rw!(Reg::SP, sp);
        }
        Insn::Pop { rd } => {
            let sp = rr!(Reg::SP);
            let v = load!(sp, 8);
            rw!(rd, v);
            rw!(Reg::SP, sp.wrapping_add(8));
        }
        Insn::Branch { op, rs, rt, rel } => {
            let a = rr!(rs);
            let b = rr!(rt);
            let taken = match op {
                Opcode::Beq => a == b,
                Opcode::Bne => a != b,
                Opcode::Blt => (a as i64) < (b as i64),
                Opcode::Bge => (a as i64) >= (b as i64),
                Opcode::Bltu => a < b,
                Opcode::Bgeu => a >= b,
                _ => unreachable!("non-branch opcode in Branch"),
            };
            if let Some(t) = tr.as_mut() {
                t.set_taken(taken);
            }
            if taken {
                new_pc = pc.wrapping_add(rel as i64 as u64);
            }
        }
        Insn::Jmp { rel } => {
            new_pc = pc.wrapping_add(rel as i64 as u64);
        }
        Insn::Jr { rs } => {
            new_pc = rr!(rs);
        }
        Insn::Call { rel } => {
            rw!(Reg::RA, next);
            new_pc = pc.wrapping_add(rel as i64 as u64);
        }
        Insn::Callr { rs } => {
            let target = rr!(rs);
            rw!(Reg::RA, next);
            new_pc = target;
        }
        Insn::Ret => {
            new_pc = rr!(Reg::RA);
        }
        Insn::Sys => {
            // The machine performs the call; pc stays at the sys insn.
            effect = Effect::Sys;
            new_pc = pc;
        }
        Insn::Nop => {}
        Insn::Halt => {
            effect = Effect::Halt;
            new_pc = pc;
        }
        Insn::FAlu3 { op, fd, fs, ft } => {
            let a = fr!(fs);
            let b = fr!(ft);
            let v = match op {
                Opcode::FAdd => a + b,
                Opcode::FSub => a - b,
                Opcode::FMul => a * b,
                Opcode::FDiv => a / b,
                _ => unreachable!("non-FALU3 opcode"),
            };
            fw!(fd, v);
        }
        Insn::FAlu2 { op, fd, fs } => {
            let a = fr!(fs);
            let v = match op {
                Opcode::FSqrt => a.sqrt(),
                Opcode::FNeg => -a,
                Opcode::FMov => a,
                _ => unreachable!("non-FALU2 opcode"),
            };
            fw!(fd, v);
        }
        Insn::FLd { fd, base, off } => {
            let b = rr!(base);
            let addr = b.wrapping_add(off as i64 as u64);
            let bits = load!(addr, 8);
            fw!(fd, f64::from_bits(bits));
        }
        Insn::FSt { fs, base, off } => {
            let v = fr!(fs);
            let b = rr!(base);
            let addr = b.wrapping_add(off as i64 as u64);
            store!(addr, v.to_bits(), 8);
        }
        Insn::FLi { fd, bits } => {
            fw!(fd, f64::from_bits(bits));
        }
        Insn::FCvtSiToD { fd, rs } => {
            let v = rr!(rs);
            fw!(fd, v as i64 as f64);
        }
        Insn::FCvtDToSi { rd, fs } => {
            let v = fr!(fs);
            rw!(rd, v as i64 as u64);
        }
        Insn::FBranch { op, fs, ft, rel } => {
            let a = fr!(fs);
            let b = fr!(ft);
            let taken = match op {
                Opcode::FBeq => a == b,
                Opcode::FBlt => a < b,
                Opcode::FBle => a <= b,
                _ => unreachable!("non-FBranch opcode"),
            };
            if let Some(t) = tr.as_mut() {
                t.set_taken(taken);
            }
            if taken {
                new_pc = pc.wrapping_add(rel as i64 as u64);
            }
        }
        Insn::FBits { rd, fs } => {
            let v = fr!(fs);
            rw!(rd, v.to_bits());
        }
        Insn::FFromBits { fd, rs } => {
            let v = rr!(rs);
            fw!(fd, f64::from_bits(v));
        }
    }

    regs.pc = new_pc;
    StepOutcome { effect, step }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceStep;
    use bomblab_isa::FReg;

    fn setup() -> (Regs, Memory) {
        let mut mem = Memory::new();
        mem.map(0x1000, 0x1000);
        mem.map(0x8000, 0x1000);
        let mut regs = Regs::new();
        regs.pc = 0x1000;
        regs.set(Reg::SP, 0x8800);
        (regs, mem)
    }

    /// Executes with full tracing and returns the recorded step.
    fn run(insn: Insn, regs: &mut Regs, mem: &mut Memory) -> (StepOutcome, TraceStep) {
        let mut trace = Trace::new();
        let out = exec(insn, regs, mem, 0, 0, Some(&mut trace));
        let idx = out.step.expect("tracing was on");
        (out, trace.step(idx as usize))
    }

    #[test]
    fn r0_is_hardwired_zero() {
        let (mut regs, mut mem) = setup();
        run(
            Insn::Li {
                rd: Reg::ZERO,
                imm: 1234,
            },
            &mut regs,
            &mut mem,
        );
        assert_eq!(regs.get(Reg::ZERO), 0);
    }

    #[test]
    fn alu_arithmetic_wraps() {
        let (mut regs, mut mem) = setup();
        regs.set(Reg::A0, u64::MAX);
        regs.set(Reg::A1, 2);
        run(
            Insn::Alu3 {
                op: Opcode::Add,
                rd: Reg::A2,
                rs: Reg::A0,
                rt: Reg::A1,
            },
            &mut regs,
            &mut mem,
        );
        assert_eq!(regs.get(Reg::A2), 1);
        assert_eq!(regs.pc, 0x1004);
    }

    #[test]
    fn signed_and_unsigned_comparisons_differ() {
        let (mut regs, mut mem) = setup();
        regs.set(Reg::A0, u64::MAX); // -1 signed
        regs.set(Reg::A1, 1);
        run(
            Insn::Alu3 {
                op: Opcode::Slt,
                rd: Reg::A2,
                rs: Reg::A0,
                rt: Reg::A1,
            },
            &mut regs,
            &mut mem,
        );
        assert_eq!(regs.get(Reg::A2), 1, "-1 < 1 signed");
        run(
            Insn::Alu3 {
                op: Opcode::Sltu,
                rd: Reg::A2,
                rs: Reg::A0,
                rt: Reg::A1,
            },
            &mut regs,
            &mut mem,
        );
        assert_eq!(regs.get(Reg::A2), 0, "MAX > 1 unsigned");
    }

    #[test]
    fn division_by_zero_traps() {
        let (mut regs, mut mem) = setup();
        regs.set(Reg::A1, 0);
        let (out, t) = run(
            Insn::Alu3 {
                op: Opcode::Divs,
                rd: Reg::A2,
                rs: Reg::A0,
                rt: Reg::A1,
            },
            &mut regs,
            &mut mem,
        );
        match out.effect {
            Effect::Trap(f) => {
                assert_eq!(f.cause, trap::DIV_ZERO);
                assert_eq!(f.insn_len, 4);
            }
            other => panic!("expected trap, got {other:?}"),
        }
        assert_eq!(regs.pc, 0x1000, "pc unchanged on trap");
        assert_eq!(t.trap, Some(trap::DIV_ZERO));
    }

    #[test]
    fn int_min_div_minus_one_wraps() {
        let (mut regs, mut mem) = setup();
        regs.set(Reg::A0, i64::MIN as u64);
        regs.set(Reg::A1, u64::MAX);
        let (out, _) = run(
            Insn::Alu3 {
                op: Opcode::Divs,
                rd: Reg::A2,
                rs: Reg::A0,
                rt: Reg::A1,
            },
            &mut regs,
            &mut mem,
        );
        assert_eq!(out.effect, Effect::Continue);
        assert_eq!(regs.get(Reg::A2), i64::MIN as u64);
    }

    #[test]
    fn loads_extend_correctly() {
        let (mut regs, mut mem) = setup();
        mem.write_uint(0x8000, 0xFF, 1).unwrap();
        regs.set(Reg::A0, 0x8000);
        run(
            Insn::Load {
                op: Opcode::Lb,
                rd: Reg::A1,
                base: Reg::A0,
                off: 0,
            },
            &mut regs,
            &mut mem,
        );
        assert_eq!(regs.get(Reg::A1) as i64, -1);
        run(
            Insn::Load {
                op: Opcode::Lbu,
                rd: Reg::A1,
                base: Reg::A0,
                off: 0,
            },
            &mut regs,
            &mut mem,
        );
        assert_eq!(regs.get(Reg::A1), 0xFF);
    }

    #[test]
    fn store_truncates_to_width() {
        let (mut regs, mut mem) = setup();
        regs.set(Reg::A0, 0x8000);
        regs.set(Reg::A1, 0x1234_5678_9ABC_DEF0);
        mem.write_uint(0x8000, u64::MAX, 8).unwrap();
        run(
            Insn::Store {
                op: Opcode::Sh,
                src: Reg::A1,
                base: Reg::A0,
                off: 0,
            },
            &mut regs,
            &mut mem,
        );
        assert_eq!(mem.read_uint(0x8000, 8).unwrap(), 0xFFFF_FFFF_FFFF_DEF0);
    }

    #[test]
    fn unmapped_store_traps_with_address() {
        let (mut regs, mut mem) = setup();
        regs.set(Reg::A0, 0xdead_0000);
        let (out, _) = run(
            Insn::Store {
                op: Opcode::Sd,
                src: Reg::A1,
                base: Reg::A0,
                off: 0,
            },
            &mut regs,
            &mut mem,
        );
        match out.effect {
            Effect::Trap(f) => {
                assert_eq!(f.cause, trap::BAD_MEM);
                assert_eq!(f.addr, Some(0xdead_0000));
            }
            other => panic!("expected trap, got {other:?}"),
        }
    }

    #[test]
    fn push_pop_round_trip_and_sp_discipline() {
        let (mut regs, mut mem) = setup();
        regs.set(Reg::A0, 0xCAFE);
        let sp0 = regs.get(Reg::SP);
        run(Insn::Push { rs: Reg::A0 }, &mut regs, &mut mem);
        assert_eq!(regs.get(Reg::SP), sp0 - 8);
        run(Insn::Pop { rd: Reg::A1 }, &mut regs, &mut mem);
        assert_eq!(regs.get(Reg::A1), 0xCAFE);
        assert_eq!(regs.get(Reg::SP), sp0);
    }

    #[test]
    fn branch_taken_and_not_taken() {
        let (mut regs, mut mem) = setup();
        regs.set(Reg::A0, 5);
        regs.set(Reg::A1, 5);
        let (_, t) = run(
            Insn::Branch {
                op: Opcode::Beq,
                rs: Reg::A0,
                rt: Reg::A1,
                rel: 100,
            },
            &mut regs,
            &mut mem,
        );
        assert_eq!(regs.pc, 0x1000 + 100);
        assert_eq!(t.taken, Some(true));

        regs.pc = 0x1000;
        regs.set(Reg::A1, 6);
        let (_, t) = run(
            Insn::Branch {
                op: Opcode::Beq,
                rs: Reg::A0,
                rt: Reg::A1,
                rel: 100,
            },
            &mut regs,
            &mut mem,
        );
        assert_eq!(regs.pc, 0x1007, "fallthrough past 7-byte branch");
        assert_eq!(t.taken, Some(false));
    }

    #[test]
    fn call_sets_ra_and_ret_returns() {
        let (mut regs, mut mem) = setup();
        run(Insn::Call { rel: 0x40 }, &mut regs, &mut mem);
        assert_eq!(regs.pc, 0x1040);
        assert_eq!(regs.get(Reg::RA), 0x1005);
        run(Insn::Ret, &mut regs, &mut mem);
        assert_eq!(regs.pc, 0x1005);
    }

    #[test]
    fn indirect_jump_goes_to_register_value() {
        let (mut regs, mut mem) = setup();
        regs.set(Reg::A0, 0x1234);
        run(Insn::Jr { rs: Reg::A0 }, &mut regs, &mut mem);
        assert_eq!(regs.pc, 0x1234);
    }

    #[test]
    fn float_conversion_matches_paper_semantics() {
        let (mut regs, mut mem) = setup();
        regs.set(Reg::A0, (-3i64) as u64);
        run(
            Insn::FCvtSiToD {
                fd: FReg::new(0).unwrap(),
                rs: Reg::A0,
            },
            &mut regs,
            &mut mem,
        );
        assert_eq!(regs.fpr[0], -3.0);
        regs.fpr[1] = 2.9;
        run(
            Insn::FCvtDToSi {
                rd: Reg::A1,
                fs: FReg::new(1).unwrap(),
            },
            &mut regs,
            &mut mem,
        );
        assert_eq!(regs.get(Reg::A1), 2, "truncating conversion");
    }

    #[test]
    fn float_precision_loss_is_observable() {
        // The paper's floating-point bomb: 1024 + x == 1024 with x > 0 has
        // solutions over f64.
        let (mut regs, mut mem) = setup();
        regs.fpr[0] = 1024.0;
        regs.fpr[1] = 1e-14;
        run(
            Insn::FAlu3 {
                op: Opcode::FAdd,
                fd: FReg::new(2).unwrap(),
                fs: FReg::new(0).unwrap(),
                ft: FReg::new(1).unwrap(),
            },
            &mut regs,
            &mut mem,
        );
        assert_eq!(regs.fpr[2], 1024.0, "tiny addend is absorbed");
    }

    #[test]
    fn sys_and_halt_do_not_advance_pc() {
        let (mut regs, mut mem) = setup();
        let (out, _) = run(Insn::Sys, &mut regs, &mut mem);
        assert_eq!(out.effect, Effect::Sys);
        assert_eq!(regs.pc, 0x1000);
        let (out, _) = run(Insn::Halt, &mut regs, &mut mem);
        assert_eq!(out.effect, Effect::Halt);
    }

    #[test]
    fn step_fetches_and_decodes_from_memory() {
        let (mut regs, mut mem) = setup();
        let mut bytes = Vec::new();
        Insn::Li {
            rd: Reg::A0,
            imm: 7,
        }
        .encode(&mut bytes);
        mem.write_bytes(0x1000, &bytes).unwrap();
        let out = step(&mut regs, &mut mem, 0, 0, None);
        assert_eq!(out.effect, Effect::Continue);
        assert_eq!(regs.get(Reg::A0), 7);
        assert_eq!(regs.pc, 0x100a);
    }

    #[test]
    fn step_traps_on_unmapped_pc_and_bad_opcode() {
        let (mut regs, mut mem) = setup();
        regs.pc = 0x5000_0000;
        let out = step(&mut regs, &mut mem, 0, 0, None);
        assert!(matches!(
            out.effect,
            Effect::Trap(Fault {
                cause: trap::BAD_MEM,
                ..
            })
        ));
        regs.pc = 0x1000;
        mem.write_u8(0x1000, 0xEE).unwrap();
        let out = step(&mut regs, &mut mem, 0, 0, None);
        assert!(matches!(
            out.effect,
            Effect::Trap(Fault {
                cause: trap::BAD_INSN,
                ..
            })
        ));
    }

    #[test]
    fn trace_records_reads_and_writes() {
        let (mut regs, mut mem) = setup();
        regs.set(Reg::A0, 3);
        regs.set(Reg::A1, 4);
        let (_, t) = run(
            Insn::Alu3 {
                op: Opcode::Add,
                rd: Reg::A2,
                rs: Reg::A0,
                rt: Reg::A1,
            },
            &mut regs,
            &mut mem,
        );
        assert_eq!(t.reg_reads, vec![(Reg::A0, 3), (Reg::A1, 4)]);
        assert_eq!(t.reg_writes, vec![(Reg::A2, 7)]);
    }
}
