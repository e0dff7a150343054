//! Differential property tests for the arena-backed trace: the arena
//! recording path and the legacy `TraceStep` append path converge to the
//! exact same trace (round-trip through `to_steps` / `push_step` is the
//! identity).

use bomblab_isa::asm::assemble;
use bomblab_isa::link::Linker;
use bomblab_isa::{FReg, Insn, Reg};
use bomblab_vm::{Machine, MachineConfig, MemAccess, SysEffect, SyscallRecord, Trace, TraceStep};
use proptest::prelude::*;
use std::fmt::Write as _;

/// One filler instruction from a trap-free menu: integer ALU, aligned
/// loads/stores against `scratch` (in `s7`), and float arithmetic so the
/// freg arena sees traffic too.
fn filler_line(out: &mut String, choice: u8, imm: i16) {
    let imm = i64::from(imm);
    match choice % 10 {
        0 => {
            let _ = writeln!(out, "    li   t2, {imm}");
        }
        1 => {
            let _ = writeln!(out, "    addi t2, t2, {}", imm % 128);
        }
        2 => {
            let _ = writeln!(out, "    add  t3, t3, t2");
        }
        3 => {
            let _ = writeln!(out, "    xor  t3, t3, t2");
        }
        4 => {
            let _ = writeln!(out, "    mul  t3, t3, t2");
        }
        5 => {
            let _ = writeln!(out, "    sb   [s7+{}], t3", imm.rem_euclid(56));
        }
        6 => {
            let _ = writeln!(out, "    ld   t4, [s7+{}]", imm.rem_euclid(7) * 8);
        }
        7 => {
            let _ = writeln!(out, "    fli  f1, {}.5", imm % 64);
        }
        8 => {
            let _ = writeln!(out, "    fadd f2, f2, f1");
        }
        _ => {
            let _ = writeln!(out, "    nop");
        }
    }
}

/// A random straight-line body wrapped in a two-iteration loop (so
/// conditional branches record both directions), ending in a clean exit.
fn build_program(body: &[(u8, i16)], tail: &[(u8, i16)]) -> String {
    let mut src = String::from(
        "
.text
.global _start
_start:
    li   s7, scratch
    li   t0, 0
head:
",
    );
    for &(c, i) in body {
        filler_line(&mut src, c, i);
    }
    src.push_str(
        "    addi t0, t0, 1
    li   t1, 2
    blt  t0, t1, head
",
    );
    for &(c, i) in tail {
        filler_line(&mut src, c, i);
    }
    src.push_str(
        "    li   a0, 0
    li   sv, 0
    sys
.data
scratch:
    .quad 0, 0, 0, 0, 0, 0, 0, 0
",
    );
    src
}

fn run_traced(src: &str) -> Machine {
    let obj = assemble(src).expect("generated program assembles");
    let image = Linker::new()
        .add_object(obj)
        .link()
        .expect("generated program links");
    let config = MachineConfig {
        trace: true,
        step_budget: 50_000,
        ..MachineConfig::default()
    };
    let mut machine = Machine::load(&image, None, config).expect("image loads");
    let result = machine.run();
    assert_eq!(result.status.exit_code(), Some(0), "clean exit: {src}");
    machine
}

/// Decodes one arbitrary legacy step from a compact seed. The operand
/// mix is unconstrained on purpose — the arena must round-trip whatever
/// a recorder could emit: any operand counts, an optional memory access,
/// branch direction, trap cause, and a rare syscall payload.
fn arb_step(pc: u64, a: u64, b: u64, shape: u8, ra: u8, rb: u8) -> TraceStep {
    let pid = 1 + u32::from(shape >> 6 & 1);
    let tid = 1 + u32::from(shape >> 5 & 1);
    let mut step = TraceStep::new(pid, tid, pc, Insn::Nop);
    for i in 0..ra % 3 {
        step.reg_reads
            .push((Reg::new((ra + i) % 32).unwrap(), a ^ u64::from(i)));
    }
    for i in 0..rb % 3 {
        step.reg_writes
            .push((Reg::new((rb + i) % 32).unwrap(), b ^ u64::from(i)));
    }
    if ra & 0x10 != 0 {
        let f = FReg::new(rb % 16).unwrap();
        step.freg_reads.push((f, a as f64));
        step.freg_writes.push((f, b as f64 * 0.5));
    }
    if shape & 4 != 0 {
        let acc = MemAccess {
            addr: a,
            value: b,
            width: [1, 2, 4, 8][rb as usize % 4],
        };
        if shape & 8 != 0 {
            step.mem_write = Some(acc);
        } else {
            step.mem_read = Some(acc);
        }
    }
    if shape & 16 != 0 {
        step.taken = Some(shape & 32 != 0);
    }
    if shape & 64 != 0 {
        step.trap = Some(b & 0xff);
    }
    if shape & 128 != 0 {
        step.sys = Some(Box::new(SyscallRecord {
            num: 4,
            args: [pc, a, b, 0, 0, 0],
            ret: 0,
            effect: SysEffect::None,
        }));
    }
    step
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary legacy steps survive `push_step` → `to_steps` unchanged,
    /// and the arena's accounting matches the stream it holds.
    #[test]
    fn push_step_to_steps_round_trips(
        raw in proptest::collection::vec(
            (any::<u64>(), any::<u64>(), any::<u64>(), any::<u8>(), any::<u8>(), any::<u8>()),
            0..12,
        ),
    ) {
        let steps: Vec<TraceStep> = raw
            .iter()
            .map(|&(pc, a, b, shape, ra, rb)| arb_step(pc, a, b, shape, ra, rb))
            .collect();
        let mut trace = Trace::new();
        for step in &steps {
            trace.push_step(step);
        }
        prop_assert_eq!(trace.len(), steps.len());
        prop_assert_eq!(trace.to_steps(), steps);
        for (i, v) in trace.iter().enumerate() {
            prop_assert_eq!(v.pc, steps[i].pc, "pc at {}", i);
        }
    }

    /// The VM's arena recording path produces the exact trace the legacy
    /// append path would: materializing every step and re-appending
    /// through `push_step` rebuilds a bit-identical arena.
    #[test]
    fn arena_recording_matches_legacy_append(
        body in proptest::collection::vec((any::<u8>(), any::<i16>()), 1..10),
        tail in proptest::collection::vec((any::<u8>(), any::<i16>()), 1..6),
    ) {
        let src = build_program(&body, &tail);
        let machine = run_traced(&src);
        let trace = machine.trace();

        let legacy: Vec<TraceStep> = trace.to_steps();
        let mut rebuilt = Trace::new();
        for step in &legacy {
            rebuilt.push_step(step);
        }
        prop_assert_eq!(&rebuilt, trace, "append path diverged from recorder");
        prop_assert_eq!(rebuilt.arena_bytes(), trace.arena_bytes());
        prop_assert_eq!(rebuilt.to_steps(), legacy);
    }
}
