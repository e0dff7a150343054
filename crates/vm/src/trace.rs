//! Instruction traces — the VM's equivalent of an Intel Pin tool.
//!
//! The trace is stored as a flat **arena**: one contiguous step table
//! ([`StepRec`], private) plus side arenas for register/float operands,
//! memory accesses, and the rare payloads (syscalls, traps). Every step
//! records every operand value. Recording a step is a handful of
//! bump-pointer appends with zero steady-state heap allocation, which
//! keeps traced runs close to untraced speed.
//!
//! Consumers read steps through [`StepView`], a cheap `Copy` view whose
//! fields mirror the legacy [`TraceStep`] struct (which survives as an
//! owned materialization for tests and differential harnesses).

use bomblab_isa::{FReg, Insn, Reg};

/// One memory access performed by an instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemAccess {
    /// Effective address.
    pub addr: u64,
    /// Value transferred (zero-extended into 64 bits, little-endian).
    pub value: u64,
    /// Access width in bytes.
    pub width: u8,
}

/// Where input bytes delivered by a syscall came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InputSource {
    /// Standard input.
    Stdin,
    /// A file in the simulated filesystem.
    File(String),
    /// A pipe (identified by its kernel id).
    Pipe(usize),
    /// The simulated network.
    Net,
}

/// Where output bytes sent by a syscall went.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OutputSink {
    /// Standard output.
    Stdout,
    /// A file in the simulated filesystem.
    File(String),
    /// A pipe (identified by its kernel id).
    Pipe(usize),
}

/// Data-flow relevant side effects of a syscall, recorded for taint
/// tracking.
#[derive(Debug, Clone, PartialEq)]
pub enum SysEffect {
    /// No data-flow effect (e.g. `getpid`).
    None,
    /// Bytes were copied *into* guest memory (`read`, `net_get`).
    InputBytes {
        /// Destination buffer address.
        addr: u64,
        /// The bytes delivered.
        bytes: Vec<u8>,
        /// Their origin.
        source: InputSource,
        /// Byte offset within the source stream (file position, cumulative
        /// pipe/stdin position; 0 for net).
        offset: u64,
    },
    /// Bytes were copied *out of* guest memory (`write`).
    OutputBytes {
        /// Source buffer address.
        addr: u64,
        /// The bytes sent.
        bytes: Vec<u8>,
        /// Their destination.
        sink: OutputSink,
        /// Byte offset within the sink stream (file position, cumulative
        /// pipe/stdout position).
        offset: u64,
    },
    /// A file was opened; `path` is the NUL-terminated name that was read
    /// from guest memory.
    OpenedFile {
        /// The path bytes.
        path: Vec<u8>,
        /// Resulting descriptor (`-1` on failure).
        fd: i64,
    },
    /// `fork` created a child process.
    Forked {
        /// The child pid (the child observes return value 0).
        child: u32,
    },
    /// `thread_spawn` created a thread.
    SpawnedThread {
        /// New thread id.
        tid: u32,
        /// Entry address.
        entry: u64,
        /// Argument passed in `a0`.
        arg: u64,
    },
    /// `pipe` allocated descriptors and wrote them to guest memory.
    PipeCreated {
        /// Read-end descriptor.
        rfd: i64,
        /// Write-end descriptor.
        wfd: i64,
        /// Address the fd pair was written to.
        addr: u64,
    },
}

/// A completed syscall.
#[derive(Debug, Clone, PartialEq)]
pub struct SyscallRecord {
    /// Syscall number (the value of `sv`).
    pub num: u64,
    /// Arguments `a0..a5` at entry.
    pub args: [u64; 6],
    /// Return value placed in `a0`.
    pub ret: u64,
    /// Data-flow effect.
    pub effect: SysEffect,
}

/// One executed instruction with everything it observed and did — the
/// legacy owned representation, materialized on demand from the arena
/// (see [`StepView::to_step`]). The rare syscall payload is boxed so the
/// common-case step stays small.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStep {
    /// Process id.
    pub pid: u32,
    /// Thread id (unique within the machine).
    pub tid: u32,
    /// Address of the instruction.
    pub pc: u64,
    /// The decoded instruction.
    pub insn: Insn,
    /// Values of general registers read, in operand order.
    pub reg_reads: Vec<(Reg, u64)>,
    /// Values of floating-point registers read.
    pub freg_reads: Vec<(FReg, f64)>,
    /// General registers written with their new values.
    pub reg_writes: Vec<(Reg, u64)>,
    /// Floating-point registers written with their new values.
    pub freg_writes: Vec<(FReg, f64)>,
    /// Memory read performed, if any.
    pub mem_read: Option<MemAccess>,
    /// Memory write performed, if any.
    pub mem_write: Option<MemAccess>,
    /// For conditional branches: whether the branch was taken.
    pub taken: Option<bool>,
    /// For `sys`: the completed syscall (boxed — rare payload).
    pub sys: Option<Box<SyscallRecord>>,
    /// Trap cause if this instruction trapped (see [`bomblab_isa::trap`]).
    pub trap: Option<u64>,
}

impl TraceStep {
    /// Creates an empty step for `insn` at `pc` (builder-style, used by
    /// tests).
    pub fn new(pid: u32, tid: u32, pc: u64, insn: Insn) -> TraceStep {
        TraceStep {
            pid,
            tid,
            pc,
            insn,
            reg_reads: Vec::new(),
            freg_reads: Vec::new(),
            reg_writes: Vec::new(),
            freg_writes: Vec::new(),
            mem_read: None,
            mem_write: None,
            taken: None,
            sys: None,
            trap: None,
        }
    }
}

/// A borrowed view of one recorded step. Field names mirror [`TraceStep`]
/// so consumer code reads identically; operand lists are slices into the
/// trace's side arenas.
#[derive(Debug, Clone, Copy)]
pub struct StepView<'a> {
    /// Process id.
    pub pid: u32,
    /// Thread id (unique within the machine).
    pub tid: u32,
    /// Address of the instruction.
    pub pc: u64,
    /// The decoded instruction.
    pub insn: Insn,
    /// Values of general registers read, in operand order.
    pub reg_reads: &'a [(Reg, u64)],
    /// Values of floating-point registers read.
    pub freg_reads: &'a [(FReg, f64)],
    /// General registers written with their new values.
    pub reg_writes: &'a [(Reg, u64)],
    /// Floating-point registers written with their new values.
    pub freg_writes: &'a [(FReg, f64)],
    /// Memory read performed, if any.
    pub mem_read: Option<MemAccess>,
    /// Memory write performed, if any.
    pub mem_write: Option<MemAccess>,
    /// For conditional branches: whether the branch was taken.
    pub taken: Option<bool>,
    /// For `sys`: the completed syscall.
    pub sys: Option<&'a SyscallRecord>,
    /// Trap cause if this instruction trapped.
    pub trap: Option<u64>,
}

impl StepView<'_> {
    /// Materializes the legacy owned representation.
    pub fn to_step(&self) -> TraceStep {
        TraceStep {
            pid: self.pid,
            tid: self.tid,
            pc: self.pc,
            insn: self.insn,
            reg_reads: self.reg_reads.to_vec(),
            freg_reads: self.freg_reads.to_vec(),
            reg_writes: self.reg_writes.to_vec(),
            freg_writes: self.freg_writes.to_vec(),
            mem_read: self.mem_read,
            mem_write: self.mem_write,
            taken: self.taken,
            sys: self.sys.map(|r| Box::new(r.clone())),
            trap: self.trap,
        }
    }
}

// Step flags (packed into `StepRec::flags`).
const F_TAKEN_SET: u8 = 1 << 0;
const F_TAKEN: u8 = 1 << 1;
const F_MEM_READ: u8 = 1 << 2;
const F_MEM_WRITE: u8 = 1 << 3;
const F_SYS: u8 = 1 << 4;
const F_TRAP: u8 = 1 << 5;

/// One row of the step table: fixed-size, operands live in side arenas.
#[derive(Debug, Clone, Copy, PartialEq)]
struct StepRec {
    pc: u64,
    insn: Insn,
    pid: u32,
    tid: u32,
    reg_start: u32,
    freg_start: u32,
    mem_start: u32,
    reg_reads: u8,
    reg_writes: u8,
    freg_reads: u8,
    freg_writes: u8,
    flags: u8,
}

/// A full execution trace, arena-backed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    steps: Vec<StepRec>,
    /// Per-step register operands: reads first, then writes.
    reg_ops: Vec<(Reg, u64)>,
    freg_ops: Vec<(FReg, f64)>,
    /// At most one access per step (reads and writes never co-occur).
    mem_ops: Vec<MemAccess>,
    /// Rare payloads, keyed by step index, sorted by construction.
    sys: Vec<(u32, SyscallRecord)>,
    traps: Vec<(u32, u64)>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Trace {
        Trace::default()
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Bytes held by the step table and side arenas (by length, not
    /// capacity — the recorded data, not the allocator's slack).
    pub fn arena_bytes(&self) -> u64 {
        use std::mem::size_of;
        (self.steps.len() * size_of::<StepRec>()
            + self.reg_ops.len() * size_of::<(Reg, u64)>()
            + self.freg_ops.len() * size_of::<(FReg, f64)>()
            + self.mem_ops.len() * size_of::<MemAccess>()
            + self.sys.len() * size_of::<(u32, SyscallRecord)>()
            + self.traps.len() * size_of::<(u32, u64)>()) as u64
    }

    // ---- recording (used by the CPU and the machine) ----

    /// Starts a new step, returning its index. Operand pushes and flag
    /// setters below always target the *last* started step.
    pub fn begin_step(&mut self, pid: u32, tid: u32, pc: u64, insn: Insn) -> u32 {
        let idx = self.steps.len() as u32;
        self.steps.push(StepRec {
            pc,
            insn,
            pid,
            tid,
            reg_start: self.reg_ops.len() as u32,
            freg_start: self.freg_ops.len() as u32,
            mem_start: self.mem_ops.len() as u32,
            reg_reads: 0,
            reg_writes: 0,
            freg_reads: 0,
            freg_writes: 0,
            flags: 0,
        });
        idx
    }

    /// Records a general-register read on the last step.
    #[inline]
    pub fn push_reg_read(&mut self, r: Reg, v: u64) {
        self.reg_ops.push((r, v));
        if let Some(rec) = self.steps.last_mut() {
            debug_assert_eq!(rec.reg_writes, 0, "reads must precede writes");
            rec.reg_reads += 1;
        }
    }

    /// Records a general-register write on the last step.
    #[inline]
    pub fn push_reg_write(&mut self, r: Reg, v: u64) {
        self.reg_ops.push((r, v));
        if let Some(rec) = self.steps.last_mut() {
            rec.reg_writes += 1;
        }
    }

    /// Records a float-register read on the last step.
    #[inline]
    pub fn push_freg_read(&mut self, r: FReg, v: f64) {
        self.freg_ops.push((r, v));
        if let Some(rec) = self.steps.last_mut() {
            debug_assert_eq!(rec.freg_writes, 0, "reads must precede writes");
            rec.freg_reads += 1;
        }
    }

    /// Records a float-register write on the last step.
    #[inline]
    pub fn push_freg_write(&mut self, r: FReg, v: f64) {
        self.freg_ops.push((r, v));
        if let Some(rec) = self.steps.last_mut() {
            rec.freg_writes += 1;
        }
    }

    /// Records the memory read of the last step.
    #[inline]
    pub fn set_mem_read(&mut self, acc: MemAccess) {
        self.mem_ops.push(acc);
        if let Some(rec) = self.steps.last_mut() {
            rec.flags |= F_MEM_READ;
        }
    }

    /// Records the memory write of the last step.
    #[inline]
    pub fn set_mem_write(&mut self, acc: MemAccess) {
        self.mem_ops.push(acc);
        if let Some(rec) = self.steps.last_mut() {
            rec.flags |= F_MEM_WRITE;
        }
    }

    /// Records the branch direction of the last step.
    #[inline]
    pub fn set_taken(&mut self, taken: bool) {
        if let Some(rec) = self.steps.last_mut() {
            rec.flags |= F_TAKEN_SET;
            if taken {
                rec.flags |= F_TAKEN;
            }
        }
    }

    /// Records the trap cause of the last step.
    pub fn set_trap(&mut self, cause: u64) {
        if let Some(rec) = self.steps.last_mut() {
            rec.flags |= F_TRAP;
            let idx = (self.steps.len() - 1) as u32;
            self.traps.push((idx, cause));
        }
    }

    /// Attaches the completed syscall to step `idx` (always the last step:
    /// the machine settles a `sys` effect before any other thread runs).
    pub fn attach_sys(&mut self, idx: u32, record: SyscallRecord) {
        debug_assert_eq!(idx as usize + 1, self.steps.len(), "sys step is last");
        if let Some(rec) = self.steps.get_mut(idx as usize) {
            rec.flags |= F_SYS;
            self.sys.push((idx, record));
        }
    }

    /// Removes step `idx` (must be the last step) — used when a syscall
    /// blocks and the instruction will re-execute later.
    pub fn pop_last(&mut self, idx: u32) {
        debug_assert_eq!(
            idx as usize + 1,
            self.steps.len(),
            "can only pop the last step"
        );
        let Some(rec) = self.steps.pop() else { return };
        self.reg_ops.truncate(rec.reg_start as usize);
        self.freg_ops.truncate(rec.freg_start as usize);
        self.mem_ops.truncate(rec.mem_start as usize);
        while self.sys.last().is_some_and(|e| e.0 == idx) {
            self.sys.pop();
        }
        while self.traps.last().is_some_and(|e| e.0 == idx) {
            self.traps.pop();
        }
    }

    /// Appends a legacy step (test builders, trace filtering).
    pub fn push_step(&mut self, step: &TraceStep) {
        let idx = self.begin_step(step.pid, step.tid, step.pc, step.insn);
        for &(r, v) in &step.reg_reads {
            self.push_reg_read(r, v);
        }
        for &(r, v) in &step.freg_reads {
            self.push_freg_read(r, v);
        }
        for &(r, v) in &step.reg_writes {
            self.push_reg_write(r, v);
        }
        for &(r, v) in &step.freg_writes {
            self.push_freg_write(r, v);
        }
        if let Some(acc) = step.mem_read {
            self.set_mem_read(acc);
        }
        if let Some(acc) = step.mem_write {
            self.set_mem_write(acc);
        }
        if let Some(taken) = step.taken {
            self.set_taken(taken);
        }
        if let Some(cause) = step.trap {
            self.set_trap(cause);
        }
        if let Some(rec) = &step.sys {
            self.attach_sys(idx, (**rec).clone());
        }
    }

    fn append_view(&mut self, v: StepView<'_>) {
        let idx = self.begin_step(v.pid, v.tid, v.pc, v.insn);
        for &(r, val) in v.reg_reads {
            self.push_reg_read(r, val);
        }
        for &(r, val) in v.freg_reads {
            self.push_freg_read(r, val);
        }
        for &(r, val) in v.reg_writes {
            self.push_reg_write(r, val);
        }
        for &(r, val) in v.freg_writes {
            self.push_freg_write(r, val);
        }
        if let Some(acc) = v.mem_read {
            self.set_mem_read(acc);
        }
        if let Some(acc) = v.mem_write {
            self.set_mem_write(acc);
        }
        if let Some(taken) = v.taken {
            self.set_taken(taken);
        }
        if let Some(cause) = v.trap {
            self.set_trap(cause);
        }
        if let Some(rec) = v.sys {
            self.sys.push((idx, rec.clone()));
            if let Some(r) = self.steps.last_mut() {
                r.flags |= F_SYS;
            }
        }
    }

    /// A new trace containing only the steps `keep` accepts, in order.
    pub fn filter(&self, mut keep: impl FnMut(StepView<'_>) -> bool) -> Trace {
        let mut out = Trace::new();
        for v in self.iter() {
            if keep(v) {
                out.append_view(v);
            }
        }
        out
    }

    // ---- reading ----

    /// The view of step `idx`. Panics if out of range.
    pub fn view(&self, idx: usize) -> StepView<'_> {
        let rec = &self.steps[idx];
        let rs = rec.reg_start as usize;
        let nrr = rec.reg_reads as usize;
        let nrw = rec.reg_writes as usize;
        let fs = rec.freg_start as usize;
        let nfr = rec.freg_reads as usize;
        let nfw = rec.freg_writes as usize;
        let mem = ((rec.flags & (F_MEM_READ | F_MEM_WRITE)) != 0)
            .then(|| self.mem_ops[rec.mem_start as usize]);
        StepView {
            pid: rec.pid,
            tid: rec.tid,
            pc: rec.pc,
            insn: rec.insn,
            reg_reads: &self.reg_ops[rs..rs + nrr],
            reg_writes: &self.reg_ops[rs + nrr..rs + nrr + nrw],
            freg_reads: &self.freg_ops[fs..fs + nfr],
            freg_writes: &self.freg_ops[fs + nfr..fs + nfr + nfw],
            mem_read: if rec.flags & F_MEM_READ != 0 {
                mem
            } else {
                None
            },
            mem_write: if rec.flags & F_MEM_WRITE != 0 {
                mem
            } else {
                None
            },
            taken: (rec.flags & F_TAKEN_SET != 0).then_some(rec.flags & F_TAKEN != 0),
            sys: (rec.flags & F_SYS != 0).then(|| {
                let i = self
                    .sys
                    .binary_search_by_key(&(idx as u32), |e| e.0)
                    .expect("F_SYS implies a side-table entry");
                &self.sys[i].1
            }),
            trap: (rec.flags & F_TRAP != 0).then(|| {
                let i = self
                    .traps
                    .binary_search_by_key(&(idx as u32), |e| e.0)
                    .expect("F_TRAP implies a side-table entry");
                self.traps[i].1
            }),
        }
    }

    /// The pc of step `idx` without building a view.
    pub fn pc_at(&self, idx: usize) -> u64 {
        self.steps[idx].pc
    }

    /// Materializes step `idx` as a legacy [`TraceStep`].
    pub fn step(&self, idx: usize) -> TraceStep {
        self.view(idx).to_step()
    }

    /// Materializes the whole trace as legacy steps (tests, differential
    /// harnesses).
    pub fn to_steps(&self) -> Vec<TraceStep> {
        self.iter().map(|v| v.to_step()).collect()
    }

    /// Iterates over the steps as views.
    pub fn iter(&self) -> Steps<'_> {
        Steps { t: self, idx: 0 }
    }

    /// Whether any step executed at `pc` (in any process/thread).
    pub fn visited(&self, pc: u64) -> bool {
        self.steps.iter().any(|s| s.pc == pc)
    }

    /// Steps belonging to one (pid, tid) pair, in order.
    pub fn thread_steps(&self, pid: u32, tid: u32) -> impl Iterator<Item = StepView<'_>> {
        self.iter().filter(move |s| s.pid == pid && s.tid == tid)
    }
}

/// Iterator over a trace's steps as [`StepView`]s.
#[derive(Debug, Clone)]
pub struct Steps<'a> {
    t: &'a Trace,
    idx: usize,
}

impl<'a> Iterator for Steps<'a> {
    type Item = StepView<'a>;

    fn next(&mut self) -> Option<StepView<'a>> {
        if self.idx >= self.t.len() {
            return None;
        }
        let v = self.t.view(self.idx);
        self.idx += 1;
        Some(v)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.t.len() - self.idx;
        (n, Some(n))
    }
}

impl ExactSizeIterator for Steps<'_> {}

impl<'a> IntoIterator for &'a Trace {
    type Item = StepView<'a>;
    type IntoIter = Steps<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn visited_and_thread_filtering() {
        let mut t = Trace::new();
        t.push_step(&TraceStep::new(0, 0, 0x1000, Insn::Nop));
        t.push_step(&TraceStep::new(0, 1, 0x2000, Insn::Nop));
        t.push_step(&TraceStep::new(1, 2, 0x3000, Insn::Halt));
        assert!(t.visited(0x2000));
        assert!(!t.visited(0x4000));
        assert_eq!(t.thread_steps(0, 1).count(), 1);
        assert_eq!(t.thread_steps(0, 0).next().unwrap().pc, 0x1000);
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
    }

    #[test]
    fn arena_round_trips_operands_and_payloads() {
        let mut t = Trace::new();
        let mut s = TraceStep::new(1, 2, 0x10, Insn::Nop);
        s.reg_reads = vec![(Reg::A0, 3), (Reg::A1, 4)];
        s.reg_writes = vec![(Reg::A2, 7)];
        s.mem_read = Some(MemAccess {
            addr: 0x800,
            value: 9,
            width: 8,
        });
        s.taken = Some(true);
        t.push_step(&s);
        let mut sys_step = TraceStep::new(1, 2, 0x14, Insn::Sys);
        sys_step.sys = Some(Box::new(SyscallRecord {
            num: 3,
            args: [1, 2, 3, 4, 5, 6],
            ret: 0,
            effect: SysEffect::None,
        }));
        t.push_step(&sys_step);
        let mut trap_step = TraceStep::new(1, 2, 0x18, Insn::Nop);
        trap_step.trap = Some(2);
        t.push_step(&trap_step);

        assert_eq!(t.to_steps(), vec![s.clone(), sys_step, trap_step]);
        let v = t.view(0);
        assert_eq!(v.reg_reads, &[(Reg::A0, 3), (Reg::A1, 4)]);
        assert_eq!(v.reg_writes, &[(Reg::A2, 7)]);
        assert_eq!(v.taken, Some(true));
        assert_eq!(t.view(1).sys.unwrap().num, 3);
        assert_eq!(t.view(2).trap, Some(2));
        assert_eq!(t.pc_at(2), 0x18);
        assert!(t.arena_bytes() > 0);
    }

    #[test]
    fn pop_last_unwinds_a_blocked_syscall_step() {
        let mut t = Trace::new();
        t.begin_step(0, 0, 0x100, Insn::Nop);
        t.push_reg_read(Reg::A0, 1);
        let idx = t.begin_step(0, 0, 0x104, Insn::Sys);
        t.pop_last(idx);
        assert_eq!(t.len(), 1);
        assert_eq!(t.view(0).reg_reads, &[(Reg::A0, 1)]);
    }

    #[test]
    fn filter_preserves_step_content() {
        let mut t = Trace::new();
        let mut a = TraceStep::new(0, 0, 0x10, Insn::Nop);
        a.reg_reads = vec![(Reg::A0, 1)];
        t.push_step(&a);
        let b = TraceStep::new(1, 1, 0x20, Insn::Nop);
        t.push_step(&b);
        let kept = t.filter(|s| s.pid == 0);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept.to_steps(), vec![a]);
    }
}
