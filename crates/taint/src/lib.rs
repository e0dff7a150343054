//! # bomblab-taint — forward dynamic taint analysis
//!
//! The trace-filtering stage of the paper's framework (Figure 1): walk an
//! execution trace and mark every value derived from symbolic inputs. The
//! concolic engine uses the result to
//!
//! * keep only taint-relevant instructions for constraint extraction,
//! * find branches whose conditions are symbolic,
//! * detect symbolic-address loads/stores (the symbolic-array challenge),
//!   symbolic indirect-jump targets (symbolic jump), and symbolic syscall
//!   arguments/numbers (contextual symbolic values),
//! * measure the Figure-3 instruction inflation caused by library calls.
//!
//! A [`TaintPolicy`] describes which input sources a tool symbolizes
//! (`Es0` failures come from missing sources) and which propagation paths
//! it tracks (`Es2` failures come from dropped flows: files, pipes,
//! threads, child processes). The omniscient policy ([`TaintPolicy::omniscient`])
//! tracks everything and is used as ground truth by the failure diagnosis.

#![warn(missing_docs)]

use bomblab_ir::{lift, Atom, Place, Stmt, SupportMatrix};
use bomblab_isa::{sys, Reg};
use bomblab_vm::{InputSource, OutputSink, SysEffect, Trace};
use std::collections::{BTreeMap, HashMap, HashSet};

/// Which input sources carry taint (i.e. are declared symbolic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaintSources {
    /// Program arguments (`argv[1..]`).
    pub argv: bool,
    /// Bytes read from standard input.
    pub stdin: bool,
    /// The `time` syscall's return value.
    pub time: bool,
    /// Bytes delivered by `net_get`.
    pub net: bool,
    /// Return values of "environment" syscalls (`getpid`, `getuid`).
    pub sys_returns: bool,
}

impl TaintSources {
    /// Only `argv` — what every tool in the paper's study symbolizes.
    pub fn argv_only() -> TaintSources {
        TaintSources {
            argv: true,
            stdin: false,
            time: false,
            net: false,
            sys_returns: false,
        }
    }

    /// Every source.
    pub fn all() -> TaintSources {
        TaintSources {
            argv: true,
            stdin: true,
            time: true,
            net: true,
            sys_returns: true,
        }
    }
}

/// Which propagation paths are tracked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaintPolicy {
    /// Taint sources.
    pub sources: TaintSources,
    /// Follow taint through file writes and re-reads.
    pub through_files: bool,
    /// Follow taint through pipes.
    pub through_pipes: bool,
    /// Track taint in spawned threads.
    pub across_threads: bool,
    /// Track taint in forked child processes.
    pub across_processes: bool,
    /// Loads from a tainted *address* taint the result (needed to even see
    /// the symbolic-array challenge).
    pub through_pointers: bool,
}

impl TaintPolicy {
    /// Ground truth: every source, every propagation path.
    pub fn omniscient() -> TaintPolicy {
        TaintPolicy {
            sources: TaintSources::all(),
            through_files: true,
            through_pipes: true,
            across_threads: true,
            across_processes: true,
            through_pointers: true,
        }
    }

    /// A typical real-tool policy: argv only, no covert flows.
    pub fn argv_direct_only() -> TaintPolicy {
        TaintPolicy {
            sources: TaintSources::argv_only(),
            through_files: false,
            through_pipes: false,
            across_threads: false,
            across_processes: false,
            through_pointers: true,
        }
    }
}

/// Where a policy dropped a tainted flow (used for `Es2` diagnosis).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaintLoss {
    /// Tainted bytes written to a file with `through_files` off.
    FileWrite,
    /// Tainted bytes written to a pipe with `through_pipes` off.
    PipeWrite,
    /// Tainted data crossed `fork` with `across_processes` off.
    ForkChild,
    /// Tainted argument crossed `thread_spawn` with `across_threads` off.
    ThreadSpawn,
}

/// Result of a taint pass over a trace.
#[derive(Debug, Clone, Default)]
pub struct TaintReport {
    /// Step indices of conditional branches with tainted operands — the
    /// symbolic branches whose constraints the engine extracts.
    pub tainted_branches: Vec<usize>,
    /// Step indices of indirect jumps with tainted targets (symbolic jump).
    pub tainted_indirect_jumps: Vec<usize>,
    /// Step indices of loads whose *address* is tainted (symbolic array).
    pub tainted_addr_loads: Vec<usize>,
    /// Step indices of stores whose *address* is tainted.
    pub tainted_addr_stores: Vec<usize>,
    /// Steps where a syscall argument register (`a0..a5`) was tainted,
    /// with the argument indices (contextual symbolic value).
    pub tainted_sys_args: Vec<(usize, Vec<u8>)>,
    /// Steps where the syscall *number* (`sv`) was tainted.
    pub tainted_sys_nums: Vec<usize>,
    /// Number of steps that read or wrote tainted data (Figure 3 metric).
    pub tainted_step_count: usize,
    /// Indices of the steps counted by `tainted_step_count`.
    pub tainted_steps: Vec<usize>,
    /// Flows the policy dropped.
    pub losses: Vec<(usize, TaintLoss)>,
}

impl TaintReport {
    /// Whether the trace shows any symbolic control-flow dependence at all.
    pub fn any_symbolic_control(&self) -> bool {
        !self.tainted_branches.is_empty() || !self.tainted_indirect_jumps.is_empty()
    }
}

#[derive(Debug, Clone, Default)]
struct ThreadShadow {
    gpr: [bool; 32],
    fpr: [bool; 16],
    tmp: HashMap<u32, bool>,
}

#[derive(Debug, Clone, Default)]
struct ProcShadow {
    mem: HashSet<u64>,
}

/// The taint engine.
#[derive(Debug)]
pub struct TaintEngine {
    policy: TaintPolicy,
    /// Drop a thread's register taint when it traps (models emulators that
    /// reset state around signals).
    clear_on_trap: bool,
    threads: BTreeMap<(u32, u32), ThreadShadow>,
    procs: BTreeMap<u32, ProcShadow>,
    files: HashSet<String>,
    pipes: HashSet<usize>,
    /// Tainted kernel file positions, keyed by (pid, fd) — the lseek
    /// covert channel.
    fileposes: HashSet<(u32, u64)>,
    /// Register-shadow seeds for forked children, applied when the child's
    /// first step appears in the trace.
    fork_seeds: HashMap<u32, ThreadShadow>,
    support: SupportMatrix,
}

impl TaintEngine {
    /// Creates an engine with the given policy.
    pub fn new(policy: TaintPolicy) -> TaintEngine {
        TaintEngine {
            policy,
            clear_on_trap: false,
            threads: BTreeMap::new(),
            procs: BTreeMap::new(),
            files: HashSet::new(),
            pipes: HashSet::new(),
            fileposes: HashSet::new(),
            fork_seeds: HashMap::new(),
            support: SupportMatrix::full(),
        }
    }

    /// Makes traps clear the trapping thread's register taint.
    pub fn with_trap_clearing(mut self, clear: bool) -> TaintEngine {
        self.clear_on_trap = clear;
        self
    }

    /// Pre-taints memory ranges (the loader-placed `argv` strings).
    pub fn taint_memory(&mut self, pid: u32, ranges: &[(u64, u64)]) {
        let shadow = self.procs.entry(pid).or_default();
        for &(base, len) in ranges {
            for a in base..base + len {
                shadow.mem.insert(a);
            }
        }
    }

    /// Pre-taints a file's contents by name.
    pub fn taint_file(&mut self, name: &str) {
        self.files.insert(name.to_string());
    }

    /// Runs the analysis over a trace.
    pub fn run(&mut self, trace: &Trace) -> TaintReport {
        let obs_timer = bomblab_obs::start();
        let report = self.run_inner(trace);
        if let Some(t0) = obs_timer {
            bomblab_obs::span_ns("taint.run", t0.elapsed().as_nanos() as u64);
            bomblab_obs::counter("taint.steps", trace.len() as u64);
            bomblab_obs::counter("taint.tainted_steps", report.tainted_step_count as u64);
            bomblab_obs::counter(
                "taint.tainted_branches",
                report.tainted_branches.len() as u64,
            );
        }
        report
    }

    fn run_inner(&mut self, trace: &Trace) -> TaintReport {
        let mut report = TaintReport::default();
        for (idx, step) in trace.iter().enumerate() {
            // Seed a forked child's registers on its first appearance.
            if !self.threads.contains_key(&(step.pid, step.tid)) {
                if let Some(seed) = self.fork_seeds.remove(&step.pid) {
                    self.threads.insert((step.pid, step.tid), seed);
                }
            }
            let mut step_touches_taint = false;

            // Syscalls are handled from their records.
            if let Some(record) = step.sys {
                let sv_tainted = self.thread(step.pid, step.tid).gpr[Reg::SV.index()];
                if sv_tainted {
                    report.tainted_sys_nums.push(idx);
                    step_touches_taint = true;
                }
                let arg_regs = [Reg::A0, Reg::A1, Reg::A2, Reg::A3, Reg::A4, Reg::A5];
                let tainted_args: Vec<u8> = arg_regs
                    .iter()
                    .enumerate()
                    .filter(|(_, r)| self.thread(step.pid, step.tid).gpr[r.index()])
                    .map(|(i, _)| i as u8)
                    .collect();
                if !tainted_args.is_empty() {
                    report.tainted_sys_args.push((idx, tainted_args));
                    step_touches_taint = true;
                }
                step_touches_taint |=
                    self.apply_syscall(step.pid, step.tid, idx, record, &mut report);
                // The return value lands in a0; taint decided in apply_syscall.
                if step_touches_taint {
                    report.tainted_step_count += 1;
                    report.tainted_steps.push(idx);
                }
                continue;
            }

            if step.trap.is_some() && self.clear_on_trap {
                let shadow = self.thread(step.pid, step.tid);
                shadow.gpr = [false; 32];
                shadow.fpr = [false; 16];
                continue;
            }
            // Ordinary instructions: dataflow over the (fully lifted) IR.
            let block = lift(&step.insn, step.pc, &self.support)
                .expect("full support matrix lifts everything");
            for stmt in &block {
                step_touches_taint |= self.apply_stmt(step, idx, stmt, &mut report);
            }
            if step_touches_taint {
                report.tainted_step_count += 1;
                report.tainted_steps.push(idx);
            }
        }
        report
    }

    fn thread(&mut self, pid: u32, tid: u32) -> &mut ThreadShadow {
        self.threads.entry((pid, tid)).or_default()
    }

    fn proc(&mut self, pid: u32) -> &mut ProcShadow {
        self.procs.entry(pid).or_default()
    }

    fn atom_tainted(&mut self, pid: u32, tid: u32, atom: &Atom) -> bool {
        match atom {
            Atom::Place(p) => self.place_tainted(pid, tid, p),
            Atom::Const(_) | Atom::FConst(_) => false,
        }
    }

    fn place_tainted(&mut self, pid: u32, tid: u32, place: &Place) -> bool {
        let t = self.thread(pid, tid);
        match place {
            Place::Gpr(r) => t.gpr[r.index()],
            Place::Fpr(r) => t.fpr[r.index()],
            Place::Tmp(i) => t.tmp.get(i).copied().unwrap_or(false),
        }
    }

    fn set_place(&mut self, pid: u32, tid: u32, place: &Place, tainted: bool) {
        let t = self.thread(pid, tid);
        match place {
            Place::Gpr(r) => {
                if r.index() != 0 {
                    t.gpr[r.index()] = tainted;
                }
            }
            Place::Fpr(r) => t.fpr[r.index()] = tainted,
            Place::Tmp(i) => {
                t.tmp.insert(*i, tainted);
            }
        }
    }

    fn mem_tainted(&mut self, pid: u32, addr: u64, width: u8) -> bool {
        let shadow = self.proc(pid);
        (0..width as u64).any(|i| shadow.mem.contains(&addr.wrapping_add(i)))
    }

    fn set_mem(&mut self, pid: u32, addr: u64, width: u8, tainted: bool) {
        let shadow = self.proc(pid);
        for i in 0..width as u64 {
            if tainted {
                shadow.mem.insert(addr.wrapping_add(i));
            } else {
                shadow.mem.remove(&addr.wrapping_add(i));
            }
        }
    }

    /// Applies one IR statement; returns whether it touched taint.
    fn apply_stmt(
        &mut self,
        step: bomblab_vm::StepView<'_>,
        idx: usize,
        stmt: &Stmt,
        report: &mut TaintReport,
    ) -> bool {
        let (pid, tid) = (step.pid, step.tid);
        match stmt {
            Stmt::Bin { dst, a, b, .. } => {
                let t = self.atom_tainted(pid, tid, a) | self.atom_tainted(pid, tid, b);
                self.set_place(pid, tid, dst, t);
                t
            }
            Stmt::Un { dst, a, .. } => {
                let t = self.atom_tainted(pid, tid, a);
                self.set_place(pid, tid, dst, t);
                t
            }
            Stmt::Load {
                dst, addr, width, ..
            } => {
                let addr_tainted = self.atom_tainted(pid, tid, addr);
                let Some(acc) = step.mem_read else {
                    // Trapped before completing; nothing loaded.
                    return addr_tainted;
                };
                if addr_tainted {
                    report.tainted_addr_loads.push(idx);
                }
                let mut t = self.mem_tainted(pid, acc.addr, *width);
                if addr_tainted && self.policy.through_pointers {
                    t = true;
                }
                self.set_place(pid, tid, dst, t);
                t || addr_tainted
            }
            Stmt::Store { src, addr, width } => {
                let addr_tainted = self.atom_tainted(pid, tid, addr);
                let Some(acc) = step.mem_write else {
                    return addr_tainted;
                };
                if addr_tainted {
                    report.tainted_addr_stores.push(idx);
                }
                let t = self.atom_tainted(pid, tid, src);
                self.set_mem(pid, acc.addr, *width, t);
                t || addr_tainted
            }
            Stmt::CondJump { a, b, .. } => {
                let t = self.atom_tainted(pid, tid, a) | self.atom_tainted(pid, tid, b);
                if t {
                    report.tainted_branches.push(idx);
                }
                t
            }
            Stmt::IndirectJump { target } => {
                let t = self.atom_tainted(pid, tid, target);
                if t {
                    report.tainted_indirect_jumps.push(idx);
                }
                t
            }
            Stmt::Jump { .. } | Stmt::Syscall | Stmt::Halt => false,
        }
    }

    /// Applies a syscall's data-flow effect; returns whether it touched
    /// taint.
    fn apply_syscall(
        &mut self,
        pid: u32,
        tid: u32,
        idx: usize,
        record: &bomblab_vm::SyscallRecord,
        report: &mut TaintReport,
    ) -> bool {
        let mut touched = false;
        // By default the return value is clean.
        let mut ret_tainted = false;

        match &record.effect {
            SysEffect::OutputBytes {
                addr, bytes, sink, ..
            } => {
                let t = self.mem_range_tainted(pid, *addr, bytes.len() as u64);
                if t {
                    touched = true;
                    match sink {
                        OutputSink::File(name) => {
                            if self.policy.through_files {
                                self.files.insert(name.clone());
                            } else {
                                report.losses.push((idx, TaintLoss::FileWrite));
                            }
                        }
                        OutputSink::Pipe(id) => {
                            if self.policy.through_pipes {
                                self.pipes.insert(*id);
                            } else {
                                report.losses.push((idx, TaintLoss::PipeWrite));
                            }
                        }
                        OutputSink::Stdout => {}
                    }
                }
            }
            SysEffect::InputBytes {
                addr,
                bytes,
                source,
                ..
            } => {
                let t = match source {
                    InputSource::Stdin => self.policy.sources.stdin,
                    InputSource::File(name) => self.files.contains(name),
                    InputSource::Pipe(id) => self.pipes.contains(id),
                    InputSource::Net => self.policy.sources.net,
                };
                self.set_mem_range(pid, *addr, bytes.len() as u64, t);
                touched |= t;
                // read() return length is not tainted.
            }
            SysEffect::Forked { child } => {
                // Child's memory inherits the parent's shadow if tracked.
                let parent_mem = self.proc(pid).mem.clone();
                let parent_regs = self.thread(pid, tid).clone();
                let any = !parent_mem.is_empty()
                    || parent_regs.gpr.iter().any(|&b| b)
                    || parent_regs.fpr.iter().any(|&b| b);
                if self.policy.across_processes {
                    self.procs.insert(*child, ProcShadow { mem: parent_mem });
                    // The child's thread id is assigned by the machine; seed
                    // its registers when its first step appears.
                    self.fork_seeds.insert(*child, parent_regs);
                } else if any {
                    report.losses.push((idx, TaintLoss::ForkChild));
                    touched = true;
                }
            }
            SysEffect::SpawnedThread { tid: new_tid, .. } => {
                let arg_tainted = self.thread(pid, tid).gpr[Reg::A1.index()];
                if self.policy.across_threads {
                    let shadow = self.thread(pid, *new_tid);
                    shadow.gpr[Reg::A0.index()] = arg_tainted;
                } else if arg_tainted {
                    report.losses.push((idx, TaintLoss::ThreadSpawn));
                }
                touched |= arg_tainted;
            }
            SysEffect::PipeCreated { addr, .. } => {
                // fd numbers are clean.
                self.set_mem_range(pid, *addr, 16, false);
            }
            SysEffect::OpenedFile { path, .. } => {
                // A tainted file *name* is the contextual-symbolic-value
                // challenge: the symbolic bytes select which file opens.
                if self.mem_range_tainted(pid, record.args[0], path.len().max(1) as u64) {
                    report.tainted_sys_args.push((idx, vec![0]));
                    touched = true;
                }
            }
            SysEffect::None => {}
        }

        match record.num {
            sys::TIME => ret_tainted = self.policy.sources.time,
            sys::GETPID | sys::GETUID => ret_tainted = self.policy.sources.sys_returns,
            sys::LSEEK => {
                // lseek smuggles a value through the kernel file position.
                let fdkey = (pid, record.args[0]);
                let offset_tainted = self.thread(pid, tid).gpr[Reg::A1.index()];
                if offset_tainted {
                    if self.policy.through_files {
                        self.fileposes.insert(fdkey);
                    } else {
                        report.losses.push((idx, TaintLoss::FileWrite));
                    }
                    touched = true;
                }
                ret_tainted = self.fileposes.contains(&fdkey);
            }
            _ => {}
        }
        let shadow = self.thread(pid, tid);
        shadow.gpr[Reg::A0.index()] = ret_tainted;
        touched |= ret_tainted;
        touched
    }

    fn mem_range_tainted(&mut self, pid: u32, addr: u64, len: u64) -> bool {
        let shadow = self.proc(pid);
        (0..len).any(|i| shadow.mem.contains(&addr.wrapping_add(i)))
    }

    fn set_mem_range(&mut self, pid: u32, addr: u64, len: u64, tainted: bool) {
        let shadow = self.proc(pid);
        for i in 0..len {
            if tainted {
                shadow.mem.insert(addr.wrapping_add(i));
            } else {
                shadow.mem.remove(&addr.wrapping_add(i));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_presets_cover_the_capability_space() {
        let omni = TaintPolicy::omniscient();
        assert!(omni.sources.time && omni.sources.net && omni.sources.stdin);
        assert!(omni.through_files && omni.through_pipes);
        assert!(omni.across_threads && omni.across_processes);
        let strict = TaintPolicy::argv_direct_only();
        assert!(strict.sources.argv && !strict.sources.time);
        assert!(!strict.through_files && !strict.across_threads);
        assert!(strict.through_pointers, "pointer taint is table stakes");
    }

    #[test]
    fn taint_memory_marks_exact_ranges() {
        let mut engine = TaintEngine::new(TaintPolicy::omniscient());
        engine.taint_memory(1, &[(0x100, 4), (0x200, 1)]);
        let shadow = engine.procs.get(&1).expect("pid shadow");
        assert!(shadow.mem.contains(&0x100));
        assert!(shadow.mem.contains(&0x103));
        assert!(!shadow.mem.contains(&0x104));
        assert!(shadow.mem.contains(&0x200));
    }

    #[test]
    fn empty_trace_produces_empty_report() {
        let mut engine = TaintEngine::new(TaintPolicy::omniscient());
        let report = engine.run(&bomblab_vm::Trace::new());
        assert!(!report.any_symbolic_control());
        assert_eq!(report.tainted_step_count, 0);
        assert!(report.losses.is_empty());
    }
}
