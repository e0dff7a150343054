//! # bomblab-symex — symbolic execution over BVM traces
//!
//! The constraint-extraction stage of the paper's framework (Figure 1):
//! replay a concrete trace, carrying symbolic expressions alongside the
//! concrete values (concolic execution), and collect
//!
//! * the **path condition** — one [`PathCond`] per conditional branch whose
//!   condition depends on symbolic input, oriented by the direction the
//!   concrete run took, and
//! * **pins** — equality constraints introduced when the executor had to
//!   concretize something (a symbolic memory address, a symbolic jump
//!   target), plus the *events* describing what was concretized. Pins keep
//!   generated inputs on the traced path; events let the study map
//!   failures onto the paper's `Es2`/`Es3` labels.
//!
//! Two memory models are provided, mirroring the tools in the paper:
//!
//! * [`MemoryModel::Concretize`] — symbolic addresses are pinned to their
//!   runtime value (BAP/Triton-style); the symbolic-array challenge is
//!   unsolvable by construction.
//! * [`MemoryModel::SymbolicMap`] — symbolic addresses up to a bounded
//!   indirection depth become table lookups over the surrounding memory
//!   region (Angr-style); one-level arrays are solvable, deeper chains
//!   exceed `max_indirection` and fall back to pinning.

#![warn(missing_docs)]

use bomblab_ir::{lift, Atom, BinOp, CmpK, Place, Stmt, SupportMatrix, UnOp};
use bomblab_isa::{sys, Reg};
use bomblab_solver::expr::{BvOp, CmpOp, FCmpOp, FOp, Term};
use bomblab_vm::{InputSource, Memory, OutputSink, StepView, SysEffect, Trace};
use std::collections::HashMap;
use std::sync::Arc;

/// How symbolic memory addresses are handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoryModel {
    /// Pin symbolic addresses to their concrete runtime value.
    Concretize,
    /// Expand symbolic-address loads into a table over the surrounding
    /// region, up to a maximum pointer-chase depth.
    SymbolicMap {
        /// Maximum indirection depth (1 = one-level arrays).
        max_indirection: u32,
        /// Bytes included on each side of the concrete address.
        region: u64,
    },
}

/// Which covert flows the executor propagates symbolically (matching the
/// tool's taint policy).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PropagationPolicy {
    /// Track symbolic bytes through file writes/reads.
    pub through_files: bool,
    /// Track symbolic bytes through pipes.
    pub through_pipes: bool,
    /// Carry symbolic thread-spawn arguments into the new thread.
    pub across_threads: bool,
    /// Carry symbolic state into forked children.
    pub across_processes: bool,
}

impl PropagationPolicy {
    /// Track everything.
    pub fn full() -> PropagationPolicy {
        PropagationPolicy {
            through_files: true,
            through_pipes: true,
            across_threads: true,
            across_processes: true,
        }
    }

    /// Track nothing beyond direct register/memory flow.
    pub fn direct_only() -> PropagationPolicy {
        PropagationPolicy {
            through_files: false,
            through_pipes: false,
            across_threads: false,
            across_processes: false,
        }
    }
}

/// Extra environment sources to symbolize (beyond pre-symbolized memory).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SymbolizeEnv {
    /// Make the `time` syscall return a fresh symbolic value.
    pub time: bool,
    /// Make `net_get` deliver symbolic bytes.
    pub net: bool,
    /// Make stdin deliver symbolic bytes.
    pub stdin: bool,
    /// Model "environment" syscall returns (`time`, `getpid`, `getuid`,
    /// `lseek`, `waitpid`, `thread_join`, unknown numbers) as *fresh
    /// unconstrained variables* (`sysret_{step}`) — the Angr SimProcedure
    /// behaviour that produces the paper's `P` outcomes and the
    /// negative-bomb false positive.
    pub unconstrained_sys_returns: bool,
}

/// One symbolic conditional branch on the executed path.
#[derive(Debug, Clone)]
pub struct PathCond {
    /// Trace step index.
    pub step: usize,
    /// Instruction address.
    pub pc: u64,
    /// The branch condition as a boolean term (true ⇔ branch taken).
    pub cond: Term,
    /// Whether the concrete run took the branch.
    pub taken: bool,
    /// Address executed when the branch is taken.
    pub taken_target: u64,
    /// Address executed on fallthrough.
    pub fallthrough: u64,
}

impl PathCond {
    /// Names of the symbolic input variables the condition depends on —
    /// the dynamic side of the static-slice source cross-check.
    #[must_use]
    pub fn cond_var_names(&self) -> Vec<String> {
        let mut vars = Vec::new();
        self.cond.collect_vars(&mut vars);
        vars.into_iter().map(|v| v.name.to_string()).collect()
    }
}

/// An always-asserted constraint introduced by concretization.
#[derive(Debug, Clone)]
pub struct Pin {
    /// Trace step index that introduced the pin.
    pub step: usize,
    /// The constraint.
    pub cond: Term,
}

/// Noteworthy events for failure diagnosis.
#[derive(Debug, Clone, Default)]
pub struct SymEvents {
    /// Loads whose symbolic address was pinned (`Es3` shape).
    pub concretized_loads: Vec<usize>,
    /// Stores whose symbolic address was pinned.
    pub concretized_stores: Vec<usize>,
    /// Loads that exceeded the allowed indirection depth.
    pub over_indirection: Vec<usize>,
    /// Indirect jumps with symbolic targets, pinned to the runtime target,
    /// with the target's pointer-chase depth (0 = pure arithmetic, ≥1 =
    /// loaded from memory, the paper's jump-table case).
    pub pinned_jumps: Vec<(usize, u32)>,
    /// Syscalls whose number (`sv`) was symbolic.
    pub sym_sys_nums: Vec<usize>,
    /// Syscalls with symbolic argument registers.
    pub sym_sys_args: Vec<usize>,
    /// Symbolic bytes written to a file while `through_files` was off.
    pub dropped_file_flows: Vec<usize>,
    /// Symbolic bytes written to a pipe while `through_pipes` was off.
    pub dropped_pipe_flows: Vec<usize>,
    /// Symbolic spawn argument dropped (`across_threads` off).
    pub dropped_thread_flows: Vec<usize>,
    /// Maximum pointer-chase depth observed on any symbolic-address load.
    pub max_load_level: u32,
    /// Symbolic state dropped at fork (`across_processes` off).
    pub dropped_fork_flows: Vec<usize>,
}

/// Result of symbolically replaying one trace.
#[derive(Debug, Clone, Default)]
pub struct SymResult {
    /// Symbolic branches in trace order.
    pub path: Vec<PathCond>,
    /// Always-asserted concretization constraints.
    pub pins: Vec<Pin>,
    /// Diagnostic events.
    pub events: SymEvents,
}

impl SymResult {
    /// Builds the constraint set that *flips* path branch `i`: all earlier
    /// branches as taken, all pins up to that step, and the negation of
    /// branch `i`.
    pub fn flip_query(&self, i: usize) -> Vec<Term> {
        let flip_step = self.path[i].step;
        let mut out = Vec::new();
        for pin in self.pins.iter().filter(|p| p.step <= flip_step) {
            out.push(pin.cond.clone());
        }
        for pc in &self.path[..i] {
            out.push(oriented(pc));
        }
        let target = &self.path[i];
        let negated = if target.taken {
            Term::not(&target.cond)
        } else {
            target.cond.clone()
        };
        out.push(negated);
        dedup_query(out)
    }

    /// The full path condition of the executed trace (pins + oriented
    /// branches).
    pub fn path_query(&self) -> Vec<Term> {
        let mut out: Vec<Term> = self.pins.iter().map(|p| p.cond.clone()).collect();
        out.extend(self.path.iter().map(oriented));
        dedup_query(out)
    }

    /// Whether any collected constraint involves floating point.
    pub fn has_float(&self) -> bool {
        let conds = self.path.iter().map(|p| &p.cond);
        Term::any_has_float(conds.chain(self.pins.iter().map(|p| &p.cond)))
    }
}

fn oriented(pc: &PathCond) -> Term {
    if pc.taken {
        pc.cond.clone()
    } else {
        Term::not(&pc.cond)
    }
}

/// Drops repeated and subsumed constraints before a query reaches the
/// solver, preserving order. Hash-consing makes this exact: a guard
/// re-asserted on every iteration of a hot loop is the *same* term, and a
/// constraint already present as a conjunct of another constraint (the
/// term graphs share `BAnd` nodes) is implied by it.
fn dedup_query(constraints: Vec<Term>) -> Vec<Term> {
    use std::collections::HashSet;
    let mut seen: HashSet<usize> = HashSet::with_capacity(constraints.len());
    let unique: Vec<Term> = constraints
        .into_iter()
        .filter(|c| seen.insert(c.id()))
        .collect();
    // Ids of every conjunct reachable through top-level `BAnd` spines.
    let mut conjuncts: HashSet<usize> = HashSet::new();
    for c in &unique {
        collect_conjuncts(c, true, &mut conjuncts);
    }
    unique
        .into_iter()
        .filter(|c| !conjuncts.contains(&c.id()))
        .collect()
}

/// Records the ids of all proper sub-conjuncts of `t` (children of `BAnd`
/// spines); the root itself is skipped so a constraint never subsumes
/// itself.
fn collect_conjuncts(t: &Term, is_root: bool, out: &mut std::collections::HashSet<usize>) {
    use bomblab_solver::expr::Node;
    if let Node::BAnd(a, b) = t.node() {
        if !is_root {
            out.insert(t.id());
        }
        collect_conjuncts(a, false, out);
        collect_conjuncts(b, false, out);
    } else if !is_root {
        out.insert(t.id());
    }
}

/// A symbolic function summary applied to opaque (unloaded-library) calls
/// — the equivalent of Angr's libc SimProcedures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Summary {
    /// `atoi(ptr)`: bounded symbolic decimal parse (up to 8 digits,
    /// non-negative).
    Atoi,
    /// `strlen(ptr)`: bounded symbolic length (up to 8 bytes).
    Strlen,
}

/// A symbolic value with its pointer-chase depth.
#[derive(Debug, Clone)]
struct SVal {
    term: Term,
    lvl: u32,
}

type TKey = (u32, u32);

/// Register state (GPR, FPR) a forked child inherits from its parent.
type ForkSeed = (HashMap<usize, SVal>, HashMap<usize, SVal>);

/// The concolic symbolic executor.
#[derive(Debug)]
pub struct SymExec {
    model: MemoryModel,
    policy: PropagationPolicy,
    env: SymbolizeEnv,
    mirrors: HashMap<u32, Memory>,
    sregs: HashMap<TKey, HashMap<usize, SVal>>,
    sfpr: HashMap<TKey, HashMap<usize, SVal>>,
    smem: HashMap<u32, HashMap<u64, SVal>>,
    sfiles: HashMap<String, HashMap<u64, SVal>>,
    spipes: HashMap<usize, HashMap<u64, SVal>>,
    /// Symbolic kernel file positions, keyed by (pid, fd).
    sfilepos: HashMap<(u32, u64), SVal>,
    fork_seeds: HashMap<u32, ForkSeed>,
    /// Code ranges the analysis treats as opaque (unloaded libraries).
    opaque_ranges: Vec<(u64, u64)>,
    /// Give opaque calls fresh unconstrained return values.
    opaque_fresh_returns: bool,
    /// Threads currently executing inside an opaque range.
    in_opaque: HashMap<TKey, bool>,
    /// Drop symbolic registers when a thread traps.
    clear_on_trap: bool,
    /// Push path conditions for trap guards (symbolic divisors).
    model_trap_guards: bool,
    /// Symbolic summaries for opaque functions, keyed by entry address.
    summaries: HashMap<u64, Summary>,
    /// Summary results awaiting the opaque-range exit.
    pending_rets: HashMap<TKey, SVal>,
    /// Last concrete values of a0..a5 per thread (tracked from writes).
    concrete_args: HashMap<TKey, [u64; 6]>,
    support: SupportMatrix,
}

impl SymExec {
    /// Creates an executor.
    pub fn new(model: MemoryModel, policy: PropagationPolicy) -> SymExec {
        SymExec {
            model,
            policy,
            env: SymbolizeEnv::default(),
            mirrors: HashMap::new(),
            sregs: HashMap::new(),
            sfpr: HashMap::new(),
            smem: HashMap::new(),
            sfiles: HashMap::new(),
            spipes: HashMap::new(),
            sfilepos: HashMap::new(),
            fork_seeds: HashMap::new(),
            opaque_ranges: Vec::new(),
            opaque_fresh_returns: false,
            in_opaque: HashMap::new(),
            clear_on_trap: false,
            model_trap_guards: true,
            summaries: HashMap::new(),
            pending_rets: HashMap::new(),
            concrete_args: HashMap::new(),
            support: SupportMatrix::full(),
        }
    }

    /// Treats code in `[base, base + len)` ranges as opaque: its steps are
    /// not analysed (only their concrete memory effects are mirrored), and
    /// on return the caller-saved registers lose their symbolic values —
    /// the Angr-NoLib "don't load dynamic libraries" behaviour. With
    /// `fresh_returns`, `a0` becomes a fresh `libret_{step}` variable
    /// instead (an unconstrained function summary).
    pub fn set_opaque_ranges(&mut self, ranges: Vec<(u64, u64)>, fresh_returns: bool) {
        self.opaque_ranges = ranges;
        self.opaque_fresh_returns = fresh_returns;
    }

    fn in_opaque_range(&self, pc: u64) -> bool {
        self.opaque_ranges
            .iter()
            .any(|&(base, len)| pc >= base && pc < base + len)
    }

    /// Declares additional environment sources symbolic.
    pub fn with_env(mut self, env: SymbolizeEnv) -> SymExec {
        self.env = env;
        self
    }

    /// Makes traps drop the trapping thread's symbolic registers.
    pub fn with_trap_clearing(mut self, clear: bool) -> SymExec {
        self.clear_on_trap = clear;
        self
    }

    /// Controls whether symbolic trap guards (divisor-zero conditions)
    /// become path conditions. Tools that cannot follow traps do not model
    /// the trap edge.
    pub fn with_trap_guards(mut self, model: bool) -> SymExec {
        self.model_trap_guards = model;
        self
    }

    /// Registers a symbolic summary for an opaque function entry address.
    pub fn add_summary(&mut self, addr: u64, summary: Summary) {
        self.summaries.insert(addr, summary);
    }

    /// Seeds the pre-run memory image of a process (take it from
    /// [`bomblab_vm::Machine::process_memory`] before running).
    pub fn set_initial_memory(&mut self, pid: u32, memory: Memory) {
        self.mirrors.insert(pid, memory);
    }

    /// Marks `len` bytes at `addr` symbolic, naming them
    /// `{prefix}_b0 .. {prefix}_b{len-1}`.
    pub fn symbolize_bytes(&mut self, pid: u32, addr: u64, len: u64, prefix: &str) {
        let mem = self.smem.entry(pid).or_default();
        for i in 0..len {
            let name: Arc<str> = Arc::from(format!("{prefix}_b{i}"));
            mem.insert(
                addr + i,
                SVal {
                    term: Term::var(name, 8),
                    lvl: 0,
                },
            );
        }
    }

    /// Symbolically replays a trace.
    pub fn run(&mut self, trace: &Trace) -> SymResult {
        let obs_timer = bomblab_obs::start();
        let result = self.run_inner(trace);
        if let Some(t0) = obs_timer {
            bomblab_obs::span_ns("symex.run", t0.elapsed().as_nanos() as u64);
            bomblab_obs::counter("symex.path_conds", result.path.len() as u64);
            bomblab_obs::counter("symex.pins", result.pins.len() as u64);
        }
        result
    }

    fn run_inner(&mut self, trace: &Trace) -> SymResult {
        let mut result = SymResult::default();
        for (idx, step) in trace.iter().enumerate() {
            // Seed forked children on first sight.
            if !self.sregs.contains_key(&(step.pid, step.tid)) {
                if let Some((gpr, fpr)) = self.fork_seeds.remove(&step.pid) {
                    self.sregs.insert((step.pid, step.tid), gpr);
                    self.sfpr.insert((step.pid, step.tid), fpr);
                }
            }
            // Sparse traces elide operand capture for steps the VM's taint
            // gate proved clean: no symbolic value can flow through them
            // (the gate's shadow over-approximates ours), they never write
            // memory, and their branch conditions are concrete — so the
            // replay state is unaffected. Skip them wholesale.
            if step.elided {
                continue;
            }
            // Opaque (unloaded-library) code: mirror concrete effects only.
            let key = (step.pid, step.tid);
            let opaque_now = self.in_opaque_range(step.pc);
            let was_opaque = self.in_opaque.get(&key).copied().unwrap_or(false);
            if opaque_now {
                if !was_opaque {
                    if let Some(&summary) = self.summaries.get(&step.pc) {
                        let args = self.concrete_args.get(&key).copied().unwrap_or([0; 6]);
                        if let Some(sv) = self.apply_summary(step.pid, summary, args[0]) {
                            self.pending_rets.insert(key, sv);
                        }
                    }
                }
                self.in_opaque.insert(key, true);
                if let Some(acc) = step.mem_write {
                    if let Some(mirror) = self.mirrors.get_mut(&step.pid) {
                        let _ = mirror.write_uint(acc.addr, acc.value, acc.width);
                    }
                    let mem = self.smem.entry(step.pid).or_default();
                    for i in 0..acc.width as u64 {
                        mem.remove(&(acc.addr + i));
                    }
                }
                if let Some(record) = &step.sys {
                    // Keep the mirror consistent across library syscalls.
                    if let SysEffect::InputBytes { addr, bytes, .. } = &record.effect {
                        if let Some(mirror) = self.mirrors.get_mut(&step.pid) {
                            let _ = mirror.write_bytes(*addr, bytes);
                        }
                        let mem = self.smem.entry(step.pid).or_default();
                        for i in 0..bytes.len() as u64 {
                            mem.remove(&(addr + i));
                        }
                    }
                }
                continue;
            }
            if was_opaque {
                // Returned from opaque code: caller-saved registers are
                // whatever the library left there — drop their symbols.
                self.in_opaque.insert(key, false);
                let m = self.sregs.entry(key).or_default();
                for r in 1..=15usize {
                    m.remove(&r); // a0..a5, sv, t0..t7
                }
                let f = self.sfpr.entry(key).or_default();
                f.clear();
                if let Some(sv) = self.pending_rets.remove(&key) {
                    let m = self.sregs.entry(key).or_default();
                    m.insert(Reg::A0.index(), sv);
                } else if self.opaque_fresh_returns {
                    let m = self.sregs.entry(key).or_default();
                    m.insert(
                        Reg::A0.index(),
                        SVal {
                            term: Term::var(format!("libret_{idx}"), 64),
                            lvl: 0,
                        },
                    );
                    // Floating-point results are summarised the same way
                    // (the aggressive "any return value" behaviour the
                    // paper demonstrates with pow).
                    let f = self.sfpr.entry(key).or_default();
                    f.insert(
                        0,
                        SVal {
                            term: Term::f_from_bits(&Term::var(format!("libretf_{idx}"), 64)),
                            lvl: 0,
                        },
                    );
                }
            }
            if step.sys.is_some() {
                self.apply_syscall(idx, step, &mut result);
                continue;
            }
            if step.trap.is_some() && self.clear_on_trap {
                self.sregs.remove(&key);
                self.sfpr.remove(&key);
                continue;
            }
            let block =
                lift(&step.insn, step.pc, &self.support).expect("full support lifts everything");
            // Per-instruction concrete temp values.
            let mut tmp_concrete: HashMap<u32, u64> = HashMap::new();
            let mut tmp_sym: HashMap<u32, SVal> = HashMap::new();
            for stmt in &block {
                self.apply_stmt(
                    idx,
                    step,
                    stmt,
                    &mut tmp_concrete,
                    &mut tmp_sym,
                    &mut result,
                );
            }
            // Track concrete argument registers for opaque summaries.
            let args = self.concrete_args.entry(key).or_insert([0; 6]);
            for (r, v) in step.reg_writes {
                let i = r.index();
                if (1..=6).contains(&i) {
                    args[i - 1] = *v;
                }
            }
        }
        result
    }

    /// Builds the symbolic return value of a summarised function.
    fn apply_summary(&mut self, pid: u32, summary: Summary, ptr: u64) -> Option<SVal> {
        const BOUND: u64 = 8;
        // Byte terms at ptr..ptr+BOUND (symbolic entries over mirror bytes).
        let mut bytes = Vec::new();
        let mut max_lvl = 0;
        let mut any_symbolic = false;
        for i in 0..BOUND {
            let addr = ptr + i;
            let sv = self.smem.get(&pid).and_then(|m| m.get(&addr)).cloned();
            let term = match sv {
                Some(sv) => {
                    max_lvl = max_lvl.max(sv.lvl);
                    any_symbolic = true;
                    sv.term
                }
                None => {
                    let concrete = self
                        .mirrors
                        .get(&pid)
                        .and_then(|m| m.read_uint(addr, 1).ok())
                        .unwrap_or(0);
                    Term::bv(concrete, 8)
                }
            };
            bytes.push(term);
        }
        if !any_symbolic {
            return None; // concrete input: the concrete trace suffices
        }
        let zero64 = Term::bv(0, 64);
        match summary {
            Summary::Strlen => {
                // len = first NUL index (BOUND if none).
                let mut len = Term::bv(BOUND, 64);
                for i in (0..BOUND).rev() {
                    let is_nul = Term::cmp(CmpOp::Eq, &bytes[i as usize], &Term::bv(0, 8));
                    len = Term::ite(&is_nul, &Term::bv(i, 64), &len);
                }
                Some(SVal {
                    term: len,
                    lvl: max_lvl,
                })
            }
            Summary::Atoi => {
                // Non-negative bounded parse: value accumulates while the
                // digit run continues.
                let mut value = zero64.clone();
                let mut running = Term::bool(true);
                for b in bytes.iter() {
                    let wide = Term::zext(b, 64);
                    let is_digit = Term::and(
                        &Term::cmp(CmpOp::Ule, &Term::bv(b'0' as u64, 64), &wide),
                        &Term::cmp(CmpOp::Ule, &wide, &Term::bv(b'9' as u64, 64)),
                    );
                    running = Term::and(&running, &is_digit);
                    let digit = Term::bin(BvOp::Sub, &wide, &Term::bv(b'0' as u64, 64));
                    let next = Term::bin(
                        BvOp::Add,
                        &Term::bin(BvOp::Mul, &value, &Term::bv(10, 64)),
                        &digit,
                    );
                    value = Term::ite(&running, &next, &value);
                }
                Some(SVal {
                    term: value,
                    lvl: max_lvl,
                })
            }
        }
    }

    // ---- state access ----

    fn reg_concrete(&self, step: StepView<'_>, r: Reg) -> u64 {
        step.reg_reads
            .iter()
            .find(|(reg, _)| *reg == r)
            .map_or_else(
                || panic!("register {r} not in trace reads at {:#x}", step.pc),
                |(_, v)| *v,
            )
    }

    fn freg_concrete(&self, step: StepView<'_>, r: bomblab_isa::FReg) -> f64 {
        step.freg_reads
            .iter()
            .find(|(reg, _)| *reg == r)
            .map_or_else(
                || panic!("fp register {r} not in trace reads at {:#x}", step.pc),
                |(_, v)| *v,
            )
    }

    fn sym_of_place(&self, key: TKey, place: &Place, tmp_sym: &HashMap<u32, SVal>) -> Option<SVal> {
        match place {
            Place::Gpr(r) => self
                .sregs
                .get(&key)
                .and_then(|m| m.get(&r.index()))
                .cloned(),
            Place::Fpr(r) => self.sfpr.get(&key).and_then(|m| m.get(&r.index())).cloned(),
            Place::Tmp(i) => tmp_sym.get(i).cloned(),
        }
    }

    fn set_place_sym(
        &mut self,
        key: TKey,
        place: &Place,
        val: Option<SVal>,
        tmp_sym: &mut HashMap<u32, SVal>,
    ) {
        match place {
            Place::Gpr(r) => {
                if r.index() == 0 {
                    return;
                }
                let m = self.sregs.entry(key).or_default();
                match val {
                    Some(v) => {
                        m.insert(r.index(), v);
                    }
                    None => {
                        m.remove(&r.index());
                    }
                }
            }
            Place::Fpr(r) => {
                let m = self.sfpr.entry(key).or_default();
                match val {
                    Some(v) => {
                        m.insert(r.index(), v);
                    }
                    None => {
                        m.remove(&r.index());
                    }
                }
            }
            Place::Tmp(i) => match val {
                Some(v) => {
                    tmp_sym.insert(*i, v);
                }
                None => {
                    tmp_sym.remove(i);
                }
            },
        }
    }

    /// Concrete value of an atom for this step.
    fn atom_concrete(
        &self,
        step: StepView<'_>,
        atom: &Atom,
        tmp_concrete: &HashMap<u32, u64>,
    ) -> u64 {
        match atom {
            Atom::Const(c) => *c,
            Atom::FConst(f) => f.to_bits(),
            Atom::Place(Place::Gpr(r)) => self.reg_concrete(step, *r),
            Atom::Place(Place::Fpr(r)) => self.freg_concrete(step, *r).to_bits(),
            Atom::Place(Place::Tmp(i)) => *tmp_concrete
                .get(i)
                .unwrap_or_else(|| panic!("temp %t{i} unset at {:#x}", step.pc)),
        }
    }

    /// Symbolic (or constant) integer term of an atom.
    fn atom_term(
        &self,
        step: StepView<'_>,
        atom: &Atom,
        tmp_concrete: &HashMap<u32, u64>,
        tmp_sym: &HashMap<u32, SVal>,
    ) -> SVal {
        let key = (step.pid, step.tid);
        match atom {
            Atom::Const(c) => SVal {
                term: Term::bv(*c, 64),
                lvl: 0,
            },
            Atom::FConst(f) => SVal {
                term: Term::f64(*f),
                lvl: 0,
            },
            Atom::Place(p) => {
                if let Some(sv) = self.sym_of_place(key, p, tmp_sym) {
                    sv
                } else {
                    match p {
                        Place::Fpr(r) => SVal {
                            term: Term::f64(self.freg_concrete(step, *r)),
                            lvl: 0,
                        },
                        _ => SVal {
                            term: Term::bv(self.atom_concrete(step, atom, tmp_concrete), 64),
                            lvl: 0,
                        },
                    }
                }
            }
        }
    }

    // ---- statement application ----

    #[allow(clippy::too_many_arguments)]
    fn apply_stmt(
        &mut self,
        idx: usize,
        step: StepView<'_>,
        stmt: &Stmt,
        tmp_concrete: &mut HashMap<u32, u64>,
        tmp_sym: &mut HashMap<u32, SVal>,
        result: &mut SymResult,
    ) {
        let key = (step.pid, step.tid);
        match stmt {
            Stmt::Bin { op, dst, a, b } => {
                let ca = self.atom_concrete(step, a, tmp_concrete);
                let cb = self.atom_concrete(step, b, tmp_concrete);
                let cval = concrete_bin(*op, ca, cb);
                if let Place::Tmp(i) = dst {
                    tmp_concrete.insert(*i, cval);
                }
                let sa = self.atom_term(step, a, tmp_concrete, tmp_sym);
                let sb = self.atom_term(step, b, tmp_concrete, tmp_sym);
                let symbolic = sa.term.as_const().is_none() && !is_fconst(&sa.term)
                    || sb.term.as_const().is_none() && !is_fconst(&sb.term);
                if !symbolic {
                    self.set_place_sym(key, dst, None, tmp_sym);
                    return;
                }
                // Division by a symbolic divisor constrains the divisor:
                // the concrete run either trapped (divisor == 0) or not.
                if matches!(op, BinOp::DivU | BinOp::DivS | BinOp::RemU | BinOp::RemS) {
                    let sb_sym = sb.term.as_const().is_none() && self.model_trap_guards;
                    if sb_sym {
                        let zero = Term::bv(0, 64);
                        let cond = Term::cmp(CmpOp::Eq, &sb.term, &zero);
                        result.path.push(PathCond {
                            step: idx,
                            pc: step.pc,
                            cond,
                            taken: step.trap.is_some(),
                            taken_target: 0,
                            fallthrough: 0,
                        });
                    }
                    if step.trap.is_some() {
                        // Trapped: no value written.
                        return;
                    }
                }
                let term = symbolic_bin(*op, &sa.term, &sb.term);
                let lvl = sa.lvl.max(sb.lvl);
                self.set_place_sym(key, dst, Some(SVal { term, lvl }), tmp_sym);
            }
            Stmt::Un { op, dst, a } => {
                let is_float_dst = matches!(
                    op,
                    UnOp::FMov | UnOp::FNeg | UnOp::FSqrt | UnOp::CvtSiToD | UnOp::FFromBits
                );
                // Concrete temp bookkeeping (only integer temps are read).
                if let Place::Tmp(i) = dst {
                    let cval = match op {
                        UnOp::Mov => self.atom_concrete(step, a, tmp_concrete),
                        UnOp::Not => !self.atom_concrete(step, a, tmp_concrete),
                        UnOp::Neg => self.atom_concrete(step, a, tmp_concrete).wrapping_neg(),
                        UnOp::FBits => self.atom_concrete(step, a, tmp_concrete),
                        _ => self.atom_concrete(step, a, tmp_concrete),
                    };
                    tmp_concrete.insert(*i, cval);
                }
                let sa = self.atom_term(step, a, tmp_concrete, tmp_sym);
                let operand_symbolic = sa.term.as_const().is_none() && !is_fconst(&sa.term);
                if !operand_symbolic {
                    self.set_place_sym(key, dst, None, tmp_sym);
                    return;
                }
                let term = match op {
                    UnOp::Mov | UnOp::FMov => sa.term.clone(),
                    UnOp::Not => Term::bvnot(&sa.term),
                    UnOp::Neg => Term::bvneg(&sa.term),
                    UnOp::FNeg => Term::fneg(&sa.term),
                    UnOp::FSqrt => Term::fsqrt(&sa.term),
                    UnOp::CvtSiToD => Term::cvt_si_to_f(&sa.term),
                    UnOp::CvtDToSi => Term::cvt_f_to_si(&sa.term),
                    UnOp::FBits => Term::f_bits(&sa.term),
                    UnOp::FFromBits => Term::f_from_bits(&sa.term),
                };
                let _ = is_float_dst;
                self.set_place_sym(key, dst, Some(SVal { term, lvl: sa.lvl }), tmp_sym);
            }
            Stmt::Load {
                dst,
                addr,
                width,
                sext,
                float,
            } => {
                let Some(acc) = step.mem_read else {
                    return; // trapped access
                };
                let addr_sval = self.atom_term(step, addr, tmp_concrete, tmp_sym);
                let addr_symbolic = addr_sval.term.as_const().is_none();
                let loaded = if addr_symbolic {
                    self.symbolic_address_load(idx, step, &addr_sval, acc, *width, result)
                } else {
                    self.concrete_address_load(step.pid, acc.addr, *width, acc.value)
                };
                // A fully concrete result is NOT tracked symbolically: the
                // trace's recorded operands already carry the value, and a
                // constant register entry would go stale across steps the
                // taint gate elides (their writes are invisible here).
                let value = match loaded {
                    Some(sv) if sv.term.as_const().is_none() => {
                        let term = extend(&sv.term, *width, *sext);
                        let term = if *float {
                            Term::f_from_bits(&term)
                        } else {
                            term
                        };
                        Some(SVal { term, lvl: sv.lvl })
                    }
                    _ => None,
                };
                if let Place::Tmp(i) = dst {
                    tmp_concrete.insert(*i, acc.value);
                }
                self.set_place_sym(key, dst, value, tmp_sym);
            }
            Stmt::Store { src, addr, width } => {
                let Some(acc) = step.mem_write else {
                    return; // trapped access
                };
                let addr_sval = self.atom_term(step, addr, tmp_concrete, tmp_sym);
                if addr_sval.term.as_const().is_none() {
                    // Write concretization (all models pin writes).
                    result.pins.push(Pin {
                        step: idx,
                        cond: Term::cmp(CmpOp::Eq, &addr_sval.term, &Term::bv(acc.addr, 64)),
                    });
                    result.events.concretized_stores.push(idx);
                }
                let sval = self.atom_term(step, src, tmp_concrete, tmp_sym);
                let src_symbolic = sval.term.as_const().is_none();
                let mem = self.smem.entry(step.pid).or_default();
                for i in 0..*width as u64 {
                    if src_symbolic {
                        let byte = Term::extract(&sval.term, (8 * i + 7) as u8, (8 * i) as u8);
                        mem.insert(
                            acc.addr + i,
                            SVal {
                                term: byte,
                                lvl: sval.lvl,
                            },
                        );
                    } else {
                        mem.remove(&(acc.addr + i));
                    }
                }
                // Keep the concrete mirror in sync.
                if let Some(mirror) = self.mirrors.get_mut(&step.pid) {
                    let _ = mirror.write_uint(acc.addr, acc.value, *width);
                }
            }
            Stmt::CondJump {
                cmp,
                a,
                b,
                target,
                fallthrough,
            } => {
                let sa = self.atom_term(step, a, tmp_concrete, tmp_sym);
                let sb = self.atom_term(step, b, tmp_concrete, tmp_sym);
                let cond = symbolic_cmp(*cmp, &sa.term, &sb.term);
                if cond.as_bool_const().is_some() {
                    return; // concrete condition
                }
                result.path.push(PathCond {
                    step: idx,
                    pc: step.pc,
                    cond,
                    taken: step.taken.unwrap_or(false),
                    taken_target: *target,
                    fallthrough: *fallthrough,
                });
            }
            Stmt::IndirectJump { target } => {
                let sv = self.atom_term(step, target, tmp_concrete, tmp_sym);
                if sv.term.as_const().is_none() {
                    let runtime = self.atom_concrete(step, target, tmp_concrete);
                    result.pins.push(Pin {
                        step: idx,
                        cond: Term::cmp(CmpOp::Eq, &sv.term, &Term::bv(runtime, 64)),
                    });
                    result.events.pinned_jumps.push((idx, sv.lvl));
                }
            }
            Stmt::Jump { .. } | Stmt::Halt => {}
            Stmt::Syscall => unreachable!("syscalls handled from the record"),
        }
    }

    /// Loads from a concrete address: symbolic bytes override the traced
    /// concrete value. The result term always has width `8 * width` so
    /// table entries are sort-compatible.
    fn concrete_address_load(
        &mut self,
        pid: u32,
        addr: u64,
        width: u8,
        concrete: u64,
    ) -> Option<SVal> {
        let mem = self.smem.entry(pid).or_default();
        let any_symbolic = (0..width as u64).any(|i| mem.contains_key(&(addr + i)));
        if !any_symbolic {
            return Some(SVal {
                term: Term::bv(concrete, 8 * width),
                lvl: 0,
            });
        }
        // Assemble little-endian from byte terms, high byte first in concat.
        let mut term: Option<Term> = None;
        let mut lvl = 0;
        for i in (0..width as u64).rev() {
            let byte = match mem.get(&(addr + i)) {
                Some(sv) => {
                    lvl = lvl.max(sv.lvl);
                    sv.term.clone()
                }
                None => Term::bv((concrete >> (8 * i)) & 0xff, 8),
            };
            term = Some(match term {
                Some(t) => Term::concat(&t, &byte),
                None => byte,
            });
        }
        Some(SVal {
            term: term.expect("width >= 1"),
            lvl,
        })
    }

    /// Loads through a symbolic address according to the memory model.
    fn symbolic_address_load(
        &mut self,
        idx: usize,
        step: StepView<'_>,
        addr_sval: &SVal,
        acc: bomblab_vm::MemAccess,
        width: u8,
        result: &mut SymResult,
    ) -> Option<SVal> {
        let pin_to_runtime = |this: &mut SymExec, result: &mut SymResult| {
            result.pins.push(Pin {
                step: idx,
                cond: Term::cmp(CmpOp::Eq, &addr_sval.term, &Term::bv(acc.addr, 64)),
            });
            this.concrete_address_load(step.pid, acc.addr, width, acc.value)
        };
        match self.model {
            MemoryModel::Concretize => {
                result.events.concretized_loads.push(idx);
                result.events.max_load_level = result.events.max_load_level.max(addr_sval.lvl + 1);
                pin_to_runtime(self, result)
            }
            MemoryModel::SymbolicMap {
                max_indirection,
                region,
            } => {
                let lvl = addr_sval.lvl + 1;
                result.events.max_load_level = result.events.max_load_level.max(lvl);
                if lvl > max_indirection {
                    result.events.over_indirection.push(idx);
                    result.events.concretized_loads.push(idx);
                    return pin_to_runtime(self, result).map(|mut sv| {
                        sv.lvl = lvl;
                        sv
                    });
                }
                // Build a lookup table over the surrounding region, clamped
                // to mapped memory.
                let mut lo = acc.addr.saturating_sub(region);
                let mut hi = acc.addr.saturating_add(region);
                let Some(mirror) = self.mirrors.get(&step.pid) else {
                    result.events.concretized_loads.push(idx);
                    return pin_to_runtime(self, result);
                };
                while lo < acc.addr && !mirror.is_mapped(lo, width as u64) {
                    lo += 1;
                }
                while hi > acc.addr && !mirror.is_mapped(hi, width as u64) {
                    hi -= 1;
                }
                if !mirror.is_mapped(acc.addr, width as u64) {
                    result.events.concretized_loads.push(idx);
                    return pin_to_runtime(self, result);
                }
                // Range guard keeps the table sound.
                result.pins.push(Pin {
                    step: idx,
                    cond: Term::and(
                        &Term::cmp(CmpOp::Ule, &Term::bv(lo, 64), &addr_sval.term),
                        &Term::cmp(CmpOp::Ule, &addr_sval.term, &Term::bv(hi, 64)),
                    ),
                });
                let mut table = self
                    .concrete_address_load(step.pid, acc.addr, width, acc.value)
                    .expect("concrete load always yields a value")
                    .term;
                let mut max_lvl = lvl;
                for a in lo..=hi {
                    if a == acc.addr {
                        continue;
                    }
                    let concrete = self
                        .mirrors
                        .get(&step.pid)
                        .expect("mirror checked above")
                        .read_uint(a, width)
                        .unwrap_or(0);
                    let entry = self
                        .concrete_address_load(step.pid, a, width, concrete)
                        .expect("concrete load always yields a value");
                    max_lvl = max_lvl.max(entry.lvl + 1);
                    let is_here = Term::cmp(CmpOp::Eq, &addr_sval.term, &Term::bv(a, 64));
                    table = Term::ite(&is_here, &entry.term, &table);
                }
                Some(SVal {
                    term: table,
                    lvl: max_lvl,
                })
            }
        }
    }

    // ---- syscalls ----

    fn apply_syscall(&mut self, idx: usize, step: StepView<'_>, result: &mut SymResult) {
        let key = (step.pid, step.tid);
        let record = step.sys.expect("caller checked");
        // Symbolic syscall number / arguments are diagnostic events.
        if self
            .sregs
            .get(&key)
            .is_some_and(|m| m.contains_key(&Reg::SV.index()))
        {
            result.events.sym_sys_nums.push(idx);
        }
        let arg_regs = [Reg::A0, Reg::A1, Reg::A2, Reg::A3, Reg::A4, Reg::A5];
        if arg_regs.iter().any(|r| {
            self.sregs
                .get(&key)
                .is_some_and(|m| m.contains_key(&r.index()))
        }) {
            result.events.sym_sys_args.push(idx);
        }
        // A symbolic file *name* is also a contextual event.
        if let SysEffect::OpenedFile { path, .. } = &record.effect {
            let mem = self.smem.entry(step.pid).or_default();
            let plen = path.len().max(1) as u64;
            if (0..plen).any(|i| mem.contains_key(&(record.args[0] + i))) {
                result.events.sym_sys_args.push(idx);
            }
        }

        match &record.effect {
            SysEffect::OutputBytes {
                addr,
                bytes,
                sink,
                offset,
            } => {
                let mem = self.smem.entry(step.pid).or_default();
                let mut symbolic_bytes: Vec<(u64, SVal)> = Vec::new();
                for i in 0..bytes.len() as u64 {
                    if let Some(sv) = mem.get(&(addr + i)) {
                        symbolic_bytes.push((i, sv.clone()));
                    }
                }
                if !symbolic_bytes.is_empty() {
                    match sink {
                        OutputSink::File(name) => {
                            if self.policy.through_files {
                                let file = self.sfiles.entry(name.clone()).or_default();
                                for (i, sv) in symbolic_bytes {
                                    file.insert(offset + i, sv);
                                }
                            } else {
                                result.events.dropped_file_flows.push(idx);
                            }
                        }
                        OutputSink::Pipe(id) => {
                            if self.policy.through_pipes {
                                let pipe = self.spipes.entry(*id).or_default();
                                for (i, sv) in symbolic_bytes {
                                    pipe.insert(offset + i, sv);
                                }
                            } else {
                                result.events.dropped_pipe_flows.push(idx);
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
                offset,
            } => {
                // Mirror first.
                if let Some(mirror) = self.mirrors.get_mut(&step.pid) {
                    let _ = mirror.write_bytes(*addr, bytes);
                }
                for i in 0..bytes.len() as u64 {
                    let sym: Option<SVal> = match source {
                        InputSource::File(name) => self
                            .sfiles
                            .get(name)
                            .and_then(|f| f.get(&(offset + i)))
                            .cloned(),
                        InputSource::Pipe(id) => self
                            .spipes
                            .get(id)
                            .and_then(|p| p.get(&(offset + i)))
                            .cloned(),
                        InputSource::Stdin => {
                            if self.env.stdin {
                                Some(SVal {
                                    term: Term::var(format!("stdin_b{}", offset + i), 8),
                                    lvl: 0,
                                })
                            } else {
                                None
                            }
                        }
                        InputSource::Net => {
                            if self.env.net {
                                Some(SVal {
                                    term: Term::var(format!("net_b{i}"), 8),
                                    lvl: 0,
                                })
                            } else {
                                None
                            }
                        }
                    };
                    let mem = self.smem.entry(step.pid).or_default();
                    match sym {
                        Some(sv) => {
                            mem.insert(addr + i, sv);
                        }
                        None => {
                            mem.remove(&(addr + i));
                        }
                    }
                }
            }
            SysEffect::Forked { child } => {
                let parent_mirror = self.mirrors.get(&step.pid).cloned();
                let parent_smem = self.smem.get(&step.pid).cloned().unwrap_or_default();
                let gpr = self.sregs.get(&key).cloned().unwrap_or_default();
                let fpr = self.sfpr.get(&key).cloned().unwrap_or_default();
                let any = !parent_smem.is_empty() || !gpr.is_empty() || !fpr.is_empty();
                if self.policy.across_processes {
                    if let Some(m) = parent_mirror {
                        self.mirrors.insert(*child, m);
                    }
                    self.smem.insert(*child, parent_smem);
                    // a0 is concrete 0 in the child.
                    let mut child_gpr = gpr;
                    child_gpr.remove(&Reg::A0.index());
                    self.fork_seeds.insert(*child, (child_gpr, fpr));
                } else {
                    // Child still needs a concrete mirror for table loads.
                    if let Some(m) = parent_mirror {
                        self.mirrors.insert(*child, m);
                    }
                    if any {
                        result.events.dropped_fork_flows.push(idx);
                    }
                }
            }
            SysEffect::SpawnedThread { tid: new_tid, .. } => {
                let arg_sym = self
                    .sregs
                    .get(&key)
                    .and_then(|m| m.get(&Reg::A1.index()))
                    .cloned();
                if let Some(sv) = arg_sym {
                    if self.policy.across_threads {
                        let m = self.sregs.entry((step.pid, *new_tid)).or_default();
                        m.insert(Reg::A0.index(), sv);
                    } else {
                        result.events.dropped_thread_flows.push(idx);
                    }
                }
            }
            SysEffect::PipeCreated { rfd, wfd, addr } => {
                if let Some(mirror) = self.mirrors.get_mut(&step.pid) {
                    let _ = mirror.write_uint(*addr, *rfd as u64, 8);
                    let _ = mirror.write_uint(addr + 8, *wfd as u64, 8);
                }
                let mem = self.smem.entry(step.pid).or_default();
                for i in 0..16 {
                    mem.remove(&(addr + i));
                }
            }
            SysEffect::OpenedFile { .. } | SysEffect::None => {}
        }

        // lseek covert channel: a symbolic offset flows into the kernel
        // file position and back out of a later query.
        let mut lseek_sym: Option<SVal> = None;
        if record.num == sys::LSEEK {
            let fdkey = (step.pid, record.args[0]);
            let off_sym = self
                .sregs
                .get(&key)
                .and_then(|m| m.get(&Reg::A1.index()))
                .cloned();
            if let (Some(sv), 0) = (off_sym, record.args[2]) {
                // SEEK_SET with symbolic offset.
                if self.policy.through_files {
                    self.sfilepos.insert(fdkey, sv);
                }
            }
            lseek_sym = self.sfilepos.get(&fdkey).cloned();
        }

        // Return value: concrete by default; `time` may be symbolized, and
        // SimProcedure-style simulation makes environment returns fresh
        // unconstrained variables.
        let env_syscall = !matches!(
            record.num,
            sys::EXIT
                | sys::THREAD_EXIT
                | sys::WRITE
                | sys::READ
                | sys::OPEN
                | sys::CLOSE
                | sys::PIPE
                | sys::FORK
                | sys::THREAD_SPAWN
                | sys::SET_TRAP_HANDLER
                | sys::NET_GET
                | sys::UNLINK
                | sys::TIME // simulated with a concrete clock
        );
        let ret_sym = match record.num {
            sys::LSEEK if lseek_sym.is_some() && !self.env.unconstrained_sys_returns => lseek_sym,
            sys::TIME if self.env.time => Some(SVal {
                term: Term::var("time", 64),
                lvl: 0,
            }),
            _ if self.env.unconstrained_sys_returns && env_syscall => Some(SVal {
                term: Term::var(format!("sysret_{idx}"), 64),
                lvl: 0,
            }),
            _ => None,
        };
        let m = self.sregs.entry(key).or_default();
        match ret_sym {
            Some(sv) => {
                m.insert(Reg::A0.index(), sv);
            }
            None => {
                m.remove(&Reg::A0.index());
            }
        }
    }
}

fn is_fconst(t: &Term) -> bool {
    matches!(t.node(), bomblab_solver::expr::Node::FConst(_))
}

fn concrete_bin(op: BinOp, a: u64, b: u64) -> u64 {
    match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::DivU => a.checked_div(b).unwrap_or(0),
        BinOp::DivS => {
            if b == 0 {
                0
            } else {
                (a as i64).wrapping_div(b as i64) as u64
            }
        }
        BinOp::RemU => {
            if b == 0 {
                a
            } else {
                a % b
            }
        }
        BinOp::RemS => {
            if b == 0 {
                a
            } else {
                (a as i64).wrapping_rem(b as i64) as u64
            }
        }
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        BinOp::Shl => a.wrapping_shl(b as u32 & 63),
        BinOp::ShrU => a.wrapping_shr(b as u32 & 63),
        BinOp::ShrS => ((a as i64).wrapping_shr(b as u32 & 63)) as u64,
        BinOp::SltS => ((a as i64) < (b as i64)) as u64,
        BinOp::SltU => (a < b) as u64,
        BinOp::FAdd => (f64::from_bits(a) + f64::from_bits(b)).to_bits(),
        BinOp::FSub => (f64::from_bits(a) - f64::from_bits(b)).to_bits(),
        BinOp::FMul => (f64::from_bits(a) * f64::from_bits(b)).to_bits(),
        BinOp::FDiv => (f64::from_bits(a) / f64::from_bits(b)).to_bits(),
    }
}

fn symbolic_bin(op: BinOp, a: &Term, b: &Term) -> Term {
    match op {
        BinOp::Add => Term::bin(BvOp::Add, a, b),
        BinOp::Sub => Term::bin(BvOp::Sub, a, b),
        BinOp::Mul => Term::bin(BvOp::Mul, a, b),
        BinOp::DivU => Term::bin(BvOp::UDiv, a, b),
        BinOp::DivS => Term::bin(BvOp::SDiv, a, b),
        BinOp::RemU => Term::bin(BvOp::URem, a, b),
        BinOp::RemS => Term::bin(BvOp::SRem, a, b),
        BinOp::And => Term::bin(BvOp::And, a, b),
        BinOp::Or => Term::bin(BvOp::Or, a, b),
        BinOp::Xor => Term::bin(BvOp::Xor, a, b),
        BinOp::Shl => Term::bin(BvOp::Shl, a, b),
        BinOp::ShrU => Term::bin(BvOp::LShr, a, b),
        BinOp::ShrS => Term::bin(BvOp::AShr, a, b),
        BinOp::SltS => Term::ite(
            &Term::cmp(CmpOp::Slt, a, b),
            &Term::bv(1, 64),
            &Term::bv(0, 64),
        ),
        BinOp::SltU => Term::ite(
            &Term::cmp(CmpOp::Ult, a, b),
            &Term::bv(1, 64),
            &Term::bv(0, 64),
        ),
        BinOp::FAdd => Term::fbin(FOp::Add, a, b),
        BinOp::FSub => Term::fbin(FOp::Sub, a, b),
        BinOp::FMul => Term::fbin(FOp::Mul, a, b),
        BinOp::FDiv => Term::fbin(FOp::Div, a, b),
    }
}

fn symbolic_cmp(cmp: CmpK, a: &Term, b: &Term) -> Term {
    match cmp {
        CmpK::Eq => Term::cmp(CmpOp::Eq, a, b),
        CmpK::Ne => Term::not(&Term::cmp(CmpOp::Eq, a, b)),
        CmpK::LtS => Term::cmp(CmpOp::Slt, a, b),
        CmpK::GeS => Term::not(&Term::cmp(CmpOp::Slt, a, b)),
        CmpK::LtU => Term::cmp(CmpOp::Ult, a, b),
        CmpK::GeU => Term::not(&Term::cmp(CmpOp::Ult, a, b)),
        CmpK::FEq => Term::fcmp(FCmpOp::Eq, a, b),
        CmpK::FLt => Term::fcmp(FCmpOp::Lt, a, b),
        CmpK::FLe => Term::fcmp(FCmpOp::Le, a, b),
    }
}

/// Truncates/extends a loaded 64-bit term to the access width and back.
fn extend(t: &Term, width: u8, sext: bool) -> Term {
    if width == 8 {
        return t.clone();
    }
    let bits = 8 * width;
    let narrow = if t.width() > bits {
        Term::extract(t, bits - 1, 0)
    } else {
        t.clone()
    };
    if sext {
        Term::sext(&narrow, 64)
    } else {
        Term::zext(&narrow, 64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flip_query_orients_and_negates() {
        let x = Term::var("x", 64);
        let cond = Term::cmp(CmpOp::Eq, &x, &Term::bv(5, 64));
        let result = SymResult {
            path: vec![
                PathCond {
                    step: 0,
                    pc: 0x10,
                    cond: cond.clone(),
                    taken: true,
                    taken_target: 0x20,
                    fallthrough: 0x18,
                },
                PathCond {
                    step: 3,
                    pc: 0x30,
                    cond: cond.clone(),
                    taken: false,
                    taken_target: 0x40,
                    fallthrough: 0x38,
                },
            ],
            pins: vec![Pin {
                step: 1,
                cond: Term::cmp(CmpOp::Ult, &x, &Term::bv(100, 64)),
            }],
            events: SymEvents::default(),
        };
        // Flipping branch 1: pin (step 1 <= 3) + branch 0 as taken +
        // negation of branch 1 (it was not taken, so asserted positively —
        // the same hash-consed term as branch 0, so it dedups away).
        let q = result.flip_query(1);
        assert_eq!(q.len(), 2);
        // Flipping branch 0: the pin at step 1 comes after step 0, so it
        // is excluded; only the negated branch remains.
        let q0 = result.flip_query(0);
        assert_eq!(q0.len(), 1);
        assert_eq!(q0[0].as_bool_const(), None);
    }

    #[test]
    fn path_query_includes_everything() {
        let x = Term::var("x", 64);
        let result = SymResult {
            path: vec![PathCond {
                step: 0,
                pc: 0,
                cond: Term::cmp(CmpOp::Eq, &x, &Term::bv(1, 64)),
                taken: true,
                taken_target: 0,
                fallthrough: 0,
            }],
            pins: vec![Pin {
                step: 0,
                cond: Term::cmp(CmpOp::Ult, &x, &Term::bv(9, 64)),
            }],
            events: SymEvents::default(),
        };
        assert_eq!(result.path_query().len(), 2);
        assert!(!result.has_float());
    }

    #[test]
    fn queries_drop_repeats_and_subsumed_conjuncts() {
        let x = Term::var("x", 64);
        let a = Term::cmp(CmpOp::Eq, &x, &Term::bv(1, 64));
        let b = Term::cmp(CmpOp::Ult, &x, &Term::bv(9, 64));
        let both = Term::and(&a, &b);
        // `a` repeats and both `a` and `b` are conjuncts of `both`.
        let q = dedup_query(vec![a.clone(), b.clone(), a.clone(), both.clone()]);
        assert_eq!(q, vec![both]);
        // Distinct, unrelated constraints pass through in order.
        let q2 = dedup_query(vec![b.clone(), a.clone()]);
        assert_eq!(q2, vec![b, a]);
    }

    #[test]
    fn propagation_policy_presets() {
        let full = PropagationPolicy::full();
        assert!(full.through_files && full.through_pipes);
        assert!(full.across_threads && full.across_processes);
        let direct = PropagationPolicy::direct_only();
        assert!(!direct.through_files && !direct.across_processes);
    }

    #[test]
    fn symbolize_bytes_creates_named_byte_vars() {
        let mut sx = SymExec::new(MemoryModel::Concretize, PropagationPolicy::full());
        sx.symbolize_bytes(1, 0x100, 3, "inp");
        let mem = sx.smem.get(&1).expect("pid map");
        assert_eq!(mem.len(), 3);
        let sv = mem.get(&0x101).expect("byte present");
        assert_eq!(format!("{}", sv.term), "inp_b1");
        assert_eq!(sv.lvl, 0);
    }

    #[test]
    fn memory_models_compare() {
        assert_ne!(
            MemoryModel::Concretize,
            MemoryModel::SymbolicMap {
                max_indirection: 1,
                region: 128
            }
        );
    }
}
