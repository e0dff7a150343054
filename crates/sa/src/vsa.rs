//! Value-set analysis: strided-interval abstract interpretation over the
//! recovered CFG.
//!
//! Tracks, per general register, a [`StridedInterval`] of possible values
//! plus a *taint depth*: `None` means provably input-independent,
//! `Some(d)` means the value may derive from program input through `d`
//! levels of tainted-address memory indirection. Taint sources are loads
//! from the argv block and returns of environment syscalls (`time`,
//! `net_get`, `getuid`, `read`, …). This mirrors the dynamic engine's
//! `max_indirection` / `sym_jump` ground-truth measures, which is what
//! lets static predictions line up with dynamic outcomes.
//!
//! ## Soundness model
//!
//! * All interval arithmetic widens to ⊤ rather than wrap.
//! * Loads from static data are only replaced by their concrete contents
//!   when (a) the address set is small and finite, (b) it lies entirely
//!   inside static segments, and (c) a previous *collect* round proved no
//!   store and no memory-writing syscall can touch those addresses.
//! * An unresolved indirect **call** poisons the store cover (it could
//!   reach any code). Unresolved indirect **jumps** are assumed to stay
//!   inside the enclosing function; code not yet recovered by descent is
//!   linearly swept, and any store found there poisons the cover too.
//! * Branch edges are marked infeasible only when *every* analyzed
//!   calling context proves the comparison one-sided.

use crate::cfg::Cfg;
use crate::code::{CodeMap, Region};
use bomblab_interval::StridedInterval;
use bomblab_isa::image::layout;
use bomblab_isa::{sys, Insn, Opcode, Reg};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

/// Taint depths are capped so fixpoints terminate.
const MAX_DEPTH: u8 = 8;
/// Block visits before switching from join to widen.
const WIDEN_AFTER: u32 = 8;
/// Largest address set a load or `jr` will enumerate.
const MAX_ENUM: u64 = 256;

/// Taint source: program arguments (the paper tools' only symbolic
/// source).
pub const SRC_ARGV: u8 = 1;
/// Taint source: environment / kernel state (time, uid, file positions,
/// net responses, scheduling) — symbolic only under simulation.
pub const SRC_ENV: u8 = 2;
/// Taint source: file descriptors returned by `open`. Tracked separately
/// so branches comparing an fd against −1 (error checks) are
/// distinguishable from genuine environment branches.
pub const SRC_FD: u8 = 4;

/// A taint mark: indirection depth plus the union of its sources.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Mark {
    /// Levels of tainted-address memory indirection behind this value.
    pub depth: u8,
    /// Bitmask of `SRC_*` origins.
    pub src: u8,
}

/// Taint lattice: `None` ⊑ `Some(Mark)`; join is max-depth, union-src.
type Taint = Option<Mark>;

fn mark(depth: u8, src: u8) -> Taint {
    Some(Mark {
        depth: depth.min(MAX_DEPTH),
        src,
    })
}

fn taint_join(a: Taint, b: Taint) -> Taint {
    match (a, b) {
        (None, t) | (t, None) => t,
        (Some(x), Some(y)) => Some(Mark {
            depth: x.depth.max(y.depth).min(MAX_DEPTH),
            src: x.src | y.src,
        }),
    }
}

/// An abstract register value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct AVal {
    si: StridedInterval,
    taint: Taint,
}

impl AVal {
    fn top() -> AVal {
        AVal {
            si: StridedInterval::top(),
            taint: None,
        }
    }
    fn point(v: u64) -> AVal {
        AVal {
            si: StridedInterval::point(v),
            taint: None,
        }
    }
}

/// Abstract machine state at a block boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
struct State {
    regs: [AVal; 32],
    fregs: [Taint; 16],
}

impl State {
    fn top() -> State {
        State {
            regs: [AVal::top(); 32],
            fregs: [None; 16],
        }
    }

    fn get(&self, r: Reg) -> AVal {
        if r == Reg::ZERO {
            AVal::point(0)
        } else {
            self.regs[r.index()]
        }
    }

    fn set(&mut self, r: Reg, v: AVal) {
        if r != Reg::ZERO {
            self.regs[r.index()] = v;
        }
    }

    fn join_from(&mut self, other: &State, widen: bool) -> bool {
        let mut changed = false;
        for i in 0..32 {
            let old = self.regs[i];
            let si = if widen {
                old.si.widen(&other.regs[i].si)
            } else {
                old.si.join(&other.regs[i].si)
            };
            let new = AVal {
                si,
                taint: taint_join(old.taint, other.regs[i].taint),
            };
            if new != old {
                self.regs[i] = new;
                changed = true;
            }
        }
        for i in 0..16 {
            let t = taint_join(self.fregs[i], other.fregs[i]);
            if t != self.fregs[i] {
                self.fregs[i] = t;
                changed = true;
            }
        }
        changed
    }
}

/// Taint signature of a call context: marks of `a0..a5` and `sv`,
/// plus whether this is the program entry context.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct Sig {
    args: [Taint; 7],
    entry: bool,
}

impl Sig {
    fn all_tainted() -> Sig {
        Sig {
            args: [mark(0, SRC_ARGV); 7],
            entry: false,
        }
    }
    /// The most conservative return taint implied by the arguments alone.
    fn worst(&self) -> Taint {
        self.args.iter().fold(None, |acc, &t| taint_join(acc, t))
    }
}

/// Store cover from a collect round: address intervals that may be
/// written at run time.
#[derive(Debug, Clone, Default)]
pub struct Cover {
    intervals: Vec<(u64, u64)>,
    /// Some write's target could not be bounded.
    pub unknown: bool,
}

impl Cover {
    fn add(&mut self, lo: u64, hi: u64) {
        self.intervals.push((lo, hi));
    }
    fn overlaps(&self, lo: u64, hi: u64) -> bool {
        self.unknown || self.intervals.iter().any(|&(a, b)| lo <= b && a <= hi)
    }
    /// Whether `self` stayed within what `prior` already covered.
    #[must_use]
    pub fn within(&self, prior: &Cover) -> bool {
        if prior.unknown {
            return true;
        }
        if self.unknown {
            return false;
        }
        self.intervals.iter().all(|&(a, b)| {
            // Split-free check: every written interval must fit inside one
            // prior interval (stores here are small and non-adjacent).
            prior.intervals.iter().any(|&(pa, pb)| pa <= a && b <= pb)
        })
    }
}

/// One `sys` site as seen by the analysis.
#[derive(Debug, Clone, Default)]
pub struct SysSite {
    /// Resolved syscall numbers (empty = unknown).
    pub nums: Vec<u64>,
    /// `sv` is a single known constant.
    pub sv_point: bool,
    /// `sv` may derive from input (contextual syscall number).
    pub sv_tainted: bool,
    /// Taint of `a0`/`a1` at the call.
    pub a0_taint: bool,
    /// Taint depth of `a1` (buffer/argument pointer), if any.
    pub a1_taint: bool,
}

/// Facts produced by a run of the analysis.
#[derive(Debug, Clone, Default)]
pub struct VsaOut {
    /// `jr` site → (targets, taint of the jump value). Empty target
    /// set means unresolved.
    pub jr: BTreeMap<u64, (BTreeSet<u64>, Option<Mark>)>,
    /// All conditional-branch sites seen.
    pub branch_sites: BTreeSet<u64>,
    /// `(branch pc, taken)` edges observed feasible in some context.
    pub feasible: BTreeSet<(u64, bool)>,
    /// `sys` sites.
    pub sys_sites: BTreeMap<u64, SysSite>,
    /// Deepest tainted-address load chain anywhere.
    pub max_load_depth: u8,
    /// Deepest tainted-address load chain in executable (non-library) text.
    pub max_load_depth_exe: u8,
    /// Sites of loads with tainted addresses, with their depth.
    pub tainted_loads: BTreeMap<u64, u8>,
    /// A `push` of a tainted value exists.
    pub tainted_push: bool,
    /// Input reaches floating-point computation.
    pub fp_tainted: bool,
    /// Division sites whose divisor may be zero and derives from input.
    pub tainted_div: BTreeSet<u64>,
    /// Union of `SRC_*` bits over all tainted conditional branches.
    pub branch_src: u8,
    /// A branch compares an `open` return value against −1: the program
    /// checks for open failure before using the file.
    pub open_error_branch: bool,
    /// Indirect calls with no static callee set.
    pub callr_unresolved: BTreeSet<u64>,
    /// Names of directly called functions (post import resolution).
    pub called: BTreeSet<String>,
    /// Library functions called with at least one tainted argument.
    pub tainted_lib_calls: BTreeSet<String>,
    /// Code addresses passed to `sys` as trap handlers / thread entries.
    pub extra_roots: BTreeMap<u64, String>,
    /// The program loads argv bytes (has a symbolic input source).
    pub loads_argv: bool,
    /// Conditional-branch sites (incl. float branches) whose condition
    /// operands carry taint, with the union of their `SRC_*` bits.
    pub branch_taint: BTreeMap<u64, u8>,
    /// Instructions that *define* a tainted value from outside the
    /// register file — loads of tainted cells, `sys` returns, tainted
    /// pops. These seed the def-use taint closure.
    pub tainted_defs: BTreeMap<u64, u8>,
    /// Stores into static data, pc -> written `(lo, hi)` byte range
    /// (bounded addresses only). Raw material for race detection.
    pub static_stores: BTreeMap<u64, (u64, u64)>,
    /// Loads from static data, pc -> read `(lo, hi)` byte range.
    pub static_loads: BTreeMap<u64, (u64, u64)>,
    /// `fork` syscall sites: code after one runs in both the parent and
    /// the child, so mutually unreachable post-fork arms are concurrent.
    pub fork_sites: BTreeSet<u64>,
}

impl VsaOut {
    /// Branch edges proved infeasible in every analyzed context.
    #[must_use]
    pub fn infeasible_edges(&self) -> BTreeSet<(u64, bool)> {
        let mut out = BTreeSet::new();
        for &pc in &self.branch_sites {
            for taken in [false, true] {
                if !self.feasible.contains(&(pc, taken)) {
                    out.insert((pc, taken));
                }
            }
        }
        out
    }
}

/// The analyzer. Run a *collect* pass first (no load resolution, builds
/// the store cover), then a *resolve* pass that consumes the cover.
pub struct Vsa<'a> {
    code: &'a CodeMap,
    cfg: &'a Cfg,
    entry: u64,
    resolve: bool,
    prior_cover: Cover,
    cover: Cover,
    region_taint: BTreeMap<Region, Mark>,
    memo: HashMap<(u64, Sig), Taint>,
    in_progress: HashSet<(u64, Sig)>,
    poisoned_jr: BTreeSet<u64>,
    tainted_roots: BTreeSet<u64>,
    depth_budget: u32,
    out: VsaOut,
}

/// Result of a full analysis run.
pub struct VsaRun {
    /// The facts.
    pub out: VsaOut,
    /// Store cover observed during this run.
    pub cover: Cover,
}

impl<'a> Vsa<'a> {
    /// Runs the analysis. `resolve` enables static-data load resolution
    /// against `prior_cover` (from an earlier collect run).
    #[must_use]
    pub fn run(
        code: &'a CodeMap,
        cfg: &'a Cfg,
        entry: u64,
        resolve: bool,
        prior_cover: Cover,
        tainted_roots: &BTreeSet<u64>,
    ) -> VsaRun {
        let mut vsa = Vsa {
            code,
            cfg,
            entry,
            resolve,
            prior_cover,
            cover: Cover::default(),
            region_taint: BTreeMap::new(),
            memo: HashMap::new(),
            in_progress: HashSet::new(),
            poisoned_jr: BTreeSet::new(),
            tainted_roots: tainted_roots.clone(),
            depth_budget: 0,
            out: VsaOut::default(),
        };
        // Region taints and the cover grow monotonically; iterate the
        // whole-program analysis until they settle.
        let mut prev_key = (BTreeMap::new(), 0usize, false);
        for _ in 0..4 {
            vsa.memo.clear();
            vsa.in_progress.clear();
            vsa.poisoned_jr.clear();
            vsa.out = VsaOut::default();
            vsa.cover = Cover::default();
            vsa.depth_budget = 200_000;
            vsa.analyze_roots();
            let key = (
                vsa.region_taint.clone(),
                vsa.cover.intervals.len(),
                vsa.cover.unknown,
            );
            if key == prev_key {
                break;
            }
            prev_key = key;
        }
        vsa.sweep_orphans();
        if !vsa.out.callr_unresolved.is_empty() {
            vsa.cover.unknown = true;
        }
        VsaRun {
            out: vsa.out,
            cover: vsa.cover,
        }
    }

    fn analyze_roots(&mut self) {
        let entry_sig = Sig {
            args: [None; 7],
            entry: true,
        };
        self.analyze_fn(self.entry, entry_sig);
        // Trap handlers and thread entries run with input already in
        // flight: analyze them with fully tainted arguments.
        let roots: Vec<u64> = self
            .cfg
            .functions
            .keys()
            .copied()
            .filter(|r| *r != self.entry && self.tainted_roots.contains(r))
            .collect();
        for root in roots {
            self.analyze_fn(root, Sig::all_tainted());
        }
    }

    /// Linear sweep over text bytes not covered by any recovered block:
    /// code reachable only through unresolved indirect jumps. Any store
    /// or syscall found there conservatively poisons the cover.
    fn sweep_orphans(&mut self) {
        let unresolved_jr = self.out.jr.values().any(|(targets, _)| targets.is_empty());
        if !unresolved_jr {
            return;
        }
        let blocks: Vec<(u64, u64)> = self.cfg.blocks.values().map(|b| (b.start, b.end)).collect();
        if sweep_orphan_text(self.code, &blocks).poisons {
            self.cover.unknown = true;
        }
    }

    /// Analyzes one function under one taint signature; returns the taint
    /// of its return value (`a0` at `ret`).
    fn analyze_fn(&mut self, entry: u64, sig: Sig) -> Taint {
        if let Some(&t) = self.memo.get(&(entry, sig)) {
            return t;
        }
        let conservative = sig.worst();
        if self.depth_budget == 0 || !self.in_progress.insert((entry, sig)) {
            return conservative;
        }
        let Some(func) = self.cfg.functions.get(&entry).cloned() else {
            self.in_progress.remove(&(entry, sig));
            return conservative;
        };
        if !self.cfg.blocks.contains_key(&entry) {
            self.in_progress.remove(&(entry, sig));
            return conservative;
        }

        let mut in_states: BTreeMap<u64, State> = BTreeMap::new();
        in_states.insert(entry, self.initial_state(sig));
        let mut visits: BTreeMap<u64, u32> = BTreeMap::new();
        let mut work: Vec<u64> = vec![entry];
        while let Some(b) = work.pop() {
            if self.depth_budget == 0 {
                break;
            }
            self.depth_budget = self.depth_budget.saturating_sub(1);
            let v = visits.entry(b).or_insert(0);
            *v += 1;
            let widen = *v > WIDEN_AFTER;
            let Some(state) = in_states.get(&b).cloned() else {
                continue;
            };
            let out_state = self.transfer_block(b, state, None);
            let succs = self.cfg.blocks[&b].succs.clone();
            for s in succs {
                if !func.blocks.contains(&s) {
                    continue;
                }
                match in_states.get_mut(&s) {
                    Some(existing) => {
                        if existing.join_from(&out_state, widen) {
                            work.push(s);
                        }
                    }
                    None => {
                        in_states.insert(s, out_state.clone());
                        work.push(s);
                    }
                }
            }
        }

        // Reporting pass over the stabilized states.
        let mut ret_taint: Taint = None;
        for (&b, state) in &in_states {
            let mut report = ReportSink::default();
            let _ = self.transfer_block(b, state.clone(), Some(&mut report));
            ret_taint = taint_join(ret_taint, report.ret_taint);
            self.merge_report(report, entry);
        }

        self.in_progress.remove(&(entry, sig));
        self.memo.insert((entry, sig), ret_taint);
        ret_taint
    }

    fn initial_state(&self, sig: Sig) -> State {
        let mut st = State::top();
        st.set(Reg::SP, AVal::point(layout::STACK_TOP - 64));
        st.set(Reg::FP, AVal::point(layout::STACK_TOP - 64));
        if sig.entry {
            // argc in a0, argv block pointer in a1 (see Machine::load).
            st.set(
                Reg::A0,
                AVal {
                    si: StridedInterval::new(1, 4096, 1),
                    taint: None,
                },
            );
            st.set(Reg::A1, AVal::point(layout::ARGV_BASE));
        } else {
            let args = [
                Reg::A0,
                Reg::A1,
                Reg::A2,
                Reg::A3,
                Reg::A4,
                Reg::A5,
                Reg::SV,
            ];
            for (i, r) in args.into_iter().enumerate() {
                st.set(
                    r,
                    AVal {
                        si: StridedInterval::top(),
                        taint: sig.args[i],
                    },
                );
            }
        }
        st
    }

    fn merge_report(&mut self, r: ReportSink, _fn_entry: u64) {
        // A `jr` unresolved in any context is unresolved, full stop.
        for &pc in &r.jr_unresolved {
            self.poisoned_jr.insert(pc);
        }
        for (pc, info) in r.jr {
            let entry = self
                .out
                .jr
                .entry(pc)
                .or_insert_with(|| (BTreeSet::new(), None));
            if let Some((targets, depth)) = info {
                entry.1 = taint_join(entry.1, depth);
                if !self.poisoned_jr.contains(&pc) {
                    entry.0.extend(targets);
                }
            }
            if self.poisoned_jr.contains(&pc) {
                entry.0.clear();
            }
        }
        self.out.branch_sites.extend(r.branch_sites);
        self.out.feasible.extend(r.feasible);
        for (pc, site) in r.sys_sites {
            let slot = self.out.sys_sites.entry(pc).or_default();
            let mut nums: BTreeSet<u64> = slot.nums.iter().copied().collect();
            nums.extend(site.nums.iter().copied());
            slot.nums = nums.into_iter().collect();
            slot.sv_point |= site.sv_point;
            slot.sv_tainted |= site.sv_tainted;
            slot.a0_taint |= site.a0_taint;
            slot.a1_taint |= site.a1_taint;
        }
        for (pc, d) in r.tainted_loads {
            let e = self.out.tainted_loads.entry(pc).or_insert(0);
            *e = (*e).max(d);
            self.out.max_load_depth = self.out.max_load_depth.max(d);
            if pc < layout::LIB_TEXT_BASE {
                self.out.max_load_depth_exe = self.out.max_load_depth_exe.max(d);
            }
        }
        self.out.tainted_push |= r.tainted_push;
        self.out.fp_tainted |= r.fp_tainted;
        self.out.tainted_div.extend(r.tainted_div);
        self.out.branch_src |= r.branch_src;
        self.out.open_error_branch |= r.open_error_branch;
        self.out.callr_unresolved.extend(r.callr_unresolved);
        self.out.called.extend(r.called);
        self.out.tainted_lib_calls.extend(r.tainted_lib_calls);
        self.out.extra_roots.extend(r.extra_roots);
        self.out.loads_argv |= r.loads_argv;
        for (pc, src) in r.branch_taint {
            *self.out.branch_taint.entry(pc).or_insert(0) |= src;
        }
        for (pc, src) in r.tainted_defs {
            *self.out.tainted_defs.entry(pc).or_insert(0) |= src;
        }
        for (pc, (lo, hi)) in r.static_stores {
            let e = self.out.static_stores.entry(pc).or_insert((lo, hi));
            e.0 = e.0.min(lo);
            e.1 = e.1.max(hi);
        }
        for (pc, (lo, hi)) in r.static_loads {
            let e = self.out.static_loads.entry(pc).or_insert((lo, hi));
            e.0 = e.0.min(lo);
            e.1 = e.1.max(hi);
        }
        self.out.fork_sites.extend(r.fork_sites);
    }

    /// Abstractly executes one block. When `report` is given, facts are
    /// recorded (final pass); effects on global accumulators (cover,
    /// region taint) happen in both modes.
    #[allow(clippy::too_many_lines)]
    fn transfer_block(
        &mut self,
        block: u64,
        mut st: State,
        mut report: Option<&mut ReportSink>,
    ) -> State {
        let insns = self.cfg.blocks[&block].insns.clone();
        for (pc, insn) in insns {
            self.transfer_insn(pc, insn, &mut st, &mut report);
        }
        st
    }

    #[allow(clippy::too_many_lines)]
    fn transfer_insn(
        &mut self,
        pc: u64,
        insn: Insn,
        st: &mut State,
        report: &mut Option<&mut ReportSink>,
    ) {
        match insn {
            Insn::Alu3 { op, rd, rs, rt } => {
                let a = st.get(rs);
                let b = st.get(rt);
                self.note_div(pc, op, &b, report);
                st.set(rd, alu(op, &a, &b));
            }
            Insn::AluI { op, rd, rs, imm } => {
                let a = st.get(rs);
                let b = AVal::point(imm as i64 as u64);
                st.set(rd, alu(op, &a, &b));
            }
            Insn::Mov { rd, rs } => {
                let v = st.get(rs);
                st.set(rd, v);
            }
            Insn::Not { rd, rs } => {
                let a = st.get(rs);
                let si =
                    a.si.as_point()
                        .map_or_else(StridedInterval::top, |v| StridedInterval::point(!v));
                st.set(rd, AVal { si, taint: a.taint });
            }
            Insn::Neg { rd, rs } => {
                let a = st.get(rs);
                let si = a.si.as_point().map_or_else(StridedInterval::top, |v| {
                    StridedInterval::point(v.wrapping_neg())
                });
                st.set(rd, AVal { si, taint: a.taint });
            }
            Insn::Li { rd, imm } => st.set(rd, AVal::point(imm)),
            Insn::Load { op, rd, base, off } => {
                let addr = offset(&st.get(base), off);
                self.record_static_access(pc, &addr, store_width(op), false, report);
                let v = self.load(pc, op, &addr, report);
                if let (Some(m), Some(r)) = (v.taint, report.as_deref_mut()) {
                    *r.tainted_defs.entry(pc).or_insert(0) |= m.src;
                }
                st.set(rd, v);
            }
            Insn::Store { op, src, base, off } => {
                let addr = offset(&st.get(base), off);
                self.record_static_access(pc, &addr, store_width(op), true, report);
                self.store(&addr, store_width(op), st.get(src).taint);
            }
            Insn::Push { rs } => {
                let sp = st.get(Reg::SP);
                let slot = sp.si.sub(&StridedInterval::point(8));
                let taint = st.get(rs).taint;
                self.store(
                    &AVal {
                        si: slot,
                        taint: sp.taint,
                    },
                    8,
                    taint,
                );
                if taint.is_some() {
                    if let Some(r) = report {
                        r.tainted_push = true;
                    }
                }
                st.set(
                    Reg::SP,
                    AVal {
                        si: slot,
                        taint: sp.taint,
                    },
                );
            }
            Insn::Pop { rd } => {
                let sp = st.get(Reg::SP);
                let taint = self.region_taint.get(&Region::Stack).copied();
                if let (Some(m), Some(r)) = (taint, report.as_deref_mut()) {
                    *r.tainted_defs.entry(pc).or_insert(0) |= m.src;
                }
                st.set(
                    rd,
                    AVal {
                        si: StridedInterval::top(),
                        taint,
                    },
                );
                st.set(
                    Reg::SP,
                    AVal {
                        si: sp.si.add(&StridedInterval::point(8)),
                        taint: sp.taint,
                    },
                );
            }
            Insn::Branch { op, rs, rt, .. } => {
                let a = st.get(rs);
                let b = st.get(rt);
                if let Some(r) = report {
                    r.branch_sites.insert(pc);
                    let (taken, fall) = branch_feasible(op, &a.si, &b.si);
                    if taken {
                        r.feasible.insert((pc, true));
                    }
                    if fall {
                        r.feasible.insert((pc, false));
                    }
                    if let Some(m) = taint_join(a.taint, b.taint) {
                        r.branch_src |= m.src;
                        *r.branch_taint.entry(pc).or_insert(0) |= m.src;
                    }
                    let fd_vs_err = |v: &AVal, other: &AVal| {
                        v.taint.is_some_and(|m| m.src & SRC_FD != 0)
                            && other.si.as_point() == Some(u64::MAX)
                    };
                    if fd_vs_err(&a, &b) || fd_vs_err(&b, &a) {
                        r.open_error_branch = true;
                    }
                }
            }
            Insn::Jmp { .. } | Insn::Nop | Insn::Halt => {}
            Insn::Jr { rs } => {
                if let Some(r) = report {
                    let v = st.get(rs);
                    let resolved =
                        v.si.enumerate(MAX_ENUM)
                            .map(|ts| {
                                ts.into_iter()
                                    .filter(|&t| self.code.in_text(t))
                                    .collect::<BTreeSet<u64>>()
                            })
                            .filter(|ts| !ts.is_empty());
                    match resolved {
                        Some(targets) => {
                            r.jr.insert(pc, Some((targets, v.taint)));
                        }
                        None => {
                            r.jr.insert(pc, None);
                            r.jr_unresolved.insert(pc);
                        }
                    }
                }
            }
            Insn::Call { rel } => {
                let callee = pc.wrapping_add_signed(rel.into());
                self.do_call(callee, st, report);
            }
            Insn::Callr { rs } => {
                let v = st.get(rs);
                let targets =
                    v.si.enumerate(16)
                        .map(|ts| {
                            ts.into_iter()
                                .filter(|&t| self.code.in_text(t))
                                .collect::<Vec<u64>>()
                        })
                        .filter(|ts| !ts.is_empty());
                match targets {
                    Some(ts) => {
                        let mut ret: Taint = None;
                        for t in ts {
                            let sig = self.sig_from(st);
                            let r = self.analyze_fn(t, sig);
                            ret = taint_join(ret, r);
                        }
                        self.clobber_for_call(st, ret);
                    }
                    None => {
                        if let Some(r) = report {
                            r.callr_unresolved.insert(pc);
                        }
                        let ret = self.sig_from(st).worst();
                        self.clobber_for_call(st, ret);
                    }
                }
            }
            Insn::Ret => {
                if let Some(r) = report {
                    r.ret_taint = taint_join(r.ret_taint, st.get(Reg::A0).taint);
                }
            }
            Insn::Sys => self.do_sys(pc, st, report),
            Insn::FAlu3 { fd, fs, ft, .. } => {
                st.fregs[fd.index()] = taint_join(st.fregs[fs.index()], st.fregs[ft.index()]);
            }
            Insn::FAlu2 { fd, fs, .. } => st.fregs[fd.index()] = st.fregs[fs.index()],
            Insn::FLd { fd, base, off } => {
                let addr = offset(&st.get(base), off);
                self.record_static_access(pc, &addr, 8, false, report);
                let v = self.load(pc, Opcode::Ld, &addr, report);
                if let (Some(m), Some(r)) = (v.taint, report.as_deref_mut()) {
                    *r.tainted_defs.entry(pc).or_insert(0) |= m.src;
                }
                st.fregs[fd.index()] = v.taint;
            }
            Insn::FSt { fs, base, off } => {
                let addr = offset(&st.get(base), off);
                self.record_static_access(pc, &addr, 8, true, report);
                self.store(&addr, 8, st.fregs[fs.index()]);
            }
            Insn::FLi { fd, .. } => st.fregs[fd.index()] = None,
            Insn::FCvtSiToD { fd, rs } => {
                let t = st.get(rs).taint;
                st.fregs[fd.index()] = t;
                if t.is_some() {
                    if let Some(r) = report {
                        r.fp_tainted = true;
                    }
                }
            }
            Insn::FCvtDToSi { rd, fs } => {
                st.set(
                    rd,
                    AVal {
                        si: StridedInterval::top(),
                        taint: st.fregs[fs.index()],
                    },
                );
            }
            Insn::FBranch { fs, ft, .. } => {
                if let Some(r) = report {
                    if let Some(m) = taint_join(st.fregs[fs.index()], st.fregs[ft.index()]) {
                        r.branch_src |= m.src;
                        *r.branch_taint.entry(pc).or_insert(0) |= m.src;
                        r.fp_tainted = true;
                    }
                }
            }
            Insn::FBits { rd, fs } => {
                st.set(
                    rd,
                    AVal {
                        si: StridedInterval::top(),
                        taint: st.fregs[fs.index()],
                    },
                );
            }
            Insn::FFromBits { fd, rs } => st.fregs[fd.index()] = st.get(rs).taint,
        }
    }

    fn sig_from(&self, st: &State) -> Sig {
        let rs = [
            Reg::A0,
            Reg::A1,
            Reg::A2,
            Reg::A3,
            Reg::A4,
            Reg::A5,
            Reg::SV,
        ];
        let mut args = [None; 7];
        for (i, r) in rs.into_iter().enumerate() {
            args[i] = st.get(r).taint;
        }
        Sig { args, entry: false }
    }

    /// Whether `v` is (provably) a pointer into the argv block: passing
    /// one hands the callee direct access to program input even though
    /// the pointer *value* is loader-chosen and untainted.
    fn points_into_argv(&self, v: &AVal) -> bool {
        !v.si.is_top()
            && self.code.region_of(v.si.lo) == Region::Argv
            && self.code.region_of(v.si.hi) == Region::Argv
    }

    fn do_call(&mut self, callee: u64, st: &mut State, report: &mut Option<&mut ReportSink>) {
        if let Some(r) = report {
            let name = self.code.name_of(callee);
            let input_arg = self.sig_from(st).worst().is_some()
                || [Reg::A0, Reg::A1, Reg::A2]
                    .into_iter()
                    .any(|a| self.points_into_argv(&st.get(a)));
            if callee >= layout::LIB_TEXT_BASE && input_arg {
                r.tainted_lib_calls.insert(name.clone());
            }
            r.called.insert(name);
        }
        if !self.code.in_text(callee) {
            // Runtime stubs (exit, thread_exit) or junk: no data effects.
            self.clobber_for_call(st, None);
            return;
        }
        let sig = self.sig_from(st);
        let ret = self.analyze_fn(callee, sig);
        self.clobber_for_call(st, ret);
    }

    /// Caller-saved registers die at a call: `a0` takes the return value,
    /// `a1..a5`, `sv`, `t0..t7`, `tc`, `tr`, `ra` become unknown.
    fn clobber_for_call(&self, st: &mut State, ret: Taint) {
        st.set(
            Reg::A0,
            AVal {
                si: StridedInterval::top(),
                taint: ret,
            },
        );
        for i in [2u8, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 26, 27, 31] {
            st.regs[i as usize] = AVal::top();
        }
        for f in &mut st.fregs {
            *f = None;
        }
    }

    fn note_div(
        &mut self,
        pc: u64,
        op: Opcode,
        divisor: &AVal,
        report: &mut Option<&mut ReportSink>,
    ) {
        if matches!(
            op,
            Opcode::Divu | Opcode::Divs | Opcode::Remu | Opcode::Rems
        ) && divisor.si.contains(0)
            && divisor.taint.is_some()
        {
            if let Some(r) = report {
                r.tainted_div.insert(pc);
            }
        }
    }

    fn load(
        &mut self,
        pc: u64,
        op: Opcode,
        addr: &AVal,
        report: &mut Option<&mut ReportSink>,
    ) -> AVal {
        let width = store_width(op);
        // The argv *pointer array* (first few quadwords of the argv block)
        // is loader-controlled, not input: reading it yields an untainted
        // pointer somewhere into the argv string area. Only the string
        // bytes themselves are input.
        if addr.taint.is_none()
            && addr.si.lo >= layout::ARGV_BASE
            && addr.si.hi < layout::ARGV_BASE + 64
        {
            return AVal {
                si: StridedInterval::new(
                    layout::ARGV_BASE + 8,
                    layout::ARGV_BASE + layout::ARGV_SIZE - 1,
                    1,
                ),
                taint: None,
            };
        }
        // Region-level taint of the loaded cell.
        let lo_region = self.code.region_of(addr.si.lo);
        let hi_region = self.code.region_of(addr.si.hi);
        let mut taint = match (lo_region, hi_region) {
            (Region::Argv, _) | (_, Region::Argv) => mark(0, SRC_ARGV),
            _ if addr.si.is_top() => mark(0, SRC_ARGV), // could read argv
            _ => {
                let a = self.region_taint.get(&lo_region).copied();
                let b = self.region_taint.get(&hi_region).copied();
                taint_join(a, b)
            }
        };
        if let Some(m) = addr.taint {
            let d = m.depth.saturating_add(1).min(MAX_DEPTH);
            taint = taint_join(taint, mark(d, m.src));
            if let Some(r) = report {
                let e = r.tainted_loads.entry(pc).or_insert(0);
                *e = (*e).max(d);
            }
        }
        if let Some(r) = report {
            if matches!(lo_region, Region::Argv) || matches!(hi_region, Region::Argv) {
                r.loads_argv = true;
            }
        }
        // Static resolution: concrete contents of provably unwritten data.
        if self.resolve && !addr.si.is_top() {
            if let Some(addrs) = addr.si.enumerate(64) {
                let span_ok = addrs.iter().all(|&a| {
                    self.code.in_static(a) && self.code.in_static(a.saturating_add(width - 1))
                });
                let unwritten = !self
                    .prior_cover
                    .overlaps(addr.si.lo, addr.si.hi.saturating_add(width - 1));
                if span_ok && unwritten {
                    let mut si: Option<StridedInterval> = None;
                    let mut ok = true;
                    for a in addrs {
                        match self.code.read_uint(a, width) {
                            Some(raw) => {
                                let v = extend_load(op, raw);
                                let p = StridedInterval::point(v);
                                si = Some(match si {
                                    None => p,
                                    Some(s) => s.join(&p),
                                });
                            }
                            None => {
                                ok = false;
                                break;
                            }
                        }
                    }
                    if ok {
                        if let Some(si) = si {
                            return AVal { si, taint };
                        }
                    }
                }
            }
        }
        AVal {
            si: StridedInterval::top(),
            taint,
        }
    }

    /// Records a bounded memory access that touches static data: the raw
    /// material for the data-flow layer's shared-memory race detection.
    fn record_static_access(
        &self,
        pc: u64,
        addr: &AVal,
        width: u64,
        is_store: bool,
        report: &mut Option<&mut ReportSink>,
    ) {
        let Some(r) = report.as_deref_mut() else {
            return;
        };
        if addr.si.is_top() {
            return;
        }
        let lo = addr.si.lo;
        let hi = addr.si.hi.saturating_add(width.saturating_sub(1));
        if self.code.region_of(lo) != Region::Static && self.code.region_of(hi) != Region::Static {
            return;
        }
        let map = if is_store {
            &mut r.static_stores
        } else {
            &mut r.static_loads
        };
        let e = map.entry(pc).or_insert((lo, hi));
        e.0 = e.0.min(lo);
        e.1 = e.1.max(hi);
    }

    fn store(&mut self, addr: &AVal, width: u64, taint: Taint) {
        if addr.si.is_top() || addr.si.count() > MAX_ENUM {
            self.cover.unknown = true;
            // An unbounded tainted store could reach any region.
            if taint.is_some() {
                for region in [Region::Static, Region::Stack, Region::Other] {
                    self.raise_region(region, taint);
                }
            }
            return;
        }
        self.cover
            .add(addr.si.lo, addr.si.hi.saturating_add(width - 1));
        if taint.is_some() {
            for region in [
                self.code.region_of(addr.si.lo),
                self.code.region_of(addr.si.hi),
            ] {
                self.raise_region(region, taint);
            }
        }
    }

    fn raise_region(&mut self, region: Region, taint: Taint) {
        let cur = self.region_taint.get(&region).copied();
        if let Some(j) = taint_join(cur, taint) {
            self.region_taint.insert(region, j);
        }
    }

    #[allow(clippy::too_many_lines)]
    fn do_sys(&mut self, pc: u64, st: &mut State, report: &mut Option<&mut ReportSink>) {
        let sv = st.get(Reg::SV);
        let a0 = st.get(Reg::A0);
        let a1 = st.get(Reg::A1);
        let a2 = st.get(Reg::A2);
        let nums = sv.si.enumerate(16).unwrap_or_default();
        if let Some(r) = report {
            let site = r.sys_sites.entry(pc).or_default();
            site.nums = nums.clone();
            site.sv_point = sv.si.is_point();
            site.sv_tainted = sv.taint.is_some();
            // A filename (or buffer) argument is input-derived either when
            // its value is tainted or when it points straight at argv.
            site.a0_taint = a0.taint.is_some() || self.points_into_argv(&a0);
            site.a1_taint = a1.taint.is_some();
        }
        if nums.is_empty() {
            // Unknown syscall number: could be `read` into anywhere.
            self.cover.unknown = true;
            if let Some(r) = report {
                *r.tainted_defs.entry(pc).or_insert(0) |= SRC_ENV;
            }
            st.set(
                Reg::A0,
                AVal {
                    si: StridedInterval::top(),
                    taint: mark(0, SRC_ENV),
                },
            );
            return;
        }
        let mut ret = AVal::top();
        for &num in &nums {
            match num {
                sys::TIME
                | sys::GETUID
                | sys::FORK
                | sys::WAITPID
                | sys::THREAD_JOIN
                | sys::LSEEK => {
                    if num == sys::FORK {
                        if let Some(r) = report.as_deref_mut() {
                            r.fork_sites.insert(pc);
                        }
                    }
                    // Environment / kernel-state returns: input-dependent
                    // (epoch, uid, scheduling, file positions).
                    ret.taint = taint_join(ret.taint, mark(0, SRC_ENV));
                }
                sys::READ | sys::NET_GET => {
                    ret.taint = taint_join(ret.taint, mark(0, SRC_ENV));
                    let len = if a2.si.is_top() { 4096 } else { a2.si.hi };
                    let buf = AVal {
                        si: a1.si,
                        taint: a1.taint,
                    };
                    self.record_static_access(pc, &buf, len.max(1), true, report);
                    self.store(&buf, len.max(1), mark(0, SRC_ENV));
                }
                sys::OPEN => {
                    // The fd (or −1 on failure). Not an input source, but
                    // marked so fd-vs-−1 error checks are recognizable.
                    ret.taint = taint_join(ret.taint, mark(0, SRC_FD));
                }
                sys::PIPE => {
                    self.store(&a0, 16, None);
                }
                sys::SET_TRAP_HANDLER => {
                    if let Some(h) = a0.si.as_point() {
                        if self.code.in_text(h) {
                            if let Some(r) = report {
                                r.extra_roots.insert(h, format!("trap_handler_{h:#x}"));
                            }
                        }
                    }
                }
                sys::THREAD_SPAWN => {
                    if let Some(h) = a0.si.as_point() {
                        if self.code.in_text(h) {
                            if let Some(r) = report {
                                r.extra_roots.insert(h, format!("thread_entry_{h:#x}"));
                            }
                        }
                    }
                }
                _ => {}
            }
        }
        if let (Some(m), Some(r)) = (ret.taint, report.as_deref_mut()) {
            *r.tainted_defs.entry(pc).or_insert(0) |= m.src;
        }
        st.set(Reg::A0, ret);
    }
}

/// Per-reporting-pass fact sink, merged into [`VsaOut`].
#[derive(Debug, Default)]
struct ReportSink {
    jr: BTreeMap<u64, Option<(BTreeSet<u64>, Taint)>>,
    jr_unresolved: BTreeSet<u64>,
    branch_sites: BTreeSet<u64>,
    feasible: BTreeSet<(u64, bool)>,
    sys_sites: BTreeMap<u64, SysSite>,
    tainted_loads: BTreeMap<u64, u8>,
    tainted_push: bool,
    fp_tainted: bool,
    tainted_div: BTreeSet<u64>,
    branch_src: u8,
    open_error_branch: bool,
    callr_unresolved: BTreeSet<u64>,
    called: BTreeSet<String>,
    tainted_lib_calls: BTreeSet<String>,
    extra_roots: BTreeMap<u64, String>,
    loads_argv: bool,
    ret_taint: Taint,
    branch_taint: BTreeMap<u64, u8>,
    tainted_defs: BTreeMap<u64, u8>,
    static_stores: BTreeMap<u64, (u64, u64)>,
    static_loads: BTreeMap<u64, (u64, u64)>,
    fork_sites: BTreeSet<u64>,
}

/// `base + off` with a signed displacement.
fn offset(base: &AVal, off: i32) -> AVal {
    let d = StridedInterval::point(off.unsigned_abs().into());
    let si = if off >= 0 {
        base.si.add(&d)
    } else {
        base.si.sub(&d)
    };
    AVal {
        si,
        taint: base.taint,
    }
}

fn store_width(op: Opcode) -> u64 {
    match op {
        Opcode::Sb | Opcode::Lb | Opcode::Lbu => 1,
        Opcode::Sh | Opcode::Lh | Opcode::Lhu => 2,
        Opcode::Sw | Opcode::Lw | Opcode::Lwu => 4,
        _ => 8,
    }
}

/// Sign/zero-extends a raw little-endian load exactly like the VM.
fn extend_load(op: Opcode, raw: u64) -> u64 {
    match op {
        Opcode::Lb => raw as u8 as i8 as i64 as u64,
        Opcode::Lbu => u64::from(raw as u8),
        Opcode::Lh => raw as u16 as i16 as i64 as u64,
        Opcode::Lhu => u64::from(raw as u16),
        Opcode::Lw => raw as u32 as i32 as i64 as u64,
        Opcode::Lwu => u64::from(raw as u32),
        _ => raw,
    }
}

/// Abstract ALU evaluation.
fn alu(op: Opcode, a: &AVal, b: &AVal) -> AVal {
    use Opcode::{
        Add, AddI, And, AndI, Divu, Mul, MulI, Or, OrI, Remu, Shl, ShlI, Shru, ShruI, Slt, SltI,
        Sltu, SltuI, Sub, Xor, XorI,
    };
    let taint = taint_join(a.taint, b.taint);
    let (x, y) = (&a.si, &b.si);
    let si = match op {
        // A negative addend (e.g. `addi sp, sp, -16`) is a subtraction;
        // treating it as a huge unsigned add would widen to ⊤ and poison
        // every stack-relative address downstream.
        Add | AddI => match (x.as_point(), y.as_point()) {
            (_, Some(k)) if (k as i64) < 0 => x.sub(&StridedInterval::point(k.wrapping_neg())),
            (Some(k), _) if (k as i64) < 0 => y.sub(&StridedInterval::point(k.wrapping_neg())),
            _ => x.add(y),
        },
        Sub => x.sub(y),
        Mul | MulI => x.mul(y),
        Divu => x.udiv(y),
        Remu => x.urem(y),
        And | AndI => x.and(y),
        Or | OrI => x.or(y),
        Xor | XorI => x.xor(y),
        Shl | ShlI => y.as_point().map_or_else(StridedInterval::top, |k| x.shl(k)),
        Shru | ShruI => y
            .as_point()
            .map_or_else(|| StridedInterval::new(0, x.hi, 1), |k| x.shr(k)),
        Sltu | SltuI => {
            if x.hi < y.lo {
                StridedInterval::point(1)
            } else if x.lo >= y.hi {
                StridedInterval::point(0)
            } else {
                StridedInterval::new(0, 1, 1)
            }
        }
        Slt | SltI => match (x.as_point(), y.as_point()) {
            (Some(p), Some(q)) => StridedInterval::point(u64::from((p as i64) < (q as i64))),
            _ => StridedInterval::new(0, 1, 1),
        },
        _ => StridedInterval::top(), // signed div/rem/shift: exact only on points
    };
    let si = match (op, x.as_point(), y.as_point()) {
        (Opcode::Divs, Some(p), Some(q)) if q != 0 && !(p == u64::MAX / 2 + 1 && q == u64::MAX) => {
            StridedInterval::point(((p as i64).wrapping_div(q as i64)) as u64)
        }
        (Opcode::Rems, Some(p), Some(q)) if q != 0 => {
            StridedInterval::point(((p as i64).wrapping_rem(q as i64)) as u64)
        }
        (Opcode::Shrs | Opcode::ShrsI, Some(p), Some(q)) => {
            StridedInterval::point(((p as i64) >> (q.min(63))) as u64)
        }
        _ => si,
    };
    AVal { si, taint }
}

/// Which ways can this branch go, given operand sets? Returns
/// `(taken_feasible, fallthrough_feasible)`. `false` must be *proof*.
fn branch_feasible(op: Opcode, a: &StridedInterval, b: &StridedInterval) -> (bool, bool) {
    let may_eq = may_equal(a, b);
    let must_eq = a.is_point() && b.is_point() && a.lo == b.lo;
    match op {
        Opcode::Beq => (may_eq, !must_eq),
        Opcode::Bne => (!must_eq, may_eq),
        Opcode::Bltu => (a.lo < b.hi, a.hi >= b.lo),
        Opcode::Bgeu => (a.hi >= b.lo, a.lo < b.hi),
        Opcode::Blt => match (a.as_point(), b.as_point()) {
            (Some(p), Some(q)) => {
                let t = (p as i64) < (q as i64);
                (t, !t)
            }
            _ => (true, true),
        },
        Opcode::Bge => match (a.as_point(), b.as_point()) {
            (Some(p), Some(q)) => {
                let t = (p as i64) >= (q as i64);
                (t, !t)
            }
            _ => (true, true),
        },
        _ => (true, true),
    }
}

/// Can the two sets share an element? `false` only on proof of disjointness
/// (bounds or congruence).
fn may_equal(a: &StridedInterval, b: &StridedInterval) -> bool {
    if !a.may_overlap(b) {
        return false;
    }
    let g = bomblab_interval::gcd(a.stride, b.stride);
    if g > 1 && a.lo % g != b.lo % g {
        return false; // incongruent residues can never collide
    }
    true
}

/// What [`sweep_orphan_text`] found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Sweep {
    /// Orphan text holds a store or a memory-writing syscall.
    poisons: bool,
    /// Loop iterations: one per orphan instruction or undecodable byte,
    /// one per covered run skipped, one per non-text gap jumped.
    steps: u64,
}

/// Sweeps the text between the first block start and the last block end
/// that no `(start, end)` block covers. Covered runs are merged once and
/// skipped whole, and a non-text gap is jumped in one step, so the cost is
/// linear in text bytes and blocks, not in the address span.
fn sweep_orphan_text(code: &CodeMap, blocks: &[(u64, u64)]) -> Sweep {
    let mut sorted = blocks.to_vec();
    sorted.sort_unstable();
    let mut sweep = Sweep {
        poisons: false,
        steps: 0,
    };
    let (Some(&(mut pc, _)), Some(end)) = (sorted.first(), sorted.iter().map(|&(_, e)| e).max())
    else {
        return sweep;
    };
    // Overlapping and adjacent blocks form one run: stepping from block
    // end to block end through them lands at the run's end either way.
    let mut covered: Vec<(u64, u64)> = Vec::with_capacity(sorted.len());
    for (s, e) in sorted.into_iter().filter(|&(s, e)| s < e) {
        match covered.last_mut() {
            Some(run) if s <= run.1 => run.1 = run.1.max(e),
            _ => covered.push((s, e)),
        }
    }
    // Index of the first covered run ending after `pc`.
    let mut next_run = 0;
    // Which syscall a bare `sys` in orphan code would make: tracked
    // from the nearest preceding `li sv, imm` in the same linear run.
    let mut last_sv: Option<u64> = None;
    while pc < end {
        sweep.steps += 1;
        while covered.get(next_run).is_some_and(|&(_, e)| e <= pc) {
            next_run += 1;
        }
        if let Some(&(s, e)) = covered.get(next_run) {
            if s <= pc {
                pc = e;
                last_sv = None;
                continue;
            }
        }
        let Some(bytes) = code.text_at(pc) else {
            // Not text: jump to the next text byte. A covered run inside
            // the gap only resets `last_sv`, as the jump itself does.
            pc = code.next_text_at_or_after(pc).unwrap_or(end);
            last_sv = None;
            continue;
        };
        match Insn::decode(bytes) {
            Ok((insn, len)) => {
                if orphan_insn_poisons(&insn, &mut last_sv) {
                    sweep.poisons = true;
                    return sweep;
                }
                pc += len as u64;
            }
            Err(_) => {
                pc += 1;
                last_sv = None;
            }
        }
    }
    sweep
}

/// Whether one orphan instruction may write memory. `last_sv` tracks the
/// syscall number a `sys` would use; calls clobber `sv` (caller-saved),
/// so they reset it.
fn orphan_insn_poisons(insn: &Insn, last_sv: &mut Option<u64>) -> bool {
    match *insn {
        Insn::Store { .. } | Insn::Push { .. } | Insn::FSt { .. } => true,
        Insn::Li { rd, imm } if rd == Reg::SV => {
            *last_sv = Some(imm);
            false
        }
        Insn::Call { .. } | Insn::Callr { .. } => {
            *last_sv = None;
            false
        }
        // Only memory-writing syscalls (or an unknown number) poison the
        // cover; an orphan exit or write stub is harmless.
        Insn::Sys => !matches!(
            *last_sv,
            Some(
                sys::EXIT
                    | sys::WRITE
                    | sys::CLOSE
                    | sys::TIME
                    | sys::GETPID
                    | sys::GETUID
                    | sys::THREAD_EXIT
            )
        ),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code::Segment;

    /// The byte walk `sweep_orphan_text` replaced: one step per address
    /// from the first block start to the last block end, with a linear
    /// search of the blocks at each. Quadratic; kept as a reference.
    fn naive_sweep(code: &CodeMap, blocks: &[(u64, u64)]) -> Sweep {
        let mut covered = blocks.to_vec();
        covered.sort_unstable();
        let mut sweep = Sweep {
            poisons: false,
            steps: 0,
        };
        let Some(&(mut pc, _)) = covered.first() else {
            return sweep;
        };
        let end = covered.iter().map(|&(_, e)| e).max().unwrap_or(pc);
        let mut last_sv: Option<u64> = None;
        while pc < end {
            sweep.steps += 1;
            if let Some(&(_, be)) = covered.iter().find(|&&(s, e)| s <= pc && pc < e) {
                pc = be;
                last_sv = None;
                continue;
            }
            match code.text_at(pc).map(Insn::decode) {
                Some(Ok((insn, len))) => {
                    if orphan_insn_poisons(&insn, &mut last_sv) {
                        sweep.poisons = true;
                        return sweep;
                    }
                    pc += len as u64;
                }
                _ => {
                    pc += 1;
                    last_sv = None;
                }
            }
        }
        sweep
    }

    fn text(base: u64, insns: &[Insn]) -> Segment {
        let mut bytes = Vec::new();
        for insn in insns {
            insn.encode(&mut bytes);
        }
        Segment {
            base,
            bytes,
            is_text: true,
        }
    }

    /// Exe text with an unresolved `jr a0` at its entry and two harmless
    /// orphan instructions; library text `gap` bytes further on with
    /// `lib_orphan` ahead of a rooted `ret`.
    fn two_text_map(gap: u64, lib_orphan: &[Insn]) -> (CodeMap, BTreeMap<u64, String>) {
        let exe = text(
            layout::TEXT_BASE,
            &[Insn::Jr { rs: Reg::A0 }, Insn::Nop, Insn::Nop],
        );
        let lib_base = layout::TEXT_BASE + exe.bytes.len() as u64 + gap;
        let mut lib_insns = lib_orphan.to_vec();
        lib_insns.push(Insn::Ret);
        let lib = text(lib_base, &lib_insns);
        let lib_ret = lib_base + lib.bytes.len() as u64 - 1;
        let roots = BTreeMap::from([
            (layout::TEXT_BASE, "_start".to_string()),
            (lib_ret, "lib_fn".to_string()),
        ]);
        (CodeMap::from_segments(vec![exe, lib]), roots)
    }

    fn orphan_store() -> Insn {
        Insn::Store {
            op: Opcode::Sd,
            src: Reg::A0,
            base: Reg::SP,
            off: 0,
        }
    }

    #[test]
    fn sweep_cost_grows_with_text_bytes_not_with_the_gap() {
        let harmless = [
            Insn::Li {
                rd: Reg::SV,
                imm: sys::EXIT,
            },
            Insn::Sys,
        ];
        for (gap, nops, want) in [(4 << 20, 0, 7), (8 << 20, 0, 7), (4 << 20, 10, 17)] {
            let mut orphan = vec![Insn::Nop; nops];
            orphan.extend(harmless);
            let (code, roots) = two_text_map(gap, &orphan);
            let cfg = crate::cfg::build(&code, &roots, &crate::cfg::CfgInput::default());
            assert!(
                cfg.jr_sites.values().any(BTreeSet::is_empty),
                "the entry jr stays unresolved"
            );
            let blocks: Vec<(u64, u64)> = cfg.blocks.values().map(|b| (b.start, b.end)).collect();
            let sweep = sweep_orphan_text(&code, &blocks);
            assert!(!sweep.poisons);
            // jr block, two nops, the gap, `nops` more, li, sys, ret block.
            assert_eq!(sweep.steps, want, "gap of {gap} bytes, {nops} nops");
            if (gap, nops) == (4 << 20, 0) {
                let naive = naive_sweep(&code, &blocks);
                assert_eq!(naive.poisons, sweep.poisons);
                assert!(naive.steps > gap, "the byte walk steps through the gap");
            }
        }
    }

    #[test]
    fn orphan_store_past_the_gap_poisons_the_cover() {
        for (orphan, poisons) in [(vec![orphan_store()], true), (vec![Insn::Nop], false)] {
            let (code, roots) = two_text_map(4 << 20, &orphan);
            let cfg = crate::cfg::build(&code, &roots, &crate::cfg::CfgInput::default());
            let run = Vsa::run(
                &code,
                &cfg,
                layout::TEXT_BASE,
                false,
                Cover::default(),
                &BTreeSet::new(),
            );
            assert_eq!(run.cover.unknown, poisons, "orphan {orphan:?}");
        }
    }

    /// xorshift64*: a fixed-seed source for the random layouts below.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// Random text: mostly harmless instructions, with `li sv, …` before
    /// `sys`, calls, stores and undecodable bytes mixed in. Pushes each
    /// instruction's address onto `starts`.
    fn random_text(rng: &mut Rng, base: u64, len: u64, starts: &mut Vec<u64>) -> Segment {
        let mut bytes = Vec::new();
        while (bytes.len() as u64) < len {
            starts.push(base + bytes.len() as u64);
            let insn = match rng.below(24) {
                0 => orphan_store(),
                1 => Insn::Push { rs: Reg::A0 },
                2 | 3 => Insn::Sys,
                4..=6 => Insn::Li {
                    rd: Reg::SV,
                    imm: [sys::EXIT, sys::WRITE, sys::READ, sys::OPEN][rng.below(4) as usize],
                },
                7 => Insn::Call { rel: 0 },
                8..=10 => {
                    bytes.push(0xff);
                    continue;
                }
                11..=14 => Insn::Mov {
                    rd: Reg::A0,
                    rs: Reg::SP,
                },
                _ => Insn::Nop,
            };
            insn.encode(&mut bytes);
        }
        Segment {
            base,
            bytes,
            is_text: true,
        }
    }

    #[test]
    fn linear_sweep_matches_the_byte_walk_on_random_layouts() {
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
        let mut seen = [0usize; 2];
        for _ in 0..3000 {
            let mut segs = Vec::new();
            let mut starts = Vec::new();
            let mut base = layout::TEXT_BASE + rng.below(16);
            for _ in 0..=rng.below(3) {
                let len = 1 + rng.below(64);
                let seg = if rng.below(4) == 0 {
                    Segment {
                        base,
                        bytes: vec![0x41; len as usize],
                        is_text: false,
                    }
                } else {
                    random_text(&mut rng, base, len, &mut starts)
                };
                base += seg.bytes.len() as u64 + rng.below(48);
                segs.push(seg);
            }
            let lo = layout::TEXT_BASE;
            let span = base - lo + 8;
            let mut blocks: Vec<(u64, u64)> = Vec::new();
            for _ in 0..rng.below(8) {
                let block = match (rng.below(4), blocks.last().copied()) {
                    // Nested in the previous block.
                    (0, Some((s, e))) => {
                        let ns = s + rng.below(e - s + 1);
                        (ns, ns + rng.below(e - ns + 1))
                    }
                    // Adjacent to the previous block.
                    (1, Some((_, e))) => (e, e + rng.below(24)),
                    // Between instruction starts, as recovered blocks are.
                    (2, _) if !starts.is_empty() => {
                        let i = rng.below(starts.len() as u64) as usize;
                        let j = (i + rng.below(4) as usize).min(starts.len() - 1);
                        (starts[i], starts[j])
                    }
                    // Anywhere, possibly overlapping or empty.
                    _ => {
                        let s = lo + rng.below(span);
                        (s, s + rng.below(32))
                    }
                };
                blocks.push(block);
            }
            let code = CodeMap::from_segments(segs);
            let fast = sweep_orphan_text(&code, &blocks);
            let naive = naive_sweep(&code, &blocks);
            assert_eq!(
                fast.poisons, naive.poisons,
                "blocks {blocks:?} over {code:?}"
            );
            assert!(fast.steps <= naive.steps);
            seen[usize::from(fast.poisons)] += 1;
        }
        assert!(
            seen.iter().all(|&n| n > 100),
            "both outcomes exercised: {seen:?}"
        );
    }

    #[test]
    fn branch_feasibility_proofs() {
        let small = StridedInterval::new(0, 3, 1);
        let nine = StridedInterval::point(9);
        // beq [0,3], 9 can never be taken.
        assert_eq!(branch_feasible(Opcode::Beq, &small, &nine), (false, true));
        // bne always taken for disjoint sets.
        assert_eq!(branch_feasible(Opcode::Bne, &small, &nine), (true, false));
        // congruence: {0,8,16} vs {4,12} never equal.
        let evens = StridedInterval::new(0, 16, 8);
        let odds = StridedInterval::new(4, 12, 8);
        assert!(!may_equal(&evens, &odds));
        // bltu: [5,7] < [0,3] is impossible.
        let hi = StridedInterval::new(5, 7, 1);
        let lo = StridedInterval::new(0, 3, 1);
        assert_eq!(branch_feasible(Opcode::Bltu, &hi, &lo), (false, true));
    }

    #[test]
    fn taint_lattice() {
        assert_eq!(taint_join(None, mark(2, SRC_ARGV)), mark(2, SRC_ARGV));
        assert_eq!(
            taint_join(mark(1, SRC_ARGV), mark(3, SRC_ENV)),
            mark(3, SRC_ARGV | SRC_ENV)
        );
        assert_eq!(taint_join(None, None), None);
        // Depth saturates at the cap.
        assert_eq!(
            taint_join(mark(MAX_DEPTH, SRC_ARGV), mark(200, SRC_ARGV)),
            mark(MAX_DEPTH, SRC_ARGV)
        );
    }
}
