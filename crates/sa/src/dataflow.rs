//! Reaching definitions and def-use chains over BVM registers and
//! VSA-style resolved stack slots.
//!
//! Each recovered function gets its own flow graph. Definition sites are
//! `(pc, location)` pairs; locations are the 32 integer registers, the
//! 16 float registers, *resolved stack slots* (loads/stores through
//! `sp`/`fp` plus a constant, where the frame offset is provable by a
//! light intra-procedural stack-pointer analysis), and a single
//! conservative `Mem` cell for everything else. Matching is sound, not
//! precise: a `Mem` definition reaches every memory read, a slot read
//! also consumes `Mem` definitions (a callee may have written the slot
//! through a pointer), and calls/syscalls define `Mem`.
//!
//! The kernel works on dense per-function indices: blocks by position
//! in [`Function::blocks`], each instruction's definitions as one
//! contiguous run, and each location interned to a small id (registers
//! and `Mem` first, then one per distinct slot) owning a bitmask of the
//! definitions that write it. Two more masks carry the `Mem`/slot cross
//! terms: every `Slot` definition (read by a `Mem` use), and the `Mem`
//! row (read by a slot use). Set bits are walked with `trailing_zeros`,
//! so nothing is allocated per instruction.
//!
//! The reaching-definitions fixpoint is a bitset worklist:
//! `in[b] = ∪ out[pred]`, and `out[b]` is `in[b]` with `b`'s definitions
//! applied in order, each replacing the other definitions of its
//! location (`Mem` is never replaced): the classic
//! `gen[b] ∪ (in[b] − kill[b])` without storing `gen` or `kill`. The
//! converged `in` sets are the only fixpoint state kept, so that tests
//! can re-apply one transfer round to them to assert idempotence.

use crate::cfg::{Block, Function};
use bomblab_isa::{FReg, Insn, Opcode, Reg};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

/// An abstract storage location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Loc {
    /// Integer register by index.
    Reg(u8),
    /// Float register by index.
    FReg(u8),
    /// A stack slot at a provable frame offset (bytes relative to the
    /// function-entry stack pointer; negative = below the entry sp).
    Slot(i64),
    /// Any other memory.
    Mem,
}

/// How a definition came to be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DefKind {
    /// Synthesized at function entry (incoming argument / caller state).
    Entry,
    /// Written by the instruction at `pc`.
    Insn,
}

/// One definition site.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    /// Address of the defining instruction (the entry pc for
    /// [`DefKind::Entry`] definitions).
    pub pc: u64,
    /// The location written.
    pub loc: Loc,
    /// Entry-synthesized or real.
    pub kind: DefKind,
    /// The definition reads memory (a load/pop) — the taint pass
    /// re-taints these when the global memory cell becomes tainted.
    pub from_mem: bool,
}

/// Def-use facts for one function.
#[derive(Debug, Clone, Default)]
pub struct FuncFlow {
    /// Function entry address.
    pub entry: u64,
    /// All definition sites: one entry definition per register and for
    /// `Mem` (see [`FuncFlow::entry_def`]), then each instruction's
    /// definitions as one contiguous run, in ascending pc order.
    pub defs: Vec<Def>,
    /// Definition index -> pcs of instructions using it, ascending.
    pub def_uses: Vec<Vec<u64>>,
    /// pc -> definition indices reaching the uses at that instruction,
    /// in use order and ascending within one used location.
    pub uses_at: BTreeMap<u64, Vec<usize>>,
    /// Call sites: pc -> direct callee entry (`None` for `callr`).
    pub calls: BTreeMap<u64, Option<u64>>,
    /// `ret` instruction addresses (the return-value channel).
    pub ret_pcs: BTreeSet<u64>,
    /// Converged reaching-definitions bitset at each block entry:
    /// `defs.len().div_ceil(64)` words per block, in [`Function::blocks`]
    /// order. A block the entry cannot reach is all zero; every other
    /// block holds at least the `Mem` entry definition, which nothing
    /// kills.
    pub block_in: Vec<u64>,
}

/// Entry definitions: the integer registers, the float registers, `Mem`.
const ENTRY_DEFS: usize = Reg::COUNT + FReg::COUNT + 1;
/// Location id (and entry definition index) of `Mem`.
const MEM: usize = ENTRY_DEFS - 1;
/// Mask row of every `Slot` definition.
const ALL_SLOTS: usize = ENTRY_DEFS;
/// Mask row with no definitions: the id of a location nothing defines.
const NONE: usize = ENTRY_DEFS + 1;

/// The location id of a register or `Mem`, which is also the index of
/// its entry definition. Slots are interned per function ([`Masks`]).
fn fixed_id(loc: Loc) -> usize {
    match loc {
        Loc::Reg(i) => usize::from(i),
        Loc::FReg(i) => Reg::COUNT + usize::from(i),
        Loc::Mem => MEM,
        Loc::Slot(_) => NONE,
    }
}

/// Up to `N` locations held inline, so that [`defs_uses`] allocates
/// nothing.
struct Locs<const N: usize>(usize, [Loc; N]);

impl<const N: usize> Locs<N> {
    fn of(locs: impl IntoIterator<Item = Loc>) -> Self {
        let mut l = Locs(0, [Loc::Mem; N]);
        for loc in locs {
            l.1[l.0] = loc;
            l.0 += 1;
        }
        l
    }
}

impl<const N: usize> std::ops::Deref for Locs<N> {
    type Target = [Loc];
    fn deref(&self) -> &[Loc] {
        &self.1[..self.0]
    }
}

/// Definitions and uses from two fixed lists.
fn du<const D: usize, const U: usize>(defs: [Loc; D], uses: [Loc; U]) -> (Locs<4>, Locs<24>) {
    (Locs::of(defs), Locs::of(uses))
}

/// Register uses and definitions of one instruction, with memory
/// locations resolved against the current frame offsets.
fn defs_uses(insn: &Insn, sp: Option<i64>, fp: Option<i64>) -> (Locs<4>, Locs<24>) {
    use Insn::*;
    let r = |reg: Reg| Loc::Reg(reg.index() as u8);
    let f = |fr: FReg| Loc::FReg(fr.index() as u8);
    let slot = |base: Reg, off: i32| match (base, sp, fp) {
        (Reg::SP, Some(k), _) | (Reg::FP, _, Some(k)) => Loc::Slot(k + i64::from(off)),
        _ => Loc::Mem,
    };
    // Call sites use every argument channel — the six integer argument
    // registers plus all float registers (the float calling convention
    // is not pinned down statically, so all of them may carry values).
    let args = (Reg::A0.index() as u8..=Reg::A5.index() as u8)
        .map(Loc::Reg)
        .chain((0..FReg::COUNT as u8).map(Loc::FReg));
    let call_defs = || Locs::of([r(Reg::A0), Loc::FReg(0), r(Reg::RA), Loc::Mem]);
    match *insn {
        Alu3 { rd, rs, rt, .. } => du([r(rd)], [r(rs), r(rt)]),
        AluI { rd, rs, .. } => du([r(rd)], [r(rs)]),
        Mov { rd, rs } | Not { rd, rs } | Neg { rd, rs } => du([r(rd)], [r(rs)]),
        Li { rd, .. } => du([r(rd)], []),
        Load { rd, base, off, .. } => du([r(rd)], [r(base), slot(base, off)]),
        Store { src, base, off, .. } => du([slot(base, off)], [r(src), r(base)]),
        Push { rs } => du([r(Reg::SP), slot(Reg::SP, -8)], [r(rs), r(Reg::SP)]),
        Pop { rd } => du([r(rd), r(Reg::SP)], [r(Reg::SP), slot(Reg::SP, 0)]),
        Branch { rs, rt, .. } => du([], [r(rs), r(rt)]),
        Jmp { .. } | Nop => du([], []),
        Jr { rs } => du([], [r(rs)]),
        Call { .. } => (call_defs(), Locs::of(args)),
        Callr { rs } => (call_defs(), Locs::of([r(rs)].into_iter().chain(args))),
        // `ret` uses `a0`/`f0` as the return-value channels so
        // interprocedural taint can hop back to call sites.
        Ret => du([], [r(Reg::RA), r(Reg::A0), Loc::FReg(0)]),
        Sys => (
            Locs::of([r(Reg::A0), Loc::Mem]),
            Locs::of([r(Reg::SV)].into_iter().chain(args)),
        ),
        Halt => du([], [r(Reg::A0)]),
        FAlu3 { fd, fs, ft, .. } => du([f(fd)], [f(fs), f(ft)]),
        FAlu2 { fd, fs, .. } => du([f(fd)], [f(fs)]),
        FLd { fd, base, off } => du([f(fd)], [r(base), slot(base, off)]),
        FSt { fs, base, off } => du([slot(base, off)], [f(fs), r(base)]),
        FLi { fd, .. } => du([f(fd)], []),
        FCvtSiToD { fd, rs } => du([f(fd)], [r(rs)]),
        FCvtDToSi { rd, fs } => du([r(rd)], [f(fs)]),
        FBranch { fs, ft, .. } => du([], [f(fs), f(ft)]),
        FBits { rd, fs } => du([r(rd)], [f(fs)]),
        FFromBits { fd, rs } => du([f(fd)], [r(rs)]),
    }
}

/// Advances the tracked `sp`/`fp` frame offsets over one instruction
/// that defines the registers in `defs`.
fn step_frame(insn: &Insn, defs: &[Loc], sp: &mut Option<i64>, fp: &mut Option<i64>) {
    match *insn {
        Insn::Push { .. } => *sp = sp.map(|k| k - 8),
        Insn::Pop { rd } => {
            *sp = sp.map(|k| k + 8).filter(|_| rd != Reg::SP);
            *fp = fp.filter(|_| rd != Reg::FP);
        }
        Insn::AluI {
            op: Opcode::AddI,
            rd,
            rs,
            imm,
        } if rd == Reg::SP && rs == Reg::SP => *sp = sp.map(|k| k + i64::from(imm)),
        Insn::Mov { rd, rs } if rd == Reg::FP && rs == Reg::SP => *fp = *sp,
        _ => {
            let writes = |reg: Reg| defs.contains(&Loc::Reg(reg.index() as u8));
            *sp = sp.filter(|_| !writes(Reg::SP));
            *fp = fp.filter(|_| !writes(Reg::FP));
        }
    }
}

/// One function's blocks by position in [`Function::blocks`], with the
/// frame offsets at each block entry.
pub struct Layout<'a> {
    starts: &'a [u64],
    blocks: Vec<&'a Block>,
    entry: usize,
    /// `sp` and `fp` relative to the entry stack pointer (`None` when not
    /// provable), or `None` for a block no path reaches.
    frames: Vec<Option<(Option<i64>, Option<i64>)>>,
}

impl<'a> Layout<'a> {
    /// The layout of `f`, or `None` when its entry block failed to decode.
    #[must_use]
    pub fn new(f: &'a Function, blocks: &'a BTreeMap<u64, Block>) -> Option<Self> {
        let entry = f.blocks.binary_search(&f.entry).ok()?;
        let mut l = Layout {
            starts: &f.blocks,
            blocks: f.blocks.iter().map(|b| &blocks[b]).collect(),
            entry,
            frames: vec![None; f.blocks.len()],
        };
        // Frame offsets: conflicting shapes at a join degrade to `None`.
        l.frames[entry] = Some((Some(0), None));
        let mut work = vec![entry];
        while let Some(b) = work.pop() {
            let (mut sp, mut fp) = l.frames[b].unwrap_or_default();
            for (_, insn) in &l.blocks[b].insns {
                step_frame(insn, &defs_uses(insn, None, None).0, &mut sp, &mut fp);
            }
            for s in l.succs(b) {
                let merged = match l.frames[s] {
                    Some((psp, pfp)) => (psp.filter(|_| psp == sp), pfp.filter(|_| pfp == fp)),
                    None => (sp, fp),
                };
                if l.frames[s] != Some(merged) {
                    l.frames[s] = Some(merged);
                    work.push(s);
                }
            }
        }
        Some(l)
    }

    /// Positions of block `p`'s successors inside the function.
    fn succs(&self, p: usize) -> impl Iterator<Item = usize> + 'a {
        let starts = self.starts;
        (self.blocks[p].succs.iter()).filter_map(move |s| starts.binary_search(s).ok())
    }

    /// Visits every instruction in layout order with its block position
    /// and the locations it defines and uses, stack slots resolved at the
    /// block's frame offsets.
    pub fn walk(&self, mut visit: impl FnMut(usize, u64, &Insn, &[Loc], &[Loc])) {
        for (p, block) in self.blocks.iter().enumerate() {
            let (mut sp, mut fp) = self.frames[p].unwrap_or_default();
            for (pc, insn) in &block.insns {
                let (defs, uses) = defs_uses(insn, sp, fp);
                visit(p, *pc, insn, &defs, &uses);
                step_frame(insn, &defs, &mut sp, &mut fp);
            }
        }
    }
}

/// Definition bitmasks per location id, `words` each: rows below
/// `ENTRY_DEFS` are the registers and `Mem` ([`fixed_id`]), then
/// `ALL_SLOTS`, `NONE`, and one row per interned slot.
struct Masks {
    words: usize,
    slots: Vec<i64>,
    rows: Vec<u64>,
    /// Location id per definition.
    def_loc: Vec<usize>,
}

impl Masks {
    fn new(defs: &[Def]) -> Self {
        let words = defs.len().div_ceil(64);
        let mut m = Masks {
            words,
            slots: Vec::new(),
            rows: vec![0; (NONE + 1) * words],
            def_loc: Vec::with_capacity(defs.len()),
        };
        for (d, def) in defs.iter().enumerate() {
            let mut id = m.id(def.loc);
            if let (Loc::Slot(k), NONE) = (def.loc, id) {
                m.slots.push(k);
                m.rows.resize(m.rows.len() + words, 0);
                id = NONE + m.slots.len();
            }
            if id > NONE {
                m.rows[ALL_SLOTS * words + d / 64] |= 1 << (d % 64);
            }
            m.rows[id * words + d / 64] |= 1 << (d % 64);
            m.def_loc.push(id);
        }
        m
    }

    fn id(&self, loc: Loc) -> usize {
        let slot = |k| self.slots.iter().position(|&s| s == k);
        match loc {
            Loc::Slot(k) => slot(k).map_or(NONE, |i| NONE + 1 + i),
            _ => fixed_id(loc),
        }
    }

    fn row(&self, id: usize) -> &[u64] {
        &self.rows[id * self.words..][..self.words]
    }

    /// The two rows a read of `loc` consumes: its own, plus the
    /// `Mem`/slot cross term.
    fn read_rows(&self, loc: Loc) -> (usize, usize) {
        match loc {
            Loc::Mem => (MEM, ALL_SLOTS),
            Loc::Slot(_) => (MEM, self.id(loc)),
            _ => (self.id(loc), NONE),
        }
    }

    /// Applies definition `d` to a reaching set: it replaces every other
    /// definition of its location (`Mem` is never replaced).
    fn define(&self, set: &mut [u64], d: usize) {
        let id = self.def_loc[d];
        if id != MEM {
            for (s, m) in set.iter_mut().zip(self.row(id)) {
                *s &= !m;
            }
        }
        set[d / 64] |= 1 << (d % 64);
    }
}

/// Builds def-use facts for one recovered function.
#[must_use]
pub fn analyze_function(f: &Function, blocks: &BTreeMap<u64, Block>) -> FuncFlow {
    let mut flow = FuncFlow {
        entry: f.entry,
        ..FuncFlow::default()
    };
    let Some(layout) = Layout::new(f, blocks) else {
        return flow;
    };

    // Entry definitions: every integer and float register plus the
    // memory cell (float registers carry cross-call float arguments,
    // e.g. `sin` taking `x` in `f0`).
    let entry_locs = (0..Reg::COUNT as u8)
        .map(Loc::Reg)
        .chain((0..FReg::COUNT as u8).map(Loc::FReg))
        .chain([Loc::Mem]);
    flow.defs = entry_locs
        .map(|loc| Def {
            pc: f.entry,
            loc,
            kind: DefKind::Entry,
            from_mem: false,
        })
        .collect();

    // First pass: enumerate instruction definitions in address order,
    // one contiguous run per block.
    let mut ranges = vec![0..0; layout.blocks.len()];
    layout.walk(|p, pc, insn, defs, _| {
        if ranges[p].is_empty() {
            ranges[p] = flow.defs.len()..flow.defs.len();
        }
        let from_mem = matches!(
            insn,
            Insn::Load { .. } | Insn::Pop { .. } | Insn::FLd { .. }
        );
        flow.defs.extend(defs.iter().map(|&loc| Def {
            pc,
            loc,
            kind: DefKind::Insn,
            from_mem,
        }));
        ranges[p].end = flow.defs.len();
        match *insn {
            Insn::Call { rel } => {
                flow.calls
                    .insert(pc, Some(pc.wrapping_add_signed(rel.into())));
            }
            Insn::Callr { .. } => {
                flow.calls.insert(pc, None);
            }
            Insn::Ret => {
                flow.ret_pcs.insert(pc);
            }
            _ => {}
        }
    });
    debug_assert!(flow.defs[ENTRY_DEFS..].is_sorted_by_key(|d| d.pc));
    let masks = Masks::new(&flow.defs);
    let w = masks.words;

    // Worklist fixpoint over block positions: a block is (re)visited
    // when first reached and whenever its `in` grows.
    let mut block_in = vec![0u64; layout.blocks.len() * w];
    block_in[layout.entry * w] = (1 << ENTRY_DEFS) - 1;
    let mut done = vec![false; layout.blocks.len()];
    let mut out = vec![0u64; w];
    let mut work = vec![layout.entry];
    while let Some(b) = work.pop() {
        done[b] = true;
        out.copy_from_slice(&block_in[b * w..(b + 1) * w]);
        ranges[b].clone().for_each(|d| masks.define(&mut out, d));
        for s in layout.succs(b) {
            let mut changed = false;
            for (sin, &o) in block_in[s * w..(s + 1) * w].iter_mut().zip(&out) {
                changed |= o & !*sin != 0;
                *sin |= o;
            }
            if changed || !done[s] {
                work.push(s);
            }
        }
    }

    // Second pass: def-use edges, walking each reached block with its
    // live set. pcs ascend over the walk, so a definition already used
    // at this pc is the last entry of its use list.
    flow.def_uses = vec![Vec::new(); flow.defs.len()];
    let (mut live, mut here) = (vec![0u64; w], Vec::new());
    let (mut d, mut block) = (ENTRY_DEFS, usize::MAX);
    layout.walk(|p, pc, _, defs, uses| {
        if p != block {
            block = p;
            live.copy_from_slice(&block_in[p * w..(p + 1) * w]);
        }
        let run = d..d + defs.len();
        d = run.end;
        if live[MEM / 64] & (1 << (MEM % 64)) == 0 {
            // Unreachable block: even the `Mem` entry definition, which
            // nothing kills, is missing. No live defs flow into it.
            return;
        }
        for &u in uses {
            let (a, b) = masks.read_rows(u);
            for (i, (&x, &y)) in masks.row(a).iter().zip(masks.row(b)).enumerate() {
                let mut bits = live[i] & (x | y);
                while bits != 0 {
                    let j = i * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    if flow.def_uses[j].last() != Some(&pc) {
                        flow.def_uses[j].push(pc);
                        here.push(j);
                    }
                }
            }
        }
        if !here.is_empty() {
            flow.uses_at.insert(pc, here.clone());
            here.clear();
        }
        for j in run {
            masks.define(&mut live, j);
        }
    });
    flow.block_in = block_in;
    flow
}

impl FuncFlow {
    /// The entry definition of `loc`: every register and `Mem` has one,
    /// stack slots do not.
    #[must_use]
    pub fn entry_def(&self, loc: Loc) -> Option<usize> {
        let d = fixed_id(loc);
        (d <= MEM && d < self.defs.len()).then_some(d)
    }

    /// The definitions the instruction at `pc` generates.
    #[must_use]
    pub fn insn_defs(&self, pc: u64) -> Range<usize> {
        let insn = self.defs.get(ENTRY_DEFS..).unwrap_or_default();
        ENTRY_DEFS + insn.partition_point(|d| d.pc < pc)
            ..ENTRY_DEFS + insn.partition_point(|d| d.pc <= pc)
    }

    /// Total number of def-use edges (for summaries).
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.def_uses.iter().map(Vec::len).sum()
    }
}
