//! Static taint reachability from input sources to branch conditions.
//!
//! Seeds come from value-set analysis: every definition site that loads
//! or receives input-derived bytes (`read`/`argv`/`time`/`uid` syscalls
//! and their buffers) carries a source mask. The closure propagates the
//! masks along def-use chains, hops call edges in both directions
//! (arguments forward, `a0` return values backward), and degrades to a
//! whole-memory broadcast when a tainted value escapes through an
//! unresolved store, an indirect call, or a callee's memory effects.
//!
//! The products are engine-facing:
//!
//! * **independent branches** — conditional branches no tainted
//!   definition can reach; flipping them cannot change input-dependent
//!   behavior, so the engine may skip them as flip targets;
//! * **backward slices** — the static instruction cone feeding each
//!   tainted branch, cross-checked against the solver's dynamic
//!   cone-of-influence;
//! * **flip priorities** — taint distance, loop depth, and
//!   `bomb_boom` guard/post-dominance structure, for ordering the
//!   engine's flip queue;
//! * **static races** — store/load pairs on overlapping static ranges
//!   where one side runs in thread-reachable code.

use crate::callgraph::CallGraph;
use crate::cfg::Cfg;
use crate::dataflow::{DefKind, FuncFlow, Loc};
use bomblab_isa::{Insn, Reg};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// A statically flagged shared-memory race candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Race {
    /// Store instruction address.
    pub store_pc: u64,
    /// Load instruction address.
    pub load_pc: u64,
    /// Overlap range start (byte address).
    pub lo: u64,
    /// Overlap range end (inclusive).
    pub hi: u64,
}

/// Everything the taint-reachability pass needs from earlier passes.
pub struct TaintInput<'a> {
    /// Recovered CFG.
    pub cfg: &'a Cfg,
    /// Def-use facts per function entry.
    pub flows: &'a BTreeMap<u64, FuncFlow>,
    /// Call graph.
    pub graph: &'a CallGraph,
    /// VSA taint seeds: defining pc -> source mask.
    pub tainted_defs: &'a BTreeMap<u64, u8>,
    /// VSA's own per-branch taint verdicts (the soundness floor).
    pub branch_taint: &'a BTreeMap<u64, u8>,
    /// Bounded static-region store ranges, pc -> (lo, hi).
    pub static_stores: &'a BTreeMap<u64, (u64, u64)>,
    /// Bounded static-region load ranges, pc -> (lo, hi).
    pub static_loads: &'a BTreeMap<u64, (u64, u64)>,
    /// Entries of the failure sink (`bomb_boom`) in this image.
    pub bomb_entries: &'a BTreeSet<u64>,
    /// Entries that run concurrently with `main` (thread entry points).
    pub parallel_roots: &'a [u64],
    /// `fork` syscall sites: post-fork code runs in parent and child.
    pub fork_sites: &'a BTreeSet<u64>,
    /// `sys` sites proven to always terminate the process/thread —
    /// fall-through edges past them are dead and must not make two
    /// fork arms look mutually reachable.
    pub exit_sites: &'a BTreeSet<u64>,
}

/// Results of static taint reachability.
#[derive(Debug, Clone, Default)]
pub struct StaticTaint {
    /// Every conditional-branch site in the recovered CFG.
    pub branch_sites: BTreeSet<u64>,
    /// Branch pc -> union of input-source masks reaching its condition.
    pub tainted_branches: BTreeMap<u64, u8>,
    /// Branches proven input-independent (sites minus tainted).
    pub independent: BTreeSet<u64>,
    /// Branch pc -> def-use hops from the nearest taint seed.
    pub distance: BTreeMap<u64, u32>,
    /// Branch pc -> pcs of the static backward slice of its condition.
    pub slices: BTreeMap<u64, BTreeSet<u64>>,
    /// Branch pc -> flip-priority score (higher = flip earlier).
    pub priority: BTreeMap<u64, i64>,
    /// Statically flagged shared-memory race candidates.
    pub races: Vec<Race>,
}

/// Maximum pcs retained per backward slice.
const SLICE_CAP: usize = 256;
/// Maximum race pairs reported.
const RACE_CAP: usize = 16;

struct Closure<'a> {
    input: &'a TaintInput<'a>,
    /// Callee entry -> `(caller entry, call pc)` of its direct call
    /// sites, in caller then pc order.
    sites: &'a BTreeMap<u64, Vec<(u64, u64)>>,
    /// Per function entry: (mask, distance) per definition index.
    state: BTreeMap<u64, Vec<(u8, u32)>>,
    work: VecDeque<(u64, usize)>,
    mem_broadcast: u8,
}

impl<'a> Closure<'a> {
    fn taint(&mut self, entry: u64, def: usize, mask: u8, dist: u32) {
        if mask == 0 {
            return;
        }
        let Some(st) = self.state.get_mut(&entry) else {
            return;
        };
        let Some(cell) = st.get_mut(def) else { return };
        let new_bits = mask & !cell.0 != 0;
        let closer = dist < cell.1 && cell.0 != 0;
        if !new_bits && !closer {
            return;
        }
        cell.0 |= mask;
        cell.1 = cell.1.min(dist);
        self.work.push_back((entry, def));
    }

    /// A tainted value escaped into unresolved memory: taint every
    /// function's incoming memory state.
    fn broadcast_mem(&mut self, mask: u8, dist: u32) {
        if mask & !self.mem_broadcast == 0 {
            return;
        }
        self.mem_broadcast |= mask;
        for (&e, flow) in self.input.flows {
            if let Some(d) = flow.entry_def(Loc::Mem) {
                self.taint(e, d, mask, dist);
            }
        }
    }

    fn run(&mut self) {
        let input = self.input;
        // Seed from the VSA report.
        for (&e, flow) in input.flows {
            for (&pc, &mask) in input.tainted_defs {
                for d in flow.insn_defs(pc) {
                    self.taint(e, d, mask, 0);
                }
            }
        }
        while let Some((entry, d)) = self.work.pop_front() {
            let Some(flow) = input.flows.get(&entry) else {
                continue;
            };
            let (mask, dist) = self.state[&entry][d];
            let def_loc = flow.defs[d].loc;
            if def_loc == Loc::Mem && flow.defs[d].kind == DefKind::Insn {
                // Tainted bytes escaped through a store with an
                // unresolved address, a call, or a syscall.
                self.broadcast_mem(mask, dist.saturating_add(1));
            }
            for &use_pc in &flow.def_uses[d] {
                for nd in flow.insn_defs(use_pc) {
                    self.taint(entry, nd, mask, dist.saturating_add(1));
                }
                if let Some(&callee) = flow.calls.get(&use_pc) {
                    self.cross_call(entry, d, callee, mask, dist);
                }
                if flow.ret_pcs.contains(&use_pc)
                    && (def_loc == Loc::Reg(Reg::A0.index() as u8) || def_loc == Loc::FReg(0))
                {
                    self.cross_return(entry, def_loc, mask, dist);
                }
            }
        }
    }

    /// Forward hop: a tainted argument or memory state flows into a
    /// callee's entry definitions.
    fn cross_call(&mut self, caller: u64, d: usize, callee: Option<u64>, mask: u8, dist: u32) {
        let def_loc = self.input.flows[&caller].defs[d].loc;
        let Some(callee) = callee else {
            // Indirect call: assume the target can observe memory.
            self.broadcast_mem(mask, dist.saturating_add(1));
            return;
        };
        let Some(cf) = self.input.flows.get(&callee) else {
            return;
        };
        let target = match def_loc {
            Loc::Reg(i) if !(Reg::A0.index()..=Reg::A5.index()).contains(&usize::from(i)) => None,
            // Float arguments pass in float registers (`sin` takes `x`
            // in `f0`); forward every float channel.
            Loc::Reg(_) | Loc::FReg(_) => cf.entry_def(def_loc),
            Loc::Mem | Loc::Slot(_) => cf.entry_def(Loc::Mem),
        };
        if let Some(t) = target {
            self.taint(callee, t, mask, dist.saturating_add(1));
        }
    }

    /// Backward hop: a tainted return channel (`a0` or `f0`) at `ret`
    /// taints the matching call-site definition in every caller.
    fn cross_return(&mut self, callee: u64, chan: Loc, mask: u8, dist: u32) {
        let (input, sites) = (self.input, self.sites);
        for &(caller, pc) in sites.get(&callee).into_iter().flatten() {
            let cf = &input.flows[&caller];
            if let Some(rd) = cf.insn_defs(pc).find(|&i| cf.defs[i].loc == chan) {
                self.taint(caller, rd, mask, dist.saturating_add(1));
            }
        }
    }
}

/// Runs the interprocedural taint closure and derives the engine-facing
/// products.
#[must_use]
#[allow(clippy::missing_panics_doc, clippy::too_many_lines)]
pub fn analyze(input: &TaintInput<'_>) -> StaticTaint {
    let callers = &input.graph.callers;
    let mut sites: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for (&caller, flow) in input.flows {
        for (&pc, &callee) in &flow.calls {
            let known = |c: &u64| callers.get(c).is_some_and(|s| s.contains(&caller));
            if let Some(callee) = callee.filter(known) {
                sites.entry(callee).or_default().push((caller, pc));
            }
        }
    }
    let mut cl = Closure {
        input,
        sites: &sites,
        state: input
            .flows
            .iter()
            .map(|(&e, f)| (e, vec![(0u8, u32::MAX); f.defs.len()]))
            .collect(),
        work: VecDeque::new(),
        mem_broadcast: 0,
    };
    cl.run();
    let state = cl.state;

    let mut out = StaticTaint::default();

    // pc -> owning function entry (first wins, for slices/priorities),
    // pc -> *all* owning entries (shared tail blocks belong to several
    // functions — race attribution must see every owner), and
    // pc -> containing block start.
    let mut fn_of: BTreeMap<u64, u64> = BTreeMap::new();
    let mut owners: BTreeMap<u64, BTreeSet<u64>> = BTreeMap::new();
    let mut block_of: BTreeMap<u64, u64> = BTreeMap::new();
    for (&e, f) in &input.cfg.functions {
        for &b in &f.blocks {
            let Some(block) = input.cfg.blocks.get(&b) else {
                continue;
            };
            for &(pc, _) in &block.insns {
                fn_of.entry(pc).or_insert(e);
                owners.entry(pc).or_default().insert(e);
                block_of.entry(pc).or_insert(b);
            }
        }
    }

    // Branch verdicts: union the closure's reaching-def masks with the
    // VSA per-branch verdicts (the abstract interpreter sees through
    // patterns the def-use closure resolves to `Mem`).
    for (&e, f) in &input.cfg.functions {
        let Some(flow) = input.flows.get(&e) else {
            continue;
        };
        let st = &state[&e];
        for &b in &f.blocks {
            let Some(block) = input.cfg.blocks.get(&b) else {
                continue;
            };
            for &(pc, insn) in &block.insns {
                if !matches!(insn, Insn::Branch { .. } | Insn::FBranch { .. }) {
                    continue;
                }
                out.branch_sites.insert(pc);
                let mut mask = 0u8;
                let mut dist = u32::MAX;
                for &d in flow.uses_at.get(&pc).into_iter().flatten() {
                    let (m, dd) = st[d];
                    mask |= m;
                    if m != 0 {
                        dist = dist.min(dd);
                    }
                }
                if mask != 0 {
                    *out.tainted_branches.entry(pc).or_insert(0) |= mask;
                    out.distance.insert(pc, dist);
                }
            }
        }
    }
    for (&pc, &mask) in input.branch_taint {
        *out.tainted_branches.entry(pc).or_insert(0) |= mask;
        out.distance.entry(pc).or_insert(0);
        out.branch_sites.insert(pc);
    }
    out.independent = out
        .branch_sites
        .iter()
        .copied()
        .filter(|pc| !out.tainted_branches.contains_key(pc))
        .collect();

    // Backward slices for tainted branches (intra-procedural cone).
    for &pc in out.tainted_branches.keys() {
        let Some(&e) = fn_of.get(&pc) else { continue };
        let Some(flow) = input.flows.get(&e) else {
            continue;
        };
        let mut slice: BTreeSet<u64> = BTreeSet::new();
        let mut seen: BTreeSet<usize> = BTreeSet::new();
        let mut work: Vec<usize> = flow
            .uses_at
            .get(&pc)
            .into_iter()
            .flatten()
            .copied()
            .collect();
        while let Some(d) = work.pop() {
            if !seen.insert(d) || slice.len() >= SLICE_CAP {
                continue;
            }
            let def = flow.defs[d];
            if def.kind == DefKind::Entry {
                continue;
            }
            slice.insert(def.pc);
            for &up in flow.uses_at.get(&def.pc).into_iter().flatten() {
                work.push(up);
            }
        }
        out.slices.insert(pc, slice);
    }

    // Flip priorities.
    let mut bomb_call_blocks: BTreeMap<u64, BTreeSet<u64>> = BTreeMap::new();
    for (&e, f) in &input.cfg.functions {
        for &b in &f.blocks {
            let Some(block) = input.cfg.blocks.get(&b) else {
                continue;
            };
            let calls_bomb = block.insns.iter().any(|&(ipc, insn)| {
                matches!(insn, Insn::Call { rel }
                    if input.bomb_entries.contains(&ipc.wrapping_add_signed(rel.into())))
            });
            if calls_bomb {
                bomb_call_blocks.entry(e).or_default().insert(b);
            }
        }
    }
    let bomb_guard_fns: BTreeSet<u64> = {
        let direct: Vec<u64> = bomb_call_blocks.keys().copied().collect();
        input.graph.can_reach(&direct)
    };
    for &pc in &out.branch_sites {
        let mut score: i64 = 0;
        if let (Some(&e), Some(&b)) = (fn_of.get(&pc), block_of.get(&pc)) {
            if bomb_guard_fns.contains(&e) {
                score += 1000;
            }
            if let Some(f) = input.cfg.functions.get(&e) {
                // Walk the post-dominator chain: if a bomb-call block
                // post-dominates the branch, flipping cannot dodge it.
                if let Some(bombs) = bomb_call_blocks.get(&e) {
                    let mut cur = b;
                    let mut hops = 0;
                    while let Some(&p) = f.post_idom.get(&cur) {
                        if p == cur || hops > 64 {
                            break;
                        }
                        if bombs.contains(&p) {
                            score -= 500;
                            break;
                        }
                        cur = p;
                        hops += 1;
                    }
                }
                score -= 10 * i64::from(f.loop_depth.get(&b).copied().unwrap_or(0));
            }
        }
        if let Some(&d) = out.distance.get(&pc) {
            score += i64::from(100u32.saturating_sub(d));
        }
        out.priority.insert(pc, score);
    }

    // Shared-memory race candidates: a static-range store and load on
    // overlapping bytes where the two sides can run concurrently —
    // either one side is thread-reachable and the other is not (a block
    // shared by main and a thread entry counts for both), or the two
    // sides sit on mutually unreachable arms downstream of a `fork`.
    let mut race_keys: BTreeSet<(u64, u64)> = BTreeSet::new();
    let mut push_race = |out: &mut StaticTaint, spc: u64, lpc: u64, lo: u64, hi: u64| {
        if out.races.len() < RACE_CAP && race_keys.insert((spc, lpc)) {
            out.races.push(Race {
                store_pc: spc,
                load_pc: lpc,
                lo,
                hi,
            });
        }
    };
    let overlaps = || {
        input.static_stores.iter().flat_map(|(&spc, &(slo, shi))| {
            input
                .static_loads
                .iter()
                .filter_map(move |(&lpc, &(llo, lhi))| {
                    let lo = slo.max(llo);
                    let hi = shi.min(lhi);
                    (lo <= hi).then_some((spc, lpc, lo, hi))
                })
        })
    };
    if !input.parallel_roots.is_empty() {
        let par = input.graph.reachable_from(input.parallel_roots);
        let par_own = |pc: u64| {
            owners
                .get(&pc)
                .is_some_and(|o| o.iter().any(|e| par.contains(e)))
        };
        let main_own = |pc: u64| {
            owners
                .get(&pc)
                .is_some_and(|o| o.iter().any(|e| !par.contains(e)))
        };
        for (spc, lpc, lo, hi) in overlaps() {
            if (par_own(spc) && main_own(lpc)) || (main_own(spc) && par_own(lpc)) {
                push_race(&mut out, spc, lpc, lo, hi);
            }
        }
    }
    for &fpc in input.fork_sites {
        let Some(&fb) = block_of.get(&fpc) else {
            continue;
        };
        let post = reachable_blocks(input.cfg, fb, input.exit_sites);
        for (spc, lpc, lo, hi) in overlaps() {
            let (Some(&sb), Some(&lb)) = (block_of.get(&spc), block_of.get(&lpc)) else {
                continue;
            };
            if sb == lb || !post.contains(&sb) || !post.contains(&lb) {
                continue;
            }
            // Mutually unreachable post-fork blocks are the parent and
            // child arms: they execute concurrently.
            if !reachable_blocks(input.cfg, sb, input.exit_sites).contains(&lb)
                && !reachable_blocks(input.cfg, lb, input.exit_sites).contains(&sb)
            {
                push_race(&mut out, spc, lpc, lo, hi);
            }
        }
    }
    out
}

/// Block starts reachable from `from` along CFG successor edges
/// (including `from` itself). A block containing a proven-exit `sys`
/// never falls through: its successor edges are dead.
fn reachable_blocks(cfg: &Cfg, from: u64, exit_sites: &BTreeSet<u64>) -> BTreeSet<u64> {
    let mut seen: BTreeSet<u64> = BTreeSet::new();
    let mut work = vec![from];
    while let Some(b) = work.pop() {
        if !seen.insert(b) {
            continue;
        }
        let Some(block) = cfg.blocks.get(&b) else {
            continue;
        };
        if block.insns.iter().any(|(pc, _)| exit_sites.contains(pc)) {
            continue;
        }
        for &s in &block.succs {
            if !seen.contains(&s) {
                work.push(s);
            }
        }
    }
    seen
}
