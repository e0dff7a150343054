//! # bomblab-sa — static binary analysis for BVM images
//!
//! Analyzes a linked bomb image *without executing it*:
//!
//! 1. **CFG recovery** ([`cfg`]): recursive-descent disassembly from the
//!    entry point and every text symbol, basic blocks, call graph,
//!    dominator trees, with explicit degrade-to-`.byte` paths where
//!    decoding fails.
//! 2. **Value-set analysis** ([`vsa`]): strided-interval abstract
//!    interpretation that resolves `jr` jump-table targets, proves branch
//!    edges infeasible, and tracks input taint (depth × source) through
//!    registers, memory regions, and call summaries.
//! 3. **Challenge lints** ([`lints`]): one typed diagnostic per challenge
//!    family from the paper, each predicting the failure stage of every
//!    capability profile — a static forecast of the Table II row.
//!
//! The CFG and the VSA iterate: resolved indirect-jump targets and
//! discovered trap-handler/thread-entry roots feed back into descent
//! until the recovered graph is stable.

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod callgraph;
pub mod cfg;
pub mod code;
pub mod dataflow;
pub mod dom;
pub mod lints;
pub mod taint;
pub mod vsa;

pub use lints::{predict, Anchors, Capabilities, Facts, Lint, LintKind, Stage, Style, TrapModel};
pub use vsa::{Mark, SRC_ARGV, SRC_ENV};

use bomblab_isa::image::{layout, Image};
use bomblab_isa::{sys, Insn, InsnClass};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// Maximum CFG↔VSA refinement rounds.
const MAX_ROUNDS: usize = 4;

/// The complete result of statically analyzing one bomb image.
#[derive(Debug)]
pub struct Analysis {
    /// Entry point of the analyzed image.
    pub entry: u64,
    /// The recovered control-flow graph (final refinement round).
    pub cfg: cfg::Cfg,
    /// Raw value-set-analysis facts.
    pub vsa: vsa::VsaOut,
    /// Distilled whole-bomb facts.
    pub facts: Facts,
    /// Anchoring addresses for whole-program lints.
    pub anchors: Anchors,
    /// The challenge lints.
    pub lints: Vec<Lint>,
    /// Bomb-level stage prediction per capability profile.
    pub predictions: Vec<(String, Stage)>,
    /// Number of refinement rounds actually run.
    pub rounds: usize,
    /// Whether the resolve pass was kept (its store cover stayed within
    /// the collect pass's cover) or discarded for the conservative one.
    pub resolve_sound: bool,
    /// Interprocedural data-flow products (call graph, def-use chains,
    /// static taint reachability).
    pub dataflow: Dataflow,
    code: code::CodeMap,
}

/// The interprocedural data-flow layer built on top of the final CFG/VSA
/// round: call graph, per-function def-use chains, and the static taint
/// closure with its engine-facing products.
#[derive(Debug, Clone, Default)]
pub struct Dataflow {
    /// The program call graph.
    pub graph: callgraph::CallGraph,
    /// Def-use facts per function entry.
    pub flows: BTreeMap<u64, dataflow::FuncFlow>,
    /// Static taint reachability and derived flip hints.
    pub taint: taint::StaticTaint,
}

/// Analyzes `exe` (linked against optional `lib`) under the four paper
/// capability profiles.
#[must_use]
pub fn analyze(exe: &Image, lib: Option<&Image>) -> Analysis {
    analyze_then(exe, lib, |a| a)
}

/// Like [`analyze`], but hands the analysis to `distill` inside the
/// `sa.analyze` span: a caller that keeps only some products extracts
/// them, and frees the rest, within the analyzer's own timing.
pub fn analyze_then<T>(exe: &Image, lib: Option<&Image>, distill: impl FnOnce(Analysis) -> T) -> T {
    let obs_timer = bomblab_obs::start();
    let analysis = analyze_inner(exe, lib, &Capabilities::paper_profiles());
    if obs_timer.is_some() {
        bomblab_obs::counter("sa.cfg_blocks", analysis.cfg.blocks.len() as u64);
        bomblab_obs::counter("sa.lints", analysis.lints.len() as u64);
        bomblab_obs::counter("sa.rounds", analysis.rounds as u64);
        bomblab_obs::counter(
            "sa.branches_independent",
            analysis.dataflow.taint.independent.len() as u64,
        );
        bomblab_obs::counter(
            "sa.branches_tainted",
            analysis.dataflow.taint.tainted_branches.len() as u64,
        );
    }
    let kept = distill(analysis);
    if let Some(t0) = obs_timer {
        bomblab_obs::span_ns("sa.analyze", t0.elapsed().as_nanos() as u64);
    }
    kept
}

#[allow(clippy::too_many_lines, clippy::missing_panics_doc)]
fn analyze_inner(exe: &Image, lib: Option<&Image>, profiles: &[Capabilities]) -> Analysis {
    // Resolve imports exactly like the VM loader, so call targets point
    // into library text. Unresolvable imports are left in place; calls
    // through them degrade to gaps, never to wrong edges.
    let mut exe = exe.clone();
    if !exe.imports.is_empty() {
        if let Some(l) = lib {
            let _ = exe.resolve_imports(&l.symbols);
        }
    }
    let code = code::CodeMap::new(&exe, lib);
    let mut roots = code.text_symbols();
    roots
        .entry(exe.entry)
        .or_insert_with(|| code.name_of(exe.entry));

    // CFG ↔ VSA refinement loop.
    let mut input = cfg::CfgInput::default();
    let mut tainted_roots: BTreeSet<u64> = BTreeSet::new();
    let mut graph = cfg::build(&code, &roots, &input);
    let mut out;
    let mut resolve_sound;
    let mut rounds = 0;
    loop {
        rounds += 1;
        // Collect pass: no load resolution, builds the store cover.
        let collect = vsa::Vsa::run(
            &code,
            &graph,
            exe.entry,
            false,
            vsa::Cover::default(),
            &tainted_roots,
        );
        // Resolve pass: reads provably unwritten static data concretely.
        let resolve = vsa::Vsa::run(
            &code,
            &graph,
            exe.entry,
            true,
            collect.cover.clone(),
            &tainted_roots,
        );
        // Soundness gate: resolution must not have *widened* the set of
        // written addresses (which would invalidate what it read).
        resolve_sound = resolve.cover.within(&collect.cover);
        out = if resolve_sound {
            resolve.out
        } else {
            collect.out
        };

        let next = cfg::CfgInput {
            jr_targets: out
                .jr
                .iter()
                .map(|(&pc, (targets, _))| (pc, targets.clone()))
                .collect(),
            extra_roots: out.extra_roots.clone(),
        };
        if rounds >= MAX_ROUNDS
            || (next.jr_targets == input.jr_targets && next.extra_roots == input.extra_roots)
        {
            break;
        }
        tainted_roots = next.extra_roots.keys().copied().collect();
        input = next;
        graph = cfg::build(&code, &roots, &input);
    }

    let (facts, anchors) = distill(&code, &graph, &out);
    let mut lint_list = lints::lints(&facts, &anchors, profiles);
    let predictions = profiles
        .iter()
        .map(|c| (c.name.clone(), predict(&facts, c)))
        .collect();
    let flow = build_dataflow(&code, &graph, &out);
    for race in &flow.taint.races {
        lint_list.push(Lint {
            kind: LintKind::SharedMemRace {
                load_pc: race.load_pc,
            },
            pc: race.store_pc,
            detail: format!(
                "store races load at {:#x} on [{:#x}, {:#x}]",
                race.load_pc, race.lo, race.hi
            ),
            stages: profiles
                .iter()
                .map(|c| (c.name.clone(), Stage::Solved))
                .collect(),
        });
    }
    Analysis {
        entry: exe.entry,
        cfg: graph,
        vsa: out,
        facts,
        anchors,
        lints: lint_list,
        predictions,
        rounds,
        resolve_sound,
        dataflow: flow,
        code,
    }
}

/// Runs the data-flow layer (call graph, def-use, taint closure) on the
/// final refinement round's CFG and VSA report.
fn build_dataflow(code: &code::CodeMap, graph: &cfg::Cfg, out: &vsa::VsaOut) -> Dataflow {
    let timer = bomblab_obs::start();
    let cg = callgraph::CallGraph::build(graph);
    if let Some(t0) = timer {
        bomblab_obs::span_ns("sa.callgraph", t0.elapsed().as_nanos() as u64);
    }

    let timer = bomblab_obs::start();
    let flows: BTreeMap<u64, dataflow::FuncFlow> = graph
        .functions
        .iter()
        .map(|(&e, f)| (e, dataflow::analyze_function(f, &graph.blocks)))
        .collect();
    if let Some(t0) = timer {
        bomblab_obs::span_ns("sa.dataflow", t0.elapsed().as_nanos() as u64);
        bomblab_obs::counter(
            "sa.du_edges",
            flows
                .values()
                .map(dataflow::FuncFlow::edge_count)
                .sum::<usize>() as u64,
        );
    }

    let timer = bomblab_obs::start();
    let bomb_entries: BTreeSet<u64> = graph
        .functions
        .keys()
        .filter(|&&e| code.name_of(e) == "bomb_boom")
        .copied()
        .collect();
    let parallel_roots: Vec<u64> = out
        .extra_roots
        .iter()
        .filter(|(_, n)| n.starts_with("thread_entry"))
        .map(|(&a, _)| a)
        .collect();
    let exit_sites: BTreeSet<u64> = out
        .sys_sites
        .iter()
        .filter(|(_, s)| {
            s.sv_point
                && !s.sv_tainted
                && !s.nums.is_empty()
                && s.nums
                    .iter()
                    .all(|&n| n == bomblab_isa::sys::EXIT || n == bomblab_isa::sys::THREAD_EXIT)
        })
        .map(|(&pc, _)| pc)
        .collect();
    let taint_out = taint::analyze(&taint::TaintInput {
        cfg: graph,
        flows: &flows,
        graph: &cg,
        tainted_defs: &out.tainted_defs,
        branch_taint: &out.branch_taint,
        static_stores: &out.static_stores,
        static_loads: &out.static_loads,
        bomb_entries: &bomb_entries,
        parallel_roots: &parallel_roots,
        fork_sites: &out.fork_sites,
        exit_sites: &exit_sites,
    });
    if let Some(t0) = timer {
        bomblab_obs::span_ns("sa.taint", t0.elapsed().as_nanos() as u64);
    }
    Dataflow {
        graph: cg,
        flows,
        taint: taint_out,
    }
}

/// Library routines whose constraint chains blow small solver budgets.
const CRYPTO_ROUTINES: [&str; 3] = ["sha1", "aes128_encrypt", "srand"];

/// Distills whole-bomb [`Facts`] from the recovered graph and VSA output.
#[allow(clippy::too_many_lines)]
fn distill(code: &code::CodeMap, graph: &cfg::Cfg, out: &vsa::VsaOut) -> (Facts, Anchors) {
    let mut anchors = Anchors::default();
    let mut f = Facts::default();

    // Floating-point instruction classes present in reachable code,
    // split by executable vs library text.
    let mut fp_exe = false;
    let mut fp_lib = false;
    for b in graph.blocks.values() {
        for &(pc, insn) in &b.insns {
            let fp = matches!(
                insn.class(),
                InsnClass::FpArith | InsnClass::FpConvert | InsnClass::FpBranch | InsnClass::FpMem
            ) || matches!(insn, Insn::FLd { .. } | Insn::FSt { .. } | Insn::FLi { .. });
            if fp {
                if pc < layout::LIB_TEXT_BASE {
                    fp_exe = true;
                } else {
                    fp_lib = true;
                }
                if anchors.float_pc == 0 || pc < anchors.float_pc {
                    anchors.float_pc = pc;
                }
                if matches!(insn.class(), InsnClass::FpConvert) {
                    f.fp_convert = true;
                }
                if matches!(insn.class(), InsnClass::FpBranch) {
                    f.fp_branch = true;
                }
            }
        }
    }
    f.has_float = out.fp_tainted;
    f.float_lib_only = !fp_exe && fp_lib;

    f.max_indirection = out.max_load_depth;
    f.max_indirection_exe = out.max_load_depth_exe;
    if let Some((&pc, &d)) = out
        .tainted_loads
        .iter()
        .max_by_key(|&(&pc, &d)| (d, std::cmp::Reverse(pc)))
    {
        anchors.load_pc = pc;
        let _ = d;
    }

    // Symbolic jumps: the deepest tainted `jr`.
    for (&pc, (targets, taint)) in &out.jr {
        if let Some(m) = taint {
            if f.sym_jump_depth.is_none_or(|d| m.depth > d) {
                f.sym_jump_depth = Some(m.depth);
                f.sym_jump_targets = targets.len();
                anchors.jr_pc = pc;
            }
        }
    }

    // Syscall facts. The needs_* sources only count when *declared*: the
    // syscall number is untainted, so the call certainly happens with that
    // number (a tainted `sv` enumerating {TIME, GETPID} is a contextual
    // trick, not a time dependence).
    for (&pc, site) in &out.sys_sites {
        if anchors.sys_pc == 0 {
            anchors.sys_pc = pc;
        }
        f.sys_nums.extend(site.nums.iter().copied());
        if site.sv_tainted {
            f.ctx_sysnum = true;
        } else {
            f.needs_time |= site.nums.contains(&sys::TIME);
            f.needs_uid |= site.nums.contains(&sys::GETUID);
            f.needs_net |= site.nums.contains(&sys::NET_GET);
        }
        if site.nums.contains(&sys::OPEN) && site.a0_taint {
            f.ctx_filename = true;
        }
    }
    let installed_trap_handler = out
        .extra_roots
        .values()
        .any(|n| n.starts_with("trap_handler"));
    anchors.div_sites = out.tainted_div.clone();
    anchors.div_pc = out.tainted_div.iter().next().copied().unwrap_or(0);
    f.trap_flow = installed_trap_handler && !out.tainted_div.is_empty();

    f.env_branch = out.branch_src & SRC_ENV != 0;
    f.argv_branch = out.branch_src & SRC_ARGV != 0;
    f.covert_file = f.sys_nums.contains(&sys::OPEN)
        && f.sys_nums.contains(&sys::WRITE)
        && f.sys_nums.contains(&sys::READ);
    f.open_error_branch = out.open_error_branch;
    f.covert_kernel = f.sys_nums.contains(&sys::LSEEK);
    f.uses_forks = f.sys_nums.contains(&sys::FORK);
    f.uses_threads = f.sys_nums.contains(&sys::THREAD_SPAWN);
    f.tainted_push = out.tainted_push;
    anchors.push_pc = 0;
    f.tainted_lib_calls = out.tainted_lib_calls.clone();

    f.crypto = CRYPTO_ROUTINES
        .iter()
        .find(|n| out.tainted_lib_calls.contains(**n))
        .map(|n| ((*n).to_string(), true))
        .or_else(|| crypto_loop_in_exe(code, graph).map(|name| (name, false)));
    f.argv_len_branch = out.tainted_lib_calls.contains("strlen");
    (f, anchors)
}

/// Crypto-loop signature: a loop body in *executable* text mixing
/// multiplies/shifts with xors at unusual density — the shape of a cipher
/// round or an LCG, inlined rather than called.
fn crypto_loop_in_exe(_code: &code::CodeMap, graph: &cfg::Cfg) -> Option<String> {
    use bomblab_isa::Opcode;
    for func in graph.functions.values() {
        if func.entry >= layout::LIB_TEXT_BASE {
            continue;
        }
        for &header in &func.loop_headers {
            let mut mul_shift = 0usize;
            let mut xor = 0usize;
            // Approximate the loop body by the blocks dominated by the
            // header (cheap and good enough for a signature).
            for &b in &func.blocks {
                let mut d = b;
                let dominated = loop {
                    if d == header {
                        break true;
                    }
                    let Some(&up) = func.idom.get(&d) else {
                        break false;
                    };
                    if up == d {
                        break false;
                    }
                    d = up;
                };
                if !dominated {
                    continue;
                }
                for (_, insn) in &graph.blocks[&b].insns {
                    if let Insn::Alu3 { op, .. } | Insn::AluI { op, .. } = insn {
                        match op {
                            Opcode::Mul | Opcode::MulI | Opcode::Shl | Opcode::ShlI => {
                                mul_shift += 1;
                            }
                            Opcode::Xor | Opcode::XorI => xor += 1,
                            _ => {}
                        }
                    }
                }
            }
            if mul_shift >= 3 && xor >= 2 {
                return Some(func.name.clone());
            }
        }
    }
    None
}

impl Analysis {
    /// Branch edges proved statically infeasible (prunable for symex).
    #[must_use]
    pub fn infeasible_edges(&self) -> BTreeSet<(u64, bool)> {
        self.vsa.infeasible_edges()
    }

    /// Resolved `jr` targets: site → statically proven successor set.
    #[must_use]
    pub fn jr_targets(&self) -> BTreeMap<u64, BTreeSet<u64>> {
        self.vsa
            .jr
            .iter()
            .filter(|(_, (t, _))| !t.is_empty())
            .map(|(&pc, (t, _))| (pc, t.clone()))
            .collect()
    }

    /// One-line deterministic CFG summary, the unit of the golden
    /// snapshot tests.
    #[must_use]
    pub fn summary(&self) -> String {
        let resolved: usize = self
            .vsa
            .jr
            .values()
            .filter(|(t, _)| !t.is_empty())
            .map(|(t, _)| t.len())
            .sum();
        let unresolved = self.vsa.jr.values().filter(|(t, _)| t.is_empty()).count();
        format!(
            "blocks={} edges={} functions={} gaps={} jr_sites={} jr_targets={} jr_unresolved={} infeasible={} lints={}",
            self.cfg.blocks.len(),
            self.cfg.edge_count(),
            self.cfg.functions.len(),
            self.cfg.gaps.len(),
            self.vsa.jr.len(),
            resolved,
            unresolved,
            self.infeasible_edges().len(),
            self.lints.len(),
        )
    }

    /// One-line deterministic data-flow summary, the unit of the
    /// `--dataflow` golden snapshot tests.
    #[must_use]
    pub fn dataflow_summary(&self) -> String {
        let t = &self.dataflow.taint;
        let du_edges: usize = self
            .dataflow
            .flows
            .values()
            .map(dataflow::FuncFlow::edge_count)
            .sum();
        let call_edges: usize = self
            .dataflow
            .graph
            .callees
            .values()
            .map(BTreeSet::len)
            .sum();
        let slice_pcs: usize = t.slices.values().map(BTreeSet::len).sum();
        format!(
            "branches={} tainted={} independent={} du_edges={} call_edges={} slice_pcs={} races={} sound={}",
            t.branch_sites.len(),
            t.tainted_branches.len(),
            t.independent.len(),
            du_edges,
            call_edges,
            slice_pcs,
            t.races.len(),
            u8::from(self.resolve_sound),
        )
    }

    /// Objdump-style annotated listing of the executable's text: every
    /// recovered function with block leaders, instructions, and lint
    /// annotations anchored at their addresses.
    #[must_use]
    pub fn listing(&self) -> String {
        self.listing_inner(false)
    }

    /// [`Analysis::listing`] plus per-branch data-flow annotations:
    /// taint source mask and seed distance, flip priority, and proven
    /// input-independence.
    #[must_use]
    pub fn listing_dataflow(&self) -> String {
        self.listing_inner(true)
    }

    #[allow(clippy::too_many_lines, clippy::missing_panics_doc)]
    fn listing_inner(&self, with_dataflow: bool) -> String {
        let mut notes: BTreeMap<u64, Vec<String>> = BTreeMap::new();
        for lint in &self.lints {
            let stages: Vec<String> = lint
                .stages
                .iter()
                .map(|(n, s)| format!("{n}:{s}"))
                .collect();
            notes.entry(lint.pc).or_default().push(format!(
                "[{}] {} ({})",
                lint.kind.code(),
                lint.detail,
                stages.join(" ")
            ));
        }
        for (&pc, (targets, _)) in &self.vsa.jr {
            let note = if targets.is_empty() {
                "jr: unresolved".to_string()
            } else {
                let ts: Vec<String> = targets.iter().map(|t| format!("{t:#x}")).collect();
                format!("jr -> {{{}}}", ts.join(", "))
            };
            notes.entry(pc).or_default().push(note);
        }
        for &(pc, taken) in &self.infeasible_edges() {
            notes.entry(pc).or_default().push(format!(
                "branch: {} edge infeasible",
                if taken { "taken" } else { "fall-through" }
            ));
        }
        if with_dataflow {
            let t = &self.dataflow.taint;
            for &pc in &t.branch_sites {
                if pc >= layout::LIB_TEXT_BASE {
                    continue;
                }
                let prio = t.priority.get(&pc).copied().unwrap_or(0);
                let note = if let Some(mask) = t.tainted_branches.get(&pc) {
                    let dist = t.distance.get(&pc).copied().unwrap_or(0);
                    let slice = t.slices.get(&pc).map_or(0, BTreeSet::len);
                    format!("taint: mask={mask:#04b} dist={dist} slice={slice} prio={prio}")
                } else {
                    format!("taint: input-independent prio={prio}")
                };
                notes.entry(pc).or_default().push(note);
            }
            for race in &t.races {
                notes.entry(race.store_pc).or_default().push(format!(
                    "race: store vs load at {:#x} on [{:#x}, {:#x}]",
                    race.load_pc, race.lo, race.hi
                ));
            }
        }

        let mut s = String::new();
        for func in self.cfg.functions.values() {
            if func.entry >= layout::LIB_TEXT_BASE {
                continue; // library listing is noise for bomb triage
            }
            let _ = writeln!(s, "{:#010x} <{}>:", func.entry, func.name);
            for &b in &func.blocks {
                let block = &self.cfg.blocks[&b];
                if b != func.entry {
                    let _ = writeln!(s, "{b:#010x} .L:");
                }
                for &(pc, insn) in &block.insns {
                    let _ = writeln!(s, "    {pc:6x}:  {insn}");
                    for note in notes.get(&pc).into_iter().flatten() {
                        let _ = writeln!(s, "           ; {note}");
                    }
                }
            }
            let _ = writeln!(s);
        }
        for note in notes.get(&0).into_iter().flatten() {
            let _ = writeln!(s, "; {note}");
        }
        let mut preds: Vec<String> = Vec::new();
        for (name, stage) in &self.predictions {
            preds.push(format!("{name}={stage}"));
        }
        let _ = writeln!(s, "; predicted stages: {}", preds.join(" "));
        for &gap in &self.cfg.gaps {
            let _ = writeln!(s, "; {gap:#x}: undecodable — degraded to .byte");
        }
        s
    }

    /// The symbol (or synthesized) name at `addr`.
    #[must_use]
    pub fn name_of(&self, addr: u64) -> String {
        self.code.name_of(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(src: &str) -> Image {
        let obj = bomblab_isa::asm::assemble(src).expect("test program assembles");
        bomblab_isa::link::Linker::new()
            .add_object(obj)
            .entry_symbol("_start")
            .link()
            .expect("test program links")
    }

    #[test]
    fn analyze_straight_line() {
        let img = build(
            "
            .global _start
            _start:
                li a0, 0
                halt
            ",
        );
        let a = analyze(&img, None);
        assert_eq!(a.cfg.gaps.len(), 0);
        assert!(!a.cfg.blocks.is_empty());
        assert!(a.lints.is_empty());
        for (_, stage) in &a.predictions {
            assert_eq!(*stage, Stage::Solved);
        }
    }

    #[test]
    fn jump_table_resolves_statically() {
        // Classic jump table: clamp an argv-derived index to 0..3, scale
        // by 8, load a code pointer from a table, jump.
        let img = build(
            "
            .data
            .align 8
            table: .quad c0, c1, c2, c3
            .text
            .global _start
            _start:
                ld t0, [a1+8]       # argv[1] pointer
                lbu t1, [t0]        # first byte of the argument
                andi t1, t1, 3
                shli t1, t1, 3
                li t2, table
                add t2, t2, t1
                ld t3, [t2]
                jr t3
            c0: li a0, 0
                halt
            c1: li a0, 1
                halt
            c2: li a0, 2
                halt
            c3: li a0, 3
                halt
            ",
        );
        let a = analyze(&img, None);
        let resolved = a.jr_targets();
        assert_eq!(resolved.len(), 1, "one jr site: {}", a.summary());
        let targets = resolved.values().next().unwrap();
        assert_eq!(targets.len(), 4, "all four arms found: {targets:?}");
        // The jump value was loaded through a tainted index: depth 1.
        assert!(matches!(a.facts.sym_jump_depth, Some(d) if d >= 1));
        // The lint engine flags it.
        assert!(a
            .lints
            .iter()
            .any(|l| matches!(l.kind, LintKind::SymbolicJump { .. })));
    }
}
