//! Interprocedural data-flow layer over the bomb dataset: differential
//! static-vs-dynamic taint soundness, independence coverage, golden
//! `--dataflow` summaries, and property tests for the dominator and
//! reaching-definitions algorithms.

use bomblab_bombs::all_cases;
use bomblab_sa::analyze;
use std::collections::BTreeSet;

/// Dynamic taint verdicts for one case: the pcs of branches the
/// omniscient [`bomblab_taint::TaintEngine`] marks tainted on the
/// trigger trace.
fn dynamic_tainted_branch_pcs(case: &bomblab_concolic::StudyCase) -> BTreeSet<u64> {
    use bomblab_taint::{TaintEngine, TaintPolicy};
    use bomblab_vm::{Machine, ROOT_PID};

    let config = case.trigger.to_config(true, 4_000_000);
    let mut machine = Machine::load(&case.subject.image, case.subject.lib.as_ref(), config)
        .expect("trigger input loads");
    machine.run();
    let trace = machine.take_trace();
    let mut engine = TaintEngine::new(TaintPolicy::omniscient());
    engine.taint_memory(
        ROOT_PID,
        &[(case.subject.argv1_addr(), case.trigger.argv1.len() as u64)],
    );
    let report = engine.run(&trace);
    report
        .tainted_branches
        .iter()
        .map(|&i| trace.pc_at(i))
        .collect()
}

/// Soundness of static taint reachability: every branch the dynamic
/// taint engine marks tainted on the trigger trace must be in the
/// static tainted set — equivalently, no statically "input-independent"
/// branch is ever dynamically tainted. This is the safety argument for
/// the engine skipping independent branches as flip targets.
#[test]
fn static_taint_covers_dynamic_taint_on_every_bomb() {
    let mut failures = String::new();
    for case in all_cases() {
        let a = analyze(&case.subject.image, case.subject.lib.as_ref());
        assert!(
            a.resolve_sound,
            "{}: resolve pass must be sound for the dataset",
            case.subject.name
        );
        let static_tainted: BTreeSet<u64> =
            a.dataflow.taint.tainted_branches.keys().copied().collect();
        let dynamic = dynamic_tainted_branch_pcs(&case);
        let missed: Vec<String> = dynamic
            .difference(&static_tainted)
            .map(|pc| format!("{pc:#x}"))
            .collect();
        if !missed.is_empty() {
            failures.push_str(&format!(
                "{}: dynamically tainted branches missing from the static set: {}\n",
                case.subject.name,
                missed.join(", ")
            ));
        }
    }
    assert!(failures.is_empty(), "static taint unsound:\n{failures}");
}

/// The independence proofs must have teeth: a meaningful number of
/// bombs get a non-empty proven-independent branch set (the acceptance
/// bar is five; the dataset currently clears it on every image).
#[test]
fn independence_proofs_fire_on_enough_bombs() {
    let mut with_proofs = 0usize;
    for case in all_cases() {
        let a = analyze(&case.subject.image, case.subject.lib.as_ref());
        if a.resolve_sound && !a.dataflow.taint.independent.is_empty() {
            with_proofs += 1;
        }
    }
    assert!(
        with_proofs >= 5,
        "only {with_proofs} bombs have a non-empty independent set"
    );
}

/// Every per-bomb data-flow summary line must match the committed golden
/// file byte for byte. Set `UPDATE_GOLDEN=1` to regenerate after an
/// intentional change.
#[test]
fn dataflow_summaries_match_the_committed_golden_file() {
    let mut got = String::new();
    for case in all_cases() {
        let a = analyze(&case.subject.image, case.subject.lib.as_ref());
        got.push_str(&format!(
            "{:18} {}\n",
            case.subject.name,
            a.dataflow_summary()
        ));
    }
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/dataflow_summaries.txt"
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &got).expect("golden file is writable");
        return;
    }
    let want = std::fs::read_to_string(path).expect("golden file is committed");
    assert_eq!(
        got, want,
        "data-flow summaries drifted from tests/golden/dataflow_summaries.txt; \
         rerun with UPDATE_GOLDEN=1 if the change is intentional"
    );
}

/// A type-neutral render of one analysis' def-use chains and the taint
/// products read off them: per function its defs (pc, location, kind,
/// `from_mem`, sorted use pcs), `uses_at` in stored order, call sites
/// and `ret` pcs; per branch its taint mask, seed distance, flip
/// priority and backward slice.
fn render_chains(a: &bomblab_sa::Analysis) -> String {
    use bomblab_sa::dataflow::{DefKind, Loc};
    use std::fmt::Write;
    let mut s = String::new();
    for (entry, flow) in &a.dataflow.flows {
        let _ = writeln!(s, "fn {entry:#x}");
        for (i, def) in flow.defs.iter().enumerate() {
            let loc = match def.loc {
                Loc::Reg(r) => format!("r{r}"),
                Loc::FReg(r) => format!("f{r}"),
                Loc::Slot(k) => format!("s{k}"),
                Loc::Mem => "m".to_string(),
            };
            let kind = match def.kind {
                DefKind::Entry => 'e',
                DefKind::Insn => 'i',
            };
            let mut uses = flow.def_uses[i].clone();
            uses.sort_unstable();
            let _ = writeln!(
                s,
                "d{i} {:#x} {loc} {kind} {} {uses:x?}",
                def.pc,
                u8::from(def.from_mem)
            );
        }
        for (pc, defs) in &flow.uses_at {
            let _ = writeln!(s, "u {pc:#x} {defs:?}");
        }
        for (pc, callee) in &flow.calls {
            let _ = writeln!(s, "c {pc:#x} {callee:x?}");
        }
        let rets: Vec<u64> = flow.ret_pcs.iter().copied().collect();
        let _ = writeln!(s, "r {rets:x?}");
    }
    let t = &a.dataflow.taint;
    for pc in &t.branch_sites {
        let slice: Vec<u64> = t
            .slices
            .get(pc)
            .map(|sl| sl.iter().copied().collect())
            .unwrap_or_default();
        let _ = writeln!(
            s,
            "b {pc:#x} {} {:?} {:?} {slice:x?}",
            t.tainted_branches.get(pc).copied().unwrap_or(0),
            t.distance.get(pc),
            t.priority.get(pc),
        );
    }
    s
}

/// Pins the def-use chains themselves, not just their counts: one
/// FNV-1a digest per bomb of [`render_chains`] must match the committed
/// golden file. A wrong chain with the right edge count passes
/// `dataflow_summaries.txt` but not this. Set `UPDATE_GOLDEN=1` to
/// regenerate after an intentional change.
#[test]
fn dataflow_chains_match_the_committed_golden_file() {
    let mut got = String::new();
    for case in all_cases() {
        let a = analyze(&case.subject.image, case.subject.lib.as_ref());
        let digest =
            bomblab_obs::fnv::fold_bytes(bomblab_obs::fnv::OFFSET, render_chains(&a).as_bytes());
        got.push_str(&format!("{:18} {digest:016x}\n", case.subject.name));
    }
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/dataflow_chains.txt"
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &got).expect("golden file is writable");
        return;
    }
    let want = std::fs::read_to_string(path).expect("golden file is committed");
    assert_eq!(
        got, want,
        "def-use chains drifted from tests/golden/dataflow_chains.txt; \
         rerun with UPDATE_GOLDEN=1 if the change is intentional"
    );
}

/// A/B measurement of the data-flow hints on the omniscient profile,
/// for BENCH_micro.md. Run with:
/// `cargo test --release --test dataflow -- --ignored --nocapture`
#[test]
#[ignore = "bench printer; run manually with --ignored --nocapture"]
fn bench_dataflow_hints_ab() {
    use bomblab_concolic::{Engine, StaticHints, ToolProfile};

    println!(
        "{:18} {:>8} {:>8} {:>10} | {:>8} {:>8} {:>10} | {:>6} {:>6}",
        "bomb", "q_off", "q_on", "ms_off", "r_off", "r_on", "ms_on", "indep", "skips"
    );
    for case in all_cases() {
        let a = analyze(&case.subject.image, case.subject.lib.as_ref());
        let ground = bomblab_concolic::ground_truth(&case.subject, &case.trigger);
        let profile = ToolProfile::omniscient();
        let base = StaticHints::from_analysis(&a);
        let run = |hints: StaticHints| {
            Engine::new(profile.clone())
                .with_static_hints(hints)
                .explore(&case.subject, &ground)
        };
        let off = run(base.clone());
        let on = run(base.with_dataflow(&a));
        assert_eq!(
            off.outcome.to_string(),
            on.outcome.to_string(),
            "{}: hints changed the outcome",
            case.subject.name
        );
        println!(
            "{:18} {:>8} {:>8} {:>10.1} | {:>8} {:>8} {:>10.1} | {:>6} {:>6}",
            case.subject.name,
            off.evidence.queries,
            on.evidence.queries,
            off.evidence.solver_ns as f64 / 1e6,
            off.evidence.rounds,
            on.evidence.rounds,
            on.evidence.solver_ns as f64 / 1e6,
            on.evidence.branches_proven_independent,
            on.evidence.independent_skips,
        );
    }
}

mod props {
    use bomblab_isa::{Insn, Opcode, Reg};
    use bomblab_sa::cfg::{Block, Function};
    use bomblab_sa::dataflow::{FuncFlow, Loc};
    use bomblab_sa::{dataflow, dom};
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    /// Materializes `n` of the pre-generated adjacency rows as a graph
    /// over nodes `0..n`, reducing raw edge targets modulo `n`.
    fn clamp_graph(n: u64, raw: &[Vec<u64>]) -> Vec<Vec<u64>> {
        raw.iter()
            .take(n as usize)
            .map(|row| row.iter().map(|t| t % n).collect())
            .collect()
    }

    proptest! {
        /// The CHK dominator tree must agree with the naive all-paths
        /// reference on arbitrary (including irreducible) graphs:
        /// `a dom b` in the tree iff `a` is in `b`'s naive dominator set.
        #[test]
        fn chk_dominators_match_naive_reference(
            n in 2u64..10,
            raw in proptest::collection::vec(
                proptest::collection::vec(any::<u64>(), 0..3), 10),
        ) {
            let adj = clamp_graph(n, &raw);
            let succs = |b: u64| adj[b as usize].clone();
            let tree = dom::dominators(0, &succs);
            let naive = dom::naive_dominators(0, &succs);
            for (&b, doms) in &naive {
                for a in 0..adj.len() as u64 {
                    prop_assert_eq!(
                        tree.dominates(a, b),
                        doms.contains(&a),
                        "node {} dominating {} disagrees", a, b
                    );
                }
            }
            // Every reachable node appears in the tree order.
            prop_assert_eq!(tree.order.len(), naive.len());
        }

        /// The reaching-definitions worklist must converge to a true
        /// fixpoint: one more transfer round changes nothing.
        #[test]
        fn reaching_defs_fixpoint_is_idempotent(
            n in 2u64..10,
            raw in proptest::collection::vec(
                proptest::collection::vec(any::<u64>(), 0..3), 10),
            seed in any::<u64>(),
        ) {
            let adj = clamp_graph(n, &raw);
            let (f, blocks) = synth_function(&adj, seed);
            let flow = dataflow::analyze_function(&f, &blocks);
            prop_assert!(fixpoint_stable(&flow, &f, &blocks));
        }

        /// Def-use chains must equal a naive path-based reference: a
        /// definition reaches a use iff their locations match and some
        /// CFG path from the definition to the use carries no killing
        /// definition of the same location. `uses_at` and `def_uses`
        /// must be exact inverses, with use pcs ascending.
        #[test]
        fn def_use_matches_naive_path_reference(
            n in 2u64..10,
            raw in proptest::collection::vec(
                proptest::collection::vec(any::<u64>(), 0..3), 10),
            seed in any::<u64>(),
        ) {
            let adj = clamp_graph(n, &raw);
            let (f, blocks) = synth_function(&adj, seed);
            let flow = dataflow::analyze_function(&f, &blocks);
            let want = naive_def_uses(&f, &blocks);
            prop_assert_eq!(flow.defs.len(), want.len());
            for (j, (def, (loc, pcs))) in flow.defs.iter().zip(&want).enumerate() {
                prop_assert_eq!(def.loc, *loc, "def {} location", j);
                let got: Vec<u64> = flow.def_uses[j].clone();
                let want: Vec<u64> = pcs.iter().copied().collect();
                prop_assert_eq!(got, want, "def {} at {:#x} ({:?})", j, def.pc, def.loc);
            }
            for (&pc, ds) in &flow.uses_at {
                let distinct: BTreeSet<usize> = ds.iter().copied().collect();
                prop_assert!(!ds.is_empty() && distinct.len() == ds.len());
                for &d in ds {
                    prop_assert!(flow.def_uses[d].contains(&pc));
                }
            }
            for (j, pcs) in flow.def_uses.iter().enumerate() {
                for &pc in pcs {
                    prop_assert!(flow.uses_at.get(&pc).is_some_and(|ds| ds.contains(&j)));
                }
            }
        }
    }

    /// The matching rule: a definition of `def` reaches a use of `use_`
    /// when they are the same location, or one is a stack slot and the
    /// other `Mem`.
    fn loc_matches(def: Loc, use_: Loc) -> bool {
        def == use_
            || matches!(
                (def, use_),
                (Loc::Mem, Loc::Slot(_)) | (Loc::Slot(_), Loc::Mem)
            )
    }

    /// Whether one more transfer round over the converged `block_in`
    /// sets changes nothing. Recomputed naively: a reached block's `out`
    /// is its `in` with its definitions applied in order, each clearing
    /// every other definition of its location (`Mem` aside), and must be
    /// contained in each successor's `in`.
    fn fixpoint_stable(flow: &FuncFlow, f: &Function, blocks: &BTreeMap<u64, Block>) -> bool {
        let w = flow.defs.len().div_ceil(64);
        f.blocks.iter().enumerate().all(|(p, b)| {
            let input = &flow.block_in[p * w..(p + 1) * w];
            let mut out = input.to_vec();
            for &(pc, _) in &blocks[b].insns {
                for d in flow.insn_defs(pc) {
                    let loc = flow.defs[d].loc;
                    for (j, other) in flow.defs.iter().enumerate() {
                        if loc != Loc::Mem && other.loc == loc {
                            out[j / 64] &= !(1 << (j % 64));
                        }
                    }
                    out[d / 64] |= 1 << (d % 64);
                }
            }
            let mut succs = blocks[b]
                .succs
                .iter()
                .filter_map(|s| f.blocks.binary_search(s).ok());
            input.iter().all(|&x| x == 0)
                || succs.all(|s| {
                    let sin = &flow.block_in[s * w..(s + 1) * w];
                    out.iter().zip(sin).all(|(o, i)| o & !i == 0)
                })
        })
    }

    /// One instruction as the kernel resolves it: block position, pc,
    /// and the locations it defines and uses.
    type Resolved = (usize, u64, Vec<Loc>, Vec<Loc>);

    /// The reference def-use relation of `f`, by search over
    /// instruction-level CFG paths: per definition (in the kernel's
    /// numbering: entry definitions, then each instruction's in walk
    /// order) its location and the pcs of the uses it reaches. Paths
    /// start at the entry's first instruction for entry definitions,
    /// and right after the definition itself (later definitions of the
    /// same instruction included) for instruction definitions in
    /// blocks the entry reaches.
    fn naive_def_uses(f: &Function, blocks: &BTreeMap<u64, Block>) -> Vec<(Loc, BTreeSet<u64>)> {
        let mut insns: Vec<Resolved> = Vec::new();
        let layout = dataflow::Layout::new(f, blocks).expect("entry block");
        layout.walk(|p, pc, _, defs, uses| {
            insns.push((p, pc, defs.to_vec(), uses.to_vec()));
        });
        let first = |p: usize| insns.iter().position(|i| i.0 == p);
        let succ_blocks = |p: usize| -> Vec<usize> {
            blocks[&f.blocks[p]]
                .succs
                .iter()
                .filter_map(|s| f.blocks.binary_search(s).ok())
                .collect()
        };
        // Instruction indices that may run right after instruction `i`.
        let next = |i: usize| -> Vec<usize> {
            if insns.get(i + 1).is_some_and(|n| n.0 == insns[i].0) {
                vec![i + 1]
            } else {
                succ_blocks(insns[i].0)
                    .into_iter()
                    .filter_map(first)
                    .collect()
            }
        };
        let entry = f.blocks.binary_search(&f.entry).expect("entry block");
        let mut reached = BTreeSet::from([entry]);
        let mut work = vec![entry];
        while let Some(p) = work.pop() {
            for s in succ_blocks(p) {
                if reached.insert(s) {
                    work.push(s);
                }
            }
        }
        let kills = |def: Loc, other: Loc| def != Loc::Mem && def == other;
        let search = |loc: Loc, start: Vec<usize>| -> BTreeSet<u64> {
            let mut uses = BTreeSet::new();
            let mut seen = BTreeSet::new();
            let mut work = start;
            while let Some(i) = work.pop() {
                if !seen.insert(i) {
                    continue;
                }
                let (_, pc, defs, used) = &insns[i];
                if used.iter().any(|&u| loc_matches(loc, u)) {
                    uses.insert(*pc);
                }
                if !defs.iter().any(|&d| kills(loc, d)) {
                    work.extend(next(i));
                }
            }
            uses
        };
        let entry_locs = (0..Reg::COUNT as u8)
            .map(Loc::Reg)
            .chain((0..bomblab_isa::FReg::COUNT as u8).map(Loc::FReg))
            .chain([Loc::Mem]);
        let mut out: Vec<(Loc, BTreeSet<u64>)> = entry_locs
            .map(|loc| (loc, search(loc, first(entry).into_iter().collect())))
            .collect();
        for (i, (p, _, defs, _)) in insns.iter().enumerate() {
            for (t, &loc) in defs.iter().enumerate() {
                let live = reached.contains(p) && !defs[t + 1..].iter().any(|&d| kills(loc, d));
                let start = if live { next(i) } else { Vec::new() };
                out.push((loc, search(loc, start)));
            }
        }
        out
    }

    /// Materializes a random digraph as a synthetic [`Function`]: each
    /// node becomes a block of up to seven deterministic-from-`seed`
    /// instructions at addresses `node * 0x100`. The mix covers register
    /// ALU moves, `sp`/`fp` frame arithmetic, frame and non-frame
    /// loads and stores, `push`/`pop`, `call` and `sys` (so slot, `Mem`
    /// and cross-matched chains all occur), and the functions often pass
    /// 64 and 128 definitions, crossing bitmask word boundaries.
    fn synth_function(adj: &[Vec<u64>], seed: u64) -> (Function, BTreeMap<u64, Block>) {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        // Mostly `r1`-`r8`; now and then `sp`/`fp`, which degrades the
        // frame offsets.
        let reg = |v: u64| match v % 20 {
            18 => Reg::SP,
            19 => Reg::FP,
            k => Reg::new((k % 8) as u8 + 1).expect("in range"),
        };
        let base = |v: u64| [Reg::SP, Reg::FP, Reg::SP, Reg::new(2).expect("r2")][(v % 4) as usize];
        let off = |v: u64| (v % 5) as i32 * 8 - 16;
        let mut blocks = BTreeMap::new();
        for (i, succs) in adj.iter().enumerate() {
            let start = i as u64 * 0x100;
            let mut insns = Vec::new();
            for k in 0..=(next() % 7) {
                let pc = start + k * 4;
                let insn = match next() % 12 {
                    0 => Insn::Li {
                        rd: reg(next()),
                        imm: next(),
                    },
                    1 => Insn::Mov {
                        rd: reg(next()),
                        rs: reg(next()),
                    },
                    2 => Insn::Alu3 {
                        op: Opcode::Add,
                        rd: reg(next()),
                        rs: reg(next()),
                        rt: reg(next()),
                    },
                    3 => Insn::AluI {
                        op: Opcode::XorI,
                        rd: reg(next()),
                        rs: reg(next()),
                        imm: (next() % 128) as i32,
                    },
                    4 => Insn::AluI {
                        op: Opcode::AddI,
                        rd: Reg::SP,
                        rs: Reg::SP,
                        imm: off(next()),
                    },
                    5 => Insn::Mov {
                        rd: Reg::FP,
                        rs: Reg::SP,
                    },
                    6 => Insn::Load {
                        op: Opcode::Ld,
                        rd: reg(next()),
                        base: base(next()),
                        off: off(next()),
                    },
                    7 => Insn::Store {
                        op: Opcode::Sd,
                        src: reg(next()),
                        base: base(next()),
                        off: off(next()),
                    },
                    8 => Insn::Push { rs: reg(next()) },
                    9 => Insn::Pop { rd: reg(next()) },
                    10 => Insn::Call { rel: 0x40 },
                    _ => Insn::Sys,
                };
                insns.push((pc, insn));
            }
            let end = start + insns.len() as u64 * 4;
            blocks.insert(
                start,
                Block {
                    start,
                    end,
                    insns,
                    succs: succs.iter().map(|&s| s * 0x100).collect(),
                },
            );
        }
        let f = Function {
            entry: 0,
            name: "synth".to_string(),
            blocks: blocks.keys().copied().collect(),
            idom: BTreeMap::new(),
            post_idom: BTreeMap::new(),
            loop_headers: BTreeSet::new(),
            loop_depth: BTreeMap::new(),
        };
        (f, blocks)
    }
}
