//! The concolic engine: the paper's Figure-1 loop, parameterized by a
//! [`ToolProfile`], plus the failure diagnosis that produces Table II's
//! outcome labels.

use crate::outcome::Outcome;
use crate::profile::{ArgvModel, EngineStyle, ToolProfile, TrapSupport};
use crate::world::WorldInput;
use bomblab_fault as fault;
use bomblab_ir::lift;
use bomblab_isa::image::{layout, Image};
use bomblab_obs as obs;
use bomblab_solver::expr::{CmpOp, Term};
use bomblab_solver::{ShardCache, SolveOutcome, Solver, UnknownReason};
use bomblab_symex::{SymExec, SymbolizeEnv};
use bomblab_taint::{TaintEngine, TaintPolicy};
use bomblab_vm::{Machine, MachineConfig, RunStatus, Trace, BOOM_EXIT_CODE, ROOT_PID};
use std::collections::{BTreeMap, BTreeSet, HashSet, VecDeque};

/// A program under test.
#[derive(Debug, Clone)]
pub struct Subject {
    /// Display name.
    pub name: String,
    /// The executable image.
    pub image: Image,
    /// Shared library for dynamically linked subjects.
    pub lib: Option<Image>,
    /// The seed input (must not detonate).
    pub seed: WorldInput,
}

impl Subject {
    /// Address of `argv[1]`'s string bytes in the loader layout.
    pub fn argv1_addr(&self) -> u64 {
        // Two pointers, then "bomb\0".
        layout::ARGV_BASE + 16 + 5
    }

    /// Runs the subject once and reports whether it detonates.
    pub fn detonates(&self, input: &WorldInput, step_budget: u64) -> bool {
        let config = input.to_config(false, step_budget);
        let Ok(mut machine) = Machine::load(&self.image, self.lib.as_ref(), config) else {
            return false;
        };
        machine.run().status.exit_code() == Some(BOOM_EXIT_CODE)
    }
}

/// Statically proven facts the engine may use to prune symbolic work,
/// computed ahead of execution by the `bomblab-sa` analyzer.
#[derive(Debug, Clone, Default)]
pub struct StaticHints {
    /// Branch edges `(pc, direction)` proved infeasible in every analyzed
    /// context: flipping onto one can never yield a satisfiable query, so
    /// the solver call is skipped outright.
    pub infeasible_edges: BTreeSet<(u64, bool)>,
    /// Fully resolved indirect-jump target sets, keyed by `jr` site pc.
    /// A pinned jump whose static target set is a singleton loses no
    /// paths, so it is not evidence of a symbolic-jump modeling gap.
    pub jr_targets: BTreeMap<u64, BTreeSet<u64>>,
    /// Whether the data-flow products below were armed. Gates the flip
    /// scheduler, independence skips, and slice cross-checks — all off
    /// for the paper-tool profiles.
    pub dataflow_armed: bool,
    /// Branch sites the static taint closure proved input-independent:
    /// no tainted definition reaches their condition, so flipping them
    /// cannot move input-dependent control flow.
    pub independent_branches: BTreeSet<u64>,
    /// Flip-priority score per branch site (taint distance, loop depth,
    /// `bomb_boom` guard structure). Higher = flip earlier.
    pub flip_priority: BTreeMap<u64, i64>,
    /// Branch pc -> static input-source mask reaching its condition,
    /// for cross-checking the dynamic cone of influence.
    pub branch_sources: BTreeMap<u64, u8>,
}

impl StaticHints {
    /// Extracts the prunable facts from a static analysis, keeping only
    /// results the analyzer itself vouches for (`resolve_sound`).
    pub fn from_analysis(analysis: &bomblab_sa::Analysis) -> StaticHints {
        if !analysis.resolve_sound {
            return StaticHints::default();
        }
        StaticHints {
            infeasible_edges: analysis.infeasible_edges(),
            jr_targets: analysis.jr_targets(),
            ..StaticHints::default()
        }
    }

    /// Additionally arms the interprocedural data-flow products
    /// (independence proofs, flip priorities, slice masks). Separate from
    /// [`StaticHints::from_analysis`] so the paper-tool profiles keep
    /// their 2017-faithful flip behaviour; only profiles with
    /// `use_dataflow_hints` call this. A no-op unless the analyzer
    /// vouches for its own resolution (`resolve_sound`).
    #[must_use]
    pub fn with_dataflow(mut self, analysis: &bomblab_sa::Analysis) -> StaticHints {
        if !analysis.resolve_sound {
            return self;
        }
        let t = &analysis.dataflow.taint;
        self.dataflow_armed = true;
        self.independent_branches = t.independent.clone();
        self.flip_priority = t.priority.clone();
        self.branch_sources = t.tainted_branches.clone();
        self
    }
}

/// Classifies the variables of a dynamic branch condition into the
/// static analyzer's input-source mask space: `arg1_*` bytes are argv,
/// everything else (stdin, time, network, syscall and library returns)
/// is environment-derived.
fn dyn_source_mask(cond: &bomblab_symex::PathCond) -> u8 {
    let mut mask = 0u8;
    for name in cond.cond_var_names() {
        if name.starts_with("arg1_") {
            mask |= bomblab_sa::SRC_ARGV;
        } else {
            mask |= bomblab_sa::SRC_ENV;
        }
    }
    mask
}

/// Collapses a source mask to two classes — argv vs everything else —
/// so the static/dynamic slice comparison is not sensitive to how the
/// analyzer subdivides environment sources (env vs file descriptors).
fn source_class(mask: u8) -> u8 {
    let argv = mask & bomblab_sa::SRC_ARGV;
    let other = u8::from(mask & !bomblab_sa::SRC_ARGV != 0) << 1;
    argv | other
}

/// What the engine observed while exploring (the raw material of the
/// outcome label).
#[derive(Debug, Clone, Default)]
pub struct Evidence {
    /// The VM step budget was exhausted.
    pub vm_budget: bool,
    /// The tool aborted (unsupported syscall, emulator crash).
    pub abnormal: bool,
    /// A solver query blew its budget or the formula-size cap.
    pub solver_budget: bool,
    /// A tainted instruction could not be lifted.
    pub lift_failure: bool,
    /// A query contained floating-point constraints the solver rejects.
    pub float_unsupported: bool,
    /// The profile's taint saw at least one symbolic branch.
    pub saw_tainted_branches: bool,
    /// The profile's taint recorded dropped flows.
    pub taint_losses: bool,
    /// Symbolic syscall arguments / numbers were observed (contextual).
    pub ctx_events: bool,
    /// Symbolic executor concretized loads / exceeded indirection.
    pub concretization: bool,
    /// Highest pinned-jump target depth observed, if any.
    pub pinned_jump_lvl: Option<u32>,
    /// Symbolic flows dropped by the symbolic executor's policy.
    pub dropped_sym_flows: bool,
    /// A satisfiable flip depended on simulated syscall returns.
    pub sim_query_sysret: bool,
    /// A satisfiable flip depended on unconstrained library summaries.
    pub sim_query_libret: bool,
    /// Flip queries skipped because static analysis proved the edge
    /// infeasible (no solver call issued).
    pub pruned_flips: u32,
    /// Branch sites the static taint closure proved input-independent
    /// (set size, recorded once when data-flow hints are armed).
    pub branches_proven_independent: u64,
    /// Flip candidates skipped because their branch site is statically
    /// input-independent (no solver call issued).
    pub independent_skips: u32,
    /// Flip candidates whose dynamic condition variables were checked
    /// against the static backward slice's source mask.
    pub static_slice_checked: u64,
    /// Checked candidates whose dynamic cone of influence stayed within
    /// the static slice's sources (agreement).
    pub static_slice_agreement: u64,
    /// Pinned jumps proven exact by static `jr` resolution (singleton
    /// target set — pinning lost no paths).
    pub exact_pins: u32,
    /// Total solver queries issued.
    pub queries: u32,
    /// Satisfiable queries.
    pub sat_queries: u32,
    /// Concrete rounds executed.
    pub rounds: u32,
    /// Slices answered from the solver's cross-round cache without
    /// touching the SAT core (exact + model-reuse hits).
    pub cache_hits: u64,
    /// Slices that missed every cache layer and were solved from scratch.
    pub cache_misses: u64,
    /// Cache hits answered by replaying an identical constraint set.
    pub cache_exact_hits: u64,
    /// Cache hits answered by re-validating a previously found model.
    pub cache_model_hits: u64,
    /// Constraint roots bit-blasted into fresh CNF.
    pub roots_blasted: u64,
    /// Always 0, and in no counter list: every CDCL call blasts a fresh
    /// CNF, so no root is ever reused. Kept only because the `layerbench`
    /// benchmark still reads the field by name.
    pub roots_reused: u64,
    /// Wall-clock nanoseconds in concrete execution (VM) per attempt.
    pub vm_ns: u64,
    /// Wall-clock nanoseconds in taint analysis per attempt.
    pub taint_ns: u64,
    /// Wall-clock nanoseconds in symbolic replay per attempt.
    pub symex_ns: u64,
    /// Wall-clock nanoseconds in solver queries per attempt.
    pub solver_ns: u64,
    /// Rewrite-simplifier memo hits across all queries (optimizer stage 1).
    pub simplify_hits: u64,
    /// Constraints dropped as tautologies or folded to constants by the
    /// optimizer (stages 1 and 2), across all queries.
    pub terms_pruned: u64,
    /// Total variable-connected slices queries were split into (stage 3);
    /// equals `queries` when every query was a single component.
    pub slices: u64,
    /// Cache-missed slices answered by interval-witness synthesis instead
    /// of the CDCL solver (stage 3½), across all queries.
    pub witness_hits: u64,
    /// Wall-clock nanoseconds in the rewrite simplifier across all queries.
    pub simplify_ns: u64,
    /// Wall-clock nanoseconds in interval pruning across all queries.
    pub interval_ns: u64,
    /// Wall-clock nanoseconds in cone-of-influence slicing across all
    /// queries.
    pub slice_ns: u64,
    /// Total VM instruction steps across all concrete rounds.
    pub vm_steps: u64,
    /// VM steps served from the predecoded basic-block cache.
    pub bb_hits: u64,
    /// VM dispatch steps the block cache could not serve (cold, dirty, or
    /// uncacheable pc).
    pub bb_misses: u64,
    /// Cached blocks invalidated by stores into decoded code ranges.
    pub bb_invalidations: u64,
    /// VM steps that byte-decoded an instruction (cache misses plus all
    /// steps when the cache is disabled).
    pub steps_decoded: u64,
    /// SAT watch-list entries dismissed by a true blocker literal across
    /// all queries (propagation fast path).
    pub blocker_skips: u64,
    /// SAT learnt clauses evicted by LBD-scored reduction across all
    /// queries.
    pub lbd_evictions: u64,
    /// Faults fired by an armed chaos plan during this attempt (0 unless
    /// the study runner armed a [`bomblab_fault::FaultPlan`]).
    pub injected_faults: u32,
    /// Human-readable record of each injected fault, in firing order.
    pub fault_log: Vec<String>,
    /// Structured diagnostic when the attempt was ended by a contained
    /// crash (machine failure, panic, or deadline).
    pub crash: Option<CrashDiag>,
    /// Extra attempts the study's retry loop spent on this cell before
    /// this (final) attempt. Set by the study runner, not the engine.
    pub retries: u32,
    /// The study quarantined this cell: two attempts died with the same
    /// deterministic panic, so further retries were pointless. Set by the
    /// study runner.
    pub quarantined: bool,
    /// Total scheduled retry backoff in nanoseconds (deterministic values
    /// from the escalation schedule, not measured sleep). Set by the study
    /// runner.
    pub retry_backoff_ns: u64,
    /// Crash messages of the failed attempts that preceded this one, in
    /// order. Trace/bench material only — never rendered into reports.
    pub retry_log: Vec<String>,
    /// Total CDCL propagations across all queries (denominator for the
    /// `blocker_skips` sanity bound — skips happen inside watch-list
    /// walks, which propagations drive).
    pub propagations: u64,
    /// Cache-missed slices answered from the study-wide shared model store
    /// (verified hits), when one is armed.
    pub shared_cache_hits: u64,
    /// Slice models this cell stored into the shared in-process cache.
    pub shared_cache_stores: u64,
    /// Shared-store models rejected by verification (stale or corrupt
    /// entries; counted, never answered from).
    pub shared_cache_rejected: u64,
    /// Trace steps recorded, summed over rounds. Every step records its
    /// operands in full.
    pub trace_steps_full: u64,
    /// Always 0: the VM records every step in full. Kept so readers that
    /// name it (`layerbench`'s `vm.trace_steps_elided`) still build; it is
    /// not in [`Evidence::counters`].
    pub trace_steps_elided: u64,
    /// Bytes of recorded trace data, summed over rounds (by length, not
    /// allocator capacity; see `Trace::arena_bytes`).
    pub trace_arena_bytes: u64,
}

/// The numeric telemetry of one attempt as `(trace name, value)` pairs;
/// see [`Evidence::counters`].
pub type Counters = [(&'static str, u64); 39];

impl Evidence {
    /// Every numeric telemetry counter, once, under its trace name. Trace
    /// `cell` lines, the profile sidecar and `bench_study` all render from
    /// this list, so a new counter is its field, one row here, and the
    /// `+=` where it is counted.
    #[must_use]
    pub fn counters(&self) -> Counters {
        [
            ("rounds", u64::from(self.rounds)),
            ("queries", u64::from(self.queries)),
            ("sat_queries", u64::from(self.sat_queries)),
            ("pruned_flips", u64::from(self.pruned_flips)),
            ("exact_pins", u64::from(self.exact_pins)),
            ("injected_faults", u64::from(self.injected_faults)),
            (
                "branches_proven_independent",
                self.branches_proven_independent,
            ),
            ("independent_skips", u64::from(self.independent_skips)),
            ("static_slice_checked", self.static_slice_checked),
            ("static_slice_agreement", self.static_slice_agreement),
            ("cache_hits", self.cache_hits),
            ("cache_misses", self.cache_misses),
            ("cache_exact_hits", self.cache_exact_hits),
            ("cache_model_hits", self.cache_model_hits),
            ("roots_blasted", self.roots_blasted),
            ("shared_cache_hits", self.shared_cache_hits),
            ("shared_cache_stores", self.shared_cache_stores),
            ("shared_cache_rejected", self.shared_cache_rejected),
            ("simplify_hits", self.simplify_hits),
            ("terms_pruned", self.terms_pruned),
            ("slices", self.slices),
            ("witness_hits", self.witness_hits),
            ("propagations", self.propagations),
            ("blocker_skips", self.blocker_skips),
            ("lbd_evictions", self.lbd_evictions),
            ("vm_steps", self.vm_steps),
            ("bb_hits", self.bb_hits),
            ("bb_misses", self.bb_misses),
            ("bb_invalidations", self.bb_invalidations),
            ("steps_decoded", self.steps_decoded),
            ("trace_steps_full", self.trace_steps_full),
            ("trace_arena_bytes", self.trace_arena_bytes),
            ("vm_ns", self.vm_ns),
            ("taint_ns", self.taint_ns),
            ("symex_ns", self.symex_ns),
            ("solver_ns", self.solver_ns),
            ("simplify_ns", self.simplify_ns),
            ("interval_ns", self.interval_ns),
            ("slice_ns", self.slice_ns),
        ]
    }

    /// The nonzero entries of [`Evidence::counters`] as a JSON object.
    #[must_use]
    pub fn counters_json(&self) -> String {
        obs::json::u64_object(self.counters().into_iter().filter(|&(_, v)| v > 0))
    }
}

/// Structured diagnostic for a contained per-cell failure: what the cell
/// died of, where in the pipeline, and how long it had been running.
///
/// Only `message` and `stage` appear in reports — `elapsed_ns` is real
/// wall clock and would break byte-identical output across `--jobs`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashDiag {
    /// The panic payload or machine error, as text.
    pub message: String,
    /// The pipeline stage the cell had reached ("vm", "taint", "lift",
    /// "symex", "solve", or "start").
    pub stage: String,
    /// Wall-clock nanoseconds from cell start to the failure.
    pub elapsed_ns: u64,
}

/// Result of one engine run against a subject.
#[derive(Debug, Clone)]
pub struct Attempt {
    /// The study label.
    pub outcome: Outcome,
    /// The detonating input, when solved.
    pub solved_input: Option<WorldInput>,
    /// Collected evidence (for reports and tests).
    pub evidence: Evidence,
}

impl Attempt {
    /// Renders the attempt as one `cell` trace line: the required fields,
    /// the retry, expectation and crash fields, and a `counters` object
    /// with the nonzero entries of [`Evidence::counters`].
    #[must_use]
    pub fn cell_line(
        &self,
        bomb: &str,
        profile: &str,
        wall_ns: u64,
        expected: Option<Outcome>,
    ) -> String {
        let ev = &self.evidence;
        let mut line = obs::json::Obj::new("cell")
            .str("bomb", bomb)
            .str("profile", profile)
            .str("outcome", &self.outcome.to_string())
            .u64("wall_ns", wall_ns)
            .u64("rounds", u64::from(ev.rounds))
            .u64("queries", u64::from(ev.queries))
            .raw("counters", &ev.counters_json());
        if ev.retries > 0 {
            line = line.u64("retries", u64::from(ev.retries));
        }
        if ev.quarantined {
            line = line.bool("quarantined", true);
        }
        if ev.retry_backoff_ns > 0 {
            line = line.u64("retry_backoff_ns", ev.retry_backoff_ns);
        }
        if let Some(expected) = expected {
            line = line.str("expected", &expected.to_string());
        }
        if let Some(crash) = &ev.crash {
            line = line
                .str("crash_stage", &crash.stage)
                .str("crash_message", &crash.message);
        }
        line.finish()
    }
}

/// Ground-truth facts about a bomb, derived from its known trigger input.
/// Used only to *attribute* failures (the paper's root-cause analysis);
/// success always comes from actually detonating the bomb.
#[derive(Debug, Clone, Default)]
pub struct GroundTruth {
    /// The solution path crosses a hardware trap.
    pub trap_edge: bool,
    /// The trigger requires controlling `time`.
    pub needs_time: bool,
    /// The trigger requires controlling the network response.
    pub needs_net: bool,
    /// The trigger requires controlling `getuid`.
    pub needs_uid: bool,
    /// The flow passes through files (or kernel file positions).
    pub covert_files: bool,
    /// The flow passes through pipes.
    pub covert_pipes: bool,
    /// The flow passes through spawned threads.
    pub covert_threads: bool,
    /// The flow passes through forked processes.
    pub covert_forks: bool,
    /// Maximum symbolic-load indirection depth on the solution path.
    pub max_indirection: u32,
    /// Depth of the symbolic jump target, if the path takes one.
    pub sym_jump_lvl: Option<u32>,
    /// The path constraints involve floating point.
    pub has_float: bool,
    /// Symbolic values act as syscall arguments/numbers (contextual).
    pub ctx: bool,
    /// Tainted flow passes through shared-library code.
    pub through_lib: bool,
}

/// Computes ground truth by running the trigger input omnisciently.
pub fn ground_truth(subject: &Subject, trigger: &WorldInput) -> GroundTruth {
    ground_truth_with(subject, trigger, true)
}

/// [`ground_truth`], choosing whether the VM dispatches through the
/// predecoded block cache.
pub(crate) fn ground_truth_with(
    subject: &Subject,
    trigger: &WorldInput,
    bbcache: bool,
) -> GroundTruth {
    let mut gt = GroundTruth {
        needs_time: trigger.epoch != subject.seed.epoch,
        needs_net: trigger.net != subject.seed.net,
        needs_uid: trigger.uid != subject.seed.uid,
        ..GroundTruth::default()
    };
    let config = MachineConfig {
        bbcache,
        ..trigger.to_config(true, 4_000_000)
    };
    let Ok(mut machine) = Machine::load(&subject.image, subject.lib.as_ref(), config) else {
        return gt;
    };
    let snapshot = machine
        .process_memory(ROOT_PID)
        .expect("root exists")
        .clone();
    machine.run();
    let trace = machine.take_trace();
    gt.trap_edge = trace.iter().any(|s| s.trap.is_some());

    let lib_ranges = subject
        .lib
        .as_ref()
        .map(|l| {
            vec![
                (l.text_base, l.text.len() as u64),
                (l.data_base, l.data.len() as u64),
            ]
        })
        .unwrap_or_default();

    // Omniscient taint over the solution trace.
    let omni = TaintPolicy::omniscient();
    let run_taint = |policy: TaintPolicy| {
        let mut engine = TaintEngine::new(policy);
        engine.taint_memory(
            ROOT_PID,
            &[(subject.argv1_addr(), trigger.argv1.len() as u64)],
        );
        engine.run(&trace)
    };
    let full = run_taint(omni);
    gt.ctx = !full.tainted_sys_args.is_empty() || !full.tainted_sys_nums.is_empty();
    gt.through_lib = full.tainted_steps.iter().any(|&i| {
        let pc = trace.pc_at(i);
        lib_ranges
            .iter()
            .any(|&(base, len)| pc >= base && pc < base + len)
    });

    // Ablations: a propagation path is load-bearing when disabling it
    // loses at least one tainted branch (argv-parsing branches survive any
    // ablation, so compare counts, not emptiness).
    let branch_count = |policy: TaintPolicy| run_taint(policy).tainted_branches.len();
    let full_count = full.tainted_branches.len();
    if full_count > 0 {
        gt.covert_files = branch_count(TaintPolicy {
            through_files: false,
            ..omni
        }) < full_count;
        gt.covert_pipes = branch_count(TaintPolicy {
            through_pipes: false,
            ..omni
        }) < full_count;
        gt.covert_threads = branch_count(TaintPolicy {
            across_threads: false,
            ..omni
        }) < full_count;
        gt.covert_forks = branch_count(TaintPolicy {
            across_processes: false,
            ..omni
        }) < full_count;
    }

    // Omniscient symbolic replay for indirection depth, jumps, floats.
    let mut sx = SymExec::new(
        bomblab_symex::MemoryModel::SymbolicMap {
            max_indirection: 16,
            region: 256,
        },
        bomblab_symex::PropagationPolicy::full(),
    )
    .with_env(SymbolizeEnv {
        time: true,
        net: true,
        stdin: true,
        unconstrained_sys_returns: false,
    });
    sx.set_initial_memory(ROOT_PID, snapshot);
    sx.symbolize_bytes(
        ROOT_PID,
        subject.argv1_addr(),
        trigger.argv1.len() as u64,
        "arg1",
    );
    let sym = sx.run(&trace);
    gt.max_indirection = sym.events.max_load_level;
    gt.sym_jump_lvl = sym.events.pinned_jumps.iter().map(|&(_, l)| l).max();
    gt.has_float = sym.has_float();
    gt
}

/// The concolic engine.
#[derive(Debug, Clone)]
pub struct Engine {
    profile: ToolProfile,
    hints: StaticHints,
    shared_cache: Option<std::sync::Arc<ShardCache>>,
    bbcache: bool,
}

impl Engine {
    /// Creates an engine with the given tool profile.
    pub fn new(profile: ToolProfile) -> Engine {
        Engine {
            profile,
            hints: StaticHints::default(),
            shared_cache: None,
            bbcache: true,
        }
    }

    /// Chooses whether the engine's VM runs dispatch through the
    /// predecoded block cache (`MachineConfig::bbcache`). On by default.
    #[must_use]
    pub fn with_bbcache(mut self, on: bool) -> Engine {
        self.bbcache = on;
        self
    }

    /// Installs statically proven facts used to prune symbolic work.
    #[must_use]
    pub fn with_static_hints(mut self, hints: StaticHints) -> Engine {
        self.hints = hints;
        self
    }

    /// Arms the study-wide shared model store. Only profiles with
    /// `incremental_solver` attach it: their long-lived solver reads it
    /// (every loaded model re-verified by concrete evaluation) and records
    /// into it. Stateless paper-tool profiles ignore it, so each of their
    /// queries pays its full cost, as the paper measures each tool.
    #[must_use]
    pub fn with_shared_cache(mut self, cache: Option<std::sync::Arc<ShardCache>>) -> Engine {
        self.shared_cache = cache;
        self
    }

    /// The profile.
    pub fn profile(&self) -> &ToolProfile {
        &self.profile
    }

    /// Explores a subject: the concrete/symbolic loop of the paper's
    /// Figure 1, ending in detonation or an evidence-based failure label.
    pub fn explore(&self, subject: &Subject, ground: &GroundTruth) -> Attempt {
        let mut evidence = Evidence::default();
        let mut solved: Option<WorldInput> = None;
        if self.hints.dataflow_armed {
            evidence.branches_proven_independent = self.hints.independent_branches.len() as u64;
        }

        let lib_ranges: Vec<(u64, u64)> = subject
            .lib
            .as_ref()
            .map(|l| {
                vec![
                    (l.text_base, l.text.len() as u64),
                    (l.data_base, l.data.len() as u64),
                ]
            })
            .unwrap_or_default();

        let mut queue: VecDeque<WorldInput> = VecDeque::new();
        queue.push_back(subject.seed.clone());
        let mut seen_inputs: HashSet<WorldInput> = HashSet::new();
        seen_inputs.insert(subject.seed.clone());
        // A flip is identified by its *path context*: the hash of the
        // (pc, direction) sequence of all earlier symbolic branches, plus
        // the branch's own pc and the flipped direction. Identical keys
        // mean identical queries, so each is solved at most once; the same
        // branch under a longer prefix (e.g. the final compare of a
        // multi-digit atoi) is a fresh key and gets its own query.
        let mut visited_flips: HashSet<(u64, u64, bool)> = HashSet::new();

        // One solver for the whole attempt: its query cache persists
        // across rounds, so a later round's repeated slices are answered
        // without another CDCL call. Each CDCL call blasts a fresh CNF.
        let mut solver = Solver::new()
            .with_budget(self.profile.solver_budget)
            .with_float_mode(self.profile.float_mode);
        if self.profile.incremental_solver {
            if let Some(shared) = &self.shared_cache {
                solver = solver.with_shared_cache(shared.clone());
            }
        }
        let solver = solver;

        'rounds: while let Some(input) = queue.pop_front() {
            // Containment watchdog plus the engine-round fault point: one
            // hit per concrete round. Both are inert (one relaxed atomic
            // load each) unless the study runner armed a chaos plan.
            fault::check_deadline();
            if let Some(action) = fault::fault_point(fault::FaultSite::EngineRound) {
                match action {
                    fault::FaultAction::Stall => {
                        fault::trip_stall();
                        fault::check_deadline();
                    }
                    _ => panic!("injected panic in the engine round loop"),
                }
            }
            if evidence.rounds >= self.profile.max_rounds {
                break;
            }
            evidence.rounds += 1;
            obs::set_round(evidence.rounds);

            // 1. Concrete execution with tracing.
            fault::set_stage("vm");
            let config = MachineConfig {
                bbcache: self.bbcache,
                ..input.to_config(true, self.profile.step_budget)
            };
            let Ok(mut machine) = Machine::load(&subject.image, subject.lib.as_ref(), config)
            else {
                evidence.abnormal = true;
                break;
            };
            let snapshot = machine
                .process_memory(ROOT_PID)
                .expect("root exists")
                .clone();
            let vm_start = std::time::Instant::now();
            let run = machine.run();
            let status = run.status;
            evidence.vm_ns += vm_start.elapsed().as_nanos() as u64;
            evidence.vm_steps += run.steps;
            let bb = machine.bb_stats();
            evidence.bb_hits += bb.bb_hits;
            evidence.bb_misses += bb.bb_misses;
            evidence.bb_invalidations += bb.bb_invalidations;
            evidence.steps_decoded += bb.steps_decoded;
            // Count the recorded trace before any exit below, so a detonating
            // run's steps are in the totals as they are in `vm_steps`.
            let full_trace = machine.take_trace();
            evidence.trace_steps_full += full_trace.len() as u64;
            evidence.trace_arena_bytes += full_trace.arena_bytes();
            // An injected stall may have tripped on the guest's final
            // quantum; fail the cell before the detonation check so the
            // "hang" cannot race the solve.
            fault::check_deadline();
            if let RunStatus::Crashed(e) = status {
                // The emulator itself failed (injected fault or broken
                // invariant): the tool is dead, not the guest.
                evidence.abnormal = true;
                evidence.crash = Some(CrashDiag {
                    message: e.to_string(),
                    stage: "vm".to_string(),
                    elapsed_ns: 0,
                });
                break;
            }
            if status.exit_code() == Some(BOOM_EXIT_CODE) {
                solved = Some(input);
                break;
            }
            if status == RunStatus::OutOfBudget {
                evidence.vm_budget = true;
            }

            // 2. Tool-level aborts: unsupported syscalls, traps.
            if full_trace.iter().any(|s| {
                s.sys
                    .as_ref()
                    .is_some_and(|r| self.profile.unsupported_syscalls.contains(&r.num))
            }) {
                evidence.abnormal = true;
                break;
            }
            let trapped = full_trace.iter().any(|s| s.trap.is_some());
            if trapped {
                match self.profile.trap_support {
                    TrapSupport::Follow | TrapSupport::Skip => {}
                    TrapSupport::MissingLift => {
                        evidence.lift_failure = true;
                        break;
                    }
                    TrapSupport::Crash => {
                        evidence.abnormal = true;
                        break;
                    }
                }
            }

            // 3. Visibility filtering (threads, forks, opaque libraries).
            let visible = self.filter_trace(&full_trace);
            let taint_view = if self.profile.loads_dyn_libs {
                visible.clone()
            } else {
                visible.filter(|s| !lib_ranges.iter().any(|&(b, l)| s.pc >= b && s.pc < b + l))
            };

            // 4. Taint analysis.
            fault::set_stage("taint");
            let mut taint = TaintEngine::new(self.profile.taint_policy)
                .with_trap_clearing(self.profile.trap_support == TrapSupport::Skip);
            if self.profile.taint_policy.sources.argv {
                taint.taint_memory(
                    ROOT_PID,
                    &[(subject.argv1_addr(), input.argv1.len() as u64)],
                );
            }
            let taint_start = std::time::Instant::now();
            let report = taint.run(&taint_view);
            evidence.taint_ns += taint_start.elapsed().as_nanos() as u64;
            evidence.saw_tainted_branches |= report.any_symbolic_control();
            evidence.taint_losses |= !report.losses.is_empty();
            evidence.ctx_events |=
                !report.tainted_sys_args.is_empty() || !report.tainted_sys_nums.is_empty();

            // 5. Lifting check on the tainted slice (Es1).
            fault::set_stage("lift");
            let lift_timer = obs::start();
            let mut lift_failed = false;
            for &idx in &report.tainted_steps {
                let step = taint_view.view(idx);
                if step.sys.is_some() {
                    continue;
                }
                if lift(&step.insn, step.pc, &self.profile.support).is_err() {
                    evidence.lift_failure = true;
                    lift_failed = true;
                    break;
                }
            }
            if let Some(t0) = lift_timer {
                obs::span_ns("lift.check", t0.elapsed().as_nanos() as u64);
            }
            if lift_failed {
                // A real tool emits corrupt constraints from here on; we
                // stop exploring this trace.
                continue 'rounds;
            }

            // 6. Symbolic replay.
            fault::set_stage("symex");
            let mut sx = SymExec::new(self.profile.memory_model, self.profile.sym_policy)
                .with_env(SymbolizeEnv {
                    time: self.profile.taint_policy.sources.time,
                    net: self.profile.taint_policy.sources.net,
                    stdin: self.profile.taint_policy.sources.stdin,
                    unconstrained_sys_returns: self.profile.unconstrained_sys_returns,
                })
                .with_trap_clearing(self.profile.trap_support == TrapSupport::Skip)
                .with_trap_guards(self.profile.trap_support == TrapSupport::Follow);
            sx.set_initial_memory(ROOT_PID, snapshot);
            if self.profile.taint_policy.sources.argv {
                sx.symbolize_bytes(
                    ROOT_PID,
                    subject.argv1_addr(),
                    input.argv1.len() as u64,
                    "arg1",
                );
            }
            if !self.profile.loads_dyn_libs {
                sx.set_opaque_ranges(lib_ranges.clone(), self.profile.opaque_fresh_returns);
                // Known libc routines get symbolic summaries (SimProcedures).
                if let Some(lib) = &subject.lib {
                    if let Some(addr) = lib.symbol("atoi") {
                        sx.add_summary(addr, bomblab_symex::Summary::Atoi);
                    }
                    if let Some(addr) = lib.symbol("strlen") {
                        sx.add_summary(addr, bomblab_symex::Summary::Strlen);
                    }
                }
            }
            let symex_start = std::time::Instant::now();
            let sym = sx.run(&visible);
            evidence.symex_ns += symex_start.elapsed().as_nanos() as u64;
            evidence.concretization |=
                !sym.events.concretized_loads.is_empty() || !sym.events.over_indirection.is_empty();
            for &(idx, lvl) in &sym.events.pinned_jumps {
                let site_pc = visible.pc_at(idx);
                let exact = self
                    .hints
                    .jr_targets
                    .get(&site_pc)
                    .is_some_and(|targets| targets.len() == 1);
                if exact {
                    evidence.exact_pins += 1;
                } else {
                    evidence.pinned_jump_lvl =
                        Some(evidence.pinned_jump_lvl.map_or(lvl, |old| old.max(lvl)));
                }
            }
            evidence.dropped_sym_flows |= !sym.events.dropped_file_flows.is_empty()
                || !sym.events.dropped_pipe_flows.is_empty()
                || !sym.events.dropped_thread_flows.is_empty()
                || !sym.events.dropped_fork_flows.is_empty();
            evidence.ctx_events |=
                !sym.events.sym_sys_args.is_empty() || !sym.events.sym_sys_nums.is_empty();

            // 7. Flip each unexplored branch and schedule the solutions.
            //
            // Candidates are collected in path order (the prefix hash
            // that keys the visited set is inherently sequential), then
            // processed by static flip priority. With data-flow hints
            // unarmed every priority is 0 and the index tie-break keeps
            // the exact historical path order — byte-identical traces
            // for the paper-tool profiles.
            fault::set_stage("solve");
            use std::hash::{Hash, Hasher};
            let mut prefix = std::collections::hash_map::DefaultHasher::new();
            let mut candidates: Vec<(i64, usize, (u64, u64, bool))> = Vec::new();
            for i in 0..sym.path.len() {
                let pc = &sym.path[i];
                let key = (prefix.finish(), pc.pc, !pc.taken);
                (pc.pc, pc.taken).hash(&mut prefix);
                let prio = if self.hints.dataflow_armed {
                    self.hints.flip_priority.get(&pc.pc).copied().unwrap_or(0)
                } else {
                    0
                };
                candidates.push((prio, i, key));
            }
            candidates.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
            for (_prio, i, key) in candidates {
                let pc = &sym.path[i];
                if !visited_flips.insert(key) {
                    continue;
                }
                if self.hints.infeasible_edges.contains(&(pc.pc, !pc.taken)) {
                    evidence.pruned_flips += 1;
                    continue;
                }
                if self.hints.dataflow_armed {
                    // Cross-check the dynamic cone of influence against
                    // the static backward slice's source classification.
                    let static_mask = self.hints.branch_sources.get(&pc.pc).copied().or(
                        if self.hints.independent_branches.contains(&pc.pc) {
                            Some(0)
                        } else {
                            None
                        },
                    );
                    if let Some(sm) = static_mask {
                        evidence.static_slice_checked += 1;
                        if source_class(dyn_source_mask(pc)) & !source_class(sm) == 0 {
                            evidence.static_slice_agreement += 1;
                        }
                    }
                    if self.hints.independent_branches.contains(&pc.pc) {
                        // Statically proven input-independent: flipping
                        // cannot move input-dependent control flow, so
                        // the solver call is skipped outright.
                        evidence.independent_skips += 1;
                        continue;
                    }
                }
                let mut query = sym.flip_query(i);
                if self.profile.argv_model == ArgvModel::FixedNonZero {
                    for b in 0..input.argv1.len() {
                        let var = Term::var(format!("arg1_b{b}"), 8);
                        query.push(Term::not(&Term::cmp(CmpOp::Eq, &var, &Term::bv(0, 8))));
                    }
                }
                evidence.queries += 1;
                let solve_start = std::time::Instant::now();
                // Stateless profiles get a throwaway solver per query: no
                // cached models, no shared store — each query pays its full
                // cost against the budget, the way the 2017-era tools did.
                // The throwaway stays alive past `try_check` so its
                // per-query optimizer statistics can be folded into the
                // evidence.
                let throwaway;
                let active = if self.profile.incremental_solver {
                    &solver
                } else {
                    throwaway = Solver::new()
                        .with_budget(self.profile.solver_budget)
                        .with_float_mode(self.profile.float_mode);
                    &throwaway
                };
                let result = active.try_check(&query);
                evidence.solver_ns += solve_start.elapsed().as_nanos() as u64;
                let qstats = active.stats();
                evidence.simplify_hits += qstats.simplify_hits;
                evidence.terms_pruned += qstats.terms_pruned;
                evidence.slices += qstats.slices;
                evidence.witness_hits += qstats.witness_hits;
                evidence.simplify_ns += qstats.simplify_ns;
                evidence.interval_ns += qstats.interval_ns;
                evidence.slice_ns += qstats.slice_ns;
                evidence.blocker_skips += qstats.blocker_skips;
                evidence.lbd_evictions += qstats.lbd_evictions;
                evidence.propagations += qstats.propagations;
                evidence.shared_cache_hits += qstats.shared_cache_hits;
                evidence.shared_cache_stores += qstats.shared_cache_stores;
                evidence.shared_cache_rejected += qstats.shared_cache_rejected;
                evidence.cache_hits += qstats.exact_hits + qstats.model_hits;
                evidence.cache_exact_hits += qstats.exact_hits;
                evidence.cache_model_hits += qstats.model_hits;
                evidence.cache_misses += qstats.misses;
                evidence.roots_blasted += qstats.roots_blasted;
                let outcome = match result {
                    Ok(out) => out,
                    Err(e) => {
                        // An internal solver invariant broke: the tool is
                        // dead. Contain it as an abnormal cell with a
                        // stage-attributed diagnostic instead of panicking.
                        evidence.abnormal = true;
                        evidence.crash = Some(CrashDiag {
                            message: e.to_string(),
                            stage: "solve".to_string(),
                            elapsed_ns: 0,
                        });
                        break 'rounds;
                    }
                };
                match outcome {
                    SolveOutcome::Sat(model) => {
                        evidence.sat_queries += 1;
                        if model.iter().any(|(n, _)| n.starts_with("sysret_")) {
                            evidence.sim_query_sysret = true;
                        }
                        if model.iter().any(|(n, _)| n.starts_with("libret")) {
                            evidence.sim_query_libret = true;
                        }
                        let next = input.apply_model(&model);
                        if seen_inputs.insert(next.clone()) && queue.len() < 64 {
                            queue.push_back(next);
                        }
                    }
                    SolveOutcome::Unsat => {}
                    SolveOutcome::Unknown(
                        UnknownReason::ConflictBudget
                        | UnknownReason::FormulaTooLarge
                        | UnknownReason::FaultInjected,
                    ) => {
                        evidence.solver_budget = true;
                    }
                    SolveOutcome::Unknown(
                        UnknownReason::FloatUnsupported | UnknownReason::FloatSearchFailed,
                    ) => {
                        evidence.float_unsupported = true;
                    }
                    // Unreachable through `try_check` (internal errors
                    // surface as `Err` above), kept for exhaustiveness.
                    SolveOutcome::Unknown(UnknownReason::Internal) => {
                        evidence.abnormal = true;
                    }
                }
                if evidence.solver_budget {
                    break;
                }
            }
            if evidence.solver_budget {
                // The paper's budget is a *total* timeout: once the solver
                // has been exhausted the tool's run is over.
                break 'rounds;
            }
        }

        // Injected faults corrupt the attempt wholesale: even a run that
        // stumbled onto the trigger is not a trustworthy solve once the
        // chaos layer has interfered, so any injection (or contained
        // machine crash) forces the paper's `E` label. Unarmed runs have
        // `injected_faults == 0` and are untouched by this rule.
        evidence.injected_faults = fault::injected_count();
        if evidence.crash.is_some() || evidence.injected_faults > 0 {
            evidence.abnormal = true;
            return Attempt {
                outcome: Outcome::Abnormal,
                solved_input: None,
                evidence,
            };
        }
        let outcome = match solved {
            Some(_) => Outcome::Solved,
            None => self.diagnose(&evidence, ground),
        };
        Attempt {
            outcome,
            solved_input: solved,
            evidence,
        }
    }

    /// Filters the trace down to what the tool can observe.
    fn filter_trace(&self, trace: &Trace) -> Trace {
        let mut first_tid: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
        trace.filter(|s| {
            if !self.profile.follows_forks && s.pid != ROOT_PID {
                return false;
            }
            let first = *first_tid.entry(s.pid).or_insert(s.tid);
            if !self.profile.follows_threads && s.tid != first {
                return false;
            }
            true
        })
    }

    /// Maps evidence + ground truth to the paper's outcome label. Mirrors
    /// the root-cause analysis of Section V.C.
    fn diagnose(&self, ev: &Evidence, gt: &GroundTruth) -> Outcome {
        let p = &self.profile;
        let model_max_indirection = match p.memory_model {
            bomblab_symex::MemoryModel::Concretize => 0,
            bomblab_symex::MemoryModel::SymbolicMap {
                max_indirection, ..
            } => max_indirection,
        };
        // Deep table-driven pointer chains (crypto S-boxes) collapse the
        // data flow during concretization — the constraint model is wrong
        // *before* any solving happens, so this outranks resource
        // exhaustion (the paper labels the AES row Es2, not E).
        if gt.max_indirection >= 3 && gt.max_indirection > model_max_indirection {
            return Outcome::Es2;
        }
        // Abnormal exits and resource exhaustion come next (`E`).
        if ev.abnormal || ev.vm_budget || ev.solver_budget {
            return Outcome::Abnormal;
        }
        // Tracing / lifting failures (`Es1`).
        if ev.lift_failure {
            return Outcome::Es1;
        }
        if gt.trap_edge {
            match p.trap_support {
                TrapSupport::MissingLift => return Outcome::Es1,
                TrapSupport::Crash => return Outcome::Abnormal,
                TrapSupport::Skip => return Outcome::Es2,
                TrapSupport::Follow => {}
            }
        }
        // Missing symbolic sources (`Es0`), unless simulation "handled" the
        // environment and generated insufficient values (`P`).
        let missing_source = (gt.needs_time && !p.taint_policy.sources.time)
            || (gt.needs_net && !p.taint_policy.sources.net)
            || (gt.needs_uid && !p.taint_policy.sources.sys_returns);
        if missing_source {
            return if ev.sim_query_sysret {
                Outcome::Partial
            } else {
                Outcome::Es0
            };
        }
        // Floating point without a float-capable solver (`Es3`). When the
        // float code lives in an unloaded library the tool never even sees
        // it; that is a propagation failure handled below.
        let float_visible = p.loads_dyn_libs || !gt.through_lib;
        if ev.float_unsupported
            || (gt.has_float && p.float_mode == bomblab_solver::FloatMode::Reject && float_visible)
        {
            return Outcome::Es3;
        }
        // Simulation generated values the world cannot honour: syscall
        // simulation is the paper's `P`; aggressive library summaries are
        // wrong-value propagation (`Es2`).
        if ev.sim_query_sysret {
            return Outcome::Partial;
        }
        if ev.sim_query_libret {
            return Outcome::Es2;
        }
        // Covert flows the profile does not track (`Es2`).
        let covert_lost = (gt.covert_files && !p.sym_policy.through_files)
            || (gt.covert_pipes && !p.sym_policy.through_pipes)
            || (gt.covert_threads && !(p.sym_policy.across_threads && p.follows_threads))
            || (gt.covert_forks && !(p.sym_policy.across_processes && p.follows_forks));
        if covert_lost {
            return Outcome::Es2;
        }
        // Contextual symbolic values: modeling vs propagation, per style.
        if gt.ctx || ev.ctx_events {
            return if p.models_env_as_constraints {
                Outcome::Es3
            } else {
                Outcome::Es2
            };
        }
        // Symbolic memory indirection: shallow chains are a modeling gap
        // (`Es3`); the deep-chain case returned `Es2` above.
        if gt.max_indirection > model_max_indirection {
            return Outcome::Es3;
        }
        // Symbolic jumps.
        if let Some(lvl) = gt.sym_jump_lvl.or(ev.pinned_jump_lvl) {
            return if lvl >= 1 {
                Outcome::Es3
            } else {
                match p.style {
                    EngineStyle::Trace => Outcome::Es3,
                    EngineStyle::Emulation => Outcome::Es2,
                }
            };
        }
        // Library flows invisible to a no-libs analysis.
        if gt.through_lib && !p.loads_dyn_libs {
            return Outcome::Es2;
        }
        // Leftover propagation evidence.
        if ev.dropped_sym_flows || ev.taint_losses {
            return Outcome::Es2;
        }
        if ev.concretization {
            return Outcome::Es3;
        }
        // Saw nothing (or nothing useful): a declaration-level failure.
        Outcome::Es0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::Outcome;

    fn diagnose_with(profile: ToolProfile, ev: Evidence, gt: GroundTruth) -> Outcome {
        Engine::new(profile).diagnose(&ev, &gt)
    }

    #[test]
    fn resource_exhaustion_maps_to_abnormal() {
        let ev = Evidence {
            solver_budget: true,
            ..Evidence::default()
        };
        assert_eq!(
            diagnose_with(ToolProfile::bap(), ev, GroundTruth::default()),
            Outcome::Abnormal
        );
    }

    #[test]
    fn deep_indirection_outranks_resource_exhaustion() {
        // The AES shape: budget blown *and* ≥3-deep pointer chains.
        let ev = Evidence {
            solver_budget: true,
            ..Evidence::default()
        };
        let gt = GroundTruth {
            max_indirection: 4,
            ..GroundTruth::default()
        };
        assert_eq!(diagnose_with(ToolProfile::bap(), ev, gt), Outcome::Es2);
    }

    #[test]
    fn lift_failure_maps_to_es1() {
        let ev = Evidence {
            lift_failure: true,
            ..Evidence::default()
        };
        assert_eq!(
            diagnose_with(ToolProfile::triton(), ev, GroundTruth::default()),
            Outcome::Es1
        );
    }

    #[test]
    fn trap_edges_split_by_trap_support() {
        let gt = GroundTruth {
            trap_edge: true,
            ..GroundTruth::default()
        };
        assert_eq!(
            diagnose_with(ToolProfile::triton(), Evidence::default(), gt.clone()),
            Outcome::Es1
        );
        assert_eq!(
            diagnose_with(ToolProfile::angr(), Evidence::default(), gt.clone()),
            Outcome::Abnormal
        );
        assert_eq!(
            diagnose_with(ToolProfile::angr_nolib(), Evidence::default(), gt),
            Outcome::Es2
        );
    }

    #[test]
    fn missing_sources_split_by_simulation() {
        let gt = GroundTruth {
            needs_uid: true,
            ..GroundTruth::default()
        };
        assert_eq!(
            diagnose_with(ToolProfile::bap(), Evidence::default(), gt.clone()),
            Outcome::Es0
        );
        let ev = Evidence {
            sim_query_sysret: true,
            ..Evidence::default()
        };
        assert_eq!(diagnose_with(ToolProfile::angr(), ev, gt), Outcome::Partial);
    }

    #[test]
    fn covert_flows_map_to_es2() {
        let gt = GroundTruth {
            covert_pipes: true,
            covert_forks: true,
            ..GroundTruth::default()
        };
        assert_eq!(
            diagnose_with(ToolProfile::triton(), Evidence::default(), gt.clone()),
            Outcome::Es2
        );
        // Angr-NoLib tracks pipes and forks: the covert rule does not fire
        // and the diagnosis falls through to the declaration default.
        assert_eq!(
            diagnose_with(ToolProfile::angr_nolib(), Evidence::default(), gt),
            Outcome::Es0
        );
    }

    #[test]
    fn contextual_values_split_by_modeling_style() {
        let gt = GroundTruth {
            ctx: true,
            ..GroundTruth::default()
        };
        assert_eq!(
            diagnose_with(ToolProfile::triton(), Evidence::default(), gt.clone()),
            Outcome::Es3
        );
        assert_eq!(
            diagnose_with(ToolProfile::bap(), Evidence::default(), gt),
            Outcome::Es2
        );
    }

    #[test]
    fn shallow_indirection_maps_to_es3_per_memory_model() {
        let gt1 = GroundTruth {
            max_indirection: 1,
            ..GroundTruth::default()
        };
        // Concretizing tools fail level-1...
        assert_eq!(
            diagnose_with(ToolProfile::bap(), Evidence::default(), gt1.clone()),
            Outcome::Es3
        );
        // ...Angr's one-level map handles it (falls through to Es0 default
        // in the absence of any other evidence).
        assert_eq!(
            diagnose_with(ToolProfile::angr(), Evidence::default(), gt1),
            Outcome::Es0
        );
        let gt2 = GroundTruth {
            max_indirection: 2,
            ..GroundTruth::default()
        };
        assert_eq!(
            diagnose_with(ToolProfile::angr(), Evidence::default(), gt2),
            Outcome::Es3
        );
    }

    #[test]
    fn symbolic_jumps_split_by_style_and_depth() {
        let direct = GroundTruth {
            sym_jump_lvl: Some(0),
            ..GroundTruth::default()
        };
        assert_eq!(
            diagnose_with(ToolProfile::bap(), Evidence::default(), direct.clone()),
            Outcome::Es3
        );
        assert_eq!(
            diagnose_with(ToolProfile::angr(), Evidence::default(), direct),
            Outcome::Es2
        );
        let table = GroundTruth {
            sym_jump_lvl: Some(1),
            ..GroundTruth::default()
        };
        assert_eq!(
            diagnose_with(ToolProfile::angr(), Evidence::default(), table),
            Outcome::Es3
        );
    }

    #[test]
    fn float_visibility_depends_on_library_loading() {
        let gt = GroundTruth {
            has_float: true,
            through_lib: true,
            ..GroundTruth::default()
        };
        // With libraries loaded the float constraints are visible: Es3.
        assert_eq!(
            diagnose_with(ToolProfile::angr(), Evidence::default(), gt.clone()),
            Outcome::Es3
        );
        // Without, the whole flow is hidden in the library: Es2.
        assert_eq!(
            diagnose_with(ToolProfile::angr_nolib(), Evidence::default(), gt),
            Outcome::Es2
        );
    }
}
