//! # bomblab-solver — an SMT-lite bitvector solver
//!
//! The constraint-solving backend of the bomblab concolic engine, playing
//! the role STP/Z3 play for the tools studied in the DSN'17 paper:
//!
//! * [`expr`] — a term language of bitvectors, booleans and doubles with
//!   folding smart constructors and a concrete evaluator,
//! * [`interval`] — unsigned range analysis used as a cheap pre-solver,
//! * [`bitblast`] — Tseitin conversion of bitvector terms to CNF,
//! * [`sat`] — a CDCL SAT core with conflict budgets,
//! * [`Solver`] — the front-end combining all of the above, plus a
//!   local-search fallback for floating-point constraints.
//!
//! Budgets are central: the paper's experiments cap each tool at ten
//! minutes, and crypto-function constraints are *designed* to blow any
//! budget. [`SolveOutcome::Unknown`] carries the reason, which the study
//! maps onto the paper's `E` label.
//!
//! ## Example
//!
//! ```
//! use bomblab_solver::{Solver, SolveOutcome};
//! use bomblab_solver::expr::{Term, BvOp, CmpOp};
//!
//! // x * 3 + 1 == 22  =>  x == 7
//! let x = Term::var("x", 32);
//! let lhs = Term::bin(BvOp::Add, &Term::bin(BvOp::Mul, &x, &Term::bv(3, 32)), &Term::bv(1, 32));
//! let c = Term::cmp(CmpOp::Eq, &lhs, &Term::bv(22, 32));
//! match Solver::new().check(&[c]) {
//!     SolveOutcome::Sat(model) => assert_eq!(model.get("x"), Some(7)),
//!     other => panic!("expected sat, got {other:?}"),
//! }
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod bitblast;
pub mod expr;
pub mod idhash;
pub mod interval;
pub mod sat;
pub mod shardcache;
pub mod simplify;
pub mod slice;
pub mod smtlib;

pub use shardcache::ShardCache;

use expr::{eval, Term, Value, Var};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::Arc;

/// Resource limits for a single `check` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolverBudget {
    /// Maximum CDCL conflicts before giving up.
    pub max_conflicts: u64,
    /// Maximum total term nodes before refusing to blast.
    pub max_formula_nodes: usize,
}

impl Default for SolverBudget {
    fn default() -> SolverBudget {
        SolverBudget {
            max_conflicts: 200_000,
            max_formula_nodes: 2_000_000,
        }
    }
}

/// How floating-point constraints are handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FloatMode {
    /// Report [`UnknownReason::FloatUnsupported`] — models a tool without a
    /// floating-point theory (the common case in the paper).
    #[default]
    Reject,
    /// Try a bounded local search over candidate integer inputs. Sound for
    /// SAT answers (models are verified by evaluation); never reports
    /// UNSAT for open formulas.
    LocalSearch,
}

/// Why the solver could not decide a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnknownReason {
    /// The CDCL conflict budget ran out.
    ConflictBudget,
    /// The formula exceeded the node budget before blasting.
    FormulaTooLarge,
    /// Floating-point constraints and [`FloatMode::Reject`].
    FloatUnsupported,
    /// Floating-point local search found no satisfying input.
    FloatSearchFailed,
    /// A chaos-harness fault plan forced this query to give up
    /// (models solver resource exhaustion; never occurs unarmed).
    FaultInjected,
    /// An internal solver invariant broke ([`SolverError`] surfaced via the
    /// infallible [`check`](Solver::check) wrapper).
    Internal,
}

impl fmt::Display for UnknownReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnknownReason::ConflictBudget => write!(f, "conflict budget exhausted"),
            UnknownReason::FormulaTooLarge => write!(f, "formula exceeds node budget"),
            UnknownReason::FloatUnsupported => write!(f, "floating-point theory unsupported"),
            UnknownReason::FloatSearchFailed => write!(f, "floating-point search failed"),
            UnknownReason::FaultInjected => write!(f, "fault injected by chaos plan"),
            UnknownReason::Internal => write!(f, "internal solver error"),
        }
    }
}

/// An internal solver failure surfaced as a typed error instead of a panic.
///
/// [`Solver::try_check`] returns these; the infallible [`Solver::check`]
/// maps them onto [`UnknownReason::Internal`] so legacy callers keep their
/// signature while the engine can diagnose the stage precisely.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolverError {
    /// Model extraction found a variable the query's CNF never encoded —
    /// an invariant break that used to `panic!` mid-study.
    UnblastedVariable(Arc<str>),
}

impl fmt::Display for SolverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolverError::UnblastedVariable(name) => {
                write!(f, "query variable `{name}` was never blasted")
            }
        }
    }
}

impl std::error::Error for SolverError {}

/// A satisfying assignment.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Model {
    values: BTreeMap<Arc<str>, u64>,
}

impl Model {
    /// Value of a variable (variables absent from the formula default to
    /// `None`).
    pub fn get(&self, name: &str) -> Option<u64> {
        self.values.get(name).copied()
    }

    /// Iterates over `(name, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&Arc<str>, &u64)> {
        self.values.iter()
    }

    /// The assignment as an evaluation environment.
    pub fn as_env(&self) -> std::collections::HashMap<Arc<str>, u64> {
        self.values.iter().map(|(k, v)| (k.clone(), *v)).collect()
    }

    /// Inserts a binding (used by engines to pre-seed inputs).
    pub fn insert(&mut self, name: impl Into<Arc<str>>, value: u64) {
        self.values.insert(name.into(), value);
    }
}

/// Outcome of a `check` call.
#[derive(Debug, Clone, PartialEq)]
pub enum SolveOutcome {
    /// Satisfiable with the given model.
    Sat(Model),
    /// Definitely unsatisfiable.
    Unsat,
    /// Could not decide.
    Unknown(UnknownReason),
}

/// Statistics from the last `check` call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Term nodes in the (simplified) formula.
    pub formula_nodes: usize,
    /// SAT variables of this query's CNF (0 when no slice reached CDCL).
    pub sat_vars: u32,
    /// SAT clauses of this query's CNF (0 when no slice reached CDCL).
    pub sat_clauses: usize,
    /// CDCL conflicts spent on this query.
    pub conflicts: u64,
    /// CDCL propagations spent on this query.
    pub propagations: u64,
    /// Watch-list entries dismissed by a true blocker literal on this query
    /// (propagation fast path).
    pub blocker_skips: u64,
    /// Learnt clauses evicted by LBD-scored database reduction on this query.
    pub lbd_evictions: u64,
    /// Rewrite-simplifier memo hits on this query (stage 1).
    pub simplify_hits: u64,
    /// Constraints dropped as tautologies or folded to `true` by the
    /// optimizer (stages 1 and 2).
    pub terms_pruned: u64,
    /// Variable-connected slices the query was split into (stage 3);
    /// `1` when slicing is off or the query is a single component.
    pub slices: u64,
    /// Cache-missed slices answered by interval-witness synthesis instead
    /// of the CDCL solver (stage 3½): a model guessed from the per-variable
    /// range meet and confirmed by concrete evaluation, or an unsat proof
    /// from an empty meet.
    pub witness_hits: u64,
    /// Nanoseconds spent in the rewrite simplifier (stage 1).
    pub simplify_ns: u64,
    /// Nanoseconds spent in interval pruning (stage 2).
    pub interval_ns: u64,
    /// Nanoseconds spent partitioning into slices (stage 3).
    pub slice_ns: u64,
    /// Cache-missed slices answered by the shared in-process store
    /// ([`ShardCache`]) on this query, each verified by concrete evaluation.
    pub shared_cache_hits: u64,
    /// Slice models this query stored into the shared in-process store.
    pub shared_cache_stores: u64,
    /// Shared-store models rejected by read-through verification on this
    /// query (stale or corrupt entries; never answered from).
    pub shared_cache_rejected: u64,
    /// Slices (float queries: whole queries) answered by replaying the
    /// recorded outcome of an identical earlier slice.
    pub exact_hits: u64,
    /// Slices answered by re-validating a model found by an earlier query.
    pub model_hits: u64,
    /// Slices that missed the per-solver layers and the shared store and
    /// went on to the witness stage and CDCL.
    pub misses: u64,
    /// Constraint roots Tseitin-encoded into this query's CNF.
    pub roots_blasted: u64,
}

/// How many cached models a query tries to re-validate before solving.
const MODEL_REUSE_TRIES: usize = 32;
/// How many recent models the cache retains.
const MODEL_CACHE_CAP: usize = 64;

/// Mutable cross-query state behind the immutable `check(&self)` interface.
#[derive(Debug, Default)]
struct SolverState {
    /// A slice's constraint set (hash-consed terms, sorted by id and
    /// deduped; see [`query_key`]) → its recorded outcome. The key holds
    /// its own terms, so their ids cannot be reused while the entry lives.
    exact: HashMap<Vec<Term>, SolveOutcome>,
    /// Recent satisfying models, newest last, for cross-query model reuse.
    models: Vec<Model>,
}

/// The solver front-end.
///
/// A `Solver` is cheap to create and keeps a cross-round query cache with
/// two layers per slice: exact outcome replay and model reuse. Each CDCL
/// call blasts its slices into a fresh CNF, so no clause outlives its
/// query. The concolic engine gives incremental profiles one solver per
/// exploration, not one per round. Every counter is per query, in
/// [`stats`](Solver::stats).
#[derive(Debug, Default)]
pub struct Solver {
    budget: SolverBudget,
    float_mode: FloatMode,
    no_simplify: bool,
    no_slice: bool,
    /// Shared in-process model store ([`ShardCache`]), when attached:
    /// cross-cell reuse between the study's worker threads.
    shared: Option<Arc<shardcache::ShardCache>>,
    stats: std::cell::Cell<SolveStats>,
    state: std::cell::RefCell<SolverState>,
}

impl Solver {
    /// Creates a solver with default budgets and [`FloatMode::Reject`].
    pub fn new() -> Solver {
        Solver::default()
    }

    /// Overrides the budget.
    pub fn with_budget(mut self, budget: SolverBudget) -> Solver {
        self.budget = budget;
        self
    }

    /// Overrides floating-point handling.
    pub fn with_float_mode(mut self, mode: FloatMode) -> Solver {
        self.float_mode = mode;
        self
    }

    /// Enables or disables the word-level optimizer's rewrite and interval
    /// stages (default: enabled). Ablation hook for the optimizer bench.
    pub fn with_simplify(mut self, enabled: bool) -> Solver {
        self.no_simplify = !enabled;
        self
    }

    /// Enables or disables cone-of-influence slicing (default: enabled).
    /// Ablation hook for the optimizer bench.
    pub fn with_slicing(mut self, enabled: bool) -> Solver {
        self.no_slice = !enabled;
        self
    }

    /// Attaches a shared in-process model store ([`ShardCache`]) — the
    /// study-wide cross-cell cache. Satisfying slice models are recorded
    /// into it, and it *answers* cache-missed slices, after mandatory
    /// re-verification by concrete evaluation, so a stale or corrupt entry
    /// can never produce a wrong model. Only long-lived incremental solvers
    /// attach: a stateless paper-tool profile's per-query cost model must
    /// not depend on what its siblings solved.
    pub fn with_shared_cache(mut self, cache: Arc<ShardCache>) -> Solver {
        self.shared = Some(cache);
        self
    }

    /// Statistics from the most recent [`check`](Solver::check).
    pub fn stats(&self) -> SolveStats {
        self.stats.get()
    }

    /// Decides the conjunction of `constraints`, mapping internal solver
    /// errors onto [`UnknownReason::Internal`]. Prefer
    /// [`try_check`](Solver::try_check) when the caller can report errors.
    pub fn check(&self, constraints: &[Term]) -> SolveOutcome {
        match self.try_check(constraints) {
            Ok(out) => out,
            Err(_) => SolveOutcome::Unknown(UnknownReason::Internal),
        }
    }

    /// Decides the conjunction of `constraints`.
    ///
    /// # Errors
    ///
    /// Returns a [`SolverError`] when an internal invariant breaks (e.g.
    /// model extraction meets a variable the session never blasted) —
    /// conditions that formerly panicked mid-study.
    pub fn try_check(&self, constraints: &[Term]) -> Result<SolveOutcome, SolverError> {
        let timer = bomblab_obs::start();
        // Every query reports its own stats, an early return or an injected
        // fault included, never the last query's.
        let mut stats = SolveStats::default();
        let out = self.check_impl(constraints, &mut stats);
        self.stats.set(stats);
        if let Some(t0) = timer {
            self.record_query(&out, t0.elapsed().as_nanos() as u64);
        }
        out
    }

    /// Trace-sink bookkeeping for one finished query. Only runs when an
    /// observation sink is armed on this thread.
    #[cold]
    fn record_query(&self, out: &Result<SolveOutcome, SolverError>, ns: u64) {
        use bomblab_obs::Field;
        let stats = self.stats.get();
        bomblab_obs::span_ns("solver.check", ns);
        bomblab_obs::counter("solver.queries", 1);
        bomblab_obs::hist("solver.query_ns", ns);
        bomblab_obs::hist("solver.conflicts", stats.conflicts);
        let hits = stats.exact_hits + stats.model_hits;
        if hits > 0 {
            bomblab_obs::counter("solver.cache_hits", hits);
        }
        if stats.misses > 0 {
            bomblab_obs::counter("solver.cache_misses", stats.misses);
        }
        if stats.blocker_skips > 0 {
            bomblab_obs::counter("solver.blocker_skips", stats.blocker_skips);
        }
        if stats.lbd_evictions > 0 {
            bomblab_obs::counter("solver.lbd_evictions", stats.lbd_evictions);
        }
        if stats.simplify_ns > 0 {
            bomblab_obs::span_ns("solver.simplify", stats.simplify_ns);
        }
        if stats.interval_ns > 0 {
            bomblab_obs::span_ns("solver.interval", stats.interval_ns);
        }
        if stats.slice_ns > 0 {
            bomblab_obs::span_ns("solver.slice", stats.slice_ns);
        }
        let outcome = match out {
            Ok(SolveOutcome::Sat(_)) => "sat",
            Ok(SolveOutcome::Unsat) => "unsat",
            Ok(SolveOutcome::Unknown(_)) => "unknown",
            Err(_) => "error",
        };
        bomblab_obs::event("solver.query", || {
            vec![
                ("outcome", Field::Str(outcome.to_string())),
                ("misses", Field::U64(stats.misses)),
                ("conflicts", Field::U64(stats.conflicts)),
                ("formula_nodes", Field::U64(stats.formula_nodes as u64)),
                ("ns", Field::U64(ns)),
            ]
        });
    }

    fn check_impl(
        &self,
        constraints: &[Term],
        stats: &mut SolveStats,
    ) -> Result<SolveOutcome, SolverError> {
        // Fault-injection point: one hit per query. Inert (one relaxed
        // atomic load) unless a chaos plan is armed on this thread.
        if let Some(action) = bomblab_fault::fault_point(bomblab_fault::FaultSite::SolverQuery) {
            match action {
                bomblab_fault::FaultAction::Panic => {
                    panic!("injected panic in the solver")
                }
                bomblab_fault::FaultAction::Stall => bomblab_fault::trip_stall(),
                _ => return Ok(SolveOutcome::Unknown(UnknownReason::FaultInjected)),
            }
        }
        // Constant pre-solving. The interval pre-solve over the *original*
        // constraints only runs on the raw (`no_simplify`) path: with the
        // optimizer on, the memoized stage-2 prune below performs the same
        // range refutation after the budget check, so within-budget queries
        // pay the analysis once per term instead of once per query and
        // over-budget queries (crypto-sized DAGs) never pay it at all.
        let mut live = Vec::new();
        for c in constraints {
            match c.as_bool_const() {
                Some(true) => continue,
                Some(false) => return Ok(SolveOutcome::Unsat),
                None => {}
            }
            if self.no_simplify && interval::definitely_false(c) {
                return Ok(SolveOutcome::Unsat);
            }
            live.push(c.clone());
        }
        if live.is_empty() {
            return Ok(SolveOutcome::Sat(Model::default()));
        }

        // Node budget on the *original* constraints, so a budget-determined
        // verdict can never be flipped by the optimizer stages below. The
        // walk aborts as soon as the running total exceeds the budget
        // (`formula_nodes` is then a lower bound, which is all the verdict
        // needs — crypto DAGs are ~100k nodes against a 2k budget).
        let node_budget = self.budget.max_formula_nodes;
        let mut total_nodes = 0usize;
        for c in &live {
            total_nodes = total_nodes.saturating_add(c.size_capped(node_budget - total_nodes));
            if total_nodes > node_budget {
                break;
            }
        }
        stats.formula_nodes = total_nodes;
        if total_nodes > node_budget {
            return Ok(SolveOutcome::Unknown(UnknownReason::FormulaTooLarge));
        }

        // The original constraint set: model zero-fill and the final sanity
        // check run against it, never against the optimizer's rewrite.
        let original = live.clone();

        if !self.no_simplify {
            // Stage 1: memoized rewrite simplification.
            let t0 = std::time::Instant::now();
            let mut sstats = simplify::SimplifyStats::default();
            let mut simplified = Vec::with_capacity(live.len());
            let mut decided_unsat = false;
            for c in &live {
                let s = simplify::simplify(c, &mut sstats);
                match s.as_bool_const() {
                    Some(true) => stats.terms_pruned += 1,
                    Some(false) => {
                        decided_unsat = true;
                        break;
                    }
                    None => simplified.push(s),
                }
            }
            stats.simplify_hits = sstats.memo_hits;
            stats.simplify_ns = t0.elapsed().as_nanos() as u64;
            if decided_unsat {
                return Ok(SolveOutcome::Unsat);
            }
            live = simplified;

            // Stage 2: interval pruning over the simplified constraints.
            let t1 = std::time::Instant::now();
            let mut kept = Vec::with_capacity(live.len());
            for c in &live {
                match interval::prune(c) {
                    interval::Pruned::True => stats.terms_pruned += 1,
                    interval::Pruned::False => {
                        stats.interval_ns = t1.elapsed().as_nanos() as u64;
                        return Ok(SolveOutcome::Unsat);
                    }
                    interval::Pruned::Kept(k) => match k.as_bool_const() {
                        Some(true) => stats.terms_pruned += 1,
                        Some(false) => {
                            stats.interval_ns = t1.elapsed().as_nanos() as u64;
                            return Ok(SolveOutcome::Unsat);
                        }
                        None => kept.push(k),
                    },
                }
            }
            stats.interval_ns = t1.elapsed().as_nanos() as u64;
            live = kept;
            if live.is_empty() {
                // Every constraint was a tautology: any assignment works.
                return Ok(SolveOutcome::Sat(zero_model(&original)));
            }
        }

        if Term::any_has_float(&live) {
            // Floating-point queries take the whole-conjunction fallback
            // paths (shortcut / local search) and are never sliced: the
            // shortcut's validity depends on validating *all* constraints
            // together under one proposal.
            if let Some(out) = self.lookup(&live, None, stats) {
                return Ok(out);
            }
            let out = match self.float_mode {
                FloatMode::Reject => {
                    // Even float-less solvers handle one degenerate case the
                    // way claripy does: a comparison against a *completely
                    // unconstrained* reinterpreted variable is trivially
                    // satisfiable by picking its bits. This is the mechanism
                    // behind the paper's pow-function false positive.
                    match unconstrained_float_shortcut(&live) {
                        Some(m) => SolveOutcome::Sat(m),
                        None => SolveOutcome::Unknown(UnknownReason::FloatUnsupported),
                    }
                }
                FloatMode::LocalSearch => match unconstrained_float_shortcut(&live) {
                    Some(m) => SolveOutcome::Sat(m),
                    None => float_local_search(&live),
                },
            };
            self.remember(&live, &out, None, stats);
            return Ok(out);
        }

        // Stage 3: cone-of-influence slicing. Each variable-connected
        // component is cached and solved on its own — the conjunction is
        // sat iff every slice is sat, any unsat slice decides unsat, and
        // per-slice models merge without conflict.
        let slices: Vec<Vec<Term>> = if self.no_slice || live.len() <= 1 {
            vec![live.clone()]
        } else {
            let t2 = std::time::Instant::now();
            let parts = slice::partition(&live);
            stats.slice_ns = t2.elapsed().as_nanos() as u64;
            parts
        };
        stats.slices = slices.len() as u64;

        let mut merged = Model::default();
        let mut first_unknown: Option<UnknownReason> = None;
        // Slices that missed every cache, each beside its shared-store key
        // (computed only with a store attached).
        let mut missed: Vec<(&Vec<Term>, Option<u64>)> = Vec::new();
        for slice_terms in &slices {
            let shared_key = self
                .shared
                .is_some()
                .then(|| shardcache::slice_key(slice_terms));
            let out = self.lookup(slice_terms, shared_key, stats);
            match out {
                Some(SolveOutcome::Unsat) => {
                    // Unsat wins over any Unknown from an earlier slice.
                    return Ok(SolveOutcome::Unsat);
                }
                Some(SolveOutcome::Unknown(r)) => {
                    if first_unknown.is_none() {
                        first_unknown = Some(r);
                    }
                }
                Some(SolveOutcome::Sat(m)) => merged.values.extend(m.values),
                None => missed.push((slice_terms, shared_key)),
            }
        }
        if !missed.is_empty() && !self.no_simplify {
            // Stage 3½: interval-witness synthesis. Slices whose range
            // facts pin a satisfying point never reach the bit-blaster;
            // an empty meet short-circuits the whole query to unsat.
            let t3 = std::time::Instant::now();
            let mut still_missed = Vec::with_capacity(missed.len());
            for (slice_terms, shared_key) in missed {
                match interval_witness(slice_terms) {
                    WitnessVerdict::Sat(m) => {
                        stats.witness_hits += 1;
                        merged.values.extend(m.iter().map(|(n, v)| (n.clone(), *v)));
                        self.remember(slice_terms, &SolveOutcome::Sat(m), shared_key, stats);
                    }
                    WitnessVerdict::Unsat => {
                        stats.witness_hits += 1;
                        self.remember(slice_terms, &SolveOutcome::Unsat, None, stats);
                        stats.interval_ns += t3.elapsed().as_nanos() as u64;
                        return Ok(SolveOutcome::Unsat);
                    }
                    WitnessVerdict::Miss => still_missed.push((slice_terms, shared_key)),
                }
            }
            stats.interval_ns += t3.elapsed().as_nanos() as u64;
            missed = still_missed;
        }
        if !missed.is_empty() {
            // Every cache-missed slice is solved in ONE SAT call over their
            // union: slices are variable-disjoint, so the union is sat iff
            // each missed slice is sat and a single model covers them all.
            // Slicing exists for cache-key granularity, not extra CDCL runs —
            // batching keeps the solve count (and the conflict budget's
            // meaning) identical to the unsliced pipeline.
            let union: Vec<Term> = missed.iter().flat_map(|(s, _)| s.iter().cloned()).collect();
            match self.solve_slice(&union, stats)? {
                SolveOutcome::Unsat => {
                    // Which member of a batched union caused the unsat is
                    // unattributed, so only a lone slice is remembered.
                    if let [(slice_terms, _)] = missed[..] {
                        self.remember(slice_terms, &SolveOutcome::Unsat, None, stats);
                    }
                    return Ok(SolveOutcome::Unsat);
                }
                SolveOutcome::Unknown(r) => {
                    if first_unknown.is_none() {
                        first_unknown = Some(r);
                    }
                }
                SolveOutcome::Sat(m) => {
                    // Remember each slice's restriction of the model under
                    // its own key, so later queries sharing only a path
                    // prefix still hit slice-by-slice.
                    for &(slice_terms, shared_key) in &missed {
                        let mut sub = Model::default();
                        for var in &slice_vars(slice_terms) {
                            if let Some(v) = m.values.get(&var.name) {
                                sub.values.insert(var.name.clone(), *v);
                            }
                        }
                        self.remember(slice_terms, &SolveOutcome::Sat(sub), shared_key, stats);
                    }
                    merged.values.extend(m.values);
                }
            }
        }
        if let Some(r) = first_unknown {
            return Ok(SolveOutcome::Unknown(r));
        }
        // Variables the optimizer rewrote away are unconstrained; bind them
        // to zero so the model still covers the original formula.
        for (name, value) in zero_model(&original).values {
            merged.values.entry(name).or_insert(value);
        }
        // Sanity: the merged model must satisfy the *original* constraints.
        debug_assert!(
            original
                .iter()
                .all(|c| eval(c, &merged.as_env()).is_ok_and(|v| v.truth())),
            "query optimizer produced an invalid model"
        );
        Ok(SolveOutcome::Sat(merged))
    }

    /// Blasts one slice into a fresh CNF and solves it, accumulating the
    /// call's SAT and root statistics into `stats`.
    fn solve_slice(
        &self,
        slice_terms: &[Term],
        stats: &mut SolveStats,
    ) -> Result<SolveOutcome, SolverError> {
        let Ok(mut cnf) = bitblast::Cnf::blast(slice_terms) else {
            return Ok(SolveOutcome::Unknown(UnknownReason::FloatUnsupported));
        };
        let result = cnf.solve(self.budget.max_conflicts);
        let cdcl = cnf.sat();
        stats.roots_blasted += cnf.roots_blasted();
        stats.sat_vars = cdcl.num_vars();
        stats.sat_clauses = cdcl.num_clauses();
        stats.conflicts += cdcl.conflicts();
        stats.propagations += cdcl.propagations();
        stats.blocker_skips += cdcl.blocker_skips();
        stats.lbd_evictions += cdcl.lbd_evictions();
        Ok(match result {
            sat::SatResult::Sat(m) => {
                let mut model = Model::default();
                for var in &slice_vars(slice_terms) {
                    let Some(v) = cnf.value(var, &m) else {
                        return Err(SolverError::UnblastedVariable(var.name.clone()));
                    };
                    model.values.insert(var.name.clone(), v);
                }
                // Sanity: the model must satisfy every slice constraint.
                debug_assert!(
                    slice_terms
                        .iter()
                        .all(|c| eval(c, &model.as_env()).is_ok_and(|v| v.truth())),
                    "bit-blasting produced an invalid model"
                );
                SolveOutcome::Sat(model)
            }
            sat::SatResult::Unsat => SolveOutcome::Unsat,
            sat::SatResult::Unknown => SolveOutcome::Unknown(UnknownReason::ConflictBudget),
        })
    }

    /// Answers one slice from the caches, cheapest first: exact outcome
    /// replay, model re-validation, then (given its `shared_key`) the
    /// shared store. Counts the layer that answered, or a miss.
    ///
    /// The store is untrusted input, so its model answers the slice only
    /// after concrete evaluation confirms it satisfies every constraint,
    /// exactly as for the interval witnesses; a rejected model is counted
    /// and the slice misses. A verified model is remembered, so later
    /// rounds hit without touching the store again.
    fn lookup(
        &self,
        slice_terms: &[Term],
        shared_key: Option<u64>,
        stats: &mut SolveStats,
    ) -> Option<SolveOutcome> {
        let vars = {
            let st = self.state.borrow();
            if let Some(out) = st.exact.get(&query_key(slice_terms)) {
                stats.exact_hits += 1;
                return Some(out.clone());
            }
            // Model reuse: a recent model that happens to satisfy the slice
            // answers it without touching the SAT solver (variables the
            // model does not bind default to zero and are validated like
            // the rest).
            let vars = slice_vars(slice_terms);
            for cached in st.models.iter().rev().take(MODEL_REUSE_TRIES) {
                let env = bind(&vars, |name| cached.get(name));
                if holds(slice_terms, &env) {
                    stats.model_hits += 1;
                    return Some(SolveOutcome::Sat(model_of(env)));
                }
            }
            vars
        };
        if let (Some(cache), Some(key)) = (&self.shared, shared_key) {
            if let Some(stored) = cache.lookup(key) {
                let env = bind(&vars, |name| {
                    stored
                        .iter()
                        .find(|(n, _)| n.as_ref() == name)
                        .map(|&(_, v)| v)
                });
                if holds(slice_terms, &env) {
                    stats.shared_cache_hits += 1;
                    let out = SolveOutcome::Sat(model_of(env));
                    self.remember(slice_terms, &out, None, stats);
                    return Some(out);
                }
                stats.shared_cache_rejected += 1;
            }
        }
        stats.misses += 1;
        None
    }

    /// Records a slice's `out`come in the exact layer, and a satisfying
    /// model in the model-reuse layer and (given its `shared_key`) the
    /// shared store. First writer wins in the store across threads; only
    /// a genuine insert counts as a store.
    fn remember(
        &self,
        slice_terms: &[Term],
        out: &SolveOutcome,
        shared_key: Option<u64>,
        stats: &mut SolveStats,
    ) {
        let mut st = self.state.borrow_mut();
        if let SolveOutcome::Sat(model) = out {
            if let (Some(cache), Some(key)) = (&self.shared, shared_key) {
                if cache.record(key, model) {
                    stats.shared_cache_stores += 1;
                }
            }
            if st.models.len() >= MODEL_CACHE_CAP {
                st.models.remove(0);
            }
            st.models.push(model.clone());
        }
        st.exact.insert(query_key(slice_terms), out.clone());
    }
}

/// Canonical cache key: hash-consing makes term identity structural within
/// the thread, so the terms sorted by id and deduped identify the
/// constraint set exactly.
fn query_key(terms: &[Term]) -> Vec<Term> {
    let mut key = terms.to_vec();
    key.sort_unstable_by_key(Term::id);
    key.dedup();
    key
}

/// The distinct variables of `terms`, sorted.
fn slice_vars(terms: &[Term]) -> Vec<Var> {
    let mut vars = Vec::new();
    for c in terms {
        c.collect_vars(&mut vars);
    }
    vars.sort();
    vars.dedup();
    vars
}

/// An environment binding each of `vars` to `value(name)`, or zero.
fn bind(vars: &[Var], value: impl Fn(&str) -> Option<u64>) -> HashMap<Arc<str>, u64> {
    vars.iter()
        .map(|var| (var.name.clone(), value(&var.name).unwrap_or(0)))
        .collect()
}

/// The model an environment assigns.
fn model_of(env: HashMap<Arc<str>, u64>) -> Model {
    Model {
        values: env.into_iter().collect(),
    }
}

/// Does every constraint of `terms` evaluate to true under `env`?
fn holds(terms: &[Term], env: &HashMap<Arc<str>, u64>) -> bool {
    terms
        .iter()
        .all(|c| matches!(eval(c, env), Ok(Value::Bool(true))))
}

/// Verdict of one interval-witness synthesis attempt on a slice.
enum WitnessVerdict {
    /// A guessed model confirmed by concrete evaluation.
    Sat(Model),
    /// The per-variable range meet is empty: the slice has no solutions.
    Unsat,
    /// The guess failed (or nothing guided it); fall through to CDCL.
    Miss,
}

/// Stage 3½: tries to answer a slice without the CDCL solver. Every
/// single-variable range guard ([`interval::guard_range`]) contributes a
/// range fact; the facts about each variable are met. An empty meet is a
/// sound unsat proof (each range over-approximates its guard's solutions).
/// Otherwise each variable is guessed at the low end of its meet (zero if
/// unguarded) and the guess is *verified by evaluating every constraint*
/// — the evaluator, not the interval domain, is the soundness authority,
/// so non-range constraints in the slice (`x != k`, arithmetic) simply
/// make or break the verification. Digit-guard slices from `atoi`-style
/// byte classification are the archetype: their meet's low end always
/// satisfies them, so they never reach the bit-blaster.
fn interval_witness(slice_terms: &[Term]) -> WitnessVerdict {
    let mut env: HashMap<Var, interval::Range> = HashMap::new();
    for c in slice_terms {
        if let Some((v, r)) = interval::guard_range(c) {
            match env.get_mut(&v) {
                Some(e) => {
                    e.lo = e.lo.max(r.lo);
                    e.hi = e.hi.min(r.hi);
                    if e.lo > e.hi {
                        return WitnessVerdict::Unsat;
                    }
                }
                None => {
                    env.insert(v, r);
                }
            }
        }
    }
    let guess: HashMap<Arc<str>, u64> = slice_vars(slice_terms)
        .into_iter()
        .map(|var| (var.name.clone(), env.get(&var).map_or(0, |r| r.lo)))
        .collect();
    if holds(slice_terms, &guess) {
        WitnessVerdict::Sat(model_of(guess))
    } else {
        WitnessVerdict::Miss
    }
}

/// A model binding every variable of `constraints` to zero.
fn zero_model(constraints: &[Term]) -> Model {
    model_of(bind(&slice_vars(constraints), |_| None))
}

/// Solves the degenerate "unconstrained reinterpreted float" pattern:
/// float constraints of the shape `FCmp(op, f_from_bits(var), const)` (or
/// mirrored) have their variable's bits chosen directly, then the whole
/// conjunction is validated by evaluation (remaining variables default to
/// zero). Returns `None` when the pattern does not apply or validation
/// fails.
fn unconstrained_float_shortcut(constraints: &[Term]) -> Option<Model> {
    use expr::{FCmpOp, Node};

    /// Matches `f_from_bits(var)` and returns the variable.
    fn as_reinterpreted_var(t: &Term) -> Option<Var> {
        match t.node() {
            Node::FFromBits(inner) => match inner.node() {
                Node::BvVar(v) => Some(v.clone()),
                _ => None,
            },
            _ => None,
        }
    }

    let mut proposal: HashMap<Arc<str>, u64> = HashMap::new();
    let mut matched_any = false;
    for c in constraints {
        let Node::FCmp { op, a, b } = c.node() else {
            continue;
        };
        let (var, constant, var_on_left) = match (as_reinterpreted_var(a), b.node()) {
            (Some(v), Node::FConst(k)) => (v, *k, true),
            _ => match (a.node(), as_reinterpreted_var(b)) {
                (Node::FConst(k), Some(v)) => (v, *k, false),
                _ => continue,
            },
        };
        let value = match (op, var_on_left) {
            (FCmpOp::Eq, _) => constant,
            (FCmpOp::Lt, true) | (FCmpOp::Le, true) => constant - constant.abs().max(1.0),
            (FCmpOp::Lt, false) | (FCmpOp::Le, false) => constant + constant.abs().max(1.0),
        };
        proposal.insert(var.name.clone(), value.to_bits());
        matched_any = true;
    }
    if !matched_any {
        return None;
    }
    // Bind the remaining variables to zero and validate everything.
    let env = bind(&slice_vars(constraints), |name| proposal.get(name).copied());
    holds(constraints, &env).then(|| model_of(env))
}

/// Bounded local search for formulas with floating-point terms: tries a
/// curated candidate set (and pairwise combinations for two variables),
/// validating each by concrete evaluation. Sound for SAT; incomplete.
fn float_local_search(constraints: &[Term]) -> SolveOutcome {
    let mut vars: Vec<Var> = Vec::new();
    for c in constraints {
        c.collect_vars(&mut vars);
    }
    let check = |env: &HashMap<Arc<str>, u64>| holds(constraints, env);
    let candidates: Vec<u64> = {
        let mut v: Vec<u64> = (0..=16).collect();
        v.extend([
            42,
            100,
            1000,
            1_000_000,
            u64::MAX,      // -1
            u64::MAX - 1,  // -2
            u64::MAX >> 1, // i64::MAX
            1 << 31,
            1 << 32,
            1 << 62,
        ]);
        v.extend((0..16).map(|i| 1u64 << i));
        // Printable ASCII, for byte-level inputs (argv digits/letters).
        v.extend(32..=127);
        v.sort_unstable();
        v.dedup();
        v
    };

    match vars.len() {
        0 => {
            let env = std::collections::HashMap::new();
            if check(&env) {
                SolveOutcome::Sat(Model::default())
            } else {
                SolveOutcome::Unsat // closed formula evaluated false
            }
        }
        1 => {
            for &cand in &candidates {
                let env: std::collections::HashMap<Arc<str>, u64> =
                    [(vars[0].name.clone(), cand)].into_iter().collect();
                if check(&env) {
                    let mut model = Model::default();
                    model.values.insert(vars[0].name.clone(), cand);
                    return SolveOutcome::Sat(model);
                }
            }
            SolveOutcome::Unknown(UnknownReason::FloatSearchFailed)
        }
        2 => {
            for &c0 in &candidates {
                for &c1 in &candidates {
                    let env: std::collections::HashMap<Arc<str>, u64> =
                        [(vars[0].name.clone(), c0), (vars[1].name.clone(), c1)]
                            .into_iter()
                            .collect();
                    if check(&env) {
                        let mut model = Model::default();
                        model.values.insert(vars[0].name.clone(), c0);
                        model.values.insert(vars[1].name.clone(), c1);
                        return SolveOutcome::Sat(model);
                    }
                }
            }
            SolveOutcome::Unknown(UnknownReason::FloatSearchFailed)
        }
        _ => {
            // Vary one variable at a time with the rest at zero.
            for (i, _) in vars.iter().enumerate() {
                for &cand in &candidates {
                    let mut env = std::collections::HashMap::new();
                    for (j, other) in vars.iter().enumerate() {
                        env.insert(other.name.clone(), if i == j { cand } else { 0 });
                    }
                    if check(&env) {
                        return SolveOutcome::Sat(model_of(env));
                    }
                }
            }
            SolveOutcome::Unknown(UnknownReason::FloatSearchFailed)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use expr::{BvOp, CmpOp, FCmpOp, FOp};

    #[test]
    fn presolve_catches_constant_and_interval_unsat() {
        let s = Solver::new();
        assert_eq!(s.check(&[Term::bool(false)]), SolveOutcome::Unsat);
        let x = Term::var("x", 8);
        let masked = Term::bin(BvOp::And, &x, &Term::bv(3, 8));
        let c = Term::cmp(CmpOp::Eq, &masked, &Term::bv(200, 8));
        assert_eq!(s.check(&[c]), SolveOutcome::Unsat);
        assert_eq!(s.stats().sat_vars, 0, "presolved without blasting");
    }

    #[test]
    fn digit_guard_slices_are_answered_by_interval_witness() {
        // The atoi byte-classification shape: each variable pinned to a
        // range by a pair of guards, plus a non-range "!= 0" constraint
        // the evaluator has to confirm. No CDCL run should be needed.
        let b0 = Term::var("b0", 8);
        let b1 = Term::var("b1", 8);
        let cs = vec![
            Term::not(&Term::cmp(CmpOp::Ult, &b0, &Term::bv(0x30, 8))),
            Term::cmp(CmpOp::Ult, &b0, &Term::bv(0x3A, 8)),
            Term::not(&Term::cmp(CmpOp::Eq, &b0, &Term::bv(0, 8))),
            Term::not(&Term::cmp(CmpOp::Ult, &b1, &Term::bv(0x30, 8))),
        ];
        let s = Solver::new();
        let SolveOutcome::Sat(m) = s.check(&cs) else {
            panic!("expected sat");
        };
        let stats = s.stats();
        assert_eq!(stats.witness_hits, 2, "both slices witnessed");
        assert_eq!(stats.sat_vars, 0, "no bit-blasting happened");
        assert_eq!(m.get("b0"), Some(0x30));
        assert_eq!(m.get("b1"), Some(0x30));

        // Contradictory guards on one variable: the empty range meet is a
        // word-level unsat proof, again without blasting.
        let s2 = Solver::new();
        let cs2 = vec![
            Term::cmp(CmpOp::Ult, &b0, &Term::bv(0x30, 8)),
            Term::not(&Term::cmp(CmpOp::Ult, &b0, &Term::bv(0x3A, 8))),
        ];
        assert_eq!(s2.check(&cs2), SolveOutcome::Unsat);
        assert_eq!(s2.stats().sat_vars, 0, "no bit-blasting happened");
    }

    #[test]
    fn trivially_true_is_sat_with_empty_model() {
        let s = Solver::new();
        assert!(matches!(s.check(&[Term::bool(true)]), SolveOutcome::Sat(_)));
        assert!(matches!(s.check(&[]), SolveOutcome::Sat(_)));
    }

    #[test]
    fn end_to_end_bitvector_solving() {
        // Classic crackme: (x ^ 0x5A) + 1 == 0x70  =>  x = 0x35
        let x = Term::var("x", 8);
        let c = Term::cmp(
            CmpOp::Eq,
            &Term::bin(
                BvOp::Add,
                &Term::bin(BvOp::Xor, &x, &Term::bv(0x5A, 8)),
                &Term::bv(1, 8),
            ),
            &Term::bv(0x70, 8),
        );
        let SolveOutcome::Sat(m) = Solver::new().check(&[c]) else {
            panic!("expected sat");
        };
        assert_eq!(m.get("x"), Some(0x35));
    }

    #[test]
    fn formula_node_budget_reports_unknown() {
        let tiny = Solver::new().with_budget(SolverBudget {
            max_conflicts: 100,
            max_formula_nodes: 3,
        });
        let x = Term::var("x", 32);
        let c = Term::cmp(
            CmpOp::Eq,
            &Term::bin(BvOp::Mul, &x, &Term::var("y", 32)),
            &Term::bv(77, 32),
        );
        assert_eq!(
            tiny.check(&[c]),
            SolveOutcome::Unknown(UnknownReason::FormulaTooLarge)
        );
    }

    #[test]
    fn early_returns_report_their_own_stats_after_a_cdcl_query() {
        let s = Solver::new().with_budget(SolverBudget {
            max_conflicts: 10_000,
            max_formula_nodes: 6,
        });
        let x = Term::var("x", 32);
        let product = Term::bin(BvOp::Mul, &x, &Term::var("y", 32));
        let cdcl = Term::cmp(CmpOp::Eq, &product, &Term::bv(77, 32));
        assert!(matches!(s.check(&[cdcl]), SolveOutcome::Sat(_)));
        assert!(s.stats().sat_vars > 0, "the first query reached CDCL");

        // Constant false: decided before any stage runs.
        assert_eq!(s.check(&[Term::bool(false)]), SolveOutcome::Unsat);
        assert_eq!(s.stats(), SolveStats::default());

        // Over the node budget: only the node count is set.
        let sum = Term::bin(BvOp::Add, &product, &Term::var("z", 32));
        let big = Term::cmp(
            CmpOp::Eq,
            &Term::bin(BvOp::Xor, &sum, &Term::var("w", 32)),
            &Term::bv(77, 32),
        );
        assert_eq!(
            s.check(&[big]),
            SolveOutcome::Unknown(UnknownReason::FormulaTooLarge)
        );
        let stats = s.stats();
        assert!(stats.formula_nodes > 6);
        assert_eq!(
            stats,
            SolveStats {
                formula_nodes: stats.formula_nodes,
                ..SolveStats::default()
            }
        );

        // Every constraint a tautology: pruned, never sliced or blasted.
        let masked = Term::bin(BvOp::And, &x, &Term::bv(3, 32));
        let taut = Term::cmp(CmpOp::Ult, &masked, &Term::bv(4, 32));
        assert!(matches!(s.check(&[taut]), SolveOutcome::Sat(_)));
        let stats = s.stats();
        assert_eq!(stats.terms_pruned, 1);
        assert_eq!(stats.slices, 0);
        assert_eq!((stats.sat_vars, stats.sat_clauses), (0, 0));
        assert_eq!((stats.conflicts, stats.propagations), (0, 0));
        assert_eq!(stats.roots_blasted, 0);
    }

    #[test]
    fn float_reject_mode_reports_unsupported() {
        let x = Term::var("x", 64);
        let c = Term::fcmp(FCmpOp::Lt, &Term::f64(0.0), &Term::cvt_si_to_f(&x));
        assert_eq!(
            Solver::new().check(&[c]),
            SolveOutcome::Unknown(UnknownReason::FloatUnsupported)
        );
    }

    #[test]
    fn float_local_search_solves_the_papers_precision_bomb() {
        // 1024 + x == 1024 && x > 0 where x = n / 1e18 (n integer input).
        let n = Term::var("n", 64);
        let x = Term::fbin(FOp::Div, &Term::cvt_si_to_f(&n), &Term::f64(1e18));
        let sum = Term::fbin(FOp::Add, &Term::f64(1024.0), &x);
        let c1 = Term::fcmp(FCmpOp::Eq, &sum, &Term::f64(1024.0));
        let c2 = Term::fcmp(FCmpOp::Lt, &Term::f64(0.0), &x);
        let outcome = Solver::new()
            .with_float_mode(FloatMode::LocalSearch)
            .check(&[c1, c2]);
        let SolveOutcome::Sat(m) = outcome else {
            panic!("local search should find the paper's solution, got {outcome:?}");
        };
        let nv = m.get("n").expect("n bound");
        let xv = (nv as i64 as f64) / 1e18;
        assert!(1024.0 + xv == 1024.0 && xv > 0.0, "n = {nv}");
    }

    #[test]
    fn float_search_failure_is_unknown_not_unsat() {
        // No integer converts to 0.5.
        let n = Term::var("n", 64);
        let c = Term::fcmp(FCmpOp::Eq, &Term::cvt_si_to_f(&n), &Term::f64(0.5));
        assert_eq!(
            Solver::new()
                .with_float_mode(FloatMode::LocalSearch)
                .check(&[c]),
            SolveOutcome::Unknown(UnknownReason::FloatSearchFailed)
        );
    }

    #[test]
    fn conflict_budget_reports_unknown_on_hard_instances() {
        // Inverting a wide multiplication is hard for tiny budgets.
        let x = Term::var("x", 64);
        let y = Term::var("y", 64);
        let c = Term::and(
            &Term::cmp(
                CmpOp::Eq,
                &Term::bin(BvOp::Mul, &x, &y),
                &Term::bv(0xDEAD_BEEF_1234_5677, 64),
            ),
            &Term::and(
                &Term::cmp(CmpOp::Ult, &Term::bv(1, 64), &x),
                &Term::cmp(CmpOp::Ult, &Term::bv(1, 64), &y),
            ),
        );
        let s = Solver::new().with_budget(SolverBudget {
            max_conflicts: 50,
            max_formula_nodes: 2_000_000,
        });
        match s.check(&[c]) {
            SolveOutcome::Unknown(UnknownReason::ConflictBudget) | SolveOutcome::Sat(_) => {}
            other => panic!("expected budget exhaustion or lucky sat, got {other:?}"),
        }
    }

    #[test]
    fn models_cover_all_variables_in_formula() {
        let x = Term::var("x", 8);
        let y = Term::var("y", 8);
        let c = Term::cmp(CmpOp::Eq, &Term::bin(BvOp::Add, &x, &y), &Term::bv(10, 8));
        let SolveOutcome::Sat(m) = Solver::new().check(&[c]) else {
            panic!("sat expected");
        };
        let (xv, yv) = (m.get("x").unwrap(), m.get("y").unwrap());
        assert_eq!((xv + yv) & 0xff, 10);
    }

    /// A constraint the interval-witness stage cannot answer, so a cold
    /// solver must run CDCL on it: (x ^ 0x5A) == 0x6F  =>  x = 0x35.
    fn xor_crackme() -> Term {
        let x = Term::var("x", 8);
        Term::cmp(
            CmpOp::Eq,
            &Term::bin(BvOp::Xor, &x, &Term::bv(0x5A, 8)),
            &Term::bv(0x6F, 8),
        )
    }

    /// Optimizer off so the queried slice is the original term and the
    /// witness stage cannot pre-empt the CDCL run.
    fn bare_solver() -> Solver {
        Solver::new().with_simplify(false).with_slicing(false)
    }

    #[test]
    fn shared_cache_answers_a_fresh_solver_without_blasting() {
        let shared = Arc::new(ShardCache::default());
        let c = xor_crackme();

        // Warm: the first solver finds the store empty, solves the query
        // with CDCL and records the slice model.
        let warm = bare_solver().with_shared_cache(Arc::clone(&shared));
        assert!(matches!(
            warm.check(std::slice::from_ref(&c)),
            SolveOutcome::Sat(_)
        ));
        assert!(warm.stats().sat_vars > 0, "cold query must blast");
        assert_eq!(warm.stats().shared_cache_stores, 1);
        assert_eq!(warm.stats().shared_cache_hits, 0, "nothing to read yet");

        // A fresh solver answers the same slice from the shared store —
        // verified, and without allocating a SAT variable.
        let cold = bare_solver().with_shared_cache(Arc::clone(&shared));
        let SolveOutcome::Sat(m) = cold.check(&[c]) else {
            panic!("expected sat");
        };
        assert_eq!(m.get("x"), Some(0x35));
        assert_eq!(cold.stats().shared_cache_hits, 1);
        assert_eq!(cold.stats().shared_cache_stores, 0, "hit is not re-stored");
        assert_eq!(cold.stats().sat_vars, 0, "answered without blasting");
        assert_eq!(cold.stats().misses, 0, "a store hit is not a miss");
        assert_eq!(shared.entries(), 1);
    }

    #[test]
    fn a_lone_cdcl_unsat_slice_is_replayed_exactly() {
        // (x ^ 0x5A) == 0x6F pins x = 0x35, so x == 0x36 contradicts it;
        // with the optimizer off only CDCL can tell.
        let x = Term::var("x", 8);
        let query = [xor_crackme(), Term::cmp(CmpOp::Eq, &x, &Term::bv(0x36, 8))];
        let s = bare_solver();
        assert_eq!(s.check(&query), SolveOutcome::Unsat);
        let first = s.stats();
        assert_eq!(first.misses, 1);
        assert_eq!(first.roots_blasted, 2, "both constraints blasted");
        assert!(first.sat_vars > 0, "decided by CDCL");

        assert_eq!(s.check(&query), SolveOutcome::Unsat);
        let again = s.stats();
        assert_eq!(again.exact_hits, 1, "{again:?}");
        assert_eq!(again.misses, 0);
        assert_eq!(again.conflicts, 0);
        assert_eq!(again.propagations, 0);
        assert_eq!(again.roots_blasted, 0, "no CNF built");
    }

    #[test]
    fn each_cdcl_call_blasts_a_fresh_cnf() {
        // Query B, over other variables than query A, must cost the same
        // on a solver that already ran A as on a fresh one: no clause,
        // variable or learnt fact of A's CNF is carried into B's.
        let (x, y) = (Term::var("x", 16), Term::var("y", 16));
        let a = Term::cmp(
            CmpOp::Eq,
            &Term::bin(BvOp::Mul, &x, &Term::bv(3, 16)),
            &Term::bv(0x1233, 16),
        );
        let b = Term::cmp(
            CmpOp::Eq,
            &Term::bin(
                BvOp::Xor,
                &Term::bin(BvOp::Add, &y, &y),
                &Term::bv(0x5A5A, 16),
            ),
            &Term::bv(0x1234, 16),
        );
        let used = bare_solver();
        assert!(matches!(used.check(&[a]), SolveOutcome::Sat(_)));
        assert!(used.stats().sat_vars > 0, "A reached CDCL");
        let after_a = used.check(std::slice::from_ref(&b));
        let fresh = bare_solver();
        let alone = fresh.check(&[b]);
        assert!(matches!(alone, SolveOutcome::Sat(_)));
        assert_eq!(after_a, alone, "same model");
        let (s1, s2) = (used.stats(), fresh.stats());
        assert_eq!(s1.misses, 1, "B reached CDCL: {s1:?}");
        assert_eq!(s1.sat_vars, s2.sat_vars);
        assert_eq!(s1.sat_clauses, s2.sat_clauses);
        assert_eq!(s1.conflicts, s2.conflicts);
        assert_eq!(s1.propagations, s2.propagations);
    }

    #[test]
    fn poisoned_shared_models_are_rejected_by_verification() {
        let shared = Arc::new(ShardCache::poisoned());
        let c = xor_crackme();
        let warm = bare_solver().with_shared_cache(Arc::clone(&shared));
        assert!(matches!(
            warm.check(std::slice::from_ref(&c)),
            SolveOutcome::Sat(_)
        ));
        assert_eq!(warm.stats().shared_cache_stores, 1, "poisoned entry stored");

        let cold = bare_solver().with_shared_cache(Arc::clone(&shared));
        let SolveOutcome::Sat(m) = cold.check(&[c]) else {
            panic!("expected sat");
        };
        assert_eq!(m.get("x"), Some(0x35), "solved correctly despite poison");
        assert_eq!(cold.stats().shared_cache_hits, 0);
        assert!(
            cold.stats().shared_cache_rejected >= 1,
            "corrupt model must be rejected by concrete evaluation"
        );
        assert_eq!(cold.stats().misses, 1, "a rejected model is a miss");
    }
}
