//! The study runner: bombs × profiles → the paper's Table II.
//!
//! Every (bomb, profile) cell runs inside a crash-containment boundary:
//! the cell is armed with the study's [`bomblab_fault::FaultPlan`] (if
//! any) and a wall-clock deadline, executed under `catch_unwind`, and any
//! panic — injected, organic, or deadline — lands as a well-formed
//! `Abnormal` cell with a [`CrashDiag`] instead of killing the study.

use crate::checkpoint::{self, CellRecord, Journal};
use crate::engine::GroundTruth;
use crate::engine::{
    ground_truth_with, Attempt, Counters, CrashDiag, Engine, Evidence, StaticHints, Subject,
};
use crate::outcome::Outcome;
use crate::profile::ToolProfile;
use crate::world::WorldInput;
use bomblab_fault as fault;
use bomblab_obs as obs;
use bomblab_obs::json::{str_array, Obj};
use bomblab_obs::trace::{render_cell, SCHEMA_VERSION};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

/// `eprintln!` for progress lines, in one write: standard error is
/// unbuffered, so `eprintln!` makes a system call per formatted fragment.
macro_rules! progress {
    ($($arg:tt)*) => {{
        use std::io::Write as _;
        let line = format!("{}\n", format_args!($($arg)*));
        let _ = std::io::stderr().write_all(line.as_bytes());
    }};
}

/// One dataset entry: a subject plus its known trigger and the outcome row
/// the paper reports (the oracle used for agreement scoring).
#[derive(Debug, Clone)]
pub struct StudyCase {
    /// The program under test.
    pub subject: Subject,
    /// Challenge category (Table II's left column).
    pub category: String,
    /// One-line description of the challenge instance.
    pub description: String,
    /// An input known to detonate the bomb (ground truth).
    pub trigger: WorldInput,
    /// The paper's Table-II row for [BAP, Triton, Angr, Angr-NoLib], if
    /// this case corresponds to a paper row.
    pub paper_expected: Option<[Outcome; 4]>,
}

/// Result of one (case, profile) cell.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Tool name.
    pub profile: String,
    /// What our engine produced.
    pub outcome: Outcome,
    /// The paper's label for this cell, when known.
    pub expected: Option<Outcome>,
    /// Wall-clock nanoseconds the cell's exploration took.
    pub wall_ns: u64,
    /// The full attempt record.
    pub attempt: Attempt,
    /// Per-cell observation profile (spans, events, counters), collected
    /// when [`StudyOptions::observe`] is set. Never feeds the Table-II
    /// report, so its timing data cannot perturb the snapshot.
    pub obs: Option<obs::CellProfile>,
}

/// Result of one dataset row.
#[derive(Debug, Clone)]
pub struct RowResult {
    /// Case name.
    pub name: String,
    /// Challenge category.
    pub category: String,
    /// Per-profile cells, in profile order.
    pub cells: Vec<CellResult>,
    /// Ground truth derived from the trigger.
    pub ground: GroundTruth,
    /// Per-profile outcome predicted by static analysis alone (no
    /// execution), in profile order.
    pub static_predictions: Vec<Outcome>,
    /// Diagnostic when this row's static analysis crashed and was
    /// contained (the dynamic cells still ran, with default hints).
    pub analysis_crash: Option<CrashDiag>,
    /// Observation profile of the phase-1 unit (ground truth + static
    /// analysis), collected when [`StudyOptions::observe`] is set.
    pub analysis_obs: Option<obs::CellProfile>,
}

/// How to run a study: worker count, chaos plan, containment deadline.
#[derive(Debug, Clone)]
pub struct StudyOptions {
    /// Worker threads for the two fan-out phases.
    pub jobs: usize,
    /// Fault plan armed around every cell (and every per-case static
    /// analysis). `None` leaves the fault layer fully inert.
    pub fault_plan: Option<fault::FaultPlan>,
    /// Per-cell wall-clock deadline; a cell past it is recorded as
    /// `Abnormal` ("cell wall-clock deadline exceeded") instead of
    /// hanging the study. `None` disables the watchdog.
    pub cell_deadline: Option<Duration>,
    /// Collect per-cell observation profiles (spans, events, counters)
    /// for the JSONL trace sink and the profile-summary sidecar. Off by
    /// default, leaving every instrumentation site a single relaxed
    /// atomic load.
    pub observe: bool,
    /// Extra attempts granted to a cell whose failure is classified as
    /// transient (injected fault, deadline trip). Retries run *unfaulted*
    /// with an escalating deadline (1x/2x/4x) after a deterministic
    /// backoff; two identical organic panics quarantine the cell instead.
    /// `0` (the default) keeps the historical single-attempt semantics —
    /// chaos sweeps rely on that to observe raw containment.
    pub retries: u32,
    /// Directory for the checkpoint journal. When set, every completed
    /// cell is appended to `journal.jsonl` (atomic rewrite + rename) so a
    /// killed study can resume.
    pub checkpoint: Option<PathBuf>,
    /// Replay cells recorded in the checkpoint journal instead of
    /// re-executing them. Only meaningful with [`StudyOptions::checkpoint`];
    /// a missing, torn, or configuration-mismatched journal replays
    /// nothing and the study simply runs in full.
    pub resume: bool,
    /// Arm the study-wide shared model store: one sharded, in-process
    /// store that every `incremental_solver` profile's solver reads (with
    /// concrete-eval re-verification) and records into, so slices repeated
    /// across cells are solved once per *study* instead of once per cell.
    /// Stateless paper-tool profiles never attach it, so Table II stays
    /// byte-identical with this on or off. On by default.
    pub shared_cache: bool,
    /// Dispatch the VM runs of ground truth and the cells through the
    /// predecoded block cache; off is the decode-per-step A/B leg
    /// (`bomblab study --no-bbcache`). On by default.
    pub bbcache: bool,
}

impl Default for StudyOptions {
    fn default() -> StudyOptions {
        StudyOptions {
            jobs: 1,
            fault_plan: None,
            // Generous: real cells finish in milliseconds-to-seconds, so
            // the default deadline only ever fires on a genuine hang (and
            // its report text carries no timing, keeping reports
            // byte-identical across schedulers).
            cell_deadline: Some(Duration::from_secs(300)),
            observe: false,
            retries: 0,
            checkpoint: None,
            resume: false,
            shared_cache: true,
            bbcache: true,
        }
    }
}

/// Study-level durability counters. Never rendered into the Table-II
/// report (replay and checkpoint health must not perturb the snapshot);
/// they flow into the trace summary and the study bench instead.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StudyStats {
    /// Cells replayed from the checkpoint journal instead of executed.
    pub cells_replayed: u64,
    /// Journal appends that failed (I/O error or injected fault). Each is
    /// self-healing — the record lives in memory and the next successful
    /// append re-publishes it — so the count is diagnostic, not fatal.
    pub checkpoint_io_errors: u64,
    /// Cells whose scheduling cost came from a checkpoint journal's
    /// historical wall clock (cost-aware LPT ordering).
    pub sched_costed: u64,
    /// Cells scheduled on the static-analysis fallback estimate (no
    /// usable history).
    pub sched_estimated: u64,
}

/// The full study outcome.
#[derive(Debug, Clone)]
pub struct StudyReport {
    /// Profile names, in column order.
    pub profiles: Vec<String>,
    /// Per-bomb rows.
    pub rows: Vec<RowResult>,
    /// Durability counters (checkpoint replay/append health).
    pub stats: StudyStats,
}

impl StudyReport {
    /// Number of solved cases per profile column.
    pub fn solved_counts(&self) -> Vec<usize> {
        (0..self.profiles.len())
            .map(|col| {
                self.rows
                    .iter()
                    .filter(|r| r.cells[col].outcome == Outcome::Solved)
                    .count()
            })
            .collect()
    }

    /// (matching cells, total comparable cells) against the paper oracle.
    pub fn agreement(&self) -> (usize, usize) {
        let mut hit = 0;
        let mut total = 0;
        for row in &self.rows {
            for cell in &row.cells {
                if let Some(expected) = cell.expected {
                    total += 1;
                    if expected == cell.outcome {
                        hit += 1;
                    }
                }
            }
        }
        (hit, total)
    }

    /// (matching cells, total cells) of static predictions against the
    /// dynamically observed outcomes.
    pub fn static_agreement(&self) -> (usize, usize) {
        let mut hit = 0;
        let mut total = 0;
        for row in &self.rows {
            for (cell, predicted) in row.cells.iter().zip(&row.static_predictions) {
                total += 1;
                if *predicted == cell.outcome {
                    hit += 1;
                }
            }
        }
        (hit, total)
    }

    /// Renders the Table-II-style result matrix as Markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "| Category | Case |");
        for p in &self.profiles {
            let _ = write!(out, " {p} |");
        }
        let _ = writeln!(out);
        let _ = write!(out, "|---|---|");
        for _ in &self.profiles {
            let _ = write!(out, "---|");
        }
        let _ = writeln!(out);
        for row in &self.rows {
            let _ = write!(out, "| {} | {} |", row.category, row.name);
            for cell in &row.cells {
                match cell.expected {
                    Some(e) if e != cell.outcome => {
                        let _ = write!(out, " **{}** (paper: {e}) |", cell.outcome);
                    }
                    _ => {
                        let _ = write!(out, " {} |", cell.outcome);
                    }
                }
            }
            let _ = writeln!(out);
        }
        let _ = write!(out, "| | **solved** |");
        for c in self.solved_counts() {
            let _ = write!(out, " **{c}** |");
        }
        let _ = writeln!(out);
        let (hit, total) = self.agreement();
        if total > 0 {
            let _ = writeln!(
                out,
                "\nAgreement with the paper's Table II: {hit}/{total} cells."
            );
        }
        let (shit, stotal) = self.static_agreement();
        if stotal > 0 {
            let _ = writeln!(out, "\n## Static prediction vs dynamic outcome\n");
            let _ = write!(out, "| Case |");
            for p in &self.profiles {
                let _ = write!(out, " {p} |");
            }
            let _ = writeln!(out);
            let _ = write!(out, "|---|");
            for _ in &self.profiles {
                let _ = write!(out, "---|");
            }
            let _ = writeln!(out);
            for row in &self.rows {
                let _ = write!(out, "| {} |", row.name);
                for (cell, predicted) in row.cells.iter().zip(&row.static_predictions) {
                    if *predicted == cell.outcome {
                        let _ = write!(out, " {predicted} |");
                    } else {
                        let _ = write!(out, " **{predicted}** (ran: {}) |", cell.outcome);
                    }
                }
                let _ = writeln!(out);
            }
            let _ = writeln!(
                out,
                "\nStatic/dynamic agreement: {shit}/{stotal} cells \
                 (predictions made without executing the bombs)."
            );
        }
        let crashes = self.contained_crashes();
        if !crashes.is_empty() {
            let _ = writeln!(out, "\n## Contained crashes\n");
            for line in crashes {
                let _ = writeln!(out, "- {line}");
            }
        }
        out
    }

    /// Deterministic one-line descriptions of every contained failure:
    /// static-analysis crashes per row, then per-cell crash diagnostics
    /// and injected-fault logs, in row/profile order. Empty on a healthy
    /// run, so the Table-II snapshot is untouched.
    pub fn contained_crashes(&self) -> Vec<String> {
        let mut lines = Vec::new();
        for row in &self.rows {
            if let Some(diag) = &row.analysis_crash {
                lines.push(format!(
                    "{} static analysis [{}]: {}",
                    row.name, diag.stage, diag.message
                ));
            }
            for cell in &row.cells {
                let ev = &cell.attempt.evidence;
                if ev.crash.is_none() && ev.fault_log.is_empty() {
                    continue;
                }
                let mut line = format!("{} x {}", row.name, cell.profile);
                match &ev.crash {
                    Some(diag) => {
                        let _ = write!(line, " [{}]: {}", diag.stage, diag.message);
                    }
                    None => {
                        let _ = write!(line, ": survived injection as {}", cell.outcome);
                    }
                }
                if !ev.fault_log.is_empty() {
                    let _ = write!(line, " (injected: {})", ev.fault_log.join(", "));
                }
                lines.push(line);
            }
        }
        lines
    }

    /// Aggregates every collected per-cell observation profile (phase-1
    /// units and matrix cells) into one study-wide registry. Empty when
    /// the study ran without [`StudyOptions::observe`].
    pub fn metrics(&self) -> obs::MetricsRegistry {
        let mut registry = obs::MetricsRegistry::new();
        for row in &self.rows {
            if let Some(p) = &row.analysis_obs {
                registry.absorb(p);
            }
            for cell in &row.cells {
                if let Some(p) = &cell.obs {
                    registry.absorb(p);
                }
            }
        }
        registry
    }

    /// Cells sorted slowest-first by wall clock, ties broken by dataset
    /// order so the ranking is deterministic.
    fn ranked_cells(&self, key: impl Fn(&CellResult) -> u64) -> Vec<(&RowResult, &CellResult)> {
        let mut ranked: Vec<(usize, &RowResult, &CellResult)> = Vec::new();
        for row in &self.rows {
            for cell in &row.cells {
                ranked.push((ranked.len(), row, cell));
            }
        }
        ranked.sort_by(|a, b| key(b.2).cmp(&key(a.2)).then(a.0.cmp(&b.0)));
        ranked.into_iter().map(|(_, r, c)| (r, c)).collect()
    }

    /// Renders the whole study as JSONL trace lines, in deterministic
    /// dataset order: a `study_start` header, then per row the phase-1
    /// profile, per-cell span/event/counter/hist streams and a `cell`
    /// outcome line, then study-wide `stage_total`, ranking, and
    /// `summary` lines. Every line validates against
    /// [`bomblab_obs::trace::validate_line`].
    pub fn trace_lines(&self) -> Vec<String> {
        let mut out = Vec::new();
        out.push(
            Obj::new("study_start")
                .u64("schema", SCHEMA_VERSION)
                .u64("bombs", self.rows.len() as u64)
                .raw("profiles", &str_array(&self.profiles))
                .finish(),
        );
        let (mut spans, mut events, mut counters, mut cell_count) = (0u64, 0u64, 0u64, 0u64);
        let mut tally = |p: &obs::CellProfile| {
            spans += p.spans.len() as u64;
            events += p.events.len() as u64;
            counters += p.counters.len() as u64;
        };
        for row in &self.rows {
            if let Some(p) = &row.analysis_obs {
                tally(p);
                render_cell(p, &mut out);
            }
            for cell in &row.cells {
                if let Some(p) = &cell.obs {
                    tally(p);
                    render_cell(p, &mut out);
                }
                cell_count += 1;
                out.push(cell.attempt.cell_line(
                    &row.name,
                    &cell.profile,
                    cell.wall_ns,
                    cell.expected,
                ));
            }
        }
        for (stage, &(hits, ns)) in &self.metrics().stages {
            out.push(
                Obj::new("stage_total")
                    .str("stage", stage)
                    .u64("spans", hits)
                    .u64("ns", ns)
                    .finish(),
            );
        }
        for (rank, (row, cell)) in self
            .ranked_cells(|c| c.wall_ns)
            .into_iter()
            .take(RANKING_DEPTH)
            .enumerate()
        {
            out.push(
                Obj::new("slow_cell")
                    .u64("rank", rank as u64 + 1)
                    .str("bomb", &row.name)
                    .str("profile", &cell.profile)
                    .u64("wall_ns", cell.wall_ns)
                    .finish(),
            );
        }
        for (rank, (row, cell)) in self
            .ranked_cells(|c| u64::from(c.attempt.evidence.queries))
            .into_iter()
            .take(RANKING_DEPTH)
            .enumerate()
        {
            out.push(
                Obj::new("hot_cell")
                    .u64("rank", rank as u64 + 1)
                    .str("bomb", &row.name)
                    .str("profile", &cell.profile)
                    .u64("queries", u64::from(cell.attempt.evidence.queries))
                    .u64("solver_ns", cell.attempt.evidence.solver_ns)
                    .finish(),
            );
        }
        let mut summary = Obj::new("summary")
            .u64("cells", cell_count)
            .u64("spans", spans)
            .u64("events", events)
            .u64("counters", counters);
        if self.stats.cells_replayed > 0 {
            summary = summary.u64("cells_replayed", self.stats.cells_replayed);
        }
        if self.stats.checkpoint_io_errors > 0 {
            summary = summary.u64("checkpoint_io_errors", self.stats.checkpoint_io_errors);
        }
        if self.stats.sched_costed > 0 {
            summary = summary.u64("sched_costed", self.stats.sched_costed);
        }
        if self.stats.sched_estimated > 0 {
            summary = summary.u64("sched_estimated", self.stats.sched_estimated);
        }
        out.push(summary.finish());
        out
    }

    /// [`Evidence::counters`] summed entry by entry over every cell.
    #[must_use]
    pub fn counter_totals(&self) -> Counters {
        let mut totals = Evidence::default().counters();
        for cell in self.rows.iter().flat_map(|row| &row.cells) {
            let counters = cell.attempt.evidence.counters();
            for (total, (_, value)) in totals.iter_mut().zip(counters) {
                total.1 += value;
            }
        }
        totals
    }

    /// Renders the profile-summary sidecar: slowest cells, hottest
    /// solver cells, the per-stage aggregate breakdown, and the study-wide
    /// totals of every [`Evidence::counters`] entry. Emitted
    /// *next to* the Table-II report, never inside it — its timing data
    /// varies run to run while the report stays byte-identical.
    pub fn profile_summary(&self) -> String {
        let metrics = self.metrics();
        let mut out = String::from("# Study profile\n\n");
        let _ = writeln!(
            out,
            "{} observed windows, {} cells in the matrix.\n",
            metrics.cells,
            self.rows.len() * self.profiles.len()
        );

        let _ = writeln!(out, "## Slowest cells\n");
        let _ = writeln!(out, "| # | Case | Profile | Wall | Rounds | Queries |");
        let _ = writeln!(out, "|---|---|---|---|---|---|");
        for (rank, (row, cell)) in self
            .ranked_cells(|c| c.wall_ns)
            .into_iter()
            .take(RANKING_DEPTH)
            .enumerate()
        {
            let ev = &cell.attempt.evidence;
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} | {} | {} |",
                rank + 1,
                row.name,
                cell.profile,
                format_ns(cell.wall_ns),
                ev.rounds,
                ev.queries
            );
        }

        let _ = writeln!(out, "\n## Hottest solver cells\n");
        let _ = writeln!(
            out,
            "| # | Case | Profile | Queries | Solver time | Cache hits |"
        );
        let _ = writeln!(out, "|---|---|---|---|---|---|");
        for (rank, (row, cell)) in self
            .ranked_cells(|c| u64::from(c.attempt.evidence.queries))
            .into_iter()
            .take(RANKING_DEPTH)
            .enumerate()
        {
            let ev = &cell.attempt.evidence;
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} | {} | {} |",
                rank + 1,
                row.name,
                cell.profile,
                ev.queries,
                format_ns(ev.solver_ns),
                ev.cache_hits
            );
        }

        if !metrics.stages.is_empty() {
            let total_ns: u64 = metrics.stages.values().map(|&(_, ns)| ns).sum();
            let _ = writeln!(out, "\n## Per-stage breakdown\n");
            let _ = writeln!(out, "| Stage | Spans | Total | Share |");
            let _ = writeln!(out, "|---|---|---|---|");
            for (stage, &(hits, ns)) in &metrics.stages {
                let share = (ns * 1000).checked_div(total_ns).unwrap_or(0);
                let _ = writeln!(
                    out,
                    "| {stage} | {hits} | {} | {}.{}% |",
                    format_ns(ns),
                    share / 10,
                    share % 10
                );
            }
        }

        if !metrics.counters.is_empty() {
            let _ = writeln!(out, "\n## Aggregated counters\n");
            let _ = writeln!(out, "| Counter | Total |");
            let _ = writeln!(out, "|---|---|");
            for (name, value) in &metrics.counters {
                let _ = writeln!(out, "| {name} | {value} |");
            }
        }

        let _ = writeln!(out, "\n## Cell counters\n");
        let _ = writeln!(out, "| Counter | Total |");
        let _ = writeln!(out, "|---|---|");
        for (name, total) in self.counter_totals() {
            let _ = writeln!(out, "| {name} | {total} |");
        }

        if self.stats.sched_costed + self.stats.sched_estimated > 0 {
            let _ = writeln!(out, "\n## Scheduling\n");
            let _ = writeln!(
                out,
                "Longest-processing-time-first over {} cells: {} costed from journal \
                 history, {} on the static estimate.",
                self.stats.sched_costed + self.stats.sched_estimated,
                self.stats.sched_costed,
                self.stats.sched_estimated
            );
        }

        if let Some(hist) = metrics.hists.get("solver.query_ns") {
            let _ = writeln!(out, "\n## Solver query latency\n");
            let _ = writeln!(
                out,
                "{} queries, mean {}, min {}, max {}.",
                hist.count,
                format_ns(hist.mean()),
                format_ns(hist.min),
                format_ns(hist.max)
            );
        }
        out
    }
}

/// How many cells the slow/hot rankings keep.
const RANKING_DEPTH: usize = 5;

/// Human-readable duration for the profile sidecar.
fn format_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!(
            "{}.{:02} s",
            ns / 1_000_000_000,
            ns % 1_000_000_000 / 10_000_000
        )
    } else if ns >= 1_000_000 {
        format!("{}.{:02} ms", ns / 1_000_000, ns % 1_000_000 / 10_000)
    } else if ns >= 1_000 {
        format!("{}.{:02} us", ns / 1_000, ns % 1_000 / 10)
    } else {
        format!("{ns} ns")
    }
}

/// Maps `f` over `0..n`, fanning the indices across `jobs` scoped worker
/// threads. Equivalent to [`parallel_map_ordered`] with the identity
/// claim order.
fn parallel_map<T, F, R>(jobs: usize, n: usize, f: F, recover: R) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
    R: Fn(usize, String) -> T + Sync,
{
    parallel_map_ordered(jobs, n, None, f, recover)
}

/// Maps `f` over `0..n`, fanning the indices across `jobs` scoped worker
/// threads, claiming them in the order given by the `order` permutation
/// (workers pop `order[0], order[1], ..`; `None` means `0, 1, ..`). The
/// claim order only shapes the *schedule* — results always land in the
/// slot of their original index, so the output is `f(0), f(1), ..`
/// regardless of ordering or interleaving. An `order` that is not a
/// permutation of `0..n` is a scheduler bug; it is discarded (identity
/// fallback) rather than allowed to drop or duplicate work.
///
/// Panic containment comes in two layers:
///
/// * every `f(i)` runs under `catch_unwind`, so a panicking item becomes
///   `recover(i, panic_message)` and its worker keeps draining indices;
/// * the fan-out itself runs under `catch_unwind` — a worker can still die
///   (e.g. `recover` itself panicked), and `std::thread::scope` re-raises
///   a spawned thread's panic at join. Containing the scope keeps every
///   finished item's slot, and the dead worker's unfinished slots are
///   backfilled with `recover` afterwards.
///
/// `jobs <= 1` (or a single item) runs inline on this thread with the
/// same containment.
fn parallel_map_ordered<T, F, R>(
    jobs: usize,
    n: usize,
    order: Option<Vec<usize>>,
    f: F,
    recover: R,
) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
    R: Fn(usize, String) -> T + Sync,
{
    let order = order.filter(|o| {
        let mut seen = vec![false; n];
        o.len() == n
            && o.iter()
                .all(|&i| i < n && !std::mem::replace(&mut seen[i], true))
    });
    let claim = |k: usize| order.as_ref().map_or(k, |o| o[k]);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let run_one = |i: usize| {
        let value = match catch_unwind(AssertUnwindSafe(|| f(i))) {
            Ok(v) => v,
            Err(payload) => recover(i, fault::panic_message(&*payload)),
        };
        // A poisoned slot just means a previous holder panicked while
        // writing; the data is a plain Option we are about to overwrite.
        *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(value);
    };
    let fan_out = || {
        if jobs <= 1 || n <= 1 {
            (0..n).for_each(|k| run_one(claim(k)));
        } else {
            let next = AtomicUsize::new(0);
            let (next, run_one, claim) = (&next, &run_one, &claim);
            std::thread::scope(|scope| {
                for _ in 0..jobs.min(n) {
                    scope.spawn(move || loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        if k >= n {
                            return;
                        }
                        run_one(claim(k));
                    });
                }
            });
        }
    };
    // Contain the fan-out itself: if a worker dies past `run_one`'s
    // containment, the scope re-raises that panic here — swallowing it is
    // what makes the slot backfill below reachable.
    let _ = catch_unwind(AssertUnwindSafe(fan_out));
    slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .unwrap_or_else(|| {
                    recover(
                        i,
                        "study worker died before producing this result".to_string(),
                    )
                })
        })
        .collect()
}

/// Runs every case against every profile, logging progress to stderr.
/// Equivalent to [`run_study_jobs`] with `jobs = 1`.
pub fn run_study(cases: &[StudyCase], profiles: &[ToolProfile]) -> StudyReport {
    run_study_jobs(cases, profiles, 1)
}

/// Runs the study with up to `jobs` worker threads and default
/// containment (no fault plan, generous cell deadline).
pub fn run_study_jobs(cases: &[StudyCase], profiles: &[ToolProfile], jobs: usize) -> StudyReport {
    run_study_with(
        cases,
        profiles,
        &StudyOptions {
            jobs,
            ..StudyOptions::default()
        },
    )
}

/// An `Abnormal` cell standing in for an attempt that never finished:
/// the containment boundary's record of a contained panic or deadline.
fn abnormal_cell(
    case: &StudyCase,
    profile: &ToolProfile,
    col: usize,
    diag: CrashDiag,
    containment: Option<&fault::Containment>,
) -> CellResult {
    let evidence = Evidence {
        abnormal: true,
        injected_faults: containment.map_or(0, |c| c.injected),
        fault_log: containment.map(|c| c.fired.clone()).unwrap_or_default(),
        crash: Some(diag),
        ..Evidence::default()
    };
    CellResult {
        profile: profile.name.clone(),
        outcome: Outcome::Abnormal,
        expected: case.paper_expected.and_then(|row| row.get(col).copied()),
        wall_ns: 0,
        attempt: Attempt {
            outcome: Outcome::Abnormal,
            solved_input: None,
            evidence,
        },
        obs: None,
    }
}

/// The two containment-deadline crash messages. A deadline trip is always
/// a *transient* failure — the retry's escalated deadline exists exactly
/// to give a slow-but-healthy cell room — so it never quarantines.
fn is_deadline_crash(message: &str) -> bool {
    message == "cell wall-clock deadline exceeded"
        || message == "injected stall exceeded the cell deadline"
}

/// Classifies a failed attempt against the previous one: a failure is
/// deterministic (quarantine, stop retrying) iff the same non-deadline
/// crash message appeared twice in a row. Everything else — injected
/// faults (retries run unfaulted, so they cannot repeat), deadline trips,
/// first-time panics — is transient and worth another attempt.
pub(crate) fn failure_is_deterministic(previous: Option<&str>, current: &str) -> bool {
    !is_deadline_crash(current) && previous == Some(current)
}

/// The journal digest of one finished cell.
fn cell_record(index: u64, bomb: &str, cell: &CellResult) -> CellRecord {
    let ev = &cell.attempt.evidence;
    CellRecord {
        index,
        bomb: bomb.to_string(),
        profile: cell.profile.clone(),
        outcome: cell.outcome,
        expected: cell.expected,
        wall_ns: cell.wall_ns,
        rounds: ev.rounds,
        queries: ev.queries,
        injected_faults: ev.injected_faults,
        fault_log: ev.fault_log.clone(),
        crash: ev.crash.clone(),
        retries: ev.retries,
        quarantined: ev.quarantined,
        retry_backoff_ns: ev.retry_backoff_ns,
    }
}

/// Reconstructs a cell from its journal record. The record carries every
/// field the Table-II report and the contained-crashes section read, so a
/// replayed cell renders byte-identically; trace-only counters keep their
/// defaults and the observation profile is absent (the work never re-ran).
fn replay_cell(
    case: &StudyCase,
    profile: &ToolProfile,
    col: usize,
    rec: &CellRecord,
) -> CellResult {
    let evidence = Evidence {
        abnormal: rec.crash.is_some() || rec.injected_faults > 0,
        rounds: rec.rounds,
        queries: rec.queries,
        injected_faults: rec.injected_faults,
        fault_log: rec.fault_log.clone(),
        crash: rec.crash.clone(),
        retries: rec.retries,
        quarantined: rec.quarantined,
        retry_backoff_ns: rec.retry_backoff_ns,
        ..Evidence::default()
    };
    CellResult {
        profile: profile.name.clone(),
        outcome: rec.outcome,
        expected: case.paper_expected.and_then(|row| row.get(col).copied()),
        wall_ns: rec.wall_ns,
        attempt: Attempt {
            outcome: rec.outcome,
            solved_input: None,
            evidence,
        },
        obs: None,
    }
}

/// Fingerprint of everything that determines cell outcomes, stamped into
/// the journal header: resuming under a different matrix, fault plan,
/// retry budget, or deadline must ignore the journal rather than splice
/// foreign cells into the report.
fn study_fingerprint(cases: &[StudyCase], profiles: &[ToolProfile], options: &StudyOptions) -> u64 {
    let mut parts: Vec<String> = Vec::new();
    for case in cases {
        parts.push(format!("case:{}", case.subject.name));
    }
    for profile in profiles {
        parts.push(format!("profile:{}", profile.name));
    }
    parts.push(match &options.fault_plan {
        Some(plan) => format!("plan:{}", plan.to_text()),
        None => "plan:none".to_string(),
    });
    parts.push(format!("retries:{}", options.retries));
    parts.push(match options.cell_deadline {
        Some(d) => format!("deadline:{}", d.as_nanos()),
        None => "deadline:none".to_string(),
    });
    checkpoint::fingerprint(parts.iter().map(String::as_str))
}

/// Runs the study under explicit [`StudyOptions`]. Two fan-out phases:
/// ground truths + static analysis (one unit per case), then the
/// (case, profile) cell matrix (one unit per cell). Rows and cells land
/// in dataset order and no report text depends on timing or scheduling,
/// so the report is byte-for-byte identical for every `jobs` value —
/// with or without an armed fault plan.
pub fn run_study_with(
    cases: &[StudyCase],
    profiles: &[ToolProfile],
    options: &StudyOptions,
) -> StudyReport {
    let jobs = options.jobs;
    let plan = options.fault_plan.as_ref();
    let deadline = options.cell_deadline;
    let dataflow_hints = profiles.iter().any(|p| p.use_dataflow_hints);
    let capabilities: Vec<bomblab_sa::Capabilities> = profiles
        .iter()
        .map(ToolProfile::static_capabilities)
        .collect();

    // Phase 1: per-case ground truth plus the execution-free static
    // analysis (CFG + VSA + lints) that feeds pruning hints and the
    // prediction column. Ground truth is the study's *oracle* and runs
    // unfaulted; the analyzer runs armed, and a contained analyzer crash
    // degrades the row (default hints, `E` predictions) without losing it.
    //
    // Every ground truth runs before the first analysis. An analysis
    // frees many small blocks, and the allocator settles them at the next
    // large allocation: back to back, that is the next analysis, inside
    // its own span, not the next case's ground-truth VM load.
    //
    // Each half has its own observation window under one pseudo-profile
    // name, joined per case. A window sits *outside* the containment
    // boundary so a contained analyzer crash still yields the spans
    // recorded up to the panic.
    type Oracle = (
        Result<GroundTruth, String>,
        Duration,
        Option<obs::CellProfile>,
    );
    let oracles: Vec<Oracle> = parallel_map(
        jobs,
        cases.len(),
        |i| {
            let case = &cases[i];
            let t0 = std::time::Instant::now();
            let obs_token = options
                .observe
                .then(|| obs::arm(&case.subject.name, "oracle+static"));
            let ground = ground_truth_with(&case.subject, &case.trigger, options.bbcache);
            (Ok(ground), t0.elapsed(), obs_token.map(obs::disarm))
        },
        |i, message| {
            // Even ground truth died: keep the row with a default oracle.
            progress!(
                "[study] {}: phase-1 worker crashed (contained): {message}",
                cases[i].subject.name
            );
            (Err(message), Duration::ZERO, None)
        },
    );
    type Static = (Result<StaticProducts, CrashDiag>, Option<obs::CellProfile>);
    let statics: Vec<Static> = parallel_map(
        jobs,
        cases.len(),
        |i| {
            let case = &cases[i];
            let (oracle, oracle_time, _) = &oracles[i];
            if let Err(message) = oracle {
                let diag = CrashDiag {
                    message: message.clone(),
                    stage: "ground truth".to_string(),
                    elapsed_ns: 0,
                };
                return (Err(diag), None);
            }
            let t0 = std::time::Instant::now();
            let obs_token = options
                .observe
                .then(|| obs::arm(&case.subject.name, "oracle+static"));
            let token = fault::arm(plan, deadline);
            let analysis = catch_unwind(AssertUnwindSafe(|| {
                bomblab_sa::analyze_then(&case.subject.image, case.subject.lib.as_ref(), |a| {
                    StaticProducts::distill(&a, &capabilities, dataflow_hints)
                })
            }));
            let containment = fault::disarm(token);
            let profile = obs_token.map(obs::disarm);
            let analysis = analysis.map_err(|payload| CrashDiag {
                message: fault::panic_message(&*payload),
                stage: "static analysis".to_string(),
                elapsed_ns: containment.elapsed.as_nanos() as u64,
            });
            match &analysis {
                Ok(a) => progress!(
                    "[study] {}: ground truth + static analysis in {:.1?} ({})",
                    case.subject.name,
                    *oracle_time + t0.elapsed(),
                    a.summary
                ),
                Err(diag) => progress!(
                    "[study] {}: static analysis crashed (contained): {}",
                    case.subject.name,
                    diag.message
                ),
            }
            (analysis, profile)
        },
        |i, message| {
            progress!(
                "[study] {}: phase-1 worker crashed (contained): {message}",
                cases[i].subject.name
            );
            let diag = CrashDiag {
                message,
                stage: "static analysis".to_string(),
                elapsed_ns: 0,
            };
            (Err(diag), None)
        },
    );
    type GroundSlot = (
        GroundTruth,
        Result<StaticProducts, CrashDiag>,
        Option<obs::CellProfile>,
    );
    let grounds: Vec<GroundSlot> = oracles
        .into_iter()
        .zip(statics)
        .map(|((ground, _, oracle_obs), (analysis, static_obs))| {
            let profile = match (oracle_obs, static_obs) {
                (Some(mut first), Some(second)) => {
                    first.append(second);
                    Some(first)
                }
                (first, second) => first.or(second),
            };
            (ground.unwrap_or_default(), analysis, profile)
        })
        .collect();

    // Scheduling costs must be read *before* `Journal::open`: a
    // non-resume open truncates the journal, history and all — and even a
    // foreign journal's wall clocks are fine scheduling hints (the reason
    // `load_costs` skips the fingerprint check a resume requires).
    let historical = options
        .checkpoint
        .as_ref()
        .map(|dir| checkpoint::load_costs(dir))
        .unwrap_or_default();

    // Cost-aware scheduling: claim cells longest-processing-time-first,
    // so the multi-millisecond tail (covert_syscall, crypto_*) starts
    // early instead of landing last on one worker while its siblings
    // idle. Cost is the journal's historical wall clock when available,
    // else a static-analysis estimate. The order shapes only the
    // *schedule* — results land by original index, so report bytes are
    // identical to the unscheduled fan-out at every `jobs` value.
    let n_cells = cases.len() * profiles.len();
    let mut sched_costed = 0u64;
    let mut sched_estimated = 0u64;
    let claim_order = if jobs > 1 && n_cells > 1 {
        let mut cost = Vec::with_capacity(n_cells);
        for k in 0..n_cells {
            let case = &cases[k / profiles.len()];
            let (col, profile) = (k % profiles.len(), &profiles[k % profiles.len()]);
            let key = (case.subject.name.clone(), profile.name.clone());
            match historical.get(&key) {
                Some(&wall_ns) => {
                    sched_costed += 1;
                    cost.push(wall_ns);
                }
                None => {
                    sched_estimated += 1;
                    cost.push(estimate_cell_cost(&grounds[k / profiles.len()].1, col));
                }
            }
        }
        let mut order: Vec<usize> = (0..n_cells).collect();
        // Descending cost, dataset order on ties — deterministic for a
        // given journal + dataset, whatever the historical timings were.
        order.sort_by(|&a, &b| cost[b].cmp(&cost[a]).then(a.cmp(&b)));
        Some(order)
    } else {
        None
    };

    // One shared in-process solver cache for the whole study (all cells,
    // all workers). Only incremental profiles attach it (engine-gated).
    let shared_cache = options
        .shared_cache
        .then(bomblab_solver::ShardCache::shared);

    // Checkpoint journal: opened (and truncated or replayed) before the
    // matrix fans out. An unopenable journal degrades to a plain run —
    // durability is best-effort, never a new way for a study to die.
    let journal_state: Option<(Mutex<Journal>, HashMap<u64, CellRecord>)> =
        options.checkpoint.as_ref().and_then(|dir| {
            let fp = study_fingerprint(cases, profiles, options);
            match Journal::open(dir, fp, options.resume) {
                Ok((journal, completed)) => {
                    if !completed.is_empty() {
                        progress!(
                            "[study] resuming: {} of {} cells replay from the journal",
                            completed.len(),
                            cases.len() * profiles.len()
                        );
                    }
                    Some((Mutex::new(journal), completed))
                }
                Err(e) => {
                    progress!("[study] checkpoint journal unavailable ({e}); running without");
                    None
                }
            }
        });
    let (journal, completed) = match &journal_state {
        Some((j, c)) => (Some(j), Some(c)),
        None => (None, None),
    };
    let cells_replayed = AtomicU64::new(0);
    let checkpoint_io_errors = AtomicU64::new(0);

    // Phase 2: the cell matrix, one containment boundary per attempt.
    let cells = parallel_map_ordered(
        jobs,
        n_cells,
        claim_order,
        |k| {
            let (case, (ground, analysis, _)) =
                (&cases[k / profiles.len()], &grounds[k / profiles.len()]);
            let (col, profile) = (k % profiles.len(), &profiles[k % profiles.len()]);
            if let Some(rec) = completed.and_then(|c| c.get(&(k as u64))) {
                // The fingerprint already pins the matrix; the name
                // cross-check guards against an index-mapping bug ever
                // splicing a record into the wrong cell.
                if rec.bomb == case.subject.name && rec.profile == profile.name {
                    cells_replayed.fetch_add(1, Ordering::Relaxed);
                    progress!(
                        "[study]   {} x {}: {} (replayed from checkpoint)",
                        case.subject.name,
                        profile.name,
                        rec.outcome
                    );
                    return replay_cell(case, profile, col, rec);
                }
            }
            let hints = analysis
                .as_ref()
                .map(|a| match &a.dataflow_hints {
                    Some(hints) if profile.use_dataflow_hints => hints.clone(),
                    _ => a.hints.clone(),
                })
                .unwrap_or_default();
            let t1 = std::time::Instant::now();
            // The attempt loop: attempt 0 runs with the study's fault plan
            // armed; retries run *unfaulted* (the transient cause is gone
            // by definition) under an escalating 1x/2x/4x deadline, after
            // a deterministic exponential backoff. Two identical organic
            // panics quarantine the cell instead of burning the budget.
            let mut previous_crash: Option<String> = None;
            let mut retry_log: Vec<String> = Vec::new();
            let mut backoff_total_ns = 0u64;
            let mut attempt_no = 0u32;
            let mut cell =
                loop {
                    let armed_plan = if attempt_no == 0 { plan } else { None };
                    let attempt_deadline = deadline.map(|d| d * (1u32 << attempt_no.min(2)));
                    // Observation window outside the containment boundary: a
                    // contained panic still yields the spans recorded up to
                    // it. Only the final attempt's window survives.
                    let obs_token = options
                        .observe
                        .then(|| obs::arm(&case.subject.name, &profile.name));
                    let token = fault::arm(armed_plan, attempt_deadline);
                    let result = catch_unwind(AssertUnwindSafe(|| {
                        Engine::new(profile.clone())
                            .with_static_hints(hints.clone())
                            .with_shared_cache(shared_cache.clone())
                            .with_bbcache(options.bbcache)
                            .explore(&case.subject, ground)
                    }));
                    let containment = fault::disarm(token);
                    let obs_profile = obs_token.map(obs::disarm);
                    let mut cell = match result {
                        Ok(mut attempt) => {
                            attempt.evidence.injected_faults = containment.injected;
                            CellResult {
                                profile: profile.name.clone(),
                                outcome: attempt.outcome,
                                expected: case.paper_expected.and_then(|row| row.get(col).copied()),
                                wall_ns: t1.elapsed().as_nanos() as u64,
                                attempt,
                                obs: None,
                            }
                        }
                        Err(payload) => abnormal_cell(
                            case,
                            profile,
                            col,
                            CrashDiag {
                                message: fault::panic_message(&*payload),
                                stage: containment.stage.to_string(),
                                elapsed_ns: containment.elapsed.as_nanos() as u64,
                            },
                            Some(&containment),
                        ),
                    };
                    cell.obs = obs_profile;
                    cell.attempt.evidence.fault_log = containment.fired;
                    let failed = cell.attempt.evidence.crash.is_some()
                        || cell.attempt.evidence.injected_faults > 0;
                    if !failed || attempt_no >= options.retries {
                        break cell;
                    }
                    let message = cell.attempt.evidence.crash.as_ref().map_or_else(
                        || "injected fault (no crash)".to_string(),
                        |c| c.message.clone(),
                    );
                    if failure_is_deterministic(previous_crash.as_deref(), &message) {
                        cell.attempt.evidence.quarantined = true;
                        progress!(
                            "[study]   {} x {}: quarantined after repeated failure `{message}`",
                            case.subject.name,
                            profile.name
                        );
                        break cell;
                    }
                    retry_log.push(message.clone());
                    previous_crash = Some(message);
                    attempt_no += 1;
                    let backoff = Duration::from_millis(10) * (1u32 << (attempt_no - 1).min(8));
                    backoff_total_ns += backoff.as_nanos() as u64;
                    progress!(
                    "[study]   {} x {}: transient failure; retry {attempt_no}/{} after {backoff:?}",
                    case.subject.name, profile.name, options.retries
                );
                    std::thread::sleep(backoff);
                };
            cell.attempt.evidence.retries = attempt_no;
            cell.attempt.evidence.retry_backoff_ns = backoff_total_ns;
            cell.attempt.evidence.retry_log = retry_log;
            progress!(
                "[study]   {} x {}: {} in {:.1?} ({} rounds, {} queries{})",
                case.subject.name,
                profile.name,
                cell.outcome,
                t1.elapsed(),
                cell.attempt.evidence.rounds,
                cell.attempt.evidence.queries,
                if cell.attempt.evidence.injected_faults > 0 {
                    format!(
                        ", {} injected faults",
                        cell.attempt.evidence.injected_faults
                    )
                } else {
                    String::new()
                }
            );
            // Append the finished cell to the journal. The append runs in
            // its own armed window (chaos plans carry checkpoint fault
            // points) and its failure is a *study-level* counter, never
            // cell evidence: the cell's verdict is already decided, and a
            // failed append self-heals on the next successful rewrite.
            if let Some(j) = journal {
                let rec = cell_record(k as u64, &case.subject.name, &cell);
                let armed = plan.is_some().then(|| fault::arm(plan, None));
                let appended = catch_unwind(AssertUnwindSafe(|| {
                    j.lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .append(&rec)
                }));
                if let Some(t) = armed {
                    let _ = fault::disarm(t);
                }
                match appended {
                    Ok(Ok(())) => {}
                    Ok(Err(e)) => {
                        checkpoint_io_errors.fetch_add(1, Ordering::Relaxed);
                        progress!("[study] checkpoint append failed (self-healing): {e}");
                    }
                    Err(payload) => {
                        checkpoint_io_errors.fetch_add(1, Ordering::Relaxed);
                        progress!(
                            "[study] checkpoint append panicked (contained): {}",
                            fault::panic_message(&*payload)
                        );
                    }
                }
            }
            cell
        },
        |k, message| {
            let (case, profile) = (&cases[k / profiles.len()], &profiles[k % profiles.len()]);
            abnormal_cell(
                case,
                profile,
                k % profiles.len(),
                CrashDiag {
                    message,
                    stage: "worker".to_string(),
                    elapsed_ns: 0,
                },
                None,
            )
        },
    );

    let mut cells = cells.into_iter();
    let rows = cases
        .iter()
        .zip(grounds)
        .map(|(case, (ground, analysis, analysis_obs))| {
            let (static_predictions, analysis_crash) = match analysis {
                Ok(a) => (a.predictions, None),
                // No analysis to predict from: the static tool itself
                // died on this binary, which is exactly the paper's `E`.
                Err(diag) => (vec![Outcome::Abnormal; profiles.len()], Some(diag)),
            };
            RowResult {
                name: case.subject.name.clone(),
                category: case.category.clone(),
                cells: cells.by_ref().take(profiles.len()).collect(),
                ground,
                static_predictions,
                analysis_crash,
                analysis_obs,
            }
        })
        .collect();
    StudyReport {
        profiles: profiles.iter().map(|p| p.name.clone()).collect(),
        rows,
        stats: StudyStats {
            cells_replayed: cells_replayed.into_inner(),
            checkpoint_io_errors: checkpoint_io_errors.into_inner(),
            sched_costed,
            sched_estimated,
        },
    }
}

/// What a study keeps of one case's static analysis. Phase 1 distills it
/// inside the analyzer's span and containment, so the `Analysis` itself
/// (CFG, VSA, data-flow tables) is freed there, not after the last cell.
struct StaticProducts {
    /// Pruning hints for profiles without data-flow hints.
    hints: StaticHints,
    /// The same hints with the data-flow products armed, built only when
    /// some profile of the lineup reads them.
    dataflow_hints: Option<StaticHints>,
    /// Predicted outcome per study profile, in profile order.
    predictions: Vec<Outcome>,
    /// The analyzer's one-line summary, for the progress log.
    summary: String,
}

impl StaticProducts {
    fn distill(
        a: &bomblab_sa::Analysis,
        capabilities: &[bomblab_sa::Capabilities],
        dataflow_hints: bool,
    ) -> Self {
        let hints = StaticHints::from_analysis(a);
        StaticProducts {
            dataflow_hints: dataflow_hints.then(|| hints.clone().with_dataflow(a)),
            hints,
            predictions: capabilities
                .iter()
                .map(|caps| bomblab_sa::predict(&a.facts, caps).into())
                .collect(),
            summary: a.summary(),
        }
    }
}

/// Static scheduling estimate for the cell of profile `col`, when the
/// journal has no history for it. The unit is fictional — only the
/// *relative* order matters (ties fall back to dataset order), so the
/// weights just rank how much solver work the predicted outcome implies:
/// `Es2` cells grind the conflict budget down (crypto functions, covert
/// propagation — the study's measured tail), predicted solves run the
/// full concolic loop to detonation, the other failure stages die
/// progressively earlier.
fn estimate_cell_cost(products: &Result<StaticProducts, CrashDiag>, col: usize) -> u64 {
    let Ok(p) = products else {
        // The analyzer itself died on this binary: the engine cells will
        // degrade quickly too.
        return 1;
    };
    match p.predictions[col] {
        Outcome::Es2 => 6,
        Outcome::Solved | Outcome::Partial => 5,
        Outcome::Es3 => 4,
        Outcome::Es1 => 3,
        Outcome::Es0 => 2,
        Outcome::Abnormal => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::{failure_is_deterministic, parallel_map, parallel_map_ordered};
    use std::sync::atomic::{AtomicBool, Ordering};

    #[test]
    fn deadline_trips_are_always_transient() {
        // The two deadline messages are never deterministic, even when the
        // same message repeats: a slow cell deserves its escalated budget.
        for msg in [
            "cell wall-clock deadline exceeded",
            "injected stall exceeded the cell deadline",
        ] {
            assert!(!failure_is_deterministic(None, msg));
            assert!(!failure_is_deterministic(Some(msg), msg));
        }
    }

    #[test]
    fn a_repeated_organic_panic_is_deterministic() {
        let msg = "index out of bounds: the len is 3 but the index is 7";
        // First sighting: transient by presumption.
        assert!(!failure_is_deterministic(None, msg));
        // Same message twice: deterministic, quarantine.
        assert!(failure_is_deterministic(Some(msg), msg));
        // A different message resets the presumption.
        assert!(!failure_is_deterministic(Some("other panic"), msg));
    }

    #[test]
    fn parallel_map_preserves_order_at_any_job_count() {
        for jobs in [1, 2, 7] {
            let out = parallel_map(jobs, 10, |i| i * i, |i, _| i);
            assert_eq!(out, (0..10).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn a_panicking_item_is_recovered_without_losing_its_neighbors() {
        for jobs in [1, 3] {
            let out = parallel_map(
                jobs,
                5,
                |i| {
                    assert!(i != 2, "boom at {i}");
                    format!("ok {i}")
                },
                |i, message| format!("recovered {i}: {message}"),
            );
            assert_eq!(out[0], "ok 0");
            assert_eq!(out[1], "ok 1");
            assert_eq!(out[2], "recovered 2: boom at 2");
            assert_eq!(out[3], "ok 3");
            assert_eq!(out[4], "ok 4");
        }
    }

    #[test]
    fn every_item_panicking_still_yields_a_full_result_vector() {
        let out: Vec<usize> = parallel_map(4, 8, |_| panic!("all dead"), |i, _| i + 100);
        assert_eq!(out, (100..108).collect::<Vec<_>>());
    }

    #[test]
    fn the_claim_order_shapes_the_schedule_but_never_the_output() {
        let expected: Vec<usize> = (0..10).map(|i| i * i).collect();
        let orders: Vec<Vec<usize>> = vec![
            (0..10).rev().collect(),            // worst-first
            (0..10).collect(),                  // identity
            vec![5, 1, 9, 0, 7, 3, 8, 2, 6, 4], // arbitrary permutation
        ];
        for order in orders {
            for jobs in [1, 2, 7] {
                let out = parallel_map_ordered(jobs, 10, Some(order.clone()), |i| i * i, |i, _| i);
                assert_eq!(out, expected, "jobs={jobs} order={order:?}");
            }
        }
    }

    #[test]
    fn a_bogus_claim_order_falls_back_to_identity() {
        let expected: Vec<usize> = (0..5).map(|i| i + 1).collect();
        for bogus in [
            vec![0, 1, 2],          // too short: would drop items
            vec![0, 1, 2, 3, 3],    // duplicate: would run one twice
            vec![0, 1, 2, 3, 9],    // out of range: would index past n
            vec![0, 0, 1, 2, 3, 4], // too long
        ] {
            let out = parallel_map_ordered(2, 5, Some(bogus.clone()), |i| i + 1, |i, _| i);
            assert_eq!(out, expected, "bogus order {bogus:?} must not lose work");
        }
    }

    #[test]
    fn a_dead_worker_has_every_slot_backfilled() {
        // Kill a worker outright: item 2's `f` panics AND its first
        // `recover` panics too, which blows past the per-item containment
        // and takes the whole worker thread down. The scope join must not
        // re-raise that panic, and the post-join backfill must fill the
        // dead worker's slot (second `recover` call) plus any items the
        // worker never reached.
        for jobs in [1, 4] {
            let first_recover_panics = AtomicBool::new(true);
            let out: Vec<String> = parallel_map(
                jobs,
                6,
                |i| {
                    assert!(i != 2, "boom at {i}");
                    format!("ok {i}")
                },
                |i, message| {
                    if i == 2 && first_recover_panics.swap(false, Ordering::SeqCst) {
                        panic!("recover died too");
                    }
                    format!("recovered {i}: {message}")
                },
            );
            assert_eq!(out.len(), 6, "jobs={jobs}: no slot may be lost");
            for (i, v) in out.iter().enumerate() {
                if i == 2 {
                    assert!(v.starts_with("recovered 2"), "jobs={jobs}: got {v}");
                } else {
                    assert!(
                        *v == format!("ok {i}") || v.starts_with(&format!("recovered {i}")),
                        "jobs={jobs}: slot {i} holds {v}"
                    );
                }
            }
        }
    }
}
