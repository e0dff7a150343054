//! Chaos harness: randomized fault-injection sweeps over the study runner.
//!
//! Each sweep draws a deterministic [`fault::FaultPlan`] from a seed, runs
//! the full bombs × profiles study with the plan armed, and checks the
//! *containment invariant*: every injected fault must surface as a
//! well-formed cell in a complete report — the paper's `E` (Abnormal) or
//! `P` (Partial) label — never as a lost cell or a process abort.
//!
//! The harness is both a library API ([`chaos_sweep`]) used by the
//! integration tests and the backing for the `bomblab chaos` subcommand.

use crate::outcome::Outcome;
use crate::profile::ToolProfile;
use crate::study::{run_study_with, StudyCase, StudyOptions, StudyReport};
use bomblab_fault as fault;
use std::path::PathBuf;
use std::time::Duration;

/// Parameters for a chaos sweep.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Base seed; sweep `s` uses `seed + s`.
    pub seed: u64,
    /// Number of independent sweeps (each with its own random plan).
    pub sweeps: u32,
    /// Faults drawn per plan.
    pub faults: u32,
    /// Extra faults drawn against the durability I/O sites (checkpoint
    /// writes and renames) from an independent stream,
    /// so enabling them never perturbs the engine-site draw.
    pub io_faults: u32,
    /// Retry budget handed to the study runner (transient failures only).
    pub retries: u32,
    /// Worker threads handed to the study runner.
    pub jobs: usize,
    /// Per-cell wall-clock deadline (stalled cells become `E`).
    pub cell_deadline: Option<Duration>,
    /// Collect per-cell observation profiles (for `chaos --trace`).
    pub observe: bool,
    /// Checkpoint journal directory (gives checkpoint fault sites a
    /// surface to fire on).
    pub checkpoint: Option<PathBuf>,
}

impl Default for ChaosConfig {
    fn default() -> ChaosConfig {
        ChaosConfig {
            seed: 1,
            sweeps: 1,
            faults: 3,
            io_faults: 0,
            retries: 0,
            jobs: 1,
            cell_deadline: Some(Duration::from_secs(300)),
            observe: false,
            checkpoint: None,
        }
    }
}

/// The result of one sweep: the plan that was armed, the report it
/// produced, and any containment-invariant violations found in it.
#[derive(Debug)]
pub struct SweepOutcome {
    /// The seed this sweep's plan was drawn from.
    pub seed: u64,
    /// The armed fault plan.
    pub plan: fault::FaultPlan,
    /// The completed study report (always full-matrix).
    pub report: StudyReport,
    /// Cells that absorbed at least one injected fault, plus rows whose
    /// static analysis crashed.
    pub injected_cells: usize,
    /// Human-readable invariant violations; empty means the sweep passed.
    pub violations: Vec<String>,
}

/// Runs `config.sweeps` randomized fault-injection sweeps and checks the
/// containment invariant on each resulting report.
pub fn chaos_sweep(
    cases: &[StudyCase],
    profiles: &[ToolProfile],
    config: &ChaosConfig,
) -> Vec<SweepOutcome> {
    (0..u64::from(config.sweeps.max(1)))
        .map(|s| {
            let seed = config.seed.wrapping_add(s);
            let mut plan = fault::FaultPlan::random(seed, config.faults as usize);
            if config.io_faults > 0 {
                let io = fault::FaultPlan::random_io(seed, config.io_faults as usize);
                plan.faults.extend(io.faults);
            }
            let report = run_study_with(
                cases,
                profiles,
                &StudyOptions {
                    jobs: config.jobs,
                    fault_plan: Some(plan.clone()),
                    cell_deadline: config.cell_deadline,
                    observe: config.observe,
                    retries: config.retries,
                    checkpoint: config.checkpoint.clone(),
                    ..StudyOptions::default()
                },
            );
            let violations = check_containment(cases, profiles, &report);
            let injected_cells = report
                .rows
                .iter()
                .flat_map(|row| &row.cells)
                .filter(|cell| {
                    cell.attempt.evidence.injected_faults > 0
                        || cell.attempt.evidence.crash.is_some()
                })
                .count()
                + report
                    .rows
                    .iter()
                    .filter(|row| row.analysis_crash.is_some())
                    .count();
            SweepOutcome {
                seed,
                plan,
                report,
                injected_cells,
                violations,
            }
        })
        .collect()
}

/// Checks the containment invariant over a finished report. Returns one
/// message per violation; an empty vector means the report is well formed.
///
/// The invariant, in full:
///
/// 1. the matrix is complete: one row per case in dataset order, one cell
///    per profile in profile order, one static prediction per profile;
/// 2. any cell that absorbed an injected fault or recorded a crash is
///    labeled `E` (Abnormal) or `P` (Partial) — a fault never launders
///    into a success label;
/// 3. every recorded crash carries a non-empty diagnostic message;
/// 4. `Solved` cells are clean: a solving input present, zero injected
///    faults, no crash record.
pub fn check_containment(
    cases: &[StudyCase],
    profiles: &[ToolProfile],
    report: &StudyReport,
) -> Vec<String> {
    let mut violations = Vec::new();
    let expected_profiles: Vec<&str> = profiles.iter().map(|p| p.name.as_str()).collect();
    if report.profiles != expected_profiles {
        violations.push(format!(
            "profile header mismatch: expected {expected_profiles:?}, got {:?}",
            report.profiles
        ));
    }
    if report.rows.len() != cases.len() {
        violations.push(format!(
            "row count mismatch: expected {} rows, got {}",
            cases.len(),
            report.rows.len()
        ));
    }
    for (case, row) in cases.iter().zip(&report.rows) {
        if row.name != case.subject.name {
            violations.push(format!(
                "row order mismatch: expected {}, got {}",
                case.subject.name, row.name
            ));
        }
        if row.cells.len() != profiles.len() {
            violations.push(format!(
                "{}: expected {} cells, got {}",
                row.name,
                profiles.len(),
                row.cells.len()
            ));
        }
        if row.static_predictions.len() != profiles.len() {
            violations.push(format!(
                "{}: expected {} static predictions, got {}",
                row.name,
                profiles.len(),
                row.static_predictions.len()
            ));
        }
        if let Some(diag) = &row.analysis_crash {
            if diag.message.is_empty() {
                violations.push(format!("{}: analysis crash with empty message", row.name));
            }
        }
        for (profile, cell) in profiles.iter().zip(&row.cells) {
            let at = format!("{} x {}", row.name, profile.name);
            if cell.profile != profile.name {
                violations.push(format!(
                    "{at}: cell column mismatch (labeled {})",
                    cell.profile
                ));
            }
            let evidence = &cell.attempt.evidence;
            let faulted = evidence.injected_faults > 0 || evidence.crash.is_some();
            if faulted && !matches!(cell.outcome, Outcome::Abnormal | Outcome::Partial) {
                violations.push(format!(
                    "{at}: absorbed {} injected faults but reported {}",
                    evidence.injected_faults, cell.outcome
                ));
            }
            if let Some(diag) = &evidence.crash {
                if diag.message.is_empty() {
                    violations.push(format!("{at}: crash record with empty message"));
                }
            }
            if cell.outcome == Outcome::Solved {
                if cell.attempt.solved_input.is_none() {
                    violations.push(format!("{at}: Solved without a solving input"));
                }
                if faulted {
                    violations.push(format!("{at}: Solved despite injected faults"));
                }
            }
        }
    }
    violations
}
