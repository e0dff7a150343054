//! Durability integration tests: kill-and-resume equivalence for the
//! checkpoint journal, retry convergence for transient faults, and
//! containment under injected checkpoint I/O faults.
//!
//! The invariant under test everywhere: durability features never change
//! the report. A resumed study and a retried study that converged must
//! both render the exact bytes the plain study renders.

use bomblab::bombs::dataset;
use bomblab::concolic::{
    chaos_sweep, run_study_with, ChaosConfig, Outcome, StudyCase, StudyOptions,
};
use bomblab::fault::{FaultAction, FaultPlan, FaultSite};
use bomblab::prelude::*;
use std::path::PathBuf;

/// A fast slice of the dataset (same pick as the chaos tests): cells
/// finish in well under a second each, so the kill-point sweep stays fast.
fn fast_cases() -> Vec<StudyCase> {
    vec![dataset::decl_time(), dataset::covert_stack()]
}

/// A fresh scratch directory under the system temp dir; removed by the
/// caller via `Scratch`'s `Drop`.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!(
            "bomblab-resume-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn resume_is_byte_identical_at_every_kill_point() {
    let cases = fast_cases();
    let profiles = ToolProfile::paper_lineup();
    let options = |checkpoint: Option<PathBuf>, resume| StudyOptions {
        jobs: 1,
        checkpoint,
        resume,
        ..StudyOptions::default()
    };

    let baseline = run_study_with(&cases, &profiles, &options(None, false)).to_markdown();

    // One complete checkpointed run to harvest a full journal.
    let full = Scratch::new("full");
    let report = run_study_with(&cases, &profiles, &options(Some(full.0.clone()), false));
    assert_eq!(
        report.to_markdown(),
        baseline,
        "checkpointing on must not change the report"
    );
    let journal = std::fs::read_to_string(full.0.join("journal.jsonl")).expect("journal written");
    let lines: Vec<&str> = journal.lines().collect();
    assert_eq!(
        lines.len(),
        1 + cases.len() * profiles.len(),
        "header plus one record per cell"
    );

    // Every kill point: each line boundary (a crash between appends) and
    // each line midpoint (a crash mid-write, leaving a torn record).
    let mut cuts = vec![0usize];
    let mut offset = 0;
    for line in &lines {
        cuts.push(offset + line.len() / 2);
        offset += line.len() + 1;
        cuts.push(offset);
    }
    for cut in cuts {
        let scratch = Scratch::new("cut");
        std::fs::write(scratch.0.join("journal.jsonl"), &journal.as_bytes()[..cut])
            .expect("write truncated journal");
        let resumed = run_study_with(&cases, &profiles, &options(Some(scratch.0.clone()), true));
        assert_eq!(
            resumed.to_markdown(),
            baseline,
            "resume from a journal cut at byte {cut} must render the baseline bytes"
        );
        // Exactly the complete record lines before the cut replay; a torn
        // tail re-executes. `cut` always lands on or inside a line, so
        // complete-lines-before-cut is the newline count in the prefix.
        let complete_lines = journal[..cut].bytes().filter(|&b| b == b'\n').count();
        assert_eq!(
            resumed.stats.cells_replayed,
            complete_lines.saturating_sub(1) as u64,
            "journal cut at byte {cut}: every complete record replays, the torn tail does not"
        );
        // A resumed run self-heals the journal: it must now be complete.
        let healed =
            std::fs::read_to_string(scratch.0.join("journal.jsonl")).expect("healed journal");
        assert_eq!(
            healed.lines().count(),
            1 + cases.len() * profiles.len(),
            "journal cut at byte {cut} did not heal to a full record set"
        );
    }

    // A second resume over the completed journal replays everything.
    let resumed = run_study_with(&cases, &profiles, &options(Some(full.0.clone()), false));
    // (resume=false truncates; run once more with resume to check replay.)
    assert_eq!(resumed.to_markdown(), baseline);
    let replayed = run_study_with(&cases, &profiles, &options(Some(full.0.clone()), true));
    assert_eq!(replayed.to_markdown(), baseline);
    assert_eq!(
        replayed.stats.cells_replayed,
        (cases.len() * profiles.len()) as u64,
        "a complete journal replays every cell"
    );
}

#[test]
fn a_foreign_journal_is_ignored_not_replayed() {
    let cases = fast_cases();
    let profiles = ToolProfile::paper_lineup();
    let scratch = Scratch::new("foreign");
    // Harvest a journal under one configuration...
    let with_plan = StudyOptions {
        jobs: 1,
        fault_plan: Some(FaultPlan::single(
            FaultSite::EngineRound,
            1,
            FaultAction::Panic,
        )),
        checkpoint: Some(scratch.0.clone()),
        ..StudyOptions::default()
    };
    run_study_with(&cases, &profiles, &with_plan);
    // ...then resume under a different one: the fingerprint differs, so
    // the stale records (all Abnormal) must not leak into this report.
    let clean = StudyOptions {
        jobs: 1,
        checkpoint: Some(scratch.0.clone()),
        resume: true,
        ..StudyOptions::default()
    };
    let report = run_study_with(&cases, &profiles, &clean);
    assert_eq!(report.stats.cells_replayed, 0, "foreign journal replayed");
    let baseline = run_study_with(&cases, &profiles, &StudyOptions::default()).to_markdown();
    assert_eq!(report.to_markdown(), baseline);
}

#[test]
fn retried_transient_faults_converge_to_the_clean_report() {
    let cases = fast_cases();
    let profiles = ToolProfile::paper_lineup();
    let baseline = run_study_with(
        &cases,
        &profiles,
        &StudyOptions {
            jobs: 1,
            ..StudyOptions::default()
        },
    );
    // Every cell absorbs an injected first-round panic; with a retry
    // budget the second (unfaulted) attempt must converge to the clean
    // verdict, and the rendered table must equal the fault-free run.
    let plan = FaultPlan::single(FaultSite::EngineRound, 1, FaultAction::Panic);
    let retried = run_study_with(
        &cases,
        &profiles,
        &StudyOptions {
            jobs: 1,
            fault_plan: Some(plan),
            retries: 2,
            ..StudyOptions::default()
        },
    );
    assert_eq!(
        retried.to_markdown(),
        baseline.to_markdown(),
        "a retried transient fault must not change the rendered table"
    );
    for row in &retried.rows {
        for cell in &row.cells {
            let ev = &cell.attempt.evidence;
            assert_eq!(ev.retries, 1, "{} x {}: one retry", row.name, cell.profile);
            assert!(!ev.quarantined);
            assert!(ev.retry_backoff_ns > 0, "backoff was slept and recorded");
            assert_eq!(ev.injected_faults, 0, "final attempt ran unfaulted");
            assert!(ev.crash.is_none());
            assert_eq!(
                ev.retry_log,
                vec!["injected panic in the engine round loop".to_string()],
                "{} x {}: retry log names the transient cause",
                row.name,
                cell.profile
            );
        }
    }
    // Without a retry budget the same plan still labels every cell E —
    // retries stay strictly opt-in.
    let unretried = run_study_with(
        &cases,
        &profiles,
        &StudyOptions {
            jobs: 1,
            fault_plan: Some(FaultPlan::single(
                FaultSite::EngineRound,
                1,
                FaultAction::Panic,
            )),
            ..StudyOptions::default()
        },
    );
    for row in &unretried.rows {
        for cell in &row.cells {
            assert_eq!(cell.outcome, Outcome::Abnormal);
        }
    }
}

#[test]
fn chaos_with_io_faults_and_retries_stays_contained() {
    let cases = fast_cases();
    let profiles = ToolProfile::paper_lineup();
    let ckpt = Scratch::new("chaos-ckpt");
    let sweeps = chaos_sweep(
        &cases,
        &profiles,
        &ChaosConfig {
            seed: 11,
            sweeps: 2,
            faults: 2,
            io_faults: 3,
            retries: 1,
            jobs: 2,
            checkpoint: Some(ckpt.0.clone()),
            ..ChaosConfig::default()
        },
    );
    for sweep in &sweeps {
        assert!(
            sweep.violations.is_empty(),
            "plan [{}] violated containment under io faults: {:?}",
            sweep.plan,
            sweep.violations
        );
    }
}
