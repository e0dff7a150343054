//! Observability layer: tracing must never change the science.
//!
//! The Table-II report has to be byte-for-byte identical with tracing on
//! or off and at every worker count; a traced study has to emit
//! schema-valid JSONL covering every pipeline stage for every cell.

use bomblab::bombs::dataset;
use bomblab::concolic::{Evidence, StudyReport};
use bomblab::obs;
use bomblab::obs::json::{self, Json};
use bomblab::obs::trace::{validate_line, validate_lines};
use bomblab::prelude::*;
use std::collections::BTreeMap;

/// Multi-round bombs, single-round failures, and a solved case — the
/// same slice the parallel-determinism suite uses.
fn slice() -> Vec<StudyCase> {
    vec![
        dataset::decl_time(),
        dataset::covert_stack(),
        dataset::array_l1(),
        dataset::jump_direct(),
    ]
}

fn observed(jobs: usize) -> StudyReport {
    run_study_with(
        &slice(),
        &ToolProfile::paper_lineup(),
        &StudyOptions {
            jobs,
            observe: true,
            ..StudyOptions::default()
        },
    )
}

#[test]
fn tracing_never_changes_the_report_bytes() {
    let profiles = ToolProfile::paper_lineup();
    let baseline = run_study_jobs(&slice(), &profiles, 1).to_markdown();
    for jobs in [1, 3] {
        let traced = observed(jobs).to_markdown();
        assert!(!obs::armed_here(), "--jobs {jobs} left a window armed");
        assert_eq!(
            baseline, traced,
            "observe=true under --jobs {jobs} leaked into the report"
        );
    }
}

#[test]
fn traced_study_emits_schema_valid_lines_covering_every_stage() {
    let report = observed(2);
    let lines = report.trace_lines();
    let doc = lines.join("\n");
    let checked = validate_lines(&doc).unwrap_or_else(|(line, why)| {
        panic!("trace line {line} invalid: {why}\n{}", lines[line - 1])
    });
    assert_eq!(checked, lines.len(), "every line must be validated");

    // Every (bomb, profile) cell must carry the core pipeline stages.
    for row in &report.rows {
        for cell in &row.cells {
            let profile = cell.obs.as_ref().unwrap_or_else(|| {
                panic!("{} x {}: no observation profile", row.name, cell.profile)
            });
            let stages: Vec<&str> = profile.spans.iter().map(|s| s.stage).collect();
            // Every attempt at least runs the bomb concretely; later
            // stages are reached only until the pipeline gives up (a
            // failed lift check skips symex, an Es0 cell never queries).
            assert!(
                stages.contains(&"vm.run"),
                "{} x {}: stage vm.run never recorded (saw {stages:?})",
                row.name,
                cell.profile
            );
            assert_eq!(
                stages.contains(&"solver.check"),
                cell.attempt.evidence.queries > 0,
                "{} x {}: solver.check spans disagree with {} queries",
                row.name,
                cell.profile,
                cell.attempt.evidence.queries
            );
        }
        // Phase-1 ground truth + static analysis is observed too.
        let p = row.analysis_obs.as_ref().expect("phase-1 profile");
        assert_eq!(p.profile, "oracle+static");
        assert!(p.spans.iter().any(|s| s.stage == "sa.analyze"));
    }

    // Study-wide, the whole pipeline is covered.
    let totals = report.metrics();
    for stage in [
        "vm.run",
        "taint.run",
        "symex.run",
        "solver.check",
        "sa.analyze",
    ] {
        assert!(
            totals.stages.contains_key(stage),
            "stage {stage} missing from study-wide totals: {:?}",
            totals.stages.keys().collect::<Vec<_>>()
        );
    }

    // Header, per-cell outcome lines, and trailer are all present.
    assert!(doc.contains("\"type\":\"study_start\""));
    assert!(doc.contains("\"type\":\"stage_total\""));
    let cells = lines
        .iter()
        .filter(|l| l.contains("\"type\":\"cell\""))
        .count();
    assert_eq!(cells, report.rows.len() * ToolProfile::paper_lineup().len());
}

#[test]
fn unobserved_study_collects_nothing() {
    // `--jobs 1` runs inline on this thread, `--jobs 2` on workers.
    for jobs in [1, 2] {
        let report = run_study_jobs(&slice(), &ToolProfile::paper_lineup(), jobs);
        for row in &report.rows {
            assert!(row.analysis_obs.is_none());
            assert!(row.cells.iter().all(|c| c.obs.is_none()));
        }
        assert_eq!(report.metrics().cells, 0);
        // `obs::armed()` is process-wide and sibling tests in this binary
        // hold windows open, so ask about this thread only.
        assert!(!obs::armed_here(), "--jobs {jobs} left a window armed");
    }
}

#[test]
fn profile_summary_ranks_cells_and_breaks_down_stages() {
    let report = observed(1);
    let summary = report.profile_summary();
    assert!(summary.contains("## Slowest cells"));
    assert!(summary.contains("## Hottest solver cells"));
    assert!(summary.contains("## Per-stage breakdown"));
    assert!(summary.contains("vm.run"));
    assert!(summary.contains("solver.check"));
    // The summary is a sidecar: none of its sections leak into Table II.
    let report_md = report.to_markdown();
    assert!(!report_md.contains("Slowest cells"));
    assert!(!report_md.contains("wall_ns"));
}

#[test]
fn chaos_sweeps_can_observe_without_changing_verdicts() {
    let cases = vec![dataset::decl_time(), dataset::covert_stack()];
    let profiles = ToolProfile::paper_lineup();
    let base = ChaosConfig {
        sweeps: 2,
        faults: 1,
        jobs: 2,
        ..ChaosConfig::default()
    };
    let plain = chaos_sweep(&cases, &profiles, &base);
    let traced = chaos_sweep(
        &cases,
        &profiles,
        &ChaosConfig {
            observe: true,
            ..base
        },
    );
    assert_eq!(plain.len(), traced.len());
    for (p, t) in plain.iter().zip(&traced) {
        assert_eq!(p.report.to_markdown(), t.report.to_markdown());
        assert!(p.violations.is_empty() && t.violations.is_empty());
        let doc = t.report.trace_lines().join("\n");
        validate_lines(&doc).expect("chaos trace lines validate");
    }
}

/// The nonzero entries of an attempt's counter list, as the trace
/// carries them.
fn nonzero_counters(ev: &Evidence) -> BTreeMap<String, Json> {
    ev.counters()
        .into_iter()
        .filter(|&(_, v)| v > 0)
        .map(|(name, v)| (name.to_string(), Json::U64(v)))
        .collect()
}

#[test]
fn cell_lines_carry_every_nonzero_counter() {
    let cases: Vec<StudyCase> = bomblab::bombs::all_cases()
        .into_iter()
        .filter(|c| c.subject.name.starts_with("decl"))
        .collect();
    let report = run_study_with(
        &cases,
        &ToolProfile::paper_lineup(),
        &StudyOptions {
            jobs: 2,
            observe: true,
            ..StudyOptions::default()
        },
    );
    let lines = report.trace_lines();
    let cell_lines: Vec<BTreeMap<String, Json>> = lines
        .iter()
        .map(|l| json::parse(l).expect("trace line parses"))
        .filter(|v| v.as_obj().expect("object")["type"].as_str() == Some("cell"))
        .map(|v| v.as_obj().expect("object").clone())
        .collect();
    let cells: Vec<_> = report
        .rows
        .iter()
        .flat_map(|row| row.cells.iter().map(move |cell| (row, cell)))
        .collect();
    assert_eq!(cell_lines.len(), cells.len());
    for (line, (row, cell)) in cell_lines.iter().zip(cells) {
        assert_eq!(line["bomb"].as_str(), Some(row.name.as_str()));
        assert_eq!(line["profile"].as_str(), Some(cell.profile.as_str()));
        let counters = line["counters"].as_obj().expect("counters object");
        assert_eq!(
            counters,
            &nonzero_counters(&cell.attempt.evidence),
            "{} x {}",
            row.name,
            cell.profile
        );
    }
}

#[test]
fn a_solved_attempt_renders_a_valid_cell_line() {
    // The `solve --trace` path: one engine run outside any study.
    let case = dataset::covert_stack();
    let ground = bomblab::concolic::ground_truth(&case.subject, &case.trigger);
    let attempt = Engine::new(ToolProfile::omniscient()).explore(&case.subject, &ground);
    assert_eq!(attempt.outcome, Outcome::Solved);
    let line = attempt.cell_line(&case.subject.name, "Omniscient", 1, None);
    validate_line(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
    let parsed = json::parse(&line).expect("cell line parses");
    let counters = parsed.as_obj().expect("object")["counters"]
        .as_obj()
        .expect("counters object")
        .clone();
    assert_eq!(counters, nonzero_counters(&attempt.evidence));
    assert!(counters.contains_key("vm_steps") && counters.contains_key("queries"));
}

#[test]
fn tracecheck_reports_the_schema_the_file_declares() {
    // A v5 trace (no `counters` object) still validates; the CLI must name
    // its own version, not the validator's.
    let path = std::env::temp_dir().join(format!("bomblab-v5-{}.jsonl", std::process::id()));
    std::fs::write(
        &path,
        "{\"type\":\"study_start\",\"schema\":5,\"bombs\":1,\"profiles\":[\"BAP\"]}\n",
    )
    .expect("write trace");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_bomblab"))
        .arg("tracecheck")
        .arg(&path)
        .output()
        .expect("run bomblab");
    let _ = std::fs::remove_file(&path);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("1 lines OK (schema v5)"), "{stdout}");
    assert_eq!(obs::trace::file_schema("{\"type\":\"span\"}\n"), None);
}
