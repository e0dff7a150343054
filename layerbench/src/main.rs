//! The study benchmark: drives `run_study_with` from outside the library
//! on one of three workloads and prints one JSON result line.
//!
//! ```text
//! layerbench --workload <srand_cdcl|paper_sweep|omniscient_sweep>
//!            --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run does one untimed warm-up pass, then timed passes until
//! `--seconds` have elapsed and at least two have run. Every pass runs
//! with `jobs: 1` on a fresh thread, so the solver's thread-local
//! interner and memo start cold each time. A batch of dataset assemblies
//! runs before the warm-up, after every timed pass and at the end;
//! `setup_s` is the median assembly. The seed permutes case order within
//! a pass; seed 0 keeps dataset order.
//!
//! `--trace 0` reports the end-to-end metrics from untraced passes.
//! `--trace 1` alternates untraced and traced (`observe: true`) passes
//! and reports the per-layer breakdown read from the spans and counters
//! the library already records, plus the tracing overhead.
//!
//! Every cell is checked: its label against a pinned reference, no
//! contained crash or deadline, and every solved input re-run through
//! `Subject::detonates`. The exact counts (VM steps, propagations,
//! queries, roots blasted) must repeat across all passes of a run and
//! across runs of the same build. See `NOTES.md` for the workloads and
//! the layer map.

use bomblab_bombs::all_cases;
use bomblab_concolic::study::CellResult;
use bomblab_concolic::{
    run_study_with, Outcome, StudyCase, StudyOptions, StudyReport, ToolProfile,
};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// `all_cases()` calls per set-up batch (~10 ms each).
const SETUP_BATCH: usize = 16;
/// Fewest timed untraced passes of a `--trace 0` run; a single pass's
/// time moves by up to 50 % with the host's load.
const MIN_TIMED_PASSES: usize = 2;
/// Runs of the host reference kernel at each end of a run.
const HOST_REF_REPS: usize = 3;
/// Xorshift rounds in one run of the host reference kernel.
const HOST_REF_ROUNDS: u64 = 40_000_000;
/// Conflict budget per query of the `srand_cdcl` cell: a tenth of the
/// paper tools' 5,000, so one pass takes seconds, not tens of seconds.
const SRAND_CDCL_CONFLICTS: u64 = 500;
/// Bombs the Omniscient profile grinds on for tens of minutes.
const SLOW_FOR_OMNISCIENT: [&str; 3] = ["ext_srand", "crypto_sha1", "crypto_aes"];
/// Paper-profile labels: the committed Table II golden (read-only).
const TABLE2_GOLDEN: &str = include_str!("../../tests/golden/table2_report.md");
/// Omniscient labels, pinned by this benchmark.
const OMNISCIENT_LABELS: &str = include_str!("../omniscient_labels.txt");

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    /// `ext_srand` x BAP with a tenth of its conflict budget:
    /// budget-exhausting queries, nearly all CDCL.
    SrandCdcl,
    /// The other 21 bombs x the four paper profiles: static analysis and
    /// the write-only shared model store.
    PaperSweep,
    /// 19 bombs x Omniscient: incremental solver reading through caches,
    /// sparse tracing and data-flow hints armed.
    OmniscientSweep,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "srand_cdcl" => Some(Workload::SrandCdcl),
            "paper_sweep" => Some(Workload::PaperSweep),
            "omniscient_sweep" => Some(Workload::OmniscientSweep),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::SrandCdcl => "srand_cdcl",
            Workload::PaperSweep => "paper_sweep",
            Workload::OmniscientSweep => "omniscient_sweep",
        }
    }

    /// The workload's slice of the dataset, in dataset order.
    fn matrix(self, cases: Vec<StudyCase>) -> (Vec<StudyCase>, Vec<ToolProfile>) {
        let keep = |c: &StudyCase| {
            let name = c.subject.name.as_str();
            match self {
                Workload::SrandCdcl => name == "ext_srand",
                Workload::PaperSweep => name != "ext_srand",
                Workload::OmniscientSweep => !SLOW_FOR_OMNISCIENT.contains(&name),
            }
        };
        let profiles = match self {
            Workload::SrandCdcl => {
                let mut bap = ToolProfile::bap();
                bap.solver_budget.max_conflicts = SRAND_CDCL_CONFLICTS;
                vec![bap]
            }
            Workload::PaperSweep => ToolProfile::paper_lineup(),
            Workload::OmniscientSweep => vec![ToolProfile::omniscient()],
        };
        (cases.into_iter().filter(keep).collect(), profiles)
    }

    /// Allowed range of a traced pass wall's unspanned share: the wall
    /// minus ground-truth spans, `sa.analyze` and the cells' wall clocks,
    /// over the wall. Below zero, spans were counted twice. Above zero is
    /// work no span covers: on `paper_sweep` ground truth's float scan of
    /// the `crypto_aes` path (~0.3 s, 15-24 % of the pass); under 1 % on
    /// the other two.
    fn layer_sum_tolerance(self) -> (f64, f64) {
        match self {
            Workload::PaperSweep => (-0.02, 0.40),
            Workload::SrandCdcl | Workload::OmniscientSweep => (-0.02, 0.05),
        }
    }

    /// Reference label per (bomb, profile) cell.
    fn expected(self) -> Result<HashMap<(String, String), Outcome>, String> {
        match self {
            Workload::OmniscientSweep => parse_labels(OMNISCIENT_LABELS, "Omniscient"),
            Workload::SrandCdcl | Workload::PaperSweep => parse_table2(TABLE2_GOLDEN),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: `{value}` is not {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("a workload"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("a seed"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Labels of the first table in the Table II golden, keyed by (case,
/// profile). A cell reads `Es0`, or `**Es0** (paper: Es2)` where the run
/// disagrees with the paper; the first label is the run's.
fn parse_table2(text: &str) -> Result<HashMap<(String, String), Outcome>, String> {
    let mut lines = text.lines();
    let header: Vec<&str> = lines
        .next()
        .ok_or("empty Table II golden")?
        .split('|')
        .map(str::trim)
        .collect();
    let mut labels = HashMap::new();
    for line in lines.skip(1) {
        let cols: Vec<&str> = line.split('|').map(str::trim).collect();
        // The table ends at a blank line or at the category-less
        // `solved` totals row.
        if cols.len() != header.len() || cols[1].is_empty() {
            break;
        }
        for (profile, cell) in header.iter().zip(&cols).skip(3) {
            if profile.is_empty() {
                continue;
            }
            let glyph = cell
                .trim_start_matches("**")
                .split(['*', ' '])
                .next()
                .unwrap_or_default();
            let outcome = Outcome::from_glyph(glyph)
                .ok_or_else(|| format!("Table II golden: bad label `{cell}`"))?;
            labels.insert((cols[2].to_string(), (*profile).to_string()), outcome);
        }
    }
    if labels.is_empty() {
        return Err("Table II golden holds no labels".to_string());
    }
    Ok(labels)
}

/// `<bomb> <label>` lines; `#` starts a comment.
fn parse_labels(text: &str, profile: &str) -> Result<HashMap<(String, String), Outcome>, String> {
    let mut labels = HashMap::new();
    for line in text.lines() {
        let line = line.split('#').next().unwrap_or_default().trim();
        if line.is_empty() {
            continue;
        }
        let (bomb, glyph) = line
            .split_once(char::is_whitespace)
            .ok_or_else(|| format!("label file: bad line `{line}`"))?;
        let outcome = Outcome::from_glyph(glyph.trim())
            .ok_or_else(|| format!("label file: bad label in `{line}`"))?;
        labels.insert((bomb.to_string(), profile.to_string()), outcome);
    }
    Ok(labels)
}

/// Seeded Fisher-Yates over case order (splitmix64); seed 0 is identity.
fn permute(cases: &mut [StudyCase], seed: u64) {
    if seed == 0 {
        return;
    }
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for i in (1..cases.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        cases.swap(i, j);
    }
}

/// One study pass on a fresh thread; returns its wall seconds (timed
/// around `run_study_with` alone) and the report.
fn run_pass(cases: &[StudyCase], profiles: &[ToolProfile], observe: bool) -> (f64, StudyReport) {
    let options = StudyOptions {
        jobs: 1,
        observe,
        ..StudyOptions::default()
    };
    std::thread::scope(|scope| {
        scope
            .spawn(|| {
                let t = Instant::now();
                let report = run_study_with(cases, profiles, &options);
                (t.elapsed().as_secs_f64(), report)
            })
            .join()
            .expect("run_study_with contains every cell panic")
    })
}

/// Counts that must repeat exactly for a fixed seed and build.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Counts {
    vm_steps: u64,
    propagations: u64,
    queries: u64,
    roots_blasted: u64,
}

impl Counts {
    fn of(report: &StudyReport) -> Counts {
        let mut c = Counts::default();
        for cell in report.rows.iter().flat_map(|r| &r.cells) {
            let ev = &cell.attempt.evidence;
            c.vm_steps += ev.vm_steps;
            c.propagations += ev.propagations;
            c.queries += u64::from(ev.queries);
            c.roots_blasted += ev.roots_blasted;
        }
        c
    }

    fn line(self) -> String {
        format!(
            "vm.steps={} solver.propagations={} core.queries={} solver.roots_blasted={}",
            self.vm_steps, self.propagations, self.queries, self.roots_blasted
        )
    }
}

/// Checks every cell of a pass; returns (cells attempted, cells failed)
/// and appends one message per failure.
fn check_pass(
    report: &StudyReport,
    cases: &[StudyCase],
    profiles: &[ToolProfile],
    expected: &HashMap<(String, String), Outcome>,
    failures: &mut Vec<String>,
) -> (u64, u64) {
    let (mut attempted, mut failed) = (0, 0);
    let cells: usize = report.rows.iter().map(|r| r.cells.len()).sum();
    if report.rows.len() != cases.len() || cells != cases.len() * profiles.len() {
        failures.push(format!(
            "pass returned {} rows and {cells} cells for {} x {}",
            report.rows.len(),
            cases.len(),
            profiles.len()
        ));
        return (1, 1);
    }
    for (row, case) in report.rows.iter().zip(cases) {
        for (cell, profile) in row.cells.iter().zip(profiles) {
            attempted += 1;
            if let Some(why) = cell_failure(cell, case, profile, expected) {
                failed += 1;
                failures.push(format!("{} x {}: {why}", row.name, cell.profile));
            }
        }
    }
    (attempted, failed)
}

fn cell_failure(
    cell: &CellResult,
    case: &StudyCase,
    profile: &ToolProfile,
    expected: &HashMap<(String, String), Outcome>,
) -> Option<String> {
    let key = (case.subject.name.clone(), profile.name.clone());
    let Some(&want) = expected.get(&key) else {
        return Some(format!("no reference label (got {})", cell.outcome));
    };
    if cell.outcome != want {
        return Some(format!(
            "label {} but the reference is {want}",
            cell.outcome
        ));
    }
    if let Some(crash) = &cell.attempt.evidence.crash {
        return Some(format!(
            "contained crash in {}: {}",
            crash.stage, crash.message
        ));
    }
    if cell.outcome == Outcome::Solved {
        // An independent check by the VM, not by the solver.
        match &cell.attempt.solved_input {
            Some(input) if case.subject.detonates(input, profile.step_budget) => {}
            Some(_) => return Some("solved input does not detonate".to_string()),
            None => return Some("solved without an input".to_string()),
        }
    }
    None
}

/// Top-level spans of ground truth, the first half of a phase-1 unit.
const ORACLE_SPANS: [&str; 3] = ["vm.run", "taint.run", "symex.run"];
/// Top-level spans inside a cell; the solver's stage spans nest inside
/// `solver.check`.
const CELL_SPANS: [&str; 5] = [
    "vm.run",
    "taint.run",
    "lift.check",
    "symex.run",
    "solver.check",
];

/// Per-stage seconds and summed counters of one traced pass.
struct Layers {
    stage_s: BTreeMap<String, f64>,
    oracle_s: f64,
    cell_spans_s: f64,
    counters: BTreeMap<String, u64>,
}

impl Layers {
    fn of(report: &StudyReport) -> Layers {
        let registry = report.metrics();
        let secs = |ns: u64| ns as f64 / 1e9;
        let spans_s = |profile: &bomblab_obs::CellProfile, names: &[&str]| -> f64 {
            let totals = profile.stage_totals();
            names
                .iter()
                .filter_map(|n| totals.get(n))
                .map(|&(_, ns)| secs(ns))
                .sum()
        };
        let (mut oracle_s, mut cell_spans_s) = (0.0, 0.0);
        for row in &report.rows {
            if let Some(p) = &row.analysis_obs {
                oracle_s += spans_s(p, &ORACLE_SPANS);
            }
            for p in row.cells.iter().filter_map(|c| c.obs.as_ref()) {
                cell_spans_s += spans_s(p, &CELL_SPANS);
            }
        }
        Layers {
            stage_s: registry
                .stages
                .iter()
                .map(|(k, &(_, ns))| (k.clone(), secs(ns)))
                .collect(),
            oracle_s,
            cell_spans_s,
            counters: registry.counters,
        }
    }

    fn s(&self, stage: &str) -> f64 {
        self.stage_s.get(stage).copied().unwrap_or(0.0)
    }

    fn n(&self, counter: &str) -> f64 {
        self.counters.get(counter).copied().unwrap_or(0) as f64
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Evidence sums over every cell of a pass.
fn evidence_sum(report: &StudyReport, field: impl Fn(&CellResult) -> u64) -> u64 {
    report.rows.iter().flat_map(|r| &r.cells).map(field).sum()
}

/// The per-layer metrics of one traced pass, as (name, value, unit).
fn layer_metrics(report: &StudyReport, wall_s: f64) -> Vec<(&'static str, f64, &'static str)> {
    let l = Layers::of(report);
    let ev = |f: fn(&bomblab_concolic::Evidence) -> u64| {
        evidence_sum(report, |c| f(&c.attempt.evidence)) as f64
    };
    let check = l.s("solver.check");
    let stages = l.s("solver.simplify") + l.s("solver.interval") + l.s("solver.slice");
    let blast_cdcl = check - stages;
    let propagations = ev(|e| e.propagations);
    let (hits, misses) = (l.n("solver.cache_hits"), l.n("solver.cache_misses"));
    let (bb_hits, bb_misses) = (l.n("vm.bb_hits"), l.n("vm.bb_misses"));
    let cells_s = evidence_sum(report, |c| c.wall_ns) as f64 / 1e9;
    let sa_children = l.s("sa.callgraph") + l.s("sa.dataflow") + l.s("sa.taint");
    // Phase 1 is ground truth plus `sa.analyze`; phase 2 is the cells.
    let gap = wall_s - l.oracle_s - l.s("sa.analyze") - cells_s;
    vec![
        ("solver.check_s", check, "s"),
        ("solver.simplify_s", l.s("solver.simplify"), "s"),
        ("solver.interval_s", l.s("solver.interval"), "s"),
        ("solver.slice_s", l.s("solver.slice"), "s"),
        ("solver.blast_cdcl_s", blast_cdcl, "s"),
        ("solver.propagations", propagations, "count"),
        (
            "solver.propagations_per_s",
            ratio(propagations, blast_cdcl),
            "1/s",
        ),
        ("solver.blocker_skips", l.n("solver.blocker_skips"), "count"),
        ("solver.lbd_evictions", l.n("solver.lbd_evictions"), "count"),
        ("solver.roots_blasted", ev(|e| e.roots_blasted), "count"),
        ("solver.roots_reused", ev(|e| e.roots_reused), "count"),
        ("solver.cache_hits", hits, "count"),
        ("solver.cache_misses", misses, "count"),
        (
            "solver.cache_hit_ratio",
            ratio(hits, hits + misses),
            "ratio",
        ),
        (
            "solver.shared_cache_hits",
            ev(|e| e.shared_cache_hits),
            "count",
        ),
        (
            "solver.shared_cache_stores",
            ev(|e| e.shared_cache_stores),
            "count",
        ),
        (
            "solver.shared_cache_rejected",
            ev(|e| e.shared_cache_rejected),
            "count",
        ),
        ("solver.slices", ev(|e| e.slices), "count"),
        ("solver.witness_hits", ev(|e| e.witness_hits), "count"),
        ("sa.analyze_s", l.s("sa.analyze"), "s"),
        ("sa.analyze_self_s", l.s("sa.analyze") - sa_children, "s"),
        ("sa.dataflow_s", l.s("sa.dataflow"), "s"),
        ("sa.taint_s", l.s("sa.taint"), "s"),
        ("sa.cfg_blocks", l.n("sa.cfg_blocks"), "count"),
        ("symex.run_s", l.s("symex.run"), "s"),
        ("symex.path_conds", l.n("symex.path_conds"), "count"),
        ("lift.check_s", l.s("lift.check"), "s"),
        ("vm.run_s", l.s("vm.run"), "s"),
        ("vm.steps", ev(|e| e.vm_steps), "count"),
        (
            "vm.bb_hit_ratio",
            ratio(bb_hits, bb_hits + bb_misses),
            "ratio",
        ),
        ("vm.trace_steps_full", ev(|e| e.trace_steps_full), "count"),
        (
            "vm.trace_steps_elided",
            ev(|e| e.trace_steps_elided),
            "count",
        ),
        ("vm.trace_arena_bytes", ev(|e| e.trace_arena_bytes), "count"),
        ("taint.run_s", l.s("taint.run"), "s"),
        ("taint.tainted_steps", l.n("taint.tainted_steps"), "count"),
        ("core.oracle_s", l.oracle_s, "s"),
        ("core.cells_s", cells_s, "s"),
        ("core.engine_self_s", cells_s - l.cell_spans_s, "s"),
        ("core.rounds", ev(|e| u64::from(e.rounds)), "count"),
        ("core.queries", ev(|e| u64::from(e.queries)), "count"),
        (
            "core.sat_queries",
            ev(|e| u64::from(e.sat_queries)),
            "count",
        ),
        ("core.layer_sum_gap_s", gap, "s"),
    ]
}

/// Times a batch of `all_cases()` calls, each on its own clock, appends
/// their seconds to `times` and returns the last dataset. Each dataset is
/// freed after its clock stops, so the next call reuses its memory: calls
/// that need fresh pages read up to 70 % slower in phases.
fn time_setup(times: &mut Vec<f64>) -> Vec<StudyCase> {
    let mut cases = Vec::new();
    for _ in 0..SETUP_BATCH {
        let t = Instant::now();
        let fresh = black_box(all_cases());
        times.push(t.elapsed().as_secs_f64());
        cases = fresh;
    }
    cases
}

/// Runs a fixed xorshift kernel; its time tracks how fast the host runs
/// this process right now. Diagnostic only.
fn host_ref() -> f64 {
    let t = Instant::now();
    let mut x = black_box(0x2545_F491_4F6C_DD1Du64);
    for _ in 0..black_box(HOST_REF_ROUNDS) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    t.elapsed().as_secs_f64()
}

fn list(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
    items.join(" ")
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        f64::midpoint(v[mid - 1], v[mid])
    }
}

/// Peak resident set of this process, from `VmHWM`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// FNV-1a over this executable's bytes: counts are compared across runs
/// of the same build only.
fn build_id() -> Result<(u64, PathBuf), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate executable: {e}"))?;
    let bytes = std::fs::read(&exe).map_err(|e| format!("read executable: {e}"))?;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in &bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    Ok((h, exe))
}

/// Compares `counts` with the ones an earlier run of the same build
/// recorded for this workload and seed, recording them if none did. The
/// ledger lives beside the executable, inside the build directory.
fn check_ledger(workload: Workload, seed: u64, counts: Counts) -> Result<(), String> {
    let (id, exe) = build_id()?;
    let dir = exe
        .parent()
        .ok_or("executable has no directory")?
        .join("layerbench-counts");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("{id:016x}-{}-{seed}.txt", workload.name()));
    let line = counts.line();
    match std::fs::read_to_string(&path) {
        Ok(earlier) if earlier.trim() == line => Ok(()),
        Ok(earlier) => Err(format!(
            "counts differ from an earlier run of this build: {} then {line}",
            earlier.trim()
        )),
        Err(_) => {
            let tmp = path.with_extension("tmp");
            std::fs::write(&tmp, format!("{line}\n"))
                .and_then(|()| std::fs::rename(&tmp, &path))
                .map_err(|e| format!("write {}: {e}", path.display()))
        }
    }
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("layerbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("layerbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the benchmark and prints the result line; `Ok(false)` when a
/// check failed.
#[allow(clippy::too_many_lines)]
fn run(args: &Args) -> Result<bool, String> {
    let expected = args.workload.expected()?;
    let ref_start: Vec<f64> = (0..HOST_REF_REPS).map(|_| host_ref()).collect();

    // The host runs in slow and fast phases of seconds to minutes, so
    // set-up batches are spread over the whole run, like the passes.
    let mut setup = Vec::new();
    let cases = time_setup(&mut setup);
    let (mut cases, profiles) = args.workload.matrix(cases);
    permute(&mut cases, args.seed);
    eprintln!(
        "layerbench: {} = {} cases x {} profiles, seed {}, order [{}]",
        args.workload.name(),
        cases.len(),
        profiles.len(),
        args.seed,
        cases
            .iter()
            .map(|c| c.subject.name.as_str())
            .collect::<Vec<_>>()
            .join(" ")
    );

    let mut failures = Vec::new();
    let mut counts: Vec<(&str, Counts)> = Vec::new();

    let (warmup_s, warmup) = run_pass(&cases, &profiles, false);
    let (mut attempted, mut failed) =
        check_pass(&warmup, &cases, &profiles, &expected, &mut failures);
    counts.push(("warm-up", Counts::of(&warmup)));
    drop(warmup);

    let mut untraced = Vec::new();
    let mut traced: Vec<(f64, StudyReport)> = Vec::new();
    let window = Instant::now();
    loop {
        let observe = args.trace && untraced.len() > traced.len();
        let (wall, report) = run_pass(&cases, &profiles, observe);
        let (a, f) = check_pass(&report, &cases, &profiles, &expected, &mut failures);
        attempted += a;
        failed += f;
        counts.push((
            if observe { "traced" } else { "untraced" },
            Counts::of(&report),
        ));
        if observe {
            traced.push((wall, report));
        } else {
            untraced.push(wall);
        }
        time_setup(&mut setup);
        let done = window.elapsed().as_secs_f64() >= args.seconds;
        let enough = if args.trace {
            !traced.is_empty()
        } else {
            untraced.len() >= MIN_TIMED_PASSES
        };
        if done && enough {
            break;
        }
    }
    time_setup(&mut setup);
    let ref_end: Vec<f64> = (0..HOST_REF_REPS).map(|_| host_ref()).collect();

    let first = counts[0].1;
    let mut count_error = None;
    for (kind, c) in &counts {
        if *c != first {
            count_error = Some(format!(
                "counts differ between passes: {} first, then {kind} {}",
                first.line(),
                c.line()
            ));
        }
    }
    if count_error.is_none() {
        count_error = check_ledger(args.workload, args.seed, first).err();
    }

    let wall_s = median(&untraced);
    let setup_s = median(&setup);
    eprintln!(
        "layerbench: warm-up {warmup_s:.3}s; {} untraced passes, median {wall_s:.3}s [{}]",
        untraced.len(),
        list(&untraced)
    );
    eprintln!(
        "layerbench: set-up median {setup_s:.4}s of {} calls",
        setup.len()
    );
    eprintln!("layerbench: counts {}", first.line());
    eprintln!(
        "layerbench: host ref start [{}] end [{}]",
        list(&ref_start),
        list(&ref_end)
    );

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    let mut layer_sum_error = None;
    let (low, high) = args.workload.layer_sum_tolerance();
    if args.trace {
        let per_pass: Vec<_> = traced.iter().map(|(w, r)| layer_metrics(r, *w)).collect();
        for (i, &(name, _, unit)) in per_pass[0].iter().enumerate() {
            let values: Vec<f64> = per_pass.iter().map(|m| m[i].1).collect();
            metrics.push((name, median(&values), unit));
        }
        let traced_walls: Vec<f64> = traced.iter().map(|(w, _)| *w).collect();
        metrics.push(("core.warmup_pass_s", warmup_s, "s"));
        metrics.push(("obs.overhead_s", median(&traced_walls) - wall_s, "s"));
        let mut refs = ref_start.clone();
        refs.extend(&ref_end);
        metrics.push(("host.ref_s", median(&refs), "s"));
        for ((wall, _), m) in traced.iter().zip(&per_pass) {
            let gap = m
                .iter()
                .find(|(n, _, _)| *n == "core.layer_sum_gap_s")
                .map_or(0.0, |&(_, v, _)| v);
            let share = gap / wall;
            eprintln!(
                "layerbench: traced pass {wall:.3}s, unspanned {gap:.4}s = {:.2}% \
                 (allowed {:.0}% to {:.0}%)",
                100.0 * share,
                100.0 * low,
                100.0 * high
            );
            if !(low..=high).contains(&share) {
                layer_sum_error = Some(format!(
                    "layer sum misses the traced pass wall {wall:.3}s by {gap:.3}s"
                ));
            }
        }
    } else {
        metrics.push(("wall_s", wall_s, "s"));
        metrics.push(("setup_s", setup_s, "s"));
        metrics.push(("peak_rss_mb", peak_rss_mb()?, "MB"));
    }

    for f in &failures {
        eprintln!("layerbench: FAILED cell {f}");
    }
    for e in count_error.iter().chain(&layer_sum_error) {
        eprintln!("layerbench: FAILED {e}");
    }
    let correct = failures.is_empty() && count_error.is_none() && layer_sum_error.is_none();
    println!("{}", json_line(correct, attempted, failed, &metrics));
    Ok(correct)
}
