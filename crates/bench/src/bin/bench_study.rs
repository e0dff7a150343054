//! Benchmarks the study runner: a jobs-vs-wall-clock curve over the
//! worker pool (sequential always included), plus an incremental-profile
//! leg that exercises the solver's query cache and the shared cross-cell
//! cache. Emits `BENCH_study.json` (hand-rolled JSON, no serde
//! dependency): per-cell wall time and nonzero `Evidence::counters`, and
//! the summed counters of each lineup.
//!
//! ```text
//! bench_study [--jobs N|auto] [--out PATH]
//! ```
//!
//! The curve always starts at `--jobs 1`; on a multi-core machine it adds
//! `--jobs 2` and `--jobs <cores>`. `--jobs` appends one extra explicit
//! leg (default `min(4, cores)` — never oversubscribe a small box just
//! because the paper machine had four cores). `speedup` is the sequential
//! wall over the best parallel leg, and is `null` only on a single-core
//! machine where any ratio would measure scheduler overhead, not
//! parallelism.

use bomblab_bombs::all_cases;
use bomblab_concolic::{run_study_with, StudyOptions, StudyReport, ToolProfile};
use bomblab_obs::json::u64_object;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let mut jobs = 4.min(cores);
    let mut out_path = "BENCH_study.json".to_string();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--jobs" || arg == "-j" {
            jobs = parse_jobs(it.next().expect("--jobs needs a value"), cores);
        } else if let Some(n) = arg.strip_prefix("--jobs=") {
            jobs = parse_jobs(n, cores);
        } else if arg == "--out" {
            out_path = it.next().expect("--out needs a path").clone();
        }
    }

    let cases = all_cases();
    let profiles = ToolProfile::paper_lineup();

    // The curve: sequential, then {2, cores} when they exist, then the
    // explicit leg. Sorted and deduplicated so each level runs once.
    let mut levels = vec![1];
    if cores > 1 {
        levels.extend([2, cores]);
    }
    levels.push(jobs);
    levels.sort_unstable();
    levels.dedup();

    eprintln!(
        "bench_study: {} bombs x {} profiles, jobs curve {levels:?} ({cores} core(s))",
        cases.len(),
        profiles.len()
    );

    let mut curve: Vec<(usize, f64)> = Vec::new();
    let mut baseline: Option<StudyReport> = None;
    let mut identical = true;
    // The LPT scheduler only arms on parallel legs; keep the counters
    // from the widest one.
    let mut sched = (0u64, 0u64);
    for &level in &levels {
        let t = Instant::now();
        let report = run_study_with(
            &cases,
            &profiles,
            &StudyOptions {
                jobs: level,
                ..StudyOptions::default()
            },
        );
        let wall = t.elapsed().as_secs_f64();
        eprintln!("  --jobs {level}: {wall:.2}s");
        curve.push((level, wall));
        if level > 1 {
            sched = (report.stats.sched_costed, report.stats.sched_estimated);
        }
        match &baseline {
            None => baseline = Some(report),
            Some(seq) => identical &= seq.to_markdown() == report.to_markdown(),
        }
    }
    let sequential = baseline.expect("curve always includes --jobs 1");
    let seq_s = curve[0].1;

    // The incremental leg: one Omniscient column with the query cache and
    // shared cross-cell cache live (read-through). The paper lineup is
    // stateless by design, so this leg is where the cache counters in the
    // report measure something real. The omniscient solver grinds the
    // PRNG/crypto bombs for tens of minutes each, so those three are
    // excluded — this leg measures cache traffic, not crypto hardness.
    const SLOW_FOR_OMNISCIENT: [&str; 3] = ["ext_srand", "crypto_sha1", "crypto_aes"];
    let inc_cases: Vec<_> = all_cases()
        .into_iter()
        .filter(|c| !SLOW_FOR_OMNISCIENT.contains(&c.subject.name.as_str()))
        .collect();
    eprintln!(
        "  incremental leg: {} bombs (excluding {:?})",
        inc_cases.len(),
        SLOW_FOR_OMNISCIENT
    );
    let t = Instant::now();
    let incremental = run_study_with(
        &inc_cases,
        &[ToolProfile::omniscient()],
        &StudyOptions {
            jobs: *levels.last().expect("levels is non-empty"),
            ..StudyOptions::default()
        },
    );
    let inc_s = t.elapsed().as_secs_f64();
    eprintln!("  incremental (Omniscient): {inc_s:.2}s");

    let json = render(
        &sequential,
        &curve,
        &incremental,
        inc_s,
        cores,
        identical,
        sched,
    );
    std::fs::write(&out_path, &json).expect("write BENCH_study.json");
    let best_par = curve
        .iter()
        .filter(|(level, _)| *level > 1)
        .map(|&(_, wall)| wall)
        .fold(f64::INFINITY, f64::min);
    if cores > 1 && best_par.is_finite() {
        eprintln!(
            "sequential {seq_s:.2}s, best parallel {best_par:.2}s ({:.2}x), reports identical: {identical}",
            seq_s / best_par
        );
    } else {
        // On one core the parallel leg is pure oversubscription; a
        // "speedup" ratio would be noise, not signal.
        eprintln!("sequential {seq_s:.2}s (single core, no speedup measured)");
    }
    eprintln!("wrote {out_path}");
    assert!(identical, "parallel report diverged from sequential");
}

fn parse_jobs(value: &str, cores: usize) -> usize {
    if value == "auto" {
        return cores;
    }
    let n: usize = value.parse().expect("--jobs needs a number or `auto`");
    assert!(n > 0, "--jobs must be at least 1");
    n
}

fn render(
    report: &StudyReport,
    curve: &[(usize, f64)],
    incremental: &StudyReport,
    inc_s: f64,
    cores: usize,
    identical: bool,
    sched: (u64, u64),
) -> String {
    let mut cells = Vec::new();
    let (mut retries, mut quarantined, mut backoff_ns) = (0u64, 0u64, 0u64);
    for row in &report.rows {
        for cell in &row.cells {
            let ev = &cell.attempt.evidence;
            retries += u64::from(ev.retries);
            quarantined += u64::from(ev.quarantined);
            backoff_ns += ev.retry_backoff_ns;
            cells.push(format!(
                "    {{\"case\": \"{}\", \"profile\": \"{}\", \"outcome\": \"{}\", \
                 \"wall_ms\": {:.3}, \"counters\": {}}}",
                row.name,
                cell.profile,
                cell.outcome,
                cell.wall_ns as f64 / 1e6,
                ev.counters_json(),
            ));
        }
    }
    let seq_s = curve[0].1;
    let jobs_curve = curve
        .iter()
        .map(|&(level, wall)| format!("{{\"jobs\": {level}, \"wall_s\": {wall:.3}}}"))
        .collect::<Vec<_>>()
        .join(", ");
    // Compatibility fields: the highest-jobs leg stands in for the old
    // single "parallel" measurement.
    let &(par_jobs, par_s) = curve.last().expect("curve is non-empty");
    // A speedup ratio on a single core measures scheduler overhead, not
    // parallelism: report null so downstream jq does not mistake it for a
    // regression (or an impossible win).
    let best_par = curve
        .iter()
        .filter(|(level, _)| *level > 1)
        .map(|&(_, wall)| wall)
        .fold(f64::INFINITY, f64::min);
    let speedup = if cores > 1 && best_par.is_finite() {
        format!("{:.3}", seq_s / best_par)
    } else {
        "null".to_string()
    };
    // The stateless paper lineup never reads a cache; the incremental
    // Omniscient leg is where the query-cache and shared-cache counters
    // carry signal.
    format!(
        "{{\n  \"bench\": \"study\",\n  \"cores\": {cores},\n  \"bombs\": {},\n  \
         \"profiles\": {},\n  \"sequential_s\": {seq_s:.3},\n  \"parallel_jobs\": {par_jobs},\n  \
         \"parallel_s\": {par_s:.3},\n  \"speedup\": {speedup},\n  \
         \"jobs_curve\": [{jobs_curve}],\n  \
         \"reports_identical\": {identical},\n  \
         \"scheduler\": {{\"sched_costed\": {}, \"sched_estimated\": {}}},\n  \
         \"paper\": {{\"counters\": {}}},\n  \
         \"incremental\": {{\"profile\": \"Omniscient\", \"bombs\": {}, \
         \"wall_s\": {inc_s:.3}, \"counters\": {}}},\n  \
         \"durability\": {{\"retries\": {retries}, \"quarantined\": {quarantined}, \
         \"retry_backoff_ms\": {:.3}, \"cells_replayed\": {}, \
         \"checkpoint_io_errors\": {}}},\n  \
         \"cells\": [\n{}\n  ]\n}}\n",
        report.rows.len(),
        report.profiles.len(),
        sched.0,
        sched.1,
        u64_object(report.counter_totals()),
        incremental.rows.len(),
        u64_object(incremental.counter_totals()),
        backoff_ns as f64 / 1e6,
        report.stats.cells_replayed,
        report.stats.checkpoint_io_errors,
        cells.join(",\n"),
    )
}
