//! Benchmarks the study runner: a jobs-vs-wall-clock curve over the
//! worker pool (sequential always included), plus an incremental-profile
//! leg that exercises the solver's query cache and the shared cross-cell
//! cache. Emits `BENCH_study.json` (hand-rolled JSON, no serde
//! dependency).
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
use std::fmt::Write as _;
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

/// Sums every cell's evidence counters across a report.
#[derive(Default)]
struct Totals {
    hits: u64,
    misses: u64,
    blasted: u64,
    reused: u64,
    shared_hits: u64,
    shared_stores: u64,
    shared_rejected: u64,
    trace_full: u64,
    trace_elided: u64,
    trace_bytes: u64,
}

fn cache_totals(report: &StudyReport) -> Totals {
    let mut t = Totals::default();
    for cell in report.rows.iter().flat_map(|row| &row.cells) {
        let ev = &cell.attempt.evidence;
        t.hits += ev.cache_hits;
        t.misses += ev.cache_misses;
        t.blasted += ev.roots_blasted;
        t.reused += ev.roots_reused;
        t.shared_hits += ev.shared_cache_hits;
        t.shared_stores += ev.shared_cache_stores;
        t.shared_rejected += ev.shared_cache_rejected;
        t.trace_full += ev.trace_steps_full;
        t.trace_elided += ev.trace_steps_elided;
        t.trace_bytes += ev.trace_arena_bytes;
    }
    t
}

#[allow(clippy::too_many_arguments)]
fn render(
    report: &StudyReport,
    curve: &[(usize, f64)],
    incremental: &StudyReport,
    inc_s: f64,
    cores: usize,
    identical: bool,
    sched: (u64, u64),
) -> String {
    let mut cells = String::new();
    let (mut simp_hits, mut pruned, mut slices, mut witnessed) = (0u64, 0u64, 0u64, 0u64);
    let (mut simp_ns, mut intv_ns, mut slice_ns) = (0u64, 0u64, 0u64);
    let (mut vm_steps, mut bb_hits, mut bb_misses, mut decoded) = (0u64, 0u64, 0u64, 0u64);
    let mut bb_invalidations = 0u64;
    let (mut blockers, mut propagations, mut evictions) = (0u64, 0u64, 0u64);
    let (mut retries, mut quarantined, mut backoff_ns) = (0u64, 0u64, 0u64);
    for row in &report.rows {
        for cell in &row.cells {
            let ev = &cell.attempt.evidence;
            simp_hits += ev.simplify_hits;
            pruned += ev.terms_pruned;
            slices += ev.slices;
            witnessed += ev.witness_hits;
            simp_ns += ev.simplify_ns;
            intv_ns += ev.interval_ns;
            slice_ns += ev.slice_ns;
            vm_steps += ev.vm_steps;
            bb_hits += ev.bb_hits;
            bb_misses += ev.bb_misses;
            bb_invalidations += ev.bb_invalidations;
            decoded += ev.steps_decoded;
            blockers += ev.blocker_skips;
            propagations += ev.propagations;
            evictions += ev.lbd_evictions;
            retries += u64::from(ev.retries);
            quarantined += u64::from(ev.quarantined);
            backoff_ns += ev.retry_backoff_ns;
            if !cells.is_empty() {
                cells.push_str(",\n");
            }
            // Derived steps/second from the cell's own VM wall clock;
            // null when the VM never ran (no rate to report).
            let steps_per_sec = if ev.vm_ns > 0 {
                format!("{:.0}", ev.vm_steps as f64 / (ev.vm_ns as f64 / 1e9))
            } else {
                "null".to_string()
            };
            let _ = write!(
                cells,
                "    {{\"case\": \"{}\", \"profile\": \"{}\", \"outcome\": \"{}\", \
                 \"wall_ms\": {:.3}, \"rounds\": {}, \"queries\": {}, \
                 \"vm_ms\": {:.3}, \"taint_ms\": {:.3}, \"symex_ms\": {:.3}, \"solver_ms\": {:.3}, \
                 \"vm_steps\": {}, \"steps_per_sec\": {steps_per_sec}, \
                 \"simplify_hits\": {}, \"terms_pruned\": {}, \"slices\": {}, \
                 \"witness_hits\": {}, \
                 \"simplify_ms\": {:.3}, \"interval_ms\": {:.3}, \"slice_ms\": {:.3}, \
                 \"cache_hits\": {}, \"cache_misses\": {}, \
                 \"roots_blasted\": {}, \"roots_reused\": {}, \
                 \"propagations\": {}, \"blocker_skips\": {}, \
                 \"retries\": {}, \"quarantined\": {}}}",
                row.name,
                cell.profile,
                cell.outcome,
                cell.wall_ns as f64 / 1e6,
                ev.rounds,
                ev.queries,
                ev.vm_ns as f64 / 1e6,
                ev.taint_ns as f64 / 1e6,
                ev.symex_ns as f64 / 1e6,
                ev.solver_ns as f64 / 1e6,
                ev.vm_steps,
                ev.simplify_hits,
                ev.terms_pruned,
                ev.slices,
                ev.witness_hits,
                ev.simplify_ns as f64 / 1e6,
                ev.interval_ns as f64 / 1e6,
                ev.slice_ns as f64 / 1e6,
                ev.cache_hits,
                ev.cache_misses,
                ev.roots_blasted,
                ev.roots_reused,
                ev.propagations,
                ev.blocker_skips,
                ev.retries,
                ev.quarantined,
            );
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
    // carry signal. Same split for the trace path: the paper lineup
    // records full arena capture (Table II must not depend on elision),
    // while Omniscient arms the taint gate and records sparse — its
    // `trace_steps_elided` total is the elision counter.
    let paper = cache_totals(report);
    let inc = cache_totals(incremental);
    format!(
        "{{\n  \"bench\": \"study\",\n  \"cores\": {cores},\n  \"bombs\": {},\n  \
         \"profiles\": {},\n  \"sequential_s\": {seq_s:.3},\n  \"parallel_jobs\": {par_jobs},\n  \
         \"parallel_s\": {par_s:.3},\n  \"speedup\": {speedup},\n  \
         \"jobs_curve\": [{jobs_curve}],\n  \
         \"reports_identical\": {identical},\n  \
         \"scheduler\": {{\"sched_costed\": {}, \"sched_estimated\": {}}},\n  \
         \"solver_cache\": {{\"hits\": {}, \
         \"misses\": {}, \"roots_blasted\": {}, \"roots_reused\": {}, \
         \"shared_cache_hits\": {}, \"shared_cache_stores\": {}, \
         \"shared_cache_rejected\": {}}},\n  \
         \"incremental\": {{\"profile\": \"Omniscient\", \"bombs\": {}, \
         \"wall_s\": {inc_s:.3}, \
         \"cache_hits\": {}, \"cache_misses\": {}, \
         \"roots_blasted\": {}, \"roots_reused\": {}, \
         \"shared_cache_hits\": {}, \"shared_cache_stores\": {}, \
         \"shared_cache_rejected\": {}, \
         \"trace_steps_full\": {}, \"trace_steps_elided\": {}, \
         \"trace_arena_bytes\": {}}},\n  \
         \"optimizer\": {{\"simplify_hits\": {simp_hits}, \"terms_pruned\": {pruned}, \
         \"slices\": {slices}, \"witness_hits\": {witnessed}, \
         \"simplify_ms\": {:.3}, \"interval_ms\": {:.3}, \
         \"slice_ms\": {:.3}}},\n  \
         \"vm\": {{\"vm_steps\": {vm_steps}, \"bb_hits\": {bb_hits}, \
         \"bb_misses\": {bb_misses}, \"bb_invalidations\": {bb_invalidations}, \
         \"steps_decoded\": {decoded}}},\n  \
         \"trace\": {{\"path\": \"arena\", \"paper_capture\": \"full\", \
         \"incremental_capture\": \"sparse\", \"steps_full\": {}, \
         \"steps_elided\": {}, \"arena_bytes\": {}}},\n  \
         \"sat\": {{\"propagations\": {propagations}, \"blocker_skips\": {blockers}, \
         \"lbd_evictions\": {evictions}}},\n  \
         \"durability\": {{\"retries\": {retries}, \"quarantined\": {quarantined}, \
         \"retry_backoff_ms\": {:.3}, \"cells_replayed\": {}, \
         \"checkpoint_io_errors\": {}}},\n  \
         \"cells\": [\n{cells}\n  ]\n}}\n",
        report.rows.len(),
        report.profiles.len(),
        sched.0,
        sched.1,
        paper.hits,
        paper.misses,
        paper.blasted,
        paper.reused,
        paper.shared_hits,
        paper.shared_stores,
        paper.shared_rejected,
        incremental.rows.len(),
        inc.hits,
        inc.misses,
        inc.blasted,
        inc.reused,
        inc.shared_hits,
        inc.shared_stores,
        inc.shared_rejected,
        inc.trace_full,
        inc.trace_elided,
        inc.trace_bytes,
        simp_ns as f64 / 1e6,
        intv_ns as f64 / 1e6,
        slice_ns as f64 / 1e6,
        paper.trace_full,
        paper.trace_elided,
        paper.trace_bytes,
        backoff_ns as f64 / 1e6,
        report.stats.cells_replayed,
        report.stats.checkpoint_io_errors,
    )
}
