//! Parallel study runner: scheduling must never change the science.
//!
//! The report produced by `run_study_jobs` has to be byte-for-byte
//! identical for every worker count, and the solver's cross-round query
//! cache has to actually fire on multi-round explorations.

use bomblab::bombs::dataset;
use bomblab::concolic::checkpoint::{fingerprint, CellRecord, Journal};
use bomblab::concolic::{ground_truth, run_study_with, StaticHints, StudyOptions};
use bomblab::prelude::*;
use bomblab::solver::ShardCache;
use proptest::prelude::*;
use std::sync::Arc;

/// A representative slice: multi-round bombs (`parallel_thread`,
/// `jump_direct`), single-round failures, and a solved case.
fn slice() -> Vec<StudyCase> {
    vec![
        dataset::decl_time(),
        dataset::covert_stack(),
        dataset::array_l1(),
        dataset::ctx_syscallnum(),
        dataset::jump_direct(),
        dataset::parallel_thread(),
    ]
}

#[test]
fn parallel_report_matches_sequential_byte_for_byte() {
    let profiles = ToolProfile::paper_lineup();
    let sequential = run_study_jobs(&slice(), &profiles, 1).to_markdown();
    for jobs in [2, 4, 7] {
        let parallel = run_study_jobs(&slice(), &profiles, jobs).to_markdown();
        assert_eq!(
            sequential, parallel,
            "report changed under --jobs {jobs}: scheduling leaked into results"
        );
    }
}

#[test]
fn oversubscribed_pool_handles_fewer_items_than_workers() {
    let cases = vec![dataset::covert_stack()];
    let profiles = ToolProfile::paper_lineup();
    let sequential = run_study_jobs(&cases, &profiles, 1).to_markdown();
    let parallel = run_study_jobs(&cases, &profiles, 32).to_markdown();
    assert_eq!(sequential, parallel);
}

#[test]
fn multi_round_bombs_hit_the_query_cache() {
    // covert_syscall explores many rounds whose path prefixes overlap
    // heavily: the persistent solver must reuse blasted CNF and answer
    // repeat queries from its cache instead of re-solving. Only the
    // omniscient profile gets the incremental solver — the paper-tool
    // profiles run stateless so the framework's caching cannot make the
    // emulated 2017 tools stronger than their budget calibration.
    let case = dataset::covert_syscall();
    let ground = ground_truth(&case.subject, &case.trigger);
    let attempt = Engine::new(ToolProfile::omniscient()).explore(&case.subject, &ground);
    let ev = &attempt.evidence;
    assert!(
        ev.rounds > 1,
        "expected a multi-round exploration, got {}",
        ev.rounds
    );
    assert!(
        ev.cache_hits > 0,
        "cross-round query cache never hit: {ev:#?}"
    );
    assert!(
        ev.roots_reused > 0,
        "incremental blasting session never reused a constraint: {ev:#?}"
    );
    assert_eq!(
        ev.cache_hits,
        ev.cache_exact_hits + ev.cache_model_hits,
        "hit breakdown must sum to the total"
    );
}

#[test]
fn stateless_cells_that_reach_cdcl_count_their_blasting() {
    // A paper profile answers each query on a throwaway solver, so the
    // cell's cache and blasting counters are the sum of every query's
    // own stats, not a read of the engine's unused long-lived solver.
    let case = dataset::decl_syscall();
    let ground = ground_truth(&case.subject, &case.trigger);
    let attempt = Engine::new(ToolProfile::angr()).explore(&case.subject, &ground);
    let ev = &attempt.evidence;
    assert!(ev.propagations > 0, "expected a CDCL run: {ev:#?}");
    assert!(ev.roots_blasted > 0, "CDCL ran on unblasted roots: {ev:#?}");
    assert!(
        ev.cache_misses > 0,
        "CDCL ran without a cache miss: {ev:#?}"
    );
    assert_eq!(ev.cache_hits, 0, "stateless profile hit a cache: {ev:#?}");
}

/// Baseline report bytes for the fast three-bomb slice, computed once.
fn fast_baseline() -> &'static str {
    static BASELINE: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    BASELINE.get_or_init(|| {
        run_study_jobs(&fast_slice(), &ToolProfile::paper_lineup(), 1).to_markdown()
    })
}

fn fast_slice() -> Vec<StudyCase> {
    vec![
        dataset::decl_time(),
        dataset::covert_stack(),
        dataset::array_l1(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The cost-aware scheduler reads historical `wall_ns` from the
    /// checkpoint journal to pick its claim order. Whatever costs that
    /// journal carries — and therefore whatever permutation
    /// longest-processing-time-first produces — the report bytes must
    /// not move.
    #[test]
    fn report_bytes_are_invariant_under_random_journal_costs(
        costs in proptest::collection::vec(any::<u64>(), 12),
    ) {
        let cases = fast_slice();
        let profiles = ToolProfile::paper_lineup();
        let dir = std::env::temp_dir().join(format!(
            "bomblab-sched-costs-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);

        // Seed a journal whose wall_ns history is arbitrary. The cost
        // loader is fingerprint-agnostic, so any fingerprint works.
        let fp = fingerprint(["synthetic"]);
        let (mut journal, _) = Journal::open(&dir, fp, false).expect("open journal");
        let mut k = 0;
        for case in &cases {
            for profile in &profiles {
                journal
                    .append(&CellRecord {
                        index: k as u64,
                        bomb: case.subject.name.clone(),
                        profile: profile.name.clone(),
                        outcome: Outcome::Solved,
                        expected: None,
                        wall_ns: costs[k % costs.len()],
                        rounds: 1,
                        queries: 1,
                        injected_faults: 0,
                        fault_log: Vec::new(),
                        crash: None,
                        retries: 0,
                        quarantined: false,
                        retry_backoff_ns: 0,
                    })
                    .expect("append record");
                k += 1;
            }
        }
        drop(journal);

        let report = run_study_with(
            &cases,
            &profiles,
            &StudyOptions {
                jobs: 2,
                checkpoint: Some(dir.clone()),
                ..StudyOptions::default()
            },
        );
        let _ = std::fs::remove_dir_all(&dir);
        prop_assert_eq!(
            report.to_markdown(),
            fast_baseline(),
            "journal costs {:?} leaked into the report through the scheduler",
            costs
        );
    }
}

#[test]
fn paper_profiles_run_a_stateless_solver() {
    let case = dataset::covert_syscall();
    let ground = ground_truth(&case.subject, &case.trigger);
    // One store handed to every paper profile: none of them may attach it.
    let store = ShardCache::shared();
    for profile in ToolProfile::paper_lineup() {
        assert!(
            !profile.incremental_solver,
            "{}: paper-tool profiles must not reuse solver state across \
             queries — the Table-II budget is calibrated per fresh query",
            profile.name
        );
        let attempt = Engine::new(profile)
            .with_shared_cache(Some(Arc::clone(&store)))
            .explore(&case.subject, &ground);
        let ev = &attempt.evidence;
        assert_eq!(ev.cache_hits, 0, "stateless profile hit a cache: {ev:#?}");
        assert_eq!(ev.roots_reused, 0, "stateless profile reused CNF: {ev:#?}");
        assert_eq!(ev.shared_cache_hits, 0, "stateless profile read the store");
        assert_eq!(
            ev.shared_cache_stores, 0,
            "stateless profile wrote the store"
        );
        assert_eq!(store.entries(), 0, "stateless profile filled the store");
    }
    let omniscient = ToolProfile::omniscient();
    assert!(omniscient.incremental_solver);
    let attempt = Engine::new(omniscient)
        .with_shared_cache(Some(Arc::clone(&store)))
        .explore(&case.subject, &ground);
    assert!(attempt.evidence.shared_cache_stores > 0);
    assert!(
        store.entries() > 0,
        "the incremental profile must fill the store"
    );
}

#[test]
fn a_poisoned_store_costs_re_solves_never_verdicts() {
    // The covert family under Omniscient, in dataset order, once with no
    // store and once through one shared store that corrupts every model
    // it keeps. A corrupted model answers a slice only if it still
    // verifies, so rejections must fire and no outcome or solved input
    // may move.
    let cases: Vec<StudyCase> = bomblab::bombs::all_cases()
        .into_iter()
        .filter(|c| c.subject.name.starts_with("covert"))
        .collect();
    assert!(!cases.is_empty());
    let poisoned = Arc::new(ShardCache::poisoned());
    let mut rejected = 0;
    for case in &cases {
        let ground = ground_truth(&case.subject, &case.trigger);
        let analysis = bomblab::sa::analyze(&case.subject.image, case.subject.lib.as_ref());
        let engine = Engine::new(ToolProfile::omniscient())
            .with_static_hints(StaticHints::from_analysis(&analysis).with_dataflow(&analysis));
        let plain = engine.explore(&case.subject, &ground);
        let dirty = engine
            .with_shared_cache(Some(Arc::clone(&poisoned)))
            .explore(&case.subject, &ground);
        let name = &case.subject.name;
        assert_eq!(plain.outcome, dirty.outcome, "{name}: verdict moved");
        assert_eq!(
            plain.solved_input, dirty.solved_input,
            "{name}: solved input moved"
        );
        rejected += dirty.evidence.shared_cache_rejected;
    }
    assert!(rejected > 0, "no poisoned model was ever looked up");
}
