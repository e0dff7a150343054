//! # bomblab-obs — structured tracing and metrics for the study pipeline
//!
//! The paper's evaluation is about *where* concolic execution spends
//! itself to death: constraint inflation (Fig. 3), solver exhaustion on
//! the crypto rows, per-stage cost splits. This crate is the shared
//! observability substrate that makes those costs inspectable without
//! perturbing the science:
//!
//! * **Spans** — named pipeline stages (`vm.run`, `taint.run`,
//!   `symex.run`, `solver.check`, `sa.analyze`, `lift`) record their
//!   duration per (bomb, profile, round) via [`span_ns`].
//! * **Counters and histograms** — [`counter`] and [`hist`] absorb the
//!   scattered ad-hoc instrumentation (solver cache hits, roots
//!   blasted/reused, query conflict counts) into one per-cell profile
//!   that a [`MetricsRegistry`] aggregates study-wide.
//! * **Events** — [`event`] records structured occurrences (one per
//!   solver query, say) with typed fields.
//! * **Per-cell profiles** — the study runner arms a collection context
//!   around each (bomb, profile) cell with [`arm`]/[`disarm`]; the
//!   returned [`CellProfile`] travels with the cell result and is
//!   rendered to a JSONL trace ([`trace`]) in deterministic dataset
//!   order, so the Table-II report itself never depends on timing.
//!
//! **Zero-overhead discipline** (same as `bomblab-fault`): when no
//! context is armed anywhere in the process, every instrumentation site
//! is a single relaxed atomic load — no allocation, no branch on
//! thread-local state, no clock read. `obs_overhead` in `crates/bench`
//! is the microbench backing that claim.

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod fnv;
pub mod json;
pub mod trace;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Number of threads with an armed collection context. Zero in normal
/// operation, which makes every instrumentation site a single relaxed
/// load.
static ARMED_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Is an observation context armed on *any* thread? This is the fast
/// gate every site checks first; false means the site returns
/// immediately.
#[inline]
pub fn armed() -> bool {
    ARMED_THREADS.load(Ordering::Relaxed) != 0
}

/// A typed value attached to an [`event`] field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Field {
    /// Unsigned integer field.
    U64(u64),
    /// String field.
    Str(String),
    /// Boolean field.
    Bool(bool),
}

impl fmt::Display for Field {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Field::U64(v) => write!(f, "{v}"),
            Field::Str(s) => write!(f, "{s}"),
            Field::Bool(b) => write!(f, "{b}"),
        }
    }
}

/// One recorded stage duration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Stage name (`vm.run`, `taint.run`, ...).
    pub stage: &'static str,
    /// Engine round the span belongs to (0 before the first round).
    pub round: u32,
    /// Per-cell monotone sequence number shared with events.
    pub seq: u64,
    /// Duration in nanoseconds.
    pub ns: u64,
}

/// One recorded structured event.
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    /// Event name (`solver.query`, ...).
    pub name: &'static str,
    /// Engine round the event belongs to.
    pub round: u32,
    /// Per-cell monotone sequence number shared with spans.
    pub seq: u64,
    /// Typed fields, in insertion order.
    pub fields: Vec<(&'static str, Field)>,
}

/// A power-of-two histogram: bucket `0` counts zero values, bucket `i`
/// (1..=64) counts values whose bit length is `i` (i.e. in
/// `[2^(i-1), 2^i)`). Cheap to record, exact on count/sum/min/max,
/// mergeable across cells and worker threads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values (saturating).
    pub sum: u64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
    /// Bucket counts; see the type docs for the bucketing rule.
    pub buckets: [u64; 65],
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            buckets: [0; 65],
        }
    }
}

impl Histogram {
    /// The bucket index a value lands in.
    #[must_use]
    pub fn bucket_of(value: u64) -> usize {
        (64 - value.leading_zeros()) as usize
    }

    /// Records one value.
    pub fn record(&mut self, value: u64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.buckets[Histogram::bucket_of(value)] += 1;
    }

    /// Merges another histogram into this one. Exact: the merge of two
    /// histograms equals the histogram of the concatenated samples.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
    }

    /// Mean of the recorded values (0 when empty).
    #[must_use]
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// The non-empty buckets as `(index, count)` pairs.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
    }
}

/// Everything one armed window observed: the cell identity, the span and
/// event streams, and the final counter/histogram values. Travels with
/// the study's cell results and renders to JSONL via [`trace`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CellProfile {
    /// Bomb (dataset case) name.
    pub bomb: String,
    /// Tool profile name (or a pseudo-profile like `oracle+static`).
    pub profile: String,
    /// Recorded spans, in completion order.
    pub spans: Vec<SpanRecord>,
    /// Recorded events, in emission order.
    pub events: Vec<EventRecord>,
    /// Final counter values.
    pub counters: BTreeMap<&'static str, u64>,
    /// Final histograms.
    pub hists: BTreeMap<&'static str, Histogram>,
}

impl CellProfile {
    /// A counter's final value (0 when never bumped).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Total nanoseconds and span count per stage.
    #[must_use]
    pub fn stage_totals(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut totals: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for span in &self.spans {
            let entry = totals.entry(span.stage).or_insert((0, 0));
            entry.0 += 1;
            entry.1 += span.ns;
        }
        totals
    }

    /// Appends a later window observed on the same cell: its spans and
    /// events follow this profile's in sequence order, its counters add
    /// and its histograms merge.
    pub fn append(&mut self, later: CellProfile) {
        let next = self
            .spans
            .iter()
            .map(|s| s.seq)
            .chain(self.events.iter().map(|e| e.seq))
            .max()
            .map_or(0, |seq| seq + 1);
        self.spans
            .extend(later.spans.into_iter().map(|s| SpanRecord {
                seq: s.seq + next,
                ..s
            }));
        self.events
            .extend(later.events.into_iter().map(|e| EventRecord {
                seq: e.seq + next,
                ..e
            }));
        for (name, value) in later.counters {
            *self.counters.entry(name).or_insert(0) += value;
        }
        for (name, hist) in later.hists {
            self.hists.entry(name).or_default().merge(&hist);
        }
    }
}

/// Study-wide aggregation of per-cell profiles: counters summed,
/// histograms merged, stage totals accumulated. Mergeable, so partial
/// registries built by worker threads combine associatively.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    /// Summed counters, keyed by site name.
    pub counters: BTreeMap<String, u64>,
    /// Merged histograms, keyed by site name.
    pub hists: BTreeMap<String, Histogram>,
    /// `(span count, total ns)` per stage.
    pub stages: BTreeMap<String, (u64, u64)>,
    /// Number of cell profiles absorbed.
    pub cells: u64,
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Adds `delta` to a counter.
    pub fn add_counter(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Records one value into a histogram.
    pub fn record(&mut self, name: &str, value: u64) {
        self.hists
            .entry(name.to_string())
            .or_default()
            .record(value);
    }

    /// A counter's aggregated value (0 when absent).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Absorbs one cell profile: counters summed, histograms merged,
    /// spans folded into the per-stage totals.
    pub fn absorb(&mut self, cell: &CellProfile) {
        self.cells += 1;
        for (&name, &value) in &cell.counters {
            *self.counters.entry(name.to_string()).or_insert(0) += value;
        }
        for (&name, hist) in &cell.hists {
            self.hists.entry(name.to_string()).or_default().merge(hist);
        }
        for (stage, (hits, ns)) in cell.stage_totals() {
            let entry = self.stages.entry(stage.to_string()).or_insert((0, 0));
            entry.0 += hits;
            entry.1 += ns;
        }
    }

    /// Merges another registry into this one (associative, so partial
    /// registries built per worker combine in any grouping).
    pub fn merge(&mut self, other: &MetricsRegistry) {
        self.cells += other.cells;
        for (name, value) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += value;
        }
        for (name, hist) in &other.hists {
            self.hists.entry(name.clone()).or_default().merge(hist);
        }
        for (stage, &(hits, ns)) in &other.stages {
            let entry = self.stages.entry(stage.clone()).or_insert((0, 0));
            entry.0 += hits;
            entry.1 += ns;
        }
    }
}

struct ObsState {
    bomb: String,
    profile: String,
    round: u32,
    seq: u64,
    spans: Vec<SpanRecord>,
    events: Vec<EventRecord>,
    counters: BTreeMap<&'static str, u64>,
    hists: BTreeMap<&'static str, Histogram>,
}

thread_local! {
    static ACTIVE: RefCell<Option<ObsState>> = const { RefCell::new(None) };
}

/// Is an observation context armed on *this* thread? Unlike [`armed`],
/// the answer does not depend on what other threads are doing, so this is
/// the check for callers and tests that ask about their own window.
pub fn armed_here() -> bool {
    ACTIVE.with(|a| a.borrow().is_some())
}

/// Token proving an observation context is armed on this thread. Pass it
/// back to [`disarm`] (after any `catch_unwind`, so the profile survives
/// a panicking cell) to collect the [`CellProfile`].
#[must_use = "pass the token to disarm() to collect the cell profile"]
pub struct ObsToken {
    _private: (),
}

/// Arms a per-cell observation context on the current thread. Contexts
/// do not stack: arming over an existing context (possible only when a
/// panic unwound past a [`disarm`] and was contained upstream) discards
/// the stale context without double-counting the thread as armed.
pub fn arm(bomb: &str, profile: &str) -> ObsToken {
    let had_stale = ACTIVE.with(|a| {
        let mut a = a.borrow_mut();
        let had_stale = a.is_some();
        *a = Some(ObsState {
            bomb: bomb.to_string(),
            profile: profile.to_string(),
            round: 0,
            seq: 0,
            spans: Vec::new(),
            events: Vec::new(),
            counters: BTreeMap::new(),
            hists: BTreeMap::new(),
        });
        had_stale
    });
    if !had_stale {
        ARMED_THREADS.fetch_add(1, Ordering::Relaxed);
    }
    ObsToken { _private: () }
}

/// Disarms the context armed by [`arm`] and returns what it collected.
pub fn disarm(token: ObsToken) -> CellProfile {
    let _ = token;
    ARMED_THREADS.fetch_sub(1, Ordering::Relaxed);
    ACTIVE.with(|a| {
        a.borrow_mut()
            .take()
            .map_or_else(CellProfile::default, |s| CellProfile {
                bomb: s.bomb,
                profile: s.profile,
                spans: s.spans,
                events: s.events,
                counters: s.counters,
                hists: s.hists,
            })
    })
}

#[inline]
fn with_state(f: impl FnOnce(&mut ObsState)) {
    ACTIVE.with(|a| {
        if let Some(state) = a.borrow_mut().as_mut() {
            f(state);
        }
    });
}

/// Tags subsequent spans and events with the engine round number.
/// No-op when unarmed.
#[inline]
pub fn set_round(round: u32) {
    if !armed() {
        return;
    }
    with_state(|s| s.round = round);
}

/// Starts a conditional stopwatch: `Some(Instant)` when a context is
/// armed somewhere, `None` otherwise (no clock read on the fast path).
/// Pair with [`span_ns`]:
///
/// ```
/// let t = bomblab_obs::start();
/// // ... stage work ...
/// if let Some(t) = t {
///     bomblab_obs::span_ns("stage.name", t.elapsed().as_nanos() as u64);
/// }
/// ```
#[inline]
pub fn start() -> Option<Instant> {
    armed().then(Instant::now)
}

/// Records a completed stage span of `ns` nanoseconds. No-op when this
/// thread has no armed context.
#[inline]
pub fn span_ns(stage: &'static str, ns: u64) {
    if !armed() {
        return;
    }
    span_ns_slow(stage, ns);
}

#[cold]
fn span_ns_slow(stage: &'static str, ns: u64) {
    with_state(|s| {
        let seq = s.seq;
        s.seq += 1;
        s.spans.push(SpanRecord {
            stage,
            round: s.round,
            seq,
            ns,
        });
    });
}

/// Adds `delta` to a per-cell counter. Inert (a single relaxed load)
/// when nothing is armed.
#[inline]
pub fn counter(name: &'static str, delta: u64) {
    if !armed() {
        return;
    }
    counter_slow(name, delta);
}

#[cold]
fn counter_slow(name: &'static str, delta: u64) {
    with_state(|s| *s.counters.entry(name).or_insert(0) += delta);
}

/// Records one value into a per-cell histogram. Inert when unarmed.
#[inline]
pub fn hist(name: &'static str, value: u64) {
    if !armed() {
        return;
    }
    hist_slow(name, value);
}

#[cold]
fn hist_slow(name: &'static str, value: u64) {
    with_state(|s| s.hists.entry(name).or_default().record(value));
}

/// Emits a structured event. The field vector is built lazily so an
/// unarmed site pays nothing for it.
#[inline]
pub fn event(name: &'static str, fields: impl FnOnce() -> Vec<(&'static str, Field)>) {
    if !armed() {
        return;
    }
    event_slow(name, fields());
}

#[cold]
fn event_slow(name: &'static str, fields: Vec<(&'static str, Field)>) {
    with_state(|s| {
        let seq = s.seq;
        s.seq += 1;
        s.events.push(EventRecord {
            name,
            round: s.round,
            seq,
            fields,
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_sites_are_inert() {
        assert!(!armed_here());
        counter("x", 1);
        hist("y", 7);
        span_ns("z", 10);
        set_round(3);
        event("e", || vec![("k", Field::U64(1))]);
        assert_eq!(start(), None);
        // Arming afterwards sees none of it.
        let token = arm("bomb", "tool");
        let profile = disarm(token);
        assert!(profile.spans.is_empty());
        assert!(profile.events.is_empty());
        assert!(profile.counters.is_empty());
        assert!(profile.hists.is_empty());
    }

    #[test]
    fn armed_window_collects_spans_events_counters_hists() {
        let token = arm("decl_time", "BAP");
        set_round(1);
        span_ns("vm.run", 500);
        counter("vm.steps", 120);
        counter("vm.steps", 30);
        hist("solver.conflicts", 4);
        hist("solver.conflicts", 9);
        set_round(2);
        event("solver.query", || {
            vec![
                ("outcome", Field::Str("sat".to_string())),
                ("cache_hit", Field::Bool(false)),
                ("conflicts", Field::U64(9)),
            ]
        });
        span_ns("taint.run", 250);
        let p = disarm(token);
        assert_eq!(p.bomb, "decl_time");
        assert_eq!(p.profile, "BAP");
        assert_eq!(p.counter("vm.steps"), 150);
        assert_eq!(p.spans.len(), 2);
        assert_eq!(p.spans[0].round, 1);
        assert_eq!(p.spans[1].round, 2);
        assert_eq!(p.events.len(), 1);
        assert_eq!(p.events[0].round, 2);
        let h = &p.hists["solver.conflicts"];
        assert_eq!((h.count, h.sum, h.min, h.max), (2, 13, 4, 9));
        // Sequence numbers are shared and monotone across spans + events.
        let mut seqs: Vec<u64> = p.spans.iter().map(|s| s.seq).collect();
        seqs.extend(p.events.iter().map(|e| e.seq));
        seqs.sort_unstable();
        assert_eq!(seqs, vec![0, 1, 2]);
        // Fully reset after disarm.
        assert!(!armed_here());
    }

    #[test]
    fn histogram_bucketing_and_merge_are_exact() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);

        let samples_a = [0u64, 1, 3, 900, 7];
        let samples_b = [2u64, 2, 1 << 40];
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        let mut whole = Histogram::default();
        for &v in &samples_a {
            a.record(v);
            whole.record(v);
        }
        for &v in &samples_b {
            b.record(v);
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a, whole, "merge must equal the concatenated sample set");
        assert_eq!(a.count, 8);
        assert_eq!(a.min, 0);
        assert_eq!(a.max, 1 << 40);
        assert_eq!(a.mean(), whole.sum / 8);

        // Merging an empty histogram is the identity, both ways.
        let mut empty = Histogram::default();
        empty.merge(&whole);
        assert_eq!(empty, whole);
        let mut copy = whole.clone();
        copy.merge(&Histogram::default());
        assert_eq!(copy, whole);
    }

    #[test]
    fn registry_absorbs_and_merges_associatively() {
        let mk = |bomb: &str, steps: u64, ns: u64| {
            let token = arm(bomb, "tool");
            counter("vm.steps", steps);
            hist("solver.conflicts", steps / 2);
            span_ns("vm.run", ns);
            disarm(token)
        };
        let cells = [mk("a", 10, 100), mk("b", 20, 200), mk("c", 30, 300)];

        let mut whole = MetricsRegistry::new();
        for c in &cells {
            whole.absorb(c);
        }
        // Partial registries merged in a different grouping agree.
        let mut left = MetricsRegistry::new();
        left.absorb(&cells[0]);
        let mut right = MetricsRegistry::new();
        right.absorb(&cells[1]);
        right.absorb(&cells[2]);
        left.merge(&right);
        assert_eq!(left, whole);
        assert_eq!(whole.counter("vm.steps"), 60);
        assert_eq!(whole.cells, 3);
        assert_eq!(whole.stages["vm.run"], (3, 600));
        assert_eq!(whole.hists["solver.conflicts"].count, 3);
    }

    #[test]
    fn counters_aggregate_exactly_under_a_worker_pool() {
        // The study's worker pool arms one context per cell per thread;
        // the registry must add up regardless of interleaving.
        use std::sync::Mutex;
        let registry = Mutex::new(MetricsRegistry::new());
        std::thread::scope(|scope| {
            for w in 0..4u64 {
                let registry = &registry;
                scope.spawn(move || {
                    for i in 0..8u64 {
                        let token = arm(&format!("bomb{w}_{i}"), "tool");
                        counter("work.items", 1);
                        counter("work.units", w * 8 + i);
                        hist("work.size", i);
                        span_ns("work.stage", 10);
                        let profile = disarm(token);
                        registry.lock().expect("registry lock").absorb(&profile);
                    }
                    assert!(!armed_here(), "worker {w} disarmed every context");
                });
            }
        });
        let reg = registry.into_inner().expect("registry");
        assert_eq!(reg.cells, 32);
        assert_eq!(reg.counter("work.items"), 32);
        assert_eq!(reg.counter("work.units"), (0..32).sum::<u64>());
        assert_eq!(reg.hists["work.size"].count, 32);
        assert_eq!(reg.stages["work.stage"], (32, 320));
    }

    #[test]
    fn stage_totals_fold_spans_per_stage() {
        let token = arm("b", "p");
        span_ns("vm.run", 10);
        span_ns("vm.run", 20);
        span_ns("taint.run", 5);
        let p = disarm(token);
        let totals = p.stage_totals();
        assert_eq!(totals["vm.run"], (2, 30));
        assert_eq!(totals["taint.run"], (1, 5));
    }
}
