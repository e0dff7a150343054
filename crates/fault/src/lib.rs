//! # bomblab-fault — deterministic fault injection and crash containment
//!
//! The paper's Table II reserves a whole outcome label (`E`, abnormal exit
//! or timeout) for tools that die on a bomb. This crate gives the
//! reproduction the machinery to *exercise* that label on itself:
//!
//! * **Fault points** — named sites ([`FaultSite`]) compiled into the VM
//!   step loop, the solver entry point, CFG recovery, and the engine's
//!   round loop. Each site calls [`fault_point`], which is a single
//!   relaxed atomic load when no plan is armed (the common case) and a
//!   thread-local counter check when one is.
//! * **Fault plans** — a [`FaultPlan`] is a seeded, serializable list of
//!   `(site, nth, action)` triples: "on the 120th VM step, fail decode",
//!   "on the 3rd solver query, return unknown", "panic on round 2". Plans
//!   derived from the same seed are identical, so a chaos sweep is exactly
//!   reproducible from its seed.
//! * **Containment** — the study runner arms a plan (or nothing) around
//!   each (bomb, profile) cell with [`arm`]/[`disarm`], runs the cell
//!   under `catch_unwind`, and turns any panic — injected or real — into a
//!   well-formed abnormal cell carrying the panic payload, the pipeline
//!   stage reached ([`set_stage`]), and the elapsed wall clock.
//! * **Deadlines** — [`check_deadline`] (called once per VM quantum and
//!   per engine round) panics with a typed [`DeadlineExceeded`] payload
//!   when the armed wall-clock budget is exhausted or an injected
//!   [`FaultAction::Stall`] tripped, so hung cells degrade into `E` cells
//!   instead of hanging the study.
//!
//! When no plan is armed the layer is inert by construction: every fault
//! that fires also bumps a process-global counter
//! ([`global_injected_total`]), which the Table-II snapshot tests pin to
//! zero.

#![warn(missing_docs)]

use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Once;
use std::time::{Duration, Instant};

/// A named code location that can fail on command.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// The VM's per-instruction step loop.
    VmStep,
    /// The solver's `check` entry point (one hit per query).
    SolverQuery,
    /// Static CFG recovery (one hit per `cfg::build` invocation).
    CfgBuild,
    /// The concolic engine's round loop (one hit per concrete round).
    EngineRound,
    /// Writing a checkpoint-journal record (one hit per append).
    CheckpointWrite,
    /// The atomic rename that publishes a checkpoint file.
    CheckpointRename,
}

impl FaultSite {
    /// All sites, in counter-index order.
    pub const ALL: [FaultSite; 6] = [
        FaultSite::VmStep,
        FaultSite::SolverQuery,
        FaultSite::CfgBuild,
        FaultSite::EngineRound,
        FaultSite::CheckpointWrite,
        FaultSite::CheckpointRename,
    ];

    /// The durability-layer sites, drawn from by [`FaultPlan::random_io`].
    pub const IO_SITES: [FaultSite; 2] = [FaultSite::CheckpointWrite, FaultSite::CheckpointRename];

    fn index(self) -> usize {
        match self {
            FaultSite::VmStep => 0,
            FaultSite::SolverQuery => 1,
            FaultSite::CfgBuild => 2,
            FaultSite::EngineRound => 3,
            FaultSite::CheckpointWrite => 4,
            FaultSite::CheckpointRename => 5,
        }
    }

    fn name(self) -> &'static str {
        match self {
            FaultSite::VmStep => "vm_step",
            FaultSite::SolverQuery => "solver_query",
            FaultSite::CfgBuild => "cfg_build",
            FaultSite::EngineRound => "engine_round",
            FaultSite::CheckpointWrite => "checkpoint_write",
            FaultSite::CheckpointRename => "checkpoint_rename",
        }
    }

    /// The fault actions that make sense at this site (used by
    /// [`FaultPlan::random`] so generated plans are always meaningful).
    pub fn valid_actions(self) -> &'static [FaultAction] {
        match self {
            FaultSite::VmStep => &[
                FaultAction::DecodeError,
                FaultAction::MemFault,
                FaultAction::Panic,
                FaultAction::Stall,
            ],
            FaultSite::SolverQuery => &[FaultAction::Unknown, FaultAction::Panic],
            FaultSite::CfgBuild => &[FaultAction::Panic],
            FaultSite::EngineRound => &[FaultAction::Panic, FaultAction::Stall],
            FaultSite::CheckpointWrite => &[FaultAction::TornWrite, FaultAction::Panic],
            FaultSite::CheckpointRename => &[FaultAction::RenameFail, FaultAction::Panic],
        }
    }
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for FaultSite {
    type Err = String;
    fn from_str(s: &str) -> Result<FaultSite, String> {
        match s {
            "vm_step" => Ok(FaultSite::VmStep),
            "solver_query" => Ok(FaultSite::SolverQuery),
            "cfg_build" => Ok(FaultSite::CfgBuild),
            "engine_round" => Ok(FaultSite::EngineRound),
            "checkpoint_write" => Ok(FaultSite::CheckpointWrite),
            "checkpoint_rename" => Ok(FaultSite::CheckpointRename),
            other => Err(format!("unknown fault site `{other}`")),
        }
    }
}

/// What happens when a fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultAction {
    /// Panic at the site (models an internal tool bug).
    Panic,
    /// Mark the cell as stalled: the next [`check_deadline`] treats the
    /// deadline as exceeded (models a hang, deterministically).
    Stall,
    /// The VM fails to decode the current instruction (emulator crash).
    DecodeError,
    /// The VM takes a spurious memory fault (emulator crash).
    MemFault,
    /// The solver gives up on the query (resource exhaustion).
    Unknown,
    /// A checkpoint append writes only a prefix of the record (power loss
    /// mid-write; the journal loader must drop the torn tail).
    TornWrite,
    /// The tmp-file → final-name rename fails (the published file keeps
    /// its previous contents).
    RenameFail,
}

impl FaultAction {
    fn name(self) -> &'static str {
        match self {
            FaultAction::Panic => "panic",
            FaultAction::Stall => "stall",
            FaultAction::DecodeError => "decode_error",
            FaultAction::MemFault => "mem_fault",
            FaultAction::Unknown => "unknown",
            FaultAction::TornWrite => "torn_write",
            FaultAction::RenameFail => "rename_fail",
        }
    }
}

impl fmt::Display for FaultAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for FaultAction {
    type Err = String;
    fn from_str(s: &str) -> Result<FaultAction, String> {
        match s {
            "panic" => Ok(FaultAction::Panic),
            "stall" => Ok(FaultAction::Stall),
            "decode_error" => Ok(FaultAction::DecodeError),
            "mem_fault" => Ok(FaultAction::MemFault),
            "unknown" => Ok(FaultAction::Unknown),
            "torn_write" => Ok(FaultAction::TornWrite),
            "rename_fail" => Ok(FaultAction::RenameFail),
            other => Err(format!("unknown fault action `{other}`")),
        }
    }
}

/// One planned failure: the `nth` hit of `site` performs `action`
/// (`nth` is 1-based; counters reset at every [`arm`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// Where the fault fires.
    pub site: FaultSite,
    /// Which hit of the site fires it (1-based).
    pub nth: u64,
    /// What the site does when it fires.
    pub action: FaultAction,
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}={}", self.site, self.nth, self.action)
    }
}

impl std::str::FromStr for Fault {
    type Err = String;
    fn from_str(s: &str) -> Result<Fault, String> {
        let (site_nth, action) = s
            .split_once('=')
            .ok_or_else(|| format!("fault `{s}` is not of the form site@nth=action"))?;
        let (site, nth) = site_nth
            .split_once('@')
            .ok_or_else(|| format!("fault `{s}` is not of the form site@nth=action"))?;
        Ok(Fault {
            site: site.parse()?,
            nth: nth
                .parse()
                .map_err(|_| format!("bad fault count `{nth}`"))?,
            action: action.parse()?,
        })
    }
}

/// A deterministic, serializable chaos schedule: the seed it was derived
/// from plus the list of planned faults. The same plan armed around the
/// same cell always fires the same faults, regardless of thread
/// scheduling, because every site counter is thread-local and reset per
/// [`arm`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// The seed this plan was generated from (0 for hand-built plans).
    pub seed: u64,
    /// The planned faults.
    pub faults: Vec<Fault>,
}

/// Splitmix64 step — the only RNG this crate needs.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// A plan with a single fault (convenience for tests).
    pub fn single(site: FaultSite, nth: u64, action: FaultAction) -> FaultPlan {
        FaultPlan {
            seed: 0,
            faults: vec![Fault { site, nth, action }],
        }
    }

    /// Derives `k` faults deterministically from `seed`. Sites are drawn
    /// with weights favouring the hot paths (VM steps, solver queries),
    /// actions are drawn from [`FaultSite::valid_actions`], and hit counts
    /// from per-site ranges chosen so faults usually fire on real bombs
    /// (a plan whose counts exceed a cell's activity is a valid no-op).
    pub fn random(seed: u64, k: usize) -> FaultPlan {
        let mut state = seed ^ 0xD6E8_FEB8_6659_FD93;
        let faults = (0..k)
            .map(|_| {
                let site = match splitmix(&mut state) % 10 {
                    0..=3 => FaultSite::VmStep,
                    4..=6 => FaultSite::SolverQuery,
                    7 => FaultSite::CfgBuild,
                    _ => FaultSite::EngineRound,
                };
                let actions = site.valid_actions();
                let action = actions[(splitmix(&mut state) % actions.len() as u64) as usize];
                let nth = 1 + match site {
                    FaultSite::VmStep => splitmix(&mut state) % 2000,
                    FaultSite::SolverQuery => splitmix(&mut state) % 6,
                    FaultSite::CfgBuild => splitmix(&mut state) % 3,
                    FaultSite::EngineRound => splitmix(&mut state) % 4,
                    // Never drawn above: the durability sites belong to
                    // `random_io`, keeping this generator byte-stable.
                    FaultSite::CheckpointWrite | FaultSite::CheckpointRename => {
                        splitmix(&mut state) % 2
                    }
                };
                Fault { site, nth, action }
            })
            .collect();
        FaultPlan { seed, faults }
    }

    /// Derives `k` faults targeting the durability layer (checkpoint
    /// journal appends and atomic renames). Kept as a
    /// separate generator so [`FaultPlan::random`]'s byte-stable site
    /// distribution — pinned by the fixed CI chaos seeds — is untouched.
    /// Hit counts are small because a cell performs at most a handful of
    /// journal operations per armed window.
    pub fn random_io(seed: u64, k: usize) -> FaultPlan {
        let mut state = seed ^ 0xA076_1D64_78BD_642F;
        let faults = (0..k)
            .map(|_| {
                let site = FaultSite::IO_SITES
                    [(splitmix(&mut state) % FaultSite::IO_SITES.len() as u64) as usize];
                let actions = site.valid_actions();
                let action = actions[(splitmix(&mut state) % actions.len() as u64) as usize];
                let nth = 1 + splitmix(&mut state) % 2;
                Fault { site, nth, action }
            })
            .collect();
        FaultPlan { seed, faults }
    }

    /// Serializes the plan as a single line: `seed=N site@nth=action ...`.
    pub fn to_text(&self) -> String {
        let mut out = format!("seed={}", self.seed);
        for f in &self.faults {
            out.push(' ');
            out.push_str(&f.to_string());
        }
        out
    }

    /// Parses the [`to_text`](FaultPlan::to_text) format.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed token.
    pub fn from_text(s: &str) -> Result<FaultPlan, String> {
        let mut tokens = s.split_whitespace();
        let seed_tok = tokens.next().ok_or("empty fault plan")?;
        let seed = seed_tok
            .strip_prefix("seed=")
            .ok_or_else(|| format!("fault plan must start with seed=N, got `{seed_tok}`"))?
            .parse()
            .map_err(|_| format!("bad seed in `{seed_tok}`"))?;
        let faults = tokens.map(str::parse).collect::<Result<Vec<Fault>, _>>()?;
        Ok(FaultPlan { seed, faults })
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_text())
    }
}

/// Number of threads with an armed containment context. Zero in normal
/// operation, which makes [`fault_point`] a single relaxed load.
static ARMED_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Process-wide count of faults that ever fired. The Table-II snapshot
/// pins this to zero: chaos infrastructure must be inert unless armed
/// with a plan.
static TOTAL_INJECTED: AtomicU64 = AtomicU64::new(0);

/// Total faults that have fired in this process, ever. Guaranteed to stay
/// zero as long as no [`FaultPlan`] is armed.
pub fn global_injected_total() -> u64 {
    TOTAL_INJECTED.load(Ordering::Relaxed)
}

struct PlannedFault {
    fault: Fault,
    fired: bool,
}

struct ArmedState {
    faults: Vec<PlannedFault>,
    site_hits: [u64; FaultSite::ALL.len()],
    injected: u32,
    fired: Vec<String>,
    stalled: bool,
    deadline: Option<Duration>,
    started: Instant,
    stage: &'static str,
}

thread_local! {
    static ACTIVE: RefCell<Option<ArmedState>> = const { RefCell::new(None) };
    static CONTAINED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Token proving a containment context is armed on this thread. Pass it
/// back to [`disarm`] *after* the `catch_unwind` completes so the
/// collected statistics survive an unwinding cell.
#[must_use = "pass the token to disarm() to collect containment statistics"]
pub struct Armed {
    _private: (),
}

/// What a containment window observed, returned by [`disarm`].
#[derive(Debug, Clone)]
pub struct Containment {
    /// Number of planned faults that fired.
    pub injected: u32,
    /// Human-readable description of each fired fault, in firing order.
    pub fired: Vec<String>,
    /// The last pipeline stage entered via [`set_stage`].
    pub stage: &'static str,
    /// Wall clock between [`arm`] and [`disarm`].
    pub elapsed: Duration,
}

/// Arms a containment context on the current thread: fault counters reset
/// to zero, `plan` (if any) becomes live, and `deadline` starts counting.
/// Panic messages raised while armed are not printed to stderr (the
/// containment layer reports them instead).
///
/// Arm *outside* the `catch_unwind` that wraps the cell, and call
/// [`disarm`] after it, so statistics survive a panicking cell.
pub fn arm(plan: Option<&FaultPlan>, deadline: Option<Duration>) -> Armed {
    install_quiet_hook();
    ACTIVE.with(|a| {
        let mut a = a.borrow_mut();
        debug_assert!(a.is_none(), "fault containment contexts must not nest");
        *a = Some(ArmedState {
            faults: plan
                .map(|p| {
                    p.faults
                        .iter()
                        .map(|&fault| PlannedFault {
                            fault,
                            fired: false,
                        })
                        .collect()
                })
                .unwrap_or_default(),
            site_hits: [0; FaultSite::ALL.len()],
            injected: 0,
            fired: Vec::new(),
            stalled: false,
            deadline,
            started: Instant::now(),
            stage: "start",
        });
    });
    CONTAINED.with(|c| c.set(true));
    ARMED_THREADS.fetch_add(1, Ordering::Relaxed);
    Armed { _private: () }
}

/// Disarms the context armed by [`arm`] and returns what it observed.
pub fn disarm(token: Armed) -> Containment {
    let _ = token;
    CONTAINED.with(|c| c.set(false));
    ARMED_THREADS.fetch_sub(1, Ordering::Relaxed);
    ACTIVE.with(|a| {
        let state = a.borrow_mut().take();
        state.map_or(
            Containment {
                injected: 0,
                fired: Vec::new(),
                stage: "start",
                elapsed: Duration::ZERO,
            },
            |s| Containment {
                injected: s.injected,
                fired: s.fired,
                stage: s.stage,
                elapsed: s.started.elapsed(),
            },
        )
    })
}

/// A fault point: sites call this on every hit. Returns the action to
/// perform when a planned fault fires, `None` otherwise. Inert (a single
/// atomic load) when no context is armed anywhere in the process.
#[inline]
pub fn fault_point(site: FaultSite) -> Option<FaultAction> {
    if ARMED_THREADS.load(Ordering::Relaxed) == 0 {
        return None;
    }
    fault_point_slow(site)
}

#[cold]
fn fault_point_slow(site: FaultSite) -> Option<FaultAction> {
    ACTIVE.with(|a| {
        let mut a = a.borrow_mut();
        let state = a.as_mut()?;
        let idx = site.index();
        state.site_hits[idx] += 1;
        let hits = state.site_hits[idx];
        for planned in &mut state.faults {
            if !planned.fired && planned.fault.site == site && planned.fault.nth == hits {
                planned.fired = true;
                state.injected += 1;
                state.fired.push(planned.fault.to_string());
                TOTAL_INJECTED.fetch_add(1, Ordering::Relaxed);
                return Some(planned.fault.action);
            }
        }
        None
    })
}

/// Marks the current cell as stalled: the next [`check_deadline`] fails.
/// Sites perform this for [`FaultAction::Stall`], keeping the "hang"
/// deterministic instead of actually sleeping.
pub fn trip_stall() {
    ACTIVE.with(|a| {
        if let Some(state) = a.borrow_mut().as_mut() {
            state.stalled = true;
        }
    });
}

/// Panic payload raised by [`check_deadline`]. Containment downcasts it
/// for a deterministic diagnostic (the message never embeds the elapsed
/// time, so contained reports stay byte-identical across schedulers).
#[derive(Debug, Clone, Copy)]
pub struct DeadlineExceeded {
    /// The deadline "expired" because an injected stall tripped.
    pub stalled: bool,
    /// Actual wall clock since [`arm`].
    pub elapsed: Duration,
}

impl DeadlineExceeded {
    /// Deterministic one-line description.
    pub fn message(&self) -> &'static str {
        if self.stalled {
            "injected stall exceeded the cell deadline"
        } else {
            "cell wall-clock deadline exceeded"
        }
    }
}

/// Deadline watchdog, called once per VM quantum and per engine round.
/// No-op unless a context is armed on this thread.
///
/// # Panics
///
/// Panics with a [`DeadlineExceeded`] payload when an injected stall has
/// tripped or the armed wall-clock deadline has passed; the study's
/// containment boundary converts it into an abnormal (`E`) cell.
#[inline]
pub fn check_deadline() {
    if ARMED_THREADS.load(Ordering::Relaxed) == 0 {
        return;
    }
    check_deadline_slow();
}

#[cold]
fn check_deadline_slow() {
    let tripped = ACTIVE.with(|a| {
        let a = a.borrow();
        let state = a.as_ref()?;
        let elapsed = state.started.elapsed();
        if state.stalled || state.deadline.is_some_and(|d| elapsed > d) {
            Some(DeadlineExceeded {
                stalled: state.stalled,
                elapsed,
            })
        } else {
            None
        }
    });
    if let Some(deadline) = tripped {
        std::panic::panic_any(deadline);
    }
}

/// Faults fired since the current [`arm`] (0 when unarmed). The engine
/// copies this into `Evidence` so diagnosis can rank injected failures.
pub fn injected_count() -> u32 {
    if ARMED_THREADS.load(Ordering::Relaxed) == 0 {
        return 0;
    }
    ACTIVE.with(|a| a.borrow().as_ref().map_or(0, |s| s.injected))
}

/// Records the pipeline stage the cell is in ("vm", "taint", "symex",
/// "solve", ...). No-op when unarmed; the last stage entered is reported
/// in crash diagnostics.
pub fn set_stage(stage: &'static str) {
    if ARMED_THREADS.load(Ordering::Relaxed) == 0 {
        return;
    }
    ACTIVE.with(|a| {
        if let Some(state) = a.borrow_mut().as_mut() {
            state.stage = stage;
        }
    });
}

/// The stage last recorded by [`set_stage`] ("start" right after arming,
/// "" when unarmed).
pub fn current_stage() -> &'static str {
    if ARMED_THREADS.load(Ordering::Relaxed) == 0 {
        return "";
    }
    ACTIVE.with(|a| a.borrow().as_ref().map_or("", |s| s.stage))
}

/// Extracts a human-readable message from a `catch_unwind` payload:
/// handles `&str`, `String`, and [`DeadlineExceeded`] payloads.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(d) = payload.downcast_ref::<DeadlineExceeded>() {
        d.message().to_string()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Installs (once, process-wide) a panic hook that suppresses the default
/// stderr backtrace chatter for panics raised while a containment context
/// is armed on the panicking thread. Uncontained panics print as before.
fn install_quiet_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !CONTAINED.with(std::cell::Cell::get) {
                previous(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_text_round_trips() {
        let plan = FaultPlan {
            seed: 42,
            faults: vec![
                Fault {
                    site: FaultSite::VmStep,
                    nth: 120,
                    action: FaultAction::DecodeError,
                },
                Fault {
                    site: FaultSite::SolverQuery,
                    nth: 3,
                    action: FaultAction::Unknown,
                },
            ],
        };
        let text = plan.to_text();
        assert_eq!(
            text,
            "seed=42 vm_step@120=decode_error solver_query@3=unknown"
        );
        assert_eq!(FaultPlan::from_text(&text).unwrap(), plan);
        let empty = FaultPlan {
            seed: 7,
            faults: Vec::new(),
        };
        assert_eq!(FaultPlan::from_text(&empty.to_text()).unwrap(), empty);
        assert!(FaultPlan::from_text("vm_step@1=panic").is_err());
        assert!(FaultPlan::from_text("seed=1 vm_step@x=panic").is_err());
        assert!(FaultPlan::from_text("seed=1 nowhere@1=panic").is_err());
    }

    #[test]
    fn random_plans_are_deterministic_and_valid() {
        for seed in 0..50u64 {
            let a = FaultPlan::random(seed, 4);
            let b = FaultPlan::random(seed, 4);
            assert_eq!(a, b, "seed {seed} not deterministic");
            assert_eq!(a.faults.len(), 4);
            for f in &a.faults {
                assert!(f.nth >= 1);
                assert!(
                    f.site.valid_actions().contains(&f.action),
                    "{f} pairs an action with a site that cannot perform it"
                );
            }
        }
        assert_ne!(FaultPlan::random(1, 4), FaultPlan::random(2, 4));
    }

    /// `random`'s output for the seeds CI's chaos steps start from: a
    /// change to the site list or the draw shifts every fixed-seed sweep.
    #[test]
    fn random_plans_are_pinned_for_the_ci_seeds() {
        let pins = [
            (1, "seed=1 engine_round@3=panic engine_round@3=stall engine_round@4=stall vm_step@491=decode_error"),
            (5, "seed=5 engine_round@3=stall solver_query@1=unknown cfg_build@2=panic engine_round@3=stall"),
            (7, "seed=7 engine_round@2=stall engine_round@2=stall engine_round@3=stall vm_step@1528=panic"),
            (11, "seed=11 vm_step@1139=stall engine_round@3=panic engine_round@3=stall cfg_build@3=panic"),
        ];
        for (seed, text) in pins {
            assert_eq!(FaultPlan::random(seed, 4).to_text(), text, "seed {seed}");
        }
    }

    #[test]
    fn io_plans_are_deterministic_and_stick_to_io_sites() {
        for seed in 0..50u64 {
            let a = FaultPlan::random_io(seed, 3);
            assert_eq!(a, FaultPlan::random_io(seed, 3), "seed {seed}");
            assert_eq!(a.faults.len(), 3);
            for f in &a.faults {
                assert!(
                    FaultSite::IO_SITES.contains(&f.site),
                    "{f} targets a non-IO site"
                );
                assert!(f.site.valid_actions().contains(&f.action));
                assert!((1..=2).contains(&f.nth));
            }
        }
        // The compute-site generator is untouched by the IO extension:
        // its plans never draw the durability sites.
        for seed in 0..50u64 {
            for f in &FaultPlan::random(seed, 6).faults {
                assert!(!FaultSite::IO_SITES.contains(&f.site), "{f}");
            }
        }
    }

    #[test]
    fn io_fault_text_round_trips() {
        let plan = FaultPlan {
            seed: 9,
            faults: vec![
                Fault {
                    site: FaultSite::CheckpointWrite,
                    nth: 1,
                    action: FaultAction::TornWrite,
                },
                Fault {
                    site: FaultSite::CheckpointRename,
                    nth: 1,
                    action: FaultAction::RenameFail,
                },
                Fault {
                    site: FaultSite::CheckpointWrite,
                    nth: 2,
                    action: FaultAction::Panic,
                },
            ],
        };
        let text = plan.to_text();
        assert_eq!(
            text,
            "seed=9 checkpoint_write@1=torn_write checkpoint_rename@1=rename_fail \
             checkpoint_write@2=panic"
        );
        assert!(FaultPlan::from_text("seed=9 cache_segment_load@2=bit_flip").is_err());
        assert_eq!(FaultPlan::from_text(&text).unwrap(), plan);
    }

    #[test]
    fn fault_point_is_inert_when_unarmed() {
        assert_eq!(fault_point(FaultSite::VmStep), None);
        assert_eq!(injected_count(), 0);
        check_deadline(); // must not panic
        set_stage("vm"); // must not record anywhere
        assert_eq!(current_stage(), "");
    }

    #[test]
    fn armed_plan_fires_on_the_nth_hit_only() {
        let plan = FaultPlan::single(FaultSite::SolverQuery, 3, FaultAction::Unknown);
        let token = arm(Some(&plan), None);
        assert_eq!(fault_point(FaultSite::SolverQuery), None);
        assert_eq!(
            fault_point(FaultSite::VmStep),
            None,
            "other sites do not count"
        );
        assert_eq!(fault_point(FaultSite::SolverQuery), None);
        assert_eq!(
            fault_point(FaultSite::SolverQuery),
            Some(FaultAction::Unknown)
        );
        assert_eq!(fault_point(FaultSite::SolverQuery), None, "fires once");
        assert_eq!(injected_count(), 1);
        set_stage("solve");
        let containment = disarm(token);
        assert_eq!(containment.injected, 1);
        assert_eq!(
            containment.fired,
            vec!["solver_query@3=unknown".to_string()]
        );
        assert_eq!(containment.stage, "solve");
        // Fully reset afterwards.
        assert_eq!(fault_point(FaultSite::SolverQuery), None);
    }

    #[test]
    fn counters_reset_per_arm() {
        let plan = FaultPlan::single(FaultSite::EngineRound, 1, FaultAction::Panic);
        for _ in 0..2 {
            let token = arm(Some(&plan), None);
            assert_eq!(
                fault_point(FaultSite::EngineRound),
                Some(FaultAction::Panic),
                "the first hit fires on every fresh arm"
            );
            let _ = disarm(token);
        }
    }

    #[test]
    fn stall_trips_the_deadline_deterministically() {
        let token = arm(None, Some(Duration::from_secs(3600)));
        check_deadline(); // far from the wall-clock deadline: fine
        trip_stall();
        let err = std::panic::catch_unwind(check_deadline).unwrap_err();
        let payload = err
            .downcast_ref::<DeadlineExceeded>()
            .expect("typed deadline payload");
        assert!(payload.stalled);
        assert_eq!(
            panic_message(&*err),
            "injected stall exceeded the cell deadline"
        );
        let _ = disarm(token);
    }

    #[test]
    fn wall_clock_deadline_panics_when_exceeded() {
        let token = arm(None, Some(Duration::ZERO));
        std::thread::sleep(Duration::from_millis(2));
        let err = std::panic::catch_unwind(check_deadline).unwrap_err();
        assert_eq!(panic_message(&*err), "cell wall-clock deadline exceeded");
        let _ = disarm(token);
    }

    #[test]
    fn panic_message_handles_common_payloads() {
        let err = std::panic::catch_unwind(|| panic!("plain message")).unwrap_err();
        assert_eq!(panic_message(&*err), "plain message");
        let x = 7;
        let err = std::panic::catch_unwind(|| panic!("formatted {x}")).unwrap_err();
        assert_eq!(panic_message(&*err), "formatted 7");
    }
}
