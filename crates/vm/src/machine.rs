//! The multi-process, multi-thread BVM machine.
//!
//! A [`Machine`] loads an [`Image`] (plus an optional shared library),
//! simulates a small deterministic OS, and runs threads round-robin with a
//! fixed quantum. With tracing enabled it records every executed
//! instruction — the concolic engine's raw material.

use crate::bbcache::{self, BbStats, BlockCache, MicroOp};
use crate::cpu::{self, Effect, Recorder, Regs, StepOutcome};
use crate::mem::{MemFault, Memory};
use crate::os::{Fd, Os, O_RDONLY, O_RDWR, O_WRONLY};
use crate::trace::{InputSource, OutputSink, SysEffect, SyscallRecord, Trace};
use bomblab_fault::{check_deadline, fault_point, trip_stall, FaultAction, FaultSite};
use bomblab_isa::image::{layout, Image, ImageError};
use bomblab_isa::{sys, Insn, Reg};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::Arc;

/// Pid of the initial process.
pub const ROOT_PID: u32 = 1;

/// Exit code conventionally used by logic bombs on detonation.
pub const BOOM_EXIT_CODE: i64 = 42;

/// Configuration for a machine run.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Program arguments, including `argv[0]`.
    pub argv: Vec<Vec<u8>>,
    /// Bytes available on standard input.
    pub stdin: Vec<u8>,
    /// Initial filesystem contents.
    pub files: Vec<(String, Vec<u8>)>,
    /// Value returned by the `time` syscall.
    pub epoch: u64,
    /// Value returned by the `getuid` syscall.
    pub uid: u64,
    /// Bytes served by the `net_get` syscall.
    pub net_response: Vec<u8>,
    /// Maximum total instructions before the run is cut off.
    pub step_budget: u64,
    /// Instructions per scheduling quantum.
    pub quantum: u32,
    /// Record a full instruction trace.
    pub trace: bool,
    /// Dispatch through the shared predecoded basic-block cache
    /// ([`crate::bbcache`]). Disable for A/B runs against the
    /// decode-per-step path (`bomblab study --no-bbcache`).
    pub bbcache: bool,
}

impl Default for MachineConfig {
    fn default() -> MachineConfig {
        MachineConfig {
            argv: vec![b"bomb".to_vec()],
            stdin: Vec::new(),
            files: Vec::new(),
            epoch: 1_500_000_000,
            uid: 1000,
            net_response: b"HELLO FROM BVM-NET\n".to_vec(),
            step_budget: 5_000_000,
            quantum: 64,
            trace: false,
            bbcache: true,
        }
    }
}

impl MachineConfig {
    /// Convenience: a config whose `argv[1]` is `arg`.
    pub fn with_arg(arg: impl Into<Vec<u8>>) -> MachineConfig {
        MachineConfig {
            argv: vec![b"bomb".to_vec(), arg.into()],
            ..MachineConfig::default()
        }
    }
}

/// Why a run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunStatus {
    /// The root process exited with this code.
    Exited(i64),
    /// The root process took an unhandled hardware trap.
    Faulted {
        /// Trap cause (see [`bomblab_isa::trap`]).
        cause: u64,
        /// Faulting pc.
        pc: u64,
    },
    /// Every live thread was blocked.
    Deadlock,
    /// The step budget was exhausted.
    OutOfBudget,
    /// The machine itself failed: an internal invariant broke or a fault
    /// was injected into the emulator. The guest is in an undefined state.
    Crashed(MachineError),
}

impl RunStatus {
    /// The exit code, if the root process exited normally.
    pub fn exit_code(&self) -> Option<i64> {
        match self {
            RunStatus::Exited(c) => Some(*c),
            _ => None,
        }
    }
}

impl fmt::Display for RunStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunStatus::Exited(c) => write!(f, "exited({c})"),
            RunStatus::Faulted { cause, pc } => write!(f, "faulted(cause={cause}, pc={pc:#x})"),
            RunStatus::Deadlock => write!(f, "deadlock"),
            RunStatus::OutOfBudget => write!(f, "out of budget"),
            RunStatus::Crashed(e) => write!(f, "machine crashed: {e}"),
        }
    }
}

/// An internal machine failure: the emulator (not the guest) went wrong.
///
/// These are the typed replacements for what used to be `expect()` calls
/// on the VM's fallible paths: instead of unwinding through the study
/// runner, a broken invariant ends the run with
/// [`RunStatus::Crashed`] and the concolic engine records the cell as
/// abnormal (the paper's `E` label).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MachineError {
    /// A scheduled pid no longer exists.
    DeadProcess {
        /// The missing process.
        pid: u32,
    },
    /// A scheduled (pid, tid) no longer exists.
    DeadThread {
        /// Owning process.
        pid: u32,
        /// The missing thread.
        tid: u32,
    },
    /// A memory access the kernel believed valid faulted.
    Memory {
        /// Faulting address.
        addr: u64,
    },
    /// The scheduler loop ended without recording a run status.
    MissingResult,
    /// Injected fault: instruction decode failure at `pc`.
    InjectedDecodeFault {
        /// Guest pc at injection.
        pc: u64,
    },
    /// Injected fault: spurious memory fault at `pc`.
    InjectedMemFault {
        /// Guest pc at injection.
        pc: u64,
    },
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::DeadProcess { pid } => write!(f, "scheduled dead process {pid}"),
            MachineError::DeadThread { pid, tid } => {
                write!(f, "scheduled dead thread {pid}:{tid}")
            }
            MachineError::Memory { addr } => {
                write!(f, "kernel memory access faulted at {addr:#x}")
            }
            MachineError::MissingResult => write!(f, "scheduler loop ended without a result"),
            MachineError::InjectedDecodeFault { pc } => {
                write!(f, "injected decode fault at pc {pc:#x}")
            }
            MachineError::InjectedMemFault { pc } => {
                write!(f, "injected memory fault at pc {pc:#x}")
            }
        }
    }
}

impl std::error::Error for MachineError {}

impl From<MemFault> for MachineError {
    fn from(e: MemFault) -> MachineError {
        MachineError::Memory { addr: e.addr }
    }
}

/// Result of [`Machine::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunResult {
    /// Why the run ended.
    pub status: RunStatus,
    /// Total instructions executed.
    pub steps: u64,
}

/// Errors while loading an image into a machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadError {
    /// Import resolution or image patching failed.
    Image(ImageError),
    /// The image has imports but no shared library was supplied.
    MissingLibrary(String),
    /// Populating freshly mapped guest memory faulted (overlapping or
    /// inconsistent segment layout in the image).
    Memory(MemFault),
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Image(e) => write!(f, "image error: {e}"),
            LoadError::MissingLibrary(s) => {
                write!(f, "image imports `{s}` but no shared library was provided")
            }
            LoadError::Memory(e) => write!(f, "loader memory write faulted: {e}"),
        }
    }
}

impl std::error::Error for LoadError {}

impl From<ImageError> for LoadError {
    fn from(e: ImageError) -> LoadError {
        LoadError::Image(e)
    }
}

impl From<MemFault> for LoadError {
    fn from(e: MemFault) -> LoadError {
        LoadError::Memory(e)
    }
}

#[derive(Debug, Clone)]
struct Thread {
    regs: Regs,
    blocked: bool,
}

#[derive(Debug, Clone)]
struct Process {
    parent: u32,
    mem: Memory,
    threads: BTreeMap<u32, Thread>,
    fds: Vec<Option<Fd>>,
    trap_handler: Option<u64>,
    stdin_pos: usize,
    stdout: Vec<u8>,
    thread_exits: BTreeMap<u32, u64>,
    next_stack_index: u64,
}

/// The BVM virtual machine.
#[derive(Debug, Clone)]
pub struct Machine {
    os: Os,
    procs: BTreeMap<u32, Process>,
    /// pid → (parent, exit status) for exited processes (until reaped).
    exited: BTreeMap<u32, (u32, i64)>,
    rr: VecDeque<(u32, u32)>,
    steps: u64,
    step_budget: u64,
    quantum: u32,
    tracing: bool,
    trace: Trace,
    stdin: Vec<u8>,
    next_pid: u32,
    next_tid: u32,
    result: Option<RunStatus>,
    blocked_streak: usize,
    root_stdout_backup: Option<Vec<u8>>,
    /// Shared predecoded-block cache (`None` when disabled).
    bbcache: Option<Arc<BlockCache>>,
    /// Dispatch cursor: the block currently being threaded through, so
    /// within-block steps skip the cache lookup entirely.
    bbcursor: Option<BbCursor>,
    /// Code ranges *this machine* has overwritten (self-modifying code,
    /// syscall writes into text, injected decode faults). Cached ops
    /// overlapping a dirty range fall back to byte-decoding live memory.
    dirty_code: Vec<(u64, u64)>,
    bb_stats: BbStats,
}

/// Position inside a predecoded block: the next op is served without
/// taking the cache lock as long as control flow stays straight-line.
#[derive(Debug, Clone)]
struct BbCursor {
    pid: u32,
    tid: u32,
    block: Arc<[MicroOp]>,
    next: usize,
    next_pc: u64,
}

impl Machine {
    /// Loads an executable image (resolving imports against `lib` if given)
    /// and prepares the root process.
    ///
    /// # Errors
    ///
    /// Returns [`LoadError`] if the image has imports and no library is
    /// provided, if import resolution fails, or if populating guest
    /// memory faults (inconsistent segment layout).
    pub fn load(
        image: &Image,
        lib: Option<&Image>,
        config: MachineConfig,
    ) -> Result<Machine, LoadError> {
        // Patch imports into a copy of the segments only; the symbol map
        // is not needed to run.
        let patched;
        let image = if image.imports.is_empty() {
            image
        } else {
            let Some(l) = lib else {
                return Err(LoadError::MissingLibrary(image.imports[0].symbol.clone()));
            };
            let mut copy = Image {
                entry: image.entry,
                text_base: image.text_base,
                text: image.text.clone(),
                data_base: image.data_base,
                data: image.data.clone(),
                symbols: BTreeMap::new(),
                imports: image.imports.clone(),
            };
            copy.resolve_imports(&l.symbols)?;
            patched = copy;
            &patched
        };

        let mut mem = Memory::new();
        mem.map(image.text_base, image.text.len().max(1) as u64);
        mem.write_bytes(image.text_base, &image.text)?;
        mem.map(image.data_base, image.data.len().max(1) as u64);
        mem.write_bytes(image.data_base, &image.data)?;
        if let Some(l) = lib {
            mem.map(l.text_base, l.text.len().max(1) as u64);
            mem.write_bytes(l.text_base, &l.text)?;
            mem.map(l.data_base, l.data.len().max(1) as u64);
            mem.write_bytes(l.data_base, &l.data)?;
        }
        mem.map(layout::HEAP_BASE, layout::HEAP_SIZE);
        mem.map(layout::STACK_TOP - layout::STACK_SIZE, layout::STACK_SIZE);
        mem.map(layout::ARGV_BASE, layout::ARGV_SIZE);

        // VM-injected exit trampolines.
        mem.map(layout::STUB_BASE, 4096);
        let mut stub = Vec::new();
        Insn::Li {
            rd: Reg::SV,
            imm: sys::EXIT,
        }
        .encode(&mut stub);
        Insn::Sys.encode(&mut stub);
        mem.write_bytes(layout::EXIT_STUB, &stub)?;
        let mut tstub = Vec::new();
        Insn::Li {
            rd: Reg::SV,
            imm: sys::THREAD_EXIT,
        }
        .encode(&mut tstub);
        Insn::Sys.encode(&mut tstub);
        mem.write_bytes(layout::THREAD_EXIT_STUB, &tstub)?;

        // argv: pointer array then the strings.
        let argc = config.argv.len() as u64;
        let mut str_addr = layout::ARGV_BASE + 8 * argc;
        for (i, arg) in config.argv.iter().enumerate() {
            mem.write_uint(layout::ARGV_BASE + 8 * i as u64, str_addr, 8)?;
            mem.write_bytes(str_addr, arg)?;
            mem.write_u8(str_addr + arg.len() as u64, 0)?;
            str_addr += arg.len() as u64 + 1;
        }

        let mut regs = Regs::new();
        regs.pc = image.entry;
        regs.set(Reg::A0, argc);
        regs.set(Reg::A1, layout::ARGV_BASE);
        regs.set(Reg::SP, layout::STACK_TOP - 64);
        regs.set(Reg::FP, layout::STACK_TOP - 64);
        regs.set(Reg::RA, layout::EXIT_STUB);

        let mut os = Os::new();
        os.epoch = config.epoch;
        os.uid = config.uid;
        os.net_response = config.net_response.clone();
        for (name, content) in &config.files {
            os.fs.insert(name.clone(), content.clone());
        }

        let root = Process {
            parent: 0,
            mem,
            threads: [(
                1,
                Thread {
                    regs,
                    blocked: false,
                },
            )]
            .into_iter()
            .collect(),
            fds: vec![Some(Fd::Stdin), Some(Fd::Stdout)],
            trap_handler: None,
            stdin_pos: 0,
            stdout: Vec::new(),
            thread_exits: BTreeMap::new(),
            next_stack_index: 1,
        };

        // The block cache keys on the *resolved* text bytes, so every
        // round of every profile loading the same image (same imports,
        // same library) shares one lazily decoded cache.
        let bbcache = config.bbcache.then(|| {
            let mut regions: Vec<(u64, &[u8])> = vec![(image.text_base, image.text.as_slice())];
            if let Some(l) = lib {
                regions.push((l.text_base, l.text.as_slice()));
            }
            BlockCache::for_regions(&regions)
        });

        Ok(Machine {
            os,
            procs: [(ROOT_PID, root)].into_iter().collect(),
            exited: BTreeMap::new(),
            rr: [(ROOT_PID, 1)].into_iter().collect(),
            steps: 0,
            step_budget: config.step_budget,
            quantum: config.quantum.max(1),
            tracing: config.trace,
            trace: Trace::new(),
            stdin: config.stdin,
            next_pid: ROOT_PID + 1,
            next_tid: 2,
            result: None,
            blocked_streak: 0,
            root_stdout_backup: None,
            bbcache,
            bbcursor: None,
            dirty_code: Vec::new(),
            bb_stats: BbStats::default(),
        })
    }

    /// Runs until the root process ends, deadlock, budget exhaustion, or an
    /// internal machine failure ([`RunStatus::Crashed`]).
    pub fn run(&mut self) -> RunResult {
        let obs_timer = bomblab_obs::start();
        let steps_before = self.steps;
        let bb_before = self.bb_stats;
        let result = self.run_inner();
        if let Some(t0) = obs_timer {
            bomblab_obs::span_ns("vm.run", t0.elapsed().as_nanos() as u64);
            bomblab_obs::counter("vm.steps", result.steps - steps_before);
            let bb = self.bb_stats;
            for (name, delta) in [
                ("vm.bb_hits", bb.bb_hits - bb_before.bb_hits),
                ("vm.bb_misses", bb.bb_misses - bb_before.bb_misses),
                (
                    "vm.bb_invalidations",
                    bb.bb_invalidations - bb_before.bb_invalidations,
                ),
                (
                    "vm.steps_decoded",
                    bb.steps_decoded - bb_before.steps_decoded,
                ),
            ] {
                if delta > 0 {
                    bomblab_obs::counter(name, delta);
                }
            }
        }
        result
    }

    fn run_inner(&mut self) -> RunResult {
        while self.result.is_none() {
            // Containment watchdog: when the study runner armed a cell
            // deadline this panics (caught at the cell boundary) instead of
            // letting a hung guest hang the whole study. Inert otherwise.
            check_deadline();
            if self.steps >= self.step_budget {
                self.result = Some(RunStatus::OutOfBudget);
                break;
            }
            let Some((pid, tid)) = self.rr.pop_front() else {
                // No runnable threads and the root never exited.
                self.result = Some(RunStatus::Deadlock);
                break;
            };
            if !self
                .procs
                .get(&pid)
                .is_some_and(|p| p.threads.contains_key(&tid))
            {
                continue; // thread or process died while queued
            }
            let mut made_progress = false;
            let mut alive = true;
            let mut remaining = u64::from(self.quantum);
            while remaining > 0 {
                if self.steps >= self.step_budget || self.result.is_some() {
                    break;
                }
                // Fast path first: burn through cached straight-line code
                // in one borrow, then let `step_thread` handle whatever
                // stopped the span (cache miss, dirty code, store into
                // code, or nothing — the span may just exhaust the slice).
                let limit = remaining.min(self.step_budget - self.steps);
                let (fast, settled) = self.run_cached_span(pid, tid, limit);
                if fast > 0 {
                    made_progress = true;
                    remaining -= fast;
                }
                let stepped = match settled {
                    Some(r) => {
                        // The settling instruction consumed a slot of its
                        // own on top of the `fast` plain-continue steps.
                        remaining = remaining.saturating_sub(1);
                        r
                    }
                    None => {
                        if fast == limit || self.result.is_some() {
                            continue;
                        }
                        remaining -= 1;
                        self.step_thread(pid, tid)
                    }
                };
                match stepped {
                    Ok(ThreadStep::Ran) => {
                        made_progress = true;
                    }
                    Ok(ThreadStep::Blocked) => {
                        break;
                    }
                    Ok(ThreadStep::Died) => {
                        alive = false;
                        break;
                    }
                    Err(e) => {
                        self.result = Some(RunStatus::Crashed(e));
                        alive = false;
                        break;
                    }
                }
            }
            if made_progress {
                self.blocked_streak = 0;
            } else if alive {
                self.blocked_streak += 1;
                if self.blocked_streak >= self.live_threads() && self.live_threads() > 0 {
                    self.result = Some(RunStatus::Deadlock);
                }
            }
            if alive {
                self.rr.push_back((pid, tid));
            }
        }
        RunResult {
            status: self
                .result
                .unwrap_or(RunStatus::Crashed(MachineError::MissingResult)),
            steps: self.steps,
        }
    }

    /// Total instructions executed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// The root process's standard output.
    pub fn stdout(&self) -> &[u8] {
        self.stdout_of(ROOT_PID).unwrap_or(&[])
    }

    /// A process's standard output (works for exited processes too, as long
    /// as they are unreaped; root output is always retained).
    pub fn stdout_of(&self, pid: u32) -> Option<&[u8]> {
        self.procs
            .get(&pid)
            .map(|p| p.stdout.as_slice())
            .or_else(|| {
                self.root_stdout_backup
                    .as_deref()
                    .filter(|_| pid == ROOT_PID)
            })
    }

    /// The recorded trace (empty unless tracing was enabled).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Takes ownership of the recorded trace.
    pub fn take_trace(&mut self) -> Trace {
        std::mem::take(&mut self.trace)
    }

    /// Read-only view of kernel state (filesystem etc.).
    pub fn os(&self) -> &Os {
        &self.os
    }

    /// A live process's memory (snapshot it *before* `run` to get the
    /// loaded-image state the symbolic executor mirrors).
    pub fn process_memory(&self, pid: u32) -> Option<&Memory> {
        self.procs.get(&pid).map(|p| &p.mem)
    }

    fn live_threads(&self) -> usize {
        self.procs.values().map(|p| p.threads.len()).sum()
    }

    /// Dispatch counters of the block-cache layer (all zero when the cache
    /// is disabled, except `steps_decoded`, which then counts every step).
    pub fn bb_stats(&self) -> BbStats {
        self.bb_stats
    }

    /// Records that `[addr, addr + len)` was written. When the range
    /// overlaps a cached code region, the overlapping decoded blocks are
    /// counted as invalidated and the range joins this machine's dirty
    /// list, forcing cached fetches there back onto the byte-decode path.
    fn note_code_write(&mut self, addr: u64, len: u64) {
        let Some(cache) = &self.bbcache else {
            return;
        };
        if len == 0 || !cache.overlaps_code(addr, len) {
            return;
        }
        self.bb_stats.bb_invalidations += cache.blocks_overlapping(addr, len);
        self.dirty_code.push((addr, addr.wrapping_add(len)));
        self.bbcursor = None;
    }

    /// Whether any byte of `[start, end)` is in this machine's dirty list.
    fn range_is_dirty(&self, start: u64, end: u64) -> bool {
        !self.dirty_code.is_empty() && self.dirty_code.iter().any(|&(s, e)| s < end && start < e)
    }

    /// Serves the micro-op at `pc` from the cache, advancing the dispatch
    /// cursor. `None` means fall back to byte-decoding (pc outside cached
    /// regions or its bytes never decoded).
    fn cached_op(&mut self, pid: u32, tid: u32, pc: u64) -> Option<MicroOp> {
        if let Some(cur) = &mut self.bbcursor {
            if cur.pid == pid && cur.tid == tid {
                if cur.next_pc == pc && cur.next < cur.block.len() {
                    let op = cur.block[cur.next];
                    cur.next += 1;
                    cur.next_pc = op.pc.wrapping_add(op.len as u64);
                    return Some(op);
                }
                // Branch target inside the current run (tight loops jump
                // back into their own block): reindex locally instead of
                // taking the shared cache lock. Ops are sorted by pc.
                if let Ok(i) = cur.block.binary_search_by_key(&pc, |op| op.pc) {
                    let op = cur.block[i];
                    cur.next = i + 1;
                    cur.next_pc = op.pc.wrapping_add(op.len as u64);
                    return Some(op);
                }
            }
        }
        let cache = self.bbcache.as_ref()?;
        let (block, idx) = cache.lookup(pc)?;
        let op = block[idx];
        self.bbcursor = Some(BbCursor {
            pid,
            tid,
            block,
            next: idx + 1,
            next_pc: op.pc.wrapping_add(op.len as u64),
        });
        Some(op)
    }

    /// Executes one instruction of `(pid, tid)` at `pc`: through the block
    /// cache when possible, else by byte-decoding live memory.
    fn dispatch(&mut self, pid: u32, tid: u32, pc: u64) -> Result<StepOutcome, MachineError> {
        if self.bbcache.is_some() {
            if let Some(op) = self.cached_op(pid, tid, pc) {
                // Per-op dirty check: ops whose bytes this machine has
                // overwritten must re-decode from live memory.
                if !self.range_is_dirty(op.pc, op.pc.wrapping_add(op.len as u64)) {
                    return self.exec_cached(pid, tid, op);
                }
                self.bbcursor = None;
            }
            self.bb_stats.bb_misses += 1;
        }
        self.decode_step(pid, tid)
    }

    /// Executes a predecoded micro-op, first running its store recipe
    /// against the cached code regions so self-modifying writes are
    /// caught *before* they land.
    fn exec_cached(
        &mut self,
        pid: u32,
        tid: u32,
        op: MicroOp,
    ) -> Result<StepOutcome, MachineError> {
        if let Some(sc) = op.store {
            let base = self
                .procs
                .get(&pid)
                .ok_or(MachineError::DeadProcess { pid })?
                .threads
                .get(&tid)
                .ok_or(MachineError::DeadThread { pid, tid })?
                .regs
                .get(sc.base);
            let addr = base.wrapping_add(sc.off as u64);
            self.note_code_write(addr, sc.width as u64);
        }
        self.bb_stats.bb_hits += 1;
        let proc = self
            .procs
            .get_mut(&pid)
            .ok_or(MachineError::DeadProcess { pid })?;
        let thread = proc
            .threads
            .get_mut(&tid)
            .ok_or(MachineError::DeadThread { pid, tid })?;
        let rec: Recorder<'_> = self.tracing.then_some(&mut self.trace);
        Ok(cpu::exec(
            op.insn,
            &mut thread.regs,
            &mut proc.mem,
            pid,
            tid,
            rec,
        ))
    }

    /// The byte-decode path. With a cache armed, the instruction is peeked
    /// first so stores into cached code regions are still caught; fetch
    /// faults delegate to [`cpu::step`] for exact trap construction.
    fn decode_step(&mut self, pid: u32, tid: u32) -> Result<StepOutcome, MachineError> {
        self.bb_stats.steps_decoded += 1;
        if self.bbcache.is_some() {
            let fetched = {
                let proc = self
                    .procs
                    .get(&pid)
                    .ok_or(MachineError::DeadProcess { pid })?;
                let thread = proc
                    .threads
                    .get(&tid)
                    .ok_or(MachineError::DeadThread { pid, tid })?;
                cpu::fetch(&proc.mem, thread.regs.pc).ok().map(|insn| {
                    let write = bbcache::store_class(&insn).map(|sc| {
                        (
                            thread.regs.get(sc.base).wrapping_add(sc.off as u64),
                            sc.width as u64,
                        )
                    });
                    (insn, write)
                })
            };
            if let Some((insn, write)) = fetched {
                if let Some((addr, len)) = write {
                    self.note_code_write(addr, len);
                }
                let proc = self
                    .procs
                    .get_mut(&pid)
                    .ok_or(MachineError::DeadProcess { pid })?;
                let thread = proc
                    .threads
                    .get_mut(&tid)
                    .ok_or(MachineError::DeadThread { pid, tid })?;
                let rec: Recorder<'_> = self.tracing.then_some(&mut self.trace);
                return Ok(cpu::exec(
                    insn,
                    &mut thread.regs,
                    &mut proc.mem,
                    pid,
                    tid,
                    rec,
                ));
            }
        }
        let proc = self
            .procs
            .get_mut(&pid)
            .ok_or(MachineError::DeadProcess { pid })?;
        let thread = proc
            .threads
            .get_mut(&tid)
            .ok_or(MachineError::DeadThread { pid, tid })?;
        let rec: Recorder<'_> = self.tracing.then_some(&mut self.trace);
        Ok(cpu::step(&mut thread.regs, &mut proc.mem, pid, tid, rec))
    }

    /// Executes up to `limit` consecutive cached micro-ops of `(pid, tid)`
    /// under a single process/thread borrow — the dispatch fast path. The
    /// per-step overhead (scheduler bookkeeping, map lookups, cache probes)
    /// is paid once per span instead of once per instruction.
    ///
    /// Returns how many plain-continue instructions ran, plus the settled
    /// result of a control-effect instruction (halt, trap, syscall) or
    /// injected fault if one ended the span — that instruction is *not*
    /// included in the count, so the caller's progress/quantum accounting
    /// mirrors the per-step path's ThreadStep semantics. `(0, None)` means
    /// the fast path could not serve the next instruction at all — the
    /// caller falls back to
    /// [`Machine::step_thread`], which handles cache misses, dirty code,
    /// and store-into-code invalidation precisely.
    fn run_cached_span(
        &mut self,
        pid: u32,
        tid: u32,
        limit: u64,
    ) -> (u64, Option<Result<ThreadStep, MachineError>>) {
        let mut ran = 0u64;
        let mut pending: Option<StepOutcome> = None;
        let mut pending_fault: Option<(FaultAction, u64)> = None;
        {
            // Disjoint field borrows: the cache (shared), the cursor, the
            // process map, stats, and the trace are all distinct fields of
            // `self`, so the loop body never re-borrows `self` whole.
            let Some(cache) = self.bbcache.as_deref() else {
                return (0, None);
            };
            let Some(cur) = self.bbcursor.as_mut() else {
                return (0, None);
            };
            if cur.pid != pid || cur.tid != tid {
                return (0, None);
            }
            let Some(proc) = self.procs.get_mut(&pid) else {
                return (0, None);
            };
            let Some(thread) = proc.threads.get_mut(&tid) else {
                return (0, None);
            };
            while ran < limit {
                // Any dirty range forces the precise per-op checks of the
                // slow path (ranges only appear via settled effects, so
                // this is really an entry check — but it is two loads).
                if !self.dirty_code.is_empty() {
                    break;
                }
                let pc = thread.regs.pc;
                // Fault-injection point, same cadence as the slow path:
                // one hit per executed instruction.
                if let Some(action) = fault_point(FaultSite::VmStep) {
                    match action {
                        FaultAction::Stall => trip_stall(),
                        FaultAction::Panic => panic!("injected panic in the vm step loop"),
                        FaultAction::Unknown => {}
                        fault => {
                            pending_fault = Some((fault, pc));
                            break;
                        }
                    }
                }
                // Peek the next op: straight-line from the cursor, or an
                // in-block branch target (ops are sorted by pc). Advance
                // the cursor only once the op is committed to execute.
                let (op, next) = if cur.next < cur.block.len() && cur.next_pc == pc {
                    (cur.block[cur.next], cur.next + 1)
                } else if let Ok(i) = cur.block.binary_search_by_key(&pc, |op| op.pc) {
                    (cur.block[i], i + 1)
                } else {
                    break;
                };
                if let Some(sc) = op.store {
                    let addr = thread.regs.get(sc.base).wrapping_add(sc.off as u64);
                    if cache.overlaps_code(addr, u64::from(sc.width)) {
                        // Store into cached code: the slow path owns the
                        // invalidation protocol.
                        break;
                    }
                }
                cur.next = next;
                cur.next_pc = op.pc.wrapping_add(u64::from(op.len));
                self.bb_stats.bb_hits += 1;
                let rec: Recorder<'_> = self.tracing.then_some(&mut self.trace);
                let outcome = cpu::exec(op.insn, &mut thread.regs, &mut proc.mem, pid, tid, rec);
                match outcome.effect {
                    Effect::Continue => ran += 1,
                    _ => {
                        // The settling instruction is accounted separately
                        // (`ran` only counts plain-continue steps, so the
                        // caller's progress tracking matches the per-step
                        // path's ThreadStep semantics exactly).
                        pending = Some(outcome);
                        break;
                    }
                }
            }
        }
        self.steps += ran;
        if let Some((action, pc)) = pending_fault {
            let err = match action {
                FaultAction::DecodeError => {
                    // An injected decode fault poisons the instruction's
                    // bytes: any block decoded over them is invalidated.
                    self.note_code_write(pc, 1);
                    MachineError::InjectedDecodeFault { pc }
                }
                _ => MachineError::InjectedMemFault { pc },
            };
            return (ran, Some(Err(err)));
        }
        if let Some(outcome) = pending {
            self.steps += 1;
            return (ran, Some(self.settle(pid, tid, outcome)));
        }
        (ran, None)
    }

    fn step_thread(&mut self, pid: u32, tid: u32) -> Result<ThreadStep, MachineError> {
        let pc = self
            .procs
            .get(&pid)
            .ok_or(MachineError::DeadProcess { pid })?
            .threads
            .get(&tid)
            .ok_or(MachineError::DeadThread { pid, tid })?
            .regs
            .pc;
        // Fault-injection point: one hit per executed instruction. A single
        // relaxed atomic load unless a chaos plan is armed on this thread.
        if let Some(action) = fault_point(FaultSite::VmStep) {
            match action {
                FaultAction::DecodeError => {
                    // An injected decode fault poisons the instruction's
                    // bytes: any block decoded over them is invalidated.
                    self.note_code_write(pc, 1);
                    return Err(MachineError::InjectedDecodeFault { pc });
                }
                FaultAction::MemFault => return Err(MachineError::InjectedMemFault { pc }),
                FaultAction::Panic => panic!("injected panic in the vm step loop"),
                FaultAction::Stall => trip_stall(),
                // `Unknown` plus the durability-layer actions (torn write,
                // short read, rename failure, bit flip) — none apply to an
                // instruction step and `valid_actions` never plans them
                // here.
                _ => {}
            }
        }
        let outcome = self.dispatch(pid, tid, pc)?;
        self.steps += 1;
        self.settle(pid, tid, outcome)
    }

    /// Applies the control effect of one executed instruction: trace
    /// recording, process exit, trap delivery, or syscall handling.
    fn settle(
        &mut self,
        pid: u32,
        tid: u32,
        outcome: StepOutcome,
    ) -> Result<ThreadStep, MachineError> {
        match outcome.effect {
            Effect::Continue => Ok(ThreadStep::Ran),
            Effect::Halt => {
                let code = self
                    .procs
                    .get(&pid)
                    .and_then(|p| p.threads.get(&tid))
                    .ok_or(MachineError::DeadThread { pid, tid })?
                    .regs
                    .get(Reg::A0) as i64;
                self.exit_process(pid, code);
                Ok(ThreadStep::Died)
            }
            Effect::Trap(fault) => {
                let proc = self
                    .procs
                    .get_mut(&pid)
                    .ok_or(MachineError::DeadProcess { pid })?;
                match proc.trap_handler {
                    Some(handler) => {
                        let thread = proc
                            .threads
                            .get_mut(&tid)
                            .ok_or(MachineError::DeadThread { pid, tid })?;
                        let resume = thread.regs.pc.wrapping_add(fault.insn_len);
                        thread.regs.set(Reg::TC, fault.cause);
                        thread.regs.set(Reg::TR, resume);
                        thread.regs.pc = handler;
                        Ok(ThreadStep::Ran)
                    }
                    None => {
                        let pc = proc
                            .threads
                            .get(&tid)
                            .ok_or(MachineError::DeadThread { pid, tid })?
                            .regs
                            .pc;
                        self.exit_process(pid, 128 + fault.cause as i64);
                        if pid == ROOT_PID {
                            self.result = Some(RunStatus::Faulted {
                                cause: fault.cause,
                                pc,
                            });
                        }
                        Ok(ThreadStep::Died)
                    }
                }
            }
            Effect::Sys => self.handle_syscall(pid, tid, outcome.step),
        }
    }

    fn exit_process(&mut self, pid: u32, status: i64) {
        let Some(proc) = self.procs.remove(&pid) else {
            return;
        };
        // Release pipe ends so blocked peers observe EOF/closure.
        for fd in proc.fds.iter().flatten() {
            match fd {
                Fd::PipeRead(id) => self.os.pipes[*id].readers -= 1,
                Fd::PipeWrite(id) => self.os.pipes[*id].writers -= 1,
                _ => {}
            }
        }
        if pid == ROOT_PID {
            self.root_stdout_backup = Some(proc.stdout.clone());
            if self.result.is_none() {
                self.result = Some(RunStatus::Exited(status));
            }
        }
        self.exited.insert(pid, (proc.parent, status));
    }

    fn handle_syscall(
        &mut self,
        pid: u32,
        tid: u32,
        step: Option<u32>,
    ) -> Result<ThreadStep, MachineError> {
        let proc = self
            .procs
            .get_mut(&pid)
            .ok_or(MachineError::DeadProcess { pid })?;
        let regs = &proc
            .threads
            .get(&tid)
            .ok_or(MachineError::DeadThread { pid, tid })?
            .regs;
        let num = regs.get(Reg::SV);
        let args = [
            regs.get(Reg::A0),
            regs.get(Reg::A1),
            regs.get(Reg::A2),
            regs.get(Reg::A3),
            regs.get(Reg::A4),
            regs.get(Reg::A5),
        ];

        let outcome = self.do_syscall(pid, tid, num, args)?;
        // Syscalls that write guest memory (read, net_get, pipe) can land
        // in cached code regions; their effects carry the written range.
        if let SysOutcome::Done { effect, .. } = &outcome {
            match effect {
                SysEffect::InputBytes { addr, bytes, .. } => {
                    self.note_code_write(*addr, bytes.len() as u64);
                }
                SysEffect::PipeCreated { addr, .. } => self.note_code_write(*addr, 16),
                _ => {}
            }
        }
        match outcome {
            SysOutcome::Done { ret, effect } => {
                // The process may have exited (sys::EXIT) — only advance pc
                // for still-running threads.
                if let Some(p) = self.procs.get_mut(&pid) {
                    if let Some(t) = p.threads.get_mut(&tid) {
                        t.regs.set(Reg::A0, ret);
                        t.regs.pc = t.regs.pc.wrapping_add(1);
                        t.blocked = false;
                    }
                }
                if let Some(idx) = step {
                    let record = SyscallRecord {
                        num,
                        args,
                        ret,
                        effect,
                    };
                    self.trace.attach_sys(idx, record);
                }
                let died = !self
                    .procs
                    .get(&pid)
                    .is_some_and(|p| p.threads.contains_key(&tid));
                if died {
                    Ok(ThreadStep::Died)
                } else {
                    Ok(ThreadStep::Ran)
                }
            }
            SysOutcome::Block => {
                if let Some(p) = self.procs.get_mut(&pid) {
                    if let Some(t) = p.threads.get_mut(&tid) {
                        t.blocked = true;
                    }
                }
                // A blocked syscall re-executes later; the legacy stream
                // never contained the blocked attempt, so unwind it.
                if let Some(idx) = step {
                    self.trace.pop_last(idx);
                }
                Ok(ThreadStep::Blocked)
            }
        }
    }

    fn do_syscall(
        &mut self,
        pid: u32,
        tid: u32,
        num: u64,
        args: [u64; 6],
    ) -> Result<SysOutcome, MachineError> {
        let neg1 = u64::MAX;
        Ok(match num {
            sys::EXIT => {
                self.exit_process(pid, args[0] as i64);
                SysOutcome::done(0)
            }
            sys::THREAD_EXIT => {
                let proc = self
                    .procs
                    .get_mut(&pid)
                    .ok_or(MachineError::DeadProcess { pid })?;
                proc.threads.remove(&tid);
                proc.thread_exits.insert(tid, args[0]);
                if proc.threads.is_empty() {
                    self.exit_process(pid, args[0] as i64);
                }
                SysOutcome::done(0)
            }
            sys::WRITE => {
                let (fd, buf, len) = (args[0] as usize, args[1], args[2]);
                let proc = self
                    .procs
                    .get_mut(&pid)
                    .ok_or(MachineError::DeadProcess { pid })?;
                if !proc.mem.is_mapped(buf, len) {
                    return Ok(SysOutcome::done(neg1));
                }
                let bytes = proc.mem.read_bytes(buf, len)?;
                let Some(Some(entry)) = proc.fds.get_mut(fd) else {
                    return Ok(SysOutcome::done(neg1));
                };
                let (sink, offset) = match entry {
                    Fd::Stdout => {
                        let off = proc.stdout.len() as u64;
                        proc.stdout.extend_from_slice(&bytes);
                        (OutputSink::Stdout, off)
                    }
                    Fd::File {
                        name,
                        pos,
                        writable,
                        ..
                    } => {
                        if !*writable {
                            return Ok(SysOutcome::done(neg1));
                        }
                        let name = name.clone();
                        let at = *pos as usize;
                        let file = self.os.fs.entry(name.clone()).or_default();
                        if file.len() < at + bytes.len() {
                            file.resize(at + bytes.len(), 0);
                        }
                        file[at..at + bytes.len()].copy_from_slice(&bytes);
                        *pos += bytes.len() as u64;
                        (OutputSink::File(name), at as u64)
                    }
                    Fd::PipeWrite(id) => {
                        let id = *id;
                        let pipe = &mut self.os.pipes[id];
                        let off = pipe.write_off;
                        pipe.buf.extend(bytes.iter().copied());
                        pipe.write_off += bytes.len() as u64;
                        (OutputSink::Pipe(id), off)
                    }
                    Fd::Stdin | Fd::PipeRead(_) => return Ok(SysOutcome::done(neg1)),
                };
                SysOutcome::Done {
                    ret: bytes.len() as u64,
                    effect: SysEffect::OutputBytes {
                        addr: buf,
                        bytes,
                        sink,
                        offset,
                    },
                }
            }
            sys::READ => {
                let (fd, buf, len) = (args[0] as usize, args[1], args[2]);
                let proc = self
                    .procs
                    .get_mut(&pid)
                    .ok_or(MachineError::DeadProcess { pid })?;
                if !proc.mem.is_mapped(buf, len) {
                    return Ok(SysOutcome::done(neg1));
                }
                let Some(Some(entry)) = proc.fds.get_mut(fd) else {
                    return Ok(SysOutcome::done(neg1));
                };
                let (bytes, source, offset) = match entry {
                    Fd::Stdin => {
                        let off = proc.stdin_pos as u64;
                        let avail = &self.stdin[proc.stdin_pos.min(self.stdin.len())..];
                        let n = avail.len().min(len as usize);
                        let bytes = avail[..n].to_vec();
                        proc.stdin_pos += n;
                        (bytes, InputSource::Stdin, off)
                    }
                    Fd::File {
                        name,
                        pos,
                        readable,
                        ..
                    } => {
                        if !*readable {
                            return Ok(SysOutcome::done(neg1));
                        }
                        let content = self.os.fs.get(name).cloned().unwrap_or_default();
                        let at = (*pos as usize).min(content.len());
                        let n = (content.len() - at).min(len as usize);
                        *pos += n as u64;
                        (
                            content[at..at + n].to_vec(),
                            InputSource::File(name.clone()),
                            at as u64,
                        )
                    }
                    Fd::PipeRead(id) => {
                        let id = *id;
                        let pipe = &mut self.os.pipes[id];
                        if pipe.buf.is_empty() {
                            if pipe.writers > 0 {
                                return Ok(SysOutcome::Block);
                            }
                            (Vec::new(), InputSource::Pipe(id), pipe.read_off)
                        } else {
                            let n = pipe.buf.len().min(len as usize);
                            let off = pipe.read_off;
                            let bytes: Vec<u8> = pipe.buf.drain(..n).collect();
                            pipe.read_off += n as u64;
                            (bytes, InputSource::Pipe(id), off)
                        }
                    }
                    Fd::Stdout | Fd::PipeWrite(_) => return Ok(SysOutcome::done(neg1)),
                };
                proc.mem.write_bytes(buf, &bytes)?;
                SysOutcome::Done {
                    ret: bytes.len() as u64,
                    effect: SysEffect::InputBytes {
                        addr: buf,
                        bytes,
                        source,
                        offset,
                    },
                }
            }
            sys::OPEN => {
                let proc = self
                    .procs
                    .get_mut(&pid)
                    .ok_or(MachineError::DeadProcess { pid })?;
                let Ok(path) = proc.mem.read_cstr(args[0], 256) else {
                    return Ok(SysOutcome::done(neg1));
                };
                let name = String::from_utf8_lossy(&path).into_owned();
                let flags = args[1];
                let entry = match flags {
                    O_RDONLY => {
                        if !self.os.fs.contains_key(&name) {
                            return Ok(SysOutcome::Done {
                                ret: neg1,
                                effect: SysEffect::OpenedFile { path, fd: -1 },
                            });
                        }
                        Fd::File {
                            name: name.clone(),
                            pos: 0,
                            readable: true,
                            writable: false,
                        }
                    }
                    O_WRONLY => {
                        self.os.fs.insert(name.clone(), Vec::new());
                        Fd::File {
                            name: name.clone(),
                            pos: 0,
                            readable: false,
                            writable: true,
                        }
                    }
                    O_RDWR => {
                        self.os.fs.entry(name.clone()).or_default();
                        Fd::File {
                            name: name.clone(),
                            pos: 0,
                            readable: true,
                            writable: true,
                        }
                    }
                    _ => return Ok(SysOutcome::done(neg1)),
                };
                let fd = alloc_fd(&mut proc.fds, entry);
                SysOutcome::Done {
                    ret: fd as u64,
                    effect: SysEffect::OpenedFile {
                        path,
                        fd: fd as i64,
                    },
                }
            }
            sys::CLOSE => {
                let proc = self
                    .procs
                    .get_mut(&pid)
                    .ok_or(MachineError::DeadProcess { pid })?;
                let fd = args[0] as usize;
                match proc.fds.get_mut(fd).and_then(Option::take) {
                    Some(Fd::PipeRead(id)) => {
                        self.os.pipes[id].readers -= 1;
                        SysOutcome::done(0)
                    }
                    Some(Fd::PipeWrite(id)) => {
                        self.os.pipes[id].writers -= 1;
                        SysOutcome::done(0)
                    }
                    Some(_) => SysOutcome::done(0),
                    None => SysOutcome::done(neg1),
                }
            }
            sys::UNLINK => {
                let proc = self
                    .procs
                    .get_mut(&pid)
                    .ok_or(MachineError::DeadProcess { pid })?;
                let Ok(path) = proc.mem.read_cstr(args[0], 256) else {
                    return Ok(SysOutcome::done(neg1));
                };
                let name = String::from_utf8_lossy(&path).into_owned();
                match self.os.fs.remove(&name) {
                    Some(_) => SysOutcome::done(0),
                    None => SysOutcome::done(neg1),
                }
            }
            sys::TIME => SysOutcome::done(self.os.epoch),
            sys::GETPID => SysOutcome::done(pid as u64),
            sys::GETUID => SysOutcome::done(self.os.uid),
            sys::FORK => {
                let child_pid = self.next_pid;
                self.next_pid += 1;
                let child_tid = self.next_tid;
                self.next_tid += 1;
                let proc = self
                    .procs
                    .get_mut(&pid)
                    .ok_or(MachineError::DeadProcess { pid })?;
                // Bump pipe refcounts for inherited descriptors.
                let fds = proc.fds.clone();
                let mut child = Process {
                    parent: pid,
                    mem: proc.mem.clone(),
                    threads: BTreeMap::new(),
                    fds,
                    trap_handler: proc.trap_handler,
                    stdin_pos: proc.stdin_pos,
                    stdout: Vec::new(),
                    thread_exits: BTreeMap::new(),
                    next_stack_index: proc.next_stack_index,
                };
                let mut regs = proc.threads[&tid].regs.clone();
                regs.set(Reg::A0, 0);
                regs.pc = regs.pc.wrapping_add(1); // past the sys insn
                child.threads.insert(
                    child_tid,
                    Thread {
                        regs,
                        blocked: false,
                    },
                );
                for fd in child.fds.iter().flatten() {
                    match fd {
                        Fd::PipeRead(id) => self.os.pipes[*id].readers += 1,
                        Fd::PipeWrite(id) => self.os.pipes[*id].writers += 1,
                        _ => {}
                    }
                }
                self.procs.insert(child_pid, child);
                self.rr.push_back((child_pid, child_tid));
                SysOutcome::Done {
                    ret: child_pid as u64,
                    effect: SysEffect::Forked { child: child_pid },
                }
            }
            sys::WAITPID => {
                let target = args[0] as u32;
                if let Some(&(parent, status)) = self.exited.get(&target) {
                    if parent == pid {
                        self.exited.remove(&target);
                        return Ok(SysOutcome::done(status as u64));
                    }
                    return Ok(SysOutcome::done(neg1));
                }
                if self.procs.contains_key(&target) {
                    SysOutcome::Block
                } else {
                    SysOutcome::done(neg1)
                }
            }
            sys::PIPE => {
                let id = self.os.create_pipe();
                let proc = self
                    .procs
                    .get_mut(&pid)
                    .ok_or(MachineError::DeadProcess { pid })?;
                if !proc.mem.is_mapped(args[0], 16) {
                    return Ok(SysOutcome::done(neg1));
                }
                let rfd = alloc_fd(&mut proc.fds, Fd::PipeRead(id));
                let wfd = alloc_fd(&mut proc.fds, Fd::PipeWrite(id));
                proc.mem.write_uint(args[0], rfd as u64, 8)?;
                proc.mem.write_uint(args[0] + 8, wfd as u64, 8)?;
                SysOutcome::Done {
                    ret: 0,
                    effect: SysEffect::PipeCreated {
                        rfd: rfd as i64,
                        wfd: wfd as i64,
                        addr: args[0],
                    },
                }
            }
            sys::THREAD_SPAWN => {
                let (entry, arg) = (args[0], args[1]);
                let new_tid = self.next_tid;
                self.next_tid += 1;
                let proc = self
                    .procs
                    .get_mut(&pid)
                    .ok_or(MachineError::DeadProcess { pid })?;
                let index = proc.next_stack_index;
                proc.next_stack_index += 1;
                let top = layout::STACK_TOP - index * layout::STACK_STRIDE;
                proc.mem.map(top - layout::STACK_SIZE, layout::STACK_SIZE);
                let mut regs = Regs::new();
                regs.pc = entry;
                regs.set(Reg::A0, arg);
                regs.set(Reg::SP, top - 64);
                regs.set(Reg::FP, top - 64);
                regs.set(Reg::RA, layout::THREAD_EXIT_STUB);
                proc.threads.insert(
                    new_tid,
                    Thread {
                        regs,
                        blocked: false,
                    },
                );
                self.rr.push_back((pid, new_tid));
                SysOutcome::Done {
                    ret: new_tid as u64,
                    effect: SysEffect::SpawnedThread {
                        tid: new_tid,
                        entry,
                        arg,
                    },
                }
            }
            sys::THREAD_JOIN => {
                let target = args[0] as u32;
                let proc = self
                    .procs
                    .get_mut(&pid)
                    .ok_or(MachineError::DeadProcess { pid })?;
                if let Some(ret) = proc.thread_exits.remove(&target) {
                    SysOutcome::done(ret)
                } else if proc.threads.contains_key(&target) {
                    SysOutcome::Block
                } else {
                    SysOutcome::done(neg1)
                }
            }
            sys::NET_GET => {
                let (_url, buf, len) = (args[0], args[1], args[2]);
                let response = self.os.net_response.clone();
                let n = response.len().min(args[2] as usize);
                let proc = self
                    .procs
                    .get_mut(&pid)
                    .ok_or(MachineError::DeadProcess { pid })?;
                if !proc.mem.is_mapped(buf, len.min(n as u64)) {
                    return Ok(SysOutcome::done(neg1));
                }
                proc.mem.write_bytes(buf, &response[..n])?;
                SysOutcome::Done {
                    ret: n as u64,
                    effect: SysEffect::InputBytes {
                        addr: buf,
                        bytes: response[..n].to_vec(),
                        source: InputSource::Net,
                        offset: 0,
                    },
                }
            }
            sys::SET_TRAP_HANDLER => {
                let proc = self
                    .procs
                    .get_mut(&pid)
                    .ok_or(MachineError::DeadProcess { pid })?;
                proc.trap_handler = (args[0] != 0).then_some(args[0]);
                SysOutcome::done(0)
            }
            sys::LSEEK => {
                let proc = self
                    .procs
                    .get_mut(&pid)
                    .ok_or(MachineError::DeadProcess { pid })?;
                let fd = args[0] as usize;
                let off = args[1] as i64;
                let whence = args[2];
                let Some(Some(Fd::File { name, pos, .. })) = proc.fds.get_mut(fd) else {
                    return Ok(SysOutcome::done(neg1));
                };
                let size = self.os.fs.get(name).map_or(0, Vec::len) as i64;
                let new = match whence {
                    0 => off,
                    1 => *pos as i64 + off,
                    2 => size + off,
                    _ => return Ok(SysOutcome::done(neg1)),
                };
                if new < 0 {
                    return Ok(SysOutcome::done(neg1));
                }
                *pos = new as u64;
                SysOutcome::done(new as u64)
            }
            _ => SysOutcome::done(neg1),
        })
    }
}

fn alloc_fd(fds: &mut Vec<Option<Fd>>, entry: Fd) -> usize {
    for (i, slot) in fds.iter_mut().enumerate() {
        if slot.is_none() {
            *slot = Some(entry);
            return i;
        }
    }
    fds.push(Some(entry));
    fds.len() - 1
}

enum ThreadStep {
    Ran,
    Blocked,
    Died,
}

enum SysOutcome {
    Done { ret: u64, effect: SysEffect },
    Block,
}

impl SysOutcome {
    fn done(ret: u64) -> SysOutcome {
        SysOutcome::Done {
            ret,
            effect: SysEffect::None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bomblab_fault::{arm, disarm, FaultPlan};
    use bomblab_isa::asm::assemble;
    use bomblab_isa::link::Linker;

    fn exit7() -> Image {
        let obj = assemble(
            r"
            .text
            .global _start
        _start:
            li   a0, 7
            li   sv, 0      # SYS_EXIT
            sys
            ",
        )
        .unwrap();
        Linker::new().add_object(obj).link().unwrap()
    }

    #[test]
    fn injected_decode_fault_ends_the_run_as_crashed() {
        let mut m = Machine::load(&exit7(), None, MachineConfig::default()).unwrap();
        let plan = FaultPlan::single(FaultSite::VmStep, 2, FaultAction::DecodeError);
        let token = arm(Some(&plan), None);
        let result = m.run();
        let containment = disarm(token);
        assert_eq!(containment.injected, 1);
        assert!(
            matches!(
                result.status,
                RunStatus::Crashed(MachineError::InjectedDecodeFault { .. })
            ),
            "expected an injected crash, got {}",
            result.status
        );
        assert_eq!(result.steps, 1, "one instruction ran before injection");
    }

    #[test]
    fn injected_mem_fault_ends_the_run_as_crashed() {
        let mut m = Machine::load(&exit7(), None, MachineConfig::default()).unwrap();
        let plan = FaultPlan::single(FaultSite::VmStep, 1, FaultAction::MemFault);
        let token = arm(Some(&plan), None);
        let result = m.run();
        let containment = disarm(token);
        assert_eq!(containment.injected, 1);
        assert!(matches!(
            result.status,
            RunStatus::Crashed(MachineError::InjectedMemFault { .. })
        ));
    }

    #[test]
    fn a_plan_past_the_programs_length_is_a_no_op() {
        let mut m = Machine::load(&exit7(), None, MachineConfig::default()).unwrap();
        let plan = FaultPlan::single(FaultSite::VmStep, 1_000_000, FaultAction::Panic);
        let token = arm(Some(&plan), None);
        let result = m.run();
        let containment = disarm(token);
        assert_eq!(containment.injected, 0);
        assert_eq!(result.status.exit_code(), Some(7));
    }

    #[test]
    fn unarmed_runs_are_untouched_by_the_fault_layer() {
        let mut m = Machine::load(&exit7(), None, MachineConfig::default()).unwrap();
        assert_eq!(m.run().status.exit_code(), Some(7));
    }
}
