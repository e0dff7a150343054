//! # bomblab-vm — the concrete BVM machine
//!
//! This crate executes [`bomblab_isa`] images on a small deterministic
//! virtual machine with a simulated operating system:
//!
//! * a CPU interpreter with precise hardware traps ([`cpu`]),
//! * sparse paged memory ([`mem`]),
//! * an in-memory filesystem, pipes, a fixed clock, a simulated network
//!   service, `fork`/`waitpid`, and round-robin threads ([`os`],
//!   [`machine`]),
//! * full instruction tracing ([`trace`]) — the equivalent of the Intel
//!   Pin tools used by the concolic executors studied in the DSN'17 paper.
//!
//! Everything is deterministic: the same image and [`MachineConfig`] always
//! produce the same trace, which is what makes the concolic study
//! reproducible.
//!
//! ## Example
//!
//! ```
//! use bomblab_isa::asm::assemble;
//! use bomblab_isa::link::Linker;
//! use bomblab_vm::{Machine, MachineConfig};
//!
//! let obj = assemble(
//!     r#"
//!     .text
//!     .global _start
//! _start:
//!     li   a0, 7
//!     li   sv, 0      # SYS_EXIT
//!     sys
//!     "#,
//! )?;
//! let image = Linker::new().add_object(obj).link()?;
//! let mut machine = Machine::load(&image, None, MachineConfig::default())?;
//! let result = machine.run();
//! assert_eq!(result.status.exit_code(), Some(7));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
// Crash-containment surface: fallible paths must carry typed errors
// ([`machine::MachineError`]) instead of unwinding through the study
// runner. The workspace lint table cannot be extended per crate, so the
// stricter policy lives here; CI's `-D warnings` promotes it.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod bbcache;
pub mod cpu;
pub mod machine;
pub mod mem;
pub mod os;
pub mod trace;

pub use bbcache::{BbStats, BlockCache, MicroOp, StoreClass};
pub use cpu::{Effect, Regs};
pub use machine::{
    LoadError, Machine, MachineConfig, MachineError, RunResult, RunStatus, BOOM_EXIT_CODE, ROOT_PID,
};
pub use mem::{MemFault, Memory};
pub use os::{Fd, Os};
pub use trace::{
    InputSource, MemAccess, OutputSink, StepView, Steps, SysEffect, SyscallRecord, Trace, TraceStep,
};
