//! Tool capability profiles.
//!
//! A [`ToolProfile`] is a point in the capability space the DSN'17 paper
//! implicitly explores: which instruction classes the lifter understands,
//! which inputs are declared symbolic, which covert flows the taint and
//! symbolic engines track, how symbolic memory addresses are modeled, and
//! how the environment is simulated. The four presets model the paper's
//! evaluated configurations; [`ToolProfile::omniscient`] enables every
//! mechanism and is used both as ground truth for failure diagnosis and as
//! a demonstration of what the framework itself can solve.

use bomblab_ir::SupportMatrix;
use bomblab_isa::InsnClass;
use bomblab_solver::{FloatMode, SolverBudget};
use bomblab_symex::{MemoryModel, PropagationPolicy};
use bomblab_taint::{TaintPolicy, TaintSources};

/// The solver budget used by the four paper-tool profiles: the equivalent
/// of the paper's ten-minute timeout. Crypto-grade constraints exceed it,
/// producing the `E` outcomes of Table II.
pub const PAPER_TOOL_BUDGET: SolverBudget = SolverBudget {
    max_conflicts: 5_000,
    max_formula_nodes: 2_000,
};

/// Whether a tool traces concrete runs (BAP/Triton + Pin) or emulates the
/// whole program (Angr + VEX/SimuVEX).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineStyle {
    /// Concrete execution + trace-based symbolic reasoning.
    Trace,
    /// Static lift + dynamic symbolic emulation.
    Emulation,
}

/// How the tool copes with hardware traps (the paper's exception bomb).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrapSupport {
    /// The tracer follows the trap into the handler (Pin-style).
    Follow,
    /// The tracer cannot record the trap transition — an `Es1` tracing gap.
    MissingLift,
    /// The emulator aborts on the trap — an abnormal exit (`E`).
    Crash,
    /// The emulator skips the trap, losing the thread's symbolic state
    /// (an `Es2` propagation break).
    Skip,
}

/// How `argv` symbolization handles string length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArgvModel {
    /// Bytes are free, including NUL — shorter strings are expressible
    /// (Angr's fixed-width-bits trick from the paper).
    Variable,
    /// Every seeded byte is constrained non-zero — length cannot vary.
    FixedNonZero,
}

/// A concolic tool's capability profile.
#[derive(Debug, Clone)]
pub struct ToolProfile {
    /// Display name.
    pub name: String,
    /// Trace-based or emulation-based.
    pub style: EngineStyle,
    /// Instruction classes the lifter supports (gaps → `Es1`).
    pub support: SupportMatrix,
    /// Taint policy: symbolic sources and propagation paths.
    pub taint_policy: TaintPolicy,
    /// Symbolic propagation policy (mirrors the taint policy).
    pub sym_policy: PropagationPolicy,
    /// Memory model for symbolic addresses.
    pub memory_model: MemoryModel,
    /// Floating-point solving capability.
    pub float_mode: FloatMode,
    /// `argv` length handling.
    pub argv_model: ArgvModel,
    /// Hardware-trap handling.
    pub trap_support: TrapSupport,
    /// Whether the tool observes non-root threads.
    pub follows_threads: bool,
    /// Whether the tool observes forked children.
    pub follows_forks: bool,
    /// Model environment syscall returns as unconstrained variables
    /// (Angr SimProcedures — source of `P` outcomes).
    pub unconstrained_sys_returns: bool,
    /// Analyze shared-library code (vs treating it as opaque summaries).
    pub loads_dyn_libs: bool,
    /// Opaque library calls return fresh unconstrained values (the
    /// aggressive Angr-NoLib summary behaviour).
    pub opaque_fresh_returns: bool,
    /// Syscall numbers whose mere execution aborts the tool (`E`).
    pub unsupported_syscalls: Vec<u64>,
    /// The tool models environment interactions as constraints, so
    /// contextual symbolic values fail at modeling (`Es3`) rather than
    /// propagation (`Es2`) — the paper's Triton behaviour.
    pub models_env_as_constraints: bool,
    /// Solver budget.
    pub solver_budget: SolverBudget,
    /// Whether the tool's solver keeps state (cached outcomes and models,
    /// the shared model store) across queries. The 2017-era tools
    /// invoked their solver afresh per query, so the paper presets run
    /// stateless — otherwise the framework's own caching would quietly
    /// make the emulated tools stronger than the budget calibration.
    pub incremental_solver: bool,
    /// VM step budget per concrete run.
    pub step_budget: u64,
    /// Maximum concrete rounds (test cases executed).
    pub max_rounds: u32,
    /// Arm the static data-flow layer's flip hints (independence proofs,
    /// flip priorities, slice cross-checks). Off for the paper-tool
    /// presets so Table II stays a faithful 2017-era reproduction.
    pub use_dataflow_hints: bool,
}

impl ToolProfile {
    /// BAP-style profile: Pin tracer that follows traps, threads, but whose
    /// lifter lacks the stack and floating-point instruction groups.
    pub fn bap() -> ToolProfile {
        ToolProfile {
            name: "BAP".to_string(),
            style: EngineStyle::Trace,
            support: SupportMatrix::full()
                .without(InsnClass::Stack)
                .without(InsnClass::FpArith)
                .without(InsnClass::FpConvert)
                .without(InsnClass::FpBranch)
                .without(InsnClass::FpMem),
            taint_policy: TaintPolicy {
                sources: TaintSources::argv_only(),
                through_files: false,
                through_pipes: false,
                across_threads: true,
                across_processes: false,
                through_pointers: true,
            },
            sym_policy: PropagationPolicy {
                through_files: false,
                through_pipes: false,
                across_threads: true,
                across_processes: false,
            },
            memory_model: MemoryModel::Concretize,
            float_mode: FloatMode::Reject,
            argv_model: ArgvModel::FixedNonZero,
            trap_support: TrapSupport::Follow,
            follows_threads: true,
            follows_forks: false,
            unconstrained_sys_returns: false,
            loads_dyn_libs: true,
            opaque_fresh_returns: false,
            unsupported_syscalls: Vec::new(),
            models_env_as_constraints: false,
            solver_budget: PAPER_TOOL_BUDGET,
            incremental_solver: false,
            step_budget: 2_000_000,
            max_rounds: 24,
            use_dataflow_hints: false,
        }
    }

    /// Triton-style profile: Pin tracer without trap/thread support and a
    /// lifter missing the float-conversion and float-branch groups
    /// (`cvtsi2sd` / `ucomisd` in the paper).
    pub fn triton() -> ToolProfile {
        ToolProfile {
            name: "Triton".to_string(),
            style: EngineStyle::Trace,
            support: SupportMatrix::full()
                .without(InsnClass::FpConvert)
                .without(InsnClass::FpBranch),
            taint_policy: TaintPolicy {
                sources: TaintSources::argv_only(),
                through_files: false,
                through_pipes: false,
                across_threads: false,
                across_processes: false,
                through_pointers: true,
            },
            sym_policy: PropagationPolicy::direct_only(),
            memory_model: MemoryModel::Concretize,
            float_mode: FloatMode::Reject,
            argv_model: ArgvModel::FixedNonZero,
            trap_support: TrapSupport::MissingLift,
            follows_threads: false,
            follows_forks: false,
            unconstrained_sys_returns: false,
            loads_dyn_libs: true,
            opaque_fresh_returns: false,
            unsupported_syscalls: Vec::new(),
            models_env_as_constraints: true,
            solver_budget: PAPER_TOOL_BUDGET,
            incremental_solver: false,
            step_budget: 2_000_000,
            max_rounds: 24,
            use_dataflow_hints: false,
        }
    }

    /// Angr-style profile with dynamic libraries loaded: full lifter,
    /// symbolic-index memory up to one level, syscall simulation.
    pub fn angr() -> ToolProfile {
        ToolProfile {
            name: "Angr".to_string(),
            style: EngineStyle::Emulation,
            support: SupportMatrix::full(),
            taint_policy: TaintPolicy {
                sources: TaintSources::argv_only(),
                through_files: false,
                through_pipes: false,
                across_threads: false,
                across_processes: false,
                through_pointers: true,
            },
            sym_policy: PropagationPolicy::direct_only(),
            memory_model: MemoryModel::SymbolicMap {
                max_indirection: 1,
                region: 128,
            },
            float_mode: FloatMode::Reject,
            argv_model: ArgvModel::Variable,
            trap_support: TrapSupport::Crash,
            follows_threads: false,
            follows_forks: false,
            unconstrained_sys_returns: true,
            loads_dyn_libs: true,
            opaque_fresh_returns: false,
            unsupported_syscalls: vec![bomblab_isa::sys::NET_GET],
            models_env_as_constraints: false,
            solver_budget: PAPER_TOOL_BUDGET,
            incremental_solver: false,
            step_budget: 2_000_000,
            max_rounds: 24,
            use_dataflow_hints: false,
        }
    }

    /// Angr-style profile *without* loading dynamic libraries: library
    /// calls become opaque summaries with unconstrained returns.
    pub fn angr_nolib() -> ToolProfile {
        ToolProfile {
            name: "Angr-NoLib".to_string(),
            sym_policy: PropagationPolicy {
                through_files: false,
                through_pipes: true,
                across_threads: false,
                across_processes: true,
            },
            taint_policy: TaintPolicy {
                sources: TaintSources::argv_only(),
                through_files: false,
                through_pipes: true,
                across_threads: false,
                across_processes: true,
                through_pointers: true,
            },
            trap_support: TrapSupport::Skip,
            follows_forks: true,
            loads_dyn_libs: false,
            opaque_fresh_returns: true,
            ..ToolProfile::angr()
        }
    }

    /// Everything on: ground truth for diagnosis and the framework's own
    /// best effort.
    pub fn omniscient() -> ToolProfile {
        ToolProfile {
            name: "Omniscient".to_string(),
            style: EngineStyle::Trace,
            support: SupportMatrix::full(),
            taint_policy: TaintPolicy::omniscient(),
            sym_policy: PropagationPolicy::full(),
            memory_model: MemoryModel::SymbolicMap {
                max_indirection: 2,
                region: 256,
            },
            float_mode: FloatMode::LocalSearch,
            argv_model: ArgvModel::Variable,
            trap_support: TrapSupport::Follow,
            follows_threads: true,
            follows_forks: true,
            unconstrained_sys_returns: false,
            loads_dyn_libs: true,
            opaque_fresh_returns: false,
            unsupported_syscalls: Vec::new(),
            models_env_as_constraints: false,
            solver_budget: SolverBudget::default(),
            incremental_solver: true,
            step_budget: 4_000_000,
            max_rounds: 48,
            use_dataflow_hints: true,
        }
    }

    /// Projects this profile onto the static analyzer's capability model,
    /// so [`bomblab_sa`] can predict the tool's failure stage per bomb
    /// without executing it.
    pub fn static_capabilities(&self) -> bomblab_sa::Capabilities {
        let max_indirection = match self.memory_model {
            MemoryModel::Concretize => 0,
            MemoryModel::SymbolicMap {
                max_indirection, ..
            } => u8::try_from(max_indirection).unwrap_or(u8::MAX),
        };
        bomblab_sa::Capabilities {
            name: self.name.clone(),
            lifts_stack: self.support.supports(InsnClass::Stack),
            lifts_fp_arith: self.support.supports(InsnClass::FpArith),
            lifts_fp_convert: self.support.supports(InsnClass::FpConvert),
            lifts_fp_branch: self.support.supports(InsnClass::FpBranch),
            float_solver: self.float_mode == FloatMode::LocalSearch,
            trap_model: match self.trap_support {
                TrapSupport::Follow => bomblab_sa::TrapModel::Follow,
                TrapSupport::MissingLift => bomblab_sa::TrapModel::MissingLift,
                TrapSupport::Crash => bomblab_sa::TrapModel::Crash,
                TrapSupport::Skip => bomblab_sa::TrapModel::Skip,
            },
            max_indirection,
            argv_variable: self.argv_model == ArgvModel::Variable,
            models_env_as_constraints: self.models_env_as_constraints,
            loads_dyn_libs: self.loads_dyn_libs,
            sim_sys_returns: self.unconstrained_sys_returns,
            opaque_lib_returns: self.opaque_fresh_returns,
            follows_threads: self.follows_threads,
            sym_across_threads: self.taint_policy.across_threads,
            follows_forks: self.follows_forks,
            tracks_files: self.taint_policy.through_files,
            tracks_pipes: self.taint_policy.through_pipes,
            unsupported_syscalls: self.unsupported_syscalls.clone(),
            style: match self.style {
                EngineStyle::Trace => bomblab_sa::Style::Trace,
                EngineStyle::Emulation => bomblab_sa::Style::Emulation,
            },
            small_solver_budget: self.solver_budget.max_formula_nodes
                <= PAPER_TOOL_BUDGET.max_formula_nodes,
            // The claripy-style float abort and the simulated filesystem
            // both ship with the full-library emulation environment.
            float_crash: self.style == EngineStyle::Emulation
                && self.float_mode == FloatMode::Reject
                && self.loads_dyn_libs,
            sim_fs: self.unconstrained_sys_returns && self.loads_dyn_libs,
        }
    }

    /// The paper's four evaluated configurations, in Table II column order.
    pub fn paper_lineup() -> Vec<ToolProfile> {
        vec![
            ToolProfile::bap(),
            ToolProfile::triton(),
            ToolProfile::angr(),
            ToolProfile::angr_nolib(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bomblab_isa::InsnClass;

    #[test]
    fn paper_lineup_matches_table_ii_column_order() {
        let names: Vec<String> = ToolProfile::paper_lineup()
            .into_iter()
            .map(|p| p.name)
            .collect();
        assert_eq!(names, ["BAP", "Triton", "Angr", "Angr-NoLib"]);
    }

    #[test]
    fn bap_lacks_stack_and_float_lifting() {
        let bap = ToolProfile::bap();
        assert!(!bap.support.supports(InsnClass::Stack));
        assert!(!bap.support.supports(InsnClass::FpConvert));
        assert!(bap.support.supports(InsnClass::IntAlu));
        assert_eq!(bap.trap_support, TrapSupport::Follow);
        assert!(bap.follows_threads);
    }

    #[test]
    fn triton_lacks_float_conversions_and_trap_tracing() {
        let triton = ToolProfile::triton();
        assert!(!triton.support.supports(InsnClass::FpConvert));
        assert!(!triton.support.supports(InsnClass::FpBranch));
        assert!(triton.support.supports(InsnClass::Stack));
        assert_eq!(triton.trap_support, TrapSupport::MissingLift);
        assert!(triton.models_env_as_constraints);
    }

    #[test]
    fn angr_variants_differ_only_in_library_handling_and_policies() {
        let angr = ToolProfile::angr();
        let nolib = ToolProfile::angr_nolib();
        assert!(angr.loads_dyn_libs && !nolib.loads_dyn_libs);
        assert!(!angr.follows_forks && nolib.follows_forks);
        assert!(nolib.opaque_fresh_returns);
        assert_eq!(angr.style, EngineStyle::Emulation);
        assert_eq!(nolib.style, EngineStyle::Emulation);
        // Both simulate syscalls and use the symbolic-index memory model.
        assert!(angr.unconstrained_sys_returns && nolib.unconstrained_sys_returns);
        assert!(matches!(
            angr.memory_model,
            bomblab_symex::MemoryModel::SymbolicMap {
                max_indirection: 1,
                ..
            }
        ));
    }

    #[test]
    fn static_capabilities_project_onto_the_analyzers_paper_profiles() {
        // The static analyzer carries its own copy of the four paper
        // profiles (used by its unit tests); the study derives
        // capabilities from ToolProfile instead. Both must agree field
        // for field, or the static/dynamic comparison is meaningless.
        let sa_profiles = bomblab_sa::Capabilities::paper_profiles();
        for (profile, want) in ToolProfile::paper_lineup().iter().zip(&sa_profiles) {
            let mut got = profile.static_capabilities();
            got.name.clone_from(&want.name); // display names differ in case
            assert_eq!(&got, want, "{} capability projection drifted", profile.name);
        }
        // The omniscient profile must not inherit any paper handicap.
        let omni = ToolProfile::omniscient().static_capabilities();
        assert!(omni.float_solver);
        assert!(!omni.small_solver_budget);
        assert!(!omni.float_crash && !omni.sim_fs);
    }

    #[test]
    fn omniscient_enables_everything() {
        let omni = ToolProfile::omniscient();
        assert!(omni.taint_policy.sources.time);
        assert!(omni.taint_policy.through_files);
        assert!(omni.follows_threads && omni.follows_forks);
        assert_eq!(omni.trap_support, TrapSupport::Follow);
        assert!(omni.unsupported_syscalls.is_empty());
    }
}
