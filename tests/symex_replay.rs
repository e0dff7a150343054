//! Pins the symbolic replay itself: for every bomb, the trigger input's
//! trace is replayed under each of the study's three memory models, and
//! one FNV-1a digest per (bomb, model) over the ordered path conditions,
//! the pins and the diagnostic events must match the committed golden
//! file. Conditions enter by their structural fingerprint, so a formula
//! that changes shape under the same labels fails here.

use bomblab::bombs::all_cases;
use bomblab::prelude::*;
use bomblab_obs::fnv;
use bomblab_symex::{MemoryModel, PropagationPolicy, SymExec, SymResult, SymbolizeEnv};
use bomblab_vm::{Machine, ROOT_PID};

/// The memory models the study's profiles and ground truth replay with.
const MODELS: [(&str, MemoryModel); 3] = [
    ("concretize", MemoryModel::Concretize),
    (
        "map1x128",
        MemoryModel::SymbolicMap {
            max_indirection: 1,
            region: 128,
        },
    ),
    (
        "map16x256",
        MemoryModel::SymbolicMap {
            max_indirection: 16,
            region: 256,
        },
    ),
];

/// Replays the trigger trace of `case` the way ground truth does (full
/// propagation; argv, time, net and stdin symbolic) under `model`.
fn replay(case: &StudyCase, model: MemoryModel) -> SymResult {
    let config = case.trigger.to_config(true, 4_000_000);
    let mut machine = Machine::load(&case.subject.image, case.subject.lib.as_ref(), config)
        .expect("trigger input loads");
    let snapshot = machine
        .process_memory(ROOT_PID)
        .expect("root exists")
        .clone();
    machine.run();
    let trace = machine.take_trace();
    let mut sx = SymExec::new(model, PropagationPolicy::full()).with_env(SymbolizeEnv {
        time: true,
        net: true,
        stdin: true,
        unconstrained_sys_returns: false,
    });
    sx.set_initial_memory(ROOT_PID, snapshot);
    sx.symbolize_bytes(
        ROOT_PID,
        case.subject.argv1_addr(),
        case.trigger.argv1.len() as u64,
        "arg1",
    );
    sx.run(&trace)
}

/// One digest over the path (step, pc, direction, condition), the pins
/// (step, condition) and every event vector, each vector length-prefixed.
fn digest(r: &SymResult) -> u64 {
    let mut h = fnv::OFFSET;
    let words = |h: &mut u64, ws: &[u64]| {
        for &w in ws {
            *h = fnv::fold_bytes(*h, &w.to_le_bytes());
        }
    };
    words(&mut h, &[r.path.len() as u64]);
    for pc in &r.path {
        words(
            &mut h,
            &[
                pc.step as u64,
                pc.pc,
                u64::from(pc.taken),
                pc.cond.fingerprint(),
            ],
        );
    }
    words(&mut h, &[r.pins.len() as u64]);
    for pin in &r.pins {
        words(&mut h, &[pin.step as u64, pin.cond.fingerprint()]);
    }
    let e = &r.events;
    for steps in [
        &e.concretized_loads,
        &e.concretized_stores,
        &e.over_indirection,
        &e.sym_sys_nums,
        &e.sym_sys_args,
        &e.dropped_file_flows,
        &e.dropped_pipe_flows,
        &e.dropped_thread_flows,
        &e.dropped_fork_flows,
    ] {
        words(&mut h, &[steps.len() as u64]);
        for &s in steps {
            words(&mut h, &[s as u64]);
        }
    }
    words(&mut h, &[e.pinned_jumps.len() as u64]);
    for &(s, lvl) in &e.pinned_jumps {
        words(&mut h, &[s as u64, u64::from(lvl)]);
    }
    words(&mut h, &[u64::from(e.max_load_level)]);
    h
}

/// Set `UPDATE_GOLDEN=1` to regenerate after an intentional change.
#[test]
fn symbolic_replay_matches_the_committed_golden_file() {
    let mut got = String::new();
    for case in all_cases() {
        for (name, model) in MODELS {
            let r = replay(&case, model);
            got.push_str(&format!(
                "{:18} {name:10} {:016x}\n",
                case.subject.name,
                digest(&r)
            ));
        }
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/symex_replay.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &got).expect("golden file is writable");
        return;
    }
    let want = std::fs::read_to_string(path).expect("golden file is committed");
    assert_eq!(
        got, want,
        "symbolic replay drifted from tests/golden/symex_replay.txt; \
         rerun with UPDATE_GOLDEN=1 if the change is intentional"
    );
}
