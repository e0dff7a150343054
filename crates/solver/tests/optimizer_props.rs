//! Property tests for the word-level query optimizer: the optimized
//! pipeline (rewrite simplification, interval pruning, slicing) must agree
//! with the raw pipeline on sat/unsat, its models must satisfy the
//! *original* constraints, and interval-pruned unsat verdicts must be
//! confirmed by the raw bit-blasting path. The same generator checks the
//! sort each term caches at intern time against a recursive reference.

use bomblab_solver::expr::{eval, BvOp, CmpOp, Node, Sort, Term, Value};
use bomblab_solver::simplify::{simplify, SimplifyStats};
use bomblab_solver::{interval, SolveOutcome, Solver};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

const OPS: [BvOp; 13] = [
    BvOp::Add,
    BvOp::Sub,
    BvOp::Mul,
    BvOp::UDiv,
    BvOp::SDiv,
    BvOp::URem,
    BvOp::SRem,
    BvOp::And,
    BvOp::Or,
    BvOp::Xor,
    BvOp::Shl,
    BvOp::LShr,
    BvOp::AShr,
];

const CMPS: [CmpOp; 5] = [CmpOp::Eq, CmpOp::Ult, CmpOp::Ule, CmpOp::Slt, CmpOp::Sle];

/// A small expression AST over three variables, so constraint sets can
/// share some variables and not others (exercising the slicer).
#[derive(Debug, Clone)]
enum Ast {
    X,
    Y,
    Z,
    Const(u64),
    Bin(BvOp, Box<Ast>, Box<Ast>),
    Not(Box<Ast>),
    Neg(Box<Ast>),
}

fn arb_ast() -> impl Strategy<Value = Ast> {
    let leaf = prop_oneof![
        Just(Ast::X),
        Just(Ast::Y),
        Just(Ast::Z),
        any::<u64>().prop_map(Ast::Const),
    ];
    leaf.prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            (0usize..OPS.len(), inner.clone(), inner.clone()).prop_map(|(i, a, b)| Ast::Bin(
                OPS[i],
                Box::new(a),
                Box::new(b)
            )),
            inner.clone().prop_map(|a| Ast::Not(Box::new(a))),
            inner.prop_map(|a| Ast::Neg(Box::new(a))),
        ]
    })
}

/// A random constraint: a comparison between an expression and a constant.
fn arb_constraint() -> impl Strategy<Value = (Ast, usize, u64)> {
    (arb_ast(), 0usize..CMPS.len(), any::<u64>())
}

const WIDTH: u8 = 8;

fn build(ast: &Ast) -> Term {
    match ast {
        Ast::X => Term::var("x", WIDTH),
        Ast::Y => Term::var("y", WIDTH),
        Ast::Z => Term::var("z", WIDTH),
        Ast::Const(v) => Term::bv(*v, WIDTH),
        Ast::Bin(op, a, b) => Term::bin(*op, &build(a), &build(b)),
        Ast::Not(a) => Term::bvnot(&build(a)),
        Ast::Neg(a) => Term::bvneg(&build(a)),
    }
}

fn constraints(specs: &[(Ast, usize, u64)]) -> Vec<Term> {
    specs
        .iter()
        .map(|(ast, cmp_i, k)| Term::cmp(CMPS[*cmp_i], &build(ast), &Term::bv(*k, WIDTH)))
        .collect()
}

fn full_env(model: &bomblab_solver::Model) -> HashMap<Arc<str>, u64> {
    let mut env = model.as_env();
    for name in ["x", "y", "z"] {
        env.entry(Arc::from(name)).or_insert(0);
    }
    env
}

fn satisfies(cs: &[Term], env: &HashMap<Arc<str>, u64>) -> bool {
    cs.iter()
        .all(|c| matches!(eval(c, env), Ok(Value::Bool(true))))
}

/// Exhaustively checks an up-to-three-variable 8-bit constraint set by
/// brute force would be 2^24 — instead sample a fixed grid, which is
/// enough to contradict a wrong unsat claim in practice.
fn any_grid_assignment_satisfies(cs: &[Term]) -> bool {
    const PROBES: [u64; 9] = [0, 1, 2, 3, 7, 8, 127, 128, 255];
    for &x in &PROBES {
        for &y in &PROBES {
            for &z in &PROBES {
                let env: HashMap<Arc<str>, u64> = [
                    (Arc::from("x"), x),
                    (Arc::from("y"), y),
                    (Arc::from("z"), z),
                ]
                .into_iter()
                .collect();
                if satisfies(cs, &env) {
                    return true;
                }
            }
        }
    }
    false
}

/// The sort rule applied all the way down to the leaves on every call.
fn reference_sort(t: &Term) -> Sort {
    match t.node() {
        Node::BvConst { width, .. } | Node::ZExt { width, .. } | Node::SExt { width, .. } => {
            Sort::Bv(*width)
        }
        Node::BvVar(v) => Sort::Bv(v.width),
        Node::BvBin { a, .. } | Node::BvNot(a) | Node::BvNeg(a) => reference_sort(a),
        Node::Extract { hi, lo, .. } => Sort::Bv(hi - lo + 1),
        Node::Concat { a, b } => match (reference_sort(a), reference_sort(b)) {
            (Sort::Bv(wa), Sort::Bv(wb)) => Sort::Bv(wa + wb),
            other => panic!("concat of {other:?}"),
        },
        Node::Cmp { .. }
        | Node::BoolConst(_)
        | Node::BNot(_)
        | Node::BAnd(..)
        | Node::BOr(..)
        | Node::FCmp { .. } => Sort::Bool,
        Node::Ite { then, .. } => reference_sort(then),
        Node::FConst(_)
        | Node::FBin { .. }
        | Node::FNeg(_)
        | Node::FSqrt(_)
        | Node::CvtSiToF(_)
        | Node::FFromBits(_) => Sort::F64,
        Node::CvtFToSi(_) | Node::FBits(_) => Sort::Bv(64),
    }
}

/// Building a dependent chain is linear in its depth: each constructor
/// reads its operand's cached sort instead of walking the left spine
/// down to a leaf, which made this build quadratic (seconds at 30,000).
#[test]
fn deep_left_chains_build_in_linear_time() {
    const DEPTH: u64 = 50_000;
    // Dropping the chain still recurses once per level; a 200,000-deep
    // chain overflows a 2 MiB stack.
    std::thread::Builder::new()
        .stack_size(256 << 20)
        .spawn(|| {
            let start = Instant::now();
            let mut chain = Term::var("x", 64);
            for i in 1..=DEPTH {
                chain = Term::bin(BvOp::Add, &chain, &Term::bv(i, 64));
            }
            let elapsed = start.elapsed();
            assert_eq!(chain.sort(), Sort::Bv(64));
            assert!(
                elapsed < Duration::from_secs(1),
                "a {DEPTH}-deep Add chain took {elapsed:?} to build"
            );
        })
        .expect("spawn a thread with a roomy stack")
        .join()
        .expect("the chain builds and drops");
}

proptest! {
    /// Every node's cached sort equals the recursive reference rule, over
    /// the generated constraints, their simplified forms, and terms that
    /// add the width-changing and boolean nodes the generator lacks.
    #[test]
    fn cached_sorts_match_the_recursive_rule(
        ast in arb_ast(),
        cmp_i in 0usize..CMPS.len(),
        k in any::<u64>(),
        hi in 0u8..WIDTH,
    ) {
        let e = build(&ast);
        let c = Term::cmp(CMPS[cmp_i], &e, &Term::bv(k, WIDTH));
        let roots = [
            simplify(&c, &mut SimplifyStats::default()),
            Term::ite(&c, &Term::zext(&e, 16), &Term::sext(&Term::bvnot(&e), 16)),
            Term::concat(&Term::extract(&e, hi, 0), &e),
            Term::or(&Term::not(&c), &Term::and(&c, &Term::cmp(CmpOp::Ult, &e, &e))),
            c,
        ];
        for root in &roots {
            for t in root.topo_order() {
                prop_assert_eq!(t.sort(), reference_sort(&t), "{:?}", t);
            }
        }
    }

    /// The rewrite simplifier preserves evaluation on random inputs.
    #[test]
    fn simplify_preserves_evaluation(
        ast in arb_ast(),
        cmp_i in 0usize..CMPS.len(),
        k in any::<u64>(),
        x in any::<u64>(),
        y in any::<u64>(),
        z in any::<u64>(),
    ) {
        let c = Term::cmp(CMPS[cmp_i], &build(&ast), &Term::bv(k, WIDTH));
        let mut stats = SimplifyStats::default();
        let s = simplify(&c, &mut stats);
        let env: HashMap<Arc<str>, u64> =
            [(Arc::from("x"), x), (Arc::from("y"), y), (Arc::from("z"), z)]
                .into_iter()
                .collect();
        prop_assert_eq!(
            eval(&c, &env).expect("closed"),
            eval(&s, &env).expect("closed"),
            "rewrite changed semantics: {:?} vs {:?}", c, s
        );
    }

    /// Optimized and unoptimized pipelines agree on sat/unsat, and the
    /// optimized model satisfies the original constraints.
    #[test]
    fn optimizer_agrees_with_raw_pipeline(
        specs in proptest::collection::vec(arb_constraint(), 1..5),
    ) {
        let cs = constraints(&specs);
        let optimized = Solver::new().check(&cs);
        let raw = Solver::new()
            .with_simplify(false)
            .with_slicing(false)
            .check(&cs);
        match (&optimized, &raw) {
            (SolveOutcome::Sat(m), SolveOutcome::Sat(_)) => {
                prop_assert!(
                    satisfies(&cs, &full_env(m)),
                    "optimized model violates original constraints: {:?}", m
                );
            }
            (SolveOutcome::Unsat, SolveOutcome::Unsat) => {}
            (SolveOutcome::Unknown(_), _) | (_, SolveOutcome::Unknown(_)) => {
                // Budget exhaustion timing may differ between pipelines;
                // nothing to cross-check.
            }
            (a, b) => prop_assert!(false, "pipelines disagree: optimized {:?}, raw {:?}", a, b),
        }
    }

    /// An interval-pruned `False` verdict means the constraint really is
    /// unsatisfiable: the raw SAT path (no word-level stages) must agree,
    /// and no grid assignment may satisfy it.
    #[test]
    fn interval_unsat_confirmed_by_raw_sat_path(
        specs in proptest::collection::vec(arb_constraint(), 1..4),
    ) {
        let cs = constraints(&specs);
        for c in &cs {
            if interval::prune(c) == interval::Pruned::False {
                let raw = Solver::new()
                    .with_simplify(false)
                    .with_slicing(false)
                    .check(std::slice::from_ref(c));
                prop_assert_eq!(
                    raw,
                    SolveOutcome::Unsat,
                    "interval pruning claimed unsat but the SAT path disagrees: {:?}", c
                );
                prop_assert!(
                    !any_grid_assignment_satisfies(std::slice::from_ref(c)),
                    "interval-pruned constraint satisfied concretely: {:?}", c
                );
            }
        }
    }

    /// Tautology drops are real tautologies: a `True` verdict means every
    /// grid assignment satisfies the constraint.
    #[test]
    fn interval_tautologies_hold_on_grid(
        specs in proptest::collection::vec(arb_constraint(), 1..4),
    ) {
        let cs = constraints(&specs);
        const PROBES: [u64; 5] = [0, 1, 128, 254, 255];
        for c in &cs {
            if interval::prune(c) == interval::Pruned::True {
                for &x in &PROBES {
                    for &y in &PROBES {
                        for &z in &PROBES {
                            let env: HashMap<Arc<str>, u64> = [
                                (Arc::from("x"), x),
                                (Arc::from("y"), y),
                                (Arc::from("z"), z),
                            ]
                            .into_iter()
                            .collect();
                            prop_assert!(
                                satisfies(std::slice::from_ref(c), &env),
                                "claimed tautology fails at x={} y={} z={}: {:?}", x, y, z, c
                            );
                        }
                    }
                }
            }
        }
    }
}
