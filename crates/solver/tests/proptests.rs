//! Property tests for the solver stack: smart-constructor soundness,
//! bit-blast/eval agreement, and model validity.

use bomblab_solver::expr::{eval, BvOp, CmpOp, FOp, Node, Term, Value};
use bomblab_solver::smtlib::to_smtlib;
use bomblab_solver::{SolveOutcome, Solver};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

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

/// A small expression AST we can both build as a `Term` and evaluate
/// naively, so the smart constructors' folding can be cross-checked.
#[derive(Debug, Clone)]
enum Ast {
    X,
    Y,
    Const(u64),
    Bin(BvOp, Box<Ast>, Box<Ast>),
    Not(Box<Ast>),
    Neg(Box<Ast>),
}

fn arb_ast() -> impl Strategy<Value = Ast> {
    let leaf = prop_oneof![
        Just(Ast::X),
        Just(Ast::Y),
        any::<u64>().prop_map(Ast::Const),
    ];
    leaf.prop_recursive(4, 24, 3, |inner| {
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

fn build(ast: &Ast, width: u8) -> Term {
    match ast {
        Ast::X => Term::var("x", width),
        Ast::Y => Term::var("y", width),
        Ast::Const(v) => Term::bv(*v, width),
        Ast::Bin(op, a, b) => Term::bin(*op, &build(a, width), &build(b, width)),
        Ast::Not(a) => Term::bvnot(&build(a, width)),
        Ast::Neg(a) => Term::bvneg(&build(a, width)),
    }
}

/// One step of a term-building program. Operands index into the terms
/// built so far (modulo their count), so later steps share earlier
/// subterms and the roots form one DAG, as path conditions do.
#[derive(Debug, Clone)]
enum Step {
    Bin(BvOp, usize, usize),
    Ite(usize, usize, usize),
    /// `f_bits(cvt_si_to_f(a) + f_from_bits(b))`: a float subterm under a
    /// bit-vector.
    Float(usize, usize),
    /// `cvt_f_to_si(f_from_bits(a))`.
    Trunc(usize),
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0usize..OPS.len(), any::<usize>(), any::<usize>())
            .prop_map(|(i, a, b)| Step::Bin(OPS[i], a, b)),
        (any::<usize>(), any::<usize>(), any::<usize>()).prop_map(|(c, t, e)| Step::Ite(c, t, e)),
        (any::<usize>(), any::<usize>()).prop_map(|(a, b)| Step::Float(a, b)),
        any::<usize>().prop_map(Step::Trunc),
    ]
}

/// Runs `steps` over the leaves `x`, `y` and a constant, then picks
/// comparisons of the built terms as roots.
fn build_dag(steps: &[Step], roots: &[(usize, usize)]) -> Vec<Term> {
    let pool = build_pool(steps);
    roots
        .iter()
        .map(|&(a, b)| Term::cmp(CmpOp::Eq, &pool[a % pool.len()], &pool[b % pool.len()]))
        .collect()
}

/// Every term `steps` builds over the leaves `x`, `y` and a constant, the
/// leaves included.
fn build_pool(steps: &[Step]) -> Vec<Term> {
    let mut pool = vec![Term::var("x", 64), Term::var("y", 64), Term::bv(7, 64)];
    for step in steps {
        let at = |i: usize| pool[i % pool.len()].clone();
        let t = match *step {
            Step::Bin(op, a, b) => Term::bin(op, &at(a), &at(b)),
            Step::Ite(c, t, e) => {
                let cond = Term::cmp(CmpOp::Ult, &at(c), &at(t));
                Term::ite(&cond, &at(t), &at(e))
            }
            Step::Float(a, b) => {
                let sum = Term::fbin(
                    FOp::Add,
                    &Term::cvt_si_to_f(&at(a)),
                    &Term::f_from_bits(&at(b)),
                );
                Term::f_bits(&sum)
            }
            Step::Trunc(a) => Term::cvt_f_to_si(&Term::f_from_bits(&at(a))),
        };
        pool.push(t);
    }
    pool
}

/// Reference float check over `topo_order`, a walker of its own.
fn has_float_by_topo_order(t: &Term) -> bool {
    t.topo_order().iter().any(|n| {
        matches!(
            n.node(),
            Node::FConst(_)
                | Node::FBin { .. }
                | Node::FNeg(_)
                | Node::FSqrt(_)
                | Node::FCmp { .. }
                | Node::CvtSiToF(_)
                | Node::CvtFToSi(_)
                | Node::FFromBits(_)
                | Node::FBits(_)
        )
    })
}

fn env(x: u64, y: u64) -> HashMap<Arc<str>, u64> {
    [(Arc::from("x"), x), (Arc::from("y"), y)]
        .into_iter()
        .collect()
}

proptest! {
    /// The folding smart constructors must preserve semantics: building a
    /// term (which may fold/simplify) and evaluating it equals evaluating
    /// an unsimplified equivalent (built fresh with leaf substitution).
    #[test]
    fn smart_constructors_preserve_evaluation(
        ast in arb_ast(),
        x in any::<u64>(),
        y in any::<u64>(),
    ) {
        let width = 16u8;
        let term = build(&ast, width);
        // Substitute the concrete values at the leaves: constant folding
        // computes the exact value.
        fn subst(ast: &Ast, x: u64, y: u64, width: u8) -> Term {
            match ast {
                Ast::X => Term::bv(x, width),
                Ast::Y => Term::bv(y, width),
                Ast::Const(v) => Term::bv(*v, width),
                Ast::Bin(op, a, b) => {
                    Term::bin(*op, &subst(a, x, y, width), &subst(b, x, y, width))
                }
                Ast::Not(a) => Term::bvnot(&subst(a, x, y, width)),
                Ast::Neg(a) => Term::bvneg(&subst(a, x, y, width)),
            }
        }
        let folded = subst(&ast, x, y, width).as_const().expect("fully folded");
        let evaluated = eval(&term, &env(x, y)).expect("closed").bits();
        prop_assert_eq!(folded, evaluated);
    }

    /// For any expression and any concrete (x, y), constraining the
    /// variables and the expression's value must be satisfiable, and the
    /// solver's model must satisfy the constraint per the evaluator.
    #[test]
    fn bitblast_agrees_with_eval(
        ast in arb_ast(),
        x in any::<u64>(),
        y in any::<u64>(),
    ) {
        let width = 8u8;
        let term = build(&ast, width);
        let want = eval(&term, &env(x, y)).expect("closed").bits();
        let xv = Term::var("x", width);
        let yv = Term::var("y", width);
        let c = Term::and(
            &Term::and(
                &Term::cmp(CmpOp::Eq, &xv, &Term::bv(x, width)),
                &Term::cmp(CmpOp::Eq, &yv, &Term::bv(y, width)),
            ),
            &Term::cmp(CmpOp::Eq, &term, &Term::bv(want, width)),
        );
        match Solver::new().check(&[c]) {
            SolveOutcome::Sat(_) => {}
            other => prop_assert!(false, "expected sat, got {:?}", other),
        }
    }

    /// Solver models satisfy the constraints they were produced for.
    #[test]
    fn models_satisfy_their_constraints(
        ast in arb_ast(),
        cmp_i in 0usize..CMPS.len(),
        k in any::<u64>(),
    ) {
        let width = 8u8;
        let term = build(&ast, width);
        let c = Term::cmp(CMPS[cmp_i], &term, &Term::bv(k, width));
        match Solver::new().check(std::slice::from_ref(&c)) {
            SolveOutcome::Sat(model) => {
                let mut env = model.as_env();
                // Unmentioned variables default to zero.
                env.entry(Arc::from("x")).or_insert(0);
                env.entry(Arc::from("y")).or_insert(0);
                prop_assert_eq!(
                    eval(&c, &env).expect("closed"),
                    Value::Bool(true),
                    "model must satisfy the constraint"
                );
            }
            SolveOutcome::Unsat => {
                // Spot-check: a handful of assignments must all violate c.
                for (x, y) in [(0u64, 0u64), (1, 1), (k, k), (255, 0), (0, 255)] {
                    prop_assert_eq!(
                        eval(&c, &env(x, y)).expect("closed"),
                        Value::Bool(false),
                        "unsat claim contradicted by x={} y={}", x, y
                    );
                }
            }
            SolveOutcome::Unknown(r) => {
                prop_assert!(false, "tiny formulas should never exhaust budgets: {}", r);
            }
        }
    }

    /// Hash-consing is canonical: building the same structure twice must
    /// intern to the *same* node (equal ids, `==` in O(1)), and the
    /// interned construction + smart-constructor folding must agree with
    /// a naive evaluator that never allocates a term at all.
    #[test]
    fn interning_is_canonical_and_semantics_preserving(
        ast in arb_ast(),
        x in any::<u64>(),
        y in any::<u64>(),
    ) {
        /// Reference semantics, written independently of `expr.rs`:
        /// wrap-around arithmetic at `width`, SMT-LIB division
        /// conventions (x/0 = all-ones, x%0 = x), shifts >= width clear
        /// (arithmetic shift saturates at width-1).
        fn naive(ast: &Ast, x: u64, y: u64, w: u8) -> u64 {
            let m = if w == 64 { u64::MAX } else { (1u64 << w) - 1 };
            let sign = |v: u64| -> i64 {
                let shift = 64 - w as u32;
                ((v << shift) as i64) >> shift
            };
            let v = match ast {
                Ast::X => x,
                Ast::Y => y,
                Ast::Const(c) => *c,
                Ast::Not(a) => !naive(a, x, y, w),
                Ast::Neg(a) => naive(a, x, y, w).wrapping_neg(),
                Ast::Bin(op, a, b) => {
                    let (a, b) = (naive(a, x, y, w) & m, naive(b, x, y, w) & m);
                    match op {
                        BvOp::Add => a.wrapping_add(b),
                        BvOp::Sub => a.wrapping_sub(b),
                        BvOp::Mul => a.wrapping_mul(b),
                        BvOp::UDiv if b == 0 => m,
                        BvOp::UDiv => a / b,
                        BvOp::SDiv if sign(b) == 0 => m,
                        BvOp::SDiv => sign(a).wrapping_div(sign(b)) as u64,
                        BvOp::URem if b == 0 => a,
                        BvOp::URem => a % b,
                        BvOp::SRem if sign(b) == 0 => a,
                        BvOp::SRem => sign(a).wrapping_rem(sign(b)) as u64,
                        BvOp::And => a & b,
                        BvOp::Or => a | b,
                        BvOp::Xor => a ^ b,
                        BvOp::Shl if b >= w as u64 => 0,
                        BvOp::Shl => a << b,
                        BvOp::LShr if b >= w as u64 => 0,
                        BvOp::LShr => a >> b,
                        BvOp::AShr => (sign(a) >> (b.min(w as u64 - 1))) as u64,
                    }
                }
            };
            v & m
        }

        let width = 16u8;
        let first = build(&ast, width);
        let second = build(&ast, width);
        prop_assert_eq!(first.id(), second.id(), "identical builds must intern to one node");
        prop_assert!(first == second, "interned equality must hold");
        let got = eval(&first, &env(x, y)).expect("closed").bits();
        let want = naive(&ast, x & 0xffff, y & 0xffff, width);
        prop_assert_eq!(got, want, "interned term diverged from reference semantics");
    }

    /// The one-walk float check over many roots agrees with checking each
    /// root on its own, on DAGs whose roots share subterms, and both agree
    /// with a scan of each root's topological order.
    #[test]
    fn any_has_float_matches_per_term_check(
        steps in proptest::collection::vec(arb_step(), 0..24),
        roots in proptest::collection::vec((any::<usize>(), any::<usize>()), 0..6),
    ) {
        let terms = build_dag(&steps, &roots);
        let any = Term::any_has_float(&terms);
        prop_assert_eq!(any, terms.iter().any(Term::has_float));
        prop_assert_eq!(any, terms.iter().any(has_float_by_topo_order));
    }

    /// Two terms have equal fingerprints exactly when they render to the
    /// same SMT-LIB text. The two programs share a prefix, so the pools
    /// hold equal terms built along different routes as well as
    /// different ones.
    #[test]
    fn fingerprints_agree_with_smtlib_renders(
        shared in proptest::collection::vec(arb_step(), 0..12),
        left in proptest::collection::vec(arb_step(), 0..8),
        right in proptest::collection::vec(arb_step(), 0..8),
    ) {
        let pool = |tail: &[Step]| {
            let steps: Vec<Step> = shared.iter().chain(tail).cloned().collect();
            build_pool(&steps)
        };
        let (a, b) = (pool(&left), pool(&right));
        for s in &a {
            for t in &b {
                let same_text = to_smtlib(std::slice::from_ref(s)) == to_smtlib(std::slice::from_ref(t));
                prop_assert_eq!(s.fingerprint() == t.fingerprint(), same_text);
            }
        }
    }

    /// `extract`/`concat`/extensions respect the evaluator on random data.
    #[test]
    fn structure_ops_agree_with_eval(v in any::<u64>(), hi in 0u8..32, lo in 0u8..32) {
        prop_assume!(hi >= lo);
        let x = Term::bv(v, 32);
        let ex = Term::extract(&x, hi, lo);
        let expected = (v >> lo) & if hi - lo + 1 >= 64 { u64::MAX } else { (1u64 << (hi - lo + 1)) - 1 };
        prop_assert_eq!(ex.as_const(), Some(expected & 0xffff_ffff));
        let z = Term::zext(&ex, 64);
        prop_assert_eq!(eval(&z, &HashMap::new()).expect("closed").bits(), expected & 0xffff_ffff);
    }
}
