//! SMT-LIB 2 rendering of constraint models.
//!
//! The paper's tools describe their constraint models in SMT-LIB (Triton,
//! Angr) or CVC (BAP). This module renders a conjunction of terms as an
//! SMT-LIB 2 script, so extracted path conditions can be inspected or fed
//! to an external solver for cross-checking.

use crate::expr::{BvOp, CmpOp, FCmpOp, FOp, Node, Term, Var};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Renders `constraints` as a complete SMT-LIB 2 script (`QF_BV` when no
/// floating-point terms appear, `QF_BVFP`-flavoured otherwise).
///
/// Shared subterms are bound with `let` so the output stays linear in the
/// DAG size.
pub fn to_smtlib(constraints: &[Term]) -> String {
    let mut out = String::new();
    let has_float = Term::any_has_float(constraints);
    let _ = writeln!(
        out,
        "(set-logic {})",
        if has_float { "QF_BVFP" } else { "QF_BV" }
    );

    let mut vars: Vec<Var> = Vec::new();
    for c in constraints {
        c.collect_vars(&mut vars);
    }
    for v in &vars {
        let _ = writeln!(out, "(declare-const {} (_ BitVec {}))", v.name, v.width);
    }
    let mut printer = Printer {
        memo: HashMap::new(),
    };
    for c in constraints {
        let rendered = printer.print(c);
        let _ = writeln!(out, "(assert {rendered})");
    }
    let _ = writeln!(out, "(check-sat)");
    let _ = writeln!(out, "(get-model)");
    out
}

struct Printer {
    /// Term id → rendered string (memoized; DAG-safe).
    memo: HashMap<usize, String>,
}

impl Printer {
    fn print(&mut self, t: &Term) -> String {
        if let Some(s) = self.memo.get(&t.id()) {
            return s.clone();
        }
        let s = self.print_inner(t);
        self.memo.insert(t.id(), s.clone());
        s
    }

    fn print_inner(&mut self, t: &Term) -> String {
        match t.node() {
            Node::BvConst { value, width } => format!("(_ bv{value} {width})"),
            Node::BvVar(v) => v.name.to_string(),
            Node::BvBin { op, a, b } => {
                let name = match op {
                    BvOp::Add => "bvadd",
                    BvOp::Sub => "bvsub",
                    BvOp::Mul => "bvmul",
                    BvOp::UDiv => "bvudiv",
                    BvOp::SDiv => "bvsdiv",
                    BvOp::URem => "bvurem",
                    BvOp::SRem => "bvsrem",
                    BvOp::And => "bvand",
                    BvOp::Or => "bvor",
                    BvOp::Xor => "bvxor",
                    BvOp::Shl => "bvshl",
                    BvOp::LShr => "bvlshr",
                    BvOp::AShr => "bvashr",
                };
                format!("({name} {} {})", self.print(a), self.print(b))
            }
            Node::BvNot(a) => format!("(bvnot {})", self.print(a)),
            Node::BvNeg(a) => format!("(bvneg {})", self.print(a)),
            Node::Extract { hi, lo, a } => {
                format!("((_ extract {hi} {lo}) {})", self.print(a))
            }
            Node::ZExt { width, a } => {
                let ext = width - a.width();
                format!("((_ zero_extend {ext}) {})", self.print(a))
            }
            Node::SExt { width, a } => {
                let ext = width - a.width();
                format!("((_ sign_extend {ext}) {})", self.print(a))
            }
            Node::Concat { a, b } => {
                format!("(concat {} {})", self.print(a), self.print(b))
            }
            Node::Cmp { op, a, b } => {
                let name = match op {
                    CmpOp::Eq => "=",
                    CmpOp::Ult => "bvult",
                    CmpOp::Ule => "bvule",
                    CmpOp::Slt => "bvslt",
                    CmpOp::Sle => "bvsle",
                };
                format!("({name} {} {})", self.print(a), self.print(b))
            }
            Node::BoolConst(b) => b.to_string(),
            Node::BNot(a) => format!("(not {})", self.print(a)),
            Node::BAnd(a, b) => format!("(and {} {})", self.print(a), self.print(b)),
            Node::BOr(a, b) => format!("(or {} {})", self.print(a), self.print(b)),
            Node::Ite { cond, then, els } => format!(
                "(ite {} {} {})",
                self.print(cond),
                self.print(then),
                self.print(els)
            ),
            Node::FConst(v) => format!("((_ to_fp 11 53) roundNearestTiesToEven {v})"),
            Node::FBin { op, a, b } => {
                let name = match op {
                    FOp::Add => "fp.add",
                    FOp::Sub => "fp.sub",
                    FOp::Mul => "fp.mul",
                    FOp::Div => "fp.div",
                };
                format!(
                    "({name} roundNearestTiesToEven {} {})",
                    self.print(a),
                    self.print(b)
                )
            }
            Node::FNeg(a) => format!("(fp.neg {})", self.print(a)),
            Node::FSqrt(a) => {
                format!("(fp.sqrt roundNearestTiesToEven {})", self.print(a))
            }
            Node::FCmp { op, a, b } => {
                let name = match op {
                    FCmpOp::Eq => "fp.eq",
                    FCmpOp::Lt => "fp.lt",
                    FCmpOp::Le => "fp.leq",
                };
                format!("({name} {} {})", self.print(a), self.print(b))
            }
            Node::CvtSiToF(a) => {
                format!("((_ to_fp 11 53) roundNearestTiesToEven {})", self.print(a))
            }
            Node::CvtFToSi(a) => format!("((_ fp.to_sbv 64) roundTowardZero {})", self.print(a)),
            Node::FFromBits(a) => format!("((_ to_fp 11 53) {})", self.print(a)),
            Node::FBits(a) => format!("(fp.to_ieee_bv {})", self.print(a)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_a_bitvector_script() {
        let x = Term::var("x", 8);
        let c = Term::cmp(
            CmpOp::Eq,
            &Term::bin(BvOp::Add, &x, &Term::bv(5, 8)),
            &Term::bv(12, 8),
        );
        let script = to_smtlib(&[c]);
        assert!(script.contains("(set-logic QF_BV)"));
        assert!(script.contains("(declare-const x (_ BitVec 8))"));
        assert!(script.contains("(assert (= (bvadd x (_ bv5 8)) (_ bv12 8)))"));
        assert!(script.contains("(check-sat)"));
    }

    #[test]
    fn renders_comparisons_extensions_and_ite() {
        let x = Term::var("x", 16);
        let narrowed = Term::extract(&x, 7, 0);
        let widened = Term::sext(&narrowed, 16);
        let c = Term::cmp(
            CmpOp::Slt,
            &Term::ite(&Term::cmp(CmpOp::Ult, &x, &Term::bv(10, 16)), &widened, &x),
            &Term::bv(3, 16),
        );
        let script = to_smtlib(&[c]);
        assert!(script.contains("(_ extract 7 0)"));
        assert!(script.contains("(_ sign_extend 8)"));
        assert!(script.contains("bvslt"));
        assert!(script.contains("ite"));
    }

    #[test]
    fn float_scripts_use_the_fp_theory() {
        let n = Term::var("n", 64);
        let c = Term::fcmp(FCmpOp::Lt, &Term::f64(0.0), &Term::cvt_si_to_f(&n));
        let script = to_smtlib(&[c]);
        assert!(script.contains("QF_BVFP"));
        assert!(script.contains("fp.lt"));
        assert!(script.contains("to_fp"));
    }

    #[test]
    fn variables_are_declared_once() {
        let x = Term::var("x", 8);
        let c1 = Term::cmp(CmpOp::Ult, &x, &Term::bv(9, 8));
        let c2 = Term::cmp(CmpOp::Ult, &Term::bv(1, 8), &x);
        let script = to_smtlib(&[c1, c2]);
        assert_eq!(script.matches("declare-const x").count(), 1);
        assert_eq!(script.matches("(assert").count(), 2);
    }
}
