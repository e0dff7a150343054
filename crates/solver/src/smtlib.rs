//! SMT-LIB 2 rendering of constraint models.
//!
//! The paper's tools describe their constraint models in SMT-LIB (Triton,
//! Angr) or CVC (BAP). This module renders a conjunction of terms as an
//! SMT-LIB 2 script, so extracted path conditions can be inspected or fed
//! to an external solver for cross-checking.

use crate::expr::{BvOp, CmpOp, FCmpOp, FOp, Node, Term, Var};
use crate::idhash::IdMap;
use std::fmt::Write as _;

/// Renders `constraints` as a complete SMT-LIB 2 script (`QF_BV` when no
/// floating-point terms appear, `QF_BVFP`-flavoured otherwise).
///
/// Within each assertion, a non-leaf subterm used more than once is bound
/// once with `let` and referred to by name, so an assertion's text stays
/// linear in the size of its DAG.
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
    for c in constraints {
        let _ = writeln!(out, "(assert {})", print_shared(c));
    }
    let _ = writeln!(out, "(check-sat)");
    let _ = writeln!(out, "(get-model)");
    out
}

/// Renders one assertion, binding every shared non-leaf subterm with a
/// nested `let` in children-before-parents order.
fn print_shared(root: &Term) -> String {
    let order = root.topo_order();
    let mut uses: IdMap<usize, u32> = IdMap::default();
    for c in order.iter().flat_map(|t| t.node().children()) {
        *uses.entry(c.id()).or_default() += 1;
    }
    let mut printer = Printer {
        names: IdMap::default(),
    };
    let mut out = String::new();
    let mut lets = 0;
    for t in &order {
        let leaf = matches!(
            t.node(),
            Node::BvConst { .. } | Node::BvVar(_) | Node::BoolConst(_) | Node::FConst(_)
        );
        if !leaf && uses.get(&t.id()).copied().unwrap_or(0) > 1 {
            let name = format!("?t{lets}");
            let _ = write!(out, "(let (({name} {})) ", printer.print(t));
            printer.names.insert(t.id(), name);
            lets += 1;
        }
    }
    out.push_str(&printer.print(root));
    out.extend(std::iter::repeat_n(')', lets));
    out
}

struct Printer {
    /// Term id → the `let` name bound to it.
    names: IdMap<usize, String>,
}

impl Printer {
    fn print(&mut self, t: &Term) -> String {
        match self.names.get(&t.id()) {
            Some(name) => name.clone(),
            None => self.print_inner(t),
        }
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
            Node::FConst(v) if v.is_finite() => {
                format!("((_ to_fp 11 53) roundNearestTiesToEven {v})")
            }
            // Infinities and NaNs have no decimal form: give their bits.
            Node::FConst(v) => format!("((_ to_fp 11 53) (_ bv{} 64))", v.to_bits()),
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
    fn a_shared_ite_chain_renders_in_linear_size() {
        // Every level uses the one below twice, so the tree has 2^64
        // leaves; the script must grow by a constant per level.
        let x = Term::var("x", 32);
        let chain = |depth: u32| {
            let mut t = Term::bin(BvOp::Mul, &x, &Term::bv(3, 32));
            for i in 0..depth {
                let c = Term::cmp(CmpOp::Ult, &t, &Term::bv(u64::from(i), 32));
                t = Term::ite(&c, &t, &Term::bin(BvOp::Add, &t, &Term::bv(1, 32)));
            }
            Term::cmp(CmpOp::Eq, &t, &Term::bv(0, 32))
        };
        let (short, long) = (to_smtlib(&[chain(32)]), to_smtlib(&[chain(64)]));
        let per_level = (long.len() - short.len()) / 32;
        assert!(per_level < 200, "{per_level} bytes per level");
        assert!(long.len() < 64 * 200, "{} bytes", long.len());
        assert!(long.contains("(let ((?t0 (bvmul x (_ bv3 32))))"));
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
