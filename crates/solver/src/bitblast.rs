//! Tseitin bit-blasting of bitvector terms into CNF.
//!
//! Every bitvector term becomes a vector of SAT literals (LSB first);
//! boolean terms become single literals. Floating-point nodes cannot be
//! blasted — they are handled by the float fallback in [`crate::Solver::check`].

use crate::expr::{BvOp, CmpOp, Node, Term, Var};
use crate::sat::{Lit, SatResult, SatSolver};
use std::collections::HashMap;
use std::fmt;

/// Errors during bit-blasting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlastError {
    /// The formula contains floating-point terms.
    Float,
}

impl fmt::Display for BlastError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlastError::Float => write!(f, "formula contains floating-point terms"),
        }
    }
}

impl std::error::Error for BlastError {}

/// The CNF of one CDCL call. Each constraint is Tseitin-encoded, in the
/// order given, into an indicator literal, and [`Cnf::solve`] decides the
/// conjunction with those literals as assumptions.
///
/// Sound because every gate emitted by the blaster is a full (two-sided)
/// Tseitin definition: the indicator literal is *equivalent* to its
/// constraint under the definitional clauses, so assuming it constrains
/// exactly that constraint and nothing else.
#[derive(Debug)]
pub struct Cnf {
    b: Blaster,
    /// Each constraint's indicator literal, in constraint order.
    roots: Vec<Lit>,
    /// Distinct constraints encoded.
    roots_blasted: u64,
}

impl Cnf {
    /// Blasts `constraints` (all boolean-sorted) into a fresh CNF.
    ///
    /// # Errors
    ///
    /// Returns [`BlastError::Float`] if any constraint contains
    /// floating-point nodes.
    ///
    /// # Panics
    ///
    /// Panics if a constraint is not boolean-sorted.
    pub fn blast(constraints: &[Term]) -> Result<Cnf, BlastError> {
        let mut b = Blaster::new();
        let mut roots = Vec::with_capacity(constraints.len());
        let mut distinct = std::collections::HashSet::with_capacity(constraints.len());
        for c in constraints {
            assert_eq!(
                c.sort(),
                crate::expr::Sort::Bool,
                "constraints must be boolean"
            );
            // Populate the caches children-first so the recursive workers
            // never descend more than one level on deep DAGs.
            for node in c.topo_order() {
                match node.sort() {
                    crate::expr::Sort::Bv(_) => {
                        b.blast_bv(&node)?;
                    }
                    crate::expr::Sort::Bool => {
                        b.blast_bool(&node)?;
                    }
                    crate::expr::Sort::F64 => return Err(BlastError::Float),
                }
            }
            roots.push(b.blast_bool(c)?);
            distinct.insert(c.id());
        }
        Ok(Cnf {
            b,
            roots,
            roots_blasted: distinct.len() as u64,
        })
    }

    /// Decides the conjunction under a conflict budget.
    pub fn solve(&mut self, max_conflicts: u64) -> SatResult {
        self.b
            .sat
            .solve_with_assumptions(&self.roots, max_conflicts)
    }

    /// The value of `var` in a SAT `model`, or `None` if `var` was never
    /// blasted.
    pub fn value(&self, var: &Var, model: &[bool]) -> Option<u64> {
        let mut v = 0u64;
        for (i, &b) in self.b.var_bits.get(var)?.iter().enumerate() {
            if model[b as usize] {
                v |= 1 << i;
            }
        }
        Some(v)
    }

    /// Distinct constraints Tseitin-encoded.
    pub fn roots_blasted(&self) -> u64 {
        self.roots_blasted
    }

    /// The SAT core: its size and its counters for this call.
    pub fn sat(&self) -> &SatSolver {
        &self.b.sat
    }
}

#[derive(Debug)]
struct Blaster {
    sat: SatSolver,
    true_lit: Lit,
    bv_cache: HashMap<usize, Vec<Lit>>,
    bool_cache: HashMap<usize, Lit>,
    var_bits: HashMap<Var, Vec<u32>>,
}

impl Blaster {
    fn new() -> Blaster {
        let mut sat = SatSolver::new();
        let t = sat.new_var();
        let true_lit = Lit::pos(t);
        sat.add_clause(&[true_lit]);
        Blaster {
            sat,
            true_lit,
            bv_cache: HashMap::new(),
            bool_cache: HashMap::new(),
            var_bits: HashMap::new(),
        }
    }

    fn false_lit(&self) -> Lit {
        self.true_lit.flip()
    }

    fn const_lit(&self, b: bool) -> Lit {
        if b {
            self.true_lit
        } else {
            self.false_lit()
        }
    }

    fn is_true(&self, l: Lit) -> bool {
        l == self.true_lit
    }

    fn is_false(&self, l: Lit) -> bool {
        l == self.false_lit()
    }

    fn fresh(&mut self) -> Lit {
        Lit::pos(self.sat.new_var())
    }

    // ---- gates ----

    fn g_and(&mut self, a: Lit, b: Lit) -> Lit {
        if self.is_false(a) || self.is_false(b) {
            return self.false_lit();
        }
        if self.is_true(a) {
            return b;
        }
        if self.is_true(b) {
            return a;
        }
        if a == b {
            return a;
        }
        if a == b.flip() {
            return self.false_lit();
        }
        let o = self.fresh();
        self.sat.add_clause(&[a.flip(), b.flip(), o]);
        self.sat.add_clause(&[a, o.flip()]);
        self.sat.add_clause(&[b, o.flip()]);
        o
    }

    fn g_or(&mut self, a: Lit, b: Lit) -> Lit {
        self.g_and(a.flip(), b.flip()).flip()
    }

    fn g_xor(&mut self, a: Lit, b: Lit) -> Lit {
        if self.is_false(a) {
            return b;
        }
        if self.is_false(b) {
            return a;
        }
        if self.is_true(a) {
            return b.flip();
        }
        if self.is_true(b) {
            return a.flip();
        }
        if a == b {
            return self.false_lit();
        }
        if a == b.flip() {
            return self.true_lit;
        }
        let o = self.fresh();
        self.sat.add_clause(&[a.flip(), b.flip(), o.flip()]);
        self.sat.add_clause(&[a, b, o.flip()]);
        self.sat.add_clause(&[a.flip(), b, o]);
        self.sat.add_clause(&[a, b.flip(), o]);
        o
    }

    /// `s ? a : b`.
    fn g_mux(&mut self, s: Lit, a: Lit, b: Lit) -> Lit {
        if self.is_true(s) {
            return a;
        }
        if self.is_false(s) {
            return b;
        }
        if a == b {
            return a;
        }
        let sa = self.g_and(s, a);
        let nsb = self.g_and(s.flip(), b);
        self.g_or(sa, nsb)
    }

    /// Full adder; returns (sum, carry).
    fn g_fa(&mut self, a: Lit, b: Lit, c: Lit) -> (Lit, Lit) {
        let axb = self.g_xor(a, b);
        let sum = self.g_xor(axb, c);
        let ab = self.g_and(a, b);
        let axbc = self.g_and(axb, c);
        let carry = self.g_or(ab, axbc);
        (sum, carry)
    }

    // ---- word-level circuits ----

    fn w_const(&self, v: u64, w: u8) -> Vec<Lit> {
        // Internal circuits (division headroom) use up to 65-bit vectors;
        // constant bits beyond a u64 are zero.
        (0..w)
            .map(|i| self.const_lit(i < 64 && (v >> i) & 1 == 1))
            .collect()
    }

    fn w_add(&mut self, a: &[Lit], b: &[Lit]) -> Vec<Lit> {
        let mut carry = self.false_lit();
        let mut out = Vec::with_capacity(a.len());
        for i in 0..a.len() {
            let (s, c) = self.g_fa(a[i], b[i], carry);
            out.push(s);
            carry = c;
        }
        out
    }

    fn w_neg(&mut self, a: &[Lit]) -> Vec<Lit> {
        let inv: Vec<Lit> = a.iter().map(|l| l.flip()).collect();
        let one = self.w_const(1, a.len() as u8);
        self.w_add(&inv, &one)
    }

    fn w_sub(&mut self, a: &[Lit], b: &[Lit]) -> Vec<Lit> {
        let nb = self.w_neg(b);
        self.w_add(a, &nb)
    }

    fn w_mul(&mut self, a: &[Lit], b: &[Lit]) -> Vec<Lit> {
        // Multiplication is commutative; use the more-constant operand as
        // the row selector so every constant selector bit either skips its
        // addend row outright (bit 0, the row folds away in `w_add`) or
        // drops the row's AND gates (bit 1). A constant multiplier like
        // atoi's `acc * 10` then costs popcount(10) = 2 real adds instead
        // of one per bit width.
        let const_bits = |s: &Blaster, ls: &[Lit]| {
            ls.iter()
                .filter(|&&l| s.is_true(l) || s.is_false(l))
                .count()
        };
        let (a, b) = if const_bits(self, b) > const_bits(self, a) {
            (b, a)
        } else {
            (a, b)
        };
        let w = a.len();
        let mut acc = self.w_const(0, w as u8);
        for i in 0..w {
            // addend = (b << i) AND a[i]
            let mut addend = vec![self.false_lit(); w];
            for j in i..w {
                addend[j] = self.g_and(b[j - i], a[i]);
            }
            acc = self.w_add(&acc, &addend);
        }
        acc
    }

    /// Unsigned `a < b` as a literal.
    fn w_ult(&mut self, a: &[Lit], b: &[Lit]) -> Lit {
        // Borrow chain of a - b.
        let mut borrow = self.false_lit();
        for i in 0..a.len() {
            // borrow' = (!a & b) | (!a & borrow) | (b & borrow)
            let na = a[i].flip();
            let t1 = self.g_and(na, b[i]);
            let t2 = self.g_and(na, borrow);
            let t3 = self.g_and(b[i], borrow);
            let t12 = self.g_or(t1, t2);
            borrow = self.g_or(t12, t3);
        }
        borrow
    }

    fn w_eq(&mut self, a: &[Lit], b: &[Lit]) -> Lit {
        let mut acc = self.true_lit;
        for i in 0..a.len() {
            let x = self.g_xor(a[i], b[i]);
            acc = self.g_and(acc, x.flip());
        }
        acc
    }

    fn w_mux(&mut self, s: Lit, a: &[Lit], b: &[Lit]) -> Vec<Lit> {
        (0..a.len()).map(|i| self.g_mux(s, a[i], b[i])).collect()
    }

    /// Variable left shift (fill with zero).
    fn w_shl(&mut self, a: &[Lit], sh: &[Lit]) -> Vec<Lit> {
        let w = a.len();
        let stages = 64 - (w as u64 - 1).leading_zeros() as usize; // ceil(log2 w)
        let mut cur = a.to_vec();
        for (s, &shbit) in sh.iter().enumerate().take(stages) {
            let k = 1usize << s;
            let mut next = Vec::with_capacity(w);
            for i in 0..w {
                let shifted = if i >= k { cur[i - k] } else { self.false_lit() };
                next.push(self.g_mux(shbit, shifted, cur[i]));
            }
            cur = next;
        }
        // If any shift bit beyond the stages is set, the result is 0.
        let mut overflow = self.false_lit();
        for &l in sh.iter().skip(stages) {
            overflow = self.g_or(overflow, l);
        }
        let zero = self.w_const(0, w as u8);
        self.w_mux(overflow, &zero, &cur)
    }

    fn w_lshr(&mut self, a: &[Lit], sh: &[Lit]) -> Vec<Lit> {
        let rev: Vec<Lit> = a.iter().rev().copied().collect();
        let shifted = self.w_shl(&rev, sh);
        shifted.into_iter().rev().collect()
    }

    fn w_ashr(&mut self, a: &[Lit], sh: &[Lit]) -> Vec<Lit> {
        let w = a.len();
        let sign = a[w - 1];
        let stages = 64 - (w as u64 - 1).leading_zeros() as usize;
        let mut cur = a.to_vec();
        for (s, &shbit) in sh.iter().enumerate().take(stages) {
            let k = 1usize << s;
            let mut next = Vec::with_capacity(w);
            for i in 0..w {
                let shifted = if i + k < w { cur[i + k] } else { sign };
                next.push(self.g_mux(shbit, shifted, cur[i]));
            }
            cur = next;
        }
        let mut overflow = self.false_lit();
        for &l in sh.iter().skip(stages) {
            overflow = self.g_or(overflow, l);
        }
        let fill = vec![sign; w];
        self.w_mux(overflow, &fill, &cur)
    }

    /// Restoring division: returns (quotient, remainder); caller fixes the
    /// divide-by-zero case.
    fn w_udivrem(&mut self, a: &[Lit], b: &[Lit]) -> (Vec<Lit>, Vec<Lit>) {
        let w = a.len();
        // When the divisor is entirely constant, the restoring invariant
        // `rem < b` bounds the remainder to the divisor's bit width after
        // every step: bits at or above bits(b) are provably zero, so
        // pinning them to constant false lets the per-iteration compare,
        // subtract, and select fold down to the divisor's width instead of
        // running over the full word (`urem x, 991` builds ~10-bit stages,
        // not 65-bit ones).
        let mut const_divisor: Option<u64> = Some(0);
        for (i, &l) in b.iter().enumerate() {
            match const_divisor {
                Some(v) if self.is_true(l) && i < 64 => const_divisor = Some(v | 1u64 << i),
                Some(_) if self.is_false(l) => {}
                _ => {
                    const_divisor = None;
                    break;
                }
            }
        }
        let const_divisor = const_divisor.filter(|&c| c > 0);
        let keep = match const_divisor {
            Some(c) => (64 - c.leading_zeros()) as usize,
            None => w + 1,
        }
        .min(w + 1);
        // rem has w+1 bits of headroom.
        let mut rem = vec![self.false_lit(); w + 1];
        let mut bx = b.to_vec();
        bx.push(self.false_lit());
        let mut q = vec![self.false_lit(); w];
        for i in (0..w).rev() {
            // rem = (rem << 1) | a[i]
            rem.rotate_right(1);
            rem[0] = a[i];
            // It is an invariant that the rotated-out top bit was 0.
            let lt = self.w_ult(&rem, &bx); // rem < b ?
            let diff = self.w_sub(&rem, &bx);
            q[i] = lt.flip();
            // Select only the live low bits; the rest stay constant zero
            // (both branches are provably below the constant divisor).
            let mut next = self.w_mux(lt, &rem[..keep], &diff[..keep]);
            next.resize(w + 1, self.false_lit());
            rem = next;
        }
        rem.truncate(w);
        (q, rem)
    }

    // ---- term traversal ----

    fn blast_bv(&mut self, t: &Term) -> Result<Vec<Lit>, BlastError> {
        if let Some(bits) = self.bv_cache.get(&t.id()) {
            return Ok(bits.clone());
        }
        let bits = match t.node() {
            Node::BvConst { value, width } => self.w_const(*value, *width),
            Node::BvVar(v) => {
                if let Some(sat_vars) = self.var_bits.get(v) {
                    sat_vars.iter().map(|&x| Lit::pos(x)).collect()
                } else {
                    let sat_vars: Vec<u32> = (0..v.width).map(|_| self.sat.new_var()).collect();
                    let lits = sat_vars.iter().map(|&x| Lit::pos(x)).collect();
                    self.var_bits.insert(v.clone(), sat_vars);
                    lits
                }
            }
            Node::BvBin { op, a, b } => {
                let x = self.blast_bv(a)?;
                let y = self.blast_bv(b)?;
                match op {
                    BvOp::Add => self.w_add(&x, &y),
                    BvOp::Sub => self.w_sub(&x, &y),
                    BvOp::Mul => self.w_mul(&x, &y),
                    BvOp::And => (0..x.len()).map(|i| self.g_and(x[i], y[i])).collect(),
                    BvOp::Or => (0..x.len()).map(|i| self.g_or(x[i], y[i])).collect(),
                    BvOp::Xor => (0..x.len()).map(|i| self.g_xor(x[i], y[i])).collect(),
                    BvOp::Shl => self.w_shl(&x, &y),
                    BvOp::LShr => self.w_lshr(&x, &y),
                    BvOp::AShr => self.w_ashr(&x, &y),
                    BvOp::UDiv | BvOp::URem => {
                        let (q, r) = self.w_udivrem(&x, &y);
                        let zero = self.w_const(0, y.len() as u8);
                        let bz = self.w_eq(&y, &zero);
                        let ones = self.w_const(u64::MAX, x.len() as u8);
                        match op {
                            BvOp::UDiv => self.w_mux(bz, &ones, &q),
                            _ => self.w_mux(bz, &x, &r),
                        }
                    }
                    BvOp::SDiv | BvOp::SRem => {
                        let w = x.len();
                        let sa = x[w - 1];
                        let sb = y[w - 1];
                        let negx = self.w_neg(&x);
                        let absa = self.w_mux(sa, &negx, &x);
                        let negy = self.w_neg(&y);
                        let absb = self.w_mux(sb, &negy, &y);
                        let (q, r) = self.w_udivrem(&absa, &absb);
                        let qsign = self.g_xor(sa, sb);
                        let negq = self.w_neg(&q);
                        let qq = self.w_mux(qsign, &negq, &q);
                        let negr = self.w_neg(&r);
                        let rr = self.w_mux(sa, &negr, &r);
                        let zero = self.w_const(0, w as u8);
                        let bz = self.w_eq(&y, &zero);
                        let ones = self.w_const(u64::MAX, w as u8);
                        match op {
                            BvOp::SDiv => self.w_mux(bz, &ones, &qq),
                            _ => self.w_mux(bz, &x, &rr),
                        }
                    }
                }
            }
            Node::BvNot(a) => self.blast_bv(a)?.iter().map(|l| l.flip()).collect(),
            Node::BvNeg(a) => {
                let x = self.blast_bv(a)?;
                self.w_neg(&x)
            }
            Node::Extract { hi, lo, a } => {
                let x = self.blast_bv(a)?;
                x[*lo as usize..=*hi as usize].to_vec()
            }
            Node::ZExt { width, a } => {
                let mut x = self.blast_bv(a)?;
                while x.len() < *width as usize {
                    x.push(self.false_lit());
                }
                x
            }
            Node::SExt { width, a } => {
                let mut x = self.blast_bv(a)?;
                let sign = *x.last().expect("non-empty vector");
                while x.len() < *width as usize {
                    x.push(sign);
                }
                x
            }
            Node::Concat { a, b } => {
                let hi = self.blast_bv(a)?;
                let mut x = self.blast_bv(b)?;
                x.extend(hi);
                x
            }
            Node::Ite { cond, then, els } => {
                let c = self.blast_bool(cond)?;
                let x = self.blast_bv(then)?;
                let y = self.blast_bv(els)?;
                self.w_mux(c, &x, &y)
            }
            Node::CvtFToSi(_) | Node::FBits(_) => return Err(BlastError::Float),
            other => unreachable!("blast_bv on non-bitvector node {other:?}"),
        };
        self.bv_cache.insert(t.id(), bits.clone());
        Ok(bits)
    }

    fn blast_bool(&mut self, t: &Term) -> Result<Lit, BlastError> {
        if let Some(&l) = self.bool_cache.get(&t.id()) {
            return Ok(l);
        }
        let l = match t.node() {
            Node::BoolConst(b) => self.const_lit(*b),
            Node::BNot(a) => self.blast_bool(a)?.flip(),
            Node::BAnd(a, b) => {
                let x = self.blast_bool(a)?;
                let y = self.blast_bool(b)?;
                self.g_and(x, y)
            }
            Node::BOr(a, b) => {
                let x = self.blast_bool(a)?;
                let y = self.blast_bool(b)?;
                self.g_or(x, y)
            }
            Node::Cmp { op, a, b } => {
                let x = self.blast_bv(a)?;
                let y = self.blast_bv(b)?;
                match op {
                    CmpOp::Eq => self.w_eq(&x, &y),
                    CmpOp::Ult => self.w_ult(&x, &y),
                    CmpOp::Ule => self.w_ult(&y, &x).flip(),
                    CmpOp::Slt => {
                        let w = x.len();
                        let mut xs = x.clone();
                        let mut ys = y.clone();
                        xs[w - 1] = xs[w - 1].flip();
                        ys[w - 1] = ys[w - 1].flip();
                        self.w_ult(&xs, &ys)
                    }
                    CmpOp::Sle => {
                        let w = x.len();
                        let mut xs = x.clone();
                        let mut ys = y.clone();
                        xs[w - 1] = xs[w - 1].flip();
                        ys[w - 1] = ys[w - 1].flip();
                        self.w_ult(&ys, &xs).flip()
                    }
                }
            }
            Node::Ite { cond, then, els } if then.sort() == crate::expr::Sort::Bool => {
                let c = self.blast_bool(cond)?;
                let x = self.blast_bool(then)?;
                let y = self.blast_bool(els)?;
                self.g_mux(c, x, y)
            }
            Node::FCmp { .. } => return Err(BlastError::Float),
            other => unreachable!("blast_bool on non-boolean node {other:?}"),
        };
        self.bool_cache.insert(t.id(), l);
        Ok(l)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{eval, Value};
    use crate::sat::SatResult;
    use std::collections::HashMap;
    use std::sync::Arc;

    /// Blast `constraint`, solve, and check the model satisfies it.
    fn solve_and_check(constraint: &Term) -> Option<HashMap<Arc<str>, u64>> {
        let mut cnf = Cnf::blast(std::slice::from_ref(constraint)).expect("no floats");
        match cnf.solve(1_000_000) {
            SatResult::Sat(m) => {
                let mut vars = Vec::new();
                constraint.collect_vars(&mut vars);
                let env: HashMap<Arc<str>, u64> = vars
                    .iter()
                    .map(|var| (var.name.clone(), cnf.value(var, &m).expect("blasted")))
                    .collect();
                assert_eq!(
                    eval(constraint, &env).expect("closed term"),
                    Value::Bool(true),
                    "model does not satisfy constraint"
                );
                Some(env)
            }
            SatResult::Unsat => None,
            SatResult::Unknown => panic!("budget exceeded on small test"),
        }
    }

    #[test]
    fn simple_equation_is_solved() {
        // x + 5 == 12 (8-bit)
        let x = Term::var("x", 8);
        let c = Term::cmp(
            CmpOp::Eq,
            &Term::bin(BvOp::Add, &x, &Term::bv(5, 8)),
            &Term::bv(12, 8),
        );
        let env = solve_and_check(&c).expect("satisfiable");
        assert_eq!(env["x"], 7);
    }

    #[test]
    fn multiplication_inverts() {
        // x * 3 == 21 (8-bit)
        let x = Term::var("x", 8);
        let c = Term::cmp(
            CmpOp::Eq,
            &Term::bin(BvOp::Mul, &x, &Term::bv(3, 8)),
            &Term::bv(21, 8),
        );
        let env = solve_and_check(&c).expect("satisfiable");
        assert_eq!(env["x"] * 3 % 256, 21);
    }

    #[test]
    fn unsat_is_detected() {
        // x < 5 && x > 10 (unsigned, 8-bit)
        let x = Term::var("x", 8);
        let c = Term::and(
            &Term::cmp(CmpOp::Ult, &x, &Term::bv(5, 8)),
            &Term::cmp(CmpOp::Ult, &Term::bv(10, 8), &x),
        );
        assert!(solve_and_check(&c).is_none());
    }

    #[test]
    fn signed_comparison_blasts_correctly() {
        // x < 0 && x > -5 (signed, 8-bit): solutions -4..-1
        let x = Term::var("x", 8);
        let c = Term::and(
            &Term::cmp(CmpOp::Slt, &x, &Term::bv(0, 8)),
            &Term::cmp(CmpOp::Slt, &Term::bv(0xFB, 8), &x),
        );
        let env = solve_and_check(&c).expect("satisfiable");
        let sx = crate::expr::to_signed(env["x"], 8);
        assert!((-4..=-1).contains(&sx), "got {sx}");
    }

    #[test]
    fn division_and_remainder_circuits() {
        // x / 7 == 5 && x % 7 == 3 => x == 38
        let x = Term::var("x", 8);
        let c = Term::and(
            &Term::cmp(
                CmpOp::Eq,
                &Term::bin(BvOp::UDiv, &x, &Term::bv(7, 8)),
                &Term::bv(5, 8),
            ),
            &Term::cmp(
                CmpOp::Eq,
                &Term::bin(BvOp::URem, &x, &Term::bv(7, 8)),
                &Term::bv(3, 8),
            ),
        );
        let env = solve_and_check(&c).expect("satisfiable");
        assert_eq!(env["x"], 38);
    }

    #[test]
    fn shifts_by_variable_amounts() {
        // 1 << x == 32
        let x = Term::var("x", 8);
        let c = Term::cmp(
            CmpOp::Eq,
            &Term::bin(BvOp::Shl, &Term::bv(1, 8), &x),
            &Term::bv(32, 8),
        );
        let env = solve_and_check(&c).expect("satisfiable");
        assert_eq!(env["x"], 5);
    }

    #[test]
    fn random_differential_vs_eval() {
        // Random expressions over two 8-bit vars: blasted semantics must
        // agree with the evaluator.
        let mut state = 0xDEAD_BEEFu64;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let ops = [
            BvOp::Add,
            BvOp::Sub,
            BvOp::Mul,
            BvOp::And,
            BvOp::Or,
            BvOp::Xor,
            BvOp::Shl,
            BvOp::LShr,
            BvOp::AShr,
            BvOp::UDiv,
            BvOp::URem,
            BvOp::SDiv,
            BvOp::SRem,
        ];
        for round in 0..40 {
            let x = Term::var("x", 8);
            let y = Term::var("y", 8);
            let op1 = ops[(rnd() % ops.len() as u64) as usize];
            let op2 = ops[(rnd() % ops.len() as u64) as usize];
            let e = Term::bin(op1, &Term::bin(op2, &x, &y), &x);
            let xv = rnd() & 0xff;
            let yv = rnd() & 0xff;
            let env: HashMap<Arc<str>, u64> = [(Arc::from("x"), xv), (Arc::from("y"), yv)]
                .into_iter()
                .collect();
            let want = eval(&e, &env).unwrap().bits();
            // Constrain x/y to the sampled values and e to its evaluated
            // value; must be SAT.
            let c = Term::and(
                &Term::and(
                    &Term::cmp(CmpOp::Eq, &x, &Term::bv(xv, 8)),
                    &Term::cmp(CmpOp::Eq, &y, &Term::bv(yv, 8)),
                ),
                &Term::cmp(CmpOp::Eq, &e, &Term::bv(want, 8)),
            );
            assert!(
                solve_and_check(&c).is_some(),
                "round {round}: {op1:?}/{op2:?} x={xv} y={yv} want={want}"
            );
            // And constraining e to a different value must be UNSAT.
            let c_bad = Term::and(
                &Term::and(
                    &Term::cmp(CmpOp::Eq, &x, &Term::bv(xv, 8)),
                    &Term::cmp(CmpOp::Eq, &y, &Term::bv(yv, 8)),
                ),
                &Term::cmp(CmpOp::Eq, &e, &Term::bv(want ^ 1, 8)),
            );
            assert!(
                solve_and_check(&c_bad).is_none(),
                "round {round}: wrong value accepted for {op1:?}/{op2:?}"
            );
        }
    }

    #[test]
    fn extract_concat_extensions() {
        // Build y = concat(x[7:4], x[3:0]) == x.
        let x = Term::var("x", 8);
        let y = Term::concat(&Term::extract(&x, 7, 4), &Term::extract(&x, 3, 0));
        let ne = Term::not(&Term::cmp(CmpOp::Eq, &x, &y));
        assert!(solve_and_check(&ne).is_none(), "x != reassembled x unsat");

        // sext(x[3:0], 8) == 0xF8 has solution lower nibble 8.
        let c = Term::cmp(
            CmpOp::Eq,
            &Term::sext(&Term::extract(&x, 3, 0), 8),
            &Term::bv(0xF8, 8),
        );
        let env = solve_and_check(&c).expect("satisfiable");
        assert_eq!(env["x"] & 0xF, 8);
    }

    #[test]
    fn ite_blasts_both_sorts() {
        let x = Term::var("x", 8);
        let sel = Term::cmp(CmpOp::Ult, &x, &Term::bv(10, 8));
        let v = Term::ite(&sel, &Term::bv(1, 8), &Term::bv(2, 8));
        let c = Term::and(
            &Term::cmp(CmpOp::Eq, &v, &Term::bv(2, 8)),
            &Term::cmp(CmpOp::Ult, &x, &Term::bv(20, 8)),
        );
        let env = solve_and_check(&c).expect("satisfiable");
        assert!((10..20).contains(&env["x"]));
    }

    #[test]
    fn float_terms_are_rejected() {
        let x = Term::var("x", 64);
        let f = Term::cvt_si_to_f(&x);
        let c = Term::fcmp(crate::expr::FCmpOp::Lt, &Term::f64(0.0), &f);
        assert_eq!(Cnf::blast(&[c]).unwrap_err(), BlastError::Float);
    }

    #[test]
    fn sixty_four_bit_division_is_correct() {
        // Regression: the division circuit uses 65-bit internal vectors;
        // constants must not wrap their bit extraction (silent wrong
        // answers in release builds).
        let x = Term::var("x", 64);
        let c = Term::and(
            &Term::cmp(
                CmpOp::Eq,
                &Term::bin(BvOp::URem, &x, &Term::bv(991, 64)),
                &Term::bv(17, 64),
            ),
            &Term::cmp(CmpOp::Ult, &x, &Term::bv(2000, 64)),
        );
        let env = solve_and_check(&c).expect("satisfiable");
        assert_eq!(env["x"] % 991, 17);

        let c2 = Term::cmp(
            CmpOp::Eq,
            &Term::bin(BvOp::UDiv, &Term::bv(1_000_000, 64), &x),
            &Term::bv(200, 64),
        );
        let env2 = solve_and_check(&c2).expect("satisfiable");
        assert_eq!(1_000_000 / env2["x"], 200);
    }

    #[test]
    fn sixty_four_bit_terms_blast() {
        let x = Term::var("x", 64);
        let c = Term::cmp(
            CmpOp::Eq,
            &Term::bin(BvOp::Mul, &x, &Term::bv(3, 64)),
            &Term::bv(0x123456789, 64),
        );
        // 0x123456789 = 3 * 0x61172283
        let env = solve_and_check(&c).expect("satisfiable");
        assert_eq!(env["x"].wrapping_mul(3), 0x123456789);
    }
}
