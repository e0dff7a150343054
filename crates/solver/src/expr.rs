//! The term language: bitvectors, booleans, and IEEE doubles.
//!
//! Terms are immutable reference-counted DAG nodes built through smart
//! constructors that fold constants and apply cheap algebraic identities on
//! the fly. All bitvector widths are between 1 and 64 bits; values are kept
//! in the low bits of a `u64`.

use crate::idhash::IdSet;
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::rc::{Rc, Weak};
use std::sync::Arc;

/// The sort of a term.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sort {
    /// A boolean.
    Bool,
    /// A bitvector of the given width (1..=64).
    Bv(u8),
    /// An IEEE-754 double.
    F64,
}

/// A free bitvector variable.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var {
    /// Variable name; identity is by name.
    pub name: Arc<str>,
    /// Width in bits.
    pub width: u8,
}

/// Binary bitvector operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum BvOp {
    Add,
    Sub,
    Mul,
    UDiv,
    SDiv,
    URem,
    SRem,
    And,
    Or,
    Xor,
    Shl,
    LShr,
    AShr,
}

/// Bitvector comparison operators (producing booleans).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum CmpOp {
    Eq,
    Ult,
    Ule,
    Slt,
    Sle,
}

/// Binary floating-point operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum FOp {
    Add,
    Sub,
    Mul,
    Div,
}

/// Floating-point comparisons (producing booleans).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum FCmpOp {
    Eq,
    Lt,
    Le,
}

/// A term node. Use the smart constructors on [`Term`] instead of building
/// nodes directly.
#[derive(Debug, PartialEq)]
pub enum Node {
    /// Bitvector constant (value stored in the low `width` bits).
    BvConst {
        /// The value.
        value: u64,
        /// The width.
        width: u8,
    },
    /// Free bitvector variable.
    BvVar(Var),
    /// Binary bitvector operation.
    BvBin {
        /// Operator.
        op: BvOp,
        /// Left operand.
        a: Term,
        /// Right operand.
        b: Term,
    },
    /// Bitwise negation.
    BvNot(Term),
    /// Two's-complement negation.
    BvNeg(Term),
    /// Bit extraction `[hi:lo]` (inclusive).
    Extract {
        /// High bit.
        hi: u8,
        /// Low bit.
        lo: u8,
        /// Operand.
        a: Term,
    },
    /// Zero extension to `width`.
    ZExt {
        /// Target width.
        width: u8,
        /// Operand.
        a: Term,
    },
    /// Sign extension to `width`.
    SExt {
        /// Target width.
        width: u8,
        /// Operand.
        a: Term,
    },
    /// Concatenation (`a` becomes the high bits).
    Concat {
        /// High part.
        a: Term,
        /// Low part.
        b: Term,
    },
    /// Bitvector comparison.
    Cmp {
        /// Operator.
        op: CmpOp,
        /// Left operand.
        a: Term,
        /// Right operand.
        b: Term,
    },
    /// Boolean constant.
    BoolConst(bool),
    /// Boolean negation.
    BNot(Term),
    /// Boolean conjunction.
    BAnd(Term, Term),
    /// Boolean disjunction.
    BOr(Term, Term),
    /// If-then-else over bitvectors (cond is boolean).
    Ite {
        /// Condition.
        cond: Term,
        /// Then-value.
        then: Term,
        /// Else-value.
        els: Term,
    },
    /// Floating-point constant.
    FConst(f64),
    /// Binary floating-point operation.
    FBin {
        /// Operator.
        op: FOp,
        /// Left operand.
        a: Term,
        /// Right operand.
        b: Term,
    },
    /// Floating-point negation.
    FNeg(Term),
    /// Floating-point square root.
    FSqrt(Term),
    /// Floating-point comparison.
    FCmp {
        /// Operator.
        op: FCmpOp,
        /// Left operand.
        a: Term,
        /// Right operand.
        b: Term,
    },
    /// Signed 64-bit integer to double (the `cvt.si2d` instruction).
    CvtSiToF(Term),
    /// Double to signed 64-bit integer, truncating (`cvt.d2si`).
    CvtFToSi(Term),
    /// Reinterpret a 64-bit vector as a double.
    FFromBits(Term),
    /// Reinterpret a double as a 64-bit vector.
    FBits(Term),
}

impl Node {
    /// The node's direct children, in field order.
    pub fn children(&self) -> impl Iterator<Item = &Term> {
        let kids = match self {
            Node::BvConst { .. } | Node::BvVar(_) | Node::BoolConst(_) | Node::FConst(_) => {
                [None, None, None]
            }
            Node::BvBin { a, b, .. }
            | Node::Concat { a, b }
            | Node::Cmp { a, b, .. }
            | Node::BAnd(a, b)
            | Node::BOr(a, b)
            | Node::FBin { a, b, .. }
            | Node::FCmp { a, b, .. } => [Some(a), Some(b), None],
            Node::BvNot(a)
            | Node::BvNeg(a)
            | Node::Extract { a, .. }
            | Node::ZExt { a, .. }
            | Node::SExt { a, .. }
            | Node::BNot(a)
            | Node::FNeg(a)
            | Node::FSqrt(a)
            | Node::CvtSiToF(a)
            | Node::CvtFToSi(a)
            | Node::FFromBits(a)
            | Node::FBits(a) => [Some(a), None, None],
            Node::Ite { cond, then, els } => [Some(cond), Some(then), Some(els)],
        };
        kids.into_iter().flatten()
    }
}

/// A reference-counted, hash-consed term.
///
/// All construction funnels through a thread-local interner, so within one
/// thread two structurally equal terms always share the same allocation:
/// equality and hashing are O(1) pointer operations, and DAG-shaped formulas
/// (crypto traces especially) are stored once instead of re-allocated per
/// rewrite. `Term` is intentionally `!Send`; terms never cross threads.
///
/// The interner also gives every node a structural
/// [`fingerprint`](Term::fingerprint) and a cached
/// [`has_float`](Term::has_float) bit, both computed once from the node's
/// own fields and its children's cached values.
#[derive(Clone)]
pub struct Term(Rc<Interned>);

/// An interned node with the values derived from it at creation.
struct Interned {
    node: Node,
    fingerprint: u64,
    has_float: bool,
}

impl fmt::Debug for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.node.fmt(f)
    }
}

impl PartialEq for Term {
    fn eq(&self, other: &Term) -> bool {
        // Sound because of hash-consing: structurally equal terms built on
        // this thread share one allocation (see `Term::raw`).
        Rc::ptr_eq(&self.0, &other.0)
    }
}

impl Eq for Term {}

impl std::hash::Hash for Term {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.id().hash(state);
    }
}

/// Shallow interner key: node discriminant + immediates + child identities.
/// A live entry's children are pinned by the entry's own node, so child ids
/// cannot be reused while the entry is upgradeable.
#[derive(PartialEq, Eq, Hash)]
enum InternKey {
    BvConst(u64, u8),
    BvVar(Arc<str>, u8),
    BvBin(BvOp, usize, usize),
    BvNot(usize),
    BvNeg(usize),
    Extract(u8, u8, usize),
    ZExt(u8, usize),
    SExt(u8, usize),
    Concat(usize, usize),
    Cmp(CmpOp, usize, usize),
    BoolConst(bool),
    BNot(usize),
    BAnd(usize, usize),
    BOr(usize, usize),
    Ite(usize, usize, usize),
    // Keyed by bit pattern so NaNs and signed zeros intern consistently.
    FConst(u64),
    FBin(FOp, usize, usize),
    FNeg(usize),
    FSqrt(usize),
    FCmp(FCmpOp, usize, usize),
    CvtSiToF(usize),
    CvtFToSi(usize),
    FFromBits(usize),
    FBits(usize),
}

fn intern_key(node: &Node) -> InternKey {
    match node {
        Node::BvConst { value, width } => InternKey::BvConst(*value, *width),
        Node::BvVar(v) => InternKey::BvVar(Arc::clone(&v.name), v.width),
        Node::BvBin { op, a, b } => InternKey::BvBin(*op, a.id(), b.id()),
        Node::BvNot(a) => InternKey::BvNot(a.id()),
        Node::BvNeg(a) => InternKey::BvNeg(a.id()),
        Node::Extract { hi, lo, a } => InternKey::Extract(*hi, *lo, a.id()),
        Node::ZExt { width, a } => InternKey::ZExt(*width, a.id()),
        Node::SExt { width, a } => InternKey::SExt(*width, a.id()),
        Node::Concat { a, b } => InternKey::Concat(a.id(), b.id()),
        Node::Cmp { op, a, b } => InternKey::Cmp(*op, a.id(), b.id()),
        Node::BoolConst(b) => InternKey::BoolConst(*b),
        Node::BNot(a) => InternKey::BNot(a.id()),
        Node::BAnd(a, b) => InternKey::BAnd(a.id(), b.id()),
        Node::BOr(a, b) => InternKey::BOr(a.id(), b.id()),
        Node::Ite { cond, then, els } => InternKey::Ite(cond.id(), then.id(), els.id()),
        Node::FConst(v) => InternKey::FConst(v.to_bits()),
        Node::FBin { op, a, b } => InternKey::FBin(*op, a.id(), b.id()),
        Node::FNeg(a) => InternKey::FNeg(a.id()),
        Node::FSqrt(a) => InternKey::FSqrt(a.id()),
        Node::FCmp { op, a, b } => InternKey::FCmp(*op, a.id(), b.id()),
        Node::CvtSiToF(a) => InternKey::CvtSiToF(a.id()),
        Node::CvtFToSi(a) => InternKey::CvtFToSi(a.id()),
        Node::FFromBits(a) => InternKey::FFromBits(a.id()),
        Node::FBits(a) => InternKey::FBits(a.id()),
    }
}

/// Folds one word into a running fingerprint. The step is a bijection of
/// the word for a fixed `h` (rotate-xor, then the splitmix64 finalizer),
/// so two sequences that differ in one word differ after that step.
pub(crate) fn fingerprint_fold(h: u64, word: u64) -> u64 {
    let mut z = (h.rotate_left(5) ^ word).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The structural fingerprint and float bit of a new node: its variant
/// tag, immediates, variable name and children's fingerprints, never a
/// term id, so every thread of every process computes the same value.
fn derive(node: &Node) -> (u64, bool) {
    // Variant tag first, then the immediates in field order.
    let (tag, imms): (u64, [u64; 2]) = match node {
        Node::BvConst { value, width } => (0, [*value, u64::from(*width)]),
        Node::BvVar(v) => (
            1,
            [
                bomblab_obs::fnv::fold_bytes(bomblab_obs::fnv::OFFSET, v.name.as_bytes()),
                u64::from(v.width),
            ],
        ),
        Node::BvBin { op, .. } => (2, [*op as u64, 0]),
        Node::BvNot(_) => (3, [0; 2]),
        Node::BvNeg(_) => (4, [0; 2]),
        Node::Extract { hi, lo, .. } => (5, [u64::from(*hi), u64::from(*lo)]),
        Node::ZExt { width, .. } => (6, [u64::from(*width), 0]),
        Node::SExt { width, .. } => (7, [u64::from(*width), 0]),
        Node::Concat { .. } => (8, [0; 2]),
        Node::Cmp { op, .. } => (9, [*op as u64, 0]),
        Node::BoolConst(b) => (10, [u64::from(*b), 0]),
        Node::BNot(_) => (11, [0; 2]),
        Node::BAnd(..) => (12, [0; 2]),
        Node::BOr(..) => (13, [0; 2]),
        Node::Ite { .. } => (14, [0; 2]),
        Node::FConst(v) => (15, [v.to_bits(), 0]),
        Node::FBin { op, .. } => (16, [*op as u64, 0]),
        Node::FNeg(_) => (17, [0; 2]),
        Node::FSqrt(_) => (18, [0; 2]),
        Node::FCmp { op, .. } => (19, [*op as u64, 0]),
        Node::CvtSiToF(_) => (20, [0; 2]),
        Node::CvtFToSi(_) => (21, [0; 2]),
        Node::FFromBits(_) => (22, [0; 2]),
        Node::FBits(_) => (23, [0; 2]),
    };
    let mut h = fingerprint_fold(0, tag);
    for w in imms {
        h = fingerprint_fold(h, w);
    }
    for k in node.children() {
        h = fingerprint_fold(h, k.fingerprint());
    }
    // Tags 15 and up are the floating-point variants.
    (h, tag >= 15 || node.children().any(Term::has_float))
}

/// Counters describing this thread's term interner.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InternStats {
    /// Constructions that reused an existing allocation.
    pub hits: u64,
    /// Constructions that allocated a new node.
    pub misses: u64,
    /// Entries currently in the intern table (live + not-yet-swept dead).
    pub table_len: usize,
}

struct Interner {
    map: HashMap<InternKey, Weak<Interned>>,
    hits: u64,
    misses: u64,
    sweep_at: usize,
}

impl Interner {
    fn intern(&mut self, node: Node) -> Rc<Interned> {
        let key = intern_key(&node);
        if let Some(weak) = self.map.get(&key) {
            if let Some(rc) = weak.upgrade() {
                self.hits += 1;
                return rc;
            }
        }
        self.misses += 1;
        let (fingerprint, has_float) = derive(&node);
        let rc = Rc::new(Interned {
            node,
            fingerprint,
            has_float,
        });
        self.map.insert(key, Rc::downgrade(&rc));
        if self.map.len() > self.sweep_at {
            self.map.retain(|_, w| w.strong_count() > 0);
            self.sweep_at = (self.map.len() * 2).max(4096);
        }
        rc
    }
}

thread_local! {
    static INTERNER: RefCell<Interner> = RefCell::new(Interner {
        map: HashMap::new(),
        hits: 0,
        misses: 0,
        sweep_at: 4096,
    });
}

/// Snapshot of the current thread's interner counters.
pub fn intern_stats() -> InternStats {
    INTERNER.with(|i| {
        let i = i.borrow();
        InternStats {
            hits: i.hits,
            misses: i.misses,
            table_len: i.map.len(),
        }
    })
}

fn mask(width: u8) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// Sign-extends the low `width` bits of `v` into an `i64`.
pub fn to_signed(v: u64, width: u8) -> i64 {
    let shift = 64 - width as u32;
    ((v << shift) as i64) >> shift
}

impl Term {
    /// The underlying node.
    pub fn node(&self) -> &Node {
        &self.0.node
    }

    /// Process-stable 64-bit structural fingerprint: equal for
    /// structurally equal terms on any thread, unlike [`Term::id`]. O(1);
    /// computed when the term was interned.
    pub fn fingerprint(&self) -> u64 {
        self.0.fingerprint
    }

    /// A stable pointer identity for caches.
    pub fn id(&self) -> usize {
        Rc::as_ptr(&self.0) as usize
    }

    /// The sort of this term.
    pub fn sort(&self) -> Sort {
        match self.node() {
            Node::BvConst { width, .. } => Sort::Bv(*width),
            Node::BvVar(v) => Sort::Bv(v.width),
            Node::BvBin { a, .. } => a.sort(),
            Node::BvNot(a) | Node::BvNeg(a) => a.sort(),
            Node::Extract { hi, lo, .. } => Sort::Bv(hi - lo + 1),
            Node::ZExt { width, .. } | Node::SExt { width, .. } => Sort::Bv(*width),
            Node::Concat { a, b } => {
                let (Sort::Bv(wa), Sort::Bv(wb)) = (a.sort(), b.sort()) else {
                    unreachable!("concat of non-bitvectors")
                };
                Sort::Bv(wa + wb)
            }
            Node::Cmp { .. }
            | Node::BoolConst(_)
            | Node::BNot(_)
            | Node::BAnd(..)
            | Node::BOr(..)
            | Node::FCmp { .. } => Sort::Bool,
            Node::Ite { then, .. } => then.sort(),
            Node::FConst(_)
            | Node::FBin { .. }
            | Node::FNeg(_)
            | Node::FSqrt(_)
            | Node::CvtSiToF(_)
            | Node::FFromBits(_) => Sort::F64,
            Node::CvtFToSi(_) | Node::FBits(_) => Sort::Bv(64),
        }
    }

    /// Bitvector width.
    ///
    /// # Panics
    ///
    /// Panics if the term is not a bitvector.
    pub fn width(&self) -> u8 {
        match self.sort() {
            Sort::Bv(w) => w,
            other => panic!("width() on {other:?} term"),
        }
    }

    /// The constant value if this is a bitvector constant.
    pub fn as_const(&self) -> Option<u64> {
        match self.node() {
            Node::BvConst { value, .. } => Some(*value),
            _ => None,
        }
    }

    /// The constant value if this is a boolean constant.
    pub fn as_bool_const(&self) -> Option<bool> {
        match self.node() {
            Node::BoolConst(b) => Some(*b),
            _ => None,
        }
    }

    fn raw(node: Node) -> Term {
        Term(INTERNER.with(|i| i.borrow_mut().intern(node)))
    }

    // ---- constructors: bitvectors ----

    /// Bitvector constant, truncated to `width`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or greater than 64.
    pub fn bv(value: u64, width: u8) -> Term {
        assert!((1..=64).contains(&width), "bad width {width}");
        Term::raw(Node::BvConst {
            value: value & mask(width),
            width,
        })
    }

    /// Free bitvector variable.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or greater than 64.
    pub fn var(name: impl Into<Arc<str>>, width: u8) -> Term {
        assert!((1..=64).contains(&width), "bad width {width}");
        Term::raw(Node::BvVar(Var {
            name: name.into(),
            width,
        }))
    }

    /// Binary bitvector operation with constant folding.
    ///
    /// # Panics
    ///
    /// Panics on operand width mismatch.
    pub fn bin(op: BvOp, a: &Term, b: &Term) -> Term {
        let w = a.width();
        assert_eq!(w, b.width(), "width mismatch in {op:?}");
        if let (Some(x), Some(y)) = (a.as_const(), b.as_const()) {
            return Term::bv(fold_bin(op, x, y, w), w);
        }
        // Cheap identities.
        match op {
            BvOp::Add => {
                if a.as_const() == Some(0) {
                    return b.clone();
                }
                if b.as_const() == Some(0) {
                    return a.clone();
                }
            }
            BvOp::Sub => {
                if b.as_const() == Some(0) {
                    return a.clone();
                }
                if a == b {
                    return Term::bv(0, w);
                }
            }
            BvOp::Mul => {
                if a.as_const() == Some(1) {
                    return b.clone();
                }
                if b.as_const() == Some(1) {
                    return a.clone();
                }
                if a.as_const() == Some(0) || b.as_const() == Some(0) {
                    return Term::bv(0, w);
                }
            }
            BvOp::And => {
                if a.as_const() == Some(0) || b.as_const() == Some(0) {
                    return Term::bv(0, w);
                }
                if a.as_const() == Some(mask(w)) {
                    return b.clone();
                }
                if b.as_const() == Some(mask(w)) {
                    return a.clone();
                }
                if a == b {
                    return a.clone();
                }
            }
            BvOp::Or => {
                if a.as_const() == Some(0) {
                    return b.clone();
                }
                if b.as_const() == Some(0) {
                    return a.clone();
                }
                if a == b {
                    return a.clone();
                }
            }
            BvOp::Xor => {
                if a.as_const() == Some(0) {
                    return b.clone();
                }
                if b.as_const() == Some(0) {
                    return a.clone();
                }
                if a == b {
                    return Term::bv(0, w);
                }
            }
            BvOp::Shl | BvOp::LShr | BvOp::AShr if b.as_const() == Some(0) => {
                return a.clone();
            }
            _ => {}
        }
        Term::raw(Node::BvBin {
            op,
            a: a.clone(),
            b: b.clone(),
        })
    }

    /// Bitwise negation.
    pub fn bvnot(a: &Term) -> Term {
        match a.node() {
            Node::BvConst { value, width } => Term::bv(!value, *width),
            Node::BvNot(inner) => inner.clone(),
            _ => Term::raw(Node::BvNot(a.clone())),
        }
    }

    /// Two's-complement negation.
    pub fn bvneg(a: &Term) -> Term {
        match a.node() {
            Node::BvConst { value, width } => Term::bv(value.wrapping_neg(), *width),
            Node::BvNeg(inner) => inner.clone(),
            _ => Term::raw(Node::BvNeg(a.clone())),
        }
    }

    /// Bit extraction `[hi:lo]`, inclusive.
    ///
    /// # Panics
    ///
    /// Panics if `hi < lo` or `hi` is out of range.
    pub fn extract(a: &Term, hi: u8, lo: u8) -> Term {
        let w = a.width();
        assert!(
            hi >= lo && hi < w,
            "bad extract [{hi}:{lo}] of {w}-bit term"
        );
        if hi == w - 1 && lo == 0 {
            return a.clone();
        }
        if let Some(v) = a.as_const() {
            return Term::bv(v >> lo, hi - lo + 1);
        }
        Term::raw(Node::Extract {
            hi,
            lo,
            a: a.clone(),
        })
    }

    /// Zero extension.
    ///
    /// # Panics
    ///
    /// Panics if `width` is smaller than the operand's width or over 64.
    pub fn zext(a: &Term, width: u8) -> Term {
        let w = a.width();
        assert!(width >= w && width <= 64);
        if width == w {
            return a.clone();
        }
        if let Some(v) = a.as_const() {
            return Term::bv(v, width);
        }
        Term::raw(Node::ZExt {
            width,
            a: a.clone(),
        })
    }

    /// Sign extension.
    ///
    /// # Panics
    ///
    /// Panics if `width` is smaller than the operand's width or over 64.
    pub fn sext(a: &Term, width: u8) -> Term {
        let w = a.width();
        assert!(width >= w && width <= 64);
        if width == w {
            return a.clone();
        }
        if let Some(v) = a.as_const() {
            return Term::bv(to_signed(v, w) as u64, width);
        }
        Term::raw(Node::SExt {
            width,
            a: a.clone(),
        })
    }

    /// Concatenation; `a` supplies the high bits.
    ///
    /// # Panics
    ///
    /// Panics if the combined width exceeds 64.
    pub fn concat(a: &Term, b: &Term) -> Term {
        let (wa, wb) = (a.width(), b.width());
        assert!(wa + wb <= 64, "concat width {} too large", wa + wb);
        if let (Some(x), Some(y)) = (a.as_const(), b.as_const()) {
            return Term::bv((x << wb) | y, wa + wb);
        }
        Term::raw(Node::Concat {
            a: a.clone(),
            b: b.clone(),
        })
    }

    /// Bitvector comparison.
    ///
    /// # Panics
    ///
    /// Panics on operand width mismatch.
    pub fn cmp(op: CmpOp, a: &Term, b: &Term) -> Term {
        let w = a.width();
        assert_eq!(w, b.width(), "width mismatch in {op:?}");
        if let (Some(x), Some(y)) = (a.as_const(), b.as_const()) {
            let r = match op {
                CmpOp::Eq => x == y,
                CmpOp::Ult => x < y,
                CmpOp::Ule => x <= y,
                CmpOp::Slt => to_signed(x, w) < to_signed(y, w),
                CmpOp::Sle => to_signed(x, w) <= to_signed(y, w),
            };
            return Term::bool(r);
        }
        if a == b {
            return Term::bool(matches!(op, CmpOp::Eq | CmpOp::Ule | CmpOp::Sle));
        }
        Term::raw(Node::Cmp {
            op,
            a: a.clone(),
            b: b.clone(),
        })
    }

    // ---- constructors: booleans ----

    /// Boolean constant.
    pub fn bool(b: bool) -> Term {
        Term::raw(Node::BoolConst(b))
    }

    /// Boolean negation.
    pub fn not(a: &Term) -> Term {
        match a.node() {
            Node::BoolConst(b) => Term::bool(!b),
            Node::BNot(inner) => inner.clone(),
            _ => Term::raw(Node::BNot(a.clone())),
        }
    }

    /// Boolean conjunction.
    pub fn and(a: &Term, b: &Term) -> Term {
        match (a.as_bool_const(), b.as_bool_const()) {
            (Some(false), _) | (_, Some(false)) => Term::bool(false),
            (Some(true), _) => b.clone(),
            (_, Some(true)) => a.clone(),
            _ if a == b => a.clone(),
            _ => Term::raw(Node::BAnd(a.clone(), b.clone())),
        }
    }

    /// Boolean disjunction.
    pub fn or(a: &Term, b: &Term) -> Term {
        match (a.as_bool_const(), b.as_bool_const()) {
            (Some(true), _) | (_, Some(true)) => Term::bool(true),
            (Some(false), _) => b.clone(),
            (_, Some(false)) => a.clone(),
            _ if a == b => a.clone(),
            _ => Term::raw(Node::BOr(a.clone(), b.clone())),
        }
    }

    /// If-then-else over same-sorted branches.
    ///
    /// # Panics
    ///
    /// Panics if the branch sorts differ.
    pub fn ite(cond: &Term, then: &Term, els: &Term) -> Term {
        assert_eq!(then.sort(), els.sort(), "ite branch sorts differ");
        match cond.as_bool_const() {
            Some(true) => then.clone(),
            Some(false) => els.clone(),
            None if then == els => then.clone(),
            None => Term::raw(Node::Ite {
                cond: cond.clone(),
                then: then.clone(),
                els: els.clone(),
            }),
        }
    }

    // ---- constructors: floating point ----

    /// Floating-point constant.
    pub fn f64(v: f64) -> Term {
        Term::raw(Node::FConst(v))
    }

    /// Binary floating-point operation.
    pub fn fbin(op: FOp, a: &Term, b: &Term) -> Term {
        if let (Node::FConst(x), Node::FConst(y)) = (a.node(), b.node()) {
            let r = match op {
                FOp::Add => x + y,
                FOp::Sub => x - y,
                FOp::Mul => x * y,
                FOp::Div => x / y,
            };
            return Term::f64(r);
        }
        Term::raw(Node::FBin {
            op,
            a: a.clone(),
            b: b.clone(),
        })
    }

    /// Floating-point negation.
    pub fn fneg(a: &Term) -> Term {
        match a.node() {
            Node::FConst(v) => Term::f64(-v),
            _ => Term::raw(Node::FNeg(a.clone())),
        }
    }

    /// Floating-point square root.
    pub fn fsqrt(a: &Term) -> Term {
        match a.node() {
            Node::FConst(v) => Term::f64(v.sqrt()),
            _ => Term::raw(Node::FSqrt(a.clone())),
        }
    }

    /// Floating-point comparison.
    pub fn fcmp(op: FCmpOp, a: &Term, b: &Term) -> Term {
        if let (Node::FConst(x), Node::FConst(y)) = (a.node(), b.node()) {
            let r = match op {
                FCmpOp::Eq => x == y,
                FCmpOp::Lt => x < y,
                FCmpOp::Le => x <= y,
            };
            return Term::bool(r);
        }
        Term::raw(Node::FCmp {
            op,
            a: a.clone(),
            b: b.clone(),
        })
    }

    /// `cvt.si2d`: signed 64-bit integer to double.
    ///
    /// # Panics
    ///
    /// Panics unless the operand is a 64-bit vector.
    pub fn cvt_si_to_f(a: &Term) -> Term {
        assert_eq!(a.width(), 64);
        if let Some(v) = a.as_const() {
            return Term::f64(v as i64 as f64);
        }
        Term::raw(Node::CvtSiToF(a.clone()))
    }

    /// `cvt.d2si`: double to signed 64-bit integer (truncating).
    pub fn cvt_f_to_si(a: &Term) -> Term {
        if let Node::FConst(v) = a.node() {
            return Term::bv(*v as i64 as u64, 64);
        }
        Term::raw(Node::CvtFToSi(a.clone()))
    }

    /// Reinterpret 64 bits as a double.
    ///
    /// # Panics
    ///
    /// Panics unless the operand is a 64-bit vector.
    pub fn f_from_bits(a: &Term) -> Term {
        assert_eq!(a.width(), 64);
        if let Some(v) = a.as_const() {
            return Term::f64(f64::from_bits(v));
        }
        Term::raw(Node::FFromBits(a.clone()))
    }

    /// Reinterpret a double as 64 bits.
    pub fn f_bits(a: &Term) -> Term {
        if let Node::FConst(v) = a.node() {
            return Term::bv(v.to_bits(), 64);
        }
        Term::raw(Node::FBits(a.clone()))
    }

    // ---- traversal ----

    /// Collects the free variables of the term into `out` (deduplicated).
    pub fn collect_vars(&self, out: &mut Vec<Var>) {
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![self.clone()];
        let mut visited = IdSet::default();
        while let Some(t) = stack.pop() {
            if !visited.insert(t.id()) {
                continue;
            }
            if let Node::BvVar(v) = t.node() {
                if seen.insert(v.clone()) && !out.contains(v) {
                    out.push(v.clone());
                }
            }
            stack.extend(t.node().children().cloned());
        }
        // dedupe preserving order (cheap; var counts are small)
        let mut dedup = Vec::new();
        for v in out.drain(..) {
            if !dedup.contains(&v) {
                dedup.push(v);
            }
        }
        *out = dedup;
    }

    /// Whether the term contains any floating-point node. O(1); cached
    /// when the term was interned.
    pub fn has_float(&self) -> bool {
        self.0.has_float
    }

    /// Whether any of `terms` contains a floating-point node.
    pub fn any_has_float<'a>(terms: impl IntoIterator<Item = &'a Term>) -> bool {
        terms.into_iter().any(Term::has_float)
    }

    /// Children-before-parents ordering of the term DAG, computed
    /// iteratively. Pre-processing nodes in this order keeps recursive
    /// consumers (evaluation, bit-blasting, interval analysis) at depth
    /// one even on crypto-sized expressions.
    pub fn topo_order(&self) -> Vec<Term> {
        let mut order = Vec::new();
        let mut visited = IdSet::default();
        // (term, children_expanded)
        let mut stack: Vec<(Term, bool)> = vec![(self.clone(), false)];
        while let Some((t, expanded)) = stack.pop() {
            if expanded {
                order.push(t);
                continue;
            }
            if !visited.insert(t.id()) {
                continue;
            }
            let kids: Vec<Term> = t.node().children().cloned().collect();
            stack.push((t, true));
            for k in kids {
                if !visited.contains(&k.id()) {
                    stack.push((k, false));
                }
            }
        }
        order
    }

    /// Approximate node count (shared nodes counted once).
    pub fn size(&self) -> usize {
        self.size_capped(usize::MAX)
    }

    /// Like [`size`](Term::size), but stops walking once more than `cap`
    /// distinct nodes have been seen, returning `cap + 1`. Budget checks
    /// only need to know *whether* a formula exceeds the node cap; on
    /// crypto-sized DAGs (hundreds of thousands of shared nodes against a
    /// paper-profile cap of 2 000) the early exit turns the dominant cost
    /// of a `FormulaTooLarge` query into a bounded walk.
    pub fn size_capped(&self, cap: usize) -> usize {
        let mut visited = IdSet::default();
        let mut stack = vec![self.clone()];
        while let Some(t) = stack.pop() {
            if !visited.insert(t.id()) {
                continue;
            }
            if visited.len() > cap {
                return visited.len();
            }
            stack.extend(t.node().children().cloned());
        }
        visited.len()
    }

    /// Rebuilds this single node through the smart constructors with every
    /// direct child replaced by `child(c)`. Returns `self` unchanged (same
    /// allocation) when no child mapping changed, so callers walking a DAG
    /// bottom-up only allocate along actually-rewritten paths.
    pub(crate) fn rebuild_shallow(&self, mut child: impl FnMut(&Term) -> Term) -> Term {
        match self.node() {
            Node::BvConst { .. } | Node::BvVar(_) | Node::BoolConst(_) | Node::FConst(_) => {
                self.clone()
            }
            Node::BvBin { op, a, b } => {
                let (na, nb) = (child(a), child(b));
                if na == *a && nb == *b {
                    self.clone()
                } else {
                    Term::bin(*op, &na, &nb)
                }
            }
            Node::BvNot(a) => {
                let na = child(a);
                if na == *a {
                    self.clone()
                } else {
                    Term::bvnot(&na)
                }
            }
            Node::BvNeg(a) => {
                let na = child(a);
                if na == *a {
                    self.clone()
                } else {
                    Term::bvneg(&na)
                }
            }
            Node::Extract { hi, lo, a } => {
                let na = child(a);
                if na == *a {
                    self.clone()
                } else {
                    Term::extract(&na, *hi, *lo)
                }
            }
            Node::ZExt { width, a } => {
                let na = child(a);
                if na == *a {
                    self.clone()
                } else {
                    Term::zext(&na, *width)
                }
            }
            Node::SExt { width, a } => {
                let na = child(a);
                if na == *a {
                    self.clone()
                } else {
                    Term::sext(&na, *width)
                }
            }
            Node::Concat { a, b } => {
                let (na, nb) = (child(a), child(b));
                if na == *a && nb == *b {
                    self.clone()
                } else {
                    Term::concat(&na, &nb)
                }
            }
            Node::Cmp { op, a, b } => {
                let (na, nb) = (child(a), child(b));
                if na == *a && nb == *b {
                    self.clone()
                } else {
                    Term::cmp(*op, &na, &nb)
                }
            }
            Node::BNot(a) => {
                let na = child(a);
                if na == *a {
                    self.clone()
                } else {
                    Term::not(&na)
                }
            }
            Node::BAnd(a, b) => {
                let (na, nb) = (child(a), child(b));
                if na == *a && nb == *b {
                    self.clone()
                } else {
                    Term::and(&na, &nb)
                }
            }
            Node::BOr(a, b) => {
                let (na, nb) = (child(a), child(b));
                if na == *a && nb == *b {
                    self.clone()
                } else {
                    Term::or(&na, &nb)
                }
            }
            Node::Ite { cond, then, els } => {
                let (nc, nt, ne) = (child(cond), child(then), child(els));
                if nc == *cond && nt == *then && ne == *els {
                    self.clone()
                } else {
                    Term::ite(&nc, &nt, &ne)
                }
            }
            Node::FBin { op, a, b } => {
                let (na, nb) = (child(a), child(b));
                if na == *a && nb == *b {
                    self.clone()
                } else {
                    Term::fbin(*op, &na, &nb)
                }
            }
            Node::FNeg(a) => {
                let na = child(a);
                if na == *a {
                    self.clone()
                } else {
                    Term::fneg(&na)
                }
            }
            Node::FSqrt(a) => {
                let na = child(a);
                if na == *a {
                    self.clone()
                } else {
                    Term::fsqrt(&na)
                }
            }
            Node::FCmp { op, a, b } => {
                let (na, nb) = (child(a), child(b));
                if na == *a && nb == *b {
                    self.clone()
                } else {
                    Term::fcmp(*op, &na, &nb)
                }
            }
            Node::CvtSiToF(a) => {
                let na = child(a);
                if na == *a {
                    self.clone()
                } else {
                    Term::cvt_si_to_f(&na)
                }
            }
            Node::CvtFToSi(a) => {
                let na = child(a);
                if na == *a {
                    self.clone()
                } else {
                    Term::cvt_f_to_si(&na)
                }
            }
            Node::FFromBits(a) => {
                let na = child(a);
                if na == *a {
                    self.clone()
                } else {
                    Term::f_from_bits(&na)
                }
            }
            Node::FBits(a) => {
                let na = child(a);
                if na == *a {
                    self.clone()
                } else {
                    Term::f_bits(&na)
                }
            }
        }
    }
}

fn fold_bin(op: BvOp, x: u64, y: u64, w: u8) -> u64 {
    let m = mask(w);
    let (x, y) = (x & m, y & m);
    match op {
        BvOp::Add => x.wrapping_add(y),
        BvOp::Sub => x.wrapping_sub(y),
        BvOp::Mul => x.wrapping_mul(y),
        // SMT-LIB convention: x/0 = all-ones.
        BvOp::UDiv => x.checked_div(y).unwrap_or(m),
        BvOp::SDiv => {
            let (sx, sy) = (to_signed(x, w), to_signed(y, w));
            if sy == 0 {
                m
            } else {
                sx.wrapping_div(sy) as u64
            }
        }
        BvOp::URem => {
            if y == 0 {
                x
            } else {
                x % y
            }
        }
        BvOp::SRem => {
            let (sx, sy) = (to_signed(x, w), to_signed(y, w));
            if sy == 0 {
                x
            } else {
                sx.wrapping_rem(sy) as u64
            }
        }
        BvOp::And => x & y,
        BvOp::Or => x | y,
        BvOp::Xor => x ^ y,
        BvOp::Shl => {
            if y >= w as u64 {
                0
            } else {
                x.wrapping_shl(y as u32)
            }
        }
        BvOp::LShr => {
            if y >= w as u64 {
                0
            } else {
                x.wrapping_shr(y as u32)
            }
        }
        BvOp::AShr => {
            let sx = to_signed(x, w);
            let sh = (y as u32).min(w as u32 - 1);
            (sx >> sh) as u64
        }
    }
}

/// A concrete value during evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// Bitvector value (low `width` bits).
    Bits {
        /// The value.
        value: u64,
        /// The width.
        width: u8,
    },
    /// Boolean.
    Bool(bool),
    /// Double.
    F64(f64),
}

impl Value {
    /// The bitvector payload.
    ///
    /// # Panics
    ///
    /// Panics if the value is not a bitvector.
    pub fn bits(&self) -> u64 {
        match self {
            Value::Bits { value, .. } => *value,
            other => panic!("bits() on {other:?}"),
        }
    }

    /// The boolean payload.
    ///
    /// # Panics
    ///
    /// Panics if the value is not a boolean.
    pub fn truth(&self) -> bool {
        match self {
            Value::Bool(b) => *b,
            other => panic!("truth() on {other:?}"),
        }
    }
}

/// Errors from concrete evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// A variable had no binding in the environment.
    UnboundVar(Arc<str>),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnboundVar(name) => write!(f, "unbound variable `{name}`"),
        }
    }
}

impl std::error::Error for EvalError {}

/// Evaluates a term under a variable assignment.
///
/// # Errors
///
/// Returns [`EvalError::UnboundVar`] for variables missing from `env`.
pub fn eval(term: &Term, env: &HashMap<Arc<str>, u64>) -> Result<Value, EvalError> {
    let mut cache = HashMap::new();
    // Seed the cache children-first so the recursive worker never descends
    // more than one level (deep DAGs would otherwise overflow the stack).
    for node in term.topo_order() {
        let _ = eval_memo(&node, env, &mut cache);
    }
    eval_memo(term, env, &mut cache)
}

/// Memoized worker: terms are DAGs with heavy sharing, so naive recursion
/// is exponential on crypto-sized expressions.
fn eval_memo(
    term: &Term,
    env: &HashMap<Arc<str>, u64>,
    cache: &mut HashMap<usize, Value>,
) -> Result<Value, EvalError> {
    if let Some(&v) = cache.get(&term.id()) {
        return Ok(v);
    }
    let v = eval_inner(term, env, cache)?;
    cache.insert(term.id(), v);
    Ok(v)
}

fn eval_inner(
    term: &Term,
    env: &HashMap<Arc<str>, u64>,
    cache: &mut HashMap<usize, Value>,
) -> Result<Value, EvalError> {
    let bits = |v: Value| v.bits();
    Ok(match term.node() {
        Node::BvConst { value, width } => Value::Bits {
            value: *value,
            width: *width,
        },
        Node::BvVar(v) => {
            let raw = *env
                .get(&v.name)
                .ok_or_else(|| EvalError::UnboundVar(v.name.clone()))?;
            Value::Bits {
                value: raw & mask(v.width),
                width: v.width,
            }
        }
        Node::BvBin { op, a, b } => {
            let w = a.width();
            Value::Bits {
                value: fold_bin(
                    *op,
                    bits(eval_memo(a, env, cache)?),
                    bits(eval_memo(b, env, cache)?),
                    w,
                ) & mask(w),
                width: w,
            }
        }
        Node::BvNot(a) => {
            let w = a.width();
            Value::Bits {
                value: !bits(eval_memo(a, env, cache)?) & mask(w),
                width: w,
            }
        }
        Node::BvNeg(a) => {
            let w = a.width();
            Value::Bits {
                value: bits(eval_memo(a, env, cache)?).wrapping_neg() & mask(w),
                width: w,
            }
        }
        Node::Extract { hi, lo, a } => Value::Bits {
            value: (bits(eval_memo(a, env, cache)?) >> lo) & mask(hi - lo + 1),
            width: hi - lo + 1,
        },
        Node::ZExt { width, a } => Value::Bits {
            value: bits(eval_memo(a, env, cache)?),
            width: *width,
        },
        Node::SExt { width, a } => {
            let w = a.width();
            Value::Bits {
                value: (to_signed(bits(eval_memo(a, env, cache)?), w) as u64) & mask(*width),
                width: *width,
            }
        }
        Node::Concat { a, b } => {
            let wb = b.width();
            Value::Bits {
                value: (bits(eval_memo(a, env, cache)?) << wb) | bits(eval_memo(b, env, cache)?),
                width: a.width() + wb,
            }
        }
        Node::Cmp { op, a, b } => {
            let w = a.width();
            let (x, y) = (
                bits(eval_memo(a, env, cache)?),
                bits(eval_memo(b, env, cache)?),
            );
            Value::Bool(match op {
                CmpOp::Eq => x == y,
                CmpOp::Ult => x < y,
                CmpOp::Ule => x <= y,
                CmpOp::Slt => to_signed(x, w) < to_signed(y, w),
                CmpOp::Sle => to_signed(x, w) <= to_signed(y, w),
            })
        }
        Node::BoolConst(b) => Value::Bool(*b),
        Node::BNot(a) => Value::Bool(!eval_memo(a, env, cache)?.truth()),
        Node::BAnd(a, b) => {
            Value::Bool(eval_memo(a, env, cache)?.truth() && eval_memo(b, env, cache)?.truth())
        }
        Node::BOr(a, b) => {
            Value::Bool(eval_memo(a, env, cache)?.truth() || eval_memo(b, env, cache)?.truth())
        }
        Node::Ite { cond, then, els } => {
            if eval_memo(cond, env, cache)?.truth() {
                eval_memo(then, env, cache)?
            } else {
                eval_memo(els, env, cache)?
            }
        }
        Node::FConst(v) => Value::F64(*v),
        Node::FBin { op, a, b } => {
            let (Value::F64(x), Value::F64(y)) =
                (eval_memo(a, env, cache)?, eval_memo(b, env, cache)?)
            else {
                unreachable!("float op on non-floats")
            };
            Value::F64(match op {
                FOp::Add => x + y,
                FOp::Sub => x - y,
                FOp::Mul => x * y,
                FOp::Div => x / y,
            })
        }
        Node::FNeg(a) => {
            let Value::F64(x) = eval_memo(a, env, cache)? else {
                unreachable!()
            };
            Value::F64(-x)
        }
        Node::FSqrt(a) => {
            let Value::F64(x) = eval_memo(a, env, cache)? else {
                unreachable!()
            };
            Value::F64(x.sqrt())
        }
        Node::FCmp { op, a, b } => {
            let (Value::F64(x), Value::F64(y)) =
                (eval_memo(a, env, cache)?, eval_memo(b, env, cache)?)
            else {
                unreachable!()
            };
            Value::Bool(match op {
                FCmpOp::Eq => x == y,
                FCmpOp::Lt => x < y,
                FCmpOp::Le => x <= y,
            })
        }
        Node::CvtSiToF(a) => Value::F64(bits(eval_memo(a, env, cache)?) as i64 as f64),
        Node::CvtFToSi(a) => {
            let Value::F64(x) = eval_memo(a, env, cache)? else {
                unreachable!()
            };
            Value::Bits {
                value: x as i64 as u64,
                width: 64,
            }
        }
        Node::FFromBits(a) => Value::F64(f64::from_bits(bits(eval_memo(a, env, cache)?))),
        Node::FBits(a) => {
            let Value::F64(x) = eval_memo(a, env, cache)? else {
                unreachable!()
            };
            Value::Bits {
                value: x.to_bits(),
                width: 64,
            }
        }
    })
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.node() {
            Node::BvConst { value, width } => write!(f, "{value:#x}[{width}]"),
            Node::BvVar(v) => write!(f, "{}", v.name),
            Node::BvBin { op, a, b } => write!(f, "({op:?} {a} {b})"),
            Node::BvNot(a) => write!(f, "(not {a})"),
            Node::BvNeg(a) => write!(f, "(neg {a})"),
            Node::Extract { hi, lo, a } => write!(f, "{a}[{hi}:{lo}]"),
            Node::ZExt { width, a } => write!(f, "(zext{width} {a})"),
            Node::SExt { width, a } => write!(f, "(sext{width} {a})"),
            Node::Concat { a, b } => write!(f, "({a} ++ {b})"),
            Node::Cmp { op, a, b } => write!(f, "({op:?} {a} {b})"),
            Node::BoolConst(b) => write!(f, "{b}"),
            Node::BNot(a) => write!(f, "(! {a})"),
            Node::BAnd(a, b) => write!(f, "({a} && {b})"),
            Node::BOr(a, b) => write!(f, "({a} || {b})"),
            Node::Ite { cond, then, els } => write!(f, "(ite {cond} {then} {els})"),
            Node::FConst(v) => write!(f, "{v}f"),
            Node::FBin { op, a, b } => write!(f, "(f{op:?} {a} {b})"),
            Node::FNeg(a) => write!(f, "(fneg {a})"),
            Node::FSqrt(a) => write!(f, "(fsqrt {a})"),
            Node::FCmp { op, a, b } => write!(f, "(f{op:?} {a} {b})"),
            Node::CvtSiToF(a) => write!(f, "(si2d {a})"),
            Node::CvtFToSi(a) => write!(f, "(d2si {a})"),
            Node::FFromBits(a) => write!(f, "(fbits<- {a})"),
            Node::FBits(a) => write!(f, "(->fbits {a})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_folding_covers_every_op() {
        let a = Term::bv(12, 8);
        let b = Term::bv(5, 8);
        let cases = [
            (BvOp::Add, 17u64),
            (BvOp::Sub, 7),
            (BvOp::Mul, 60),
            (BvOp::UDiv, 2),
            (BvOp::URem, 2),
            (BvOp::And, 4),
            (BvOp::Or, 13),
            (BvOp::Xor, 9),
            (BvOp::Shl, 12 << 5 & 0xff),
            (BvOp::LShr, 0),
        ];
        for (op, want) in cases {
            assert_eq!(Term::bin(op, &a, &b).as_const(), Some(want), "{op:?}");
        }
    }

    #[test]
    fn signed_ops_respect_width() {
        let a = Term::bv(0xF0, 8); // -16 as i8
        let b = Term::bv(3, 8);
        assert_eq!(
            Term::bin(BvOp::SDiv, &a, &b).as_const(),
            Some((-5i64 as u64) & 0xff)
        );
        assert_eq!(
            Term::bin(BvOp::AShr, &a, &Term::bv(2, 8)).as_const(),
            Some(0xFC)
        );
        assert_eq!(
            Term::cmp(CmpOp::Slt, &a, &b).as_bool_const(),
            Some(true),
            "-16 < 3 signed"
        );
        assert_eq!(Term::cmp(CmpOp::Ult, &a, &b).as_bool_const(), Some(false));
    }

    #[test]
    fn division_by_zero_follows_smtlib() {
        let a = Term::bv(9, 8);
        let z = Term::bv(0, 8);
        assert_eq!(Term::bin(BvOp::UDiv, &a, &z).as_const(), Some(0xff));
        assert_eq!(Term::bin(BvOp::URem, &a, &z).as_const(), Some(9));
    }

    #[test]
    fn identities_simplify() {
        let x = Term::var("x", 32);
        let zero = Term::bv(0, 32);
        let one = Term::bv(1, 32);
        assert_eq!(Term::bin(BvOp::Add, &x, &zero), x);
        assert_eq!(Term::bin(BvOp::Mul, &x, &one), x);
        assert_eq!(Term::bin(BvOp::Mul, &x, &zero).as_const(), Some(0));
        assert_eq!(Term::bin(BvOp::Xor, &x, &x).as_const(), Some(0));
        assert_eq!(Term::bin(BvOp::Sub, &x, &x).as_const(), Some(0));
        assert_eq!(Term::cmp(CmpOp::Eq, &x, &x).as_bool_const(), Some(true));
        assert_eq!(Term::bvnot(&Term::bvnot(&x)), x);
    }

    #[test]
    fn extract_zext_sext_fold() {
        let c = Term::bv(0xABCD, 16);
        assert_eq!(Term::extract(&c, 15, 8).as_const(), Some(0xAB));
        assert_eq!(Term::zext(&c, 32).as_const(), Some(0xABCD));
        assert_eq!(Term::sext(&Term::bv(0x80, 8), 16).as_const(), Some(0xFF80));
        assert_eq!(
            Term::concat(&Term::bv(0xAB, 8), &Term::bv(0xCD, 8)).as_const(),
            Some(0xABCD)
        );
    }

    #[test]
    fn bool_connectives_simplify() {
        let p = Term::cmp(CmpOp::Eq, &Term::var("x", 8), &Term::bv(1, 8));
        assert_eq!(Term::and(&Term::bool(true), &p), p);
        assert_eq!(
            Term::and(&Term::bool(false), &p).as_bool_const(),
            Some(false)
        );
        assert_eq!(Term::or(&Term::bool(false), &p), p);
        assert_eq!(Term::or(&Term::bool(true), &p).as_bool_const(), Some(true));
        assert_eq!(Term::not(&Term::not(&p)), p);
    }

    #[test]
    fn ite_folds_on_constant_condition() {
        let x = Term::var("x", 8);
        let y = Term::var("y", 8);
        assert_eq!(Term::ite(&Term::bool(true), &x, &y), x);
        assert_eq!(Term::ite(&Term::bool(false), &x, &y), y);
        assert_eq!(Term::ite(&Term::cmp(CmpOp::Eq, &x, &y), &x, &x), x);
    }

    #[test]
    fn eval_matches_smart_constructor_folding() {
        let env: HashMap<Arc<str>, u64> = [(Arc::from("x"), 7u64), (Arc::from("y"), 3u64)]
            .into_iter()
            .collect();
        let x = Term::var("x", 16);
        let y = Term::var("y", 16);
        let e = Term::bin(BvOp::Add, &Term::bin(BvOp::Mul, &x, &y), &Term::bv(100, 16));
        assert_eq!(eval(&e, &env).unwrap().bits(), 121);
        let c = Term::cmp(CmpOp::Ult, &x, &y);
        assert!(!eval(&c, &env).unwrap().truth());
    }

    #[test]
    fn eval_reports_unbound_vars() {
        let e = Term::var("missing", 8);
        assert_eq!(
            eval(&e, &HashMap::new()).unwrap_err(),
            EvalError::UnboundVar(Arc::from("missing"))
        );
    }

    #[test]
    fn float_terms_fold_and_evaluate() {
        let x = Term::f64(1024.0);
        let tiny = Term::f64(1e-14);
        let sum = Term::fbin(FOp::Add, &x, &tiny);
        // Absorption: the paper's float-precision example.
        assert_eq!(Term::fcmp(FCmpOp::Eq, &sum, &x).as_bool_const(), Some(true));
        let n = Term::var("n", 64);
        let f = Term::cvt_si_to_f(&n);
        assert!(f.has_float());
        let env: HashMap<Arc<str>, u64> = [(Arc::from("n"), 3u64)].into_iter().collect();
        assert_eq!(eval(&f, &env).unwrap(), Value::F64(3.0));
    }

    /// A path-condition-shaped term with a float subterm under a compare.
    fn mixed_term() -> Term {
        let x = Term::var("arg1_0", 64);
        let y = Term::var("arg1_1", 64);
        let sel = Term::ite(
            &Term::cmp(CmpOp::Ult, &x, &Term::bv(10, 64)),
            &Term::bin(BvOp::Add, &x, &y),
            &Term::f_bits(&Term::cvt_si_to_f(&y)),
        );
        Term::cmp(CmpOp::Eq, &Term::extract(&sel, 31, 0), &Term::bv(7, 32))
    }

    #[test]
    fn one_term_built_on_two_threads_gets_one_fingerprint() {
        let here = mixed_term();
        let there = std::thread::spawn(|| mixed_term().fingerprint())
            .join()
            .unwrap();
        assert_eq!(here.fingerprint(), there);
        let other = Term::cmp(
            CmpOp::Eq,
            &Term::extract(&Term::var("arg1_0", 64), 31, 0),
            &Term::bv(7, 32),
        );
        assert_ne!(here.fingerprint(), other.fingerprint());
    }

    #[test]
    fn cached_float_bits_match_a_dag_walk() {
        let root = mixed_term();
        for t in root.topo_order() {
            let walk = t.topo_order().iter().any(|n| {
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
            });
            assert_eq!(t.has_float(), walk, "{t:?}");
        }
        assert!(root.has_float());
    }

    #[test]
    fn collect_vars_finds_each_once() {
        let x = Term::var("x", 8);
        let y = Term::var("y", 8);
        let e = Term::bin(BvOp::Add, &Term::bin(BvOp::Xor, &x, &y), &x);
        let mut vars = Vec::new();
        e.collect_vars(&mut vars);
        assert_eq!(vars.len(), 2);
    }

    #[test]
    fn size_counts_shared_nodes_once() {
        let x = Term::var("x", 8);
        let sum = Term::bin(BvOp::Add, &x, &x);
        let double = Term::bin(BvOp::Mul, &sum, &sum);
        assert_eq!(double.size(), 3); // x, sum, double
    }

    #[test]
    fn display_is_nonempty() {
        let x = Term::var("x", 8);
        let e = Term::ite(
            &Term::cmp(CmpOp::Ult, &x, &Term::bv(3, 8)),
            &Term::bvneg(&x),
            &Term::bvnot(&x),
        );
        assert!(!format!("{e}").is_empty());
    }
}
