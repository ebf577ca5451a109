//! The RTL operator set.

use crate::types::SignalId;
use rtl_interval::contract::CmpOp;

/// An RTL operator, the defining operation of one [`crate::Signal`].
///
/// The operator set mirrors §2.1 of the paper:
///
/// * **Boolean gates** (`Not`, `And`, `Or`, `Xor`) over control signals;
/// * **linear arithmetic** data-path operators (`Add`, `Sub`, `MulConst`,
///   `Shl`, `Shr`, `Neg`) — these are *not justifiable* in the structural
///   decision strategy (their values are determined purely by constraint
///   propagation, Def. 4.1);
/// * **non-linear bit-vector operators** (`Extract`, `Concat`, `ZeroExt`,
///   `SignExt`) which solvers model with auxiliary variables;
/// * **word multiplexer** `Ite` — a *justifiable* RTL operator: its Boolean
///   select offers a choice of data-path relations;
/// * **predicates** `Cmp` — comparison operators over `{<, >, =, ≤, ≥, ≠}`
///   returning a Boolean, the bridge from data-path back into control;
/// * `BoolToWord` — the 1-bit bridge from control into data-path (e.g. a
///   carry-in or an increment amount).
///
/// Arithmetic wraps modulo `2^w` of the *declared output width* (real-RTL
/// semantics); choosing a wide-enough output width makes an operator exact.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Op {
    /// Primary input; the value is free.
    Input,
    /// Constant value (must fit the signal's type).
    Const(i64),
    /// Boolean negation.
    Not(SignalId),
    /// N-ary conjunction (≥ 1 operand).
    And(Vec<SignalId>),
    /// N-ary disjunction (≥ 1 operand).
    Or(Vec<SignalId>),
    /// Binary exclusive-or.
    Xor(SignalId, SignalId),
    /// Word addition `(a + b) mod 2^w_out`.
    Add(SignalId, SignalId),
    /// Word subtraction `(a − b) mod 2^w_out`.
    Sub(SignalId, SignalId),
    /// Multiplication by an integer constant, `(a · k) mod 2^w_out`.
    MulConst(SignalId, i64),
    /// Left shift by a constant, `(a << k) mod 2^w_out`.
    Shl(SignalId, u32),
    /// Logical right shift by a constant, `a >> k`.
    Shr(SignalId, u32),
    /// Bit-field extraction `a[hi:lo]` (inclusive), output width `hi−lo+1`.
    Extract {
        /// Source word.
        src: SignalId,
        /// Most-significant extracted bit (inclusive).
        hi: u32,
        /// Least-significant extracted bit (inclusive).
        lo: u32,
    },
    /// Concatenation `{hi, lo}`; output width = width(hi) + width(lo),
    /// value = `hi · 2^width(lo) + lo`.
    Concat(SignalId, SignalId),
    /// Zero-extension of a word (or Boolean) to the output width.
    ZeroExt(SignalId),
    /// Sign-extension of a word to the output width (two's-complement
    /// reinterpretation of the unsigned source).
    SignExt(SignalId),
    /// Word multiplexer: `sel ? t : e`. `sel` is Boolean, `t`/`e`/output
    /// share a width.
    Ite {
        /// Boolean select.
        sel: SignalId,
        /// Value when `sel = 1`.
        t: SignalId,
        /// Value when `sel = 0`.
        e: SignalId,
    },
    /// Pointwise minimum of two words.
    Min(SignalId, SignalId),
    /// Pointwise maximum of two words.
    Max(SignalId, SignalId),
    /// Reified comparison predicate: Boolean output `⇔ (a op b)`.
    Cmp {
        /// The comparison relation.
        op: CmpOp,
        /// Left word operand.
        a: SignalId,
        /// Right word operand.
        b: SignalId,
    },
    /// Width-1 word holding the value of a Boolean (0 or 1).
    BoolToWord(SignalId),
}

impl Op {
    /// Iterates over the operand signals of this operator.
    pub fn operands(&self) -> impl Iterator<Item = SignalId> + '_ {
        OperandIter { op: self, pos: 0 }
    }

    /// The same operator over operands `f(operand)` (parameters such as
    /// constants, shift amounts and bit ranges are kept).
    #[must_use]
    pub fn remap(&self, mut f: impl FnMut(SignalId) -> SignalId) -> Op {
        match self {
            Op::Input => Op::Input,
            Op::Const(c) => Op::Const(*c),
            Op::Not(a) => Op::Not(f(*a)),
            Op::And(v) => Op::And(v.iter().map(|&a| f(a)).collect()),
            Op::Or(v) => Op::Or(v.iter().map(|&a| f(a)).collect()),
            Op::Xor(a, b) => Op::Xor(f(*a), f(*b)),
            Op::Add(a, b) => Op::Add(f(*a), f(*b)),
            Op::Sub(a, b) => Op::Sub(f(*a), f(*b)),
            Op::MulConst(a, k) => Op::MulConst(f(*a), *k),
            Op::Shl(a, k) => Op::Shl(f(*a), *k),
            Op::Shr(a, k) => Op::Shr(f(*a), *k),
            Op::Extract { src, hi, lo } => Op::Extract {
                src: f(*src),
                hi: *hi,
                lo: *lo,
            },
            Op::Concat(a, b) => Op::Concat(f(*a), f(*b)),
            Op::ZeroExt(a) => Op::ZeroExt(f(*a)),
            Op::SignExt(a) => Op::SignExt(f(*a)),
            Op::Ite { sel, t, e } => Op::Ite {
                sel: f(*sel),
                t: f(*t),
                e: f(*e),
            },
            Op::Min(a, b) => Op::Min(f(*a), f(*b)),
            Op::Max(a, b) => Op::Max(f(*a), f(*b)),
            Op::Cmp { op, a, b } => Op::Cmp {
                op: *op,
                a: f(*a),
                b: f(*b),
            },
            Op::BoolToWord(a) => Op::BoolToWord(f(*a)),
        }
    }

    /// `true` for operators whose output is part of the word-level
    /// data-path (as opposed to Boolean control logic).
    ///
    /// Used for the paper's Table 2 statistics (arithmetic vs. Boolean
    /// operator counts) and by predicate extraction.
    #[must_use]
    pub fn is_arith(&self) -> bool {
        matches!(
            self,
            Op::Add(..)
                | Op::Sub(..)
                | Op::MulConst(..)
                | Op::Shl(..)
                | Op::Shr(..)
                | Op::Extract { .. }
                | Op::Concat(..)
                | Op::ZeroExt(..)
                | Op::SignExt(..)
                | Op::Ite { .. }
                | Op::Min(..)
                | Op::Max(..)
                | Op::Cmp { .. }
                | Op::BoolToWord(..)
        )
    }

    /// `true` for Boolean gates (`Not`, `And`, `Or`, `Xor`).
    #[must_use]
    pub fn is_bool_gate(&self) -> bool {
        matches!(self, Op::Not(..) | Op::And(..) | Op::Or(..) | Op::Xor(..))
    }

    /// `true` for operators that are *justifiable* per Definition 4.1 of the
    /// paper: Boolean gates, and word-level operators with a Boolean input
    /// whose output is not uniquely determined by its word inputs (`Ite`).
    ///
    /// Pure arithmetic operators (`Add`, `Sub`, …) are *not* justifiable:
    /// they have no decidable (Boolean) inputs, and their consistency is
    /// established by constraint propagation alone (§4.2).
    #[must_use]
    pub fn is_justifiable(&self) -> bool {
        self.is_bool_gate() || matches!(self, Op::Ite { .. })
    }

    /// A short lowercase mnemonic for the operator, used by the text format
    /// and debug output.
    #[must_use]
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Op::Input => "input",
            Op::Const(_) => "const",
            Op::Not(_) => "not",
            Op::And(_) => "and",
            Op::Or(_) => "or",
            Op::Xor(..) => "xor",
            Op::Add(..) => "add",
            Op::Sub(..) => "sub",
            Op::MulConst(..) => "mulc",
            Op::Shl(..) => "shl",
            Op::Shr(..) => "shr",
            Op::Extract { .. } => "extract",
            Op::Concat(..) => "concat",
            Op::ZeroExt(..) => "zext",
            Op::SignExt(..) => "sext",
            Op::Ite { .. } => "ite",
            Op::Min(..) => "min",
            Op::Max(..) => "max",
            Op::Cmp { .. } => "cmp",
            Op::BoolToWord(..) => "b2w",
        }
    }
}

struct OperandIter<'a> {
    op: &'a Op,
    pos: usize,
}

impl Iterator for OperandIter<'_> {
    type Item = SignalId;

    fn next(&mut self) -> Option<SignalId> {
        let i = self.pos;
        self.pos += 1;
        match self.op {
            Op::Input | Op::Const(_) => None,
            Op::Not(a)
            | Op::MulConst(a, _)
            | Op::Shl(a, _)
            | Op::Shr(a, _)
            | Op::Extract { src: a, .. }
            | Op::ZeroExt(a)
            | Op::SignExt(a)
            | Op::BoolToWord(a) => (i == 0).then_some(*a),
            Op::And(v) | Op::Or(v) => v.get(i).copied(),
            Op::Xor(a, b)
            | Op::Add(a, b)
            | Op::Sub(a, b)
            | Op::Concat(a, b)
            | Op::Min(a, b)
            | Op::Max(a, b)
            | Op::Cmp { a, b, .. } => match i {
                0 => Some(*a),
                1 => Some(*b),
                _ => None,
            },
            Op::Ite { sel, t, e } => match i {
                0 => Some(*sel),
                1 => Some(*t),
                2 => Some(*e),
                _ => None,
            },
        }
    }
}
