//! The netlist arena and its validating builder API.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::fmt;

use crate::op::Op;
use crate::types::{NetlistError, SignalId, SignalType};
use rtl_interval::contract::CmpOp;

/// One node of the netlist: an operator, its output type, and an optional
/// name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Signal {
    ty: SignalType,
    op: Op,
    name: Option<String>,
}

impl Signal {
    /// The output type of this signal.
    #[must_use]
    pub fn ty(&self) -> SignalType {
        self.ty
    }

    /// The defining operator.
    #[must_use]
    pub fn op(&self) -> &Op {
        &self.op
    }

    /// The signal's name, if one was assigned.
    #[must_use]
    pub fn name(&self) -> Option<&str> {
        self.name.as_deref()
    }
}

/// A combinational word-level netlist.
///
/// Signals are created through the builder methods (`input_word`, `add`,
/// `ite`, `cmp`, …), each of which validates operand types and widths and
/// returns the [`SignalId`] of the new node. The netlist is append-only and
/// acyclic by construction: operators may only reference already-created
/// signals.
///
/// # Example
///
/// ```
/// use rtl_ir::{Netlist, CmpOp};
///
/// # fn main() -> Result<(), rtl_ir::NetlistError> {
/// let mut n = Netlist::new("clamp");
/// let x = n.input_word("x", 8)?;
/// let lim = n.const_word(200, 8)?;
/// let over = n.cmp(CmpOp::Gt, x, lim)?;
/// let clamped = n.ite(over, lim, x)?;
/// n.set_output(clamped, "y")?;
/// assert_eq!(n.outputs().len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, Default)]
pub struct Netlist {
    name: String,
    signals: Vec<Signal>,
    names: HashMap<String, SignalId>,
    outputs: Vec<(SignalId, String)>,
    /// The names in `outputs`, so a duplicate is found in O(1) (keyed
    /// hashing: output names come from untrusted netlist text).
    output_names: HashSet<String>,
}

impl Netlist {
    /// Creates an empty netlist with the given design name.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            signals: Vec::new(),
            names: HashMap::new(),
            outputs: Vec::new(),
            output_names: HashSet::new(),
        }
    }

    /// The design name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of signals.
    #[must_use]
    pub fn len(&self) -> usize {
        self.signals.len()
    }

    /// `true` if the netlist has no signals.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.signals.is_empty()
    }

    /// Iterates over all signal ids in creation (topological) order.
    pub fn signal_ids(&self) -> impl Iterator<Item = SignalId> {
        (0..self.signals.len() as u32).map(SignalId)
    }

    /// The signal with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this netlist; use [`Netlist::check`]
    /// first for fallible lookup.
    #[must_use]
    pub fn signal(&self, id: SignalId) -> &Signal {
        &self.signals[id.index()]
    }

    /// The output type of a signal.
    #[must_use]
    pub fn ty(&self, id: SignalId) -> SignalType {
        self.signal(id).ty
    }

    /// The defining operator of a signal.
    #[must_use]
    pub fn op(&self, id: SignalId) -> &Op {
        &self.signal(id).op
    }

    /// Validates that `id` belongs to this netlist.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownSignal`] if it does not.
    pub fn check(&self, id: SignalId) -> Result<(), NetlistError> {
        if id.index() < self.signals.len() {
            Ok(())
        } else {
            Err(NetlistError::UnknownSignal(id))
        }
    }

    /// Looks a signal up by name.
    #[must_use]
    pub fn find(&self, name: &str) -> Option<SignalId> {
        self.names.get(name).copied()
    }

    /// The designated outputs, in declaration order.
    #[must_use]
    pub fn outputs(&self) -> &[(SignalId, String)] {
        &self.outputs
    }

    /// Declares `id` as an output with the given name.
    ///
    /// # Errors
    ///
    /// Fails if the id is unknown or the output name is already taken.
    pub fn set_output(&mut self, id: SignalId, name: impl Into<String>) -> Result<(), NetlistError> {
        self.check(id)?;
        let name = name.into();
        if !self.output_names.insert(name.clone()) {
            return Err(NetlistError::BadName {
                name,
                context: "duplicate output name".into(),
            });
        }
        self.outputs.push((id, name));
        Ok(())
    }

    /// Assigns a name to an existing signal.
    ///
    /// # Errors
    ///
    /// Fails if the id is unknown or the name is already in use.
    pub fn set_name(&mut self, id: SignalId, name: impl Into<String>) -> Result<(), NetlistError> {
        self.check(id)?;
        match self.names.entry(name.into()) {
            Entry::Occupied(e) => Err(NetlistError::BadName {
                name: e.key().clone(),
                context: "duplicate signal name".into(),
            }),
            Entry::Vacant(e) => {
                self.signals[id.index()].name = Some(e.key().clone());
                e.insert(id);
                Ok(())
            }
        }
    }

    /// Catches this netlist up with `master`, of which it must be a
    /// prefix (`master` grew append-only from a copy of it): appends
    /// the signals beyond [`Netlist::len`], with their names, then the
    /// outputs beyond [`Netlist::outputs`]. Its cost is the suffix's
    /// size, not the master's.
    pub fn append_suffix(&mut self, master: &Netlist) {
        debug_assert!(
            self.signals.len() <= master.signals.len()
                && self.outputs.len() <= master.outputs.len(),
            "append_suffix: not a prefix of the master"
        );
        for sig in &master.signals[self.signals.len()..] {
            let id = SignalId(u32::try_from(self.signals.len()).expect("netlist too large"));
            if let Some(name) = &sig.name {
                self.names.insert(name.clone(), id);
            }
            self.signals.push(sig.clone());
        }
        for output in &master.outputs[self.outputs.len()..] {
            self.output_names.insert(output.1.clone());
            self.outputs.push(output.clone());
        }
    }

    pub(crate) fn push(&mut self, ty: SignalType, op: Op) -> SignalId {
        let id = SignalId(u32::try_from(self.signals.len()).expect("netlist too large"));
        self.signals.push(Signal { ty, op, name: None });
        id
    }

    fn push_named(
        &mut self,
        ty: SignalType,
        op: Op,
        name: Option<&str>,
    ) -> Result<SignalId, NetlistError> {
        let id = self.push(ty, op);
        if let Some(n) = name {
            self.set_name(id, n)?;
        }
        Ok(id)
    }

    fn expect_bool(&self, id: SignalId, context: &str) -> Result<(), NetlistError> {
        self.check(id)?;
        if self.ty(id).is_bool() {
            Ok(())
        } else {
            Err(NetlistError::TypeMismatch {
                context: format!("{context}: operand {id} must be bool, is {}", self.ty(id)),
            })
        }
    }

    fn expect_word(&self, id: SignalId, context: &str) -> Result<u32, NetlistError> {
        self.check(id)?;
        match self.ty(id) {
            SignalType::Word { width } => Ok(width),
            SignalType::Bool => Err(NetlistError::TypeMismatch {
                context: format!("{context}: operand {id} must be a word, is bool"),
            }),
        }
    }

    fn valid_width(width: u32, context: &str) -> Result<(), NetlistError> {
        if (1..=62).contains(&width) {
            Ok(())
        } else {
            Err(NetlistError::InvalidWidth {
                context: format!("{context}: width {width} outside 1..=62"),
            })
        }
    }

    // -- inputs & constants -------------------------------------------------

    /// Creates a named Boolean primary input.
    ///
    /// # Errors
    ///
    /// Fails if the name is already in use.
    pub fn input_bool(&mut self, name: &str) -> Result<SignalId, NetlistError> {
        self.push_named(SignalType::Bool, Op::Input, Some(name))
    }

    /// Creates a named word primary input of the given width.
    ///
    /// # Errors
    ///
    /// Fails on an invalid width or duplicate name.
    pub fn input_word(&mut self, name: &str, width: u32) -> Result<SignalId, NetlistError> {
        Self::valid_width(width, "input")?;
        self.push_named(SignalType::Word { width }, Op::Input, Some(name))
    }

    /// Creates a Boolean constant.
    #[must_use]
    pub fn const_bool(&mut self, value: bool) -> SignalId {
        self.push(SignalType::Bool, Op::Const(i64::from(value)))
    }

    /// Creates a word constant of the given width.
    ///
    /// # Errors
    ///
    /// Fails if the width is invalid or the value does not fit.
    pub fn const_word(&mut self, value: i64, width: u32) -> Result<SignalId, NetlistError> {
        Self::valid_width(width, "const")?;
        let ty = SignalType::Word { width };
        if value < 0 || value > ty.max_value() {
            return Err(NetlistError::ConstantOutOfRange { value, ty });
        }
        Ok(self.push(ty, Op::Const(value)))
    }

    // -- Boolean gates ------------------------------------------------------

    /// Boolean negation.
    ///
    /// # Errors
    ///
    /// Fails if the operand is not Boolean.
    pub fn not(&mut self, a: SignalId) -> Result<SignalId, NetlistError> {
        self.expect_bool(a, "not")?;
        Ok(self.push(SignalType::Bool, Op::Not(a)))
    }

    /// N-ary conjunction.
    ///
    /// # Errors
    ///
    /// Fails if no operands are given or any operand is not Boolean.
    pub fn and(&mut self, operands: &[SignalId]) -> Result<SignalId, NetlistError> {
        self.gate_nary(operands, "and", Op::And)
    }

    /// N-ary disjunction.
    ///
    /// # Errors
    ///
    /// Fails if no operands are given or any operand is not Boolean.
    pub fn or(&mut self, operands: &[SignalId]) -> Result<SignalId, NetlistError> {
        self.gate_nary(operands, "or", Op::Or)
    }

    fn gate_nary(
        &mut self,
        operands: &[SignalId],
        ctx: &str,
        mk: impl FnOnce(Vec<SignalId>) -> Op,
    ) -> Result<SignalId, NetlistError> {
        if operands.is_empty() {
            return Err(NetlistError::TypeMismatch {
                context: format!("{ctx}: needs at least one operand"),
            });
        }
        for &o in operands {
            self.expect_bool(o, ctx)?;
        }
        Ok(self.push(SignalType::Bool, mk(operands.to_vec())))
    }

    /// Binary exclusive-or.
    ///
    /// # Errors
    ///
    /// Fails if either operand is not Boolean.
    pub fn xor(&mut self, a: SignalId, b: SignalId) -> Result<SignalId, NetlistError> {
        self.expect_bool(a, "xor")?;
        self.expect_bool(b, "xor")?;
        Ok(self.push(SignalType::Bool, Op::Xor(a, b)))
    }

    /// Convenience: `a ∧ ¬b`.
    ///
    /// # Errors
    ///
    /// Fails if either operand is not Boolean.
    pub fn and_not(&mut self, a: SignalId, b: SignalId) -> Result<SignalId, NetlistError> {
        let nb = self.not(b)?;
        self.and(&[a, nb])
    }

    /// Convenience: Boolean multiplexer `sel ? t : e`, expanded to gates
    /// `(sel ∧ t) ∨ (¬sel ∧ e)`.
    ///
    /// # Errors
    ///
    /// Fails if any operand is not Boolean.
    pub fn bool_mux(
        &mut self,
        sel: SignalId,
        t: SignalId,
        e: SignalId,
    ) -> Result<SignalId, NetlistError> {
        let a = self.and(&[sel, t])?;
        let ns = self.not(sel)?;
        let b = self.and(&[ns, e])?;
        self.or(&[a, b])
    }

    /// Convenience: equivalence `a ⇔ b` (xnor), expanded to `¬(a ⊕ b)`.
    ///
    /// # Errors
    ///
    /// Fails if either operand is not Boolean.
    pub fn xnor(&mut self, a: SignalId, b: SignalId) -> Result<SignalId, NetlistError> {
        let x = self.xor(a, b)?;
        self.not(x)
    }

    // -- word arithmetic ----------------------------------------------------

    /// Addition wrapping in the width of the *wider* operand:
    /// `(a + b) mod 2^w`, `w = max(widths)`.
    ///
    /// # Errors
    ///
    /// Fails if either operand is not a word.
    pub fn add(&mut self, a: SignalId, b: SignalId) -> Result<SignalId, NetlistError> {
        let wa = self.expect_word(a, "add")?;
        let wb = self.expect_word(b, "add")?;
        Ok(self.push(SignalType::Word { width: wa.max(wb) }, Op::Add(a, b)))
    }

    /// Addition into an explicit output width (exact if `width` is large
    /// enough, wrapping otherwise).
    ///
    /// # Errors
    ///
    /// Fails if an operand is not a word or the width is invalid.
    pub fn add_into(
        &mut self,
        a: SignalId,
        b: SignalId,
        width: u32,
    ) -> Result<SignalId, NetlistError> {
        self.expect_word(a, "add")?;
        self.expect_word(b, "add")?;
        Self::valid_width(width, "add")?;
        Ok(self.push(SignalType::Word { width }, Op::Add(a, b)))
    }

    /// Subtraction wrapping in the width of the wider operand.
    ///
    /// # Errors
    ///
    /// Fails if either operand is not a word.
    pub fn sub(&mut self, a: SignalId, b: SignalId) -> Result<SignalId, NetlistError> {
        let wa = self.expect_word(a, "sub")?;
        let wb = self.expect_word(b, "sub")?;
        Ok(self.push(SignalType::Word { width: wa.max(wb) }, Op::Sub(a, b)))
    }

    /// Multiplication by a non-negative constant, wrapping in the operand
    /// width.
    ///
    /// # Errors
    ///
    /// Fails if the operand is not a word or `k` is negative.
    pub fn mul_const(&mut self, a: SignalId, k: i64) -> Result<SignalId, NetlistError> {
        let w = self.expect_word(a, "mulc")?;
        if k < 0 {
            return Err(NetlistError::ConstantOutOfRange {
                value: k,
                ty: SignalType::Word { width: w },
            });
        }
        // The product wraps in the operand width, so the factor is only
        // meaningful modulo 2^w — reduce it on entry. This keeps hostile
        // (e.g. parsed) factors from overflowing the i64 coefficient
        // arithmetic downstream (interval contractors, Fourier–Motzkin).
        let k = k & ((1i64 << w) - 1);
        Ok(self.push(SignalType::Word { width: w }, Op::MulConst(a, k)))
    }

    /// Left shift by a constant, wrapping in the operand width.
    ///
    /// # Errors
    ///
    /// Fails if the operand is not a word or `k` exceeds the 62-bit
    /// maximum word width (such a shift amount cannot come from a
    /// well-formed circuit and would overflow `1 << k` downstream).
    pub fn shl(&mut self, a: SignalId, k: u32) -> Result<SignalId, NetlistError> {
        let w = self.expect_word(a, "shl")?;
        Self::valid_shift(k, "shl")?;
        Ok(self.push(SignalType::Word { width: w }, Op::Shl(a, k)))
    }

    /// Logical right shift by a constant.
    ///
    /// # Errors
    ///
    /// Fails if the operand is not a word or `k` exceeds the 62-bit
    /// maximum word width.
    pub fn shr(&mut self, a: SignalId, k: u32) -> Result<SignalId, NetlistError> {
        let w = self.expect_word(a, "shr")?;
        Self::valid_shift(k, "shr")?;
        Ok(self.push(SignalType::Word { width: w }, Op::Shr(a, k)))
    }

    /// Shift amounts are capped at the maximum word width; larger ones
    /// are always builder misuse (or hostile text input).
    fn valid_shift(k: u32, context: &str) -> Result<(), NetlistError> {
        if k > 62 {
            return Err(NetlistError::InvalidWidth {
                context: format!("{context}: shift amount {k} exceeds max width 62"),
            });
        }
        Ok(())
    }

    /// Bit-field extraction `a[hi:lo]`, output width `hi − lo + 1`.
    ///
    /// # Errors
    ///
    /// Fails if the operand is not a word or the bit range is invalid.
    pub fn extract(&mut self, src: SignalId, hi: u32, lo: u32) -> Result<SignalId, NetlistError> {
        let w = self.expect_word(src, "extract")?;
        if lo > hi || hi >= w {
            return Err(NetlistError::InvalidWidth {
                context: format!("extract: range [{hi}:{lo}] invalid for width {w}"),
            });
        }
        Ok(self.push(
            SignalType::Word {
                width: hi - lo + 1,
            },
            Op::Extract { src, hi, lo },
        ))
    }

    /// Concatenation `{hi, lo}`.
    ///
    /// # Errors
    ///
    /// Fails if either operand is not a word or the combined width exceeds
    /// 62 bits.
    pub fn concat(&mut self, hi: SignalId, lo: SignalId) -> Result<SignalId, NetlistError> {
        let wh = self.expect_word(hi, "concat")?;
        let wl = self.expect_word(lo, "concat")?;
        Self::valid_width(wh + wl, "concat")?;
        Ok(self.push(SignalType::Word { width: wh + wl }, Op::Concat(hi, lo)))
    }

    /// Zero-extension to `width` bits.
    ///
    /// # Errors
    ///
    /// Fails if the operand is not a word, or `width` is not strictly wider.
    pub fn zext(&mut self, a: SignalId, width: u32) -> Result<SignalId, NetlistError> {
        let w = self.expect_word(a, "zext")?;
        Self::valid_width(width, "zext")?;
        if width <= w {
            return Err(NetlistError::InvalidWidth {
                context: format!("zext: target width {width} not wider than source {w}"),
            });
        }
        Ok(self.push(SignalType::Word { width }, Op::ZeroExt(a)))
    }

    /// Sign-extension to `width` bits (two's-complement reinterpretation).
    ///
    /// # Errors
    ///
    /// Fails if the operand is not a word, or `width` is not strictly wider.
    pub fn sext(&mut self, a: SignalId, width: u32) -> Result<SignalId, NetlistError> {
        let w = self.expect_word(a, "sext")?;
        Self::valid_width(width, "sext")?;
        if width <= w {
            return Err(NetlistError::InvalidWidth {
                context: format!("sext: target width {width} not wider than source {w}"),
            });
        }
        Ok(self.push(SignalType::Word { width }, Op::SignExt(a)))
    }

    /// Word multiplexer `sel ? t : e`.
    ///
    /// # Errors
    ///
    /// Fails if `sel` is not Boolean or `t`/`e` are not words of equal width.
    pub fn ite(&mut self, sel: SignalId, t: SignalId, e: SignalId) -> Result<SignalId, NetlistError> {
        self.expect_bool(sel, "ite")?;
        let wt = self.expect_word(t, "ite")?;
        let we = self.expect_word(e, "ite")?;
        if wt != we {
            return Err(NetlistError::InvalidWidth {
                context: format!("ite: branch widths differ ({wt} vs {we})"),
            });
        }
        Ok(self.push(SignalType::Word { width: wt }, Op::Ite { sel, t, e }))
    }

    /// Pointwise minimum.
    ///
    /// # Errors
    ///
    /// Fails if either operand is not a word.
    pub fn min(&mut self, a: SignalId, b: SignalId) -> Result<SignalId, NetlistError> {
        let wa = self.expect_word(a, "min")?;
        let wb = self.expect_word(b, "min")?;
        Ok(self.push(SignalType::Word { width: wa.max(wb) }, Op::Min(a, b)))
    }

    /// Pointwise maximum.
    ///
    /// # Errors
    ///
    /// Fails if either operand is not a word.
    pub fn max(&mut self, a: SignalId, b: SignalId) -> Result<SignalId, NetlistError> {
        let wa = self.expect_word(a, "max")?;
        let wb = self.expect_word(b, "max")?;
        Ok(self.push(SignalType::Word { width: wa.max(wb) }, Op::Max(a, b)))
    }

    // -- predicates & bridges -----------------------------------------------

    /// Reified comparison predicate `out ⇔ (a op b)`; output is Boolean.
    ///
    /// # Errors
    ///
    /// Fails if either operand is not a word.
    pub fn cmp(&mut self, op: CmpOp, a: SignalId, b: SignalId) -> Result<SignalId, NetlistError> {
        self.expect_word(a, "cmp")?;
        self.expect_word(b, "cmp")?;
        Ok(self.push(SignalType::Bool, Op::Cmp { op, a, b }))
    }

    /// Convenience: equality with a constant, `out ⇔ (a = value)`.
    ///
    /// # Errors
    ///
    /// Fails if the operand is not a word or the value does not fit.
    pub fn eq_const(&mut self, a: SignalId, value: i64) -> Result<SignalId, NetlistError> {
        let w = self.expect_word(a, "eq_const")?;
        let c = self.const_word(value, w)?;
        self.cmp(CmpOp::Eq, a, c)
    }

    /// Width-1 word carrying the value of a Boolean.
    ///
    /// # Errors
    ///
    /// Fails if the operand is not Boolean.
    pub fn bool_to_word(&mut self, b: SignalId) -> Result<SignalId, NetlistError> {
        self.expect_bool(b, "b2w")?;
        Ok(self.push(SignalType::Word { width: 1 }, Op::BoolToWord(b)))
    }

    // -- structured import --------------------------------------------------

    /// Copies a signal (and transitively its operands) from `src` into this
    /// netlist, consulting and extending `map` (source id → destination id).
    ///
    /// Signals already present in `map` are reused — this is how the BMC
    /// unroller substitutes the previous frame's next-state signals for the
    /// current frame's state inputs. Names are not copied.
    ///
    /// # Errors
    ///
    /// Fails if `id` is unknown in `src` or an `Input` signal is reached
    /// that has no mapping (free inputs must be pre-mapped).
    pub fn import(
        &mut self,
        src: &Netlist,
        id: SignalId,
        map: &mut HashMap<SignalId, SignalId>,
    ) -> Result<SignalId, NetlistError> {
        if let Some(&mapped) = map.get(&id) {
            return Ok(mapped);
        }
        src.check(id)?;
        // Iterative DFS to avoid recursion-depth limits on deep netlists.
        let mut stack = vec![id];
        while let Some(&top) = stack.last() {
            if map.contains_key(&top) {
                stack.pop();
                continue;
            }
            let sig = src.signal(top);
            let pending: Vec<SignalId> = sig
                .op
                .operands()
                .filter(|o| !map.contains_key(o))
                .collect();
            if !pending.is_empty() {
                stack.extend(pending);
                continue;
            }
            stack.pop();
            if matches!(sig.op, Op::Input) {
                return Err(NetlistError::BadInput {
                    context: format!(
                        "import: free input {top} ({:?}) has no mapping",
                        sig.name
                    ),
                });
            }
            let new_op = sig.op.remap(|o| map[&o]);
            let new_id = self.push(sig.ty, new_op);
            map.insert(top, new_id);
        }
        Ok(map[&id])
    }
}

impl fmt::Display for Netlist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "netlist `{}` ({} signals, {} outputs)",
            self.name,
            self.signals.len(),
            self.outputs.len()
        )
    }
}
