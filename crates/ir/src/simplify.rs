//! Certification-preserving word-level preprocessing (DESIGN.md §2.13).
//!
//! [`simplify`] rewrites a netlist into a smaller equisatisfiable one
//! before it ever reaches a solver: constant folding with range-aware
//! evaluation, structural hashing (hash-consing of identical
//! `(op, operands)` subterms), mux/ITE collapsing under known selects,
//! algebraic identities, and optional cone-of-influence pruning against
//! the goal. [`scorr_lite`] adds equality-driven latch substitution over
//! [`crate::seq::SeqCircuit`] registers.
//!
//! Every pass returns a [`SignalMap`] from old to new signal ids, which
//! is what keeps the trust story intact:
//!
//! * a **Sat** model found on the simplified netlist is translated back
//!   through the map (inputs are never merged or folded away by the
//!   rewrites; cone-pruned inputs are free and take any in-domain
//!   filler) and re-certified against the *original* netlist by the
//!   [`crate::eval`] simulator — the simplifier is not trusted;
//! * an **Unsat** proof is logged and checked against the *emitted
//!   simplified netlist*, which is persisted alongside the proof. The
//!   rewrites are deterministic, so an offline checker re-runs them on
//!   the original and demands the identical output before accepting the
//!   pair (`rtlsat check-proof --preproc`).
//!
//! The rewriter processes signals in topological (creation) order and
//! applies rules to already-rewritten operands until a local fixpoint,
//! which makes one forward pass a global fixpoint: simplifying an
//! already-simplified netlist is the identity (pinned by the
//! idempotence tests).

use std::collections::hash_map::{Entry, RandomState};
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

use crate::analysis;
use crate::netlist::Netlist;
use crate::op::Op;
use crate::seq::SeqCircuit;
use crate::types::{SignalId, SignalType};
use rtl_interval::contract::CmpOp;

/// Counters describing what one simplification pass did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimplifyStats {
    /// Signals in the input netlist.
    pub signals_before: usize,
    /// Signals in the output netlist.
    pub signals_after: usize,
    /// Constant folds and algebraic rewrites (including range-derived
    /// comparison folds and ITE collapses).
    pub folds: u64,
    /// Hash-cons hits: structurally identical subterms shared.
    pub shares: u64,
    /// Signals dropped by cone-of-influence pruning.
    pub coi_dropped: u64,
    /// `Ite` nodes collapsed under a known select or equal branches.
    pub ite_collapsed: u64,
    /// Wall-clock microseconds spent rewriting (cumulative across
    /// [`Simplifier::process`] calls). Observability only: it feeds the
    /// phase profiler and must never reach a deterministic surface.
    pub time_us: u64,
}

impl SimplifyStats {
    /// Signals removed by the pass (before − after, saturating: a
    /// pathological pass can in principle emit extra constants).
    #[must_use]
    pub fn removed(&self) -> usize {
        self.signals_before.saturating_sub(self.signals_after)
    }
}

/// A total or partial map from original signal ids to simplified ones.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SignalMap {
    map: Vec<Option<SignalId>>,
}

impl SignalMap {
    /// The simplified id of original signal `old`, or `None` when the
    /// signal was pruned (cone-of-influence mode only).
    #[must_use]
    pub fn get(&self, old: SignalId) -> Option<SignalId> {
        self.map.get(old.index()).copied().flatten()
    }

    /// Number of original signals covered by the map.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when the map covers no signals.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The mapped `(old, new)` pairs in old-id order (pruned signals
    /// are skipped) — the serialization used by preproc bundles.
    #[must_use]
    pub fn pairs(&self) -> Vec<(u32, u32)> {
        self.map
            .iter()
            .enumerate()
            .filter_map(|(i, m)| m.map(|new| (i as u32, new.0)))
            .collect()
    }

    /// Translates a model over the *simplified* netlist's inputs back
    /// to a model over the *original* netlist's inputs. Inputs are
    /// never merged or folded by the rewrites, so every surviving
    /// original input has a distinct image; cone-pruned inputs cannot
    /// influence the goal and are assigned `0`. A *surviving* input the
    /// model fails to assign stays unassigned — the simulator then
    /// rejects the translated model, so an incomplete model from a
    /// broken solver is discredited rather than silently zero-filled.
    #[must_use]
    pub fn translate_model(
        &self,
        original: &Netlist,
        model: &HashMap<SignalId, i64>,
    ) -> HashMap<SignalId, i64> {
        let mut out = HashMap::with_capacity(model.len());
        for id in original.signal_ids() {
            if !matches!(original.op(id), Op::Input) {
                continue;
            }
            match self.get(id) {
                None => {
                    out.insert(id, 0);
                }
                Some(new) => {
                    if let Some(&v) = model.get(&new) {
                        out.insert(id, v);
                    }
                }
            }
        }
        out
    }
}

/// The output of a simplification pass.
#[derive(Clone, Debug)]
pub struct SimplifyResult {
    /// The simplified netlist.
    pub netlist: Netlist,
    /// Old → new signal map (partial when cone pruning dropped
    /// signals).
    pub map: SignalMap,
    /// What the pass did.
    pub stats: SimplifyStats,
}

/// Simplifies `netlist` against the given goal roots: fixpoint
/// rewriting (constant folding, structural hashing, ITE collapsing,
/// algebraic identities) followed by cone-of-influence pruning, so the
/// result contains exactly the logic that can affect a root. Roots are
/// always preserved: `map.get(root)` is `Some` for every root.
#[must_use]
pub fn simplify(netlist: &Netlist, roots: &[SignalId]) -> SimplifyResult {
    let mut s = Simplifier::new(netlist.name());
    s.process(netlist);
    let mut result = s.finish(netlist);
    // Prune to the cone of the mapped roots, composing the maps.
    let prune_start = std::time::Instant::now();
    let new_roots: Vec<SignalId> = roots.iter().filter_map(|&r| result.map.get(r)).collect();
    let (pruned, prune_map, dropped) = prune_cone(&result.netlist, &new_roots);
    result.stats.time_us = result
        .stats
        .time_us
        .saturating_add(u64::try_from(prune_start.elapsed().as_micros()).unwrap_or(u64::MAX));
    if dropped > 0 {
        result.map = SignalMap {
            map: result
                .map
                .map
                .iter()
                .map(|m| m.and_then(|mid| prune_map[mid.index()]))
                .collect(),
        };
        result.stats.coi_dropped = dropped;
        result.stats.signals_after = pruned.len();
        result.netlist = pruned;
    }
    result
}

/// Simplifies without cone pruning: every original signal keeps an
/// image (the total map incremental sessions need, where future
/// queries may constrain any signal).
#[must_use]
pub fn simplify_full(netlist: &Netlist) -> SimplifyResult {
    let mut s = Simplifier::new(netlist.name());
    s.process(netlist);
    s.finish(netlist)
}

/// Keeps only the cone of `roots`, returning the pruned netlist, a
/// per-signal map, and the number of dropped signals.
fn prune_cone(netlist: &Netlist, roots: &[SignalId]) -> (Netlist, Vec<Option<SignalId>>, u64) {
    let in_cone = analysis::cone_of_influence(netlist, roots);
    let dropped = in_cone.iter().filter(|k| !**k).count() as u64;
    if dropped == 0 {
        let identity = netlist.signal_ids().map(Some).collect();
        return (netlist.clone(), identity, 0);
    }
    let mut out = Netlist::new(netlist.name());
    let mut map: Vec<Option<SignalId>> = Vec::with_capacity(netlist.len());
    for id in netlist.signal_ids() {
        if !in_cone[id.index()] {
            map.push(None);
            continue;
        }
        // The cone is closed under operands, so every operand is mapped.
        let sig = netlist.signal(id);
        let new_op = sig.op().remap(|o| map[o.index()].expect("operand in the cone"));
        let new_id = out.push(sig.ty(), new_op);
        if let Some(name) = sig.name() {
            if out.find(name).is_none() {
                let _ = out.set_name(new_id, name);
            }
        }
        map.push(Some(new_id));
    }
    for (id, name) in netlist.outputs() {
        if let Some(new_id) = map[id.index()] {
            let _ = out.set_output(new_id, name.clone());
        }
    }
    (out, map, dropped)
}

/// The incremental rewrite engine: feed it a growing netlist with
/// repeated [`Simplifier::process`] calls (each processes the new
/// suffix) and the simplified netlist grows append-only — exactly what
/// an incremental solver session's `extend` needs.
#[derive(Clone, Debug)]
pub struct Simplifier {
    out: Netlist,
    /// old index → new id (total; every processed signal has an image).
    map: Vec<SignalId>,
    /// Hash-cons table over `(type, rewritten op)`.
    cons: HashMap<(SignalType, Op), SignalId, ConsHash>,
    /// Known constant value per *new* signal.
    known: Vec<Option<i64>>,
    /// Value range `[lo, hi]` per *new* signal (range-aware folding).
    range: Vec<(i64, i64)>,
    /// Output names already forwarded to `out`.
    outputs_done: usize,
    stats: SimplifyStats,
}

impl Simplifier {
    /// A fresh simplifier emitting into an empty netlist named `name`.
    #[must_use]
    pub fn new(name: &str) -> Self {
        Simplifier {
            out: Netlist::new(name),
            map: Vec::new(),
            cons: HashMap::default(),
            known: Vec::new(),
            range: Vec::new(),
            outputs_done: 0,
            stats: SimplifyStats::default(),
        }
    }

    /// The simplified netlist built so far (append-only across
    /// [`Simplifier::process`] calls).
    #[must_use]
    pub fn netlist(&self) -> &Netlist {
        &self.out
    }

    /// The image of original signal `old` (panics if unprocessed).
    #[must_use]
    pub fn map(&self, old: SignalId) -> SignalId {
        self.map[old.index()]
    }

    /// Signals processed so far.
    #[must_use]
    pub fn processed(&self) -> usize {
        self.map.len()
    }

    /// The total old→new map accumulated so far as a [`SignalMap`]
    /// (every processed signal has an image; nothing is pruned).
    #[must_use]
    pub fn signal_map(&self) -> SignalMap {
        SignalMap {
            map: self.map.iter().map(|&m| Some(m)).collect(),
        }
    }

    /// Counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> SimplifyStats {
        SimplifyStats {
            signals_before: self.map.len(),
            signals_after: self.out.len(),
            ..self.stats
        }
    }

    /// Packages the current state as a [`SimplifyResult`] (cloning the
    /// output netlist), forwarding `original`'s output declarations.
    fn finish(mut self, original: &Netlist) -> SimplifyResult {
        self.forward_outputs(original);
        SimplifyResult {
            map: SignalMap {
                map: self.map.iter().map(|&m| Some(m)).collect(),
            },
            stats: self.stats(),
            netlist: self.out,
        }
    }

    /// Processes the signals of `netlist` beyond what has already been
    /// processed (`netlist` must be an append-only extension of every
    /// earlier `process` argument).
    pub fn process(&mut self, netlist: &Netlist) {
        debug_assert!(netlist.len() >= self.map.len(), "netlist must grow append-only");
        let start = std::time::Instant::now();
        for id in netlist.signal_ids().skip(self.map.len()) {
            let sig = netlist.signal(id);
            let new_id = self.emit(sig.ty(), sig.op(), sig.name());
            self.map.push(new_id);
        }
        self.forward_outputs(netlist);
        self.stats.time_us = self
            .stats
            .time_us
            .saturating_add(u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX));
    }

    /// Forwards output declarations for the processed prefix.
    fn forward_outputs(&mut self, netlist: &Netlist) {
        let outputs = netlist.outputs();
        while self.outputs_done < outputs.len() {
            let (id, name) = &outputs[self.outputs_done];
            if id.index() >= self.map.len() {
                break;
            }
            let new_id = self.map[id.index()];
            let _ = self.out.set_output(new_id, name.clone());
            self.outputs_done += 1;
        }
    }

    /// Rewrites one original signal into the output netlist: remap
    /// operands, apply rules to a local fixpoint, then hash-cons.
    fn emit(&mut self, ty: SignalType, op: &Op, name: Option<&str>) -> SignalId {
        let op = match op {
            Op::Input => Op::Input,
            other => other.remap(|o| self.map[o.index()]),
        };
        self.emit_rewritten(ty, op, name)
    }

    /// Like [`Simplifier::emit`] but for an operator whose operand ids
    /// already refer to the output netlist (used by [`scorr_lite`],
    /// which substitutes register representatives before rewriting).
    fn emit_rewritten(&mut self, ty: SignalType, op: Op, name: Option<&str>) -> SignalId {
        // Inputs are never interned (two inputs are always distinct
        // free variables) and never rewritten; constants are interned
        // without counting a fold.
        if matches!(op, Op::Input) {
            let id = self.out.push(ty, Op::Input);
            self.push_meta(id, ty, &Op::Input);
            self.name(id, name);
            return id;
        }
        if matches!(op, Op::Const(_)) {
            let id = self.intern(ty, op);
            self.name(id, name);
            return id;
        }
        let mut op = op;
        loop {
            match self.rewrite(ty, &op) {
                Rewrite::Alias(existing) => {
                    self.stats.folds += 1;
                    if matches!(op, Op::Ite { .. }) {
                        self.stats.ite_collapsed += 1;
                    }
                    self.name(existing, name);
                    return existing;
                }
                Rewrite::Const(c) => {
                    self.stats.folds += 1;
                    if matches!(op, Op::Ite { .. }) {
                        self.stats.ite_collapsed += 1;
                    }
                    let id = self.intern(ty, Op::Const(c));
                    self.name(id, name);
                    return id;
                }
                Rewrite::Replace(next) => op = next,
                Rewrite::Keep => break,
            }
        }
        let before = self.out.len();
        let id = self.intern(ty, op);
        if self.out.len() == before {
            self.stats.shares += 1;
        }
        self.name(id, name);
        id
    }

    /// Interns `(ty, op)` in the hash-cons table, pushing a new signal
    /// on a miss: one hash per call, and a clone of `op` only on a miss
    /// (the table and the netlist each keep one).
    fn intern(&mut self, ty: SignalType, op: Op) -> SignalId {
        let id = SignalId(u32::try_from(self.out.len()).expect("netlist too large"));
        let op = match self.cons.entry((ty, op)) {
            Entry::Occupied(e) => return *e.get(),
            Entry::Vacant(e) => {
                let op = e.key().1.clone();
                e.insert(id);
                op
            }
        };
        self.push_meta(id, ty, &op);
        self.out.push(ty, op)
    }

    /// Records the constant value and range of a freshly pushed signal.
    fn push_meta(&mut self, id: SignalId, ty: SignalType, op: &Op) {
        debug_assert_eq!(id.index(), self.known.len());
        let known = match op {
            Op::Const(c) => Some(*c),
            _ => None,
        };
        self.known.push(known);
        let range = match known {
            Some(c) => (c, c),
            None => self.compute_range(ty, op),
        };
        self.range.push(range);
    }

    fn name(&mut self, id: SignalId, name: Option<&str>) {
        if let Some(n) = name {
            if self.out.signal(id).name().is_none() && self.out.find(n).is_none() {
                let _ = self.out.set_name(id, n);
            }
        }
    }

    fn val(&self, id: SignalId) -> Option<i64> {
        self.known[id.index()]
    }

    fn rng(&self, id: SignalId) -> (i64, i64) {
        self.range[id.index()]
    }

    /// Conservative value range of a new signal, mirroring the
    /// [`crate::eval`] semantics (full domain whenever wrapping or
    /// signedness makes the bound unsound).
    #[allow(clippy::too_many_lines)]
    fn compute_range(&self, ty: SignalType, op: &Op) -> (i64, i64) {
        let full = (0, ty.max_value());
        let max = ty.max_value();
        match op {
            Op::Input | Op::Const(_) => full,
            Op::Not(_) | Op::And(_) | Op::Or(_) | Op::Xor(..) | Op::Cmp { .. } => (0, 1),
            Op::BoolToWord(a) | Op::ZeroExt(a) => {
                let (lo, hi) = self.rng(*a);
                (lo.min(max), hi.min(max))
            }
            Op::Add(a, b) => {
                let (la, ha) = self.rng(*a);
                let (lb, hb) = self.rng(*b);
                match ha.checked_add(hb) {
                    Some(h) if h <= max => (la + lb, h),
                    _ => full,
                }
            }
            Op::Sub(a, b) => {
                let (la, ha) = self.rng(*a);
                let (lb, hb) = self.rng(*b);
                if la >= hb && ha - lb <= max {
                    (la - hb, ha - lb)
                } else {
                    full
                }
            }
            Op::MulConst(a, k) => {
                let (la, ha) = self.rng(*a);
                if *k >= 0 && i128::from(ha) * i128::from(*k) <= i128::from(max) {
                    (la * k, ha * k)
                } else {
                    full
                }
            }
            Op::Shl(a, k) => {
                let (la, ha) = self.rng(*a);
                if *k < 62 && (i128::from(ha) << k) <= i128::from(max) {
                    (la << k, ha << k)
                } else {
                    full
                }
            }
            Op::Shr(a, k) => {
                let (la, ha) = self.rng(*a);
                let k = (*k).min(63);
                (la >> k, ha >> k)
            }
            Op::Extract { src, lo, .. } => {
                let (la, ha) = self.rng(*src);
                if *lo == 0 && ha <= max {
                    (la, ha)
                } else {
                    full
                }
            }
            Op::Concat(hi, lo) => {
                let (lh, hh) = self.rng(*hi);
                let (ll, hl) = self.rng(*lo);
                let wl = self.out.ty(*lo).width();
                ((lh << wl) + ll, (hh << wl) + hl)
            }
            Op::SignExt(a) => {
                let (la, ha) = self.rng(*a);
                let wa = self.out.ty(*a).width();
                let sign_bit = 1i64 << (wa - 1);
                if ha < sign_bit {
                    (la, ha)
                } else if la >= sign_bit {
                    let off = (max + 1) - (1i64 << wa);
                    (la + off, ha + off)
                } else {
                    full
                }
            }
            Op::Ite { t, e, .. } => {
                let (lt, ht) = self.rng(*t);
                let (le, he) = self.rng(*e);
                (lt.min(le), ht.max(he))
            }
            Op::Min(a, b) => {
                let (la, ha) = self.rng(*a);
                let (lb, hb) = self.rng(*b);
                (la.min(lb), ha.min(hb))
            }
            Op::Max(a, b) => {
                let (la, ha) = self.rng(*a);
                let (lb, hb) = self.rng(*b);
                (la.max(lb), ha.max(hb))
            }
        }
    }

    /// One rewrite step on an operand-remapped operator.
    #[allow(clippy::too_many_lines)]
    fn rewrite(&self, ty: SignalType, op: &Op) -> Rewrite {
        let mask = ty.max_value();
        let w_out = ty.width();
        match op {
            Op::Input => Rewrite::Keep,
            Op::Const(c) => Rewrite::Const(*c),
            Op::Not(a) => match self.val(*a) {
                Some(v) => Rewrite::Const(1 - v),
                None => match self.out.op(*a) {
                    // not(not x) = x
                    Op::Not(b) => Rewrite::Alias(*b),
                    _ => Rewrite::Keep,
                },
            },
            Op::And(v) => self.rewrite_nary(v, true),
            Op::Or(v) => self.rewrite_nary(v, false),
            Op::Xor(a, b) => match (self.val(*a), self.val(*b)) {
                (Some(x), Some(y)) => Rewrite::Const(x ^ y),
                _ if a == b => Rewrite::Const(0),
                (Some(0), None) => Rewrite::Alias(*b),
                (None, Some(0)) => Rewrite::Alias(*a),
                (Some(1), None) => Rewrite::Replace(Op::Not(*b)),
                (None, Some(1)) => Rewrite::Replace(Op::Not(*a)),
                _ => Rewrite::Keep,
            },
            Op::Add(a, b) => match (self.val(*a), self.val(*b)) {
                (Some(x), Some(y)) => Rewrite::Const((x + y) & mask),
                (Some(0), None) if self.out.ty(*b) == ty => Rewrite::Alias(*b),
                (None, Some(0)) if self.out.ty(*a) == ty => Rewrite::Alias(*a),
                _ => Rewrite::Keep,
            },
            Op::Sub(a, b) => match (self.val(*a), self.val(*b)) {
                (Some(x), Some(y)) => Rewrite::Const((x - y).rem_euclid(1i64 << w_out)),
                _ if a == b => Rewrite::Const(0),
                (None, Some(0)) if self.out.ty(*a) == ty => Rewrite::Alias(*a),
                _ => Rewrite::Keep,
            },
            Op::MulConst(a, k) => match self.val(*a) {
                Some(x) => {
                    Rewrite::Const(((i128::from(x) * i128::from(*k)) & i128::from(mask)) as i64)
                }
                None if *k == 0 => Rewrite::Const(0),
                None if *k == 1 && self.out.ty(*a) == ty => Rewrite::Alias(*a),
                None => Rewrite::Keep,
            },
            Op::Shl(a, k) => match self.val(*a) {
                Some(x) => Rewrite::Const(((i128::from(x) << (*k).min(100)) as i64) & mask),
                None if *k == 0 && self.out.ty(*a) == ty => Rewrite::Alias(*a),
                None if u64::from(*k) >= 62 => Rewrite::Const(0),
                None => Rewrite::Keep,
            },
            Op::Shr(a, k) => match self.val(*a) {
                Some(x) => Rewrite::Const(x >> (*k).min(63)),
                None if *k == 0 && self.out.ty(*a) == ty => Rewrite::Alias(*a),
                None if u64::from(*k) >= u64::from(self.out.ty(*a).width()) => Rewrite::Const(0),
                None => Rewrite::Keep,
            },
            Op::Extract { src, hi, lo } => match self.val(*src) {
                Some(x) => Rewrite::Const((x >> lo) & mask),
                None if *lo == 0 && *hi + 1 == self.out.ty(*src).width() => Rewrite::Alias(*src),
                None => Rewrite::Keep,
            },
            Op::Concat(hi, lo) => match (self.val(*hi), self.val(*lo)) {
                (Some(x), Some(y)) => {
                    let wl = self.out.ty(*lo).width();
                    Rewrite::Const((x << wl) | y)
                }
                _ => Rewrite::Keep,
            },
            Op::ZeroExt(a) => match self.val(*a) {
                Some(x) => Rewrite::Const(x),
                None if self.out.ty(*a) == ty => Rewrite::Alias(*a),
                None => Rewrite::Keep,
            },
            Op::SignExt(a) => match self.val(*a) {
                Some(x) => {
                    let wa = self.out.ty(*a).width();
                    if x >= 1i64 << (wa - 1) {
                        Rewrite::Const(x + ((1i64 << w_out) - (1i64 << wa)))
                    } else {
                        Rewrite::Const(x)
                    }
                }
                None if self.out.ty(*a) == ty => Rewrite::Alias(*a),
                None => Rewrite::Keep,
            },
            Op::Ite { sel, t, e } => match self.val(*sel) {
                Some(1) => Rewrite::Alias(*t),
                Some(_) => Rewrite::Alias(*e),
                None if t == e => Rewrite::Alias(*t),
                None => Rewrite::Keep,
            },
            Op::Min(a, b) => {
                let (la, ha) = self.rng(*a);
                let (lb, hb) = self.rng(*b);
                if a == b || (ha <= lb && self.out.ty(*a) == ty) {
                    Rewrite::Alias(*a)
                } else if hb <= la && self.out.ty(*b) == ty {
                    Rewrite::Alias(*b)
                } else {
                    Rewrite::Keep
                }
            }
            Op::Max(a, b) => {
                let (la, ha) = self.rng(*a);
                let (lb, hb) = self.rng(*b);
                if a == b || (la >= hb && self.out.ty(*a) == ty) {
                    Rewrite::Alias(*a)
                } else if lb >= ha && self.out.ty(*b) == ty {
                    Rewrite::Alias(*b)
                } else {
                    Rewrite::Keep
                }
            }
            Op::Cmp { op, a, b } => {
                if a == b {
                    return Rewrite::Const(i64::from(op.eval(0, 0)));
                }
                // Range-aware evaluation: fold when the operand ranges
                // decide the relation for every value pair.
                let (la, ha) = self.rng(*a);
                let (lb, hb) = self.rng(*b);
                let (can_true, can_false) = match op {
                    CmpOp::Eq => (la <= hb && lb <= ha, !(la == ha && lb == hb && la == lb)),
                    CmpOp::Ne => (!(la == ha && lb == hb && la == lb), la <= hb && lb <= ha),
                    CmpOp::Lt => (la < hb, ha >= lb),
                    CmpOp::Le => (la <= hb, ha > lb),
                    CmpOp::Gt => (ha > lb, la <= hb),
                    CmpOp::Ge => (ha >= lb, la < hb),
                };
                match (can_true, can_false) {
                    (true, false) => Rewrite::Const(1),
                    (false, true) => Rewrite::Const(0),
                    _ => Rewrite::Keep,
                }
            }
            Op::BoolToWord(a) => match self.val(*a) {
                Some(x) => Rewrite::Const(x),
                None => Rewrite::Keep,
            },
        }
    }

    /// Simplifies an n-ary `And` (`conj = true`) or `Or`: drops
    /// duplicates and neutral constants, short-circuits on absorbing
    /// constants and complementary literals, sorts operands for better
    /// hash-cons hits. Allocates only when it rewrites the operands.
    fn rewrite_nary(&self, v: &[SignalId], conj: bool) -> Rewrite {
        let (absorb, neutral) = if conj { (0, 1) } else { (1, 0) };
        if v.iter().any(|&a| self.val(a) == Some(absorb)) {
            return Rewrite::Const(absorb);
        }
        // x ∧ ¬x = 0, x ∨ ¬x = 1. Neither side is a constant: the
        // negation of a constant folds to one.
        for &a in v {
            if let Op::Not(b) = self.out.op(a) {
                if v.contains(b) {
                    return Rewrite::Const(absorb);
                }
            }
        }
        // Strictly ascending and free of constants: nothing to drop or
        // sort. Anything else is rewritten, or the `Replace` loop would
        // never terminate.
        if v.len() > 1
            && v.windows(2).all(|w| w[0].index() < w[1].index())
            && v.iter().all(|&a| self.val(a).is_none())
        {
            return Rewrite::Keep;
        }
        let mut kept: Vec<SignalId> = v.iter().copied().filter(|&a| self.val(a).is_none()).collect();
        kept.sort_unstable_by_key(|s| s.index());
        kept.dedup();
        match kept.len() {
            0 => Rewrite::Const(neutral),
            1 => Rewrite::Alias(kept[0]),
            _ if conj => Rewrite::Replace(Op::And(kept)),
            _ => Rewrite::Replace(Op::Or(kept)),
        }
    }
}

/// Outcome of one rewrite attempt.
#[cfg_attr(test, derive(Debug, PartialEq))]
enum Rewrite {
    /// No rule applies; intern the operator as-is.
    Keep,
    /// The signal is equivalent to an existing new signal.
    Alias(SignalId),
    /// The signal folds to a constant.
    Const(i64),
    /// The operator was rewritten; try the rules again on the result.
    Replace(Op),
}

/// The hash-cons table's hasher: a multiply-fold over the key's
/// integer words, keyed per process from [`RandomState`]. The key stays
/// secret because netlists can be untrusted input (`rtlsat` and
/// `rtlsat serve` simplify what they are sent): without it, keys that
/// share their low bits would pile into one bucket group.
#[derive(Clone, Debug)]
struct ConsHash {
    seed: u64,
}

impl Default for ConsHash {
    fn default() -> Self {
        ConsHash {
            seed: RandomState::new().hash_one(0u64),
        }
    }
}

impl BuildHasher for ConsHash {
    type Hasher = FoldHasher;

    fn build_hasher(&self) -> FoldHasher {
        FoldHasher { state: self.seed }
    }
}

/// See [`ConsHash`]. Each word is mixed in as `fold(state ⊕ word, K)`,
/// `fold(a, b)` folding the 128-bit product `a·b` to 64 bits.
struct FoldHasher {
    state: u64,
}

impl Hasher for FoldHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, x: u8) {
        self.write_u64(u64::from(x));
    }

    fn write_u16(&mut self, x: u16) {
        self.write_u64(u64::from(x));
    }

    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    fn write_u64(&mut self, x: u64) {
        const K: u64 = 0x9e37_79b9_7f4a_7c15;
        let p = u128::from(self.state ^ x) * u128::from(K);
        self.state = (p as u64) ^ ((p >> 64) as u64);
    }

    fn finish(&self) -> u64 {
        self.state
    }
}

/// Scorr-lite: equality-driven latch substitution over a sequential
/// circuit's registers. Registers are partitioned by initial value and
/// the partition refined until two registers are in the same class iff
/// their next-state functions are structurally congruent *under the
/// hypothesis that same-class states are equal* — the classic
/// signal-correspondence fixpoint, restricted to register-to-register
/// equality (no SAT calls). Non-representative registers are replaced
/// by their class representative throughout the frame logic.
///
/// Returns the reduced circuit, the frame-signal map, and the number of
/// registers merged. The reduction is an over-approximation-free
/// bisimulation quotient: every trace of the reduced circuit is a trace
/// of the original and vice versa, so property verdicts at every depth
/// are preserved (pinned by the differential tests).
#[must_use]
pub fn scorr_lite(circuit: &SeqCircuit) -> (SeqCircuit, SignalMap, usize) {
    let frame = circuit.frame();
    let regs = circuit.registers();
    // Class id per register; start with one class per (init, type).
    let mut class: Vec<usize> = Vec::with_capacity(regs.len());
    let mut init_class: HashMap<(i64, SignalType), usize> = HashMap::new();
    for r in regs {
        let next = init_class.len();
        class.push(*init_class.entry((r.init, frame.ty(r.state))).or_insert(next));
    }
    // The representative of a class is the member whose state has the
    // lowest frame id, so it is always emitted before any alias of it.
    let rep_state = |class: &[usize], c: usize| -> SignalId {
        regs.iter()
            .zip(class)
            .filter(|&(_, &rc)| rc == c)
            .map(|(r, _)| r.state)
            .min()
            .expect("class has a member")
    };
    // Substitute non-representative states by their rep and rewrite the
    // frame; `pre` maps frame signal ids into the fresh netlist.
    let substituted = |class: &[usize]| -> (Simplifier, Vec<SignalId>) {
        let mut s = Simplifier::new(frame.name());
        let mut pre: Vec<SignalId> = Vec::with_capacity(frame.len());
        for id in frame.signal_ids() {
            let sig = frame.signal(id);
            if let Some(ri) = regs.iter().position(|r| r.state == id) {
                let rep = rep_state(class, class[ri]);
                if rep != id {
                    pre.push(pre[rep.index()]);
                    continue;
                }
            }
            let remapped = sig.op().remap(|o| pre[o.index()]);
            let new_id = s.emit_rewritten(sig.ty(), remapped, sig.name());
            pre.push(new_id);
        }
        (s, pre)
    };
    // Refine: split classes whose members' next-state images diverge
    // under the current equality hypothesis, until stable.
    loop {
        let (_, pre) = substituted(&class);
        let mut next_class: Vec<usize> = vec![0; regs.len()];
        let mut seen: HashMap<(usize, u32), usize> = HashMap::new();
        let mut fresh = 0usize;
        for (i, r) in regs.iter().enumerate() {
            let key = (class[i], pre[r.next.index()].0);
            let c = *seen.entry(key).or_insert_with(|| {
                let c = fresh;
                fresh += 1;
                c
            });
            next_class[i] = c;
        }
        if next_class == class {
            break;
        }
        class = next_class;
    }
    let classes: std::collections::HashSet<usize> = class.iter().copied().collect();
    let merged = regs.len() - classes.len();
    if merged == 0 {
        let identity = SignalMap {
            map: frame.signal_ids().map(Some).collect(),
        };
        return (circuit.clone(), identity, 0);
    }
    // Build the reduced circuit: representative states survive, other
    // registers alias them.
    let (s, pre) = substituted(&class);
    let map = SignalMap {
        map: pre.iter().copied().map(Some).collect(),
    };
    let mut out = SeqCircuit::new(s.out);
    for (i, r) in regs.iter().enumerate() {
        if rep_state(&class, class[i]) != r.state {
            continue;
        }
        let state = map.get(r.state).expect("state mapped");
        let next = map.get(r.next).expect("next mapped");
        let _ = out.add_register(state, next, r.init);
    }
    for (name, bad) in circuit.properties() {
        let _ = out.add_property(name, map.get(*bad).expect("property mapped"));
    }
    (out, map, merged)
}

/// The number of registers a [`scorr_lite`] pass would merge without
/// building the reduced circuit (used by stats displays).
#[must_use]
pub fn scorr_merge_count(circuit: &SeqCircuit) -> usize {
    scorr_lite(circuit).2
}

/// Renders a goal-mode preproc bundle: the deterministic evidence an
/// offline checker needs to validate a proof produced on a simplified
/// netlist — the original goal name, its image in the simplified
/// netlist, the old→new signal map, and the simplified netlist text.
#[must_use]
pub fn bundle_to_text(goal_name: &str, goal_new: SignalId, result: &SimplifyResult) -> String {
    bundle_render(Some((goal_name, goal_new)), result)
}

/// Renders a full-mode preproc bundle (no cone pruning against a goal;
/// the shape incremental sessions use — their assumption proofs carry
/// the assumed literals themselves, so no goal line is needed).
#[must_use]
pub fn bundle_to_text_full(result: &SimplifyResult) -> String {
    bundle_render(None, result)
}

fn bundle_render(goal: Option<(&str, SignalId)>, result: &SimplifyResult) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "rtlpreproc 1");
    match goal {
        Some((name, new)) => {
            let _ = writeln!(out, "goal {name} {}", new.0);
        }
        None => {
            let _ = writeln!(out, "full");
        }
    }
    for (old, new) in result.map.pairs() {
        let _ = writeln!(out, "map {old} {new}");
    }
    let _ = writeln!(out, "netlist-text");
    out.push_str(&crate::text::to_text(&result.netlist));
    out
}

/// A parsed preproc bundle (see [`bundle_to_text`]).
#[derive(Clone, Debug)]
pub struct Bundle {
    /// Goal-mode: the goal's name in the *original* netlist and its
    /// signal id in the simplified one. `None` for a full-mode bundle
    /// (assumption proofs — the proof carries its own literals).
    pub goal: Option<(String, SignalId)>,
    /// The published old→new map pairs.
    pub map: Vec<(u32, u32)>,
    /// The published simplified netlist text.
    pub netlist_text: String,
}

/// Parses a preproc bundle.
///
/// # Errors
///
/// Returns a description of the first malformed line.
pub fn bundle_parse(text: &str) -> Result<Bundle, String> {
    let mut lines = text.lines();
    match lines.next() {
        Some("rtlpreproc 1") => {}
        other => return Err(format!("bad bundle header: {other:?}")),
    }
    let mode_line = lines.next().ok_or("missing goal/full line")?;
    let goal = if mode_line == "full" {
        None
    } else {
        let mut toks = mode_line.split_whitespace();
        if toks.next() != Some("goal") {
            return Err(format!("expected `goal` or `full`, found `{mode_line}`"));
        }
        let name = toks.next().ok_or("goal line missing name")?.to_string();
        let new: u32 = toks
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or("goal line missing new id")?;
        Some((name, SignalId(new)))
    };
    let mut map = Vec::new();
    let mut netlist_text = String::new();
    let mut in_netlist = false;
    for line in lines {
        if in_netlist {
            netlist_text.push_str(line);
            netlist_text.push('\n');
        } else if line == "netlist-text" {
            in_netlist = true;
        } else if let Some(rest) = line.strip_prefix("map ") {
            let mut t = rest.split_whitespace();
            let old: u32 = t
                .next()
                .and_then(|x| x.parse().ok())
                .ok_or_else(|| format!("bad map line `{line}`"))?;
            let new: u32 = t
                .next()
                .and_then(|x| x.parse().ok())
                .ok_or_else(|| format!("bad map line `{line}`"))?;
            map.push((old, new));
        } else {
            return Err(format!("unexpected bundle line `{line}`"));
        }
    }
    if !in_netlist {
        return Err("bundle missing netlist-text section".to_string());
    }
    Ok(Bundle {
        goal,
        map,
        netlist_text,
    })
}

/// Re-runs the deterministic rewrites on `original` and validates a
/// published bundle against them: the re-derived simplified netlist
/// must print to the identical text, the map pairs must match, and (in
/// goal mode) the goal image must agree. On success, returns the
/// re-derived [`SimplifyResult`] (check the proof against its netlist).
///
/// # Errors
///
/// Returns a description of the first divergence.
pub fn bundle_validate(original: &Netlist, bundle: &Bundle) -> Result<SimplifyResult, String> {
    let result = match &bundle.goal {
        Some((goal_name, goal_new)) => {
            let goal = original
                .find(goal_name)
                .or_else(|| {
                    original
                        .outputs()
                        .iter()
                        .find(|(_, n)| n == goal_name)
                        .map(|&(id, _)| id)
                })
                .ok_or_else(|| format!("goal `{goal_name}` not found in the original netlist"))?;
            let result = simplify(original, &[goal]);
            let derived_goal = result
                .map
                .get(goal)
                .ok_or("goal pruned by the re-derived rewrites")?;
            if derived_goal != *goal_new {
                return Err(format!(
                    "goal image mismatch: bundle says {}, rewrites derive {}",
                    goal_new.0, derived_goal.0
                ));
            }
            result
        }
        None => simplify_full(original),
    };
    if result.map.pairs() != bundle.map {
        return Err("signal map mismatch between bundle and re-derived rewrites".to_string());
    }
    let derived_text = crate::text::to_text(&result.netlist);
    if derived_text != bundle.netlist_text {
        return Err(
            "simplified netlist text mismatch between bundle and re-derived rewrites".to_string(),
        );
    }
    Ok(result)
}

#[cfg(test)]
mod unit {
    use super::*;
    use crate::eval;

    fn roundtrip_equiv(n: &Netlist, roots: &[SignalId]) {
        let r = simplify(n, roots);
        // Exhaustively compare over all input assignments (inputs are
        // kept small in these tests).
        let inputs = eval::input_ids(n);
        let widths: Vec<u32> = inputs.iter().map(|&i| n.ty(i).width()).collect();
        let total: u64 = widths.iter().map(|w| 1u64 << w).product();
        assert!(total <= 1 << 12, "test netlist too wide to enumerate");
        for idx in 0..total {
            let mut rem = idx;
            let mut model = HashMap::new();
            for (&i, &w) in inputs.iter().zip(&widths) {
                model.insert(i, (rem % (1 << w)) as i64);
                rem /= 1 << w;
            }
            let vals = eval::eval(n, &model).unwrap();
            let new_model = invert_inputs(&r, n, &model);
            let new_vals = eval::eval(&r.netlist, &new_model).unwrap();
            for &root in roots {
                let new_root = r.map.get(root).expect("root mapped");
                assert_eq!(vals[root], new_vals[new_root], "root diverged at {idx}");
            }
        }
    }

    /// Model over original inputs → model over simplified inputs.
    fn invert_inputs(
        r: &SimplifyResult,
        _n: &Netlist,
        model: &HashMap<SignalId, i64>,
    ) -> HashMap<SignalId, i64> {
        let mut out = HashMap::new();
        for (&old, &v) in model {
            if let Some(new) = r.map.get(old) {
                if matches!(r.netlist.op(new), Op::Input) {
                    out.insert(new, v);
                }
            }
        }
        // Inputs only present in the simplified netlist cannot exist
        // (it only shrinks), but unmapped simplified inputs would be a
        // bug: every simplified input is the image of an original one.
        for id in eval::input_ids(&r.netlist) {
            assert!(out.contains_key(&id), "orphan input {id} in simplified netlist");
        }
        out
    }

    #[test]
    fn const_folding_matches_eval() {
        let mut n = Netlist::new("t");
        let a = n.const_word(9, 4).unwrap();
        let b = n.const_word(8, 4).unwrap();
        let add = n.add(a, b).unwrap(); // 17 mod 16 = 1
        let sub = n.sub(b, a).unwrap(); // -1 mod 16 = 15
        let mul = n.mul_const(a, 3).unwrap(); // 27 mod 16 = 11
        let goal1 = n.eq_const(add, 1).unwrap();
        let goal2 = n.eq_const(sub, 15).unwrap();
        let goal3 = n.eq_const(mul, 11).unwrap();
        let all = n.and(&[goal1, goal2, goal3]).unwrap();
        let r = simplify(&n, &[all]);
        let g = r.map.get(all).unwrap();
        assert!(matches!(r.netlist.op(g), Op::Const(1)), "{:?}", r.netlist.op(g));
        assert!(r.stats.folds > 0);
    }

    #[test]
    fn fold_width_wrap_matches_declared_output_width() {
        // add_into a wider output is exact: no wrap.
        let mut n = Netlist::new("t");
        let a = n.const_word(9, 4).unwrap();
        let b = n.const_word(8, 4).unwrap();
        let wide = n.add_into(a, b, 5).unwrap(); // 17 exactly
        let g = n.eq_const(wide, 17).unwrap();
        let r = simplify(&n, &[g]);
        assert!(matches!(r.netlist.op(r.map.get(g).unwrap()), Op::Const(1)));
    }

    #[test]
    fn structural_hashing_shares_subterms() {
        let mut n = Netlist::new("t");
        let a = n.input_word("a", 4).unwrap();
        let b = n.input_word("b", 4).unwrap();
        let s1 = n.add(a, b).unwrap();
        let s2 = n.add(a, b).unwrap(); // identical subterm
        let c1 = n.cmp(CmpOp::Lt, s1, s2).unwrap(); // s1 < s2 over shared term → 0
        let r = simplify(&n, &[c1]);
        assert!(r.stats.shares >= 1);
        // After sharing, s1 and s2 are the same signal, so the compare
        // folds to false.
        assert!(matches!(r.netlist.op(r.map.get(c1).unwrap()), Op::Const(0)));
        roundtrip_equiv(&n, &[c1]);
    }

    #[test]
    fn inputs_are_never_merged() {
        let mut n = Netlist::new("t");
        let a = n.input_bool("a").unwrap();
        let b = n.input_bool("b").unwrap();
        let x = n.xor(a, b).unwrap();
        let r = simplify(&n, &[x]);
        assert_ne!(r.map.get(a), r.map.get(b), "distinct inputs must stay distinct");
        assert_eq!(eval::input_ids(&r.netlist).len(), 2);
        roundtrip_equiv(&n, &[x]);
    }

    #[test]
    fn ite_collapses_under_known_select() {
        let mut n = Netlist::new("t");
        let a = n.input_word("a", 4).unwrap();
        let b = n.input_word("b", 4).unwrap();
        let t = n.const_bool(true);
        let m = n.ite(t, a, b).unwrap();
        let g = n.eq_const(m, 3).unwrap();
        let r = simplify(&n, &[g]);
        assert!(r.stats.ite_collapsed >= 1);
        // b is now dead: cone pruning drops it.
        assert!(r.map.get(b).is_none(), "dead input should be pruned");
        roundtrip_equiv(&n, &[g]);
    }

    #[test]
    fn ite_with_equal_branches_collapses() {
        let mut n = Netlist::new("t");
        let s = n.input_bool("s").unwrap();
        let a = n.input_word("a", 4).unwrap();
        let m = n.ite(s, a, a).unwrap();
        let g = n.eq_const(m, 3).unwrap();
        let r = simplify(&n, &[g]);
        assert!(r.stats.ite_collapsed >= 1);
        assert!(r.map.get(s).is_none(), "select of collapsed mux is dead");
        roundtrip_equiv(&n, &[g]);
    }

    #[test]
    fn range_aware_comparison_folds() {
        // a[3:0] zero-extended to 8 bits is ≤ 15 < 200, so the compare
        // folds without knowing a.
        let mut n = Netlist::new("t");
        let a = n.input_word("a", 4).unwrap();
        let z = n.zext(a, 8).unwrap();
        let big = n.const_word(200, 8).unwrap();
        let lt = n.cmp(CmpOp::Lt, z, big).unwrap();
        let r = simplify(&n, &[lt]);
        assert!(matches!(r.netlist.op(r.map.get(lt).unwrap()), Op::Const(1)));
        roundtrip_equiv(&n, &[lt]);
    }

    #[test]
    fn boolean_identities() {
        let mut n = Netlist::new("t");
        let a = n.input_bool("a").unwrap();
        let t = n.const_bool(true);
        let f = n.const_bool(false);
        let and1 = n.and(&[a, t]).unwrap(); // = a
        let or0 = n.or(&[and1, f]).unwrap(); // = a
        let nn = n.not(or0).unwrap();
        let nnn = n.not(nn).unwrap(); // = a
        let contradiction = n.and(&[nnn, nn]).unwrap(); // a ∧ ¬a = 0
        let r = simplify(&n, &[contradiction]);
        assert!(matches!(
            r.netlist.op(r.map.get(contradiction).unwrap()),
            Op::Const(0)
        ));
        roundtrip_equiv(&n, &[contradiction]);
    }

    #[test]
    fn nary_dedup_and_sort() {
        let mut n = Netlist::new("t");
        let a = n.input_bool("a").unwrap();
        let b = n.input_bool("b").unwrap();
        let x = n.and(&[b, a, b, a]).unwrap();
        let y = n.and(&[a, b]).unwrap();
        let same = n.cmp_bool_eq(x, y);
        let r = simplify(&n, &[same]);
        // After dedup+sort the two conjunctions hash-cons together.
        assert_eq!(r.map.get(x), r.map.get(y));
        roundtrip_equiv(&n, &[same]);
    }

    /// The n-ary rule rewrites every operand list of up to three
    /// operands over constants, inputs and negations exactly as the
    /// rule it replaced, which always collected the kept operands first.
    #[test]
    fn nary_rewrite_matches_the_collecting_rule() {
        fn collecting(s: &Simplifier, v: &[SignalId], conj: bool) -> Rewrite {
            let (absorb, neutral) = if conj { (0, 1) } else { (1, 0) };
            let mut kept: Vec<SignalId> = Vec::with_capacity(v.len());
            for &a in v {
                match s.val(a) {
                    Some(c) if c == absorb => return Rewrite::Const(absorb),
                    Some(_) => {}
                    None => {
                        if !kept.contains(&a) {
                            kept.push(a);
                        }
                    }
                }
            }
            for &a in &kept {
                if let Op::Not(b) = s.out.op(a) {
                    if kept.contains(b) {
                        return Rewrite::Const(absorb);
                    }
                }
            }
            match kept.len() {
                0 => Rewrite::Const(neutral),
                1 => Rewrite::Alias(kept[0]),
                _ => {
                    kept.sort_unstable_by_key(|s| s.index());
                    if kept.as_slice() == v {
                        Rewrite::Keep
                    } else if conj {
                        Rewrite::Replace(Op::And(kept))
                    } else {
                        Rewrite::Replace(Op::Or(kept))
                    }
                }
            }
        }
        let mut n = Netlist::new("t");
        let zero = n.const_bool(false);
        let one = n.const_bool(true);
        let a = n.input_bool("a").unwrap();
        let b = n.input_bool("b").unwrap();
        let c = n.input_bool("c").unwrap();
        let na = n.not(a).unwrap();
        let nb = n.not(b).unwrap();
        let mut s = Simplifier::new("t");
        s.process(&n);
        let pool: Vec<SignalId> = [zero, one, a, b, c, na, nb].iter().map(|&x| s.map(x)).collect();
        let mut lists: Vec<Vec<SignalId>> = Vec::new();
        for &x in &pool {
            lists.push(vec![x]);
            for &y in &pool {
                lists.push(vec![x, y]);
                lists.extend(pool.iter().map(|&z| vec![x, y, z]));
            }
        }
        for v in &lists {
            for conj in [true, false] {
                assert_eq!(s.rewrite_nary(v, conj), collecting(&s, v, conj), "{v:?} conj={conj}");
            }
        }
    }

    #[test]
    fn cone_pruning_drops_dead_logic() {
        let mut n = Netlist::new("t");
        let a = n.input_word("a", 4).unwrap();
        let b = n.input_word("b", 4).unwrap();
        let goal = n.eq_const(a, 3).unwrap();
        let dead = n.add(b, b).unwrap();
        let _dead2 = n.mul_const(dead, 3).unwrap();
        let r = simplify(&n, &[goal]);
        assert!(r.stats.coi_dropped >= 3);
        assert!(r.map.get(b).is_none());
        assert!(r.map.get(goal).is_some());
        assert!(r.netlist.len() < n.len());
        roundtrip_equiv(&n, &[goal]);
    }

    #[test]
    fn idempotence() {
        let mut n = Netlist::new("t");
        let a = n.input_word("a", 4).unwrap();
        let b = n.input_word("b", 4).unwrap();
        let s = n.add(a, b).unwrap();
        let s2 = n.add(a, b).unwrap();
        let c = n.cmp(CmpOp::Le, s, s2).unwrap();
        let m = n.ite(c, s, b).unwrap();
        let g = n.eq_const(m, 7).unwrap();
        for roots in [vec![g], vec![g, c]] {
            let once = simplify(&n, &roots);
            let new_roots: Vec<SignalId> =
                roots.iter().map(|&r| once.map.get(r).unwrap()).collect();
            let twice = simplify(&once.netlist, &new_roots);
            assert_eq!(
                crate::text::to_text(&once.netlist),
                crate::text::to_text(&twice.netlist),
                "simplify must be idempotent"
            );
            assert_eq!(twice.stats.folds, 0);
            assert_eq!(twice.stats.shares, 0);
            assert_eq!(twice.stats.coi_dropped, 0);
        }
    }

    #[test]
    fn model_translation_roundtrip() {
        let mut n = Netlist::new("t");
        let a = n.input_word("a", 4).unwrap();
        let b = n.input_word("b", 4).unwrap();
        let dead = n.input_word("dead", 4).unwrap();
        let _ = n.add(dead, dead).unwrap();
        let s = n.add(a, b).unwrap();
        let g = n.eq_const(s, 5).unwrap();
        let r = simplify(&n, &[g]);
        // A model over the simplified inputs...
        let mut model = HashMap::new();
        model.insert(r.map.get(a).unwrap(), 2i64);
        model.insert(r.map.get(b).unwrap(), 3i64);
        // ...translates back (dead gets a filler) and certifies.
        let back = r.map.translate_model(&n, &model);
        assert_eq!(back[&a], 2);
        assert_eq!(back[&b], 3);
        assert_eq!(back[&dead], 0);
        assert!(eval::check_model(&n, &back, g).unwrap());
    }

    #[test]
    fn simplify_full_keeps_every_signal_mapped() {
        let mut n = Netlist::new("t");
        let a = n.input_word("a", 4).unwrap();
        let b = n.input_word("b", 4).unwrap();
        let t = n.const_bool(true);
        let m = n.ite(t, a, b).unwrap();
        let _g = n.eq_const(m, 3).unwrap();
        let r = simplify_full(&n);
        for id in n.signal_ids() {
            assert!(r.map.get(id).is_some(), "signal {id} lost its image");
        }
        // The mux still collapsed — b's image is its own input signal,
        // merely unreferenced by the goal cone.
        assert!(matches!(r.netlist.op(r.map.get(m).unwrap()), Op::Input));
    }

    #[test]
    fn outputs_and_names_survive() {
        let src = "netlist t\ninput a w4\ninput b w4\nnode s w4 = add a b\nnode g bool = cmp.eq s a\noutput g out\n";
        let n = crate::text::parse(src).unwrap();
        let g = n.find("g").unwrap();
        let r = simplify(&n, &[g]);
        assert!(r.netlist.find("a").is_some());
        assert!(r.netlist.find("g").is_some());
        assert_eq!(r.netlist.outputs().len(), 1);
        // The text round-trips through the parser.
        let text = crate::text::to_text(&r.netlist);
        let back = crate::text::parse(&text).unwrap();
        assert_eq!(back.len(), r.netlist.len());
    }

    #[test]
    fn bundle_roundtrip_and_validation() {
        let src = "netlist t\ninput a w4\ninput b w4\nnode s w4 = add a b\nnode g bool = cmp.eq s a\noutput g out\n";
        let n = crate::text::parse(src).unwrap();
        let g = n.find("g").unwrap();
        let r = simplify(&n, &[g]);
        let goal_new = r.map.get(g).unwrap();
        let text = bundle_to_text("g", goal_new, &r);
        let bundle = bundle_parse(&text).unwrap();
        assert_eq!(bundle.goal, Some(("g".to_string(), goal_new)));
        let validated = bundle_validate(&n, &bundle).unwrap();
        assert_eq!(
            crate::text::to_text(&validated.netlist),
            bundle.netlist_text
        );
        // Tampering with the published netlist text is caught.
        let tampered = text.replace("cmp.eq", "cmp.ne");
        if let Ok(b) = bundle_parse(&tampered) {
            assert!(bundle_validate(&n, &b).is_err());
        }
        // Tampering with the map is caught.
        let tampered = text.replacen("map 0 0", "map 0 1", 1);
        if let Ok(b) = bundle_parse(&tampered) {
            assert!(bundle_validate(&n, &b).is_err());
        }
    }

    #[test]
    fn scorr_lite_merges_equal_latches() {
        // Two counters with identical init and next logic, plus one
        // that differs: the twins merge, the third survives.
        let mut f = Netlist::new("cnt");
        let c1 = f.input_word("c1", 4).unwrap();
        let c2 = f.input_word("c2", 4).unwrap();
        let c3 = f.input_word("c3", 4).unwrap();
        let one = f.const_word(1, 4).unwrap();
        let two = f.const_word(2, 4).unwrap();
        let n1 = f.add(c1, one).unwrap();
        let n2 = f.add(c2, one).unwrap();
        let n3 = f.add(c3, two).unwrap();
        let eq12 = f.cmp(CmpOp::Ne, c1, c2).unwrap();
        let mut ckt = SeqCircuit::new(f);
        ckt.add_register(c1, n1, 0).unwrap();
        ckt.add_register(c2, n2, 0).unwrap();
        ckt.add_register(c3, n3, 0).unwrap();
        ckt.add_property("diverge", eq12).unwrap();
        let (reduced, map, merged) = scorr_lite(&ckt);
        assert_eq!(merged, 1);
        assert_eq!(reduced.registers().len(), 2);
        // c1 and c2 now share an image; the property over them is the
        // constant false after folding.
        assert_eq!(map.get(c1), map.get(c2));
        let bad = reduced.property("diverge").unwrap();
        assert!(matches!(reduced.frame().op(bad), Op::Const(0)));
        // Differential simulation: traces agree on every frame.
        let steps = vec![HashMap::new(); 8];
        let orig = ckt.simulate(&steps).unwrap();
        let red = reduced.simulate(&steps).unwrap();
        for t in 0..8 {
            assert_eq!(
                orig[t][ckt.property("diverge").unwrap()],
                red[t][bad],
                "frame {t}"
            );
        }
    }

    #[test]
    fn scorr_lite_distinguishes_differing_init() {
        let mut f = Netlist::new("cnt");
        let c1 = f.input_word("c1", 4).unwrap();
        let c2 = f.input_word("c2", 4).unwrap();
        let one = f.const_word(1, 4).unwrap();
        let n1 = f.add(c1, one).unwrap();
        let n2 = f.add(c2, one).unwrap();
        let ne = f.cmp(CmpOp::Ne, c1, c2).unwrap();
        let mut ckt = SeqCircuit::new(f);
        ckt.add_register(c1, n1, 0).unwrap();
        ckt.add_register(c2, n2, 3).unwrap();
        ckt.add_property("p", ne).unwrap();
        let (reduced, _, merged) = scorr_lite(&ckt);
        assert_eq!(merged, 0);
        assert_eq!(reduced.registers().len(), 2);
    }

    #[test]
    fn scorr_lite_refinement_splits_congruence_breakers() {
        // r1/r2 share init and their nexts look congruent only until
        // the hypothesis is refined: r2's next depends on r3 which
        // differs from r1's dependency.
        let mut f = Netlist::new("t");
        let r1 = f.input_word("r1", 4).unwrap();
        let r2 = f.input_word("r2", 4).unwrap();
        let r3 = f.input_word("r3", 4).unwrap();
        let one = f.const_word(1, 4).unwrap();
        let n3 = f.add(r3, one).unwrap(); // r3 counts
        let n1 = f.add(r1, one).unwrap(); // r1 counts
        let n2 = f.add(r2, r3).unwrap(); // r2 += r3 (differs once r3 ≠ 1)
        let p = f.cmp(CmpOp::Ne, r1, r2).unwrap();
        let mut ckt = SeqCircuit::new(f);
        ckt.add_register(r1, n1, 0).unwrap();
        ckt.add_register(r2, n2, 0).unwrap();
        ckt.add_register(r3, n3, 1).unwrap();
        ckt.add_property("p", p).unwrap();
        let (reduced, _, merged) = scorr_lite(&ckt);
        assert_eq!(merged, 0, "refinement must split the false merge");
        assert_eq!(reduced.registers().len(), 3);
        let steps = vec![HashMap::new(); 6];
        let orig = ckt.simulate(&steps).unwrap();
        let red = reduced.simulate(&steps).unwrap();
        let rp = reduced.property("p").unwrap();
        for t in 0..6 {
            assert_eq!(orig[t][p], red[t][rp], "frame {t}");
        }
    }

    impl Netlist {
        /// Test helper: Boolean equivalence via `cmp.eq` on `b2w`.
        fn cmp_bool_eq(&mut self, a: SignalId, b: SignalId) -> SignalId {
            let wa = self.bool_to_word(a).unwrap();
            let wb = self.bool_to_word(b).unwrap();
            self.cmp(CmpOp::Eq, wa, wb).unwrap()
        }
    }
}
