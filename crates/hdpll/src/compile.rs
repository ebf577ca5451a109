//! Compilation of a netlist into the hybrid constraint store.
//!
//! Every netlist operator becomes one (or a few) constraints over solver
//! variables. Linear data-path operators — including the modular ones —
//! compile to a single universal form `Σ cᵢ·vᵢ + k = 0` ([`CKind::Lin`]);
//! wrap-around and bit-slicing introduce *auxiliary* word variables
//! (quotients/remainders), following the paper's §2.1 ("non-linear
//! operations … are modeled as arithmetic constraints by adding auxiliary
//! variables").

use rtl_interval::{Interval, Tribool};
use rtl_ir::{CmpOp, Netlist, Op, SignalType};

use crate::types::{Dom, Span, VarId};

/// A compiled constraint kind.
#[derive(Clone, Debug)]
pub(crate) enum CKind {
    /// `out = ¬a` (Boolean).
    Not { out: VarId, a: VarId },
    /// `out = ∧ ins` (Boolean).
    And { out: VarId, ins: Vec<VarId> },
    /// `out = ∨ ins` (Boolean).
    Or { out: VarId, ins: Vec<VarId> },
    /// `out = a ⊕ b` (Boolean).
    Xor { out: VarId, a: VarId, b: VarId },
    /// Reified predicate `out ⇔ (a op b)`.
    CmpReif {
        op: CmpOp,
        out: VarId,
        a: VarId,
        b: VarId,
    },
    /// Word multiplexer `out = sel ? t : e`.
    Ite {
        out: VarId,
        sel: VarId,
        t: VarId,
        e: VarId,
    },
    /// `out = min(a, b)`.
    Min { out: VarId, a: VarId, b: VarId },
    /// `out = max(a, b)`.
    Max { out: VarId, a: VarId, b: VarId },
    /// Universal linear equality `Σ cᵢ·vᵢ + k = 0`. Boolean variables
    /// participate with their `{0,1}` interval image.
    Lin {
        terms: Vec<(VarId, i64)>,
        constant: i64,
    },
}

/// A compiled constraint: its kind plus a span into [`Compiled::var_pool`]
/// listing the participating variables (for watch lists and
/// implication-graph antecedents).
#[derive(Clone, Debug)]
pub(crate) struct Constraint {
    pub kind: CKind,
    pub vars: Span,
}

/// The full compiled form of a netlist.
///
/// A compilation is built *incrementally*, one netlist segment at a
/// time ([`Compiled::extend`]): each segment allocates its signal
/// variables first (in id order), then its auxiliary variables (in
/// node order). A single-segment compile therefore maps signal index
/// to variable index identically; after extension the segments
/// interleave and [`Compiled::var_of`] records the map. The proof
/// checker's mirror lowering follows the same allocation rule, so the
/// two layouts stay aligned across extensions.
#[derive(Clone, Debug)]
pub(crate) struct Compiled {
    /// Initial (type) domain of every variable, auxiliaries included.
    pub init_dom: Vec<Dom>,
    /// All constraints.
    pub cons: Vec<Constraint>,
    /// Interned var-lists of all constraints ([`Constraint::vars`] spans
    /// point here). One flat allocation instead of one `Vec` per
    /// constraint, so the engine's conflict/narrowing paths can borrow
    /// `&[VarId]` slices without cloning.
    pub var_pool: Vec<VarId>,
    /// `var → constraint ids watching it`.
    pub watch: Vec<Vec<u32>>,
    /// Boolean decision variables (netlist Boolean signals that are free to
    /// decide on, i.e. not constants).
    pub decision_vars: Vec<VarId>,
    /// Activity seed per variable (netlist fanout; 0 for auxiliaries).
    pub fanout_seed: Vec<f64>,
    /// `signal index → variable id`; identity for a single-segment
    /// compile. Its length is the number of netlist signals consumed.
    pub sig_var: Vec<VarId>,
    /// Number of netlist outputs consumed (their fanout is seeded).
    outputs_consumed: usize,
}

impl Compiled {
    /// The participating variables of constraint `ci`.
    pub fn cons_vars(&self, ci: u32) -> &[VarId] {
        &self.var_pool[self.cons[ci as usize].vars.range()]
    }

    /// The solver variable of a netlist signal.
    pub fn var_of(&self, sig: rtl_ir::SignalId) -> VarId {
        self.sig_var[sig.index()]
    }

    /// Number of netlist signals consumed so far.
    pub fn signals_consumed(&self) -> usize {
        self.sig_var.len()
    }
}

struct Builder<'a> {
    init_dom: &'a mut Vec<Dom>,
    cons: &'a mut Vec<Constraint>,
    var_pool: &'a mut Vec<VarId>,
}

impl Builder<'_> {
    fn aux_word(&mut self, iv: Interval) -> VarId {
        let v = VarId(u32::try_from(self.init_dom.len()).expect("variable count fits"));
        self.init_dom.push(Dom::W(iv));
        v
    }

    fn push(&mut self, kind: CKind) {
        // Normalize linear constraints: drop zero-coefficient terms (e.g.
        // from multiplication by 0) and skip trivially-true constraints.
        let kind = match kind {
            CKind::Lin { mut terms, constant } => {
                terms.retain(|&(_, c)| c != 0);
                if terms.is_empty() {
                    debug_assert_eq!(constant, 0, "trivially false constraint compiled");
                    return;
                }
                CKind::Lin { terms, constant }
            }
            other => other,
        };
        let start = self.var_pool.len();
        push_kind_vars(&kind, self.var_pool);
        let vars = Span {
            start: u32::try_from(start).expect("var pool fits"),
            len: (self.var_pool.len() - start) as u32,
        };
        self.cons.push(Constraint { kind, vars });
    }

    /// Adds `Σ terms + k = q·2^width + out`, introducing the quotient
    /// auxiliary only when the expression can actually leave the output
    /// domain. `range` is the static range of `Σ terms + k`.
    fn push_modular(
        &mut self,
        out: VarId,
        width: u32,
        mut terms: Vec<(VarId, i64)>,
        constant: i64,
        range: Interval,
    ) {
        let modulus = 1i64 << width;
        let q_lo = range.lo().div_euclid(modulus);
        let q_hi = range.hi().div_euclid(modulus);
        terms.push((out, -1));
        if q_lo != 0 || q_hi != 0 {
            let q = self.aux_word(Interval::new(q_lo, q_hi));
            terms.push((q, -modulus));
        }
        self.push(CKind::Lin { terms, constant });
    }
}

/// Appends the participating variables of `kind` to the interned pool.
fn push_kind_vars(kind: &CKind, pool: &mut Vec<VarId>) {
    match kind {
        CKind::Not { out, a } => pool.extend([*out, *a]),
        CKind::And { out, ins } | CKind::Or { out, ins } => {
            pool.push(*out);
            pool.extend_from_slice(ins);
        }
        CKind::Xor { out, a, b }
        | CKind::CmpReif { out, a, b, .. }
        | CKind::Min { out, a, b }
        | CKind::Max { out, a, b } => pool.extend([*out, *a, *b]),
        CKind::Ite { out, sel, t, e } => pool.extend([*out, *sel, *t, *e]),
        CKind::Lin { terms, .. } => pool.extend(terms.iter().map(|&(v, _)| v)),
    }
}

/// Static type-domain of a signal's variable.
fn type_range(n: &Netlist, sig: rtl_ir::SignalId) -> Interval {
    match n.ty(sig) {
        SignalType::Bool => Interval::boolean(),
        SignalType::Word { width } => Interval::of_width(width),
    }
}

impl Compiled {
    /// An empty compilation (no segment consumed yet).
    pub fn empty() -> Self {
        Compiled {
            init_dom: Vec::new(),
            cons: Vec::new(),
            var_pool: Vec::new(),
            watch: Vec::new(),
            decision_vars: Vec::new(),
            fanout_seed: Vec::new(),
            sig_var: Vec::new(),
            outputs_consumed: 0,
        }
    }

    /// Consumes the netlist suffix beyond the signals already compiled:
    /// the segment's signal variables first, then its auxiliaries in
    /// node order. Existing variables, constraints and watch lists are
    /// untouched (append-only), so an engine built on this store keeps
    /// its state and only needs to grow its parallel vectors.
    pub fn extend(&mut self, netlist: &Netlist) {
        let from = self.sig_var.len();
        for id in netlist.signal_ids().skip(from) {
            let dom = match (netlist.ty(id), netlist.op(id)) {
                (SignalType::Bool, Op::Const(c)) => Dom::B(Tribool::from(*c == 1)),
                (SignalType::Bool, _) => Dom::B(Tribool::Unknown),
                (SignalType::Word { .. }, Op::Const(c)) => Dom::W(Interval::point(*c)),
                (SignalType::Word { width }, _) => Dom::W(Interval::of_width(width)),
            };
            self.sig_var
                .push(VarId(u32::try_from(self.init_dom.len()).expect(
                    "variable count fits",
                )));
            self.init_dom.push(dom);
        }

        let cons_start = self.cons.len();
        let sig_var = std::mem::take(&mut self.sig_var);
        let mut b = Builder {
            init_dom: &mut self.init_dom,
            cons: &mut self.cons,
            var_pool: &mut self.var_pool,
        };
        compile_nodes(&mut b, netlist, from, &sig_var);
        self.sig_var = sig_var;

        // Watch lists: grow to the new variable count, hook the new
        // constraints (which may watch old variables too).
        self.watch.resize(self.init_dom.len(), Vec::new());
        for ci in cons_start..self.cons.len() {
            let (start, len) = {
                let span = self.cons[ci].vars;
                (span.start as usize, span.len as usize)
            };
            for i in start..start + len {
                let var = self.var_pool[i];
                let list = &mut self.watch[var.index()];
                if list.last() != Some(&(ci as u32)) {
                    list.push(ci as u32);
                }
            }
        }

        // Decision variables: the segment's free Boolean signals.
        for id in netlist.signal_ids().skip(from) {
            if netlist.ty(id).is_bool() && !matches!(netlist.op(id), Op::Const(_)) {
                self.decision_vars.push(self.sig_var[id.index()]);
            }
        }

        // Fanout-seeded activities (paper §2.4) for the new variables:
        // the [`rtl_ir::analysis::fanout_counts`] of the extended
        // netlist, counted over the segment alone. Earlier signals
        // cannot reference later ones, and an output naming a segment
        // signal was declared after the last extension, so the
        // segment's operand references and the new outputs are all
        // that land on it. Already-seeded variables keep their original
        // seed (the engine owns live activity by now).
        let mut fanouts = vec![0u32; netlist.len() - from];
        let mut count = |sig: rtl_ir::SignalId| {
            if let Some(i) = sig.index().checked_sub(from) {
                fanouts[i] += 1;
            }
        };
        for id in netlist.signal_ids().skip(from) {
            netlist.op(id).operands().for_each(&mut count);
        }
        for &(id, _) in &netlist.outputs()[self.outputs_consumed..] {
            count(id);
        }
        self.outputs_consumed = netlist.outputs().len();
        self.fanout_seed.resize(self.init_dom.len(), 0.0);
        for (i, &f) in fanouts.iter().enumerate() {
            self.fanout_seed[self.sig_var[from + i].index()] = f64::from(f);
        }
    }
}

/// Compiles each node of `netlist.signal_ids().skip(from)` into
/// constraints over `sig_var`-mapped variables (auxiliaries allocated
/// on the fly).
fn compile_nodes(b: &mut Builder<'_>, netlist: &Netlist, from: usize, sig_var: &[VarId]) {
    for id in netlist.signal_ids().skip(from) {
        let out = sig_var[id.index()];
        let v = |s: rtl_ir::SignalId| sig_var[s.index()];
        let w_out = netlist.ty(id).width();
        match netlist.op(id) {
            Op::Input | Op::Const(_) => {}
            Op::Not(a) => b.push(CKind::Not { out, a: v(*a) }),
            Op::And(ins) => b.push(CKind::And {
                out,
                ins: ins.iter().copied().map(v).collect(),
            }),
            Op::Or(ins) => b.push(CKind::Or {
                out,
                ins: ins.iter().copied().map(v).collect(),
            }),
            Op::Xor(x, y) => b.push(CKind::Xor {
                out,
                a: v(*x),
                b: v(*y),
            }),
            Op::Add(x, y) => {
                let range = type_range(netlist, *x).add(type_range(netlist, *y));
                b.push_modular(out, w_out, vec![(v(*x), 1), (v(*y), 1)], 0, range);
            }
            Op::Sub(x, y) => {
                let range = type_range(netlist, *x).sub(type_range(netlist, *y));
                b.push_modular(out, w_out, vec![(v(*x), 1), (v(*y), -1)], 0, range);
            }
            Op::MulConst(x, k) => {
                let range = type_range(netlist, *x).mul_const(*k);
                b.push_modular(out, w_out, vec![(v(*x), *k)], 0, range);
            }
            Op::Shl(x, k) => {
                let f = 1i64 << (*k).min(62);
                let range = type_range(netlist, *x).mul_const(f);
                b.push_modular(out, w_out, vec![(v(*x), f)], 0, range);
            }
            Op::Shr(x, k) => {
                // x = out·2^k + r, r ∈ ⟨0, 2^k − 1⟩
                let f = 1i64 << (*k).min(62);
                let r = b.aux_word(Interval::new(0, f - 1));
                b.push(CKind::Lin {
                    terms: vec![(v(*x), 1), (out, -f), (r, -1)],
                    constant: 0,
                });
            }
            Op::Extract { src, hi, lo } => {
                // src = q·2^(hi+1) + out·2^lo + r
                let w_src = netlist.ty(*src).width();
                let upper = 1i64 << (hi + 1).min(62);
                let low = 1i64 << (*lo).min(62);
                let mut terms = vec![(v(*src), 1), (out, -low)];
                if hi + 1 < w_src {
                    let q = b.aux_word(Interval::new(0, (1i64 << (w_src - hi - 1)) - 1));
                    terms.push((q, -upper));
                }
                if *lo > 0 {
                    let r = b.aux_word(Interval::new(0, low - 1));
                    terms.push((r, -1));
                }
                b.push(CKind::Lin { terms, constant: 0 });
            }
            Op::Concat(hi, lo) => {
                let wl = netlist.ty(*lo).width();
                b.push(CKind::Lin {
                    terms: vec![(v(*hi), 1i64 << wl), (v(*lo), 1), (out, -1)],
                    constant: 0,
                });
            }
            Op::ZeroExt(a) | Op::BoolToWord(a) => {
                b.push(CKind::Lin {
                    terms: vec![(v(*a), 1), (out, -1)],
                    constant: 0,
                });
            }
            Op::SignExt(a) => {
                // a = q·2^(w_in − 1) + r;  out = a + q·(2^w_out − 2^w_in)
                let w_in = netlist.ty(*a).width();
                let half = 1i64 << (w_in - 1);
                let q = b.aux_word(Interval::new(0, 1));
                let r = b.aux_word(Interval::new(0, half - 1));
                b.push(CKind::Lin {
                    terms: vec![(v(*a), 1), (q, -half), (r, -1)],
                    constant: 0,
                });
                let offset = (1i64 << w_out) - (1i64 << w_in);
                b.push(CKind::Lin {
                    terms: vec![(v(*a), 1), (q, offset), (out, -1)],
                    constant: 0,
                });
            }
            Op::Ite { sel, t, e } => b.push(CKind::Ite {
                out,
                sel: v(*sel),
                t: v(*t),
                e: v(*e),
            }),
            Op::Min(x, y) => b.push(CKind::Min {
                out,
                a: v(*x),
                b: v(*y),
            }),
            Op::Max(x, y) => b.push(CKind::Max {
                out,
                a: v(*x),
                b: v(*y),
            }),
            Op::Cmp { op, a, b: rhs } => b.push(CKind::CmpReif {
                op: *op,
                out,
                a: v(*a),
                b: v(*rhs),
            }),
        }
    }
}

/// Compiles `netlist` into the constraint store (fresh, single
/// segment: signal index = variable index).
pub(crate) fn compile(netlist: &Netlist) -> Compiled {
    let mut c = Compiled::empty();
    c.extend(netlist);
    c
}
