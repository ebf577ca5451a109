//! Independent lowering of a netlist into domains + constraints.
//!
//! This mirrors the solver's variable layout — one variable per signal
//! in id order, then auxiliary quotient/remainder words in operator
//! order — so proof literals (which speak about solver variables) mean
//! the same thing here. The *code* is independent: it is written
//! against the netlist semantics (`Σ terms + k = q·2^w + out` for the
//! modular operators, per the paper's §2.1), not against the solver.
//! A disagreement between the two lowerings shows up as a rejected
//! proof, never as a wrongly accepted one being hidden.

use rtl_interval::{Interval, Tribool};
use rtl_ir::{CmpOp, Netlist, Op, SignalType};

/// A variable domain: Boolean tristate or word interval.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum VDom {
    B(Tribool),
    W(Interval),
}

impl VDom {
    pub fn tri(self) -> Tribool {
        match self {
            VDom::B(t) => t,
            VDom::W(_) => panic!("word domain where Boolean expected"),
        }
    }

    pub fn iv(self) -> Interval {
        match self {
            VDom::W(iv) => iv,
            VDom::B(_) => panic!("Boolean domain where word expected"),
        }
    }

    pub fn as_interval(self) -> Interval {
        match self {
            VDom::W(iv) => iv,
            VDom::B(t) => t.to_interval(),
        }
    }
}

/// A lowered constraint.
#[derive(Clone, Debug)]
pub(crate) enum PCons {
    Not { out: u32, a: u32 },
    And { out: u32, ins: Vec<u32> },
    Or { out: u32, ins: Vec<u32> },
    Xor { out: u32, a: u32, b: u32 },
    CmpReif { op: CmpOp, out: u32, a: u32, b: u32 },
    Ite { out: u32, sel: u32, t: u32, e: u32 },
    Min { out: u32, a: u32, b: u32 },
    Max { out: u32, a: u32, b: u32 },
    Lin { terms: Vec<(u32, i64)>, constant: i64 },
}

impl PCons {
    /// Calls `f` on each participating variable (with multiplicity), in
    /// place: lowering visits every constraint of every segment.
    pub fn for_each_var(&self, mut f: impl FnMut(u32)) {
        match self {
            PCons::Not { out, a } => [*out, *a].into_iter().for_each(f),
            PCons::And { out, ins } | PCons::Or { out, ins } => {
                f(*out);
                ins.iter().copied().for_each(f);
            }
            PCons::Xor { out, a, b }
            | PCons::CmpReif { out, a, b, .. }
            | PCons::Min { out, a, b }
            | PCons::Max { out, a, b } => [*out, *a, *b].into_iter().for_each(f),
            PCons::Ite { out, sel, t, e } => [*out, *sel, *t, *e].into_iter().for_each(f),
            PCons::Lin { terms, .. } => terms.iter().for_each(|&(v, _)| f(v)),
        }
    }
}

/// The lowered netlist: initial domains, constraints, watch lists.
///
/// A lowering is built *incrementally*, one netlist segment at a time
/// ([`Lowered::extend`]): each segment allocates its signal variables
/// first (in id order), then its auxiliary variables (in node order).
/// A single-segment lowering — the fresh-check layout — therefore maps
/// signal index to variable index identically; a multi-segment lowering
/// (mirroring an incrementally extended solver session) interleaves
/// segments, and `sig_var` records the map.
#[derive(Clone, Debug)]
pub(crate) struct Lowered {
    pub init_dom: Vec<VDom>,
    pub cons: Vec<PCons>,
    /// `var → constraint ids mentioning it`.
    pub watch: Vec<Vec<u32>>,
    /// `signal index → variable id`; identity for a fresh (single
    /// segment) lowering. Its length is the number of netlist signals
    /// consumed so far.
    pub sig_var: Vec<u32>,
}

struct Builder<'a> {
    init_dom: &'a mut Vec<VDom>,
    cons: &'a mut Vec<PCons>,
}

impl Builder<'_> {
    fn aux_word(&mut self, iv: Interval) -> u32 {
        let v = u32::try_from(self.init_dom.len()).expect("variable count fits");
        self.init_dom.push(VDom::W(iv));
        v
    }

    fn push(&mut self, kind: PCons) {
        // Same normalization as the solver: drop zero-coefficient terms
        // and skip empty (trivially true) linear rows, so constraint
        // counts — and more importantly aux variable ids — line up.
        let kind = match kind {
            PCons::Lin { mut terms, constant } => {
                terms.retain(|&(_, c)| c != 0);
                if terms.is_empty() {
                    debug_assert_eq!(constant, 0, "trivially false constraint lowered");
                    return;
                }
                PCons::Lin { terms, constant }
            }
            other => other,
        };
        self.cons.push(kind);
    }

    /// `Σ terms + k = q·2^width + out`; the quotient aux appears only
    /// when the static range of the expression can leave `⟨0, 2^w−1⟩`.
    fn push_modular(
        &mut self,
        out: u32,
        width: u32,
        mut terms: Vec<(u32, i64)>,
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
        self.push(PCons::Lin { terms, constant });
    }
}

fn type_range(n: &Netlist, sig: rtl_ir::SignalId) -> Interval {
    match n.ty(sig) {
        SignalType::Bool => Interval::boolean(),
        SignalType::Word { width } => Interval::of_width(width),
    }
}

impl Lowered {
    /// An empty lowering (no segment consumed yet).
    pub fn empty() -> Self {
        Lowered {
            init_dom: Vec::new(),
            cons: Vec::new(),
            watch: Vec::new(),
            sig_var: Vec::new(),
        }
    }

    /// Consumes the netlist suffix beyond the signals already lowered:
    /// allocates the segment's signal variables first, then its
    /// auxiliary variables in node order — the same allocation rule the
    /// solver's incremental compile follows, so the layouts agree.
    pub fn extend(&mut self, netlist: &Netlist) {
        let from = self.sig_var.len();
        for id in netlist.signal_ids().skip(from) {
            let dom = match (netlist.ty(id), netlist.op(id)) {
                (SignalType::Bool, Op::Const(c)) => VDom::B(Tribool::from(*c == 1)),
                (SignalType::Bool, _) => VDom::B(Tribool::Unknown),
                (SignalType::Word { .. }, Op::Const(c)) => VDom::W(Interval::point(*c)),
                (SignalType::Word { width }, _) => VDom::W(Interval::of_width(width)),
            };
            self.sig_var
                .push(u32::try_from(self.init_dom.len()).expect("variable count fits"));
            self.init_dom.push(dom);
        }

        let cons_start = self.cons.len();
        let sig_var = std::mem::take(&mut self.sig_var);
        let mut b = Builder {
            init_dom: &mut self.init_dom,
            cons: &mut self.cons,
        };
        lower_nodes(&mut b, netlist, from, &sig_var);
        self.sig_var = sig_var;

        self.watch.resize(self.init_dom.len(), Vec::new());
        let watch = &mut self.watch;
        for (ci, c) in self.cons.iter().enumerate().skip(cons_start) {
            let ci = ci as u32;
            c.for_each_var(|var| {
                let list = &mut watch[var as usize];
                if list.last() != Some(&ci) {
                    list.push(ci);
                }
            });
        }
    }
}

/// Lowers each node of `netlist.signal_ids().skip(from)` into
/// constraints over `sig_var`-mapped variables (auxiliaries allocated
/// on the fly).
fn lower_nodes(b: &mut Builder<'_>, netlist: &Netlist, from: usize, sig_var: &[u32]) {
    for id in netlist.signal_ids().skip(from) {
        let out = sig_var[id.index()];
        let v = |s: &rtl_ir::SignalId| sig_var[s.index()];
        let w_out = netlist.ty(id).width();
        match netlist.op(id) {
            Op::Input | Op::Const(_) => {}
            Op::Not(a) => b.push(PCons::Not { out, a: v(a) }),
            Op::And(ins) => b.push(PCons::And {
                out,
                ins: ins.iter().map(v).collect(),
            }),
            Op::Or(ins) => b.push(PCons::Or {
                out,
                ins: ins.iter().map(v).collect(),
            }),
            Op::Xor(x, y) => b.push(PCons::Xor {
                out,
                a: v(x),
                b: v(y),
            }),
            Op::Add(x, y) => {
                let range = type_range(netlist, *x).add(type_range(netlist, *y));
                b.push_modular(out, w_out, vec![(v(x), 1), (v(y), 1)], 0, range);
            }
            Op::Sub(x, y) => {
                let range = type_range(netlist, *x).sub(type_range(netlist, *y));
                b.push_modular(out, w_out, vec![(v(x), 1), (v(y), -1)], 0, range);
            }
            Op::MulConst(x, k) => {
                let range = type_range(netlist, *x).mul_const(*k);
                b.push_modular(out, w_out, vec![(v(x), *k)], 0, range);
            }
            Op::Shl(x, k) => {
                let f = 1i64 << (*k).min(62);
                let range = type_range(netlist, *x).mul_const(f);
                b.push_modular(out, w_out, vec![(v(x), f)], 0, range);
            }
            Op::Shr(x, k) => {
                // x = out·2^k + r, r ∈ ⟨0, 2^k − 1⟩
                let f = 1i64 << (*k).min(62);
                let r = b.aux_word(Interval::new(0, f - 1));
                b.push(PCons::Lin {
                    terms: vec![(v(x), 1), (out, -f), (r, -1)],
                    constant: 0,
                });
            }
            Op::Extract { src, hi, lo } => {
                // src = q·2^(hi+1) + out·2^lo + r
                let w_src = netlist.ty(*src).width();
                let upper = 1i64 << (hi + 1).min(62);
                let low = 1i64 << (*lo).min(62);
                let mut terms = vec![(v(src), 1), (out, -low)];
                if hi + 1 < w_src {
                    let q = b.aux_word(Interval::new(0, (1i64 << (w_src - hi - 1)) - 1));
                    terms.push((q, -upper));
                }
                if *lo > 0 {
                    let r = b.aux_word(Interval::new(0, low - 1));
                    terms.push((r, -1));
                }
                b.push(PCons::Lin { terms, constant: 0 });
            }
            Op::Concat(hi, lo) => {
                let wl = netlist.ty(*lo).width();
                b.push(PCons::Lin {
                    terms: vec![(v(hi), 1i64 << wl), (v(lo), 1), (out, -1)],
                    constant: 0,
                });
            }
            Op::ZeroExt(a) | Op::BoolToWord(a) => {
                b.push(PCons::Lin {
                    terms: vec![(v(a), 1), (out, -1)],
                    constant: 0,
                });
            }
            Op::SignExt(a) => {
                // a = q·2^(w_in − 1) + r;  out = a + q·(2^w_out − 2^w_in)
                let w_in = netlist.ty(*a).width();
                let half = 1i64 << (w_in - 1);
                let q = b.aux_word(Interval::new(0, 1));
                let r = b.aux_word(Interval::new(0, half - 1));
                b.push(PCons::Lin {
                    terms: vec![(v(a), 1), (q, -half), (r, -1)],
                    constant: 0,
                });
                let offset = (1i64 << w_out) - (1i64 << w_in);
                b.push(PCons::Lin {
                    terms: vec![(v(a), 1), (q, offset), (out, -1)],
                    constant: 0,
                });
            }
            Op::Ite { sel, t, e } => b.push(PCons::Ite {
                out,
                sel: v(sel),
                t: v(t),
                e: v(e),
            }),
            Op::Min(x, y) => b.push(PCons::Min {
                out,
                a: v(x),
                b: v(y),
            }),
            Op::Max(x, y) => b.push(PCons::Max {
                out,
                a: v(x),
                b: v(y),
            }),
            Op::Cmp { op, a, b: rhs } => b.push(PCons::CmpReif {
                op: *op,
                out,
                a: v(a),
                b: v(rhs),
            }),
        }
    }
}

/// Lowers `netlist` into domains and constraints (fresh, single
/// segment: signal index = variable index).
pub(crate) fn lower(netlist: &Netlist) -> Lowered {
    let mut l = Lowered::empty();
    l.extend(netlist);
    l
}
