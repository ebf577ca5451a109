//! Structural analyses over netlists.
//!
//! These are the circuit-structure primitives the paper's algorithms consume:
//!
//! * [`levels`] — level-ordering by distance from the primary inputs
//!   (predicate learning probes candidates "starting with the gate with the
//!   lowest level", §3 step 2);
//! * [`fanout_counts`] — the decision heuristic of HDPLL seeds variable
//!   scores with original fanout (§2.4);
//! * [`cone_of_influence`] — fan-in reachability, used both for predicate
//!   extraction and by the BMC unroller;
//! * [`predicate_roots`] / [`predicate_logic`] — "All Boolean inputs to
//!   arithmetic operators, such as control signals to multiplexers, are
//!   classified as predicates" (§3 step 1), and the Boolean logic cone
//!   feeding them;
//! * [`OpStats`] — arithmetic vs. Boolean operator counts, the figures
//!   reported in columns 3–4 of the paper's Table 2.

use crate::netlist::Netlist;
use crate::op::Op;
use crate::types::SignalId;

/// Per-signal level: 0 for inputs and constants, otherwise
/// `1 + max(level of operands)`. Indexed by dense signal index.
#[must_use]
pub fn levels(netlist: &Netlist) -> Vec<u32> {
    let mut levels = Vec::with_capacity(netlist.len());
    extend_levels(netlist, &mut levels);
    levels
}

/// Extends `levels`, the [`levels`] of a prefix of `netlist`, to all of
/// `netlist`. A signal's level depends on its operands alone, so as a
/// netlist grows append-only only the new signals are visited.
pub fn extend_levels(netlist: &Netlist, levels: &mut Vec<u32>) {
    for id in netlist.signal_ids().skip(levels.len()) {
        let lvl = netlist
            .op(id)
            .operands()
            .map(|o| levels[o.index()] + 1)
            .max()
            .unwrap_or(0);
        levels.push(lvl);
    }
}

/// Per-signal fanout count (number of operator references to the signal;
/// designated outputs count once more). Indexed by dense signal index.
#[must_use]
pub fn fanout_counts(netlist: &Netlist) -> Vec<u32> {
    let mut fanout = vec![0u32; netlist.len()];
    for id in netlist.signal_ids() {
        for o in netlist.op(id).operands() {
            fanout[o.index()] += 1;
        }
    }
    for (id, _) in netlist.outputs() {
        fanout[id.index()] += 1;
    }
    fanout
}

/// Fan-in reachability from `roots`: `result[i]` is `true` iff signal `i`
/// is in the cone of influence of (i.e. can affect) some root.
#[must_use]
pub fn cone_of_influence(netlist: &Netlist, roots: &[SignalId]) -> Vec<bool> {
    let mut in_cone = vec![false; netlist.len()];
    let mut stack: Vec<SignalId> = roots.to_vec();
    while let Some(id) = stack.pop() {
        if in_cone[id.index()] {
            continue;
        }
        in_cone[id.index()] = true;
        stack.extend(netlist.op(id).operands());
    }
    in_cone
}

/// The *predicate* signals of the netlist: Boolean signals that directly
/// interact with the data-path — multiplexer selects, `BoolToWord` bridge
/// operands, and comparator (predicate constant) outputs.
#[must_use]
pub fn predicate_roots(netlist: &Netlist) -> Vec<SignalId> {
    let mut roots = Vec::new();
    let mut seen = vec![false; netlist.len()];
    let push = |roots: &mut Vec<SignalId>, seen: &mut Vec<bool>, id: SignalId| {
        if !seen[id.index()] {
            seen[id.index()] = true;
            roots.push(id);
        }
    };
    for id in netlist.signal_ids() {
        match netlist.op(id) {
            Op::Ite { sel, .. } => push(&mut roots, &mut seen, *sel),
            Op::BoolToWord(b) => push(&mut roots, &mut seen, *b),
            Op::Cmp { .. } => push(&mut roots, &mut seen, id),
            _ => {}
        }
    }
    roots
}

/// The *predicate logic* of the netlist (§3 step 1): every Boolean-typed
/// signal in the cone of influence of a predicate root, in level order
/// (lowest level first), which is the probe order of static learning.
#[must_use]
pub fn predicate_logic(netlist: &Netlist) -> Vec<SignalId> {
    let roots = predicate_roots(netlist);
    let cone = cone_of_influence(netlist, &roots);
    let lvls = levels(netlist);
    let mut sigs: Vec<SignalId> = netlist
        .signal_ids()
        .filter(|id| cone[id.index()] && netlist.ty(*id).is_bool())
        .filter(|id| !matches!(netlist.op(*id), Op::Const(_)))
        .collect();
    sigs.sort_by_key(|id| (lvls[id.index()], id.index()));
    sigs
}

/// Operator-census of a netlist, as reported in the paper's Table 2.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpStats {
    /// Word-level (arithmetic, mux, predicate, bridge) operators.
    pub arith_ops: usize,
    /// Boolean gate operators.
    pub bool_ops: usize,
    /// Primary inputs.
    pub inputs: usize,
    /// Constants.
    pub consts: usize,
}

impl OpStats {
    /// Total number of signals counted.
    #[must_use]
    pub fn total(&self) -> usize {
        self.arith_ops + self.bool_ops + self.inputs + self.consts
    }
}

/// Counts the operators of a netlist by class.
#[must_use]
pub fn stats(netlist: &Netlist) -> OpStats {
    let mut s = OpStats::default();
    for id in netlist.signal_ids() {
        let op = netlist.op(id);
        if matches!(op, Op::Input) {
            s.inputs += 1;
        } else if matches!(op, Op::Const(_)) {
            s.consts += 1;
        } else if op.is_bool_gate() {
            s.bool_ops += 1;
        } else {
            debug_assert!(op.is_arith());
            s.arith_ops += 1;
        }
    }
    s
}

#[cfg(test)]
mod unit {
    use super::*;
    use crate::CmpOp;

    fn sample() -> (Netlist, [SignalId; 6]) {
        let mut n = Netlist::new("t");
        let a = n.input_word("a", 8).unwrap();
        let b = n.input_word("b", 8).unwrap();
        let c = n.input_bool("c").unwrap();
        let gt = n.cmp(CmpOp::Gt, a, b).unwrap();
        let sel = n.and(&[gt, c]).unwrap();
        let m = n.ite(sel, a, b).unwrap();
        n.set_output(m, "m").unwrap();
        (n, [a, b, c, gt, sel, m])
    }

    #[test]
    fn level_order() {
        let (n, [a, b, c, gt, sel, m]) = sample();
        let l = levels(&n);
        assert_eq!(l[a.index()], 0);
        assert_eq!(l[b.index()], 0);
        assert_eq!(l[c.index()], 0);
        assert_eq!(l[gt.index()], 1);
        assert_eq!(l[sel.index()], 2);
        assert_eq!(l[m.index()], 3);
    }

    #[test]
    fn fanouts() {
        let (n, [a, b, c, gt, sel, m]) = sample();
        let f = fanout_counts(&n);
        assert_eq!(f[a.index()], 2); // cmp + ite
        assert_eq!(f[b.index()], 2);
        assert_eq!(f[c.index()], 1);
        assert_eq!(f[gt.index()], 1);
        assert_eq!(f[sel.index()], 1);
        assert_eq!(f[m.index()], 1); // output
    }

    #[test]
    fn coi() {
        let (n, [a, b, c, gt, sel, _m]) = sample();
        let cone = cone_of_influence(&n, &[sel]);
        for id in [a, b, c, gt, sel] {
            assert!(cone[id.index()], "{id} should be in cone");
        }
        // the mux itself is not in the fan-in cone of its select
        assert!(!cone[5]);
    }

    #[test]
    fn predicates() {
        let (n, [_, _, c, gt, sel, _]) = sample();
        let roots = predicate_roots(&n);
        // the mux select and the comparator output
        assert!(roots.contains(&sel));
        assert!(roots.contains(&gt));
        let logic = predicate_logic(&n);
        // all Boolean logic feeding predicates, level-ordered
        assert_eq!(logic, vec![c, gt, sel]);
    }

    #[test]
    fn op_census() {
        let (n, _) = sample();
        let s = stats(&n);
        assert_eq!(s.inputs, 3);
        assert_eq!(s.bool_ops, 1); // and
        assert_eq!(s.arith_ops, 2); // cmp + ite
        assert_eq!(s.total(), n.len());
    }
}
