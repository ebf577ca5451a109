//! Constraint contractors: one bounds-consistency propagation step per
//! compiled constraint (the body of the paper's `Ddeduce()`).

use rtl_interval::{contract, Interval, Tribool};

use crate::compile::CKind;
use crate::types::{Dom, VarId};

/// Outcome of propagating one constraint against the current domains.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum PropResult {
    /// Domain changes were appended to the caller's change buffer
    /// (already intersected; strictly smaller than the current domains).
    /// An untouched buffer = the constraint is (currently) at fixpoint.
    Narrowed,
    /// The constraint is unsatisfiable under the current domains.
    Conflict,
}

fn sat_i64(v: i128) -> i64 {
    v.clamp(i64::MIN as i128, i64::MAX as i128) as i64
}

/// `⌊a / b⌋` for a coefficient `b ≠ 0` of an `i64` linear term. The
/// linear coefficients the compiler emits for modular wrap, extract,
/// concat and shifts are all `±2^k`, which take an exact arithmetic
/// shift instead of a 128-bit division.
fn div_floor(a: i128, b: i128) -> i128 {
    match pow2_shift(b) {
        Some(k) if b > 0 => a >> k,
        Some(k) => -ceil_shift(a, k),
        None => div_floor_i128(a, b),
    }
}

/// `⌈a / b⌉`; see [`div_floor`].
fn div_ceil(a: i128, b: i128) -> i128 {
    match pow2_shift(b) {
        Some(k) if b > 0 => ceil_shift(a, k),
        Some(k) => -(a >> k),
        None => div_ceil_i128(a, b),
    }
}

/// `k` when `|b| = 2^k` (`b` is an `i64`, so `k ≤ 63`).
fn pow2_shift(b: i128) -> Option<u32> {
    let m = b.unsigned_abs();
    m.is_power_of_two().then(|| m.trailing_zeros())
}

/// `⌈a / 2^k⌉` for `k ≤ 63`: the floor shift, plus one when bits were
/// shifted out.
fn ceil_shift(a: i128, k: u32) -> i128 {
    (a >> k) + i128::from(a & ((1i128 << k) - 1) != 0)
}

fn div_floor_i128(a: i128, b: i128) -> i128 {
    let q = a / b;
    if a % b != 0 && (a < 0) != (b < 0) {
        q - 1
    } else {
        q
    }
}

fn div_ceil_i128(a: i128, b: i128) -> i128 {
    let q = a / b;
    if a % b != 0 && (a < 0) == (b < 0) {
        q + 1
    } else {
        q
    }
}

/// Collects a Boolean change if `want` differs from `cur`; `Err(())` on
/// contradiction.
fn meet_bool(
    changes: &mut Vec<(VarId, Dom)>,
    var: VarId,
    cur: Tribool,
    want: Tribool,
) -> Result<(), ()> {
    match (cur, want) {
        (_, Tribool::Unknown) => Ok(()),
        (Tribool::Unknown, w) => {
            changes.push((var, Dom::B(w)));
            Ok(())
        }
        (c, w) if c == w => Ok(()),
        _ => Err(()),
    }
}

/// Collects a word change to `cur ∩ new`; `Err(())` if the meet is empty.
/// Boolean variables participate through their `{0,1}` interval image.
fn meet_interval(
    changes: &mut Vec<(VarId, Dom)>,
    var: VarId,
    cur: &Dom,
    new: Interval,
) -> Result<(), ()> {
    match cur {
        Dom::W(iv) => {
            let met = iv.intersect(new).ok_or(())?;
            if met != *iv {
                changes.push((var, Dom::W(met)));
            }
            Ok(())
        }
        Dom::B(t) => {
            let met = t.to_interval().intersect(new).ok_or(())?;
            let want = Tribool::from_interval(met.intersect(Interval::boolean()).ok_or(())?);
            meet_bool(changes, var, *t, want)
        }
    }
}

/// One propagation step for `kind` under `doms`.
///
/// Changes are appended to `changes`, a buffer the caller owns and
/// reuses across steps — the hot path never allocates here. On
/// [`PropResult::Conflict`] the buffer may hold partial changes; the
/// caller discards them.
pub(crate) fn step(kind: &CKind, doms: &[Dom], changes: &mut Vec<(VarId, Dom)>) -> PropResult {
    let tri = |v: VarId| doms[v.index()].tri();
    let result = match kind {
        CKind::Not { out, a } => (|| {
            meet_bool(changes, *out, tri(*out), tri(*a).not())?;
            meet_bool(changes, *a, tri(*a), tri(*out).not())
        })(),
        CKind::And { out, ins } => prop_and_or(changes, doms, *out, ins, true),
        CKind::Or { out, ins } => prop_and_or(changes, doms, *out, ins, false),
        CKind::Xor { out, a, b } => (|| {
            meet_bool(changes, *out, tri(*out), tri(*a).xor(tri(*b)))?;
            meet_bool(changes, *a, tri(*a), tri(*out).xor(tri(*b)))?;
            meet_bool(changes, *b, tri(*b), tri(*out).xor(tri(*a)))
        })(),
        CKind::CmpReif { op, out, a, b } => (|| {
            let r = contract::cmp_reified(
                *op,
                tri(*out),
                doms[a.index()].iv(),
                doms[b.index()].iv(),
            )
            .ok_or(())?;
            meet_bool(changes, *out, tri(*out), r.b)?;
            meet_interval(changes, *a, &doms[a.index()], r.x)?;
            meet_interval(changes, *b, &doms[b.index()], r.y)
        })(),
        CKind::Ite { out, sel, t, e } => (|| {
            let r = contract::ite(
                tri(*sel),
                doms[out.index()].iv(),
                doms[t.index()].iv(),
                doms[e.index()].iv(),
            )
            .ok_or(())?;
            meet_bool(changes, *sel, tri(*sel), r.sel)?;
            meet_interval(changes, *out, &doms[out.index()], r.out)?;
            meet_interval(changes, *t, &doms[t.index()], r.t)?;
            meet_interval(changes, *e, &doms[e.index()], r.e)
        })(),
        CKind::Min { out, a, b } => (|| {
            let r = contract::min_op(
                doms[out.index()].iv(),
                doms[a.index()].iv(),
                doms[b.index()].iv(),
            )
            .ok_or(())?;
            meet_interval(changes, *out, &doms[out.index()], r.0)?;
            meet_interval(changes, *a, &doms[a.index()], r.1)?;
            meet_interval(changes, *b, &doms[b.index()], r.2)
        })(),
        CKind::Max { out, a, b } => (|| {
            let r = contract::max_op(
                doms[out.index()].iv(),
                doms[a.index()].iv(),
                doms[b.index()].iv(),
            )
            .ok_or(())?;
            meet_interval(changes, *out, &doms[out.index()], r.0)?;
            meet_interval(changes, *a, &doms[a.index()], r.1)?;
            meet_interval(changes, *b, &doms[b.index()], r.2)
        })(),
        CKind::Lin { terms, constant } => prop_lin(changes, doms, terms, *constant),
    };
    match result {
        Ok(()) => PropResult::Narrowed,
        Err(()) => PropResult::Conflict,
    }
}

fn prop_and_or(
    changes: &mut Vec<(VarId, Dom)>,
    doms: &[Dom],
    out: VarId,
    ins: &[VarId],
    is_and: bool,
) -> Result<(), ()> {
    // Work in AND terms; OR is handled by De Morgan-flipping the values.
    // One pass over the inputs computes everything each case below needs,
    // with no per-call buffers.
    let flip = |t: Tribool| if is_and { t } else { t.not() };
    let out_val = flip(doms[out.index()].tri());

    let mut forward = Tribool::True;
    let mut unknown_count = 0usize;
    let mut last_unknown = 0usize;
    let mut any_false = false;
    for (i, &v) in ins.iter().enumerate() {
        let t = flip(doms[v.index()].tri());
        forward = forward.and(t);
        match t {
            Tribool::Unknown => {
                unknown_count += 1;
                last_unknown = i;
            }
            Tribool::False => any_false = true,
            Tribool::True => {}
        }
    }
    meet_bool(changes, out, flip(out_val), flip(forward))?;

    match out_val {
        Tribool::True => {
            // all inputs must be 1 (AND view)
            for &v in ins {
                let t = flip(doms[v.index()].tri());
                if t == Tribool::Unknown {
                    meet_bool(changes, v, t, flip(Tribool::True))?;
                }
            }
            Ok(())
        }
        Tribool::False => {
            // at least one input 0: implication only when exactly one
            // candidate remains
            if any_false {
                return Ok(());
            }
            match unknown_count {
                0 => Err(()), // all inputs 1 but output 0
                1 => meet_bool(
                    changes,
                    ins[last_unknown],
                    Tribool::Unknown,
                    flip(Tribool::False),
                ),
                _ => Ok(()),
            }
        }
        Tribool::Unknown => Ok(()),
    }
}

fn prop_lin(
    changes: &mut Vec<(VarId, Dom)>,
    doms: &[Dom],
    terms: &[(VarId, i64)],
    constant: i64,
) -> Result<(), ()> {
    // Interval of Σ cᵢ·vᵢ + k. The per-term bounds are cheap (two
    // multiplications), so the backward pass recomputes them instead of
    // staging them in a heap buffer.
    let term_bounds = |v: VarId, c: i64| {
        let iv = doms[v.index()].as_interval();
        let (a, b) = (c as i128 * iv.lo() as i128, c as i128 * iv.hi() as i128);
        (a.min(b), a.max(b))
    };
    let mut total_lo = constant as i128;
    let mut total_hi = constant as i128;
    for &(v, c) in terms {
        let (l, h) = term_bounds(v, c);
        total_lo += l;
        total_hi += h;
    }
    if total_lo > 0 || total_hi < 0 {
        return Err(());
    }
    // For each variable: c·v ∈ [−(total_hi − c·v range), …] — i.e.
    // c·v ∈ −(rest) where rest = total − own term.
    for &(v, c) in terms {
        let (own_lo, own_hi) = term_bounds(v, c);
        let rest_lo = total_lo - own_lo;
        let rest_hi = total_hi - own_hi;
        // c·v = −(rest + k') where rest ∈ [rest_lo, rest_hi] (constant is
        // already inside total): c·v ∈ [−rest_hi, −rest_lo]
        let (num_lo, num_hi) = (-rest_hi, -rest_lo);
        let (lo, hi) = if c > 0 {
            (div_ceil(num_lo, c as i128), div_floor(num_hi, c as i128))
        } else {
            (div_ceil(num_hi, c as i128), div_floor(num_lo, c as i128))
        };
        if lo > hi {
            return Err(());
        }
        let new = Interval::new(sat_i64(lo), sat_i64(hi));
        meet_interval(changes, v, &doms[v.index()], new)?;
    }
    Ok(())
}

#[cfg(test)]
mod unit {
    use proptest::prelude::*;

    use super::*;

    fn b(t: Tribool) -> Dom {
        Dom::B(t)
    }
    fn w(lo: i64, hi: i64) -> Dom {
        Dom::W(Interval::new(lo, hi))
    }
    fn v(i: u32) -> VarId {
        VarId(i)
    }

    /// Runs one step with a fresh buffer: `Some(changes)` or `None` on
    /// conflict.
    fn run(kind: &CKind, doms: &[Dom]) -> Option<Vec<(VarId, Dom)>> {
        let mut changes = Vec::new();
        match step(kind, doms, &mut changes) {
            PropResult::Narrowed => Some(changes),
            PropResult::Conflict => None,
        }
    }

    #[test]
    fn and_forward_and_backward() {
        // out = a ∧ b
        let kind = CKind::And {
            out: v(0),
            ins: vec![v(1), v(2)],
        };
        // a=0 ⇒ out=0
        let doms = vec![b(Tribool::Unknown), b(Tribool::False), b(Tribool::Unknown)];
        match run(&kind, &doms) {
            Some(ch) => assert_eq!(ch, vec![(v(0), b(Tribool::False))]),
            None => panic!(),
        }
        // out=1 ⇒ a=b=1
        let doms = vec![b(Tribool::True), b(Tribool::Unknown), b(Tribool::Unknown)];
        match run(&kind, &doms) {
            Some(ch) => {
                assert!(ch.contains(&(v(1), b(Tribool::True))));
                assert!(ch.contains(&(v(2), b(Tribool::True))));
            }
            None => panic!(),
        }
        // out=0, a=1 ⇒ b=0 (last free input)
        let doms = vec![b(Tribool::False), b(Tribool::True), b(Tribool::Unknown)];
        match run(&kind, &doms) {
            Some(ch) => assert_eq!(ch, vec![(v(2), b(Tribool::False))]),
            None => panic!(),
        }
        // out=0 but both inputs 1: conflict
        let doms = vec![b(Tribool::False), b(Tribool::True), b(Tribool::True)];
        assert_eq!(run(&kind, &doms), None);
    }

    #[test]
    fn or_justified_by_single_candidate() {
        let kind = CKind::Or {
            out: v(0),
            ins: vec![v(1), v(2)],
        };
        // out=1, a=0 ⇒ b=1
        let doms = vec![b(Tribool::True), b(Tribool::False), b(Tribool::Unknown)];
        match run(&kind, &doms) {
            Some(ch) => assert_eq!(ch, vec![(v(2), b(Tribool::True))]),
            None => panic!(),
        }
        // out=1 with two candidates: no implication yet (needs a decision)
        let doms = vec![b(Tribool::True), b(Tribool::Unknown), b(Tribool::Unknown)];
        assert_eq!(run(&kind, &doms), Some(vec![]));
    }

    #[test]
    fn lin_three_way_narrowing() {
        // a + b − out = 0 (exact adder), a ∈ ⟨3,9⟩, b ∈ ⟨1,9⟩, out ∈ ⟨0,5⟩
        let kind = CKind::Lin {
            terms: vec![(v(0), 1), (v(1), 1), (v(2), -1)],
            constant: 0,
        };
        let doms = vec![w(3, 9), w(1, 9), w(0, 5)];
        match run(&kind, &doms) {
            Some(ch) => {
                assert!(ch.contains(&(v(0), w(3, 4))));
                assert!(ch.contains(&(v(1), w(1, 2))));
                assert!(ch.contains(&(v(2), w(4, 5))));
            }
            None => panic!(),
        }
    }

    #[test]
    fn lin_conflict() {
        // a − out = 0 with disjoint domains
        let kind = CKind::Lin {
            terms: vec![(v(0), 1), (v(1), -1)],
            constant: 0,
        };
        let doms = vec![w(0, 3), w(5, 9)];
        assert_eq!(run(&kind, &doms), None);
    }

    #[test]
    fn lin_divisibility_tightening() {
        // 3a − out = 0, out ∈ ⟨7, 20⟩ ⇒ a ∈ ⟨3, 6⟩
        let kind = CKind::Lin {
            terms: vec![(v(0), 3), (v(1), -1)],
            constant: 0,
        };
        let doms = vec![w(0, 100), w(7, 20)];
        match run(&kind, &doms) {
            Some(ch) => {
                assert!(ch.contains(&(v(0), w(3, 6))), "{ch:?}");
            }
            None => panic!(),
        }
    }

    /// Values that straddle every shift boundary: small ones, powers of
    /// two and their neighbours, and the extremes a sum of `i64` terms
    /// reaches (about `±2^125`).
    fn edge_values() -> Vec<i128> {
        let mut vals = vec![0, 1, 2, 3, 5, 7, 1000, 12345, i128::from(i64::MAX)];
        for k in [1, 31, 62, 63, 64, 100, 124, 125] {
            vals.extend([(1i128 << k) - 1, 1i128 << k, (1i128 << k) + 1]);
        }
        vals.push(3 << 123);
        let negated: Vec<i128> = vals.iter().map(|v| -v).collect();
        vals.extend(negated);
        vals
    }

    #[test]
    fn shift_division_matches_i128_division() {
        let mut coefficients: Vec<i128> =
            (0..=62).flat_map(|k| [1i128 << k, -(1i128 << k)]).collect();
        coefficients.extend([3, -3, 5, -6, 12, -100, 1 << 40 | 1, i128::from(i64::MIN)]);
        coefficients.push(i128::from(i64::MAX));
        for &b in &coefficients {
            for &a in &edge_values() {
                assert_eq!(div_floor(a, b), div_floor_i128(a, b), "⌊{a} / {b}⌋");
                assert_eq!(div_ceil(a, b), div_ceil_i128(a, b), "⌈{a} / {b}⌉");
            }
        }
    }

    /// [`prop_lin`] as it was with a 128-bit division for every
    /// coefficient: the oracle of `prop_lin_matches_the_division_routine`.
    fn prop_lin_reference(
        changes: &mut Vec<(VarId, Dom)>,
        doms: &[Dom],
        terms: &[(VarId, i64)],
        constant: i64,
    ) -> Result<(), ()> {
        let term_bounds = |v: VarId, c: i64| {
            let iv = doms[v.index()].as_interval();
            let (a, b) = (c as i128 * iv.lo() as i128, c as i128 * iv.hi() as i128);
            (a.min(b), a.max(b))
        };
        let (mut total_lo, mut total_hi) = (constant as i128, constant as i128);
        for &(v, c) in terms {
            let (l, h) = term_bounds(v, c);
            total_lo += l;
            total_hi += h;
        }
        if total_lo > 0 || total_hi < 0 {
            return Err(());
        }
        for &(v, c) in terms {
            let (own_lo, own_hi) = term_bounds(v, c);
            let rest_lo = total_lo - own_lo;
            let rest_hi = total_hi - own_hi;
            let (num_lo, num_hi) = (-rest_hi, -rest_lo);
            let (lo, hi) = if c > 0 {
                (
                    div_ceil_i128(num_lo, c as i128),
                    div_floor_i128(num_hi, c as i128),
                )
            } else {
                (
                    div_ceil_i128(num_hi, c as i128),
                    div_floor_i128(num_lo, c as i128),
                )
            };
            if lo > hi {
                return Err(());
            }
            let new = Interval::new(sat_i64(lo), sat_i64(hi));
            meet_interval(changes, v, &doms[v.index()], new)?;
        }
        Ok(())
    }

    fn coefficient() -> impl Strategy<Value = i64> {
        prop_oneof![
            (0u32..63, any::<bool>()).prop_map(|(k, neg)| {
                let c = 1i64 << k;
                if neg {
                    -c
                } else {
                    c
                }
            }),
            (-40i64..40).prop_map(|c| if c == 0 { 7 } else { c }),
            any::<i64>().prop_map(|c| if c == 0 { 1 } else { c }),
        ]
    }

    fn bound() -> impl Strategy<Value = i64> {
        prop_oneof![
            -300i64..300,
            any::<i64>(),
            (0u32..63).prop_map(|k| 1i64 << k),
            (0u32..63).prop_map(|k| -(1i64 << k)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// The shift paths change no bound: on random terms, coefficients
        /// and domains, [`prop_lin`] narrows (or conflicts) exactly as the
        /// all-division routine does.
        #[test]
        fn prop_lin_matches_the_division_routine(
            terms in proptest::collection::vec((coefficient(), bound(), bound(), 0u8..5), 1..6),
            constant in bound(),
        ) {
            // One term in five is a Boolean (unknown, false or true).
            const TRIS: [Tribool; 3] = [Tribool::Unknown, Tribool::False, Tribool::True];
            let doms: Vec<Dom> = terms
                .iter()
                .map(|&(_, x, y, kind)| match kind {
                    0 => b(TRIS[x.rem_euclid(3) as usize]),
                    _ => w(x.min(y), x.max(y)),
                })
                .collect();
            let lin: Vec<(VarId, i64)> = terms
                .iter()
                .enumerate()
                .map(|(i, t)| (v(i as u32), t.0))
                .collect();
            let (mut got, mut want) = (Vec::new(), Vec::new());
            let got_ok = prop_lin(&mut got, &doms, &lin, constant);
            let want_ok = prop_lin_reference(&mut want, &doms, &lin, constant);
            prop_assert_eq!(got_ok, want_ok);
            if got_ok.is_ok() {
                prop_assert_eq!(got, want);
            }
        }
    }

    #[test]
    fn lin_bridges_bool_vars() {
        // b2w: bool a − out = 0, out ∈ ⟨1,1⟩ ⇒ a = true
        let kind = CKind::Lin {
            terms: vec![(v(0), 1), (v(1), -1)],
            constant: 0,
        };
        let doms = vec![b(Tribool::Unknown), w(1, 1)];
        match run(&kind, &doms) {
            Some(ch) => assert_eq!(ch, vec![(v(0), b(Tribool::True))]),
            None => panic!(),
        }
    }

    #[test]
    fn cmp_reified_bridging() {
        // out ⇔ (a < b), a ∈ ⟨0,3⟩, b ∈ ⟨7,9⟩ ⇒ out = 1
        let kind = CKind::CmpReif {
            op: CmpOp::Lt,
            out: v(0),
            a: v(1),
            b: v(2),
        };
        let doms = vec![b(Tribool::Unknown), w(0, 3), w(7, 9)];
        match run(&kind, &doms) {
            Some(ch) => assert_eq!(ch, vec![(v(0), b(Tribool::True))]),
            None => panic!(),
        }
    }

    use rtl_ir::CmpOp;

    #[test]
    fn ite_select_implication() {
        // out = sel ? t : e with out ∈ ⟨5,5⟩, t ∈ ⟨6,7⟩ ⇒ sel = 0, e = 5
        let kind = CKind::Ite {
            out: v(0),
            sel: v(1),
            t: v(2),
            e: v(3),
        };
        let doms = vec![w(5, 5), b(Tribool::Unknown), w(6, 7), w(0, 7)];
        match run(&kind, &doms) {
            Some(ch) => {
                assert!(ch.contains(&(v(1), b(Tribool::False))));
                assert!(ch.contains(&(v(3), w(5, 5))));
            }
            None => panic!(),
        }
    }
}
