//! The proof checker: admits steps by reverse unit propagation over
//! the lowered constraints plus previously admitted lemmas, exploring
//! recorded case splits when propagation alone cannot close a lemma.
//!
//! The checker keeps a *base* state: the fixpoint of all contractors
//! under `goal = 1`, incrementally strengthened by every admitted
//! lemma (this captures the solver's level-0 context, e.g. learned
//! units). To admit a step it clones the base, asserts the negation of
//! every literal of the lemma, and searches for an empty domain; the
//! lemma is implied iff every branch of the (given) split tree dies.

use std::collections::VecDeque;
use std::ops::Range;

use rtl_interval::{contract, Interval, Tribool};
use rtl_ir::{Netlist, SignalId};

use crate::lower::{lower, Lowered, PCons, VDom};
use crate::{resolve_goal, PLit, PSplit, Proof, Step};

/// Node budget for replaying a step's split tree.
const REFUTE_BUDGET: u64 = 1 << 18;
/// Node budget for *discovering* a split tree ([`Checker::find_splits`]).
/// Smaller than [`REFUTE_BUDGET`] so any discovered tree replays within
/// the checker's budget.
const FIND_BUDGET: u64 = 1 << 15;

/// Why a proof was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckError {
    /// The proof's goal name does not resolve to a signal.
    GoalNotFound {
        /// The unresolvable name.
        goal: String,
    },
    /// The goal signal is not Boolean.
    GoalNotBool {
        /// The offending name.
        goal: String,
    },
    /// The proof's variable count does not match the lowered netlist.
    VarCount {
        /// Count recorded in the proof header.
        proof: u32,
        /// Count derived from the netlist.
        lowered: u32,
    },
    /// The producer's certifier left steps unadmitted; the proof
    /// certifies nothing.
    Incomplete {
        /// Number of unadmitted steps.
        gaps: u32,
    },
    /// The proof has no steps.
    Empty,
    /// The final step is not the empty clause.
    MissingEmptyClause,
    /// A literal is malformed (variable out of range or of the wrong
    /// kind).
    BadLit {
        /// 0-based id of the offending step.
        step: u32,
        /// Description of the problem.
        detail: String,
    },
    /// A split is malformed.
    BadSplit {
        /// 0-based id of the offending step.
        step: u32,
        /// Description of the problem.
        detail: String,
    },
    /// A step cites itself or a later step.
    FutureAntecedent {
        /// 0-based id of the offending step.
        step: u32,
        /// The cited id.
        cited: u32,
    },
    /// A deletion cites a step that is not an earlier, clause-bearing
    /// step (self/future id, or the empty-clause step).
    BadDeletion {
        /// 0-based id of the offending step.
        step: u32,
        /// The cited id.
        cited: u32,
    },
    /// The lemma's negation survived propagation and all recorded
    /// splits: the step does not follow.
    NotImplied {
        /// 0-based id of the offending step.
        step: u32,
    },
    /// The split tree exceeded the replay budget.
    Budget {
        /// 0-based id of the offending step.
        step: u32,
    },
    /// An assumption literal is malformed (variable out of range or of
    /// the wrong kind).
    BadAssumption {
        /// Description of the problem.
        detail: String,
    },
    /// The final step of an assumption proof contains a literal that is
    /// not the negation of a supplied assumption (so admitting it would
    /// certify something other than "unsat under these assumptions").
    FinalClauseNotAssumptions {
        /// 0-based id of the final step.
        step: u32,
    },
}

impl std::fmt::Display for CheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckError::GoalNotFound { goal } => write!(f, "goal `{goal}` not in netlist"),
            CheckError::GoalNotBool { goal } => write!(f, "goal `{goal}` is not Boolean"),
            CheckError::VarCount { proof, lowered } => {
                write!(f, "variable count mismatch: proof {proof}, netlist {lowered}")
            }
            CheckError::Incomplete { gaps } => {
                write!(f, "incomplete proof: {gaps} step(s) not admitted by the producer")
            }
            CheckError::Empty => write!(f, "proof has no steps"),
            CheckError::MissingEmptyClause => write!(f, "final step is not the empty clause"),
            CheckError::BadLit { step, detail } => write!(f, "step {step}: {detail}"),
            CheckError::BadSplit { step, detail } => write!(f, "step {step}: {detail}"),
            CheckError::FutureAntecedent { step, cited } => {
                write!(f, "step {step} cites step {cited} (not yet admitted)")
            }
            CheckError::BadDeletion { step, cited } => {
                write!(f, "step {step} deletes step {cited} (not an earlier clause step)")
            }
            CheckError::NotImplied { step } => write!(f, "step {step} does not follow"),
            CheckError::Budget { step } => write!(f, "step {step}: split replay budget exceeded"),
            CheckError::BadAssumption { detail } => write!(f, "assumption: {detail}"),
            CheckError::FinalClauseNotAssumptions { step } => {
                write!(f, "step {step}: final clause cites a non-assumption literal")
            }
        }
    }
}

impl std::error::Error for CheckError {}

/// Statistics of a successful check.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckReport {
    /// Number of admitted steps.
    pub steps: u32,
    /// Total split-search nodes visited (each node is one propagation
    /// fixpoint).
    pub search_nodes: u64,
    /// Contractor applications over every fixpoint the checker ran:
    /// base propagation, growth, clause installation and refutations.
    pub cons_steps: u64,
    /// Steps whose derivation hints ([`Checker::certify`]) did not
    /// close the refutation, so the unrestricted fallback decided them.
    pub hint_misses: u32,
}

fn sat_i64(v: i128) -> i64 {
    v.clamp(i64::MIN as i128, i64::MAX as i128) as i64
}

fn div_floor(a: i128, b: i128) -> i128 {
    let q = a / b;
    if a % b != 0 && (a < 0) != (b < 0) {
        q - 1
    } else {
        q
    }
}

fn div_ceil(a: i128, b: i128) -> i128 {
    let q = a / b;
    if a % b != 0 && (a < 0) == (b < 0) {
        q + 1
    } else {
        q
    }
}

/// `cur \ iv` when the difference is an interval: `None` = empty,
/// unchanged = no overlap or an unrepresentable interior hole (the
/// caller must treat "unchanged" as a sound no-op).
fn subtract_interval(cur: Interval, iv: Interval) -> Option<Interval> {
    if !cur.intersects(iv) {
        return Some(cur);
    }
    if iv.contains_interval(cur) {
        return None;
    }
    if iv.lo() <= cur.lo() {
        return Some(Interval::new(iv.hi() + 1, cur.hi()));
    }
    if iv.hi() >= cur.hi() {
        return Some(Interval::new(cur.lo(), iv.lo() - 1));
    }
    Some(cur)
}

fn meet_bool(
    changes: &mut Vec<(u32, VDom)>,
    var: u32,
    cur: Tribool,
    want: Tribool,
) -> Result<(), ()> {
    match (cur, want) {
        (_, Tribool::Unknown) => Ok(()),
        (Tribool::Unknown, w) => {
            changes.push((var, VDom::B(w)));
            Ok(())
        }
        (c, w) if c == w => Ok(()),
        _ => Err(()),
    }
}

fn meet_interval(
    changes: &mut Vec<(u32, VDom)>,
    var: u32,
    cur: VDom,
    new: Interval,
) -> Result<(), ()> {
    match cur {
        VDom::W(iv) => {
            let met = iv.intersect(new).ok_or(())?;
            if met != iv {
                changes.push((var, VDom::W(met)));
            }
            Ok(())
        }
        VDom::B(t) => {
            let met = t.to_interval().intersect(new).ok_or(())?;
            let want = Tribool::from_interval(met.intersect(Interval::boolean()).ok_or(())?);
            meet_bool(changes, var, t, want)
        }
    }
}

/// One bounds-consistency step of a lowered constraint; `Err(())` on an
/// empty meet. Changes appended are strictly narrowing.
fn step_cons(cons: &PCons, doms: &[VDom], changes: &mut Vec<(u32, VDom)>) -> Result<(), ()> {
    let tri = |v: u32| doms[v as usize].tri();
    match cons {
        PCons::Not { out, a } => {
            meet_bool(changes, *out, tri(*out), tri(*a).not())?;
            meet_bool(changes, *a, tri(*a), tri(*out).not())
        }
        PCons::And { out, ins } => prop_and_or(changes, doms, *out, ins, true),
        PCons::Or { out, ins } => prop_and_or(changes, doms, *out, ins, false),
        PCons::Xor { out, a, b } => {
            meet_bool(changes, *out, tri(*out), tri(*a).xor(tri(*b)))?;
            meet_bool(changes, *a, tri(*a), tri(*out).xor(tri(*b)))?;
            meet_bool(changes, *b, tri(*b), tri(*out).xor(tri(*a)))
        }
        PCons::CmpReif { op, out, a, b } => {
            let r = contract::cmp_reified(
                *op,
                tri(*out),
                doms[*a as usize].iv(),
                doms[*b as usize].iv(),
            )
            .ok_or(())?;
            meet_bool(changes, *out, tri(*out), r.b)?;
            meet_interval(changes, *a, doms[*a as usize], r.x)?;
            meet_interval(changes, *b, doms[*b as usize], r.y)
        }
        PCons::Ite { out, sel, t, e } => {
            let r = contract::ite(
                tri(*sel),
                doms[*out as usize].iv(),
                doms[*t as usize].iv(),
                doms[*e as usize].iv(),
            )
            .ok_or(())?;
            meet_bool(changes, *sel, tri(*sel), r.sel)?;
            meet_interval(changes, *out, doms[*out as usize], r.out)?;
            meet_interval(changes, *t, doms[*t as usize], r.t)?;
            meet_interval(changes, *e, doms[*e as usize], r.e)
        }
        PCons::Min { out, a, b } => {
            let r = contract::min_op(
                doms[*out as usize].iv(),
                doms[*a as usize].iv(),
                doms[*b as usize].iv(),
            )
            .ok_or(())?;
            meet_interval(changes, *out, doms[*out as usize], r.0)?;
            meet_interval(changes, *a, doms[*a as usize], r.1)?;
            meet_interval(changes, *b, doms[*b as usize], r.2)
        }
        PCons::Max { out, a, b } => {
            let r = contract::max_op(
                doms[*out as usize].iv(),
                doms[*a as usize].iv(),
                doms[*b as usize].iv(),
            )
            .ok_or(())?;
            meet_interval(changes, *out, doms[*out as usize], r.0)?;
            meet_interval(changes, *a, doms[*a as usize], r.1)?;
            meet_interval(changes, *b, doms[*b as usize], r.2)
        }
        PCons::Lin { terms, constant } => prop_lin(changes, doms, terms, *constant),
    }
}

fn prop_and_or(
    changes: &mut Vec<(u32, VDom)>,
    doms: &[VDom],
    out: u32,
    ins: &[u32],
    is_and: bool,
) -> Result<(), ()> {
    let flip = |t: Tribool| if is_and { t } else { t.not() };
    let out_val = flip(doms[out as usize].tri());

    let mut forward = Tribool::True;
    let mut unknown_count = 0usize;
    let mut last_unknown = 0usize;
    let mut any_false = false;
    for (i, &v) in ins.iter().enumerate() {
        let t = flip(doms[v as usize].tri());
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
            for &v in ins {
                let t = flip(doms[v as usize].tri());
                if t == Tribool::Unknown {
                    meet_bool(changes, v, t, flip(Tribool::True))?;
                }
            }
            Ok(())
        }
        Tribool::False => {
            if any_false {
                return Ok(());
            }
            match unknown_count {
                0 => Err(()),
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
    changes: &mut Vec<(u32, VDom)>,
    doms: &[VDom],
    terms: &[(u32, i64)],
    constant: i64,
) -> Result<(), ()> {
    let term_bounds = |v: u32, c: i64| {
        let iv = doms[v as usize].as_interval();
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
    for &(v, c) in terms {
        let (own_lo, own_hi) = term_bounds(v, c);
        let rest_lo = total_lo - own_lo;
        let rest_hi = total_hi - own_hi;
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
        meet_interval(changes, v, doms[v as usize], new)?;
    }
    Ok(())
}

/// Three-valued evaluation of a proof literal against a domain.
fn eval_lit(lit: &PLit, dom: VDom) -> Tribool {
    match (*lit, dom) {
        (PLit::Bool { value, .. }, VDom::B(t)) => match t.to_bool() {
            Some(v) => Tribool::from(v == value),
            None => Tribool::Unknown,
        },
        (PLit::Word { lo, hi, positive, .. }, VDom::W(d)) => {
            let iv = Interval::new(lo, hi);
            let inside = if iv.contains_interval(d) {
                Tribool::True
            } else if !iv.intersects(d) {
                Tribool::False
            } else {
                Tribool::Unknown
            };
            if positive {
                inside
            } else {
                inside.not()
            }
        }
        // Kind mismatches are rejected during validation, so no admitted
        // clause carries one; evaluate defensively as unknown (never
        // propagates).
        _ => Tribool::Unknown,
    }
}

/// Reusable propagation scratch (queues + membership flags).
#[derive(Default)]
struct Scratch {
    cons_q: VecDeque<u32>,
    in_cons: Vec<bool>,
    cl_q: VecDeque<u32>,
    in_cl: Vec<bool>,
    changes: Vec<(u32, VDom)>,
    /// Contractor applications so far ([`CheckReport::cons_steps`]).
    cons_steps: u64,
}

/// The borrowed immutable half of the checker during a search.
struct Ctx<'a> {
    lowered: &'a Lowered,
    clauses: &'a [Vec<PLit>],
    clause_watch: &'a [Vec<u32>],
    /// Retired clauses (deletion-aware proofs): their literal vectors
    /// are empty, so without this flag they would read as falsified.
    deleted: &'a [bool],
    /// Per constraint: may it be scheduled? `None` allows every
    /// contractor; a hinted refutation allows only the hinted ones.
    allow: Option<&'a [bool]>,
}

impl Ctx<'_> {
    fn schedule_var(&self, var: u32, scratch: &mut Scratch) {
        for &ci in &self.lowered.watch[var as usize] {
            if self.allow.is_some_and(|allow| !allow[ci as usize]) {
                continue;
            }
            if !scratch.in_cons[ci as usize] {
                scratch.in_cons[ci as usize] = true;
                scratch.cons_q.push_back(ci);
            }
        }
        for &cl in &self.clause_watch[var as usize] {
            if !scratch.in_cl[cl as usize] {
                scratch.in_cl[cl as usize] = true;
                scratch.cl_q.push_back(cl);
            }
        }
    }

    /// Runs contractors + clause unit propagation to a fixpoint, from
    /// the watchers of `seed_vars`, the constraints `seed_cons` and the
    /// clauses `seed_clauses`. `false` on conflict (empty domain /
    /// falsified clause).
    fn fixpoint(
        &self,
        doms: &mut [VDom],
        scratch: &mut Scratch,
        seed_vars: &[u32],
        seed_cons: Range<u32>,
        seed_clauses: &[u32],
    ) -> bool {
        scratch.cons_q.clear();
        scratch.cl_q.clear();
        scratch.in_cons.clear();
        scratch.in_cons.resize(self.lowered.cons.len(), false);
        scratch.in_cl.clear();
        scratch.in_cl.resize(self.clauses.len(), false);

        for ci in seed_cons {
            scratch.in_cons[ci as usize] = true;
            scratch.cons_q.push_back(ci);
        }
        for &v in seed_vars {
            self.schedule_var(v, scratch);
        }
        for &cl in seed_clauses {
            if !scratch.in_cl[cl as usize] {
                scratch.in_cl[cl as usize] = true;
                scratch.cl_q.push_back(cl);
            }
        }

        loop {
            if let Some(ci) = scratch.cons_q.pop_front() {
                scratch.in_cons[ci as usize] = false;
                scratch.cons_steps += 1;
                scratch.changes.clear();
                let mut changes = std::mem::take(&mut scratch.changes);
                let r = step_cons(&self.lowered.cons[ci as usize], doms, &mut changes);
                let ok = r.is_ok();
                if ok {
                    for &(v, d) in &changes {
                        doms[v as usize] = d;
                        self.schedule_var(v, scratch);
                    }
                }
                scratch.changes = changes;
                if !ok {
                    return false;
                }
                continue;
            }
            if let Some(cl) = scratch.cl_q.pop_front() {
                scratch.in_cl[cl as usize] = false;
                if !self.propagate_clause(cl, doms, scratch) {
                    return false;
                }
                continue;
            }
            return true;
        }
    }

    /// Unit propagation of one admitted clause; `false` when falsified.
    fn propagate_clause(&self, cl: u32, doms: &mut [VDom], scratch: &mut Scratch) -> bool {
        if self.deleted[cl as usize] {
            // A retired clause contributes nothing (its empty literal
            // vector must not read as "all falsified").
            return true;
        }
        let clause = &self.clauses[cl as usize];
        let mut unknown: Option<&PLit> = None;
        for lit in clause {
            match eval_lit(lit, doms[lit.var() as usize]) {
                Tribool::True => return true,
                Tribool::False => {}
                Tribool::Unknown => {
                    if unknown.is_some() {
                        return true; // ≥ 2 unknowns: nothing to do
                    }
                    unknown = Some(lit);
                }
            }
        }
        let Some(lit) = unknown else {
            return false; // all literals falsified (or empty clause)
        };
        let var = lit.var();
        match *lit {
            PLit::Bool { value, .. } => {
                doms[var as usize] = VDom::B(Tribool::from(value));
                self.schedule_var(var, scratch);
            }
            PLit::Word {
                lo, hi, positive, ..
            } => {
                let cur = doms[var as usize].iv();
                let iv = Interval::new(lo, hi);
                let new = if positive {
                    cur.intersect(iv)
                } else {
                    subtract_interval(cur, iv)
                };
                match new {
                    Some(n) if n != cur => {
                        doms[var as usize] = VDom::W(n);
                        self.schedule_var(var, scratch);
                    }
                    Some(_) => {}
                    None => return false,
                }
            }
        }
        true
    }

    /// Replays a split tree: every branch must reach a conflict.
    #[allow(clippy::too_many_arguments)]
    fn refute(
        &self,
        mut doms: Vec<VDom>,
        scratch: &mut Scratch,
        seed_vars: &[u32],
        seed_all_clauses: bool,
        splits: &[PSplit],
        depth: usize,
        nodes: &mut u64,
    ) -> Result<(), RefuteFail> {
        if *nodes == 0 {
            return Err(RefuteFail::Budget);
        }
        *nodes -= 1;
        // The root node also wakes every clause: the asserted negation
        // may leave domains untouched (unrepresentable holes) yet
        // clauses can still be unit under the base state.
        let seed_clauses: Vec<u32> = if seed_all_clauses {
            (0..self.clauses.len() as u32).collect()
        } else {
            Vec::new()
        };
        if !self.fixpoint(&mut doms, scratch, seed_vars, 0..0, &seed_clauses) {
            return Ok(());
        }
        let Some(split) = splits.get(depth) else {
            return Err(RefuteFail::NotImplied);
        };
        match *split {
            PSplit::Bool { var } => {
                let cur = doms[var as usize].tri();
                for value in [false, true] {
                    if cur.to_bool().is_some_and(|c| c != value) {
                        continue; // vacuous side
                    }
                    let mut side = doms.clone();
                    side[var as usize] = VDom::B(Tribool::from(value));
                    self.refute(side, scratch, &[var], false, splits, depth + 1, nodes)?;
                }
            }
            PSplit::Word { var, at } => {
                let cur = doms[var as usize].iv();
                let mut sides = Vec::with_capacity(2);
                if cur.lo() <= at {
                    sides.push(Interval::new(cur.lo(), cur.hi().min(at)));
                }
                if cur.hi() > at {
                    sides.push(Interval::new(cur.lo().max(at + 1), cur.hi()));
                }
                for iv in sides {
                    let mut side = doms.clone();
                    side[var as usize] = VDom::W(iv);
                    self.refute(side, scratch, &[var], false, splits, depth + 1, nodes)?;
                }
            }
        }
        Ok(())
    }

    /// Greedy split discovery (the finder behind `Checker::certify`):
    /// grows a shared split list until every branch conflicts, or gives
    /// up on budget / full-point assignments that still do not conflict
    /// (which cannot happen for sound lemmas — at a point assignment
    /// every constraint kind is decided exactly by its contractor).
    #[allow(clippy::too_many_arguments)]
    fn grow(
        &self,
        mut doms: Vec<VDom>,
        scratch: &mut Scratch,
        seed_vars: &[u32],
        seed_all_clauses: bool,
        splits: &mut Vec<PSplit>,
        depth: usize,
        nodes: &mut u64,
    ) -> bool {
        if *nodes == 0 {
            return false;
        }
        *nodes -= 1;
        let seed_clauses: Vec<u32> = if seed_all_clauses {
            (0..self.clauses.len() as u32).collect()
        } else {
            Vec::new()
        };
        if !self.fixpoint(&mut doms, scratch, seed_vars, 0..0, &seed_clauses) {
            return true;
        }
        if depth == splits.len() {
            let Some(split) = choose_split(&doms) else {
                return false; // full point assignment, no conflict
            };
            splits.push(split);
        }
        match splits[depth] {
            PSplit::Bool { var } => {
                let cur = doms[var as usize].tri();
                for value in [false, true] {
                    if cur.to_bool().is_some_and(|c| c != value) {
                        continue;
                    }
                    let mut side = doms.clone();
                    side[var as usize] = VDom::B(Tribool::from(value));
                    if !self.grow(side, scratch, &[var], false, splits, depth + 1, nodes) {
                        return false;
                    }
                }
            }
            PSplit::Word { var, at } => {
                let cur = doms[var as usize].iv();
                let mut sides = Vec::with_capacity(2);
                if cur.lo() <= at {
                    sides.push(Interval::new(cur.lo(), cur.hi().min(at)));
                }
                if cur.hi() > at {
                    sides.push(Interval::new(cur.lo().max(at + 1), cur.hi()));
                }
                for iv in sides {
                    let mut side = doms.clone();
                    side[var as usize] = VDom::W(iv);
                    if !self.grow(side, scratch, &[var], false, splits, depth + 1, nodes) {
                        return false;
                    }
                }
            }
        }
        true
    }
}

enum RefuteFail {
    NotImplied,
    Budget,
}

/// Picks the next case split for [`Ctx::grow`]: the first unassigned
/// Boolean variable, else the narrowest non-point word variable at its
/// midpoint.
fn choose_split(doms: &[VDom]) -> Option<PSplit> {
    for (i, d) in doms.iter().enumerate() {
        if matches!(d, VDom::B(Tribool::Unknown)) {
            return Some(PSplit::Bool { var: i as u32 });
        }
    }
    let mut best: Option<(u128, u32, Interval)> = None;
    for (i, d) in doms.iter().enumerate() {
        if let VDom::W(iv) = d {
            if iv.is_point() {
                continue;
            }
            let width = (iv.hi() as i128 - iv.lo() as i128) as u128;
            if best.as_ref().is_none_or(|&(w, _, _)| width < w) {
                best = Some((width, i as u32, *iv));
            }
        }
    }
    best.map(|(_, var, iv)| {
        let at = (iv.lo() as i128 + (iv.hi() as i128 - iv.lo() as i128) / 2) as i64;
        PSplit::Word { var, at }
    })
}

/// Sentinel in [`Checker::step_clause`]: the step installed no clause
/// (it was the empty clause).
const NO_CLAUSE: u32 = u32::MAX;

/// An incremental proof checker for one `(netlist, goal)` pair.
pub struct Checker {
    lowered: Lowered,
    base: Vec<VDom>,
    base_conflict: bool,
    clauses: Vec<Vec<PLit>>,
    clause_watch: Vec<Vec<u32>>,
    /// Retirement flags parallel to `clauses`. Base narrowings a clause
    /// contributed before retirement persist — sound, since deletion
    /// retracts a clause's future use, not its proven consequences.
    deleted: Vec<bool>,
    /// `step id → installed clause id` ([`NO_CLAUSE`] for empty-clause
    /// steps); deletion sections cite step ids, the database is indexed
    /// by clause ids.
    step_clause: Vec<u32>,
    admitted: u32,
    scratch: Scratch,
    nodes_used: u64,
    /// Per constraint: named by the hints of the step being certified.
    /// All `false` between admissions.
    hint_mask: Vec<bool>,
    hint_misses: u32,
}

impl Checker {
    /// Lowers the netlist, asserts `goal = 1` and propagates to the
    /// initial base fixpoint.
    ///
    /// # Errors
    ///
    /// Fails when the goal signal is not Boolean.
    pub fn new(netlist: &Netlist, goal: SignalId) -> Result<Self, CheckError> {
        Self::build(netlist, Some(goal))
    }

    /// Lowers the netlist *without* asserting any goal and propagates
    /// to the initial base fixpoint. The resulting checker admits
    /// lemmas that follow from the netlist alone (plus previously
    /// admitted lemmas) — the base state of an incremental solve
    /// session, where each query's goal arrives as assumptions rather
    /// than a baked-in constraint.
    #[must_use]
    pub fn new_free(netlist: &Netlist) -> Self {
        Self::build(netlist, None).expect("goal-free lowering cannot be rejected")
    }

    fn build(netlist: &Netlist, goal: Option<SignalId>) -> Result<Self, CheckError> {
        let lowered = lower(netlist);
        let mut base = lowered.init_dom.clone();
        let mut base_conflict = false;
        if let Some(goal) = goal {
            let goal_var = lowered.sig_var[goal.index()] as usize;
            match base[goal_var] {
                VDom::B(t) => {
                    base[goal_var] = VDom::B(Tribool::True);
                    base_conflict = t == Tribool::False;
                }
                VDom::W(_) => {
                    return Err(CheckError::GoalNotBool {
                        goal: crate::goal_name(netlist, goal),
                    })
                }
            }
        }
        let clause_watch = vec![Vec::new(); lowered.init_dom.len()];
        let mut checker = Checker {
            lowered,
            base,
            base_conflict,
            clauses: Vec::new(),
            clause_watch,
            deleted: Vec::new(),
            step_clause: Vec::new(),
            admitted: 0,
            scratch: Scratch::default(),
            nodes_used: 0,
            hint_mask: Vec::new(),
            hint_misses: 0,
        };
        let all = 0..checker.lowered.cons.len() as u32;
        checker.propagate_base(all, &[]);
        Ok(checker)
    }

    /// Splits the checker into the immutable search context and the
    /// mutable base state and scratch. With `hinted`, the context
    /// schedules only the contractors [`Checker::hint_mask`] names.
    fn parts(&mut self, hinted: bool) -> (Ctx<'_>, &mut Vec<VDom>, &mut Scratch) {
        let Checker {
            lowered,
            base,
            clauses,
            clause_watch,
            deleted,
            scratch,
            hint_mask,
            ..
        } = self;
        let ctx = Ctx {
            lowered,
            clauses,
            clause_watch,
            deleted,
            allow: hinted.then_some(&hint_mask[..]),
        };
        (ctx, base, scratch)
    }

    /// Propagates the constraints `seed_cons` and the clauses
    /// `seed_clauses` into the base fixpoint (a no-op once the base is
    /// contradictory).
    fn propagate_base(&mut self, seed_cons: Range<u32>, seed_clauses: &[u32]) {
        if self.base_conflict {
            return;
        }
        let (ctx, base, scratch) = self.parts(false);
        if !ctx.fixpoint(base, scratch, &[], seed_cons, seed_clauses) {
            self.base_conflict = true;
        }
    }

    /// Solver variable count of the lowering (signals + auxiliaries).
    #[must_use]
    pub fn var_count(&self) -> u32 {
        self.lowered.init_dom.len() as u32
    }

    /// Consumes netlist signals beyond those already lowered, growing
    /// the variable space in the solver's incremental layout (the
    /// segment's signals first, then its auxiliaries) and propagating
    /// the new constraints into the base fixpoint. Previously admitted
    /// clauses and base narrowings are retained — extension only adds
    /// constraints, so everything admitted so far remains implied.
    ///
    /// Only the segment's constraints are seeded: the base was already
    /// a fixpoint of every old contractor and clause, and any of them
    /// that a new narrowing could wake is scheduled through the watch
    /// lists, so the queue reaches the same (unique) fixpoint as
    /// re-seeding everything would.
    pub fn extend(&mut self, netlist: &Netlist) {
        let cons_from = self.lowered.cons.len() as u32;
        self.lowered.extend(netlist);
        let new_len = self.lowered.init_dom.len();
        self.base
            .extend_from_slice(&self.lowered.init_dom[self.base.len()..]);
        self.clause_watch.resize(new_len, Vec::new());
        self.propagate_base(cons_from..self.lowered.cons.len() as u32, &[]);
    }

    /// `true` once the base state itself is contradictory — every
    /// further step (including the final empty clause) is implied.
    #[must_use]
    pub fn derived_empty(&self) -> bool {
        self.base_conflict
    }

    /// Number of steps admitted so far (= the next step's id).
    #[must_use]
    pub fn admitted(&self) -> u32 {
        self.admitted
    }

    fn validate(&self, step: &Step) -> Result<(), CheckError> {
        let id = self.admitted;
        let n = self.lowered.init_dom.len() as u32;
        for lit in &step.lits {
            let var = lit.var();
            if var >= n {
                return Err(CheckError::BadLit {
                    step: id,
                    detail: format!("literal variable {var} out of range (vars {n})"),
                });
            }
            let kind_ok = matches!(
                (lit, &self.lowered.init_dom[var as usize]),
                (PLit::Bool { .. }, VDom::B(_)) | (PLit::Word { .. }, VDom::W(_))
            );
            if !kind_ok {
                return Err(CheckError::BadLit {
                    step: id,
                    detail: format!("literal kind mismatch on variable {var}"),
                });
            }
            if let PLit::Word { lo, hi, .. } = lit {
                if lo > hi {
                    return Err(CheckError::BadLit {
                        step: id,
                        detail: format!("empty literal interval on variable {var}"),
                    });
                }
            }
        }
        for split in &step.splits {
            let (var, is_bool) = match *split {
                PSplit::Bool { var } => (var, true),
                PSplit::Word { var, .. } => (var, false),
            };
            if var >= n {
                return Err(CheckError::BadSplit {
                    step: id,
                    detail: format!("split variable {var} out of range (vars {n})"),
                });
            }
            let kind_ok = match &self.lowered.init_dom[var as usize] {
                VDom::B(_) => is_bool,
                VDom::W(_) => !is_bool,
            };
            if !kind_ok {
                return Err(CheckError::BadSplit {
                    step: id,
                    detail: format!("split kind mismatch on variable {var}"),
                });
            }
        }
        for &ant in &step.ants {
            if ant >= id {
                return Err(CheckError::FutureAntecedent { step: id, cited: ant });
            }
        }
        for &del in &step.dels {
            // `del < id` implies `step_clause[del]` exists (one entry
            // per admitted step). Deleting an already-deleted step is
            // allowed: retirement is idempotent.
            if del >= id || self.step_clause[del as usize] == NO_CLAUSE {
                return Err(CheckError::BadDeletion { step: id, cited: del });
            }
        }
        Ok(())
    }

    /// Retires the clauses of the steps cited in `step.dels` (validated
    /// already): unhooks them from the watch lists and empties their
    /// literal vectors, bounding the live set of every later fixpoint.
    fn apply_dels(&mut self, step: &Step) {
        for &del in &step.dels {
            let cid = self.step_clause[del as usize];
            if self.deleted[cid as usize] {
                continue;
            }
            self.deleted[cid as usize] = true;
            let lits = std::mem::take(&mut self.clauses[cid as usize]);
            for lit in &lits {
                let watch = &mut self.clause_watch[lit.var() as usize];
                if let Some(pos) = watch.iter().position(|&c| c == cid) {
                    watch.swap_remove(pos);
                }
            }
        }
    }

    /// A copy of the base with the negation of every literal of `lits`
    /// asserted, and the variables that narrowed; `None` when the lemma
    /// is trivially implied (a contradictory base, or a negation the
    /// base already contradicts).
    fn negated_trial(&self, lits: &[PLit]) -> Option<(Vec<VDom>, Vec<u32>)> {
        if self.base_conflict {
            return None;
        }
        let mut doms = self.base.clone();
        let mut touched = Vec::new();
        for lit in lits {
            let var = lit.var() as usize;
            match *lit {
                PLit::Bool { value, .. } => match doms[var].tri().to_bool() {
                    Some(v) if v == value => return None,
                    Some(_) => {}
                    None => {
                        doms[var] = VDom::B(Tribool::from(!value));
                        touched.push(var as u32);
                    }
                },
                PLit::Word {
                    lo, hi, positive, ..
                } => {
                    let cur = doms[var].iv();
                    let iv = Interval::new(lo, hi);
                    let new = if positive {
                        // ¬(v ∈ iv): carve iv out when representable,
                        // sound no-op otherwise.
                        subtract_interval(cur, iv)
                    } else {
                        // ¬(v ∉ iv): v ∈ iv.
                        cur.intersect(iv)
                    };
                    match new {
                        Some(n) if n != cur => {
                            doms[var] = VDom::W(n);
                            touched.push(var as u32);
                        }
                        Some(_) => {}
                        None => return None,
                    }
                }
            }
        }
        Some((doms, touched))
    }

    /// Installs an admitted clause and propagates it into the base;
    /// returns its clause id.
    fn install(&mut self, lits: &[PLit]) -> u32 {
        let id = self.clauses.len() as u32;
        for lit in lits {
            self.clause_watch[lit.var() as usize].push(id);
        }
        self.clauses.push(lits.to_vec());
        self.deleted.push(false);
        self.propagate_base(0..0, &[id]);
        id
    }

    /// Admits one step: verifies the lemma follows from the netlist,
    /// the goal and previously admitted steps, then adds it to the
    /// clause database.
    ///
    /// # Errors
    ///
    /// Rejects malformed steps ([`CheckError::BadLit`],
    /// [`CheckError::BadSplit`], [`CheckError::FutureAntecedent`],
    /// [`CheckError::BadDeletion`]) and lemmas that do not follow
    /// ([`CheckError::NotImplied`], [`CheckError::Budget`]).
    pub fn admit(&mut self, step: &Step) -> Result<(), CheckError> {
        self.refute_step(step)?;
        self.install_step(step);
        Ok(())
    }

    /// The certifying admission. With `hints` — the ids of the lowered
    /// constraints the producer's derivation of the lemma used — it
    /// first refutes the lemma's negation by one fixpoint restricted to
    /// those contractors (and every admitted clause); out-of-range and
    /// duplicate ids are ignored. When that closes, the step is
    /// admitted unchanged. Otherwise, and without hints: [`Checker::admit`]
    /// with the step's own splits, and when that refutation does not
    /// close ([`CheckError::NotImplied`] or [`CheckError::Budget`]), the
    /// split finder followed by a second strict admission with the
    /// splits it found, which are written back into `step`.
    ///
    /// Neither hints nor the finder are trusted. The contractors are
    /// monotone, so a restricted fixpoint that closes implies that the
    /// unrestricted root fixpoint of [`Checker::admit`] closes too:
    /// whatever the hints, a step certified here is a step a fresh
    /// checker admits from the (possibly rewritten) text, and the text
    /// is the same as without hints.
    ///
    /// # Errors
    ///
    /// As [`Checker::admit`]; a failed finder reports the first
    /// admission's error.
    pub fn certify(&mut self, step: &mut Step, hints: Option<&[u32]>) -> Result<(), CheckError> {
        self.justify(step, hints)?;
        self.install_step(step);
        Ok(())
    }

    /// [`Checker::certify`] without hints, and without installing the
    /// clause or counting a step: the check of a clause that later steps
    /// must not inherit, such as an incremental query's `¬a₁ ∨ … ∨ ¬aₖ`.
    ///
    /// # Errors
    ///
    /// As [`Checker::certify`].
    pub fn certify_uninstalled(&mut self, step: &mut Step) -> Result<(), CheckError> {
        self.justify(step, None)
    }

    fn justify(&mut self, step: &mut Step, hints: Option<&[u32]>) -> Result<(), CheckError> {
        if let Some(hints) = hints {
            self.validate(step)?;
            // Deletions precede the derivation, as in `refute_step`
            // (which re-applies them idempotently on a miss).
            self.apply_dels(step);
            if self.refute_hinted(&step.lits, hints) {
                return Ok(());
            }
            self.hint_misses += 1;
        }
        match self.refute_step(step) {
            Err(e @ (CheckError::NotImplied { .. } | CheckError::Budget { .. })) => {
                step.splits = self.find_splits(&step.lits).ok_or(e)?;
                // The retry re-applies the step's deletions; retirement
                // is idempotent.
                self.refute_step(step)
            }
            r => r,
        }
    }

    /// Validates `step` and refutes its negation over the current state,
    /// without installing it.
    fn refute_step(&mut self, step: &Step) -> Result<(), CheckError> {
        self.validate(step)?;
        let id = self.admitted;
        // Deletions precede the derivation (the producer retired these
        // clauses *before* learning this lemma), so apply them before
        // the refutation search. On a failed admit the retirements
        // stick, mirroring the producer: its clauses are gone whether or
        // not the next lemma justifies.
        self.apply_dels(step);
        let Some((trial, touched)) = self.negated_trial(&step.lits) else {
            return Ok(());
        };
        let mut nodes = REFUTE_BUDGET;
        let (ctx, _, scratch) = self.parts(false);
        let r = ctx.refute(trial, scratch, &touched, true, &step.splits, 0, &mut nodes);
        self.nodes_used += REFUTE_BUDGET - nodes;
        match r {
            Ok(()) => Ok(()),
            Err(RefuteFail::NotImplied) => Err(CheckError::NotImplied { step: id }),
            Err(RefuteFail::Budget) => Err(CheckError::Budget { step: id }),
        }
    }

    /// The hinted refutation of [`Checker::certify`]: asserts the
    /// negation of `lits` on a copy of the base and propagates it
    /// through the contractors `hints` names and every admitted clause.
    /// `true` when that reaches a conflict (one search node).
    fn refute_hinted(&mut self, lits: &[PLit], hints: &[u32]) -> bool {
        let Some((mut trial, touched)) = self.negated_trial(lits) else {
            return true;
        };
        let ncons = self.lowered.cons.len();
        self.hint_mask.resize(ncons, false);
        let in_range = || hints.iter().map(|&h| h as usize).filter(|&h| h < ncons);
        for h in in_range() {
            self.hint_mask[h] = true;
        }
        // The base is a fixpoint of every contractor and clause, so only
        // the watchers of the negated variables can move: no clause
        // needs waking beyond those.
        let (ctx, _, scratch) = self.parts(true);
        let closed = !ctx.fixpoint(&mut trial, scratch, &touched, 0..0, &[]);
        for h in in_range() {
            self.hint_mask[h] = false;
        }
        self.nodes_used += 1;
        closed
    }

    /// Adds a refuted step to the clause database as the next step id.
    fn install_step(&mut self, step: &Step) {
        if step.lits.is_empty() {
            self.base_conflict = true;
            self.step_clause.push(NO_CLAUSE);
        } else {
            let cid = self.install(&step.lits);
            self.step_clause.push(cid);
        }
        self.admitted += 1;
    }

    /// Searches for a split tree under which `lits` is implied: the
    /// split finder behind [`Checker::certify`]. Returns `None` when the
    /// budget runs out or a full point assignment survives (the lemma
    /// is not implied). Its answer is advisory; only a strict admission
    /// that replays it counts.
    pub fn find_splits(&mut self, lits: &[PLit]) -> Option<Vec<PSplit>> {
        let Some((trial, touched)) = self.negated_trial(lits) else {
            return Some(Vec::new());
        };
        let mut splits = Vec::new();
        let mut nodes = FIND_BUDGET;
        let (ctx, _, scratch) = self.parts(false);
        let ok = ctx.grow(trial, scratch, &touched, true, &mut splits, 0, &mut nodes);
        self.nodes_used += FIND_BUDGET - nodes;
        ok.then_some(splits)
    }

    /// Steps admitted, split-search nodes and contractor applications
    /// spent, and hint misses so far, over every admission and finder
    /// call this checker made.
    #[must_use]
    pub fn report(&self) -> CheckReport {
        CheckReport {
            steps: self.admitted,
            search_nodes: self.nodes_used,
            cons_steps: self.scratch.cons_steps,
            hint_misses: self.hint_misses,
        }
    }

    /// Checks a full proof against a netlist, resolving the goal by
    /// the name recorded in the proof header. Assumption proofs (an
    /// `assume` header, or the goal-free `-` marker of an incremental
    /// session) are dispatched to [`Checker::check_assumptions`] with
    /// the header's assumption literals.
    ///
    /// # Errors
    ///
    /// See [`CheckError`].
    pub fn check(netlist: &Netlist, proof: &Proof) -> Result<CheckReport, CheckError> {
        if !proof.assumptions.is_empty() || proof.goal == "-" {
            return Self::check_assumptions(netlist, &proof.assumptions, proof);
        }
        let goal = resolve_goal(netlist, &proof.goal).ok_or_else(|| CheckError::GoalNotFound {
            goal: proof.goal.clone(),
        })?;
        Self::check_goal(netlist, goal, proof)
    }

    /// Checks an *assumption* proof: a refutation of `netlist ∧
    /// assumptions` produced by an incremental solve session. No goal
    /// is asserted into the base; instead the final step must be a
    /// clause whose every literal is the negation of a supplied
    /// assumption (the empty clause — unconditional unsat — is the
    /// degenerate case). Admitting that clause over the goal-free base
    /// certifies that the netlist entails `¬a₁ ∨ … ∨ ¬aₖ`, i.e. the
    /// assumptions are jointly infeasible.
    ///
    /// Intermediate steps are ordinary lemmas over the goal-free base:
    /// a session's learned clauses are globally valid (assumption
    /// dependence surfaces as negated-assumption literals *inside* the
    /// clause), which is what lets one session reuse them across
    /// queries with different assumptions.
    ///
    /// # Errors
    ///
    /// See [`CheckError`]; additionally [`CheckError::BadAssumption`]
    /// for malformed assumption literals and
    /// [`CheckError::FinalClauseNotAssumptions`] when the final clause
    /// speaks about anything but the assumptions.
    pub fn check_assumptions(
        netlist: &Netlist,
        assumptions: &[PLit],
        proof: &Proof,
    ) -> Result<CheckReport, CheckError> {
        if proof.gaps > 0 {
            return Err(CheckError::Incomplete { gaps: proof.gaps });
        }
        let mut checker = Checker::new_free(netlist);
        if proof.var_count != checker.var_count() {
            return Err(CheckError::VarCount {
                proof: proof.var_count,
                lowered: checker.var_count(),
            });
        }
        let n = checker.var_count();
        for lit in assumptions {
            let var = lit.var();
            if var >= n {
                return Err(CheckError::BadAssumption {
                    detail: format!("variable {var} out of range (vars {n})"),
                });
            }
            let kind_ok = matches!(
                (lit, &checker.lowered.init_dom[var as usize]),
                (PLit::Bool { .. }, VDom::B(_)) | (PLit::Word { .. }, VDom::W(_))
            );
            if !kind_ok {
                return Err(CheckError::BadAssumption {
                    detail: format!("literal kind mismatch on variable {var}"),
                });
            }
        }
        let Some(last) = proof.steps.last() else {
            return Err(CheckError::Empty);
        };
        let final_id = (proof.steps.len() - 1) as u32;
        for lit in &last.lits {
            if !assumptions.iter().any(|a| a.negated() == *lit) {
                return Err(CheckError::FinalClauseNotAssumptions { step: final_id });
            }
        }
        for step in &proof.steps {
            checker.admit(step)?;
        }
        Ok(checker.report())
    }

    /// Checks a full proof against a netlist and an explicit goal.
    ///
    /// # Errors
    ///
    /// See [`CheckError`].
    pub fn check_goal(
        netlist: &Netlist,
        goal: SignalId,
        proof: &Proof,
    ) -> Result<CheckReport, CheckError> {
        if proof.gaps > 0 {
            return Err(CheckError::Incomplete { gaps: proof.gaps });
        }
        let mut checker = Checker::new(netlist, goal)?;
        if proof.var_count != checker.var_count() {
            return Err(CheckError::VarCount {
                proof: proof.var_count,
                lowered: checker.var_count(),
            });
        }
        match proof.steps.last() {
            None => return Err(CheckError::Empty),
            Some(last) if !last.is_empty_clause() => {
                return Err(CheckError::MissingEmptyClause)
            }
            Some(_) => {}
        }
        for step in &proof.steps {
            checker.admit(step)?;
        }
        debug_assert!(checker.base_conflict);
        Ok(checker.report())
    }
}
