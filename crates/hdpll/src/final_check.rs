//! The arithmetic final check (paper §2.4): once every decision variable is
//! assigned and interval constraint propagation is conflict-free, the
//! solution box `P = Π D(vᵢ)` is checked for an integer point solution by
//! Fourier–Motzkin elimination. A point certifies SAT; an infeasible subset
//! is mapped back to trail entries and learned as a hybrid clause, which
//! carries the subset's constraints and the disequalities FM split on so
//! the proof checker can re-derive it ([`Falsified::Box`]). Under a
//! session query's cone ([`crate::engine::Cone`]) the box and the
//! constraints are the cone's alone; every other variable keeps its
//! domain, and a model takes its low bound there.

use std::collections::HashMap;

use rtl_fm::{FmOutcome, LinExpr, Problem};
use rtl_interval::{contract, Tribool};
use rtl_ir::CmpOp;

use crate::compile::CKind;
use crate::engine::{ConflictInfo, Engine, Falsified};
use crate::types::{AbortReason, Dom, VarId};

/// Outcome of the final check.
pub(crate) enum FinalOutcome {
    /// An integer point exists; values for *every* solver variable.
    Sat(Vec<i64>),
    /// The box contains no solution; the conflicting trail entries.
    Conflict(ConflictInfo),
    /// The engine's budget (deadline/cancellation) expired inside the
    /// oracle. The engine is marked aborted (sticky) before returning.
    Aborted(AbortReason),
}

/// Why `solve_with_splits` failed to produce a model.
enum SplitErr {
    /// Infeasible: accumulated conflict tags and bound variables.
    Unsat(Vec<usize>, Vec<u32>),
    /// The shared budget expired mid-oracle.
    Aborted,
}

/// One alternative of a disjunctive (case-split) constraint.
struct SplitOption {
    eqs: Vec<LinExpr>,
    les: Vec<LinExpr>,
}

/// A disjunctive constraint arising from `≠` predicates or unresolved
/// min/max operators: exactly one option must hold.
struct Split {
    options: Vec<SplitOption>,
    tag: usize,
    /// A `≠` predicate split into `a < b` and `a > b`.
    diseq: bool,
}

pub(crate) fn final_check(engine: &mut Engine) -> FinalOutcome {
    engine.stats.fm_calls += 1;

    // Map non-fixed word variables to FM variables.
    let mut fm_of: HashMap<VarId, u32> = HashMap::new();
    let mut solver_of: Vec<VarId> = Vec::new();
    let mut bounds = Vec::new();
    for i in 0..engine.doms.len() {
        let v = VarId(i as u32);
        if let Dom::W(iv) = engine.dom(v) {
            if !iv.is_point() && engine.cone.holds_var(v) {
                fm_of.insert(v, solver_of.len() as u32);
                solver_of.push(v);
                bounds.push(*iv);
            }
        }
    }
    let mut problem = Problem::new(bounds);
    // Share the engine's deadline/cancellation with the oracle: a single
    // final check may enumerate huge domains, far outlasting the
    // propagation loop's own poll cadence.
    problem.set_budget(engine.fm_budget());

    // Translate a solver variable into an FM term or constant.
    let value_of = |engine: &Engine, v: VarId| -> Result<i64, ()> {
        match engine.dom(v) {
            Dom::B(t) => t.to_bool().map(i64::from).ok_or(()),
            Dom::W(iv) => iv.as_point().ok_or(()),
        }
    };
    let to_expr = |engine: &Engine, fm_of: &HashMap<VarId, u32>, v: VarId, c: i64| -> LinExpr {
        match fm_of.get(&v) {
            Some(&fv) => LinExpr::var(fv, c),
            None => LinExpr::constant_expr(
                c * value_of(engine, v).expect("fixed at final check"),
            ),
        }
    };

    let mut splits: Vec<Split> = Vec::new();
    let num_cons = engine.compiled.cons.len();
    for ci in 0..num_cons {
        if !engine.cone.holds_cons(ci as u32) {
            continue;
        }
        let kind = &engine.compiled.cons[ci].kind;
        match *kind {
            CKind::Not { .. } | CKind::And { .. } | CKind::Or { .. } | CKind::Xor { .. } => {
                // Boolean logic is fully assigned and verified by ICP.
            }
            CKind::Lin {
                ref terms,
                constant,
            } => {
                let mut e = LinExpr::constant_expr(constant);
                for &(v, c) in terms {
                    e = e.add_scaled(&to_expr(engine, &fm_of, v, c), 1);
                }
                if !e.is_constant() || e.constant() != 0 {
                    problem.add_eq(e, ci);
                }
            }
            CKind::CmpReif { op, out, a, b } => {
                let Dom::B(t) = engine.dom(out) else {
                    unreachable!()
                };
                let asserted = match t.to_bool() {
                    Some(true) => op,
                    Some(false) => op.negate(),
                    None => unreachable!("all Booleans assigned at final check"),
                };
                // Skip when the box already entails the relation.
                let (ia, ib) = (
                    engine.dom(a).as_interval(),
                    engine.dom(b).as_interval(),
                );
                if contract::cmp_entailed(asserted, ia, ib) == Tribool::True {
                    continue;
                }
                let ea = to_expr(engine, &fm_of, a, 1);
                let eb = to_expr(engine, &fm_of, b, 1);
                let diff = ea.add_scaled(&eb, -1); // a − b
                match asserted {
                    CmpOp::Eq => problem.add_eq(diff, ci),
                    CmpOp::Le => problem.add_le(diff, ci),
                    CmpOp::Lt => problem.add_le(diff.plus(1), ci),
                    CmpOp::Ge => problem.add_le(diff.scaled(-1), ci),
                    CmpOp::Gt => problem.add_le(diff.scaled(-1).plus(1), ci),
                    CmpOp::Ne => splits.push(Split {
                        options: vec![
                            SplitOption {
                                eqs: vec![],
                                les: vec![diff.clone().plus(1)], // a < b
                            },
                            SplitOption {
                                eqs: vec![],
                                les: vec![diff.scaled(-1).plus(1)], // a > b
                            },
                        ],
                        tag: ci,
                        diseq: true,
                    }),
                }
            }
            CKind::Ite { out, sel, t, e } => {
                let chosen = match engine.dom(sel).tri().to_bool() {
                    Some(true) => t,
                    Some(false) => e,
                    None => unreachable!("all Booleans assigned at final check"),
                };
                let eo = to_expr(engine, &fm_of, out, 1);
                let ec = to_expr(engine, &fm_of, chosen, -1);
                let eq = eo.add_scaled(&ec, 1);
                if !eq.is_constant() || eq.constant() != 0 {
                    problem.add_eq(eq, ci);
                }
            }
            CKind::Min { out, a, b } | CKind::Max { out, a, b } => {
                let is_min = matches!(engine.compiled.cons[ci].kind, CKind::Min { .. });
                let (ia, ib) = (
                    engine.dom(a).as_interval(),
                    engine.dom(b).as_interval(),
                );
                let eo = to_expr(engine, &fm_of, out, 1);
                let ea = to_expr(engine, &fm_of, a, 1);
                let eb = to_expr(engine, &fm_of, b, 1);
                // Decide the winner by the box when possible.
                let a_wins = if is_min {
                    contract::cmp_entailed(CmpOp::Le, ia, ib)
                } else {
                    contract::cmp_entailed(CmpOp::Ge, ia, ib)
                };
                match a_wins {
                    Tribool::True => problem.add_eq(eo.add_scaled(&ea, -1), ci),
                    Tribool::False => problem.add_eq(eo.add_scaled(&eb, -1), ci),
                    Tribool::Unknown => {
                        // (out = a ∧ a ≤/≥ b) ∨ (out = b ∧ b ≤/≥ a)
                        let rel_ab = ea.add_scaled(&eb, -1); // a − b
                        let (first_le, second_le) = if is_min {
                            (rel_ab.clone(), rel_ab.scaled(-1))
                        } else {
                            (rel_ab.scaled(-1), rel_ab.clone())
                        };
                        splits.push(Split {
                            options: vec![
                                SplitOption {
                                    eqs: vec![eo.clone().add_scaled(&ea, -1)],
                                    les: vec![first_le],
                                },
                                SplitOption {
                                    eqs: vec![eo.add_scaled(&eb, -1)],
                                    les: vec![second_le],
                                },
                            ],
                            tag: ci,
                            diseq: false,
                        });
                    }
                }
            }
        }
    }

    let mut subcalls = 0u64;
    let outcome = solve_with_splits(&problem, &splits, 0, &mut subcalls);
    engine.stats.fm_subcalls += subcalls;
    engine
        .obs
        .fm_call(outcome.is_ok(), subcalls.min(u64::from(u32::MAX)) as u32);
    match outcome {
        Ok(model) => {
            // Assemble a full assignment for every solver variable.
            let values: Vec<i64> = (0..engine.doms.len())
                .map(|i| {
                    let v = VarId(i as u32);
                    match engine.dom(v) {
                        Dom::B(t) => i64::from(t.to_bool().unwrap_or(false)),
                        Dom::W(iv) => match fm_of.get(&v) {
                            Some(&fv) => model[fv as usize],
                            None => iv.lo(),
                        },
                    }
                })
                .collect();
            FinalOutcome::Sat(values)
        }
        Err(SplitErr::Aborted) => {
            let reason = engine.budget_abort_reason();
            engine.set_aborted(reason);
            FinalOutcome::Aborted(reason)
        }
        Err(SplitErr::Unsat(tags, bound_vars)) => {
            // Map the infeasible subset back to trail entries: the latest
            // entries of the cited constraints' variables and of the cited
            // box bounds.
            let tags: Vec<u32> = tags.into_iter().map(|t| t as u32).collect();
            let mut antecedents: Vec<u32> = Vec::new();
            for &tag in &tags {
                for &v in engine.compiled.cons_vars(tag) {
                    if let Some(i) = engine.latest[v.index()] {
                        antecedents.push(i);
                    }
                }
            }
            for fv in bound_vars {
                let v = solver_of[fv as usize];
                if let Some(i) = engine.latest[v.index()] {
                    antecedents.push(i);
                }
            }
            antecedents.sort_unstable();
            antecedents.dedup();
            // Every split was branched on (an infeasible box refutes all
            // leaves); the disequalities among them are recorded.
            let diseqs = splits
                .iter()
                .filter(|s| s.diseq)
                .map(|s| s.tag as u32)
                .collect();
            FinalOutcome::Conflict(ConflictInfo {
                antecedents,
                falsified: Falsified::Box { tags, diseqs },
            })
        }
    }
}

/// DFS over the case-split alternatives; SAT short-circuits, UNSAT merges
/// the per-branch conflicts (plus the split's own tag).
fn solve_with_splits(
    base: &Problem,
    splits: &[Split],
    depth: usize,
    subcalls: &mut u64,
) -> Result<Vec<i64>, SplitErr> {
    if depth == splits.len() {
        *subcalls += 1;
        return match base.solve() {
            FmOutcome::Sat(m) => Ok(m),
            FmOutcome::Unsat(c) => Err(SplitErr::Unsat(c.tags, c.bound_vars)),
            FmOutcome::Aborted => Err(SplitErr::Aborted),
        };
    }
    let split = &splits[depth];
    let mut tags_acc: Vec<usize> = vec![split.tag];
    let mut bounds_acc: Vec<u32> = Vec::new();
    for opt in &split.options {
        let mut branch = base.clone();
        for e in &opt.eqs {
            branch.add_eq(e.clone(), split.tag);
        }
        for e in &opt.les {
            branch.add_le(e.clone(), split.tag);
        }
        match solve_with_splits(&branch, splits, depth + 1, subcalls) {
            Ok(m) => return Ok(m),
            Err(SplitErr::Aborted) => return Err(SplitErr::Aborted),
            Err(SplitErr::Unsat(t, b)) => {
                tags_acc.extend(t);
                bounds_acc.extend(b);
            }
        }
    }
    tags_acc.sort_unstable();
    tags_acc.dedup();
    bounds_acc.sort_unstable();
    bounds_acc.dedup();
    Err(SplitErr::Unsat(tags_acc, bounds_acc))
}
