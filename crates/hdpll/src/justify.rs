//! Structural decision strategy: RTL justification (paper §4).
//!
//! Instead of picking decision variables by activity alone, the structural
//! strategy maintains a *J-frontier* — the set of unjustified Boolean gates
//! and justifiable RTL operators (Definition 4.1) — and decides values that
//! justify frontier members:
//!
//! * an `AND` whose output is 0 with no 0-input yet (resp. `OR`/1) is
//!   justified by deciding a controlling value on one unassigned input,
//!   chosen by fanout and distance-from-inputs heuristics;
//! * a multiplexer whose output interval is required but whose select is
//!   free is justified by deciding the select value whose data input
//!   interval intersects the required output interval (the paper's
//!   Figure 4 walk-through);
//! * pure arithmetic operators (`+`, `−`, `×k`, shifts, extraction, sign
//!   extension) are **not** justifiable — their consistency is established
//!   by interval constraint propagation alone (§4.2).
//!
//! When no select value can satisfy the required output interval, a
//! *J-conflict* (§4.3) is raised; the solver analyzes its causes on the
//! hybrid implication graph exactly like a propagation conflict, learns a
//! clause, and backtracks non-chronologically. (Most mux J-conflicts are
//! already caught by the `ite` contractor during deduction; the check here
//! covers the remaining races.)

use rtl_interval::{Interval, Tribool};

use crate::compile::CKind;
use crate::decide::{pick_activity, LearnWeights};
use crate::engine::{ConflictInfo, Engine, Falsified};
use crate::types::{Dom, VarId};

/// What the structural `Decide()` found.
pub(crate) enum Structural {
    /// Decide `var = value`.
    Decision(VarId, bool),
    /// Every decision variable is assigned (run the final check).
    Done,
    /// A J-conflict: no decision can justify a frontier operator.
    JConflict(ConflictInfo),
}

/// Per-constraint static info for the structural strategy, precomputed once.
#[derive(Clone, Debug)]
pub(crate) struct StructuralIndex {
    /// Constraint ids that can ever be frontier members (Boolean gates and
    /// muxes), in reverse topological order (closest to outputs first).
    candidates: Vec<u32>,
    /// Per-variable fanout+level score for input choice.
    input_score: Vec<f64>,
}

impl StructuralIndex {
    pub fn new(engine: &Engine, levels: &[u32]) -> Self {
        let mut candidates: Vec<u32> = engine
            .compiled
            .cons
            .iter()
            .enumerate()
            .filter(|(_, c)| {
                matches!(
                    c.kind,
                    CKind::And { .. } | CKind::Or { .. } | CKind::Xor { .. } | CKind::Ite { .. }
                )
            })
            .map(|(i, _)| i as u32)
            .collect();
        candidates.reverse();
        // Favor high fanout, then proximity to the primary inputs (lower
        // level) — the paper's "fanout-count and distance from the inputs".
        let max_level = f64::from(levels.iter().copied().max().unwrap_or(0) + 1);
        let input_score = engine
            .compiled
            .fanout_seed
            .iter()
            .enumerate()
            .map(|(i, &f)| {
                let lvl = levels.get(i).copied().unwrap_or(0);
                f * max_level + (max_level - f64::from(lvl))
            })
            .collect();
        StructuralIndex {
            candidates,
            input_score,
        }
    }
}

/// The structural `Decide()` (Algorithm 2).
pub(crate) fn pick_structural(
    engine: &Engine,
    index: &StructuralIndex,
    weights: Option<&LearnWeights>,
) -> Structural {
    for &ci in &index.candidates {
        let kind = &engine.compiled.cons[ci as usize].kind;
        match kind {
            CKind::And { out, ins } | CKind::Or { out, ins } => {
                let is_and = matches!(kind, CKind::And { .. });
                let controlling = !is_and; // AND controlled by 0, OR by 1
                let out_val = engine.dom(*out).tri();
                let needs = match out_val.to_bool() {
                    Some(v) => v == controlling,
                    None => continue, // output unassigned: not a frontier member
                };
                if !needs {
                    continue;
                }
                // Already justified by some controlling input?
                if ins
                    .iter()
                    .any(|&i| engine.dom(i).tri().to_bool() == Some(controlling))
                {
                    continue;
                }
                // Choose the unassigned input with the best heuristic score.
                let pick = ins
                    .iter()
                    .copied()
                    .filter(|&i| !engine.dom(i).is_fixed())
                    .max_by(|&a, &b| {
                        index.input_score[a.index()]
                            .total_cmp(&index.input_score[b.index()])
                    });
                match pick {
                    Some(input) => return Structural::Decision(input, controlling),
                    None => {
                        // All inputs assigned non-controlling but the output
                        // demands a controlling one: a propagation conflict
                        // the contractor will raise; skip here.
                        continue;
                    }
                }
            }
            CKind::Xor { out, a, b }
                if engine.dom(*out).tri().is_assigned()
                    && !engine.dom(*a).is_fixed()
                    && !engine.dom(*b).is_fixed() =>
            {
                let value = weights.map(|w| w.preferred_value(*a)).unwrap_or(false);
                return Structural::Decision(*a, value);
            }
            CKind::Ite { out, sel, t, e } => {
                if engine.dom(*sel).tri().is_assigned() {
                    continue;
                }
                let out_iv = engine.dom(*out).iv();
                let t_iv = engine.dom(*t).iv();
                let e_iv = engine.dom(*e).iv();
                // Justified when the output requirement is no tighter than
                // what the inputs guarantee (Def. 4.1: interval uniquely
                // determined by inputs).
                if out_iv.contains_interval(t_iv.hull(e_iv)) {
                    continue;
                }
                let t_ok = out_iv.intersects(t_iv);
                let e_ok = out_iv.intersects(e_iv);
                match (t_ok, e_ok) {
                    (false, false) => {
                        // J-conflict: the causes are the implying literals
                        // of the output requirement and of both blocking
                        // data intervals (§4.3).
                        let mut ants = Vec::new();
                        for v in [*out, *t, *e] {
                            if let Some(i) = engine.latest[v.index()] {
                                ants.push(i);
                            }
                        }
                        return Structural::JConflict(ConflictInfo {
                            antecedents: ants,
                            falsified: Falsified::Constraint(ci),
                        });
                    }
                    (true, false) => return Structural::Decision(*sel, true),
                    (false, true) => return Structural::Decision(*sel, false),
                    (true, true) => {
                        let value = weights.map(|w| w.preferred_value(*sel)).unwrap_or(true);
                        return Structural::Decision(*sel, value);
                    }
                }
            }
            _ => {}
        }
    }
    // J-frontier empty: assign remaining free Booleans by activity,
    // but WITHOUT saved phases: this endgame value policy (learned-
    // relation preference, then `false`) picks the solution boxes the
    // arithmetic final check sees, and replaying stale phases here
    // steers it into far more expensive Fourier–Motzkin calls.
    match pick_activity(engine, weights, false) {
        Some((var, value)) => Structural::Decision(var, value),
        None => Structural::Done,
    }
}

/// `true` if the mux output requirement makes the operator a frontier
/// member under the given domains — exposed for the Figure-3 unit tests.
#[must_use]
pub fn ite_unjustified(out: Interval, sel: Tribool, t: Interval, e: Interval) -> bool {
    !sel.is_assigned() && !out.contains_interval(t.hull(e))
}

/// `true` if a Boolean gate output is unjustified: the output holds the
/// controlling-value result but no input currently provides the
/// controlling value — exposed for the Figure-3 unit tests.
#[must_use]
pub fn gate_unjustified(is_and: bool, out: Tribool, ins: &[Tribool]) -> bool {
    let controlling = !is_and;
    out.to_bool() == Some(controlling)
        && !ins.iter().any(|t| t.to_bool() == Some(controlling))
        && ins.iter().any(|t| !t.is_assigned())
}

/// Marker used by `Dom`-free helpers above.
#[allow(dead_code)]
fn _assert_dom_unused(_: &Dom) {}
