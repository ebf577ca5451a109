//! The baseline `Decide()` heuristic of HDPLL \[9\] (paper §2.4): Boolean
//! decision variables ranked by an exponentially decaying activity seeded
//! with original fanout and bumped by learned-clause membership; with
//! predicate learning enabled, static relation weights bias both the
//! variable order and the value choice (§3 step 5, §4.4).

use crate::engine::Engine;
use crate::types::VarId;

/// Per-variable weights derived from static predicate learning: how many
/// learned relations each `(variable, value)` pair satisfies.
#[derive(Clone, Debug, Default)]
pub(crate) struct LearnWeights {
    /// `weight[var][value as usize]` — count of learned relations whose
    /// clause contains the literal `var = value`.
    pub by_value: Vec<[f64; 2]>,
}

impl LearnWeights {
    pub fn new(num_vars: usize) -> Self {
        Self {
            by_value: vec![[0.0; 2]; num_vars],
        }
    }

    /// Grows the weight table to cover variables added by an
    /// incremental extension (new variables start unweighted — the
    /// static learning pass only ran over the original segment).
    pub fn grow(&mut self, num_vars: usize) {
        if num_vars > self.by_value.len() {
            self.by_value.resize(num_vars, [0.0; 2]);
        }
    }

    pub fn var_weight(&self, v: VarId) -> f64 {
        let [a, b] = self.by_value[v.index()];
        a + b
    }

    /// The value of `v` satisfying the larger number of learned relations
    /// (§4.4: "select the value that satisfies the maximum number of
    /// learned relations").
    pub fn preferred_value(&self, v: VarId) -> bool {
        let [w_false, w_true] = self.by_value[v.index()];
        w_true >= w_false
    }
}

/// Picks the next decision: the unassigned Boolean decision variable with
/// the highest combined activity, or `None` when all are assigned. Under
/// a session query's cone ([`crate::engine::Cone`]) only the cone's
/// variables count.
///
/// `use_saved_phase` enables phase saving for the value choice. The
/// activity strategy passes `true` — repeating the last value rebuilds
/// the subtree a restart or backjump abandoned, which is what makes
/// scheduled restarts cheap. The structural strategy's frontier-empty
/// fallback passes `false` (see `justify::pick_structural`).
pub(crate) fn pick_activity(
    engine: &Engine,
    weights: Option<&LearnWeights>,
    use_saved_phase: bool,
) -> Option<(VarId, bool)> {
    let mut best: Option<(VarId, f64)> = None;
    for &v in &engine.compiled.decision_vars {
        if engine.dom(v).is_fixed() || !engine.cone.holds_var(v) {
            continue;
        }
        let mut score = engine.activity[v.index()];
        if let Some(w) = weights {
            score += 10.0 * w.var_weight(v);
        }
        match best {
            Some((_, s)) if s >= score => {}
            _ => best = Some((v, score)),
        }
    }
    let (var, _) = best?;
    // Value choice: the saved phase (the value this variable last held
    // before being unassigned) when enabled and present, else the
    // learned-relation preference (§4.4), then `false`.
    let saved = if use_saved_phase {
        engine.saved_phase(var).to_bool()
    } else {
        None
    };
    let value = match saved {
        Some(saved) => saved,
        None => weights.map(|w| w.preferred_value(var)).unwrap_or(false),
    };
    Some((var, value))
}
