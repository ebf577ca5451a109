//! Predicate-based static learning (paper §3): recursive learning on the
//! predicate logic of an RTL circuit, extended across the data-path by
//! interval constraint propagation.
//!
//! The pass runs before search, at decision level 0:
//!
//! 1. The predicate logic is extracted by cone-of-influence analysis and
//!    level-ordered ([`rtl_ir::analysis::predicate_logic`]).
//! 2. For each candidate signal and each *controlling* value with more than
//!    one justification way (e.g. `or = 1` can be satisfied by either
//!    input), every way is propagated **in isolation** — Boolean *and*
//!    interval propagation, so implications flow through the data-path and
//!    back (this is how Figure 2 learns `(¬b8 ∨ b9)` through two
//!    multiplexers and a comparator).
//! 3. Implications common to *all* ways are learned as 2-clauses
//!    (`val(s) → a` becomes `(¬val(s) ∨ a)`), which immediately
//!    participate in later probes — the bootstrapping visible in
//!    Figure 2(b), where clauses from probes 1–2 enable probes 3–4.
//! 4. If every way of a probe conflicts, the probed assignment itself is
//!    refuted and learned as a unit clause.
//! 5. Learning stops at a configurable threshold (the paper uses 2500 for
//!    Table 1 and `min(#predicate gates, 2000)` for Table 2); the learned
//!    relations weight the decision heuristic (§3 step 5).

use std::collections::HashSet;
use std::time::{Duration, Instant};

use rtl_ir::{analysis, Netlist, Op, SignalId};

use crate::decide::LearnWeights;
use crate::engine::{Engine, Propagation};
use crate::prooflog::ProofLog;
use crate::types::{Dom, HLit, VarId};
use rtl_proof::PSplit;

/// One learned relation: the clause literals (over solver variables whose
/// indices match netlist signal indices).
pub type Relation = Vec<HLit>;

/// Configuration of the static learning pass.
#[derive(Clone, Copy, Debug)]
pub struct LearnConfig {
    /// Stop after learning this many relations (paper: 2500 in Table 1,
    /// `min(#predicate gates, 2000)` in Table 2).
    pub threshold: usize,
    /// Stop after this many value probes regardless of yield — bounds the
    /// pass on circuits whose predicates rarely correlate (the paper notes
    /// the incremental cost can reach 10× the solve time when uncapped).
    pub max_probes: usize,
}

impl Default for LearnConfig {
    fn default() -> Self {
        Self {
            threshold: 2000,
            max_probes: 20_000,
        }
    }
}

impl LearnConfig {
    /// A learning configuration with the given relation threshold and the
    /// default probe cap.
    #[must_use]
    pub fn with_threshold(threshold: usize) -> Self {
        Self {
            threshold,
            ..Self::default()
        }
    }

    /// The Table 2 threshold rule: `min(#predicate logic gates, 2000)`.
    #[must_use]
    pub fn table2_for(netlist: &Netlist) -> Self {
        Self::with_threshold(analysis::predicate_logic(netlist).len().min(2000))
    }
}

/// Outcome of the static learning pass (columns 3–4 of the paper's
/// Table 1).
#[derive(Clone, Debug, Default)]
pub struct LearnReport {
    /// Number of relations (clauses) learned.
    pub relations: usize,
    /// Wall-clock time of the pass.
    pub time: Duration,
    /// Number of value probes executed.
    pub probes: usize,
    /// `true` if learning refuted the instance outright.
    pub proved_unsat: bool,
    /// The learned relations themselves, in learning order (the contents
    /// of the paper's Figure 2(b) trace).
    pub clauses: Vec<Relation>,
}

/// One justification way: assignments to apply together with the probed
/// value.
type Way = Vec<(VarId, bool)>;

/// The ways of satisfying `sig = value`, when there is a *choice* (≥ 2
/// ways). Single-way values are direct implications that ordinary
/// propagation already finds, so they are not probed.
fn ways_of(
    compiled: &crate::compile::Compiled,
    netlist: &Netlist,
    sig: SignalId,
    value: bool,
) -> Option<Vec<Way>> {
    let v = |s: SignalId| compiled.var_of(s);
    match netlist.op(sig) {
        Op::And(ins) if !value && ins.len() >= 2 => {
            Some(ins.iter().map(|&i| vec![(v(i), false)]).collect())
        }
        Op::Or(ins) if value && ins.len() >= 2 => {
            Some(ins.iter().map(|&i| vec![(v(i), true)]).collect())
        }
        Op::Xor(a, b) => Some(vec![
            vec![(v(*a), false), (v(*b), value)],
            vec![(v(*a), true), (v(*b), !value)],
        ]),
        _ => None,
    }
}

/// The case-split hints a probe's lemma carries into the proof: one
/// Boolean split per justification way except the last. Branching on
/// the first assignment of each way reproduces the probe's case
/// analysis inside the checker — in every branch either some way's
/// seed assignment holds (and the checker re-derives that way's
/// conflict or common implication) or all-but-one seeds are refuted,
/// which forces the remaining way by unit propagation on the gate.
fn way_split_hints(ways: &[Way]) -> Vec<PSplit> {
    ways[..ways.len() - 1]
        .iter()
        .map(|w| PSplit::Bool {
            var: w[0].0.index() as u32,
        })
        .collect()
}

/// Runs the pass. Learned clauses are added to `engine` (static, level 0)
/// and their literals accumulated into `weights`; with proof logging
/// enabled each learned relation also becomes a proof step.
pub(crate) fn run(
    engine: &mut Engine,
    netlist: &Netlist,
    config: &LearnConfig,
    weights: &mut LearnWeights,
    proof: &mut Option<ProofLog>,
) -> LearnReport {
    let start = Instant::now();
    let mut report = LearnReport::default();
    let candidates = analysis::predicate_logic(netlist);
    let mut seen_clauses: HashSet<(VarId, bool, VarId, bool)> = HashSet::new();
    // Reused across all probes (see the intersection loop below).
    let mut common: Vec<(VarId, bool)> = Vec::new();
    let mut implied: Vec<(VarId, bool)> = Vec::new();

    'candidates: for &sig in &candidates {
        if report.relations >= config.threshold || report.probes >= config.max_probes {
            break;
        }
        // A tripped budget (deadline/cancellation) is sticky in the
        // engine; learning simply stops early with what it has — every
        // clause learned so far is sound.
        if engine.abort_reason().is_some() {
            break;
        }
        let var = engine.compiled.var_of(sig);
        if engine.dom(var).is_fixed() {
            continue;
        }
        for value in [false, true] {
            // Clauses learned by the previous probe may have fixed the
            // candidate at level 0 in the meantime.
            if engine.dom(var).is_fixed() {
                break;
            }
            let Some(ways) = ways_of(&engine.compiled, netlist, sig, value) else {
                continue;
            };
            report.probes += 1;

            // Probe each way in isolation and intersect the implied Boolean
            // assignments. Both buffers are reused across ways and probes;
            // each way's implications are sorted and the running
            // intersection kept sorted, so the intersection is a binary-
            // search retain instead of a rebuilt hash set per way — and the
            // learned clauses come out in a deterministic (sorted) order
            // regardless of how the ways were enumerated.
            common.clear();
            let mut first_way = true;
            let mut all_conflict = true;
            for way in &ways {
                implied.clear();
                if !probe(engine, var, value, way, &mut implied) {
                    // This way is infeasible; it contributes no
                    // implications but the probe value may still be
                    // satisfiable through other ways.
                    continue;
                }
                all_conflict = false;
                implied.sort_unstable();
                if first_way {
                    common.extend_from_slice(&implied);
                    first_way = false;
                } else {
                    common.retain(|x| implied.binary_search(x).is_ok());
                }
            }

            if all_conflict {
                // Every way conflicts: val(sig) is itself infeasible.
                let unit = vec![HLit::Bool {
                    var,
                    value: !value,
                }];
                report.clauses.push(unit.clone());
                let cid = engine.add_clause(unit, true);
                if let Some(p) = proof.as_mut() {
                    p.log_engine_clause(engine, cid, way_split_hints(&ways), &[], None);
                }
                report.relations += 1;
                engine.stats.probe_hits += 1;
                engine
                    .obs
                    .way_split(var.index() as u32, value, ways.len() as u32, 1);
                weights.by_value[var.index()][usize::from(!value)] += 1.0;
                if matches!(engine.propagate(), Propagation::Conflict(_)) {
                    report.proved_unsat = true;
                    report.time = start.elapsed();
                    return report;
                }
                continue;
            }

            // Learn each common implication as (¬val(sig) ∨ implication).
            let relations_before = report.relations;
            for &(t_var, t_val) in &common {
                if t_var == var {
                    continue;
                }
                if report.relations >= config.threshold {
                    break;
                }
                if !seen_clauses.insert((var, value, t_var, t_val)) {
                    continue;
                }
                let clause = vec![
                    HLit::Bool { var, value: !value },
                    HLit::Bool {
                        var: t_var,
                        value: t_val,
                    },
                ];
                report.clauses.push(clause.clone());
                let cid = engine.add_clause(clause, true);
                if let Some(p) = proof.as_mut() {
                    p.log_engine_clause(engine, cid, way_split_hints(&ways), &[], None);
                }
                report.relations += 1;
                weights.by_value[var.index()][usize::from(!value)] += 1.0;
                weights.by_value[t_var.index()][usize::from(t_val)] += 1.0;
            }
            let learned = (report.relations - relations_before) as u32;
            if learned > 0 {
                engine.stats.probe_hits += 1;
            } else {
                engine.stats.probe_misses += 1;
            }
            engine
                .obs
                .way_split(var.index() as u32, value, ways.len() as u32, learned);
            if report.relations >= config.threshold {
                continue 'candidates;
            }
            if matches!(engine.propagate(), Propagation::Conflict(_)) {
                report.proved_unsat = true;
                report.time = start.elapsed();
                return report;
            }
        }
    }
    report.time = start.elapsed();
    report
}

/// Applies `sig = value` plus the way's assignments at a scratch decision
/// level, propagates (Boolean + interval), and appends every *additional*
/// Boolean assignment implied to `implied` (a caller-owned buffer).
/// Returns `false` — appending nothing — if the way conflicts.
fn probe(
    engine: &mut Engine,
    var: VarId,
    value: bool,
    way: &[(VarId, bool)],
    implied: &mut Vec<(VarId, bool)>,
) -> bool {
    let base_level = engine.level();
    engine.decide(var, value);
    // An aborted propagation is *not* a conflict: the trail holds a
    // sound (possibly incomplete) subset of implications, and `run`
    // stops probing once it sees the sticky abort.
    let mut ok = !matches!(engine.propagate(), Propagation::Conflict(_));
    if ok {
        for &(w_var, w_val) in way {
            match engine.dom(w_var).tri().to_bool() {
                Some(existing) if existing != w_val => {
                    ok = false;
                    break;
                }
                Some(_) => {}
                None => {
                    engine.decide(w_var, w_val);
                    if matches!(engine.propagate(), Propagation::Conflict(_)) {
                        ok = false;
                        break;
                    }
                }
            }
        }
    }
    if ok {
        // The seed set (the probed variable plus the way's assignments) is
        // at most three entries, so a linear scan beats building a set.
        let is_seed = |v: VarId| v == var || way.iter().any(|&(w, _)| w == v);
        let start = engine.trail_lim[base_level as usize];
        for e in &engine.trail[start..] {
            if let Dom::B(t) = e.new {
                if !is_seed(e.var) {
                    if let Some(b) = t.to_bool() {
                        implied.push((e.var, b));
                    }
                }
            }
        }
    }
    engine.backtrack(base_level);
    ok
}
