//! The paper's Algorithm 1 search loop (DESIGN.md §2.3), shared by
//! one-shot solves ([`crate::Solver`]) and session queries
//! ([`crate::Session`]). It runs under an assumption prefix, assumption
//! `i` pinned as the decision of level `i + 1`; a one-shot solve runs it
//! with an empty prefix, its goal asserted at level 0 beforehand.

use std::time::{Duration, Instant};

use rtl_obs::{ObsHandle, PhaseAcc};

use crate::decide::{pick_activity, LearnWeights};
use crate::engine::{ConflictInfo, Engine, EngineStats, Propagation};
use crate::final_check::{final_check, FinalOutcome};
use crate::justify::{pick_structural, Structural, StructuralIndex};
use crate::prooflog::ProofLog;
use crate::solver::{LearningMode, Limits, SolverConfig};
use crate::supervise::CancelToken;
use crate::types::{AbortReason, DecisionStrategy, Dom, RestartMode, VarId};

/// Phase slots of the search loop's [`PhaseAcc`] (DESIGN.md §2.14):
/// time is accumulated locally at phase boundaries and flushed into
/// the profiler as leaves under the `search` span once per run.
pub(crate) const P_PROPAGATE: usize = 0;
pub(crate) const P_DECIDE: usize = 1;
pub(crate) const P_ANALYZE: usize = 2;
pub(crate) const P_RESTART: usize = 3;
pub(crate) const P_PROOF: usize = 4;
pub(crate) const P_FINAL: usize = 5;
pub(crate) const SEARCH_PHASES: usize = 6;
const SEARCH_PHASE_NAMES: [&str; SEARCH_PHASES] = [
    "propagate",
    "decide",
    "analyze",
    "restart",
    "proof",
    "final_check",
];

/// Flushes a search-loop accumulator into the profiler as leaves under
/// the currently open span.
pub(crate) fn flush_search_phases(obs: &ObsHandle, acc: &PhaseAcc<SEARCH_PHASES>) {
    if !acc.is_on() {
        return;
    }
    for (i, name) in SEARCH_PHASE_NAMES.iter().enumerate() {
        let (ns, count, hist) = acc.phase(i);
        obs.profile_leaf(name, ns, count, hist);
    }
}

/// How a search concluded.
pub(crate) enum Outcome {
    /// The final check's point, one value per variable.
    Sat(Vec<i64>),
    /// The empty clause was derived: unsat whatever the assumptions.
    RootUnsat,
    /// An assumption was implied false below its own level.
    AssumptionConflict,
    Unknown(AbortReason),
}

/// Arms `engine` for one solve or query with the budget of `limits`
/// (the propagation cap counts from now, [`Engine::set_budget`]) and
/// the telemetry handle. Returns the deadline for [`Search::deadline`].
pub(crate) fn arm(
    engine: &mut Engine,
    limits: &Limits,
    cancel: Option<CancelToken>,
    obs: &ObsHandle,
) -> Option<Instant> {
    let deadline = limits.max_time.map(|t| Instant::now() + t);
    engine.set_budget(
        deadline,
        cancel.map(|c| c.flag()),
        limits.max_propagations,
        limits.max_memory,
    );
    engine.set_obs(obs.clone());
    deadline
}

/// One run of the loop.
pub(crate) struct Search<'a> {
    pub config: &'a SolverConfig,
    /// The structural decision index over the engine's problem,
    /// present exactly under [`DecisionStrategy::Structural`].
    pub index: Option<&'a StructuralIndex>,
    /// Predicate-learning decision weights, when the pass ran.
    pub weights: Option<&'a LearnWeights>,
    /// The assumption prefix: entry `i` is pinned at level `i + 1`.
    pub assumptions: &'a [(VarId, bool)],
    /// The counters the limits charge from: engine creation for a
    /// one-shot solve (so predicate-pass probes count), the query's
    /// start for a session query.
    pub base: EngineStats,
    pub deadline: Option<Instant>,
}

impl Search<'_> {
    /// Runs Algorithm 1 until a verdict or a budget stop, booking phase
    /// time into `acc`. Also returns the loop's wall time.
    pub(crate) fn run(
        &self,
        engine: &mut Engine,
        proof: &mut Option<ProofLog>,
        acc: &mut PhaseAcc<SEARCH_PHASES>,
    ) -> (Outcome, Duration) {
        // Chronological flipping would flip pinned assumption decisions.
        debug_assert!(
            self.config.learning != LearningMode::None || self.assumptions.is_empty(),
            "learning-free search runs without assumptions"
        );
        debug_assert_eq!(
            self.index.is_some(),
            self.config.decision == DecisionStrategy::Structural
        );
        let start = Instant::now();
        acc.begin();
        let outcome = loop {
            match engine.propagate() {
                Propagation::Conflict(conflict) => {
                    acc.tick(P_PROPAGATE);
                    if !self.handle_conflict(engine, proof, &conflict, acc) {
                        break Outcome::RootUnsat;
                    }
                    continue;
                }
                Propagation::Aborted(reason) => {
                    acc.tick(P_PROPAGATE);
                    break Outcome::Unknown(reason);
                }
                Propagation::Fixpoint => acc.tick(P_PROPAGATE),
            }
            if let Some(reason) = self.exceeded(engine) {
                break Outcome::Unknown(reason);
            }
            // Re-establish the assumption prefix: level `i + 1` carries
            // assumption `i` (an empty level when it is already
            // implied). Backjumps and restarts may unwind into the
            // prefix; this rebuilds it.
            if let Some(&(var, value)) = self.assumptions.get(engine.level() as usize) {
                match engine.dom(var) {
                    Dom::B(t) => match t.to_bool() {
                        Some(v) if v == value => engine.open_level(),
                        Some(_) => break Outcome::AssumptionConflict,
                        None => engine.decide(var, value),
                    },
                    Dom::W(_) => unreachable!("assumptions are validated Boolean"),
                }
                acc.tick(P_DECIDE);
                continue;
            }
            let decision = match self.index {
                Some(index) => match pick_structural(engine, index, self.weights) {
                    Structural::Decision(var, value) => Some((var, value)),
                    Structural::Done => None,
                    Structural::JConflict(conflict) => {
                        engine.stats.j_conflicts += 1;
                        acc.tick(P_DECIDE);
                        if !self.handle_conflict(engine, proof, &conflict, acc) {
                            break Outcome::RootUnsat;
                        }
                        continue;
                    }
                },
                None => pick_activity(engine, self.weights, true),
            };
            if let Some((var, value)) = decision {
                engine.decide(var, value);
                acc.tick(P_DECIDE);
                continue;
            }
            acc.tick(P_DECIDE);
            // All decision variables assigned: arithmetic check of the
            // solution box (§2.4).
            let outcome = final_check(engine);
            acc.tick(P_FINAL);
            match outcome {
                FinalOutcome::Sat(values) => break Outcome::Sat(values),
                FinalOutcome::Conflict(conflict) => {
                    if !self.handle_conflict(engine, proof, &conflict, acc) {
                        break Outcome::RootUnsat;
                    }
                }
                FinalOutcome::Aborted(reason) => break Outcome::Unknown(reason),
            }
        };
        (outcome, start.elapsed())
    }

    /// Learns from `conflict` and backjumps (learning-free: flips the
    /// latest unflipped decision); `false` when the conflict rests on
    /// level 0 alone.
    fn handle_conflict(
        &self,
        engine: &mut Engine,
        proof: &mut Option<ProofLog>,
        conflict: &ConflictInfo,
        acc: &mut PhaseAcc<SEARCH_PHASES>,
    ) -> bool {
        let live = match self.config.learning {
            LearningMode::Hybrid | LearningMode::BoolOnly => {
                let bool_only = self.config.learning == LearningMode::BoolOnly;
                match engine.analyze_mode(conflict, bool_only) {
                    None => false,
                    Some(mut a) => {
                        let used = std::mem::take(&mut a.used);
                        let hints = a.hints.take();
                        let cid = engine.learn_and_backtrack(a);
                        acc.tick(P_ANALYZE);
                        if let Some(p) = proof.as_mut() {
                            p.log_engine_clause(engine, cid, Vec::new(), &used, hints);
                            acc.tick(P_PROOF);
                        }
                        // Scheduled restart, then DB housekeeping
                        // (post-restart the trail is short, so few
                        // lemmas are locked as reasons).
                        if engine.should_restart(self.restart_mode()) {
                            engine.restart();
                            acc.tick(P_RESTART);
                        }
                        if let Some(dropped) = engine.maybe_reduce(&self.config.db) {
                            if let Some(p) = proof.as_mut() {
                                let nth = engine.stats.db_reductions - 1;
                                if engine.faults.corrupt_deletion == Some(nth) {
                                    p.log_bogus_deletion();
                                }
                                p.log_deletions(&dropped);
                                acc.tick(P_PROOF);
                            }
                        }
                        true
                    }
                }
            }
            LearningMode::None => {
                engine.stats.conflicts += 1;
                // The decision path is refuted before it is popped: the
                // path lemmas speak about the stack as it stands.
                if let Some(p) = proof.as_mut() {
                    p.log_path(&engine.decision_stack());
                    acc.tick(P_PROOF);
                }
                engine.flip_chronological()
            }
        };
        acc.tick(P_ANALYZE);
        live
    }

    /// Scheduled restarts apply to the activity strategy only: under
    /// the structural one a restart forfeits the interval narrowing the
    /// whole descent paid for (DESIGN.md §2.10). Level-0 forced
    /// restarts are unaffected.
    fn restart_mode(&self) -> RestartMode {
        match self.config.decision {
            DecisionStrategy::Activity => self.config.restarts,
            DecisionStrategy::Structural => RestartMode::Off,
        }
    }

    /// The limit check between loop iterations, counters charged from
    /// [`Search::base`].
    fn exceeded(&self, engine: &Engine) -> Option<AbortReason> {
        let (l, s, b) = (&self.config.limits, &engine.stats, &self.base);
        let over = |m: Option<u64>, now: u64, then: u64| m.is_some_and(|m| now - then >= m);
        if over(l.max_decisions, s.decisions, b.decisions) {
            Some(AbortReason::Decisions)
        } else if over(l.max_conflicts, s.conflicts, b.conflicts) {
            Some(AbortReason::Conflicts)
        } else if over(l.max_propagations, s.propagations, b.propagations) {
            Some(AbortReason::Propagations)
        } else if l.max_memory.is_some_and(|m| engine.approx_mem_bytes() > m) {
            Some(AbortReason::Memory)
        } else if self.deadline.is_some_and(|d| Instant::now() >= d) {
            Some(AbortReason::Deadline)
        } else {
            None
        }
    }
}

/// The engine-counter projection closing a solve or query: the engine's
/// counters with a final `mem_peak` sample (in-loop sampling runs only
/// at poll cadence, so a short run would otherwise report a zero peak).
/// Telemetry records the counters spent since `base` and max-merges the
/// peaks, so both stay monotonic across a supervisor ladder's stages.
pub(crate) fn finish_stats(engine: &Engine, base: &EngineStats, obs: &ObsHandle) -> EngineStats {
    let mut s = engine.stats;
    s.mem_peak = s.mem_peak.max(engine.approx_mem_bytes());
    if obs.on() {
        for ((name, now), (_, then)) in counters(&s).into_iter().zip(counters(base)) {
            obs.record_counter(name, now - then);
        }
        for (name, v) in [
            ("max_cqueue", s.max_cqueue),
            ("max_clqueue", s.max_clqueue),
            ("ant_pool_peak", s.ant_pool_peak),
            ("mem_peak", s.mem_peak),
        ] {
            obs.record_peak(name, v);
        }
    }
    s
}

/// The engine counters telemetry records, by name.
fn counters(s: &EngineStats) -> [(&'static str, u64); 16] {
    [
        ("decisions", s.decisions),
        ("propagations", s.propagations),
        ("narrowings", s.narrowings),
        ("clause_props", s.clause_props),
        ("conflicts", s.conflicts),
        ("learned", s.learned),
        ("backtracks", s.backtracks),
        ("restarts", s.restarts),
        ("restarts_scheduled", s.restarts_scheduled),
        ("db_reductions", s.db_reductions),
        ("lemmas_deleted", s.lemmas_deleted),
        ("fm_calls", s.fm_calls),
        ("fm_subcalls", s.fm_subcalls),
        ("j_conflicts", s.j_conflicts),
        ("probe_hits", s.probe_hits),
        ("probe_misses", s.probe_misses),
    ]
}
