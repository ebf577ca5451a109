//! The public HDPLL solver API (the paper's Algorithm 1).

use std::collections::HashMap;
use std::time::{Duration, Instant};

use rtl_ir::{analysis, eval, Netlist, SignalId};

use crate::compile::{compile, Compiled};
use crate::decide::{pick_activity, LearnWeights};
use crate::engine::{Engine, EngineStats, Propagation};
use crate::final_check::{final_check, FinalOutcome};
use crate::justify::{pick_structural, Structural, StructuralIndex};
use crate::predlearn::{self, LearnConfig, LearnReport};
use crate::prooflog::ProofLog;
use crate::supervise::{CancelToken, FaultPlan};
use crate::types::{AbortReason, ClauseDbConfig, DecisionStrategy, Dom, RestartMode};
use rtl_interval::Tribool;
use rtl_obs::{DurHist, ObsHandle, PhaseAcc};
use rtl_proof::{CheckReport, Checker, Proof};

/// Phase slots of the search loop's [`PhaseAcc`] (DESIGN.md §2.14):
/// time is accumulated locally at phase boundaries and flushed into
/// the profiler as leaves under the `search` span once per solve.
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
/// the currently open span (shared by [`Solver`] and
/// [`crate::session::Session`]).
pub(crate) fn flush_search_phases(obs: &ObsHandle, acc: &PhaseAcc<SEARCH_PHASES>) {
    if !acc.is_on() {
        return;
    }
    for (i, name) in SEARCH_PHASE_NAMES.iter().enumerate() {
        let (ns, count, hist) = acc.phase(i);
        obs.profile_leaf(name, ns, count, hist);
    }
}

/// Resource budget for [`Solver::solve`]; exceeding any bound returns
/// [`HdpllResult::Unknown`] (the experiment harness's "timeout").
#[derive(Clone, Copy, Debug, Default)]
pub struct Limits {
    /// Maximum number of decisions.
    pub max_decisions: Option<u64>,
    /// Maximum number of conflicts.
    pub max_conflicts: Option<u64>,
    /// Maximum number of constraint propagation steps.
    pub max_propagations: Option<u64>,
    /// Wall-clock budget.
    pub max_time: Option<Duration>,
    /// Approximate cap, in bytes, on the engine's growable search
    /// structures (clause database, antecedent pool, trail) — see
    /// [`AbortReason::Memory`]. Lets a long-running server shed a runaway
    /// solve instead of growing without bound. The estimate is checked at
    /// budget-poll cadence, so brief overshoot by one poll period's
    /// growth is possible.
    pub max_memory: Option<u64>,
}

/// How conflicts are turned into learned information.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum LearningMode {
    /// Hybrid conflict-driven learning: clauses over Boolean *and* word
    /// literals, non-chronological backtracking (the HDPLL technique of
    /// \[9\], §2.4).
    #[default]
    Hybrid,
    /// Boolean-only learned clauses: word narrowings are expanded into
    /// their Boolean ancestry before learning — the weaker learning of
    /// classical lazy combined decision procedures.
    BoolOnly,
    /// No learning at all: chronological backtracking with decision
    /// flipping (the architecture of pre-CDCL combined procedures; used by
    /// the ICS-like baseline).
    None,
}

/// Solver configuration: which paper variant to run.
///
/// | Paper column   | `decision`    | `learn`   |
/// |----------------|---------------|-----------|
/// | HDPLL \[9\]    | `Activity`    | `None`    |
/// | HDPLL+S        | `Structural`  | `None`    |
/// | HDPLL+S+P      | `Structural`  | `Some(_)` |
#[derive(Clone, Copy, Debug, Default)]
pub struct SolverConfig {
    /// The `Decide()` strategy.
    pub decision: DecisionStrategy,
    /// Static predicate learning, if enabled.
    pub learn: Option<LearnConfig>,
    /// Conflict-learning mode.
    pub learning: LearningMode,
    /// Resource budget.
    pub limits: Limits,
    /// Log an Unsat proof (retrieved with [`Solver::take_proof`] after
    /// an Unsat verdict). During search the log only records each
    /// learned lemma; an Unsat verdict is then certified once, by a
    /// fresh `rtl-proof` checker admitting every lemma in order. A Sat
    /// or Unknown verdict does no checker work.
    pub proof: bool,
    /// Scheduled-restart policy. Applies only to the
    /// [`DecisionStrategy::Activity`] search (the structural strategy's
    /// restart-rebuild cost dwarfs the benefit — see `solve`), and is
    /// ignored by [`LearningMode::None`], whose termination argument
    /// requires an intact decision tree.
    pub restarts: RestartMode,
    /// Learned-clause database management (reduction on by default;
    /// likewise inert under [`LearningMode::None`]).
    pub db: ClauseDbConfig,
}

impl SolverConfig {
    /// Plain HDPLL \[9\] (Table 2 column 5).
    #[must_use]
    pub fn hdpll() -> Self {
        Self::default()
    }

    /// HDPLL with the structural decision strategy (Table 2 column `+S`).
    #[must_use]
    pub fn structural() -> Self {
        Self {
            decision: DecisionStrategy::Structural,
            ..Self::default()
        }
    }

    /// HDPLL with structural decisions and predicate learning (Table 2
    /// column `+S+P`).
    #[must_use]
    pub fn structural_with_learning(learn: LearnConfig) -> Self {
        Self {
            decision: DecisionStrategy::Structural,
            learn: Some(learn),
            ..Self::default()
        }
    }

    /// Replaces the resource budget (builder style).
    #[must_use]
    pub fn with_limits(mut self, limits: Limits) -> Self {
        self.limits = limits;
        self
    }

    /// Enables or disables proof logging (builder style).
    #[must_use]
    pub fn with_proof(mut self, proof: bool) -> Self {
        self.proof = proof;
        self
    }

    /// Replaces the scheduled-restart policy (builder style).
    #[must_use]
    pub fn with_restarts(mut self, restarts: RestartMode) -> Self {
        self.restarts = restarts;
        self
    }

    /// Replaces the clause-DB management knobs (builder style).
    #[must_use]
    pub fn with_clause_db(mut self, db: ClauseDbConfig) -> Self {
        self.db = db;
        self
    }
}

/// The verdict of a solve call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HdpllResult {
    /// Satisfiable; values for every primary input witnessing it (a model
    /// the [`rtl_ir::eval`] simulator accepts).
    Sat(HashMap<SignalId, i64>),
    /// Unsatisfiable.
    Unsat,
    /// The resource budget was exhausted.
    Unknown,
}

impl HdpllResult {
    /// The input witness, if satisfiable.
    #[must_use]
    pub fn model(&self) -> Option<&HashMap<SignalId, i64>> {
        match self {
            HdpllResult::Sat(m) => Some(m),
            _ => None,
        }
    }

    /// `true` for [`HdpllResult::Sat`].
    #[must_use]
    pub fn is_sat(&self) -> bool {
        matches!(self, HdpllResult::Sat(_))
    }

    /// `true` for [`HdpllResult::Unsat`].
    #[must_use]
    pub fn is_unsat(&self) -> bool {
        matches!(self, HdpllResult::Unsat)
    }
}

/// Search statistics of the last [`Solver::solve`] call.
#[derive(Clone, Copy, Debug, Default)]
pub struct SolverStats {
    /// Engine counters (decisions, propagations, conflicts, …).
    pub engine: EngineStats,
    /// Wall-clock search time (excluding static learning).
    pub search_time: Duration,
    /// Wall-clock static-learning time (Table 1 column 4).
    pub learn_time: Duration,
    /// Why the run stopped early, when the verdict is
    /// [`HdpllResult::Unknown`].
    pub abort: Option<AbortReason>,
}

/// The hybrid DPLL solver for one netlist.
///
/// See the [crate documentation](crate) for an end-to-end example.
#[derive(Debug)]
pub struct Solver {
    netlist: Netlist,
    compiled: std::sync::Arc<Compiled>,
    config: SolverConfig,
    stats: SolverStats,
    learn_report: Option<LearnReport>,
    faults: FaultPlan,
    obs: ObsHandle,
    last_proof: Option<Proof>,
    /// What the certifier admitted for `last_proof`.
    certify_report: Option<CheckReport>,
    /// Wall time of the one-time compile in [`Solver::new`], reported
    /// to the profiler on the first solve (the telemetry handle is
    /// installed only after construction).
    compile_ns: u64,
    compile_reported: bool,
}

impl Solver {
    /// Compiles `netlist` and prepares a solver with the given
    /// configuration.
    #[must_use]
    pub fn new(netlist: &Netlist, config: SolverConfig) -> Self {
        let compile_start = Instant::now();
        let compiled = std::sync::Arc::new(compile(netlist));
        let compile_ns = u64::try_from(compile_start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        Self {
            netlist: netlist.clone(),
            compiled,
            config,
            stats: SolverStats::default(),
            learn_report: None,
            faults: FaultPlan::default(),
            obs: ObsHandle::off(),
            last_proof: None,
            certify_report: None,
            compile_ns,
            compile_reported: false,
        }
    }

    /// Arms a [`FaultPlan`] for subsequent solve calls (test only; the
    /// default plan is clean and free on the hot path).
    pub fn inject_faults(&mut self, faults: FaultPlan) {
        self.faults = faults;
    }

    /// Installs a telemetry handle for subsequent solve calls (the
    /// default handle is off and costs one branch per hook site).
    pub fn set_obs(&mut self, obs: ObsHandle) {
        self.obs = obs;
    }

    /// Statistics of the most recent solve call.
    #[must_use]
    pub fn stats(&self) -> &SolverStats {
        &self.stats
    }

    /// Report of the most recent static-learning pass (present only when
    /// the configuration enables learning).
    #[must_use]
    pub fn learn_report(&self) -> Option<&LearnReport> {
        self.learn_report.as_ref()
    }

    /// Takes the proof logged by the most recent Unsat verdict, if
    /// proof logging was enabled ([`SolverConfig::proof`]). A proof
    /// with [`Proof::is_complete`] `== false` contains lemmas the
    /// certifier could not admit and will be rejected by the checker.
    #[must_use]
    pub fn take_proof(&mut self) -> Option<Proof> {
        self.last_proof.take()
    }

    /// The certifier's work on the most recent solve: steps admitted and
    /// split-search nodes spent. `None` when no certification ran — a
    /// Sat or Unknown verdict, or proof logging off.
    #[must_use]
    pub fn certify_report(&self) -> Option<CheckReport> {
        self.certify_report
    }

    /// Seals the proof log after an Unsat verdict, certifying it on a
    /// fresh goal checker. The checker lowers the netlist itself; a
    /// variable count that differs from the engine's means the two
    /// lowerings diverged, and the proof is left uncertified rather
    /// than checked against the wrong variables.
    fn seal_proof(&mut self, constraint: SignalId, proof: Option<ProofLog>) {
        let Some(mut log) = proof else { return };
        log.log_final();
        let var_count = self.compiled.init_dom.len() as u32;
        let report = Checker::new(&self.netlist, constraint)
            .ok()
            .filter(|c| c.var_count() == var_count)
            .map(|mut checker| {
                log.certify_pending(&mut checker);
                checker.report()
            });
        self.certify_report = report;
        self.last_proof = Some(log.finish(var_count, report.map_or(0, |r| r.steps)));
    }

    /// Decides the satisfiability of `constraint = 1`.
    ///
    /// Each call builds a fresh engine, so no state is carried *across*
    /// calls. *Within* a call, learned lemmas live under the clause-DB
    /// manager ([`SolverConfig::db`]): a lemma persists until a periodic
    /// reduction retires it for low activity and high glue; its id (and,
    /// with proof logging, its proof step) outlives the deletion, so
    /// reasons and later proof steps may still cite it.
    ///
    /// # Panics
    ///
    /// Panics if `constraint` is not a Boolean signal of the solver's
    /// netlist.
    pub fn solve(&mut self, constraint: SignalId) -> HdpllResult {
        self.solve_inner(constraint, None)
    }

    /// Like [`Solver::solve`], but also polls `cancel` (every ~4096
    /// propagation steps) and returns [`HdpllResult::Unknown`] once it
    /// trips. Prefer driving the solver through a
    /// [`Supervisor`](crate::Supervisor) when certification or fallback
    /// stages are wanted.
    ///
    /// # Panics
    ///
    /// Panics if `constraint` is not a Boolean signal of the solver's
    /// netlist.
    pub fn solve_cancellable(&mut self, constraint: SignalId, cancel: &CancelToken) -> HdpllResult {
        self.solve_inner(constraint, Some(cancel.clone()))
    }

    fn solve_inner(&mut self, constraint: SignalId, cancel: Option<CancelToken>) -> HdpllResult {
        assert!(
            self.netlist.ty(constraint).is_bool(),
            "proposition {constraint} must be Boolean"
        );
        let mut engine = Engine::new(std::sync::Arc::clone(&self.compiled));
        self.stats = SolverStats::default();
        self.learn_report = None;
        self.last_proof = None;
        self.certify_report = None;

        let mut proof = self
            .config
            .proof
            .then(|| ProofLog::new(rtl_proof::goal_name(&self.netlist, constraint)));

        // Thread the budget into the propagation loop itself, so the
        // wall clock and cancellation hold even during propagation
        // bursts (and during static learning below).
        let deadline = self.config.limits.max_time.map(|t| Instant::now() + t);
        engine.set_budget(
            deadline,
            cancel.map(|c| c.flag()),
            self.config.limits.max_propagations,
            self.config.limits.max_memory,
        );
        engine.set_faults(self.faults);
        engine.set_obs(self.obs.clone());
        let prof = self.obs.profiling();
        if prof && !self.compile_reported {
            self.compile_reported = true;
            self.obs
                .profile_leaf("compile", self.compile_ns, 1, &DurHist::single_ns(self.compile_ns));
        }

        // Assert the proposition and reach the initial fixpoint.
        if !engine.assert_external(self.compiled.var_of(constraint), Dom::B(Tribool::True)) {
            self.finish_stats(&engine);
            self.seal_proof(constraint, proof);
            return HdpllResult::Unsat;
        }
        engine.schedule_all();
        match engine.propagate() {
            Propagation::Conflict(_) => {
                self.finish_stats(&engine);
                self.seal_proof(constraint, proof);
                return HdpllResult::Unsat;
            }
            Propagation::Aborted(reason) => {
                self.stats.abort = Some(reason);
                self.finish_stats(&engine);
                return HdpllResult::Unknown;
            }
            Propagation::Fixpoint => {}
        }

        // Static predicate learning (§3), timed separately (Table 1).
        let mut weights = LearnWeights::new(engine.doms.len());
        if let Some(cfg) = self.config.learn {
            self.obs.profile_enter("predlearn");
            let report = predlearn::run(&mut engine, &self.netlist, &cfg, &mut weights, &mut proof);
            self.obs.profile_exit();
            self.stats.learn_time = report.time;
            let unsat = report.proved_unsat;
            self.learn_report = Some(report);
            if unsat {
                self.finish_stats(&engine);
                self.seal_proof(constraint, proof);
                return HdpllResult::Unsat;
            }
            // The budget may have tripped mid-learning; the abort is
            // sticky, so stop here rather than entering the main loop.
            if let Some(reason) = engine.abort_reason() {
                self.stats.abort = Some(reason);
                self.finish_stats(&engine);
                return HdpllResult::Unknown;
            }
        }
        let weights_ref = self.config.learn.map(|_| &weights);

        let structural_index = match self.config.decision {
            DecisionStrategy::Structural => Some(StructuralIndex::new(
                &engine,
                &analysis::levels(&self.netlist),
            )),
            DecisionStrategy::Activity => None,
        };

        // Algorithm 1 main loop.
        let learning = self.config.learning;
        // Scheduled restarts pay off only when rebuilding the abandoned
        // subtree is cheap. Under the activity strategy it is: saved
        // phases replay the old assignment and clause propagation does
        // the rest. Under the structural strategy a restart forfeits the
        // interval narrowing the whole descent paid for and re-derives
        // it from scratch — measured on itc99_b04 a single restart
        // quadruples solve time at an unchanged conflict count — so the
        // scheduled policy applies to the activity strategy only
        // (level-0 forced restarts are unaffected).
        let restart_mode = match self.config.decision {
            DecisionStrategy::Activity => self.config.restarts,
            DecisionStrategy::Structural => RestartMode::Off,
        };
        let db_cfg = self.config.db;
        let corrupt_deletion = self.faults.corrupt_deletion;
        let handle_conflict = |engine: &mut Engine,
                               proof: &mut Option<ProofLog>,
                               conflict: &crate::engine::ConflictInfo,
                               acc: &mut PhaseAcc<SEARCH_PHASES>|
         -> bool {
            match learning {
                LearningMode::Hybrid | LearningMode::BoolOnly => {
                    let bool_only = learning == LearningMode::BoolOnly;
                    match engine.analyze_mode(conflict, bool_only) {
                        None => false,
                        Some(mut a) => {
                            let used = std::mem::take(&mut a.used);
                            let cid = engine.learn_and_backtrack(a);
                            acc.tick(P_ANALYZE);
                            if let Some(p) = proof.as_mut() {
                                p.log_engine_clause(engine, cid, Vec::new(), &used);
                                acc.tick(P_PROOF);
                            }
                            // Scheduled restart, then DB housekeeping
                            // (post-restart the trail is short, so few
                            // lemmas are locked as reasons).
                            if engine.should_restart(restart_mode) {
                                engine.restart();
                                acc.tick(P_RESTART);
                            }
                            if let Some(dropped) = engine.maybe_reduce(&db_cfg) {
                                if let Some(p) = proof.as_mut() {
                                    if corrupt_deletion
                                        == Some(engine.stats.db_reductions - 1)
                                    {
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
                    // The decision path is refuted before it is popped:
                    // the path lemmas speak about the stack as it stands.
                    if let Some(p) = proof.as_mut() {
                        p.log_path(&engine.decision_stack());
                        acc.tick(P_PROOF);
                    }
                    engine.flip_chronological()
                }
            }
        };
        self.obs.profile_enter("search");
        let mut acc = PhaseAcc::<SEARCH_PHASES>::new(prof);
        let search_start = Instant::now();
        acc.begin();
        let mut abort = None;
        let result = loop {
            match engine.propagate() {
                Propagation::Conflict(conflict) => {
                    acc.tick(P_PROPAGATE);
                    let live = handle_conflict(&mut engine, &mut proof, &conflict, &mut acc);
                    acc.tick(P_ANALYZE);
                    if !live {
                        break HdpllResult::Unsat;
                    }
                    continue;
                }
                Propagation::Aborted(reason) => {
                    acc.tick(P_PROPAGATE);
                    abort = Some(reason);
                    break HdpllResult::Unknown;
                }
                Propagation::Fixpoint => acc.tick(P_PROPAGATE),
            }
            if let Some(reason) = self.exceeded(&engine, deadline) {
                abort = Some(reason);
                break HdpllResult::Unknown;
            }
            let decision = match &structural_index {
                Some(index) => match pick_structural(&engine, index, weights_ref) {
                    Structural::Decision(var, value) => Some((var, value)),
                    Structural::Done => None,
                    Structural::JConflict(conflict) => {
                        engine.stats.j_conflicts += 1;
                        acc.tick(P_DECIDE);
                        let live = handle_conflict(&mut engine, &mut proof, &conflict, &mut acc);
                        acc.tick(P_ANALYZE);
                        if !live {
                            break HdpllResult::Unsat;
                        }
                        continue;
                    }
                },
                None => pick_activity(&engine, weights_ref, true),
            };
            match decision {
                Some((var, value)) => {
                    engine.decide(var, value);
                    acc.tick(P_DECIDE);
                }
                None => {
                    acc.tick(P_DECIDE);
                    // All decision variables assigned: arithmetic check of
                    // the solution box (§2.4).
                    match final_check(&mut engine) {
                        FinalOutcome::Sat(values) => {
                            acc.tick(P_FINAL);
                            let model = self.input_model(&values);
                            break HdpllResult::Sat(model);
                        }
                        FinalOutcome::Conflict(conflict) => {
                            acc.tick(P_FINAL);
                            let live =
                                handle_conflict(&mut engine, &mut proof, &conflict, &mut acc);
                            acc.tick(P_ANALYZE);
                            if !live {
                                break HdpllResult::Unsat;
                            }
                        }
                        FinalOutcome::Aborted(reason) => {
                            acc.tick(P_FINAL);
                            abort = Some(reason);
                            break HdpllResult::Unknown;
                        }
                    }
                }
            }
        };
        self.stats.search_time = search_start.elapsed();
        if result.is_unsat() {
            // Certification closes the `proof` phase: the profile books
            // all of a solve's proof work in one row.
            self.seal_proof(constraint, proof);
            acc.tick(P_PROOF);
        }
        flush_search_phases(&self.obs, &acc);
        self.obs.profile_exit();
        self.finish_stats(&engine);
        self.stats.abort = abort;
        result
    }

    /// Copies the engine counters into [`SolverStats`] and projects them
    /// into the telemetry registry (counters accumulate and peaks
    /// max-merge across a supervisor ladder's stages, so both remain
    /// monotonic over a run).
    fn finish_stats(&mut self, engine: &Engine) {
        self.stats.engine = engine.stats;
        // Final memory sample: in-loop sampling only runs at poll cadence,
        // so short solves (and per-iteration memory aborts) would
        // otherwise report a zero peak.
        self.stats.engine.mem_peak = self.stats.engine.mem_peak.max(engine.approx_mem_bytes());
        if !self.obs.on() {
            return;
        }
        let s = &self.stats.engine;
        for (name, v) in [
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
        ] {
            self.obs.record_counter(name, v);
        }
        for (name, v) in [
            ("max_cqueue", s.max_cqueue),
            ("max_clqueue", s.max_clqueue),
            ("ant_pool_peak", s.ant_pool_peak),
            ("mem_peak", s.mem_peak),
        ] {
            self.obs.record_peak(name, v);
        }
    }

    fn exceeded(&self, engine: &Engine, deadline: Option<Instant>) -> Option<AbortReason> {
        let l = &self.config.limits;
        if l.max_decisions.is_some_and(|m| engine.stats.decisions >= m) {
            return Some(AbortReason::Decisions);
        }
        if l.max_conflicts.is_some_and(|m| engine.stats.conflicts >= m) {
            return Some(AbortReason::Conflicts);
        }
        if l.max_propagations
            .is_some_and(|m| engine.stats.propagations >= m)
        {
            return Some(AbortReason::Propagations);
        }
        if l.max_memory.is_some_and(|m| engine.approx_mem_bytes() > m) {
            return Some(AbortReason::Memory);
        }
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return Some(AbortReason::Deadline);
        }
        None
    }

    fn input_model(&self, values: &[i64]) -> HashMap<SignalId, i64> {
        eval::input_ids(&self.netlist)
            .into_iter()
            .map(|id| (id, values[self.compiled.var_of(id).index()]))
            .collect()
    }
}
