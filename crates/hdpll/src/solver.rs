//! The public one-shot HDPLL solver API: goal assertion, the static
//! predicate pass, then the paper's Algorithm 1 (`search.rs`, shared
//! with incremental sessions) with an empty assumption prefix.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use rtl_ir::{eval, Netlist, SignalId};

use crate::compile::{compile, Compiled};
use crate::decide::LearnWeights;
use crate::engine::{Engine, EngineStats, Propagation};
use crate::justify::StructuralIndex;
use crate::predlearn::{self, LearnConfig, LearnReport};
use crate::prooflog::ProofLog;
use crate::search::{self, flush_search_phases, Outcome, Search, P_PROOF, SEARCH_PHASES};
use crate::supervise::{CancelToken, FaultPlan};
use crate::types::{AbortReason, ClauseDbConfig, DecisionStrategy, Dom, RestartMode};
use rtl_interval::Tribool;
use rtl_obs::{DurHist, ObsHandle, PhaseAcc};
use rtl_proof::{CheckReport, Checker, Proof};

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
    /// restart-rebuild cost dwarfs the benefit, DESIGN.md §2.10), and is
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
        let deadline = search::arm(&mut engine, &self.config.limits, cancel, &self.obs);
        engine.set_faults(self.faults);
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

        // Algorithm 1 with an empty assumption prefix (DESIGN.md §2.3).
        self.obs.profile_enter("search");
        let index = (self.config.decision == DecisionStrategy::Structural)
            .then(|| StructuralIndex::new(&self.compiled, &self.netlist));
        let mut acc = PhaseAcc::<SEARCH_PHASES>::new(prof);
        let (outcome, search_time) = Search {
            config: &self.config,
            index: index.as_ref(),
            weights: self.config.learn.map(|_| &weights),
            assumptions: &[],
            base: EngineStats::default(),
            deadline,
        }
        .run(&mut engine, &mut proof, &mut acc);
        self.stats.search_time = search_time;
        let result = match outcome {
            Outcome::Sat(values) => HdpllResult::Sat(self.input_model(&values)),
            Outcome::RootUnsat | Outcome::AssumptionConflict => {
                // Certification closes the `proof` phase: the profile
                // books all of a solve's proof work in one row.
                self.seal_proof(constraint, proof);
                acc.tick(P_PROOF);
                HdpllResult::Unsat
            }
            Outcome::Unknown(reason) => {
                self.stats.abort = Some(reason);
                HdpllResult::Unknown
            }
        };
        flush_search_phases(&self.obs, &acc);
        self.obs.profile_exit();
        self.finish_stats(&engine);
        result
    }

    /// Copies the engine counters into [`SolverStats`] and projects them
    /// into the telemetry registry, charged from engine creation.
    fn finish_stats(&mut self, engine: &Engine) {
        self.stats.engine = search::finish_stats(engine, &EngineStats::default(), &self.obs);
    }

    fn input_model(&self, values: &[i64]) -> HashMap<SignalId, i64> {
        eval::input_ids(&self.netlist)
            .into_iter()
            .map(|id| (id, values[self.compiled.var_of(id).index()]))
            .collect()
    }
}
