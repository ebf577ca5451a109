//! Incremental solve sessions: compile once, solve many under
//! assumptions.
//!
//! A [`Session`] constructs the solver state for a netlist *once* —
//! compilation, the level-0 fixpoint, and (when configured) the §3
//! static predicate-learning pass — and then answers any number of
//! [`Session::solve`] queries, each under its own set of Boolean
//! [`Assumption`]s. Between queries the engine *backtracks* rather
//! than forgets: conflict-learned clauses, their LBD/activity state,
//! variable activities, and saved phases all persist, so a sequence of
//! related queries (the BMC use case) shares work that fresh per-query
//! solves would redo from scratch.
//!
//! **Assumption semantics** (MiniSat-style): a query runs the same
//! Algorithm 1 loop as a one-shot [`crate::Solver`], with its
//! assumptions as the pinned decision prefix (DESIGN.md §2.3).
//! Because assumptions are ordinary decisions, every clause learned
//! during the query is *globally* valid — assumption dependence
//! surfaces as negated-assumption literals inside the clause — which is
//! exactly what makes retention across queries sound. (The
//! chronological [`LearningMode::None`] would flip assumption
//! decisions, so sessions run it as [`LearningMode::Hybrid`].)
//!
//! **Growth**: [`Session::extend`] appends signals to the netlist in
//! place and grows the compiled problem, the engine, and the session
//! certifier to match — BMC unrolling adds frame `k + 1` without
//! recompiling frames `0..=k`.
//!
//! **Certification**: with [`SolverConfig::proof`] enabled, the search
//! records every learned lemma ([`crate::prooflog`]), and the session
//! owns one [`rtl_proof::Checker`] — its *certifier* — that lowers the
//! netlist segment-wise, exactly as the engine allocates variables. The
//! certifier admits each recorded step once, in the order it was
//! learned: pending steps are admitted at the next Unsat certification,
//! and at the latest before the next [`Session::extend`], so every step
//! is checked against the netlist it was learned over. An Unsat query
//! is then sealed into an *assumption proof* (format v3) whose final
//! clause `¬a₁ ∨ … ∨ ¬aₖ` the certifier verifies by the same
//! refutation without installing it; the verdict is reported as
//! certified only when every step so far was admitted and that clause
//! closed. A step the certifier rejects retires it: no later answer of
//! the session is certified. Sat models are replayed through the
//! [`rtl_ir::eval`] reference simulator and checked against the
//! query's assumptions. See [`crate::prooflog::ProofLog::snapshot`]
//! for why proofs stay sound across queries.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rtl_ir::simplify::{SignalMap, Simplifier, SimplifyStats};
use rtl_ir::{eval, Netlist, SignalId};
use rtl_obs::{DurHist, ObsHandle, PhaseAcc};
use rtl_proof::{CheckReport, Checker, Proof};

use crate::compile::compile;
use crate::decide::LearnWeights;
use crate::engine::{Engine, Propagation};
use crate::justify::StructuralIndex;
use crate::predlearn;
use crate::prooflog::ProofLog;
use crate::search::{self, flush_search_phases, Outcome, Search, SEARCH_PHASES};
use crate::solver::{HdpllResult, LearningMode, Limits, SolverConfig, SolverStats};
use crate::supervise::{
    run_rung, CancelToken, Certification, FaultPlan, StageOutcome, StageReport,
};
use crate::types::{AbortReason, DecisionStrategy, VarId};

/// One assumption of an incremental query: `signal = value`, pinned
/// for the duration of a single [`Session::solve`] call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Assumption {
    /// The assumed signal (must be Boolean).
    pub signal: SignalId,
    /// The assumed value.
    pub value: bool,
}

impl Assumption {
    /// `signal = true`.
    #[must_use]
    pub fn yes(signal: SignalId) -> Self {
        Assumption {
            signal,
            value: true,
        }
    }

    /// `signal = false`.
    #[must_use]
    pub fn no(signal: SignalId) -> Self {
        Assumption {
            signal,
            value: false,
        }
    }
}

/// How a [`Certified`] verdict was validated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionCert {
    /// Sat: the model was replayed through the [`rtl_ir::eval`]
    /// reference simulator and satisfies every assumption.
    ModelVerified,
    /// Unsat: every step of the query's assumption proof, and its final
    /// clause, were admitted by the session's [`rtl_proof::Checker`].
    ProofChecked,
    /// No independent validation (proof logging off, a step the
    /// certifier rejected, or an Unknown verdict).
    Uncertified,
}

/// The result of one incremental query: the verdict plus how it was
/// independently validated.
#[derive(Clone, Debug)]
pub struct Certified {
    /// The verdict.
    pub result: HdpllResult,
    /// How the verdict was validated.
    pub cert: SessionCert,
    /// The assumption proof behind an Unsat verdict, when proof logging
    /// is enabled (present even if its check failed — `cert` says so).
    pub proof: Option<Proof>,
    /// Why the query stopped early, when the verdict is
    /// [`HdpllResult::Unknown`].
    pub abort: Option<AbortReason>,
}

/// An incremental solve session over one growing netlist. See the
/// [module documentation](self).
pub struct Session {
    netlist: Netlist,
    /// Word-level preprocessing state, when enabled: the engine solves
    /// `pre.netlist()` (the simplified image), assumptions are mapped
    /// through `pre.map`, and Sat models are read back over the
    /// *original* inputs so certification stays against [`Self::netlist`].
    pre: Option<Simplifier>,
    engine: Engine,
    /// The structural decision index, grown with the engine's problem
    /// (`None` under the activity strategy).
    index: Option<StructuralIndex>,
    config: SolverConfig,
    proof: Option<ProofLog>,
    /// The persistent certifier (see the module docs): `None` with
    /// proof logging off, or once it rejected a step.
    certifier: Option<Checker>,
    /// Checker work spent certifying this session's answers, summed
    /// over every certifier call after construction.
    certify_work: CheckReport,
    weights: LearnWeights,
    /// The empty clause holds: every further query is Unsat.
    root_unsat: bool,
    /// Level 0 may be short of its propagation fixpoint — a new session,
    /// or a query that stopped early — so the next query schedules
    /// every constraint first.
    sweep: bool,
    queries: u32,
    stats: SolverStats,
    obs: ObsHandle,
    /// One-time construction costs, held until a profiled query can
    /// flush them into the profile tree ([`Self::setup_reported`]).
    preproc_ns: u64,
    compile_ns: u64,
    setup_reported: bool,
}

impl Session {
    /// Compiles `netlist`, reaches the level-0 fixpoint, and (when
    /// configured) runs the static predicate-learning pass — the
    /// one-time cost all subsequent queries share. Word-level
    /// preprocessing ([`rtl_ir::simplify`]) is on; see
    /// [`Session::with_preproc`] to disable it.
    #[must_use]
    pub fn new(netlist: &Netlist, config: SolverConfig) -> Session {
        Session::with_preproc(netlist, config, true)
    }

    /// Like [`Session::new`], with explicit control over word-level
    /// preprocessing. When `preproc` is on, the engine compiles the
    /// *simplified* image of the netlist (no cone pruning — future
    /// queries may constrain any signal, so every signal keeps an
    /// image); Sat models are translated back and certified against the
    /// original, and Unsat proofs check against the simplified netlist
    /// ([`Session::proof_netlist`]).
    #[must_use]
    pub fn with_preproc(netlist: &Netlist, config: SolverConfig, preproc: bool) -> Session {
        let preproc_start = Instant::now();
        let pre = preproc.then(|| {
            let mut s = Simplifier::new(netlist.name());
            s.process(netlist);
            s
        });
        let preproc_ns = u64::try_from(preproc_start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let solved = pre.as_ref().map_or(netlist, Simplifier::netlist);
        let compile_start = Instant::now();
        let compiled = Arc::new(compile(solved));
        let index = (config.decision == DecisionStrategy::Structural)
            .then(|| StructuralIndex::new(&compiled, solved));
        let compile_ns = u64::try_from(compile_start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let engine = Engine::new(compiled);
        let num_vars = engine.doms.len();
        let proof = config.proof.then(|| {
            let mut log = ProofLog::new_free();
            log.grow_vars(num_vars, &engine.compiled.sig_var);
            log
        });
        // The certifier lowers the netlist itself; a variable count that
        // differs from the engine's means the two lowerings diverged,
        // and no answer is certified rather than checked against the
        // wrong variables.
        let certifier = config
            .proof
            .then(|| Checker::new_free(solved))
            .filter(|c| c.var_count() as usize == num_vars);
        let mut s = Session {
            netlist: netlist.clone(),
            pre,
            engine,
            index,
            config,
            proof,
            certifier,
            certify_work: CheckReport::default(),
            weights: LearnWeights::new(num_vars),
            root_unsat: false,
            sweep: true,
            queries: 0,
            stats: SolverStats::default(),
            obs: ObsHandle::off(),
            preproc_ns,
            compile_ns,
            setup_reported: false,
        };
        s.engine.schedule_all();
        if matches!(s.engine.propagate(), Propagation::Conflict(_)) {
            s.mark_root_unsat();
        }
        if let (Some(cfg), false) = (s.config.learn, s.root_unsat) {
            let mut weights = std::mem::take(&mut s.weights);
            let solved = s.pre.as_ref().map_or(&s.netlist, Simplifier::netlist);
            let report = predlearn::run(&mut s.engine, solved, &cfg, &mut weights, &mut s.proof);
            s.weights = weights;
            s.stats.learn_time = report.time;
            if report.proved_unsat {
                s.mark_root_unsat();
            }
        }
        s
    }

    /// Arms a [`FaultPlan`] for subsequent queries (test only; the
    /// default plan is clean and free on the hot path).
    pub fn inject_faults(&mut self, faults: FaultPlan) {
        self.engine.set_faults(faults);
    }

    /// Checker work spent certifying this session's answers so far,
    /// summed over every query and every [`Session::extend`]: steps
    /// admitted, split-search nodes, contractor applications and hint
    /// misses. Each recorded step is admitted once, however many
    /// queries cite it. `None` with proof logging off, or once the
    /// certifier rejected a step.
    #[must_use]
    pub fn certify_report(&self) -> Option<CheckReport> {
        self.certifier.as_ref().map(|_| self.certify_work)
    }

    /// Installs a telemetry handle (the default is off). Session-span
    /// events (`session_query_start`/`session_query_end`) bracket each
    /// query's engine trace.
    pub fn set_obs(&mut self, obs: ObsHandle) {
        self.obs = obs;
    }

    /// The session's netlist as grown so far (the *original*; Sat
    /// models and their certification are in terms of this netlist).
    #[must_use]
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The netlist the engine actually solves and Unsat proofs are
    /// stated over: the simplified image when preprocessing is on, the
    /// original otherwise. Re-check a [`Certified::proof`] against
    /// *this* netlist with a fresh [`rtl_proof::Checker`].
    #[must_use]
    pub fn proof_netlist(&self) -> &Netlist {
        self.pre.as_ref().map_or(&self.netlist, Simplifier::netlist)
    }

    /// Preprocessing counters (`None` when preprocessing is off).
    #[must_use]
    pub fn preproc_stats(&self) -> Option<SimplifyStats> {
        self.pre.as_ref().map(Simplifier::stats)
    }

    /// The old→new signal map (`None` when preprocessing is off). The
    /// map is total: sessions never cone-prune.
    #[must_use]
    pub fn preproc_map(&self) -> Option<SignalMap> {
        self.pre.as_ref().map(Simplifier::signal_map)
    }

    /// Cumulative engine statistics across all queries so far (the
    /// engine is never rebuilt, so counters only grow).
    #[must_use]
    pub fn stats(&self) -> &SolverStats {
        &self.stats
    }

    /// Number of [`Session::solve`] calls made so far.
    #[must_use]
    pub fn queries(&self) -> u32 {
        self.queries
    }

    /// `true` between calls: the trail holds only level-0 facts, no
    /// assumption or search decision is live. Every query restores this
    /// before returning (the differential tests assert it).
    #[must_use]
    pub fn is_quiescent(&self) -> bool {
        self.engine.level() == 0
    }

    /// `true` once the session derived the empty clause: the netlist's
    /// level-0 constraints are contradictory and every query — whatever
    /// its assumptions — is Unsat.
    #[must_use]
    pub fn root_unsat(&self) -> bool {
        self.root_unsat
    }

    /// Replaces the resource budget applied to subsequent queries.
    pub fn set_limits(&mut self, limits: Limits) {
        self.config.limits = limits;
    }

    /// Grows the netlist in place (the closure appends signals — it
    /// must never mutate existing ones) and extends the compiled
    /// problem, the engine, and the certifier to match. Learned
    /// clauses and level-0 facts survive: extension only *adds*
    /// constraints, so everything derived so far remains valid.
    pub fn extend(&mut self, grow: impl FnOnce(&mut Netlist)) {
        self.engine.backtrack(0);
        self.engine.clear_abort();
        // Steps learned since the last certification are admitted
        // over the netlist they were learned on, before it grows.
        self.certify_pending();
        grow(&mut self.netlist);
        // The simplifier's output is itself append-only, so the grown
        // image extends the compiled problem the same way the raw
        // netlist would.
        if let Some(pre) = &mut self.pre {
            pre.process(&self.netlist);
        }
        let solved = self.pre.as_ref().map_or(&self.netlist, Simplifier::netlist);
        // The engine holds the only long-lived handle between queries,
        // so this extends in place without a deep copy.
        Arc::make_mut(&mut self.engine.compiled).extend(solved);
        debug_assert_eq!(self.engine.compiled.signals_consumed(), solved.len());
        if let Some(index) = &mut self.index {
            index.grow(&self.engine.compiled, solved);
        }
        self.engine.grow();
        let num_vars = self.engine.doms.len();
        self.weights.grow(num_vars);
        if let Some(log) = &mut self.proof {
            log.grow_vars(num_vars, &self.engine.compiled.sig_var);
        }
        // The certifier grows segment-wise from the same netlist; see
        // `with_preproc` for the variable-count cross-check.
        let work = &mut self.certify_work;
        self.certifier = self.certifier.take().and_then(|mut c| {
            charge(work, &mut c, |c| c.extend(solved));
            (c.var_count() as usize == num_vars).then_some(c)
        });
        if self.root_unsat {
            return;
        }
        // Unbudgeted: the extension fixpoint is part of compilation,
        // not of any query's search.
        self.engine.set_budget(None, None, None, None);
        if matches!(self.engine.propagate(), Propagation::Conflict(_)) {
            self.mark_root_unsat();
        }
    }

    /// Decides the satisfiability of the netlist under `assumptions`
    /// (their conjunction; an empty slice asks whether the netlist's
    /// constraints alone are consistent).
    ///
    /// # Panics
    ///
    /// Panics if an assumption signal is not Boolean.
    pub fn solve(&mut self, assumptions: &[Assumption]) -> Certified {
        self.solve_inner(assumptions, None)
    }

    /// Like [`Session::solve`], but also polls `cancel` and returns
    /// [`HdpllResult::Unknown`] once it trips. The session stays usable
    /// after a cancelled query.
    pub fn solve_cancellable(
        &mut self,
        assumptions: &[Assumption],
        cancel: &CancelToken,
    ) -> Certified {
        self.solve_inner(assumptions, Some(cancel.clone()))
    }

    fn solve_inner(&mut self, assumptions: &[Assumption], cancel: Option<CancelToken>) -> Certified {
        let query = self.queries;
        self.queries += 1;
        // One-time construction costs (preprocessing, compilation, the
        // static predicate pass) are flushed into the profile tree at
        // the first profiled query — construction ran before a handle
        // could be installed.
        if self.obs.profiling() && !self.setup_reported {
            self.setup_reported = true;
            if self.pre.is_some() {
                self.obs.profile_leaf(
                    "preproc",
                    self.preproc_ns,
                    1,
                    &DurHist::single_ns(self.preproc_ns),
                );
            }
            self.obs
                .profile_leaf("compile", self.compile_ns, 1, &DurHist::single_ns(self.compile_ns));
            let learn_ns =
                u64::try_from(self.stats.learn_time.as_nanos()).unwrap_or(u64::MAX);
            if learn_ns > 0 {
                self.obs
                    .profile_leaf("predlearn", learn_ns, 1, &DurHist::single_ns(learn_ns));
            }
        }
        self.obs
            .session_query_start(query, assumptions.len() as u32);
        self.obs.profile_enter("query");
        let certified = self.run_query(assumptions, cancel);
        self.obs.profile_exit();
        let outcome = match &certified.result {
            HdpllResult::Sat(_) => "SAT",
            HdpllResult::Unsat => "UNSAT",
            HdpllResult::Unknown => "UNKNOWN",
        };
        self.obs.session_query_end(query, outcome);
        certified
    }

    fn run_query(&mut self, assumptions: &[Assumption], cancel: Option<CancelToken>) -> Certified {
        for a in assumptions {
            assert!(
                self.netlist.ty(a.signal).is_bool(),
                "assumption {} must be Boolean",
                a.signal
            );
        }
        // Assumption signals live in the original netlist; the engine
        // solves the simplified image, so map each through the preproc
        // map first (an assumption on a folded-to-constant signal lands
        // on the constant's variable and is decided by propagation).
        let asm: Vec<(VarId, bool)> = assumptions
            .iter()
            .map(|a| {
                let sig = self.pre.as_ref().map_or(a.signal, |p| p.map(a.signal));
                (self.engine.compiled.var_of(sig), a.value)
            })
            .collect();

        if self.root_unsat {
            return self.certify_unsat(&asm);
        }

        // Fresh budget per query. Every query but one that stopped early
        // leaves level 0 at its fixpoint (`extend` propagates its new
        // constraints to one), so only after a new session or such a
        // stop — whose sticky abort is cleared here — is every
        // constraint re-scheduled (DESIGN.md §2.12).
        self.engine.backtrack(0);
        self.engine.clear_abort();
        let deadline = search::arm(&mut self.engine, &self.config.limits, cancel, &self.obs);
        if std::mem::take(&mut self.sweep) {
            self.engine.schedule_all();
        }
        let base = self.engine.stats;

        // Chronological flipping would flip assumption decisions;
        // sessions always learn (see the module docs).
        let config = SolverConfig {
            learning: match self.config.learning {
                LearningMode::None => LearningMode::Hybrid,
                mode => mode,
            },
            ..self.config
        };
        let mut acc = PhaseAcc::<SEARCH_PHASES>::new(self.obs.profiling());
        self.obs.profile_enter("search");
        let (outcome, search_time) = Search {
            config: &config,
            index: self.index.as_ref(),
            weights: self.config.learn.map(|_| &self.weights),
            assumptions: &asm,
            base,
            deadline,
        }
        .run(&mut self.engine, &mut self.proof, &mut acc);
        self.stats.search_time += search_time;
        flush_search_phases(&self.obs, &acc);
        self.obs.profile_exit();

        self.obs.profile_enter("certify");
        let certified = match outcome {
            Outcome::Sat(values) => {
                // Read the model over the *original* inputs (inputs are
                // never merged or pruned by session preprocessing, so
                // each has its own image variable); certification below
                // replays it through the original netlist.
                let model: HashMap<SignalId, i64> = eval::input_ids(&self.netlist)
                    .into_iter()
                    .map(|id| {
                        let sig = self.pre.as_ref().map_or(id, |p| p.map(id));
                        (id, values[self.engine.compiled.var_of(sig).index()])
                    })
                    .collect();
                let cert = match eval::eval(&self.netlist, &model) {
                    Ok(vals) => {
                        let ok = assumptions
                            .iter()
                            .all(|a| vals.get(a.signal) == Some(i64::from(a.value)));
                        if ok {
                            SessionCert::ModelVerified
                        } else {
                            SessionCert::Uncertified
                        }
                    }
                    Err(_) => SessionCert::Uncertified,
                };
                Certified {
                    result: HdpllResult::Sat(model),
                    cert,
                    proof: None,
                    abort: None,
                }
            }
            Outcome::RootUnsat => {
                self.mark_root_unsat();
                self.certify_unsat(&asm)
            }
            Outcome::AssumptionConflict => self.certify_unsat(&asm),
            Outcome::Unknown(reason) => {
                self.sweep = true;
                Certified::unknown(Some(reason))
            }
        };
        self.obs.profile_exit();

        // Quiescence: only level-0 facts stay live between queries.
        self.engine.backtrack(0);
        self.stats.abort = certified.abort;
        self.stats.engine = search::finish_stats(&self.engine, &base, &self.obs);
        certified
    }

    /// Derived the empty clause: record it in the proof log and latch
    /// the session-wide verdict.
    fn mark_root_unsat(&mut self) {
        self.root_unsat = true;
        if let Some(p) = &mut self.proof {
            p.log_final();
        }
    }

    /// Admits the steps recorded since the certifier last ran. A step
    /// it rejects retires the certifier for the rest of the session.
    fn certify_pending(&mut self) {
        match (&mut self.proof, &mut self.certifier) {
            (Some(log), Some(c)) => {
                let admitted_all = charge(&mut self.certify_work, c, |c| log.certify_pending(c));
                if !admitted_all {
                    self.certifier = None;
                }
            }
            (Some(log), None) => log.forget_hints(),
            (None, _) => {}
        }
    }

    /// Certifies the pending steps and seals the proof state into an
    /// assumption proof for an Unsat verdict. Proofs are stated over
    /// the netlist the engine solved: the simplified image when
    /// preprocessing is on.
    fn certify_unsat(&mut self, asm: &[(VarId, bool)]) -> Certified {
        self.certify_pending();
        let Session {
            proof,
            certifier,
            certify_work,
            ..
        } = self;
        let snapshot = |c: Option<&mut Checker>| proof.as_ref().map(|p| p.snapshot(asm, c));
        let proof = match certifier {
            Some(c) => charge(certify_work, c, |c| snapshot(Some(c))),
            None => snapshot(None),
        };
        // A snapshot has no gaps exactly when the certifier admitted
        // every step and closed the final clause.
        let cert = match &proof {
            Some(p) if p.is_complete() => SessionCert::ProofChecked,
            _ => SessionCert::Uncertified,
        };
        Certified {
            result: HdpllResult::Unsat,
            cert,
            proof,
            abort: None,
        }
    }
}

#[cfg(test)]
impl Session {
    /// Makes the next query schedule every constraint, whether or not
    /// level 0 may be short of its fixpoint.
    pub(crate) fn force_sweep(&mut self) {
        self.sweep = true;
    }

    /// The engine's constraint count: what a query-start sweep steps.
    pub(crate) fn constraint_count(&self) -> u64 {
        self.engine.compiled.cons.len() as u64
    }

    /// The live engine counters ([`Session::stats`] only catches up at
    /// the end of each query).
    pub(crate) fn engine_stats(&self) -> crate::EngineStats {
        self.engine.stats
    }

    /// Panics unless the grown structural index equals one built from
    /// scratch over the engine's whole problem.
    pub(crate) fn assert_index_matches_from_scratch(&self) {
        self.index
            .as_ref()
            .expect("a structural session")
            .assert_matches_from_scratch(&self.engine.compiled, self.proof_netlist());
    }
}

/// Runs `f` on the certifier and adds the checker work it did to `work`.
fn charge<T>(work: &mut CheckReport, c: &mut Checker, f: impl FnOnce(&mut Checker) -> T) -> T {
    let before = c.report();
    let out = f(c);
    let after = c.report();
    work.steps += after.steps - before.steps;
    work.search_nodes += after.search_nodes - before.search_nodes;
    work.cons_steps += after.cons_steps - before.cons_steps;
    work.hint_misses += after.hint_misses - before.hint_misses;
    out
}

/// The outcome of one [`SupervisedSession::solve`] call.
#[derive(Clone, Debug)]
pub struct SupervisedQuery {
    /// The accepted verdict (never a discredited one: a rung whose
    /// answer failed certification is skipped, not reported).
    pub certified: Certified,
    /// Label of the rung whose answer was accepted; `None` when every
    /// rung was exhausted or the query was cancelled.
    pub answered_by: Option<String>,
    /// One report per rung attempted while answering this query, in
    /// ladder order: the rungs abandoned, then the answering one.
    pub reports: Vec<StageReport>,
}

impl Certified {
    /// An Unknown verdict, stopped for `abort`.
    fn unknown(abort: Option<AbortReason>) -> Self {
        Certified {
            result: HdpllResult::Unknown,
            cert: SessionCert::Uncertified,
            proof: None,
            abort,
        }
    }

    /// How a supervised ladder judges this answer of a rung: an Unsat
    /// must be proof-checked, unless the rung logs no proofs
    /// (`proof_logged` off), when an uncertified Unsat is the best it
    /// can do and is accepted.
    fn outcome(&self, proof_logged: bool) -> StageOutcome {
        let rejected = |detail: &str| StageOutcome::CertFailed {
            detail: detail.to_string(),
        };
        let unsat = |certification| StageOutcome::Unsat { certification };
        match (&self.result, self.cert) {
            (HdpllResult::Sat(_), SessionCert::ModelVerified) => StageOutcome::CertifiedSat,
            (HdpllResult::Sat(_), _) => rejected("SAT model rejected by the simulator"),
            (HdpllResult::Unsat, SessionCert::ProofChecked) => unsat(Certification::Proof),
            (HdpllResult::Unsat, _) if !proof_logged => unsat(Certification::Uncertified),
            (HdpllResult::Unsat, _) => rejected("UNSAT proof rejected or missing"),
            (HdpllResult::Unknown, _) => StageOutcome::unknown(self.abort),
        }
    }
}

/// A degradation ladder over incremental sessions: the sessioned
/// counterpart of [`crate::Supervisor`].
///
/// One live [`Session`] per rung answers queries incrementally; when a
/// rung panics, fails certification (a Sat model the simulator rejects,
/// or — with proof logging on — an Unsat whose proof the checker
/// refuses), or returns Unknown, the ladder falls to the next rung and
/// builds it a **fresh session** from the current netlist. Degradation
/// is sticky: later queries start at the degraded rung, mirroring
/// [`crate::Supervisor`]'s one-way ladder. A caught panic can only have
/// poisoned engine state, never the netlist (plain data), so the fresh
/// session is built from an uncorrupted problem. Each rung attempt runs
/// through the same rung runner as a [`crate::Supervisor`] stage and is
/// reported as a [`StageReport`] in the same outcome vocabulary.
pub struct SupervisedSession {
    netlist: Netlist,
    rungs: Vec<(String, SolverConfig)>,
    active: usize,
    session: Option<Session>,
    obs: ObsHandle,
    degradations: u32,
    preproc: bool,
    faults: FaultPlan,
}

impl SupervisedSession {
    /// A ladder with explicit rungs, tried in order (`rtl-serve`'s
    /// `session_rungs` derives an engine's rungs from its one ladder
    /// table).
    ///
    /// # Panics
    ///
    /// Panics if `rungs` is empty.
    #[must_use]
    pub fn with_rungs(netlist: &Netlist, rungs: Vec<(String, SolverConfig)>) -> Self {
        assert!(!rungs.is_empty(), "ladder needs at least one rung");
        SupervisedSession {
            netlist: netlist.clone(),
            rungs,
            active: 0,
            session: None,
            obs: ObsHandle::off(),
            degradations: 0,
            preproc: true,
            faults: FaultPlan::default(),
        }
    }

    /// Enables or disables word-level preprocessing on every rung's
    /// session (the default is on). Takes effect on the next session
    /// build; call before the first query.
    #[must_use]
    pub fn with_preproc(mut self, on: bool) -> Self {
        self.preproc = on;
        self
    }

    /// Arms a [`FaultPlan`] on the current rung's session: the live one,
    /// or else the next one built (test only). A session rebuilt after
    /// a degradation runs clean.
    pub fn inject_faults(&mut self, faults: FaultPlan) {
        match &mut self.session {
            Some(s) => s.inject_faults(faults),
            None => self.faults = faults,
        }
    }

    /// Installs a telemetry handle, shared by every rung's session
    /// (the live session, if any, switches immediately).
    pub fn set_obs(&mut self, obs: ObsHandle) {
        if let Some(s) = &mut self.session {
            s.set_obs(obs.clone());
        }
        self.obs = obs;
    }

    /// Replaces the per-query wall-clock budget on every rung (and the
    /// live session). A serve loop calls this before each query so one
    /// cached session honours each request's own deadline.
    pub fn set_timeout(&mut self, max_time: Option<Duration>) {
        for (_, config) in &mut self.rungs {
            config.limits.max_time = max_time;
        }
        if let Some(s) = &mut self.session {
            let mut limits = self.rungs[self.active].1.limits;
            limits.max_time = max_time;
            s.set_limits(limits);
        }
    }

    /// Cumulative solver statistics of the live session (`None` right
    /// after construction or a degradation dropped it).
    #[must_use]
    pub fn stats(&self) -> Option<&crate::SolverStats> {
        self.session.as_ref().map(Session::stats)
    }

    /// The live session, if any (`None` right after construction or
    /// after a degradation dropped it). Use it to reach
    /// [`Session::proof_netlist`] when re-checking a query's proof.
    #[must_use]
    pub fn session(&self) -> Option<&Session> {
        self.session.as_ref()
    }

    /// The label of the rung currently answering queries.
    #[must_use]
    pub fn active_rung(&self) -> &str {
        &self.rungs[self.active].0
    }

    /// How many times the ladder has degraded to a lower rung.
    #[must_use]
    pub fn degradations(&self) -> u32 {
        self.degradations
    }

    /// The ladder's netlist as grown so far.
    #[must_use]
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Grows the netlist in place (see [`Session::extend`]); the live
    /// session, if any, is extended to match.
    pub fn extend(&mut self, grow: impl FnOnce(&mut Netlist)) {
        grow(&mut self.netlist);
        let netlist = &self.netlist;
        if let Some(session) = &mut self.session {
            // Catching up the live session to the master is a pure
            // extension: the session's netlist is a prefix of the
            // master (it was built from the master and has grown in
            // step with it), so only the new suffix is copied.
            let ok = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                session.extend(|n| n.append_suffix(netlist));
            }))
            .is_ok();
            if !ok {
                self.session = None;
            }
        }
    }

    /// Decides satisfiability under `assumptions`, degrading through
    /// the ladder until a rung's answer survives certification.
    pub fn solve(&mut self, assumptions: &[Assumption]) -> SupervisedQuery {
        self.solve_cancellable(assumptions, &CancelToken::new())
    }

    /// Like [`SupervisedSession::solve`], but polls `cancel`; a
    /// cancelled query returns Unknown without degrading the ladder
    /// further than the rung it interrupted.
    pub fn solve_cancellable(
        &mut self,
        assumptions: &[Assumption],
        cancel: &CancelToken,
    ) -> SupervisedQuery {
        let mut reports = Vec::new();
        loop {
            let (report, certified) = self.attempt(assumptions, cancel);
            let accepted = report.outcome.is_accepted();
            reports.push(report);
            match certified {
                Some(certified) if accepted => {
                    return SupervisedQuery {
                        certified,
                        answered_by: Some(self.active_rung().to_string()),
                        reports,
                    };
                }
                // A cancelled query is the caller's doing, not the
                // rung's failure: report Unknown, keep the rung.
                Some(certified) if cancel.is_cancelled() => {
                    return SupervisedQuery {
                        certified: Certified::unknown(certified.abort),
                        answered_by: None,
                        reports,
                    };
                }
                _ => {}
            }
            if !self.degrade() {
                return SupervisedQuery {
                    certified: Certified::unknown(None),
                    answered_by: None,
                    reports,
                };
            }
        }
    }

    /// Runs the active rung on one query through the ladder's rung
    /// runner. The rung's session is built here when there is none (at
    /// the first query, or afresh after a degradation), so a panic in
    /// the build fails the rung like a panic in the query.
    fn attempt(
        &mut self,
        assumptions: &[Assumption],
        cancel: &CancelToken,
    ) -> (StageReport, Option<Certified>) {
        let SupervisedSession {
            netlist,
            rungs,
            active,
            session,
            obs,
            preproc,
            faults,
            ..
        } = self;
        let (label, config) = &rungs[*active];
        run_rung(obs, label, || {
            let session = session.get_or_insert_with(|| {
                let mut s = Session::with_preproc(netlist, *config, *preproc);
                s.set_obs(obs.clone());
                s.inject_faults(std::mem::take(faults));
                s
            });
            let first = session.queries() == 0;
            let search_before = session.stats().search_time;
            let certified = session.solve_cancellable(assumptions, cancel);
            // A session's statistics are cumulative: the query's own
            // search time is their growth, and the one-time predicate
            // pass belongs to the session's first query.
            let mut stats = *session.stats();
            stats.search_time = stats.search_time.saturating_sub(search_before);
            if !first {
                stats.learn_time = Duration::ZERO;
            }
            (certified.outcome(config.proof), Some(stats), certified)
        })
    }

    /// Drops the discredited session and moves to the next rung;
    /// `false` when the ladder is exhausted (the last rung stays
    /// active for future queries — its replacement is rebuilt fresh).
    fn degrade(&mut self) -> bool {
        self.session = None;
        self.degradations += 1;
        if self.active + 1 < self.rungs.len() {
            self.active += 1;
            true
        } else {
            false
        }
    }
}
