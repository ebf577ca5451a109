//! The solve supervisor: certified results, cooperative cancellation,
//! and graceful degradation across solver stages.
//!
//! [`Solver::solve`](crate::Solver::solve) answers on faith: a `Sat`
//! model is whatever the final check produced, `Unsat` is whatever the
//! conflict analysis concluded, and an exhausted budget is a dead end.
//! The [`Supervisor`] wraps any number of solver *stages* behind one
//! robust entry point:
//!
//! * **Certification** — every `Sat` model is re-evaluated against the
//!   netlist by the [`rtl_ir::eval`] simulator before it is reported.
//!   An `Unsat` verdict is certified by an **independently checked
//!   proof** when the stage logged one ([`rtl_proof`]; the default for
//!   [`HdpllStage`]): the supervisor re-checks the proof from scratch
//!   against the netlist, and a complete proof that fails the check
//!   discredits the stage. Stages without proofs fall back to the
//!   optional cross-check by an independent stage (typically the eager
//!   bit-blast baseline) under a small budget; failing both leaves the
//!   verdict explicitly [`Certification::Uncertified`]. A stage that
//!   lies produces a [`StageOutcome::CertFailed`] report and the ladder
//!   moves on — a wrong answer never escapes as the final verdict.
//! * **Cooperative cancellation + deadlines** — a [`CancelToken`] and a
//!   wall-clock budget are threaded into the propagation loop itself
//!   (checked every ~4096 steps), so `max_time` holds even during
//!   pathological propagation bursts and callers can abort mid-solve
//!   from another thread.
//! * **Graceful degradation** — on `Unknown`, a certification failure,
//!   or a caught panic (`catch_unwind` at the stage boundary), the
//!   supervisor falls through a configurable stage ladder (e.g.
//!   `hdpll-sp` → `hdpll` → eager bit-blast) with weighted
//!   per-stage budget splits, and reports which stage answered and what
//!   happened to every stage it tried. Each stage attempt runs through
//!   the rung runner [`SupervisedSession`](crate::SupervisedSession)
//!   shares, and is reported as a [`StageReport`].
//! * **Fault injection** — a test-only [`FaultPlan`] hook corrupts the
//!   engine in targeted ways (flip a learned clause, drop a narrowing,
//!   raise a spurious conflict, stall propagation) so the test suite
//!   can prove certification catches each corruption and the ladder
//!   degrades instead of crashing or hanging.

use std::any::Any;
use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rtl_ir::simplify::{simplify, SignalMap, SimplifyStats};
use rtl_ir::{eval, Netlist, Op, SignalId};
use rtl_obs::ObsHandle;
use rtl_proof::{Checker, Proof};

use crate::solver::{HdpllResult, Solver, SolverConfig, SolverStats};
use crate::types::AbortReason;

/// A shareable cancellation flag.
///
/// Clones share the same flag; [`CancelToken::cancel`] from any clone
/// (e.g. a signal handler or another thread) makes every solve that was
/// handed the token return [`HdpllResult::Unknown`] at its next budget
/// poll (within ~4096 propagation steps).
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }

    /// The shared flag, for threading into the engine's budget guard.
    pub(crate) fn flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.flag)
    }
}

/// Test-only fault injection hooks for the HDPLL engine.
///
/// Each field arms one fault at one point of the run, identified by the
/// value of a monotone engine counter (so plans are deterministic and
/// independent of wall-clock). `Some(n)` fires the fault when the
/// counter *equals* `n`; `None` (the default) disarms it. An
/// all-`None` plan is free on the hot path.
///
/// The faults model the corruptions the supervisor is designed to
/// survive:
///
/// * a **corrupted learned clause** makes later propagation unsound —
///   certification must catch the bogus model (or the eager cross-check
///   the bogus refutation);
/// * a **dropped narrowing** loses propagation strength — the run must
///   still terminate with a sound (possibly weaker) answer;
/// * a **spurious conflict** fakes an inconsistency that conflict
///   analysis cannot explain — the wrong `Unsat` must be caught by the
///   cross-check;
/// * a **stalled propagation** spins inside the hot loop — only the
///   in-loop deadline/cancel polling can get the solve back;
/// * a **corrupted deletion** records a deletion event citing a proof
///   step that can never exist — the proof log's deletion bookkeeping
///   must fail closed (an uncertifiable proof, never a checked lie).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Flip the first literal of the `n`-th learned clause (0-based,
    /// counted by `EngineStats::learned`).
    pub corrupt_learned_clause: Option<u64>,
    /// Silently discard the `n`-th constraint-implied domain narrowing
    /// (1-based, counted by `EngineStats::narrowings`).
    pub drop_narrowing: Option<u64>,
    /// Report a fabricated conflict at the `n`-th propagation step
    /// (1-based, counted by `EngineStats::propagations`).
    pub spurious_conflict: Option<u64>,
    /// Spin inside `propagate()` at the `n`-th propagation step until a
    /// deadline or cancellation trips (1-based).
    pub stall_propagation: Option<u64>,
    /// Log a bogus deletion event alongside the `n`-th DB reduction
    /// (0-based, counted by `EngineStats::db_reductions`).
    pub corrupt_deletion: Option<u64>,
}

impl FaultPlan {
    /// `true` when no fault is armed.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        *self == Self::default()
    }
}

/// What one stage run produced: the verdict plus optional evidence.
#[derive(Clone, Debug)]
pub struct StageRun {
    /// The stage's verdict.
    pub result: HdpllResult,
    /// Solver statistics, when the stage exposes them.
    pub stats: Option<SolverStats>,
    /// An Unsat proof, when the stage logged one. The supervisor
    /// re-checks it independently before certifying the verdict.
    pub proof: Option<Proof>,
}

impl StageRun {
    /// A run with a bare verdict (no statistics, no proof).
    #[must_use]
    pub fn new(result: HdpllResult) -> Self {
        Self {
            result,
            stats: None,
            proof: None,
        }
    }
}

/// One rung of the supervisor's degradation ladder.
///
/// A stage receives the netlist, the goal, its share of the remaining
/// wall-clock budget, and the supervisor's cancel token; it returns its
/// verdict plus (for HDPLL-family stages) the solver statistics and,
/// for Unsat, an optional proof. Stages may panic — the supervisor
/// catches the unwind at the boundary.
pub trait SolveStage {
    /// Stable human-readable stage name, used in reports and stats.
    fn name(&self) -> &str;

    /// Runs the stage. `max_time` is the wall-clock slice granted by
    /// the supervisor (`None` = unlimited); implementations must also
    /// honour `cancel` promptly.
    fn run(
        &mut self,
        netlist: &Netlist,
        goal: SignalId,
        max_time: Option<Duration>,
        cancel: &CancelToken,
    ) -> StageRun;

    /// Installs a telemetry handle for subsequent runs. The default
    /// implementation ignores it, so stages without engine-level
    /// telemetry (the baselines) need not care.
    fn install_obs(&mut self, _obs: &ObsHandle) {}
}

/// A [`SolveStage`] running this crate's HDPLL solver under a given
/// configuration (and, in tests, a [`FaultPlan`]).
#[derive(Clone, Debug)]
pub struct HdpllStage {
    label: String,
    config: SolverConfig,
    faults: FaultPlan,
    obs: ObsHandle,
}

impl HdpllStage {
    /// A stage named `label` running `config` with proof logging on:
    /// Unsat verdicts carry a proof the supervisor certifies
    /// independently.
    #[must_use]
    pub fn new(label: impl Into<String>, config: SolverConfig) -> Self {
        Self {
            label: label.into(),
            config: config.with_proof(true),
            faults: FaultPlan::default(),
            obs: ObsHandle::off(),
        }
    }

    /// Arms a fault plan on this stage (test only).
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }
}

/// The time limit a stage runs under: its slice of the ladder's budget
/// tightens (never widens) the limit it was configured with.
#[must_use]
pub fn slice_limit(configured: Option<Duration>, slice: Option<Duration>) -> Option<Duration> {
    configured.into_iter().chain(slice).min()
}

impl SolveStage for HdpllStage {
    fn name(&self) -> &str {
        &self.label
    }

    fn run(
        &mut self,
        netlist: &Netlist,
        goal: SignalId,
        max_time: Option<Duration>,
        cancel: &CancelToken,
    ) -> StageRun {
        let mut config = self.config;
        config.limits.max_time = slice_limit(config.limits.max_time, max_time);
        let mut solver = Solver::new(netlist, config);
        solver.inject_faults(self.faults);
        solver.set_obs(self.obs.clone());
        let result = solver.solve_cancellable(goal, cancel);
        StageRun {
            result,
            stats: Some(*solver.stats()),
            proof: solver.take_proof(),
        }
    }

    fn install_obs(&mut self, obs: &ObsHandle) {
        self.obs = obs.clone();
    }
}

/// How an `Unsat` verdict was (or was not) independently validated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Certification {
    /// The stage's proof was re-checked from scratch by the
    /// independent [`rtl_proof`] checker — the strongest certificate.
    Proof,
    /// An independent stage (typically the eager bit-blast baseline)
    /// also concluded `Unsat` within its budget.
    CrossChecked,
    /// No proof and no conclusive cross-check: the verdict rests on
    /// the reporting stage alone.
    Uncertified,
}

/// What happened to one stage of a supervised solve.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StageOutcome {
    /// The stage reported `Sat` and the model was certified by
    /// re-simulation.
    CertifiedSat,
    /// The stage reported `Unsat`; `certification` records how the
    /// verdict was independently validated.
    Unsat {
        /// The strongest certification obtained for the verdict.
        certification: Certification,
    },
    /// The stage's answer failed certification (a `Sat` model the
    /// simulator rejects, or an `Unsat` refuted by a certified
    /// counter-model) and was discarded.
    CertFailed {
        /// Human-readable description of the failure.
        detail: String,
    },
    /// The stage gave up (budget, cancellation, or incompleteness).
    Unknown {
        /// What exhausted the stage, e.g. `"deadline"`.
        reason: String,
    },
    /// The stage panicked; the unwind was caught at the boundary.
    Panicked {
        /// The panic payload, if it was a string.
        detail: String,
    },
}

impl StageOutcome {
    /// `true` for [`StageOutcome::CertFailed`].
    #[must_use]
    pub fn is_cert_failure(&self) -> bool {
        matches!(self, StageOutcome::CertFailed { .. })
    }

    /// `true` when a ladder accepts the answer as its verdict (a
    /// certified `Sat`, or an `Unsat` however it was certified); every
    /// other outcome falls through to the next rung.
    #[must_use]
    pub fn is_accepted(&self) -> bool {
        matches!(
            self,
            StageOutcome::CertifiedSat | StageOutcome::Unsat { .. }
        )
    }

    /// The outcome of a run that gave up, named by its abort reason.
    pub(crate) fn unknown(abort: Option<AbortReason>) -> Self {
        let reason = abort.map_or_else(|| "budget exhausted".to_string(), |r| r.to_string());
        StageOutcome::Unknown { reason }
    }
}

impl fmt::Display for StageOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StageOutcome::CertifiedSat => write!(f, "SAT (model certified)"),
            StageOutcome::Unsat {
                certification: Certification::Proof,
            } => write!(f, "UNSAT (proof checked)"),
            StageOutcome::Unsat {
                certification: Certification::CrossChecked,
            } => write!(f, "UNSAT (cross-checked)"),
            StageOutcome::Unsat {
                certification: Certification::Uncertified,
            } => write!(f, "UNSAT (uncertified)"),
            StageOutcome::CertFailed { detail } => write!(f, "certification failed: {detail}"),
            StageOutcome::Unknown { reason } => write!(f, "unknown ({reason})"),
            StageOutcome::Panicked { detail } => write!(f, "panicked: {detail}"),
        }
    }
}

/// What one rung attempt of a degradation ladder did: a stage of a
/// [`Supervisor`] solve, or a rung of a
/// [`SupervisedSession`](crate::SupervisedSession) query.
#[derive(Clone, Debug)]
pub struct StageReport {
    /// The stage's [`SolveStage::name`] (or the session rung's label).
    pub stage: String,
    /// What the stage concluded (or failed to).
    pub outcome: StageOutcome,
    /// Wall-clock time the stage consumed (including certification of
    /// its own answer).
    pub time: Duration,
    /// The attempt's own solver statistics, when the stage exposes
    /// them. For a session rung, search time, learning time and the
    /// abort reason are the query's; engine counters and peaks are the
    /// session's running totals.
    pub stats: Option<SolverStats>,
}

/// What the stage-0 preprocessing transform did to the problem the
/// ladder actually solved (see [`rtl_ir::simplify`]).
///
/// When present, the ladder ran on `netlist`/`goal` instead of the
/// caller's originals: `Sat` models were translated back through `map`
/// and re-certified against the *original* netlist before being
/// reported ([`PreprocSummary::certify_model`]), while the `proof` of an
/// `Unsat` verdict refutes the *simplified* netlist — persist this
/// summary alongside the proof (`rtlsat --proof` writes a `.preproc`
/// bundle) so an offline checker can re-derive the rewrites and
/// validate the pair.
#[derive(Clone, Debug)]
pub struct PreprocSummary {
    /// Rewrite counters (signals before/after, folds, shares, cone).
    pub stats: SimplifyStats,
    /// The simplified netlist the ladder solved.
    pub netlist: Netlist,
    /// The goal's image in the simplified netlist.
    pub goal: SignalId,
    /// Old → new signal map (partial: cone-pruned signals have no
    /// image).
    pub map: SignalMap,
}

impl PreprocSummary {
    /// `true` when the rewrites decided the query outright: the goal's
    /// image is a constant.
    fn goal_folded(&self) -> bool {
        matches!(self.netlist.op(self.goal), Op::Const(_))
    }

    /// Translates a model of the simplified netlist back to `original`,
    /// the netlist this summary was made from, and certifies it there
    /// against `goal` by re-simulation, so the simplifier is never part
    /// of the trusted base.
    ///
    /// # Errors
    ///
    /// Why the simulator rejected the translated model.
    pub fn certify_model(
        &self,
        original: &Netlist,
        goal: SignalId,
        model: &HashMap<SignalId, i64>,
    ) -> Result<HashMap<SignalId, i64>, String> {
        let model = self.map.translate_model(original, model);
        eval::model_failure(original, &model, goal).map_or(Ok(model), Err)
    }
}

/// Stage-0 preprocessing, the one entry point both ladders' callers
/// share: simplifies `netlist` against `goal` under the `preproc` trace
/// stage and profiler span, and records the `preproc_*` counters.
#[must_use]
pub fn preprocess(netlist: &Netlist, goal: SignalId, obs: &ObsHandle) -> PreprocSummary {
    obs.stage_start("preproc");
    obs.profile_enter("preproc");
    let pre = simplify(netlist, &[goal]);
    obs.profile_exit();
    let stats = pre.stats;
    obs.record_counter("preproc_signals_removed", stats.removed() as u64);
    obs.record_counter("preproc_subterms_shared", stats.shares);
    obs.record_counter("preproc_folds", stats.folds);
    let summary = PreprocSummary {
        stats,
        goal: pre.map.get(goal).expect("the goal is a preprocessing root"),
        netlist: pre.netlist,
        map: pre.map,
    };
    obs.stage_end(
        "preproc",
        &format!(
            "{} -> {} signals, {} shared, {} folds{}",
            stats.signals_before,
            stats.signals_after,
            stats.shares,
            stats.folds,
            if summary.goal_folded() { ", goal folded" } else { "" },
        ),
    );
    summary
}

/// The certified result of [`Supervisor::solve`].
#[derive(Clone, Debug)]
pub struct SupervisedResult {
    /// The final verdict. `Sat` models are always certified; for
    /// `Unsat` see [`SupervisedResult::unsat_certification`].
    /// `Unknown` means every stage was exhausted (or discredited)
    /// without a certified answer.
    pub verdict: HdpllResult,
    /// Name of the stage whose answer became the verdict (`None` when
    /// the verdict is `Unknown`).
    pub answered_by: Option<String>,
    /// One report per stage attempted, in ladder order.
    pub reports: Vec<StageReport>,
    /// The checked proof behind an `Unsat` verdict certified with
    /// [`Certification::Proof`] (dump it with [`rtl_proof::format`]).
    /// When [`SupervisedResult::preproc`] is `Some`, the proof refutes
    /// the *simplified* netlist recorded there.
    pub proof: Option<Proof>,
    /// The stage-0 preprocessing summary, when the ladder solved a
    /// simplified netlist (`None` with `--no-preproc`, or when the
    /// goal folded to a constant and the supervisor fell back to the
    /// original problem).
    pub preproc: Option<PreprocSummary>,
}

impl SupervisedResult {
    /// Number of stages whose answer failed certification.
    #[must_use]
    pub fn cert_failures(&self) -> usize {
        self.reports
            .iter()
            .filter(|r| r.outcome.is_cert_failure())
            .count()
    }

    /// How an `Unsat` verdict was certified (`None` for other
    /// verdicts).
    #[must_use]
    pub fn unsat_certification(&self) -> Option<Certification> {
        let answered = self.answered_by.as_deref()?;
        self.reports
            .iter()
            .filter(|r| r.stage == answered)
            .find_map(|r| match r.outcome {
                StageOutcome::Unsat { certification } => Some(certification),
                _ => None,
            })
    }
}

/// Orchestrates a ladder of [`SolveStage`]s under one wall-clock budget
/// and cancel token, certifying every answer before trusting it.
///
/// ```
/// use rtl_hdpll::{HdpllStage, SolverConfig, Supervisor};
/// use rtl_ir::Netlist;
/// use std::time::Duration;
///
/// let mut n = Netlist::new("demo");
/// let a = n.input_bool("a").unwrap();
/// let b = n.input_bool("b").unwrap();
/// let goal = n.and(&[a, b]).unwrap();
///
/// let mut sup = Supervisor::new()
///     .budget(Duration::from_secs(5))
///     .stage(HdpllStage::new("hdpll", SolverConfig::hdpll()));
/// let result = sup.solve(&n, goal);
/// assert!(result.verdict.is_sat());
/// assert_eq!(result.answered_by.as_deref(), Some("hdpll"));
/// ```
pub struct Supervisor {
    stages: Vec<(Box<dyn SolveStage>, f64)>,
    budget: Option<Duration>,
    unsat_check: UnsatCheck,
    cancel: CancelToken,
    obs: ObsHandle,
    preproc: bool,
}

impl Default for Supervisor {
    fn default() -> Self {
        Self {
            stages: Vec::new(),
            budget: None,
            unsat_check: None,
            cancel: CancelToken::default(),
            obs: ObsHandle::off(),
            // Stage-0 word-level preprocessing is on by default; the
            // CLI's `--no-preproc` flag is the escape hatch.
            preproc: true,
        }
    }
}

impl fmt::Debug for Supervisor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Supervisor")
            .field(
                "stages",
                &self
                    .stages
                    .iter()
                    .map(|(s, w)| (s.name().to_string(), *w))
                    .collect::<Vec<_>>(),
            )
            .field("budget", &self.budget)
            .field(
                "unsat_check",
                &self.unsat_check.as_ref().map(|(s, b)| (s.name().to_string(), *b)),
            )
            .finish_non_exhaustive()
    }
}

impl Supervisor {
    /// An empty supervisor: no stages, no budget, a fresh cancel token.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the total wall-clock budget shared by all stages.
    #[must_use]
    pub fn budget(mut self, budget: Duration) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Appends a stage with weight 1.
    #[must_use]
    pub fn stage(self, stage: impl SolveStage + 'static) -> Self {
        self.weighted_stage(stage, 1.0)
    }

    /// Appends a stage with an explicit budget weight. Stage `i`
    /// receives `remaining × wᵢ / Σ_{j ≥ i} wⱼ` of the wall clock left
    /// when it starts, so unused time flows down the ladder and the
    /// last stage always gets everything that remains.
    #[must_use]
    pub fn weighted_stage(mut self, stage: impl SolveStage + 'static, weight: f64) -> Self {
        self.stages.push((Box::new(stage), weight.max(0.0)));
        self
    }

    /// Enables `Unsat` cross-checking: whenever a ladder stage reports
    /// `Unsat`, `checker` (typically the eager bit-blast baseline) is
    /// run under `budget`. A *certified* counter-model from the checker
    /// refutes the verdict ([`StageOutcome::CertFailed`]); agreement
    /// marks it cross-checked; anything else (unknown, panic, an
    /// uncertified counter-model) leaves the verdict standing.
    #[must_use]
    pub fn check_unsat_with(mut self, checker: impl SolveStage + 'static, budget: Duration) -> Self {
        self.unsat_check = Some((Box::new(checker), budget));
        self
    }

    /// Installs a telemetry handle: stage spans are traced and every
    /// ladder stage's engine feeds the same event stream and metrics
    /// registry (the default handle is off).
    #[must_use]
    pub fn with_obs(mut self, obs: ObsHandle) -> Self {
        self.obs = obs;
        self
    }

    /// The supervisor's cancel token. Clone it before calling
    /// [`Supervisor::solve`] to cancel from another thread.
    #[must_use]
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Replaces the supervisor's cancel token with an externally shared
    /// one, so one token (e.g. a server's drain signal) can cancel many
    /// supervisors at once.
    #[must_use]
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = token;
        self
    }

    /// Enables or disables the stage-0 word-level preprocessing
    /// transform (on by default). With it on, the ladder solves the
    /// [`rtl_ir::simplify`]-reduced netlist; `Sat` models are
    /// translated back and re-certified against the original, and the
    /// [`SupervisedResult::preproc`] summary records the evidence an
    /// offline proof check needs.
    #[must_use]
    pub fn with_preproc(mut self, on: bool) -> Self {
        self.preproc = on;
        self
    }

    /// Runs the ladder until a stage produces a certified answer.
    ///
    /// With preprocessing enabled (the default), the
    /// [`rtl_ir::simplify`] pipeline first shrinks the problem; the
    /// ladder then solves the simplified netlist, and `Sat` models are
    /// translated back through the signal map and re-certified against
    /// the *original* netlist before they become the verdict.
    ///
    /// Stages run in order; each gets its weighted share of the
    /// remaining budget. A stage's `Sat` is re-simulated and its
    /// `Unsat` optionally cross-checked before it may become the
    /// verdict; discredited, exhausted, and panicking stages are
    /// recorded and the ladder falls through to the next rung.
    pub fn solve(&mut self, netlist: &Netlist, goal: SignalId) -> SupervisedResult {
        if !self.preproc {
            return self.solve_ladder(netlist, goal, None);
        }
        let pre = preprocess(netlist, goal, &self.obs);
        if pre.goal_folded() {
            // The rewrites decided the query outright. A constant goal
            // yields no search and no usable proof, so run the ladder
            // on the untouched original: its certification — proof,
            // model, or cross-check — then speaks about the caller's
            // netlist directly and nothing downstream changes shape.
            return self.solve_ladder(netlist, goal, None);
        }
        let mut result = self.solve_ladder(&pre.netlist, pre.goal, Some((netlist, goal, &pre)));
        result.preproc = Some(pre);
        result
    }

    /// The degradation ladder proper. `original` is present when
    /// `netlist`/`goal` are the preprocessed problem: `Sat` models are
    /// then certified against the original netlist/goal instead
    /// ([`PreprocSummary::certify_model`]), so the simplifier never has
    /// to be trusted.
    fn solve_ladder(
        &mut self,
        netlist: &Netlist,
        goal: SignalId,
        original: Option<(&Netlist, SignalId, &PreprocSummary)>,
    ) -> SupervisedResult {
        let deadline = self.budget.map(|b| Instant::now() + b);
        let cancel = self.cancel.clone();
        let obs = self.obs.clone();
        let Supervisor {
            stages,
            unsat_check,
            ..
        } = self;
        for (stage, _) in stages.iter_mut() {
            stage.install_obs(&obs);
        }
        let mut reports = Vec::new();
        let n_stages = stages.len();

        for i in 0..n_stages {
            if cancel.is_cancelled() {
                break;
            }
            // Weighted share of the wall clock still left: the last
            // stage inherits everything, including time earlier stages
            // did not use.
            let slice = deadline.map(|d| {
                let remaining = d.saturating_duration_since(Instant::now());
                if i + 1 == n_stages {
                    return remaining;
                }
                let total: f64 = stages[i..].iter().map(|(_, w)| *w).sum();
                if total > 0.0 {
                    remaining.mul_f64(stages[i].1 / total)
                } else {
                    remaining
                }
            });
            if slice.is_some_and(|s| s.is_zero()) {
                break;
            }

            let stage = &mut stages[i].0;
            let name = stage.name().to_string();
            obs.stage_start(&name);
            let (report, answer) = run_rung(&obs, &name, || {
                // The stage span wraps the run alone; certifying its
                // answer is profiled as `certify`.
                obs.profile_enter(&name);
                let run = stage.run(netlist, goal, slice, &cancel);
                obs.profile_exit();
                judge(run, (netlist, goal), original, unsat_check, &cancel, &obs)
            });
            // The trace mirrors the report wall-clock-free: the time
            // lives in the report and the stats-json record.
            obs.stage_end(&report.stage, &report.outcome.to_string());
            let accepted = report.outcome.is_accepted();
            reports.push(report);
            if let (true, Some((verdict, proof))) = (accepted, answer) {
                return SupervisedResult {
                    verdict,
                    answered_by: Some(name),
                    reports,
                    proof,
                    preproc: None,
                };
            }
        }

        SupervisedResult {
            verdict: HdpllResult::Unknown,
            answered_by: None,
            reports,
            proof: None,
            preproc: None,
        }
    }
}

/// A configured `Unsat` cross-check: the checker stage and its budget.
type UnsatCheck = Option<(Box<dyn SolveStage>, Duration)>;

/// Judges one stage run before the ladder may accept it: a `Sat` model
/// is re-simulated, an `Unsat` certified by [`certify_unsat`]. Returns
/// the outcome, the run's statistics, and the verdict (with its checked
/// proof) the ladder reports if it accepts the outcome.
fn judge(
    run: StageRun,
    (netlist, goal): (&Netlist, SignalId),
    original: Option<(&Netlist, SignalId, &PreprocSummary)>,
    unsat_check: &mut UnsatCheck,
    cancel: &CancelToken,
    obs: &ObsHandle,
) -> (StageOutcome, Option<SolverStats>, (HdpllResult, Option<Proof>)) {
    let StageRun {
        result,
        stats,
        proof,
    } = run;
    let rejected = |detail| (StageOutcome::CertFailed { detail }, (HdpllResult::Unknown, None));
    let (outcome, answer) = match result {
        HdpllResult::Sat(model) => {
            // When the ladder runs on a preprocessed netlist, the model
            // is certified against the *original* — the verdict then
            // carries the translated model, and a simplifier bug
            // surfaces as a certification failure, never a wrong answer.
            obs.profile_enter("certify");
            let certified = match original {
                Some((orig, orig_goal, pre)) => pre.certify_model(orig, orig_goal, &model),
                None => eval::model_failure(netlist, &model, goal).map_or(Ok(model), Err),
            };
            obs.profile_exit();
            match certified {
                Ok(model) => (StageOutcome::CertifiedSat, (HdpllResult::Sat(model), None)),
                Err(why) => rejected(format!("SAT model rejected: {why}")),
            }
        }
        HdpllResult::Unsat => {
            match certify_unsat(proof, (netlist, goal), unsat_check, cancel, obs) {
                Ok((certification, proof)) => (
                    StageOutcome::Unsat { certification },
                    (HdpllResult::Unsat, proof),
                ),
                Err(why) => rejected(why),
            }
        }
        HdpllResult::Unknown => (
            StageOutcome::unknown(stats.and_then(|s| s.abort)),
            (HdpllResult::Unknown, None),
        ),
    };
    (outcome, stats, answer)
}

/// Certifies a stage's `Unsat` claim, proof first: the stage's proof,
/// re-checked from scratch by the independent [`rtl_proof`] checker, is
/// the strongest certificate and costs no extra solve. A stage is a
/// [`SolveStage`] like any other, so a complete proof is only its claim
/// until this check accepts it; a complete proof the check rejects
/// discredits the stage outright (`Err`). No proof, or one with gaps,
/// certifies nothing and discredits nothing: the optional cross-check
/// decides instead.
fn certify_unsat(
    proof: Option<Proof>,
    (netlist, goal): (&Netlist, SignalId),
    unsat_check: &mut UnsatCheck,
    cancel: &CancelToken,
    obs: &ObsHandle,
) -> Result<(Certification, Option<Proof>), String> {
    obs.profile_enter("certify");
    let check = proof
        .filter(Proof::is_complete)
        .map(|p| Checker::check_goal(netlist, goal, &p).map(|_| p));
    obs.profile_exit();
    match check {
        Some(Ok(checked)) => Ok((Certification::Proof, Some(checked))),
        Some(Err(e)) => Err(format!("UNSAT proof rejected: {e}")),
        None => {
            obs.profile_enter("certify");
            let cross = cross_check_unsat(unsat_check, netlist, goal, cancel);
            obs.profile_exit();
            cross.map(|certification| (certification, None))
        }
    }
}

/// Cross-checks an `Unsat` claim with the configured checker stage.
/// Only a counter-model the simulator certifies refutes the claim
/// (`Err`) — an uncertified one just means the checker is broken too;
/// agreement cross-checks it; anything else (no checker, unknown, a
/// panic) leaves it uncertified.
fn cross_check_unsat(
    unsat_check: &mut UnsatCheck,
    netlist: &Netlist,
    goal: SignalId,
    cancel: &CancelToken,
) -> Result<Certification, String> {
    let Some((checker, budget)) = unsat_check.as_mut() else {
        return Ok(Certification::Uncertified);
    };
    let budget = *budget;
    let run = catch_unwind(AssertUnwindSafe(|| {
        checker.run(netlist, goal, Some(budget), cancel)
    }));
    match run.map(|r| r.result) {
        Ok(HdpllResult::Sat(counter)) if eval::model_failure(netlist, &counter, goal).is_none() => {
            Err("UNSAT refuted: cross-check found a certified counter-model".to_string())
        }
        Ok(HdpllResult::Unsat) => Ok(Certification::CrossChecked),
        _ => Ok(Certification::Uncertified),
    }
}

/// Runs one rung attempt of a degradation ladder — a [`Supervisor`]
/// stage or a [`SupervisedSession`](crate::SupervisedSession) rung —
/// and reports it. `attempt` does the rung's work and judges its
/// answer: it returns the outcome, the attempt's own statistics, and
/// the answer the ladder reports if [`StageOutcome::is_accepted`]
/// holds. A panic anywhere in the attempt is caught here and reported
/// as [`StageOutcome::Panicked`] with its message and no answer. The
/// profiler is put back at its entry depth afterwards, so a span the
/// attempt left open cannot swallow what is profiled next; the runner
/// opens no span of its own.
pub(crate) fn run_rung<T>(
    obs: &ObsHandle,
    stage: &str,
    attempt: impl FnOnce() -> (StageOutcome, Option<SolverStats>, T),
) -> (StageReport, Option<T>) {
    let start = Instant::now();
    let depth = obs.profile_depth();
    let run = catch_unwind(AssertUnwindSafe(attempt));
    obs.profile_unwind(depth);
    let (outcome, stats, answer) = match run {
        Ok((outcome, stats, answer)) => (outcome, stats, Some(answer)),
        Err(payload) => (
            StageOutcome::Panicked {
                detail: panic_message(payload),
            },
            None,
            None,
        ),
    };
    let report = StageReport {
        stage: stage.to_string(),
        outcome,
        time: start.elapsed(),
        stats,
    };
    (report, answer)
}

/// The message of a caught panic (`panic!` with a literal or a
/// formatted string), from the payload `catch_unwind` returned.
#[must_use]
pub fn panic_message(payload: Box<dyn Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(message) => *message,
        Err(payload) => payload.downcast_ref::<&str>().map_or_else(
            || "non-string panic payload".to_string(),
            |message| (*message).to_string(),
        ),
    }
}
