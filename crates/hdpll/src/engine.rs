//! The hybrid search engine: trail, event-driven interval constraint
//! propagation (`Ddeduce()`), the hybrid implication graph, and conflict
//! analysis producing hybrid learned clauses (paper §2.4).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use rtl_interval::{Interval, Tribool};
use rtl_obs::ObsHandle;

use crate::compile::Compiled;
use crate::propagate::{step, PropResult};
use crate::supervise::FaultPlan;
use crate::types::{
    AbortReason, ClauseDbConfig, Dom, HClause, HLit, Reason, RestartMode, Span, TrailEntry, VarId,
};

/// A conflict discovered during deduction: the trail entries that directly
/// participate (the antecedent cut seeds of the hybrid implication graph).
#[derive(Clone, Debug)]
pub(crate) struct ConflictInfo {
    pub antecedents: Vec<u32>,
    /// What the conflict falsified.
    pub falsified: Falsified,
}

/// What a conflict falsified: the last step of the learned lemma's
/// derivation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum Falsified {
    /// A clause (proof logging cites it as an antecedent of the lemma).
    Clause(u32),
    /// A constraint: its contractor emptied a domain, or — a J-conflict
    /// — no select value of this mux justifies its output. It is the
    /// lemma's first derivation hint.
    Constraint(u32),
    /// The arithmetic final check's solution box (a theory lemma).
    /// Bounds propagation re-derives the Fourier–Motzkin refutation
    /// only through the case split FM made, so the lemma carries both:
    /// `tags`, the constraints of FM's infeasible subset, seed its
    /// derivation hints, and `diseqs`, the asserted disequalities FM
    /// split into `a < b` and `a > b`, become the step's recorded
    /// splits (DESIGN.md §2.8).
    Box { tags: Vec<u32>, diseqs: Vec<u32> },
    /// Nothing: an injected spurious conflict.
    Nothing,
}

/// Outcome of one [`Engine::propagate`] call.
#[derive(Clone, Debug)]
pub(crate) enum Propagation {
    /// Deduction reached fixpoint without a conflict.
    Fixpoint,
    /// A conflict arose; the seeds of the implication-graph cut.
    Conflict(ConflictInfo),
    /// The budget guard tripped (deadline, cancellation, or step cap)
    /// before fixpoint. The abort is *sticky*: every later call returns
    /// it again, so callers at any depth unwind without re-checking.
    Aborted(AbortReason),
}

#[cfg(test)]
thread_local! {
    /// Test-only switch: while set, every [`Propagation::Fixpoint`] this
    /// thread's engines return is checked by [`Engine::assert_fixpoint`].
    pub(crate) static CHECK_FIXPOINTS: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// How many propagation steps run between deadline/cancellation polls.
///
/// `Instant::now()` and the atomic load are too expensive to pay on every
/// step; at ~10⁷ steps/s a 4096-step period bounds the overshoot past a
/// deadline to well under a millisecond while keeping the amortized cost
/// of the guard below measurement noise (see `BENCH_hotpath.json`).
pub(crate) const POLL_PERIOD: u32 = 4096;

/// The in-engine resource guard: the fine-grained half of
/// [`crate::Limits`], enforced *inside* the propagation loop rather than
/// between top-level search iterations.
#[cfg_attr(test, derive(Clone))]
struct BudgetGuard {
    /// Absolute wall-clock deadline (from `Limits::max_time`).
    deadline: Option<Instant>,
    /// Cooperative cancellation flag shared with the caller.
    cancel: Option<Arc<AtomicBool>>,
    /// The [`EngineStats::propagations`] count at which the step cap
    /// trips (`u64::MAX` = unlimited).
    max_propagations: u64,
    /// Cap on approximate engine memory in bytes (`u64::MAX` = unlimited),
    /// checked against [`Engine::approx_mem_bytes`] at poll points.
    max_memory: u64,
    /// Steps until the next deadline/cancellation poll.
    poll_countdown: u32,
}

impl Default for BudgetGuard {
    fn default() -> Self {
        BudgetGuard {
            deadline: None,
            cancel: None,
            max_propagations: u64::MAX,
            max_memory: u64::MAX,
            poll_countdown: POLL_PERIOD,
        }
    }
}

/// The result of conflict analysis.
#[derive(Clone, Debug)]
pub(crate) struct Analyzed {
    /// Learned hybrid clause (asserting literal first).
    pub lits: Vec<HLit>,
    /// Non-chronological backtrack level.
    pub blevel: u32,
    /// Clause ids visited while walking the implication graph (sorted,
    /// deduplicated): the lemma's clause-level antecedents for proof
    /// logging. Constraint-implied edges have no clause id and are
    /// covered by the checker's own lowering.
    pub used: Vec<u32>,
    /// The lemma's derivation hints (sorted, deduplicated): the
    /// constraint reasons of the entries the walk expanded, plus the
    /// falsified constraint, or the infeasible subset of an arithmetic
    /// conflict ([`Falsified::Box`]).
    pub hints: Vec<u32>,
    /// The disequality constraints the final check split on, in split
    /// order (empty unless the conflict was arithmetic).
    pub diseqs: Vec<u32>,
}

/// [`AnalysisBufs::seen`] state of a trail entry reached by the current
/// analysis but not (or no longer) marked: expanded, or a `bool_only`
/// word entry replaced by its ancestry.
const SEEN: u8 = 1;
/// [`AnalysisBufs::seen`] state of a marked entry: part of the cut.
const MARKED: u8 = 2;

/// Conflict-analysis scratch state owned by the engine and reused across
/// conflicts, so one analysis costs O(entries walked + antecedents)
/// rather than O(trail): nothing here is allocated or cleared per
/// conflict beyond what the analysis touched.
#[cfg_attr(test, derive(Clone))]
#[derive(Default)]
struct AnalysisBufs {
    /// Per trail index: 0, [`SEEN`] or [`MARKED`]. All zero between
    /// analyses; sized to the longest trail analyzed so far.
    seen: Vec<u8>,
    /// Trail indices whose `seen` byte is non-zero: the reset list.
    touched: Vec<u32>,
    /// Per decision level: how many marked entries sit at that level.
    /// All zero between analyses.
    level_marks: Vec<u32>,
    /// DFS stack of the `bool_only` word expansion.
    stack: Vec<u32>,
    /// Entries whose antecedents were walked in the current analysis.
    steps: u32,
}

/// The cone of influence of a session query's assumptions (DESIGN.md
/// §2.3): their variables, and transitively every variable and
/// constraint defining them ([`Compiled::var_def`]), auxiliaries
/// included. While a cone is built, decisions and the final check stay
/// inside it; propagation stays global.
///
/// Membership is an epoch stamp per variable and per constraint, so
/// building a cone costs O(cone) and dropping one costs nothing; the
/// stamp vectors only grow with the problem.
#[cfg_attr(test, derive(Clone))]
#[derive(Default)]
pub(crate) struct Cone {
    /// Stamp of the current cone; marks equal to it are members.
    epoch: u32,
    /// Whether a cone scopes the current search (none: the whole
    /// problem does).
    built: bool,
    var_mark: Vec<u32>,
    cons_mark: Vec<u32>,
    /// The walk's worklist, kept for its capacity.
    stack: Vec<VarId>,
}

impl Cone {
    /// Builds the cone of `roots` over `compiled`.
    pub fn build(&mut self, compiled: &Compiled, roots: impl IntoIterator<Item = VarId>) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.var_mark.fill(0);
            self.cons_mark.fill(0);
            self.epoch = 1;
        }
        let epoch = self.epoch;
        if self.var_mark.len() < compiled.init_dom.len() {
            self.var_mark.resize(compiled.init_dom.len(), 0);
        }
        if self.cons_mark.len() < compiled.cons.len() {
            self.cons_mark.resize(compiled.cons.len(), 0);
        }
        for v in roots {
            if std::mem::replace(&mut self.var_mark[v.index()], epoch) != epoch {
                self.stack.push(v);
            }
        }
        while let Some(v) = self.stack.pop() {
            for ci in compiled.var_def[v.index()].range() {
                self.cons_mark[ci] = epoch;
                for &u in compiled.cons_vars(ci as u32) {
                    if std::mem::replace(&mut self.var_mark[u.index()], epoch) != epoch {
                        self.stack.push(u);
                    }
                }
            }
        }
        self.built = true;
    }

    /// Drops the cone: the whole problem is in scope again.
    pub fn clear(&mut self) {
        self.built = false;
    }

    /// Whether a cone scopes the search.
    pub fn is_built(&self) -> bool {
        self.built
    }

    /// Whether variable `v` is in scope.
    pub fn holds_var(&self, v: VarId) -> bool {
        !self.built || self.var_mark[v.index()] == self.epoch
    }

    /// Whether constraint `ci` is in scope.
    pub fn holds_cons(&self, ci: u32) -> bool {
        !self.built || self.cons_mark[ci as usize] == self.epoch
    }
}

/// Cumulative engine statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Decisions made.
    pub decisions: u64,
    /// Constraint propagation steps executed.
    pub propagations: u64,
    /// Conflicts analyzed.
    pub conflicts: u64,
    /// Hybrid clauses learned from conflicts.
    pub learned: u64,
    /// Calls to the arithmetic (FM) final check.
    pub fm_calls: u64,
    /// J-conflicts found by the structural decision strategy.
    pub j_conflicts: u64,
    /// Clause propagation steps executed (the constraint counterpart is
    /// [`EngineStats::propagations`]): the queued clause visits, i.e.
    /// clauses a narrowing left with a false watch, one-literal clauses
    /// not yet true, and each new clause once.
    pub clause_props: u64,
    /// Constraint-implied domain narrowings applied to the trail.
    pub narrowings: u64,
    /// High-water mark of the constraint worklist (queue pressure).
    pub max_cqueue: u64,
    /// High-water mark of the clause worklist (queue pressure).
    pub max_clqueue: u64,
    /// High-water mark of the antecedent pool (implication-graph memory).
    pub ant_pool_peak: u64,
    /// Search backtracks: non-chronological jumps after learning plus
    /// chronological flips (static-learning probe pops are excluded).
    pub backtracks: u64,
    /// Forced restarts: conflicts whose learned lemma asserts at level
    /// 0, resetting the search to the root. Scheduled (EMA/Luby)
    /// restarts are counted separately in
    /// [`EngineStats::restarts_scheduled`].
    pub restarts: u64,
    /// Scheduled restarts fired by the EMA or Luby policy
    /// ([`crate::RestartMode`]), as opposed to the forced level-0
    /// returns in [`EngineStats::restarts`].
    pub restarts_scheduled: u64,
    /// Learned-clause database reductions performed.
    pub db_reductions: u64,
    /// Conflict lemmas tombstoned by DB reduction (their ids stay valid
    /// for reasons and proof steps; only the literals are dropped).
    pub lemmas_deleted: u64,
    /// Predicate-learning probes that learned at least one relation.
    pub probe_hits: u64,
    /// Predicate-learning probes that learned nothing.
    pub probe_misses: u64,
    /// FM oracle leaf invocations, including case-split branches (the
    /// per-final-check count is [`EngineStats::fm_calls`]).
    pub fm_subcalls: u64,
    /// High-water mark of [`Engine::approx_mem_bytes`], sampled at budget
    /// poll points (so it trails the true peak by at most one poll period).
    pub mem_peak: u64,
}

#[cfg_attr(test, derive(Clone))]
pub(crate) struct Engine {
    pub compiled: std::sync::Arc<Compiled>,
    pub doms: Vec<Dom>,
    pub trail: Vec<TrailEntry>,
    pub trail_lim: Vec<usize>,
    /// Per decision level: whether the decision was already flipped
    /// (used by the chronological, learning-free search mode).
    flipped: Vec<bool>,
    /// `var → latest trail-entry index`.
    pub latest: Vec<Option<u32>>,
    /// Next trail entry whose watchers have not yet been scheduled.
    qhead: usize,
    /// Constraint worklist (deduplicated).
    cqueue: VecDeque<u32>,
    in_cqueue: Vec<bool>,
    /// Hybrid clause database (static-learned + conflict-learned).
    pub clauses: Vec<HClause>,
    /// `var → ids of the live clauses watching one of its literals`
    /// ([`HClause::watch`]); a clause watching two literals of one
    /// variable is listed once.
    clause_watch: Vec<Vec<u32>>,
    /// Clause worklist.
    clqueue: VecDeque<u32>,
    in_clqueue: Vec<bool>,
    /// VSIDS-style activities (fanout-seeded, paper §2.4).
    pub activity: Vec<f64>,
    var_inc: f64,
    /// Clause-activity bump amount, decayed alongside `var_inc`.
    cla_inc: f64,
    /// Fast/slow exponential moving averages of conflict-lemma LBD
    /// (Glucose restarts): fast α = 1/32, slow α = 1/4096.
    ema_fast: f64,
    ema_slow: f64,
    /// Conflicts analyzed since the last scheduled restart.
    conflicts_since_restart: u64,
    /// EMA of the trail length at conflict time (α = 1/32, seeded by
    /// the first conflict), plus the most recent sample — the blocking
    /// signal: a conflict with a much longer trail than average means
    /// the search is deep in a promising subtree and a restart would
    /// throw that progress away (Audemard & Simon, "Refining restarts",
    /// 2012).
    ema_trail: f64,
    last_conflict_trail: f64,
    /// Completed scheduled restarts (indexes the Luby sequence).
    luby_idx: u64,
    /// Conflict lemmas learned since the last DB reduction.
    learned_since_reduce: u64,
    /// Last assigned Boolean value per variable, recorded as the trail
    /// unwinds (phase saving); `Unknown` until first unassigned.
    saved_phase: Vec<Tribool>,
    /// Append-only pool of antecedent trail indices; [`TrailEntry::ants`]
    /// spans point here. Truncated in lockstep with the trail on
    /// backtracking (span starts are monotone along the trail).
    pub ant_pool: Vec<u32>,
    /// Reusable change buffer handed to the constraint contractors, so
    /// steady-state propagation performs no heap allocation.
    change_buf: Vec<(VarId, Dom)>,
    /// Conflict-analysis scratch state, kept across conflicts.
    analysis: AnalysisBufs,
    /// The scope of decisions and the final check ([`Cone`]).
    pub cone: Cone,
    /// Live literal count across the clause database, maintained by
    /// [`Engine::add_clause`] / [`Engine::delete_clause`] so the memory
    /// estimate never walks the database.
    clause_lits: usize,
    /// Fine-grained resource guard checked inside the propagation loop.
    budget: BudgetGuard,
    /// Sticky abort: set the first time the guard trips, returned by
    /// every subsequent [`Engine::propagate`] call.
    aborted: Option<AbortReason>,
    /// Test-only fault injection (all fields `None` in production).
    pub faults: FaultPlan,
    /// Telemetry sink; the default handle is off and every hook call is
    /// a single inlined branch (read-only w.r.t. the search).
    pub obs: ObsHandle,
    pub stats: EngineStats,
}

impl Engine {
    pub fn new(compiled: std::sync::Arc<Compiled>) -> Self {
        let n = compiled.init_dom.len();
        let ncons = compiled.cons.len();
        let doms = compiled.init_dom.clone();
        let activity = compiled.fanout_seed.clone();
        Engine {
            compiled,
            doms,
            trail: Vec::new(),
            trail_lim: Vec::new(),
            flipped: Vec::new(),
            latest: vec![None; n],
            qhead: 0,
            cqueue: VecDeque::new(),
            in_cqueue: vec![false; ncons],
            clauses: Vec::new(),
            clause_watch: vec![Vec::new(); n],
            clqueue: VecDeque::new(),
            in_clqueue: vec![false; 0],
            activity,
            var_inc: 1.0,
            cla_inc: 1.0,
            ema_fast: 0.0,
            ema_slow: 0.0,
            conflicts_since_restart: 0,
            ema_trail: 0.0,
            last_conflict_trail: 0.0,
            luby_idx: 0,
            learned_since_reduce: 0,
            saved_phase: vec![Tribool::Unknown; n],
            ant_pool: Vec::new(),
            change_buf: Vec::new(),
            analysis: AnalysisBufs::default(),
            cone: Cone::default(),
            clause_lits: 0,
            budget: BudgetGuard::default(),
            aborted: None,
            faults: FaultPlan::default(),
            obs: ObsHandle::off(),
            stats: EngineStats::default(),
        }
    }

    /// Arms the in-loop budget guard: wall-clock `deadline`, cooperative
    /// `cancel` flag, and a cap on the constraint propagation steps run
    /// from now on (an incremental session's earlier queries are not
    /// charged to the next one).
    pub fn set_budget(
        &mut self,
        deadline: Option<Instant>,
        cancel: Option<Arc<AtomicBool>>,
        max_propagations: Option<u64>,
        max_memory: Option<u64>,
    ) {
        self.budget.deadline = deadline;
        self.budget.cancel = cancel;
        self.budget.max_propagations =
            max_propagations.map_or(u64::MAX, |m| self.stats.propagations.saturating_add(m));
        self.budget.max_memory = max_memory.unwrap_or(u64::MAX);
    }

    /// An [`rtl_fm::FmBudget`] sharing this engine's deadline and
    /// cancellation flag, for threading into final-check oracle calls.
    pub fn fm_budget(&self) -> rtl_fm::FmBudget {
        rtl_fm::FmBudget::new(self.budget.deadline, self.budget.cancel.clone())
    }

    /// Marks the engine aborted (sticky), e.g. when an FM final check hit
    /// the shared budget rather than the propagation loop itself.
    pub(crate) fn set_aborted(&mut self, reason: AbortReason) {
        if self.aborted.is_none() {
            self.aborted = Some(reason);
        }
    }

    /// Re-polls the budget to attribute an abort observed elsewhere
    /// (cancellation wins over deadline; deadline is the default when
    /// neither is currently visible, e.g. a raced clock).
    pub(crate) fn budget_abort_reason(&self) -> AbortReason {
        if let Some(cancel) = &self.budget.cancel {
            if cancel.load(Ordering::Relaxed) {
                return AbortReason::Cancelled;
            }
        }
        AbortReason::Deadline
    }

    /// Approximate resident memory of the growable search structures, in
    /// bytes: the clause database's literals, clause headers, the
    /// antecedent pool, and the trail. Deliberately excludes the fixed
    /// compile-time structures — the point is to bound *growth*.
    pub fn approx_mem_bytes(&self) -> u64 {
        let clause_bytes = self.clause_lits * std::mem::size_of::<HLit>()
            + self.clauses.len() * std::mem::size_of::<HClause>();
        let pool_bytes = self.ant_pool.capacity() * std::mem::size_of::<u32>();
        let trail_bytes = self.trail.capacity() * std::mem::size_of::<TrailEntry>();
        (clause_bytes + pool_bytes + trail_bytes) as u64
    }

    /// Installs a test-only fault plan (see [`crate::supervise::FaultPlan`]).
    pub fn set_faults(&mut self, faults: FaultPlan) {
        self.faults = faults;
    }

    /// Installs the telemetry handle (the default is off).
    pub fn set_obs(&mut self, obs: ObsHandle) {
        self.obs = obs;
    }

    /// The sticky abort reason, if the budget guard has tripped.
    pub fn abort_reason(&self) -> Option<AbortReason> {
        self.aborted
    }

    /// Polls the deadline and the cancellation flag (the expensive checks,
    /// run once per [`POLL_PERIOD`] steps).
    fn poll_budget(&self) -> Option<AbortReason> {
        if let Some(cancel) = &self.budget.cancel {
            if cancel.load(Ordering::Relaxed) {
                return Some(AbortReason::Cancelled);
            }
        }
        if let Some(deadline) = self.budget.deadline {
            if Instant::now() >= deadline {
                return Some(AbortReason::Deadline);
            }
        }
        None
    }

    /// Per-step budget check: the propagation cap exactly, the deadline
    /// and cancellation every [`POLL_PERIOD`] steps. Also hosts the
    /// `stall_propagation` fault, which spins here until a deadline or
    /// cancellation rescues the solve — proving the guard, not the
    /// scheduler, bounds a stalled engine.
    fn check_budget(&mut self) -> Option<AbortReason> {
        if self.stats.propagations >= self.budget.max_propagations {
            return Some(AbortReason::Propagations);
        }
        if let Some(n) = self.faults.stall_propagation {
            if self.stats.propagations >= n {
                loop {
                    if let Some(reason) = self.poll_budget() {
                        return Some(reason);
                    }
                    std::hint::spin_loop();
                }
            }
        }
        self.budget.poll_countdown -= 1;
        if self.budget.poll_countdown == 0 {
            self.budget.poll_countdown = POLL_PERIOD;
            // The memory estimate is O(1) but still only worth paying at
            // poll cadence, alongside the clock read.
            let mem = self.approx_mem_bytes();
            self.stats.mem_peak = self.stats.mem_peak.max(mem);
            if mem > self.budget.max_memory {
                return Some(AbortReason::Memory);
            }
            return self.poll_budget();
        }
        None
    }

    pub fn level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    pub fn dom(&self, v: VarId) -> &Dom {
        &self.doms[v.index()]
    }

    /// Schedules every constraint for (re)propagation: at the start of a
    /// one-shot solve, when a session is built, and before a session
    /// query whose level 0 may be short of its fixpoint.
    pub fn schedule_all(&mut self) {
        for ci in 0..self.compiled.cons.len() as u32 {
            if !self.in_cqueue[ci as usize] {
                self.in_cqueue[ci as usize] = true;
                self.cqueue.push_back(ci);
            }
        }
    }

    /// Records a domain change on the trail and updates `doms`/`latest`.
    ///
    /// `ants` must be the tip span of [`Engine::ant_pool`] (or an empty
    /// span at the tip) — the pool and the trail are truncated in
    /// lockstep on backtracking.
    fn apply(&mut self, var: VarId, new: Dom, reason: Reason, ants: Span) {
        let old = self.doms[var.index()];
        debug_assert_ne!(old, new, "apply() requires a strict narrowing");
        debug_assert_eq!(
            ants.range().end,
            self.ant_pool.len(),
            "antecedent span must end at the pool tip"
        );
        let idx = self.trail.len() as u32;
        self.trail.push(TrailEntry {
            var,
            old,
            new,
            reason,
            ants,
            level: self.level(),
            prev_latest: self.latest[var.index()],
        });
        self.doms[var.index()] = new;
        self.latest[var.index()] = Some(idx);
    }

    /// An empty antecedent span anchored at the pool tip (decisions,
    /// external assertions).
    fn empty_ants(&mut self) -> Span {
        self.stats.ant_pool_peak = self.stats.ant_pool_peak.max(self.ant_pool.len() as u64);
        Span::empty_at(self.ant_pool.len())
    }

    /// Interns the latest trail entries of constraint `ci`'s variables
    /// into the antecedent pool and returns the span.
    ///
    /// A variable still at its initial domain has no entry and is
    /// skipped. The implied variable's *own* previous entry (if any) is a
    /// legitimate antecedent — an incremental narrowing builds on it — so
    /// no variable is excluded.
    fn intern_cons_ants(&mut self, ci: u32) -> Span {
        let Engine {
            compiled,
            latest,
            ant_pool,
            ..
        } = self;
        let start = ant_pool.len();
        for &v in compiled.cons_vars(ci) {
            if let Some(i) = latest[v.index()] {
                ant_pool.push(i);
            }
        }
        self.stats.ant_pool_peak = self.stats.ant_pool_peak.max(self.ant_pool.len() as u64);
        Span {
            start: start as u32,
            len: (self.ant_pool.len() - start) as u32,
        }
    }

    /// Interns the latest trail entries of clause `cl`'s variables into
    /// the antecedent pool and returns the span.
    fn intern_clause_ants(&mut self, cl: u32) -> Span {
        let Engine {
            clauses,
            latest,
            ant_pool,
            ..
        } = self;
        let start = ant_pool.len();
        for lit in &clauses[cl as usize].lits {
            if let Some(i) = latest[lit.var().index()] {
                ant_pool.push(i);
            }
        }
        self.stats.ant_pool_peak = self.stats.ant_pool_peak.max(self.ant_pool.len() as u64);
        Span {
            start: start as u32,
            len: (self.ant_pool.len() - start) as u32,
        }
    }

    /// Builds the conflict record for a falsified constraint (the cut
    /// seeds are the latest entries of its variables) and resets the
    /// worklists.
    fn constraint_conflict(&mut self, ci: u32) -> ConflictInfo {
        let vars = self.compiled.cons_vars(ci);
        let mut antecedents = Vec::with_capacity(vars.len());
        for &v in vars {
            if let Some(i) = self.latest[v.index()] {
                antecedents.push(i);
            }
        }
        self.drain_queues();
        ConflictInfo {
            antecedents,
            falsified: Falsified::Constraint(ci),
        }
    }

    /// Builds the conflict record for a falsified clause and resets the
    /// worklists.
    fn clause_conflict(&mut self, cl: u32) -> ConflictInfo {
        let clause = &self.clauses[cl as usize];
        let mut antecedents = Vec::with_capacity(clause.lits.len());
        for lit in &clause.lits {
            if let Some(i) = self.latest[lit.var().index()] {
                antecedents.push(i);
            }
        }
        self.drain_queues();
        ConflictInfo {
            antecedents,
            falsified: Falsified::Clause(cl),
        }
    }

    /// Makes a decision: opens a new level and applies the assignment.
    pub fn decide(&mut self, var: VarId, value: bool) {
        debug_assert!(!self.dom(var).is_fixed());
        self.stats.decisions += 1;
        self.trail_lim.push(self.trail.len());
        self.flipped.push(false);
        let ants = self.empty_ants();
        self.apply(var, Dom::B(Tribool::from(value)), Reason::Decision, ants);
        self.obs.decision(var.index() as u32, value, self.level());
    }

    /// Opens a new decision level without assigning anything. Used by
    /// incremental sessions for an assumption that already holds: the
    /// empty level keeps the `assumption i ↔ level i+1` correspondence,
    /// so conflict levels still identify which assumptions are engaged.
    pub fn open_level(&mut self) {
        self.trail_lim.push(self.trail.len());
        self.flipped.push(false);
    }

    /// Clears a sticky budget abort so the engine can be reused for the
    /// next incremental query (a fresh budget is installed per call).
    pub fn clear_abort(&mut self) {
        self.aborted = None;
    }

    /// Grows the search state to match [`Engine::compiled`] after the
    /// compiled problem was extended in place ([`Compiled::extend`]).
    /// Level 0 only: existing assignments and learned clauses are kept,
    /// new variables start at their initial domains, and every *new*
    /// constraint is scheduled so the next [`Engine::propagate`] call
    /// reaches a fixpoint over the enlarged problem.
    pub fn grow(&mut self) {
        debug_assert_eq!(self.level(), 0);
        let n = self.compiled.init_dom.len();
        let old_n = self.doms.len();
        debug_assert!(n >= old_n);
        self.doms.extend_from_slice(&self.compiled.init_dom[old_n..]);
        self.latest.resize(n, None);
        self.clause_watch.resize(n, Vec::new());
        self.saved_phase.resize(n, Tribool::Unknown);
        self.activity
            .extend_from_slice(&self.compiled.fanout_seed[old_n..]);
        let old_cons = self.in_cqueue.len();
        self.in_cqueue.resize(self.compiled.cons.len(), false);
        for ci in old_cons as u32..self.compiled.cons.len() as u32 {
            self.in_cqueue[ci as usize] = true;
            self.cqueue.push_back(ci);
        }
    }

    /// Chronological backtracking for the learning-free search mode: undoes
    /// levels until an unflipped decision is found, re-decides it with the
    /// opposite value, and returns `true`; `false` when the tree is
    /// exhausted (UNSAT).
    pub fn flip_chronological(&mut self) -> bool {
        loop {
            let lvl = self.level();
            if lvl == 0 {
                return false;
            }
            let first = self.trail_lim[lvl as usize - 1];
            let e = &self.trail[first];
            debug_assert!(matches!(e.reason, Reason::Decision));
            let var = e.var;
            let value = e.new.tri().to_bool().expect("decisions are Boolean");
            let was_flipped = self.flipped[lvl as usize - 1];
            self.backtrack(lvl - 1);
            if !was_flipped {
                self.stats.decisions += 1;
                self.stats.backtracks += 1;
                self.trail_lim.push(self.trail.len());
                self.flipped.push(true);
                let ants = self.empty_ants();
                self.apply(var, Dom::B(Tribool::from(!value)), Reason::Decision, ants);
                self.obs.decision(var.index() as u32, !value, self.level());
                return true;
            }
        }
    }

    /// Asserts a fact externally (the proposition); level 0 only.
    ///
    /// Returns `false` if the assertion immediately contradicts the domain.
    pub fn assert_external(&mut self, var: VarId, dom: Dom) -> bool {
        debug_assert_eq!(self.level(), 0);
        let cur = self.doms[var.index()];
        let met = match (cur, dom) {
            (Dom::B(c), Dom::B(w)) => match (c.to_bool(), w.to_bool()) {
                (Some(a), Some(b)) if a != b => return false,
                _ => Dom::B(if c.is_assigned() { c } else { w }),
            },
            (Dom::W(c), Dom::W(w)) => match c.intersect(w) {
                Some(m) => Dom::W(m),
                None => return false,
            },
            _ => panic!("kind mismatch in assert_external"),
        };
        if met != cur {
            let ants = self.empty_ants();
            self.apply(var, met, Reason::External, ants);
        }
        true
    }

    /// Runs deduction to fixpoint, under the budget guard.
    pub fn propagate(&mut self) -> Propagation {
        if let Some(reason) = self.aborted {
            return Propagation::Aborted(reason);
        }
        loop {
            // 0. budget guard, once per propagation step
            if let Some(reason) = self.check_budget() {
                self.aborted = Some(reason);
                return Propagation::Aborted(reason);
            }
            // 1. schedule watchers of fresh trail entries
            while self.qhead < self.trail.len() {
                let var = self.trail[self.qhead].var;
                self.qhead += 1;
                for &ci in &self.compiled.watch[var.index()] {
                    if !self.in_cqueue[ci as usize] {
                        self.in_cqueue[ci as usize] = true;
                        self.cqueue.push_back(ci);
                    }
                }
                if !self.clause_watch[var.index()].is_empty() {
                    self.visit_watchers(var);
                }
            }
            self.stats.max_cqueue = self.stats.max_cqueue.max(self.cqueue.len() as u64);
            self.stats.max_clqueue = self.stats.max_clqueue.max(self.clqueue.len() as u64);
            // 2. one clause step (clauses are cheap and often asserting)
            if let Some(cl) = self.clqueue.pop_front() {
                self.in_clqueue[cl as usize] = false;
                self.stats.clause_props += 1;
                if let Some(conflict) = self.propagate_clause(cl) {
                    return Propagation::Conflict(conflict);
                }
                continue;
            }
            // 3. one constraint step
            let Some(ci) = self.cqueue.pop_front() else {
                if self.qhead == self.trail.len() {
                    #[cfg(test)]
                    if CHECK_FIXPOINTS.with(std::cell::Cell::get) {
                        self.assert_fixpoint();
                    }
                    return Propagation::Fixpoint;
                }
                continue;
            };
            self.in_cqueue[ci as usize] = false;
            self.stats.propagations += 1;
            self.obs.prop_tick(
                self.stats.propagations,
                self.stats.narrowings,
                self.cqueue.len() as u32,
                self.clqueue.len() as u32,
            );
            if self.faults.spurious_conflict == Some(self.stats.propagations) {
                // Injected fault: report a conflict that does not exist,
                // seeded by the most recent trail entry (if any).
                if let Some(last) = self.trail.len().checked_sub(1) {
                    self.drain_queues();
                    return Propagation::Conflict(ConflictInfo {
                        antecedents: vec![last as u32],
                        falsified: Falsified::Nothing,
                    });
                }
            }
            // Move the change buffer out of `self` for the duration of the
            // step: the contractor fills it, and `apply` below can borrow
            // `self` freely. It is handed back (cleared) on every path.
            let mut changes = std::mem::take(&mut self.change_buf);
            debug_assert!(changes.is_empty());
            let result = step(&self.compiled.cons[ci as usize].kind, &self.doms, &mut changes);
            if result == PropResult::Conflict {
                changes.clear();
                self.change_buf = changes;
                let conflict = self.constraint_conflict(ci);
                return Propagation::Conflict(conflict);
            }
            for k in 0..changes.len() {
                let (var, new) = changes[k];
                // The contractor computed against a snapshot; apply
                // incrementally (meets can only shrink further).
                let merged = match (self.doms[var.index()], new) {
                    (Dom::W(cur), Dom::W(n)) => match cur.intersect(n) {
                        Some(m) if m != cur => Dom::W(m),
                        Some(_) => continue,
                        None => {
                            changes.clear();
                            self.change_buf = changes;
                            let conflict = self.constraint_conflict(ci);
                            return Propagation::Conflict(conflict);
                        }
                    },
                    (Dom::B(cur), Dom::B(n)) => match (cur.to_bool(), n.to_bool()) {
                        (Some(a), Some(b)) if a == b => continue,
                        (Some(_), Some(_)) => {
                            changes.clear();
                            self.change_buf = changes;
                            let conflict = self.constraint_conflict(ci);
                            return Propagation::Conflict(conflict);
                        }
                        (None, Some(_)) => Dom::B(n),
                        _ => continue,
                    },
                    _ => unreachable!("contractor changed domain kind"),
                };
                self.stats.narrowings += 1;
                if self.obs.on() {
                    // Narrowing magnitude = span shrink (1 for a Boolean
                    // fix); spans fit i64, so the difference fits u64.
                    let magnitude = match (self.doms[var.index()], merged) {
                        (Dom::W(old), Dom::W(new)) => {
                            let old_span = old.hi().wrapping_sub(old.lo());
                            let new_span = new.hi().wrapping_sub(new.lo());
                            old_span.wrapping_sub(new_span).max(1) as u64
                        }
                        _ => 1,
                    };
                    self.obs.narrowing(magnitude);
                }
                if self.faults.drop_narrowing == Some(self.stats.narrowings) {
                    continue; // injected fault: silently lose this deduction
                }
                let ants = self.intern_cons_ants(ci);
                self.apply(var, merged, Reason::Constraint(ci), ants);
            }
            changes.clear();
            self.change_buf = changes;
        }
    }

    /// Visits the clauses watching `var` after it narrowed (DESIGN.md
    /// §2.6): each moves a watch off a literal that became false, and a
    /// clause left with a false watch, or a one-literal clause not yet
    /// true, is queued for [`Engine::propagate_clause`]. Clauses whose
    /// watches moved to other variables leave `var`'s list, which keeps
    /// its order otherwise.
    fn visit_watchers(&mut self, var: VarId) {
        let mut list = std::mem::take(&mut self.clause_watch[var.index()]);
        let mut kept = 0;
        for i in 0..list.len() {
            let cl = list[i];
            if self.visit_clause(cl, var) {
                list[kept] = cl;
                kept += 1;
            }
        }
        list.truncate(kept);
        debug_assert!(self.clause_watch[var.index()].is_empty());
        self.clause_watch[var.index()] = list;
    }

    /// One watcher visit of clause `cl` for a narrowing of `var`, one of
    /// its watched variables; returns whether `cl` still watches `var`.
    ///
    /// A clause with a true watch is skipped. Each false watch on `var`
    /// moves to a non-false literal outside the pair, if there is one.
    /// The clause is queued when a watch stays false afterwards — it is
    /// unit or falsified, or a unit whose literal could not be applied
    /// (a negative word literal strictly inside the domain) and that the
    /// narrowing may have made assertable — and, for the same reason,
    /// when it has a single literal. Literal values only move from
    /// unknown to true or false as domains narrow, and back only on
    /// backtracking, so watches need no repair when the trail unwinds.
    fn visit_clause(&mut self, cl: u32, var: VarId) -> bool {
        let Engine {
            clauses,
            doms,
            clause_watch,
            clqueue,
            in_clqueue,
            ..
        } = self;
        let clause = &mut clauses[cl as usize];
        let lits = &clause.lits;
        let value = |k: u32| {
            let lit = &lits[k as usize];
            lit.eval(&doms[lit.var().index()])
        };
        let old = clause.watch;
        if value(old[0]) == Tribool::True || value(old[1]) == Tribool::True {
            return true;
        }
        let mut watch = old;
        for slot in 0..2 {
            if lits[watch[slot] as usize].var() != var || value(watch[slot]) != Tribool::False {
                continue;
            }
            if let Some(k) = (0..lits.len() as u32)
                .find(|&k| k != watch[0] && k != watch[1] && value(k) != Tribool::False)
            {
                watch[slot] = k;
            }
        }
        // Only watches on `var` moved, so `var` is the only variable the
        // clause can stop watching; hook it on each newly watched one.
        let old_vars = old.map(|k| lits[k as usize].var());
        for v in watched_vars(lits, watch).filter(|v| !old_vars.contains(v)) {
            clause_watch[v.index()].push(cl);
        }
        let values = watch.map(value);
        let queue = !values.contains(&Tribool::True)
            && (values.contains(&Tribool::False) || watch[0] == watch[1]);
        let still_watched = watched_vars(lits, watch).any(|v| v == var);
        clause.watch = watch;
        if queue && !in_clqueue[cl as usize] {
            in_clqueue[cl as usize] = true;
            clqueue.push_back(cl);
        }
        still_watched
    }

    fn drain_queues(&mut self) {
        while let Some(ci) = self.cqueue.pop_front() {
            self.in_cqueue[ci as usize] = false;
        }
        while let Some(cl) = self.clqueue.pop_front() {
            self.in_clqueue[cl as usize] = false;
        }
        self.qhead = self.trail.len();
    }

    /// Evaluates one hybrid clause; implies its last unknown literal or
    /// reports a conflict.
    fn propagate_clause(&mut self, cl: u32) -> Option<ConflictInfo> {
        let clause = &self.clauses[cl as usize];
        if clause.deleted {
            // A tombstoned clause has no literals; without this guard it
            // would look "all falsified" below.
            return None;
        }
        let mut unknown: Option<HLit> = None;
        for lit in &clause.lits {
            match lit.eval(&self.doms[lit.var().index()]) {
                Tribool::True => return None, // satisfied
                Tribool::False => {}
                Tribool::Unknown => {
                    if unknown.is_some() {
                        return None; // ≥ 2 unknowns: nothing to do
                    }
                    unknown = Some(*lit);
                }
            }
        }
        match unknown {
            None => {
                // all falsified
                Some(self.clause_conflict(cl))
            }
            Some(lit) => {
                let var = lit.var();
                match lit {
                    HLit::Bool { value, .. } => {
                        let ants = self.intern_clause_ants(cl);
                        self.apply(var, Dom::B(Tribool::from(value)), Reason::Clause(cl), ants);
                    }
                    HLit::Word { iv, positive, .. } => {
                        let cur = self.doms[var.index()].iv();
                        let new = if positive {
                            cur.intersect(iv)
                        } else {
                            subtract_interval(cur, iv)
                        };
                        match new {
                            Some(n) if n != cur => {
                                let ants = self.intern_clause_ants(cl);
                                self.apply(var, Dom::W(n), Reason::Clause(cl), ants);
                            }
                            Some(_) => {} // not representable / no change
                            None => return Some(self.clause_conflict(cl)),
                        }
                    }
                }
                None
            }
        }
    }

    /// Adds a hybrid clause to the database, watches two of its literals
    /// ([`Engine::initial_watches`]) and schedules it for propagation.
    pub fn add_clause(&mut self, mut lits: Vec<HLit>, learned: bool) -> u32 {
        if learned && self.faults.corrupt_learned_clause == Some(self.stats.learned) {
            // Injected fault: flip the polarity of the clause's first
            // literal, turning a sound deduction into a lie.
            if let Some(first) = lits.first_mut() {
                *first = match *first {
                    HLit::Bool { var, value } => HLit::Bool { var, value: !value },
                    HLit::Word { var, iv, positive } => HLit::Word {
                        var,
                        iv,
                        positive: !positive,
                    },
                };
            }
        }
        let id = self.clauses.len() as u32;
        let watch = self.initial_watches(&lits);
        for v in watched_vars(&lits, watch) {
            self.clause_watch[v.index()].push(id);
        }
        self.clause_lits += lits.len();
        self.clauses.push(HClause {
            lits,
            learned,
            lbd: 0,
            activity: 0.0,
            deleted: false,
            watch,
        });
        self.in_clqueue.push(false);
        if !self.in_clqueue[id as usize] {
            self.in_clqueue[id as usize] = true;
            self.clqueue.push_back(id);
        }
        if learned {
            self.stats.learned += 1;
        }
        id
    }

    /// The positions a new clause watches: non-false literals first, then
    /// false ones by the trail entry that falsified them, latest first;
    /// ties keep position order. A conflict lemma thus watches its UIP
    /// literal and the literal of its backtrack level, and a false watch
    /// is never older than a literal it could leave unwatched. Both
    /// positions are `0` for a clause of at most one literal.
    fn initial_watches(&self, lits: &[HLit]) -> [u32; 2] {
        let rank = |lit: &HLit| {
            if lit.eval(&self.doms[lit.var().index()]) != Tribool::False {
                u64::MAX
            } else {
                self.falsifying_entry(lit).map_or(0, |i| u64::from(i) + 1)
            }
        };
        let mut best: [Option<(u64, u32)>; 2] = [None, None];
        for (k, lit) in lits.iter().enumerate() {
            let r = rank(lit);
            if best[0].is_none_or(|(top, _)| r > top) {
                best = [Some((r, k as u32)), best[0]];
            } else if best[1].is_none_or(|(second, _)| r > second) {
                best[1] = Some((r, k as u32));
            }
        }
        let first = best[0].map_or(0, |(_, k)| k);
        [first, best[1].map_or(first, |(_, k)| k)]
    }

    /// The trail index of the entry that made the false literal `lit`
    /// false — the earliest entry of its variable whose domain falsifies
    /// it — or `None` when the initial domain already did.
    fn falsifying_entry(&self, lit: &HLit) -> Option<u32> {
        let mut at = self.latest[lit.var().index()]?;
        loop {
            let e = &self.trail[at as usize];
            if lit.eval(&e.old) != Tribool::False {
                return Some(at);
            }
            at = e.prev_latest?;
        }
    }

    /// Undoes all entries above `level`.
    pub fn backtrack(&mut self, level: u32) {
        debug_assert!(level <= self.level());
        if level == self.level() {
            return;
        }
        // Trace every unwind, including static-learning probe pops; the
        // `backtracks` *counter* only counts search backtracks (see the
        // `learn_and_backtrack` / `flip_chronological` call sites).
        self.obs.backtrack(self.level(), level);
        let target = self.trail_lim[level as usize];
        for i in (target..self.trail.len()).rev() {
            let e = &self.trail[i];
            // Phase saving: remember the Boolean value being unassigned
            // so the next decision on this variable repeats it.
            if let Dom::B(t) = e.new {
                if t.is_assigned() {
                    self.saved_phase[e.var.index()] = t;
                }
            }
            self.doms[e.var.index()] = e.old;
            self.latest[e.var.index()] = e.prev_latest;
        }
        // Antecedent spans start monotonically along the trail, so
        // truncating the pool at the first removed entry's span start
        // discards exactly the undone entries' antecedents.
        // `target == trail.len()` happens when the undone levels were all
        // empty (e.g. `open_level` placeholders for already-true
        // assumptions) — nothing to truncate then.
        let pool_mark = self
            .trail
            .get(target)
            .map_or(self.ant_pool.len(), |e| e.ants.start as usize);
        self.trail.truncate(target);
        self.ant_pool.truncate(pool_mark);
        self.trail_lim.truncate(level as usize);
        self.flipped.truncate(level as usize);
        self.qhead = target;
        self.drain_queues();
    }

    fn bump(&mut self, v: VarId) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
    }

    /// Exponential decay of activities after each conflict (§2.4's
    /// "exponentially decaying function"); clause activities decay more
    /// slowly than variable activities, MiniSat-style.
    pub fn decay(&mut self) {
        self.var_inc /= 0.95;
        self.cla_inc /= 0.999;
    }

    /// Bumps a clause's activity (conflict-analysis participation).
    /// Static clauses are ignored — they are never deletion candidates.
    fn bump_clause(&mut self, cid: u32) {
        let clause = &mut self.clauses[cid as usize];
        if !clause.learned || clause.deleted {
            return;
        }
        clause.activity += self.cla_inc;
        if clause.activity > 1e20 {
            for c in &mut self.clauses {
                c.activity *= 1e-20;
            }
            self.cla_inc *= 1e-20;
        }
    }

    /// The saved phase of a Boolean variable (`Unknown` if it was never
    /// assigned and unassigned).
    pub fn saved_phase(&self, var: VarId) -> Tribool {
        self.saved_phase[var.index()]
    }

    /// Literal-block distance of a clause whose literals are currently
    /// all assigned (a freshly derived conflict lemma, *before*
    /// backtracking): the number of distinct non-root decision levels
    /// among them, floored at 1 so conflict lemmas are distinguishable
    /// from static clauses (`lbd == 0`).
    fn compute_lbd(&self, lits: &[HLit]) -> u32 {
        let mut levels: Vec<u32> = lits
            .iter()
            .filter_map(|l| self.latest[l.var().index()])
            .map(|i| self.trail[i as usize].level)
            .filter(|&l| l > 0)
            .collect();
        levels.sort_unstable();
        levels.dedup();
        (levels.len() as u32).max(1)
    }

    /// Whether the restart policy wants a scheduled restart now. Only
    /// meaningful between conflicts in a learning search mode (the
    /// chronological mode's termination argument forbids restarts).
    pub fn should_restart(&mut self, mode: RestartMode) -> bool {
        if self.level() == 0 {
            return false;
        }
        match mode {
            RestartMode::Off => false,
            // Glucose: the recent lemmas are markedly worse (higher
            // glue) than the long-run mix — search is thrashing. But a
            // restart is *blocked* (postponed a full window) when the
            // last conflict sat on a much longer trail than average:
            // the search is deep in a promising subtree, and in the
            // hybrid engine abandoning it also forfeits the interval
            // narrowing that trail paid for (Audemard & Simon 2012).
            RestartMode::Ema => {
                if self.conflicts_since_restart < 50 {
                    return false;
                }
                if self.last_conflict_trail > 1.4 * self.ema_trail {
                    self.conflicts_since_restart = 0;
                    return false;
                }
                self.ema_fast > 1.25 * self.ema_slow
            }
            RestartMode::Luby => self.conflicts_since_restart >= 100 * luby(self.luby_idx),
        }
    }

    /// Performs a scheduled restart: returns to the root, keeping the
    /// clause DB, activities, and saved phases.
    pub fn restart(&mut self) {
        debug_assert!(self.level() > 0);
        self.stats.restarts_scheduled += 1;
        self.obs.restart(self.stats.conflicts);
        self.backtrack(0);
        self.conflicts_since_restart = 0;
        self.luby_idx += 1;
        // Forget the thrashing window: restart the fast average from the
        // long-run baseline so one bad streak triggers at most once.
        self.ema_fast = self.ema_slow;
    }

    /// Runs a DB reduction if enough lemmas accumulated since the last
    /// one; returns the deleted clause ids (for deletion-aware proof
    /// logging), or `None` when no reduction fired.
    pub fn maybe_reduce(&mut self, cfg: &ClauseDbConfig) -> Option<Vec<u32>> {
        if !cfg.reduce {
            return None;
        }
        let threshold =
            cfg.first_reduce as u64 + cfg.reduce_inc as u64 * self.stats.db_reductions;
        if self.learned_since_reduce < threshold {
            return None;
        }
        Some(self.reduce_db())
    }

    /// Deletes the worst half of the deletable lemmas: conflict clauses
    /// with glue > 2 that are neither locked (the reason of a live trail
    /// entry) nor already deleted. Static clauses (`lbd == 0`) and glue
    /// clauses (`lbd <= 2`) are always kept.
    fn reduce_db(&mut self) -> Vec<u32> {
        let mut locked = vec![false; self.clauses.len()];
        for e in &self.trail {
            if let Reason::Clause(c) = e.reason {
                locked[c as usize] = true;
            }
        }
        let mut cands: Vec<u32> = (0..self.clauses.len() as u32)
            .filter(|&c| {
                let cl = &self.clauses[c as usize];
                cl.learned && !cl.deleted && cl.lbd > 2 && !locked[c as usize]
            })
            .collect();
        // Worst first: highest glue, then lowest activity, then oldest.
        cands.sort_by(|&a, &b| {
            let (ca, cb) = (&self.clauses[a as usize], &self.clauses[b as usize]);
            cb.lbd
                .cmp(&ca.lbd)
                .then(ca.activity.total_cmp(&cb.activity))
                .then(a.cmp(&b))
        });
        cands.truncate(cands.len() / 2);
        for &c in &cands {
            self.delete_clause(c);
        }
        self.stats.db_reductions += 1;
        self.learned_since_reduce = 0;
        let live = self.clauses.iter().filter(|c| !c.deleted).count() as u32;
        self.obs.db_reduce(live, cands.len() as u32);
        cands
    }

    /// Tombstones one clause: drops its literals, unhooks it from its
    /// two watch lists, and marks it deleted. The id (and thus `clauses`
    /// indexing) stays valid — reasons and proof steps cite ids.
    fn delete_clause(&mut self, cid: u32) {
        let lits = std::mem::take(&mut self.clauses[cid as usize].lits);
        self.clause_lits -= lits.len();
        for v in watched_vars(&lits, self.clauses[cid as usize].watch) {
            let list = &mut self.clause_watch[v.index()];
            if let Some(pos) = list.iter().position(|&c| c == cid) {
                list.swap_remove(pos);
            }
        }
        self.clauses[cid as usize].deleted = true;
        self.stats.lemmas_deleted += 1;
    }

    /// Hybrid conflict analysis on the implication graph: walks back from
    /// the conflicting entries to a unique-implication-point cut whose
    /// asserting literal is Boolean (decisions are Boolean, so such a cut
    /// always exists), producing a hybrid learned clause.
    ///
    /// With `bool_only = true` every word entry is expanded into its
    /// Boolean ancestry so the learned clause contains only Boolean
    /// literals (the weaker, pre-hybrid learning of classical lazy
    /// combined decision procedures).
    ///
    /// One backward walk from the trail tip (DESIGN.md §2.3): levels never
    /// decrease along the trail, so the latest marked entry sits at the
    /// current analysis level; it is the UIP when it is Boolean and the
    /// only mark at its level, and is expanded otherwise. The lemma lists
    /// the UIP literal first, then the other marks in descending trail
    /// order.
    ///
    /// The walk also collects the lemma's derivation hints for proof
    /// certification ([`Analyzed::hints`]).
    ///
    /// Returns `None` when the conflict is independent of all decisions —
    /// the instance is UNSAT.
    pub fn analyze_mode(&mut self, conflict: &ConflictInfo, bool_only: bool) -> Option<Analyzed> {
        self.stats.conflicts += 1;
        let mut bufs = std::mem::take(&mut self.analysis);
        if bufs.seen.len() < self.trail.len() {
            bufs.seen.resize(self.trail.len(), 0);
        }
        if bufs.level_marks.len() <= self.level() as usize {
            bufs.level_marks.resize(self.level() as usize + 1, 0);
        }
        let (mut used, mut hints) = conflict.falsified.derivation_seeds();
        let mut nmarked = 0;
        for &i in &conflict.antecedents {
            nmarked += self.mark(&mut bufs, i, bool_only, &mut used, &mut hints);
        }
        // Expansion only marks antecedents, which precede the expanded
        // entry, so the cursor never moves back up the trail.
        let mut cursor = self.trail.len();
        let result = loop {
            if nmarked == 0 {
                break None;
            }
            cursor -= 1;
            while bufs.seen[cursor] != MARKED {
                cursor -= 1;
            }
            let e = self.trail[cursor];
            if e.is_bool() && bufs.level_marks[e.level as usize] == 1 {
                break Some(self.emit_lemma(&bufs, cursor, conflict, used, hints));
            }
            // The expanded entry is never a decision: a decision is the
            // *first* entry of its level, so with several marks at this
            // level the latest one is an implied entry, and a single
            // non-Boolean mark is a word entry (decisions are Boolean).
            // Implied entries always carry antecedents; if those are all
            // at level 0 the mark set simply shrinks (towards the UNSAT
            // verdict above).
            debug_assert!(
                !e.ants.is_empty() || !matches!(e.reason, Reason::Decision),
                "attempted to expand a decision entry"
            );
            bufs.seen[cursor] = SEEN;
            bufs.level_marks[e.level as usize] -= 1;
            nmarked -= 1;
            bufs.steps += 1;
            if let Reason::Constraint(ci) = e.reason {
                hints.push(ci);
            }
            for k in e.ants.range() {
                let a = self.ant_pool[k];
                nmarked += self.mark(&mut bufs, a, bool_only, &mut used, &mut hints);
            }
        };
        self.obs.analysis(bufs.steps, self.trail.len() as u32);
        for &i in &bufs.touched {
            bufs.seen[i as usize] = 0;
            bufs.level_marks[self.trail[i as usize].level as usize] = 0;
        }
        bufs.touched.clear();
        bufs.steps = 0;
        self.analysis = bufs;
        result
    }

    /// Marks trail entry `root` for the current analysis and returns how
    /// many entries became marked. Level-0 and already reached entries
    /// are skipped; in `bool_only` mode a word entry is replaced by its
    /// antecedents, transitively (depth-first, last antecedent first),
    /// and its constraint reason joins `hints`. Every reached entry's
    /// clause reason joins `used`, and every newly marked entry's
    /// variable is bumped.
    fn mark(
        &mut self,
        bufs: &mut AnalysisBufs,
        root: u32,
        bool_only: bool,
        used: &mut Vec<u32>,
        hints: &mut Vec<u32>,
    ) -> u32 {
        let mut marked = 0;
        bufs.stack.push(root);
        while let Some(i) = bufs.stack.pop() {
            let e = &self.trail[i as usize];
            if e.level == 0 || bufs.seen[i as usize] != 0 {
                continue;
            }
            bufs.touched.push(i);
            if let Reason::Clause(c) = e.reason {
                used.push(c);
            }
            if bool_only && !e.is_bool() {
                bufs.seen[i as usize] = SEEN;
                bufs.steps += 1;
                if let Reason::Constraint(ci) = e.reason {
                    hints.push(ci);
                }
                bufs.stack.extend_from_slice(&self.ant_pool[e.ants.range()]);
            } else {
                bufs.seen[i as usize] = MARKED;
                bufs.level_marks[e.level as usize] += 1;
                marked += 1;
                let var = e.var;
                self.bump(var);
            }
        }
        marked
    }

    /// Builds the lemma of a finished walk whose UIP is trail entry `uip`:
    /// the UIP literal, then every other marked entry in descending trail
    /// order.
    fn emit_lemma(
        &mut self,
        bufs: &AnalysisBufs,
        uip: usize,
        conflict: &ConflictInfo,
        mut used: Vec<u32>,
        mut hints: Vec<u32>,
    ) -> Analyzed {
        let mut rest: Vec<u32> = bufs
            .touched
            .iter()
            .copied()
            .filter(|&i| i as usize != uip && bufs.seen[i as usize] == MARKED)
            .collect();
        rest.sort_unstable_by(|a, b| b.cmp(a));
        let mut lits = Vec::with_capacity(rest.len() + 1);
        lits.push(self.trail[uip].as_conflict_lit());
        lits.extend(rest.iter().map(|&i| self.trail[i as usize].as_conflict_lit()));
        // Each mark is the latest entry of its variable at the time it was
        // referenced, and expansion runs in decreasing trail order, so no
        // variable is marked twice (DESIGN.md §2.3).
        debug_assert!(
            {
                let mut vars: Vec<VarId> = lits.iter().map(HLit::var).collect();
                vars.sort_unstable();
                vars.windows(2).all(|w| w[0] != w[1])
            },
            "lemma mentions a variable twice"
        );
        let level = self.trail[uip].level;
        // Levels are monotone along the trail: the first of the rest is
        // the highest.
        let blevel = rest.first().map_or(0, |&i| self.trail[i as usize].level);
        debug_assert!(blevel < level);
        used.sort_unstable();
        used.dedup();
        hints.sort_unstable();
        hints.dedup();
        for &cid in &used {
            self.bump_clause(cid);
        }
        self.obs
            .conflict(lits.len() as u32, conflict.antecedents.len() as u32, level);
        Analyzed {
            lits,
            blevel,
            used,
            hints,
            diseqs: conflict.falsified.diseqs(),
        }
    }

    /// Learns the analyzed clause, backtracks, and asserts the UIP literal.
    /// Returns the learned clause's id (for proof logging).
    pub fn learn_and_backtrack(&mut self, analyzed: Analyzed) -> u32 {
        self.stats.backtracks += 1;
        if analyzed.blevel == 0 {
            self.stats.restarts += 1;
        }
        // Glue is computed while the lemma's literals are still
        // assigned, i.e. before the backtrack unwinds their levels.
        let lbd = self.compute_lbd(&analyzed.lits);
        self.ema_fast += (lbd as f64 - self.ema_fast) / 32.0;
        self.ema_slow += (lbd as f64 - self.ema_slow) / 4096.0;
        // Trail length is likewise sampled pre-backtrack: it feeds the
        // restart-blocking test in `should_restart`.
        let trail_len = self.trail.len() as f64;
        self.last_conflict_trail = trail_len;
        if self.ema_trail == 0.0 {
            self.ema_trail = trail_len;
        } else {
            self.ema_trail += (trail_len - self.ema_trail) / 32.0;
        }
        self.conflicts_since_restart += 1;
        self.learned_since_reduce += 1;
        self.obs.clause_glue(lbd);
        self.backtrack(analyzed.blevel);
        let uip = analyzed.lits[0];
        let cid = self.add_clause(analyzed.lits, true);
        let clause = &mut self.clauses[cid as usize];
        clause.lbd = lbd;
        clause.activity = self.cla_inc;
        // Assert the UIP literal immediately (the clause is unit now).
        if let HLit::Bool { var, value } = uip {
            if !self.dom(var).is_fixed() {
                let ants = self.intern_clause_ants(cid);
                self.apply(var, Dom::B(Tribool::from(value)), Reason::Clause(cid), ants);
            }
        }
        self.decay();
        cid
    }

    /// The current decision stack, innermost level last: for each level,
    /// the decision variable, its value, and whether the chronological
    /// search already flipped it. Used by proof logging in the
    /// learning-free mode, where each conflict refutes the decision path
    /// itself.
    pub fn decision_stack(&self) -> Vec<(VarId, bool, bool)> {
        self.trail_lim
            .iter()
            .zip(&self.flipped)
            .map(|(&first, &flipped)| {
                let e = &self.trail[first];
                let value = e.new.tri().to_bool().expect("decisions are Boolean");
                (e.var, value, flipped)
            })
            .collect()
    }
}

#[cfg(test)]
impl Engine {
    /// Records an implied trail entry at the current level with the given
    /// antecedent trail indices, for hand-built implication graphs.
    pub(crate) fn imply(&mut self, var: VarId, new: Dom, reason: Reason, ants: &[u32]) {
        let start = self.ant_pool.len() as u32;
        self.ant_pool.extend_from_slice(ants);
        let span = Span {
            start,
            len: ants.len() as u32,
        };
        self.apply(var, new, reason, span);
    }

    /// The clause ids on `var`'s watch list.
    pub(crate) fn watch_list(&self, var: VarId) -> &[u32] {
        &self.clause_watch[var.index()]
    }

    /// Asserts that deduction is at its fixpoint and the watch lists are
    /// consistent: no live clause is falsified or unit on a literal that
    /// would narrow its variable (a negative word literal strictly inside
    /// the domain cannot), no contractor narrows a domain or conflicts,
    /// and every live clause is listed exactly under its watched
    /// variables, once each.
    pub(crate) fn assert_fixpoint(&self) {
        let mut listed: Vec<Vec<VarId>> = vec![Vec::new(); self.clauses.len()];
        for (v, list) in self.clause_watch.iter().enumerate() {
            for &cl in list {
                listed[cl as usize].push(VarId(v as u32));
            }
        }
        for (cl, clause) in self.clauses.iter().enumerate() {
            if clause.deleted {
                assert!(
                    listed[cl].is_empty(),
                    "tombstoned clause {cl} still watched"
                );
                continue;
            }
            let mut watched: Vec<VarId> = watched_vars(&clause.lits, clause.watch).collect();
            watched.sort_unstable();
            listed[cl].sort_unstable();
            assert_eq!(
                listed[cl], watched,
                "clause {cl} listed under the wrong variables"
            );
            let value = |l: &HLit| l.eval(&self.doms[l.var().index()]);
            if clause.lits.iter().any(|l| value(l) == Tribool::True) {
                continue;
            }
            let open: Vec<&HLit> = clause
                .lits
                .iter()
                .filter(|l| value(l) == Tribool::Unknown)
                .collect();
            assert!(
                !open.is_empty(),
                "clause {cl} falsified at a fixpoint: {:?}",
                clause.lits
            );
            if let [lit] = open[..] {
                let stuck = match *lit {
                    HLit::Word {
                        var,
                        iv,
                        positive: false,
                    } => {
                        let cur = self.doms[var.index()].iv();
                        subtract_interval(cur, iv) == Some(cur)
                    }
                    HLit::Word { .. } | HLit::Bool { .. } => false,
                };
                assert!(stuck, "clause {cl} is unit on {lit} at a fixpoint");
            }
        }
        let mut changes = Vec::new();
        for (ci, c) in self.compiled.cons.iter().enumerate() {
            let result = step(&c.kind, &self.doms, &mut changes);
            assert!(
                result == PropResult::Narrowed && changes.is_empty(),
                "constraint {ci} not at its fixpoint: {result:?} {changes:?}"
            );
        }
    }

    /// The quadratic analysis [`Engine::analyze_mode`] replaced, kept as
    /// its test oracle: per resolution step it rescans every mark for the
    /// maximum level and the marks at it, and it dedups the lemma per
    /// variable (keeping the latest entry). Same lemma literal set,
    /// backtrack level, `used` list and bump sequence; the literals after
    /// the first come in `HashMap` order.
    pub(crate) fn analyze_reference(
        &mut self,
        conflict: &ConflictInfo,
        bool_only: bool,
    ) -> Option<Analyzed> {
        self.stats.conflicts += 1;
        let mut marked = vec![false; self.trail.len()];
        let mut visited = vec![false; self.trail.len()];
        let mut nmarked = 0usize;
        let (mut used, mut hints) = conflict.falsified.derivation_seeds();
        // Marks an entry; in bool-only mode word entries are transitively
        // replaced by their antecedents.
        macro_rules! mark {
            ($idx:expr) => {{
                let mut stack: Vec<u32> = vec![$idx];
                while let Some(i) = stack.pop() {
                    let e = &self.trail[i as usize];
                    if e.level == 0 || visited[i as usize] {
                        continue;
                    }
                    visited[i as usize] = true;
                    if let Reason::Clause(c) = e.reason {
                        used.push(c);
                    }
                    if bool_only && !e.is_bool() {
                        if let Reason::Constraint(ci) = e.reason {
                            hints.push(ci);
                        }
                        stack.extend_from_slice(&self.ant_pool[e.ants.range()]);
                    } else {
                        marked[i as usize] = true;
                        nmarked += 1;
                        let var = e.var;
                        self.bump(var);
                    }
                }
            }};
        }
        for &i in &conflict.antecedents {
            mark!(i);
        }
        if nmarked == 0 {
            return None;
        }

        loop {
            // Current analysis level = max level among marked entries.
            let lmax = marked
                .iter()
                .enumerate()
                .filter(|&(_, &m)| m)
                .map(|(i, _)| self.trail[i].level)
                .max()
                .expect("marks non-empty");
            if lmax == 0 {
                return None;
            }
            let at_lmax: Vec<usize> = marked
                .iter()
                .enumerate()
                .filter(|&(i, &m)| m && self.trail[i].level == lmax)
                .map(|(i, _)| i)
                .collect();
            let latest = *at_lmax.last().expect("non-empty");
            if at_lmax.len() == 1 && self.trail[latest].is_bool() {
                // UIP found.
                let uip = latest;
                let mut lits = vec![self.trail[uip].as_conflict_lit()];
                let mut blevel = 0;
                // Other marked entries: dedup per var keeping the latest
                // (smallest/strongest assignment → valid clause).
                let mut best: std::collections::HashMap<VarId, usize> =
                    std::collections::HashMap::new();
                for (i, &m) in marked.iter().enumerate() {
                    if m && i != uip {
                        let e = best.entry(self.trail[i].var).or_insert(i);
                        *e = (*e).max(i);
                    }
                }
                for &i in best.values() {
                    lits.push(self.trail[i].as_conflict_lit());
                    blevel = blevel.max(self.trail[i].level);
                }
                debug_assert!(blevel < lmax);
                used.sort_unstable();
                used.dedup();
                hints.sort_unstable();
                hints.dedup();
                for &cid in &used {
                    self.bump_clause(cid);
                }
                self.obs.conflict(
                    lits.len() as u32,
                    conflict.antecedents.len() as u32,
                    lmax,
                );
                return Some(Analyzed {
                    lits,
                    blevel,
                    used,
                    hints,
                    diseqs: conflict.falsified.diseqs(),
                });
            }
            // Expand the latest marked entry at lmax.
            let e_idx = latest;
            marked[e_idx] = false;
            nmarked -= 1;
            if let Reason::Constraint(ci) = self.trail[e_idx].reason {
                hints.push(ci);
            }
            let span = self.trail[e_idx].ants;
            // The expanded entry is never a decision: a decision is the
            // *first* entry of its level, so with several marks at `lmax`
            // the latest one is an implied entry, and a single non-Boolean
            // mark is a word entry (decisions are Boolean). Implied entries
            // always carry antecedents; if those are all at level 0 the
            // mark set simply shrinks (towards the UNSAT verdict below).
            debug_assert!(
                !span.is_empty() || !matches!(self.trail[e_idx].reason, Reason::Decision),
                "attempted to expand a decision entry"
            );
            for k in span.range() {
                let a = self.ant_pool[k];
                mark!(a);
            }
            if nmarked == 0 {
                return None;
            }
        }
    }
}

impl Falsified {
    /// The analysis accumulators a conflict starts from: the falsified
    /// clause as the first `used` entry, the falsified constraint or
    /// the final check's infeasible subset as the first hints.
    fn derivation_seeds(&self) -> (Vec<u32>, Vec<u32>) {
        match self {
            Falsified::Clause(c) => (vec![*c], Vec::new()),
            Falsified::Constraint(ci) => (Vec::new(), vec![*ci]),
            Falsified::Box { tags, .. } => (Vec::new(), tags.clone()),
            Falsified::Nothing => (Vec::new(), Vec::new()),
        }
    }

    /// The disequalities the final check split on.
    fn diseqs(&self) -> Vec<u32> {
        match self {
            Falsified::Box { diseqs, .. } => diseqs.clone(),
            _ => Vec::new(),
        }
    }
}

/// The distinct variables of a clause's watched literals: the watch
/// lists it belongs on (none for an empty clause).
fn watched_vars(lits: &[HLit], watch: [u32; 2]) -> impl Iterator<Item = VarId> {
    let [first, second] = watch.map(|k| lits.get(k as usize).map(HLit::var));
    first
        .into_iter()
        .chain(second.filter(|&v| Some(v) != first))
}

/// The Luby restart sequence (1, 1, 2, 1, 1, 2, 4, …), 0-indexed.
fn luby(mut x: u64) -> u64 {
    let (mut size, mut seq) = (1u64, 0u32);
    while size < x + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    while size - 1 != x {
        size = (size - 1) / 2;
        seq -= 1;
        x %= size;
    }
    1 << seq
}

/// `cur \ iv` when the result is a single interval (the removal overlaps an
/// end of `cur`); `None` = empty result; `Some(cur)` = not representable or
/// no overlap.
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
    Some(cur) // interior hole: not representable
}

#[cfg(test)]
mod unit {
    use super::*;

    #[test]
    fn luby_sequence_prefix() {
        let got: Vec<u64> = (0..15).map(luby).collect();
        assert_eq!(got, vec![1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]);
    }

    #[test]
    fn subtract_interval_cases() {
        let cur = Interval::new(0, 10);
        assert_eq!(
            subtract_interval(cur, Interval::new(0, 3)),
            Some(Interval::new(4, 10))
        );
        assert_eq!(
            subtract_interval(cur, Interval::new(8, 12)),
            Some(Interval::new(0, 7))
        );
        assert_eq!(subtract_interval(cur, Interval::new(4, 6)), Some(cur));
        assert_eq!(subtract_interval(cur, Interval::new(-5, 20)), None);
        assert_eq!(
            subtract_interval(cur, Interval::new(20, 30)),
            Some(cur)
        );
    }
}
