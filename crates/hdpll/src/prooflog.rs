//! Proof logging: the producer side of Unsat certification.
//!
//! When enabled ([`crate::SolverConfig::proof`]), the solver records
//! every learned lemma — conflict-analysis clauses, §3 predicate
//! lemmas, and (in the learning-free mode) refuted decision paths — as
//! a step of an [`rtl_proof::Proof`]: the lemma's literals, the case
//! splits the producer already knows (a predicate probe's way-splits),
//! the proof steps of the clauses conflict analysis resolved on, and the
//! steps the clause-DB reduction retired before it. Recording is all
//! this file does during search: no checker code runs here.
//!
//! A Fourier–Motzkin conflict lemma is recorded with the disequalities
//! FM split on ([`PSplit::Diseq`]), the one derivation detail the
//! checker cannot rediscover by propagation.
//!
//! Certification admits each recorded step exactly once, in order, in
//! `rtl-proof` ([`ProofLog::certify_pending`] → [`Checker::certify`]):
//! a one-shot Unsat verdict hands its log to a fresh goal checker
//! ([`crate::Solver`]), and an incremental session keeps one certifier
//! that admits each query's new steps ([`crate::Session`]). Beside each
//! pending conflict lemma the log keeps its derivation hints — the
//! constraints conflict analysis expanded — which let the certifier
//! close the lemma by propagating just those; they never reach the
//! proof text and are dropped once the step is admitted. Where a
//! lemma needs case splits the producer did not know, the certifier's
//! split finder supplies them and writes them into the step, so the
//! sealed proof replays under any fresh checker. A step the certifier
//! cannot admit — a lemma corrupted by an injected fault, a bogus
//! deletion — stops certification: the sealed proof counts the steps
//! left unadmitted as gaps, and certifies nothing.

use rtl_proof::{Checker, PLit, PSplit, Proof, Step};

use crate::engine::Engine;
use crate::types::{HLit, VarId};

/// Sentinel in [`ProofLog::clause_step`]: the engine clause has no
/// proof step (it was added before logging started).
const NO_STEP: u32 = u32::MAX;

/// Tag of an auxiliary variable's key in [`ProofLog::canon`].
const AUX: u32 = 1 << 31;

/// An in-progress proof: the recorded steps and their bookkeeping.
pub(crate) struct ProofLog {
    steps: Vec<Step>,
    goal: String,
    /// `engine clause id → proof step id` ([`NO_STEP`] if never logged).
    clause_step: Vec<u32>,
    /// Step ids retired by DB reductions since the last recorded step;
    /// attached to the *next* step's `dels` section (deletions carry no
    /// deductive content, so they need no step of their own).
    pending_dels: Vec<u32>,
    /// Derivation hints of the last `hints.len()` steps, the ones not
    /// yet handed to a certifier (`None`: the producer names no
    /// derivation).
    hints: Vec<Option<Vec<u32>>>,
    /// Session logs: each engine variable's canonical key, grown with
    /// the engine ([`ProofLog::grow_vars`]) — its signal index, or
    /// `AUX | rank` for an auxiliary (its rank among auxiliaries by
    /// ascending engine id). See [`ProofLog::snapshot`].
    canon: Vec<u32>,
    /// Signals and auxiliaries keyed in `canon` so far.
    canon_signals: usize,
    canon_aux: u32,
}

impl ProofLog {
    /// Starts a proof under the goal named `goal`
    /// ([`rtl_proof::goal_name`]).
    pub fn new(goal: String) -> ProofLog {
        ProofLog {
            steps: Vec::new(),
            goal,
            clause_step: Vec::new(),
            pending_dels: Vec::new(),
            hints: Vec::new(),
            canon: Vec::new(),
            canon_signals: 0,
            canon_aux: 0,
        }
    }

    /// Starts a *goal-free* proof log for an incremental solve session:
    /// each query's Unsat verdict is sealed by [`ProofLog::snapshot`]
    /// into an assumption proof (goal name `-`) instead of
    /// [`ProofLog::finish`].
    pub fn new_free() -> ProofLog {
        ProofLog::new("-".to_string())
    }

    fn plit(lit: &HLit) -> PLit {
        match *lit {
            HLit::Bool { var, value } => PLit::Bool {
                var: var.index() as u32,
                value,
            },
            HLit::Word { var, iv, positive } => PLit::Word {
                var: var.index() as u32,
                lo: iv.lo(),
                hi: iv.hi(),
                positive,
            },
        }
    }

    /// Maps engine clause ids to the proof step ids that introduced
    /// them, dropping ids the logger never saw (clauses added before
    /// logging started).
    fn ants_of(&self, cids: &[u32]) -> Vec<u32> {
        cids.iter()
            .filter_map(|&c| self.clause_step.get(c as usize).copied())
            .filter(|&s| s != NO_STEP)
            .collect()
    }

    /// Records one step with its derivation hints, carrying the
    /// deletions queued since the last one; returns its id.
    fn log_step(
        &mut self,
        lits: Vec<PLit>,
        splits: Vec<PSplit>,
        ants: Vec<u32>,
        hints: Option<Vec<u32>>,
    ) -> u32 {
        let mut dels = std::mem::take(&mut self.pending_dels);
        dels.sort_unstable();
        dels.dedup();
        let id = self.steps.len() as u32;
        self.steps.push(Step {
            lits,
            splits,
            ants,
            dels,
        });
        self.hints.push(hints);
        id
    }

    /// Records that the engine retired the given clauses: their proof
    /// steps are queued for the next step's deletion section, bounding
    /// the checker's live clause set the same way the solver's DB
    /// reduction bounds its own. Never-logged clauses vanish silently.
    pub fn log_deletions(&mut self, cids: &[u32]) {
        let steps = self.ants_of(cids);
        self.pending_dels.extend(steps);
    }

    /// Test-only fault hook ([`crate::supervise::FaultPlan`]): queues a
    /// deletion citing a step id that can never exist, which the
    /// certifier (and any fresh checker) must reject — certification
    /// stops at the step that carries it.
    pub fn log_bogus_deletion(&mut self) {
        self.pending_dels.push(u32::MAX);
    }

    /// Logs engine clause `cid` as a lemma, with the derivation `hints`
    /// of a conflict lemma ([`crate::engine::Analyzed::hints`]). The
    /// literals are read from the stored clause — *after* any injected
    /// fault corrupted them — so a lying solver produces a proof the
    /// checker rejects rather than a clean transcript of what it should
    /// have learned.
    pub fn log_engine_clause(
        &mut self,
        engine: &Engine,
        cid: u32,
        splits: Vec<PSplit>,
        used: &[u32],
        hints: Option<Vec<u32>>,
    ) {
        let lits: Vec<PLit> = engine.clauses[cid as usize]
            .lits
            .iter()
            .map(Self::plit)
            .collect();
        let ants = self.ants_of(used);
        let step = self.log_step(lits, splits, ants, hints);
        if self.clause_step.len() <= cid as usize {
            self.clause_step.resize(cid as usize + 1, NO_STEP);
        }
        self.clause_step[cid as usize] = step;
    }

    /// Logs the lemmas refuting the current decision path, for the
    /// learning-free chronological mode. A conflict under decisions
    /// `d₀…dₙ` yields the lemma `(¬d₀ ∨ … ∨ ¬dₙ)`; then, mirroring
    /// [`Engine::flip_chronological`], every trailing already-flipped
    /// decision is popped, each pop emitting the shorter prefix lemma —
    /// RUP-derivable from the two branch lemmas it supersedes. When
    /// every decision was flipped the final prefix is the empty clause.
    pub fn log_path(&mut self, stack: &[(VarId, bool, bool)]) {
        let lemma = |k: usize| {
            stack[..k]
                .iter()
                .map(|&(var, value, _)| PLit::Bool {
                    var: var.index() as u32,
                    value: !value,
                })
                .collect::<Vec<_>>()
        };
        self.log_step(lemma(stack.len()), Vec::new(), Vec::new(), None);
        let mut k = stack.len();
        while k > 0 && stack[k - 1].2 {
            k -= 1;
            self.log_step(lemma(k), Vec::new(), Vec::new(), None);
        }
    }

    /// Records the final empty clause (unless some earlier step already
    /// was the empty clause).
    pub fn log_final(&mut self) {
        if self.steps.last().is_some_and(Step::is_empty_clause) {
            return;
        }
        self.log_step(Vec::new(), Vec::new(), Vec::new(), None);
    }

    /// Admits every recorded step `checker` has not admitted yet, in
    /// order, through the certifying admission with the step's hints
    /// (which writes any finder-discovered splits into the step), then
    /// drops the hints. `false` at the first step it cannot admit: that
    /// step and all later ones stay unadmitted, and `checker` must not
    /// be fed further steps.
    pub fn certify_pending(&mut self, checker: &mut Checker) -> bool {
        let from = checker.admitted() as usize;
        let hinted_from = self.steps.len() - self.hints.len();
        let hints = std::mem::take(&mut self.hints);
        self.steps[from..].iter_mut().enumerate().all(|(k, step)| {
            let hint = (from + k)
                .checked_sub(hinted_from)
                .and_then(|i| hints[i].as_deref());
            checker.certify(step, hint).is_ok()
        })
    }

    /// Drops the hints of the pending steps, for a log no certifier
    /// will consume (a session whose certifier retired).
    pub fn forget_hints(&mut self) {
        self.hints.clear();
    }

    /// Seals the log into a [`Proof`] over `var_count` variables after
    /// `admitted` of its steps were certified; the rest count as gaps.
    pub fn finish(self, var_count: u32, admitted: u32) -> Proof {
        Proof {
            var_count,
            goal: self.goal,
            assumptions: Vec::new(),
            gaps: self.steps.len() as u32 - admitted,
            steps: self.steps,
        }
    }

    /// Keys the engine variables added since the last call, after the
    /// session engine grew to `var_count` variables with signal map
    /// `sig_var`: the new signals' variables get their signal index,
    /// the other new variables (auxiliaries) the next ranks.
    pub fn grow_vars(&mut self, var_count: usize, sig_var: &[VarId]) {
        let from = self.canon.len();
        self.canon.resize(var_count, u32::MAX);
        for (i, v) in sig_var.iter().enumerate().skip(self.canon_signals) {
            self.canon[v.index()] = i as u32;
        }
        self.canon_signals = sig_var.len();
        for key in &mut self.canon[from..] {
            if *key == u32::MAX {
                *key = AUX | self.canon_aux;
                self.canon_aux += 1;
            }
        }
    }

    /// Seals the *current* state of a session log into an assumption
    /// proof for one Unsat-under-`assumptions` query, without consuming
    /// the log — the session keeps learning across later queries.
    /// `certifier` is the session's certifier, already caught up with
    /// [`ProofLog::certify_pending`] (`None` once it rejected a step).
    ///
    /// Two things separate a snapshot from [`ProofLog::finish`]:
    ///
    /// * **Variable translation.** The session engine allocates its
    ///   `var_count` variables segment-wise as the netlist grows (each
    ///   `extend`'s signals, then its auxiliaries), and so does the
    ///   session certifier, but a fresh checker lowers the final
    ///   netlist in one segment (all signals, then all auxiliaries).
    ///   The keys [`ProofLog::grow_vars`] kept determine the renaming:
    ///   signal variables map to their signal index, auxiliaries to
    ///   `signal_count + rank` by ascending engine id — the same order a
    ///   single-segment lowering allocates them, because both walk
    ///   nodes in signal-id order.
    /// * **The final clause.** `¬a₁ ∨ … ∨ ¬aₖ` over the query's
    ///   assumptions is *assumption-dependent*, so it must not be
    ///   installed in the certifier (later queries would inherit it).
    ///   It is checked with [`Checker::certify_uninstalled`]; if that
    ///   fails the snapshot (only) gains a gap and cannot certify. A
    ///   session already at the empty clause (globally unsat) needs no
    ///   final clause.
    pub fn snapshot(&self, assumptions: &[(VarId, bool)], certifier: Option<&mut Checker>) -> Proof {
        let signals = self.canon_signals as u32;
        let canon = |var: u32| match self.canon[var as usize] {
            key if key & AUX != 0 => signals + (key & !AUX),
            key => key,
        };
        let tr_lit = |lit: &PLit| match *lit {
            PLit::Bool { var, value } => PLit::Bool {
                var: canon(var),
                value,
            },
            PLit::Word {
                var,
                lo,
                hi,
                positive,
            } => PLit::Word {
                var: canon(var),
                lo,
                hi,
                positive,
            },
        };
        let tr_split = |split: &PSplit| match *split {
            PSplit::Bool { var } => PSplit::Bool { var: canon(var) },
            PSplit::Word { var, at } => PSplit::Word {
                var: canon(var),
                at,
            },
            // Constraints are numbered in node order in every
            // segmentation, so their ids need no translation.
            PSplit::Diseq { cons } => PSplit::Diseq { cons },
        };
        let tr_step = |s: &Step| Step {
            lits: s.lits.iter().map(tr_lit).collect(),
            splits: s.splits.iter().map(tr_split).collect(),
            ants: s.ants.clone(),
            dels: s.dels.clone(),
        };
        let mut steps: Vec<Step> = self.steps.iter().map(tr_step).collect();
        let admitted = certifier.as_ref().map_or(0, |c| c.admitted());
        let mut gaps = self.steps.len() as u32 - admitted;
        if !steps.last().is_some_and(Step::is_empty_clause) {
            let mut last = Step {
                lits: assumptions
                    .iter()
                    .map(|&(var, value)| PLit::Bool {
                        var: var.index() as u32,
                        value: !value,
                    })
                    .collect(),
                ..Step::default()
            };
            let closed =
                gaps == 0 && certifier.is_some_and(|c| c.certify_uninstalled(&mut last).is_ok());
            if closed {
                steps.push(tr_step(&last));
            } else {
                gaps += 1;
            }
        }
        Proof {
            var_count: self.canon.len() as u32,
            goal: self.goal.clone(),
            assumptions: assumptions
                .iter()
                .map(|&(var, value)| PLit::Bool {
                    var: canon(var.index() as u32),
                    value,
                })
                .collect(),
            gaps,
            steps,
        }
    }
}
