//! Core value, literal, and trail types of the hybrid engine.

use std::fmt;

use rtl_interval::{Interval, Tribool};
use rtl_ir::SignalId;

/// A solver variable.
///
/// The first `N` variables map one-to-one to the signals of the compiled
/// netlist; variables beyond `N` are *auxiliary* words introduced by the
/// compiler (wrap-around quotients, shift remainders, sign-split slices) —
/// the auxiliary-variable modelling of non-linear bit-vector operators the
/// paper inherits from Brinkmann & Drechsler (§2.1).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub(crate) u32);

impl VarId {
    /// Dense index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The variable corresponding to a netlist signal.
    #[must_use]
    pub fn from_signal(sig: SignalId) -> Self {
        VarId(u32::try_from(sig.index()).expect("signal index fits"))
    }
}

impl fmt::Debug for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// The domain of one variable: a three-valued Boolean or an integer
/// interval (the paper's `D(v)`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dom {
    /// Boolean domain.
    B(Tribool),
    /// Word domain.
    W(Interval),
}

impl Dom {
    /// `true` if the domain pins a single value.
    #[must_use]
    pub fn is_fixed(&self) -> bool {
        match self {
            Dom::B(t) => t.is_assigned(),
            Dom::W(iv) => iv.is_point(),
        }
    }

    /// The Boolean value.
    ///
    /// # Panics
    ///
    /// Panics if this is a word domain.
    #[must_use]
    pub fn tri(&self) -> Tribool {
        match self {
            Dom::B(t) => *t,
            Dom::W(_) => panic!("word domain where Boolean expected"),
        }
    }

    /// The interval.
    ///
    /// # Panics
    ///
    /// Panics if this is a Boolean domain.
    #[must_use]
    pub fn iv(&self) -> Interval {
        match self {
            Dom::W(iv) => *iv,
            Dom::B(_) => panic!("Boolean domain where word expected"),
        }
    }

    /// The domain as an interval (Booleans become `⟨0,0⟩`/`⟨1,1⟩`/`⟨0,1⟩`),
    /// bridging control into the data-path.
    #[must_use]
    pub fn as_interval(&self) -> Interval {
        match self {
            Dom::W(iv) => *iv,
            Dom::B(t) => t.to_interval(),
        }
    }
}

/// A *hybrid literal* (paper §2.1): a Boolean literal, or a word literal —
/// a variable paired with an interval, positive (`v ∈ b`) or negative
/// (`v ∈ D(v)\b`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum HLit {
    /// Boolean literal asserting `var = value`.
    Bool {
        /// The Boolean variable.
        var: VarId,
        /// The asserted value.
        value: bool,
    },
    /// Word literal asserting `var ∈ iv` (positive) or `var ∉ iv`
    /// (negative).
    Word {
        /// The word variable.
        var: VarId,
        /// The interval of the literal.
        iv: Interval,
        /// `true` for `var ∈ iv`, `false` for `var ∉ iv`.
        positive: bool,
    },
}

impl HLit {
    /// The variable of the literal.
    #[must_use]
    pub fn var(&self) -> VarId {
        match self {
            HLit::Bool { var, .. } | HLit::Word { var, .. } => *var,
        }
    }

    /// Three-valued evaluation against a domain.
    #[must_use]
    pub fn eval(&self, dom: &Dom) -> Tribool {
        match (self, dom) {
            (HLit::Bool { value, .. }, Dom::B(t)) => match t.to_bool() {
                Some(v) => Tribool::from(v == *value),
                None => Tribool::Unknown,
            },
            (HLit::Word { iv, positive, .. }, Dom::W(d)) => {
                let inside = if iv.contains_interval(*d) {
                    Tribool::True // domain entirely inside the literal interval
                } else if !iv.intersects(*d) {
                    Tribool::False
                } else {
                    Tribool::Unknown
                };
                if *positive {
                    inside
                } else {
                    inside.not()
                }
            }
            _ => panic!("literal/domain kind mismatch on {self:?}"),
        }
    }
}

impl fmt::Display for HLit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HLit::Bool { var, value } => {
                if *value {
                    write!(f, "{var}")
                } else {
                    write!(f, "¬{var}")
                }
            }
            HLit::Word { var, iv, positive } => {
                if *positive {
                    write!(f, "{var}∈{iv}")
                } else {
                    write!(f, "{var}∉{iv}")
                }
            }
        }
    }
}

/// A `(start, len)` view into one of the engine's append-only `u32`/
/// [`VarId`] pools (antecedent indices, interned constraint var-lists).
///
/// Pools grow only at the tip and are truncated in lockstep with the
/// structure that owns the spans (the trail, the constraint store), so a
/// span is valid exactly as long as its owner. Storing spans instead of
/// per-entry `Vec`s keeps hot-path records `Copy` and allocation-free.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// First pool index of the span.
    pub start: u32,
    /// Number of elements.
    pub len: u32,
}

impl Span {
    /// An empty span anchored at the current pool tip. Anchoring empty
    /// spans at the tip (not at 0) keeps span starts monotone along the
    /// trail, which is what lockstep truncation relies on.
    #[must_use]
    pub fn empty_at(tip: usize) -> Self {
        Span {
            start: tip as u32,
            len: 0,
        }
    }

    /// The span as a pool index range.
    #[must_use]
    pub fn range(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }

    /// `true` if the span holds no elements.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.len == 0
    }
}

/// Why a trail entry was made.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reason {
    /// A search decision.
    Decision,
    /// The problem proposition or another external assertion at level 0.
    External,
    /// Implied by a compiled circuit constraint.
    Constraint(u32),
    /// Implied by a (learned or static) hybrid clause.
    Clause(u32),
}

/// One node of the hybrid implication graph: a Boolean assignment or an
/// interval narrowing, with its antecedent nodes.
///
/// The entry is `Copy`: the antecedent list lives in the engine's shared
/// antecedent pool and is referenced by a [`Span`], so pushing and
/// undoing trail entries never touches the heap.
#[derive(Clone, Copy, Debug)]
pub struct TrailEntry {
    /// The variable affected.
    pub var: VarId,
    /// Domain before this entry (for undo).
    pub old: Dom,
    /// Domain after this entry.
    pub new: Dom,
    /// The producing reason.
    pub reason: Reason,
    /// Span into the engine's antecedent pool: trail indices of the
    /// entries that implied this one (empty for decisions/external
    /// assertions).
    pub ants: Span,
    /// Decision level at which the entry was made.
    pub level: u32,
    /// The variable's previous latest-entry index (undo bookkeeping).
    pub prev_latest: Option<u32>,
}

impl TrailEntry {
    /// The negation of [`TrailEntry::as_assignment_lit`] — the literal this
    /// entry contributes to a learned conflict clause.
    #[must_use]
    pub fn as_conflict_lit(&self) -> HLit {
        match self.new {
            Dom::B(t) => HLit::Bool {
                var: self.var,
                value: !t.to_bool().expect("boolean trail entries are assigned"),
            },
            Dom::W(iv) => HLit::Word {
                var: self.var,
                iv,
                positive: false,
            },
        }
    }

    /// `true` if the entry assigns a Boolean variable.
    #[must_use]
    pub fn is_bool(&self) -> bool {
        matches!(self.new, Dom::B(_))
    }
}

/// Why a solve call stopped early with [`crate::HdpllResult::Unknown`]:
/// which budget or cooperative-cancellation signal tripped first.
///
/// Deadline and cancellation are polled *inside* the propagation loop
/// (every [`crate::supervise`]'s `POLL_PERIOD` ≈ 4096 steps), so the
/// reason is accurate even when a single propagation burst dwarfs the
/// top-level search loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AbortReason {
    /// `Limits::max_time` elapsed.
    Deadline,
    /// The caller's [`crate::supervise::CancelToken`] was cancelled.
    Cancelled,
    /// `Limits::max_propagations` was reached.
    Propagations,
    /// `Limits::max_decisions` was reached.
    Decisions,
    /// `Limits::max_conflicts` was reached.
    Conflicts,
    /// `Limits::max_memory` was exceeded (approximate, from the clause
    /// database, antecedent pool, and trail).
    Memory,
}

impl fmt::Display for AbortReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AbortReason::Deadline => "deadline",
            AbortReason::Cancelled => "cancelled",
            AbortReason::Propagations => "propagation budget",
            AbortReason::Decisions => "decision budget",
            AbortReason::Conflicts => "conflict budget",
            AbortReason::Memory => "memory budget",
        })
    }
}

/// Which decision strategy `Decide()` uses (paper Table 2 columns).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DecisionStrategy {
    /// Plain HDPLL \[9\]: activity ordering seeded by fanout with
    /// exponential decay, bumped by learned-clause membership.
    #[default]
    Activity,
    /// The paper's structural strategy (`+S`): J-frontier–driven RTL
    /// justification with J-conflict learning.
    Structural,
}

/// A hybrid clause: a disjunction of hybrid literals (paper §2.1).
#[derive(Clone, Debug, PartialEq)]
pub struct HClause {
    /// The literals.
    pub lits: Vec<HLit>,
    /// `true` for clauses produced by learning (conflict analysis or the
    /// static predicate-learning pass).
    pub learned: bool,
    /// Literal-block distance (glue) at learn time: the number of
    /// distinct non-root decision levels among the lemma's literals.
    /// `0` for clauses not produced by conflict analysis (static
    /// predicate lemmas, external clauses), which the DB manager never
    /// deletes.
    pub lbd: u32,
    /// Activity, bumped whenever the clause participates in conflict
    /// analysis and decayed geometrically; drives DB reduction.
    pub activity: f64,
    /// Tombstone flag: a deleted clause keeps its id (reasons and proof
    /// steps cite ids) but is unwatched and never propagated again.
    pub deleted: bool,
    /// Positions in `lits` of the two watched literals (both `0` for a
    /// one-literal clause). Watching never reorders `lits`: proof
    /// logging prints them as learned, the UIP literal first.
    pub watch: [u32; 2],
}

/// How scheduled restarts are triggered ([`crate::SolverConfig`]).
/// Forced level-0 returns (a lemma asserting at the root) are always
/// accounted separately in [`crate::EngineStats::restarts`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RestartMode {
    /// Glucose-style adaptive restarts: restart when the fast
    /// exponential moving average of conflict LBDs exceeds the slow one
    /// (the recent lemmas are markedly worse than the long-run mix).
    #[default]
    Ema,
    /// Luby-sequence restarts with a fixed conflict unit — the
    /// heavy-tail fallback when the EMA schedule misbehaves.
    Luby,
    /// No scheduled restarts (the pre-DB-manager behavior).
    Off,
}

/// Learned-clause database management knobs ([`crate::SolverConfig`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClauseDbConfig {
    /// Enable periodic reduction. When off the DB only grows (the
    /// pre-manager behavior; used by the differential harness as the
    /// reference variant).
    pub reduce: bool,
    /// Conflict-learned lemmas accumulated before the first reduction.
    pub first_reduce: u32,
    /// Threshold growth per completed reduction (keeps the live set
    /// slowly expanding, so hard instances retain more context).
    pub reduce_inc: u32,
}

impl Default for ClauseDbConfig {
    fn default() -> Self {
        ClauseDbConfig {
            reduce: true,
            first_reduce: 32,
            reduce_inc: 16,
        }
    }
}

#[cfg(test)]
mod unit {
    use super::*;

    #[test]
    fn hlit_eval_bool() {
        let l = HLit::Bool {
            var: VarId(0),
            value: true,
        };
        assert_eq!(l.eval(&Dom::B(Tribool::True)), Tribool::True);
        assert_eq!(l.eval(&Dom::B(Tribool::False)), Tribool::False);
        assert_eq!(l.eval(&Dom::B(Tribool::Unknown)), Tribool::Unknown);
    }

    #[test]
    fn hlit_eval_word() {
        let l = HLit::Word {
            var: VarId(1),
            iv: Interval::new(3, 5),
            positive: true,
        };
        assert_eq!(l.eval(&Dom::W(Interval::new(3, 4))), Tribool::True);
        assert_eq!(l.eval(&Dom::W(Interval::new(7, 9))), Tribool::False);
        assert_eq!(l.eval(&Dom::W(Interval::new(4, 8))), Tribool::Unknown);
        let neg = HLit::Word {
            var: VarId(1),
            iv: Interval::new(3, 5),
            positive: false,
        };
        assert_eq!(neg.eval(&Dom::W(Interval::new(3, 4))), Tribool::False);
        assert_eq!(neg.eval(&Dom::W(Interval::new(7, 9))), Tribool::True);
    }

    #[test]
    fn span_ranges() {
        let s = Span { start: 3, len: 2 };
        assert_eq!(s.range(), 3..5);
        assert!(!s.is_empty());
        let e = Span::empty_at(7);
        assert_eq!(e.range(), 7..7);
        assert!(e.is_empty());
    }

    #[test]
    fn trail_entry_lits() {
        let e = TrailEntry {
            var: VarId(2),
            old: Dom::W(Interval::new(0, 15)),
            new: Dom::W(Interval::new(4, 7)),
            reason: Reason::Decision,
            ants: Span::empty_at(0),
            level: 1,
            prev_latest: None,
        };
        assert_eq!(
            e.as_conflict_lit(),
            HLit::Word {
                var: VarId(2),
                iv: Interval::new(4, 7),
                positive: false
            }
        );
        assert!(!e.is_bool());
    }
}
