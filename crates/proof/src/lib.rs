//! # rtl-proof — independent Unsat proof checking
//!
//! The HDPLL solver can log every learned lemma (Boolean clauses, §3
//! predicate lemmas, §4 J-conflict clauses, final-check cuts) as a
//! *proof step*: the lemma's literals, an optional list of case splits,
//! and the ids of earlier steps it cites. This crate checks such a
//! proof against the original netlist **without any solver code**: it
//! lowers the netlist itself (mirroring the solver's variable layout),
//! then admits each step by *reverse unit propagation* — assert the
//! negation of every literal, run the interval/Boolean contractors plus
//! unit propagation over previously admitted steps to a fixpoint, and
//! demand an empty domain (exploring the step's recorded case splits
//! when plain propagation is not enough). A proof is valid when every
//! step admits, the producer's own certification left no step
//! unadmitted (`gaps == 0`), and the final step is the empty clause.
//!
//! The producer certifies through this crate too:
//! [`Checker::certify`] admits each recorded step once, in order, and
//! fills in the case splits of lemmas that need them from the split
//! finder — whose proposals a strict admission replays, so the finder
//! is outside the trusted base.
//!
//! Trust base: this crate plus `rtl-ir` (netlist shape) and
//! `rtl-interval` (interval arithmetic). Nothing from the solver.
//!
//! See `format` for the compact text serialization.

pub mod check;
pub mod format;
mod lower;

pub use check::{CheckError, CheckReport, Checker};
pub use format::ParseError;

use rtl_ir::{Netlist, SignalId};

/// A proof literal over solver variables (signals first, auxiliaries
/// after, in the solver's allocation order — see [`check::Checker`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PLit {
    /// Boolean literal asserting `var = value`.
    Bool {
        /// Variable index.
        var: u32,
        /// Asserted value.
        value: bool,
    },
    /// Word literal asserting `var ∈ [lo, hi]` (`positive`) or
    /// `var ∉ [lo, hi]` (`!positive`).
    Word {
        /// Variable index.
        var: u32,
        /// Interval lower bound.
        lo: i64,
        /// Interval upper bound.
        hi: i64,
        /// `true` for `∈`, `false` for `∉`.
        positive: bool,
    },
}

impl PLit {
    /// The literal's variable index.
    #[must_use]
    pub fn var(&self) -> u32 {
        match self {
            PLit::Bool { var, .. } | PLit::Word { var, .. } => *var,
        }
    }

    /// The literal with opposite polarity.
    #[must_use]
    pub fn negated(&self) -> PLit {
        match *self {
            PLit::Bool { var, value } => PLit::Bool { var, value: !value },
            PLit::Word {
                var,
                lo,
                hi,
                positive,
            } => PLit::Word {
                var,
                lo,
                hi,
                positive: !positive,
            },
        }
    }
}

/// A case split used to close a lemma that plain propagation cannot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PSplit {
    /// Branch on a Boolean variable (false branch, then true branch).
    Bool {
        /// Variable index.
        var: u32,
    },
    /// Branch a word variable into `≤ at` and `> at` (absolute bound).
    Word {
        /// Variable index.
        var: u32,
        /// Split point: left branch keeps `(-∞, at]`, right `[at+1, ∞)`.
        at: i64,
    },
}

/// One proof step: a lemma clause with optional splits and antecedent
/// step ids. Step ids are implicit — a step's id is its index in
/// [`Proof::steps`]; antecedents must cite strictly smaller ids.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Step {
    /// The lemma's literals (empty for the final empty clause).
    pub lits: Vec<PLit>,
    /// Case splits for the admission search (may be empty).
    pub splits: Vec<PSplit>,
    /// Ids of earlier steps this lemma was derived from (advisory: the
    /// checker validates the ids but propagates over *all* admitted
    /// steps, which is sound and strictly more deductive power).
    pub ants: Vec<u32>,
    /// Ids of earlier steps whose clauses the producer retired from its
    /// database *before* deriving this step (DB reduction). The checker
    /// retires them from its live set — deletion only removes deductive
    /// power, so honoring it is sound, and it keeps the checker's
    /// propagation workload bounded the same way the producer's is.
    pub dels: Vec<u32>,
}

impl Step {
    /// `true` for the empty clause.
    #[must_use]
    pub fn is_empty_clause(&self) -> bool {
        self.lits.is_empty()
    }
}

/// A full proof: header data plus the step sequence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Proof {
    /// Expected solver variable count (signals + auxiliaries); checked
    /// against the checker's own lowering of the netlist.
    pub var_count: u32,
    /// Name of the goal signal the netlist was solved under, or `"-"`
    /// for an assumption proof (incremental session query) whose goal
    /// is carried by [`Proof::assumptions`] instead.
    pub goal: String,
    /// Assumption literals of an incremental session query (format v3
    /// `assume` header; empty for classic goal proofs). The final step
    /// of an assumption proof must be a clause over the negations of
    /// these literals — see [`check::Checker::check_assumptions`].
    pub assumptions: Vec<PLit>,
    /// Number of steps the producer's certifier did not admit. A proof
    /// with `gaps > 0` is *incomplete* and never certifies anything.
    pub gaps: u32,
    /// The derivation; the last step must be the empty clause.
    pub steps: Vec<Step>,
}

impl Proof {
    /// `true` when the producer's certifier admitted every step.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.gaps == 0
    }

    /// Total number of steps.
    #[must_use]
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// `true` when the proof has no steps.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }
}

/// Resolves a goal name against a netlist: signal names first, then
/// declared output names (`output SIG NAME` lines name signals that
/// may otherwise be anonymous, e.g. the `bad_p1` property of an
/// unrolled BMC problem).
#[must_use]
pub fn resolve_goal(netlist: &Netlist, name: &str) -> Option<SignalId> {
    netlist.find(name).or_else(|| {
        netlist
            .outputs()
            .iter()
            .find(|(_, n)| n == name)
            .map(|&(id, _)| id)
    })
}

/// The display name the producer should record for a goal signal, such
/// that [`resolve_goal`] finds it again on the textual round-trip of
/// the netlist: the signal's own name, else its output name, else the
/// positional `_s<N>` name used by `rtl_ir::text`.
#[must_use]
pub fn goal_name(netlist: &Netlist, goal: SignalId) -> String {
    if let Some(n) = netlist.signal(goal).name() {
        return n.to_string();
    }
    if let Some((_, n)) = netlist.outputs().iter().find(|&&(id, _)| id == goal) {
        return n.clone();
    }
    format!("_s{}", goal.index())
}

#[cfg(test)]
mod tests;
