//! HDPLL — a hybrid DPLL satisfiability solver for RTL circuits, with
//! predicate learning and structural justification.
//!
//! This crate is the primary contribution of the DAC 2005 paper
//! *"Structural Search for RTL with Predicate Learning"* (Parthasarathy,
//! Iyer, Cheng, Brewer), rebuilt from scratch:
//!
//! * **The hybrid DPLL engine** (§2.4, \[9,12\]): a DPLL-style search that
//!   decides only on Boolean control variables, deduces with event-driven
//!   *interval constraint propagation* over the word-level data-path
//!   (`Ddeduce()`), records every assignment and interval narrowing on a
//!   **hybrid implication graph**, learns **hybrid clauses** (disjunctions
//!   of Boolean and word-interval literals) from conflicts, and certifies
//!   full assignments by checking the resulting *solution box* for an
//!   integer point with a Fourier–Motzkin oracle ([`rtl_fm`]).
//!
//! * **Predicate-based static learning** (§3): a pre-processing pass that
//!   extends recursive learning \[10\] across the data-path using interval
//!   constraint propagation, extracting relations between the predicate
//!   signals that control the data-path (learned 2-clauses like the
//!   paper's `(¬b5 ∨ b6)`), capped by a threshold, and used both as
//!   clauses and as decision weights. See [`predlearn`].
//!
//! * **Structural decision strategy** (§4): RTL justification — decisions
//!   are driven by a *J-frontier* of unjustified Boolean gates and
//!   justifiable RTL operators (Definition 4.1); multiplexer selects are
//!   chosen by interval intersection; unjustifiable situations
//!   (*J-conflicts*) are analyzed on the hybrid implication graph into
//!   learned clauses with non-chronological backtracking. See [`justify`].
//!
//! # Quick start
//!
//! ```
//! use rtl_hdpll::{HdpllResult, Solver, SolverConfig};
//! use rtl_ir::{CmpOp, Netlist};
//!
//! # fn main() -> Result<(), rtl_ir::NetlistError> {
//! // Is there an x with 3·x = 21 and x odd? (x = 7)
//! let mut n = Netlist::new("probe");
//! let x = n.input_word("x", 5)?;
//! let tripled = n.mul_const(x, 3)?;
//! let target = n.eq_const(tripled, 21)?;
//! let low = n.extract(x, 0, 0)?;
//! let odd = n.eq_const(low, 1)?;
//! let goal = n.and(&[target, odd])?;
//!
//! let mut solver = Solver::new(&n, SolverConfig::default());
//! match solver.solve(goal) {
//!     HdpllResult::Sat(model) => assert_eq!(model[&x], 7),
//!     other => panic!("expected SAT, got {other:?}"),
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compile;
mod decide;
mod engine;
mod final_check;
mod prooflog;
mod propagate;
mod search;
mod types;

pub mod justify;
pub mod predlearn;
pub mod session;
pub mod solver;
pub mod supervise;

pub use crate::engine::EngineStats;
pub use crate::session::{
    Assumption, Certified, Session, SessionCert, SupervisedQuery, SupervisedSession,
};
pub use crate::solver::{HdpllResult, LearningMode, Limits, Solver, SolverConfig, SolverStats};
pub use crate::supervise::{
    panic_message, preprocess, slice_limit, CancelToken, Certification, FaultPlan, HdpllStage,
    PreprocSummary, SolveStage, StageOutcome, StageReport, StageRun, SupervisedResult, Supervisor,
};
pub use crate::types::{
    AbortReason, ClauseDbConfig, DecisionStrategy, HLit, RestartMode, VarId,
};

pub use crate::predlearn::{LearnConfig, LearnReport, Relation};

pub use rtl_obs::{ObsConfig, ObsHandle};

#[cfg(test)]
mod tests;
