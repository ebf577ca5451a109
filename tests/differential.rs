//! Differential proptest over *random small netlists*: all three HDPLL
//! variants must agree with the eager bit-blast baseline on every
//! instance, every `Sat` model must certify under the reference
//! simulator, and the supervised entry point must reach the same
//! verdict with zero certification failures.
//!
//! The netlists are generated from a `u64` seed by a local splitmix64
//! stream (deterministic, shrink-free) so a failing seed reproduces
//! exactly.

use proptest::prelude::*;

use rtlsat::baselines::{BaselineLimits, EagerSolver};
use rtlsat::hdpll::{
    ClauseDbConfig, HdpllResult, LearnConfig, RestartMode, Solver, SolverConfig,
};
use rtlsat::ir::eval;
use rtlsat::serve::{build_supervisor, SolveOptions};

mod common;
use common::random_netlist;

fn verdict_of(r: &HdpllResult) -> bool {
    match r {
        HdpllResult::Sat(_) => true,
        HdpllResult::Unsat => false,
        HdpllResult::Unknown => panic!("no budget set — instances are tiny"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn hdpll_variants_agree_with_eager(seed in any::<u64>()) {
        let (netlist, goal) = random_netlist(seed);
        let reference = EagerSolver::new(BaselineLimits::default()).solve(&netlist, goal);
        let expected = verdict_of(&reference);
        if let HdpllResult::Sat(model) = &reference {
            prop_assert!(
                eval::check_model(&netlist, model, goal).unwrap(),
                "seed {seed}: eager witness rejected by the simulator"
            );
        }

        for (label, config) in [
            ("hdpll", SolverConfig::hdpll()),
            ("hdpll+S", SolverConfig::structural()),
            (
                "hdpll+S+P",
                SolverConfig::structural_with_learning(LearnConfig::default()),
            ),
        ] {
            let mut solver = Solver::new(&netlist, config);
            let got = solver.solve(goal);
            prop_assert_eq!(
                verdict_of(&got),
                expected,
                "seed {}: {} disagrees with eager",
                seed,
                label
            );
            if let HdpllResult::Sat(model) = &got {
                prop_assert!(
                    eval::check_model(&netlist, model, goal).unwrap(),
                    "seed {seed}: {label} witness rejected by the simulator"
                );
            }
        }
    }

    #[test]
    fn clause_db_management_preserves_verdicts(seed in any::<u64>()) {
        // Clause-DB reduction and scheduled restarts only re-order and
        // prune the search — the verdict must be invariant. Reference:
        // management fully off (no deletions, no scheduled restarts).
        let (netlist, goal) = random_netlist(seed);
        let off = SolverConfig::structural()
            .with_restarts(RestartMode::Off)
            .with_clause_db(ClauseDbConfig {
                reduce: false,
                ..ClauseDbConfig::default()
            });
        let expected = verdict_of(&Solver::new(&netlist, off).solve(goal));

        // Aggressive schedule so reductions actually fire on these tiny
        // instances (defaults are tuned for real workloads).
        let aggressive = ClauseDbConfig {
            reduce: true,
            first_reduce: 1,
            reduce_inc: 1,
        };
        for (label, restarts, db) in [
            ("ema+aggressive-db", RestartMode::Ema, aggressive),
            ("luby+aggressive-db", RestartMode::Luby, aggressive),
            ("ema+default-db", RestartMode::Ema, ClauseDbConfig::default()),
        ] {
            let config = SolverConfig::structural()
                .with_restarts(restarts)
                .with_clause_db(db);
            let mut solver = Solver::new(&netlist, config);
            let got = solver.solve(goal);
            prop_assert_eq!(
                verdict_of(&got),
                expected,
                "seed {}: {} changes the verdict",
                seed,
                label
            );
            if let HdpllResult::Sat(model) = &got {
                prop_assert!(
                    eval::check_model(&netlist, model, goal).unwrap(),
                    "seed {seed}: {label} witness rejected by the simulator"
                );
            }
        }
    }

    #[test]
    fn supervised_solve_matches_reference(seed in any::<u64>()) {
        let (netlist, goal) = random_netlist(seed);
        let expected =
            verdict_of(&EagerSolver::new(BaselineLimits::default()).solve(&netlist, goal));
        let opts = SolveOptions {
            fallback: true,
            check: true,
            ..SolveOptions::default()
        };
        let result = build_supervisor(&opts, &netlist).unwrap().solve(&netlist, goal);
        prop_assert_eq!(
            verdict_of(&result.verdict),
            expected,
            "seed {}: supervised verdict diverges",
            seed
        );
        prop_assert_eq!(
            result.cert_failures(),
            0,
            "seed {}: clean run reported certification failures",
            seed
        );
        prop_assert!(result.answered_by.is_some());
    }
}
