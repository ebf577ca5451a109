//! Differential proptests for the certification-preserving word-level
//! preprocessing pipeline (`rtl_ir::simplify`, DESIGN.md §2.13): on
//! random small netlists, solving the preprocessed netlist must agree
//! with solving the raw one under every engine variant, every `Sat`
//! model must translate back and certify against the *original*
//! netlist, every `Unsat` proof must check against the *simplified*
//! netlist an independent re-run of the rewrites derives from the
//! bundle, and the whole pipeline must be idempotent.
//!
//! The trust story pinned here: the simplifier is never part of the
//! trusted base. SAT answers are re-certified by the reference
//! simulator on the original netlist; UNSAT answers are checked against
//! a simplified netlist that `bundle_validate` re-derives
//! deterministically from the original.

use proptest::prelude::*;

use rtlsat::baselines::{BaselineLimits, EagerSolver};
use rtlsat::hdpll::{HdpllResult, LearnConfig, Solver, SolverConfig, Supervisor};
use rtlsat::ir::simplify::{
    bundle_parse, bundle_to_text, bundle_to_text_full, bundle_validate, simplify, simplify_full,
};
use rtlsat::ir::{eval, text, Netlist, Op};
use rtlsat::proof::Checker;
use rtlsat::serve::{build_supervisor, SolveOptions};

mod common;
use common::random_netlist;

/// The `--fallback` ladder of the default engine: `hdpll-sp`, then
/// `hdpll`, then the eager bit-blast.
fn fallback_supervisor(netlist: &Netlist) -> Supervisor {
    let opts = SolveOptions {
        fallback: true,
        ..SolveOptions::default()
    };
    build_supervisor(&opts, netlist).expect("the default engine")
}

fn verdict_of(r: &HdpllResult) -> bool {
    match r {
        HdpllResult::Sat(_) => true,
        HdpllResult::Unsat => false,
        HdpllResult::Unknown => panic!("no budget set — instances are tiny"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Solving the preprocessed netlist agrees with the eager reference
    /// on the raw one, for every engine variant. SAT models are
    /// translated back through the signal map and must certify on the
    /// ORIGINAL netlist; UNSAT proofs must check against the simplified
    /// netlist they are stated over.
    #[test]
    fn preprocessed_solve_matches_raw(seed in any::<u64>()) {
        let (netlist, goal) = random_netlist(seed);
        let expected =
            verdict_of(&EagerSolver::new(BaselineLimits::default()).solve(&netlist, goal));

        let r = simplify(&netlist, &[goal]);
        let goal_new = r.map.get(goal).expect("goal is a root, always mapped");
        prop_assert!(
            r.netlist.len() <= netlist.len(),
            "seed {seed}: simplification grew the netlist"
        );

        // The goal may fold to a constant outright — that IS the
        // verdict, no search needed.
        if let Op::Const(c) = r.netlist.op(goal_new) {
            prop_assert_eq!(
                *c != 0,
                expected,
                "seed {}: goal folded to the wrong constant",
                seed
            );
        } else {
            for (label, config) in [
                ("hdpll", SolverConfig::hdpll()),
                ("hdpll+S", SolverConfig::structural()),
                (
                    "hdpll+S+P",
                    SolverConfig::structural_with_learning(LearnConfig::default()),
                ),
            ] {
                let mut solver = Solver::new(&r.netlist, config.with_proof(true));
                match solver.solve(goal_new) {
                    HdpllResult::Sat(model) => {
                        prop_assert!(expected, "seed {seed}: {label} SAT on an UNSAT instance");
                        let translated = r.map.translate_model(&netlist, &model);
                        prop_assert!(
                            eval::check_model(&netlist, &translated, goal).unwrap(),
                            "seed {seed}: {label} translated model rejected by the original"
                        );
                    }
                    HdpllResult::Unsat => {
                        prop_assert!(!expected, "seed {seed}: {label} UNSAT on a SAT instance");
                        let proof = solver.take_proof().expect("proof logging was on");
                        Checker::check_goal(&r.netlist, goal_new, &proof).unwrap_or_else(|e| {
                            panic!("seed {seed}: {label} proof rejected on simplified netlist: {e}")
                        });
                    }
                    HdpllResult::Unknown => prop_assert!(false, "seed {seed}: {label} Unknown"),
                }
            }
        }
    }

    /// Preprocessing is idempotent: running the pipeline on its own
    /// output is a no-op (same text, nothing folded or shared).
    #[test]
    fn preprocessing_is_idempotent(seed in any::<u64>()) {
        let (netlist, goal) = random_netlist(seed);
        let once = simplify(&netlist, &[goal]);
        let goal_once = once.map.get(goal).expect("goal mapped");
        let twice = simplify(&once.netlist, &[goal_once]);
        prop_assert_eq!(
            text::to_text(&once.netlist),
            text::to_text(&twice.netlist),
            "seed {}: second pass changed the netlist",
            seed
        );
        prop_assert_eq!(twice.stats.folds, 0, "seed {}: second pass folded", seed);
        prop_assert_eq!(twice.stats.shares, 0, "seed {}: second pass shared", seed);
        prop_assert_eq!(
            twice.stats.coi_dropped, 0,
            "seed {}: second pass pruned",
            seed
        );
    }

    /// The supervised entry point with preprocessing on (the default)
    /// agrees with preprocessing off, certifies cleanly both ways, and
    /// reports what the preprocessor did.
    #[test]
    fn supervised_preproc_on_off_agree(seed in any::<u64>()) {
        let (netlist, goal) = random_netlist(seed);
        let on = fallback_supervisor(&netlist).solve(&netlist, goal);
        let off = fallback_supervisor(&netlist)
            .with_preproc(false)
            .solve(&netlist, goal);
        prop_assert_eq!(
            verdict_of(&on.verdict),
            verdict_of(&off.verdict),
            "seed {}: preproc flipped the supervised verdict",
            seed
        );
        prop_assert_eq!(on.cert_failures(), 0, "seed {seed}: preproc-on cert failure");
        prop_assert_eq!(off.cert_failures(), 0, "seed {seed}: preproc-off cert failure");
        // A goal that folds to a constant makes the supervisor fall
        // back to the untouched original (no summary); otherwise the
        // summary must record what the preprocessor did.
        let pre = simplify(&netlist, &[goal]);
        let goal_folded = matches!(
            pre.netlist.op(pre.map.get(goal).expect("goal mapped")),
            Op::Const(_)
        );
        prop_assert_eq!(
            on.preproc.is_some(),
            !goal_folded,
            "seed {}: preproc summary presence disagrees with goal folding",
            seed
        );
        prop_assert!(
            off.preproc.is_none(),
            "seed {seed}: preproc off but a summary appeared"
        );
        // The supervisor translates SAT models back itself — they must
        // certify on the original netlist as-is.
        if let HdpllResult::Sat(model) = &on.verdict {
            prop_assert!(
                eval::check_model(&netlist, model, goal).unwrap(),
                "seed {seed}: supervised translated model rejected by the original"
            );
        }
    }

    /// Bundle round-trip in both modes: goal-mode (single-goal proofs)
    /// and full-mode (session assumption proofs). `bundle_validate`
    /// re-derives the simplified netlist from the original and must
    /// reproduce the published text and map exactly.
    #[test]
    fn bundles_roundtrip_and_revalidate(seed in any::<u64>()) {
        let (mut netlist, goal) = random_netlist(seed);
        // `bundle_validate` resolves the goal by name in the original.
        netlist.set_name(goal, "the_goal").unwrap();

        // Goal-mode: COI pruning against the goal.
        let r = simplify(&netlist, &[goal]);
        let goal_new = r.map.get(goal).expect("goal mapped");
        let bundle_text = bundle_to_text("the_goal", goal_new, &r);
        let bundle = bundle_parse(&bundle_text).unwrap();
        prop_assert_eq!(&bundle.goal, &Some(("the_goal".to_string(), goal_new)));
        let derived = bundle_validate(&netlist, &bundle)
            .unwrap_or_else(|e| panic!("seed {seed}: goal-mode bundle rejected: {e}"));
        prop_assert_eq!(text::to_text(&derived.netlist), bundle.netlist_text);

        // Full-mode: no pruning, total map, no goal line.
        let rf = simplify_full(&netlist);
        let full_text = bundle_to_text_full(&rf);
        let full = bundle_parse(&full_text).unwrap();
        prop_assert!(full.goal.is_none(), "seed {seed}: full bundle grew a goal");
        let derived = bundle_validate(&netlist, &full)
            .unwrap_or_else(|e| panic!("seed {seed}: full-mode bundle rejected: {e}"));
        prop_assert_eq!(text::to_text(&derived.netlist), full.netlist_text);
    }
}
