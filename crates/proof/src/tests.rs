//! Unit tests: format round-trip and checker edge cases.

use rtl_ir::{CmpOp, Netlist, SignalId};

use crate::{format, CheckError, Checker, PLit, PSplit, Proof, Step};

fn lit_b(var: u32, value: bool) -> PLit {
    PLit::Bool { var, value }
}

fn lit_w(var: u32, lo: i64, hi: i64, positive: bool) -> PLit {
    PLit::Word {
        var,
        lo,
        hi,
        positive,
    }
}

/// `goal = x ∧ ¬x` — contradictory by pure propagation.
fn trivially_unsat() -> (Netlist, SignalId) {
    let mut n = Netlist::new("triv");
    let x = n.input_bool("x").unwrap();
    let nx = n.not(x).unwrap();
    let goal = n.and(&[x, nx]).unwrap();
    (n, goal)
}

/// Free Boolean inputs `x`, `y` with `goal = x` — satisfiable.
fn satisfiable() -> (Netlist, SignalId, SignalId) {
    let mut n = Netlist::new("sat");
    let x = n.input_bool("x").unwrap();
    let y = n.input_bool("y").unwrap();
    (n, x, y)
}

/// `x + y = 5 ∧ x = y` over parity-splittable words: no contradiction
/// by interval propagation alone (2x = 5 needs a case split), but any
/// split of `x` separates the two constraints.
fn needs_split() -> (Netlist, SignalId, u32) {
    let mut n = Netlist::new("split");
    let x = n.input_word("x", 3).unwrap();
    let y = n.input_word("y", 3).unwrap();
    let s = n.add_into(x, y, 4).unwrap();
    let c5 = n.const_word(5, 4).unwrap();
    let eq = n.cmp(CmpOp::Eq, s, c5).unwrap();
    let xeqy = n.cmp(CmpOp::Eq, x, y).unwrap();
    let goal = n.and(&[eq, xeqy]).unwrap();
    let x_var = x.index() as u32;
    (n, goal, x_var)
}

#[test]
fn round_trip_all_features() {
    let proof = Proof {
        var_count: 42,
        goal: "bad_p1".into(),
        assumptions: vec![],
        gaps: 0,
        steps: vec![
            Step {
                lits: vec![lit_b(3, true), lit_b(7, false), lit_w(9, -4, 12, false)],
                splits: vec![PSplit::Bool { var: 3 }, PSplit::Word { var: 9, at: -1 }],
                ants: vec![0, 1, 5],
                dels: vec![],
            },
            Step {
                lits: vec![lit_w(2, 0, 0, true)],
                splits: vec![],
                ants: vec![],
                dels: vec![0],
            },
            Step::default(), // final empty clause
        ],
    };
    let text = format::print(&proof);
    let back = format::parse(&text).expect("round-trip parse");
    assert_eq!(back, proof);
    // And the text itself is stable under a second round-trip.
    assert_eq!(format::print(&back), text);
}

#[test]
fn parse_rejects_malformed_input() {
    let header = "rtlproof 1\nvars 4\ngoal g\ngaps 0\n";
    for (bad, why) in [
        ("vars 4\ngoal g\ngaps 0\n", "missing magic"),
        ("rtlproof 4\nvars 4\ngoal g\ngaps 0\n", "bad version"),
        (
            "rtlproof 2\nvars 4\ngoal g\ngaps 0\nassume b1\nf\n",
            "assume header on version 2",
        ),
        (
            "rtlproof 3\nvars 4\ngoal g\ngaps 0\nassume\nf\n",
            "empty assume header",
        ),
        (
            "rtlproof 3\nvars 4\ngoal g\ngaps 0\nassume q9\nf\n",
            "bad assume literal",
        ),
        (
            &format!("{header}x b1\n") as &str,
            "unknown step kind",
        ),
        (&format!("{header}l\n") as &str, "lemma without literals"),
        (&format!("{header}l q7\n") as &str, "bad literal"),
        (&format!("{header}l w7:9..3\n") as &str, "empty interval"),
        (&format!("{header}l b1 ; s w3\n") as &str, "bad split"),
        (&format!("{header}l b1 ; z 0\n") as &str, "unknown section"),
        (&format!("{header}f b1\n") as &str, "literal on final step"),
        (&format!("{header}l b1 ; a x\n") as &str, "bad antecedent"),
        (&format!("{header}l b1 ; d x\n") as &str, "bad deletion"),
    ] {
        assert!(format::parse(bad).is_err(), "accepted {why}: {bad:?}");
    }
    // Comments and blank lines are fine.
    let ok = format!("# produced by test\n{header}\nl b1 # trailing\nf\n");
    assert!(format::parse(&ok).is_ok());
}

#[test]
fn empty_clause_first_line_needs_a_contradiction() {
    // On a satisfiable netlist the empty clause does not follow.
    let (n, x, _) = satisfiable();
    let mut checker = Checker::new(&n, x).unwrap();
    assert_eq!(
        checker.admit(&Step::default()),
        Err(CheckError::NotImplied { step: 0 })
    );

    // On a propagation-refutable netlist it admits immediately.
    let (n, goal) = trivially_unsat();
    let mut checker = Checker::new(&n, goal).unwrap();
    assert!(checker.derived_empty());
    assert_eq!(checker.admit(&Step::default()), Ok(()));

    // And the one-line proof checks end to end.
    let proof = Proof {
        var_count: checker.var_count(),
        goal: "goal".into(),
        assumptions: vec![],
        gaps: 0,
        steps: vec![Step::default()],
    };
    let (n2, goal2) = trivially_unsat();
    assert!(Checker::check_goal(&n2, goal2, &proof).is_ok());
}

#[test]
fn future_antecedent_rejected() {
    let (n, goal) = trivially_unsat();
    let mut checker = Checker::new(&n, goal).unwrap();
    // Step 0 citing step 0 (itself) — validation must fire even though
    // the base is already contradictory.
    let step = Step {
        lits: vec![],
        splits: vec![],
        ants: vec![0],
        dels: vec![],
    };
    assert_eq!(
        checker.admit(&step),
        Err(CheckError::FutureAntecedent { step: 0, cited: 0 })
    );
}

#[test]
fn tautological_lemma_admits() {
    let (n, x, y) = satisfiable();
    let mut checker = Checker::new(&n, x).unwrap();
    let y = y.index() as u32;
    let taut = Step {
        lits: vec![lit_b(y, true), lit_b(y, false)],
        splits: vec![],
        ants: vec![],
        dels: vec![],
    };
    assert_eq!(checker.admit(&taut), Ok(()));
    // A tautology adds no information: the netlist stays satisfiable,
    // so the empty clause still does not follow.
    assert_eq!(
        checker.admit(&Step::default()),
        Err(CheckError::NotImplied { step: 1 })
    );
}

#[test]
fn malformed_literals_rejected() {
    let (n, x, y) = satisfiable();
    let mut checker = Checker::new(&n, x).unwrap();
    let y = y.index() as u32;
    // Variable out of range.
    let r = checker.admit(&Step {
        lits: vec![lit_b(1000, true)],
        ..Step::default()
    });
    assert!(matches!(r, Err(CheckError::BadLit { step: 0, .. })), "{r:?}");
    // Word literal on a Boolean variable.
    let r = checker.admit(&Step {
        lits: vec![lit_w(y, 0, 1, true)],
        ..Step::default()
    });
    assert!(matches!(r, Err(CheckError::BadLit { step: 0, .. })), "{r:?}");
    // Word split on a Boolean variable.
    let r = checker.admit(&Step {
        lits: vec![lit_b(y, true)],
        splits: vec![PSplit::Word { var: y, at: 0 }],
        ..Step::default()
    });
    assert!(
        matches!(r, Err(CheckError::BadSplit { step: 0, .. })),
        "{r:?}"
    );
}

#[test]
fn header_mismatches_rejected() {
    let (n, goal) = trivially_unsat();
    let vars = Checker::new(&n, goal).unwrap().var_count();
    let proof = |var_count, gaps, steps| Proof {
        var_count,
        goal: "goal".into(),
        assumptions: vec![],
        gaps,
        steps,
    };
    assert_eq!(
        Checker::check_goal(&n, goal, &proof(vars + 1, 0, vec![Step::default()])),
        Err(CheckError::VarCount {
            proof: vars + 1,
            lowered: vars,
        })
    );
    assert_eq!(
        Checker::check_goal(&n, goal, &proof(vars, 2, vec![Step::default()])),
        Err(CheckError::Incomplete { gaps: 2 })
    );
    assert_eq!(
        Checker::check_goal(&n, goal, &proof(vars, 0, vec![])),
        Err(CheckError::Empty)
    );
    assert_eq!(
        Checker::check_goal(
            &n,
            goal,
            &proof(
                vars,
                0,
                vec![Step {
                    lits: vec![lit_b(0, true)],
                    ..Step::default()
                }]
            )
        ),
        Err(CheckError::MissingEmptyClause)
    );
}

#[test]
fn split_replay_closes_what_propagation_cannot() {
    let (n, goal, x_var) = needs_split();
    let mut checker = Checker::new(&n, goal).unwrap();
    assert!(!checker.derived_empty(), "ICP alone should not refute 2x=5");

    // Without splits the empty clause is not derivable...
    assert_eq!(
        checker.admit(&Step::default()),
        Err(CheckError::NotImplied { step: 0 })
    );
    // ...but one split of x separates the adder from the equality.
    let step = Step {
        lits: vec![],
        splits: vec![PSplit::Word { var: x_var, at: 2 }],
        ants: vec![],
        dels: vec![],
    };
    assert_eq!(checker.admit(&step), Ok(()));
    assert!(checker.derived_empty());
}

#[test]
fn find_splits_discovers_a_replayable_tree() {
    let (n, goal, _) = needs_split();
    let mut checker = Checker::new(&n, goal).unwrap();
    let splits = checker
        .find_splits(&[])
        .expect("finder should close the empty clause");
    assert!(!splits.is_empty());
    let step = Step {
        lits: vec![],
        splits,
        ants: vec![],
        dels: vec![],
    };
    assert_eq!(checker.admit(&step), Ok(()));
}

#[test]
fn deletion_of_future_or_clauseless_step_rejected() {
    let (n, x, y) = satisfiable();
    let mut checker = Checker::new(&n, x).unwrap();
    let y = y.index() as u32;
    let taut = |dels: Vec<u32>| Step {
        lits: vec![lit_b(y, true), lit_b(y, false)],
        splits: vec![],
        ants: vec![],
        dels,
    };
    // A step cannot retire itself or anything later.
    assert_eq!(
        checker.admit(&taut(vec![0])),
        Err(CheckError::BadDeletion { step: 0, cited: 0 })
    );
    // Nothing was admitted by the failed step; start over cleanly.
    assert_eq!(checker.admitted(), 0);
    assert_eq!(checker.admit(&taut(vec![])), Ok(()));
    // Retiring step 0 is fine — and doing it twice is idempotent.
    assert_eq!(checker.admit(&taut(vec![0])), Ok(()));
    assert_eq!(checker.admit(&taut(vec![0])), Ok(()));
    // The empty clause still does not follow on a satisfiable netlist:
    // deletion only ever *removes* deductive power.
    assert_eq!(
        checker.admit(&Step::default()),
        Err(CheckError::NotImplied { step: 3 })
    );
}

#[test]
fn proof_with_deletions_round_trips_and_certifies() {
    // Produce a proof whose final step retires an earlier lemma, push
    // it through the text format, and re-check from scratch — the whole
    // deletion-aware pipeline in one pass.
    let (n, goal) = trivially_unsat();
    let vars = Checker::new(&n, goal).unwrap().var_count();
    let proof = Proof {
        var_count: vars,
        goal: "goal".into(),
        assumptions: vec![],
        gaps: 0,
        steps: vec![
            Step {
                lits: vec![lit_b(0, true)],
                splits: vec![],
                ants: vec![],
                dels: vec![],
            },
            Step {
                lits: vec![],
                splits: vec![],
                ants: vec![],
                dels: vec![0],
            },
        ],
    };
    let text = format::print(&proof);
    assert!(text.contains("; d 0"), "{text}");
    let back = format::parse(&text).unwrap();
    assert_eq!(back, proof);
    assert!(Checker::check_goal(&n, goal, &back).is_ok());
}

#[test]
fn assumption_proof_round_trips_as_v3() {
    let proof = Proof {
        var_count: 9,
        goal: "-".into(),
        assumptions: vec![lit_b(2, true), lit_w(5, 0, 3, true)],
        gaps: 0,
        steps: vec![Step {
            lits: vec![lit_b(2, false), lit_w(5, 0, 3, false)],
            ..Step::default()
        }],
    };
    let text = format::print(&proof);
    assert!(text.starts_with("rtlproof 3\n"), "{text}");
    assert!(text.contains("assume b2 w5:0..3"), "{text}");
    let back = format::parse(&text).expect("v3 round-trip");
    assert_eq!(back, proof);
    // Goal proofs still print byte-compatible version 2.
    let classic = Proof {
        assumptions: vec![],
        goal: "g".into(),
        steps: vec![Step::default()],
        ..proof
    };
    assert!(format::print(&classic).starts_with("rtlproof 2\n"));
}

#[test]
fn assumption_check_accepts_and_rejects() {
    // x free Boolean, nx = ¬x: assuming x=1 and nx=1 is jointly
    // infeasible, each alone is fine.
    let mut n = Netlist::new("assume");
    let x = n.input_bool("x").unwrap();
    let nx = n.not(x).unwrap();
    let (xv, nxv) = (x.index() as u32, nx.index() as u32);
    let assumptions = vec![lit_b(xv, true), lit_b(nxv, true)];
    let vars = Checker::new_free(&n).var_count();
    let final_step = Step {
        lits: vec![lit_b(xv, false), lit_b(nxv, false)],
        ..Step::default()
    };
    let proof = Proof {
        var_count: vars,
        goal: "-".into(),
        assumptions: assumptions.clone(),
        gaps: 0,
        steps: vec![final_step.clone()],
    };
    Checker::check_assumptions(&n, &assumptions, &proof).expect("valid assumption proof");
    // The generic entry point dispatches on the header.
    Checker::check(&n, &proof).expect("check() dispatches to assumptions");

    // A final clause over a non-assumption literal must be rejected
    // even if it would admit (here: the tautology-ish unit ¬x∨¬nx is
    // fine, but citing only ¬x claims unsat under {x} alone — false).
    let under_strength = Proof {
        assumptions: vec![lit_b(xv, true)],
        steps: vec![Step {
            lits: vec![lit_b(xv, false), lit_b(nxv, false)],
            ..Step::default()
        }],
        ..proof.clone()
    };
    assert_eq!(
        Checker::check_assumptions(&n, &[lit_b(xv, true)], &under_strength),
        Err(CheckError::FinalClauseNotAssumptions { step: 0 })
    );

    // Unsat under a single satisfiable assumption does not follow.
    let bogus = Proof {
        assumptions: vec![lit_b(xv, true)],
        steps: vec![Step {
            lits: vec![lit_b(xv, false)],
            ..Step::default()
        }],
        ..proof.clone()
    };
    assert_eq!(
        Checker::check_assumptions(&n, &[lit_b(xv, true)], &bogus),
        Err(CheckError::NotImplied { step: 0 })
    );

    // Malformed assumption literals are rejected up front.
    assert!(matches!(
        Checker::check_assumptions(&n, &[lit_b(1000, true)], &proof),
        Err(CheckError::BadAssumption { .. })
    ));
}

#[test]
fn goal_free_checker_extends_incrementally() {
    // Segment 1: free Boolean x. Segment 2: nx = ¬x, c = x ∧ nx.
    // After extension the contradiction c=1 → unsat is derivable, and
    // the mirror layout (segment signals then segment auxes) matches
    // what a fresh lowering of the same netlist yields here (no auxes).
    let mut n = Netlist::new("grow");
    let x = n.input_bool("x").unwrap();
    let mut checker = Checker::new_free(&n);
    assert_eq!(checker.var_count(), 1);

    let nx = n.not(x).unwrap();
    let c = n.and(&[x, nx]).unwrap();
    checker.extend(&n);
    assert_eq!(checker.var_count(), 3);
    assert!(!checker.derived_empty());

    // Assuming c=1 is infeasible: the unit clause ¬c admits.
    let cv = c.index() as u32;
    checker
        .admit(&Step {
            lits: vec![lit_b(cv, false)],
            ..Step::default()
        })
        .expect("¬c follows from the extended netlist");

    // Extension with word logic allocates auxiliaries after the
    // segment's signals; a fresh single-segment lowering of the same
    // netlist must agree on the total count.
    let a = n.input_word("a", 4).unwrap();
    let b = n.input_word("b", 4).unwrap();
    let _sum = n.add(a, b).unwrap(); // carries a quotient aux
    checker.extend(&n);
    assert_eq!(checker.var_count(), Checker::new_free(&n).var_count());
}

#[test]
fn goal_resolution_falls_back_to_outputs() {
    let (mut n, goal) = trivially_unsat();
    // `goal` has no signal name of its own in this variant: strip by
    // rebuilding via an anonymous and-node named only as an output.
    let x = n.find("x").unwrap();
    let nx = n.not(x).unwrap();
    let anon = n.and(&[x, nx]).unwrap();
    n.set_output(anon, "bad").unwrap();
    assert_eq!(crate::resolve_goal(&n, "bad"), Some(anon));
    assert_eq!(crate::goal_name(&n, anon), "bad");
    let _ = goal;
}

/// Free Boolean inputs `a`, `b` with `c = a ∧ b` (constraint 0) and
/// `d = ¬c` (constraint 1), no goal. Returns the variables of `a`, `b`
/// and `c`.
fn and_not() -> (Netlist, [u32; 3]) {
    let mut n = Netlist::new("and_not");
    let a = n.input_bool("a").unwrap();
    let b = n.input_bool("b").unwrap();
    let c = n.and(&[a, b]).unwrap();
    n.not(c).unwrap();
    let var = |s: SignalId| s.index() as u32;
    (n, [var(a), var(b), var(c)])
}

/// Hint vectors a certifier must treat as advice only: none, empty,
/// every constraint, duplicates, out-of-range ids.
fn hint_variants() -> Vec<Option<Vec<u32>>> {
    vec![
        None,
        Some(vec![]),
        Some((0..64).collect()),
        Some(vec![1, 0, 1, 0, 0]),
        Some(vec![7, u32::MAX, 2, 1_000_000]),
    ]
}

#[test]
fn hints_never_admit_a_lemma_that_does_not_follow() {
    // `¬a ∨ c` fails at a = 1, b = 0, c = 0, whatever the hints say.
    let (n, [a, _, c]) = and_not();
    for hints in hint_variants() {
        let mut checker = Checker::new_free(&n);
        let mut step = Step {
            lits: vec![lit_b(a, false), lit_b(c, true)],
            ..Step::default()
        };
        assert_eq!(
            checker.certify(&mut step, hints.as_deref()),
            Err(CheckError::NotImplied { step: 0 }),
            "hints {hints:?}"
        );
        assert_eq!(checker.admitted(), 0, "hints {hints:?}");
        let misses = u32::from(hints.is_some());
        assert_eq!(checker.report().hint_misses, misses, "hints {hints:?}");
    }
    // A lemma that only a wrong split tree "proves" is rejected too.
    let (n, _, x_var) = needs_split();
    for hints in hint_variants() {
        let mut checker = Checker::new_free(&n);
        let mut step = Step {
            lits: vec![],
            splits: vec![PSplit::Word { var: x_var, at: 2 }],
            ..Step::default()
        };
        assert!(
            checker.certify(&mut step, hints.as_deref()).is_err(),
            "the empty clause over a satisfiable goal-free netlist, hints {hints:?}"
        );
    }
}

#[test]
fn wrong_hints_fall_back_to_the_unhinted_admission() {
    // `¬a ∨ ¬b ∨ c` is one step of the AND contractor (constraint 0).
    let (n, [a, b, c]) = and_not();
    let lemma = || Step {
        lits: vec![lit_b(a, false), lit_b(b, false), lit_b(c, true)],
        ..Step::default()
    };
    for (hints, misses) in [(vec![0], 0), (vec![1], 1), (vec![], 1), (vec![9], 1)] {
        let mut checker = Checker::new_free(&n);
        let mut step = lemma();
        assert_eq!(
            checker.certify(&mut step, Some(&hints)),
            Ok(()),
            "{hints:?}"
        );
        assert_eq!(step, lemma(), "{hints:?}: the text is unchanged");
        assert_eq!(checker.report().hint_misses, misses, "{hints:?}");
    }

    // The empty clause of `2x = 5` needs a split: no hint closes it,
    // and the fallback writes back the splits it finds without hints.
    let (n, goal, _) = needs_split();
    let mut unhinted = Step::default();
    let mut checker = Checker::new(&n, goal).unwrap();
    assert_eq!(checker.certify(&mut unhinted, None), Ok(()));
    assert!(!unhinted.splits.is_empty());
    for hints in hint_variants().into_iter().flatten() {
        let mut checker = Checker::new(&n, goal).unwrap();
        let mut step = Step::default();
        assert_eq!(
            checker.certify(&mut step, Some(&hints)),
            Ok(()),
            "{hints:?}"
        );
        assert_eq!(step, unhinted, "{hints:?}: same written-back splits");
        assert_eq!(checker.report().hint_misses, 1, "{hints:?}");
    }
}

#[test]
fn checker_counts_its_contractor_steps() {
    let (n, [a, b, c]) = and_not();
    let mut checker = Checker::new_free(&n);
    let built = checker.report().cons_steps;
    assert_eq!(built, 2, "the base fixpoint steps each contractor once");
    let mut step = Step {
        lits: vec![lit_b(a, false), lit_b(b, false), lit_b(c, true)],
        ..Step::default()
    };
    checker.certify(&mut step, Some(&[0])).unwrap();
    // The hinted refutation steps the AND contractor alone, and the
    // installed clause `¬a ∨ ¬b ∨ c` narrows nothing in the base.
    assert_eq!(checker.report().cons_steps, built + 1);
}

/// `x ≠ y ∧ x ≤ y ∧ y ≤ x` over `width`-bit words, the disequality
/// written as `op` (`≠`, or `=` under a negation): Fourier–Motzkin
/// refutes it by splitting the disequality; interval propagation alone
/// cannot. Constraint 0 is the disequality's comparison, constraint 1
/// is `x ≤ y`.
fn diseq_box(width: u32, op: CmpOp) -> (Netlist, SignalId) {
    let mut n = Netlist::new("diseq");
    let x = n.input_word("x", width).unwrap();
    let y = n.input_word("y", width).unwrap();
    let cmp = n.cmp(op, x, y).unwrap();
    let le1 = n.cmp(CmpOp::Le, x, y).unwrap();
    let le2 = n.cmp(CmpOp::Le, y, x).unwrap();
    let ne = match op {
        CmpOp::Ne => cmp,
        _ => n.not(cmp).unwrap(),
    };
    let goal = n.and(&[ne, le1, le2]).unwrap();
    (n, goal)
}

/// The empty clause, closed by splitting constraint `cons`.
fn diseq_step(cons: u32) -> Step {
    Step {
        splits: vec![PSplit::Diseq { cons }],
        ..Step::default()
    }
}

#[test]
fn diseq_split_closes_what_propagation_cannot() {
    for op in [CmpOp::Ne, CmpOp::Eq] {
        let (n, goal) = diseq_box(4, op);
        let mut checker = Checker::new(&n, goal).unwrap();
        assert_eq!(
            checker.admit(&Step::default()),
            Err(CheckError::NotImplied { step: 0 }),
            "{op:?}: ICP alone does not refute x ≠ y ∧ x = y"
        );
        assert_eq!(checker.admit(&diseq_step(0)), Ok(()), "{op:?}");
        assert!(checker.derived_empty());
    }
    // Under hints naming the two orders alone, the recorded split
    // replays without a miss and the text stays as recorded.
    let (n, goal) = diseq_box(4, CmpOp::Ne);
    let mut checker = Checker::new(&n, goal).unwrap();
    let mut step = diseq_step(0);
    assert_eq!(checker.certify(&mut step, Some(&[1, 2])), Ok(()));
    assert_eq!(step, diseq_step(0));
    assert_eq!(checker.report().hint_misses, 0);
    // It round-trips through the text as `n0`.
    let proof = Proof {
        var_count: checker.var_count(),
        goal: "g".into(),
        assumptions: vec![],
        gaps: 0,
        steps: vec![diseq_step(0)],
    };
    let text = format::print(&proof);
    assert!(text.starts_with("rtlproof 2\n"), "{text}");
    assert!(text.ends_with("f ; s n0\n"), "{text}");
    assert_eq!(format::parse(&text).unwrap(), proof);
    assert!(format::parse(&text.replace("n0", "n")).is_err());
}

#[test]
fn diseq_split_out_of_range_is_a_bad_split() {
    let (n, goal) = diseq_box(4, CmpOp::Ne);
    let mut checker = Checker::new(&n, goal).unwrap();
    let err = checker.admit(&diseq_step(99)).unwrap_err();
    assert!(matches!(err, CheckError::BadSplit { step: 0, .. }), "{err:?}");
}

#[test]
fn diseq_split_needs_an_asserted_disequality() {
    // Constraint 1 is `x ≤ y`, no disequality; constraint 3 is the AND.
    let (n, goal) = diseq_box(4, CmpOp::Ne);
    let mut checker = Checker::new(&n, goal).unwrap();
    for cons in [1, 3] {
        assert_eq!(
            checker.admit(&diseq_step(cons)),
            Err(CheckError::NotImplied { step: 0 }),
            "constraint {cons}"
        );
    }
    // Over the goal-free base `x ≠ y` is undecided: the lemma `¬goal`
    // asserts it under its negation, so the split replays there, but
    // the empty clause leaves it undecided and the split fails closed
    // rather than assume it.
    let mut free = Checker::new_free(&n);
    assert_eq!(
        free.admit(&Step {
            lits: vec![lit_b(goal.index() as u32, false)],
            splits: vec![PSplit::Diseq { cons: 0 }],
            ..Step::default()
        }),
        Ok(()),
        "the negation of ¬goal asserts the disequality"
    );
    let mut free = Checker::new_free(&n);
    assert_eq!(
        free.admit(&diseq_step(0)),
        Err(CheckError::NotImplied { step: 0 }),
        "the undecided disequality is not split"
    );
}

#[test]
fn diseq_split_over_wide_words_stops_on_the_budget() {
    // Each order round narrows x and y by one: about 2^39 rounds per
    // side at 40 bits, so the replay budget must stop it.
    let (n, goal) = diseq_box(40, CmpOp::Ne);
    let mut checker = Checker::new(&n, goal).unwrap();
    let start = std::time::Instant::now();
    assert_eq!(
        checker.admit(&diseq_step(0)),
        Err(CheckError::Budget { step: 0 })
    );
    assert!(
        start.elapsed() < std::time::Duration::from_secs(30),
        "bounded: {:?}",
        start.elapsed()
    );
}
