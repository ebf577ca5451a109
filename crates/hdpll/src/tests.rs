//! Crate-level solver tests: crafted circuits for each configuration, BMC
//! problems, and randomized cross-checks against the bit-blasting solver.

use std::collections::HashMap;

use proptest::prelude::*;

use crate::{HdpllResult, LearnConfig, LearningMode, Limits, Solver, SolverConfig};
use rtl_ir::seq::SeqCircuit;
use rtl_ir::{eval, CmpOp, Netlist, SignalId};

fn all_configs() -> Vec<(&'static str, SolverConfig)> {
    vec![
        ("hdpll", SolverConfig::hdpll()),
        ("hdpll+S", SolverConfig::structural()),
        (
            "hdpll+S+P",
            SolverConfig::structural_with_learning(LearnConfig::default()),
        ),
        (
            "hdpll(bool-learn)",
            SolverConfig {
                learning: LearningMode::BoolOnly,
                ..SolverConfig::hdpll()
            },
        ),
    ]
}

/// The learning-free chronological configuration (the ICS-like baseline
/// architecture); exponential, so only exercised on small instances.
fn no_learning_config() -> SolverConfig {
    SolverConfig {
        learning: LearningMode::None,
        ..SolverConfig::hdpll()
    }
}

#[test]
fn no_learning_mode_agrees_on_small_instances() {
    // SAT case
    let mut n = Netlist::new("t");
    let a = n.input_word("a", 4).unwrap();
    let b = n.input_word("b", 4).unwrap();
    let s = n.input_bool("s").unwrap();
    let m = n.ite(s, a, b).unwrap();
    let sum = n.add(m, a).unwrap();
    let g = n.eq_const(sum, 9).unwrap();
    let mut solver = Solver::new(&n, no_learning_config());
    match solver.solve(g) {
        HdpllResult::Sat(model) => {
            assert!(eval::check_model(&n, &model, g).unwrap());
        }
        other => panic!("expected SAT, got {other:?}"),
    }
    // UNSAT case: route 5 through muxes but demand 6 (from the chain test)
    let mut n = Netlist::new("chain");
    let five = n.const_word(5, 4).unwrap();
    let zero = n.const_word(0, 4).unwrap();
    let mut cur = five;
    for i in 0..4 {
        let s = n.input_bool(&format!("s{i}")).unwrap();
        cur = n.ite(s, cur, zero).unwrap();
    }
    let goal6 = n.eq_const(cur, 6).unwrap();
    let mut solver = Solver::new(&n, no_learning_config());
    assert!(solver.solve(goal6).is_unsat());
}

/// Solves with every configuration and checks they agree; on SAT validates
/// the model with the simulator. Returns the common verdict (true = SAT).
fn solve_all_validated(n: &Netlist, goal: SignalId) -> bool {
    let mut verdicts = Vec::new();
    for (name, config) in all_configs() {
        let mut solver = Solver::new(n, config);
        match solver.solve(goal) {
            HdpllResult::Sat(model) => {
                assert!(
                    eval::check_model(n, &model, goal).unwrap(),
                    "{name}: model rejected by simulator"
                );
                verdicts.push((name, true));
            }
            HdpllResult::Unsat => verdicts.push((name, false)),
            HdpllResult::Unknown => panic!("{name}: no budget set but got Unknown"),
        }
    }
    let first = verdicts[0].1;
    for (name, v) in &verdicts {
        assert_eq!(*v, first, "{name} disagrees: {verdicts:?}");
    }
    first
}

// ---------------------------------------------------------------------------
// Crafted circuits
// ---------------------------------------------------------------------------

#[test]
fn doc_example() {
    let mut n = Netlist::new("probe");
    let x = n.input_word("x", 5).unwrap();
    let tripled = n.mul_const(x, 3).unwrap();
    let target = n.eq_const(tripled, 21).unwrap();
    let low = n.extract(x, 0, 0).unwrap();
    let odd = n.eq_const(low, 1).unwrap();
    let goal = n.and(&[target, odd]).unwrap();
    for (name, config) in all_configs() {
        let mut solver = Solver::new(&n, config);
        match solver.solve(goal) {
            HdpllResult::Sat(model) => assert_eq!(model[&x], 7, "{name}"),
            other => panic!("{name}: expected SAT, got {other:?}"),
        }
    }
}

#[test]
fn trivially_unsat_proposition() {
    let mut n = Netlist::new("t");
    let x = n.input_word("x", 4).unwrap();
    let c14 = n.const_word(14, 4).unwrap();
    let gt = n.cmp(CmpOp::Gt, x, c14).unwrap(); // only x = 15
    let lt = n.eq_const(x, 3).unwrap();
    let goal = n.and(&[gt, lt]).unwrap();
    assert!(!solve_all_validated(&n, goal));
}

#[test]
fn constant_false_goal() {
    let mut n = Netlist::new("t");
    let f = n.const_bool(false);
    let t = n.const_bool(true);
    let goal = n.and(&[f, t]).unwrap();
    assert!(!solve_all_validated(&n, goal));
}

#[test]
fn mux_chain_requires_selects() {
    // A chain of muxes must route constant 5 to the output.
    let mut n = Netlist::new("chain");
    let five = n.const_word(5, 4).unwrap();
    let zero = n.const_word(0, 4).unwrap();
    let mut cur = five;
    for i in 0..6 {
        let s = n.input_bool(&format!("s{i}")).unwrap();
        // true routes `cur`, false routes 0
        cur = n.ite(s, cur, zero).unwrap();
    }
    let goal = n.eq_const(cur, 5).unwrap();
    assert!(solve_all_validated(&n, goal));
    // Whereas routing to 6 is impossible.
    let goal6 = n.eq_const(cur, 6).unwrap();
    assert!(!solve_all_validated(&n, goal6));
}

#[test]
fn adder_comparator_interplay() {
    // a + b = 30, a < 10, b < 25, exact adder (wider output)
    let mut n = Netlist::new("t");
    let a = n.input_word("a", 5).unwrap();
    let b = n.input_word("b", 5).unwrap();
    let sum = n.add_into(a, b, 6).unwrap();
    let e = n.eq_const(sum, 30).unwrap();
    let c10 = n.const_word(10, 5).unwrap();
    let c25 = n.const_word(25, 5).unwrap();
    let la = n.cmp(CmpOp::Lt, a, c10).unwrap();
    let lb = n.cmp(CmpOp::Lt, b, c25).unwrap();
    let goal = n.and(&[e, la, lb]).unwrap();
    assert!(solve_all_validated(&n, goal));

    // tighten: a < 5 and b < 25 ⇒ max sum 4 + 24 = 28 < 30: UNSAT
    let c5 = n.const_word(5, 5).unwrap();
    let la5 = n.cmp(CmpOp::Lt, a, c5).unwrap();
    let goal2 = n.and(&[e, la5, lb]).unwrap();
    assert!(!solve_all_validated(&n, goal2));
}

#[test]
fn wrapping_arithmetic() {
    // In 4 bits: x + 9 = 2 ⇒ x = 9 (wraps).
    let mut n = Netlist::new("t");
    let x = n.input_word("x", 4).unwrap();
    let nine = n.const_word(9, 4).unwrap();
    let sum = n.add(x, nine).unwrap();
    let goal = n.eq_const(sum, 2).unwrap();
    for (name, config) in all_configs() {
        let mut solver = Solver::new(&n, config);
        match solver.solve(goal) {
            HdpllResult::Sat(model) => assert_eq!(model[&x], 9, "{name}"),
            other => panic!("{name}: expected SAT, got {other:?}"),
        }
    }
}

#[test]
fn disequality_needs_case_split() {
    // x ≠ 5 ∧ x ≥ 5 ∧ x ≤ 6 ⇒ x = 6
    let mut n = Netlist::new("t");
    let x = n.input_word("x", 4).unwrap();
    let c5 = n.const_word(5, 4).unwrap();
    let c6 = n.const_word(6, 4).unwrap();
    let ne = n.cmp(CmpOp::Ne, x, c5).unwrap();
    let ge = n.cmp(CmpOp::Ge, x, c5).unwrap();
    let le = n.cmp(CmpOp::Le, x, c6).unwrap();
    let goal = n.and(&[ne, ge, le]).unwrap();
    for (name, config) in all_configs() {
        let mut solver = Solver::new(&n, config);
        match solver.solve(goal) {
            HdpllResult::Sat(model) => assert_eq!(model[&x], 6, "{name}"),
            other => panic!("{name}: expected SAT, got {other:?}"),
        }
    }
}

#[test]
fn min_max_operators() {
    // min(a,b) = 3 ∧ max(a,b) = 9 has solutions {3,9}.
    let mut n = Netlist::new("t");
    let a = n.input_word("a", 4).unwrap();
    let b = n.input_word("b", 4).unwrap();
    let mn = n.min(a, b).unwrap();
    let mx = n.max(a, b).unwrap();
    let e1 = n.eq_const(mn, 3).unwrap();
    let e2 = n.eq_const(mx, 9).unwrap();
    let goal = n.and(&[e1, e2]).unwrap();
    assert!(solve_all_validated(&n, goal));
    // min > max impossible
    let g1 = n.cmp(CmpOp::Gt, mn, mx).unwrap();
    assert!(!solve_all_validated(&n, g1));
}

#[test]
fn concat_extract_roundtrip_constraint() {
    // {hi, lo} = 0xA5 and hi = lo ⇒ UNSAT (0xA ≠ 0x5); hi = lo + 5 ⇒ SAT.
    let mut n = Netlist::new("t");
    let hi = n.input_word("hi", 4).unwrap();
    let lo = n.input_word("lo", 4).unwrap();
    let cc = n.concat(hi, lo).unwrap();
    let target = n.eq_const(cc, 0xA5).unwrap();
    let same = n.cmp(CmpOp::Eq, hi, lo).unwrap();
    let goal_bad = n.and(&[target, same]).unwrap();
    assert!(!solve_all_validated(&n, goal_bad));
    let five = n.const_word(5, 4).unwrap();
    let lo5 = n.add(lo, five).unwrap();
    let rel = n.cmp(CmpOp::Eq, hi, lo5).unwrap();
    let goal_ok = n.and(&[target, rel]).unwrap();
    assert!(solve_all_validated(&n, goal_ok));
}

#[test]
fn sign_extension_constraint() {
    // sext(x, 8) = 0xF6 needs x = −10, below the 4-bit two's-complement
    // minimum of −8: UNSAT. 0xF8 = −8 works with x = 0b1000.
    let mut n = Netlist::new("t");
    let x = n.input_word("x", 4).unwrap();
    let s = n.sext(x, 8).unwrap();
    let bad = n.eq_const(s, 0xF6).unwrap();
    assert!(!solve_all_validated(&n, bad));
    let ok = n.eq_const(s, 0xF8).unwrap();
    for (name, config) in all_configs() {
        let mut solver = Solver::new(&n, config);
        match solver.solve(ok) {
            HdpllResult::Sat(model) => assert_eq!(model[&x], 0b1000, "{name}"),
            other => panic!("{name}: expected SAT, got {other:?}"),
        }
    }
}

#[test]
fn limits_produce_unknown() {
    // A nontrivial instance with an absurd budget.
    let mut n = Netlist::new("t");
    let a = n.input_word("a", 16).unwrap();
    let b = n.input_word("b", 16).unwrap();
    let s = n.add(a, b).unwrap();
    let g = n.eq_const(s, 777).unwrap();
    let cfg = SolverConfig::hdpll().with_limits(Limits {
        max_propagations: Some(1),
        ..Limits::default()
    });
    let mut solver = Solver::new(&n, cfg);
    assert_eq!(solver.solve(g), HdpllResult::Unknown);
}

#[test]
fn stats_populated() {
    let mut n = Netlist::new("t");
    let a = n.input_bool("a").unwrap();
    let b = n.input_bool("b").unwrap();
    let x = n.xor(a, b).unwrap();
    let mut solver = Solver::new(&n, SolverConfig::hdpll());
    assert!(solver.solve(x).is_sat());
    assert!(solver.stats().engine.decisions >= 1);
    assert!(solver.stats().engine.propagations >= 1);
}

#[test]
fn learn_report_present_only_with_learning() {
    let mut n = Netlist::new("t");
    let a = n.input_word("a", 4).unwrap();
    let b = n.input_word("b", 4).unwrap();
    let s0 = n.input_bool("s0").unwrap();
    let m = n.ite(s0, a, b).unwrap();
    let g = n.eq_const(m, 3).unwrap();
    let mut plain = Solver::new(&n, SolverConfig::hdpll());
    assert!(plain.solve(g).is_sat());
    assert!(plain.learn_report().is_none());
    let mut learning =
        Solver::new(&n, SolverConfig::structural_with_learning(LearnConfig::default()));
    assert!(learning.solve(g).is_sat());
    assert!(learning.learn_report().is_some());
}

// ---------------------------------------------------------------------------
// Predicate learning specifics
// ---------------------------------------------------------------------------

/// Two muxes controlled by logically-equal but structurally-different
/// selects: the prototypical correlation predicate learning extracts
/// (cf. the paper's Figure 2).
#[test]
fn predicate_learning_extracts_relations() {
    let mut n = Netlist::new("corr");
    let a = n.input_word("a", 4).unwrap();
    let b = n.input_word("b", 4).unwrap();
    let c = n.input_bool("c").unwrap();
    let d = n.input_bool("d").unwrap();
    // b5 = c ∨ d, b6 = d ∨ c: structurally different, logically equal.
    let b5 = n.or(&[c, d]).unwrap();
    let b6 = n.or(&[d, c]).unwrap();
    let m1 = n.ite(b5, a, b).unwrap();
    let m2 = n.ite(b6, b, a).unwrap();
    let ne = n.cmp(CmpOp::Ne, m1, m2).unwrap();
    let eq_ab = n.cmp(CmpOp::Eq, a, b).unwrap();
    // goal: mux outputs differ while data inputs are equal — impossible.
    let goal = n.and(&[ne, eq_ab]).unwrap();
    let mut solver =
        Solver::new(&n, SolverConfig::structural_with_learning(LearnConfig::default()));
    assert!(solver.solve(goal).is_unsat());
    let report = solver.learn_report().unwrap();
    assert!(report.probes > 0, "learning must probe candidates");
}

#[test]
fn learning_threshold_respected() {
    let mut n = Netlist::new("wide");
    let a = n.input_word("a", 4).unwrap();
    let b = n.input_word("b", 4).unwrap();
    let mut m = a;
    for i in 0..10 {
        let p = n.input_bool(&format!("p{i}")).unwrap();
        let q = n.input_bool(&format!("q{i}")).unwrap();
        let s = n.or(&[p, q]).unwrap();
        m = n.ite(s, m, b).unwrap();
    }
    let goal = n.eq_const(m, 2).unwrap();
    let mut solver = Solver::new(
        &n,
        SolverConfig::structural_with_learning(LearnConfig::with_threshold(3)),
    );
    let _ = solver.solve(goal);
    let report = solver.learn_report().unwrap();
    assert!(
        report.relations <= 3,
        "threshold exceeded: {}",
        report.relations
    );
}

// ---------------------------------------------------------------------------
// BMC problems through the sequential unroller
// ---------------------------------------------------------------------------

fn counter_circuit(width: u32, bad_at: i64) -> SeqCircuit {
    let mut f = Netlist::new("cnt");
    let c = f.input_word("c", width).unwrap();
    let one = f.const_word(1, width).unwrap();
    let next = f.add(c, one).unwrap();
    let bad = f.eq_const(c, bad_at).unwrap();
    let mut ckt = SeqCircuit::new(f);
    ckt.add_register(c, next, 0).unwrap();
    ckt.add_property("p", bad).unwrap();
    ckt
}

#[test]
fn bmc_counter_exact_depth() {
    let ckt = counter_circuit(4, 5);
    // counter reaches 5 exactly in frame 5 (0-based): 6 frames SAT
    let sat = ckt.unroll("p", 6).unwrap();
    assert!(solve_all_validated(&sat.netlist, sat.bad));
    // 5 frames: counter only reaches 4: UNSAT
    let unsat = ckt.unroll("p", 5).unwrap();
    assert!(!solve_all_validated(&unsat.netlist, unsat.bad));
}

#[test]
fn bmc_guarded_counter() {
    // Counter increments only when enabled; reaching 3 within 4 frames
    // requires enable in every step.
    let mut f = Netlist::new("gcnt");
    let c = f.input_word("c", 3).unwrap();
    let en = f.input_bool("en").unwrap();
    let one = f.const_word(1, 3).unwrap();
    let inc = f.add(c, one).unwrap();
    let next = f.ite(en, inc, c).unwrap();
    let bad = f.eq_const(c, 3).unwrap();
    let mut ckt = SeqCircuit::new(f);
    ckt.add_register(c, next, 0).unwrap();
    ckt.add_property("p", bad).unwrap();

    let bmc = ckt.unroll("p", 4).unwrap();
    // SAT: en=1 in frames 0..2
    for (name, config) in all_configs() {
        let mut solver = Solver::new(&bmc.netlist, config);
        match solver.solve(bmc.bad) {
            HdpllResult::Sat(model) => {
                assert!(
                    eval::check_model(&bmc.netlist, &model, bmc.bad).unwrap(),
                    "{name}"
                );
            }
            other => panic!("{name}: expected SAT, got {other:?}"),
        }
    }
    // 3 frames: cannot reach 3: UNSAT
    let bmc3 = ckt.unroll("p", 3).unwrap();
    assert!(!solve_all_validated(&bmc3.netlist, bmc3.bad));
}

// ---------------------------------------------------------------------------
// Randomized cross-check against the bit-blasting solver
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
enum Step {
    Add(usize, usize),
    Sub(usize, usize),
    MulConst(usize, i64),
    Ite(usize, usize, usize),
    Cmp(CmpOp, usize, usize),
    Shr(usize, u32),
    Extract(usize, u32, u32),
    Not(usize),
    And(usize, usize),
    Or(usize, usize),
    Xor(usize, usize),
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (any::<usize>(), any::<usize>()).prop_map(|(a, b)| Step::Add(a, b)),
        (any::<usize>(), any::<usize>()).prop_map(|(a, b)| Step::Sub(a, b)),
        (any::<usize>(), 0i64..6).prop_map(|(a, k)| Step::MulConst(a, k)),
        (any::<usize>(), any::<usize>(), any::<usize>()).prop_map(|(s, a, b)| Step::Ite(s, a, b)),
        (
            prop_oneof![
                Just(CmpOp::Eq),
                Just(CmpOp::Ne),
                Just(CmpOp::Lt),
                Just(CmpOp::Le),
                Just(CmpOp::Gt),
                Just(CmpOp::Ge)
            ],
            any::<usize>(),
            any::<usize>()
        )
            .prop_map(|(op, a, b)| Step::Cmp(op, a, b)),
        (any::<usize>(), 0u32..3).prop_map(|(a, k)| Step::Shr(a, k)),
        (any::<usize>(), 0u32..4, 0u32..4).prop_map(|(a, h, l)| Step::Extract(a, h, l)),
        any::<usize>().prop_map(Step::Not),
        (any::<usize>(), any::<usize>()).prop_map(|(a, b)| Step::And(a, b)),
        (any::<usize>(), any::<usize>()).prop_map(|(a, b)| Step::Or(a, b)),
        (any::<usize>(), any::<usize>()).prop_map(|(a, b)| Step::Xor(a, b)),
    ]
}

fn build_random(steps: &[Step], goal_const: i64) -> (Netlist, SignalId) {
    let mut n = Netlist::new("random");
    let mut words = vec![
        n.input_word("w0", 4).unwrap(),
        n.input_word("w1", 4).unwrap(),
    ];
    let mut bools = vec![n.input_bool("b0").unwrap()];
    for step in steps {
        let w = |i: &usize| words[i % words.len()];
        let b = |i: &usize| bools[i % bools.len()];
        match step {
            Step::Add(a, c) => words.push(n.add(w(a), w(c)).unwrap()),
            Step::Sub(a, c) => words.push(n.sub(w(a), w(c)).unwrap()),
            Step::MulConst(a, k) => words.push(n.mul_const(w(a), *k).unwrap()),
            Step::Ite(s, a, c) => {
                let (wa, wc) = (w(a), w(c));
                if n.ty(wa).width() == n.ty(wc).width() {
                    words.push(n.ite(b(s), wa, wc).unwrap());
                }
            }
            Step::Cmp(op, a, c) => bools.push(n.cmp(*op, w(a), w(c)).unwrap()),
            Step::Shr(a, k) => words.push(n.shr(w(a), *k).unwrap()),
            Step::Extract(a, h, l) => {
                let src = w(a);
                let width = n.ty(src).width();
                let h = (*h).min(width - 1);
                let l = (*l).min(h);
                words.push(n.extract(src, h, l).unwrap());
            }
            Step::Not(a) => bools.push(n.not(b(a)).unwrap()),
            Step::And(a, c) => bools.push(n.and(&[b(a), b(c)]).unwrap()),
            Step::Or(a, c) => bools.push(n.or(&[b(a), b(c)]).unwrap()),
            Step::Xor(a, c) => bools.push(n.xor(b(a), b(c)).unwrap()),
        }
    }
    let last_w = *words.last().unwrap();
    let max = n.ty(last_w).max_value();
    let target = n.eq_const(last_w, goal_const.min(max)).unwrap();
    let last_b = *bools.last().unwrap();
    let goal = n.and(&[target, last_b]).unwrap();
    (n, goal)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every HDPLL configuration agrees with the bit-blasting solver on
    /// random circuits, and SAT models are accepted by the simulator.
    #[test]
    fn agrees_with_bitblasting(
        steps in proptest::collection::vec(step_strategy(), 1..25),
        goal_const in 0i64..16,
    ) {
        let (n, goal) = build_random(&steps, goal_const);
        let reference = rtl_bitblast::solve_netlist(&n, goal, rtl_sat::Limits::default());
        let expected_sat = match &reference {
            rtl_bitblast::BlastOutcome::Sat(_) => true,
            rtl_bitblast::BlastOutcome::Unsat => false,
            rtl_bitblast::BlastOutcome::Unknown => unreachable!("no budget"),
        };
        for (name, config) in all_configs() {
            let mut solver = Solver::new(&n, config);
            match solver.solve(goal) {
                HdpllResult::Sat(model) => {
                    prop_assert!(expected_sat, "{name} said SAT, bitblast UNSAT");
                    prop_assert!(
                        eval::check_model(&n, &model, goal).unwrap(),
                        "{name}: model rejected by simulator"
                    );
                }
                HdpllResult::Unsat => {
                    prop_assert!(!expected_sat, "{name} said UNSAT, bitblast SAT");
                }
                HdpllResult::Unknown => prop_assert!(false, "{name}: no budget set"),
            }
        }
    }

    /// BMC agreement on random guarded counters: HDPLL matches bit-blasting
    /// on unrolled sequential circuits.
    #[test]
    fn bmc_agrees_with_bitblasting(
        bad_at in 1i64..8,
        frames in 1usize..8,
        init in 0i64..4,
    ) {
        let mut f = Netlist::new("rcnt");
        let c = f.input_word("c", 3).unwrap();
        let en = f.input_bool("en").unwrap();
        let one = f.const_word(1, 3).unwrap();
        let inc = f.add(c, one).unwrap();
        let next = f.ite(en, inc, c).unwrap();
        let bad = f.eq_const(c, bad_at).unwrap();
        let mut ckt = SeqCircuit::new(f);
        ckt.add_register(c, next, init).unwrap();
        ckt.add_property("p", bad).unwrap();
        let bmc = ckt.unroll("p", frames).unwrap();

        let reference = rtl_bitblast::solve_netlist(&bmc.netlist, bmc.bad, rtl_sat::Limits::default());
        let expected_sat = matches!(reference, rtl_bitblast::BlastOutcome::Sat(_));
        for (name, config) in all_configs() {
            let mut solver = Solver::new(&bmc.netlist, config);
            let got = solver.solve(bmc.bad);
            match got {
                HdpllResult::Sat(model) => {
                    prop_assert!(expected_sat, "{name}");
                    prop_assert!(eval::check_model(&bmc.netlist, &model, bmc.bad).unwrap());
                }
                HdpllResult::Unsat => prop_assert!(!expected_sat, "{name}"),
                HdpllResult::Unknown => prop_assert!(false, "{name}"),
            }
        }
    }
}

// Validate the HashMap<SignalId, i64> model type is exported usefully.
#[test]
fn model_type_usable() {
    let mut n = Netlist::new("t");
    let x = n.input_word("x", 4).unwrap();
    let g = n.eq_const(x, 11).unwrap();
    let mut solver = Solver::new(&n, SolverConfig::hdpll());
    if let HdpllResult::Sat(model) = solver.solve(g) {
        let m: HashMap<SignalId, i64> = model;
        assert_eq!(m[&x], 11);
    } else {
        panic!("expected SAT");
    }
}

// ---------------------------------------------------------------------------
// Memory-layout invariants of the hot path
// ---------------------------------------------------------------------------

/// The learned relation set must not depend on the order in which a probe's
/// justification ways are enumerated: the sorted-merge intersection is
/// symmetric, so swapping the inputs of the probed `or` gates (which
/// reverses the way order) must yield the same clauses.
#[test]
fn predicate_learning_is_way_order_independent() {
    let build = |swap: bool| {
        let mut n = Netlist::new("corr");
        let a = n.input_word("a", 4).unwrap();
        let b = n.input_word("b", 4).unwrap();
        let c = n.input_bool("c").unwrap();
        let d = n.input_bool("d").unwrap();
        let b5 = if swap { n.or(&[d, c]) } else { n.or(&[c, d]) }.unwrap();
        let b6 = if swap { n.or(&[c, d]) } else { n.or(&[d, c]) }.unwrap();
        let m1 = n.ite(b5, a, b).unwrap();
        let m2 = n.ite(b6, b, a).unwrap();
        let ne = n.cmp(CmpOp::Ne, m1, m2).unwrap();
        let eq_ab = n.cmp(CmpOp::Eq, a, b).unwrap();
        let goal = n.and(&[ne, eq_ab]).unwrap();
        (n, goal)
    };
    let clauses_of = |swap: bool| {
        let (n, goal) = build(swap);
        let mut solver = Solver::new(
            &n,
            SolverConfig::structural_with_learning(LearnConfig::default()),
        );
        assert!(solver.solve(goal).is_unsat());
        solver.learn_report().unwrap().clauses.clone()
    };
    let forward = clauses_of(false);
    let swapped = clauses_of(true);
    assert!(!forward.is_empty(), "the probes must learn something");
    // Signal ids are identical in both builds (same creation order), so the
    // relations are directly comparable.
    let as_set = |cs: &[crate::Relation]| -> std::collections::HashSet<crate::Relation> {
        cs.iter().cloned().collect()
    };
    assert_eq!(as_set(&forward), as_set(&swapped));
}

/// Snapshot of the engine state that `backtrack()` promises to restore.
type EngineSnap = (
    Vec<crate::types::Dom>,
    Vec<Option<u32>>,
    Vec<u32>,
    usize,
);

fn snap_engine(e: &crate::engine::Engine) -> EngineSnap {
    (
        e.doms.clone(),
        e.latest.clone(),
        e.ant_pool.clone(),
        e.trail.len(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `backtrack()` must restore `doms`, `latest`, the antecedent pool,
    /// and the trail length to exactly the fixpoint state of the target
    /// level — the invariant behind truncating the span pool in lockstep
    /// with the trail.
    #[test]
    fn backtrack_restores_state_exactly(
        steps in proptest::collection::vec(step_strategy(), 1..20),
        script in proptest::collection::vec(
            (any::<u16>(), any::<bool>(), any::<u8>()),
            1..24,
        ),
    ) {
        let (n, _goal) = build_random(&steps, 0);
        let compiled = std::sync::Arc::new(crate::compile::compile(&n));
        let mut engine = crate::engine::Engine::new(compiled);
        engine.schedule_all();
        if matches!(engine.propagate(), crate::engine::Propagation::Conflict(_)) {
            return; // conflicting at the root: no levels to test
        }
        // snaps[l] = fixpoint state at decision level l.
        let mut snaps = vec![snap_engine(&engine)];
        for &(pick, value, bt_sel) in &script {
            let cands: Vec<_> = engine
                .compiled
                .decision_vars
                .iter()
                .copied()
                .filter(|&v| !engine.dom(v).is_fixed())
                .collect();
            if cands.is_empty() {
                break;
            }
            let var = cands[pick as usize % cands.len()];
            engine.decide(var, value);
            let conflict =
                matches!(engine.propagate(), crate::engine::Propagation::Conflict(_));
            // On conflict always retreat; otherwise retreat ~1/4 of the
            // time to exercise multi-level truncation mid-sequence.
            if conflict || bt_sel < 64 {
                let target = u32::from(bt_sel) % engine.level();
                engine.backtrack(target);
                snaps.truncate(target as usize + 1);
                prop_assert_eq!(&snap_engine(&engine), &snaps[target as usize]);
            } else {
                snaps.push(snap_engine(&engine));
            }
        }
        // Unwind the remaining levels one at a time, checking each.
        while engine.level() > 0 {
            let target = engine.level() - 1;
            engine.backtrack(target);
            prop_assert_eq!(&snap_engine(&engine), &snaps[target as usize]);
        }
    }
}

// ---------------------------------------------------------------------
// Proof logging
// ---------------------------------------------------------------------

/// Small UNSAT instances exercising different refutation machinery:
/// pure Boolean contradiction, mux routing, modular arithmetic, and a
/// parity argument that needs a case split even at level 0.
fn unsat_instances() -> Vec<(&'static str, Netlist, SignalId)> {
    let mut out = Vec::new();

    let mut n = Netlist::new("bool");
    let x = n.input_bool("x").unwrap();
    let nx = n.not(x).unwrap();
    let goal = n.and(&[x, nx]).unwrap();
    out.push(("bool", n, goal));

    let mut n = Netlist::new("mux");
    let five = n.const_word(5, 4).unwrap();
    let zero = n.const_word(0, 4).unwrap();
    let mut cur = five;
    for i in 0..4 {
        let s = n.input_bool(&format!("s{i}")).unwrap();
        cur = n.ite(s, cur, zero).unwrap();
    }
    let goal = n.eq_const(cur, 6).unwrap();
    out.push(("mux", n, goal));

    let mut n = Netlist::new("range");
    let x = n.input_word("x", 4).unwrap();
    let c14 = n.const_word(14, 4).unwrap();
    let gt = n.cmp(CmpOp::Gt, x, c14).unwrap();
    let lt = n.eq_const(x, 3).unwrap();
    let goal = n.and(&[gt, lt]).unwrap();
    out.push(("range", n, goal));

    // x + y = 5 with x = y: interval propagation alone cannot refute
    // 2x = 5, so even the *final* empty clause needs the split finder.
    let mut n = Netlist::new("parity");
    let x = n.input_word("x", 3).unwrap();
    let y = n.input_word("y", 3).unwrap();
    let s = n.add_into(x, y, 4).unwrap();
    let eq = n.eq_const(s, 5).unwrap();
    let xeqy = n.cmp(CmpOp::Eq, x, y).unwrap();
    let goal = n.and(&[eq, xeqy]).unwrap();
    out.push(("parity", n, goal));

    out
}

#[test]
fn unsat_verdicts_emit_checkable_proofs() {
    let mut configs = all_configs();
    configs.push(("no-learning", no_learning_config()));
    for (cname, config) in configs {
        for (iname, n, goal) in unsat_instances() {
            let mut solver = Solver::new(&n, config.with_proof(true));
            assert!(
                matches!(solver.solve(goal), HdpllResult::Unsat),
                "{cname}/{iname}: expected UNSAT"
            );
            let proof = solver
                .take_proof()
                .unwrap_or_else(|| panic!("{cname}/{iname}: no proof logged"));
            assert!(
                proof.is_complete(),
                "{cname}/{iname}: proof has {} gaps",
                proof.gaps
            );
            let report = rtl_proof::Checker::check_goal(&n, goal, &proof)
                .unwrap_or_else(|e| panic!("{cname}/{iname}: proof rejected: {e}"));
            assert_eq!(report.steps as usize, proof.len());
            // The textual round-trip preserves the proof exactly.
            let text = rtl_proof::format::print(&proof);
            assert_eq!(rtl_proof::format::parse(&text).unwrap(), proof);
        }
    }
}

#[test]
fn sat_and_disabled_logging_yield_no_proof() {
    let (_, n, goal) = unsat_instances().remove(0);
    // Proof logging off: no proof even on UNSAT.
    let mut solver = Solver::new(&n, SolverConfig::hdpll());
    assert!(matches!(solver.solve(goal), HdpllResult::Unsat));
    assert!(solver.take_proof().is_none());

    // SAT verdict: no proof even with logging on.
    let mut n = Netlist::new("sat");
    let x = n.input_bool("x").unwrap();
    let mut solver = Solver::new(&n, SolverConfig::hdpll().with_proof(true));
    assert!(solver.solve(x).is_sat());
    assert!(solver.take_proof().is_none());
}

#[test]
fn corrupted_solver_cannot_produce_a_complete_accepted_proof() {
    // Arm the clause-corruption fault: the first learned clause has its
    // first literal's polarity flipped. The logger records the clause
    // *as stored*, so the certifier refuses to admit it and the proof
    // comes out incomplete (or, if somehow complete, rejected).
    for (iname, n, goal) in unsat_instances() {
        let mut solver = Solver::new(&n, SolverConfig::hdpll().with_proof(true));
        solver.inject_faults(crate::FaultPlan {
            corrupt_learned_clause: Some(0),
            ..crate::FaultPlan::default()
        });
        let verdict = solver.solve(goal);
        if !matches!(verdict, HdpllResult::Unsat) {
            continue; // corruption may flip the verdict itself
        }
        if solver.stats().engine.learned == 0 {
            continue; // instance refuted before any clause was learned
        }
        let Some(proof) = solver.take_proof() else {
            continue;
        };
        assert!(
            !proof.is_complete() || rtl_proof::Checker::check_goal(&n, goal, &proof).is_err(),
            "{iname}: corrupted run produced a complete, accepted proof"
        );
    }
}

// ---------------------------------------------------------------------------
// Incremental sessions (crate-level smoke tests; the workspace-level
// differential suite lives in tests/incremental.rs)
// ---------------------------------------------------------------------------

use crate::session::{Assumption, Session, SessionCert};

/// One session answering many goal-as-assumption queries must agree
/// with a fresh solver per goal, under every configuration, and must
/// return to a quiescent trail after each query.
#[test]
fn session_queries_agree_with_fresh_solver() {
    let mut configs = all_configs();
    configs.push(("no-learning", no_learning_config()));
    for (cname, config) in configs {
        let config = config.with_proof(true);
        for (iname, n, goal) in unsat_instances() {
            let mut session = Session::new(&n, config);
            // Interleave contradictory and satisfiable queries: each
            // goal refuted, its negation satisfiable, twice over, so
            // the second round reuses clauses learned in the first.
            for round in 0..2 {
                let certified = session.solve(&[Assumption::yes(goal)]);
                assert!(
                    certified.result.is_unsat(),
                    "{cname}/{iname} round {round}: expected UNSAT"
                );
                assert_eq!(
                    certified.cert,
                    SessionCert::ProofChecked,
                    "{cname}/{iname} round {round}: unsat not proof-checked"
                );
                assert!(session.is_quiescent());

                let certified = session.solve(&[Assumption::no(goal)]);
                assert!(
                    certified.result.is_sat(),
                    "{cname}/{iname} round {round}: ¬goal should be SAT"
                );
                assert_eq!(certified.cert, SessionCert::ModelVerified);
                assert!(session.is_quiescent());
            }
            // Fresh per-goal solver agrees.
            let mut fresh = Solver::new(&n, config);
            assert!(fresh.solve(goal).is_unsat(), "{cname}/{iname}: fresh");
        }
    }
}

/// Assumption proofs survive the textual round-trip and re-check from a
/// parsed copy (what an external auditor would do).
#[test]
fn session_assumption_proofs_roundtrip() {
    let (_, n, goal) = unsat_instances().remove(3);
    let mut session = Session::new(&n, SolverConfig::hdpll().with_proof(true));
    let certified = session.solve(&[Assumption::yes(goal)]);
    assert!(certified.result.is_unsat());
    let proof = certified.proof.expect("proof logged");
    assert_eq!(certified.cert, SessionCert::ProofChecked);
    let text = rtl_proof::format::print(&proof);
    let parsed = rtl_proof::format::parse(&text).unwrap();
    assert_eq!(parsed, proof);
    rtl_proof::Checker::check(&n, &parsed).expect("parsed assumption proof accepted");
}

/// `extend` grows the problem in place: facts established before the
/// extension still hold, new signals are queryable, and proofs keep
/// certifying.
#[test]
fn session_extend_preserves_and_grows() {
    let mut n = Netlist::new("grow");
    let x = n.input_word("x", 5).unwrap();
    let tripled = n.mul_const(x, 3).unwrap();
    let g21 = n.eq_const(tripled, 21).unwrap();
    let mut session = Session::new(&n, SolverConfig::structural_with_learning(LearnConfig::default()).with_proof(true));

    let certified = session.solve(&[Assumption::yes(g21)]);
    assert!(certified.result.is_sat());
    assert_eq!(certified.cert, SessionCert::ModelVerified);

    // Grow: y = x + 1, and a goal that contradicts g21 (x = 7 → y = 8).
    let mut g_y9 = None;
    session.extend(|n| {
        let one = n.const_word(1, 5).unwrap();
        let y = n.add(x, one).unwrap();
        g_y9 = Some(n.eq_const(y, 9).unwrap());
    });
    let g_y9 = g_y9.unwrap();

    let sat = session.solve(&[Assumption::yes(g21), Assumption::no(g_y9)]);
    assert!(sat.result.is_sat());
    assert_eq!(sat.cert, SessionCert::ModelVerified);
    if let HdpllResult::Sat(model) = &sat.result {
        assert_eq!(model[&x], 7);
    }

    let unsat = session.solve(&[Assumption::yes(g21), Assumption::yes(g_y9)]);
    assert!(unsat.result.is_unsat(), "x=7 forces y=8, not 9");
    assert_eq!(unsat.cert, SessionCert::ProofChecked);

    // The pre-extension query still answers the same afterwards.
    let again = session.solve(&[Assumption::yes(g21)]);
    assert!(again.result.is_sat());
    assert!(session.is_quiescent());
    assert_eq!(session.queries(), 4);
}

/// An assumption set containing both polarities of one signal is
/// refuted by the replay itself (fixed-opposite detection), and the
/// resulting proof still certifies.
#[test]
fn session_contradictory_assumptions() {
    let mut n = Netlist::new("contra");
    let x = n.input_bool("x").unwrap();
    let y = n.input_bool("y").unwrap();
    let mut session = Session::new(&n, SolverConfig::hdpll().with_proof(true));
    let certified = session.solve(&[
        Assumption::yes(x),
        Assumption::yes(y),
        Assumption::no(x),
    ]);
    assert!(certified.result.is_unsat());
    assert_eq!(certified.cert, SessionCert::ProofChecked);
    // The session is not poisoned: a consistent query still works.
    assert!(!session.root_unsat());
    let sat = session.solve(&[Assumption::yes(x), Assumption::no(y)]);
    assert!(sat.result.is_sat());
    assert_eq!(sat.cert, SessionCert::ModelVerified);
}

/// A growing session driven by the incremental unroller answers every
/// BMC depth exactly like a fresh monolithic unroll, and Unsat depths
/// stay proof-certified as the problem grows underneath them.
#[test]
fn sessioned_bmc_matches_fresh_unroll() {
    let ckt = counter_circuit(4, 7); // reaches 7 exactly in frame 7
    let mut unroller = ckt.unroller();
    let base = {
        let mut n = unroller.base_netlist();
        unroller.push_frame(&mut n).unwrap();
        n
    };
    let mut session = Session::new(&base, SolverConfig::structural().with_proof(true));
    for depth in 0..10usize {
        if depth > 0 {
            session.extend(|n| unroller.push_frame(n).unwrap());
        }
        let bad = unroller.bad("p", depth).unwrap();
        let certified = session.solve(&[Assumption::yes(bad)]);
        let expect_sat = depth == 7;
        // Cross-check: fresh monolithic unroll of the same depth.
        let mono = ckt.unroll("p", depth + 1).unwrap();
        let mut fresh = Solver::new(&mono.netlist, SolverConfig::structural());
        assert_eq!(
            fresh.solve(mono.bad).is_sat(),
            expect_sat,
            "depth {depth}: fresh disagrees with expectation"
        );
        if expect_sat {
            assert!(certified.result.is_sat(), "depth {depth}");
            assert_eq!(certified.cert, SessionCert::ModelVerified, "depth {depth}");
        } else {
            assert!(certified.result.is_unsat(), "depth {depth}");
            assert_eq!(certified.cert, SessionCert::ProofChecked, "depth {depth}");
        }
        assert!(session.is_quiescent());
    }
}

/// The supervised ladder answers like a plain session on healthy rungs
/// and degrades to a fresh session when a rung's answers stop
/// certifying.
#[test]
fn supervised_session_answers_and_degrades() {
    let (_, n, goal) = unsat_instances().remove(1);
    let mut ladder = crate::SupervisedSession::new(&n);
    let q = ladder.solve(&[Assumption::yes(goal)]);
    assert!(q.certified.result.is_unsat());
    assert_eq!(q.certified.cert, SessionCert::ProofChecked);
    assert_eq!(q.answered_by.as_deref(), Some("hdpll-sp"));
    assert!(q.fallbacks.is_empty());
    assert_eq!(ladder.degradations(), 0);

    // A rung whose per-query budget is instantly exhausted degrades to
    // the next rung, which answers.
    let starved = (
        "starved".to_string(),
        SolverConfig::hdpll().with_limits(Limits {
            max_decisions: Some(0),
            max_conflicts: Some(0),
            ..Limits::default()
        }),
    );
    let healthy = ("hdpll".to_string(), SolverConfig::hdpll().with_proof(true));
    let mut ladder = crate::SupervisedSession::with_rungs(&n, vec![starved, healthy]);
    let q = ladder.solve(&[Assumption::yes(goal)]);
    assert!(q.certified.result.is_unsat());
    assert_eq!(q.answered_by.as_deref(), Some("hdpll"));
    assert_eq!(q.fallbacks.len(), 1);
    assert_eq!(q.fallbacks[0].rung, "starved");
    // Degradation is sticky: the next query starts on the healthy rung.
    assert_eq!(ladder.active_rung(), "hdpll");
    let q = ladder.solve(&[Assumption::no(goal)]);
    assert!(q.certified.result.is_sat());
    assert!(q.fallbacks.is_empty());
}

// ---------------------------------------------------------------------
// The query-start rule: a session query re-propagates every constraint
// only when level 0 may be short of its fixpoint
// ---------------------------------------------------------------------

/// The end-to-end benchmark's session configuration.
fn sp_proof() -> SolverConfig {
    SolverConfig::structural_with_learning(LearnConfig::default()).with_proof(true)
}

/// A b13 netlist unrolled to `frames` frames, with its unroller.
fn b13_frames(frames: usize) -> (rtl_ir::seq::Unroller, Netlist) {
    let mut unroller = rtl_itc99::b13().unroller();
    let mut n = unroller.base_netlist();
    for _ in 0..frames {
        unroller.push_frame(&mut n).unwrap();
    }
    (unroller, n)
}

/// What a query answered and how: verdict, certificate and proof text.
fn answer_text(c: &crate::Certified) -> (bool, SessionCert, Option<String>) {
    let text = c.proof.as_ref().map(rtl_proof::format::print);
    (c.result.is_unsat(), c.cert, text)
}

/// The search counters a query spent (`before` → `after`).
fn search_spend(before: &crate::EngineStats, after: &crate::EngineStats) -> [u64; 4] {
    [
        after.conflicts - before.conflicts,
        after.decisions - before.decisions,
        after.narrowings - before.narrowings,
        after.learned - before.learned,
    ]
}

#[test]
fn query_start_sweep_runs_only_where_it_can_change_something() {
    // Twin b13 sweeps, one extend plus one query per depth; one twin
    // re-propagates every constraint before each query. The search and
    // the proofs are identical, and the sweep only ever costs its own
    // steps.
    for (prop, depths) in [("p2", 20), ("p8", 15)] {
        let (mut up, base) = b13_frames(1);
        let (mut uf, _) = b13_frames(1);
        let mut plain = Session::new(&base, sp_proof());
        let mut forced = Session::new(&base, sp_proof());
        for depth in 0..depths {
            if depth > 0 {
                plain.extend(|n| up.push_frame(n).unwrap());
                forced.extend(|n| uf.push_frame(n).unwrap());
            }
            let q = [Assumption::yes(up.bad(prop, depth).unwrap())];
            forced.force_sweep();
            let swept = forced.constraint_count();
            let (p0, f0) = (plain.engine_stats(), forced.engine_stats());
            let a = plain.solve(&q);
            let b = forced.solve(&q);
            let (p1, f1) = (plain.engine_stats(), forced.engine_stats());
            let tag = format!("{prop}@{depth}");
            assert!(a.result.is_unsat(), "{tag}");
            assert_eq!(answer_text(&a), answer_text(&b), "{tag}");
            assert_eq!(search_spend(&p0, &p1), search_spend(&f0, &f1), "{tag}");
            // A new session sweeps on its first query either way.
            let skipped = if depth == 0 { 0 } else { swept };
            assert_eq!(
                f1.propagations - f0.propagations,
                p1.propagations - p0.propagations + skipped,
                "{tag}"
            );
        }
    }
}

#[test]
fn an_interrupted_query_is_followed_by_a_sweep() {
    // A query cut short leaves level 0 possibly short of its fixpoint,
    // so the next query re-propagates every constraint. Here the cut
    // lands inside the sweep itself, before any conflict, so the next
    // query answers exactly as a fresh session does.
    let (unroller, n) = b13_frames(50);
    let q = [Assumption::yes(unroller.bad("p2", 49).unwrap())];
    let mut fresh = Session::with_preproc(&n, sp_proof(), false);
    let before = fresh.engine_stats();
    let want = fresh.solve(&q);
    let want_props = fresh.engine_stats().propagations - before.propagations;
    assert!(want.result.is_unsat());
    for budget in [true, false] {
        let mut s = Session::with_preproc(&n, sp_proof(), false);
        // A cancellation is seen at the engine's next poll, at most one
        // poll period into the sweep.
        assert!(s.constraint_count() > u64::from(crate::engine::POLL_PERIOD));
        let cut = if budget {
            s.set_limits(Limits {
                max_propagations: Some(1),
                ..Limits::default()
            });
            let cut = s.solve(&q);
            s.set_limits(Limits::default());
            cut
        } else {
            let cancel = crate::CancelToken::new();
            cancel.cancel();
            s.solve_cancellable(&q, &cancel)
        };
        let reason = if budget {
            crate::AbortReason::Propagations
        } else {
            crate::AbortReason::Cancelled
        };
        assert_eq!(cut.abort, Some(reason));
        assert_eq!(s.engine_stats().conflicts, 0, "{reason:?}: no search yet");
        let before = s.engine_stats();
        let got = s.solve(&q);
        assert_eq!(
            s.engine_stats().propagations - before.propagations,
            want_props,
            "{reason:?}: the next query sweeps"
        );
        assert_eq!(answer_text(&got), answer_text(&want), "{reason:?}");
    }
}

// ---------------------------------------------------------------------
// Conflict analysis: the trail walk against its quadratic reference
// ---------------------------------------------------------------------

mod analysis_walk {
    use std::collections::HashSet;
    use std::sync::Arc;

    use rtl_interval::{Interval, Tribool};
    use rtl_ir::{CmpOp, Netlist, SignalId};
    use rtl_obs::{HistKind, ObsConfig, ObsHandle};

    use super::{build_random, Step};
    use crate::engine::{Analyzed, ConflictInfo, Engine, Falsified, Propagation};
    use crate::types::{Dom, HLit, Reason, VarId};

    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state >> 33
    }

    /// Runs the reference analysis on a clone of `engine` and the trail
    /// walk on `engine` itself, asserts that they learn the same lemma
    /// and leave the same activities behind, and returns the walk's
    /// result.
    fn analyze_both(
        engine: &mut Engine,
        conflict: &ConflictInfo,
        bool_only: bool,
    ) -> Option<Analyzed> {
        let mut twin = engine.clone();
        twin.obs = ObsHandle::off();
        let want = twin.analyze_reference(conflict, bool_only);
        let got = engine.analyze_mode(conflict, bool_only);
        match (&want, &got) {
            (None, None) => {}
            (Some(w), Some(g)) => {
                assert_eq!(g.lits[0], w.lits[0], "UIP literal");
                assert_eq!(g.lits.len(), w.lits.len(), "lemma width");
                let set = |lits: &[HLit]| lits.iter().copied().collect::<HashSet<_>>();
                assert_eq!(set(&g.lits), set(&w.lits), "lemma literals");
                assert_eq!(g.blevel, w.blevel, "backtrack level");
                assert_eq!(g.used, w.used, "antecedent clauses");
                assert_eq!(g.hints, w.hints, "derivation hints");
                // The UIP first, then the other marks in descending
                // trail order.
                let at = |l: &HLit| {
                    engine
                        .trail
                        .iter()
                        .rposition(|e| e.as_conflict_lit() == *l)
                        .expect("a lemma literal negates a trail entry")
                };
                let idx: Vec<usize> = g.lits.iter().map(at).collect();
                assert!(idx.windows(2).all(|p| p[0] > p[1]), "literal order {idx:?}");
            }
            _ => panic!("walk {got:?} vs reference {want:?}"),
        }
        let bits = |a: &[f64]| a.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&engine.activity), bits(&twin.activity), "variable activities");
        let clause_bits =
            |e: &Engine| e.clauses.iter().map(|c| c.activity.to_bits()).collect::<Vec<_>>();
        assert_eq!(clause_bits(engine), clause_bits(&twin), "clause activities");
        assert_eq!(engine.stats, twin.stats);
        got
    }

    /// Drives a learning search with random decisions over `n` under
    /// `goal`, checking every conflict with [`analyze_both`], and returns
    /// how many conflicts were compared. A complete assignment restarts
    /// from the root, so lemmas keep accumulating until the instance is
    /// refuted or `rounds` decisions were made.
    fn cross_check_search(
        n: &Netlist,
        goal: SignalId,
        bool_only: bool,
        seed: u64,
        rounds: usize,
    ) -> usize {
        let compiled = Arc::new(crate::compile::compile(n));
        let mut engine = Engine::new(Arc::clone(&compiled));
        if !engine.assert_external(compiled.var_of(goal), Dom::B(Tribool::True)) {
            return 0;
        }
        engine.schedule_all();
        let mut rng = seed;
        let mut compared = 0;
        let mut decisions = 0;
        while decisions < rounds {
            match engine.propagate() {
                Propagation::Conflict(conflict) => {
                    compared += 1;
                    match analyze_both(&mut engine, &conflict, bool_only) {
                        Some(lemma) => {
                            engine.learn_and_backtrack(lemma);
                        }
                        None => break,
                    }
                }
                Propagation::Fixpoint => {
                    let free: Vec<VarId> = compiled
                        .decision_vars
                        .iter()
                        .copied()
                        .filter(|&v| !engine.dom(v).is_fixed())
                        .collect();
                    if free.is_empty() {
                        if engine.level() == 0 {
                            break;
                        }
                        engine.backtrack(0);
                        continue;
                    }
                    let r = lcg(&mut rng);
                    engine.decide(free[r as usize % free.len()], r & 1 == 1);
                    decisions += 1;
                }
                Propagation::Aborted(reason) => unreachable!("no budget set: {reason:?}"),
            }
        }
        compared
    }

    fn random_steps(rng: &mut u64, len: usize) -> Vec<Step> {
        const OPS: [CmpOp; 6] = [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ];
        (0..len)
            .map(|_| {
                let (a, b, c) = (lcg(rng) as usize, lcg(rng) as usize, lcg(rng) as usize);
                match lcg(rng) % 11 {
                    0 => Step::Add(a, b),
                    1 => Step::Sub(a, b),
                    2 => Step::MulConst(a, (b % 6) as i64),
                    3 => Step::Ite(a, b, c),
                    4 => Step::Cmp(OPS[b % 6], a, c),
                    5 => Step::Shr(a, (b % 3) as u32),
                    6 => Step::Extract(a, (b % 4) as u32, (c % 4) as u32),
                    7 => Step::Not(a),
                    8 => Step::And(a, b),
                    9 => Step::Or(a, b),
                    _ => Step::Xor(a, b),
                }
            })
            .collect()
    }

    /// A `mux_search`-style selector chain: `x_{i+1} = sel_i ? x_i + w_i
    /// : x_i` from `x_0 = 0`, required to end on a sum no selection
    /// reaches (UNSAT, and conflict-heavy under any decision order).
    fn selector_chain(stages: usize) -> (Netlist, SignalId) {
        let mut state = 0x9e37_79b9_u64;
        let weights: Vec<i64> = (0..stages)
            .map(|_| 60 + lcg(&mut state) as i64 % 128)
            .collect();
        let total: i64 = weights.iter().sum();
        let mut reach = vec![false; total as usize + 1];
        reach[0] = true;
        for &w in &weights {
            for s in (w as usize..reach.len()).rev() {
                if reach[s - w as usize] {
                    reach[s] = true;
                }
            }
        }
        let target = (total / 3..total)
            .find(|&t| !reach[t as usize])
            .expect("sparse sums leave a gap");
        let mut n = Netlist::new("selector_chain");
        let x0 = n.input_word("x0", 28).unwrap();
        let mut x = x0;
        for (i, &w) in weights.iter().enumerate() {
            let sel = n.input_bool(&format!("sel{i}")).unwrap();
            let wi = n.const_word(w, 28).unwrap();
            let taken = n.add(x, wi).unwrap();
            x = n.ite(sel, taken, x).unwrap();
        }
        let start = n.eq_const(x0, 0).unwrap();
        let end = n.eq_const(x, target).unwrap();
        let goal = n.and(&[start, end]).unwrap();
        (n, goal)
    }

    #[test]
    fn trail_walk_matches_reference_on_random_searches() {
        let mut rng = 0x5eed_u64;
        let mut compared = [0usize; 2];
        for case in 0..400 {
            let len = 1 + lcg(&mut rng) as usize % 24;
            let steps = random_steps(&mut rng, len);
            let (n, goal) = build_random(&steps, (lcg(&mut rng) % 16) as i64);
            for bool_only in [false, true] {
                compared[usize::from(bool_only)] +=
                    cross_check_search(&n, goal, bool_only, case, 200);
            }
        }
        assert!(
            compared.iter().all(|&c| c >= 400),
            "too few conflicts compared (hybrid, bool-only): {compared:?}"
        );
    }

    #[test]
    fn trail_walk_matches_reference_on_selector_chains() {
        let mut compared = [0usize; 2];
        for stages in [4, 6, 8, 10, 12] {
            let (n, goal) = selector_chain(stages);
            for bool_only in [false, true] {
                for seed in 0..4 {
                    compared[usize::from(bool_only)] +=
                        cross_check_search(&n, goal, bool_only, seed, 400);
                }
            }
        }
        assert!(
            compared.iter().all(|&c| c >= 800),
            "too few conflicts compared (hybrid, bool-only): {compared:?}"
        );
    }

    /// An engine over six free Booleans `b0..b5` and three 4-bit words
    /// `w0..w2` with no constraints, for hand-built implication graphs.
    fn hand_engine() -> (Engine, Vec<VarId>, Vec<VarId>) {
        let mut n = Netlist::new("hand");
        let b: Vec<SignalId> = (0..6).map(|i| n.input_bool(&format!("b{i}")).unwrap()).collect();
        let w: Vec<SignalId> = (0..3)
            .map(|i| n.input_word(&format!("w{i}"), 4).unwrap())
            .collect();
        let compiled = Arc::new(crate::compile::compile(&n));
        let bv = b.iter().map(|&s| compiled.var_of(s)).collect();
        let wv = w.iter().map(|&s| compiled.var_of(s)).collect();
        (Engine::new(compiled), bv, wv)
    }

    const TRUE: Dom = Dom::B(Tribool::True);
    /// A constraint reason; analysis never looks past the kind.
    const BY: Reason = Reason::Constraint(0);

    fn word(lo: i64, hi: i64) -> Dom {
        Dom::W(Interval::new(lo, hi))
    }

    /// The conflict literal of `v = true`.
    fn not(v: VarId) -> HLit {
        HLit::Bool { var: v, value: false }
    }

    /// The conflict literal of `v ∈ [lo, hi]`.
    fn outside(v: VarId, lo: i64, hi: i64) -> HLit {
        HLit::Word {
            var: v,
            iv: Interval::new(lo, hi),
            positive: false,
        }
    }

    fn seeds(antecedents: &[u32]) -> ConflictInfo {
        ConflictInfo {
            antecedents: antecedents.to_vec(),
            falsified: Falsified::Nothing,
        }
    }

    #[test]
    fn word_marks_at_the_conflict_level_expand_to_a_boolean_uip() {
        let (mut e, b, w) = hand_engine();
        let lemma = e.add_clause(vec![not(b[5])], true);
        e.decide(b[1], true); // 0 @1
        e.decide(b[2], true); // 1 @2
        e.imply(w[0], word(0, 7), BY, &[1]); // 2 @2
        e.imply(w[1], word(0, 3), Reason::Clause(lemma), &[2, 0]); // 3 @2
        let got = analyze_both(&mut e, &seeds(&[3]), false).unwrap();
        assert_eq!(got.lits, vec![not(b[2]), not(b[1])]);
        assert_eq!(got.blevel, 1);
        assert_eq!(got.used, vec![lemma]);
    }

    #[test]
    fn hints_name_the_expanded_entries_and_the_falsified_constraint() {
        let by = Reason::Constraint;
        let (mut e, b, w) = hand_engine();
        let clause = e.add_clause(vec![not(b[5])], true);
        e.decide(b[1], true); // 0 @1
        e.imply(w[1], word(4, 11), by(11), &[0]); // 1 @1
        e.imply(w[0], word(4, 6), by(10), &[1]); // 2 @1
        e.decide(b[2], true); // 3 @2
        e.imply(w[2], word(0, 3), by(12), &[3]); // 4 @2
        e.imply(b[3], TRUE, by(13), &[4, 2]); // 5 @2
        let conflict = |falsified| ConflictInfo {
            antecedents: vec![5, 3],
            falsified,
        };
        // The walk expands entries 5 and 4; entry 2 stays in the cut.
        let got = analyze_both(&mut e, &conflict(Falsified::Constraint(20)), false).unwrap();
        assert_eq!(got.lits, vec![not(b[2]), outside(w[0], 4, 6)]);
        assert_eq!(got.hints, Some(vec![12, 13, 20]));
        // Boolean-only learning also expands the word ancestry 2 → 1.
        let got = analyze_both(&mut e, &conflict(Falsified::Constraint(20)), true).unwrap();
        assert_eq!(got.hints, Some(vec![10, 11, 12, 13, 20]));
        // A falsified clause is an antecedent, not a hint.
        let got = analyze_both(&mut e, &conflict(Falsified::Clause(clause)), false).unwrap();
        assert_eq!((got.used, got.hints), (vec![clause], Some(vec![12, 13])));
        // An arithmetic conflict carries no hints at all.
        let got = analyze_both(&mut e, &conflict(Falsified::Box), false).unwrap();
        assert_eq!(got.hints, None);
    }

    #[test]
    fn analysis_level_drops_when_its_marks_resolve_below_it() {
        let (mut e, b, w) = hand_engine();
        e.decide(b[1], true); // 0 @1
        e.imply(b[3], TRUE, BY, &[0]); // 1 @1
        e.imply(b[4], TRUE, BY, &[0]); // 2 @1
        e.decide(b[2], true); // 3 @2
        e.imply(w[0], word(2, 9), BY, &[1, 2]); // 4 @2
        e.imply(w[1], word(1, 5), BY, &[4]); // 5 @2
        // Level 2 empties without a UIP; the walk goes on at level 1,
        // whose two marks resolve to its decision.
        let got = analyze_both(&mut e, &seeds(&[5, 4]), false).unwrap();
        assert_eq!(got.lits, vec![not(b[1])]);
        assert_eq!(got.blevel, 0);
    }

    #[test]
    fn bool_only_expands_word_ancestry_transitively() {
        let (mut e, b, w) = hand_engine();
        e.decide(b[1], true); // 0 @1
        e.imply(w[1], word(4, 11), BY, &[0]); // 1 @1
        e.imply(w[0], word(4, 6), BY, &[1]); // 2 @1
        e.decide(b[2], true); // 3 @2
        e.imply(b[3], TRUE, BY, &[3, 2]); // 4 @2
        let mut hybrid = e.clone();
        let got = analyze_both(&mut hybrid, &seeds(&[4, 3]), false).unwrap();
        assert_eq!(got.lits, vec![not(b[2]), outside(w[0], 4, 6)]);
        assert_eq!(got.blevel, 1);
        let got = analyze_both(&mut e, &seeds(&[4, 3]), true).unwrap();
        assert_eq!(got.lits, vec![not(b[2]), not(b[1])]);
        assert_eq!(got.blevel, 1);
    }

    #[test]
    fn conflicts_resting_on_level_zero_refute() {
        let (mut e, b, w) = hand_engine();
        assert!(e.assert_external(b[0], TRUE)); // 0 @0
        e.imply(w[0], word(3, 8), BY, &[0]); // 1 @0
        assert!(analyze_both(&mut e, &seeds(&[1, 0]), false).is_none());
        e.decide(b[1], true); // 2 @1
        e.imply(w[1], word(0, 2), BY, &[1]); // 3 @1, level-0 ancestry only
        assert!(analyze_both(&mut e, &seeds(&[3]), false).is_none());
        assert!(analyze_both(&mut e, &seeds(&[3]), true).is_none());
        assert_eq!(e.stats.conflicts, 3);
    }

    #[test]
    fn lemma_lists_the_uip_then_descending_trail_order() {
        let (mut e, b, w) = hand_engine();
        e.decide(b[1], true); // 0 @1
        e.imply(w[0], word(5, 5), BY, &[0]); // 1 @1
        e.decide(b[2], true); // 2 @2
        e.decide(b[3], true); // 3 @3
        e.decide(b[4], true); // 4 @4
        e.imply(b[5], TRUE, BY, &[2, 0, 4, 3, 1]); // 5 @4
        let got = analyze_both(&mut e, &seeds(&[5, 4]), false).unwrap();
        assert_eq!(
            got.lits,
            vec![not(b[4]), not(b[3]), not(b[2]), outside(w[0], 5, 5), not(b[1])]
        );
        assert_eq!(got.blevel, 3);
    }

    #[test]
    fn analysis_histograms_sample_every_conflict() {
        let (mut e, b, w) = hand_engine();
        let obs = ObsHandle::armed(ObsConfig::default());
        e.set_obs(obs.clone());
        assert!(e.assert_external(b[0], TRUE)); // 0 @0
        e.decide(b[1], true); // 1 @1
        e.decide(b[2], true); // 2 @2
        e.imply(w[0], word(0, 7), BY, &[2]); // 3 @2
        e.imply(w[1], word(0, 3), BY, &[3, 1]); // 4 @2
        assert!(e.analyze_mode(&seeds(&[0]), false).is_none());
        assert!(e.analyze_mode(&seeds(&[4]), false).is_some());
        let snap = obs.snapshot().unwrap();
        let steps = snap.hist(HistKind::AnalysisSteps);
        let trail = snap.hist(HistKind::AnalysisTrail);
        assert_eq!((steps.total, trail.total), (2, 2));
        // No step for the level-0 refutation, two (entries 4 and 3) for
        // the lemma; both on a five-entry trail (bucket bounds 0, 1, 2,
        // 4, 8, …).
        assert_eq!((steps.counts[0], steps.counts[2]), (1, 1));
        assert_eq!(trail.counts[4], 2);
        // Only the analysis that learned a lemma traces a conflict.
        assert_eq!(snap.hist(HistKind::LemmaWidth).total, 1);
    }
}
