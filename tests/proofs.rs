//! Property tests for end-to-end Unsat certification: on random small
//! netlists every `Unsat` verdict of every solver variant must come
//! with a complete proof the independent checker accepts (satisfying
//! the text round-trip), and targeted single-point corruptions — of the
//! proof object, of its text, or of the solver itself via a
//! [`FaultPlan`] — must make certification fail rather than silently
//! pass. Randomly mutated proof text and `.preproc` bundle text is
//! untrusted input: parsing and checking it never panics, and no
//! mutation of a real proof certifies a satisfiable netlist.

use std::sync::OnceLock;

use proptest::prelude::*;

use rtlsat::hdpll::{
    Assumption, ClauseDbConfig, FaultPlan, HdpllResult, LearnConfig, Session, Solver, SolverConfig,
};
use rtlsat::ir::simplify::{
    bundle_parse, bundle_to_text, bundle_to_text_full, bundle_validate, simplify, simplify_full,
};
use rtlsat::ir::{Netlist, SignalId};
use rtlsat::proof::{format, Checker, Proof, Step};

mod common;
use common::{random_netlist, Rng};

/// A clause-DB schedule aggressive enough that reductions (and thus
/// deletion proof events) actually fire on the tiny random netlists of
/// these tests — the default thresholds are tuned for real workloads.
fn aggressive_db() -> ClauseDbConfig {
    ClauseDbConfig {
        reduce: true,
        first_reduce: 1,
        reduce_inc: 1,
    }
}

fn variants() -> Vec<(&'static str, SolverConfig)> {
    vec![
        ("hdpll", SolverConfig::hdpll()),
        ("hdpll+S", SolverConfig::structural()),
        (
            "hdpll+S+P",
            SolverConfig::structural_with_learning(LearnConfig::default()),
        ),
        // Deletion-heavy: every couple of lemmas triggers a reduction,
        // so Unsat proofs carry `d` sections the checker must accept.
        (
            "hdpll+S aggressive-db",
            SolverConfig::structural().with_clause_db(aggressive_db()),
        ),
    ]
}

/// Solves with proof logging; returns the proof when the verdict is
/// `Unsat`, `None` on `Sat`.
fn solve_logged(netlist: &Netlist, goal: SignalId, config: SolverConfig) -> Option<Proof> {
    let mut solver = Solver::new(netlist, config.with_proof(true));
    match solver.solve(goal) {
        HdpllResult::Unsat => Some(solver.take_proof().expect("Unsat with logging has a proof")),
        HdpllResult::Sat(_) => None,
        HdpllResult::Unknown => panic!("no budget set — instances are tiny"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn every_unsat_yields_a_checker_accepted_proof(seed in any::<u64>()) {
        let (netlist, goal) = random_netlist(seed);
        for (label, config) in variants() {
            let Some(proof) = solve_logged(&netlist, goal, config) else { continue };
            prop_assert!(
                proof.is_complete(),
                "seed {seed}: {label} proof has {} gaps", proof.gaps
            );
            let report = Checker::check_goal(&netlist, goal, &proof);
            prop_assert!(
                report.is_ok(),
                "seed {seed}: {label} proof rejected: {}", report.unwrap_err()
            );
            // The text format is faithful: print → parse → print fixes.
            let text = format::print(&proof);
            let reparsed = format::parse(&text);
            prop_assert!(reparsed.is_ok(), "seed {seed}: {label}: {}", reparsed.unwrap_err());
            prop_assert_eq!(&format::print(&reparsed.unwrap()), &text);
        }
    }

    #[test]
    fn structural_corruptions_are_always_rejected(seed in any::<u64>()) {
        let (netlist, goal) = random_netlist(seed);
        if let Some(proof) = solve_logged(&netlist, goal, SolverConfig::structural()) {
            // A step citing itself (the smallest future-antecedent).
            let mut m = proof.clone();
            m.steps[0].ants = vec![0];
            prop_assert!(Checker::check_goal(&netlist, goal, &m).is_err(), "seed {seed}");

            // Losing the final empty clause (or the whole derivation).
            let mut m = proof.clone();
            while m.steps.last().is_some_and(Step::is_empty_clause) {
                m.steps.pop();
            }
            prop_assert!(Checker::check_goal(&netlist, goal, &m).is_err(), "seed {seed}");

            // A variable-count mismatch (a proof for some other encoding).
            let mut m = proof.clone();
            m.var_count += 1;
            prop_assert!(Checker::check_goal(&netlist, goal, &m).is_err(), "seed {seed}");

            // Claiming gaps in a complete proof still voids
            // certification: the supervisor treats a gapped proof as
            // absent, and the checker refuses it outright.
            let mut m = proof.clone();
            m.gaps = 1;
            prop_assert!(Checker::check_goal(&netlist, goal, &m).is_err(), "seed {seed}");
        }
    }
}

/// The paper-style parity instance (x + y = 5 ∧ x = y): guaranteed
/// Unsat with real interval lemmas, used for the deterministic
/// corruption tests below.
fn parity_instance() -> (Netlist, SignalId) {
    sum_of_equals(5)
}

/// `x + y = total ∧ x = y` over 3-bit words, the goal named `goal`:
/// Unsat for odd `total`, satisfiable for even ones, with the same
/// shape (and so the same variable layout) either way.
fn sum_of_equals(total: i64) -> (Netlist, SignalId) {
    let mut n = Netlist::new("parity");
    let x = n.input_word("x", 3).unwrap();
    let y = n.input_word("y", 3).unwrap();
    let s = n.add_into(x, y, 4).unwrap();
    let eqs = n.eq_const(s, total).unwrap();
    let eqxy = n.cmp(rtlsat::ir::CmpOp::Eq, x, y).unwrap();
    let goal = n.and(&[eqs, eqxy]).unwrap();
    n.set_name(goal, "goal").unwrap();
    (n, goal)
}

#[test]
fn single_corrupted_text_line_is_rejected() {
    let (netlist, goal) = parity_instance();
    let proof =
        solve_logged(&netlist, goal, SolverConfig::structural()).expect("parity is Unsat");
    let text = format::print(&proof);
    assert!(Checker::check_goal(&netlist, goal, &proof).is_ok());

    // Deleting exactly the final `f` line leaves a parseable proof with
    // no empty-clause derivation — rejected, never certified.
    let truncated: String = text
        .lines()
        .filter(|l| *l != "f" && !l.starts_with("f "))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_ne!(truncated, text, "corpus proof must end in an `f` line");
    let mutated = format::parse(&truncated).expect("still parses");
    assert!(Checker::check_goal(&netlist, goal, &mutated).is_err());

    // Corrupting one header line (the variable count) is also fatal.
    let rebound: String = text
        .lines()
        .map(|l| match l.strip_prefix("vars ") {
            Some(n) => format!("vars {}\n", n.trim().parse::<u32>().unwrap() + 1),
            None => format!("{l}\n"),
        })
        .collect();
    let mutated = format::parse(&rebound).expect("still parses");
    assert!(Checker::check_goal(&netlist, goal, &mutated).is_err());
}

#[test]
fn faulty_solver_cannot_certify_its_unsat() {
    // The FaultPlan hook flips the first literal of the first learned
    // clause: whatever the corrupted solver then concludes, it can
    // never present a complete proof the checker accepts — the
    // corrupted lemma is logged as written (a gap or a rejected step).
    let (netlist, goal) = parity_instance();
    let mut solver = Solver::new(
        &netlist,
        SolverConfig::structural_with_learning(LearnConfig::default()).with_proof(true),
    );
    solver.inject_faults(FaultPlan {
        corrupt_learned_clause: Some(0),
        ..FaultPlan::default()
    });
    let result = solver.solve(goal);
    let learned = solver.stats().engine.learned;
    if result != HdpllResult::Unsat || learned == 0 {
        // The fault may derail the search away from Unsat entirely —
        // that is containment too, just not the path under test here.
        return;
    }
    let proof = solver.take_proof().expect("logging was enabled");
    assert!(
        !proof.is_complete() || Checker::check_goal(&netlist, goal, &proof).is_err(),
        "a corrupted lemma must never survive certification"
    );
}

#[test]
fn corrupted_deletion_bookkeeping_is_never_certified() {
    // Retirement events are part of the trusted record: a solver that
    // logs the deletion of a step that never existed must fail closed.
    // The fault fires alongside the first DB reduction (0-based index).
    // The parity instance collapses under level-0 propagation, so the
    // conflict-rich Unsat mux workload drives this one: every leaf of
    // its Boolean search is a conflict, and the aggressive schedule
    // turns those lemmas into a stream of reductions.
    let wl = rtl_bench::hotpath::mux_search(10);
    assert!(!wl.expect_sat, "mux_search target must be infeasible");
    let (netlist, goal) = (wl.netlist, wl.goal);
    let mut solver = Solver::new(
        &netlist,
        wl.config
            .with_clause_db(aggressive_db())
            .with_proof(true),
    );
    solver.inject_faults(FaultPlan {
        corrupt_deletion: Some(0),
        ..FaultPlan::default()
    });
    let result = solver.solve(goal);
    let reductions = solver.stats().engine.db_reductions;
    assert!(
        reductions >= 2,
        "aggressive schedule must reduce at least twice (got {reductions}) — \
         a second reduction guarantees a lemma was logged (or gapped) after \
         the corrupted one, so the bogus retirement cannot dangle unattached"
    );
    assert_eq!(result, HdpllResult::Unsat, "mux_search target is Unsat");
    let proof = solver.take_proof().expect("logging was enabled");
    assert!(
        !proof.is_complete() || Checker::check_goal(&netlist, goal, &proof).is_err(),
        "a fabricated deletion must never survive certification"
    );
}

#[test]
fn proof_text_is_identical_across_repeated_solves() {
    // Conflict analysis lists each lemma's UIP literal first and the
    // rest in descending trail order, so the proof text is a function
    // of the input alone: the same solve repeated in one process prints
    // the same bytes, one-shot and across a session's queries.
    let mux = rtl_bench::hotpath::mux_search(8);
    let texts: Vec<String> = (0..3)
        .map(|_| {
            let proof = solve_logged(&mux.netlist, mux.goal, mux.config)
                .expect("mux_search is Unsat");
            format::print(&proof)
        })
        .collect();
    assert!(texts[0].lines().count() > 10, "mux_search must learn lemmas");
    assert_eq!(texts[1], texts[0], "second solve printed a different proof");
    assert_eq!(texts[2], texts[0], "third solve printed a different proof");

    // A b13 BMC sweep: one extend plus one assumption query per depth.
    let sweep = || -> Vec<String> {
        let circuit = rtlsat::itc99::b13();
        let mut unroller = circuit.unroller();
        let mut base = unroller.base_netlist();
        unroller.push_frame(&mut base).unwrap();
        let config =
            SolverConfig::structural_with_learning(LearnConfig::default()).with_proof(true);
        let mut session = Session::new(&base, config);
        (0..12)
            .map(|depth| {
                if depth > 0 {
                    session.extend(|n| unroller.push_frame(n).unwrap());
                }
                let bad = unroller.bad("p2", depth).unwrap();
                let answer = session.solve(&[Assumption::yes(bad)]);
                assert!(answer.result.is_unsat(), "b13 p2@{depth} is Unsat");
                format::print(&answer.proof.expect("Unsat with logging has a proof"))
            })
            .collect()
    };
    let (first, second) = (sweep(), sweep());
    for (depth, (a, b)) in first.iter().zip(&second).enumerate() {
        assert_eq!(a, b, "b13 p2@{depth}: the two sweeps printed different proofs");
    }
}

/// Applies one to three random text mutations: flip one bit of an ASCII
/// byte, drop, duplicate or swap lines, or replace a number with a
/// neighbour or an extreme value.
fn mutate(text: &str, rng: &mut Rng) -> String {
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    for _ in 0..1 + rng.below(3) {
        if lines.is_empty() {
            break;
        }
        let i = rng.below(lines.len());
        match rng.below(5) {
            0 => {
                let mut bytes = std::mem::take(&mut lines[i]).into_bytes();
                if !bytes.is_empty() {
                    let j = rng.below(bytes.len());
                    bytes[j] ^= 1 << rng.below(7);
                }
                lines[i] = String::from_utf8(bytes).expect("ASCII stays ASCII");
            }
            1 => {
                lines.remove(i);
            }
            2 => {
                let dup = lines[i].clone();
                lines.insert(i, dup);
            }
            3 => {
                let j = rng.below(lines.len());
                lines.swap(i, j);
            }
            _ => lines[i] = perturb_number(&lines[i], rng),
        }
    }
    lines.iter().map(|l| format!("{l}\n")).collect()
}

/// Replaces one digit run of `line` (if any) with a nearby or extreme
/// value.
fn perturb_number(line: &str, rng: &mut Rng) -> String {
    let bytes = line.as_bytes();
    let mut runs = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let start = i;
        while i < bytes.len() && bytes[i].is_ascii_digit() {
            i += 1;
        }
        if i > start {
            runs.push((start, i));
        } else {
            i += 1;
        }
    }
    if runs.is_empty() {
        return line.to_string();
    }
    let (a, b) = runs[rng.below(runs.len())];
    let n: u128 = line[a..b].parse().unwrap_or(0);
    let new = match rng.below(6) {
        0 => n.saturating_add(1).to_string(),
        1 => n.saturating_sub(1).to_string(),
        2 => "0".to_string(),
        3 => u32::MAX.to_string(),
        4 => i64::MAX.to_string(),
        _ => "340282366920938463463374607431768211456".to_string(),
    };
    format!("{}{new}{}", &line[..a], &line[b..])
}

/// Real proofs to mutate, with the netlists they were checked against.
struct Corpus {
    parity: (Netlist, SignalId),
    /// The satisfiable same-shape sibling of `parity` (`x + y = 6`).
    sibling: (Netlist, SignalId),
    parity_text: String,
    /// Larger texts, with their goal when they are goal proofs: a
    /// many-step mux proof with antecedents and deletions, and a session
    /// assumption proof (format v3).
    others: Vec<(Netlist, Option<SignalId>, String)>,
}

fn corpus() -> &'static Corpus {
    static CORPUS: OnceLock<Corpus> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let parity = parity_instance();
        let sibling = sum_of_equals(6);
        let proof =
            solve_logged(&parity.0, parity.1, SolverConfig::structural()).expect("parity is Unsat");
        assert!(Checker::check_goal(&parity.0, parity.1, &proof).is_ok());
        assert!(Checker::check_goal(&sibling.0, sibling.1, &proof).is_err());

        let mux = rtl_bench::hotpath::mux_search(8);
        let mux_config = mux.config.with_clause_db(aggressive_db());
        let mux_proof =
            solve_logged(&mux.netlist, mux.goal, mux_config).expect("mux_search is Unsat");
        assert!(mux_proof.steps.iter().any(|s| !s.dels.is_empty()));
        let mut session = Session::with_preproc(
            &parity.0,
            SolverConfig::structural().with_proof(true),
            false,
        );
        let answer = session.solve(&[Assumption::yes(parity.1)]);
        let session_proof = answer.proof.expect("Unsat with logging has a proof");
        Corpus {
            parity_text: format::print(&proof),
            others: vec![
                (mux.netlist, Some(mux.goal), format::print(&mux_proof)),
                (parity.0.clone(), None, format::print(&session_proof)),
            ],
            parity,
            sibling,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn mutated_proof_text_never_panics_or_certifies_a_sat_sibling(seed in any::<u64>()) {
        let c = corpus();
        let mut rng = Rng(seed);
        let text = mutate(&c.parity_text, &mut rng);
        if let Ok(p) = format::parse(&text) {
            let (sib, sib_goal) = &c.sibling;
            prop_assert!(
                Checker::check_goal(sib, *sib_goal, &p).is_err(),
                "seed {seed}: mutated parity proof certified the satisfiable sibling:\n{text}"
            );
            // By name too, unless the mutation made it an assumption
            // proof (whose refutation may hold under the assumptions it
            // now carries).
            if p.assumptions.is_empty() && p.goal != "-" {
                prop_assert!(Checker::check(sib, &p).is_err(), "seed {seed}:\n{text}");
            }
            let _ = Checker::check(&c.parity.0, &p);
        }
        for (netlist, goal, text) in &c.others {
            if let Ok(p) = format::parse(&mutate(text, &mut rng)) {
                let _ = Checker::check(netlist, &p);
                if let Some(goal) = goal {
                    let _ = Checker::check_goal(netlist, *goal, &p);
                }
            }
        }
    }

    #[test]
    fn mutated_preproc_bundles_never_panic(seed in any::<u64>()) {
        let (mut netlist, goal) = random_netlist(seed);
        netlist.set_name(goal, "the_goal").unwrap();
        let r = simplify(&netlist, &[goal]);
        let goal_new = r.map.get(goal).expect("goal mapped");
        let mut rng = Rng(seed ^ 0xB0D1);
        for text in [
            bundle_to_text("the_goal", goal_new, &r),
            bundle_to_text_full(&simplify_full(&netlist)),
        ] {
            if let Ok(bundle) = bundle_parse(&mutate(&text, &mut rng)) {
                let _ = bundle_validate(&netlist, &bundle);
            }
        }
    }
}
