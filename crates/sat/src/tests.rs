//! Solver correctness tests: crafted instances, pigeonhole principles, and
//! randomized cross-checking against a brute-force oracle.

use proptest::prelude::*;

use crate::solver::luby;
use crate::{Limits, Lit, SatResult, Solver, Var};

fn vars(s: &mut Solver, n: usize) -> Vec<Var> {
    (0..n).map(|_| s.new_var()).collect()
}

#[test]
fn empty_formula_is_sat() {
    let mut s = Solver::new();
    assert!(s.solve().is_sat());
}

#[test]
fn single_unit() {
    let mut s = Solver::new();
    let v = s.new_var();
    s.add_clause(&[Lit::neg(v)]);
    match s.solve() {
        SatResult::Sat(m) => assert!(!m.value(v)),
        other => panic!("expected SAT, got {other:?}"),
    }
}

#[test]
fn contradiction_is_unsat() {
    let mut s = Solver::new();
    let v = s.new_var();
    s.add_clause(&[Lit::pos(v)]);
    s.add_clause(&[Lit::neg(v)]);
    assert!(s.solve().is_unsat());
    // solver stays UNSAT afterwards
    assert!(s.solve().is_unsat());
}

#[test]
fn empty_clause_is_unsat() {
    let mut s = Solver::new();
    let _ = s.new_var();
    s.add_clause(&[]);
    assert!(s.solve().is_unsat());
}

#[test]
fn tautology_is_dropped() {
    let mut s = Solver::new();
    let v = s.new_var();
    s.add_clause(&[Lit::pos(v), Lit::neg(v)]);
    assert_eq!(s.num_clauses(), 0);
    assert!(s.solve().is_sat());
}

#[test]
fn implication_chain_propagates() {
    // x0 ∧ (x_i → x_{i+1}) forces all true.
    let mut s = Solver::new();
    let xs = vars(&mut s, 50);
    s.add_clause(&[Lit::pos(xs[0])]);
    for w in xs.windows(2) {
        s.add_clause(&[Lit::neg(w[0]), Lit::pos(w[1])]);
    }
    match s.solve() {
        SatResult::Sat(m) => {
            for &x in &xs {
                assert!(m.value(x));
            }
        }
        other => panic!("expected SAT, got {other:?}"),
    }
}

#[test]
fn xor_chain_parity_unsat() {
    // Encode x1 ⊕ x2 = 1, x2 ⊕ x3 = 1, ..., and x1 ⊕ xn = 1 with odd cycle:
    // for an even-length cycle of odd parities this is UNSAT.
    let mut s = Solver::new();
    let xs = vars(&mut s, 3);
    let xor1 = |s: &mut Solver, a: Var, b: Var| {
        // a ⊕ b = 1  ⇔  (a ∨ b) ∧ (¬a ∨ ¬b)
        s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
        s.add_clause(&[Lit::neg(a), Lit::neg(b)]);
    };
    xor1(&mut s, xs[0], xs[1]);
    xor1(&mut s, xs[1], xs[2]);
    xor1(&mut s, xs[2], xs[0]);
    assert!(s.solve().is_unsat(), "odd cycle of inequalities");
}

/// Pigeonhole principle PHP(n+1, n): n+1 pigeons in n holes, UNSAT.
/// Classic hard instance exercising conflict analysis and learning.
fn pigeonhole(pigeons: usize, holes: usize) -> Solver {
    let mut s = Solver::new();
    let mut p = vec![vec![Var::from_index(0); holes]; pigeons];
    for row in p.iter_mut() {
        for slot in row.iter_mut() {
            *slot = s.new_var();
        }
    }
    // every pigeon in some hole
    for row in &p {
        let clause: Vec<Lit> = row.iter().map(|&v| Lit::pos(v)).collect();
        s.add_clause(&clause);
    }
    // no two pigeons share a hole
    for h in 0..holes {
        for (i, pi) in p.iter().enumerate() {
            for pj in &p[i + 1..] {
                s.add_clause(&[Lit::neg(pi[h]), Lit::neg(pj[h])]);
            }
        }
    }
    s
}

#[test]
fn pigeonhole_unsat() {
    for n in 2..=6 {
        let mut s = pigeonhole(n + 1, n);
        assert!(s.solve().is_unsat(), "PHP({}, {n})", n + 1);
    }
}

#[test]
fn pigeonhole_sat_when_it_fits() {
    let mut s = pigeonhole(4, 4);
    assert!(s.solve().is_sat());
}

#[test]
fn budget_returns_unknown() {
    let mut s = pigeonhole(9, 8);
    let r = s.solve_limited(Limits {
        max_conflicts: Some(5),
        max_propagations: None,
        max_duration: None,
    });
    assert_eq!(r, SatResult::Unknown);
    // Solver remains usable and still reaches the right answer.
    assert!(s.solve().is_unsat());
}

#[test]
fn stats_accumulate() {
    let mut s = pigeonhole(6, 5);
    assert!(s.solve().is_unsat());
    let st = s.stats();
    assert!(st.conflicts > 0);
    assert!(st.decisions > 0);
    assert!(st.propagations > 0);
}

#[test]
fn luby_sequence_prefix() {
    let expect = [1u64, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
    let got: Vec<u64> = (0..expect.len() as u64).map(luby).collect();
    assert_eq!(got, expect);
}

#[test]
fn model_lit_satisfaction() {
    let mut s = Solver::new();
    let a = s.new_var();
    let b = s.new_var();
    s.add_clause(&[Lit::pos(a)]);
    s.add_clause(&[Lit::neg(b)]);
    if let SatResult::Sat(m) = s.solve() {
        assert!(m.satisfies(Lit::pos(a)));
        assert!(m.satisfies(Lit::neg(b)));
        assert!(!m.satisfies(Lit::pos(b)));
        assert_eq!(m.len(), 2);
        assert!(!m.is_empty());
    } else {
        panic!("expected SAT");
    }
}

#[test]
fn lit_encoding() {
    let v = Var::from_index(7);
    let p = Lit::pos(v);
    let n = Lit::neg(v);
    assert_eq!(p.var(), v);
    assert_eq!(n.var(), v);
    assert!(!p.is_neg());
    assert!(n.is_neg());
    assert_eq!(!p, n);
    assert_eq!(!n, p);
    assert_eq!(Lit::from_code(p.code()), p);
    assert_eq!(Lit::with_value(v, true), p);
    assert_eq!(Lit::with_value(v, false), n);
    assert!(p.value());
    assert!(!n.value());
}

// ---------------------------------------------------------------------------
// Randomized cross-check against brute force
// ---------------------------------------------------------------------------

/// Brute-force satisfiability of a clause set over `n` variables.
fn brute_force(n: usize, clauses: &[Vec<Lit>]) -> bool {
    'outer: for m in 0u32..(1 << n) {
        for c in clauses {
            let sat = c.iter().any(|l| {
                let bit = (m >> l.var().index()) & 1 == 1;
                bit == l.value()
            });
            if !sat {
                continue 'outer;
            }
        }
        return true;
    }
    false
}

fn clause_strategy(n: usize) -> impl Strategy<Value = Vec<Lit>> {
    proptest::collection::vec((0..n, any::<bool>()), 1..4).prop_map(|lits| {
        lits.into_iter()
            .map(|(v, neg)| {
                let var = Var::from_index(v);
                if neg {
                    Lit::neg(var)
                } else {
                    Lit::pos(var)
                }
            })
            .collect()
    })
}

proptest! {
    /// CDCL answer agrees with brute force on random small formulas, and
    /// every SAT model actually satisfies all clauses.
    #[test]
    fn agrees_with_brute_force(
        clauses in proptest::collection::vec(clause_strategy(8), 1..40)
    ) {
        let n = 8;
        let mut s = Solver::new();
        let _ = vars(&mut s, n);
        for c in &clauses {
            s.add_clause(c);
        }
        let expected = brute_force(n, &clauses);
        match s.solve() {
            SatResult::Sat(m) => {
                prop_assert!(expected, "solver said SAT, brute force says UNSAT");
                for c in &clauses {
                    prop_assert!(c.iter().any(|&l| m.satisfies(l)), "model violates {c:?}");
                }
            }
            SatResult::Unsat => prop_assert!(!expected, "solver said UNSAT, brute force says SAT"),
            SatResult::Unknown => prop_assert!(false, "no budget was set"),
        }
    }

    /// Incremental use: adding clauses after a SAT call narrows the models.
    #[test]
    fn incremental_clause_addition(
        clauses1 in proptest::collection::vec(clause_strategy(6), 1..15),
        clauses2 in proptest::collection::vec(clause_strategy(6), 1..15),
    ) {
        let n = 6;
        let mut s = Solver::new();
        let _ = vars(&mut s, n);
        for c in &clauses1 {
            s.add_clause(c);
        }
        let first = s.solve();
        for c in &clauses2 {
            s.add_clause(c);
        }
        let second = s.solve();
        let all: Vec<Vec<Lit>> = clauses1.iter().chain(&clauses2).cloned().collect();
        let expected = brute_force(n, &all);
        match second {
            SatResult::Sat(m) => {
                prop_assert!(expected);
                for c in &all {
                    prop_assert!(c.iter().any(|&l| m.satisfies(l)));
                }
            }
            SatResult::Unsat => prop_assert!(!expected),
            SatResult::Unknown => prop_assert!(false),
        }
        // monotonicity: if the first call was UNSAT the second must be too
        if first.is_unsat() {
            prop_assert!(!expected);
        }
    }
}
