//! The differential incremental-vs-fresh gate: everything an
//! incremental [`Session`] answers must match what a fresh single-shot
//! solve of the same question produces.
//!
//! Two proptest harnesses over the deterministic random-netlist
//! generator of `tests/common`:
//!
//! - `session_queries_match_fresh_solves` — one session answers a
//!   stream of random assumption sets under every engine variant; each
//!   verdict must equal a fresh solver's verdict on the conjunction of
//!   the assumed literals, every UNSAT must carry an assumption proof a
//!   fresh independent checker accepts, every SAT a simulator-verified
//!   model, and re-asking the first question at the end must return the
//!   same verdict (learned-clause retention never flips an answer).
//! - `interleaved_extend_and_solve` — solves and in-place [`Session::
//!   extend`] growth interleave; queries over the grown netlist still
//!   match fresh solves, and the trail returns to decision level zero
//!   (`is_quiescent`) after every query.
//!
//! Then the session certifier itself: an injected fault never reaches
//! a checked proof (and a [`SupervisedSession`] degrades past it, then
//! keeps growing the session it rebuilt), over
//! a BMC sweep the certifier admits each logged step exactly once, and
//! every conflict lemma closes on its derivation hints. Last, a
//! session's per-query propagation cap charges each query alone.

use proptest::prelude::*;

use rtlsat::hdpll::{
    Assumption, Certified, ClauseDbConfig, FaultPlan, HdpllResult, LearnConfig, Limits, Session,
    SessionCert, Solver, SolverConfig, SupervisedSession,
};
use rtlsat::ir::{eval, Netlist, SignalId};
use rtlsat::itc99::cases::{BmcCase, Circuit, Expected};
use rtlsat::proof::Checker;

mod common;
use common::{random_circuit, random_netlist, Rng};

fn variants() -> Vec<(&'static str, SolverConfig)> {
    vec![
        ("hdpll", SolverConfig::hdpll()),
        ("hdpll+S", SolverConfig::structural()),
        (
            "hdpll+S+P",
            SolverConfig::structural_with_learning(LearnConfig::default()),
        ),
        // Deletion-heavy clause DB: retained-clause bookkeeping and the
        // proof `d` sections must survive across queries.
        (
            "hdpll+S aggressive-db",
            SolverConfig::structural().with_clause_db(aggressive_db()),
        ),
    ]
}

/// Every Boolean signal of the netlist — the pool assumption sets are
/// drawn from.
fn bool_pool(n: &Netlist) -> Vec<SignalId> {
    (0..n.len())
        .map(SignalId::from_index)
        .filter(|&s| n.ty(s).is_bool())
        .collect()
}

/// Draws a non-empty assumption set (1–3 distinct signals, random
/// polarity) from the pool.
fn draw_assumptions(pool: &[SignalId], rng: &mut Rng) -> Vec<Assumption> {
    let mut asm: Vec<Assumption> = Vec::new();
    for _ in 0..1 + rng.below(3) {
        let s = pool[rng.below(pool.len())];
        if asm.iter().any(|a| a.signal == s) {
            continue;
        }
        asm.push(if rng.flip() {
            Assumption::yes(s)
        } else {
            Assumption::no(s)
        });
    }
    asm
}

/// The fresh-solve reference: conjoins the assumed literals into one
/// goal node on a clone of the netlist and solves it from scratch.
fn fresh_verdict(netlist: &Netlist, asm: &[Assumption], config: SolverConfig) -> bool {
    let mut n = netlist.clone();
    let terms: Vec<SignalId> = asm
        .iter()
        .map(|a| if a.value { a.signal } else { n.not(a.signal).unwrap() })
        .collect();
    let conj = n.and(&terms).unwrap();
    match Solver::new(&n, config).solve(conj) {
        HdpllResult::Sat(_) => true,
        HdpllResult::Unsat => false,
        HdpllResult::Unknown => panic!("no budget set — instances are tiny"),
    }
}

/// Asserts one certified session answer against the fresh reference:
/// verdict equality, a fresh-checker-accepted assumption proof for
/// UNSAT, a simulator-verified model (satisfying every assumption) for
/// SAT.
/// `netlist` is the session's *original* netlist (models are stated
/// over it); `proof_netlist` is what the engine solved — the session's
/// preprocessed image ([`Session::proof_netlist`]) — which is what an
/// independent checker must re-check assumption proofs against.
fn assert_certified(
    netlist: &Netlist,
    proof_netlist: &Netlist,
    asm: &[Assumption],
    certified: &rtlsat::hdpll::Certified,
    expected_sat: bool,
    tag: &str,
) {
    match &certified.result {
        HdpllResult::Sat(model) => {
            prop_assert!(expected_sat, "{tag}: session SAT, fresh UNSAT");
            prop_assert_eq!(
                certified.cert,
                SessionCert::ModelVerified,
                "{}: SAT without a verified model",
                tag
            );
            let vals = eval::eval(netlist, model).expect("model evaluates");
            for a in asm {
                prop_assert_eq!(
                    vals.get(a.signal),
                    Some(i64::from(a.value)),
                    "{}: model violates an assumption",
                    tag
                );
            }
        }
        HdpllResult::Unsat => {
            prop_assert!(!expected_sat, "{tag}: session UNSAT, fresh SAT");
            prop_assert_eq!(
                certified.cert,
                SessionCert::ProofChecked,
                "{}: UNSAT without a checked proof",
                tag
            );
            let proof = certified.proof.as_ref().expect("checked implies proof");
            let report = Checker::check_assumptions(proof_netlist, &proof.assumptions, proof)
                .unwrap_or_else(|e| panic!("{tag}: fresh checker rejected: {e}"));
            prop_assert!(report.steps as usize <= proof.len() + 1);
        }
        HdpllResult::Unknown => prop_assert!(false, "{tag}: no budget set, Unknown impossible"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn session_queries_match_fresh_solves(seed in any::<u64>()) {
        let (netlist, goal) = random_netlist(seed);
        let pool = bool_pool(&netlist);
        for (label, config) in variants() {
            let mut rng = Rng(seed ^ 0xD1F7);
            let mut session = Session::new(&netlist, config.with_proof(true));
            // The generator's goal first — the question a one-shot
            // solve would ask — then random assumption sets.
            let mut sets = vec![vec![Assumption::yes(goal)]];
            for _ in 0..3 {
                sets.push(draw_assumptions(&pool, &mut rng));
            }
            let mut first_verdict = None;
            for (i, asm) in sets.iter().enumerate() {
                let expected = fresh_verdict(&netlist, asm, config);
                let certified = session.solve(asm);
                let tag = format!("seed {seed}: {label} query {i}");
                assert_certified(&netlist, session.proof_netlist(), asm, &certified, expected, &tag);
                prop_assert!(session.is_quiescent(), "{}: trail not at level 0", tag);
                if i == 0 {
                    first_verdict = Some(certified.result.is_sat());
                }
            }
            // Clause retention must never flip an answer: the first
            // question, re-asked after everything learned since.
            let again = session.solve(&sets[0]);
            prop_assert_eq!(
                Some(again.result.is_sat()),
                first_verdict,
                "seed {}: {} verdict flipped on re-ask",
                seed,
                label
            );
        }
    }

    #[test]
    fn interleaved_extend_and_solve(seed in any::<u64>()) {
        let (netlist, goal) = random_netlist(seed);
        for (label, config) in variants() {
            let mut rng = Rng(seed ^ 0xE27E);
            let mut session = Session::new(&netlist, config.with_proof(true));
            let mut asm = vec![Assumption::yes(goal)];
            for round in 0..3 {
                let tag = format!("seed {seed}: {label} round {round}");
                let expected = fresh_verdict(session.netlist(), &asm, config);
                let certified = session.solve(&asm);
                assert_certified(session.netlist(), session.proof_netlist(), &asm, &certified, expected, &tag);
                prop_assert!(session.is_quiescent(), "{}: trail not at level 0", tag);

                // Grow in place: new logic over the existing signals,
                // exactly the BMC extend pattern.
                session.extend(|n| grow_random(n, &mut rng));
                let pool = bool_pool(session.netlist());
                asm = draw_assumptions(&pool, &mut rng);
            }
            let expected = fresh_verdict(session.netlist(), &asm, config);
            let certified = session.solve(&asm);
            let tag = format!("seed {seed}: {label} final");
            assert_certified(session.netlist(), session.proof_netlist(), &asm, &certified, expected, &tag);
            prop_assert_eq!(session.queries(), 4, "one solve per round + final");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// BMC sweeps over random sequential circuits: at every depth the
    /// session query, decided inside its assumption's cone, gives the
    /// fresh one-shot verdict over the whole unrolled netlist, and
    /// every Unsat proof passes a fresh checker.
    #[test]
    fn cone_scoped_sweeps_match_fresh_solves(
        ops in proptest::collection::vec((any::<u8>(), any::<usize>(), any::<usize>(), any::<usize>()), 4..30),
        picks in proptest::collection::vec(any::<usize>(), 5..7),
        inits in proptest::collection::vec(0i64..16, 4),
    ) {
        let ckt = random_circuit(&ops, &picks, &inits);
        for (label, config) in variants() {
            for (prop, _) in ckt.properties() {
                let mut unroller = ckt.unroller();
                let mut base = unroller.base_netlist();
                unroller.push_frame(&mut base).unwrap();
                let mut session = Session::new(&base, config.with_proof(true));
                for depth in 0..5 {
                    if depth > 0 {
                        session.extend(|n| unroller.push_frame(n).unwrap());
                    }
                    let asm = [Assumption::yes(unroller.bad(prop, depth).unwrap())];
                    let expected = fresh_verdict(session.netlist(), &asm, config);
                    let certified = session.solve(&asm);
                    let tag = format!("{label} {prop}@{depth}");
                    assert_certified(session.netlist(), session.proof_netlist(), &asm, &certified, expected, &tag);
                }
            }
        }
    }
}

#[test]
fn b13_p40_sweep_answers_unsat_then_sat() {
    // p40 first holds at depth 12. The Sat answers leave every input
    // outside the query's cone at its low bound, and the simulator
    // replay still verifies them.
    let config = SolverConfig::structural_with_learning(LearnConfig::default()).with_proof(true);
    let circuit = rtlsat::itc99::b13();
    let mut unroller = circuit.unroller();
    let mut base = unroller.base_netlist();
    unroller.push_frame(&mut base).unwrap();
    let mut session = Session::new(&base, config);
    for depth in 0..15 {
        if depth > 0 {
            session.extend(|n| unroller.push_frame(n).unwrap());
        }
        let c = session.solve(&[Assumption::yes(unroller.bad("p40", depth).unwrap())]);
        if depth < 12 {
            assert_eq!(c.result, HdpllResult::Unsat, "depth {depth}");
            assert_eq!(c.cert, SessionCert::ProofChecked, "depth {depth}");
            let proof = c.proof.as_ref().unwrap();
            Checker::check_assumptions(session.proof_netlist(), &proof.assumptions, proof)
                .unwrap_or_else(|e| panic!("depth {depth}: {e}"));
        } else {
            assert!(c.result.is_sat(), "depth {depth}: {:?}", c.result);
            assert_eq!(c.cert, SessionCert::ModelVerified, "depth {depth}");
        }
    }
}

/// Appends 2–4 random nodes over the netlist's existing signals.
fn grow_random(n: &mut Netlist, rng: &mut Rng) {
    let bools = bool_pool(n);
    let words: Vec<SignalId> = (0..n.len())
        .map(SignalId::from_index)
        .filter(|&s| !n.ty(s).is_bool())
        .collect();
    for _ in 0..2 + rng.below(3) {
        let x = bools[rng.below(bools.len())];
        let y = bools[rng.below(bools.len())];
        match rng.below(4) {
            0 => {
                n.not(x).unwrap();
            }
            1 => {
                n.xor(x, y).unwrap();
            }
            2 if words.len() >= 2 => {
                let a = words[rng.below(words.len())];
                let b = words[rng.below(words.len())];
                n.cmp(rtlsat::ir::CmpOp::Le, a, b).unwrap();
            }
            _ => {
                n.and(&[x, y]).unwrap();
            }
        }
    }
}

/// Clause-DB schedule that reduces every couple of lemmas, so deletion
/// events (and the `corrupt_deletion` fault) fire on small workloads.
fn aggressive_db() -> ClauseDbConfig {
    ClauseDbConfig {
        reduce: true,
        first_reduce: 1,
        reduce_inc: 1,
    }
}

/// The conflict-rich mux workload as a query stream: `goal` is
/// infeasible, `¬goal` feasible, and each query pins one more select
/// input, so every query learns lemmas under the aggressive schedule.
fn mux_stream() -> (Netlist, Vec<Vec<Assumption>>) {
    let wl = rtl_bench::hotpath::mux_search(8);
    let sel = |i: usize| {
        wl.netlist
            .find(&format!("sel{i}"))
            .expect("mux select input")
    };
    let g = wl.goal;
    let stream = vec![
        vec![Assumption::yes(g)],
        vec![Assumption::no(g)],
        vec![Assumption::yes(g), Assumption::yes(sel(0))],
        vec![Assumption::no(g), Assumption::no(sel(1))],
        vec![Assumption::yes(g), Assumption::no(sel(2))],
        vec![Assumption::yes(g)],
    ];
    (wl.netlist, stream)
}

fn mux_config() -> SolverConfig {
    SolverConfig::hdpll()
        .with_clause_db(aggressive_db())
        .with_proof(true)
}

/// Faults that fire inside [`mux_stream`] under [`mux_config`]. Most
/// corrupted mux lemmas still follow from the netlist (and may then be
/// certified); these two do not: lemma 6 breaks the first query's
/// proof, lemma 30 also turns the feasible `¬goal` query Unsat.
fn session_faults() -> Vec<FaultPlan> {
    vec![
        FaultPlan {
            corrupt_learned_clause: Some(6),
            ..FaultPlan::default()
        },
        FaultPlan {
            corrupt_learned_clause: Some(30),
            ..FaultPlan::default()
        },
        FaultPlan {
            corrupt_deletion: Some(0),
            ..FaultPlan::default()
        },
    ]
}

/// `true` when a fresh independent checker accepts `c`'s proof.
fn fresh_accepts(proof_netlist: &Netlist, c: &Certified) -> bool {
    c.proof
        .as_ref()
        .is_some_and(|p| Checker::check_assumptions(proof_netlist, &p.assumptions, p).is_ok())
}

#[test]
fn faulted_session_never_reports_a_checked_proof() {
    // The session certifier is the only check on a session's Unsat
    // answers. Once a proof carries the bad step (a fresh checker
    // rejects it), neither that query nor any later one may claim a
    // checked proof — and every claimed one must survive a fresh
    // re-check.
    let (netlist, stream) = mux_stream();
    for faults in session_faults() {
        let mut session = Session::new(&netlist, mux_config());
        session.inject_faults(faults);
        let mut tainted = false;
        for (i, asm) in stream.iter().enumerate() {
            let c = session.solve(asm);
            if !c.result.is_unsat() {
                continue;
            }
            let fresh = fresh_accepts(session.proof_netlist(), &c);
            tainted |= !fresh;
            if tainted {
                assert_ne!(
                    c.cert,
                    SessionCert::ProofChecked,
                    "{faults:?}: query {i} claims a checked proof after the bad step"
                );
            } else {
                assert_eq!(c.cert, SessionCert::ProofChecked, "{faults:?}: query {i}");
            }
        }
        assert!(
            tainted,
            "{faults:?} never reached a proof: the test lost its teeth"
        );
        assert!(
            session.certify_report().is_none(),
            "{faults:?}: the certifier must retire at the bad step"
        );
    }
}

#[test]
fn supervised_session_degrades_past_a_faulted_session() {
    // The same faults on the ladder's first rung: the query whose proof
    // carries the bad step fails certification, the ladder degrades to
    // a fresh clean session, and every answer it reports is right and
    // certified.
    let (netlist, stream) = mux_stream();
    for faults in session_faults() {
        let mut ladder = SupervisedSession::with_rungs(
            &netlist,
            vec![
                ("faulty".to_string(), mux_config()),
                (
                    "clean".to_string(),
                    SolverConfig::structural().with_proof(true),
                ),
            ],
        );
        ladder.inject_faults(faults);
        for (i, asm) in stream.iter().enumerate() {
            let q = ladder.solve(asm);
            let expected = fresh_verdict(&netlist, asm, SolverConfig::hdpll());
            let tag = format!("{faults:?}: query {i}");
            assert!(q.answered_by.is_some(), "{tag}: ladder ran dry");
            assert_eq!(
                q.certified.result.is_sat(),
                expected,
                "{tag}: wrong verdict"
            );
            if q.certified.result.is_unsat() {
                assert_eq!(q.certified.cert, SessionCert::ProofChecked, "{tag}");
                let live = ladder.session().expect("an answering session");
                assert!(fresh_accepts(live.proof_netlist(), &q.certified), "{tag}");
            } else {
                assert_eq!(q.certified.cert, SessionCert::ModelVerified, "{tag}");
            }
        }
        assert!(
            ladder.degradations() >= 1,
            "{faults:?}: the ladder never degraded"
        );
        assert_eq!(ladder.active_rung(), "clean");
    }
}

/// Answers `queries` on `session`, asserting after every Unsat answer
/// that the session's certification work so far admitted exactly the
/// steps logged so far. Returns the steps a fresh checker per query
/// admits re-checking the same proofs, and the certifier's total.
fn assert_each_step_admitted_once(
    session: &mut Session,
    mut queries: impl FnMut(&mut Session, usize) -> Option<Vec<Assumption>>,
) -> (u64, u64) {
    let mut per_query = 0u64;
    let mut i = 0;
    while let Some(asm) = queries(session, i) {
        let c = session.solve(&asm);
        i += 1;
        if !c.result.is_unsat() {
            continue;
        }
        assert_eq!(c.cert, SessionCert::ProofChecked, "query {i}");
        let proof = c.proof.as_ref().unwrap();
        // Every step but the query's own final clause was logged.
        let logged = proof.len() - 1;
        let report = session.certify_report().expect("certifier live");
        assert_eq!(report.steps as usize, logged, "query {i}");
        let fresh = Checker::check_assumptions(session.proof_netlist(), &proof.assumptions, proof)
            .unwrap_or_else(|e| panic!("query {i}: fresh checker rejected: {e}"));
        per_query += u64::from(fresh.steps);
    }
    (per_query, u64::from(session.certify_report().unwrap().steps))
}

#[test]
fn certifier_admits_each_logged_step_once() {
    // Each query's proof restates every step logged so far, yet the
    // session's certification work only ever admits each step once —
    // not once per query that cites it. First a b13 BMC sweep, one
    // extend plus one query per depth (property p2 learns at every
    // depth), then the mux query stream on one netlist.
    let circuit = rtlsat::itc99::b13();
    let mut unroller = circuit.unroller();
    let mut base = unroller.base_netlist();
    unroller.push_frame(&mut base).unwrap();
    let config = SolverConfig::structural_with_learning(LearnConfig::default()).with_proof(true);
    let mut session = Session::new(&base, config);
    let (per_query, once) = assert_each_step_admitted_once(&mut session, |s, depth| {
        if depth == 12 {
            return None;
        }
        if depth > 0 {
            s.extend(|n| unroller.push_frame(n).unwrap());
        }
        Some(vec![Assumption::yes(unroller.bad("p2", depth).unwrap())])
    });
    assert!(
        once > 0 && per_query > 2 * once,
        "a checker per query would admit {per_query} steps, the certifier admitted {once}"
    );
    let (netlist, stream) = mux_stream();
    let mut session = Session::new(&netlist, mux_config());
    let (per_query, once) =
        assert_each_step_admitted_once(&mut session, |_, i| stream.get(i).cloned());
    assert!(
        once > 0 && per_query > 2 * once,
        "mux stream: {per_query} steps per query against {once}"
    );

    // A one-shot SAT answer with proof logging on records its lemmas
    // but runs no checker; an Unsat one certifies every step once.
    let sat = BmcCase {
        circuit: Circuit::B04,
        property: "p1",
        frames: 6,
        expected: Expected::Sat,
    }
    .build();
    let mut solver = Solver::new(&sat.netlist, SolverConfig::structural().with_proof(true));
    assert!(solver.solve(sat.bad).is_sat());
    assert!(
        solver.stats().engine.learned > 0,
        "the SAT solve must learn lemmas"
    );
    assert!(
        solver.certify_report().is_none(),
        "a SAT answer did checker work"
    );
    assert!(solver.take_proof().is_none());

    let unsat = rtl_bench::hotpath::mux_search(6);
    let mut solver = Solver::new(&unsat.netlist, unsat.config.with_proof(true));
    assert!(solver.solve(unsat.goal).is_unsat());
    let report = solver
        .certify_report()
        .expect("an Unsat answer is certified");
    let proof = solver.take_proof().unwrap();
    assert!(proof.is_complete());
    assert_eq!(report.steps as usize, proof.len());
}

/// A b13 BMC sweep of `prop` over `depths` depths on one session, one
/// extend plus one query per depth.
fn b13_sweep(session_config: SolverConfig, prop: &str, depths: usize) -> (Session, Vec<Certified>) {
    let circuit = rtlsat::itc99::b13();
    let mut unroller = circuit.unroller();
    let mut base = unroller.base_netlist();
    unroller.push_frame(&mut base).unwrap();
    let mut session = Session::new(&base, session_config);
    let mut answers = Vec::new();
    for depth in 0..depths {
        if depth > 0 {
            session.extend(|n| unroller.push_frame(n).unwrap());
        }
        let bad = unroller.bad(prop, depth).unwrap();
        answers.push(session.solve(&[Assumption::yes(bad)]));
    }
    (session, answers)
}

#[test]
fn conflict_lemmas_close_on_their_hints() {
    // Conflict analysis names the engine constraints it expanded, and
    // the certifier reads them as ids of its own lowering: the two
    // number constraints alike (`compile.rs`, `lower.rs`). Only speed
    // depends on that, so this pins it: every conflict lemma of the b13
    // p2 sweep and of the mux query stream closes on its hints alone,
    // in a few contractor steps per admitted step.
    let config = SolverConfig::structural_with_learning(LearnConfig::default()).with_proof(true);
    let (session, answers) = b13_sweep(config, "p2", 12);
    assert!(answers.iter().all(|c| c.cert == SessionCert::ProofChecked));
    let (netlist, stream) = mux_stream();
    let mut mux = Session::new(&netlist, mux_config());
    for asm in &stream {
        let c = mux.solve(asm);
        assert_ne!(c.cert, SessionCert::Uncertified, "{asm:?}");
    }
    for (name, session) in [("b13 p2", &session), ("mux stream", &mux)] {
        let report = session.certify_report().expect("certifier live");
        let learned = session.stats().engine.learned;
        assert!(report.steps > 0 && learned > 0, "{name}: nothing to certify");
        assert_eq!(report.hint_misses, 0, "{name}: {report:?}");
    }
    // Unhinted, each admission propagates over much of the netlist
    // (the mux netlist is smaller than a lemma's derivation).
    let report = session.certify_report().unwrap();
    let signals = session.proof_netlist().len() as u64;
    assert!(
        report.cons_steps < u64::from(report.steps) * signals / 4,
        "{report:?} over {signals} signals"
    );
}

#[test]
fn session_propagation_cap_charges_each_query_alone() {
    // A 2 000-step cap is ample for every query of this sweep (each
    // takes a few hundred propagations), but the whole sweep spends
    // more: the cap must not count earlier queries or extensions.
    let cap = 2_000;
    let config = SolverConfig::hdpll().with_proof(true).with_limits(Limits {
        max_propagations: Some(cap),
        ..Limits::default()
    });
    let (session, answers) = b13_sweep(config, "p1", 40);
    for (depth, c) in answers.iter().enumerate() {
        assert_eq!(c.abort, None, "p1@{depth}");
        assert!(c.result.is_unsat(), "p1@{depth}");
        assert_eq!(c.cert, SessionCert::ProofChecked, "p1@{depth}");
    }
    assert!(session.stats().engine.propagations > 2 * cap);
}

/// Panics unless `live` and `reference` are the same netlist: the same
/// length and signals, the same `find` for every name, the same outputs.
fn assert_same_netlist(live: &Netlist, reference: &Netlist, tag: &str) {
    assert_eq!(live.len(), reference.len(), "{tag}: length");
    for id in reference.signal_ids() {
        assert_eq!(live.signal(id), reference.signal(id), "{tag}: signal {id}");
        if let Some(name) = reference.signal(id).name() {
            assert_eq!(live.find(name), Some(id), "{tag}: find({name})");
        }
    }
    assert_eq!(live.outputs(), reference.outputs(), "{tag}: outputs");
}

#[test]
fn degraded_supervised_session_keeps_growing() {
    // The b13 p2 sweep on a ladder whose first rung is faulted: an
    // answer fails certification, the ladder rebuilds a clean session
    // from its master netlist, and the sweep keeps extending it. The
    // ladder catches its live session up by copying only the master's
    // new suffix, which is sound only if the rebuilt session started
    // from the master: after every extend its netlist must equal an
    // independent unrolling, and every answer must stay a checked
    // UNSAT proof that a fresh checker accepts.
    let circuit = rtlsat::itc99::b13();
    let mut unroller = circuit.unroller();
    let mut base = unroller.base_netlist();
    unroller.push_frame(&mut base).unwrap();
    let mut independent = circuit.unroller();
    let mut reference = independent.base_netlist();
    independent.push_frame(&mut reference).unwrap();
    let rung = SolverConfig::structural_with_learning(LearnConfig::default()).with_proof(true);
    let mut ladder = SupervisedSession::with_rungs(
        &base,
        vec![("faulty".to_string(), rung), ("clean".to_string(), rung)],
    );
    ladder.inject_faults(session_faults()[0]);
    let mut degraded_at = None;
    for depth in 0..20 {
        let tag = format!("p2@{depth}");
        if depth > 0 {
            ladder.extend(|n| unroller.push_frame(n).unwrap());
            independent.push_frame(&mut reference).unwrap();
            let live = ladder.session().expect("a live session");
            assert_same_netlist(live.netlist(), &reference, &tag);
        }
        let q = ladder.solve(&[Assumption::yes(unroller.bad("p2", depth).unwrap())]);
        assert!(q.certified.result.is_unsat(), "{tag}");
        assert_eq!(q.certified.cert, SessionCert::ProofChecked, "{tag}");
        let live = ladder.session().expect("an answering session");
        assert!(fresh_accepts(live.proof_netlist(), &q.certified), "{tag}");
        if degraded_at.is_none() && ladder.degradations() > 0 {
            degraded_at = Some(depth);
        }
    }
    assert!(ladder.degradations() >= 1, "the faulted rung never degraded");
    assert!(
        degraded_at.is_some_and(|d| d < 19),
        "the ladder degraded at the last depth: nothing grew past it"
    );
    assert_eq!(ladder.active_rung(), "clean");
}
