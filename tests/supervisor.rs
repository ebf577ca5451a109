//! Robustness tests for the solve supervisor: in-loop budget
//! enforcement, cooperative cancellation, the degradation ladder, panic
//! absorption, and the fault-injection matrix — every injected fault
//! must be caught by certification or absorbed by degradation, and none
//! may escape as a wrong final verdict, a panic, or a hang.

use std::time::{Duration, Instant};

use rtl_bench::hotpath;
use rtlsat::baselines::EagerStage;
use rtlsat::hdpll::{
    Assumption, CancelToken, Certification, FaultPlan, HdpllResult, HdpllStage, Limits,
    SolveStage, Solver, SolverConfig, SolverStats, StageOutcome, StageRun, SupervisedSession,
    Supervisor,
};
use rtlsat::ir::{eval, Netlist, SignalId};
use rtlsat::itc99::cases::{BmcCase, Circuit, Expected};
use rtlsat::serve::{session_rungs, SolveOptions};

/// A known-SAT ITC'99 unrolling (`b01` property `p1` at 50 frames) —
/// the acceptance-criteria workload.
fn itc99_known_sat() -> (Netlist, SignalId) {
    let case = BmcCase {
        circuit: Circuit::B01,
        property: "p1",
        frames: 50,
        expected: Expected::Sat,
    };
    let bmc = case.build();
    (bmc.netlist, bmc.bad)
}

// --- satellite: budgets hold inside the propagation loop ---------------

#[test]
fn propagation_budget_enforced_mid_sweep() {
    // deep_chain(4000) is one uninterrupted propagation sweep of ≥ 4000
    // steps with zero decisions: the old between-iterations check never
    // ran before the sweep finished, so the budget only holds if it is
    // enforced inside the propagation loop itself.
    let w = hotpath::deep_chain(4000);
    let limits = Limits {
        max_propagations: Some(100),
        ..Limits::default()
    };
    let mut solver = Solver::new(&w.netlist, w.config.with_limits(limits));
    let result = solver.solve(w.goal);
    assert_eq!(result, HdpllResult::Unknown);
    let stats = solver.stats();
    assert!(
        stats.engine.propagations <= 100,
        "budget overrun: {} propagation steps",
        stats.engine.propagations
    );
    assert!(stats.abort.is_some(), "abort reason must be reported");
}

#[test]
fn deadline_enforced_mid_sweep() {
    // A zero wall-clock budget must stop the same single sweep long
    // before its ~4000 steps complete (the in-loop poll fires every
    // 4096 steps, so the sweep can overshoot by at most one period).
    let w = hotpath::deep_chain(4000);
    let limits = Limits {
        max_time: Some(Duration::ZERO),
        ..Limits::default()
    };
    let mut solver = Solver::new(&w.netlist, w.config.with_limits(limits));
    let start = Instant::now();
    let result = solver.solve(w.goal);
    assert_eq!(result, HdpllResult::Unknown);
    assert!(start.elapsed() < Duration::from_secs(5), "deadline ignored");
}

#[test]
fn deadline_holds_on_fm_bound_workload() {
    // mux_search drives the solver into repeated Fourier–Motzkin final
    // checks; a single oracle call used to run to completion no matter
    // the deadline because the budget was only polled in the propagation
    // loop. With the budget threaded into the FM loops, a tight deadline
    // must hold within a small bound even here.
    let w = hotpath::mux_search(14);
    let limits = Limits {
        max_time: Some(Duration::from_millis(5)),
        ..Limits::default()
    };
    let mut solver = Solver::new(&w.netlist, w.config.with_limits(limits));
    let start = Instant::now();
    let result = solver.solve(w.goal);
    let elapsed = start.elapsed();
    // A 5 ms budget either finishes legitimately (fast machine) or
    // aborts; it must never balloon to the full multi-second search.
    assert!(
        elapsed < Duration::from_secs(2),
        "FM-bound deadline overshot: {elapsed:?}"
    );
    if result == HdpllResult::Unknown {
        assert!(solver.stats().abort.is_some(), "abort reason must be reported");
    }
}

#[test]
fn memory_limit_sheds_runaway_solve() {
    // A conflict-heavy UNSAT search grows the clause DB and antecedent
    // pool without bound; a few-KiB memory cap must shed it promptly
    // with the dedicated abort reason instead of letting it grow.
    let w = hotpath::mux_search(14);
    let limits = Limits {
        max_memory: Some(8 * 1024),
        ..Limits::default()
    };
    let mut solver = Solver::new(&w.netlist, w.config.with_limits(limits));
    let result = solver.solve(w.goal);
    assert_eq!(result, HdpllResult::Unknown, "cap must shed the solve");
    assert_eq!(
        solver.stats().abort,
        Some(rtlsat::hdpll::AbortReason::Memory),
        "abort must cite the memory budget"
    );
    assert!(
        solver.stats().engine.mem_peak > 0,
        "memory peak must be sampled"
    );
}

#[test]
fn cancellation_from_another_thread() {
    // An unsatisfiable search instance with no other limits: only the
    // cancel token can stop it early.
    let w = hotpath::mux_search(14);
    let token = CancelToken::new();
    let canceller = token.clone();
    let handle = std::thread::spawn(move || {
        let mut solver = Solver::new(&w.netlist, w.config);
        let result = solver.solve_cancellable(w.goal, &token);
        (result, *solver.stats())
    });
    std::thread::sleep(Duration::from_millis(20));
    canceller.cancel();
    let (result, stats): (HdpllResult, SolverStats) = handle.join().expect("no panic");
    // The full search takes ~30 ms on the bench machine; a cancel at
    // 20 ms either aborts it (Unknown) or loses the race and the solve
    // finishes (Unsat). Both are sound; a wrong SAT is not.
    match result {
        HdpllResult::Unknown => assert!(stats.abort.is_some()),
        HdpllResult::Unsat => {}
        HdpllResult::Sat(_) => panic!("cancellation produced a wrong verdict"),
    }
}

// --- degradation ladder ------------------------------------------------

#[test]
fn tiny_hdpll_budget_answers_via_eager_fallback() {
    let (netlist, goal) = itc99_known_sat();
    let mut sup = Supervisor::new()
        .stage(
            HdpllStage::new(
                "hdpll-tiny",
                SolverConfig::structural().with_limits(Limits {
                    max_propagations: Some(50),
                    ..Limits::default()
                }),
            ),
        )
        .stage(EagerStage::default());
    let result = sup.solve(&netlist, goal);
    assert!(result.verdict.is_sat(), "ladder must still answer SAT");
    assert_eq!(
        result.answered_by.as_deref(),
        Some("eager-bitblast"),
        "answering stage must be reported"
    );
    assert!(matches!(
        result.reports[0].outcome,
        StageOutcome::Unknown { .. }
    ));
    let model = result.verdict.model().expect("sat model");
    assert!(eval::check_model(&netlist, model, goal).unwrap());
}

/// A stage that always panics — the supervisor must absorb the unwind.
struct PanicStage;

impl SolveStage for PanicStage {
    fn name(&self) -> &str {
        "panicker"
    }

    fn run(
        &mut self,
        _netlist: &Netlist,
        _goal: SignalId,
        _max_time: Option<Duration>,
        _cancel: &CancelToken,
    ) -> StageRun {
        panic!("injected stage panic");
    }
}

/// A stage that claims SAT with a garbage model.
struct LyingSatStage;

impl SolveStage for LyingSatStage {
    fn name(&self) -> &str {
        "liar-sat"
    }

    fn run(
        &mut self,
        _netlist: &Netlist,
        _goal: SignalId,
        _max_time: Option<Duration>,
        _cancel: &CancelToken,
    ) -> StageRun {
        StageRun::new(HdpllResult::Sat(std::collections::HashMap::new()))
    }
}

/// A stage that claims UNSAT regardless of the instance.
struct LyingUnsatStage;

impl SolveStage for LyingUnsatStage {
    fn name(&self) -> &str {
        "liar-unsat"
    }

    fn run(
        &mut self,
        _netlist: &Netlist,
        _goal: SignalId,
        _max_time: Option<Duration>,
        _cancel: &CancelToken,
    ) -> StageRun {
        StageRun::new(HdpllResult::Unsat)
    }
}

#[test]
fn panicking_stage_is_absorbed() {
    let (netlist, goal) = itc99_known_sat();
    let mut sup = Supervisor::new()
        .stage(PanicStage)
        .stage(HdpllStage::new("hdpll-s", SolverConfig::structural()));
    let result = sup.solve(&netlist, goal);
    assert!(matches!(
        result.reports[0].outcome,
        StageOutcome::Panicked { .. }
    ));
    assert!(result.verdict.is_sat());
    assert_eq!(result.answered_by.as_deref(), Some("hdpll-s"));
}

/// A stage that panics with a formatted message (a `String` payload,
/// where [`PanicStage`]'s literal is a `&str`).
struct FormattedPanicStage;

impl SolveStage for FormattedPanicStage {
    fn name(&self) -> &str {
        "formatted-panicker"
    }

    fn run(
        &mut self,
        _netlist: &Netlist,
        _goal: SignalId,
        _max_time: Option<Duration>,
        _cancel: &CancelToken,
    ) -> StageRun {
        panic!("injected stage panic {}", 7);
    }
}

/// The detail of a `Panicked` outcome (panics on any other outcome).
fn panic_text(outcome: &StageOutcome) -> &str {
    match outcome {
        StageOutcome::Panicked { detail } => detail,
        other => panic!("expected a panic report, got {other:?}"),
    }
}

#[test]
fn panicking_stage_reports_its_panic_text() {
    let mut n = Netlist::new("demo");
    let a = n.input_bool("a").unwrap();
    let b = n.input_bool("b").unwrap();
    let goal = n.and(&[a, b]).unwrap();
    let mut sup = Supervisor::new()
        .stage(PanicStage)
        .stage(FormattedPanicStage)
        .stage(HdpllStage::new("hdpll", SolverConfig::hdpll()));
    let result = sup.solve(&n, goal);
    assert_eq!(panic_text(&result.reports[0].outcome), "injected stage panic");
    assert_eq!(panic_text(&result.reports[1].outcome), "injected stage panic 7");
    assert_eq!(result.answered_by.as_deref(), Some("hdpll"));
}

#[test]
fn panicking_session_rung_reports_its_panic_text() {
    let mut n = Netlist::new("demo");
    let a = n.input_bool("a").unwrap();
    let word = n.input_word("word", 4).unwrap();
    // An assumption on a word-typed signal panics in every rung.
    let opts = SolveOptions {
        fallback: true,
        ..SolveOptions::default()
    };
    let mut ladder = SupervisedSession::with_rungs(&n, session_rungs(&opts).unwrap());
    let q = ladder.solve(&[Assumption::yes(word)]);
    assert!(q.answered_by.is_none());
    assert_eq!(q.reports.len(), 2);
    for r in &q.reports {
        let detail = panic_text(&r.outcome);
        assert!(detail.contains("must be Boolean"), "{}: {detail}", r.stage);
    }
    // The ladder still answers the next, well-formed query.
    let q = ladder.solve(&[Assumption::yes(a)]);
    assert!(q.certified.result.is_sat());
}

#[test]
fn lying_sat_stage_is_discredited() {
    let (netlist, goal) = itc99_known_sat();
    let mut sup = Supervisor::new()
        .stage(LyingSatStage)
        .stage(HdpllStage::new("hdpll-s", SolverConfig::structural()));
    let result = sup.solve(&netlist, goal);
    assert!(result.reports[0].outcome.is_cert_failure());
    assert_eq!(result.cert_failures(), 1);
    assert!(result.verdict.is_sat());
    assert_eq!(result.answered_by.as_deref(), Some("hdpll-s"));
}

#[test]
fn lying_unsat_stage_is_refuted_by_cross_check() {
    let (netlist, goal) = itc99_known_sat();
    let mut sup = Supervisor::new()
        .stage(LyingUnsatStage)
        .stage(HdpllStage::new("hdpll-s", SolverConfig::structural()))
        .check_unsat_with(EagerStage::default(), Duration::from_secs(30));
    let result = sup.solve(&netlist, goal);
    assert!(
        result.reports[0].outcome.is_cert_failure(),
        "wrong UNSAT must be refuted: {:?}",
        result.reports[0].outcome
    );
    assert!(result.verdict.is_sat(), "truth must still come out");
}

#[test]
fn unchecked_lie_never_reaches_the_user_uncertified() {
    // Without --check the wrong UNSAT *is* reported (certifying UNSAT
    // needs a proof or the cross-check) — but since the lying stage
    // supplies no proof, the verdict must be visibly uncertified.
    let (netlist, goal) = itc99_known_sat();
    let mut sup = Supervisor::new().stage(LyingUnsatStage);
    let result = sup.solve(&netlist, goal);
    assert!(matches!(
        result.reports[0].outcome,
        StageOutcome::Unsat {
            certification: Certification::Uncertified
        }
    ));
    assert_eq!(
        result.unsat_certification(),
        Some(Certification::Uncertified)
    );
    assert!(result.proof.is_none());
}

#[test]
fn recovered_unsat_without_proof_is_downgraded_not_certified() {
    // Regression: an UNSAT that arrives after an earlier stage panicked
    // (recovered by catch_unwind) and carries no proof, with no
    // cross-check configured, must stand as the verdict but be
    // explicitly uncertified — never silently promoted to certified.
    let (netlist, goal) = itc99_known_sat();
    let mut sup = Supervisor::new().stage(PanicStage).stage(LyingUnsatStage);
    let result = sup.solve(&netlist, goal);
    assert!(matches!(
        result.reports[0].outcome,
        StageOutcome::Panicked { .. }
    ));
    assert_eq!(result.verdict, HdpllResult::Unsat);
    assert_eq!(result.answered_by.as_deref(), Some("liar-unsat"));
    assert_eq!(
        result.unsat_certification(),
        Some(Certification::Uncertified)
    );
    assert!(result.proof.is_none());
}

#[test]
fn honest_unsat_is_certified_by_its_own_proof() {
    // A real HDPLL stage on a real UNSAT instance certifies via its
    // logged proof — no cross-check stage configured or needed.
    let w = hotpath::mux_search(8);
    let mut sup =
        Supervisor::new().stage(HdpllStage::new("hdpll-s", SolverConfig::structural()));
    let result = sup.solve(&w.netlist, w.goal);
    assert_eq!(result.verdict, HdpllResult::Unsat);
    assert_eq!(result.unsat_certification(), Some(Certification::Proof));
    let proof = result.proof.expect("certified verdict carries the proof");
    assert!(proof.is_complete());
}

// --- fault injection ---------------------------------------------------

/// Runs a faulty HDPLL+S+P stage under the full safety net (eager
/// cross-check + clean fallback ladder) and asserts the final verdict
/// is still the correct one for the instance.
fn assert_fault_contained(faults: FaultPlan, expect_sat: bool, netlist: &Netlist, goal: SignalId) {
    let learn = rtlsat::hdpll::LearnConfig::table2_for(netlist);
    let mut sup = Supervisor::new()
        .budget(Duration::from_secs(120))
        .weighted_stage(
            HdpllStage::new("hdpll-faulty", SolverConfig::structural_with_learning(learn))
                .with_faults(faults),
            1.0,
        )
        .weighted_stage(HdpllStage::new("hdpll-clean", SolverConfig::structural()), 1.0)
        .weighted_stage(EagerStage::default(), 1.0)
        .check_unsat_with(EagerStage::default(), Duration::from_secs(30));
    let result = sup.solve(netlist, goal);
    assert_eq!(
        result.verdict.is_sat(),
        expect_sat,
        "fault {faults:?} escaped as a wrong verdict (reports: {:?})",
        result
            .reports
            .iter()
            .map(|r| (r.stage.clone(), r.outcome.clone()))
            .collect::<Vec<_>>()
    );
    if let HdpllResult::Sat(model) = &result.verdict {
        assert!(eval::check_model(netlist, model, goal).unwrap());
    }
}

#[test]
fn fault_corrupt_learned_clause_is_contained() {
    let (netlist, goal) = itc99_known_sat();
    for at in [0, 3, 25] {
        assert_fault_contained(
            FaultPlan {
                corrupt_learned_clause: Some(at),
                ..FaultPlan::default()
            },
            true,
            &netlist,
            goal,
        );
    }
}

#[test]
fn fault_drop_narrowing_is_contained() {
    let (netlist, goal) = itc99_known_sat();
    for at in [1, 50, 500] {
        assert_fault_contained(
            FaultPlan {
                drop_narrowing: Some(at),
                ..FaultPlan::default()
            },
            true,
            &netlist,
            goal,
        );
    }
}

#[test]
fn fault_spurious_conflict_is_contained() {
    let (netlist, goal) = itc99_known_sat();
    for at in [1, 100, 2000] {
        assert_fault_contained(
            FaultPlan {
                spurious_conflict: Some(at),
                ..FaultPlan::default()
            },
            true,
            &netlist,
            goal,
        );
    }
}

#[test]
fn fault_stall_propagation_hits_deadline_not_hang() {
    // The stalled stage spins inside propagate(); only the in-loop
    // deadline poll can break it. The supervisor must time the stage
    // out within its slice and answer via the ladder.
    let (netlist, goal) = itc99_known_sat();
    let mut sup = Supervisor::new()
        .budget(Duration::from_secs(60))
        .weighted_stage(
            HdpllStage::new("hdpll-stalled", SolverConfig::structural()).with_faults(FaultPlan {
                stall_propagation: Some(10),
                ..FaultPlan::default()
            }),
            // Small weight: the stall burns its whole slice, so keep
            // that slice short and leave the rest for the real stages.
            1.0,
        )
        .weighted_stage(EagerStage::default(), 59.0);
    let start = Instant::now();
    let result = sup.solve(&netlist, goal);
    assert!(
        start.elapsed() < Duration::from_secs(55),
        "stalled stage hung past its slice"
    );
    assert!(result.verdict.is_sat());
    assert_eq!(result.answered_by.as_deref(), Some("eager-bitblast"));
    assert!(matches!(
        result.reports[0].outcome,
        StageOutcome::Unknown { .. }
    ));
}

#[test]
fn faults_on_unsat_instance_are_contained() {
    // The paired UNSAT workload: the subset-sum search refuted only by
    // exhaustive search — corrupted learning must not flip it to SAT
    // (certification rejects any bogus model) and a spurious conflict
    // must not be trusted blindly (the cross-check confirms UNSAT).
    let w = hotpath::mux_search(10);
    for faults in [
        FaultPlan {
            corrupt_learned_clause: Some(0),
            ..FaultPlan::default()
        },
        FaultPlan {
            drop_narrowing: Some(10),
            ..FaultPlan::default()
        },
        FaultPlan {
            spurious_conflict: Some(5),
            ..FaultPlan::default()
        },
    ] {
        assert_fault_contained(faults, false, &w.netlist, w.goal);
    }
}
