//! Telemetry determinism and trust-boundary tests (DESIGN.md §2.9).
//!
//! The tracer is required to be (a) deterministic — events are
//! counter-stamped, never wall-clock-stamped, so two identical solves
//! yield byte-identical JSONL and equal metric snapshots — and (b)
//! read-only with respect to the search: arming it must not change a
//! single decision. A `FaultPlan`-perturbed solve must in turn produce a
//! *different* stream, proving the tracer observes the real engine and
//! not a mock.

use rtl_bench::hotpath;
use rtlsat::hdpll::{
    FaultPlan, HdpllResult, HdpllStage, LearningMode, ObsConfig, ObsHandle, Solver, SolverConfig,
    Supervisor,
};
use rtlsat::ir::Netlist;
use rtlsat::obs::{validate_jsonl, HistKind};

/// Solves one hot-path search workload with a fresh armed handle and
/// returns `(handle, result)`.
fn traced_solve(workload: &hotpath::Workload, faults: FaultPlan) -> (ObsHandle, HdpllResult) {
    let handle = ObsHandle::armed(ObsConfig::default());
    let mut solver = workload.solver();
    solver.set_obs(handle.clone());
    solver.inject_faults(faults);
    let result = solver.solve(workload.goal);
    (handle, result)
}

#[test]
fn identical_solves_yield_identical_streams_and_snapshots() {
    let workload = hotpath::mux_search(6);
    let (a, ra) = traced_solve(&workload, FaultPlan::default());
    let (b, rb) = traced_solve(&workload, FaultPlan::default());
    workload.check(&ra);
    workload.check(&rb);

    let ja = a.export_jsonl().unwrap();
    let jb = b.export_jsonl().unwrap();
    assert_eq!(ja, jb, "identical solves must trace byte-identically");
    assert_eq!(a.snapshot().unwrap(), b.snapshot().unwrap());

    // The streams are real search traces, not empty shells.
    let summary = validate_jsonl(&ja).expect("exported trace validates");
    assert!(summary.events > 0);
    assert_eq!(summary.dropped, 0);
    let kind = |name: &str| {
        let at = rtlsat::obs::TraceSummary::KINDS
            .iter()
            .position(|k| *k == name)
            .unwrap();
        summary.by_kind[at]
    };
    assert!(kind("decision") > 0, "search workload must decide");
    assert!(kind("conflict") > 0, "search workload must conflict");
    assert!(kind("backtrack") > 0, "search workload must backtrack");
}

#[test]
fn perturbed_solve_yields_a_different_stream() {
    let workload = hotpath::mux_search(6);
    let (clean, result) = traced_solve(&workload, FaultPlan::default());
    workload.check(&result);
    // A fabricated conflict at the 5th propagation step derails the
    // search immediately — if the tracer were a mock, the stream would
    // not notice.
    let (faulted, _) = traced_solve(
        &workload,
        FaultPlan {
            spurious_conflict: Some(5),
            ..FaultPlan::default()
        },
    );
    assert_ne!(
        clean.export_jsonl().unwrap(),
        faulted.export_jsonl().unwrap(),
        "a perturbed engine must produce a different event stream"
    );
}

#[test]
fn snapshot_counters_agree_with_engine_stats() {
    let workload = hotpath::mux_search(6);
    let handle = ObsHandle::armed(ObsConfig::default());
    let mut solver = workload.solver();
    solver.set_obs(handle.clone());
    workload.check(&solver.solve(workload.goal));

    let stats = solver.stats().engine;
    let snap = handle.snapshot().unwrap();
    for (name, v) in [
        ("decisions", stats.decisions),
        ("propagations", stats.propagations),
        ("narrowings", stats.narrowings),
        ("conflicts", stats.conflicts),
        ("learned", stats.learned),
        ("backtracks", stats.backtracks),
        ("fm_calls", stats.fm_calls),
    ] {
        assert_eq!(
            snap.counter(name),
            Some(v),
            "registry counter `{name}` must mirror EngineStats"
        );
    }
    assert_eq!(snap.peak("max_cqueue"), Some(stats.max_cqueue));
    // Every *analyzed* conflict feeds the lemma-width histogram (the
    // final level-0 refutation yields no lemma, so the total may run
    // short of the raw conflict count); every narrowing feeds the
    // magnitude histogram exactly.
    let lemmas = snap.hist(HistKind::LemmaWidth).total;
    assert!(
        lemmas > 0 && lemmas <= stats.conflicts,
        "lemma-width samples {lemmas} vs {} conflicts",
        stats.conflicts
    );
    assert_eq!(snap.hist(HistKind::NarrowMagnitude).total, stats.narrowings);
}

#[test]
fn arming_the_tracer_does_not_change_the_search() {
    let workload = hotpath::mux_search(6);
    let mut plain = workload.solver();
    workload.check(&plain.solve(workload.goal));

    let (handle, result) = traced_solve(&workload, FaultPlan::default());
    workload.check(&result);
    assert!(handle.trace_counts().unwrap().0 > 0);

    // Read-only tracer: both runs took exactly the same search path.
    let a = plain.stats().engine;
    let mut traced = workload.solver();
    traced.set_obs(ObsHandle::armed(ObsConfig::default()));
    workload.check(&traced.solve(workload.goal));
    let b = traced.stats().engine;
    assert_eq!(a.decisions, b.decisions);
    assert_eq!(a.propagations, b.propagations);
    assert_eq!(a.conflicts, b.conflicts);
    assert_eq!(a.backtracks, b.backtracks);
    assert_eq!(a.learned, b.learned);
}

#[test]
fn analysis_histograms_sample_every_conflict() {
    // Every conflict analysis, the final refutation included, feeds the
    // two analysis-cost histograms once: their totals are the conflict
    // count. They are histogram-only, so the armed run searches exactly
    // like the unarmed one, under hybrid and Boolean-only learning.
    let workload = hotpath::mux_search(6);
    for learning in [LearningMode::Hybrid, LearningMode::BoolOnly] {
        let config = SolverConfig {
            learning,
            ..workload.config
        };
        let mut plain = Solver::new(&workload.netlist, config);
        workload.check(&plain.solve(workload.goal));
        let handle = ObsHandle::armed(ObsConfig::default());
        let mut traced = Solver::new(&workload.netlist, config);
        traced.set_obs(handle.clone());
        workload.check(&traced.solve(workload.goal));
        let stats = traced.stats().engine;
        assert_eq!(plain.stats().engine, stats, "{learning:?}: arming moved the search");

        let snap = handle.snapshot().unwrap();
        assert!(stats.conflicts > 0, "{learning:?}: the workload must conflict");
        for kind in [HistKind::AnalysisSteps, HistKind::AnalysisTrail] {
            assert_eq!(
                snap.hist(kind).total,
                stats.conflicts,
                "{learning:?}: `{}` samples vs conflicts",
                kind.name()
            );
        }
    }
}

/// The supervisor demo instance: `both = (y = 0) ∧ (y > x)` over 4-bit
/// words is UNSAT; stage spans must appear in the trace and repeat
/// byte-identically across runs (wall-clock lives only in the reports).
fn supervised_trace() -> String {
    let mut n = Netlist::new("span_demo");
    let x = n.input_word("x", 4).unwrap();
    let y = n.input_word("y", 4).unwrap();
    let s = n.add(x, y).unwrap();
    let hit = n.cmp(rtlsat::ir::CmpOp::Eq, s, x).unwrap();
    let gt = n.cmp(rtlsat::ir::CmpOp::Gt, y, x).unwrap();
    let both = n.and(&[hit, gt]).unwrap();

    let handle = ObsHandle::armed(ObsConfig::default());
    let mut sup = Supervisor::new()
        .weighted_stage(HdpllStage::new("hdpll-sp", SolverConfig::structural()), 2.0)
        .with_obs(handle.clone());
    let result = sup.solve(&n, both);
    assert!(matches!(result.verdict, HdpllResult::Unsat));
    handle.export_jsonl().unwrap()
}

#[test]
fn supervisor_spans_are_traced_and_deterministic() {
    let a = supervised_trace();
    assert!(a.contains("\"e\":\"stage_start\",\"name\":\"hdpll-sp\""), "{a}");
    assert!(a.contains("\"e\":\"stage_end\""), "{a}");
    validate_jsonl(&a).expect("supervised trace validates");
    assert_eq!(a, supervised_trace(), "stage spans must not carry wall-clock");
}
