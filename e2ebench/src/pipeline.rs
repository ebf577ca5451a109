//! The supervised one-shot path, run whole and run decomposed.
//!
//! [`supervised`] is what `rtlsat <netlist> <goal>` and `rtl-serve` call:
//! `build_supervisor` then `Supervisor::solve`. [`traced_solve`] makes
//! the same answer from the calls that path composes — the simplifier,
//! `Solver::new`/`solve`/`take_proof`, and the certification the
//! supervisor applies (model replay on the original netlist, or the
//! independent proof checker) — with a span around each.

use std::time::Instant;

use rtl_hdpll::{
    Certification, EngineStats, HdpllResult, LearnConfig, ObsConfig, ObsHandle, Solver,
    SolverConfig, SupervisedResult,
};
use rtl_ir::{eval, simplify, Netlist, Op, SignalId};
use rtl_obs::ProfileSnapshot;
use rtl_proof::Checker;
use rtl_serve::SolveOptions;

use crate::trace::{row_ns, Counts, Layers, Tracer};

/// A verdict, as pinned and as answered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Sat,
    Unsat,
    Unknown,
}

impl Verdict {
    pub fn of(result: &HdpllResult) -> Self {
        match result {
            HdpllResult::Sat(_) => Verdict::Sat,
            HdpllResult::Unsat => Verdict::Unsat,
            HdpllResult::Unknown => Verdict::Unknown,
        }
    }
}

/// What one answer of the supervised path came to.
#[derive(Clone, Copy, Debug)]
pub struct Outcome {
    pub verdict: Verdict,
    /// SAT: the model satisfies the goal on the caller's netlist (the
    /// benchmark replays it itself). UNSAT: the supervisor certified it
    /// with a checked proof.
    pub certified: bool,
    /// Engine counters of the answering stage.
    pub counts: Option<Counts>,
}

/// Runs the default supervised ladder for `engine` on `netlist`, as the
/// CLI and the serve loop build it.
pub fn supervised(
    engine: &str,
    netlist: &Netlist,
    goal: SignalId,
    obs: Option<ObsHandle>,
) -> Result<SupervisedResult, String> {
    let opts = SolveOptions {
        engine: engine.to_string(),
        ..SolveOptions::default()
    };
    let mut sup = rtl_serve::build_supervisor(&opts, netlist)?;
    if let Some(handle) = obs {
        sup = sup.with_obs(handle);
    }
    Ok(sup.solve(netlist, goal))
}

/// Classifies a supervised result against the caller's netlist.
pub fn outcome(result: &SupervisedResult, netlist: &Netlist, goal: SignalId) -> Outcome {
    let certified = match &result.verdict {
        HdpllResult::Sat(model) => {
            result.answered_by.is_some() && eval::model_failure(netlist, model, goal).is_none()
        }
        HdpllResult::Unsat => result.unsat_certification() == Some(Certification::Proof),
        HdpllResult::Unknown => false,
    };
    let counts = result
        .answered_by
        .as_ref()
        .and_then(|name| result.reports.iter().find(|r| &r.stage == name))
        .and_then(|r| r.stats.as_ref())
        .map(|s| Counts::of(&s.engine));
    Outcome {
        verdict: Verdict::of(&result.verdict),
        certified,
        counts,
    }
}

/// The primary-stage solver configuration `build_supervisor` gives
/// `engine` (predicate-learning threshold from the original netlist).
fn stage_config(engine: &str, original: &Netlist) -> Result<SolverConfig, String> {
    match engine {
        "hdpll" => Ok(SolverConfig::hdpll()),
        "hdpll-s" => Ok(SolverConfig::structural()),
        "hdpll-sp" => Ok(SolverConfig::structural_with_learning(
            LearnConfig::table2_for(original),
        )),
        other => Err(format!("engine `{other}` has no decomposed path")),
    }
}

/// Maps a `Solver::solve` profile row to a layer (`compile` is timed
/// around `Solver::new` instead).
fn solver_layer(path: &str) -> Option<&'static str> {
    match path {
        "predlearn" => Some("hdpll.predlearn"),
        _ => search_layer(path.strip_prefix("search;")?),
    }
}

/// Maps a search-loop phase to its layer.
pub fn search_layer(phase: &str) -> Option<&'static str> {
    match phase {
        "propagate" => Some("hdpll.propagate"),
        "decide" => Some("hdpll.decide"),
        "analyze" => Some("hdpll.analyze"),
        "restart" => Some("hdpll.restart"),
        "proof" => Some("hdpll.prooflog"),
        "final_check" => Some("fm.final_check"),
        _ => None,
    }
}

/// A proof-free solve of the same instance, profiled: its phase split
/// and its wall time are what the proof-logging solve is compared with.
struct Twin {
    verdict: Verdict,
    engine: EngineStats,
    solve_ns: i64,
    profile: ProfileSnapshot,
}

fn twin_solve(target: &Netlist, goal: SignalId, config: SolverConfig) -> Twin {
    let mut solver = Solver::new(target, config.with_proof(false));
    let handle = ObsHandle::armed(ObsConfig::profiled());
    solver.set_obs(handle.clone());
    let t0 = Instant::now();
    let result = solver.solve(goal);
    let solve_ns = elapsed_ns(t0);
    Twin {
        verdict: Verdict::of(&result),
        engine: solver.stats().engine,
        solve_ns,
        profile: handle.profile_snapshot().unwrap_or_default(),
    }
}

pub fn elapsed_ns(t0: Instant) -> i64 {
    i64::try_from(t0.elapsed().as_nanos()).unwrap_or(i64::MAX)
}

/// A decomposed answer whose spans are recorded, waiting for its
/// proof-free twin (run outside the answer span) to split the solve.
pub struct Pending<'a> {
    netlist: &'a Netlist,
    goal: SignalId,
    pre: simplify::SimplifyResult,
    folded: bool,
    config: SolverConfig,
    solver: Solver,
    result: HdpllResult,
    proof: Option<rtl_proof::Proof>,
    certified: bool,
    solve_idx: usize,
    profiled: ObsHandle,
}

/// Re-drives one supervised answer through its constituent calls inside
/// the tracer's open answer span, with `profiled` (armed with the
/// profiler, made before the answer began) as the solver's telemetry.
/// Call [`Pending::finish`] once the answer span is closed.
pub fn traced_solve<'a>(
    tracer: &mut Tracer,
    engine: &str,
    netlist: &'a Netlist,
    goal: SignalId,
    profiled: ObsHandle,
) -> Result<Pending<'a>, String> {
    let (config, _) = tracer.span("hdpll.predlearn", || stage_config(engine, netlist));
    let config = config?;
    let (pre, _) = tracer.span("ir.simplify", || simplify::simplify(netlist, &[goal]));
    let goal_new = pre
        .map
        .get(goal)
        .ok_or("the goal has no simplified image")?;
    // A goal the rewrites folded to a constant is solved on the
    // original netlist, as the supervisor does.
    let folded = matches!(pre.netlist.op(goal_new), Op::Const(_));
    let (target, tgoal) = if folded {
        (netlist, goal)
    } else {
        (&pre.netlist, goal_new)
    };
    let (mut solver, _) = tracer.span("hdpll.compile", || {
        Solver::new(target, config.with_proof(true))
    });
    solver.set_obs(profiled.clone());
    let (result, solve_idx) = tracer.span("hdpll.solve", || solver.solve(tgoal));
    let (proof, _) = tracer.span("hdpll.solve", || solver.take_proof());
    let certified = match &result {
        HdpllResult::Sat(model) => {
            let (failure, _) = tracer.span("ir.certify_model", || {
                if folded {
                    eval::model_failure(netlist, model, goal)
                } else {
                    let translated = pre.map.translate_model(netlist, model);
                    eval::model_failure(netlist, &translated, goal)
                }
            });
            failure.is_none()
        }
        HdpllResult::Unsat => {
            let (checked, _) = tracer.span("proof.check", || {
                proof
                    .as_ref()
                    .filter(|p| p.is_complete())
                    .map(|p| Checker::check_goal(target, tgoal, p))
            });
            matches!(checked, Some(Ok(_)))
        }
        HdpllResult::Unknown => false,
    };
    Ok(Pending {
        netlist,
        goal,
        pre,
        folded,
        config,
        solver,
        result,
        proof,
        certified,
        solve_idx,
        profiled,
    })
}

impl Pending<'_> {
    /// Checks the decomposed answer against the supervised `reference`,
    /// runs the proof-free twin to split the solve span, and folds the
    /// answer's counters into `layers`.
    pub fn finish(
        self,
        tracer: &mut Tracer,
        layers: &mut Layers,
        reference: &Outcome,
    ) -> Result<(), String> {
        let verdict = Verdict::of(&self.result);
        let counts = Counts::of(&self.solver.stats().engine);
        if verdict != reference.verdict || self.certified != reference.certified {
            return Err(format!(
                "decomposed path answered {verdict:?} (certified {}), \
                 supervised path {:?} (certified {})",
                self.certified, reference.verdict, reference.certified
            ));
        }
        if Some(counts) != reference.counts {
            return Err(format!(
                "decomposed path counters {counts:?} differ from the supervised {:?}",
                reference.counts
            ));
        }
        let (target, tgoal) = if self.folded {
            (self.netlist, self.goal)
        } else {
            (
                &self.pre.netlist,
                self.pre
                    .map
                    .get(self.goal)
                    .expect("checked in traced_solve"),
            )
        };
        let twin = twin_solve(target, tgoal, self.config);
        if twin.verdict != verdict || Counts::of(&twin.engine) != counts {
            return Err(format!(
                "proof-free solve ({:?}, {:?}) differs from the proof-logging one ({verdict:?}, {counts:?})",
                twin.verdict,
                Counts::of(&twin.engine)
            ));
        }
        tracer.attach_profile(self.solve_idx, &twin.profile, solver_layer);
        let prooflog_ns = tracer.dur_ns(self.solve_idx) - twin.solve_ns;
        tracer.child(self.solve_idx, "hdpll.prooflog", prooflog_ns);

        let logged = self.profiled.profile_snapshot().unwrap_or_default();
        layers.prooflog_twin_ns += prooflog_ns;
        layers.prooflog_profiled_ns += row_ns(&logged, "search;proof");
        layers.add_engine(&self.solver.stats().engine);
        layers.signals_before += self.pre.stats.signals_before as u64;
        layers.signals_after += self.pre.stats.signals_after as u64;
        layers.predlearn_relations += self.solver.learn_report().map_or(0, |r| r.relations as u64);
        match (&self.result, &self.proof) {
            (HdpllResult::Sat(_), _) => layers.prooflog_wasted_ns += prooflog_ns,
            (HdpllResult::Unsat, Some(p)) => {
                layers.proof_steps += p.len() as u64;
                layers.proof_bytes += rtl_proof::format::print(p).len() as u64;
            }
            _ => {}
        }
        Ok(())
    }
}
