//! `bmc_b13_session`: incremental BMC sweeps over ITC'99 b13, as the
//! CLI's multi-goal path runs them. Each property gets a fresh
//! `SupervisedSession` with the default rungs (`rtl_serve::session_rungs`,
//! preprocessing on); each depth is one `extend` plus one assumption
//! query. Every answer is UNSAT with a checked assumption proof.
//!
//! The only workload that runs the session copy of the search loop and
//! `Checker::check_assumptions`, with writes (`extend`) beside reads
//! (queries).

use std::time::{Duration, Instant};

use rtl_hdpll::{
    Assumption, EngineStats, ObsConfig, ObsHandle, SessionCert, SolverConfig, SupervisedQuery,
    SupervisedSession,
};
use rtl_ir::seq::{SeqCircuit, Unroller};
use rtl_ir::Netlist;
use rtl_obs::ProfileSnapshot;
use rtl_proof::Checker;
use rtl_serve::SolveOptions;

use crate::pipeline::{elapsed_ns, search_layer, Verdict};
use crate::stats::SplitMix;
use crate::trace::{profile_leaves, row_ns, Counts, Layers, Tracer};
use crate::{rounds_for, Tally, Workload};

/// Swept properties and their frame counts; every depth is UNSAT.
const PROPERTIES: [(&str, usize); 5] = [("p1", 40), ("p2", 40), ("p3", 40), ("p5", 40), ("p8", 15)];
/// The warm-up sweeps run in each set-up (about 0.1 s).
const WARMUP: [(&str, usize); 2] = [("p1", 40), ("p5", 40)];

pub struct BmcSession {
    circuit: SeqCircuit,
    order: Vec<(&'static str, usize)>,
    rungs: Vec<(String, SolverConfig)>,
}

/// One property's session with the unroller that grows its netlist.
struct Sweep {
    unroller: Unroller,
    ladder: SupervisedSession,
}

impl BmcSession {
    fn start(&self, rungs: Vec<(String, SolverConfig)>) -> Result<Sweep, String> {
        let mut unroller = self.circuit.unroller();
        let mut base = unroller.base_netlist();
        unroller.push_frame(&mut base).map_err(|e| e.to_string())?;
        Ok(Sweep {
            unroller,
            ladder: SupervisedSession::with_rungs(&base, rungs).with_preproc(true),
        })
    }

    /// The answer at `depth`: `extend` by one frame (depth 0 builds the
    /// session instead), then the query `bad@depth`.
    fn answer(
        &self,
        sweep: &mut Option<Sweep>,
        prop: &str,
        depth: usize,
    ) -> Result<SupervisedQuery, String> {
        match sweep {
            None => *sweep = Some(self.start(self.rungs.clone())?),
            Some(s) => {
                let Sweep { unroller, ladder } = s;
                ladder.extend(|n| push_frame(unroller, n));
            }
        }
        let s = sweep.as_mut().expect("started above");
        let bad = s.unroller.bad(prop, depth).ok_or("no such property")?;
        Ok(s.ladder.solve(&[Assumption::yes(bad)]))
    }

    fn sweep(&self, prop: &str, depths: usize, tally: &mut Tally) -> Result<(), String> {
        let mut sweep = None;
        for depth in 0..depths {
            let t0 = Instant::now();
            let q = self.answer(&mut sweep, prop, depth)?;
            record(tally, t0.elapsed(), &q);
        }
        Ok(())
    }
}

fn push_frame(unroller: &mut Unroller, n: &mut Netlist) {
    unroller.push_frame(n).expect("b13 frames unroll");
}

fn certified(q: &SupervisedQuery) -> bool {
    q.answered_by.is_some() && q.certified.cert == SessionCert::ProofChecked
}

fn record(tally: &mut Tally, latency: Duration, q: &SupervisedQuery) {
    tally.answer(
        latency,
        Verdict::of(&q.certified.result),
        Verdict::Unsat,
        certified(q),
    );
}

fn counts(ladder: &SupervisedSession) -> Counts {
    ladder
        .stats()
        .map_or_else(Counts::default, |s| Counts::of(&s.engine))
}

/// Field-wise growth of cumulative engine counters.
fn engine_delta(now: &EngineStats, before: &EngineStats) -> EngineStats {
    EngineStats {
        conflicts: now.conflicts - before.conflicts,
        decisions: now.decisions - before.decisions,
        propagations: now.propagations - before.propagations,
        narrowings: now.narrowings - before.narrowings,
        restarts: now.restarts - before.restarts,
        lemmas_deleted: now.lemmas_deleted - before.lemmas_deleted,
        learned: now.learned - before.learned,
        fm_calls: now.fm_calls - before.fm_calls,
        fm_subcalls: now.fm_subcalls - before.fm_subcalls,
        mem_peak: now.mem_peak,
        ..EngineStats::default()
    }
}

/// Maps a session-query profile row to a layer. The certification
/// span is attached from the proof-logging session instead.
fn session_layer(path: &str) -> Option<&'static str> {
    match path {
        "preproc" => Some("ir.simplify"),
        "compile" => Some("hdpll.compile"),
        "predlearn" => Some("hdpll.predlearn"),
        _ => search_layer(path.strip_prefix("query;search;")?),
    }
}

/// A proof-free twin of a sweep, stepped in lockstep with the traced
/// one: its profile supplies the phase split, and the difference of
/// wall times is the proof-logging cost.
struct TwinStep {
    unroll_ns: i64,
    extend_ns: i64,
    query_ns: i64,
    profile: ProfileSnapshot,
    counts: Counts,
}

fn twin_step(
    bench: &BmcSession,
    twin: &mut Option<Sweep>,
    prop: &str,
    depth: usize,
) -> Result<TwinStep, String> {
    let mut unroll_ns = 0;
    let mut extend_ns = 0;
    match twin {
        None => {
            let free: Vec<(String, SolverConfig)> = bench
                .rungs
                .iter()
                .map(|(label, config)| (label.clone(), config.with_proof(false)))
                .collect();
            *twin = Some(bench.start(free)?);
        }
        Some(s) => {
            let Sweep { unroller, ladder } = s;
            let t0 = Instant::now();
            ladder.extend(|n| {
                let t1 = Instant::now();
                push_frame(unroller, n);
                unroll_ns = elapsed_ns(t1);
            });
            extend_ns = elapsed_ns(t0);
        }
    }
    let s = twin.as_mut().expect("started above");
    let handle = ObsHandle::armed(ObsConfig::profiled());
    s.ladder.set_obs(handle.clone());
    let bad = s.unroller.bad(prop, depth).ok_or("no such property")?;
    let t0 = Instant::now();
    let q = s.ladder.solve(&[Assumption::yes(bad)]);
    let query_ns = elapsed_ns(t0);
    if !q.certified.result.is_unsat() {
        return Err(format!(
            "proof-free twin answered {:?} at {prop}@{depth}",
            q.certified.result
        ));
    }
    Ok(TwinStep {
        unroll_ns,
        extend_ns,
        query_ns,
        profile: handle.profile_snapshot().unwrap_or_default(),
        counts: counts(&s.ladder),
    })
}

impl BmcSession {
    /// Builds the circuit and the default rungs, orders the properties
    /// by `seed` and runs the warm-up sweeps.
    pub fn setup(seed: u64) -> Result<Self, String> {
        let mut order = PROPERTIES.to_vec();
        SplitMix::new(seed).shuffle(&mut order);
        let w = BmcSession {
            circuit: rtl_itc99::b13(),
            order,
            rungs: rtl_serve::session_rungs(&SolveOptions::default())?,
        };
        let mut warm = Tally::default();
        for (prop, depths) in WARMUP {
            w.sweep(prop, depths, &mut warm)?;
        }
        if warm.failed > 0 {
            return Err(format!("{} warm-up answers failed", warm.failed));
        }
        Ok(w)
    }
}

impl Workload for BmcSession {
    fn run_for(&mut self, tally: &mut Tally, share: Duration) -> Result<Duration, String> {
        rounds_for(share, || {
            for &(prop, depths) in &self.order {
                self.sweep(prop, depths, tally)?;
            }
            Ok(())
        })
    }

    fn traced_round(
        &mut self,
        tracer: &mut Tracer,
        layers: &mut Layers,
        tally: &mut Tally,
    ) -> Result<(), String> {
        for &(prop, depths) in &self.order {
            let (mut plain, mut traced, mut twin): (Option<Sweep>, Option<Sweep>, Option<Sweep>) =
                (None, None, None);
            let mut before = EngineStats::default();
            for depth in 0..depths {
                // The answer as the default path gives it, untraced.
                let t0 = Instant::now();
                let reference = self.answer(&mut plain, prop, depth)?;
                let latency = t0.elapsed();
                record(tally, latency, &reference);

                // The same answer with a span around each public call.
                let handle = ObsHandle::armed(ObsConfig::profiled());
                if let Some(s) = &mut traced {
                    s.ladder.set_obs(handle.clone());
                }
                tracer.begin_answer();
                let mut extend = None;
                match &mut traced {
                    None => {
                        let (frame0, _) = tracer.span("ir.unroll", || {
                            let mut unroller = self.circuit.unroller();
                            let mut base = unroller.base_netlist();
                            unroller.push_frame(&mut base).map(|()| (unroller, base))
                        });
                        let (unroller, base) = frame0.map_err(|e| e.to_string())?;
                        tracer.enter("hdpll.session_new");
                        let mut ladder = SupervisedSession::with_rungs(&base, self.rungs.clone())
                            .with_preproc(true);
                        ladder.set_obs(handle.clone());
                        drop(base);
                        traced = Some(Sweep { unroller, ladder });
                        tracer.exit();
                    }
                    Some(Sweep { unroller, ladder }) => {
                        tracer.enter("hdpll.session_extend");
                        let mut unroll_ns = 0;
                        ladder.extend(|n| {
                            tracer.enter("ir.unroll");
                            push_frame(unroller, n);
                            let idx = tracer.exit();
                            unroll_ns = tracer.dur_ns(idx);
                        });
                        extend = Some((tracer.exit(), unroll_ns));
                    }
                }
                let s = traced.as_mut().expect("started above");
                let bad = s.unroller.bad(prop, depth).ok_or("no such property")?;
                let (q, query_idx) = tracer.span("hdpll.session_query", || {
                    s.ladder.solve(&[Assumption::yes(bad)])
                });
                tracer.end_answer();

                let step = twin_step(self, &mut twin, prop, depth)?;
                if Verdict::of(&q.certified.result) != Verdict::of(&reference.certified.result)
                    || certified(&q) != certified(&reference)
                {
                    return Err(format!(
                        "traced and untraced sessions disagree at {prop}@{depth}"
                    ));
                }
                let now = counts(&s.ladder);
                let untraced = counts(&plain.as_ref().expect("started").ladder);
                if now != untraced || now != step.counts {
                    return Err(format!(
                        "session counters diverge at {prop}@{depth}: traced {now:?}, \
                         untraced {untraced:?}, proof-free {:?}",
                        step.counts
                    ));
                }

                // Split the calls: extend = unroll + proof-mirror growth
                // + the rest; query = profiled phases + certification +
                // proof logging + the rest.
                if let Some((idx, unroll_ns)) = extend {
                    let logged = tracer.dur_ns(idx) - unroll_ns;
                    tracer.child(
                        idx,
                        "hdpll.prooflog",
                        logged - (step.extend_ns - step.unroll_ns),
                    );
                }
                let logged_profile = handle.profile_snapshot().unwrap_or_default();
                let certify_ns = row_ns(&logged_profile, "query;certify");
                let twin_certify_ns = row_ns(&step.profile, "query;certify");
                tracer.attach_profile(query_idx, &step.profile, session_layer);
                tracer.child(query_idx, "proof.check_assumptions", certify_ns);
                if depth == 0 {
                    let leaves: i64 = profile_leaves(&step.profile, |p| {
                        matches!(p, "preproc" | "compile" | "predlearn").then_some("")
                    })
                    .iter()
                    .map(|(_, ns)| ns)
                    .sum();
                    let outside = step.query_ns - row_ns(&step.profile, "query") - leaves;
                    tracer.child(query_idx, "hdpll.session_new", outside);
                }
                let query_prooflog_ns =
                    (tracer.dur_ns(query_idx) - certify_ns) - (step.query_ns - twin_certify_ns);
                tracer.child(query_idx, "hdpll.prooflog", query_prooflog_ns);
                layers.prooflog_twin_ns += query_prooflog_ns;
                layers.prooflog_profiled_ns += row_ns(&logged_profile, "query;search;proof");

                let stats = s.ladder.stats().map(|st| st.engine).unwrap_or_default();
                layers.add_engine(&engine_delta(&stats, &before));
                before = stats;
                layers.answers += 1;
                layers.untraced_ns += i64::try_from(latency.as_nanos()).unwrap_or(i64::MAX);
                // Re-check the answer's assumption proof with a fresh
                // checker, outside the answer, against the netlist the
                // session solved.
                if let (Some(p), Some(live)) = (&q.certified.proof, s.ladder.session()) {
                    let report =
                        Checker::check_assumptions(live.proof_netlist(), &p.assumptions, p)
                            .map_err(|e| format!("{prop}@{depth}: proof does not re-check: {e}"))?;
                    layers.proof_steps += u64::from(report.steps);
                    layers.proof_bytes += rtl_proof::format::print(p).len() as u64;
                }
                if let Some(pre) = s.ladder.session().and_then(|x| x.preproc_stats()) {
                    layers.signals_before += pre.signals_before as u64;
                    layers.signals_after += pre.signals_after as u64;
                }
            }
            if let Some(s) = &traced {
                layers.degradations += u64::from(s.ladder.degradations());
            }
        }
        Ok(())
    }
}
