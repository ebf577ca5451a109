//! `oneshot_b04_sp` and `oneshot_b04_s`: one-shot solves of ITC'99 b04
//! property p1 unrolled to 6 frames (SAT), as `rtlsat <netlist> bad_p1`
//! runs them: parse the netlist text, build the default supervisor
//! (preprocessing, proof logging, model certification) and solve.
//!
//! Under `hdpll-sp` nearly all of an answer is conflict analysis; under
//! `hdpll-s` nearly all of it is proof logging. One size only: a median
//! over mixed sizes falls between size clusters.

use std::time::{Duration, Instant};

use rtl_hdpll::{ObsConfig, ObsHandle};
use rtl_ir::{text, Netlist, SignalId};

use crate::pipeline::{self, Outcome, Verdict};
use crate::trace::{Layers, Tracer};
use crate::{rounds_for, Tally, Workload};

/// Frames of the b04 unrolling.
const FRAMES: usize = 6;
/// The goal, as the unroller names the property's output.
const GOAL: &str = "bad_p1";
/// Pinned verdict of b04 p1 at 6 frames.
const EXPECTED: Verdict = Verdict::Sat;
/// Warm-up answers in each set-up.
const WARMUP: usize = 2;

pub struct OneShot {
    text: String,
    /// The primary engine, as `--engine` names it.
    engine: &'static str,
}

impl OneShot {
    /// Unrolls the input and runs the warm-up answers under `engine`.
    /// The input is the same for every seed.
    pub fn setup(engine: &'static str) -> Result<Self, String> {
        let bmc = rtl_itc99::b04()
            .unroll("p1", FRAMES)
            .map_err(|e| e.to_string())?;
        let w = OneShot {
            text: text::to_text(&bmc.netlist),
            engine,
        };
        for _ in 0..WARMUP {
            let (_, out) = w.answer()?;
            if out.verdict != EXPECTED || !out.certified {
                return Err(format!(
                    "warm-up answer {out:?}, expected a certified {EXPECTED:?}"
                ));
            }
        }
        Ok(w)
    }

    fn parse(&self) -> Result<(Netlist, SignalId), String> {
        let netlist = text::parse(&self.text).map_err(|e| e.to_string())?;
        let goal = rtl_proof::resolve_goal(&netlist, GOAL).ok_or("no goal signal")?;
        Ok((netlist, goal))
    }

    /// One answer on the CLI's path; returns its latency and outcome.
    fn answer(&self) -> Result<(Duration, Outcome), String> {
        let t0 = Instant::now();
        let (netlist, goal) = self.parse()?;
        let result = pipeline::supervised(self.engine, &netlist, goal, None)?;
        let latency = t0.elapsed();
        Ok((latency, pipeline::outcome(&result, &netlist, goal)))
    }
}

fn record(tally: &mut Tally, latency: Duration, out: &Outcome) {
    tally.answer(latency, out.verdict, EXPECTED, out.certified);
}

impl Workload for OneShot {
    fn run_for(&mut self, tally: &mut Tally, share: Duration) -> Result<Duration, String> {
        rounds_for(share, || {
            let (latency, out) = self.answer()?;
            record(tally, latency, &out);
            Ok(())
        })
    }

    fn traced_round(
        &mut self,
        tracer: &mut Tracer,
        layers: &mut Layers,
        tally: &mut Tally,
    ) -> Result<(), String> {
        let (latency, reference) = self.answer()?;
        record(tally, latency, &reference);
        let profiled = ObsHandle::armed(ObsConfig::profiled());
        tracer.begin_answer();
        let (parsed, _) = tracer.span("ir.parse", || self.parse());
        let (netlist, goal) = parsed?;
        let pending = pipeline::traced_solve(tracer, self.engine, &netlist, goal, profiled)?;
        tracer.end_answer();
        pending.finish(tracer, layers, &reference)?;
        layers.answers += 1;
        layers.untraced_ns += i64::try_from(latency.as_nanos()).unwrap_or(i64::MAX);
        Ok(())
    }
}
