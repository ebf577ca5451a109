//! End-to-end benchmark of the certified default solve path.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Every workload is closed loop with one
//! client on one thread. `--trace 0` times the program's own entry
//! points and prints the end-to-end metrics, in reference units that
//! take the host's speed out (see [`hostspeed`]); `--trace 1` re-drives
//! each answer through the public calls those entry points compose,
//! records a span around each, prints the per-layer metrics and writes
//! the spans to `e2ebench/target/spans-<workload>-<seed>.jsonl`. The last line
//! of standard output is one JSON object; a human-readable table goes to
//! standard error. See `e2ebench/README.md` for the workloads, the
//! metric map and the noise model.

mod cpu;
mod hostspeed;
mod oneshot;
mod pipeline;
mod serve;
mod session;
mod stats;
mod trace;

use std::time::{Duration, Instant};

use pipeline::Verdict;
use stats::Histogram;
use trace::{Layers, Tracer};

/// The workloads, by command-line name. `BENCHMARK.json` lists the last
/// two; the one-shot pair is kept for its traced split (see the README).
const WORKLOADS: [&str; 4] = [
    "oneshot_b04_sp",
    "oneshot_b04_s",
    "bmc_b13_session",
    "serve_golden_inline",
];

/// Segments per end-to-end run: each is `SETUPS` set-ups followed by a
/// share of the timed phase, so the set-up samples spread evenly over
/// the whole run and see the same mix of host load as the answers.
/// `setup_s` is their median. Each segment runs on the next allowed CPU
/// in turn (see [`cpu`]); an even count gives two CPUs equal shares.
const SEGMENTS: usize = 12;
const SETUPS: usize = 2;

/// Outcome counts and per-answer latencies of a run.
#[derive(Default)]
pub struct Tally {
    /// Wall time of each certified answer, milliseconds.
    pub latencies_ms: Histogram,
    /// The same in reference milliseconds (see [`hostspeed`]).
    pub ref_latencies_ms: Histogram,
    /// Answers attempted.
    pub attempted: u64,
    /// Failed answers: wrong verdict, uncertified, UNKNOWN, error or
    /// overloaded record.
    pub failed: u64,
    /// Answers whose verdict contradicts the pinned one.
    pub wrong: u64,
}

impl Tally {
    /// Records one answer that has just ended against its pinned
    /// verdict; `certified` says whether it carries the pinned
    /// certification (a checked model or proof). UNKNOWN and error
    /// answers fail without being wrong. Then lets the host-speed gauge
    /// sample, between this answer and the next.
    pub fn answer(
        &mut self,
        latency: Duration,
        verdict: Verdict,
        expected: Verdict,
        certified: bool,
    ) {
        self.answer_at(latency, hostspeed::scale(), verdict, expected, certified);
        hostspeed::tick();
    }

    /// [`Tally::answer`] for an answer recorded after the fact, with the
    /// host-speed scale read when it ended.
    pub fn answer_at(
        &mut self,
        latency: Duration,
        scale: f64,
        verdict: Verdict,
        expected: Verdict,
        certified: bool,
    ) {
        self.attempted += 1;
        if verdict != expected && verdict != Verdict::Unknown {
            self.wrong += 1;
        }
        if verdict == expected && certified {
            let ms = latency.as_secs_f64() * 1e3;
            self.latencies_ms.record(ms);
            self.ref_latencies_ms.record(ms * scale);
        } else {
            self.failed += 1;
        }
    }
}

/// One workload, set up (its inputs built through the program's public
/// functions and its warm-up answers run): closed-loop rounds of answers
/// on the default path, and the traced re-drive of the same answers.
pub trait Workload {
    /// Runs whole rounds of answers through the program's entry points
    /// for about `share` (see [`rounds_for`]); returns the time taken.
    fn run_for(&mut self, tally: &mut Tally, share: Duration) -> Result<Duration, String>;

    /// Runs one round of answers twice over: untraced through the entry
    /// points, and traced through their constituent calls, checking
    /// that both reach the same verdicts and search counts.
    fn traced_round(
        &mut self,
        tracer: &mut Tracer,
        layers: &mut Layers,
        tally: &mut Tally,
    ) -> Result<(), String>;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// Whether one more round brings a run that has done `rounds` rounds in
/// `elapsed` closer to `share` than stopping now does.
pub fn another_round(elapsed: Duration, rounds: u32, share: Duration) -> bool {
    elapsed + elapsed / (2 * rounds.max(1)) <= share
}

/// Runs whole rounds for about `share` (see [`another_round`]); at
/// least one round runs, and a run never ends on a partial round, so
/// every run holds the same mix of answers. Returns the time taken.
pub fn rounds_for(
    share: Duration,
    mut round: impl FnMut() -> Result<(), String>,
) -> Result<Duration, String> {
    let start = Instant::now();
    let mut rounds = 0u32;
    loop {
        round()?;
        rounds += 1;
        let elapsed = start.elapsed();
        if !another_round(elapsed, rounds, share) {
            return Ok(elapsed);
        }
    }
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// Sets a workload up from a seed.
type Setup<W> = fn(u64) -> Result<W, String>;

/// The end-to-end run: `SEGMENTS` × (`SETUPS` set-ups, then a timed
/// share of the run). Every time it reports is in reference units (see
/// [`hostspeed`]); the wall figures go to stderr beside them.
fn run_e2e<W: Workload>(args: &Args, setup: Setup<W>) -> Result<(Tally, Vec<Metric>), String> {
    let mut tally = Tally::default();
    let mut setups = Vec::with_capacity(SEGMENTS * SETUPS);
    let mut wall_setups = Vec::with_capacity(SEGMENTS * SETUPS);
    let mut timed = Duration::ZERO;
    let share = Duration::from_secs_f64(args.seconds / SEGMENTS as f64);
    let mut rotation = cpu::Rotation::new();
    hostspeed::install();
    for segment in 0..SEGMENTS {
        rotation.advance();
        let seed = args.seed.wrapping_add(segment as u64);
        let mut w = None;
        for _ in 0..SETUPS {
            drop(w.take());
            hostspeed::sample();
            let t0 = Instant::now();
            w = Some(setup(seed)?);
            let wall = t0.elapsed().as_secs_f64();
            hostspeed::sample();
            wall_setups.push(wall);
            setups.push(wall * hostspeed::scale());
        }
        hostspeed::take_spent();
        hostspeed::arm(true);
        let elapsed = w.expect("SETUPS > 0").run_for(&mut tally, share)?;
        hostspeed::arm(false);
        timed += elapsed.saturating_sub(hostspeed::take_spent());
    }
    let (lat, ref_lat) = (&tally.latencies_ms, &tally.ref_latencies_ms);
    // Reference seconds per wall second over the timed phase, weighted
    // by answer time.
    let scale = ref_lat.sum() / lat.sum();
    eprintln!(
        "  wall figures: setup_s {:.4}, answers_per_s {:.4}, latency_ms_p50 {:.4}, \
         latency_ms_p90 {:.4}; reference s per wall s {scale:.4}",
        stats::median(&wall_setups),
        lat.len() as f64 / timed.as_secs_f64(),
        lat.quantile(0.5),
        lat.quantile(0.9),
    );
    let metrics = vec![
        Metric {
            name: "setup_s",
            unit: "s",
            value: stats::median(&setups),
        },
        Metric {
            name: "answers_per_ref_s",
            unit: "1/s",
            value: ref_lat.len() as f64 / (timed.as_secs_f64() * scale),
        },
        Metric {
            name: "latency_ref_ms_p50",
            unit: "ms",
            value: ref_lat.quantile(0.5),
        },
        Metric {
            name: "latency_ref_ms_p90",
            unit: "ms",
            value: ref_lat.quantile(0.9),
        },
        Metric {
            name: "peak_rss_mb",
            unit: "MiB",
            value: stats::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?,
        },
    ];
    Ok((tally, metrics))
}

/// Where a traced run writes its spans, one JSON object a line.
fn spans_path(workload: &str, seed: u64) -> String {
    format!(
        "{}/target/spans-{workload}-{seed}.jsonl",
        env!("CARGO_MANIFEST_DIR")
    )
}

/// The traced run: rounds of traced answers until the time is up (at
/// least one round), then the spans are written out and the per-layer
/// metrics derived from them.
fn run_traced<W: Workload>(args: &Args, setup: Setup<W>) -> Result<(Tally, Vec<Metric>), String> {
    let mut tally = Tally::default();
    let mut tracer = Tracer::default();
    let mut layers = Layers::default();
    let mut w = setup(args.seed)?;
    let start = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    loop {
        w.traced_round(&mut tracer, &mut layers, &mut tally)?;
        if start.elapsed() >= budget {
            break;
        }
    }
    let path = spans_path(&args.workload, args.seed);
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("cannot write spans to `{path}`: {e}"))?;
    eprintln!("e2ebench: spans written to {path}");
    let metrics = layers.metrics(&tracer)?;
    Ok((tally, metrics))
}

fn run<W: Workload>(args: &Args, setup: Setup<W>) -> Result<(Tally, Vec<Metric>), String> {
    if args.trace {
        run_traced(args, setup)
    } else {
        run_e2e(args, setup)
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("e2ebench: {msg}");
            std::process::exit(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "oneshot_b04_sp" => run(&args, |_| oneshot::OneShot::setup("hdpll-sp")),
        "oneshot_b04_s" => run(&args, |_| oneshot::OneShot::setup("hdpll-s")),
        "bmc_b13_session" => run(&args, session::BmcSession::setup),
        "serve_golden_inline" => run(&args, serve::ServeGolden::setup),
        _ => unreachable!("validated by parse_args"),
    };
    let (tally, metrics) = match outcome {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("e2ebench: {}: {msg}", args.workload);
            std::process::exit(1);
        }
    };
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!(
            "e2ebench: {}: `{}` is not a finite number",
            args.workload, m.name
        );
        std::process::exit(1);
    }
    report(&args, &tally, &metrics);
    if tally.wrong > 0 || tally.failed > 0 {
        std::process::exit(1);
    }
}

/// Prints the human-readable table to stderr and the JSON result line
/// to stdout.
fn report(args: &Args, tally: &Tally, metrics: &[Metric]) {
    let mode = if args.trace { "traced" } else { "end-to-end" };
    eprintln!(
        "e2ebench {} ({mode}, seed {}, {} s): {} answers attempted, {} failed",
        args.workload, args.seed, args.seconds, tally.attempted, tally.failed
    );
    if !args.trace {
        let failed_frac = tally.failed as f64 / tally.attempted.max(1) as f64;
        eprintln!("  {:<32} {failed_frac:>14.4} ratio", "failed_frac");
        eprintln!(
            "  {:<32} {:>14} count",
            "latency_samples",
            tally.latencies_ms.len()
        );
    }
    for m in metrics {
        eprintln!("  {:<32} {:>14.4} {}", m.name, m.value, m.unit);
    }
    let correct = tally.wrong == 0 && tally.failed == 0 && tally.attempted > 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
}
