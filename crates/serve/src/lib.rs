//! `rtlsat serve` — a fault-tolerant batch/stream solve service
//! (DESIGN.md §2.11).
//!
//! The service reads one JSON solve request per line (JSONL) from stdin
//! or a Unix socket, runs each through the supervised solve ladder of
//! [`rtl_hdpll::supervise`], and streams back one versioned response
//! record per request. The response body for a completed solve is the
//! same stats-json record the one-shot CLI writes with `--stats-json`,
//! prefixed with serve-level envelope fields (`serve_format`, `type`,
//! `id`, `seq`, `attempts`), so `rtlsat report` can aggregate a served
//! session directly.
//!
//! Robustness invariants (pinned by `tests/serve.rs`):
//!
//! - **Exactly-once**: every input line produces exactly one response
//!   record — a `result` for a completed solve, an `error` for a
//!   malformed/unreadable/oversized request, an `overloaded` rejection
//!   when the bounded queue is full. The stream never stalls on a bad
//!   request and the process never crashes on one.
//! - **Isolation**: each solve runs under `catch_unwind` (on top of the
//!   supervisor's own per-stage isolation); a panic is degraded to a
//!   structured record, never a crash.
//! - **Deadlines**: every request carries its own wall-clock budget
//!   (`timeout_ms`), enforced by the engine's budget guard all the way
//!   into the FM oracle; `timeout_ms: 0` answers immediately.
//! - **Retry with degradation**: a solve that dies (stage panic
//!   escaping certification, or a memory abort) is retried once on the
//!   next rung of the degradation ladder (`hdpll-sp` → `hdpll` →
//!   `eager`) under the request's remaining deadline, then reported as
//!   a structured failure.
//! - **Backpressure**: at most `workers` solves run concurrently and at
//!   most `queue_depth` requests wait; beyond that the service answers
//!   `overloaded` instead of buffering without bound.
//! - **Graceful shutdown**: on EOF or an `{"op":"shutdown"}` control
//!   line the service stops accepting, drains in-flight solves under a
//!   drain deadline (cancelling them through the shared [`CancelToken`]
//!   if the deadline expires), writes a final `summary` record, and
//!   exits 0.
//!
//! [`CancelToken`]: rtl_hdpll::CancelToken

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod record;
pub mod request;
pub mod server;

use std::time::Duration;

use rtl_baselines::{EagerStage, LazyStage};
use rtl_hdpll::{FaultPlan, HdpllStage, LearnConfig, SolverConfig, Supervisor};
use rtl_ir::Netlist;

pub use metrics::{ServeMetrics, SlowRing};
pub use record::{error_record, overloaded_record, stats_json_record, summary_record, SolveMeta};
pub use request::{parse_line, NetlistSource, RequestLine, SolveRequest};
pub use server::{serve, serve_unix, ServeConfig, ServeSummary};

/// Locks `m` even if a thread panicked while holding it. A worker panic
/// between lock and unlock cannot happen (solves are wrapped in
/// `catch_unwind`), but stay robust anyway: a poisoned record stream or
/// metrics aggregate is still better than a dead server.
fn lock<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The serve response envelope format version (`"serve_format"` field).
///
/// v2 (this release): `overloaded` records carry `queue_depth` and
/// `in_flight`; a new `metrics` record type (opt-in via
/// `--metrics-every`) interleaves live counters and latency quantiles
/// into the stream; `{"op":"status"}` answers a Prometheus exposition.
pub const SERVE_FORMAT: u32 = 2;

/// Everything needed to build the supervised solve ladder for one
/// request — shared between the one-shot CLI and the serve loop.
#[derive(Clone, Debug)]
pub struct SolveOptions {
    /// Primary engine: `hdpll`, `hdpll-s`, `hdpll-sp`, `eager`, `lazy`.
    pub engine: String,
    /// Wall-clock budget for the whole ladder.
    pub timeout: Option<Duration>,
    /// Cross-check proof-less UNSAT answers with the eager baseline.
    pub check: bool,
    /// Append the degradation ladder behind the primary engine.
    pub fallback: bool,
    /// Explicit cross-check budget; defaults to a tenth of the main
    /// budget (5 s without one) and is always clamped to the main
    /// budget — see [`check_budget`].
    pub check_timeout: Option<Duration>,
    /// Approximate memory cap for the engine's growable structures.
    pub max_memory: Option<u64>,
    /// Deterministic fault injection for the primary HDPLL stage
    /// (testing only).
    pub fault: FaultPlan,
    /// Word-level preprocessing ([`rtl_ir::simplify`]) before the solve
    /// (on by default; the CLI's `--no-preproc` turns it off).
    pub preproc: bool,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            engine: "hdpll-sp".to_string(),
            timeout: None,
            check: false,
            fallback: false,
            check_timeout: None,
            max_memory: None,
            fault: FaultPlan::default(),
            preproc: true,
        }
    }
}

/// Resolves the UNSAT cross-check budget: the explicit request if any,
/// else a tenth of the main budget, else 5 s — and never more than the
/// main budget itself (a cross-check must not outlive the solve that
/// scheduled it).
#[must_use]
pub fn check_budget(timeout: Option<Duration>, requested: Option<Duration>) -> Duration {
    let base = requested.unwrap_or_else(|| timeout.map_or(Duration::from_secs(5), |t| t / 10));
    match timeout {
        Some(t) => base.min(t),
        None => base,
    }
}

/// What one engine runs as a ladder rung.
#[derive(Clone, Copy)]
enum Rung {
    /// An HDPLL-family rung, labelled with its engine name; its
    /// configuration reads a one-shot solve's netlist (`None` in a
    /// session, whose netlist grows).
    Hdpll(fn(Option<&Netlist>) -> SolverConfig),
    /// The eager bit-blast baseline, labelled `eager-bitblast`.
    Eager,
    /// The lazy CDP baseline, labelled `lazy-cdp`.
    Lazy,
}

/// The one ladder table, which every ladder is derived from: each
/// engine a request can name (the columns of the paper's Table 2), its
/// rung, and the engine the retry chain falls to next. Predicate
/// learning and structural decisions go first, then the hybrid engine
/// itself in favour of the eager bit-blast baseline.
const ENGINES: [(&str, Rung, Option<&str>); 5] = [
    ("hdpll-sp", Rung::Hdpll(learning), Some("hdpll")),
    ("hdpll-s", Rung::Hdpll(|_| SolverConfig::structural()), Some("hdpll")),
    ("hdpll", Rung::Hdpll(|_| SolverConfig::hdpll()), Some("eager")),
    ("lazy", Rung::Lazy, Some("eager")),
    ("eager", Rung::Eager, None),
];

/// `hdpll-sp`: predicate learning with Table 2's threshold for a
/// one-shot netlist, the default one in a session.
fn learning(netlist: Option<&Netlist>) -> SolverConfig {
    SolverConfig::structural_with_learning(
        netlist.map_or_else(LearnConfig::default, LearnConfig::table2_for),
    )
}

/// The ladder `opts` asks for, as `(engine, rung, budget weight)`: the
/// chosen engine at weight 2, then (with `fallback`) the retry chain
/// below it at weight 1 each.
fn ladder(opts: &SolveOptions) -> Result<Vec<(&'static str, Rung, f64)>, String> {
    let mut rungs = Vec::new();
    let mut engine = Some(opts.engine.as_str());
    while let Some(name) = engine {
        let Some(&(name, rung, next)) = ENGINES.iter().find(|(e, ..)| *e == name) else {
            return Err(format!("unknown engine `{name}`"));
        };
        rungs.push((name, rung, if rungs.is_empty() { 2.0 } else { 1.0 }));
        engine = next.filter(|_| opts.fallback);
    }
    Ok(rungs)
}

/// The next rung of the retry chain for a retried solve (`None` at the
/// end of the chain or for an unknown engine).
#[must_use]
pub fn degraded_engine(engine: &str) -> Option<&'static str> {
    ENGINES.iter().find(|(e, ..)| *e == engine).and_then(|&(.., next)| next)
}

/// Builds the rung configurations of an incremental
/// [`SupervisedSession`](rtl_hdpll::SupervisedSession) ladder for the
/// selected options: the HDPLL-family rungs of [`build_supervisor`]'s
/// ladder. Proof logging is always on — a session's Unsat answers are
/// certified per query by the assumption-proof checker, there is no
/// post-hoc goal proof to check instead. The wall-clock budget applies
/// *per query* (a session answers many).
///
/// # Errors
///
/// The bit-blast baselines (`eager`, `lazy`) keep no incremental state
/// and cannot run sessions; unknown engines are rejected as in
/// [`build_supervisor`].
pub fn session_rungs(opts: &SolveOptions) -> Result<Vec<(String, SolverConfig)>, String> {
    let mut rungs = Vec::new();
    for (engine, rung, _) in ladder(opts)? {
        match rung {
            Rung::Hdpll(config) => {
                let mut config = config(None).with_proof(true);
                config.limits.max_memory = opts.max_memory;
                config.limits.max_time = opts.timeout;
                rungs.push((engine.to_string(), config));
            }
            _ if rungs.is_empty() => {
                return Err(format!(
                    "engine `{engine}` cannot run incremental sessions (no persistent state)"
                ))
            }
            Rung::Eager | Rung::Lazy => {}
        }
    }
    Ok(rungs)
}

/// Builds the supervisor for the selected options: the engine itself as
/// the primary stage, plus (with `fallback`) the retry chain below it,
/// and (with `check`) the eager `Unsat` cross-check under
/// [`check_budget`].
pub fn build_supervisor(opts: &SolveOptions, netlist: &Netlist) -> Result<Supervisor, String> {
    let mut sup = Supervisor::new().with_preproc(opts.preproc);
    if let Some(t) = opts.timeout {
        sup = sup.budget(t);
    }
    for (i, (engine, rung, weight)) in ladder(opts)?.into_iter().enumerate() {
        sup = match rung {
            Rung::Hdpll(config) => {
                let mut config = config(Some(netlist));
                config.limits.max_memory = opts.max_memory;
                // Stages behind the primary never inherit the fault
                // plan: they are the recovery path.
                let faults = if i == 0 { opts.fault } else { FaultPlan::default() };
                sup.weighted_stage(HdpllStage::new(engine, config).with_faults(faults), weight)
            }
            Rung::Eager => sup.weighted_stage(EagerStage::default(), weight),
            Rung::Lazy => sup.weighted_stage(LazyStage::default(), weight),
        };
    }
    if opts.check {
        sup = sup.check_unsat_with(
            EagerStage::default(),
            check_budget(opts.timeout, opts.check_timeout),
        );
    }
    Ok(sup)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_budget_defaults_and_clamps() {
        // No budgets at all: the historical 5 s fallback.
        assert_eq!(check_budget(None, None), Duration::from_secs(5));
        // Only a main budget: a tenth of it.
        assert_eq!(
            check_budget(Some(Duration::from_secs(30)), None),
            Duration::from_secs(3)
        );
        // Explicit request wins…
        assert_eq!(
            check_budget(Some(Duration::from_secs(30)), Some(Duration::from_secs(9))),
            Duration::from_secs(9)
        );
        // …but is clamped to the main budget.
        assert_eq!(
            check_budget(Some(Duration::from_secs(2)), Some(Duration::from_secs(9))),
            Duration::from_secs(2)
        );
        // Explicit request without a main budget passes through.
        assert_eq!(
            check_budget(None, Some(Duration::from_secs(9))),
            Duration::from_secs(9)
        );
    }

    #[test]
    fn degradation_ladder_terminates() {
        let mut engine = "hdpll-sp";
        let mut rungs = vec![engine.to_string()];
        while let Some(next) = degraded_engine(engine) {
            engine = next;
            rungs.push(engine.to_string());
            assert!(rungs.len() < 10, "ladder must terminate");
        }
        assert_eq!(rungs, ["hdpll-sp", "hdpll", "eager"]);
        assert_eq!(degraded_engine("eager"), None);
        assert_eq!(degraded_engine("nonsense"), None);
    }

    #[test]
    fn every_ladder_reads_the_one_chain() {
        let netlist =
            rtl_ir::text::parse("netlist t\ninput a bool\nnode goal bool = and a a\n").unwrap();
        // Per engine: its `--fallback` supervisor stages (the first at
        // budget weight 2, the rest at 1; without `fallback` the first
        // alone), its `--fallback` session rungs (`None`: no sessions;
        // without `fallback` the engine alone), and the next engine of
        // the retry chain.
        let cases = [
            ("hdpll-sp", "hdpll-sp hdpll eager-bitblast", Some("hdpll-sp hdpll"), Some("hdpll")),
            ("hdpll-s", "hdpll-s hdpll eager-bitblast", Some("hdpll-s hdpll"), Some("hdpll")),
            ("hdpll", "hdpll eager-bitblast", Some("hdpll"), Some("eager")),
            ("eager", "eager-bitblast", None, None),
            ("lazy", "lazy-cdp eager-bitblast", None, Some("eager")),
        ];
        for (engine, stages, rungs, next) in cases {
            assert_eq!(degraded_engine(engine), next, "{engine}");
            for fallback in [false, true] {
                let tag = format!("{engine}, fallback {fallback}");
                let opts = SolveOptions {
                    engine: engine.to_string(),
                    fallback,
                    ..SolveOptions::default()
                };
                let keep = if fallback { usize::MAX } else { 1 };
                let stages: Vec<String> = stages
                    .split(' ')
                    .take(keep)
                    .enumerate()
                    .map(|(i, s)| format!("(\"{s}\", {}.0)", if i == 0 { 2 } else { 1 }))
                    .collect();
                let sup = format!("{:?}", build_supervisor(&opts, &netlist).unwrap());
                let want = format!("stages: [{}],", stages.join(", "));
                assert!(sup.contains(&want), "{tag}: {sup}");
                let labels: Result<Vec<String>, _> =
                    session_rungs(&opts).map(|r| r.into_iter().map(|(l, _)| l).collect());
                match rungs {
                    Some(rungs) => {
                        let want: Vec<&str> = rungs.split(' ').take(keep).collect();
                        assert_eq!(labels.unwrap(), want, "{tag}");
                    }
                    None => assert!(labels.is_err(), "{tag}: {labels:?}"),
                }
            }
        }
    }

    #[test]
    fn unknown_engine_is_rejected() {
        let netlist =
            rtl_ir::text::parse("netlist t\ninput a bool\nnode goal bool = and a a\n").unwrap();
        let opts = SolveOptions {
            engine: "frobnicator".to_string(),
            ..SolveOptions::default()
        };
        assert!(build_supervisor(&opts, &netlist).is_err());
    }
}
