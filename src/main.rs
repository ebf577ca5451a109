//! `rtlsat` — command-line RTL satisfiability solver.
//!
//! Reads a netlist in the textual format of [`rtl_ir::text`], asserts a
//! named Boolean signal, and decides satisfiability with a selectable
//! engine. A comma-separated `<goal-signal>` list runs the
//! multi-property path instead: the netlist is compiled **once** into
//! an incremental [`rtlsat::hdpll::SupervisedSession`] and every goal
//! is answered as an assumption query against it (learned clauses are
//! shared across goals; each `UNSAT` carries its own checker-accepted
//! assumption proof):
//!
//! ```text
//! rtlsat <netlist-file> <goal-signal>[,<goal-signal>...]
//!        [--engine hdpll|hdpll-s|hdpll-sp|eager|lazy]
//!        [--timeout <secs>] [--check] [--fallback] [--dump-cnf <file>]
//!        [--proof <file>] [--stats] [--stats-json <file>] [--trace <file>]
//! rtlsat check-proof <netlist-file> <proof-file>
//! rtlsat check-trace <trace-file>
//! rtlsat report <dir> [--csv]
//! rtlsat profile <netlist-file> <goal-signal> [--engine <e>] [...]
//! rtlsat serve [--workers <n>] [--queue <n>] [--socket <path>] [...]
//! ```
//!
//! Every solve runs under the [`rtlsat::hdpll::Supervisor`]: a `SAT`
//! answer is printed only after its model has been certified by the
//! reference simulator, an `UNSAT` answer carries an independently
//! re-checked proof whenever the answering stage logged one, `--check`
//! additionally cross-checks proof-less `UNSAT` answers with the eager
//! bit-blast baseline under a tenth of the budget, and `--fallback`
//! appends the retry chain below the selected engine (`hdpll-sp` and
//! `hdpll-s` → `hdpll` → eager bit-blast, `lazy` → eager bit-blast) so
//! an exhausted budget can still be answered by a different strategy.
//! `--dump-cnf` additionally writes the bit-blasted DIMACS CNF of the
//! goal for use with external SAT solvers; `--proof` writes the checked
//! `UNSAT` proof in the [`rtlsat::proof::format`] text format; `--stats`
//! prints search statistics plus the per-stage supervisor report
//! (including how the verdict was certified) to stderr, versioned by a
//! `stats-format 1` header line.
//!
//! Telemetry ([`rtlsat::obs`], DESIGN.md §2.9): `--trace <file>` arms
//! the event tracer and writes the counter-stamped JSONL event stream
//! (decisions, propagation batches, conflicts, backtracks, predicate
//! probes, FM calls, stage transitions); `--stats-json <file>` writes a
//! machine-readable run record (verdict, certification, per-stage
//! spans, counters, peaks, histograms). Without either flag the tracer
//! is off and costs one branch per hook site.
//!
//! The `check-proof` subcommand re-validates a previously dumped proof
//! against the netlist from scratch — no solver code is involved, only
//! the independent [`rtlsat::proof`] checker. It exits `0` when the
//! proof is accepted and `1` when it is rejected. `check-trace`
//! validates a `--trace` file against the JSONL event schema (exit `0`
//! valid, `1` invalid). `report` aggregates every stats-json record in
//! a directory into the paper's per-circuit table layout (markdown, or
//! CSV with `--csv`). `serve` turns the solver into a long-running
//! batch/stream service reading JSONL solve requests from stdin or a
//! Unix socket — see [`rtlsat::serve`] and DESIGN.md §2.11.
//!
//! Exit codes (solve): `0` SAT, `20` UNSAT, `30` unknown (budget
//! exhausted), `40` unknown *because* an answer failed certification,
//! `2` usage or input errors.

use std::process::ExitCode;
use std::time::Duration;

use rtlsat::hdpll::{
    Assumption, Certification, HdpllResult, SessionCert, SolverStats, SupervisedResult,
    SupervisedSession, Supervisor,
};
use rtlsat::ir::{text, Netlist};
use rtlsat::obs::{self, ObsConfig, ObsHandle};
use rtlsat::proof;
use rtlsat::serve;

/// `print!` through [`write_stdout`].
macro_rules! out {
    ($($arg:tt)*) => { write_stdout(format_args!($($arg)*)) };
}

/// `println!` through [`write_stdout`].
macro_rules! outln {
    ($($arg:tt)*) => { write_stdout(format_args!("{}\n", format_args!($($arg)*))) };
}

/// The one writer of every command's stdout. Unlike `print!`, which
/// panics once the reader is gone, it stops writing quietly on a closed
/// pipe (`rtlsat … | head`), so the command still ends with its own
/// exit status. Any other write error is reported once on stderr.
fn write_stdout(args: std::fmt::Arguments<'_>) {
    use std::io::Write;
    use std::sync::atomic::{AtomicBool, Ordering};
    static CLOSED: AtomicBool = AtomicBool::new(false);
    if CLOSED.load(Ordering::Relaxed) {
        return;
    }
    if let Err(e) = std::io::stdout().write_fmt(args) {
        CLOSED.store(true, Ordering::Relaxed);
        if e.kind() != std::io::ErrorKind::BrokenPipe {
            eprintln!("cannot write to stdout: {e}");
        }
    }
}

struct Args {
    file: String,
    goal: String,
    engine: String,
    timeout: Option<Duration>,
    check: bool,
    fallback: bool,
    check_timeout: Option<Duration>,
    dump_cnf: Option<String>,
    proof_out: Option<String>,
    stats: bool,
    stats_json: Option<String>,
    trace: Option<String>,
    preproc: bool,
}

/// The usage text of every `rtlsat` command.
const USAGE: &str = "usage: rtlsat <netlist-file> <goal-signal> \
     [--engine hdpll|hdpll-s|hdpll-sp|eager|lazy] \
     [--timeout <secs>] [--check] [--fallback] \
     [--check-timeout <secs>] [--no-preproc] \
     [--dump-cnf <file>] [--proof <file>] [--stats] \
     [--stats-json <file>] [--trace <file>]\n\
     \x20      rtlsat preprocess <netlist-file> [<goal-signal>]\n\
     \x20      rtlsat check-proof <netlist-file> <proof-file> \
     [--preproc <bundle-file>]\n\
     \x20      rtlsat check-trace <trace-file>\n\
     \x20      rtlsat report <dir> [--csv]\n\
     \x20      rtlsat profile <netlist-file> <goal-signal> \
     [--engine <e>] [--timeout <secs>] [--no-preproc]\n\
     \x20      rtlsat serve [--workers <n>] [--queue <n>] \
     [--engine <e>] [--timeout <secs>] [--check] \
     [--fallback] [--check-timeout <secs>] \
     [--max-memory <bytes>] [--drain-timeout <secs>] \
     [--socket <path>] [--metrics-every <n|Ns>] \
     [--slow-ms <ms>] [--slow-dir <dir>] [--slow-ring <n>] \
     [--no-telemetry] [--no-preproc]";

fn parse_args() -> Result<Args, String> {
    let mut positional = Vec::new();
    let mut engine = "hdpll-sp".to_string();
    let mut timeout = None;
    let mut check = false;
    let mut fallback = false;
    let mut check_timeout = None;
    let mut dump_cnf = None;
    let mut proof_out = None;
    let mut stats = false;
    let mut stats_json = None;
    let mut trace = None;
    let mut preproc = true;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--engine" => {
                engine = it.next().ok_or("--engine needs a value")?;
            }
            "--timeout" => {
                let secs: u64 = it
                    .next()
                    .ok_or("--timeout needs a value")?
                    .parse()
                    .map_err(|_| "--timeout expects seconds")?;
                timeout = Some(Duration::from_secs(secs));
            }
            "--check" => check = true,
            "--fallback" => fallback = true,
            "--check-timeout" => {
                let secs: u64 = it
                    .next()
                    .ok_or("--check-timeout needs a value")?
                    .parse()
                    .map_err(|_| "--check-timeout expects seconds")?;
                check_timeout = Some(Duration::from_secs(secs));
            }
            "--dump-cnf" => {
                dump_cnf = Some(it.next().ok_or("--dump-cnf needs a path")?);
            }
            "--proof" => {
                proof_out = Some(it.next().ok_or("--proof needs a path")?);
            }
            "--stats" => stats = true,
            "--no-preproc" => preproc = false,
            "--stats-json" => {
                stats_json = Some(it.next().ok_or("--stats-json needs a path")?);
            }
            "--trace" => {
                trace = Some(it.next().ok_or("--trace needs a path")?);
            }
            "--help" | "-h" => return Err(USAGE.into()),
            // A typo must not change the solve silently.
            other if other.starts_with('-') || positional.len() == 2 => {
                return Err(format!("unexpected argument `{other}`\n{USAGE}"));
            }
            other => positional.push(other.to_string()),
        }
    }
    let mut pos = positional.into_iter();
    let file = pos.next().ok_or("missing <netlist-file> (see --help)")?;
    let goal = pos.next().ok_or("missing <goal-signal> (see --help)")?;
    Ok(Args {
        file,
        goal,
        engine,
        timeout,
        check,
        fallback,
        check_timeout,
        dump_cnf,
        proof_out,
        stats,
        stats_json,
        trace,
        preproc,
    })
}

/// Builds the supervisor for the selected engine via the shared
/// [`rtlsat::serve`] ladder builder: the engine itself as the primary
/// stage, plus (with `--fallback`) the degradation ladder and (with
/// `--check`) the eager `Unsat` cross-check under the clamped
/// [`rtlsat::serve::check_budget`].
fn build_supervisor(args: &Args, netlist: &Netlist) -> Result<Supervisor, String> {
    let opts = serve::SolveOptions {
        engine: args.engine.clone(),
        timeout: args.timeout,
        check: args.check,
        fallback: args.fallback,
        check_timeout: args.check_timeout,
        preproc: args.preproc,
        ..serve::SolveOptions::default()
    };
    serve::build_supervisor(&opts, netlist).map_err(|e| format!("{e} (see --help)"))
}

/// Prints the search statistics block (`--stats`) to stderr. The block
/// is versioned: the `stats-format 2` header pins the set and order of
/// the counter lines, so scripts scraping stderr can detect skew.
/// Version 2 split restarts into forced (level-0 relearn) vs scheduled
/// (EMA/Luby) and added the clause-DB reduction counters.
fn print_stats(stats: &SolverStats) {
    let e = &stats.engine;
    eprintln!("c stats-format    {}", obs::STATS_FORMAT);
    eprintln!("c search_time     {:?}", stats.search_time);
    eprintln!("c learn_time      {:?}", stats.learn_time);
    eprintln!("c decisions       {}", e.decisions);
    eprintln!("c propagations    {}", e.propagations);
    eprintln!("c narrowings      {}", e.narrowings);
    eprintln!("c clause_props    {}", e.clause_props);
    eprintln!("c conflicts       {}", e.conflicts);
    eprintln!("c learned         {}", e.learned);
    eprintln!("c backtracks      {}", e.backtracks);
    eprintln!("c restarts_forced {}", e.restarts);
    eprintln!("c restarts_sched  {}", e.restarts_scheduled);
    eprintln!("c db_reductions   {}", e.db_reductions);
    eprintln!("c lemmas_deleted  {}", e.lemmas_deleted);
    eprintln!("c fm_calls        {}", e.fm_calls);
    eprintln!("c fm_subcalls     {}", e.fm_subcalls);
    eprintln!("c j_conflicts     {}", e.j_conflicts);
    eprintln!("c probe_hits      {}", e.probe_hits);
    eprintln!("c probe_misses    {}", e.probe_misses);
    eprintln!("c max_cqueue      {}", e.max_cqueue);
    eprintln!("c max_clqueue     {}", e.max_clqueue);
    eprintln!("c ant_pool_peak   {}", e.ant_pool_peak);
    eprintln!("c mem_peak        {}", e.mem_peak);
    if let Some(reason) = stats.abort {
        eprintln!("c aborted         {reason}");
    }
}

/// Prints the supervisor's per-stage report (`--stats`) to stderr.
fn print_report(result: &SupervisedResult) {
    if let Some(pre) = &result.preproc {
        eprintln!(
            "c preproc         {} -> {} signals, {} shared, {} folds, {} pruned",
            pre.stats.signals_before,
            pre.stats.signals_after,
            pre.stats.shares,
            pre.stats.folds,
            pre.stats.coi_dropped
        );
    }
    for report in &result.reports {
        eprintln!(
            "c stage {:<16} {:>10.3} ms  {}",
            report.stage,
            report.time.as_secs_f64() * 1e3,
            report.outcome
        );
    }
    match &result.answered_by {
        Some(stage) => eprintln!("c answered_by     {stage}"),
        None => eprintln!("c answered_by     (none)"),
    }
    if let Some(cert) = result.unsat_certification() {
        let label = match cert {
            Certification::Proof => "proof checked",
            Certification::CrossChecked => "cross-checked",
            Certification::Uncertified => "uncertified",
        };
        eprintln!("c certification   {label}");
    }
}

/// Composes the `--stats-json` run record through the shared
/// [`rtlsat::serve`] record builder (one self-describing JSON object;
/// `rtlsat report` consumes a directory of these). The serve loop emits
/// the same record per request, with an envelope prefix.
fn stats_json_record(args: &Args, result: &SupervisedResult, handle: &ObsHandle) -> String {
    let case = std::path::Path::new(&args.file)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or(&args.file)
        .to_string();
    let meta = serve::SolveMeta {
        case,
        file: args.file.clone(),
        goal: args.goal.clone(),
        engine: args.engine.clone(),
    };
    serve::stats_json_record(&meta, result, handle, "")
}

/// Reads and parses a textual netlist, reporting errors CLI-style.
fn load_netlist(path: &str) -> Result<Netlist, String> {
    let source =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    text::parse(&source).map_err(|e| format!("{path}: {e}"))
}

/// `rtlsat preprocess <netlist-file> [<goal-signal>[,<goal-signal>...]]`:
/// runs the certification-preserving simplify pipeline and dumps the
/// simplified netlist to stdout. With goals, the pipeline also prunes
/// to their cone of influence; without, every signal keeps an image
/// (the incremental-session shape). The `c preproc` stats header goes
/// to stderr so stdout stays a parseable netlist.
fn preprocess_command(rest: &[String]) -> ExitCode {
    let (netlist_path, goal_arg) = match rest {
        [n] => (n, None),
        [n, g] => (n, Some(g)),
        _ => {
            eprintln!("usage: rtlsat preprocess <netlist-file> [<goal-signal>[,<goal-signal>...]]");
            return ExitCode::from(2);
        }
    };
    let netlist = match load_netlist(netlist_path) {
        Ok(n) => n,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let result = match goal_arg {
        Some(goal_list) => {
            let mut roots = Vec::new();
            for name in goal_list.split(',').filter(|s| !s.is_empty()) {
                let Some(goal) = proof::resolve_goal(&netlist, name) else {
                    eprintln!("no signal named `{name}` in `{netlist_path}`");
                    return ExitCode::from(2);
                };
                roots.push(goal);
            }
            rtlsat::ir::simplify::simplify(&netlist, &roots)
        }
        None => rtlsat::ir::simplify::simplify_full(&netlist),
    };
    let s = &result.stats;
    eprintln!("c preproc signals_before {}", s.signals_before);
    eprintln!("c preproc signals_after  {}", s.signals_after);
    eprintln!("c preproc folds          {}", s.folds);
    eprintln!("c preproc shares         {}", s.shares);
    eprintln!("c preproc ite_collapsed  {}", s.ite_collapsed);
    eprintln!("c preproc coi_dropped    {}", s.coi_dropped);
    out!("{}", text::to_text(&result.netlist));
    ExitCode::SUCCESS
}

/// `rtlsat check-proof <netlist> <proof> [--preproc <bundle>]`:
/// re-validates a dumped proof from scratch with the independent
/// checker. With `--preproc`, the proof is checked against the
/// *simplified* netlist published in the bundle — after the bundle
/// itself is validated by deterministically re-running the rewrites on
/// the original netlist (text, map, and goal image must all agree), so
/// the simplifier never joins the trusted base. Exit `0` accepted, `1`
/// rejected, `2` usage/input errors.
fn check_proof_command(rest: &[String]) -> ExitCode {
    let usage = "usage: rtlsat check-proof <netlist-file> <proof-file> [--preproc <bundle-file>]";
    let mut positional = Vec::new();
    let mut bundle_path = None;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--preproc" => match it.next() {
                Some(p) => bundle_path = Some(p.clone()),
                None => {
                    eprintln!("--preproc needs a path\n{usage}");
                    return ExitCode::from(2);
                }
            },
            other => positional.push(other.to_string()),
        }
    }
    let [netlist_path, proof_path] = &positional[..] else {
        eprintln!("{usage}");
        return ExitCode::from(2);
    };
    let netlist = match load_netlist(netlist_path) {
        Ok(n) => n,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let proof_text = match std::fs::read_to_string(proof_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read `{proof_path}`: {e}");
            return ExitCode::from(2);
        }
    };
    let proof = match proof::format::parse(&proof_text) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{proof_path}: {e}");
            return ExitCode::from(2);
        }
    };
    // With a bundle: validate it against the original, then check the
    // proof against the re-derived simplified netlist.
    if let Some(bundle_path) = bundle_path {
        let bundle_text = match std::fs::read_to_string(&bundle_path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot read `{bundle_path}`: {e}");
                return ExitCode::from(2);
            }
        };
        let bundle = match rtlsat::ir::simplify::bundle_parse(&bundle_text) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("{bundle_path}: {e}");
                return ExitCode::from(2);
            }
        };
        let derived = match rtlsat::ir::simplify::bundle_validate(&netlist, &bundle) {
            Ok(d) => d,
            Err(e) => {
                outln!("REJECTED: preproc bundle invalid: {e}");
                return ExitCode::from(1);
            }
        };
        let checked = match &bundle.goal {
            // Goal-mode bundle: a goal proof over the simplified
            // netlist, rooted at the published (and re-derived) image.
            Some((_, goal_new)) => proof::Checker::check_goal(&derived.netlist, *goal_new, &proof),
            // Full-mode bundle: an assumption proof that carries its
            // own assumed literals (the incremental-session shape).
            None => proof::Checker::check_assumptions(&derived.netlist, &proof.assumptions, &proof),
        };
        return match checked {
            Ok(report) => {
                outln!(
                    "VERIFIED ({} steps, {} search nodes; preproc bundle validated)",
                    report.steps,
                    report.search_nodes
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                outln!("REJECTED: {e}");
                ExitCode::from(1)
            }
        };
    }
    let Some(goal) = proof::resolve_goal(&netlist, &proof.goal) else {
        eprintln!(
            "{proof_path}: goal `{}` not found in `{netlist_path}`",
            proof.goal
        );
        return ExitCode::from(2);
    };
    match proof::Checker::check_goal(&netlist, goal, &proof) {
        Ok(report) => {
            outln!(
                "VERIFIED ({} steps, {} search nodes)",
                report.steps,
                report.search_nodes
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            outln!("REJECTED: {e}");
            ExitCode::from(1)
        }
    }
}

/// `rtlsat check-trace <trace-file>`: validates a `--trace` JSONL file
/// against the event schema. Exit `0` valid, `1` invalid, `2` usage.
fn check_trace_command(rest: &[String]) -> ExitCode {
    let [trace_path] = rest else {
        eprintln!("usage: rtlsat check-trace <trace-file>");
        return ExitCode::from(2);
    };
    let text = match std::fs::read_to_string(trace_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read `{trace_path}`: {e}");
            return ExitCode::from(2);
        }
    };
    match obs::validate_jsonl(&text) {
        Ok(summary) => {
            outln!(
                "VALID ({} events, {} dropped)",
                summary.events,
                summary.dropped
            );
            if summary.dropped > 0 {
                eprintln!(
                    "warning: trace is truncated — {} events were dropped at \
                     the ring-buffer cap; counters and histograms in the \
                     stats-json record remain complete",
                    summary.dropped
                );
            }
            for (kind, count) in obs::TraceSummary::KINDS.iter().zip(summary.by_kind.iter()) {
                if *count > 0 {
                    outln!("  {kind:<12} {count}");
                }
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            outln!("INVALID: {e}");
            ExitCode::from(1)
        }
    }
}

/// `rtlsat report <dir> [--csv]`: aggregates every `--stats-json`
/// record in a directory into the paper's per-circuit table layout.
fn report_command(rest: &[String]) -> ExitCode {
    let mut dir = None;
    let mut csv = false;
    for arg in rest {
        match arg.as_str() {
            "--csv" => csv = true,
            other if dir.is_none() => dir = Some(other.to_string()),
            other => {
                eprintln!("unexpected argument `{other}`\nusage: rtlsat report <dir> [--csv]");
                return ExitCode::from(2);
            }
        }
    }
    let Some(dir) = dir else {
        eprintln!("usage: rtlsat report <dir> [--csv]");
        return ExitCode::from(2);
    };
    let records = match obs::load_dir(std::path::Path::new(&dir)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if records.is_empty() {
        eprintln!("no stats-json records found in `{dir}`");
        return ExitCode::from(2);
    }
    if csv {
        out!("{}", obs::render_csv(&records));
    } else {
        out!("{}", obs::render_markdown(&records));
    }
    ExitCode::SUCCESS
}

/// `rtlsat profile <netlist-file> <goal-signal> [...]`: one supervised
/// solve with the phase-attribution profiler armed, printed as
/// folded-stack lines (`preproc 1234`, `hdpll-sp;search;propagate 987`,
/// …micros) on stdout — the input format of `flamegraph.pl` and any
/// folded-stack consumer. The verdict goes to stderr so stdout stays
/// pipeable. Exit `0` on any verdict, `2` on usage/input errors.
fn profile_command(rest: &[String]) -> ExitCode {
    let usage = "usage: rtlsat profile <netlist-file> <goal-signal> \
         [--engine <e>] [--timeout <secs>] [--no-preproc]";
    let mut positional = Vec::new();
    let mut engine = "hdpll-sp".to_string();
    let mut timeout = None;
    let mut preproc = true;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--engine" => match it.next() {
                Some(e) => engine = e.clone(),
                None => {
                    eprintln!("--engine needs a value\n{usage}");
                    return ExitCode::from(2);
                }
            },
            "--timeout" => match it.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(secs) => timeout = Some(Duration::from_secs(secs)),
                None => {
                    eprintln!("--timeout expects seconds\n{usage}");
                    return ExitCode::from(2);
                }
            },
            "--no-preproc" => preproc = false,
            "--help" | "-h" => {
                eprintln!("{usage}");
                return ExitCode::from(2);
            }
            other => positional.push(other.to_string()),
        }
    }
    let [netlist_path, goal_name] = &positional[..] else {
        eprintln!("{usage}");
        return ExitCode::from(2);
    };
    let netlist = match load_netlist(netlist_path) {
        Ok(n) => n,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let Some(goal) = proof::resolve_goal(&netlist, goal_name) else {
        eprintln!("no signal named `{goal_name}` in `{netlist_path}`");
        return ExitCode::from(2);
    };
    let opts = serve::SolveOptions {
        engine: engine.clone(),
        timeout,
        preproc,
        ..serve::SolveOptions::default()
    };
    let mut sup = match serve::build_supervisor(&opts, &netlist) {
        Ok(s) => s,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let handle = ObsHandle::armed(ObsConfig::profiled());
    sup = sup.with_obs(handle.clone());
    let result = sup.solve(&netlist, goal);
    let verdict = result.verdict.label();
    match handle.profile_snapshot() {
        Some(snap) => out!("{}", snap.folded()),
        None => eprintln!("c profiler produced no samples"),
    }
    eprintln!("c verdict {verdict} (engine {engine})");
    ExitCode::SUCCESS
}

/// `rtlsat serve [...]`: the long-running batch/stream solve service
/// (DESIGN.md §2.11). Reads JSONL requests from stdin (or accepts
/// connections on `--socket`), writes one response record per request
/// to stdout, and exits `0` after a graceful drain.
fn serve_command(rest: &[String]) -> ExitCode {
    let usage = "usage: rtlsat serve [--workers <n>] [--queue <n>] \
         [--engine <e>] [--timeout <secs>] [--check] [--fallback] \
         [--check-timeout <secs>] [--max-memory <bytes>] \
         [--drain-timeout <secs>] [--max-line-bytes <n>] \
         [--session-cache <n>] [--socket <path>] \
         [--metrics-every <n|Ns>] [--slow-ms <ms>] [--slow-dir <dir>] \
         [--slow-ring <n>] [--no-telemetry] [--no-preproc]";
    let mut config = serve::ServeConfig::default();
    let mut socket = None;
    let mut it = rest.iter();
    let parse_num = |name: &str, v: Option<&String>| -> Result<u64, String> {
        v.ok_or(format!("{name} needs a value"))?
            .parse()
            .map_err(|_| format!("{name} expects a non-negative integer"))
    };
    while let Some(arg) = it.next() {
        let r = match arg.as_str() {
            "--workers" => parse_num("--workers", it.next()).map(|n| {
                config.workers = (n as usize).max(1);
            }),
            "--queue" => parse_num("--queue", it.next()).map(|n| {
                config.queue_depth = (n as usize).max(1);
            }),
            "--engine" => match it.next() {
                Some(e) => {
                    config.engine = e.clone();
                    Ok(())
                }
                None => Err("--engine needs a value".into()),
            },
            "--timeout" => parse_num("--timeout", it.next()).map(|n| {
                config.timeout = Some(Duration::from_secs(n));
            }),
            "--check" => {
                config.check = true;
                Ok(())
            }
            "--fallback" => {
                config.fallback = true;
                Ok(())
            }
            "--check-timeout" => parse_num("--check-timeout", it.next()).map(|n| {
                config.check_timeout = Some(Duration::from_secs(n));
            }),
            "--max-memory" => parse_num("--max-memory", it.next()).map(|n| {
                config.max_memory = Some(n);
            }),
            "--drain-timeout" => parse_num("--drain-timeout", it.next()).map(|n| {
                config.drain_timeout = Duration::from_secs(n);
            }),
            "--max-line-bytes" => parse_num("--max-line-bytes", it.next()).map(|n| {
                config.max_line_bytes = (n as usize).max(64);
            }),
            "--session-cache" => parse_num("--session-cache", it.next()).map(|n| {
                config.session_cache = n as usize;
            }),
            "--socket" => match it.next() {
                Some(p) => {
                    socket = Some(p.clone());
                    Ok(())
                }
                None => Err("--socket needs a path".into()),
            },
            // `--metrics-every 50` emits a `metrics` record every 50
            // handled requests; `--metrics-every 10s` every 10 seconds.
            "--metrics-every" => match it.next() {
                Some(v) => match v.strip_suffix('s') {
                    Some(secs) => secs
                        .parse()
                        .map(|n: u64| config.metrics_every = Some(Duration::from_secs(n)))
                        .map_err(|_| "--metrics-every expects <n> requests or <n>s".to_string()),
                    None => v
                        .parse()
                        .map(|n: u64| config.metrics_every_n = Some(n.max(1)))
                        .map_err(|_| "--metrics-every expects <n> requests or <n>s".to_string()),
                },
                None => Err("--metrics-every needs a value".into()),
            },
            "--slow-ms" => parse_num("--slow-ms", it.next()).map(|n| {
                config.slow_ms = Some(n);
            }),
            "--slow-dir" => match it.next() {
                Some(p) => {
                    config.slow_dir = std::path::PathBuf::from(p);
                    Ok(())
                }
                None => Err("--slow-dir needs a path".into()),
            },
            "--slow-ring" => parse_num("--slow-ring", it.next()).map(|n| {
                config.slow_ring_cap = n.max(1);
            }),
            "--no-telemetry" => {
                config.telemetry = false;
                Ok(())
            }
            "--no-preproc" => {
                config.preproc = false;
                Ok(())
            }
            "--help" | "-h" => Err(usage.to_string()),
            other => Err(format!("unexpected argument `{other}`\n{usage}")),
        };
        if let Err(msg) = r {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    }
    let served = match socket {
        Some(path) => serve::serve_unix(std::path::Path::new(&path), &config),
        None => {
            // `Stdout` (unlike `StdoutLock`) is `Send`, which the worker
            // pool needs; the record mutex serializes writes anyway.
            let stdin = std::io::stdin();
            serve::serve(stdin.lock(), std::io::stdout(), &config)
        }
    };
    match served {
        Ok(summary) => {
            eprintln!(
                "c served {} requests ({} results, {} errors, {} overloaded, {} retries, drained: {})",
                summary.tally.requests,
                summary.tally.results,
                summary.tally.errors,
                summary.tally.overloaded,
                summary.tally.retries,
                summary.drained
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("serve: {e}");
            ExitCode::from(1)
        }
    }
}

/// The multi-property solve path: one incremental
/// [`SupervisedSession`] compiled from the netlist answers every goal
/// as an assumption query — the ladder degrades to a fresh session on
/// a rung failure, and each UNSAT carries a per-query checked
/// assumption proof (written to `<proof-path>.<goal>` with `--proof`).
///
/// Exit code: `0` if any goal is SAT, else `20` if all are UNSAT, else
/// `30` (some query exhausted its budget), `40` if a query's answer
/// failed certification on every rung.
fn solve_session(
    args: &Args,
    netlist: &Netlist,
    goal_names: &[&str],
    goals: &[rtlsat::ir::SignalId],
) -> ExitCode {
    if goals.is_empty() {
        eprintln!("missing <goal-signal> (see --help)");
        return ExitCode::from(2);
    }
    if args.dump_cnf.is_some() {
        eprintln!("--dump-cnf writes the CNF of one goal; a goal list has none (see --help)");
        return ExitCode::from(2);
    }
    let opts = serve::SolveOptions {
        engine: args.engine.clone(),
        timeout: args.timeout,
        fallback: args.fallback,
        preproc: args.preproc,
        ..serve::SolveOptions::default()
    };
    let rungs = match serve::session_rungs(&opts) {
        Ok(r) => r,
        Err(msg) => {
            eprintln!("{msg} (see --help)");
            return ExitCode::from(2);
        }
    };
    let mut session = SupervisedSession::with_rungs(netlist, rungs).with_preproc(args.preproc);
    let handle = if args.trace.is_some() {
        ObsHandle::armed(ObsConfig::default())
    } else {
        ObsHandle::off()
    };
    if handle.on() {
        session.set_obs(handle.clone());
    }
    let (mut sats, mut unsats, mut unknowns, mut cert_failures) = (0u32, 0u32, 0u32, 0u32);
    for (name, &goal) in goal_names.iter().zip(goals) {
        let q = session.solve(&[Assumption::yes(goal)]);
        if args.stats {
            for r in q.reports.iter().filter(|r| !r.outcome.is_accepted()) {
                eprintln!("c goal {name}: rung {} abandoned: {}", r.stage, r.outcome);
            }
        }
        match &q.certified.result {
            HdpllResult::Sat(model) => {
                sats += 1;
                let mut inputs: Vec<(&str, i64)> = model
                    .iter()
                    .filter_map(|(&sig, &v)| netlist.signal(sig).name().map(|n| (n, v)))
                    .collect();
                inputs.sort();
                let assigns: Vec<String> =
                    inputs.iter().map(|(n, v)| format!("{n}={v}")).collect();
                outln!("goal {name}: SAT  {}", assigns.join(" "));
            }
            HdpllResult::Unsat => {
                unsats += 1;
                let cert = match q.certified.cert {
                    SessionCert::ProofChecked => "proof checked",
                    _ => "uncertified",
                };
                outln!("goal {name}: UNSAT ({cert})");
                if let (Some(path), Some(p)) = (&args.proof_out, &q.certified.proof) {
                    if q.certified.cert == SessionCert::ProofChecked {
                        let out = format!("{path}.{name}");
                        if let Err(e) = std::fs::write(&out, proof::format::print(p)) {
                            eprintln!("cannot write `{out}`: {e}");
                            return ExitCode::from(2);
                        }
                        eprintln!("wrote checked UNSAT proof to {out}");
                    }
                }
            }
            HdpllResult::Unknown => {
                unknowns += 1;
                if q.reports.iter().any(|r| r.outcome.is_cert_failure()) {
                    cert_failures += 1;
                    outln!("goal {name}: UNKNOWN (certification failure)");
                } else {
                    outln!("goal {name}: UNKNOWN (budget exhausted)");
                }
            }
        }
    }
    // The per-goal assumption proofs are stated over the session's
    // preprocessed netlist: persist one full-mode bundle next to them
    // (assumption proofs carry their own literals, so no goal line).
    if let (true, Some(path), Some(live)) = (unsats > 0, &args.proof_out, session.session()) {
        if let (Some(map), Some(stats)) = (live.preproc_map(), live.preproc_stats()) {
            let res = rtlsat::ir::simplify::SimplifyResult {
                netlist: live.proof_netlist().clone(),
                map,
                stats,
            };
            let out = format!("{path}.preproc");
            if let Err(e) = std::fs::write(&out, rtlsat::ir::simplify::bundle_to_text_full(&res)) {
                eprintln!("cannot write `{out}`: {e}");
                return ExitCode::from(2);
            }
            eprintln!("wrote preproc bundle to {out}");
        }
    }
    if let Some(path) = &args.trace {
        let jsonl = handle.export_jsonl().unwrap_or_default();
        if let Err(e) = std::fs::write(path, jsonl) {
            eprintln!("cannot write `{path}`: {e}");
            return ExitCode::from(2);
        }
        let (events, dropped) = handle.trace_counts().unwrap_or((0, 0));
        eprintln!("c wrote event trace to {path} ({events} events, {dropped} dropped)");
    }
    if args.stats {
        eprintln!(
            "c session: {} goals on rung `{}` ({} degradations)",
            goals.len(),
            session.active_rung(),
            session.degradations()
        );
    }
    if args.stats_json.is_some() {
        eprintln!("c warning: --stats-json covers single-goal solves only; nothing written");
    }
    if args.check || args.check_timeout.is_some() {
        eprintln!(
            "c warning: --check covers single-goal solves only; \
             every session UNSAT is proof-checked, so none was cross-checked"
        );
    }
    outln!(
        "session: {sats} SAT, {unsats} UNSAT, {unknowns} unknown of {} goals",
        goals.len()
    );
    if sats > 0 {
        ExitCode::SUCCESS
    } else if unknowns == 0 {
        ExitCode::from(20)
    } else if cert_failures > 0 {
        ExitCode::from(40)
    } else {
        ExitCode::from(30)
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match raw.first().map(String::as_str) {
        Some("preprocess") => return preprocess_command(&raw[1..]),
        Some("check-proof") => return check_proof_command(&raw[1..]),
        Some("check-trace") => return check_trace_command(&raw[1..]),
        Some("report") => return report_command(&raw[1..]),
        Some("profile") => return profile_command(&raw[1..]),
        Some("serve") => return serve_command(&raw[1..]),
        _ => {}
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let netlist = match load_netlist(&args.file) {
        Ok(n) => n,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    // A comma-separated goal list runs the multi-property path: one
    // incremental session answers every goal (compile once, solve many).
    let goal_names: Vec<&str> = args.goal.split(',').filter(|s| !s.is_empty()).collect();
    let mut goals = Vec::with_capacity(goal_names.len());
    for name in &goal_names {
        let Some(goal) = proof::resolve_goal(&netlist, name) else {
            eprintln!("no signal named `{name}` in `{}`", args.file);
            return ExitCode::from(2);
        };
        if !netlist.ty(goal).is_bool() {
            eprintln!("goal `{name}` is not a Boolean signal");
            return ExitCode::from(2);
        }
        goals.push(goal);
    }
    let [goal] = goals[..] else {
        return solve_session(&args, &netlist, &goal_names, &goals);
    };

    if let Some(path) = &args.dump_cnf {
        // Bit-blast goal=1 into DIMACS for external SAT solvers.
        let cnf = rtlsat::bitblast::to_dimacs(&netlist, goal);
        if let Err(e) = std::fs::write(path, cnf) {
            eprintln!("cannot write `{path}`: {e}");
            return ExitCode::from(2);
        }
        eprintln!("wrote DIMACS CNF to {path}");
    }

    let mut sup = match build_supervisor(&args, &netlist) {
        Ok(s) => s,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    // Telemetry is armed only when requested; otherwise the solver
    // carries a disabled handle and every hook is a single branch.
    let handle = if args.trace.is_some() || args.stats_json.is_some() {
        ObsHandle::armed(ObsConfig::default())
    } else {
        ObsHandle::off()
    };
    if handle.on() {
        sup = sup.with_obs(handle.clone());
    }
    let result = sup.solve(&netlist, goal);
    if let Some(path) = &args.trace {
        let jsonl = handle.export_jsonl().unwrap_or_default();
        if let Err(e) = std::fs::write(path, jsonl) {
            eprintln!("cannot write `{path}`: {e}");
            return ExitCode::from(2);
        }
        let (events, dropped) = handle.trace_counts().unwrap_or((0, 0));
        eprintln!("c wrote event trace to {path} ({events} events, {dropped} dropped)");
    }
    if let Some(path) = &args.stats_json {
        let record = stats_json_record(&args, &result, &handle);
        if let Err(e) = std::fs::write(path, record) {
            eprintln!("cannot write `{path}`: {e}");
            return ExitCode::from(2);
        }
        eprintln!("c wrote stats-json record to {path}");
    }
    if args.stats {
        // The answering stage's solver statistics (when it has any),
        // then the full per-stage supervisor report.
        let answering = result
            .answered_by
            .as_ref()
            .and_then(|name| result.reports.iter().find(|r| &r.stage == name))
            .and_then(|r| r.stats.as_ref());
        match answering {
            Some(s) => print_stats(s),
            None => eprintln!("c (no statistics for engine `{}`)", args.engine),
        }
        print_report(&result);
    }
    match result.verdict {
        // The supervisor only ever reports a model it has certified
        // against the reference simulator.
        HdpllResult::Sat(model) => {
            outln!("SAT");
            let mut inputs: Vec<(&str, i64)> = model
                .iter()
                .filter_map(|(&sig, &v)| netlist.signal(sig).name().map(|n| (n, v)))
                .collect();
            inputs.sort();
            for (name, value) in inputs {
                outln!("  {name} = {value}");
            }
            ExitCode::SUCCESS
        }
        HdpllResult::Unsat => {
            outln!("UNSAT");
            if let Some(path) = &args.proof_out {
                // Only a *checked* proof is ever written — the
                // supervisor attaches one exactly when the verdict was
                // certified with `Certification::Proof`.
                match &result.proof {
                    Some(p) => {
                        if let Err(e) = std::fs::write(path, proof::format::print(p)) {
                            eprintln!("cannot write `{path}`: {e}");
                            return ExitCode::from(2);
                        }
                        eprintln!("wrote checked UNSAT proof to {path}");
                        // With preprocessing on, the proof is stated
                        // over the simplified netlist: persist the
                        // (map, simplified-text) evidence next to it so
                        // `check-proof --preproc` can re-derive and
                        // validate the whole chain offline.
                        if let Some(pre) = &result.preproc {
                            let res = rtlsat::ir::simplify::SimplifyResult {
                                netlist: pre.netlist.clone(),
                                map: pre.map.clone(),
                                stats: pre.stats,
                            };
                            let bundle =
                                rtlsat::ir::simplify::bundle_to_text(&args.goal, pre.goal, &res);
                            let out = format!("{path}.preproc");
                            if let Err(e) = std::fs::write(&out, bundle) {
                                eprintln!("cannot write `{out}`: {e}");
                                return ExitCode::from(2);
                            }
                            eprintln!("wrote preproc bundle to {out}");
                        }
                    }
                    None => eprintln!(
                        "warning: no checked proof available for this UNSAT \
                         (engine `{}`); nothing written to {path}",
                        args.engine
                    ),
                }
            }
            ExitCode::from(20)
        }
        HdpllResult::Unknown if result.cert_failures() > 0 => {
            outln!("UNKNOWN (certification failure)");
            ExitCode::from(40)
        }
        HdpllResult::Unknown => {
            outln!("UNKNOWN (budget exhausted)");
            ExitCode::from(30)
        }
    }
}
