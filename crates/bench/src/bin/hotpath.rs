//! Times the hot-path workloads and writes `BENCH_hotpath.json`.
//!
//! Usage:
//!
//! ```text
//! cargo run -p rtl-bench --release --bin hotpath -- \
//!     [--out BENCH_hotpath.json] [--baseline <old.json>] [--samples N] \
//!     [--gate-overhead FRAC] [--gate-profile-overhead FRAC] [--gate-preproc]
//! ```
//!
//! Each workload compiles its solver once, then runs one warm-up solve
//! plus `N` timed solves (default 10) — so the timings cover search
//! (propagation, conflict analysis, final check), not netlist
//! compilation. The JSON records min/median/mean nanoseconds per
//! workload, plus interleaved guarded samples (`guarded_min_ns`,
//! `guarded_median_ns`, `guard_overhead`) timing each workload with
//! the deadline and cancellation guard armed — the acceptance bar for
//! the budget checks is ≤ 2% overhead, measured median-vs-median over
//! the interleaved samples. A third interleaved sample set times each
//! workload with the telemetry tracer *armed* (`traced_median_ns`,
//! `trace_overhead`); the plain solver doubles as the tracing-off
//! measurement, since its hot path carries the disabled hooks. A
//! profiled twin (tracer + phase-attribution profiler armed) lands as
//! `profiled_median_ns` and `profile_overhead` — profiled-vs-traced,
//! isolating the profiler's marginal cost over an already-traced run.
//! `--gate-overhead FRAC` exits non-zero when any workload's
//! tracing-off guard overhead exceeds `FRAC` (CI uses `0.02`);
//! `--gate-profile-overhead FRAC` applies the same bar to the
//! profiled-vs-traced cost, judged on the minimum of two noise-robust
//! estimates: `profile_overhead_paired` (median of per-round
//! profiled/traced ratios — cancels machine drift) and the
//! floor-vs-floor ratio of the two twins (rejects upper-tail
//! scheduler noise); a genuine cost shifts both at once.
//! With `--baseline`, median times from a previous
//! run are merged in and a `speedup` factor (baseline ÷ current) is
//! emitted per workload.
//!
//! Each row also records the search effort of the run (`conflicts`,
//! `restarts_forced`, `restarts_scheduled`, `lemmas_live`,
//! `lemmas_deleted`), so timing regressions can be attributed to either
//! raw propagation cost or a search-quality change without re-running.
//!
//! Sub-2-millisecond rows (classified by the warm-up solve) take 8×
//! the sample count: their interleaved medians otherwise straddle
//! scheduler noise and flap around 1.0× run to run. The per-row count
//! lands in the JSON as `samples`, and a `--baseline` run asserts the
//! counts match — a speedup computed over mismatched sample counts is
//! not a like-for-like comparison.
//!
//! A fourth interleaved sample set times the word-level preprocessing
//! A/B twin: the same instance simplified by `rtl_ir::simplify`
//! (constant folding, structural hashing, COI pruning), solved under
//! the same config. The preprocessing itself runs once, outside the
//! timed region — the row isolates what the *search* gains from a
//! smaller netlist. Each row reports `preproc_median_ns`,
//! `preproc_speedup` (plain ÷ preprocessed, interleaved medians), and
//! the shrink counters `preproc_signals_removed` /
//! `preproc_subterms_shared`. `--gate-preproc` exits non-zero unless
//! at least two ITC'99-derived rows clear 1.2× and no row regresses
//! below 0.95×.

use std::fmt::Write as _;
use std::time::Instant;

use rtl_bench::hotpath;

/// The ITC'99-derived rows the `--gate-preproc` speedup bar applies to.
const ITC_ROWS: &[&str] = &["clause_heavy_b13", "itc99_b01_50", "itc99_b04_50"];

/// Rows whose warm-up solve is faster than this take the boosted
/// sample count. The classifier is the *minimum* of three warm-up
/// solves: container scheduling can stall a ~2 ms solve to ~10 ms, and
/// a single spiked warm-up must not flip the row's sample count
/// between a baseline run and its comparison run.
const FAST_ROW_NS: u128 = 4_000_000;

struct Row {
    name: &'static str,
    samples: usize,
    min_ns: u128,
    median_ns: u128,
    mean_ns: u128,
    /// Timings with the budget guard armed (deadline + cancel token
    /// polled in the propagation loop); the guard overhead is
    /// `guarded_median_ns / median_ns` — median-vs-median over
    /// *interleaved* samples, so both solvers see the same machine
    /// conditions and load spikes cancel out.
    guarded_min_ns: u128,
    guarded_median_ns: u128,
    /// Timings with the telemetry tracer armed (a fresh sink per
    /// sample, created outside the timed region); `trace_overhead` is
    /// `traced_median_ns / median_ns`. Informative — the gate applies
    /// to the tracing-off configuration, not to armed runs.
    traced_min_ns: u128,
    traced_median_ns: u128,
    /// Timings with the tracer *and* the phase-attribution profiler
    /// armed; `profile_overhead` is `profiled_median_ns /
    /// traced_median_ns` — the profiler's marginal cost over tracing.
    /// `profile_overhead_paired` is the median of per-round
    /// profiled/traced ratios (the twins run back to back each round,
    /// so pairing cancels machine drift); it is what
    /// `--gate-profile-overhead` bounds.
    profiled_min_ns: u128,
    profiled_median_ns: u128,
    profile_overhead_paired: f64,
    /// Timings of the preprocessed twin (simplified netlist, same
    /// config); `preproc_speedup` is `median_ns / preproc_median_ns`
    /// over interleaved samples. The `simplify` call itself is outside
    /// the timed region.
    preproc_min_ns: u128,
    preproc_median_ns: u128,
    preproc_signals_removed: u64,
    preproc_subterms_shared: u64,
    baseline_median_ns: Option<u128>,
    /// Search effort of the final plain solve: together with the
    /// timings these make regressions diagnosable from the JSON alone
    /// (a slowdown with flat conflicts is propagation cost; one with a
    /// conflict blow-up is a search-quality change).
    conflicts: u64,
    restarts_forced: u64,
    restarts_scheduled: u64,
    lemmas_live: u64,
    lemmas_deleted: u64,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = String::from("BENCH_hotpath.json");
    let mut baseline: Option<String> = None;
    let mut gate: Option<f64> = None;
    let mut gate_preproc = false;
    let mut gate_profile: Option<f64> = None;
    let mut samples = 10usize;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                out = args[i + 1].clone();
                i += 2;
            }
            "--baseline" => {
                baseline = Some(args[i + 1].clone());
                i += 2;
            }
            "--samples" => {
                samples = args[i + 1].parse().expect("--samples takes a number");
                i += 2;
            }
            "--gate-overhead" => {
                gate = Some(
                    args[i + 1]
                        .parse::<f64>()
                        .expect("--gate-overhead takes a fraction, e.g. 0.02"),
                );
                i += 2;
            }
            "--gate-preproc" => {
                gate_preproc = true;
                i += 1;
            }
            "--gate-profile-overhead" => {
                gate_profile = Some(
                    args[i + 1]
                        .parse::<f64>()
                        .expect("--gate-profile-overhead takes a fraction, e.g. 0.02"),
                );
                i += 2;
            }
            other => panic!("unknown argument {other}"),
        }
    }

    let baseline_rows: Vec<BaselineRow> = baseline
        .as_deref()
        .map(|path| {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
            parse_medians(&text)
        })
        .unwrap_or_default();

    let mut rows = Vec::new();
    for w in hotpath::all_workloads() {
        eprint!("{:<24} ", w.name);
        let mut solver = w.solver();
        let mut warmup_ns = u128::MAX;
        for _ in 0..3 {
            let warmup = Instant::now();
            w.check(&solver.solve(w.goal)); // warm-up + verdict check
            warmup_ns = warmup_ns.min(warmup.elapsed().as_nanos());
        }

        // Fast rows take 8× the samples: their interleaved medians
        // otherwise straddle scheduler noise. The warm-up solves
        // classify the row, so baseline and current runs agree (and
        // the `samples` field + baseline assert catch it if not).
        let row_samples = if warmup_ns < FAST_ROW_NS {
            samples.max(1) * 8
        } else {
            samples.max(1)
        };

        // Guarded twin: same instance with the budget guard armed — a
        // far-away deadline plus a live cancel token polled inside the
        // propagation loop. Samples are interleaved with the plain
        // solver so both see the same machine conditions and the
        // median-vs-median overhead is robust to load spikes;
        // acceptance bar for the guard is ≤ 2%.
        let mut guarded = w.guarded_solver();
        let token = rtl_hdpll::CancelToken::new();
        w.check(&w.run_guarded(&mut guarded, &token)); // warm-up

        // Traced twin: the same instance with the telemetry tracer
        // armed. A fresh sink is installed before each timed sample
        // (outside the timed region) so no run inherits a full buffer.
        let mut traced = w.solver();
        traced.set_obs(rtl_hdpll::ObsHandle::armed(rtl_hdpll::ObsConfig::default()));
        w.check(&traced.solve(w.goal)); // warm-up

        // Profiled twin: tracer plus the phase-attribution profiler.
        // Against the traced twin it isolates the profiler's marginal
        // cost (one clock read per phase transition); acceptance bar
        // for the profiler is ≤ 2% over traced.
        let mut profiled = w.solver();
        profiled.set_obs(rtl_hdpll::ObsHandle::armed(rtl_hdpll::ObsConfig::profiled()));
        w.check(&profiled.solve(w.goal)); // warm-up

        // Preprocessed twin: the same instance after the word-level
        // pipeline (fold → hash → COI), solved under the same config.
        // The simplify call happens here, outside every timed region.
        let (pre, pre_goal) = w.preprocessed();
        let mut presolver = rtl_hdpll::Solver::new(&pre.netlist, w.config);
        w.check(&presolver.solve(pre_goal)); // warm-up + verdict check

        let mut ns: Vec<u128> = Vec::with_capacity(row_samples);
        let mut gns: Vec<u128> = Vec::with_capacity(row_samples);
        let mut tns: Vec<u128> = Vec::with_capacity(row_samples);
        let mut prons: Vec<u128> = Vec::with_capacity(row_samples);
        let mut pns: Vec<u128> = Vec::with_capacity(row_samples);
        for _ in 0..row_samples {
            let start = Instant::now();
            let result = solver.solve(w.goal);
            ns.push(start.elapsed().as_nanos());
            w.check(&result);

            let start = Instant::now();
            let result = w.run_guarded(&mut guarded, &token);
            gns.push(start.elapsed().as_nanos());
            w.check(&result);

            traced.set_obs(rtl_hdpll::ObsHandle::armed(rtl_hdpll::ObsConfig::default()));
            let start = Instant::now();
            let result = traced.solve(w.goal);
            tns.push(start.elapsed().as_nanos());
            w.check(&result);

            profiled.set_obs(rtl_hdpll::ObsHandle::armed(rtl_hdpll::ObsConfig::profiled()));
            let start = Instant::now();
            let result = profiled.solve(w.goal);
            prons.push(start.elapsed().as_nanos());
            w.check(&result);

            let start = Instant::now();
            let result = presolver.solve(pre_goal);
            pns.push(start.elapsed().as_nanos());
            w.check(&result);
        }
        // Paired profiler overhead, computed before the sorts destroy
        // the round pairing: each round runs the traced and profiled
        // twins back to back, so the per-round ratio cancels the slow
        // machine drift that makes independently-sorted medians (or
        // mins) straddle a 2% bar on a jittery box. The median of the
        // paired ratios is what `--gate-profile-overhead` judges.
        let mut pratio: Vec<f64> = tns
            .iter()
            .zip(&prons)
            .map(|(&t, &p)| p as f64 / t as f64)
            .collect();
        pratio.sort_by(f64::total_cmp);
        let profile_overhead_paired = pratio[pratio.len() / 2] - 1.0;

        ns.sort_unstable();
        gns.sort_unstable();
        tns.sort_unstable();
        prons.sort_unstable();
        pns.sort_unstable();

        let effort = solver.stats().engine;
        let row = Row {
            name: w.name,
            samples: row_samples,
            min_ns: ns[0],
            median_ns: ns[ns.len() / 2],
            mean_ns: ns.iter().sum::<u128>() / ns.len() as u128,
            guarded_min_ns: gns[0],
            guarded_median_ns: gns[gns.len() / 2],
            traced_min_ns: tns[0],
            traced_median_ns: tns[tns.len() / 2],
            profiled_min_ns: prons[0],
            profiled_median_ns: prons[prons.len() / 2],
            profile_overhead_paired,
            preproc_min_ns: pns[0],
            preproc_median_ns: pns[pns.len() / 2],
            preproc_signals_removed: pre.stats.removed() as u64,
            preproc_subterms_shared: pre.stats.shares,
            baseline_median_ns: baseline_rows
                .iter()
                .find(|b| b.name == w.name)
                .map(|b| b.median_ns),
            conflicts: effort.conflicts,
            restarts_forced: effort.restarts,
            restarts_scheduled: effort.restarts_scheduled,
            lemmas_live: effort.learned.saturating_sub(effort.lemmas_deleted),
            lemmas_deleted: effort.lemmas_deleted,
        };
        // A speedup over mismatched sample counts is not like-for-like;
        // regenerate the baseline instead of comparing across counts.
        if let Some(b) = baseline_rows.iter().find(|b| b.name == w.name) {
            if let Some(base_samples) = b.samples {
                assert_eq!(
                    base_samples, row_samples as u128,
                    "{}: baseline took {} samples, this run {} — regenerate the baseline",
                    w.name, base_samples, row_samples
                );
            }
        }
        eprint!(
            "median {:>12.3} ms  guard {:+.2}%  trace {:+.2}%  profile {:+.2}%  preproc {:.2}x ({} samples)",
            row.median_ns as f64 / 1e6,
            (row.guarded_median_ns as f64 / row.median_ns as f64 - 1.0) * 100.0,
            (row.traced_median_ns as f64 / row.median_ns as f64 - 1.0) * 100.0,
            row.profile_overhead_paired * 100.0,
            row.median_ns as f64 / row.preproc_median_ns as f64,
            row.samples
        );
        if let Some(base) = row.baseline_median_ns {
            eprint!("  speedup {:.2}x", base as f64 / row.median_ns as f64);
        }
        eprintln!();
        rows.push(row);
    }

    // Sessioned-BMC A/B: one incremental session sweeping a buggy
    // saturating counter (compile once, extend + assumption query per
    // depth) against the fresh-per-depth monolithic twin. Samples are
    // interleaved — session sweep, then fresh sweep, per sample — so
    // the single-core speedup claim is robust to load drift.
    let ckt = hotpath::buggy_counter(24);
    let max_depth = 30;
    let found = hotpath::bmc_session_sweep(&ckt, max_depth); // warm-up
    hotpath::bmc_fresh_sweep(&ckt, found); // warm-up + agreement
    let mut sns: Vec<u128> = Vec::with_capacity(samples.max(1));
    let mut fns_: Vec<u128> = Vec::with_capacity(samples.max(1));
    for _ in 0..samples.max(1) {
        let start = Instant::now();
        let d = hotpath::bmc_session_sweep(&ckt, max_depth);
        sns.push(start.elapsed().as_nanos());
        assert_eq!(d, found, "bug depth drifted between samples");

        let start = Instant::now();
        hotpath::bmc_fresh_sweep(&ckt, found);
        fns_.push(start.elapsed().as_nanos());
    }
    sns.sort_unstable();
    fns_.sort_unstable();
    let session_ab = SessionAb {
        depths: found + 1,
        session_min_ns: sns[0],
        session_median_ns: sns[sns.len() / 2],
        fresh_min_ns: fns_[0],
        fresh_median_ns: fns_[fns_.len() / 2],
    };
    eprintln!(
        "{:<24} session {:>10.3} ms  fresh {:>10.3} ms  speedup {:.2}x ({} depths)",
        "session_bmc_counter",
        session_ab.session_median_ns as f64 / 1e6,
        session_ab.fresh_median_ns as f64 / 1e6,
        session_ab.fresh_median_ns as f64 / session_ab.session_median_ns as f64,
        session_ab.depths
    );

    std::fs::write(&out, render_json(&rows, &session_ab)).expect("write bench json");
    eprintln!("wrote {out}");

    // The CI gate: the tracing-off hot path (plain solver, disabled
    // hooks) must hold the guard-overhead bar on every workload.
    if let Some(bar) = gate {
        let offenders: Vec<String> = rows
            .iter()
            .filter_map(|r| {
                let overhead = r.guarded_median_ns as f64 / r.median_ns as f64 - 1.0;
                (overhead > bar).then(|| format!("{} {:+.2}%", r.name, overhead * 100.0))
            })
            .collect();
        if !offenders.is_empty() {
            eprintln!(
                "guard overhead above the {:.1}% bar: {}",
                bar * 100.0,
                offenders.join(", ")
            );
            std::process::exit(1);
        }
        eprintln!("guard overhead within the {:.1}% bar on all workloads", bar * 100.0);
    }

    // The profiler gate: the phase-attribution profiler's marginal
    // cost over an already-traced run must hold the bar on every
    // workload — one clock read per phase transition is the whole
    // budget, so a breach means a hot-loop tick crept in. A genuine
    // cost shifts every statistic of the distribution at once, while
    // scheduler noise inflates them one-sidedly (per-solve jitter on
    // the 15 ms rows is ±3% even back to back), so the gate judges
    // the *minimum* of two independent estimates: the paired
    // per-round ratio median (cancels slow machine drift) and the
    // floor-vs-floor ratio (rejects upper-tail noise). Tripping
    // requires both to exceed the bar.
    if let Some(bar) = gate_profile {
        let offenders: Vec<String> = rows
            .iter()
            .filter_map(|r| {
                let floor = r.profiled_min_ns as f64 / r.traced_min_ns as f64 - 1.0;
                let overhead = r.profile_overhead_paired.min(floor);
                (overhead > bar).then(|| format!("{} {:+.2}%", r.name, overhead * 100.0))
            })
            .collect();
        if !offenders.is_empty() {
            eprintln!(
                "profile overhead above the {:.1}% bar: {}",
                bar * 100.0,
                offenders.join(", ")
            );
            std::process::exit(1);
        }
        eprintln!(
            "profile overhead within the {:.1}% bar on all workloads",
            bar * 100.0
        );
    }

    // The preprocessing acceptance bar: at least two ITC'99-derived
    // rows must clear 1.2× and no row may regress below 0.95× —
    // preprocessing that loses time on any instance is not
    // certification-preserving *and* free.
    if gate_preproc {
        let speedup = |r: &Row| r.median_ns as f64 / r.preproc_median_ns as f64;
        let itc_wins = rows
            .iter()
            .filter(|r| ITC_ROWS.contains(&r.name) && speedup(r) >= 1.2)
            .count();
        let laggards: Vec<String> = rows
            .iter()
            .filter(|r| speedup(r) < 0.95)
            .map(|r| format!("{} {:.2}x", r.name, speedup(r)))
            .collect();
        if itc_wins < 2 || !laggards.is_empty() {
            eprintln!(
                "preproc gate failed: {itc_wins}/2 ITC'99 rows at >=1.2x; below 0.95x: [{}]",
                laggards.join(", ")
            );
            std::process::exit(1);
        }
        eprintln!("preproc gate passed: {itc_wins} ITC'99 rows at >=1.2x, none below 0.95x");
    }
}

/// The sessioned-BMC interleaved A/B measurement: one incremental
/// session sweep vs the fresh-per-depth twin over the same circuit.
struct SessionAb {
    depths: usize,
    session_min_ns: u128,
    session_median_ns: u128,
    fresh_min_ns: u128,
    fresh_median_ns: u128,
}

/// Renders the result rows as a stable, hand-rolled JSON document.
fn render_json(rows: &[Row], session_ab: &SessionAb) -> String {
    let mut s = String::from("{\n  \"benchmarks\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"name\": \"{}\", \"samples\": {}, \"min_ns\": {}, \"median_ns\": {}, \"mean_ns\": {}, \"guarded_min_ns\": {}, \"guarded_median_ns\": {}, \"guard_overhead\": {:.4}, \"traced_min_ns\": {}, \"traced_median_ns\": {}, \"trace_overhead\": {:.4}",
            r.name,
            r.samples,
            r.min_ns,
            r.median_ns,
            r.mean_ns,
            r.guarded_min_ns,
            r.guarded_median_ns,
            r.guarded_median_ns as f64 / r.median_ns as f64 - 1.0,
            r.traced_min_ns,
            r.traced_median_ns,
            r.traced_median_ns as f64 / r.median_ns as f64 - 1.0
        );
        let _ = write!(
            s,
            ", \"profiled_min_ns\": {}, \"profiled_median_ns\": {}, \"profile_overhead\": {:.4}, \"profile_overhead_paired\": {:.4}",
            r.profiled_min_ns,
            r.profiled_median_ns,
            r.profiled_median_ns as f64 / r.traced_median_ns as f64 - 1.0,
            r.profile_overhead_paired
        );
        let _ = write!(
            s,
            ", \"preproc_min_ns\": {}, \"preproc_median_ns\": {}, \"preproc_speedup\": {:.3}, \"preproc_signals_removed\": {}, \"preproc_subterms_shared\": {}",
            r.preproc_min_ns,
            r.preproc_median_ns,
            r.median_ns as f64 / r.preproc_median_ns as f64,
            r.preproc_signals_removed,
            r.preproc_subterms_shared
        );
        let _ = write!(
            s,
            ", \"conflicts\": {}, \"restarts_forced\": {}, \"restarts_scheduled\": {}, \"lemmas_live\": {}, \"lemmas_deleted\": {}",
            r.conflicts,
            r.restarts_forced,
            r.restarts_scheduled,
            r.lemmas_live,
            r.lemmas_deleted
        );
        if let Some(base) = r.baseline_median_ns {
            let _ = write!(
                s,
                ", \"baseline_median_ns\": {}, \"speedup\": {:.3}",
                base,
                base as f64 / r.median_ns as f64
            );
        }
        s.push('}');
        if i + 1 < rows.len() {
            s.push(',');
        }
        s.push('\n');
    }
    s.push_str("  ],\n");
    let _ = writeln!(
        s,
        "  \"session_bmc\": {{\"name\": \"session_bmc_counter\", \"depths\": {}, \"session_min_ns\": {}, \"session_median_ns\": {}, \"fresh_min_ns\": {}, \"fresh_median_ns\": {}, \"session_speedup\": {:.3}}}",
        session_ab.depths,
        session_ab.session_min_ns,
        session_ab.session_median_ns,
        session_ab.fresh_min_ns,
        session_ab.fresh_median_ns,
        session_ab.fresh_median_ns as f64 / session_ab.session_median_ns as f64
    );
    s.push('}');
    s.push('\n');
    s
}

/// One row of a previous run, as read back from its JSON.
struct BaselineRow {
    name: String,
    median_ns: u128,
    /// Absent in pre-`samples` baselines; the sample-count match is
    /// only asserted when both sides record it.
    samples: Option<u128>,
}

/// Extracts baseline rows from a previous run's JSON. This only needs
/// to read back [`render_json`] output (one benchmark object per
/// line), so a line-oriented scan is enough — no JSON crate needed.
fn parse_medians(text: &str) -> Vec<BaselineRow> {
    let mut rows = Vec::new();
    for line in text.lines() {
        let Some(name) = field_str(line, "\"name\": \"") else {
            continue;
        };
        // Prefer the run's own median; fall back to a carried-over
        // baseline median so chained --baseline runs keep the original.
        if let Some(median) = field_num(line, "\"median_ns\": ") {
            rows.push(BaselineRow {
                name: name.to_string(),
                median_ns: median,
                samples: field_num(line, "\"samples\": "),
            });
        }
    }
    rows
}

fn field_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let start = line.find(key)? + key.len();
    let rest = &line[start..];
    Some(&rest[..rest.find('"')?])
}

fn field_num(line: &str, key: &str) -> Option<u128> {
    let start = line.find(key)? + key.len();
    let digits: String = line[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}
