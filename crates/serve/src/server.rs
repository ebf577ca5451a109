//! The serve loop: bounded worker pool, backpressure, per-request
//! isolation and retry, graceful drain.
//!
//! Concurrency model: the calling thread reads and parses the input
//! stream; parsed jobs go through a bounded [`mpsc::sync_channel`]
//! (`try_send` — a full queue answers `overloaded` instead of
//! blocking); `workers` threads pull jobs and solve them; every record
//! is written as one atomic line under an output mutex. With
//! `workers <= 1` no threads are spawned at all and requests are
//! processed inline in input order — the deterministic mode the
//! byte-stability tests pin.
//!
//! The solver stack is single-thread by construction (`Rc` in the
//! engine and telemetry), so nothing solver-shaped ever crosses a
//! thread: jobs carry only strings, and each worker builds the
//! netlist, supervisor, and telemetry sink locally per request.

use std::io::{self, BufRead, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, TrySendError};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use rtl_hdpll::{
    panic_message, preprocess, AbortReason, Assumption, CancelToken, FaultPlan, HdpllResult,
    PreprocSummary, SessionCert, SolverConfig, StageOutcome, StageReport, SupervisedQuery,
    SupervisedResult, SupervisedSession,
};
use rtl_ir::{Netlist, SignalId};
use rtl_obs::{ObsConfig, ObsHandle};

use crate::metrics::{ServeMetrics, SlowRing};
use crate::record::{self, SolveMeta, Tally};
use crate::request::{parse_line, NetlistSource, RequestLine, SolveRequest};
use crate::{build_supervisor, degraded_engine, session_rungs, SolveOptions};

/// Server-level configuration (per-request fields can override some of
/// these — see [`SolveRequest`]).
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads / maximum solves in flight. `1` (the default)
    /// processes requests inline on the reader thread, deterministically
    /// and in order.
    pub workers: usize,
    /// Bounded queue depth between reader and workers; a full queue
    /// answers `overloaded`. Irrelevant with `workers == 1`.
    pub queue_depth: usize,
    /// Default engine for requests without an `engine` field.
    pub engine: String,
    /// Default per-request budget for requests without `timeout_ms`.
    pub timeout: Option<Duration>,
    /// Default UNSAT cross-check toggle.
    pub check: bool,
    /// Default degradation-ladder toggle.
    pub fallback: bool,
    /// Default cross-check budget (clamped, see [`crate::check_budget`]).
    pub check_timeout: Option<Duration>,
    /// Default per-request memory cap.
    pub max_memory: Option<u64>,
    /// How long the drain may take after EOF/shutdown before in-flight
    /// solves are cancelled.
    pub drain_timeout: Duration,
    /// Input lines longer than this are rejected with an `error` record
    /// (the rest of the line is consumed, the stream continues).
    pub max_line_bytes: usize,
    /// Arm per-request telemetry so result records carry counters,
    /// histograms, and trace tallies (matches the one-shot CLI's
    /// `--stats-json` behaviour).
    pub telemetry: bool,
    /// Capacity of the per-worker compile cache: repeated requests for
    /// the same netlist content and engine reuse one incremental
    /// [`SupervisedSession`] (compile + predicate learning done once,
    /// learned clauses retained) instead of recompiling from scratch.
    /// Least-recently-used entries are evicted beyond the cap. `0` (the
    /// default) disables caching: session reuse accumulates engine
    /// statistics across requests, so the stateless path stays the
    /// default to keep repeated solves byte-identical. Result records on
    /// the cached path report a `compile_cache_hit` /
    /// `compile_cache_miss` counter for the request. Requests that ask
    /// for a cross-check, a fault plan, or a bit-blast baseline engine
    /// bypass the cache.
    pub session_cache: usize,
    /// Word-level preprocessing before each solve (on by default; the
    /// CLI's `--no-preproc` turns it off). On the cached-session path
    /// the cache key is the *post-preprocessing* netlist text, so
    /// requests differing only in dead logic share a compiled session.
    pub preproc: bool,
    /// Interleave a `metrics` record into the stream every N answered
    /// requests (`--metrics-every <n>`). `None` (the default) keeps the
    /// stream free of wall-clock records — the byte-determinism mode.
    pub metrics_every_n: Option<u64>,
    /// Interleave a `metrics` record when this much wall clock passed
    /// since the previous one (`--metrics-every <secs>s`). Checked at
    /// record-write time, so an idle stream writes none.
    pub metrics_every: Option<Duration>,
    /// Capture full diagnostics (result record with profile section,
    /// request trace) for requests slower than this many milliseconds
    /// into the [`SlowRing`]. Also arms the phase profiler on every
    /// request so the captured record carries a `profile` section.
    pub slow_ms: Option<u64>,
    /// Directory of the slow-request capture ring (default `slow/`).
    pub slow_dir: std::path::PathBuf,
    /// Maximum number of capture files kept in the slow ring.
    pub slow_ring_cap: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 1,
            queue_depth: 16,
            engine: "hdpll-sp".to_string(),
            timeout: None,
            check: false,
            fallback: false,
            check_timeout: None,
            max_memory: None,
            drain_timeout: Duration::from_secs(5),
            max_line_bytes: 1 << 20,
            telemetry: true,
            session_cache: 0,
            preproc: true,
            metrics_every_n: None,
            metrics_every: None,
            slow_ms: None,
            slow_dir: std::path::PathBuf::from("slow"),
            slow_ring_cap: 32,
        }
    }
}

/// A per-worker LRU cache of incremental sessions, keyed by the content
/// hash of (engine, fallback flag, memory cap, netlist text — the
/// *post-preprocessing* text plus goal image when preprocessing is on,
/// so dead-logic variants of one problem share a session). Sessions
/// are deliberately worker-local: the solver stack is single-thread by
/// construction, so nothing here ever crosses a thread.
struct SessionCache {
    cap: usize,
    tick: u64,
    entries: Vec<CacheEntry>,
}

struct CacheEntry {
    key: u64,
    last_used: u64,
    ladder: SupervisedSession,
}

impl SessionCache {
    fn new(cap: usize) -> Self {
        SessionCache {
            cap,
            tick: 0,
            entries: Vec::new(),
        }
    }

    /// Looks up (bumping recency) an existing ladder.
    fn get(&mut self, key: u64) -> Option<&mut SupervisedSession> {
        self.tick += 1;
        let tick = self.tick;
        let entry = self.entries.iter_mut().find(|e| e.key == key)?;
        entry.last_used = tick;
        Some(&mut entry.ladder)
    }

    /// Inserts a freshly built ladder, evicting the least-recently-used
    /// entry when the cap is reached, and returns it.
    fn insert(&mut self, key: u64, ladder: SupervisedSession) -> &mut SupervisedSession {
        self.tick += 1;
        if self.entries.len() >= self.cap {
            if let Some(lru) = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i)
            {
                self.entries.swap_remove(lru);
            }
        }
        self.entries.push(CacheEntry {
            key,
            last_used: self.tick,
            ladder,
        });
        let last = self.entries.len() - 1;
        &mut self.entries[last].ladder
    }

    /// Drops a ladder (after a failed build or an escaped panic).
    fn remove(&mut self, key: u64) {
        self.entries.retain(|e| e.key != key);
    }
}

/// FNV-1a over the request facets that determine the compiled problem.
fn content_key(engine: &str, fallback: bool, max_memory: Option<u64>, source: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    eat(engine.as_bytes());
    eat(&[0, u8::from(fallback)]);
    eat(&max_memory.unwrap_or(u64::MAX).to_le_bytes());
    eat(&[0]);
    eat(source.as_bytes());
    h
}

/// Projects one session query into the [`SupervisedResult`] shape the
/// record builder consumes: the query's rung reports become its stages,
/// and only a proof-checked Unsat carries its proof. When the session
/// solved the stage-0 image of the request (`original`), a Sat model is
/// certified against the request's own netlist; one it fails there
/// discredits the answer instead of shipping it.
fn session_result(
    q: SupervisedQuery,
    original: Option<(&Netlist, SignalId, &PreprocSummary)>,
) -> SupervisedResult {
    let proof = (q.certified.cert == SessionCert::ProofChecked)
        .then_some(q.certified.proof)
        .flatten();
    let mut result = SupervisedResult {
        verdict: q.certified.result,
        answered_by: q.answered_by,
        reports: q.reports,
        proof,
        preproc: None,
    };
    if let (HdpllResult::Sat(model), Some((netlist, goal, pre))) = (&result.verdict, original) {
        result.verdict = match pre.certify_model(netlist, goal, model) {
            Ok(model) => HdpllResult::Sat(model),
            Err(_) => {
                result.reports.push(StageReport {
                    stage: "preproc-translate".to_string(),
                    outcome: StageOutcome::CertFailed {
                        detail: "translated model rejected by the original netlist".to_string(),
                    },
                    time: Duration::ZERO,
                    stats: None,
                });
                result.answered_by = None;
                HdpllResult::Unknown
            }
        };
    }
    result
}

/// What one served stream did, returned to the caller after the final
/// `summary` record is written.
#[derive(Clone, Copy, Debug)]
pub struct ServeSummary {
    /// Per-record-type counts (mirrors the `summary` record).
    pub tally: Tally,
    /// `false` when the drain deadline expired and in-flight solves
    /// were cancelled.
    pub drained: bool,
    /// `true` when the stream ended with an explicit
    /// `{"op":"shutdown"}` (relevant for socket mode, where it shuts
    /// the whole server down rather than just the connection).
    pub shutdown: bool,
}

/// One queued solve job. Only plain data crosses the channel; the
/// worker rebuilds netlist/supervisor/telemetry locally. The deadline
/// is stamped at *enqueue* time so queueing delay counts against the
/// request's budget — a request that sat out its whole timeout in the
/// queue answers `UNKNOWN` promptly instead of starting a doomed solve.
struct Job {
    seq: u64,
    req: SolveRequest,
    deadline: Option<Instant>,
}

impl Job {
    fn new(seq: u64, req: SolveRequest, config: &ServeConfig) -> Self {
        let deadline = req
            .timeout()
            .or(config.timeout)
            .map(|t| Instant::now() + t);
        Job { seq, req, deadline }
    }
}

/// Worker-side counters, folded into the reader's [`Tally`] after the
/// pool drains.
#[derive(Default)]
struct WorkerCounts {
    results: AtomicU64,
    errors: AtomicU64,
    retries: AtomicU64,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // A worker panic between lock and unlock cannot happen (solves are
    // wrapped in catch_unwind), but stay robust anyway: a poisoned
    // record stream is still better than a dead server.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Reads one line (without the trailing newline), capped at `max`
/// bytes. Returns `(line, truncated)`; a truncated line has had its
/// excess consumed so the stream stays line-aligned. `None` at EOF.
fn read_line_capped<R: BufRead>(input: &mut R, max: usize) -> io::Result<Option<(String, bool)>> {
    let mut buf: Vec<u8> = Vec::new();
    let mut truncated = false;
    let mut saw_any = false;
    loop {
        let chunk = input.fill_buf()?;
        if chunk.is_empty() {
            // EOF: a final unterminated line still counts.
            if !saw_any {
                return Ok(None);
            }
            return Ok(Some((String::from_utf8_lossy(&buf).into_owned(), truncated)));
        }
        saw_any = true;
        if let Some(nl) = chunk.iter().position(|&b| b == b'\n') {
            if !truncated {
                let take = nl.min(max - buf.len());
                buf.extend_from_slice(&chunk[..take]);
                truncated = buf.len() >= max && take < nl;
            }
            input.consume(nl + 1);
            return Ok(Some((String::from_utf8_lossy(&buf).into_owned(), truncated)));
        }
        let len = chunk.len();
        if !truncated {
            let take = len.min(max - buf.len());
            buf.extend_from_slice(&chunk[..take]);
            truncated = buf.len() >= max && take < len;
        }
        input.consume(len);
    }
}

/// The session rungs of this request when it may run on a cached
/// incremental session: the hdpll family keeps persistent state worth
/// reusing, while cross-checks, fault plans, and the bit-blast
/// baselines only exist on the one-shot supervisor path.
fn session_ladder(config: &ServeConfig, opts: &SolveOptions) -> Option<Rungs> {
    let eligible = config.session_cache > 0 && !opts.check && opts.fault.is_clean();
    eligible.then(|| session_rungs(opts).ok()).flatten()
}

/// A session ladder's rungs, as [`session_rungs`] builds them.
type Rungs = Vec<(String, SolverConfig)>;

/// Answers one request on a cached [`SupervisedSession`]: run stage-0
/// preprocessing when it is on, look up (or build and insert) the
/// ladder for the problem's content key, stamp the request's remaining
/// budget and telemetry sink on it, and run the goal as a single
/// assumption query. A panic that escapes the ladder's own isolation
/// evicts the entry — a session in an unknown state is never reused.
fn solve_on_session(
    cache: &mut SessionCache,
    opts: &SolveOptions,
    rungs: Rungs,
    (netlist, goal, source_text): (&Netlist, SignalId, &str),
    handle: &ObsHandle,
    drain: &CancelToken,
) -> std::thread::Result<SupervisedResult> {
    // With preprocessing on, the session solves the simplified netlist
    // and the cache is keyed on its text: requests that differ only in
    // dead or foldable logic collapse onto one compiled session. The
    // goal image joins the key so two goals over the same simplified
    // netlist never collide.
    let pre = opts.preproc.then(|| preprocess(netlist, goal, handle));
    let key = match &pre {
        Some(pre) => {
            let mut keyed = rtl_ir::text::to_text(&pre.netlist);
            keyed.push_str(&format!("\ngoal-id {}", pre.goal.index()));
            content_key(&opts.engine, opts.fallback, opts.max_memory, &keyed)
        }
        None => content_key(&opts.engine, opts.fallback, opts.max_memory, source_text),
    };
    let hit = cache.get(key).is_some();
    handle.record_counter(
        if hit {
            "compile_cache_hit"
        } else {
            "compile_cache_miss"
        },
        1,
    );
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let ladder = if hit {
            cache.get(key).expect("probed above")
        } else {
            let problem = pre.as_ref().map_or(netlist, |pre| &pre.netlist);
            // Session-internal preprocessing stays off: the netlist was
            // already simplified (when `preproc` is on) before keying
            // the cache, so the session would only redo an idempotent
            // pass.
            let ladder = SupervisedSession::with_rungs(problem, rungs).with_preproc(false);
            cache.insert(key, ladder)
        };
        ladder.set_timeout(opts.timeout);
        if handle.on() {
            ladder.set_obs(handle.clone());
        }
        let query_goal = pre.as_ref().map_or(goal, |pre| pre.goal);
        let q = ladder.solve_cancellable(&[Assumption::yes(query_goal)], drain);
        // Release the per-request telemetry sink; the cached ladder
        // must not keep the previous request's buffers alive.
        ladder.set_obs(ObsHandle::off());
        session_result(q, pre.as_ref().map(|pre| (netlist, goal, pre)))
    }));
    if outcome.is_err() {
        cache.remove(key);
    }
    outcome
}

/// Runs one solve request end to end: netlist resolution, the
/// supervised solve under `catch_unwind` (or a cached-session query
/// when the compile cache is on), and at most one
/// retry-with-degradation. Always returns exactly one record.
fn process(
    job: &Job,
    config: &ServeConfig,
    drain: &CancelToken,
    counts: &WorkerCounts,
    cache: &mut SessionCache,
    slow: Option<&SlowRing>,
    metrics: &ServeMetrics,
) -> String {
    let started = Instant::now();
    let req = &job.req;
    let seq = job.seq;
    let fail = |detail: &str| {
        counts.errors.fetch_add(1, Ordering::Relaxed);
        record::error_record(Some(&req.id), seq, detail)
    };

    // Resolve the netlist and goal. Failures here are request errors,
    // not server errors: record and move on.
    let (case, file, source_text) = match &req.source {
        NetlistSource::File(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => return fail(&format!("cannot read `{path}`: {e}")),
            };
            let case = Path::new(path)
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or(path)
                .to_string();
            (case, path.clone(), text)
        }
        NetlistSource::Inline(text) => (req.id.clone(), "<inline>".to_string(), text.clone()),
    };
    let netlist = match rtl_ir::text::parse(&source_text) {
        Ok(n) => n,
        Err(e) => return fail(&format!("netlist parse error: {e}")),
    };
    let Some(goal) = rtl_proof::resolve_goal(&netlist, &req.goal) else {
        return fail(&format!("no signal named `{}`", req.goal));
    };
    if !netlist.ty(goal).is_bool() {
        return fail(&format!("goal `{}` is not a Boolean signal", req.goal));
    }

    let deadline = job.deadline;
    let mut engine = req.engine.clone().unwrap_or_else(|| config.engine.clone());
    let mut fault = req.fault;
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        let opts = SolveOptions {
            engine: engine.clone(),
            timeout: deadline.map(|d| d.saturating_duration_since(Instant::now())),
            check: req.check.unwrap_or(config.check),
            fallback: req.fallback.unwrap_or(config.fallback),
            check_timeout: req.check_timeout().or(config.check_timeout),
            max_memory: req.max_memory.or(config.max_memory),
            fault,
            preproc: config.preproc,
        };
        let handle = if config.telemetry {
            // Slow-request capture needs per-phase attribution, so the
            // profiler rides along whenever `--slow-ms` is armed; plain
            // telemetry stays profile-free (and byte-deterministic).
            ObsHandle::armed(ObsConfig {
                profile: config.slow_ms.is_some(),
                ..ObsConfig::default()
            })
        } else {
            ObsHandle::off()
        };
        if handle.on() {
            handle.request_start(&req.id);
        }
        // Isolation either way: the supervisor/ladder already catches
        // per-stage panics; the outer guard additionally covers the
        // compile/certify paths so a poisoned request can never take
        // the server down. The shared drain token makes every queued
        // and in-flight solve answer promptly once cancelled.
        let solved = if let Some(rungs) = session_ladder(config, &opts) {
            let problem = (&netlist, goal, source_text.as_str());
            solve_on_session(cache, &opts, rungs, problem, &handle, drain)
        } else {
            let mut sup = match build_supervisor(&opts, &netlist) {
                Ok(s) => s,
                Err(msg) => return fail(&msg),
            };
            if handle.on() {
                sup = sup.with_obs(handle.clone());
            }
            sup = sup.with_cancel(drain.clone());
            catch_unwind(AssertUnwindSafe(|| sup.solve(&netlist, goal)))
        };
        if handle.on() {
            handle.request_end(&req.id, solved.as_ref().map_or("panic", |r| r.verdict.label()));
        }
        // A died attempt (an escaped panic or a died result) shares one
        // retry branch.
        let died = solved.as_ref().map_or(true, solve_died);
        if let Some(next) = retry_engine(&engine, attempt, died, deadline, drain) {
            counts.retries.fetch_add(1, Ordering::Relaxed);
            engine = next.to_string();
            fault = FaultPlan::default();
            continue;
        }
        let result = match solved {
            Ok(result) => result,
            Err(panic) => {
                let detail = panic_message(panic);
                return fail(&format!("solve panicked (attempt {attempt}): {detail}"));
            }
        };
        counts.results.fetch_add(1, Ordering::Relaxed);
        let meta = SolveMeta {
            case,
            file,
            goal: req.goal.clone(),
            engine,
        };
        let prefix = record::result_prefix(&req.id, seq, attempt);
        let line = record::stats_json_record(&meta, &result, &handle, &prefix);
        if let (Some(slow_ms), Some(ring)) = (config.slow_ms, slow) {
            let elapsed = started.elapsed();
            if elapsed >= Duration::from_millis(slow_ms) {
                let trace = handle.export_jsonl();
                if ring
                    .capture(&req.id, seq, elapsed, &line, trace.as_deref())
                    .is_ok()
                {
                    metrics.observe_slow_capture();
                }
            }
        }
        return line;
    }
}

/// The engine a finished attempt is retried on, if any. Only a first
/// attempt that died is retried, on the retry chain's next engine, and
/// only while the request has budget left *after* the attempt (the
/// engine can shed a solve on its memory cap after the deadline passed)
/// and the server is not draining hard.
fn retry_engine(
    engine: &str,
    attempt: u32,
    died: bool,
    deadline: Option<Instant>,
    drain: &CancelToken,
) -> Option<&'static str> {
    let budget_left = deadline
        .is_none_or(|d| d.saturating_duration_since(Instant::now()) > Duration::from_millis(1));
    if attempt == 1 && died && budget_left && !drain.is_cancelled() {
        degraded_engine(engine)
    } else {
        None
    }
}

/// `true` when a verdict-less result died rather than merely ran out of
/// budget: a stage panicked, or the engine shed the solve on its memory
/// cap. These are the retry-with-degradation triggers; a plain deadline
/// expiry is final (there is no budget left to retry under).
fn solve_died(result: &SupervisedResult) -> bool {
    if !matches!(result.verdict, HdpllResult::Unknown) {
        return false;
    }
    result.reports.iter().any(|r| {
        matches!(r.outcome, StageOutcome::Panicked { .. })
            || r.stats
                .as_ref()
                .is_some_and(|s| s.abort == Some(AbortReason::Memory))
    })
}

fn write_record<W: Write>(out: &Mutex<W>, record: &str) {
    // A closed output (client hung up) must not kill the drain; the
    // summary write at the end surfaces persistent failures.
    let mut out = lock(out);
    let _ = out.write_all(record.as_bytes());
    let _ = out.flush();
}

/// Serves one JSONL request stream until EOF or `{"op":"shutdown"}`,
/// then drains and writes the final `summary` record.
///
/// # Errors
///
/// Only input I/O errors abort the serve loop; per-request failures of
/// any kind become `error` records and the loop continues. Output
/// failures are deliberately swallowed until the final summary write.
pub fn serve<R, W>(input: R, output: W, config: &ServeConfig) -> io::Result<ServeSummary>
where
    R: BufRead,
    W: Write + Send,
{
    let metrics = ServeMetrics::new();
    serve_with_metrics(input, output, config, &metrics)
}

/// Like [`serve`], with an externally owned [`ServeMetrics`] aggregate:
/// the socket server shares one across all connections, so a `status`
/// probe on a fresh connection reports the server's whole lifetime.
///
/// # Errors
///
/// As for [`serve`].
pub fn serve_with_metrics<R, W>(
    mut input: R,
    output: W,
    config: &ServeConfig,
    metrics: &ServeMetrics,
) -> io::Result<ServeSummary>
where
    R: BufRead,
    W: Write + Send,
{
    let out = Mutex::new(output);
    let drain = CancelToken::new();
    let counts = WorkerCounts::default();
    let mut tally = Tally::default();
    let mut seq = 0u64;
    let mut shutdown = false;
    let mut drained = true;
    let slow_ring = config
        .slow_ms
        .map(|_| SlowRing::new(&config.slow_dir, config.slow_ring_cap));
    let slow = slow_ring.as_ref();
    let metrics_due = |out: &Mutex<W>| {
        if let Some(m) = metrics.maybe_metrics_record(config.metrics_every_n, config.metrics_every)
        {
            write_record(out, &m);
        }
    };

    if config.workers <= 1 {
        // Deterministic inline mode: no threads, strict input order.
        let mut cache = SessionCache::new(config.session_cache);
        while let Some((line, truncated)) = read_line_capped(&mut input, config.max_line_bytes)? {
            if line.trim().is_empty() {
                continue;
            }
            seq += 1;
            if truncated {
                tally.errors += 1;
                let detail = format!("line exceeds {} bytes", config.max_line_bytes);
                write_record(&out, &record::error_record(None, seq, &detail));
                continue;
            }
            match parse_line(&line) {
                Err(msg) => {
                    tally.errors += 1;
                    write_record(&out, &record::error_record(None, seq, &msg));
                }
                Ok(RequestLine::Shutdown) => {
                    shutdown = true;
                    break;
                }
                Ok(RequestLine::Status) => {
                    write_record(&out, &metrics.prometheus());
                }
                Ok(RequestLine::Solve(req)) => {
                    tally.requests += 1;
                    metrics.observe_request();
                    let job = Job::new(seq, *req, config);
                    metrics.inflight_inc();
                    let t0 = Instant::now();
                    let rec = process(&job, config, &drain, &counts, &mut cache, slow, metrics);
                    metrics.inflight_dec();
                    metrics.observe_record(0, &rec, t0.elapsed());
                    write_record(&out, &rec);
                    metrics_due(&out);
                }
            }
        }
    } else {
        let (tx, rx) = mpsc::sync_channel::<Job>(config.queue_depth.max(1));
        let rx = Mutex::new(rx);
        let (done_tx, done_rx) = mpsc::channel::<()>();
        std::thread::scope(|scope| -> io::Result<()> {
            for worker in 0..config.workers {
                let done_tx = done_tx.clone();
                let (rx, out, drain, counts) = (&rx, &out, &drain, &counts);
                let metrics_due = &metrics_due;
                scope.spawn(move || {
                    // Sessions are worker-local (the solver stack is
                    // single-thread by construction): each worker keeps
                    // its own cache, so a hit requires landing on a
                    // worker that has seen the content before.
                    let mut cache = SessionCache::new(config.session_cache);
                    loop {
                        // Hold the receiver lock only for the pickup;
                        // blocking here simply queues the other idle
                        // workers behind the lock.
                        let job = lock(rx).recv();
                        let Ok(job) = job else { break };
                        metrics.queue_dec();
                        metrics.inflight_inc();
                        let t0 = Instant::now();
                        let rec = process(&job, config, drain, counts, &mut cache, slow, metrics);
                        metrics.inflight_dec();
                        metrics.observe_record(worker, &rec, t0.elapsed());
                        write_record(out, &rec);
                        metrics_due(out);
                    }
                    let _ = done_tx.send(());
                });
            }
            drop(done_tx);

            while let Some((line, truncated)) =
                read_line_capped(&mut input, config.max_line_bytes)?
            {
                if line.trim().is_empty() {
                    continue;
                }
                seq += 1;
                if truncated {
                    tally.errors += 1;
                    let detail = format!("line exceeds {} bytes", config.max_line_bytes);
                    write_record(&out, &record::error_record(None, seq, &detail));
                    continue;
                }
                match parse_line(&line) {
                    Err(msg) => {
                        tally.errors += 1;
                        write_record(&out, &record::error_record(None, seq, &msg));
                    }
                    Ok(RequestLine::Shutdown) => {
                        shutdown = true;
                        break;
                    }
                    Ok(RequestLine::Status) => {
                        write_record(&out, &metrics.prometheus());
                    }
                    Ok(RequestLine::Solve(req)) => {
                        tally.requests += 1;
                        metrics.observe_request();
                        match tx.try_send(Job::new(seq, *req, config)) {
                            Ok(()) => metrics.queue_inc(),
                            Err(TrySendError::Full(job)) => {
                                tally.overloaded += 1;
                                metrics.observe_overloaded();
                                write_record(
                                    &out,
                                    &record::overloaded_record(
                                        &job.req.id,
                                        seq,
                                        metrics.queue_depth(),
                                        metrics.in_flight(),
                                    ),
                                );
                            }
                            Err(TrySendError::Disconnected(job)) => {
                                // All workers died (cannot happen while
                                // solves are isolated, but never drop a
                                // request silently).
                                tally.errors += 1;
                                write_record(
                                    &out,
                                    &record::error_record(
                                        Some(&job.req.id),
                                        seq,
                                        "worker pool unavailable",
                                    ),
                                );
                            }
                        }
                    }
                }
            }

            // Drain: close the queue, give in-flight solves until the
            // drain deadline, then cancel the shared token — every
            // remaining solve answers Unknown promptly and its record
            // is still written (exactly-once survives a hard drain).
            drop(tx);
            let deadline = Instant::now() + config.drain_timeout;
            let mut remaining = config.workers;
            while remaining > 0 {
                let left = deadline.saturating_duration_since(Instant::now());
                match done_rx.recv_timeout(left) {
                    Ok(()) => remaining -= 1,
                    Err(RecvTimeoutError::Timeout) => {
                        drained = false;
                        drain.cancel();
                        while remaining > 0 && done_rx.recv().is_ok() {
                            remaining -= 1;
                        }
                        break;
                    }
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            }
            Ok(())
        })?;
    }

    tally.results = counts.results.load(Ordering::Relaxed);
    tally.errors += counts.errors.load(Ordering::Relaxed);
    tally.retries = counts.retries.load(Ordering::Relaxed);

    // With a metrics cadence configured, flush the last partial window
    // before the summary so window deltas across all `metrics` records
    // sum exactly to the summary totals.
    if config.metrics_every_n.is_some() || config.metrics_every.is_some() {
        write_record(&out, &metrics.final_metrics_record());
    }

    let summary = record::summary_record(&tally, drained);
    {
        let mut out = lock(&out);
        out.write_all(summary.as_bytes())?;
        out.flush()?;
    }
    Ok(ServeSummary {
        tally,
        drained,
        shutdown,
    })
}

/// Serves connections on a Unix-domain socket, one at a time, until a
/// connection ends with `{"op":"shutdown"}`. Each connection is its own
/// request stream with its own summary record.
///
/// # Errors
///
/// Propagates socket bind/accept errors and per-connection input I/O
/// errors.
pub fn serve_unix(path: &Path, config: &ServeConfig) -> io::Result<ServeSummary> {
    let listener = std::os::unix::net::UnixListener::bind(path)?;
    // One metrics aggregate for the whole socket lifetime: a `status`
    // probe on a fresh connection reports counters accumulated across
    // every prior connection, not just its own stream.
    let metrics = ServeMetrics::new();
    let mut last;
    loop {
        let (stream, _) = listener.accept()?;
        let reader = io::BufReader::new(stream.try_clone()?);
        last = serve_with_metrics(reader, stream, config, &metrics)?;
        if last.shutdown {
            break;
        }
    }
    let _ = std::fs::remove_file(path);
    Ok(last)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn serve_str(input: &str, config: &ServeConfig) -> (String, ServeSummary) {
        let mut out: Vec<u8> = Vec::new();
        let summary = serve(input.as_bytes(), &mut out, config).expect("serve");
        (String::from_utf8(out).expect("utf8 records"), summary)
    }

    const TINY: &str = "netlist t\\ninput a bool\\nnode goal bool = and a a\\n";

    #[test]
    fn capped_reader_preserves_line_alignment() {
        let text = "short\nlooooooooooooong line here\nafter\n";
        let mut r = text.as_bytes();
        let (l1, t1) = read_line_capped(&mut r, 10).unwrap().unwrap();
        assert_eq!((l1.as_str(), t1), ("short", false));
        let (l2, t2) = read_line_capped(&mut r, 10).unwrap().unwrap();
        assert_eq!(l2.len(), 10);
        assert!(t2, "long line must be flagged truncated");
        let (l3, t3) = read_line_capped(&mut r, 10).unwrap().unwrap();
        assert_eq!((l3.as_str(), t3), ("after", false));
        assert!(read_line_capped(&mut r, 10).unwrap().is_none());
    }

    #[test]
    fn capped_reader_handles_unterminated_tail() {
        let mut r = "no newline".as_bytes();
        let (l, t) = read_line_capped(&mut r, 1024).unwrap().unwrap();
        assert_eq!((l.as_str(), t), ("no newline", false));
        assert!(read_line_capped(&mut r, 1024).unwrap().is_none());
    }

    #[test]
    fn inline_solve_and_summary() {
        let input = format!(
            "{{\"id\":\"r1\",\"netlist\":\"{TINY}\",\"goal\":\"goal\",\"timeout_ms\":10000}}\n"
        );
        let (out, summary) = serve_str(&input, &ServeConfig::default());
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2, "one result + one summary: {out}");
        assert!(lines[0].contains("\"type\":\"result\""));
        assert!(lines[0].contains("\"id\":\"r1\""));
        assert!(lines[0].contains("\"verdict\":\"SAT\""));
        assert!(lines[1].contains("\"type\":\"summary\""));
        assert!(lines[1].contains("\"drained\":true"));
        assert_eq!(summary.tally.results, 1);
        assert_eq!(summary.tally.errors, 0);
        assert!(!summary.shutdown);
    }

    #[test]
    fn malformed_lines_do_not_stall_the_stream() {
        let input = format!(
            "this is not json\n\
             {{\"id\":\"r1\",\"netlist\":\"{TINY}\",\"goal\":\"nope\"}}\n\
             {{\"id\":\"r2\",\"netlist\":\"{TINY}\",\"goal\":\"goal\",\"timeout_ms\":10000}}\n\
             {{\"op\":\"shutdown\"}}\n\
             {{\"id\":\"r3\",\"netlist\":\"{TINY}\",\"goal\":\"goal\"}}\n"
        );
        let (out, summary) = serve_str(&input, &ServeConfig::default());
        let lines: Vec<&str> = out.lines().collect();
        // error (bad json), error (bad goal), result, summary — and
        // nothing for r3 behind the shutdown.
        assert_eq!(lines.len(), 4, "{out}");
        assert!(lines[0].contains("\"type\":\"error\"") && lines[0].contains("\"id\":null"));
        assert!(lines[1].contains("\"type\":\"error\"") && lines[1].contains("\"id\":\"r1\""));
        assert!(lines[2].contains("\"type\":\"result\"") && lines[2].contains("\"id\":\"r2\""));
        assert!(lines[3].contains("\"type\":\"summary\""));
        assert!(summary.shutdown);
        assert_eq!(summary.tally.errors, 2);
        assert_eq!(summary.tally.results, 1);
    }

    #[test]
    fn session_cache_skips_recompile_on_identical_requests() {
        // Satellite of the incremental-sessions PR: with the compile
        // cache on, the second identical request reuses the cached
        // session (counter `compile_cache_hit`) instead of recompiling
        // (`compile_cache_miss`), and still answers the same verdict.
        let input = format!(
            "{{\"id\":\"a\",\"netlist\":\"{TINY}\",\"goal\":\"goal\",\"timeout_ms\":10000}}\n\
             {{\"id\":\"b\",\"netlist\":\"{TINY}\",\"goal\":\"goal\",\"timeout_ms\":10000}}\n"
        );
        let config = ServeConfig {
            session_cache: 8,
            ..ServeConfig::default()
        };
        let (out, summary) = serve_str(&input, &config);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3, "two results + summary: {out}");
        assert!(
            lines[0].contains("\"compile_cache_miss\":1"),
            "first request must compile: {}",
            lines[0]
        );
        assert!(
            lines[1].contains("\"compile_cache_hit\":1"),
            "second identical request must skip compile: {}",
            lines[1]
        );
        // Each record carries the search counters of its own query.
        for line in &lines[..2] {
            assert!(line.contains("\"verdict\":\"SAT\""), "{line}");
            assert!(line.contains("\"decisions\":"), "{line}");
            assert!(line.contains("\"propagations\":"), "{line}");
        }
        assert_eq!(summary.tally.results, 2);
        assert_eq!(summary.tally.errors, 0);
    }

    #[test]
    fn session_cache_records_report_each_requests_own_times() {
        // A cached session's statistics are cumulative. Each record must
        // still report its own query's search time (never more than its
        // stage took) and charge the one-time predicate pass only to the
        // request that built the session.
        let ladder = "netlist cmp_ladder_unsat\\ninput a0 w2\\ninput a1 w2\\ninput a2 w2\\n\
             input a3 w2\\ninput a4 w2\\nnode l0 bool = cmp.lt a0 a1\\n\
             node l1 bool = cmp.lt a1 a2\\nnode l2 bool = cmp.lt a2 a3\\n\
             node l3 bool = cmp.lt a3 a4\\nnode goal bool = and l0 l1 l2 l3\\n";
        let input: String = ["a", "b", "c"]
            .iter()
            .map(|id| {
                format!(
                    "{{\"id\":\"{id}\",\"netlist\":\"{ladder}\",\"goal\":\"goal\",\"timeout_ms\":10000}}\n"
                )
            })
            .collect();
        let config = ServeConfig {
            session_cache: 4,
            ..ServeConfig::default()
        };
        let (out, summary) = serve_str(&input, &config);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4, "three results + summary: {out}");
        let ms = |v: &rtl_obs::json::Value, key: &str| {
            v.get(key).and_then(rtl_obs::json::Value::as_f64).unwrap()
        };
        for (i, line) in lines[..3].iter().enumerate() {
            let record = rtl_obs::json::parse(line).expect("record parses");
            assert_eq!(
                record.get("verdict").and_then(rtl_obs::json::Value::as_str),
                Some("UNSAT"),
                "{line}"
            );
            let stages = record.get("stages").and_then(rtl_obs::json::Value::as_arr).unwrap();
            let stage_ms = ms(stages.last().unwrap(), "time_ms");
            assert!(
                ms(&record, "search_time_ms") <= stage_ms,
                "search time beyond its stage's: {line}"
            );
            if i > 0 {
                assert!(line.contains("\"compile_cache_hit\":1"), "{line}");
                assert_eq!(ms(&record, "learn_time_ms"), 0.0, "cache hit: {line}");
            }
        }
        assert_eq!(summary.tally.results, 3);
    }

    #[test]
    fn session_cache_hits_across_dead_logic_variants() {
        // The cache key is the *post-preprocessing* netlist text: two
        // requests whose sources differ only in dead logic (a node
        // outside the goal cone) simplify to the same text and must
        // share one compiled session.
        let with_dead =
            "netlist t\\ninput a bool\\ninput z w8\\nnode dead w8 = add z z\\n\
             node goal bool = and a a\\n";
        let input = format!(
            "{{\"id\":\"a\",\"netlist\":\"{TINY}\",\"goal\":\"goal\",\"timeout_ms\":10000}}\n\
             {{\"id\":\"b\",\"netlist\":\"{with_dead}\",\"goal\":\"goal\",\"timeout_ms\":10000}}\n"
        );
        let config = ServeConfig {
            session_cache: 8,
            ..ServeConfig::default()
        };
        let (out, summary) = serve_str(&input, &config);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3, "two results + summary: {out}");
        assert!(
            lines[0].contains("\"compile_cache_miss\":1"),
            "first request must compile: {}",
            lines[0]
        );
        assert!(
            lines[1].contains("\"compile_cache_hit\":1"),
            "dead-logic variant must share the session: {}",
            lines[1]
        );
        for line in &lines[..2] {
            assert!(line.contains("\"verdict\":\"SAT\""), "{line}");
        }
        assert_eq!(summary.tally.results, 2);
        assert_eq!(summary.tally.errors, 0);
    }

    #[test]
    fn session_cache_misses_on_different_content_or_options() {
        // The content key covers netlist text AND the solve facets that
        // change the compiled problem: a different engine or a different
        // netlist never reuses a cached session.
        let other = "netlist t\\ninput a bool\\nnode goal bool = not a\\n";
        let input = format!(
            "{{\"id\":\"a\",\"netlist\":\"{TINY}\",\"goal\":\"goal\",\"timeout_ms\":10000}}\n\
             {{\"id\":\"b\",\"netlist\":\"{other}\",\"goal\":\"goal\",\"timeout_ms\":10000}}\n\
             {{\"id\":\"c\",\"netlist\":\"{TINY}\",\"goal\":\"goal\",\
              \"engine\":\"hdpll\",\"timeout_ms\":10000}}\n\
             {{\"id\":\"d\",\"netlist\":\"{TINY}\",\"goal\":\"goal\",\
              \"engine\":\"eager\",\"timeout_ms\":10000}}\n"
        );
        let config = ServeConfig {
            session_cache: 8,
            ..ServeConfig::default()
        };
        let (out, summary) = serve_str(&input, &config);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 5, "{out}");
        for line in &lines[..3] {
            assert!(
                line.contains("\"compile_cache_miss\":1"),
                "distinct keys must all miss: {line}"
            );
        }
        // The bit-blast baseline bypasses the cache entirely: no
        // cache counter at all.
        assert!(
            !lines[3].contains("compile_cache"),
            "eager must bypass the session cache: {}",
            lines[3]
        );
        assert_eq!(summary.tally.results, 4);
    }

    #[test]
    fn session_cache_evicts_least_recently_used() {
        let n = rtl_ir::text::parse("netlist t\ninput a bool\nnode goal bool = and a a\n")
            .expect("tiny netlist");
        let rungs = session_rungs(&SolveOptions::default()).expect("the default engine");
        let ladder = || SupervisedSession::with_rungs(&n, rungs.clone());
        let mut cache = SessionCache::new(2);
        cache.insert(1, ladder());
        cache.insert(2, ladder());
        assert!(cache.get(1).is_some(), "bump 1 to most-recent");
        cache.insert(3, ladder());
        assert_eq!(cache.entries.len(), 2, "cap holds");
        assert!(cache.get(2).is_none(), "2 was least-recently-used");
        assert!(cache.get(1).is_some());
        assert!(cache.get(3).is_some());
        cache.remove(3);
        assert!(cache.get(3).is_none(), "removed after a failure");
    }

    #[test]
    fn retry_reads_the_chain_and_the_budget_left_after_the_attempt() {
        // A verdict-less result whose one stage stopped for `abort`.
        let aborted = |abort: AbortReason| SupervisedResult {
            verdict: HdpllResult::Unknown,
            answered_by: None,
            reports: vec![StageReport {
                stage: "hdpll-sp".to_string(),
                outcome: StageOutcome::Unknown {
                    reason: abort.to_string(),
                },
                time: Duration::ZERO,
                stats: Some(rtl_hdpll::SolverStats {
                    abort: Some(abort),
                    ..rtl_hdpll::SolverStats::default()
                }),
            }],
            proof: None,
            preproc: None,
        };
        let drain = CancelToken::new();
        let now = Instant::now();
        let passed = Some(now.checked_sub(Duration::from_millis(5)).unwrap_or(now));
        let left = Some(now + Duration::from_secs(60));
        let died = solve_died(&aborted(AbortReason::Memory));
        assert!(died, "a memory abort dies");
        // Died after the deadline passed: no budget left to retry under.
        assert_eq!(retry_engine("hdpll-sp", 1, died, passed, &drain), None);
        // Died with budget left: the chain's next engine.
        assert_eq!(
            retry_engine("hdpll-sp", 1, died, left, &drain),
            Some("hdpll")
        );
        assert_eq!(retry_engine("lazy", 1, died, None, &drain), Some("eager"));
        // A deadline abort is final, budget or not.
        let died = solve_died(&aborted(AbortReason::Deadline));
        assert!(!died, "a deadline abort does not die");
        assert_eq!(retry_engine("hdpll-sp", 1, died, left, &drain), None);
        // One retry per request, none past the end of the chain, none
        // while draining.
        assert_eq!(retry_engine("hdpll", 2, true, left, &drain), None);
        assert_eq!(retry_engine("eager", 1, true, left, &drain), None);
        drain.cancel();
        assert_eq!(retry_engine("hdpll", 1, true, left, &drain), None);
    }

    #[test]
    fn oversized_line_is_rejected_and_stream_continues() {
        let big = "x".repeat(4096);
        let input = format!(
            "{{\"id\":\"huge\",\"netlist\":\"{big}\",\"goal\":\"g\"}}\n\
             {{\"id\":\"r1\",\"netlist\":\"{TINY}\",\"goal\":\"goal\",\"timeout_ms\":10000}}\n"
        );
        let config = ServeConfig {
            max_line_bytes: 1024,
            ..ServeConfig::default()
        };
        let (out, summary) = serve_str(&input, &config);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3, "{out}");
        assert!(lines[0].contains("line exceeds 1024 bytes"));
        assert!(lines[1].contains("\"verdict\":\"SAT\""));
        assert_eq!(summary.tally.errors, 1);
        assert_eq!(summary.tally.results, 1);
    }
}
