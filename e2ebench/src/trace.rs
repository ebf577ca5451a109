//! The traced run's span recorder and the per-layer metrics derived
//! from it.
//!
//! A span is a name, a start, an end, a parent and an answer id. Spans
//! stay in memory until the run ends. A layer's time is the self time of
//! its spans (duration minus the durations of their children), summed
//! over the run and divided by the number of answers. The root span of
//! each answer is `bench.answer`; its self time is the part of the
//! answer no layer accounts for.
//!
//! Where one public call hides several phases (`Solver::solve`, a
//! session query), the split comes from the program's own profiler
//! (`ObsConfig::profiled()`) and is recorded as synthetic child spans
//! laid end to end from the parent's start: their durations are
//! measured, their order inside the parent is not. What the profile
//! leaves do not cover stays in the call's own self time
//! (`hdpll.solve`, `hdpll.session_query`).
//!
//! A run fails if more than [`MAX_GAP`] of its traced answer time lies
//! between the harness's spans, or inside the opaque calls but in no
//! profile row, or if proof logging measured as a difference of twin
//! calls and as the logged calls' own `proof` phase disagree by more
//! than [`MAX_PROOFLOG_MISMATCH`].

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use rtl_hdpll::EngineStats;
use rtl_obs::ProfileSnapshot;

use crate::Metric;

/// Name of every answer's root span.
pub const ROOT: &str = "bench.answer";

/// The largest share of a run's traced answer time that may lie between
/// the harness's spans, or inside solve and query calls but in no
/// profile row.
const MAX_GAP: f64 = 0.05;

/// The largest share of a run's traced answer time by which the two
/// measures of proof logging may disagree. Their difference is mostly
/// host noise between a call and its twin (a few percent on one round
/// of `bmc_b13_session`, whose deep queries take up to 0.6 s each), so
/// this only catches a twin or a profile that measures something else.
const MAX_PROOFLOG_MISMATCH: f64 = 0.10;

/// One recorded span. Times are nanoseconds since the tracer's epoch;
/// a synthetic span derived from a difference of two runs may be
/// negative (see [`Tracer::child`]).
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: i64,
    pub end_ns: i64,
    pub parent: Option<usize>,
    pub answer: u64,
}

impl Span {
    fn dur_ns(&self) -> i64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    answer: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        // Reserved and touched up front: growing the vector, or faulting
        // in its pages, inside a short answer would show up as
        // unattributed time.
        let blank = Span {
            name: ROOT,
            start_ns: 0,
            end_ns: 0,
            parent: None,
            answer: 0,
        };
        let mut spans = vec![blank; 1 << 16];
        spans.clear();
        Tracer {
            epoch: Instant::now(),
            spans,
            stack: Vec::new(),
            answer: 0,
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> i64 {
        i64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(i64::MAX)
    }

    /// Opens an answer's root span.
    pub fn begin_answer(&mut self) {
        assert!(self.stack.is_empty(), "answers do not nest");
        self.answer += 1;
        self.enter(ROOT);
    }

    /// Closes the answer's root span and returns its duration in
    /// nanoseconds.
    pub fn end_answer(&mut self) -> i64 {
        let idx = self.exit();
        assert!(self.stack.is_empty(), "unbalanced spans in an answer");
        self.spans[idx].dur_ns()
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            answer: self.answer,
        });
        self.stack.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span and returns its index.
    pub fn exit(&mut self) -> usize {
        let idx = self.stack.pop().expect("exit without enter");
        self.spans[idx].end_ns = self.now_ns();
        idx
    }

    /// Runs `f` inside a span named `name`; returns `f`'s result and the
    /// closed span's index.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, usize) {
        self.enter(name);
        let r = f();
        (r, self.exit())
    }

    /// Duration of a closed span, nanoseconds.
    pub fn dur_ns(&self, idx: usize) -> i64 {
        self.spans[idx].dur_ns()
    }

    /// Appends a synthetic child of the closed span `parent`, placed
    /// right after the parent's previously attached synthetic children.
    pub fn child(&mut self, parent: usize, name: &'static str, dur_ns: i64) {
        let offset: i64 = self
            .spans
            .iter()
            .skip(parent + 1)
            .filter(|s| s.parent == Some(parent))
            .map(|s| s.end_ns.max(s.start_ns) - self.spans[parent].start_ns)
            .max()
            .unwrap_or(0);
        let start_ns = self.spans[parent].start_ns + offset;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + dur_ns,
            parent: Some(parent),
            answer: self.spans[parent].answer,
        });
    }

    /// Attaches the leaves of a profile snapshot to the closed span
    /// `parent` as synthetic children, naming each through `layer`
    /// (rows it maps to `None` stay in the parent's self time).
    pub fn attach_profile(
        &mut self,
        parent: usize,
        profile: &ProfileSnapshot,
        layer: impl Fn(&str) -> Option<&'static str>,
    ) {
        for (name, ns) in profile_leaves(profile, layer) {
            self.child(parent, name, ns);
        }
    }

    /// Self time of every span, nanoseconds.
    fn self_ns(&self) -> Vec<i64> {
        let mut own: Vec<i64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.dur_ns();
            }
        }
        own
    }

    /// Self time per span name over the whole run, nanoseconds, plus the
    /// total duration of every root span.
    fn self_times(&self) -> (BTreeMap<&'static str, i64>, i64) {
        let mut by_name: BTreeMap<&'static str, i64> = BTreeMap::new();
        let mut root_total = 0;
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            *by_name.entry(s.name).or_default() += own;
            if s.parent.is_none() {
                root_total += s.dur_ns();
            }
        }
        (by_name, root_total)
    }

    /// The largest share of any single answer that no layer accounts
    /// for.
    pub fn worst_unattributed_share(&self) -> f64 {
        self.spans
            .iter()
            .zip(self.self_ns())
            .filter(|(s, _)| s.parent.is_none())
            .map(|(s, own)| own as f64 / s.dur_ns().max(1) as f64)
            .fold(0.0, f64::max)
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &str) -> std::io::Result<()> {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"answer\":{}}}",
                s.name, s.start_ns, s.end_ns, s.answer
            );
        }
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Leaf rows of a profile snapshot mapped to layer names, nanoseconds.
pub fn profile_leaves(
    profile: &ProfileSnapshot,
    layer: impl Fn(&str) -> Option<&'static str>,
) -> Vec<(&'static str, i64)> {
    profile
        .rows
        .iter()
        .filter(|row| {
            let prefix = format!("{};", row.path);
            !profile.rows.iter().any(|r| r.path.starts_with(&prefix))
        })
        .filter_map(|row| layer(&row.path).map(|name| (name, row.self_us as i64 * 1000)))
        .collect()
}

/// Total time of the profile row at `path`, nanoseconds (0 if absent).
pub fn row_ns(profile: &ProfileSnapshot, path: &str) -> i64 {
    profile
        .rows
        .iter()
        .find(|r| r.path == path)
        .map_or(0, |r| r.total_us as i64 * 1000)
}

/// Search-engine counters of one answer.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct Counts {
    pub conflicts: u64,
    pub decisions: u64,
    pub propagations: u64,
}

impl Counts {
    pub fn of(e: &EngineStats) -> Self {
        Counts {
            conflicts: e.conflicts,
            decisions: e.decisions,
            propagations: e.propagations,
        }
    }
}

/// Run-wide accumulators for the per-layer metrics that are not span
/// self times.
#[derive(Default)]
pub struct Layers {
    /// Traced answers.
    pub answers: u64,
    /// Sum of the untraced latencies of the same answers, nanoseconds.
    pub untraced_ns: i64,
    /// Engine counters summed over answers.
    pub engine: EngineStats,
    /// Largest engine memory estimate of any answer, bytes.
    pub mem_peak: u64,
    /// Proof-logging time (logged minus proof-free) on answers whose
    /// proof is discarded (SAT), nanoseconds.
    pub prooflog_wasted_ns: i64,
    /// Proof-logging time inside solve and query calls, measured twice:
    /// as the logged call minus its proof-free twin, and as the logged
    /// call's own `proof` search phase. Nanoseconds.
    pub prooflog_twin_ns: i64,
    pub prooflog_profiled_ns: i64,
    pub proof_steps: u64,
    pub proof_bytes: u64,
    pub signals_before: u64,
    pub signals_after: u64,
    pub predlearn_relations: u64,
    pub degradations: u64,
    pub request_bytes: u64,
    pub retries: u64,
    pub trace_events: u64,
}

impl Layers {
    /// Adds one answer's engine counters.
    pub fn add_engine(&mut self, e: &EngineStats) {
        let s = &mut self.engine;
        s.conflicts += e.conflicts;
        s.decisions += e.decisions;
        s.propagations += e.propagations;
        s.narrowings += e.narrowings;
        s.restarts += e.restarts;
        s.lemmas_deleted += e.lemmas_deleted;
        s.learned += e.learned;
        s.fm_calls += e.fm_calls;
        s.fm_subcalls += e.fm_subcalls;
        self.mem_peak = self.mem_peak.max(e.mem_peak);
    }

    /// The per-layer metrics of the run.
    pub fn metrics(&self, tracer: &Tracer) -> Result<Vec<Metric>, String> {
        let n = self.answers.max(1) as f64;
        let (self_ns, root_ns) = tracer.self_times();
        let own = |name: &str| self_ns.get(name).copied().unwrap_or(0);
        let ms = |name: &str| own(name) as f64 / 1e6 / n;
        let per = |v: u64| v as f64 / n;
        let share = |ns: i64| ns as f64 / root_ns.max(1) as f64;
        let prooflog_ns = own("hdpll.prooflog");
        let unattributed = share(own(ROOT));
        let unprofiled = share(own("hdpll.solve") + own("hdpll.session_query"));
        let prooflog_mismatch = share(self.prooflog_twin_ns - self.prooflog_profiled_ns);
        for (value, limit, what) in [
            (unattributed, MAX_GAP, "lies between the harness's spans"),
            (
                unprofiled,
                MAX_GAP,
                "lies inside solve and query calls but in no profile row",
            ),
            (
                prooflog_mismatch,
                MAX_PROOFLOG_MISMATCH,
                "separates the proof-logging time of the proof-free twins \
                 from the logged calls' own proof phase",
            ),
        ] {
            if value.abs() > limit {
                return Err(format!(
                    "{:.1}% of traced answer time {what} (at most {}% allowed)",
                    value * 100.0,
                    limit * 100.0
                ));
            }
        }
        let search = [
            "hdpll.propagate",
            "hdpll.decide",
            "hdpll.analyze",
            "hdpll.restart",
            "fm.final_check",
        ]
        .iter()
        .map(|l| ms(l))
        .sum::<f64>();
        let check_ms = ms("proof.check") + ms("proof.check_assumptions");
        let answer_ms = root_ns as f64 / 1e6 / n;
        let e = &self.engine;
        let m = |name: &'static str, unit: &'static str, value: f64| Metric { name, unit, value };
        Ok(vec![
            m("ir.parse_ms", "ms", ms("ir.parse")),
            m("ir.simplify_ms", "ms", ms("ir.simplify")),
            m("ir.unroll_ms", "ms", ms("ir.unroll")),
            m("ir.certify_model_ms", "ms", ms("ir.certify_model")),
            m("ir.signals_before", "count", per(self.signals_before)),
            m("ir.signals_after", "count", per(self.signals_after)),
            m("hdpll.compile_ms", "ms", ms("hdpll.compile")),
            m("hdpll.predlearn_ms", "ms", ms("hdpll.predlearn")),
            m(
                "hdpll.predlearn_relations",
                "count",
                per(self.predlearn_relations),
            ),
            m("hdpll.solve_setup_ms", "ms", ms("hdpll.solve")),
            m("hdpll.search_ms", "ms", search),
            m("hdpll.propagate_ms", "ms", ms("hdpll.propagate")),
            m("hdpll.decide_ms", "ms", ms("hdpll.decide")),
            m("hdpll.analyze_ms", "ms", ms("hdpll.analyze")),
            m(
                "hdpll.analyze_us_per_conflict",
                "us",
                if e.conflicts == 0 {
                    0.0
                } else {
                    ms("hdpll.analyze") * n * 1e3 / e.conflicts as f64
                },
            ),
            m("hdpll.restart_ms", "ms", ms("hdpll.restart")),
            m("hdpll.prooflog_ms", "ms", ms("hdpll.prooflog")),
            m(
                "hdpll.prooflog_profiled_ms",
                "ms",
                self.prooflog_profiled_ns as f64 / 1e6 / n,
            ),
            m(
                "hdpll.prooflog_wasted_frac",
                "ratio",
                if prooflog_ns > 0 {
                    self.prooflog_wasted_ns as f64 / prooflog_ns as f64
                } else {
                    0.0
                },
            ),
            m("hdpll.session_new_ms", "ms", ms("hdpll.session_new")),
            m("hdpll.session_extend_ms", "ms", ms("hdpll.session_extend")),
            m("hdpll.session_query_ms", "ms", ms("hdpll.session_query")),
            m("hdpll.degradations", "count", per(self.degradations)),
            m("hdpll.conflicts", "count", per(e.conflicts)),
            m("hdpll.decisions", "count", per(e.decisions)),
            m("hdpll.propagations", "count", per(e.propagations)),
            m("hdpll.narrowings", "count", per(e.narrowings)),
            m("hdpll.learned", "count", per(e.learned)),
            m("hdpll.restarts", "count", per(e.restarts)),
            m("hdpll.lemmas_deleted", "count", per(e.lemmas_deleted)),
            m("hdpll.mem_peak_kb", "KiB", self.mem_peak as f64 / 1024.0),
            m("fm.final_check_ms", "ms", ms("fm.final_check")),
            m("fm.calls", "count", per(e.fm_calls)),
            m("fm.subcalls", "count", per(e.fm_subcalls)),
            m("proof.check_ms", "ms", ms("proof.check")),
            m(
                "proof.check_assumptions_ms",
                "ms",
                ms("proof.check_assumptions"),
            ),
            m("proof.steps", "count", per(self.proof_steps)),
            m("proof.bytes", "bytes", per(self.proof_bytes)),
            m(
                "proof.check_per_solve",
                "ratio",
                check_ms / (answer_ms - check_ms).max(1e-9),
            ),
            m("serve.request_parse_ms", "ms", ms("serve.request_parse")),
            m("serve.request_bytes", "bytes", per(self.request_bytes)),
            m("serve.record_ms", "ms", ms("serve.record")),
            m("serve.retries", "count", per(self.retries)),
            m("obs.trace_events", "count", per(self.trace_events)),
            m("bench.answer_ms", "ms", answer_ms),
            m(
                "bench.tracing_overhead",
                "ratio",
                root_ns as f64 / self.untraced_ns.max(1) as f64 - 1.0,
            ),
            m("bench.unattributed_frac", "ratio", unattributed),
            m("bench.unprofiled_frac", "ratio", unprofiled),
            m("bench.prooflog_mismatch_frac", "ratio", prooflog_mismatch),
            m(
                "bench.worst_unattributed_frac",
                "ratio",
                tracer.worst_unattributed_share(),
            ),
        ])
    }
}
