//! Search telemetry for the `rtlsat` stack: a structured event trace,
//! a metrics registry, and the paper-style report generator
//! (DESIGN.md §2.9).
//!
//! The solver talks to telemetry exclusively through [`ObsHandle`], a
//! cloneable handle that is either *off* (`None` inside — every hook is
//! an inlined early-return, one predictable branch on the hot path) or
//! *armed* (a shared [`Obs`] sink collecting events and metrics).
//! The handle is strictly read-only with respect to the search: it
//! receives copies of counters and never hands anything back, so an
//! armed run and an off run take identical decisions (the determinism
//! tests in `tests/telemetry.rs` pin this).
//!
//! Events are counter-stamped, never wall-clock-stamped: identical
//! solves produce byte-identical JSONL traces. Wall-clock lives only in
//! the per-stage spans of the stats-json record, which is assembled by
//! the CLI from [`MetricsSnapshot`] + supervisor stage reports.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod prom;
pub mod report;

use std::cell::RefCell;
use std::rc::Rc;

pub use event::{validate_jsonl, Event, TraceBuf, TraceSummary, TRACE_FORMAT};
pub use metrics::{Hist, HistKind, Metrics, MetricsSnapshot, HIST_BOUNDS};
pub use profile::{
    DurHist, PhaseAcc, ProfRow, ProfileSnapshot, Profiler, RollingHist, DUR_BOUNDS_US, DUR_BUCKETS,
};
pub use prom::{validate_exposition, Prom};
pub use report::{load_dir, parse_record, render_csv, render_markdown, RunRecord, STATS_FORMAT};

/// Configuration for an armed telemetry sink.
#[derive(Clone, Copy, Debug)]
pub struct ObsConfig {
    /// Maximum events retained in the trace buffer; later events are
    /// counted as dropped, never reallocated for.
    pub trace_capacity: usize,
    /// Emit one `PropBatch` event (and sample the worklist depths) every
    /// this many propagation steps.
    pub batch_period: u32,
    /// Arm the phase-attribution profiler ([`profile`]). Off by
    /// default: profile data is wall-clock-derived, so only explicitly
    /// profiled runs carry it (the trace and metrics streams stay
    /// byte-identical either way).
    pub profile: bool,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            trace_capacity: 1 << 20,
            batch_period: 1024,
            profile: false,
        }
    }
}

impl ObsConfig {
    /// The default configuration with the phase profiler armed.
    #[must_use]
    pub fn profiled() -> Self {
        ObsConfig {
            profile: true,
            ..ObsConfig::default()
        }
    }
}

/// The telemetry sink: trace buffer plus metrics registry, plus (when
/// configured) the phase-attribution profiler.
#[derive(Debug)]
pub struct Obs {
    trace: TraceBuf,
    metrics: Metrics,
    profiler: Option<Profiler>,
    batch_period: u32,
    batch_countdown: u32,
}

impl Obs {
    fn new(config: ObsConfig) -> Self {
        let period = config.batch_period.max(1);
        Obs {
            trace: TraceBuf::new(config.trace_capacity),
            metrics: Metrics::default(),
            profiler: config.profile.then(Profiler::new),
            batch_period: period,
            batch_countdown: period,
        }
    }
}

/// A cloneable, optionally-armed handle to a telemetry sink.
///
/// Cloning shares the sink (supervisor stages run on one thread, so a
/// `Rc<RefCell<…>>` suffices). The default handle is off.
#[derive(Clone, Debug, Default)]
pub struct ObsHandle(Option<Rc<RefCell<Obs>>>);

impl ObsHandle {
    /// An armed handle collecting into a fresh sink.
    #[must_use]
    pub fn armed(config: ObsConfig) -> Self {
        ObsHandle(Some(Rc::new(RefCell::new(Obs::new(config)))))
    }

    /// The disabled handle; every hook is a no-op branch.
    #[must_use]
    pub fn off() -> Self {
        ObsHandle(None)
    }

    /// Whether the handle is armed. Hot-path callers use this to skip
    /// preparing event payloads entirely.
    #[inline]
    #[must_use]
    pub fn on(&self) -> bool {
        self.0.is_some()
    }

    /// A search decision was applied.
    #[inline]
    pub fn decision(&self, var: u32, value: bool, level: u32) {
        if let Some(obs) = &self.0 {
            obs.borrow_mut()
                .trace
                .push(Event::Decision { var, value, level });
        }
    }

    /// One propagation step completed; every `batch_period` calls this
    /// emits a `PropBatch` event and samples the worklist depths.
    #[inline]
    pub fn prop_tick(&self, propagations: u64, narrowings: u64, cqueue: u32, clqueue: u32) {
        if let Some(obs) = &self.0 {
            let mut obs = obs.borrow_mut();
            obs.batch_countdown -= 1;
            if obs.batch_countdown == 0 {
                obs.batch_countdown = obs.batch_period;
                obs.trace.push(Event::PropBatch {
                    propagations,
                    narrowings,
                    cqueue,
                    clqueue,
                });
                obs.metrics
                    .record_hist(HistKind::CqueueDepth, u64::from(cqueue));
                obs.metrics
                    .record_hist(HistKind::ClqueueDepth, u64::from(clqueue));
            }
        }
    }

    /// A conflict was analyzed into a lemma of `width` literals.
    #[inline]
    pub fn conflict(&self, width: u32, antecedents: u32, level: u32) {
        if let Some(obs) = &self.0 {
            let mut obs = obs.borrow_mut();
            obs.trace.push(Event::Conflict {
                width,
                antecedents,
                level,
            });
            obs.metrics
                .record_hist(HistKind::LemmaWidth, u64::from(width));
        }
    }

    /// A conflict analysis walked the antecedents of `steps` trail
    /// entries on a trail of `trail` entries. Histogram-only, and fed by
    /// every analysis (also those that refute the instance), so each
    /// family's total equals the analyzed-conflict count.
    #[inline]
    pub fn analysis(&self, steps: u32, trail: u32) {
        if let Some(obs) = &self.0 {
            let mut obs = obs.borrow_mut();
            obs.metrics
                .record_hist(HistKind::AnalysisSteps, u64::from(steps));
            obs.metrics
                .record_hist(HistKind::AnalysisTrail, u64::from(trail));
        }
    }

    /// The trail was unwound from level `from` to level `to`.
    #[inline]
    pub fn backtrack(&self, from: u32, to: u32) {
        if let Some(obs) = &self.0 {
            let mut obs = obs.borrow_mut();
            obs.trace.push(Event::Backtrack { from, to });
            obs.metrics
                .record_hist(HistKind::BacktrackDepth, u64::from(from.saturating_sub(to)));
        }
    }

    /// A domain narrowed by `magnitude` (old span − new span; 1 for a
    /// Boolean fix). Histogram-only: per-narrowing events would dwarf
    /// the rest of the trace.
    #[inline]
    pub fn narrowing(&self, magnitude: u64) {
        if let Some(obs) = &self.0 {
            obs.borrow_mut()
                .metrics
                .record_hist(HistKind::NarrowMagnitude, magnitude);
        }
    }

    /// A scheduled (EMA/Luby) restart fired at the given cumulative
    /// conflict count.
    #[inline]
    pub fn restart(&self, conflicts: u64) {
        if let Some(obs) = &self.0 {
            obs.borrow_mut().trace.push(Event::Restart { conflicts });
        }
    }

    /// A learned-clause DB reduction kept `kept` live clauses and
    /// tombstoned `dropped`; the post-reduction size feeds the
    /// [`HistKind::DbSize`] histogram.
    #[inline]
    pub fn db_reduce(&self, kept: u32, dropped: u32) {
        if let Some(obs) = &self.0 {
            let mut obs = obs.borrow_mut();
            obs.trace.push(Event::DbReduce { kept, dropped });
            obs.metrics.record_hist(HistKind::DbSize, u64::from(kept));
        }
    }

    /// A conflict lemma was learned with the given LBD (glue).
    /// Histogram-only: the `conflict` event already marks the moment.
    #[inline]
    pub fn clause_glue(&self, glue: u32) {
        if let Some(obs) = &self.0 {
            obs.borrow_mut()
                .metrics
                .record_hist(HistKind::ClauseGlue, u64::from(glue));
        }
    }

    /// A predicate-learning probe split `sig=value` into `ways`
    /// justification ways and learned `learned` relations.
    #[inline]
    pub fn way_split(&self, sig: u32, value: bool, ways: u32, learned: u32) {
        if let Some(obs) = &self.0 {
            obs.borrow_mut().trace.push(Event::WaySplit {
                sig,
                value,
                ways,
                learned,
            });
        }
    }

    /// One arithmetic (FM) final check finished.
    #[inline]
    pub fn fm_call(&self, sat: bool, subcalls: u32) {
        if let Some(obs) = &self.0 {
            obs.borrow_mut().trace.push(Event::FmCall { sat, subcalls });
        }
    }

    /// A supervisor stage is starting.
    pub fn stage_start(&self, name: &str) {
        if let Some(obs) = &self.0 {
            let mut obs = obs.borrow_mut();
            let name = obs.trace.intern(name);
            obs.trace.push(Event::StageStart { name });
        }
    }

    /// A supervisor stage finished with the given outcome description.
    pub fn stage_end(&self, name: &str, outcome: &str) {
        if let Some(obs) = &self.0 {
            let mut obs = obs.borrow_mut();
            let name = obs.trace.intern(name);
            let outcome = obs.trace.intern(outcome);
            obs.trace.push(Event::StageEnd { name, outcome });
        }
    }

    /// A serve-mode request is starting; `id` is the client-visible
    /// request id (interned into the trace string table).
    pub fn request_start(&self, id: &str) {
        if let Some(obs) = &self.0 {
            let mut obs = obs.borrow_mut();
            let name = obs.trace.intern(id);
            obs.trace.push(Event::RequestStart { name });
        }
    }

    /// A serve-mode request finished with the given outcome label
    /// (verdict string, `"error"`, `"overloaded"`, …).
    pub fn request_end(&self, id: &str, outcome: &str) {
        if let Some(obs) = &self.0 {
            let mut obs = obs.borrow_mut();
            let name = obs.trace.intern(id);
            let outcome = obs.trace.intern(outcome);
            obs.trace.push(Event::RequestEnd { name, outcome });
        }
    }

    /// One query of an incremental solve session is starting.
    pub fn session_query_start(&self, query: u32, assumptions: u32) {
        if let Some(obs) = &self.0 {
            obs.borrow_mut()
                .trace
                .push(Event::SessionQueryStart { query, assumptions });
        }
    }

    /// One query of an incremental solve session finished with the
    /// given outcome label (verdict string, `"UNKNOWN"`, …).
    pub fn session_query_end(&self, query: u32, outcome: &str) {
        if let Some(obs) = &self.0 {
            let mut obs = obs.borrow_mut();
            let outcome = obs.trace.intern(outcome);
            obs.trace.push(Event::SessionQueryEnd { query, outcome });
        }
    }

    /// Adds `v` to the named monotonic counter (end-of-solve projection
    /// from engine statistics; accumulates across ladder stages).
    pub fn record_counter(&self, name: &'static str, v: u64) {
        if let Some(obs) = &self.0 {
            obs.borrow_mut().metrics.record_counter(name, v);
        }
    }

    /// Max-merges `v` into the named peak gauge.
    pub fn record_peak(&self, name: &'static str, v: u64) {
        if let Some(obs) = &self.0 {
            obs.borrow_mut().metrics.record_peak(name, v);
        }
    }

    /// Whether the phase-attribution profiler is armed. Hot loops read
    /// this once and accumulate locally in a
    /// [`PhaseAcc`](profile::PhaseAcc) rather than calling into the
    /// sink per iteration.
    #[must_use]
    pub fn profiling(&self) -> bool {
        self.0
            .as_ref()
            .is_some_and(|obs| obs.borrow().profiler.is_some())
    }

    /// Opens a profiler span named `name` (no-op unless profiling).
    pub fn profile_enter(&self, name: &str) {
        if let Some(obs) = &self.0 {
            if let Some(p) = &mut obs.borrow_mut().profiler {
                p.enter(name);
            }
        }
    }

    /// Closes the innermost profiler span (no-op unless profiling).
    pub fn profile_exit(&self) {
        if let Some(obs) = &self.0 {
            if let Some(p) = &mut obs.borrow_mut().profiler {
                p.exit();
            }
        }
    }

    /// The profiler's current span-stack depth (0 when not profiling);
    /// pair with [`ObsHandle::profile_unwind`] around code that may
    /// panic with spans open.
    #[must_use]
    pub fn profile_depth(&self) -> usize {
        self.0.as_ref().map_or(0, |obs| {
            obs.borrow().profiler.as_ref().map_or(0, Profiler::depth)
        })
    }

    /// Exits profiler spans until the stack is back to `depth` frames.
    pub fn profile_unwind(&self, depth: usize) {
        if let Some(obs) = &self.0 {
            if let Some(p) = &mut obs.borrow_mut().profiler {
                p.unwind(depth);
            }
        }
    }

    /// Flushes locally-accumulated phase time into the profiler as a
    /// leaf under the currently open span (see
    /// [`Profiler::leaf`]; no-op unless profiling).
    pub fn profile_leaf(&self, name: &str, ns: u64, count: u64, hist: &DurHist) {
        if let Some(obs) = &self.0 {
            if let Some(p) = &mut obs.borrow_mut().profiler {
                p.leaf(name, ns, count, hist);
            }
        }
    }

    /// A snapshot of the profiler's span tree (`None` when off or not
    /// profiling).
    #[must_use]
    pub fn profile_snapshot(&self) -> Option<ProfileSnapshot> {
        self.0
            .as_ref()
            .and_then(|obs| obs.borrow().profiler.as_ref().map(Profiler::snapshot))
    }

    /// The trace as JSONL (`None` when off).
    #[must_use]
    pub fn export_jsonl(&self) -> Option<String> {
        self.0.as_ref().map(|obs| obs.borrow().trace.to_jsonl())
    }

    /// A deterministic snapshot of the metrics registry (`None` when
    /// off).
    #[must_use]
    pub fn snapshot(&self) -> Option<MetricsSnapshot> {
        self.0.as_ref().map(|obs| obs.borrow().metrics.snapshot())
    }

    /// `(recorded, dropped)` event counts (`None` when off).
    #[must_use]
    pub fn trace_counts(&self) -> Option<(u64, u64)> {
        self.0.as_ref().map(|obs| {
            let obs = obs.borrow();
            (obs.trace.events().len() as u64, obs.trace.dropped())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_handle_is_inert() {
        let h = ObsHandle::off();
        assert!(!h.on());
        h.decision(1, true, 1);
        h.prop_tick(1, 0, 0, 0);
        h.conflict(2, 3, 1);
        h.narrowing(4);
        assert_eq!(h.export_jsonl(), None);
        assert_eq!(h.snapshot(), None);
        assert_eq!(h.trace_counts(), None);
    }

    #[test]
    fn armed_handle_collects_and_shares() {
        let h = ObsHandle::armed(ObsConfig {
            trace_capacity: 64,
            batch_period: 2,
            ..ObsConfig::default()
        });
        let clone = h.clone();
        h.decision(3, false, 1);
        clone.conflict(2, 4, 1);
        h.backtrack(5, 1);
        // Batch period 2: only every second tick emits an event.
        h.prop_tick(1, 0, 3, 0);
        h.prop_tick(2, 1, 2, 1);
        h.prop_tick(3, 1, 1, 0);
        let (events, dropped) = h.trace_counts().unwrap();
        assert_eq!(events, 4); // decision, conflict, backtrack, one batch
        assert_eq!(dropped, 0);
        let text = h.export_jsonl().unwrap();
        let summary = validate_jsonl(&text).unwrap();
        assert_eq!(summary.events, 4);
        let snap = h.snapshot().unwrap();
        assert_eq!(snap.hist(HistKind::BacktrackDepth).total, 1);
        assert_eq!(snap.hist(HistKind::LemmaWidth).total, 1);
        assert_eq!(snap.hist(HistKind::CqueueDepth).total, 1);
    }

    #[test]
    fn counters_project_through_handle() {
        let h = ObsHandle::armed(ObsConfig::default());
        h.record_counter("decisions", 7);
        h.record_counter("decisions", 3);
        h.record_peak("max_cqueue", 2);
        h.record_peak("max_cqueue", 9);
        let snap = h.snapshot().unwrap();
        assert_eq!(snap.counter("decisions"), Some(10));
        assert_eq!(snap.peak("max_cqueue"), Some(9));
    }

    #[test]
    fn profiler_arms_only_on_request_and_snapshots_through_handle() {
        // Default config: armed telemetry, but no profiler.
        let h = ObsHandle::armed(ObsConfig::default());
        assert!(!h.profiling());
        h.profile_enter("stage");
        h.profile_exit();
        assert_eq!(h.profile_snapshot(), None);
        // Profiled config: spans and leaves land in the snapshot.
        let h = ObsHandle::armed(ObsConfig::profiled());
        assert!(h.profiling());
        let depth = h.profile_depth();
        h.profile_enter("stage");
        h.profile_enter("search");
        h.profile_leaf("propagate", 2000, 3, &DurHist::single_ns(700));
        h.profile_unwind(depth);
        assert_eq!(h.profile_depth(), 0);
        let snap = h.profile_snapshot().unwrap();
        let paths: Vec<&str> = snap.rows.iter().map(|r| r.path.as_str()).collect();
        assert_eq!(paths, ["stage", "stage;search", "stage;search;propagate"]);
        assert_eq!(snap.rows[2].calls, 3);
    }

    #[test]
    fn stage_spans_appear_in_trace() {
        let h = ObsHandle::armed(ObsConfig::default());
        h.stage_start("hdpll-sp");
        h.stage_end("hdpll-sp", "UNSAT (proof checked)");
        let text = h.export_jsonl().unwrap();
        assert!(text.contains("\"e\":\"stage_start\",\"name\":\"hdpll-sp\""));
        assert!(text.contains("\"outcome\":\"UNSAT (proof checked)\""));
        validate_jsonl(&text).unwrap();
    }

    #[test]
    fn request_spans_appear_in_trace() {
        let h = ObsHandle::armed(ObsConfig::default());
        h.request_start("req-7");
        h.request_end("req-7", "UNSAT");
        let text = h.export_jsonl().unwrap();
        assert!(text.contains("\"e\":\"request_start\",\"name\":\"req-7\""));
        assert!(text.contains("\"e\":\"request_end\",\"name\":\"req-7\",\"outcome\":\"UNSAT\""));
        validate_jsonl(&text).unwrap();
    }
}
