//! Live serve metrics: the serve counts (the one store the `summary`
//! record reads too), rolling latency histograms, queue/in-flight
//! gauges, per-worker busy time — plus the two ways they leave the
//! process:
//!
//! * periodic `metrics` JSONL records interleaved into the response
//!   stream (opt-in via `--metrics-every`), each carrying both the
//!   window delta since the previous record and cumulative totals, so
//!   summing the windows of all `metrics` records reproduces the final
//!   `summary` record exactly;
//! * a Prometheus text exposition answered to the `{"op":"status"}`
//!   control line (hand-rolled in [`rtl_obs::prom`], no dependencies).
//!
//! A [`SlowRing`] captures full diagnostics (the result record, with
//! its profile section, plus the request's trace) for requests that
//! exceed a latency threshold, into a bounded ring of files — the
//! newest N slow requests are always on disk, old captures are
//! overwritten in place.
//!
//! Apart from the counts, which the loop feeds with what it knew when it
//! wrote each record, everything here is wall-clock territory by design.
//! None of it is ever emitted unless explicitly requested
//! (`--metrics-every`, `--slow-ms`, or a `status` probe), which is what
//! keeps the default serve output byte-identical across runs.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rtl_obs::{json, Prom, RollingHist};

use crate::{lock, SERVE_FORMAT};

/// How many rotating windows back the "rolling" latency quantiles look.
/// With one rotation per `metrics` record, the rolling view covers the
/// last `ROLLING_WINDOWS` reporting periods.
const ROLLING_WINDOWS: usize = 8;

/// The serve counts. [`ServeMetrics`] holds the one cumulative copy;
/// `metrics` records, the Prometheus exposition and the `summary`
/// record (the counts gained over one stream) are all read from it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Solve requests accepted off the wire.
    pub requests: u64,
    /// `result` records written.
    pub results: u64,
    /// `error` records written.
    pub errors: u64,
    /// `overloaded` rejections written.
    pub overloaded: u64,
    /// Retry-with-degradation solves.
    pub retries: u64,
    /// SAT verdicts.
    pub sat: u64,
    /// UNSAT verdicts.
    pub unsat: u64,
    /// UNKNOWN verdicts.
    pub unknown: u64,
    /// Session-cache hits.
    pub cache_hits: u64,
    /// Session-cache misses.
    pub cache_misses: u64,
    /// Slow-request captures written.
    pub slow_captures: u64,
}

impl Counts {
    /// The counts gained since `base`, an earlier reading of this store.
    pub(crate) fn minus(&self, base: &Counts) -> Counts {
        Counts {
            requests: self.requests - base.requests,
            results: self.results - base.results,
            errors: self.errors - base.errors,
            overloaded: self.overloaded - base.overloaded,
            retries: self.retries - base.retries,
            sat: self.sat - base.sat,
            unsat: self.unsat - base.unsat,
            unknown: self.unknown - base.unknown,
            cache_hits: self.cache_hits - base.cache_hits,
            cache_misses: self.cache_misses - base.cache_misses,
            slow_captures: self.slow_captures - base.slow_captures,
        }
    }

    /// Records handled (answered one way or another) — the cadence unit
    /// for `--metrics-every <n>`.
    fn handled(&self) -> u64 {
        self.results + self.errors + self.overloaded
    }
}

/// What the serve loop knows about one record it writes: the facts
/// [`ServeMetrics::observe`] counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Answer<'a> {
    /// The verdict label of a `result` record (`SAT`, `UNSAT`,
    /// `UNKNOWN`); `None` for an `error` record.
    pub verdict: Option<&'a str>,
    /// Solve attempts the request took; each one past the first was a
    /// retry with degradation.
    pub attempts: u32,
    /// The session-cache lookup of the attempt that answered: `Some(true)`
    /// a hit, `Some(false)` a miss, `None` off the cached-session path.
    pub cache_hit: Option<bool>,
}

struct Inner {
    latency: RollingHist,
    counts: Counts,
    /// Counter values at the previous `metrics` record (window base).
    last: Counts,
    last_emit: Instant,
    busy_ns: Vec<u64>,
}

/// Aggregated live metrics for one serve session (or one socket
/// server's lifetime — connections may share one instance). All entry
/// points are cheap and thread-safe: gauges are atomics, everything
/// else takes one short mutex per *answered request*, never inside a
/// solve.
pub struct ServeMetrics {
    start: Instant,
    queue_depth: AtomicU64,
    in_flight: AtomicU64,
    inner: Mutex<Inner>,
}

impl Default for ServeMetrics {
    fn default() -> Self {
        ServeMetrics::new()
    }
}

impl ServeMetrics {
    /// A fresh aggregate; the uptime clock starts now.
    #[must_use]
    pub fn new() -> Self {
        ServeMetrics {
            start: Instant::now(),
            queue_depth: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            inner: Mutex::new(Inner {
                latency: RollingHist::new(ROLLING_WINDOWS),
                counts: Counts::default(),
                last: Counts::default(),
                last_emit: Instant::now(),
                busy_ns: Vec::new(),
            }),
        }
    }

    /// A request entered the bounded queue.
    pub fn queue_inc(&self) {
        self.queue_depth.fetch_add(1, Ordering::Relaxed);
    }

    /// A worker picked a request off the queue.
    pub fn queue_dec(&self) {
        // Saturating: a dec without a matching inc (inline mode never
        // queues) must not wrap the gauge.
        let _ = self
            .queue_depth
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(1))
            });
    }

    /// A solve started.
    pub fn inflight_inc(&self) {
        self.in_flight.fetch_add(1, Ordering::Relaxed);
    }

    /// A solve finished (either way).
    pub fn inflight_dec(&self) {
        let _ = self
            .in_flight
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(1))
            });
    }

    /// Current queue depth gauge.
    #[must_use]
    pub fn queue_depth(&self) -> u64 {
        self.queue_depth.load(Ordering::Relaxed)
    }

    /// Current in-flight gauge.
    #[must_use]
    pub fn in_flight(&self) -> u64 {
        self.in_flight.load(Ordering::Relaxed)
    }

    /// A line parsed as a solve request.
    pub fn observe_request(&self) {
        lock(&self.inner).counts.requests += 1;
    }

    /// An `overloaded` rejection was written.
    pub fn observe_overloaded(&self) {
        lock(&self.inner).counts.overloaded += 1;
    }

    /// A slow capture was written.
    pub fn observe_slow_capture(&self) {
        lock(&self.inner).counts.slow_captures += 1;
    }

    /// Folds one answered line into the aggregate from what the serve
    /// loop knew when it wrote the record: its latency, `worker`'s busy
    /// time, the verdict (or the error), the retries and the
    /// session-cache lookup. No record is read back.
    pub fn observe(&self, worker: usize, answer: &Answer<'_>, elapsed: Duration) {
        let elapsed_us = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
        let mut inner = lock(&self.inner);
        if worker >= inner.busy_ns.len() {
            inner.busy_ns.resize(worker + 1, 0);
        }
        inner.busy_ns[worker] = inner.busy_ns[worker]
            .saturating_add(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
        inner.latency.record_us(elapsed_us);
        let c = &mut inner.counts;
        match answer.verdict {
            Some(verdict) => {
                c.results += 1;
                match verdict {
                    "SAT" => c.sat += 1,
                    "UNSAT" => c.unsat += 1,
                    _ => c.unknown += 1,
                }
            }
            None => c.errors += 1,
        }
        c.retries += u64::from(answer.attempts.saturating_sub(1));
        c.cache_hits += u64::from(answer.cache_hit == Some(true));
        c.cache_misses += u64::from(answer.cache_hit == Some(false));
    }

    /// [`ServeMetrics::observe`] for a record line known only as text:
    /// classifies the line (a line that does not parse counts as an
    /// error record), then observes it. The serve loop never calls this;
    /// it is for callers replaying written records.
    pub fn observe_record(&self, worker: usize, record: &str, elapsed: Duration) {
        let parsed = json::parse(record.trim_end()).ok();
        let field = |key: &str| parsed.as_ref().and_then(|v| v.get(key));
        let counter = |name: &str| {
            field("counters")
                .and_then(|c| c.get(name))
                .and_then(json::Value::as_u64)
                .unwrap_or(0)
        };
        let result = field("type").and_then(json::Value::as_str) == Some("result");
        let (hits, misses) = (counter("compile_cache_hit"), counter("compile_cache_miss"));
        let answer = Answer {
            verdict: result.then(|| field("verdict").and_then(json::Value::as_str).unwrap_or("")),
            attempts: field("attempts")
                .and_then(json::Value::as_u64)
                .map_or(1, |a| u32::try_from(a).unwrap_or(u32::MAX)),
            cache_hit: (hits + misses > 0).then_some(hits > 0),
        };
        self.observe(worker, &answer, elapsed);
    }

    /// Cumulative counts so far; a stream's summary is the difference of
    /// its closing and opening readings.
    #[must_use]
    pub fn counts(&self) -> Counts {
        lock(&self.inner).counts
    }

    /// Emits a `metrics` record now if the configured cadence says one
    /// is due: `every_n` answered records since the last one, or
    /// `every` wall-clock elapsed. `None` when neither trigger fired
    /// (or neither cadence is configured).
    #[must_use]
    pub fn maybe_metrics_record(
        &self,
        every_n: Option<u64>,
        every: Option<Duration>,
    ) -> Option<String> {
        if every_n.is_none() && every.is_none() {
            return None;
        }
        let mut inner = lock(&self.inner);
        let by_count =
            every_n.is_some_and(|n| inner.counts.handled() - inner.last.handled() >= n.max(1));
        let by_time = every.is_some_and(|t| inner.last_emit.elapsed() >= t);
        if !(by_count || by_time) {
            return None;
        }
        Some(self.render_metrics(&mut inner))
    }

    /// The final `metrics` record, written right before the `summary`
    /// so that the window columns of all `metrics` records sum exactly
    /// to the summary's totals.
    #[must_use]
    pub fn final_metrics_record(&self) -> String {
        let mut inner = lock(&self.inner);
        self.render_metrics(&mut inner)
    }

    fn render_metrics(&self, inner: &mut Inner) -> String {
        use std::fmt::Write as _;
        let window = inner.counts.minus(&inner.last);
        inner.last = inner.counts;
        inner.last_emit = Instant::now();
        let rolling = inner.latency.rolling();
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"serve_format\":{SERVE_FORMAT},\"type\":\"metrics\",\"uptime_ms\":{}",
            self.start.elapsed().as_millis()
        );
        let section = |out: &mut String, name: &str, c: &Counts| {
            let _ = write!(
                out,
                ",\"{name}\":{{\"requests\":{},\"results\":{},\"errors\":{},\
                 \"overloaded\":{},\"retries\":{},\"sat\":{},\"unsat\":{},\
                 \"unknown\":{},\"cache_hits\":{},\"cache_misses\":{},\
                 \"slow_captures\":{}}}",
                c.requests,
                c.results,
                c.errors,
                c.overloaded,
                c.retries,
                c.sat,
                c.unsat,
                c.unknown,
                c.cache_hits,
                c.cache_misses,
                c.slow_captures,
            );
        };
        section(&mut out, "window", &window);
        section(&mut out, "total", &inner.counts);
        let _ = write!(
            out,
            ",\"latency_us\":{{\"p50\":{},\"p90\":{},\"p99\":{},\"count\":{},\"sum\":{}}}",
            rolling.quantile_us(0.50),
            rolling.quantile_us(0.90),
            rolling.quantile_us(0.99),
            rolling.total,
            rolling.sum_us,
        );
        let _ = write!(
            out,
            ",\"queue_depth\":{},\"in_flight\":{}}}",
            self.queue_depth(),
            self.in_flight()
        );
        out.push('\n');
        // One window per reporting period: the rolling quantiles above
        // cover the last ROLLING_WINDOWS periods.
        inner.latency.rotate();
        out
    }

    /// Renders the Prometheus text exposition answered to
    /// `{"op":"status"}`. The histogram is the *cumulative* latency
    /// histogram, so its `_count` reconciles with the summary record's
    /// `results + errors`.
    #[must_use]
    pub fn prometheus(&self) -> String {
        let inner = lock(&self.inner);
        let c = inner.counts;
        let mut p = Prom::new();
        p.counter(
            "rtlsat_requests_total",
            "Solve requests accepted off the wire.",
            &[],
            c.requests,
        );
        for (verdict, n) in [("sat", c.sat), ("unsat", c.unsat), ("unknown", c.unknown)] {
            p.counter(
                "rtlsat_results_total",
                "Result records written, by verdict.",
                &[("verdict", verdict)],
                n,
            );
        }
        p.counter(
            "rtlsat_errors_total",
            "Error records written.",
            &[],
            c.errors,
        );
        p.counter(
            "rtlsat_overloaded_total",
            "Requests rejected because the queue was full.",
            &[],
            c.overloaded,
        );
        p.counter(
            "rtlsat_retries_total",
            "Solves that took the retry-with-degradation path.",
            &[],
            c.retries,
        );
        for (outcome, n) in [("hit", c.cache_hits), ("miss", c.cache_misses)] {
            p.counter(
                "rtlsat_session_cache_total",
                "Session-cache lookups, by outcome.",
                &[("outcome", outcome)],
                n,
            );
        }
        p.counter(
            "rtlsat_slow_captures_total",
            "Slow-request diagnostics written to the capture ring.",
            &[],
            c.slow_captures,
        );
        p.gauge(
            "rtlsat_queue_depth",
            "Requests waiting in the bounded queue.",
            &[],
            self.queue_depth() as f64,
        );
        p.gauge(
            "rtlsat_in_flight",
            "Solves currently executing.",
            &[],
            self.in_flight() as f64,
        );
        p.gauge(
            "rtlsat_uptime_seconds",
            "Seconds since the metrics aggregate was created.",
            &[],
            self.start.elapsed().as_secs_f64(),
        );
        let uptime_ns = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX).max(1);
        for (i, &busy) in inner.busy_ns.iter().enumerate() {
            let label = i.to_string();
            p.gauge(
                "rtlsat_worker_busy_ratio",
                "Fraction of uptime each worker spent answering requests.",
                &[("worker", &label)],
                busy as f64 / uptime_ns as f64,
            );
        }
        p.histogram(
            "rtlsat_request_latency_us",
            "Answered-request latency in microseconds (cumulative).",
            inner.latency.cumulative(),
        );
        p.finish()
    }
}

/// A bounded ring of slow-request capture files: capture `k` lands in
/// `slow-{k % cap:03}.json`, so at most `cap` files ever exist and the
/// newest captures overwrite the oldest.
pub struct SlowRing {
    dir: PathBuf,
    cap: u64,
    next: AtomicU64,
}

impl SlowRing {
    /// A ring writing up to `cap` files under `dir` (created on the
    /// first capture).
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>, cap: u64) -> Self {
        SlowRing {
            dir: dir.into(),
            cap: cap.max(1),
            next: AtomicU64::new(0),
        }
    }

    /// The ring's directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Captures one slow request: the full result record (including its
    /// profile section when the handle was profiled) plus the request's
    /// trace JSONL, as one JSON object.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation and file-write failures (the serve
    /// loop logs these as a counter, never as a request error).
    pub fn capture(
        &self,
        id: &str,
        seq: u64,
        elapsed: Duration,
        record: &str,
        trace: Option<&str>,
    ) -> std::io::Result<PathBuf> {
        use std::fmt::Write as _;
        std::fs::create_dir_all(&self.dir)?;
        let slot = self.next.fetch_add(1, Ordering::Relaxed) % self.cap;
        let path = self.dir.join(format!("slow-{slot:03}.json"));
        let mut body = String::new();
        let _ = write!(
            body,
            "{{\"slow_capture\":1,\"id\":\"{}\",\"seq\":{seq},\"elapsed_ms\":{}",
            json::escape(id),
            elapsed.as_millis()
        );
        // The record is a complete JSON object (one line); splice it in
        // verbatim as a member.
        let _ = write!(body, ",\"record\":{}", record.trim_end());
        match trace {
            Some(t) => {
                let _ = write!(body, ",\"trace\":\"{}\"", json::escape(t));
            }
            None => body.push_str(",\"trace\":null"),
        }
        body.push_str("}\n");
        std::fs::write(&path, &body)?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtl_obs::validate_exposition;

    fn result_record(verdict: &str, attempts: u64, hits: u64, misses: u64) -> String {
        format!(
            "{{\"serve_format\":{SERVE_FORMAT},\"type\":\"result\",\"id\":\"r\",\"seq\":1,\
             \"attempts\":{attempts},\"verdict\":\"{verdict}\",\
             \"counters\":{{\"compile_cache_hit\":{hits},\"compile_cache_miss\":{misses}}}}}\n"
        )
    }

    #[test]
    fn records_classify_into_counters() {
        let m = ServeMetrics::new();
        m.observe_request();
        m.observe_request();
        m.observe_request();
        m.observe_record(0, &result_record("SAT", 1, 1, 0), Duration::from_micros(100));
        m.observe_record(0, &result_record("UNSAT", 2, 0, 1), Duration::from_micros(300));
        m.observe_record(
            1,
            "{\"serve_format\":2,\"type\":\"error\",\"id\":\"x\",\"seq\":3,\"error\":\"bad\"}\n",
            Duration::from_micros(10),
        );
        m.observe_overloaded();
        let c = m.counts();
        assert_eq!(c.results, 2);
        assert_eq!(c.errors, 1);
        assert_eq!(c.overloaded, 1);
        assert_eq!((c.sat, c.unsat, c.unknown), (1, 1, 0));
        assert_eq!(c.retries, 1, "attempts=2 is one retry");
        assert_eq!((c.cache_hits, c.cache_misses), (1, 1));
    }

    #[test]
    fn metrics_record_windows_sum_to_totals() {
        let m = ServeMetrics::new();
        let mut windows = Vec::new();
        for round in 0..3 {
            for _ in 0..=round {
                m.observe_request();
                m.observe_record(0, &result_record("SAT", 1, 0, 0), Duration::from_micros(50));
            }
            windows.push(m.final_metrics_record());
        }
        let mut sum = 0u64;
        for w in &windows {
            let v = json::parse(w.trim_end()).unwrap();
            assert_eq!(v.get("type").and_then(json::Value::as_str), Some("metrics"));
            sum += v
                .get("window")
                .and_then(|w| w.get("results"))
                .and_then(json::Value::as_u64)
                .unwrap();
        }
        assert_eq!(sum, 6, "1 + 2 + 3 results across the three windows");
        let last = json::parse(windows.last().unwrap().trim_end()).unwrap();
        assert_eq!(
            last.get("total")
                .and_then(|t| t.get("results"))
                .and_then(json::Value::as_u64),
            Some(6)
        );
    }

    #[test]
    fn cadence_by_count_fires_every_n_handled() {
        let m = ServeMetrics::new();
        for i in 1..=5 {
            m.observe_record(0, &result_record("SAT", 1, 0, 0), Duration::from_micros(10));
            let due = m.maybe_metrics_record(Some(2), None);
            assert_eq!(due.is_some(), i % 2 == 0, "after {i} records");
        }
        assert!(
            m.maybe_metrics_record(None, None).is_none(),
            "no cadence configured, never due"
        );
    }

    #[test]
    fn exposition_is_valid_and_reconciles_with_counts() {
        let m = ServeMetrics::new();
        for _ in 0..4 {
            m.observe_request();
            m.observe_record(0, &result_record("SAT", 1, 0, 0), Duration::from_micros(64));
        }
        m.observe_record(
            0,
            "{\"serve_format\":2,\"type\":\"error\",\"id\":null,\"seq\":9,\"error\":\"x\"}\n",
            Duration::from_micros(8),
        );
        let text = m.prometheus();
        validate_exposition(&text).unwrap();
        assert!(text.contains("rtlsat_requests_total 4\n"), "{text}");
        assert!(text.contains("rtlsat_results_total{verdict=\"sat\"} 4\n"));
        assert!(text.contains("rtlsat_errors_total 1\n"));
        // The histogram count covers every answered record.
        assert!(text.contains("rtlsat_request_latency_us_count 5\n"), "{text}");
    }

    #[test]
    fn slow_ring_wraps_at_capacity() {
        let dir = std::env::temp_dir().join(format!("rtlsat-slowring-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ring = SlowRing::new(&dir, 2);
        let rec = result_record("SAT", 1, 0, 0);
        let mut paths = Vec::new();
        for i in 0..3u64 {
            let p = ring
                .capture(&format!("r{i}"), i, Duration::from_millis(42), &rec, Some("{}"))
                .unwrap();
            paths.push(p);
        }
        assert_eq!(paths[0], paths[2], "third capture overwrites the first slot");
        let files: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert_eq!(files.len(), 2, "ring holds at most cap files");
        let body = std::fs::read_to_string(&paths[2]).unwrap();
        let v = json::parse(body.trim_end()).unwrap();
        assert_eq!(v.get("id").and_then(json::Value::as_str), Some("r2"));
        assert_eq!(v.get("elapsed_ms").and_then(json::Value::as_u64), Some(42));
        assert!(v.get("record").is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
