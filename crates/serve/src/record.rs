//! Response-record assembly: the stats-json solve record (shared with
//! the one-shot CLI's `--stats-json`) plus the serve-level envelope
//! records (`error`, `overloaded`, `summary`).
//!
//! Every record is a single JSON object on one line, terminated by a
//! newline, so a served session is itself valid JSONL. Solve records
//! carry `"stats_format"` and are consumed by `rtlsat report`; the
//! serve envelope adds `"serve_format"`, `"type"`, `"id"`, and `"seq"`
//! fields in front, which the report parser ignores.

use std::fmt::Write as _;

use rtl_hdpll::{Certification, HdpllResult, SupervisedResult};
use rtl_obs::{self as obs, ObsHandle};

use crate::SERVE_FORMAT;

/// Identity of one solve, echoed into its stats-json record.
#[derive(Clone, Debug)]
pub struct SolveMeta {
    /// Case label (the CLI uses the netlist file stem).
    pub case: String,
    /// Netlist path (or a placeholder for inline netlists).
    pub file: String,
    /// Goal signal name.
    pub goal: String,
    /// Engine label.
    pub engine: String,
}

/// Composes a stats-json run record: a single self-describing JSON
/// object (`"stats_format"`) holding the verdict, how it was certified,
/// the per-stage supervisor spans, the solver counters and peaks
/// projected through the metrics registry, and the hot-path histograms.
/// `rtlsat report` consumes a directory (or served stream) of these.
///
/// `prefix` is spliced verbatim right after the opening brace — the
/// serve loop passes its envelope fields (`"serve_format":…,"type":…`),
/// the one-shot CLI passes `""`. It must be either empty or a valid
/// comma-terminated sequence of JSON members.
#[must_use]
pub fn stats_json_record(
    meta: &SolveMeta,
    result: &SupervisedResult,
    handle: &ObsHandle,
    prefix: &str,
) -> String {
    let esc = obs::json::escape;

    let verdict = result.verdict.label();
    // Certification mirrors the supervisor's trust ladder: SAT models
    // are always simulator-certified; UNSAT carries the proof /
    // cross-check / uncertified distinction; UNKNOWN certifies nothing.
    let certification = match &result.verdict {
        HdpllResult::Sat(_) => "model certified",
        HdpllResult::Unsat => match result.unsat_certification() {
            Some(Certification::Proof) => "proof checked",
            Some(Certification::CrossChecked) => "cross-checked",
            _ => "uncertified",
        },
        HdpllResult::Unknown => "none",
    };
    let answering = result
        .answered_by
        .as_ref()
        .and_then(|name| result.reports.iter().find(|r| &r.stage == name))
        .and_then(|r| r.stats.as_ref());
    let (search_ms, learn_ms) = answering.map_or((0.0, 0.0), |s| {
        (
            s.search_time.as_secs_f64() * 1e3,
            s.learn_time.as_secs_f64() * 1e3,
        )
    });

    let mut out = String::new();
    out.push('{');
    out.push_str(prefix);
    let _ = write!(out, "\"stats_format\":{}", obs::STATS_FORMAT);
    let _ = write!(out, ",\"case\":\"{}\"", esc(&meta.case));
    let _ = write!(out, ",\"file\":\"{}\"", esc(&meta.file));
    let _ = write!(out, ",\"goal\":\"{}\"", esc(&meta.goal));
    let _ = write!(out, ",\"engine\":\"{}\"", esc(&meta.engine));
    let _ = write!(out, ",\"verdict\":\"{verdict}\"");
    match &result.answered_by {
        Some(stage) => {
            let _ = write!(out, ",\"answered_by\":\"{}\"", esc(stage));
        }
        None => out.push_str(",\"answered_by\":null"),
    }
    let _ = write!(out, ",\"certification\":\"{certification}\"");
    let _ = write!(out, ",\"search_time_ms\":{search_ms:.3}");
    let _ = write!(out, ",\"learn_time_ms\":{learn_ms:.3}");

    out.push_str(",\"stages\":[");
    for (i, report) in result.reports.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"time_ms\":{:.3},\"outcome\":\"{}\"",
            esc(&report.stage),
            report.time.as_secs_f64() * 1e3,
            esc(&report.outcome.to_string()),
        );
        match report.stats.as_ref().and_then(|s| s.abort) {
            Some(reason) => {
                let _ = write!(out, ",\"abort\":\"{}\"", esc(&reason.to_string()));
            }
            None => out.push_str(",\"abort\":null"),
        }
        out.push('}');
    }
    out.push(']');

    let snapshot = handle.snapshot().unwrap_or_default();
    out.push_str(",\"counters\":{");
    for (i, (name, v)) in snapshot.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{name}\":{v}");
    }
    out.push_str("},\"peaks\":{");
    for (i, (name, v)) in snapshot.peaks.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{name}\":{v}");
    }
    out.push_str("},\"histograms\":{");
    for (i, kind) in obs::HistKind::ALL.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let hist = snapshot.hist(*kind);
        let _ = write!(out, "\"{}\":{{\"bounds\":[", kind.name());
        for (j, b) in obs::HIST_BOUNDS.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "{b}");
        }
        out.push_str("],\"counts\":[");
        for (j, c) in hist.counts.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "{c}");
        }
        let _ = write!(out, "],\"total\":{}}}", hist.total);
    }
    out.push('}');

    let (events, dropped) = handle.trace_counts().unwrap_or((0, 0));
    let _ = write!(out, ",\"trace\":{{\"events\":{events},\"dropped\":{dropped}}}");

    // The profile section (stats-format v5) appears only when the
    // handle was armed with `ObsConfig::profile` — plain trace/metrics
    // runs stay byte-identical to v4 output modulo the format number.
    if let Some(snap) = handle.profile_snapshot() {
        out.push_str(",\"profile\":{\"bounds_us\":[");
        for (i, b) in obs::DUR_BOUNDS_US.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{b}");
        }
        out.push_str("],\"phases\":[");
        for (i, row) in snap.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"path\":\"{}\",\"calls\":{},\"total_us\":{},\"self_us\":{}",
                esc(&row.path),
                row.calls,
                row.total_us,
                row.self_us,
            );
            out.push_str(",\"hist\":[");
            for (j, c) in row.hist.counts.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{c}");
            }
            out.push_str("]}");
        }
        out.push_str("]}");
    }
    out.push_str("}\n");
    out
}

/// The serve envelope prefix for a `result` record (spliced into
/// [`stats_json_record`]).
#[must_use]
pub fn result_prefix(id: &str, seq: u64, attempts: u32) -> String {
    format!(
        "\"serve_format\":{SERVE_FORMAT},\"type\":\"result\",\"id\":\"{}\",\"seq\":{seq},\"attempts\":{attempts},",
        obs::json::escape(id)
    )
}

/// An `error` record: the request was received but could not be
/// solved (malformed line, unreadable netlist, unknown goal, repeated
/// panic, …). `id` is `None` when the line was too broken to carry one.
#[must_use]
pub fn error_record(id: Option<&str>, seq: u64, detail: &str) -> String {
    let id_json = match id {
        Some(id) => format!("\"{}\"", obs::json::escape(id)),
        None => "null".to_string(),
    };
    format!(
        "{{\"serve_format\":{SERVE_FORMAT},\"type\":\"error\",\"id\":{id_json},\"seq\":{seq},\"error\":\"{}\"}}\n",
        obs::json::escape(detail)
    )
}

/// An `overloaded` rejection: the bounded request queue was full. The
/// client may retry after backing off. Since serve-format v2 the
/// record carries the queue state that caused the rejection.
#[must_use]
pub fn overloaded_record(id: &str, seq: u64, queue_depth: u64, in_flight: u64) -> String {
    format!(
        "{{\"serve_format\":{SERVE_FORMAT},\"type\":\"overloaded\",\"id\":\"{}\",\"seq\":{seq},\"queue_depth\":{queue_depth},\"in_flight\":{in_flight},\"error\":\"request queue full\"}}\n",
        obs::json::escape(id)
    )
}

/// Counts for the final `summary` record, also returned from
/// [`crate::serve`] for the caller.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Input lines that parsed as solve requests.
    pub requests: u64,
    /// `result` records written.
    pub results: u64,
    /// `error` records written.
    pub errors: u64,
    /// `overloaded` records written.
    pub overloaded: u64,
    /// Solves that took the retry-with-degradation path.
    pub retries: u64,
}

/// The final `summary` record, written exactly once per served stream
/// after the drain completes. `drained` is `false` when the drain
/// deadline expired and in-flight solves were cancelled.
#[must_use]
pub fn summary_record(tally: &Tally, drained: bool) -> String {
    format!(
        "{{\"serve_format\":{SERVE_FORMAT},\"type\":\"summary\",\"requests\":{},\"results\":{},\"errors\":{},\"overloaded\":{},\"retries\":{},\"drained\":{drained}}}\n",
        tally.requests, tally.results, tally.errors, tally.overloaded, tally.retries
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtl_obs::json;

    #[test]
    fn envelope_records_are_valid_json_lines() {
        for record in [
            error_record(Some("r1"), 3, "bad \"quote\""),
            error_record(None, 0, "malformed"),
            overloaded_record("r2", 4, 8, 2),
            summary_record(
                &Tally {
                    requests: 5,
                    results: 3,
                    errors: 1,
                    overloaded: 1,
                    retries: 2,
                },
                true,
            ),
        ] {
            assert!(record.ends_with('\n'));
            let v = json::parse(record.trim_end()).expect("valid JSON");
            assert_eq!(
                v.get("serve_format").and_then(json::Value::as_u64),
                Some(u64::from(SERVE_FORMAT))
            );
            assert!(v.get("type").and_then(json::Value::as_str).is_some());
        }
    }

    #[test]
    fn overloaded_records_carry_queue_state() {
        let record = overloaded_record("r9", 12, 16, 4);
        let v = json::parse(record.trim_end()).unwrap();
        assert_eq!(v.get("queue_depth").and_then(json::Value::as_u64), Some(16));
        assert_eq!(v.get("in_flight").and_then(json::Value::as_u64), Some(4));
        assert_eq!(v.get("seq").and_then(json::Value::as_u64), Some(12));
    }

    #[test]
    fn result_prefix_splices_into_an_object() {
        let prefix = result_prefix("r/1", 7, 2);
        let object = format!("{{{prefix}\"stats_format\":3}}");
        let v = json::parse(&object).unwrap();
        assert_eq!(v.get("id").and_then(json::Value::as_str), Some("r/1"));
        assert_eq!(v.get("seq").and_then(json::Value::as_u64), Some(7));
        assert_eq!(v.get("attempts").and_then(json::Value::as_u64), Some(2));
        assert_eq!(v.get("stats_format").and_then(json::Value::as_u64), Some(3));
    }
}
