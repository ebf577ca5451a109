//! `rtlsat report`: aggregate recorded `--stats-json` files from a
//! benchmark directory into the paper's per-circuit table layout
//! (decisions, backtracks, learn time, search time, verdict,
//! certification) as markdown or CSV.

use std::path::Path;

use crate::json::{self, Value};

/// The stats-json format version (`"stats_format"` field). Version 2
/// added the clause-DB management counters (the forced/scheduled
/// restart split, `db_reductions`, `lemmas_deleted`); version-1 records
/// still parse, with those counters reading as zero. Version 4 added
/// the word-level preprocessing span and counters
/// (`preproc_signals_removed`, `preproc_subterms_shared`,
/// `preproc_folds`); older records still parse, without them.
/// Version 5 added the optional `profile` section (phase-attribution
/// wall-clock breakdown, DESIGN.md §2.14) and the per-phase report
/// columns derived from it; records without one read as all-zero
/// phase times. Version 6 added the `analysis_steps` and
/// `analysis_trail` histograms (conflict-analysis cost per conflict);
/// older records still parse, without them.
pub const STATS_FORMAT: u32 = 6;

/// One recorded run, as reconstructed from a stats-json file.
#[derive(Clone, Debug, PartialEq)]
pub struct RunRecord {
    /// Case name (file stem of the netlist unless overridden).
    pub case: String,
    /// Goal signal.
    pub goal: String,
    /// Engine / ladder the run used.
    pub engine: String,
    /// Verdict string (`SAT` / `UNSAT` / `UNKNOWN`).
    pub verdict: String,
    /// Stage that produced the answer (empty when unanswered).
    pub answered_by: String,
    /// Certification kind (`proof checked`, `cross-checked`, `uncertified`).
    pub certification: String,
    /// Decision count (summed over stages).
    pub decisions: u64,
    /// Backtrack count.
    pub backtracks: u64,
    /// Conflict count.
    pub conflicts: u64,
    /// Learned lemma count.
    pub learned: u64,
    /// Restart count, forced (level-0 relearn) plus scheduled (EMA/Luby).
    pub restarts: u64,
    /// Lemmas retired by clause-DB reductions.
    pub lemmas_deleted: u64,
    /// Static-learning (predicate learning) time, milliseconds.
    pub learn_ms: f64,
    /// Search time, milliseconds.
    pub search_ms: f64,
    /// Number of supervisor stages the run went through.
    pub stages: u64,
    /// Wall time attributed to constraint propagation by the phase
    /// profiler, milliseconds (0 when the record has no `profile`
    /// section).
    pub prop_ms: f64,
    /// Wall time attributed to decisions (structural or activity).
    pub decide_ms: f64,
    /// Wall time attributed to conflict analysis / learning.
    pub analyze_ms: f64,
}

fn req_str(v: &Value, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string field `{key}`"))
}

fn counter(v: &Value, name: &str) -> u64 {
    v.get("counters")
        .and_then(|c| c.get(name))
        .and_then(Value::as_u64)
        .unwrap_or(0)
}

/// Sums `total_us` over profile rows whose path ends in `;<phase>`
/// (or is exactly `<phase>`), in milliseconds. Records without a
/// `profile` section read 0.
fn profile_phase_ms(v: &Value, phase: &str) -> f64 {
    let suffix = format!(";{phase}");
    let Some(rows) = v
        .get("profile")
        .and_then(|p| p.get("phases"))
        .and_then(Value::as_arr)
    else {
        return 0.0;
    };
    let us: f64 = rows
        .iter()
        .filter(|r| {
            r.get("path")
                .and_then(Value::as_str)
                .is_some_and(|p| p == phase || p.ends_with(&suffix))
        })
        .filter_map(|r| r.get("total_us").and_then(Value::as_f64))
        .sum();
    us / 1000.0
}

/// Parses one stats-json document into a [`RunRecord`].
///
/// # Errors
///
/// Returns `Err` when the text is not JSON or not a
/// `stats_format` = [`STATS_FORMAT`] record.
pub fn parse_record(text: &str) -> Result<RunRecord, String> {
    let v = json::parse(text)?;
    match v.get("stats_format").and_then(Value::as_u64) {
        Some(1..=6) => {}
        Some(f) => return Err(format!("unsupported stats_format {f}")),
        None => return Err("not a stats-json record (no `stats_format`)".to_string()),
    }
    Ok(RunRecord {
        case: req_str(&v, "case")?,
        goal: req_str(&v, "goal")?,
        engine: req_str(&v, "engine")?,
        verdict: req_str(&v, "verdict")?,
        answered_by: v
            .get("answered_by")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string(),
        certification: req_str(&v, "certification")?,
        decisions: counter(&v, "decisions"),
        backtracks: counter(&v, "backtracks"),
        conflicts: counter(&v, "conflicts"),
        learned: counter(&v, "learned"),
        restarts: counter(&v, "restarts") + counter(&v, "restarts_scheduled"),
        lemmas_deleted: counter(&v, "lemmas_deleted"),
        learn_ms: v
            .get("learn_time_ms")
            .and_then(Value::as_f64)
            .unwrap_or(0.0),
        search_ms: v
            .get("search_time_ms")
            .and_then(Value::as_f64)
            .unwrap_or(0.0),
        stages: v
            .get("stages")
            .and_then(Value::as_arr)
            .map_or(0, |s| s.len() as u64),
        prop_ms: profile_phase_ms(&v, "propagate"),
        decide_ms: profile_phase_ms(&v, "decide"),
        analyze_ms: profile_phase_ms(&v, "analyze"),
    })
}

/// Loads every stats-json record under `dir`: a non-recursive scan of
/// `*.json` and `*.jsonl` files, read line by line, keeping each line
/// that carries `"stats_format"`. That is the one record of a
/// `--stats-json` file and the `result` records of a served stream,
/// whose `error`, `metrics` and `summary` lines are skipped, as is other
/// JSON (e.g. `BENCH_hotpath.json`). Records come back sorted by case
/// name, then goal — the report is deterministic regardless of
/// directory iteration order.
///
/// # Errors
///
/// Returns `Err` when the directory cannot be read or a recognized
/// stats-json line is malformed.
pub fn load_dir(dir: &Path) -> Result<Vec<RunRecord>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut records = Vec::new();
    let mut paths: Vec<_> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json" || x == "jsonl"))
        .collect();
    paths.sort();
    for path in paths {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        for (i, line) in text.lines().enumerate() {
            if !line.contains("\"stats_format\"") {
                continue;
            }
            let rec =
                parse_record(line).map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))?;
            records.push(rec);
        }
    }
    records.sort_by(|a, b| a.case.cmp(&b.case).then_with(|| a.goal.cmp(&b.goal)));
    Ok(records)
}

fn fmt_ms(ms: f64) -> String {
    if ms >= 1000.0 {
        format!("{:.2} s", ms / 1000.0)
    } else {
        format!("{ms:.2} ms")
    }
}

/// Renders records as a markdown table in the paper's Table 1/2 column
/// layout.
#[must_use]
pub fn render_markdown(records: &[RunRecord]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "| Ckt | Goal | Engine | Verdict | Decisions | Backtracks | Conflicts | Learned | Restarts | Deleted | Learn time | Search time | Prop time | Decide time | Analyze time | Certification |"
    );
    let _ = writeln!(
        out,
        "|-----|------|--------|---------|-----------|------------|-----------|---------|----------|---------|------------|-------------|-----------|-------------|--------------|---------------|"
    );
    for r in records {
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} |",
            r.case,
            r.goal,
            r.engine,
            r.verdict,
            r.decisions,
            r.backtracks,
            r.conflicts,
            r.learned,
            r.restarts,
            r.lemmas_deleted,
            fmt_ms(r.learn_ms),
            fmt_ms(r.search_ms),
            fmt_ms(r.prop_ms),
            fmt_ms(r.decide_ms),
            fmt_ms(r.analyze_ms),
            r.certification,
        );
    }
    out
}

/// Renders records as CSV with the same columns as the markdown table
/// (times in raw milliseconds).
#[must_use]
pub fn render_csv(records: &[RunRecord]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from(
        "case,goal,engine,verdict,decisions,backtracks,conflicts,learned,restarts,lemmas_deleted,learn_ms,search_ms,prop_ms,decide_ms,analyze_ms,certification,answered_by,stages\n",
    );
    for r in records {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{},{},{},{:.3},{:.3},{:.3},{:.3},{:.3},{},{},{}",
            r.case,
            r.goal,
            r.engine,
            r.verdict,
            r.decisions,
            r.backtracks,
            r.conflicts,
            r.learned,
            r.restarts,
            r.lemmas_deleted,
            r.learn_ms,
            r.search_ms,
            r.prop_ms,
            r.decide_ms,
            r.analyze_ms,
            r.certification,
            r.answered_by,
            r.stages,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{"stats_format":2,"case":"b01_p1_20","file":"tests/golden/b01_p1_20.rtl","goal":"bad_p1","engine":"hdpll-sp","verdict":"UNSAT","answered_by":"hdpll-sp","certification":"proof checked","stages":[{"name":"hdpll-sp","time_ms":0.4,"outcome":"UNSAT (proof checked)","abort":null}],"search_time_ms":0.31,"learn_time_ms":0.05,"counters":{"decisions":12,"backtracks":3,"conflicts":4,"learned":4,"restarts":1,"restarts_scheduled":2,"lemmas_deleted":5,"propagations":900},"peaks":{"max_cqueue":7},"histograms":{},"trace":{"events":0,"dropped":0}}"#;

    #[test]
    fn record_roundtrip() {
        let r = parse_record(SAMPLE).unwrap();
        assert_eq!(r.case, "b01_p1_20");
        assert_eq!(r.verdict, "UNSAT");
        assert_eq!(r.decisions, 12);
        assert_eq!(r.backtracks, 3);
        assert_eq!(r.restarts, 3); // forced + scheduled
        assert_eq!(r.lemmas_deleted, 5);
        assert_eq!(r.certification, "proof checked");
        assert_eq!(r.stages, 1);
        assert!((r.search_ms - 0.31).abs() < 1e-9);
    }

    #[test]
    fn version_one_records_still_parse() {
        let v1 = SAMPLE
            .replace("\"stats_format\":2", "\"stats_format\":1")
            .replace(",\"restarts\":1,\"restarts_scheduled\":2,\"lemmas_deleted\":5", "");
        let r = parse_record(&v1).unwrap();
        assert_eq!(r.case, "b01_p1_20");
        assert_eq!(r.restarts, 0);
        assert_eq!(r.lemmas_deleted, 0);
    }

    #[test]
    fn records_of_every_supported_version_parse() {
        for v in 1..=STATS_FORMAT {
            let record = SAMPLE.replace("\"stats_format\":2", &format!("\"stats_format\":{v}"));
            assert!(parse_record(&record).is_ok(), "stats_format {v}");
        }
    }

    #[test]
    fn rejects_wrong_format() {
        assert!(parse_record("{\"stats_format\":99}").is_err());
        assert!(parse_record("{\"other\":1}").is_err());
        assert!(parse_record("not json").is_err());
    }

    #[test]
    fn profile_section_feeds_phase_columns() {
        let with_profile = SAMPLE.replace(
            ",\"trace\":",
            r#","profile":{"phases":[{"path":"hdpll-sp","calls":1,"total_us":900,"self_us":100},{"path":"hdpll-sp;search","calls":1,"total_us":800,"self_us":50},{"path":"hdpll-sp;search;propagate","calls":40,"total_us":500,"self_us":500},{"path":"hdpll-sp;search;decide","calls":12,"total_us":150,"self_us":150},{"path":"hdpll-sp;search;analyze","calls":4,"total_us":100,"self_us":100}]},"trace":"#,
        );
        let r = parse_record(&with_profile).unwrap();
        assert!((r.prop_ms - 0.5).abs() < 1e-9, "prop_ms {}", r.prop_ms);
        assert!((r.decide_ms - 0.15).abs() < 1e-9);
        assert!((r.analyze_ms - 0.1).abs() < 1e-9);
        let md = render_markdown(std::slice::from_ref(&r));
        assert!(md.contains("| Prop time |"));
        assert!(md.contains("| 0.50 ms | 0.15 ms | 0.10 ms |"), "{md}");
        let csv = render_csv(&[r]);
        assert!(csv.contains(",0.500,0.150,0.100,"), "{csv}");
        // A record without a profile section reads zero phase times.
        let bare = parse_record(SAMPLE).unwrap();
        assert_eq!(bare.prop_ms, 0.0);
        assert_eq!(bare.decide_ms, 0.0);
        assert_eq!(bare.analyze_ms, 0.0);
    }

    #[test]
    fn renders_tables() {
        let r = parse_record(SAMPLE).unwrap();
        let md = render_markdown(std::slice::from_ref(&r));
        assert!(md.contains("| b01_p1_20 |"));
        assert!(md.contains("proof checked"));
        let csv = render_csv(&[r]);
        assert!(csv.starts_with("case,goal,engine"));
        assert!(csv.lines().nth(1).unwrap().starts_with("b01_p1_20,bad_p1"));
    }

    #[test]
    fn load_dir_scans_and_sorts() {
        let dir = std::env::temp_dir().join("rtl_obs_report_test");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("zz.json"), SAMPLE).unwrap();
        std::fs::write(
            dir.join("aa.json"),
            SAMPLE.replace("b01_p1_20", "b02_p1_10"),
        )
        .unwrap();
        std::fs::write(dir.join("notes.json"), "{\"unrelated\":true}").unwrap();
        std::fs::write(dir.join("readme.txt"), "ignored").unwrap();
        let recs = load_dir(&dir).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].case, "b01_p1_20");
        assert_eq!(recs[1].case, "b02_p1_10");
        std::fs::remove_dir_all(&dir).ok();
    }
}
