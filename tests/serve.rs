//! End-to-end tests of `rtlsat serve`: the fault-tolerant batch/stream
//! solve service (DESIGN.md §2.11).
//!
//! The invariants pinned here:
//!
//! - **Exactly-once**: a mixed 200-request stream (valid, malformed,
//!   poisoned-`FaultPlan`, deadline-zero, oversized) gets exactly one
//!   schema-valid response record per request — in both the
//!   deterministic single-thread mode and the worker-pool mode.
//! - **Verdict fidelity**: healthy requests answer exactly the golden
//!   corpus verdicts, even interleaved with poisoned ones.
//! - **Determinism**: repeated solves through one long-lived process
//!   are byte-identical (wall-clock stripped) to each other and agree
//!   field-for-field with a fresh one-shot `--stats-json` process.
//! - **Backpressure**: a full bounded queue answers `overloaded`,
//!   never blocks or drops.
//! - **Graceful shutdown**: EOF/`{"op":"shutdown"}` drains in-flight
//!   solves; an expired drain deadline cancels them but still answers
//!   them; the server always exits 0.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use rtlsat::obs::json::{self, Value};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rtlsat"))
}

fn golden_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// `(netlist-path, goal, expected-verdict)` per golden corpus line.
fn corpus() -> Vec<(String, String, String)> {
    let manifest = std::fs::read_to_string(golden_dir().join("MANIFEST")).expect("MANIFEST");
    manifest
        .lines()
        .map(str::trim)
        // Multi-query entries (`goal=verdict` tokens) are session-only;
        // the serve corpus keeps to the single-goal lines.
        .filter(|l| !l.is_empty() && !l.starts_with('#') && !l.contains('='))
        .map(|l| {
            let mut parts = l.split_whitespace();
            let file = golden_dir().join(parts.next().expect("file"));
            let goal = parts.next().expect("goal").to_string();
            let verdict = match parts.next().expect("verdict") {
                "sat" => "SAT",
                "unsat" => "UNSAT",
                other => panic!("bad verdict {other}"),
            };
            (
                file.to_str().expect("utf8 path").to_string(),
                goal,
                verdict.to_string(),
            )
        })
        .collect()
}

/// Pipes `input` through `rtlsat serve <args>`; returns (records, exit).
fn run_serve(input: &str, args: &[&str]) -> (Vec<String>, i32) {
    let mut child = bin()
        .arg("serve")
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");
    // Writer side on this thread, reader on another: the server streams
    // records as it goes, so a one-sided pipe could deadlock on a big
    // stream.
    let mut stdin = child.stdin.take().expect("stdin");
    let stdout = child.stdout.take().expect("stdout");
    let reader = std::thread::spawn(move || {
        let mut lines = Vec::new();
        for line in BufReader::new(stdout).lines() {
            lines.push(line.expect("utf8 record"));
        }
        lines
    });
    stdin.write_all(input.as_bytes()).expect("write requests");
    drop(stdin);
    let lines = reader.join().expect("reader thread");
    let status = child.wait().expect("wait");
    (lines, status.code().unwrap_or(-1))
}

/// Parses a record line, asserting the serve envelope schema.
fn parse_record(line: &str) -> Value {
    let v = json::parse(line).unwrap_or_else(|e| panic!("invalid JSON record: {e}\n{line}"));
    assert_eq!(
        v.get("serve_format").and_then(Value::as_u64),
        Some(2),
        "missing serve_format: {line}"
    );
    let ty = v
        .get("type")
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("missing type: {line}"));
    match ty {
        "result" => {
            for key in ["id", "seq", "attempts", "stats_format", "verdict", "counters"] {
                assert!(v.get(key).is_some(), "result record missing `{key}`: {line}");
            }
        }
        "error" => {
            for key in ["id", "seq", "error"] {
                assert!(v.get(key).is_some(), "{ty} record missing `{key}`: {line}");
            }
        }
        // Since serve-format v2 a rejection reports the queue state
        // that caused it.
        "overloaded" => {
            for key in ["id", "seq", "error", "queue_depth", "in_flight"] {
                assert!(v.get(key).is_some(), "{ty} record missing `{key}`: {line}");
            }
        }
        "summary" => {
            for key in ["requests", "results", "errors", "overloaded", "retries", "drained"] {
                assert!(v.get(key).is_some(), "summary missing `{key}`: {line}");
            }
        }
        // Opt-in (`--metrics-every`) live-metrics records: window
        // deltas plus cumulative totals plus latency quantiles.
        "metrics" => {
            for key in ["uptime_ms", "window", "total", "latency_us", "queue_depth", "in_flight"] {
                assert!(v.get(key).is_some(), "metrics record missing `{key}`: {line}");
            }
        }
        other => panic!("unknown record type `{other}`: {line}"),
    }
    v
}

fn str_of(v: &Value, key: &str) -> String {
    v.get(key).and_then(Value::as_str).unwrap_or("").to_string()
}

/// The mixed 200-request stream: valid golden solves interleaved with
/// malformed JSON, poisoned fault plans, zero deadlines, and oversized
/// lines. Returns `(input, expected)` where `expected` maps request id
/// to the golden verdict for requests whose verdict is pinned.
fn mixed_stream(n: usize) -> (String, BTreeMap<String, String>) {
    let corpus = corpus();
    let mut input = String::new();
    let mut expected = BTreeMap::new();
    let mut lines = 0usize;
    let mut i = 0usize;
    while lines < n {
        let (file, goal, verdict) = &corpus[i % corpus.len()];
        match i % 8 {
            // Malformed JSON: answered with an id-less error record.
            2 => input.push_str("{\"id\":\"broken\", this is not json\n"),
            // Poisoned fault plan, contained by the full safety net
            // (fallback ladder + cross-check): the verdict must still
            // be the golden one.
            4 => {
                let id = format!("p{i}");
                input.push_str(&format!(
                    "{{\"id\":\"{id}\",\"file\":\"{file}\",\"goal\":\"{goal}\",\
                     \"timeout_ms\":60000,\"check\":true,\"fallback\":true,\
                     \"fault\":{{\"corrupt_learned_clause\":0}}}}\n"
                ));
                expected.insert(id, verdict.clone());
            }
            // Deadline zero: must answer (any verdict), promptly.
            5 => {
                let id = format!("z{i}");
                input.push_str(&format!(
                    "{{\"id\":\"{id}\",\"file\":\"{file}\",\"goal\":\"{goal}\",\"timeout_ms\":0}}\n"
                ));
            }
            // Oversized line: rejected, stream must stay aligned.
            6 => {
                let filler = "x".repeat(4096);
                input.push_str(&format!("{{\"id\":\"big{i}\",\"file\":\"{filler}\"\n"));
            }
            // Healthy request: golden verdict, exactly once.
            _ => {
                let id = format!("v{i}");
                input.push_str(&format!(
                    "{{\"id\":\"{id}\",\"file\":\"{file}\",\"goal\":\"{goal}\",\"timeout_ms\":60000}}\n"
                ));
                expected.insert(id, verdict.clone());
            }
        }
        lines += 1;
        i += 1;
    }
    (input, expected)
}

/// Core assertion battery for the mixed stream, shared by both modes.
fn assert_mixed_stream(args: &[&str]) {
    const N: usize = 200;
    let (input, expected) = mixed_stream(N);
    let (lines, exit) = run_serve(&input, args);
    assert_eq!(exit, 0, "serve must exit 0 on graceful shutdown");

    let records: Vec<Value> = lines.iter().map(|l| parse_record(l)).collect();
    let (summaries, responses): (Vec<&Value>, Vec<&Value>) = records
        .iter()
        .partition(|r| str_of(r, "type") == "summary");
    assert_eq!(summaries.len(), 1, "exactly one summary record");
    assert_eq!(
        responses.len(),
        N,
        "exactly one response per request line (got {} for {N})",
        responses.len()
    );

    // Exactly-once, strongest form: the seq numbers of the responses
    // are exactly 1..=N, each once.
    let mut seqs: Vec<u64> = responses
        .iter()
        .map(|r| r.get("seq").and_then(Value::as_u64).expect("seq"))
        .collect();
    seqs.sort_unstable();
    assert_eq!(seqs, (1..=N as u64).collect::<Vec<_>>(), "seq gaps/dups");

    // Verdict fidelity for every pinned request.
    let mut seen = 0usize;
    for r in &responses {
        let id = str_of(r, "id");
        if let Some(want) = expected.get(&id) {
            seen += 1;
            assert_eq!(str_of(r, "type"), "result", "{id} must carry a result");
            assert_eq!(&str_of(r, "verdict"), want, "verdict skew for {id}");
        } else if id.starts_with('z') {
            // Deadline-zero: a result record, any verdict.
            assert_eq!(str_of(r, "type"), "result", "{id} must still answer");
        } else {
            // Malformed/oversized lines answer with id-less errors.
            assert_eq!(str_of(r, "type"), "error", "unexpected record for {id:?}");
        }
    }
    assert_eq!(seen, expected.len(), "every pinned request must answer");

    let summary = summaries[0];
    assert_eq!(
        summary.get("drained").and_then(Value::as_bool),
        Some(true),
        "the stream must drain cleanly"
    );
}

#[test]
fn mixed_stream_exactly_once_single_thread() {
    assert_mixed_stream(&["--max-line-bytes", "2048"]);
}

#[test]
fn mixed_stream_exactly_once_worker_pool() {
    // Queue deeper than the stream: pure pool concurrency, no
    // backpressure rejections to complicate the verdict assertions.
    assert_mixed_stream(&[
        "--max-line-bytes",
        "2048",
        "--workers",
        "4",
        "--queue",
        "256",
        "--drain-timeout",
        "300",
    ]);
}

#[test]
fn backpressure_answers_overloaded() {
    // Two workers pinned by stalling solves (the stall fault spins
    // until the deadline), queue depth 1: the flood behind them must be
    // answered `overloaded` immediately, and every request must still
    // be answered exactly once.
    let (file, goal, _) = &corpus()[0];
    let stall = |id: &str| {
        format!(
            "{{\"id\":\"{id}\",\"file\":\"{file}\",\"goal\":\"{goal}\",\
             \"timeout_ms\":3000,\"fault\":{{\"stall_propagation\":1}}}}\n"
        )
    };
    let quick = |id: &str| {
        format!("{{\"id\":\"{id}\",\"file\":\"{file}\",\"goal\":\"{goal}\",\"timeout_ms\":60000}}\n")
    };
    let mut input = String::new();
    input.push_str(&stall("s1"));
    input.push_str(&stall("s2"));
    for i in 0..20 {
        input.push_str(&quick(&format!("q{i}")));
    }
    let (lines, exit) = run_serve(
        &input,
        &["--workers", "2", "--queue", "1", "--drain-timeout", "60"],
    );
    assert_eq!(exit, 0);
    let records: Vec<Value> = lines.iter().map(|l| parse_record(l)).collect();
    let responses: Vec<&Value> = records
        .iter()
        .filter(|r| str_of(r, "type") != "summary")
        .collect();
    assert_eq!(responses.len(), 22, "exactly one record per request");
    let overloaded = responses
        .iter()
        .filter(|r| str_of(r, "type") == "overloaded")
        .count();
    assert!(
        overloaded > 0,
        "a full queue must reject with `overloaded`: {lines:?}"
    );
    // Exactly-once even under rejection: all 22 ids answered.
    let mut ids: Vec<String> = responses.iter().map(|r| str_of(r, "id")).collect();
    ids.sort();
    ids.dedup();
    assert_eq!(ids.len(), 22, "every id answered exactly once");
}

#[test]
fn retry_with_degradation_rescues_a_memory_abort() {
    // A tiny memory cap kills the hybrid engine's solve (AbortReason::
    // Memory); the retry rung (`hdpll` → `eager`) ignores the engine
    // cap and still produces the correct verdict, flagged attempts=2.
    // The workload must actually search (the cap is only polled along
    // the decision loop): the UNSAT subset-sum mux workload conflicts
    // its way through thousands of decisions.
    let mut w = rtl_bench::hotpath::mux_search(10);
    w.netlist.set_name(w.goal, "goal").expect("name the goal");
    let dir = std::env::temp_dir().join("rtlsat_serve_retry");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("mux_search_10.rtl");
    std::fs::write(&file, rtlsat::ir::text::to_text(&w.netlist)).unwrap();
    let goal = "goal";
    let (file, verdict) = (file.to_str().unwrap().to_string(), "UNSAT");
    let input = format!(
        "{{\"id\":\"m1\",\"file\":\"{file}\",\"goal\":\"{goal}\",\
         \"engine\":\"hdpll\",\"timeout_ms\":60000,\"max_memory\":2048}}\n"
    );
    let (lines, exit) = run_serve(&input, &[]);
    assert_eq!(exit, 0);
    let result = parse_record(&lines[0]);
    assert_eq!(str_of(&result, "type"), "result");
    assert_eq!(str_of(&result, "verdict"), verdict);
    assert_eq!(
        result.get("attempts").and_then(Value::as_u64),
        Some(2),
        "the solve must have been retried on the next rung: {}",
        lines[0]
    );
    let summary = parse_record(lines.last().expect("summary"));
    assert_eq!(summary.get("retries").and_then(Value::as_u64), Some(1));
}

#[test]
fn retry_with_degradation_rescues_a_memory_abort_on_the_session_cache() {
    // The same memory-capped request as above, answered through a cached
    // session ladder: its rung report carries the query's memory abort,
    // so the request is retried on the next rung as on the default path.
    let mut w = rtl_bench::hotpath::mux_search(10);
    w.netlist.set_name(w.goal, "goal").expect("name the goal");
    let dir = std::env::temp_dir().join("rtlsat_serve_retry_cached");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("mux_search_10.rtl");
    std::fs::write(&file, rtlsat::ir::text::to_text(&w.netlist)).unwrap();
    let input = format!(
        "{{\"id\":\"m1\",\"file\":\"{}\",\"goal\":\"goal\",\
         \"engine\":\"hdpll\",\"timeout_ms\":60000,\"max_memory\":2048}}\n",
        file.to_str().unwrap()
    );
    let (lines, exit) = run_serve(&input, &["--session-cache", "4"]);
    assert_eq!(exit, 0);
    let result = parse_record(&lines[0]);
    assert_eq!(str_of(&result, "type"), "result");
    assert_eq!(str_of(&result, "verdict"), "UNSAT", "{}", lines[0]);
    assert_eq!(
        result.get("attempts").and_then(Value::as_u64),
        Some(2),
        "the solve must have been retried on the next rung: {}",
        lines[0]
    );
    let summary = parse_record(lines.last().expect("summary"));
    assert_eq!(summary.get("retries").and_then(Value::as_u64), Some(1));
}

#[test]
fn hard_drain_still_answers_in_flight_requests() {
    // A stalling 30 s solve is in flight when the stream shuts down;
    // the 1 s drain deadline expires, the shared cancel token trips,
    // and the request is still answered (verdict UNKNOWN) before the
    // summary reports drained:false.
    let (file, goal, _) = &corpus()[0];
    let input = format!(
        "{{\"id\":\"s1\",\"file\":\"{file}\",\"goal\":\"{goal}\",\
         \"timeout_ms\":30000,\"fault\":{{\"stall_propagation\":1}}}}\n\
         {{\"op\":\"shutdown\"}}\n"
    );
    let start = Instant::now();
    let (lines, exit) = run_serve(&input, &["--workers", "2", "--drain-timeout", "1"]);
    let elapsed = start.elapsed();
    assert_eq!(exit, 0, "hard drain still exits 0");
    assert!(
        elapsed < Duration::from_secs(20),
        "drain must not wait out the 30 s stall (took {elapsed:?})"
    );
    let records: Vec<Value> = lines.iter().map(|l| parse_record(l)).collect();
    let result = records
        .iter()
        .find(|r| str_of(r, "id") == "s1")
        .expect("stalled request must still be answered");
    assert_eq!(str_of(result, "type"), "result");
    assert_eq!(str_of(result, "verdict"), "UNKNOWN");
    let summary = records.last().expect("summary");
    assert_eq!(summary.get("drained").and_then(Value::as_bool), Some(false));
}

/// Strips the per-request envelope identity and every wall-clock field
/// (`…_ms":<float>`) so records can be compared byte-for-byte.
fn canonical(record: &str) -> String {
    let mut out = String::with_capacity(record.len());
    let mut rest = record;
    while let Some(pos) = rest.find("_ms\":") {
        let after = pos + "_ms\":".len();
        out.push_str(&rest[..after]);
        out.push('0');
        let tail = &rest[after..];
        let end = tail
            .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
            .unwrap_or(tail.len());
        rest = &tail[end..];
    }
    out.push_str(rest);
    // Envelope identity: id and seq differ per request by design.
    let mut canon = String::with_capacity(out.len());
    let mut rest = out.as_str();
    for key in ["\"id\":", "\"seq\":"] {
        if let Some(pos) = rest.find(key) {
            let after = pos + key.len();
            canon.push_str(&rest[..after]);
            canon.push('_');
            let tail = &rest[after..];
            let end = tail.find(',').unwrap_or(tail.len());
            rest = &tail[end..];
        }
    }
    canon.push_str(rest);
    canon
}

#[test]
fn repeated_solves_in_one_process_are_byte_identical() {
    // Satellite of the service PR: a long-lived process must not leak
    // state between requests. The same request served many times in one
    // session yields byte-identical records once wall-clock spans and
    // the envelope identity (id/seq) are canonicalized away.
    let corpus = corpus();
    let mut input = String::new();
    for round in 0..3 {
        for (i, (file, goal, _)) in corpus.iter().take(5).enumerate() {
            input.push_str(&format!(
                "{{\"id\":\"r{round}_{i}\",\"file\":\"{file}\",\"goal\":\"{goal}\",\"timeout_ms\":60000}}\n"
            ));
        }
    }
    let (lines, exit) = run_serve(&input, &[]);
    assert_eq!(exit, 0);
    let records: Vec<&String> = lines
        .iter()
        .filter(|l| l.contains("\"type\":\"result\""))
        .collect();
    assert_eq!(records.len(), 15);
    for i in 0..5 {
        let first = canonical(records[i]);
        for round in 1..3 {
            let later = canonical(records[round * 5 + i]);
            assert_eq!(
                first, later,
                "request {i} drifted between rounds 0 and {round}"
            );
        }
    }
}

#[test]
fn served_records_agree_with_fresh_process_records() {
    // The served stats-json body must match what a fresh one-shot
    // process produces for the same case: same verdict, certification,
    // counters, peaks, histograms, and stage outcomes. Only wall-clock
    // spans and the two request-lifecycle trace events may differ.
    let corpus = corpus();
    let cases: Vec<_> = corpus.iter().take(4).collect();
    let mut input = String::new();
    for (i, (file, goal, _)) in cases.iter().enumerate() {
        input.push_str(&format!(
            "{{\"id\":\"c{i}\",\"file\":\"{file}\",\"goal\":\"{goal}\",\"timeout_ms\":60000}}\n"
        ));
    }
    let (lines, exit) = run_serve(&input, &[]);
    assert_eq!(exit, 0);

    let dir = std::env::temp_dir().join("rtlsat_serve_vs_oneshot");
    std::fs::create_dir_all(&dir).unwrap();
    for (i, (file, goal, verdict)) in cases.iter().enumerate() {
        let json_path = dir.join(format!("c{i}.json"));
        let out = bin()
            .arg(file)
            .arg(goal)
            .args(["--timeout", "60"])
            .args(["--stats-json", json_path.to_str().unwrap()])
            .output()
            .expect("one-shot run");
        assert!(
            out.status.code().is_some(),
            "one-shot must terminate normally"
        );
        let oneshot = json::parse(
            std::fs::read_to_string(&json_path)
                .expect("stats-json written")
                .trim_end(),
        )
        .expect("one-shot record parses");
        let served_line = lines
            .iter()
            .find(|l| l.contains(&format!("\"id\":\"c{i}\"")))
            .expect("served record");
        let served = parse_record(served_line);

        assert_eq!(&str_of(&served, "verdict"), verdict, "case {i}");
        for key in [
            "verdict",
            "answered_by",
            "certification",
            "counters",
            "peaks",
            "histograms",
            "engine",
            "goal",
        ] {
            assert_eq!(
                served.get(key),
                oneshot.get(key),
                "field `{key}` skew on case {i}"
            );
        }
        // The served trace additionally carries request_start +
        // request_end — exactly two extra events, nothing dropped.
        let events = |v: &Value| {
            v.get("trace")
                .and_then(|t| t.get("events"))
                .and_then(Value::as_u64)
                .expect("trace events")
        };
        assert_eq!(events(&served), events(&oneshot) + 2, "case {i}");
    }
}

#[test]
fn unix_socket_serves_connections() {
    use std::os::unix::net::UnixStream;

    let dir = std::env::temp_dir().join(format!("rtlsat_serve_sock_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let sock = dir.join("serve.sock");
    let _ = std::fs::remove_file(&sock);
    let mut child: Child = bin()
        .arg("serve")
        .args(["--socket", sock.to_str().unwrap()])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn socket server");

    // Wait for the socket to appear.
    let deadline = Instant::now() + Duration::from_secs(10);
    while !sock.exists() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    let (file, goal, verdict) = &corpus()[0];

    // First connection: one solve, then EOF (connection-level drain).
    let mut conn = UnixStream::connect(&sock).expect("connect");
    conn.write_all(
        format!("{{\"id\":\"s1\",\"file\":\"{file}\",\"goal\":\"{goal}\",\"timeout_ms\":60000}}\n")
            .as_bytes(),
    )
    .unwrap();
    conn.shutdown(std::net::Shutdown::Write).unwrap();
    let mut reply = String::new();
    conn.read_to_string(&mut reply).unwrap();
    let lines: Vec<&str> = reply.lines().collect();
    assert_eq!(lines.len(), 2, "result + summary: {reply}");
    let result = parse_record(lines[0]);
    assert_eq!(&str_of(&result, "verdict"), verdict);

    // Second connection: shutdown op stops the whole server.
    let mut conn = UnixStream::connect(&sock).expect("reconnect");
    conn.write_all(b"{\"op\":\"shutdown\"}\n").unwrap();
    conn.shutdown(std::net::Shutdown::Write).unwrap();
    let mut reply = String::new();
    conn.read_to_string(&mut reply).unwrap();
    assert!(reply.contains("\"type\":\"summary\""), "{reply}");

    let status = child.wait().expect("server exits after shutdown op");
    assert!(status.success(), "socket server must exit 0");
}

fn u64_of(v: &Value, path: &[&str]) -> u64 {
    let mut cur = v;
    for key in path {
        cur = cur
            .get(key)
            .unwrap_or_else(|| panic!("missing `{}`", path.join(".")));
    }
    cur.as_u64()
        .unwrap_or_else(|| panic!("`{}` not a u64", path.join(".")))
}

#[test]
fn metrics_records_window_sums_reconcile_with_summary() {
    // A 200-request stream under `--metrics-every 20`: the interleaved
    // `metrics` records must partition the session — summing the window
    // columns across every metrics record (the final flush included)
    // reproduces the summary record's totals exactly, and the last
    // record's cumulative totals equal the summary directly.
    let corpus = corpus();
    let mut input = String::new();
    for i in 0..200 {
        let (file, goal, _) = &corpus[i % corpus.len()];
        input.push_str(&format!(
            "{{\"id\":\"m{i}\",\"file\":\"{file}\",\"goal\":\"{goal}\",\"timeout_ms\":60000}}\n"
        ));
    }
    let (lines, exit) = run_serve(&input, &["--metrics-every", "20"]);
    assert_eq!(exit, 0);

    let metrics: Vec<Value> = lines
        .iter()
        .filter(|l| l.contains("\"type\":\"metrics\""))
        .map(|l| parse_record(l))
        .collect();
    assert!(
        metrics.len() >= 10,
        "200 handled / every-20 must yield at least 10 metrics records, got {}",
        metrics.len()
    );
    let summary = lines
        .iter()
        .find(|l| l.contains("\"type\":\"summary\""))
        .map(|l| parse_record(l))
        .expect("summary record");

    for field in ["requests", "results", "errors", "overloaded"] {
        let window_sum: u64 = metrics.iter().map(|m| u64_of(m, &["window", field])).sum();
        assert_eq!(
            window_sum,
            u64_of(&summary, &[field]),
            "window `{field}` columns must sum to the summary"
        );
        assert_eq!(
            u64_of(metrics.last().unwrap(), &["total", field]),
            u64_of(&summary, &[field]),
            "final cumulative `{field}` must equal the summary"
        );
    }
    // Verdict counters partition the results, and the latency count of
    // the last rolling window set covers at most the handled records.
    let last = metrics.last().unwrap();
    let verdicts = u64_of(last, &["total", "sat"])
        + u64_of(last, &["total", "unsat"])
        + u64_of(last, &["total", "unknown"]);
    assert_eq!(verdicts, u64_of(&summary, &["results"]));
    for m in &metrics {
        for key in ["p50", "p90", "p99", "count", "sum"] {
            let _ = u64_of(m, &["latency_us", key]);
        }
    }
}

/// The last record of type `ty` in a served stream.
fn last_record(lines: &[String], ty: &str) -> Value {
    let tag = format!("\"type\":\"{ty}\"");
    lines
        .iter()
        .rev()
        .find(|l| l.contains(&tag))
        .map(|l| parse_record(l))
        .unwrap_or_else(|| panic!("no {ty} record: {lines:#?}"))
}

#[test]
fn bad_lines_count_in_metrics_as_in_the_summary() {
    // Every kind of error record: malformed JSON and an oversized line
    // (answered by the reader), an unknown goal and a non-Boolean goal
    // (answered by the solve path), among valid requests. The last
    // `metrics` record's totals equal the summary, inline and in the
    // worker pool alike.
    let golden = golden_dir();
    let request = |id: &str, file: &str, goal: &str| {
        let file = golden.join(file);
        let file = file.to_str().unwrap();
        format!(
            "{{\"id\":\"{id}\",\"file\":\"{file}\",\"goal\":\"{goal}\",\"timeout_ms\":60000}}\n"
        )
    };
    let input = [
        "not json\n".to_string(),
        request("v1", "adder_sat.rtl", "goal"),
        format!("{{\"id\":\"big\",\"file\":\"{}\"}}\n", "x".repeat(4096)),
        request("nope", "adder_sat.rtl", "nope"),
        request("word", "adder_sat.rtl", "s"),
        request("v2", "adder_unsat.rtl", "goal"),
    ]
    .concat();
    for workers in ["1", "2"] {
        let args = ["--metrics-every", "1", "--max-line-bytes", "1024"];
        let (lines, exit) = run_serve(&input, &[&args[..], &["--workers", workers]].concat());
        assert_eq!(exit, 0);
        let summary = last_record(&lines, "summary");
        assert_eq!(u64_of(&summary, &["errors"]), 4, "{lines:#?}");
        assert_eq!(u64_of(&summary, &["results"]), 2, "{lines:#?}");
        let last = last_record(&lines, "metrics");
        for field in ["requests", "results", "errors", "overloaded", "retries"] {
            assert_eq!(
                u64_of(&last, &["total", field]),
                u64_of(&summary, &[field]),
                "--workers {workers}: metrics total `{field}`: {lines:#?}"
            );
        }
        let verdicts: u64 = ["sat", "unsat", "unknown"]
            .iter()
            .map(|v| u64_of(&last, &["total", v]))
            .sum();
        assert_eq!(verdicts, u64_of(&summary, &["results"]));
    }
}

#[test]
fn session_cache_counts_do_not_need_telemetry() {
    // The cache counters come from the serve loop, not from the
    // record's telemetry counters, so `--no-telemetry` still counts a
    // miss and then a hit.
    let file = golden_dir().join("adder_sat.rtl");
    let line = format!(
        "{{\"id\":\"a\",\"file\":\"{}\",\"goal\":\"goal\",\"timeout_ms\":60000}}\n",
        file.to_str().unwrap()
    );
    for telemetry in [&[][..], &["--no-telemetry"][..]] {
        let mut args = vec!["--session-cache", "4", "--metrics-every", "2"];
        args.extend_from_slice(telemetry);
        let (lines, exit) = run_serve(&line.repeat(2), &args);
        assert_eq!(exit, 0);
        let last = last_record(&lines, "metrics");
        let cache = ["cache_hits", "cache_misses"].map(|key| u64_of(&last, &["total", key]));
        assert_eq!(cache, [1, 1], "{args:?}");
    }
}

#[test]
fn status_probe_answers_prometheus_exposition() {
    use std::os::unix::net::UnixStream;

    let dir = std::env::temp_dir().join(format!("rtlsat_serve_status_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let sock = dir.join("status.sock");
    let _ = std::fs::remove_file(&sock);
    let mut child: Child = bin()
        .arg("serve")
        .args(["--socket", sock.to_str().unwrap()])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn socket server");
    let deadline = Instant::now() + Duration::from_secs(10);
    while !sock.exists() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }

    // First connection: three solves, then EOF.
    let corpus = corpus();
    let mut conn = UnixStream::connect(&sock).expect("connect");
    for (i, (file, goal, _)) in corpus.iter().take(3).enumerate() {
        conn.write_all(
            format!(
                "{{\"id\":\"q{i}\",\"file\":\"{file}\",\"goal\":\"{goal}\",\"timeout_ms\":60000}}\n"
            )
            .as_bytes(),
        )
        .unwrap();
    }
    conn.shutdown(std::net::Shutdown::Write).unwrap();
    let mut reply = String::new();
    conn.read_to_string(&mut reply).unwrap();
    let summary = reply
        .lines()
        .find(|l| l.contains("\"type\":\"summary\""))
        .map(parse_record)
        .expect("first connection summary");
    let handled = u64_of(&summary, &["results"]) + u64_of(&summary, &["errors"]);
    assert_eq!(u64_of(&summary, &["results"]), 3);

    // Second connection: a status probe. The exposition reports the
    // whole server lifetime (metrics are shared across connections), so
    // its histogram count reconciles with the first connection's
    // summary.
    let mut conn = UnixStream::connect(&sock).expect("reconnect");
    conn.write_all(b"{\"op\":\"status\"}\n").unwrap();
    conn.shutdown(std::net::Shutdown::Write).unwrap();
    let mut reply = String::new();
    conn.read_to_string(&mut reply).unwrap();
    // The probe's connection still ends with its own summary line;
    // everything before it is the exposition.
    let exposition: String = reply
        .lines()
        .filter(|l| !l.starts_with('{'))
        .map(|l| format!("{l}\n"))
        .collect();
    rtlsat::obs::validate_exposition(&exposition)
        .unwrap_or_else(|e| panic!("invalid exposition: {e}\n{exposition}"));
    assert!(
        exposition.contains(&format!("rtlsat_request_latency_us_count {handled}\n")),
        "histogram count must reconcile with the summary ({handled} handled):\n{exposition}"
    );
    let verdict_total: u64 = exposition
        .lines()
        .filter(|l| l.starts_with("rtlsat_results_total{"))
        .map(|l| {
            l.rsplit_once(' ')
                .and_then(|(_, n)| n.parse::<u64>().ok())
                .unwrap_or_else(|| panic!("bad sample line: {l}"))
        })
        .sum();
    assert_eq!(verdict_total, 3, "per-verdict counters sum to results");
    assert!(exposition.contains("rtlsat_queue_depth 0\n"), "{exposition}");
    assert!(exposition.contains("rtlsat_in_flight 0\n"), "{exposition}");

    // Third connection: shut the server down.
    let mut conn = UnixStream::connect(&sock).expect("reconnect for shutdown");
    conn.write_all(b"{\"op\":\"shutdown\"}\n").unwrap();
    conn.shutdown(std::net::Shutdown::Write).unwrap();
    let mut reply = String::new();
    conn.read_to_string(&mut reply).unwrap();
    let status = child.wait().expect("server exits");
    assert!(status.success());
}

#[test]
fn slow_captures_land_in_a_bounded_ring() {
    // `--slow-ms 0` classifies every request as slow; with a ring of 2
    // and 3 requests, at most 2 capture files survive and each carries
    // the full result record (profile section included — the slow path
    // arms the profiler) plus the request trace.
    let dir = std::env::temp_dir().join(format!("rtlsat_serve_slow_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let corpus = corpus();
    let mut input = String::new();
    for i in 0..3 {
        let (file, goal, _) = &corpus[i % corpus.len()];
        input.push_str(&format!(
            "{{\"id\":\"s{i}\",\"file\":\"{file}\",\"goal\":\"{goal}\",\"timeout_ms\":60000}}\n"
        ));
    }
    let (lines, exit) = run_serve(
        &input,
        &[
            "--slow-ms",
            "0",
            "--slow-dir",
            dir.to_str().unwrap(),
            "--slow-ring",
            "2",
        ],
    );
    assert_eq!(exit, 0);
    assert_eq!(
        lines
            .iter()
            .filter(|l| l.contains("\"type\":\"result\""))
            .count(),
        3
    );

    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("slow dir created")
        .map(|e| e.unwrap().path())
        .collect();
    files.sort();
    assert_eq!(files.len(), 2, "ring caps the capture count: {files:?}");
    for path in &files {
        let body = std::fs::read_to_string(path).unwrap();
        let v = json::parse(body.trim_end())
            .unwrap_or_else(|e| panic!("capture must be valid JSON ({e}): {path:?}"));
        assert_eq!(v.get("slow_capture").and_then(Value::as_u64), Some(1));
        let record = v.get("record").expect("captured record");
        assert!(record.get("profile").is_some(), "slow capture carries the profile section");
        assert!(v.get("trace").and_then(Value::as_str).is_some(), "capture carries the trace");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The CI soak: pipe the golden corpus through one server process for
/// ~30 s of wall-clock and require every request answered exactly once
/// and a clean exit. Run explicitly (`cargo test --test serve --
/// --ignored soak`) — too slow for the default suite.
#[test]
#[ignore = "30s soak; run explicitly in CI"]
fn soak_golden_corpus_for_30s() {
    let corpus = corpus();
    let mut child = bin()
        .arg("serve")
        .args(["--workers", "2", "--queue", "64", "--drain-timeout", "300"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");
    let mut stdin = child.stdin.take().expect("stdin");
    let stdout = child.stdout.take().expect("stdout");
    let reader = std::thread::spawn(move || {
        let mut result = 0u64;
        let mut other = 0u64;
        let mut summary = 0u64;
        for line in BufReader::new(stdout).lines() {
            let line = line.expect("record");
            if line.contains("\"type\":\"result\"") {
                result += 1;
            } else if line.contains("\"type\":\"summary\"") {
                summary += 1;
            } else {
                other += 1;
            }
        }
        (result, other, summary)
    });

    let deadline = Instant::now() + Duration::from_secs(30);
    let mut sent = 0u64;
    let mut i = 0usize;
    while Instant::now() < deadline {
        let (file, goal, _) = &corpus[i % corpus.len()];
        let line = format!(
            "{{\"id\":\"soak{i}\",\"file\":\"{file}\",\"goal\":\"{goal}\",\"timeout_ms\":60000}}\n"
        );
        stdin.write_all(line.as_bytes()).expect("write");
        sent += 1;
        i += 1;
        // Pace the firehose so the backlog at EOF stays bounded.
        std::thread::sleep(Duration::from_millis(5));
    }
    drop(stdin);
    let (results, others, summaries) = reader.join().expect("reader");
    let status = child.wait().expect("wait");
    assert!(status.success(), "soak must exit 0");
    assert_eq!(others, 0, "no errors/overloads on a healthy soak");
    assert_eq!(summaries, 1);
    assert_eq!(results, sent, "every soak request answered exactly once");
    assert!(sent > 1000, "soak must have thrown real load ({sent})");
}
