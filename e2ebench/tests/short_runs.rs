//! Short runs of every workload: each named metric is emitted with its
//! unit, no answer fails, the traced run's search counts repeat exactly
//! from one run to the next, and its spans are written out.

use std::collections::BTreeMap;
use std::process::Command;

use rtl_obs::json::{self, Value};

const WORKLOADS: [&str; 4] = [
    "oneshot_b04_sp",
    "oneshot_b04_s",
    "bmc_b13_session",
    "serve_golden_inline",
];

/// Counts that depend only on the inputs, never on timing.
const COUNTS: [&str; 5] = [
    "hdpll.conflicts",
    "hdpll.decisions",
    "hdpll.propagations",
    "proof.steps",
    "ir.signals_after",
];

/// `(name, unit)` of every metric `BENCHMARK.json` declares in `section`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let spec = json::parse(&text).expect("BENCHMARK.json parses");
    spec.get(section)
        .and_then(Value::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

struct Run {
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, (f64, String)>,
}

fn run(workload: &str, seed: u64, trace: bool) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_e2ebench"))
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "0.5",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let v = json::parse(last).expect("the result line is JSON");
    assert_eq!(
        v.get("correct").and_then(Value::as_bool),
        Some(true),
        "{last}"
    );
    let Some(Value::Obj(fields)) = v.get("metrics") else {
        panic!("no metrics object in {last}");
    };
    let metrics = fields
        .iter()
        .map(|(name, m)| {
            let value = m
                .get("value")
                .and_then(Value::as_f64)
                .expect("numeric value");
            let unit = m.get("unit").and_then(Value::as_str).expect("unit");
            (name.clone(), (value, unit.to_string()))
        })
        .collect();
    Run {
        attempted: v
            .get("attempted")
            .and_then(Value::as_u64)
            .expect("attempted"),
        failed: v.get("failed").and_then(Value::as_u64).expect("failed"),
        metrics,
    }
}

/// Reads back the spans a traced run wrote and checks their shape: one
/// root span per answer, and every other span under an earlier span of
/// the same answer.
fn assert_spans(workload: &str, seed: u64, answers: u64) {
    let path = format!(
        "{}/target/spans-{workload}-{seed}.jsonl",
        env!("CARGO_MANIFEST_DIR")
    );
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let mut spans: Vec<(Option<u64>, u64)> = Vec::new();
    let mut roots = 0;
    for (i, line) in text.lines().enumerate() {
        let v = json::parse(line).unwrap_or_else(|e| panic!("{path}:{}: {e:?}", i + 1));
        let int = |k: &str| {
            v.get(k)
                .and_then(Value::as_u64)
                .unwrap_or_else(|| panic!("{path}:{}: no `{k}`", i + 1))
        };
        assert_eq!(int("id"), i as u64, "{path}: ids are line numbers");
        let name = v.get("name").and_then(Value::as_str).expect("name");
        let time = |k: &str| v.get(k).and_then(Value::as_f64).expect("span times");
        let (start, end, answer) = (time("start_ns"), time("end_ns"), int("answer"));
        let parent = match v.get("parent") {
            Some(Value::Null) => None,
            Some(p) => Some(p.as_u64().expect("parent index")),
            None => panic!("{path}:{}: no `parent`", i + 1),
        };
        match parent {
            None => {
                roots += 1;
                assert_eq!(name, "bench.answer", "{path}:{}", i + 1);
                assert_eq!(answer, roots, "{path}: answers are numbered in order");
                assert!(
                    end >= start,
                    "{path}:{}: root span ends before it starts",
                    i + 1
                );
            }
            Some(p) => {
                let (_, parent_answer) = spans
                    .get(p as usize)
                    .unwrap_or_else(|| panic!("{path}:{}: parent {p} comes later", i + 1));
                assert_eq!(*parent_answer, answer, "{path}:{}", i + 1);
            }
        }
        spans.push((parent, answer));
    }
    assert_eq!(
        roots, answers,
        "{workload}: one root span per traced answer"
    );
}

fn assert_declared(workload: &str, r: &Run, section: &str) {
    let expected = declared(section);
    let names: Vec<&String> = r.metrics.keys().collect();
    assert_eq!(names.len(), expected.len(), "{workload}: {names:?}");
    for (name, unit) in expected {
        let (value, got) = r
            .metrics
            .get(&name)
            .unwrap_or_else(|| panic!("{workload}: no `{name}`"));
        assert_eq!(got, &unit, "{workload}: unit of `{name}`");
        assert!(value.is_finite(), "{workload}: `{name}` = {value}");
    }
}

#[test]
fn end_to_end_runs_emit_every_metric_and_fail_nothing() {
    for workload in WORKLOADS {
        let r = run(workload, 1, false);
        assert!(r.attempted > 0, "{workload}: no answers");
        assert_eq!(r.failed, 0, "{workload}: failed_frac must be 0");
        assert_declared(workload, &r, "end_to_end");
        for (name, (value, _)) in &r.metrics {
            assert!(*value > 0.0, "{workload}: `{name}` is {value}");
        }
    }
}

#[test]
fn traced_runs_emit_every_layer_and_repeat_their_counts() {
    for workload in WORKLOADS {
        let first = run(workload, 1, true);
        let second = run(workload, 2, true);
        for (seed, r) in [(1, &first), (2, &second)] {
            assert_eq!(r.failed, 0, "{workload}: failed_frac must be 0");
            assert_declared(workload, r, "per_layer");
            assert_spans(workload, seed, r.attempted);
        }
        for name in COUNTS {
            assert_eq!(
                first.metrics[name].0, second.metrics[name].0,
                "{workload}: `{name}` differs between traced runs"
            );
        }
    }
}
