//! End-to-end tests of the `rtlsat` command-line binary: textual netlist
//! in, verdict and witness out, DIMACS export.

use std::process::Command;

const NETLIST: &str = "\
netlist cli_demo
input x w4
input y w4
node s w4 = add x y
node hit bool = cmp.eq s x   # s = x ⇔ y = 0 (mod 16 arithmetic)
node gt bool = cmp.gt y x
node both bool = and hit gt
output s sum
";

fn write_netlist(dir: &std::path::Path) -> std::path::PathBuf {
    let path = dir.join("demo.rtl");
    std::fs::write(&path, NETLIST).expect("write netlist");
    path
}

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rtlsat"))
}

#[test]
fn sat_prints_witness() {
    let dir = std::env::temp_dir().join("rtlsat_cli_sat");
    std::fs::create_dir_all(&dir).unwrap();
    let netlist = write_netlist(&dir);
    for engine in ["hdpll", "hdpll-s", "hdpll-sp", "eager", "lazy"] {
        let out = bin()
            .arg(&netlist)
            .arg("hit")
            .args(["--engine", engine])
            .output()
            .expect("binary runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "{engine}: exit {:?}, stdout: {stdout}",
            out.status
        );
        assert!(stdout.starts_with("SAT"), "{engine}: {stdout}");
        assert!(stdout.contains("y = 0"), "{engine} witness: {stdout}");
        assert!(
            !stdout.contains("WARNING"),
            "{engine}: model failed validation: {stdout}"
        );
    }
}

#[test]
fn unsat_exit_code() {
    let dir = std::env::temp_dir().join("rtlsat_cli_unsat");
    std::fs::create_dir_all(&dir).unwrap();
    let netlist = write_netlist(&dir);
    // both = (y = 0) ∧ (y > x): impossible.
    let out = bin()
        .arg(&netlist)
        .arg("both")
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("UNSAT"), "{stdout}");
    assert_eq!(out.status.code(), Some(20));
}

#[test]
fn dimacs_dump_is_wellformed() {
    let dir = std::env::temp_dir().join("rtlsat_cli_dimacs");
    std::fs::create_dir_all(&dir).unwrap();
    let netlist = write_netlist(&dir);
    let cnf_path = dir.join("goal.cnf");
    let out = bin()
        .arg(&netlist)
        .arg("hit")
        .args(["--dump-cnf", cnf_path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let cnf_text = std::fs::read_to_string(&cnf_path).expect("cnf written");
    let cnf = rtlsat::sat::dimacs::parse(&cnf_text).expect("valid DIMACS");
    // …and the exported CNF is satisfiable, like the original goal.
    let mut solver = cnf.to_solver();
    assert!(solver.solve().is_sat());
}

#[test]
fn bad_usage_is_reported() {
    let out = bin().output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let out = bin()
        .arg("/nonexistent/file.rtl")
        .arg("x")
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    // unknown goal signal
    let dir = std::env::temp_dir().join("rtlsat_cli_bad");
    std::fs::create_dir_all(&dir).unwrap();
    let netlist = write_netlist(&dir);
    let out = bin()
        .arg(&netlist)
        .arg("nope")
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    // non-boolean goal
    let out = bin().arg(&netlist).arg("s").output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn unknown_flags_and_extra_positionals_are_usage_errors() {
    let dir = std::env::temp_dir().join("rtlsat_cli_unknown_flag");
    std::fs::create_dir_all(&dir).unwrap();
    let netlist = write_netlist(&dir);
    // A misspelt `--timeout` would otherwise solve with no budget, and a
    // third positional would be dropped without a word.
    for extra in [&["--timout", "5"][..], &["--stat"], &["extra"]] {
        let out = bin()
            .arg(&netlist)
            .arg("hit")
            .args(extra)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{extra:?}: {stderr}");
        assert!(
            stderr.contains(&format!("unexpected argument `{}`", extra[0])),
            "{stderr}"
        );
        assert!(stderr.contains("usage: rtlsat"), "{stderr}");
        assert!(out.stdout.is_empty(), "{extra:?}: no solve may run");
    }
}

#[test]
fn malformed_text_is_error_not_panic() {
    let dir = std::env::temp_dir().join("rtlsat_cli_malformed");
    std::fs::create_dir_all(&dir).unwrap();
    for (name, contents) in [
        ("neg_shift.rtl", "netlist t\ninput a w4\nnode y w4 = shl a -1\n"),
        ("trailing.rtl", "netlist t\ninput a w4 junk\n"),
        ("arity.rtl", "netlist t\ninput a w4\nnode y w4 = not a a\n"),
        ("binary.rtl", "\u{0}\u{1}\u{2}garbage\u{7f}"),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, contents).unwrap();
        let out = bin().arg(&path).arg("y").output().expect("binary runs");
        assert_eq!(
            out.status.code(),
            Some(2),
            "{name}: expected exit 2, got {:?}; stderr: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn check_and_fallback_flags() {
    let dir = std::env::temp_dir().join("rtlsat_cli_supervise");
    std::fs::create_dir_all(&dir).unwrap();
    let netlist = write_netlist(&dir);
    // The default HDPLL engine certifies its own UNSAT with a checked
    // proof — the strongest certificate, reported in the stats.
    let out = bin()
        .arg(&netlist)
        .arg("both")
        .args(["--check", "--stats"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(20));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("proof checked"), "{stderr}");
    // A proof-less engine (eager bit-blast) falls back to the --check
    // cross-check for its certificate.
    let out = bin()
        .arg(&netlist)
        .arg("both")
        .args(["--engine", "eager", "--check", "--stats"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(20));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cross-checked"), "{stderr}");
    // --fallback + --stats reports the answering stage.
    let out = bin()
        .arg(&netlist)
        .arg("hit")
        .args(["--fallback", "--stats"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("answered_by"), "{stderr}");
    assert!(stderr.contains("hdpll-sp"), "{stderr}");
}

#[test]
fn proof_dump_and_check_proof_roundtrip() {
    let dir = std::env::temp_dir().join("rtlsat_cli_proof");
    std::fs::create_dir_all(&dir).unwrap();
    let netlist = write_netlist(&dir);
    let proof_path = dir.join("both.proof");
    // UNSAT with --proof dumps the checked certificate.
    let out = bin()
        .arg(&netlist)
        .arg("both")
        .args(["--proof", proof_path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(20));
    let proof_text = std::fs::read_to_string(&proof_path).expect("proof written");
    assert!(proof_text.starts_with("rtlproof 2"), "{proof_text}");

    // check-proof re-validates it from scratch.
    let out = bin()
        .arg("check-proof")
        .arg(&netlist)
        .arg(&proof_path)
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.starts_with("VERIFIED"), "{stdout}");

    // A single corrupted line must be rejected (exit 1, not 0).
    let corrupted: String = proof_text
        .lines()
        .map(|l| {
            if let Some(n) = l.strip_prefix("vars ") {
                let n: u32 = n.trim().parse().expect("vars count");
                format!("vars {}\n", n + 1)
            } else {
                format!("{l}\n")
            }
        })
        .collect();
    let bad_path = dir.join("both_corrupt.proof");
    std::fs::write(&bad_path, corrupted).unwrap();
    let out = bin()
        .arg("check-proof")
        .arg(&netlist)
        .arg(&bad_path)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("REJECTED"), "{stdout}");

    // A SAT goal with --proof warns and writes nothing.
    let missing = dir.join("none.proof");
    let out = bin()
        .arg(&netlist)
        .arg("hit")
        .args(["--proof", missing.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    assert!(!missing.exists(), "no proof file for a SAT verdict");
}

#[test]
fn stats_flag_prints_counters() {
    let dir = std::env::temp_dir().join("rtlsat_cli_stats");
    std::fs::create_dir_all(&dir).unwrap();
    let netlist = write_netlist(&dir);
    let out = bin()
        .arg(&netlist)
        .arg("hit")
        .arg("--stats")
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    // The stats block is format-pinned: version header first, then the
    // counter lines in this exact order. Growing the block means bumping
    // `stats-format` — this test is the tripwire.
    assert!(
        stderr.contains("c stats-format    6"),
        "missing stats-format header: {stderr}"
    );
    let keys = [
        "c stats-format",
        "c search_time",
        "c learn_time",
        "c decisions",
        "c propagations",
        "c narrowings",
        "c clause_props",
        "c conflicts",
        "c learned",
        "c backtracks",
        "c restarts_forced",
        "c restarts_sched",
        "c db_reductions",
        "c lemmas_deleted",
        "c fm_calls",
        "c fm_subcalls",
        "c j_conflicts",
        "c probe_hits",
        "c probe_misses",
        "c max_cqueue",
        "c max_clqueue",
        "c ant_pool_peak",
    ];
    let mut from = 0;
    for key in keys {
        match stderr[from..].find(key) {
            Some(at) => from += at + key.len(),
            None => panic!("missing or out-of-order `{key}` in stats: {stderr}"),
        }
    }
    // The verdict itself stays on stdout, uncluttered.
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("SAT"), "{stdout}");
    // Baseline engines report the absence of statistics rather than lying.
    let out = bin()
        .arg(&netlist)
        .arg("hit")
        .args(["--engine", "eager", "--stats"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no statistics"), "{stderr}");
}

#[test]
fn trace_stats_json_and_report_roundtrip() {
    let dir = std::env::temp_dir().join("rtlsat_cli_telemetry");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let netlist = write_netlist(&dir);
    let trace_path = dir.join("both.trace.jsonl");
    let json_path = dir.join("demo.json");
    let out = bin()
        .arg(&netlist)
        .arg("both")
        .args(["--trace", trace_path.to_str().unwrap()])
        .args(["--stats-json", json_path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(20));

    // The trace is schema-valid JSONL, accepted by `check-trace`.
    let trace_text = std::fs::read_to_string(&trace_path).expect("trace written");
    assert!(
        trace_text.starts_with("{\"trace\":\"rtl-obs\",\"format\":4,"),
        "{trace_text}"
    );
    rtlsat::obs::validate_jsonl(&trace_text).expect("trace validates");
    let out = bin()
        .arg("check-trace")
        .arg(&trace_path)
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.starts_with("VALID"), "{stdout}");

    // A corrupted trace is rejected with exit 1.
    let bad_path = dir.join("corrupt.trace.jsonl");
    std::fs::write(&bad_path, trace_text.replace("\"e\":\"stage_start\"", "\"e\":\"bogus\"")).unwrap();
    let out = bin()
        .arg("check-trace")
        .arg(&bad_path)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("INVALID"));

    // The stats-json record parses and carries the verdict + counters.
    let record_text = std::fs::read_to_string(&json_path).expect("record written");
    let record = rtlsat::obs::parse_record(&record_text).expect("record parses");
    assert_eq!(record.case, "demo");
    assert_eq!(record.goal, "both");
    assert_eq!(record.verdict, "UNSAT");
    assert_eq!(record.certification, "proof checked");

    // `report` aggregates the directory into a table naming the case.
    let out = bin()
        .arg("report")
        .arg(&dir)
        .output()
        .expect("binary runs");
    let table = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{table}");
    assert!(table.contains("| Ckt |"), "{table}");
    assert!(table.contains("| demo | both |"), "{table}");
    let out = bin()
        .arg("report")
        .arg(&dir)
        .arg("--csv")
        .output()
        .expect("binary runs");
    let csv = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{csv}");
    assert!(csv.starts_with("case,goal,engine,verdict,"), "{csv}");
    assert!(csv.contains("demo,both,"), "{csv}");
}

#[test]
fn preprocess_subcommand_emits_parseable_netlist() {
    let dir = std::env::temp_dir().join("rtlsat_cli_preproc");
    std::fs::create_dir_all(&dir).unwrap();
    let netlist = write_netlist(&dir);
    // Full mode: every signal keeps an image, stdout re-parses.
    let out = bin()
        .arg("preprocess")
        .arg(&netlist)
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    rtlsat::ir::text::parse(&stdout)
        .unwrap_or_else(|e| panic!("preprocess output does not re-parse: {e}\n{stdout}"));
    for key in [
        "c preproc signals_before",
        "c preproc signals_after",
        "c preproc folds",
        "c preproc shares",
        "c preproc ite_collapsed",
        "c preproc coi_dropped",
    ] {
        assert!(stderr.contains(key), "missing `{key}` in stats: {stderr}");
    }

    // Goal mode: logic outside the cone of `hit` (gt, both) is pruned.
    let out = bin()
        .arg("preprocess")
        .arg(&netlist)
        .arg("hit")
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success());
    let pruned = rtlsat::ir::text::parse(&stdout).expect("goal-mode output re-parses");
    assert!(pruned.find("hit").is_some(), "{stdout}");
    assert!(pruned.find("gt").is_none(), "gt survived COI pruning: {stdout}");
    assert!(pruned.find("both").is_none(), "both survived COI pruning: {stdout}");
}

#[test]
fn no_preproc_flag_preserves_verdicts() {
    let dir = std::env::temp_dir().join("rtlsat_cli_no_preproc");
    std::fs::create_dir_all(&dir).unwrap();
    let netlist = write_netlist(&dir);
    for (goal, code) in [("hit", 0), ("both", 20)] {
        let default = bin().arg(&netlist).arg(goal).output().expect("binary runs");
        let off = bin()
            .arg(&netlist)
            .arg(goal)
            .arg("--no-preproc")
            .output()
            .expect("binary runs");
        assert_eq!(default.status.code(), Some(code), "{goal} with preproc");
        assert_eq!(off.status.code(), Some(code), "{goal} with --no-preproc");
        // Same verdict line either way.
        let line = |o: &std::process::Output| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .unwrap_or_default()
                .split_whitespace()
                .next()
                .unwrap_or_default()
                .to_string()
        };
        assert_eq!(line(&default), line(&off), "{goal}: verdicts diverge");
    }
}

#[test]
fn check_proof_accepts_and_rejects_preproc_bundles() {
    let dir = std::env::temp_dir().join("rtlsat_cli_preproc_bundle");
    std::fs::create_dir_all(&dir).unwrap();
    let netlist = write_netlist(&dir);
    let proof_path = dir.join("both.proof");
    let out = bin()
        .arg(&netlist)
        .arg("both")
        .args(["--proof", proof_path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(20));
    // The preproc bundle rides along next to the proof.
    let bundle_path = dir.join("both.proof.preproc");
    let bundle_text = std::fs::read_to_string(&bundle_path).expect("bundle written");
    assert!(bundle_text.starts_with("rtlpreproc 1"), "{bundle_text}");

    // check-proof validates the bundle, then the proof against the
    // re-derived simplified netlist.
    let out = bin()
        .arg("check-proof")
        .arg(&netlist)
        .arg(&proof_path)
        .args(["--preproc", bundle_path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.starts_with("VERIFIED"), "{stdout}");
    assert!(stdout.contains("preproc bundle validated"), "{stdout}");

    // A tampered bundle (published netlist text altered) is rejected.
    let tampered_path = dir.join("tampered.preproc");
    std::fs::write(&tampered_path, bundle_text.replace("cmp.eq", "cmp.ne")).unwrap();
    let out = bin()
        .arg("check-proof")
        .arg(&netlist)
        .arg(&proof_path)
        .args(["--preproc", tampered_path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.starts_with("REJECTED"), "{stdout}");
}

#[test]
fn closed_stdout_is_not_a_panic() {
    // `rtlsat … | head` closes the pipe before the output is written:
    // the command stops writing and ends with its own exit status, not
    // a panic (exit 101).
    let dir = std::env::temp_dir().join("rtlsat_cli_closed_stdout");
    std::fs::create_dir_all(&dir).unwrap();
    let netlist = write_netlist(&dir);
    let trace = dir.join("both.trace.jsonl");
    let out = bin()
        .arg(&netlist)
        .arg("both")
        .args(["--trace", trace.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(20));
    let netlist = netlist.to_str().unwrap();
    for (args, code) in [
        (["check-trace", trace.to_str().unwrap()], 0),
        ([netlist, "hit"], 0),
        ([netlist, "both"], 20),
    ] {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = bin()
            .args(args)
            .stdout(writer)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(code), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

/// The golden multi-goal netlist and its goal list (`mid` SAT, `empty`
/// and `over` UNSAT).
fn multi_range() -> (std::path::PathBuf, &'static str) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    (dir.join("multi_range.rtl"), "mid,empty,over")
}

#[test]
fn goal_list_rejects_dump_cnf() {
    // A goal list has no one CNF to write: a usage error, as for an
    // engine that cannot run sessions, and nothing is written.
    let dir = std::env::temp_dir().join("rtlsat_cli_goal_list_cnf");
    std::fs::create_dir_all(&dir).unwrap();
    let cnf = dir.join("x.cnf");
    let _ = std::fs::remove_file(&cnf);
    let (netlist, goals) = multi_range();
    let out = bin()
        .arg(&netlist)
        .arg(goals)
        .args(["--check", "--dump-cnf", cnf.to_str().unwrap()])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("--dump-cnf"), "{stderr}");
    assert!(!cnf.exists(), "no CNF may be written for a goal list");
}

#[test]
fn goal_list_warns_that_check_is_single_goal() {
    // Every accepted session UNSAT is already proof-checked, so a
    // cross-check could never run: one warning line, same answers.
    let (netlist, goals) = multi_range();
    let plain = bin().arg(&netlist).arg(goals).output().expect("binary runs");
    assert_eq!(plain.status.code(), Some(0));
    for flags in [
        &["--check"][..],
        &["--check-timeout", "5"][..],
        &["--check", "--check-timeout", "5"][..],
    ] {
        let out = bin()
            .arg(&netlist)
            .arg(goals)
            .args(flags)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{flags:?}: {stderr}");
        assert_eq!(out.stdout, plain.stdout, "{flags:?}");
        let warnings: Vec<&str> = stderr.lines().filter(|l| l.starts_with("c warning:")).collect();
        assert_eq!(warnings.len(), 1, "{flags:?}: {stderr}");
        assert!(warnings[0].contains("--check"), "{flags:?}: {stderr}");
    }
}

/// The one-shot solve of b13 `p8` unrolled to 13–15 frames prunes to the
/// property's cone and refutes it with one Fourier–Motzkin final check,
/// whose lemma is only derivable through the disequality split FM made:
/// the proof records that split, so the certifier admits the lemma and a
/// fresh `check-proof` replays it.
#[test]
fn b13_p8_fm_lemma_proof_certifies() {
    use rtl_itc99::cases::{BmcCase, Circuit, Expected};
    let dir = std::env::temp_dir().join("rtlsat_cli_b13_p8");
    std::fs::create_dir_all(&dir).unwrap();
    for frames in [13, 14, 15] {
        let case = BmcCase {
            circuit: Circuit::B13,
            property: "p8",
            frames,
            expected: Expected::Unsat,
        };
        let netlist = dir.join(format!("b13_p8_{frames}.rtl"));
        std::fs::write(&netlist, rtl_ir::text::to_text(&case.build().netlist)).unwrap();
        let proof = dir.join(format!("b13_p8_{frames}.proof"));
        let out = bin()
            .arg(&netlist)
            .arg("bad_p8")
            .args(["--proof", proof.to_str().unwrap(), "--stats"])
            .output()
            .expect("binary runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(20),
            "{frames} frames: {stdout}{stderr}"
        );
        assert!(stdout.starts_with("UNSAT"), "{frames} frames: {stdout}");
        assert!(
            stderr.contains("proof checked"),
            "{frames} frames: {stdout}{stderr}"
        );
        // The proof is stated over the pruned netlist its bundle holds.
        let bundle = dir.join(format!("b13_p8_{frames}.proof.preproc"));
        let out = bin()
            .arg("check-proof")
            .arg(&netlist)
            .arg(&proof)
            .args(["--preproc", bundle.to_str().unwrap()])
            .output()
            .expect("binary runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.starts_with("VERIFIED"), "{frames} frames: {stdout}");
    }
}
