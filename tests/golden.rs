//! The golden regression corpus (`tests/golden/`): small netlists with
//! known verdicts, listed in `tests/golden/MANIFEST`. Every solver
//! variant must reproduce every verdict, every `unsat` entry must come
//! with a complete proof that a fresh independent checker accepts (and
//! that survives a text round-trip), and the supervised entry point
//! must certify those verdicts with [`Certification::Proof`].

use std::path::{Path, PathBuf};
use std::process::Command;

use rtl_bench::hotpath::{b13_sweep, fnv1a, B13_SWEEPS};
use rtlsat::hdpll::{
    Assumption, Certification, ClauseDbConfig, HdpllResult, LearnConfig, Session, SessionCert,
    Solver, SolverConfig, Supervisor,
};
use rtlsat::ir::{text, Netlist, SignalId};
use rtlsat::proof::{format, resolve_goal, Checker};
use rtlsat::serve::{build_supervisor, session_rungs, SolveOptions};

struct Case {
    file: String,
    netlist: Netlist,
    goal_name: String,
    goal: SignalId,
    unsat: bool,
}

/// The `--fallback` ladder of the default engine: `hdpll-sp`, then
/// `hdpll`, then the eager bit-blast.
fn fallback_supervisor(netlist: &Netlist) -> Supervisor {
    let opts = SolveOptions {
        fallback: true,
        ..SolveOptions::default()
    };
    build_supervisor(&opts, netlist).expect("the default engine")
}

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Parses the single-goal `MANIFEST` lines (`<file> <goal-signal>
/// <sat|unsat>`) and loads every listed netlist. Multi-query lines
/// (tokens of the form `goal=verdict`, see [`multi_corpus`]) are
/// skipped here.
fn corpus() -> Vec<Case> {
    let dir = corpus_dir();
    let manifest = std::fs::read_to_string(dir.join("MANIFEST")).expect("read MANIFEST");
    let mut cases = Vec::new();
    for line in manifest.lines() {
        let line = line.split('#').next().unwrap().trim();
        if line.is_empty() || line.contains('=') {
            continue;
        }
        let mut f = line.split_whitespace();
        let (file, goal_name, verdict) = (
            f.next().expect("file"),
            f.next().expect("goal"),
            f.next().expect("verdict"),
        );
        assert!(f.next().is_none(), "MANIFEST: trailing tokens in `{line}`");
        let source =
            std::fs::read_to_string(dir.join(file)).unwrap_or_else(|e| panic!("{file}: {e}"));
        let netlist = text::parse(&source).unwrap_or_else(|e| panic!("{file}: {e}"));
        let goal = resolve_goal(&netlist, goal_name)
            .unwrap_or_else(|| panic!("{file}: no goal signal `{goal_name}`"));
        let unsat = match verdict {
            "sat" => false,
            "unsat" => true,
            other => panic!("MANIFEST: bad verdict `{other}` for {file}"),
        };
        cases.push(Case {
            file: file.to_string(),
            netlist,
            goal_name: goal_name.to_string(),
            goal,
            unsat,
        });
    }
    assert!(cases.len() >= 15, "golden corpus shrank: {}", cases.len());
    cases
}

struct MultiCase {
    file: String,
    netlist: Netlist,
    /// `(goal-name, goal, unsat)` per pinned query, in MANIFEST order.
    queries: Vec<(String, SignalId, bool)>,
}

/// Parses the multi-query `MANIFEST` lines
/// (`<file> <goal>=<sat|unsat>...`): one netlist, several properties
/// with pinned verdicts, answered by one incremental session per file.
fn multi_corpus() -> Vec<MultiCase> {
    let dir = corpus_dir();
    let manifest = std::fs::read_to_string(dir.join("MANIFEST")).expect("read MANIFEST");
    let mut cases = Vec::new();
    for line in manifest.lines() {
        let line = line.split('#').next().unwrap().trim();
        if line.is_empty() || !line.contains('=') {
            continue;
        }
        let mut f = line.split_whitespace();
        let file = f.next().expect("file");
        let source =
            std::fs::read_to_string(dir.join(file)).unwrap_or_else(|e| panic!("{file}: {e}"));
        let netlist = text::parse(&source).unwrap_or_else(|e| panic!("{file}: {e}"));
        let queries: Vec<(String, SignalId, bool)> = f
            .map(|tok| {
                let (goal_name, verdict) = tok
                    .split_once('=')
                    .unwrap_or_else(|| panic!("MANIFEST: bad multi token `{tok}` in `{line}`"));
                let goal = resolve_goal(&netlist, goal_name)
                    .unwrap_or_else(|| panic!("{file}: no goal signal `{goal_name}`"));
                let unsat = match verdict {
                    "sat" => false,
                    "unsat" => true,
                    other => panic!("MANIFEST: bad verdict `{other}` for {file}"),
                };
                (goal_name.to_string(), goal, unsat)
            })
            .collect();
        assert!(queries.len() >= 2, "{file}: a multi entry needs 2+ queries");
        cases.push(MultiCase {
            file: file.to_string(),
            netlist,
            queries,
        });
    }
    assert!(cases.len() >= 3, "multi-query corpus shrank: {}", cases.len());
    cases
}

fn variants() -> Vec<(&'static str, SolverConfig)> {
    vec![
        ("hdpll", SolverConfig::hdpll()),
        ("hdpll+S", SolverConfig::structural()),
        (
            "hdpll+S+P",
            SolverConfig::structural_with_learning(LearnConfig::default()),
        ),
        // Deletion-heavy clause-DB schedule: reductions fire every
        // couple of lemmas, so the Unsat proofs of this corpus carry
        // `d` sections the independent checker must accept.
        (
            "hdpll+S aggressive-db",
            SolverConfig::structural().with_clause_db(ClauseDbConfig {
                reduce: true,
                first_reduce: 1,
                reduce_inc: 1,
            }),
        ),
    ]
}

/// Solves one case under one config with proof logging on and checks
/// the verdict — and for `unsat`, the complete proof: accepted by a
/// fresh checker, identical after a print/parse round-trip.
fn check_case(case: &Case, label: &str, config: SolverConfig) {
    let mut solver = Solver::new(&case.netlist, config.with_proof(true));
    let result = solver.solve(case.goal);
    match (&result, case.unsat) {
        (HdpllResult::Sat(_), false) | (HdpllResult::Unsat, true) => {}
        (got, _) => panic!("{}: {label} answered {got:?}", case.file),
    }
    if !case.unsat {
        return;
    }
    let proof = solver
        .take_proof()
        .unwrap_or_else(|| panic!("{}: {label} logged no proof", case.file));
    assert!(
        proof.is_complete(),
        "{}: {label} proof has {} gaps",
        case.file,
        proof.gaps
    );
    let report = Checker::check_goal(&case.netlist, case.goal, &proof)
        .unwrap_or_else(|e| panic!("{}: {label} proof rejected: {e}", case.file));
    assert_eq!(report.steps as usize, proof.len());
    let reparsed = format::parse(&format::print(&proof))
        .unwrap_or_else(|e| panic!("{}: {label} proof does not re-parse: {e}", case.file));
    assert_eq!(
        format::print(&reparsed),
        format::print(&proof),
        "{}: {label} proof text round-trip diverged",
        case.file
    );
}

#[test]
fn manifest_covers_every_netlist() {
    let dir = corpus_dir();
    let listed: std::collections::BTreeSet<String> = corpus()
        .into_iter()
        .map(|c| c.file)
        .chain(multi_corpus().into_iter().map(|c| c.file))
        .collect();
    for entry in std::fs::read_dir(&dir).expect("list golden dir") {
        let name = entry.unwrap().file_name().into_string().unwrap();
        if name.ends_with(".rtl") {
            assert!(listed.contains(&name), "{name} missing from MANIFEST");
        }
    }
}

#[test]
fn handwritten_cases_all_variants() {
    for case in corpus().iter().filter(|c| !c.file.starts_with('b')) {
        for (label, config) in variants() {
            check_case(case, label, config);
        }
    }
}

#[test]
fn itc99_cases_all_variants() {
    for case in corpus().iter().filter(|c| c.file.starts_with('b')) {
        for (label, config) in variants() {
            check_case(case, label, config);
        }
    }
}

#[test]
fn search_effort_within_regression_band() {
    // `tests/golden/EFFORT` pins the conflict count of every corpus
    // case under the default structural config (deterministic search,
    // so the numbers are exact at pin time). A solve may drift as
    // heuristics evolve, but must stay within 3× + 25 of the pinned
    // count — the tripwire for search-quality blow-ups that raw
    // verdict tests cannot see. Regenerate the pins after a deliberate
    // heuristic change with:
    //
    //     RTLSAT_BLESS_EFFORT=1 cargo test --test golden search_effort
    let path = corpus_dir().join("EFFORT");
    let measured: Vec<(String, u64)> = corpus()
        .iter()
        .map(|case| {
            let mut solver = Solver::new(&case.netlist, SolverConfig::structural());
            let result = solver.solve(case.goal);
            assert_eq!(result.is_unsat(), case.unsat, "{}: verdict", case.file);
            (case.file.clone(), solver.stats().engine.conflicts)
        })
        .collect();
    if std::env::var_os("RTLSAT_BLESS_EFFORT").is_some() {
        let mut text = String::from(
            "# <file> <conflicts> — structural-config conflict counts, pinned.\n\
             # Regenerate: RTLSAT_BLESS_EFFORT=1 cargo test --test golden search_effort\n",
        );
        for (file, conflicts) in &measured {
            text.push_str(&format!("{file} {conflicts}\n"));
        }
        std::fs::write(&path, text).expect("write EFFORT pins");
        return;
    }
    let pins = std::fs::read_to_string(&path).expect("read tests/golden/EFFORT");
    let pinned: std::collections::BTreeMap<&str, u64> = pins
        .lines()
        .map(|l| l.split('#').next().unwrap().trim())
        .filter(|l| !l.is_empty())
        .map(|l| {
            let mut f = l.split_whitespace();
            let file = f.next().expect("file");
            let conflicts = f.next().expect("conflicts").parse().expect("number");
            (file, conflicts)
        })
        .collect();
    for (file, conflicts) in &measured {
        let pin = *pinned
            .get(file.as_str())
            .unwrap_or_else(|| panic!("{file} missing from EFFORT — re-bless the pins"));
        let bound = pin * 3 + 25;
        assert!(
            *conflicts <= bound,
            "{file}: conflict count {conflicts} blew past the regression band \
             (pinned {pin}, bound {bound}) — search quality regressed, or \
             re-bless after a deliberate heuristic change"
        );
    }
}

/// The tier-1 gate on session reuse: every multi-query entry is
/// answered by ONE incremental [`Session`] per solver variant, in
/// MANIFEST order and reversed (clause retention from earlier queries
/// must never flip a later verdict). Every verdict must match the pin
/// and a fresh single-shot solver; every UNSAT must carry an
/// assumption proof that a fresh independent checker accepts.
#[test]
fn multi_query_sessions_match_manifest() {
    for case in multi_corpus() {
        for (label, config) in variants() {
            for reversed in [false, true] {
                let mut session = Session::new(&case.netlist, config.with_proof(true));
                let mut order: Vec<usize> = (0..case.queries.len()).collect();
                if reversed {
                    order.reverse();
                }
                for i in order {
                    let (goal_name, goal, unsat) = &case.queries[i];
                    let certified = session.solve(&[Assumption::yes(*goal)]);
                    let tag = format!("{}: {label} goal `{goal_name}`", case.file);
                    assert_eq!(certified.result.is_unsat(), *unsat, "{tag}: verdict");
                    if *unsat {
                        assert_eq!(
                            certified.cert,
                            SessionCert::ProofChecked,
                            "{tag}: UNSAT without a checked proof"
                        );
                        let proof = certified.proof.as_ref().expect("checked implies proof");
                        // Session proofs are stated over the session's
                        // (preprocessed) solve netlist.
                        Checker::check_assumptions(
                            session.proof_netlist(),
                            &proof.assumptions,
                            proof,
                        )
                        .unwrap_or_else(|e| panic!("{tag}: fresh checker rejected: {e}"));
                    } else {
                        assert_eq!(
                            certified.cert,
                            SessionCert::ModelVerified,
                            "{tag}: SAT without a verified model"
                        );
                    }
                    let mut fresh = Solver::new(&case.netlist, config);
                    assert_eq!(
                        fresh.solve(*goal).is_unsat(),
                        *unsat,
                        "{tag}: session and fresh solver disagree"
                    );
                }
                assert!(session.is_quiescent(), "{}: trail not restored", case.file);
            }
        }
    }
}

/// The whole corpus, word-level preprocessing on AND off: the pinned
/// verdict must be identical either way, UNSAT must stay
/// proof-certified, and neither run may report a certification failure.
/// This is the tier-1 tripwire for a rewrite that changes satisfiability.
#[test]
fn preproc_on_off_verdicts_identical() {
    for case in corpus() {
        let on = fallback_supervisor(&case.netlist).solve(&case.netlist, case.goal);
        let off = fallback_supervisor(&case.netlist)
            .with_preproc(false)
            .solve(&case.netlist, case.goal);
        for (label, result) in [("preproc-on", &on), ("preproc-off", &off)] {
            assert_eq!(
                result.verdict.is_unsat(),
                case.unsat,
                "{}: {label} verdict diverged from the pin",
                case.file
            );
            if case.unsat {
                assert_eq!(
                    result.unsat_certification(),
                    Some(Certification::Proof),
                    "{}: {label} UNSAT lost its proof certification",
                    case.file
                );
            }
            assert_eq!(
                result.cert_failures(),
                0,
                "{}: {label} certification failures",
                case.file
            );
        }
    }
}

#[test]
fn supervised_certifies_every_unsat_with_a_proof() {
    for case in corpus() {
        let result = fallback_supervisor(&case.netlist).solve(&case.netlist, case.goal);
        if case.unsat {
            assert_eq!(
                result.verdict,
                HdpllResult::Unsat,
                "{}: supervised verdict diverged",
                case.file
            );
            assert_eq!(
                result.unsat_certification(),
                Some(Certification::Proof),
                "{}: UNSAT not certified by proof",
                case.file
            );
            assert!(result.proof.is_some(), "{}: checked proof not attached", case.file);
        } else {
            assert!(result.verdict.is_sat(), "{}: supervised verdict diverged", case.file);
        }
        assert_eq!(result.cert_failures(), 0, "{}: certification failures", case.file);
    }
}

/// Digests of what `rtlsat` writes for every single-goal case under each
/// search engine, preprocessing on and off: the `--trace` event stream,
/// and for `unsat` cases the `--proof` text and its `.preproc` bundle.
fn cli_digests(out_dir: &Path) -> Vec<(String, u64)> {
    let mut digests = Vec::new();
    for case in corpus() {
        for engine in ["hdpll", "hdpll-s", "hdpll-sp"] {
            for preproc in [true, false] {
                let tag = format!("{} {engine} {}", case.file, if preproc { "on" } else { "off" });
                let stem = tag.replace(['.', ' '], "_");
                let file = |ext: &str| out_dir.join(format!("{stem}.{ext}"));
                let (proof, trace, bundle) = (file("proof"), file("trace"), file("proof.preproc"));
                let mut cmd = Command::new(env!("CARGO_BIN_EXE_rtlsat"));
                cmd.arg(corpus_dir().join(&case.file))
                    .arg(&case.goal_name)
                    .args(["--engine", engine])
                    .arg("--proof")
                    .arg(&proof)
                    .arg("--trace")
                    .arg(&trace);
                if !preproc {
                    cmd.arg("--no-preproc");
                }
                let status = cmd.output().expect("rtlsat runs").status;
                let expected = if case.unsat { 20 } else { 0 };
                assert_eq!(status.code(), Some(expected), "{tag}: exit status");
                let mut files = vec![("trace", trace)];
                if case.unsat {
                    files.push(("proof", proof));
                }
                // The bundle is written only when the proof is stated
                // over a simplified netlist.
                if bundle.exists() {
                    files.push(("bundle", bundle));
                }
                for (kind, path) in files {
                    let bytes =
                        std::fs::read(&path).unwrap_or_else(|e| panic!("{tag} {kind}: {e}"));
                    digests.push((format!("{tag} {kind}"), fnv1a(&bytes)));
                }
            }
        }
    }
    digests
}

/// One digest per benchmark BMC sweep over ITC'99 b13 (the default
/// session rungs): the printed assumption proofs of all its depths, in
/// order.
fn b13_sweep_digests() -> Vec<(String, u64)> {
    let rungs = session_rungs(&SolveOptions::default()).expect("default rungs");
    B13_SWEEPS
        .into_iter()
        .map(|(prop, depths)| {
            let (_, proofs) = b13_sweep(prop, depths, rungs.clone());
            let text: String = proofs
                .iter()
                .enumerate()
                .map(|(depth, proof)| format!("depth {depth}\n{proof}"))
                .collect();
            (format!("b13 {prop} proofs"), fnv1a(text.as_bytes()))
        })
        .collect()
}

/// `tests/golden/CERTS` pins the bytes of every certificate the corpus
/// and the benchmark's b13 sweeps produce, so a change that claims to
/// keep search and certificates unchanged is checked, not compared by
/// hand. A deliberate change to search or proof text re-blesses with:
///
///     RTLSAT_BLESS_CERTS=1 cargo test --release --test golden certificates
#[test]
fn certificates_match_pinned_digests() {
    let path = corpus_dir().join("CERTS");
    let out_dir = std::env::temp_dir().join(format!("rtlsat_golden_certs_{}", std::process::id()));
    std::fs::create_dir_all(&out_dir).expect("create output dir");
    let mut measured = cli_digests(&out_dir);
    std::fs::remove_dir_all(&out_dir).ok();
    measured.extend(b13_sweep_digests());
    if std::env::var_os("RTLSAT_BLESS_CERTS").is_some() {
        let mut text = String::from(
            "# <case> <engine> <preproc on|off> <trace|proof|bundle> <FNV-1a 64>, and\n\
             # b13 <property> proofs <FNV-1a 64> — certificate bytes, pinned.\n\
             # Regenerate: RTLSAT_BLESS_CERTS=1 cargo test --release --test golden certificates\n",
        );
        for (key, digest) in &measured {
            text.push_str(&format!("{key} {digest:016x}\n"));
        }
        std::fs::write(&path, text).expect("write CERTS pins");
        return;
    }
    let pins = std::fs::read_to_string(&path).expect("read tests/golden/CERTS");
    let pinned: std::collections::BTreeMap<&str, &str> = pins
        .lines()
        .map(|l| l.split('#').next().unwrap().trim())
        .filter(|l| !l.is_empty())
        .map(|l| l.rsplit_once(' ').expect("<key> <digest>"))
        .collect();
    let mut diverged = Vec::new();
    for (key, digest) in &measured {
        match pinned.get(key.as_str()) {
            Some(pin) if *pin == format!("{digest:016x}") => {}
            Some(_) => diverged.push(format!("{key}: bytes changed")),
            None => diverged.push(format!("{key}: not pinned")),
        }
    }
    assert_eq!(pinned.len(), measured.len(), "CERTS pins a different set of outputs");
    assert!(
        diverged.is_empty(),
        "certificates diverged from tests/golden/CERTS (re-bless only after a \
         deliberate change to search or proof text):\n{}",
        diverged.join("\n")
    );
}
