//! Hot-path propagation workloads shared by the `propagation` Criterion
//! bench and the `hotpath` binary (which emits `BENCH_hotpath.json`).
//!
//! Each workload is a self-contained satisfiability instance chosen to
//! stress one part of the HDPLL inner loop:
//!
//! * [`deep_chain`] — a long `x_{i+1} = x_i + 1` adder chain whose input
//!   is pinned by the goal, so the whole solve is one uninterrupted
//!   interval-propagation sweep (zero decisions). This is the workload
//!   the PR's ≥ 1.3× acceptance bar is measured on.
//! * [`mux_search`] — a chain of `ite(sel_i, x_i + 1, x_i + 3)` stages
//!   with a parity-infeasible target, forcing an exhaustive Boolean
//!   search over the selectors. Every leaf is a conflict, so this churns
//!   the trail, conflict analysis, and clause learning.
//! * [`clause_heavy`] — the ITC'99 `b13` case `p40` at 13 frames with
//!   predicate learning enabled: thousands of learned binary clauses
//!   plus the probe-intersection path in `predlearn`.
//! * [`itc99_mixed`] — small Table 2 cases (`b01`, `b04` at 50 frames)
//!   under the structural decision strategy, mixing word and Boolean
//!   propagation the way the paper's experiments do.

use std::time::{Duration, Instant};

use rtl_hdpll::{
    Assumption, HdpllResult, LearnConfig, Session, SessionCert, Solver, SolverConfig, SolverStats,
    SupervisedSession,
};
use rtl_ir::seq::SeqCircuit;
use rtl_ir::{CmpOp, Netlist, SignalId};
use rtl_itc99::cases::{BmcCase, Circuit, Expected};

/// One benchmark instance: a netlist, the goal signal to assert, and the
/// solver configuration to run it under.
#[derive(Debug)]
pub struct Workload {
    /// Stable identifier used in bench output and `BENCH_hotpath.json`.
    pub name: &'static str,
    /// The combinational netlist.
    pub netlist: Netlist,
    /// Boolean goal signal; the instance is `goal = 1`.
    pub goal: SignalId,
    /// Solver configuration the workload is meant to stress.
    pub config: SolverConfig,
    /// Expected verdict, checked on every run (`true` = SAT).
    pub expect_sat: bool,
}

impl Workload {
    /// Builds a fresh solver and solves the instance once, asserting the
    /// expected verdict. Returns the engine statistics of the run.
    ///
    /// # Panics
    ///
    /// Panics if the verdict differs from [`Workload::expect_sat`].
    pub fn run(&self) -> SolverStats {
        let mut solver = self.solver();
        let result = solver.solve(self.goal);
        self.check(&result);
        *solver.stats()
    }

    /// A fresh solver for this instance (compiles the netlist). Built once
    /// outside the timed region by the benchmark harnesses, so the timings
    /// measure search, not compilation.
    #[must_use]
    pub fn solver(&self) -> Solver {
        Solver::new(&self.netlist, self.config)
    }

    /// Asserts the verdict matches [`Workload::expect_sat`].
    ///
    /// # Panics
    ///
    /// Panics if the verdict differs.
    pub fn check(&self, result: &HdpllResult) {
        match (result, self.expect_sat) {
            (HdpllResult::Sat(_), true) | (HdpllResult::Unsat, false) => {}
            other => panic!("workload {}: unexpected verdict {other:?}", self.name),
        }
    }

    /// Solves once with the budget guard *armed* (the solver must come
    /// from [`Workload::guarded_solver`]): the overhead-measurement
    /// counterpart of a plain solve, exercising the every-4096-steps
    /// deadline/cancel polling on the hot path.
    pub fn run_guarded(&self, solver: &mut Solver, token: &rtl_hdpll::CancelToken) -> HdpllResult {
        solver.solve_cancellable(self.goal, token)
    }

    /// A fresh solver whose budget guard is armed with a far-away
    /// wall-clock deadline (compiles the netlist; build outside the
    /// timed region).
    #[must_use]
    pub fn guarded_solver(&self) -> Solver {
        let config = self.config.with_limits(rtl_hdpll::Limits {
            max_time: Some(std::time::Duration::from_secs(3600)),
            ..rtl_hdpll::Limits::default()
        });
        Solver::new(&self.netlist, config)
    }

    /// The preprocessed twin of this workload: the netlist simplified
    /// against the goal (`rtl_ir::simplify`, the supervisor's stage 0)
    /// plus the goal's image. Built outside the timed region by the
    /// benchmark harnesses — the preproc A/B times *search on the
    /// simplified netlist* against search on the raw one; the rewrite
    /// pass itself is a one-off amortized over every later query.
    ///
    /// # Panics
    ///
    /// Panics if the goal folds to a constant (none of the suite's
    /// workloads are decidable by rewriting alone).
    #[must_use]
    pub fn preprocessed(&self) -> (rtl_ir::simplify::SimplifyResult, SignalId) {
        let r = rtl_ir::simplify::simplify(&self.netlist, &[self.goal]);
        let goal = r.map.get(self.goal).expect("the goal is a root");
        assert!(
            !matches!(r.netlist.op(goal), rtl_ir::Op::Const(_)),
            "workload {}: goal folded to a constant — nothing left to time",
            self.name
        );
        (r, goal)
    }
}

/// A pure interval-propagation chain: `x_0 = 1`, `x_{i+1} = x_i + 1` for
/// `depth` stages, goal `x_0 = 1 ∧ x_depth = depth + 1`.
///
/// Asserting the goal pins `x_0`, and ICP then walks the whole chain in
/// one queue sweep — no decisions, no conflicts, just `propagate()`.
#[must_use]
pub fn deep_chain(depth: usize) -> Workload {
    let width = 28; // wide enough that depth+1 never wraps
    let mut n = Netlist::new("deep_chain");
    let x0 = n.input_word("x0", width).unwrap();
    let one = n.const_word(1, width).unwrap();
    let mut x = x0;
    for _ in 0..depth {
        x = n.add(x, one).unwrap();
    }
    let start = n.eq_const(x0, 1).unwrap();
    let end = n.eq_const(x, depth as i64 + 1).unwrap();
    let goal = n.and(&[start, end]).unwrap();
    Workload {
        name: "deep_chain",
        netlist: n,
        goal,
        config: SolverConfig::hdpll(),
        expect_sat: true,
    }
}

/// A search workload: an unsatisfiable sparse subset-sum instance built
/// from `stages` selector-gated adders `x_{i+1} = ite(sel_i, x_i + w_i,
/// x_i)`.
///
/// The weights come from a fixed LCG and the builder picks (by dynamic
/// programming) a target inside `[min w, Σw]` that no subset reaches.
/// Interval and modular reasoning cannot refute such a target at the
/// root — parities are mixed and the hull contains it — so the solver
/// must branch on the selectors, with backward interval pruning cutting
/// subtrees. This measures decision/trail push, backtracking, conflict
/// construction, and clause learning.
///
/// # Panics
///
/// Panics if the weight sequence leaves no unreachable target (does not
/// happen for the fixed LCG seed; the sums are sparse for `stages ≤ 16`).
#[must_use]
pub fn mux_search(stages: usize) -> Workload {
    // Deterministic pseudo-random weights, mixed parity, in [60, 187].
    let mut state = 0x9e37_79b9_u64;
    let weights: Vec<i64> = (0..stages)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            60 + (state >> 33) as i64 % 128
        })
        .collect();
    // DP over reachable subset sums; pick an unreachable mid-range target.
    let total: i64 = weights.iter().sum();
    let mut reach = vec![false; total as usize + 1];
    reach[0] = true;
    for &w in &weights {
        for s in (w as usize..reach.len()).rev() {
            if reach[s - w as usize] {
                reach[s] = true;
            }
        }
    }
    let target = (total / 3..total)
        .find(|&t| !reach[t as usize])
        .expect("sparse sums leave a gap");

    let width = 28;
    let mut n = Netlist::new("mux_search");
    let x0 = n.input_word("x0", width).unwrap();
    let mut x = x0;
    for (i, &w) in weights.iter().enumerate() {
        let sel = n.input_bool(&format!("sel{i}")).unwrap();
        let wi = n.const_word(w, width).unwrap();
        let taken = n.add(x, wi).unwrap();
        x = n.ite(sel, taken, x).unwrap();
    }
    let start = n.eq_const(x0, 0).unwrap();
    let tconst = n.const_word(target, width).unwrap();
    let end = n.cmp(CmpOp::Eq, x, tconst).unwrap();
    let goal = n.and(&[start, end]).unwrap();
    Workload {
        name: "mux_search",
        netlist: n,
        goal,
        config: SolverConfig::hdpll(),
        expect_sat: false,
    }
}

/// Builds a workload from one ITC'99 BMC case.
fn itc99_workload(name: &'static str, case: &BmcCase, config: SolverConfig) -> Workload {
    let bmc = case.build();
    Workload {
        name,
        netlist: bmc.netlist,
        goal: bmc.bad,
        config,
        expect_sat: case.expected == Expected::Sat,
    }
}

/// The clause-heavy workload: `b13` property `p40` at 13 frames with
/// static predicate learning, exercising `predlearn` probe intersection
/// and the learned-clause propagation queue.
#[must_use]
pub fn clause_heavy() -> Workload {
    let case = BmcCase {
        circuit: Circuit::B13,
        property: "p40",
        frames: 13,
        expected: Expected::Sat,
    };
    let learn = LearnConfig::table2_for(&case.build().netlist);
    itc99_workload(
        "clause_heavy_b13",
        &case,
        SolverConfig::structural_with_learning(learn),
    )
}

/// Mixed ITC'99 workloads (structural decisions, no predicate learning):
/// `b01` and `b04` at 50 frames, the small SAT rows of Table 2.
#[must_use]
pub fn itc99_mixed() -> Vec<Workload> {
    vec![
        itc99_workload(
            "itc99_b01_50",
            &BmcCase {
                circuit: Circuit::B01,
                property: "p1",
                frames: 50,
                expected: Expected::Sat,
            },
            SolverConfig::structural(),
        ),
        itc99_workload(
            "itc99_b04_50",
            &BmcCase {
                circuit: Circuit::B04,
                property: "p1",
                frames: 50,
                expected: Expected::Sat,
            },
            SolverConfig::structural(),
        ),
    ]
}

/// The full hot-path suite in reporting order.
#[must_use]
pub fn all_workloads() -> Vec<Workload> {
    let mut v = vec![deep_chain(2000), mux_search(14), clause_heavy()];
    v.extend(itc99_mixed());
    v
}

/// The sessioned-BMC A/B workload: a 6-bit saturating counter whose
/// saturation comparator was written with `>` instead of `>=`, so the
/// counter can exceed `limit` by one — the bug is reachable exactly at
/// depth `limit + 1`. The same circuit as `examples/bmc_counter.rs`,
/// parameterized so the bench sweep stays short.
///
/// # Panics
///
/// Panics on netlist construction errors (fixed shape; does not happen).
#[must_use]
pub fn buggy_counter(limit: i64) -> SeqCircuit {
    let mut f = Netlist::new("saturating_counter");
    let count = f.input_word("count", 6).unwrap();
    let up = f.input_bool("up").unwrap();
    let down = f.input_bool("down").unwrap();

    let one = f.const_word(1, 6).unwrap();
    let lim = f.const_word(limit, 6).unwrap();
    let inc = f.add(count, one).unwrap();
    let dec = f.sub(count, one).unwrap();

    let over = f.cmp(CmpOp::Gt, count, lim).unwrap();
    let can_up = f.and_not(up, over).unwrap();
    let nonzero = f.eq_const(count, 0).unwrap();
    let can_down = f.and_not(down, nonzero).unwrap();

    let after_up = f.ite(can_up, inc, count).unwrap();
    let next = f.ite(can_down, dec, after_up).unwrap();

    let bad = f.cmp(CmpOp::Gt, count, lim).unwrap();

    let mut ckt = SeqCircuit::new(f);
    ckt.add_register(count, next, 0).unwrap();
    ckt.add_property("saturation", bad).unwrap();
    ckt
}

/// One full *sessioned* BMC sweep: compile frame 0 once, then per depth
/// append a frame in place ([`Session::extend`]) and ask `bad@depth`
/// as a single assumption query. Includes compilation, so the A/B
/// against [`bmc_fresh_sweep`] compares end-to-end sweeps. Returns the
/// depth the bug was found at.
///
/// # Panics
///
/// Panics if no counterexample is found through `max_depth` or a query
/// exhausts its (absent) budget.
#[must_use]
pub fn bmc_session_sweep(ckt: &SeqCircuit, max_depth: usize) -> usize {
    let mut unroller = ckt.unroller();
    let mut base = unroller.base_netlist();
    unroller.push_frame(&mut base).expect("frame 0");
    let mut session = Session::new(&base, SolverConfig::structural());
    for depth in 0..max_depth {
        if depth > 0 {
            session.extend(|n| unroller.push_frame(n).expect("frame"));
        }
        let bad = unroller.bad("saturation", depth).expect("pushed frame");
        let certified = session.solve(&[Assumption::yes(bad)]);
        if certified.result.is_sat() {
            return depth;
        }
        assert!(certified.result.is_unsat(), "budget exhausted");
    }
    panic!("no counterexample through depth {max_depth}");
}

/// The end-to-end benchmark's BMC sweeps over ITC'99 b13: each property
/// with its number of depths (every depth is UNSAT).
pub const B13_SWEEPS: [(&str, usize); 5] =
    [("p1", 40), ("p2", 40), ("p3", 40), ("p5", 40), ("p8", 15)];

/// Runs one b13 sweep as the end-to-end benchmark does: a
/// [`SupervisedSession`] over `rungs` with preprocessing on, then one
/// `extend` and one assumption query `bad@depth` per depth. Returns the
/// ladder and the printed proof of every answer.
///
/// # Panics
///
/// Panics if `prop` is not a b13 property or an answer is not a checked
/// UNSAT proof.
#[must_use]
pub fn b13_sweep(
    prop: &str,
    depths: usize,
    rungs: Vec<(String, SolverConfig)>,
) -> (SupervisedSession, Vec<String>) {
    let (ladder, proofs, _) = b13_sweep_timed(prop, depths, rungs, || 0);
    (ladder, proofs)
}

/// What one answer of a b13 sweep cost: its `extend` (none at depth 0)
/// plus its query.
#[derive(Clone, Copy, Debug)]
pub struct AnswerCost {
    /// Wall time.
    pub time: Duration,
    /// Heap allocations, as counted by the caller's `allocations`.
    pub allocs: u64,
    /// Conflicts the answering session's search spent on it.
    pub conflicts: u64,
}

/// [`b13_sweep`], also returning the cost of every answer.
/// `allocations` reads a running count of heap allocations (a counting
/// global allocator in the caller's binary; `|| 0` without one).
///
/// # Panics
///
/// As [`b13_sweep`].
#[must_use]
pub fn b13_sweep_timed(
    prop: &str,
    depths: usize,
    rungs: Vec<(String, SolverConfig)>,
    allocations: impl Fn() -> u64,
) -> (SupervisedSession, Vec<String>, Vec<AnswerCost>) {
    let mut unroller = rtl_itc99::b13().unroller();
    let mut base = unroller.base_netlist();
    unroller.push_frame(&mut base).expect("b13 unrolls");
    let mut ladder = SupervisedSession::with_rungs(&base, rungs).with_preproc(true);
    let mut proofs = Vec::with_capacity(depths);
    let mut costs = Vec::with_capacity(depths);
    for depth in 0..depths {
        let conflicts = |l: &SupervisedSession| l.stats().map_or(0, |s| s.engine.conflicts);
        let before = conflicts(&ladder);
        let allocs = allocations();
        let start = Instant::now();
        if depth > 0 {
            ladder.extend(|n| unroller.push_frame(n).expect("b13 unrolls"));
        }
        let bad = unroller.bad(prop, depth).expect("property exists");
        let q = ladder.solve(&[Assumption::yes(bad)]);
        costs.push(AnswerCost {
            time: start.elapsed(),
            allocs: allocations() - allocs,
            conflicts: conflicts(&ladder) - before,
        });
        assert_eq!(q.certified.cert, SessionCert::ProofChecked, "b13 {prop}@{depth}");
        let proof = q.certified.proof.as_ref().expect("checked implies proof");
        proofs.push(rtl_proof::format::print(proof));
    }
    (ladder, proofs, costs)
}

/// FNV-1a (64-bit), the digest certificate comparisons use.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The fresh-per-depth twin of [`bmc_session_sweep`]: a monolithic
/// unroll plus a fresh solver (compile included) at every depth
/// `0..=found`, asserting the bug lands at the same depth.
///
/// # Panics
///
/// Panics if any depth disagrees with the sessioned sweep.
pub fn bmc_fresh_sweep(ckt: &SeqCircuit, found: usize) {
    for depth in 0..=found {
        let bmc = ckt.unroll("saturation", depth + 1).expect("unroll");
        let verdict = Solver::new(&bmc.netlist, SolverConfig::structural()).solve(bmc.bad);
        assert_eq!(
            verdict.is_sat(),
            depth == found,
            "fresh sweep disagrees with the session at depth {depth}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deep_chain_is_pure_propagation() {
        let w = deep_chain(64);
        let stats = w.run();
        assert_eq!(stats.engine.conflicts, 0, "chain must not conflict");
        assert!(stats.engine.propagations >= 64);
    }

    #[test]
    fn mux_search_conflicts_and_refutes() {
        let w = mux_search(6);
        let stats = w.run();
        assert!(stats.engine.conflicts > 0, "search must hit conflicts");
    }

    #[test]
    fn preprocessed_twins_keep_their_verdicts() {
        for w in [deep_chain(64), mux_search(6)] {
            let (pre, goal) = w.preprocessed();
            let result = Solver::new(&pre.netlist, w.config).solve(goal);
            w.check(&result);
            assert!(
                pre.netlist.len() <= w.netlist.len(),
                "{}: preprocessing grew the netlist",
                w.name
            );
        }
    }
}
