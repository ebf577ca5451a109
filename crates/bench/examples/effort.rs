//! Quick search-effort snapshot of the hot-path workloads: one solve
//! per workload, wall time plus the engine counters, no sampling.
//! Handy when tuning clause-DB / restart heuristics without paying for
//! a full `hotpath` run.
//!
//! Three more sections follow: the `hotpath` preprocessing twins of the
//! ITC'99 rows (raw and simplified netlist, profiled: solve time and
//! the FM final checks' share of it); the end-to-end benchmark's five
//! b13 BMC session sweeps (default session rung, preprocessing on;
//! counters summed per sweep, and for each 40-depth sweep the mean
//! answer time and heap allocations at depths 1–10 against 30–39); and
//! `mux_search` 6–12 under each engine with proof logging, printing the
//! verdict, the conflict count, an FNV-1a digest of the proof text and
//! whether a fresh checker accepts it. Diff two builds' output to see
//! where their searches part. Every sweep answer must be a checked
//! UNSAT proof, or the run panics.
//!
//! Allocations are counted by this example's global allocator (every
//! `alloc`, `alloc_zeroed` and `realloc`); the counts are deterministic.
//!
//!     cargo run --release -p rtl-bench --example effort

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use rtl_bench::hotpath::{b13_sweep_timed, fnv1a, B13_SWEEPS};
use rtl_hdpll::{EngineStats, LearnConfig, ObsConfig, ObsHandle, Solver, SolverConfig};
use rtl_proof::{format, Checker};

/// The system allocator, counting every allocation it hands out.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards to `System` with the caller's arguments.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn counters(e: &EngineStats) -> String {
    format!(
        "conflicts={} learned={} deleted={} reductions={} restarts={}+{} decisions={} props={} narrowings={} clause_props={} fm={}/{}",
        e.conflicts,
        e.learned,
        e.lemmas_deleted,
        e.db_reductions,
        e.restarts,
        e.restarts_scheduled,
        e.decisions,
        e.propagations,
        e.narrowings,
        e.clause_props,
        e.fm_calls,
        e.fm_subcalls
    )
}

fn main() {
    for w in rtl_bench::hotpath::all_workloads() {
        let t = std::time::Instant::now();
        let stats = w.run();
        println!(
            "{}: {:.1}ms {}",
            w.name,
            t.elapsed().as_secs_f64() * 1e3,
            counters(&stats.engine)
        );
    }

    for w in rtl_bench::hotpath::itc99_mixed() {
        let (pre, pre_goal) = w.preprocessed();
        for (twin, netlist, goal) in [("raw", &w.netlist, w.goal), ("preproc", &pre.netlist, pre_goal)] {
            let mut solver = Solver::new(netlist, w.config);
            w.check(&solver.solve(goal)); // warm-up
            let obs = ObsHandle::armed(ObsConfig::profiled());
            solver.set_obs(obs.clone());
            let t = std::time::Instant::now();
            w.check(&solver.solve(goal));
            let ms = t.elapsed().as_secs_f64() * 1e3;
            let rows = obs.profile_snapshot().map(|p| p.rows).unwrap_or_default();
            let (fm_us, fm_checks) = rows
                .iter()
                .filter(|r| r.path.ends_with("final_check"))
                .fold((0, 0), |(us, n), r| (us + r.total_us, n + r.calls));
            println!(
                "{} {twin}: {ms:.2}ms final_check={:.2}ms/{fm_checks} signals={} {}",
                w.name,
                fm_us as f64 / 1e3,
                netlist.len(),
                counters(&solver.stats().engine)
            );
        }
    }

    let rung = SolverConfig::structural_with_learning(LearnConfig::default()).with_proof(true);
    for (prop, depths) in B13_SWEEPS {
        let t = std::time::Instant::now();
        let (ladder, _, costs) = b13_sweep_timed(
            prop,
            depths,
            vec![("hdpll-sp".to_string(), rung)],
            || ALLOCATIONS.load(Ordering::Relaxed),
        );
        let engine = ladder.stats().map(|s| s.engine).unwrap_or_default();
        println!(
            "b13 {prop} x{depths}: {:.1}ms {}",
            t.elapsed().as_secs_f64() * 1e3,
            counters(&engine)
        );
        // How an answer's cost grows with the unrolling: flat when an
        // answer pays for its own frame and search only.
        if depths >= 40 {
            let mean = |depths: std::ops::Range<usize>| {
                let n = depths.len() as f64;
                let answers = &costs[depths];
                let ms = answers.iter().map(|a| a.time.as_secs_f64()).sum::<f64>() * 1e3 / n;
                let allocs = answers.iter().map(|a| a.allocs).sum::<u64>() as f64 / n;
                (ms, allocs)
            };
            let ((early, early_allocs), (late, late_allocs)) = (mean(1..11), mean(30..40));
            println!(
                "b13 {prop} per answer: depths 1-10 {early:.3}ms {early_allocs:.1} allocs, \
                 30-39 {late:.3}ms {late_allocs:.1} allocs, ratio {:.2}",
                late / early
            );
        }
    }

    for stages in 6..=12 {
        let w = rtl_bench::hotpath::mux_search(stages);
        for (engine, config) in [
            ("hdpll", SolverConfig::hdpll()),
            ("hdpll-s", SolverConfig::structural()),
            (
                "hdpll-sp",
                SolverConfig::structural_with_learning(LearnConfig::default()),
            ),
        ] {
            let mut solver = Solver::new(&w.netlist, config.with_proof(true));
            let verdict = if solver.solve(w.goal).is_unsat() { "UNSAT" } else { "SAT" };
            let (digest, checked) = solver.take_proof().map_or((0, false), |p| {
                let text = format::print(&p);
                (fnv1a(text.as_bytes()), Checker::check_goal(&w.netlist, w.goal, &p).is_ok())
            });
            println!(
                "mux_search({stages}) {engine}: {verdict} conflicts={} proof={digest:016x} checked={checked}",
                solver.stats().engine.conflicts
            );
        }
    }
}
