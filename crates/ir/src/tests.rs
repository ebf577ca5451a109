//! Crate-level tests: builder validation, import machinery, and
//! property-based round-trips over randomly generated netlists.

use std::collections::HashMap;

use proptest::prelude::*;

use crate::{analysis, eval, text, CmpOp, Netlist, Op, SignalId, SignalType};

// ---------------------------------------------------------------------------
// Builder validation
// ---------------------------------------------------------------------------

#[test]
fn builder_type_checks() {
    let mut n = Netlist::new("t");
    let w = n.input_word("w", 8).unwrap();
    let b = n.input_bool("b").unwrap();

    assert!(n.not(w).is_err(), "not() must reject words");
    assert!(n.and(&[w, b]).is_err(), "and() must reject words");
    assert!(n.and(&[]).is_err(), "and() must reject empty operand list");
    assert!(n.add(b, w).is_err(), "add() must reject bools");
    assert!(n.cmp(CmpOp::Lt, b, w).is_err(), "cmp() must reject bools");
    assert!(n.ite(w, w, w).is_err(), "ite() select must be bool");
    assert!(n.bool_to_word(w).is_err(), "b2w() must reject words");
}

#[test]
fn builder_width_checks() {
    let mut n = Netlist::new("t");
    let a = n.input_word("a", 8).unwrap();
    let b4 = n.input_word("b", 4).unwrap();
    let s = n.input_bool("s").unwrap();

    assert!(n.input_word("z", 0).is_err());
    assert!(n.input_word("z", 63).is_err());
    assert!(n.extract(a, 8, 0).is_err(), "hi out of range");
    assert!(n.extract(a, 2, 5).is_err(), "lo > hi");
    assert!(n.zext(a, 8).is_err(), "zext must widen");
    assert!(n.sext(a, 4).is_err(), "sext must widen");
    assert!(n.ite(s, a, b4).is_err(), "ite branch widths must match");
    assert!(n.const_word(256, 8).is_err(), "constant out of range");
    assert!(n.const_word(-1, 8).is_err(), "negative constant");
    assert!(n.mul_const(a, -2).is_err(), "negative multiplier");
}

#[test]
fn name_uniqueness() {
    let mut n = Netlist::new("t");
    let a = n.input_word("a", 8).unwrap();
    assert!(n.input_word("a", 8).is_err(), "duplicate input name");
    assert!(n.set_name(a, "alias").is_ok());
    let b = n.input_word("b", 8).unwrap();
    assert!(n.set_name(b, "alias").is_err(), "duplicate alias");
    n.set_output(a, "out").unwrap();
    assert!(n.set_output(b, "out").is_err(), "duplicate output name");
    assert_eq!(n.find("a"), Some(a));
    assert_eq!(n.find("alias"), Some(a));
    assert_eq!(n.find("nope"), None);
}

/// Declaring an output checks its name in O(1): 100 000 outputs (a
/// netlist text of about 1.6 MB) parse and simplify, cone pruning
/// included, well inside a bound a quadratic duplicate scan misses by
/// far. Duplicates are still rejected, by the builder and by the parser,
/// and also after a suffix append.
#[test]
fn many_outputs_declare_in_linear_time() {
    use std::fmt::Write as _;
    const OUTPUTS: usize = 100_000;
    let mut src = String::from("netlist wide\ninput a w8\nnode dead w8 = add a a\n");
    for k in 0..OUTPUTS {
        writeln!(src, "output a o{k}").unwrap();
    }
    let start = std::time::Instant::now();
    let n = text::parse(&src).expect("parses");
    assert_eq!(n.outputs().len(), OUTPUTS);
    let a = n.find("a").unwrap();
    let s = crate::simplify::simplify(&n, &[a]);
    assert_eq!(s.stats.coi_dropped, 1, "the dead node is pruned");
    assert_eq!(s.netlist.outputs(), n.outputs());
    let elapsed = start.elapsed();
    assert!(elapsed < std::time::Duration::from_secs(5), "took {elapsed:?}");

    let dup = "netlist d\ninput a w8\noutput a y\noutput a y\n";
    assert!(
        matches!(text::parse(dup), Err(crate::NetlistError::Parse { line: 4, .. })),
        "duplicate output name in text"
    );
    let mut copy = Netlist::new("wide");
    copy.append_suffix(&n);
    let dead = copy.find("dead").unwrap();
    assert!(copy.set_output(dead, "o7").is_err(), "appended names are indexed");
    assert!(copy.set_output(dead, "fresh").is_ok());
}

#[test]
fn unknown_signal_rejected() {
    let mut n = Netlist::new("t");
    let _ = n.input_word("a", 8).unwrap();
    let ghost = SignalId::from_index(99);
    assert!(n.check(ghost).is_err());
    assert!(n.not(ghost).is_err());
    assert!(n.set_output(ghost, "x").is_err());
}

#[test]
fn signal_accessors() {
    let mut n = Netlist::new("t");
    let a = n.input_word("a", 5).unwrap();
    assert_eq!(n.ty(a), SignalType::Word { width: 5 });
    assert_eq!(n.ty(a).width(), 5);
    assert_eq!(n.ty(a).max_value(), 31);
    assert!(matches!(n.op(a), Op::Input));
    assert_eq!(n.signal(a).name(), Some("a"));
    assert_eq!(n.len(), 1);
    assert!(!n.is_empty());
}

#[test]
fn op_operand_iteration() {
    let mut n = Netlist::new("t");
    let a = n.input_word("a", 4).unwrap();
    let b = n.input_word("b", 4).unwrap();
    let s = n.input_bool("s").unwrap();
    let m = n.ite(s, a, b).unwrap();
    let ops: Vec<SignalId> = n.op(m).operands().collect();
    assert_eq!(ops, vec![s, a, b]);
    let g = n.and(&[s, s, s]).unwrap();
    assert_eq!(n.op(g).operands().count(), 3);
    assert_eq!(n.op(a).operands().count(), 0);
}

#[test]
fn op_classification() {
    let mut n = Netlist::new("t");
    let a = n.input_word("a", 4).unwrap();
    let b = n.input_word("b", 4).unwrap();
    let s = n.input_bool("s").unwrap();
    let add = n.add(a, b).unwrap();
    let ite = n.ite(s, a, b).unwrap();
    let cmp = n.cmp(CmpOp::Lt, a, b).unwrap();
    let gate = n.not(s).unwrap();

    assert!(n.op(add).is_arith() && !n.op(add).is_justifiable());
    assert!(n.op(ite).is_arith() && n.op(ite).is_justifiable());
    assert!(n.op(cmp).is_arith() && !n.op(cmp).is_justifiable());
    assert!(n.op(gate).is_bool_gate() && n.op(gate).is_justifiable());
}

// ---------------------------------------------------------------------------
// Import
// ---------------------------------------------------------------------------

#[test]
fn import_copies_subgraph() {
    let mut src = Netlist::new("src");
    let a = src.input_word("a", 8).unwrap();
    let b = src.input_word("b", 8).unwrap();
    let sum = src.add(a, b).unwrap();
    let gt = src.cmp(CmpOp::Gt, sum, a).unwrap();

    let mut dst = Netlist::new("dst");
    let x = dst.input_word("x", 8).unwrap();
    let y = dst.input_word("y", 8).unwrap();
    let mut map: HashMap<SignalId, SignalId> = [(a, x), (b, y)].into();
    let gt2 = dst.import(&src, gt, &mut map).unwrap();

    // semantics preserved: (x + y) mod 256 > x
    let vals = eval::eval_inputs(&dst, &[("x", 200), ("y", 100)]).unwrap();
    assert_eq!(vals[gt2], 0); // 300 mod 256 = 44, not > 200
    let vals = eval::eval_inputs(&dst, &[("x", 3), ("y", 100)]).unwrap();
    assert_eq!(vals[gt2], 1);
}

#[test]
fn import_requires_input_mapping() {
    let mut src = Netlist::new("src");
    let a = src.input_word("a", 8).unwrap();
    let inc = src.mul_const(a, 2).unwrap();
    let mut dst = Netlist::new("dst");
    let mut map = HashMap::new();
    assert!(dst.import(&src, inc, &mut map).is_err());
}

#[test]
fn import_deep_chain_no_stack_overflow() {
    let mut src = Netlist::new("deep");
    let a = src.input_word("a", 8).unwrap();
    let one = src.const_word(1, 8).unwrap();
    let mut cur = a;
    for _ in 0..50_000 {
        cur = src.add(cur, one).unwrap();
    }
    let mut dst = Netlist::new("dst");
    let x = dst.input_word("x", 8).unwrap();
    let mut map: HashMap<SignalId, SignalId> = [(a, x)].into();
    let copied = dst.import(&src, cur, &mut map).unwrap();
    let vals = eval::eval_inputs(&dst, &[("x", 0)]).unwrap();
    assert_eq!(vals[copied], 50_000 % 256);
}

// ---------------------------------------------------------------------------
// Random netlists: simulator vs. text round-trip, analysis invariants
// ---------------------------------------------------------------------------

/// A recipe for one random operator to stack onto a seed netlist.
#[derive(Clone, Debug)]
enum Step {
    Add(usize, usize),
    Sub(usize, usize),
    MulConst(usize, i64),
    Ite(usize, usize, usize),
    Cmp(CmpOp, usize, usize),
    Min(usize, usize),
    Max(usize, usize),
    Shr(usize, u32),
    Not(usize),
    And(usize, usize),
    Or(usize, usize),
    Xor(usize, usize),
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (any::<usize>(), any::<usize>()).prop_map(|(a, b)| Step::Add(a, b)),
        (any::<usize>(), any::<usize>()).prop_map(|(a, b)| Step::Sub(a, b)),
        (any::<usize>(), 0i64..8).prop_map(|(a, k)| Step::MulConst(a, k)),
        (any::<usize>(), any::<usize>(), any::<usize>()).prop_map(|(s, a, b)| Step::Ite(s, a, b)),
        (
            prop_oneof![
                Just(CmpOp::Eq),
                Just(CmpOp::Ne),
                Just(CmpOp::Lt),
                Just(CmpOp::Le),
                Just(CmpOp::Gt),
                Just(CmpOp::Ge)
            ],
            any::<usize>(),
            any::<usize>()
        )
            .prop_map(|(op, a, b)| Step::Cmp(op, a, b)),
        (any::<usize>(), any::<usize>()).prop_map(|(a, b)| Step::Min(a, b)),
        (any::<usize>(), any::<usize>()).prop_map(|(a, b)| Step::Max(a, b)),
        (any::<usize>(), 0u32..4).prop_map(|(a, k)| Step::Shr(a, k)),
        any::<usize>().prop_map(Step::Not),
        (any::<usize>(), any::<usize>()).prop_map(|(a, b)| Step::And(a, b)),
        (any::<usize>(), any::<usize>()).prop_map(|(a, b)| Step::Or(a, b)),
        (any::<usize>(), any::<usize>()).prop_map(|(a, b)| Step::Xor(a, b)),
    ]
}

/// Builds a random but always-valid netlist from the recipe: operand indices
/// select (mod list length) from the word or Boolean signals created so far.
fn build_random(steps: &[Step]) -> Netlist {
    let mut n = Netlist::new("random");
    let mut words = vec![
        n.input_word("w0", 4).unwrap(),
        n.input_word("w1", 4).unwrap(),
    ];
    let mut bools = vec![n.input_bool("b0").unwrap()];
    for step in steps {
        apply_step(&mut n, &mut words, &mut bools, step);
    }
    let last_w = *words.last().unwrap();
    let last_b = *bools.last().unwrap();
    n.set_output(last_w, "wout").unwrap();
    n.set_output(last_b, "bout").unwrap();
    n
}

/// Appends one recipe step's operator to `n`, its operands picked among
/// (and its result pushed onto) `words` or `bools`.
fn apply_step(n: &mut Netlist, words: &mut Vec<SignalId>, bools: &mut Vec<SignalId>, step: &Step) {
    let w = |i: &usize| words[i % words.len()];
    let b = |i: &usize| bools[i % bools.len()];
    match step {
        Step::Add(a, c) => words.push(n.add(w(a), w(c)).unwrap()),
        Step::Sub(a, c) => words.push(n.sub(w(a), w(c)).unwrap()),
        Step::MulConst(a, k) => words.push(n.mul_const(w(a), *k).unwrap()),
        Step::Ite(s, a, c) => {
            let (wa, wc) = (w(a), w(c));
            if n.ty(wa).width() == n.ty(wc).width() {
                words.push(n.ite(b(s), wa, wc).unwrap());
            }
        }
        Step::Cmp(op, a, c) => bools.push(n.cmp(*op, w(a), w(c)).unwrap()),
        Step::Min(a, c) => words.push(n.min(w(a), w(c)).unwrap()),
        Step::Max(a, c) => words.push(n.max(w(a), w(c)).unwrap()),
        Step::Shr(a, k) => words.push(n.shr(w(a), *k).unwrap()),
        Step::Not(a) => bools.push(n.not(b(a)).unwrap()),
        Step::And(a, c) => bools.push(n.and(&[b(a), b(c)]).unwrap()),
        Step::Or(a, c) => bools.push(n.or(&[b(a), b(c)]).unwrap()),
        Step::Xor(a, c) => bools.push(n.xor(b(a), b(c)).unwrap()),
    }
}

proptest! {
    /// The textual format round-trips: same size, same semantics on all
    /// outputs for several random input vectors.
    #[test]
    fn text_round_trip_preserves_semantics(
        steps in proptest::collection::vec(step_strategy(), 1..40),
        inputs in proptest::collection::vec((0i64..16, 0i64..16, 0i64..2), 4),
    ) {
        let n = build_random(&steps);
        let printed = text::to_text(&n);
        let n2 = text::parse(&printed).expect("round-trip parse");
        prop_assert_eq!(n.len(), n2.len());
        for (w0, w1, b0) in inputs {
            let iv = [("w0", w0), ("w1", w1), ("b0", b0)];
            let v1 = eval::eval_inputs(&n, &iv).unwrap();
            let v2 = eval::eval_inputs(&n2, &iv).unwrap();
            for (id, name) in n.outputs() {
                let id2 = n2.outputs().iter().find(|(_, m)| m == name).unwrap().0;
                prop_assert_eq!(v1[*id], v2[id2], "output {} differs", name);
            }
        }
    }

    /// Levels are strictly increasing along operands; stats partition the
    /// netlist; every value stays within its declared domain.
    #[test]
    fn analysis_invariants(
        steps in proptest::collection::vec(step_strategy(), 1..40),
        w0 in 0i64..16, w1 in 0i64..16, b0 in 0i64..2,
    ) {
        let n = build_random(&steps);
        let levels = analysis::levels(&n);
        for id in n.signal_ids() {
            for o in n.op(id).operands() {
                prop_assert!(levels[o.index()] < levels[id.index()]);
            }
        }
        let stats = analysis::stats(&n);
        prop_assert_eq!(stats.total(), n.len());
        let vals = eval::eval_inputs(&n, &[("w0", w0), ("w1", w1), ("b0", b0)]).unwrap();
        for id in n.signal_ids() {
            let v = vals[id];
            prop_assert!(v >= 0 && v <= n.ty(id).max_value());
        }
    }

    /// The cone of influence of an output contains every signal that can
    /// change it: flipping a signal outside the cone never changes the output.
    #[test]
    fn coi_is_sound(
        steps in proptest::collection::vec(step_strategy(), 1..30),
        w0 in 0i64..16, w1 in 0i64..16,
    ) {
        let n = build_random(&steps);
        let (out, _) = n.outputs()[0];
        let cone = analysis::cone_of_influence(&n, &[out]);
        // Flip each *input* not in the cone; output must not change.
        let base = eval::eval_inputs(&n, &[("w0", w0), ("w1", w1), ("b0", 0)]).unwrap();
        for (name, val, flip) in [("w0", w0, (w0 + 1) % 16), ("w1", w1, (w1 + 1) % 16)] {
            let id = n.find(name).unwrap();
            if !cone[id.index()] {
                let mut iv = vec![("w0", w0), ("w1", w1), ("b0", 0)];
                for e in &mut iv {
                    if e.0 == name { e.1 = flip; }
                }
                let _ = val;
                let changed = eval::eval_inputs(&n, &iv).unwrap();
                prop_assert_eq!(base[out], changed[out]);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Suffix append: catching a copy up with an append-only master
// ---------------------------------------------------------------------------

/// `a` and `b` agree on everything a netlist exposes: each signal's type,
/// operator and name, `find` for every name, and the outputs.
fn assert_same_netlist(a: &Netlist, b: &Netlist) {
    assert_eq!(a.name(), b.name());
    assert_eq!(a.len(), b.len());
    for id in a.signal_ids() {
        assert_eq!(a.signal(id), b.signal(id), "signal {id}");
        if let Some(name) = a.signal(id).name() {
            assert_eq!(a.find(name), Some(id), "find({name}) in the first");
            assert_eq!(b.find(name), Some(id), "find({name}) in the second");
        }
    }
    assert_eq!(a.outputs(), b.outputs());
}

proptest! {
    /// A copy taken at the first cut and caught up with `append_suffix`
    /// at every later one equals a fresh `clone()` of the master. Each
    /// stretch of growth adds a named input, random operators, a name
    /// on its newest signal, and an output on an old or new signal.
    #[test]
    fn append_suffix_matches_clone(
        steps in proptest::collection::vec(step_strategy(), 1..40),
        cuts in proptest::collection::vec(any::<usize>(), 0..6),
        picks in proptest::collection::vec(any::<usize>(), 7),
    ) {
        let mut master = Netlist::new("grow");
        let mut words = vec![master.input_word("w0", 4).unwrap()];
        let mut bools = vec![master.input_bool("b0").unwrap()];
        let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (steps.len() + 1)).collect();
        cuts.sort_unstable();
        cuts.push(steps.len());
        let mut copy: Option<Netlist> = None;
        let mut done = 0;
        for (k, &cut) in cuts.iter().enumerate() {
            words.push(master.input_word(&format!("in{k}"), 4).unwrap());
            for step in &steps[done..cut] {
                apply_step(&mut master, &mut words, &mut bools, step);
            }
            done = cut;
            let newest = master.signal_ids().last().unwrap();
            if master.signal(newest).name().is_none() {
                master.set_name(newest, format!("s{k}")).unwrap();
            }
            let out = master.signal_ids().nth(picks[k] % master.len()).unwrap();
            master.set_output(out, format!("o{k}")).unwrap();
            match &mut copy {
                None => copy = Some(master.clone()),
                Some(c) => c.append_suffix(&master),
            }
            assert_same_netlist(copy.as_ref().unwrap(), &master.clone());
        }
    }
}
