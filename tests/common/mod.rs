//! Shared helpers for the integration-test crates: the deterministic
//! random-netlist generator used by the differential and proof-logging
//! proptests, and the random sequential circuits of the unrolling and
//! session-sweep proptests.

// Each integration test is its own crate and uses a different subset.
#![allow(dead_code)]

use rtlsat::ir::seq::SeqCircuit;
use rtlsat::ir::{CmpOp, Netlist, SignalId};

/// Deterministic splitmix64 stream.
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub fn flip(&mut self) -> bool {
        self.next() & 1 == 1
    }
}

/// Builds a random small netlist (≤ ~16 nodes, widths ≤ 6) plus a
/// Boolean goal mixing comparisons and control logic. Conjunction of
/// several random comparisons keeps the SAT/UNSAT mix interesting.
pub fn random_netlist(seed: u64) -> (Netlist, SignalId) {
    let mut rng = Rng(seed);
    let mut n = Netlist::new("diff");
    let mut words: Vec<SignalId> = Vec::new();
    let mut bools: Vec<SignalId> = Vec::new();

    for i in 0..2 + rng.below(2) {
        let w = 2 + rng.below(5) as u32;
        words.push(n.input_word(&format!("w{i}"), w).unwrap());
    }
    for i in 0..1 + rng.below(2) {
        bools.push(n.input_bool(&format!("b{i}")).unwrap());
    }
    let cw = 2 + rng.below(5) as u32;
    let cv = rng.below(1 << cw) as i64;
    words.push(n.const_word(cv, cw).unwrap());

    let cmps = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];
    for _ in 0..6 + rng.below(8) {
        let a = words[rng.below(words.len())];
        let b = words[rng.below(words.len())];
        match rng.below(10) {
            0 => {
                let w = n.ty(a).width().max(n.ty(b).width());
                words.push(n.add_into(a, b, w).unwrap());
            }
            1 => words.push(n.sub(a, b).unwrap()),
            2 => words.push(n.min(a, b).unwrap()),
            3 => words.push(n.max(a, b).unwrap()),
            4 => {
                let k = rng.below(1 << n.ty(a).width()) as i64;
                words.push(n.mul_const(a, k).unwrap());
            }
            5 => {
                let w = n.ty(a).width();
                let lo = rng.below(w as usize) as u32;
                let hi = lo + rng.below((w - lo) as usize) as u32;
                words.push(n.extract(a, hi, lo).unwrap());
            }
            6 if n.ty(a).width() == n.ty(b).width() => {
                let sel = bools[rng.below(bools.len())];
                words.push(n.ite(sel, a, b).unwrap());
            }
            7 => {
                let x = bools[rng.below(bools.len())];
                let y = bools[rng.below(bools.len())];
                bools.push(n.xor(x, y).unwrap());
            }
            8 => {
                let x = bools[rng.below(bools.len())];
                bools.push(n.not(x).unwrap());
            }
            _ => {
                let op = cmps[rng.below(cmps.len())];
                bools.push(n.cmp(op, a, b).unwrap());
            }
        }
    }

    // Goal: conjunction of 2–4 (possibly negated) Boolean nodes.
    let mut terms = Vec::new();
    for _ in 0..2 + rng.below(3) {
        let mut t = bools[rng.below(bools.len())];
        if rng.flip() {
            t = n.not(t).unwrap();
        }
        terms.push(t);
    }
    let goal = n.and(&terms).unwrap();
    (n, goal)
}

/// A random sequential circuit: three 4-bit and one Boolean register,
/// a free word and a free Boolean input, one word constant, random
/// operators over all of them, and next-state functions and properties
/// picked among every signal of the right type (inputs and constants
/// included, so a next state or a bad signal may be a register state, a
/// free input or a constant).
pub fn random_circuit(ops: &[(u8, usize, usize, usize)], picks: &[usize], inits: &[i64]) -> SeqCircuit {
    let mut f = Netlist::new("rand");
    let mut words: Vec<SignalId> = Vec::new();
    let mut bools: Vec<SignalId> = Vec::new();
    let mut states = Vec::new();
    for k in 0..3 {
        let s = f.input_word(&format!("r{k}"), 4).unwrap();
        states.push(s);
        words.push(s);
    }
    let rb = f.input_bool("rb").unwrap();
    bools.push(rb);
    words.push(f.input_word("x", 4).unwrap());
    bools.push(f.input_bool("y").unwrap());
    words.push(f.const_word(5, 4).unwrap());
    for &(kind, a, b, c) in ops {
        let w = |i: usize| words[i % words.len()];
        let bl = |i: usize| bools[i % bools.len()];
        match kind % 10 {
            0 => words.push(f.add(w(a), w(b)).unwrap()),
            1 => words.push(f.sub(w(a), w(b)).unwrap()),
            2 => words.push(f.mul_const(w(a), (c % 7) as i64).unwrap()),
            3 => words.push(f.ite(bl(c), w(a), w(b)).unwrap()),
            4 => words.push(f.shr(w(a), (c % 3) as u32).unwrap()),
            5 => bools.push(
                f.cmp([CmpOp::Eq, CmpOp::Lt, CmpOp::Ge][c % 3], w(a), w(b))
                    .unwrap(),
            ),
            6 => bools.push(f.and(&[bl(a), bl(b), bl(c)]).unwrap()),
            7 => bools.push(f.or(&[bl(a), bl(b)]).unwrap()),
            8 => bools.push(f.xor(bl(a), bl(b)).unwrap()),
            _ => bools.push(f.not(bl(a)).unwrap()),
        }
    }
    let mut ckt = SeqCircuit::new(f);
    for (k, &s) in states.iter().enumerate() {
        let next = words[picks[k] % words.len()];
        ckt.add_register(s, next, inits[k] % 16).unwrap();
    }
    ckt.add_register(rb, bools[picks[3] % bools.len()], inits[3] % 2)
        .unwrap();
    for (p, &pick) in picks[4..].iter().enumerate() {
        ckt.add_property(&format!("p{p}"), bools[pick % bools.len()])
            .unwrap();
    }
    ckt
}
