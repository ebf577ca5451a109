//! BMC unrolling against its reference: both unroll paths
//! (`Unroller::push_frame` and `SeqCircuit::unroll`) replay one frame
//! plan recorded from `Netlist::import`'s DFS. The reference below is the
//! per-frame import they replaced — one `Netlist::import` per root into a
//! fresh hash map per frame — and the replay must build exactly what it
//! builds, frame by frame: every signal's type, operator and name, `find`
//! for every name, the outputs, the bad signals and every frame map
//! entry. Checked on the ITC'99 circuits and on random sequential
//! circuits.

use std::collections::HashMap;

use proptest::prelude::*;

use rtlsat::ir::seq::SeqCircuit;
use rtlsat::ir::{Netlist, SignalId, SignalType};
use rtlsat::itc99::cases::Circuit;

mod common;
use common::random_circuit;

type FrameMap = HashMap<SignalId, SignalId>;

/// Appends frame `maps.len()` to `out` the way the unrollers did before
/// the replay: register states (initial constants in frame 0, the
/// previous frame's next-state copies after), fresh `name@t` free
/// inputs, then one `Netlist::import` per next-state root and per root
/// of `extra`.
fn import_frame(
    ckt: &SeqCircuit,
    out: &mut Netlist,
    maps: &[FrameMap],
    extra: &[SignalId],
) -> FrameMap {
    let t = maps.len();
    let frame = ckt.frame();
    let mut map = HashMap::new();
    for reg in ckt.registers() {
        let mapped = if t == 0 {
            match frame.ty(reg.state) {
                SignalType::Bool => out.const_bool(reg.init == 1),
                SignalType::Word { width } => out.const_word(reg.init, width).unwrap(),
            }
        } else {
            maps[t - 1][&reg.next]
        };
        map.insert(reg.state, mapped);
    }
    for pi in ckt.free_inputs() {
        let base = frame
            .signal(pi)
            .name()
            .map_or_else(|| pi.to_string(), str::to_owned);
        let name = format!("{base}@{t}");
        let fresh = match frame.ty(pi) {
            SignalType::Bool => out.input_bool(&name).unwrap(),
            SignalType::Word { width } => out.input_word(&name, width).unwrap(),
        };
        map.insert(pi, fresh);
    }
    for reg in ckt.registers() {
        out.import(frame, reg.next, &mut map).unwrap();
    }
    for &root in extra {
        out.import(frame, root, &mut map).unwrap();
    }
    map
}

/// `a` and `b` agree on every signal (type, operator, name), on `find`
/// for every name, and on the outputs.
fn assert_same_netlist(a: &Netlist, b: &Netlist, what: &str) {
    assert_eq!(a.name(), b.name(), "{what}: design name");
    assert_eq!(a.len(), b.len(), "{what}: signal count");
    for id in a.signal_ids() {
        assert_eq!(a.signal(id), b.signal(id), "{what}: signal {id}");
        if let Some(name) = a.signal(id).name() {
            assert_eq!(a.find(name), Some(id), "{what}: find({name})");
            assert_eq!(b.find(name), Some(id), "{what}: find({name})");
        }
    }
    assert_eq!(a.outputs(), b.outputs(), "{what}: outputs");
}

/// Every frame signal's copy agrees with the reference map of that frame
/// (`None` for the signals the frame did not import).
fn assert_same_map(
    ckt: &SeqCircuit,
    got: impl Fn(SignalId) -> Option<SignalId>,
    want: &FrameMap,
    what: &str,
) {
    for sig in ckt.frame().signal_ids() {
        assert_eq!(
            got(sig),
            want.get(&sig).copied(),
            "{what}: frame signal {sig}"
        );
    }
}

/// Pushes `frames` frames through an `Unroller` and through the
/// reference, comparing after every frame.
fn check_unroller(ckt: &SeqCircuit, frames: usize) {
    let bads: Vec<SignalId> = ckt.properties().iter().map(|&(_, bad)| bad).collect();
    let mut unroller = ckt.unroller();
    let mut got = unroller.base_netlist();
    let mut want = unroller.base_netlist();
    let mut maps: Vec<FrameMap> = Vec::new();
    for t in 0..frames {
        unroller.push_frame(&mut got).unwrap();
        let map = import_frame(ckt, &mut want, &maps, &bads);
        for (name, bad) in ckt.properties() {
            want.set_output(map[bad], format!("bad_{name}@{t}"))
                .unwrap();
        }
        maps.push(map);
        let what = format!("{} push_frame {t}", ckt.frame().name());
        assert_same_netlist(&got, &want, &what);
        assert_eq!(unroller.frames(), t + 1, "{what}");
        for (k, map) in maps.iter().enumerate() {
            assert_same_map(ckt, |s| unroller.frame_signal(k, s), map, &what);
            for (name, bad) in ckt.properties() {
                assert_eq!(
                    unroller.bad(name, k),
                    Some(map[bad]),
                    "{what}: bad({name}, {k})"
                );
            }
        }
        for (name, _) in ckt.properties() {
            assert_eq!(
                unroller.bad(name, t + 1),
                None,
                "{what}: bad({name}, {})",
                t + 1
            );
        }
        for sig in ckt.frame().signal_ids() {
            assert_eq!(unroller.frame_signal(t + 1, sig), None, "{what}");
        }
        assert_eq!(unroller.bad("no such property", 0), None, "{what}");
    }
}

/// Unrolls every property of `ckt` to each depth `1..=frames` with
/// `SeqCircuit::unroll` and with the reference.
fn check_unroll(ckt: &SeqCircuit, frames: usize) {
    for (property, bad_frame) in ckt.properties() {
        for depth in 1..=frames {
            let got = ckt.unroll(property, depth).unwrap();
            let mut want = Netlist::new(format!("{}_{property}({depth})", ckt.frame().name()));
            let mut maps: Vec<FrameMap> = Vec::new();
            for t in 0..depth {
                let extra: &[SignalId] = if t + 1 == depth { &[*bad_frame] } else { &[] };
                let map = import_frame(ckt, &mut want, &maps, extra);
                maps.push(map);
            }
            let bad = maps[depth - 1][bad_frame];
            want.set_output(bad, format!("bad_{property}")).unwrap();
            let what = format!("{} unroll {property} {depth}", ckt.frame().name());
            assert_same_netlist(&got.netlist, &want, &what);
            assert_eq!(got.bad, bad, "{what}: bad");
            assert_eq!(got.frame_map.frames(), depth, "{what}");
            for (t, map) in maps.iter().enumerate() {
                assert_same_map(ckt, |s| got.frame_map.get(t, s), map, &what);
            }
            assert_eq!(got.frame_map.get(depth, *bad_frame), None, "{what}");
        }
    }
}

#[test]
fn itc99_unrollings_match_the_per_frame_import() {
    for (circuit, frames) in [
        (Circuit::B01, 24),
        (Circuit::B02, 24),
        (Circuit::B04, 20),
        (Circuit::B13, 24),
    ] {
        let ckt = circuit.build();
        check_unroller(&ckt, frames);
        check_unroll(&ckt, frames);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random sequential circuits unroll exactly as the per-frame import
    /// unrolls them, on both paths.
    #[test]
    fn random_unrollings_match_the_per_frame_import(
        ops in proptest::collection::vec((any::<u8>(), any::<usize>(), any::<usize>(), any::<usize>()), 0..30),
        picks in proptest::collection::vec(any::<usize>(), 4..8),
        inits in proptest::collection::vec(0i64..16, 4),
        frames in 1usize..6,
    ) {
        let ckt = random_circuit(&ops, &picks, &inits);
        check_unroller(&ckt, frames);
        check_unroll(&ckt, frames);
    }
}
