//! Sequential circuits and bounded-model-checking (BMC) unrolling.
//!
//! A [`SeqCircuit`] wraps one *frame* of combinational logic: registers'
//! current-state values appear in the frame netlist as `Input` signals, and
//! each register names the frame signal computing its next-state value.
//! Safety properties are Boolean *bad* signals (`1` = property violated).
//!
//! [`SeqCircuit::unroll`] produces the time-frame-expanded combinational
//! satisfiability problem of the paper's evaluation: `b01_1(10)` is property
//! 1 of circuit `b01` expanded for 10 time-frames, satisfiable iff the bad
//! signal can be `1` **in the final frame** starting from the initial state.
//! (Checking the final frame, rather than any frame, is what makes
//! `b01_1(10)` SAT while `b01_1(20)` is UNSAT in Table 1: the violation is
//! only reachable at particular depths.)

use std::collections::HashMap;

use crate::eval::{self, Values};
use crate::netlist::Netlist;
use crate::op::Op;
use crate::types::{NetlistError, SignalId, SignalType};

/// One register of a sequential circuit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Register {
    /// The frame-netlist `Input` signal holding the current state.
    pub state: SignalId,
    /// The frame-netlist signal computing the next state.
    pub next: SignalId,
    /// The initial (reset) value.
    pub init: i64,
}

/// A sequential circuit: frame logic, registers, and named safety
/// properties.
///
/// # Example
///
/// ```
/// use rtl_ir::seq::SeqCircuit;
/// use rtl_ir::{CmpOp, Netlist};
///
/// # fn main() -> Result<(), rtl_ir::NetlistError> {
/// // A 4-bit counter; property: counter never reaches 3.
/// let mut f = Netlist::new("counter");
/// let c = f.input_word("c", 4)?;
/// let one = f.const_word(1, 4)?;
/// let next = f.add(c, one)?;
/// let bad = f.eq_const(c, 3)?;
/// let mut ckt = SeqCircuit::new(f);
/// ckt.add_register(c, next, 0)?;
/// ckt.add_property("p1", bad)?;
/// // After 4 frames (3 steps) the counter is 3: the property is violated.
/// let bmc = ckt.unroll("p1", 4)?;
/// assert!(bmc.netlist.len() > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct SeqCircuit {
    frame: Netlist,
    registers: Vec<Register>,
    properties: Vec<(String, SignalId)>,
}

/// The result of unrolling: a combinational netlist, the bad signal to
/// assert, and the per-frame signal maps (frame signal → unrolled signal).
#[derive(Clone, Debug)]
pub struct BmcProblem {
    /// The unrolled combinational netlist.
    pub netlist: Netlist,
    /// Boolean signal that is `1` iff the property is violated in the final
    /// frame; the BMC instance is the satisfiability of `bad = 1`.
    pub bad: SignalId,
    /// For each frame `t`, the copies of frame-netlist signals in the
    /// unrolled netlist (useful for trace reconstruction).
    pub frame_map: FrameMaps,
}

/// Dense per-frame signal maps: frame `t`'s copy of each frame-netlist
/// signal, one array slot per frame signal.
#[derive(Clone, Debug)]
pub struct FrameMaps {
    /// Frame-netlist signals per frame.
    width: usize,
    frames: usize,
    /// `ids[t · width + s]`: frame `t`'s copy of frame signal `s`, or
    /// [`UNMAPPED`] when frame `t` did not import it.
    ids: Vec<SignalId>,
}

/// A frame signal that a frame did not import.
const UNMAPPED: SignalId = SignalId(u32::MAX);

impl FrameMaps {
    fn new(width: usize) -> Self {
        FrameMaps {
            width,
            frames: 0,
            ids: Vec::new(),
        }
    }

    /// Number of frames mapped.
    #[must_use]
    pub fn frames(&self) -> usize {
        self.frames
    }

    /// The unrolled copy of frame-netlist signal `sig` in frame `frame`,
    /// if that frame imported it.
    #[must_use]
    pub fn get(&self, frame: usize, sig: SignalId) -> Option<SignalId> {
        if frame >= self.frames || sig.index() >= self.width {
            return None;
        }
        Some(self.ids[frame * self.width + sig.index()]).filter(|&id| id != UNMAPPED)
    }

    /// Appends an unmapped frame: returns the previous frame's map
    /// (empty for frame 0) and the new one.
    fn push(&mut self) -> (&[SignalId], &mut [SignalId]) {
        let start = self.frames * self.width;
        self.ids.resize(start + self.width, UNMAPPED);
        self.frames += 1;
        let (done, cur) = self.ids.split_at_mut(start);
        (&done[start - start.min(self.width)..], cur)
    }

    /// Drops the frames from `frames` on.
    fn truncate(&mut self, frames: usize) {
        self.frames = self.frames.min(frames);
        self.ids.truncate(self.frames * self.width);
    }
}

/// How to build one frame, recorded once per circuit: the free inputs
/// with their base names, then the frame signals to copy, in the order
/// [`Netlist::import`]'s DFS pushes them. Every frame pre-maps the same
/// signals (all frame inputs: register states and free inputs), so that
/// DFS visits the same signals in the same order in every frame, and
/// replaying the recorded order through a dense map builds the frame
/// the DFS would, without hashing.
#[derive(Clone, Debug)]
struct FramePlan {
    free: Vec<(SignalId, String)>,
    /// The signals the registers' next-state cones add, then those the
    /// extra roots' cones add.
    order: Vec<SignalId>,
    /// `order[..next_end]` is the next-state part.
    next_end: usize,
}

impl FramePlan {
    /// Records the plan of a frame that imports every register's
    /// next-state cone, then the cones of `extra` in order, by
    /// importing one frame into a scratch netlist whose inputs stand
    /// for the frame's inputs.
    fn record(circuit: &SeqCircuit, extra: &[SignalId]) -> Result<FramePlan, NetlistError> {
        let frame = &circuit.frame;
        let free = circuit
            .free_inputs()
            .into_iter()
            .map(|pi| {
                let base = frame.signal(pi).name().map_or_else(|| pi.to_string(), str::to_owned);
                (pi, base)
            })
            .collect();
        let mut scratch = Netlist::new(frame.name());
        let mut map = HashMap::new();
        for id in eval::input_ids(frame) {
            map.insert(id, scratch.push(frame.ty(id), Op::Input));
        }
        let inputs = scratch.len();
        for reg in &circuit.registers {
            scratch.import(frame, reg.next, &mut map)?;
        }
        let next_end = scratch.len() - inputs;
        for &root in extra {
            scratch.import(frame, root, &mut map)?;
        }
        // Scratch signal `inputs + k` is the copy of the k-th frame
        // signal pushed.
        let mut order = vec![UNMAPPED; scratch.len() - inputs];
        for (&src, &dst) in &map {
            if let Some(k) = dst.index().checked_sub(inputs) {
                order[k] = src;
            }
        }
        Ok(FramePlan {
            free,
            order,
            next_end,
        })
    }

    /// Appends frame `t` to `out`, filling `map` (frame signal → copy):
    /// register states (initial constants at `t = 0`, the previous
    /// frame's next-state copies in `prev` afterwards), fresh `name@t`
    /// free inputs, then a copy of each planned signal with its operands
    /// mapped (the extra roots' cones only if `extra`).
    fn build(
        &self,
        circuit: &SeqCircuit,
        out: &mut Netlist,
        t: usize,
        extra: bool,
        prev: &[SignalId],
        map: &mut [SignalId],
    ) -> Result<(), NetlistError> {
        let frame = &circuit.frame;
        for reg in &circuit.registers {
            map[reg.state.index()] = if t == 0 {
                match frame.ty(reg.state) {
                    SignalType::Bool => out.const_bool(reg.init == 1),
                    SignalType::Word { width } => out.const_word(reg.init, width)?,
                }
            } else {
                prev[reg.next.index()]
            };
        }
        for (pi, base) in &self.free {
            let name = format!("{base}@{t}");
            map[pi.index()] = match frame.ty(*pi) {
                SignalType::Bool => out.input_bool(&name)?,
                SignalType::Word { width } => out.input_word(&name, width)?,
            };
        }
        let order = if extra { &self.order[..] } else { &self.order[..self.next_end] };
        for &sig in order {
            let s = frame.signal(sig);
            let op = s.op().remap(|o| map[o.index()]);
            map[sig.index()] = out.push(s.ty(), op);
        }
        Ok(())
    }
}

impl SeqCircuit {
    /// Wraps one frame of combinational logic.
    #[must_use]
    pub fn new(frame: Netlist) -> Self {
        Self {
            frame,
            registers: Vec::new(),
            properties: Vec::new(),
        }
    }

    /// The frame netlist.
    #[must_use]
    pub fn frame(&self) -> &Netlist {
        &self.frame
    }

    /// The registers declared so far.
    #[must_use]
    pub fn registers(&self) -> &[Register] {
        &self.registers
    }

    /// The properties declared so far.
    #[must_use]
    pub fn properties(&self) -> &[(String, SignalId)] {
        &self.properties
    }

    /// Declares a register.
    ///
    /// # Errors
    ///
    /// Fails if `state` is not an `Input` of the frame, the types of `state`
    /// and `next` differ, or `init` is out of range.
    pub fn add_register(
        &mut self,
        state: SignalId,
        next: SignalId,
        init: i64,
    ) -> Result<(), NetlistError> {
        self.frame.check(state)?;
        self.frame.check(next)?;
        if !matches!(self.frame.op(state), Op::Input) {
            return Err(NetlistError::BadInput {
                context: format!("register state {state} must be a frame input"),
            });
        }
        if self.frame.ty(state) != self.frame.ty(next) {
            return Err(NetlistError::TypeMismatch {
                context: format!(
                    "register: state {} vs next {} type mismatch",
                    self.frame.ty(state),
                    self.frame.ty(next)
                ),
            });
        }
        if self.registers.iter().any(|r| r.state == state) {
            return Err(NetlistError::BadInput {
                context: format!("register state {state} declared twice"),
            });
        }
        let ty = self.frame.ty(state);
        if init < 0 || init > ty.max_value() {
            return Err(NetlistError::ConstantOutOfRange { value: init, ty });
        }
        self.registers.push(Register { state, next, init });
        Ok(())
    }

    /// Declares a named safety property with the given *bad* (violation)
    /// signal.
    ///
    /// # Errors
    ///
    /// Fails if the signal is not Boolean or the name is already used.
    pub fn add_property(&mut self, name: &str, bad: SignalId) -> Result<(), NetlistError> {
        self.frame.check(bad)?;
        if !self.frame.ty(bad).is_bool() {
            return Err(NetlistError::TypeMismatch {
                context: format!("property `{name}`: bad signal must be bool"),
            });
        }
        if self.properties.iter().any(|(n, _)| n == name) {
            return Err(NetlistError::BadName {
                name: name.into(),
                context: "duplicate property name".into(),
            });
        }
        self.properties.push((name.into(), bad));
        Ok(())
    }

    /// Looks up a property's bad signal by name.
    #[must_use]
    pub fn property(&self, name: &str) -> Option<SignalId> {
        self.properties
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, s)| s)
    }

    /// The frame inputs that are *free* (primary inputs, not register
    /// state).
    #[must_use]
    pub fn free_inputs(&self) -> Vec<SignalId> {
        eval::input_ids(&self.frame)
            .into_iter()
            .filter(|id| !self.registers.iter().any(|r| r.state == *id))
            .collect()
    }

    /// Expands the circuit for `frames` time-frames and asserts property
    /// `property` in the final frame.
    ///
    /// Frame 0's register states are the initial values; frame `t`'s states
    /// are frame `t−1`'s next-state values. Free inputs become fresh primary
    /// inputs named `name@t`.
    ///
    /// # Errors
    ///
    /// Fails if the property name is unknown or `frames == 0`.
    pub fn unroll(&self, property: &str, frames: usize) -> Result<BmcProblem, NetlistError> {
        let bad_frame = self.property(property).ok_or_else(|| NetlistError::BadName {
            name: property.into(),
            context: "no such property".into(),
        })?;
        if frames == 0 {
            return Err(NetlistError::BadInput {
                context: "unroll: frames must be ≥ 1".into(),
            });
        }
        // Every frame imports the next-state logic (needed by the
        // following frame); the final frame also imports the property
        // cone.
        let plan = FramePlan::record(self, &[bad_frame])?;
        let mut out = Netlist::new(format!("{}_{property}({frames})", self.frame.name()));
        let mut frame_map = FrameMaps::new(self.frame.len());
        for t in 0..frames {
            let (prev, map) = frame_map.push();
            plan.build(self, &mut out, t, t + 1 == frames, prev, map)?;
        }
        let bad = frame_map
            .get(frames - 1, bad_frame)
            .expect("the final frame imports the property cone");
        out.set_output(bad, format!("bad_{property}"))?;
        Ok(BmcProblem {
            netlist: out,
            bad,
            frame_map,
        })
    }

    /// Starts an incremental unrolling of this circuit; see [`Unroller`].
    #[must_use]
    pub fn unroller(&self) -> Unroller {
        let bads: Vec<SignalId> = self.properties.iter().map(|&(_, bad)| bad).collect();
        Unroller {
            plan: FramePlan::record(self, &bads)
                .expect("registers and properties name frame signals, and every input is mapped"),
            circuit: self.clone(),
            frame_map: FrameMaps::new(self.frame.len()),
            bads: Vec::new(),
        }
    }

    /// Simulates the circuit for `per_frame_inputs.len()` frames from the
    /// initial state, returning the frame-netlist values of each frame.
    ///
    /// Each element of `per_frame_inputs` maps *free* inputs to values;
    /// register states are supplied by the simulator.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors (missing/out-of-range inputs).
    pub fn simulate(
        &self,
        per_frame_inputs: &[HashMap<SignalId, i64>],
    ) -> Result<Vec<Values>, NetlistError> {
        let mut state: HashMap<SignalId, i64> =
            self.registers.iter().map(|r| (r.state, r.init)).collect();
        let mut trace = Vec::with_capacity(per_frame_inputs.len());
        for frame_inputs in per_frame_inputs {
            let mut inputs = state.clone();
            for (&k, &v) in frame_inputs {
                inputs.insert(k, v);
            }
            let vals = eval::eval(&self.frame, &inputs)?;
            state = self
                .registers
                .iter()
                .map(|r| (r.state, vals[r.next]))
                .collect();
            trace.push(vals);
        }
        Ok(trace)
    }
}

/// Incremental time-frame expansion: frames are appended one at a time
/// to a caller-owned netlist, so an incremental solver session can grow
/// its problem in place instead of recompiling a monolithic
/// [`SeqCircuit::unroll`] per depth.
///
/// Unlike `unroll`, *every* property's violation cone is imported in
/// *every* frame: the bad signal of property `p` at depth `t`
/// ([`Unroller::bad`]) is an ordinary Boolean signal, so "is `p`
/// violated at depth `t`?" becomes an assumption query against the one
/// growing netlist — no re-unroll per property or per depth. The extra
/// cones are output-observed but unasserted, so they never change the
/// satisfiability of any individual query.
///
/// ```
/// use rtl_ir::seq::SeqCircuit;
/// use rtl_ir::{eval, Netlist};
/// use std::collections::HashMap;
///
/// # fn main() -> Result<(), rtl_ir::NetlistError> {
/// let mut f = Netlist::new("counter");
/// let c = f.input_word("c", 4)?;
/// let one = f.const_word(1, 4)?;
/// let next = f.add(c, one)?;
/// let bad = f.eq_const(c, 3)?;
/// let mut ckt = SeqCircuit::new(f);
/// ckt.add_register(c, next, 0)?;
/// ckt.add_property("p1", bad)?;
///
/// let mut unroller = ckt.unroller();
/// let mut n = unroller.base_netlist();
/// for _ in 0..4 {
///     unroller.push_frame(&mut n)?;
/// }
/// // The counter reaches 3 in frame 3 (0-based) and nowhere earlier.
/// let vals = eval::eval(&n, &HashMap::new())?;
/// assert_eq!(vals[unroller.bad("p1", 3).unwrap()], 1);
/// assert_eq!(vals[unroller.bad("p1", 2).unwrap()], 0);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct Unroller {
    circuit: SeqCircuit,
    /// Every frame imports the next-state cones, then each property's
    /// violation cone.
    plan: FramePlan,
    frame_map: FrameMaps,
    /// `bads[t · P + p]` — property `p`'s violation signal in frame `t`.
    bads: Vec<SignalId>,
}

impl Unroller {
    /// A fresh netlist to unroll into (named after the frame netlist).
    /// Any netlist works as the unroll target as long as *all* frames go
    /// into the same one; this is the conventional starting point.
    #[must_use]
    pub fn base_netlist(&self) -> Netlist {
        Netlist::new(format!("{}_inc", self.circuit.frame.name()))
    }

    /// Number of frames pushed so far.
    #[must_use]
    pub fn frames(&self) -> usize {
        self.frame_map.frames()
    }

    /// Appends the next time-frame to `out`: register states (initial
    /// constants in frame 0, the previous frame's next-state signals
    /// afterwards), fresh `name@t` primary inputs, the next-state
    /// logic, and every property's violation cone.
    ///
    /// Strictly additive — existing signals of `out` are never
    /// modified, which is what makes the growth compatible with an
    /// incremental solver session's `extend`.
    ///
    /// # Errors
    ///
    /// Propagates netlist construction errors (e.g. name clashes with
    /// signals the caller added to `out`).
    pub fn push_frame(&mut self, out: &mut Netlist) -> Result<(), NetlistError> {
        let t = self.frame_map.frames();
        let (prev, map) = self.frame_map.push();
        let built = self
            .plan
            .build(&self.circuit, out, t, true, prev, map)
            .and_then(|()| {
                for (name, bad_frame) in &self.circuit.properties {
                    let bad = map[bad_frame.index()];
                    out.set_output(bad, format!("bad_{name}@{t}"))?;
                    self.bads.push(bad);
                }
                Ok(())
            });
        if built.is_err() {
            self.frame_map.truncate(t);
            self.bads.truncate(t * self.circuit.properties.len());
        }
        built
    }

    /// Property `property`'s violation signal at depth `frame`
    /// (0-based), or `None` if the property is unknown or the frame has
    /// not been pushed yet. Asserting it `true` is the BMC query "can
    /// `property` be violated exactly `frame` steps after reset?".
    #[must_use]
    pub fn bad(&self, property: &str, frame: usize) -> Option<SignalId> {
        let properties = &self.circuit.properties;
        let p = properties.iter().position(|(n, _)| n == property)?;
        if frame >= self.frames() {
            return None;
        }
        Some(self.bads[frame * properties.len() + p])
    }

    /// The unrolled copy of frame-netlist signal `sig` in frame `frame`
    /// (for trace reconstruction), if both exist.
    #[must_use]
    pub fn frame_signal(&self, frame: usize, sig: SignalId) -> Option<SignalId> {
        self.frame_map.get(frame, sig)
    }
}

#[cfg(test)]
mod unit {
    use super::*;

    /// 3-bit counter that wraps; bad = (c == 5).
    fn counter() -> (SeqCircuit, SignalId, SignalId) {
        let mut f = Netlist::new("cnt");
        let c = f.input_word("c", 3).unwrap();
        let one = f.const_word(1, 3).unwrap();
        let next = f.add(c, one).unwrap();
        let bad = f.eq_const(c, 5).unwrap();
        let mut ckt = SeqCircuit::new(f);
        ckt.add_register(c, next, 0).unwrap();
        ckt.add_property("p", bad).unwrap();
        (ckt, c, bad)
    }

    #[test]
    fn simulate_counts() {
        let (ckt, c, bad) = counter();
        let steps = vec![HashMap::new(); 7];
        let trace = ckt.simulate(&steps).unwrap();
        let values: Vec<i64> = trace.iter().map(|v| v[c]).collect();
        assert_eq!(values, vec![0, 1, 2, 3, 4, 5, 6]);
        assert_eq!(trace[5][bad], 1);
        assert_eq!(trace[4][bad], 0);
    }

    #[test]
    fn unroll_shape_and_eval() {
        let (ckt, _, _) = counter();
        // 6 frames: final frame has c = 5, bad = 1 (no free inputs at all).
        let bmc = ckt.unroll("p", 6).unwrap();
        let vals = eval::eval(&bmc.netlist, &HashMap::new()).unwrap();
        assert_eq!(vals[bmc.bad], 1);
        // 5 frames: c = 4 in the final frame, bad = 0.
        let bmc = ckt.unroll("p", 5).unwrap();
        let vals = eval::eval(&bmc.netlist, &HashMap::new()).unwrap();
        assert_eq!(vals[bmc.bad], 0);
    }

    #[test]
    fn unroll_free_inputs_are_per_frame() {
        let mut f = Netlist::new("acc");
        let s = f.input_word("s", 8).unwrap();
        let x = f.input_word("x", 8).unwrap();
        let next = f.add(s, x).unwrap();
        let bad = f.eq_const(s, 9).unwrap();
        let mut ckt = SeqCircuit::new(f);
        ckt.add_register(s, next, 0).unwrap();
        ckt.add_property("p", bad).unwrap();
        let bmc = ckt.unroll("p", 3).unwrap();
        // inputs x@0, x@1, x@2 exist
        for t in 0..3 {
            assert!(bmc.netlist.find(&format!("x@{t}")).is_some(), "x@{t}");
        }
        // choose x@0 = 4, x@1 = 5 so that s@2 = 9 → bad
        let i0 = bmc.netlist.find("x@0").unwrap();
        let i1 = bmc.netlist.find("x@1").unwrap();
        let i2 = bmc.netlist.find("x@2").unwrap();
        let inputs: HashMap<SignalId, i64> = [(i0, 4), (i1, 5), (i2, 0)].into();
        let vals = eval::eval(&bmc.netlist, &inputs).unwrap();
        assert_eq!(vals[bmc.bad], 1);
    }

    #[test]
    fn register_validation() {
        let mut f = Netlist::new("t");
        let a = f.input_word("a", 4).unwrap();
        let b = f.input_bool("b").unwrap();
        let n1 = f.add(a, a).unwrap();
        let mut ckt = SeqCircuit::new(f);
        // state must be an input
        assert!(ckt.add_register(n1, n1, 0).is_err());
        // type mismatch
        assert!(ckt.add_register(b, n1, 0).is_err());
        // init out of range
        assert!(ckt.add_register(a, n1, 99).is_err());
        assert!(ckt.add_register(a, n1, 3).is_ok());
        // duplicate
        assert!(ckt.add_register(a, n1, 3).is_err());
    }

    #[test]
    fn unroller_matches_monolithic_unroll() {
        let (ckt, _, _) = counter();
        let mut unroller = ckt.unroller();
        let mut n = unroller.base_netlist();
        for depth in 1..=8usize {
            unroller.push_frame(&mut n).unwrap();
            assert_eq!(unroller.frames(), depth);
            let bad_inc = unroller.bad("p", depth - 1).unwrap();
            let inc = eval::eval(&n, &HashMap::new()).unwrap()[bad_inc];
            let mono = ckt.unroll("p", depth).unwrap();
            let full = eval::eval(&mono.netlist, &HashMap::new()).unwrap()[mono.bad];
            assert_eq!(inc, full, "depth {depth}");
        }
        // The 3-bit counter hits 5 exactly in frame 5.
        let vals = eval::eval(&n, &HashMap::new()).unwrap();
        for t in 0..8 {
            let expect = i64::from(t == 5);
            assert_eq!(vals[unroller.bad("p", t).unwrap()], expect, "frame {t}");
        }
    }

    #[test]
    fn unroller_free_inputs_and_lookup() {
        let mut f = Netlist::new("acc");
        let s = f.input_word("s", 8).unwrap();
        let x = f.input_word("x", 8).unwrap();
        let next = f.add(s, x).unwrap();
        let bad = f.eq_const(s, 9).unwrap();
        let mut ckt = SeqCircuit::new(f);
        ckt.add_register(s, next, 0).unwrap();
        ckt.add_property("p", bad).unwrap();
        let mut unroller = ckt.unroller();
        let mut n = unroller.base_netlist();
        for _ in 0..3 {
            unroller.push_frame(&mut n).unwrap();
        }
        let i0 = n.find("x@0").unwrap();
        let i1 = n.find("x@1").unwrap();
        let i2 = n.find("x@2").unwrap();
        let inputs: HashMap<SignalId, i64> = [(i0, 4), (i1, 5), (i2, 0)].into();
        let vals = eval::eval(&n, &inputs).unwrap();
        assert_eq!(vals[unroller.bad("p", 2).unwrap()], 1);
        assert_eq!(vals[unroller.bad("p", 1).unwrap()], 0);
        // Trace reconstruction: the state register s in frame 2 is 9.
        let s2 = unroller.frame_signal(2, s).unwrap();
        assert_eq!(vals[s2], 9);
        // Unknown property / unpushed frame.
        assert!(unroller.bad("nope", 0).is_none());
        assert!(unroller.bad("p", 3).is_none());
    }

    #[test]
    fn property_validation() {
        let (mut ckt, c, _) = counter();
        // property must be boolean
        assert!(ckt.add_property("bad_ty", c).is_err());
        // duplicate name
        let bad = ckt.property("p").unwrap();
        assert!(ckt.add_property("p", bad).is_err());
        // unknown property unrolls fail
        assert!(ckt.unroll("nope", 3).is_err());
        assert!(ckt.unroll("p", 0).is_err());
    }
}
