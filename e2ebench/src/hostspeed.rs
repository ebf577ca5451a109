//! Host speed, measured by a fixed reference loop timed between answers.
//!
//! On a shared host, other tenants' load on the same physical core slows
//! this process's code by up to about 1.9×, in episodes that last from
//! seconds to tens of minutes. Longer runs average the short episodes
//! out, but not the long ones: two sets of runs made twenty minutes
//! apart can differ by the whole factor. So the end-to-end run times a
//! fixed piece of the benchmark's own work every [`INTERVAL`] between
//! answers, and around each set-up: it fills an open-addressing hash
//! table and sorts an array, work that the load slows along with the
//! solver, if somewhat less (the README gives the figures). Each time
//! the benchmark reports is a wall time scaled by [`NOMINAL`] over the
//! median of the last [`WINDOW`] samples, a time in *reference* units.
//! The loop belongs to the benchmark, not to the program, so a program
//! that gets faster or slower moves the scaled figures one for one; only
//! the host's speed is divided out.
//!
//! Between answers, sampling runs only while the harness has the gauge
//! installed and armed; it never runs inside an answer, and its time is
//! kept out of every timed figure. Without a gauge (the traced run) the
//! scale is 1.

use std::hint::black_box;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Reference time of one sample. Scaled figures read as wall figures
/// on a host where a sample takes this long, about a quiet one.
const NOMINAL: Duration = Duration::from_micros(500);
/// Least wall time between two samples in the timed phase.
const INTERVAL: Duration = Duration::from_millis(50);
/// Samples the running estimate takes its median over; an odd count,
/// so one sample slowed by an interrupt moves nothing.
const WINDOW: usize = 5;
/// Keys inserted per sample (15000 distinct) and the table's slots.
const KEYS: usize = 20_000;
const SLOTS: usize = 1 << 15;
/// Elements sorted per sample.
const SORTED: usize = 1 << 14;

struct Gauge {
    keys: Vec<u64>,
    table: Vec<u64>,
    unsorted: Vec<u32>,
    sorted: Vec<u32>,
    /// The last `WINDOW` sample times, as a ring.
    recent: [Duration; WINDOW],
    next: usize,
    last: Instant,
    armed: bool,
    /// Time spent sampling since [`take_spent`] last ran.
    spent: Duration,
}

static GAUGE: Mutex<Option<Gauge>> = Mutex::new(None);

fn gauge() -> MutexGuard<'static, Option<Gauge>> {
    GAUGE
        .lock()
        .expect("no thread panics while it holds the host-speed gauge")
}

impl Gauge {
    fn new() -> Self {
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let keys = (0..KEYS).map(|_| next() % 15_000 + 1).collect();
        let unsorted = (0..SORTED).map(|_| next() as u32).collect();
        let now = Instant::now();
        Gauge {
            keys,
            table: vec![0; SLOTS],
            unsorted,
            sorted: Vec::with_capacity(SORTED),
            recent: [NOMINAL; WINDOW],
            next: 0,
            last: now,
            armed: false,
            spent: Duration::ZERO,
        }
    }

    /// Runs the reference loop once and records its time.
    fn sample(&mut self) {
        let t0 = Instant::now();
        self.table.fill(0);
        let mask = SLOTS - 1;
        let mut repeats = 0u64;
        for &k in &self.keys {
            let mut slot = (k.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 20) as usize & mask;
            loop {
                match self.table[slot] {
                    0 => {
                        self.table[slot] = k;
                        break;
                    }
                    t if t == k => {
                        repeats += 1;
                        break;
                    }
                    _ => slot = (slot + 1) & mask,
                }
            }
        }
        self.sorted.clear();
        self.sorted.extend_from_slice(&self.unsorted);
        self.sorted.sort_unstable();
        black_box((repeats, self.sorted[SORTED / 2]));
        let end = Instant::now();
        self.recent[self.next] = end - t0;
        self.next = (self.next + 1) % WINDOW;
        self.spent += end - t0;
        self.last = end;
    }

    fn scale(&self) -> f64 {
        let mut r = self.recent;
        r.sort_unstable();
        NOMINAL.as_secs_f64() / r[WINDOW / 2].as_secs_f64()
    }
}

/// Installs a fresh gauge, disarmed, and fills its window.
pub fn install() {
    let mut g = Gauge::new();
    for _ in 0..WINDOW {
        g.sample();
    }
    g.spent = Duration::ZERO;
    *gauge() = Some(g);
}

/// Arms or disarms [`tick`].
pub fn arm(on: bool) {
    if let Some(g) = gauge().as_mut() {
        g.armed = on;
    }
}

/// Samples if the gauge is armed and [`INTERVAL`] has passed since the
/// last sample. Call only between answers.
pub fn tick() {
    if let Some(g) = gauge().as_mut() {
        if g.armed && g.last.elapsed() >= INTERVAL {
            g.sample();
        }
    }
}

/// Samples now, armed or not (around set-ups).
pub fn sample() {
    if let Some(g) = gauge().as_mut() {
        g.sample();
    }
}

/// Reference time per unit of wall time at the moment: `NOMINAL` over
/// the median of the last `WINDOW` samples; 1 without a gauge.
pub fn scale() -> f64 {
    gauge().as_ref().map_or(1.0, Gauge::scale)
}

/// Time spent sampling since the last call.
pub fn take_spent() -> Duration {
    gauge()
        .as_mut()
        .map_or(Duration::ZERO, |g| std::mem::take(&mut g.spent))
}
