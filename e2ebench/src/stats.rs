//! Small numeric and process helpers: quantiles, peak memory, content
//! hashing and the seeded generator that orders workload inputs.

/// The `q`-quantile of `values` (0 ≤ q ≤ 1) by linear interpolation
/// between closest ranks; `0.0` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Lower edge of the first [`Histogram`] bucket, milliseconds (1 µs).
const HIST_LO_MS: f64 = 1e-3;
/// Ratio between the edges of one bucket: 0.2% wide.
const HIST_RATIO: f64 = 1.002;
/// Buckets from 1 µs to about 1000 s.
const HIST_BUCKETS: usize = 10_380;

/// Per-answer times in fixed log-spaced buckets. Its memory does not
/// grow with the number of answers a run holds, so peak memory does not
/// follow throughput; quantiles are within 0.1% of the exact ones.
pub struct Histogram {
    counts: Vec<u64>,
    len: u64,
    sum: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; HIST_BUCKETS],
            len: 0,
            sum: 0.0,
        }
    }
}

impl Histogram {
    pub fn record(&mut self, ms: f64) {
        let b = ((ms / HIST_LO_MS).ln() / HIST_RATIO.ln()).floor();
        let b = if b.is_finite() {
            b.max(0.0) as usize
        } else {
            0
        };
        self.counts[b.min(HIST_BUCKETS - 1)] += 1;
        self.len += 1;
        self.sum += ms;
    }

    /// Values recorded.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Sum of the values recorded.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// The value of rank `r` (0-based): rank `k` of a bucket holding
    /// `n` values sits at `(k + 0.5) / n` of its width, log-spaced.
    fn ranked(&self, r: u64) -> f64 {
        let mut below = 0;
        for (b, &n) in self.counts.iter().enumerate() {
            if r < below + n {
                let within = (r - below) as f64 + 0.5;
                return HIST_LO_MS * HIST_RATIO.powf(b as f64 + within / n as f64);
            }
            below += n;
        }
        0.0
    }

    /// The `q`-quantile, interpolated between closest ranks as
    /// [`quantile`] does; `0.0` when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        let pos = q.clamp(0.0, 1.0) * (self.len - 1) as f64;
        let (lo, hi) = (pos.floor() as u64, pos.ceil() as u64);
        let (a, b) = (self.ranked(lo), self.ranked(hi));
        a + (b - a) * (pos - lo as f64)
    }
}

/// Peak resident set size of this process in MiB (`VmHWM` from
/// `/proc/self/status`), or `None` where that file is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// 64-bit FNV-1a, used to pin the content of input files.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// SplitMix64: a tiny deterministic generator for seeded orderings.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert!((quantile(&v, 0.9) - 4.6).abs() < 1e-12);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn histogram_quantiles_are_within_a_bucket() {
        let values: Vec<f64> = (1..=2000).map(|i| 0.05 * i as f64).collect();
        let mut h = Histogram::default();
        for &v in &values {
            h.record(v);
        }
        assert_eq!(h.len(), 2000);
        for q in [0.0, 0.1, 0.5, 0.9, 1.0] {
            let exact = quantile(&values, q);
            let approx = h.quantile(q);
            assert!(
                (approx / exact - 1.0).abs() < 0.002,
                "q={q}: {approx} against {exact}"
            );
        }
        assert_eq!(Histogram::default().quantile(0.5), 0.0);
    }

    #[test]
    fn shuffle_is_seeded_permutation() {
        let mut a: Vec<u32> = (0..17).collect();
        let mut b = a.clone();
        SplitMix::new(7).shuffle(&mut a);
        SplitMix::new(7).shuffle(&mut b);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..17).collect::<Vec<_>>());
    }
}
