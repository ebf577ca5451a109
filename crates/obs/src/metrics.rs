//! The metrics registry: monotonic counters, peak gauges, and
//! fixed-bucket histograms.
//!
//! Counters and peaks are *projected* from `EngineStats` at the end of
//! each solve (accumulated / max-merged across supervisor ladder
//! stages, so both remain monotonic over a run); only histograms are
//! fed live from the search hot path. Snapshots are deterministic:
//! names are kept in first-registration order and values carry no
//! wall-clock component.

/// The histogram families of the registry, all hot-path fed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum HistKind {
    /// Levels unwound per backtrack (`from − to`).
    BacktrackDepth = 0,
    /// Literal count of each learned lemma.
    LemmaWidth = 1,
    /// Width shrink per interval narrowing (old span − new span; 1 for
    /// a Boolean fix).
    NarrowMagnitude = 2,
    /// Constraint worklist depth, sampled every batch period.
    CqueueDepth = 3,
    /// Clause worklist depth, sampled every batch period.
    ClqueueDepth = 4,
    /// LBD (glue) of each conflict-learned lemma.
    ClauseGlue = 5,
    /// Live learned-clause DB size at each reduction (post-deletion).
    DbSize = 6,
    /// Trail entries whose antecedents one conflict analysis walked
    /// (resolution steps plus `bool_only` word expansions).
    AnalysisSteps = 7,
    /// Trail length when a conflict analysis starts.
    AnalysisTrail = 8,
}

impl HistKind {
    /// Every kind, index-aligned with the registry's storage.
    pub const ALL: [HistKind; 9] = [
        HistKind::BacktrackDepth,
        HistKind::LemmaWidth,
        HistKind::NarrowMagnitude,
        HistKind::CqueueDepth,
        HistKind::ClqueueDepth,
        HistKind::ClauseGlue,
        HistKind::DbSize,
        HistKind::AnalysisSteps,
        HistKind::AnalysisTrail,
    ];

    /// Stable snake_case name used in `--stats-json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            HistKind::BacktrackDepth => "backtrack_depth",
            HistKind::LemmaWidth => "lemma_width",
            HistKind::NarrowMagnitude => "narrow_magnitude",
            HistKind::CqueueDepth => "cqueue_depth",
            HistKind::ClqueueDepth => "clqueue_depth",
            HistKind::ClauseGlue => "clause_glue",
            HistKind::DbSize => "db_size",
            HistKind::AnalysisSteps => "analysis_steps",
            HistKind::AnalysisTrail => "analysis_trail",
        }
    }
}

/// Power-of-two bucket upper bounds: a sample lands in the first bucket
/// whose bound is ≥ the value; values past the last bound go to the
/// overflow bucket.
pub const HIST_BOUNDS: [u64; 12] = [0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024];

/// One fixed-bucket histogram.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Hist {
    /// `counts[i]` counts samples with value ≤ `HIST_BOUNDS[i]` (and
    /// > the previous bound); the final slot is the overflow bucket.
    pub counts: [u64; HIST_BOUNDS.len() + 1],
    /// Total number of samples.
    pub total: u64,
}

impl Hist {
    /// Records one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        let slot = HIST_BOUNDS
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(HIST_BOUNDS.len());
        self.counts[slot] += 1;
        self.total += 1;
    }
}

/// The registry: named counters and peaks plus the fixed histogram set.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    counters: Vec<(&'static str, u64)>,
    peaks: Vec<(&'static str, u64)>,
    hists: [Hist; HistKind::ALL.len()],
}

impl Metrics {
    /// Adds `v` to the named counter, registering it on first use.
    pub fn record_counter(&mut self, name: &'static str, v: u64) {
        if let Some(entry) = self.counters.iter_mut().find(|(n, _)| *n == name) {
            entry.1 += v;
        } else {
            self.counters.push((name, v));
        }
    }

    /// Max-merges `v` into the named peak gauge.
    pub fn record_peak(&mut self, name: &'static str, v: u64) {
        if let Some(entry) = self.peaks.iter_mut().find(|(n, _)| *n == name) {
            entry.1 = entry.1.max(v);
        } else {
            self.peaks.push((name, v));
        }
    }

    /// Records one histogram sample.
    #[inline]
    pub fn record_hist(&mut self, kind: HistKind, value: u64) {
        self.hists[kind as usize].record(value);
    }

    /// A deterministic point-in-time copy of every metric.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.clone(),
            peaks: self.peaks.clone(),
            hists: self.hists.clone(),
        }
    }
}

/// An immutable registry snapshot; `PartialEq` so determinism tests can
/// compare two runs wholesale.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// `(name, value)` counters in first-registration order.
    pub counters: Vec<(&'static str, u64)>,
    /// `(name, value)` peak gauges in first-registration order.
    pub peaks: Vec<(&'static str, u64)>,
    /// Histograms, index-aligned with [`HistKind::ALL`].
    pub hists: [Hist; HistKind::ALL.len()],
}

impl MetricsSnapshot {
    /// Looks up a counter by name.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// Looks up a peak gauge by name.
    #[must_use]
    pub fn peak(&self, name: &str) -> Option<u64> {
        self.peaks.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// The histogram for `kind`.
    #[must_use]
    pub fn hist(&self, kind: HistKind) -> &Hist {
        &self.hists[kind as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_peaks_max() {
        let mut m = Metrics::default();
        m.record_counter("decisions", 10);
        m.record_counter("decisions", 5);
        m.record_counter("conflicts", 1);
        m.record_peak("max_cqueue", 4);
        m.record_peak("max_cqueue", 2);
        let s = m.snapshot();
        assert_eq!(s.counter("decisions"), Some(15));
        assert_eq!(s.counter("conflicts"), Some(1));
        assert_eq!(s.peak("max_cqueue"), Some(4));
        assert_eq!(s.counter("missing"), None);
    }

    #[test]
    fn hist_bucketing() {
        let mut h = Hist::default();
        h.record(0); // bucket 0 (≤0)
        h.record(1); // bucket 1 (≤1)
        h.record(3); // bucket 3 (≤4)
        h.record(4); // bucket 3 (≤4)
        h.record(1024); // last real bucket
        h.record(5000); // overflow
        assert_eq!(h.total, 6);
        assert_eq!(h.counts[0], 1);
        assert_eq!(h.counts[1], 1);
        assert_eq!(h.counts[3], 2);
        assert_eq!(h.counts[HIST_BOUNDS.len() - 1], 1);
        assert_eq!(h.counts[HIST_BOUNDS.len()], 1);
    }

    #[test]
    fn snapshots_compare() {
        let mut a = Metrics::default();
        let mut b = Metrics::default();
        for m in [&mut a, &mut b] {
            m.record_counter("x", 2);
            m.record_hist(HistKind::LemmaWidth, 3);
        }
        assert_eq!(a.snapshot(), b.snapshot());
        b.record_hist(HistKind::LemmaWidth, 3);
        assert_ne!(a.snapshot(), b.snapshot());
    }
}
