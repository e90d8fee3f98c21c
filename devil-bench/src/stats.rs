//! Order statistics over host-time samples.

use std::time::{Duration, Instant};

/// Quartiles, median and tail of a sample set.
#[derive(Clone, Copy, Debug, Default)]
pub struct Summary {
    /// Number of samples.
    pub n: u64,
    /// First quartile.
    pub p25: f64,
    /// Median.
    pub p50: f64,
    /// Third quartile.
    pub p75: f64,
    /// 99th percentile.
    pub p99: f64,
}

/// Linear-interpolated quantile of sorted data (the `(n-1)·q` rank).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// Summarises `samples` (consumed and sorted).
pub fn summarize(mut samples: Vec<f64>) -> Summary {
    samples.sort_by(f64::total_cmp);
    Summary {
        n: samples.len() as u64,
        p25: quantile(&samples, 0.25),
        p50: quantile(&samples, 0.50),
        p75: quantile(&samples, 0.75),
        p99: quantile(&samples, 0.99),
    }
}

/// A fixed-capacity uniform sample of a stream (reservoir sampling), so
/// that a run's sample storage is allocated once, before timing starts,
/// and stays out of the heap figures.
pub struct Reservoir {
    buf: Vec<f64>,
    cap: usize,
    seen: u64,
    state: u64,
}

/// Samples a [`Reservoir`] keeps: enough for a p99 with forty samples
/// beyond it, and small enough to stay out of the caches the workload
/// uses.
pub const RESERVOIR: usize = 1 << 12;

impl Reservoir {
    /// An empty reservoir of [`RESERVOIR`] slots.
    pub fn new() -> Self {
        Self::with_capacity(RESERVOIR)
    }

    /// An empty reservoir of `cap` slots.
    pub fn with_capacity(cap: usize) -> Self {
        Reservoir { buf: Vec::with_capacity(cap), cap, seen: 0, state: 0x5eed }
    }

    /// Offers one sample.
    pub fn push(&mut self, x: f64) {
        self.seen += 1;
        if self.buf.len() < self.cap {
            self.buf.push(x);
            return;
        }
        // SplitMix64: a fixed stream, independent of the workload seed.
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        let j = (z ^ (z >> 31)) % self.seen;
        if let Some(slot) = self.buf.get_mut(j as usize) {
            *slot = x;
        }
    }

    /// The summary of the retained samples.
    pub fn summary(&self) -> Summary {
        summarize(self.buf.clone())
    }
}

impl Default for Reservoir {
    fn default() -> Self {
        Self::new()
    }
}

/// Samples kept per segment.
const SEGMENT_SAMPLES: usize = 1024;

/// One segment of a timed phase.
struct Segment {
    ns: u64,
    units: u64,
    samples: Reservoir,
    /// `(total, compile)` seconds of the set-up builds made in it.
    setups: Vec<(f64, f64)>,
}

/// A timed phase cut into fixed-length segments of host time.
///
/// Neighbours on a shared host slow a run down for seconds at a time,
/// and interference only ever adds time. So the end-to-end figures are
/// taken from a band of the segments ranked by their mean time per unit
/// (for most workloads the quietest), and set-up is rebuilt once per
/// segment and reported from the same segments.
pub struct Segments {
    len: Duration,
    end: Option<Instant>,
    segs: Vec<Segment>,
    cur: usize,
}

/// Result of [`Segments::band`].
pub struct Band {
    /// Per-sample summary over the chosen segments.
    pub unit: Summary,
    /// Units and host nanoseconds in the chosen segments.
    pub units: u64,
    pub ns: u64,
    /// Set-up `[total, compile, spawn]` seconds in the chosen segments.
    pub setup: Option<[Summary; 3]>,
    /// Segments chosen, of all.
    pub chosen: usize,
    pub of: usize,
}

impl Segments {
    /// Segments of `len` for a phase of `seconds`; storage is allocated
    /// here, before timing starts.
    pub fn new(len: Duration, seconds: f64) -> Self {
        let n = (seconds / len.as_secs_f64()).ceil() as usize + 2;
        let segs = (0..n).map(|_| Segment::new()).collect();
        Segments { len, end: None, segs, cur: 0 }
    }

    /// Starts the first segment on the first call, and a new one
    /// whenever the current one is over, running `setup` (which must
    /// build and drop the workload's rigs, and return `(total, compile)`
    /// seconds) at the start of each.
    pub fn tick(&mut self, setup: impl FnOnce() -> (f64, f64)) {
        let now = Instant::now();
        match self.end {
            None => self.end = Some(now + self.len),
            Some(end) if now < end => return,
            Some(end) => {
                self.end = Some(end + self.len);
                self.cur += 1;
                if self.cur == self.segs.len() {
                    self.segs.push(Segment::new());
                }
            }
        }
        let times = setup();
        self.segs[self.cur].setups.push(times);
    }

    /// Adds one sample: `units` units that took `ns`.
    pub fn push(&mut self, ns: u64, units: u64) {
        let seg = &mut self.segs[self.cur];
        seg.ns += ns;
        seg.units += units;
        seg.samples.push(ns as f64 / units.max(1) as f64);
    }

    /// Mean time per unit of every segment with samples.
    pub fn means(&self) -> Vec<f64> {
        let used = &self.segs[..=self.cur];
        used.iter().filter(|s| s.units > 0).map(|s| s.ns as f64 / s.units as f64).collect()
    }

    /// Figures over the segments with samples whose rank by mean time
    /// per unit, as a share of all of them, lies in `[lo, hi)` (at least
    /// one segment).
    pub fn band(&self, (lo, hi): (f64, f64)) -> Band {
        let mut order: Vec<&Segment> =
            self.segs[..=self.cur].iter().filter(|s| s.units > 0).collect();
        order.sort_by(|a, b| {
            (a.ns as f64 / a.units as f64).total_cmp(&(b.ns as f64 / b.units as f64))
        });
        let of = order.len();
        let first = ((of as f64 * lo).floor() as usize).min(of.saturating_sub(1));
        let end = ((of as f64 * hi).ceil() as usize).clamp((first + 1).min(of), of);
        let picked = &order[first..end];
        let chosen = picked.len();
        let samples = picked.iter().flat_map(|s| s.samples.buf.iter().copied()).collect();
        let setups: Vec<(f64, f64)> =
            picked.iter().flat_map(|s| s.setups.iter().copied()).collect();
        let setup = (!setups.is_empty()).then(|| {
            [
                summarize(setups.iter().map(|s| s.0).collect()),
                summarize(setups.iter().map(|s| s.1).collect()),
                summarize(setups.iter().map(|s| s.0 - s.1).collect()),
            ]
        });
        Band {
            unit: summarize(samples),
            units: picked.iter().map(|s| s.units).sum(),
            ns: picked.iter().map(|s| s.ns).sum(),
            setup,
            chosen,
            of,
        }
    }
}

impl Segment {
    fn new() -> Self {
        Segment {
            ns: 0,
            units: 0,
            samples: Reservoir::with_capacity(SEGMENT_SAMPLES),
            setups: Vec::with_capacity(1),
        }
    }
}

/// `a / b`, or 0 when `b` is 0 (a layer the workload does not reach).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = summarize(vec![4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!(s.n, 5);
        assert_eq!(s.p50, 3.0);
        assert_eq!(s.p25, 2.0);
        assert_eq!(s.p75, 4.0);
        assert!((s.p99 - 4.96).abs() < 1e-9);
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
        assert_eq!(summarize(Vec::new()).p50, 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }

    #[test]
    fn band_picks_segments_by_rank() {
        let mut s = Segments::new(Duration::from_secs(3600), 1.0);
        // Ten segments with means 10, 9, ..., 1 ns per unit.
        for k in 0..10u64 {
            s.end = Some(Instant::now());
            s.tick(|| (0.0, 0.0));
            s.push(10 - k, 1);
        }
        let quiet = s.band((0.0, 0.2));
        assert_eq!((quiet.chosen, quiet.of, quiet.ns), (2, 10, 3));
        let middle = s.band((0.25, 0.75));
        assert_eq!((middle.chosen, middle.ns), (6, 3 + 4 + 5 + 6 + 7 + 8));
        assert_eq!(s.band((0.0, 0.0)).chosen, 1, "at least one segment");
    }

    #[test]
    fn reservoir_keeps_a_bounded_uniform_sample() {
        let mut r = Reservoir::new();
        for i in 0..(3 * RESERVOIR) {
            r.push(i as f64);
        }
        let s = r.summary();
        assert_eq!(s.n, RESERVOIR as u64);
        let mid = 1.5 * RESERVOIR as f64;
        assert!((s.p50 - mid).abs() < 0.05 * mid, "median {} of a uniform stream", s.p50);
    }
}
