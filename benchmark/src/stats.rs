//! Order statistics the benchmark reports: medians, nearest-rank
//! quantiles over exact samples, the quiet-slice p99, and the quartiles
//! `compare` and the acceptance check use.

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

pub fn median_u64(values: &[u64]) -> f64 {
    let as_f64: Vec<f64> = values.iter().map(|&v| v as f64).collect();
    median(&as_f64)
}

/// Nearest-rank `q`-quantile of an ascending slice.
pub fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The first quartile, over `slices` equal, consecutive slices of `samples`
/// (given in the order they were taken), of each slice's `q`-quantile: the
/// level the run holds in its quieter part. On a shared host the
/// neighbours slow the program in bursts of a few seconds, never speed it
/// up, so the slices they miss say what the program itself costs; a
/// whole-run median or tail moved two to three times as much between runs
/// of one build.
pub fn quiet_quantile(samples: &[u64], slices: usize, q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let slices = slices.clamp(1, samples.len());
    let per_slice: Vec<f64> = (0..slices)
        .map(|i| {
            let lo = i * samples.len() / slices;
            let hi = (i + 1) * samples.len() / slices;
            let mut slice = samples[lo..hi].to_vec();
            slice.sort_unstable();
            quantile_sorted(&slice, q) as f64
        })
        .collect();
    quartiles(&per_slice).0
}

/// The first quartile of repeated timings of one operation: the same
/// reading of a run's quieter part as [`quiet_quantile`], for operations
/// timed a handful of times (of three values it is the smallest).
pub fn quiet(values: &[f64]) -> f64 {
    quartiles(values).0
}

/// Work done against time, marked about once per slice of the run, so that
/// a rate can be taken slice by slice.
pub struct Marks {
    every_s: f64,
    /// `(seconds since the phase began, units done by then)`, ascending.
    at: Vec<(f64, u64)>,
}

impl Marks {
    pub fn new(every_s: f64) -> Self {
        Self {
            every_s,
            at: vec![(0.0, 0)],
        }
    }

    /// Called after every operation; keeps a mark once a slice has passed
    /// since the last one.
    pub fn tick(&mut self, elapsed_s: f64, units_done: u64) {
        let (last_s, _) = self.at[self.at.len() - 1];
        if elapsed_s - last_s >= self.every_s {
            self.at.push((elapsed_s, units_done));
        }
    }

    /// Units per second: the third quartile of the slices' rates, the
    /// counterpart of [`quiet_quantile`] for a number where higher is better.
    pub fn quiet_rate(&self) -> f64 {
        let rates: Vec<f64> = self
            .at
            .windows(2)
            .map(|w| (w[1].1 - w[0].1) as f64 / (w[1].0 - w[0].0))
            .collect();
        assert!(!rates.is_empty(), "the phase ended before its first slice");
        quartiles(&rates).2
    }
}

/// `(q1, median, q3)` exactly as Python's `statistics.quantiles(v, n=4)`
/// gives them (the "exclusive" method); a single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let len = sorted.len();
    if len == 1 {
        return (sorted[0], sorted[0], sorted[0]);
    }
    let cut = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Latency samples in a buffer whose size is fixed before the run, so the
/// harness's own memory does not grow with the throughput it measures.
/// Records every `stride`-th value; when the buffer fills it keeps every
/// other sample and doubles the stride, so coverage of the run stays even.
pub struct Samples {
    buf: Vec<u32>,
    len: usize,
    stride: u64,
    seen: u64,
}

impl Samples {
    pub fn new(capacity: usize, stride: u64) -> Self {
        Self {
            // Written, not just reserved: the pages are resident from the start.
            buf: vec![0; capacity.max(2)],
            len: 0,
            stride: stride.max(1),
            seen: 0,
        }
    }

    /// Offers one duration in nanoseconds (saturating at about 4.29 s).
    pub fn offer(&mut self, ns: u64) {
        self.seen += 1;
        if !self.seen.is_multiple_of(self.stride) {
            return;
        }
        if self.len == self.buf.len() {
            for i in 0..self.len / 2 {
                self.buf[i] = self.buf[2 * i + 1];
            }
            self.len /= 2;
            self.stride *= 2;
            if !self.seen.is_multiple_of(self.stride) {
                return;
            }
        }
        self.buf[self.len] = u32::try_from(ns).unwrap_or(u32::MAX);
        self.len += 1;
    }

    /// Values offered, recorded or not.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The recorded samples, in the order they were taken.
    pub fn to_vec(&self) -> Vec<u64> {
        self.buf[..self.len].iter().map(|&v| u64::from(v)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quiet_quantile_matches_sorted_vector_oracle() {
        // 1000 samples, 10 slices of 100: each slice's p99 is its
        // 99th smallest value, and the result their first quartile.
        let samples: Vec<u64> = (0..1000u64).map(|i| (i * 7919) % 1009).collect();
        let mut expected = Vec::new();
        for slice in samples.chunks(100) {
            let mut sorted = slice.to_vec();
            sorted.sort_unstable();
            expected.push(sorted[98] as f64);
        }
        assert_eq!(quiet_quantile(&samples, 10, 0.99), quartiles(&expected).0);
    }

    #[test]
    fn quiet_quantile_ignores_a_burst_that_spares_a_quarter_of_the_run() {
        let mut samples = vec![100u64; 1000];
        let calm = quiet_quantile(&samples, 10, 0.99);
        // Slices 2 to 7 are ten times slower throughout.
        for s in samples.iter_mut().skip(200).take(600) {
            *s = 1_000;
        }
        assert_eq!(quiet_quantile(&samples, 10, 0.99), calm);
        assert_eq!(quiet_quantile(&samples, 10, 0.5), 100.0);
        // The same burst does reach the whole-run median.
        assert_eq!(median_u64(&samples), 1_000.0);
    }

    #[test]
    fn quiet_rate_is_the_third_quartile_of_the_slices_rates() {
        // Eight one-second slices at 100 units/s, but the fourth at 50;
        // ticked every quarter second, marked every second.
        let mut marks = Marks::new(1.0);
        let mut done = 0;
        for tick in 1..=32u64 {
            done += if (13..=16).contains(&tick) { 12 } else { 25 };
            marks.tick(tick as f64 / 4.0, done);
        }
        assert_eq!(marks.at.len(), 9);
        assert_eq!(marks.quiet_rate(), 100.0);
    }

    #[test]
    fn samples_thin_evenly_when_the_buffer_fills() {
        let mut s = Samples::new(8, 1);
        for v in 1..=20u64 {
            s.offer(v);
        }
        // Filled at 8 (stride 1 -> 2), again at 16 (stride 2 -> 4).
        assert_eq!(s.to_vec(), vec![4, 8, 12, 16, 20]);
        assert_eq!(s.seen(), 20);
        let mut strided = Samples::new(8, 3);
        (1..=10u64).for_each(|v| strided.offer(v));
        assert_eq!(strided.to_vec(), vec![3, 6, 9]);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[10.0, 20.0, 40.0]), (10.0, 20.0, 40.0));
    }
}
