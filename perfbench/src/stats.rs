//! The benchmark's own arithmetic: medians, quartiles, the tail rule,
//! the open-loop schedule, and the seeded generator inputs are drawn with.

use std::time::{Duration, Instant};

/// Median of `xs` (mean of the middle two for an even count); `NaN` for
/// an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartile by the "exclusive" method of Python's
/// `statistics.quantiles(xs, n=4)`, the method the spread of a metric
/// over runs is judged by. Needs at least two values.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(xs);
    let len = s.len();
    if len < 2 {
        return None;
    }
    let m = len + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// `xs` scaled by `scale`, as "median (q1 .. q3, n=N)" for report lines.
pub fn describe(xs: &[f64], scale: f64) -> String {
    match quartiles(xs) {
        Some((q1, q3)) => format!(
            "{:.4} (q1 {:.4} .. q3 {:.4}, n={})",
            median(xs) * scale,
            q1 * scale,
            q3 * scale,
            xs.len()
        ),
        None => format!("{:.4} (n={})", median(xs) * scale, xs.len()),
    }
}

/// A latency tail: the sample at the highest percentile that still has
/// at least [`TAIL_BEYOND`] samples beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The sample value.
    pub value: f64,
    /// Its nearest-rank percentile (0–100).
    pub pct: f64,
    /// Samples strictly beyond it in rank order.
    pub beyond: usize,
}

/// Samples a tail percentile must have beyond it to be reported.
pub const TAIL_BEYOND: usize = 10;

/// The tail of `xs` by the rule "highest percentile with at least ten
/// samples beyond it". When that percentile would fall below the median
/// (fewer than 21 samples), the tail is the median, reported at
/// percentile 50, so that it never claims more than the data holds.
pub fn tail(xs: &[f64]) -> Tail {
    let s = sorted(xs);
    let n = s.len();
    if n < 2 * TAIL_BEYOND + 1 {
        return Tail {
            value: median(xs),
            pct: 50.0,
            beyond: n / 2,
        };
    }
    let i = n - 1 - TAIL_BEYOND;
    Tail {
        value: s[i],
        pct: 100.0 * (i + 1) as f64 / n as f64,
        beyond: TAIL_BEYOND,
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// An open-loop arrival schedule: request `i` is due at
/// `start + i / rate`, whether or not earlier requests have finished.
#[derive(Clone, Copy, Debug)]
pub struct Schedule {
    start: Instant,
    interval: Duration,
}

impl Schedule {
    /// A schedule of `rate` requests per second starting at `start`.
    pub fn new(start: Instant, rate: f64) -> Self {
        Schedule {
            start,
            interval: Duration::from_secs_f64(1.0 / rate),
        }
    }

    /// When request `i` is due.
    pub fn due(&self, i: u32) -> Instant {
        self.start + self.interval * i
    }
}

/// One open-loop request's timing, relative to when it was due.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OpenLoopTiming {
    /// Seconds the generator sent it after it was due (its lateness).
    pub late_s: f64,
    /// Seconds from the due time to completion: a stall that delays
    /// later sends is charged to those requests too.
    pub latency_s: f64,
}

/// Times a request that was due at `due`, sent at `sent` and served in
/// `service_s` seconds from its send.
pub fn open_loop_timing(due: Instant, sent: Instant, service_s: f64) -> OpenLoopTiming {
    let late_s = sent.saturating_duration_since(due).as_secs_f64();
    OpenLoopTiming {
        late_s,
        latency_s: late_s + service_s,
    }
}

/// SplitMix64: the seeded generator all workload inputs are drawn from.
#[derive(Clone, Debug)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for `seed` and input `stream`, so that independent
    /// inputs of one seed never share draws.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut g = SplitMix(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        g.next_u64();
        g
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// `k` distinct draws from `0..n`, in draw order.
    pub fn distinct(&mut self, k: usize, n: usize) -> Vec<u32> {
        let k = k.min(n);
        let mut seen = std::collections::BTreeSet::new();
        let mut out = Vec::with_capacity(k);
        while out.len() < k {
            let v = self.below(n) as u32;
            if seen.insert(v) {
                out.push(v);
            }
        }
        out
    }

    /// A uniform random permutation of `0..n` (Fisher–Yates).
    pub fn shuffled(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i + 1));
        }
        p
    }
}

/// An endless sequence over `0..n` made of back-to-back seeded
/// permutations: each block of `n` draws holds every value once, so any
/// stretch of the sequence has the same mix and the seed sets only the
/// order.
#[derive(Clone, Debug)]
pub struct Blocks {
    rng: SplitMix,
    block: Vec<usize>,
    n: usize,
}

impl Blocks {
    pub fn new(rng: SplitMix, n: usize) -> Self {
        Blocks {
            rng,
            block: Vec::new(),
            n,
        }
    }

    /// The next value of the sequence.
    pub fn draw(&mut self) -> usize {
        if self.block.is_empty() {
            self.block = self.rng.shuffled(self.n);
        }
        self.block.pop().expect("a block of n > 0 values")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(t.value, 30.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.pct, 75.0);
        // 21 samples: the median is the highest with ten beyond it.
        let xs: Vec<f64> = (1..=21).rev().map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!((t.value, t.beyond), (11.0, 10));
    }

    #[test]
    fn tail_of_few_samples_is_the_median() {
        let xs = [5.0, 1.0, 9.0, 3.0];
        let t = tail(&xs);
        assert_eq!(t.value, 4.0);
        assert_eq!(t.pct, 50.0);
        assert_eq!(t.beyond, 2);
        // With 20 samples the rule would pick the 10th, below the median.
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&xs).value, 10.5);
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        let start = Instant::now();
        let sched = Schedule::new(start, 4.0);
        let due = sched.due(2);
        assert_eq!(due - start, Duration::from_millis(500));
        // Sent 30 ms late and served in 0.2 s: 0.23 s from the due time.
        let t = open_loop_timing(due, due + Duration::from_millis(30), 0.2);
        assert!((t.late_s - 0.03).abs() < 1e-9);
        assert!((t.latency_s - 0.23).abs() < 1e-9);
        // A send ahead of schedule is not negative lateness.
        let t = open_loop_timing(due, start, 0.2);
        assert_eq!(t.late_s, 0.0);
        assert_eq!(t.latency_s, 0.2);
    }

    #[test]
    fn splitmix_is_seeded_and_distinct() {
        let a = SplitMix::new(7, 1).distinct(50, 100);
        let b = SplitMix::new(7, 1).distinct(50, 100);
        let c = SplitMix::new(7, 2).distinct(50, 100);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut d = a.clone();
        d.sort_unstable();
        d.dedup();
        assert_eq!(d.len(), 50);
        assert!(a.iter().all(|&v| v < 100));
    }

    #[test]
    fn blocks_hold_every_value_once_in_seeded_order() {
        let draw = |seed| {
            let mut b = Blocks::new(SplitMix::new(seed, 2), 8);
            (0..24).map(|_| b.draw()).collect::<Vec<_>>()
        };
        let (a, b) = (draw(1), draw(2));
        assert_eq!(a, draw(1));
        assert_ne!(a, b);
        for block in a.chunks(8).chain(b.chunks(8)) {
            let mut s = block.to_vec();
            s.sort_unstable();
            assert_eq!(s, (0..8).collect::<Vec<_>>());
        }
    }
}
