//! Host-speed calibration of the end-to-end times.
//!
//! On a shared host the speed of a core drifts with its neighbours' load:
//! on the 2-vCPU VM the benchmark was sized on, the same single-threaded
//! loop ran up to 50% slower in one minute than in the next, with no steal
//! time reported and CPU time tracking wall time.  No length of run
//! averages that out, so runs minutes apart disagree about the program by
//! as much as the host moved.
//!
//! A run therefore times a fixed reference kernel at intervals through its
//! window and reports every end-to-end time at one reference speed: an op
//! that took `t` while the kernel took `k` nearby is reported as
//! `t * REFERENCE_MS / k`.  The kernel is ordered-map inserts, lookups,
//! joins and clones — the operations the abstract domain is built from —
//! but it is written here and calls nothing of the program, so a change to
//! the program moves the reported times as much as it moves the raw ones.
//! The raw figures and the host's speed are printed beside them.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The kernel's time at the reference speed, in ms: about its median on
/// the VM the benchmark was sized on.
pub const REFERENCE_MS: f64 = 2.0;

/// The least time between two samples taken by [`Calibration::tick`].
const INTERVAL: Duration = Duration::from_millis(200);

/// The most samples one [`Calibration::tick`] takes.
const CATCH_UP: u128 = 5;

/// Samples whose median gives the host's speed at one moment: the nearest
/// in time, about a second and a half of the run.
const NEIGHBOURS: usize = 7;

/// Rounds of [`kernel`]; sized to take [`REFERENCE_MS`].
const KERNEL_ROUNDS: u64 = 190;

/// The reference kernel: joins of small ordered maps from a fixed
/// pseudo-random stream, each kept, cloned and looked up.
fn kernel() -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut kept: Vec<BTreeMap<u32, u8>> = Vec::new();
    let mut sum = 0u64;
    for _ in 0..KERNEL_ROUNDS {
        let mut map = BTreeMap::new();
        for _ in 0..48 {
            let r = next();
            map.insert((r % 192) as u32, (r >> 32) as u8);
        }
        if let Some(previous) = kept.last() {
            // A must-style join: the keys in both, at the older age.
            let joined: BTreeMap<u32, u8> = map
                .iter()
                .filter_map(|(k, a)| previous.get(k).map(|b| (*k, (*a).max(*b))))
                .collect();
            sum = sum.wrapping_add(joined.len() as u64);
            map.extend(joined);
        }
        for old in &kept {
            sum = sum.wrapping_add(old.get(&((next() % 192) as u32)).copied().unwrap_or(0) as u64);
        }
        kept.push(map.clone());
        if kept.len() > 8 {
            kept.remove(0);
        }
    }
    sum
}

/// The kernel's samples of one run, each at its time since the run's
/// origin.
pub struct Calibration {
    origin: Instant,
    last: Option<Instant>,
    /// `(seconds since origin, kernel ms)`, in time order.
    samples: Vec<(f64, f64)>,
    spent: Duration,
}

impl Calibration {
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            last: None,
            samples: Vec::new(),
            spent: Duration::ZERO,
        }
    }

    /// Seconds since the run's origin.
    pub fn now_s(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Takes one sample per [`INTERVAL`] passed since the last one, at
    /// most [`CATCH_UP`], so that ops of any length are sampled at about
    /// the same rate.
    pub fn tick(&mut self) {
        let due = match self.last {
            None => 1,
            Some(last) => (last.elapsed().as_nanos() / INTERVAL.as_nanos()).min(CATCH_UP),
        };
        for _ in 0..due {
            self.sample();
        }
    }

    /// Times one pass of the kernel.
    pub fn sample(&mut self) {
        let start = Instant::now();
        black_box(kernel());
        let took = start.elapsed();
        let at = (start - self.origin).as_secs_f64() + took.as_secs_f64() / 2.0;
        self.samples.push((at, took.as_secs_f64() * 1e3));
        self.spent += took;
        self.last = Some(Instant::now());
    }

    /// Total time the samples took, which the caller keeps out of its
    /// measured window.
    pub fn spent(&self) -> Duration {
        self.spent
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// The median kernel time of the whole run, in ms.
    pub fn median_ms(&self) -> f64 {
        crate::stats::median(&self.samples.iter().map(|s| s.1).collect::<Vec<_>>())
    }

    /// The factor that turns a time measured at `at_s` into one at the
    /// reference speed: [`REFERENCE_MS`] over the median of the
    /// [`NEIGHBOURS`] samples nearest in time.  1 without samples.
    pub fn factor_at(&self, at_s: f64) -> f64 {
        let n = self.samples.len();
        if n == 0 {
            return 1.0;
        }
        let k = NEIGHBOURS.min(n);
        // The window of `k` consecutive samples nearest to `at_s`.
        let mut lo = self
            .samples
            .partition_point(|s| s.0 < at_s)
            .saturating_sub(k / 2);
        lo = lo.min(n - k);
        while lo > 0 && at_s - self.samples[lo - 1].0 < self.samples[lo + k - 1].0 - at_s {
            lo -= 1;
        }
        while lo + k < n && self.samples[lo + k].0 - at_s < at_s - self.samples[lo].0 {
            lo += 1;
        }
        let near: Vec<f64> = self.samples[lo..lo + k].iter().map(|s| s.1).collect();
        REFERENCE_MS / crate::stats::median(&near)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_samples(samples: &[(f64, f64)]) -> Calibration {
        let mut c = Calibration::new(Instant::now());
        c.samples = samples.to_vec();
        c
    }

    #[test]
    fn factor_follows_the_nearest_samples() {
        // Reference speed for the first ten seconds, half speed after.
        let samples: Vec<(f64, f64)> = (0..40)
            .map(|i| {
                let at = f64::from(i) * 0.5;
                (
                    at,
                    if at < 10.0 {
                        REFERENCE_MS
                    } else {
                        2.0 * REFERENCE_MS
                    },
                )
            })
            .collect();
        let c = with_samples(&samples);
        assert_eq!(c.factor_at(-1.0), 1.0);
        assert_eq!(c.factor_at(3.0), 1.0);
        assert_eq!(c.factor_at(15.0), 0.5);
        assert_eq!(c.factor_at(100.0), 0.5);
    }

    #[test]
    fn factor_without_samples_is_one() {
        assert_eq!(with_samples(&[]).factor_at(1.0), 1.0);
        assert_eq!(with_samples(&[(0.0, 4.0)]).factor_at(9.0), 0.5);
    }
}
