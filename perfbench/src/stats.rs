//! Summary statistics, the metric list a run prints, and process probes.

use std::time::Duration;

/// The metrics of one run, in print order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push((name.into(), value, unit));
    }

    pub fn iter(&self) -> impl Iterator<Item = &(String, f64, &'static str)> {
        self.0.iter()
    }

    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A running sum and count.
#[derive(Clone, Copy, Default)]
pub struct Mean {
    pub sum: f64,
    pub count: u64,
}

impl Mean {
    pub fn add(&mut self, value: f64) {
        self.sum += value;
        self.count += 1;
    }

    pub fn add_n(&mut self, sum: f64, count: u64) {
        self.sum += sum;
        self.count += count;
    }

    pub fn add_duration(&mut self, d: Duration, scale: f64) {
        self.add(d.as_secs_f64() * scale);
    }

    pub fn value(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The percentile [`tail`] reports for `n` samples: the highest one with
/// at least ten samples beyond it, or 0 below eleven samples.
pub fn tail_percentile(n: usize) -> f64 {
    if n < 11 {
        0.0
    } else {
        100.0 * (n - 10) as f64 / n as f64
    }
}

/// The tail of a latency sample: the value at [`tail_percentile`].  Below
/// eleven samples no percentile qualifies, and the minimum is returned.
pub fn tail(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
        .get(sorted.len().saturating_sub(11))
        .copied()
        .unwrap_or(0.0)
}

/// VmHWM (peak resident set) of a process, in MiB, from `/proc`.
pub fn peak_rss_mb(pid: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// 64-bit FNV-1a, the digest behind every recorded reference.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in bytes {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let value = tail(&values);
        assert_eq!((value, tail_percentile(values.len())), (90.0, 90.0));
        assert_eq!(values.iter().filter(|v| **v > value).count(), 10);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
