//! Order statistics and the metric record the benchmark prints.

/// Median of `v` (mean of the two middle values for an even count).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let s = sorted(v);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Maximum of `v` (for "max over ranks").
pub fn max(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// The `q` quantile of `v` by nearest rank.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    let s = sorted(v);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// A tail percentile: its level, its value, and how many samples lie
/// strictly beyond it.
pub struct Tail {
    pub level: f64,
    pub value: f64,
    pub beyond: usize,
}

/// Percentile levels tried for the tail, highest first. The ladder stops
/// at p99.5: higher levels of sub-millisecond operations measure the
/// host's scheduler more than the program.
const LEVELS: [f64; 7] = [0.995, 0.99, 0.95, 0.9, 0.8, 0.75, 0.5];

/// The tail percentile of `v` at `target` (nearest rank), falling back to
/// the highest lower level that still leaves at least ten samples beyond
/// it when the run produced too few samples for the target.
pub fn tail(v: &[f64], target: f64) -> Tail {
    let s = sorted(v);
    let n = s.len();
    for &level in LEVELS.iter().filter(|&&l| l <= target) {
        let rank = ((level * n as f64).ceil() as usize).clamp(1, n);
        let beyond = n - rank;
        if beyond >= 10 || level == 0.5 {
            return Tail {
                level,
                value: s[rank - 1],
                beyond,
            };
        }
    }
    unreachable!("the median level always matches")
}

/// One printed metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples the value summarises (1 for a single measurement or count).
    pub samples: usize,
}

/// An ordered list of metrics.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(self.0.iter().all(|m| m.name != name), "metric {name} recorded twice");
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    /// Median of `v` in the given scale (1e3 for ms, 1e6 for µs, ...).
    pub fn put_median(&mut self, name: &str, v: &[f64], scale: f64, unit: &'static str) {
        self.put(name, median(v) * scale, unit, v.len());
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v, 0.99);
        assert_eq!((t.level, t.value, t.beyond), (0.99, 990.0, 10));
        let short: Vec<f64> = (1..=60).map(f64::from).collect();
        let t = tail(&short, 0.99);
        assert_eq!((t.level, t.value, t.beyond), (0.8, 48.0, 12));
        let t = tail(&v, 0.95);
        assert_eq!((t.level, t.value, t.beyond), (0.95, 950.0, 50));
    }
}
