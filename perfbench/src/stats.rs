//! Summary statistics and the result line.

use std::fmt::Write as _;

/// Value at quantile `p` (nearest rank) of `values`; 0 for an empty slice.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The highest percentile, capped at p99, that leaves at least ten samples
/// beyond it — a tail figure that is never a single outlier.
pub fn tail_quantile(n: usize) -> f64 {
    if n == 0 {
        return 0.99;
    }
    (1.0 - 10.0 / n as f64).clamp(0.5, 0.99)
}

/// Requests per window of [`tail`].
const TAIL_WINDOW: usize = 1_000;

/// The run's tail latency: the [`tail_quantile`] of each of up to five
/// consecutive windows of at least [`TAIL_WINDOW`] samples, and the median
/// of those. A stall of the shared machine that lands in one window then
/// moves one window's figure, not the run's; with fewer than two windows'
/// worth of samples it is the plain tail quantile.
pub fn tail(values: &[f64]) -> f64 {
    let windows = (values.len() / TAIL_WINDOW).clamp(1, 5);
    let len = values.len() / windows;
    let tails: Vec<f64> = (0..windows)
        .map(|w| {
            let window = &values[w * len..(w + 1) * len];
            quantile(window, tail_quantile(window.len()))
        })
        .collect();
    median(&tails)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Named metrics in print order.
#[derive(Default)]
pub struct Metrics(pub Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    /// One `name = value unit` line per metric, for people.
    pub fn print(&self, heading: &str) {
        println!("{heading}");
        for (name, value, unit) in &self.0 {
            println!("  {name:<32} {value:>14.6} {unit}");
        }
    }
}

/// The last line of a run: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut out = String::new();
    write!(
        out,
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    )
    .expect("write to String");
    for (i, (name, value, unit)) in metrics.0.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        if i > 0 {
            out.push_str(", ");
        }
        write!(
            out,
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        )
        .expect("write to String");
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        assert_eq!(tail_quantile(5000), 0.99);
        let p = tail_quantile(500);
        assert!((p - 0.98).abs() < 1e-12);
        let v: Vec<f64> = (1..=500).map(f64::from).collect();
        assert_eq!(v.iter().filter(|&&x| x > quantile(&v, p)).count(), 10);
    }

    #[test]
    fn tail_takes_the_median_window() {
        // 3,000 samples in three windows; one window holds a stall.
        let mut v: Vec<f64> = (0..3_000).map(|i| f64::from(i % 1_000)).collect();
        for x in &mut v[1_000..2_000] {
            *x += 500.0;
        }
        assert_eq!(tail(&v), 989.0);
        let short: Vec<f64> = (1..=500).map(f64::from).collect();
        assert_eq!(tail(&short), quantile(&short, tail_quantile(500)));
    }

    #[test]
    fn result_line_is_json_shaped() {
        let mut m = Metrics::default();
        m.put("setup_s", 1.5, "s");
        m.put("qps", 10.0, "1/s");
        assert_eq!(
            result_line(true, 3, 0, &m),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}, \
             \"qps\": {\"value\": 10.0, \"unit\": \"1/s\"}}}"
        );
    }
}
