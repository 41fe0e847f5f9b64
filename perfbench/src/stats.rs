//! Sample summaries, the percentile rule, and the result line.
//!
//! Every timing is reported as a median plus a tail percentile. A
//! percentile is only trusted when at least [`TAIL_MIN`] samples lie
//! beyond it, so a requested tail (`p99`) is capped at the highest
//! quantile the sample supports, and the report states the count.

use std::fmt::Write as _;

/// Samples that must lie beyond a reported percentile.
pub const TAIL_MIN: usize = 10;

/// A bag of non-negative measurements (nanoseconds, unless the caller
/// says otherwise).
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<u64>,
    sorted: bool,
}

impl Samples {
    pub fn with_capacity(n: usize) -> Self {
        Samples {
            values: Vec::with_capacity(n),
            sorted: true,
        }
    }

    pub fn push(&mut self, v: u64) {
        self.values.push(v);
        self.sorted = false;
    }

    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn sum(&self) -> u64 {
        self.values.iter().sum()
    }

    #[cfg(test)]
    pub fn max(&self) -> u64 {
        self.values.iter().copied().max().unwrap_or(0)
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.values.sort_unstable();
            self.sorted = true;
        }
    }

    /// The `q`-quantile (nearest rank) under the percentile rule: tail
    /// quantiles are capped by [`supported_quantile`]. `None` when empty.
    pub fn quantile(&mut self, q: f64) -> Option<u64> {
        if self.values.is_empty() {
            return None;
        }
        self.sort();
        let q = supported_quantile(self.values.len(), q);
        Some(self.values[rank_index(self.values.len(), q)])
    }

    /// Median and the highest supported tail, for the human report:
    /// `n=…, p50=…, p99.9=…` in the given unit divisor.
    pub fn describe(&mut self, divisor: f64, unit: &str) -> String {
        let n = self.values.len();
        if n == 0 {
            return "n=0".to_string();
        }
        let p50 = self.quantile(0.5).unwrap_or(0) as f64 / divisor;
        let tail = highest_tail(n);
        let pt = self.quantile(tail).unwrap_or(0) as f64 / divisor;
        format!(
            "n={n} p50={p50:.3}{unit} p{}={pt:.3}{unit}",
            tail_label(tail)
        )
    }
}

/// Samples stamped with when they were taken, so a tail can be taken
/// per maintenance cycle and summarized by its median over cycles: one
/// unlucky stall then moves one cycle's tail, not the reported figure.
#[derive(Debug, Clone, Default)]
pub struct Timed {
    items: Vec<(u64, u64)>,
}

impl Timed {
    pub fn push(&mut self, at: u64, value: u64) {
        self.items.push((at, value));
    }

    /// Every sample, untimed.
    pub fn all(&self) -> Samples {
        let mut s = Samples::with_capacity(self.items.len());
        for &(_, v) in &self.items {
            s.push(v);
        }
        s
    }

    /// The median, over the whole `cycle`-long slices of `[0, window)`,
    /// of each slice's `q`-quantile (under the percentile rule). `None`
    /// when no slice holds a sample.
    pub fn cycle_median(&self, q: f64, cycle: u64, window: u64) -> Option<u64> {
        let cycles = (window / cycle.max(1)).max(1) as usize;
        let mut per = vec![Samples::default(); cycles];
        for &(at, v) in &self.items {
            if let Some(slot) = per.get_mut((at / cycle.max(1)) as usize) {
                slot.push(v);
            }
        }
        let mut tails = Samples::default();
        for mut s in per {
            if let Some(t) = s.quantile(q) {
                tails.push(t);
            }
        }
        tails.quantile(0.5)
    }
}

/// Index of the nearest-rank `q`-quantile in a sorted sample of `n`.
fn rank_index(n: usize, q: f64) -> usize {
    // The epsilon keeps `0.99 * 1000` from rounding up past rank 990.
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n) - 1
}

/// Caps a tail quantile so that at least [`TAIL_MIN`] of `n` samples
/// lie beyond it. The median is never capped.
pub fn supported_quantile(n: usize, q: f64) -> f64 {
    if q <= 0.5 || n == 0 {
        return q;
    }
    let cap = 1.0 - TAIL_MIN as f64 / n as f64;
    q.min(cap).max(0.5)
}

/// The highest of the conventional tails (p99.99 … p50) that `n`
/// samples support under the rule.
pub fn highest_tail(n: usize) -> f64 {
    [0.9999, 0.999, 0.99, 0.9, 0.5]
        .into_iter()
        .find(|&q| rank_index(n, q) + TAIL_MIN < n)
        .unwrap_or(0.5)
}

fn tail_label(q: f64) -> String {
    let pct = q * 100.0;
    if (pct - pct.round()).abs() < 1e-9 {
        format!("{}", pct.round() as u64)
    } else {
        format!("{}", (pct * 100.0).round() / 100.0)
    }
}

/// True when `name` is a valid metric name: 1–64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let bytes = name.as_bytes();
    !bytes.is_empty()
        && bytes.len() <= 64
        && bytes[0].is_ascii_alphanumeric()
        && bytes
            .iter()
            .all(|&b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// One named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// An ordered set of metrics, checked on insertion.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    items: Vec<Metric>,
}

impl Metrics {
    /// Adds a metric. Panics on an invalid or duplicate name or a
    /// non-finite value — both are bugs in the benchmark itself.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(valid_metric_name(&name), "invalid metric name {name:?}");
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(self.get(&name).is_none(), "metric {name} reported twice");
        self.items.push(Metric { name, value, unit });
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.items.iter().find(|m| m.name == name)
    }

    pub fn iter(&self) -> impl Iterator<Item = &Metric> {
        self.items.iter()
    }

    /// Keeps only the named metrics, in the given order. Panics when
    /// one is missing: the result line must carry every listed metric.
    pub fn select(&self, names: &[&str]) -> Metrics {
        Metrics {
            items: names
                .iter()
                .map(|n| {
                    self.get(n)
                        .unwrap_or_else(|| panic!("metric {n} was not measured"))
                        .clone()
                })
                .collect(),
        }
    }
}

/// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        // `{:?}` prints the shortest representation that round-trips,
        // always with a decimal point: every digit as measured.
        write!(
            out,
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(n: u64) -> Samples {
        let mut s = Samples::default();
        // Insert out of order to exercise sorting.
        for v in (1..=n).rev() {
            s.push(v);
        }
        s
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: p99 is rank 990, leaving exactly 10 above it.
        let mut s = samples(1000);
        assert_eq!(s.quantile(0.99), Some(990));
        // 500 samples: p99 would leave only 5 above, so it is capped
        // at the 490th value (10 above).
        let mut s = samples(500);
        assert_eq!(s.quantile(0.99), Some(490));
        // The median is never capped.
        let mut s = samples(15);
        assert_eq!(s.quantile(0.5), Some(8));
        assert_eq!(s.quantile(0.99), Some(8));
    }

    #[test]
    fn highest_tail_follows_the_sample_count() {
        assert_eq!(highest_tail(5), 0.5);
        assert_eq!(highest_tail(99), 0.5);
        assert_eq!(highest_tail(100), 0.9);
        assert_eq!(highest_tail(1001), 0.99);
        assert_eq!(highest_tail(10_001), 0.999);
        assert_eq!(highest_tail(1_000_000), 0.9999);
        for n in [20, 150, 1001, 20_000, 123_457] {
            let q = highest_tail(n);
            let beyond = n - 1 - rank_index(n, q);
            assert!(beyond >= TAIL_MIN, "n={n} q={q} leaves {beyond}");
        }
    }

    #[test]
    fn cycle_tails_ignore_one_bad_cycle() {
        let mut t = Timed::default();
        // Four 1000-sample cycles of 100 ns; one of 1000 samples and a
        // stall of 50 samples at 10_000 ns in the second cycle.
        for c in 0..4u64 {
            for i in 0..1000 {
                t.push(c * 1000 + i, 100 + i % 3);
            }
        }
        for i in 0..50 {
            t.push(1000 + i, 10_000);
        }
        assert_eq!(t.all().len(), 4050);
        // The whole-window p99 lands in the stall...
        assert_eq!(t.all().quantile(0.99), Some(10_000));
        // ...the per-cycle median does not.
        assert_eq!(t.cycle_median(0.99, 1000, 4000), Some(102));
        // Samples past the last whole cycle are left out.
        t.push(4500, 1);
        assert_eq!(t.cycle_median(0.5, 1000, 4600), Some(101));
        assert_eq!(Timed::default().cycle_median(0.99, 10, 100), None);
    }

    #[test]
    fn empty_samples_have_no_quantile() {
        let mut s = Samples::default();
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.describe(1.0, "us"), "n=0");
    }

    #[test]
    fn metric_names_are_validated() {
        for ok in [
            "setup_s",
            "serve.availability_us.p99",
            "a-b",
            "9lives",
            &"x".repeat(64),
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in [
            "",
            ".dot",
            "_under",
            "sp ace",
            "slash/x",
            "q\"",
            "é",
            &"x".repeat(65),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn bad_names_are_refused() {
        Metrics::default().put("no spaces", 1.0, "s");
    }

    #[test]
    #[should_panic(expected = "reported twice")]
    fn duplicate_names_are_refused() {
        let mut m = Metrics::default();
        m.put("a", 1.0, "s");
        m.put("a", 2.0, "s");
    }

    #[test]
    fn result_line_keeps_every_digit() {
        let mut m = Metrics::default();
        m.put("latency_ms", 1.203_456_789, "ms");
        m.put("count", 3.0, "count");
        let line = result_line(true, 10, 0, &m.select(&["latency_ms", "count"]));
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.203456789, \"unit\": \"ms\"}, \
             \"count\": {\"value\": 3.0, \"unit\": \"count\"}}}"
        );
    }
}
