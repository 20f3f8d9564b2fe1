//! Order statistics, memory, and span-tree arithmetic.

use std::collections::HashMap;

use sdc::obs::{SpanId, SpanRecord};

/// Candidate tail percentiles, highest first. A timing's tail is the
/// highest of these with at least [`TAIL_BEYOND`] samples above it.
const TAIL_QUANTILES: [f64; 5] = [0.999, 0.99, 0.95, 0.9, 0.75];
/// Samples that must lie beyond the reported tail percentile.
const TAIL_BEYOND: usize = 10;

/// The `q`-quantile by nearest rank (`⌈q·n⌉`-th smallest); 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The highest percentile in [`TAIL_QUANTILES`] with at least
/// [`TAIL_BEYOND`] samples beyond it, as `(quantile, value)`. Falls back
/// to the median when there are too few samples for any of them.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let n = values.len();
    let q = TAIL_QUANTILES
        .into_iter()
        .find(|&q| {
            let rank = (q * n as f64).ceil() as usize;
            n >= rank + TAIL_BEYOND
        })
        .unwrap_or(0.5);
    (q, quantile(values, q))
}

/// `"pXX"` label of a quantile, e.g. `p99.9`.
pub fn label(q: f64) -> String {
    let p = q * 100.0;
    if (p - p.round()).abs() < 1e-9 {
        format!("p{}", p.round())
    } else {
        format!("p{p:.1}")
    }
}

/// Medians over episodes (or blocks) of each one's p50, tail and ops per
/// second, from op times in ms. A host-contention episode that covers a
/// minority of them does not move the result.
pub fn episode_medians(episodes: &[Vec<f64>]) -> (f64, f64, f64) {
    let each = |f: &dyn Fn(&[f64]) -> f64| -> f64 {
        median(&episodes.iter().map(|e| f(e)).collect::<Vec<_>>())
    };
    (each(&median), each(&|e| tail(e).1), each(&|e| ratio(e.len() as f64 * 1e3, e.iter().sum())))
}

/// A timing summary for the detail line: median, tail and the count.
pub fn summary_json(values_ms: &[f64]) -> String {
    let (q, t) = tail(values_ms);
    format!(
        "{{\"p50_ms\": {}, \"tail_ms\": {}, \"tail\": \"{}\", \"n\": {}}}",
        median(values_ms),
        t,
        label(q),
        values_ms.len()
    )
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `(steal, total)` CPU ticks of the whole machine from `/proc/stat`:
/// time the hypervisor ran something else while this guest wanted to
/// run. A run with a large steal share measured a contended host.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// A snapshot of the span ring, indexed for parent/child queries.
pub struct SpanTree {
    pub spans: Vec<SpanRecord>,
    children: HashMap<SpanId, Vec<usize>>,
}

impl SpanTree {
    /// Takes every span recorded so far and empties the ring.
    pub fn drain() -> Self {
        let collector = sdc::obs::trace_collector();
        let spans = collector.snapshot();
        collector.clear();
        let mut children: HashMap<SpanId, Vec<usize>> = HashMap::new();
        for (i, s) in spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push(i);
            }
        }
        Self { spans, children }
    }

    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a SpanRecord> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    fn children_of(&self, span: SpanId) -> impl Iterator<Item = &SpanRecord> {
        self.children.get(&span).into_iter().flatten().map(|&i| &self.spans[i])
    }

    pub fn child_named(&self, span: SpanId, name: &str) -> Option<&SpanRecord> {
        self.children_of(span).find(|c| c.name == name)
    }

    /// A span's duration minus the part of it its children cover.
    pub fn self_nanos(&self, span: &SpanRecord) -> u64 {
        let covered: Vec<(u64, u64)> =
            self.children_of(span.span).map(|c| (c.start_nanos, c.end_nanos)).collect();
        dur(span).saturating_sub(covered_within(span.start_nanos, span.end_nanos, covered))
    }
}

pub fn dur(s: &SpanRecord) -> u64 {
    s.end_nanos.saturating_sub(s.start_nanos)
}

/// Length of the union of `intervals` clipped to `[start, end)`.
pub fn covered_within(start: u64, end: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = start;
    for (a, b) in intervals {
        let (a, b) = (a.max(cursor), b.min(end));
        if b > a {
            total += b - a;
            cursor = b;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&v), (0.95, 190.0));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), (0.99, 990.0));
        assert_eq!(tail(&[1.0, 2.0, 3.0]).0, 0.5);
    }

    #[test]
    fn coverage_merges_overlaps_and_clips() {
        assert_eq!(covered_within(10, 20, vec![(5, 12), (11, 15), (18, 30)]), 7);
        assert_eq!(covered_within(10, 20, vec![]), 0);
    }
}
