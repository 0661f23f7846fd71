//! Sample statistics and the small JSON helpers the parent and the sample
//! processes exchange results with.

use std::collections::BTreeMap;
use tensorkmc_compat::json::Json;

/// Named numeric values, in a stable order.
pub type Metrics = BTreeMap<String, f64>;

/// The `q`-quantile (0..=1) of `values` by linear interpolation.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The highest of p99/p95/p90/p75/p50 that has at least ten samples beyond
/// it, as `(percentile, value)`; `None` with fewer than eleven samples.
/// `higher_is_worse` picks the tail: the slow end for times, the low end for
/// rates.
pub fn tail_percentile(values: &[f64], higher_is_worse: bool) -> Option<(usize, f64)> {
    let n = values.len();
    [99usize, 95, 90, 75, 50]
        .into_iter()
        .find(|&p| n * (100 - p) >= 1000)
        .map(|p| {
            let q = p as f64 / 100.0;
            let q = if higher_is_worse { q } else { 1.0 - q };
            (p, quantile(values, q))
        })
}

pub fn metrics_to_json(m: &Metrics) -> Json {
    Json::Obj(m.iter().map(|(k, v)| (k.clone(), Json::Num(*v))).collect())
}

pub fn metrics_from_json(j: Option<&Json>) -> Metrics {
    match j {
        Some(Json::Obj(pairs)) => pairs
            .iter()
            .filter_map(|(k, v)| v.as_f64().ok().map(|x| (k.clone(), x)))
            .collect(),
        _ => Metrics::new(),
    }
}

/// `a / b`, or 0 when `b` is 0 (a layer that did no work).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (0..20).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, true).map(|t| t.0), Some(50));
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, true).map(|t| t.0), Some(90));
        assert!(tail_percentile(&v[..10], true).is_none());
    }
}
