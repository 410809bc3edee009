//! Reading the daemon's `metrics` scrape: Prometheus text exposition
//! parsed into series, the difference of two scrapes, and histogram
//! quantiles recovered from cumulative buckets.

use std::collections::BTreeMap;

use crate::stats::bucket_quantile;

/// Every sample of one scrape, keyed by its series (`name{labels}`
/// exactly as rendered).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Scrape {
    series: BTreeMap<String, f64>,
}

impl Scrape {
    pub fn parse(text: &str) -> Self {
        let series = text
            .lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| {
                let (key, value) = l.rsplit_once(' ')?;
                Some((key.to_string(), value.parse().ok()?))
            })
            .collect();
        Self { series }
    }

    /// What accumulated between `earlier` and this scrape (counters and
    /// histogram buckets only grow).
    pub fn since(&self, earlier: &Scrape) -> Scrape {
        let series = self
            .series
            .iter()
            .map(|(k, v)| (k.clone(), v - earlier.series.get(k).copied().unwrap_or(0.0)))
            .collect();
        Scrape { series }
    }

    /// One series' value; 0 when absent.
    pub fn value(&self, series: &str) -> f64 {
        self.series.get(series).copied().unwrap_or(0.0)
    }

    /// The cumulative `(le, count)` buckets of `family` restricted to
    /// `labels` (`op="delta"`, or empty for an unlabelled histogram).
    pub fn buckets(&self, family: &str, labels: &str) -> Vec<(f64, f64)> {
        let sep = if labels.is_empty() { "" } else { "," };
        let prefix = format!("{family}_bucket{{{labels}{sep}le=\"");
        let mut out: Vec<(f64, f64)> = self
            .series
            .iter()
            .filter_map(|(k, &v)| {
                let le = k.strip_prefix(&prefix)?.strip_suffix("\"}")?;
                let bound = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse().ok()?
                };
                Some((bound, v))
            })
            .collect();
        out.sort_by(|a, b| a.0.total_cmp(&b.0));
        out
    }

    /// Quantile `q` of a histogram series; `None` when it saw nothing.
    pub fn quantile(&self, family: &str, labels: &str, q: f64) -> Option<f64> {
        bucket_quantile(&self.buckets(family, labels), q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BEFORE: &str = "\
# HELP x_seconds Latency.
# TYPE x_seconds histogram
x_seconds_bucket{op=\"delta\",le=\"0.001\"} 1
x_seconds_bucket{op=\"delta\",le=\"0.002\"} 2
x_seconds_bucket{op=\"delta\",le=\"0.004\"} 2
x_seconds_bucket{op=\"delta\",le=\"+Inf\"} 2
x_seconds_bucket{op=\"mine\",le=\"0.001\"} 0
x_seconds_bucket{op=\"mine\",le=\"0.002\"} 0
x_seconds_bucket{op=\"mine\",le=\"0.004\"} 5
x_seconds_bucket{op=\"mine\",le=\"+Inf\"} 5
x_seconds_count{op=\"delta\"} 2
fsync_total 7
";

    const AFTER: &str = "\
x_seconds_bucket{op=\"delta\",le=\"0.001\"} 1
x_seconds_bucket{op=\"delta\",le=\"0.002\"} 6
x_seconds_bucket{op=\"delta\",le=\"0.004\"} 10
x_seconds_bucket{op=\"delta\",le=\"+Inf\"} 10
x_seconds_bucket{op=\"mine\",le=\"0.001\"} 0
x_seconds_bucket{op=\"mine\",le=\"0.002\"} 0
x_seconds_bucket{op=\"mine\",le=\"0.004\"} 5
x_seconds_bucket{op=\"mine\",le=\"+Inf\"} 5
x_seconds_count{op=\"delta\"} 10
fsync_total 19
";

    #[test]
    fn parses_series_and_buckets() {
        let s = Scrape::parse(BEFORE);
        assert_eq!(s.value("fsync_total"), 7.0);
        assert_eq!(s.value("absent_total"), 0.0);
        let b = s.buckets("x_seconds", "op=\"mine\"");
        assert_eq!(
            b,
            vec![
                (0.001, 0.0),
                (0.002, 0.0),
                (0.004, 5.0),
                (f64::INFINITY, 5.0)
            ]
        );
    }

    #[test]
    fn window_quantile_comes_from_bucket_differences() {
        let window = Scrape::parse(AFTER).since(&Scrape::parse(BEFORE));
        assert_eq!(window.value("fsync_total"), 12.0);
        assert_eq!(window.value("x_seconds_count{op=\"delta\"}"), 8.0);
        // The window's 8 deltas: 4 in (0.001, 0.002], 4 in (0.002, 0.004].
        let p50 = window
            .quantile("x_seconds", "op=\"delta\"", 0.5)
            .expect("deltas");
        assert!((p50 - 0.002).abs() < 1e-12, "p50 {p50}");
        // The mine series did not move, so the window has no mines.
        assert_eq!(window.quantile("x_seconds", "op=\"mine\"", 0.5), None);
    }
}
