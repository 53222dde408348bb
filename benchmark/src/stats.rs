//! Order statistics over measured samples.

use std::ops::Range;

/// A percentile read off a sample, with the count behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quantile {
    pub value: f64,
    /// Samples the percentile was taken from.
    pub samples: usize,
    /// Samples strictly above the percentile's rank. The benchmark treats
    /// a percentile as resolved only when at least ten samples lie beyond.
    pub beyond: usize,
}

/// Nearest-rank percentile `q` (in `[0, 1]`) of `samples`; NaN when empty.
pub fn quantile(samples: &[f64], q: f64) -> Quantile {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return Quantile {
            value: f64::NAN,
            samples: 0,
            beyond: 0,
        };
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Quantile {
        value: sorted[rank - 1],
        samples: sorted.len(),
        beyond: sorted.len() - rank,
    }
}

pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => sorted[n / 2],
        n => 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]),
    }
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        f64::NAN
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `max(1, n / min_chunk)` equal consecutive ranges over `n` samples, the
/// last taking the remainder: each holds at least `min_chunk` samples
/// unless `n` is smaller. None when `n` is 0.
pub fn chunk_ranges(n: usize, min_chunk: usize) -> Vec<Range<usize>> {
    if n == 0 {
        return Vec::new();
    }
    let chunks = (n / min_chunk).max(1);
    let size = n / chunks;
    (0..chunks)
        .map(|k| k * size..if k + 1 == chunks { n } else { (k + 1) * size })
        .collect()
}

/// Consecutive ranges over sorted event times measured from 0, each
/// closing at the first event at least `span` after the previous range's
/// last event (or 0); a shorter tail joins the last range.
pub fn span_ranges(times: &[f64], span: f64) -> Vec<Range<usize>> {
    let mut ranges: Vec<Range<usize>> = Vec::new();
    let (mut start, mut from) = (0, 0.0);
    for (i, &t) in times.iter().enumerate() {
        if t - from >= span {
            ranges.push(start..i + 1);
            (start, from) = (i + 1, t);
        }
    }
    if start < times.len() {
        match ranges.last_mut() {
            Some(last) => last.end = times.len(),
            None => ranges.push(start..times.len()),
        }
    }
    ranges
}

/// A figure measured over one part of a run (a set-up, a sweep), with the
/// CPU ticks the hypervisor stole from the machine while it ran.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Part {
    pub value: f64,
    pub stolen: u64,
}

/// The items measured while the host was calm: those the hypervisor
/// stole no more CPU from than from the median item (`stolen[i]` ticks
/// from item `i`; on a quiet host, every item with no steal at all). A
/// run on a shared host goes at a fraction of its speed while its CPUs are
/// taken away, and how much of a run that hits changes from run to run;
/// figures over the calm items do not follow it.
pub fn calm<T>(items: impl IntoIterator<Item = T>, stolen: &[u64]) -> Vec<T> {
    let ticks: Vec<f64> = stolen.iter().map(|&s| s as f64).collect();
    let limit = median(&ticks);
    items
        .into_iter()
        .zip(stolen)
        .filter(|(_, &s)| s as f64 <= limit)
        .map(|(item, _)| item)
        .collect()
}

/// Median value over a run's calm parts (see [`calm`]).
pub fn calm_median(parts: &[Part]) -> f64 {
    let stolen: Vec<u64> = parts.iter().map(|p| p.stolen).collect();
    let values = calm(parts.iter().map(|p| p.value), &stolen);
    median(&values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_count_what_lies_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = quantile(&xs, 0.99);
        assert_eq!(p99.value, 990.0);
        assert_eq!(p99.beyond, 10);
        assert_eq!(quantile(&xs, 0.5).value, 500.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
        assert!(quantile(&[], 0.5).value.is_nan());
    }

    #[test]
    fn chunk_ranges_are_equal_and_cover_every_sample() {
        assert_eq!(chunk_ranges(2_500, 1_000), vec![0..1_250, 1_250..2_500]);
        assert_eq!(chunk_ranges(2_999, 1_000), vec![0..1_499, 1_499..2_999]);
        assert_eq!(chunk_ranges(400, 1_000), vec![0..400]);
        assert!(chunk_ranges(0, 1_000).is_empty());
    }

    #[test]
    fn span_ranges_close_once_the_span_has_passed() {
        let times = [0.01, 0.03, 0.05, 0.06, 0.12, 0.13];
        assert_eq!(span_ranges(&times, 0.05), vec![0..3, 3..6]);
        assert_eq!(span_ranges(&times[..2], 0.05), vec![0..2]);
        assert!(span_ranges(&[], 0.05).is_empty());
    }

    #[test]
    fn calm_median_skips_parts_the_host_stole_from() {
        let part = |value, stolen| Part { value, stolen };
        let quiet = [part(10.0, 0), part(11.0, 0), part(2.0, 3), part(12.0, 0)];
        assert_eq!(calm_median(&quiet), 11.0);
        let busy = [part(5.0, 2), part(7.0, 1), part(1.0, 6), part(6.0, 1)];
        assert_eq!(calm_median(&busy), 6.5, "the less-stolen half");
    }
}
