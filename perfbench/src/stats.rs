//! The benchmark's own arithmetic: percentiles that refuse thin tails,
//! medians, span self time, and the SLO rate rule. Self-tested below.

/// Fewest samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie strictly beyond the chosen rank.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    if sorted.len() - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Median of unsorted values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// A span's duration minus the part of `[start, end)` that the union of its
/// children's intervals covers. Children may overlap each other and may
/// stick out of the parent; only the covered part inside the parent counts.
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    end.saturating_sub(start) - covered
}

/// What the SLO rule needs from one step of the rate ladder.
#[derive(Debug, Clone)]
pub struct StepVerdict {
    pub rate: f64,
    /// Requests due in the step.
    pub sent: usize,
    /// Of those, answered 200 within the latency limit of their due time.
    pub within_limit: usize,
    /// Mean generator lag over the first and second half of the step (µs).
    pub lag_first_half_us: f64,
    pub lag_second_half_us: f64,
}

/// Share of sent requests that must meet the limit.
pub const SLO_SHARE: f64 = 0.99;
/// Growth of mean generator lag between the halves of a step that counts
/// as a falling-behind generator (µs).
pub const LAG_GROWTH_US: f64 = 1000.0;

impl StepVerdict {
    pub fn meets_slo(&self) -> bool {
        self.sent > 0
            && self.within_limit as f64 >= SLO_SHARE * self.sent as f64
            && self.lag_second_half_us <= self.lag_first_half_us + LAG_GROWTH_US
    }
}

/// The highest ladder rate that meets the SLO with every lower rate meeting
/// it too, or 0 when the lowest rate already misses.
pub fn slo_rate(steps: &[StepVerdict]) -> f64 {
    let mut sorted: Vec<&StepVerdict> = steps.iter().collect();
    sorted.sort_by(|a, b| a.rate.total_cmp(&b.rate));
    let mut best = 0.0;
    for s in sorted {
        if !s.meets_slo() {
            break;
        }
        best = s.rate;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_thin_tails() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 samples leaves exactly 10 beyond: reported.
        assert_eq!(percentile(&v, 0.90), Some(90.0));
        // p99 of 100 samples leaves 1 beyond: refused.
        assert_eq!(percentile(&v, 0.99), None);
        let w: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&w, 0.99), Some(990.0));
        assert_eq!(percentile(&w, 0.5), Some(500.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[1.0; 15], 0.5), None);
    }

    #[test]
    fn median_handles_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // Parent [0, 100); children overlap ([10,30) ∪ [20,40) = 30) and one
        // sticks out of the parent ([90,120) counts 10).
        assert_eq!(self_time(0, 100, &[(10, 30), (20, 40), (90, 120)]), 60);
        // Nested and duplicate children count once.
        assert_eq!(self_time(0, 100, &[(10, 50), (20, 30), (10, 50)]), 60);
        assert_eq!(self_time(0, 100, &[]), 100);
        assert_eq!(self_time(0, 100, &[(0, 100), (50, 60)]), 0);
        assert_eq!(self_time(50, 60, &[(0, 10), (70, 80)]), 10);
    }

    fn step(rate: f64, sent: usize, within: usize, lag: (f64, f64)) -> StepVerdict {
        StepVerdict {
            rate,
            sent,
            within_limit: within,
            lag_first_half_us: lag.0,
            lag_second_half_us: lag.1,
        }
    }

    #[test]
    fn slo_rate_is_the_highest_sustained_rate() {
        let ok = (50.0, 60.0);
        // All pass: the top rate.
        assert_eq!(
            slo_rate(&[
                step(75.0, 300, 300, ok),
                step(150.0, 1200, 1195, ok),
                step(300.0, 2400, 2380, ok)
            ]),
            300.0
        );
        // Heavy misses the share (2300/2400 < 99%): mid.
        assert_eq!(
            slo_rate(&[
                step(300.0, 2400, 2300, ok),
                step(75.0, 300, 300, ok),
                step(150.0, 1200, 1200, ok)
            ]),
            150.0
        );
        // Heavy meets the share but the generator falls behind: mid.
        assert_eq!(
            slo_rate(&[
                step(75.0, 300, 300, ok),
                step(150.0, 1200, 1200, ok),
                step(300.0, 2400, 2400, (50.0, 5000.0))
            ]),
            150.0
        );
        // A pass above a miss does not count.
        assert_eq!(
            slo_rate(&[
                step(75.0, 300, 200, ok),
                step(150.0, 1200, 1200, ok),
                step(300.0, 2400, 2400, ok)
            ]),
            0.0
        );
        // Exactly 99% passes.
        assert_eq!(slo_rate(&[step(75.0, 100, 99, ok)]), 75.0);
    }
}
