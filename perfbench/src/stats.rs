//! The benchmark's own arithmetic: percentiles, open-loop latency and
//! generator lag, span self time, and the backlog rule behind
//! `rps_at_slo`. Everything here is pure so the unit tests below pin it.

/// Percentiles the tail rule may report, highest first.
pub const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a reported percentile.
pub const BEYOND: usize = 10;

/// Linear-interpolated quantile `q` (0..=1) of `sorted` (ascending).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let (a, b) = (sorted[lo], sorted[hi]);
    if lo == hi || b.is_infinite() {
        return b;
    }
    a + (b - a) * (pos - lo as f64)
}

/// Sorts a copy of `xs` ascending (infinities sort last).
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(&sorted(xs), 0.5)
}

/// Arithmetic mean of `xs`.
pub fn mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "mean of no samples");
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// The highest percentile of [`TAIL_LADDER`] that leaves at least
/// [`BEYOND`] of `n` samples beyond it, or `None` when even the median
/// has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|p| (n as f64) * (1.0 - p / 100.0) >= BEYOND as f64 - 1e-9)
}

/// The tail of `xs` by the rule above, with the percentile used. With
/// too few samples for any ladder step no tail is resolvable, and the
/// median stands in: a maximum of a handful of samples is mostly noise.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let s = sorted(xs);
    let p = tail_percentile(s.len()).unwrap_or(50.0);
    (quantile(&s, p / 100.0), p)
}

/// One request of an open-loop run, in seconds since the run's origin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// When the schedule said the request should be sent.
    pub due: f64,
    /// When the connection that sent it became free.
    pub conn_free: f64,
    /// When its first byte was written.
    pub sent: f64,
    /// When its response was fully read (or it failed).
    pub done: f64,
    /// A 200 with the reference bytes, in time.
    pub ok: bool,
}

impl Sample {
    /// Latency as a caller sees it: from the due time, so a stall also
    /// bills the requests queued behind it. A failed request never
    /// meets any limit.
    pub fn latency(&self) -> f64 {
        if self.ok {
            self.done - self.due
        } else {
            f64::INFINITY
        }
    }

    /// How late the generator itself ran: the time between the moment
    /// it could have sent (due, with a free connection) and the send.
    pub fn lag(&self) -> f64 {
        (self.sent - self.due.max(self.conn_free)).max(0.0)
    }

    /// How long the request waited for a free connection.
    pub fn wait(&self) -> f64 {
        (self.sent - self.due).max(0.0)
    }
}

/// Whether a step's queue kept growing: the requests in the last third
/// of the schedule waited for a connection longer than those in the
/// first third by more than two arrival periods.
pub fn growing_backlog(samples: &[Sample], rate: f64) -> bool {
    let mut by_due: Vec<&Sample> = samples.iter().collect();
    by_due.sort_by(|a, b| a.due.total_cmp(&b.due));
    let third = by_due.len() / 3;
    if third == 0 {
        return false;
    }
    let waits = |s: &[&Sample]| median(&s.iter().map(|x| x.wait()).collect::<Vec<_>>());
    let first = waits(&by_due[..third]);
    let last = waits(&by_due[by_due.len() - third..]);
    last - first > 2.0 / rate
}

/// One rung of the `rps_at_slo` ladder, as measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Step {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Tail latency by the percentile rule, seconds (infinite if any
    /// request failed beyond the tail).
    pub tail: f64,
    /// Whether the step built a growing backlog.
    pub backlog: bool,
}

/// The highest rate meeting `limit` (seconds) without a growing
/// backlog. Steps are taken in ascending rate; the first failing step
/// ends the search. Between the last passing and the first failing
/// rate the answer is interpolated on tail latency, so it does not
/// snap to ladder rungs; a step that fails only on backlog gives the
/// last passing rate. When the first step already fails, its rate
/// scaled by how far its tail is over the limit.
pub fn rps_at_slo(steps: &[Step], limit: f64) -> f64 {
    let mut steps = steps.to_vec();
    steps.sort_by(|a, b| a.rate.total_cmp(&b.rate));
    let passes = |s: &Step| s.tail <= limit && !s.backlog;
    let Some(fail) = steps.iter().position(|s| !passes(s)) else {
        return steps.last().map_or(0.0, |s| s.rate);
    };
    let f = steps[fail];
    if fail == 0 {
        return if f.tail.is_finite() && f.tail > limit {
            f.rate * limit / f.tail
        } else {
            f.rate
        };
    }
    let p = steps[fail - 1];
    if f.tail <= limit || !f.tail.is_finite() {
        return p.rate;
    }
    let frac = ((limit - p.tail) / (f.tail - p.tail)).clamp(0.0, 1.0);
    p.rate + (f.rate - p.rate) * frac
}

/// One closed span of the traced pass (nanoseconds since the pass
/// origin).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `lang.lex`.
    pub name: String,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
}

/// Each span's self time: its duration minus the part of its interval
/// that its children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cur: Option<(u64, u64)> = None;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(s.start), b.min(s.end));
                if a >= b {
                    continue;
                }
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            (s.end - s.start).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_picks_the_highest_percentile_with_ten_beyond() {
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
    }

    #[test]
    fn tail_falls_back_to_the_median() {
        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail(&xs), (6.0, 50.0));
        let xs: Vec<f64> = (0..1000).map(f64::from).collect();
        let (v, p) = tail(&xs);
        assert_eq!(p, 99.0);
        assert!((v - 989.01).abs() < 1e-9, "{v}");
    }

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(quantile(&[1.0, 3.0], 0.5), 2.0);
        assert_eq!(quantile(&[1.0, f64::INFINITY], 0.5), f64::INFINITY);
        assert_eq!(
            quantile(&[f64::INFINITY, f64::INFINITY], 0.0),
            f64::INFINITY
        );
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(mean(&[5.0, 1.0, 3.0, 7.0]), 4.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.25), 2.0);
    }

    #[test]
    fn latency_runs_from_the_due_time_and_lag_from_when_sending_was_possible() {
        // Due at 1.0 but the only connection was busy until 1.5; sent at
        // 1.52, answered at 1.6.
        let s = Sample {
            due: 1.0,
            conn_free: 1.5,
            sent: 1.52,
            done: 1.6,
            ok: true,
        };
        assert!((s.latency() - 0.6).abs() < 1e-12);
        assert!((s.lag() - 0.02).abs() < 1e-12);
        assert!((s.wait() - 0.52).abs() < 1e-12);
        // A free connection: lag is the generator oversleeping its due time.
        let s = Sample {
            due: 2.0,
            conn_free: 1.0,
            sent: 2.003,
            done: 2.01,
            ok: true,
        };
        assert!((s.lag() - 0.003).abs() < 1e-12);
        // A failure never meets a limit.
        let s = Sample { ok: false, ..s };
        assert!(s.latency().is_infinite());
    }

    fn schedule(rate: f64, n: usize, service: f64) -> Vec<Sample> {
        // One connection, fixed service time: a queue forms iff
        // service > 1/rate.
        let mut free = 0.0f64;
        (0..n)
            .map(|k| {
                let due = k as f64 / rate;
                let sent = due.max(free);
                let s = Sample {
                    due,
                    conn_free: free,
                    sent,
                    done: sent + service,
                    ok: true,
                };
                free = s.done;
                s
            })
            .collect()
    }

    #[test]
    fn backlog_is_detected_only_when_the_queue_grows() {
        assert!(!growing_backlog(&schedule(10.0, 60, 0.05), 10.0));
        assert!(!growing_backlog(&schedule(19.0, 60, 0.05), 19.0));
        assert!(growing_backlog(&schedule(25.0, 60, 0.05), 25.0));
        assert!(!growing_backlog(&schedule(25.0, 2, 0.05), 25.0));
    }

    #[test]
    fn rps_at_slo_interpolates_between_the_last_pass_and_the_first_fail() {
        let step = |rate, tail, backlog| Step {
            rate,
            tail,
            backlog,
        };
        let steps = [
            step(20.0, 0.02, false),
            step(40.0, 0.04, false),
            step(60.0, 0.14, false),
            step(80.0, 0.9, true),
        ];
        // Limit 0.09 s lies halfway between 0.04 and 0.14.
        assert!((rps_at_slo(&steps, 0.09) - 50.0).abs() < 1e-9);
        // Backlog alone stops the search at the last passing rate.
        let steps = [step(20.0, 0.02, false), step(40.0, 0.03, true)];
        assert_eq!(rps_at_slo(&steps, 0.09), 20.0);
        // Every step passes: the top of the ladder.
        assert_eq!(rps_at_slo(&[step(20.0, 0.02, false)], 0.09), 20.0);
        // The first step fails: scaled down by the overshoot.
        assert!((rps_at_slo(&[step(20.0, 0.18, false)], 0.09) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn self_time_is_span_minus_child_coverage() {
        let sp = |name: &str, parent, start, end| Span {
            name: name.into(),
            parent,
            start,
            end,
        };
        let spans = [
            sp("root", None, 0, 100),
            sp("a", Some(0), 10, 30),
            sp("b", Some(0), 20, 50), // overlaps a: 10..50 covered once
            sp("c", Some(0), 60, 70),
            sp("d", Some(3), 62, 65),
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 20, 30, 7, 3]);
    }
}
